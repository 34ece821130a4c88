//! The engine-profiling run: replay the `fig_scale` spot-market
//! scenario with the `deflate-telemetry` phase profiler on and print a
//! per-phase self-time table per cluster size — the before-picture for
//! ROADMAP item 1 (the placement-ranking bottleneck). Each run also
//! writes a Chrome `trace_event` file openable in Perfetto /
//! `chrome://tracing` (`DEFLATE_TRACE_OUT` overrides the path).
//!
//! Exits non-zero when the observability acceptance contract breaks:
//! attributed phases must cover ≥ 90 % of the engine total,
//! `placement_rank` must be separately attributed, the combined
//! `placement_rank` + `placement_index` self-time share must stay below
//! the 40 % ceiling (the incremental-placement regression gate), and the
//! written trace must validate (parseable JSON array, matched begin/end
//! pairs). CI runs the quick profile as a smoke step and relies on this.
use deflate_bench::profile_exp::{phase_table, profile_sweep};
use deflate_bench::Scale;

fn main() {
    let scale = Scale::from_env_and_args();
    let runs = match profile_sweep(scale) {
        Ok(runs) => runs,
        Err(err) => {
            eprintln!("fig_profile: telemetry sink setup failed: {err}");
            std::process::exit(1);
        }
    };
    let mut failures: Vec<String> = Vec::new();
    for run in &runs {
        phase_table(run).print();
        println!("trace: {}", run.trace_path.display());
        failures.extend(run.failures());
    }
    deflate_bench::report::append_process_footer_json("fig_profile");
    if !failures.is_empty() {
        eprintln!("PROFILE FAILURE: {}", failures.join("; "));
        std::process::exit(1);
    }
}
