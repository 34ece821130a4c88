//! The engine benchmark. One process replays one workload, seeded from the
//! command line, and prints every metric by name and unit; the last line
//! of standard output is one JSON object.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload spot_reclaim --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` times the untraced engine and reports the end-to-end
//! metrics; `--trace 1` runs the traced manager-level replay (or the timed
//! what-if loop) and reports the per-layer metrics. Workloads, metrics and
//! the layer-to-end-to-end predictions are described in `README.md`.

mod cluster;
mod stats;

use cluster::{Inputs, Scenario, SetupTimes, TelemetryFigures, WhatifTrace};
use deflate_cluster::metrics::SimResult;
use stats::{digest, first_difference, median, median_layers, Layers, ProbedTimes};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The seed the pinned digests were taken at.
const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Fewest timed repetitions per run, however long each takes.
const MIN_REPS: usize = 3;
/// The host-speed probe's time at the reference speed `setup_s` and
/// `run_s` are reported at (about its median on a quiet 2-vCPU Xeon host).
/// Host slowdowns that hit the engine and the probe alike cancel, while a
/// change to the engine moves only the engine's time: the probe does not
/// use the repository's code.
const PROBE_REFERENCE_S: f64 = 0.04;

/// Subsystems of the memory ledger reported as `mem.<name>_mib`.
pub const MEMORY_SUBSYSTEMS: [&str; 5] = [
    "servers",
    "placement_index",
    "scheduler",
    "migrations",
    "workload",
];

/// End-to-end metrics, reported by the untraced run.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics, reported by the traced run; those that do not apply
/// to a workload read 0.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut metrics: Vec<(String, &'static str)> = [
        ("traces.generate_s", "s"),
        ("traces.workload_s", "s"),
        ("transient.schedule_s", "s"),
        ("transient.capacity_changes", "count"),
        ("transient.queue_build_s", "s"),
        ("transient.queue_pop.busy_s", "s"),
        ("sim.events", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for call in [
        "place_vm",
        "remove_vm",
        "reclaim_capacity",
        "restore_capacity",
        "complete_migration",
        "observe_vm_utilizations",
        "cpu_usage_snapshot",
        "allocation_fractions_on",
    ] {
        metrics.push((format!("manager.{call}.calls"), "count"));
        metrics.push((format!("manager.{call}.busy_s"), "s"));
        metrics.push((format!("manager.{call}.p50_us"), "us"));
        metrics.push((format!("manager.{call}.p99_us"), "us"));
    }
    for (name, unit) in [
        ("manager.place_vm.deflated_frac", "fraction"),
        ("manager.place_vm.rejected_frac", "fraction"),
        ("manager.migrations.completed_frac", "fraction"),
        ("manager.reclaim.victims", "count"),
    ] {
        metrics.push((name.to_string(), unit));
    }
    for name in MEMORY_SUBSYSTEMS {
        metrics.push((format!("mem.{name}_mib"), "MiB"));
    }
    for (name, unit) in [
        ("mem.accounted_mib", "MiB"),
        ("checkpoint.bytes", "B"),
        ("checkpoint.restore_serialize_s", "s"),
        ("fork.branch_s", "s"),
        ("fork.leapfrog_s", "s"),
        ("telemetry.accounted_mib", "MiB"),
        ("telemetry.finish_s", "s"),
        ("telemetry.trace_events", "count"),
        ("trace.overhead_frac", "fraction"),
    ] {
        metrics.push((name.to_string(), unit));
    }
    metrics
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    SpotReclaim,
    OvercommitAdmit,
    WhatifFork,
    SpotTelemetry,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SpotReclaim,
        Workload::OvercommitAdmit,
        Workload::WhatifFork,
        Workload::SpotTelemetry,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SpotReclaim => "spot_reclaim",
            Workload::OvercommitAdmit => "overcommit_admit",
            Workload::WhatifFork => "whatif_fork",
            Workload::SpotTelemetry => "spot_telemetry",
        }
    }

    fn scenario(self) -> Scenario {
        match self {
            Workload::OvercommitAdmit => Scenario::Overcommit,
            _ => Scenario::Spot,
        }
    }

    /// VMs in the generated trace.
    fn vms(self) -> usize {
        match self.scenario() {
            Scenario::Spot => 10_000,
            Scenario::Overcommit => 30_000,
        }
    }

    /// Digest of the untraced result at [`DEFAULT_SEED`]. The sinks-on run
    /// must equal the sinks-off one, and the what-if trajectory the static
    /// FIFO run, so three workloads share one value.
    fn pinned_digest(self) -> u64 {
        match self {
            Workload::OvercommitAdmit => 0x3e46_2452_09e2_baff,
            _ => 0x2baf_06cb_ee9a_0858,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Tally of attempted and failed operations.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn record(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what}");
        }
    }
}

/// Run `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".to_string()))
}

/// Set up [`SETUP_REPS`] times, timing each in `timer`, and keep the last
/// inputs.
fn setup(args: &Args, timer: &mut ProbedTimes) -> (Inputs, Vec<SetupTimes>) {
    let mut times = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let (built, t) =
            timer.time(|| cluster::setup(args.workload.scenario(), args.workload.vms(), args.seed));
        inputs = Some(built);
        times.push(t);
    }
    (inputs.expect("at least one set-up"), times)
}

/// Where the telemetry workload writes its event log and Chrome trace.
fn scratch_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("scratch")
        .join(std::process::id().to_string())
}

/// One untraced repetition of `workload`'s timed body.
fn body(
    workload: Workload,
    inputs: &Inputs,
) -> Result<(SimResult, Option<TelemetryFigures>), String> {
    guarded(|| match workload {
        Workload::SpotReclaim | Workload::OvercommitAdmit => Ok((inputs.run(), None)),
        Workload::WhatifFork => inputs
            .whatif(None)
            .map(|result| (result, None))
            .map_err(|e| format!("what-if pass: {e}")),
        Workload::SpotTelemetry => {
            let dir = scratch_dir();
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let run = inputs.run_with_sinks(&dir);
            let _ = std::fs::remove_dir_all(&dir);
            run.map(|(result, figures)| (result, Some(figures)))
                .map_err(|e| format!("telemetry sinks: {e}"))
        }
    })
}

/// What a run prints.
struct Report {
    checks: Checks,
    metrics: Vec<(String, f64, &'static str)>,
}

/// Repeat `rep` until `seconds` have passed and at least [`MIN_REPS`]
/// repetitions ran.
fn repeat(seconds: f64, mut rep: impl FnMut()) {
    let started = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        rep();
        reps += 1;
    }
}

/// The untraced run: end-to-end metrics and the result-digest gate.
fn end_to_end(args: &Args) -> Report {
    let workload = args.workload;
    let mut setup_s = ProbedTimes::default();
    let (inputs, _) = setup(args, &mut setup_s);
    let scoped = deflate_telemetry::reset_peak_rss();
    let mut checks = Checks::default();
    let mut run_s = ProbedTimes::default();
    let mut peaks = Vec::new();
    let mut first: Option<SimResult> = None;
    repeat(args.seconds, || {
        let outcome = run_s.time(|| {
            deflate_telemetry::reset_peak_rss();
            body(workload, &inputs)
        });
        match outcome {
            Ok((result, figures)) => {
                peaks.push(deflate_telemetry::peak_rss_mib().unwrap_or(0.0));
                if let Some(figures) = figures {
                    checks.record(
                        "telemetry sinks wrote without error",
                        figures.report.io_errors == 0,
                    );
                }
                match &first {
                    None => {
                        checks.record("run", true);
                        first = Some(result);
                    }
                    Some(f) => checks.record(
                        "repeated run gives the same digest",
                        digest(f) == digest(&result),
                    ),
                }
            }
            Err(e) => checks.record(&format!("run: {e}"), false),
        }
    });

    if let Some(result) = &first {
        let observed = digest(result);
        if args.seed == DEFAULT_SEED {
            let pinned = workload.pinned_digest();
            checks.record(
                &format!("digest {observed:016x} equals pinned {pinned:016x}"),
                observed == pinned,
            );
        }
        let (what, other) = match workload {
            Workload::SpotReclaim | Workload::OvercommitAdmit => (
                "resume(checkpoint(mid)) equals run",
                guarded(|| {
                    inputs
                        .checkpoint_and_resume()
                        .map_err(|e| format!("checkpoint: {e}"))
                }),
            ),
            Workload::WhatifFork => (
                "committed what-if trajectory equals the static FIFO run",
                guarded(|| Ok(inputs.run())),
            ),
            Workload::SpotTelemetry => (
                "sinks-on run equals the sinks-off run",
                guarded(|| Ok(inputs.run())),
            ),
        };
        match other {
            Ok(other) => checks.record(what, digest(&other) == observed),
            Err(e) => checks.record(&format!("{what}: {e}"), false),
        }
        println!(
            "{}: {} VMs, {} servers, digest {observed:016x}, failure {:.4}%, throughput loss {:.4}%, migrations {}, events {}, {:.0} events/s",
            workload.name(),
            inputs.vms(),
            inputs.servers(),
            result.failure_probability() * 100.0,
            result.mean_throughput_loss() * 100.0,
            result.migration_count(),
            result.runtime.events_processed,
            result.runtime.events_processed as f64 / run_s.host_median(),
        );
    }
    if !scoped {
        println!("peak_rss_mib is process-wide: /proc/self/clear_refs is not writable");
    }
    println!(
        "host speed: probe median {:.5} s (reference {PROBE_REFERENCE_S} s); unscaled setup {:.5} s, run {:.5} s",
        run_s.probe_median(),
        setup_s.host_median(),
        run_s.host_median(),
    );
    let values = [
        setup_s.scaled_median(PROBE_REFERENCE_S),
        run_s.scaled_median(PROBE_REFERENCE_S),
        median(&peaks),
    ];
    Report {
        checks,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name.to_string(), value, unit))
            .collect(),
    }
}

/// The traced run: per-layer metrics, and the replay fidelity gate.
fn per_layer(args: &Args) -> Result<Report, String> {
    let workload = args.workload;
    let (inputs, setups) = setup(args, &mut ProbedTimes::default());
    let mut layers = Layers::new();
    let column = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    layers.insert("traces.generate_s".into(), column(|t| t.generate_s));
    layers.insert("traces.workload_s".into(), column(|t| t.workload_s));
    layers.insert("transient.schedule_s".into(), column(|t| t.schedule_s));
    layers.insert(
        "transient.capacity_changes".into(),
        inputs.capacity_changes() as f64,
    );

    // Untraced and traced repetitions alternate, so both see the same
    // host load and `trace.overhead_frac` compares like with like. The
    // untraced one runs the sinks-off engine on every workload and is the
    // reference the traced one must reproduce.
    let mut checks = Checks::default();
    let mut reference: Option<SimResult> = None;
    let mut untraced_s = Vec::new();
    let mut reps: Vec<Layers> = Vec::new();
    let mut mismatch: Option<String> = None;
    repeat(args.seconds, || {
        let started = Instant::now();
        let outcome = guarded(|| match workload {
            Workload::WhatifFork => inputs
                .whatif(None)
                .map_err(|e| format!("what-if pass: {e}")),
            _ => Ok(inputs.run()),
        });
        untraced_s.push(started.elapsed().as_secs_f64());
        checks.record("untraced run", outcome.is_ok());
        let reference = match (outcome, &reference) {
            (Ok(result), None) => reference.insert(result),
            (_, Some(reference)) => reference,
            (Err(e), None) => {
                mismatch.get_or_insert(format!("untraced run: {e}"));
                return;
            }
        };

        let mut rep = Layers::new();
        let outcome = guarded(|| match workload {
            Workload::WhatifFork => {
                let mut trace = WhatifTrace::default();
                let result = inputs
                    .whatif(Some(&mut trace))
                    .map_err(|e| format!("what-if pass: {e}"))?;
                if trace.roundtrip_mismatches > 0 {
                    return Err(format!(
                        "{} snapshots changed on restore and re-serialize",
                        trace.roundtrip_mismatches
                    ));
                }
                rep.insert(
                    "checkpoint.bytes".into(),
                    trace.snapshot_bytes as f64 / trace.snapshots.max(1) as f64,
                );
                rep.insert(
                    "checkpoint.restore_serialize_s".into(),
                    trace.restore_serialize_s,
                );
                rep.insert("fork.branch_s".into(), trace.branch_s);
                rep.insert("fork.leapfrog_s".into(), trace.leapfrog_s);
                rep.insert("trace.run_s".into(), trace.branch_s + trace.leapfrog_s);
                rep.insert("sim.events".into(), result.runtime.events_processed as f64);
                Ok(result)
            }
            _ => Ok(inputs.replay(&mut rep)),
        });
        checks.record("traced run", outcome.is_ok());
        match outcome {
            Ok(result) => {
                if let Some((field, traced, untraced)) = first_difference(&result, reference) {
                    mismatch.get_or_insert(format!(
                        "traced run differs from the untraced run in `{field}`: traced {traced}, untraced {untraced}"
                    ));
                }
                reps.push(rep);
            }
            Err(e) => {
                mismatch.get_or_insert(e);
            }
        }
    });
    if let Some(mismatch) = mismatch {
        return Err(format!("replay fidelity gate: {mismatch}"));
    }
    let reference = reference.ok_or("no untraced run succeeded")?;
    layers.extend(median_layers(&reps));
    let traced_s = layers.remove("trace.run_s").unwrap_or(0.0);
    let untraced = median(&untraced_s);
    layers.insert(
        "trace.overhead_frac".into(),
        (traced_s - untraced) / untraced,
    );

    if workload == Workload::SpotTelemetry {
        let (result, figures) = body(workload, &inputs)?;
        let figures = figures.ok_or("telemetry run returned no figures")?;
        checks.record(
            "sinks-on run equals the sinks-off run",
            digest(&result) == digest(&reference),
        );
        layers.insert(
            "telemetry.accounted_mib".into(),
            figures.accounted_bytes as f64 / (1024.0 * 1024.0),
        );
        layers.insert("telemetry.finish_s".into(), figures.finish_s);
        layers.insert(
            "telemetry.trace_events".into(),
            figures.report.chrome_events as f64,
        );
    }
    println!(
        "{}: traced run {traced_s:.4} s, untraced {untraced:.4} s, replay matches the engine on every digest field",
        workload.name()
    );
    Ok(Report {
        checks,
        metrics: per_layer_metrics()
            .into_iter()
            .map(|(name, unit)| {
                let value = layers.get(&name).copied().unwrap_or(0.0);
                (name, value, unit)
            })
            .collect(),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        match per_layer(&args) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        end_to_end(&args)
    };
    let Checks { attempted, failed } = report.checks;
    println!(
        "failed_frac = {} ({failed} of {attempted} operations)",
        failed as f64 / attempted.max(1) as f64
    );
    let mut json = Vec::new();
    for (name, value, unit) in &report.metrics {
        println!("{name} = {value} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
