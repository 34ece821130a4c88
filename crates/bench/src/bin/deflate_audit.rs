//! Checkpoint-bisection divergence diagnosis (`deflate-audit`): bisect
//! a matrix of run pairs with known ground truth — two pairs that the
//! repo's determinism contracts require to be bit-identical (telemetry
//! on vs off, auditor on vs off) and one pair with an injected
//! single-knob divergence (FIFO vs smallest-first transfer ordering
//! under contended migration slots).
//!
//! Exits non-zero when an identical pair diverges (a determinism
//! regression) or the injected divergence is not localized to one
//! resolution window. CI runs this as a smoke step.
use deflate_bench::audit_exp::{audit_matrix, audit_table};
use deflate_bench::report::FigureTimer;

fn main() {
    let timer = FigureTimer::start();
    let cases = match audit_matrix() {
        Ok(cases) => cases,
        Err(err) => {
            eprintln!("deflate-audit: bisection infrastructure failed: {err}");
            std::process::exit(1);
        }
    };
    audit_table(&cases, timer).print();
    for case in &cases {
        if let Some(report) = &case.report {
            println!("{}: {report}", case.name);
        }
    }
    let failures: Vec<String> = cases.iter().flat_map(|c| c.failures()).collect();
    deflate_bench::report::append_process_footer_json("deflate_audit");
    if !failures.is_empty() {
        eprintln!("AUDIT FAILURE: {}", failures.join("; "));
        std::process::exit(1);
    }
}
