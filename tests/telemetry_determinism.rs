//! The standing `deflate-telemetry` contracts, end to end:
//!
//! * **Off by default** — a `ClusterSimulation` without the telemetry
//!   knob runs with the disabled sink and produces an empty report.
//! * **Observation never changes results** — enabling every sink
//!   (metrics + profiler + JSONL event log + Chrome trace) leaves every
//!   `SimResult` field bit-identical to a telemetry-off run. Wall clock
//!   is the only exemption, and it is already outside `SimResult`'s
//!   equality.
//! * **Traces are well-formed** — every JSONL line round-trips through
//!   the stub-serde deserializer, and the Chrome trace validates as a
//!   parseable JSON array with matched begin/end span pairs.

use deflate_bench::scale::Scale;
use deflate_bench::scale_exp::{
    run_scale_cell, run_scale_cell_audited, run_scale_cell_with_telemetry, scale_workload,
};
use vmdeflate::cluster::spec::WorkloadVm;
use vmdeflate::core::audit::AuditSpec;
use vmdeflate::telemetry::{
    parse_event_line, validate_chrome_trace, TelemetryEventSet, TelemetrySink, TelemetrySpec,
};

/// The quick spot-market scenario at test size (the same configuration
/// `fig_profile` replays at experiment scale).
fn workload() -> Vec<WorkloadVm> {
    scale_workload(Scale::Quick, 400)
}

/// A spec with every sink enabled; paths are placeholders — tests attach
/// it through [`TelemetrySink::in_memory`], which performs no I/O.
fn everything_on() -> TelemetrySpec {
    TelemetrySpec::profiling()
        .with_event_log("unused.jsonl")
        .with_event_kinds(TelemetryEventSet::all())
        .with_chrome_trace("unused.trace.json")
}

#[test]
fn every_sink_enabled_leaves_the_result_bit_identical() {
    let workload = workload();
    let (baseline, servers) = run_scale_cell(&workload, Scale::Quick);
    assert!(servers > 0);
    assert!(
        baseline.transient.reclaim_events > 0,
        "contract would be vacuous without reclamation activity"
    );
    let sink = TelemetrySink::in_memory(&everything_on());
    let (observed, _) = run_scale_cell_with_telemetry(&workload, Scale::Quick, sink.clone());
    assert_eq!(
        baseline, observed,
        "telemetry-on run diverged from telemetry-off"
    );
    let report = sink.report();
    assert!(!report.phases.is_empty(), "profiler collected nothing");
    assert!(report.event_lines > 0, "event log collected nothing");
    assert!(report.chrome_events > 0, "chrome trace collected nothing");
    assert_eq!(report.io_errors, 0);
}

/// The auditor analogue of the telemetry contract: every invariant
/// checker on (including the sampled placement rescan) both *passes* —
/// the engine upholds its invariants on the quick spot-market scenario,
/// a violation panics the run — and leaves the `SimResult` bit-identical
/// to the unaudited baseline, because checkers are strictly read-only.
#[test]
fn every_audit_checker_enabled_leaves_the_result_bit_identical() {
    let workload = workload();
    let (baseline, _) = run_scale_cell(&workload, Scale::Quick);
    assert!(
        baseline.transient.reclaim_events > 0,
        "contract would be vacuous without reclamation activity"
    );
    for (name, spec) in [
        ("all checkers", AuditSpec::all()),
        (
            "all checkers, dense placement rescan",
            AuditSpec::all().with_placement_sample_every(1),
        ),
    ] {
        let (audited, _) = run_scale_cell_audited(&workload, Scale::Quick, spec);
        assert_eq!(
            baseline, audited,
            "auditor-on run ({name}) diverged from auditor-off"
        );
    }
}

/// The auditor is opt-in: the default spec has no checkers.
#[test]
fn audit_is_off_by_default() {
    assert!(AuditSpec::default().is_off());
    assert!(AuditSpec::off().is_off());
    assert!(!AuditSpec::all().is_off());
}

#[test]
fn telemetry_is_off_by_default_and_the_disabled_sink_is_inert() {
    use vmdeflate::cluster::manager::{ClusterConfig, PlacementKind, ReclamationMode};
    use vmdeflate::cluster::sim::ClusterSimulation;
    use vmdeflate::cluster::spec::paper_server_capacity;
    use vmdeflate::core::placement::PartitionScheme;
    use vmdeflate::core::policy::ProportionalDeflation;
    use vmdeflate::hypervisor::domain::DeflationMechanism;
    let config = ClusterConfig {
        num_servers: 4,
        server_capacity: paper_server_capacity(),
        placement: PlacementKind::CosineFitness,
        partitions: PartitionScheme::None,
        mechanism: DeflationMechanism::Transparent,
    };
    let sim = ClusterSimulation::new(
        config,
        ReclamationMode::Deflation(std::sync::Arc::new(ProportionalDeflation::default())),
    );
    assert!(
        !sim.telemetry().enabled(),
        "telemetry must be off by default"
    );
    // The off spec builds straight back to the disabled sink.
    let sink = TelemetrySink::from_spec(&TelemetrySpec::off()).expect("off spec never opens files");
    assert!(!sink.enabled());
    assert_eq!(sink.report(), Default::default());
}

#[test]
fn jsonl_lines_round_trip_through_the_stub_deserializer() {
    let workload = workload();
    let sink = TelemetrySink::in_memory(&everything_on());
    let _ = run_scale_cell_with_telemetry(&workload, Scale::Quick, sink.clone());
    let lines = sink.event_log_lines().expect("memory event log");
    assert!(!lines.is_empty());
    let mut last_time = f64::NEG_INFINITY;
    let mut kinds_seen = std::collections::BTreeSet::new();
    for line in &lines {
        let event = parse_event_line(line)
            .unwrap_or_else(|err| panic!("unparseable JSONL line {line:?}: {err}"));
        assert!(
            event.time >= last_time,
            "event log out of order: {} after {}",
            event.time,
            last_time
        );
        last_time = event.time;
        kinds_seen.insert(event.kind.name());
    }
    // The spot-market scenario must surface at least arrivals,
    // departures, capacity reclamations and utilisation ticks.
    for expected in [
        "arrival",
        "departure",
        "capacity_reclaim",
        "utilization_tick",
    ] {
        assert!(
            kinds_seen.contains(expected),
            "no {expected} events in {kinds_seen:?}"
        );
    }
}

#[test]
fn kind_filter_and_sampling_thin_the_event_log() {
    let workload = workload();
    let run = |spec: &TelemetrySpec| {
        let sink = TelemetrySink::in_memory(spec);
        let _ = run_scale_cell_with_telemetry(&workload, Scale::Quick, sink.clone());
        sink.event_log_lines().expect("memory event log")
    };
    let all = run(&everything_on());
    // Default kind filter (decisions) drops the high-volume kinds.
    let decisions = run(&TelemetrySpec::default().with_event_log("unused.jsonl"));
    assert!(!decisions.is_empty());
    assert!(decisions.len() < all.len());
    for line in &decisions {
        let event = parse_event_line(line).expect("parseable line");
        assert!(
            TelemetryEventSet::decisions().contains(event.kind),
            "filtered log leaked {:?}",
            event.kind
        );
    }
    // Sampling every 10th matching event cuts the volume accordingly.
    let sampled = run(&everything_on().with_sample_every(10));
    assert_eq!(sampled.len() as u64, all.len().div_ceil(10) as u64);
    // Neither configuration changes the simulation (spot-check: the
    // filtered/sampled runs above all completed on the same workload —
    // full equality is pinned by every_sink_enabled_...).
}

#[test]
fn chrome_trace_is_valid_and_spans_are_matched() {
    let workload = workload();
    let sink = TelemetrySink::in_memory(&everything_on());
    let _ = run_scale_cell_with_telemetry(&workload, Scale::Quick, sink.clone());
    let json = sink.chrome_trace_json().expect("memory chrome trace");
    let stats = validate_chrome_trace(&json).expect("well-formed chrome trace");
    assert!(stats.spans > 0);
    assert_eq!(stats.events, 2 * stats.spans, "unmatched begin/end pairs");
    assert_eq!(stats.threads, 1, "one event-loop tid expected");
    assert!(stats.max_depth >= 2, "nested spans expected");
}

#[test]
fn file_sinks_write_the_same_traces_to_disk() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let log_path = dir.join(format!("telemetry_determinism_{pid}.jsonl"));
    let trace_path = dir.join(format!("telemetry_determinism_{pid}.trace.json"));
    let spec = TelemetrySpec::profiling()
        .with_event_log(&log_path)
        .with_event_kinds(TelemetryEventSet::all())
        .with_chrome_trace(&trace_path);
    let workload = workload();
    let (baseline, _) = run_scale_cell(&workload, Scale::Quick);
    let sink = TelemetrySink::from_spec(&spec).expect("temp files open");
    let (observed, _) = run_scale_cell_with_telemetry(&workload, Scale::Quick, sink.clone());
    assert_eq!(baseline, observed, "file sinks changed the result");
    let report = sink.finish().expect("flush succeeds");
    assert_eq!(report.io_errors, 0);
    let log = std::fs::read_to_string(&log_path).expect("event log written");
    assert_eq!(log.lines().count() as u64, report.event_lines);
    for line in log.lines() {
        parse_event_line(line).expect("parseable line on disk");
    }
    let trace = std::fs::read_to_string(&trace_path).expect("chrome trace written");
    validate_chrome_trace(&trace).expect("valid chrome trace on disk");
    let _ = std::fs::remove_file(&log_path);
    let _ = std::fs::remove_file(&trace_path);
}
