//! The engine-scaling experiment (`fig_scale`): cluster size under
//! spot-market reclamation.
//!
//! Every other experiment here asks what a *policy* does to the workload;
//! this one asks what the workload does to the **simulator** — the
//! question behind the roadmap's "million-VM traces, as fast as the
//! hardware allows". For each cluster size (10k → 1M VMs, synthetic
//! spot-market reclamation across every server) the sweep replays one run
//! and reports wall-clock time, delivered events, engine throughput
//! (events/s) and the process's peak RSS.
//!
//! The run deliberately measures the engine, not placement finesse:
//! first-fit placement (O(cluster) per arrival like the other policies,
//! but with an early exit), proportional deflation with the default
//! migration cost model, migrate-back on restitution, utilisation ticks
//! every 15 simulated minutes.
//!
//! Peak RSS is read from `/proc/self/status` (`VmHWM`) and is a
//! *process-wide high-water mark*: it can only grow across rows, so the
//! number is attributable to a row only the first time it increases.
//! On non-Linux hosts the column prints `n/a`.

use crate::report::{secs, RuntimeTally, Table, TallyRunStats};
use crate::scale::Scale;
use deflate_cluster::manager::{ClusterConfig, PlacementKind, ReclamationMode};
use deflate_cluster::metrics::SimResult;
use deflate_cluster::sim::ClusterSimulation;
use deflate_cluster::spec::{
    paper_server_capacity, servers_for_transient_overcommitment, workload_from_azure,
    MinAllocationRule, WorkloadVm,
};
use deflate_core::audit::AuditSpec;
use deflate_core::checkpoint::{ByteReader, ByteWriter, CheckpointError, CheckpointResult};
use deflate_core::placement::PartitionScheme;
use deflate_core::policy::ProportionalDeflation;
use deflate_hypervisor::domain::DeflationMechanism;
use deflate_hypervisor::migration::MigrationCostModel;
use deflate_telemetry::TelemetrySink;
use deflate_traces::azure::{AzureTraceConfig, AzureTraceGenerator};
use deflate_transient::signal::{CapacityProfile, CapacitySchedule, TransientConfig};
use std::fs;
use std::path::Path;
use std::sync::Arc;

/// One measured row of the scaling sweep.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// VMs in the replayed trace.
    pub vms: usize,
    /// Servers the cluster was sized to.
    pub servers: usize,
    /// Events the engine delivered (deterministic per size).
    pub events: u64,
    /// Wall-clock duration of the run, seconds.
    pub wall_clock_secs: f64,
    /// Engine throughput, events per wall-clock second.
    pub events_per_sec: f64,
    /// Process peak RSS after the run, MiB (`None` off Linux).
    pub peak_rss_mib: Option<f64>,
}

/// The `fig_scale` workload at one cluster size: a synthetic Azure-derived
/// trace over the (deliberately short) scaling-trace horizon.
pub fn scale_workload(scale: Scale, num_vms: usize) -> Vec<WorkloadVm> {
    let traces = AzureTraceGenerator::generate(&AzureTraceConfig {
        num_vms,
        duration_hours: scale.scale_trace_hours(),
        seed: scale.seed(),
        ..Default::default()
    });
    workload_from_azure(&traces, MinAllocationRule::None)
}

/// Run one cluster-size cell: deflation mode, first-fit placement,
/// spot-market reclamation on every server, default migration cost,
/// migrate-back, 15-minute utilisation ticks. Returns the full result and
/// the server count.
pub fn run_scale_cell(workload: &[WorkloadVm], scale: Scale) -> (SimResult, usize) {
    run_scale_cell_with_telemetry(workload, scale, TelemetrySink::disabled())
}

/// [`run_scale_cell`] observed through a telemetry sink — the engine run
/// behind `fig_profile`'s per-phase table. The sink never changes the
/// result (the standing `deflate-telemetry` contract).
pub fn run_scale_cell_with_telemetry(
    workload: &[WorkloadVm],
    scale: Scale,
    telemetry: TelemetrySink,
) -> (SimResult, usize) {
    run_scale_cell_configured(workload, scale, telemetry, AuditSpec::off())
}

/// [`run_scale_cell`] with the online invariant auditor on — the run
/// behind the auditor determinism pin (`tests/telemetry_determinism.rs`):
/// every checker is strictly read-only, so the result must stay
/// bit-identical to the unaudited baseline, or the run panics on the
/// first violated invariant.
pub fn run_scale_cell_audited(
    workload: &[WorkloadVm],
    scale: Scale,
    audit: AuditSpec,
) -> (SimResult, usize) {
    run_scale_cell_configured(workload, scale, TelemetrySink::disabled(), audit)
}

/// The fully-parameterised cell behind every `run_scale_cell*` variant.
pub fn run_scale_cell_configured(
    workload: &[WorkloadVm],
    scale: Scale,
    telemetry: TelemetrySink,
    audit: AuditSpec,
) -> (SimResult, usize) {
    let capacity = paper_server_capacity();
    let profile = CapacityProfile::spot_market_default();
    let servers =
        servers_for_transient_overcommitment(workload, capacity, 0.0, profile.mean_availability());
    let schedule = CapacitySchedule::generate(&TransientConfig {
        num_servers: servers,
        transient_fraction: 1.0,
        duration_secs: scale.scale_trace_hours() * 3600.0,
        profile,
        seed: scale.seed(),
    });
    let config = ClusterConfig {
        num_servers: servers,
        server_capacity: capacity,
        placement: PlacementKind::FirstFit,
        partitions: PartitionScheme::None,
        mechanism: DeflationMechanism::Transparent,
    };
    let result = ClusterSimulation::new(
        config,
        ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default())),
    )
    .with_capacity_schedule(schedule)
    .with_migrate_back(true)
    .with_migration_cost(
        MigrationCostModel::lan_default()
            .with_budget_mbps(1250.0)
            .with_deadline_secs(30.0),
    )
    .with_utilization_ticks(900.0)
    .with_telemetry(telemetry)
    .with_audit(audit)
    .run(workload);
    (result, servers)
}

/// Run the full sweep: every cluster size of the scale preset.
pub fn scale_sweep(scale: Scale) -> Vec<ScaleRow> {
    scale_sweep_with_resume(scale, Vec::new(), |_| {})
}

/// [`scale_sweep`] with **row-level resume**: sizes already present in
/// `done` (matched on `vms`) are skipped without even rebuilding their
/// workload, and `flush` is called with the cumulative row set after
/// every newly measured size, so an interrupted sweep loses at most the
/// size it was inside. [`scale_sweep_resumable`] wires this to an
/// on-disk state file. Returned rows are sorted by `vms`, the preset's
/// own order.
pub fn scale_sweep_with_resume(
    scale: Scale,
    done: Vec<ScaleRow>,
    mut flush: impl FnMut(&[ScaleRow]),
) -> Vec<ScaleRow> {
    let mut rows = done;
    for &vms in scale.scale_sweep_vms() {
        if rows.iter().any(|r| r.vms == vms) {
            continue;
        }
        let workload = scale_workload(scale, vms);
        let (result, servers) = run_scale_cell(&workload, scale);
        rows.push(ScaleRow {
            vms,
            servers,
            events: result.runtime.events_processed,
            wall_clock_secs: result.runtime.wall_clock_secs,
            events_per_sec: result.runtime.events_per_sec(),
            peak_rss_mib: peak_rss_mib(),
        });
        flush(&rows);
    }
    rows.sort_by_key(|r| r.vms);
    rows
}

/// Run the sweep resumably against an on-disk state file: rows measured
/// by a previous (possibly interrupted or killed) invocation are loaded
/// from `state_path` and skipped, and every newly measured cell is
/// flushed back atomically (write-to-temp + rename). A re-run over a
/// complete state file measures nothing and just reprints the table. An
/// unreadable or stale-format state file is discarded and the sweep
/// starts over — the file is a cache, never a source of truth.
pub fn scale_sweep_resumable(scale: Scale, state_path: &Path) -> Vec<ScaleRow> {
    let done = match fs::read(state_path) {
        Ok(bytes) => rows_from_bytes(&bytes).unwrap_or_default(),
        Err(_) => Vec::new(),
    };
    scale_sweep_with_resume(scale, done, |rows| {
        let tmp = state_path.with_extension("tmp");
        if fs::write(&tmp, rows_to_bytes(rows)).is_ok() {
            let _ = fs::rename(&tmp, state_path);
        }
    })
}

/// Serialize measured sweep rows for the resumable state file, using the
/// engine checkpoint's versioned little-endian byte conventions (shared
/// magic + format version, so a format change requires the same version
/// bump the snapshot golden test enforces). A tag string distinguishes
/// the row file from an engine snapshot.
pub fn rows_to_bytes(rows: &[ScaleRow]) -> Vec<u8> {
    let mut w = ByteWriter::with_header();
    w.put_str(SCALE_ROWS_TAG);
    w.put_usize(rows.len());
    for row in rows {
        w.put_usize(row.vms);
        w.put_usize(row.servers);
        w.put_u64(row.events);
        w.put_f64(row.wall_clock_secs);
        w.put_f64(row.events_per_sec);
        w.put_bool(row.peak_rss_mib.is_some());
        if let Some(mib) = row.peak_rss_mib {
            w.put_f64(mib);
        }
    }
    w.into_bytes()
}

/// Rebuild sweep rows from [`rows_to_bytes`] bytes.
pub fn rows_from_bytes(bytes: &[u8]) -> CheckpointResult<Vec<ScaleRow>> {
    let mut r = ByteReader::with_header(bytes)?;
    let tag = r.get_str()?;
    if tag != SCALE_ROWS_TAG {
        return Err(CheckpointError::Corrupt(format!(
            "not a fig_scale row file (tag `{tag}`)"
        )));
    }
    let len = r.get_usize()?;
    let mut rows = Vec::with_capacity(len.min(1024));
    for _ in 0..len {
        rows.push(ScaleRow {
            vms: r.get_usize()?,
            servers: r.get_usize()?,
            events: r.get_u64()?,
            wall_clock_secs: r.get_f64()?,
            events_per_sec: r.get_f64()?,
            peak_rss_mib: if r.get_bool()? {
                Some(r.get_f64()?)
            } else {
                None
            },
        });
    }
    r.finish()?;
    Ok(rows)
}

/// Discriminator string of the resumable-sweep state file. Rows are
/// keyed by size alone; a file written in any other row layout carries
/// another tag, so it is discarded rather than misread.
const SCALE_ROWS_TAG: &str = "fig-scale-size-rows";

/// The sweep as a printable table.
pub fn scale_sweep_table(scale: Scale) -> Table {
    table_from_rows(&scale_sweep(scale))
}

/// Render already-measured sweep rows as the `fig_scale` table.
pub fn table_from_rows(rows: &[ScaleRow]) -> Table {
    let mut table = Table::new(
        "Engine scaling: cluster size under spot-market reclamation",
        &[
            "VMs",
            "servers",
            "events",
            "wall-clock",
            "events/s",
            "peak RSS MiB",
        ],
    );
    let mut tally = RuntimeTally::default();
    for row in rows {
        tally.add(deflate_cluster::metrics::RunStats {
            wall_clock_secs: row.wall_clock_secs,
            events_processed: row.events,
            shards: 1,
        });
        table.row(&[
            row.vms.to_string(),
            row.servers.to_string(),
            row.events.to_string(),
            secs(row.wall_clock_secs),
            format!("{:.0}", row.events_per_sec),
            row.peak_rss_mib
                .map_or_else(|| "n/a".to_string(), |mib| format!("{mib:.0}")),
        ]);
    }
    table.set_footer(tally.footer());
    table
}

/// The process's peak resident-set size in MiB — the shared
/// `deflate-telemetry` reader, which (unlike the original local copy)
/// degrades to `None` on a missing, unparseable, or zero `VmHWM` rather
/// than reporting a bogus value.
pub use deflate_telemetry::peak_rss_mib;

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature cell (not the CI smoke — that runs the real quick
    /// preset as its own workflow step) checking the run reclaims and is
    /// reproducible.
    #[test]
    fn mini_cell_reclaims_and_reruns_identically() {
        let workload = scale_workload(Scale::Quick, 400);
        let (first, servers) = run_scale_cell(&workload, Scale::Quick);
        let (again, servers_again) = run_scale_cell(&workload, Scale::Quick);
        assert_eq!(servers, servers_again);
        assert!(servers > 0);
        assert!(first.runtime.events_processed > 2 * 400);
        assert_eq!(first, again, "rerun diverged");
        assert!(
            first.transient.reclaim_events > 0,
            "spot-market must reclaim"
        );
        assert!(Scale::Quick.scale_sweep_vms().contains(&100_000));
    }

    #[test]
    fn sweep_rows_round_trip_through_the_state_file_format() {
        let rows = vec![
            ScaleRow {
                vms: 10_000,
                servers: 321,
                events: 123_456,
                wall_clock_secs: 1.5,
                events_per_sec: 82_304.0,
                peak_rss_mib: Some(512.25),
            },
            ScaleRow {
                vms: 100_000,
                servers: 3210,
                events: 1_234_567,
                wall_clock_secs: 12.5,
                events_per_sec: 98_765.36,
                peak_rss_mib: None,
            },
        ];
        let bytes = rows_to_bytes(&rows);
        let restored = rows_from_bytes(&bytes).expect("own bytes must parse");
        assert_eq!(restored.len(), rows.len());
        for (a, b) in rows.iter().zip(&restored) {
            assert_eq!((a.vms, a.servers, a.events), (b.vms, b.servers, b.events));
            assert_eq!(a.wall_clock_secs.to_bits(), b.wall_clock_secs.to_bits());
            assert_eq!(a.events_per_sec.to_bits(), b.events_per_sec.to_bits());
            assert_eq!(
                a.peak_rss_mib.map(f64::to_bits),
                b.peak_rss_mib.map(f64::to_bits)
            );
        }
        // Garbage and truncation are rejected, not misread.
        assert!(rows_from_bytes(b"not a state file").is_err());
        assert!(rows_from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    /// A sweep resumed over a complete row set measures nothing: no size
    /// runs (the quick preset's smallest size is 10k VMs — a run here
    /// would dominate the unit-test wall clock) and the flush callback
    /// never fires.
    #[test]
    fn resume_over_complete_rows_skips_every_cell() {
        let scale = Scale::Quick;
        let done: Vec<ScaleRow> = scale
            .scale_sweep_vms()
            .iter()
            .map(|&vms| ScaleRow {
                vms,
                servers: 1,
                events: 1,
                wall_clock_secs: 0.1,
                events_per_sec: 10.0,
                peak_rss_mib: None,
            })
            .collect();
        let expected = done.len();
        let mut flushes = 0;
        let rows = scale_sweep_with_resume(scale, done, |_| flushes += 1);
        assert_eq!(rows.len(), expected);
        assert_eq!(flushes, 0, "complete state must skip all measurement");
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        // On the Linux CI hosts this must produce a positive number; on
        // other platforms None is acceptable.
        if cfg!(target_os = "linux") {
            let rss = peak_rss_mib().expect("VmHWM available on Linux");
            assert!(rss > 1.0);
        }
    }
}
