//! The divergence-diagnosis experiment (`deflate-audit`): exercise the
//! checkpoint-bisection diagnoser of `deflate-cluster::bisect` against a
//! matrix of run pairs with known ground truth.
//!
//! Two pairs must be bit-identical by the repo's standing determinism
//! contracts — telemetry on vs off, auditor on vs off — and one pair
//! carries an injected single-knob divergence (FIFO vs smallest-first
//! transfer ordering under contended migration slots).
//! The binary bisects every pair and exits non-zero when an identical
//! pair diverges (a determinism regression) or the injected pair fails
//! to localize to a window no wider than the requested resolution.
//!
//! The scenario is the migration-contention recipe the scheduler sweep
//! uses: migration-only reclamation on spot-market transient servers,
//! tight cluster sizing, a one-link bandwidth budget and a 30 s
//! deadline — the regime where transfer ordering provably reorders the
//! run, so the injected divergence is real, early, and small.

use deflate_cluster::prelude::*;
use deflate_core::audit::AuditSpec;
use deflate_core::checkpoint::CheckpointError;
use deflate_telemetry::{TelemetrySink, TelemetrySpec};
use deflate_traces::azure::{AzureTraceConfig, AzureTraceGenerator};
use deflate_transient::signal::{CapacityProfile, CapacitySchedule, TransientConfig};

use crate::report::{FigureTimer, Table};

/// Simulated horizon of the diagnosis scenario, seconds (4 trace hours).
pub const AUDIT_HORIZON_SECS: f64 = 4.0 * 3600.0;

/// Bisection resolution, seconds: the injected divergence must be
/// localized to a window no wider than this.
pub const AUDIT_RESOLUTION_SECS: f64 = 60.0;

/// One bisected run pair with its ground-truth expectation.
#[derive(Debug)]
pub struct AuditCase {
    /// What distinguishes the pair (e.g. `"auditor off vs all checkers on"`).
    pub name: String,
    /// Ground truth: whether the pair is expected to diverge.
    pub expect_divergence: bool,
    /// What the bisection reported (`None` = bit-identical horizon).
    pub report: Option<DivergenceReport>,
}

impl AuditCase {
    /// True when the observed outcome matches the ground truth — and,
    /// for an expected divergence, the window is no wider than
    /// [`AUDIT_RESOLUTION_SECS`].
    pub fn accepted(&self) -> bool {
        match (&self.report, self.expect_divergence) {
            (None, false) => true,
            (Some(report), true) => {
                let (lo, hi) = report.window_secs;
                hi - lo <= AUDIT_RESOLUTION_SECS
            }
            _ => false,
        }
    }

    /// Human-readable reasons this case fails acceptance (empty when
    /// [`accepted`](Self::accepted)).
    pub fn failures(&self) -> Vec<String> {
        match (&self.report, self.expect_divergence) {
            (None, false) => Vec::new(),
            (Some(report), true) => {
                let (lo, hi) = report.window_secs;
                if hi - lo <= AUDIT_RESOLUTION_SECS {
                    Vec::new()
                } else {
                    vec![format!(
                        "{}: window ({lo:.3}s, {hi:.3}s] wider than the {AUDIT_RESOLUTION_SECS}s resolution",
                        self.name
                    )]
                }
            }
            (Some(report), false) => vec![format!(
                "{}: determinism regression — identical configs diverged: {report}",
                self.name
            )],
            (None, true) => vec![format!(
                "{}: injected divergence was not detected",
                self.name
            )],
        }
    }
}

/// The deterministic 60-VM Azure-style workload every case replays.
pub fn audit_workload() -> Vec<WorkloadVm> {
    let traces = AzureTraceGenerator::generate(&AzureTraceConfig {
        num_vms: 60,
        duration_hours: AUDIT_HORIZON_SECS / 3600.0,
        seed: 11,
        ..Default::default()
    });
    workload_from_azure(&traces, MinAllocationRule::None)
}

/// Size the cluster tightly against spot-market availability and
/// generate its capacity schedule.
pub fn audit_cluster(workload: &[WorkloadVm]) -> (usize, CapacitySchedule) {
    let profile = CapacityProfile::spot_market_default();
    let servers = servers_for_transient_overcommitment(
        workload,
        paper_server_capacity(),
        0.0,
        profile.mean_availability(),
    );
    let schedule = CapacitySchedule::generate(&TransientConfig {
        num_servers: servers,
        transient_fraction: 1.0,
        duration_secs: AUDIT_HORIZON_SECS,
        profile,
        seed: 11,
    });
    (servers, schedule)
}

/// The migration-contention simulation: migration-only reclamation, a
/// one-link bandwidth budget and a tight deadline, so the transfer
/// policy genuinely reorders the run.
pub fn audit_sim(
    servers: usize,
    schedule: CapacitySchedule,
    policy: TransferPolicy,
) -> ClusterSimulation {
    ClusterSimulation::new(
        ClusterConfig::paper_default(servers),
        ReclamationMode::MigrationOnly,
    )
    .with_capacity_schedule(schedule)
    .with_migrate_back(true)
    .with_migration_cost(
        MigrationCostModel::lan_default()
            .with_budget_mbps(1250.0)
            .with_deadline_secs(30.0),
    )
    .with_transfer_policy(policy)
}

/// Build and bisect the full case matrix. The `io::Error` covers
/// telemetry-sink setup; corrupt snapshots surface as
/// [`CheckpointError`] mapped into an I/O error, since both mean the
/// diagnosis infrastructure itself is broken (distinct from a case
/// *failing*, which the returned cases report).
pub fn audit_matrix() -> std::io::Result<Vec<AuditCase>> {
    let workload = audit_workload();
    let (servers, schedule) = audit_cluster(&workload);
    let fifo = || TransferPolicy::fifo();

    let mut cases = Vec::new();
    let mut run_case = |name: &str,
                        expect_divergence: bool,
                        a: ClusterSimulation,
                        b: ClusterSimulation|
     -> std::io::Result<()> {
        let report =
            bisect_divergence(&a, &b, &workload, AUDIT_HORIZON_SECS, AUDIT_RESOLUTION_SECS)
                .map_err(checkpoint_io_error)?;
        cases.push(AuditCase {
            name: name.to_string(),
            expect_divergence,
            report,
        });
        Ok(())
    };

    run_case(
        "telemetry off vs metrics on (identical)",
        false,
        audit_sim(servers, schedule.clone(), fifo()),
        audit_sim(servers, schedule.clone(), fifo()).with_telemetry(TelemetrySink::from_spec(
            &TelemetrySpec {
                metrics: true,
                ..TelemetrySpec::default()
            },
        )?),
    )?;
    run_case(
        "auditor off vs all checkers on (identical)",
        false,
        audit_sim(servers, schedule.clone(), fifo()),
        audit_sim(servers, schedule.clone(), fifo()).with_audit(AuditSpec::all()),
    )?;
    run_case(
        "fifo vs smallest-first (injected divergence)",
        true,
        audit_sim(servers, schedule.clone(), fifo()),
        audit_sim(servers, schedule, TransferPolicy::smallest_first()),
    )?;
    Ok(cases)
}

fn checkpoint_io_error(err: CheckpointError) -> std::io::Error {
    std::io::Error::other(format!("snapshot corrupt during bisection: {err}"))
}

/// The case matrix as a printable table: one row per pair with its
/// expectation, outcome, first divergent window/field and probe count.
pub fn audit_table(cases: &[AuditCase], timer: FigureTimer) -> Table {
    let mut table = Table::new(
        &format!(
            "Checkpoint-bisection divergence diagnosis ({AUDIT_RESOLUTION_SECS} s resolution)"
        ),
        &[
            "pair",
            "expected",
            "observed",
            "window",
            "first divergent field",
            "probes",
        ],
    );
    for case in cases {
        let expected = if case.expect_divergence {
            "diverges"
        } else {
            "identical"
        };
        let (observed, window, field, probes) = match &case.report {
            None => (
                "identical".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ),
            Some(report) => (
                "diverges".to_string(),
                format!(
                    "({:.0}s, {:.0}s]",
                    report.window_secs.0, report.window_secs.1
                ),
                report.diff.field.clone(),
                report.probes.to_string(),
            ),
        };
        table.row(&[
            case.name.clone(),
            expected.to_string(),
            observed,
            window,
            field,
            probes,
        ]);
    }
    timer.wrap(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked-in CI smoke: every identical pair bisects to "no
    /// divergence" and the injected transfer-policy divergence is
    /// localized to one resolution window.
    #[test]
    fn matrix_matches_ground_truth() {
        let cases = audit_matrix().expect("bisection infrastructure");
        assert_eq!(cases.len(), 3);
        let failures: Vec<String> = cases.iter().flat_map(|c| c.failures()).collect();
        assert!(failures.is_empty(), "{failures:?}");
        let injected = cases.last().unwrap();
        let report = injected.report.as_ref().expect("injected divergence found");
        assert!(report.diff.field.len() > 1, "diff names a field");
        let rendered = audit_table(&cases, FigureTimer::start()).render();
        assert!(rendered.contains("injected divergence"));
        assert!(rendered.contains("engine:"), "runtime footer expected");
    }

    /// Acceptance judgments explain themselves.
    #[test]
    fn failure_reasons_name_the_broken_expectation() {
        let missed = AuditCase {
            name: "injected".to_string(),
            expect_divergence: true,
            report: None,
        };
        assert!(!missed.accepted());
        assert!(missed.failures()[0].contains("not detected"));

        let regressed = AuditCase {
            name: "telemetry".to_string(),
            expect_divergence: false,
            report: Some(DivergenceReport {
                window_secs: (0.0, 60.0),
                events_processed: (1, 1),
                diff: SnapshotDiff {
                    field: "at_secs".to_string(),
                    a: "0".to_string(),
                    b: "1".to_string(),
                },
                probes: 2,
            }),
        };
        assert!(!regressed.accepted());
        assert!(regressed.failures()[0].contains("determinism regression"));
    }
}
