//! The online invariant auditor — the runtime half of the audit
//! observatory.
//!
//! An [`Auditor`] is built from an [`AuditSpec`] and consulted by the
//! simulation engine **after every processed event**. Each checker
//! re-derives an invariant the engine is supposed to maintain
//! incrementally and reports the first violation as an
//! [`AuditViolation`] naming the checker, the event id, the simulated
//! time and (when one is implicated) the server — enough to replay a run
//! up to the exact event that corrupted state.
//!
//! # Checkers
//!
//! * **capacity** — every server's effective usage, minus allocations
//!   pledged to leave on an in-flight transfer, fits its (possibly
//!   reclaimed) capacity (`ClusterManager::audit_capacity`).
//! * **bandwidth_ledger** — every live in-flight transfer holds a
//!   reservation on both endpoints' scheduler ledgers. Cancelled
//!   transfers legitimately leave reservations to drain, so only the
//!   in-flight ⊆ ledger direction is an invariant
//!   (`ClusterManager::audit_bandwidth_ledger`).
//! * **monotonicity** — event-queue delivery times never go backwards.
//! * **placement_index** — servers not marked dirty have cached placement
//!   views identical to a fresh rescan
//!   (`ClusterManager::audit_placement_index`). A full rescan is
//!   `O(servers × VMs)`, so this checker runs on a sampled cadence
//!   ([`AuditSpec::placement_sample_rate`]).
//! * **replica_ledger** — the autoscaler's conservation law holds
//!   *mid-run*: every replica ever launched is in the pool (active or
//!   parked), was retired, or was lost.
//!
//! # Contracts
//!
//! Auditing is **off by default** and the default path is golden-pinned.
//! Checkers are strictly read-only: an audited run is
//! bit-identical to the same run with auditing off (pinned by the
//! determinism tests). The engine fails fast on the first violation —
//! an invariant breach means every later number is untrustworthy.

use deflate_autoscale::Autoscaler;
use deflate_core::audit::AuditSpec;
use deflate_core::vm::ServerId;

use crate::manager::ClusterManager;

/// What a single audit probe found, before the [`Auditor`] stamps it with
/// the event id and time. Crate-internal: probes live on
/// [`ClusterManager`] (they need field access), the auditor wraps their
/// findings into [`AuditViolation`]s.
pub(crate) struct AuditFinding {
    /// The server implicated, when the invariant is per-server.
    pub server: Option<ServerId>,
    /// Human-readable diagnostic.
    pub detail: String,
}

/// A failed invariant check, stamped with where in the run it fired.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditViolation {
    /// Which checker fired (`"capacity"`, `"bandwidth_ledger"`,
    /// `"monotonicity"`, `"placement_index"`, `"replica_ledger"`).
    pub checker: &'static str,
    /// Sequence number of the event after which the violation was
    /// detected (the engine's processed-event counter).
    pub event_id: u64,
    /// Simulated time of that event, seconds.
    pub time_secs: f64,
    /// The server implicated, when the invariant is per-server.
    pub server: Option<ServerId>,
    /// Human-readable diagnostic.
    pub detail: String,
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "audit violation [{}] after event {} at t={:.3}s",
            self.checker, self.event_id, self.time_secs
        )?;
        if let Some(server) = self.server {
            write!(f, " (server {})", server.0)?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Runs every checker after each engine event.
#[derive(Debug, Clone)]
pub struct Auditor {
    spec: AuditSpec,
    /// Delivery time of the last audited event (`-∞` before the first),
    /// for the monotonicity checker.
    last_event_secs: f64,
    /// Events audited so far, for the placement-index sampling cadence.
    audited_events: u64,
}

impl Auditor {
    /// An auditor running every checker when `spec` is on.
    pub fn new(spec: AuditSpec) -> Self {
        Auditor {
            spec,
            last_event_secs: f64::NEG_INFINITY,
            audited_events: 0,
        }
    }

    /// Run every checker after one processed event. `event_id` is
    /// the engine's processed-event counter, `time_secs` the event's
    /// delivery time. Returns the first violation found, if any; the
    /// caller is expected to fail fast on it. Strictly read-only on the
    /// manager and autoscaler.
    pub fn after_event(
        &mut self,
        event_id: u64,
        time_secs: f64,
        manager: &ClusterManager,
        autoscaler: Option<&Autoscaler>,
    ) -> Option<AuditViolation> {
        if self.spec.is_off() {
            return None;
        }
        self.audited_events += 1;
        let stamp = |checker: &'static str, finding: AuditFinding| AuditViolation {
            checker,
            event_id,
            time_secs,
            server: finding.server,
            detail: finding.detail,
        };
        if time_secs < self.last_event_secs {
            return Some(AuditViolation {
                checker: "monotonicity",
                event_id,
                time_secs,
                server: None,
                detail: format!(
                    "event time went backwards: t={:.6}s after t={:.6}s",
                    time_secs, self.last_event_secs
                ),
            });
        }
        self.last_event_secs = time_secs;
        if let Err(finding) = manager.audit_capacity() {
            return Some(stamp("capacity", finding));
        }
        if let Err(finding) = manager.audit_bandwidth_ledger(time_secs) {
            return Some(stamp("bandwidth_ledger", finding));
        }
        if self
            .audited_events
            .is_multiple_of(self.spec.placement_sample_rate())
        {
            if let Err(finding) = manager.audit_placement_index() {
                return Some(stamp("placement_index", finding));
            }
        }
        if let Some(autoscaler) = autoscaler {
            let stats = autoscaler.stats();
            let (active, parked) = autoscaler.live_replicas();
            let accounted = stats.retirements + stats.replicas_lost + active + parked;
            if stats.launches != accounted {
                return Some(AuditViolation {
                    checker: "replica_ledger",
                    event_id,
                    time_secs,
                    server: None,
                    detail: format!(
                        "replica ledger unbalanced: {} launched but {} accounted \
                         ({} retired + {} lost + {} active + {} parked)",
                        stats.launches,
                        accounted,
                        stats.retirements,
                        stats.replicas_lost,
                        active,
                        parked
                    ),
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{ClusterConfig, ClusterManager, PlacementKind, ReclamationMode};
    use deflate_autoscale::{AutoscalePolicy, DemandCurve, ElasticApp};
    use deflate_core::checkpoint::{ByteReader, ByteWriter};
    use deflate_core::placement::PartitionScheme;
    use deflate_core::policy::ProportionalDeflation;
    use deflate_core::resources::ResourceVector;
    use deflate_core::vm::{Priority, VmClass, VmId, VmSpec};
    use deflate_hypervisor::domain::DeflationMechanism;
    use deflate_hypervisor::migration::MigrationCostModel;
    use std::sync::Arc;

    fn small_cluster() -> ClusterManager {
        let config = ClusterConfig {
            num_servers: 2,
            server_capacity: ResourceVector::cpu_mem(16_000.0, 32_768.0),
            placement: PlacementKind::CosineFitness,
            partitions: PartitionScheme::None,
            mechanism: DeflationMechanism::Transparent,
        };
        ClusterManager::new(
            &config,
            ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default())),
        )
    }

    fn vm(id: u64) -> VmSpec {
        VmSpec::deflatable(
            VmId(id),
            VmClass::Interactive,
            ResourceVector::cpu_mem(4_000.0, 8_192.0),
        )
        .with_priority(Priority::new(0.5))
    }

    #[test]
    fn healthy_cluster_passes_every_checker() {
        let mut cluster = small_cluster();
        assert!(cluster.place_vm(vm(1)).is_placed());
        let mut auditor = Auditor::new(AuditSpec::all());
        assert!(auditor.after_event(1, 0.0, &cluster, None).is_none());
        assert!(auditor.after_event(2, 10.0, &cluster, None).is_none());
    }

    #[test]
    fn default_spec_is_off_and_audits_nothing() {
        // A shrunk server the capacity checker flags when auditing is on.
        let mut cluster = small_cluster();
        assert!(cluster.place_vm(vm(1)).is_placed());
        for idx in 0..cluster.num_servers() {
            cluster.controller_mut(idx).server_mut().capacity = ResourceVector::cpu_mem(1.0, 1.0);
        }
        let mut off = Auditor::new(AuditSpec::default());
        assert!(off.after_event(1, 0.0, &cluster, None).is_none());
        let mut on = Auditor::new(AuditSpec::all());
        assert!(on.after_event(1, 0.0, &cluster, None).is_some());
    }

    // Mutation: shrink a server's capacity under a resident VM. The
    // capacity checker must name the corrupted server.
    #[test]
    fn capacity_checker_catches_a_shrunk_server() {
        let mut cluster = small_cluster();
        assert!(cluster.place_vm(vm(1)).is_placed());
        let placed_on = cluster.locate(VmId(1)).unwrap();
        let idx = (0..cluster.num_servers())
            .find(|&i| cluster.views()[i].id == placed_on)
            .unwrap();
        cluster.controller_mut(idx).server_mut().capacity = ResourceVector::cpu_mem(1.0, 1.0);
        let mut auditor = Auditor::new(AuditSpec::all());
        let violation = auditor
            .after_event(7, 3.5, &cluster, None)
            .expect("capacity corruption must be detected");
        assert_eq!(violation.checker, "capacity");
        assert_eq!(violation.event_id, 7);
        assert_eq!(violation.server, Some(placed_on));
        assert!(violation.detail.contains("capacity conservation"));
    }

    // Mutation: an in-flight transfer with no backing reservation. The
    // bandwidth checker must fire; restoring both endpoints' entries (and
    // adding a *stale* orphan, which cancellations legitimately leave
    // behind) must satisfy it again.
    #[test]
    fn bandwidth_checker_requires_reservations_on_both_endpoints() {
        let mut cluster = small_cluster().with_migration_cost(MigrationCostModel::lan_default());
        cluster.inject_test_flight(VmId(9), 0, 1, 0.0, 30.0, 60.0);
        let mut auditor = Auditor::new(AuditSpec::all());
        let violation = auditor
            .after_event(3, 5.0, &cluster, None)
            .expect("missing reservation must be detected");
        assert_eq!(violation.checker, "bandwidth_ledger");
        assert!(violation.detail.contains("no backing reservation"));

        // Back the flight on both endpoints: the ledger balances again,
        // even with an extra orphan entry left by a cancelled transfer.
        cluster.scheduler_mut().ledger_mut(0).push(30.0);
        cluster.scheduler_mut().ledger_mut(1).push(30.0);
        cluster.scheduler_mut().ledger_mut(1).push(48.0);
        assert!(auditor.after_event(4, 5.0, &cluster, None).is_none());
    }

    // A transfer already resolved (event time in the past) needs no
    // reservation: lazy ledger pruning must not be reported as corruption.
    #[test]
    fn bandwidth_checker_ignores_resolved_flights() {
        let mut cluster = small_cluster().with_migration_cost(MigrationCostModel::lan_default());
        cluster.inject_test_flight(VmId(9), 0, 1, 0.0, 30.0, 60.0);
        let mut auditor = Auditor::new(AuditSpec::all());
        assert!(auditor.after_event(5, 30.0, &cluster, None).is_none());
    }

    // Mutation: touch a server behind the placement index's back (no
    // mark_server_dirty). The sampled consistency checker must catch the
    // stale clean entry.
    #[test]
    fn placement_checker_catches_an_unmarked_mutation() {
        let mut cluster = small_cluster();
        let untouched = 1;
        cluster
            .controller_mut(untouched)
            .server_mut()
            .create_domain(vm(42), DeflationMechanism::Transparent)
            .unwrap();
        let mut auditor = Auditor::new(AuditSpec::all().with_placement_sample_every(1));
        let violation = auditor
            .after_event(11, 1.0, &cluster, None)
            .expect("stale clean view must be detected");
        assert_eq!(violation.checker, "placement_index");
        assert!(violation.detail.contains("not dirty"));
    }

    // The same corruption goes unnoticed between samples: the cadence knob
    // really gates the expensive rescan.
    #[test]
    fn placement_checker_respects_the_sampling_cadence() {
        let mut cluster = small_cluster();
        cluster
            .controller_mut(0)
            .server_mut()
            .create_domain(vm(42), DeflationMechanism::Transparent)
            .unwrap();
        let mut auditor = Auditor::new(AuditSpec::all().with_placement_sample_every(2));
        // Odd audited-event counts skip the rescan; the second call lands
        // on the cadence and fires.
        assert!(auditor.after_event(1, 0.0, &cluster, None).is_none());
        let violation = auditor.after_event(2, 0.0, &cluster, None).unwrap();
        assert_eq!(violation.checker, "placement_index");
    }

    #[test]
    fn monotonicity_checker_catches_time_travel() {
        let cluster = small_cluster();
        let mut auditor = Auditor::new(AuditSpec::all());
        assert!(auditor.after_event(1, 10.0, &cluster, None).is_none());
        let violation = auditor
            .after_event(2, 5.0, &cluster, None)
            .expect("backwards time must be detected");
        assert_eq!(violation.checker, "monotonicity");
        assert!(violation.detail.contains("went backwards"));
        // Equal times are fine (simultaneous events share a timestamp).
        let mut ok = Auditor::new(AuditSpec::all());
        assert!(ok.after_event(1, 10.0, &cluster, None).is_none());
        assert!(ok.after_event(2, 10.0, &cluster, None).is_none());
    }

    // Mutation: restore an autoscaler snapshot whose stats claim launches
    // that no pool member, retirement or loss accounts for.
    #[test]
    fn replica_checker_catches_an_unbalanced_ledger() {
        let app = ElasticApp {
            app: 0,
            replica_size: ResourceVector::cpu_mem(4_000.0, 8_192.0),
            replica_priority: Priority::new(0.5),
            replica_rate_rps: 100.0,
            replica_ids_from: 1_000_000,
            min_replicas: 1,
            max_replicas: 4,
            demand: DemandCurve::Constant { rps: 50.0 },
            start_secs: 0.0,
        };
        let mut autoscaler = Autoscaler::new(AutoscalePolicy::deflation_aware(), vec![app]);
        let cluster = small_cluster();
        let mut auditor = Auditor::new(AuditSpec::all());
        assert!(auditor
            .after_event(1, 0.0, &cluster, Some(&autoscaler))
            .is_none());

        // Corrupt via the snapshot path: 1 app, empty pool, but 3 launches
        // on the books.
        let mut w = ByteWriter::new();
        w.put_usize(1); // apps
        w.put_usize(0); // members
        w.put_u64(0); // launched
        w.put_f64(0.0); // cooldown_until
        for count in [0usize, 0, 3, 0, 0, 0, 0, 0, 0, 0] {
            w.put_usize(count); // stats counters; launches = 3
        }
        w.put_f64(0.0); // setpoint_error_sum
        w.put_usize(0); // latency samples
        w.put_usize(0); // latency dropped
        w.put_usize(0); // final_active
        w.put_usize(0); // final_parked
        let bytes = w.into_bytes();
        autoscaler
            .visit_state(&mut ByteReader::new(&bytes))
            .unwrap();

        let violation = auditor
            .after_event(2, 1.0, &cluster, Some(&autoscaler))
            .expect("unbalanced replica ledger must be detected");
        assert_eq!(violation.checker, "replica_ledger");
        assert!(violation.detail.contains("3 launched but 0 accounted"));
    }

    #[test]
    fn violations_render_with_full_context() {
        let violation = AuditViolation {
            checker: "capacity",
            event_id: 48_231,
            time_secs: 7_380.0,
            server: Some(deflate_core::vm::ServerId(1_042)),
            detail: "effective used exceeds capacity".to_string(),
        };
        let rendered = violation.to_string();
        assert!(rendered.contains("[capacity]"));
        assert!(rendered.contains("event 48231"));
        assert!(rendered.contains("t=7380.000s"));
        assert!(rendered.contains("server 1042"));
    }
}
