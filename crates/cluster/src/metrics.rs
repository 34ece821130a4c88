//! Per-VM records and cluster-level metrics for the trace-driven simulation
//! (§7.4: failure probability, throughput loss, revenue).

use crate::manager::{AdmissionCounters, TransientCounters};
use crate::scheduler::SchedulerStats;
use deflate_autoscale::AutoscaleStats;
use deflate_core::pricing::{PricingPolicy, RateCard};
use deflate_core::vm::VmSpec;
use deflate_core::vm::{ServerId, VmId};
use deflate_traces::timeseries::TimeSeries;
use serde::{Deserialize, Serialize};

/// What ultimately happened to a VM in the simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum VmOutcome {
    /// The VM ran from arrival to departure (possibly deflated part of the
    /// time).
    Completed,
    /// The cluster could not make room for the VM at arrival — a resource
    /// reclamation failure (Figure 20's failure event for deflatable VMs).
    #[default]
    Rejected,
    /// The VM was killed by the preemption baseline at the given time.
    Preempted {
        /// Simulation time of the preemption, seconds.
        at_secs: f64,
    },
    /// The VM was destroyed because a provider-side capacity reclamation
    /// could be absorbed neither by deflation nor by migration.
    Evicted {
        /// Simulation time of the eviction, seconds.
        at_secs: f64,
    },
}

/// The full history of one VM across the simulation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct VmRecord {
    /// The VM's specification.
    pub spec: VmSpec,
    /// Arrival time, seconds.
    pub arrival_secs: f64,
    /// Scheduled departure time, seconds.
    pub departure_secs: f64,
    /// Final outcome.
    pub outcome: VmOutcome,
    /// CPU allocation fraction change-points: `(time_secs, fraction)` with
    /// the first entry at the arrival time. Empty for rejected VMs.
    pub allocation_history: Vec<(f64, f64)>,
    /// The VM's CPU utilisation trace (relative to its full allocation).
    pub cpu_util: TimeSeries,
}

impl VmRecord {
    /// The time the VM actually stopped running (departure, or preemption
    /// time, or arrival for rejected VMs).
    pub fn end_secs(&self) -> f64 {
        match self.outcome {
            VmOutcome::Completed => self.departure_secs,
            VmOutcome::Rejected => self.arrival_secs,
            VmOutcome::Preempted { at_secs } | VmOutcome::Evicted { at_secs } => at_secs,
        }
    }

    /// Hours the VM actually ran.
    pub fn hours_run(&self) -> f64 {
        (self.end_secs() - self.arrival_secs).max(0.0) / 3600.0
    }

    /// Owned heap bytes behind the record: the allocation-history
    /// change-points and the utilisation trace. Feeds the engine's
    /// `mem.vm_records` gauge.
    pub fn accounted_bytes(&self) -> u64 {
        deflate_core::mem::vec_capacity_bytes(&self.allocation_history)
            + self.cpu_util.accounted_bytes()
    }

    /// The CPU allocation fraction in effect at an absolute simulation time.
    pub fn allocation_fraction_at(&self, time_secs: f64) -> f64 {
        if self.allocation_history.is_empty()
            || time_secs < self.arrival_secs
            || time_secs >= self.end_secs()
        {
            return 0.0;
        }
        let mut fraction = self.allocation_history[0].1;
        for &(t, f) in &self.allocation_history {
            if t <= time_secs {
                fraction = f;
            } else {
                break;
            }
        }
        fraction
    }

    /// Time-average allocation fraction over the period the VM ran (1.0 =
    /// never deflated). Rejected VMs report 0.
    pub fn mean_allocation_fraction(&self) -> f64 {
        let start = self.arrival_secs;
        let end = self.end_secs();
        if end <= start || self.allocation_history.is_empty() {
            return 0.0;
        }
        let mut weighted = 0.0;
        for (i, &(t, f)) in self.allocation_history.iter().enumerate() {
            let seg_start = t.max(start);
            let seg_end = if i + 1 < self.allocation_history.len() {
                self.allocation_history[i + 1].0.min(end)
            } else {
                end
            };
            if seg_end > seg_start {
                weighted += f * (seg_end - seg_start);
            }
        }
        (weighted / (end - start)).clamp(0.0, 1.0)
    }

    /// Relative throughput loss of this VM: demanded CPU work that could not
    /// be served because the allocation was below the instantaneous usage
    /// (the area above the deflated allocation in Figure 4), divided by the
    /// total demanded work over the VM's intended lifetime. Work scheduled
    /// after a preemption is entirely lost.
    pub fn throughput_loss(&self) -> f64 {
        let interval = self.cpu_util.interval_secs();
        let mut demanded = 0.0;
        let mut lost = 0.0;
        for (k, &usage) in self.cpu_util.samples().iter().enumerate() {
            let t = self.arrival_secs + k as f64 * interval;
            if t >= self.departure_secs {
                break;
            }
            demanded += usage;
            let alloc = self.allocation_fraction_at(t);
            lost += (usage - alloc).max(0.0);
        }
        if demanded <= 0.0 {
            0.0
        } else {
            (lost / demanded).clamp(0.0, 1.0)
        }
    }

    /// Revenue earned from this VM under a pricing policy.
    pub fn revenue(&self, pricing: &PricingPolicy, rates: &RateCard) -> f64 {
        pricing.revenue(
            &self.spec,
            self.hours_run(),
            self.mean_allocation_fraction(),
            rates,
        )
    }
}

/// One VM migration performed during the simulation (capacity-reclamation
/// fallback, or migrate-back after a restitution). The cluster manager
/// emits one when the transfer *completes* (in
/// [`CapacityChangeOutcome::migrated`](crate::CapacityChangeOutcome::migrated)),
/// and the simulation logs it as is; aborted transfers appear as evictions
/// and in [`TransientCounters::migration_aborts`] instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MigrationEvent {
    /// Simulation time the migration completed, seconds. With a costed
    /// migration model this is the end of the page transfer, not its start.
    pub time_secs: f64,
    /// The migrated VM.
    pub vm: VmId,
    /// Server the VM left.
    pub from: ServerId,
    /// Server the VM moved to.
    pub to: ServerId,
    /// Page-transfer time charged by the migration cost model, seconds.
    /// `0.0` under the historical cost-free model, whose instantaneous
    /// migrations this field was retrofitted to expose (every migration
    /// used to be implicitly free).
    pub duration_secs: f64,
    /// Bytes moved over the wire, MiB (hot footprint × dirty-page
    /// overhead).
    pub volume_mb: f64,
    /// True when this was a migrate-back to the VM's origin server after a
    /// capacity restitution.
    pub back: bool,
}

/// Engine accounting for one simulation run: how long the run took and
/// how many events it processed. `events_processed` is deterministic —
/// part of the engine's bit-identity contract — while `wall_clock_secs` is a measurement and is therefore **excluded
/// from [`SimResult`]'s equality** (two otherwise identical runs never
/// take exactly the same wall-clock time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Wall-clock duration of `ClusterSimulation::run`, seconds.
    pub wall_clock_secs: f64,
    /// Total events the engine delivered (arrivals, departures, capacity
    /// changes, migration completions, utilisation ticks).
    pub events_processed: u64,
    /// Kept only because `perfbench/` names it; the engine always reports 1.
    pub shards: usize,
}

impl RunStats {
    /// Engine throughput: events delivered per wall-clock second (0 when
    /// the run was too fast to time).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_clock_secs <= 0.0 {
            0.0
        } else {
            self.events_processed as f64 / self.wall_clock_secs
        }
    }
}

/// Aggregate result of one simulation run.
///
/// Equality compares the *simulation output* — records, counters,
/// migrations, utilisation samples and the deterministic event count —
/// and deliberately ignores the wall-clock time and the fixed `shards`
/// field in [`runtime`](Self::runtime): a resumed run is required to be
/// `==` the uninterrupted run (the checkpoint contract, pinned by
/// `tests/checkpoint_restore.rs`) even though it was timed differently.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Per-VM records, in arrival order.
    pub records: Vec<VmRecord>,
    /// Admission counters from the cluster manager.
    pub counters: AdmissionCounters,
    /// Transient-capacity counters from the cluster manager (all zero for
    /// runs without a capacity schedule).
    pub transient: TransientCounters,
    /// Transfer-scheduler accounting: bandwidth slots booked, EDF admission
    /// rejections, and queueing delay behind the per-server budgets.
    pub scheduler: SchedulerStats,
    /// Autoscaling accounting: scale actions, launches vs reinflations,
    /// replicas lost, setpoint error and the elastic application's
    /// response-time profile. All-default for runs without an enabled
    /// [`AutoscalePolicy`](deflate_core::policy::AutoscalePolicy).
    pub autoscale: AutoscaleStats,
    /// Every migration performed, in time order.
    pub migrations: Vec<MigrationEvent>,
    /// Cluster-utilisation samples `(time_secs, effective used / currently
    /// available capacity)`, populated when utilisation ticks are enabled.
    pub utilization: Vec<(f64, f64)>,
    /// Number of servers the cluster had.
    pub num_servers: usize,
    /// Nominal overcommitment level of the configuration (peak committed
    /// allocation over cluster capacity, minus one).
    pub overcommitment: f64,
    /// Human-readable name of the reclamation mode / policy that ran.
    pub policy_name: String,
    /// Engine accounting: wall-clock duration and events processed.
    pub runtime: RunStats,
}

impl PartialEq for SimResult {
    fn eq(&self, other: &Self) -> bool {
        // Exhaustive destructuring: adding a field to SimResult fails to
        // compile here until someone decides whether it joins the
        // bit-identity contract — it cannot silently fall out of it.
        let SimResult {
            records,
            counters,
            transient,
            scheduler,
            autoscale,
            migrations,
            utilization,
            num_servers,
            overcommitment,
            policy_name,
            runtime,
        } = self;
        *records == other.records
            && *counters == other.counters
            && *transient == other.transient
            && *scheduler == other.scheduler
            && *autoscale == other.autoscale
            && *migrations == other.migrations
            && *utilization == other.utilization
            && *num_servers == other.num_servers
            && *overcommitment == other.overcommitment
            && *policy_name == other.policy_name
            // Deterministic part of the runtime stats only: the event
            // count must match, the wall clock need not.
            && runtime.events_processed == other.runtime.events_processed
    }
}

impl SimResult {
    /// Number of deflatable (low-priority) VM arrivals.
    pub fn deflatable_arrivals(&self) -> usize {
        self.records.iter().filter(|r| r.spec.deflatable).count()
    }

    /// Figure 20's failure probability: the fraction of deflatable VMs that
    /// either could not be admitted (resource reclamation failed) or were
    /// preempted (baseline mode).
    pub fn failure_probability(&self) -> f64 {
        let deflatable = self.deflatable_arrivals();
        if deflatable == 0 {
            return 0.0;
        }
        let failures = self
            .records
            .iter()
            .filter(|r| r.spec.deflatable)
            .filter(|r| !matches!(r.outcome, VmOutcome::Completed))
            .count();
        failures as f64 / deflatable as f64
    }

    /// Fraction of deflatable VMs destroyed by capacity reclamations
    /// (evictions only; rejections and arrival-preemptions excluded).
    pub fn eviction_probability(&self) -> f64 {
        let deflatable = self.deflatable_arrivals();
        if deflatable == 0 {
            return 0.0;
        }
        let evicted = self
            .records
            .iter()
            .filter(|r| r.spec.deflatable)
            .filter(|r| matches!(r.outcome, VmOutcome::Evicted { .. }))
            .count();
        evicted as f64 / deflatable as f64
    }

    /// Total number of migrations performed (including migrate-backs).
    pub fn migration_count(&self) -> usize {
        self.migrations.len()
    }

    /// Number of migrations aborted mid-transfer because the source's
    /// reclamation deadline expired (each also evicted its VM).
    pub fn migration_abort_count(&self) -> usize {
        self.transient.migration_aborts
    }

    /// Number of migrations the transfer scheduler refused up front (EDF
    /// admission control: the copy provably could not beat its deadline).
    pub fn migration_rejection_count(&self) -> usize {
        self.transient.migration_rejections
    }

    /// Mean time booked transfers spent queued for a bandwidth slot,
    /// seconds.
    pub fn mean_queue_wait_secs(&self) -> f64 {
        self.scheduler.mean_queue_wait_secs()
    }

    /// Deflatable VMs lost to capacity reclamations either way: evicted
    /// outright or aborted mid-migration (aborts resolve to evictions, so
    /// this is the count of `Evicted` outcomes). The quantity the
    /// bandwidth-sweep experiment compares across reclamation modes.
    pub fn eviction_or_abort_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.spec.deflatable)
            .filter(|r| matches!(r.outcome, VmOutcome::Evicted { .. }))
            .count()
    }

    /// Total page-transfer time spent by completed migrations, seconds.
    /// Zero under the cost-free model — the non-zero value is the migration
    /// cost the transient experiments previously ignored.
    pub fn total_migration_secs(&self) -> f64 {
        // fold, not sum: this toolchain's empty f64 sum yields -0.0, which
        // prints as "-0.0" in experiment tables.
        self.migrations
            .iter()
            .fold(0.0, |acc, m| acc + m.duration_secs)
    }

    /// Mean page-transfer time per completed migration, seconds (0 when
    /// nothing migrated).
    pub fn mean_migration_secs(&self) -> f64 {
        if self.migrations.is_empty() {
            0.0
        } else {
            self.total_migration_secs() / self.migrations.len() as f64
        }
    }

    /// Total bytes moved by completed migrations, MiB.
    pub fn total_migration_volume_mb(&self) -> f64 {
        self.migrations.iter().fold(0.0, |acc, m| acc + m.volume_mb)
    }

    /// Figure 21's metric: mean relative throughput loss across deflatable
    /// VMs that were admitted.
    pub fn mean_throughput_loss(&self) -> f64 {
        let admitted: Vec<&VmRecord> = self
            .records
            .iter()
            .filter(|r| r.spec.deflatable && !matches!(r.outcome, VmOutcome::Rejected))
            .collect();
        if admitted.is_empty() {
            return 0.0;
        }
        admitted.iter().map(|r| r.throughput_loss()).sum::<f64>() / admitted.len() as f64
    }

    /// Total revenue from deflatable (low-priority) VMs under a pricing
    /// policy.
    pub fn deflatable_revenue(&self, pricing: &PricingPolicy, rates: &RateCard) -> f64 {
        self.records
            .iter()
            .filter(|r| r.spec.deflatable)
            .map(|r| r.revenue(pricing, rates))
            .sum()
    }

    /// Revenue from deflatable VMs per server — the quantity whose relative
    /// increase Figure 22 plots (shrinking the cluster at constant workload
    /// raises revenue per server until failures erode it).
    pub fn deflatable_revenue_per_server(&self, pricing: &PricingPolicy, rates: &RateCard) -> f64 {
        if self.num_servers == 0 {
            0.0
        } else {
            self.deflatable_revenue(pricing, rates) / self.num_servers as f64
        }
    }

    /// Fraction of admitted deflatable VMs that were deflated at least once.
    pub fn deflated_vm_fraction(&self) -> f64 {
        let admitted: Vec<&VmRecord> = self
            .records
            .iter()
            .filter(|r| r.spec.deflatable && !matches!(r.outcome, VmOutcome::Rejected))
            .collect();
        if admitted.is_empty() {
            return 0.0;
        }
        let deflated = admitted
            .iter()
            .filter(|r| r.allocation_history.iter().any(|&(_, f)| f < 1.0 - 1e-9))
            .count();
        deflated as f64 / admitted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflate_core::resources::ResourceVector;
    use deflate_core::vm::{VmClass, VmId};

    fn record(history: Vec<(f64, f64)>, outcome: VmOutcome, util: Vec<f64>) -> VmRecord {
        VmRecord {
            spec: VmSpec::deflatable(
                VmId(1),
                VmClass::Interactive,
                ResourceVector::cpu_mem(4000.0, 8192.0),
            ),
            arrival_secs: 0.0,
            departure_secs: 1200.0,
            outcome,
            allocation_history: history,
            cpu_util: TimeSeries::five_minute(util),
        }
    }

    #[test]
    fn allocation_fraction_lookup() {
        let r = record(
            vec![(0.0, 1.0), (600.0, 0.5)],
            VmOutcome::Completed,
            vec![0.2; 4],
        );
        assert_eq!(r.allocation_fraction_at(100.0), 1.0);
        assert_eq!(r.allocation_fraction_at(599.0), 1.0);
        assert_eq!(r.allocation_fraction_at(600.0), 0.5);
        assert_eq!(r.allocation_fraction_at(1199.0), 0.5);
        // Outside the lifetime: 0.
        assert_eq!(r.allocation_fraction_at(-1.0), 0.0);
        assert_eq!(r.allocation_fraction_at(1200.0), 0.0);
    }

    #[test]
    fn mean_allocation_fraction_time_weighted() {
        let r = record(
            vec![(0.0, 1.0), (600.0, 0.5)],
            VmOutcome::Completed,
            vec![0.2; 4],
        );
        assert!((r.mean_allocation_fraction() - 0.75).abs() < 1e-9);
        // Rejected VM: zero.
        let rej = record(vec![], VmOutcome::Rejected, vec![0.2; 4]);
        assert_eq!(rej.mean_allocation_fraction(), 0.0);
        assert_eq!(rej.hours_run(), 0.0);
    }

    #[test]
    fn throughput_loss_counts_usage_above_allocation() {
        // Usage 0.8 for 4 intervals; allocation drops to 0.5 halfway.
        let r = record(
            vec![(0.0, 1.0), (600.0, 0.5)],
            VmOutcome::Completed,
            vec![0.8; 4],
        );
        // Lost = 2 × (0.8 − 0.5) = 0.6 of demanded 3.2.
        assert!((r.throughput_loss() - 0.6 / 3.2).abs() < 1e-9);
        // Never-deflated VM loses nothing.
        let full = record(vec![(0.0, 1.0)], VmOutcome::Completed, vec![0.9; 4]);
        assert_eq!(full.throughput_loss(), 0.0);
        // Idle VM loses nothing even when deflated.
        let idle = record(vec![(0.0, 0.2)], VmOutcome::Completed, vec![0.0; 4]);
        assert_eq!(idle.throughput_loss(), 0.0);
    }

    #[test]
    fn preempted_vm_loses_remaining_work() {
        let r = record(
            vec![(0.0, 1.0)],
            VmOutcome::Preempted { at_secs: 600.0 },
            vec![0.5; 4],
        );
        // After 600 s the allocation is 0, so half the demand is lost.
        assert!((r.throughput_loss() - 0.5).abs() < 1e-9);
        assert!((r.hours_run() - 600.0 / 3600.0).abs() < 1e-9);
    }

    #[test]
    fn sim_result_aggregates() {
        let completed = record(vec![(0.0, 1.0)], VmOutcome::Completed, vec![0.5; 4]);
        let rejected = record(vec![], VmOutcome::Rejected, vec![0.5; 4]);
        let deflated = record(
            vec![(0.0, 1.0), (300.0, 0.4)],
            VmOutcome::Completed,
            vec![0.5; 4],
        );
        let result = SimResult {
            records: vec![completed, rejected, deflated],
            counters: AdmissionCounters::default(),
            transient: TransientCounters::default(),
            scheduler: SchedulerStats::default(),
            autoscale: AutoscaleStats::default(),
            migrations: vec![],
            utilization: vec![],
            num_servers: 2,
            overcommitment: 0.5,
            policy_name: "test".into(),
            runtime: RunStats::default(),
        };
        assert_eq!(result.deflatable_arrivals(), 3);
        assert!((result.failure_probability() - 1.0 / 3.0).abs() < 1e-9);
        assert!(result.mean_throughput_loss() > 0.0);
        assert!((result.deflated_vm_fraction() - 0.5).abs() < 1e-9);
        let rates = RateCard::default();
        let rev = result.deflatable_revenue(&PricingPolicy::static_default(), &rates);
        assert!(rev > 0.0);
        assert!(
            (result.deflatable_revenue_per_server(&PricingPolicy::static_default(), &rates)
                - rev / 2.0)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn empty_result_is_all_zero() {
        let result = SimResult {
            records: vec![],
            counters: AdmissionCounters::default(),
            transient: TransientCounters::default(),
            scheduler: SchedulerStats::default(),
            autoscale: AutoscaleStats::default(),
            migrations: vec![],
            utilization: vec![],
            num_servers: 0,
            overcommitment: 0.0,
            policy_name: "empty".into(),
            runtime: RunStats::default(),
        };
        assert_eq!(result.failure_probability(), 0.0);
        assert_eq!(result.mean_throughput_loss(), 0.0);
        assert_eq!(result.deflated_vm_fraction(), 0.0);
        assert_eq!(
            result
                .deflatable_revenue_per_server(&PricingPolicy::PriorityBased, &RateCard::default()),
            0.0
        );
    }

    #[test]
    fn equality_ignores_wall_clock_but_not_event_count() {
        let base = SimResult {
            records: vec![],
            counters: AdmissionCounters::default(),
            transient: TransientCounters::default(),
            scheduler: SchedulerStats::default(),
            autoscale: AutoscaleStats::default(),
            migrations: vec![],
            utilization: vec![],
            num_servers: 1,
            overcommitment: 0.0,
            policy_name: "x".into(),
            runtime: RunStats {
                wall_clock_secs: 1.0,
                events_processed: 42,
                shards: 1,
            },
        };
        let mut timed_differently = base.clone();
        timed_differently.runtime.wall_clock_secs = 9.0;
        assert_eq!(base, timed_differently);
        let mut different_events = base.clone();
        different_events.runtime.events_processed = 43;
        assert_ne!(base, different_events);
    }

    #[test]
    fn run_stats_throughput() {
        let stats = RunStats {
            wall_clock_secs: 2.0,
            events_processed: 100,
            shards: 1,
        };
        assert!((stats.events_per_sec() - 50.0).abs() < 1e-9);
        assert_eq!(RunStats::default().events_per_sec(), 0.0);
    }
}
