//! Trace-driven discrete-event cluster simulation (§7.1.2, §7.4).
//!
//! The simulator replays a VM workload (arrival time, departure time, size,
//! CPU-utilisation history — normally derived from the synthetic Azure trace)
//! against a [`ClusterManager`], recording for every VM when it was admitted,
//! rejected, preempted or evicted and how its CPU allocation changed over
//! time. The resulting [`SimResult`] yields the three cluster-level metrics
//! of §7.4: reclamation-failure probability (Figure 20), throughput loss
//! (Figure 21) and revenue (Figure 22).
//!
//! The simulation runs on the generalized event engine of
//! `deflate-transient`: a deterministic binary-heap [`EventQueue`] over
//! typed [`SimEvent`]s. Besides VM arrivals and departures it understands
//! provider-side **capacity events** — attach a [`CapacitySchedule`] with
//! [`ClusterSimulation::with_capacity_schedule`] and every reclamation is
//! absorbed by deflation, then deflation-aware migration, and only then by
//! evicting VMs (see [`ClusterManager::reclaim_capacity`]).
//!
//! Migrations are priced by a [`MigrationCostModel`]
//! ([`ClusterSimulation::with_migration_cost`]): instead of completing
//! instantly, a costed transfer becomes *in flight* — the manager reports
//! it as started, the simulator schedules a [`SimEvent::MigrationComplete`]
//! at the transfer's end (or at the source's reclamation deadline, in which
//! case the VM is aborted and evicted) and feeds it back through
//! [`ClusterManager::complete_migration`].
//!
//! # Elastic autoscaling
//!
//! With [`ClusterSimulation::with_autoscale`] the run also hosts
//! **elastic applications** (`deflate-autoscale`): replica pools resized
//! by a target-tracking autoscaler that observes each `UtilizationTick`
//! and schedules [`SimEvent::ScaleOut`] / [`SimEvent::ScaleIn`] events
//! for its decisions. The deflation-aware policy scales in by *parking*
//! (deflating) replicas and scales out by *reinflating* them — instantly,
//! where a fresh launch pays a boot delay. `AutoscalePolicy::Disabled`
//! (the default) schedules nothing and is bit-identical to a run without
//! the call.

use crate::audit::Auditor;
use crate::manager::{
    CapacityChangeOutcome, ClusterConfig, ClusterManager, EngineConfig, PlacementResult,
    ReclamationMode,
};
use crate::metrics::{MigrationEvent, RunStats, SimResult, VmOutcome, VmRecord};
use crate::spec::WorkloadVm;
use deflate_autoscale::{Autoscaler, ElasticApp};
use deflate_core::audit::AuditSpec;
use deflate_core::checkpoint::{
    ByteReader, ByteWriter, CheckpointError, CheckpointResult, StateVisitor,
};
use deflate_core::placement::PlacementEngine;
use deflate_core::policy::{AutoscalePolicy, RestorePolicy, TransferPolicy};
use deflate_core::shard::ShardConfig;
use deflate_core::telemetry::TelemetrySpec;
use deflate_core::vm::{ServerId, VmId};
use deflate_hypervisor::domain::CacheRegrowthModel;
use deflate_hypervisor::migration::MigrationCostModel;
use deflate_telemetry::{EventField, MemoryLedger, Phase, TelemetryEventKind, TelemetrySink};
use deflate_transient::events::{EventQueue, SimEvent};
use deflate_transient::signal::CapacitySchedule;
use std::collections::HashMap;

/// The trace-driven cluster simulator.
pub struct ClusterSimulation {
    config: ClusterConfig,
    mode: ReclamationMode,
    schedule: CapacitySchedule,
    utilization_tick_secs: Option<f64>,
    migrate_back: bool,
    engine: EngineConfig,
    autoscale_policy: AutoscalePolicy,
    elastic_apps: Vec<ElasticApp>,
    telemetry: TelemetrySink,
    audit: AuditSpec,
}

/// The engine's complete working state between event boundaries: the
/// cluster manager, the optional autoscaler, the pending event queue and
/// the per-VM bookkeeping. Built by `boot`, advanced by `drive`, folded
/// into a [`SimResult`] by `finish` — and, between `drive` calls,
/// serializable as a versioned snapshot
/// ([`ClusterSimulation::checkpoint`]).
struct EngineState {
    manager: ClusterManager,
    autoscaler: Option<Autoscaler>,
    queue: EventQueue,
    index_of: HashMap<VmId, usize>,
    records: Vec<VmRecord>,
    running: Vec<bool>,
    migrations: Vec<MigrationEvent>,
    utilization: Vec<(f64, f64)>,
    events_processed: u64,
    /// The online invariant auditor, present only when the [`AuditSpec`]
    /// is on. Pure observer: never serialized into
    /// snapshots, never consulted by any decision path.
    auditor: Option<Auditor>,
}

impl EngineState {
    /// The engine's snapshot schema, in layout order: the boundary time,
    /// the workload length, the processed-event count, the pending events
    /// in the queue's pop order, the cluster manager, the optional
    /// autoscaler, each VM's running flag, outcome and allocation history,
    /// the migration log and the utilisation series.
    ///
    /// Restoring rebuilds the queue through the ordinary bulk build —
    /// events are stored in the canonical pop order, and the order is
    /// total, so the rebuilt heap reproduces the same pops. The snapshot
    /// defines every shape (workload length, server count, autoscaler
    /// apps); [`ClusterSimulation::resume`] then rejects shapes that are
    /// not its own.
    fn visit_state(
        &mut self,
        v: &mut impl StateVisitor,
        at_secs: &mut f64,
        telemetry: &TelemetrySink,
    ) -> CheckpointResult<()> {
        v.f64("at_secs", at_secs)?;
        let mut vms = self.records.len();
        v.len("record", &mut vms, RECORD_MIN_SNAPSHOT_BYTES)?;
        v.u64("events_processed", &mut self.events_processed)?;
        let mut queued = if v.restoring() {
            Vec::new()
        } else {
            self.queue.contents()
        };
        v.seq("queue", &mut queued, 9, |v, (time, event)| {
            v.f64("time", time)?;
            event.visit_state(v)
        })?;
        v.scope("manager", |v| self.manager.visit_state(v))?;
        let mut autoscaled = self.autoscaler.is_some();
        v.bool("autoscaler_present", &mut autoscaled)?;
        if autoscaled != self.autoscaler.is_some() {
            self.autoscaler = autoscaled.then(Autoscaler::default);
        }
        if let Some(autoscaler) = &mut self.autoscaler {
            v.scope("autoscaler", |v| autoscaler.visit_state(v))?;
        }
        self.records.resize_with(vms, VmRecord::default);
        self.running.resize(vms, false);
        let records = self.records.iter_mut().zip(&mut self.running);
        for (i, (record, running)) in records.enumerate() {
            v.item("record", i, |v| {
                v.bool("running", running)?;
                visit_outcome(v, &mut record.outcome)?;
                v.seq(
                    "allocation_history",
                    &mut record.allocation_history,
                    16,
                    |v, (t, f)| {
                        v.f64("time_secs", t)?;
                        v.f64("fraction", f)
                    },
                )
            })?;
        }
        v.seq("migration_log", &mut self.migrations, 41, |v, m| {
            v.f64("time_secs", &mut m.time_secs)?;
            v.u64("vm", &mut m.vm.0)?;
            v.u32("from", &mut m.from.0)?;
            v.u32("to", &mut m.to.0)?;
            v.f64("duration_secs", &mut m.duration_secs)?;
            v.f64("volume_mb", &mut m.volume_mb)?;
            v.bool("back", &mut m.back)
        })?;
        v.seq("utilization", &mut self.utilization, 16, |v, (t, u)| {
            v.f64("time_secs", t)?;
            v.f64("value", u)
        })?;
        if v.restoring() {
            let servers = self.manager.num_servers();
            for (time, event) in &queued {
                check_queued(*time, event, vms, servers)?;
            }
            let _heapify = telemetry.span(Phase::Heapify);
            self.queue = EventQueue::from_events(queued);
        }
        Ok(())
    }

    /// Refresh every running VM's recent-utilisation sample from its trace
    /// ahead of a capacity event, so the migration cost model estimates
    /// transfers from current behaviour rather than boot-time idleness.
    /// Only consequential — and only paid for — when a dirty-rate model
    /// is active: without one the samples could never influence an
    /// estimate, so the O(workload) pass is skipped.
    fn observe_utilizations(&mut self, workload: &[WorkloadVm], time: f64) {
        if self.manager.migration_cost().dirty_rate_mbps <= 0.0 {
            return;
        }
        for (vm, _) in workload.iter().zip(&self.running).filter(|(_, &run)| run) {
            self.manager
                .observe_vm_utilization(vm.spec.id, vm.cpu_util.at(time - vm.arrival_secs));
        }
    }

    /// Fold a capacity-change outcome into the per-VM bookkeeping: evicted
    /// VMs stop running, completed migrations join the migration log as
    /// the manager reported them, newly started transfers get a
    /// `MigrationComplete` event scheduled, and allocation histories of
    /// every touched server are brought up to date.
    fn apply_capacity_outcome(&mut self, outcome: &CapacityChangeOutcome, time: f64) {
        for &victim in &outcome.victims {
            self.lose_vm(victim, VmOutcome::Evicted { at_secs: time });
        }
        self.migrations.extend_from_slice(&outcome.migrated);
        for started in &outcome.started {
            self.queue.push(
                started.event_secs,
                SimEvent::MigrationComplete {
                    migration: started.id,
                },
            );
        }
        for &server in &outcome.touched {
            self.record_allocations(server, time);
        }
    }

    /// Record that the manager killed `vm` (preempted or evicted it): a
    /// workload VM's record takes `outcome` and stops running. A VM outside
    /// the workload is an elastic replica with no record, which must leave
    /// the autoscaler's pool (and count as lost), or it would count as
    /// active forever and block its own replacement.
    fn lose_vm(&mut self, vm: VmId, outcome: VmOutcome) {
        if let Some(&vi) = self.index_of.get(&vm) {
            self.records[vi].outcome = outcome;
            self.running[vi] = false;
        } else if let Some(autoscaler) = self.autoscaler.as_mut() {
            autoscaler.on_replica_evicted(vm);
        }
    }

    /// Append allocation change-points for every VM on the touched server
    /// whose CPU fraction changed since the last recorded value.
    fn record_allocations(&mut self, server: ServerId, time: f64) {
        self.manager
            .for_each_allocation_fraction_on(server, |vm, fraction| {
                let Some(&i) = self.index_of.get(&vm) else {
                    return;
                };
                if !self.running[i] {
                    return;
                }
                let history = &mut self.records[i].allocation_history;
                match history.last() {
                    Some(&(_, last)) if (last - fraction).abs() < 1e-9 => {}
                    _ => history.push((time, fraction)),
                }
            });
    }

    /// Publish the per-subsystem memory ledger into the telemetry metrics
    /// registry: one deterministic `mem.<subsystem>` byte gauge per owner
    /// (see [`MemoryLedger`]) plus `mem.accounted_total`, and alongside
    /// them the live `mem.rss_kib` VmRSS reading — the OS-level ground
    /// truth the accounted gauges are compared against by `fig_memory`
    /// (absent off Linux). Caller guards on `telemetry.enabled()`.
    fn publish_memory(&self, workload: &[WorkloadVm], telemetry: &TelemetrySink) {
        use deflate_core::mem::{map_entry_bytes, vec_bytes};
        use std::mem::size_of;
        let mut ledger = MemoryLedger::new();
        // The sink's own footprint first, measured before this publish
        // grows the registry with the `mem.*` entries themselves.
        ledger.record("telemetry", telemetry.accounted_bytes());
        self.manager.record_memory(&mut ledger);
        ledger.record("event_queue", self.queue.accounted_bytes());
        ledger.record(
            "vm_records",
            vec_bytes(&self.records)
                + self
                    .records
                    .iter()
                    .map(VmRecord::accounted_bytes)
                    .sum::<u64>()
                + vec_bytes(&self.running)
                + self.index_of.len() as u64
                    * map_entry_bytes(size_of::<VmId>(), size_of::<usize>()),
        );
        ledger.record(
            "workload",
            vec_bytes(workload)
                + workload
                    .iter()
                    .map(WorkloadVm::accounted_bytes)
                    .sum::<u64>(),
        );
        ledger.record("migration_log", vec_bytes(&self.migrations));
        ledger.record("utilization", vec_bytes(&self.utilization));
        if let Some(autoscaler) = &self.autoscaler {
            ledger.record("autoscaler", autoscaler.accounted_bytes());
        }
        ledger.publish(telemetry);
        if let Some(rss) = deflate_telemetry::rss_kib() {
            telemetry.gauge_set("mem.rss_kib", rss);
        }
    }
}

/// The smallest snapshot encoding of one VM's record: running flag,
/// outcome tag and an empty allocation history.
const RECORD_MIN_SNAPSHOT_BYTES: usize = 10;

/// The snapshot schema of a [`VmOutcome`]: a tag, plus the timestamp of
/// a preemption or eviction.
fn visit_outcome(v: &mut impl StateVisitor, outcome: &mut VmOutcome) -> CheckpointResult<()> {
    let (mut tag, mut at_secs) = match *outcome {
        VmOutcome::Completed => (0, 0.0),
        VmOutcome::Rejected => (1, 0.0),
        VmOutcome::Preempted { at_secs } => (2, at_secs),
        VmOutcome::Evicted { at_secs } => (3, at_secs),
    };
    v.u8("outcome", &mut tag)?;
    if tag >= 2 {
        v.f64("outcome_at_secs", &mut at_secs)?;
    }
    *outcome = match tag {
        0 => VmOutcome::Completed,
        1 => VmOutcome::Rejected,
        2 => VmOutcome::Preempted { at_secs },
        3 => VmOutcome::Evicted { at_secs },
        other => {
            return Err(CheckpointError::Corrupt(format!(
                "unknown VmOutcome discriminant {other}"
            )))
        }
    };
    Ok(())
}

/// Reject a decoded pending event the engine could not deliver: a
/// non-finite time, a VM index outside the workload, a server outside the
/// cluster, or a capacity fraction that is not in `[0, 1]`.
fn check_queued(time: f64, event: &SimEvent, vms: usize, servers: usize) -> CheckpointResult<()> {
    let valid = time.is_finite()
        && match *event {
            SimEvent::Arrival(i) | SimEvent::Departure(i) => i < vms,
            SimEvent::CapacityReclaim {
                server,
                available_fraction,
            }
            | SimEvent::CapacityRestore {
                server,
                available_fraction,
            } => (server.0 as usize) < servers && (0.0..=1.0).contains(&available_fraction),
            SimEvent::MigrationComplete { .. }
            | SimEvent::ScaleOut { .. }
            | SimEvent::ScaleIn { .. }
            | SimEvent::UtilizationTick => true,
        };
    if valid {
        Ok(())
    } else {
        Err(CheckpointError::Corrupt(format!(
            "queued event {event:?} at {time} is outside the engine's domain"
        )))
    }
}

/// Walk a snapshot's schema with `v` over a blank engine state, so the
/// bytes alone define every shape — for readers that have no simulation
/// configuration to restore into, like the divergence diff. Returns the
/// decoded processed-event count.
pub(crate) fn visit_detached(v: &mut impl StateVisitor) -> CheckpointResult<u64> {
    let blank =
        ClusterSimulation::new(ClusterConfig::paper_default(0), ReclamationMode::Preemption);
    let mut state = blank.boot(&[]);
    state.visit_state(v, &mut 0.0, &blank.telemetry)?;
    Ok(state.events_processed)
}

impl ClusterSimulation {
    /// Create a simulation with the given cluster configuration and
    /// reclamation mode (static capacity, no utilisation sampling, free
    /// instantaneous migrations).
    pub fn new(config: ClusterConfig, mode: ReclamationMode) -> Self {
        ClusterSimulation {
            config,
            mode,
            schedule: CapacitySchedule::empty(),
            utilization_tick_secs: None,
            migrate_back: false,
            engine: EngineConfig::default(),
            autoscale_policy: AutoscalePolicy::default(),
            elastic_apps: Vec::new(),
            telemetry: TelemetrySink::disabled(),
            audit: AuditSpec::off(),
        }
    }

    /// Run the online invariant auditor with the given [`AuditSpec`]: when
    /// it is on, every checker re-verifies engine invariants after
    /// **every** processed event and fails fast (with a diagnostic naming
    /// the checker, event id, time and server) on the first violation. Off
    /// by default — and strictly observational when on: an audited run is
    /// bit-identical to a run with auditing off
    /// (pinned by `tests/telemetry_determinism.rs`). See
    /// [`Auditor`] documentation.
    pub fn with_audit(mut self, spec: AuditSpec) -> Self {
        self.audit = spec;
        self
    }

    /// Observe the run through a telemetry sink (`deflate-telemetry`):
    /// engine phase spans, metrics, JSONL event log, Chrome trace — per
    /// the sink's [`TelemetrySpec`]. The disabled default costs one
    /// branch per call site, and an enabled sink **never changes
    /// results**: every `SimResult` field is bit-identical to a
    /// telemetry-off run (pinned by
    /// `tests/telemetry_determinism.rs`).
    pub fn with_telemetry(mut self, telemetry: TelemetrySink) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// [`with_telemetry`](Self::with_telemetry) from a spec, opening any
    /// file sinks now (a bad path fails before the run starts).
    pub fn with_telemetry_spec(self, spec: &TelemetrySpec) -> std::io::Result<Self> {
        Ok(self.with_telemetry(TelemetrySink::from_spec(spec)?))
    }

    /// The sink the run will feed (disabled unless configured).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// Kept only because `perfbench/` names it; the value is ignored.
    pub fn with_shards(self, _shards: ShardConfig) -> Self {
        self
    }

    /// Kept only because `perfbench/` names it; the value is ignored.
    pub fn with_placement_engine(self, _engine: PlacementEngine) -> Self {
        self
    }

    /// Sets [`EngineConfig::migration_cost`].
    pub fn with_migration_cost(mut self, model: MigrationCostModel) -> Self {
        self.engine.migration_cost = model;
        self
    }

    /// Sets [`EngineConfig::transfer_policy`].
    pub fn with_transfer_policy(mut self, policy: TransferPolicy) -> Self {
        self.engine.transfer_policy = policy;
        self
    }

    /// Sets [`EngineConfig::restore_policy`].
    pub fn with_restore_policy(mut self, policy: RestorePolicy) -> Self {
        self.engine.restore_policy = policy;
        self
    }

    /// Sets [`EngineConfig::cache_regrowth`].
    pub fn with_cache_regrowth(mut self, model: CacheRegrowthModel) -> Self {
        self.engine.cache_regrowth = model;
        self
    }

    /// Run elastic applications under the given [`AutoscalePolicy`]. With
    /// `Disabled` (the default) this is a no-op — no events, no replicas,
    /// bit-identical to a run without the call. Enabled policies require
    /// [`with_utilization_ticks`](Self::with_utilization_ticks), which is
    /// where scaling decisions are made; each app's replica-id range must
    /// be disjoint from the workload's VM ids.
    pub fn with_autoscale(mut self, policy: AutoscalePolicy, apps: Vec<ElasticApp>) -> Self {
        self.autoscale_policy = policy;
        self.elastic_apps = apps;
        self
    }

    /// Attach a provider-side capacity schedule: its reclamation and
    /// restitution change-points become `CapacityReclaim` / `CapacityRestore`
    /// events in the run.
    pub fn with_capacity_schedule(mut self, schedule: CapacitySchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sample cluster utilisation every `interval_secs` of simulated time
    /// (`UtilizationTick` events; results land in [`SimResult::utilization`]).
    pub fn with_utilization_ticks(mut self, interval_secs: f64) -> Self {
        self.utilization_tick_secs = (interval_secs > 0.0).then_some(interval_secs);
        self
    }

    /// Migrate displaced VMs back to their origin server when its capacity
    /// is restored.
    pub fn with_migrate_back(mut self, migrate_back: bool) -> Self {
        self.migrate_back = migrate_back;
        self
    }

    /// Replay the workload and return the per-VM records and aggregate
    /// counters.
    pub fn run(&self, workload: &[WorkloadVm]) -> SimResult {
        let started_at = std::time::Instant::now();
        // The umbrella span: its *self* time (total minus the attributed
        // phases below) is `fig_profile`'s "other" row, so the phase
        // table always sums to the engine total.
        let _engine_total = self.telemetry.span(Phase::EngineTotal);
        let overcommitment = self.overcommitment(workload);
        let mut state = self.boot(workload);
        self.drive(workload, &mut state, None);
        self.finish(workload, state, started_at, overcommitment)
    }

    /// Run the engine up to simulated time `at_secs` — processing every
    /// event with `time <= at_secs`, including events their handlers
    /// schedule back inside the horizon — and serialize the complete
    /// dynamic state as a versioned snapshot.
    ///
    /// The contract, pinned by `tests/checkpoint_restore.rs`: for any
    /// event-boundary `T`, `resume(checkpoint(T))` yields a `SimResult`
    /// equal to the uninterrupted `run` in **every** field (wall-clock
    /// time excepted — it is re-measured, never serialized, so snapshot
    /// bytes are machine-independent). The bytes are also independent of
    /// telemetry: queue contents are written in the queue's deterministic
    /// pop order and every map in sorted order.
    ///
    /// A snapshot holds only *dynamic* state. Configuration — the cluster
    /// layout, policies, cost models, telemetry sinks — is
    /// re-supplied by the [`ClusterSimulation`] that restores it, which is
    /// what lets a **fork** replay the same snapshot under a different
    /// [`TransferPolicy`] (the scheduler's ledgers persist; its policy is
    /// the restoring simulation's).
    pub fn checkpoint(&self, workload: &[WorkloadVm], at_secs: f64) -> Vec<u8> {
        let _engine_total = self.telemetry.span(Phase::EngineTotal);
        let mut state = self.boot(workload);
        self.drive(workload, &mut state, Some(at_secs));
        self.serialize_state(&mut state, at_secs)
    }

    /// Restore a [`checkpoint`](Self::checkpoint) snapshot and run the
    /// remaining events to completion. The receiver must be configured
    /// identically to the checkpointing simulation — except for knobs
    /// that are *deliberately* part of a fork (the transfer policy) and
    /// knobs that never affect results (telemetry — sinks are re-attached
    /// here, never serialized).
    pub fn resume(&self, workload: &[WorkloadVm], snapshot: &[u8]) -> CheckpointResult<SimResult> {
        let started_at = std::time::Instant::now();
        let _engine_total = self.telemetry.span(Phase::EngineTotal);
        let overcommitment = self.overcommitment(workload);
        let mut state = self.boot(workload);
        self.restore_state(workload, &mut state, snapshot)?;
        self.drive(workload, &mut state, None);
        Ok(self.finish(workload, state, started_at, overcommitment))
    }

    /// Restore a snapshot, drive the engine further to `at_secs`, and
    /// re-serialize — advancing a checkpointed run to a later boundary
    /// without replaying its prefix. The meta-scheduling loop in
    /// `fig_whatif` leapfrogs snapshots this way from one capacity event
    /// to the next.
    pub fn resume_until(
        &self,
        workload: &[WorkloadVm],
        snapshot: &[u8],
        at_secs: f64,
    ) -> CheckpointResult<Vec<u8>> {
        let _engine_total = self.telemetry.span(Phase::EngineTotal);
        let mut state = self.boot(workload);
        self.restore_state(workload, &mut state, snapshot)?;
        self.drive(workload, &mut state, Some(at_secs));
        Ok(self.serialize_state(&mut state, at_secs))
    }

    /// The simulated time a snapshot was taken at, without restoring it.
    pub fn snapshot_time(snapshot: &[u8]) -> CheckpointResult<f64> {
        let mut r = ByteReader::with_header(snapshot)?;
        r.get_f64()
    }

    /// The workload's overcommitment of this cluster, for
    /// [`SimResult::overcommitment`]. Its sweep allocates two 48-byte
    /// events per VM plus the sort's scratch, so runs compute it before
    /// [`boot`](Self::boot), while the engine state is still small, rather
    /// than on top of the finished run's peak.
    fn overcommitment(&self, workload: &[WorkloadVm]) -> f64 {
        crate::spec::overcommitment_of(
            workload,
            self.config.server_capacity,
            self.config.num_servers,
        )
    }

    /// Whether runs carry an autoscaler: an enabled policy with at least
    /// one application.
    fn autoscaling(&self) -> bool {
        self.autoscale_policy.is_enabled() && !self.elastic_apps.is_empty()
    }

    /// Build the engine's working state: the cluster manager, the optional
    /// autoscaler, the fully scheduled event queue and the per-VM
    /// bookkeeping — everything `drive` advances, and everything a
    /// snapshot restores over.
    fn boot(&self, workload: &[WorkloadVm]) -> EngineState {
        let manager = ClusterManager::new(&self.config, self.mode.clone())
            .with_engine_config(self.engine)
            .with_telemetry(self.telemetry.clone());
        // The autoscaler exists only for enabled policies: a Disabled run
        // schedules no scale events and touches no autoscaler state, so it
        // is bit-identical to a run of the engine before autoscaling
        // existed (pinned by the golden regression tests).
        let autoscaler = self
            .autoscaling()
            .then(|| Autoscaler::new(self.autoscale_policy, self.elastic_apps.clone()));

        // Schedule every event up front. The queue's deterministic total
        // order (time, then kind, then id) makes the run independent of
        // insertion order: departures precede capacity changes precede
        // arrivals at equal timestamps, so back-to-back VMs never
        // artificially overlap and simultaneous arrivals see the already
        // shrunk server.
        let events: Vec<(f64, SimEvent)> = {
            let _schedule = self.telemetry.span(Phase::ScheduleBuild);
            let mut events: Vec<(f64, SimEvent)> =
                Vec::with_capacity(workload.len() * 2 + self.schedule.len());
            let mut horizon: f64 = 0.0;
            for (i, vm) in workload.iter().enumerate() {
                events.push((vm.arrival_secs, SimEvent::Arrival(i)));
                events.push((vm.departure_secs, SimEvent::Departure(i)));
                horizon = horizon.max(vm.departure_secs);
            }
            for change in self.schedule.changes() {
                let event = if change.is_reclaim {
                    SimEvent::CapacityReclaim {
                        server: change.server,
                        available_fraction: change.available_fraction,
                    }
                } else {
                    SimEvent::CapacityRestore {
                        server: change.server,
                        available_fraction: change.available_fraction,
                    }
                };
                events.push((change.time_secs, event));
            }
            if let Some(interval) = self.utilization_tick_secs {
                let mut t = 0.0;
                while t <= horizon {
                    events.push((t, SimEvent::UtilizationTick));
                    t += interval;
                }
            }
            if let Some(autoscaler) = &autoscaler {
                // Bootstrap scale-outs launch each app's initial pool.
                events.extend(autoscaler.initial_events());
            }
            events
        };
        let queue = {
            let _heapify = self.telemetry.span(Phase::Heapify);
            EventQueue::from_events(events)
        };
        self.telemetry
            .count("queue.events_scheduled", queue.len() as u64);

        // Working state.
        let (index_of, records) = {
            let _init = self.telemetry.span(Phase::RecordInit);
            let index_of: HashMap<VmId, usize> = workload
                .iter()
                .enumerate()
                .map(|(i, vm)| (vm.spec.id, i))
                .collect();
            (index_of, Self::initial_records(workload))
        };
        EngineState {
            manager,
            autoscaler,
            queue,
            index_of,
            records,
            running: vec![false; workload.len()],
            migrations: Vec::new(),
            utilization: Vec::new(),
            events_processed: 0,
            auditor: (!self.audit.is_off()).then(|| Auditor::new(self.audit)),
        }
    }

    /// The main event loop: pop events in the queue's global total order
    /// and dispatch them. With `stop_secs` set the loop stops at the first
    /// event **after** that time, leaving it queued — an event boundary a
    /// checkpoint can serialize; `None` drains the queue.
    fn drive(&self, workload: &[WorkloadVm], state: &mut EngineState, stop_secs: Option<f64>) {
        loop {
            if let Some(stop) = stop_secs {
                match state.queue.peek_time() {
                    Some(time) if time <= stop => {}
                    _ => break,
                }
            }
            // Time the heap pop separately from the event handlers it feeds.
            let popped = {
                let _pop = self.telemetry.span(Phase::QueuePop);
                state.queue.pop()
            };
            let Some((time, event)) = popped else { break };
            state.events_processed += 1;
            match event {
                SimEvent::Arrival(i) => {
                    let _span = self.telemetry.span(Phase::Arrival);
                    // PlacementRank nests inside place_vm and is
                    // subtracted from this span's self time.
                    let result = state.manager.place_vm(workload[i].spec.clone());
                    if self.telemetry.wants(TelemetryEventKind::Arrival) {
                        let outcome = match &result {
                            PlacementResult::Rejected => "rejected",
                            PlacementResult::Placed { .. } => "placed",
                            PlacementResult::PlacedWithDeflation { .. } => "placed_with_deflation",
                            PlacementResult::PlacedWithPreemption { .. } => {
                                "placed_with_preemption"
                            }
                        };
                        self.telemetry.log_event(
                            TelemetryEventKind::Arrival,
                            time,
                            &[
                                ("vm", EventField::U64(workload[i].spec.id.0)),
                                ("outcome", EventField::Str(outcome)),
                            ],
                        );
                    }
                    let touched_server = match result {
                        PlacementResult::Rejected => {
                            state.records[i].outcome = VmOutcome::Rejected;
                            None
                        }
                        PlacementResult::PlacedWithPreemption {
                            server,
                            ref preempted,
                        } => {
                            state.records[i].outcome = VmOutcome::Completed;
                            state.running[i] = true;
                            for &victim in preempted {
                                state.lose_vm(victim, VmOutcome::Preempted { at_secs: time });
                            }
                            Some(server)
                        }
                        PlacementResult::Placed { server }
                        | PlacementResult::PlacedWithDeflation { server, .. } => {
                            state.records[i].outcome = VmOutcome::Completed;
                            state.running[i] = true;
                            Some(server)
                        }
                    };
                    if let Some(server) = touched_server {
                        state.record_allocations(server, time);
                    }
                }
                SimEvent::Departure(i) => {
                    let _span = self.telemetry.span(Phase::Departure);
                    if self.telemetry.wants(TelemetryEventKind::Departure) {
                        self.telemetry.log_event(
                            TelemetryEventKind::Departure,
                            time,
                            &[
                                ("vm", EventField::U64(workload[i].spec.id.0)),
                                (
                                    "was_running",
                                    EventField::Str(if state.running[i] { "yes" } else { "no" }),
                                ),
                            ],
                        );
                    }
                    if state.running[i] {
                        let vm = workload[i].spec.id;
                        let server = state.manager.locate(vm);
                        // A mid-transfer departure also frees (and
                        // reinflates) the in-flight destination server.
                        let dest = state.manager.in_flight_destination(vm);
                        let _ = state.manager.remove_vm(vm);
                        state.running[i] = false;
                        for server in [server, dest].into_iter().flatten() {
                            state.record_allocations(server, time);
                        }
                    }
                }
                SimEvent::CapacityReclaim {
                    server,
                    available_fraction,
                } => {
                    let _span = self.telemetry.span(Phase::ReclaimLadder);
                    {
                        let _sampling = self.telemetry.span(Phase::UtilizationSampling);
                        state.observe_utilizations(workload, time);
                    }
                    let outcome = state
                        .manager
                        .reclaim_capacity(server, available_fraction, time);
                    if self.telemetry.wants(TelemetryEventKind::CapacityReclaim) {
                        self.telemetry.log_event(
                            TelemetryEventKind::CapacityReclaim,
                            time,
                            &[
                                ("server", EventField::U64(u64::from(server.0))),
                                ("available_fraction", EventField::F64(available_fraction)),
                                ("victims", EventField::U64(outcome.victims.len() as u64)),
                                (
                                    "migrations_started",
                                    EventField::U64(outcome.started.len() as u64),
                                ),
                            ],
                        );
                    }
                    state.apply_capacity_outcome(&outcome, time);
                }
                SimEvent::CapacityRestore {
                    server,
                    available_fraction,
                } => {
                    let _span = self.telemetry.span(Phase::ReclaimLadder);
                    {
                        let _sampling = self.telemetry.span(Phase::UtilizationSampling);
                        state.observe_utilizations(workload, time);
                    }
                    let outcome = state.manager.restore_capacity(
                        server,
                        available_fraction,
                        self.migrate_back,
                        time,
                    );
                    if self.telemetry.wants(TelemetryEventKind::CapacityRestore) {
                        self.telemetry.log_event(
                            TelemetryEventKind::CapacityRestore,
                            time,
                            &[
                                ("server", EventField::U64(u64::from(server.0))),
                                ("available_fraction", EventField::F64(available_fraction)),
                                (
                                    "migrations_started",
                                    EventField::U64(outcome.started.len() as u64),
                                ),
                            ],
                        );
                    }
                    state.apply_capacity_outcome(&outcome, time);
                }
                SimEvent::MigrationComplete { migration } => {
                    let _span = self.telemetry.span(Phase::MigrationCompletion);
                    let outcome = state.manager.complete_migration(migration, time);
                    if self.telemetry.wants(TelemetryEventKind::MigrationComplete) {
                        self.telemetry.log_event(
                            TelemetryEventKind::MigrationComplete,
                            time,
                            &[
                                ("migration", EventField::U64(migration)),
                                ("completed", EventField::U64(outcome.migrated.len() as u64)),
                            ],
                        );
                    }
                    state.apply_capacity_outcome(&outcome, time);
                }
                SimEvent::UtilizationTick => {
                    let _span = self.telemetry.span(Phase::UtilizationSampling);
                    let (used, capacity) =
                        state.manager.cpu_usage_snapshot(ShardConfig::sequential());
                    let value = if capacity <= 0.0 {
                        0.0
                    } else {
                        used / capacity
                    };
                    state.utilization.push((time, value));
                    if self.telemetry.wants(TelemetryEventKind::UtilizationTick) {
                        self.telemetry.log_event(
                            TelemetryEventKind::UtilizationTick,
                            time,
                            &[("utilization", EventField::F64(value))],
                        );
                    }
                    // Autoscaling decisions hang off the same ticks: the
                    // autoscaler observes each app against the settled
                    // cluster state and schedules ScaleOut / ScaleIn
                    // events in the engine's global event order.
                    if let Some(autoscaler) = state.autoscaler.as_mut() {
                        let _decide = self.telemetry.span(Phase::Autoscale);
                        for (t, event) in autoscaler.on_tick(time, &state.manager) {
                            state.queue.push(t, event);
                        }
                    }
                    // Memory-ledger sampling rides the utilisation-tick
                    // cadence, every tick: per-subsystem byte gauges plus
                    // the live VmRSS ground truth. Gauges only — skipped
                    // entirely when telemetry is off, and never consulted
                    // by any decision path.
                    if self.telemetry.enabled() {
                        state.publish_memory(workload, &self.telemetry);
                    }
                }
                SimEvent::ScaleOut { app } => {
                    let _span = self.telemetry.span(Phase::Autoscale);
                    if self.telemetry.wants(TelemetryEventKind::ScaleOut) {
                        self.telemetry.log_event(
                            TelemetryEventKind::ScaleOut,
                            time,
                            &[("app", EventField::U64(u64::from(app)))],
                        );
                    }
                    let Some(scaler) = state.autoscaler.as_mut() else {
                        continue;
                    };
                    let touched = scaler.on_scale_out(app, time, &mut state.manager);
                    // Under the preemption baseline a replica launch can
                    // kill resident workload VMs — and other replicas;
                    // reconcile both (deflation and migration-only
                    // launches never preempt).
                    if matches!(self.mode, ReclamationMode::Preemption) {
                        for (i, record) in state.records.iter_mut().enumerate() {
                            if state.running[i]
                                && state.manager.locate(workload[i].spec.id).is_none()
                            {
                                record.outcome = VmOutcome::Preempted { at_secs: time };
                                state.running[i] = false;
                            }
                        }
                        scaler.reconcile_lost(&state.manager);
                    }
                    for server in touched {
                        state.record_allocations(server, time);
                    }
                }
                SimEvent::ScaleIn { app } => {
                    let _span = self.telemetry.span(Phase::Autoscale);
                    if self.telemetry.wants(TelemetryEventKind::ScaleIn) {
                        self.telemetry.log_event(
                            TelemetryEventKind::ScaleIn,
                            time,
                            &[("app", EventField::U64(u64::from(app)))],
                        );
                    }
                    let Some(autoscaler) = state.autoscaler.as_mut() else {
                        continue;
                    };
                    for server in autoscaler.on_scale_in(app, time, &mut state.manager) {
                        state.record_allocations(server, time);
                    }
                }
            }
            // The audit point: after the event's handler has settled, the
            // checkers re-verify the engine's invariants against
            // the state the handler left behind. Strictly read-only; the
            // run fails fast on the first violation (every later number
            // would be untrustworthy), after logging it to the event log.
            if let Some(auditor) = state.auditor.as_mut() {
                if let Some(violation) = auditor.after_event(
                    state.events_processed,
                    time,
                    &state.manager,
                    state.autoscaler.as_ref(),
                ) {
                    if self.telemetry.wants(TelemetryEventKind::AuditViolation) {
                        self.telemetry.log_event(
                            TelemetryEventKind::AuditViolation,
                            time,
                            &[
                                ("checker", EventField::Str(violation.checker)),
                                ("event", EventField::U64(violation.event_id)),
                                (
                                    "server",
                                    EventField::U64(
                                        violation.server.map_or(u64::MAX, |s| u64::from(s.0)),
                                    ),
                                ),
                            ],
                        );
                    }
                    panic!("{violation}");
                }
            }
        }
    }

    /// Assemble the [`SimResult`] from a drained engine state. Wall-clock
    /// time is measured from `started_at` — the current portion of the
    /// run only, so a resumed run reports its own wall time while every
    /// *simulation* field (including the cumulative `events_processed`)
    /// matches the uninterrupted run.
    fn finish(
        &self,
        workload: &[WorkloadVm],
        state: EngineState,
        started_at: std::time::Instant,
        overcommitment: f64,
    ) -> SimResult {
        // Final memory-ledger publish: runs without utilisation ticks
        // still report settled `mem.*` gauges (and the scale-sweep's
        // before-picture relies on exactly this).
        if self.telemetry.enabled() {
            state.publish_memory(workload, &self.telemetry);
        }
        debug_assert!(state.manager.check_invariants());
        let _assembly = self.telemetry.span(Phase::ResultAssembly);
        let autoscale = state
            .autoscaler
            .map(Autoscaler::into_stats)
            .unwrap_or_default();
        // Final-state metrics are published exactly once, from settled
        // counters, so snapshots are deterministic.
        state.manager.publish_metrics();
        autoscale.publish_metrics(&self.telemetry);
        self.telemetry
            .gauge_set("engine.events_processed", state.events_processed as f64);
        SimResult {
            records: state.records,
            counters: state.manager.counters(),
            transient: state.manager.transient_counters(),
            scheduler: state.manager.scheduler_stats(),
            autoscale,
            migrations: state.migrations,
            utilization: state.utilization,
            num_servers: self.config.num_servers,
            overcommitment,
            policy_name: self.mode.name().to_string(),
            runtime: RunStats {
                wall_clock_secs: started_at.elapsed().as_secs_f64(),
                events_processed: state.events_processed,
                shards: 1,
            },
        }
    }

    /// Serialize a paused engine state as versioned snapshot bytes. The
    /// layout is [`EngineState::visit_state`]; it is golden-pinned by
    /// `tests/checkpoint_restore.rs`, and changing it requires bumping
    /// [`deflate_core::checkpoint::SNAPSHOT_VERSION`].
    fn serialize_state(&self, state: &mut EngineState, at_secs: f64) -> Vec<u8> {
        let mut w = ByteWriter::with_header();
        state
            .visit_state(&mut w, &mut { at_secs }, &self.telemetry)
            .expect("encoding a snapshot cannot fail");
        w.into_bytes()
    }

    /// Overwrite a freshly booted engine state with a snapshot's contents,
    /// then check that the shapes the snapshot defined — workload length,
    /// server count, autoscaled applications — are this simulation's.
    fn restore_state(
        &self,
        workload: &[WorkloadVm],
        state: &mut EngineState,
        snapshot: &[u8],
    ) -> CheckpointResult<()> {
        let mut r = ByteReader::with_header(snapshot)?;
        state.visit_state(&mut r, &mut 0.0, &self.telemetry)?;
        r.finish()?;
        let shapes = [
            ("workload VMs", state.records.len(), workload.len()),
            (
                "servers",
                state.manager.num_servers(),
                self.config.num_servers,
            ),
        ];
        for (what, found, expected) in shapes {
            if found != expected {
                return Err(CheckpointError::Corrupt(format!(
                    "snapshot has {found} {what}, the simulation has {expected}"
                )));
            }
        }
        let apps = state.autoscaler.as_ref().map(Autoscaler::app_count);
        if apps != self.autoscaling().then_some(self.elastic_apps.len()) {
            return Err(CheckpointError::Corrupt(
                "snapshot and simulation disagree on autoscaling".to_string(),
            ));
        }
        Ok(())
    }

    /// Build the per-VM record skeletons, one per workload entry.
    fn initial_records(workload: &[WorkloadVm]) -> Vec<VmRecord> {
        workload
            .iter()
            .map(|vm| VmRecord {
                spec: vm.spec.clone(),
                arrival_secs: vm.arrival_secs,
                departure_secs: vm.departure_secs,
                outcome: VmOutcome::Rejected,
                allocation_history: Vec::new(),
                cpu_util: vm.cpu_util.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::PlacementKind;
    use crate::spec::{workload_from_azure, MinAllocationRule};
    use deflate_core::placement::PartitionScheme;
    use deflate_core::policy::{DeterministicDeflation, PriorityDeflation, ProportionalDeflation};
    use deflate_core::resources::ResourceVector;
    use deflate_hypervisor::domain::DeflationMechanism;
    use deflate_traces::azure::{AzureTraceConfig, AzureTraceGenerator};
    use deflate_transient::signal::{CapacityProfile, TransientConfig};
    use std::sync::Arc;

    fn small_workload(num_vms: usize, seed: u64) -> Vec<crate::spec::WorkloadVm> {
        let traces = AzureTraceGenerator::generate(&AzureTraceConfig {
            num_vms,
            duration_hours: 12.0,
            seed,
            ..Default::default()
        });
        workload_from_azure(&traces, MinAllocationRule::None)
    }

    fn config(num_servers: usize) -> ClusterConfig {
        ClusterConfig {
            num_servers,
            server_capacity: ResourceVector::cpu_mem(48_000.0, 131_072.0),
            placement: PlacementKind::CosineFitness,
            partitions: PartitionScheme::None,
            mechanism: DeflationMechanism::Transparent,
        }
    }

    fn proportional() -> ReclamationMode {
        ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default()))
    }

    #[test]
    fn uncontended_cluster_admits_everything_with_no_loss() {
        let workload = small_workload(150, 11);
        let servers =
            crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0));
        let sim = ClusterSimulation::new(config(servers), proportional());
        let result = sim.run(&workload);
        assert_eq!(result.records.len(), workload.len());
        assert!(result.failure_probability() < 0.02);
        assert!(result.mean_throughput_loss() < 0.01);
        assert!(result.counters.attempts() >= workload.len());
        // No capacity schedule → no transient activity.
        assert_eq!(result.transient.reclaim_events, 0);
        assert!(result.migrations.is_empty());
    }

    #[test]
    fn overcommitted_cluster_deflates_instead_of_failing() {
        let workload = small_workload(200, 13);
        let baseline =
            crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0));
        let shrunk = (baseline as f64 / 1.5).floor().max(1.0) as usize;
        let sim = ClusterSimulation::new(config(shrunk), proportional());
        let result = sim.run(&workload);
        // Deflation happened.
        assert!(result.counters.admitted_with_deflation > 0 || result.deflated_vm_fraction() > 0.0);
        // Failure probability stays far below the preemption baseline.
        let preemption_sim = ClusterSimulation::new(config(shrunk), ReclamationMode::Preemption);
        let preemption = preemption_sim.run(&workload);
        assert!(
            result.failure_probability() <= preemption.failure_probability(),
            "deflation failures {} should not exceed preemption failures {}",
            result.failure_probability(),
            preemption.failure_probability()
        );
        // Throughput loss is modest at ~50% overcommitment (Figure 21).
        assert!(
            result.mean_throughput_loss() < 0.10,
            "throughput loss {}",
            result.mean_throughput_loss()
        );
    }

    #[test]
    fn policies_are_all_runnable() {
        let workload = small_workload(100, 17);
        let servers =
            (crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0))
                as f64
                / 1.4)
                .floor()
                .max(1.0) as usize;
        for mode in [
            ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default())),
            ReclamationMode::Deflation(Arc::new(PriorityDeflation::default())),
            ReclamationMode::Deflation(Arc::new(DeterministicDeflation::binary())),
            ReclamationMode::Preemption,
            ReclamationMode::MigrationOnly,
        ] {
            let name = mode.name().to_string();
            let sim = ClusterSimulation::new(config(servers), mode);
            let result = sim.run(&workload);
            assert_eq!(result.policy_name, name);
            assert!(result.failure_probability() <= 1.0);
            assert!(result.mean_throughput_loss() <= 1.0);
        }
    }

    #[test]
    fn allocation_histories_start_at_admission() {
        let workload = small_workload(80, 23);
        let servers =
            crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0));
        let sim = ClusterSimulation::new(config(servers), proportional());
        let result = sim.run(&workload);
        for record in result
            .records
            .iter()
            .filter(|r| matches!(r.outcome, VmOutcome::Completed))
        {
            assert!(!record.allocation_history.is_empty());
            let (t0, f0) = record.allocation_history[0];
            assert!(t0 >= record.arrival_secs - 1e-9);
            assert!(f0 > 0.0 && f0 <= 1.0 + 1e-9);
            // Histories are time-ordered.
            for w in record.allocation_history.windows(2) {
                assert!(w[0].0 <= w[1].0);
            }
        }
    }

    #[test]
    fn partitioned_placement_runs() {
        let workload = small_workload(120, 29);
        let baseline =
            crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0));
        let mut cfg = config((baseline as f64 / 1.3).floor().max(2.0) as usize);
        cfg.partitions = PartitionScheme::ByPriority { pools: 2 };
        let sim = ClusterSimulation::new(cfg, proportional());
        let result = sim.run(&workload);
        assert!(result.failure_probability() <= 1.0);
    }

    #[test]
    fn capacity_schedule_triggers_reclaims_and_utilization_ticks() {
        let workload = small_workload(150, 31);
        let servers =
            crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0));
        let schedule = deflate_transient::signal::CapacitySchedule::generate(&TransientConfig {
            num_servers: servers,
            transient_fraction: 1.0,
            duration_secs: 12.0 * 3600.0,
            profile: CapacityProfile::SquareWave {
                period_secs: 2.0 * 3600.0,
                keep_fraction: 0.5,
                duty: 0.4,
            },
            seed: 5,
        });
        assert!(!schedule.is_empty());
        let sim = ClusterSimulation::new(config(servers), proportional())
            .with_capacity_schedule(schedule.clone())
            .with_utilization_ticks(1800.0)
            .with_migrate_back(true);
        let result = sim.run(&workload);
        assert_eq!(result.transient.reclaim_events, schedule.reclaim_count());
        assert!(result.transient.restore_events > 0);
        assert!(!result.utilization.is_empty());
        for &(_, u) in &result.utilization {
            assert!((0.0..=1.0 + 1e-9).contains(&u));
        }
        // Deterministic: the same run again yields the identical result.
        let again = ClusterSimulation::new(config(servers), proportional())
            .with_capacity_schedule(schedule)
            .with_utilization_ticks(1800.0)
            .with_migrate_back(true)
            .run(&workload);
        assert_eq!(result, again);
    }

    #[test]
    fn autoscaling_runs_deterministically_and_disabled_is_bit_identical() {
        let workload = small_workload(120, 43);
        let servers =
            crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0))
                + 2;
        let schedule = deflate_transient::signal::CapacitySchedule::generate(&TransientConfig {
            num_servers: servers,
            transient_fraction: 1.0,
            duration_secs: 12.0 * 3600.0,
            profile: CapacityProfile::spot_market_default(),
            seed: 11,
        });
        let app = deflate_autoscale::ElasticApp {
            app: 0,
            replica_size: ResourceVector::cpu_mem(4000.0, 8192.0),
            replica_priority: deflate_core::vm::Priority::new(0.5),
            replica_rate_rps: 100.0,
            replica_ids_from: 1_000_000,
            min_replicas: 2,
            max_replicas: 12,
            demand: deflate_autoscale::DemandCurve::Diurnal {
                base_rps: 150.0,
                peak_rps: 600.0,
                period_secs: 4.0 * 3600.0,
                peak_at_secs: 0.0,
            },
            start_secs: 0.0,
        };
        let run = |policy: deflate_core::policy::AutoscalePolicy| {
            ClusterSimulation::new(config(servers), proportional())
                .with_capacity_schedule(schedule.clone())
                .with_utilization_ticks(600.0)
                .with_migrate_back(true)
                .with_autoscale(policy, vec![app.clone()])
                .run(&workload)
        };
        // Disabled autoscaling is bit-identical to never configuring it.
        let plain = ClusterSimulation::new(config(servers), proportional())
            .with_capacity_schedule(schedule.clone())
            .with_utilization_ticks(600.0)
            .with_migrate_back(true)
            .run(&workload);
        let disabled = run(deflate_core::policy::AutoscalePolicy::Disabled);
        assert_eq!(plain, disabled);
        assert_eq!(disabled.autoscale, Default::default());
        // Enabled policies actually scale, deterministically.
        for policy in [
            deflate_core::policy::AutoscalePolicy::target_tracking(),
            deflate_core::policy::AutoscalePolicy::deflation_aware(),
        ] {
            let result = run(policy);
            assert!(result.autoscale.launches > 0, "{}", policy.name());
            assert!(result.autoscale.ticks > 0);
            assert!(result.autoscale.scale_actions() > 0);
            assert!(result.autoscale.replicas_conserved());
            // Every surviving replica is still accounted for by the
            // cluster: conservation holds at the manager level too.
            assert_eq!(result, run(policy), "{} not deterministic", policy.name());
        }
        // The deflation-aware run parks and reinflates.
        let da = run(deflate_core::policy::AutoscalePolicy::deflation_aware());
        assert!(da.autoscale.parks > 0);
        assert!(da.autoscale.reinflations > 0);
    }

    #[test]
    fn preemption_baseline_keeps_the_replica_ledger_consistent() {
        // A deliberately tight preemption-mode cluster: arrivals preempt
        // residents — including elastic replicas — and every such loss
        // must reach the autoscaler's books.
        let workload = small_workload(150, 47);
        let servers =
            (crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0))
                as f64
                / 1.6)
                .floor()
                .max(2.0) as usize;
        let app = deflate_autoscale::ElasticApp {
            app: 0,
            replica_size: ResourceVector::cpu_mem(4000.0, 8192.0),
            replica_priority: deflate_core::vm::Priority::new(0.2),
            replica_rate_rps: 100.0,
            replica_ids_from: 1_000_000,
            min_replicas: 2,
            max_replicas: 10,
            demand: deflate_autoscale::DemandCurve::Constant { rps: 500.0 },
            start_secs: 0.0,
        };
        let result = ClusterSimulation::new(config(servers), ReclamationMode::Preemption)
            .with_utilization_ticks(600.0)
            .with_autoscale(
                deflate_core::policy::AutoscalePolicy::target_tracking(),
                vec![app],
            )
            .run(&workload);
        let stats = &result.autoscale;
        assert!(stats.launches > 0);
        assert!(
            stats.replicas_lost > 0,
            "the tight cluster should preempt replicas: {stats:?}"
        );
        assert!(stats.replicas_conserved(), "{stats:?}");
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_to_uninterrupted_run() {
        let workload = small_workload(140, 53);
        let servers =
            (crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0))
                as f64
                / 1.3)
                .floor()
                .max(2.0) as usize;
        let schedule = deflate_transient::signal::CapacitySchedule::generate(&TransientConfig {
            num_servers: servers,
            transient_fraction: 1.0,
            duration_secs: 12.0 * 3600.0,
            profile: CapacityProfile::SquareWave {
                period_secs: 2.0 * 3600.0,
                keep_fraction: 0.5,
                duty: 0.4,
            },
            seed: 19,
        });
        let cost = deflate_hypervisor::migration::MigrationCostModel::lan_default()
            .with_budget_mbps(1250.0)
            .with_deadline_secs(30.0)
            .with_dirty_rate(800.0, 2.0);
        let sim = ClusterSimulation::new(config(servers), proportional())
            .with_capacity_schedule(schedule)
            .with_utilization_ticks(1800.0)
            .with_migrate_back(true)
            .with_migration_cost(cost);
        let full = sim.run(&workload);
        for at_secs in [0.0, 3.0 * 3600.0, 7.5 * 3600.0, 13.0 * 3600.0] {
            let snapshot = sim.checkpoint(&workload, at_secs);
            assert!(
                ClusterSimulation::snapshot_time(&snapshot).unwrap() == at_secs,
                "snapshot timestamp survives the round trip"
            );
            let resumed = sim.resume(&workload, &snapshot).unwrap();
            assert_eq!(full, resumed, "restore diverged at T={at_secs}");
            assert_eq!(
                full.runtime.events_processed, resumed.runtime.events_processed,
                "events_processed must be cumulative across the boundary"
            );
            // Snapshot bytes are a pure function of the simulated prefix:
            // taking the same checkpoint again (different wall clock) must
            // produce the identical bytes.
            assert_eq!(
                snapshot,
                sim.checkpoint(&workload, at_secs),
                "snapshot bytes must be wall-clock independent at T={at_secs}"
            );
        }
        // Leapfrog: advance an early snapshot instead of re-running the
        // prefix; the continuation must match a direct checkpoint.
        let early = sim.checkpoint(&workload, 2.0 * 3600.0);
        let advanced = sim.resume_until(&workload, &early, 9.0 * 3600.0).unwrap();
        assert_eq!(advanced, sim.checkpoint(&workload, 9.0 * 3600.0));
        let resumed = sim.resume(&workload, &advanced).unwrap();
        assert_eq!(full, resumed);
    }

    #[test]
    fn deflation_survives_reclamation_better_than_preemption() {
        let workload = small_workload(180, 37);
        let servers =
            crate::spec::min_cluster_size(&workload, ResourceVector::cpu_mem(48_000.0, 131_072.0));
        let schedule = deflate_transient::signal::CapacitySchedule::generate(&TransientConfig {
            num_servers: servers,
            transient_fraction: 1.0,
            duration_secs: 12.0 * 3600.0,
            profile: CapacityProfile::SquareWave {
                period_secs: 3.0 * 3600.0,
                keep_fraction: 0.4,
                duty: 0.3,
            },
            seed: 9,
        });
        let run = |mode: ReclamationMode| {
            ClusterSimulation::new(config(servers), mode)
                .with_capacity_schedule(schedule.clone())
                .run(&workload)
        };
        let deflation = run(proportional());
        let preemption = run(ReclamationMode::Preemption);
        assert!(
            deflation.failure_probability() < preemption.failure_probability(),
            "deflation {} should beat preemption {}",
            deflation.failure_probability(),
            preemption.failure_probability()
        );
        // Preemption killed VMs; deflation absorbed (most of) the shock.
        assert!(preemption.transient.reclamation_victims > 0);
        assert!(
            deflation.transient.absorbed_by_deflation > 0 || deflation.transient.migrations > 0
        );
    }
}
