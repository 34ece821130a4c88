//! Every call the benchmark makes into `ClusterManager` and
//! `ClusterSimulation` lives in this module, so a change to the engine's
//! API adapts the benchmark here and nowhere else. Wherever a signature
//! still takes an engine knob, the benchmark passes the sequential
//! default: one shard (`ShardConfig::sequential`) and sequential
//! placement ranking (`PlacementEngine::default`).

use crate::stats::{CallTimer, Layers};
use deflate_cluster::manager::{
    CapacityChangeOutcome, ClusterConfig, ClusterManager, PlacementKind, PlacementResult,
    ReclamationMode,
};
use deflate_cluster::metrics::{MigrationEvent, RunStats, SimResult, VmOutcome, VmRecord};
use deflate_cluster::sim::ClusterSimulation;
use deflate_cluster::spec::{
    overcommitment_of, paper_server_capacity, servers_for_overcommitment,
    servers_for_transient_overcommitment, workload_from_azure, MinAllocationRule, WorkloadVm,
};
use deflate_core::checkpoint::CheckpointResult;
use deflate_core::placement::{PartitionScheme, PlacementEngine};
use deflate_core::policy::{ProportionalDeflation, TransferPolicy};
use deflate_core::shard::ShardConfig;
use deflate_core::vm::{ServerId, VmId};
use deflate_hypervisor::domain::DeflationMechanism;
use deflate_hypervisor::migration::MigrationCostModel;
use deflate_telemetry::{vec_bytes, MemoryLedger, TelemetryReport, TelemetrySink, TelemetrySpec};
use deflate_traces::azure::{AzureTraceConfig, AzureTraceGenerator};
use deflate_transient::events::{EventQueue, SimEvent};
use deflate_transient::signal::{CapacityProfile, CapacitySchedule, TransientConfig};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Trace length of the spot-market scenario (the `fig_scale` horizon).
const SPOT_TRACE_HOURS: f64 = 4.0;
/// Trace length of the overcommitment scenario (Fig 20's full-mode horizon).
const OVERCOMMIT_TRACE_HOURS: f64 = 24.0;
/// Fig 20's highest evaluated overcommitment that still admits nearly
/// every VM under proportional deflation.
const OVERCOMMITMENT: f64 = 0.5;
/// Utilisation-tick cadence of the spot-market scenario.
const UTILIZATION_TICK_SECS: f64 = 900.0;
/// Reclamation change-points within this window of a burst's first one
/// share one what-if decision (as in `fig_whatif`).
const WHATIF_COALESCE_SECS: f64 = 1800.0;
/// Simulated time each what-if fork runs past its decision point. Shorter
/// than the coalescing window, so a fork never reaches the next decision.
const WHATIF_WINDOW_SECS: f64 = 120.0;
/// Decisions per what-if pass.
const WHATIF_MAX_DECISIONS: usize = 5;
/// Memory-ledger samples per traced replay.
const MEMORY_SAMPLES: usize = 64;

/// Which cluster scenario a workload replays.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Transient servers: spot-market reclamation on every server, first-fit
    /// placement, costed migration with migrate-back, 15-minute ticks.
    Spot,
    /// On-demand cluster at 50% overcommitment, cosine-fitness placement,
    /// no capacity schedule.
    Overcommit,
}

/// Host seconds of each set-up step.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    /// `AzureTraceGenerator::generate`.
    pub generate_s: f64,
    /// `workload_from_azure`.
    pub workload_s: f64,
    /// `CapacitySchedule::generate` (0 without a schedule).
    pub schedule_s: f64,
    /// Cluster sizing and `ClusterSimulation` construction.
    pub simulation_s: f64,
}

/// Everything a workload replays: the generated inputs and the engine
/// configured over them.
pub struct Inputs {
    scenario: Scenario,
    workload: Vec<WorkloadVm>,
    config: ClusterConfig,
    schedule: CapacitySchedule,
    simulation: ClusterSimulation,
}

/// Generate the inputs of `scenario` with `vms` VMs from `seed`, timing
/// each step.
pub fn setup(scenario: Scenario, vms: usize, seed: u64) -> (Inputs, SetupTimes) {
    let mut times = SetupTimes::default();
    let hours = match scenario {
        Scenario::Spot => SPOT_TRACE_HOURS,
        Scenario::Overcommit => OVERCOMMIT_TRACE_HOURS,
    };
    let started = Instant::now();
    let traces = AzureTraceGenerator::generate(&AzureTraceConfig {
        num_vms: vms,
        duration_hours: hours,
        seed,
        ..Default::default()
    });
    times.generate_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let workload = workload_from_azure(&traces, MinAllocationRule::None);
    times.workload_s = started.elapsed().as_secs_f64();
    drop(traces);

    let capacity = paper_server_capacity();
    let profile = CapacityProfile::spot_market_default();
    let started = Instant::now();
    let (servers, placement) = match scenario {
        Scenario::Spot => (
            servers_for_transient_overcommitment(
                &workload,
                capacity,
                0.0,
                profile.mean_availability(),
            ),
            PlacementKind::FirstFit,
        ),
        Scenario::Overcommit => (
            servers_for_overcommitment(&workload, capacity, OVERCOMMITMENT),
            PlacementKind::CosineFitness,
        ),
    };
    times.simulation_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let schedule = match scenario {
        Scenario::Spot => CapacitySchedule::generate(&TransientConfig {
            num_servers: servers,
            transient_fraction: 1.0,
            duration_secs: hours * 3600.0,
            profile,
            seed,
        }),
        Scenario::Overcommit => CapacitySchedule::empty(),
    };
    times.schedule_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let config = ClusterConfig {
        num_servers: servers,
        server_capacity: capacity,
        placement,
        partitions: PartitionScheme::None,
        mechanism: DeflationMechanism::Transparent,
    };
    let simulation = engine(
        scenario,
        &config,
        &schedule,
        TransferPolicy::fifo(),
        TelemetrySink::disabled(),
    );
    times.simulation_s += started.elapsed().as_secs_f64();
    let inputs = Inputs {
        scenario,
        workload,
        config,
        schedule,
        simulation,
    };
    (inputs, times)
}

fn mode() -> ReclamationMode {
    ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default()))
}

/// The migration cost model: the `fig_scale` LAN model (one 1250 MB/s
/// link per server, 30 s reclamation deadline) on transient servers,
/// free instantaneous moves otherwise (none happen without reclamation).
fn migration_cost(scenario: Scenario) -> MigrationCostModel {
    match scenario {
        Scenario::Spot => MigrationCostModel::lan_default()
            .with_budget_mbps(1250.0)
            .with_deadline_secs(30.0),
        Scenario::Overcommit => MigrationCostModel::instant(),
    }
}

fn utilization_tick_secs(scenario: Scenario) -> Option<f64> {
    (scenario == Scenario::Spot).then_some(UTILIZATION_TICK_SECS)
}

fn migrate_back(scenario: Scenario) -> bool {
    scenario == Scenario::Spot
}

/// The sequential engine for `scenario` under `policy`.
fn engine(
    scenario: Scenario,
    config: &ClusterConfig,
    schedule: &CapacitySchedule,
    policy: TransferPolicy,
    telemetry: TelemetrySink,
) -> ClusterSimulation {
    let mut simulation = ClusterSimulation::new(config.clone(), mode())
        .with_capacity_schedule(schedule.clone())
        .with_migrate_back(migrate_back(scenario))
        .with_migration_cost(migration_cost(scenario))
        .with_transfer_policy(policy)
        .with_shards(ShardConfig::sequential())
        .with_placement_engine(PlacementEngine::default())
        .with_telemetry(telemetry);
    if let Some(secs) = utilization_tick_secs(scenario) {
        simulation = simulation.with_utilization_ticks(secs);
    }
    simulation
}

/// Figures of one sinks-on run.
pub struct TelemetryFigures {
    /// `TelemetrySink::accounted_bytes` after the run.
    pub accounted_bytes: u64,
    /// Host seconds of `TelemetrySink::finish`.
    pub finish_s: f64,
    /// What `finish` reported.
    pub report: TelemetryReport,
}

/// The first reclamation time of each burst: reclamations within
/// [`WHATIF_COALESCE_SECS`] of a burst's first one join that burst.
fn decision_times(schedule: &CapacitySchedule) -> Vec<f64> {
    let mut times: Vec<f64> = schedule
        .changes()
        .iter()
        .filter(|c| c.is_reclaim && c.time_secs > 0.0)
        .map(|c| c.time_secs)
        .collect();
    times.sort_by(f64::total_cmp);
    times.dedup();
    let mut bursts: Vec<f64> = Vec::new();
    for t in times {
        if bursts
            .last()
            .is_none_or(|&start| t - start > WHATIF_COALESCE_SECS)
        {
            bursts.push(t);
        }
    }
    bursts.truncate(WHATIF_MAX_DECISIONS);
    bursts
}

/// The largest `f64` below `t`: the checkpoint horizon is inclusive, so
/// this is the boundary just before a reclamation at `t`.
fn just_before(t: f64) -> f64 {
    f64::from_bits(t.to_bits() - 1)
}

/// Checkpoint-layer timings of one what-if pass.
#[derive(Default)]
pub struct WhatifTrace {
    /// Seconds in the candidate forks.
    pub branch_s: f64,
    /// Seconds advancing the committed trajectory between decisions,
    /// including the first checkpoint and the final resume.
    pub leapfrog_s: f64,
    /// Seconds restoring and re-serializing each committed snapshot at its
    /// own time (no engine work in between). Not part of the pass itself.
    pub restore_serialize_s: f64,
    /// Snapshots the pass wrote.
    pub snapshots: u64,
    /// Total snapshot bytes.
    pub snapshot_bytes: u64,
    /// Committed snapshots whose restore-and-serialize round trip changed
    /// a byte.
    pub roundtrip_mismatches: u64,
}

fn timed<T>(total: &mut f64, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *total += started.elapsed().as_secs_f64();
    out
}

impl Inputs {
    /// VMs in the workload.
    pub fn vms(&self) -> usize {
        self.workload.len()
    }

    /// Servers in the cluster.
    pub fn servers(&self) -> usize {
        self.config.num_servers
    }

    /// Change-points in the capacity schedule.
    pub fn capacity_changes(&self) -> usize {
        self.schedule.len()
    }

    /// Replay the workload through the engine built at set-up.
    pub fn run(&self) -> SimResult {
        self.simulation.run(&self.workload)
    }

    /// Replay with every telemetry sink on (profiler, metrics, JSONL event
    /// log and Chrome trace, the files under `dir`), then finish the sink.
    pub fn run_with_sinks(&self, dir: &Path) -> std::io::Result<(SimResult, TelemetryFigures)> {
        let spec = TelemetrySpec::profiling()
            .with_event_log(dir.join("events.jsonl"))
            .with_chrome_trace(dir.join("trace.json"));
        let sink = TelemetrySink::from_spec(&spec)?;
        let simulation = engine(
            self.scenario,
            &self.config,
            &self.schedule,
            TransferPolicy::fifo(),
            sink.clone(),
        );
        let result = simulation.run(&self.workload);
        drop(simulation);
        let accounted_bytes = sink.accounted_bytes();
        let started = Instant::now();
        let report = sink.finish()?;
        let finish_s = started.elapsed().as_secs_f64();
        let figures = TelemetryFigures {
            accounted_bytes,
            finish_s,
            report,
        };
        Ok((result, figures))
    }

    /// Checkpoint at the middle of the trace and resume to the end.
    pub fn checkpoint_and_resume(&self) -> CheckpointResult<SimResult> {
        let horizon = self
            .workload
            .iter()
            .map(|vm| vm.departure_secs)
            .fold(0.0, f64::max);
        let snapshot = self.simulation.checkpoint(&self.workload, horizon / 2.0);
        self.simulation.resume(&self.workload, &snapshot)
    }

    /// The `fig_whatif` loop with short forks: at each reclamation burst,
    /// fork the committed snapshot under every candidate transfer policy
    /// for [`WHATIF_WINDOW_SECS`], then carry the committed trajectory on
    /// from its own fork. Window forks are too short to score a policy's
    /// whole-horizon outcome, so the incumbent FIFO policy stays
    /// committed throughout and the committed trajectory must equal the
    /// static FIFO run. With `trace`, also round-trips every committed
    /// snapshot through `resume_until` at its own time.
    pub fn whatif(&self, trace: Option<&mut WhatifTrace>) -> CheckpointResult<SimResult> {
        let workload = &self.workload;
        let candidates = [
            TransferPolicy::fifo(),
            TransferPolicy::smallest_first(),
            TransferPolicy::edf(),
            TransferPolicy::edf().with_deflate_then_migrate(true),
        ];
        let forks: Vec<ClusterSimulation> = candidates
            .iter()
            .map(|&policy| {
                engine(
                    self.scenario,
                    &self.config,
                    &self.schedule,
                    policy,
                    TelemetrySink::disabled(),
                )
            })
            .collect();
        let committed = &self.simulation;
        let traced = trace.is_some();
        let mut local = WhatifTrace::default();
        let log = trace.unwrap_or(&mut local);
        let mut carried: Option<Vec<u8>> = None;
        for time in decision_times(&self.schedule) {
            let boundary = just_before(time);
            let snapshot = timed(&mut log.leapfrog_s, || match carried.take() {
                None => Ok(committed.checkpoint(workload, boundary)),
                Some(prev) => committed.resume_until(workload, &prev, boundary),
            })?;
            log.snapshots += 1;
            log.snapshot_bytes += snapshot.len() as u64;
            if traced {
                let at = ClusterSimulation::snapshot_time(&snapshot)?;
                let again = timed(&mut log.restore_serialize_s, || {
                    committed.resume_until(workload, &snapshot, at)
                })?;
                log.roundtrip_mismatches += u64::from(again != snapshot);
            }
            for (k, fork) in forks.iter().enumerate() {
                let window = timed(&mut log.branch_s, || {
                    fork.resume_until(workload, &snapshot, boundary + WHATIF_WINDOW_SECS)
                })?;
                log.snapshots += 1;
                log.snapshot_bytes += window.len() as u64;
                if k == 0 {
                    carried = Some(window);
                }
            }
        }
        timed(&mut log.leapfrog_s, || match carried {
            Some(snapshot) => committed.resume(workload, &snapshot),
            None => Ok(committed.run(workload)),
        })
    }

    /// Replay the workload by calling `ClusterManager` directly, exactly as
    /// `ClusterSimulation::run` does on the sequential engine, timing every
    /// call. Per-layer figures go into `layers`; the result must equal the
    /// engine's.
    pub fn replay(&self, layers: &mut Layers) -> SimResult {
        Replay::new(self).run(layers)
    }
}

/// Timers for each `ClusterManager` call the engine makes.
#[derive(Default)]
struct ManagerCalls {
    place_vm: CallTimer,
    remove_vm: CallTimer,
    reclaim_capacity: CallTimer,
    restore_capacity: CallTimer,
    complete_migration: CallTimer,
    observe_vm_utilizations: CallTimer,
    cpu_usage_snapshot: CallTimer,
    allocation_fractions_on: CallTimer,
}

/// The manager-level replay's working state, mirroring the engine's.
struct Replay<'a> {
    inputs: &'a Inputs,
    manager: ClusterManager,
    index_of: HashMap<VmId, usize>,
    records: Vec<VmRecord>,
    running: Vec<bool>,
    migrations: Vec<MigrationEvent>,
    utilization: Vec<(f64, f64)>,
    calls: ManagerCalls,
    arrivals: u64,
    deflated: u64,
    rejected: u64,
    started_migrations: u64,
    completed_migrations: u64,
    victims: u64,
}

impl<'a> Replay<'a> {
    fn new(inputs: &'a Inputs) -> Self {
        let manager = ClusterManager::new(&inputs.config, mode())
            .with_migration_cost(migration_cost(inputs.scenario))
            .with_transfer_policy(TransferPolicy::fifo())
            .with_placement_engine(PlacementEngine::default());
        Replay {
            inputs,
            manager,
            index_of: HashMap::new(),
            records: Vec::new(),
            running: Vec::new(),
            migrations: Vec::new(),
            utilization: Vec::new(),
            calls: ManagerCalls::default(),
            arrivals: 0,
            deflated: 0,
            rejected: 0,
            started_migrations: 0,
            completed_migrations: 0,
            victims: 0,
        }
    }

    fn run(mut self, layers: &mut Layers) -> SimResult {
        let workload = &self.inputs.workload;
        let started = Instant::now();

        // The engine's `boot`: every event up front, then the per-VM state.
        let build = Instant::now();
        let mut events: Vec<(f64, SimEvent)> =
            Vec::with_capacity(workload.len() * 2 + self.inputs.schedule.len());
        let mut horizon: f64 = 0.0;
        for (i, vm) in workload.iter().enumerate() {
            events.push((vm.arrival_secs, SimEvent::Arrival(i)));
            events.push((vm.departure_secs, SimEvent::Departure(i)));
            horizon = horizon.max(vm.departure_secs);
        }
        for change in self.inputs.schedule.changes() {
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
        if let Some(interval) = utilization_tick_secs(self.inputs.scenario) {
            let mut t = 0.0;
            while t <= horizon {
                events.push((t, SimEvent::UtilizationTick));
                t += interval;
            }
        }
        let sample_every = (events.len() / MEMORY_SAMPLES).max(1) as u64;
        let mut queue = EventQueue::from_events(events);
        layers.insert(
            "transient.queue_build_s".into(),
            build.elapsed().as_secs_f64(),
        );
        self.index_of = workload
            .iter()
            .enumerate()
            .map(|(i, vm)| (vm.spec.id, i))
            .collect();
        self.records = workload
            .iter()
            .map(|vm| VmRecord {
                spec: vm.spec.clone(),
                arrival_secs: vm.arrival_secs,
                departure_secs: vm.departure_secs,
                outcome: VmOutcome::Rejected,
                allocation_history: Vec::new(),
                cpu_util: vm.cpu_util.clone(),
            })
            .collect();
        self.running = vec![false; workload.len()];

        let workload_bytes = vec_bytes(workload)
            + workload
                .iter()
                .map(WorkloadVm::accounted_bytes)
                .sum::<u64>();
        let mut peak_memory = MemoryLedger::new();
        let mut sampling = Duration::ZERO;
        let mut pop_s = 0.0;
        let mut events_processed: u64 = 0;
        while let Some((time, event)) = timed(&mut pop_s, || queue.pop()) {
            events_processed += 1;
            self.dispatch(time, event, &mut queue);
            if events_processed.is_multiple_of(sample_every) {
                let sampled = Instant::now();
                let mut ledger = MemoryLedger::new();
                self.manager.record_memory(&mut ledger);
                ledger.record("workload", workload_bytes);
                if ledger.total_bytes() > peak_memory.total_bytes() {
                    peak_memory = ledger;
                }
                sampling += sampled.elapsed();
            }
        }
        let run_s = (started.elapsed() - sampling).as_secs_f64();

        layers.insert("trace.run_s".into(), run_s);
        layers.insert("transient.queue_pop.busy_s".into(), pop_s);
        layers.insert("sim.events".into(), events_processed as f64);
        let calls = std::mem::take(&mut self.calls);
        for (name, timer) in [
            ("place_vm", calls.place_vm),
            ("remove_vm", calls.remove_vm),
            ("reclaim_capacity", calls.reclaim_capacity),
            ("restore_capacity", calls.restore_capacity),
            ("complete_migration", calls.complete_migration),
            ("observe_vm_utilizations", calls.observe_vm_utilizations),
            ("cpu_usage_snapshot", calls.cpu_usage_snapshot),
            ("allocation_fractions_on", calls.allocation_fractions_on),
        ] {
            timer.report(&format!("manager.{name}"), layers);
        }
        let ratio = |n: u64, base: u64| {
            if base == 0 {
                0.0
            } else {
                n as f64 / base as f64
            }
        };
        layers.insert(
            "manager.place_vm.deflated_frac".into(),
            ratio(self.deflated, self.arrivals),
        );
        layers.insert(
            "manager.place_vm.rejected_frac".into(),
            ratio(self.rejected, self.arrivals),
        );
        layers.insert(
            "manager.migrations.completed_frac".into(),
            ratio(self.completed_migrations, self.started_migrations),
        );
        layers.insert("manager.reclaim.victims".into(), self.victims as f64);
        for name in crate::MEMORY_SUBSYSTEMS {
            layers.insert(
                format!("mem.{name}_mib"),
                peak_memory.get(name) as f64 / (1024.0 * 1024.0),
            );
        }
        layers.insert(
            "mem.accounted_mib".into(),
            peak_memory.total_bytes() as f64 / (1024.0 * 1024.0),
        );

        let capacity = self.inputs.config.server_capacity;
        let num_servers = self.inputs.config.num_servers;
        SimResult {
            counters: self.manager.counters(),
            transient: self.manager.transient_counters(),
            scheduler: self.manager.scheduler_stats(),
            autoscale: Default::default(),
            records: self.records,
            migrations: self.migrations,
            utilization: self.utilization,
            num_servers,
            overcommitment: overcommitment_of(workload, capacity, num_servers),
            policy_name: mode().name().to_string(),
            runtime: RunStats {
                wall_clock_secs: run_s,
                events_processed,
                shards: 1,
            },
        }
    }

    fn dispatch(&mut self, time: f64, event: SimEvent, queue: &mut EventQueue) {
        let workload = &self.inputs.workload;
        match event {
            SimEvent::Arrival(i) => {
                self.arrivals += 1;
                let spec = workload[i].spec.clone();
                let manager = &mut self.manager;
                let result = self.calls.place_vm.time(|| manager.place_vm(spec));
                let server = match result {
                    PlacementResult::Rejected => {
                        self.rejected += 1;
                        self.records[i].outcome = VmOutcome::Rejected;
                        None
                    }
                    PlacementResult::PlacedWithPreemption { server, preempted } => {
                        self.records[i].outcome = VmOutcome::Completed;
                        self.running[i] = true;
                        for victim in preempted {
                            if let Some(&vi) = self.index_of.get(&victim) {
                                self.records[vi].outcome = VmOutcome::Preempted { at_secs: time };
                                self.running[vi] = false;
                            }
                        }
                        Some(server)
                    }
                    PlacementResult::PlacedWithDeflation { server, .. } => {
                        self.deflated += 1;
                        self.records[i].outcome = VmOutcome::Completed;
                        self.running[i] = true;
                        Some(server)
                    }
                    PlacementResult::Placed { server } => {
                        self.records[i].outcome = VmOutcome::Completed;
                        self.running[i] = true;
                        Some(server)
                    }
                };
                if let Some(server) = server {
                    self.record_allocations(server, time);
                }
            }
            SimEvent::Departure(i) => {
                if self.running[i] {
                    let vm = workload[i].spec.id;
                    let server = self.manager.locate(vm);
                    let dest = self.manager.in_flight_destination(vm);
                    let manager = &mut self.manager;
                    let _ = self.calls.remove_vm.time(|| manager.remove_vm(vm));
                    self.running[i] = false;
                    for server in [server, dest].into_iter().flatten() {
                        self.record_allocations(server, time);
                    }
                }
            }
            SimEvent::CapacityReclaim {
                server,
                available_fraction,
            } => {
                self.observe_utilizations(time);
                let manager = &mut self.manager;
                let outcome = self
                    .calls
                    .reclaim_capacity
                    .time(|| manager.reclaim_capacity(server, available_fraction, time));
                self.victims += outcome.victims.len() as u64;
                self.apply(&outcome, time, queue);
            }
            SimEvent::CapacityRestore {
                server,
                available_fraction,
            } => {
                self.observe_utilizations(time);
                let manager = &mut self.manager;
                let back = migrate_back(self.inputs.scenario);
                let outcome = self
                    .calls
                    .restore_capacity
                    .time(|| manager.restore_capacity(server, available_fraction, back, time));
                self.apply(&outcome, time, queue);
            }
            SimEvent::MigrationComplete { migration } => {
                let manager = &mut self.manager;
                let outcome = self
                    .calls
                    .complete_migration
                    .time(|| manager.complete_migration(migration, time));
                self.completed_migrations += outcome.migrated.len() as u64;
                self.apply(&outcome, time, queue);
            }
            SimEvent::UtilizationTick => {
                let manager = &self.manager;
                let (used, capacity) = self
                    .calls
                    .cpu_usage_snapshot
                    .time(|| manager.cpu_usage_snapshot(ShardConfig::sequential()));
                let value = if capacity <= 0.0 {
                    0.0
                } else {
                    used / capacity
                };
                self.utilization.push((time, value));
            }
            // No elastic applications: the engine ignores scale events.
            SimEvent::ScaleOut { .. } | SimEvent::ScaleIn { .. } => {}
        }
    }

    /// The engine's utilisation sampling ahead of a capacity event, which it
    /// skips unless a dirty-rate model is active.
    fn observe_utilizations(&mut self, time: f64) {
        if self.manager.migration_cost().dirty_rate_mbps <= 0.0 {
            return;
        }
        let samples: Vec<(VmId, f64)> = self
            .inputs
            .workload
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.running[i])
            .map(|(_, vm)| (vm.spec.id, vm.cpu_util.at(time - vm.arrival_secs)))
            .collect();
        let manager = &mut self.manager;
        self.calls
            .observe_vm_utilizations
            .time(|| manager.observe_vm_utilizations(&samples, ShardConfig::sequential()));
    }

    fn apply(&mut self, outcome: &CapacityChangeOutcome, time: f64, queue: &mut EventQueue) {
        for victim in &outcome.victims {
            if let Some(&vi) = self.index_of.get(victim) {
                self.records[vi].outcome = VmOutcome::Evicted { at_secs: time };
                self.running[vi] = false;
            }
        }
        for migration in &outcome.migrated {
            self.migrations.push(MigrationEvent {
                time_secs: time,
                vm: migration.vm,
                from: migration.from,
                to: migration.to,
                duration_secs: migration.duration_secs,
                volume_mb: migration.volume_mb,
                back: migration.back,
            });
        }
        self.started_migrations += outcome.started.len() as u64;
        for started in &outcome.started {
            queue.push(
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

    /// Append an allocation change-point for every running VM on `server`
    /// whose CPU fraction moved.
    fn record_allocations(&mut self, server: ServerId, time: f64) {
        let manager = &self.manager;
        let fractions = self
            .calls
            .allocation_fractions_on
            .time(|| manager.allocation_fractions_on(server));
        for (vm, fraction) in fractions {
            let Some(&i) = self.index_of.get(&vm) else {
                continue;
            };
            if !self.running[i] {
                continue;
            }
            let history = &mut self.records[i].allocation_history;
            match history.last() {
                Some(&(_, last)) if (last - fraction).abs() < 1e-9 => {}
                _ => history.push((time, fraction)),
            }
        }
    }
}
