//! The deterministic per-application autoscaling control loop.
//!
//! The [`Autoscaler`] is driven entirely by the simulation's event engine:
//! it observes each application at `UtilizationTick` events, schedules
//! `ScaleOut` / `ScaleIn` events for decisions (after the policy's
//! actuation delay), and executes them when the engine delivers those
//! events — all in the engine's global event order, so autoscale-enabled
//! runs are deterministic and survive checkpoint/restore bit for bit.
//!
//! The autoscaler talks to the cluster through the [`ElasticCluster`]
//! trait rather than a concrete manager type: every replica it creates,
//! retires, parks or reinflates goes through the cluster's own accounting
//! (placement, deflation, migration, eviction), never around it —
//! `deflate-cluster` implements the trait for its `ClusterManager`.

use crate::app::ElasticApp;
use crate::stats::{AutoscaleStats, LATENCY_CAP_SECS};
use deflate_core::checkpoint::{CheckpointResult, StateVisitor};
use deflate_core::policy::{AutoscaleParams, AutoscalePolicy};
use deflate_core::vm::{ServerId, VmId, VmSpec};
use deflate_transient::events::SimEvent;

/// The cluster operations an autoscaler needs. Implemented by
/// `deflate-cluster`'s `ClusterManager`; the mock in this crate's tests
/// exercises the control loop without a full cluster.
pub trait ElasticCluster {
    /// Place and start a new replica VM; `None` when no server can make
    /// room. Returns the hosting server for allocation-history recording.
    fn launch_replica(&mut self, spec: VmSpec) -> Option<ServerId>;
    /// Terminate a replica and reinflate its server's residents. `None`
    /// when the VM is not running.
    fn retire_replica(&mut self, vm: VmId) -> Option<ServerId>;
    /// Deflate a replica to `fraction` of its full allocation and mark it
    /// parked (excluded from reinflation) — the deflation-aware scale-in.
    /// `None` when the VM is unknown or mid-migration.
    fn park_replica(&mut self, vm: VmId, fraction: f64) -> Option<ServerId>;
    /// Unpark a replica and reinflate it into whatever room its server
    /// has — the deflation-aware scale-out. `None` when the VM is unknown.
    fn unpark_replica(&mut self, vm: VmId) -> Option<ServerId>;
    /// The replica's current CPU allocation fraction (1.0 = undeflated),
    /// `None` when it is not running.
    fn replica_allocation_fraction(&self, vm: VmId) -> Option<f64>;
}

/// One replica VM managed by the autoscaler.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Member {
    vm: VmId,
    /// Parked by a deflation-aware scale-in: deflated, not serving, but
    /// instantly reinflatable.
    parked: bool,
    /// Time from which the replica serves traffic (launch time + boot
    /// delay for fresh launches; the unpark time for reinflated
    /// replicas — reinflation is instantaneous).
    serving_from: f64,
}

/// Per-application control-loop state.
#[derive(Debug, Clone, Default)]
struct AppState {
    spec: ElasticApp,
    /// Managed replicas, ascending VM id (ids are handed out
    /// monotonically, and scale-ins remove from the tail).
    members: Vec<Member>,
    /// Replica ids consumed so far (`replica_ids_from + launched` is the
    /// next fresh id).
    launched: u64,
    /// No new scaling decision before this time.
    cooldown_until: f64,
}

/// The deterministic target-tracking autoscaler. The default holds no
/// applications: a blank for decoding a snapshot without its
/// configuration.
#[derive(Debug, Clone, Default)]
pub struct Autoscaler {
    params: AutoscaleParams,
    deflation_aware: bool,
    apps: Vec<AppState>,
    stats: AutoscaleStats,
}

impl Autoscaler {
    /// Build an autoscaler for the given enabled policy and applications.
    ///
    /// # Panics
    ///
    /// Panics when the policy is [`AutoscalePolicy::Disabled`] — a
    /// disabled run must not construct an autoscaler at all (that is what
    /// keeps it bit-identical to the pre-autoscaling engine).
    pub fn new(policy: AutoscalePolicy, apps: Vec<ElasticApp>) -> Self {
        let params = policy
            .params()
            .expect("Autoscaler::new requires an enabled AutoscalePolicy");
        Autoscaler {
            params,
            deflation_aware: policy.is_deflation_aware(),
            apps: apps
                .into_iter()
                .map(|spec| AppState {
                    cooldown_until: spec.start_secs,
                    spec,
                    members: Vec::new(),
                    launched: 0,
                })
                .collect(),
            stats: AutoscaleStats::default(),
        }
    }

    /// The control loop's snapshot schema: its **dynamic** state —
    /// per-application member pools (vm id, parked flag, serving-from
    /// time, in pool order), the fresh-id counter, the cooldown clock, and
    /// the accumulated [`AutoscaleStats`]. The policy parameters and
    /// application specs are configuration — the restoring side rebuilds
    /// the autoscaler from the same [`AutoscalePolicy`] and
    /// [`ElasticApp`] list before visiting the snapshot.
    pub fn visit_state(&mut self, v: &mut impl StateVisitor) -> CheckpointResult<()> {
        v.seq("app", &mut self.apps, 24, |v, app| {
            v.seq("member", &mut app.members, 17, |v, m| {
                v.u64("vm", &mut m.vm.0)?;
                v.bool("parked", &mut m.parked)?;
                v.f64("serving_from", &mut m.serving_from)
            })?;
            v.u64("launched", &mut app.launched)?;
            v.f64("cooldown_until", &mut app.cooldown_until)
        })?;
        v.scope("stats", |v| {
            let s = &mut self.stats;
            v.usize("scale_out_actions", &mut s.scale_out_actions)?;
            v.usize("scale_in_actions", &mut s.scale_in_actions)?;
            v.usize("launches", &mut s.launches)?;
            v.usize("launch_failures", &mut s.launch_failures)?;
            v.usize("reinflations", &mut s.reinflations)?;
            v.usize("parks", &mut s.parks)?;
            v.usize("retirements", &mut s.retirements)?;
            v.usize("replicas_lost", &mut s.replicas_lost)?;
            v.usize("ticks", &mut s.ticks)?;
            v.usize("overload_ticks", &mut s.overload_ticks)?;
            v.f64("setpoint_error_sum", &mut s.setpoint_error_sum)?;
            v.scope("latency", |v| s.latency.visit_state(v))?;
            v.usize("final_active", &mut s.final_active)?;
            v.usize("final_parked", &mut s.final_parked)
        })
    }

    /// Number of elastic applications under control.
    pub fn app_count(&self) -> usize {
        self.apps.len()
    }

    /// The bootstrap events: one `ScaleOut` per application at its start
    /// time, which launches the initial pool. The caller schedules these
    /// into the engine before the run begins.
    pub fn initial_events(&self) -> Vec<(f64, SimEvent)> {
        self.apps
            .iter()
            .map(|a| (a.spec.start_secs, SimEvent::ScaleOut { app: a.spec.app }))
            .collect()
    }

    /// Observe every application at a utilisation tick: sample utilisation
    /// and latency into the stats, and — outside the cooldown — schedule
    /// scale events for pools off their setpoint. Returns the events to
    /// schedule.
    pub fn on_tick(&mut self, now: f64, cluster: &impl ElasticCluster) -> Vec<(f64, SimEvent)> {
        let params = self.params;
        let mut events = Vec::new();
        for app in &mut self.apps {
            if now < app.spec.start_secs {
                continue;
            }
            let lambda = app.spec.demand.rate(now);
            let rate = app.spec.replica_rate_rps.max(1e-9);
            // Effective service capacity: serving replicas scaled by their
            // current allocation fraction (deflation slows them down).
            let mut capacity_rps = 0.0;
            let mut inverse_rate_sum = 0.0;
            let mut serving = 0usize;
            for m in app.members.iter().filter(|m| !m.parked) {
                if m.serving_from > now {
                    continue;
                }
                let frac = cluster.replica_allocation_fraction(m.vm).unwrap_or(0.0);
                let replica_rps = frac * rate;
                if replica_rps > 0.0 {
                    capacity_rps += replica_rps;
                    inverse_rate_sum += 1.0 / replica_rps;
                    serving += 1;
                }
            }
            let util = if capacity_rps <= 0.0 {
                f64::INFINITY
            } else {
                lambda / capacity_rps
            };
            self.stats.ticks += 1;
            self.stats.setpoint_error_sum += (util.min(2.0) - params.setpoint).abs();
            if util >= 1.0 {
                self.stats.overload_ticks += 1;
                self.stats.latency.record_dropped();
            } else {
                // Processor-sharing response time: every serving replica
                // runs at load `util`, so replica i answers in
                // `(1/μ_i) / (1 − util)`; the pool mean averages over the
                // replicas a balanced load balancer spreads requests to.
                let mean_service_secs = inverse_rate_sum / serving as f64;
                let latency = (mean_service_secs / (1.0 - util)).min(LATENCY_CAP_SECS);
                self.stats.latency.record_served(latency);
            }

            // Decision, gated by the cooldown.
            if now < app.cooldown_until {
                continue;
            }
            let active = app.members.iter().filter(|m| !m.parked).count();
            let desired = app.spec.desired_replicas(lambda, params.setpoint);
            let fire_at = now + params.actuation_delay_secs.max(0.0);
            if desired > active {
                events.push((fire_at, SimEvent::ScaleOut { app: app.spec.app }));
                self.stats.scale_out_actions += 1;
                app.cooldown_until = now + params.cooldown_secs.max(0.0);
            } else if desired < active && util < params.setpoint - params.deadband {
                events.push((fire_at, SimEvent::ScaleIn { app: app.spec.app }));
                self.stats.scale_in_actions += 1;
                app.cooldown_until = now + params.cooldown_secs.max(0.0);
            }
        }
        events
    }

    /// Execute a scale-out for one application: bring the active pool up
    /// towards the demand-derived desired count, preferring reinflation of
    /// parked replicas (deflation-aware policy) over fresh launches.
    /// Returns the servers whose residents' allocations may have changed.
    pub fn on_scale_out(
        &mut self,
        app: u32,
        now: f64,
        cluster: &mut impl ElasticCluster,
    ) -> Vec<ServerId> {
        let params = self.params;
        let deflation_aware = self.deflation_aware;
        let mut touched = Vec::new();
        let Some(state) = self.apps.iter_mut().find(|a| a.spec.app == app) else {
            return touched;
        };
        let lambda = state.spec.demand.rate(now);
        let desired = state.spec.desired_replicas(lambda, params.setpoint);
        let active = state.members.iter().filter(|m| !m.parked).count();
        let mut need = desired.saturating_sub(active).min(params.max_step.max(1));
        while need > 0 {
            // Reinflate before launching: a parked replica is already
            // booted and placed, so its capacity returns instantly.
            let parked_slot = deflation_aware
                .then(|| state.members.iter().position(|m| m.parked))
                .flatten();
            if let Some(i) = parked_slot {
                let vm = state.members[i].vm;
                if let Some(server) = cluster.unpark_replica(vm) {
                    state.members[i].parked = false;
                    state.members[i].serving_from = now;
                    self.stats.reinflations += 1;
                    touched.push(server);
                } else {
                    // The replica vanished under us (should not happen —
                    // evictions are reported); drop it defensively.
                    state.members.remove(i);
                    self.stats.replicas_lost += 1;
                }
            } else if state.members.len() < state.spec.max_replicas {
                let spec = state.spec.replica_spec(state.launched);
                let vm = spec.id;
                match cluster.launch_replica(spec) {
                    Some(server) => {
                        state.members.push(Member {
                            vm,
                            parked: false,
                            serving_from: now + params.boot_secs.max(0.0),
                        });
                        state.launched += 1;
                        self.stats.launches += 1;
                        touched.push(server);
                    }
                    None => {
                        // Cluster full (mid-reclamation): give up on this
                        // action; the next decision retries.
                        self.stats.launch_failures += 1;
                        break;
                    }
                }
            } else {
                break;
            }
            need -= 1;
        }
        touched
    }

    /// Execute a scale-in for one application: shrink the active pool
    /// towards the desired count, newest replicas first — terminating them
    /// (launch-only) or parking them deflated (deflation-aware). Returns
    /// the servers whose residents' allocations may have changed.
    pub fn on_scale_in(
        &mut self,
        app: u32,
        now: f64,
        cluster: &mut impl ElasticCluster,
    ) -> Vec<ServerId> {
        let params = self.params;
        let deflation_aware = self.deflation_aware;
        let mut touched = Vec::new();
        let Some(state) = self.apps.iter_mut().find(|a| a.spec.app == app) else {
            return touched;
        };
        let lambda = state.spec.demand.rate(now);
        let desired = state
            .spec
            .desired_replicas(lambda, params.setpoint)
            .max(state.spec.min_replicas.max(1));
        let active = state.members.iter().filter(|m| !m.parked).count();
        let mut excess = active.saturating_sub(desired).min(params.max_step.max(1));
        // Newest (highest-id) active replicas go first, keeping the pool's
        // long-lived core stable.
        let mut i = state.members.len();
        while excess > 0 && i > 0 {
            i -= 1;
            if state.members[i].parked {
                continue;
            }
            let vm = state.members[i].vm;
            if deflation_aware {
                if let Some(server) = cluster.park_replica(vm, params.park_fraction) {
                    state.members[i].parked = true;
                    self.stats.parks += 1;
                    touched.push(server);
                    excess -= 1;
                }
                // A park refusal (VM mid-migration) skips to the next
                // candidate; the replica keeps serving.
            } else if let Some(server) = cluster.retire_replica(vm) {
                state.members.remove(i);
                self.stats.retirements += 1;
                touched.push(server);
                excess -= 1;
            } else {
                // Unknown VM: stale member, drop it.
                state.members.remove(i);
                self.stats.replicas_lost += 1;
                excess -= 1;
            }
        }
        touched
    }

    /// Report a replica destroyed by the cluster (reclamation eviction or
    /// a migration abort). Returns `true` when the VM was one of ours —
    /// the caller uses this to tell elastic replicas from workload VMs.
    pub fn on_replica_evicted(&mut self, vm: VmId) -> bool {
        for app in &mut self.apps {
            if let Some(i) = app.members.iter().position(|m| m.vm == vm) {
                app.members.remove(i);
                self.stats.replicas_lost += 1;
                return true;
            }
        }
        false
    }

    /// Drop every member the cluster no longer runs (its allocation
    /// fraction is gone), counting each as lost. The simulator calls this
    /// after operations that can kill VMs without naming them to the
    /// autoscaler — a replica launch preempting other replicas under the
    /// preemption baseline. Returns the number of members dropped.
    pub fn reconcile_lost(&mut self, cluster: &impl ElasticCluster) -> usize {
        let mut dropped = 0;
        for app in &mut self.apps {
            app.members.retain(|m| {
                let alive = cluster.replica_allocation_fraction(m.vm).is_some();
                if !alive {
                    dropped += 1;
                }
                alive
            });
        }
        self.stats.replicas_lost += dropped;
        dropped
    }

    /// True when the VM is a replica currently managed by the autoscaler.
    pub fn is_member(&self, vm: VmId) -> bool {
        self.apps
            .iter()
            .any(|a| a.members.iter().any(|m| m.vm == vm))
    }

    /// Finish the run: fold the final pool composition into the stats and
    /// return them.
    pub fn into_stats(mut self) -> AutoscaleStats {
        for app in &self.apps {
            for m in &app.members {
                if m.parked {
                    self.stats.final_parked += 1;
                } else {
                    self.stats.final_active += 1;
                }
            }
        }
        self.stats
    }

    /// The stats accumulated so far (without the final pool composition).
    pub fn stats(&self) -> &AutoscaleStats {
        &self.stats
    }

    /// Current pool composition across all applications: `(active, parked)`
    /// member counts. The audit observatory's replica-ledger checker uses
    /// this to verify *mid-run* that
    /// `launches == retirements + replicas_lost + active + parked` — the
    /// conservation law [`AutoscaleStats::replicas_conserved`] only checks
    /// at the end of a run.
    pub fn live_replicas(&self) -> (usize, usize) {
        let mut active = 0;
        let mut parked = 0;
        for app in &self.apps {
            for m in &app.members {
                if m.parked {
                    parked += 1;
                } else {
                    active += 1;
                }
            }
        }
        (active, parked)
    }

    /// Owned heap bytes behind the control loop: the per-application member
    /// pools and the latency-sample buffer. Feeds the engine's
    /// `mem.autoscaler` gauge.
    pub fn accounted_bytes(&self) -> u64 {
        deflate_core::mem::vec_capacity_bytes(&self.apps)
            + self
                .apps
                .iter()
                .map(|a| deflate_core::mem::vec_capacity_bytes(&a.members))
                .sum::<u64>()
            + self.stats.latency.accounted_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::DemandCurve;
    use deflate_core::resources::ResourceVector;
    use deflate_core::vm::Priority;
    use std::collections::BTreeMap;

    /// A minimal in-memory cluster: every VM gets fraction 1.0, capacity
    /// for `room` replicas.
    struct MockCluster {
        room: usize,
        fractions: BTreeMap<VmId, f64>,
        parked: BTreeMap<VmId, bool>,
    }

    impl MockCluster {
        fn with_room(room: usize) -> Self {
            MockCluster {
                room,
                fractions: BTreeMap::new(),
                parked: BTreeMap::new(),
            }
        }
    }

    impl ElasticCluster for MockCluster {
        fn launch_replica(&mut self, spec: VmSpec) -> Option<ServerId> {
            if self.fractions.len() >= self.room {
                return None;
            }
            self.fractions.insert(spec.id, 1.0);
            self.parked.insert(spec.id, false);
            Some(ServerId(0))
        }
        fn retire_replica(&mut self, vm: VmId) -> Option<ServerId> {
            self.fractions.remove(&vm).map(|_| ServerId(0))
        }
        fn park_replica(&mut self, vm: VmId, fraction: f64) -> Option<ServerId> {
            let f = self.fractions.get_mut(&vm)?;
            *f = fraction;
            self.parked.insert(vm, true);
            Some(ServerId(0))
        }
        fn unpark_replica(&mut self, vm: VmId) -> Option<ServerId> {
            let f = self.fractions.get_mut(&vm)?;
            *f = 1.0;
            self.parked.insert(vm, false);
            Some(ServerId(0))
        }
        fn replica_allocation_fraction(&self, vm: VmId) -> Option<f64> {
            self.fractions.get(&vm).copied()
        }
    }

    fn app(demand: DemandCurve) -> ElasticApp {
        ElasticApp {
            app: 0,
            replica_size: ResourceVector::cpu_mem(4000.0, 8192.0),
            replica_priority: Priority::new(0.5),
            replica_rate_rps: 100.0,
            replica_ids_from: 1_000_000,
            min_replicas: 1,
            max_replicas: 16,
            demand,
            start_secs: 0.0,
        }
    }

    fn params() -> AutoscaleParams {
        AutoscaleParams {
            setpoint: 0.5,
            deadband: 0.1,
            cooldown_secs: 100.0,
            actuation_delay_secs: 10.0,
            boot_secs: 50.0,
            park_fraction: 0.1,
            max_step: 16,
        }
    }

    #[test]
    fn bootstrap_launches_the_demand_derived_pool() {
        let mut a = Autoscaler::new(
            AutoscalePolicy::TargetTracking(params()),
            vec![app(DemandCurve::Constant { rps: 400.0 })],
        );
        let initial = a.initial_events();
        assert_eq!(initial, vec![(0.0, SimEvent::ScaleOut { app: 0 })]);
        let mut cluster = MockCluster::with_room(100);
        let touched = a.on_scale_out(0, 0.0, &mut cluster);
        // 400 rps at 0.5×100 rps/replica → 8 replicas.
        assert_eq!(a.stats().launches, 8);
        assert_eq!(touched.len(), 8);
        assert_eq!(cluster.fractions.len(), 8);
        // Booting replicas serve nothing yet: the pool is overloaded at
        // t=0 but no new decision fires (desired == active).
        let events = a.on_tick(0.0, &cluster);
        assert!(events.is_empty());
        assert_eq!(a.stats().overload_ticks, 1);
        // Once booted, utilisation sits on the setpoint: no decision, a
        // served latency sample.
        let events = a.on_tick(60.0, &cluster);
        assert!(events.is_empty());
        assert_eq!(a.stats().latency.served(), 1);
        let stats = a.into_stats();
        assert_eq!(stats.final_active, 8);
        assert!(stats.replicas_conserved());
    }

    #[test]
    fn launch_only_terminates_and_relaunches_paying_boot_time() {
        let mut a = Autoscaler::new(
            AutoscalePolicy::TargetTracking(params()),
            vec![app(DemandCurve::Constant { rps: 400.0 })],
        );
        let mut cluster = MockCluster::with_room(100);
        a.on_scale_out(0, 0.0, &mut cluster);
        // Force a scale-in by lowering demand: desired 2 at 100 rps.
        let state = &mut a.apps[0];
        state.spec.demand = DemandCurve::Constant { rps: 100.0 };
        a.on_scale_in(0, 100.0, &mut cluster);
        assert_eq!(a.stats().retirements, 6);
        assert_eq!(cluster.fractions.len(), 2);
        // Demand returns: everything must be relaunched, with boot time.
        a.apps[0].spec.demand = DemandCurve::Constant { rps: 400.0 };
        a.on_scale_out(0, 200.0, &mut cluster);
        assert_eq!(a.stats().launches, 8 + 6);
        assert_eq!(a.stats().reinflations, 0);
        // The relaunched replicas are still booting at t=210.
        a.on_tick(210.0, &cluster);
        assert_eq!(a.stats().overload_ticks, 1);
        assert!(a.into_stats().replicas_conserved());
    }

    #[test]
    fn deflation_aware_parks_and_reinflates_instantly() {
        let mut a = Autoscaler::new(
            AutoscalePolicy::DeflationAware(params()),
            vec![app(DemandCurve::Constant { rps: 400.0 })],
        );
        let mut cluster = MockCluster::with_room(100);
        a.on_scale_out(0, 0.0, &mut cluster);
        a.apps[0].spec.demand = DemandCurve::Constant { rps: 100.0 };
        a.on_scale_in(0, 100.0, &mut cluster);
        assert_eq!(a.stats().parks, 6);
        assert_eq!(a.stats().retirements, 0);
        // Still 8 VMs in the cluster, 6 of them deflated to 10 %.
        assert_eq!(cluster.fractions.len(), 8);
        assert_eq!(cluster.fractions.values().filter(|&&f| f < 0.5).count(), 6);
        // Demand returns: reinflation, no launches, serving immediately.
        a.apps[0].spec.demand = DemandCurve::Constant { rps: 400.0 };
        a.on_scale_out(0, 200.0, &mut cluster);
        assert_eq!(a.stats().reinflations, 6);
        assert_eq!(a.stats().launches, 8);
        a.on_tick(200.0, &cluster);
        assert_eq!(a.stats().overload_ticks, 0, "reinflation is instant");
        let stats = a.into_stats();
        assert_eq!(stats.final_active, 8);
        assert_eq!(stats.final_parked, 0);
        assert!(stats.replicas_conserved());
    }

    #[test]
    fn cooldown_and_deadband_gate_decisions() {
        let mut a = Autoscaler::new(
            AutoscalePolicy::TargetTracking(params()),
            vec![app(DemandCurve::Constant { rps: 400.0 })],
        );
        let mut cluster = MockCluster::with_room(100);
        a.on_scale_out(0, 0.0, &mut cluster);
        // Raise demand: a decision fires and opens the cooldown window.
        a.apps[0].spec.demand = DemandCurve::Constant { rps: 600.0 };
        let events = a.on_tick(60.0, &cluster);
        assert_eq!(events, vec![(70.0, SimEvent::ScaleOut { app: 0 })]);
        // Within the cooldown nothing new fires.
        assert!(a.on_tick(80.0, &cluster).is_empty());
        // After the cooldown the still-unmet demand fires again.
        assert_eq!(a.on_tick(170.0, &cluster).len(), 1);
        assert_eq!(a.stats().scale_out_actions, 2);
    }

    #[test]
    fn full_cluster_counts_launch_failures() {
        let mut a = Autoscaler::new(
            AutoscalePolicy::TargetTracking(params()),
            vec![app(DemandCurve::Constant { rps: 400.0 })],
        );
        let mut cluster = MockCluster::with_room(3);
        a.on_scale_out(0, 0.0, &mut cluster);
        assert_eq!(a.stats().launches, 3);
        assert_eq!(a.stats().launch_failures, 1);
        assert!(a.into_stats().replicas_conserved());
    }

    #[test]
    fn evictions_remove_members_and_count_losses() {
        let mut a = Autoscaler::new(
            AutoscalePolicy::DeflationAware(params()),
            vec![app(DemandCurve::Constant { rps: 200.0 })],
        );
        let mut cluster = MockCluster::with_room(100);
        a.on_scale_out(0, 0.0, &mut cluster);
        let victim = VmId(1_000_000);
        assert!(a.is_member(victim));
        assert!(a.on_replica_evicted(victim));
        assert!(!a.is_member(victim));
        assert!(!a.on_replica_evicted(VmId(42)), "not ours");
        let stats = a.into_stats();
        assert_eq!(stats.replicas_lost, 1);
        assert!(stats.replicas_conserved());
    }

    #[test]
    fn reconcile_drops_members_the_cluster_no_longer_runs() {
        let mut a = Autoscaler::new(
            AutoscalePolicy::TargetTracking(params()),
            vec![app(DemandCurve::Constant { rps: 200.0 })],
        );
        let mut cluster = MockCluster::with_room(100);
        a.on_scale_out(0, 0.0, &mut cluster);
        assert_eq!(a.stats().launches, 4);
        // Something outside the autoscaler (a preempting launch) kills a
        // replica without reporting it.
        cluster.fractions.remove(&VmId(1_000_002));
        assert_eq!(a.reconcile_lost(&cluster), 1);
        assert!(!a.is_member(VmId(1_000_002)));
        assert_eq!(a.reconcile_lost(&cluster), 0, "idempotent");
        let stats = a.into_stats();
        assert_eq!(stats.replicas_lost, 1);
        assert!(stats.replicas_conserved());
    }

    #[test]
    #[should_panic(expected = "enabled AutoscalePolicy")]
    fn disabled_policy_cannot_build_an_autoscaler() {
        let _ = Autoscaler::new(AutoscalePolicy::Disabled, vec![]);
    }
}
