//! Server-level deflation policies (§5.1).
//!
//! A deflation policy answers one question: *given a set of deflatable VMs on
//! a server and an amount `R` of one resource that must be reclaimed (or, for
//! reinflation, returned), how much does each VM give up (or get back)?*
//!
//! The paper proposes three families of policies, all implemented here:
//!
//! * [`ProportionalDeflation`] — Eq 1
//!   (plain) and Eq 2 (minimum-allocation aware).
//! * [`PriorityDeflation`] — weighted
//!   proportional deflation, Eq 3 and Eq 4.
//! * [`DeterministicDeflation`] —
//!   binary, priority-ordered deflation to pre-specified levels.
//!
//! Policies are *scalar*: they operate on one [`ResourceKind`] at a time,
//! because "the proportional deflation is performed for each resource (CPU,
//! memory, disk bandwidth, network bandwidth) individually" (§5.1.1). The
//! [`VectorPlanner`] lifts any scalar policy to full [`ResourceVector`]s.
//!
//! Besides the deflation policies this module also carries three
//! cluster-level knobs: the [`transfer`] knob ([`TransferPolicy`],
//! describing how queued live migrations are ordered against per-server
//! bandwidth budgets — FIFO / smallest-first / deadline-aware EDF,
//! optionally deflate-then-migrate), the [`restore`] knob
//! ([`RestorePolicy`], hysteresis / spread-out reinflation after capacity
//! restitutions) and the [`autoscale`] knob ([`AutoscalePolicy`], the
//! elastic cluster-resizing policy driven by utilisation ticks).
//!
//! Reinflation (§5.1.3 "Reinflation") is expressed by calling
//! [`DeflationPolicy::plan`] with a *negative* demand: the policy runs
//! backwards and distributes the freed resources across previously deflated
//! VMs.

pub mod autoscale;
pub mod deterministic;
pub mod priority;
pub mod proportional;
pub mod restore;
pub mod transfer;

pub use autoscale::{AutoscaleParams, AutoscalePolicy};
pub use deterministic::DeterministicDeflation;
pub use priority::PriorityDeflation;
pub use proportional::ProportionalDeflation;
pub use restore::RestorePolicy;
pub use transfer::{TransferOrdering, TransferPolicy};

use crate::resources::{ResourceKind, ResourceVector};
use crate::vm::{VmAllocation, VmId};
use serde::{Deserialize, Serialize};

/// Per-VM, per-resource state a scalar policy needs to make its decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VmResourceState {
    /// VM identity.
    pub id: VmId,
    /// Original, undeflated allocation `M_i` of this resource.
    pub max: f64,
    /// Minimum allocation `m_i` (0 when the VM has no QoS floor).
    pub min: f64,
    /// Currently granted allocation (between `min` and `max`).
    pub current: f64,
    /// Deflation priority `π_i ∈ (0, 1]`; lower means more deflatable.
    pub priority: f64,
}

impl VmResourceState {
    /// Resources that can still be reclaimed from this VM.
    #[inline]
    pub fn deflatable_headroom(&self) -> f64 {
        (self.current - self.min).max(0.0)
    }

    /// Resources that can still be returned to this VM.
    #[inline]
    pub fn reinflatable_headroom(&self) -> f64 {
        (self.max - self.current).max(0.0)
    }

    /// Deflatable span `M_i − m_i` regardless of the current allocation; this
    /// is the `D_i` term in Eq 2 and Eq 4.
    #[inline]
    pub fn deflatable_span(&self) -> f64 {
        (self.max - self.min).max(0.0)
    }
}

/// Outcome of a scalar planning step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalarPlan {
    /// New allocation target for each VM, in the same order as the input.
    pub targets: Vec<(VmId, f64)>,
    /// Total amount reclaimed (positive) or returned (negative).
    pub reclaimed: f64,
    /// Demand that could not be satisfied because the deflatable (or
    /// reinflatable) headroom ran out. Zero on success.
    pub shortfall: f64,
}

impl ScalarPlan {
    /// True when the full demand was satisfied.
    #[inline]
    pub fn satisfied(&self) -> bool {
        self.shortfall.abs() <= 1e-6
    }

    /// Look up the planned allocation for a VM.
    pub fn target_for(&self, vm: VmId) -> Option<f64> {
        self.targets
            .iter()
            .find(|(id, _)| *id == vm)
            .map(|(_, t)| *t)
    }
}

/// Working buffers a [`DeflationPolicy`] may reuse across calls to
/// [`plan_into`](DeflationPolicy::plan_into).
///
/// The built-in policies use these for their headrooms, weights,
/// per-VM amounts and index sets. Their contents between calls mean
/// nothing; only their capacity carries over, so once the buffers have
/// grown to the largest resident set planned through them, planning
/// allocates nothing. A policy defined outside this crate may ignore them.
#[derive(Debug, Clone, Default)]
pub struct PolicyScratch {
    headroom: Vec<f64>,
    weight: Vec<f64>,
    amount: Vec<f64>,
    active: Vec<usize>,
    fixed: Vec<bool>,
    raw: Vec<(usize, f64)>,
}

impl PolicyScratch {
    /// Heap bytes these buffers hold (their capacity, not their length).
    pub(crate) fn accounted_bytes(&self) -> u64 {
        use crate::mem::vec_capacity_bytes;
        vec_capacity_bytes(&self.headroom)
            + vec_capacity_bytes(&self.weight)
            + vec_capacity_bytes(&self.amount)
            + vec_capacity_bytes(&self.active)
            + vec_capacity_bytes(&self.fixed)
            + vec_capacity_bytes(&self.raw)
    }
}

/// A server-level deflation policy operating on a single resource dimension.
pub trait DeflationPolicy: Send + Sync {
    /// Short policy name used in experiment output.
    fn name(&self) -> &'static str;

    /// Compute new allocation targets so that `demand` units of the resource
    /// are reclaimed from (positive demand) or returned to (negative demand)
    /// the given VMs, and return `(reclaimed, shortfall)`.
    ///
    /// Buffer contract: `targets` is cleared and then holds exactly one
    /// target per input VM, in input order (the VM ids are the inputs',
    /// by position). `work` is scratch space: the result never depends on
    /// what it holds on entry, and it holds nothing meaningful on return.
    /// Both are owned by the caller so one set of buffers can serve every
    /// call; an implementation grows them as needed and never shrinks them.
    ///
    /// Invariants every implementation upholds:
    /// * each target lies in `[min, max]` of its VM;
    /// * `reclaimed == sum(current − target)`, summed in input order;
    /// * `reclaimed == demand − shortfall` up to rounding, except that
    ///   binary policies may over-reclaim;
    /// * `shortfall` is non-negative for deflation and non-positive for
    ///   reinflation, and zero when the demand was fully met.
    fn plan_into(
        &self,
        vms: &[VmResourceState],
        demand: f64,
        work: &mut PolicyScratch,
        targets: &mut Vec<f64>,
    ) -> (f64, f64);

    /// [`plan_into`](Self::plan_into) with fresh buffers, returning the
    /// targets paired with their VM ids.
    fn plan(&self, vms: &[VmResourceState], demand: f64) -> ScalarPlan {
        let mut targets = Vec::with_capacity(vms.len());
        let (reclaimed, shortfall) =
            self.plan_into(vms, demand, &mut PolicyScratch::default(), &mut targets);
        ScalarPlan {
            targets: vms.iter().map(|vm| vm.id).zip(targets).collect(),
            reclaimed,
            shortfall,
        }
    }
}

/// Distribute `demand ≥ 0` across VMs proportionally to `weights`, honouring
/// each VM's headroom, using iterative water-filling. Reinflation uses the
/// same fill, with reinflatable headrooms and the amount to give back as
/// `demand`.
///
/// Writes the per-VM amounts into `take` (same order as `headrooms`) and
/// returns the unsatisfied remainder; `active` is scratch. This is the
/// computational core shared by the proportional and priority-weighted
/// policies once their per-VM weights have been fixed: the paper's
/// closed-form α only applies when no VM hits its bound, so the
/// water-filling loop re-solves the closed form over the unsaturated set
/// until a fixed point is reached.
pub(crate) fn weighted_fill(
    headrooms: &[f64],
    weights: &[f64],
    demand: f64,
    take: &mut Vec<f64>,
    active: &mut Vec<usize>,
) -> f64 {
    debug_assert_eq!(headrooms.len(), weights.len());
    let n = headrooms.len();
    take.clear();
    take.resize(n, 0.0);
    if demand <= 0.0 || n == 0 {
        return demand.max(0.0);
    }
    let mut remaining = demand;
    active.clear();
    active.extend((0..n).filter(|&i| headrooms[i] > 1e-12 && weights[i] > 0.0));
    // Each round either satisfies the remaining demand or saturates at least
    // one VM, so the loop terminates in at most `n` rounds.
    while remaining > 1e-9 && !active.is_empty() {
        let total_weight: f64 = active.iter().map(|&i| weights[i]).sum();
        if total_weight <= 0.0 {
            break;
        }
        let mut progressed = false;
        for &i in active.iter() {
            let share = remaining * weights[i] / total_weight;
            let capacity = headrooms[i] - take[i];
            let grant = share.min(capacity);
            if grant > 0.0 {
                take[i] += grant;
                progressed = true;
            }
        }
        let taken: f64 = take.iter().sum();
        remaining = demand - taken;
        if !progressed {
            break;
        }
        // Drop the VMs this round saturated, those with
        // `headroom − take ≤ 1e-12`. Finite headrooms and grants make no
        // difference NaN, so keeping the rest is that test's complement.
        active.retain(|&i| headrooms[i] - take[i] > 1e-12);
    }
    remaining.max(0.0)
}

/// Anything that exposes a VM spec plus its currently granted allocation.
///
/// Implemented for [`VmAllocation`] here and for the simulated hypervisor's
/// `Domain` type in `deflate-hypervisor`, so policies can be planned directly
/// against either representation.
pub trait AllocationView {
    /// The VM's static specification.
    fn spec(&self) -> &crate::vm::VmSpec;
    /// The allocation the VM currently holds.
    fn current_allocation(&self) -> ResourceVector;
}

impl AllocationView for VmAllocation {
    fn spec(&self) -> &crate::vm::VmSpec {
        &self.spec
    }
    fn current_allocation(&self) -> ResourceVector {
        self.current()
    }
}

impl<T: AllocationView + ?Sized> AllocationView for &T {
    fn spec(&self) -> &crate::vm::VmSpec {
        (**self).spec()
    }
    fn current_allocation(&self) -> ResourceVector {
        (**self).current_allocation()
    }
}

/// Builds [`VmResourceState`] slices out of full [`VmAllocation`]s and lifts a
/// scalar policy to all four resource dimensions.
#[derive(Debug, Clone, Default)]
pub struct VectorPlanner;

/// A full multi-resource deflation plan: one target vector per VM plus
/// per-resource shortfalls.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VectorPlan {
    /// New allocation vector of every deflatable VM, in the order the VMs
    /// were passed to the planner. For a server's resident domains that is
    /// ascending `VmId` order, the order `SimServer::apply_targets`
    /// requires.
    pub targets: Vec<(VmId, ResourceVector)>,
    /// Total reclaimed per resource (negative when reinflating).
    pub reclaimed: ResourceVector,
    /// Unmet demand per resource.
    pub shortfall: ResourceVector,
}

impl VectorPlan {
    /// True when every resource dimension was fully satisfied.
    pub fn satisfied(&self) -> bool {
        self.shortfall.iter().all(|(_, v)| v.abs() <= 1e-6)
    }
}

/// What [`VectorPlanner`] reads from one deflatable VM, once per plan.
#[derive(Debug, Clone, Copy)]
struct PlanRow {
    id: VmId,
    max: ResourceVector,
    min: ResourceVector,
    current: ResourceVector,
    priority: f64,
}

/// Caller-owned buffers for [`VectorPlanner::plan_into`], including the
/// [`VectorPlan`] it returns a reference to.
///
/// Only capacity carries over between plans: one scratch can serve any
/// number of servers and policies in turn, and once it has grown to the
/// largest resident set planned through it, planning allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct PlanScratch {
    rows: Vec<PlanRow>,
    states: Vec<VmResourceState>,
    scalar_targets: Vec<f64>,
    work: PolicyScratch,
    plan: VectorPlan,
}

impl PlanScratch {
    /// Heap bytes these buffers hold (their capacity, not their length).
    pub fn accounted_bytes(&self) -> u64 {
        use crate::mem::vec_capacity_bytes;
        vec_capacity_bytes(&self.rows)
            + vec_capacity_bytes(&self.states)
            + vec_capacity_bytes(&self.scalar_targets)
            + self.work.accounted_bytes()
            + vec_capacity_bytes(&self.plan.targets)
    }
}

impl VectorPlanner {
    /// Plan deflation (or reinflation) of every resource dimension using the
    /// given scalar policy. `demand` holds, per resource, the amount that
    /// must be reclaimed (positive) or can be returned (negative).
    ///
    /// A wrapper over [`plan_into`](Self::plan_into) with a fresh scratch.
    pub fn plan<V: AllocationView>(
        policy: &dyn DeflationPolicy,
        vms: &[V],
        demand: ResourceVector,
    ) -> VectorPlan {
        let mut scratch = PlanScratch::default();
        Self::plan_into(policy, vms, demand, &mut scratch);
        scratch.plan
    }

    /// [`plan`](Self::plan) into caller-owned buffers: reads each
    /// deflatable VM's spec and current allocation once, plans every
    /// resource kind with a non-zero demand from those rows, and returns
    /// the plan held in `scratch`.
    pub fn plan_into<'s, V: AllocationView>(
        policy: &dyn DeflationPolicy,
        vms: impl IntoIterator<Item = V>,
        demand: ResourceVector,
        scratch: &'s mut PlanScratch,
    ) -> &'s VectorPlan {
        let PlanScratch {
            rows,
            states,
            scalar_targets,
            work,
            plan,
        } = scratch;
        rows.clear();
        rows.extend(
            vms.into_iter()
                .filter(|vm| vm.spec().deflatable)
                .map(|vm| PlanRow {
                    id: vm.spec().id,
                    max: vm.spec().max_allocation,
                    min: vm.spec().min_allocation,
                    current: vm.current_allocation(),
                    priority: vm.spec().priority.value(),
                }),
        );
        plan.targets.clear();
        plan.targets
            .extend(rows.iter().map(|row| (row.id, row.current)));
        plan.reclaimed = ResourceVector::ZERO;
        plan.shortfall = ResourceVector::ZERO;
        for kind in ResourceKind::ALL {
            let d = demand[kind];
            if d.abs() <= 1e-12 {
                continue;
            }
            states.clear();
            states.extend(rows.iter().map(|row| VmResourceState {
                id: row.id,
                max: row.max[kind],
                min: row.min[kind],
                current: row.current[kind],
                priority: row.priority,
            }));
            let (reclaimed, shortfall) = policy.plan_into(states, d, work, scalar_targets);
            // Scalar targets come in input order, which is the order of
            // `plan.targets`: fill them positionally.
            debug_assert_eq!(scalar_targets.len(), plan.targets.len());
            for ((_, v), &target) in plan.targets.iter_mut().zip(scalar_targets.iter()) {
                v[kind] = target;
            }
            plan.reclaimed[kind] = reclaimed;
            plan.shortfall[kind] = shortfall;
        }
        plan
    }
}

/// Shared plumbing for turning per-VM reclaim (positive) or return
/// (negative) amounts into allocation targets: clears `targets`, writes one
/// clamped target per VM in input order, and returns the reclaimed total.
///
/// The reported figure is the *actual* change in total allocation,
/// `Σ (current − target)`, which can exceed the demand for binary policies
/// that over-reclaim, and is negative when reinflating.
pub(crate) fn write_targets(
    vms: &[VmResourceState],
    reclaim: &[f64],
    targets: &mut Vec<f64>,
) -> f64 {
    let mut reclaimed = 0.0;
    targets.clear();
    targets.extend(vms.iter().zip(reclaim).map(|(vm, r)| {
        let target = (vm.current - r).clamp(vm.min, vm.max);
        reclaimed += vm.current - target;
        target
    }));
    reclaimed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::{Priority, VmClass, VmSpec};

    fn state(id: u64, max: f64, min: f64, current: f64, pri: f64) -> VmResourceState {
        VmResourceState {
            id: VmId(id),
            max,
            min,
            current,
            priority: pri,
        }
    }

    #[test]
    fn headrooms() {
        let s = state(1, 10.0, 2.0, 6.0, 0.5);
        assert_eq!(s.deflatable_headroom(), 4.0);
        assert_eq!(s.reinflatable_headroom(), 4.0);
        assert_eq!(s.deflatable_span(), 8.0);
    }

    /// Run [`weighted_fill`] into fresh buffers.
    fn fill(headrooms: &[f64], weights: &[f64], demand: f64) -> (Vec<f64>, f64) {
        let (mut take, mut active) = (Vec::new(), Vec::new());
        let rem = weighted_fill(headrooms, weights, demand, &mut take, &mut active);
        (take, rem)
    }

    #[test]
    fn weighted_fill_simple_proportional() {
        let (take, rem) = fill(&[10.0, 10.0], &[1.0, 3.0], 4.0);
        assert!(rem.abs() < 1e-9);
        assert!((take[0] - 1.0).abs() < 1e-9);
        assert!((take[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_fill_respects_headroom_and_redistributes() {
        // VM 0 can only give 1.0; the rest must come from VM 1.
        let (take, rem) = fill(&[1.0, 100.0], &[1.0, 1.0], 10.0);
        assert!(rem.abs() < 1e-9);
        assert!((take[0] - 1.0).abs() < 1e-9);
        assert!((take[1] - 9.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_fill_reports_shortfall() {
        let (take, rem) = fill(&[1.0, 2.0], &[1.0, 1.0], 10.0);
        assert!((take[0] - 1.0).abs() < 1e-9);
        assert!((take[1] - 2.0).abs() < 1e-9);
        assert!((rem - 7.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_fill_zero_demand_or_empty() {
        let (take, rem) = fill(&[], &[], 5.0);
        assert!(take.is_empty());
        assert_eq!(rem, 5.0);
        let (take, rem) = fill(&[1.0], &[1.0], 0.0);
        assert_eq!(take, vec![0.0]);
        assert_eq!(rem, 0.0);
    }

    #[test]
    fn weighted_fill_overwrites_stale_buffers() {
        // Buffers left over from a larger fill must not leak into a
        // smaller one.
        let (mut take, mut active) = (vec![7.0; 5], vec![4, 3, 2]);
        let rem = weighted_fill(&[10.0, 10.0], &[1.0, 3.0], 4.0, &mut take, &mut active);
        assert_eq!((take, rem), fill(&[10.0, 10.0], &[1.0, 3.0], 4.0));
    }

    #[test]
    fn scalar_plan_lookup() {
        let plan = ScalarPlan {
            targets: vec![(VmId(1), 5.0), (VmId(2), 3.0)],
            reclaimed: 2.0,
            shortfall: 0.0,
        };
        assert!(plan.satisfied());
        assert_eq!(plan.target_for(VmId(2)), Some(3.0));
        assert_eq!(plan.target_for(VmId(9)), None);
    }

    #[test]
    fn vector_planner_skips_non_deflatable() {
        let deflatable = VmAllocation::new(
            VmSpec::deflatable(
                VmId(1),
                VmClass::Interactive,
                ResourceVector::cpu_mem(4000.0, 8192.0),
            )
            .with_priority(Priority::new(0.5)),
        );
        let on_demand = VmAllocation::new(VmSpec::on_demand(
            VmId(2),
            VmClass::Unknown,
            ResourceVector::cpu_mem(4000.0, 8192.0),
        ));
        let vms = vec![&deflatable, &on_demand];
        let policy = ProportionalDeflation::default();
        let plan = VectorPlanner::plan(
            &policy,
            &vms,
            ResourceVector::only(ResourceKind::Cpu, 1000.0),
        );
        assert!(plan.satisfied());
        assert_eq!(plan.targets.len(), 1);
        let (id, target) = plan.targets[0];
        assert_eq!(id, VmId(1));
        assert!((target.cpu() - 3000.0).abs() < 1e-6);
        // Untouched dimensions stay at their current values.
        assert!((target.memory() - 8192.0).abs() < 1e-6);
    }
}
