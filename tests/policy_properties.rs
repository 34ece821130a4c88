//! Property-based tests on the core deflation model: resource vectors,
//! deflation policies, applying vector plans to a server, and the
//! performance-response model.

use proptest::prelude::*;
use vmdeflate::core::perfmodel::PerfModel;
use vmdeflate::core::policy::{
    DeflationPolicy, DeterministicDeflation, PlanScratch, PolicyScratch, PriorityDeflation,
    ProportionalDeflation, ScalarPlan, VectorPlan, VectorPlanner, VmResourceState,
};
use vmdeflate::core::resources::{ResourceKind, ResourceVector};
use vmdeflate::core::vm::{Priority, ServerId, VmClass, VmId, VmSpec};
use vmdeflate::hypervisor::{DeflationMechanism, SimServer};

fn arb_vector() -> impl Strategy<Value = ResourceVector> {
    (
        0.0f64..64_000.0,
        0.0f64..262_144.0,
        0.0f64..2_000.0,
        0.0f64..10_000.0,
    )
        .prop_map(|(c, m, d, n)| ResourceVector::new(c, m, d, n))
}

/// A set of deflatable-VM scalar states with consistent `min ≤ current ≤ max`.
fn arb_vm_states(sizes: std::ops::Range<usize>) -> impl Strategy<Value = Vec<VmResourceState>> {
    prop::collection::vec(
        (
            1.0f64..32_000.0, // max
            0.0f64..1.0,      // min as a fraction of max
            0.0f64..1.0,      // current as a fraction of the [min, max] span
            0.05f64..1.0,     // priority
        ),
        sizes,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (max, min_frac, cur_frac, priority))| {
                let min = max * min_frac;
                let current = min + (max - min) * cur_frac;
                VmResourceState {
                    id: VmId(i as u64),
                    max,
                    min,
                    current,
                    priority,
                }
            })
            .collect()
    })
}

fn check_plan_invariants(
    policy: &dyn DeflationPolicy,
    vms: &[VmResourceState],
    demand: f64,
) -> Result<(), TestCaseError> {
    let plan = policy.plan(vms, demand);
    prop_assert_eq!(plan.targets.len(), vms.len());
    let mut total_reclaimed = 0.0;
    for (vm, (id, target)) in vms.iter().zip(plan.targets.iter()) {
        prop_assert_eq!(*id, vm.id);
        // Targets always stay within [min, max].
        prop_assert!(
            *target >= vm.min - 1e-6 && *target <= vm.max + 1e-6,
            "target {} outside [{}, {}]",
            target,
            vm.min,
            vm.max
        );
        total_reclaimed += vm.current - *target;
    }
    // Reported reclamation matches the targets.
    prop_assert!(
        (total_reclaimed - plan.reclaimed).abs() < 1e-6,
        "reported {} vs actual {}",
        plan.reclaimed,
        total_reclaimed
    );
    if demand >= 0.0 {
        // Never reclaim more than the deflatable headroom, and the shortfall
        // accounts for exactly the unmet part (binary policies may
        // over-reclaim relative to the demand, but never below a satisfied
        // demand).
        prop_assert!(plan.shortfall >= -1e-6);
        prop_assert!(total_reclaimed + plan.shortfall >= demand - 1e-6 || plan.shortfall > 0.0);
        let headroom: f64 = vms.iter().map(|v| v.deflatable_headroom()).sum();
        prop_assert!(total_reclaimed <= headroom + 1e-6);
    } else {
        // Reinflation never takes resources away from anyone.
        for (vm, (_, target)) in vms.iter().zip(plan.targets.iter()) {
            prop_assert!(*target >= vm.current - 1e-6);
        }
    }
    Ok(())
}

/// One resident drawn for [`arb_server`]: id gap, cores, memory per core,
/// deflatable draw, priority, mechanism draw and the fraction of its
/// allocation it is currently deflated to.
type ResidentDraw = (u64, f64, f64, f64, f64, (f64, f64));

fn arb_residents(sizes: std::ops::Range<usize>) -> impl Strategy<Value = Vec<ResidentDraw>> {
    prop::collection::vec(
        (
            1u64..4,
            1.0f64..16.0,
            512.0f64..4096.0,
            0.0f64..1.0,
            0.05f64..1.0,
            (0.0f64..3.0, 0.2f64..1.0),
        ),
        sizes,
    )
}

/// A server holding the drawn residents (about 80% deflatable, under all
/// three mechanisms), each already deflated part of the way so that both
/// deflation and reinflation have room to move.
fn arb_server(residents: &[ResidentDraw]) -> SimServer {
    let mut server = SimServer::new(ServerId(0), ResourceVector::splat(1e9));
    let mut id = 0;
    for &(gap, cores, mem_per_core, deflatable, priority, (mechanism, current)) in residents {
        id += gap;
        let max = ResourceVector::new(cores * 1000.0, cores * mem_per_core, 200.0, 1000.0);
        let spec = if deflatable < 0.8 {
            VmSpec::deflatable(VmId(id), VmClass::Interactive, max)
                .with_priority(Priority::new(priority))
                .with_priority_derived_min()
        } else {
            VmSpec::on_demand(VmId(id), VmClass::Unknown, max)
        };
        let mechanism = [
            DeflationMechanism::Transparent,
            DeflationMechanism::Hybrid,
            DeflationMechanism::Explicit,
        ][mechanism as usize];
        server.create_domain(spec, mechanism).unwrap();
        if deflatable < 0.8 {
            let domain = server.domain_mut(VmId(id)).unwrap();
            let target = (max * current).max(&domain.spec.min_allocation);
            domain.deflate_to(target);
        }
    }
    server
}

/// Plan `demand` (a fraction in `(-1, 1)` of the committed allocation per
/// resource) over the server's residents, then check that
/// `SimServer::apply_targets` leaves the domains exactly as applying each
/// target with `Domain::deflate_to`, in plan order, does.
fn check_apply_targets(
    policy: &dyn DeflationPolicy,
    server: &SimServer,
    demand: (f64, f64, f64, f64),
) -> Result<(), TestCaseError> {
    let committed = server.committed();
    let demand = ResourceVector::new(
        committed.cpu() * demand.0,
        committed.memory() * demand.1,
        committed.disk_bw() * demand.2,
        committed.net_bw() * demand.3,
    );
    let domains: Vec<_> = server.domains().collect();
    let plan = VectorPlanner::plan(policy, &domains, demand);
    let deflatable: Vec<VmId> = domains
        .iter()
        .filter(|d| d.spec.deflatable)
        .map(|d| d.spec.id)
        .collect();
    let planned: Vec<VmId> = plan.targets.iter().map(|&(id, _)| id).collect();
    prop_assert_eq!(planned, deflatable);

    let mut applied = server.clone();
    prop_assert!(applied.apply_targets(&plan.targets).is_ok());
    let mut one_by_one = server.clone();
    for &(id, target) in &plan.targets {
        one_by_one.domain_mut(id).unwrap().deflate_to(target);
    }
    prop_assert!(
        applied == one_by_one,
        "{}: apply_targets diverged from per-target deflate_to",
        policy.name()
    );
    Ok(())
}

/// A scalar plan as exact bits, so that `-0.0 ≠ 0.0` and NaNs compare.
fn scalar_bits(plan: &ScalarPlan) -> Vec<(u64, u64)> {
    plan.targets
        .iter()
        .map(|&(id, t)| (id.0, t.to_bits()))
        .chain([
            (u64::MAX, plan.reclaimed.to_bits()),
            (u64::MAX, plan.shortfall.to_bits()),
        ])
        .collect()
}

/// A vector plan as exact bits.
fn vector_bits(plan: &VectorPlan) -> Vec<(u64, [u64; 4])> {
    let bits = |v: &ResourceVector| ResourceKind::ALL.map(|k| v[k].to_bits());
    plan.targets
        .iter()
        .map(|(id, v)| (id.0, bits(v)))
        .chain([
            (u64::MAX, bits(&plan.reclaimed)),
            (u64::MAX, bits(&plan.shortfall)),
        ])
        .collect()
}

/// `plan_into` through the given buffers, as a [`ScalarPlan`].
fn plan_through(
    policy: &dyn DeflationPolicy,
    vms: &[VmResourceState],
    demand: f64,
    work: &mut PolicyScratch,
    targets: &mut Vec<f64>,
) -> ScalarPlan {
    let (reclaimed, shortfall) = policy.plan_into(vms, demand, work, targets);
    ScalarPlan {
        targets: vms
            .iter()
            .map(|vm| vm.id)
            .zip(targets.iter().copied())
            .collect(),
        reclaimed,
        shortfall,
    }
}

/// Plan `vms` into the reused `work` and `targets`, then check the result
/// bit for bit against fresh buffers and against the `plan()` wrapper.
fn check_reused_scalar_plan(
    policy: &dyn DeflationPolicy,
    vms: &[VmResourceState],
    demand: f64,
    work: &mut PolicyScratch,
    targets: &mut Vec<f64>,
) -> Result<(), TestCaseError> {
    let reused = scalar_bits(&plan_through(policy, vms, demand, work, targets));
    let fresh = plan_through(
        policy,
        vms,
        demand,
        &mut PolicyScratch::default(),
        &mut Vec::new(),
    );
    prop_assert_eq!(&reused, &scalar_bits(&fresh), "{} vs fresh", policy.name());
    let wrapped = policy.plan(vms, demand);
    prop_assert_eq!(
        &reused,
        &scalar_bits(&wrapped),
        "{} vs plan()",
        policy.name()
    );
    Ok(())
}

/// The vector-level twin of [`check_reused_scalar_plan`].
fn check_reused_vector_plan(
    policy: &dyn DeflationPolicy,
    server: &SimServer,
    demand: ResourceVector,
    scratch: &mut PlanScratch,
) -> Result<(), TestCaseError> {
    let reused = vector_bits(VectorPlanner::plan_into(
        policy,
        server.domains(),
        demand,
        scratch,
    ));
    let fresh = vector_bits(VectorPlanner::plan_into(
        policy,
        server.domains(),
        demand,
        &mut PlanScratch::default(),
    ));
    prop_assert_eq!(&reused, &fresh, "{} vs fresh", policy.name());
    let domains: Vec<_> = server.domains().collect();
    let wrapped = vector_bits(&VectorPlanner::plan(policy, &domains, demand));
    prop_assert_eq!(&reused, &wrapped, "{} vs plan()", policy.name());
    Ok(())
}

fn arb_demand() -> impl Strategy<Value = (f64, f64, f64, f64)> {
    (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn apply_targets_matches_per_target_deflate_to(
        residents in arb_residents(0..16),
        demand in arb_demand(),
    ) {
        let server = arb_server(&residents);
        let policies: [&dyn DeflationPolicy; 4] = [
            &ProportionalDeflation::default(),
            &PriorityDeflation::weighted(),
            &DeterministicDeflation::binary(),
            &DeterministicDeflation::with_partial_last(),
        ];
        for policy in policies {
            check_apply_targets(policy, &server, demand)?;
            // The same demand run backwards: reinflation.
            check_apply_targets(policy, &server, (-demand.0, -demand.1, -demand.2, -demand.3))?;
        }
    }

    #[test]
    fn reused_scratch_plans_match_fresh_ones(
        large in arb_vm_states(12..24),
        small in arb_vm_states(1..12),
        demand in 0.0f64..100_000.0,
        large_residents in arb_residents(12..24),
        small_residents in arb_residents(0..12),
        fractions in arb_demand(),
    ) {
        let (large_server, small_server) = (arb_server(&large_residents), arb_server(&small_residents));
        let vector_demand = |server: &SimServer, sign: f64| {
            let c = server.committed();
            ResourceVector::new(
                c.cpu() * fractions.0.abs() * sign,
                c.memory() * fractions.1.abs() * sign,
                c.disk_bw() * fractions.2.abs() * sign,
                c.net_bw() * fractions.3.abs() * sign,
            )
        };
        let policies: [&dyn DeflationPolicy; 6] = [
            &ProportionalDeflation::by_size(),
            &ProportionalDeflation::by_deflatable_span(),
            &PriorityDeflation::weighted(),
            &PriorityDeflation::with_priority_floor(),
            &DeterministicDeflation::binary(),
            &DeterministicDeflation::with_partial_last(),
        ];
        for policy in policies {
            // One set of buffers per policy, reused larger-then-smaller
            // for deflation and again for reinflation.
            let (mut work, mut targets) = (PolicyScratch::default(), Vec::new());
            let mut scratch = PlanScratch::default();
            for sign in [1.0, -1.0] {
                check_reused_scalar_plan(policy, &large, sign * demand, &mut work, &mut targets)?;
                check_reused_scalar_plan(policy, &small, sign * demand, &mut work, &mut targets)?;
                for server in [&large_server, &small_server] {
                    check_reused_vector_plan(policy, server, vector_demand(server, sign), &mut scratch)?;
                }
            }
        }
    }

    #[test]
    fn proportional_plan_invariants(vms in arb_vm_states(1..12), demand in -50_000.0f64..100_000.0) {
        check_plan_invariants(&ProportionalDeflation::default(), &vms, demand)?;
        check_plan_invariants(&ProportionalDeflation::by_size(), &vms, demand)?;
    }

    #[test]
    fn priority_plan_invariants(vms in arb_vm_states(1..12), demand in -50_000.0f64..100_000.0) {
        check_plan_invariants(&PriorityDeflation::weighted(), &vms, demand)?;
        check_plan_invariants(&PriorityDeflation::with_priority_floor(), &vms, demand)?;
    }

    #[test]
    fn deterministic_plan_invariants(vms in arb_vm_states(1..12), demand in -50_000.0f64..100_000.0) {
        check_plan_invariants(&DeterministicDeflation::binary(), &vms, demand)?;
        check_plan_invariants(&DeterministicDeflation::with_partial_last(), &vms, demand)?;
    }

    #[test]
    fn proportional_satisfies_feasible_demands(vms in arb_vm_states(1..12), frac in 0.0f64..1.0) {
        // Any demand within the total headroom is fully satisfied.
        let headroom: f64 = vms.iter().map(|v| v.deflatable_headroom()).sum();
        let demand = headroom * frac;
        let plan = ProportionalDeflation::default().plan(&vms, demand);
        prop_assert!(plan.shortfall < 1e-6, "shortfall {} for feasible demand", plan.shortfall);
    }

    #[test]
    fn vector_addition_and_subtraction_roundtrip(a in arb_vector(), b in arb_vector()) {
        let sum = a + b;
        let back = sum - b;
        for kind in ResourceKind::ALL {
            prop_assert!((back[kind] - a[kind]).abs() < 1e-6);
        }
        prop_assert!(a.saturating_sub(&b).is_non_negative());
        prop_assert!(a.min(&b).fits_within(&a.max(&b)));
    }

    #[test]
    fn cosine_similarity_is_bounded_and_symmetric(a in arb_vector(), b in arb_vector()) {
        let ab = a.cosine_similarity(&b);
        let ba = b.cosine_similarity(&a);
        prop_assert!((-1.0..=1.0).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-9);
        // Scale invariance.
        let scaled = a * 3.7;
        prop_assert!((scaled.cosine_similarity(&b) - ab).abs() < 1e-9);
    }

    #[test]
    fn perf_model_is_monotone_and_bounded(
        slack in 0.0f64..1.0,
        knee in 0.0f64..1.0,
        perf_at_knee in 0.0f64..1.0,
        elasticity in 0.1f64..3.0,
    ) {
        let m = PerfModel::new(slack, knee, perf_at_knee, elasticity);
        let mut prev = f64::INFINITY;
        for i in 0..=50 {
            let p = m.performance(i as f64 / 50.0);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(p <= prev + 1e-9);
            prev = p;
        }
        prop_assert_eq!(m.performance(0.0), 1.0);
    }
}
