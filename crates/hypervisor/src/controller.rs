//! The per-server local deflation controller (§6).
//!
//! "We run local deflation controllers that run on each server. These local
//! controllers control the deflation of VMs by responding to resource
//! pressure, by implementing the proportional deflation policies described in
//! section 5." The controller owns a [`SimServer`], applies a server-level
//! [`DeflationPolicy`] when a new VM needs room, reinflates residents when
//! capacity frees up, and emits [`DeflationNotification`]s that an
//! application manager (e.g. the deflation-aware load balancer of §7.3) can
//! subscribe to.

use crate::domain::DeflationMechanism;
use crate::server::SimServer;
use deflate_core::error::{DeflateError, Result};
use deflate_core::policy::{DeflationPolicy, PlanScratch, VectorPlanner};
use deflate_core::resources::ResourceVector;
use deflate_core::vm::{ServerId, VmId, VmSpec};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Notification sent to the application manager / load balancer whenever a
/// VM's allocation changes (Figure 1, "Deflate VM Notification").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeflationNotification {
    /// Server where the change happened.
    pub server: ServerId,
    /// Affected VM.
    pub vm: VmId,
    /// Allocation before the change.
    pub old_allocation: ResourceVector,
    /// Allocation after the change.
    pub new_allocation: ResourceVector,
}

impl DeflationNotification {
    /// True when the VM lost resources (deflation), false when it gained
    /// them (reinflation).
    pub fn is_deflation(&self) -> bool {
        self.new_allocation.total() < self.old_allocation.total()
    }
}

/// Outcome of an admission attempt on one server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdmissionOutcome {
    /// The VM was admitted without deflating anyone.
    AdmittedWithoutDeflation,
    /// The VM was admitted after deflating resident VMs; the amount reclaimed
    /// per resource is reported.
    AdmittedWithDeflation {
        /// Total resources reclaimed from residents to make room.
        reclaimed: ResourceVector,
    },
    /// The server could not free enough resources; the VM was rejected
    /// (this is the "failure to reclaim sufficient resources" event counted
    /// by Figure 20).
    Rejected {
        /// Unmet demand per resource.
        shortfall: ResourceVector,
    },
}

/// Per-server deflation controller.
///
/// A controller built with [`new`](Self::new) logs a
/// [`DeflationNotification`] for every allocation change until
/// [`take_notifications`](Self::take_notifications) drains them; one built
/// [`without_notifications`](Self::without_notifications) logs none.
pub struct LocalController {
    server: SimServer,
    policy: Arc<dyn DeflationPolicy>,
    mechanism: DeflationMechanism,
    /// `None` when no owner drains the log.
    notifications: Option<Vec<DeflationNotification>>,
}

impl LocalController {
    /// Create a controller around a server with the given policy and
    /// mechanism for all future deflation operations.
    pub fn new(
        server: SimServer,
        policy: Arc<dyn DeflationPolicy>,
        mechanism: DeflationMechanism,
    ) -> Self {
        LocalController {
            server,
            policy,
            mechanism,
            notifications: Some(Vec::new()),
        }
    }

    /// Builder-style opt-out of the notification log, for an owner that
    /// never calls [`take_notifications`](Self::take_notifications)
    /// (the cluster manager). Allocation changes are then not even
    /// diffed: deflation and reinflation skip the before-copy of the
    /// residents' allocations.
    pub fn without_notifications(mut self) -> Self {
        self.notifications = None;
        self
    }

    /// Read access to the underlying server.
    pub fn server(&self) -> &SimServer {
        &self.server
    }

    /// Mutable access to the underlying server (used by the trace driver to
    /// feed per-VM utilisation into the guests).
    pub fn server_mut(&mut self) -> &mut SimServer {
        &mut self.server
    }

    /// The policy driving this controller.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Drain the accumulated notifications (oldest first). Always empty
    /// for a controller built
    /// [`without_notifications`](Self::without_notifications).
    pub fn take_notifications(&mut self) -> Vec<DeflationNotification> {
        self.notifications
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Owned heap bytes behind this controller: the server's domain map
    /// plus the pending-notification buffer, if it keeps one (the policy
    /// handle is shared and accounted nowhere — an `Arc` to a stateless
    /// strategy).
    pub fn accounted_bytes(&self) -> u64 {
        self.server.accounted_bytes()
            + self
                .notifications
                .as_ref()
                .map_or(0, deflate_core::mem::vec_capacity_bytes)
    }

    /// Attempt to admit a new VM, deflating residents if needed (the
    /// three-step placement of §6: the cluster manager already chose this
    /// server; this method performs steps two and three).
    pub fn try_admit(&mut self, spec: VmSpec) -> Result<AdmissionOutcome> {
        self.try_admit_with(spec, &mut PlanScratch::default())
    }

    /// [`try_admit`](Self::try_admit), planning in caller-owned buffers.
    pub fn try_admit_with(
        &mut self,
        spec: VmSpec,
        scratch: &mut PlanScratch,
    ) -> Result<AdmissionOutcome> {
        spec.validate()?;
        let demand = spec.max_allocation;
        let free = self.server.free();
        if demand.fits_within(&free) {
            self.server.create_domain(spec, self.mechanism)?;
            return Ok(AdmissionOutcome::AdmittedWithoutDeflation);
        }

        // Step 2: compute the deflation required to accommodate the new VM.
        let needed = demand.saturating_sub(&free);
        let plan =
            VectorPlanner::plan_into(self.policy.as_ref(), self.server.domains(), needed, scratch);
        if !plan.satisfied() {
            // "If this violates any resource constraint, then the server
            // rejects the VM."
            return Ok(AdmissionOutcome::Rejected {
                shortfall: plan.shortfall,
            });
        }

        // Step 3: perform the actual deflation and launch the VM.
        let before = self.allocations_if_logged();
        self.server.apply_targets(&plan.targets)?;
        self.record_changes(before);
        let reclaimed = plan.reclaimed;
        match self.server.create_domain(spec.clone(), self.mechanism) {
            Ok(_) => Ok(AdmissionOutcome::AdmittedWithDeflation { reclaimed }),
            Err(DeflateError::PlacementFailed { .. }) => {
                // Deflation mechanisms are granular (hotplug rounds up), so
                // the freed amount can fall marginally short of the plan.
                // Admit the VM slightly deflated to fit the space actually
                // available rather than rejecting it.
                let free = self.server.free();
                let initial = demand.min(&free);
                self.server
                    .create_domain_deflated(spec, self.mechanism, initial)?;
                Ok(AdmissionOutcome::AdmittedWithDeflation { reclaimed })
            }
            Err(e) => Err(e),
        }
    }

    /// Handle a VM departure: destroy the domain and redistribute the freed
    /// resources to deflated residents (reinflation, §5.1.3).
    pub fn on_departure(&mut self, vm: VmId) -> Result<()> {
        self.server.destroy_domain(vm)?;
        self.reinflate();
        Ok(())
    }

    /// Handle a provider-side **capacity restitution**: grow the server to
    /// `new_capacity` and reinflate residents into the returned room.
    pub fn restore_capacity(&mut self, new_capacity: ResourceVector) {
        self.server.set_capacity(new_capacity);
        self.reinflate();
    }

    /// Deflate residents until their effective allocations fit the server's
    /// current capacity (or the policy's headroom is exhausted) — the
    /// server-local half of a provider-side **capacity reclamation**, run
    /// after the caller shrinks the server with
    /// [`SimServer::set_capacity`]. Returns the remaining per-resource
    /// overage: zero when deflation alone absorbed the reclamation,
    /// positive when the caller must fall back to migrating or destroying
    /// residents. Plans in caller-owned buffers.
    pub fn deflate_into_capacity(&mut self, scratch: &mut PlanScratch) -> ResourceVector {
        let over = self
            .server
            .effective_used()
            .saturating_sub(&self.server.capacity);
        if over.is_zero() {
            return ResourceVector::ZERO;
        }
        let plan =
            VectorPlanner::plan_into(self.policy.as_ref(), self.server.domains(), over, scratch);
        let before = self.allocations_if_logged();
        let _ = self.server.apply_targets(&plan.targets);
        self.record_changes(before);
        self.server
            .effective_used()
            .saturating_sub(&self.server.capacity)
    }

    /// Reinflate resident VMs using whatever capacity is currently free.
    /// Domains *parked* by the autoscaler (deflated instead of terminated)
    /// are skipped — their deflation is deliberate and must stick until
    /// the autoscaler unparks them.
    pub fn reinflate(&mut self) {
        self.reinflate_with(&mut PlanScratch::default());
    }

    /// [`reinflate`](Self::reinflate), planning in caller-owned buffers.
    pub fn reinflate_with(&mut self, scratch: &mut PlanScratch) {
        self.reinflate_partial(1.0, scratch);
    }

    /// Reinflate residents into only `fraction` of the currently free
    /// capacity — the spread-out half of the restore-hysteresis policy.
    /// `1.0` is the full greedy hand-back of [`reinflate`](Self::reinflate).
    /// Plans in caller-owned buffers.
    pub fn reinflate_partial(&mut self, fraction: f64, scratch: &mut PlanScratch) {
        let free = self.server.free() * fraction.clamp(0.0, 1.0);
        if free.is_zero() {
            return;
        }
        let residents = self.server.domains().filter(|d| !d.is_parked());
        let plan = VectorPlanner::plan_into(self.policy.as_ref(), residents, -free, scratch);
        let before = self.allocations_if_logged();
        // Ignore the (negative) shortfall: not being able to place all freed
        // resources simply means residents are already fully inflated.
        let _ = self.server.apply_targets(&plan.targets);
        debug_assert!(self.server.check_capacity_invariant().is_ok());
        self.record_changes(before);
    }

    /// Every resident's effective allocation, for [`record_changes`] to
    /// diff against, or `None` when nothing is logged.
    ///
    /// [`record_changes`]: Self::record_changes
    fn allocations_if_logged(&self) -> Option<Vec<(VmId, ResourceVector)>> {
        self.notifications.as_ref()?;
        Some(
            self.server
                .domains()
                .map(|d| (d.spec.id, d.effective_allocation()))
                .collect(),
        )
    }

    /// Log a notification for every resident whose allocation moved since
    /// `before` was taken.
    fn record_changes(&mut self, before: Option<Vec<(VmId, ResourceVector)>>) {
        let (Some(before), Some(log)) = (before, self.notifications.as_mut()) else {
            return;
        };
        for (id, old) in before {
            if let Some(domain) = self.server.domain(id) {
                let new = domain.effective_allocation();
                if (new - old).max_component().abs() > 1e-6
                    || (old - new).max_component().abs() > 1e-6
                {
                    log.push(DeflationNotification {
                        server: self.server.id,
                        vm: id,
                        old_allocation: old,
                        new_allocation: new,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflate_core::policy::ProportionalDeflation;
    use deflate_core::vm::{Priority, VmClass};

    fn controller() -> LocalController {
        let server = SimServer::new(
            ServerId(1),
            ResourceVector::new(16_000.0, 32_768.0, 1_000.0, 10_000.0),
        );
        LocalController::new(
            server,
            Arc::new(ProportionalDeflation::default()),
            DeflationMechanism::Transparent,
        )
    }

    fn vm(id: u64, cores: f64, mem: f64) -> VmSpec {
        VmSpec::deflatable(
            VmId(id),
            VmClass::Interactive,
            ResourceVector::new(cores * 1000.0, mem, 100.0, 500.0),
        )
        .with_priority(Priority::new(0.5))
    }

    #[test]
    fn admission_without_pressure() {
        let mut c = controller();
        let out = c.try_admit(vm(1, 4.0, 8192.0)).unwrap();
        assert_eq!(out, AdmissionOutcome::AdmittedWithoutDeflation);
        assert_eq!(c.server().domain_count(), 1);
        assert!(c.take_notifications().is_empty());
    }

    #[test]
    fn admission_with_deflation_notifies_residents() {
        let mut c = controller();
        c.try_admit(vm(1, 10.0, 16_384.0)).unwrap();
        c.try_admit(vm(2, 6.0, 8192.0)).unwrap();
        // Server is now full (16 cores committed); a third VM forces
        // deflation of residents.
        let out = c.try_admit(vm(3, 8.0, 8192.0)).unwrap();
        match out {
            AdmissionOutcome::AdmittedWithDeflation { reclaimed } => {
                assert!(reclaimed.cpu() >= 8000.0 - 1e-6);
            }
            other => panic!("expected deflation admission, got {other:?}"),
        }
        assert_eq!(c.server().domain_count(), 3);
        assert!(c.server().check_capacity_invariant().is_ok());
        let notes = c.take_notifications();
        assert!(!notes.is_empty());
        assert!(notes.iter().all(|n| n.is_deflation()));
    }

    #[test]
    fn admission_rejected_when_headroom_insufficient() {
        let mut c = controller();
        // Fill the server with a non-deflatable VM: nothing can be reclaimed.
        let od = VmSpec::on_demand(
            VmId(1),
            VmClass::Unknown,
            ResourceVector::new(16_000.0, 32_768.0, 1_000.0, 10_000.0),
        );
        c.try_admit(od).unwrap();
        let out = c.try_admit(vm(2, 2.0, 2048.0)).unwrap();
        match out {
            AdmissionOutcome::Rejected { shortfall } => {
                assert!(shortfall.cpu() > 0.0);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(c.server().domain_count(), 1);
    }

    #[test]
    fn departure_triggers_reinflation() {
        let mut c = controller();
        c.try_admit(vm(1, 10.0, 16_384.0)).unwrap();
        c.try_admit(vm(2, 6.0, 8192.0)).unwrap();
        c.try_admit(vm(3, 8.0, 8192.0)).unwrap();
        c.take_notifications();
        // VM 3 leaves; the survivors should be reinflated back towards full.
        c.on_departure(VmId(3)).unwrap();
        let d1 = c.server().domain(VmId(1)).unwrap();
        let d2 = c.server().domain(VmId(2)).unwrap();
        assert_eq!(d1.effective_allocation(), d1.spec.max_allocation);
        assert_eq!(d2.effective_allocation(), d2.spec.max_allocation);
        let notes = c.take_notifications();
        assert!(notes.iter().all(|n| !n.is_deflation()));
        assert!(!notes.is_empty());
    }

    #[test]
    fn capacity_reclaim_deflates_and_restore_reinflates() {
        let mut c = controller();
        c.try_admit(vm(1, 10.0, 16_384.0)).unwrap();
        c.try_admit(vm(2, 6.0, 8_192.0)).unwrap();
        let full = ResourceVector::new(16_000.0, 32_768.0, 1_000.0, 10_000.0);
        // Reclaim half the server: residents must be deflated to fit.
        c.server_mut().set_capacity(full * 0.5);
        let remaining = c.deflate_into_capacity(&mut PlanScratch::default());
        assert!(remaining.is_zero(), "unabsorbed overage {remaining}");
        assert!(c.server().check_capacity_invariant().is_ok());
        assert!(c
            .server()
            .domains()
            .any(|d| d.effective_allocation().cpu() < d.spec.max_allocation.cpu()));
        // Restore it: everyone reinflates back to their spec.
        c.restore_capacity(full);
        assert!(c.server().check_capacity_invariant().is_ok());
        for d in c.server().domains() {
            assert_eq!(d.effective_allocation(), d.spec.max_allocation);
        }
        // A reclaim the free space already covers deflates nobody.
        c.server_mut().set_capacity(full);
        assert!(c
            .deflate_into_capacity(&mut PlanScratch::default())
            .is_zero());
    }

    #[test]
    fn parked_domains_are_skipped_by_reinflation() {
        let mut c = controller();
        c.try_admit(vm(1, 8.0, 8192.0)).unwrap();
        c.try_admit(vm(2, 8.0, 8192.0)).unwrap();
        // Park VM 1 at 10 % of its allocation.
        let d1 = c.server_mut().domain_mut(VmId(1)).unwrap();
        let target = d1.spec.max_allocation * 0.1;
        d1.deflate_to(target);
        d1.set_parked(true);
        // A full reinflation pass must not grow the parked domain.
        c.reinflate();
        let d1 = c.server().domain(VmId(1)).unwrap();
        assert!(d1.effective_allocation().cpu() <= 0.1 * d1.spec.max_allocation.cpu() + 1e-6);
        // Unparking makes the next pass restore it.
        c.server_mut()
            .domain_mut(VmId(1))
            .unwrap()
            .set_parked(false);
        c.reinflate();
        let d1 = c.server().domain(VmId(1)).unwrap();
        assert_eq!(d1.effective_allocation(), d1.spec.max_allocation);
    }

    #[test]
    fn partial_reinflation_returns_only_a_fraction_of_the_room() {
        let mut c = controller();
        c.try_admit(vm(1, 16.0, 16_384.0)).unwrap();
        // Deflate to half, then hand back only a quarter of the free room.
        let d1 = c.server_mut().domain_mut(VmId(1)).unwrap();
        let half = d1.spec.max_allocation * 0.5;
        d1.deflate_to(half);
        c.reinflate_partial(0.25, &mut PlanScratch::default());
        let cpu = c
            .server()
            .domain(VmId(1))
            .unwrap()
            .effective_allocation()
            .cpu();
        // Free room was 8000 millicores; a quarter of it is 2000.
        assert!((cpu - 10_000.0).abs() < 1e-6, "cpu after partial: {cpu}");
        // A full pass finishes the job.
        c.reinflate();
        assert_eq!(
            c.server().domain(VmId(1)).unwrap().effective_allocation(),
            c.server().domain(VmId(1)).unwrap().spec.max_allocation
        );
    }

    #[test]
    fn departure_of_unknown_vm_errors() {
        let mut c = controller();
        assert!(c.on_departure(VmId(42)).is_err());
    }

    #[test]
    fn policy_name_is_exposed() {
        let c = controller();
        assert_eq!(c.policy_name(), "proportional-min-aware");
    }
}
