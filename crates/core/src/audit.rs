//! The online-audit knob: whether a run checks the engine's invariants as
//! it goes.
//!
//! [`AuditSpec`] is plain configuration data, mirroring the other engine
//! knobs ([`TelemetrySpec`](crate::telemetry::TelemetrySpec), the policy
//! enums): the checkers themselves live in `deflate-cluster`'s `audit`
//! module, which turns a spec into a live `Auditor` riding the event loop. Keeping the knob here lets every
//! layer name the configuration without depending on the machinery.
//!
//! Two standing contracts, pinned by `tests/telemetry_determinism.rs`:
//!
//! * **Off by default.** `AuditSpec::default()` enables nothing; a run
//!   without the knob behaves exactly as before the auditor existed.
//! * **Auditing never changes results.** Every checker is a read-only
//!   observer of settled state between events: turning auditing on
//!   leaves every `SimResult` field bit-identical to an audit-off run. A
//!   checker that *fires* aborts the run with a diagnostic — by then the
//!   state is, by definition, already wrong.

use serde::{Deserialize, Serialize};

/// Whether a simulation run checks its invariants after each event.
/// **Off by default**; `deflate-cluster` turns the spec into a live
/// auditor, which runs every checker when the spec is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditSpec {
    /// Run the checkers after every event.
    pub enabled: bool,
    /// Run the placement-index rescan, the one O(servers) checker, every
    /// `n`-th audited event (1 = every event). `0` is normalised to 1.
    pub placement_sample_every: u64,
}

impl Default for AuditSpec {
    fn default() -> Self {
        AuditSpec::off()
    }
}

impl AuditSpec {
    /// The disabled spec (what `Default` also yields): no checkers.
    pub fn off() -> Self {
        AuditSpec {
            enabled: false,
            placement_sample_every: DEFAULT_PLACEMENT_SAMPLE,
        }
    }

    /// Every checker on, with the default placement sampling interval —
    /// the configuration the determinism pins run under.
    pub fn all() -> Self {
        AuditSpec {
            enabled: true,
            ..AuditSpec::off()
        }
    }

    /// Builder-style placement-rescan sampling interval: compare the
    /// placement index against a full rescan every `n`-th audited event.
    pub fn with_placement_sample_every(mut self, n: u64) -> Self {
        self.placement_sample_every = n.max(1);
        self
    }

    /// True when auditing is off (the default).
    pub fn is_off(&self) -> bool {
        !self.enabled
    }

    /// The placement sampling interval with `0` normalised to 1.
    pub fn placement_sample_rate(&self) -> u64 {
        self.placement_sample_every.max(1)
    }
}

/// Default interval between placement-index full-rescan comparisons: the
/// rescan is O(servers), so auditing every event would re-create the
/// pre-index cost the index exists to avoid.
pub const DEFAULT_PLACEMENT_SAMPLE: u64 = 256;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        let spec = AuditSpec::default();
        assert!(spec.is_off());
        assert_eq!(spec, AuditSpec::off());
        assert_eq!(spec.placement_sample_rate(), DEFAULT_PLACEMENT_SAMPLE);
    }

    #[test]
    fn all_turns_auditing_on() {
        let spec = AuditSpec::all();
        assert!(!spec.is_off());
        assert!(spec.enabled);
        assert_eq!(spec.placement_sample_rate(), DEFAULT_PLACEMENT_SAMPLE);
    }

    #[test]
    fn sampling_rate_normalises_zero() {
        let spec = AuditSpec::all().with_placement_sample_every(0);
        assert_eq!(spec.placement_sample_rate(), 1);
        let spec = AuditSpec::all().with_placement_sample_every(64);
        assert_eq!(spec.placement_sample_rate(), 64);
    }
}
