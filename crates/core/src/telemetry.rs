//! The observability knob: which telemetry sinks a simulation run feeds.
//!
//! [`TelemetrySpec`] is plain configuration data — the sinks themselves
//! (metrics registry, phase profiler, JSONL event log, Chrome-trace
//! exporter) live in `deflate-telemetry`, which turns a spec into a
//! `TelemetrySink`. Keeping the knob here mirrors the other engine knobs
//! ([`AuditSpec`](crate::audit::AuditSpec), the policy enums): every
//! layer can name the configuration without depending on the machinery.
//!
//! Two standing contracts, pinned by `tests/telemetry_determinism.rs`:
//!
//! * **Off by default.** `TelemetrySpec::default()` enables nothing; a run
//!   without the knob behaves exactly as before the subsystem existed.
//! * **Observation never changes results.** Enabling any combination of
//!   sinks leaves every `SimResult` field bit-identical to a telemetry-off
//!   run (wall-clock time is outside the equality contract).

use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// The kind of a simulation event, as seen by the structured run-trace
/// sinks. Mirrors the engine's `SimEvent` variants one-to-one without
/// depending on them, so filters can be configured from any layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TelemetryEventKind {
    /// A VM arrival (placement attempt).
    Arrival,
    /// A VM departure.
    Departure,
    /// A provider-side capacity reclamation at one server.
    CapacityReclaim,
    /// A provider-side capacity restitution at one server.
    CapacityRestore,
    /// An in-flight live migration finishing (or aborting at its deadline).
    MigrationComplete,
    /// A periodic cluster-utilisation sampling tick.
    UtilizationTick,
    /// An autoscaler scale-out actuation for one elastic application.
    ScaleOut,
    /// An autoscaler scale-in actuation for one elastic application.
    ScaleIn,
    /// An online invariant checker fired (see
    /// [`AuditSpec`](crate::audit::AuditSpec)). Not an engine event — it
    /// is emitted *about* the event that broke the invariant, immediately
    /// before the run aborts with the diagnostic.
    AuditViolation,
}

impl TelemetryEventKind {
    /// Every kind, in the engine's same-timestamp delivery order
    /// (audit violations, which ride on other events, come last).
    pub const ALL: [TelemetryEventKind; 9] = [
        TelemetryEventKind::Departure,
        TelemetryEventKind::MigrationComplete,
        TelemetryEventKind::CapacityRestore,
        TelemetryEventKind::CapacityReclaim,
        TelemetryEventKind::Arrival,
        TelemetryEventKind::ScaleOut,
        TelemetryEventKind::ScaleIn,
        TelemetryEventKind::UtilizationTick,
        TelemetryEventKind::AuditViolation,
    ];

    /// Stable snake_case name, used as the `kind` field of JSONL trace
    /// lines and accepted by [`TelemetryEventKind::parse`].
    pub fn name(&self) -> &'static str {
        match self {
            TelemetryEventKind::Arrival => "arrival",
            TelemetryEventKind::Departure => "departure",
            TelemetryEventKind::CapacityReclaim => "capacity_reclaim",
            TelemetryEventKind::CapacityRestore => "capacity_restore",
            TelemetryEventKind::MigrationComplete => "migration_complete",
            TelemetryEventKind::UtilizationTick => "utilization_tick",
            TelemetryEventKind::ScaleOut => "scale_out",
            TelemetryEventKind::ScaleIn => "scale_in",
            TelemetryEventKind::AuditViolation => "audit_violation",
        }
    }

    /// Parse a snake_case kind name (the inverse of
    /// [`name`](Self::name)).
    pub fn parse(name: &str) -> Option<TelemetryEventKind> {
        TelemetryEventKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
    }

    fn bit(&self) -> u16 {
        match self {
            TelemetryEventKind::Arrival => 1 << 0,
            TelemetryEventKind::Departure => 1 << 1,
            TelemetryEventKind::CapacityReclaim => 1 << 2,
            TelemetryEventKind::CapacityRestore => 1 << 3,
            TelemetryEventKind::MigrationComplete => 1 << 4,
            TelemetryEventKind::UtilizationTick => 1 << 5,
            TelemetryEventKind::ScaleOut => 1 << 6,
            TelemetryEventKind::ScaleIn => 1 << 7,
            TelemetryEventKind::AuditViolation => 1 << 8,
        }
    }
}

/// A set of [`TelemetryEventKind`]s — the JSONL event log's kind filter.
///
/// The default set is the *decision* events the paper's claims are about
/// — capacity changes, migration completions and autoscale actions — and
/// excludes the high-volume per-VM kinds (arrivals, departures) and
/// utilisation ticks; [`TelemetryEventSet::all`] opts into everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryEventSet(u16);

impl TelemetryEventSet {
    /// The empty set.
    pub fn none() -> Self {
        TelemetryEventSet(0)
    }

    /// Every event kind.
    pub fn all() -> Self {
        TelemetryEventKind::ALL
            .into_iter()
            .fold(Self::none(), |set, kind| set.with(kind))
    }

    /// Capacity changes, migration completions, autoscale actions and
    /// audit violations — the default JSONL filter. (Violations are rare
    /// and abort the run; filtering them out would hide the one line
    /// that explains the abort.)
    pub fn decisions() -> Self {
        Self::none()
            .with(TelemetryEventKind::CapacityReclaim)
            .with(TelemetryEventKind::CapacityRestore)
            .with(TelemetryEventKind::MigrationComplete)
            .with(TelemetryEventKind::ScaleOut)
            .with(TelemetryEventKind::ScaleIn)
            .with(TelemetryEventKind::AuditViolation)
    }

    /// This set plus one kind.
    pub fn with(self, kind: TelemetryEventKind) -> Self {
        TelemetryEventSet(self.0 | kind.bit())
    }

    /// True when the set contains `kind`.
    pub fn contains(&self, kind: TelemetryEventKind) -> bool {
        self.0 & kind.bit() != 0
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }
}

impl Default for TelemetryEventSet {
    fn default() -> Self {
        Self::decisions()
    }
}

/// Which telemetry sinks a run should feed. **Everything is off by
/// default**; `deflate-telemetry` turns the spec into a live sink.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySpec {
    /// Feed the metrics registry (counters, gauges, histograms).
    pub metrics: bool,
    /// Feed the span-based engine phase profiler.
    pub profile: bool,
    /// Write one JSON line per (filtered, sampled) simulation event to
    /// this path. `None` disables the JSONL sink.
    pub event_log_path: Option<PathBuf>,
    /// Event kinds the JSONL sink records (ignored when the sink is off).
    pub event_kinds: TelemetryEventSet,
    /// Record every `n`-th matching event (1 = every one). `0` is
    /// normalised to 1.
    pub sample_every: u64,
    /// Write profiler spans as a Chrome `trace_event` JSON array to this
    /// path (openable in Perfetto / `chrome://tracing`). Implies span
    /// collection even when [`profile`](Self::profile) is false.
    pub chrome_trace_path: Option<PathBuf>,
}

impl TelemetrySpec {
    /// The disabled spec (what `Default` also yields): no sinks.
    pub fn off() -> Self {
        TelemetrySpec::default()
    }

    /// Metrics registry + phase profiler, no file sinks — the in-memory
    /// configuration `fig_profile` and the overhead tests use.
    pub fn profiling() -> Self {
        TelemetrySpec {
            metrics: true,
            profile: true,
            ..TelemetrySpec::default()
        }
    }

    /// Builder-style JSONL event log at `path` with the default kind
    /// filter and sampling.
    pub fn with_event_log(mut self, path: impl Into<PathBuf>) -> Self {
        self.event_log_path = Some(path.into());
        if self.sample_every == 0 {
            self.sample_every = 1;
        }
        self
    }

    /// Builder-style kind filter for the JSONL sink.
    pub fn with_event_kinds(mut self, kinds: TelemetryEventSet) -> Self {
        self.event_kinds = kinds;
        self
    }

    /// Builder-style sampling rate for the JSONL sink: record every
    /// `n`-th matching event.
    pub fn with_sample_every(mut self, n: u64) -> Self {
        self.sample_every = n.max(1);
        self
    }

    /// Builder-style Chrome-trace output at `path`.
    pub fn with_chrome_trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.chrome_trace_path = Some(path.into());
        self
    }

    /// True when no sink is enabled (the default).
    pub fn is_off(&self) -> bool {
        !self.metrics
            && !self.profile
            && self.event_log_path.is_none()
            && self.chrome_trace_path.is_none()
    }

    /// The sampling rate with `0` normalised to 1.
    pub fn sample_rate(&self) -> u64 {
        self.sample_every.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        let spec = TelemetrySpec::default();
        assert!(spec.is_off());
        assert!(!spec.metrics);
        assert!(spec.event_log_path.is_none());
        assert!(spec.chrome_trace_path.is_none());
        assert_eq!(spec, TelemetrySpec::off());
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in TelemetryEventKind::ALL {
            assert_eq!(TelemetryEventKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(TelemetryEventKind::parse("bogus"), None);
    }

    #[test]
    fn event_sets() {
        let none = TelemetryEventSet::none();
        assert!(none.is_empty());
        let all = TelemetryEventSet::all();
        for kind in TelemetryEventKind::ALL {
            assert!(!none.contains(kind));
            assert!(all.contains(kind));
        }
        let decisions = TelemetryEventSet::default();
        assert!(decisions.contains(TelemetryEventKind::CapacityReclaim));
        assert!(decisions.contains(TelemetryEventKind::MigrationComplete));
        assert!(decisions.contains(TelemetryEventKind::ScaleOut));
        assert!(!decisions.contains(TelemetryEventKind::Arrival));
        assert!(!decisions.contains(TelemetryEventKind::UtilizationTick));
    }

    #[test]
    fn spec_builders() {
        let spec = TelemetrySpec::profiling()
            .with_event_log("/tmp/run.jsonl")
            .with_event_kinds(TelemetryEventSet::all())
            .with_sample_every(0)
            .with_chrome_trace("/tmp/run.trace.json");
        assert!(!spec.is_off());
        assert!(spec.metrics && spec.profile);
        assert_eq!(spec.sample_rate(), 1);
        assert_eq!(
            spec.event_log_path.as_deref(),
            Some(std::path::Path::new("/tmp/run.jsonl"))
        );
        assert!(spec.event_kinds.contains(TelemetryEventKind::Departure));
    }
}
