//! Deterministic per-subsystem memory accounting: the [`MemoryLedger`].
//!
//! Peak RSS tells you *that* the engine used ~410 MiB at 100k VMs; it
//! does not tell you *where*. The ledger answers that: every stateful
//! subsystem implements an `accounted_bytes()` method (a deterministic
//! walk of its own heap footprint — `Vec` capacities, map entries,
//! resident structs), the engine folds them into one ledger per sample,
//! and the ledger publishes `mem.<subsystem>` gauges into the metrics
//! registry. `fig_memory` prints the resulting breakdown against the
//! kernel's VmRSS/VmHWM numbers — the measured before-picture for the
//! streaming-engine work (ROADMAP item 1).
//!
//! Accounted bytes are an *estimate with a contract*: deterministic
//! (identical across runs and hosts — no pointers, no
//! allocator introspection) and honest about what they cover (owned heap
//! blocks reachable from the subsystem, not allocator slack or code).
//! The `fig_memory` CI gate checks the estimate explains ≥ 70 % of
//! measured peak RSS, so the ledger can't quietly rot.

use crate::sink::TelemetrySink;
use std::collections::BTreeMap;

/// A per-subsystem byte ledger, keyed by subsystem name. Names become
/// `mem.<name>` gauges when published; keep them short, snake_case and
/// stable (they are part of the metrics-registry surface documented in
/// `docs/OBSERVABILITY.md`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryLedger {
    entries: BTreeMap<&'static str, u64>,
}

impl MemoryLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        MemoryLedger::default()
    }

    /// Add `bytes` to a subsystem's entry (accumulating — a subsystem
    /// spread over several structures records each part).
    pub fn record(&mut self, subsystem: &'static str, bytes: u64) {
        *self.entries.entry(subsystem).or_insert(0) += bytes;
    }

    /// A subsystem's accounted bytes (0 when never recorded).
    pub fn get(&self, subsystem: &str) -> u64 {
        self.entries.get(subsystem).copied().unwrap_or(0)
    }

    /// Sum over every subsystem.
    pub fn total_bytes(&self) -> u64 {
        self.entries.values().sum()
    }

    /// The entries in name order (deterministic iteration).
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.entries.iter().map(|(&name, &bytes)| (name, bytes))
    }

    /// Number of subsystems recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Publish every entry as a `mem.<subsystem>` gauge (bytes), plus
    /// `mem.accounted_total` — a one-branch no-op when the metrics sink
    /// is off. Gauges are last-value-wins, so the registry ends the run
    /// with the most recent sample.
    pub fn publish(&self, sink: &TelemetrySink) {
        if !sink.enabled() {
            return;
        }
        for (name, bytes) in self.entries() {
            sink.gauge_set(&format!("mem.{name}"), bytes as f64);
        }
        sink.gauge_set("mem.accounted_total", self.total_bytes() as f64);
    }
}

pub use deflate_core::mem::{map_entry_bytes, vec_bytes, MAP_ENTRY_OVERHEAD};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates_and_totals() {
        let mut ledger = MemoryLedger::new();
        assert!(ledger.is_empty());
        ledger.record("event_queue", 1024);
        ledger.record("vm_records", 2048);
        ledger.record("event_queue", 512);
        assert_eq!(ledger.get("event_queue"), 1536);
        assert_eq!(ledger.get("vm_records"), 2048);
        assert_eq!(ledger.get("missing"), 0);
        assert_eq!(ledger.total_bytes(), 3584);
        assert_eq!(ledger.len(), 2);
        // Name-ordered iteration.
        let names: Vec<&str> = ledger.entries().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["event_queue", "vm_records"]);
    }

    #[test]
    fn publish_lands_in_the_registry() {
        let spec = deflate_core::telemetry::TelemetrySpec {
            metrics: true,
            ..Default::default()
        };
        let sink = TelemetrySink::in_memory(&spec);
        let mut ledger = MemoryLedger::new();
        ledger.record("event_queue", 4096);
        ledger.record("telemetry", 128);
        ledger.publish(&sink);
        let metrics = sink.report().metrics;
        assert_eq!(metrics.gauge("mem.event_queue"), Some(4096.0));
        assert_eq!(metrics.gauge("mem.telemetry"), Some(128.0));
        assert_eq!(metrics.gauge("mem.accounted_total"), Some(4224.0));
    }

    #[test]
    fn publish_on_disabled_sink_is_a_no_op() {
        let sink = TelemetrySink::disabled();
        let mut ledger = MemoryLedger::new();
        ledger.record("event_queue", 4096);
        ledger.publish(&sink); // must not panic or allocate sinks
        assert!(sink.report().metrics.is_empty());
    }
}
