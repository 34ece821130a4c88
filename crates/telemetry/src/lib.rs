//! # deflate-telemetry
//!
//! Observability for the vmdeflate simulation engine: a deterministic
//! **metrics registry**, a span-based **engine phase profiler**, and
//! **structured run traces** (JSONL event log + Chrome `trace_event`
//! exporter for Perfetto). `docs/OBSERVABILITY.md` is the user guide.
//!
//! The engine threads a [`TelemetrySink`] through its layers; the sink
//! is built from the [`TelemetrySpec`] knob defined in `deflate-core`.
//! Standing contracts (pinned by `tests/telemetry_determinism.rs`):
//!
//! * **Off by default** — the disabled sink costs one branch per call
//!   site and allocates nothing.
//! * **Observation never changes results** — enabling every sink leaves
//!   each `SimResult` bit-identical.
//!
//! Module map:
//!
//! * [`registry`] — counters, gauges, fixed-bucket histograms with
//!   deterministic (name-ordered) snapshots.
//! * [`profiler`] — the [`Phase`] taxonomy and self-time attribution
//!   behind `fig_profile`'s per-phase table.
//! * [`sink`] — the [`TelemetrySink`] handle and RAII span guards.
//! * [`events`] — JSONL event-log encoding and its deserializer.
//! * [`chrome`] — Chrome `trace_event` export and trace validation.
//! * [`runtime`] — the shared `engine:` footer ([`RuntimeTally`]), the
//!   graceful peak-RSS reader ([`peak_rss_mib`]) and the live-RSS
//!   sampler ([`rss_kib`]).
//! * [`memory`] — the deterministic per-subsystem [`MemoryLedger`]
//!   behind the `mem.*` gauges and `fig_memory`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chrome;
pub mod events;
pub mod memory;
pub mod profiler;
pub mod registry;
pub mod runtime;
pub mod sink;

pub use chrome::{validate_chrome_trace, ChromeTraceStats};
pub use deflate_core::telemetry::{TelemetryEventKind, TelemetryEventSet, TelemetrySpec};
pub use events::{encode_event, parse_event_line, EventField, ParsedEvent};
pub use memory::{map_entry_bytes, vec_bytes, MemoryLedger};
pub use profiler::{Phase, PhaseReport, PhaseRow};
pub use registry::{Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use runtime::{
    append_process_footer_json, peak_rss_mib, peak_rss_mib_from, process_tally, reset_peak_rss,
    rss_kib, rss_kib_from, secs, RuntimeTally,
};
pub use sink::{SpanGuard, TelemetryReport, TelemetrySink};
