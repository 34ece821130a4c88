//! Chrome `trace_event` exporter: every profiler span becomes a
//! `B`/`E` (duration begin/end) event pair, so a run opens directly in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Every span is written on `tid 0`, the event-loop thread. Timestamps
//! are microseconds since the sink was created. The collection is capped — beyond `ChromeTrace::DEFAULT_CAP`
//! events, new spans are counted as dropped rather than recorded — so a
//! million-VM run cannot exhaust memory.

use serde::json::{self, Value};

/// One `B` or `E` trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChromeEvent {
    pub name: &'static str,
    /// `b'B'` (begin) or `b'E'` (end).
    pub ph: u8,
    /// Microseconds since the sink epoch.
    pub ts_us: u64,
}

/// In-memory collection of trace events, serialised on `finish()`.
#[derive(Debug, Default)]
pub(crate) struct ChromeTrace {
    events: Vec<ChromeEvent>,
    dropped: u64,
    cap: usize,
}

impl ChromeTrace {
    /// Default event cap (~4M events ≈ a few hundred MiB of JSON).
    pub const DEFAULT_CAP: usize = 4_000_000;

    pub(crate) fn new() -> Self {
        ChromeTrace {
            events: Vec::new(),
            dropped: 0,
            cap: Self::DEFAULT_CAP,
        }
    }

    pub(crate) fn push(&mut self, event: ChromeEvent) {
        if self.events.len() < self.cap {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Serialise as a JSON array (the simple `trace_event` container
    /// format both Perfetto and `chrome://tracing` accept).
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 80 + 2);
        out.push('[');
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":");
            out.push_str(&json::quote(ev.name));
            out.push_str(",\"ph\":\"");
            out.push(ev.ph as char);
            out.push_str("\",\"ts\":");
            out.push_str(&ev.ts_us.to_string());
            out.push_str(",\"pid\":1,\"tid\":0}");
        }
        out.push_str("\n]\n");
        out
    }
}

/// Summary statistics from a validated Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Total trace events (each span contributes a `B` and an `E`).
    pub events: usize,
    /// Completed spans (matched `B`/`E` pairs).
    pub spans: usize,
    /// Distinct thread ids seen.
    pub threads: usize,
    /// Deepest nesting across all threads.
    pub max_depth: usize,
}

/// Validate a serialised Chrome trace: it must be a parseable JSON array
/// whose elements are `B`/`E` events with `name`/`ts`/`pid`/`tid`, with
/// non-decreasing timestamps and matched begin/end pairs per thread.
///
/// Returns summary stats on success, a description of the first problem
/// otherwise. The trace well-formedness tests and the `fig_profile` CI
/// step both run this over freshly written traces.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceStats, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .as_array()
        .ok_or_else(|| "trace root is not a JSON array".to_string())?;

    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
    let mut last_ts: std::collections::BTreeMap<u64, f64> = Default::default();
    let mut spans = 0usize;
    let mut max_depth = 0usize;

    for (i, ev) in events.iter().enumerate() {
        let obj = ev
            .as_object()
            .ok_or_else(|| format!("event {i} is not an object"))?;
        let name = obj
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} has no string 'name'"))?;
        let ph = obj
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} has no string 'ph'"))?;
        let ts = obj
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i} has no numeric 'ts'"))?;
        obj.get("pid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i} has no integer 'pid'"))?;
        let tid = obj
            .get("tid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i} has no integer 'tid'"))?;

        if let Some(&prev) = last_ts.get(&tid) {
            if ts < prev {
                return Err(format!(
                    "event {i}: timestamp went backwards on tid {tid} ({ts} < {prev})"
                ));
            }
        }
        last_ts.insert(tid, ts);

        let stack = stacks.entry(tid).or_default();
        match ph {
            "B" => {
                stack.push(name.to_string());
                max_depth = max_depth.max(stack.len());
            }
            "E" => match stack.pop() {
                Some(open) if open == name => spans += 1,
                Some(open) => {
                    return Err(format!(
                        "event {i}: end of '{name}' but '{open}' is open on tid {tid}"
                    ));
                }
                None => {
                    return Err(format!(
                        "event {i}: end of '{name}' with no open span on tid {tid}"
                    ));
                }
            },
            other => return Err(format!("event {i}: unsupported phase '{other}'")),
        }
    }

    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("span '{open}' left open on tid {tid}"));
        }
    }

    Ok(ChromeTraceStats {
        events: events.len(),
        spans,
        threads: stacks.len(),
        max_depth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, ph: u8, ts_us: u64) -> ChromeEvent {
        ChromeEvent { name, ph, ts_us }
    }

    #[test]
    fn round_trips_through_validator() {
        let mut trace = ChromeTrace::new();
        trace.push(ev("engine_total", b'B', 0));
        trace.push(ev("heapify", b'B', 2));
        trace.push(ev("heapify", b'E', 4));
        trace.push(ev("arrival", b'B', 5));
        trace.push(ev("arrival", b'E', 9));
        trace.push(ev("engine_total", b'E', 20));
        let stats = validate_chrome_trace(&trace.to_json()).expect("valid trace");
        assert_eq!(stats.events, 6);
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.threads, 1);
        assert_eq!(stats.max_depth, 2);
    }

    #[test]
    fn validator_keeps_one_span_stack_per_thread() {
        // Traces from other tools may interleave threads; spans nest per tid.
        let text = r#"[
{"name":"a","ph":"B","ts":0,"pid":1,"tid":0},
{"name":"b","ph":"B","ts":1,"pid":1,"tid":1},
{"name":"a","ph":"E","ts":2,"pid":1,"tid":0},
{"name":"b","ph":"E","ts":3,"pid":1,"tid":1}
]"#;
        let stats = validate_chrome_trace(text).expect("valid two-thread trace");
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.max_depth, 1);
    }

    #[test]
    fn rejects_mismatched_and_unclosed_spans() {
        let mut trace = ChromeTrace::new();
        trace.push(ev("a", b'B', 0));
        trace.push(ev("b", b'E', 1));
        assert!(validate_chrome_trace(&trace.to_json())
            .unwrap_err()
            .contains("'a' is open"));

        let mut trace = ChromeTrace::new();
        trace.push(ev("a", b'B', 0));
        assert!(validate_chrome_trace(&trace.to_json())
            .unwrap_err()
            .contains("left open"));

        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"a\":1}").is_err());
    }

    #[test]
    fn cap_counts_dropped_events() {
        let mut trace = ChromeTrace::new();
        trace.cap = 2;
        for _ in 0..5 {
            trace.push(ev("x", b'B', 0));
        }
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.dropped(), 3);
    }
}
