//! Engine-runtime accounting shared by every `fig_*` binary: the
//! `engine:` footer (runs, events, wall-clock, throughput, peak RSS)
//! and the `/proc/self/status` peak-RSS reader.
//!
//! This used to live in `deflate-bench` (with RSS only in `fig_scale`);
//! it sits here so the sink's [`report`](crate::TelemetrySink::report)
//! and the bench tables format runtime identically.

/// Aggregate engine-runtime accounting across the simulation runs behind
/// one experiment table. Every `fig_*` binary tallies each run and
/// prints [`footer`](Self::footer) under its table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RuntimeTally {
    /// Simulation runs tallied.
    pub runs: usize,
    /// Total wall-clock seconds across those runs.
    pub wall_clock_secs: f64,
    /// Total events the engine delivered across those runs.
    pub events: u64,
}

/// The process-wide tally behind [`append_process_footer_json`]: every
/// [`RuntimeTally::add_run`] also folds here, so a `fig_*` binary that
/// spreads runs over several per-table tallies still has one aggregate
/// footer for the machine-readable `DEFLATE_FOOTER_JSON` line.
static PROCESS_TALLY: std::sync::Mutex<RuntimeTally> = std::sync::Mutex::new(RuntimeTally {
    runs: 0,
    wall_clock_secs: 0.0,
    events: 0,
});

/// A copy of the process-wide runtime tally (all `add_run` calls made by
/// this process so far).
pub fn process_tally() -> RuntimeTally {
    *PROCESS_TALLY.lock().expect("process tally lock")
}

/// Append the process-wide footer for `fig` as a JSON line to the path
/// in `DEFLATE_FOOTER_JSON` — the one call every `fig_*` binary makes
/// right before exiting. No-op when the variable is unset.
pub fn append_process_footer_json(fig: &str) {
    process_tally().append_footer_json(fig);
}

impl RuntimeTally {
    /// Fold one run into the tally (and into the process-wide tally
    /// behind [`process_tally`]).
    pub fn add_run(&mut self, wall_clock_secs: f64, events: u64) {
        self.runs += 1;
        self.wall_clock_secs += wall_clock_secs;
        self.events += events;
        let mut global = PROCESS_TALLY.lock().expect("process tally lock");
        global.runs += 1;
        global.wall_clock_secs += wall_clock_secs;
        global.events += events;
    }

    /// Aggregate events/s across the tallied runs (0 before any run).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_clock_secs > 0.0 {
            self.events as f64 / self.wall_clock_secs
        } else {
            0.0
        }
    }

    /// Render the footer line with the process's current peak RSS:
    /// `engine: N runs, E events, W wall-clock, R events/s, rss=X MiB`
    /// (`rss=n/a` where procfs is unavailable).
    pub fn footer(&self) -> String {
        self.footer_with_rss(peak_rss_mib())
    }

    /// [`footer`](Self::footer) with an explicit RSS sample — what tests
    /// pin, since live RSS is nondeterministic.
    pub fn footer_with_rss(&self, rss_mib: Option<f64>) -> String {
        let rss = match rss_mib {
            Some(mib) => format!("{mib:.0} MiB"),
            None => "n/a".to_string(),
        };
        format!(
            "engine: {} runs, {} events, {} wall-clock, {:.0} events/s, rss={}",
            self.runs,
            self.events,
            secs(self.wall_clock_secs),
            self.events_per_sec(),
            rss
        )
    }

    /// The footer as one JSON object line — the machine-readable twin of
    /// [`footer`](Self::footer), keyed by the experiment name. `peak_rss_mib`
    /// is `null` where procfs is unavailable.
    pub fn footer_json(&self, fig: &str, rss_mib: Option<f64>) -> String {
        let rss = match rss_mib {
            Some(mib) => format!("{mib:.3}"),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"fig\":\"{}\",\"runs\":{},\"events\":{},",
                "\"wall_clock_secs\":{:.6},\"events_per_sec\":{:.3},",
                "\"peak_rss_mib\":{}}}"
            ),
            fig,
            self.runs,
            self.events,
            self.wall_clock_secs,
            self.events_per_sec(),
            rss
        )
    }

    /// Append the [`footer_json`](Self::footer_json) line to the path in
    /// the `DEFLATE_FOOTER_JSON` environment variable, if set. Every
    /// `fig_*` binary calls this right after printing its human footer;
    /// CI points the variable at `bench.json` and uploads the artifact.
    /// I/O problems degrade to a stderr warning — a metrics side-channel
    /// must never fail the experiment.
    pub fn append_footer_json(&self, fig: &str) {
        let Ok(path) = std::env::var("DEFLATE_FOOTER_JSON") else {
            return;
        };
        if path.is_empty() {
            return;
        }
        let line = self.footer_json(fig, peak_rss_mib());
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| {
                use std::io::Write;
                writeln!(f, "{line}")
            });
        if let Err(err) = appended {
            eprintln!("warning: DEFLATE_FOOTER_JSON append to {path} failed: {err}");
        }
    }
}

/// Format seconds, switching to milliseconds below one second.
pub fn secs(x: f64) -> String {
    if x < 1.0 {
        format!("{:.1} ms", x * 1000.0)
    } else {
        format!("{x:.2} s")
    }
}

/// The process's peak resident-set size in MiB, from
/// `/proc/self/status`'s `VmHWM` line.
///
/// Degrades gracefully to `None` — rendered as `rss=n/a` — when procfs
/// is missing (non-Linux), the line is absent, or the value is
/// unparseable or zero; it never reports a bogus `0`.
pub fn peak_rss_mib() -> Option<f64> {
    peak_rss_mib_from(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Parse the `VmHWM` line out of a `/proc/self/status` document.
/// Split from [`peak_rss_mib`] so the degraded paths are testable.
pub fn peak_rss_mib_from(status: &str) -> Option<f64> {
    status_kib(status, "VmHWM:").map(|kb| kb / 1024.0)
}

/// Reset the kernel's peak-RSS high-water mark (`VmHWM`) to the current
/// RSS by writing `5` to `/proc/self/clear_refs` (see `proc(5)`).
///
/// `fig_memory` calls this after building a workload so the `VmHWM` it
/// compares accounted bytes against covers the *simulation run*, not the
/// trace-generation phase. Returns `false` — and changes nothing — where
/// procfs is unavailable or not writable (non-Linux, locked-down
/// containers); callers must then label the peak as process-wide.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5\n").is_ok()
}

/// The process's *current* resident-set size in kiB, from
/// `/proc/self/status`'s `VmRSS` line — the live counterpart of
/// [`peak_rss_mib`], sampled into the `mem.rss_kib` gauge on the
/// engine's utilization-tick cadence. Same graceful degradation: `None`
/// (gauge simply absent) on non-Linux hosts or unparseable procfs.
pub fn rss_kib() -> Option<f64> {
    rss_kib_from(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Parse the `VmRSS` line out of a `/proc/self/status` document.
/// Split from [`rss_kib`] so the degraded paths are testable.
pub fn rss_kib_from(status: &str) -> Option<f64> {
    status_kib(status, "VmRSS:")
}

/// The process's file-backed resident pages in kiB, from
/// `/proc/self/status`'s `RssFile` line: the executable's and its shared
/// libraries' code and read-only data. No heap ledger sees these pages;
/// `fig_memory` reports them as its `code` row. `None` on non-Linux
/// hosts or unparseable procfs.
pub fn rss_file_kib() -> Option<f64> {
    rss_file_kib_from(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Parse the `RssFile` line out of a `/proc/self/status` document.
/// Split from [`rss_file_kib`] so the degraded paths are testable.
fn rss_file_kib_from(status: &str) -> Option<f64> {
    status_kib(status, "RssFile:")
}

/// Shared `/proc/self/status` field parser: the kiB value of `prefix`,
/// `None` when absent, unparseable or zero.
fn status_kib(status: &str, prefix: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with(prefix))?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    (kb > 0.0).then_some(kb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_accumulates() {
        let mut tally = RuntimeTally::default();
        tally.add_run(2.0, 100);
        tally.add_run(2.0, 100);
        assert_eq!(tally.runs, 2);
        assert_eq!(tally.events, 200);
        assert_eq!(tally.events_per_sec(), 50.0);
        assert_eq!(
            tally.footer_with_rss(None),
            "engine: 2 runs, 200 events, 4.00 s wall-clock, 50 events/s, rss=n/a"
        );
        assert_eq!(
            tally.footer_with_rss(Some(184.2)),
            "engine: 2 runs, 200 events, 4.00 s wall-clock, 50 events/s, rss=184 MiB"
        );
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(secs(0.25), "250.0 ms");
        assert_eq!(secs(2.5), "2.50 s");
    }

    #[test]
    fn rss_parser_degrades_gracefully() {
        assert_eq!(peak_rss_mib_from(""), None);
        assert_eq!(peak_rss_mib_from("VmPeak:  123 kB\n"), None);
        assert_eq!(peak_rss_mib_from("VmHWM:\n"), None);
        assert_eq!(peak_rss_mib_from("VmHWM:   junk kB\n"), None);
        // A zero high-water mark is procfs telling us nothing; report n/a
        // rather than a bogus 0.
        assert_eq!(peak_rss_mib_from("VmHWM:   0 kB\n"), None);
        assert_eq!(peak_rss_mib_from("VmHWM:   2048 kB\n"), Some(2.0));
    }

    #[test]
    fn live_rss_reads_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_mib().expect("VmHWM available on Linux");
            assert!(rss > 1.0);
            let live = rss_kib().expect("VmRSS available on Linux");
            assert!(live > 1024.0);
        }
    }

    #[test]
    fn vm_rss_parser_degrades_gracefully() {
        assert_eq!(rss_kib_from(""), None);
        assert_eq!(rss_kib_from("VmHWM:  4096 kB\n"), None);
        assert_eq!(rss_kib_from("VmRSS:   0 kB\n"), None);
        assert_eq!(rss_kib_from("VmRSS:   junk kB\n"), None);
        assert_eq!(rss_kib_from("VmRSS:   2048 kB\n"), Some(2048.0));
    }

    #[test]
    fn rss_file_parser_reads_only_its_line() {
        let status = "VmRSS:\t  9000 kB\nRssAnon:\t  6000 kB\nRssFile:\t  2900 kB\n";
        assert_eq!(rss_file_kib_from(status), Some(2900.0));
        assert_eq!(rss_file_kib_from("VmRSS:   2048 kB\n"), None);
        assert_eq!(rss_file_kib_from("RssFile:   0 kB\n"), None);
        if cfg!(target_os = "linux") {
            assert!(rss_file_kib().expect("RssFile available on Linux") > 0.0);
        }
    }

    #[test]
    fn footer_json_shape() {
        let mut tally = RuntimeTally::default();
        tally.add_run(2.0, 100);
        tally.add_run(2.0, 100);
        assert_eq!(
            tally.footer_json("fig_scale", Some(184.25)),
            "{\"fig\":\"fig_scale\",\"runs\":2,\"events\":200,\
             \"wall_clock_secs\":4.000000,\"events_per_sec\":50.000,\
             \"peak_rss_mib\":184.250}"
        );
        assert_eq!(
            tally.footer_json("fig_scale", None),
            "{\"fig\":\"fig_scale\",\"runs\":2,\"events\":200,\
             \"wall_clock_secs\":4.000000,\"events_per_sec\":50.000,\
             \"peak_rss_mib\":null}"
        );
    }

    #[test]
    fn footer_json_appends_to_env_path() {
        // Serialised with any other env-dependent test by cargo's
        // per-process test lock being absent — so use a unique path and
        // set/remove around the call.
        let dir = std::env::temp_dir().join(format!("deflate_footer_{}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        let mut tally = RuntimeTally::default();
        tally.add_run(1.0, 10);
        std::env::set_var("DEFLATE_FOOTER_JSON", &dir);
        tally.append_footer_json("fig_test");
        tally.append_footer_json("fig_test");
        std::env::remove_var("DEFLATE_FOOTER_JSON");
        let body = std::fs::read_to_string(&dir).expect("footer file written");
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"fig\":\"fig_test\","));
        let _ = std::fs::remove_file(&dir);
    }
}
