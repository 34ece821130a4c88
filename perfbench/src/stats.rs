//! Small measurement helpers: per-call timers, medians, percentiles and
//! the result digest.

use deflate_cluster::metrics::SimResult;
use std::collections::BTreeMap;
use std::time::Instant;

/// Named per-layer figures of one traced repetition.
pub type Layers = BTreeMap<String, f64>;

/// Wall-clock samples of every call to one function.
#[derive(Default)]
pub struct CallTimer {
    secs: Vec<f64>,
}

impl CallTimer {
    /// Run `f`, recording how long it took.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.secs.push(started.elapsed().as_secs_f64());
        out
    }

    /// `<prefix>.calls`, `.busy_s`, `.p50_us` and `.p99_us` into `layers`.
    pub fn report(mut self, prefix: &str, layers: &mut Layers) {
        self.secs.sort_by(f64::total_cmp);
        let busy = self.secs.iter().fold(0.0, |sum, s| sum + s);
        layers.insert(format!("{prefix}.calls"), self.secs.len() as f64);
        layers.insert(format!("{prefix}.busy_s"), busy);
        layers.insert(
            format!("{prefix}.p50_us"),
            percentile(&self.secs, 0.50) * 1e6,
        );
        layers.insert(
            format!("{prefix}.p99_us"),
            percentile(&self.secs, 0.99) * 1e6,
        );
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of the values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Per-key median over repetitions.
pub fn median_layers(reps: &[Layers]) -> Layers {
    let mut out = Layers::new();
    if let Some(first) = reps.first() {
        for key in first.keys() {
            let values: Vec<f64> = reps.iter().filter_map(|r| r.get(key).copied()).collect();
            out.insert(key.clone(), median(&values));
        }
    }
    out
}

/// The deterministic fields of a run, in comparison order: counters,
/// transient and scheduler stats, event and migration counts, the
/// failure-probability and throughput-loss bits, and the utilisation
/// series. Wall-clock time is excluded.
pub fn digest_fields(result: &SimResult) -> Vec<(&'static str, String)> {
    let utilization: Vec<(u64, u64)> = result
        .utilization
        .iter()
        .map(|&(t, u)| (t.to_bits(), u.to_bits()))
        .collect();
    vec![
        ("counters", format!("{:?}", result.counters)),
        ("transient", format!("{:?}", result.transient)),
        ("scheduler", format!("{:?}", result.scheduler)),
        ("migrations", result.migrations.len().to_string()),
        ("events", result.runtime.events_processed.to_string()),
        (
            "failure_probability",
            format!("{:016x}", result.failure_probability().to_bits()),
        ),
        (
            "throughput_loss",
            format!("{:016x}", result.mean_throughput_loss().to_bits()),
        ),
        ("utilization", format!("{utilization:?}")),
    ]
}

/// FNV-1a over [`digest_fields`].
pub fn digest(result: &SimResult) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, value) in digest_fields(result) {
        for byte in name
            .bytes()
            .chain([b'='])
            .chain(value.bytes())
            .chain([b';'])
        {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The first digest field on which two runs differ, with both values.
pub fn first_difference(a: &SimResult, b: &SimResult) -> Option<(&'static str, String, String)> {
    digest_fields(a)
        .into_iter()
        .zip(digest_fields(b))
        .find(|((_, x), (_, y))| x != y)
        .map(|((name, x), (_, y))| (name, x, y))
}

/// Host seconds of a fixed, cache-resident probe that never changes with
/// the program under test: SipHash map updates, heap pushes and pops, and
/// table reads and writes, on about 100 KiB of data.
#[inline(never)]
fn host_speed_probe() -> f64 {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    use std::hint::black_box;
    const SLOTS: usize = 1 << 12;
    let started = Instant::now();
    let mut table = vec![0u64; SLOTS];
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut heap = BinaryHeap::new();
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    for i in 0..1_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = x as usize % SLOTS;
        table[slot] = table[slot].wrapping_add(i);
        *map.entry(x % SLOTS as u64).or_insert(0) += table[slot * 7 % SLOTS];
        heap.push(Reverse(x));
        if heap.len() > 1024 {
            heap.pop();
        }
    }
    black_box((table, map, heap));
    started.elapsed().as_secs_f64()
}

/// Timed sections interleaved with host-speed probes: a probe runs before
/// every section, and one more closes the series.
///
/// The shared host's speed drifts by up to 2x over tens of seconds as other
/// tenants load it, and the engine slows down together with the probe. So
/// each section is reported at a reference speed: its seconds times
/// `reference_s` over the mean of the probes just before and just after it.
#[derive(Default)]
pub struct ProbedTimes {
    /// `probes[i]` ran just before `secs[i]`.
    probes: Vec<f64>,
    secs: Vec<f64>,
}

impl ProbedTimes {
    /// Probe the host, then run and time `f`.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.probes.push(host_speed_probe());
        let started = Instant::now();
        let out = f();
        self.secs.push(started.elapsed().as_secs_f64());
        out
    }

    /// Median host seconds of the sections, unscaled.
    pub fn host_median(&self) -> f64 {
        median(&self.secs)
    }

    /// Median probe seconds.
    pub fn probe_median(&self) -> f64 {
        median(&self.probes)
    }

    /// Median section time at the speed where the probe takes
    /// `reference_s`. Runs the closing probe on first use.
    pub fn scaled_median(&mut self, reference_s: f64) -> f64 {
        if self.probes.len() == self.secs.len() {
            self.probes.push(host_speed_probe());
        }
        let scaled: Vec<f64> = self
            .secs
            .iter()
            .zip(self.probes.windows(2))
            .map(|(secs, around)| secs * reference_s * 2.0 / (around[0] + around[1]))
            .collect();
        median(&scaled)
    }
}
