//! Fixed-interval resource-utilisation time series.
//!
//! The Azure dataset provides CPU utilisation "for each VM at 5-minute
//! granularity" (§3.2.1); the Alibaba dataset provides analogous series for
//! container memory, memory bandwidth, disk and network. [`TimeSeries`] is
//! the in-memory representation used throughout the feasibility analysis and
//! the trace-driven cluster simulation: a start offset, a sample interval and
//! a vector of utilisation samples normalised to the resource's allocation
//! (`1.0` = the VM is using 100 % of what it was sold).

use serde::{Deserialize, Serialize};

/// Seconds in one trace sampling interval (5 minutes).
pub const DEFAULT_INTERVAL_SECS: f64 = 300.0;

/// A utilisation time series sampled at a fixed interval.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    /// Seconds between consecutive samples.
    interval_secs: f64,
    /// Utilisation samples, each in `[0, 1]` relative to the allocation.
    samples: Vec<f64>,
}

impl TimeSeries {
    /// Create a series from samples (values are clamped into `[0, 1]`).
    pub fn new(interval_secs: f64, samples: Vec<f64>) -> Self {
        let interval_secs = if interval_secs > 0.0 {
            interval_secs
        } else {
            DEFAULT_INTERVAL_SECS
        };
        let samples = samples.into_iter().map(|s| s.clamp(0.0, 1.0)).collect();
        TimeSeries {
            interval_secs,
            samples,
        }
    }

    /// Create a series at the default 5-minute interval.
    pub fn five_minute(samples: Vec<f64>) -> Self {
        Self::new(DEFAULT_INTERVAL_SECS, samples)
    }

    /// Sample interval in seconds.
    pub fn interval_secs(&self) -> f64 {
        self.interval_secs
    }

    /// The raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Owned heap bytes behind the series (the sample buffer's capacity).
    /// Feeds the engine's per-subsystem memory ledger.
    pub fn accounted_bytes(&self) -> u64 {
        deflate_core::mem::vec_capacity_bytes(&self.samples)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total duration covered, in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.samples.len() as f64 * self.interval_secs
    }

    /// Utilisation at an arbitrary time offset (seconds), using the sample
    /// covering that instant; times beyond the end return the last sample,
    /// an empty series returns 0.
    pub fn at(&self, time_secs: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let idx = (time_secs / self.interval_secs).floor() as usize;
        self.samples[idx.min(self.samples.len() - 1)]
    }

    /// Mean utilisation.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Maximum utilisation.
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// The `p`-th percentile (`p` in `[0, 100]`) using linear interpolation
    /// between order statistics.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.samples, p)
    }

    /// Fraction of samples strictly above `threshold` — the paper's core
    /// feasibility metric: "the percentage of time for which the maximum CPU
    /// usage over each interval in the original trace exceeds this value"
    /// (§3.2.1).
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let above = self.samples.iter().filter(|&&s| s > threshold).count();
        above as f64 / self.samples.len() as f64
    }

    /// Fraction of time a VM deflated to `1 − deflation` of its allocation
    /// would be underallocated (usage above the deflated allocation).
    pub fn fraction_underallocated(&self, deflation: f64) -> f64 {
        self.fraction_above(1.0 - deflation.clamp(0.0, 1.0))
    }

    /// Total underallocation area (Figure 4): the integral, over the trace,
    /// of `max(0, usage − allocation_fraction)` in units of
    /// allocation-seconds. Normalised by the trace duration this is the
    /// throughput loss under the worst-case linear performance assumption.
    pub fn underallocation_area(&self, allocation_fraction: f64) -> f64 {
        let a = allocation_fraction.clamp(0.0, 1.0);
        self.samples
            .iter()
            .map(|&s| (s - a).max(0.0) * self.interval_secs)
            .sum()
    }

    /// Relative throughput loss caused by capping the allocation at
    /// `allocation_fraction`: lost demand divided by total demand. Returns 0
    /// for an all-idle trace.
    pub fn throughput_loss(&self, allocation_fraction: f64) -> f64 {
        let total: f64 = self.samples.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let a = allocation_fraction.clamp(0.0, 1.0);
        let lost: f64 = self.samples.iter().map(|&s| (s - a).max(0.0)).sum();
        lost / total
    }

    /// Element-wise maximum of two series (used to combine e.g. incoming and
    /// outgoing network usage); the result has the length of the longer
    /// series.
    pub fn pointwise_max(&self, other: &TimeSeries) -> TimeSeries {
        let n = self.samples.len().max(other.samples.len());
        let samples = (0..n)
            .map(|i| {
                let a = self.samples.get(i).copied().unwrap_or(0.0);
                let b = other.samples.get(i).copied().unwrap_or(0.0);
                a.max(b)
            })
            .collect();
        TimeSeries::new(self.interval_secs, samples)
    }

    /// Element-wise saturating sum of two series (clamped at 1.0).
    pub fn pointwise_sum(&self, other: &TimeSeries) -> TimeSeries {
        let n = self.samples.len().max(other.samples.len());
        let samples = (0..n)
            .map(|i| {
                let a = self.samples.get(i).copied().unwrap_or(0.0);
                let b = other.samples.get(i).copied().unwrap_or(0.0);
                (a + b).min(1.0)
            })
            .collect();
        TimeSeries::new(self.interval_secs, samples)
    }
}

/// Percentile of a slice (`p` in `[0, 100]`), linear interpolation, 0 for an
/// empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let p = p.clamp(0.0, 100.0) / 100.0;
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Five-number summary used to report the paper's box plots (Figures 5–12).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxplotSummary {
    /// Minimum observation.
    pub min: f64,
    /// 25th percentile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Maximum observation.
    pub max: f64,
    /// Arithmetic mean (shown as a marker in several of the paper's plots).
    pub mean: f64,
}

impl BoxplotSummary {
    /// Summarise a set of observations. Returns an all-zero summary for an
    /// empty input.
    pub fn from_values(values: &[f64]) -> Self {
        if values.is_empty() {
            return BoxplotSummary {
                min: 0.0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                max: 0.0,
                mean: 0.0,
            };
        }
        BoxplotSummary {
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            q1: percentile(values, 25.0),
            median: percentile(values, 50.0),
            q3: percentile(values, 75.0),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mean: values.iter().sum::<f64>() / values.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_clamps_and_defaults() {
        let ts = TimeSeries::new(-5.0, vec![0.5, 1.7, -0.2]);
        assert_eq!(ts.interval_secs(), DEFAULT_INTERVAL_SECS);
        assert_eq!(ts.samples(), &[0.5, 1.0, 0.0]);
        assert_eq!(ts.len(), 3);
        assert!(!ts.is_empty());
        assert_eq!(ts.duration_secs(), 900.0);
    }

    #[test]
    fn at_indexes_by_interval() {
        let ts = TimeSeries::new(10.0, vec![0.1, 0.2, 0.3]);
        assert_eq!(ts.at(0.0), 0.1);
        assert_eq!(ts.at(15.0), 0.2);
        assert_eq!(ts.at(29.9), 0.3);
        assert_eq!(ts.at(1e9), 0.3);
        assert_eq!(TimeSeries::five_minute(vec![]).at(5.0), 0.0);
    }

    #[test]
    fn summary_statistics() {
        let ts = TimeSeries::five_minute(vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        assert!((ts.mean() - 0.5).abs() < 1e-12);
        assert_eq!(ts.max(), 1.0);
        assert!((ts.percentile(50.0) - 0.5).abs() < 1e-12);
        assert!((ts.percentile(0.0) - 0.0).abs() < 1e-12);
        assert!((ts.percentile(100.0) - 1.0).abs() < 1e-12);
        assert_eq!(TimeSeries::five_minute(vec![]).mean(), 0.0);
    }

    #[test]
    fn fraction_above_and_underallocated() {
        let ts = TimeSeries::five_minute(vec![0.1, 0.2, 0.6, 0.9]);
        assert!((ts.fraction_above(0.5) - 0.5).abs() < 1e-12);
        // 30% deflation → allocation 0.7 → only the 0.9 sample exceeds it.
        assert!((ts.fraction_underallocated(0.3) - 0.25).abs() < 1e-12);
        assert_eq!(ts.fraction_underallocated(0.0), 0.0);
    }

    #[test]
    fn underallocation_area_and_throughput_loss() {
        let ts = TimeSeries::new(1.0, vec![0.5, 0.8, 0.2]);
        // Allocation capped at 0.5: losses are 0, 0.3, 0.
        assert!((ts.underallocation_area(0.5) - 0.3).abs() < 1e-12);
        assert!((ts.throughput_loss(0.5) - 0.3 / 1.5).abs() < 1e-12);
        assert_eq!(ts.throughput_loss(1.0), 0.0);
        assert_eq!(
            TimeSeries::new(1.0, vec![0.0, 0.0]).throughput_loss(0.0),
            0.0
        );
    }

    #[test]
    fn pointwise_combinators() {
        let a = TimeSeries::new(1.0, vec![0.2, 0.8]);
        let b = TimeSeries::new(1.0, vec![0.5, 0.5, 0.4]);
        let m = a.pointwise_max(&b);
        assert_eq!(m.samples(), &[0.5, 0.8, 0.4]);
        let s = a.pointwise_sum(&b);
        assert_eq!(s.samples(), &[0.7, 1.0, 0.4]);
    }

    #[test]
    fn percentile_helper_edge_cases() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert!((percentile(&[1.0, 2.0], 50.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn boxplot_summary() {
        let s = BoxplotSummary::from_values(&[0.1, 0.2, 0.3, 0.4, 0.5]);
        assert_eq!(s.min, 0.1);
        assert_eq!(s.max, 0.5);
        assert!((s.median - 0.3).abs() < 1e-12);
        assert!((s.mean - 0.3).abs() < 1e-12);
        assert!(s.q1 < s.median && s.median < s.q3);
        let empty = BoxplotSummary::from_values(&[]);
        assert_eq!(empty.max, 0.0);
    }
}
