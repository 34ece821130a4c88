//! Experiment scale presets.
//!
//! Every experiment can run at two scales: `Quick` (seconds, used by unit
//! tests and Criterion iterations) and `Full` (the default for the
//! experiment binaries, sized like the paper's evaluation: a 10,000-VM
//! trace for the cluster simulation, thousands of VMs for the feasibility
//! analysis, minutes of simulated web traffic).

use serde::{Deserialize, Serialize};

/// Experiment size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Small inputs for fast iteration (tests, Criterion).
    Quick,
    /// Paper-sized inputs for the experiment binaries.
    Full,
}

impl Scale {
    /// Parse from a CLI argument / environment variable value.
    pub fn from_arg(arg: Option<&str>) -> Scale {
        match arg {
            Some("full") | Some("FULL") => Scale::Full,
            Some("quick") | Some("QUICK") => Scale::Quick,
            _ => Scale::Full,
        }
    }

    /// Scale selected for an experiment binary: the first CLI argument, or
    /// the `DEFLATE_SCALE` environment variable, defaulting to `Full`.
    pub fn from_env_and_args() -> Scale {
        let arg = std::env::args().nth(1);
        if let Some(a) = arg.as_deref() {
            return Scale::from_arg(Some(a));
        }
        match std::env::var("DEFLATE_SCALE") {
            Ok(v) => Scale::from_arg(Some(v.as_str())),
            Err(_) => Scale::Full,
        }
    }

    /// Number of Azure VMs for the feasibility analysis (Figures 5–8).
    pub fn azure_vms(&self) -> usize {
        match self {
            Scale::Quick => 600,
            Scale::Full => 8_000,
        }
    }

    /// Number of Alibaba containers (Figures 9–12).
    pub fn alibaba_containers(&self) -> usize {
        match self {
            Scale::Quick => 300,
            Scale::Full => 4_000,
        }
    }

    /// Simulated duration of the web-serving experiments, seconds
    /// (Figures 16, 17, 19).
    pub fn web_duration_secs(&self) -> f64 {
        match self {
            Scale::Quick => 20.0,
            Scale::Full => 120.0,
        }
    }

    /// Number of Monte-Carlo requests for the microservice experiment
    /// (Figure 18).
    pub fn microservice_requests(&self) -> usize {
        match self {
            Scale::Quick => 5_000,
            Scale::Full => 50_000,
        }
    }

    /// Number of VMs in the cluster-simulation trace (Figures 20–22; the
    /// paper samples 10,000 VMs).
    pub fn cluster_vms(&self) -> usize {
        match self {
            Scale::Quick => 800,
            Scale::Full => 10_000,
        }
    }

    /// Duration of the cluster-simulation trace, hours.
    pub fn cluster_trace_hours(&self) -> f64 {
        match self {
            Scale::Quick => 12.0,
            Scale::Full => 24.0,
        }
    }

    /// Cluster sizes (VM counts) the `fig_scale` engine-scaling sweep
    /// replays. Quick mode still includes a 100,000-VM row — the point of
    /// the sweep is scale, and CI exercises exactly this list; full mode
    /// adds the million-VM row.
    pub fn scale_sweep_vms(&self) -> &'static [usize] {
        match self {
            Scale::Quick => &[10_000, 100_000],
            Scale::Full => &[10_000, 100_000, 1_000_000],
        }
    }

    /// Duration of the `fig_scale` trace, hours. Deliberately shorter than
    /// [`cluster_trace_hours`](Self::cluster_trace_hours): per-VM
    /// utilisation traces are sampled every five minutes, so at a million
    /// VMs the trace length is what bounds resident memory.
    pub fn scale_trace_hours(&self) -> f64 {
        4.0
    }

    /// The deterministic seed every experiment derives its RNG streams from.
    pub fn seed(&self) -> u64 {
        0xDEF1A7E
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing() {
        assert_eq!(Scale::from_arg(Some("quick")), Scale::Quick);
        assert_eq!(Scale::from_arg(Some("full")), Scale::Full);
        assert_eq!(Scale::from_arg(Some("bogus")), Scale::Full);
        assert_eq!(Scale::from_arg(None), Scale::Full);
    }

    #[test]
    fn quick_is_smaller_than_full() {
        assert!(Scale::Quick.azure_vms() < Scale::Full.azure_vms());
        assert!(Scale::Quick.cluster_vms() < Scale::Full.cluster_vms());
        assert!(Scale::Quick.web_duration_secs() < Scale::Full.web_duration_secs());
        assert!(Scale::Quick.microservice_requests() < Scale::Full.microservice_requests());
        assert!(Scale::Quick.alibaba_containers() < Scale::Full.alibaba_containers());
        assert!(Scale::Quick.cluster_trace_hours() <= Scale::Full.cluster_trace_hours());
        assert_eq!(Scale::Quick.seed(), Scale::Full.seed());
    }
}
