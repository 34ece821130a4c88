//! Elastic-application specifications and deterministic demand signals.
//!
//! An **elastic application** is a pool of identical replica VMs serving a
//! request stream whose rate varies over time. The autoscaler resizes the
//! pool to keep the pool's utilisation near a setpoint. Everything here is
//! a pure function of simulated time, so runs are deterministic.

use deflate_core::resources::ResourceVector;
use deflate_core::vm::{Priority, VmClass, VmId, VmSpec};
use serde::{Deserialize, Serialize};

/// A deterministic request-rate signal, requests per second as a pure
/// function of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DemandCurve {
    /// A flat request rate.
    Constant {
        /// Requests per second.
        rps: f64,
    },
    /// A smooth day/night cycle between `base_rps` and `peak_rps`:
    /// `rate(t) = base + (peak − base) · ½(1 + cos(2π(t − peak_at)/period))`.
    /// The rate peaks at `peak_at_secs` (and every period after) and
    /// bottoms out half a period later.
    Diurnal {
        /// Request rate at the trough.
        base_rps: f64,
        /// Request rate at the peak.
        peak_rps: f64,
        /// Cycle length, seconds.
        period_secs: f64,
        /// Time of the (first) peak, seconds.
        peak_at_secs: f64,
    },
}

impl Default for DemandCurve {
    fn default() -> Self {
        DemandCurve::Constant { rps: 0.0 }
    }
}

impl DemandCurve {
    /// The request rate at simulated time `t`, requests per second.
    pub fn rate(&self, t: f64) -> f64 {
        match *self {
            DemandCurve::Constant { rps } => rps.max(0.0),
            DemandCurve::Diurnal {
                base_rps,
                peak_rps,
                period_secs,
                peak_at_secs,
            } => {
                let period = period_secs.max(1.0);
                let angle = std::f64::consts::TAU * ((t - peak_at_secs) / period);
                let swing = (peak_rps - base_rps).max(0.0);
                (base_rps + swing * 0.5 * (1.0 + angle.cos())).max(0.0)
            }
        }
    }

    /// Short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            DemandCurve::Constant { .. } => "constant",
            DemandCurve::Diurnal { .. } => "diurnal",
        }
    }
}

/// Specification of one elastic application: the replica template, the
/// pool bounds and the demand signal.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ElasticApp {
    /// Application id — the entity id carried by `ScaleOut` / `ScaleIn`
    /// events and their same-time tie-break key.
    pub app: u32,
    /// Resource allocation of one replica VM.
    pub replica_size: ResourceVector,
    /// Deflation priority of the replicas (they are always deflatable —
    /// an elastic interactive application is exactly the paper's target
    /// workload).
    pub replica_priority: Priority,
    /// Service rate of one *undeflated* replica, requests per second. A
    /// replica deflated to allocation fraction `f` serves `f` times this.
    pub replica_rate_rps: f64,
    /// First VM id used for replicas; replica `n` gets
    /// `VmId(replica_ids_from + n)`. Callers must keep this range disjoint
    /// from the trace workload's ids.
    pub replica_ids_from: u64,
    /// Lower bound on the replica pool (never scale in below this).
    pub min_replicas: usize,
    /// Upper bound on the replica pool (never scale out above this).
    pub max_replicas: usize,
    /// The request-rate signal the pool serves.
    pub demand: DemandCurve,
    /// Time the application comes online (its bootstrap scale-out event).
    pub start_secs: f64,
}

impl ElasticApp {
    /// The spec of replica `n` — a deflatable interactive VM with a
    /// deterministic id.
    pub fn replica_spec(&self, n: u64) -> VmSpec {
        VmSpec::deflatable(
            VmId(self.replica_ids_from + n),
            VmClass::Interactive,
            self.replica_size,
        )
        .with_priority(self.replica_priority)
    }

    /// The replica count that serves `lambda_rps` at `setpoint`
    /// utilisation, clamped into `[min_replicas, max_replicas]`.
    pub fn desired_replicas(&self, lambda_rps: f64, setpoint: f64) -> usize {
        let per_replica = (self.replica_rate_rps * setpoint.clamp(0.05, 1.0)).max(1e-9);
        let desired = (lambda_rps.max(0.0) / per_replica).ceil() as usize;
        desired.clamp(self.min_replicas.max(1), self.max_replicas.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> ElasticApp {
        ElasticApp {
            app: 0,
            replica_size: ResourceVector::cpu_mem(4000.0, 8192.0),
            replica_priority: Priority::new(0.5),
            replica_rate_rps: 100.0,
            replica_ids_from: 1_000_000,
            min_replicas: 2,
            max_replicas: 20,
            demand: DemandCurve::Diurnal {
                base_rps: 200.0,
                peak_rps: 1000.0,
                period_secs: 3600.0,
                peak_at_secs: 0.0,
            },
            start_secs: 0.0,
        }
    }

    #[test]
    fn diurnal_demand_peaks_and_troughs() {
        let d = app().demand;
        assert!((d.rate(0.0) - 1000.0).abs() < 1e-9);
        assert!((d.rate(1800.0) - 200.0).abs() < 1e-9);
        assert!((d.rate(3600.0) - 1000.0).abs() < 1e-9);
        // Never negative, even for degenerate shapes.
        let broken = DemandCurve::Diurnal {
            base_rps: -5.0,
            peak_rps: -1.0,
            period_secs: 0.0,
            peak_at_secs: 0.0,
        };
        assert!(broken.rate(123.0) >= 0.0);
        assert_eq!(DemandCurve::Constant { rps: 50.0 }.rate(1e6), 50.0);
    }

    #[test]
    fn desired_replicas_tracks_the_setpoint() {
        let a = app();
        // 1000 rps at 60 % of 100 rps/replica → ceil(1000/60) = 17.
        assert_eq!(a.desired_replicas(1000.0, 0.6), 17);
        // Clamped at the pool bounds.
        assert_eq!(a.desired_replicas(0.0, 0.6), 2);
        assert_eq!(a.desired_replicas(1e9, 0.6), 20);
    }

    #[test]
    fn replica_specs_are_deterministic_and_deflatable() {
        let a = app();
        let s0 = a.replica_spec(0);
        let s7 = a.replica_spec(7);
        assert_eq!(s0.id, VmId(1_000_000));
        assert_eq!(s7.id, VmId(1_000_007));
        assert!(s0.deflatable);
        assert_eq!(s0.class, VmClass::Interactive);
        assert_eq!(a.replica_spec(0), a.replica_spec(0));
    }
}
