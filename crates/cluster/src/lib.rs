//! # deflate-cluster
//!
//! Cluster manager, per-server deflation controllers and the trace-driven
//! discrete-event cluster simulator of §6–§7.4.
//!
//! * [`spec`] — converting trace VMs into cluster workload items, cluster
//!   sizing and overcommitment helpers.
//! * [`manager`] — the centralized cluster manager: deflation-aware
//!   placement, the three-step admission protocol, the preemption and
//!   migration-only baselines, and the transient-capacity reclamation
//!   handler (deflate → deflate-then-migrate → migrate → evict).
//! * [`placement`] — the incremental placement index: cached
//!   [`ServerView`](deflate_core::placement::ServerView)s with dirty
//!   tracking, so each ranking pass re-derives only the servers whose
//!   state changed since the last one, and the ranking pass itself.
//! * [`scheduler`] — the global transfer scheduler: grants
//!   migration-bandwidth slots to queued transfers in policy order (FIFO /
//!   smallest-first / deadline-aware EDF with admission control).
//! * [`sim`] — the trace-driven simulation loop, built on the typed event
//!   engine of `deflate-transient` (arrivals, departures, capacity
//!   reclaim/restore, utilisation ticks).
//! * [`metrics`] — per-VM records and the cluster-level metrics of §7.4:
//!   reclamation-failure probability (Figure 20), throughput loss
//!   (Figure 21) and revenue (Figure 22), plus migration and
//!   transient-capacity accounting.
//!
//! # The reclaim decision ladder
//!
//! When the provider reclaims part of a server's capacity the manager
//! climbs a ladder, stopping at the first rung that restores the
//! capacity invariant:
//!
//! 1. **deflate** residents in place via the configured policy;
//! 2. **deflate-then-migrate** (optional, via
//!    [`TransferPolicy`](deflate_core::policy::TransferPolicy)): each
//!    migration candidate surrenders its page cache before the copy is
//!    estimated, shrinking the transfer under the deadline;
//! 3. **migrate** residents away — *costed*: each transfer takes
//!    page-copy time under the crate's
//!    [`MigrationCostModel`](deflate_hypervisor::migration::MigrationCostModel),
//!    queues behind per-server bandwidth budgets in the order decided by
//!    the [`TransferScheduler`] (FIFO /
//!    smallest-first / deadline-aware EDF with admission control), and is
//!    aborted (the VM evicted) if the reclamation deadline expires
//!    mid-transfer;
//! 4. **evict** whatever remains, counted as reclamation failures.
//!
//! The baselines cut the ladder short: preemption jumps straight to rung
//! 4, migration-only skips rungs 1–2.
//!
//! # Example
//!
//! A trace-driven simulation on transient servers with a capacity
//! schedule and costed live migration:
//!
//! ```
//! use deflate_cluster::prelude::*;
//! use deflate_core::policy::ProportionalDeflation;
//! use deflate_traces::azure::{AzureTraceConfig, AzureTraceGenerator};
//! use deflate_transient::signal::{CapacityProfile, CapacitySchedule, TransientConfig};
//! use std::sync::Arc;
//!
//! // A small deterministic Azure-style workload…
//! let traces = AzureTraceGenerator::generate(&AzureTraceConfig {
//!     num_vms: 40,
//!     duration_hours: 4.0,
//!     seed: 7,
//!     ..Default::default()
//! });
//! let workload = workload_from_azure(&traces, MinAllocationRule::None);
//! let servers = min_cluster_size(&workload, paper_server_capacity());
//!
//! // …on transient servers that periodically lose half their capacity…
//! let schedule = CapacitySchedule::generate(&TransientConfig {
//!     num_servers: servers,
//!     transient_fraction: 1.0,
//!     duration_secs: 4.0 * 3600.0,
//!     profile: CapacityProfile::square_wave_default(),
//!     seed: 7,
//! });
//!
//! // …absorbed by deflation, with costed live migration as the fallback.
//! let result = ClusterSimulation::new(
//!     ClusterConfig::paper_default(servers),
//!     ReclamationMode::Deflation(Arc::new(ProportionalDeflation::default())),
//! )
//! .with_capacity_schedule(schedule)
//! .with_migration_cost(MigrationCostModel::lan_default())
//! .with_migrate_back(true)
//! .run(&workload);
//!
//! assert_eq!(result.records.len(), workload.len());
//! assert!(result.failure_probability() <= 1.0);
//! // Any completed migration was charged page-transfer time.
//! assert!(result.migrations.iter().all(|m| m.duration_secs > 0.0));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod audit;
pub mod bisect;
pub mod manager;
pub mod metrics;
pub mod placement;
pub mod scheduler;
pub mod sim;
pub mod spec;

pub use audit::{AuditViolation, Auditor};
pub use bisect::{bisect_divergence, first_divergent_field, DivergenceReport, SnapshotDiff};
pub use manager::{
    AdmissionCounters, CapacityChangeOutcome, ClusterConfig, ClusterManager, MigrationRecord,
    PendingMigration, PlacementKind, PlacementResult, ReclamationMode, TransientCounters,
};
pub use metrics::{MigrationEvent, SimResult, VmOutcome, VmRecord};
pub use placement::PlacementIndex;
pub use scheduler::{SchedulerStats, TransferScheduler};
pub use sim::ClusterSimulation;
pub use spec::{MinAllocationRule, WorkloadVm};

/// Commonly used items, for glob import in examples and downstream crates.
pub mod prelude {
    pub use crate::audit::{AuditViolation, Auditor};
    pub use crate::bisect::{
        bisect_divergence, first_divergent_field, DivergenceReport, SnapshotDiff,
    };
    pub use crate::manager::{
        AdmissionCounters, CapacityChangeOutcome, ClusterConfig, ClusterManager, MigrationRecord,
        PendingMigration, PlacementKind, PlacementResult, ReclamationMode, TransientCounters,
    };
    pub use crate::metrics::{MigrationEvent, SimResult, VmOutcome, VmRecord};
    pub use crate::scheduler::{SchedulerStats, TransferScheduler};
    pub use crate::sim::ClusterSimulation;
    pub use crate::spec::{
        min_cluster_size, overcommitment_of, paper_server_capacity, servers_for_overcommitment,
        servers_for_transient_overcommitment, workload_from_azure, MinAllocationRule, WorkloadVm,
    };
    pub use deflate_core::audit::AuditSpec;
    pub use deflate_core::policy::{TransferOrdering, TransferPolicy};
    pub use deflate_hypervisor::migration::MigrationCostModel;
}
