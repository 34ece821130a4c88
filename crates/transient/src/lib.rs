//! # deflate-transient
//!
//! Provider-side **transient-capacity dynamics** for the `vmdeflate`
//! workspace.
//!
//! The paper's premise (§2, §6, §7.4) is that VMs run on *transient*
//! servers: the provider reclaims part of a server's capacity when
//! higher-priority demand arrives and restores it later, and deflation — not
//! preemption — should absorb those shocks. This crate supplies the two
//! pieces that premise needs and that are independent of the cluster
//! manager itself:
//!
//! * [`signal`] — seeded, trace-like **capacity signals**: per-server time
//!   series of reclamation/restitution change-points generated from
//!   square-wave, diurnal or bursty spot-market-style profiles, in the same
//!   spirit as the synthetic Azure/Alibaba workload generators in
//!   `deflate-traces`.
//! * [`events`] — the generalized **discrete-event engine**: typed
//!   simulation events ([`events::SimEvent`]: arrivals, departures,
//!   migration completions, capacity reclaim/restore, utilisation ticks)
//!   and a binary-heap [`events::EventQueue`] with fully deterministic
//!   ordering (timestamp, then event kind, then entity id).
//!
//! The cluster simulator (`deflate-cluster`) replays workloads through the
//! event engine and reacts to capacity events by deflating, migrating or —
//! only when both fail — killing resident VMs. Migrations are *not* free:
//! the cluster layer prices each transfer with the hypervisor crate's
//! migration cost model and schedules a [`SimEvent::MigrationComplete`]
//! event for the moment the page copy finishes (or hits the provider's
//! reclamation deadline, in which case the VM is evicted mid-transfer).
//!
//! # Event total order
//!
//! Events sharing a timestamp are delivered in a fixed kind order so runs
//! are reproducible regardless of insertion order:
//!
//! 1. `Departure` — frees capacity first;
//! 2. `MigrationComplete` — frees the source's share of an in-flight VM;
//! 3. `CapacityRestore` — more room before anyone asks for it;
//! 4. `CapacityReclaim` — simultaneous arrivals see the shrunk server;
//! 5. `Arrival`;
//! 6. `UtilizationTick` — metrics observe the settled state.
//!
//! Remaining ties break on the entity id (workload index, migration id or
//! server id), making the order total.
//!
//! # Example
//!
//! Deterministic delivery at equal timestamps:
//!
//! ```
//! use deflate_transient::events::{EventQueue, SimEvent};
//!
//! let mut queue = EventQueue::new();
//! queue.push(10.0, SimEvent::Arrival(0));
//! queue.push(10.0, SimEvent::Departure(1));
//! queue.push(10.0, SimEvent::MigrationComplete { migration: 3 });
//!
//! assert_eq!(queue.pop(), Some((10.0, SimEvent::Departure(1))));
//! assert_eq!(
//!     queue.pop(),
//!     Some((10.0, SimEvent::MigrationComplete { migration: 3 }))
//! );
//! assert_eq!(queue.pop(), Some((10.0, SimEvent::Arrival(0))));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod events;
pub mod signal;

pub use events::{EventQueue, SimEvent};
pub use signal::{CapacityChange, CapacityProfile, CapacitySchedule, TransientConfig};

/// Commonly used items, for glob import in examples and downstream crates.
pub mod prelude {
    pub use crate::events::{EventQueue, SimEvent};
    pub use crate::signal::{CapacityChange, CapacityProfile, CapacitySchedule, TransientConfig};
}
