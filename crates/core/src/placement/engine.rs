//! The retired placement-ranking engine knob.
//!
//! The cluster manager's incremental score index ranks candidate servers
//! on the event-loop thread, in server order — the behaviour
//! `tests/placement_golden.rs` pins. [`PlacementEngine`] no longer
//! selects anything and survives only as a name the frozen `perfbench/`
//! harness passes to the `with_placement_engine` builders.

use serde::{Deserialize, Serialize};

/// Kept only because `perfbench/` names it; its one value is the sequential ranking pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PlacementEngine {
    /// Score eligible servers in server order — the only ranking pass.
    #[default]
    Sequential,
}
