//! The retired engine-sharding knob.
//!
//! The simulator runs one sequential event loop; [`ShardConfig`] no
//! longer selects anything and survives only as a name the frozen
//! `perfbench/` harness passes to `ClusterSimulation::with_shards`,
//! `ClusterManager::cpu_usage_snapshot` and
//! `ClusterManager::observe_vm_utilizations`.

use serde::{Deserialize, Serialize};

/// Kept only because `perfbench/` names it; every value is the sequential engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShardConfig;

impl ShardConfig {
    /// Kept only because `perfbench/` names it: the one (sequential) engine.
    pub fn sequential() -> Self {
        ShardConfig
    }
}
