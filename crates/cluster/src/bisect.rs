//! Checkpoint-bisection divergence diagnosis — the post-mortem half of
//! the audit observatory.
//!
//! Two runs that are *expected* bit-identical (telemetry on vs off,
//! auditor on vs off, or a refactor against its baseline) sometimes are
//! not. Eyeballing two multi-megabyte final states tells you *that* they
//! differ, not *where the run first went wrong*. This module answers the
//! second question with the checkpoint machinery itself:
//!
//! 1. [`bisect_divergence`] binary-searches simulated time, advancing both
//!    runs from the last known-identical snapshot via
//!    [`ClusterSimulation::resume_until`], until the first divergent
//!    window is narrower than the requested resolution;
//! 2. [`first_divergent_field`] then walks the two snapshots with a
//!    field-naming diff visitor over the engine's snapshot schema (the
//!    same `visit_state` methods the writer and reader run) and names the
//!    first field whose bits differ — e.g. `manager.placement_dirty.len`
//!    or `manager.server[3].domain[17].guest.rss_mb`.
//!
//! Because every probe resumes from the known-identical prefix, a bisection
//! over a horizon `H` at resolution `r` costs `O(log2(H / r))` partial
//! replays instead of the `O(H / r)` full replays of a linear scan.
//!
//! Because the diff runs the schema itself, it cannot drift from the byte
//! layout; `snapshot_walk_consumes_every_byte` below pins that every
//! flipped bit is named.

use deflate_core::checkpoint::{ByteReader, CheckpointError, CheckpointResult, StateVisitor};

use crate::sim::{visit_detached, ClusterSimulation};
use crate::spec::WorkloadVm;

/// The boundary used for the pre-first-event snapshot: no event fires at a
/// negative time, so `checkpoint(BOOT_SECS)` serializes freshly booted
/// state.
const BOOT_SECS: f64 = -1.0;

/// The first field, in snapshot-layout order, whose bits differ between
/// two snapshots taken at the same boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotDiff {
    /// Dotted path of the field in the snapshot layout, e.g.
    /// `placement_index.dirty_len` or `manager.in_flight[2].finish_secs`.
    pub field: String,
    /// The first run's value, rendered.
    pub a: String,
    /// The second run's value, rendered.
    pub b: String,
}

impl std::fmt::Display for SnapshotDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "field `{}` differs: a={}, b={}",
            self.field, self.a, self.b
        )
    }
}

/// Where a bisected pair of runs first stopped being bit-identical.
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    /// Half-open window `(lo, hi]` of simulated seconds: the runs are
    /// bit-identical at `lo` and first observed divergent at `hi`. When a
    /// pair diverges before the first event (mismatched configuration),
    /// both bounds are the boot boundary.
    pub window_secs: (f64, f64),
    /// Events processed at the divergent boundary by each run — brackets
    /// the ordinal of the first divergent event.
    pub events_processed: (u64, u64),
    /// The first differing field of the divergent snapshot pair.
    pub diff: SnapshotDiff,
    /// Checkpoint/resume probes spent (two per bisection step).
    pub probes: usize,
}

impl std::fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "first divergence in window ({:.3}s, {:.3}s] after events (a: {}, b: {}): {} \
             [{} probes]",
            self.window_secs.0,
            self.window_secs.1,
            self.events_processed.0,
            self.events_processed.1,
            self.diff,
            self.probes
        )
    }
}

/// Binary-search the first divergent snapshot window between two runs of
/// the same workload under configurations expected bit-identical.
///
/// Both simulations replay `workload`; snapshots are compared at matched
/// boundaries. Returns `Ok(None)` when the runs are bit-identical at
/// `horizon_secs` (which, by the checkpoint contract, means they never
/// diverged inside it). Otherwise narrows the divergence to a window no
/// wider than `resolution_secs` and names the first differing field.
///
/// Probes advance from the last known-identical snapshot via
/// [`ClusterSimulation::resume_until`], so each bisection step costs one
/// partial replay per side, not a replay from time zero.
pub fn bisect_divergence(
    a: &ClusterSimulation,
    b: &ClusterSimulation,
    workload: &[WorkloadVm],
    horizon_secs: f64,
    resolution_secs: f64,
) -> CheckpointResult<Option<DivergenceReport>> {
    let resolution = resolution_secs.max(1e-9);
    let mut probes = 2;
    let end_a = a.checkpoint(workload, horizon_secs);
    let end_b = b.checkpoint(workload, horizon_secs);
    if first_divergent_field(&end_a, &end_b)?.is_none() {
        return Ok(None);
    }

    // The runs differ somewhere in (boot, horizon]. Establish the boot
    // boundary; a mismatch there means the *configurations* disagree
    // (different cluster shape or event schedule), not the dynamics.
    probes += 2;
    let boot_a = a.checkpoint(workload, BOOT_SECS);
    let boot_b = b.checkpoint(workload, BOOT_SECS);
    if let Some(diff) = first_divergent_field(&boot_a, &boot_b)? {
        return Ok(Some(DivergenceReport {
            window_secs: (BOOT_SECS, BOOT_SECS),
            events_processed: (processed_events(&boot_a)?, processed_events(&boot_b)?),
            diff,
            probes,
        }));
    }

    let mut lo = BOOT_SECS;
    let mut snap_lo = boot_a;
    let mut hi = horizon_secs;
    let (mut hi_a, mut hi_b) = (end_a, end_b);
    while hi - lo > resolution {
        let mid = lo + (hi - lo) / 2.0;
        if mid <= lo || mid >= hi {
            break; // f64 midpoints exhausted below the requested resolution
        }
        // The lo snapshots are bit-identical, so one buffer serves both
        // sides; each simulation resumes it under its own configuration.
        let mid_a = a.resume_until(workload, &snap_lo, mid)?;
        let mid_b = b.resume_until(workload, &snap_lo, mid)?;
        probes += 2;
        if first_divergent_field(&mid_a, &mid_b)?.is_none() {
            lo = mid;
            snap_lo = mid_a;
        } else {
            hi = mid;
            hi_a = mid_a;
            hi_b = mid_b;
        }
    }

    let diff = first_divergent_field(&hi_a, &hi_b)?
        .expect("bisection invariant: the hi boundary stays divergent");
    Ok(Some(DivergenceReport {
        window_secs: (lo, hi),
        events_processed: (processed_events(&hi_a)?, processed_events(&hi_b)?),
        diff,
        probes,
    }))
}

/// The processed-event count a snapshot carries, decoded through the
/// engine's snapshot schema.
fn processed_events(snapshot: &[u8]) -> CheckpointResult<u64> {
    visit_detached(&mut ByteReader::with_header(snapshot)?)
}

/// Walk two snapshots along the engine's snapshot schema and name the
/// first field whose bits differ.
///
/// Returns `Ok(None)` for byte-identical snapshots. Errs when either
/// buffer is corrupt (bad header, truncated, unknown discriminant) —
/// corruption is a different failure than divergence and must not be
/// reported as a field.
pub fn first_divergent_field(a: &[u8], b: &[u8]) -> CheckpointResult<Option<SnapshotDiff>> {
    if a == b {
        return Ok(None);
    }
    let a_reader = ByteReader::with_header(a)?;
    ByteReader::with_header(b)?;
    let mut differ = SnapshotDiffer {
        a_bytes: a,
        a: a_reader,
        b,
        path: Vec::new(),
        diff: None,
    };
    visit_detached(&mut differ)?;
    Ok(Some(match differ.diff.take() {
        Some(diff) => diff,
        // Bytes differ but every field matched: one buffer carries
        // trailing bytes the layout does not describe.
        None => SnapshotDiff {
            field: "trailing_bytes".to_string(),
            a: format!("{} left", differ.a.remaining()),
            b: format!("{} left", b.len() - differ.offset()),
        },
    }))
}

/// The field-naming diff visitor: decodes snapshot `a` through the
/// schema and compares each visited field's bytes with the bytes at the
/// same offset of `b`. The two stay aligned up to the first difference,
/// which is recorded under its dotted path; the rest of `a` is decoded
/// without comparison.
struct SnapshotDiffer<'s> {
    a_bytes: &'s [u8],
    a: ByteReader<'s>,
    b: &'s [u8],
    /// Open scopes: a field name and, for collection items, the index.
    path: Vec<(&'static str, Option<usize>)>,
    diff: Option<SnapshotDiff>,
}

impl<'s> SnapshotDiffer<'s> {
    /// Bytes of `a` consumed so far.
    fn offset(&self) -> usize {
        self.a_bytes.len() - self.a.remaining()
    }

    /// Compare the field just decoded from `a` (its bytes start at
    /// `start`) with `b`; `theirs` renders `b`'s value on a mismatch.
    fn compare<T: std::fmt::Display>(
        &mut self,
        name: &'static str,
        start: usize,
        ours: &T,
        theirs: fn(&mut ByteReader<'s>) -> CheckpointResult<T>,
    ) -> CheckpointResult<()> {
        if self.diff.is_some() {
            return Ok(());
        }
        let end = self.offset();
        let b = self.b.get(start..end).ok_or(CheckpointError::Truncated)?;
        if b != &self.a_bytes[start..end] {
            let b_value = theirs(&mut ByteReader::new(b))
                .map_or_else(|_| format!("{b:?}"), |v| v.to_string());
            self.diff = Some(SnapshotDiff {
                field: self.path_to(name),
                a: ours.to_string(),
                b: b_value,
            });
        }
        Ok(())
    }

    /// The dotted path of field `name` in the open scopes, e.g.
    /// `manager.server[3].domain[17].guest.rss_mb`.
    fn path_to(&self, name: &'static str) -> String {
        let mut path = String::new();
        for &(segment, index) in self.path.iter().chain(&[(name, None)]) {
            if !segment.is_empty() {
                if !path.is_empty() {
                    path.push('.');
                }
                path.push_str(segment);
            }
            if let Some(i) = index {
                path.push_str(&format!("[{i}]"));
            }
        }
        path
    }
}

impl StateVisitor for SnapshotDiffer<'_> {
    fn restoring(&self) -> bool {
        true
    }

    fn u8(&mut self, name: &'static str, v: &mut u8) -> CheckpointResult<()> {
        let start = self.offset();
        self.a.u8(name, v)?;
        self.compare(name, start, v, ByteReader::get_u8)
    }

    fn bool(&mut self, name: &'static str, v: &mut bool) -> CheckpointResult<()> {
        let start = self.offset();
        self.a.bool(name, v)?;
        self.compare(name, start, v, ByteReader::get_bool)
    }

    fn u32(&mut self, name: &'static str, v: &mut u32) -> CheckpointResult<()> {
        let start = self.offset();
        self.a.u32(name, v)?;
        self.compare(name, start, v, ByteReader::get_u32)
    }

    fn u64(&mut self, name: &'static str, v: &mut u64) -> CheckpointResult<()> {
        let start = self.offset();
        self.a.u64(name, v)?;
        self.compare(name, start, v, ByteReader::get_u64)
    }

    /// Bit-exact comparison: the snapshot contract is bit-identity, so
    /// `-0.0` vs `0.0` or differing NaN payloads are real divergences.
    fn f64(&mut self, name: &'static str, v: &mut f64) -> CheckpointResult<()> {
        let start = self.offset();
        self.a.f64(name, v)?;
        self.compare(name, start, v, ByteReader::get_f64)
    }

    fn len(
        &mut self,
        name: &'static str,
        n: &mut usize,
        min_item_bytes: usize,
    ) -> CheckpointResult<()> {
        let start = self.offset();
        self.a.len(name, n, min_item_bytes)?;
        self.enter(name, None);
        self.compare("len", start, n, ByteReader::get_usize)?;
        self.leave();
        Ok(())
    }

    fn enter(&mut self, name: &'static str, index: Option<usize>) {
        self.path.push((name, index));
    }

    fn leave(&mut self) {
        self.path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{ClusterConfig, ReclamationMode};
    use crate::spec::{
        paper_server_capacity, servers_for_transient_overcommitment, workload_from_azure,
        MinAllocationRule,
    };
    use deflate_core::policy::TransferPolicy;
    use deflate_hypervisor::migration::MigrationCostModel;
    use deflate_traces::azure::{AzureTraceConfig, AzureTraceGenerator};
    use deflate_transient::signal::{CapacityProfile, CapacitySchedule, TransientConfig};

    const HORIZON_SECS: f64 = 4.0 * 3600.0;

    fn scenario_workload() -> Vec<WorkloadVm> {
        let traces = AzureTraceGenerator::generate(&AzureTraceConfig {
            num_vms: 60,
            duration_hours: 4.0,
            seed: 11,
            ..Default::default()
        });
        workload_from_azure(&traces, MinAllocationRule::None)
    }

    /// The migration-only baseline on spot-market transient servers with a
    /// one-link bandwidth budget and a tight deadline: every reclamation
    /// queues a burst of transfers behind contended slots, so the transfer
    /// policy genuinely reorders the run.
    fn scenario_sim(
        servers: usize,
        schedule: CapacitySchedule,
        policy: TransferPolicy,
    ) -> ClusterSimulation {
        ClusterSimulation::new(
            ClusterConfig::paper_default(servers),
            ReclamationMode::MigrationOnly,
        )
        .with_capacity_schedule(schedule)
        .with_migrate_back(true)
        .with_migration_cost(
            MigrationCostModel::lan_default()
                .with_budget_mbps(1250.0)
                .with_deadline_secs(30.0),
        )
        .with_transfer_policy(policy)
    }

    fn scenario_cluster(workload: &[WorkloadVm]) -> (usize, CapacitySchedule) {
        let profile = CapacityProfile::spot_market_default();
        let servers = servers_for_transient_overcommitment(
            workload,
            paper_server_capacity(),
            0.0,
            profile.mean_availability(),
        );
        let schedule = CapacitySchedule::generate(&TransientConfig {
            num_servers: servers,
            transient_fraction: 1.0,
            duration_secs: HORIZON_SECS,
            profile,
            seed: 11,
        });
        (servers, schedule)
    }

    #[test]
    fn identical_configs_report_no_divergence() {
        let workload = scenario_workload();
        let (servers, schedule) = scenario_cluster(&workload);
        let a = scenario_sim(servers, schedule.clone(), TransferPolicy::fifo());
        let b = scenario_sim(servers, schedule, TransferPolicy::fifo());
        let report = bisect_divergence(&a, &b, &workload, HORIZON_SECS, 60.0).unwrap();
        assert!(
            report.is_none(),
            "identical runs must not diverge: {report:?}"
        );
    }

    // The checked-in localization scenario: two runs differing only in
    // transfer policy (an injected single-knob divergence). The bisection
    // must pin the first divergent window exactly — verified against
    // from-scratch checkpoints at both window bounds.
    #[test]
    fn injected_transfer_policy_divergence_is_localized() {
        let workload = scenario_workload();
        let (servers, schedule) = scenario_cluster(&workload);
        let a = scenario_sim(servers, schedule.clone(), TransferPolicy::fifo());
        let b = scenario_sim(servers, schedule, TransferPolicy::smallest_first());
        let resolution = 60.0;
        let report = bisect_divergence(&a, &b, &workload, HORIZON_SECS, resolution)
            .unwrap()
            .expect("different transfer policies must diverge in this scenario");

        let (lo, hi) = report.window_secs;
        assert!(
            hi - lo <= resolution,
            "window wider than resolution: {report}"
        );
        assert!(!report.diff.field.is_empty());
        // Ground truth by independent from-scratch checkpoints: identical
        // at the window's lower bound, divergent at its upper bound.
        assert_eq!(
            first_divergent_field(&a.checkpoint(&workload, lo), &b.checkpoint(&workload, lo))
                .unwrap(),
            None,
            "runs must still be bit-identical at the window's lower bound"
        );
        assert!(
            first_divergent_field(&a.checkpoint(&workload, hi), &b.checkpoint(&workload, hi))
                .unwrap()
                .is_some(),
            "runs must be divergent at the window's upper bound"
        );
    }

    // The field walk must describe every byte the engine serializes: a
    // single bit flipped anywhere in a snapshot yields a named field, and
    // untouched snapshots walk clean.
    #[test]
    fn snapshot_walk_consumes_every_byte() {
        let workload = scenario_workload();
        let (servers, schedule) = scenario_cluster(&workload);
        let sim = scenario_sim(servers, schedule, TransferPolicy::fifo());
        let snapshot = sim.checkpoint(&workload, HORIZON_SECS / 2.0);
        assert_eq!(first_divergent_field(&snapshot, &snapshot).unwrap(), None);

        // Flip the last byte: the walk must still reach and name a field
        // (the final byte belongs to the utilization block or the empty
        // trailing length), not fall off the layout.
        let mut mutated = snapshot.clone();
        *mutated.last_mut().unwrap() ^= 0x01;
        let diff = first_divergent_field(&snapshot, &mutated)
            .unwrap()
            .expect("a flipped bit must be named");
        assert!(
            diff.field.starts_with("utilization"),
            "last byte belongs to the utilization block, got {}",
            diff.field
        );
    }

    // Every bit past the header belongs to a named field, in every block
    // of the layout.
    #[test]
    fn flips_anywhere_name_a_field_in_their_block() {
        let workload = scenario_workload();
        let (servers, schedule) = scenario_cluster(&workload);
        let sim = scenario_sim(servers, schedule, TransferPolicy::fifo());
        let snapshot = sim.checkpoint(&workload, HORIZON_SECS / 2.0);
        let mut blocks = std::collections::BTreeSet::new();
        for at in (8..snapshot.len()).step_by(61) {
            let mut mutated = snapshot.clone();
            mutated[at] ^= 0x10;
            let diff = first_divergent_field(&snapshot, &mutated)
                .unwrap()
                .expect("a flipped bit must be named");
            let block = diff.field.split(['.', '[']).next().unwrap().to_string();
            blocks.insert(block);
        }
        for block in ["queue", "manager", "record", "migration_log"] {
            assert!(
                blocks.contains(block),
                "no flip named in {block}: {blocks:?}"
            );
        }
    }

    #[test]
    fn divergent_snapshot_lengths_name_the_short_side() {
        let workload = scenario_workload();
        let (servers, schedule) = scenario_cluster(&workload);
        let sim = scenario_sim(servers, schedule, TransferPolicy::fifo());
        let early = sim.checkpoint(&workload, 600.0);
        let late = sim.checkpoint(&workload, 1800.0);
        let diff = first_divergent_field(&early, &late)
            .unwrap()
            .expect("snapshots at different boundaries differ");
        // The very first field is the boundary time itself.
        assert_eq!(diff.field, "at_secs");
    }
}
