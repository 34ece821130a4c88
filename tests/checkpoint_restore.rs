//! The checkpoint/restore battery: the engine's snapshot contract pinned
//! end to end on the real experiment configurations.
//!
//! The contract (`ClusterSimulation::checkpoint` / `resume`): for any
//! event boundary `T`, `resume(checkpoint(T))` is equal to the
//! uninterrupted `run` in **every** `SimResult` field — per-VM records,
//! allocation histories, migration log, utilisation series, all counters
//! and the deterministic event count; only the re-measured wall clock is
//! exempt. Snapshot bytes themselves are versioned, little-endian,
//! wall-clock-free and canonically ordered, so they are independent of
//! the machine, the moment and the telemetry configuration; the byte
//! format is golden-pinned below and may only
//! change together with a `SNAPSHOT_VERSION` bump.
//!
//! Checkpoint boundaries are "random": arbitrary-looking fractions of
//! the trace horizon from a seeded LCG (`tests/common`), different for
//! every configuration, reproducible across runs.

use deflate_bench::autoscale_exp::{autoscale_profiles, elastic_app, AutoscaleVariant};
use deflate_bench::transient_exp::{
    default_migration_cost, profiles, transient_simulation, transient_workload, SchedulerVariant,
    TransientMode, SCHEDULER_SWEEP_MBPS,
};
use deflate_bench::Scale;
use vmdeflate::cluster::manager::{ClusterConfig, PlacementKind, ReclamationMode};
use vmdeflate::cluster::sim::ClusterSimulation;
use vmdeflate::cluster::spec::{
    paper_server_capacity, servers_for_transient_overcommitment, WorkloadVm,
};
use vmdeflate::core::checkpoint::{CheckpointError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use vmdeflate::core::placement::PartitionScheme;
use vmdeflate::core::policy::{ProportionalDeflation, TransferPolicy};
use vmdeflate::hypervisor::domain::DeflationMechanism;
use vmdeflate::transient::signal::{CapacityProfile, CapacitySchedule, TransientConfig};

mod common;
use common::{fnv1a64, Lcg};

/// Simulated trace horizon of the quick cluster experiments, seconds.
fn horizon_secs() -> f64 {
    Scale::Quick.cluster_trace_hours() * 3600.0
}

/// The battery check for one configuration: checkpoint at `at_secs`,
/// restore, and demand full `SimResult` equality with the uninterrupted
/// run — plus byte-identity of a second snapshot of the same boundary
/// (no wall-clock or other run-local value may leak into the bytes).
fn assert_restores_bit_identically(
    sim: &ClusterSimulation,
    workload: &[WorkloadVm],
    at_secs: f64,
    label: &str,
) {
    let full = sim.run(workload);
    let snapshot = sim.checkpoint(workload, at_secs);
    let resumed = sim
        .resume(workload, &snapshot)
        .unwrap_or_else(|e| panic!("{label}: own snapshot failed to restore: {e}"));
    assert_eq!(
        full, resumed,
        "{label}: resume(checkpoint({at_secs:.0}s)) diverged from the uninterrupted run"
    );
    let again = sim.checkpoint(workload, at_secs);
    assert_eq!(
        snapshot, again,
        "{label}: two checkpoints of the same boundary must be byte-identical"
    );
}

/// `fig_transient` quick configurations: every capacity profile, with the
/// reclamation mode rotated so all three modes are covered, each at its
/// own LCG-drawn boundary.
#[test]
fn fig_transient_configs_restore_at_random_boundaries() {
    let workload = transient_workload(Scale::Quick);
    let mut lcg = Lcg(0xC0FFEE);
    let modes = TransientMode::ALL;
    for (i, profile) in profiles().into_iter().enumerate() {
        let mode = modes[i % modes.len()];
        let sim = transient_simulation(
            &workload,
            Scale::Quick,
            mode,
            profile,
            default_migration_cost(),
            vmdeflate::core::policy::TransferPolicy::fifo(),
        );
        let at = lcg.fraction() * horizon_secs();
        assert_restores_bit_identically(
            &sim,
            &workload,
            at,
            &format!("fig_transient {}/{}", profile.name(), mode.name()),
        );
    }
}

/// `fig_scheduler` quick configurations: the three non-FIFO variants
/// (FIFO is the transient battery above) at the one-link budget in
/// deflation mode — the paths that exercise EDF admission control,
/// staged batches and deflate-then-migrate across a restore.
#[test]
fn fig_scheduler_configs_restore_at_random_boundaries() {
    let workload = transient_workload(Scale::Quick);
    let profile = CapacityProfile::spot_market_default();
    let budget = SCHEDULER_SWEEP_MBPS[0];
    let mut lcg = Lcg(0xB0A710AD);
    for variant in [
        SchedulerVariant::SmallestFirst,
        SchedulerVariant::Edf,
        SchedulerVariant::EdfDeflate,
    ] {
        let sim = transient_simulation(
            &workload,
            Scale::Quick,
            TransientMode::Deflation,
            profile,
            variant.cost(budget),
            variant.policy(),
        );
        let at = lcg.fraction() * horizon_secs();
        assert_restores_bit_identically(
            &sim,
            &workload,
            at,
            &format!("fig_scheduler {}", variant.name()),
        );
    }
}

/// The `fig_autoscale` quick configuration under each capacity profile:
/// the autoscaler's members, cooldowns, latency accumulator and stats
/// all cross the snapshot.
#[test]
fn fig_autoscale_configs_restore_at_random_boundaries() {
    let workload = transient_workload(Scale::Quick);
    let mut lcg = Lcg(0x5CA1AB1E);
    let variants = AutoscaleVariant::ALL;
    for (i, profile) in autoscale_profiles().into_iter().enumerate() {
        let variant = variants[i % variants.len()];
        let sim = autoscale_simulation(&workload, profile, variant);
        let at = lcg.fraction() * horizon_secs();
        assert_restores_bit_identically(
            &sim,
            &workload,
            at,
            &format!("fig_autoscale {}/{}", profile.name(), variant.name()),
        );
    }
}

/// The exact quick-scale `fig_autoscale` simulation, reduced to the
/// pieces a checkpoint crosses.
fn autoscale_simulation(
    workload: &[WorkloadVm],
    profile: CapacityProfile,
    variant: AutoscaleVariant,
) -> ClusterSimulation {
    let app = elastic_app();
    let capacity = paper_server_capacity();
    let background =
        servers_for_transient_overcommitment(workload, capacity, 0.0, profile.mean_availability());
    let elastic =
        (app.max_replicas as f64 * app.replica_size.cpu() / capacity.cpu()).ceil() as usize;
    let servers = background + elastic;
    let schedule = CapacitySchedule::generate(&TransientConfig {
        num_servers: servers,
        transient_fraction: 1.0,
        duration_secs: Scale::Quick.cluster_trace_hours() * 3600.0,
        profile,
        seed: Scale::Quick.seed(),
    });
    let config = ClusterConfig {
        num_servers: servers,
        server_capacity: capacity,
        placement: PlacementKind::CosineFitness,
        partitions: PartitionScheme::None,
        mechanism: DeflationMechanism::Transparent,
    };
    ClusterSimulation::new(
        config,
        ReclamationMode::Deflation(std::sync::Arc::new(ProportionalDeflation::default())),
    )
    .with_capacity_schedule(schedule)
    .with_migrate_back(true)
    .with_migration_cost(default_migration_cost())
    .with_utilization_ticks(deflate_bench::autoscale_exp::AUTOSCALE_TICK_SECS)
    .with_autoscale(variant.policy(), vec![app])
}

/// Snapshot bytes are independent of telemetry, and a snapshot restores
/// bit-identically with every in-memory sink attached: the bytes are
/// equal with all sinks on and off, and a resume with sinks on equals
/// the uninterrupted run.
#[test]
fn snapshots_are_telemetry_independent() {
    use vmdeflate::telemetry::{TelemetryEventSet, TelemetrySink, TelemetrySpec};
    let workload = transient_workload(Scale::Quick);
    let budget = SCHEDULER_SWEEP_MBPS[0];
    let variant = SchedulerVariant::EdfDeflate;
    let sim = |sink: TelemetrySink| {
        transient_simulation(
            &workload,
            Scale::Quick,
            TransientMode::Deflation,
            CapacityProfile::spot_market_default(),
            variant.cost(budget),
            variant.policy(),
        )
        .with_telemetry(sink)
    };
    let observed_sink = || {
        let spec = TelemetrySpec::profiling()
            .with_event_log("unused.jsonl")
            .with_event_kinds(TelemetryEventSet::all())
            .with_chrome_trace("unused.trace.json");
        TelemetrySink::in_memory(&spec)
    };
    let at = Lcg(0xD15EA5E).fraction() * horizon_secs();
    let full = sim(TelemetrySink::disabled()).run(&workload);
    let baseline = sim(TelemetrySink::disabled()).checkpoint(&workload, at);
    let snapshot = sim(observed_sink()).checkpoint(&workload, at);
    assert_eq!(
        baseline, snapshot,
        "snapshot bytes changed with telemetry on"
    );
    let resumed = sim(observed_sink())
        .resume(&workload, &baseline)
        .expect("snapshot must restore");
    assert_eq!(full, resumed, "restore diverged with telemetry on");
}

/// **Fork determinism**: two forks of the same snapshot under the same
/// [`TransferPolicy`] are bit-identical, and forks under different
/// policies share the identical pre-fork history (the snapshot is the
/// single source of the prefix — what diverges afterwards is policy,
/// never replay noise). This is the property `fig_whatif`'s
/// model-predictive loop rests on.
#[test]
fn forks_of_one_snapshot_are_deterministic() {
    use deflate_bench::transient_exp::{dirty_aware_migration_cost, transient_simulation};
    let scale = Scale::Quick;
    let workload = transient_workload(scale);
    let profile = CapacityProfile::spot_market_default();
    let cost = dirty_aware_migration_cost(1250.0);
    let sim = |policy: TransferPolicy| {
        transient_simulation(
            &workload,
            scale,
            deflate_bench::transient_exp::TransientMode::Deflation,
            profile,
            cost,
            policy,
        )
    };
    let snapshot = sim(TransferPolicy::fifo()).checkpoint(&workload, 2.0 * 3600.0);
    for policy in [
        TransferPolicy::fifo(),
        TransferPolicy::edf().with_deflate_then_migrate(true),
    ] {
        let first = sim(policy).resume(&workload, &snapshot).expect("restores");
        let second = sim(policy).resume(&workload, &snapshot).expect("restores");
        assert_eq!(first, second, "two forks under {} diverged", policy.name());
    }
    // Different-policy forks still agree on everything decided before the
    // fork point: the committed policy name aside, their event streams
    // may only diverge after 2 h.
    let fifo = sim(TransferPolicy::fifo())
        .resume(&workload, &snapshot)
        .expect("restores");
    let edf = sim(TransferPolicy::edf())
        .resume(&workload, &snapshot)
        .expect("restores");
    let pre_fork = |result: &vmdeflate::cluster::metrics::SimResult| {
        result
            .migrations
            .iter()
            .filter(|m| m.time_secs <= 2.0 * 3600.0)
            .cloned()
            .collect::<Vec<_>>()
    };
    assert_eq!(
        pre_fork(&fifo),
        pre_fork(&edf),
        "pre-fork migration history diverged between sibling forks"
    );
}

/// Malformed snapshots are rejected with typed errors, never misread.
#[test]
fn malformed_snapshots_are_rejected() {
    let workload = transient_workload(Scale::Quick);
    let sim = transient_simulation(
        &workload,
        Scale::Quick,
        TransientMode::Deflation,
        CapacityProfile::spot_market_default(),
        default_migration_cost(),
        vmdeflate::core::policy::TransferPolicy::fifo(),
    );
    let snapshot = sim.checkpoint(&workload, 3600.0);
    // Bad magic.
    let mut bad = snapshot.clone();
    bad[0] ^= 0xFF;
    assert_eq!(
        sim.resume(&workload, &bad).unwrap_err(),
        CheckpointError::BadMagic
    );
    // Future version.
    let mut future = snapshot.clone();
    future[4..8].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    assert!(matches!(
        sim.resume(&workload, &future).unwrap_err(),
        CheckpointError::VersionMismatch { .. }
    ));
    // Truncation anywhere must surface as an error, not a bogus state.
    assert!(sim
        .resume(&workload, &snapshot[..snapshot.len() - 1])
        .is_err());
    // Trailing garbage is detected too.
    let mut padded = snapshot.clone();
    padded.push(0);
    assert!(sim.resume(&workload, &padded).is_err());
}

/// Golden pin of the snapshot byte format: the FNV-1a digest of the
/// quick-scale spot-market/deflation snapshot at a fixed boundary. Any
/// change to the byte layout moves this digest and MUST come with a
/// [`SNAPSHOT_VERSION`] bump (and a re-pin; run with
/// `--ignored --nocapture` below for the new constant). The header is
/// also pinned literally so the magic/version framing itself cannot
/// silently change.
#[test]
fn snapshot_byte_format_is_golden_pinned() {
    assert_eq!(
        SNAPSHOT_VERSION, 1,
        "version bump requires re-pinning SNAPSHOT_GOLDEN"
    );
    let snapshot = golden_snapshot();
    assert_eq!(&snapshot[..4], &SNAPSHOT_MAGIC);
    assert_eq!(&snapshot[4..8], &SNAPSHOT_VERSION.to_le_bytes());
    assert_eq!(
        fnv1a64(&snapshot),
        SNAPSHOT_GOLDEN,
        "snapshot byte format drifted without a SNAPSHOT_VERSION bump \
         (got 0x{:016x})",
        fnv1a64(&snapshot)
    );
}

/// Golden digest captured from the version-1 snapshot format.
const SNAPSHOT_GOLDEN: u64 = 0xb271_e12b_b659_3bfa;

/// The simulation and boundary behind `SNAPSHOT_GOLDEN`: quick-scale
/// `fig_transient` spot-market deflation at 4 h.
fn transient_golden(workload: &[WorkloadVm]) -> (ClusterSimulation, f64) {
    let sim = transient_simulation(
        workload,
        Scale::Quick,
        TransientMode::Deflation,
        CapacityProfile::spot_market_default(),
        default_migration_cost(),
        vmdeflate::core::policy::TransferPolicy::fifo(),
    );
    (sim, 4.0 * 3600.0)
}

fn golden_snapshot() -> Vec<u8> {
    snapshot_of(transient_golden)
}

/// A golden fixture: the simulation and checkpoint boundary of one
/// pinned snapshot over the quick workload.
type Fixture = fn(&[WorkloadVm]) -> (ClusterSimulation, f64);

/// Checkpoint one of the golden fixtures over the quick workload.
fn snapshot_of(fixture: Fixture) -> Vec<u8> {
    let workload = transient_workload(Scale::Quick);
    let (sim, at_secs) = fixture(&workload);
    sim.checkpoint(&workload, at_secs)
}

/// Golden pin of the blocks `SNAPSHOT_GOLDEN` never reaches with
/// content: a `fig_scheduler` contention snapshot (smallest-first at the
/// one-link budget) taken 5 s after a reclamation burst, with three
/// transfers in flight and 16 reservations on the scheduler ledgers.
#[test]
fn scheduler_contention_snapshot_is_golden_pinned() {
    assert_eq!(
        fnv1a64(&scheduler_golden_snapshot()),
        SCHEDULER_SNAPSHOT_GOLDEN,
        "in-flight / ledger snapshot bytes drifted without a SNAPSHOT_VERSION bump"
    );
}

/// Golden pin of the autoscaler block: the quick `fig_autoscale`
/// deflation-aware spot-market snapshot at 4 h, with member pools,
/// cooldown clocks, stats and the latency accumulator populated.
#[test]
fn autoscale_snapshot_is_golden_pinned() {
    assert_eq!(
        fnv1a64(&autoscale_golden_snapshot()),
        AUTOSCALE_SNAPSHOT_GOLDEN,
        "autoscaler snapshot bytes drifted without a SNAPSHOT_VERSION bump"
    );
}

/// Golden digests captured from the version-1 snapshot format.
const SCHEDULER_SNAPSHOT_GOLDEN: u64 = 0x40df_395a_e199_0936;
const AUTOSCALE_SNAPSHOT_GOLDEN: u64 = 0xf1f5_b723_c424_f336;

fn scheduler_golden(workload: &[WorkloadVm]) -> (ClusterSimulation, f64) {
    let variant = SchedulerVariant::SmallestFirst;
    let sim = transient_simulation(
        workload,
        Scale::Quick,
        TransientMode::Deflation,
        CapacityProfile::spot_market_default(),
        variant.cost(SCHEDULER_SWEEP_MBPS[0]),
        variant.policy(),
    );
    (sim, 15_265.0)
}

fn scheduler_golden_snapshot() -> Vec<u8> {
    snapshot_of(scheduler_golden)
}

fn autoscale_golden(workload: &[WorkloadVm]) -> (ClusterSimulation, f64) {
    let sim = autoscale_simulation(
        workload,
        CapacityProfile::spot_market_default(),
        AutoscaleVariant::DeflationAware,
    );
    (sim, 4.0 * 3600.0)
}

fn autoscale_golden_snapshot() -> Vec<u8> {
    snapshot_of(autoscale_golden)
}

/// The corruption battery: seeded single-bit flips and truncations of
/// the three golden snapshots. Every damaged copy must either restore or
/// fail with a typed [`CheckpointError`]; a panic (or an allocation
/// abort, which kills the test process) fails the battery. Copies that
/// restore are printed, not gated: only a checksum trailer could catch
/// a flip that lands in a value field, and the format has none.
#[test]
fn corrupted_snapshots_never_panic() {
    const FLIPS: usize = 64;
    const TRUNCATIONS: usize = 16;
    let workload = transient_workload(Scale::Quick);
    let fixtures: [(&str, Fixture); 3] = [
        ("fig_transient", transient_golden),
        ("fig_scheduler", scheduler_golden),
        ("fig_autoscale", autoscale_golden),
    ];
    let mut lcg = Lcg(0xBADC_0FFE);
    let mut panics = Vec::new();
    for (name, fixture) in fixtures {
        let (sim, at_secs) = fixture(&workload);
        let snapshot = sim.checkpoint(&workload, at_secs);
        let (mut rejected, mut accepted) = (0, 0);
        for k in 0..FLIPS + TRUNCATIONS {
            let mut damaged = snapshot.clone();
            let at = (lcg.next_u64() % snapshot.len() as u64) as usize;
            let what = if k < FLIPS {
                let bit = lcg.next_u64() % 8;
                damaged[at] ^= 1 << bit;
                format!("bit {bit} of byte {at} flipped")
            } else {
                damaged.truncate(at);
                format!("truncated to {at} bytes")
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.resume(&workload, &damaged)
            }));
            match outcome {
                Ok(Err(_)) => rejected += 1,
                Ok(Ok(_)) => accepted += 1,
                Err(_) => panics.push(format!("{name}: {what}")),
            }
        }
        println!(
            "{name}: {} damaged copies, {rejected} rejected, {accepted} silently accepted",
            FLIPS + TRUNCATIONS
        );
    }
    assert!(panics.is_empty(), "resume panicked on: {panics:#?}");
}

/// Re-pinning helper: prints the current snapshot digests in source form.
#[test]
#[ignore = "re-pinning helper, run with --ignored --nocapture"]
fn print_current_snapshot_digest() {
    println!(
        "const SNAPSHOT_GOLDEN: u64 = 0x{:016x};",
        fnv1a64(&golden_snapshot())
    );
    println!(
        "const SCHEDULER_SNAPSHOT_GOLDEN: u64 = 0x{:016x};",
        fnv1a64(&scheduler_golden_snapshot())
    );
    println!(
        "const AUTOSCALE_SNAPSHOT_GOLDEN: u64 = 0x{:016x};",
        fnv1a64(&autoscale_golden_snapshot())
    );
}
