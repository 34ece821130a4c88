//! Golden pins for the incremental placement index (PR 7).
//!
//! The cluster manager no longer rescans every server on each placement:
//! it keeps an **incremental score index** of cached [`ServerView`]s and
//! re-views only servers whose state changed since the last ranking pass.
//! That rewrite is purely a performance change. These tests pin the
//! contract: the index reproduces the pre-index `SimResult`s **byte for
//! byte** on the `fig_transient` and `fig_scheduler` quick
//! configurations.
//!
//! The pinned values are FNV-1a hashes over the `Debug` rendering of every
//! deterministic `SimResult` field (per-VM records, counters, scheduler
//! stats, migration events, utilisation series, …; `Debug` for `f64` is
//! the shortest round-trip form, so the hash is bit-faithful). They were
//! captured from the PR 6 implementation — the full from-scratch rescan —
//! at quick scale. Any drift here means the index changed a placement
//! decision.
//!
//! To re-pin after an *intentional* semantic change:
//! `cargo test --release --test placement_golden -- --ignored --nocapture`

use deflate_bench::transient_exp::{
    default_migration_cost, profiles, run_transient_on, run_transient_scheduled,
    transient_workload, SchedulerVariant, TransientMode, SCHEDULER_SWEEP_MBPS,
};
use deflate_bench::Scale;
use vmdeflate::transient::signal::CapacityProfile;

mod common;
use common::sim_result_digest as digest;

/// The `fig_transient` quick grid: one digest per (profile, mode).
fn transient_digests() -> Vec<(String, u64)> {
    let workload = transient_workload(Scale::Quick);
    let mut out = Vec::new();
    for profile in profiles() {
        for mode in TransientMode::ALL {
            let result = run_transient_on(&workload, Scale::Quick, mode, profile);
            out.push((
                format!("{}/{}", profile.name(), mode.name()),
                digest(&result),
            ));
        }
    }
    out
}

/// The `fig_scheduler` quick grid: one digest per (budget, mode, variant).
fn scheduler_digests() -> Vec<(String, u64)> {
    let workload = transient_workload(Scale::Quick);
    let profile = CapacityProfile::spot_market_default();
    let mut out = Vec::new();
    for budget in SCHEDULER_SWEEP_MBPS {
        for mode in [TransientMode::Deflation, TransientMode::MigrationOnly] {
            for variant in SchedulerVariant::ALL {
                if !variant.applies_to(mode) {
                    continue;
                }
                let result = run_transient_scheduled(
                    &workload,
                    Scale::Quick,
                    mode,
                    profile,
                    variant.cost(budget),
                    variant.policy(),
                );
                out.push((
                    format!("{budget:.0}/{}/{}", mode.name(), variant.name()),
                    digest(&result),
                ));
            }
        }
    }
    out
}

/// Golden digests captured from the PR 6 full-rescan implementation on the
/// `fig_transient` quick grid.
const TRANSIENT_GOLDEN: [(&str, u64); 9] = [
    ("square-wave/deflation", 0x04871dba993ed8ce),
    ("square-wave/preemption", 0xbbd975d167662512),
    ("square-wave/migration-only", 0x94541e60dbad4039),
    ("diurnal/deflation", 0x18040e03f8e32443),
    ("diurnal/preemption", 0xdd27dd19c481e0c6),
    ("diurnal/migration-only", 0x806b5c4955a9bf67),
    ("spot-market/deflation", 0xcc9689d60eac5797),
    ("spot-market/preemption", 0x47a5024a364a59db),
    ("spot-market/migration-only", 0x6c51742403d363be),
];

/// Golden digests captured from the PR 6 full-rescan implementation on the
/// `fig_scheduler` quick grid.
const SCHEDULER_GOLDEN: [(&str, u64); 27] = [
    ("1250/deflation/fifo", 0xcc9689d60eac5797),
    ("1250/deflation/fifo+dirty", 0xed91bba7ad1cd770),
    ("1250/deflation/smallest-first", 0x0f6b3aded2480576),
    ("1250/deflation/edf", 0x6530f250711fc916),
    ("1250/deflation/edf+deflate", 0x74d5118bc81e756b),
    ("1250/migration-only/fifo", 0x6c51742403d363be),
    ("1250/migration-only/fifo+dirty", 0x45d7dbfa33adf2e5),
    ("1250/migration-only/smallest-first", 0x6801c0e66c1d7239),
    ("1250/migration-only/edf", 0x723005a1ae39601c),
    ("625/deflation/fifo", 0x631c87e4f8f98f39),
    ("625/deflation/fifo+dirty", 0x8d45c2e5d72dee83),
    ("625/deflation/smallest-first", 0xdd179ba772e1dd32),
    ("625/deflation/edf", 0x4675efc029dca5c3),
    ("625/deflation/edf+deflate", 0x1b4704b68263f06b),
    ("625/migration-only/fifo", 0xa51ea768bafdd004),
    ("625/migration-only/fifo+dirty", 0x3a5952a674154bea),
    ("625/migration-only/smallest-first", 0xbe250b707c2b5bb8),
    ("625/migration-only/edf", 0x5b6f57ba9b9b5616),
    ("312/deflation/fifo", 0xfb14e0fd4831917c),
    ("312/deflation/fifo+dirty", 0x98d793547b33aeb2),
    ("312/deflation/smallest-first", 0xd503f1c3f9fa7962),
    ("312/deflation/edf", 0xe31feccfe03f1636),
    ("312/deflation/edf+deflate", 0x7fc9149ca0aa51b6),
    ("312/migration-only/fifo", 0xa7597dc77d99926e),
    ("312/migration-only/fifo+dirty", 0x433523edc7746047),
    ("312/migration-only/smallest-first", 0x07accb34500856e8),
    ("312/migration-only/edf", 0x2cfe921db2db5f9f),
];

fn assert_matches_golden(actual: &[(String, u64)], golden: &[(&str, u64)], what: &str) {
    assert_eq!(actual.len(), golden.len(), "{what}: row count drifted");
    for ((label, hash), (want_label, want_hash)) in actual.iter().zip(golden) {
        assert_eq!(label, want_label, "{what}: row order drifted");
        assert_eq!(
            *hash, *want_hash,
            "{what} row `{label}`: SimResult drifted from the PR 6 full-rescan golden \
             (digest 0x{hash:016x}, pinned 0x{want_hash:016x})"
        );
    }
}

/// The incremental index reproduces the PR 6 `fig_transient` results
/// byte for byte.
#[test]
fn default_engine_reproduces_pr6_fig_transient() {
    assert_matches_golden(&transient_digests(), &TRANSIENT_GOLDEN, "fig_transient");
}

/// The incremental index reproduces the PR 6 `fig_scheduler` results
/// byte for byte.
#[test]
fn default_engine_reproduces_pr6_fig_scheduler() {
    assert_eq!(default_migration_cost().reclaim_deadline_secs, 30.0);
    assert_matches_golden(&scheduler_digests(), &SCHEDULER_GOLDEN, "fig_scheduler");
}

/// Re-pinning helper: prints the two golden arrays in source form.
#[test]
#[ignore = "re-pinning helper, run with --ignored --nocapture"]
fn print_current_digests() {
    println!("const TRANSIENT_GOLDEN: [(&str, u64); 9] = [");
    for (label, hash) in transient_digests() {
        println!("    (\"{label}\", 0x{hash:016x}),");
    }
    println!("];");
    println!("const SCHEDULER_GOLDEN: [(&str, u64); 27] = [");
    for (label, hash) in scheduler_digests() {
        println!("    (\"{label}\", 0x{hash:016x}),");
    }
    println!("];");
}
