//! Served-path transcripts: four seeded request streams, shaped like the
//! repository benchmark's four workloads and scaled down for debug-mode
//! speed, pushed through the batcher's decisions and cycle body on the
//! fake clock of [`common::served`], each cycle costing 2 ms. Every
//! cycle's step and every app on the board it publishes feed one FNV-1a
//! hash per stream, as `crates/sim/tests/determinism.rs` does for the
//! simulator. Beside each hash sits the number of violated soft checks
//! summed over every published board, so a re-pin says what it did to
//! placement quality, and the simplex pivots, so it says what it did to
//! solver effort (the served arm runs no LP); a hard violation on
//! any board fails the run, and so does a board whose entries differ
//! from a full rebuild ([`common::board::BoardOracle`]): publication
//! patches the previous board. A refactor of the served path must leave
//! all four unchanged in both profiles; a deliberate behaviour change
//! re-pins them in its own commit and says why.

mod common;
use common::served::{
    burst_hbase, churn_restart, run, scale_sharded, steady_tiny, Batching, Pins, Reasons, Workload,
};

/// What one cycle costs on the fake clock (the next quiet gap, up to
/// its bound).
const WALL_US: u64 = 2_000;

const SEED: u64 = 7;

const PINNED_STEADY_TINY: Pins = Pins {
    hash: 0x1f9e_7170_bc1a_4e33,
    soft_violations: 0,
    pivots: 0,
};
const PINNED_BURST_HBASE: Pins = Pins {
    hash: 0xb398_1720_a8dc_8a15,
    soft_violations: 0,
    pivots: 0,
};
const PINNED_SCALE_SHARDED: Pins = Pins {
    hash: 0xee4d_ab70_1d89_0344,
    soft_violations: 0,
    pivots: 0,
};
const PINNED_CHURN_RESTART: Pins = Pins {
    hash: 0xc94a_051d_a603_6fd5,
    soft_violations: 0,
    pivots: 0,
};

fn check(stream: Workload, pinned: &Pins, name: &str) -> Reasons {
    let run = run(stream, &Batching::served(WALL_US));
    assert_eq!(
        &run.pins, pinned,
        "{name}: served pins (hash {:#018x})",
        run.pins.hash
    );
    run.reasons
}

#[test]
fn steady_tiny_transcript_is_pinned() {
    let reasons = check(steady_tiny(SEED), &PINNED_STEADY_TINY, "steady_tiny");
    assert_eq!(reasons["size"].0, 3, "each 64-frame chunk closes on size");
    assert!(reasons["quiet"].0 > 0, "a lone place closes on quiet");
    assert!(
        reasons["drain"].1 > 64,
        "the sweep takes more than one batch"
    );
}

#[test]
fn burst_hbase_transcript_is_pinned() {
    let reasons = check(burst_hbase(SEED), &PINNED_BURST_HBASE, "burst_hbase");
    assert!(!reasons.contains_key("converge"));
    assert_eq!(reasons["drain"].1, 3, "the shutdown races the last burst");
}

#[test]
fn scale_sharded_transcript_is_pinned() {
    let reasons = check(scale_sharded(SEED), &PINNED_SCALE_SHARDED, "scale_sharded");
    assert!(!reasons.contains_key("converge"));
    assert_eq!(reasons["drain"].1, 8, "the shutdown races the last burst");
}

#[test]
fn churn_restart_transcript_is_pinned() {
    let reasons = check(churn_restart(SEED), &PINNED_CHURN_RESTART, "churn_restart");
    assert!(
        reasons["converge"].0 > 12,
        "the reconciler converges across several cycles"
    );
}

/// How tenants list a burst's groups and constraints, and the app ids
/// they get, do not change what the served arm places: every seed's
/// `burst_hbase` stream breaks as many soft checks as the pinned one.
#[test]
fn burst_hbase_quality_does_not_depend_on_listing_order() {
    let soft: Vec<usize> = (1..=8)
        .map(|seed| {
            run(burst_hbase(seed), &Batching::served(WALL_US))
                .pins
                .soft_violations
        })
        .collect();
    assert_eq!(soft, [PINNED_BURST_HBASE.soft_violations; 8]);
}
