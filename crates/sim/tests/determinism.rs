//! S1: simulator determinism with concurrent in-flight solves.
//!
//! A sharded asynchronous round keeps several solves in flight at
//! once; the driver used to track them in a `HashMap`, so the commit
//! order of same-tick completions depended on hasher seed and metrics
//! could drift between identical runs. With the `BTreeMap` swap, two
//! runs of the same seed must produce byte-identical metrics.

use medea_cluster::{ApplicationId, ClusterState, NodeGroupId, Resources, ShardConfig, Tag};
use medea_constraints::{PlacementConstraint, TagExpr};
use medea_core::{LraAlgorithm, LraRequest, PlacerMode};
use medea_obs::MetricsRegistry;
use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};
use medea_sim::{PipelineMode, SimDriver, SimEvent, SolveLatencyModel};

const NODES: usize = 32;
const RACKS: usize = 4;

fn build(seed: u64) -> SimDriver {
    build_with(seed, LraAlgorithm::NodeCandidates, PlacerMode::Ilp)
}

fn build_with(seed: u64, algorithm: LraAlgorithm, mode: PlacerMode) -> SimDriver {
    let cluster = ClusterState::homogeneous(NODES, Resources::new(32 * 1024, 32), RACKS);
    let mut sim = SimDriver::new(cluster, algorithm, 1_000)
        .with_pipeline(PipelineMode::Async)
        .with_solve_latency(SolveLatencyModel::fixed(700));
    sim.medea_mut()
        .set_sharding(ShardConfig::with_shards(RACKS));
    sim.medea_mut().lra_scheduler_mut().ilp.mode = mode;
    let mut rng = StdRng::seed_from_u64(0xDE7E_12A1 ^ seed);
    for app in 1..=24u64 {
        let tag = format!("svc{}", app % 5);
        let mut constraints = Vec::new();
        // Mix pinned and Any-routed entries: intra-app rack affinity
        // pins an entry to the shard owning its placement, exercising
        // both routing arms of the sharded round.
        if app % 3 == 0 {
            constraints.push(PlacementConstraint::affinity(
                TagExpr::and([Tag::app_id(ApplicationId(app))]),
                Tag::new(tag.clone()),
                NodeGroupId::rack(),
            ));
        }
        sim.schedule(
            rng.random_range(0..3_500u64),
            SimEvent::SubmitLra(LraRequest::uniform(
                ApplicationId(app),
                rng.random_range(1..4usize),
                Resources::new(rng.random_range(512..2048u64), 1),
                vec![Tag::new(tag)],
                constraints,
            )),
        );
    }
    sim
}

/// Full run transcript: every metric the driver and scheduler expose.
fn transcript(seed: u64) -> (String, usize) {
    transcript_of(build(seed))
}

fn transcript_of(mut sim: SimDriver) -> (String, usize) {
    // Step to a mid-round instant and record the concurrency high-water
    // mark: a sharded async round must actually hold several solves in
    // flight for this suite to test what it claims.
    let mut max_inflight = 0;
    for t in 1..=12 {
        sim.run_until(t * 500);
        max_inflight = max_inflight.max(sim.inflight_solves());
    }
    assert!(sim.run_to_completion(120_000), "run truncated");
    let m = sim.metrics();
    // Everything simulation-domain goes in; `lra_algorithm_times` stays
    // out because it is wall-clock (a Duration measured on the host),
    // nondeterministic by definition. LraDeployment carries one such
    // field too, so deployments are projected to their logical parts.
    let deployments: Vec<String> = m
        .deployments
        .iter()
        .map(|d| {
            format!(
                "{:?}:{:?}:{:?}:{}:{}",
                d.app, d.containers, d.nodes, d.latency_ticks, d.recovered
            )
        })
        .collect();
    (
        format!(
            "{:?}|{:?}|{:?}|{:?}|{}",
            m.task_latencies,
            m.lra_latencies,
            deployments,
            sim.medea().stats(),
            sim.medea().state().digest()
        ),
        max_inflight,
    )
}

#[test]
fn same_seed_runs_are_byte_identical_with_concurrent_solves() {
    for seed in [0u64, 7, 42] {
        let (a, inflight_a) = transcript(seed);
        let (b, inflight_b) = transcript(seed);
        assert!(
            inflight_a >= 3,
            "seed {seed}: expected >=3 concurrent in-flight solves, saw {inflight_a}"
        );
        assert_eq!(inflight_a, inflight_b, "seed {seed}: concurrency drifted");
        assert_eq!(a, b, "seed {seed}: same-seed metrics diverged");
    }
}

/// The served arm (`Relaxed`, an alias of the validated heuristic) must
/// be exactly as deterministic as the rest of the pipeline: two full
/// sharded async runs of the same seed — anchors, validations and
/// evictions — must produce byte-identical transcripts.
#[test]
fn relaxed_arm_same_seed_runs_are_byte_identical() {
    for seed in [0u64, 42] {
        let (a, inflight_a) =
            transcript_of(build_with(seed, LraAlgorithm::Ilp, PlacerMode::Relaxed));
        let (b, inflight_b) =
            transcript_of(build_with(seed, LraAlgorithm::Ilp, PlacerMode::Relaxed));
        assert!(
            inflight_a >= 3,
            "seed {seed}: expected >=3 concurrent in-flight solves, saw {inflight_a}"
        );
        assert_eq!(inflight_a, inflight_b, "seed {seed}: concurrency drifted");
        assert_eq!(a, b, "seed {seed}: relaxed-arm metrics diverged");
    }
}

/// Guards the served arm against silently running the exact arm: the
/// two placer modes must actually produce different transcripts on at
/// least one seed (the exact arm improves on the anchor somewhere).
#[test]
fn relaxed_arm_differs_from_exact_arm_somewhere() {
    let diverged = [0u64, 7, 42].iter().any(|&seed| {
        let (exact, _) = transcript_of(build_with(seed, LraAlgorithm::Ilp, PlacerMode::Ilp));
        let (relaxed, _) = transcript_of(build_with(seed, LraAlgorithm::Ilp, PlacerMode::Relaxed));
        exact != relaxed
    });
    assert!(diverged, "placer mode had no observable effect on any seed");
}

/// Builds a lifecycle scenario: managed apps under diurnal scaling, a
/// rolling-upgrade wave, tenant churn, defrag passes, and node-crash
/// chaos overlapping all of it.
fn build_lifecycle(seed: u64, pipeline: PipelineMode, sharded: bool) -> SimDriver {
    let cluster = ClusterState::homogeneous(16, Resources::new(32 * 1024, 32), RACKS);
    let mut sim = SimDriver::new(cluster, LraAlgorithm::NodeCandidates, 1_000)
        .with_pipeline(pipeline)
        .with_solve_latency(SolveLatencyModel::fixed(300));
    if sharded {
        sim.medea_mut()
            .set_sharding(ShardConfig::with_shards(RACKS));
    }
    let workload = medea_sim::LifecycleWorkload {
        seed,
        apps: 3,
        days: 2,
        day_ticks: 20_000,
        base_replicas: 1,
        peak_replicas: 3,
        disruption_budget: 1,
        scale_steps_per_day: 4,
        churn_per_day: 1,
        upgrade_wave_day: Some(0),
        defrag_every: Some(7_000),
        first_app_id: 1,
    };
    for (t, e) in workload.events() {
        sim.schedule(t, e);
    }
    // Chaos overlapping the scaling and the upgrade wave: two node
    // crashes with recoveries, positions seeded.
    let mut rng = StdRng::seed_from_u64(0xC4A0_5EED ^ seed);
    for day in 0..2u64 {
        let node = medea_cluster::NodeId(rng.random_range(0..16u32));
        let at = day * 20_000 + rng.random_range(5_000..15_000u64);
        sim.schedule(at, SimEvent::NodeCrash(node));
        sim.schedule(at + 4_000, SimEvent::NodeRecover(node));
    }
    sim
}

/// Transcript of a lifecycle run: the driver metrics projection plus
/// the lifecycle engine's own observable state.
fn lifecycle_transcript(seed: u64, pipeline: PipelineMode, sharded: bool) -> String {
    let mut sim = build_lifecycle(seed, pipeline, sharded);
    sim.run_until(50_000);
    let m = sim.metrics();
    let deployments: Vec<String> = m
        .deployments
        .iter()
        .map(|d| {
            format!(
                "{:?}:{:?}:{:?}:{}:{}",
                d.app, d.containers, d.nodes, d.latency_ticks, d.recovered
            )
        })
        .collect();
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{}",
        m.lra_latencies,
        deployments,
        sim.medea().stats(),
        sim.medea().lifecycle_stats(),
        sim.medea().lifecycles(),
        sim.medea().state().digest()
    )
}

/// The 32-seed lifecycle determinism gate: scaling, rolling upgrades,
/// churn, defragmentation, and chaos — same-seed runs must be
/// byte-identical under the sync, async, and sharded-async pipelines.
#[test]
fn lifecycle_runs_are_byte_identical_across_32_seeds_and_all_pipelines() {
    let pipelines = [
        (PipelineMode::Sync, false),
        (PipelineMode::Async, false),
        (PipelineMode::Async, true),
    ];
    for seed in 0..32u64 {
        for (pipeline, sharded) in pipelines {
            let a = lifecycle_transcript(seed, pipeline, sharded);
            let b = lifecycle_transcript(seed, pipeline, sharded);
            assert_eq!(
                a, b,
                "seed {seed}, pipeline {pipeline:?} (sharded: {sharded}): \
                 same-seed lifecycle runs diverged"
            );
        }
    }
}

/// Guards the lifecycle gate against a vacuous workload: different
/// seeds must produce different transcripts, and the reconciler must
/// actually have scaled and upgraded something.
#[test]
fn lifecycle_gate_exercises_the_reconciler() {
    let mut sim = build_lifecycle(3, PipelineMode::Async, true);
    sim.run_until(50_000);
    let stats = sim.medea().lifecycle_stats();
    assert!(stats.reconciles > 0, "reconciler never ran");
    assert!(stats.scale_up_containers > 0, "no scale-ups");
    assert!(stats.scale_down_containers > 0, "no scale-downs");
    assert!(stats.upgraded_containers > 0, "no rolling upgrade");
    assert_ne!(
        lifecycle_transcript(1, PipelineMode::Async, true),
        lifecycle_transcript(2, PipelineMode::Async, true),
        "seeded lifecycle workloads must differ"
    );
}

#[test]
fn different_seeds_actually_vary_the_workload() {
    // Guards the suite against a degenerate workload generator: if every
    // seed produced the same trace, the byte-identity test above would
    // pass vacuously.
    let (a, _) = transcript(1);
    let (b, _) = transcript(2);
    assert_ne!(a, b, "seeded workloads must differ");
}

/// 64-bit FNV-1a: the pinned-transcript hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const PINNED_CHAOS: u64 = 0x0b5c_0623_0528_48ec;
const PINNED_RELAXED: u64 = 0xe378_b85b_7827_f626;
const PINNED_LIFECYCLE: u64 = 0x026e_6023_cb5b_1228;

/// The same-seed suites above compare two runs of one build, so a change
/// that alters behaviour *consistently* passes them. These hashes pin
/// the time-free transcripts themselves: a refactor of the scheduler
/// must leave them byte-identical, and a deliberate behaviour change
/// must re-pin them in the same commit and say why.
#[test]
fn transcripts_match_their_pinned_hashes() {
    let chaos: String = [0u64, 7, 42].iter().map(|&s| transcript(s).0).collect();
    assert_eq!(fnv1a(chaos.as_bytes()), PINNED_CHAOS, "chaos transcripts");

    let relaxed: String = [0u64, 42]
        .iter()
        .map(|&s| transcript_of(build_with(s, LraAlgorithm::Ilp, PlacerMode::Relaxed)).0)
        .collect();
    assert_eq!(
        fnv1a(relaxed.as_bytes()),
        PINNED_RELAXED,
        "relaxed-arm transcripts"
    );

    let mut lifecycle = String::new();
    for seed in 0..32u64 {
        for pipeline in [PipelineMode::Sync, PipelineMode::Async] {
            for sharded in [false, true] {
                lifecycle.push_str(&lifecycle_transcript(seed, pipeline, sharded));
            }
        }
    }
    assert_eq!(
        fnv1a(lifecycle.as_bytes()),
        PINNED_LIFECYCLE,
        "lifecycle transcripts"
    );
}

/// Observation never steers a decision: with a registry attached, the
/// chaos and relaxed-arm runs hash to the same pins as above.
#[test]
fn attached_metrics_leave_the_pinned_transcripts_unchanged() {
    let traced = |sim: SimDriver| transcript_of(sim.with_metrics(MetricsRegistry::new())).0;
    let chaos: String = [0u64, 7, 42].iter().map(|&s| traced(build(s))).collect();
    assert_eq!(fnv1a(chaos.as_bytes()), PINNED_CHAOS, "traced chaos");
    let relaxed: String = [0u64, 42]
        .iter()
        .map(|&s| traced(build_with(s, LraAlgorithm::Ilp, PlacerMode::Relaxed)))
        .collect();
    assert_eq!(fnv1a(relaxed.as_bytes()), PINNED_RELAXED, "traced relaxed");
}
