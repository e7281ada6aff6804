//! Differential gate for the asynchronous placement pipeline.
//!
//! With **zero concurrent task load** the live cluster cannot drift
//! while a solve is in flight, so the async pipeline must produce
//! *exactly* the placements of the synchronous compatibility mode — the
//! state the solver sees is the state the commit lands on. 32 fixed
//! seeds sweep batch shapes and constraint mixes. On top of that,
//! same-seed async runs must be byte-identical: the pipeline introduces
//! no hidden nondeterminism (no wall clock feeds simulated decisions).

use medea_cluster::{ApplicationId, ClusterState, NodeGroupId, NodeId, Resources, Tag};
use medea_constraints::PlacementConstraint;
use medea_core::{LraAlgorithm, LraRequest};
use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};
use medea_sim::{PipelineMode, SimDriver, SimEvent, SolveLatencyModel};

const INTERVAL: u64 = 10_000;
const HORIZON: u64 = 300_000;

/// A seeded LRA-only workload: 10 apps with random sizes, submission
/// times, and a mix of spread/cardinality constraints. No task jobs, no
/// heartbeats — nothing mutates the cluster between propose and commit.
fn run(seed: u64, mode: PipelineMode) -> SimDriver {
    let mut rng = StdRng::seed_from_u64(seed);
    let cluster = ClusterState::homogeneous(12, Resources::new(16 * 1024, 16), 2);
    let mut sim = SimDriver::new(cluster, LraAlgorithm::NodeCandidates, INTERVAL)
        .with_pipeline(mode)
        // Latency below the interval: in sync mode the solve blocks the
        // (idle) RM, in async it overlaps; placements must match anyway.
        .with_solve_latency(SolveLatencyModel::ilp_like());
    for app in 1..=10u64 {
        let tag = format!("svc{app}");
        let count = rng.random_range(1..6usize);
        let mem = 1024 * rng.random_range(1..4u64);
        let t = rng.random_range(0..(HORIZON / 2));
        let constraints = match rng.random_range(0..3u32) {
            0 => vec![],
            1 => vec![PlacementConstraint::anti_affinity(
                tag.as_str(),
                tag.as_str(),
                NodeGroupId::node(),
            )],
            _ => vec![PlacementConstraint::cardinality(
                tag.as_str(),
                tag.as_str(),
                0,
                2,
                NodeGroupId::rack(),
            )],
        };
        sim.schedule(
            t,
            SimEvent::SubmitLra(LraRequest::uniform(
                ApplicationId(app),
                count,
                Resources::new(mem, 1),
                vec![Tag::new(tag)],
                constraints,
            )),
        );
    }
    assert!(
        sim.run_to_completion(HORIZON),
        "seed {seed} {mode:?}: run truncated at the safety limit"
    );
    sim
}

/// Placements as comparable data: per app, the sorted node list.
fn placements(sim: &SimDriver) -> Vec<(u64, Vec<u32>)> {
    let mut out: Vec<(u64, Vec<u32>)> = sim
        .metrics()
        .deployments
        .iter()
        .map(|d| {
            let mut nodes: Vec<u32> = d.nodes.iter().map(|n| n.0).collect();
            nodes.sort_unstable();
            (d.app.0, nodes)
        })
        .collect();
    out.sort();
    out
}

/// Byte-exact digest of a run: every deployment in commit order with
/// nodes and containers, plus the final per-node cluster layout.
fn digest(sim: &SimDriver) -> String {
    let mut s = String::new();
    for d in &sim.metrics().deployments {
        s.push_str(&format!(
            "app={} lat={} rec={} nodes={:?} containers={:?};",
            d.app.0,
            d.latency_ticks,
            d.recovered,
            d.nodes.iter().map(|n| n.0).collect::<Vec<_>>(),
            d.containers,
        ));
    }
    let state = sim.medea().state();
    for node in state.node_ids() {
        let mut apps: Vec<u64> = state
            .containers_on(node)
            .unwrap()
            .iter()
            .map(|&c| state.allocation(c).unwrap().app.0)
            .collect();
        apps.sort_unstable();
        s.push_str(&format!("n{}={apps:?};", node.0));
    }
    s.push_str(&format!(
        "conflicts={} unplaced={} epoch={}",
        sim.medea().stats().commit_conflicts,
        sim.medea().stats().lras_unplaced,
        state.epoch(),
    ));
    s
}

#[test]
fn async_equals_sync_without_concurrent_load_32_seeds() {
    for seed in 0..32u64 {
        let sync = run(seed, PipelineMode::Sync);
        let async_ = run(seed, PipelineMode::Async);
        assert_eq!(
            placements(&sync),
            placements(&async_),
            "seed {seed}: async pipeline diverged from sync with no load"
        );
        assert_eq!(
            sync.medea().stats().commit_conflicts,
            0,
            "seed {seed}: sync mode cannot conflict"
        );
        assert_eq!(
            async_.medea().stats().commit_conflicts,
            0,
            "seed {seed}: nothing mutated mid-solve, so no conflicts"
        );
    }
}

#[test]
fn async_same_seed_runs_are_byte_identical() {
    for seed in [0u64, 7, 19, 31] {
        let a = run(seed, PipelineMode::Async);
        let b = run(seed, PipelineMode::Async);
        assert_eq!(digest(&a), digest(&b), "seed {seed}: nondeterminism");
    }
}

#[test]
fn async_deployment_latency_includes_solve_time() {
    // One LRA submitted before the first tick: sync commits at
    // tick + latency with the RM blocked; async commits at the
    // LraPlacementReady event. Both must charge the solve latency into
    // the deployment latency — the pre-pipeline code omitted it.
    let lat = SolveLatencyModel::fixed(2_500);
    for mode in [PipelineMode::Sync, PipelineMode::Async] {
        let cluster = ClusterState::homogeneous(4, Resources::new(8192, 8), 2);
        let mut sim = SimDriver::new(cluster, LraAlgorithm::NodeCandidates, INTERVAL)
            .with_pipeline(mode)
            .with_solve_latency(lat);
        sim.schedule(
            0,
            SimEvent::SubmitLra(LraRequest::uniform(
                ApplicationId(1),
                2,
                Resources::new(1024, 1),
                vec![Tag::new("a")],
                vec![],
            )),
        );
        assert!(sim.run_to_completion(HORIZON));
        let m = sim.metrics();
        assert_eq!(m.deployments.len(), 1, "{mode:?}");
        // The tick at t=0 precedes the submission (it was queued first),
        // so the LRA is proposed at the next interval (10 000) and
        // committed 2 500 ticks later: latency = 10 000 + 2 500.
        assert_eq!(m.lra_latencies[0], 12_500, "{mode:?}");
        assert_eq!(m.deployments[0].nodes.len(), 2);
    }
}

#[test]
fn run_to_completion_reports_truncation() {
    let cluster = ClusterState::homogeneous(2, Resources::new(8192, 8), 1);
    let mut sim = SimDriver::new(cluster, LraAlgorithm::Serial, 1_000);
    sim.schedule(
        50_000,
        SimEvent::SubmitLra(LraRequest::uniform(
            ApplicationId(1),
            1,
            Resources::new(1024, 1),
            vec![Tag::new("late")],
            vec![],
        )),
    );
    // Safety limit before the submission: truncated.
    assert!(!sim.run_to_completion(10_000), "late event must report");
    // Extending past it drains.
    assert!(sim.run_to_completion(60_000));
    assert_eq!(sim.metrics().deployments.len(), 1);
    let _ = sim.medea().state().node(NodeId(0));
}
