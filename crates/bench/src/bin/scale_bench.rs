//! `scale_bench`: cluster-scale scheduling rounds at 500–50000 nodes,
//! emitted as machine-readable JSON (`BENCH_scale.json`).
//!
//! Each scale builds a census-shaped cluster (racks of ~40 nodes, service
//! units of ~100, ten upgrade domains — the §2.3 production shape), fills
//! half the machines with background LRA containers carrying service tags,
//! and then times NodeCandidates heuristic rounds that place an HBase-like
//! instance (8 workers + 3 auxiliaries, §7.1) under the paper's
//! constraints plus a population of deployed anti-affinity constraints.
//!
//! Beyond round latency, each scale reports:
//! - incremental index maintenance cost (ops during populate, and
//!   nanoseconds per allocate/release maintenance op);
//! - full sharded-vs-unsharded scheduler rounds (10 LRAs × 8 containers
//!   through [`MedeaScheduler::tick`]): the same batch placed by one
//!   monolithic solve and by per-shard solves over service-unit shards.
//!   The speedup is purely algorithmic — a single thread runs the shard
//!   solves back-to-back on the live state under a rollback guard, each
//!   scanning only its shard's nodes. At 20000+ nodes the sharded round
//!   must be at most a quarter of the unsharded round (enforced here, so
//!   CI catches regressions: a state copy per shard solve alone breaks
//!   it), every round of both runs must copy the cluster zero times
//!   (also enforced), and every row reports the sharded round's count.
//!
//! Usage: `cargo run --release -p medea-bench --bin scale_bench`
//! (`--smoke` runs the 500- and 20000-node scales only, for CI).

use std::time::Instant;

use medea_bench::{time_iters, BenchJson, Summary};
use medea_cluster::{
    state_clones, ApplicationId, ClusterState, ContainerRequest, ExecutionKind, NodeGroupId,
    NodeId, Resources, ShardConfig, Tag,
};
use medea_constraints::PlacementConstraint;
use medea_core::{HeuristicScheduler, LraAlgorithm, LraRequest, MedeaScheduler, Ordering};
use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};

/// Distinct background service tags (bounds the tag-index breadth).
const SERVICE_TAGS: u32 = 50;

/// One benchmarked scale's summary statistics.
struct ScaleResult {
    nodes: usize,
    iters: usize,
    median_us: u64,
    p99_us: u64,
    mean_us: u64,
    populate_us: u64,
    /// Incremental index maintenance ops performed while populating.
    index_update_ops_populate: u64,
    /// Mean maintenance cost per allocate/release index op.
    index_update_ns_per_op: u64,
    /// Median full-scheduler round (propose + commit of 10 LRAs × 8
    /// containers), monolithic solve.
    unsharded_round_us: u64,
    /// Same round split into per-shard solves.
    sharded_round_us: u64,
    /// Shard count of the sharded run (service-unit basis).
    shards: usize,
    /// Deep copies of the cluster state one sharded round made.
    state_clones_per_round: u64,
}

/// Contiguous equal partition of `n` nodes into `parts` sets (the shape
/// `NodeGroups::register_partition` builds).
fn partition(n: usize, parts: usize) -> Vec<Vec<NodeId>> {
    let parts = parts.max(1);
    let mut sets: Vec<Vec<NodeId>> = vec![Vec::new(); parts];
    for i in 0..n {
        sets[i * parts / n.max(1)].push(NodeId(i as u32));
    }
    sets
}

/// Census-shaped cluster: 16 GB/16-core nodes, ~40-node racks, ~100-node
/// service units, 10 upgrade domains, half the nodes' worth of background
/// LRA containers (4-container apps tagged `svc0..svc49`), plus the
/// deployed anti-affinity constraints those services carry.
fn census_cluster(n: usize) -> (ClusterState, Vec<PlacementConstraint>) {
    let mut state = ClusterState::homogeneous(n, Resources::new(16 * 1024, 16), (n / 40).max(1));
    state.register_group(NodeGroupId::service_unit(), partition(n, (n / 100).max(1)));
    state.register_group(NodeGroupId::upgrade_domain(), partition(n, 10));

    let mut rng = StdRng::seed_from_u64(0xC0DE + n as u64);
    let target = n / 2;
    let mut placed = 0usize;
    let mut app = 1_000u64;
    while placed < target {
        let svc = rng.random_range(0..SERVICE_TAGS);
        let req = ContainerRequest::new(Resources::new(2048, 1), [Tag::new(format!("svc{svc}"))]);
        for _ in 0..4 {
            loop {
                let node = NodeId(rng.random_range(0..n as u32));
                if state
                    .allocate(ApplicationId(app), node, &req, ExecutionKind::LongRunning)
                    .is_ok()
                {
                    break;
                }
            }
            placed += 1;
        }
        app += 1;
    }

    let deployed: Vec<PlacementConstraint> = (0..SERVICE_TAGS)
        .step_by(2)
        .map(|k| {
            let t = Tag::new(format!("svc{k}"));
            PlacementConstraint::anti_affinity(t.clone(), t, NodeGroupId::node())
        })
        .collect();
    (state, deployed)
}

/// One scheduling round: place an HBase-like instance (8 workers,
/// 6-per-node cardinality cap) with the NodeCandidates heuristic.
fn scale_round(state: &ClusterState, deployed: &[PlacementConstraint], app: u64) {
    let reqs = vec![medea_sim::apps::hbase_like(ApplicationId(app), 8, 6)];
    let out = HeuristicScheduler::new(Ordering::NodeCandidates).place(state, &reqs, deployed, None);
    assert!(
        out.iter().all(|o| o.placement().is_some()),
        "bench round must place its batch"
    );
}

/// Mean incremental-maintenance cost per index op, via timed
/// allocate/release churn on a working copy.
fn index_update_cost_ns(state: &ClusterState) -> u64 {
    let mut work = state.clone();
    let req = ContainerRequest::new(Resources::new(1, 1), [Tag::new("bench_churn")]);
    let n = work.num_nodes() as u32;
    let before_ops = work.index_stats().update_ops;
    let t = Instant::now();
    let pairs = 2_000u32;
    for i in 0..pairs {
        let node = NodeId(i % n);
        if let Ok(id) = work.allocate(
            ApplicationId(900_000),
            node,
            &req,
            ExecutionKind::LongRunning,
        ) {
            work.release(id).expect("churn container exists");
        }
    }
    let elapsed_ns = t.elapsed().as_nanos() as u64;
    let ops = (work.index_stats().update_ops - before_ops).max(1);
    elapsed_ns / ops
}

/// Outcome of the sharded-vs-unsharded scheduler-round comparison.
struct ShardCompare {
    unsharded_round_us: u64,
    sharded_round_us: u64,
    shards: usize,
    state_clones_per_round: u64,
}

/// Times full scheduler rounds — 10 LRAs of 8 containers each, every app
/// carrying its own node-level anti-affinity — through
/// [`MedeaScheduler::tick`], once with a monolithic solve and once with
/// per-shard solves (service-unit shards, footprint-free entries
/// round-robined). The apps' tags are distinct, so shard solves cannot
/// interact and every round must commit conflict-free; the asserts keep
/// the bench honest about that.
fn sharded_comparison(state: &ClusterState, nodes: usize, iters: usize) -> ShardCompare {
    // Whole service units per shard; capped so small scales still get a
    // meaningful (>= 2-way) split.
    let shards = (nodes / 1250).clamp(2, 16);
    let mut app_base = 700_000u64;
    let mut run = |config: Option<ShardConfig>| -> (u64, u64) {
        let mut m = MedeaScheduler::new(state.clone(), LraAlgorithm::Serial, 10);
        if let Some(c) = config {
            m.set_sharding(c);
        }
        let mut samples = Vec::with_capacity(iters);
        let mut clones = 0;
        for it in 0..iters as u64 {
            let now = 10 * it;
            for _ in 0..10 {
                let tag = format!("lra{app_base}");
                m.submit_lra(
                    LraRequest::uniform(
                        ApplicationId(app_base),
                        8,
                        Resources::new(512, 0),
                        vec![Tag::new(tag.clone())],
                        vec![PlacementConstraint::anti_affinity(
                            tag.as_str(),
                            tag.as_str(),
                            NodeGroupId::node(),
                        )],
                    ),
                    now,
                )
                .expect("bench LRA submits cleanly");
                app_base += 1;
            }
            let clones_before = state_clones();
            let t = Instant::now();
            let deployed = m.tick(now);
            samples.push(t.elapsed().as_micros() as u64);
            clones = state_clones() - clones_before;
            assert_eq!(clones, 0, "a scheduling round must not copy the cluster");
            assert_eq!(deployed.len(), 10, "comparison round must deploy its batch");
        }
        assert_eq!(
            m.stats().commit_conflicts,
            0,
            "disjoint apps cannot conflict"
        );
        samples.sort_unstable();
        (samples[samples.len() / 2], clones)
    };
    let (unsharded_round_us, _) = run(None);
    let (sharded_round_us, state_clones_per_round) = run(Some(ShardConfig::with_shards(shards)));
    ShardCompare {
        unsharded_round_us,
        sharded_round_us,
        shards,
        state_clones_per_round,
    }
}

struct PassStats {
    index_update_ops_populate: u64,
    index_update_ns_per_op: u64,
}

fn summarize(
    nodes: usize,
    mut samples: Vec<u64>,
    populate_us: u64,
    pass: PassStats,
    compare: ShardCompare,
) -> ScaleResult {
    let Summary {
        iters,
        median_us,
        p99_us,
        mean_us,
    } = Summary::of(&mut samples);
    ScaleResult {
        nodes,
        iters,
        median_us,
        p99_us,
        mean_us,
        populate_us,
        index_update_ops_populate: pass.index_update_ops_populate,
        index_update_ns_per_op: pass.index_update_ns_per_op,
        unsharded_round_us: compare.unsharded_round_us,
        sharded_round_us: compare.sharded_round_us,
        shards: compare.shards,
        state_clones_per_round: compare.state_clones_per_round,
    }
}

/// The inside of one `scales` row of `BENCH_scale.json`.
fn row_json(r: &ScaleResult) -> String {
    let shard_speedup = r.unsharded_round_us as f64 / r.sharded_round_us.max(1) as f64;
    format!(
        "\"nodes\": {}, \"iters\": {}, \"median_us\": {}, \"p99_us\": {}, \
         \"mean_us\": {}, \"populate_us\": {}, \
         \"index_update_ops_populate\": {}, \"index_update_ns_per_op\": {}, \
         \"unsharded_round_us\": {}, \"sharded_round_us\": {}, \
         \"shards\": {}, \"shard_speedup\": {shard_speedup:.2}, \
         \"state_clones_per_round\": {}",
        r.nodes,
        r.iters,
        r.median_us,
        r.p99_us,
        r.mean_us,
        r.populate_us,
        r.index_update_ops_populate,
        r.index_update_ns_per_op,
        r.unsharded_round_us,
        r.sharded_round_us,
        r.shards,
        r.state_clones_per_round,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scales: &[(usize, usize, usize)] = if smoke {
        // The 20000-node row keeps the sharded-speedup gate in CI.
        &[(500, 1, 2), (20000, 0, 2)]
    } else {
        &[
            (500, 1, 3),
            (2000, 0, 3),
            (5000, 0, 2),
            (20000, 0, 2),
            (50000, 0, 2),
        ]
    };
    let mut results = Vec::new();
    for &(nodes, warmup, iters) in scales {
        let t = Instant::now();
        let (state, deployed) = census_cluster(nodes);
        let populate_us = t.elapsed().as_micros() as u64;
        let index_update_ops_populate = state.index_stats().update_ops;
        let mut app = 500_000u64;
        let samples = time_iters(warmup, iters, || {
            scale_round(&state, &deployed, app);
            app += 1;
        });
        let pass = PassStats {
            index_update_ops_populate,
            index_update_ns_per_op: index_update_cost_ns(&state),
        };
        let compare = sharded_comparison(&state, nodes, iters.max(2));
        if nodes >= 20_000 {
            assert!(
                compare.sharded_round_us * 4 <= compare.unsharded_round_us,
                "sharded round ({} us) must be at most a quarter of the \
                 unsharded round ({} us) at {} nodes",
                compare.sharded_round_us,
                compare.unsharded_round_us,
                nodes,
            );
        }
        let r = summarize(nodes, samples, populate_us, pass, compare);
        println!(
            "{:>5} nodes: iters {:>2} median {:>10} us p99 {:>10} us populate {:>8} us \
             index {:>5} ns/op \
             round {:>9}/{:>9} us (unsharded/sharded x{})",
            r.nodes,
            r.iters,
            r.median_us,
            r.p99_us,
            r.populate_us,
            r.index_update_ns_per_op,
            r.unsharded_round_us,
            r.sharded_round_us,
            r.shards,
        );
        results.push(r);
    }
    let mut doc = BenchJson::new("scale", smoke);
    doc.rows("scales", results.iter().map(row_json));
    if let Err(e) = doc.write() {
        eprintln!("warning: cannot write BENCH_scale.json: {e}");
    }
}
