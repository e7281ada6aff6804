//! `solver_bench`: the MILP core's benchmark trajectory, emitted as
//! machine-readable JSON (`BENCH_solver.json`) so successive PRs can
//! compare solve-time medians on identical instances.
//!
//! Three instance families:
//!
//! 1. **`lp_relaxation/*`** — cold simplex solves of the assignment-shaped
//!    placement models the LRA scheduler emits (Fig. 6-scale batches).
//! 2. **`milp_exact/*`** — full branch-and-bound solves of the same
//!    shapes (the Fig. 9-shaped ILP instances the acceptance criteria
//!    track); identical to the `benches/solver_bench.rs` instances so the
//!    numbers line up with `cargo bench`.
//! 3. **`ilp_round/*`** — end-to-end scheduler rounds placing HBase-like
//!    batches (the Fig. 9a workload), once with the cross-round basis
//!    cache disabled (`cold`) and once with it shared across rounds
//!    (`warm`). Round time is dominated by model building, so the two
//!    typically sit within noise; the cache's per-solve effect shows in
//!    the `milp_exact` warm-start counts and the
//!    `core.ilp_warm_start_hits_total` metric.
//! 4. **`placer_frontier/*`** — the quality-vs-latency frontier of the
//!    placer arms (exact ILP, LP-relaxation fast path, heuristic) on
//!    capacity-tight batches from 8 containers up to 2048 (smoke: up to
//!    512). Batches run as a production-shaped sharded round: 16-LRA
//!    chunks, each routed to its own rack-sized node partition (the
//!    sharded propose/commit pipeline's geometry), with placements
//!    committed between chunks. Each row reports round latency plus
//!    placement quality: LRAs placed, committed hard-constraint
//!    violations (replayed and re-checked), and the relaxed arm's mean
//!    relative objective gap. Emitted under `"frontier"` in the JSON.
//!    The run *asserts* the frontier's contract: at batches ≥ 512 the
//!    relaxed arm is ≥ 10x faster than exact branch and bound, and no
//!    arm other than the heuristic ever commits a hard-constraint
//!    violation.
//!
//! Reference medians of the pre-eta-file dense solver (recorded on this
//! machine immediately before the sparse rewrite landed) are embedded in
//! the JSON under `"dense_baseline_us"` for the `milp_exact` instances.
//!
//! Usage: `cargo run --release -p medea-bench --bin solver_bench`
//! (`--smoke` runs a fast, low-iteration variant for CI; its JSON says
//! `"mode": "smoke"` and lands under `target/bench-smoke/`, never on the
//! committed file, so trajectories never mix modes).

use std::cell::Cell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use medea_bench::{placement_model, BenchJson};
use medea_cluster::{
    ApplicationId, ClusterState, ExecutionKind, NodeGroupId, NodeId, Resources, Tag,
};
use medea_constraints::{check_container, Cardinality, PlacementConstraint};
use medea_core::{
    IlpBasisCache, IlpConfig, LraAlgorithm, LraRequest, LraScheduler, PlacementOutcome, PlacerMode,
};
use medea_solver::{Milp, Simplex, SolveEvent, SolveInstrumentation};

/// Accumulates solver events across repeated solves of one instance.
#[derive(Default)]
struct Tally {
    pivots: Cell<u64>,
    refactorizations: Cell<u64>,
    warm_starts: Cell<u64>,
}

impl SolveInstrumentation for Tally {
    fn record(&self, event: SolveEvent) {
        match event {
            SolveEvent::SimplexPivots(n) => self.pivots.set(self.pivots.get() + n),
            SolveEvent::Refactorizations(n) => {
                self.refactorizations.set(self.refactorizations.get() + n)
            }
            SolveEvent::WarmStartUsed => self.warm_starts.set(self.warm_starts.get() + 1),
            _ => {}
        }
    }
}

/// One benchmarked instance's summary statistics.
struct InstanceResult {
    name: String,
    iters: usize,
    median_us: u64,
    p99_us: u64,
    mean_us: u64,
    pivots_per_solve: u64,
    refactorizations_per_solve: u64,
    warm_starts_per_solve: f64,
    /// Median of the pre-PR dense solver on this instance, when recorded.
    dense_baseline_us: Option<u64>,
}

fn summarize(
    name: &str,
    mut samples: Vec<u64>,
    tally: &Tally,
    dense_baseline_us: Option<u64>,
) -> InstanceResult {
    samples.sort_unstable();
    let iters = samples.len();
    let median_us = samples[iters / 2];
    let p99_idx = ((iters as f64 * 0.99).ceil() as usize).clamp(1, iters) - 1;
    let p99_us = samples[p99_idx];
    let mean_us = samples.iter().sum::<u64>() / iters as u64;
    InstanceResult {
        name: name.to_string(),
        iters,
        median_us,
        p99_us,
        mean_us,
        pivots_per_solve: tally.pivots.get() / iters as u64,
        refactorizations_per_solve: tally.refactorizations.get() / iters as u64,
        warm_starts_per_solve: tally.warm_starts.get() as f64 / iters as f64,
        dense_baseline_us,
    }
}

/// Times `f` for `iters` iterations after `warmup` untimed runs.
fn time_solves<F: FnMut()>(warmup: usize, iters: usize, mut f: F) -> Vec<u64> {
    for _ in 0..warmup {
        f();
    }
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_micros() as u64);
    }
    samples
}

/// Dense-solver medians recorded immediately before the sparse eta-file
/// rewrite, on the instances that still exist verbatim (see DESIGN.md).
fn dense_baseline(name: &str) -> Option<u64> {
    match name {
        "lp_relaxation/10x16" => Some(136),
        "lp_relaxation/20x32" => Some(1_599),
        "lp_relaxation/26x48" => Some(5_671),
        "milp_exact/8x12" => Some(17_783),
        "milp_exact/12x16" => Some(319_870),
        _ => None,
    }
}

/// A Fig. 9a-shaped scheduling round: a batch of HBase-like instances
/// (8 workers, 6-per-node cardinality cap) against a fixed cluster.
fn ilp_round(
    state: &ClusterState,
    scheduler: &LraScheduler,
    cache: Option<&IlpBasisCache>,
    first_app: u64,
) {
    let reqs: Vec<_> = (0..2)
        .map(|i| medea_sim::apps::hbase_like(ApplicationId(first_app + i), 8, 6))
        .collect();
    let out = scheduler.place_on(state, &reqs, &[], None, None, cache);
    assert!(
        out.outcomes.iter().all(|o| o.placement().is_some()),
        "bench round must place its batch"
    );
}

/// One quality-vs-latency frontier row: an arm at a batch size.
struct FrontierRow {
    name: String,
    batch_containers: usize,
    iters: usize,
    median_us: u64,
    p99_us: u64,
    placed_lras: usize,
    total_lras: usize,
    hard_violations: usize,
    relative_gap: Option<f64>,
}

/// LRAs per frontier chunk (64 containers — one rack's worth of work,
/// the scale the sharded round hands each solver).
const FRONTIER_CHUNK_LRAS: usize = 16;

/// Capacity-tight frontier batch: `containers` total containers in
/// 4-container LRAs of 3 GB / 1 core, each LRA carrying a hard
/// at-most-4-per-node cardinality cap on its own (distinct) tag. On
/// 16 GB nodes a container mix of 3 GB units packs fractionally at
/// 5.33 per node but integrally at 5, and the cluster is sized to
/// ~100% of *fractional* capacity (3 nodes per 16 containers): the LP
/// bound stays ~6% above the best integral placement, so exact branch
/// and bound must close that gap by search — the regime the fast path
/// exists for — while the LP itself stays easy.
fn frontier_instance(containers: usize) -> (ClusterState, Vec<LraRequest>) {
    let nodes = (containers * 3 / 16).max(2);
    let racks = (nodes / 12).max(1);
    let state = ClusterState::homogeneous(nodes, Resources::new(16 * 1024, 16), racks);
    let requests: Vec<LraRequest> = (0..containers / 4)
        .map(|i| {
            let tag = format!("app{i}");
            LraRequest::uniform(
                ApplicationId(i as u64 + 1),
                4,
                Resources::new(3 * 1024, 1),
                vec![Tag::new(&tag)],
                vec![PlacementConstraint::new(
                    tag.as_str(),
                    tag.as_str(),
                    Cardinality::at_most(4),
                    NodeGroupId::node(),
                )
                .hard()],
            )
        })
        .collect();
    (state, requests)
}

/// Splits the cluster's nodes into `n_chunks` contiguous partitions —
/// the per-chunk `allowed` lists of the sharded frontier round (ids
/// ascending, as the solver arms' tie-break contract requires).
fn frontier_partitions(n_nodes: usize, n_chunks: usize) -> Vec<Vec<NodeId>> {
    let per = n_nodes.div_ceil(n_chunks);
    (0..n_chunks)
        .map(|i| {
            (i * per..((i + 1) * per).min(n_nodes))
                .map(|n| NodeId(n as u32))
                .collect()
        })
        .collect()
}

/// Replays `outcomes` on a fresh copy of `state` and counts committed
/// containers violating an applicable hard constraint (the frontier's
/// quality column; must be zero for the solver arms).
fn committed_hard_violations(
    state: &ClusterState,
    requests: &[LraRequest],
    outcomes: &[PlacementOutcome],
) -> usize {
    let hard: Vec<&PlacementConstraint> = requests
        .iter()
        .flat_map(|r| r.constraints.iter())
        .filter(|c| c.is_hard())
        .collect();
    let mut work = state.clone();
    let mut live = Vec::new();
    for (r, out) in requests.iter().zip(outcomes) {
        let Some(pl) = out.placement() else { continue };
        for (c, &n) in r.containers.iter().zip(&pl.nodes) {
            let mut tags = c.tags.clone();
            tags.push(Tag::app_id(r.app));
            let id = work
                .allocate(r.app, n, c, ExecutionKind::LongRunning)
                .expect("frontier arm committed a capacity-infeasible placement");
            live.push((id, tags));
        }
    }
    live.iter()
        .map(|(id, tags)| {
            hard.iter()
                .filter(|c| {
                    c.subject.matches_tags(tags)
                        && check_container(&work, c, *id)
                            .map(|ch| !ch.satisfied)
                            .unwrap_or(false)
                })
                .count()
        })
        .sum()
}

/// Runs one placer arm through a full sharded frontier round: 16-LRA
/// chunks, each solved against its own node partition with earlier
/// chunks' placements committed and their constraints deployed.
/// Returns the outcomes and (for the relaxed arm) the mean relative
/// objective gap across chunks that reported one.
fn run_round(
    arm: PlacerMode,
    state: &ClusterState,
    requests: &[LraRequest],
    scheduler: &LraScheduler,
) -> (Vec<PlacementOutcome>, Option<f64>) {
    let chunks: Vec<&[LraRequest]> = requests.chunks(FRONTIER_CHUNK_LRAS).collect();
    let parts = frontier_partitions(state.node_ids().count(), chunks.len());
    let mut work = state.clone();
    let mut deployed: Vec<PlacementConstraint> = Vec::new();
    let mut outcomes = Vec::with_capacity(requests.len());
    let mut gaps = Vec::new();
    for (chunk, part) in chunks.iter().zip(&parts) {
        let placed = scheduler.place_on(&work, chunk, &deployed, Some(part), Some(arm), None);
        gaps.extend(placed.relax.and_then(|report| report.relative_gap()));
        let outs = placed.outcomes;
        for (r, out) in chunk.iter().zip(&outs) {
            if let Some(pl) = out.placement() {
                for (c, &n) in r.containers.iter().zip(&pl.nodes) {
                    work.allocate(r.app, n, c, ExecutionKind::LongRunning)
                        .expect("frontier arm committed an infeasible placement");
                }
                deployed.extend(r.constraints.iter().cloned());
            }
        }
        outcomes.extend(outs);
    }
    let gap = (!gaps.is_empty()).then(|| gaps.iter().sum::<f64>() / gaps.len() as f64);
    (outcomes, gap)
}

/// Benchmarks every arm at every batch size and enforces the frontier
/// contract (≥ 10x at large batches, zero hard violations on the solver
/// arms).
fn run_frontier(batches: &[usize]) -> Vec<FrontierRow> {
    let mut rows = Vec::new();
    for &containers in batches {
        let (state, requests) = frontier_instance(containers);
        // One sample at large batches (the exact arm runs each chunk to
        // its deadline there, so variance is the deadline's); three on
        // the small batch where every arm is fast.
        let (warmup, iters) = if containers >= 64 { (0, 1) } else { (1, 3) };
        let mut medians = std::collections::BTreeMap::new();
        for arm in [PlacerMode::Ilp, PlacerMode::Relaxed, PlacerMode::Heuristic] {
            let mut scheduler = LraScheduler::new(LraAlgorithm::Ilp);
            scheduler.ilp = IlpConfig {
                mode: arm,
                gap: 1e-6,
                // Per-chunk deadline. The exact arm burns it chunk after
                // chunk proving ~6% integrality gaps; the same limit
                // bounds the relaxed arm's internal exact-residue solve,
                // which stays microseconds because the residue is a
                // handful of LRAs.
                time_limit: Duration::from_secs(2),
                node_limit: 50_000_000,
                ..IlpConfig::default()
            };
            let mut last: Option<(Vec<PlacementOutcome>, Option<f64>)> = None;
            let mut samples = time_solves(warmup, iters, || {
                last = Some(run_round(arm, &state, &requests, &scheduler));
            });
            samples.sort_unstable();
            let (outcomes, gap) = last.expect("at least one iteration ran");
            let placed = outcomes.iter().filter(|o| o.placement().is_some()).count();
            let violations = committed_hard_violations(&state, &requests, &outcomes);
            if arm != PlacerMode::Heuristic {
                assert_eq!(
                    violations,
                    0,
                    "{} arm committed {violations} hard violations at batch {containers}",
                    arm.name()
                );
            }
            let median_us = samples[samples.len() / 2];
            medians.insert(arm.name(), median_us);
            rows.push(FrontierRow {
                name: format!("placer_frontier/{}/{}", arm.name(), containers),
                batch_containers: containers,
                iters,
                median_us,
                p99_us: *samples.last().unwrap(),
                placed_lras: placed,
                total_lras: requests.len(),
                hard_violations: violations,
                relative_gap: gap,
            });
        }
        if containers >= 512 {
            let ilp = medians["ilp"];
            let relaxed = medians["relaxed"].max(1);
            assert!(
                relaxed * 10 <= ilp,
                "frontier gate: relaxed arm must be >=10x faster than exact at batch \
                 {containers} (ilp {ilp}us vs relaxed {relaxed}us)"
            );
        }
    }
    rows
}

fn json_escape_free(s: &str) -> &str {
    debug_assert!(s.chars().all(|c| c != '"' && c != '\\' && c >= ' '));
    s
}

/// The inside of one `instances` row of `BENCH_solver.json`.
fn instance_json(r: &InstanceResult) -> String {
    let mut row = format!(
        "\"name\": \"{}\", \"iters\": {}, \"median_us\": {}, \"p99_us\": {}, \
         \"mean_us\": {}, \"pivots_per_solve\": {}, \"refactorizations_per_solve\": {}, \
         \"warm_starts_per_solve\": {:.2}",
        json_escape_free(&r.name),
        r.iters,
        r.median_us,
        r.p99_us,
        r.mean_us,
        r.pivots_per_solve,
        r.refactorizations_per_solve,
        r.warm_starts_per_solve,
    );
    if let Some(b) = r.dense_baseline_us {
        let speedup = b as f64 / r.median_us.max(1) as f64;
        let _ = write!(
            row,
            ", \"dense_baseline_us\": {b}, \"speedup_vs_dense\": {speedup:.2}"
        );
    }
    row
}

/// The inside of one `frontier` row.
fn frontier_json(r: &FrontierRow) -> String {
    let mut row = format!(
        "\"name\": \"{}\", \"batch_containers\": {}, \"iters\": {}, \"median_us\": {}, \
         \"p99_us\": {}, \"placed_lras\": {}, \"total_lras\": {}, \"hard_violations\": {}",
        json_escape_free(&r.name),
        r.batch_containers,
        r.iters,
        r.median_us,
        r.p99_us,
        r.placed_lras,
        r.total_lras,
        r.hard_violations,
    );
    if let Some(g) = r.relative_gap {
        let _ = write!(row, ", \"relative_gap\": {g:.4}");
    }
    row
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (lp_iters, milp_iters, rounds) = if smoke { (5, 3, 4) } else { (30, 10, 12) };
    let mut results: Vec<InstanceResult> = Vec::new();

    // Family 1: LP relaxations (cold simplex).
    for &(containers, nodes) in &[(10usize, 16usize), (20, 32), (26, 48)] {
        let name = format!("lp_relaxation/{containers}x{nodes}");
        let p = placement_model(containers, nodes);
        let tally = Tally::default();
        let samples = time_solves(2, lp_iters, || {
            let sol = Simplex::new(&p).solve();
            tally.record(SolveEvent::SimplexPivots(sol.iterations as u64));
            tally.record(SolveEvent::Refactorizations(sol.refactorizations as u64));
        });
        results.push(summarize(&name, samples, &tally, dense_baseline(&name)));
    }

    // Family 2: exact MILP solves (the acceptance-tracked instances).
    for &(containers, nodes) in &[(8usize, 12usize), (12, 16)] {
        let name = format!("milp_exact/{containers}x{nodes}");
        let p = placement_model(containers, nodes);
        let tally = Tally::default();
        let samples = time_solves(1, milp_iters, || {
            Milp::new(&p)
                .with_instrumentation(&tally)
                .solve()
                .expect("bench model must validate");
        });
        results.push(summarize(&name, samples, &tally, dense_baseline(&name)));
    }

    // Family 3: scheduler rounds, cold vs cross-round warm cache. The
    // state is held fixed so every round solves the same skeleton — the
    // steady state the cache targets.
    let state = ClusterState::homogeneous(30, Resources::new(16 * 1024, 16), 3);
    for warm in [false, true] {
        let name = format!("ilp_round/fig9_{}", if warm { "warm" } else { "cold" });
        let scheduler = LraScheduler::new(LraAlgorithm::Ilp);
        let cache = warm.then(IlpBasisCache::default);
        let mut app = 1u64;
        let samples = time_solves(1, rounds, || {
            ilp_round(&state, &scheduler, cache.as_ref(), app);
            app += 100;
        });
        results.push(summarize(&name, samples, &Tally::default(), None));
    }

    // Family 4: the placer quality-vs-latency frontier (asserts its own
    // >=10x-at-large-batch and zero-hard-violation contract).
    let batches: &[usize] = if smoke {
        &[8, 64, 512]
    } else {
        &[8, 32, 128, 512, 2048]
    };
    let frontier = run_frontier(batches);

    println!(
        "{:<24} {:>6} {:>10} {:>10} {:>10} {:>8} {:>6} {:>6}",
        "instance", "iters", "median_us", "p99_us", "mean_us", "pivots", "refac", "warm"
    );
    for r in &results {
        println!(
            "{:<24} {:>6} {:>10} {:>10} {:>10} {:>8} {:>6} {:>6.2}",
            r.name,
            r.iters,
            r.median_us,
            r.p99_us,
            r.mean_us,
            r.pivots_per_solve,
            r.refactorizations_per_solve,
            r.warm_starts_per_solve,
        );
        if let Some(b) = r.dense_baseline_us {
            println!(
                "{:<24} {:>6} {:>10} (dense baseline; {:.2}x)",
                "",
                "",
                b,
                b as f64 / r.median_us.max(1) as f64
            );
        }
    }
    println!(
        "\n{:<28} {:>6} {:>10} {:>10} {:>8} {:>6} {:>8}",
        "frontier", "batch", "median_us", "p99_us", "placed", "viol", "gap"
    );
    for r in &frontier {
        println!(
            "{:<28} {:>6} {:>10} {:>10} {:>8} {:>6} {:>8}",
            r.name,
            r.batch_containers,
            r.median_us,
            r.p99_us,
            format!("{}/{}", r.placed_lras, r.total_lras),
            r.hard_violations,
            r.relative_gap
                .map(|g| format!("{g:.3}"))
                .unwrap_or_else(|| "-".to_string()),
        );
    }
    let mut doc = BenchJson::new("solver", smoke);
    doc.rows("instances", results.iter().map(instance_json));
    doc.rows("frontier", frontier.iter().map(frontier_json));
    if let Err(e) = doc.write() {
        eprintln!("warning: cannot write BENCH_solver.json: {e}");
    }
}
