//! `solver_bench`: the MILP core's benchmark trajectory, emitted as
//! machine-readable JSON (`BENCH_solver.json`) so successive PRs can
//! compare solve-time medians on identical instances.
//!
//! Four instance families:
//!
//! 1. **`lp_relaxation/*`** — cold simplex solves of the assignment-shaped
//!    placement models the LRA scheduler emits (Fig. 6-scale batches).
//! 2. **`milp_exact/*`** — full branch-and-bound solves of the same
//!    shapes (the Fig. 9-shaped ILP instances the acceptance criteria
//!    track).
//! 3. **`anchor_round/{prefill64,hbase3}`** — the served arm's round:
//!    16 heuristic-arm rounds (the anchor, then its validation) on 500
//!    homogeneous nodes, of 64 one-container LRAs committed round after
//!    round (`steady_tiny`'s set-up load), or of three HBase LRAs
//!    committed and released, each listed in a new order under new app
//!    ids (`burst_hbase`'s bursts), each batch with one container whose
//!    soft affinity no placement meets. Anchor probes are the
//!    scheduler's own metric (`core.anchor_probes_total`), and the run
//!    *asserts* the count that cannot be noisy: `hbase3`'s anchor scores
//!    at most 400 cells a round (it scores 367). `anchor_us`, the p50 of
//!    `core.prepare_anchor_us`, is shown, not gated.
//! 4. **`placer_frontier/*`** — the quality-vs-latency frontier of the
//!    two placer arms (exact ILP, validated heuristic) on capacity-tight
//!    batches from 8 containers up to 2048 (smoke: up to 512). Batches
//!    run as a production-shaped sharded round: 16-LRA chunks, each
//!    routed to its own rack-sized node partition (the sharded
//!    propose/commit pipeline's geometry), with placements committed
//!    between chunks. Each row reports round latency plus placement
//!    quality: LRAs placed and committed hard-constraint violations
//!    (replayed and re-checked). Emitted under `"frontier"` in the JSON.
//!    The run *asserts* the frontier's contract: at batches ≥ 512 the
//!    heuristic arm is ≥ 10x faster than exact branch and bound, and no
//!    arm ever commits a hard-constraint violation.
//!
//! Usage: `cargo run --release -p medea-bench --bin solver_bench`
//! (`--smoke` runs a fast, low-iteration variant for CI; its JSON says
//! `"mode": "smoke"` and lands under `target/bench-smoke/`, never on the
//! committed file, so trajectories never mix modes).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use medea_bench::{time_iters, BenchJson, Summary};
use medea_cluster::{
    ApplicationId, ClusterState, ExecutionKind, NodeGroupId, NodeId, Resources, Tag,
};
use medea_constraints::{check_container, Cardinality, PlacementConstraint};
use medea_core::{IlpConfig, LraAlgorithm, LraRequest, LraScheduler, PlacementOutcome, PlacerMode};
use medea_obs::MetricsRegistry;
use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};
use medea_sim::apps::hbase_instance;
use medea_solver::{Cmp, Milp, Problem, Simplex, SolveCounts};

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
    /// Cells the anchor scored per round and the p50 of
    /// `core.prepare_anchor_us` (`anchor_round/*` rows only).
    anchor: Option<(u64, u64)>,
}

/// `sum`: the solver counts of the timed solves only, one per sample.
fn summarize(name: &str, mut samples: Vec<u64>, sum: &SolveCounts) -> InstanceResult {
    let Summary {
        iters,
        median_us,
        p99_us,
        mean_us,
    } = Summary::of(&mut samples);
    InstanceResult {
        name: name.to_string(),
        iters,
        median_us,
        p99_us,
        mean_us,
        pivots_per_solve: sum.pivots / iters as u64,
        refactorizations_per_solve: sum.refactorizations / iters as u64,
        warm_starts_per_solve: sum.warm_starts as f64 / iters as f64,
        anchor: None,
    }
}

/// An assignment-like placement model: `containers` binaries per
/// `nodes` candidates with capacity rows and an anti-affinity-style cap —
/// the shape the LRA scheduler emits for a batch placement (the solver
/// side of the paper's Fig. 6/Fig. 9 workloads).
fn placement_model(containers: usize, nodes: usize) -> Problem {
    let mut p = Problem::maximize();
    let x: Vec<Vec<_>> = (0..containers)
        .map(|i| {
            (0..nodes)
                .map(|n| p.add_binary(0.0, format!("x{i}_{n}")))
                .collect::<Vec<_>>()
        })
        .collect();
    let s = p.add_binary(1.0, "s");
    // Each container at most once; all-or-nothing.
    let mut all = Vec::new();
    for row in &x {
        p.add_constraint(row.iter().map(|&v| (v, 1.0)), Cmp::Le, 1.0);
        all.extend(row.iter().map(|&v| (v, 1.0)));
    }
    all.push((s, -(containers as f64)));
    p.add_constraint(all, Cmp::Eq, 0.0);
    // Capacity: at most 2 containers per node (`n` walks the transposed
    // node dimension of `x`, hence the index loop).
    #[allow(clippy::needless_range_loop)]
    for n in 0..nodes {
        p.add_constraint(x.iter().map(|row| (row[n], 1.0)), Cmp::Le, 2.0);
    }
    // Symmetry breaking like the scheduler's.
    for w in x.windows(2) {
        let mut terms = Vec::new();
        for (n, (&va, &vb)) in w[0].iter().zip(w[1].iter()).enumerate() {
            terms.push((va, (n + 1) as f64));
            terms.push((vb, -((n + 1) as f64)));
        }
        p.add_constraint(terms, Cmp::Le, 0.0);
    }
    p
}

/// Rounds of each `anchor_round/*` row.
const ANCHOR_ROUNDS: u64 = 16;

/// An `anchor_round/*` family: its name, its batch for a round, and
/// whether a round's batch is released after it is committed.
type Family = (&'static str, fn(u64) -> Vec<LraRequest>, bool);
const FAMILIES: [Family; 2] = [("prefill64", prefill64, false), ("hbase3", hbase3, true)];

/// `prefill64`'s round `round`: 64 one-container LRAs.
fn prefill64(round: u64) -> Vec<LraRequest> {
    (0..64)
        .map(|k| {
            let app = 1 + round * 64 + k;
            LraRequest::uniform(
                ApplicationId(app),
                1,
                Resources::new(512, 1),
                vec![Tag::new(format!("tiny{}", app % 97))],
                Vec::new(),
            )
        })
        .collect()
}

/// `hbase3`'s round `round`: three §7.1 HBase LRAs under fresh app ids,
/// each listing its containers and constraints in its own order.
fn hbase3(round: u64) -> Vec<LraRequest> {
    let mut rng = StdRng::seed_from_u64(round);
    (1..=3)
        .map(|k| {
            let mut r = hbase_instance(ApplicationId(round * 3 + k), 8);
            rng.shuffle(&mut r.containers);
            rng.shuffle(&mut r.constraints);
            r
        })
        .collect()
}

/// One container with a soft node affinity to a tag no container
/// carries: it breaks that check wherever it lands.
fn unmet(round: u64) -> LraRequest {
    let near = PlacementConstraint::affinity("unmet", "absent", NodeGroupId::node());
    let (app, tags) = (ApplicationId(u64::MAX - round), vec![Tag::new("unmet")]);
    LraRequest::uniform(app, 1, Resources::new(512, 1), tags, vec![near])
}

/// Family 3: [`ANCHOR_ROUNDS`] heuristic-arm rounds of a [`Family`]'s
/// batches plus an [`unmet`] LRA on 500 nodes.
fn anchor_rounds((name, batch, release): Family) -> InstanceResult {
    let registry = MetricsRegistry::new();
    let mut scheduler = LraScheduler::new(LraAlgorithm::Ilp);
    scheduler.ilp.mode = PlacerMode::Heuristic;
    scheduler.set_metrics(&registry);

    let mut state = ClusterState::homogeneous(500, Resources::new(16 * 1024, 16), 12);
    let mut samples = Vec::new();
    for round in 0..ANCHOR_ROUNDS {
        let mut batch = batch(round);
        batch.push(unmet(round));
        let t = Instant::now();
        let placed = scheduler.place_on(&mut state, &batch, &[], None, None);
        samples.push(t.elapsed().as_micros() as u64);
        for (r, out) in batch.iter().zip(&placed.outcomes) {
            let pl = out.placement().expect("a round must place its batch");
            for (c, &n) in r.containers.iter().zip(&pl.nodes) {
                state
                    .allocate(r.app, n, c, ExecutionKind::LongRunning)
                    .expect("a round committed an infeasible placement");
            }
        }
        if release {
            for r in &batch {
                state.release_app(r.app);
            }
        }
    }
    let count = |name| registry.counter(name).get();
    let sum = SolveCounts {
        pivots: count("solver.simplex_pivots_total"),
        refactorizations: count("solver.refactorizations_total"),
        warm_starts: count("solver.warm_starts_total"),
        ..SolveCounts::default()
    };
    let mut row = summarize(&format!("anchor_round/{name}"), samples, &sum);
    let probes = registry.counter("core.anchor_probes_total").get();
    let anchor_us = registry.histogram("core.prepare_anchor_us").quantile(0.5);
    row.anchor = Some((probes / ANCHOR_ROUNDS, anchor_us.round() as u64));
    row
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
/// and bound must close that gap by search while the LP itself stays
/// easy.
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
/// ascending, as the placer arms' tie-break contract requires).
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
/// quality column; must be zero for every arm).
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
fn run_round(
    arm: PlacerMode,
    state: &ClusterState,
    requests: &[LraRequest],
    scheduler: &LraScheduler,
) -> Vec<PlacementOutcome> {
    let chunks: Vec<&[LraRequest]> = requests.chunks(FRONTIER_CHUNK_LRAS).collect();
    let parts = frontier_partitions(state.node_ids().count(), chunks.len());
    let mut work = state.clone();
    let mut deployed: Vec<PlacementConstraint> = Vec::new();
    let mut outcomes = Vec::with_capacity(requests.len());
    for (chunk, part) in chunks.iter().zip(&parts) {
        let placed = scheduler.place_on(&mut work, chunk, &deployed, Some(part), Some(arm));
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
    outcomes
}

/// Benchmarks every arm at every batch size and enforces the frontier
/// contract (≥ 10x at large batches, zero hard violations on every
/// arm).
fn run_frontier(batches: &[usize]) -> Vec<FrontierRow> {
    let mut rows = Vec::new();
    for &containers in batches {
        let (state, requests) = frontier_instance(containers);
        // One sample at large batches (the exact arm runs each chunk to
        // its deadline there, so variance is the deadline's); three on
        // the small batch where every arm is fast.
        let (warmup, iters) = if containers >= 64 { (0, 1) } else { (1, 3) };
        let mut medians = std::collections::BTreeMap::new();
        for arm in [PlacerMode::Ilp, PlacerMode::Heuristic] {
            let mut scheduler = LraScheduler::new(LraAlgorithm::Ilp);
            scheduler.ilp = IlpConfig {
                mode: arm,
                gap: 1e-6,
                // Per-chunk deadline. The exact arm burns it chunk after
                // chunk proving ~6% integrality gaps.
                time_limit: Duration::from_secs(2),
                node_limit: 50_000_000,
                ..IlpConfig::default()
            };
            let mut last: Option<Vec<PlacementOutcome>> = None;
            let mut samples = time_iters(warmup, iters, || {
                last = Some(run_round(arm, &state, &requests, &scheduler));
            });
            samples.sort_unstable();
            let outcomes = last.expect("at least one iteration ran");
            let placed = outcomes.iter().filter(|o| o.placement().is_some()).count();
            let violations = committed_hard_violations(&state, &requests, &outcomes);
            assert_eq!(
                violations,
                0,
                "{} arm committed {violations} hard violations at batch {containers}",
                arm.name()
            );
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
            });
        }
        if containers >= 512 {
            let ilp = medians["ilp"];
            let heuristic = medians["heuristic"].max(1);
            assert!(
                heuristic * 10 <= ilp,
                "frontier gate: heuristic arm must be >=10x faster than exact at batch \
                 {containers} (ilp {ilp}us vs heuristic {heuristic}us)"
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
    if let Some((probes, us)) = r.anchor {
        let _ = write!(row, ", \"anchor_probes_per_solve\": {probes}");
        let _ = write!(row, ", \"anchor_us\": {us}");
    }
    row
}

/// The inside of one `frontier` row.
fn frontier_json(r: &FrontierRow) -> String {
    format!(
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
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (lp_iters, milp_iters) = if smoke { (5, 3) } else { (30, 10) };
    let mut results: Vec<InstanceResult> = Vec::new();

    // Family 1: LP relaxations (cold simplex).
    for &(containers, nodes) in &[(10usize, 16usize), (20, 32), (26, 48)] {
        let name = format!("lp_relaxation/{containers}x{nodes}");
        let p = placement_model(containers, nodes);
        let solve = || Simplex::new(&p).solve();
        let _ = (solve(), solve()); // warm-up: untimed and not counted
        let mut sum = SolveCounts::default();
        let samples = time_iters(0, lp_iters, || {
            let sol = solve();
            sum.pivots += sol.iterations as u64;
            sum.refactorizations += sol.refactorizations as u64;
        });
        results.push(summarize(&name, samples, &sum));
    }

    // Family 2: exact MILP solves (the acceptance-tracked instances).
    for &(containers, nodes) in &[(8usize, 12usize), (12, 16)] {
        let name = format!("milp_exact/{containers}x{nodes}");
        let p = placement_model(containers, nodes);
        let solve = || Milp::new(&p).solve().expect("bench model must validate");
        solve(); // warm-up: untimed and not counted
        let mut sum = SolveCounts::default();
        let samples = time_iters(0, milp_iters, || {
            let c = solve().counts;
            sum.pivots += c.pivots;
            sum.refactorizations += c.refactorizations;
            sum.warm_starts += c.warm_starts;
        });
        results.push(summarize(&name, samples, &sum));
    }

    // Family 3: the served arm's rounds.
    for family in FAMILIES {
        let row = anchor_rounds(family);
        let (probes, _) = row.anchor.unwrap_or_default();
        assert!(
            family.0 != "hbase3" || probes <= 400,
            "hbase3's anchor scored {probes} cells a round (at most 400)"
        );
        results.push(row);
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
        "{:<30} {:>6} {:>10} {:>10} {:>10} {:>8} {:>6} {:>6} {:>7} anchor_us",
        "instance", "iters", "median_us", "p99_us", "mean_us", "pivots", "refac", "warm", "probes"
    );
    for r in &results {
        println!(
            "{:<30} {:>6} {:>10} {:>10} {:>10} {:>8} {:>6} {:>6.2} {:>7} {:>9}",
            r.name,
            r.iters,
            r.median_us,
            r.p99_us,
            r.mean_us,
            r.pivots_per_solve,
            r.refactorizations_per_solve,
            r.warm_starts_per_solve,
            r.anchor.unwrap_or_default().0,
            r.anchor.unwrap_or_default().1,
        );
    }
    println!(
        "\n{:<28} {:>6} {:>10} {:>10} {:>8} {:>6}",
        "frontier", "batch", "median_us", "p99_us", "placed", "viol"
    );
    for r in &frontier {
        println!(
            "{:<28} {:>6} {:>10} {:>10} {:>8} {:>6}",
            r.name,
            r.batch_containers,
            r.median_us,
            r.p99_us,
            format!("{}/{}", r.placed_lras, r.total_lras),
            r.hard_violations,
        );
    }
    let mut doc = BenchJson::new("solver", smoke);
    doc.rows("instances", results.iter().map(instance_json));
    doc.rows("frontier", frontier.iter().map(frontier_json));
    if let Err(e) = doc.write() {
        eprintln!("warning: cannot write BENCH_solver.json: {e}");
    }
}
