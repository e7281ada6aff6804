//! Differential optimality tests: on exhaustively enumerable instances
//! (≤ 6 nodes, ≤ 8 containers), the ILP scheduler's placement must score
//! exactly the brute-force optimum of the Eq. 1 objective, and the greedy
//! heuristic must stay within its stated bound (never better than the
//! optimum, and — because the ILP is seeded with the heuristic incumbent
//! and runs with `gap = 0` — never better than the ILP either).
//!
//! The ground-truth evaluator mirrors the Fig. 5 model exactly (with
//! `w3 = 0` to drop the fragmentation component, whose candidate-count
//! normalization depends on the model's internal candidate selection):
//!
//! - objective = `w1 · placed/k − (w2/m) · Σ weight · extent`, where `m`
//!   is the number of relevance-filtered, deduplicated constraints;
//! - a (constraint, node) block charges only when a placed subject
//!   container sits on the node;
//! - a leaf's extent is `shortfall/cmin + excess/max(cmax, 1)` with the
//!   model's self-exclusion adjustment (`self_m = 1` when any new subject
//!   container also matches the target expression).
//!
//! ~50 fixed `medea-rand` seeds keep the suite deterministic.

use medea_cluster::{
    ApplicationId, ClusterState, ExecutionKind, NodeGroupId, NodeId, Resources, Tag,
};
use medea_constraints::{Cardinality, PlacementConstraint};
use medea_core::{
    HeuristicScheduler, IlpConfig, LraAlgorithm, LraRequest, LraScheduler, ObjectiveWeights,
    Ordering, PlacementOutcome,
};
use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};
use std::time::Duration;

const SEEDS: u64 = 50;
/// Cap on the assignment-space size so debug-mode enumeration stays fast.
const MAX_SPACE: u64 = 60_000;
const TOL: f64 = 1e-6;

struct Instance {
    state: ClusterState,
    requests: Vec<LraRequest>,
}

fn random_instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_nodes = rng.random_range(2..7usize);
    let racks = rng.random_range(1..3usize).min(n_nodes);
    let node_mem = *rng.choose(&[4096u64, 6144, 8192]).unwrap();
    let state = ClusterState::homogeneous(n_nodes, Resources::new(node_mem, 8), racks);

    let tag_pool = ["a", "b", "c"];
    let k = rng.random_range(1..3usize);
    let mut requests = Vec::new();
    let mut budget = 8usize;
    for ri in 0..k {
        // Resample the container count until the full enumeration space
        // (including earlier requests) stays under MAX_SPACE.
        let mut count;
        loop {
            count = rng.random_range(1..5usize).min(budget.max(1));
            let space: u64 = requests
                .iter()
                .map(|r: &LraRequest| 1 + (n_nodes as u64).pow(r.num_containers() as u32))
                .product::<u64>()
                * (1 + (n_nodes as u64).pow(count as u32));
            if space <= MAX_SPACE {
                break;
            }
        }
        budget -= count;
        let mem = *rng.choose(&[1024u64, 2048, 3072]).unwrap();
        let tag = Tag::new(tag_pool[rng.random_range(0..tag_pool.len())]);
        requests.push(LraRequest::uniform(
            ApplicationId(ri as u64 + 1),
            count,
            Resources::new(mem, 1),
            vec![tag],
            Vec::new(),
        ));
    }

    // Soft single-leaf node-level constraints over the tags in use, with
    // weights 1-3 (the evaluator only handles single conjuncts, which is
    // all these constructors produce).
    let used: Vec<&str> = tag_pool.to_vec();
    let n_constraints = rng.random_range(0..4usize);
    for i in 0..n_constraints {
        let subject = *rng.choose(&used).unwrap();
        let target = *rng.choose(&used).unwrap();
        let cardinality = *rng
            .choose(&[
                Cardinality::anti_affinity(),
                Cardinality::affinity(),
                Cardinality::at_most(1),
                Cardinality::at_most(2),
                Cardinality::range(1, 2),
            ])
            .unwrap();
        let weight = rng.random_range(1..4usize) as f64;
        let c = PlacementConstraint::new(subject, target, cardinality, NodeGroupId::node())
            .with_weight(weight);
        let ri = i % requests.len();
        requests[ri].constraints.push(c);
    }
    Instance { state, requests }
}

/// Effective tags of each container (request tags + automatic `appid:`),
/// flattened in the model's global-container order.
fn effective_tags(requests: &[LraRequest]) -> Vec<Vec<Tag>> {
    let mut out = Vec::new();
    for r in requests {
        for c in &r.containers {
            let mut tags = c.tags.clone();
            let auto = Tag::app_id(r.app);
            if !tags.contains(&auto) {
                tags.push(auto);
            }
            out.push(tags);
        }
    }
    out
}

/// The scheduler's relevance filter + dedup, reproduced for `m`.
fn active_constraints(requests: &[LraRequest], tags: &[Vec<Tag>]) -> Vec<PlacementConstraint> {
    let mut active: Vec<PlacementConstraint> = Vec::new();
    for c in requests.iter().flat_map(|r| r.constraints.iter()) {
        let relevant = tags.iter().any(|t| {
            c.subject.matches_tags(t) || c.expr.leaves().any(|l| l.target.matches_tags(t))
        });
        if relevant && !active.contains(c) {
            active.push(c.clone());
        }
    }
    active
}

/// Ground-truth Eq. 1 score (with `w3 = 0`) of one full assignment;
/// `NEG_INFINITY` when the assignment violates capacity.
/// `assignment[gci] = Some(node index)`, all-or-nothing already enforced
/// by the enumerator/extractor.
fn score(
    instance: &Instance,
    weights: &ObjectiveWeights,
    tags: &[Vec<Tag>],
    active: &[PlacementConstraint],
    assignment: &[Option<usize>],
) -> f64 {
    let n_nodes = instance.state.num_nodes();
    let k = instance.requests.len() as f64;

    // Capacity feasibility.
    let mut mem = vec![0u64; n_nodes];
    let mut cpu = vec![0u64; n_nodes];
    let mut gci = 0usize;
    let mut placed_requests = 0usize;
    for r in &instance.requests {
        let mut placed = 0usize;
        for c in &r.containers {
            if let Some(ni) = assignment[gci] {
                mem[ni] += c.resources.memory_mb;
                cpu[ni] += c.resources.vcores as u64;
                placed += 1;
            }
            gci += 1;
        }
        assert!(
            placed == 0 || placed == r.containers.len(),
            "enumerator must respect all-or-nothing"
        );
        if placed == r.containers.len() && !r.containers.is_empty() {
            placed_requests += 1;
        }
    }
    for ni in 0..n_nodes {
        let free = instance
            .state
            .free(medea_cluster::NodeId(ni as u32))
            .unwrap();
        if mem[ni] > free.memory_mb || cpu[ni] > free.vcores as u64 {
            return f64::NEG_INFINITY;
        }
    }

    // Violation extent, mirroring the model's per-(constraint, node-set)
    // blocks for node-level groups (each node is its own set).
    let m = active.len().max(1) as f64;
    let mut viol = 0.0;
    for c in active {
        let subj: Vec<bool> = tags.iter().map(|t| c.subject.matches_tags(t)).collect();
        for leaf in c.expr.leaves() {
            let targ: Vec<bool> = tags.iter().map(|t| leaf.target.matches_tags(t)).collect();
            // Static self-exclusion: any new subject also matches the
            // target (regardless of where it is placed).
            let self_m = subj.iter().zip(&targ).any(|(&s, &t)| s && t) as u32 as f64;
            for ni in 0..n_nodes {
                let subject_here = assignment
                    .iter()
                    .enumerate()
                    .any(|(g, a)| *a == Some(ni) && subj[g]);
                if !subject_here {
                    continue;
                }
                let count = assignment
                    .iter()
                    .enumerate()
                    .filter(|(g, a)| **a == Some(ni) && targ[*g])
                    .count() as f64;
                let mut extent = 0.0;
                if leaf.cardinality.min > 0 {
                    let cmin = leaf.cardinality.min as f64;
                    extent += (cmin + self_m - count).max(0.0) / cmin;
                }
                if let Some(cmax) = leaf.cardinality.max {
                    let cmax = cmax as f64;
                    extent += (count - cmax - self_m).max(0.0) / cmax.max(1.0);
                }
                viol += c.weight * extent;
            }
        }
    }

    weights.w1 * placed_requests as f64 / k - weights.w2 / m * viol
}

/// Brute-force maximum over every all-or-nothing assignment.
fn brute_force_best(
    instance: &Instance,
    weights: &ObjectiveWeights,
    tags: &[Vec<Tag>],
    active: &[PlacementConstraint],
) -> f64 {
    let n_nodes = instance.state.num_nodes();
    let counts: Vec<usize> = instance
        .requests
        .iter()
        .map(|r| r.num_containers())
        .collect();
    let total: usize = counts.iter().sum();

    // Per-request options: unplaced, or any node vector of length t_r.
    let mut options: Vec<Vec<Vec<Option<usize>>>> = Vec::new();
    for &t in &counts {
        let mut opts: Vec<Vec<Option<usize>>> = vec![vec![None; t]];
        let mut idx = vec![0usize; t];
        loop {
            opts.push(idx.iter().map(|&n| Some(n)).collect());
            // Odometer increment over node indices.
            let mut pos = 0;
            loop {
                if pos == t {
                    break;
                }
                idx[pos] += 1;
                if idx[pos] < n_nodes {
                    break;
                }
                idx[pos] = 0;
                pos += 1;
            }
            if pos == t {
                break;
            }
        }
        options.push(opts);
    }

    let mut best = f64::NEG_INFINITY;
    let mut pick = vec![0usize; options.len()];
    let mut assignment = vec![None; total];
    loop {
        let mut gci = 0usize;
        for (ri, opts) in options.iter().enumerate() {
            for &a in &opts[pick[ri]] {
                assignment[gci] = a;
                gci += 1;
            }
        }
        let s = score(instance, weights, tags, active, &assignment);
        if s > best {
            best = s;
        }
        // Odometer over per-request picks.
        let mut pos = 0;
        loop {
            if pos == options.len() {
                return best;
            }
            pick[pos] += 1;
            if pick[pos] < options[pos].len() {
                break;
            }
            pick[pos] = 0;
            pos += 1;
        }
    }
}

/// Converts scheduler outcomes into the evaluator's assignment vector.
fn assignment_of(requests: &[LraRequest], outcomes: &[PlacementOutcome]) -> Vec<Option<usize>> {
    let mut out = Vec::new();
    for (r, o) in requests.iter().zip(outcomes) {
        match o.placement() {
            Some(p) => {
                assert_eq!(p.nodes.len(), r.containers.len());
                out.extend(p.nodes.iter().map(|n| Some(n.0 as usize)));
            }
            None => out.extend(std::iter::repeat_n(None, r.containers.len())),
        }
    }
    out
}

#[test]
fn ilp_matches_brute_force_optimum_and_heuristic_is_admissible() {
    let weights = ObjectiveWeights {
        w3: 0.0,
        ..ObjectiveWeights::default()
    };
    let cfg = IlpConfig {
        weights,
        gap: 0.0,
        time_limit: Duration::from_secs(30),
        node_limit: 5_000_000,
        ..IlpConfig::default()
    };
    let mut exact = LraScheduler::new(LraAlgorithm::Ilp);
    exact.ilp = cfg;

    for seed in 0..SEEDS {
        let instance = random_instance(seed);
        let tags = effective_tags(&instance.requests);
        let active = active_constraints(&instance.requests, &tags);
        let best = brute_force_best(&instance, &weights, &tags, &active);
        assert!(best.is_finite(), "seed {seed}: all-unplaced is feasible");

        let placed = exact.place_on(
            &mut instance.state.clone(),
            &instance.requests,
            &[],
            None,
            None,
        );
        assert!(
            !placed.degraded,
            "seed {seed}: ILP must not degrade on tiny instances"
        );
        let outcomes = placed.outcomes;
        let ilp_score = score(
            &instance,
            &weights,
            &tags,
            &active,
            &assignment_of(&instance.requests, &outcomes),
        );
        assert!(
            (ilp_score - best).abs() <= TOL,
            "seed {seed}: ILP score {ilp_score} != brute-force optimum {best}"
        );

        // Heuristic bound: a feasible placement never above the optimum,
        // and the gap-0 ILP (seeded with the heuristic incumbent) is
        // heuristic-or-better.
        let mut heuristic = HeuristicScheduler::new(Ordering::NodeCandidates);
        heuristic.weights = weights;
        let h_out = heuristic.place(&instance.state, &instance.requests, &[], None);
        let h_score = score(
            &instance,
            &weights,
            &tags,
            &active,
            &assignment_of(&instance.requests, &h_out),
        );
        assert!(
            h_score.is_finite(),
            "seed {seed}: heuristic placement must be capacity-feasible"
        );
        assert!(
            h_score <= best + TOL,
            "seed {seed}: heuristic score {h_score} exceeds the optimum {best}"
        );
        assert!(
            ilp_score >= h_score - TOL,
            "seed {seed}: ILP ({ilp_score}) must be heuristic-or-better ({h_score})"
        );
    }
}

/// Commits `outcomes` onto a copy of the instance's cluster, then holds
/// the index to the naive scan: `check_index_consistency`, and the two
/// index queries the schedulers make — `nodes_with_all_tags` over every
/// tag in use (singly, and as each container's full tag set) and
/// `nodes_by_free_memory` — recomputed from per-node accessors.
fn assert_index_matches_naive_scan(seed: u64, instance: &Instance, outcomes: &[PlacementOutcome]) {
    let mut state = instance.state.clone();
    for (r, out) in instance.requests.iter().zip(outcomes) {
        let Some(pl) = out.placement() else { continue };
        for (c, &n) in r.containers.iter().zip(&pl.nodes) {
            state
                .allocate(r.app, n, c, ExecutionKind::LongRunning)
                .unwrap_or_else(|e| panic!("seed {seed}: placement does not commit: {e}"));
        }
    }
    state
        .check_index_consistency()
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));

    let per_container = effective_tags(&instance.requests);
    let mut queries: Vec<Vec<Tag>> = vec![Vec::new()];
    for tags in &per_container {
        queries.extend(tags.iter().map(|t| vec![t.clone()]));
        queries.push(tags.clone());
    }
    for q in &queries {
        let naive: Vec<NodeId> = state
            .node_ids()
            .filter(|&n| q.iter().all(|t| state.gamma(n, t) > 0))
            .collect();
        assert_eq!(
            state.nodes_with_all_tags(q),
            naive,
            "seed {seed}: nodes_with_all_tags({q:?})"
        );
    }

    let mut by_free: Vec<(u64, u32, u32)> = state
        .node_ids()
        .map(|n| {
            let f = state.free(n).unwrap();
            (f.memory_mb, f.vcores, n.0)
        })
        .collect();
    by_free.sort_unstable();
    let naive: Vec<NodeId> = by_free.into_iter().rev().map(|k| NodeId(k.2)).collect();
    assert_eq!(
        state.nodes_by_free_memory().collect::<Vec<_>>(),
        naive,
        "seed {seed}: nodes_by_free_memory"
    );
}

/// The incremental index is a pure acceleration structure: whatever the
/// greedy heuristic or the gap-0 ILP places, once committed the index
/// answers exactly what a scan of the nodes answers, for every seed.
#[test]
fn index_answers_match_naive_scan_after_placements() {
    let weights = ObjectiveWeights {
        w3: 0.0,
        ..ObjectiveWeights::default()
    };
    let cfg = IlpConfig {
        weights,
        gap: 0.0,
        time_limit: Duration::from_secs(30),
        node_limit: 5_000_000,
        ..IlpConfig::default()
    };
    let mut exact = LraScheduler::new(LraAlgorithm::Ilp);
    exact.ilp = cfg;

    for seed in 0..SEEDS {
        let instance = random_instance(seed);
        let mut heuristic = HeuristicScheduler::new(Ordering::NodeCandidates);
        heuristic.weights = weights;
        let placed = heuristic.place(&instance.state, &instance.requests, &[], None);
        assert_index_matches_naive_scan(seed, &instance, &placed);

        // The ILP path (candidate selection through the index) every
        // few seeds.
        if seed % 5 == 0 {
            let placed = exact.place_on(
                &mut instance.state.clone(),
                &instance.requests,
                &[],
                None,
                None,
            );
            assert_index_matches_naive_scan(seed, &instance, &placed.outcomes);
        }
    }
}

#[test]
fn evaluator_sanity_anti_affinity_pair() {
    // Two "w" containers with node anti-affinity: spreading scores 1,
    // stacking charges one violated (constraint, node) block.
    let state = ClusterState::homogeneous(2, Resources::new(8192, 8), 1);
    let caa = PlacementConstraint::anti_affinity("w", "w", NodeGroupId::node());
    let req = LraRequest::uniform(
        ApplicationId(1),
        2,
        Resources::new(1024, 1),
        vec![Tag::new("w")],
        vec![caa],
    );
    let instance = Instance {
        state,
        requests: vec![req],
    };
    let weights = ObjectiveWeights {
        w3: 0.0,
        ..ObjectiveWeights::default()
    };
    let tags = effective_tags(&instance.requests);
    let active = active_constraints(&instance.requests, &tags);
    let spread = score(&instance, &weights, &tags, &active, &[Some(0), Some(1)]);
    assert!((spread - 1.0).abs() < 1e-12, "spread scores w1: {spread}");
    let stacked = score(&instance, &weights, &tags, &active, &[Some(0), Some(0)]);
    // count = 2, cmax = 0, self_m = 1 -> excess 1 on one node; w2/m = 0.5.
    assert!(
        (stacked - (1.0 - 0.5)).abs() < 1e-12,
        "stacked charges one excess: {stacked}"
    );
    assert!(
        (brute_force_best(&instance, &weights, &tags, &active) - 1.0).abs() < 1e-12,
        "optimum spreads"
    );
}
