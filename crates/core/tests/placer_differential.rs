//! Placer differential: across 32 seeded instances small enough to
//! enumerate, the exact-ILP and the (validated) heuristic arms are run
//! on the same batch and compared.
//!
//! - **Hard-constraint satisfaction is arm-equivalent**: both arms
//!   commit zero hard violations (the heuristic arm gives up placements
//!   instead: its validation evicts a request that breaks one).
//! - **Feasibility oracle**: a brute-force enumerator over all
//!   all-or-nothing assignments decides whether a capacity-feasible,
//!   zero-hard-violation placement of the *whole* batch exists (using
//!   the same `check_container` semantics the placers validate with).
//!   When it does, the gap-0 exact arm must place everything.
//! - **Objective dominance**: on the shared Eq. 1 evaluator (w3 = 0),
//!   `heuristic ≤ exact` up to solver tolerance.
//!
//! The instances carry only *hard* constraints so "optimum = max
//! requests placed violation-free" holds exactly and the oracle's
//! verdict is decisive. Each family also runs on a prefilled cluster
//! whose deployed containers carry hard constraints that cap the batch's
//! tags, so a new container can break a rule as a *target*; every check
//! counts violations over all live containers, deployed ones included.

use std::time::Duration;

use medea_cluster::{
    ApplicationId, ClusterState, ContainerRequest, ExecutionKind, NodeGroupId, NodeId, Resources,
    Tag,
};
use medea_constraints::{check_container, Cardinality, PlacementConstraint};
use medea_core::{
    IlpConfig, LraAlgorithm, LraRequest, LraScheduler, ObjectiveWeights, PlacementOutcome,
    PlacerMode,
};
use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};

const SEEDS: u64 = 32;
/// Cap on the all-placed assignment space so enumeration stays fast.
const MAX_SPACE: u64 = 40_000;
const TOL: f64 = 1e-6;

struct Instance {
    state: ClusterState,
    requests: Vec<LraRequest>,
    /// Constraints of the apps already on `state`.
    deployed: Vec<PlacementConstraint>,
}

fn random_instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let n_nodes = rng.random_range(2..7usize);
    let racks = rng.random_range(1..3usize).min(n_nodes);
    let node_mem = *rng.choose(&[4096u64, 6144, 8192]).unwrap();
    let state = ClusterState::homogeneous(n_nodes, Resources::new(node_mem, 8), racks);

    let tag_pool = ["a", "b", "c"];
    let k = rng.random_range(1..4usize);
    let mut requests = Vec::new();
    let mut budget = 7usize;
    for ri in 0..k {
        // Largest count (≤ sampled) keeping the all-placed enumeration
        // space within budget; stop adding requests once even a single
        // extra container would blow it.
        let prior: u64 = requests
            .iter()
            .map(|r: &LraRequest| (n_nodes as u64).pow(r.num_containers() as u32))
            .product();
        let sampled = rng.random_range(1..4usize).min(budget.max(1));
        let Some(count) = (1..=sampled)
            .rev()
            .find(|&c| prior.saturating_mul((n_nodes as u64).pow(c as u32)) <= MAX_SPACE)
        else {
            break;
        };
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

    // Only hard constraints: with no soft penalty, the model optimum is
    // exactly "place as many requests as possible violation-free", which
    // is what the oracle decides.
    let n_constraints = rng.random_range(0..3usize);
    for i in 0..n_constraints {
        let subject = *rng.choose(&tag_pool).unwrap();
        let target = *rng.choose(&tag_pool).unwrap();
        let cardinality = *rng
            .choose(&[
                Cardinality::anti_affinity(),
                Cardinality::at_most(1),
                Cardinality::at_most(2),
            ])
            .unwrap();
        let c = PlacementConstraint::new(subject, target, cardinality, NodeGroupId::node()).hard();
        let ri = i % requests.len();
        requests[ri].constraints.push(c);
    }
    let deployed = Vec::new();
    Instance {
        state,
        requests,
        deployed,
    }
}

/// A capacity-tight instance: two or three 4 GB nodes, each cut into
/// 1–3 GB containers that fill it exactly, the containers of one size
/// shared among up to two requests. A placement of the whole batch
/// exists by construction, but a greedy pass that spreads small
/// containers first can leave no node with room for a large one.
fn tight_instance(seed: u64) -> Instance {
    const CUTS: [&[u64]; 3] = [&[3072, 1024], &[2048, 2048], &[2048, 1024, 1024]];
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let n_nodes = rng.random_range(2..4usize);
    let state = ClusterState::homogeneous(n_nodes, Resources::new(4096, 8), 1);
    let mut counts = [0usize; 3];
    for _ in 0..n_nodes {
        for &mem in *rng.choose(&CUTS).unwrap() {
            counts[mem as usize / 1024 - 1] += 1;
        }
    }
    let mut requests = Vec::new();
    for (size, &count) in counts.iter().enumerate().rev() {
        let split = if count > 1 && rng.random_bool(0.5) {
            rng.random_range(1..count)
        } else {
            count
        };
        for part in [split, count - split].into_iter().filter(|&c| c > 0) {
            let tag = Tag::new(["a", "b", "c"][rng.random_range(0..3usize)]);
            requests.push(LraRequest::uniform(
                ApplicationId(requests.len() as u64 + 1),
                part,
                Resources::new(1024 * (size as u64 + 1), 1),
                vec![tag],
                Vec::new(),
            ));
        }
    }
    rng.shuffle(&mut requests);
    let deployed = Vec::new();
    Instance {
        state,
        requests,
        deployed,
    }
}

/// `instance` on a prefilled cluster: a deployed app holds one `d`
/// container on node 0 and on about half the other nodes, with one or
/// two hard constraints capping a batch tag around each (`node` or
/// `rack`, at most 0 or 1). The prefill holds no batch tag, so it breaks
/// none of them; a batch container next to a `d` can.
fn prefilled(seed: u64, instance: Instance) -> Instance {
    let Instance {
        mut state,
        requests,
        ..
    } = instance;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA24B_AED4_963E_E407));
    let subject = ContainerRequest::new(Resources::new(0, 1), [Tag::new("d")]);
    let nodes: Vec<NodeId> = state.node_ids().collect();
    for (i, n) in nodes.into_iter().enumerate() {
        if i == 0 || rng.random_bool(0.5) {
            let kind = ExecutionKind::LongRunning;
            state
                .allocate(ApplicationId(900), n, &subject, kind)
                .unwrap();
        }
    }
    let deployed = (0..rng.random_range(1..3usize))
        .map(|_| {
            let target = *rng.choose(&["a", "b", "c"]).unwrap();
            let cardinality = *rng
                .choose(&[Cardinality::anti_affinity(), Cardinality::at_most(1)])
                .unwrap();
            let group = if rng.random_bool(0.5) {
                NodeGroupId::node()
            } else {
                NodeGroupId::rack()
            };
            PlacementConstraint::new("d", target, cardinality, group).hard()
        })
        .collect();
    Instance {
        state,
        requests,
        deployed,
    }
}

/// Effective container tags (request tags + the automatic `appid:`).
fn effective_tags(r: &LraRequest) -> Vec<Vec<Tag>> {
    r.containers
        .iter()
        .map(|c| {
            let mut tags = c.tags.clone();
            let auto = Tag::app_id(r.app);
            if !tags.contains(&auto) {
                tags.push(auto);
            }
            tags
        })
        .collect()
}

fn hard_constraints(instance: &Instance) -> Vec<PlacementConstraint> {
    let requests = &instance.requests;
    let tags: Vec<Vec<Tag>> = requests.iter().flat_map(effective_tags).collect();
    let mut active = Vec::new();
    let own = requests.iter().flat_map(|r| r.constraints.iter());
    for c in instance.deployed.iter().chain(own) {
        let relevant = tags.iter().any(|t| {
            c.subject.matches_tags(t) || c.expr.leaves().any(|l| l.target.matches_tags(t))
        });
        if c.is_hard() && relevant && !active.contains(c) {
            active.push(c.clone());
        }
    }
    active
}

/// `(violated checks, Σ weight · extent)` of `hard` over every live
/// container of `work`, deployed ones included, by the same
/// `check_container` semantics the placers validate with.
fn hard_violations(work: &ClusterState, hard: &[PlacementConstraint]) -> (usize, f64) {
    let mut out = (0, 0.0);
    for a in work.allocations() {
        for c in hard.iter().filter(|c| c.subject.matches_allocation(a)) {
            if let Some(ch) = check_container(work, c, a.id).filter(|ch| !ch.satisfied) {
                out.0 += 1;
                out.1 += c.weight * ch.extent;
            }
        }
    }
    out
}

/// Allocates one full assignment (`nodes[gci]`, global container order)
/// on a copy of the state and reports `(capacity_ok, hard_violations)`.
fn check_assignment(
    state: &ClusterState,
    requests: &[LraRequest],
    hard: &[PlacementConstraint],
    nodes: &[NodeId],
) -> (bool, usize) {
    let mut work = state.clone();
    let mut gci = 0usize;
    for r in requests {
        for c in &r.containers {
            if work
                .allocate(r.app, nodes[gci], c, ExecutionKind::LongRunning)
                .is_err()
            {
                return (false, usize::MAX);
            }
            gci += 1;
        }
    }
    (true, hard_violations(&work, hard).0)
}

/// Brute-force oracle: does a capacity-feasible, zero-hard-violation
/// placement of the *entire* batch exist?
fn fully_feasible(instance: &Instance, hard: &[PlacementConstraint]) -> bool {
    let n_nodes = instance.state.num_nodes();
    let total: usize = instance.requests.iter().map(|r| r.num_containers()).sum();
    let mut idx = vec![0usize; total];
    loop {
        let nodes: Vec<NodeId> = idx.iter().map(|&n| NodeId(n as u32)).collect();
        let (ok, violations) = check_assignment(&instance.state, &instance.requests, hard, &nodes);
        if ok && violations == 0 {
            return true;
        }
        // Odometer over node indices.
        let mut pos = 0;
        loop {
            if pos == total {
                return false;
            }
            idx[pos] += 1;
            if idx[pos] < n_nodes {
                break;
            }
            idx[pos] = 0;
            pos += 1;
        }
    }
}

/// The instance's state with a batch outcome allocated on it, or the
/// allocation error of a placement that does not replay.
fn replay(instance: &Instance, outcomes: &[PlacementOutcome]) -> Result<ClusterState, String> {
    let mut work = instance.state.clone();
    for (r, out) in instance.requests.iter().zip(outcomes) {
        let Some(pl) = out.placement() else { continue };
        for (c, &n) in r.containers.iter().zip(&pl.nodes) {
            (work.allocate(r.app, n, c, ExecutionKind::LongRunning))
                .map_err(|e| format!("{e:?}"))?;
        }
    }
    Ok(work)
}

/// Eq. 1 score (w3 = 0) of a batch outcome with only-hard constraints:
/// `w1 · placed/k − (w2/m) · Σ weight · extent`, evaluated through
/// allocation replay; `NEG_INFINITY` when not capacity-feasible. Because
/// extents are computed identically for every arm, dominance comparisons
/// between arms are exact.
fn score(
    instance: &Instance,
    hard: &[PlacementConstraint],
    weights: &ObjectiveWeights,
    outcomes: &[PlacementOutcome],
) -> f64 {
    let Ok(work) = replay(instance, outcomes) else {
        return f64::NEG_INFINITY;
    };
    let k = instance.requests.len() as f64;
    let placed_requests = outcomes.iter().filter(|o| o.placement().is_some()).count();
    let m = hard.len().max(1) as f64;
    let (_, extent_sum) = hard_violations(&work, hard);
    weights.w1 * placed_requests as f64 / k - weights.w2 / m * extent_sum
}

fn committed_hard_violations(
    instance: &Instance,
    hard: &[PlacementConstraint],
    outcomes: &[PlacementOutcome],
    label: &str,
) -> usize {
    let work = replay(instance, outcomes)
        .unwrap_or_else(|e| panic!("{label}: committed placement not replayable: {e}"));
    hard_violations(&work, hard).0
}

#[test]
fn both_arms_commit_no_hard_violation_and_exact_dominates() {
    let weights = ObjectiveWeights {
        w3: 0.0,
        ..ObjectiveWeights::default()
    };
    let cfg = IlpConfig {
        mode: PlacerMode::Ilp,
        weights,
        gap: 0.0,
        time_limit: Duration::from_secs(30),
        node_limit: 5_000_000,
        ..IlpConfig::default()
    };
    let mut scheduler = LraScheduler::new(LraAlgorithm::Ilp);
    scheduler.ilp = cfg;

    let mut oracle_feasible_seeds = 0usize;
    let families = |seed| {
        let (random, tight) = (random_instance(seed), tight_instance(seed));
        let prefilled = [
            prefilled(seed, random_instance(seed)),
            prefilled(seed, tight_instance(seed)),
        ];
        [random, tight]
            .into_iter()
            .chain(prefilled)
            .map(move |i| (seed, i))
    };
    for (seed, instance) in (0..SEEDS).flat_map(families) {
        let hard = hard_constraints(&instance);
        let k = instance.requests.len();

        let arm = |mode| {
            scheduler
                .place_on(
                    &mut instance.state.clone(),
                    &instance.requests,
                    &instance.deployed,
                    None,
                    Some(mode),
                )
                .outcomes
        };
        let ilp_out = arm(PlacerMode::Ilp);
        let heur_out = arm(PlacerMode::Heuristic);
        for (name, out) in [("exact", &ilp_out), ("heuristic", &heur_out)] {
            let label = format!("seed {seed} {name}");
            assert_eq!(
                committed_hard_violations(&instance, &hard, out, &label),
                0,
                "{label} arm committed a hard violation"
            );
        }

        // Objective dominance on the shared evaluator.
        let s_ilp = score(&instance, &hard, &weights, &ilp_out);
        let s_heur = score(&instance, &hard, &weights, &heur_out);
        assert!(
            s_ilp.is_finite(),
            "seed {seed}: exact arm capacity-infeasible"
        );
        assert!(
            s_heur.is_finite(),
            "seed {seed}: heuristic arm capacity-infeasible"
        );
        assert!(
            s_heur <= s_ilp + TOL,
            "seed {seed}: heuristic ({s_heur}) beat the gap-0 exact arm ({s_ilp})"
        );

        // Feasibility oracle.
        if fully_feasible(&instance, &hard) {
            oracle_feasible_seeds += 1;
            let ilp_placed = ilp_out.iter().filter(|o| o.placement().is_some()).count();
            assert_eq!(
                ilp_placed, k,
                "seed {seed}: oracle says fully feasible, exact arm placed {ilp_placed}/{k}"
            );
        }
    }
    // The suite must exercise the oracle's feasible branch to mean
    // anything.
    assert!(
        oracle_feasible_seeds >= 8,
        "only {oracle_feasible_seeds} fully-feasible seeds — generator drifted"
    );
}

/// Every way of asking the LRA scheduler for a placement: each
/// `LraAlgorithm`, and `LraAlgorithm::Ilp` under each `PlacerMode`.
fn dispatch_table() -> Vec<(LraAlgorithm, PlacerMode)> {
    let mut table: Vec<(LraAlgorithm, PlacerMode)> = LraAlgorithm::ALL
        .into_iter()
        .map(|alg| (alg, PlacerMode::Ilp))
        .collect();
    table.push((LraAlgorithm::Ilp, PlacerMode::Relaxed));
    table.push((LraAlgorithm::Ilp, PlacerMode::Heuristic));
    table
}

/// A scheduler running `alg`, configured to serve `mode`.
fn fresh(alg: LraAlgorithm, mode: PlacerMode) -> LraScheduler {
    let mut scheduler = LraScheduler::new(alg);
    scheduler.ilp.mode = mode;
    scheduler
}

/// The whole-cluster call, the unrestricted full-detail call and the
/// full-detail call restricted to *all* nodes (ascending) are one
/// placement: same outcomes, exactly, for every configured arm. Under
/// `LraAlgorithm::Ilp`, naming the arm in the call and configuring it as
/// the mode are the same call too.
#[test]
fn entry_points_agree_for_every_arm() {
    for seed in 0..SEEDS {
        let Instance {
            state, requests, ..
        } = random_instance(seed);
        let all_nodes: Vec<NodeId> = state.node_ids().collect();
        for (alg, mode) in dispatch_table() {
            let on = |allowed, arm| {
                fresh(alg, mode)
                    .place_on(&mut state.clone(), &requests, &[], allowed, arm)
                    .outcomes
            };
            let whole = fresh(alg, mode).place(&state, &requests, &[]);
            let unrestricted = on(None, None);
            assert_eq!(
                whole,
                unrestricted,
                "seed {seed} {alg}/{}: place != place_on(None)",
                mode.name()
            );
            assert_eq!(
                on(Some(&all_nodes), None),
                unrestricted,
                "seed {seed} {alg}/{}: place_on(all nodes) != place_on(None)",
                mode.name()
            );
            if alg == LraAlgorithm::Ilp {
                assert_eq!(
                    on(None, Some(mode)),
                    unrestricted,
                    "seed {seed}: arm override {} != configured mode",
                    mode.name()
                );
            }
        }
    }
}

/// Every other node, ascending: a shard-like restriction.
fn every_other_node(state: &ClusterState) -> Vec<NodeId> {
    state.node_ids().step_by(2).collect()
}

/// `random_instance` with a deployed container on every node that the
/// batch's constraints can see, so a stage that let go of (or kept) the
/// wrong container shows in the digest.
fn deployed_instance(seed: u64) -> Instance {
    let Instance {
        mut state,
        requests,
        deployed,
    } = random_instance(seed);
    for (i, n) in state.node_ids().enumerate().collect::<Vec<_>>() {
        let tag = Tag::new(["a", "b", "c"][i % 3]);
        let container = ContainerRequest::new(Resources::new(512, 1), [tag]);
        state
            .allocate(
                ApplicationId(900),
                n,
                &container,
                ExecutionKind::LongRunning,
            )
            .unwrap();
    }
    Instance {
        state,
        requests,
        deployed,
    }
}

/// Placing is a pure function of the state it is handed: for every arm,
/// over the whole cluster and over a node subset, two calls on the same
/// state give the same outcomes and leave its digest as found.
#[test]
fn placing_twice_is_identical_and_leaves_the_state_as_found() {
    for seed in 0..SEEDS {
        let Instance {
            mut state,
            requests,
            ..
        } = deployed_instance(seed);
        let subset = every_other_node(&state);
        let before = state.digest();
        for (alg, mode) in dispatch_table() {
            for allowed in [None, Some(subset.as_slice())] {
                let first = fresh(alg, mode).place_on(&mut state, &requests, &[], allowed, None);
                let second = fresh(alg, mode).place_on(&mut state, &requests, &[], allowed, None);
                let label = format!("seed {seed} {alg}/{} allowed={allowed:?}", mode.name());
                assert_eq!(
                    first.outcomes, second.outcomes,
                    "{label}: second call differs"
                );
                assert_eq!(state.digest(), before, "{label}: state not left as found");
            }
        }
    }
}

/// A node restriction handed to the baselines is the same placement as
/// masking the other nodes unavailable by hand (both scan ascending ids,
/// so first-maximum ties cannot move).
#[test]
fn restricted_baselines_match_masking_by_hand() {
    for seed in 0..SEEDS {
        let Instance {
            mut state,
            requests,
            ..
        } = deployed_instance(seed);
        let subset = every_other_node(&state);
        let mut masked = state.clone();
        for n in state.node_ids().filter(|n| !subset.contains(n)) {
            masked.set_available(n, false).unwrap();
        }
        for alg in [
            LraAlgorithm::JKube,
            LraAlgorithm::JKubePlusPlus,
            LraAlgorithm::Yarn,
        ] {
            let scheduler = LraScheduler::new(alg);
            let restricted = scheduler.place_on(&mut state, &requests, &[], Some(&subset), None);
            let by_hand = scheduler.place_on(&mut masked, &requests, &[], None, None);
            assert_eq!(
                restricted.outcomes, by_hand.outcomes,
                "seed {seed} {alg}: restricted != masked by hand"
            );
        }
    }
}
