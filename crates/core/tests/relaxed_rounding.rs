//! Property suite for the LP-relaxation fast-path placer (`PlacerMode::
//! Relaxed`): across 64 seeded random instances, every placement the
//! relaxed arm commits must be capacity-feasible (replayable allocation
//! by allocation on a fresh state) and free of hard-constraint
//! violations, and the reported objective gap must be sound — the LP
//! bound dominates the incumbent up to solver tolerance. Each instance
//! carries a soft spread no placement keeps, so no anchor is clean and
//! every instance reaches the LP (a clean anchor is served without one).
//!
//! Two metamorphic tests ride along: uniform resource scaling leaves the
//! relaxed arm's outcomes byte-identical (the model skeleton — and so
//! the rounding PRNG seed — ignores numerics, and every simplex ratio
//! test is scale-invariant), and request permutation leaves the
//! quality invariants (zero committed hard violations, LP bound)
//! unchanged, with full placed-count/gap equality on an engineered
//! instance whose optimum is unique.

use std::time::Duration;

use medea_cluster::{ApplicationId, ClusterState, NodeGroupId, Resources, Tag};
use medea_constraints::{check_container, Cardinality, PlacementConstraint};
use medea_core::{
    IlpConfig, LraAlgorithm, LraRequest, LraScheduler, ObjectiveWeights, PlacementOutcome,
    PlacerMode, RelaxReport,
};
use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};

const SEEDS: u64 = 64;
const TOL: f64 = 1e-6;

struct Instance {
    state: ClusterState,
    requests: Vec<LraRequest>,
}

/// Random instances larger than the brute-force differential suite can
/// afford (up to 12 nodes / 4 requests / ~12 containers), mixing soft
/// and hard constraints so both the post-rounding eviction and the final
/// validation sweep have real work.
fn random_instance(seed: u64) -> Instance {
    random_instance_scaled(seed, 1)
}

/// Same instance with every capacity and demand multiplied by `scale`
/// (the metamorphic scaling transform; `scale = 1` is the base).
fn random_instance_scaled(seed: u64, scale: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA076_1D64_78BD_642F));
    let n_nodes = rng.random_range(4..13usize);
    let racks = rng.random_range(1..4usize).min(n_nodes);
    let node_mem = *rng.choose(&[8192u64, 12288, 16384]).unwrap();
    let state = ClusterState::homogeneous(
        n_nodes,
        Resources::new(node_mem * scale, 8 * scale as u32),
        racks,
    );

    let tag_pool = ["a", "b", "c", "d"];
    let k = rng.random_range(2..5usize);
    let mut requests = Vec::new();
    for ri in 0..k {
        let count = rng.random_range(1..4usize);
        let mem = *rng.choose(&[1024u64, 2048, 3072]).unwrap();
        let tag = Tag::new(tag_pool[rng.random_range(0..tag_pool.len())]);
        requests.push(LraRequest::uniform(
            ApplicationId(ri as u64 + 1),
            count,
            Resources::new(mem * scale, scale as u32),
            vec![tag],
            Vec::new(),
        ));
    }

    let n_constraints = rng.random_range(1..5usize);
    for i in 0..n_constraints {
        let subject = *rng.choose(&tag_pool).unwrap();
        let target = *rng.choose(&tag_pool).unwrap();
        let cardinality = *rng
            .choose(&[
                Cardinality::anti_affinity(),
                Cardinality::affinity(),
                Cardinality::at_most(1),
                Cardinality::at_most(2),
            ])
            .unwrap();
        let group = if rng.random_bool(0.7) {
            NodeGroupId::node()
        } else {
            NodeGroupId::rack()
        };
        let c = PlacementConstraint::new(subject, target, cardinality, group);
        // Half the constraints are hard: these are the ones the
        // post-rounding eviction and the final validation must enforce
        // exactly.
        let c = if rng.random_bool(0.5) {
            c.hard()
        } else {
            c.with_weight(rng.random_range(1..4usize) as f64)
        };
        let ri = i % requests.len();
        requests[ri].constraints.push(c);
    }
    // One more container than nodes, spread by a soft anti-affinity: no
    // placement keeps it, so no anchor is clean and every instance
    // reaches the LP and the rounding.
    requests.push(LraRequest::uniform(
        ApplicationId(k as u64 + 1),
        n_nodes + 1,
        Resources::new(1024 * scale, scale as u32),
        vec![Tag::new("spread")],
        vec![PlacementConstraint::anti_affinity(
            "spread",
            "spread",
            NodeGroupId::node(),
        )],
    ));
    Instance { state, requests }
}

/// Effective tags of each request's containers (request tags + the
/// automatic `appid:` tag the scheduler adds).
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

/// The batch's hard constraints after the scheduler's relevance filter.
fn hard_constraints(requests: &[LraRequest]) -> Vec<PlacementConstraint> {
    let tags: Vec<Vec<Tag>> = requests.iter().flat_map(effective_tags).collect();
    let mut active = Vec::new();
    for c in requests.iter().flat_map(|r| r.constraints.iter()) {
        let relevant = tags.iter().any(|t| {
            c.subject.matches_tags(t) || c.expr.leaves().any(|l| l.target.matches_tags(t))
        });
        if c.is_hard() && relevant && !active.contains(c) {
            active.push(c.clone());
        }
    }
    active
}

/// Replays `outcomes` allocation-by-allocation on a fresh copy of
/// `state` (panicking if any allocation fails: the placement was not
/// capacity-feasible) and returns the number of committed containers
/// violating an applicable hard constraint.
fn replay_and_count_hard_violations(
    state: &ClusterState,
    requests: &[LraRequest],
    outcomes: &[PlacementOutcome],
    label: &str,
) -> usize {
    let hard = hard_constraints(requests);
    let mut work = state.clone();
    let mut live = Vec::new();
    for (r, out) in requests.iter().zip(outcomes) {
        let Some(pl) = out.placement() else { continue };
        assert_eq!(
            pl.nodes.len(),
            r.containers.len(),
            "{label}: placement must cover every container"
        );
        let tags = effective_tags(r);
        for ((c, &n), t) in r.containers.iter().zip(&pl.nodes).zip(&tags) {
            let id = work
                .allocate(r.app, n, c, medea_cluster::ExecutionKind::LongRunning)
                .unwrap_or_else(|e| panic!("{label}: committed placement not replayable: {e:?}"));
            live.push((id, t.clone()));
        }
    }
    let mut violations = 0;
    for (id, tags) in &live {
        for c in &hard {
            if !c.subject.matches_tags(tags) {
                continue;
            }
            if let Some(ch) = check_container(&work, c, *id) {
                if !ch.satisfied {
                    violations += 1;
                }
            }
        }
    }
    violations
}

fn cfg() -> IlpConfig {
    IlpConfig {
        mode: PlacerMode::Relaxed,
        weights: ObjectiveWeights {
            w3: 0.0,
            ..ObjectiveWeights::default()
        },
        gap: 0.0,
        time_limit: Duration::from_secs(30),
        node_limit: 5_000_000,
        ..IlpConfig::default()
    }
}

/// One cold solve of the relaxed arm.
fn run(instance: &Instance) -> (Vec<PlacementOutcome>, RelaxReport) {
    let mut scheduler = LraScheduler::new(LraAlgorithm::Ilp);
    scheduler.ilp = cfg();
    let placed = scheduler.place_on(
        &mut instance.state.clone(),
        &instance.requests,
        &[],
        None,
        None,
        None,
    );
    let report = placed.relax.expect("the relaxed arm reports its quality");
    (placed.outcomes, report)
}

#[test]
fn rounded_placements_are_feasible_and_gap_is_sound() {
    let mut total_placed = 0usize;
    let mut gap_sum = 0.0;
    let mut gap_count = 0usize;
    for seed in 0..SEEDS {
        let instance = random_instance(seed);
        let (outcomes, report) = run(&instance);
        assert_eq!(outcomes.len(), instance.requests.len());

        let violations = replay_and_count_hard_violations(
            &instance.state,
            &instance.requests,
            &outcomes,
            &format!("seed {seed} (relaxed)"),
        );
        assert_eq!(
            violations, 0,
            "seed {seed}: relaxed arm committed a hard-constraint violation"
        );
        total_placed += outcomes.iter().filter(|o| o.placement().is_some()).count();

        // Gap soundness: the LP relaxation dominates every integral
        // placement of the same model, so the raw (unclamped) bound must
        // sit above the incumbent up to solver tolerance.
        if let (Some(bound), Some(incumbent)) = (report.lp_bound, report.incumbent_objective) {
            assert!(
                incumbent <= bound + TOL,
                "seed {seed}: incumbent {incumbent} exceeds LP bound {bound}"
            );
            assert!(
                report.objective_gap().unwrap() >= 0.0,
                "seed {seed}: clamped gap went negative"
            );
            gap_sum += report.relative_gap().unwrap();
            gap_count += 1;
        }
    }
    // Not vacuous: the arm must actually place work, and the rounding
    // must stay tight on average (most instances round near the bound).
    assert!(
        total_placed >= SEEDS as usize,
        "suspiciously few placements across {SEEDS} seeds: {total_placed}"
    );
    assert!(gap_count >= (SEEDS as usize) / 2, "LP rarely optimal?");
    let mean_gap = gap_sum / gap_count as f64;
    assert!(
        mean_gap <= 0.5,
        "mean relative objective gap {mean_gap:.3} is not tight"
    );
}

/// Scaling every node capacity and container demand by the same factor
/// leaves the feasible region, the LP optimum, the model skeleton (it
/// hashes structure, not numerics — so the rounding PRNG seed too), and
/// every simplex ratio test unchanged: the relaxed arm's outcomes must
/// be identical placement-by-placement.
#[test]
fn resource_scaling_leaves_relaxed_outcomes_identical() {
    for seed in 0..16u64 {
        let base = random_instance_scaled(seed, 1);
        let scaled = random_instance_scaled(seed, 2);
        let (out_a, rep_a) = run(&base);
        let (out_b, rep_b) = run(&scaled);
        assert_eq!(
            format!("{out_a:?}"),
            format!("{out_b:?}"),
            "seed {seed}: outcomes changed under uniform resource scaling"
        );
        match (rep_a.lp_bound, rep_b.lp_bound) {
            (Some(a), Some(b)) => assert!(
                (a - b).abs() <= TOL,
                "seed {seed}: LP bound moved under scaling: {a} vs {b}"
            ),
            (a, b) => assert_eq!(a.is_some(), b.is_some(), "seed {seed}: LP status diverged"),
        }
    }
}

/// Permuting the request vector must not change the quality invariants:
/// committed hard violations stay at zero and the LP bound (the optimum
/// *value* is invariant under column permutation) is unchanged.
#[test]
fn request_permutation_preserves_quality_invariants() {
    for seed in 0..16u64 {
        let base = random_instance(seed);
        let mut permuted_requests = base.requests.clone();
        permuted_requests.reverse();
        let permuted = Instance {
            state: base.state.clone(),
            requests: permuted_requests,
        };
        let (out_a, rep_a) = run(&base);
        let (out_b, rep_b) = run(&permuted);
        let va = replay_and_count_hard_violations(
            &base.state,
            &base.requests,
            &out_a,
            &format!("seed {seed} (base order)"),
        );
        let vb = replay_and_count_hard_violations(
            &permuted.state,
            &permuted.requests,
            &out_b,
            &format!("seed {seed} (reversed order)"),
        );
        assert_eq!(va, 0, "seed {seed}: base order committed a violation");
        assert_eq!(vb, 0, "seed {seed}: reversed order committed a violation");
        if let (Some(a), Some(b)) = (rep_a.lp_bound, rep_b.lp_bound) {
            assert!(
                (a - b).abs() <= TOL,
                "seed {seed}: LP bound moved under request permutation: {a} vs {b}"
            );
        }
    }
}

/// Engineered instance with a unique optimum value: five single-container
/// requests of 3/4 node memory under hard node anti-affinity on a
/// four-node cluster. Capacity forces one container per node, so every
/// optimum places four of the five; the anchor leaves one unplaced, so
/// the batch reaches the LP, and the LP bound and the incumbent
/// coincide. The full quality profile — placed count, violation count,
/// and a zero objective gap — must survive request permutation.
#[test]
fn engineered_instance_gap_and_placed_count_survive_permutation() {
    let state = ClusterState::homogeneous(4, Resources::new(4096, 8), 1);
    let make = |order: &[u64]| -> Vec<LraRequest> {
        order
            .iter()
            .map(|&app| {
                LraRequest::uniform(
                    ApplicationId(app),
                    1,
                    Resources::new(3072, 1),
                    vec![Tag::new("w")],
                    vec![PlacementConstraint::anti_affinity("w", "w", NodeGroupId::node()).hard()],
                )
            })
            .collect()
    };
    for order in [[1u64, 2, 3, 4, 5], [4, 2, 5, 1, 3]] {
        let requests = make(&order);
        let instance = Instance {
            state: state.clone(),
            requests,
        };
        let (outcomes, report) = run(&instance);
        let placed = outcomes.iter().filter(|o| o.placement().is_some()).count();
        assert_eq!(placed, 4, "order {order:?}: four requests are placeable");
        assert_eq!(
            replay_and_count_hard_violations(
                &instance.state,
                &instance.requests,
                &outcomes,
                &format!("order {order:?}")
            ),
            0
        );
        let gap = report.objective_gap().expect("bound and incumbent present");
        assert!(
            gap <= TOL,
            "order {order:?}: unique-optimum instance must round gap-free, got {gap}"
        );
        assert_eq!(report.evicted_lras, 0, "order {order:?}: nothing to evict");
    }
}
