//! Greedy-engine differential: `HeuristicScheduler::place` against a
//! naive reference greedy written here, on public `Scorer` calls only.
//!
//! The reference is §5.3 read literally: score every allowed node for
//! every container, keep the first maximum, and — for node candidates —
//! recount `Nc` over every node for each remaining container that shares
//! a tag with the one just placed. It is the oracle for any engine that
//! avoids that work: outcomes must be equal node for node on every
//! seeded instance and ordering.
//!
//! Instances cover node-, rack- and `zone`-scoped affinity,
//! anti-affinity, at-most and at-least constraints (`zone` is a second
//! registered group whose sets overlap each other and leave the last
//! node in none), app-scoped subjects and targets, deployed constraints,
//! background allocations, an unavailable node, and `allowed` = every
//! other node. A second family ([`plain_instance`], its own seeds) is
//! built for the engine's shared cells: 30–60 nodes that are mostly
//! plain for most classes (no constrained tag on them), catch-all
//! subjects and targets, nodes carrying one half of an app-scoped
//! conjunction, a tag occurrence consumed by `remove_node_tag`, and many
//! items per class.

use medea_cluster::{
    ApplicationId, ClusterState, ContainerRequest, ExecutionKind, NodeGroupId, NodeId, Resources,
    Tag,
};
use medea_constraints::{Cardinality, PlacementConstraint, TagExpr};
use medea_core::{
    HeuristicScheduler, LraPlacement, LraRequest, ObjectiveWeights, Ordering, PlacementOutcome,
    Scorer,
};
use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};

const SEEDS: u64 = 400;
/// Seeds of the second family ([`plain_instance`]).
const PLAIN_SEEDS: u64 = 120;
const TAGS: [&str; 4] = ["a", "b", "c", "d"];

struct Instance {
    state: ClusterState,
    requests: Vec<LraRequest>,
    deployed: Vec<PlacementConstraint>,
    allowed: Option<Vec<NodeId>>,
}

/// Best-scoring feasible node in scan order (first maximum wins).
fn best_node(
    scorer: &Scorer,
    work: &mut ClusterState,
    app: ApplicationId,
    c: &ContainerRequest,
    nodes: &[NodeId],
) -> Option<NodeId> {
    let mut best: Option<(NodeId, f64)> = None;
    for &n in nodes {
        if let Some(s) = scorer.score(work, app, c, n) {
            if best.is_none_or(|(_, b)| s.total_cmp(&b) == std::cmp::Ordering::Greater) {
                best = Some((n, s));
            }
        }
    }
    best.map(|(n, _)| n)
}

/// The naive greedy: no caching, no classes, every pair probed afresh.
fn reference_place(inst: &Instance, ordering: Ordering) -> Vec<PlacementOutcome> {
    let mut work = inst.state.clone();
    let mut constraints = inst.deployed.clone();
    for r in &inst.requests {
        constraints.extend(r.constraints.iter().cloned());
    }
    let scorer = Scorer::new(ObjectiveWeights::default(), constraints);
    let nodes: Vec<NodeId> = match &inst.allowed {
        Some(a) => a.clone(),
        None => work.node_ids().collect(),
    };
    // (request, container) pairs in submission order.
    let mut items: Vec<(usize, usize)> = Vec::new();
    for (ri, r) in inst.requests.iter().enumerate() {
        items.extend((0..r.containers.len()).map(|ci| (ri, ci)));
    }
    let app = |i: (usize, usize)| inst.requests[i.0].app;
    let cont = |i: (usize, usize)| &inst.requests[i.0].containers[i.1];
    if ordering == Ordering::TagPopularity {
        let popularity = |t: &Tag| {
            let mentions = |c: &&PlacementConstraint| c.mentioned_tags().contains(t);
            scorer.constraints.iter().filter(mentions).count() as i64
        };
        items.sort_by_key(|&i| -cont(i).tags.iter().map(popularity).sum::<i64>());
    }
    let mut placed: Vec<Vec<Option<NodeId>>> = inst
        .requests
        .iter()
        .map(|r| vec![None; r.containers.len()])
        .collect();
    let mut place = |work: &mut ClusterState, i: (usize, usize)| {
        let node = best_node(&scorer, work, app(i), cont(i), &nodes)?;
        work.allocate(app(i), node, cont(i), ExecutionKind::LongRunning)
            .ok()?;
        placed[i.0][i.1] = Some(node);
        Some(())
    };
    if ordering == Ordering::NodeCandidates {
        let count = |work: &mut ClusterState, i: (usize, usize)| {
            let free = |n: &&NodeId| scorer.is_violation_free(work, app(i), cont(i), **n);
            nodes.iter().filter(free).count()
        };
        let mut nc: Vec<usize> = items.iter().map(|&i| count(&mut work, i)).collect();
        let mut remaining: Vec<usize> = (0..items.len()).collect();
        while let Some((pos, &idx)) = remaining.iter().enumerate().min_by_key(|(_, &i)| nc[i]) {
            remaining.swap_remove(pos);
            if place(&mut work, items[idx]).is_none() {
                continue;
            }
            for &other in &remaining {
                let tags = &cont(items[other]).tags;
                if tags.iter().any(|t| cont(items[idx]).tags.contains(t)) {
                    nc[other] = count(&mut work, items[other]);
                }
            }
        }
    } else {
        for &i in &items {
            place(&mut work, i);
        }
    }
    inst.requests
        .iter()
        .zip(placed)
        .map(
            |(r, nodes)| match nodes.into_iter().collect::<Option<Vec<_>>>() {
                Some(nodes) => PlacementOutcome::Placed(LraPlacement { app: r.app, nodes }),
                None => PlacementOutcome::Unplaced { app: r.app },
            },
        )
        .collect()
}

fn zone() -> NodeGroupId {
    NodeGroupId::new("zone")
}

/// Three zones over `n` nodes, each reaching two nodes into the next;
/// the last node belongs to none.
fn zones(n: usize) -> Vec<Vec<NodeId>> {
    let third = (n - 1) / 3;
    (0..3)
        .map(|z| {
            let end = ((z + 1) * third + 2).min(n - 1);
            (z * third..end).map(|i| NodeId(i as u32)).collect()
        })
        .collect()
}

fn random_constraint(rng: &mut StdRng, app: ApplicationId) -> PlacementConstraint {
    // A third of the tag expressions are scoped to the submitting app.
    let expr = |rng: &mut StdRng| {
        let tag = Tag::new(*rng.choose(&TAGS).unwrap());
        if rng.random_bool(0.33) {
            TagExpr::and([tag, Tag::app_id(app)])
        } else {
            TagExpr::tag(tag)
        }
    };
    let subject = expr(rng);
    let target = expr(rng);
    let cardinality = match rng.random_range(0..5u32) {
        0 => Cardinality::affinity(),
        1 => Cardinality::anti_affinity(),
        2 => Cardinality::at_most(rng.random_range(1..3u32)),
        3 => Cardinality::at_least(rng.random_range(1..3u32)),
        _ => Cardinality::range(1, 2),
    };
    let group = match rng.random_range(0..3u32) {
        0 => NodeGroupId::node(),
        1 => NodeGroupId::rack(),
        _ => zone(),
    };
    let weight = *rng.choose(&[0.5, 1.0, 2.0]).unwrap();
    let c = PlacementConstraint::new(subject, target, cardinality, group).with_weight(weight);
    if rng.random_bool(0.15) {
        c.hard()
    } else {
        c
    }
}

/// [`random_constraint`] for the second family: a tenth of subjects and
/// of targets are catch-alls (`TagExpr::and([])`, every container).
fn wide_constraint(rng: &mut StdRng, app: ApplicationId) -> PlacementConstraint {
    let expr = |rng: &mut StdRng| {
        let tag = Tag::new(*rng.choose(&TAGS).unwrap());
        match rng.random_range(0..10u32) {
            0 => TagExpr::and([]),
            1..=3 => TagExpr::and([tag, Tag::app_id(app)]),
            _ => TagExpr::tag(tag),
        }
    };
    let subject = expr(rng);
    let target = expr(rng);
    let cardinality = match rng.random_range(0..4u32) {
        0 => Cardinality::affinity(),
        1 => Cardinality::anti_affinity(),
        2 => Cardinality::at_most(rng.random_range(1..3u32)),
        _ => Cardinality::at_least(rng.random_range(1..3u32)),
    };
    let group = match rng.random_range(0..3u32) {
        0 => NodeGroupId::node(),
        1 => NodeGroupId::rack(),
        _ => zone(),
    };
    let weight = *rng.choose(&[0.5, 1.0, 2.0]).unwrap();
    let c = PlacementConstraint::new(subject, target, cardinality, group).with_weight(weight);
    if rng.random_bool(0.15) {
        c.hard()
    } else {
        c
    }
}

/// The second family, on its own seeds: clusters of 30–60 nodes where
/// most nodes are plain for most classes, so the engine shares cells
/// across them. Background is sparse and on `bg`, a tag no constraint
/// names, except a few containers that carry one half of an app-scoped
/// conjunction: a requesting app's `appid:` without a constrained tag,
/// or a constrained tag under another app. Background sizes vary, so
/// nodes of one signature differ in free resources. Requests repeat each
/// container two to six times, so node candidates refreshes `Nc` for
/// many items of one class.
fn plain_instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ 0x91A1);
    let n = rng.random_range(30..61usize);
    let racks = rng.random_range(2..6usize);
    let mut state = ClusterState::homogeneous(n, Resources::new(8192, 8), racks);
    state.register_group(zone(), zones(n));
    let allocate = |state: &mut ClusterState, rng: &mut StdRng, app: u64, tag: Tag| {
        let node = NodeId(rng.random_range(0..n as u32));
        let mem = *rng.choose(&[1024u64, 1024, 4096, 7168]).unwrap();
        let req = ContainerRequest::new(Resources::new(mem, 1), [tag]);
        let _ = state.allocate(ApplicationId(app), node, &req, ExecutionKind::LongRunning);
    };
    for i in 0..rng.random_range(n / 6..n / 3) {
        allocate(&mut state, &mut rng, 100 + (i % 3) as u64, Tag::new("bg"));
    }
    for _ in 0..rng.random_range(1..4usize) {
        if rng.random_bool(0.5) {
            let app = rng.random_range(1..4u64);
            allocate(&mut state, &mut rng, app, Tag::new("bg"));
        } else {
            let tag = Tag::new(*rng.choose(&TAGS).unwrap());
            allocate(&mut state, &mut rng, 100, tag);
        }
    }
    // A requesting app's container whose constrained tag γ no longer
    // counts (`remove_node_tag` consumed it): only a container walk sees
    // it there.
    let (app, node) = (rng.random_range(1..4u64), rng.random_range(0..n as u32));
    let tag = Tag::new(*rng.choose(&TAGS).unwrap());
    let req = ContainerRequest::new(Resources::new(1024, 1), [tag.clone()]);
    let kind = ExecutionKind::LongRunning;
    if state
        .allocate(ApplicationId(app), NodeId(node), &req, kind)
        .is_ok()
    {
        state.remove_node_tag(NodeId(node), &tag).unwrap();
    }
    state
        .set_available(NodeId(rng.random_range(0..n as u32)), false)
        .unwrap();

    let mut requests = Vec::new();
    for ri in 0..rng.random_range(1..4u64) {
        let app = ApplicationId(ri + 1);
        let mut containers = Vec::new();
        for _ in 0..rng.random_range(1..3usize) {
            let tags = [Tag::new(*rng.choose(&TAGS).unwrap())];
            let mem = *rng.choose(&[1024u64, 2048, 7168]).unwrap();
            let req = ContainerRequest::new(Resources::new(mem, 1), tags);
            containers.extend(vec![req; rng.random_range(2..7usize)]);
        }
        let constraints = (0..rng.random_range(1..4usize))
            .map(|_| wide_constraint(&mut rng, app))
            .collect();
        requests.push(LraRequest::new(app, containers, constraints));
    }
    let deployed = (0..rng.random_range(0..3usize))
        .map(|_| wide_constraint(&mut rng, ApplicationId(100)))
        .collect();
    let allowed = rng
        .random_bool(0.5)
        .then(|| (0..n as u32).step_by(2).map(NodeId).collect());
    Instance {
        state,
        requests,
        deployed,
        allowed,
    }
}

fn random_instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x6EED);
    let n = rng.random_range(6..20usize);
    let racks = rng.random_range(2..5usize);
    let mut state = ClusterState::homogeneous(n, Resources::new(8192, 8), racks);
    state.register_group(zone(), zones(n));

    // Background allocations of apps 100..=102; deployed constraints are
    // scoped to app 100 where they are app-scoped at all.
    for i in 0..rng.random_range(0..2 * n) {
        let node = NodeId(rng.random_range(0..n as u32));
        let tag = Tag::new(*rng.choose(&TAGS).unwrap());
        let req = ContainerRequest::new(Resources::new(1024, 1), [tag]);
        let app = ApplicationId(100 + (i % 3) as u64);
        let _ = state.allocate(app, node, &req, ExecutionKind::LongRunning);
    }
    state
        .set_available(NodeId(rng.random_range(0..n as u32)), false)
        .unwrap();

    let mut requests = Vec::new();
    for ri in 0..rng.random_range(1..4u64) {
        let app = ApplicationId(ri + 1);
        let mut containers = Vec::new();
        for _ in 0..rng.random_range(1..3usize) {
            let mut tags = vec![Tag::new(*rng.choose(&TAGS).unwrap())];
            if rng.random_bool(0.4) {
                tags.push(Tag::new(*rng.choose(&TAGS).unwrap()));
                tags.dedup();
            }
            let mem = *rng.choose(&[1024u64, 2048, 3072, 7168]).unwrap();
            let req = ContainerRequest::new(Resources::new(mem, 1), tags);
            containers.extend(vec![req; rng.random_range(1..4usize)]);
        }
        let constraints = (0..rng.random_range(0..4usize))
            .map(|_| random_constraint(&mut rng, app))
            .collect();
        requests.push(LraRequest::new(app, containers, constraints));
    }
    let deployed = (0..rng.random_range(0..3usize))
        .map(|_| random_constraint(&mut rng, ApplicationId(100)))
        .collect();
    let allowed = rng
        .random_bool(0.5)
        .then(|| (0..n as u32).step_by(2).map(NodeId).collect());
    Instance {
        state,
        requests,
        deployed,
        allowed,
    }
}

#[test]
fn engine_matches_naive_reference_on_seeded_instances() {
    let mut placed = 0usize;
    let mut unplaced = 0usize;
    for seed in 0..SEEDS {
        let inst = random_instance(seed);
        for ordering in [
            Ordering::NodeCandidates,
            Ordering::TagPopularity,
            Ordering::Submission,
        ] {
            let expected = reference_place(&inst, ordering);
            let got = HeuristicScheduler::new(ordering).place(
                &inst.state,
                &inst.requests,
                &inst.deployed,
                inst.allowed.as_deref(),
            );
            assert_eq!(got, expected, "seed {seed}, {ordering:?}");
            placed += got.iter().filter(|o| o.placement().is_some()).count();
            unplaced += got.iter().filter(|o| o.placement().is_none()).count();
        }
    }
    // The generator must exercise both outcomes, or equality proves little.
    assert!(placed > 1_000 && unplaced > 20, "{placed} / {unplaced}");
}

#[test]
fn engine_matches_naive_reference_where_most_nodes_are_plain() {
    let mut placed = 0usize;
    let mut unplaced = 0usize;
    for seed in 0..PLAIN_SEEDS {
        let inst = plain_instance(seed);
        for ordering in [
            Ordering::NodeCandidates,
            Ordering::TagPopularity,
            Ordering::Submission,
        ] {
            let expected = reference_place(&inst, ordering);
            let got = HeuristicScheduler::new(ordering).place(
                &inst.state,
                &inst.requests,
                &inst.deployed,
                inst.allowed.as_deref(),
            );
            assert_eq!(got, expected, "plain seed {seed}, {ordering:?}");
            placed += got.iter().filter(|o| o.placement().is_some()).count();
            unplaced += got.iter().filter(|o| o.placement().is_none()).count();
        }
    }
    assert!(placed > 500 && unplaced > 0, "{placed} / {unplaced}");
}

/// The third family, on its own seeds: three to five apps on 24–48 nodes
/// whose constraints are scoped to their own app id and range over racks,
/// `zone`s and, now and then, nodes. Every app draws its tags from the
/// same four, and background containers of other apps carry them too, so
/// most placements carry a tag another app's constraints mention, but no
/// other app's constraint sees them: they leave their signature without
/// moving its delta.
fn unseen_instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA24B_AED4_963E_E407) ^ 0x0B5E);
    let n = rng.random_range(24..49usize);
    let racks = rng.random_range(3..7usize);
    let mut state = ClusterState::homogeneous(n, Resources::new(8192, 8), racks);
    state.register_group(zone(), zones(n));
    for i in 0..rng.random_range(0..n / 2) {
        let node = NodeId(rng.random_range(0..n as u32));
        let req = ContainerRequest::new(Resources::new(1024, 1), [Tag::new(TAGS[i % 4])]);
        let app = ApplicationId(100 + (i % 2) as u64);
        let _ = state.allocate(app, node, &req, ExecutionKind::LongRunning);
    }
    let scoped = |rng: &mut StdRng, app| {
        let tag = Tag::new(*rng.choose(&TAGS).unwrap());
        TagExpr::and([tag, Tag::app_id(app)])
    };
    let mut requests = Vec::new();
    for ri in 0..rng.random_range(3..6u64) {
        let app = ApplicationId(ri + 1);
        let mut containers = Vec::new();
        for _ in 0..rng.random_range(1..3usize) {
            let tags = [Tag::new(*rng.choose(&TAGS).unwrap())];
            let mem = *rng.choose(&[1024u64, 2048, 3072]).unwrap();
            let req = ContainerRequest::new(Resources::new(mem, 1), tags);
            containers.extend(vec![req; rng.random_range(1..5usize)]);
        }
        let mut constraints = Vec::new();
        for _ in 0..rng.random_range(1..4usize) {
            let (subject, target) = (scoped(&mut rng, app), scoped(&mut rng, app));
            let cardinality = match rng.random_range(0..4u32) {
                0 => Cardinality::affinity(),
                1 => Cardinality::anti_affinity(),
                2 => Cardinality::at_most(rng.random_range(1..3u32)),
                _ => Cardinality::range(1, 2),
            };
            let group = match rng.random_range(0..5u32) {
                0 => NodeGroupId::node(),
                1 | 2 => NodeGroupId::rack(),
                _ => zone(),
            };
            let c = PlacementConstraint::new(subject, target, cardinality, group);
            constraints.push(c);
        }
        requests.push(LraRequest::new(app, containers, constraints));
    }
    let allowed = rng
        .random_bool(0.3)
        .then(|| (0..n as u32).step_by(2).map(NodeId).collect());
    Instance {
        state,
        requests,
        deployed: Vec::new(),
        allowed,
    }
}

/// After every placement, each violation delta the engine holds is the
/// delta [`Scorer::violation_delta`] computes afresh, bit for bit, on every
/// host of its cell that the class fits on — on the two families above and
/// on [`unseen_instance`]s, where the engine keeps most deltas across a
/// placement. The engine's placements also match the reference there.
#[test]
fn cached_deltas_are_fresh_deltas() {
    let families = [
        ("random", SEEDS / 2, random_instance as fn(u64) -> Instance),
        ("plain", PLAIN_SEEDS / 2, plain_instance),
        ("unseen", 150, unseen_instance),
    ];
    for (family, seeds, instance) in families {
        let mut compared = 0usize;
        for seed in 0..seeds {
            let inst = instance(seed);
            let mut constraints = inst.deployed.clone();
            constraints.extend(inst.requests.iter().flat_map(|r| r.constraints.clone()));
            let scorer = Scorer::new(ObjectiveWeights::default(), constraints);
            for ordering in [
                Ordering::NodeCandidates,
                Ordering::TagPopularity,
                Ordering::Submission,
            ] {
                let got = HeuristicScheduler::new(ordering).place_audited(
                    &inst.state,
                    &inst.requests,
                    &inst.deployed,
                    inst.allowed.as_deref(),
                    |work, app, request, node, cached| {
                        let fresh = scorer.violation_delta(work, app, request, node);
                        let (got, want) = (cached.to_bits(), fresh.to_bits());
                        let at = format_args!("{family} seed {seed}, {ordering:?}, {app:?}");
                        assert_eq!(got, want, "{at} on {node:?}: {cached} != {fresh}");
                        compared += 1;
                    },
                );
                if family == "unseen" {
                    assert_eq!(
                        got,
                        reference_place(&inst, ordering),
                        "unseen seed {seed}, {ordering:?}"
                    );
                }
            }
        }
        assert!(
            compared > 10_000,
            "{family}: only {compared} cached deltas compared"
        );
    }
}
