//! Scorer differential: `Scorer::violation_delta` against an oracle
//! written here, on public calls only.
//!
//! The oracle allocates the container under a `Scratch` guard and
//! re-evaluates whole constraints: the change in weighted
//! `evaluate_constraint(..).total_extent` is the delta, and a failed
//! allocation is an infinite one. It is the reference for any scorer that
//! avoids that work; the two must agree within 1e-9 on every (container,
//! node) pair of every seeded instance, except where a consumed tag
//! occurrence is within reach (see [`consumed_within_reach`]). One FNV-1a
//! hash over the bits of every delta, those included, pins the scorer's
//! floating-point sums exactly.
//!
//! Instances extend `greedy_differential.rs`'s generator with what makes
//! an analytic delta hard: node tags consumed by `remove_node_tag` from
//! live containers (γ then reads lower than a container walk; every
//! instance plants one under a constraint that targets the container's
//! two tags), conjunctions of plain tags, DNF compound constraints,
//! catch-all (tag-less) subjects, an over-capacity node and an
//! unavailable node.
//!
//! Every delta must also equal, bit for bit, the per-subject evaluation
//! written here ([`per_subject`]): each (constraint, subject) term
//! evaluated on its own and summed in constraint order. A second family
//! ([`listed_instance`], its own seeds and hash) is built for scorers
//! that share one evaluation between equal terms: three apps list the
//! same constraints, several subjects share each rack and zone, and a
//! subject whose `y` occurrence was consumed sits on a node under an
//! `x ∧ y` target, so a subject on the arrival node and one beside it
//! count differently.

use medea_cluster::{
    ApplicationId, ClusterState, ContainerRequest, ExecutionKind, NodeGroupId, NodeId, Resources,
    Tag,
};
use medea_constraints::{
    evaluate_constraint, subject_extents, Arrival, Cardinality, PlacementConstraint, TagConstraint,
    TagConstraintExpr, TagExpr,
};
use medea_core::{ObjectiveWeights, Scorer};
use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};

const SEEDS: u64 = 300;
const TAGS: [&str; 4] = ["a", "b", "c", "d"];

/// FNV-1a over the bits of every delta the seeded instances produce.
const PINNED_DELTA_BITS: u64 = 0x3350_ee87_15aa_ecf9;
/// Seeds of the second family ([`listed_instance`]).
const LISTED_SEEDS: u64 = 200;
/// [`PINNED_DELTA_BITS`] of the second family.
const PINNED_LISTED_BITS: u64 = 0x8396_3e9a_460c_9686;

fn fnv(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

struct Instance {
    state: ClusterState,
    /// Container classes to score: an app and a request.
    classes: Vec<(ApplicationId, ContainerRequest)>,
    constraints: Vec<PlacementConstraint>,
    /// A node too full for any request, and an unavailable one.
    full: NodeId,
    down: NodeId,
}

fn zone() -> NodeGroupId {
    NodeGroupId::new("zone")
}

/// A tag; a third of the time scoped to `app`, a sixth of the time
/// conjoined with a second plain tag.
fn random_expr(rng: &mut StdRng, app: ApplicationId) -> TagExpr {
    let tag = Tag::new(*rng.choose(&TAGS).unwrap());
    match rng.random_range(0..6u32) {
        0 | 1 => TagExpr::and([tag, Tag::app_id(app)]),
        2 => TagExpr::and([tag, Tag::new(*rng.choose(&TAGS).unwrap())]),
        _ => TagExpr::tag(tag),
    }
}

fn random_cardinality(rng: &mut StdRng) -> Cardinality {
    match rng.random_range(0..5u32) {
        0 => Cardinality::affinity(),
        1 => Cardinality::anti_affinity(),
        2 => Cardinality::at_most(rng.random_range(1..3u32)),
        3 => Cardinality::at_least(rng.random_range(1..3u32)),
        _ => Cardinality::range(1, 2),
    }
}

fn random_leaf(rng: &mut StdRng, app: ApplicationId) -> TagConstraint {
    let target = random_expr(rng, app);
    TagConstraint::new(target, random_cardinality(rng))
}

/// A constraint over `expr` with a random subject (a tenth of them
/// catch-all), group and weight.
fn constraint_over(
    rng: &mut StdRng,
    app: ApplicationId,
    expr: TagConstraintExpr,
) -> PlacementConstraint {
    let subject = if rng.random_bool(0.1) {
        TagExpr::and([])
    } else {
        random_expr(rng, app)
    };
    let group = match rng.random_range(0..3u32) {
        0 => NodeGroupId::node(),
        1 => NodeGroupId::rack(),
        _ => zone(),
    };
    let weight = *rng.choose(&[0.5, 1.0, 2.0]).unwrap();
    PlacementConstraint::compound(subject, expr, group).with_weight(weight)
}

fn random_constraint(rng: &mut StdRng, app: ApplicationId) -> PlacementConstraint {
    // A quarter are DNF compounds: two conjuncts of one or two leaves.
    let expr = if rng.random_bool(0.25) {
        TagConstraintExpr::any((0..2).map(|_| {
            (0..rng.random_range(1..3usize))
                .map(|_| random_leaf(rng, app))
                .collect()
        }))
    } else {
        TagConstraintExpr::leaf(random_leaf(rng, app))
    };
    constraint_over(rng, app, expr)
}

fn random_tags(rng: &mut StdRng) -> Vec<Tag> {
    let mut tags = vec![Tag::new(*rng.choose(&TAGS).unwrap())];
    if rng.random_bool(0.4) {
        tags.push(Tag::new(*rng.choose(&TAGS).unwrap()));
        tags.dedup();
    }
    tags
}

/// Three zones, each reaching two nodes into the next; the last node
/// belongs to none.
fn register_zones(state: &mut ClusterState) {
    let n = state.num_nodes();
    let third = (n - 1) / 3;
    let zones = (0..3)
        .map(|z| {
            let end = ((z + 1) * third + 2).min(n - 1);
            (z * third..end).map(|i| NodeId(i as u32)).collect()
        })
        .collect();
    state.register_group(zone(), zones);
}

fn random_instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5C0E);
    let n = rng.random_range(6..20usize);
    let racks = rng.random_range(2..5usize);
    let mut state = ClusterState::homogeneous(n, Resources::new(8192, 8), racks);
    register_zones(&mut state);

    // Background allocations of apps 100..=102, some carrying two tags so
    // that conjunction targets match them.
    let mut background = Vec::new();
    for i in 0..rng.random_range(n..3 * n) {
        let node = NodeId(rng.random_range(0..n as u32));
        let req = ContainerRequest::new(Resources::new(1024, 1), random_tags(&mut rng));
        let app = ApplicationId(100 + (i % 3) as u64);
        if let Ok(id) = state.allocate(app, node, &req, ExecutionKind::LongRunning) {
            background.push(id);
        }
    }
    // The trap, planted in every instance: an `{x, y}` container whose `y`
    // occurrence is consumed, under a constraint that targets `x ∧ y`.
    let x = rng.random_range(0..TAGS.len());
    let (x, y) = (
        TAGS[x],
        TAGS[(x + rng.random_range(1..TAGS.len())) % TAGS.len()],
    );
    let node = NodeId(rng.random_range(0..n as u32));
    let xy = ContainerRequest::new(Resources::new(1024, 1), [Tag::new(x), Tag::new(y)]);
    if state
        .allocate(ApplicationId(100), node, &xy, ExecutionKind::LongRunning)
        .is_ok()
    {
        state.remove_node_tag(node, &Tag::new(y)).unwrap();
    }
    let target = TagExpr::and([Tag::new(x), Tag::new(y)]);
    let leaf = TagConstraint::new(target, random_cardinality(&mut rng));
    let mut constraints = vec![constraint_over(
        &mut rng,
        ApplicationId(100),
        TagConstraintExpr::leaf(leaf),
    )];
    // More consumed occurrences, of random containers' tags.
    for _ in 0..rng.random_range(1..4usize) {
        let id = *rng.choose(&background).unwrap();
        let alloc = state.allocation(id).unwrap();
        let (node, tag) = (alloc.node, rng.choose(&alloc.tags).unwrap().clone());
        state.remove_node_tag(node, &tag).unwrap();
    }
    // One node with no memory left, and a different one unavailable.
    let full = NodeId(rng.random_range(0..n as u32));
    let left = state.free(full).unwrap().memory_mb;
    let filler = ContainerRequest::new(Resources::new(left, 0), [Tag::new("filler")]);
    state
        .allocate(
            ApplicationId(103),
            full,
            &filler,
            ExecutionKind::LongRunning,
        )
        .unwrap();
    let down = NodeId((full.0 + rng.random_range(1..n as u32)) % n as u32);
    state.set_available(down, false).unwrap();

    let mut classes = Vec::new();
    constraints.extend(
        (0..rng.random_range(0..3usize)).map(|_| random_constraint(&mut rng, ApplicationId(100))),
    );
    for ai in 0..rng.random_range(1..4u64) {
        let app = ApplicationId(ai + 1);
        for _ in 0..rng.random_range(1..3usize) {
            let mem = *rng.choose(&[1024u64, 2048, 3072, 7168]).unwrap();
            let req = ContainerRequest::new(Resources::new(mem, 1), random_tags(&mut rng));
            classes.push((app, req));
        }
        constraints
            .extend((0..rng.random_range(0..4usize)).map(|_| random_constraint(&mut rng, app)));
    }
    Instance {
        state,
        classes,
        constraints,
        full,
        down,
    }
}

/// The second family: the constraints of a base list, each listed by
/// three apps (every third copy at weight 2) as HBase bursts list
/// `{hb_rs, {hb_rs, 0, 1}, node}`; subjects `{s}`, `{s, x}` and
/// `{s, x, y}` spread so that several share each rack and zone; and on
/// one node two `{s, x, y}` containers whose `y` occurrences were both
/// consumed. Classes carry `{x, y}` (lifting the consumed `y` on that
/// node), `{s, x, y}`, `{s}`, `{x}` or `{y}`.
fn listed_instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x7157);
    let n = rng.random_range(6..16usize);
    let racks = rng.random_range(2..4usize);
    let mut state = ClusterState::homogeneous(n, Resources::new(16384, 16), racks);
    register_zones(&mut state);
    let tags = |names: &[&str]| names.iter().map(|t| Tag::new(*t)).collect::<Vec<_>>();
    let subjects = [tags(&["s"]), tags(&["s", "x"]), tags(&["s", "x", "y"])];
    for i in 0..rng.random_range(n..2 * n) {
        let node = NodeId(rng.random_range(0..n as u32));
        let req = ContainerRequest::new(
            Resources::new(512, 1),
            rng.choose(&subjects).unwrap().clone(),
        );
        let app = ApplicationId(100 + (i % 3) as u64);
        state
            .allocate(app, node, &req, ExecutionKind::LongRunning)
            .unwrap();
    }
    let consumed = NodeId(rng.random_range(0..n as u32));
    let sxy = ContainerRequest::new(Resources::new(512, 1), subjects[2].clone());
    for _ in 0..2 {
        state
            .allocate(
                ApplicationId(100),
                consumed,
                &sxy,
                ExecutionKind::LongRunning,
            )
            .unwrap();
        state.remove_node_tag(consumed, &Tag::new("y")).unwrap();
    }
    let groups = [NodeGroupId::node(), NodeGroupId::rack(), zone()];
    let xy = || TagExpr::and(tags(&["x", "y"]));
    let mut base = vec![PlacementConstraint::new(
        "s",
        "s",
        Cardinality::at_most(1),
        NodeGroupId::node(),
    )];
    for _ in 0..rng.random_range(2..5usize) {
        let subject = match rng.random_range(0..4u32) {
            0 => TagExpr::and(tags(&["s", "x"])),
            _ => TagExpr::tag("s"),
        };
        let target = match rng.random_range(0..3u32) {
            0 => TagExpr::tag("x"),
            _ => xy(),
        };
        let group = rng.choose(&groups).unwrap().clone();
        let cardinality = random_cardinality(&mut rng);
        base.push(PlacementConstraint::new(
            subject,
            target,
            cardinality,
            group,
        ));
    }
    rng.shuffle(&mut base);
    let mut constraints = Vec::new();
    for copy in 0..3 {
        let weight = if copy == 2 { 2.0 } else { 1.0 };
        constraints.extend(base.iter().map(|c| c.clone().with_weight(weight)));
    }
    let class_tags = [
        tags(&["x", "y"]),
        tags(&["s", "x", "y"]),
        tags(&["s"]),
        tags(&["x"]),
        tags(&["y"]),
    ];
    let classes = (1..=3)
        .flat_map(|app| {
            class_tags.iter().map(move |t| {
                let req = ContainerRequest::new(Resources::new(1024, 1), t.clone());
                (ApplicationId(app), req)
            })
        })
        .collect();
    // No node is full or down here: point both at the consumed node, which
    // stays feasible.
    Instance {
        state,
        classes,
        constraints,
        full: consumed,
        down: consumed,
    }
}

/// Weighted violation extent over every constraint.
fn weighted_extent(state: &ClusterState, constraints: &[PlacementConstraint]) -> f64 {
    constraints
        .iter()
        .map(|c| evaluate_constraint(state, c).total_extent * c.weight)
        .sum()
}

/// The oracle: allocate for real (under a guard), re-evaluate everything.
fn oracle(
    constraints: &[PlacementConstraint],
    state: &mut ClusterState,
    app: ApplicationId,
    req: &ContainerRequest,
    node: NodeId,
) -> f64 {
    let mut work = state.scratch();
    let before = weighted_extent(&work, constraints);
    match work.allocate(app, node, req, ExecutionKind::LongRunning) {
        Ok(_) => weighted_extent(&work, constraints) - before,
        Err(_) => f64::INFINITY,
    }
}

/// The per-subject evaluation: the new container's own extent under
/// every constraint it is a subject of, plus the before/after extents of
/// each existing subject in a set it joins under a constraint with a
/// leaf target it matches (on the hosts the tag index lists), every term
/// evaluated on its own and summed in constraint order (subjects sorted
/// by container id). A scorer that
/// shares evaluations between equal terms must reproduce its bits.
fn per_subject(
    scorer: &Scorer,
    state: &ClusterState,
    app: ApplicationId,
    req: &ContainerRequest,
    node: NodeId,
) -> f64 {
    if !scorer.is_feasible(state, node, req) {
        return f64::INFINITY;
    }
    let mut tags = req.tags.clone();
    if !tags.contains(&Tag::app_id(app)) {
        tags.push(Tag::app_id(app));
    }
    let arrival = Arrival { node, tags: &tags };
    let constraints = &scorer.constraints;
    let own: f64 = constraints
        .iter()
        .filter(|c| c.subject.matches_tags(&tags))
        .map(|c| subject_extents(state, c, None, Some(arrival)).map_or(0.0, |(_, a)| a) * c.weight)
        .sum();
    let groups = state.groups();
    let mut affected = Vec::new();
    for (ci, c) in constraints.iter().enumerate() {
        if !c.expr.leaves().any(|l| l.target.matches_tags(&tags)) {
            continue;
        }
        let hosts = if c.group.is_node() {
            vec![node]
        } else {
            let Some(sets) = groups.sets_containing_ref(&c.group, node) else {
                continue;
            };
            // Hosts as the tag index lists them: a subject whose tag γ
            // lacks on its node (consumed) is not enumerated.
            let mut hosts = state.nodes_with_all_tags(c.subject.tags());
            hosts.retain(|h| {
                let of = groups.sets_containing_ref(&c.group, *h).unwrap_or(&[]);
                of.iter().any(|s| sets.contains(s))
            });
            hosts
        };
        for host in hosts {
            for &cid in state.containers_on(host).unwrap_or(&[]) {
                if c.subject.matches_allocation(state.allocation(cid).unwrap()) {
                    affected.push((ci, cid));
                }
            }
        }
    }
    affected.sort();
    affected.dedup();
    let (before, after) = affected
        .into_iter()
        .map(|(ci, cid)| {
            let c = &constraints[ci];
            let (b, a) = subject_extents(state, c, Some(cid), Some(arrival)).unwrap_or((0.0, 0.0));
            (b * c.weight, a * c.weight)
        })
        .fold((-0.0, -0.0), |(b, a), (x, y)| (b + x, a + y));
    own + (after - before)
}

/// Tags γ lacks on `node` although a container there carries them: the
/// occurrences `remove_node_tag` consumed.
fn consumed(state: &ClusterState, node: NodeId) -> Vec<Tag> {
    let mut tags: Vec<Tag> = Vec::new();
    for &c in state.containers_on(node).unwrap() {
        let carried = &state.allocation(c).unwrap().tags;
        tags.extend(
            carried
                .iter()
                .filter(|t| state.gamma(node, t) == 0)
                .cloned(),
        );
    }
    tags
}

/// Whether a consumed occurrence sits where placing on `node` can reach
/// it: on the node, or on a member of a rack or zone containing it.
///
/// There the tag index and the container lists disagree: subject
/// enumeration and conjunction counts skip a container whose tag γ lacks,
/// until an arrival supplies the tag. Whole-constraint re-evaluation then
/// counts the container as new; the scorer's delta (the arrival's own
/// extents plus the change of the subjects its targets reach, enumerated
/// as the scorer does) does not. The oracle does not judge such cells;
/// the hash pins them to the bits a real allocation gives.
fn consumed_within_reach(state: &ClusterState, node: NodeId) -> bool {
    let mut reach = vec![node];
    for group in [NodeGroupId::rack(), zone()] {
        for set in state.groups().sets_containing(&group, node).unwrap() {
            reach.extend(state.groups().set_members(&group, set).unwrap());
        }
    }
    reach.into_iter().any(|n| !consumed(state, n).is_empty())
}

#[test]
fn violation_delta_matches_a_scratch_allocation_oracle() {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let (mut judged, mut moved, mut infinite, mut lifting) = (0, 0, 0, 0);
    for seed in 0..SEEDS {
        let mut inst = random_instance(seed);
        let scorer = Scorer::new(ObjectiveWeights::default(), inst.constraints.clone());
        let state = &mut inst.state;
        for (app, req) in &inst.classes {
            let supplied = |t: &Tag| req.tags.contains(t) || *t == Tag::app_id(*app);
            for node in state.node_ids().collect::<Vec<_>>() {
                let delta = scorer.violation_delta(state, *app, req, node);
                hash = fnv(hash, delta.to_bits());
                let terms = per_subject(&scorer, state, *app, req, node);
                assert_eq!(delta.to_bits(), terms.to_bits(), "seed {seed} on {node:?}");
                if node == inst.full || node == inst.down {
                    assert_eq!(delta, f64::INFINITY, "seed {seed} on {node:?}");
                }
                if consumed(state, node).iter().any(supplied) && delta.is_finite() {
                    lifting += 1;
                }
                if consumed_within_reach(state, node) {
                    continue;
                }
                let expected = oracle(&scorer.constraints, state, *app, req, node);
                let agree = if expected.is_finite() {
                    (delta - expected).abs() <= 1e-9
                } else {
                    delta == f64::INFINITY
                };
                assert!(
                    agree,
                    "seed {seed}, app {app:?} {:?} on {node:?}: scorer {delta}, oracle {expected}",
                    req.tags
                );
                judged += 1;
                moved += usize::from(delta.is_finite() && delta != 0.0);
                infinite += usize::from(delta.is_infinite());
            }
        }
    }
    // The generator must exercise every outcome, or agreement proves little.
    assert!(
        moved > judged / 5 && infinite > judged / 10 && lifting > 100,
        "{judged} judged: {moved} nonzero, {infinite} infinite; {lifting} lifting"
    );
    assert_eq!(
        hash, PINNED_DELTA_BITS,
        "delta bits moved: 0x{hash:016x} (re-pin only in a commit that says why)"
    );
}

/// The second family: every delta equals the per-subject evaluation bit
/// for bit, and one hash pins them all. The family must put subjects on
/// the arrival node and beside it, in the same sets, under one term.
#[test]
fn equal_terms_listed_by_several_apps_keep_every_bit() {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let (mut judged, mut lifting) = (0, 0);
    for seed in 0..LISTED_SEEDS {
        let inst = listed_instance(seed);
        let scorer = Scorer::new(ObjectiveWeights::default(), inst.constraints.clone());
        let state = &inst.state;
        for (app, req) in &inst.classes {
            for node in state.node_ids() {
                let delta = scorer.violation_delta(state, *app, req, node);
                hash = fnv(hash, delta.to_bits());
                let terms = per_subject(&scorer, state, *app, req, node);
                assert_eq!(
                    delta.to_bits(),
                    terms.to_bits(),
                    "seed {seed}, app {app:?} {:?} on {node:?}: scorer {delta}, terms {terms}",
                    req.tags
                );
                judged += 1;
                let lifts = node == inst.full && req.tags.contains(&Tag::new("y"));
                lifting += usize::from(lifts && delta != 0.0);
            }
        }
    }
    assert!(
        lifting > LISTED_SEEDS as usize,
        "{judged} judged, {lifting} lifting"
    );
    assert_eq!(
        hash, PINNED_LISTED_BITS,
        "delta bits moved: 0x{hash:016x} (re-pin only in a commit that says why)"
    );
}

/// 4 nodes in 2 racks; a `{a, b}` container of app 1 on node 0 whose `b`
/// occurrence `remove_node_tag` consumed, so γ says node 0 has no `b`
/// while a walk over its containers still finds one.
fn consumed_b() -> ClusterState {
    let mut state = ClusterState::homogeneous(4, Resources::new(8192, 8), 2);
    let ab = ContainerRequest::new(Resources::new(1024, 1), [Tag::new("a"), Tag::new("b")]);
    state
        .allocate(ApplicationId(1), NodeId(0), &ab, ExecutionKind::LongRunning)
        .unwrap();
    state.remove_node_tag(NodeId(0), &Tag::new("b")).unwrap();
    state
}

fn a_and_b() -> TagExpr {
    TagExpr::and([Tag::new("a"), Tag::new("b")])
}

/// A new `{a, b}` container on node 0 lifts γ's `b` skip there, so the
/// rack's count for `s` on node 1 goes 0 → 2 (the hidden container and
/// the new one), not 0 → 1.
#[test]
fn an_arrival_that_lifts_a_consumed_tag_counts_the_hidden_container_for_others() {
    let mut state = consumed_b();
    let s = ContainerRequest::new(Resources::new(1024, 1), [Tag::new("s")]);
    state
        .allocate(ApplicationId(2), NodeId(1), &s, ExecutionKind::LongRunning)
        .unwrap();
    let at_most_one = PlacementConstraint::new(
        "s",
        a_and_b(),
        Cardinality::range(0, 1),
        NodeGroupId::rack(),
    );
    let scorer = Scorer::new(ObjectiveWeights::default(), vec![at_most_one]);
    let ab = ContainerRequest::new(Resources::new(1024, 1), [Tag::new("a"), Tag::new("b")]);
    let state = &mut state;
    assert_eq!(
        scorer.violation_delta(state, ApplicationId(3), &ab, NodeId(0)),
        1.0
    );
}

/// The new container's own count: `{x, b}` supplies the `b` γ lacks on
/// node 0, so the hidden `{a, b}` container counts against its own
/// anti-affinity.
#[test]
fn an_arrival_that_lifts_a_consumed_tag_counts_the_hidden_container_for_itself() {
    let mut state = consumed_b();
    let anti = PlacementConstraint::anti_affinity("x", a_and_b(), NodeGroupId::rack());
    let scorer = Scorer::new(ObjectiveWeights::default(), vec![anti]);
    let xb = ContainerRequest::new(Resources::new(1024, 1), [Tag::new("x"), Tag::new("b")]);
    let state = &mut state;
    assert_eq!(
        scorer.violation_delta(state, ApplicationId(3), &xb, NodeId(0)),
        1.0
    );
}
