//! Randomized tests for the constraint language: parser/printer round
//! trips, cardinality algebra, violation-extent invariants, and counts in
//! registered node sets, driven by the workspace's deterministic PRNG
//! (`medea-rand`).

use medea_cluster::{
    ApplicationId, ClusterState, ContainerRequest, ExecutionKind, NodeGroupId, NodeId, Resources,
    Tag,
};
use medea_constraints::{
    parse_constraint, Cardinality, PlacementConstraint, TagConstraint, TagConstraintExpr, TagExpr,
};
use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};

/// A random identifier matching `[a-z][a-z0-9_]{0,8}`.
fn random_tag(rng: &mut StdRng) -> Tag {
    const HEAD: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    let len = rng.random_range(0..9usize);
    let mut s = String::new();
    s.push(*rng.choose(HEAD).unwrap() as char);
    for _ in 0..len {
        s.push(*rng.choose(TAIL).unwrap() as char);
    }
    Tag::new(s)
}

fn random_tag_expr(rng: &mut StdRng) -> TagExpr {
    let n = rng.random_range(1..3usize);
    TagExpr::and((0..n).map(|_| random_tag(rng)).collect::<Vec<_>>())
}

fn random_cardinality(rng: &mut StdRng) -> Cardinality {
    let min = rng.random_range(0..6u32);
    let max = if rng.random_bool(0.5) {
        Some(rng.random_range(0..10u32).max(min))
    } else {
        None
    };
    Cardinality { min, max }
}

fn random_constraint(rng: &mut StdRng) -> PlacementConstraint {
    let subject = random_tag_expr(rng);
    let n_disjuncts = rng.random_range(1..3usize);
    let dnf: Vec<Vec<TagConstraint>> = (0..n_disjuncts)
        .map(|_| {
            let n_conj = rng.random_range(1..3usize);
            (0..n_conj)
                .map(|_| TagConstraint::new(random_tag_expr(rng), random_cardinality(rng)))
                .collect()
        })
        .collect();
    let group = *rng.choose(&["node", "rack", "upgrade_domain"]).unwrap();
    PlacementConstraint::compound(
        subject,
        TagConstraintExpr::any(dnf),
        NodeGroupId::new(group),
    )
}

/// Display emits the paper syntax, which the parser accepts back,
/// yielding an identical constraint.
#[test]
fn display_parse_roundtrip() {
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0xD15 ^ case);
        let c = random_constraint(&mut rng);
        let printed = c.to_string();
        let reparsed = parse_constraint(&printed)
            .unwrap_or_else(|e| panic!("case {case}: cannot reparse '{printed}': {e}"));
        assert_eq!(c, reparsed, "case {case}");
    }
}

/// The weight suffix survives a round trip: `Display` prints the bare
/// paper syntax, and appending `weight=<w>` (or `weight=hard`) yields a
/// reparse identical to the constraint with that weight set.
#[test]
fn weighted_roundtrip() {
    use medea_constraints::HARD_WEIGHT;
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x3E16 ^ case);
        let mut c = random_constraint(&mut rng);
        let printed = if rng.random_bool(0.25) {
            c.weight = HARD_WEIGHT;
            format!("{c} weight=hard")
        } else {
            // Quarter-step weights print exactly (e.g. `2.75`), so the
            // reparse is bit-identical, not merely approximately equal.
            c.weight = rng.random_range(1..40usize) as f64 / 4.0;
            format!("{} weight={}", c, c.weight)
        };
        let reparsed = parse_constraint(&printed)
            .unwrap_or_else(|e| panic!("case {case}: cannot reparse '{printed}': {e}"));
        assert_eq!(c, reparsed, "case {case}: '{printed}'");
    }
}

/// Rewriting the printed form with the documented ASCII aliases
/// (`&`, `|`, `inf`) parses back to the identical constraint.
#[test]
fn ascii_form_roundtrip() {
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0xA5C11 ^ case);
        let c = random_constraint(&mut rng);
        let ascii = c
            .to_string()
            .replace('∧', "&")
            .replace('∨', "|")
            .replace('∞', "inf");
        let reparsed = parse_constraint(&ascii)
            .unwrap_or_else(|e| panic!("case {case}: cannot reparse '{ascii}': {e}"));
        assert_eq!(c, reparsed, "case {case}: '{ascii}'");
    }
}

/// Printing is a fixpoint of parse∘format: formatting the reparsed
/// constraint reproduces the first printed form byte for byte.
#[test]
fn parse_format_idempotent() {
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x1DE ^ case);
        let c = random_constraint(&mut rng);
        let printed = c.to_string();
        let reparsed = parse_constraint(&printed).unwrap();
        assert_eq!(reparsed.to_string(), printed, "case {case}");
    }
}

/// A count satisfies the interval iff its violation extent is zero,
/// and the extent grows monotonically with the distance outside.
#[test]
fn extent_iff_unsatisfied() {
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0xE7 ^ case);
        let card = random_cardinality(&mut rng);
        let count = rng.random_range(0..20u32);
        let satisfied = card.satisfied_by(count);
        let extent = card.violation_extent(count);
        assert_eq!(
            satisfied,
            extent == 0.0,
            "case {case}: {card:?} count {count}"
        );
        assert!(extent >= 0.0);
        // Monotonicity below cmin: moving further under the minimum never
        // shrinks the extent.
        if count > 0 && count < card.min {
            assert!(card.violation_extent(count - 1) >= extent);
        }
        // Monotonicity above cmax.
        if let Some(max) = card.max {
            if count > max {
                assert!(card.violation_extent(count + 1) >= extent);
            }
        }
    }
}

/// Restrictiveness is a partial order compatible with satisfaction:
/// anything satisfying the more restrictive interval satisfies the
/// less restrictive one.
#[test]
fn restrictive_implies_satisfaction_subset() {
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x5B ^ case);
        let a = random_cardinality(&mut rng);
        let b = random_cardinality(&mut rng);
        let count = rng.random_range(0..20u32);
        if a.is_more_restrictive_than(&b) && a.satisfied_by(count) {
            assert!(
                b.satisfied_by(count),
                "case {case}: {a:?} vs {b:?} at {count}"
            );
        }
    }
}

/// Tag expressions are canonical: construction order never matters.
#[test]
fn tag_expr_is_canonical() {
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0xCA ^ case);
        let n = rng.random_range(1..5usize);
        let mut tags: Vec<Tag> = (0..n).map(|_| random_tag(&mut rng)).collect();
        let a = TagExpr::and(tags.clone());
        tags.reverse();
        let b = TagExpr::and(tags);
        assert_eq!(a, b, "case {case}");
    }
}

/// A conjunction's count in a set of a registered group (which walks only
/// the nodes of the rarest tag's postings that the set lists) equals a
/// scan of the set's members (`cardinality_on_set`) on seeded states:
/// overlapping sets, a node listed twice and one the cluster lacks,
/// occurrences consumed by `remove_node_tag`, a tag added to a node with
/// no container carrying it, and the subject excluded, a non-matching
/// container excluded, or none.
#[test]
fn conjunction_counts_in_a_set_match_a_member_scan() {
    let zone = NodeGroupId::new("zone");
    let tag = |t: &str| Tag::new(t);
    let exprs = [
        TagExpr::and([tag("a"), tag("b")]),
        TagExpr::and([tag("a"), tag("b"), tag("c")]),
        TagExpr::and([tag("c"), tag("b")]),
        TagExpr::and([tag("a"), Tag::app_id(ApplicationId(2))]),
    ];
    let (mut counted, mut excluded, mut consumed) = (0, 0, 0);
    for case in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0xC0C0 ^ case);
        let n = rng.random_range(4..16usize);
        let mut state = ClusterState::homogeneous(n, Resources::new(1 << 16, 1 << 10), 2);
        let mut sets: Vec<Vec<NodeId>> = (0..rng.random_range(2..5usize))
            .map(|_| {
                let mut set: Vec<NodeId> = (0..n as u32)
                    .filter(|_| rng.random_bool(0.5))
                    .map(NodeId)
                    .collect();
                if let Some(&first) = set.first().filter(|_| rng.random_bool(0.3)) {
                    set.push(first);
                }
                set
            })
            .collect();
        sets[0].push(NodeId(n as u32));
        state.register_group(zone.clone(), sets.clone());
        let mut ids = Vec::new();
        for i in 0..rng.random_range(n..4 * n) {
            let node = NodeId(rng.random_range(0..n as u32));
            let tags = ["a", "b", "c"].into_iter().filter(|_| rng.random_bool(0.6));
            let req = ContainerRequest::new(Resources::new(64, 1), tags.map(tag));
            let app = ApplicationId(1 + (i % 2) as u64);
            ids.push(
                state
                    .allocate(app, node, &req, ExecutionKind::LongRunning)
                    .unwrap(),
            );
        }
        for _ in 0..rng.random_range(0..4usize) {
            let alloc = state.allocation(*rng.choose(&ids).unwrap()).unwrap();
            if let Some(t) = rng.choose(&alloc.tags).cloned() {
                state.remove_node_tag(alloc.node, &t).unwrap();
            }
        }
        let bare = NodeId(rng.random_range(0..n as u32));
        state.add_node_tag(bare, tag("c")).unwrap();
        consumed += (0..n as u32)
            .filter(|&i| state.tags_removed(NodeId(i)))
            .count();
        for expr in &exprs {
            let matching: Vec<_> = ids
                .iter()
                .copied()
                .filter(|&id| expr.matches_allocation(state.allocation(id).unwrap()))
                .collect();
            let subject = rng.choose(&matching).copied();
            let other = ids.iter().copied().find(|id| !matching.contains(id));
            for (si, set) in sets.iter().enumerate() {
                for exclude in [None, subject, other] {
                    let scan = expr.cardinality_on_set(&state, set, exclude);
                    let walked = expr.cardinality_in_group_set(&state, &zone, si, exclude);
                    assert_eq!(
                        walked, scan,
                        "case {case}: {expr} in set {si}, excluding {exclude:?}"
                    );
                    counted += usize::from(scan > 0);
                    excluded += usize::from(scan > 0 && exclude.is_some() && exclude == subject);
                }
            }
        }
    }
    assert!(
        counted > 1_000 && excluded > 300 && consumed > 200,
        "{counted} nonzero counts, {excluded} with the subject excluded, {consumed} cut nodes"
    );
}
