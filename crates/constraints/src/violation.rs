//! Constraint evaluation against live cluster state.
//!
//! Implements the semantics of §4.2: a constraint
//! `C = {subject_tag, tag_constraint, node_group}` is satisfied for a
//! subject container when the container sits on a node belonging to a node
//! set `S` of the group such that the tag-cardinality interval holds on
//! `S` — excluding the subject container itself from the count, matching
//! the ILP's `t_ij ≠ t_is js` self-exclusion. Violation *extent* follows
//! Eq. 8 (normalized distance outside the interval).

use std::collections::HashSet;

use medea_cluster::{ClusterState, ContainerId, NodeGroupId};

use crate::constraint::{PlacementConstraint, TagConstraint};
use crate::expr::Arrival;

/// Outcome of checking one subject container against one constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerCheck {
    /// The subject container.
    pub container: ContainerId,
    /// `true` if some node set containing the container satisfies the
    /// constraint expression.
    pub satisfied: bool,
    /// Violation extent (0 when satisfied): the minimum over containing
    /// node sets and DNF conjuncts of the summed leaf extents.
    pub extent: f64,
}

/// Aggregate report of one constraint across all its subject containers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConstraintReport {
    /// Number of live containers matching the subject expression.
    pub subjects: usize,
    /// Number of subjects violating the constraint.
    pub violated: usize,
    /// Sum of violation extents over violating subjects.
    pub total_extent: f64,
}

impl ConstraintReport {
    /// Fraction of subject containers in violation (0 if no subjects).
    pub fn violated_fraction(&self) -> f64 {
        if self.subjects == 0 {
            0.0
        } else {
            self.violated as f64 / self.subjects as f64
        }
    }
}

/// Aggregate statistics over a set of constraints — the §7.4 metric
/// "percentage of containers that violate constraints".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ViolationStats {
    /// Distinct containers subject to at least one constraint.
    pub containers_checked: usize,
    /// Distinct containers violating at least one constraint.
    pub containers_violating: usize,
    /// Sum of violation extents across all (constraint, subject) pairs.
    pub total_extent: f64,
}

impl ViolationStats {
    /// Fraction of constrained containers in violation.
    pub fn violating_fraction(&self) -> f64 {
        if self.containers_checked == 0 {
            0.0
        } else {
            self.containers_violating as f64 / self.containers_checked as f64
        }
    }
}

/// Evaluates one conjunct (all leaves must hold) on one set of a node
/// group, as the state stands and with the arrival; returns the summed
/// violation extents (0 means satisfied).
fn conjunct_extents(
    state: &ClusterState,
    conjunct: &[TagConstraint],
    group: &NodeGroupId,
    set_idx: usize,
    exclude: Option<ContainerId>,
    arrival: Option<(Arrival<'_>, u32)>,
) -> (f64, f64) {
    conjunct
        .iter()
        .map(|leaf| {
            let (before, after) = leaf
                .target
                .counts_in_group_set(state, group, set_idx, exclude, arrival);
            let extent = |count| leaf.cardinality.violation_extent(count);
            (extent(before), extent(after))
        })
        .fold((-0.0, -0.0), |(b, a), (x, y)| (b + x, a + y))
}

/// A subject's violation extent under a constraint as the state stands and
/// with `arrival` allocated, from one count per leaf and without
/// allocating anything. The subject is the live container `subject` or,
/// when that is `None`, the arrival itself (whose first extent then means
/// nothing). `None` if the container does not exist or neither is given.
///
/// A subject whose node belongs to no set of the constraint's group is a
/// full violation with extent 1 (the constraint cannot be satisfied
/// there); under an unknown group it is satisfied (validation is the
/// place where unknown groups are rejected).
pub fn subject_extents(
    state: &ClusterState,
    constraint: &PlacementConstraint,
    subject: Option<ContainerId>,
    arrival: Option<Arrival<'_>>,
) -> Option<(f64, f64)> {
    let node = match subject {
        Some(c) => state.allocation(c).ok()?.node,
        None => arrival?.node,
    };
    let group = &constraint.group;
    let node_singleton = [node.index()];
    let set_indices: &[usize] = if group.is_node() {
        &node_singleton
    } else {
        match state.groups().sets_containing_ref(group, node) {
            Some(s) => s,
            None => return Some((0.0, 0.0)),
        }
    };
    if constraint.expr.is_trivial() {
        return Some((0.0, 0.0));
    }
    if set_indices.is_empty() {
        return Some((1.0, 1.0));
    }
    // The sets the arrival joins, to count how often each lists its node.
    let arrival_singleton = [arrival.map_or(0, |a| a.node.index())];
    let arrival_sets: &[usize] = match arrival {
        None => &[],
        Some(a) if a.node == node => set_indices,
        Some(_) if group.is_node() => &arrival_singleton,
        Some(a) => state
            .groups()
            .sets_containing_ref(group, a.node)
            .unwrap_or(&[]),
    };
    let mut best = (f64::INFINITY, f64::INFINITY);
    for &si in set_indices {
        let hits = arrival_sets.iter().filter(|&&s| s == si).count() as u32;
        let arrival = arrival.map(|a| (a, hits));
        for conj in &constraint.expr.conjuncts {
            let (before, after) = conjunct_extents(state, conj, group, si, subject, arrival);
            best.0 = if before < best.0 { before } else { best.0 };
            best.1 = if after < best.1 { after } else { best.1 };
            if best == (0.0, 0.0) {
                break;
            }
        }
        if best == (0.0, 0.0) {
            break;
        }
    }
    let bounded = |e: f64| if e.is_finite() { e } else { 1.0 };
    Some((bounded(best.0), bounded(best.1)))
}

/// Checks one subject container against a constraint (see
/// [`subject_extents`]); `None` if the container no longer exists.
pub fn check_container(
    state: &ClusterState,
    constraint: &PlacementConstraint,
    container: ContainerId,
) -> Option<ContainerCheck> {
    let (extent, _) = subject_extents(state, constraint, Some(container), None)?;
    Some(ContainerCheck {
        container,
        satisfied: extent == 0.0,
        extent,
    })
}

/// Enumerates the live subject containers of a constraint.
///
/// Tagged subjects are seeded from the cluster's tag index: a node hosting
/// a matching container necessarily carries every subject tag, so only the
/// postings intersection is walked (node-ascending, hence deterministic).
/// Tag-less subjects match everything and fall back to an allocation scan.
fn subjects_of(state: &ClusterState, constraint: &PlacementConstraint) -> Vec<ContainerId> {
    let tags = constraint.subject.tags();
    if tags.is_empty() {
        return state
            .allocations()
            .filter(|a| constraint.subject.matches_allocation(a))
            .map(|a| a.id)
            .collect();
    }
    let mut out = Vec::new();
    for node in state.nodes_with_all_tags(tags) {
        let Ok(containers) = state.containers_on(node) else {
            continue;
        };
        for &cid in containers {
            if let Ok(a) = state.allocation(cid) {
                if constraint.subject.matches_allocation(a) {
                    out.push(cid);
                }
            }
        }
    }
    out
}

/// Evaluates a constraint across all live subject containers.
pub fn evaluate_constraint(
    state: &ClusterState,
    constraint: &PlacementConstraint,
) -> ConstraintReport {
    let mut report = ConstraintReport::default();
    for c in subjects_of(state, constraint) {
        if let Some(check) = check_container(state, constraint, c) {
            report.subjects += 1;
            if !check.satisfied {
                report.violated += 1;
                report.total_extent += check.extent;
            }
        }
    }
    report
}

/// Evaluates a set of constraints, reporting the distinct-container
/// violation fraction of §7.4.
pub fn violation_stats<'a>(
    state: &ClusterState,
    constraints: impl IntoIterator<Item = &'a PlacementConstraint>,
) -> ViolationStats {
    let mut checked: HashSet<ContainerId> = HashSet::new();
    let mut violating: HashSet<ContainerId> = HashSet::new();
    let mut total_extent = 0.0;
    for constraint in constraints {
        for c in subjects_of(state, constraint) {
            if let Some(check) = check_container(state, constraint, c) {
                checked.insert(c);
                if !check.satisfied {
                    violating.insert(c);
                    total_extent += check.extent;
                }
            }
        }
    }
    ViolationStats {
        containers_checked: checked.len(),
        containers_violating: violating.len(),
        total_extent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{Cardinality, PlacementConstraint, TagConstraint, TagConstraintExpr};
    use crate::expr::TagExpr;
    use medea_cluster::{
        ApplicationId, ClusterState, ContainerRequest, ExecutionKind, NodeGroupId, NodeId,
        Resources, Tag,
    };

    fn req(tags: &[&str]) -> ContainerRequest {
        ContainerRequest::new(Resources::new(256, 1), tags.iter().map(|t| Tag::new(*t)))
    }

    /// 4 nodes, 2 racks ({0,1} and {2,3}).
    fn cluster() -> ClusterState {
        ClusterState::homogeneous(4, Resources::new(8192, 8), 2)
    }

    #[test]
    fn node_affinity_satisfied_and_violated() {
        let mut c = cluster();
        let storm = c
            .allocate(
                ApplicationId(1),
                NodeId(0),
                &req(&["storm"]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        c.allocate(
            ApplicationId(2),
            NodeId(0),
            &req(&["hb", "mem"]),
            ExecutionKind::LongRunning,
        )
        .unwrap();
        // Caf = {storm, {hb ∧ mem, 1, ∞}, node}: satisfied on node 0.
        let caf = PlacementConstraint::affinity(
            "storm",
            TagExpr::and([Tag::new("hb"), Tag::new("mem")]),
            NodeGroupId::node(),
        );
        let check = check_container(&c, &caf, storm).unwrap();
        assert!(check.satisfied);

        // Move the hb container away: now violated with extent 1.
        c.release_app(ApplicationId(2));
        c.allocate(
            ApplicationId(2),
            NodeId(3),
            &req(&["hb", "mem"]),
            ExecutionKind::LongRunning,
        )
        .unwrap();
        let check = check_container(&c, &caf, storm).unwrap();
        assert!(!check.satisfied);
        assert!((check.extent - 1.0).abs() < 1e-12);
    }

    #[test]
    fn anti_affinity_excludes_subject_itself() {
        let mut c = cluster();
        // A single hb container must not count itself as a violation of
        // "{hb, {hb, 0, 0}, node}" (intra-app anti-affinity).
        let only = c
            .allocate(
                ApplicationId(1),
                NodeId(1),
                &req(&["hb"]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        let caa = PlacementConstraint::anti_affinity("hb", "hb", NodeGroupId::node());
        let check = check_container(&c, &caa, only).unwrap();
        assert!(check.satisfied);

        // A second hb container on the same node violates for both.
        c.allocate(
            ApplicationId(1),
            NodeId(1),
            &req(&["hb"]),
            ExecutionKind::LongRunning,
        )
        .unwrap();
        let report = evaluate_constraint(&c, &caa);
        assert_eq!(report.subjects, 2);
        assert_eq!(report.violated, 2);
    }

    #[test]
    fn rack_cardinality() {
        let mut c = cluster();
        // Ccg = {spark, {spark, 0, 2}, rack}: three spark on one rack -> each
        // sees 2 others, so [0,2] holds; a fourth breaks it.
        let cca = PlacementConstraint::cardinality("spark", "spark", 0, 2, NodeGroupId::rack());
        for node in [0u32, 0, 1] {
            c.allocate(
                ApplicationId(1),
                NodeId(node),
                &req(&["spark"]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        }
        let report = evaluate_constraint(&c, &cca);
        assert_eq!(report.subjects, 3);
        assert_eq!(report.violated, 0);
        c.allocate(
            ApplicationId(1),
            NodeId(1),
            &req(&["spark"]),
            ExecutionKind::LongRunning,
        )
        .unwrap();
        let report = evaluate_constraint(&c, &cca);
        assert_eq!(report.subjects, 4);
        assert_eq!(report.violated, 4);
        // Extent per Eq. 8: each subject sees 3 others vs max 2 -> 1/2.
        assert!((report.total_extent - 4.0 * 0.5).abs() < 1e-9);
    }

    #[test]
    fn min_cardinality_violations() {
        let mut c = cluster();
        // "at least 3 spark per rack": 2 spark on rack 0 -> each subject
        // sees 1 other, below min 3 by 2 -> extent 2/3 each.
        let cmin = PlacementConstraint::new(
            "spark",
            "spark",
            Cardinality::at_least(3),
            NodeGroupId::rack(),
        );
        c.allocate(
            ApplicationId(1),
            NodeId(0),
            &req(&["spark"]),
            ExecutionKind::LongRunning,
        )
        .unwrap();
        c.allocate(
            ApplicationId(1),
            NodeId(1),
            &req(&["spark"]),
            ExecutionKind::LongRunning,
        )
        .unwrap();
        let report = evaluate_constraint(&c, &cmin);
        assert_eq!(report.violated, 2);
        assert!((report.total_extent - 2.0 * (2.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn dnf_any_conjunct_satisfies() {
        let mut c = cluster();
        let s = c
            .allocate(
                ApplicationId(1),
                NodeId(0),
                &req(&["w"]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        c.allocate(
            ApplicationId(2),
            NodeId(0),
            &req(&["cache"]),
            ExecutionKind::LongRunning,
        )
        .unwrap();
        // (affinity to db) OR (affinity to cache): cache present -> ok.
        let expr = TagConstraintExpr::any([
            vec![TagConstraint::new("db", Cardinality::affinity())],
            vec![TagConstraint::new("cache", Cardinality::affinity())],
        ]);
        let pc = PlacementConstraint::compound("w", expr, NodeGroupId::node());
        let check = check_container(&c, &pc, s).unwrap();
        assert!(check.satisfied);

        // Conjunction inside a conjunct: db AND cache both required -> the
        // missing db makes it violated, extent = 1 (db leaf).
        let expr = TagConstraintExpr::all([
            TagConstraint::new("db", Cardinality::affinity()),
            TagConstraint::new("cache", Cardinality::affinity()),
        ]);
        let pc = PlacementConstraint::compound("w", expr, NodeGroupId::node());
        let check = check_container(&c, &pc, s).unwrap();
        assert!(!check.satisfied);
        assert!((check.extent - 1.0).abs() < 1e-12);
    }

    #[test]
    fn violation_stats_counts_distinct_containers() {
        let mut c = cluster();
        // Two constraints both subject the same containers.
        for _ in 0..2 {
            c.allocate(
                ApplicationId(1),
                NodeId(2),
                &req(&["x"]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        }
        let c1 = PlacementConstraint::anti_affinity("x", "x", NodeGroupId::node());
        let c2 = PlacementConstraint::anti_affinity("x", "x", NodeGroupId::rack());
        let stats = violation_stats(&c, [&c1, &c2]);
        assert_eq!(stats.containers_checked, 2);
        assert_eq!(stats.containers_violating, 2);
        assert!((stats.violating_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_subjects_means_no_violations() {
        let c = cluster();
        let pc = PlacementConstraint::anti_affinity("ghost", "ghost", NodeGroupId::node());
        let report = evaluate_constraint(&c, &pc);
        assert_eq!(report.subjects, 0);
        assert_eq!(report.violated_fraction(), 0.0);
    }

    #[test]
    fn node_outside_group_is_violation() {
        let mut c = cluster();
        // Register a group covering only nodes 0-1; place subject on 3.
        c.register_group(NodeGroupId::new("zone"), vec![vec![NodeId(0), NodeId(1)]]);
        let s = c
            .allocate(
                ApplicationId(1),
                NodeId(3),
                &req(&["y"]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        let pc = PlacementConstraint::affinity("y", "y", NodeGroupId::new("zone"));
        let check = check_container(&c, &pc, s).unwrap();
        assert!(!check.satisfied);
        assert!((check.extent - 1.0).abs() < 1e-12);
    }
}
