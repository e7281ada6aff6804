//! Global-objective weights and the node-scoring function shared by all
//! greedy LRA schedulers.
//!
//! The ILP optimizes the Eq. 1 objective exactly; the heuristic schedulers
//! (§5.3) and the J-Kube baselines approximate it greedily with the same
//! per-placement score so that experimental comparisons isolate the
//! *algorithm* (ordering and lookahead) rather than the scoring model.

use medea_cluster::{
    Allocation, ApplicationId, ClusterState, ContainerRequest, NodeId, Resources, Tag,
};
use medea_constraints::{subject_extents, Arrival, PlacementConstraint};

/// Weights of the Eq. 1 objective components.
///
/// Defaults follow the evaluation setup (§7.1): `w1 = 1` (place as many
/// LRAs as possible), `w2 = 0.5` (minimize constraint violations),
/// `w3 = 0.25` (minimize resource fragmentation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectiveWeights {
    /// Weight of the placed-LRAs component.
    pub w1: f64,
    /// Weight of the constraint-violation component.
    pub w2: f64,
    /// Weight of the fragmentation component.
    pub w3: f64,
    /// Fragmentation threshold `rmin` (Eq. 5): a node left with fewer free
    /// resources than this (but not fully utilized) counts as fragmented.
    pub rmin: Resources,
}

impl Default for ObjectiveWeights {
    fn default() -> Self {
        ObjectiveWeights {
            w1: 1.0,
            w2: 0.5,
            w3: 0.25,
            rmin: Resources::new(2048, 1),
        }
    }
}

/// The tags a container of `app` carries once allocated: the request's
/// plus the automatic `appid:` tag.
pub(crate) fn effective_tags(app: ApplicationId, req: &ContainerRequest) -> Vec<Tag> {
    let mut tags = req.tags.clone();
    let auto = Tag::app_id(app);
    if !tags.contains(&auto) {
        tags.push(auto);
    }
    tags
}

/// Largest violation delta that still counts as "no new violation".
pub(crate) const CLEAN_DELTA: f64 = 1e-9;

/// What a [`Scorer`] needs to know about one container class — an app and
/// a tag list: its effective tags, and the sub-lists of the constraints it
/// can touch, as ascending indices into [`Scorer::constraints`], each
/// paired with the position in its sub-list of the first constraint equal
/// to it but for the weight. Built by [`Scorer::relevant`].
#[derive(Debug, Default)]
pub(crate) struct Relevant {
    /// The tags a container of the class carries once allocated: the
    /// request's plus the automatic `appid:`.
    tags: Vec<Tag>,
    /// Constraints the class is a subject of (matched on `tags`).
    own: Vec<(usize, usize)>,
    /// Constraints with a leaf target the class matches (on `tags`
    /// again): a new container of the class moves the counts their
    /// subjects see.
    targeted: Vec<(usize, usize)>,
}

/// What an existing subject's extents under a constraint read besides the
/// state, the constraint and the arrival: its sets, its tags and, where
/// the node itself matters (the `node` group, or γ cut by
/// `remove_node_tag`, which conjunction counts and the arrival node's
/// `hidden` walk read), its node. The new container's extents: `None`.
type Term<'s> = Option<(Option<&'s [usize]>, Option<NodeId>, &'s [Tag])>;

impl Relevant {
    /// No constraint can see a container of this class: its violation
    /// delta is zero on every node.
    pub(crate) fn is_empty(&self) -> bool {
        self.own.is_empty() && self.targeted.is_empty()
    }

    /// Every constraint index in either sub-list.
    pub(crate) fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.own.iter().chain(&self.targeted).map(|&(ci, _)| ci)
    }
}

/// Greedy node scorer over the active constraints.
///
/// Scoring a tentative `(container, node)` pair reads the state it is
/// handed and allocates nothing: the change in weighted violation extent
/// comes from one count per constraint leaf of every subject it can
/// reach, as the state stands and with the container there (see
/// [`subject_extents`]), plus the fragmentation and load terms. The
/// state is borrowed shared, so scoring leaves it as found.
#[derive(Debug)]
pub struct Scorer {
    /// Objective weights.
    pub weights: ObjectiveWeights,
    /// Active constraints (new apps + deployed apps + operator).
    pub constraints: Vec<PlacementConstraint>,
}

impl Scorer {
    /// Creates a scorer.
    pub fn new(weights: ObjectiveWeights, constraints: Vec<PlacementConstraint>) -> Self {
        Scorer {
            weights,
            constraints,
        }
    }

    /// Returns `true` if the request fits on the node right now.
    pub fn is_feasible(&self, state: &ClusterState, node: NodeId, req: &ContainerRequest) -> bool {
        state.is_available(node)
            && state
                .free(node)
                .map(|f| req.resources.fits_in(&f))
                .unwrap_or(false)
    }

    /// What scoring a container of `app` carrying `req`'s tags needs: its
    /// effective tags and the constraints it can touch. It depends on the
    /// app and the tags only, so a round computes it once per container
    /// class and scores every cell against it.
    pub(crate) fn relevant(&self, app: ApplicationId, req: &ContainerRequest) -> Relevant {
        let mut relevant = Relevant {
            tags: effective_tags(app, req),
            ..Relevant::default()
        };
        let cs = &self.constraints;
        let key = |ci: usize| (&cs[ci].subject, &cs[ci].expr, &cs[ci].group);
        let push = |list: &mut Vec<(usize, usize)>, ci: usize| {
            let first = list.iter().position(|&(f, _)| key(f) == key(ci));
            list.push((ci, first.unwrap_or(list.len())));
        };
        for (ci, c) in cs.iter().enumerate() {
            if c.subject.matches_tags(&relevant.tags) {
                push(&mut relevant.own, ci);
            }
            // When a new container of the class moves a count the
            // constraint's subjects see: it matches a leaf's whole target.
            if c.expr
                .leaves()
                .any(|l| l.target.matches_tags(&relevant.tags))
            {
                push(&mut relevant.targeted, ci);
            }
        }
        relevant
    }

    /// Computes the weighted violation extent *delta* caused by placing the
    /// container on the node, without allocating it; infinite when the
    /// node cannot host it.
    ///
    /// The delta accounts for (i) the placed container's own constraints
    /// and (ii) the effect of the new container on existing subjects in
    /// the node sets it joins.
    pub fn violation_delta(
        &self,
        state: &ClusterState,
        app: ApplicationId,
        req: &ContainerRequest,
        node: NodeId,
    ) -> f64 {
        if !self.is_feasible(state, node, req) {
            return f64::INFINITY;
        }
        self.violation_delta_among(state, node, &self.relevant(app, req))
            .0
    }

    /// [`Scorer::violation_delta`] on a node the caller found feasible,
    /// against a precomputed [`Scorer::relevant`] of the same `(app,
    /// req)`, and the terms it evaluated. It reads no capacity, so one
    /// cached delta can stand for nodes with different free resources.
    /// Both sub-lists are in constraint order, so every sum has the terms,
    /// in the order, a walk over all constraints would give it; a term
    /// equal to an earlier one (constraint and [`Term`]) is not evaluated.
    pub(crate) fn violation_delta_among<'s>(
        &self,
        state: &'s ClusterState,
        node: NodeId,
        relevant: &Relevant,
    ) -> (f64, u64) {
        let arrival = Arrival {
            node,
            tags: &relevant.tags,
        };
        let groups = state.groups();
        let mut memo: Vec<(usize, Term<'s>, (f64, f64))> = Vec::new();
        let mut extents = |ci: usize, first: usize, subject: Option<&'s Allocation>| {
            let c = &self.constraints[ci];
            let term = subject.map(|a| {
                let alone = c.group.is_node() || state.tags_removed(a.node);
                let sets = groups.sets_containing_ref(&c.group, a.node);
                (sets, alone.then_some(a.node), &a.tags[..])
            });
            if let Some(&(.., extents)) = memo.iter().find(|m| (m.0, m.1) == (first, term)) {
                return extents;
            }
            let extents = subject_extents(state, c, subject.map(|a| a.id), Some(arrival));
            memo.push((first, term, extents.unwrap_or((0.0, 0.0))));
            extents.unwrap_or((0.0, 0.0))
        };
        // The new container's own constraint extents plus the deltas it
        // induces on previously placed subjects, each summed separately.
        let own: f64 = relevant
            .own
            .iter()
            .map(|&(ci, first)| extents(ci, first, None).1 * self.constraints[ci].weight)
            .sum();
        let mut subjects: Vec<Vec<&Allocation>> = Vec::new();
        let (mut before, mut after) = (-0.0, -0.0);
        for (at, &(ci, first)) in relevant.targeted.iter().enumerate() {
            let c = &self.constraints[ci];
            let listed = (at == first).then(|| self.affected_subjects(state, node, c));
            subjects.push(listed.unwrap_or_default());
            for &a in &subjects[first] {
                let (b, x) = extents(ci, first, Some(a));
                (before, after) = (before + b * c.weight, after + x * c.weight);
            }
        }
        (own + (after - before), memo.len() as u64)
    }

    /// Scores placing `req` on `node`; higher is better; `None` when the
    /// node is infeasible (capacity or availability).
    pub fn score(
        &self,
        state: &ClusterState,
        app: ApplicationId,
        req: &ContainerRequest,
        node: NodeId,
    ) -> Option<f64> {
        if !self.is_feasible(state, node, req) {
            return None;
        }
        let viol = self.violation_delta(state, app, req, node);
        self.score_from_delta(state, req, node, viol)
    }

    /// The score of a feasible `(req, node)` pair whose violation delta is
    /// `viol`: the part of [`Scorer::score`] that reads the node's live
    /// free resources, so a cached delta is scored against today's node.
    pub(crate) fn score_from_delta(
        &self,
        state: &ClusterState,
        req: &ContainerRequest,
        node: NodeId,
        viol: f64,
    ) -> Option<f64> {
        if !viol.is_finite() {
            return None;
        }
        let frag = self.fragmentation_delta(state, node, req.resources);
        // Balance term: prefer less-utilized nodes (coefficient chosen so
        // that violations dominate, then fragmentation, then balance).
        let util_after = {
            let cap = state.node(node).ok()?.capacity;
            let free_after = state.free(node).ok()?.saturating_sub(&req.resources);
            1.0 - free_after.memory_share(&cap)
        };
        let score = -self.weights.w2 * viol - self.weights.w3 * frag - 0.01 * util_after;
        // `util_after` is NaN on a zero-capacity node (0/0 memory share),
        // which the `viol` finiteness check above does not cover. A NaN
        // score is unusable for argmax comparisons, so treat such a node
        // as unscoreable rather than letting NaN poison the comparison.
        score.is_finite().then_some(score)
    }

    /// Returns `true` if placing the container on the node introduces no
    /// new violation at all (used by the node-candidates heuristic to
    /// compute `Nc`).
    pub fn is_violation_free(
        &self,
        state: &ClusterState,
        app: ApplicationId,
        req: &ContainerRequest,
        node: NodeId,
    ) -> bool {
        if !self.is_feasible(state, node, req) {
            return false;
        }
        self.violation_delta(state, app, req, node) <= CLEAN_DELTA
    }

    /// Fragmentation delta of Eq. 5: +1 if the node becomes fragmented by
    /// this placement, 0 otherwise (it can never be un-fragmented by
    /// adding a container).
    fn fragmentation_delta(&self, state: &ClusterState, node: NodeId, demand: Resources) -> f64 {
        let Ok(free) = state.free(node) else {
            return 0.0;
        };
        let before_frag = !self.weights.rmin.fits_in(&free) && !free.is_zero();
        let after = free.saturating_sub(&demand);
        let after_frag = !self.weights.rmin.fits_in(&after) && !after.is_zero();
        (after_frag as i32 - before_frag as i32) as f64
    }

    /// Existing subjects of `c` whose status can change when a container
    /// the constraint targets lands on `node`: its subject containers in
    /// any set of its group containing `node`, by container id.
    fn affected_subjects<'s>(
        &self,
        state: &'s ClusterState,
        node: NodeId,
        c: &PlacementConstraint,
    ) -> Vec<&'s Allocation> {
        let groups = state.groups();
        let hosts = if c.group.is_node() {
            // Singleton sets: only containers on `node` itself share one.
            vec![node]
        } else {
            let Some(node_sets) = groups.sets_containing_ref(&c.group, node) else {
                return Vec::new();
            };
            // Seed candidate hosts from the tag index: a node hosting a
            // matching subject carries all the subject's tags, so the
            // postings intersection (every node for a catch-all
            // subject) is a superset of the hosts.
            let mut hosts = state.nodes_with_all_tags(c.subject.tags());
            hosts.retain(|&host| {
                let sets = groups.sets_containing_ref(&c.group, host);
                sets.is_some_and(|sets| sets.iter().any(|s| node_sets.contains(s)))
            });
            hosts
        };
        let mut out: Vec<&Allocation> = hosts
            .into_iter()
            .flat_map(|host| state.containers_on(host).unwrap_or(&[]))
            .filter_map(|&cid| state.allocation(cid).ok())
            .filter(|a| c.subject.matches_allocation(a))
            .collect();
        out.sort_by_key(|a| a.id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_cluster::{ExecutionKind, NodeGroupId, Tag};
    use medea_constraints::Cardinality;

    fn req(tags: &[&str]) -> ContainerRequest {
        ContainerRequest::new(Resources::new(1024, 1), tags.iter().map(|t| Tag::new(*t)))
    }

    fn cluster() -> ClusterState {
        ClusterState::homogeneous(4, Resources::new(8192, 8), 2)
    }

    #[test]
    fn default_weights_match_paper() {
        let w = ObjectiveWeights::default();
        assert_eq!((w.w1, w.w2, w.w3), (1.0, 0.5, 0.25));
    }

    #[test]
    fn feasibility_checks_capacity_and_availability() {
        let mut state = cluster();
        let s = Scorer::new(ObjectiveWeights::default(), vec![]);
        assert!(s.is_feasible(&state, NodeId(0), &req(&[])));
        state.set_available(NodeId(0), false).unwrap();
        assert!(!s.is_feasible(&state, NodeId(0), &req(&[])));
        let huge = ContainerRequest::new(Resources::new(10_000, 1), []);
        assert!(!s.is_feasible(&state, NodeId(1), &huge));
    }

    #[test]
    fn own_violation_is_charged() {
        let mut state = cluster();
        // Existing hb container on node 0; anti-affinity hb-hb at node level.
        state
            .allocate(
                ApplicationId(1),
                NodeId(0),
                &req(&["hb"]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        let scorer = Scorer::new(
            ObjectiveWeights::default(),
            vec![PlacementConstraint::anti_affinity(
                "hb",
                "hb",
                NodeGroupId::node(),
            )],
        );
        let bad = scorer.violation_delta(&state, ApplicationId(2), &req(&["hb"]), NodeId(0));
        let good = scorer.violation_delta(&state, ApplicationId(2), &req(&["hb"]), NodeId(1));
        // Placing next to the existing hb violates both the new container's
        // constraint and the existing one's.
        assert!(bad > good);
        assert!(good.abs() < 1e-9);
        assert!(bad >= 2.0 - 1e-9);
    }

    #[test]
    fn effect_on_existing_subjects_is_charged() {
        let mut state = cluster();
        // Existing "srv" subject with anti-affinity against "noisy".
        state
            .allocate(
                ApplicationId(1),
                NodeId(0),
                &req(&["srv"]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        let scorer = Scorer::new(
            ObjectiveWeights::default(),
            vec![PlacementConstraint::anti_affinity(
                "srv",
                "noisy",
                NodeGroupId::node(),
            )],
        );
        // The new container is not a subject, but it is a target that
        // breaks the existing subject's constraint.
        let delta = scorer.violation_delta(&state, ApplicationId(2), &req(&["noisy"]), NodeId(0));
        assert!(delta > 0.5);
        let elsewhere =
            scorer.violation_delta(&state, ApplicationId(2), &req(&["noisy"]), NodeId(1));
        assert!(elsewhere.abs() < 1e-9);
    }

    #[test]
    fn app_scoped_target_is_charged_to_existing_subjects() {
        // §4.1 app-level anti-affinity: `srv` wants no container of app 7
        // beside it. The new container carries `appid:7` only as the
        // automatic tag, which the request's own tag list does not hold.
        let mut state = cluster();
        state
            .allocate(
                ApplicationId(1),
                NodeId(0),
                &req(&["srv"]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        let scorer = Scorer::new(
            ObjectiveWeights::default(),
            vec![PlacementConstraint::anti_affinity(
                "srv",
                Tag::app_id(ApplicationId(7)),
                NodeGroupId::node(),
            )],
        );
        let beside = scorer.violation_delta(&state, ApplicationId(7), &req(&["x"]), NodeId(0));
        assert!((beside - 1.0).abs() < 1e-9, "delta {beside}");
        for (app, node) in [(7, NodeId(1)), (8, NodeId(0))] {
            let d = scorer.violation_delta(&state, ApplicationId(app), &req(&["x"]), node);
            assert!(d.abs() < 1e-9, "app {app} on {node:?}: {d}");
        }
    }

    #[test]
    fn score_prefers_constraint_satisfying_nodes() {
        let mut state = cluster();
        state
            .allocate(
                ApplicationId(1),
                NodeId(0),
                &req(&["cache"]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        let scorer = Scorer::new(
            ObjectiveWeights::default(),
            vec![PlacementConstraint::affinity(
                "web",
                "cache",
                NodeGroupId::node(),
            )],
        );
        let collocated = scorer
            .score(&state, ApplicationId(2), &req(&["web"]), NodeId(0))
            .unwrap();
        let separated = scorer
            .score(&state, ApplicationId(2), &req(&["web"]), NodeId(3))
            .unwrap();
        assert!(collocated > separated);
    }

    #[test]
    fn cardinality_limits_reflected_in_nc() {
        let mut state = cluster();
        let scorer = Scorer::new(
            ObjectiveWeights::default(),
            vec![PlacementConstraint::new(
                "w",
                "w",
                Cardinality::at_most(1),
                NodeGroupId::node(),
            )],
        );
        // Two "w" on node 0: each sees one other -> at_most(1) holds; node
        // 0 is violation-free for the first two, then stops being so.
        assert!(scorer.is_violation_free(&state, ApplicationId(1), &req(&["w"]), NodeId(0)));
        state
            .allocate(
                ApplicationId(1),
                NodeId(0),
                &req(&["w"]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        assert!(scorer.is_violation_free(&state, ApplicationId(1), &req(&["w"]), NodeId(0)));
        state
            .allocate(
                ApplicationId(1),
                NodeId(0),
                &req(&["w"]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        assert!(!scorer.is_violation_free(&state, ApplicationId(1), &req(&["w"]), NodeId(0)));
        assert!(scorer.is_violation_free(&state, ApplicationId(1), &req(&["w"]), NodeId(1)));
    }

    #[test]
    fn fragmentation_penalty_applies() {
        let state = ClusterState::homogeneous(2, Resources::new(4096, 8), 1);
        let scorer = Scorer::new(ObjectiveWeights::default(), vec![]);
        // A 3 GB container leaves 1 GB < rmin free: fragmentation delta 1.
        let big = ContainerRequest::new(Resources::new(3072, 1), []);
        let small = ContainerRequest::new(Resources::new(1024, 1), []);
        let s_big = scorer
            .score(&state, ApplicationId(1), &big, NodeId(0))
            .unwrap();
        let s_small = scorer
            .score(&state, ApplicationId(1), &small, NodeId(0))
            .unwrap();
        assert!(s_small > s_big);
    }
}
