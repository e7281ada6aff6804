//! Heuristic-based LRA scheduling (§5.3): tag popularity, node
//! candidates, and the unordered Serial baseline.
//!
//! All three share a greedy placement engine: containers are placed one at
//! a time on the feasible node with the best [`Scorer`] score (the same
//! objective model the ILP optimizes); they differ only in the *order* in
//! which containers are considered — which is exactly the comparison the
//! paper draws between them.
//!
//! The engine ([`Greedy`]) scores each (container class, node) pair once:
//! containers of one app with the same tags and demand share a class, a
//! class keeps one cached violation delta per node, and a placement
//! marks dirty only the cells it can have changed. Score and `Nc` are
//! both read off the cached delta and the node's live free resources, so
//! the outcome is the one a scan of every pair after every placement
//! gives (DESIGN.md §6; `tests/greedy_differential.rs` holds the scan).

use std::collections::HashMap;

use medea_cluster::{
    ApplicationId, ClusterState, ContainerRequest, ExecutionKind, NodeGroupId, NodeId, Scratch, Tag,
};
use medea_constraints::PlacementConstraint;

use crate::objective::{ObjectiveWeights, Relevant, Scorer, CLEAN_DELTA};
use crate::request::{LraPlacement, LraRequest, PlacementOutcome};

/// Container ordering strategy of the greedy engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ordering {
    /// §5.3 "tag popularity": place containers whose tags appear in the
    /// most constraints first — they are the hardest to place.
    TagPopularity,
    /// §5.3 "node candidates": place the container with the fewest
    /// constraint-satisfying candidate nodes (`Nc`) first, recomputing
    /// lazily after each placement.
    NodeCandidates,
    /// No ordering: containers are placed in submission order (the
    /// `Serial` baseline of §7.1).
    Submission,
}

/// A unit of greedy work: one container of one request.
struct Item {
    req_idx: usize,
    cont_idx: usize,
    class: usize,
}

/// Greedy heuristic LRA scheduler.
pub struct HeuristicScheduler {
    /// Container ordering strategy.
    pub ordering: Ordering,
    /// Objective weights for the shared scorer.
    pub weights: ObjectiveWeights,
}

impl HeuristicScheduler {
    /// Creates a scheduler with the given ordering.
    pub fn new(ordering: Ordering) -> Self {
        HeuristicScheduler {
            ordering,
            weights: ObjectiveWeights::default(),
        }
    }

    /// Places a batch of LRAs greedily on a copy of the state (the one
    /// copy; the engine itself works under a rollback guard).
    ///
    /// Like the ILP, the heuristics consider *multiple* container requests
    /// within a scheduling interval (unlike J-Kube): ordering is computed
    /// across the whole batch, and the working state accumulates tentative
    /// placements so later decisions see earlier ones.
    ///
    /// `allowed` restricts candidate hosts to a node list (a shard's
    /// nodes); `None` means all nodes. Scoring still sees the full cluster
    /// state — `γ` counts over groups remain globally correct.
    ///
    /// Callers must pass `allowed` in ascending node-id order: the greedy
    /// scan breaks score ties by keeping the first maximum, so scan order
    /// is part of the placement contract (sharded runs reproduce
    /// unsharded tie-breaks only because both scan ascending ids).
    pub fn place(
        &self,
        state: &ClusterState,
        requests: &[LraRequest],
        deployed_constraints: &[PlacementConstraint],
        allowed: Option<&[NodeId]>,
    ) -> Vec<PlacementOutcome> {
        self.place_counted(&mut state.clone(), requests, deployed_constraints, allowed)
            .0
    }

    /// [`HeuristicScheduler::place`] on the caller's state, which is left
    /// as found; also returns how many (class, node) cells the round
    /// scored (its probes).
    pub(crate) fn place_counted(
        &self,
        state: &mut ClusterState,
        requests: &[LraRequest],
        deployed_constraints: &[PlacementConstraint],
        allowed: Option<&[NodeId]>,
    ) -> (Vec<PlacementOutcome>, u64) {
        let mut constraints: Vec<PlacementConstraint> = deployed_constraints.to_vec();
        for r in requests {
            constraints.extend(r.constraints.iter().cloned());
        }
        let scorer = Scorer::new(self.weights, constraints);
        let mut engine = Greedy::new(&scorer, state, allowed);

        // Flatten items.
        let mut items: Vec<Item> = Vec::new();
        for (ri, r) in requests.iter().enumerate() {
            for (ci, c) in r.containers.iter().enumerate() {
                items.push(Item {
                    req_idx: ri,
                    cont_idx: ci,
                    class: engine.class_of(r.app, c),
                });
            }
        }

        if self.ordering == Ordering::TagPopularity {
            let popularity = tag_popularity(&scorer.constraints);
            items.sort_by_key(|it| {
                let p: i64 = engine
                    .tags(it.class)
                    .iter()
                    .map(|t| popularity.get(t).copied().unwrap_or(0) as i64)
                    .sum();
                -p
            });
        }

        let mut placements: Vec<Vec<Option<NodeId>>> = requests
            .iter()
            .map(|r| vec![None; r.containers.len()])
            .collect();
        if self.ordering == Ordering::NodeCandidates {
            // Node-candidates: repeatedly pick the unplaced item with the
            // smallest Nc. An item's recorded Nc is refreshed only when its
            // placement opportunities may have changed — approximated, per
            // §5.3, by items sharing any tag with the last placed container.
            let mut nc: Vec<usize> = items.iter().map(|it| engine.candidates(it.class)).collect();
            let mut remaining: Vec<usize> = (0..items.len()).collect();
            while let Some((pos, &idx)) = remaining.iter().enumerate().min_by_key(|(_, &i)| nc[i]) {
                remaining.swap_remove(pos);
                let it = &items[idx];
                let Some(node) = engine.place(it.class) else {
                    continue;
                };
                placements[it.req_idx][it.cont_idx] = Some(node);
                for &other in &remaining {
                    let class = items[other].class;
                    let placed_tags = engine.tags(it.class);
                    if engine.tags(class).iter().any(|t| placed_tags.contains(t)) {
                        nc[other] = engine.candidates(class);
                    }
                }
            }
        } else {
            for it in &items {
                placements[it.req_idx][it.cont_idx] = engine.place(it.class);
            }
        }

        // All-or-nothing per LRA: a partially placed app is unplaced.
        let outcomes = requests
            .iter()
            .zip(placements)
            .map(|(r, nodes)| match nodes.into_iter().collect() {
                Some(nodes) => PlacementOutcome::Placed(LraPlacement { app: r.app, nodes }),
                None => PlacementOutcome::Unplaced { app: r.app },
            })
            .collect();
        (outcomes, engine.probes)
    }
}

/// The containers of one app with the same tags and demand: they score
/// alike on every node, so they share one row of cached deltas.
struct Class<'a> {
    app: ApplicationId,
    request: &'a ContainerRequest,
    /// The constraints that can see the class, computed once per round.
    relevant: Relevant,
    /// Non-`node` groups those constraints range over: where a placement
    /// elsewhere than on a node can change the class's delta on it.
    groups: Vec<&'a NodeGroupId>,
}

/// The greedy engine: the state under a rollback guard plus, per class,
/// the violation delta of every node scored so far.
struct Greedy<'a> {
    scorer: &'a Scorer,
    work: Scratch<'a>,
    /// Candidate hosts in scan order.
    nodes: Vec<NodeId>,
    classes: Vec<Class<'a>>,
    /// `cells[class * num_nodes + node]`: the class's violation delta on
    /// the node, `None` while unscored or dirty.
    cells: Vec<Option<f64>>,
    /// Cells scored so far.
    probes: u64,
}

impl<'a> Greedy<'a> {
    fn new(scorer: &'a Scorer, state: &'a mut ClusterState, allowed: Option<&[NodeId]>) -> Self {
        Greedy {
            scorer,
            nodes: candidate_hosts(state, allowed),
            work: state.scratch(),
            classes: Vec::new(),
            cells: Vec::new(),
            probes: 0,
        }
    }

    /// The class of a container, created on first sight.
    fn class_of(&mut self, app: ApplicationId, request: &'a ContainerRequest) -> usize {
        let known = |c: &Class| c.app == app && c.request == request;
        if let Some(class) = self.classes.iter().position(known) {
            return class;
        }
        let scorer = self.scorer;
        let relevant = scorer.relevant(app, request);
        let mut groups: Vec<&NodeGroupId> = Vec::new();
        for ci in relevant.indices() {
            let group = &scorer.constraints[ci].group;
            if !group.is_node() && !groups.contains(&group) {
                groups.push(group);
            }
        }
        self.classes.push(Class {
            app,
            request,
            relevant,
            groups,
        });
        self.cells
            .resize(self.classes.len() * self.work.num_nodes(), None);
        self.classes.len() - 1
    }

    fn tags(&self, class: usize) -> &[Tag] {
        &self.classes[class].request.tags
    }

    /// The class's violation delta on a feasible node: cached, or scored
    /// now. A class no constraint can see is never scored.
    fn delta(&mut self, class: usize, node: NodeId) -> f64 {
        let cell = class * self.work.num_nodes() + node.index();
        if let Some(delta) = self.cells[cell] {
            return delta;
        }
        let c = &self.classes[class];
        let delta = if c.relevant.is_empty() {
            0.0
        } else {
            self.probes += 1;
            self.scorer
                .violation_delta_among(&self.work, c.request, node, &c.relevant)
        };
        self.cells[cell] = Some(delta);
        delta
    }

    /// Number of nodes on which a container of the class can be placed
    /// without any new violation (`Nc` of §5.3).
    fn candidates(&mut self, class: usize) -> usize {
        let request = self.classes[class].request;
        let mut count = 0;
        for i in 0..self.nodes.len() {
            let node = self.nodes[i];
            if self.scorer.is_feasible(&self.work, node, request)
                && self.delta(class, node) <= CLEAN_DELTA
            {
                count += 1;
            }
        }
        count
    }

    /// Places one container of the class on the best-scoring feasible
    /// node of the working state.
    fn place(&mut self, class: usize) -> Option<NodeId> {
        let (app, request) = (self.classes[class].app, self.classes[class].request);
        let mut best: Option<(NodeId, f64)> = None;
        for i in 0..self.nodes.len() {
            let node = self.nodes[i];
            if !self.scorer.is_feasible(&self.work, node, request) {
                continue;
            }
            let viol = self.delta(class, node);
            if let Some(s) = self
                .scorer
                .score_from_delta(&self.work, request, node, viol)
            {
                // total_cmp keeps the argmax well-defined for every score the
                // scorer can emit (scores are finite by contract, but a partial
                // comparison here would silently mis-order if that ever broke);
                // strict Greater keeps first-wins tie-breaking in scan order.
                if best.is_none_or(|(_, bs)| s.total_cmp(&bs) == std::cmp::Ordering::Greater) {
                    best = Some((node, s));
                }
            }
        }
        let (node, _) = best?;
        self.work
            .allocate(app, node, request, ExecutionKind::LongRunning)
            .ok()?;
        self.invalidate(node);
        Some(node)
    }

    /// Marks dirty every cell a container newly placed on `placed` can
    /// have changed. A constraint is evaluated on the sets of its group
    /// that contain the subject's node, so a class's delta on node `n`
    /// reads counts on `n` itself and, per non-`node` group its
    /// constraints name, on the members of the sets containing `n` — and,
    /// where a group's sets overlap, of the other sets containing those
    /// members (a subject there is judged on all its sets).
    fn invalidate(&mut self, placed: NodeId) {
        let num_nodes = self.work.num_nodes();
        let groups = self.work.groups();
        for (class, row) in self.classes.iter().zip(self.cells.chunks_mut(num_nodes)) {
            // A registered set may name nodes the cluster does not have.
            let mut dirty = |members: &[NodeId]| {
                for n in members {
                    if let Some(cell) = row.get_mut(n.index()) {
                        *cell = None;
                    }
                }
            };
            dirty(&[placed]);
            for &group in &class.groups {
                let sets = groups.sets_containing_ref(group, placed).unwrap_or(&[]);
                for &set in sets {
                    let members = groups.set_members_ref(group, set).unwrap_or(&[]);
                    dirty(members);
                    for &host in members {
                        let host_sets = groups.sets_containing_ref(group, host).unwrap_or(&[]);
                        for &other in host_sets.iter().filter(|s| !sets.contains(s)) {
                            dirty(groups.set_members_ref(group, other).unwrap_or(&[]));
                        }
                    }
                }
            }
        }
    }
}

/// Candidate hosts in scan order: `allowed` as given (ascending by
/// contract), or every node.
pub(crate) fn candidate_hosts(state: &ClusterState, allowed: Option<&[NodeId]>) -> Vec<NodeId> {
    match allowed {
        Some(a) => a.to_vec(),
        None => state.node_ids().collect(),
    }
}

/// Counts, per tag, how many constraints mention it (§5.3 tag popularity).
fn tag_popularity(constraints: &[PlacementConstraint]) -> HashMap<Tag, usize> {
    let mut pop: HashMap<Tag, usize> = HashMap::new();
    for c in constraints {
        for t in c.mentioned_tags() {
            *pop.entry(t).or_default() += 1;
        }
    }
    pop
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use medea_cluster::{ApplicationId, NodeGroupId, Resources};
    use medea_constraints::violation_stats;

    fn cluster(n: usize, racks: usize) -> ClusterState {
        ClusterState::homogeneous(n, Resources::new(16 * 1024, 16), racks)
    }

    fn commit(state: &mut ClusterState, reqs: &[LraRequest], outs: &[PlacementOutcome]) {
        for (r, o) in reqs.iter().zip(outs) {
            if let Some(pl) = o.placement() {
                for (c, &n) in r.containers.iter().zip(&pl.nodes) {
                    state
                        .allocate(r.app, n, c, medea_cluster::ExecutionKind::LongRunning)
                        .unwrap();
                }
            }
        }
    }

    #[test]
    fn all_orderings_place_simple_batch() {
        for ordering in [
            Ordering::Submission,
            Ordering::TagPopularity,
            Ordering::NodeCandidates,
        ] {
            let state = cluster(4, 2);
            let req = LraRequest::uniform(
                ApplicationId(1),
                4,
                Resources::new(2048, 1),
                vec![Tag::new("x")],
                vec![],
            );
            let out = HeuristicScheduler::new(ordering).place(&state, &[req], &[], None);
            assert!(out[0].placement().is_some(), "{ordering:?} failed to place");
        }
    }

    #[test]
    fn anti_affinity_respected_when_room() {
        let state = cluster(6, 2);
        let caa = PlacementConstraint::anti_affinity("w", "w", NodeGroupId::node());
        let req = LraRequest::uniform(
            ApplicationId(1),
            4,
            Resources::new(1024, 1),
            vec![Tag::new("w")],
            vec![caa.clone()],
        );
        let out = HeuristicScheduler::new(Ordering::NodeCandidates).place(
            &state,
            std::slice::from_ref(&req),
            &[],
            None,
        );
        let mut st = cluster(6, 2);
        commit(&mut st, &[req], &out);
        let stats = violation_stats(&st, [&caa]);
        assert_eq!(stats.containers_violating, 0);
    }

    #[test]
    fn all_or_nothing_rollback() {
        // 3 containers of 16 GB in a 2-node cluster: at most 2 fit, so the
        // heuristic must report Unplaced and leave no partial allocation.
        let state = cluster(2, 1);
        let req = LraRequest::uniform(
            ApplicationId(1),
            3,
            Resources::new(16 * 1024, 1),
            vec![Tag::new("big")],
            vec![],
        );
        let out = HeuristicScheduler::new(Ordering::Submission).place(&state, &[req], &[], None);
        assert!(matches!(out[0], PlacementOutcome::Unplaced { .. }));
    }

    #[test]
    fn tag_popularity_orders_constrained_first() {
        let constraints = vec![
            PlacementConstraint::anti_affinity("hot", "hot", NodeGroupId::node()),
            PlacementConstraint::affinity("hot", "cache", NodeGroupId::node()),
        ];
        let pop = tag_popularity(&constraints);
        assert_eq!(pop.get(&Tag::new("hot")), Some(&2));
        assert_eq!(pop.get(&Tag::new("cache")), Some(&1));
    }

    #[test]
    fn batch_awareness_satisfies_inter_app_affinity() {
        // Two LRAs submitted together; the second has affinity to the
        // first. Batch-aware greedy (unlike one-at-a-time J-Kube) places
        // the producer first (popularity) and then the consumer next to it.
        let state = cluster(6, 3);
        let caf = PlacementConstraint::affinity("consumer", "producer", NodeGroupId::rack());
        let producer = LraRequest::uniform(
            ApplicationId(1),
            2,
            Resources::new(1024, 1),
            vec![Tag::new("producer")],
            vec![],
        );
        let consumer = LraRequest::uniform(
            ApplicationId(2),
            2,
            Resources::new(1024, 1),
            vec![Tag::new("consumer")],
            vec![caf.clone()],
        );
        let reqs = [producer, consumer];
        let out = HeuristicScheduler::new(Ordering::TagPopularity).place(&state, &reqs, &[], None);
        let mut st = cluster(6, 3);
        commit(&mut st, &reqs, &out);
        let stats = violation_stats(&st, [&caf]);
        assert_eq!(
            stats.containers_violating, 0,
            "batch-aware heuristic should satisfy inter-app affinity"
        );
    }

    #[test]
    fn zero_capacity_node_scores_finite_and_loses() {
        // The 0/0 utilization-share class of NaN scores: a zero-capacity
        // node is feasible for a zero-demand container, and its balance
        // term divides by zero capacity. The scorer must produce a finite
        // score or None for it — a NaN score would poison the greedy
        // argmax (NaN neither wins nor loses a `>` comparison, so
        // whichever node is scanned first would stick) — and placement
        // must deterministically land on the real node.
        use medea_cluster::Node;
        let state = ClusterState::new(
            vec![
                Node::new(NodeId(0), Resources::new(0, 0)),
                Node::new(NodeId(1), Resources::new(16 * 1024, 16)),
            ],
            1,
        );
        let scorer = Scorer::new(ObjectiveWeights::default(), vec![]);
        let req_zero = ContainerRequest::new(Resources::new(0, 0), [Tag::new("z")]);
        for n in [NodeId(0), NodeId(1)] {
            if let Some(s) = scorer.score(&state, ApplicationId(7), &req_zero, n) {
                assert!(s.is_finite(), "score on {n:?} must never be NaN/inf");
            }
        }
        let req = LraRequest {
            app: ApplicationId(1),
            containers: vec![req_zero],
            constraints: vec![],
        };
        for ordering in [
            Ordering::Submission,
            Ordering::TagPopularity,
            Ordering::NodeCandidates,
        ] {
            let out = HeuristicScheduler::new(ordering).place(
                &state,
                std::slice::from_ref(&req),
                &[],
                None,
            );
            let pl = out[0].placement().unwrap();
            assert_eq!(pl.nodes, vec![NodeId(1)], "{ordering:?}");
        }
    }

    /// The §7.1 HBase instance: 8 region servers plus master, thrift and
    /// secondary, with the paper's four constraints.
    pub(crate) fn hbase(app: u64) -> LraRequest {
        use medea_constraints::{Cardinality, TagExpr};
        let app = ApplicationId(app);
        let role = |count: usize, memory_mb: u64, role: &str| {
            let tags = [Tag::new("hb"), Tag::new(role)];
            vec![ContainerRequest::new(Resources::new(memory_mb, 1), tags); count]
        };
        let scoped = |role: &str| TagExpr::and([Tag::new(role), Tag::app_id(app)]);
        let containers = [
            role(8, 2048, "hb_rs"),
            role(1, 1024, "hb_m"),
            role(1, 1024, "hb_thrift"),
            role(1, 1024, "hb_sec"),
        ]
        .concat();
        let constraints = vec![
            PlacementConstraint::affinity(scoped("hb_rs"), scoped("hb_rs"), NodeGroupId::rack()),
            PlacementConstraint::new(
                "hb_rs",
                "hb_rs",
                Cardinality::at_most(1),
                NodeGroupId::node(),
            ),
            PlacementConstraint::affinity(scoped("hb_m"), scoped("hb_thrift"), NodeGroupId::node()),
            PlacementConstraint::anti_affinity(
                scoped("hb_m"),
                scoped("hb_sec"),
                NodeGroupId::node(),
            ),
        ];
        LraRequest::new(app, containers, constraints)
    }

    /// Three [`hbase`] requests as tenants may list them: from app id
    /// `first_app` up, each one's containers and constraints shuffled by
    /// `seed` (`None` keeps [`hbase`]'s order).
    pub(crate) fn hbase3(first_app: u64, seed: Option<u64>) -> Vec<LraRequest> {
        use medea_rand::rngs::StdRng;
        use medea_rand::{RngExt, SeedableRng};
        (first_app..first_app + 3)
            .map(|app| {
                let mut r = hbase(app);
                if let Some(seed) = seed {
                    let mut rng = StdRng::seed_from_u64(seed ^ app);
                    rng.shuffle(&mut r.containers);
                    rng.shuffle(&mut r.constraints);
                }
                r
            })
            .collect()
    }

    /// Probes are a count, not a timing: a burst of three HBase instances
    /// on 500 nodes is 12 classes, so the round scores each (class, node)
    /// once plus what placements dirty — 297,000 when every container
    /// re-scored every node after every placement.
    #[test]
    fn probes_grow_with_classes_not_containers_squared() {
        let mut state = ClusterState::homogeneous(500, Resources::new(16 * 1024, 16), 12);
        let burst = [hbase(1), hbase(2), hbase(3)];
        let nc = HeuristicScheduler::new(Ordering::NodeCandidates);
        let (out, probes) = nc.place_counted(&mut state, &burst, &[], None);
        assert!(out.iter().all(|o| o.placement().is_some()));
        assert_eq!(probes, 9_084, "33 containers in 12 classes on 500 nodes");

        // A container no constraint can see is placed without scoring.
        let plain = LraRequest::uniform(
            ApplicationId(9),
            1,
            Resources::new(1024, 1),
            vec![Tag::new("plain")],
            vec![],
        );
        let (out, probes) = nc.place_counted(&mut state, &[plain], &burst[0].constraints, None);
        assert!(out[0].placement().is_some());
        assert_eq!(probes, 0);
    }

    #[test]
    fn place_on_restricts_candidate_hosts() {
        let state = cluster(6, 3);
        let req = LraRequest::uniform(
            ApplicationId(1),
            3,
            Resources::new(1024, 1),
            vec![Tag::new("s")],
            vec![],
        );
        let allowed = [NodeId(2), NodeId(3)];
        let out = HeuristicScheduler::new(Ordering::Submission).place(
            &state,
            &[req],
            &[],
            Some(&allowed),
        );
        let pl = out[0].placement().unwrap();
        assert!(pl.nodes.iter().all(|n| allowed.contains(n)));
    }

    #[test]
    fn deployed_constraints_steer_placement() {
        let mut state = cluster(4, 2);
        state
            .allocate(
                ApplicationId(9),
                NodeId(0),
                &ContainerRequest::new(Resources::new(1024, 1), [Tag::new("svc")]),
                medea_cluster::ExecutionKind::LongRunning,
            )
            .unwrap();
        let deployed = PlacementConstraint::anti_affinity("svc", "noisy", NodeGroupId::node());
        let req = LraRequest::uniform(
            ApplicationId(2),
            2,
            Resources::new(1024, 1),
            vec![Tag::new("noisy")],
            vec![],
        );
        let out =
            HeuristicScheduler::new(Ordering::Submission).place(&state, &[req], &[deployed], None);
        let pl = out[0].placement().unwrap();
        assert!(pl.nodes.iter().all(|&n| n != NodeId(0)));
    }
}
