//! Heuristic-based LRA scheduling (§5.3): tag popularity, node
//! candidates, and the unordered Serial baseline.
//!
//! All three share a greedy placement engine: containers are placed one at
//! a time on the feasible node with the best [`Scorer`] score (the same
//! objective model the ILP optimizes); they differ only in the *order* in
//! which containers are considered — which is exactly the comparison the
//! paper draws between them.
//!
//! The engine ([`Greedy`]) scores each (class, node signature) once:
//! containers of one app with the same tags and demand share a class,
//! nodes that score alike for it share one cached violation delta, and a
//! placement dirties a class's cells only through the constraints that
//! see it, in the sets it joins. Score and `Nc` read the cached deltas,
//! the score with the node's live free room, `Nc` with each cell's count
//! of hosts with room, so the outcome is the one a scan of every pair
//! after every placement gives (DESIGN.md §6).

use std::collections::HashMap;

use medea_cluster::{
    ApplicationId, ClusterState, ContainerId, ContainerRequest, ExecutionKind, NodeGroupId, NodeId,
    Resources, Scratch, Tag,
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

    /// [`HeuristicScheduler::place`] that hands `audit`, after every
    /// placement, the working state and each cached violation delta with a
    /// host of its cell that a container of the class fits on: the class's
    /// app and request, the host, the delta. A test hook: each must be
    /// [`Scorer::violation_delta`] on that state, bit for bit.
    #[doc(hidden)]
    pub fn place_audited(
        &self,
        state: &ClusterState,
        requests: &[LraRequest],
        deployed: &[PlacementConstraint],
        allowed: Option<&[NodeId]>,
        mut audit: impl FnMut(&ClusterState, ApplicationId, &ContainerRequest, NodeId, f64),
    ) -> Vec<PlacementOutcome> {
        let audit = |g: &Greedy| {
            for c in &g.classes {
                for &n in &g.nodes {
                    let cell = c.cells[c.cell_of.get(n.index()).map_or(0, |&i| i as usize)];
                    let fits = g.scorer.is_feasible(&g.work, n, c.request);
                    if let Some(delta) = cell.delta.filter(|_| fits) {
                        audit(&g.work, c.app, c.request, n, delta);
                    }
                }
            }
        };
        self.run(&mut state.clone(), requests, deployed, allowed, audit)
            .0
    }

    /// [`HeuristicScheduler::place`] on the caller's state, which is left
    /// as found; also returns the round's [`Effort`].
    pub(crate) fn place_counted(
        &self,
        state: &mut ClusterState,
        requests: &[LraRequest],
        deployed_constraints: &[PlacementConstraint],
        allowed: Option<&[NodeId]>,
    ) -> (Vec<PlacementOutcome>, Effort) {
        self.run(state, requests, deployed_constraints, allowed, |_| {})
    }

    /// [`HeuristicScheduler::place_counted`], showing `audit` the engine
    /// after every placement.
    fn run(
        &self,
        state: &mut ClusterState,
        requests: &[LraRequest],
        deployed_constraints: &[PlacementConstraint],
        allowed: Option<&[NodeId]>,
        mut audit: impl FnMut(&Greedy),
    ) -> (Vec<PlacementOutcome>, Effort) {
        let mut constraints = deployed_constraints.to_vec();
        constraints.extend(requests.iter().flat_map(|r| r.constraints.iter().cloned()));
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
            let mentions = |t: &Tag| popularity.get(t).map_or(0, |&p| p as i64);
            items.sort_by_key(|it| -engine.tags(it.class).iter().map(mentions).sum::<i64>());
        }

        let mut placements =
            Vec::from_iter(requests.iter().map(|r| vec![None; r.containers.len()]));
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
                audit(&engine);
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
                audit(&engine);
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
        (outcomes, engine.effort)
    }
}

/// A round's counts: cells scored, cells `Nc` visited, terms evaluated.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Effort {
    pub(crate) probes: u64,
    pub(crate) nc_visits: u64,
    pub(crate) terms: u64,
}

/// The containers of one app with the same tags and demand: they score
/// alike on every node, so they share one row of cached deltas.
struct Class<'a> {
    app: ApplicationId,
    request: &'a ContainerRequest,
    /// The constraints that can see the class, computed once per round.
    relevant: Relevant,
    /// Tags those constraints mention; `None` if one has a catch-all
    /// subject or leaf target (it counts every container): no node is plain.
    mentioned: Option<Vec<Tag>>,
    /// `cells[cell_of[node]]`: a candidate host's cell. The plain nodes of a
    /// signature share one, the first cells (their hosts in `hosts`); a
    /// class no constraint sees has no map and one cell.
    cell_of: Vec<u32>,
    cells: Vec<Cell>,
    hosts: Vec<Vec<NodeId>>,
    /// `Nc` as the state stands, `None` once a placement may have moved it.
    candidates: Option<usize>,
}

/// Candidate hosts that score alike for a class: their violation delta
/// (`None` while unscored or dirty), how many of them a container of the
/// class fits on now, and one of them to score the cell by.
#[derive(Clone, Copy)]
struct Cell {
    delta: Option<f64>,
    feasible: u32,
    member: NodeId,
}

impl Cell {
    fn of(member: NodeId, delta: Option<f64>) -> Cell {
        let feasible = 0;
        Cell {
            delta,
            feasible,
            member,
        }
    }
}

/// The greedy engine: the state under a rollback guard plus, per class,
/// the violation delta of every node signature scored so far.
struct Greedy<'a> {
    scorer: &'a Scorer,
    work: Scratch<'a>,
    /// Candidate hosts in scan order.
    nodes: Vec<NodeId>,
    classes: Vec<Class<'a>>,
    /// Per group list: each host's signature (`u32::MAX` off the hosts), count.
    signatures: HashMap<Vec<&'a NodeGroupId>, (Vec<u32>, u32)>,
    effort: Effort,
}

impl<'a> Greedy<'a> {
    fn new(scorer: &'a Scorer, state: &'a mut ClusterState, allowed: Option<&[NodeId]>) -> Self {
        Greedy {
            scorer,
            nodes: candidate_hosts(state, allowed),
            work: state.scratch(),
            classes: Vec::new(),
            signatures: HashMap::new(),
            effort: Effort::default(),
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
        let mut mentioned = Some(Vec::new());
        for ci in relevant.indices() {
            let c = &scorer.constraints[ci];
            if !c.group.is_node() && !groups.contains(&&c.group) {
                groups.push(&c.group);
            }
            let catch_all = c.subject.is_empty() || c.expr.leaves().any(|l| l.target.is_empty());
            match &mut mentioned {
                Some(tags) if !catch_all => tags.extend(c.mentioned_tags()),
                _ => mentioned = None,
            }
        }
        let (cell_of, count, shared) = match relevant.is_empty() {
            true => (Vec::new(), 1, 0),
            false => self.cells(&groups, mentioned.as_deref()),
        };
        let mut cells = Vec::from_iter((0..count).map(|_| Cell::of(NodeId(0), None)));
        let mut hosts = vec![Vec::new(); shared as usize];
        for &n in &self.nodes {
            let at = cell_of.get(n.index()).map_or(0, |&c| c as usize);
            if let Some(hosts) = hosts.get_mut(at) {
                hosts.push(n);
            }
            cells[at].member = n;
            cells[at].feasible += u32::from(self.scorer.is_feasible(&self.work, n, request));
        }
        self.classes.push(Class {
            app,
            request,
            relevant,
            mentioned,
            cell_of,
            cells,
            hosts,
            candidates: None,
        });
        self.classes.len() - 1
    }

    /// A class's `cell_of`, cell count and signature count: plain nodes (no
    /// mentioned tag, so the postings list the others, and γ never cut by
    /// `remove_node_tag`) in the same sets of `groups` share a cell.
    fn cells(&mut self, groups: &[&'a NodeGroupId], tags: Option<&[Tag]>) -> (Vec<u32>, u32, u32) {
        let (work, nodes, sets) = (&self.work, &self.nodes, self.work.groups());
        // Signatures depend on the group list only: once per distinct list.
        let signature = self.signatures.entry(groups.to_vec()).or_insert_with(|| {
            let mut ids = HashMap::new();
            let mut sig = vec![u32::MAX; work.num_nodes()];
            for &n in nodes {
                let key = Vec::from_iter(groups.iter().map(|g| sets.sets_containing_ref(g, n)));
                let (next, alone) = (ids.len() as u32, work.tags_removed(n).then_some(n));
                sig[n.index()] = *ids.entry((alone, key)).or_insert(next);
            }
            (sig, ids.len() as u32)
        });
        let (mut cell_of, shared) = signature.clone();
        let alone: Vec<NodeId> = match tags {
            Some(tags) => tags.iter().flat_map(|t| work.nodes_with_tag(t)).collect(),
            None => nodes.clone(),
        };
        let mut next = shared;
        for n in alone {
            if let Some(cell) = cell_of.get_mut(n.index()).filter(|c| **c < shared) {
                *cell = next;
                next += 1;
            }
        }
        (cell_of, next, shared)
    }

    fn tags(&self, class: usize) -> &[Tag] {
        &self.classes[class].request.tags
    }

    /// The class's violation delta on a candidate host: cached, or scored
    /// now. A class no constraint can see is never scored.
    fn delta(&mut self, class: usize, node: NodeId) -> f64 {
        let c = &mut self.classes[class];
        if c.relevant.is_empty() {
            return 0.0;
        }
        let cell = &mut c.cells[c.cell_of[node.index()] as usize];
        if let Some(delta) = cell.delta {
            return delta;
        }
        let (d, terms) = Scorer::violation_delta_among(self.scorer, &self.work, node, &c.relevant);
        self.effort.probes += 1;
        self.effort.terms += terms;
        cell.delta = Some(d);
        d
    }

    /// Number of nodes on which a container of the class can be placed
    /// without any new violation (`Nc` of §5.3): the feasible hosts of its
    /// clean cells. As in a host scan, a cell with none is not scored.
    fn candidates(&mut self, class: usize) -> usize {
        if let Some(count) = self.classes[class].candidates {
            return count;
        }
        let mut count = 0;
        for cell in 0..self.classes[class].cells.len() {
            self.effort.nc_visits += 1;
            let Cell {
                feasible, member, ..
            } = self.classes[class].cells[cell];
            if feasible > 0 && self.delta(class, member) <= CLEAN_DELTA {
                count += feasible as usize;
            }
        }
        self.classes[class].candidates = Some(count);
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
        let (kind, room) = (ExecutionKind::LongRunning, self.work.free(node).ok()?);
        let id = self.work.allocate(app, node, request, kind).ok()?;
        self.invalidate(node, id, room);
        Some(node)
    }

    /// Marks dirty every cell a container newly placed on `placed` can
    /// have changed: only constraints that *see* it (it matches their
    /// subject or a leaf target) can. One is evaluated on the sets of its
    /// group containing the subject's node, so a class's delta on `n`
    /// moves if `n` is `placed` or, per non-`node` group of those, in a
    /// set with `placed` — or, where sets overlap, in another set of a
    /// member of one (a subject is judged on all its sets). `placed` had
    /// `room` free before: it is the one host whose fit can have changed.
    fn invalidate(&mut self, placed: NodeId, id: ContainerId, room: Resources) {
        let (work, groups, cs) = (&self.work, self.work.groups(), &self.scorer.constraints);
        let tags = work.allocation(id).map_or(&[][..], |a| &a.tags[..]);
        let sees = |&ci: &usize| {
            let c = &cs[ci];
            c.subject.matches_tags(tags) || c.expr.leaves().any(|l| l.target.matches_tags(tags))
        };
        for class in &mut self.classes {
            class.candidates = None;
            let (cell_of, cells) = (&mut class.cell_of, &mut class.cells);
            let at = cell_of.get(placed.index()).map_or(0, |&c| c as usize);
            cells[at].feasible -= u32::from(class.request.resources.fits_in(&room));
            // Carrying a mentioned tag, `placed` leaves its signature, if it
            // is in one, and scores alone from now on, from the delta it had.
            let mut mentioned = class.mentioned.iter().flatten();
            let signature = class.hosts.get(at);
            if let Some(rest) = signature.filter(|_| mentioned.any(|t| tags.contains(t))) {
                cell_of[placed.index()] = cells.len() as u32;
                cells.push(Cell::of(placed, cells[at].delta));
                // The signature keeps a member it still has.
                let mut rest = rest.iter().rev();
                if let Some(&n) = rest.find(|n| cell_of[n.index()] as usize == at) {
                    cells[at].member = n;
                }
            }
            let now = cell_of.get(placed.index()).map_or(0, |&c| c as usize);
            cells[now].feasible += u32::from(self.scorer.is_feasible(work, placed, class.request));
            let seen = Vec::from_iter(class.relevant.indices().filter(sees).map(|c| &cs[c].group));
            if seen.is_empty() {
                continue;
            }
            // A registered set may name nodes the cluster does not have.
            let mut dirty = |members: &[NodeId]| {
                for n in members {
                    let cell = cell_of.get(n.index()).map(|&c| c as usize);
                    if let Some(cell) = cell.and_then(|c| cells.get_mut(c)) {
                        cell.delta = None;
                    }
                }
            };
            dirty(&[placed]);
            for (i, &group) in seen.iter().enumerate() {
                if group.is_node() || seen[..i].contains(&group) {
                    continue;
                }
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

    /// [`Effort::nc_visits`] and [`Effort::terms`] of the burst of three
    /// [`hbase`] instances on an empty cluster of 12 racks.
    const NC_VISITS: u64 = 3_008;
    const TERMS: u64 = 1_305;

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

    /// Probes are a count, not a timing. A burst of three HBase instances
    /// is 12 classes; on an empty cluster of 12 racks a class tells apart
    /// only its racks (or nothing), plus the nodes its placements tag, so
    /// the round scores the same cells on 500 nodes as on 5,000. Scoring
    /// every (class, node) once plus what placements dirty was 9,084 on
    /// 500 nodes; every container after every placement, 297,000.
    #[test]
    fn probes_grow_with_node_signatures_not_nodes() {
        let burst = [hbase(1), hbase(2), hbase(3)];
        let nc = HeuristicScheduler::new(Ordering::NodeCandidates);
        let probes_at = |nodes: usize| {
            let mut state = ClusterState::homogeneous(nodes, Resources::new(16 * 1024, 16), 12);
            let (out, Effort { probes, .. }) = nc.place_counted(&mut state, &burst, &[], None);
            assert!(out.iter().all(|o| o.placement().is_some()));
            (state, probes)
        };
        let (mut state, probes) = probes_at(500);
        assert_eq!(probes, 367, "33 containers in 12 classes on 500 nodes");
        assert!(probes <= 9_084 / 4);
        assert_eq!(probes_at(5_000).1, probes, "the same burst on 5,000 nodes");

        // Eight 8-container apps spread by node anti-affinity on their
        // own tag: every unplaced node of an app is one signature.
        let spread: Vec<LraRequest> = (1..=8)
            .map(|app| {
                let tag = format!("lra{app}");
                let caa = PlacementConstraint::anti_affinity(&*tag, &*tag, NodeGroupId::node());
                let resources = Resources::new(512, 1);
                LraRequest::uniform(
                    ApplicationId(app),
                    8,
                    resources,
                    vec![Tag::new(tag)],
                    vec![caa],
                )
            })
            .collect();
        let mut wide = ClusterState::homogeneous(1_250, Resources::new(16 * 1024, 16), 32);
        let (out, Effort { probes, .. }) = nc.place_counted(&mut wide, &spread, &[], None);
        assert!(out.iter().all(|o| o.placement().is_some()));
        assert_eq!(probes, 64, "cells for 64 spread containers");

        // A container no constraint can see is placed without scoring.
        let plain = LraRequest::uniform(
            ApplicationId(9),
            1,
            Resources::new(1024, 1),
            vec![Tag::new("plain")],
            vec![],
        );
        let (out, Effort { probes, .. }) =
            nc.place_counted(&mut state, &[plain], &burst[0].constraints, None);
        assert!(out[0].placement().is_some());
        assert_eq!(probes, 0);
    }

    /// `Nc` refreshes and scoring are counts as well: the burst above
    /// visits the same cells and evaluates the same terms on 500 nodes as
    /// on 5,000 in 12 racks. A refresh walked every host before (133,500
    /// visits a round on 500 nodes), and every subject of every listed
    /// constraint was evaluated apart.
    #[test]
    fn nc_visits_and_terms_grow_with_cells_not_nodes() {
        let burst = [hbase(1), hbase(2), hbase(3)];
        let nc = HeuristicScheduler::new(Ordering::NodeCandidates);
        let effort_at = |nodes: usize| {
            let mut state = ClusterState::homogeneous(nodes, Resources::new(16 * 1024, 16), 12);
            nc.place_counted(&mut state, &burst, &[], None).1
        };
        let effort = effort_at(500);
        assert_eq!(effort.nc_visits, NC_VISITS, "{effort:?}");
        assert_eq!(effort.terms, TERMS, "{effort:?}");
        assert_eq!(effort_at(5_000), effort, "the same burst on 5,000 nodes");
    }

    /// A refresh visits at most the class's cells, and `Nc` read off the
    /// cells equals a scan of every host with a fresh delta (the §5.3
    /// count), before the burst and after each of its placements.
    #[test]
    fn nc_refresh_visits_cells_and_matches_a_host_scan() {
        let burst = [hbase(1), hbase(2), hbase(3)];
        let constraints = burst.iter().flat_map(|r| r.constraints.clone()).collect();
        let scorer = Scorer::new(ObjectiveWeights::default(), constraints);
        let mut state = cluster(96, 12);
        let mut engine = Greedy::new(&scorer, &mut state, None);
        let mut items = Vec::new();
        for r in &burst {
            items.extend(
                r.containers
                    .iter()
                    .map(|c| (r.app, c, engine.class_of(r.app, c))),
            );
        }
        for &(_, _, class) in &items {
            for &(app, request, other) in &items {
                let before = engine.effort.nc_visits;
                let count = engine.candidates(other);
                let visited = engine.effort.nc_visits - before;
                assert!(visited <= engine.classes[other].cells.len() as u64);
                let free = |n: &&NodeId| scorer.is_violation_free(&engine.work, app, request, **n);
                assert_eq!(count, engine.nodes.iter().filter(free).count());
            }
            assert!(engine.place(class).is_some());
        }
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
