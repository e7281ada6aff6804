//! The LRA scheduler: algorithm selection and dispatch (§5), and the
//! served arm's validation.

use std::fmt;
use std::time::Instant;

use medea_cluster::{ClusterState, ContainerId, NodeId, Tag};
use medea_constraints::{check_container, PlacementConstraint, TagConstraint};
use medea_obs::MetricsRegistry;

use crate::heuristics::{HeuristicScheduler, Ordering};
use crate::ilp::{self, IlpConfig};
use crate::jkube::JKubeScheduler;
use crate::objective::effective_tags;
use crate::obs_bridge::PlacerMetrics;
use crate::request::{BatchPlacement, LraRequest, PlacementOutcome};
use crate::yarn::YarnScheduler;

/// Which placer arm serves a batch under [`LraAlgorithm::Ilp`].
///
/// The scheduler's circuit breaker demotes `Ilp → Heuristic` under
/// sustained solver failure and probes back upward (see
/// [`crate::CircuitBreaker`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacerMode {
    /// Exact branch and bound over the Fig. 5 MILP (§5.2).
    Ilp,
    /// An alias of [`PlacerMode::Heuristic`]: the same path, kept
    /// because callers still name it.
    Relaxed,
    /// The §5.3 node-candidates heuristic, validated: every placement is
    /// allocated live and re-checked against every hard constraint, and a
    /// request that fails either is returned unplaced.
    Heuristic,
}

impl PlacerMode {
    /// Short name used in metrics and benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            PlacerMode::Ilp => "ilp",
            PlacerMode::Relaxed => "relaxed",
            PlacerMode::Heuristic => "heuristic",
        }
    }

    /// Numeric encoding for the `core.placer_mode` gauge
    /// (0 = ilp, 1 = relaxed, 2 = heuristic).
    pub fn code(&self) -> i64 {
        match self {
            PlacerMode::Ilp => 0,
            PlacerMode::Relaxed => 1,
            PlacerMode::Heuristic => 2,
        }
    }
}

/// The LRA placement algorithm to use (§7.1 comparison set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LraAlgorithm {
    /// Medea-ILP: the optimization-based algorithm of §5.2.
    Ilp,
    /// Medea-NC: node-candidates heuristic (§5.3).
    NodeCandidates,
    /// Medea-TP: tag-popularity heuristic (§5.3).
    TagPopularity,
    /// Serial: greedy without ordering (§7.1).
    Serial,
    /// J-Kube: Kubernetes' algorithm, one request at a time, no
    /// cardinality.
    JKube,
    /// J-Kube++: J-Kube extended with cardinality constraints.
    JKubePlusPlus,
    /// YARN: constraint-unaware baseline.
    Yarn,
}

impl LraAlgorithm {
    /// All algorithms, in the order the paper's figures list them.
    pub const ALL: [LraAlgorithm; 7] = [
        LraAlgorithm::Ilp,
        LraAlgorithm::NodeCandidates,
        LraAlgorithm::TagPopularity,
        LraAlgorithm::Serial,
        LraAlgorithm::JKube,
        LraAlgorithm::JKubePlusPlus,
        LraAlgorithm::Yarn,
    ];

    /// Short display name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            LraAlgorithm::Ilp => "MEDEA-ILP",
            LraAlgorithm::NodeCandidates => "MEDEA-NC",
            LraAlgorithm::TagPopularity => "MEDEA-TP",
            LraAlgorithm::Serial => "Serial",
            LraAlgorithm::JKube => "J-KUBE",
            LraAlgorithm::JKubePlusPlus => "J-KUBE++",
            LraAlgorithm::Yarn => "YARN",
        }
    }
}

impl fmt::Display for LraAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The LRA scheduler of Fig. 4: places batches of LRAs using the
/// configured algorithm, tentatively, on the cluster state it is handed.
pub struct LraScheduler {
    /// Selected algorithm.
    pub algorithm: LraAlgorithm,
    /// ILP configuration (used only by [`LraAlgorithm::Ilp`]).
    pub ilp: IlpConfig,
    metrics: PlacerMetrics,
}

impl LraScheduler {
    /// Creates a scheduler with default configuration.
    pub fn new(algorithm: LraAlgorithm) -> Self {
        LraScheduler {
            algorithm,
            ilp: IlpConfig::default(),
            metrics: PlacerMetrics::default(),
        }
    }

    /// Attaches a metrics registry: the placer arms report `solver.*`,
    /// `core.prepare_*`, `core.ilp_*` and `core.relax_*` series into it
    /// (handles resolved here, once; until then they record into a
    /// private registry).
    pub fn set_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = PlacerMetrics::new(registry);
    }

    /// Places a batch of newly submitted LRAs over the whole cluster with
    /// the configured algorithm.
    ///
    /// `deployed_constraints` are the already-active constraints from the
    /// constraint manager (deployed LRAs + operator); the new requests
    /// carry their own constraints.
    pub fn place(
        &self,
        state: &ClusterState,
        requests: &[LraRequest],
        deployed_constraints: &[PlacementConstraint],
    ) -> Vec<PlacementOutcome> {
        self.place_on(
            &mut state.clone(),
            requests,
            deployed_constraints,
            None,
            None,
        )
        .outcomes
    }

    /// The one placement entry point, in full detail. `state` is the
    /// working state: every arm places tentatively on it under a
    /// [`medea_cluster::Scratch`] guard and leaves it as found (the round
    /// hands the live state here, sub-solve after sub-solve).
    ///
    /// - `allowed` restricts candidate hosts to a node list (a shard's
    ///   nodes, ascending); `None` means all nodes. Scoring and `γ`
    ///   counts still see the full state.
    /// - `arm` overrides the configured algorithm with a placer arm — how
    ///   the circuit breaker serves the heuristic arm while it is open;
    ///   `None` serves the configured algorithm
    ///   ([`IlpConfig::mode`] under [`LraAlgorithm::Ilp`]).
    pub fn place_on(
        &self,
        state: &mut ClusterState,
        requests: &[LraRequest],
        deployed_constraints: &[PlacementConstraint],
        allowed: Option<&[NodeId]>,
        arm: Option<PlacerMode>,
    ) -> BatchPlacement {
        let greedy = |state: &mut ClusterState, heuristic: HeuristicScheduler| {
            heuristic
                .place_counted(state, requests, deployed_constraints, allowed)
                .0
        };
        let by_mode = |state: &mut ClusterState, mode| match mode {
            PlacerMode::Ilp => ilp::solve(
                state,
                requests,
                deployed_constraints,
                &self.ilp,
                allowed,
                &self.metrics,
            ),
            PlacerMode::Relaxed | PlacerMode::Heuristic => serve_anchor(
                state,
                requests,
                deployed_constraints,
                &self.ilp,
                allowed,
                &self.metrics,
            ),
        };
        if let Some(mode) = arm {
            return by_mode(state, mode);
        }
        match self.algorithm {
            LraAlgorithm::Ilp => return by_mode(state, self.ilp.mode),
            LraAlgorithm::NodeCandidates => {
                greedy(state, HeuristicScheduler::new(Ordering::NodeCandidates))
            }
            LraAlgorithm::TagPopularity => {
                greedy(state, HeuristicScheduler::new(Ordering::TagPopularity))
            }
            LraAlgorithm::Serial => greedy(state, HeuristicScheduler::new(Ordering::Submission)),
            LraAlgorithm::JKube => {
                JKubeScheduler::jkube().place(state, requests, deployed_constraints, allowed)
            }
            LraAlgorithm::JKubePlusPlus => JKubeScheduler::jkube_plus_plus().place(
                state,
                requests,
                deployed_constraints,
                allowed,
            ),
            LraAlgorithm::Yarn => YarnScheduler::new().place(state, requests, allowed),
        }
        .into()
    }
}

/// The served arm: the §5.3 anchor ([`IlpConfig::anchor`]), validated
/// on `state` by [`validate_anchor`]. No container classes, no model and
/// no LP.
fn serve_anchor(
    state: &mut ClusterState,
    requests: &[LraRequest],
    deployed_constraints: &[PlacementConstraint],
    cfg: &IlpConfig,
    allowed: Option<&[NodeId]>,
    metrics: &PlacerMetrics,
) -> BatchPlacement {
    if let Some(outcomes) = ilp::trivial(requests) {
        return outcomes.into();
    }
    let anchor = cfg.anchor(state, requests, deployed_constraints, allowed, metrics);
    let t_validate = Instant::now();
    let (outcomes, evicted) = validate_anchor(state, requests, deployed_constraints, anchor);
    let arm = &metrics.arm;
    arm.relax_validate_us.record_duration(t_validate.elapsed());
    if evicted > 0 {
        arm.relax_evictions.add(evicted as u64);
    }
    outcomes.into()
}

/// Validates the anchor's placement on `state`, under a rollback guard:
/// each request is allocated live (capacity), then every kept request
/// whose containers break a hard constraint (deployed or the batch's
/// own) is released: as its subject, or as one target too many for an
/// already placed subject ([`violates_hard`]). Releases repeat until a
/// pass releases nothing, so a request that passed before a later
/// release (an affinity whose target went) is checked again and every
/// kept request is clean on the final state.
/// Returns the outcomes, with every request that failed `Unplaced`, and
/// how many failed.
fn validate_anchor(
    state: &mut ClusterState,
    requests: &[LraRequest],
    deployed_constraints: &[PlacementConstraint],
    anchor: Vec<PlacementOutcome>,
) -> (Vec<PlacementOutcome>, usize) {
    let hard = applicable_hard(requests, deployed_constraints);
    let mut work = state.scratch();
    let mut evicted = 0;
    let mut placed: Vec<Option<Vec<ContainerId>>> = requests
        .iter()
        .zip(&anchor)
        .map(|(r, out)| {
            let pl = out.placement()?;
            let ids = r.allocate_all(&mut work, |_, k| pl.nodes.get(k).copied());
            evicted += usize::from(ids.is_none());
            ids
        })
        .collect();
    let mut new: Vec<ContainerId> = placed.iter().flatten().flatten().copied().collect();
    new.sort_unstable();
    loop {
        let before = evicted;
        for slot in &mut placed {
            let violating = |ids: &mut Vec<ContainerId>| {
                ids.iter().any(|&id| violates_hard(&work, &hard, &new, id))
            };
            if let Some(ids) = slot.take_if(violating) {
                for id in ids {
                    let _ = work.release(id);
                }
                evicted += 1;
            }
        }
        if evicted == before {
            break;
        }
    }
    let outcomes = requests
        .iter()
        .zip(anchor)
        .zip(&placed)
        .map(|((r, out), ids)| match ids {
            Some(_) => out,
            None => PlacementOutcome::Unplaced { app: r.app },
        })
        .collect();
    (outcomes, evicted)
}

/// The hard constraints, deployed then the batch's own, each once, that
/// a container of the batch can break: as a subject, or as a target in a
/// leaf with a maximum (see [`violates_hard`]).
fn applicable_hard<'a>(
    requests: &'a [LraRequest],
    deployed_constraints: &'a [PlacementConstraint],
) -> Vec<&'a PlacementConstraint> {
    let own = requests.iter().flat_map(|r| &r.constraints);
    let mut hard = (deployed_constraints.iter().chain(own))
        .filter(|c| c.is_hard())
        .peekable();
    if hard.peek().is_none() {
        return Vec::new();
    }
    let mut tag_sets: Vec<Vec<Tag>> = (requests.iter())
        .flat_map(|r| r.containers.iter().map(|c| effective_tags(r.app, c)))
        .collect();
    tag_sets.sort_unstable();
    tag_sets.dedup();
    let applies = |c: &PlacementConstraint| {
        tag_sets.iter().any(|tags| {
            c.subject.matches_tags(tags)
                || (c.expr.leaves()).any(|l| capped(l) && l.target.matches_tags(tags))
        })
    };
    let mut applicable: Vec<&PlacementConstraint> = Vec::new();
    for c in hard {
        if applies(c) && !applicable.contains(&c) {
            applicable.push(c);
        }
    }
    applicable
}

/// Whether a leaf bounds its count from above: only such a leaf can be
/// broken by one more target.
fn capped(leaf: &TagConstraint) -> bool {
    leaf.cardinality.max.is_some()
}

/// The constraints among `constraints` that live container `id` is a
/// subject of and breaks on `state` (none if `id` is not live). The one
/// violation evaluator: validation asks whether a hard one exists, the
/// round's commit check counts them.
pub(crate) fn broken_by<'a>(
    state: &'a ClusterState,
    constraints: impl IntoIterator<Item = &'a PlacementConstraint> + 'a,
    id: ContainerId,
) -> impl Iterator<Item = &'a PlacementConstraint> + 'a {
    let alloc = state.allocation(id).ok();
    constraints.into_iter().filter(move |c| {
        alloc.is_some_and(|a| c.subject.matches_allocation(a))
            && check_container(state, c, id).is_some_and(|ch| !ch.satisfied)
    })
}

/// Whether live container `id` breaks a `hard` constraint on `work`:
/// one it is a subject of, or one whose target it matches in a leaf with
/// a maximum while a subject in one of its node sets breaks it. Subjects
/// in `new` (ascending: the batch's containers) are skipped there: each
/// is checked as a subject itself.
fn violates_hard(
    work: &ClusterState,
    hard: &[&PlacementConstraint],
    new: &[ContainerId],
    id: ContainerId,
) -> bool {
    if broken_by(work, hard.iter().copied(), id).next().is_some() {
        return true;
    }
    let Ok(alloc) = work.allocation(id) else {
        return false;
    };
    let groups = work.groups();
    hard.iter().any(|&c| {
        if !(c.expr.leaves()).any(|l| capped(l) && l.target.matches_allocation(alloc)) {
            return false;
        }
        let sets: Vec<&[NodeId]> = if c.group.is_node() {
            vec![std::slice::from_ref(&alloc.node)]
        } else {
            let of_node = groups.sets_containing_ref(&c.group, alloc.node);
            (of_node.unwrap_or_default().iter())
                .filter_map(|&set| groups.set_members_ref(&c.group, set))
                .collect()
        };
        let breaks = |&subject: &ContainerId| {
            new.binary_search(&subject).is_err() && broken_by(work, [c], subject).next().is_some()
        };
        (sets.into_iter().flatten())
            .flat_map(|&n| work.containers_on(n).unwrap_or_default())
            .any(breaks)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::LraPlacement;
    use medea_cluster::{
        ApplicationId, ContainerRequest, ExecutionKind, NodeGroupId, Resources, Tag,
    };

    #[test]
    fn every_algorithm_places_a_simple_lra() {
        let state = ClusterState::homogeneous(6, Resources::new(16 * 1024, 16), 2);
        for alg in LraAlgorithm::ALL {
            let req = LraRequest::uniform(
                ApplicationId(1),
                3,
                Resources::new(2048, 1),
                vec![Tag::new("x")],
                vec![PlacementConstraint::anti_affinity(
                    "x",
                    "x",
                    NodeGroupId::node(),
                )],
            );
            let out = LraScheduler::new(alg).place(&state, &[req], &[]);
            assert!(
                out[0].placement().is_some(),
                "{alg} failed to place a trivially placeable LRA"
            );
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(LraAlgorithm::Ilp.name(), "MEDEA-ILP");
        assert_eq!(LraAlgorithm::JKubePlusPlus.to_string(), "J-KUBE++");
        assert_eq!(LraAlgorithm::ALL.len(), 7);
    }

    /// A violator and its follower on a 2-node state: request `x`+`m`
    /// breaks a hard anti-affinity against a deployed `x` on node 0, and
    /// request `y` has a hard affinity to `m`, which only the violator
    /// holds. Returns the two requests in the order `follower_first`
    /// asks for.
    fn violator_and_follower(follower_first: bool) -> (ClusterState, Vec<LraRequest>) {
        let mut state = ClusterState::homogeneous(2, Resources::new(4096, 4), 1);
        let spread = PlacementConstraint::anti_affinity("x", "x", NodeGroupId::node()).hard();
        let near = PlacementConstraint::affinity("y", "m", NodeGroupId::node()).hard();
        let request = |app, tags: &[&str], c: &PlacementConstraint| {
            LraRequest::uniform(
                ApplicationId(app),
                1,
                Resources::new(1024, 1),
                tags.iter().map(Tag::new).collect(),
                vec![c.clone()],
            )
        };
        let mut requests = vec![request(1, &["x", "m"], &spread), request(2, &["y"], &near)];
        if follower_first {
            requests.reverse();
        }
        state
            .allocate(
                ApplicationId(9),
                NodeId(0),
                &ContainerRequest::new(Resources::new(1024, 1), [Tag::new("x")]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        (state, requests)
    }

    fn on(app: u64, node: u32) -> PlacementOutcome {
        PlacementOutcome::Placed(LraPlacement {
            app: ApplicationId(app),
            nodes: vec![NodeId(node)],
        })
    }

    fn unplaced(app: u64) -> PlacementOutcome {
        PlacementOutcome::Unplaced {
            app: ApplicationId(app),
        }
    }

    /// Passes repeat until one releases nothing: the follower of a
    /// released violator goes with it whether it is checked before or
    /// after it.
    #[test]
    fn validation_evicts_a_violator_and_its_follower_in_either_order() {
        for follower_first in [false, true] {
            let (mut state, requests) = violator_and_follower(follower_first);
            let anchor = requests.iter().map(|r| on(r.app.0, 0)).collect();
            let before = state.digest();
            let (out, evicted) = validate_anchor(&mut state, &requests, &[], anchor);
            assert_eq!(
                out,
                vec![unplaced(requests[0].app.0), unplaced(requests[1].app.0)]
            );
            assert_eq!(evicted, 2);
            assert_eq!(state.digest(), before);
        }
    }

    /// One hard violation and one over-capacity request are evicted; the
    /// state is left as found and never copied.
    #[test]
    fn validation_evicts_violating_and_unallocatable_requests() {
        let mut state = ClusterState::homogeneous(2, Resources::new(4096, 4), 1);
        let request = |app, mem, tag: &str, constraints| {
            LraRequest::uniform(
                ApplicationId(app),
                1,
                Resources::new(mem, 1),
                vec![Tag::new(tag)],
                constraints,
            )
        };
        let spread = PlacementConstraint::anti_affinity("x", "x", NodeGroupId::node()).hard();
        let requests = [
            request(1, 1024, "x", vec![spread.clone()]),
            request(2, 8192, "y", vec![]),
            request(3, 1024, "y", vec![]),
            request(4, 1024, "y", vec![]),
        ];
        state
            .allocate(
                ApplicationId(9),
                NodeId(0),
                &requests[0].containers[0],
                ExecutionKind::LongRunning,
            )
            .unwrap();
        // Next to the deployed `x`; larger than any node; fine; not placed.
        let anchor = vec![on(1, 0), on(2, 1), on(3, 1), unplaced(4)];
        let (before, clones) = (state.digest(), medea_cluster::state_clones());
        let (out, evicted) = validate_anchor(&mut state, &requests, &[], anchor);
        assert_eq!(out, vec![unplaced(1), unplaced(2), on(3, 1), unplaced(4)]);
        assert_eq!(evicted, 2);
        assert_eq!(state.digest(), before);
        assert_eq!(medea_cluster::state_clones(), clones);
    }

    /// The served arm on a batch its anchor cannot place whole (three
    /// 3 GB containers on two 4 GB nodes) builds no model: no pivot, and
    /// one validation timed.
    #[test]
    fn the_served_arm_runs_no_lp_on_an_unclean_batch() {
        let registry = MetricsRegistry::new();
        let mut scheduler = LraScheduler::new(LraAlgorithm::Ilp);
        scheduler.ilp.mode = PlacerMode::Relaxed;
        scheduler.set_metrics(&registry);
        let mut tight = ClusterState::homogeneous(2, Resources::new(4096, 4), 1);
        let before = tight.digest();
        let batch = [
            LraRequest::uniform(ApplicationId(1), 3, Resources::new(3072, 1), vec![], vec![]),
            LraRequest::uniform(ApplicationId(2), 1, Resources::new(1024, 1), vec![], vec![]),
        ];
        let out = scheduler.place_on(&mut tight, &batch, &[], None, None);
        assert!(out.outcomes[0].placement().is_none());
        assert!(out.outcomes[1].placement().is_some());
        assert_eq!(tight.digest(), before);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("solver.simplex_pivots_total"), Some(0));
        let validated = snap.histogram("core.relax_validate_us");
        assert_eq!(validated.map(|h| h.count), Some(1));
    }

    /// A new container that is the target of a deployed subject's hard
    /// rule: app 1's two `x` containers, one per node, keep `noisy` off
    /// their nodes, and app 2 is one `noisy` container. Both arms leave
    /// app 2 unplaced: wherever it goes, an `x` breaks its rule.
    #[test]
    fn validation_checks_a_new_container_as_a_target() {
        let mut state = ClusterState::homogeneous(2, Resources::new(4096, 4), 1);
        let x = ContainerRequest::new(Resources::new(1024, 1), [Tag::new("x")]);
        for node in [NodeId(0), NodeId(1)] {
            let kind = ExecutionKind::LongRunning;
            state.allocate(ApplicationId(1), node, &x, kind).unwrap();
        }
        let quiet = PlacementConstraint::anti_affinity("x", "noisy", NodeGroupId::node()).hard();
        let noisy = [LraRequest::uniform(
            ApplicationId(2),
            1,
            Resources::new(1024, 1),
            vec![Tag::new("noisy")],
            vec![],
        )];
        let scheduler = LraScheduler::new(LraAlgorithm::Ilp);
        for arm in [PlacerMode::Ilp, PlacerMode::Heuristic] {
            let deployed = std::slice::from_ref(&quiet);
            let out = scheduler.place_on(&mut state, &noisy, deployed, None, Some(arm));
            assert_eq!(out.outcomes, vec![unplaced(2)], "{arm:?}");
        }
    }

    /// The heuristic arm the breaker serves validates what the greedy
    /// placed: held to node 0, the greedy puts the violator next to the
    /// deployed `x` and its follower beside it, and the arm evicts both.
    #[test]
    fn the_heuristic_arm_evicts_a_hard_violator_the_greedy_placed() {
        let (mut state, requests) = violator_and_follower(false);
        let node_0 = [NodeId(0)];
        let greedy = HeuristicScheduler::new(Ordering::NodeCandidates);
        let placed = greedy.place(&state, &requests, &[], Some(&node_0));
        assert_eq!(placed, vec![on(1, 0), on(2, 0)], "the greedy places both");

        let registry = MetricsRegistry::new();
        let mut scheduler = LraScheduler::new(LraAlgorithm::Ilp);
        scheduler.set_metrics(&registry);
        let heuristic = Some(PlacerMode::Heuristic);
        let out = scheduler.place_on(&mut state, &requests, &[], Some(&node_0), heuristic);
        assert_eq!(out.outcomes, vec![unplaced(1), unplaced(2)]);
        let evictions = registry.snapshot().counter("core.relax_evictions_total");
        assert_eq!(evictions, Some(2));
    }
}
