//! Heuristic-based LRA scheduling (§5.3): tag popularity, node
//! candidates, and the unordered Serial baseline.
//!
//! All three share a greedy placement engine: containers are placed one at
//! a time on the feasible node with the best [`Scorer`] score (the same
//! objective model the ILP optimizes); they differ only in the *order* in
//! which containers are considered — which is exactly the comparison the
//! paper draws between them.

use std::collections::HashMap;

use medea_cluster::{ClusterState, ContainerRequest, NodeId, Tag};
use medea_constraints::PlacementConstraint;

use crate::objective::{ObjectiveWeights, Scorer};
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
#[derive(Debug, Clone)]
struct Item {
    req_idx: usize,
    cont_idx: usize,
    request: ContainerRequest,
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

    /// Places a batch of LRAs greedily on a working copy of the state.
    ///
    /// Like the ILP, the heuristics consider *multiple* container requests
    /// within a scheduling interval (unlike J-Kube): ordering is computed
    /// across the whole batch, and the working copy accumulates tentative
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
        let mut work = state.clone();
        let mut constraints: Vec<PlacementConstraint> = deployed_constraints.to_vec();
        for r in requests {
            constraints.extend(r.constraints.iter().cloned());
        }
        let scorer = Scorer::new(self.weights, constraints);

        // Flatten items.
        let mut items: Vec<Item> = Vec::new();
        for (ri, r) in requests.iter().enumerate() {
            for (ci, c) in r.containers.iter().enumerate() {
                items.push(Item {
                    req_idx: ri,
                    cont_idx: ci,
                    request: c.clone(),
                });
            }
        }

        // Order the batch.
        match self.ordering {
            Ordering::Submission => {}
            Ordering::TagPopularity => {
                let popularity = tag_popularity(&scorer.constraints);
                items.sort_by_key(|it| {
                    let p: i64 = it
                        .request
                        .tags
                        .iter()
                        .map(|t| popularity.get(t).copied().unwrap_or(0) as i64)
                        .sum();
                    -p
                });
            }
            Ordering::NodeCandidates => {
                // Initial Nc per item; kept approximately fresh below.
            }
        }

        let nodes: Vec<NodeId> = match allowed {
            Some(a) => a.to_vec(),
            None => work.node_ids().collect(),
        };
        let mut placements: Vec<Vec<Option<NodeId>>> = requests
            .iter()
            .map(|r| vec![None; r.containers.len()])
            .collect();
        let mut placed_ids: Vec<Vec<Option<medea_cluster::ContainerId>>> = requests
            .iter()
            .map(|r| vec![None; r.containers.len()])
            .collect();

        if self.ordering == Ordering::NodeCandidates {
            // Node-candidates: repeatedly pick the unplaced item with the
            // smallest Nc. Nc values are recomputed only for items whose
            // placement opportunities may have changed (same-tag items or
            // constraint-related tags — approximated by recomputing items
            // sharing any tag with the last placed container, per §5.3).
            let mut nc: Vec<Option<usize>> = items
                .iter()
                .map(|it| {
                    Some(count_candidates(
                        &scorer,
                        &mut work,
                        requests[it.req_idx].app,
                        &it.request,
                        &nodes,
                    ))
                })
                .collect();
            let mut remaining: Vec<usize> = (0..items.len()).collect();
            while !remaining.is_empty() {
                // Pick the remaining item with the smallest Nc.
                let Some((pos, &item_idx)) = remaining
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &i)| nc.get(i).copied().flatten().unwrap_or(usize::MAX))
                else {
                    break;
                };
                remaining.swap_remove(pos);
                let it = &items[item_idx];
                let app = requests[it.req_idx].app;
                if let Some((node, id)) = place_best(&scorer, &mut work, app, &it.request, &nodes) {
                    placements[it.req_idx][it.cont_idx] = Some(node);
                    placed_ids[it.req_idx][it.cont_idx] = Some(id);
                    // Lazy recompute: only items sharing a tag with the
                    // placed container.
                    for &other in &remaining {
                        let shares = items[other]
                            .request
                            .tags
                            .iter()
                            .any(|t| it.request.tags.contains(t));
                        if shares {
                            let oit = &items[other];
                            nc[other] = Some(count_candidates(
                                &scorer,
                                &mut work,
                                requests[oit.req_idx].app,
                                &oit.request,
                                &nodes,
                            ));
                        }
                    }
                }
            }
        } else {
            for it in &items {
                let app = requests[it.req_idx].app;
                if let Some((node, id)) = place_best(&scorer, &mut work, app, &it.request, &nodes) {
                    placements[it.req_idx][it.cont_idx] = Some(node);
                    placed_ids[it.req_idx][it.cont_idx] = Some(id);
                }
            }
        }

        // All-or-nothing per LRA: roll back partially placed apps.
        let mut outcomes = Vec::with_capacity(requests.len());
        for (ri, r) in requests.iter().enumerate() {
            if placements[ri].iter().all(|p| p.is_some()) {
                outcomes.push(PlacementOutcome::Placed(LraPlacement {
                    app: r.app,
                    nodes: placements[ri].iter().filter_map(|p| *p).collect(),
                }));
            } else {
                for id in placed_ids[ri].iter().flatten() {
                    let _ = work.release(*id);
                }
                outcomes.push(PlacementOutcome::Unplaced { app: r.app });
            }
        }
        outcomes
    }
}

/// Places one container on the best-scoring feasible node of the working
/// state; returns the node and the tentative container id.
fn place_best(
    scorer: &Scorer,
    work: &mut ClusterState,
    app: medea_cluster::ApplicationId,
    request: &ContainerRequest,
    nodes: &[NodeId],
) -> Option<(NodeId, medea_cluster::ContainerId)> {
    let mut best: Option<(NodeId, f64)> = None;
    for &n in nodes {
        if let Some(s) = scorer.score(work, app, request, n) {
            // total_cmp keeps the argmax well-defined for every score the
            // scorer can emit (scores are finite by contract, but a partial
            // comparison here would silently mis-order if that ever broke);
            // strict Greater keeps first-wins tie-breaking in scan order.
            if best.is_none_or(|(_, bs)| s.total_cmp(&bs) == std::cmp::Ordering::Greater) {
                best = Some((n, s));
            }
        }
    }
    let (node, _) = best?;
    let id = work
        .allocate(
            app,
            node,
            request,
            medea_cluster::ExecutionKind::LongRunning,
        )
        .ok()?;
    Some((node, id))
}

/// Number of nodes on which the container can be placed without any new
/// violation (`Nc` of §5.3).
fn count_candidates(
    scorer: &Scorer,
    work: &mut ClusterState,
    app: medea_cluster::ApplicationId,
    request: &ContainerRequest,
    nodes: &[NodeId],
) -> usize {
    nodes
        .iter()
        .filter(|&&n| scorer.is_violation_free(work, app, request, n))
        .count()
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
mod tests {
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
        let mut probe = state.clone();
        for n in [NodeId(0), NodeId(1)] {
            if let Some(s) = scorer.score(&mut probe, ApplicationId(7), &req_zero, n) {
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
