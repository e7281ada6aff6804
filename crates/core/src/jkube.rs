//! J-Kube and J-Kube++: the Kubernetes scheduling algorithm implemented
//! inside Medea's LRA scheduler (§7.1 comparisons).
//!
//! Kubernetes considers **one container request at a time**: each pod goes
//! through a feasibility filter (resources) and a scoring phase
//! (soft (anti-)affinity match plus least-allocated spreading), with no
//! lookahead across the batch. It supports (anti-)affinity but **not
//! cardinality** constraints; J-Kube++ is the paper's extension of J-Kube
//! with cardinality support.

use medea_cluster::{ApplicationId, ClusterState, ContainerRequest, ExecutionKind, NodeId};
use medea_constraints::{Cardinality, PlacementConstraint};

use crate::heuristics::candidate_hosts;
use crate::request::{LraPlacement, LraRequest, PlacementOutcome};

/// Kubernetes-style one-at-a-time scheduler.
pub struct JKubeScheduler {
    /// When `true` (J-Kube++), cardinality constraints participate in
    /// scoring; when `false` (J-Kube), they are honoured only in their
    /// degenerate (anti-)affinity forms, as in Kubernetes.
    pub cardinality_support: bool,
}

impl JKubeScheduler {
    /// Creates a J-Kube scheduler (no cardinality support).
    pub fn jkube() -> Self {
        JKubeScheduler {
            cardinality_support: false,
        }
    }

    /// Creates a J-Kube++ scheduler (with cardinality support).
    pub fn jkube_plus_plus() -> Self {
        JKubeScheduler {
            cardinality_support: true,
        }
    }

    /// Places a batch of LRAs, container by container, in submission
    /// order, scoring each container against every node of `allowed`
    /// (ascending; `None`: all nodes). Works on `state` under a rollback
    /// guard and leaves it as found.
    pub fn place(
        &self,
        state: &mut ClusterState,
        requests: &[LraRequest],
        deployed_constraints: &[PlacementConstraint],
        allowed: Option<&[NodeId]>,
    ) -> Vec<PlacementOutcome> {
        let mut work = state.scratch();
        let nodes = candidate_hosts(&work, allowed);
        let mut outcomes = Vec::with_capacity(requests.len());

        for r in requests {
            // One container at a time; constraints visible to this pod are
            // its own app's plus the deployed ones (no batch lookahead).
            let mut relevant: Vec<&PlacementConstraint> = deployed_constraints.iter().collect();
            relevant.extend(r.constraints.iter());

            let mut placed_nodes = Vec::with_capacity(r.containers.len());
            let ids = r.allocate_all(&mut work, |work, k| {
                let node = self.pick_node(work, r.app, &r.containers[k], &relevant, &nodes)?;
                placed_nodes.push(node);
                Some(node)
            });
            outcomes.push(match ids {
                Some(_) => PlacementOutcome::Placed(LraPlacement {
                    app: r.app,
                    nodes: placed_nodes,
                }),
                None => PlacementOutcome::Unplaced { app: r.app },
            });
        }
        outcomes
    }

    /// Filter + score one pod over the candidate nodes (the Kubernetes
    /// cycle); first maximum in scan order.
    fn pick_node(
        &self,
        work: &mut ClusterState,
        app: ApplicationId,
        request: &ContainerRequest,
        constraints: &[&PlacementConstraint],
        nodes: &[NodeId],
    ) -> Option<NodeId> {
        let mut best: Option<(NodeId, f64)> = None;
        for &n in nodes {
            // Feasibility filter: resources and availability only.
            if !work.is_available(n) {
                continue;
            }
            let Ok(free) = work.free(n) else { continue };
            if !request.resources.fits_in(&free) {
                continue;
            }
            let score = self.score_node(work, app, request, constraints, n);
            if best.is_none_or(|(_, bs)| score > bs) {
                best = Some((n, score));
            }
        }
        best.map(|(node, _)| node)
    }

    /// Kubernetes-style scoring: per-constraint match bonuses/penalties
    /// plus a least-allocated spreading term.
    fn score_node(
        &self,
        work: &mut ClusterState,
        app: ApplicationId,
        request: &ContainerRequest,
        constraints: &[&PlacementConstraint],
        node: NodeId,
    ) -> f64 {
        // Tentatively allocate to evaluate tag cardinalities including the
        // pod itself (Kubernetes evaluates topology terms hypothetically).
        let Ok(id) = work.allocate(app, node, request, ExecutionKind::LongRunning) else {
            return f64::NEG_INFINITY;
        };
        let mut score = 0.0;
        for c in constraints {
            let is_subject = work
                .allocation(id)
                .map(|a| c.subject.matches_allocation(a))
                .unwrap_or(false);
            if !is_subject {
                continue;
            }
            for leaf in c.expr.leaves() {
                let effective = self.effective_cardinality(&leaf.cardinality);
                let Some(effective) = effective else {
                    continue; // J-Kube ignores true cardinality constraints.
                };
                let sets = work
                    .groups()
                    .sets_containing(&c.group, node)
                    .unwrap_or_default();
                let mut leaf_ok = false;
                for si in sets {
                    let count = leaf
                        .target
                        .cardinality_in_group_set(work, &c.group, si, Some(id));
                    if effective.satisfied_by(count) {
                        leaf_ok = true;
                        break;
                    }
                }
                score += if leaf_ok { c.weight } else { -c.weight };
            }
        }
        let _ = work.release(id);
        // Least-allocated spreading (Kubernetes `LeastAllocated` strategy).
        let cap = work.node(node).map(|n| n.capacity).unwrap_or_default();
        let free = work.free(node).unwrap_or_default();
        let free_after = free.saturating_sub(&request.resources);
        score + 0.1 * free_after.memory_share(&cap)
    }

    /// J-Kube degrades cardinality constraints: `max = 0` behaves as
    /// anti-affinity, `min >= 1 && max = ∞` as affinity, anything else is
    /// ignored. J-Kube++ keeps them all.
    fn effective_cardinality(&self, c: &Cardinality) -> Option<Cardinality> {
        if self.cardinality_support {
            return Some(*c);
        }
        match (c.min, c.max) {
            (_, Some(0)) => Some(Cardinality::anti_affinity()),
            (min, None) if min >= 1 => Some(Cardinality::affinity()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_cluster::{NodeGroupId, Resources, Tag};
    use medea_constraints::violation_stats;

    fn cluster(n: usize, racks: usize) -> ClusterState {
        ClusterState::homogeneous(n, Resources::new(16 * 1024, 16), racks)
    }

    fn commit(state: &mut ClusterState, reqs: &[LraRequest], outs: &[PlacementOutcome]) {
        for (r, o) in reqs.iter().zip(outs) {
            if let Some(pl) = o.placement() {
                for (c, &n) in r.containers.iter().zip(&pl.nodes) {
                    state
                        .allocate(r.app, n, c, ExecutionKind::LongRunning)
                        .unwrap();
                }
            }
        }
    }

    #[test]
    fn places_within_capacity() {
        let mut state = cluster(3, 1);
        let req = LraRequest::uniform(
            ApplicationId(1),
            6,
            Resources::new(8 * 1024, 4),
            vec![Tag::new("p")],
            vec![],
        );
        let out = JKubeScheduler::jkube().place(&mut state, &[req], &[], None);
        assert!(out[0].placement().is_some());
    }

    #[test]
    fn anti_affinity_honoured_by_both() {
        for sched in [JKubeScheduler::jkube(), JKubeScheduler::jkube_plus_plus()] {
            let mut state = cluster(6, 2);
            let caa = PlacementConstraint::anti_affinity("w", "w", NodeGroupId::node());
            let req = LraRequest::uniform(
                ApplicationId(1),
                4,
                Resources::new(1024, 1),
                vec![Tag::new("w")],
                vec![caa.clone()],
            );
            let out = sched.place(&mut state, std::slice::from_ref(&req), &[], None);
            let mut st = cluster(6, 2);
            commit(&mut st, &[req], &out);
            let stats = violation_stats(&st, [&caa]);
            assert_eq!(stats.containers_violating, 0);
        }
    }

    #[test]
    fn jkube_ignores_cardinality_but_plus_plus_honours_it() {
        // "at most 1 other w per node" (i.e. <= 2 collocated) over a
        // 2-node cluster with 6 containers: J-Kube++ must spread 3+3 or
        // fail; J-Kube, ignoring the constraint, will pack by spreading
        // score only and can exceed the cap.
        let card = PlacementConstraint::new("w", "w", Cardinality::at_most(1), NodeGroupId::node());
        let req = LraRequest::uniform(
            ApplicationId(1),
            6,
            Resources::new(1024, 1),
            vec![Tag::new("w")],
            vec![card.clone()],
        );

        let mut state = cluster(4, 2);
        let out_pp = JKubeScheduler::jkube_plus_plus().place(
            &mut state,
            std::slice::from_ref(&req),
            &[],
            None,
        );
        let mut st_pp = cluster(4, 2);
        commit(&mut st_pp, std::slice::from_ref(&req), &out_pp);
        let v_pp = violation_stats(&st_pp, [&card]);

        let out_jk =
            JKubeScheduler::jkube().place(&mut state, std::slice::from_ref(&req), &[], None);
        let mut st_jk = cluster(4, 2);
        commit(&mut st_jk, &[req], &out_jk);
        let v_jk = violation_stats(&st_jk, [&card]);

        // J-Kube++ satisfies the cardinality cap (4 nodes x 2 = 8 slots).
        assert_eq!(
            v_pp.containers_violating, 0,
            "J-Kube++ must respect cardinality"
        );
        // J-Kube is at best as good, and with least-allocated spreading of
        // 6 containers over 4 nodes it will collocate at most 2 anyway —
        // so instead check its *behaviour*: it treats the constraint as
        // absent, i.e. places exactly like a constraint-free run.
        let free_req = LraRequest::uniform(
            ApplicationId(1),
            6,
            Resources::new(1024, 1),
            vec![Tag::new("w")],
            vec![],
        );
        let out_free = JKubeScheduler::jkube().place(&mut state, &[free_req], &[], None);
        assert_eq!(
            out_jk[0].placement().unwrap().nodes,
            out_free[0].placement().unwrap().nodes,
            "J-Kube must ignore pure cardinality constraints"
        );
        let _ = v_jk;
    }

    #[test]
    fn one_at_a_time_misses_forward_affinity() {
        // consumer submitted BEFORE producer: one-at-a-time scheduling
        // cannot see the future producer, so the affinity is satisfied
        // only by luck; batch-aware schedulers handle this (see the
        // heuristics tests). Here we only assert J-Kube still places both.
        let mut state = cluster(4, 2);
        let caf = PlacementConstraint::affinity("consumer", "producer", NodeGroupId::node());
        let consumer = LraRequest::uniform(
            ApplicationId(1),
            1,
            Resources::new(1024, 1),
            vec![Tag::new("consumer")],
            vec![caf],
        );
        let producer = LraRequest::uniform(
            ApplicationId(2),
            1,
            Resources::new(1024, 1),
            vec![Tag::new("producer")],
            vec![],
        );
        let out = JKubeScheduler::jkube().place(&mut state, &[consumer, producer], &[], None);
        assert!(out.iter().all(|o| o.placement().is_some()));
    }

    #[test]
    fn rollback_on_partial_failure() {
        let mut state = cluster(1, 1);
        let req = LraRequest::uniform(
            ApplicationId(1),
            2,
            Resources::new(16 * 1024, 1),
            vec![],
            vec![],
        );
        let out = JKubeScheduler::jkube().place(&mut state, &[req], &[], None);
        assert!(matches!(out[0], PlacementOutcome::Unplaced { .. }));
    }

    #[test]
    fn affinity_to_existing_target() {
        let mut state = cluster(5, 1);
        state
            .allocate(
                ApplicationId(7),
                NodeId(2),
                &ContainerRequest::new(Resources::new(1024, 1), [Tag::new("mem")]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        let caf = PlacementConstraint::affinity("storm", "mem", NodeGroupId::node());
        let req = LraRequest::uniform(
            ApplicationId(1),
            1,
            Resources::new(1024, 1),
            vec![Tag::new("storm")],
            vec![caf],
        );
        let out = JKubeScheduler::jkube().place(&mut state, &[req], &[], None);
        assert_eq!(out[0].placement().unwrap().nodes, vec![NodeId(2)]);
    }
}
