//! The YARN baseline: a production-grade but constraint-unaware LRA
//! placement (§7.1 "YARN: ... constraint-unaware scheduler").
//!
//! Containers are placed one at a time on the least-allocated feasible
//! node (memory share), which is YARN's default behaviour for requests
//! without locality; placement constraints are simply not consulted, so
//! "some constraints are randomly satisfied for some LRAs" (§7.2).

use medea_cluster::{ClusterState, NodeId};

use crate::heuristics::candidate_hosts;
use crate::request::{LraPlacement, LraRequest, PlacementOutcome};

/// Constraint-unaware least-allocated scheduler.
#[derive(Debug, Default)]
pub struct YarnScheduler;

impl YarnScheduler {
    /// Creates the baseline scheduler.
    pub fn new() -> Self {
        YarnScheduler
    }

    /// Places requests container by container on the least-allocated node
    /// of `allowed` (ascending; `None`: all nodes). Works on `state` under
    /// a rollback guard and leaves it as found.
    pub fn place(
        &self,
        state: &mut ClusterState,
        requests: &[LraRequest],
        allowed: Option<&[NodeId]>,
    ) -> Vec<PlacementOutcome> {
        let mut work = state.scratch();
        let nodes = candidate_hosts(&work, allowed);
        let mut outcomes = Vec::with_capacity(requests.len());
        for r in requests {
            let mut placed_nodes = Vec::with_capacity(r.containers.len());
            let ids = r.allocate_all(&mut work, |work, k| {
                let mut best: Option<(NodeId, f64)> = None;
                for &n in &nodes {
                    if !work.is_available(n) {
                        continue;
                    }
                    let Ok(free) = work.free(n) else { continue };
                    if !r.containers[k].resources.fits_in(&free) {
                        continue;
                    }
                    let cap = work.node(n).map(|x| x.capacity).unwrap_or_default();
                    let score = free.memory_share(&cap);
                    if best.is_none_or(|(_, bs)| score > bs) {
                        best = Some((n, score));
                    }
                }
                let (node, _) = best?;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_cluster::{ApplicationId, Resources, Tag};

    #[test]
    fn spreads_by_least_allocated() {
        let mut state = ClusterState::homogeneous(4, Resources::new(8 * 1024, 8), 2);
        let req = LraRequest::uniform(
            ApplicationId(1),
            4,
            Resources::new(2048, 1),
            vec![Tag::new("x")],
            vec![],
        );
        let out = YarnScheduler::new().place(&mut state, &[req], None);
        let pl = out[0].placement().unwrap();
        let mut nodes = pl.nodes.clone();
        nodes.sort();
        nodes.dedup();
        // Least-allocated spreading puts each container on a fresh node.
        assert_eq!(nodes.len(), 4);
    }

    #[test]
    fn constraints_are_ignored() {
        use medea_cluster::NodeGroupId;
        use medea_constraints::PlacementConstraint;
        let mut state = ClusterState::homogeneous(2, Resources::new(8 * 1024, 8), 1);
        let caa = PlacementConstraint::anti_affinity("w", "w", NodeGroupId::node());
        let with = LraRequest::uniform(
            ApplicationId(1),
            4,
            Resources::new(1024, 1),
            vec![Tag::new("w")],
            vec![caa],
        );
        let without = LraRequest::uniform(
            ApplicationId(1),
            4,
            Resources::new(1024, 1),
            vec![Tag::new("w")],
            vec![],
        );
        let o1 = YarnScheduler::new().place(&mut state, &[with], None);
        let o2 = YarnScheduler::new().place(&mut state, &[without], None);
        assert_eq!(
            o1[0].placement().unwrap().nodes,
            o2[0].placement().unwrap().nodes
        );
    }

    #[test]
    fn unplaceable_is_reported() {
        let mut state = ClusterState::homogeneous(1, Resources::new(1024, 1), 1);
        let req = LraRequest::uniform(ApplicationId(1), 2, Resources::new(1024, 1), vec![], vec![]);
        let out = YarnScheduler::new().place(&mut state, &[req], None);
        assert!(matches!(out[0], PlacementOutcome::Unplaced { .. }));
    }
}
