//! Container migration: the §5.4 extension.
//!
//! The paper's Medea is purely proactive: placements are fixed at
//! scheduling time, and under churn ("when LRAs enter and leave the
//! system at high rates or when their resource demands change over time")
//! the authors propose *combining the proactive approach with reactive
//! container migration, accounting for migration cost in the objective* —
//! left as future work. This module implements the budget-gated part of
//! that extension: [`consolidate`], behind `MedeaScheduler::defragment`,
//! packs long-running containers from fragmented nodes onto tighter ones
//! without new violations, each application capped by its disruption
//! budget's headroom and each pass by [`MAX_MOVES`].

use std::collections::BTreeMap;

use medea_cluster::{
    ApplicationId, ClusterState, ContainerId, ContainerRequest, ExecutionKind, NodeId,
};
use medea_constraints::PlacementConstraint;

use crate::objective::{ObjectiveWeights, Scorer};

/// Moves per [`consolidate`] pass.
pub(crate) const MAX_MOVES: usize = 8;

/// One applied migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Migration {
    /// The container that moved (its id changes on re-allocation; this is
    /// the *new* id).
    pub container: ContainerId,
    /// Node it left.
    pub from: NodeId,
    /// Node it landed on.
    pub to: NodeId,
}

/// Defragmentation: repeatedly moves one long-running container off the
/// *emptiest* node hosting any (the fragmentation frontier of the index's
/// free-capacity ordering) onto the *tightest* node that still fits it
/// without new violations of `constraints`. Packing is monotone — every
/// move goes from a node to one strictly below it in the ordering — so
/// passes cannot ping-pong.
///
/// `allowance` caps moves per application (the lifecycle layer passes
/// each app's disruption-budget headroom) and is decremented in place;
/// apps absent from the map are never touched. A pass makes at most
/// [`MAX_MOVES`] moves. Returns the applied moves.
pub(crate) fn consolidate(
    state: &mut ClusterState,
    constraints: &[PlacementConstraint],
    allowance: &mut BTreeMap<ApplicationId, usize>,
) -> Vec<Migration> {
    let scorer = Scorer::new(ObjectiveWeights::default(), constraints.to_vec());
    (0..MAX_MOVES)
        .map_while(|_| consolidation_move(state, &scorer, allowance))
        .collect()
}

/// Finds and applies one consolidation move; `None` when no eligible
/// container can move to a tighter node.
fn consolidation_move(
    state: &mut ClusterState,
    scorer: &Scorer,
    allowance: &mut BTreeMap<ApplicationId, usize>,
) -> Option<Migration> {
    // Most-free first: sources are walked from the emptiest end,
    // targets from the tightest.
    let ordering: Vec<NodeId> = state.nodes_by_free_memory().collect();
    for (si, &source) in ordering.iter().enumerate() {
        if !state.is_available(source) {
            continue;
        }
        let candidates: Vec<ContainerId> = state
            .containers_on(source)
            .map(|c| c.to_vec())
            .unwrap_or_default()
            .into_iter()
            .filter(|&id| {
                state
                    .allocation(id)
                    .map(|a| {
                        a.kind == ExecutionKind::LongRunning
                            && allowance.get(&a.app).copied().unwrap_or(0) > 0
                    })
                    .unwrap_or(false)
            })
            .collect();
        for cid in candidates {
            let Ok(alloc) = state.allocation(cid).cloned() else {
                continue;
            };
            let request = ContainerRequest::new(
                alloc.resources,
                alloc.tags.iter().filter(|t| !t.is_app_id()).cloned(),
            );
            if state.release(cid).is_err() {
                continue;
            }
            let relevant = scorer.relevant(alloc.app, &request);
            // Tightest node, strictly below the source in the ordering,
            // that fits without new violations.
            let dest = ordering[si + 1..].iter().rev().copied().find(|&target| {
                state.is_available(target)
                    && scorer.is_feasible(state, target, &request)
                    && scorer.violation_delta_among(state, target, &relevant).0 <= 1e-9
            });
            if let Some(target) = dest {
                if let Ok(new_id) =
                    state.allocate(alloc.app, target, &request, ExecutionKind::LongRunning)
                {
                    if let Some(a) = allowance.get_mut(&alloc.app) {
                        *a = a.saturating_sub(1);
                    }
                    return Some(Migration {
                        container: new_id,
                        from: source,
                        to: target,
                    });
                }
            }
            // No viable target (or the allocate raced): put the container
            // back where it was, best effort.
            let _ = state.allocate(alloc.app, source, &request, ExecutionKind::LongRunning);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_cluster::{Resources, Tag};

    /// One 8 GB, 8-vcore node per entry, holding `count` 1 GB, 1-vcore
    /// LRA containers of application `app`.
    fn cluster(loads: &[(u64, usize)]) -> ClusterState {
        let mut state = ClusterState::homogeneous(loads.len(), Resources::new(8192, 8), 1);
        let container = ContainerRequest::new(Resources::new(1024, 1), [Tag::new("svc")]);
        for (n, &(app, count)) in loads.iter().enumerate() {
            for _ in 0..count {
                state
                    .allocate(
                        ApplicationId(app),
                        NodeId(n as u32),
                        &container,
                        ExecutionKind::LongRunning,
                    )
                    .unwrap();
            }
        }
        state
    }

    fn unlimited(apps: &[u64]) -> BTreeMap<ApplicationId, usize> {
        apps.iter()
            .map(|&a| (ApplicationId(a), usize::MAX))
            .collect()
    }

    fn hosted(state: &ClusterState, node: u32) -> usize {
        state.containers_on(NodeId(node)).unwrap().len()
    }

    #[test]
    fn consolidation_respects_capacity() {
        // Node 1 has room for one of node 0's two containers.
        let mut state = cluster(&[(1, 2), (1, 7)]);
        let moves = consolidate(&mut state, &[], &mut unlimited(&[1]));
        assert_eq!(moves.len(), 1);
        assert_eq!((hosted(&state, 0), hosted(&state, 1)), (1, 8));
        assert_eq!(state.free(NodeId(1)).unwrap().memory_mb, 0);
        assert_eq!(state.num_containers(), 9);
        state.check_index_consistency().unwrap();
    }

    #[test]
    fn consolidation_stops_at_max_moves() {
        // Twelve lone containers: more than one pass's worth of moves.
        let mut state = cluster(&[(1, 1); 12]);
        let mut allowance = unlimited(&[1]);
        assert_eq!(
            consolidate(&mut state, &[], &mut allowance).len(),
            MAX_MOVES
        );
        assert!(
            !consolidate(&mut state, &[], &mut allowance).is_empty(),
            "the first pass stopped at its cap, not for want of moves"
        );
        assert_eq!(state.num_containers(), 12);
    }

    #[test]
    fn consolidation_decrements_each_apps_allowance() {
        let mut state = cluster(&[(1, 1), (2, 1), (1, 1), (2, 1), (1, 4), (2, 4)]);
        let mut allowance = BTreeMap::from([(ApplicationId(1), 1), (ApplicationId(2), 2)]);
        let moves = consolidate(&mut state, &[], &mut allowance);
        assert_eq!(moves.len(), 3);
        assert_eq!(
            allowance,
            BTreeMap::from([(ApplicationId(1), 0), (ApplicationId(2), 0)])
        );
        // App 2 from node 3, app 1 from node 2, app 2 from node 1; app 1's
        // container on node 0 stays once its allowance is spent.
        let sources: Vec<u32> = moves.iter().map(|m| m.from.0).collect();
        assert_eq!(sources, [3, 2, 1]);
        assert_eq!(hosted(&state, 0), 1);
    }

    #[test]
    fn consolidation_never_moves_an_app_absent_from_the_map() {
        // App 2 alone on the emptiest node; app 1 may move freely.
        let mut state = cluster(&[(2, 1), (1, 1), (1, 1), (1, 4)]);
        let moves = consolidate(&mut state, &[], &mut unlimited(&[1]));
        let sources: Vec<u32> = moves.iter().map(|m| m.from.0).collect();
        assert_eq!(sources, [2, 1]);
        assert_eq!(hosted(&state, 0), 1, "app 2 has no allowance entry");
        assert_eq!(hosted(&state, 3), 6);
    }

    #[test]
    fn consolidation_moves_only_onto_strictly_tighter_nodes() {
        let mut state = cluster(&[(1, 1), (1, 3), (1, 0), (1, 5), (1, 2)]);
        let scorer = Scorer::new(ObjectiveWeights::default(), Vec::new());
        let mut allowance = unlimited(&[1]);
        // A node's place in the free-capacity ordering: free memory, free
        // vcores, then node id.
        let rank = |state: &ClusterState, n: NodeId| {
            let free = state.free(n).unwrap();
            (free.memory_mb, free.vcores, n)
        };
        let mut total = 0;
        loop {
            let before: Vec<_> = state.node_ids().map(|n| rank(&state, n)).collect();
            let Some(m) = consolidation_move(&mut state, &scorer, &mut allowance) else {
                break;
            };
            let (from, to) = (before[m.from.0 as usize], before[m.to.0 as usize]);
            assert!(to < from, "move {m:?} from {from:?} onto {to:?}");
            total += 1;
            assert!(total <= 100, "consolidation did not converge");
        }
        assert!(total > 0);
        assert_eq!(state.num_containers(), 11);
        state.check_index_consistency().unwrap();
    }
}
