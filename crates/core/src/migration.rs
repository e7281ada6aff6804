//! Container migration: the §5.4 extension.
//!
//! The paper's Medea is purely proactive: placements are fixed at
//! scheduling time, and under churn ("when LRAs enter and leave the
//! system at high rates or when their resource demands change over time")
//! the authors propose *combining the proactive approach with reactive
//! container migration, accounting for migration cost in the objective* —
//! left as future work. This module implements that extension as a greedy
//! migration controller: each round it finds the single container move
//! that most reduces the weighted violation extent net of a per-move
//! migration cost, applies it, and repeats up to a move budget.

use std::collections::BTreeMap;

use medea_cluster::{
    ApplicationId, ClusterState, ContainerId, ContainerRequest, ExecutionKind, NodeId,
};
use medea_constraints::{check_container, PlacementConstraint};

use crate::objective::{ObjectiveWeights, Scorer};

/// One applied migration.
#[derive(Debug, Clone, PartialEq)]
pub struct Migration {
    /// The container that moved (its id changes on re-allocation; this is
    /// the *new* id).
    pub container: ContainerId,
    /// Node it left.
    pub from: NodeId,
    /// Node it landed on.
    pub to: NodeId,
    /// Weighted violation-extent improvement of the move (pre-cost).
    pub improvement: f64,
}

/// Configuration of the migration controller.
#[derive(Debug, Clone, Copy)]
pub struct MigrationConfig {
    /// Maximum moves per invocation.
    pub max_moves: usize,
    /// Cost charged per move, in violation-extent units; a move is only
    /// taken when its improvement exceeds this (the §5.4 "migration cost
    /// in our objective function").
    pub move_cost: f64,
    /// Objective weights used to value violations.
    pub weights: ObjectiveWeights,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            max_moves: 8,
            move_cost: 0.25,
            weights: ObjectiveWeights::default(),
        }
    }
}

/// Greedy migration controller over the active constraints.
pub struct MigrationController {
    /// Controller configuration.
    pub config: MigrationConfig,
}

impl MigrationController {
    /// Creates a controller with the given configuration.
    pub fn new(config: MigrationConfig) -> Self {
        MigrationController { config }
    }

    /// Runs migration rounds on the cluster: repeatedly moves the
    /// violating long-running container whose best relocation yields the
    /// largest net improvement, until no move beats the migration cost or
    /// the budget is exhausted. Returns the applied moves.
    pub fn rebalance(
        &self,
        state: &mut ClusterState,
        constraints: &[PlacementConstraint],
    ) -> Vec<Migration> {
        let scorer = Scorer::new(self.config.weights, constraints.to_vec());
        let mut moves = Vec::new();
        for _ in 0..self.config.max_moves {
            match self.best_move(state, &scorer, constraints) {
                Some(m) => moves.push(m),
                None => break,
            }
        }
        moves
    }

    /// Defragmentation: repeatedly moves one long-running container off
    /// the *emptiest* node hosting any (the fragmentation frontier of
    /// the index's free-capacity ordering) onto the *tightest* node that
    /// still fits it without new constraint violations. Packing is
    /// monotone — every move goes from a freer node to a strictly
    /// tighter one — so passes cannot ping-pong.
    ///
    /// `allowance` caps moves per application (the lifecycle layer
    /// passes each app's disruption-budget headroom) and is decremented
    /// in place; apps absent from the map are never touched. The total
    /// is still bounded by `config.max_moves` per invocation.
    pub fn consolidate(
        &self,
        state: &mut ClusterState,
        constraints: &[PlacementConstraint],
        allowance: &mut BTreeMap<ApplicationId, usize>,
    ) -> Vec<Migration> {
        let scorer = Scorer::new(self.config.weights, constraints.to_vec());
        let mut moves = Vec::new();
        for _ in 0..self.config.max_moves {
            match Self::best_consolidation(state, &scorer, allowance) {
                Some(m) => moves.push(m),
                None => break,
            }
        }
        moves
    }

    /// Finds and applies one consolidation move; `None` when no eligible
    /// container can move to a tighter node.
    fn best_consolidation(
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
                // Tightest node, strictly below the source in the
                // ordering, that fits without new violations.
                let mut dest: Option<(NodeId, f64)> = None;
                for &target in ordering[si + 1..].iter().rev() {
                    if !state.is_available(target) || !scorer.is_feasible(state, target, &request) {
                        continue;
                    }
                    let delta = scorer.violation_delta_among(state, &request, target, &relevant);
                    if delta > 1e-9 {
                        continue;
                    }
                    dest = Some((target, -delta));
                    break;
                }
                if let Some((target, improvement)) = dest {
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
                            improvement,
                        });
                    }
                }
                // No viable target (or the allocate raced): put the
                // container back where it was, best effort.
                let _ = state.allocate(alloc.app, source, &request, ExecutionKind::LongRunning);
            }
        }
        None
    }

    /// Finds and applies the single best move; `None` if no move beats
    /// the migration cost.
    fn best_move(
        &self,
        state: &mut ClusterState,
        scorer: &Scorer,
        constraints: &[PlacementConstraint],
    ) -> Option<Migration> {
        // Violating LRA containers are the migration candidates.
        let candidates: Vec<ContainerId> = state
            .allocations()
            .filter(|a| a.kind == ExecutionKind::LongRunning)
            .map(|a| a.id)
            .collect();
        let nodes: Vec<NodeId> = state.node_ids().collect();

        let mut best: Option<(ContainerId, NodeId, f64)> = None;
        for cid in candidates {
            let (extent, app, from, request) = {
                let alloc = state.allocation(cid).ok()?;
                let extent: f64 = constraints
                    .iter()
                    .filter(|c| c.subject.matches_allocation(alloc))
                    .filter_map(|c| check_container(state, c, cid).map(|ck| ck.extent * c.weight))
                    .sum();
                (
                    extent,
                    alloc.app,
                    alloc.node,
                    ContainerRequest::new(
                        alloc.resources,
                        alloc.tags.iter().filter(|t| !t.is_app_id()).cloned(),
                    ),
                )
            };
            if extent <= 1e-9 {
                continue; // Not violating: leave it alone.
            }
            // A container stranded on an unavailable node cannot be
            // restored after scoring; leave it to the recovery pipeline.
            if !state.is_available(from) {
                continue;
            }
            // Try relocations: remove, score alternatives, restore.
            let removed = state.release(cid).ok()?;
            let relevant = scorer.relevant(app, &request);
            for &n in &nodes {
                if n == from || !state.is_available(n) {
                    continue;
                }
                let delta = {
                    if !scorer.is_feasible(state, n, &request) {
                        continue;
                    }
                    scorer.violation_delta_among(state, &request, n, &relevant)
                };
                // Improvement: old extent minus the violation the
                // container would cause at the new node.
                let improvement = extent - delta;
                if improvement > self.config.move_cost
                    && best.is_none_or(|(_, _, bi)| improvement > bi)
                {
                    best = Some((cid, n, improvement));
                }
            }
            // Restore the container where it was. Restoration can only
            // fail if the node changed underneath us (e.g. crashed
            // mid-scan); park the container on any available node that
            // fits rather than panic, dropping it as a move candidate.
            match state.allocate(app, from, &request, ExecutionKind::LongRunning) {
                Ok(restored) => {
                    // Track identity: if this container is the current
                    // best candidate, update its id to the restored one.
                    if let Some((bid, bn, bi)) = best {
                        if bid == cid {
                            best = Some((restored, bn, bi));
                        }
                    }
                }
                Err(_) => {
                    if let Some((bid, _, _)) = best {
                        if bid == cid {
                            best = None;
                        }
                    }
                    let _ = nodes.iter().any(|&n| {
                        state.is_available(n)
                            && state
                                .allocate(app, n, &request, ExecutionKind::LongRunning)
                                .is_ok()
                    });
                }
            }
            let _ = removed;
        }

        let (cid, to, improvement) = best?;
        let alloc = state.release(cid).ok()?;
        let request = ContainerRequest::new(
            alloc.resources,
            alloc.tags.iter().filter(|t| !t.is_app_id()).cloned(),
        );
        let new_id = match state.allocate(alloc.app, to, &request, ExecutionKind::LongRunning) {
            Ok(id) => id,
            Err(_) => {
                // Target changed underneath us: put the container back
                // rather than lose it, and report no move.
                let _ = state.allocate(alloc.app, alloc.node, &request, ExecutionKind::LongRunning);
                return None;
            }
        };
        Some(Migration {
            container: new_id,
            from: alloc.node,
            to,
            improvement,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_cluster::{ApplicationId, NodeGroupId, Resources, Tag};
    use medea_constraints::{violation_stats, PlacementConstraint};

    fn req(tags: &[&str]) -> ContainerRequest {
        ContainerRequest::new(Resources::new(1024, 1), tags.iter().map(|t| Tag::new(*t)))
    }

    #[test]
    fn migration_repairs_anti_affinity() {
        let mut state = ClusterState::homogeneous(4, Resources::new(8192, 8), 2);
        // Two "svc" containers wrongly packed on one node.
        for _ in 0..2 {
            state
                .allocate(
                    ApplicationId(1),
                    NodeId(0),
                    &req(&["svc"]),
                    ExecutionKind::LongRunning,
                )
                .unwrap();
        }
        let caa = PlacementConstraint::anti_affinity("svc", "svc", NodeGroupId::node());
        let before = violation_stats(&state, [&caa]);
        assert_eq!(before.containers_violating, 2);

        let moves = MigrationController::new(MigrationConfig::default())
            .rebalance(&mut state, std::slice::from_ref(&caa));
        assert!(!moves.is_empty());
        let after = violation_stats(&state, [&caa]);
        assert_eq!(after.containers_violating, 0, "migration must repair");
        assert_eq!(state.num_containers(), 2, "no containers lost");
    }

    #[test]
    fn no_moves_when_nothing_violates() {
        let mut state = ClusterState::homogeneous(4, Resources::new(8192, 8), 2);
        state
            .allocate(
                ApplicationId(1),
                NodeId(0),
                &req(&["a"]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        state
            .allocate(
                ApplicationId(1),
                NodeId(1),
                &req(&["a"]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        let caa = PlacementConstraint::anti_affinity("a", "a", NodeGroupId::node());
        let moves =
            MigrationController::new(MigrationConfig::default()).rebalance(&mut state, &[caa]);
        assert!(moves.is_empty());
    }

    #[test]
    fn move_cost_gates_marginal_moves() {
        let mut state = ClusterState::homogeneous(2, Resources::new(8192, 8), 1);
        for _ in 0..2 {
            state
                .allocate(
                    ApplicationId(1),
                    NodeId(0),
                    &req(&["x"]),
                    ExecutionKind::LongRunning,
                )
                .unwrap();
        }
        let caa = PlacementConstraint::anti_affinity("x", "x", NodeGroupId::node());
        // A prohibitive move cost suppresses migration entirely.
        let config = MigrationConfig {
            move_cost: 100.0,
            ..MigrationConfig::default()
        };
        let moves = MigrationController::new(config).rebalance(&mut state, &[caa]);
        assert!(moves.is_empty());
    }

    #[test]
    fn budget_limits_moves() {
        let mut state = ClusterState::homogeneous(8, Resources::new(8192, 8), 2);
        for _ in 0..6 {
            state
                .allocate(
                    ApplicationId(1),
                    NodeId(0),
                    &req(&["y"]),
                    ExecutionKind::LongRunning,
                )
                .unwrap();
        }
        let caa = PlacementConstraint::anti_affinity("y", "y", NodeGroupId::node());
        let config = MigrationConfig {
            max_moves: 2,
            ..MigrationConfig::default()
        };
        let moves = MigrationController::new(config).rebalance(&mut state, &[caa]);
        assert!(moves.len() <= 2);
    }

    #[test]
    fn migration_respects_capacity() {
        // The only alternative node is full: no move possible.
        let mut state = ClusterState::homogeneous(2, Resources::new(2048, 2), 1);
        for _ in 0..2 {
            state
                .allocate(
                    ApplicationId(1),
                    NodeId(0),
                    &req(&["z"]),
                    ExecutionKind::LongRunning,
                )
                .unwrap();
        }
        state
            .allocate(
                ApplicationId(2),
                NodeId(1),
                &ContainerRequest::new(Resources::new(2048, 2), []),
                ExecutionKind::Task,
            )
            .unwrap();
        let caa = PlacementConstraint::anti_affinity("z", "z", NodeGroupId::node());
        let moves =
            MigrationController::new(MigrationConfig::default()).rebalance(&mut state, &[caa]);
        assert!(moves.is_empty());
        assert_eq!(state.num_containers(), 3);
    }
}
