//! The LRA scheduler: algorithm selection and dispatch (§5).

use std::fmt;

use medea_cluster::{ClusterState, NodeId};
use medea_constraints::PlacementConstraint;
use medea_obs::MetricsRegistry;

use crate::heuristics::{HeuristicScheduler, Ordering};
use crate::ilp::{self, IlpBasisCache, IlpConfig};
use crate::jkube::JKubeScheduler;
use crate::obs_bridge::PlacerMetrics;
use crate::relax::{self, PlacerMode};
use crate::request::{BatchPlacement, LraRequest, PlacementOutcome};
use crate::yarn::YarnScheduler;

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
    /// Warm-start slot of this scheduler's whole-cluster solves: batches
    /// of the same shape, round after round, start the root LP from the
    /// previous round's optimal basis.
    pub(crate) cache: IlpBasisCache,
    metrics: PlacerMetrics,
}

impl LraScheduler {
    /// Creates a scheduler with default configuration.
    pub fn new(algorithm: LraAlgorithm) -> Self {
        LraScheduler {
            algorithm,
            ilp: IlpConfig::default(),
            cache: IlpBasisCache::default(),
            metrics: PlacerMetrics::default(),
        }
    }

    /// Attaches a metrics registry: the solver arms report `solver.*`,
    /// `core.ilp_*` and `core.relax_*` series into it (handles resolved
    /// here, once; until then they record into a private registry).
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
            Some(&self.cache),
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
    ///   the degradation ladder serves from a lower arm while a breaker is
    ///   open; `None` serves the configured algorithm
    ///   ([`IlpConfig::mode`] under [`LraAlgorithm::Ilp`]).
    /// - `cache` is the warm-start slot a solver arm reads and refills;
    ///   the caller owns it (one per shard, so shards never evict each
    ///   other). `None` solves cold.
    pub fn place_on(
        &self,
        state: &mut ClusterState,
        requests: &[LraRequest],
        deployed_constraints: &[PlacementConstraint],
        allowed: Option<&[NodeId]>,
        arm: Option<PlacerMode>,
        cache: Option<&IlpBasisCache>,
    ) -> BatchPlacement {
        let greedy = |state: &mut ClusterState, heuristic: HeuristicScheduler| {
            heuristic
                .place_counted(state, requests, deployed_constraints, allowed)
                .0
        };
        let by_mode = |state: &mut ClusterState, mode| {
            let solve = match mode {
                PlacerMode::Ilp => ilp::solve,
                PlacerMode::Relaxed => relax::solve,
                PlacerMode::Heuristic => return greedy(state, self.ilp.anchor()).into(),
            };
            solve(
                state,
                requests,
                deployed_constraints,
                &self.ilp,
                allowed,
                cache,
                &self.metrics,
            )
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

#[cfg(test)]
mod tests {
    use super::*;
    use medea_cluster::{ApplicationId, NodeGroupId, Resources, Tag};

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
}
