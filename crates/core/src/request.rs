//! Application submission types: LRA requests with constraints and
//! task-based job requests (Medea's LRA interface, §3).
//!
//! Applications that use the constraints API are handled by the LRA
//! scheduler; applications using the plain container-request API go to the
//! task-based scheduler — this routing is the essence of the two-scheduler
//! design.

use medea_cluster::{
    ApplicationId, ClusterState, ContainerId, ContainerRequest, ExecutionKind, NodeId, Resources,
    Tag,
};
use medea_constraints::PlacementConstraint;

/// A long-running application submission: containers plus placement
/// constraints (§3 "LRA interface").
#[derive(Debug, Clone)]
pub struct LraRequest {
    /// Application identity (also auto-tagged onto every container).
    pub app: ApplicationId,
    /// The containers to place, all-or-nothing (ILP Eq. 4).
    pub containers: Vec<ContainerRequest>,
    /// Placement constraints submitted with the application.
    pub constraints: Vec<PlacementConstraint>,
}

impl LraRequest {
    /// Creates an LRA request.
    pub fn new(
        app: ApplicationId,
        containers: Vec<ContainerRequest>,
        constraints: Vec<PlacementConstraint>,
    ) -> Self {
        LraRequest {
            app,
            containers,
            constraints,
        }
    }

    /// Creates `count` identical containers with the given tags.
    pub fn uniform(
        app: ApplicationId,
        count: usize,
        resources: Resources,
        tags: Vec<Tag>,
        constraints: Vec<PlacementConstraint>,
    ) -> Self {
        let containers = (0..count)
            .map(|_| ContainerRequest::new(resources, tags.clone()))
            .collect();
        LraRequest::new(app, containers, constraints)
    }

    /// Number of containers requested (`T_i` in the ILP).
    pub fn num_containers(&self) -> usize {
        self.containers.len()
    }

    /// Total resources requested.
    pub fn total_resources(&self) -> Resources {
        self.containers.iter().map(|c| c.resources).sum()
    }

    /// Allocates every container on the node `node_of` picks for it — in
    /// container order, each pick seeing the earlier ones allocated — or
    /// none: the first missing pick or refused allocation releases the
    /// earlier ones.
    pub(crate) fn allocate_all(
        &self,
        state: &mut ClusterState,
        mut node_of: impl FnMut(&mut ClusterState, usize) -> Option<NodeId>,
    ) -> Option<Vec<ContainerId>> {
        let mut ids = Vec::with_capacity(self.containers.len());
        for (k, c) in self.containers.iter().enumerate() {
            let allocated = node_of(state, k).and_then(|n| {
                state
                    .allocate(self.app, n, c, ExecutionKind::LongRunning)
                    .ok()
            });
            let Some(id) = allocated else {
                for id in ids {
                    let _ = state.release(id);
                }
                return None;
            };
            ids.push(id);
        }
        Some(ids)
    }
}

/// Locality preference of a task container (YARN-style resource request).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Locality {
    /// Prefer a specific node, relaxing to its rack and then anywhere.
    Node(NodeId),
    /// Prefer a specific rack (by rack set index), relaxing to anywhere.
    Rack(usize),
    /// No preference.
    Any,
}

/// A task-based job: a batch of short-lived container requests routed
/// directly to the task-based scheduler.
#[derive(Debug, Clone)]
pub struct TaskJobRequest {
    /// Application identity.
    pub app: ApplicationId,
    /// Queue the job is submitted to (capacity scheduler).
    pub queue: String,
    /// Per-task resource demand.
    pub resources: Resources,
    /// Number of tasks.
    pub count: usize,
    /// Locality preference applied to every task of the job.
    pub locality: Locality,
    /// Tags carried by the task containers (lets LRA constraints target
    /// them, e.g. "no batch tasks next to my latency-critical service").
    pub tags: Vec<Tag>,
    /// Placement constraints handled *heuristically* by the task
    /// scheduler (§5.4): preferred like locality, relaxed after a few
    /// missed heartbeats so task latency is never held hostage.
    pub constraints: Vec<PlacementConstraint>,
}

impl TaskJobRequest {
    /// Creates a task job with no locality preference on queue `default`.
    pub fn new(app: ApplicationId, resources: Resources, count: usize) -> Self {
        TaskJobRequest {
            app,
            queue: "default".to_string(),
            resources,
            count,
            locality: Locality::Any,
            tags: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Sets the target queue.
    pub fn on_queue(mut self, queue: impl Into<String>) -> Self {
        self.queue = queue.into();
        self
    }

    /// Sets the locality preference.
    pub fn with_locality(mut self, locality: Locality) -> Self {
        self.locality = locality;
        self
    }

    /// Attaches container tags.
    pub fn with_tags(mut self, tags: impl IntoIterator<Item = Tag>) -> Self {
        self.tags = tags.into_iter().collect();
        self
    }

    /// Attaches heuristically-handled placement constraints (§5.4), e.g.
    /// rack affinity of a map/reduce job toward a Memcached LRA.
    pub fn with_constraints(
        mut self,
        constraints: impl IntoIterator<Item = PlacementConstraint>,
    ) -> Self {
        self.constraints = constraints.into_iter().collect();
        self
    }
}

/// The placement decided for one LRA: one node per container, in container
/// order. Produced by the LRA scheduler, committed by the task scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LraPlacement {
    /// The application placed.
    pub app: ApplicationId,
    /// Chosen node per container (same order as the request).
    pub nodes: Vec<NodeId>,
}

/// Outcome of one LRA scheduling attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementOutcome {
    /// All containers placed.
    Placed(LraPlacement),
    /// The scheduler could not place all containers (Eq. 4 all-or-nothing);
    /// the LRA should be resubmitted in a later interval (§5.4).
    Unplaced {
        /// The application that could not be placed.
        app: ApplicationId,
    },
}

impl PlacementOutcome {
    /// Returns the placement if all containers were placed.
    pub fn placement(&self) -> Option<&LraPlacement> {
        match self {
            PlacementOutcome::Placed(p) => Some(p),
            PlacementOutcome::Unplaced { .. } => None,
        }
    }

    /// The application concerned.
    pub fn app(&self) -> ApplicationId {
        match self {
            PlacementOutcome::Placed(p) => p.app,
            PlacementOutcome::Unplaced { app } => *app,
        }
    }
}

/// What one placement call produced for a batch: the result every arm
/// returns.
#[derive(Debug, Clone)]
pub struct BatchPlacement {
    /// One outcome per request, in request order.
    pub outcomes: Vec<PlacementOutcome>,
    /// The exact arm gave up on the batch — a validation error or a
    /// limit hit before any incumbent — and served the heuristic
    /// placement instead: the signal the circuit breaker counts. Always
    /// `false` for the arms that have no solver.
    pub degraded: bool,
}

impl From<Vec<PlacementOutcome>> for BatchPlacement {
    /// A solver-free result: nothing to degrade, nothing to report.
    fn from(outcomes: Vec<PlacementOutcome>) -> Self {
        BatchPlacement {
            outcomes,
            degraded: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_builds_identical_containers() {
        let r = LraRequest::uniform(
            ApplicationId(1),
            4,
            Resources::new(2048, 1),
            vec![Tag::new("hb")],
            vec![],
        );
        assert_eq!(r.num_containers(), 4);
        assert_eq!(r.total_resources(), Resources::new(8192, 4));
        assert!(r.containers.iter().all(|c| c.tags == vec![Tag::new("hb")]));
    }

    #[test]
    fn task_job_builder() {
        let j = TaskJobRequest::new(ApplicationId(2), Resources::new(1024, 1), 10)
            .on_queue("batch")
            .with_locality(Locality::Rack(3));
        assert_eq!(j.queue, "batch");
        assert_eq!(j.locality, Locality::Rack(3));
    }

    #[test]
    fn outcome_accessors() {
        let p = PlacementOutcome::Placed(LraPlacement {
            app: ApplicationId(1),
            nodes: vec![NodeId(0)],
        });
        assert!(p.placement().is_some());
        assert_eq!(p.app(), ApplicationId(1));
        let u = PlacementOutcome::Unplaced {
            app: ApplicationId(2),
        };
        assert!(u.placement().is_none());
        assert_eq!(u.app(), ApplicationId(2));
    }
}
