//! # Medea
//!
//! A complete Rust reproduction of *"Medea: Scheduling of Long Running
//! Applications in Shared Production Clusters"* (EuroSys 2018): an
//! expressive placement-constraint language over container tags and node
//! groups, an ILP-based LRA scheduler with global objectives, heuristic
//! and baseline schedulers, a YARN-like task scheduler, the two-scheduler
//! integration, and the simulation substrate used to reproduce every
//! table and figure of the paper's evaluation.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! name so applications can depend on `medea` alone.
//!
//! - [`cluster`] — nodes, resources, node groups, tags ([`medea_cluster`]);
//! - [`constraints`] — the §4 constraint language ([`medea_constraints`]);
//! - [`scheduler`] — the §3/§5 schedulers ([`medea_core`]);
//! - [`solver`] — the MILP engine ([`medea_solver`]);
//! - [`sim`] — simulator, workloads, models ([`medea_sim`]).
//!
//! # Quickstart
//!
//! ```
//! use medea::prelude::*;
//!
//! // A 8-node cluster in 2 racks.
//! let cluster = ClusterState::homogeneous(8, Resources::new(16 * 1024, 16), 2);
//! let mut medea = MedeaScheduler::new(cluster, LraAlgorithm::Ilp, 10);
//!
//! // A 4-container service that wants one container per node.
//! let app = ApplicationId(1);
//! let req = LraRequest::uniform(
//!     app,
//!     4,
//!     Resources::new(2048, 1),
//!     vec![Tag::new("svc")],
//!     vec![PlacementConstraint::anti_affinity("svc", "svc", NodeGroupId::node())],
//! );
//! medea.submit_lra(req, 0).unwrap();
//! let deployed = medea.tick(0);
//! assert_eq!(deployed.len(), 1);
//! assert_eq!(deployed[0].containers.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use medea_cluster as cluster;
pub use medea_constraints as constraints;
pub use medea_core as scheduler;
pub use medea_sim as sim;
pub use medea_solver as solver;

/// One-stop imports for the common API surface.
pub mod prelude {
    pub use medea_cluster::{
        ApplicationId, ClusterState, ContainerId, ContainerRequest, ExecutionKind, Node,
        NodeGroupId, NodeGroups, NodeId, Resources, Tag, TagMultiset,
    };
    pub use medea_constraints::{
        parse_constraint, Cardinality, ConstraintManager, PlacementConstraint, TagConstraint,
        TagConstraintExpr, TagExpr,
    };
    pub use medea_core::{
        IlpConfig, Locality, LraAlgorithm, LraDeployment, LraRequest, LraScheduler, MedeaScheduler,
        ObjectiveWeights, PlacementOutcome, QueueConfig, QueuePolicy, TaskJobRequest,
        TaskScheduler,
    };
}
