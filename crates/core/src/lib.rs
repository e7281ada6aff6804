//! The Medea scheduler: placement of long-running applications in shared
//! production clusters (EuroSys 2018).
//!
//! This crate implements the paper's primary contribution:
//!
//! - the **two-scheduler design** (§3): [`MedeaScheduler`] queues LRAs and
//!   places them in batches via a dedicated [`LraScheduler`], while a
//!   traditional [`TaskScheduler`] keeps allocating short-lived containers
//!   at heartbeat latency; all actual allocations go through one component,
//!   avoiding multi-scheduler conflicts;
//! - the **ILP-based placement algorithm** (§5.2, Fig. 5) over the
//!   `medea-solver` MILP engine, with all-or-nothing placement, soft
//!   constraint violations, and fragmentation in the objective;
//! - the **heuristics** of §5.3 (node candidates, tag popularity) plus the
//!   evaluation baselines: `Serial`, `J-Kube`, `J-Kube++`, and `YARN`;
//! - the **capability matrix** of Table 1;
//! - the **placer arms** under [`LraAlgorithm::Ilp`] ([`PlacerMode`]):
//!   the exact Fig. 5 ILP, or the §5.3 node-candidates heuristic the ILP
//!   is anchored on, validated so that no hard violation is committed
//!   (`PlacerMode::Relaxed` is an alias of the latter);
//! - the **container recovery pipeline** (§2.3, §7.3): on node loss,
//!   lost LRA containers are re-enqueued with anti-affinity to the
//!   failing fault domain, retried with exponential backoff under a
//!   bounded attempt budget, while a [`CircuitBreaker`] degrades
//!   placement `Ilp → Heuristic` after repeated solver stalls and probes
//!   back upward.
//!
//! See `medea-constraints` for the constraint language and
//! `medea-cluster` for the cluster model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capabilities;
mod durability;
mod heuristics;
mod ilp;
mod jkube;
mod ledger;
mod lifecycle;
mod lra;
mod medea;
mod migration;
mod objective;
mod obs_bridge;
mod reconcile;
mod recovery;
mod request;
mod round;
mod shared;
mod task_scheduler;
mod yarn;

pub use capabilities::{
    implemented_capabilities, paper_table1, render_table, CapabilityRow, Support,
};
pub use heuristics::{HeuristicScheduler, Ordering};
pub use ilp::IlpConfig;
pub use jkube::JKubeScheduler;
pub use lifecycle::{
    container_version, tag_version, version_tag, AppLifecycle, AppSpec, LifecyclePhase,
    LifecycleStats, VERSION_TAG_PREFIX,
};
pub use lra::{LraAlgorithm, LraScheduler, PlacerMode};
pub use medea::{
    CancelReport, InflightSolve, LraDeployment, MedeaScheduler, MedeaStats, NodeReport, QueuedLra,
    RestartReport,
};
pub use migration::Migration;
pub use objective::{ObjectiveWeights, Scorer};
pub use obs_bridge::SolverMetricsBridge;
pub use recovery::{
    fault_domain_tag, BreakerState, CircuitBreaker, NodeLossReport, RecoveryConfig, RecoveryReport,
    FAULT_DOMAIN_TAG,
};
pub use request::{
    BatchPlacement, Locality, LraPlacement, LraRequest, PlacementOutcome, TaskJobRequest,
};
pub use shared::{AppPhase, SharedScheduler, StatusBoard};
pub use task_scheduler::{
    QueueConfig, QueuePolicy, TaskAllocation, TaskScheduler, TaskSchedulerError,
};
pub use yarn::YarnScheduler;
