//! Cluster model substrate for the Medea scheduler.
//!
//! This crate reproduces the cluster-state layer the paper builds on
//! (Apache Hadoop YARN's resource-manager view of the cluster, §6):
//! nodes with vector resources, logical node groups (racks, fault and
//! upgrade domains, service units — §2.3/§4.1), container tags with the
//! tag-cardinality function `γ` (§4.1), and allocation bookkeeping with
//! capacity enforcement.
//!
//! Higher layers build on it: `medea-constraints` defines placement
//! constraints over tags and node groups, and `medea-core` implements the
//! schedulers that read and mutate [`ClusterState`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod container;
mod groups;
mod index;
mod node;
mod resources;
mod restore;
mod shard;
mod snapshot;
mod state;
mod tags;

pub use container::{ApplicationId, ContainerId, ContainerRequest, ExecutionKind};
pub use groups::{GroupError, NodeGroupId, NodeGroups, NodeSetIndex};
pub use index::IndexStats;
pub use node::{Node, NodeId};
pub use resources::Resources;
pub use restore::RestoreError;
pub use shard::{ShardConfig, ShardPlan};
pub use snapshot::ClusterSnapshot;
pub use state::{
    state_clones, Allocation, ClusterError, ClusterState, Scratch, UtilizationStats,
    CHANGED_APPS_CAP,
};
pub use tags::{Tag, TagMultiset};
