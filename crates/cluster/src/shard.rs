//! Cluster sharding for partitioned LRA solving.
//!
//! Partitioned solving is the standard escape hatch for batch placement
//! at cluster scales where one monolithic solve is too slow: split the
//! node set into shards along fault-domain boundaries, solve each shard's
//! sub-batch against only its own nodes, and reconcile the few
//! cross-shard interactions at commit time. [`ShardPlan`] is the
//! partitioning layer: it groups whole racks (or service units, when
//! registered) into shards, so every group set of the sharding basis is
//! contained in exactly one shard and constraints scoped to those groups
//! never straddle a shard boundary.
//!
//! The plan is a cheap O(nodes) value rebuilt per scheduling round from
//! the current group registry — it holds no live references and does not
//! go stale while a solve is in flight.

use std::collections::HashMap;

use crate::groups::{NodeGroupId, NodeGroups};
use crate::node::NodeId;

/// Configuration of sharded solving (consumed by the scheduler layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Desired shard count; clamped to the number of basis group sets
    /// (a shard must contain whole racks/service units). `1` means no
    /// sharding: one monolithic solve per round.
    pub target_shards: usize,
}

impl ShardConfig {
    /// Sharding disabled (the default): one monolithic solve per round.
    pub fn disabled() -> Self {
        ShardConfig { target_shards: 1 }
    }

    /// Sharding with the given target shard count (`0` and `1` both
    /// mean disabled).
    pub fn with_shards(target_shards: usize) -> Self {
        ShardConfig {
            target_shards: target_shards.max(1),
        }
    }

    /// Whether rounds may be split at all: more than one shard is asked
    /// for. A round is actually sharded only when the plan built from
    /// the cluster's groups also has more than one shard.
    pub fn enabled(&self) -> bool {
        self.target_shards > 1
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig::disabled()
    }
}

/// A partition of the cluster's nodes into shards along group
/// boundaries.
///
/// Shards are built from the *sharding basis*: the service-unit group
/// when one is registered, the rack group otherwise (racks always exist —
/// [`crate::ClusterState::new`] registers them). Basis sets are assigned
/// contiguously, so shard node lists inherit the ascending node-id order
/// of the underlying partition — the same order a full node scan visits,
/// which keeps tie-breaking identical between sharded and unsharded
/// solves.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Nodes per shard, ascending node ids within each shard.
    shards: Vec<Vec<NodeId>>,
    /// Dense node index → shard index.
    node_shard: Vec<usize>,
    /// Whether every set of a registered group lies within one shard.
    aligned: HashMap<NodeGroupId, bool>,
}

impl ShardPlan {
    /// Builds a plan over the registry's groups targeting
    /// `target_shards` shards (clamped to the basis set count).
    pub fn build(groups: &NodeGroups, target_shards: usize) -> ShardPlan {
        let n = groups.num_nodes();
        let basis = if groups.is_registered(&NodeGroupId::service_unit()) {
            NodeGroupId::service_unit()
        } else {
            NodeGroupId::rack()
        };
        let sets = groups
            .sets_of(&basis)
            .unwrap_or_else(|_| vec![(0..n as u32).map(NodeId).collect()]);
        let num_sets = sets.len().max(1);
        let k = target_shards.clamp(1, num_sets);

        let mut shards: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        let mut node_shard = vec![0usize; n];
        let mut covered = vec![false; n];
        for (i, set) in sets.iter().enumerate() {
            let shard = i * k / num_sets;
            for &node in set {
                shards[shard].push(node);
                if let Some(slot) = node_shard.get_mut(node.index()) {
                    *slot = shard;
                }
                if let Some(c) = covered.get_mut(node.index()) {
                    *c = true;
                }
            }
        }
        // Nodes outside every basis set (custom registries) fall into
        // shard 0 so the plan always covers the cluster.
        for (i, c) in covered.iter().enumerate() {
            if !c {
                shards[0].push(NodeId(i as u32));
            }
        }
        for shard in &mut shards {
            shard.sort_unstable();
            shard.dedup();
        }

        // A group is shard-aligned when none of its sets straddles a
        // shard boundary: constraints scoped to it can be evaluated and
        // satisfied entirely within one shard's solve.
        let mut aligned = HashMap::new();
        for g in groups.group_ids() {
            let ok = groups.sets_of(g).map(|sets| {
                sets.iter().all(|set| {
                    let mut it = set.iter().map(|n| node_shard.get(n.index()).copied());
                    match it.next() {
                        Some(first) => it.all(|s| s == first),
                        None => true,
                    }
                })
            });
            aligned.insert(g.clone(), ok.unwrap_or(false));
        }

        ShardPlan {
            shards,
            node_shard,
            aligned,
        }
    }

    /// Number of shards in the plan (>= 1).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The nodes of one shard, ascending by node id.
    pub fn nodes(&self, shard: usize) -> &[NodeId] {
        self.shards
            .get(shard)
            .map(|v| v.as_slice())
            .unwrap_or_default()
    }

    /// The shard containing a node.
    pub fn shard_of(&self, node: NodeId) -> Option<usize> {
        self.node_shard.get(node.index()).copied()
    }

    /// Whether every set of `group` is contained in a single shard. The
    /// implicit per-node group is always aligned (singleton sets);
    /// unknown groups report unaligned (the conservative answer: their
    /// constraints go to the cross-shard residual solve).
    pub fn is_aligned(&self, group: &NodeGroupId) -> bool {
        if group.is_node() {
            return true;
        }
        self.aligned.get(group).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn groups(n: usize, racks: usize) -> NodeGroups {
        let mut g = NodeGroups::new(n);
        g.register_partition(NodeGroupId::rack(), racks);
        g
    }

    #[test]
    fn shards_cover_cluster_and_preserve_ascending_order() {
        let plan = ShardPlan::build(&groups(16, 4), 2);
        assert_eq!(plan.num_shards(), 2);
        let mut all: Vec<NodeId> = Vec::new();
        for s in 0..plan.num_shards() {
            let nodes = plan.nodes(s);
            assert!(nodes.windows(2).all(|w| w[0] < w[1]), "ascending order");
            for &n in nodes {
                assert_eq!(plan.shard_of(n), Some(s));
            }
            all.extend_from_slice(nodes);
        }
        all.sort_unstable();
        assert_eq!(all, (0..16u32).map(NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn target_clamped_to_basis_sets() {
        // 3 racks cannot produce more than 3 whole-rack shards.
        let plan = ShardPlan::build(&groups(12, 3), 8);
        assert_eq!(plan.num_shards(), 3);
        // And no rack straddles a shard.
        assert!(plan.is_aligned(&NodeGroupId::rack()));
    }

    #[test]
    fn service_unit_basis_preferred_when_registered() {
        let mut g = groups(12, 2);
        g.register(NodeGroupId::service_unit(), {
            let mut sets: Vec<Vec<NodeId>> = vec![Vec::new(); 4];
            for i in 0..12u32 {
                sets[(i / 3) as usize].push(NodeId(i));
            }
            sets
        });
        let plan = ShardPlan::build(&g, 4);
        assert_eq!(plan.num_shards(), 4);
        assert!(plan.is_aligned(&NodeGroupId::service_unit()));
        // 2 racks of 6 nodes each fit exactly into pairs of SU shards?
        // No: rack {0..5} spans shards {0,1}. Misaligned, as reported.
        assert!(!plan.is_aligned(&NodeGroupId::rack()));
    }

    #[test]
    fn alignment_of_node_and_unknown_groups() {
        let plan = ShardPlan::build(&groups(8, 2), 2);
        assert!(plan.is_aligned(&NodeGroupId::node()));
        assert!(!plan.is_aligned(&NodeGroupId::new("ghost")));
    }

    #[test]
    fn spanning_custom_group_is_unaligned() {
        let mut g = groups(8, 2);
        g.register(
            NodeGroupId::new("zone"),
            vec![(0..8u32).map(NodeId).collect()],
        );
        let plan = ShardPlan::build(&g, 2);
        assert!(!plan.is_aligned(&NodeGroupId::new("zone")));
        // A custom group nested inside one shard is aligned.
        let mut g2 = groups(8, 2);
        g2.register(
            NodeGroupId::new("cell"),
            vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]],
        );
        let plan2 = ShardPlan::build(&g2, 2);
        assert!(plan2.is_aligned(&NodeGroupId::new("cell")));
    }

    #[test]
    fn single_shard_plan_is_degenerate_but_valid() {
        let plan = ShardPlan::build(&groups(4, 2), 1);
        assert_eq!(plan.num_shards(), 1);
        assert_eq!(plan.nodes(0).len(), 4);
        assert!(plan.is_aligned(&NodeGroupId::rack()));
    }
}
