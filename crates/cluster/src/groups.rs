//! Node groups: logical, possibly overlapping categories of node sets
//! (§4.1 — `node`, `rack`, fault/upgrade domains, service units).
//!
//! Node groups let constraints target "a rack" or "an upgrade domain"
//! without enumerating machines, which is what makes Medea's constraints
//! high-level (requirement R2): the cluster operator registers groups once,
//! and constraints remain valid as the cluster changes.

use std::collections::HashMap;
use std::fmt;

use crate::node::NodeId;

/// Identifier of a registered node group (e.g. `rack`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeGroupId(String);

impl NodeGroupId {
    /// Creates a group identifier from a name.
    pub fn new(name: impl Into<String>) -> Self {
        NodeGroupId(name.into())
    }

    /// The predefined `node` group: one singleton set per cluster node.
    pub fn node() -> Self {
        NodeGroupId::new("node")
    }

    /// The predefined `rack` group.
    pub fn rack() -> Self {
        NodeGroupId::new("rack")
    }

    /// The conventional upgrade-domain group used in the paper's examples.
    pub fn upgrade_domain() -> Self {
        NodeGroupId::new("upgrade_domain")
    }

    /// The service-unit group of the paper's Microsoft clusters (§2.3).
    pub fn service_unit() -> Self {
        NodeGroupId::new("service_unit")
    }

    /// Returns the group name.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether this is the implicit `node` group (singleton sets that are
    /// synthesized on the fly rather than stored).
    pub fn is_node(&self) -> bool {
        self.0 == "node"
    }
}

impl fmt::Display for NodeGroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Index of a node set within its group.
pub type NodeSetIndex = usize;

/// Errors from the node-group registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupError {
    /// The group name is not registered.
    UnknownGroup(NodeGroupId),
}

impl fmt::Display for GroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupError::UnknownGroup(g) => write!(f, "unknown node group '{g}'"),
        }
    }
}

impl std::error::Error for GroupError {}

/// Registry of node groups and their member node sets.
///
/// Within a group, sets may overlap (a node may belong to several sets);
/// across groups they routinely do (every node is in some rack *and* some
/// upgrade domain). The predefined `node` group is maintained implicitly.
///
/// # Examples
///
/// ```
/// use medea_cluster::{NodeGroups, NodeGroupId, NodeId};
///
/// let mut groups = NodeGroups::new(4);
/// groups.register(
///     NodeGroupId::rack(),
///     vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]],
/// );
/// let rack_of_2 = groups.sets_containing(&NodeGroupId::rack(), NodeId(2)).unwrap();
/// assert_eq!(rack_of_2, vec![1]);
/// ```
#[derive(Debug, Clone)]
pub struct NodeGroups {
    num_nodes: usize,
    /// Group -> list of node sets.
    sets: HashMap<NodeGroupId, Vec<Vec<NodeId>>>,
    /// Group -> node index -> set indices containing the node.
    membership: HashMap<NodeGroupId, Vec<Vec<NodeSetIndex>>>,
}

impl NodeGroups {
    /// Creates a registry for a cluster of `num_nodes` nodes with only the
    /// predefined `node` group.
    pub fn new(num_nodes: usize) -> Self {
        NodeGroups {
            num_nodes,
            sets: HashMap::new(),
            membership: HashMap::new(),
        }
    }

    /// Number of nodes this registry covers.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Registers (or replaces) a group given its node sets.
    ///
    /// Node ids outside the cluster are ignored when building the
    /// membership index.
    pub fn register(&mut self, group: NodeGroupId, node_sets: Vec<Vec<NodeId>>) {
        let mut member: Vec<Vec<NodeSetIndex>> = vec![Vec::new(); self.num_nodes];
        for (si, set) in node_sets.iter().enumerate() {
            for &n in set {
                if (n.0 as usize) < self.num_nodes {
                    member[n.0 as usize].push(si);
                }
            }
        }
        self.membership.insert(group.clone(), member);
        self.sets.insert(group, node_sets);
    }

    /// Convenience: registers a group as an equal partition of the cluster
    /// into `parts` contiguous sets (how the simulator builds racks).
    pub fn register_partition(&mut self, group: NodeGroupId, parts: usize) {
        let parts = parts.max(1);
        let mut sets: Vec<Vec<NodeId>> = vec![Vec::new(); parts];
        for i in 0..self.num_nodes {
            sets[i * parts / self.num_nodes.max(1)].push(NodeId(i as u32));
        }
        self.register(group, sets);
    }

    /// Returns `true` if the group is known (including `node`).
    pub fn is_registered(&self, group: &NodeGroupId) -> bool {
        group.is_node() || self.sets.contains_key(group)
    }

    /// Returns the node sets of a group.
    ///
    /// The `node` group is synthesized on the fly as singletons.
    pub fn sets_of(&self, group: &NodeGroupId) -> Result<Vec<Vec<NodeId>>, GroupError> {
        if group.is_node() {
            return Ok((0..self.num_nodes)
                .map(|i| vec![NodeId(i as u32)])
                .collect());
        }
        self.sets
            .get(group)
            .cloned()
            .ok_or_else(|| GroupError::UnknownGroup(group.clone()))
    }

    /// Returns the indices of the group's sets that contain `node`.
    pub fn sets_containing(
        &self,
        group: &NodeGroupId,
        node: NodeId,
    ) -> Result<Vec<NodeSetIndex>, GroupError> {
        if group.is_node() {
            return Ok(vec![node.0 as usize]);
        }
        let member = self
            .membership
            .get(group)
            .ok_or_else(|| GroupError::UnknownGroup(group.clone()))?;
        Ok(member.get(node.0 as usize).cloned().unwrap_or_default())
    }

    /// Returns the members of one set of a group.
    pub fn set_members(
        &self,
        group: &NodeGroupId,
        set: NodeSetIndex,
    ) -> Result<Vec<NodeId>, GroupError> {
        if group.is_node() {
            return Ok(vec![NodeId(set as u32)]);
        }
        let sets = self
            .sets
            .get(group)
            .ok_or_else(|| GroupError::UnknownGroup(group.clone()))?;
        Ok(sets.get(set).cloned().unwrap_or_default())
    }

    /// Borrowed variant of [`NodeGroups::sets_containing`]: the set indices
    /// containing `node`, without cloning. Returns `None` for the implicit
    /// `node` group (whose sets are synthesized, not stored) and for
    /// unknown groups — callers on hot paths special-case `node` and fall
    /// back to the cloning accessor otherwise.
    pub fn sets_containing_ref(
        &self,
        group: &NodeGroupId,
        node: NodeId,
    ) -> Option<&[NodeSetIndex]> {
        self.membership
            .get(group)?
            .get(node.0 as usize)
            .map(|v| v.as_slice())
    }

    /// Borrowed variant of [`NodeGroups::set_members`]; same `None` cases
    /// as [`NodeGroups::sets_containing_ref`], plus out-of-range set
    /// indices.
    pub fn set_members_ref(&self, group: &NodeGroupId, set: NodeSetIndex) -> Option<&[NodeId]> {
        self.sets.get(group)?.get(set).map(|v| v.as_slice())
    }

    /// Lists all registered group ids (excluding the implicit `node`).
    pub fn group_ids(&self) -> impl Iterator<Item = &NodeGroupId> {
        self.sets.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_group_is_implicit() {
        let g = NodeGroups::new(3);
        assert!(g.is_registered(&NodeGroupId::node()));
        assert_eq!(g.sets_of(&NodeGroupId::node()).unwrap().len(), 3);
        assert_eq!(
            g.sets_containing(&NodeGroupId::node(), NodeId(2)).unwrap(),
            vec![2]
        );
        assert_eq!(
            g.set_members(&NodeGroupId::node(), 1).unwrap(),
            vec![NodeId(1)]
        );
    }

    #[test]
    fn unknown_group_errors() {
        let g = NodeGroups::new(2);
        let err = g.sets_of(&NodeGroupId::rack()).unwrap_err();
        assert_eq!(err, GroupError::UnknownGroup(NodeGroupId::rack()));
    }

    #[test]
    fn partition_covers_all_nodes() {
        let mut g = NodeGroups::new(10);
        g.register_partition(NodeGroupId::rack(), 3);
        let sets = g.sets_of(&NodeGroupId::rack()).unwrap();
        assert_eq!(sets.len(), 3);
        let total: usize = sets.iter().map(|s| s.len()).sum();
        assert_eq!(total, 10);
        for n in 0..10 {
            let m = g.sets_containing(&NodeGroupId::rack(), NodeId(n)).unwrap();
            assert_eq!(m.len(), 1);
        }
    }

    #[test]
    fn overlapping_sets_within_group() {
        let mut g = NodeGroups::new(4);
        g.register(
            NodeGroupId::new("zone"),
            vec![vec![NodeId(0), NodeId(1)], vec![NodeId(1), NodeId(2)]],
        );
        assert_eq!(
            g.sets_containing(&NodeGroupId::new("zone"), NodeId(1))
                .unwrap(),
            vec![0, 1]
        );
        assert!(g
            .sets_containing(&NodeGroupId::new("zone"), NodeId(3))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn reregistering_replaces() {
        let mut g = NodeGroups::new(4);
        g.register_partition(NodeGroupId::rack(), 2);
        g.register_partition(NodeGroupId::rack(), 4);
        assert_eq!(g.sets_of(&NodeGroupId::rack()).unwrap().len(), 4);
    }
}
