//! Live cluster state: allocations, free resources, and dynamic tag sets.
//!
//! `ClusterState` is the single source of truth shared by Medea's two
//! schedulers (§3, Fig. 4 "Cluster State"): the task-based scheduler
//! performs *all* actual allocations against it, which is how Medea avoids
//! the conflicting-placement problem of multi-level schedulers.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex};

use medea_journal::{JournalOp, JournalRecord, Wal};

use crate::container::{ApplicationId, ContainerId, ContainerRequest, ExecutionKind};
use crate::groups::{NodeGroupId, NodeGroups};
use crate::index::{ClusterIndex, IndexStats};
use crate::node::{Node, NodeId};
use crate::resources::Resources;
use crate::tags::{Tag, TagMultiset};

/// A live, allocated container.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Container identifier.
    pub id: ContainerId,
    /// Owning application.
    pub app: ApplicationId,
    /// Hosting node.
    pub node: NodeId,
    /// Allocated resources.
    pub resources: Resources,
    /// Tags carried by this container (includes the automatic `appid:`).
    pub tags: Vec<Tag>,
    /// Long-running or task container.
    pub kind: ExecutionKind,
}

/// Errors from allocation and release operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The node id is out of range.
    UnknownNode(NodeId),
    /// The container id is not currently allocated.
    UnknownContainer(ContainerId),
    /// The node lacks free resources for the request.
    InsufficientResources {
        /// Target node.
        node: NodeId,
        /// Free resources at the time of the request.
        free: Resources,
        /// Requested resources.
        requested: Resources,
    },
    /// The node is marked unavailable (failed, upgrading).
    NodeUnavailable(NodeId),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownNode(n) => write!(f, "unknown node {n}"),
            ClusterError::UnknownContainer(c) => write!(f, "unknown container {c}"),
            ClusterError::InsufficientResources {
                node,
                free,
                requested,
            } => write!(
                f,
                "insufficient resources on {node}: free {free}, requested {requested}"
            ),
            ClusterError::NodeUnavailable(n) => write!(f, "node {n} is unavailable"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Per-node dynamic state.
#[derive(Debug, Clone)]
pub(crate) struct NodeState {
    pub(crate) free: Resources,
    pub(crate) tags: TagMultiset,
    pub(crate) containers: Vec<ContainerId>,
    pub(crate) available: bool,
    pub(crate) tags_removed: bool,
}

/// Aggregate utilization metrics used by the global-objective experiments
/// (§7.4): fragmentation and load imbalance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationStats {
    /// Fraction of *fragmented* nodes: free resources below the
    /// fragmentation threshold while the node is not fully utilized.
    pub fragmented_fraction: f64,
    /// Coefficient of variation of per-node memory utilization.
    pub memory_cv: f64,
    /// Mean per-node memory utilization in `[0, 1]`.
    pub mean_memory_utilization: f64,
}

/// Live cluster state: nodes, groups, and allocations.
///
/// # Examples
///
/// ```
/// use medea_cluster::{ClusterState, Node, NodeId, Resources, ContainerRequest,
///     ApplicationId, ExecutionKind, Tag};
///
/// let nodes = (0..4).map(|i| Node::new(NodeId(i), Resources::new(8192, 8)));
/// let mut cluster = ClusterState::new(nodes, 2);
/// let req = ContainerRequest::new(Resources::new(2048, 1), [Tag::new("hb")]);
/// let c = cluster
///     .allocate(ApplicationId(1), NodeId(0), &req, ExecutionKind::LongRunning)
///     .unwrap();
/// assert_eq!(cluster.gamma(NodeId(0), &Tag::new("hb")), 1);
/// cluster.release(c).unwrap();
/// assert_eq!(cluster.gamma(NodeId(0), &Tag::new("hb")), 0);
/// ```
#[derive(Debug)]
pub struct ClusterState {
    /// Static node descriptions: never mutated after construction, so
    /// copies share them.
    pub(crate) nodes: Arc<[Node]>,
    pub(crate) node_state: Vec<NodeState>,
    /// Mutated only by [`ClusterState::register_group`] (copy-on-write
    /// there); copies share it.
    pub(crate) groups: Arc<NodeGroups>,
    pub(crate) allocations: HashMap<ContainerId, Allocation>,
    pub(crate) app_containers: HashMap<ApplicationId, Vec<ContainerId>>,
    pub(crate) next_container: u64,
    /// Per-group, per-set tag multisets, maintained incrementally on
    /// allocate/release so that `γ_𝒮(t)` queries over racks and other
    /// large node sets are O(1) instead of O(|𝒮|). Rebuilt whenever the
    /// group registry changes (see [`ClusterState::register_group`]).
    pub(crate) group_tags: HashMap<NodeGroupId, Vec<TagMultiset>>,
    /// Incremental tag/free-capacity indexes (see [`crate::index`]),
    /// maintained in O(Δ) on every allocate/release/retag.
    index: ClusterIndex,
    /// Global mutation epoch: incremented by every state-changing
    /// operation (allocate, release, tag/availability/group changes).
    /// Each journal record carries the epoch it was appended at, which
    /// is how restore orders the log tail after a checkpoint.
    pub(crate) epoch: u64,
    /// Attached write-ahead journal, if any (see [`crate::restore`]).
    /// Every mutation outside a [`Scratch`] guard appends one
    /// epoch-stamped record.
    /// Deliberately absent from clones: snapshots and other copies are
    /// scratch state whose mutations must never reach the log — only the
    /// live state journals.
    pub(crate) journal: Option<Arc<Mutex<Wal>>>,
    /// Containers allocated under the open [`Scratch`] guards, oldest
    /// first; empty whenever none is open.
    scratch_log: Vec<ContainerId>,
    /// `Some(mark)` while a [`Scratch`] guard is open: `allocate` and
    /// `release` are then tentative, and `scratch_log[mark..]` is what
    /// the innermost guard still has to release.
    scratch_open: Option<usize>,
    /// Apps whose live container list changed since the last
    /// [`ClusterState::take_changed_apps`], repeats in a row folded.
    /// `None` while unknown: on a fresh, cloned or restored state, until
    /// the first drain (nothing is recorded for a state nobody drains),
    /// and once the log outgrew [`CHANGED_APPS_CAP`].
    changed_apps: Option<Vec<ApplicationId>>,
    /// Threshold below which a non-idle node counts as fragmented
    /// (default: 2 GB / 1 core, the paper's §7.4 definition).
    pub fragmentation_threshold: Resources,
}

/// Bound on the changed-apps log between two drains: past it the log
/// is dropped and the next drain answers "unknown".
pub const CHANGED_APPS_CAP: usize = 4096;

thread_local! {
    static STATE_CLONES: Cell<u64> = const { Cell::new(0) };
}

/// [`ClusterState`] deep copies this thread has made so far, counted where
/// they happen: "copies per scheduling round" is an exact difference.
pub fn state_clones() -> u64 {
    STATE_CLONES.with(Cell::get)
}

impl Clone for ClusterState {
    fn clone(&self) -> Self {
        STATE_CLONES.with(|n| n.set(n.get() + 1));
        ClusterState {
            nodes: self.nodes.clone(),
            node_state: self.node_state.clone(),
            groups: self.groups.clone(),
            allocations: self.allocations.clone(),
            app_containers: self.app_containers.clone(),
            next_container: self.next_container,
            group_tags: self.group_tags.clone(),
            index: self.index.clone(),
            epoch: self.epoch,
            // The journal is intentionally NOT cloned: a clone is scratch
            // state (snapshot, what-if copy) and journaling its mutations
            // would corrupt the durable history of the live state.
            journal: None,
            // A copy is its own base: whatever a guard holds on the
            // original is plain content here.
            scratch_log: Vec::new(),
            scratch_open: None,
            // Nobody drains a copy's changes: unknown until someone does.
            changed_apps: None,
            fragmentation_threshold: self.fragmentation_threshold,
        }
    }
}

/// A rollback guard over a [`ClusterState`]: a scheduling round's solver
/// stages place containers tentatively on the live state and leave it
/// exactly as found.
///
/// Reads are the state's own API (through `Deref`). While the guard is
/// open, [`ClusterState::allocate`] and [`ClusterState::release`] are
/// *tentative*: they maintain everything a placer reads (free resources,
/// `γ`, the indexes, the per-app lists) but do not bump the epoch, never
/// reach an attached journal, and are logged. Dropping the guard — on
/// any path, early return and panic unwinding included — releases what
/// is still allocated, newest first, and restores the container-id
/// counter and the index's `update_ops`, so [`ClusterState::digest`]
/// reads byte for byte what it read before and tentative work does not
/// count as index upkeep. Guards nest ([`ClusterState::scratch`] on a
/// guard): the inner one rolls back to where it was opened. A guard can
/// release only what it allocated, and rolls back nothing but
/// allocations: availability, node tags and groups must not change under
/// one.
#[derive(Debug)]
pub struct Scratch<'a> {
    state: &'a mut ClusterState,
    /// The enclosing guard's mark (`None`: this is the outermost).
    outer: Option<usize>,
    next_container: u64,
    update_ops: u64,
}

impl Deref for Scratch<'_> {
    type Target = ClusterState;

    fn deref(&self) -> &ClusterState {
        self.state
    }
}

impl DerefMut for Scratch<'_> {
    fn deref_mut(&mut self) -> &mut ClusterState {
        self.state
    }
}

impl Drop for Scratch<'_> {
    fn drop(&mut self) {
        let mark = self.state.scratch_open.unwrap_or(0);
        for id in self.state.scratch_log.split_off(mark).into_iter().rev() {
            let _ = self.state.release_inner(id);
        }
        self.state.next_container = self.next_container;
        self.state.index.update_ops = self.update_ops;
        self.state.scratch_open = self.outer;
    }
}

impl ClusterState {
    /// Creates a cluster from nodes, registering a `rack` partition with
    /// `racks` racks.
    pub fn new(nodes: impl IntoIterator<Item = Node>, racks: usize) -> Self {
        let nodes: Vec<Node> = nodes.into_iter().collect();
        let mut groups = NodeGroups::new(nodes.len());
        groups.register_partition(NodeGroupId::rack(), racks);
        Self::with_groups(nodes, groups)
    }

    /// Creates a cluster with a custom group registry.
    pub fn with_groups(nodes: Vec<Node>, groups: NodeGroups) -> Self {
        let node_state = nodes
            .iter()
            .map(|n| NodeState {
                free: n.capacity,
                tags: n.static_tags.iter().cloned().collect(),
                containers: Vec::new(),
                available: true,
                tags_removed: false,
            })
            .collect();
        let mut state = ClusterState {
            nodes: nodes.into(),
            node_state,
            groups: Arc::new(groups),
            allocations: HashMap::new(),
            app_containers: HashMap::new(),
            next_container: 0,
            group_tags: HashMap::new(),
            index: ClusterIndex::default(),
            epoch: 0,
            journal: None,
            scratch_log: Vec::new(),
            scratch_open: None,
            changed_apps: None,
            fragmentation_threshold: Resources::new(2048, 1),
        };
        state.rebuild_group_tags();
        state.rebuild_index();
        state
    }

    /// Appends one journal record at the current epoch, if a journal is
    /// attached. Best-effort: storage failures are counted in
    /// [`medea_journal::JournalStats::append_errors`], not propagated —
    /// placement must not start failing because the journal's disk did.
    fn record(&self, op: JournalOp) {
        if let Some(journal) = &self.journal {
            let mut wal = match journal.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            wal.append_best_effort(&JournalRecord {
                epoch: self.epoch,
                op,
            });
        }
    }

    /// Rebuilds the incremental indexes from scratch (O(nodes × tags)).
    fn rebuild_index(&mut self) {
        self.index.rebuild(
            self.node_state
                .iter()
                .enumerate()
                .map(|(i, s)| (i as u32, &s.tags, s.free)),
        );
    }

    /// Records one mutation: bumps the global epoch.
    fn touch(&mut self) {
        debug_assert!(
            self.scratch_open.is_none(),
            "a Scratch guard rolls back allocations only"
        );
        self.epoch += 1;
    }

    /// The global mutation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A deep copy of this state, detached from its journal (see
    /// [`crate::ClusterSnapshot::capture`]).
    pub fn snapshot(&self) -> crate::ClusterSnapshot {
        crate::ClusterSnapshot::capture(self)
    }

    /// Opens a rollback guard: until it drops, `allocate` / `release`
    /// are tentative and undone on drop (see [`Scratch`]).
    pub fn scratch(&mut self) -> Scratch<'_> {
        Scratch {
            outer: self.scratch_open.replace(self.scratch_log.len()),
            next_container: self.next_container,
            update_ops: self.index.update_ops,
            state: self,
        }
    }

    /// Maintenance/query counters of the index layer (the `cluster.index_*`
    /// metrics).
    pub fn index_stats(&self) -> IndexStats {
        self.index.stats()
    }

    /// Registers (or replaces) a node group and refreshes the per-set tag
    /// caches. Use this instead of mutating the registry directly so the
    /// `γ_𝒮` caches stay coherent.
    pub fn register_group(&mut self, group: NodeGroupId, node_sets: Vec<Vec<NodeId>>) {
        let journal_op = self.journal.is_some().then(|| JournalOp::RegisterGroup {
            group: group.as_str().to_string(),
            sets: node_sets
                .iter()
                .map(|set| set.iter().map(|n| n.0).collect())
                .collect(),
        });
        Arc::make_mut(&mut self.groups).register(group, node_sets);
        self.rebuild_group_tags();
        self.touch();
        if let Some(op) = journal_op {
            self.record(op);
        }
    }

    /// Rebuilds every group's per-set tag multiset from current state.
    fn rebuild_group_tags(&mut self) {
        let group_ids: Vec<NodeGroupId> = self.groups.group_ids().cloned().collect();
        self.group_tags.clear();
        for g in group_ids {
            let Ok(sets) = self.groups.sets_of(&g) else {
                continue;
            };
            let multisets: Vec<TagMultiset> = sets
                .iter()
                .map(|members| {
                    let sets: Vec<&TagMultiset> = members
                        .iter()
                        .filter_map(|n| self.node_state.get(n.index()).map(|s| &s.tags))
                        .collect();
                    TagMultiset::union(sets)
                })
                .collect();
            self.group_tags.insert(g, multisets);
        }
    }

    /// `γ_𝒮(t)` for set `set_idx` of `group`, O(1) for registered groups
    /// (falls back to scanning the set's members otherwise). The implicit
    /// `node` group delegates to [`ClusterState::gamma`].
    pub fn gamma_in_set(&self, group: &NodeGroupId, set_idx: usize, tag: &Tag) -> u32 {
        if group.is_node() {
            return self.gamma(NodeId(set_idx as u32), tag);
        }
        if let Some(sets) = self.group_tags.get(group) {
            return sets.get(set_idx).map(|m| m.count(tag)).unwrap_or(0);
        }
        self.groups
            .set_members(group, set_idx)
            .map(|members| self.gamma_set(&members, tag))
            .unwrap_or(0)
    }

    /// Builds a homogeneous cluster: `n` nodes of equal `capacity` in
    /// `racks` racks (the shape of every experiment in §7).
    pub fn homogeneous(n: usize, capacity: Resources, racks: usize) -> Self {
        ClusterState::new((0..n).map(|i| Node::new(NodeId(i as u32), capacity)), racks)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(|i| NodeId(i as u32))
    }

    /// Returns the static description of a node.
    pub fn node(&self, id: NodeId) -> Result<&Node, ClusterError> {
        self.nodes
            .get(id.index())
            .ok_or(ClusterError::UnknownNode(id))
    }

    /// Returns the node-group registry.
    pub fn groups(&self) -> &NodeGroups {
        &self.groups
    }

    /// Free resources on a node.
    pub fn free(&self, id: NodeId) -> Result<Resources, ClusterError> {
        self.node_state
            .get(id.index())
            .map(|s| s.free)
            .ok_or(ClusterError::UnknownNode(id))
    }

    /// Whether a node is currently available for scheduling.
    pub fn is_available(&self, id: NodeId) -> bool {
        self.node_state
            .get(id.index())
            .map(|s| s.available)
            .unwrap_or(false)
    }

    /// Marks a node available or unavailable (failures, upgrades §2.3).
    ///
    /// Unavailability does not release containers: the resilience
    /// experiments count containers on unavailable nodes as unavailable.
    pub fn set_available(&mut self, id: NodeId, available: bool) -> Result<(), ClusterError> {
        let state = self
            .node_state
            .get_mut(id.index())
            .ok_or(ClusterError::UnknownNode(id))?;
        if state.available != available {
            state.available = available;
            self.touch();
            self.record(JournalOp::SetAvailable {
                node: id.0,
                available,
            });
        }
        Ok(())
    }

    /// Adds a node-level tag occurrence (not attached to any container),
    /// keeping the per-group `γ_𝒮` caches coherent. Used by the recovery
    /// pipeline to mark fault domains (e.g. `fault_domain` on every node
    /// of a failing service unit) so re-placement constraints can steer
    /// away from them.
    pub fn add_node_tag(&mut self, node: NodeId, tag: Tag) -> Result<(), ClusterError> {
        let state = self
            .node_state
            .get_mut(node.index())
            .ok_or(ClusterError::UnknownNode(node))?;
        state.tags.add(tag.clone());
        self.touch();
        self.record(JournalOp::NodeTagAdd {
            node: node.0,
            tag: tag.as_str().to_string(),
        });
        self.index.tag_added(node.0, &tag);
        for (g, sets) in self.group_tags.iter_mut() {
            if let Some(indices) = self.groups.sets_containing_ref(g, node) {
                for &si in indices {
                    if let Some(m) = sets.get_mut(si) {
                        m.add(tag.clone());
                    }
                }
            }
        }
        Ok(())
    }

    /// Removes one occurrence of a node-level tag added by
    /// [`ClusterState::add_node_tag`]. Removing a tag that is not present
    /// is a no-op (the multiset ignores it).
    pub fn remove_node_tag(&mut self, node: NodeId, tag: &Tag) -> Result<(), ClusterError> {
        let state = self
            .node_state
            .get_mut(node.index())
            .ok_or(ClusterError::UnknownNode(node))?;
        // Only propagate to the caches when the node actually carried the
        // tag: the group multisets are unions over member nodes, so an
        // unconditional remove would steal an occurrence contributed by a
        // sibling node.
        if !state.tags.remove(tag) {
            return Ok(());
        }
        state.tags_removed = true;
        self.touch();
        self.record(JournalOp::NodeTagRemove {
            node: node.0,
            tag: tag.as_str().to_string(),
        });
        self.index.tag_removed(node.0, tag);
        for (g, sets) in self.group_tags.iter_mut() {
            if let Some(indices) = self.groups.sets_containing_ref(g, node) {
                for &si in indices {
                    if let Some(m) = sets.get_mut(si) {
                        m.remove(tag);
                    }
                }
            }
        }
        Ok(())
    }

    /// Releases every container on a node (crash semantics: the machine is
    /// lost, so its containers are gone too). Returns the released
    /// allocations so callers can rebuild bookkeeping and re-place lost
    /// long-running containers.
    ///
    /// Unlike [`ClusterState::set_available`], which models a node that is
    /// temporarily unreachable but keeps its containers, this models hard
    /// loss — the recovery pipeline uses both: mark unavailable, then
    /// release and re-place.
    pub fn release_node(&mut self, node: NodeId) -> Result<Vec<Allocation>, ClusterError> {
        let ids: Vec<ContainerId> = self
            .node_state
            .get(node.index())
            .ok_or(ClusterError::UnknownNode(node))?
            .containers
            .clone();
        Ok(ids
            .into_iter()
            .filter_map(|id| self.release(id).ok())
            .collect())
    }

    /// The dynamic tag multiset of a node (`𝒯_n` with cardinalities, §4.1).
    pub fn node_tags(&self, id: NodeId) -> Result<&TagMultiset, ClusterError> {
        self.node_state
            .get(id.index())
            .map(|s| &s.tags)
            .ok_or(ClusterError::UnknownNode(id))
    }

    /// `true` once [`ClusterState::remove_node_tag`] has removed an
    /// occurrence from the node: until then γ counts every tag of every
    /// container on it (a removal may take one a container contributed).
    pub fn tags_removed(&self, id: NodeId) -> bool {
        matches!(self.node_state.get(id.index()), Some(s) if s.tags_removed)
    }

    /// Tag cardinality `γ_n(t)` on a node (0 for unknown nodes).
    pub fn gamma(&self, id: NodeId, tag: &Tag) -> u32 {
        self.node_state
            .get(id.index())
            .map(|s| s.tags.count(tag))
            .unwrap_or(0)
    }

    /// Tag cardinality `γ_𝒮(t)` over a set of nodes (§4.1 tag-set union).
    pub fn gamma_set(&self, set: &[NodeId], tag: &Tag) -> u32 {
        set.iter().map(|&n| self.gamma(n, tag)).sum()
    }

    /// Nodes with `γ_n(t) > 0`, in ascending node-id order: O(result) via
    /// the tag postings.
    pub fn nodes_with_tag(&self, tag: &Tag) -> Vec<NodeId> {
        let Some(postings) = self.index.postings(tag) else {
            return Vec::new();
        };
        self.index.note_visited(postings.len() as u64);
        postings.keys().map(|&n| NodeId(n)).collect()
    }

    /// [`ClusterState::nodes_with_tag`] of the rarest of `tags`, a superset
    /// of the nodes carrying them all found without probing them; none for
    /// an empty list.
    pub fn nodes_with_rarest_tag(&self, tags: &[Tag]) -> Vec<NodeId> {
        let rarest = tags
            .iter()
            .min_by_key(|t| self.index.postings(t).map_or(0, |p| p.len()));
        rarest.map_or_else(Vec::new, |t| self.nodes_with_tag(t))
    }

    /// Nodes carrying at least one occurrence of *every* given tag, in
    /// ascending node-id order; an empty tag list matches all nodes.
    /// Walks only the rarest tag's postings.
    pub fn nodes_with_all_tags(&self, tags: &[Tag]) -> Vec<NodeId> {
        if tags.is_empty() {
            return self.node_ids().collect();
        }
        self.index
            .nodes_with_all_tags(tags)
            .into_iter()
            .map(NodeId)
            .collect()
    }

    /// All nodes ordered by free memory descending, ties broken by free
    /// vcores descending then node id descending. Lazy: only the entries
    /// walked count as visited in [`IndexStats::nodes_visited`].
    pub fn nodes_by_free_memory(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.index.nodes_by_free_memory().map(NodeId)
    }

    /// Verifies every incremental structure — tag postings, the
    /// free-memory ordering, and the per-group `γ_𝒮` caches — against a full
    /// recomputation from node state. Returns the first discrepancy; used
    /// by the differential/chaos test suites as the state invariant.
    pub fn check_index_consistency(&self) -> Result<(), String> {
        self.index.check_consistency(
            self.node_state
                .iter()
                .enumerate()
                .map(|(i, s)| (i as u32, &s.tags, s.free)),
        )?;
        for (g, cached) in &self.group_tags {
            let sets = self
                .groups
                .sets_of(g)
                .map_err(|_| format!("group '{g}' cached but not registered"))?;
            if sets.len() != cached.len() {
                return Err(format!(
                    "group '{g}': {} cached sets, {} registered",
                    cached.len(),
                    sets.len()
                ));
            }
            for (si, members) in sets.iter().enumerate() {
                let truth = TagMultiset::union(
                    members
                        .iter()
                        .filter_map(|n| self.node_state.get(n.index()).map(|s| &s.tags)),
                );
                if truth != cached[si] {
                    return Err(format!("group '{g}' set {si}: γ_𝒮 cache diverged"));
                }
            }
        }
        Ok(())
    }

    /// Containers currently on a node.
    pub fn containers_on(&self, id: NodeId) -> Result<&[ContainerId], ClusterError> {
        self.node_state
            .get(id.index())
            .map(|s| s.containers.as_slice())
            .ok_or(ClusterError::UnknownNode(id))
    }

    /// Containers of an application, in allocation order.
    pub fn app_containers(&self, app: ApplicationId) -> &[ContainerId] {
        self.app_containers
            .get(&app)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Every app with at least one live container, in arbitrary order.
    pub fn apps(&self) -> impl Iterator<Item = ApplicationId> + '_ {
        self.app_containers.keys().copied()
    }

    /// Drains the apps whose live container list changed since the last
    /// call, in change order (an app may repeat). `None` means unknown —
    /// treat every app as changed: the state is fresh, cloned or
    /// restored, has never been drained, or changed more apps than
    /// [`CHANGED_APPS_CAP`] since the last drain. Each call starts a new
    /// log; tentative work under a [`Scratch`] guard is never in it.
    pub fn take_changed_apps(&mut self) -> Option<Vec<ApplicationId>> {
        self.changed_apps.replace(Vec::new())
    }

    /// Notes a non-tentative change to `app`'s container list.
    fn app_changed(&mut self, app: ApplicationId) {
        let Some(log) = &mut self.changed_apps else {
            return;
        };
        if log.last() == Some(&app) {
            return;
        }
        if log.len() < CHANGED_APPS_CAP {
            log.push(app);
        } else {
            self.changed_apps = None;
        }
    }

    /// Looks up a live allocation.
    pub fn allocation(&self, id: ContainerId) -> Result<&Allocation, ClusterError> {
        self.allocations
            .get(&id)
            .ok_or(ClusterError::UnknownContainer(id))
    }

    /// All live allocations in arbitrary order.
    pub fn allocations(&self) -> impl Iterator<Item = &Allocation> {
        self.allocations.values()
    }

    /// Number of live containers.
    pub fn num_containers(&self) -> usize {
        self.allocations.len()
    }

    /// Allocates a container on a node, updating free resources and the
    /// node's tag multiset (the `appid:` tag is attached automatically).
    pub fn allocate(
        &mut self,
        app: ApplicationId,
        node: NodeId,
        request: &ContainerRequest,
        kind: ExecutionKind,
    ) -> Result<ContainerId, ClusterError> {
        let id = self.allocate_inner(app, node, request, kind)?;
        if self.scratch_open.is_some() {
            self.scratch_log.push(id);
        }
        Ok(id)
    }

    fn allocate_inner(
        &mut self,
        app: ApplicationId,
        node: NodeId,
        request: &ContainerRequest,
        kind: ExecutionKind,
    ) -> Result<ContainerId, ClusterError> {
        let state = self
            .node_state
            .get_mut(node.index())
            .ok_or(ClusterError::UnknownNode(node))?;
        if !state.available {
            return Err(ClusterError::NodeUnavailable(node));
        }
        if !request.resources.fits_in(&state.free) {
            return Err(ClusterError::InsufficientResources {
                node,
                free: state.free,
                requested: request.resources,
            });
        }
        let mut tags = request.tags.clone();
        let auto = Tag::app_id(app);
        if !tags.contains(&auto) {
            tags.push(auto);
        }
        let old_free = state.free;
        state.free = state
            .free
            .checked_sub(&request.resources)
            .expect("fits_in checked above");
        state.tags.add_all(tags.iter().cloned());
        let new_free = state.free;
        // Maintain the incremental indexes. Work under a `Scratch` guard
        // leaves the mutation epoch untouched: it is a net no-op once the
        // guard drops.
        let tentative = self.scratch_open.is_some();
        if !tentative {
            self.touch();
        }
        for t in &tags {
            self.index.tag_added(node.0, t);
        }
        self.index.free_changed(node.0, old_free, new_free);
        // Maintain the per-group γ caches.
        for (g, sets) in self.group_tags.iter_mut() {
            if let Some(indices) = self.groups.sets_containing_ref(g, node) {
                for &si in indices {
                    if let Some(m) = sets.get_mut(si) {
                        m.add_all(tags.iter().cloned());
                    }
                }
            }
        }
        let state = self
            .node_state
            .get_mut(node.index())
            .expect("checked above");
        let id = ContainerId(self.next_container);
        self.next_container += 1;
        state.containers.push(id);
        self.allocations.insert(
            id,
            Allocation {
                id,
                app,
                node,
                resources: request.resources,
                tags,
                kind,
            },
        );
        self.app_containers.entry(app).or_default().push(id);
        if !tentative {
            self.app_changed(app);
        }
        if self.journal.is_some() && !tentative {
            if let Some(alloc) = self.allocations.get(&id) {
                self.record(JournalOp::Place {
                    container: id.0,
                    app: app.0,
                    node: node.0,
                    memory_mb: alloc.resources.memory_mb,
                    vcores: alloc.resources.vcores,
                    long_running: matches!(kind, ExecutionKind::LongRunning),
                    tags: alloc.tags.iter().map(|t| t.as_str().to_string()).collect(),
                });
            }
        }
        Ok(id)
    }

    /// Releases a container, returning its resources and removing its tags.
    /// Under a [`Scratch`] guard only a container that guard allocated can
    /// be released — undo is by release, so anything else could not be put
    /// back.
    pub fn release(&mut self, id: ContainerId) -> Result<Allocation, ClusterError> {
        if let Some(mark) = self.scratch_open {
            let own = self.scratch_log[mark..].iter().rposition(|&c| c == id);
            let pos = own.ok_or(ClusterError::UnknownContainer(id))?;
            self.scratch_log.remove(mark + pos);
        }
        self.release_inner(id)
    }

    fn release_inner(&mut self, id: ContainerId) -> Result<Allocation, ClusterError> {
        let alloc = self
            .allocations
            .remove(&id)
            .ok_or(ClusterError::UnknownContainer(id))?;
        let state = &mut self.node_state[alloc.node.index()];
        let old_free = state.free;
        state.free += alloc.resources;
        // Only occurrences still present on the node propagate outward:
        // `remove_node_tag` may have consumed one of this container's
        // occurrences already, and decrementing the group caches or the
        // postings for a tag the node no longer carries would steal an
        // occurrence contributed by a sibling node. `missing` stays an
        // unallocated empty Vec in the common case.
        let mut missing: Vec<&Tag> = Vec::new();
        for t in &alloc.tags {
            if !state.tags.remove(t) {
                missing.push(t);
            }
        }
        // Per-tag removal credits: duplicates in the tag list must skip
        // exactly as many occurrences as failed to remove.
        let removed: Option<Vec<&Tag>> = if missing.is_empty() {
            None
        } else {
            let mut skip = missing;
            let mut out = Vec::with_capacity(alloc.tags.len());
            for t in &alloc.tags {
                if let Some(pos) = skip.iter().position(|m| *m == t) {
                    skip.swap_remove(pos);
                } else {
                    out.push(t);
                }
            }
            Some(out)
        };
        // A guard rolls back newest first, so this is normally an O(1) pop.
        if state.containers.last() == Some(&id) {
            state.containers.pop();
        } else {
            state.containers.retain(|&c| c != id);
        }
        let new_free = state.free;
        // Maintain the incremental indexes.
        let tentative = self.scratch_open.is_some();
        if !tentative {
            self.touch();
        }
        match &removed {
            None => {
                for t in &alloc.tags {
                    self.index.tag_removed(alloc.node.0, t);
                }
            }
            Some(r) => {
                for &t in r {
                    self.index.tag_removed(alloc.node.0, t);
                }
            }
        }
        self.index.free_changed(alloc.node.0, old_free, new_free);
        // Maintain the per-group γ caches.
        for (g, sets) in self.group_tags.iter_mut() {
            if let Some(indices) = self.groups.sets_containing_ref(g, alloc.node) {
                for &si in indices {
                    if let Some(m) = sets.get_mut(si) {
                        match &removed {
                            None => m.remove_all(alloc.tags.iter()),
                            Some(r) => m.remove_all(r.iter().copied()),
                        };
                    }
                }
            }
        }
        if let Some(v) = self.app_containers.get_mut(&alloc.app) {
            v.retain(|&c| c != id);
            if v.is_empty() {
                self.app_containers.remove(&alloc.app);
            }
        }
        if !tentative {
            self.app_changed(alloc.app);
            self.record(JournalOp::Release { container: id.0 });
        }
        Ok(alloc)
    }

    /// Releases every container of an application; returns how many were
    /// released.
    pub fn release_app(&mut self, app: ApplicationId) -> usize {
        let ids: Vec<ContainerId> = self.app_containers(app).to_vec();
        let n = ids.len();
        for id in ids {
            let _ = self.release(id);
        }
        n
    }

    /// Cluster-wide total capacity.
    pub fn total_capacity(&self) -> Resources {
        self.nodes.iter().map(|n| n.capacity).sum()
    }

    /// Cluster-wide free resources (available nodes only).
    pub fn total_free(&self) -> Resources {
        self.node_state
            .iter()
            .filter(|s| s.available)
            .map(|s| s.free)
            .sum()
    }

    /// Memory utilization of one node in `[0, 1]`.
    pub fn memory_utilization(&self, id: NodeId) -> f64 {
        let cap = self.nodes[id.index()].capacity;
        let free = self.node_state[id.index()].free;
        cap.saturating_sub(&free).memory_share(&cap)
    }

    /// Computes fragmentation and load-imbalance statistics (§7.4: a node
    /// is fragmented when it has less than the threshold free and is not
    /// fully utilized; load imbalance is the CV of memory utilization).
    pub fn utilization_stats(&self) -> UtilizationStats {
        let n = self.nodes.len().max(1);
        let mut fragmented = 0usize;
        let mut utils = Vec::with_capacity(n);
        for (node, state) in self.nodes.iter().zip(&self.node_state) {
            let used = node.capacity.saturating_sub(&state.free);
            let util = used.memory_share(&node.capacity);
            utils.push(util);
            let below = !self.fragmentation_threshold.fits_in(&state.free);
            let fully_used = state.free.memory_mb == 0 || state.free.vcores == 0;
            if below && !fully_used {
                fragmented += 1;
            }
        }
        let mean = utils.iter().sum::<f64>() / n as f64;
        let var = utils.iter().map(|u| (u - mean) * (u - mean)).sum::<f64>() / n as f64;
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        UtilizationStats {
            fragmented_fraction: fragmented as f64 / n as f64,
            memory_cv: cv,
            mean_memory_utilization: mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster() -> ClusterState {
        ClusterState::homogeneous(4, Resources::new(8192, 8), 2)
    }

    fn req(mem: u64, tags: &[&str]) -> ContainerRequest {
        ContainerRequest::new(Resources::new(mem, 1), tags.iter().map(|t| Tag::new(*t)))
    }

    #[test]
    fn allocate_updates_free_and_tags() {
        let mut c = small_cluster();
        let id = c
            .allocate(
                ApplicationId(1),
                NodeId(0),
                &req(2048, &["hb", "hb_m"]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        assert_eq!(c.free(NodeId(0)).unwrap(), Resources::new(6144, 7));
        assert_eq!(c.gamma(NodeId(0), &Tag::new("hb")), 1);
        assert_eq!(c.gamma(NodeId(0), &Tag::new("appid:1")), 1);
        assert_eq!(c.containers_on(NodeId(0)).unwrap(), &[id]);
        assert_eq!(c.app_containers(ApplicationId(1)), &[id]);
    }

    #[test]
    fn changed_apps_are_logged_only_once_drained_and_within_the_bound() {
        let mut c = small_cluster();
        let r = req(16, &[]);
        let lr = ExecutionKind::LongRunning;
        for app in 0..8 {
            c.allocate(ApplicationId(app), NodeId(0), &r, lr).unwrap();
        }
        assert!(
            c.changed_apps.is_none(),
            "an undrained state records nothing"
        );
        assert_eq!(c.take_changed_apps(), None);

        let id = c.allocate(ApplicationId(1), NodeId(1), &r, lr).unwrap();
        c.allocate(ApplicationId(1), NodeId(2), &r, lr).unwrap();
        c.release(id).unwrap();
        c.allocate(ApplicationId(2), NodeId(1), &r, lr).unwrap();
        {
            let mut g = c.scratch();
            let t = g.allocate(ApplicationId(3), NodeId(3), &r, lr).unwrap();
            g.release(t).unwrap();
            g.allocate(ApplicationId(4), NodeId(3), &r, lr).unwrap();
        }
        assert_eq!(
            c.take_changed_apps(),
            Some(vec![ApplicationId(1), ApplicationId(2)]),
            "repeats in a row fold; tentative work is not a change"
        );
        assert_eq!(c.clone().take_changed_apps(), None, "a copy starts unknown");

        // Alternating apps never fold: one entry per allocate+release.
        for i in 0..=CHANGED_APPS_CAP as u64 {
            let id = c.allocate(ApplicationId(i % 2), NodeId(3), &r, lr).unwrap();
            c.release(id).unwrap();
        }
        assert!(c.changed_apps.is_none(), "past the bound the log is gone");
        assert_eq!(c.take_changed_apps(), None);
        assert_eq!(c.take_changed_apps(), Some(Vec::new()));
    }

    #[test]
    fn release_restores_everything() {
        let mut c = small_cluster();
        let id = c
            .allocate(
                ApplicationId(1),
                NodeId(1),
                &req(1024, &["tf"]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        let alloc = c.release(id).unwrap();
        assert_eq!(alloc.node, NodeId(1));
        assert_eq!(c.free(NodeId(1)).unwrap(), Resources::new(8192, 8));
        assert_eq!(c.gamma(NodeId(1), &Tag::new("tf")), 0);
        assert!(c.containers_on(NodeId(1)).unwrap().is_empty());
        assert!(c.app_containers(ApplicationId(1)).is_empty());
        assert!(matches!(
            c.release(id),
            Err(ClusterError::UnknownContainer(_))
        ));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut c = small_cluster();
        let big = req(9000, &[]);
        let err = c
            .allocate(ApplicationId(1), NodeId(0), &big, ExecutionKind::Task)
            .unwrap_err();
        assert!(matches!(err, ClusterError::InsufficientResources { .. }));
    }

    #[test]
    fn vcore_capacity_is_enforced() {
        let mut c = small_cluster();
        for _ in 0..8 {
            c.allocate(
                ApplicationId(1),
                NodeId(0),
                &req(64, &[]),
                ExecutionKind::Task,
            )
            .unwrap();
        }
        let err = c
            .allocate(
                ApplicationId(1),
                NodeId(0),
                &req(64, &[]),
                ExecutionKind::Task,
            )
            .unwrap_err();
        assert!(matches!(err, ClusterError::InsufficientResources { .. }));
    }

    #[test]
    fn unavailable_nodes_reject_allocations() {
        let mut c = small_cluster();
        c.set_available(NodeId(2), false).unwrap();
        let err = c
            .allocate(
                ApplicationId(1),
                NodeId(2),
                &req(64, &[]),
                ExecutionKind::Task,
            )
            .unwrap_err();
        assert_eq!(err, ClusterError::NodeUnavailable(NodeId(2)));
        c.set_available(NodeId(2), true).unwrap();
        assert!(c
            .allocate(
                ApplicationId(1),
                NodeId(2),
                &req(64, &[]),
                ExecutionKind::Task
            )
            .is_ok());
    }

    #[test]
    fn duplicate_tags_accumulate_gamma() {
        let mut c = small_cluster();
        for _ in 0..3 {
            c.allocate(
                ApplicationId(7),
                NodeId(0),
                &req(512, &["hb", "hb_rs"]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        }
        assert_eq!(c.gamma(NodeId(0), &Tag::new("hb")), 3);
        assert_eq!(c.gamma(NodeId(0), &Tag::new("hb_rs")), 3);
        let rack0: Vec<NodeId> = c.groups().set_members(&NodeGroupId::rack(), 0).unwrap();
        assert_eq!(c.gamma_set(&rack0, &Tag::new("hb")), 3);
    }

    #[test]
    fn release_app_drops_all() {
        let mut c = small_cluster();
        for n in 0..3u32 {
            c.allocate(
                ApplicationId(5),
                NodeId(n),
                &req(256, &["s"]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        }
        assert_eq!(c.release_app(ApplicationId(5)), 3);
        assert_eq!(c.num_containers(), 0);
        assert_eq!(c.total_free(), c.total_capacity());
    }

    #[test]
    fn fragmentation_stats() {
        let mut c = ClusterState::homogeneous(2, Resources::new(4096, 4), 1);
        // Node 0: leave 1 GB free (< 2 GB threshold, not fully used).
        c.allocate(
            ApplicationId(1),
            NodeId(0),
            &req(3072, &[]),
            ExecutionKind::Task,
        )
        .unwrap();
        let stats = c.utilization_stats();
        assert!((stats.fragmented_fraction - 0.5).abs() < 1e-12);
        assert!(stats.mean_memory_utilization > 0.0);
        assert!(stats.memory_cv > 0.0);
    }

    #[test]
    fn fully_used_node_is_not_fragmented() {
        let mut c = ClusterState::homogeneous(1, Resources::new(4096, 4), 1);
        c.allocate(
            ApplicationId(1),
            NodeId(0),
            &ContainerRequest::new(Resources::new(4096, 4), []),
            ExecutionKind::Task,
        )
        .unwrap();
        let stats = c.utilization_stats();
        assert_eq!(stats.fragmented_fraction, 0.0);
    }

    #[test]
    fn node_tags_mark_and_unmark() {
        let mut c = small_cluster();
        let fault = Tag::new("fault_domain");
        c.add_node_tag(NodeId(0), fault.clone()).unwrap();
        c.add_node_tag(NodeId(0), fault.clone()).unwrap();
        assert_eq!(c.gamma(NodeId(0), &fault), 2);
        // Rack-level γ cache sees the mark too.
        let rack0: Vec<NodeId> = c.groups().set_members(&NodeGroupId::rack(), 0).unwrap();
        assert_eq!(c.gamma_set(&rack0, &fault), 2);
        assert_eq!(c.gamma_in_set(&NodeGroupId::rack(), 0, &fault), 2);
        c.remove_node_tag(NodeId(0), &fault).unwrap();
        assert_eq!(c.gamma(NodeId(0), &fault), 1);
        c.remove_node_tag(NodeId(0), &fault).unwrap();
        assert_eq!(c.gamma(NodeId(0), &fault), 0);
        assert_eq!(c.gamma_in_set(&NodeGroupId::rack(), 0, &fault), 0);
        // Removing an absent tag is a no-op, and unknown nodes error.
        c.remove_node_tag(NodeId(0), &fault).unwrap();
        assert!(c.add_node_tag(NodeId(99), fault.clone()).is_err());
        assert!(c.remove_node_tag(NodeId(99), &fault).is_err());
    }

    #[test]
    fn release_node_drops_all_its_containers() {
        let mut c = small_cluster();
        for _ in 0..3 {
            c.allocate(
                ApplicationId(1),
                NodeId(0),
                &req(512, &["svc"]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        }
        c.allocate(
            ApplicationId(2),
            NodeId(1),
            &req(512, &["svc"]),
            ExecutionKind::Task,
        )
        .unwrap();
        let lost = c.release_node(NodeId(0)).unwrap();
        assert_eq!(lost.len(), 3);
        assert!(lost.iter().all(|a| a.node == NodeId(0)));
        assert_eq!(c.num_containers(), 1);
        assert_eq!(c.free(NodeId(0)).unwrap(), Resources::new(8192, 8));
        assert_eq!(c.gamma(NodeId(0), &Tag::new("svc")), 0);
        assert!(c.release_node(NodeId(42)).is_err());
    }

    #[test]
    fn no_op_marks_are_not_mutations() {
        let mut c = small_cluster();
        c.set_available(NodeId(1), false).unwrap();
        c.add_node_tag(NodeId(2), Tag::new("fault_domain")).unwrap();
        let e = c.epoch();
        assert_eq!(e, 2, "each real change is one epoch");
        // Re-marking the same availability is not a mutation.
        c.set_available(NodeId(1), false).unwrap();
        assert_eq!(c.epoch(), e);
        // Neither is removing a tag the node does not carry.
        c.remove_node_tag(NodeId(0), &Tag::new("ghost")).unwrap();
        assert_eq!(c.epoch(), e);
    }

    #[test]
    fn states_and_snapshots_are_shareable_across_threads() {
        // A compile-time contract: the index's query counter must stay
        // atomic, not `Cell`.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ClusterState>();
        assert_send_sync::<crate::ClusterSnapshot>();
    }

    #[test]
    fn static_tags_present_at_startup() {
        let nodes = vec![
            Node::new(NodeId(0), Resources::new(1024, 2)).with_static_tags([Tag::new("gpu")]),
            Node::new(NodeId(1), Resources::new(1024, 2)),
        ];
        let groups = NodeGroups::new(2);
        let c = ClusterState::with_groups(nodes, groups);
        assert_eq!(c.gamma(NodeId(0), &Tag::new("gpu")), 1);
        assert_eq!(c.gamma(NodeId(1), &Tag::new("gpu")), 0);
    }
}
