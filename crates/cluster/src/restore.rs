//! Checkpoint/restore of [`ClusterState`] over the `medea-journal` WAL.
//!
//! The durable history of a cluster is `checkpoint + log tail`:
//! [`ClusterState::checkpoint_doc`] serializes the full live state into a
//! [`CheckpointDoc`], and every subsequent mutation outside a
//! [`crate::Scratch`] guard appends one epoch-stamped [`JournalRecord`]. Restore inverts both:
//! [`ClusterState::from_checkpoint`] rebuilds the base state — nodes,
//! groups, allocations replayed in container-id order so per-node and
//! per-app insertion orders reproduce, node tag multisets diffed back
//! to the stored truth, index and γ caches rebuilt — and
//! [`ClusterState::apply_record`] replays the tail with the mutation
//! epoch pinned so each record's own touch lands exactly on the epoch
//! it was logged at. The result is bit-for-bit the pre-crash semantic
//! state: [`ClusterState::digest`] of the restored state equals the
//! digest of the original at the same epoch (the property the 64-seed
//! round-trip suite checks), and [`ClusterState::check_index_consistency`]
//! plus [`ClusterState::check_allocation_consistency`] hold.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use medea_journal::{CheckpointAlloc, CheckpointDoc, CheckpointGroup, CheckpointNode};
use medea_journal::{JournalError, JournalOp, JournalRecord, Wal};

use crate::container::{ApplicationId, ContainerId, ContainerRequest, ExecutionKind};
use crate::groups::{NodeGroupId, NodeGroups};
use crate::node::{Node, NodeId};
use crate::resources::Resources;
use crate::state::ClusterState;
use crate::tags::Tag;

/// Errors from checkpoint restore and log replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The journal has no installed checkpoint to restore from.
    MissingCheckpoint,
    /// The journal itself failed to load (storage or corruption).
    Journal(JournalError),
    /// The checkpoint or a log record is internally inconsistent with
    /// the state being rebuilt (e.g. a placement that no longer fits,
    /// a release of an unknown container, an epoch that does not line
    /// up). A journal this wrong is not replayed partially.
    Invalid(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::MissingCheckpoint => write!(f, "no checkpoint installed in journal"),
            RestoreError::Journal(e) => write!(f, "journal load failed: {e}"),
            RestoreError::Invalid(msg) => write!(f, "inconsistent journal: {msg}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<JournalError> for RestoreError {
    fn from(e: JournalError) -> Self {
        RestoreError::Journal(e)
    }
}

impl ClusterState {
    /// Attaches a shared write-ahead journal: from now on every mutation
    /// outside a [`crate::Scratch`] guard appends one epoch-stamped record. The caller
    /// (normally the scheduler layer) is responsible for installing a
    /// checkpoint covering the state *as of attachment* — mutations
    /// before the attach are not in the log.
    pub fn attach_wal(&mut self, wal: Arc<Mutex<Wal>>) {
        self.journal = Some(wal);
    }

    /// The attached journal handle, if any.
    pub fn wal(&self) -> Option<&Arc<Mutex<Wal>>> {
        self.journal.as_ref()
    }

    /// Serializes the complete state into a checkpoint document.
    ///
    /// Nodes carry their **full** tag multiset (sorted), not a delta:
    /// `remove_node_tag` may have consumed occurrences contributed by
    /// static tags or allocations, so the truth is not derivable from
    /// the parts. Allocations are emitted in ascending container-id
    /// order, which is also their insertion order everywhere.
    pub fn checkpoint_doc(&self) -> CheckpointDoc {
        let nodes = self
            .nodes
            .iter()
            .zip(&self.node_state)
            .enumerate()
            .map(|(i, (node, dyn_state))| {
                let mut tags: Vec<(String, u32)> = dyn_state
                    .tags
                    .iter()
                    .map(|(t, c)| (t.as_str().to_string(), c))
                    .collect();
                tags.sort();
                CheckpointNode {
                    node: i as u32,
                    hostname: node.hostname.clone(),
                    memory_mb: node.capacity.memory_mb,
                    vcores: node.capacity.vcores,
                    static_tags: node
                        .static_tags
                        .iter()
                        .map(|t| t.as_str().to_string())
                        .collect(),
                    tags,
                    available: dyn_state.available,
                }
            })
            .collect();
        let mut groups: Vec<CheckpointGroup> = self
            .groups
            .group_ids()
            .filter_map(|g| {
                let sets = self.groups.sets_of(g).ok()?;
                Some(CheckpointGroup {
                    group: g.as_str().to_string(),
                    sets: sets
                        .iter()
                        .map(|set| set.iter().map(|n| n.0).collect())
                        .collect(),
                })
            })
            .collect();
        groups.sort_by(|a, b| a.group.cmp(&b.group));
        let mut allocs: Vec<CheckpointAlloc> = self
            .allocations
            .values()
            .map(|a| CheckpointAlloc {
                container: a.id.0,
                app: a.app.0,
                node: a.node.0,
                memory_mb: a.resources.memory_mb,
                vcores: a.resources.vcores,
                long_running: matches!(a.kind, ExecutionKind::LongRunning),
                tags: a.tags.iter().map(|t| t.as_str().to_string()).collect(),
            })
            .collect();
        allocs.sort_by_key(|a| a.container);
        CheckpointDoc {
            epoch: self.epoch,
            next_container: self.next_container,
            nodes,
            groups,
            allocs,
            // The cluster layer has no notion of desired specs; the
            // scheduler layer fills these in before installing.
            specs: Vec::new(),
        }
    }

    /// Rebuilds a full `ClusterState` from a checkpoint document. The
    /// restored state has no journal attached (re-attach explicitly);
    /// its index is built from the restored nodes.
    pub fn from_checkpoint(doc: &CheckpointDoc) -> Result<ClusterState, RestoreError> {
        // Nodes must be the dense 0..n range, ascending.
        for (i, n) in doc.nodes.iter().enumerate() {
            if n.node as usize != i {
                return Err(RestoreError::Invalid(format!(
                    "checkpoint node ids not dense: slot {i} holds id {}",
                    n.node
                )));
            }
        }
        let nodes: Vec<Node> = doc
            .nodes
            .iter()
            .map(|n| Node {
                id: NodeId(n.node),
                hostname: n.hostname.clone(),
                capacity: Resources::new(n.memory_mb, n.vcores),
                static_tags: n.static_tags.iter().map(Tag::new).collect(),
            })
            .collect();
        let mut groups = NodeGroups::new(nodes.len());
        for g in &doc.groups {
            groups.register(
                NodeGroupId::new(&g.group),
                g.sets
                    .iter()
                    .map(|set| set.iter().map(|&n| NodeId(n)).collect())
                    .collect(),
            );
        }
        let mut state = ClusterState::with_groups(nodes, groups);

        // Replay allocations in ascending container-id order with the id
        // counter pinned, so assigned ids — and with them the insertion
        // order of every per-node and per-app container list — reproduce
        // exactly. The `appid:` auto-tag is already in the stored tag
        // list, so `allocate` does not add a second occurrence.
        let mut prev = None;
        for a in &doc.allocs {
            if prev.is_some() && prev >= Some(a.container) {
                return Err(RestoreError::Invalid(format!(
                    "checkpoint allocs not strictly ascending at container {}",
                    a.container
                )));
            }
            prev = Some(a.container);
            state.next_container = a.container;
            let request = ContainerRequest::new(
                Resources::new(a.memory_mb, a.vcores),
                a.tags.iter().map(Tag::new),
            );
            let kind = if a.long_running {
                ExecutionKind::LongRunning
            } else {
                ExecutionKind::Task
            };
            state
                .allocate(ApplicationId(a.app), NodeId(a.node), &request, kind)
                .map_err(|e| {
                    RestoreError::Invalid(format!("replaying container {}: {e}", a.container))
                })?;
        }
        state.next_container = doc.next_container;

        // Diff each node's rebuilt tag multiset back to the stored
        // truth. Static tags + allocation tags overshoot when
        // `remove_node_tag` had consumed occurrences they contributed,
        // and undershoot node-level marks (fault domains): both
        // directions repair through the normal mutators so the index
        // and γ caches stay coherent.
        for n in &doc.nodes {
            let node = NodeId(n.node);
            let target: HashMap<Tag, u32> = n
                .tags
                .iter()
                .map(|(t, c)| (Tag::new(t.as_str()), *c))
                .collect();
            let current: Vec<(Tag, u32)> = state
                .node_tags(node)
                .map_err(|e| RestoreError::Invalid(format!("node {node}: {e}")))?
                .iter()
                .map(|(t, c)| (t.clone(), c))
                .collect();
            for (tag, have) in &current {
                let want = target.get(tag).copied().unwrap_or(0);
                for _ in want..*have {
                    state
                        .remove_node_tag(node, tag)
                        .map_err(|e| RestoreError::Invalid(format!("node {node}: {e}")))?;
                }
            }
            for (tag, want) in &target {
                let have = current
                    .iter()
                    .find(|(t, _)| t == tag)
                    .map(|(_, c)| *c)
                    .unwrap_or(0);
                for _ in have..*want {
                    state
                        .add_node_tag(node, tag.clone())
                        .map_err(|e| RestoreError::Invalid(format!("node {node}: {e}")))?;
                }
            }
        }

        // Availability last: allocations must replay onto available
        // nodes even when the node was marked down at capture time
        // (unavailability keeps containers by design).
        for n in &doc.nodes {
            state
                .set_available(NodeId(n.node), n.available)
                .map_err(|e| RestoreError::Invalid(format!("node {}: {e}", n.node)))?;
        }

        // Pin the mutation clock to the checkpoint epoch.
        state.epoch = doc.epoch;
        Ok(state)
    }

    /// Replays one journal record. Records at or below the current
    /// epoch are skipped (already covered by the checkpoint). The
    /// epoch is pinned to `record.epoch - 1` first, so the mutation's
    /// own touch lands exactly on `record.epoch`; a record that fails
    /// to land there (a mutation that was a no-op, which the journal
    /// never emits) is reported as corruption.
    pub fn apply_record(&mut self, record: &JournalRecord) -> Result<bool, RestoreError> {
        if let JournalOp::AppSpec { .. } = record.op {
            // Desired-spec records belong to the lifecycle layer above;
            // they carry the epoch they were appended at without bumping
            // it, so they are never cluster mutations to replay.
            return Ok(false);
        }
        if record.epoch <= self.epoch {
            return Ok(false);
        }
        self.epoch = record.epoch - 1;
        let invalid = |e: &dyn std::fmt::Display| {
            RestoreError::Invalid(format!("replaying record at epoch {}: {e}", record.epoch))
        };
        match &record.op {
            JournalOp::Place {
                container,
                app,
                node,
                memory_mb,
                vcores,
                long_running,
                tags,
            } => {
                self.next_container = *container;
                let request = ContainerRequest::new(
                    Resources::new(*memory_mb, *vcores),
                    tags.iter().map(Tag::new),
                );
                let kind = if *long_running {
                    ExecutionKind::LongRunning
                } else {
                    ExecutionKind::Task
                };
                self.allocate(ApplicationId(*app), NodeId(*node), &request, kind)
                    .map_err(|e| invalid(&e))?;
            }
            JournalOp::Release { container } => {
                self.release(ContainerId(*container))
                    .map_err(|e| invalid(&e))?;
            }
            JournalOp::NodeTagAdd { node, tag } => {
                self.add_node_tag(NodeId(*node), Tag::new(tag))
                    .map_err(|e| invalid(&e))?;
            }
            JournalOp::NodeTagRemove { node, tag } => {
                let tag = Tag::new(tag);
                if self.gamma(NodeId(*node), &tag) == 0 {
                    return Err(invalid(&format!(
                        "tag `{}` not present on node {node} at removal",
                        tag.as_str()
                    )));
                }
                self.remove_node_tag(NodeId(*node), &tag)
                    .map_err(|e| invalid(&e))?;
            }
            JournalOp::SetAvailable { node, available } => {
                if self.is_available(NodeId(*node)) == *available {
                    return Err(invalid(&format!(
                        "availability of node {node} already {available}"
                    )));
                }
                self.set_available(NodeId(*node), *available)
                    .map_err(|e| invalid(&e))?;
            }
            JournalOp::RegisterGroup { group, sets } => {
                self.register_group(
                    NodeGroupId::new(group),
                    sets.iter()
                        .map(|set| set.iter().map(|&n| NodeId(n)).collect())
                        .collect(),
                );
            }
            // Returned before the epoch pin above.
            JournalOp::AppSpec { .. } => unreachable!("app_spec records are filtered on entry"),
        }
        if self.epoch != record.epoch {
            return Err(RestoreError::Invalid(format!(
                "record at epoch {} left state at epoch {} (non-unit mutation)",
                record.epoch, self.epoch
            )));
        }
        Ok(true)
    }

    /// Restore = checkpoint + log-tail replay. Returns the state and
    /// the number of records actually replayed (records already covered
    /// by the checkpoint are skipped, not counted).
    pub fn restore(
        doc: &CheckpointDoc,
        log: &[JournalRecord],
    ) -> Result<(ClusterState, usize), RestoreError> {
        let mut state = ClusterState::from_checkpoint(doc)?;
        let mut replayed = 0usize;
        for record in log {
            if state.apply_record(record)? {
                replayed += 1;
            }
        }
        Ok((state, replayed))
    }

    /// Convenience: load a [`Wal`] and restore from it. Fails with
    /// [`RestoreError::MissingCheckpoint`] if no checkpoint was ever
    /// installed (the journal alone does not describe topology).
    pub fn restore_from_wal(wal: &Wal) -> Result<(ClusterState, usize), RestoreError> {
        let (doc, log) = wal.load()?;
        let doc = doc.ok_or(RestoreError::MissingCheckpoint)?;
        ClusterState::restore(&doc, &log)
    }

    /// A canonical, deterministic description of the *semantic* state:
    /// per-node free/availability/tags/containers, every allocation,
    /// per-app container lists, the id counter, the group γ caches, and
    /// the mutation epoch. Two states with equal digests place
    /// identically under every scheduler policy. The index's work
    /// counters are excluded: they measure effort, not state.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "epoch={} next_container={}",
            self.epoch, self.next_container
        );
        for (i, (node, dyn_state)) in self.nodes.iter().zip(&self.node_state).enumerate() {
            let mut tags: Vec<(String, u32)> = dyn_state
                .tags
                .iter()
                .map(|(t, c)| (t.as_str().to_string(), c))
                .collect();
            tags.sort();
            let _ = write!(
                out,
                "node {i} host={} cap={}/{} free={}/{} avail={} tags=[",
                node.hostname,
                node.capacity.memory_mb,
                node.capacity.vcores,
                dyn_state.free.memory_mb,
                dyn_state.free.vcores,
                dyn_state.available
            );
            for (j, (t, c)) in tags.iter().enumerate() {
                if j > 0 {
                    out.push(' ');
                }
                let _ = write!(out, "{t}:{c}");
            }
            let _ = write!(out, "] containers=[");
            for (j, c) in dyn_state.containers.iter().enumerate() {
                if j > 0 {
                    out.push(' ');
                }
                let _ = write!(out, "{}", c.0);
            }
            let _ = writeln!(out, "]");
        }
        let mut allocs: Vec<&crate::state::Allocation> = self.allocations.values().collect();
        allocs.sort_by_key(|a| a.id);
        for a in allocs {
            let _ = write!(
                out,
                "alloc {} app={} node={} res={}/{} kind={:?} tags=[",
                a.id.0, a.app.0, a.node.0, a.resources.memory_mb, a.resources.vcores, a.kind
            );
            for (j, t) in a.tags.iter().enumerate() {
                if j > 0 {
                    out.push(' ');
                }
                out.push_str(t.as_str());
            }
            let _ = writeln!(out, "]");
        }
        let mut apps: Vec<(&ApplicationId, &Vec<ContainerId>)> =
            self.app_containers.iter().collect();
        apps.sort_by_key(|(a, _)| a.0);
        for (app, containers) in apps {
            let _ = write!(out, "app {} containers=[", app.0);
            for (j, c) in containers.iter().enumerate() {
                if j > 0 {
                    out.push(' ');
                }
                let _ = write!(out, "{}", c.0);
            }
            let _ = writeln!(out, "]");
        }
        let mut groups: Vec<&NodeGroupId> = self.group_tags.keys().collect();
        groups.sort_by_key(|g| g.as_str());
        for g in groups {
            if let Some(sets) = self.group_tags.get(g) {
                for (si, multiset) in sets.iter().enumerate() {
                    let mut tags: Vec<(String, u32)> = multiset
                        .iter()
                        .map(|(t, c)| (t.as_str().to_string(), c))
                        .collect();
                    tags.sort();
                    let _ = write!(out, "group {} set {si} gamma=[", g.as_str());
                    for (j, (t, c)) in tags.iter().enumerate() {
                        if j > 0 {
                            out.push(' ');
                        }
                        let _ = write!(out, "{t}:{c}");
                    }
                    let _ = writeln!(out, "]");
                }
            }
        }
        out
    }

    /// Cross-checks the allocation bookkeeping: the allocations map,
    /// per-node container lists, per-app container lists, free-resource
    /// accounting, and the id counter must all agree. Together with
    /// [`ClusterState::check_index_consistency`] this is the full state
    /// invariant the restart auditor runs after every reconciliation.
    pub fn check_allocation_consistency(&self) -> Result<(), String> {
        let mut per_node_seen: Vec<usize> = vec![0; self.nodes.len()];
        let mut per_app_seen: HashMap<ApplicationId, usize> = HashMap::new();
        for (id, alloc) in &self.allocations {
            if *id != alloc.id {
                return Err(format!("allocation {} keyed under {}", alloc.id.0, id.0));
            }
            if id.0 >= self.next_container {
                return Err(format!(
                    "container {} >= next_container {}",
                    id.0, self.next_container
                ));
            }
            let node_state = self
                .node_state
                .get(alloc.node.index())
                .ok_or_else(|| format!("container {} on unknown node {}", id.0, alloc.node.0))?;
            if !node_state.containers.contains(id) {
                return Err(format!(
                    "container {} missing from node {}'s container list",
                    id.0, alloc.node.0
                ));
            }
            per_node_seen[alloc.node.index()] += 1;
            let app_list = self
                .app_containers
                .get(&alloc.app)
                .ok_or_else(|| format!("app {} has no container list", alloc.app.0))?;
            if !app_list.contains(id) {
                return Err(format!(
                    "container {} missing from app {}'s container list",
                    id.0, alloc.app.0
                ));
            }
            *per_app_seen.entry(alloc.app).or_default() += 1;
        }
        for (i, (node, dyn_state)) in self.nodes.iter().zip(&self.node_state).enumerate() {
            if dyn_state.containers.len() != per_node_seen[i] {
                return Err(format!(
                    "node {i} lists {} containers, allocations say {}",
                    dyn_state.containers.len(),
                    per_node_seen[i]
                ));
            }
            let used: Resources = dyn_state
                .containers
                .iter()
                .filter_map(|c| self.allocations.get(c))
                .map(|a| a.resources)
                .sum();
            let expect_free = node.capacity.checked_sub(&used).ok_or_else(|| {
                format!("node {i}: allocations exceed capacity ({used} allocated)")
            })?;
            if expect_free != dyn_state.free {
                return Err(format!(
                    "node {i}: free {} disagrees with capacity - allocations = {expect_free}",
                    dyn_state.free
                ));
            }
        }
        for (app, list) in &self.app_containers {
            let seen = per_app_seen.get(app).copied().unwrap_or(0);
            if list.len() != seen {
                return Err(format!(
                    "app {} lists {} containers, allocations say {seen}",
                    app.0,
                    list.len()
                ));
            }
            if list.is_empty() {
                return Err(format!("app {} has an empty container list", app.0));
            }
        }
        Ok(())
    }
}
