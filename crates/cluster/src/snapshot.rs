//! Versioned cluster snapshots for asynchronous placement (§5.3).
//!
//! Medea's LRA scheduler runs **off the critical path**: the ILP solves
//! against a frozen copy of the cluster while the live state keeps
//! mutating under task-container traffic. At commit time the proposed
//! placements are re-validated against live state and conflicts are
//! resubmitted (§5.4). [`ClusterSnapshot`] is the frozen copy: a clone of
//! [`ClusterState`] stamped with the state's mutation epoch, so the commit
//! path can ask *what changed while the solver ran* in O(changed) via the
//! state's bounded change log (falling back to an O(nodes) generation
//! comparison when the log has been trimmed).

use crate::node::NodeId;
use crate::state::ClusterState;

/// A frozen, versioned copy of the cluster taken at a mutation epoch.
///
/// Capture cost is O(cluster) (a deep clone — the same cost the paper's
/// Medea pays to hand the solver a consistent view); diffing against the
/// live state afterwards is O(changed nodes) while the live state's
/// change log still covers the capture epoch.
///
/// # Examples
///
/// ```
/// use medea_cluster::{ApplicationId, ClusterSnapshot, ClusterState,
///     ContainerRequest, ExecutionKind, NodeId, Resources};
///
/// let mut live = ClusterState::homogeneous(4, Resources::new(8192, 8), 2);
/// let snap = ClusterSnapshot::capture(&live);
/// assert!(snap.is_fresh(&live));
/// live.allocate(
///     ApplicationId(1), NodeId(2),
///     &ContainerRequest::new(Resources::new(1024, 1), []),
///     ExecutionKind::Task,
/// ).unwrap();
/// assert!(!snap.is_fresh(&live));
/// assert_eq!(snap.changed_nodes(&live), vec![NodeId(2)]);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    state: ClusterState,
    epoch: u64,
}

impl ClusterSnapshot {
    /// Freezes the live state at its current epoch.
    pub fn capture(live: &ClusterState) -> Self {
        ClusterSnapshot {
            state: live.clone(),
            epoch: live.epoch(),
        }
    }

    /// The frozen state the solver runs against.
    pub fn state(&self) -> &ClusterState {
        &self.state
    }

    /// Mutable access to the frozen state: the round's solver stages and
    /// its commit-time validation baseline place on it tentatively, each
    /// under a [`crate::Scratch`] guard that leaves it as captured.
    /// Mutations never reach the live state.
    pub fn state_mut(&mut self) -> &mut ClusterState {
        &mut self.state
    }

    /// The mutation epoch the snapshot was captured at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the live state has not mutated since capture.
    pub fn is_fresh(&self, live: &ClusterState) -> bool {
        live.epoch() == self.epoch
    }

    /// Number of live mutations applied since capture (staleness in
    /// mutation events, not ticks).
    ///
    /// Staleness is only defined against the state lineage the snapshot
    /// was captured from. Comparing against a *rebuilt* state (whose
    /// epoch counter restarted and may sit below the capture epoch) is a
    /// caller bug; this debug-asserts on the inversion rather than
    /// silently reporting 0, and saturates in release builds.
    pub fn staleness_events(&self, live: &ClusterState) -> u64 {
        debug_assert!(
            live.epoch() >= self.epoch,
            "snapshot epoch {} is ahead of live epoch {}: staleness queried \
             against a state the snapshot was not captured from",
            self.epoch,
            live.epoch(),
        );
        live.epoch().saturating_sub(self.epoch)
    }

    /// Nodes the live state mutated since capture, ascending and
    /// deduplicated. O(changed) via the change log when it still covers
    /// the capture epoch, O(nodes) generation comparison otherwise.
    pub fn changed_nodes(&self, live: &ClusterState) -> Vec<NodeId> {
        live.nodes_changed_since(self.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{ApplicationId, ContainerRequest, ExecutionKind};
    use crate::resources::Resources;
    use crate::tags::Tag;

    fn cluster() -> ClusterState {
        ClusterState::homogeneous(8, Resources::new(8192, 8), 2)
    }

    fn req(mem: u64) -> ContainerRequest {
        ContainerRequest::new(Resources::new(mem, 1), [Tag::new("s")])
    }

    #[test]
    fn fresh_snapshot_has_no_diff() {
        let live = cluster();
        let snap = ClusterSnapshot::capture(&live);
        assert!(snap.is_fresh(&live));
        assert_eq!(snap.staleness_events(&live), 0);
        assert!(snap.changed_nodes(&live).is_empty());
    }

    #[test]
    fn mutations_surface_as_changed_nodes() {
        let mut live = cluster();
        let snap = ClusterSnapshot::capture(&live);
        let id = live
            .allocate(ApplicationId(1), NodeId(3), &req(1024), ExecutionKind::Task)
            .unwrap();
        live.allocate(ApplicationId(1), NodeId(5), &req(1024), ExecutionKind::Task)
            .unwrap();
        live.release(id).unwrap();
        assert_eq!(snap.staleness_events(&live), 3);
        // Deduplicated and ascending: node 3 mutated twice.
        assert_eq!(snap.changed_nodes(&live), vec![NodeId(3), NodeId(5)]);
        // The snapshot itself is frozen.
        assert_eq!(snap.state().num_containers(), 0);
    }

    #[test]
    fn snapshot_mutations_do_not_touch_live() {
        let live = cluster();
        let mut snap = ClusterSnapshot::capture(&live);
        snap.state_mut()
            .allocate(ApplicationId(9), NodeId(0), &req(512), ExecutionKind::Task)
            .unwrap();
        assert_eq!(live.num_containers(), 0);
        assert!(snap.is_fresh(&live), "live epoch must be untouched");
    }

    #[test]
    fn availability_and_node_tags_count_as_changes() {
        let mut live = cluster();
        let snap = ClusterSnapshot::capture(&live);
        live.set_available(NodeId(1), false).unwrap();
        live.add_node_tag(NodeId(6), Tag::new("fault_domain"))
            .unwrap();
        assert_eq!(snap.changed_nodes(&live), vec![NodeId(1), NodeId(6)]);
        // Re-marking the same availability is a no-op, not a new change.
        let e = live.epoch();
        live.set_available(NodeId(1), false).unwrap();
        assert_eq!(live.epoch(), e);
        // Removing an absent tag is a no-op too.
        live.remove_node_tag(NodeId(0), &Tag::new("ghost")).unwrap();
        assert_eq!(live.epoch(), e);
    }

    #[test]
    fn probes_do_not_advance_the_epoch() {
        let mut live = cluster();
        let before = live.epoch();
        let id = live
            .probe_allocate(ApplicationId(1), NodeId(0), &req(256), ExecutionKind::Task)
            .unwrap();
        live.probe_release(id).unwrap();
        assert_eq!(live.epoch(), before);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ahead of live epoch")]
    fn staleness_against_older_lineage_is_rejected() {
        // Capture from a mutated state, then query staleness against a
        // fresh (rebuilt) state whose epoch counter is behind the capture
        // epoch. saturating_sub would silently report 0 — debug builds
        // must flag the inversion instead.
        let mut live = cluster();
        live.allocate(ApplicationId(1), NodeId(0), &req(64), ExecutionKind::Task)
            .unwrap();
        let snap = ClusterSnapshot::capture(&live);
        let rebuilt = cluster();
        let _ = snap.staleness_events(&rebuilt);
    }

    #[test]
    fn change_log_overflow_falls_back_to_generation_scan() {
        let mut live = cluster();
        let snap = ClusterSnapshot::capture(&live);
        // Far more mutations than the log retains, all on two nodes.
        for _ in 0..6_000 {
            let id = live
                .allocate(ApplicationId(1), NodeId(2), &req(64), ExecutionKind::Task)
                .unwrap();
            live.release(id).unwrap();
            let id = live
                .allocate(ApplicationId(1), NodeId(7), &req(64), ExecutionKind::Task)
                .unwrap();
            live.release(id).unwrap();
        }
        assert_eq!(snap.changed_nodes(&live), vec![NodeId(2), NodeId(7)]);
        // A later snapshot still gets O(changed) answers from the log.
        let late = ClusterSnapshot::capture(&live);
        live.allocate(ApplicationId(2), NodeId(4), &req(64), ExecutionKind::Task)
            .unwrap();
        assert_eq!(late.changed_nodes(&live), vec![NodeId(4)]);
    }

    #[test]
    fn snapshots_are_shareable_across_threads() {
        // The server publishes frozen snapshots to concurrent reader
        // threads; this is a compile-time contract (the index's query
        // counter must stay atomic, not `Cell`).
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ClusterState>();
        assert_send_sync::<ClusterSnapshot>();
    }

    #[test]
    fn group_registration_marks_every_node_changed() {
        let mut live = cluster();
        let snap = ClusterSnapshot::capture(&live);
        live.register_group(
            crate::groups::NodeGroupId::new("zone"),
            vec![(0..4).map(NodeId).collect(), (4..8).map(NodeId).collect()],
        );
        assert_eq!(snap.changed_nodes(&live).len(), 8);
    }
}
