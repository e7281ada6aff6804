//! A deep copy of the cluster for what-if work.
//!
//! A scheduling round does not copy the cluster: its solver stages place
//! tentatively on the live state under a [`crate::Scratch`] guard, and
//! commit re-validates every proposal on the live state (§5.4).
//! [`ClusterSnapshot`] is for a caller that wants an independent copy to
//! mutate freely — it carries no journal, so nothing done to it is
//! logged, and the live state and its epoch never see it.

use crate::state::ClusterState;

/// A deep copy of a [`ClusterState`], detached from its journal.
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    state: ClusterState,
}

impl ClusterSnapshot {
    /// Copies the live state (O(cluster)).
    pub fn capture(live: &ClusterState) -> Self {
        ClusterSnapshot {
            state: live.clone(),
        }
    }

    /// The copied state.
    pub fn state(&self) -> &ClusterState {
        &self.state
    }

    /// Mutable access to the copy. Mutations never reach the live state
    /// or any journal.
    pub fn state_mut(&mut self) -> &mut ClusterState {
        &mut self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{ApplicationId, ContainerRequest, ExecutionKind};
    use crate::node::NodeId;
    use crate::resources::Resources;
    use crate::tags::Tag;

    #[test]
    fn snapshot_mutations_do_not_touch_live() {
        let live = ClusterState::homogeneous(8, Resources::new(8192, 8), 2);
        let (digest, epoch) = (live.digest(), live.epoch());
        let mut snap = ClusterSnapshot::capture(&live);
        let req = ContainerRequest::new(Resources::new(512, 1), [Tag::new("s")]);
        snap.state_mut()
            .allocate(ApplicationId(9), NodeId(0), &req, ExecutionKind::Task)
            .unwrap();
        assert_eq!(snap.state().num_containers(), 1);
        assert_eq!(snap.state().epoch(), epoch + 1);
        assert_eq!((live.digest(), live.epoch()), (digest, epoch));
    }
}
