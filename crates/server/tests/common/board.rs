//! The status board's test oracle: the full rebuild `SharedScheduler::
//! publish` once ran on every cycle, now run beside the incremental
//! publish so each published board can be compared with it.

use std::collections::BTreeMap;
use std::sync::Arc;

use medea_cluster::{ApplicationId, ExecutionKind, NodeId};
use medea_core::{AppPhase, MedeaScheduler};

/// Rebuilds every entry from scratch; only the Dropped entries carry
/// over from one rebuild to the next, as they do on the board.
pub struct BoardOracle {
    /// The apps of the last rebuild shown as Dropped, oldest drop first.
    dropped: Vec<ApplicationId>,
    /// Bound on Dropped entries (`SharedScheduler::set_dropped_cap`).
    cap: usize,
}

impl BoardOracle {
    pub fn new(cap: usize) -> BoardOracle {
        BoardOracle {
            dropped: Vec::new(),
            cap: cap.max(1),
        }
    }

    /// The entries `SharedScheduler::publish` must publish next, for `m`
    /// as it stands just before that publish: the previous Dropped
    /// entries and the undrained drops (an app dropped again moves to
    /// the newest end), overridden by placed apps from a walk of every
    /// live allocation, overridden by queued apps; then the oldest
    /// Dropped entries past the cap age out.
    pub fn rebuild(&mut self, m: &MedeaScheduler) -> BTreeMap<ApplicationId, Arc<AppPhase>> {
        for &app in m.dropped_apps() {
            self.dropped.retain(|&a| a != app);
            self.dropped.push(app);
        }
        let mut apps: BTreeMap<ApplicationId, AppPhase> = self
            .dropped
            .iter()
            .map(|&app| (app, AppPhase::Dropped))
            .collect();
        let mut placed: BTreeMap<ApplicationId, Vec<(u64, NodeId)>> = BTreeMap::new();
        for alloc in m.state().allocations() {
            if alloc.kind == ExecutionKind::LongRunning {
                placed
                    .entry(alloc.app)
                    .or_default()
                    .push((alloc.id.0, alloc.node));
            }
        }
        for (app, mut containers) in placed {
            containers.sort_unstable();
            let nodes = containers.into_iter().map(|(_, n)| n).collect();
            apps.insert(app, AppPhase::Placed { nodes });
        }
        for q in m.queued_lras() {
            let phase = AppPhase::Pending {
                attempts: q.attempts,
                recovery: q.is_recovery,
            };
            apps.insert(q.app, phase);
        }
        self.dropped
            .retain(|app| apps.get(app) == Some(&AppPhase::Dropped));
        let excess = self.dropped.len().saturating_sub(self.cap);
        for app in self.dropped.drain(..excess) {
            apps.remove(&app);
        }
        apps.into_iter()
            .map(|(app, p)| (app, Arc::new(p)))
            .collect()
    }
}
