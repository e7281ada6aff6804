//! Explicit synchronization around [`MedeaScheduler`] for serving
//! workloads: one writer thread drives propose/commit, any number of
//! reader threads answer status queries off a published immutable
//! snapshot.
//!
//! The scheduler itself is deliberately single-threaded (its
//! propose/validate/commit pipeline already models concurrency through
//! propose-time baselines and commit-time re-validation, §5.3–5.4). What
//! a request-serving front-end needs is not a concurrent scheduler but a
//! concurrency *boundary*:
//!
//! - **Single writer.** All mutations — submissions, releases, scheduling
//!   cycles, checkpoints — go through [`SharedScheduler::with_writer`],
//!   which serializes them behind one mutex. In the server this lock is
//!   only ever taken by the batcher thread, so there is no writer
//!   contention; the mutex makes the discipline enforceable rather than
//!   conventional.
//! - **Concurrent readers.** After each cycle the writer calls
//!   [`SharedScheduler::publish`], which snapshots queue contents,
//!   deployments, the recovery ledger, and utilization into an immutable
//!   [`StatusBoard`] swapped behind an `RwLock<Arc<_>>`. Readers clone the
//!   `Arc` (microseconds, never blocking on the writer) and answer
//!   queries against a consistent point-in-time view; only the writer
//!   reads the cluster state, to build the board.
//!
//! Readers therefore observe bounded staleness (at most one batch), which
//! is exactly the semantics the async placement pipeline already gives
//! placements themselves.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, RwLock};

use medea_cluster::{ApplicationId, NodeId};

use crate::lifecycle::AppLifecycle;
use crate::medea::{MedeaScheduler, MedeaStats};
use crate::recovery::RecoveryReport;

/// Deployment state of one application as seen by a status reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppPhase {
    /// Queued (or inside an in-flight solve), awaiting placement.
    Pending {
        /// Placement attempts consumed so far.
        attempts: u32,
        /// Whether the entry re-places crash-lost containers.
        recovery: bool,
    },
    /// Deployed: one node per container, in container order.
    Placed {
        /// Hosting node per container.
        nodes: Vec<NodeId>,
    },
    /// Dropped after exhausting its resubmission attempt budget.
    Dropped,
}

/// Immutable point-in-time view published by the writer after each
/// scheduling cycle; shared by reference to every reader.
#[derive(Debug, Clone)]
pub struct StatusBoard {
    /// Writer tick at publication time.
    pub published_at: u64,
    /// Cluster mutation epoch at publication time.
    pub epoch: u64,
    /// LRAs queued for a future cycle.
    pub queue_depth: usize,
    /// Whether a solve was in flight when published.
    pub solve_inflight: bool,
    /// Cumulative scheduler statistics.
    pub stats: MedeaStats,
    /// The crash-recovery ledger (`lost = replaced + unplaceable +
    /// pending` invariant).
    pub recovery: RecoveryReport,
    /// Nodes in the cluster.
    pub nodes_total: usize,
    /// Nodes currently available.
    pub nodes_available: usize,
    /// Containers currently allocated (LRA + task).
    pub containers: usize,
    /// Per-application deployment phase. Placed entries are derived from
    /// live allocations; pending entries from the queue and in-flight
    /// solves; dropped entries accumulate from the scheduler's drop log.
    pub apps: BTreeMap<ApplicationId, AppPhase>,
    /// Lifecycle views of managed applications (spec, derived phase,
    /// observed counts), keyed by app.
    pub lifecycle: BTreeMap<ApplicationId, AppLifecycle>,
}

impl StatusBoard {
    fn empty() -> Self {
        StatusBoard {
            published_at: 0,
            epoch: 0,
            queue_depth: 0,
            solve_inflight: false,
            stats: MedeaStats::default(),
            recovery: RecoveryReport::default(),
            nodes_total: 0,
            nodes_available: 0,
            containers: 0,
            apps: BTreeMap::new(),
            lifecycle: BTreeMap::new(),
        }
    }

    /// The lifecycle view of one managed application, if the board
    /// knows it.
    pub fn app_lifecycle(&self, app: ApplicationId) -> Option<&AppLifecycle> {
        self.lifecycle.get(&app)
    }

    /// The phase of one application, if the board knows it.
    pub fn app(&self, app: ApplicationId) -> Option<&AppPhase> {
        self.apps.get(&app)
    }

    /// Checks the recovery-ledger invariant on this view.
    pub fn ledger_intact(&self) -> bool {
        self.recovery.containers_lost
            == self.recovery.containers_replaced
                + self.recovery.containers_unplaceable
                + self.recovery.containers_pending
    }
}

/// A [`MedeaScheduler`] behind the single-writer / published-snapshot
/// boundary. Cheap to clone (both sides are `Arc`s); all clones share the
/// same scheduler and board.
#[derive(Clone)]
pub struct SharedScheduler {
    writer: Arc<Mutex<MedeaScheduler>>,
    board: Arc<RwLock<Arc<StatusBoard>>>,
    /// Drop-order log bounding how many Dropped entries the board
    /// carries: without a bound they would accumulate forever on a
    /// long-running daemon (they have no later phase to supersede them).
    dropped: Arc<Mutex<DroppedLog>>,
}

struct DroppedLog {
    /// Apps in drop order; may hold stale ids (re-submitted apps) which
    /// eviction skips.
    order: VecDeque<ApplicationId>,
    cap: usize,
}

/// Default bound on Dropped entries carried by the board.
const DEFAULT_DROPPED_CAP: usize = 4096;

impl SharedScheduler {
    /// Wraps a scheduler; the board starts empty until the first
    /// [`SharedScheduler::publish`].
    pub fn new(scheduler: MedeaScheduler) -> Self {
        SharedScheduler {
            writer: Arc::new(Mutex::new(scheduler)),
            board: Arc::new(RwLock::new(Arc::new(StatusBoard::empty()))),
            dropped: Arc::new(Mutex::new(DroppedLog {
                order: VecDeque::new(),
                cap: DEFAULT_DROPPED_CAP,
            })),
        }
    }

    /// Bounds how many Dropped app entries the published board retains;
    /// the oldest drops age out first (their queries then answer
    /// `unknown`, as on a fresh server).
    pub fn set_dropped_cap(&self, cap: usize) {
        self.dropped
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .cap = cap.max(1);
    }

    /// Runs `f` with exclusive access to the scheduler — the single
    /// mutation entry point. Callers should hold it briefly (one batch,
    /// one release sweep); readers never take this lock.
    pub fn with_writer<R>(&self, f: impl FnOnce(&mut MedeaScheduler) -> R) -> R {
        let mut guard = self
            .writer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        f(&mut guard)
    }

    /// Rebuilds the status board from the scheduler's current state and
    /// publishes it. Dropped apps accumulate across publications (the
    /// scheduler's drop log is drained here); an app that is re-submitted
    /// and later placed leaves the dropped set.
    ///
    /// Called by the writer thread after each cycle; the write lock on
    /// the board is held only for the pointer swap.
    pub fn publish(&self, now: u64) -> Arc<StatusBoard> {
        let prev = self.status();
        let next = self.with_writer(|m| {
            let mut apps: BTreeMap<ApplicationId, AppPhase> = BTreeMap::new();
            // Dropped apps persist from the previous board unless
            // superseded below.
            for (app, phase) in &prev.apps {
                if matches!(phase, AppPhase::Dropped) {
                    apps.insert(*app, AppPhase::Dropped);
                }
            }
            let mut log = self
                .dropped
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            for app in m.take_dropped() {
                apps.insert(app, AppPhase::Dropped);
                log.order.push_back(app);
            }
            // Placed: group live LRA allocations per app, container order.
            let mut placed: BTreeMap<ApplicationId, Vec<(u64, NodeId)>> = BTreeMap::new();
            for alloc in m.state().allocations() {
                if alloc.kind == medea_cluster::ExecutionKind::LongRunning {
                    placed
                        .entry(alloc.app)
                        .or_default()
                        .push((alloc.id.0, alloc.node));
                }
            }
            for (app, mut containers) in placed {
                containers.sort_unstable();
                apps.insert(
                    app,
                    AppPhase::Placed {
                        nodes: containers.into_iter().map(|(_, n)| n).collect(),
                    },
                );
            }
            // Pending wins over stale dropped/placed entries: a
            // re-submitted or recovering app is live again.
            for q in m.queued_lras() {
                apps.insert(
                    q.app,
                    AppPhase::Pending {
                        attempts: q.attempts,
                        recovery: q.is_recovery,
                    },
                );
            }
            // Age out the oldest Dropped entries past the cap. Runs after
            // placed/pending overrides so a re-submitted app (no longer
            // Dropped on this board) is skipped, not evicted.
            while log.order.len() > log.cap {
                let Some(old) = log.order.pop_front() else {
                    break;
                };
                if matches!(apps.get(&old), Some(AppPhase::Dropped)) {
                    apps.remove(&old);
                }
            }
            drop(log);
            let lifecycle: BTreeMap<ApplicationId, AppLifecycle> =
                m.lifecycles().into_iter().map(|l| (l.app, l)).collect();
            let state = m.state();
            let nodes_total = state.num_nodes();
            let nodes_available = state.node_ids().filter(|&n| state.is_available(n)).count();
            Arc::new(StatusBoard {
                published_at: now,
                epoch: state.epoch(),
                queue_depth: m.pending_lras(),
                solve_inflight: m.solve_inflight(),
                stats: m.stats().clone(),
                recovery: m.recovery_report(),
                nodes_total,
                nodes_available,
                containers: state.num_containers(),
                apps,
                lifecycle,
            })
        });
        let mut slot = self
            .board
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *slot = Arc::clone(&next);
        next
    }

    /// The most recently published board. Read-only, never blocks on the
    /// writer; concurrent callers share one allocation.
    pub fn status(&self) -> Arc<StatusBoard> {
        Arc::clone(
            &self
                .board
                .read()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lra::LraAlgorithm;
    use crate::request::LraRequest;
    use medea_cluster::{ClusterState, Resources, Tag};

    fn shared(nodes: usize) -> SharedScheduler {
        let cluster = ClusterState::homogeneous(nodes, Resources::new(8192, 8), 2);
        SharedScheduler::new(MedeaScheduler::new(
            cluster,
            LraAlgorithm::NodeCandidates,
            1,
        ))
    }

    #[test]
    fn shared_scheduler_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedScheduler>();
        assert_send_sync::<StatusBoard>();
    }

    #[test]
    fn publish_tracks_pending_placed_and_dropped() {
        let s = shared(4);
        let app = ApplicationId(7);
        s.with_writer(|m| {
            m.submit_lra(
                LraRequest::uniform(
                    app,
                    2,
                    Resources::new(1024, 1),
                    vec![Tag::new("hb")],
                    vec![],
                ),
                0,
            )
            .unwrap();
        });
        let board = s.publish(0);
        assert_eq!(
            board.app(app),
            Some(&AppPhase::Pending {
                attempts: 0,
                recovery: false
            })
        );
        s.with_writer(|m| {
            let d = m.tick(1);
            assert_eq!(d.len(), 1);
        });
        let board = s.publish(1);
        match board.app(app) {
            Some(AppPhase::Placed { nodes }) => assert_eq!(nodes.len(), 2),
            other => panic!("expected placed, got {other:?}"),
        }
        assert!(board.ledger_intact());
        assert_eq!(board.containers, 2);

        // An impossible request exhausts its attempts and surfaces as
        // Dropped on a later board.
        let doomed = ApplicationId(8);
        s.with_writer(|m| {
            m.submit_lra(
                LraRequest::uniform(
                    doomed,
                    2,
                    Resources::new(64 * 1024, 1),
                    vec![Tag::new("big")],
                    vec![],
                ),
                2,
            )
            .unwrap();
            let (_, drained, _) = m.run_to_drain(2, 64);
            assert!(drained, "impossible request must drain via drop");
        });
        let board = s.publish(3);
        assert_eq!(board.app(doomed), Some(&AppPhase::Dropped));
        // The placed app is still on the board.
        assert!(matches!(board.app(app), Some(AppPhase::Placed { .. })));
    }

    #[test]
    fn readers_share_one_board_allocation() {
        let s = shared(2);
        let a = s.publish(0);
        let b = s.status();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
