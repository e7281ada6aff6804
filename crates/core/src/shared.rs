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
//!   [`SharedScheduler::publish`], which patches what the cycle touched
//!   into a new immutable [`StatusBoard`] (queue contents, deployments,
//!   the recovery ledger, utilization) swapped behind an
//!   `RwLock<Arc<_>>`. Only the apps whose containers, queue entries or
//!   drops changed are recomputed, so a one-app cycle costs the same on
//!   ten apps as on ten thousand. Readers clone the `Arc` (microseconds,
//!   never blocking on the writer) and answer queries against a
//!   consistent point-in-time view; only the writer reads the cluster
//!   state, to build the board.
//!
//! Readers therefore observe bounded staleness (at most one batch), which
//! is exactly the semantics the async placement pipeline already gives
//! placements themselves.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex, RwLock};

use medea_cluster::{ApplicationId, ClusterState, ExecutionKind, NodeId};

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
    /// An entry the cycle did not touch is the previous board's `Arc`.
    pub apps: BTreeMap<ApplicationId, Arc<AppPhase>>,
    /// Lifecycle views of managed applications (spec, derived phase,
    /// observed counts), keyed by app.
    pub lifecycle: BTreeMap<ApplicationId, AppLifecycle>,
    /// Entries this publication recomputed: the apps its cycle touched
    /// (every app, when the state could not say what changed).
    pub recomputed: usize,
    /// Apps with a Pending entry, ascending: the next publication
    /// recomputes them whether or not their containers changed.
    pending_apps: Vec<ApplicationId>,
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
            recomputed: 0,
            pending_apps: Vec::new(),
        }
    }

    /// The lifecycle view of one managed application, if the board
    /// knows it.
    pub fn app_lifecycle(&self, app: ApplicationId) -> Option<&AppLifecycle> {
        self.lifecycle.get(&app)
    }

    /// The phase of one application, if the board knows it.
    pub fn app(&self, app: ApplicationId) -> Option<&AppPhase> {
        self.apps.get(&app).map(|p| &**p)
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

/// The board's Dropped entries, oldest drop first: exactly the apps
/// the published board shows as Dropped.
struct DroppedLog {
    /// Drop number → app, one per app (its latest drop).
    order: BTreeMap<u64, ApplicationId>,
    /// App → its drop number in `order`.
    number: HashMap<ApplicationId, u64>,
    next: u64,
    cap: usize,
}

impl DroppedLog {
    fn len(&self) -> usize {
        self.number.len()
    }

    fn contains(&self, app: ApplicationId) -> bool {
        self.number.contains_key(&app)
    }

    /// Logs a drop; an app dropped again moves to the newest end.
    fn push(&mut self, app: ApplicationId) {
        self.remove(app);
        self.order.insert(self.next, app);
        self.number.insert(app, self.next);
        self.next += 1;
    }

    fn remove(&mut self, app: ApplicationId) {
        if let Some(n) = self.number.remove(&app) {
            self.order.remove(&n);
        }
    }

    fn pop_oldest(&mut self) -> Option<ApplicationId> {
        let (_, app) = self.order.pop_first()?;
        self.number.remove(&app);
        Some(app)
    }
}

/// An app's Placed entry: the nodes of its live LRA containers, in
/// container order (an app's list is in allocation order).
fn placed(state: &ClusterState, app: ApplicationId) -> Option<AppPhase> {
    let nodes: Vec<NodeId> = state
        .app_containers(app)
        .iter()
        .filter_map(|&id| state.allocation(id).ok())
        .filter(|a| a.kind == ExecutionKind::LongRunning)
        .map(|a| a.node)
        .collect();
    (!nodes.is_empty()).then_some(AppPhase::Placed { nodes })
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
                order: BTreeMap::new(),
                number: HashMap::new(),
                next: 0,
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

    /// Publishes the board for the scheduler's current state: the
    /// previous board patched at the apps the cycle touched, every other
    /// entry carried over. Touched are the apps whose live containers
    /// changed ([`ClusterState::take_changed_apps`]), the previous
    /// board's pending apps, the queued ones and the apps dropped since
    /// the last publication (the scheduler's drop log is drained here).
    /// Each touched entry is recomputed as pending, else placed, else
    /// dropped (newly or on the previous board), else gone; an app that
    /// is re-submitted or placed again thus leaves the dropped set. When
    /// the state cannot say what changed, every app in it and on the
    /// previous board is touched.
    ///
    /// Called by the writer thread after each cycle; the write lock on
    /// the board is held only for the pointer swap.
    pub fn publish(&self, now: u64) -> Arc<StatusBoard> {
        let next = self.with_writer(|m| {
            // Read under the writer lock, so the base board and the
            // change log drained below belong together.
            let prev = self.status();
            let mut log = self
                .dropped
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let changed = m.state_mut().take_changed_apps();
            let dropped = m.take_dropped();
            let mut pending: BTreeMap<ApplicationId, AppPhase> = BTreeMap::new();
            for q in m.queued_lras() {
                let phase = AppPhase::Pending {
                    attempts: q.attempts,
                    recovery: q.is_recovery,
                };
                pending.insert(q.app, phase);
            }
            let pending_apps: Vec<ApplicationId> = pending.keys().copied().collect();
            let mut touched: BTreeSet<ApplicationId> = prev
                .pending_apps
                .iter()
                .chain(&pending_apps)
                .chain(&dropped)
                .copied()
                .collect();
            match changed {
                Some(changed) => touched.extend(changed),
                None => {
                    touched.extend(m.state().apps());
                    touched.extend(prev.apps.keys());
                }
            }
            for &app in &dropped {
                log.push(app);
            }
            let mut apps = prev.apps.clone();
            for &app in &touched {
                let phase = pending
                    .remove(&app)
                    .or_else(|| placed(m.state(), app))
                    .or_else(|| log.contains(app).then_some(AppPhase::Dropped));
                match phase {
                    Some(phase) => {
                        if phase != AppPhase::Dropped {
                            log.remove(app);
                        }
                        apps.insert(app, Arc::new(phase));
                    }
                    None => {
                        apps.remove(&app);
                    }
                }
            }
            while log.len() > log.cap {
                let Some(old) = log.pop_oldest() else { break };
                apps.remove(&old);
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
                recomputed: touched.len(),
                pending_apps,
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

    /// Submits a one-container app, runs cycles until it is placed or
    /// dropped, publishes, and returns the next tick.
    fn settle(s: &SharedScheduler, app: u64, memory_mb: u64, now: u64) -> u64 {
        let next = s.with_writer(|m| {
            let res = Resources::new(memory_mb, 1);
            let req = LraRequest::uniform(ApplicationId(app), 1, res, vec![], vec![]);
            m.submit_lra(req, now).unwrap();
            let (_, drained, next) = m.run_to_drain(now, 64);
            assert!(drained, "every request is placed or dropped");
            next
        });
        s.publish(next);
        next
    }

    #[test]
    fn the_dropped_cap_counts_dropped_entries_from_their_latest_drop() {
        const PLACEABLE: u64 = 1024;
        const TOO_BIG: u64 = 64 * 1024;
        let s = shared(4);
        s.set_dropped_cap(2);
        let mut now = settle(&s, 1, TOO_BIG, 0);
        now = settle(&s, 2, TOO_BIG, now);
        now = settle(&s, 2, PLACEABLE, now);
        now = settle(&s, 3, TOO_BIG, now);
        let board = s.status();
        assert_eq!(board.app(ApplicationId(1)), Some(&AppPhase::Dropped));
        assert!(matches!(
            board.app(ApplicationId(2)),
            Some(AppPhase::Placed { .. })
        ));
        assert_eq!(board.app(ApplicationId(3)), Some(&AppPhase::Dropped));

        // Dropped again, app 1 is the newest drop: app 3 ages out first.
        now = settle(&s, 1, TOO_BIG, now);
        settle(&s, 4, TOO_BIG, now);
        let board = s.status();
        assert_eq!(board.app(ApplicationId(1)), Some(&AppPhase::Dropped));
        assert_eq!(board.app(ApplicationId(3)), None);
        assert_eq!(board.app(ApplicationId(4)), Some(&AppPhase::Dropped));
    }

    /// Entries recomputed by the first board over `live` placed apps, and
    /// then by the boards of a one-app cycle: submitted, then placed.
    fn recomputed_around_one_app(live: u64) -> (usize, [usize; 2]) {
        let cluster = ClusterState::homogeneous(16, Resources::new(1 << 30, 1 << 20), 4);
        let s = SharedScheduler::new(MedeaScheduler::new(
            cluster,
            LraAlgorithm::NodeCandidates,
            1,
        ));
        let one = medea_cluster::ContainerRequest::new(Resources::new(1, 1), vec![]);
        s.with_writer(|m| {
            for app in 0..live {
                let node = NodeId((app % 16) as u32);
                let lr = ExecutionKind::LongRunning;
                m.state_mut()
                    .allocate(ApplicationId(app), node, &one, lr)
                    .unwrap();
            }
        });
        let full = s.publish(0).recomputed;
        let app = ApplicationId(live);
        s.with_writer(|m| {
            let req = LraRequest::uniform(app, 2, Resources::new(1024, 1), vec![], vec![]);
            m.submit_lra(req, 1).unwrap();
        });
        let submitted = s.publish(1).recomputed;
        s.with_writer(|m| assert_eq!(m.tick(2).len(), 1));
        let board = s.publish(2);
        assert_eq!(board.apps.len() as u64, live + 1);
        (full, [submitted, board.recomputed])
    }

    #[test]
    fn a_one_app_cycle_recomputes_as_many_entries_with_any_number_of_live_apps() {
        let (full_small, small) = recomputed_around_one_app(100);
        let (full_large, large) = recomputed_around_one_app(10_000);
        assert_eq!((full_small, full_large), (100, 10_000));
        assert_eq!(small, large);
        assert_eq!(small, [1, 1]);
    }

    #[test]
    fn readers_share_one_board_allocation() {
        let s = shared(2);
        let a = s.publish(0);
        let b = s.status();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
