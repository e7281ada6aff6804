//! The published status board against its full rebuild, cycle by cycle,
//! over one sequence that reaches every way an entry changes: place,
//! cancel (queued and deployed), managed scale up and down, a node lost
//! and recovered, drops past the dropped cap, a change log that
//! overflows, and a restart from the journal.

use std::sync::Arc;

use medea_cluster::{
    ApplicationId, ClusterState, ContainerRequest, ExecutionKind, NodeId, Resources, Tag,
    CHANGED_APPS_CAP,
};
use medea_core::{
    AppPhase, AppSpec, LifecyclePhase, LraAlgorithm, LraRequest, MedeaScheduler, NodeReport,
};
use medea_core::{SharedScheduler, StatusBoard};
use medea_journal::{MemoryStorage, Wal};

mod common;
use common::board::BoardOracle;

const NODES: usize = 16;
const DROPPED_CAP: usize = 3;
/// Cycles a step may take to settle before the test fails.
const MAX_CYCLES: usize = 64;

struct Sequence {
    shared: SharedScheduler,
    oracle: BoardOracle,
    now: u64,
}

impl Sequence {
    fn new() -> Sequence {
        let cluster = ClusterState::homogeneous(NODES, Resources::new(1 << 20, 1 << 12), 4);
        let mut m = MedeaScheduler::new(cluster, LraAlgorithm::NodeCandidates, 1);
        m.attach_journal(Wal::new(MemoryStorage::new()), 0)
            .expect("attach journal");
        let shared = SharedScheduler::new(m);
        shared.set_dropped_cap(DROPPED_CAP);
        Sequence {
            shared,
            oracle: BoardOracle::new(DROPPED_CAP),
            now: 0,
        }
    }

    fn writer<R>(&self, f: impl FnOnce(&mut MedeaScheduler) -> R) -> R {
        self.shared.with_writer(f)
    }

    /// Publishes and checks the board against the full rebuild.
    fn publish(&mut self) -> Arc<StatusBoard> {
        let expected = self.shared.with_writer(|m| self.oracle.rebuild(m));
        let board = self.shared.publish(self.now);
        assert_eq!(board.apps, expected, "the board at tick {}", self.now);
        board
    }

    /// One scheduling cycle, then a board.
    fn cycle(&mut self) -> Arc<StatusBoard> {
        let now = self.now;
        self.writer(|m| m.tick(now));
        self.now += 1;
        self.publish()
    }

    /// Cycles until nothing is queued and no managed app is converging.
    fn settle(&mut self) -> Arc<StatusBoard> {
        for _ in 0..MAX_CYCLES {
            let board = self.cycle();
            let converging = board
                .lifecycle
                .values()
                .any(|l| !matches!(l.phase, LifecyclePhase::Steady | LifecyclePhase::Retired));
            if board.queue_depth == 0 && !board.solve_inflight && !converging {
                return board;
            }
        }
        panic!("the sequence did not settle at tick {}", self.now);
    }

    fn submit(&mut self, app: u64, containers: usize, memory_mb: u64) {
        let now = self.now;
        let req = LraRequest::uniform(
            ApplicationId(app),
            containers,
            Resources::new(memory_mb, 1),
            vec![Tag::new("svc")],
            vec![],
        );
        self.writer(|m| m.submit_lra(req, now)).expect("submit");
    }
}

fn phase(board: &StatusBoard, app: u64) -> Option<&AppPhase> {
    board.app(ApplicationId(app))
}

fn is_placed(board: &StatusBoard, app: u64, containers: usize) -> bool {
    matches!(phase(board, app), Some(AppPhase::Placed { nodes }) if nodes.len() == containers)
}

/// Too big for any node: dropped once its attempts run out.
const TOO_BIG: u64 = 2 << 20;

#[test]
fn every_published_board_equals_the_full_rebuild() {
    let mut s = Sequence::new();
    let board = s.publish();
    assert!(board.apps.is_empty());

    // Place six apps; cancel one while queued and one once deployed.
    for app in 1..=6 {
        s.submit(app, 2, 1024);
    }
    let board = s.publish();
    assert_eq!(board.recomputed, 6, "six queued apps, nothing else");
    s.writer(|m| m.cancel_lra(ApplicationId(6)));
    let board = s.settle();
    assert!((1..=5).all(|app| is_placed(&board, app, 2)));
    assert_eq!(phase(&board, 6), None);
    s.writer(|m| m.cancel_lra(ApplicationId(2)));
    let board = s.publish();
    assert_eq!(board.recomputed, 1, "one cancelled app");
    assert_eq!(phase(&board, 2), None);

    // A managed app scales up and down.
    let template = ContainerRequest::new(Resources::new(512, 1), vec![Tag::new("web")]);
    s.writer(|m| m.submit_managed_lra(ApplicationId(10), template, vec![], AppSpec::replicas(2)))
        .expect("managed app");
    assert!(is_placed(&s.settle(), 10, 2));
    assert!(s.writer(|m| m.set_replicas(ApplicationId(10), 5)));
    assert!(is_placed(&s.settle(), 10, 5));
    assert!(s.writer(|m| m.set_replicas(ApplicationId(10), 1)));
    assert!(is_placed(&s.settle(), 10, 1));

    // A node is lost: its LRA containers go pending as recovery, then
    // come back elsewhere; the node recovers.
    let lost = NodeId(0);
    let now = s.now;
    let report = s.writer(|m| m.node_lost(lost, now));
    let board = s.publish();
    assert!(board.ledger_intact());
    assert!(report.lra_containers_lost > 0, "node 0 hosted an LRA");
    let board = s.settle();
    assert_eq!(board.recovery.containers_pending, 0);
    s.writer(|m| m.node_recovered(lost));
    s.submit(7, 3, 1024);
    assert!(is_placed(&s.settle(), 7, 3));

    // Five drops past a cap of three, one of them dropped twice and one
    // re-submitted and placed in between.
    for app in 20..=22 {
        s.submit(app, 1, TOO_BIG);
    }
    s.settle();
    s.submit(20, 1, TOO_BIG);
    s.submit(21, 1, 1024);
    s.settle();
    s.submit(23, 1, TOO_BIG);
    s.submit(24, 1, TOO_BIG);
    let board = s.settle();
    let dropped: Vec<u64> = (20..=24)
        .filter(|&app| phase(&board, app) == Some(&AppPhase::Dropped))
        .collect();
    assert_eq!(dropped, [20, 23, 24]);
    assert!(is_placed(&board, 21, 1));

    // More changed apps than the change log holds, between two boards,
    // then a deployed app cancelled: the publish cannot know what
    // changed and recomputes every app in the state and on the board.
    let background = CHANGED_APPS_CAP as u64 + 1;
    s.writer(|m| {
        let one = ContainerRequest::new(Resources::new(1, 1), vec![]);
        for app in 0..background {
            let node = NodeId(1 + (app % (NODES as u64 - 1)) as u32);
            m.state_mut()
                .allocate(
                    ApplicationId(1_000 + app),
                    node,
                    &one,
                    ExecutionKind::LongRunning,
                )
                .expect("background container");
        }
        m.cancel_lra(ApplicationId(3));
    });
    let board = s.publish();
    assert!(board.recomputed > CHANGED_APPS_CAP);
    assert_eq!(phase(&board, 3), None);
    s.submit(8, 2, 1024);
    let board = s.settle();
    assert!(
        board.recomputed < 10,
        "back to patching: {}",
        board.recomputed
    );

    // A restart restores the state from the journal: the first board
    // after it is a full pass, the next cycle patches again.
    let reports: Vec<NodeReport> = s.writer(|m| {
        let state = m.state();
        state
            .node_ids()
            .map(|node| NodeReport {
                node,
                available: state.is_available(node),
                containers: state
                    .containers_on(node)
                    .map(<[_]>::to_vec)
                    .unwrap_or_default(),
            })
            .collect()
    });
    let now = s.now;
    let restart = s.writer(|m| m.restart(now, &reports)).expect("restart");
    assert!(restart.restored_from_journal);
    let board = s.publish();
    assert!(board.recomputed > CHANGED_APPS_CAP);
    s.submit(9, 2, 1024);
    let board = s.settle();
    assert!(is_placed(&board, 9, 2));
    assert!(
        board.recomputed < 10,
        "back to patching: {}",
        board.recomputed
    );
    let placed = [1, 4, 5, 7, 8, 9, 10, 21];
    assert!(placed.iter().all(|&app| phase(&board, app).is_some()));
    assert_eq!(board.apps.len(), placed.len() + 3 + background as usize);
}
