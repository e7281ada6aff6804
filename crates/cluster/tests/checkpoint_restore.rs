//! Checkpoint/restore round-trip property suite (the journal's
//! differential gate).
//!
//! 64 fixed seeds drive a random sequence of allocate / release /
//! retag / crash / recover / group-registration ops against a journaled
//! `ClusterState`, with a checkpoint installed at a random mid-point.
//! After the sequence, `restore(checkpoint + log tail)` must reproduce
//! the live state **exactly**: equal [`ClusterState::digest`] (nodes,
//! allocations, app lists, id counter, group γ caches, epoch), a clean
//! [`ClusterState::check_index_consistency`] (index and γ caches
//! rebuilt, not copied), and a clean
//! [`ClusterState::check_allocation_consistency`].
//!
//! A second family of tests verifies the rejection path: a corrupted or
//! truncated log tail, a corrupted checkpoint, or a missing checkpoint
//! must fail restore outright — the journal is never replayed
//! partially.

use std::sync::{Arc, Mutex};

use medea_cluster::{
    ApplicationId, ClusterState, ContainerId, ContainerRequest, ExecutionKind, NodeGroupId, NodeId,
    Resources, RestoreError, Tag,
};
use medea_journal::{frame, JournalError, MemoryStorage, Wal};
use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};

const NODES: u32 = 12;
const SEEDS: u64 = 64;
const OPS_PER_SEED: usize = 140;
const TAG_UNIVERSE: u8 = 6;

fn tag_name(t: u8) -> Tag {
    Tag::new(format!("t{t}"))
}

#[derive(Debug, Clone)]
enum Op {
    Alloc {
        app: u64,
        node: u32,
        mem: u64,
        tags: Vec<u8>,
        task: bool,
    },
    Release {
        idx: usize,
    },
    AddNodeTag {
        node: u32,
        tag: u8,
    },
    RemoveNodeTag {
        node: u32,
        tag: u8,
    },
    Crash {
        node: u32,
    },
    Recover {
        node: u32,
    },
    RegisterZone {
        split: u32,
    },
}

fn random_op(rng: &mut StdRng) -> Op {
    match rng.random_range(0..21u32) {
        0..=9 => Op::Alloc {
            app: rng.random_range(0..5u64),
            node: rng.random_range(0..NODES),
            mem: rng.random_range(1..3000u64),
            tags: (0..rng.random_range(0..3usize))
                .map(|_| rng.random_range(0..TAG_UNIVERSE as u64) as u8)
                .collect(),
            task: rng.random_range(0..4u32) == 0,
        },
        10..=13 => Op::Release {
            idx: rng.random_range(0..64usize),
        },
        14..=15 => Op::AddNodeTag {
            node: rng.random_range(0..NODES),
            tag: rng.random_range(0..TAG_UNIVERSE as u64) as u8,
        },
        16..=17 => Op::RemoveNodeTag {
            node: rng.random_range(0..NODES),
            tag: rng.random_range(0..TAG_UNIVERSE as u64) as u8,
        },
        18 => Op::Crash {
            node: rng.random_range(0..NODES),
        },
        19 => Op::Recover {
            node: rng.random_range(0..NODES),
        },
        _ => Op::RegisterZone {
            split: rng.random_range(2..NODES - 2),
        },
    }
}

fn apply(state: &mut ClusterState, op: &Op, live: &mut Vec<ContainerId>) {
    match op {
        Op::Alloc {
            app,
            node,
            mem,
            tags,
            task,
        } => {
            let req =
                ContainerRequest::new(Resources::new(*mem, 1), tags.iter().map(|&t| tag_name(t)));
            let kind = if *task {
                ExecutionKind::Task
            } else {
                ExecutionKind::LongRunning
            };
            if let Ok(id) = state.allocate(ApplicationId(*app), NodeId(*node), &req, kind) {
                live.push(id);
            }
        }
        Op::Release { idx } => {
            if !live.is_empty() {
                let id = live.remove(idx % live.len());
                state.release(id).unwrap();
            }
        }
        Op::AddNodeTag { node, tag } => {
            state.add_node_tag(NodeId(*node), tag_name(*tag)).unwrap();
        }
        Op::RemoveNodeTag { node, tag } => {
            state
                .remove_node_tag(NodeId(*node), &tag_name(*tag))
                .unwrap();
        }
        Op::Crash { node } => {
            state.set_available(NodeId(*node), false).unwrap();
            let lost = state.release_node(NodeId(*node)).unwrap();
            live.retain(|id| !lost.iter().any(|a| a.id == *id));
        }
        Op::Recover { node } => {
            state.set_available(NodeId(*node), true).unwrap();
        }
        Op::RegisterZone { split } => {
            state.register_group(
                NodeGroupId::new("zone"),
                vec![
                    (0..*split + 2).map(NodeId).collect(),
                    (*split..NODES).map(NodeId).collect(),
                ],
            );
        }
    }
}

/// Builds a journaled state with its WAL and test-visible storage.
fn journaled_state() -> (ClusterState, Arc<Mutex<Wal>>, MemoryStorage) {
    let mut state = ClusterState::homogeneous(NODES as usize, Resources::new(16 * 1024, 64), 3);
    let storage = MemoryStorage::new();
    let wal = Arc::new(Mutex::new(Wal::new(storage.clone())));
    wal.lock()
        .unwrap()
        .install_checkpoint(&state.checkpoint_doc())
        .unwrap();
    state.attach_wal(Arc::clone(&wal));
    (state, wal, storage)
}

#[test]
fn restore_reproduces_state_exactly_64_seeds() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ seed);
        let (mut state, wal, _storage) = journaled_state();
        let mut live: Vec<ContainerId> = Vec::new();
        let checkpoint_at = rng.random_range(0..OPS_PER_SEED);
        for step in 0..OPS_PER_SEED {
            apply(&mut state, &random_op(&mut rng), &mut live);
            if step == checkpoint_at {
                // Mid-sequence checkpoint: the restore below exercises
                // checkpoint + tail, not just one of the two.
                let doc = state.checkpoint_doc();
                wal.lock().unwrap().install_checkpoint(&doc).unwrap();
            }
        }
        let guard = wal.lock().unwrap();
        let (restored, replayed) = ClusterState::restore_from_wal(&guard)
            .unwrap_or_else(|e| panic!("seed {seed}: restore failed: {e}"));
        drop(guard);
        assert_eq!(
            restored.digest(),
            state.digest(),
            "seed {seed}: restored state diverged (replayed {replayed} ops)"
        );
        assert_eq!(restored.epoch(), state.epoch(), "seed {seed}");
        restored
            .check_index_consistency()
            .unwrap_or_else(|e| panic!("seed {seed}: restored index: {e}"));
        restored
            .check_allocation_consistency()
            .unwrap_or_else(|e| panic!("seed {seed}: restored allocations: {e}"));
        state
            .check_allocation_consistency()
            .unwrap_or_else(|e| panic!("seed {seed}: live allocations: {e}"));
    }
}

#[test]
fn snapshot_clones_never_journal() {
    let (mut state, wal, _storage) = journaled_state();
    let before = wal.lock().unwrap().stats().records_appended;
    // Mutating a snapshot's state (a detached copy) must leave the
    // journal untouched.
    let mut snap = state.snapshot();
    let req = ContainerRequest::new(Resources::new(512, 1), [Tag::new("scratch")]);
    snap.state_mut()
        .allocate(
            ApplicationId(9),
            NodeId(0),
            &req,
            ExecutionKind::LongRunning,
        )
        .unwrap();
    assert_eq!(wal.lock().unwrap().stats().records_appended, before);
    // A real mutation journals exactly one record.
    state
        .allocate(
            ApplicationId(9),
            NodeId(0),
            &req,
            ExecutionKind::LongRunning,
        )
        .unwrap();
    assert_eq!(wal.lock().unwrap().stats().records_appended, before + 1);
}

#[test]
fn truncated_tail_is_rejected() {
    let (mut state, wal, storage) = journaled_state();
    let req = ContainerRequest::new(Resources::new(512, 1), [Tag::new("svc")]);
    for n in 0..4u32 {
        state
            .allocate(
                ApplicationId(1),
                NodeId(n),
                &req,
                ExecutionKind::LongRunning,
            )
            .unwrap();
    }
    // Torn final write: the last line loses its tail.
    let mut lines = storage.log_lines();
    let last = lines.last_mut().unwrap();
    last.truncate(last.len() - 9);
    storage.set_log_lines(lines);
    let guard = wal.lock().unwrap();
    match ClusterState::restore_from_wal(&guard) {
        Err(RestoreError::Journal(JournalError::Corrupt { line, .. })) => {
            assert_eq!(line, 4, "corruption must be pinned to the torn line");
        }
        other => panic!("expected corrupt-tail rejection, got {other:?}"),
    }
}

#[test]
fn corrupted_tail_is_rejected() {
    let (mut state, wal, storage) = journaled_state();
    let req = ContainerRequest::new(Resources::new(512, 1), [Tag::new("svc")]);
    state
        .allocate(
            ApplicationId(1),
            NodeId(0),
            &req,
            ExecutionKind::LongRunning,
        )
        .unwrap();
    // Bit rot inside the payload: checksum no longer matches.
    let mut lines = storage.log_lines();
    let last = lines.last_mut().unwrap();
    let flipped = if last.as_bytes()[10] == b'x' {
        'y'
    } else {
        'x'
    };
    last.replace_range(10..11, &flipped.to_string());
    storage.set_log_lines(lines);
    assert!(matches!(
        ClusterState::restore_from_wal(&wal.lock().unwrap()),
        Err(RestoreError::Journal(JournalError::Corrupt { .. }))
    ));
}

#[test]
fn valid_frame_with_garbage_payload_is_rejected() {
    let (_state, wal, storage) = journaled_state();
    // A correctly checksummed line whose payload is not a record: the
    // decode layer must reject it even though the frame verifies.
    let mut lines = storage.log_lines();
    lines.push(frame(r#"{"epoch":1,"op":{"type":"warp"}}"#));
    storage.set_log_lines(lines);
    assert!(matches!(
        ClusterState::restore_from_wal(&wal.lock().unwrap()),
        Err(RestoreError::Journal(JournalError::Corrupt { .. }))
    ));
}

#[test]
fn missing_checkpoint_is_rejected() {
    let (_state, wal, storage) = journaled_state();
    storage.set_checkpoint_body(None);
    assert!(matches!(
        ClusterState::restore_from_wal(&wal.lock().unwrap()),
        Err(RestoreError::MissingCheckpoint)
    ));
}

#[test]
fn semantically_impossible_replay_is_rejected() {
    let (mut state, wal, storage) = journaled_state();
    let req = ContainerRequest::new(Resources::new(512, 1), [Tag::new("svc")]);
    state
        .allocate(
            ApplicationId(1),
            NodeId(0),
            &req,
            ExecutionKind::LongRunning,
        )
        .unwrap();
    // Append a release of a container that never existed (well-formed,
    // well-framed, semantically wrong).
    let mut lines = storage.log_lines();
    let epoch = state.epoch() + 1;
    lines.push(frame(&format!(
        r#"{{"epoch":{epoch},"op":{{"type":"release","container":999}}}}"#
    )));
    storage.set_log_lines(lines);
    assert!(matches!(
        ClusterState::restore_from_wal(&wal.lock().unwrap()),
        Err(RestoreError::Invalid(_))
    ));
}
