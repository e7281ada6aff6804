//! Differential property suite for the incremental index layer.
//!
//! A cluster state replays a random sequence of
//! allocate/release/retag/crash/recover operations, driven by fixed
//! `medea-rand` seeds. After every step, every index-backed query is
//! checked two ways:
//!
//! 1. against a naive full-scan oracle recomputed in this file from the
//!    public per-node accessors (`gamma`, `free`, `node_ids`) — the
//!    scans are the reference, and they live here, not in the library;
//! 2. against [`ClusterState::check_index_consistency`], which
//!    recomputes the postings, free ordering, and γ_𝒮 caches from
//!    scratch.

use medea_cluster::{
    ApplicationId, ClusterState, ContainerId, ContainerRequest, ExecutionKind, NodeGroupId, NodeId,
    Resources, Tag,
};
use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};

const NODES: u32 = 12;
const SEEDS: u64 = 64;
const OPS_PER_SEED: usize = 120;
const TAG_UNIVERSE: u8 = 6;

#[derive(Debug, Clone)]
enum Op {
    Alloc {
        app: u64,
        node: u32,
        mem: u64,
        tags: Vec<u8>,
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
}

fn tag_name(t: u8) -> Tag {
    Tag::new(format!("t{t}"))
}

fn random_op(rng: &mut StdRng) -> Op {
    match rng.random_range(0..20u32) {
        0..=9 => Op::Alloc {
            app: rng.random_range(0..5u64),
            node: rng.random_range(0..NODES),
            mem: rng.random_range(1..3000u64),
            tags: (0..rng.random_range(0..3usize))
                .map(|_| rng.random_range(0..TAG_UNIVERSE as u64) as u8)
                .collect(),
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
        _ => Op::Recover {
            node: rng.random_range(0..NODES),
        },
    }
}

fn build_state() -> ClusterState {
    let mut state = ClusterState::homogeneous(NODES as usize, Resources::new(16 * 1024, 64), 3);
    // Overlapping custom group: exercises multi-membership γ_𝒮 updates.
    state.register_group(
        NodeGroupId::new("zone"),
        vec![
            (0..7).map(NodeId).collect(),
            (5..NODES).map(NodeId).collect(),
        ],
    );
    state
}

/// Applies one op, keeping `live` (the releasable container ids) current.
fn apply(state: &mut ClusterState, op: &Op, live: &mut Vec<ContainerId>) {
    match op {
        Op::Alloc {
            app,
            node,
            mem,
            tags,
        } => {
            let req =
                ContainerRequest::new(Resources::new(*mem, 1), tags.iter().map(|&t| tag_name(t)));
            if let Ok(id) = state.allocate(
                ApplicationId(*app),
                NodeId(*node),
                &req,
                ExecutionKind::LongRunning,
            ) {
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
    }
}

// ---- Naive full-scan oracles (recomputed from public accessors) ----

fn oracle_nodes_with_tag(s: &ClusterState, tag: &Tag) -> Vec<NodeId> {
    s.node_ids().filter(|&n| s.gamma(n, tag) > 0).collect()
}

fn oracle_nodes_with_all_tags(s: &ClusterState, tags: &[Tag]) -> Vec<NodeId> {
    s.node_ids()
        .filter(|&n| tags.iter().all(|t| s.gamma(n, t) > 0))
        .collect()
}

fn oracle_by_free_memory(s: &ClusterState) -> Vec<NodeId> {
    let mut keyed: Vec<(u64, u32, u32)> = s
        .node_ids()
        .map(|n| {
            let f = s.free(n).unwrap();
            (f.memory_mb, f.vcores, n.0)
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().rev().map(|(_, _, n)| NodeId(n)).collect()
}

/// Every query family of the indexed state, checked against the oracles.
fn check_step(seed: u64, step: usize, s: &ClusterState) {
    let ctx = |q: &str| format!("seed {seed} step {step}: {q}");

    s.check_index_consistency().unwrap_or_else(|e| {
        panic!("{}: {e}", ctx("index consistency"));
    });

    // Tag queries: the fixed tag universe plus every app-id tag.
    let mut tags: Vec<Tag> = (0..TAG_UNIVERSE).map(tag_name).collect();
    tags.extend((0..5).map(|a| Tag::app_id(ApplicationId(a))));
    for t in &tags {
        assert_eq!(
            s.nodes_with_tag(t),
            oracle_nodes_with_tag(s, t),
            "{}",
            ctx("nodes_with_tag")
        );
    }

    // Conjunctive tag queries over pairs (including same-tag pairs).
    for pair in [[0u8, 1], [1, 1], [2, 4], [3, 5]] {
        let q: Vec<Tag> = pair.iter().map(|&t| tag_name(t)).collect();
        assert_eq!(
            s.nodes_with_all_tags(&q),
            oracle_nodes_with_all_tags(s, &q),
            "{}",
            ctx("all_tags")
        );
    }
    assert_eq!(
        s.nodes_with_all_tags(&[]),
        s.node_ids().collect::<Vec<_>>(),
        "{}",
        ctx("all_tags empty")
    );

    // Free-capacity ordering.
    assert_eq!(
        s.nodes_by_free_memory().collect::<Vec<_>>(),
        oracle_by_free_memory(s),
        "{}",
        ctx("by_free")
    );

    // Group-membership cardinalities: cached γ_𝒮 vs a member scan.
    for group in [NodeGroupId::rack(), NodeGroupId::new("zone")] {
        let sets = s.groups().sets_of(&group).unwrap();
        for (si, members) in sets.iter().enumerate() {
            for t in &tags {
                assert_eq!(
                    s.gamma_in_set(&group, si, t),
                    s.gamma_set(members, t),
                    "{}",
                    ctx("gamma_in_set")
                );
            }
        }
    }
}

/// Tentpole differential property: over ≥50 fixed seeds of random
/// allocate/release/retag/crash/recover sequences, every index query
/// equals the full-scan oracle after each step.
#[test]
fn index_matches_scan_oracle_under_random_ops() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0x1D1F ^ seed);
        let mut state = build_state();
        let mut live: Vec<ContainerId> = Vec::new();

        for step in 0..OPS_PER_SEED {
            let op = random_op(&mut rng);
            apply(&mut state, &op, &mut live);
            check_step(seed, step, &state);
        }

        // Draining the survivors restores a pristine, consistent index.
        for id in live {
            state.release(id).unwrap();
        }
        assert_eq!(state.num_containers(), 0);
        state.check_index_consistency().unwrap();
    }
}
