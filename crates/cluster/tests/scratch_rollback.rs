//! A `Scratch` guard leaves the state exactly as found.
//!
//! The guard is new; the oracle is not: `digest()` (including its
//! `epoch=… next_container=…` header), `check_index_consistency()`,
//! `check_allocation_consistency()`, the index-backed queries and the
//! attached journal's append count all predate it. On fixed `medea-rand`
//! seeds a state with overlapping registered groups, deployed
//! containers, an unavailable node and a node tag removal that consumed
//! a container's occurrence goes through 200 random tentative
//! operations — logged allocations, releases of the guard's own
//! containers, nested guards, an early return with
//! containers still allocated — and every observation must read after
//! the drop what it read before. The same holds when a panic unwinds
//! through two open guards.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use medea_cluster::{
    ApplicationId, ClusterState, ContainerId, ContainerRequest, ExecutionKind, NodeGroupId, NodeId,
    Resources, Tag,
};
use medea_journal::{MemoryStorage, Wal};
use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};

const NODES: u32 = 12;
const SEEDS: u64 = 64;
const OPS: usize = 200;
const TAG_UNIVERSE: u64 = 6;

fn random_request(rng: &mut StdRng) -> ContainerRequest {
    let tags: Vec<Tag> = (0..rng.random_range(0..3usize))
        .map(|_| Tag::new(format!("t{}", rng.random_range(0..TAG_UNIVERSE))))
        .collect();
    ContainerRequest::new(Resources::new(rng.random_range(1..3000u64), 1), tags)
}

/// `rack` (3 disjoint sets) and `zone` (two sets sharing nodes 5 and 6),
/// ~24 deployed containers of apps 0..5, one unavailable node, and on
/// node 3 a `t0` occurrence a container contributed and
/// `remove_node_tag` consumed. The journal is attached last.
fn base_state(rng: &mut StdRng) -> (ClusterState, Vec<ContainerId>, Arc<Mutex<Wal>>) {
    let mut state = ClusterState::homogeneous(NODES as usize, Resources::new(16 * 1024, 64), 3);
    state.register_group(
        NodeGroupId::new("zone"),
        vec![
            (0..7).map(NodeId).collect(),
            (5..NODES).map(NodeId).collect(),
        ],
    );
    let mut deployed = Vec::new();
    for _ in 0..24 {
        let app = ApplicationId(rng.random_range(0..5u64));
        let node = NodeId(rng.random_range(0..NODES));
        let request = random_request(rng);
        deployed.extend(state.allocate(app, node, &request, ExecutionKind::LongRunning));
    }
    let tagged = ContainerRequest::new(Resources::new(256, 1), [Tag::new("t0")]);
    deployed.push(
        state
            .allocate(
                ApplicationId(0),
                NodeId(3),
                &tagged,
                ExecutionKind::LongRunning,
            )
            .unwrap(),
    );
    while state.gamma(NodeId(3), &Tag::new("t0")) > 0 {
        state.remove_node_tag(NodeId(3), &Tag::new("t0")).unwrap();
    }
    state
        .set_available(NodeId(rng.random_range(0..NODES)), false)
        .unwrap();
    let wal = Arc::new(Mutex::new(Wal::new(MemoryStorage::new())));
    state.attach_wal(Arc::clone(&wal));
    (state, deployed, wal)
}

/// Everything a placer or the restore path can observe of the state.
#[derive(Debug, PartialEq)]
struct Observed {
    digest: String,
    by_free_memory: Vec<NodeId>,
    hosts_per_tag: Vec<(Tag, Vec<NodeId>)>,
}

fn observe(state: &ClusterState) -> Observed {
    state.check_index_consistency().unwrap();
    state.check_allocation_consistency().unwrap();
    let mut tags: Vec<Tag> = state
        .node_ids()
        .flat_map(|n| state.node_tags(n).unwrap().iter().map(|(t, _)| t.clone()))
        .collect();
    tags.sort();
    tags.dedup();
    Observed {
        digest: state.digest(),
        by_free_memory: state.nodes_by_free_memory().collect(),
        hosts_per_tag: tags
            .into_iter()
            .map(|t| {
                let hosts = state.nodes_with_all_tags(std::slice::from_ref(&t));
                (t, hosts)
            })
            .collect(),
    }
}

/// Opens a guard on `state` and runs up to `ops` random tentative
/// operations under it; on half the calls it returns early, mid-sequence,
/// with whatever is still allocated. Either way the guard drops here.
fn tentative_run(
    state: &mut ClusterState,
    rng: &mut StdRng,
    deployed: &[ContainerId],
    ops: usize,
    depth: u32,
) {
    let mut work = state.scratch();
    let mut own: Vec<ContainerId> = Vec::new();
    let return_at = rng
        .random_bool(0.5)
        .then(|| rng.random_range(0..ops.max(1)));
    for step in 0..ops {
        if Some(step) == return_at {
            return;
        }
        // Apps 5..8 exist only tentatively: their per-app lists must go.
        let app = ApplicationId(rng.random_range(0..8u64));
        let node = NodeId(rng.random_range(0..NODES));
        match rng.random_range(0..20u32) {
            0..=8 => {
                let request = random_request(rng);
                own.extend(work.allocate(app, node, &request, ExecutionKind::LongRunning));
            }
            9..=12 if !own.is_empty() => {
                let id = own.swap_remove(rng.random_range(0..own.len()));
                work.release(id)
                    .expect("a guard releases what it allocated");
            }
            13 => {
                // What was there before the guard is not the guard's to undo.
                let id = deployed[rng.random_range(0..deployed.len())];
                assert!(work.release(id).is_err(), "released a deployed container");
            }
            17..=18 if depth < 2 => {
                let outer = observe(&work);
                tentative_run(&mut work, rng, deployed, 12, depth + 1);
                assert_eq!(
                    observe(&work),
                    outer,
                    "a nested guard leaked into its parent"
                );
            }
            _ => {
                work.check_index_consistency().unwrap();
                work.check_allocation_consistency().unwrap();
            }
        }
    }
}

#[test]
fn guard_leaves_every_observation_as_found() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0x5C4A7C ^ seed);
        let (mut state, deployed, wal) = base_state(&mut rng);
        let before = observe(&state);

        tentative_run(&mut state, &mut rng, &deployed, OPS, 0);

        assert_eq!(observe(&state), before, "seed {seed}");
        let appended = || wal.lock().unwrap().stats().records_appended;
        assert_eq!(appended(), 0, "seed {seed}: tentative work was journaled");

        // The state is live again: the next mutation moves the epoch and
        // reaches the journal.
        let epoch = state.epoch();
        let node = state.node_ids().find(|&n| state.is_available(n)).unwrap();
        let small = ContainerRequest::new(Resources::new(1, 0), []);
        state
            .allocate(ApplicationId(1), node, &small, ExecutionKind::LongRunning)
            .unwrap();
        assert_eq!((state.epoch(), appended()), (epoch + 1, 1), "seed {seed}");
    }
}

/// Random tentative allocations and releases of `own` containers.
fn allocate_or_release(
    state: &mut ClusterState,
    rng: &mut StdRng,
    own: &mut Vec<ContainerId>,
    ops: usize,
) {
    for _ in 0..ops {
        if own.is_empty() || rng.random_bool(0.7) {
            let app = ApplicationId(rng.random_range(0..8u64));
            let node = NodeId(rng.random_range(0..NODES));
            let request = random_request(rng);
            own.extend(state.allocate(app, node, &request, ExecutionKind::LongRunning));
        } else {
            let id = own.swap_remove(rng.random_range(0..own.len()));
            state
                .release(id)
                .expect("a guard releases what it allocated");
        }
    }
}

#[test]
fn a_panic_unwinds_every_open_guard() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0x0DD5 ^ seed);
        let (mut state, _, wal) = base_state(&mut rng);
        let before = observe(&state);

        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut outer = state.scratch();
            let mut own = Vec::new();
            allocate_or_release(&mut outer, &mut rng, &mut own, 60);
            let mut inner = outer.scratch();
            let mut inner_own = Vec::new();
            allocate_or_release(&mut inner, &mut rng, &mut inner_own, 30);
            panic!("a solver stage panicked with two guards open");
        }));

        assert!(caught.is_err(), "seed {seed}: the closure must panic");
        assert_eq!(observe(&state), before, "seed {seed}");
        let appended = wal.lock().unwrap().stats().records_appended;
        assert_eq!(appended, 0, "seed {seed}: tentative work was journaled");
    }
}
