//! The four workloads' fixed parameters and the system under test: a
//! seeded cluster, a journaled `MedeaScheduler` on the relaxed ILP arm,
//! and an in-process `MedeaServer` on a loopback port.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use medea_cluster::{
    ApplicationId, ClusterState, ContainerRequest, ExecutionKind, NodeGroupId, NodeId, Resources,
    ShardConfig, Tag,
};
use medea_core::{LraAlgorithm, MedeaScheduler, PlacerMode};
use medea_journal::{FileStorage, Wal};
use medea_obs::MetricsRegistry;
use medea_rand::RngExt;
use medea_server::{MedeaServer, ServerConfig, ServerHandle};

use crate::gen::Gen;

/// How a workload offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Open loop: `rate` place/s on a schedule, a sliding window of
    /// `live` one-container apps.
    Steady { rate: u32, live: usize },
    /// Closed loop: bursts of `apps` HBase instances.
    Hbase { apps: usize },
    /// Closed loop: bursts of `apps` independent `size`-container apps.
    Spread { apps: usize, size: u32 },
    /// Closed loop: `cycles_per_s × seconds` place/scale/scale/release
    /// cycles, then a crash and timed restarts.
    Churn { cycles_per_s: u32 },
}

/// One workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub nodes: usize,
    /// 0 = unsharded.
    pub shards: usize,
    /// A placement slower than this is late.
    pub late_limit_ms: f64,
    /// Whether `placed_tail_ms` is the p90 (enough independent samples
    /// in a full window) or falls back to the median.
    pub tail_p90: bool,
    /// How the workload's compute slows when the calibration kernel
    /// slows by a factor `f`: by `f^sensitivity`. 1 where the work is
    /// shaped like the kernel; above it for `scale_sharded`, whose
    /// 5,000-node state copies and scans are memory-bound and suffer more
    /// from a busy neighbour (fitted 1.18–1.3 over three series of ten
    /// runs, burst by burst; the others fitted 0.86–1.03).
    pub sensitivity: f64,
}

impl Spec {
    /// Whether the workload's latencies and rate are set by compute — a
    /// closed-loop client waiting on solves — and so stretch with the
    /// machine's speed. The open loop's are set by its schedule and the
    /// 10 ms batch-close timer, with ~5 ms of compute on top.
    pub fn compute_bound(&self) -> bool {
        !matches!(self.kind, Kind::Steady { .. })
    }

    /// What to divide this workload's compute times by when the kernel
    /// took `factor` times its reference time.
    pub fn slowdown(&self, factor: f64) -> f64 {
        factor.powf(self.sensitivity)
    }
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "steady_tiny",
        why: "open loop, 40 one-container apps/s, 1000 live: the placer is idle, so decode, batch wait, commit, journal append and board publish are the latency",
        kind: Kind::Steady { rate: 40, live: 1000 },
        nodes: 500,
        shards: 0,
        late_limit_ms: 50.0,
        tail_p90: true,
        sensitivity: 1.0,
    },
    Spec {
        name: "burst_hbase",
        why: "closed loop, bursts of 3 HBase LRAs with the paper's four constraints: model build, scoring and constraint checks dominate; the fixed path and cluster size do not matter",
        kind: Kind::Hbase { apps: 3 },
        nodes: 500,
        shards: 0,
        late_limit_ms: 3000.0,
        tail_p90: false,
        sensitivity: 1.0,
    },
    Spec {
        name: "scale_sharded",
        why: "closed loop, 5000 census-shaped nodes, 4 shards, bursts of 8 anti-affinity apps: snapshot, shard plan, routing and per-shard scans scale with nodes; the only workload sharding can move",
        kind: Kind::Spread { apps: 8, size: 8 },
        nodes: 5000,
        shards: 4,
        late_limit_ms: 2000.0,
        tail_p90: false,
        sensitivity: 1.25,
    },
    Spec {
        name: "churn_restart",
        why: "closed loop, place/scale-up/scale-down/release cycles then crash and 9 restarts: cancel, reconciler and journal replay beside place and journal append, on a fixed record count",
        kind: Kind::Churn { cycles_per_s: 15 },
        nodes: 500,
        shards: 0,
        late_limit_ms: 250.0,
        tail_p90: true,
        sensitivity: 1.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Distinct background service tags on the census cluster.
const SERVICE_TAGS: u32 = 50;

fn partition(n: usize, parts: usize) -> Vec<Vec<NodeId>> {
    let parts = parts.max(1);
    let mut sets = vec![Vec::new(); parts];
    for i in 0..n {
        sets[i * parts / n].push(NodeId(i as u32));
    }
    sets
}

/// 16 GB / 16-vcore nodes in 40-node racks. The sharded workload adds
/// the census shape of `scale_bench` (100-node service units, 10 upgrade
/// domains) and fills a quarter of node memory with background
/// `svc0..svc49` containers (seeded placement).
fn cluster(spec: &Spec, gen: &mut Gen) -> ClusterState {
    let n = spec.nodes;
    let mut state = ClusterState::homogeneous(n, Resources::new(16 * 1024, 16), (n / 40).max(1));
    if spec.shards == 0 {
        return state;
    }
    state.register_group(NodeGroupId::service_unit(), partition(n, (n / 100).max(1)));
    state.register_group(NodeGroupId::upgrade_domain(), partition(n, 10));
    let rng = gen.rng();
    for k in 0..n * 2 {
        let app = ApplicationId(1_000 + (k / 4) as u64);
        let svc = rng.random_range(0..SERVICE_TAGS);
        let req = ContainerRequest::new(Resources::new(2048, 1), [Tag::new(format!("svc{svc}"))]);
        loop {
            let node = NodeId(rng.random_range(0..n as u32));
            if state
                .allocate(app, node, &req, ExecutionKind::LongRunning)
                .is_ok()
            {
                break;
            }
        }
    }
    state
}

/// A running system under test.
pub struct Env {
    pub handle: ServerHandle,
    pub registry: Arc<MetricsRegistry>,
    pub journal_dir: PathBuf,
    /// Containers allocated before any request (the quiescence level).
    pub background: u64,
}

/// The scheduler every pass and the replay run: ILP algorithm on the
/// relaxed arm, journal on `FileStorage` with no periodic checkpoint
/// (the run is the WAL tail), metrics only when `traced`.
pub fn scheduler(
    spec: &Spec,
    gen: &mut Gen,
    journal_dir: &Path,
    metrics: Option<&Arc<MetricsRegistry>>,
) -> Result<MedeaScheduler, String> {
    let mut m = MedeaScheduler::new(cluster(spec, gen), LraAlgorithm::Ilp, 10);
    m.lra_scheduler_mut().ilp.mode = PlacerMode::Relaxed;
    if spec.shards > 0 {
        m.set_sharding(ShardConfig::with_shards(spec.shards));
    }
    if let Some(registry) = metrics {
        m.set_metrics(Arc::clone(registry));
    }
    let _ = std::fs::remove_dir_all(journal_dir);
    let storage = FileStorage::open(journal_dir).map_err(|e| format!("journal dir: {e}"))?;
    m.attach_journal(Wal::new(storage), 0)
        .map_err(|e| format!("attach journal: {e}"))?;
    Ok(m)
}

pub fn start(spec: &Spec, gen: &mut Gen, journal_dir: &Path, traced: bool) -> Result<Env, String> {
    let registry = MetricsRegistry::new();
    let m = scheduler(spec, gen, journal_dir, traced.then_some(&registry))?;
    let background = m.state().num_containers() as u64;
    let handle = MedeaServer::start(m, ServerConfig::default(), Arc::clone(&registry))
        .map_err(|e| format!("bind: {e}"))?;
    Ok(Env {
        handle,
        registry,
        journal_dir: journal_dir.to_path_buf(),
        background,
    })
}
