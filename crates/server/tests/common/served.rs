//! The served path on a fake µs clock: request streams shaped like the
//! repository benchmark's workloads, pushed through the batcher's
//! decisions and cycle body (`PendingWork::next_step`, `run_cycle`,
//! `run_drain`). The clock only moves when the batcher waits or runs a
//! cycle, and a cycle costs a fixed [`Batching::wall_us`], so the close
//! rules see the same gaps in every run; the solver never reaches its
//! deadline on these sizes (asserted), so the placements do not depend
//! on the machine either. `tests/served_transcripts.rs` pins what the
//! served streams do; `tests/quiet_sweep.rs` sweeps the close rules.
//!
//! The scheduler is the benchmark's arm (`LraAlgorithm::Ilp` on
//! `PlacerMode::Relaxed`) with a journal attached.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

use medea_cluster::{
    ApplicationId, ClusterState, ContainerRequest, ExecutionKind, NodeGroupId, NodeId, Resources,
    ShardConfig, Tag,
};
use medea_constraints::{check_container, parse_constraint};
use medea_core::{AppPhase, LraAlgorithm, LraRequest, MedeaScheduler, PlacerMode, SharedScheduler};
use medea_journal::{MemoryStorage, Wal};
use medea_obs::MetricsRegistry;
use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};
use medea_server::batcher::{
    run_cycle, run_drain, CycleInput, CycleReason, PendingWork, SpecOp, Step,
};
use medea_server::{
    AdmissionConfig, AdmissionQueue, BatchClose, ServerConfig, DRAIN_MAX_CYCLES, QUIET_MAX_US,
};

use super::board::BoardOracle;

// ---------------------------------------------------------------------
// The fake-clock driver.
// ---------------------------------------------------------------------

/// Bound on cycles per group, so a reconciler that never converges fails
/// the test instead of hanging it.
const MAX_CYCLES_PER_GROUP: usize = 400;
const TENANT: &str = "tenant";

pub enum Op {
    /// A place request under a tenant.
    Place(&'static str, LraRequest),
    Release(u64),
    Spec(SpecOp),
    /// A graceful shutdown request.
    Shutdown,
}

/// One request, `at_us` after its group starts.
pub struct Timed {
    pub at_us: u64,
    pub op: Op,
}

/// A stream is a list of groups; each group starts once the batcher has
/// gone idle after the previous one (the closed loop of the benchmark's
/// clients: a burst waits for its placements before its releases). The
/// last group ends in a shutdown that races the work ahead of it.
pub type Stream = Vec<Vec<Timed>>;

/// A stream with the cluster it runs on and its shard count (0: none).
pub type Workload = (ClusterState, usize, Stream);

/// How the batcher closes batches in one run, and what a cycle costs.
pub struct Batching {
    pub admission: AdmissionConfig,
    /// The quiet gap's bound (`AdmissionQueue::with_quiet_max`).
    pub quiet_max_us: u64,
    /// What one cycle costs on the fake clock.
    pub wall_us: u64,
}

impl Batching {
    /// The server's rules, with cycles costing `wall_us`.
    pub fn served(wall_us: u64) -> Batching {
        Batching {
            admission: AdmissionConfig::default(),
            quiet_max_us: QUIET_MAX_US,
            wall_us,
        }
    }
}

/// A place request built the way the connection thread builds it.
fn lra(app: u64, groups: &[(u32, u64, Vec<String>)], constraints: &[String]) -> LraRequest {
    let mut reqs = Vec::new();
    for (count, memory_mb, tags) in groups {
        let tags: Vec<Tag> = tags.iter().map(Tag::new).collect();
        for _ in 0..*count {
            reqs.push(ContainerRequest::new(
                Resources::new(*memory_mb, 1),
                tags.clone(),
            ));
        }
    }
    let parsed = constraints
        .iter()
        .map(|c| parse_constraint(c).expect("constraint parses"))
        .collect();
    LraRequest::new(ApplicationId(app), reqs, parsed)
}

fn reason_name(reason: CycleReason) -> &'static str {
    match reason {
        CycleReason::Close(BatchClose::Size) => "size",
        CycleReason::Close(BatchClose::Deadline) => "deadline",
        CycleReason::Close(BatchClose::Quiet) => "quiet",
        CycleReason::Wake => "wake",
        CycleReason::Converge => "converge",
        CycleReason::Drain => "drain",
    }
}

struct Served {
    pending: PendingWork,
    shared: SharedScheduler,
    registry: Arc<MetricsRegistry>,
    interval: u64,
    wall_us: u64,
    now: u64,
    tick: u64,
    converging: bool,
    drained: bool,
    cycles: u64,
    /// Cycles per reason, and how many requests the largest batch of
    /// each reason carried.
    reasons: BTreeMap<&'static str, (usize, usize)>,
    /// Requests per batch-carrying cycle, in order.
    batches: Vec<usize>,
    /// When each app not yet placed was admitted.
    enqueued: HashMap<ApplicationId, u64>,
    /// Admission to first placed board, per placed app.
    placed_us: Vec<u64>,
    transcript: String,
    /// Violated soft checks, summed over every published board.
    soft_violations: usize,
    /// Violated soft checks, summed over the groups once each settled.
    settled_soft: usize,
    /// The full rebuild every published board is compared with.
    oracle: BoardOracle,
}

impl Served {
    /// The benchmark's scheduler: ILP on the `Relaxed` arm, journaled,
    /// no periodic checkpoint.
    fn new(cluster: ClusterState, shards: usize, batching: &Batching) -> Served {
        let registry = MetricsRegistry::new();
        let mut m = MedeaScheduler::new(cluster, LraAlgorithm::Ilp, 10);
        m.lra_scheduler_mut().ilp.mode = PlacerMode::Relaxed;
        if shards > 0 {
            m.set_sharding(ShardConfig::with_shards(shards));
        }
        m.set_metrics(Arc::clone(&registry));
        m.attach_journal(Wal::new(MemoryStorage::new()), 0)
            .expect("attach journal");
        let interval = m.interval().max(1);
        let shared = SharedScheduler::new(m);
        let cap = ServerConfig::default().terminal_apps_cap;
        shared.set_dropped_cap(cap);
        shared.publish(0);
        let mut pending = PendingWork::new(batching.admission.clone());
        pending.queue =
            AdmissionQueue::with_quiet_max(batching.admission.clone(), batching.quiet_max_us);
        Served {
            pending,
            shared,
            registry,
            interval,
            wall_us: batching.wall_us,
            now: 0,
            tick: 0,
            converging: false,
            drained: false,
            cycles: 0,
            reasons: BTreeMap::new(),
            batches: Vec::new(),
            enqueued: HashMap::new(),
            placed_us: Vec::new(),
            transcript: String::new(),
            soft_violations: 0,
            settled_soft: 0,
            oracle: BoardOracle::new(cap),
        }
    }

    /// What a connection thread does with the request.
    fn deliver(&mut self, op: Op, at_us: u64) {
        let pending = &mut self.pending;
        match op {
            Op::Place(tenant, request) => {
                self.enqueued.insert(request.app, at_us);
                pending
                    .queue
                    .offer(tenant, request, at_us)
                    .expect("admitted");
            }
            Op::Release(app) => {
                self.enqueued.remove(&ApplicationId(app));
                if pending.queue.remove_app(ApplicationId(app)) == 0 {
                    pending.releases.push(app);
                }
            }
            Op::Spec(op) => pending.spec_ops.push(op),
            Op::Shutdown => {
                pending.queue.close();
                pending.shutdown = Some(true);
            }
        }
    }

    fn idle(&self) -> bool {
        self.pending.queue.is_empty()
            && self.pending.releases.is_empty()
            && self.pending.spec_ops.is_empty()
            && !self.converging
    }

    /// Delivers one group at its times and runs the batcher until it has
    /// nothing left to do or has drained. An arrival during a wait wakes
    /// the batcher, as the connection thread's `notify_all` does; one
    /// during a cycle is there when the cycle ends.
    fn run_group(&mut self, group: Vec<Timed>) {
        let base = self.now;
        let mut ops = group.into_iter().peekable();
        let mut woken = false;
        let mut cycles = 0;
        loop {
            while let Some(t) = ops.next_if(|t| base + t.at_us <= self.now) {
                self.deliver(t.op, base + t.at_us);
            }
            match self.pending.next_step(self.now, self.converging, woken) {
                Step::Wait { until_us } => {
                    match ops.peek() {
                        Some(t) if base + t.at_us <= until_us => self.now = base + t.at_us,
                        None if self.idle() => break,
                        _ => self.now = until_us,
                    }
                    woken = true;
                }
                Step::Cycle { reason } => {
                    self.cycle(reason);
                    woken = false;
                    cycles += 1;
                    assert!(cycles < MAX_CYCLES_PER_GROUP, "the group never settled");
                }
                Step::Finish { drain } => {
                    assert!(drain, "only graceful shutdowns here");
                    assert!(ops.peek().is_none(), "the shutdown ends the stream");
                    self.drain();
                    break;
                }
            }
        }
        self.settled_soft += self.shared.with_writer(|m| violated_checks(m, false));
    }

    fn cycle(&mut self, reason: CycleReason) {
        let input = self.pending.take(reason);
        let carried = input.batch.len();
        self.note(reason, &input);
        let tick = self.tick;
        let outcome = self.shared.with_writer(|m| run_cycle(m, input, tick));
        assert!(outcome.rejected.is_empty(), "every request registers");
        self.converging = outcome.converging;
        self.tick += self.interval;
        self.now += self.wall_us;
        self.publish();
        self.pending.queue.cycle_done(carried, self.wall_us);
    }

    /// The graceful drain: the sweep, its cycle, the drain cycles and the
    /// final checkpoint, then one board (the drain costs no fake time).
    fn drain(&mut self) {
        let sweep = self.pending.take(CycleReason::Drain);
        self.note(CycleReason::Drain, &sweep);
        let (converging, tick) = (self.converging, self.tick);
        let drained = self
            .shared
            .with_writer(|m| run_drain(m, sweep, converging, tick, DRAIN_MAX_CYCLES));
        assert!(drained.report.drain_complete, "the drain completes");
        assert!(drained.sweep.is_none_or(|s| s.rejected.is_empty()));
        self.tick = drained.tick;
        self.publish();
        self.drained = true;
    }

    fn note(&mut self, reason: CycleReason, input: &CycleInput) {
        let name = reason_name(reason);
        let seen = self.reasons.entry(name).or_default();
        seen.0 += 1;
        seen.1 = seen.1.max(input.batch.len());
        if !input.batch.is_empty() {
            self.batches.push(input.batch.len());
        }
        self.cycles += 1;
        let _ = write!(
            self.transcript,
            "cycle {} at {} {name} batch {} releases {} specs {} |",
            self.cycles,
            self.now,
            input.batch.len(),
            input.releases.len(),
            input.spec_ops.len(),
        );
    }

    /// Publishes the board at the current tick and appends every app on
    /// it: placed apps with their nodes in container order, pending and
    /// dropped ones by phase, managed apps with their lifecycle phase.
    /// The board must equal the full rebuild. An app on it for the first
    /// time as placed was placed now.
    fn publish(&mut self) {
        let expected = self.shared.with_writer(|m| self.oracle.rebuild(m));
        let board = self.shared.publish(self.tick);
        assert_eq!(board.apps, expected, "the board at tick {}", self.tick);
        for (app, phase) in &board.apps {
            let _ = write!(self.transcript, " {}", app.0);
            match &**phase {
                AppPhase::Placed { nodes } => {
                    if let Some(at) = self.enqueued.remove(app) {
                        self.placed_us.push(self.now - at);
                    }
                    for n in nodes {
                        let _ = write!(self.transcript, ",{}", n.0);
                    }
                }
                AppPhase::Pending { attempts, .. } => {
                    let _ = write!(self.transcript, " pending {attempts}");
                }
                AppPhase::Dropped => self.transcript.push_str(" dropped"),
            }
            if let Some(lc) = board.app_lifecycle(*app) {
                let _ = write!(self.transcript, " {}", lc.phase.name());
            }
        }
        self.transcript.push('\n');
        let (soft, hard) = self
            .shared
            .with_writer(|m| (violated_checks(m, false), violated_checks(m, true)));
        assert_eq!(hard, 0, "a published board breaks a hard constraint");
        self.soft_violations += soft;
    }
}

/// Violated `(constraint, container)` checks on the scheduler's state,
/// over its active soft or hard constraints.
fn violated_checks(m: &MedeaScheduler, hard: bool) -> usize {
    let constraints: Vec<_> = m
        .constraint_manager()
        .active_constraints()
        .into_iter()
        .filter(|c| c.is_hard() == hard)
        .collect();
    let state = m.state();
    state
        .allocations()
        .map(|a| {
            constraints
                .iter()
                .filter(|c| {
                    c.subject.matches_allocation(a)
                        && check_container(state, c, a.id).is_some_and(|ch| !ch.satisfied)
                })
                .count()
        })
        .sum()
}

/// Cycles per reason, and the largest batch a cycle of that reason took.
pub type Reasons = BTreeMap<&'static str, (usize, usize)>;

/// What a stream's run is pinned by: the transcript's hash, the violated
/// soft checks over its boards, and the simplex pivots (counts, so they
/// cannot be noisy; the served arm runs no LP).
#[derive(Debug, PartialEq)]
pub struct Pins {
    pub hash: u64,
    pub soft_violations: usize,
    pub pivots: u64,
}

/// What one run of a stream did.
pub struct Run {
    pub pins: Pins,
    pub reasons: Reasons,
    /// Requests per batch-carrying cycle, in order (the drain sweep's
    /// included).
    pub batches: Vec<usize>,
    /// Admission to first placed board, per placed app, in fake µs.
    pub placed_us: Vec<u64>,
    /// Violated soft checks, summed over the groups once each settled
    /// (unlike the pin's, it does not grow with the number of boards).
    pub settled_soft: usize,
}

/// Runs a stream to its drain; checks the ledger, the audit and that no
/// solve hit its deadline.
pub fn run((cluster, shards, stream): Workload, batching: &Batching) -> Run {
    let mut served = Served::new(cluster, shards, batching);
    for group in stream {
        served.run_group(group);
    }
    assert!(served.drained, "the stream ends in a drain");
    assert!(served.shared.status().ledger_intact(), "recovery ledger");
    served
        .shared
        .with_writer(|m| m.audit())
        .expect("state audit after the drain");
    let snap = served.registry.snapshot();
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(
        count("solver.deadline_hits_total"),
        0,
        "a solve hit its deadline: the transcript would depend on the machine"
    );
    let pins = Pins {
        hash: fnv1a(served.transcript.as_bytes()),
        soft_violations: served.soft_violations,
        pivots: count("solver.simplex_pivots_total"),
    };
    Run {
        pins,
        reasons: served.reasons,
        batches: served.batches,
        placed_us: served.placed_us,
        settled_soft: served.settled_soft,
    }
}

/// 64-bit FNV-1a: the pinned-transcript hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

// ---------------------------------------------------------------------
// The streams.
// ---------------------------------------------------------------------

/// App ids and request shapes drawn from one seed.
struct Gen {
    rng: StdRng,
    next_app: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4E_D7A4);
        let next_app = rng.random_range(1_000..2_000u64);
        Gen { rng, next_app }
    }

    fn app(&mut self) -> u64 {
        self.next_app += self.rng.random_range(1..5u64);
        self.next_app
    }

    /// `steady_tiny`: one unconstrained container.
    fn tiny(&mut self) -> LraRequest {
        let app = self.app();
        let memory_mb = 256 * self.rng.random_range(1..5u64);
        lra(
            app,
            &[(1, memory_mb, vec![format!("tiny{}", app % 97)])],
            &[],
        )
    }

    /// `burst_hbase`: 8 region servers plus master, thrift and secondary
    /// with the paper's four constraints; group and constraint order
    /// shuffled.
    fn hbase(&mut self) -> LraRequest {
        let app = self.app();
        let role = |r: &str| vec!["hb".to_string(), r.to_string()];
        let mut groups = vec![
            (8, 2048, role("hb_rs")),
            (1, 1024, role("hb_m")),
            (1, 1024, role("hb_thrift")),
            (1, 1024, role("hb_sec")),
        ];
        let mut constraints = vec![
            format!("{{hb_rs ∧ appid:{app}, {{hb_rs ∧ appid:{app}, 1, ∞}}, rack}}"),
            "{hb_rs, {hb_rs, 0, 1}, node}".to_string(),
            format!("{{hb_m ∧ appid:{app}, {{hb_thrift ∧ appid:{app}, 1, ∞}}, node}}"),
            format!("{{hb_m ∧ appid:{app}, {{hb_sec ∧ appid:{app}, 0, 0}}, node}}"),
        ];
        self.rng.shuffle(&mut groups);
        self.rng.shuffle(&mut constraints);
        lra(app, &groups, &constraints)
    }

    /// `scale_sharded` / `churn_restart`: `n` containers on distinct
    /// nodes (intra-app node anti-affinity on a per-app tag).
    fn spread(&mut self, n: u32) -> LraRequest {
        let app = self.app();
        let tag = format!("lra{app}");
        let memory_mb = 512 * self.rng.random_range(1..4u64);
        let constraint = format!("{{{tag}, {{{tag}, 0, 0}}, node}}");
        lra(app, &[(n, memory_mb, vec![tag])], &[constraint])
    }
}

fn at(at_us: u64, op: Op) -> Timed {
    Timed { at_us, op }
}

fn place(request: LraRequest) -> Op {
    Op::Place(TENANT, request)
}

/// 16 GB / 16-vcore nodes in 40-node racks.
fn racked(nodes: usize) -> ClusterState {
    ClusterState::homogeneous(nodes, Resources::new(16 * 1024, 16), (nodes / 40).max(1))
}

/// 60 16 GB / 16-vcore nodes in three racks: the HBase streams' cluster.
fn hbase_racks() -> ClusterState {
    ClusterState::homogeneous(60, Resources::new(16 * 1024, 16), 3)
}

/// Open loop of one-container apps: a prefill in two 64-frame chunks,
/// then a release of the oldest and a new place every 25 ms (40/s), then
/// 140 places 5 µs apart and a shutdown right behind them: all but the
/// first 64 arrive during that batch's cycle, so the drain sweep takes
/// more than one batch.
pub fn steady_tiny(seed: u64) -> Workload {
    let mut gen = Gen::new(seed);
    let mut live = VecDeque::new();
    let mut stream = Stream::new();
    for _ in 0..2 {
        let chunk = (0..64)
            .map(|k| {
                let request = gen.tiny();
                live.push_back(request.app.0);
                at(10 * k, place(request))
            })
            .collect();
        stream.push(chunk);
    }
    let mut open = Vec::new();
    for k in 0..48u64 {
        let old = live.pop_front().expect("prefilled");
        open.push(at(25_000 * k, Op::Release(old)));
        open.push(at(25_000 * k + 50, place(gen.tiny())));
    }
    stream.push(open);
    let mut last: Vec<Timed> = (0..140).map(|k| at(5 * k, place(gen.tiny()))).collect();
    last.push(at(700, Op::Shutdown));
    stream.push(last);
    (racked(80), 0, stream)
}

/// Closed loop of bursts: `apps` places `spacing_us` apart, then their
/// releases 20 µs apart; the last burst races the shutdown.
fn bursts(
    gen: &mut Gen,
    bursts: usize,
    apps: u64,
    spacing_us: u64,
    make: impl Fn(&mut Gen) -> LraRequest,
) -> Stream {
    let mut stream = Stream::new();
    for _ in 0..bursts {
        let requests: Vec<LraRequest> = (0..apps).map(|_| make(gen)).collect();
        let ids: Vec<u64> = requests.iter().map(|r| r.app.0).collect();
        stream.push(
            (0..)
                .zip(requests)
                .map(|(k, r)| at(spacing_us * k, place(r)))
                .collect(),
        );
        stream.push(
            (0..)
                .zip(ids)
                .map(|(k, app)| at(20 * k, Op::Release(app)))
                .collect(),
        );
    }
    let mut last: Vec<Timed> = (0..apps)
        .map(|k| at(spacing_us * k, place(make(gen))))
        .collect();
    last.push(at(spacing_us * apps + 100, Op::Shutdown));
    stream.push(last);
    stream
}

/// Bursts of 3 HBase-shaped LRAs over three 20-node racks, their frames
/// `spacing_us` apart (the served stream's: 20).
pub fn burst_hbase_spaced(seed: u64, spacing_us: u64) -> Workload {
    let mut gen = Gen::new(seed);
    let stream = bursts(&mut gen, 4, 3, spacing_us, Gen::hbase);
    (hbase_racks(), 0, stream)
}

/// Bursts of 3 HBase-shaped LRAs, 20 µs apart.
pub fn burst_hbase(seed: u64) -> Workload {
    burst_hbase_spaced(seed, 20)
}

fn partition(n: usize, parts: usize) -> Vec<Vec<NodeId>> {
    let mut sets = vec![Vec::new(); parts];
    for i in 0..n {
        sets[i * parts / n].push(NodeId(i as u32));
    }
    sets
}

/// Bursts of 8 anti-affinity apps, their frames `spacing_us` apart (the
/// served stream's: 20), on a racked cluster with 100-node service
/// units, 10 upgrade domains, a quarter of its memory taken by
/// background services, and 4 shards.
pub fn scale_sharded_spaced(seed: u64, spacing_us: u64) -> Workload {
    let mut gen = Gen::new(seed);
    let n = 400;
    let mut cluster = racked(n);
    cluster.register_group(NodeGroupId::service_unit(), partition(n, n / 100));
    cluster.register_group(NodeGroupId::upgrade_domain(), partition(n, 10));
    for k in 0..n * 2 {
        let app = ApplicationId(1 + (k / 4) as u64);
        let svc = gen.rng.random_range(0..50u32);
        let req = ContainerRequest::new(Resources::new(2048, 1), [Tag::new(format!("svc{svc}"))]);
        loop {
            let node = NodeId(gen.rng.random_range(0..n as u32));
            if cluster
                .allocate(app, node, &req, ExecutionKind::LongRunning)
                .is_ok()
            {
                break;
            }
        }
    }
    let stream = bursts(&mut gen, 3, 8, spacing_us, |g| g.spread(8));
    (cluster, 4, stream)
}

/// Bursts of 8 anti-affinity apps, 20 µs apart.
pub fn scale_sharded(seed: u64) -> Workload {
    scale_sharded_spaced(seed, 20)
}

/// Place 4 → scale to 6 → roll to the next version → scale to 3 →
/// release the app placed `LAG` cycles earlier. Every other cycle's
/// scale-up races its own place. The rolling upgrade keeps the
/// reconciler converging across several cycles, and the shutdown lands
/// while one is still rolling.
pub fn churn_restart(seed: u64) -> Workload {
    const LAG: usize = 6;
    let scale = |app, replicas| Op::Spec(SpecOp::Scale { app, replicas });
    let upgrade = |app| Op::Spec(SpecOp::Upgrade { app, version: 2 });
    let mut gen = Gen::new(seed);
    let mut history = VecDeque::new();
    let mut stream = Stream::new();
    for c in 0..12 {
        let request = gen.spread(4);
        let app = request.app.0;
        if c % 2 == 0 {
            stream.push(vec![at(0, place(request))]);
            stream.push(vec![at(0, scale(app, 6))]);
        } else {
            stream.push(vec![at(0, place(request)), at(30, scale(app, 6))]);
        }
        stream.push(vec![at(0, upgrade(app))]);
        stream.push(vec![at(0, scale(app, 3))]);
        history.push_back(app);
        if history.len() > LAG {
            let old = history.pop_front().expect("non-empty");
            stream.push(vec![at(0, Op::Release(old))]);
        }
    }
    let request = gen.spread(4);
    let app = request.app.0;
    stream.push(vec![at(0, place(request))]);
    stream.push(vec![
        at(0, upgrade(app)),
        at(30, place(gen.spread(4))),
        at(4_500, Op::Shutdown),
    ]);
    (racked(80), 0, stream)
}

/// Spacings of [`trickle`]'s groups (µs).
pub const TRICKLE_SPACINGS_US: [u64; 5] = [250, 500, 1_000, 2_000, 5_000];

/// HBase-shaped LRAs from three tenants, one group per spacing in
/// [`TRICKLE_SPACINGS_US`]: six places that far apart, then their
/// releases; then a shutdown. Unlike a burst, a short quiet gap splits
/// such a group into several batches.
pub fn trickle(seed: u64) -> Workload {
    const TENANTS: [&str; 3] = ["tenant-a", "tenant-b", "tenant-c"];
    let mut gen = Gen::new(seed);
    let mut stream = Stream::new();
    for spacing_us in TRICKLE_SPACINGS_US {
        let requests: Vec<LraRequest> = (0..6).map(|_| gen.hbase()).collect();
        let ids: Vec<u64> = requests.iter().map(|r| r.app.0).collect();
        stream.push(
            (0..)
                .zip(requests)
                .map(|(k, r)| at(spacing_us * k, Op::Place(TENANTS[k as usize % 3], r)))
                .collect(),
        );
        stream.push(ids.into_iter().map(|app| at(0, Op::Release(app))).collect());
    }
    stream.push(vec![at(0, Op::Shutdown)]);
    (hbase_racks(), 0, stream)
}
