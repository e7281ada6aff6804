//! The `medea-server` daemon: TCP front-end over a [`SharedScheduler`].
//!
//! # Threading model (DESIGN.md §7f)
//!
//! - **Listener thread**: non-blocking accept loop. Never does protocol
//!   work, so a slow or hostile client cannot block new connections. At
//!   the connection cap it sends a best-effort `overloaded` frame and
//!   closes.
//! - **Connection threads** (one per client): frame decode, admission,
//!   immediate reply. Place requests are *admitted* (bounded queue,
//!   per-tenant quota) and answered with `accepted`/`overloaded` right
//!   away — placement itself is asynchronous. Queries are answered from
//!   the published [`StatusBoard`] without touching the scheduler.
//!   Reads use a timeout so every thread re-checks the shutdown flag.
//! - **Batcher thread**: the *single writer*. It only locks the
//!   [`PendingWork`], asks [`PendingWork::next_step`], waits and calls:
//!   a cycle is [`run_cycle`] under the writer lock, a graceful end is
//!   [`run_drain`]. The release gate, the board publish and the metrics
//!   stay on the thread. The steps, first match wins:
//!
//!   | step | when |
//!   |---|---|
//!   | `Finish { drain: false }` | a crash was requested: stop dead, abandoning queued admissions, releases and spec changes. It wins over every other step. |
//!   | `Cycle { Converge }` | the last cycle left the reconciler converging and the thread was just woken, by a notify or at its 20 ms bound |
//!   | `Finish { drain: true }` | a graceful shutdown was requested: take everything queued as the sweep, then `run_drain` |
//!   | `Cycle { Close(rule) }` | the admission queue closes a batch on size, deadline or quiet |
//!   | `Cycle { Wake }` | releases or spec changes are waiting |
//!   | `Wait { until_us }` | otherwise: until the queue's next close time, at most 20 ms |
//!
//!   A cycle takes the next batch (up to `batch_max_size`), every
//!   release and every spec change. What a batch-carrying round took,
//!   up to `QUIET_MAX_US`, is the next quiet gap. Every batch-carrying
//!   cycle is counted under its close rule or, for the other three
//!   reasons, as forced. Journal checkpoints ride the scheduler's own
//!   cadence plus one final checkpoint at drain, so a restarted server
//!   passes the work-preserving restart audit.
//!
//! # Release semantics
//!
//! A `release` cancels the app wherever it currently is: deployed
//! containers are freed, an entry still waiting in the admission queue
//! is pulled out (returning the tenant's quota slot), and an entry the
//! scheduler holds undeployed — queued or inside an in-flight solve —
//! is purged via [`MedeaScheduler::cancel_lra`], so an accepted-but-
//! unplaced app can never be placed after its release was acknowledged.
//!
//! # Trust model
//!
//! The wire protocol is unauthenticated: anyone who can connect can
//! place, release (their own tenant's apps, by honesty only), and query.
//! It is meant for loopback or trusted research networks. The one
//! destructive request, `shutdown`, is therefore gated: it is honoured
//! from loopback peers only unless
//! [`ServerConfig::allow_remote_shutdown`] is set.

use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use medea_cluster::{ApplicationId, ContainerRequest, Resources, Tag};
use medea_constraints::parse_constraint;
use medea_core::{AppPhase, LraRequest, MedeaScheduler, SharedScheduler, StatusBoard};
use medea_obs::{Counter, MetricsRegistry};

use crate::admission::{AdmissionConfig, BatchClose, ShedReason, RETRY_AFTER_MS};
use crate::batcher::{
    run_cycle, run_drain, CycleInput, CycleOutcome, CycleReason, DrainReport, PendingWork, SpecOp,
    Step,
};
use crate::proto::{
    write_frame, FrameError, FrameReader, Request, Response, StatusReply, MAX_FRAME_BYTES,
};

/// Concurrent-connection cap; excess connections are refused with a
/// typed `overloaded` frame.
pub const MAX_CONNECTIONS: usize = 64;

/// Cycle budget for the graceful drain.
pub const DRAIN_MAX_CYCLES: u64 = 256;

/// Socket read timeout; bounds how long any thread can go without
/// re-checking the shutdown flag.
pub const READ_TIMEOUT_MS: u64 = 25;

/// Server knobs. The fixed limits are [`MAX_CONNECTIONS`],
/// [`MAX_FRAME_BYTES`], [`DRAIN_MAX_CYCLES`] and [`READ_TIMEOUT_MS`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Admission-control and batching config.
    pub admission: AdmissionConfig,
    /// Terminal (released / rejected) app-meta entries kept before the
    /// oldest age out; bounds the meta table on a long-running daemon.
    pub terminal_apps_cap: usize,
    /// Whether a wire `shutdown` request from a non-loopback peer is
    /// honoured; off by default (see the module docs' trust model).
    pub allow_remote_shutdown: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            admission: AdmissionConfig::default(),
            terminal_apps_cap: 4096,
            allow_remote_shutdown: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetaPhase {
    Active,
    Released,
    /// Constraint registration failed at submit time (after the
    /// `accepted` reply — admission validates syntax, the scheduler
    /// validates semantics).
    Rejected,
}

#[derive(Debug, Clone)]
struct AppMeta {
    tenant: String,
    phase: MetaPhase,
}

/// App metadata with bounded memory: terminal (Released / Rejected)
/// entries age out once more than `cap` of them have accumulated, oldest
/// transition first, so a long-running daemon's meta table tracks live
/// apps plus a bounded tail of history. Queries for an aged-out app
/// answer `unknown`, which is also what a fresh server would say.
struct AppTable {
    map: HashMap<u64, AppMeta>,
    /// Terminal transitions in order; may hold stale ids (an app
    /// re-placed after release) which eviction skips.
    terminal: VecDeque<u64>,
    cap: usize,
}

impl AppTable {
    fn new(cap: usize) -> Self {
        AppTable {
            map: HashMap::new(),
            terminal: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    fn phase(&self, app: u64) -> Option<MetaPhase> {
        self.map.get(&app).map(|m| m.phase)
    }

    /// Marks `app` active under `tenant`; returns the record it replaced
    /// (a released or rejected one) for [`AppTable::restore`].
    fn insert_active(&mut self, app: u64, tenant: String) -> Option<AppMeta> {
        self.map.insert(
            app,
            AppMeta {
                tenant,
                phase: MetaPhase::Active,
            },
        )
    }

    /// Undoes [`AppTable::insert_active`] for a request that never
    /// entered the system: the app is what it was before.
    fn restore(&mut self, app: u64, previous: Option<AppMeta>) {
        match previous {
            Some(meta) => self.map.insert(app, meta),
            None => self.map.remove(&app),
        };
    }

    /// Whether `tenant` may release or respecify `app`: it must be active
    /// and theirs.
    fn check_owner(&self, id: u64, tenant: &str, app: u64) -> Result<(), Response> {
        match self.map.get(&app) {
            Some(meta) if meta.phase == MetaPhase::Active && meta.tenant == tenant => Ok(()),
            Some(meta) if meta.phase == MetaPhase::Active => Err(error(
                id,
                "wrong_tenant",
                format!("app {app} belongs to another tenant"),
            )),
            _ => Err(error(id, "unknown_app", format!("app {app} is not active"))),
        }
    }

    /// Flips an app's phase; terminal transitions enter the aging queue
    /// and may evict the oldest terminal entries past the cap.
    fn set_phase(&mut self, app: u64, phase: MetaPhase) {
        if let Some(meta) = self.map.get_mut(&app) {
            meta.phase = phase;
        }
        if phase != MetaPhase::Active {
            self.terminal.push_back(app);
            while self.terminal.len() > self.cap {
                let Some(old) = self.terminal.pop_front() else {
                    break;
                };
                // Stale entry: the id was re-placed and is Active again
                // (or already evicted) — only terminal metas leave.
                if self
                    .map
                    .get(&old)
                    .is_some_and(|m| m.phase != MetaPhase::Active)
                {
                    self.map.remove(&old);
                }
            }
        }
    }
}

medea_obs::metric_handles! {
    struct ServerMetrics {
        requests: Counter = "server.requests_total",
        responses: Counter = "server.responses_total",
        accepted: Counter = "server.accepted_total",
        shed: Counter = "server.shed_total",
        released: Counter = "server.released_total",
        spec_updates: Counter = "server.spec_updates_total",
        queries: Counter = "server.queries_total",
        protocol_errors: Counter = "server.protocol_errors_total",
        batches: Counter = "server.batches_total",
        batch_size: Histogram = "server.batch_size",
        batch_wait_us: Histogram = "server.batch_wait_us",
        close_size: Counter = "server.batch_close_size_total",
        close_quiet: Counter = "server.batch_close_quiet_total",
        close_deadline: Counter = "server.batch_close_deadline_total",
        close_forced: Counter = "server.batch_close_forced_total",
        admission_us: Histogram = "server.admission_us",
        publish_us: Histogram = "server.publish_us",
        connections: Gauge = "server.connections",
        connections_rejected: Counter = "server.connections_rejected_total",
    }
}

impl ServerMetrics {
    /// The one counter a batch-carrying cycle is booked under: its close
    /// rule, or forced when a wake, a convergence tick or the drain
    /// sweep took the batch.
    fn close_counter(&self, reason: CycleReason) -> &Counter {
        match reason {
            CycleReason::Close(BatchClose::Size) => &self.close_size,
            CycleReason::Close(BatchClose::Deadline) => &self.close_deadline,
            CycleReason::Close(BatchClose::Quiet) => &self.close_quiet,
            CycleReason::Wake | CycleReason::Converge | CycleReason::Drain => &self.close_forced,
        }
    }
}

struct Inner {
    cfg: ServerConfig,
    sched: SharedScheduler,
    work: Mutex<PendingWork>,
    wake: Condvar,
    /// No new connections, no new admissions.
    stop_accepting: AtomicBool,
    /// Connection threads exit at their next poll timeout.
    stop_conns: AtomicBool,
    apps: Mutex<AppTable>,
    registry: Arc<MetricsRegistry>,
    metrics: ServerMetrics,
    conns: AtomicI64,
    start: Instant,
}

impl Inner {
    /// The one clock of enqueue stamps, the deadline and the quiet gap.
    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Moves the open-connection count by `delta` and sets its gauge.
    fn count_connection(&self, delta: i64) {
        let open = self.conns.fetch_add(delta, Ordering::SeqCst) + delta;
        self.metrics.connections.set(open);
    }

    /// Stops admissions and asks the batcher to finish; the first request
    /// decides whether it drains.
    fn request_shutdown(&self, drain: bool) {
        self.stop_accepting.store(true, Ordering::SeqCst);
        {
            let mut work = lock_unwrap(&self.work);
            work.queue.close();
            work.shutdown.get_or_insert(drain);
        }
        self.wake.notify_all();
    }

    /// A typed `overloaded` reply.
    fn overloaded(&self, id: u64, reason: ShedReason) -> Response {
        Response::Overloaded {
            id,
            reason: reason.code().to_string(),
            retry_after_ms: RETRY_AFTER_MS,
        }
    }

    /// Once shutdown began, new work is shed as `shutting_down`.
    fn shed_if_stopping(&self, id: u64) -> Option<Response> {
        if !self.stop_accepting.load(Ordering::SeqCst) {
            return None;
        }
        self.metrics.shed.inc();
        Some(self.overloaded(id, ShedReason::ShuttingDown))
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] aborts ungracefully (the crash path).
pub struct ServerHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
    listener: JoinHandle<()>,
    batcher: JoinHandle<DrainReport>,
}

/// The server entry point.
pub struct MedeaServer;

impl MedeaServer {
    /// Binds, spawns the listener + batcher threads, and returns the
    /// handle. The scheduler (with any journal already attached) moves
    /// behind the [`SharedScheduler`] boundary; `registry` carries the
    /// `server.*` metrics and is served on `metrics` requests.
    pub fn start(
        scheduler: MedeaScheduler,
        cfg: ServerConfig,
        registry: Arc<MetricsRegistry>,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let sched = SharedScheduler::new(scheduler);
        sched.set_dropped_cap(cfg.terminal_apps_cap);
        sched.publish(0);
        let metrics = ServerMetrics::new(&registry);
        let inner = Arc::new(Inner {
            work: Mutex::new(PendingWork::new(cfg.admission.clone())),
            apps: Mutex::new(AppTable::new(cfg.terminal_apps_cap)),
            cfg,
            sched,
            wake: Condvar::new(),
            stop_accepting: AtomicBool::new(false),
            stop_conns: AtomicBool::new(false),
            registry,
            metrics,
            conns: AtomicI64::new(0),
            start: Instant::now(),
        });

        let batcher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("medea-batcher".to_string())
                .spawn(move || batcher_loop(&inner))?
        };
        let listener = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("medea-listener".to_string())
                .spawn(move || listener_loop(listener, &inner))?
        };
        Ok(ServerHandle {
            inner,
            addr,
            listener,
            batcher,
        })
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics registry the server publishes into.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.inner.registry)
    }

    /// The shared scheduler (tests audit through it after shutdown).
    pub fn scheduler(&self) -> SharedScheduler {
        self.inner.sched.clone()
    }

    /// The latest published status board.
    pub fn status(&self) -> Arc<StatusBoard> {
        self.inner.sched.status()
    }

    /// Blocks until a wire-level `shutdown` request completes the drain,
    /// then tears the server down and returns the report — the main-loop
    /// body of the `medea-serve` binary.
    pub fn serve_until_shutdown(self) -> DrainReport {
        while !self.batcher.is_finished() {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.shutdown(true)
    }

    /// Stops the server. `drain = true`: reject new work, flush queued
    /// and in-flight batches, checkpoint, then stop — the graceful path.
    /// `drain = false`: stop immediately, abandoning queued work and the
    /// journal tail — the simulated-crash path.
    pub fn shutdown(self, drain: bool) -> DrainReport {
        self.inner.request_shutdown(drain);
        let report = self.batcher.join().unwrap_or_default();
        self.inner.stop_conns.store(true, Ordering::SeqCst);
        // The listener joins its connection threads before it returns.
        let _ = self.listener.join();
        report
    }
}

fn lock_unwrap<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A typed error reply.
fn error(id: u64, code: &str, message: String) -> Response {
    Response::Error {
        id,
        code: code.to_string(),
        message,
    }
}

/// Whether a wire `shutdown` request from this peer is honoured (the
/// trust-model gate; see [`ServerConfig::allow_remote_shutdown`]).
fn shutdown_allowed(peer_is_loopback: bool, allow_remote: bool) -> bool {
    peer_is_loopback || allow_remote
}

/// Accepts until shutdown, then waits for its connection threads, which
/// keep answering queries until the drain is over (`stop_conns`).
fn listener_loop(listener: TcpListener, inner: &Arc<Inner>) {
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    while !inner.stop_accepting.load(Ordering::SeqCst) {
        // A finished thread has nothing left to join: the list tracks live
        // connections, not every connection ever accepted.
        threads.retain(|h| !h.is_finished());
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                if inner.stop_accepting.load(Ordering::SeqCst) {
                    break;
                }
                if inner.conns.load(Ordering::SeqCst) >= MAX_CONNECTIONS as i64 {
                    // At the cap: a best-effort `overloaded`, then close.
                    inner.metrics.connections_rejected.inc();
                    let busy = Response::Overloaded {
                        id: 0,
                        reason: "server_busy".to_string(),
                        retry_after_ms: 100,
                    };
                    let _ = write_frame(&mut stream, busy.encode().as_bytes());
                    continue;
                }
                inner.count_connection(1);
                let inner2 = Arc::clone(inner);
                match std::thread::Builder::new()
                    .name("medea-conn".to_string())
                    .spawn(move || {
                        let _slot = ConnectionSlot(&inner2);
                        connection_loop(stream, &inner2);
                    }) {
                    Ok(h) => threads.push(h),
                    // Thread spawn failure: shed the connection, the
                    // accept loop must survive.
                    Err(_) => inner.count_connection(-1),
                }
            }
            // Nothing to accept (or a transient error): poll again.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    for h in threads {
        let _ = h.join();
    }
}

/// Gives a connection's slot back when its thread ends, however it ends:
/// a panic that unwinds past the loop must not keep the slot for good.
struct ConnectionSlot<'a>(&'a Inner);

impl Drop for ConnectionSlot<'_> {
    fn drop(&mut self) {
        self.0.count_connection(-1);
    }
}

fn connection_loop(mut stream: TcpStream, inner: &Arc<Inner>) {
    let _ = stream.set_nodelay(true);
    let peer_is_loopback = stream.peer_addr().is_ok_and(|a| a.ip().is_loopback());
    let timeout = Duration::from_millis(READ_TIMEOUT_MS);
    let _ = stream.set_read_timeout(Some(timeout));
    let mut reader = FrameReader::new(MAX_FRAME_BYTES);
    loop {
        match reader.poll(&mut stream) {
            Ok(None) => {
                // Timeout: keep serving until the handle tears us down
                // (queries stay answerable during drain).
                if inner.stop_conns.load(Ordering::SeqCst) {
                    return;
                }
            }
            Ok(Some(payload)) => {
                let t0 = Instant::now();
                inner.metrics.requests.inc();
                let decoded = std::str::from_utf8(&payload)
                    .map_err(|_| error(0, "bad_utf8", "frame payload is not UTF-8".to_string()))
                    .and_then(|text| {
                        Request::decode(text).map_err(|e| error(0, e.code, e.message))
                    });
                let reply = match decoded {
                    Ok(req) => dispatch(inner, req, t0, peer_is_loopback),
                    Err(refused) => {
                        inner.metrics.protocol_errors.inc();
                        refused
                    }
                };
                if write_frame(&mut stream, reply.encode().as_bytes()).is_err() {
                    return;
                }
                inner.metrics.responses.inc();
            }
            Err(FrameError::Closed) => return,
            Err(FrameError::Truncated) => {
                // Frame sync lost: nothing sane to reply to.
                inner.metrics.protocol_errors.inc();
                return;
            }
            Err(e @ FrameError::TooLarge { .. }) => {
                inner.metrics.protocol_errors.inc();
                let resp = error(0, "frame_too_large", e.to_string());
                let _ = write_frame(&mut stream, resp.encode().as_bytes());
                let _ = stream.flush();
                return;
            }
            Err(FrameError::Io(_)) => return,
        }
    }
}

fn dispatch(inner: &Arc<Inner>, req: Request, t0: Instant, peer_is_loopback: bool) -> Response {
    match req {
        Request::Place {
            id,
            tenant,
            app,
            containers,
            constraints,
        } => {
            let resp = handle_place(inner, id, tenant, app, containers, constraints);
            inner.metrics.admission_us.record_duration(t0.elapsed());
            resp
        }
        Request::Release { id, tenant, app } => handle_release(inner, id, &tenant, app),
        Request::Scale {
            id,
            tenant,
            app,
            replicas,
        } => handle_spec_op(
            inner,
            id,
            &tenant,
            app,
            SpecOp::Scale {
                app,
                replicas: replicas as usize,
            },
        ),
        Request::Upgrade {
            id,
            tenant,
            app,
            version,
        } => handle_spec_op(inner, id, &tenant, app, SpecOp::Upgrade { app, version }),
        Request::Query { id, app } => {
            inner.metrics.queries.inc();
            handle_query(inner, id, app)
        }
        Request::Metrics { id } => Response::Metrics {
            id,
            body: inner.registry.snapshot_json(),
        },
        Request::Status { id } => handle_status(inner, id),
        Request::Shutdown { id } => {
            if !shutdown_allowed(peer_is_loopback, inner.cfg.allow_remote_shutdown) {
                let message = "shutdown is restricted to loopback peers \
                               (start with allow_remote_shutdown to permit remote stops)";
                return error(id, "shutdown_denied", message.to_string());
            }
            inner.request_shutdown(true);
            Response::ShutdownAck { id }
        }
    }
}

fn handle_place(
    inner: &Arc<Inner>,
    id: u64,
    tenant: String,
    app: u64,
    containers: Vec<crate::proto::ContainerSpec>,
    constraints: Vec<String>,
) -> Response {
    if let Some(shed) = inner.shed_if_stopping(id) {
        return shed;
    }
    // Semantic validation that needs no scheduler state happens here, on
    // the connection thread, so the writer never sees garbage.
    let parsed = constraints
        .iter()
        .map(|c| parse_constraint(c).map_err(|e| format!("`{c}`: {e}")))
        .collect::<Result<Vec<_>, _>>();
    let parsed = match parsed {
        Ok(parsed) => parsed,
        Err(message) => return error(id, "bad_constraint", message),
    };
    let reqs = containers.iter().flat_map(|spec| {
        let tags: Vec<Tag> = spec.tags.iter().map(Tag::new).collect();
        let one = ContainerRequest::new(Resources::new(spec.memory_mb, spec.vcores), tags);
        std::iter::repeat_n(one, spec.count as usize)
    });
    let request = LraRequest::new(ApplicationId(app), reqs.collect(), parsed);

    let previous = {
        let mut apps = lock_unwrap(&inner.apps);
        // Released and Rejected are both terminal: the id is free again
        // (a rejected client resubmits its corrected request under it).
        if apps.phase(app) == Some(MetaPhase::Active) {
            return error(id, "duplicate_app", format!("app {app} is already active"));
        }
        apps.insert_active(app, tenant.clone())
    };

    let offered = lock_unwrap(&inner.work)
        .queue
        .offer(&tenant, request, inner.now_us());
    match offered {
        Ok(depth) => {
            inner.metrics.accepted.inc();
            inner.wake.notify_all();
            Response::Accepted {
                id,
                app,
                queue_depth: depth as u64,
            }
        }
        Err(reason) => {
            inner.metrics.shed.inc();
            // Roll the meta entry back: the request never entered the
            // system, and a released id stays released.
            lock_unwrap(&inner.apps).restore(app, previous);
            inner.overloaded(id, reason)
        }
    }
}

fn handle_release(inner: &Arc<Inner>, id: u64, tenant: &str, app: u64) -> Response {
    {
        let mut apps = lock_unwrap(&inner.apps);
        if let Err(refused) = apps.check_owner(id, tenant, app) {
            return refused;
        }
        apps.set_phase(app, MetaPhase::Released);
    }
    {
        let mut work = lock_unwrap(&inner.work);
        // Still queued for a batch: pulled out here, freeing the quota
        // slot. Otherwise the next cycle's `cancel_lra` purges it (see
        // the module docs' release semantics).
        if work.queue.remove_app(ApplicationId(app)) == 0 {
            work.releases.push(app);
        }
    }
    inner.metrics.released.inc();
    inner.wake.notify_all();
    Response::Released { id, app }
}

/// Validates a scale/upgrade here and hands it to the batcher, which
/// applies it on its next cycle; the reconciler converges over the rounds
/// after that.
fn handle_spec_op(inner: &Arc<Inner>, id: u64, tenant: &str, app: u64, op: SpecOp) -> Response {
    if let Some(shed) = inner.shed_if_stopping(id) {
        return shed;
    }
    if let Err(refused) = lock_unwrap(&inner.apps).check_owner(id, tenant, app) {
        return refused;
    }
    lock_unwrap(&inner.work).spec_ops.push(op);
    inner.metrics.spec_updates.inc();
    inner.wake.notify_all();
    match op {
        SpecOp::Scale { replicas, .. } => Response::ScaleAck {
            id,
            app,
            replicas: replicas as u64,
        },
        SpecOp::Upgrade { version, .. } => Response::UpgradeAck { id, app, version },
    }
}

fn handle_query(inner: &Arc<Inner>, id: u64, app: u64) -> Response {
    let meta = lock_unwrap(&inner.apps).phase(app);
    let board = inner.sched.status();
    let on_board = board.app(ApplicationId(app));
    // Lifecycle-managed apps (anything scaled or upgraded) report their
    // reconciler phase — `scaling`, `upgrading`, `steady`, … — which
    // subsumes the plain placed/pending split.
    let lifecycle = board.app_lifecycle(ApplicationId(app));
    let (phase, attempts) = match (meta, lifecycle, on_board) {
        (None, ..) => ("unknown", 0),
        (Some(MetaPhase::Released), ..) => ("released", 0),
        (Some(MetaPhase::Rejected), ..) => ("rejected", 0),
        (_, Some(lc), _) => (lc.phase.name(), 0),
        (_, _, Some(AppPhase::Placed { .. })) => ("placed", 0),
        (_, _, Some(AppPhase::Pending { attempts, .. })) => ("pending", *attempts),
        (_, _, Some(AppPhase::Dropped)) => ("dropped", 0),
        // Admitted but not yet on a published board.
        (_, _, None) => ("pending", 0),
    };
    let nodes = match on_board {
        Some(AppPhase::Placed { nodes }) if meta == Some(MetaPhase::Active) => {
            nodes.iter().map(|n| n.0).collect()
        }
        _ => vec![],
    };
    Response::AppStatus {
        id,
        app,
        phase: phase.to_string(),
        nodes,
        attempts,
    }
}

fn handle_status(inner: &Arc<Inner>, id: u64) -> Response {
    let board = inner.sched.status();
    let (admitted, shed) = {
        let work = lock_unwrap(&inner.work);
        (work.queue.admitted(), work.queue.shed_stats().total())
    };
    Response::Status {
        id,
        reply: StatusReply {
            deployed: board.stats.lras_deployed as u64,
            dropped: board.stats.lras_dropped as u64,
            conflicts: board.stats.commit_conflicts as u64,
            cycles: board.stats.cycles as u64,
            queue_depth: board.queue_depth as u64,
            containers: board.containers as u64,
            nodes_available: board.nodes_available as u64,
            nodes_total: board.nodes_total as u64,
            lost: board.recovery.containers_lost as u64,
            replaced: board.recovery.containers_replaced as u64,
            unplaceable: board.recovery.containers_unplaceable as u64,
            pending_recovery: board.recovery.containers_pending as u64,
            shed,
            admitted,
        },
    }
}

/// The batcher thread: lock, ask, wait, call. What it decides is
/// [`PendingWork::next_step`]; what it does to the scheduler is
/// [`run_cycle`] or [`run_drain`].
fn batcher_loop(inner: &Inner) -> DrainReport {
    let interval = inner.sched.with_writer(|m| m.interval().max(1));
    let (mut tick, mut converging) = (0u64, false);
    let mut report = loop {
        let Some((reason, mut input)) = inner.next_cycle(converging) else {
            break DrainReport::default();
        };
        let cycle_start_us = inner.now_us();
        // Book the batch as taken (its head's wait, the one counter its
        // reason names), then the release gate: an app released after
        // `take` is no longer Active, so it never reaches the scheduler.
        if let Some(head) = input.batch.first() {
            let waited = cycle_start_us.saturating_sub(head.enqueued_us);
            inner.metrics.batch_wait_us.record(waited);
            inner.metrics.close_counter(reason).inc();
        }
        {
            let apps = lock_unwrap(&inner.apps);
            input
                .batch
                .retain(|w| apps.phase(w.request.app.0) == Some(MetaPhase::Active));
        }
        let carried = input.batch.len();
        if reason == CycleReason::Drain {
            let drained = inner
                .sched
                .with_writer(|m| run_drain(m, input, converging, tick, DRAIN_MAX_CYCLES));
            if let Some(sweep) = drained.sweep {
                inner.cycle_ran(sweep, carried);
            }
            inner.publish(drained.tick);
            break drained.report;
        }
        let outcome = inner.sched.with_writer(|m| run_cycle(m, input, tick));
        converging = outcome.converging;
        tick = tick.saturating_add(interval);
        // The round, without the publish that `server.publish_us` times,
        // is the next quiet gap (up to its bound).
        let wall_us = inner.now_us().saturating_sub(cycle_start_us);
        inner.cycle_ran(outcome, carried);
        inner.publish(tick);
        lock_unwrap(&inner.work).queue.cycle_done(carried, wall_us);
    };
    let work = lock_unwrap(&inner.work);
    report.shed_total = work.queue.shed_stats().total();
    report.admitted_total = work.queue.admitted();
    report
}

impl Inner {
    /// Publishes the board for `tick`, timed as `server.publish_us`.
    fn publish(&self, tick: u64) {
        let t0 = Instant::now();
        self.sched.publish(tick);
        self.metrics.publish_us.record_duration(t0.elapsed());
    }

    /// Holds the pending work until its step is a cycle or the end, and
    /// takes that step's input. `None` is the crash: stop dead,
    /// abandoning queued admissions, releases and spec changes on purpose.
    fn next_cycle(&self, converging: bool) -> Option<(CycleReason, CycleInput)> {
        let mut work = lock_unwrap(&self.work);
        let mut woken = false;
        loop {
            let now = self.now_us();
            let reason = match work.next_step(now, converging, woken) {
                Step::Wait { until_us } => {
                    let wait = Duration::from_micros(until_us.saturating_sub(now));
                    work = self
                        .wake
                        .wait_timeout(work, wait)
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .0;
                    woken = true;
                    continue;
                }
                Step::Cycle { reason } => reason,
                Step::Finish { drain: true } => CycleReason::Drain,
                Step::Finish { drain: false } => return None,
            };
            return Some((reason, work.take(reason)));
        }
    }

    /// The thread's side of a finished cycle that submitted `carried`
    /// requests: refused apps turn `rejected`, the batch is counted.
    fn cycle_ran(&self, outcome: CycleOutcome, carried: usize) {
        let mut apps = lock_unwrap(&self.apps);
        for app in outcome.rejected {
            apps.set_phase(app, MetaPhase::Rejected);
        }
        self.metrics.batches.inc();
        self.metrics.batch_size.record(carried as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every step that takes a non-empty batch books it under exactly
    /// one of the four close counters: its rule, or forced.
    #[test]
    fn every_batch_carrying_cycle_is_booked_under_one_reason() {
        let registry = MetricsRegistry::new();
        let metrics = ServerMetrics::new(&registry);
        let mut work = PendingWork::new(AdmissionConfig {
            batch_max_size: 2,
            ..AdmissionConfig::default()
        });
        let mut next_app = 0;
        let mut offer = |work: &mut PendingWork, now_us| {
            next_app += 1;
            let req = LraRequest::uniform(
                ApplicationId(next_app),
                1,
                Resources::new(1024, 1),
                vec![Tag::new("t")],
                vec![],
            );
            work.queue.offer("t", req, now_us).expect("admitted");
        };
        let mut carrying = 0;
        let mut run = |work: &mut PendingWork, now_us, converging, woken| {
            let reason = match work.next_step(now_us, converging, woken) {
                Step::Cycle { reason } => reason,
                Step::Finish { drain: true } => CycleReason::Drain,
                other => panic!("expected a cycle, got {other:?}"),
            };
            if !work.take(reason).batch.is_empty() {
                metrics.close_counter(reason).inc();
                carrying += 1;
            }
            reason
        };

        offer(&mut work, 0);
        offer(&mut work, 0);
        assert_eq!(
            run(&mut work, 0, false, false),
            CycleReason::Close(BatchClose::Size)
        );
        offer(&mut work, 100);
        assert_eq!(
            run(&mut work, 10_100, false, true),
            CycleReason::Close(BatchClose::Deadline)
        );
        work.queue.cycle_done(1, 500);
        offer(&mut work, 20_000);
        assert_eq!(
            run(&mut work, 20_500, false, true),
            CycleReason::Close(BatchClose::Quiet)
        );
        offer(&mut work, 30_000);
        work.releases.push(1);
        assert_eq!(run(&mut work, 30_000, false, true), CycleReason::Wake);
        offer(&mut work, 40_000);
        assert_eq!(run(&mut work, 40_000, true, true), CycleReason::Converge);
        work.releases.push(2);
        assert_eq!(run(&mut work, 40_000, false, false), CycleReason::Wake);
        for _ in 0..3 {
            offer(&mut work, 50_000);
        }
        work.shutdown = Some(true);
        assert_eq!(run(&mut work, 50_000, false, false), CycleReason::Drain);

        let counts = [
            &metrics.close_size,
            &metrics.close_deadline,
            &metrics.close_quiet,
            &metrics.close_forced,
        ]
        .map(|c| c.get());
        assert_eq!(counts, [1, 1, 1, 3]);
        assert_eq!(counts.iter().sum::<u64>(), carrying);
    }

    #[test]
    fn shutdown_gated_to_loopback_by_default() {
        assert!(shutdown_allowed(true, false));
        assert!(!shutdown_allowed(false, false));
    }

    #[test]
    fn remote_shutdown_opt_in() {
        assert!(shutdown_allowed(false, true));
        assert!(shutdown_allowed(true, true));
    }
}
