//! The `medea-server` daemon: TCP front-end over a [`SharedScheduler`].
//!
//! # Threading model (DESIGN.md §8)
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
//! - **Batcher thread**: the *single writer*. Waits for pressure
//!   (size, deadline or quiet batch close, releases, shutdown), then
//!   takes the writer lock once per cycle: apply releases, submit the
//!   batch, run `tick` (propose/commit), publish a fresh board. What the
//!   cycle took is the next quiet gap. Journal checkpoints ride the
//!   scheduler's own cadence plus one final checkpoint at drain.
//!
//! Shutdown (`ServerHandle::shutdown(drain)`) rejects new connections
//! and admissions, and with `drain = true` finishes queued and in-flight
//! batches via [`MedeaScheduler::run_to_drain`] and checkpoints through
//! `medea-journal`, so a restarted server passes the work-preserving
//! restart audit. `drain = false` abandons volatile state on purpose —
//! the crash path used by the failover regression tests.
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
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use medea_cluster::{ApplicationId, ContainerRequest, Resources, Tag};
use medea_constraints::parse_constraint;
use medea_core::{
    AppPhase, LifecyclePhase, LraRequest, MedeaScheduler, SharedScheduler, StatusBoard,
};
use medea_obs::MetricsRegistry;

use crate::admission::{AdmissionConfig, AdmissionQueue, BatchClose, PlaceWork};
use crate::proto::{
    write_frame, FrameError, FrameReader, Request, Response, StatusReply, MAX_FRAME_BYTES,
};

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Concurrent-connection cap; excess connections are refused with a
    /// typed `overloaded` frame.
    pub max_connections: usize,
    /// Frame payload cap (see [`crate::proto::MAX_FRAME_BYTES`]).
    pub max_frame_bytes: usize,
    /// Admission-control and batching config.
    pub admission: AdmissionConfig,
    /// Cycle budget for the graceful drain.
    pub drain_max_cycles: u64,
    /// Socket read timeout; bounds how long any thread can go without
    /// re-checking the shutdown flag.
    pub read_timeout_ms: u64,
    /// Terminal (released / rejected) app-meta entries kept before the
    /// oldest age out; bounds the meta table on a long-running daemon.
    pub terminal_apps_cap: usize,
    /// Whether a wire `shutdown` request from a non-loopback peer is
    /// honoured. Off by default: the protocol is unauthenticated, so on
    /// a non-loopback `--addr` any client that can connect could
    /// otherwise drain and stop the daemon. Loopback peers may always
    /// shut the server down.
    pub allow_remote_shutdown: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            max_frame_bytes: MAX_FRAME_BYTES,
            admission: AdmissionConfig::default(),
            drain_max_cycles: 256,
            read_timeout_ms: 25,
            terminal_apps_cap: 4096,
            allow_remote_shutdown: false,
        }
    }
}

/// What the shutdown path did.
#[derive(Debug, Clone, Default)]
pub struct DrainReport {
    /// Whether a graceful drain ran (false on the crash path).
    pub drained: bool,
    /// Whether the drain fully emptied queue + in-flight solves within
    /// the cycle budget.
    pub drain_complete: bool,
    /// LRAs deployed by drain cycles.
    pub deployed_during_drain: usize,
    /// Scheduler queue depth left after the drain budget.
    pub final_queue_depth: usize,
    /// Whether a final checkpoint was installed.
    pub checkpointed: bool,
    /// Place requests shed over the server's lifetime.
    pub shed_total: u64,
    /// Place requests admitted over the server's lifetime.
    pub admitted_total: u64,
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

    fn get(&self, app: u64) -> Option<&AppMeta> {
        self.map.get(&app)
    }

    fn insert_active(&mut self, app: u64, tenant: String) {
        self.map.insert(
            app,
            AppMeta {
                tenant,
                phase: MetaPhase::Active,
            },
        );
    }

    fn remove(&mut self, app: u64) {
        self.map.remove(&app);
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

/// A desired-state change accepted on a connection thread and applied
/// by the batcher (the single writer) on its next cycle.
#[derive(Debug, Clone, Copy)]
enum SpecOp {
    /// Set the desired replica count.
    Scale { app: u64, replicas: usize },
    /// Set the desired version (rolling upgrade).
    Upgrade { app: u64, version: u64 },
}

struct WorkState {
    queue: AdmissionQueue,
    /// Releases accepted but not yet applied by the batcher.
    releases: Vec<u64>,
    /// Scale/upgrade spec changes accepted but not yet applied.
    spec_ops: Vec<SpecOp>,
    /// `Some(drain)` once shutdown was requested.
    shutdown: Option<bool>,
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
        admission_us: Histogram = "server.admission_us",
        connections: Gauge = "server.connections",
        connections_rejected: Counter = "server.connections_rejected_total",
    }
}

struct Inner {
    cfg: ServerConfig,
    sched: SharedScheduler,
    work: Mutex<WorkState>,
    wake: Condvar,
    /// No new connections, no new admissions.
    stop_accepting: AtomicBool,
    /// Connection threads exit at their next poll timeout.
    stop_conns: AtomicBool,
    batcher_done: AtomicBool,
    drain_report: Mutex<Option<DrainReport>>,
    apps: Mutex<AppTable>,
    registry: Arc<MetricsRegistry>,
    metrics: ServerMetrics,
    conns: AtomicUsize,
    start: Instant,
}

impl Inner {
    /// The one clock of enqueue stamps, the deadline and the quiet gap.
    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] aborts ungracefully (the crash path).
pub struct ServerHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
    listener: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
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
        let cfg_terminal_cap = cfg.terminal_apps_cap;
        let inner = Arc::new(Inner {
            work: Mutex::new(WorkState {
                queue: AdmissionQueue::new(cfg.admission.clone()),
                releases: Vec::new(),
                spec_ops: Vec::new(),
                shutdown: None,
            }),
            cfg,
            sched,
            wake: Condvar::new(),
            stop_accepting: AtomicBool::new(false),
            stop_conns: AtomicBool::new(false),
            batcher_done: AtomicBool::new(false),
            drain_report: Mutex::new(None),
            apps: Mutex::new(AppTable::new(cfg_terminal_cap)),
            registry,
            metrics,
            conns: AtomicUsize::new(0),
            start: Instant::now(),
        });

        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let batcher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("medea-batcher".to_string())
                .spawn(move || batcher_loop(&inner))?
        };
        let listener_thread = {
            let inner = Arc::clone(&inner);
            let conn_threads = Arc::clone(&conn_threads);
            std::thread::Builder::new()
                .name("medea-listener".to_string())
                .spawn(move || listener_loop(listener, &inner, &conn_threads))?
        };

        Ok(ServerHandle {
            inner,
            addr,
            listener: Some(listener_thread),
            batcher: Some(batcher),
            conn_threads,
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
        while !self.inner.batcher_done.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.shutdown(true)
    }

    /// Stops the server. `drain = true`: reject new work, flush queued
    /// and in-flight batches, checkpoint, then stop — the graceful path.
    /// `drain = false`: stop immediately, abandoning queued work and the
    /// journal tail — the simulated-crash path.
    pub fn shutdown(mut self, drain: bool) -> DrainReport {
        self.inner.stop_accepting.store(true, Ordering::SeqCst);
        {
            let mut ws = lock_unwrap(&self.inner.work);
            ws.queue.close();
            if ws.shutdown.is_none() {
                ws.shutdown = Some(drain);
            }
        }
        self.inner.wake.notify_all();
        if let Some(b) = self.batcher.take() {
            let _ = b.join();
        }
        self.inner.stop_conns.store(true, Ordering::SeqCst);
        if let Some(l) = self.listener.take() {
            let _ = l.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *lock_unwrap(&self.conn_threads));
        for h in handles {
            let _ = h.join();
        }
        lock_unwrap(&self.inner.drain_report)
            .take()
            .unwrap_or_default()
    }
}

fn lock_unwrap<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Whether a wire `shutdown` request from this peer is honoured (the
/// trust-model gate; see [`ServerConfig::allow_remote_shutdown`]).
fn shutdown_allowed(peer_is_loopback: bool, allow_remote: bool) -> bool {
    peer_is_loopback || allow_remote
}

/// Drops handles of connection threads that have already exited, so a
/// long-running daemon's handle list tracks live connections instead of
/// growing with every connection ever accepted. (A finished thread's
/// handle can be dropped safely — there is nothing left to join.)
fn reap_finished(conn_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>) {
    lock_unwrap(conn_threads).retain(|h| !h.is_finished());
}

fn listener_loop(
    listener: TcpListener,
    inner: &Arc<Inner>,
    conn_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        if inner.stop_accepting.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                reap_finished(conn_threads);
                if inner.stop_accepting.load(Ordering::SeqCst) {
                    return;
                }
                if inner.conns.load(Ordering::SeqCst) >= inner.cfg.max_connections {
                    inner.metrics.connections_rejected.inc();
                    refuse(stream);
                    continue;
                }
                inner.conns.fetch_add(1, Ordering::SeqCst);
                inner
                    .metrics
                    .connections
                    .set(inner.conns.load(Ordering::SeqCst) as i64);
                let inner2 = Arc::clone(inner);
                match std::thread::Builder::new()
                    .name("medea-conn".to_string())
                    .spawn(move || {
                        connection_loop(stream, &inner2);
                        inner2.conns.fetch_sub(1, Ordering::SeqCst);
                        inner2
                            .metrics
                            .connections
                            .set(inner2.conns.load(Ordering::SeqCst) as i64);
                    }) {
                    Ok(h) => lock_unwrap(conn_threads).push(h),
                    Err(_) => {
                        // Thread spawn failure: shed the connection, the
                        // accept loop must survive.
                        inner.conns.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                reap_finished(conn_threads);
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Best-effort `overloaded` reply for a refused connection.
fn refuse(mut stream: TcpStream) {
    let resp = Response::Overloaded {
        id: 0,
        reason: "server_busy".to_string(),
        retry_after_ms: 100,
    };
    let _ = write_frame(&mut stream, resp.encode().as_bytes());
}

fn connection_loop(mut stream: TcpStream, inner: &Arc<Inner>) {
    let _ = stream.set_nodelay(true);
    let peer_is_loopback = stream
        .peer_addr()
        .map(|a| a.ip().is_loopback())
        .unwrap_or(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(
        inner.cfg.read_timeout_ms.max(1),
    )));
    let mut reader = FrameReader::new(inner.cfg.max_frame_bytes);
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
                let (reply, fatal) = match std::str::from_utf8(&payload) {
                    Err(_) => {
                        inner.metrics.protocol_errors.inc();
                        (
                            Response::Error {
                                id: 0,
                                code: "bad_utf8".to_string(),
                                message: "frame payload is not UTF-8".to_string(),
                            },
                            false,
                        )
                    }
                    Ok(text) => match Request::decode(text) {
                        Err(e) => {
                            inner.metrics.protocol_errors.inc();
                            (
                                Response::Error {
                                    id: 0,
                                    code: e.code.to_string(),
                                    message: e.message,
                                },
                                false,
                            )
                        }
                        Ok(req) => (dispatch(inner, req, t0, peer_is_loopback), false),
                    },
                };
                if write_frame(&mut stream, reply.encode().as_bytes()).is_err() {
                    return;
                }
                inner.metrics.responses.inc();
                if fatal {
                    return;
                }
            }
            Err(FrameError::Closed) => return,
            Err(FrameError::Truncated) => {
                // Frame sync lost: nothing sane to reply to.
                inner.metrics.protocol_errors.inc();
                return;
            }
            Err(FrameError::TooLarge { advertised, max }) => {
                inner.metrics.protocol_errors.inc();
                let resp = Response::Error {
                    id: 0,
                    code: "frame_too_large".to_string(),
                    message: format!("frame of {advertised} bytes exceeds cap {max}"),
                };
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
            inner
                .metrics
                .admission_us
                .record(t0.elapsed().as_micros() as u64);
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
            // The wire protocol is unauthenticated; see the trust-model
            // note in the module docs. Loopback peers may always stop
            // the daemon; remote peers only when explicitly allowed.
            if !shutdown_allowed(peer_is_loopback, inner.cfg.allow_remote_shutdown) {
                return Response::Error {
                    id,
                    code: "shutdown_denied".to_string(),
                    message: "shutdown is restricted to loopback peers \
                              (start with allow_remote_shutdown to permit remote stops)"
                        .to_string(),
                };
            }
            inner.stop_accepting.store(true, Ordering::SeqCst);
            {
                let mut ws = lock_unwrap(&inner.work);
                ws.queue.close();
                if ws.shutdown.is_none() {
                    ws.shutdown = Some(true);
                }
            }
            inner.wake.notify_all();
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
    if inner.stop_accepting.load(Ordering::SeqCst) {
        inner.metrics.shed.inc();
        return Response::Overloaded {
            id,
            reason: "shutting_down".to_string(),
            retry_after_ms: inner.cfg.admission.retry_after_ms,
        };
    }
    // Semantic validation that needs no scheduler state happens here, on
    // the connection thread, so the writer never sees garbage.
    let mut parsed = Vec::with_capacity(constraints.len());
    for c in &constraints {
        match parse_constraint(c) {
            Ok(pc) => parsed.push(pc),
            Err(e) => {
                return Response::Error {
                    id,
                    code: "bad_constraint".to_string(),
                    message: format!("`{c}`: {e}"),
                }
            }
        }
    }
    let mut reqs = Vec::new();
    for spec in &containers {
        let tags: Vec<Tag> = spec.tags.iter().map(Tag::new).collect();
        for _ in 0..spec.count {
            reqs.push(ContainerRequest::new(
                Resources::new(spec.memory_mb, spec.vcores),
                tags.clone(),
            ));
        }
    }
    let request = LraRequest::new(ApplicationId(app), reqs, parsed);

    {
        let mut apps = lock_unwrap(&inner.apps);
        // Released and Rejected are both terminal: the id is free again
        // (a rejected client resubmits its corrected request under it).
        if apps.phase(app) == Some(MetaPhase::Active) {
            return Response::Error {
                id,
                code: "duplicate_app".to_string(),
                message: format!("app {app} is already active"),
            };
        }
        apps.insert_active(app, tenant.clone());
    }

    let offered = {
        let mut ws = lock_unwrap(&inner.work);
        ws.queue.offer(&tenant, request, inner.now_us())
    };
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
            // Roll the meta entry back: the app never entered the system.
            lock_unwrap(&inner.apps).remove(app);
            Response::Overloaded {
                id,
                reason: reason.code().to_string(),
                retry_after_ms: inner.cfg.admission.retry_after_ms,
            }
        }
    }
}

fn handle_release(inner: &Arc<Inner>, id: u64, tenant: &str, app: u64) -> Response {
    {
        let mut apps = lock_unwrap(&inner.apps);
        match apps.get(app) {
            Some(meta) if meta.phase == MetaPhase::Active => {
                if meta.tenant != tenant {
                    return Response::Error {
                        id,
                        code: "wrong_tenant".to_string(),
                        message: format!("app {app} belongs to another tenant"),
                    };
                }
                apps.set_phase(app, MetaPhase::Released);
            }
            _ => {
                return Response::Error {
                    id,
                    code: "unknown_app".to_string(),
                    message: format!("app {app} is not active"),
                };
            }
        }
    }
    {
        let mut ws = lock_unwrap(&inner.work);
        // Still waiting in the admission queue: pull it out directly
        // (freeing the tenant's quota slot) so it never reaches the
        // scheduler. Otherwise hand it to the batcher, whose
        // `cancel_lra` purges it wherever the scheduler holds it —
        // deployed, queued, or inside an in-flight solve. The batcher
        // additionally refuses to submit batch entries whose meta is no
        // longer Active, covering a release that lands between
        // `take_batch` and submission.
        if ws.queue.remove_app(ApplicationId(app)) == 0 {
            ws.releases.push(app);
        }
    }
    inner.metrics.released.inc();
    inner.wake.notify_all();
    Response::Released { id, app }
}

/// Validates and enqueues a scale/upgrade request. Desired-state
/// changes follow the place path's asynchronous shape: tenant/app
/// validation happens here on the connection thread, the spec itself is
/// applied by the batcher (the single writer) on its next cycle, and
/// the reconciler converges over subsequent scheduling rounds.
fn handle_spec_op(inner: &Arc<Inner>, id: u64, tenant: &str, app: u64, op: SpecOp) -> Response {
    if inner.stop_accepting.load(Ordering::SeqCst) {
        inner.metrics.shed.inc();
        return Response::Overloaded {
            id,
            reason: "shutting_down".to_string(),
            retry_after_ms: inner.cfg.admission.retry_after_ms,
        };
    }
    {
        let apps = lock_unwrap(&inner.apps);
        match apps.get(app) {
            Some(meta) if meta.phase == MetaPhase::Active => {
                if meta.tenant != tenant {
                    return Response::Error {
                        id,
                        code: "wrong_tenant".to_string(),
                        message: format!("app {app} belongs to another tenant"),
                    };
                }
            }
            _ => {
                return Response::Error {
                    id,
                    code: "unknown_app".to_string(),
                    message: format!("app {app} is not active"),
                };
            }
        }
    }
    {
        let mut ws = lock_unwrap(&inner.work);
        ws.spec_ops.push(op);
    }
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
    let meta = lock_unwrap(&inner.apps).get(app).cloned();
    let mk = |phase: &str, nodes: Vec<u32>, attempts: u32| Response::AppStatus {
        id,
        app,
        phase: phase.to_string(),
        nodes,
        attempts,
    };
    match meta {
        None => mk("unknown", vec![], 0),
        Some(m) if m.phase == MetaPhase::Released => mk("released", vec![], 0),
        Some(m) if m.phase == MetaPhase::Rejected => mk("rejected", vec![], 0),
        Some(_) => {
            let board = inner.sched.status();
            // Lifecycle-managed apps (anything scaled or upgraded)
            // report their reconciler phase — `scaling`, `upgrading`,
            // `steady`, … — which subsumes the plain placed/pending
            // split; the hosting nodes still come from the deployment
            // map.
            if let Some(lc) = board.app_lifecycle(ApplicationId(app)) {
                let nodes = match board.app(ApplicationId(app)) {
                    Some(AppPhase::Placed { nodes }) => nodes.iter().map(|n| n.0).collect(),
                    _ => vec![],
                };
                return mk(lc.phase.name(), nodes, 0);
            }
            match board.app(ApplicationId(app)) {
                Some(AppPhase::Placed { nodes }) => {
                    mk("placed", nodes.iter().map(|n| n.0).collect(), 0)
                }
                Some(AppPhase::Pending { attempts, .. }) => mk("pending", vec![], *attempts),
                Some(AppPhase::Dropped) => mk("dropped", vec![], 0),
                // Admitted but not yet on a published board.
                None => mk("pending", vec![], 0),
            }
        }
    }
}

fn handle_status(inner: &Arc<Inner>, id: u64) -> Response {
    let board = inner.sched.status();
    let (admitted, shed) = {
        let ws = lock_unwrap(&inner.work);
        (ws.queue.admitted(), ws.queue.shed_stats().total())
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

fn batcher_loop(inner: &Arc<Inner>) {
    let interval = inner.sched.with_writer(|m| m.interval().max(1));
    let mut tick: u64 = 0;
    // Whether lifecycle reconciliation is still converging (some managed
    // app off its desired state). While true the batcher ticks on its
    // own wait-timeout cadence instead of waiting for client pressure —
    // a rolling upgrade walks one upgrade domain per round and must not
    // stall between domains just because no new work arrived.
    let mut converging = false;
    loop {
        // Wait for pressure: a ready batch, releases, spec changes, or
        // shutdown.
        let (batch, releases, spec_ops, shutdown) = {
            let mut ws = lock_unwrap(&inner.work);
            loop {
                if let Some(drain) = ws.shutdown {
                    if !drain {
                        // Simulated crash: stop dead, abandoning queued
                        // admissions and pending releases on purpose.
                        break (Vec::new(), Vec::new(), Vec::new(), ws.shutdown);
                    }
                    // Final sweep: force-close everything still queued.
                    let mut all = Vec::new();
                    loop {
                        let b = ws.queue.take_batch();
                        if b.is_empty() {
                            break;
                        }
                        all.extend(b);
                    }
                    let releases = std::mem::take(&mut ws.releases);
                    let spec_ops = std::mem::take(&mut ws.spec_ops);
                    break (all, releases, spec_ops, ws.shutdown);
                }
                let now = inner.now_us();
                let close = ws.queue.batch_close(now);
                if !ws.releases.is_empty() || !ws.spec_ops.is_empty() || close.is_some() {
                    match close {
                        Some(BatchClose::Size) => inner.metrics.close_size.inc(),
                        Some(BatchClose::Deadline) => inner.metrics.close_deadline.inc(),
                        Some(BatchClose::Quiet) => inner.metrics.close_quiet.inc(),
                        None => {}
                    }
                    let batch = ws.queue.take_batch();
                    let releases = std::mem::take(&mut ws.releases);
                    let spec_ops = std::mem::take(&mut ws.spec_ops);
                    break (batch, releases, spec_ops, None);
                }
                let wait_us = ws
                    .queue
                    .next_close_us()
                    .map_or(20_000, |t| t.saturating_sub(now).clamp(1, 20_000));
                let (guard, _timeout) = inner
                    .wake
                    .wait_timeout(ws, Duration::from_micros(wait_us))
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                ws = guard;
                if converging {
                    // Reconciliation in progress: run a round with
                    // whatever is queued (possibly nothing).
                    let batch = ws.queue.take_batch();
                    let releases = std::mem::take(&mut ws.releases);
                    let spec_ops = std::mem::take(&mut ws.spec_ops);
                    break (batch, releases, spec_ops, None);
                }
            }
        };

        let cycle_start_us = inner.now_us();
        if let Some(head) = batch.first() {
            inner
                .metrics
                .batch_wait_us
                .record(cycle_start_us.saturating_sub(head.enqueued_us));
        }
        if !batch.is_empty() || !releases.is_empty() || !spec_ops.is_empty() || converging {
            // Final release gate: an app released after `take_batch` has
            // its meta flipped off Active before the release reaches
            // `ws.releases`, so a point-in-time phase check here is
            // enough to keep it out of the scheduler. (Releases that
            // arrive after this check are cancelled by `cancel_lra` on
            // the next cycle.)
            let batch: Vec<PlaceWork> = {
                let apps = lock_unwrap(&inner.apps);
                batch
                    .into_iter()
                    .filter(|w| apps.phase(w.request.app.0) == Some(MetaPhase::Active))
                    .collect()
            };
            let batch_len = batch.len();
            let (rejected, still_converging) = inner.sched.with_writer(|m| {
                let mut rejected = Vec::new();
                for app in releases {
                    // Cancels everywhere the scheduler may hold the app:
                    // deployed containers, the pending queue, and
                    // in-flight solves — release of an admitted-but-
                    // unplaced app must never leak a later placement.
                    m.cancel_lra(ApplicationId(app));
                }
                for PlaceWork { request, .. } in batch {
                    let app = request.app;
                    if m.submit_lra(request, tick).is_err() {
                        rejected.push(app.0);
                    }
                }
                // Spec changes apply after submissions so a scale that
                // raced its own place request still finds the app
                // queued (the scheduler adopts it into lifecycle
                // management). A `false` return means the app vanished
                // in between — released concurrently — and the change
                // is moot.
                for op in spec_ops {
                    match op {
                        SpecOp::Scale { app, replicas } => {
                            let _ = m.set_replicas(ApplicationId(app), replicas);
                        }
                        SpecOp::Upgrade { app, version } => {
                            let _ = m.set_version(ApplicationId(app), version);
                        }
                    }
                }
                let _ = m.tick(tick);
                let converging = m
                    .lifecycles()
                    .iter()
                    .any(|l| !matches!(l.phase, LifecyclePhase::Steady | LifecyclePhase::Retired));
                (rejected, converging)
            });
            converging = still_converging;
            tick = tick.saturating_add(interval);
            if !rejected.is_empty() {
                let mut apps = lock_unwrap(&inner.apps);
                for app in rejected {
                    apps.set_phase(app, MetaPhase::Rejected);
                }
            }
            inner.metrics.batches.inc();
            inner.metrics.batch_size.record(batch_len as u64);
            inner.sched.publish(tick);
            // What this round cost is the next quiet gap.
            let wall_us = inner.now_us().saturating_sub(cycle_start_us);
            lock_unwrap(&inner.work)
                .queue
                .cycle_done(batch_len, wall_us);
        }

        if let Some(drain) = shutdown {
            let mut report = DrainReport::default();
            {
                let ws = lock_unwrap(&inner.work);
                report.shed_total = ws.queue.shed_stats().total();
                report.admitted_total = ws.queue.admitted();
            }
            if drain {
                let budget = inner.cfg.drain_max_cycles;
                let (deployed, complete, end, checkpointed, depth) = inner.sched.with_writer(|m| {
                    let (deployed, complete, end) = m.run_to_drain(tick, budget);
                    let checkpointed = m.journal_attached() && m.checkpoint(end).is_ok();
                    (deployed, complete, end, checkpointed, m.pending_lras())
                });
                tick = end;
                report.drained = true;
                report.drain_complete = complete;
                report.deployed_during_drain = deployed.len();
                report.checkpointed = checkpointed;
                report.final_queue_depth = depth;
                inner.sched.publish(tick);
            }
            *lock_unwrap(&inner.drain_report) = Some(report);
            inner.batcher_done.store(true, Ordering::SeqCst);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::shutdown_allowed;

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
