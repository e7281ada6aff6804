//! One pass of one workload against an in-process `MedeaServer` over
//! loopback TCP: set-up, warm-up, the measured window, output checks,
//! shutdown, the timed restarts, and set-up again for its median.
//!
//! "Placed" is observed the way a tenant observes it — `query` over the
//! wire, swept every [`POLL`] (closed-loop waits stretch that, see
//! `Driver::pause`). A reported latency is therefore late by at most one
//! sweep: 0.5 ms or 2% of itself, plus one `query` round trip (~0.05 ms)
//! per outstanding app.
//!
//! The window is cut into segments and the compute-bound times of each
//! are reported at reference speed: see [`crate::calib`].

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use medea_cluster::{ApplicationId, ClusterState};
use medea_constraints::violation_stats;
use medea_core::{AppPhase, MedeaScheduler, MedeaStats, NodeReport, SharedScheduler};
use medea_journal::{FileStorage, JournalStats, Wal};
use medea_obs::Snapshot;
use medea_server::{Request, Response};

use crate::calib::Speedometer;
use crate::client::Client;
use crate::env::{self, Env, Kind, Spec};
use crate::gen::{Gen, Place};
use crate::stats::due_latency_ms;
use crate::trace::Tracer;

/// Shortest sleep between `query` sweeps.
pub const POLL: Duration = Duration::from_micros(500);
/// Timed restarts after the window.
pub const RESTARTS: u64 = 9;
/// An operation not complete after this long has failed.
const OP_TIMEOUT: Duration = Duration::from_secs(10);
/// Set-up is repeated at least this often and its median reported …
const MIN_SETUPS: usize = 3;
/// … and cheap set-ups are repeated until this much time went into them.
const SETUP_BUDGET: Duration = Duration::from_millis(600);
const MAX_SETUPS: usize = 50;
/// The measured window is cut into segments at least this long — a
/// burst, or as many churn cycles or open-loop requests as fit — each
/// reported at reference speed (see [`crate::calib`]).
const SEGMENT: Duration = Duration::from_millis(500);
/// Kernel calls at every cut, on top of those made while waiting.
const CUT_READS: u32 = 5;
/// Names the server gives its threads; their CPU time is the program's.
const SERVER_THREADS: [&str; 3] = ["medea-batcher", "medea-listener", "medea-conn"];

/// Frames the server would handle in one batcher cycle, logged by the
/// traced pass and replayed by [`crate::replay`].
pub struct Round {
    pub frames: Vec<String>,
    pub timed: bool,
}

/// Process and scheduler counters at a window boundary.
struct Mark {
    at: Instant,
    journal: JournalStats,
    stats: MedeaStats,
    index_ops: u64,
    registry: Snapshot,
}

/// Timings of the journal read path (traced pass only).
#[derive(Default)]
pub struct ReadPath {
    pub load_us: f64,
    pub restore_us: f64,
    pub checkpoint_us: f64,
    pub append_us: f64,
}

/// Everything one pass measured.
#[derive(Default)]
pub struct Pass {
    pub setup_s: Vec<f64>,
    /// Send (closed loop) or due time (open loop) → `placed`, per LRA.
    pub placed_ms: Vec<f64>,
    /// The same latencies as the clock read them, where `placed_ms` is
    /// at reference speed; the per-layer metrics, all clock readings, use
    /// these.
    pub raw_placed_ms: Vec<f64>,
    pub accepted_to_placed_ms: Vec<f64>,
    pub ack_us: Vec<f64>,
    pub query_us: Vec<f64>,
    pub converge_ms: Vec<f64>,
    pub restart_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
    /// `status.queue_depth` samples across the window (open loop).
    pub queue_depth: Vec<u64>,
    /// Independent latency samples: requests, or bursts.
    pub samples: usize,
    pub lras_attempted: usize,
    pub ops_attempted: usize,
    pub ops_failed: usize,
    /// Sum of the segments' lengths: at reference speed where the
    /// workload is compute-bound, as measured otherwise.
    pub window_s: f64,
    /// The server threads' CPU time, at reference speed.
    pub cpu_ms: f64,
    /// Machine-speed factor of every segment (1.0 = reference speed).
    pub speed: Vec<f64>,
    pub containers_placed: usize,
    pub checked: usize,
    pub violating: usize,
    pub violation_us: Vec<f64>,
    pub active_constraints: Vec<f64>,
    pub bursts: usize,
    pub one_round_bursts: usize,
    pub journal: JournalStats,
    pub stats: MedeaStats,
    pub index_ops: u64,
    pub read_path: ReadPath,
    /// Registry at both ends of the window (`core.*` only when traced).
    pub snapshot_start: Option<Snapshot>,
    pub snapshot: Option<Snapshot>,
    pub peak_rss_mb: f64,
    /// Output checks that failed; any entry makes the run incorrect.
    pub errors: Vec<String>,
    pub stream: Vec<Round>,
    pub tracer: Option<Tracer>,
}

/// CPU time of the server's threads in ms, from each task's `schedstat`
/// (ns resolution). The generator's own threads — sender, sweeper,
/// calibration — run in this process too, and are not the program's cost.
pub fn server_cpu_ms() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let mut ns = 0u64;
    for task in tasks.flatten() {
        let read = |file: &str| std::fs::read_to_string(task.path().join(file)).unwrap_or_default();
        if SERVER_THREADS.contains(&read("comm").trim()) {
            ns += read("schedstat")
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    ns as f64 / 1e6
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Ground-truth node reports from the scheduler's own state, as
/// `recovery_bench` builds them (zero divergence).
fn faithful_reports(m: &MedeaScheduler) -> Vec<NodeReport> {
    let s = m.state();
    s.node_ids()
        .map(|n| NodeReport {
            node: n,
            available: s.is_available(n),
            containers: s.containers_on(n).map(<[_]>::to_vec).unwrap_or_default(),
        })
        .collect()
}

/// No node hosts more than its capacity.
fn over_capacity(state: &ClusterState) -> Option<String> {
    let mut used = vec![(0u64, 0u32); state.num_nodes()];
    for a in state.allocations() {
        let u = &mut used[a.node.index()];
        u.0 += a.resources.memory_mb;
        u.1 += a.resources.vcores;
    }
    state.node_ids().find_map(|n| {
        let cap = state.node(n).ok()?.capacity;
        let (mem, cores) = used[n.index()];
        (mem > cap.memory_mb || cores > cap.vcores)
            .then(|| format!("{n} over capacity: {mem} MB / {cores} vcores"))
    })
}

/// The open segment of the measured window: the counters at its start.
struct Segment {
    at: Instant,
    cpu_ms: f64,
    /// Length of `placed_ms`.
    samples: usize,
}

/// The client side of one pass.
struct Driver {
    spec: &'static Spec,
    env: Env,
    gen: Gen,
    client: Client,
    pass: Pass,
    /// Inside the measured window.
    timed: bool,
    segment: Option<Segment>,
    speed: Speedometer,
}

impl Driver {
    fn mark(&self) -> Mark {
        let (journal, index_ops) = self
            .env
            .handle
            .scheduler()
            .with_writer(|m| (m.journal_stats(), m.state().index_stats().update_ops));
        Mark {
            at: Instant::now(),
            journal,
            stats: self.env.handle.status().stats.clone(),
            index_ops,
            registry: self.env.registry.snapshot(),
        }
    }

    /// Ends the open segment at `end`, times a few kernel calls while the
    /// server is idle, and — inside the window — opens the next segment.
    /// The segment's factor is the mean of every kernel timing since the
    /// cut before; its CPU time, and on a compute-bound workload its
    /// length and submit→placed latencies, are divided by the slowdown
    /// that factor means for this workload. The calls at the cut are
    /// outside every segment.
    fn cut(&mut self, end: Instant) {
        let cpu_ms = server_cpu_ms();
        self.speed.read(CUT_READS);
        let factor = self.speed.take();
        if let Some(seg) = self.segment.take() {
            let slowdown = self.spec.slowdown(factor);
            let scale = if self.spec.compute_bound() {
                slowdown
            } else {
                1.0
            };
            let p = &mut self.pass;
            p.speed.push(factor);
            p.cpu_ms += (cpu_ms - seg.cpu_ms) / slowdown;
            p.window_s += end.duration_since(seg.at).as_secs_f64() / scale;
            let fresh = &mut p.placed_ms[seg.samples..];
            p.raw_placed_ms.extend_from_slice(fresh);
            fresh.iter_mut().for_each(|v| *v /= scale);
        }
        if self.timed {
            self.segment = Some(Segment {
                at: Instant::now(),
                cpu_ms: server_cpu_ms(),
                samples: self.pass.placed_ms.len(),
            });
        }
    }

    /// [`cut`](Self::cut) if the open segment is [`SEGMENT`] old.
    fn cut_if_due(&mut self) {
        if self
            .segment
            .as_ref()
            .is_some_and(|s| s.at.elapsed() >= SEGMENT)
        {
            self.cut(Instant::now());
        }
    }

    fn open_window(&mut self) -> Mark {
        self.timed = true;
        self.cut(Instant::now());
        self.mark()
    }

    fn close_window(&mut self, start: &Mark, end_at: Instant) {
        self.timed = false;
        self.cut(end_at);
        let end = self.mark();
        let p = &mut self.pass;
        p.journal = JournalStats {
            records_appended: end.journal.records_appended - start.journal.records_appended,
            bytes_appended: end.journal.bytes_appended - start.journal.bytes_appended,
            checkpoints_installed: end.journal.checkpoints_installed,
            append_errors: end.journal.append_errors,
        };
        p.stats = MedeaStats {
            lras_deployed: end.stats.lras_deployed - start.stats.lras_deployed,
            lras_unplaced: end.stats.lras_unplaced - start.stats.lras_unplaced,
            commit_conflicts: end.stats.commit_conflicts - start.stats.commit_conflicts,
            lras_dropped: end.stats.lras_dropped - start.stats.lras_dropped,
            cycles: end.stats.cycles - start.stats.cycles,
            shard_resubmissions: end.stats.shard_resubmissions - start.stats.shard_resubmissions,
        };
        p.index_ops = end.index_ops - start.index_ops;
        p.snapshot_start = Some(start.registry.clone());
        p.snapshot = Some(end.registry);
    }

    /// Sleeps until the next sweep of a closed-loop wait that began at
    /// `since`: [`POLL`], stretched to 2% of the time already waited, so a
    /// one-second solve is not swept two thousand times on the core it
    /// runs on and no latency reads more than 2% late. Times a kernel call
    /// first when one is due.
    fn pause(&mut self, since: Instant) {
        self.speed.tick();
        std::thread::sleep(POLL.max(since.elapsed() / 50));
    }

    /// Logs one round of frames for the replay (traced passes only).
    fn log(&mut self, frames: Vec<String>) {
        if self.pass.tracer.is_some() {
            self.pass.stream.push(Round {
                frames,
                timed: self.timed,
            });
        }
    }

    /// Sends one request and returns its reply, timing the round trip.
    fn call(&mut self, req: &Request) -> Result<Response, String> {
        let t = Instant::now();
        let resp = self.client.call(req)?;
        if self.timed {
            self.pass.ack_us.push(us(t.elapsed()));
        }
        if let Some(tr) = &mut self.pass.tracer {
            tr.interval("client.ack", t, Instant::now(), req.id());
        }
        Ok(resp)
    }

    fn sweep_query(&mut self, app: u64) -> Result<(String, Vec<u32>), String> {
        let t = Instant::now();
        let out = self.client.query(app)?;
        if self.timed {
            self.pass.query_us.push(us(t.elapsed()));
        }
        Ok(out)
    }

    /// Sends `places` back to back — they land in one admission batch —
    /// then sweeps `query` until every app is `placed` with the
    /// container count it asked for. Returns whether all were placed.
    fn place_all(&mut self, places: &[Place]) -> Result<bool, String> {
        let cycles_before = self.client.status()?.cycles;
        let mut sent = Vec::with_capacity(places.len());
        let mut frames = Vec::with_capacity(places.len());
        for p in places {
            let payload = p.request.encode();
            sent.push(Instant::now());
            self.client.send(&payload)?;
            frames.push(payload);
        }
        self.log(frames);
        let mut pending: Vec<usize> = Vec::new();
        let mut acked = vec![Instant::now(); places.len()];
        for (i, p) in places.iter().enumerate() {
            match self.client.recv()? {
                Response::Accepted { .. } => {
                    acked[i] = Instant::now();
                    pending.push(i);
                }
                other => self
                    .pass
                    .errors
                    .push(format!("place {} refused: {other:?}", p.app)),
            }
            if self.timed {
                self.pass.ack_us.push(us(acked[i].duration_since(sent[i])));
            }
            if let Some(tr) = &mut self.pass.tracer {
                tr.interval("client.ack", sent[i], acked[i], p.request.id());
            }
        }
        let accepted = pending.len();
        let deadline = Instant::now() + OP_TIMEOUT;
        let mut placed = 0;
        while !pending.is_empty() && Instant::now() < deadline {
            self.pause(sent[0]);
            let mut still = Vec::new();
            for &i in &pending {
                let (phase, nodes) = self.sweep_query(places[i].app)?;
                if phase == "placed" && nodes.len() == places[i].containers {
                    let now = Instant::now();
                    placed += 1;
                    if self.timed {
                        self.pass.placed_ms.push(ms(now.duration_since(sent[i])));
                        self.pass
                            .accepted_to_placed_ms
                            .push(ms(now.duration_since(acked[i])));
                        self.pass.containers_placed += places[i].containers;
                    }
                    if let Some(tr) = &mut self.pass.tracer {
                        tr.interval("client.placed", sent[i], now, places[i].request.id());
                    }
                } else if phase == "placed" || phase == "pending" {
                    still.push(i);
                } else {
                    self.pass
                        .errors
                        .push(format!("app {} went {phase}", places[i].app));
                }
            }
            pending = still;
        }
        if self.timed {
            self.pass.samples += 1;
            self.pass.lras_attempted += places.len();
            self.pass.ops_attempted += places.len();
            self.pass.ops_failed += places.len() - placed;
            self.pass.bursts += 1;
            // One burst, one batch: the scheduler ran exactly one cycle.
            if self.client.status()?.cycles == cycles_before + 1 {
                self.pass.one_round_bursts += 1;
            }
        }
        Ok(placed == places.len() && accepted == places.len())
    }

    /// One lifecycle request (`release` or `scale`), acknowledged.
    fn lifecycle(&mut self, req: &Request) -> Result<Instant, String> {
        let resp = self.call(req)?;
        if self.timed {
            self.pass.ops_attempted += 1;
        }
        match resp {
            Response::Released { .. } | Response::ScaleAck { .. } => Ok(Instant::now()),
            other => {
                if self.timed {
                    self.pass.ops_failed += 1;
                }
                Err(format!("lifecycle request refused: {other:?}"))
            }
        }
    }

    /// Sweeps `status` until the live container count is back at `level`.
    fn wait_containers(&mut self, level: u64) -> Result<(), String> {
        let since = Instant::now();
        while self.client.status()?.containers != level {
            if since.elapsed() > OP_TIMEOUT {
                return Err(format!("containers never fell back to {level}"));
            }
            self.pause(since);
        }
        Ok(())
    }

    /// `scale` to `replicas`, then sweeps `query` until the app reports
    /// `steady` on that many nodes; records ack → steady.
    fn scale_to(&mut self, app: u64, replicas: u64) -> Result<(), String> {
        let req = self.gen.scale(app, replicas);
        self.log(vec![req.encode()]);
        let acked = self.lifecycle(&req)?;
        let deadline = acked + OP_TIMEOUT;
        loop {
            self.pause(acked);
            let (phase, nodes) = self.sweep_query(app)?;
            if phase == "steady" && nodes.len() as u64 == replicas {
                if self.timed {
                    self.pass.converge_ms.push(ms(acked.elapsed()));
                }
                return Ok(());
            }
            if Instant::now() > deadline {
                if self.timed {
                    self.pass.ops_failed += 1;
                }
                return Err(format!("app {app} never reached {replicas} replicas"));
            }
        }
    }

    /// §7.4 violation share over live state, at a burst/cycle boundary.
    fn violations(&mut self) {
        if !self.timed {
            return;
        }
        let t = Instant::now();
        let (stats, active) = self.env.handle.scheduler().with_writer(|m| {
            let active = m.constraint_manager().active_constraints();
            (violation_stats(m.state(), &active), active.len())
        });
        self.pass.violation_us.push(us(t.elapsed()));
        self.pass.active_constraints.push(active as f64);
        self.pass.checked += stats.containers_checked;
        self.pass.violating += stats.containers_violating;
    }

    /// Closed loop: bursts of `apps` LRAs; wait for all `placed`, audit,
    /// release, wait for quiescence (so the next burst is one batch).
    fn bursts(
        &mut self,
        apps: usize,
        make: impl Fn(&mut Gen) -> Place,
        warmup: Duration,
        window: Duration,
    ) -> Result<Live, String> {
        let t0 = Instant::now();
        let mut start: Option<Mark> = None;
        loop {
            if start.is_none() && t0.elapsed() >= warmup {
                start = Some(self.open_window());
            }
            if start.as_ref().is_some_and(|s| s.at.elapsed() >= window) {
                break;
            }
            self.cut_if_due();
            self.burst(apps, &make)?;
        }
        let start = start.expect("window opened");
        self.close_window(&start, Instant::now());
        Ok(Vec::new())
    }

    /// One burst: `apps` LRAs sent back to back, all `placed`, audited,
    /// released, and the cluster back at its background level.
    fn burst(&mut self, apps: usize, make: impl Fn(&mut Gen) -> Place) -> Result<(), String> {
        let places: Vec<Place> = (0..apps).map(|_| make(&mut self.gen)).collect();
        self.place_all(&places)?;
        self.violations();
        let mut frames = Vec::new();
        for p in &places {
            let req = self.gen.release(p.app);
            frames.push(req.encode());
            self.lifecycle(&req)?;
        }
        self.log(frames);
        self.wait_containers(self.env.background)
    }

    /// The first unit of load on a fresh system, as part of set-up: the
    /// cold solve is where lazily built state gets built. The open loop's
    /// prefill has already done as much.
    fn prime(&mut self) -> Result<(), String> {
        match self.spec.kind {
            Kind::Steady { .. } => Ok(()),
            Kind::Hbase { apps } => self.burst(apps, Gen::hbase),
            Kind::Spread { apps, size } => self.burst(apps, |g| g.spread(size)),
            Kind::Churn { .. } => self.burst(1, |g| g.spread(4)),
        }
    }

    /// Closed loop: place 4 → `placed` → scale 6 → `steady` → scale 3 →
    /// `steady` → release the app placed `lag` cycles earlier. A fixed
    /// cycle count, so both commits replay the same number of records.
    fn churn(&mut self, warm: usize, cycles: usize, cap: Duration) -> Result<Live, String> {
        let lag = cycles * 2 / 3;
        let mut history: VecDeque<u64> = VecDeque::new();
        let mut start: Option<Mark> = None;
        for c in 0..warm + cycles {
            if c == warm {
                start = Some(self.open_window());
            }
            self.cut_if_due();
            if start.as_ref().is_some_and(|s| s.at.elapsed() > cap) {
                // Hard cap: every unfinished cycle's four operations fail.
                let left = warm + cycles - c;
                self.pass.ops_attempted += 4 * left;
                self.pass.ops_failed += 4 * left;
                self.pass.lras_attempted += left;
                self.pass.errors.push(format!("{left} cycles past the cap"));
                break;
            }
            let place = self.gen.spread(4);
            let app = place.app;
            if self.place_all(&[place])? {
                self.scale_to(app, 6)?;
                self.scale_to(app, 3)?;
            }
            // Every tenth boundary: the audit holds the writer lock for
            // ~1 ms with 200 live constraints, inside the closed loop.
            if c % 10 == 0 {
                self.violations();
            }
            history.push_back(app);
            if history.len() > lag {
                let old = history.pop_front().expect("non-empty");
                let req = self.gen.release(old);
                self.log(vec![req.encode()]);
                self.lifecycle(&req)?;
            }
        }
        let start = start.expect("window opened");
        self.close_window(&start, Instant::now());
        Ok(history.into_iter().map(|app| (app, 3)).collect())
    }

    /// Open loop: every `1/rate` s, release the oldest live app and place
    /// a new one, whatever the server is doing; a second connection
    /// sweeps `query` for the outstanding apps. Latency counts from the
    /// *due* time.
    fn steady(
        &mut self,
        poller: Client,
        rate: u32,
        mut live: VecDeque<u64>,
        warm: usize,
        timed: usize,
    ) -> Result<Live, String> {
        let interval = Duration::from_secs_f64(1.0 / f64::from(rate));
        let limit = Duration::from_secs_f64(self.spec.late_limit_ms / 1e3);
        // Requests per segment; the schedule starts afresh after each cut.
        let per_segment = (SEGMENT.as_secs_f64() * f64::from(rate)) as usize;
        let (tx, rx) = mpsc::channel::<Sent>();
        let in_flight = AtomicUsize::new(0);
        let traced = self.pass.tracer.is_some();
        let mut start: Option<Mark> = None;
        let (polled, end) = std::thread::scope(|s| -> Result<(Polled, Instant), String> {
            let in_flight = &in_flight;
            let sweeper = s.spawn(move || sweep(poller, &rx, in_flight, limit * 40, traced));
            // Waits until the sweeper has seen every request through, so
            // the speed reading that follows runs beside an idle server.
            let quiesce = || {
                while in_flight.load(Ordering::Acquire) > 0 && !sweeper.is_finished() {
                    std::thread::sleep(POLL);
                }
                Instant::now()
            };
            let mut t0 = Instant::now() + interval;
            let mut first = 0;
            for k in 0..warm + timed {
                // A cut every `per_segment` requests; the first opens
                // the window.
                if k >= warm && (k - warm).is_multiple_of(per_segment) {
                    let end = quiesce();
                    if k == warm {
                        start = Some(self.open_window());
                    } else {
                        self.cut(end);
                    }
                    (t0, first) = (Instant::now() + interval, k);
                }
                let due = t0 + interval * (k - first) as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                if self.timed {
                    self.pass.lag_ms.push(ms(due.elapsed()));
                }
                if let Some(old) = live.pop_front() {
                    let req = self.gen.release(old);
                    self.log(vec![req.encode()]);
                    self.lifecycle(&req)?;
                }
                let place = self.gen.tiny();
                self.log(vec![place.request.encode()]);
                let resp = self.call(&place.request)?;
                if self.timed {
                    self.pass.lras_attempted += 1;
                    self.pass.ops_attempted += 1;
                    self.pass.samples += 1;
                }
                match resp {
                    Response::Accepted { .. } => {
                        live.push_back(place.app);
                        in_flight.fetch_add(1, Ordering::AcqRel);
                        let _ = tx.send(Sent {
                            app: place.app,
                            id: place.request.id(),
                            due,
                            acked: Instant::now(),
                            timed: self.timed,
                        });
                        // The batch this place joined closes in 10 ms:
                        // the server is idle, the kernel disturbs nothing.
                        self.speed.read(1);
                    }
                    // Refused: counted attempted, never placed — late and failed.
                    _ if self.timed => self.pass.ops_failed += 1,
                    _ => {}
                }
            }
            let end = quiesce();
            drop(tx);
            let polled = sweeper
                .join()
                .map_err(|_| "sweeper panicked".to_string())??;
            Ok((polled, end))
        })?;
        let start = start.expect("window opened");
        self.close_window(&start, end);
        let p = &mut self.pass;
        p.ops_failed += polled.unplaced;
        p.containers_placed = polled.placed_ms.len();
        p.raw_placed_ms.clone_from(&polled.placed_ms);
        p.placed_ms = polled.placed_ms;
        p.accepted_to_placed_ms = polled.accepted_to_placed_ms;
        p.query_us = polled.query_us;
        p.queue_depth = polled.queue_depth;
        self.client.requests += polled.requests;
        self.client.responses += polled.responses;
        if let (Some(mine), Some(theirs)) = (&mut p.tracer, polled.tracer) {
            mine.absorb(theirs);
        }
        Ok(live.into_iter().map(|app| (app, 1)).collect())
    }
}

/// Apps the generator believes live when the window closes, with the
/// container count each should hold.
type Live = Vec<(u64, usize)>;

/// A placed request handed from the sender to the sweeper.
struct Sent {
    app: u64,
    id: u64,
    due: Instant,
    acked: Instant,
    timed: bool,
}

/// What the sweeper observed.
#[derive(Default)]
struct Polled {
    placed_ms: Vec<f64>,
    accepted_to_placed_ms: Vec<f64>,
    query_us: Vec<f64>,
    queue_depth: Vec<u64>,
    unplaced: usize,
    requests: u64,
    responses: u64,
    tracer: Option<Tracer>,
}

/// The open loop's second connection: sweeps `query` over every
/// outstanding app each [`POLL`], samples `status.queue_depth` every
/// 50 ms, and gives up on an app `patience` after its due time.
fn sweep(
    mut client: Client,
    rx: &mpsc::Receiver<Sent>,
    in_flight: &AtomicUsize,
    patience: Duration,
    traced: bool,
) -> Result<Polled, String> {
    let mut out = Polled {
        tracer: traced.then(Tracer::new),
        ..Polled::default()
    };
    let mut outstanding: Vec<Sent> = Vec::new();
    let mut open = true;
    let mut next_status = Instant::now();
    while open || !outstanding.is_empty() {
        loop {
            match rx.try_recv() {
                Ok(s) => outstanding.push(s),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let mut still = Vec::with_capacity(outstanding.len());
        for s in outstanding {
            let t = Instant::now();
            let (phase, nodes) = client.query(s.app)?;
            let now = Instant::now();
            if s.timed {
                out.query_us.push(us(now.duration_since(t)));
            }
            if phase == "placed" && nodes.len() == 1 {
                if s.timed {
                    out.placed_ms.push(due_latency_ms(s.due, now));
                    out.accepted_to_placed_ms
                        .push(ms(now.duration_since(s.acked)));
                }
                if let Some(tr) = &mut out.tracer {
                    tr.interval("client.placed", s.due, now, s.id);
                }
                in_flight.fetch_sub(1, Ordering::AcqRel);
            } else if now.duration_since(s.due) > patience {
                out.unplaced += usize::from(s.timed);
                in_flight.fetch_sub(1, Ordering::AcqRel);
            } else {
                still.push(s);
            }
        }
        outstanding = still;
        if open && Instant::now() >= next_status {
            next_status += Duration::from_millis(50);
            out.queue_depth.push(client.status()?.queue_depth);
        }
        std::thread::sleep(POLL);
    }
    out.requests = client.requests;
    out.responses = client.responses;
    Ok(out)
}

/// `steady_tiny`'s set-up load: `n` tiny apps through the wire, a batch
/// at a time, each batch confirmed deployed before the next.
fn prefill(
    client: &mut Client,
    gen: &mut Gen,
    n: usize,
    speed: &mut Speedometer,
) -> Result<VecDeque<u64>, String> {
    let mut live = VecDeque::with_capacity(n);
    let base = client.status()?.deployed;
    while live.len() < n {
        let chunk = (n - live.len()).min(64);
        for _ in 0..chunk {
            let p = gen.tiny();
            client.send(&p.request.encode())?;
            live.push_back(p.app);
        }
        for _ in 0..chunk {
            if !matches!(client.recv()?, Response::Accepted { .. }) {
                return Err("prefill place refused".to_string());
            }
        }
        let deadline = Instant::now() + OP_TIMEOUT;
        while client.status()?.deployed < base + live.len() as u64 {
            if Instant::now() > deadline {
                return Err("prefill never deployed".to_string());
            }
            speed.tick();
            std::thread::sleep(POLL);
        }
    }
    Ok(live)
}

/// Crash-or-drain shutdown, then [`RESTARTS`] timed work-preserving
/// restarts with faithful node reports; every restart must restore the
/// pre-shutdown state and pass the audit.
fn shutdown_and_restart(env: Env, graceful: bool, traced: bool, pass: &mut Pass) {
    let sched: SharedScheduler = env.handle.scheduler();
    let board = env.handle.status();
    if !board.ledger_intact() {
        pass.errors.push("recovery ledger broken".to_string());
    }
    let report = env.handle.shutdown(graceful);
    if graceful && !(report.drained && report.drain_complete && report.checkpointed) {
        pass.errors.push(format!("drain incomplete: {report:?}"));
    }
    let now = board.published_at + 1_000;
    sched.with_writer(|m| {
        if let Err(e) = m.audit() {
            pass.errors.push(format!("audit after shutdown: {e}"));
        }
        if let Some(e) = over_capacity(m.state()) {
            pass.errors.push(e);
        }
        let before = m.state().num_containers();
        let reports = faithful_reports(m);
        for k in 0..RESTARTS {
            let t = Instant::now();
            let outcome = m.restart(now + k, &reports);
            pass.restart_ms.push(ms(t.elapsed()));
            match outcome {
                Ok(r) => {
                    let clean = r.restored_from_journal
                        && r.audit_error.is_none()
                        && r.phantom_containers_released == 0
                        && r.unknown_containers_reported == 0
                        && m.state().num_containers() == before;
                    if !clean || m.audit().is_err() {
                        pass.errors.push(format!("restart {k} diverged: {r:?}"));
                    }
                }
                Err(e) => pass.errors.push(format!("restart {k}: {e}")),
            }
        }
        if traced {
            let t = Instant::now();
            let _ = m.checkpoint(now + RESTARTS);
            pass.read_path.checkpoint_us = us(t.elapsed());
        }
    });
}

/// The journal's read path call by call — `Wal::load`, then
/// `ClusterState::restore` (replay + index rebuild) — on a second handle to the live journal directory
/// while the server is idle, and the append path on the records the run
/// wrote, into a scratch journal beside it.
fn read_path(dir: &Path) -> ReadPath {
    let mut out = ReadPath::default();
    let Ok(storage) = FileStorage::open(dir) else {
        return out;
    };
    let wal = Wal::new(storage);
    let t = Instant::now();
    let loaded = wal.load();
    out.load_us = us(t.elapsed());
    let Ok((Some(checkpoint), records)) = loaded else {
        return out;
    };
    let t = Instant::now();
    let restored = ClusterState::restore(&checkpoint, &records);
    out.restore_us = us(t.elapsed());
    drop(restored);
    let probe_dir = dir.join("append-probe");
    let _ = std::fs::remove_dir_all(&probe_dir);
    if let Ok(storage) = FileStorage::open(&probe_dir) {
        let mut probe = Wal::new(storage);
        let t = Instant::now();
        for r in &records {
            probe.append_best_effort(r);
        }
        out.append_us = us(t.elapsed()) / records.len().max(1) as f64;
    }
    out
}

/// The open loop's second connection and its prefilled live set.
type OpenLoop = Option<(Client, VecDeque<u64>)>;

/// Set-up as `setup_s` times it: seeded cluster, scheduler, journal
/// attach (initial checkpoint), server start, connections, and the first
/// load — `steady_tiny`'s 1,000-app prefill, elsewhere one burst (one
/// 4-container app for `churn_restart`) placed cold and released again.
/// Returns the primed driver and the time at reference speed: kernel
/// calls before, in every wait inside, and after.
fn set_up(
    spec: &'static Spec,
    seed: u64,
    traced: bool,
    out_dir: &Path,
) -> Result<(Driver, OpenLoop, f64), String> {
    let mut speed = Speedometer::new();
    speed.read(CUT_READS);
    let t = Instant::now();
    let mut gen = Gen::new(seed);
    let dir = out_dir.join(spec.name).join("journal");
    let env = env::start(spec, &mut gen, &dir, traced)?;
    let mut client = Client::connect(env.handle.addr())?;
    let open_loop = match spec.kind {
        Kind::Steady { live, .. } => Some((
            Client::connect(env.handle.addr())?,
            prefill(&mut client, &mut gen, live, &mut speed)?,
        )),
        _ => None,
    };
    let mut d = Driver {
        spec,
        env,
        gen,
        client,
        pass: Pass {
            tracer: traced.then(Tracer::new),
            ..Pass::default()
        },
        timed: false,
        segment: None,
        speed,
    };
    d.prime()?;
    let took_s = t.elapsed().as_secs_f64();
    d.speed.read(CUT_READS);
    let setup_s = took_s / spec.slowdown(d.speed.take());
    Ok((d, open_loop, setup_s))
}

/// Runs one pass: set-up, warm-up, window, checks, shutdown, restarts —
/// then set-up again a few times, so `setup_s` is a median.
pub fn run_pass(
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    traced: bool,
    out_dir: &Path,
) -> Result<Pass, String> {
    let (mut d, open_loop, first_setup_s) = set_up(spec, seed, traced, out_dir)?;
    d.pass.setup_s.push(first_setup_s);

    let warmup = Duration::from_secs_f64((seconds as f64 / 3.0).min(2.0));
    let window = Duration::from_secs(seconds);
    let ran = match spec.kind {
        Kind::Steady { rate, .. } => {
            let (poller, prefilled) = open_loop.expect("steady set-up");
            d.steady(
                poller,
                rate,
                prefilled,
                (warmup.as_secs_f64() * f64::from(rate)) as usize,
                seconds as usize * rate as usize,
            )
        }
        Kind::Hbase { apps } => d.bursts(apps, Gen::hbase, warmup, window),
        Kind::Spread { apps, size } => d.bursts(apps, |g| g.spread(size), warmup, window),
        Kind::Churn { cycles_per_s } => {
            let per_s = cycles_per_s as usize;
            d.churn(
                (warmup.as_secs_f64() * per_s as f64) as usize,
                seconds as usize * per_s,
                window * 4,
            )
        }
    };
    let Driver {
        env,
        client,
        mut pass,
        ..
    } = d;
    let live = ran.unwrap_or_else(|e| {
        pass.errors.push(e);
        Vec::new()
    });

    // Output checks against the server's own view.
    let board = env.handle.status();
    for (app, containers) in live {
        match board.app(ApplicationId(app)) {
            Some(AppPhase::Placed { nodes }) if nodes.len() == containers => {}
            other => pass
                .errors
                .push(format!("app {app} on the board: {other:?}")),
        }
    }
    let requests = (client.requests, client.responses);
    drop(client);
    let registry = std::sync::Arc::clone(&env.registry);
    if traced {
        pass.read_path = read_path(&env.journal_dir);
    }
    let graceful = !matches!(spec.kind, Kind::Churn { .. });
    shutdown_and_restart(env, graceful, traced, &mut pass);

    // Read once every server thread has exited, so the counters are final.
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    if counter("server.protocol_errors_total") != 0 {
        pass.errors
            .push("server counted protocol errors".to_string());
    }
    if requests.0 != requests.1
        || counter("server.requests_total") != counter("server.responses_total")
    {
        pass.errors.push(format!(
            "responses != requests: client {}/{}, server {}/{}",
            requests.1,
            requests.0,
            counter("server.responses_total"),
            counter("server.requests_total"),
        ));
    }
    // Before the extra set-ups: the peak of one server lifetime.
    pass.peak_rss_mb = peak_rss_mb();

    let repeats_started = Instant::now();
    while pass.setup_s.len() < MIN_SETUPS
        || (repeats_started.elapsed() < SETUP_BUDGET && pass.setup_s.len() < MAX_SETUPS)
    {
        let (d, open_loop, setup_s) = set_up(spec, seed, traced, out_dir)?;
        pass.setup_s.push(setup_s);
        drop(open_loop);
        let Driver { env, client, .. } = d;
        drop(client);
        env.handle.shutdown(false);
    }
    Ok(pass)
}
