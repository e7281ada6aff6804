//! Discrete-event simulation driver.
//!
//! Reproduces the paper's simulator (§7.1 "Simulation"): it executes the
//! real Medea scheduler against simulated machines, "merely ignoring RPCs
//! and task execution". Time is in milliseconds. Node heartbeats drive
//! task allocation (as in YARN), the LRA scheduler runs at its configured
//! interval, and task/LRA completions release resources.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use medea_cluster::{ApplicationId, ContainerId, ContainerRequest, NodeId};
use medea_constraints::PlacementConstraint;
use medea_core::{
    AppSpec, LraDeployment, LraRequest, MedeaScheduler, NodeReport, RestartReport, TaskJobRequest,
};
use medea_journal::{MemoryStorage, Wal};
use medea_obs::MetricsRegistry;
use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};

/// A scheduled simulation event.
#[derive(Debug, Clone)]
pub enum SimEvent {
    /// Submit an LRA to Medea.
    SubmitLra(LraRequest),
    /// Register a lifecycle-managed LRA: a desired-state spec plus the
    /// replica template the reconciler clones. Nothing is queued
    /// directly — the reconciler emits the initial scale-up on the next
    /// scheduling round ([`MedeaScheduler::submit_managed_lra`]).
    SubmitManagedLra {
        /// The application.
        app: ApplicationId,
        /// Replica template (tags without `appid:`/`ver:` — attached
        /// per placement).
        template: ContainerRequest,
        /// Placement constraints registered for the app.
        constraints: Vec<PlacementConstraint>,
        /// Desired replicas, version, and disruption budget.
        spec: AppSpec,
    },
    /// Set the desired replica count of a managed app; the reconciler
    /// converges (scale-up via the batch path, scale-down by
    /// constraint-impact victim selection). Replicas 0 drains and
    /// retires the app.
    ScaleLra {
        /// The application.
        app: ApplicationId,
        /// New desired replica count.
        replicas: usize,
    },
    /// Set the desired version of a managed app; the reconciler walks
    /// the upgrade domains one at a time under the disruption budget.
    UpgradeLra {
        /// The application.
        app: ApplicationId,
        /// New desired version.
        version: u64,
    },
    /// Run one defragmentation pass
    /// ([`MedeaScheduler::defragment`]): consolidation migrations off
    /// fragmented nodes, bounded by per-app disruption headroom.
    DefragPass,
    /// Submit a task job whose tasks run for `duration` ticks each.
    SubmitTasks {
        /// The job.
        job: TaskJobRequest,
        /// Per-task runtime in ticks.
        duration: u64,
    },
    /// A node heartbeat (auto-rescheduled every heartbeat interval).
    Heartbeat(NodeId),
    /// A task container finishes.
    TaskComplete {
        /// Queue that owns the container.
        queue: String,
        /// The finishing container.
        container: ContainerId,
    },
    /// An LRA finishes and releases all containers and constraints.
    LraComplete(ApplicationId),
    /// A node becomes unavailable (failure, upgrade — §2.3). Containers
    /// stay in the bookkeeping and count as unavailable, matching the
    /// resilience experiments.
    NodeFail(NodeId),
    /// A failed node comes back.
    NodeRecover(NodeId),
    /// A node crashes: every container it hosted is released and the
    /// recovery pipeline re-enqueues the lost LRA containers
    /// ([`MedeaScheduler::node_lost`]). The stronger sibling of
    /// [`SimEvent::NodeFail`], which only flips availability.
    NodeCrash(NodeId),
    /// The ILP solver stalls for the next `cycles` scheduling cycles
    /// (injected fault; counts against the scheduler's circuit breaker).
    SolverStall {
        /// Number of scheduling cycles the stall lasts.
        cycles: u32,
    },
    /// The LRA scheduling interval fires.
    SchedulerTick,
    /// An in-flight LRA solve finishes: the solve latency charged at
    /// propose time has elapsed on the sim clock and the proposal is
    /// validated and committed against live state
    /// ([`PipelineMode::Async`] only). A sharded round proposes several
    /// solves per tick, each with its own ready event, identified by the
    /// driver-assigned `solve` handle.
    LraPlacementReady {
        /// Driver-assigned handle of the solve that completed.
        solve: u64,
    },
    /// The resource manager crashes (RM failover chaos): node ground
    /// truth is frozen at this instant, every in-flight solve dies with
    /// the process, and no event reaches the scheduler until the outage
    /// elapses and [`SimEvent::RmRestart`] re-registers the nodes and
    /// runs [`MedeaScheduler::restart`].
    RmCrash {
        /// Ticks the RM stays down before the restart completes.
        outage_ticks: u64,
        /// Per-container probability of dying during the outage (the
        /// node's re-registration then omits it — the anti-entropy
        /// divergence the restart must repair).
        loss_rate: f64,
    },
    /// The restarted resource manager comes back: nodes re-register
    /// with the ground truth captured at crash time (minus containers
    /// lost during the outage) and the scheduler runs its
    /// work-preserving recovery. Scheduled internally by
    /// [`SimEvent::RmCrash`].
    RmRestart,
}

/// How the LRA solve relates to the simulation clock (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineMode {
    /// Compatibility mode: propose and commit happen inside one
    /// [`SimEvent::SchedulerTick`], and the solve latency *blocks* the
    /// simulated resource manager — every event due while the solve runs
    /// (heartbeats included) is handled only once it completes. This is
    /// the monolithic scheduler the paper argues against.
    #[default]
    Sync,
    /// Medea's pipeline: propose solves on the state at the tick, the
    /// solve latency elapses on the sim clock while heartbeats, task
    /// allocations, and chaos events keep interleaving, and a
    /// [`SimEvent::LraPlacementReady`] commits the proposal against live
    /// state (conflicts are resubmitted).
    Async,
}

/// Entry in the event queue, ordered by `(time, sequence)`.
#[derive(Debug)]
struct QueuedEvent {
    time: u64,
    seq: u64,
    event: SimEvent,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Collected simulation measurements.
#[derive(Debug, Default, Clone)]
pub struct SimMetrics {
    /// Scheduling latency of every allocated task container, in ticks.
    pub task_latencies: Vec<u64>,
    /// Scheduling latency of every deployed LRA, in ticks.
    pub lra_latencies: Vec<u64>,
    /// Wall-clock time the LRA placement algorithm spent per batch.
    pub lra_algorithm_times: Vec<std::time::Duration>,
    /// Deployments in commit order.
    pub deployments: Vec<LraDeployment>,
}

medea_obs::metric_handles! {
    /// Pre-resolved `sim.*` series, updated per handled event. Kept as
    /// `Arc` handles so the hot event loop never touches the registry map.
    #[derive(Debug)]
    struct SimObs {
        events: Counter = "sim.events_total",
        heartbeats: Counter = "sim.heartbeats_total",
        lra_submissions: Counter = "sim.lra_submissions_total",
        task_submissions: Counter = "sim.task_submissions_total",
        task_completions: Counter = "sim.task_completions_total",
        lra_completions: Counter = "sim.lra_completions_total",
        node_failures: Counter = "sim.node_failures_total",
        scheduler_ticks: Counter = "sim.scheduler_ticks_total",
        chaos_node_crashes: Counter = "sim.chaos_node_crashes_total",
        chaos_node_recoveries: Counter = "sim.chaos_node_recoveries_total",
        chaos_solver_stalls: Counter = "sim.chaos_solver_stalls_total",
        chaos_containers_killed: Counter = "sim.chaos_containers_killed_total",
        lifecycle_submissions: Counter = "sim.lifecycle_submissions_total",
        scale_events: Counter = "sim.scale_events_total",
        upgrade_events: Counter = "sim.upgrade_events_total",
        defrag_passes: Counter = "sim.defrag_passes_total",
        defrag_migrations: Counter = "sim.defrag_migrations_total",
        placement_readies: Counter = "sim.placement_ready_total",
        rm_crashes: Counter = "sim.rm_crashes_total",
        rm_restarts: Counter = "sim.rm_restarts_total",
        rm_containers_lost: Counter = "sim.rm_containers_lost_total",
        rm_events_deferred: Counter = "sim.rm_events_deferred_total",
        clock: Gauge = "sim.clock_ticks",
    }
}

/// The simulator: an event queue around a [`MedeaScheduler`].
///
/// # Examples
///
/// ```
/// use medea_sim::SimDriver;
/// use medea_core::{LraAlgorithm, LraRequest, TaskJobRequest};
/// use medea_cluster::{ApplicationId, ClusterState, Resources, Tag};
///
/// let cluster = ClusterState::homogeneous(4, Resources::new(8192, 8), 2);
/// let mut sim = SimDriver::new(cluster, LraAlgorithm::NodeCandidates, 1_000);
/// sim.schedule(0, medea_sim::SimEvent::SubmitLra(LraRequest::uniform(
///     ApplicationId(1), 2, Resources::new(1024, 1), vec![Tag::new("svc")], vec![])));
/// sim.run_until(5_000);
/// assert_eq!(sim.metrics().deployments.len(), 1);
/// ```
pub struct SimDriver {
    medea: MedeaScheduler,
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    now: u64,
    seq: u64,
    /// Node heartbeat period in ticks (default 1000 = 1 s, YARN-like).
    pub heartbeat_interval: u64,
    metrics: SimMetrics,
    heartbeats_started: bool,
    /// Task runtime per queue (set by the latest `SubmitTasks` per queue).
    queue_durations: std::collections::HashMap<String, u64>,
    default_task_duration: u64,
    /// How LRA solves relate to the sim clock (default [`PipelineMode::Sync`]).
    pipeline: PipelineMode,
    /// Solve latency charged per propose/commit pair.
    solve_latency: crate::SolveLatencyModel,
    /// Proposals awaiting their [`SimEvent::LraPlacementReady`] (async),
    /// keyed by the driver-assigned solve handle. Sharded rounds put
    /// several solves in flight at once; a new round starts only when the
    /// map has drained (the scheduler enforces the same gate). An ordered
    /// map: iteration feeds the determinism audit, and a hash map would
    /// make drain/debug order depend on hasher state.
    inflight: std::collections::BTreeMap<u64, medea_core::InflightSolve>,
    next_solve_id: u64,
    /// In [`PipelineMode::Sync`], the time the simulated resource manager
    /// is blocked until by the last synchronous solve; events due earlier
    /// are handled at this time instead.
    busy_until: u64,
    /// RM failover: tick until which the resource manager is down. While
    /// the RM is down every event except [`SimEvent::RmRestart`] is
    /// deferred to this tick (heartbeats queue up exactly as they would
    /// against a dead RM endpoint).
    rm_down_until: u64,
    /// Seed for sampling container loss during an RM outage (xor'd with
    /// the crash tick, so each outage draws a distinct but reproducible
    /// sequence).
    pub rm_loss_seed: u64,
    /// Node ground truth captured at RM crash time, delivered to
    /// [`MedeaScheduler::restart`] as the nodes' re-registration.
    rm_reports: Option<Vec<NodeReport>>,
    /// Report of the most recent RM restart (test/bench introspection).
    last_restart: Option<RestartReport>,
    obs: SimObs,
}

impl SimDriver {
    /// Creates a simulator; `lra_interval` is the LRA scheduling interval
    /// in ticks (the paper uses 10 s).
    pub fn new(
        cluster: medea_cluster::ClusterState,
        algorithm: medea_core::LraAlgorithm,
        lra_interval: u64,
    ) -> Self {
        let medea = MedeaScheduler::new(cluster, algorithm, lra_interval);
        let mut sim = SimDriver {
            medea,
            queue: BinaryHeap::new(),
            now: 0,
            seq: 0,
            heartbeat_interval: 1_000,
            metrics: SimMetrics::default(),
            heartbeats_started: false,
            queue_durations: std::collections::HashMap::new(),
            default_task_duration: 1_000,
            pipeline: PipelineMode::default(),
            solve_latency: crate::SolveLatencyModel::instant(),
            inflight: std::collections::BTreeMap::new(),
            next_solve_id: 0,
            busy_until: 0,
            rm_down_until: 0,
            rm_loss_seed: 0x4D45444541, // "MEDEA" in ASCII
            rm_reports: None,
            last_restart: None,
            obs: SimObs::new(&MetricsRegistry::new()),
        };
        sim.schedule(0, SimEvent::SchedulerTick);
        sim
    }

    /// Wires a metrics registry into the simulator and the wrapped
    /// [`MedeaScheduler`] (which fans it out to the LRA scheduler's ILP
    /// path and the task scheduler), so one registry covers the
    /// `sim.*`, `core.*`, `task.*`, and `solver.*` series (until then
    /// each records into a private registry).
    pub fn set_metrics(&mut self, registry: Arc<MetricsRegistry>) {
        self.obs = SimObs::new(&registry);
        self.medea.set_metrics(registry);
    }

    /// Builder-style [`SimDriver::set_metrics`].
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.set_metrics(registry);
        self
    }

    /// Current simulation time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Selects the placement pipeline mode (default [`PipelineMode::Sync`]).
    pub fn set_pipeline(&mut self, mode: PipelineMode) {
        self.pipeline = mode;
    }

    /// Builder-style [`SimDriver::set_pipeline`].
    pub fn with_pipeline(mut self, mode: PipelineMode) -> Self {
        self.set_pipeline(mode);
        self
    }

    /// The active pipeline mode.
    pub fn pipeline(&self) -> PipelineMode {
        self.pipeline
    }

    /// Sets the solve latency model charged per propose/commit pair.
    pub fn set_solve_latency(&mut self, model: crate::SolveLatencyModel) {
        self.solve_latency = model;
    }

    /// Builder-style [`SimDriver::set_solve_latency`].
    pub fn with_solve_latency(mut self, model: crate::SolveLatencyModel) -> Self {
        self.set_solve_latency(model);
        self
    }

    /// Whether any LRA solve is currently in flight (async pipeline).
    pub fn solve_inflight(&self) -> bool {
        !self.inflight.is_empty()
    }

    /// Number of LRA solves currently in flight (a sharded round keeps
    /// several concurrent solves).
    pub fn inflight_solves(&self) -> usize {
        self.inflight.len()
    }

    /// Attaches an in-memory write-ahead journal to the scheduler (with
    /// the given periodic checkpoint cadence in ticks; 0 = only the
    /// initial checkpoint) and returns the backing storage so tests can
    /// inspect or corrupt it. [`SimEvent::RmCrash`] works without a
    /// journal too — the restart then reconciles the surviving in-memory
    /// state — but only a journaled run exercises the restore path.
    pub fn enable_journal(&mut self, checkpoint_interval: u64) -> MemoryStorage {
        let storage = MemoryStorage::new();
        self.medea
            .attach_journal(Wal::new(storage.clone()), checkpoint_interval)
            .expect("in-memory journal attach cannot fail");
        storage
    }

    /// Report of the most recent RM restart, if any.
    pub fn last_restart(&self) -> Option<&RestartReport> {
        self.last_restart.as_ref()
    }

    /// The scheduler under simulation.
    pub fn medea(&self) -> &MedeaScheduler {
        &self.medea
    }

    /// Mutable access to the scheduler (failure injection, configuration).
    pub fn medea_mut(&mut self) -> &mut MedeaScheduler {
        &mut self.medea
    }

    /// Collected measurements.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// Schedules an event at an absolute time (>= now).
    pub fn schedule(&mut self, time: u64, event: SimEvent) {
        let time = time.max(self.now);
        self.queue.push(Reverse(QueuedEvent {
            time,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// Starts periodic heartbeats for every node, staggered across the
    /// heartbeat interval (as real node managers are).
    pub fn start_heartbeats(&mut self) {
        if self.heartbeats_started {
            return;
        }
        self.heartbeats_started = true;
        let nodes: Vec<NodeId> = self.medea.state().node_ids().collect();
        let n = nodes.len().max(1) as u64;
        for (i, node) in nodes.into_iter().enumerate() {
            let offset = (i as u64 * self.heartbeat_interval) / n;
            self.schedule(self.now + offset, SimEvent::Heartbeat(node));
        }
    }

    /// Schedules every event of a chaos schedule (see
    /// [`crate::ChaosSchedule`]).
    pub fn inject_chaos(&mut self, schedule: &crate::ChaosSchedule) {
        for (t, e) in &schedule.events {
            self.schedule(*t, e.clone());
        }
    }

    /// Runs all events up to and including `end`, advancing time.
    ///
    /// In [`PipelineMode::Sync`], events due while a synchronous solve
    /// blocked the resource manager are handled at the time the solve
    /// completes (`busy_until`) — this is how a monolithic tick inflates
    /// task-scheduling latency. Time never moves backwards and can end
    /// past `end` if a solve straddles the boundary.
    pub fn run_until(&mut self, end: u64) {
        loop {
            match self.queue.peek() {
                Some(Reverse(head)) if head.time <= end => {}
                _ => break,
            }
            let Some(Reverse(ev)) = self.queue.pop() else {
                break;
            };
            self.now = ev.time.max(self.busy_until).max(self.now);
            self.handle(ev.event);
        }
        self.now = self.now.max(end);
    }

    /// Runs until `safety_limit`, then reports whether the run actually
    /// drained: `true` when no non-periodic event remains queued and no
    /// LRA solve is in flight; `false` when the safety limit truncated
    /// outstanding work (periodic heartbeats and scheduler ticks
    /// reschedule themselves forever and do not count).
    #[must_use = "a false return means the run was truncated at the safety limit"]
    pub fn run_to_completion(&mut self, safety_limit: u64) -> bool {
        self.run_until(safety_limit);
        self.inflight.is_empty()
            && !self.queue.iter().any(|Reverse(q)| {
                !matches!(q.event, SimEvent::Heartbeat(_) | SimEvent::SchedulerTick)
            })
    }

    fn handle(&mut self, event: SimEvent) {
        // RM outage: the resource manager's endpoint is dead, so every
        // event that would reach it is redelivered once the restart
        // completes — before observability counting, because a deferred
        // event has not happened yet. RmRestart itself must get through.
        if self.now < self.rm_down_until && !matches!(event, SimEvent::RmRestart) {
            self.obs.rm_events_deferred.inc();
            let at = self.rm_down_until;
            self.schedule(at, event);
            return;
        }
        let obs = &self.obs;
        obs.events.inc();
        obs.clock.set(self.now as i64);
        let kind = match &event {
            SimEvent::SubmitLra(_) => &obs.lra_submissions,
            SimEvent::SubmitManagedLra { .. } => &obs.lifecycle_submissions,
            SimEvent::ScaleLra { .. } => &obs.scale_events,
            SimEvent::UpgradeLra { .. } => &obs.upgrade_events,
            SimEvent::DefragPass => &obs.defrag_passes,
            SimEvent::SubmitTasks { .. } => &obs.task_submissions,
            SimEvent::Heartbeat(_) => &obs.heartbeats,
            SimEvent::TaskComplete { .. } => &obs.task_completions,
            SimEvent::LraComplete(_) => &obs.lra_completions,
            SimEvent::NodeFail(_) => &obs.node_failures,
            SimEvent::NodeRecover(_) => &obs.chaos_node_recoveries,
            SimEvent::NodeCrash(_) => &obs.chaos_node_crashes,
            SimEvent::SolverStall { .. } => &obs.chaos_solver_stalls,
            SimEvent::SchedulerTick => &obs.scheduler_ticks,
            SimEvent::LraPlacementReady { .. } => &obs.placement_readies,
            SimEvent::RmCrash { .. } => &obs.rm_crashes,
            SimEvent::RmRestart => &obs.rm_restarts,
        };
        kind.inc();
        match event {
            SimEvent::SubmitLra(req) => {
                // Validation failures surface as missing deployments, which
                // the experiment harness asserts on.
                let _ = self.medea.submit_lra(req, self.now);
            }
            SimEvent::SubmitManagedLra {
                app,
                template,
                constraints,
                spec,
            } => {
                let _ = self
                    .medea
                    .submit_managed_lra(app, template, constraints, spec);
            }
            SimEvent::ScaleLra { app, replicas } => {
                // `false` (the app is unknown and nothing is deployed to
                // adopt) is a valid race in churn workloads: a scale
                // event can land after its app retired.
                let _ = self.medea.set_replicas(app, replicas);
            }
            SimEvent::UpgradeLra { app, version } => {
                let _ = self.medea.set_version(app, version);
            }
            SimEvent::DefragPass => {
                let moves = self.medea.defragment(self.now);
                self.obs.defrag_migrations.add(moves.len() as u64);
            }
            SimEvent::SubmitTasks { job, duration } => {
                let queue = job.queue.clone();
                if self.medea.submit_tasks(job, self.now).is_ok() {
                    // Task runtimes are uniform per (queue, latest job); the
                    // heartbeat handler uses this to schedule completions.
                    self.queue_durations.insert(queue, duration);
                }
            }
            SimEvent::Heartbeat(node) => {
                let allocs = self.medea.heartbeat(node, self.now);
                for a in allocs {
                    self.metrics.task_latencies.push(a.latency);
                    let queue = "default".to_string();
                    let duration = self.duration_for_queue(&queue);
                    self.schedule(
                        self.now + duration,
                        SimEvent::TaskComplete {
                            queue,
                            container: a.container,
                        },
                    );
                }
                if self.heartbeats_started {
                    self.schedule(
                        self.now + self.heartbeat_interval,
                        SimEvent::Heartbeat(node),
                    );
                }
            }
            SimEvent::TaskComplete { queue, container } => {
                self.medea.complete_task(&queue, container);
            }
            SimEvent::LraComplete(app) => {
                self.medea.complete_lra(app);
            }
            SimEvent::NodeFail(node) => {
                let _ = self.medea.state_mut().set_available(node, false);
            }
            SimEvent::NodeRecover(node) => {
                // Also clears fault-domain marks if the node crashed.
                self.medea.node_recovered(node);
            }
            SimEvent::NodeCrash(node) => {
                let report = self.medea.node_lost(node, self.now);
                let killed = report.lra_containers_lost + report.task_containers_lost;
                self.obs.chaos_containers_killed.add(killed as u64);
            }
            SimEvent::SolverStall { cycles } => {
                self.medea.inject_solver_stall(cycles);
            }
            SimEvent::SchedulerTick => {
                match self.pipeline {
                    PipelineMode::Sync => {
                        // The monolithic tick blocks the RM for the whole
                        // round: solves run back-to-back (one solver
                        // thread), each commits when its latency elapses,
                        // and every event due in between waits.
                        let mut at = self.now;
                        for solve in self.medea.propose_all(self.now) {
                            at += self
                                .solve_latency
                                .latency_ticks(solve.lras(), solve.containers());
                            self.busy_until = self.busy_until.max(at);
                            let deployed = self.medea.commit(at, solve);
                            self.record_deployments(deployed);
                        }
                    }
                    PipelineMode::Async => {
                        // At most one round in flight; a tick that fires
                        // mid-round is skipped (propose also guards this)
                        // and the queue waits for the next interval. A
                        // sharded round yields several solves, each with
                        // its own latency and ready event.
                        if self.inflight.is_empty() {
                            for solve in self.medea.propose_all(self.now) {
                                let lat = self
                                    .solve_latency
                                    .latency_ticks(solve.lras(), solve.containers());
                                let id = self.next_solve_id;
                                self.next_solve_id += 1;
                                self.inflight.insert(id, solve);
                                self.schedule(
                                    self.now + lat,
                                    SimEvent::LraPlacementReady { solve: id },
                                );
                            }
                        }
                    }
                }
                let interval = self.medea.interval.max(1);
                self.schedule(self.now + interval, SimEvent::SchedulerTick);
            }
            SimEvent::LraPlacementReady { solve } => {
                if let Some(solve) = self.inflight.remove(&solve) {
                    let deployed = self.medea.commit(self.now, solve);
                    self.record_deployments(deployed);
                }
            }
            SimEvent::RmCrash {
                outage_ticks,
                loss_rate,
            } => {
                // Freeze node ground truth at the instant of the crash.
                // Nothing mutates cluster state during the outage (every
                // event is deferred), so this is also what nodes report
                // when they re-register — minus the containers that die
                // while the RM is down, sampled here with a seed derived
                // from the crash tick for reproducibility.
                let mut rng = StdRng::seed_from_u64(self.rm_loss_seed ^ self.now);
                let mut lost = 0u64;
                let state = self.medea.state();
                let mut reports = Vec::new();
                for node in state.node_ids() {
                    let mut containers: Vec<ContainerId> = state
                        .containers_on(node)
                        .map(|c| c.to_vec())
                        .unwrap_or_default();
                    if loss_rate > 0.0 {
                        containers.retain(|_| {
                            if rng.random_range(0.0..1.0) < loss_rate {
                                lost += 1;
                                false
                            } else {
                                true
                            }
                        });
                    }
                    reports.push(NodeReport {
                        node,
                        available: state.is_available(node),
                        containers,
                    });
                }
                self.rm_reports = Some(reports);
                // In-flight solves die with the RM process; their stale
                // LraPlacementReady events no-op against the empty map
                // (and the scheduler refuses stale solve ids anyway).
                self.inflight.clear();
                self.rm_down_until = self.now + outage_ticks.max(1);
                self.obs.rm_containers_lost.add(lost);
                let at = self.rm_down_until;
                self.schedule(at, SimEvent::RmRestart);
            }
            SimEvent::RmRestart => {
                self.rm_down_until = 0;
                // A restart with no preceding crash (manually scheduled)
                // re-registers nodes with exactly what the scheduler
                // believes — zero divergence — rather than treating the
                // whole cluster as silent.
                let reports = self.rm_reports.take().unwrap_or_else(|| {
                    let state = self.medea.state();
                    state
                        .node_ids()
                        .map(|node| NodeReport {
                            node,
                            available: state.is_available(node),
                            containers: state
                                .containers_on(node)
                                .map(|c| c.to_vec())
                                .unwrap_or_default(),
                        })
                        .collect()
                });
                let report = self
                    .medea
                    .restart(self.now, &reports)
                    .expect("journal restore failed at RM restart");
                assert!(
                    report.audit_error.is_none(),
                    "post-restart invariant audit failed: {:?}",
                    report.audit_error
                );
                self.last_restart = Some(report);
            }
        }
    }

    fn record_deployments(&mut self, deployed: Vec<LraDeployment>) {
        for d in deployed {
            self.metrics.lra_latencies.push(d.latency_ticks);
            self.metrics.lra_algorithm_times.push(d.algorithm_time);
            self.metrics.deployments.push(d);
        }
    }

    fn duration_for_queue(&self, queue: &str) -> u64 {
        self.queue_durations
            .get(queue)
            .copied()
            .unwrap_or(self.default_task_duration)
    }

    /// Sets the default task duration used when no job set one.
    pub fn set_default_task_duration(&mut self, ticks: u64) {
        self.default_task_duration = ticks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_cluster::{ClusterState, Resources, Tag};
    use medea_core::LraAlgorithm;

    fn sim() -> SimDriver {
        let cluster = ClusterState::homogeneous(4, Resources::new(8192, 8), 2);
        SimDriver::new(cluster, LraAlgorithm::Serial, 1_000)
    }

    #[test]
    fn lra_deploys_at_interval() {
        let mut s = sim();
        let req = LraRequest::uniform(
            ApplicationId(1),
            2,
            Resources::new(1024, 1),
            vec![Tag::new("a")],
            vec![],
        );
        s.schedule(100, SimEvent::SubmitLra(req));
        s.run_until(3_000);
        assert_eq!(s.metrics().deployments.len(), 1);
        // Submitted at 100, deployed at the next tick (1000): latency 900.
        assert_eq!(s.metrics().lra_latencies[0], 900);
    }

    #[test]
    fn tasks_allocate_on_heartbeats_and_complete() {
        let mut s = sim();
        s.set_default_task_duration(500);
        s.start_heartbeats();
        s.schedule(
            0,
            SimEvent::SubmitTasks {
                job: TaskJobRequest::new(ApplicationId(2), Resources::new(512, 1), 4),
                duration: 500,
            },
        );
        s.run_until(10_000);
        assert_eq!(s.metrics().task_latencies.len(), 4);
        // All tasks completed and released.
        assert_eq!(s.medea().state().num_containers(), 0);
    }

    #[test]
    fn lra_completion_releases() {
        let mut s = sim();
        let req = LraRequest::uniform(
            ApplicationId(3),
            2,
            Resources::new(1024, 1),
            vec![Tag::new("a")],
            vec![],
        );
        s.schedule(0, SimEvent::SubmitLra(req));
        s.schedule(5_000, SimEvent::LraComplete(ApplicationId(3)));
        s.run_until(10_000);
        assert_eq!(s.medea().state().num_containers(), 0);
    }

    #[test]
    fn node_failure_blocks_and_recovery_restores_allocation() {
        let cluster = ClusterState::homogeneous(1, Resources::new(8192, 8), 1);
        let mut s = SimDriver::new(cluster, LraAlgorithm::Serial, 1_000);
        s.start_heartbeats();
        s.schedule(0, SimEvent::NodeFail(medea_cluster::NodeId(0)));
        s.schedule(
            100,
            SimEvent::SubmitTasks {
                job: TaskJobRequest::new(ApplicationId(1), Resources::new(512, 1), 1),
                duration: 60_000,
            },
        );
        s.run_until(3_000);
        assert!(
            s.metrics().task_latencies.is_empty(),
            "failed node allocates nothing"
        );
        s.schedule(3_000, SimEvent::NodeRecover(medea_cluster::NodeId(0)));
        s.run_until(6_000);
        assert_eq!(s.metrics().task_latencies.len(), 1);
    }

    #[test]
    fn node_crash_releases_and_recovery_pipeline_replaces() {
        let mut s = sim();
        s.schedule(
            0,
            SimEvent::SubmitLra(LraRequest::uniform(
                ApplicationId(1),
                3,
                Resources::new(1024, 1),
                vec![Tag::new("svc")],
                vec![],
            )),
        );
        s.run_until(2_000);
        assert_eq!(s.metrics().deployments.len(), 1);
        let victim = s.metrics().deployments[0].nodes[0];
        let on_victim = s.metrics().deployments[0]
            .nodes
            .iter()
            .filter(|&&n| n == victim)
            .count();
        s.schedule(2_500, SimEvent::NodeCrash(victim));
        s.run_until(20_000);
        let r = s.medea().recovery_report();
        assert_eq!(r.containers_lost, on_victim);
        assert_eq!(r.containers_replaced, on_victim);
        assert!(r.accounted());
        // The replacement deployment is flagged as recovered.
        assert!(s.metrics().deployments.iter().any(|d| d.recovered));
        // The crashed node hosts nothing until it recovers.
        assert!(s.medea().state().containers_on(victim).unwrap().is_empty());
        s.schedule(20_500, SimEvent::NodeRecover(victim));
        s.run_until(21_000);
        assert!(s.medea().state().is_available(victim));
    }

    #[test]
    fn solver_stall_event_reaches_breaker() {
        let cluster = ClusterState::homogeneous(4, Resources::new(8192, 8), 2);
        let mut s = SimDriver::new(cluster, LraAlgorithm::Ilp, 1_000);
        s.schedule(0, SimEvent::SolverStall { cycles: 10 });
        for i in 0..4u64 {
            s.schedule(
                i * 1_000,
                SimEvent::SubmitLra(LraRequest::uniform(
                    ApplicationId(i + 1),
                    1,
                    Resources::new(512, 1),
                    vec![Tag::new("x")],
                    vec![],
                )),
            );
        }
        s.run_until(5_000);
        // Default threshold is 3 consecutive failures: the breaker is
        // open (or probing) by now, yet every LRA still deployed via the
        // degraded heuristic — no placement was lost to the stall.
        assert_ne!(s.medea().breaker_state(), medea_core::BreakerState::Closed);
        assert_eq!(s.metrics().deployments.len(), 4);
    }

    #[test]
    fn metrics_cover_sim_core_and_task_series() {
        let registry = MetricsRegistry::new();
        let mut s = sim().with_metrics(Arc::clone(&registry));
        s.start_heartbeats();
        s.schedule(
            0,
            SimEvent::SubmitLra(LraRequest::uniform(
                ApplicationId(1),
                2,
                Resources::new(1024, 1),
                vec![Tag::new("a")],
                vec![],
            )),
        );
        s.schedule(
            0,
            SimEvent::SubmitTasks {
                job: TaskJobRequest::new(ApplicationId(2), Resources::new(512, 1), 4),
                duration: 500,
            },
        );
        s.run_until(5_000);
        let snap = registry.snapshot();
        assert!(snap.counter("sim.events_total").unwrap() > 0);
        assert!(snap.counter("sim.heartbeats_total").unwrap() > 0);
        assert!(snap.counter("sim.scheduler_ticks_total").unwrap() > 0);
        assert!(snap.counter("core.cycles_total").unwrap() > 0);
        assert_eq!(snap.counter("core.lras_deployed_total"), Some(1));
        assert!(snap.counter("task.heartbeats_total").unwrap() > 0);
        assert_eq!(snap.counter("task.allocations_total"), Some(4));
        assert_eq!(snap.gauge("sim.clock_ticks"), Some(5_000));
        // The driver's own series are the declared ones, no more.
        let sim_series: Vec<&str> = snap
            .series
            .iter()
            .map(|s| s.name.as_str())
            .filter(|n| n.starts_with("sim."))
            .collect();
        let mut declared = SimObs::NAMES.to_vec();
        declared.sort_unstable();
        assert_eq!(sim_series, declared);
    }

    #[test]
    fn time_advances_monotonically() {
        let mut s = sim();
        s.run_until(1_234);
        assert_eq!(s.now(), 1_234);
        s.run_until(2_000);
        assert_eq!(s.now(), 2_000);
    }
}
