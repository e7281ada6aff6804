//! The Medea scheduler: two-scheduler integration (§3, Fig. 4).
//!
//! LRAs are queued and placed in batches by the [`LraScheduler`] at
//! regular scheduling intervals; placement *decisions* are then committed
//! through the allocation path shared with the [`TaskScheduler`], which is
//! how Medea avoids conflicting placements: only one component performs
//! actual allocations. If the cluster state changed between placement and
//! commit (task containers grabbed the resources), the commit fails and
//! the LRA is **resubmitted** to the next interval — the §5.4 conflict
//! policy.
//!
//! On top of the two schedulers sits the recovery pipeline (§2.3, §7.3):
//! [`MedeaScheduler::node_lost`] releases every allocation on a crashed
//! node, repairs task-queue accounting, and re-enqueues the lost LRA
//! containers as recovery requests that carry a soft anti-affinity to the
//! failing fault domain. Recovery retries use exponential backoff with a
//! bounded attempt budget, and a [`CircuitBreaker`] demotes service from
//! the exact ILP to the node-candidates heuristic after repeated solver
//! deadline/stall outcomes.
//!
//! The scheduler is split by **who owns which state**: this file holds
//! the composition, the LRA queue and node-loss handling; `round` the
//! one round path and the in-flight table; `ledger` the recovery
//! accounting; `reconcile` the specs; `durability` the journal handle.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use medea_cluster::{
    Allocation, ApplicationId, ClusterState, ContainerId, ContainerRequest, ExecutionKind,
    NodeGroupId, NodeId, ShardConfig, Tag,
};
use medea_constraints::{ConstraintError, ConstraintManager, PlacementConstraint, TagExpr};
use medea_obs::MetricsRegistry;

use crate::durability::Journal;
pub use crate::durability::{NodeReport, RestartReport};
use crate::ledger::RecoveryLedger;
use crate::lifecycle::{LifecycleStats, ManagedApp};
use crate::lra::{LraAlgorithm, LraScheduler};
use crate::recovery::{fault_domain_tag, CircuitBreaker, NodeLossReport, RecoveryConfig};
use crate::recovery::{BreakerState, RecoveryReport, FAULT_DOMAIN_TAG};
use crate::request::{LraRequest, TaskJobRequest};
pub use crate::round::InflightSolve;
use crate::round::{InflightTable, Placer};
use crate::task_scheduler::{TaskAllocation, TaskScheduler, TaskSchedulerError};

medea_obs::metric_handles! {
    /// Pre-resolved `core.*` metric handles: looked up once against the
    /// scheduler's registry, then updated lock-free in the scheduling
    /// cycle.
    pub(super) struct CoreMetrics {
        pub(super) queue_depth: Gauge = "core.queue_depth",
        pub(super) cycle_time_us: Histogram = "core.cycle_time_us",
        pub(super) place_us: Histogram = "core.place_us",
        pub(super) cycles: Counter = "core.cycles_total",
        pub(super) solve_inflight: Gauge = "core.solve_inflight",
        pub(super) placement_staleness_ticks: Histogram = "core.placement_staleness_ticks",
        pub(super) lras_deployed: Counter = "core.lras_deployed_total",
        pub(super) lras_unplaced: Counter = "core.lras_unplaced_total",
        pub(super) commit_conflicts: Counter = "core.commit_conflicts_total",
        pub(super) lras_dropped: Counter = "core.lras_dropped_total",
        pub(super) recovery_lost: Counter = "core.recovery_containers_lost_total",
        pub(super) recovery_replaced: Counter = "core.recovery_replaced_total",
        pub(super) recovery_exhausted: Counter = "core.recovery_retry_exhausted_total",
        pub(super) recovery_cancelled: Counter = "core.recovery_cancelled_total",
        pub(super) recovery_latency_ticks: Histogram = "core.recovery_latency_ticks",
        pub(super) breaker_opened: Counter = "core.breaker_opened_total",
        pub(super) breaker_closed: Counter = "core.breaker_closed_total",
        pub(super) breaker_state: Gauge = "core.breaker_state",
        pub(super) placer_mode: Gauge = "core.placer_mode",
        pub(super) solver_stalls: Counter = "core.solver_stalls_total",
        pub(super) shards_active: Gauge = "core.shards_active",
        pub(super) shard_resubmissions: Counter = "core.shard_resubmissions_total",
        pub(super) shard_solve_us: Histogram = "core.shard_solve_us",
        pub(super) index_update_ops: Gauge = "cluster.index_update_ops",
        pub(super) index_distinct_tags: Gauge = "cluster.index_distinct_tags",
        pub(super) state_clones: Counter = "cluster.state_clones_total",
        pub(super) restarts: Counter = "core.restart_total",
        pub(super) restart_restore_us: Histogram = "core.restart_restore_us",
        pub(super) restart_replayed_ops: Histogram = "core.restart_replayed_ops",
        pub(super) restart_phantom_released: Counter = "core.restart_phantom_released_total",
        pub(super) restart_inflight_requeued: Counter = "core.restart_inflight_requeued_total",
        pub(super) audit_runs: Counter = "core.audit_runs_total",
        pub(super) audit_failures: Counter = "core.audit_failures_total",
        pub(super) journal_appends: Gauge = "journal.appends",
        pub(super) journal_bytes: Gauge = "journal.bytes",
        pub(super) journal_checkpoints: Gauge = "journal.checkpoints",
        pub(super) lifecycle_reconciles: Counter = "core.lifecycle_reconciles_total",
        pub(super) lifecycle_scale_ups: Counter = "core.lifecycle_scale_ups_total",
        pub(super) lifecycle_scale_downs: Counter = "core.lifecycle_scale_downs_total",
        pub(super) lifecycle_upgraded: Counter = "core.lifecycle_upgraded_total",
        pub(super) migrations: Counter = "core.migrations_total",
        pub(super) disruption_budget_denials: Counter = "core.disruption_budget_denials_total",
    }
}

/// A pending LRA with submission metadata.
#[derive(Debug, Clone)]
pub(super) struct PendingLra {
    pub(super) request: LraRequest,
    pub(super) submitted_at: u64,
    pub(super) attempts: u32,
    /// Earliest tick this entry may be scheduled (recovery backoff).
    pub(super) not_before: u64,
    /// Whether this request re-places containers lost to a node crash.
    pub(super) is_recovery: bool,
    /// Whether this entry is a reconciler-emitted delta (scale-up or
    /// upgrade replacement). Lifecycle entries that exhaust their
    /// attempt budget evaporate without dropping the app — the app is
    /// still deployed and managed; the reconciler re-emits the delta
    /// while the spec stays unmet.
    pub(super) is_lifecycle: bool,
}

impl PendingLra {
    /// A fresh client submission: no attempts consumed, schedulable now.
    pub(super) fn new(request: LraRequest, now: u64) -> Self {
        PendingLra {
            request,
            submitted_at: now,
            attempts: 0,
            not_before: now,
            is_recovery: false,
            is_lifecycle: false,
        }
    }
}

/// What `MedeaScheduler::retract_undeployed` removed from the pending
/// queue.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct RetractReport {
    /// Whole queued entries removed.
    pub(super) entries_removed: usize,
    /// Containers removed (partial retraction shrinks an entry without
    /// removing it).
    pub(super) containers_removed: usize,
}

/// Read-only view of one undeployed LRA (queued or inside an in-flight
/// solve), returned by [`MedeaScheduler::queued_lras`] for status
/// queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedLra {
    /// The application.
    pub app: ApplicationId,
    /// Containers the request asks for.
    pub containers: usize,
    /// Placement attempts consumed so far.
    pub attempts: u32,
    /// Tick the request was (re-)submitted.
    pub submitted_at: u64,
    /// Whether this re-places containers lost to a crash.
    pub is_recovery: bool,
    /// Whether the entry is inside a proposed-but-uncommitted solve.
    pub in_flight: bool,
}

/// What [`MedeaScheduler::cancel_lra`] found and removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CancelReport {
    /// Deployed containers released.
    pub released_containers: usize,
    /// Queued (pending / backed-off) entries removed.
    pub pending_removed: usize,
    /// Entries inside in-flight solves marked cancelled (skipped at
    /// commit).
    pub inflight_cancelled: usize,
}

/// Result of one committed LRA placement.
#[derive(Debug, Clone)]
pub struct LraDeployment {
    /// The application deployed.
    pub app: ApplicationId,
    /// Allocated containers (same order as the request's containers).
    pub containers: Vec<ContainerId>,
    /// Nodes per container.
    pub nodes: Vec<NodeId>,
    /// Scheduling latency in ticks (commit time − submission time).
    pub latency_ticks: u64,
    /// Wall-clock time the placement algorithm spent on the batch that
    /// contained this LRA.
    pub algorithm_time: std::time::Duration,
    /// Whether these containers re-place ones lost to a node crash.
    pub recovered: bool,
}

/// Counters exposed for the evaluation harness.
#[derive(Debug, Clone, Default)]
pub struct MedeaStats {
    /// LRAs successfully deployed.
    pub lras_deployed: usize,
    /// LRA placement attempts that found no placement (resubmitted).
    pub lras_unplaced: usize,
    /// Commit conflicts (placement invalidated by concurrent allocations).
    pub commit_conflicts: usize,
    /// LRAs dropped after exhausting resubmission attempts.
    pub lras_dropped: usize,
    /// Scheduling-interval invocations.
    pub cycles: usize,
    /// Commit conflicts of sharded rounds (the subset of
    /// `commit_conflicts` attributable to cross-shard reconciliation).
    pub shard_resubmissions: usize,
}

/// The Medea resource-manager extension: LRA queue + two schedulers over
/// one cluster state.
///
/// # Examples
///
/// ```
/// use medea_core::{MedeaScheduler, LraAlgorithm, LraRequest};
/// use medea_cluster::{ApplicationId, ClusterState, Resources, Tag};
///
/// let cluster = ClusterState::homogeneous(4, Resources::new(8192, 8), 2);
/// let mut medea = MedeaScheduler::new(cluster, LraAlgorithm::Ilp, 10);
/// let req = LraRequest::uniform(
///     ApplicationId(1), 2, Resources::new(1024, 1), vec![Tag::new("svc")], vec![]);
/// medea.submit_lra(req, 0).unwrap();
/// let deployed = medea.tick(10); // scheduling interval reached
/// assert_eq!(deployed.len(), 1);
/// ```
pub struct MedeaScheduler {
    pub(super) state: ClusterState,
    pub(super) constraint_manager: ConstraintManager,
    pub(super) task_scheduler: TaskScheduler,
    /// The LRA queue: submissions, resubmissions, recovery requests and
    /// reconciler deltas waiting for a scheduling round.
    pub(super) pending: VecDeque<PendingLra>,
    /// Scheduling interval in ticks (§5.1; 10 s in the evaluation).
    pub interval: u64,
    pub(super) next_run: u64,
    /// Maximum resubmission attempts before an LRA is dropped.
    pub max_attempts: u32,
    /// Recovery retry/backoff policy and breaker thresholds.
    pub recovery: RecoveryConfig,
    /// How a batch gets solved: the LRA scheduler, the exact arm's
    /// circuit breaker, and the sharding configuration with its
    /// per-shard caches.
    pub(super) placer: Placer,
    /// Crashed node → fault-domain members marked with the
    /// [`FAULT_DOMAIN_TAG`] on its behalf (unmarked on recovery).
    fault_marks: HashMap<NodeId, Vec<NodeId>>,
    /// Cumulative recovery accounting; pending is counted, not stored.
    pub(super) ledger: RecoveryLedger,
    /// The only in-flight state: every proposed-but-uncommitted solve's
    /// entries. New rounds are gated on it being empty.
    pub(super) inflight: InflightTable,
    /// Durability: the write-ahead journal shared with the cluster state
    /// and its checkpoint cadence (`None` until
    /// [`MedeaScheduler::attach_journal`]).
    pub(super) journal: Option<Journal>,
    /// Apps dropped after exhausting resubmission attempts since the last
    /// [`MedeaScheduler::take_dropped`] — the serving layer reads this to
    /// answer status queries (`stats.lras_dropped` only counts).
    pub(super) dropped_log: Vec<ApplicationId>,
    /// Desired-state specs of lifecycle-managed applications. The
    /// reconciler diffs these against observed state each round and
    /// emits placement deltas (see [`MedeaScheduler::submit_managed_lra`]).
    pub(super) specs: BTreeMap<ApplicationId, ManagedApp>,
    /// Cumulative reconciler activity counters.
    pub(super) lifecycle_stats: LifecycleStats,
    pub(super) stats: MedeaStats,
    pub(super) metrics: CoreMetrics,
}

impl MedeaScheduler {
    /// Creates a scheduler over the given cluster with a single task queue.
    pub fn new(state: ClusterState, algorithm: LraAlgorithm, interval: u64) -> Self {
        let recovery = RecoveryConfig::default();
        MedeaScheduler {
            state,
            constraint_manager: ConstraintManager::new(),
            task_scheduler: TaskScheduler::single_queue(),
            pending: VecDeque::new(),
            interval,
            next_run: 0,
            max_attempts: 5,
            recovery,
            placer: Placer::new(LraScheduler::new(algorithm), &recovery),
            fault_marks: HashMap::new(),
            ledger: RecoveryLedger::default(),
            inflight: InflightTable::default(),
            journal: None,
            dropped_log: Vec::new(),
            specs: BTreeMap::new(),
            lifecycle_stats: LifecycleStats::default(),
            stats: MedeaStats::default(),
            metrics: CoreMetrics::new(&MetricsRegistry::new()),
        }
    }

    /// Replaces the task scheduler (custom queues).
    pub fn with_task_scheduler(mut self, ts: TaskScheduler) -> Self {
        self.task_scheduler = ts;
        self
    }

    /// Enables (or reconfigures) sharded solving: each round partitions
    /// the cluster along rack/service-unit boundaries and runs one
    /// restricted solve per shard (see [`MedeaScheduler::propose_all`]).
    /// Builder form of [`MedeaScheduler::set_sharding`].
    pub fn with_sharding(mut self, config: ShardConfig) -> Self {
        self.set_sharding(config);
        self
    }

    /// Enables (or reconfigures) sharded solving (see
    /// [`MedeaScheduler::with_sharding`]).
    pub fn set_sharding(&mut self, config: ShardConfig) {
        self.placer.shard = config;
    }

    /// Replaces the recovery policy (and resets the circuit breaker to
    /// the new thresholds).
    pub fn with_recovery(mut self, config: RecoveryConfig) -> Self {
        self.recovery = config;
        self.placer.breaker =
            CircuitBreaker::new(config.breaker_failure_threshold, config.breaker_open_cycles);
        self
    }

    /// Points every layer this scheduler drives at `registry`: the
    /// scheduling cycle (`core.*`), the placer arms (`solver.*`,
    /// `core.prepare_*`, `core.ilp_*`, `core.relax_*`), and the task
    /// scheduler (`task.*`).
    /// Until then they record into a private registry nobody reads.
    /// Builder form of [`MedeaScheduler::set_metrics`].
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.set_metrics(registry);
        self
    }

    /// Attaches a metrics registry (see [`MedeaScheduler::with_metrics`]).
    pub fn set_metrics(&mut self, registry: Arc<MetricsRegistry>) {
        self.metrics = CoreMetrics::new(&registry);
        self.placer.lra.set_metrics(&registry);
        self.task_scheduler.set_metrics(&registry);
    }

    /// Access to the live cluster state.
    pub fn state(&self) -> &ClusterState {
        &self.state
    }

    /// Mutable access to the live cluster state (failure injection).
    pub fn state_mut(&mut self) -> &mut ClusterState {
        &mut self.state
    }

    /// Access to the constraint manager.
    pub fn constraint_manager(&self) -> &ConstraintManager {
        &self.constraint_manager
    }

    /// Access to the LRA scheduler configuration.
    pub fn lra_scheduler_mut(&mut self) -> &mut LraScheduler {
        &mut self.placer.lra
    }

    /// Scheduling statistics so far.
    pub fn stats(&self) -> &MedeaStats {
        &self.stats
    }

    /// Number of LRAs waiting for the next scheduling interval.
    pub fn pending_lras(&self) -> usize {
        self.pending.len()
    }

    /// The scheduling interval in ticks (the batch cadence of `tick`).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Every LRA the scheduler currently holds but has not deployed:
    /// queued entries plus entries inside in-flight solves (proposed,
    /// not yet committed). Read-only view for status/serving layers.
    pub fn queued_lras(&self) -> Vec<QueuedLra> {
        let view = |p: &PendingLra, in_flight: bool| QueuedLra {
            app: p.request.app,
            containers: p.request.num_containers(),
            attempts: p.attempts,
            submitted_at: p.submitted_at,
            is_recovery: p.is_recovery,
            in_flight,
        };
        let queued = self.pending.iter().map(|p| view(p, false));
        queued
            .chain(self.inflight.live().map(|p| view(p, true)))
            .collect()
    }

    /// Every undeployed entry the scheduler holds: the queue, then the
    /// live (not cancelled) entries of in-flight solves.
    pub(super) fn undeployed(&self) -> impl Iterator<Item = &PendingLra> {
        self.pending.iter().chain(self.inflight.live())
    }

    /// Drains the log of apps dropped after exhausting their attempt
    /// budget since the last call (see `MedeaStats::lras_dropped` for
    /// the cumulative count).
    pub fn take_dropped(&mut self) -> Vec<ApplicationId> {
        std::mem::take(&mut self.dropped_log)
    }

    /// The apps [`MedeaScheduler::take_dropped`] would drain now, oldest
    /// drop first, left in place.
    pub fn dropped_apps(&self) -> &[ApplicationId] {
        &self.dropped_log
    }

    /// Runs scheduling cycles until the LRA queue and in-flight solves
    /// are fully drained (every entry deployed, dropped, or recorded
    /// unplaceable) or `max_cycles` cycles elapse — the bounded-shutdown
    /// primitive behind the server's graceful drain. Advances simulated
    /// time past recovery backoffs so deferred retries cannot stall the
    /// drain. Returns the deployments made, whether the drain completed,
    /// and the tick after the last cycle (the caller's next `now`).
    pub fn run_to_drain(&mut self, start: u64, max_cycles: u64) -> (Vec<LraDeployment>, bool, u64) {
        let mut now = start;
        let mut deployed = Vec::new();
        let drained = |m: &Self| m.pending.is_empty() && m.inflight.is_empty();
        for _ in 0..max_cycles {
            if drained(self) {
                break;
            }
            // Jump over scheduling-interval and backoff gates: the drain
            // wants pressure, not cadence fidelity.
            now = now.max(self.next_run);
            if let Some(nb) = self.pending.iter().map(|p| p.not_before).min() {
                now = now.max(nb);
            }
            deployed.extend(self.tick(now));
            now = now.saturating_add(self.interval.max(1));
        }
        (deployed, drained(self), now)
    }

    /// Submits an LRA: validates and registers its constraints with the
    /// constraint manager, then queues it for the next interval (life
    /// cycle steps 1–2 of Fig. 6).
    pub fn submit_lra(&mut self, request: LraRequest, now: u64) -> Result<(), ConstraintError> {
        self.constraint_manager.register_app(
            request.app,
            request.constraints.clone(),
            self.state.groups(),
        )?;
        self.pending.push_back(PendingLra::new(request, now));
        Ok(())
    }

    /// Submits a task-based job straight to the task scheduler (the
    /// two-scheduler routing: no constraints, no LRA queue).
    pub fn submit_tasks(
        &mut self,
        job: TaskJobRequest,
        now: u64,
    ) -> Result<(), TaskSchedulerError> {
        self.task_scheduler.submit(job, now)
    }

    /// Node heartbeat: task-container allocation (R4 path).
    pub fn heartbeat(&mut self, node: NodeId, now: u64) -> Vec<TaskAllocation> {
        self.task_scheduler.on_heartbeat(&mut self.state, node, now)
    }

    /// Completes a task container.
    pub fn complete_task(&mut self, queue: &str, container: ContainerId) {
        let _ = self
            .task_scheduler
            .complete(&mut self.state, queue, container);
    }

    /// Completes (tears down) an entire LRA, releasing containers and
    /// removing its constraints. Equivalent to
    /// [`MedeaScheduler::cancel_lra`]: an app the scheduler still holds
    /// undeployed (queued, backed off, or inside an in-flight solve) is
    /// purged everywhere, so completion after teardown can never be
    /// followed by a placement.
    pub fn complete_lra(&mut self, app: ApplicationId) {
        self.cancel_lra(app);
    }

    /// Cancels an LRA wherever it currently is:
    ///
    /// - **Deployed containers** are released.
    /// - **Queued entries** (pending or backed off) are removed without
    ///   consuming an attempt.
    /// - **Entries inside in-flight solves** are marked cancelled on the
    ///   in-flight table: [`MedeaScheduler::commit`] skips them — no
    ///   deployment, no resubmission — and [`MedeaScheduler::restart`]
    ///   drops instead of requeueing them.
    /// - **Constraints** are deregistered.
    ///
    /// Cancelled *recovery* entries are recorded as unplaceable at the
    /// moment they are cancelled (teardown makes replacement moot), so
    /// the `lost = replaced + unplaceable + pending` ledger invariant
    /// holds at every step.
    pub fn cancel_lra(&mut self, app: ApplicationId) -> CancelReport {
        let mut report = CancelReport {
            released_containers: self.state.release_app(app),
            ..CancelReport::default()
        };
        report.pending_removed = self.retract_undeployed(app, None).entries_removed;
        let (entries, abandoned_recovery) = self.inflight.cancel(app);
        report.inflight_cancelled = entries;
        self.record_recovery_cancelled(app, abandoned_recovery);
        self.constraint_manager.remove_app(app);
        // A cancelled managed app leaves lifecycle management too: the
        // retirement is journaled so a restart does not resurrect it.
        self.retire_spec(app);
        report
    }

    /// The single queue-retraction path shared by [`MedeaScheduler::cancel_lra`]
    /// and the reconciler's scale-down: removes up to `limit` queued
    /// containers of `app` (`None`: all of them), splitting an entry in
    /// place when the limit partially covers it, and books abandoned
    /// *recovery* containers as terminally unplaceable in the same step
    /// they leave the queue, so the two callers cannot drift apart.
    pub(super) fn retract_undeployed(
        &mut self,
        app: ApplicationId,
        limit: Option<usize>,
    ) -> RetractReport {
        let mut report = RetractReport::default();
        let mut remaining = limit.unwrap_or(usize::MAX);
        let mut abandoned_recovery = 0usize;
        let mut kept: VecDeque<PendingLra> = VecDeque::with_capacity(self.pending.len());
        for mut p in std::mem::take(&mut self.pending) {
            if p.request.app != app || remaining == 0 {
                kept.push_back(p);
                continue;
            }
            let n = p.request.num_containers();
            let removed = n.min(remaining);
            remaining -= removed;
            report.containers_removed += removed;
            if p.is_recovery {
                abandoned_recovery += removed;
            }
            if removed == n {
                report.entries_removed += 1;
            } else {
                // Partial retraction: shrink the entry in place (its
                // containers are interchangeable within one request).
                p.request.containers.truncate(n - removed);
                kept.push_back(p);
            }
        }
        self.pending = kept;
        self.record_recovery_cancelled(app, abandoned_recovery);
        self.publish_gauges();
        report
    }

    /// Books `n` recovery containers of `app` as terminally unplaceable
    /// because their app was cancelled or scaled down — the balancing
    /// entry that keeps the recovery ledger intact when replacements are
    /// abandoned.
    fn record_recovery_cancelled(&mut self, app: ApplicationId, n: usize) {
        self.ledger.unplaceable(app, n);
        self.metrics.recovery_cancelled.add(n as u64);
    }

    /// Current circuit-breaker state of the exact-ILP arm (degradation
    /// protection).
    pub fn breaker_state(&self) -> BreakerState {
        self.placer.breaker.state()
    }

    /// Cumulative recovery accounting: every container killed by
    /// [`MedeaScheduler::node_lost`] is replaced, explicitly unplaceable,
    /// or still pending — never silently lost. Recovery containers
    /// inside an in-flight solve are neither replaced nor queued yet:
    /// they count as pending until commit.
    pub fn recovery_report(&self) -> RecoveryReport {
        let pending = self
            .undeployed()
            .filter(|p| p.is_recovery)
            .map(|p| p.request.num_containers())
            .sum();
        self.ledger.report(pending)
    }

    /// Handles the loss of a node (crash semantics): marks it
    /// unavailable, releases every allocation it hosted, repairs task
    /// queue accounting, and re-enqueues the lost LRA containers as
    /// recovery requests carrying a soft anti-affinity to the failing
    /// fault domain (service unit, falling back to rack, then the node
    /// itself). Idempotent: reporting an already-lost node is a no-op.
    pub fn node_lost(&mut self, node: NodeId, now: u64) -> NodeLossReport {
        if !self.state.is_available(node) {
            return NodeLossReport::default();
        }
        let _ = self.state.set_available(node, false);
        let released = self.state.release_node(node).unwrap_or_default();

        let mut report = NodeLossReport::default();
        let mut lost_lras = BTreeMap::new();
        for alloc in &released {
            match self.container_lost(alloc, &mut lost_lras) {
                ExecutionKind::Task => report.task_containers_lost += 1,
                ExecutionKind::LongRunning => report.lra_containers_lost += 1,
            }
        }
        self.mark_fault_domain(node);
        report.apps_affected = self.enqueue_recovery(lost_lras, now);
        self.publish_gauges();
        report
    }

    /// Books one container that died with its node or during an RM
    /// outage: a task container goes back to its queue's accounting; an
    /// LRA container is grouped per app for
    /// [`MedeaScheduler::enqueue_recovery`], keeping its own resources
    /// and tags (minus the auto-added appid tag, which re-allocation
    /// re-adds).
    pub(super) fn container_lost(
        &mut self,
        alloc: &Allocation,
        lost_lras: &mut BTreeMap<ApplicationId, Vec<ContainerRequest>>,
    ) -> ExecutionKind {
        match alloc.kind {
            ExecutionKind::Task => self.task_scheduler.on_container_lost(alloc),
            ExecutionKind::LongRunning => {
                lost_lras
                    .entry(alloc.app)
                    .or_default()
                    .push(ContainerRequest::new(
                        alloc.resources,
                        alloc.tags.iter().filter(|t| !t.is_app_id()).cloned(),
                    ))
            }
        }
        alloc.kind
    }

    /// The one entry into the recovery pipeline: queues one recovery
    /// request per app (ascending app id) for its lost containers and
    /// books them on the ledger. The app's own constraints still apply to
    /// the replacements — they travel with the request because a round
    /// excludes in-batch apps from the deployed set — plus a soft
    /// anti-affinity to [`FAULT_DOMAIN_TAG`]-marked nodes. Returns the
    /// containers lost per app.
    pub(super) fn enqueue_recovery(
        &mut self,
        lost_lras: BTreeMap<ApplicationId, Vec<ContainerRequest>>,
        now: u64,
    ) -> Vec<(ApplicationId, usize)> {
        let mut affected = Vec::with_capacity(lost_lras.len());
        for (app, containers) in lost_lras {
            let n = containers.len();
            affected.push((app, n));
            let mut constraints = self.constraint_manager.app_constraints(app);
            constraints.push(
                PlacementConstraint::anti_affinity(
                    TagExpr::and([Tag::app_id(app)]),
                    FAULT_DOMAIN_TAG,
                    NodeGroupId::node(),
                )
                .with_weight(2.0),
            );
            self.pending.push_back(PendingLra {
                is_recovery: true,
                ..PendingLra::new(LraRequest::new(app, containers, constraints), now)
            });
            self.ledger.lost(n);
            self.metrics.recovery_lost.add(n as u64);
        }
        affected
    }

    /// Handles the recovery of a previously lost node: marks it available
    /// again and clears the fault-domain marks placed on its behalf.
    pub fn node_recovered(&mut self, node: NodeId) {
        let _ = self.state.set_available(node, true);
        if let Some(members) = self.fault_marks.remove(&node) {
            let tag = fault_domain_tag();
            for member in members {
                let _ = self.state.remove_node_tag(member, &tag);
            }
        }
    }

    /// Injects a solver stall: for the next `cycles` scheduling cycles
    /// the arm that would serve is treated as degraded (an exact round
    /// counts against the circuit breaker) and the heuristic places the
    /// batch.
    pub fn inject_solver_stall(&mut self, cycles: u32) {
        self.placer.stall_cycles_remaining =
            self.placer.stall_cycles_remaining.saturating_add(cycles);
        self.metrics.solver_stalls.inc();
    }

    /// Marks the crashed node's fault domain — its service unit if one is
    /// registered, else its rack, else the node alone — with the
    /// [`FAULT_DOMAIN_TAG`] so recovery anti-affinity can see it.
    fn mark_fault_domain(&mut self, node: NodeId) {
        let members = {
            let groups = self.state.groups();
            [NodeGroupId::service_unit(), NodeGroupId::rack()]
                .iter()
                .find_map(|g| {
                    let sets = groups.sets_containing(g, node).ok()?;
                    let set = sets.first()?;
                    groups.set_members(g, *set).ok()
                })
                .unwrap_or_else(|| vec![node])
        };
        let tag = fault_domain_tag();
        let mut marked = Vec::with_capacity(members.len());
        for member in members {
            if self.state.add_node_tag(member, tag.clone()).is_ok() {
                marked.push(member);
            }
        }
        self.fault_marks.insert(node, marked);
    }

    /// Advances time: when the scheduling interval is reached, runs the
    /// LRA scheduler on the pending batch and commits the placements.
    ///
    /// The synchronous pipeline: [`MedeaScheduler::propose_all`]
    /// followed immediately by [`MedeaScheduler::commit`] at the same
    /// tick, so nothing mutates the live state between the two. The
    /// asynchronous pipeline calls the two phases itself with simulated
    /// solve latency in between.
    ///
    /// Returns the LRAs deployed in this invocation.
    pub fn tick(&mut self, now: u64) -> Vec<LraDeployment> {
        let solves = self.propose_all(now);
        let mut out = Vec::new();
        for solve in solves {
            out.extend(self.commit(now, solve));
        }
        out
    }

    /// Whether any solve is currently in flight (proposed, not
    /// committed). A sharded round keeps this `true` until every
    /// per-shard solve (and the residual, if any) has been committed.
    pub fn solve_inflight(&self) -> bool {
        !self.inflight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_cluster::{NodeGroupId, Resources, Tag};
    use medea_constraints::PlacementConstraint;

    fn cluster() -> ClusterState {
        ClusterState::homogeneous(4, Resources::new(8192, 8), 2)
    }

    fn lra(app: u64, count: usize, mem: u64, tag: &str) -> LraRequest {
        LraRequest::uniform(
            ApplicationId(app),
            count,
            Resources::new(mem, 1),
            vec![Tag::new(tag)],
            vec![],
        )
    }

    /// Attaching a registry declares every series; rounds under either
    /// placer arm add none (nothing is resolved by name mid-solve). The
    /// heuristic arm also serves five anti-affine containers on four
    /// nodes, which break a soft check.
    #[test]
    fn traced_rounds_register_exactly_the_declared_series() {
        use crate::obs_bridge::{ArmMetrics, SolverMetricsBridge};
        use crate::task_scheduler::TaskMetrics;
        use crate::PlacerMode::{Heuristic, Ilp, Relaxed};
        use std::collections::BTreeSet;

        let registry = MetricsRegistry::new();
        let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::Ilp, 10)
            .with_metrics(Arc::clone(&registry));
        let mut spread = lra(3, 5, 1024, "s");
        spread.constraints = vec![PlacementConstraint::anti_affinity(
            "s",
            "s",
            NodeGroupId::node(),
        )];
        let rounds = [
            (Ilp, lra(1, 2, 1024, "a")),
            (Relaxed, lra(2, 2, 1024, "a")),
            (Heuristic, spread),
        ];
        for (round, (mode, request)) in rounds.into_iter().enumerate() {
            m.lra_scheduler_mut().ilp.mode = mode;
            let now = 10 * round as u64;
            m.submit_lra(request, now).unwrap();
            assert_eq!(m.tick(now).len(), 1);
        }
        let registered: BTreeSet<String> = registry
            .snapshot()
            .series
            .into_iter()
            .map(|s| s.name)
            .collect();
        let declared: BTreeSet<String> = [
            CoreMetrics::NAMES,
            ArmMetrics::NAMES,
            SolverMetricsBridge::NAMES,
            TaskMetrics::NAMES,
        ]
        .concat()
        .into_iter()
        .map(String::from)
        .collect();
        assert_eq!(registered, declared);
        let snap = registry.snapshot();
        assert_eq!(
            snap.histogram("core.ilp_solve_us").map(|h| h.count),
            Some(1)
        );
        let validated = snap.histogram("core.relax_validate_us");
        assert_eq!(validated.map(|h| h.count), Some(2));
    }

    #[test]
    fn interval_gates_scheduling() {
        let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::Serial, 10);
        m.submit_lra(lra(1, 2, 1024, "a"), 0).unwrap();
        // First tick runs immediately (next_run starts at 0)...
        assert_eq!(m.tick(0).len(), 1);
        m.submit_lra(lra(2, 2, 1024, "b"), 1).unwrap();
        // ...but the next invocation must wait for the interval.
        assert!(m.tick(5).is_empty());
        assert_eq!(m.tick(10).len(), 1);
    }

    #[test]
    fn constraints_registered_and_removed() {
        let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::Serial, 10);
        let req = LraRequest::uniform(
            ApplicationId(1),
            2,
            Resources::new(1024, 1),
            vec![Tag::new("hb")],
            vec![PlacementConstraint::anti_affinity(
                "hb",
                "hb",
                NodeGroupId::node(),
            )],
        );
        m.submit_lra(req, 0).unwrap();
        assert_eq!(m.constraint_manager().num_apps(), 1);
        m.tick(0);
        m.complete_lra(ApplicationId(1));
        assert_eq!(m.constraint_manager().num_apps(), 0);
        assert_eq!(m.state().num_containers(), 0);
    }

    #[test]
    fn invalid_constraints_rejected_at_submit() {
        let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::Serial, 10);
        let req = LraRequest::uniform(
            ApplicationId(1),
            1,
            Resources::new(1024, 1),
            vec![Tag::new("x")],
            vec![PlacementConstraint::affinity(
                "x",
                "y",
                NodeGroupId::new("ghost"),
            )],
        );
        assert!(m.submit_lra(req, 0).is_err());
        assert_eq!(m.pending_lras(), 0);
    }

    #[test]
    fn unplaceable_lra_is_resubmitted_then_dropped() {
        let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::Serial, 10);
        m.max_attempts = 2;
        // 5 x 8 GB cannot fit on 4 x 8 GB nodes alongside each other.
        m.submit_lra(lra(1, 5, 8192, "big"), 0).unwrap();
        assert!(m.tick(0).is_empty());
        assert_eq!(m.pending_lras(), 1);
        assert_eq!(m.stats().lras_unplaced, 1);
        assert!(m.tick(10).is_empty());
        // Two attempts exhausted: dropped.
        assert_eq!(m.pending_lras(), 0);
        assert_eq!(m.stats().lras_dropped, 1);
    }

    #[test]
    fn tasks_flow_through_independently() {
        let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::Ilp, 10);
        m.submit_tasks(
            TaskJobRequest::new(ApplicationId(7), Resources::new(512, 1), 4),
            0,
        )
        .unwrap();
        // Tasks allocate on heartbeats with no LRA cycle involved.
        let allocs = m.heartbeat(NodeId(1), 2);
        assert_eq!(allocs.len(), 4);
        m.complete_task("default", allocs[0].container);
        assert_eq!(m.state().num_containers(), 3);
    }

    #[test]
    fn commit_conflict_resubmits() {
        // Fill the cluster between placement and commit by using a tiny
        // interval trick: we simulate the conflict by pre-filling nodes
        // after placement would have been computed. Easiest deterministic
        // way: submit an LRA that fits exactly, then occupy the cluster
        // via tasks *before* the tick, so placement itself fails — then
        // free resources and observe successful retry.
        let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::Serial, 10);
        m.submit_tasks(
            TaskJobRequest::new(ApplicationId(9), Resources::new(8192, 1), 4),
            0,
        )
        .unwrap();
        for n in 0..4u32 {
            m.heartbeat(NodeId(n), 0);
        }
        m.submit_lra(lra(1, 2, 4096, "s"), 0).unwrap();
        assert!(m.tick(0).is_empty());
        assert_eq!(m.stats().lras_unplaced, 1);
        // Free the cluster; the retry succeeds at the next interval.
        let tasks: Vec<ContainerId> = m.state().allocations().map(|a| a.id).collect();
        for t in tasks {
            m.complete_task("default", t);
        }
        let deployed = m.tick(10);
        assert_eq!(deployed.len(), 1);
        assert_eq!(deployed[0].latency_ticks, 10);
        assert_eq!(m.stats().lras_deployed, 1);
    }

    #[test]
    fn node_loss_replaces_lra_containers_elsewhere() {
        let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::NodeCandidates, 10);
        // Spread 2 containers across nodes; racks are {0,1} and {2,3}.
        m.submit_lra(lra(1, 2, 1024, "svc"), 0).unwrap();
        let deployed = m.tick(0);
        assert_eq!(deployed.len(), 1);
        let victim = deployed[0].nodes[0];
        let survivors: Vec<NodeId> = deployed[0]
            .nodes
            .iter()
            .copied()
            .filter(|&n| n != victim)
            .collect();

        let report = m.node_lost(victim, 5);
        let lost_here = deployed[0].nodes.iter().filter(|&&n| n == victim).count();
        assert_eq!(report.lra_containers_lost, lost_here);
        assert_eq!(report.apps_affected, vec![(ApplicationId(1), lost_here)]);
        // Idempotent: a second report of the same node is a no-op.
        assert_eq!(m.node_lost(victim, 6).lra_containers_lost, 0);

        let redeployed = m.tick(10);
        assert_eq!(redeployed.len(), 1);
        assert!(redeployed[0].recovered);
        assert!(
            redeployed[0].nodes.iter().all(|&n| n != victim),
            "recovered containers must avoid the crashed node"
        );
        let r = m.recovery_report();
        assert_eq!(r.containers_lost, lost_here);
        assert_eq!(r.containers_replaced, lost_here);
        assert!(r.accounted());
        assert_eq!(r.replacement_ratio(), 1.0);
        // Containers on surviving nodes were untouched.
        for s in survivors {
            assert!(!m.state().containers_on(s).unwrap().is_empty());
        }
        // Fault marks disappear when the node comes back.
        m.node_recovered(victim);
        let fd = crate::recovery::fault_domain_tag();
        for n in m.state().node_ids().collect::<Vec<_>>() {
            assert_eq!(m.state().gamma(n, &fd), 0, "mark left on {n:?}");
        }
    }

    #[test]
    fn recovery_retries_back_off_then_report_unplaceable() {
        // A full cluster: recovery placements cannot succeed.
        let mut m = MedeaScheduler::new(
            ClusterState::homogeneous(2, Resources::new(4096, 4), 1),
            LraAlgorithm::Serial,
            1,
        )
        .with_recovery(crate::RecoveryConfig {
            max_attempts: 2,
            base_backoff: 10,
            max_backoff: 100,
            ..Default::default()
        });
        m.submit_lra(lra(1, 2, 4096, "fat"), 0).unwrap();
        assert_eq!(m.tick(0).len(), 1);
        let report = m.node_lost(NodeId(0), 1);
        assert_eq!(report.lra_containers_lost, 1);
        // Attempt 1 fails (node 1 is full with the app's other container).
        assert!(m.tick(1).is_empty());
        assert_eq!(m.recovery_report().containers_pending, 1);
        // Backoff: ticks before `not_before` skip the entry entirely.
        assert!(m.tick(2).is_empty());
        assert_eq!(m.stats().cycles, 2, "backed-off entry must not run");
        // After the backoff the final attempt runs and exhausts.
        assert!(m.tick(11).is_empty());
        let r = m.recovery_report();
        assert_eq!(r.containers_unplaceable, 1);
        assert_eq!(r.unplaceable_by_app, vec![(ApplicationId(1), 1)]);
        assert!(r.accounted());
        // The app keeps its constraints: it is still partially deployed.
        assert_eq!(m.constraint_manager().num_apps(), 1);
    }

    #[test]
    fn solver_stalls_open_breaker_which_recovers() {
        let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::Ilp, 1).with_recovery(
            crate::RecoveryConfig {
                breaker_failure_threshold: 2,
                breaker_open_cycles: 2,
                ..Default::default()
            },
        );
        m.inject_solver_stall(2);
        // Stalled cycles still place (degraded heuristic) but count as
        // breaker failures.
        m.submit_lra(lra(1, 1, 1024, "a"), 0).unwrap();
        assert_eq!(m.tick(0).len(), 1);
        assert_eq!(m.breaker_state(), crate::BreakerState::Closed);
        m.submit_lra(lra(2, 1, 1024, "b"), 1).unwrap();
        assert_eq!(m.tick(1).len(), 1);
        assert_eq!(m.breaker_state(), crate::BreakerState::Open);
        // Open cycles are served by the heuristic arm...
        m.submit_lra(lra(3, 1, 1024, "c"), 2).unwrap();
        assert_eq!(m.tick(2).len(), 1);
        m.submit_lra(lra(4, 1, 1024, "d"), 3).unwrap();
        assert_eq!(m.tick(3).len(), 1);
        assert_eq!(m.breaker_state(), crate::BreakerState::Open);
        // ...then a probe runs the (now healthy) ILP and closes.
        m.submit_lra(lra(5, 1, 1024, "e"), 4).unwrap();
        assert_eq!(m.tick(4).len(), 1);
        assert_eq!(m.breaker_state(), crate::BreakerState::Closed);
    }

    /// The breaker series follow every transition of the stall sequence
    /// above, configured `Ilp` (the breaker opens, the heuristic serves
    /// the cool-down); configured `Relaxed`, stalls report to no breaker.
    #[test]
    fn solver_stalls_drive_the_breaker_series() {
        use crate::PlacerMode::{Heuristic, Ilp, Relaxed};
        // Per tick: opened, closed, state; the arm the breaker selected.
        let ilp_rows = [
            [0, 0, 0, Ilp.code()],
            [1, 0, 1, Ilp.code()],
            [1, 0, 1, Heuristic.code()],
            [1, 0, 1, Heuristic.code()],
            [1, 1, 0, Ilp.code()],
        ];
        let relaxed_rows = [[0, 0, 0, Relaxed.code()]; 5];
        for (mode, rows) in [(Ilp, ilp_rows), (Relaxed, relaxed_rows)] {
            let registry = MetricsRegistry::new();
            let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::Ilp, 1)
                .with_recovery(crate::RecoveryConfig {
                    breaker_failure_threshold: 2,
                    breaker_open_cycles: 2,
                    ..Default::default()
                })
                .with_metrics(Arc::clone(&registry));
            m.lra_scheduler_mut().ilp.mode = mode;
            m.inject_solver_stall(2);
            for (now, row) in rows.iter().enumerate() {
                let now = now as u64;
                m.submit_lra(lra(now + 1, 1, 1024, "a"), now).unwrap();
                assert_eq!(m.tick(now).len(), 1);
                let snap = registry.snapshot();
                let counter = |name| snap.counter(name).unwrap() as i64;
                let gauge = |name| snap.gauge(name).unwrap();
                let seen = [
                    counter("core.breaker_opened_total"),
                    counter("core.breaker_closed_total"),
                    gauge("core.breaker_state"),
                    gauge("core.placer_mode"),
                ];
                assert_eq!(&seen, row, "{mode:?} tick {now}");
            }
        }
    }

    #[test]
    fn node_loss_repairs_task_queue_accounting() {
        let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::Serial, 10);
        m.submit_tasks(
            TaskJobRequest::new(ApplicationId(7), Resources::new(1024, 1), 3),
            0,
        )
        .unwrap();
        assert_eq!(m.heartbeat(NodeId(2), 0).len(), 3);
        let report = m.node_lost(NodeId(2), 1);
        assert_eq!(report.task_containers_lost, 3);
        assert_eq!(report.lra_containers_lost, 0);
        assert_eq!(m.state().num_containers(), 0);
    }

    #[test]
    fn every_algorithm_works_end_to_end() {
        for alg in LraAlgorithm::ALL {
            let mut m = MedeaScheduler::new(cluster(), alg, 10);
            let req = LraRequest::uniform(
                ApplicationId(1),
                3,
                Resources::new(1024, 1),
                vec![Tag::new("w")],
                vec![PlacementConstraint::anti_affinity(
                    "w",
                    "w",
                    NodeGroupId::node(),
                )],
            );
            m.submit_lra(req, 0).unwrap();
            let deployed = m.tick(0);
            assert_eq!(deployed.len(), 1, "{alg} failed end-to-end");
            assert_eq!(m.state().num_containers(), 3);
        }
    }
}
