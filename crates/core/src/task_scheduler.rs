//! The task-based scheduler: a YARN-Capacity-Scheduler-like allocator for
//! short-lived containers (§3, §6).
//!
//! Medea reuses a traditional production scheduler for task-based jobs so
//! their allocation latency is unaffected by LRA placement (requirement
//! R4). This implementation reproduces the Capacity Scheduler's core
//! behaviour: capacity-shared queues, heartbeat-driven allocation,
//! most-underserved queue selection, FIFO within a queue, and
//! delay-scheduling locality relaxation (node → rack → any).

use std::collections::{HashMap, VecDeque};
use std::fmt;

use medea_cluster::{
    Allocation, ApplicationId, ClusterState, ContainerId, ContainerRequest, ExecutionKind,
    NodeGroupId, NodeId, Resources,
};
use medea_obs::MetricsRegistry;

use crate::request::{Locality, TaskJobRequest};

medea_obs::metric_handles! {
    /// Pre-resolved `task.*` metric handles.
    #[derive(Debug)]
    pub(crate) struct TaskMetrics {
        heartbeats: Counter = "task.heartbeats_total",
        allocations: Counter = "task.allocations_total",
        alloc_latency_ticks: Histogram = "task.alloc_latency_ticks",
    }
}

/// Intra-queue scheduling policy (§6: YARN's Capacity Scheduler uses
/// FIFO leaf queues; the Fair Scheduler can be used instead "simply by
/// changing a configuration parameter").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// First-in-first-out within the queue (Capacity Scheduler default).
    #[default]
    Fifo,
    /// Max-min fairness across applications within the queue: the next
    /// allocation goes to the pending application with the least memory
    /// currently in use (Fair Scheduler behaviour).
    Fair,
}

/// Configuration of one capacity queue.
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// Queue name.
    pub name: String,
    /// Guaranteed share of cluster memory in `[0, 1]`.
    pub capacity: f64,
    /// Elastic ceiling share of cluster memory in `[0, 1]`.
    pub max_capacity: f64,
    /// Intra-queue policy.
    pub policy: QueuePolicy,
}

impl QueueConfig {
    /// Creates a FIFO queue with the given guaranteed and maximum shares.
    pub fn new(name: impl Into<String>, capacity: f64, max_capacity: f64) -> Self {
        QueueConfig {
            name: name.into(),
            capacity,
            max_capacity,
            policy: QueuePolicy::Fifo,
        }
    }

    /// Switches the queue to fair scheduling.
    pub fn fair(mut self) -> Self {
        self.policy = QueuePolicy::Fair;
        self
    }
}

/// Errors from the task scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskSchedulerError {
    /// The named queue does not exist.
    UnknownQueue(String),
}

impl fmt::Display for TaskSchedulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskSchedulerError::UnknownQueue(q) => write!(f, "unknown queue '{q}'"),
        }
    }
}

impl std::error::Error for TaskSchedulerError {}

/// A pending task container waiting for allocation.
#[derive(Debug, Clone)]
struct PendingTask {
    app: ApplicationId,
    resources: Resources,
    locality: Locality,
    tags: Vec<medea_cluster::Tag>,
    constraints: Vec<medea_constraints::PlacementConstraint>,
    submitted_at: u64,
    /// Heartbeats skipped while waiting for the preferred location.
    missed_opportunities: u32,
}

/// A successfully allocated task container with its scheduling latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskAllocation {
    /// Allocated container.
    pub container: ContainerId,
    /// Owning application.
    pub app: ApplicationId,
    /// Node the container landed on.
    pub node: NodeId,
    /// Scheduling latency in ticks (allocation time − submission time).
    pub latency: u64,
}

/// Per-queue bookkeeping.
#[derive(Debug)]
struct Queue {
    config: QueueConfig,
    pending: VecDeque<PendingTask>,
    used: Resources,
    /// Memory in use per application (fair policy bookkeeping).
    app_used: HashMap<ApplicationId, u64>,
}

/// Heartbeat-driven capacity scheduler for task containers.
///
/// # Examples
///
/// ```
/// use medea_core::{TaskScheduler, QueueConfig, TaskJobRequest};
/// use medea_cluster::{ApplicationId, ClusterState, NodeId, Resources};
///
/// let mut cluster = ClusterState::homogeneous(2, Resources::new(8192, 8), 1);
/// let mut ts = TaskScheduler::new(vec![QueueConfig::new("default", 1.0, 1.0)]);
/// ts.submit(TaskJobRequest::new(ApplicationId(1), Resources::new(1024, 1), 3), 0)
///     .unwrap();
/// let allocs = ts.on_heartbeat(&mut cluster, NodeId(0), 5);
/// assert_eq!(allocs.len(), 3);
/// assert!(allocs.iter().all(|a| a.latency == 5));
/// ```
#[derive(Debug)]
pub struct TaskScheduler {
    queues: Vec<Queue>,
    by_name: HashMap<String, usize>,
    /// Missed heartbeats before relaxing node locality to rack.
    pub node_locality_delay: u32,
    /// Missed heartbeats before relaxing rack locality to any.
    pub rack_locality_delay: u32,
    /// Maximum containers allocated per heartbeat (off-switch limit).
    pub max_per_heartbeat: usize,
    /// Queue index of every live task container, so accounting can be
    /// repaired when a container is lost to a node crash rather than
    /// completed through [`TaskScheduler::complete`].
    container_queues: HashMap<ContainerId, usize>,
    metrics: TaskMetrics,
}

impl TaskScheduler {
    /// Creates a scheduler with the given queues.
    pub fn new(queues: Vec<QueueConfig>) -> Self {
        let mut by_name = HashMap::new();
        let queues: Vec<Queue> = queues
            .into_iter()
            .enumerate()
            .map(|(i, config)| {
                by_name.insert(config.name.clone(), i);
                Queue {
                    config,
                    pending: VecDeque::new(),
                    used: Resources::ZERO,
                    app_used: HashMap::new(),
                }
            })
            .collect();
        TaskScheduler {
            queues,
            by_name,
            node_locality_delay: 3,
            rack_locality_delay: 6,
            max_per_heartbeat: 32,
            container_queues: HashMap::new(),
            metrics: TaskMetrics::new(&MetricsRegistry::new()),
        }
    }

    /// Creates a scheduler with a single `default` queue at 100% capacity.
    pub fn single_queue() -> Self {
        TaskScheduler::new(vec![QueueConfig::new("default", 1.0, 1.0)])
    }

    /// Attaches a metrics registry: heartbeats, allocations, and the
    /// task allocation latency distribution are reported as `task.*`
    /// (until then, into a private registry).
    pub fn set_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = TaskMetrics::new(registry);
    }

    /// Submits a task job: `count` individual task containers, FIFO.
    pub fn submit(&mut self, job: TaskJobRequest, now: u64) -> Result<(), TaskSchedulerError> {
        let qi = *self
            .by_name
            .get(&job.queue)
            .ok_or_else(|| TaskSchedulerError::UnknownQueue(job.queue.clone()))?;
        for _ in 0..job.count {
            self.queues[qi].pending.push_back(PendingTask {
                app: job.app,
                resources: job.resources,
                locality: job.locality,
                tags: job.tags.clone(),
                constraints: job.constraints.clone(),
                submitted_at: now,
                missed_opportunities: 0,
            });
        }
        Ok(())
    }

    /// Number of tasks waiting across all queues.
    pub fn pending_count(&self) -> usize {
        self.queues.iter().map(|q| q.pending.len()).sum()
    }

    /// Resources currently used by a queue.
    pub fn queue_used(&self, name: &str) -> Option<Resources> {
        self.by_name.get(name).map(|&i| self.queues[i].used)
    }

    /// Handles a node heartbeat: allocates pending tasks onto the node.
    ///
    /// Queues are served most-underserved first (used/guaranteed ratio);
    /// within a queue tasks are FIFO with delay-scheduling locality.
    pub fn on_heartbeat(
        &mut self,
        state: &mut ClusterState,
        node: NodeId,
        now: u64,
    ) -> Vec<TaskAllocation> {
        let mut out = Vec::new();
        self.metrics.heartbeats.inc();
        if !state.is_available(node) {
            return out;
        }
        let total = state.total_capacity();
        let node_rack = state
            .groups()
            .sets_containing_ref(&NodeGroupId::rack(), node)
            .and_then(|v| v.first().copied());

        loop {
            if out.len() >= self.max_per_heartbeat {
                break;
            }
            // Pick the most underserved queue with pending work that can
            // still grow within its max capacity.
            let mut order: Vec<usize> = (0..self.queues.len())
                .filter(|&i| !self.queues[i].pending.is_empty())
                .collect();
            // total_cmp, not partial_cmp(..).unwrap_or(Equal): the latter is
            // not a total order when a pressure ratio is NaN, and a non-total
            // comparator makes sort output (and thus queue service order)
            // depend on the input permutation.
            order.sort_by(|&a, &b| {
                let ra = queue_pressure(&self.queues[a], &total);
                let rb = queue_pressure(&self.queues[b], &total);
                ra.total_cmp(&rb)
            });

            let mut allocated_any = false;
            for qi in order {
                let Some(alloc) =
                    self.try_allocate_from_queue(state, qi, node, node_rack, now, &total)
                else {
                    continue;
                };
                out.push(alloc);
                allocated_any = true;
                break;
            }
            if !allocated_any {
                break;
            }
        }
        out
    }

    /// Attempts to allocate the head-most eligible task of a queue.
    fn try_allocate_from_queue(
        &mut self,
        state: &mut ClusterState,
        qi: usize,
        node: NodeId,
        node_rack: Option<usize>,
        now: u64,
        total: &Resources,
    ) -> Option<TaskAllocation> {
        let max_mem = (total.memory_mb as f64 * self.queues[qi].config.max_capacity) as u64;
        // Candidate order: FIFO prefix, or least-served application first
        // under the fair policy (max-min fairness within the queue).
        let scan = self.queues[qi].pending.len().min(64);
        let order: Vec<usize> = match self.queues[qi].config.policy {
            QueuePolicy::Fifo => (0..scan).collect(),
            QueuePolicy::Fair => {
                let q = &self.queues[qi];
                let mut idx: Vec<usize> = (0..scan).collect();
                idx.sort_by_key(|&i| {
                    let app = q.pending[i].app;
                    (q.app_used.get(&app).copied().unwrap_or(0), i)
                });
                idx
            }
        };
        for idx in order {
            let task = &self.queues[qi].pending[idx];
            // Queue ceiling.
            if self.queues[qi].used.memory_mb + task.resources.memory_mb > max_mem {
                continue;
            }
            // Node fit.
            let Ok(free) = state.free(node) else {
                return None;
            };
            if !task.resources.fits_in(&free) {
                continue;
            }
            // Locality with delay scheduling.
            let loc_ok = match task.locality {
                Locality::Any => true,
                Locality::Node(n) => {
                    n == node || task.missed_opportunities >= self.node_locality_delay
                }
                Locality::Rack(r) => {
                    node_rack == Some(r) || task.missed_opportunities >= self.rack_locality_delay
                }
            };
            // Heuristic constraint handling (§5.4): treat constraints like
            // a locality preference — skip the node while it violates
            // them, relax after the rack-locality delay so task latency
            // stays bounded regardless of constraint satisfiability.
            let constraints_ok = task.missed_opportunities >= self.rack_locality_delay
                || task.constraints.iter().all(|c| {
                    let node_singleton = [node.index()];
                    let sets: &[usize] = if c.group.is_node() {
                        &node_singleton
                    } else {
                        match state.groups().sets_containing_ref(&c.group, node) {
                            Some(s) => s,
                            // Unknown group: treat the constraint as
                            // trivially satisfied, matching the scan path.
                            None => return true,
                        }
                    };
                    c.expr.conjuncts.iter().any(|conj| {
                        conj.iter().all(|leaf| {
                            sets.iter().any(|&si| {
                                let count = leaf
                                    .target
                                    .cardinality_in_group_set(state, &c.group, si, None);
                                leaf.cardinality.satisfied_by(count)
                            })
                        })
                    })
                });
            if !loc_ok || !constraints_ok {
                self.queues[qi].pending[idx].missed_opportunities += 1;
                continue;
            }
            let Some(task) = self.queues[qi].pending.remove(idx) else {
                // Index raced out of range; bail out of this heartbeat.
                return None;
            };
            let req = ContainerRequest::new(task.resources, task.tags.clone());
            let Ok(container) = state.allocate(task.app, node, &req, ExecutionKind::Task) else {
                // Should not happen (fit checked); requeue defensively.
                self.queues[qi].pending.push_front(task);
                return None;
            };
            self.container_queues.insert(container, qi);
            self.queues[qi].used += task.resources;
            *self.queues[qi].app_used.entry(task.app).or_insert(0) += task.resources.memory_mb;
            let latency = now.saturating_sub(task.submitted_at);
            self.metrics.allocations.inc();
            self.metrics.alloc_latency_ticks.record(latency);
            return Some(TaskAllocation {
                container,
                app: task.app,
                node,
                latency,
            });
        }
        None
    }

    /// Records the completion of a task container, releasing its
    /// resources from both the cluster and the queue accounting.
    pub fn complete(
        &mut self,
        state: &mut ClusterState,
        queue: &str,
        container: ContainerId,
    ) -> Result<(), TaskSchedulerError> {
        let qi = *self
            .by_name
            .get(queue)
            .ok_or_else(|| TaskSchedulerError::UnknownQueue(queue.to_string()))?;
        if let Ok(alloc) = state.release(container) {
            self.container_queues.remove(&container);
            self.queues[qi].used = self.queues[qi].used.saturating_sub(&alloc.resources);
            if let Some(u) = self.queues[qi].app_used.get_mut(&alloc.app) {
                *u = u.saturating_sub(alloc.resources.memory_mb);
            }
        }
        Ok(())
    }

    /// Repairs queue accounting for a task container whose node crashed:
    /// the cluster already released the allocation, so only the queue's
    /// usage bookkeeping is rolled back here. Task containers are not
    /// re-placed — their short-lived jobs resubmit through the normal
    /// path — but their capacity must be returned to the queue.
    pub fn on_container_lost(&mut self, alloc: &Allocation) {
        let Some(qi) = self.container_queues.remove(&alloc.id) else {
            return;
        };
        self.queues[qi].used = self.queues[qi].used.saturating_sub(&alloc.resources);
        if let Some(u) = self.queues[qi].app_used.get_mut(&alloc.app) {
            *u = u.saturating_sub(alloc.resources.memory_mb);
        }
    }
}

/// Pressure = used / guaranteed (lower = more underserved).
fn queue_pressure(q: &Queue, total: &Resources) -> f64 {
    let guaranteed = (total.memory_mb as f64 * q.config.capacity).max(1.0);
    q.used.memory_mb as f64 / guaranteed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ClusterState {
        ClusterState::homogeneous(4, Resources::new(8192, 8), 2)
    }

    #[test]
    fn fifo_allocation_on_heartbeat() {
        let mut state = cluster();
        let mut ts = TaskScheduler::single_queue();
        ts.submit(
            TaskJobRequest::new(ApplicationId(1), Resources::new(1024, 1), 5),
            10,
        )
        .unwrap();
        let allocs = ts.on_heartbeat(&mut state, NodeId(0), 12);
        assert_eq!(allocs.len(), 5);
        assert!(allocs.iter().all(|a| a.latency == 2));
        assert_eq!(ts.pending_count(), 0);
        assert_eq!(state.containers_on(NodeId(0)).unwrap().len(), 5);
    }

    #[test]
    fn node_capacity_limits_heartbeat() {
        let mut state = cluster();
        let mut ts = TaskScheduler::single_queue();
        // 8 GB node, 3 GB tasks: two fit.
        ts.submit(
            TaskJobRequest::new(ApplicationId(1), Resources::new(3072, 1), 5),
            0,
        )
        .unwrap();
        let allocs = ts.on_heartbeat(&mut state, NodeId(0), 0);
        assert_eq!(allocs.len(), 2);
        assert_eq!(ts.pending_count(), 3);
    }

    #[test]
    fn queue_max_capacity_enforced() {
        let mut state = cluster(); // 32 GB total
        let mut ts = TaskScheduler::new(vec![
            QueueConfig::new("small", 0.25, 0.25), // ceiling 8 GB
            QueueConfig::new("big", 0.75, 1.0),
        ]);
        ts.submit(
            TaskJobRequest::new(ApplicationId(1), Resources::new(4096, 1), 4).on_queue("small"),
            0,
        )
        .unwrap();
        let mut allocated = 0;
        for n in 0..4u32 {
            allocated += ts.on_heartbeat(&mut state, NodeId(n), 0).len();
        }
        // Ceiling 8 GB / 4 GB tasks = 2 containers max.
        assert_eq!(allocated, 2);
        assert_eq!(ts.queue_used("small").unwrap().memory_mb, 8192);
    }

    #[test]
    fn underserved_queue_goes_first() {
        let mut state = cluster();
        let mut ts = TaskScheduler::new(vec![
            QueueConfig::new("a", 0.5, 1.0),
            QueueConfig::new("b", 0.5, 1.0),
        ]);
        // Fill queue a with one running container first.
        ts.submit(
            TaskJobRequest::new(ApplicationId(1), Resources::new(2048, 1), 1).on_queue("a"),
            0,
        )
        .unwrap();
        ts.on_heartbeat(&mut state, NodeId(0), 0);
        // Now both queues have pending work; b is more underserved.
        ts.submit(
            TaskJobRequest::new(ApplicationId(1), Resources::new(1024, 1), 1).on_queue("a"),
            0,
        )
        .unwrap();
        ts.submit(
            TaskJobRequest::new(ApplicationId(2), Resources::new(1024, 1), 1).on_queue("b"),
            0,
        )
        .unwrap();
        let allocs = ts.on_heartbeat(&mut state, NodeId(1), 1);
        assert_eq!(
            allocs[0].app,
            ApplicationId(2),
            "queue b should be served first"
        );
    }

    #[test]
    fn node_locality_delays_then_relaxes() {
        let mut state = cluster();
        let mut ts = TaskScheduler::single_queue();
        ts.node_locality_delay = 2;
        ts.submit(
            TaskJobRequest::new(ApplicationId(1), Resources::new(1024, 1), 1)
                .with_locality(Locality::Node(NodeId(3))),
            0,
        )
        .unwrap();
        // Heartbeats from the wrong node are skipped until the delay.
        assert!(ts.on_heartbeat(&mut state, NodeId(0), 1).is_empty());
        assert!(ts.on_heartbeat(&mut state, NodeId(0), 2).is_empty());
        // Third wrong-node heartbeat: delay exhausted, allocate anywhere.
        let allocs = ts.on_heartbeat(&mut state, NodeId(0), 3);
        assert_eq!(allocs.len(), 1);
        assert_eq!(allocs[0].node, NodeId(0));
    }

    #[test]
    fn preferred_node_allocates_immediately() {
        let mut state = cluster();
        let mut ts = TaskScheduler::single_queue();
        ts.submit(
            TaskJobRequest::new(ApplicationId(1), Resources::new(1024, 1), 1)
                .with_locality(Locality::Node(NodeId(2))),
            0,
        )
        .unwrap();
        let allocs = ts.on_heartbeat(&mut state, NodeId(2), 0);
        assert_eq!(allocs.len(), 1);
        assert_eq!(allocs[0].node, NodeId(2));
    }

    #[test]
    fn rack_locality() {
        let mut state = cluster(); // racks: {0,1}, {2,3}
        let mut ts = TaskScheduler::single_queue();
        ts.submit(
            TaskJobRequest::new(ApplicationId(1), Resources::new(1024, 1), 1)
                .with_locality(Locality::Rack(1)),
            0,
        )
        .unwrap();
        assert!(ts.on_heartbeat(&mut state, NodeId(0), 0).is_empty());
        let allocs = ts.on_heartbeat(&mut state, NodeId(2), 0);
        assert_eq!(allocs.len(), 1);
    }

    #[test]
    fn completion_releases_resources() {
        let mut state = cluster();
        let mut ts = TaskScheduler::single_queue();
        ts.submit(
            TaskJobRequest::new(ApplicationId(1), Resources::new(1024, 1), 1),
            0,
        )
        .unwrap();
        let allocs = ts.on_heartbeat(&mut state, NodeId(0), 0);
        ts.complete(&mut state, "default", allocs[0].container)
            .unwrap();
        assert_eq!(ts.queue_used("default").unwrap(), Resources::ZERO);
        assert_eq!(state.num_containers(), 0);
    }

    #[test]
    fn unknown_queue_is_an_error() {
        let mut ts = TaskScheduler::single_queue();
        let err = ts
            .submit(
                TaskJobRequest::new(ApplicationId(1), Resources::new(1, 1), 1).on_queue("nope"),
                0,
            )
            .unwrap_err();
        assert_eq!(err, TaskSchedulerError::UnknownQueue("nope".into()));
    }

    #[test]
    fn task_constraints_steer_then_relax() {
        use medea_cluster::{ContainerRequest, Tag};
        use medea_constraints::PlacementConstraint;
        let mut state = cluster(); // racks {0,1}, {2,3}
                                   // A memcached LRA lives on node 2.
        state
            .allocate(
                ApplicationId(9),
                NodeId(2),
                &ContainerRequest::new(Resources::new(1024, 1), [Tag::new("mem")]),
                medea_cluster::ExecutionKind::LongRunning,
            )
            .unwrap();
        let mut ts = TaskScheduler::single_queue();
        // The §5.4 example: a map/reduce job placed on the same rack as a
        // Memcached application.
        let job = TaskJobRequest::new(ApplicationId(1), Resources::new(512, 1), 1)
            .with_tags([Tag::new("mr")])
            .with_constraints([PlacementConstraint::affinity(
                "mr",
                "mem",
                medea_cluster::NodeGroupId::rack(),
            )]);
        ts.submit(job, 0).unwrap();
        // Wrong-rack heartbeats are skipped while the preference holds.
        assert!(ts.on_heartbeat(&mut state, NodeId(0), 1).is_empty());
        // A right-rack heartbeat allocates, and the task carries its tag.
        let allocs = ts.on_heartbeat(&mut state, NodeId(3), 2);
        assert_eq!(allocs.len(), 1);
        assert_eq!(state.gamma(NodeId(3), &Tag::new("mr")), 1);
    }

    #[test]
    fn task_constraints_relax_after_delay() {
        use medea_cluster::Tag;
        use medea_constraints::PlacementConstraint;
        let mut state = cluster();
        let mut ts = TaskScheduler::single_queue();
        ts.rack_locality_delay = 2;
        // Affinity to a tag that exists nowhere: unsatisfiable, must relax.
        let job = TaskJobRequest::new(ApplicationId(1), Resources::new(512, 1), 1)
            .with_tags([Tag::new("mr")])
            .with_constraints([PlacementConstraint::affinity(
                "mr",
                "ghost",
                medea_cluster::NodeGroupId::rack(),
            )]);
        ts.submit(job, 0).unwrap();
        assert!(ts.on_heartbeat(&mut state, NodeId(0), 1).is_empty());
        assert!(ts.on_heartbeat(&mut state, NodeId(0), 2).is_empty());
        // Delay exhausted: the soft constraint yields to latency (R4).
        assert_eq!(ts.on_heartbeat(&mut state, NodeId(0), 3).len(), 1);
    }

    #[test]
    fn fair_policy_alternates_between_apps() {
        let mut state = cluster();
        let mut ts = TaskScheduler::new(vec![QueueConfig::new("default", 1.0, 1.0).fair()]);
        // App 1 floods the queue first; app 2 arrives behind it.
        ts.submit(
            TaskJobRequest::new(ApplicationId(1), Resources::new(1024, 1), 6),
            0,
        )
        .unwrap();
        ts.submit(
            TaskJobRequest::new(ApplicationId(2), Resources::new(1024, 1), 6),
            0,
        )
        .unwrap();
        let allocs = ts.on_heartbeat(&mut state, NodeId(0), 1);
        // Max-min fairness: the first 8 allocations split 4/4, not 6/2.
        let app1 = allocs
            .iter()
            .take(8)
            .filter(|a| a.app == ApplicationId(1))
            .count();
        assert_eq!(app1, 4, "fair policy must interleave applications");
    }

    #[test]
    fn fifo_policy_serves_in_order() {
        let mut state = cluster();
        let mut ts = TaskScheduler::single_queue();
        ts.submit(
            TaskJobRequest::new(ApplicationId(1), Resources::new(1024, 1), 6),
            0,
        )
        .unwrap();
        ts.submit(
            TaskJobRequest::new(ApplicationId(2), Resources::new(1024, 1), 6),
            0,
        )
        .unwrap();
        let allocs = ts.on_heartbeat(&mut state, NodeId(0), 1);
        let app1_first = allocs
            .iter()
            .take(6)
            .filter(|a| a.app == ApplicationId(1))
            .count();
        assert_eq!(app1_first, 6, "FIFO must drain app 1 first");
    }

    #[test]
    fn fair_accounting_resets_on_completion() {
        let mut state = cluster();
        let mut ts = TaskScheduler::new(vec![QueueConfig::new("default", 1.0, 1.0).fair()]);
        ts.submit(
            TaskJobRequest::new(ApplicationId(1), Resources::new(1024, 1), 2),
            0,
        )
        .unwrap();
        let allocs = ts.on_heartbeat(&mut state, NodeId(0), 0);
        for a in &allocs {
            ts.complete(&mut state, "default", a.container).unwrap();
        }
        // After completion app 1 is back to zero usage: a new burst from
        // app 2 does not starve it.
        ts.submit(
            TaskJobRequest::new(ApplicationId(2), Resources::new(1024, 1), 2),
            1,
        )
        .unwrap();
        ts.submit(
            TaskJobRequest::new(ApplicationId(1), Resources::new(1024, 1), 2),
            1,
        )
        .unwrap();
        let allocs = ts.on_heartbeat(&mut state, NodeId(1), 2);
        let apps: std::collections::HashSet<_> = allocs.iter().take(2).map(|a| a.app).collect();
        assert_eq!(apps.len(), 2, "both apps served in the first two slots");
    }

    #[test]
    fn lost_container_returns_queue_capacity() {
        let mut state = cluster();
        let mut ts = TaskScheduler::single_queue();
        ts.submit(
            TaskJobRequest::new(ApplicationId(1), Resources::new(1024, 1), 2),
            0,
        )
        .unwrap();
        let allocs = ts.on_heartbeat(&mut state, NodeId(0), 0);
        assert_eq!(allocs.len(), 2);
        // A node crash releases the allocations behind the scheduler's
        // back; on_container_lost repairs the queue accounting.
        let lost = state.release(allocs[0].container).unwrap();
        ts.on_container_lost(&lost);
        assert_eq!(ts.queue_used("default").unwrap().memory_mb, 1024);
        // Repeated loss reports for the same container are idempotent.
        ts.on_container_lost(&lost);
        assert_eq!(ts.queue_used("default").unwrap().memory_mb, 1024);
    }

    #[test]
    fn unavailable_node_gets_nothing() {
        let mut state = cluster();
        state.set_available(NodeId(0), false).unwrap();
        let mut ts = TaskScheduler::single_queue();
        ts.submit(
            TaskJobRequest::new(ApplicationId(1), Resources::new(1024, 1), 1),
            0,
        )
        .unwrap();
        assert!(ts.on_heartbeat(&mut state, NodeId(0), 0).is_empty());
    }
}
