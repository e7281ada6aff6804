//! Admission control: a bounded place-request queue with per-tenant
//! fairness quotas and pressure-driven batch closing.
//!
//! The paper batches placement requests into ILP rounds on a timer
//! (§5.1); a serving front-end closes batches on *pressure* instead:
//! whichever comes first of
//!
//! - **size** — `batch_max_size` requests are waiting,
//! - **deadline** — the oldest waiting request has aged
//!   `batch_max_wait_ms` (the upper bound on any wait), or
//! - **quiet** — no request was admitted for one *quiet gap*: the wall
//!   time of the batcher's last cycle that carried a batch, at most
//!   [`QUIET_MAX_US`].
//!
//! The gap is measured, never configured; until a batch-carrying cycle
//! has run it is the bound. Why it is one round's cost, and the sweep
//! that chose the bound: DESIGN.md §7f.
//!
//! Admission is strictly non-blocking: a full queue or an over-quota
//! tenant is **shed** with a typed reason — the caller replies
//! `overloaded` and the client retries — never parked.
//!
//! This module is deliberately free of sockets and threads so the shed
//! boundary, fairness quota, and batch-close rules are unit-testable
//! deterministically (`tests/admission.rs` drives it with a fake clock).

use std::collections::{HashMap, VecDeque};

use medea_core::LraRequest;

/// Why a place request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The global queue is at capacity.
    QueueFull,
    /// The tenant already holds its full quota of queue slots.
    TenantQuota,
    /// The server is draining; no new work is admitted.
    ShuttingDown,
}

impl ShedReason {
    /// Stable wire code.
    pub fn code(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::TenantQuota => "tenant_quota",
            ShedReason::ShuttingDown => "shutting_down",
        }
    }
}

/// Admission-control and batching knobs.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Global bound on queued place requests.
    pub queue_capacity: usize,
    /// Per-tenant bound on queued place requests (fairness: one noisy
    /// tenant cannot occupy the whole queue).
    pub tenant_quota: usize,
    /// Batch closes when this many requests are waiting.
    pub batch_max_size: usize,
    /// Batch closes at the latest when the oldest request has waited
    /// this long.
    pub batch_max_wait_ms: u64,
}

/// Retry hint attached to `overloaded` replies.
pub const RETRY_AFTER_MS: u64 = 50;

/// Upper bound (µs) on the quiet gap, so a burst that has stopped
/// arriving closes this long after its last request however long a
/// round takes. Chosen by the fake-clock sweep in `tests/quiet_sweep.rs`
/// (DESIGN.md §7f): the smallest bound that keeps every burst one batch
/// without raising a served stream's soft violations.
pub const QUIET_MAX_US: u64 = 250;

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 1024,
            tenant_quota: 256,
            batch_max_size: 64,
            batch_max_wait_ms: 10,
        }
    }
}

/// One admitted place request, waiting for its batch.
#[derive(Debug, Clone)]
pub struct PlaceWork {
    /// Tenant the request was admitted under.
    pub tenant: String,
    /// The LRA to place.
    pub request: LraRequest,
    /// Admission time (server-relative µs).
    pub enqueued_us: u64,
}

/// Which rule closed a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchClose {
    /// `batch_max_size` requests were waiting.
    Size,
    /// The oldest request had aged `batch_max_wait_ms`.
    Deadline,
    /// No request was admitted for one quiet gap.
    Quiet,
}

/// Cumulative shed counters, by reason.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShedStats {
    /// Shed because the global queue was full.
    pub queue_full: u64,
    /// Shed because the tenant exceeded its quota.
    pub tenant_quota: u64,
    /// Shed because the server was draining.
    pub shutting_down: u64,
}

impl ShedStats {
    /// Total requests shed.
    pub fn total(&self) -> u64 {
        self.queue_full + self.tenant_quota + self.shutting_down
    }
}

/// The bounded, fairness-aware admission queue.
#[derive(Debug)]
pub struct AdmissionQueue {
    cfg: AdmissionConfig,
    queue: VecDeque<PlaceWork>,
    per_tenant: HashMap<String, usize>,
    /// When the youngest request was admitted (µs).
    last_arrival_us: u64,
    /// The quiet gap (µs): the batcher's last batch-carrying cycle's
    /// wall time, at most `quiet_max_us`; `quiet_max_us` until one ran.
    gap_us: u64,
    quiet_max_us: u64,
    closed: bool,
    admitted: u64,
    shed: ShedStats,
}

impl AdmissionQueue {
    /// Creates an empty queue with the given config.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionQueue::with_quiet_max(cfg, QUIET_MAX_US)
    }

    /// An empty queue whose quiet gap is bounded by `quiet_max_us`
    /// instead of [`QUIET_MAX_US`]; `u64::MAX` leaves only the deadline
    /// above it, the rule before the bound. The server always uses
    /// [`AdmissionQueue::new`]; the other bounds are the sweep's.
    pub fn with_quiet_max(cfg: AdmissionConfig, quiet_max_us: u64) -> Self {
        AdmissionQueue {
            cfg,
            queue: VecDeque::new(),
            per_tenant: HashMap::new(),
            last_arrival_us: 0,
            gap_us: quiet_max_us,
            quiet_max_us,
            closed: false,
            admitted: 0,
            shed: ShedStats::default(),
        }
    }

    /// Requests currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Queued requests of one tenant.
    pub fn tenant_depth(&self, tenant: &str) -> usize {
        self.per_tenant.get(tenant).copied().unwrap_or(0)
    }

    /// Place requests admitted since creation.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Cumulative shed counters.
    pub fn shed_stats(&self) -> ShedStats {
        self.shed
    }

    /// Stops admitting: every subsequent offer sheds with
    /// [`ShedReason::ShuttingDown`]. Queued work remains drainable.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Whether the queue was closed for shutdown.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Offers a request. Returns the queue depth after the enqueue, or
    /// the typed shed reason. Never blocks.
    pub fn offer(
        &mut self,
        tenant: &str,
        request: LraRequest,
        now_us: u64,
    ) -> Result<usize, ShedReason> {
        if self.closed {
            self.shed.shutting_down += 1;
            return Err(ShedReason::ShuttingDown);
        }
        if self.queue.len() >= self.cfg.queue_capacity {
            self.shed.queue_full += 1;
            return Err(ShedReason::QueueFull);
        }
        if self.tenant_depth(tenant) >= self.cfg.tenant_quota {
            self.shed.tenant_quota += 1;
            return Err(ShedReason::TenantQuota);
        }
        *self.per_tenant.entry(tenant.to_string()).or_insert(0) += 1;
        self.admitted += 1;
        self.queue.push_back(PlaceWork {
            tenant: tenant.to_string(),
            request,
            enqueued_us: now_us,
        });
        self.last_arrival_us = now_us;
        Ok(self.queue.len())
    }

    /// Removes every queued entry of `app`, releasing the owning
    /// tenants' quota slots. Returns how many entries were removed — the
    /// release path calls this so an app released while still waiting
    /// for its batch never reaches the scheduler at all.
    pub fn remove_app(&mut self, app: medea_cluster::ApplicationId) -> usize {
        let mut removed = Vec::new();
        self.queue.retain(|w| {
            let hit = w.request.app == app;
            if hit {
                removed.push(w.tenant.clone());
            }
            !hit
        });
        for tenant in &removed {
            self.free_slot(tenant);
        }
        removed.len()
    }

    /// Returns one of `tenant`'s quota slots.
    fn free_slot(&mut self, tenant: &str) {
        if let Some(d) = self.per_tenant.get_mut(tenant) {
            *d = d.saturating_sub(1);
            if *d == 0 {
                self.per_tenant.remove(tenant);
            }
        }
    }

    /// The batcher reports a finished cycle: `carried` requests
    /// submitted, `wall_us` spent. Only a cycle that carried a batch
    /// says what a round costs; release-only and reconcile-only cycles
    /// leave the gap alone.
    pub fn cycle_done(&mut self, carried: usize, wall_us: u64) {
        if carried > 0 {
            self.gap_us = wall_us.min(self.quiet_max_us);
        }
    }

    /// The rule that closes a batch now, if any.
    pub fn batch_close(&self, now_us: u64) -> Option<BatchClose> {
        let (deadline, quiet) = self.close_times_us()?;
        if self.queue.len() >= self.cfg.batch_max_size {
            Some(BatchClose::Size)
        } else if now_us >= deadline {
            Some(BatchClose::Deadline)
        } else if now_us >= quiet {
            Some(BatchClose::Quiet)
        } else {
            None
        }
    }

    /// Absolute µs timestamp at which the waiting requests close on
    /// deadline or quiet if nothing else arrives (`None` when empty) —
    /// the batcher's condvar wait bound.
    pub fn next_close_us(&self) -> Option<u64> {
        self.close_times_us()
            .map(|(deadline, quiet)| deadline.min(quiet))
    }

    /// When the head hits its deadline and when the quiet gap after the
    /// youngest arrival ends. A gap past `batch_max_wait_ms` ends after
    /// the head's deadline, so the deadline stays the bound on any wait.
    fn close_times_us(&self) -> Option<(u64, u64)> {
        let head = self.queue.front()?;
        let cap = self.cfg.batch_max_wait_ms.saturating_mul(1000);
        Some((
            head.enqueued_us.saturating_add(cap),
            self.last_arrival_us.saturating_add(self.gap_us),
        ))
    }

    /// Takes the next batch (up to `batch_max_size`, FIFO), releasing
    /// the tenants' quota slots. Call when [`AdmissionQueue::batch_close`]
    /// names a rule or when force-draining at shutdown.
    pub fn take_batch(&mut self) -> Vec<PlaceWork> {
        let n = self.queue.len().min(self.cfg.batch_max_size);
        let batch: Vec<PlaceWork> = self.queue.drain(..n).collect();
        for w in &batch {
            self.free_slot(&w.tenant);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_cluster::{ApplicationId, Resources, Tag};

    fn req(app: u64) -> LraRequest {
        LraRequest::uniform(
            ApplicationId(app),
            1,
            Resources::new(1024, 1),
            vec![Tag::new("t")],
            vec![],
        )
    }

    #[test]
    fn fifo_order_and_quota_release() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            batch_max_size: 2,
            ..AdmissionConfig::default()
        });
        q.offer("a", req(1), 0).unwrap();
        q.offer("b", req(2), 1).unwrap();
        q.offer("a", req(3), 2).unwrap();
        assert_eq!(q.tenant_depth("a"), 2);
        let batch = q.take_batch();
        assert_eq!(
            batch.iter().map(|w| w.request.app.0).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(q.tenant_depth("a"), 1);
        assert_eq!(q.tenant_depth("b"), 0);
    }
}
