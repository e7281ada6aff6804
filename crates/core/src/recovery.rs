//! Container recovery: policies and state machines for surviving machine
//! loss (§2.3, §7.3).
//!
//! The paper's Medea is evaluated against *correlated machine
//! unavailability* — service units that lose a fraction (sometimes all)
//! of their machines at once. This module provides the policy layer the
//! [`crate::MedeaScheduler`] uses to recover from such events:
//!
//! - [`RecoveryConfig`]: retry budget and exponential backoff for
//!   re-placing long-running containers lost to a node crash;
//! - [`CircuitBreaker`]: the classic three-state (closed / open /
//!   half-open) breaker around the exact arm — repeated exact-solver
//!   stalls demote service `Ilp → Heuristic`, and the breaker probes the
//!   exact arm again after a cool-down (so an overloaded or stalling
//!   solver cannot stall the whole recovery pipeline);
//! - [`NodeLossReport`] / [`RecoveryReport`]: structured accounting so
//!   the harness can verify that every killed container is either
//!   re-placed or *explicitly* reported as unplaceable — never silently
//!   lost.

use medea_cluster::{ApplicationId, Tag};

/// The node-level tag used to mark members of a failing fault domain.
/// Recovery requests carry a soft anti-affinity against it so re-placed
/// containers steer away from the service unit (or rack) that just lost
/// a machine.
pub const FAULT_DOMAIN_TAG: &str = "fault_domain";

/// Returns the fault-domain marker tag.
pub fn fault_domain_tag() -> Tag {
    Tag::new(FAULT_DOMAIN_TAG)
}

/// Retry/backoff policy for re-placing lost LRA containers and the
/// circuit-breaker thresholds protecting the ILP path.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Maximum placement attempts per recovery request before its
    /// containers are reported unplaceable.
    pub max_attempts: u32,
    /// Base backoff in ticks: attempt `n` (1-based) becomes eligible
    /// `base_backoff * 2^(n-1)` ticks after the failed attempt.
    pub base_backoff: u64,
    /// Upper bound on the backoff delay in ticks.
    pub max_backoff: u64,
    /// Consecutive ILP degradations (deadline, infeasibility, injected
    /// stall) that open the circuit breaker.
    pub breaker_failure_threshold: u32,
    /// Scheduling cycles the breaker stays open (heuristic-only) before
    /// probing the ILP again.
    pub breaker_open_cycles: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            max_attempts: 8,
            base_backoff: 10,
            max_backoff: 1_000,
            breaker_failure_threshold: 3,
            breaker_open_cycles: 5,
        }
    }
}

impl RecoveryConfig {
    /// Backoff delay in ticks before retry number `attempt` (1-based):
    /// exponential with the configured base, saturating at `max_backoff`.
    ///
    /// Saturation semantics: the doubling shift is clamped to 63 (the
    /// width of `u64` minus one, so `1 << shift` itself cannot
    /// overflow), the multiply saturates at `u64::MAX`, and the result
    /// is capped at `max_backoff`. The sequence is therefore
    /// non-decreasing in `attempt` for every configuration — it grows
    /// exponentially, then plateaus, never wraps.
    pub fn backoff(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(63);
        self.base_backoff
            .saturating_mul(1u64 << shift)
            .min(self.max_backoff)
    }
}

/// Circuit-breaker state (classic three-state machine). The discriminant
/// is the value of the `core.breaker_state` gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation: the protected arm runs every cycle.
    Closed = 0,
    /// Tripped: the protected arm is skipped and the heuristic arm
    /// serves until the cool-down elapses.
    Open = 1,
    /// Cool-down elapsed: the next cycle probes the protected arm once.
    HalfOpen = 2,
}

/// Degradation circuit breaker around the exact arm (`Ilp → Heuristic`).
///
/// `allow()` is asked once per scheduling cycle whether the arm may run;
/// the outcome is fed back via `on_success()` / `on_failure()`, which
/// report whether they closed or opened the breaker. After
/// `failure_threshold` consecutive failures the breaker opens for
/// `open_cycles` cycles, then half-opens to probe; a failed probe
/// re-opens, a successful one closes.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    failure_threshold: u32,
    open_cycles: u32,
    state: BreakerState,
    consecutive_failures: u32,
    remaining_open: u32,
}

impl CircuitBreaker {
    /// Creates a closed breaker with the given thresholds (both clamped
    /// to at least 1).
    pub fn new(failure_threshold: u32, open_cycles: u32) -> Self {
        CircuitBreaker {
            failure_threshold: failure_threshold.max(1),
            open_cycles: open_cycles.max(1),
            state: BreakerState::Closed,
            consecutive_failures: 0,
            remaining_open: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Asks whether the protected path may run this cycle. While open,
    /// each call burns one cool-down cycle; when the cool-down is spent
    /// the breaker half-opens and the call is allowed as a probe.
    pub fn allow(&mut self) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if self.remaining_open == 0 {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    self.remaining_open -= 1;
                    false
                }
            }
        }
    }

    /// Reports that the protected path completed normally. Returns
    /// whether this closed the breaker.
    pub fn on_success(&mut self) -> bool {
        let closed = self.state != BreakerState::Closed;
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        closed
    }

    /// Reports that the protected path degraded (deadline/no-incumbent
    /// fallback, infeasibility, or an injected stall). Returns whether
    /// this opened the breaker.
    pub fn on_failure(&mut self) -> bool {
        let trips = match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                self.consecutive_failures >= self.failure_threshold
            }
            BreakerState::HalfOpen => true,
            BreakerState::Open => false,
        };
        if trips {
            self.state = BreakerState::Open;
            self.remaining_open = self.open_cycles;
            self.consecutive_failures = 0;
        }
        trips
    }
}

/// What one node loss cost: containers released, split by kind, and the
/// recovery requests enqueued as a result.
#[derive(Debug, Clone, Default)]
pub struct NodeLossReport {
    /// Long-running containers lost (re-enqueued for re-placement).
    pub lra_containers_lost: usize,
    /// Task containers lost (released; the owning jobs are short-lived
    /// and their frameworks resubmit work, so tasks are not re-placed).
    pub task_containers_lost: usize,
    /// Applications that lost LRA containers, with counts.
    pub apps_affected: Vec<(ApplicationId, usize)>,
}

/// Cumulative recovery accounting. The invariant the chaos harness
/// checks: `containers_lost == containers_replaced +
/// containers_unplaceable + containers_pending` — no silent loss.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// LRA containers killed by node loss so far.
    pub containers_lost: usize,
    /// Lost containers successfully re-placed.
    pub containers_replaced: usize,
    /// Lost containers whose retry budget is exhausted, reported
    /// explicitly as unplaceable.
    pub containers_unplaceable: usize,
    /// Lost containers still waiting in the recovery queue (or backing
    /// off between attempts).
    pub containers_pending: usize,
    /// Per-application unplaceable counts (the explicit loss report).
    pub unplaceable_by_app: Vec<(ApplicationId, usize)>,
}

impl RecoveryReport {
    /// Fraction of killed containers re-placed so far (1.0 when nothing
    /// was killed).
    pub fn replacement_ratio(&self) -> f64 {
        if self.containers_lost == 0 {
            1.0
        } else {
            self.containers_replaced as f64 / self.containers_lost as f64
        }
    }

    /// Whether the no-silent-loss invariant holds.
    pub fn accounted(&self) -> bool {
        self.containers_lost
            == self.containers_replaced + self.containers_unplaceable + self.containers_pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let cfg = RecoveryConfig {
            base_backoff: 10,
            max_backoff: 100,
            ..RecoveryConfig::default()
        };
        assert_eq!(cfg.backoff(1), 10);
        assert_eq!(cfg.backoff(2), 20);
        assert_eq!(cfg.backoff(3), 40);
        assert_eq!(cfg.backoff(4), 80);
        assert_eq!(cfg.backoff(5), 100, "capped");
        assert_eq!(cfg.backoff(60), 100, "huge attempts never overflow");
    }

    #[test]
    fn backoff_is_monotonic_under_extreme_attempts() {
        // An effectively uncapped config: the only protection against
        // wrap-around is the shift clamp + saturating multiply. The
        // former cap of 32 made the curve plateau at base * 2^32 — far
        // below max_backoff — so attempts 34..64 stopped growing; worse,
        // a clamp above 63 would make `1 << shift` wrap to a *smaller*
        // delay. Both regressions show up as a monotonicity violation.
        let cfg = RecoveryConfig {
            base_backoff: 3,
            max_backoff: u64::MAX,
            ..RecoveryConfig::default()
        };
        let mut prev = 0u64;
        for attempt in 1..=80 {
            let b = cfg.backoff(attempt);
            assert!(b >= prev, "backoff({attempt}) = {b} < {prev}");
            prev = b;
        }
        // The curve must keep growing past the old 2^32 plateau...
        assert!(cfg.backoff(40) > cfg.backoff(33), "plateaued at 2^32");
        // ...and saturate (not wrap) once the shift clamp engages.
        assert_eq!(cfg.backoff(70), cfg.backoff(65));
        assert_eq!(cfg.backoff(70), u64::MAX, "3 * 2^63 saturates");
        // With a finite cap the cap still wins.
        let capped = RecoveryConfig {
            base_backoff: 3,
            max_backoff: 1_000,
            ..RecoveryConfig::default()
        };
        assert_eq!(capped.backoff(70), 1_000);
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes() {
        let mut b = CircuitBreaker::new(3, 2);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.on_failure());
        assert!(!b.on_failure());
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.on_failure(), "the third failure opens");
        assert_eq!(b.state(), BreakerState::Open);
        // Two cool-down cycles denied, then a probe is allowed.
        assert!(!b.allow());
        assert!(!b.allow());
        assert!(b.allow());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Failed probe re-opens immediately.
        assert!(b.on_failure());
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.on_failure(), "already open");
        assert!(!b.allow());
        assert!(!b.allow());
        assert!(b.allow());
        // Successful probe closes.
        assert!(b.on_success());
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.on_success(), "already closed");
    }

    #[test]
    fn breaker_success_resets_failure_streak() {
        let mut b = CircuitBreaker::new(3, 1);
        b.on_failure();
        b.on_failure();
        b.on_success();
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed, "streak was reset");
    }

    #[test]
    fn recovery_report_invariant() {
        let mut r = RecoveryReport {
            containers_lost: 10,
            containers_replaced: 7,
            containers_unplaceable: 1,
            containers_pending: 2,
            unplaceable_by_app: vec![(ApplicationId(3), 1)],
        };
        assert!(r.accounted());
        assert!((r.replacement_ratio() - 0.7).abs() < 1e-12);
        r.containers_pending = 0;
        assert!(!r.accounted());
        let empty = RecoveryReport::default();
        assert_eq!(empty.replacement_ratio(), 1.0);
        assert!(empty.accounted());
    }
}
