//! The batcher as two clock-free functions: [`PendingWork::next_step`]
//! decides what the single writer does next, [`run_cycle`] (and, at a
//! graceful shutdown, [`run_drain`]) is what it does to the scheduler.
//! The server's batcher thread holds the lock, reads the clock and
//! waits (its step table is in the [`crate::server`] docs); a test
//! drives the same calls on a fake clock (`tests/served_transcripts.rs`).

use medea_cluster::ApplicationId;
use medea_core::{LifecyclePhase, MedeaScheduler};

use crate::admission::{AdmissionConfig, AdmissionQueue, BatchClose, PlaceWork};

/// The longest wait: the cadence of convergence ticks with nothing due.
const MAX_WAIT_US: u64 = 20_000;

/// A desired-state change accepted on a connection thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecOp {
    /// Set the desired replica count.
    Scale {
        /// The app.
        app: u64,
        /// Desired replicas.
        replicas: usize,
    },
    /// Set the desired version (a rolling upgrade).
    Upgrade {
        /// The app.
        app: u64,
        /// Desired version.
        version: u64,
    },
}

/// Work handed to the batcher and not yet taken (behind one mutex in
/// the server).
#[derive(Debug)]
pub struct PendingWork {
    /// Admitted place requests.
    pub queue: AdmissionQueue,
    /// Apps released since the last cycle.
    pub releases: Vec<u64>,
    /// Spec changes accepted since the last cycle.
    pub spec_ops: Vec<SpecOp>,
    /// `Some(drain)` once shutdown was requested.
    pub shutdown: Option<bool>,
}

/// Why a cycle runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleReason {
    /// A close rule fired on the admission queue.
    Close(BatchClose),
    /// Releases or spec changes are waiting.
    Wake,
    /// The reconciler is converging and the batcher just woke.
    Converge,
    /// The graceful shutdown's sweep of everything queued.
    Drain,
}

/// The batcher's next move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Wait for a notify, at most until `until_us`.
    Wait {
        /// Absolute µs on the caller's clock.
        until_us: u64,
    },
    /// Take the input for `reason` and run one cycle.
    Cycle {
        /// Why.
        reason: CycleReason,
    },
    /// Stop: take the sweep and [`run_drain`] first, or (the crash)
    /// abandon everything pending.
    Finish {
        /// Whether to drain.
        drain: bool,
    },
}

/// What one cycle applies.
#[derive(Debug)]
pub struct CycleInput {
    /// Place requests to submit, already through the release gate.
    pub batch: Vec<PlaceWork>,
    /// Apps to cancel wherever the scheduler holds them.
    pub releases: Vec<u64>,
    /// Spec changes, applied after the submissions.
    pub spec_ops: Vec<SpecOp>,
}

/// What a cycle reports back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleOutcome {
    /// Batch apps whose constraints the scheduler refused.
    pub rejected: Vec<u64>,
    /// Whether some managed app is still off its desired state.
    pub converging: bool,
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

/// What [`run_drain`] did.
#[derive(Debug, Clone)]
pub struct Drained {
    /// The sweep's cycle, if it ran.
    pub sweep: Option<CycleOutcome>,
    /// The report, less the admission totals.
    pub report: DrainReport,
    /// The tick after the last drain cycle.
    pub tick: u64,
}

impl PendingWork {
    /// Nothing pending.
    pub fn new(cfg: AdmissionConfig) -> Self {
        PendingWork {
            queue: AdmissionQueue::new(cfg),
            releases: Vec::new(),
            spec_ops: Vec::new(),
            shutdown: None,
        }
    }

    /// The transition at `now_us`, given whether the last cycle left the
    /// reconciler `converging` and whether the batcher was just `woken`
    /// (by a notify or at its bound). First match wins: a crash, a
    /// convergence tick after a wake, a graceful shutdown, a close rule,
    /// waiting releases or spec changes, else a wait until the queue's
    /// next close time, at most 20 ms.
    pub fn next_step(&self, now_us: u64, converging: bool, woken: bool) -> Step {
        let reason = match self.shutdown {
            Some(false) => return Step::Finish { drain: false },
            _ if woken && converging => CycleReason::Converge,
            Some(true) => return Step::Finish { drain: true },
            None => match self.queue.batch_close(now_us) {
                Some(rule) => CycleReason::Close(rule),
                None if !self.releases.is_empty() || !self.spec_ops.is_empty() => CycleReason::Wake,
                None => {
                    let bound = now_us + MAX_WAIT_US;
                    let until_us = self.queue.next_close_us().unwrap_or(bound);
                    let until_us = until_us.clamp(now_us + 1, bound);
                    return Step::Wait { until_us };
                }
            },
        };
        Step::Cycle { reason }
    }

    /// A cycle's input: the next batch (everything queued, for the drain
    /// sweep), every release and every spec change.
    pub fn take(&mut self, reason: CycleReason) -> CycleInput {
        let mut batch = self.queue.take_batch();
        while reason == CycleReason::Drain && !self.queue.is_empty() {
            batch.extend(self.queue.take_batch());
        }
        CycleInput {
            batch,
            releases: std::mem::take(&mut self.releases),
            spec_ops: std::mem::take(&mut self.spec_ops),
        }
    }
}

/// One cycle on the writer at scheduler time `tick`: cancel the released
/// apps wherever the scheduler holds them (so a released, unplaced app is
/// never placed later), submit the batch, apply the spec changes (after
/// the submissions, so a scale racing its own place finds the app queued;
/// one whose app vanished is moot), then run one scheduling round. The
/// caller times the cycle for [`AdmissionQueue::cycle_done`].
pub fn run_cycle(m: &mut MedeaScheduler, input: CycleInput, tick: u64) -> CycleOutcome {
    for app in input.releases {
        m.cancel_lra(ApplicationId(app));
    }
    let mut rejected = Vec::new();
    for PlaceWork { request, .. } in input.batch {
        let app = request.app.0;
        if m.submit_lra(request, tick).is_err() {
            rejected.push(app);
        }
    }
    for op in input.spec_ops {
        let _ = match op {
            SpecOp::Scale { app, replicas } => m.set_replicas(ApplicationId(app), replicas),
            SpecOp::Upgrade { app, version } => m.set_version(ApplicationId(app), version),
        };
    }
    let _ = m.tick(tick);
    let converging = m
        .lifecycles()
        .iter()
        .any(|l| !matches!(l.phase, LifecyclePhase::Steady | LifecyclePhase::Retired));
    CycleOutcome {
        rejected,
        converging,
    }
}

/// The graceful drain on the writer, from the gated sweep: its cycle if it
/// carries work or the reconciler is `converging`, then
/// [`MedeaScheduler::run_to_drain`] within `max_cycles`, then a final
/// checkpoint when a journal is attached.
pub fn run_drain(
    m: &mut MedeaScheduler,
    sweep: CycleInput,
    converging: bool,
    mut tick: u64,
    max_cycles: u64,
) -> Drained {
    let idle = sweep.batch.is_empty() && sweep.releases.is_empty() && sweep.spec_ops.is_empty();
    let sweep = (!idle || converging).then(|| {
        let outcome = run_cycle(m, sweep, tick);
        tick = tick.saturating_add(m.interval().max(1));
        outcome
    });
    let (deployed, complete, end) = m.run_to_drain(tick, max_cycles);
    let report = DrainReport {
        drained: true,
        drain_complete: complete,
        deployed_during_drain: deployed.len(),
        final_queue_depth: m.pending_lras(),
        checkpointed: m.journal_attached() && m.checkpoint(end).is_ok(),
        ..DrainReport::default()
    };
    Drained {
        sweep,
        report,
        tick: end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::QUIET_MAX_US;
    use medea_cluster::{Resources, Tag};
    use medea_core::LraRequest;

    fn req(app: u64) -> LraRequest {
        LraRequest::uniform(
            ApplicationId(app),
            1,
            Resources::new(1024, 1),
            vec![Tag::new("t")],
            vec![],
        )
    }

    /// Batches of at most 3, a 10 ms deadline.
    fn pending() -> PendingWork {
        PendingWork::new(AdmissionConfig {
            batch_max_size: 3,
            ..AdmissionConfig::default()
        })
    }

    fn offer(p: &mut PendingWork, app: u64, now_us: u64) {
        p.queue.offer("t", req(app), now_us).expect("admitted");
    }

    fn cycle(reason: CycleReason) -> Step {
        Step::Cycle { reason }
    }

    #[test]
    fn an_empty_batcher_waits_the_bound() {
        let p = pending();
        assert_eq!(
            p.next_step(5_000, false, false),
            Step::Wait { until_us: 25_000 }
        );
        assert_eq!(
            p.next_step(5_000, false, true),
            Step::Wait { until_us: 25_000 },
            "a wake with nothing to do waits again"
        );
    }

    #[test]
    fn a_queued_request_waits_until_its_close_then_closes() {
        let mut p = pending();
        offer(&mut p, 1, 1_000);
        // Before any batch-carrying cycle the gap is its bound.
        let quiet = 1_000 + QUIET_MAX_US;
        assert_eq!(
            p.next_step(1_000, false, false),
            Step::Wait { until_us: quiet }
        );
        assert_eq!(
            p.next_step(quiet, false, true),
            cycle(CycleReason::Close(BatchClose::Quiet))
        );
        // After a 0.2 ms round a lone request closes 0.2 ms after itself.
        p.take(CycleReason::Close(BatchClose::Quiet));
        p.queue.cycle_done(1, 200);
        offer(&mut p, 2, 20_000);
        assert_eq!(
            p.next_step(20_100, false, false),
            Step::Wait { until_us: 20_200 }
        );
        assert_eq!(
            p.next_step(20_200, false, true),
            cycle(CycleReason::Close(BatchClose::Quiet))
        );
    }

    #[test]
    fn a_full_batch_closes_on_size_at_once() {
        let mut p = pending();
        for app in 0..3 {
            offer(&mut p, app, 0);
        }
        assert_eq!(
            p.next_step(0, false, false),
            cycle(CycleReason::Close(BatchClose::Size))
        );
        assert_eq!(p.take(CycleReason::Close(BatchClose::Size)).batch.len(), 3);
    }

    #[test]
    fn a_release_or_a_spec_change_wakes_a_cycle_that_takes_the_queue_too() {
        let mut p = pending();
        p.releases.push(7);
        assert_eq!(p.next_step(0, false, true), cycle(CycleReason::Wake));
        let input = p.take(CycleReason::Wake);
        assert_eq!((input.batch.len(), input.releases), (0, vec![7]));

        offer(&mut p, 1, 0);
        p.spec_ops.push(SpecOp::Scale {
            app: 1,
            replicas: 4,
        });
        assert_eq!(p.next_step(10, false, true), cycle(CycleReason::Wake));
        let input = p.take(CycleReason::Wake);
        assert_eq!(input.batch.len(), 1, "the queued request rides along");
        assert_eq!(
            input.spec_ops,
            vec![SpecOp::Scale {
                app: 1,
                replicas: 4
            }]
        );
        assert!(p.releases.is_empty() && p.spec_ops.is_empty() && p.queue.is_empty());
    }

    #[test]
    fn a_due_close_names_the_rule_even_with_releases_waiting() {
        let mut p = pending();
        for app in 0..3 {
            offer(&mut p, app, 0);
        }
        p.releases.push(9);
        assert_eq!(
            p.next_step(0, false, false),
            cycle(CycleReason::Close(BatchClose::Size))
        );
    }

    #[test]
    fn converging_ticks_after_every_wake_and_only_after_one() {
        let mut p = pending();
        // A timeout with nothing pending.
        assert_eq!(p.next_step(0, true, false), Step::Wait { until_us: 20_000 });
        assert_eq!(
            p.next_step(20_000, true, true),
            cycle(CycleReason::Converge)
        );
        // A notify: the arrival rides the tick instead of waiting for its
        // own close.
        offer(&mut p, 1, 30_000);
        p.spec_ops.push(SpecOp::Upgrade { app: 1, version: 2 });
        assert_eq!(
            p.next_step(30_000, true, true),
            cycle(CycleReason::Converge)
        );
        let input = p.take(CycleReason::Converge);
        assert_eq!((input.batch.len(), input.spec_ops.len()), (1, 1));
        // Not woken: the ordinary rules apply.
        p.releases.push(1);
        assert_eq!(p.next_step(30_000, true, false), cycle(CycleReason::Wake));
    }

    #[test]
    fn the_drain_sweep_takes_everything_queued() {
        let mut p = pending();
        for app in 0..8 {
            offer(&mut p, app, 0);
        }
        p.releases.push(100);
        p.queue.close();
        p.shutdown = Some(true);
        assert_eq!(p.next_step(0, false, false), Step::Finish { drain: true });
        let sweep = p.take(CycleReason::Drain);
        assert_eq!(sweep.batch.len(), 8, "more than batch_max_size");
        assert_eq!(sweep.releases, vec![100]);
        assert!(p.queue.is_empty());
        // A graceful shutdown still lets a due convergence tick run first.
        assert_eq!(p.next_step(0, true, true), cycle(CycleReason::Converge));
    }

    #[test]
    fn a_crash_wins_over_every_other_step() {
        let mut p = pending();
        for app in 0..3 {
            offer(&mut p, app, 0);
        }
        p.releases.push(5);
        p.spec_ops.push(SpecOp::Scale {
            app: 0,
            replicas: 2,
        });
        p.shutdown = Some(false);
        for (converging, woken) in [(true, true), (true, false), (false, true), (false, false)] {
            for now_us in [0, 10_000, 1_000_000] {
                assert_eq!(
                    p.next_step(now_us, converging, woken),
                    Step::Finish { drain: false },
                    "converging {converging}, woken {woken}, at {now_us}"
                );
            }
        }
    }
}
