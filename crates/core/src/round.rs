//! The one scheduling round (§3, §5.4, Fig. 6): batch the eligible
//! pending LRAs at the interval, solve them tentatively on the live state
//! under a rollback guard ([`MedeaScheduler::propose_all`]), and hand
//! each placement back to the single writer, which commits it or — on
//! conflict — resubmits it ([`MedeaScheduler::commit`]).
//!
//! Owns the **in-flight table**: the entries of every proposed-but-
//! uncommitted solve live there and nowhere else.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use medea_cluster::{ApplicationId, ClusterState, ContainerId, NodeId, ShardConfig, ShardPlan};
use medea_constraints::{ConstraintSource, PlacementConstraint};

use crate::lra::{broken_by, LraAlgorithm, LraScheduler, PlacerMode};
use crate::medea::{CoreMetrics, LraDeployment, MedeaScheduler, PendingLra};
use crate::recovery::{CircuitBreaker, RecoveryConfig};
use crate::request::{LraRequest, PlacementOutcome};

/// Where a batch entry's constraint footprint routes it during a sharded
/// round (see [`MedeaScheduler::propose_all`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryRoute {
    /// All affinity targets live in one shard: solve there.
    Pinned(usize),
    /// No footprint: any shard works; spread round-robin.
    Any,
    /// Constraints straddle shards: solve over the full node set.
    Residual,
}

/// An in-flight LRA solve: the output of [`MedeaScheduler::propose_all`],
/// consumed by [`MedeaScheduler::commit`].
///
/// Holds what the solver produced: the placements the algorithm proposed
/// on the cluster as it stood at propose time, and the per-entry
/// *violation baseline* — the number of violated constraint checks each
/// placement had on that state. At commit time the same count is
/// re-evaluated on live state: a higher count means the cluster drifted
/// under the solve (γ-cardinality drift) and the entry is conflicted
/// rather than committed.
///
/// The batch entries stay on the scheduler's in-flight table, keyed by
/// this solve's id: dropping an `InflightSolve` leaves them in flight
/// until [`MedeaScheduler::restart`] requeues them, so always hand it
/// back via [`MedeaScheduler::commit`].
#[derive(Debug)]
pub struct InflightSolve {
    id: u64,
    outcomes: Vec<PlacementOutcome>,
    /// Violated-check count per batch entry at propose time, right after
    /// its own placement was tentatively applied (`None` for unplaced
    /// entries or placements that state itself rejected — those skip the
    /// γ-drift comparison; the live allocation still validates capacity).
    baselines: Vec<Option<usize>>,
    /// Constraints of already-deployed LRAs + operator at propose time,
    /// shared by every solve of the round.
    deployed_constraints: Arc<[PlacementConstraint]>,
    proposed_at: u64,
    algorithm_time: Duration,
    containers: usize,
}

impl InflightSolve {
    /// Wall-clock time the placement algorithm spent on the batch.
    pub fn algorithm_time(&self) -> Duration {
        self.algorithm_time
    }

    /// Number of LRAs in the solved batch.
    pub fn lras(&self) -> usize {
        self.outcomes.len()
    }

    /// Total containers requested by the solved batch.
    pub fn containers(&self) -> usize {
        self.containers
    }

    /// The proposed (not yet committed) placements: `(app, nodes)` per
    /// placed batch entry, in batch order.
    pub fn placements(&self) -> Vec<(ApplicationId, Vec<NodeId>)> {
        self.outcomes
            .iter()
            .filter_map(|o| o.placement().map(|pl| (pl.app, pl.nodes.clone())))
            .collect()
    }
}

/// The scheduler-side half of one in-flight solve.
#[derive(Debug)]
pub(super) struct InflightBatch {
    pub(super) entries: Vec<PendingLra>,
    /// Apps cancelled while the solve was in flight: their entries are
    /// dead — commit skips them, restart does not requeue them.
    pub(super) cancelled: BTreeSet<ApplicationId>,
    /// Whether the round was split by a shard plan (conflicts then also
    /// count toward `core.shard_resubmissions_total`).
    sharded_round: bool,
}

/// The in-flight table: solve id → the entries that solve holds, from
/// propose to commit. Ordered, so restart requeues deterministically;
/// ids are never reused, so a solve from before a restart matches no
/// later entry.
#[derive(Debug, Default)]
pub(super) struct InflightTable {
    next_id: u64,
    solves: BTreeMap<u64, InflightBatch>,
}

impl InflightTable {
    pub(super) fn is_empty(&self) -> bool {
        self.solves.is_empty()
    }

    pub(super) fn len(&self) -> usize {
        self.solves.len()
    }

    fn insert(&mut self, entries: Vec<PendingLra>, sharded_round: bool) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let batch = InflightBatch {
            entries,
            cancelled: BTreeSet::new(),
            sharded_round,
        };
        self.solves.insert(id, batch);
        id
    }

    fn take(&mut self, id: u64) -> Option<InflightBatch> {
        self.solves.remove(&id)
    }

    /// Empties the table (restart: every solve out there is dead).
    pub(super) fn drain(&mut self) -> Vec<InflightBatch> {
        std::mem::take(&mut self.solves).into_values().collect()
    }

    /// Marks `app` cancelled in every solve holding it. Returns the
    /// entries hit and the recovery containers this call abandoned.
    pub(super) fn cancel(&mut self, app: ApplicationId) -> (usize, usize) {
        let (mut entries, mut abandoned_recovery) = (0, 0);
        for batch in self.solves.values_mut() {
            let of_app = batch.entries.iter().filter(|p| p.request.app == app);
            let hit = of_app.clone().count();
            if hit == 0 {
                continue;
            }
            entries += hit;
            if batch.cancelled.insert(app) {
                abandoned_recovery += of_app
                    .filter(|p| p.is_recovery)
                    .map(|p| p.request.num_containers())
                    .sum::<usize>();
            }
        }
        (entries, abandoned_recovery)
    }

    /// Every entry still headed for a commit (cancelled ones excluded),
    /// ascending solve id, batch order within a solve.
    pub(super) fn live(&self) -> impl Iterator<Item = &PendingLra> {
        self.solves.values().flat_map(|batch| {
            batch
                .entries
                .iter()
                .filter(|p| !batch.cancelled.contains(&p.request.app))
        })
    }
}

/// How a batch gets solved.
pub(super) struct Placer {
    pub(super) lra: LraScheduler,
    /// The exact arm's circuit breaker (`Ilp → Heuristic`): while it is
    /// open, batches configured for the exact arm get the heuristic.
    pub(super) breaker: CircuitBreaker,
    /// Scheduling cycles the solver is forced to degrade (injected stall).
    pub(super) stall_cycles_remaining: u32,
    /// Sharded-solving configuration (disabled by default: one
    /// monolithic solve per round).
    pub(super) shard: ShardConfig,
}

impl Placer {
    pub(super) fn new(lra: LraScheduler, recovery: &RecoveryConfig) -> Self {
        Placer {
            lra,
            breaker: CircuitBreaker::new(
                recovery.breaker_failure_threshold,
                recovery.breaker_open_cycles,
            ),
            stall_cycles_remaining: 0,
            shard: ShardConfig::disabled(),
        }
    }

    /// Runs the placement algorithm for one sub-batch of the round —
    /// restricted to one shard's nodes for a shard solve — and computes
    /// its commit-validation baselines, both tentatively on `state` (the
    /// live state, under the round's guard). Returns outcomes and
    /// baselines per entry plus the algorithm time.
    ///
    /// Baselines accumulate *within* the sub-batch (commit replays the
    /// same order on live state) under a rollback guard, so every
    /// sub-batch's baseline is computed on the state as the round found
    /// it. This is load-bearing for conflict detection: if a later shard's
    /// baseline saw an earlier shard's tentative placements, cross-shard
    /// γ-drift would be absorbed into the baseline and never surface as a
    /// commit conflict.
    fn solve_sub_batch(
        &mut self,
        state: &mut ClusterState,
        batch: &[PendingLra],
        deployed: &[PlacementConstraint],
        shard: Option<&[NodeId]>,
        metrics: &CoreMetrics,
    ) -> (Vec<PlacementOutcome>, Vec<Option<usize>>, Duration) {
        let requests: Vec<LraRequest> = batch.iter().map(|p| p.request.clone()).collect();

        let t0 = Instant::now();
        let outcomes = self.place_batch_on(state, &requests, deployed, shard, metrics);
        let algorithm_time = t0.elapsed();
        metrics.place_us.record_duration(algorithm_time);
        if shard.is_some() {
            metrics.shard_solve_us.record_duration(algorithm_time);
        }

        // Establish the commit-time validation baseline: apply the
        // proposed placements tentatively in batch order and count each
        // entry's violated constraint checks right after its own
        // allocation. Commit replays the same sequence for real; a
        // higher count then means the cluster drifted mid-solve. The
        // guard's drop restores the state for the round's next sub-batch
        // (see the method doc: baselines must not see other sub-batches).
        let mut work = state.scratch();
        let baselines = batch
            .iter()
            .zip(&outcomes)
            .map(|(pending, outcome)| {
                // No baseline for an unplaced entry, nor for a proposal the
                // state itself rejects (commit will fail it on capacity).
                let nodes = &outcome.placement()?.nodes;
                let ids = pending
                    .request
                    .allocate_all(&mut work, |_, k| nodes.get(k).copied())?;
                let constraints = pending.request.constraints.iter().chain(deployed);
                let broken = |&id| broken_by(&work, constraints.clone(), id).count();
                Some(ids.iter().map(broken).sum())
            })
            .collect();
        (outcomes, baselines, algorithm_time)
    }

    /// Runs the placement algorithm for one batch — restricted to the
    /// shard's nodes when solving a shard — routing the exact arm through
    /// its circuit breaker: injected stalls and solver degradations of an
    /// exact round count as failures, demoting service `Ilp → Heuristic`;
    /// the breaker probes the exact arm again after a cool-down, restoring
    /// it on a successful probe.
    fn place_batch_on(
        &mut self,
        state: &mut ClusterState,
        requests: &[LraRequest],
        deployed: &[PlacementConstraint],
        shard: Option<&[NodeId]>,
        metrics: &CoreMetrics,
    ) -> Vec<PlacementOutcome> {
        let Placer {
            lra,
            breaker,
            stall_cycles_remaining,
            ..
        } = self;
        if lra.algorithm != LraAlgorithm::Ilp {
            return lra
                .place_on(state, requests, deployed, shard, None)
                .outcomes;
        }
        let arm = match lra.ilp.mode {
            PlacerMode::Ilp if !breaker.allow() => PlacerMode::Heuristic,
            mode => mode,
        };
        // An injected stall fails whichever arm would have served and the
        // batch is carried by the heuristic.
        let stalled = *stall_cycles_remaining > 0;
        if stalled {
            *stall_cycles_remaining -= 1;
        }
        let serving = if stalled { PlacerMode::Heuristic } else { arm };
        let placed = lra.place_on(state, requests, deployed, shard, Some(serving));
        if arm == PlacerMode::Ilp {
            if stalled || placed.degraded {
                if breaker.on_failure() {
                    metrics.breaker_opened.inc();
                }
            } else if breaker.on_success() {
                metrics.breaker_closed.inc();
            }
        }
        metrics.breaker_state.set(breaker.state() as i64);
        metrics.placer_mode.set(arm.code());
        placed.outcomes
    }
}

impl MedeaScheduler {
    /// Phase 1 of the placement pipeline (§5.3: the LRA scheduler runs
    /// off the critical path): runs the placement algorithm for the
    /// eligible pending batch on the live state under one
    /// [`medea_cluster::Scratch`] guard — every tentative placement is
    /// rolled back before this returns, and no copy of the cluster is
    /// made — and returns the proposals for a later
    /// [`MedeaScheduler::commit`]. The live state is free to mutate —
    /// task containers, crashes, completions — while the solves are
    /// conceptually in flight.
    ///
    /// Returns an empty vector (without consuming a cycle) when the
    /// interval has not elapsed, the queue is empty or entirely backed
    /// off, or a solve is already in flight. Each returned solve must be
    /// handed back via [`MedeaScheduler::commit`]; new rounds are refused
    /// until all are.
    ///
    /// A round is **sharded** iff sharding is configured and the
    /// [`ShardPlan`] built from the cluster's rack/service-unit groups
    /// has more than one shard; otherwise the whole batch is one solve
    /// over the full node set and no plan is built. In a sharded round
    /// each batch entry is routed by its constraint footprint:
    ///
    /// - own constraint over a group that straddles shards → the
    ///   cross-shard **residual** solve (full node set);
    /// - affinity targets carried by nodes of exactly one shard → pinned
    ///   to that shard;
    /// - affinity targets spanning several shards → residual;
    /// - no footprint → round-robin across shards, freest shard first
    ///   (the `ClusterIndex` free-memory ordering).
    ///
    /// Every solve and its baseline run on the state as it stood when the
    /// round opened (each sub-solve's tentative placements are rolled
    /// back before the next starts), so interactions between shards
    /// (e.g. a deployed cardinality constraint spanning two shards)
    /// surface as γ-drift commit conflicts and are reconciled by the
    /// usual §5.4 rollback + resubmission path.
    pub fn propose_all(&mut self, now: u64) -> Vec<InflightSolve> {
        // Durability cadence runs ahead of the scheduling gates: a quiet
        // queue must not starve checkpoints.
        self.maybe_checkpoint(now);
        if !self.inflight.is_empty() || now < self.next_run {
            return Vec::new();
        }
        // Desired-state reconciliation runs at the top of the round, so
        // the deltas it emits (scale-ups, upgrade replacements) join
        // this round's batch. No-op without managed specs.
        self.reconcile(now);
        if self.pending.is_empty() {
            return Vec::new();
        }
        // Recovery retries back off between attempts: only entries whose
        // backoff has elapsed join this batch; the rest stay queued. If
        // nothing is eligible the cycle is skipped entirely (next_run is
        // not advanced, so the next tick re-checks).
        let (batch, deferred): (Vec<PendingLra>, Vec<PendingLra>) =
            self.pending.drain(..).partition(|p| p.not_before <= now);
        self.pending = deferred.into();
        if batch.is_empty() {
            return Vec::new();
        }
        self.next_run = now + self.interval;
        self.stats.cycles += 1;
        self.metrics.cycles.inc();
        // Constraints of deployed LRAs + operator, minus the new batch's
        // own (those travel with the requests).
        let deployed: Arc<[PlacementConstraint]> = {
            let batch_apps: Vec<ApplicationId> = batch.iter().map(|p| p.request.app).collect();
            self.constraint_manager
                .active_shared()
                .iter()
                .filter(|s| match s.source {
                    ConstraintSource::Application(a) => !batch_apps.contains(&a),
                    ConstraintSource::Operator => true,
                })
                .map(|s| s.constraint.clone())
                .collect()
        };

        let shard = self.placer.shard;
        let plan = shard
            .enabled()
            .then(|| ShardPlan::build(self.state.groups(), shard.target_shards))
            .filter(|plan| plan.num_shards() > 1);
        let jobs = match &plan {
            Some(plan) => self.route_batch(plan, batch),
            None => vec![(None, batch)],
        };
        if plan.is_some() {
            let active = jobs.iter().filter(|(shard, _)| shard.is_some()).count();
            self.metrics.shards_active.set(active as i64);
        }

        // Every sub-solve places on the live state, one after another,
        // under this one guard; each solver stage and the baseline
        // bookkeeping also nest their own. The guard drops before the
        // round returns, so the live state is as found and no copy of the
        // cluster is made.
        let clones_before = medea_cluster::state_clones();
        let mut work = self.state.scratch();
        let mut solves = Vec::with_capacity(jobs.len());
        for (shard, sub) in jobs {
            let restricted = shard.zip(plan.as_ref()).map(|(s, p)| p.nodes(s));
            let (outcomes, baselines, algorithm_time) =
                self.placer
                    .solve_sub_batch(&mut work, &sub, &deployed, restricted, &self.metrics);
            let containers = sub.iter().map(|p| p.request.num_containers()).sum();
            solves.push(InflightSolve {
                id: self.inflight.insert(sub, plan.is_some()),
                outcomes,
                baselines,
                deployed_constraints: Arc::clone(&deployed),
                proposed_at: now,
                algorithm_time,
                containers,
            });
        }
        drop(work);
        self.metrics.solve_inflight.set(self.inflight.len() as i64);
        self.metrics
            .state_clones
            .add(medea_cluster::state_clones() - clones_before);
        solves
    }

    /// Splits a sharded round's batch into its sub-batches: one per shard
    /// that received entries (ascending shard), then the cross-shard
    /// residual (`None`) if any entry needs the full node set.
    fn route_batch(
        &self,
        plan: &ShardPlan,
        batch: Vec<PendingLra>,
    ) -> Vec<(Option<usize>, Vec<PendingLra>)> {
        let k = plan.num_shards();
        let mut sub: Vec<Vec<PendingLra>> = (0..k).map(|_| Vec::new()).collect();
        let mut residual: Vec<PendingLra> = Vec::new();
        // Round-robin order for footprint-free entries: shards by first
        // appearance in the free-memory ordering (freest shard first, so
        // load spreads toward capacity), then any shard it never reached.
        let mut seen = vec![false; k];
        let order: Vec<usize> = self
            .state
            .nodes_by_free_memory()
            .filter_map(|n| plan.shard_of(n))
            .chain(0..k)
            .filter(|&s| !std::mem::replace(&mut seen[s], true))
            .take(k)
            .collect();
        let mut rr = 0usize;
        for p in batch {
            match Self::route_entry(&self.state, plan, &p.request) {
                // A pinned shard outside the plan (or an empty
                // round-robin order) means the plan and the routing
                // disagree — degrade that entry to the cross-shard
                // residual instead of panicking mid-round.
                EntryRoute::Pinned(s) => match sub.get_mut(s) {
                    Some(bucket) => bucket.push(p),
                    None => residual.push(p),
                },
                EntryRoute::Any => {
                    let slot = order
                        .get(rr % order.len().max(1))
                        .and_then(|&s| sub.get_mut(s));
                    match slot {
                        Some(bucket) => {
                            bucket.push(p);
                            rr += 1;
                        }
                        None => residual.push(p),
                    }
                }
                EntryRoute::Residual => residual.push(p),
            }
        }
        sub.into_iter()
            .enumerate()
            .map(|(s, sb)| (Some(s), sb))
            .chain([(None, residual)])
            .filter(|(_, sb)| !sb.is_empty())
            .collect()
    }

    /// Routes one batch entry by its constraint footprint (see
    /// [`MedeaScheduler::propose_all`]). Only the entry's *own*
    /// constraints pin or residualize it; interactions with deployed
    /// constraints that span shards are deliberately left to commit-time
    /// γ-drift validation.
    fn route_entry(state: &ClusterState, plan: &ShardPlan, request: &LraRequest) -> EntryRoute {
        let mut shards: BTreeSet<usize> = BTreeSet::new();
        for c in &request.constraints {
            if !plan.is_aligned(&c.group) {
                return EntryRoute::Residual;
            }
            for leaf in c.expr.leaves() {
                // Only minimum-cardinality (affinity-like) leaves pin the
                // entry near their targets; anti-affinity leaves have
                // nothing to co-locate with, and their violations are
                // scored against the full state from any shard.
                if leaf.cardinality.min == 0 {
                    continue;
                }
                for n in state.nodes_with_all_tags(leaf.target.tags()) {
                    if let Some(s) = plan.shard_of(n) {
                        shards.insert(s);
                    }
                }
            }
        }
        let mut it = shards.iter();
        match (it.next(), it.next()) {
            (None, _) => EntryRoute::Any,
            (Some(&s), None) => EntryRoute::Pinned(s),
            (Some(_), Some(_)) => EntryRoute::Residual,
        }
    }

    /// Phase 3 of the placement pipeline: re-validates every proposed
    /// placement against the **live** state — capacity consumed by task
    /// containers mid-solve, nodes crashed mid-solve, γ-cardinality
    /// drift past the propose-time baseline — commits the still-valid
    /// subset, and resubmits conflicted entries to the next interval
    /// (the §5.4 conflict policy).
    ///
    /// Returns the LRAs deployed.
    pub fn commit(&mut self, now: u64, solve: InflightSolve) -> Vec<LraDeployment> {
        // Taking the entries out of the table is the dead-incarnation
        // check: a solve from before the last restart was already
        // requeued by restart(), and committing it would double-place
        // the batch.
        let Some(batch) = self.inflight.take(solve.id) else {
            return Vec::new();
        };
        let commit_start = Instant::now();
        self.metrics.solve_inflight.set(self.inflight.len() as i64);
        self.metrics
            .placement_staleness_ticks
            .record(now.saturating_sub(solve.proposed_at));

        let mut deployed_out = Vec::new();
        for ((pending, outcome), baseline) in batch
            .entries
            .into_iter()
            .zip(solve.outcomes)
            .zip(solve.baselines)
        {
            // Apps released while this solve was in flight: their entries
            // are dead — neither deployed nor resubmitted (`cancel_lra`
            // already freed their containers and settled the ledger).
            if batch.cancelled.contains(&pending.request.app) {
                continue;
            }
            let PlacementOutcome::Placed(placement) = outcome else {
                self.stats.lras_unplaced += 1;
                self.metrics.lras_unplaced.inc();
                self.resubmit(pending, now);
                continue;
            };
            let Some(containers) = self.commit_validated(
                &pending.request,
                &placement.nodes,
                baseline,
                &solve.deployed_constraints,
            ) else {
                self.stats.commit_conflicts += 1;
                self.metrics.commit_conflicts.inc();
                if batch.sharded_round {
                    // Cross-shard interference (or ordinary drift)
                    // detected during a sharded round: tracked separately
                    // so operators can see how much re-solving sharding
                    // costs.
                    self.stats.shard_resubmissions += 1;
                    self.metrics.shard_resubmissions.inc();
                }
                self.resubmit(pending, now);
                continue;
            };
            self.stats.lras_deployed += 1;
            if pending.is_recovery {
                self.ledger.replaced(containers.len());
            }
            self.metrics.lras_deployed.inc();
            if pending.is_recovery {
                self.metrics.recovery_replaced.add(containers.len() as u64);
                self.metrics
                    .recovery_latency_ticks
                    .record(now.saturating_sub(pending.submitted_at));
            }
            deployed_out.push(LraDeployment {
                app: pending.request.app,
                nodes: placement.nodes,
                containers,
                latency_ticks: now.saturating_sub(pending.submitted_at),
                algorithm_time: solve.algorithm_time,
                recovered: pending.is_recovery,
            });
        }
        // The cycle spans both phases: algorithm time plus commit
        // validation. The queue and journal gauges are published after
        // resubmissions have settled and the commits are journaled.
        let m = &self.metrics;
        m.cycle_time_us
            .record_duration(solve.algorithm_time + commit_start.elapsed());
        let idx = self.state.index_stats();
        m.index_update_ops.set(idx.update_ops as i64);
        m.index_distinct_tags.set(idx.distinct_tags as i64);
        self.publish_gauges();
        deployed_out
    }

    /// Commits a placement against the live state with commit-time
    /// re-validation; on any failure all of the LRA's containers are
    /// rolled back (§5.4 conflict handling) and `None` is returned.
    /// Failure modes:
    ///
    /// - allocation fails — capacity consumed by task containers or the
    ///   node crashed (went unavailable) while the solve was in flight;
    /// - γ-cardinality drift — the placement's violated-check count on
    ///   live state exceeds the propose-time baseline, i.e. concurrent
    ///   mutations made the proposal worse than what the solver chose.
    fn commit_validated(
        &mut self,
        request: &LraRequest,
        nodes: &[NodeId],
        baseline: Option<usize>,
        deployed: &[PlacementConstraint],
    ) -> Option<Vec<ContainerId>> {
        let ids = request.allocate_all(&mut self.state, |_, k| nodes.get(k).copied())?;
        if let Some(base) = baseline {
            let constraints = request.constraints.iter().chain(deployed);
            let broken = |&id| broken_by(&self.state, constraints.clone(), id).count();
            let live: usize = ids.iter().map(broken).sum();
            if live > base {
                for id in ids {
                    let _ = self.state.release(id);
                }
                return None;
            }
        }
        Some(ids)
    }

    /// Requeues an LRA after a conflict or failed placement, dropping it
    /// once the attempt budget is exhausted. Recovery requests back off
    /// exponentially between attempts and, when exhausted, are recorded
    /// as explicitly unplaceable (their app keeps its constraints — it is
    /// still partially deployed) rather than silently dropped.
    pub(super) fn resubmit(&mut self, mut pending: PendingLra, now: u64) {
        pending.attempts += 1;
        if pending.is_recovery {
            if pending.attempts >= self.recovery.max_attempts {
                let n = pending.request.num_containers();
                self.ledger.unplaceable(pending.request.app, n);
                self.metrics.recovery_exhausted.add(n as u64);
            } else {
                pending.not_before = now + self.recovery.backoff(pending.attempts);
                self.pending.push_back(pending);
            }
            return;
        }
        if pending.attempts >= self.max_attempts {
            if pending.is_lifecycle {
                // A reconciler delta that cannot place evaporates
                // without dropping the app: the app is still deployed
                // and managed, its constraints stay registered, and the
                // reconciler re-emits the delta while the spec is
                // unmet. Desired-state convergence retries forever;
                // only the per-entry attempt budget resets.
                return;
            }
            self.stats.lras_dropped += 1;
            self.dropped_log.push(pending.request.app);
            self.metrics.lras_dropped.inc();
            self.constraint_manager.remove_app(pending.request.app);
        } else {
            self.pending.push_back(pending);
        }
    }
}
