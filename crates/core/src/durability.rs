//! Durability: the write-ahead journal handle with its checkpoint
//! cadence, the work-preserving restart that rebuilds the scheduler
//! from it, and the invariant audits.
//!
//! Owns the **journal handle**. Cluster mutations are appended by the
//! cluster state's own hook; `app_spec` records are appended here.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use medea_cluster::{
    ApplicationId, ClusterState, ContainerId, ExecutionKind, NodeId, RestoreError,
};
use medea_journal::{
    CheckpointDoc, CheckpointSpec, JournalError, JournalOp, JournalRecord, JournalStats, Wal,
};

use crate::lifecycle::{AppSpec, ManagedApp};
use crate::medea::MedeaScheduler;

/// A node's view of its own allocations, gathered when nodes re-register
/// with a restarted resource manager (the anti-entropy input of
/// [`MedeaScheduler::restart`]). Mirrors YARN's NM re-registration: the
/// node reports which containers it is actually running, and the RM
/// reconciles journal-derived state against that ground truth.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// The reporting node.
    pub node: NodeId,
    /// Whether the node is up. An unavailable node still re-registers
    /// (e.g. draining) but its containers are treated as lost.
    pub available: bool,
    /// Containers the node is actually hosting.
    pub containers: Vec<ContainerId>,
}

/// What one work-preserving restart did: how state was rebuilt, what the
/// anti-entropy pass repaired, and whether the post-restart invariant
/// audit passed. Returned by [`MedeaScheduler::restart`].
#[derive(Debug, Clone, Default)]
pub struct RestartReport {
    /// Whether cluster state was rebuilt from checkpoint + journal tail
    /// (`false`: no journal attached, the in-memory state was kept and
    /// only reconciled against node reports).
    pub restored_from_journal: bool,
    /// Journal records replayed on top of the checkpoint.
    pub replayed_ops: usize,
    /// Wall-clock microseconds spent loading + replaying the journal.
    pub restore_us: u64,
    /// In-flight solves discarded (their results never commit).
    pub inflight_solves_dropped: usize,
    /// LRA batch entries from dropped solves re-entered into the pending
    /// queue as §5.4 resubmissions.
    pub inflight_lras_requeued: usize,
    /// Containers present in journal-derived state but absent from the
    /// owning node's report (lost during the outage): released.
    pub phantom_containers_released: usize,
    /// Phantom LRA containers routed through the recovery pipeline.
    pub lost_lra_containers: usize,
    /// Phantom task containers returned to their queues' accounting.
    pub lost_task_containers: usize,
    /// Containers reported by nodes that journal-derived state does not
    /// know (should not happen when the journal is intact; counted, not
    /// adopted).
    pub unknown_containers_reported: usize,
    /// Nodes that failed to re-register (absent from `reports`) or
    /// re-registered unavailable: routed through
    /// [`MedeaScheduler::node_lost`].
    pub nodes_marked_lost: usize,
    /// Error from the post-reconciliation invariant audit, if it failed.
    pub audit_error: Option<String>,
}

/// The write-ahead journal shared with the cluster state, plus the
/// periodic-checkpoint cadence that only exists once it is attached.
pub(super) struct Journal {
    wal: Arc<Mutex<Wal>>,
    /// Ticks between periodic checkpoints (0 disables the cadence; the
    /// initial checkpoint at attach time still happens).
    checkpoint_interval: u64,
    next_checkpoint: u64,
}

impl Journal {
    fn lock(&self) -> MutexGuard<'_, Wal> {
        // A poisoned journal mutex means a panic mid-append; the WAL's
        // own framing makes a torn line detectable at restore, so
        // continuing here is safe.
        self.wal
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// The desired specs a journal describes: the checkpoint carries the map
/// and `app_spec` records in the tail carry later changes (cluster
/// replay filters them).
fn desired_specs(doc: &CheckpointDoc, tail: &[JournalRecord]) -> BTreeMap<ApplicationId, AppSpec> {
    let mut desired: BTreeMap<ApplicationId, AppSpec> = doc
        .specs
        .iter()
        .map(|s| AppSpec::from_journal(s.app, s.replicas, s.version, s.budget))
        .collect();
    for record in tail {
        if let JournalOp::AppSpec {
            app,
            replicas,
            version,
            budget,
            retired,
        } = record.op
        {
            let (app, spec) = AppSpec::from_journal(app, replicas, version, budget);
            if retired {
                desired.remove(&app);
            } else {
                desired.insert(app, spec);
            }
        }
    }
    desired
}

impl MedeaScheduler {
    /// Attaches a write-ahead journal: installs an initial checkpoint of
    /// the current cluster state, then hooks the WAL into the state's
    /// mutation path so every subsequent place/release/retag/crash/
    /// recover is logged. `checkpoint_interval` is the tick cadence of
    /// periodic re-checkpoints (0: only the initial one).
    ///
    /// The checkpoint is installed *before* the hook goes live, so the
    /// log tail strictly follows the checkpoint epoch — restore never
    /// sees a record it cannot order.
    pub fn attach_journal(
        &mut self,
        mut wal: Wal,
        checkpoint_interval: u64,
    ) -> Result<(), JournalError> {
        wal.install_checkpoint(&self.checkpoint_doc(&self.state))?;
        let wal = Arc::new(Mutex::new(wal));
        self.state.attach_wal(Arc::clone(&wal));
        self.journal = Some(Journal {
            wal,
            checkpoint_interval,
            next_checkpoint: checkpoint_interval,
        });
        self.publish_gauges();
        Ok(())
    }

    /// Whether a journal is attached.
    pub fn journal_attached(&self) -> bool {
        self.journal.is_some()
    }

    /// Cumulative journal I/O statistics (zeros when no journal is
    /// attached).
    pub fn journal_stats(&self) -> JournalStats {
        self.journal
            .as_ref()
            .map(|j| j.lock().stats())
            .unwrap_or_default()
    }

    /// The checkpoint document of `state` plus the desired-spec map.
    fn checkpoint_doc(&self, state: &ClusterState) -> CheckpointDoc {
        let mut doc = state.checkpoint_doc();
        doc.specs = self
            .specs
            .iter()
            .map(|(&app, m)| m.spec.to_journal(app))
            .collect();
        doc
    }

    /// Installs a checkpoint of the current cluster state, truncating
    /// the replay tail. The document is serialized straight from the
    /// live state: in-flight solves hold proposals, not cluster state,
    /// so checkpointing composes with them. No-op without a journal.
    pub fn checkpoint(&mut self, now: u64) -> Result<(), JournalError> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        let doc = self.checkpoint_doc(&self.state);
        journal.lock().install_checkpoint(&doc)?;
        if let Some(journal) = &mut self.journal {
            journal.next_checkpoint = now.saturating_add(journal.checkpoint_interval.max(1));
        }
        self.publish_gauges();
        Ok(())
    }

    pub(super) fn maybe_checkpoint(&mut self, now: u64) {
        let due = self
            .journal
            .as_ref()
            .is_some_and(|j| j.checkpoint_interval > 0 && now >= j.next_checkpoint);
        if due {
            // Best effort on the periodic path: a failed checkpoint
            // leaves the longer replay tail in place, which restore
            // handles; the failure is visible in the journal stats.
            let _ = self.checkpoint(now);
        }
    }

    /// Sets the gauges that mirror the pending queue and the journal.
    /// Called at the end of every call that changes the queue or appends
    /// to the journal in bulk: a commit, a cancel, a node loss, a
    /// reconcile, a restart, a checkpoint and a spec append.
    pub(super) fn publish_gauges(&self) {
        let m = &self.metrics;
        m.queue_depth.set(self.pending.len() as i64);
        if let Some(journal) = &self.journal {
            let s = journal.lock().stats();
            m.journal_appends.set(s.records_appended as i64);
            m.journal_bytes.set(s.bytes_appended as i64);
            m.journal_checkpoints.set(s.checkpoints_installed as i64);
        }
    }

    /// Appends an `app_spec` record at the current epoch (no epoch
    /// bump: the spec is scheduler-layer desired state, not a cluster
    /// mutation — cluster replay filters it, restart's spec restore
    /// reads it back). No-op without a journal.
    pub(super) fn journal_spec(&mut self, app: ApplicationId, spec: AppSpec, retired: bool) {
        let Some(journal) = &self.journal else {
            return;
        };
        let CheckpointSpec {
            app,
            replicas,
            version,
            budget,
        } = spec.to_journal(app);
        let record = JournalRecord {
            epoch: self.state.epoch(),
            op: JournalOp::AppSpec {
                app,
                replicas,
                version,
                budget,
                retired,
            },
        };
        journal.lock().append_best_effort(&record);
        self.publish_gauges();
    }

    /// Cross-checks scheduler-visible invariants: the tag index and γ
    /// caches agree with ground-truth state, and allocation bookkeeping
    /// (node container lists, per-app lists, free-capacity arithmetic)
    /// is internally consistent.
    pub fn audit(&self) -> Result<(), String> {
        self.state.check_index_consistency()?;
        self.state.check_allocation_consistency()
    }

    pub(super) fn run_audit(&mut self) -> Option<String> {
        let err = self.audit().err();
        self.metrics.audit_runs.inc();
        if err.is_some() {
            self.metrics.audit_failures.inc();
        }
        err
    }

    /// Work-preserving restart after a resource-manager crash (the RM
    /// failover path; YARN's work-preserving recovery, adapted to the
    /// two-scheduler design):
    ///
    /// 1. **Drop volatile state.** Every in-flight solve died with the
    ///    process; their batches re-enter the pending queue through the
    ///    §5.4 resubmission path (attempt budgets still apply).
    /// 2. **Rebuild durable state.** With a journal attached, the live
    ///    [`ClusterState`] is discarded and rebuilt from the latest
    ///    checkpoint plus the journal tail; the tag index and γ caches
    ///    are rebuilt from scratch, never copied.
    /// 3. **Anti-entropy reconciliation.** Journal-derived state is
    ///    diffed against what re-registering nodes actually report:
    ///    phantom containers (in state, not on the node — lost during
    ///    the outage) are released and, for LRAs, routed through the
    ///    recovery pipeline with the usual fault-domain anti-affinity;
    ///    nodes that do not re-register (or report unavailable) go
    ///    through [`MedeaScheduler::node_lost`]; nodes that report
    ///    healthy after a journaled crash are brought back.
    /// 4. **Audit.** The state↔index↔γ invariants are verified; a
    ///    failure is reported (and counted) rather than panicking.
    ///
    /// The recovery ledger survives the restart: every container lost
    /// across the boundary stays accounted as
    /// `lost = replaced + unplaceable + pending`.
    ///
    /// In-memory submission-side state (pending queue, registered
    /// constraints, fault-domain marks) deliberately survives in memory:
    /// Medea models the YARN pattern where application masters re-submit
    /// outstanding asks on re-registration, so only *cluster* state is
    /// journal-derived.
    pub fn restart(
        &mut self,
        now: u64,
        reports: &[NodeReport],
    ) -> Result<RestartReport, RestoreError> {
        // Phase 1: volatile state. Any solve still out there belongs to
        // the previous incarnation; results handed to `commit` later
        // would double-count, so the in-flight table is emptied (which
        // opens the round gate) and the batches are requeued. Entries
        // cancelled mid-solve are gone, not requeued.
        let dropped = self.inflight.drain();
        let mut report = RestartReport {
            inflight_solves_dropped: dropped.len(),
            ..RestartReport::default()
        };
        for batch in dropped {
            for entry in batch.entries {
                if !batch.cancelled.contains(&entry.request.app) {
                    report.inflight_lras_requeued += 1;
                    self.resubmit(entry, now);
                }
            }
        }

        // Phase 2: durable state, from one read of the journal.
        if let Some(journal) = &self.journal {
            let t0 = Instant::now();
            let (doc, tail) = journal.lock().load()?;
            let wal = Arc::clone(&journal.wal);
            let doc = doc.ok_or(RestoreError::MissingCheckpoint)?;
            let (mut restored, replayed) = ClusterState::restore(&doc, &tail)?;
            // The journal wins on spec numbers; in-memory survivors
            // contribute their templates (like the pending queue,
            // templates are submission-side state that survives in
            // memory — after a cold restart they are re-derived from
            // live containers).
            let mut previous = std::mem::take(&mut self.specs);
            self.specs = desired_specs(&doc, &tail)
                .into_iter()
                .map(|(app, spec)| {
                    let template = previous.remove(&app).and_then(|m| m.template);
                    (app, ManagedApp { spec, template })
                })
                .collect();
            report.restore_us = t0.elapsed().as_micros() as u64;
            report.replayed_ops = replayed;
            report.restored_from_journal = true;
            restored.attach_wal(wal);
            self.state = restored;
        }

        // Phase 3: anti-entropy against node reports.
        let reported: HashMap<NodeId, &NodeReport> = reports.iter().map(|r| (r.node, r)).collect();
        let all_nodes: Vec<NodeId> = self.state.node_ids().collect();
        let mut lost_lras = BTreeMap::new();
        for node in all_nodes {
            match reported.get(&node) {
                Some(r) if r.available => {
                    if !self.state.is_available(node) {
                        // Crashed before the outage, healthy now: same
                        // path as a live recovery heartbeat (also clears
                        // the fault-domain marks placed on its behalf).
                        self.node_recovered(node);
                    }
                    let actual: HashSet<ContainerId> = r.containers.iter().copied().collect();
                    let believed: Vec<ContainerId> = self
                        .state
                        .containers_on(node)
                        .map(|c| c.to_vec())
                        .unwrap_or_default();
                    let known = |id| self.state.allocation(id).is_ok_and(|a| a.node == node);
                    report.unknown_containers_reported +=
                        r.containers.iter().filter(|&&id| !known(id)).count();
                    for id in believed {
                        if actual.contains(&id) {
                            continue;
                        }
                        // Phantom: the journal says it exists, the node
                        // says it does not. The node wins.
                        let Ok(alloc) = self.state.allocation(id).cloned() else {
                            continue;
                        };
                        if self.state.release(id).is_err() {
                            continue;
                        }
                        report.phantom_containers_released += 1;
                        match self.container_lost(&alloc, &mut lost_lras) {
                            ExecutionKind::Task => report.lost_task_containers += 1,
                            ExecutionKind::LongRunning => report.lost_lra_containers += 1,
                        }
                    }
                }
                _ => {
                    // Silent (no re-registration) or explicitly down:
                    // full node-loss semantics, idempotent if the
                    // journal already recorded the crash.
                    if self.state.is_available(node) {
                        report.nodes_marked_lost += 1;
                        self.node_lost(node, now);
                    }
                }
            }
        }
        // Route phantom LRA losses through the recovery pipeline. Unlike
        // node_lost, the hosting node is *up* — the containers just died
        // with the outage — so no fault-domain marking; the soft
        // anti-affinity still steers replacements off marked domains.
        self.enqueue_recovery(lost_lras, now);

        // Phase 4: invariants + metrics.
        report.audit_error = self.run_audit();
        let m = &self.metrics;
        m.restarts.inc();
        m.restart_restore_us.record(report.restore_us);
        m.restart_replayed_ops.record(report.replayed_ops as u64);
        m.restart_phantom_released
            .add(report.phantom_containers_released as u64);
        m.restart_inflight_requeued
            .add(report.inflight_lras_requeued as u64);
        m.solve_inflight.set(0);
        self.publish_gauges();
        Ok(report)
    }
}
