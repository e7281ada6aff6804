//! The desired-state reconciler: lifecycle-managed applications are
//! described by an [`AppSpec`], and once per scheduling round every spec
//! is diffed against observed state and the deltas enter the normal
//! batch path.
//!
//! Owns the **specs** (and the reconciler's activity counters): the
//! `specs` and `lifecycle_stats` fields of [`MedeaScheduler`].

use std::collections::{BTreeMap, HashMap};

use medea_cluster::{ApplicationId, ContainerId, ContainerRequest, NodeGroupId, NodeId};
use medea_constraints::{ConstraintError, PlacementConstraint};

use crate::lifecycle::{
    container_version, derive_phase, replica_template, version_tag, AppLifecycle, AppSpec,
    LifecycleStats, ManagedApp,
};
use crate::medea::{MedeaScheduler, PendingLra};
use crate::migration::{consolidate, Migration};
use crate::request::LraRequest;

impl MedeaScheduler {
    /// Submits an application under lifecycle management: registers its
    /// constraints and desired spec, journals the spec, and lets the
    /// reconciler emit the initial scale-up on the next scheduling
    /// round. Managed replicas are homogeneous — every replica is a
    /// clone of `template` (its `ver:`/`appid:` tags stripped; the
    /// reconciler attaches the spec version per placement).
    ///
    /// Unlike [`MedeaScheduler::submit_lra`], nothing is queued here:
    /// the desired state *is* the submission, and every placement delta
    /// — initial deployment, elastic scaling, upgrade replacements —
    /// flows through the same reconcile path.
    pub fn submit_managed_lra(
        &mut self,
        app: ApplicationId,
        template: ContainerRequest,
        constraints: Vec<PlacementConstraint>,
        spec: AppSpec,
    ) -> Result<(), ConstraintError> {
        self.constraint_manager
            .register_app(app, constraints, self.state.groups())?;
        let template = replica_template(template.resources, &template.tags);
        self.specs.insert(
            app,
            ManagedApp {
                spec,
                template: Some(template),
            },
        );
        self.journal_spec(app, spec, false);
        Ok(())
    }

    /// Sets the desired replica count of a managed app, journaling the
    /// change; the reconciler scales toward it on the next round. An
    /// unmanaged but deployed app is adopted into management first
    /// (spec derived from observed state, budget 1). Returns `false`
    /// when the app is unknown in both worlds.
    pub fn set_replicas(&mut self, app: ApplicationId, replicas: usize) -> bool {
        self.update_spec(app, |spec| spec.replicas = replicas)
    }

    /// Sets the desired version of a managed app, journaling the
    /// change; the reconciler rolls the upgrade one upgrade domain at a
    /// time under the disruption budget. Adopts a deployed-but-unmanaged
    /// app like [`MedeaScheduler::set_replicas`].
    pub fn set_version(&mut self, app: ApplicationId, version: u64) -> bool {
        self.update_spec(app, |spec| spec.version = version)
    }

    /// The one spec-mutation path: finds the app's spec (adopting a
    /// deployed-but-unmanaged app first), applies `change`, and journals
    /// the result. Returns `false` when there is nothing to manage.
    fn update_spec(&mut self, app: ApplicationId, change: impl FnOnce(&mut AppSpec)) -> bool {
        if !self.specs.contains_key(&app) && !self.adopt(app) {
            return false;
        }
        let managed = self.specs.get_mut(&app).expect("present or adopted");
        change(&mut managed.spec);
        let spec = managed.spec;
        self.journal_spec(app, spec, false);
        true
    }

    /// Adopts a deployed (or queued) app into lifecycle management:
    /// replicas = everything observed, version = the highest `ver:` tag
    /// seen (1 if none), budget 1. The template is re-derived lazily
    /// from a live container.
    fn adopt(&mut self, app: ApplicationId) -> bool {
        let running = self.state.app_containers(app).len();
        let incoming = self.incoming_containers(app);
        if running + incoming == 0 {
            return false;
        }
        let version = self
            .state
            .app_containers(app)
            .iter()
            .filter_map(|&id| self.state.allocation(id).ok())
            .filter_map(|a| container_version(&a.tags))
            .max()
            .unwrap_or(1);
        let spec = AppSpec::replicas(running + incoming).with_version(version);
        let template = None;
        self.specs.insert(app, ManagedApp { spec, template });
        true
    }

    /// The lifecycle view of one managed app (`None`: not managed).
    /// Phase and counts are derived from observed state on every call.
    pub fn app_lifecycle(&self, app: ApplicationId) -> Option<AppLifecycle> {
        let managed = self.specs.get(&app)?;
        let ids = self.state.app_containers(app);
        let running = ids.len();
        let at_version = ids
            .iter()
            .filter(|&&id| {
                self.state
                    .allocation(id)
                    .ok()
                    .map(|a| container_version(&a.tags).unwrap_or(1) == managed.spec.version)
                    .unwrap_or(false)
            })
            .count();
        let incoming = self.incoming_containers(app);
        Some(AppLifecycle {
            app,
            spec: managed.spec,
            phase: derive_phase(&managed.spec, running, at_version, incoming),
            running,
            at_version,
            incoming,
        })
    }

    /// Lifecycle views of every managed app, ascending app id.
    pub fn lifecycles(&self) -> Vec<AppLifecycle> {
        self.specs
            .keys()
            .filter_map(|&app| self.app_lifecycle(app))
            .collect()
    }

    /// Cumulative reconciler activity counters.
    pub fn lifecycle_stats(&self) -> LifecycleStats {
        self.lifecycle_stats
    }

    /// Containers headed toward `app` but not yet deployed: queued
    /// entries plus live in-flight batch entries (minus cancelled).
    fn incoming_containers(&self, app: ApplicationId) -> usize {
        self.undeployed()
            .filter(|p| p.request.app == app)
            .map(|p| p.request.num_containers())
            .sum()
    }

    /// Removes a spec from management, journaling the retirement so a
    /// restart cannot resurrect it. No-op for unmanaged apps.
    pub(super) fn retire_spec(&mut self, app: ApplicationId) {
        if let Some(managed) = self.specs.remove(&app) {
            self.journal_spec(app, managed.spec, true);
        }
    }

    /// Every active constraint (deployed apps + operator), owned.
    fn active_constraints(&self) -> Vec<PlacementConstraint> {
        self.constraint_manager
            .active_shared()
            .iter()
            .map(|s| s.constraint.clone())
            .collect()
    }

    /// The desired-state reconciler: one pass over every managed app,
    /// diffing spec against observed state and emitting placement
    /// deltas into the normal batch path. Runs at the top of each
    /// scheduling round (before the batch is cut), so deltas it emits
    /// join that same round's solve.
    ///
    /// Per app, in priority order:
    ///
    /// 1. **Drain** (`replicas == 0`): tear the app down through
    ///    [`MedeaScheduler::cancel_lra`] (queued deltas retracted,
    ///    containers released, constraints deregistered, spec retired).
    ///    Exempt from the disruption budget — the operator asked for
    ///    zero.
    /// 2. **Scale up** (observed + incoming < desired): one
    ///    all-or-nothing entry for the missing replicas, cloned from
    ///    the template at the spec version, entering the batch/ILP path
    ///    as a §5.4-style resubmission.
    /// 3. **Scale down** (observed + incoming > desired): retract
    ///    queued containers first (cheapest — nothing placed yet), then
    ///    release deployed victims picked by constraint impact (highest
    ///    weighted violation extent first, ties broken toward emptier
    ///    nodes via the index's free-capacity ordering, newest
    ///    container first). Exempt from the budget — the surplus is the
    ///    operator's ask.
    /// 4. **Rolling upgrade** (counts steady, old versions deployed):
    ///    walk the upgrade domains one at a time (see
    ///    [`MedeaScheduler::upgrade_step`]).
    pub(super) fn reconcile(&mut self, now: u64) {
        if self.specs.is_empty() {
            return;
        }
        self.lifecycle_stats.reconciles += 1;
        self.metrics.lifecycle_reconciles.inc();
        let apps: Vec<ApplicationId> = self.specs.keys().copied().collect();
        for app in apps {
            let spec = self.specs.get(&app).map(|m| m.spec).expect("key from map");
            let running = self.state.app_containers(app).len();
            let incoming = self.incoming_containers(app);
            if spec.replicas == 0 {
                let released = self.cancel_lra(app).released_containers;
                self.lifecycle_stats.scale_down_containers += released;
                self.metrics.lifecycle_scale_downs.add(released as u64);
                continue;
            }
            let total = running + incoming;
            match total.cmp(&spec.replicas) {
                std::cmp::Ordering::Less => {
                    let delta = spec.replicas - total;
                    if self.push_lifecycle_entry(app, delta, now) {
                        self.lifecycle_stats.scale_up_containers += delta;
                        self.metrics.lifecycle_scale_ups.add(delta as u64);
                    }
                }
                std::cmp::Ordering::Greater => {
                    let mut surplus = total - spec.replicas;
                    let retracted = self.retract_undeployed(app, Some(surplus));
                    surplus -= retracted.containers_removed.min(surplus);
                    if surplus > 0 {
                        self.release_scale_down_victims(app, surplus);
                    }
                }
                std::cmp::Ordering::Equal => {
                    if incoming == 0 {
                        self.upgrade_step(app, spec, running, now);
                    }
                }
            }
        }
        self.publish_gauges();
    }

    /// Queues one reconciler-emitted delta of `count` template clones
    /// at the spec version. Returns `false` when no template is known
    /// yet and none can be derived from a live container (cold restart
    /// of an app with zero survivors) — the delta is retried on a later
    /// round.
    fn push_lifecycle_entry(&mut self, app: ApplicationId, count: usize, now: u64) -> bool {
        let Some(template) = self.template_for(app) else {
            return false;
        };
        let version = self.specs.get(&app).map(|m| m.spec.version).unwrap_or(1);
        let mut tags = template.tags.clone();
        tags.push(version_tag(version));
        let container = ContainerRequest::new(template.resources, tags);
        let constraints = self.constraint_manager.app_constraints(app);
        self.pending.push_back(PendingLra {
            is_lifecycle: true,
            ..PendingLra::new(
                LraRequest::new(app, vec![container; count], constraints),
                now,
            )
        });
        true
    }

    /// The replica template of a managed app, re-deriving it from a
    /// live container when the in-memory copy did not survive a cold
    /// restart.
    fn template_for(&mut self, app: ApplicationId) -> Option<ContainerRequest> {
        if let Some(t) = self.specs.get(&app).and_then(|m| m.template.clone()) {
            return Some(t);
        }
        let derived = self
            .state
            .app_containers(app)
            .first()
            .copied()
            .and_then(|id| self.state.allocation(id).ok())
            .map(|a| replica_template(a.resources, &a.tags));
        if let (Some(m), Some(t)) = (self.specs.get_mut(&app), derived.clone()) {
            m.template = Some(t);
        }
        derived
    }

    /// Releases `n` deployed containers of `app`, picked by constraint
    /// impact: highest weighted violation extent first (removing the
    /// worst offender helps every constraint it strains), ties broken
    /// toward nodes higher in the index's free-memory ordering (vacating
    /// emptier nodes consolidates), then newest container first.
    fn release_scale_down_victims(&mut self, app: ApplicationId, n: usize) {
        let constraints = self.active_constraints();
        let rank: HashMap<NodeId, usize> = self
            .state
            .nodes_by_free_memory()
            .enumerate()
            .map(|(i, node)| (node, i))
            .collect();
        let mut victims: Vec<(ContainerId, f64, usize)> = self
            .state
            .app_containers(app)
            .iter()
            .copied()
            .filter_map(|id| {
                let alloc = self.state.allocation(id).ok()?;
                let extent: f64 = constraints
                    .iter()
                    .filter(|c| c.subject.matches_allocation(alloc))
                    .filter_map(|c| {
                        medea_constraints::check_container(&self.state, c, id)
                            .map(|ck| ck.extent * c.weight)
                    })
                    .sum();
                Some((
                    id,
                    extent,
                    rank.get(&alloc.node).copied().unwrap_or(usize::MAX),
                ))
            })
            .collect();
        victims.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.2.cmp(&b.2))
                .then(b.0.cmp(&a.0))
        });
        let mut released = 0usize;
        for (id, _, _) in victims.into_iter().take(n) {
            if self.state.release(id).is_ok() {
                released += 1;
            }
        }
        self.lifecycle_stats.scale_down_containers += released;
        self.metrics.lifecycle_scale_downs.add(released as u64);
    }

    /// One rolling-upgrade step: finds the first upgrade domain (falling
    /// back to racks, then the whole cluster) still hosting old-version
    /// containers of `app`, takes down as many of them as the disruption
    /// budget's headroom allows, and queues same-count replacements at
    /// the spec version. Only called when counts are steady, so the next
    /// step waits until this wave's replacements are deployed; the
    /// domain cursor is *derived* (first domain with old versions), so a
    /// restarted RM resumes at exactly the right domain.
    fn upgrade_step(&mut self, app: ApplicationId, spec: AppSpec, running: usize, now: u64) {
        let old: Vec<(ContainerId, NodeId)> = self
            .state
            .app_containers(app)
            .iter()
            .copied()
            .filter_map(|id| {
                let a = self.state.allocation(id).ok()?;
                if container_version(&a.tags).unwrap_or(1) == spec.version {
                    None
                } else {
                    Some((id, a.node))
                }
            })
            .collect();
        if old.is_empty() {
            return;
        }
        let headroom = spec.headroom(running);
        if headroom == 0 {
            self.lifecycle_stats.budget_denials += 1;
            self.metrics.disruption_budget_denials.inc();
            return;
        }
        let domains: Vec<Vec<NodeId>> = {
            let groups = self.state.groups();
            groups
                .sets_of(&NodeGroupId::upgrade_domain())
                .or_else(|_| groups.sets_of(&NodeGroupId::rack()))
                .unwrap_or_default()
        };
        let mut wave: Vec<ContainerId> = match domains
            .iter()
            .find(|set| old.iter().any(|(_, n)| set.contains(n)))
        {
            Some(set) => old
                .iter()
                .filter(|(_, n)| set.contains(n))
                .map(|(id, _)| *id)
                .collect(),
            // No domain covers any old container (none registered, or
            // stragglers outside every set): treat them as one domain.
            None => old.iter().map(|(id, _)| *id).collect(),
        };
        wave.sort_unstable();
        wave.truncate(headroom);
        let mut taken = 0usize;
        for &id in &wave {
            if self.state.release(id).is_ok() {
                taken += 1;
            }
        }
        if taken == 0 {
            return;
        }
        self.push_lifecycle_entry(app, taken, now);
        self.lifecycle_stats.upgraded_containers += taken;
        self.metrics.lifecycle_upgraded.add(taken as u64);
    }

    /// Runs one defragmentation pass: consolidates managed-app LRA
    /// containers off fragmented (emptiest) nodes onto tighter nodes
    /// that fit without new violations, each app capped by its
    /// disruption budget's headroom. Refused (empty result) while a
    /// solve is in flight — migrating under an uncommitted solve would
    /// manufacture avoidable γ-drift conflicts.
    pub fn defragment(&mut self, _now: u64) -> Vec<Migration> {
        if !self.inflight.is_empty() || self.specs.is_empty() {
            return Vec::new();
        }
        let constraints = self.active_constraints();
        let mut allowance: BTreeMap<ApplicationId, usize> = self
            .specs
            .iter()
            .map(|(&app, m)| (app, m.spec.headroom(self.state.app_containers(app).len())))
            .collect();
        let moves = consolidate(&mut self.state, &constraints, &mut allowance);
        self.lifecycle_stats.migrations += moves.len();
        self.metrics.migrations.add(moves.len() as u64);
        moves
    }
}
