//! Application lifecycle: desired-state specs and the reconciliation
//! state machine.
//!
//! The paper's Medea places an LRA once and forgets it; real shared
//! production clusters scale, upgrade, and repack LRAs continuously.
//! This module is the *vocabulary* of that extension — [`AppSpec`]
//! (desired replicas, version, disruption budget) and the derived
//! [`LifecyclePhase`] — while the reconciler itself lives on
//! [`crate::MedeaScheduler`]: each scheduling round it diffs desired
//! against observed state and emits placement deltas that ride the
//! normal batch/ILP pipeline as §5.4 resubmissions.
//!
//! Phases form the state machine
//! `Pending → Scaling → Steady → Upgrading → Draining → Retired`;
//! every phase is **derived from observed state**, never stored, so a
//! restarted resource manager re-derives exactly where it was (e.g.
//! which upgrade domain a rolling upgrade had reached) from the
//! journal-restored allocations and their [`version_tag`]s.

use medea_cluster::{ApplicationId, ContainerRequest, Resources, Tag};
use medea_journal::CheckpointSpec;

/// Reserved tag namespace carrying a container's application version:
/// `ver:<n>`. Attached to every container the reconciler places, it is
/// journaled and checkpointed with the allocation's tag list, which is
/// what lets a rolling upgrade resume at the correct upgrade domain
/// after an RM crash.
pub const VERSION_TAG_PREFIX: &str = "ver:";

/// The `ver:<n>` tag for version `n`.
pub fn version_tag(version: u64) -> Tag {
    Tag::new(format!("{VERSION_TAG_PREFIX}{version}"))
}

/// Extracts the version from a `ver:<n>` tag, `None` for other tags.
pub fn tag_version(tag: &Tag) -> Option<u64> {
    tag.as_str().strip_prefix(VERSION_TAG_PREFIX)?.parse().ok()
}

/// The version a container runs, from its tag list. `None` means the
/// container was placed outside lifecycle management; version
/// comparisons treat it as version 1 (the adoption baseline), so
/// adopting a deployed app does not immediately churn-replace its
/// untagged containers — only a real version bump does.
pub fn container_version(tags: &[Tag]) -> Option<u64> {
    tags.iter().find_map(tag_version)
}

/// The replica template behind a container: its resources and tags minus
/// the per-placement `appid:` and `ver:` tags, which the reconciler
/// attaches again on every placement.
pub(crate) fn replica_template(resources: Resources, tags: &[Tag]) -> ContainerRequest {
    ContainerRequest::new(
        resources,
        tags.iter()
            .filter(|t| !t.is_app_id() && tag_version(t).is_none())
            .cloned(),
    )
}

/// Desired state of one lifecycle-managed application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppSpec {
    /// Desired replica count.
    pub replicas: usize,
    /// Desired application version; containers carry it as a
    /// [`version_tag`].
    pub version: u64,
    /// Disruption budget: the maximum number of replicas the reconciler
    /// may *voluntarily* take down at once (rolling-upgrade takedowns,
    /// defragmentation moves). Involuntary losses (crashes) consume the
    /// budget first: with `replicas - running` already down, only the
    /// remainder is available for voluntary disruption.
    pub disruption_budget: usize,
}

impl AppSpec {
    /// A spec with the given replica count, version 1, budget 1.
    pub fn replicas(replicas: usize) -> Self {
        AppSpec {
            replicas,
            version: 1,
            disruption_budget: 1,
        }
    }

    /// Builder: sets the version.
    pub fn with_version(mut self, version: u64) -> Self {
        self.version = version;
        self
    }

    /// Builder: sets the disruption budget.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.disruption_budget = budget;
        self
    }

    /// Voluntary-disruption headroom given `running` deployed replicas:
    /// the budget minus the involuntary shortfall. Zero while crashes
    /// have already taken more replicas down than the budget allows, so
    /// chaos can never push total disruption past the budget.
    pub fn headroom(&self, running: usize) -> usize {
        self.disruption_budget
            .saturating_sub(self.replicas.saturating_sub(running))
    }

    /// The journal form of this spec — the four numbers an `app_spec`
    /// record and a checkpoint's spec list both carry.
    pub(crate) fn to_journal(self, app: ApplicationId) -> CheckpointSpec {
        CheckpointSpec {
            app: app.0,
            replicas: self.replicas as u64,
            version: self.version,
            budget: self.disruption_budget as u64,
        }
    }

    /// Inverse of [`AppSpec::to_journal`], from the four journaled numbers.
    pub(crate) fn from_journal(
        app: u64,
        replicas: u64,
        version: u64,
        budget: u64,
    ) -> (ApplicationId, AppSpec) {
        let spec = AppSpec {
            replicas: replicas as usize,
            version,
            disruption_budget: budget as usize,
        };
        (ApplicationId(app), spec)
    }
}

/// Where an application currently is in its lifecycle. Derived from
/// observed state by [`crate::MedeaScheduler::app_lifecycle`] on every
/// query — never stored, so it cannot go stale or diverge from the
/// cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecyclePhase {
    /// Spec registered, nothing deployed yet.
    Pending,
    /// Deployed replica count differs from the spec (deltas queued or
    /// in flight).
    Scaling,
    /// Deployed replicas match the spec at the desired version.
    Steady,
    /// Deployed replicas run an older version; the rolling upgrade is
    /// walking the upgrade domains.
    Upgrading,
    /// Spec retired but containers remain (being torn down).
    Draining,
    /// Spec retired and no containers remain.
    Retired,
}

impl LifecyclePhase {
    /// Stable lower-case name (wire protocol, status boards).
    pub fn name(&self) -> &'static str {
        match self {
            LifecyclePhase::Pending => "pending",
            LifecyclePhase::Scaling => "scaling",
            LifecyclePhase::Steady => "steady",
            LifecyclePhase::Upgrading => "upgrading",
            LifecyclePhase::Draining => "draining",
            LifecyclePhase::Retired => "retired",
        }
    }
}

/// Point-in-time lifecycle view of one managed application: the spec,
/// the derived phase, and the observed counts the derivation used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppLifecycle {
    /// The application.
    pub app: ApplicationId,
    /// Its desired state.
    pub spec: AppSpec,
    /// Derived phase.
    pub phase: LifecyclePhase,
    /// Deployed containers observed.
    pub running: usize,
    /// Deployed containers already at `spec.version`.
    pub at_version: usize,
    /// Containers queued or in flight toward this app (scale-up deltas,
    /// upgrade replacements, recovery).
    pub incoming: usize,
}

/// Scheduler-side record of one managed application.
#[derive(Debug, Clone)]
pub(crate) struct ManagedApp {
    /// Desired state.
    pub spec: AppSpec,
    /// Replica template the reconciler clones for scale-up deltas and
    /// upgrade replacements (no `ver:`/`appid:` tags — those are
    /// attached per placement). `None` after a cold restart restored the
    /// spec from the journal but no template survived in memory; the
    /// reconciler re-derives it from any live container of the app.
    pub template: Option<ContainerRequest>,
}

/// Counters of reconciler activity (see also the `core.lifecycle_*`
/// metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleStats {
    /// Reconcile passes that inspected at least one managed app.
    pub reconciles: usize,
    /// Containers requested by scale-up deltas.
    pub scale_up_containers: usize,
    /// Deployed containers released by scale-downs and drains.
    pub scale_down_containers: usize,
    /// Old-version containers replaced by rolling upgrades.
    pub upgraded_containers: usize,
    /// Reconcile steps that wanted to disrupt but had zero headroom
    /// left under the disruption budget.
    pub budget_denials: usize,
    /// Containers moved by defragmentation passes.
    pub migrations: usize,
}

/// Derives the lifecycle phase from observed counts.
///
/// Precedence: a retired/zero-replica spec drains toward `Retired`;
/// an app with nothing deployed is `Pending`; deployed old-version
/// containers mean `Upgrading`; any count mismatch or in-flight delta
/// means `Scaling`; otherwise `Steady`.
pub(crate) fn derive_phase(
    spec: &AppSpec,
    running: usize,
    at_version: usize,
    incoming: usize,
) -> LifecyclePhase {
    if spec.replicas == 0 {
        return if running + incoming == 0 {
            LifecyclePhase::Retired
        } else {
            LifecyclePhase::Draining
        };
    }
    if running == 0 {
        return LifecyclePhase::Pending;
    }
    if at_version < running {
        return LifecyclePhase::Upgrading;
    }
    if running != spec.replicas || incoming > 0 {
        return LifecyclePhase::Scaling;
    }
    LifecyclePhase::Steady
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_tags_round_trip() {
        let t = version_tag(7);
        assert_eq!(t.as_str(), "ver:7");
        assert_eq!(tag_version(&t), Some(7));
        assert_eq!(tag_version(&Tag::new("hbase")), None);
        assert_eq!(tag_version(&Tag::new("ver:x")), None);
        assert_eq!(
            container_version(&[Tag::new("svc"), version_tag(3)]),
            Some(3)
        );
        assert_eq!(container_version(&[Tag::new("svc")]), None);
    }

    #[test]
    fn headroom_absorbs_involuntary_losses() {
        let spec = AppSpec::replicas(10).with_budget(2);
        assert_eq!(spec.headroom(10), 2, "all up: full budget");
        assert_eq!(spec.headroom(9), 1, "one crashed: one voluntary left");
        assert_eq!(spec.headroom(8), 0, "budget consumed by crashes");
        assert_eq!(spec.headroom(5), 0, "never negative");
        assert_eq!(spec.headroom(12), 2, "over-replicated: full budget");
    }

    #[test]
    fn phase_derivation_covers_the_state_machine() {
        let spec = AppSpec::replicas(4).with_version(2);
        assert_eq!(derive_phase(&spec, 0, 0, 0), LifecyclePhase::Pending);
        assert_eq!(derive_phase(&spec, 0, 0, 4), LifecyclePhase::Pending);
        assert_eq!(derive_phase(&spec, 2, 2, 2), LifecyclePhase::Scaling);
        assert_eq!(derive_phase(&spec, 4, 4, 0), LifecyclePhase::Steady);
        assert_eq!(derive_phase(&spec, 4, 2, 0), LifecyclePhase::Upgrading);
        let retired = AppSpec {
            replicas: 0,
            ..spec
        };
        assert_eq!(derive_phase(&retired, 2, 2, 0), LifecyclePhase::Draining);
        assert_eq!(derive_phase(&retired, 0, 0, 0), LifecyclePhase::Retired);
    }
}
