//! LP-relaxation fast-path placer (the CvxCluster direction).
//!
//! Exact branch and bound over the Fig. 5 MILP cannot reach batch sizes
//! in the thousands. This module adds a third placer arm between the
//! exact ILP and the greedy heuristic:
//!
//! 0. **Anchor** — run the §5.3 heuristic the model is anchored on; if
//!    it is clean (DESIGN.md §5c), serve it through step 4's validation;
//! 1. **Relax** — solve the LP relaxation of the *same* Fig. 5 model
//!    with the sparse revised simplex, warm-started from the caller's
//!    [`crate::IlpBasisCache`] slot (the MILP's root LP is the identical
//!    problem, so the two arms share warmth across rounds);
//! 2. **Round** — turn the fractional solution into an integral
//!    placement by seeded randomized rounding, tentatively on the
//!    caller's state under a rollback guard: requests are processed in
//!    a canonical order (descending `S_i`, then application id), each
//!    container samples a candidate node proportionally to its share of
//!    its class's fractional `x` row among capacity-feasible candidates
//!    (a systematic split: on an integral row no draw decides anything);
//!    a rounded request whose containers break a *hard* constraint
//!    (cardinality/γ, affinity, anti-affinity) is released again;
//! 3. **Residue** — requests that could not be rounded feasibly are
//!    re-solved with the exact MILP against the partially-placed working
//!    state (the residue is typically a small fraction of the batch, so
//!    the exact solve is cheap);
//! 4. **Validate** — every returned placement was actually allocated on
//!    the guarded state (capacity-checked by construction) and
//!    re-checked against every hard constraint; a request that cannot be
//!    made clean is returned [`PlacementOutcome::Unplaced`] — an
//!    infeasible placement is *never* committed. The validated anchor is
//!    served instead unless the rounding scores higher on the model.
//!
//! The same eviction routine (`evict_violating`) ends steps 2 and 4. The
//! arm reports `core.relax_*` metrics (LP/rounding/residue time, residue
//! size, objective gap), a [`RelaxReport`], and whether it degraded, so
//! the scheduler's degradation ladder can demote it to the heuristic on
//! repeated rounding failure.

use std::time::Instant;

use medea_cluster::{ClusterState, ContainerId, NodeId};
use medea_constraints::{check_container, PlacementConstraint};
use medea_rand::rngs::StdRng;
use medea_rand::{RngCore, SeedableRng};
use medea_solver::{LpStatus, Simplex, SolveEvent, SolveInstrumentation};

use crate::ilp::{self, IlpBasisCache, IlpConfig, Prep, Prepared};
use crate::obs_bridge::PlacerMetrics;
use crate::request::{BatchPlacement, LraPlacement, LraRequest, PlacementOutcome};

/// Which placer arm serves a batch: the quality-vs-latency ladder.
///
/// The scheduler degrades `Ilp → Relaxed → Heuristic` under sustained
/// solver failure and probes back upward (see
/// [`crate::DegradationLadder`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacerMode {
    /// Exact branch and bound over the Fig. 5 MILP (§5.2).
    Ilp,
    /// LP relaxation + randomized rounding + exact-residue fallback
    /// (this module).
    Relaxed,
    /// Greedy node-candidates heuristic (§5.3).
    Heuristic,
}

impl PlacerMode {
    /// Short name used in metrics and benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            PlacerMode::Ilp => "ilp",
            PlacerMode::Relaxed => "relaxed",
            PlacerMode::Heuristic => "heuristic",
        }
    }

    /// Numeric encoding for the `core.placer_mode` gauge
    /// (0 = ilp, 1 = relaxed, 2 = heuristic).
    pub fn code(&self) -> i64 {
        match self {
            PlacerMode::Ilp => 0,
            PlacerMode::Relaxed => 1,
            PlacerMode::Heuristic => 2,
        }
    }
}

/// Fractional mass below which an `x` share is treated as zero when
/// sampling.
const X_TOL: f64 = 1e-9;

/// Quality accounting of one relaxed solve (also surfaced as
/// `core.relax_*` metrics when a registry is configured).
#[derive(Debug, Clone, Default)]
pub struct RelaxReport {
    /// Whether the LP relaxation solved to optimality.
    pub lp_optimal: bool,
    /// Objective of the LP relaxation: an upper bound on the best
    /// integral placement of the same model.
    pub lp_bound: Option<f64>,
    /// Model objective of the returned integral placement (evaluated on
    /// the model's own feasible-point construction).
    pub incumbent_objective: Option<f64>,
    /// Requests that could not be rounded and went to the exact MILP.
    pub residue_lras: usize,
    /// Containers in those residue requests.
    pub residue_containers: usize,
    /// Requests evicted by final validation (still hard-violating after
    /// rounding and residue re-solve) — returned `Unplaced`.
    pub evicted_lras: usize,
    /// The LP was unusable and the whole batch fell back to the
    /// (validated) heuristic placement.
    pub fallback: bool,
    /// Whether, and why, the (validated) anchor was served.
    pub anchor: Option<AnchorServed>,
}

/// Why a relaxed solve served its heuristic anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnchorServed {
    /// Clean (every request placed, no net new violation): no LP ran.
    Clean,
    /// The LP ran, and the rounding did not score higher.
    Kept,
}

impl RelaxReport {
    /// Absolute objective gap `max(0, lp_bound − incumbent)`. The LP
    /// bound dominates every integral placement of the model, so the
    /// gap is nonnegative up to solver tolerance (clamped).
    pub fn objective_gap(&self) -> Option<f64> {
        match (self.lp_bound, self.incumbent_objective) {
            (Some(b), Some(o)) => Some((b - o).max(0.0)),
            _ => None,
        }
    }

    /// Relative gap in [0, 1]: `objective_gap / max(|lp_bound|, 1)`.
    pub fn relative_gap(&self) -> Option<f64> {
        self.objective_gap()
            .zip(self.lp_bound)
            .map(|(g, b)| g / b.abs().max(1.0))
    }
}

/// One tentatively-rounded request on the working state.
struct Tentative {
    /// Chosen node per container (container order).
    nodes: Vec<NodeId>,
    /// Live container ids on the working state (container order).
    ids: Vec<ContainerId>,
}

/// The relaxed arm (see module docs): placements, whether the arm
/// degraded (LP unusable, or rounding failures the residue MILP could not
/// absorb), and the [`RelaxReport`] quality accounting. `allowed` and
/// `cache` as for the exact arm; the residue re-solve always runs cold.
/// `state` is mutated tentatively and left as found.
pub(crate) fn solve(
    state: &mut ClusterState,
    requests: &[LraRequest],
    deployed_constraints: &[PlacementConstraint],
    cfg: &IlpConfig,
    allowed: Option<&[NodeId]>,
    cache: Option<&IlpBasisCache>,
    metrics: &PlacerMetrics,
) -> BatchPlacement {
    let mut report = RelaxReport::default();
    let finish = |outcomes, degraded, report: RelaxReport| {
        record_quality(metrics, &report);
        BatchPlacement {
            outcomes,
            degraded,
            relax: Some(report),
        }
    };
    let arm = &metrics.arm;
    let anchored = match ilp::anchor(state, requests, deployed_constraints, cfg, allowed, metrics) {
        Prep::Trivial(outcomes) => return finish(outcomes, false, report),
        Prep::Ready(a) => a,
    };

    // --- 0. A clean anchor is served as it is: nothing to relax. ---
    if anchored.is_clean() {
        arm.relax_anchor_served.inc();
        report.anchor = Some(AnchorServed::Clean);
        let t_validate = Instant::now();
        let outcomes = validate_anchor(state, requests, &anchored, &mut report);
        arm.relax_validate_us.record_duration(t_validate.elapsed());
        return finish(outcomes, report.evicted_lras > 0, report);
    }
    let prepared = match ilp::build(state, requests, *anchored, cfg, allowed, metrics) {
        Prep::Trivial(outcomes) => return finish(outcomes, false, report),
        Prep::Ready(p) => p,
    };
    let Prepared {
        anchored,
        candidates,
        model,
    } = &*prepared;
    let (classes, heuristic) = (&anchored.classes, &anchored.heuristic);

    // --- 1. LP relaxation, warm-started from the caller's basis slot. ---
    let skeleton = model.problem.skeleton_hash();
    let warm = cache.and_then(|cache| cache.take_if(skeleton));
    let t_lp = Instant::now();
    let (sol, basis) = Simplex::new(&model.problem).solve_warm(None, warm.as_ref());
    let solver = &metrics.solver;
    arm.relax_lp_us.record_duration(t_lp.elapsed());
    // This LP runs outside `Milp`, which reports its own solves: feed
    // the same `solver.*` series, so the counters cover both arms.
    solver.record(SolveEvent::SimplexPivots(sol.iterations as u64));
    solver.record(SolveEvent::Refactorizations(sol.refactorizations as u64));
    if warm.is_some() {
        arm.relax_warm_start_hits.inc();
        solver.record(SolveEvent::WarmStartUsed);
    }
    if let (Some(cache), Some(b)) = (cache, &basis) {
        cache.store(skeleton, b.clone());
    }

    if sol.status != LpStatus::Optimal {
        // The relaxation itself is unusable (iteration limit or an
        // infeasible model): serve the validated heuristic placement and
        // report degradation so the ladder can react.
        report.fallback = true;
        arm.relax_fallbacks.inc();
        let t_validate = Instant::now();
        let outcomes = validate_anchor(state, requests, anchored, &mut report);
        arm.relax_validate_us.record_duration(t_validate.elapsed());
        return finish(outcomes, true, report);
    }
    let (hard, subject_of) = hard_subjects(classes, &anchored.active);
    let slots = member_slots(requests, classes);
    report.lp_optimal = true;
    report.lp_bound = Some(sol.objective);
    let value = |vid: medea_solver::VarId| sol.values.get(vid.index()).copied().unwrap_or(0.0);

    // --- 2. Randomized rounding on the state, under a rollback guard. ---
    // The PRNG is seeded from the model skeleton: same instance, same
    // draws — byte-identical placements across runs (the determinism
    // suite depends on this).
    let t_round = Instant::now();
    let t_total: usize = requests.iter().map(|r| r.containers.len()).sum();
    let mut rng = StdRng::seed_from_u64(0x52454C4158 ^ skeleton ^ t_total as u64);
    let mut work = state.scratch();

    // Canonical processing order: descending S_i mass, application id
    // breaking ties — invariant under request permutation when the LP
    // optimum is unique.
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| {
        value(model.s_vars[b])
            .total_cmp(&value(model.s_vars[a]))
            .then_with(|| requests[a].app.cmp(&requests[b].app))
    });

    // Each class's fractional row, in candidate order.
    let class_rows: Vec<Vec<f64>> = model
        .x_vars
        .iter()
        .map(|x_row| x_row.iter().map(|&x| value(x)).collect())
        .collect();

    let mut placed: Vec<Option<Tentative>> = (0..requests.len()).map(|_| None).collect();
    let mut attempted = vec![false; requests.len()];
    for &ri in &order {
        let r = &requests[ri];
        let s = value(model.s_vars[ri]);
        let heur_placed = heuristic[ri].placement().is_some();
        // Round S_i at 1/2; a request the LP declines but the heuristic
        // managed is still attempted (the rounding can only do better).
        if s < 0.5 && !heur_placed {
            continue;
        }
        attempted[ri] = true;
        let mut nodes = Vec::with_capacity(r.containers.len());
        let ids = r.allocate_all(&mut work, |work, k| {
            let (ci, rank) = slots[ri][k];
            let resources = classes[ci].resources;
            let row = member_share(&class_rows[ci], rank);
            let node = sample_candidate(&mut rng, work, candidates, &row, |n| {
                work.free(n).map(|f| resources.fits_in(&f)).unwrap_or(false) && work.is_available(n)
            })?;
            nodes.push(node);
            Some(node)
        });
        placed[ri] = ids.map(|ids| Tentative { nodes, ids });
    }

    // Requests whose rounding breaks a hard constraint join the residue.
    evict_violating(&mut work, &mut placed, &order, &hard, &subject_of, &slots);
    arm.relax_round_us.record_duration(t_round.elapsed());

    // --- 3. Exact MILP over the violated residue. ---
    let residue: Vec<usize> = (0..requests.len())
        .filter(|&ri| attempted[ri] && placed[ri].is_none())
        .collect();
    let mut degraded = false;
    if !residue.is_empty() {
        report.residue_lras = residue.len();
        report.residue_containers = residue
            .iter()
            .map(|&ri| requests[ri].num_containers())
            .sum();
        arm.relax_residue_solves.inc();
        let sub_requests: Vec<LraRequest> =
            residue.iter().map(|&ri| requests[ri].clone()).collect();
        // Constraints of successfully rounded batch-mates are now
        // "deployed" from the residue solve's point of view.
        let mut sub_deployed = deployed_constraints.to_vec();
        for (ri, t) in placed.iter().enumerate() {
            if t.is_some() {
                sub_deployed.extend(requests[ri].constraints.iter().cloned());
            }
        }
        // The residue skeleton differs from the batch skeleton; it gets
        // no cache, so the single slot keeps the LP warmth for the next
        // round.
        let t_residue = Instant::now();
        let sub = ilp::solve(
            &mut work,
            &sub_requests,
            &sub_deployed,
            cfg,
            allowed,
            None,
            metrics,
        );
        arm.relax_residue_us.record_duration(t_residue.elapsed());
        degraded |= sub.degraded;
        for (&ri, out) in residue.iter().zip(&sub.outcomes) {
            let Some(pl) = out.placement() else {
                continue;
            };
            let ids = requests[ri].allocate_all(&mut work, |_, k| pl.nodes.get(k).copied());
            placed[ri] = ids.map(|ids| Tentative {
                nodes: pl.nodes.clone(),
                ids,
            });
        }
    }

    // --- 4. Final hard-constraint validation (never commit infeasible).
    // The residue MILP emulates hard constraints through weights, so its
    // incumbent — or the anchoring heuristic it may fall back to — can
    // still carry a hard violation; evict such requests outright.
    let t_validate = Instant::now();
    for ri in evict_violating(&mut work, &mut placed, &order, &hard, &subject_of, &slots) {
        report.evicted_lras += 1;
        degraded |= attempted[ri];
    }

    // The incumbent below is evaluated against the state as found.
    drop(work);
    let outcomes = assemble(requests, placed);

    // Incumbent objective: evaluate the final placement as a feasible
    // point of the model. Requests placed outside the candidate set by
    // the residue MILP cannot be mapped; they are scored as unplaced,
    // which only widens (never understates) the reported gap.
    let mappable: Vec<PlacementOutcome> = outcomes
        .iter()
        .map(|o| match o {
            PlacementOutcome::Placed(pl) if pl.nodes.iter().all(|n| candidates.contains(n)) => {
                o.clone()
            }
            PlacementOutcome::Placed(pl) => PlacementOutcome::Unplaced { app: pl.app },
            u => u.clone(),
        })
        .collect();
    let objective = |outcomes: &[PlacementOutcome]| {
        let (counts, placed) = ilp::counts_from_outcomes(classes, outcomes, candidates)?;
        let point = ilp::initial_point(model, state, candidates, classes, &counts, &placed, cfg);
        Some(model.problem.objective_value(&point))
    };
    report.incumbent_objective = objective(&mappable);

    // Never serve less than the anchor: it is a point of the same model
    // (its nodes are candidates), kept unless the rounding scores higher.
    let anchor_objective = objective(heuristic);
    let outcomes = match anchor_objective {
        Some(a) if report.incumbent_objective.is_none_or(|r| r <= a) => {
            arm.relax_anchor_kept.inc();
            report.anchor = Some(AnchorServed::Kept);
            report.incumbent_objective = Some(a);
            report.evicted_lras = 0;
            validate_anchor(state, requests, anchored, &mut report)
        }
        _ => outcomes,
    };
    arm.relax_validate_us.record_duration(t_validate.elapsed());

    finish(outcomes, degraded, report)
}

/// The batch's hard constraints, and per class which of them it is a
/// subject of (from the effective tags: stable wherever a member lands).
fn hard_subjects<'a>(
    classes: &[ilp::ContainerClass],
    active: &'a [PlacementConstraint],
) -> (Vec<&'a PlacementConstraint>, Vec<Vec<bool>>) {
    let hard: Vec<&PlacementConstraint> = active.iter().filter(|c| c.is_hard()).collect();
    let subject_of = classes
        .iter()
        .map(|k| {
            hard.iter()
                .map(|c| c.subject.matches_tags(&k.tags))
                .collect()
        })
        .collect();
    (hard, subject_of)
}

/// `(class, rank among the class's members)` of every container,
/// indexed `[request][container]`.
fn member_slots(
    requests: &[LraRequest],
    classes: &[ilp::ContainerClass],
) -> Vec<Vec<(usize, usize)>> {
    let mut slots: Vec<Vec<(usize, usize)>> = requests
        .iter()
        .map(|r| vec![(0, 0); r.containers.len()])
        .collect();
    for (ci, class) in classes.iter().enumerate() {
        for (rank, &k) in class.members.iter().enumerate() {
            slots[class.req_idx][k] = (ci, rank);
        }
    }
    slots
}

/// The class member of rank `rank`'s share of its class's fractional
/// row: the row's mass laid out in candidate order, cut to
/// `[rank, rank + 1)`. On an integral row every member gets one
/// candidate outright, in non-decreasing candidate order.
fn member_share(class_row: &[f64], rank: usize) -> Vec<f64> {
    let (lo, hi) = (rank as f64, rank as f64 + 1.0);
    let mut start = 0.0;
    class_row
        .iter()
        .map(|&x| {
            let end = start + x.max(0.0);
            let share = (end.min(hi) - f64::max(start, lo)).max(0.0);
            start = end;
            share
        })
        .collect()
}

/// Samples a candidate for one container: roulette over the container's
/// fractional `row` (one entry per candidate) restricted to usable
/// candidates; when no fractional mass survives the filter, the usable
/// candidate with the most free memory is taken deterministically.
fn sample_candidate(
    rng: &mut StdRng,
    work: &ClusterState,
    candidates: &[NodeId],
    row: &[f64],
    usable: impl Fn(NodeId) -> bool,
) -> Option<NodeId> {
    let viable: Vec<(NodeId, f64)> = candidates
        .iter()
        .zip(row)
        .filter(|&(&n, &x)| x > X_TOL && usable(n))
        .map(|(&n, &x)| (n, x))
        .collect();
    if !viable.is_empty() {
        let total: f64 = viable.iter().map(|&(_, x)| x).sum();
        let mut u = unit(rng) * total;
        for &(n, x) in &viable {
            if u < x {
                return Some(n);
            }
            u -= x;
        }
        return viable.last().map(|&(n, _)| n);
    }
    // No fractional mass fits: deterministic fallback to the freest
    // usable candidate (node id breaks ties).
    candidates
        .iter()
        .filter(|&&n| usable(n))
        .map(|&n| {
            let free = work.free(n).map(|f| f.memory_mb).unwrap_or(0);
            (n, free)
        })
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .map(|(n, _)| n)
}

/// Uniform draw in [0, 1).
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Whether live container `id` violates any applicable hard constraint.
fn violates_hard(
    work: &ClusterState,
    hard: &[&PlacementConstraint],
    applicable: &[bool],
    id: ContainerId,
) -> bool {
    hard.iter().enumerate().any(|(hi, c)| {
        applicable[hi]
            && check_container(work, c, id)
                .map(|ch| !ch.satisfied)
                .unwrap_or(false)
    })
}

/// Releases, in `order`, every placed request with a container that
/// breaks an applicable hard constraint. Each request is released at
/// once, so the checks after it see the state without it, and passes
/// repeat until one releases nothing: a request that passed before a
/// later release (an affinity whose target went) is checked again, so
/// every kept request is clean on the final state. Releases only remove
/// requests, so the loop ends. Returns the released indices in release
/// order.
fn evict_violating(
    work: &mut ClusterState,
    placed: &mut [Option<Tentative>],
    order: &[usize],
    hard: &[&PlacementConstraint],
    subject_of: &[Vec<bool>],
    slots: &[Vec<(usize, usize)>],
) -> Vec<usize> {
    let mut released = Vec::new();
    loop {
        let before = released.len();
        for &ri in order {
            let Some(t) = placed[ri].take_if(|t| {
                t.ids
                    .iter()
                    .zip(&slots[ri])
                    .any(|(&id, &(ci, _))| violates_hard(work, hard, &subject_of[ci], id))
            }) else {
                continue;
            };
            for id in t.ids {
                let _ = work.release(id);
            }
            released.push(ri);
        }
        if released.len() == before {
            return released;
        }
    }
}

/// The batch's outcomes: each request on its tentative nodes, or
/// unplaced.
fn assemble(requests: &[LraRequest], placed: Vec<Option<Tentative>>) -> Vec<PlacementOutcome> {
    requests
        .iter()
        .zip(placed)
        .map(|(r, t)| match t {
            Some(t) => PlacementOutcome::Placed(LraPlacement {
                app: r.app,
                nodes: t.nodes,
            }),
            None => PlacementOutcome::Unplaced { app: r.app },
        })
        .collect()
}

/// Validates the anchor placement on the state, under a rollback guard:
/// capacity via live allocation, then hard constraints; violating or
/// unallocatable requests become `Unplaced`.
fn validate_anchor(
    state: &mut ClusterState,
    requests: &[LraRequest],
    anchored: &ilp::Anchored,
    report: &mut RelaxReport,
) -> Vec<PlacementOutcome> {
    let (hard, subject_of) = hard_subjects(&anchored.classes, &anchored.active);
    let slots = member_slots(requests, &anchored.classes);
    let mut work = state.scratch();
    let mut placed: Vec<Option<Tentative>> = requests
        .iter()
        .zip(&anchored.heuristic)
        .map(|(r, out)| {
            let pl = out.placement()?;
            let ids = r.allocate_all(&mut work, |_, k| pl.nodes.get(k).copied());
            report.evicted_lras += usize::from(ids.is_none());
            ids.map(|ids| Tentative {
                nodes: pl.nodes.clone(),
                ids,
            })
        })
        .collect();
    let order: Vec<usize> = (0..requests.len()).collect();
    report.evicted_lras +=
        evict_violating(&mut work, &mut placed, &order, &hard, &subject_of, &slots).len();
    assemble(requests, placed)
}

/// Records the report's quality numbers to the attached registry.
fn record_quality(metrics: &PlacerMetrics, report: &RelaxReport) {
    let m = &metrics.arm;
    m.relax_residue_containers
        .record(report.residue_containers as u64);
    if report.evicted_lras > 0 {
        m.relax_evictions.add(report.evicted_lras as u64);
    }
    if let Some(gap) = report.relative_gap() {
        m.relax_objective_gap_permille
            .record((gap * 1_000.0).round() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_cluster::{
        ApplicationId, ContainerRequest, ExecutionKind, NodeGroupId, Resources, Tag,
    };

    /// The relaxed arm's LP runs outside `Milp`; its solver effort must
    /// still reach the `solver.*` series when a registry is attached.
    /// Three anti-affine containers on two nodes: the anchor must break
    /// the spread, so every round reaches the LP.
    #[test]
    fn relaxed_solve_reports_solver_counters() {
        let registry = medea_obs::MetricsRegistry::new();
        let metrics = PlacerMetrics::new(&registry);
        let cfg = IlpConfig::default();
        let cache = IlpBasisCache::default();
        let mut state = ClusterState::homogeneous(2, Resources::new(8192, 8), 1);
        let request = |app: u64| {
            LraRequest::uniform(
                ApplicationId(app),
                3,
                Resources::new(1024, 1),
                vec![Tag::new("svc")],
                vec![PlacementConstraint::anti_affinity(
                    "svc",
                    "svc",
                    NodeGroupId::node(),
                )],
            )
        };
        let mut relaxed = |r: LraRequest| {
            solve(&mut state, &[r], &[], &cfg, None, Some(&cache), &metrics).outcomes
        };
        let out = relaxed(request(1));
        assert!(out[0].placement().is_some());
        let snap = registry.snapshot();
        assert!(snap.counter("solver.simplex_pivots_total").unwrap_or(0) > 0);
        assert!(snap.counter("solver.refactorizations_total").unwrap_or(0) > 0);
        assert_eq!(snap.counter("solver.warm_starts_total").unwrap_or(0), 0);

        // Same skeleton again: the cached basis seeds the LP.
        let out = relaxed(request(2));
        assert!(out[0].placement().is_some());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("solver.warm_starts_total"), Some(1));
        assert_eq!(snap.counter("core.relax_warm_start_hits_total"), Some(1));
        assert_eq!(snap.counter("core.relax_anchor_served_total"), Some(0));
    }

    /// Two 3 x HBase bursts, listed in different orders under different
    /// app ids, share one slot: the first is committed, then released
    /// and replaced by the second, whose LP must start from the first's
    /// basis and need next to no pivots. On nine nodes in three racks the
    /// 24 region servers cannot all keep their spread and their rack, so
    /// neither anchor is clean and both bursts reach the LP.
    #[test]
    fn reordered_hbase_bursts_reuse_the_warm_basis() {
        use crate::heuristics::tests::hbase3;
        let registry = medea_obs::MetricsRegistry::new();
        let metrics = PlacerMetrics::new(&registry);
        let cfg = IlpConfig::default();
        let cache = IlpBasisCache::default();
        let mut state = ClusterState::homogeneous(TIGHT_NODES, Resources::new(16 * 1024, 16), 3);
        let count = |name| registry.snapshot().counter(name).unwrap_or(0);

        let first = hbase3(1, Some(1));
        let out = solve(&mut state, &first, &[], &cfg, None, Some(&cache), &metrics);
        for (r, o) in first.iter().zip(&out.outcomes) {
            let pl = o.placement().expect("the first burst places");
            for (c, &n) in r.containers.iter().zip(&pl.nodes) {
                state
                    .allocate(r.app, n, c, ExecutionKind::LongRunning)
                    .unwrap();
            }
        }
        for r in &first {
            state.release_app(r.app);
        }
        let cold = count("solver.simplex_pivots_total");
        assert!(cold > 0, "the first burst reaches the LP");
        assert_eq!(count("core.relax_warm_start_hits_total"), 0);

        let second = hbase3(20, Some(2));
        let out = solve(&mut state, &second, &[], &cfg, None, Some(&cache), &metrics);
        assert!(out.outcomes.iter().all(|o| o.placement().is_some()));
        assert_eq!(count("core.relax_warm_start_hits_total"), 1);
        assert_eq!(count("core.relax_anchor_served_total"), 0);
        let warm = count("solver.simplex_pivots_total") - cold;
        assert!(warm <= 10, "{warm} pivots after {cold} cold");
    }

    /// Nodes of [`reordered_hbase_bursts_reuse_the_warm_basis`]'s cluster.
    const TIGHT_NODES: usize = 9;

    /// The HBase burst on a roomy cluster is placed by its anchor without
    /// a net new violation: served as is, with no pivot and no LP timed.
    /// A batch whose anchor leaves an LRA unplaced (three 3 GB containers
    /// on two 4 GB nodes) runs the LP once.
    #[test]
    fn a_clean_anchor_is_served_without_the_lp() {
        use crate::heuristics::tests::hbase3;
        let registry = medea_obs::MetricsRegistry::new();
        let metrics = PlacerMetrics::new(&registry);
        let cfg = IlpConfig::default();
        let cache = IlpBasisCache::default();
        let lp_rounds = || {
            let snap = registry.snapshot();
            let lp = snap.histogram("core.relax_lp_us").map_or(0, |h| h.count);
            (lp, snap.counter("solver.simplex_pivots_total").unwrap_or(0))
        };

        let mut state = ClusterState::homogeneous(60, Resources::new(16 * 1024, 16), 3);
        let before = state.digest();
        let burst = hbase3(1, Some(1));
        let out = solve(&mut state, &burst, &[], &cfg, None, Some(&cache), &metrics);
        assert!(out.outcomes.iter().all(|o| o.placement().is_some()));
        assert_eq!(out.relax.unwrap().anchor, Some(AnchorServed::Clean));
        assert_eq!(lp_rounds(), (0, 0));
        assert_eq!(state.digest(), before);
        assert!(format!("{cache:?}").contains("occupied: false"));

        let mut tight = ClusterState::homogeneous(2, Resources::new(4096, 4), 1);
        let batch = [
            LraRequest::uniform(ApplicationId(1), 3, Resources::new(3072, 1), vec![], vec![]),
            LraRequest::uniform(ApplicationId(2), 1, Resources::new(1024, 1), vec![], vec![]),
        ];
        let out = solve(&mut tight, &batch, &[], &cfg, None, Some(&cache), &metrics);
        assert!(out.outcomes[0].placement().is_none());
        assert!(out.outcomes[1].placement().is_some());
        assert_ne!(out.relax.unwrap().anchor, Some(AnchorServed::Clean));
        assert_eq!(lp_rounds().0, 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("core.relax_anchor_served_total"), Some(1));
    }

    /// An integral class row gives each member one candidate outright, in
    /// candidate order, whatever the draw; on a fractional row each
    /// member's row is its share of the class row.
    #[test]
    fn members_split_their_class_row_systematically() {
        let state = ClusterState::homogeneous(4, Resources::new(4096, 4), 1);
        let candidates: Vec<NodeId> = state.node_ids().collect();
        let integral = [1.0, 0.0, 1.0, 1.0];
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let nodes: Vec<NodeId> = (0..3)
                .map(|rank| {
                    let row = member_share(&integral, rank);
                    sample_candidate(&mut rng, &state, &candidates, &row, |_| true).unwrap()
                })
                .collect();
            assert_eq!(nodes, [NodeId(0), NodeId(2), NodeId(3)], "seed {seed}");
        }

        let fractional = [0.5, 1.25, 0.0, 0.75];
        let shares: Vec<Vec<f64>> = (0..3).map(|rank| member_share(&fractional, rank)).collect();
        assert_eq!(
            shares,
            [
                vec![0.5, 0.5, 0.0, 0.0],
                vec![0.0, 0.75, 0.0, 0.25],
                vec![0.0, 0.0, 0.0, 0.5]
            ]
        );
        for (ni, &x) in fractional.iter().enumerate() {
            assert_eq!(shares.iter().map(|s| s[ni]).sum::<f64>(), x);
        }
    }

    /// A violator and its follower on a 2-node state: request `x`+`m`
    /// breaks a hard anti-affinity against a deployed `x` on node 0, and
    /// request `y` has a hard affinity to `m`, which only the violator
    /// holds. Returns the two requests in the order `follower_first`
    /// asks for, the hard constraints and their per-class subjects.
    fn violator_and_follower(
        follower_first: bool,
    ) -> (
        ClusterState,
        Vec<LraRequest>,
        [PlacementConstraint; 2],
        Vec<Vec<bool>>,
    ) {
        let mut state = ClusterState::homogeneous(2, Resources::new(4096, 4), 1);
        let spread = PlacementConstraint::anti_affinity("x", "x", NodeGroupId::node()).hard();
        let near = PlacementConstraint::affinity("y", "m", NodeGroupId::node()).hard();
        let request = |app, tags: &[&str], c: &PlacementConstraint| {
            LraRequest::uniform(
                ApplicationId(app),
                1,
                Resources::new(1024, 1),
                tags.iter().map(Tag::new).collect(),
                vec![c.clone()],
            )
        };
        let mut requests = vec![request(1, &["x", "m"], &spread), request(2, &["y"], &near)];
        if follower_first {
            requests.reverse();
        }
        let subject_of = ilp::container_classes(&requests)
            .iter()
            .map(|k| {
                [&spread, &near]
                    .iter()
                    .map(|c| c.subject.matches_tags(&k.tags))
                    .collect()
            })
            .collect();
        state
            .allocate(
                ApplicationId(9),
                NodeId(0),
                &ContainerRequest::new(Resources::new(1024, 1), [Tag::new("x")]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        (state, requests, [spread, near], subject_of)
    }

    /// A pass sees the releases before it, and passes repeat until one
    /// releases nothing: the follower of a released violator goes with
    /// it whether the violator is visited first or last.
    #[test]
    fn eviction_rechecks_requests_kept_before_a_later_release() {
        let (mut work, requests, [spread, near], subject_of) = violator_and_follower(false);
        let hard = [&spread, &near];
        let slots = member_slots(&requests, &ilp::container_classes(&requests));
        let mut evict = |order: [usize; 2]| {
            let mut placed: Vec<Option<Tentative>> = requests
                .iter()
                .map(|r| {
                    let ids = r.allocate_all(&mut work, |_, _| Some(NodeId(0)));
                    ids.map(|ids| Tentative {
                        nodes: vec![NodeId(0)],
                        ids,
                    })
                })
                .collect();
            let released =
                evict_violating(&mut work, &mut placed, &order, &hard, &subject_of, &slots);
            for t in placed.into_iter().flatten() {
                for id in t.ids {
                    work.release(id).unwrap();
                }
            }
            released
        };
        assert_eq!(evict([0, 1]), [0, 1]);
        assert_eq!(evict([1, 0]), [0, 1]);
    }

    /// An anchor placing `outcomes` of `requests` under `active`.
    fn anchored(
        requests: &[LraRequest],
        active: Vec<PlacementConstraint>,
        outcomes: Vec<PlacementOutcome>,
    ) -> ilp::Anchored {
        ilp::Anchored {
            classes: ilp::container_classes(requests),
            active,
            heuristic: outcomes,
            effort: Default::default(),
        }
    }

    /// `validate_anchor` checks in index order; a follower at a lower
    /// index than its violator passes the first pass and must still go.
    #[test]
    fn validation_evicts_a_follower_checked_before_its_violator() {
        let (mut state, requests, [spread, near], _) = violator_and_follower(true);
        let on_node_0 = |r: &LraRequest| {
            PlacementOutcome::Placed(LraPlacement {
                app: r.app,
                nodes: vec![NodeId(0)],
            })
        };
        let anchor = anchored(
            &requests,
            vec![spread, near],
            requests.iter().map(on_node_0).collect(),
        );
        let mut report = RelaxReport::default();
        let before = state.digest();
        let out = validate_anchor(&mut state, &requests, &anchor, &mut report);
        assert!(out.iter().all(|o| o.placement().is_none()), "{out:?}");
        assert_eq!(report.evicted_lras, 2);
        assert_eq!(state.digest(), before);
    }

    /// The LP-fallback exit has no public trigger: hand `validate_anchor`
    /// a placement with one hard violation and one over-capacity request.
    #[test]
    fn validation_evicts_violating_and_unallocatable_requests() {
        let mut state = ClusterState::homogeneous(2, Resources::new(4096, 4), 1);
        let request = |app, mem, tag: &str, constraints| {
            LraRequest::uniform(
                ApplicationId(app),
                1,
                Resources::new(mem, 1),
                vec![Tag::new(tag)],
                constraints,
            )
        };
        let spread = PlacementConstraint::anti_affinity("x", "x", NodeGroupId::node()).hard();
        let requests = [
            request(1, 1024, "x", vec![spread.clone()]),
            request(2, 8192, "y", vec![]),
            request(3, 1024, "y", vec![]),
            request(4, 1024, "y", vec![]),
        ];
        state
            .allocate(
                ApplicationId(9),
                NodeId(0),
                &requests[0].containers[0],
                ExecutionKind::LongRunning,
            )
            .unwrap();
        let on = |app, node| {
            PlacementOutcome::Placed(LraPlacement {
                app: ApplicationId(app),
                nodes: vec![NodeId(node)],
            })
        };
        let unplaced = |app| PlacementOutcome::Unplaced {
            app: ApplicationId(app),
        };
        // Next to the deployed `x`; larger than any node; fine; not placed.
        let outcomes = vec![on(1, 0), on(2, 1), on(3, 1), unplaced(4)];
        let anchor = anchored(&requests, vec![spread], outcomes);
        let mut report = RelaxReport::default();
        let (before, clones) = (state.digest(), medea_cluster::state_clones());
        let out = validate_anchor(&mut state, &requests, &anchor, &mut report);
        assert_eq!(out, vec![unplaced(1), unplaced(2), on(3, 1), unplaced(4)]);
        assert_eq!(report.evicted_lras, 2);
        assert_eq!(state.digest(), before);
        assert_eq!(medea_cluster::state_clones(), clones);
    }
}
