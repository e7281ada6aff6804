//! `lifecycle_bench`: the reconciled lifecycle engine vs static
//! place-once provisioning, emitted as machine-readable JSON
//! (`BENCH_lifecycle.json`).
//!
//! Each scale runs the same seeded long-horizon scenario twice through
//! the simulator:
//!
//! - **lifecycle arm**: managed apps under diurnal scaling, tenant
//!   churn, a rolling-upgrade wave, periodic defragmentation, and
//!   node-crash chaos — the full [`medea_sim::LifecycleWorkload`];
//! - **baseline arm**: the same apps placed once at their base replica
//!   count and then forgotten (no scaling, churn, upgrades, or defrag),
//!   under the identical chaos schedule.
//!
//! The row records time-averaged memory utilization for both arms (the
//! reconciled arm must meet the diurnal demand the static arm leaves
//! unserved, so its utilization must be at least the baseline's), and
//! verifies the engine's safety gates over the whole run:
//!
//! - **hard violations**: [`medea_constraints::violation_stats`] over
//!   every managed kind's cardinality constraints, sampled throughout —
//!   must be zero at every sample;
//! - **budget overruns**: samples where an app ran more than
//!   `disruption_budget` replicas short of its spec with no involuntary
//!   excuse (all nodes up, nothing in flight toward it) — must be zero;
//! - **ledger**: `lost = replaced + unplaceable + pending` must hold at
//!   every sample and at the end.
//!
//! Usage: `cargo run --release -p medea-bench --bin lifecycle_bench`
//! (`--smoke` runs the small scale only, for CI).

use medea_bench::BenchJson;
use medea_cluster::{ClusterState, NodeId, Resources};
use medea_constraints::{violation_stats, PlacementConstraint};
use medea_core::{LifecyclePhase, LraAlgorithm};
use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};
use medea_sim::{
    LifecycleWorkload, ManagedKind, PipelineMode, SimDriver, SimEvent, SolveLatencyModel,
};

struct Scale {
    nodes: usize,
    racks: usize,
    apps: usize,
    days: u64,
    day_ticks: u64,
}

struct ScaleResult {
    nodes: usize,
    apps: usize,
    days: u64,
    lifecycle_util: f64,
    baseline_util: f64,
    hard_violations: usize,
    budget_overruns: usize,
    budget_denials: usize,
    scale_ups: usize,
    scale_downs: usize,
    upgraded: usize,
    migrations: usize,
    reconciles: usize,
    ledger_ok: bool,
    converged: bool,
}

/// The union of every managed kind's placement constraints (tag-keyed,
/// so one copy per kind covers all apps of that kind).
fn kind_constraints() -> Vec<PlacementConstraint> {
    [
        ManagedKind::Storm,
        ManagedKind::HBase,
        ManagedKind::TensorFlow,
    ]
    .iter()
    .flat_map(|k| k.constraints())
    .collect()
}

fn build_sim(scale: &Scale, seed: u64, lifecycle: bool) -> SimDriver {
    let cluster = ClusterState::homogeneous(scale.nodes, Resources::new(8 * 1024, 8), scale.racks);
    let mut sim = SimDriver::new(cluster, LraAlgorithm::NodeCandidates, 1_000)
        .with_pipeline(PipelineMode::Async)
        .with_solve_latency(SolveLatencyModel::fixed(300));
    let workload = LifecycleWorkload {
        seed,
        apps: scale.apps,
        days: scale.days,
        day_ticks: scale.day_ticks,
        base_replicas: 2,
        peak_replicas: 6,
        disruption_budget: 2,
        scale_steps_per_day: 8,
        churn_per_day: 1,
        upgrade_wave_day: Some(1),
        defrag_every: Some(scale.day_ticks / 4),
        first_app_id: 100,
    };
    let mut submitted = 0usize;
    for (t, e) in workload.events() {
        if !lifecycle {
            // Place-once baseline: the initial submissions only, at
            // their base replica count, then hands off.
            match e {
                SimEvent::SubmitManagedLra { .. } if submitted < scale.apps => submitted += 1,
                _ => continue,
            }
        }
        sim.schedule(t, e);
    }
    // The identical chaos schedule in both arms: one crash-and-recover
    // per day, overlapping the scaling and the upgrade wave.
    let mut rng = StdRng::seed_from_u64(0xBAD_C4A0 ^ seed);
    for day in 0..scale.days {
        let node = NodeId(rng.random_range(0..scale.nodes as u32));
        let at = day * scale.day_ticks + rng.random_range(scale.day_ticks / 4..scale.day_ticks / 2);
        sim.schedule(at, SimEvent::NodeCrash(node));
        sim.schedule(at + scale.day_ticks / 10, SimEvent::NodeRecover(node));
    }
    sim
}

/// Runs one arm to the horizon (plus a convergence margin), sampling
/// utilization, hard violations, budget overruns, and the recovery
/// ledger along the way. Returns `(mean utilization, violations,
/// overruns, ledger ok, converged)`.
fn run_arm(
    scale: &Scale,
    seed: u64,
    lifecycle: bool,
) -> (f64, usize, usize, bool, bool, SimDriver) {
    let mut sim = build_sim(scale, seed, lifecycle);
    let constraints = kind_constraints();
    let horizon = scale.days * scale.day_ticks;
    let sample_every = (scale.day_ticks / 20).max(1);
    let mut utils = Vec::new();
    let mut violations = 0usize;
    let mut overruns = 0usize;
    let mut ledger_ok = true;
    let mut t = sample_every;
    while t <= horizon {
        sim.run_until(t);
        let m = sim.medea();
        utils.push(m.state().utilization_stats().mean_memory_utilization);
        violations += violation_stats(m.state(), constraints.iter()).containers_violating;
        let all_up = m.state().node_ids().all(|n| m.state().is_available(n));
        for lc in m.lifecycles() {
            let floor = lc.spec.replicas.saturating_sub(lc.spec.disruption_budget);
            if all_up && lc.incoming == 0 && lc.running + lc.incoming < floor {
                overruns += 1;
            }
        }
        ledger_ok &= m.recovery_report().accounted();
        t += sample_every;
    }
    // Convergence margin: let in-flight work land and upgrades finish.
    sim.run_until(horizon + scale.day_ticks / 2);
    let m = sim.medea();
    ledger_ok &= m.recovery_report().accounted();
    violations += violation_stats(m.state(), constraints.iter()).containers_violating;
    let converged = m
        .lifecycles()
        .iter()
        .all(|l| matches!(l.phase, LifecyclePhase::Steady | LifecyclePhase::Retired));
    let mean_util = utils.iter().sum::<f64>() / utils.len().max(1) as f64;
    (mean_util, violations, overruns, ledger_ok, converged, sim)
}

fn bench_scale(scale: &Scale) -> ScaleResult {
    let seed = 0x11FE_C1C1;
    let (lifecycle_util, violations, overruns, ledger_ok, converged, sim) =
        run_arm(scale, seed, true);
    let (baseline_util, base_violations, _, base_ledger_ok, _, _) = run_arm(scale, seed, false);
    let stats = sim.medea().lifecycle_stats();
    ScaleResult {
        nodes: scale.nodes,
        apps: scale.apps,
        days: scale.days,
        lifecycle_util,
        baseline_util,
        hard_violations: violations + base_violations,
        budget_overruns: overruns,
        budget_denials: stats.budget_denials,
        scale_ups: stats.scale_up_containers,
        scale_downs: stats.scale_down_containers,
        upgraded: stats.upgraded_containers,
        migrations: stats.migrations,
        reconciles: stats.reconciles,
        ledger_ok: ledger_ok && base_ledger_ok,
        converged,
    }
}

/// The inside of one `scales` row of `BENCH_lifecycle.json`.
fn row_json(r: &ScaleResult) -> String {
    format!(
        "\"nodes\": {}, \"apps\": {}, \"days\": {}, \
         \"lifecycle_util\": {:.6}, \"baseline_util\": {:.6}, \
         \"hard_violations\": {}, \"budget_overruns\": {}, \
         \"budget_denials\": {}, \"scale_ups\": {}, \"scale_downs\": {}, \
         \"upgraded\": {}, \"migrations\": {}, \"reconciles\": {}, \
         \"ledger_ok\": {}, \"converged\": {}",
        r.nodes,
        r.apps,
        r.days,
        r.lifecycle_util,
        r.baseline_util,
        r.hard_violations,
        r.budget_overruns,
        r.budget_denials,
        r.scale_ups,
        r.scale_downs,
        r.upgraded,
        r.migrations,
        r.reconciles,
        r.ledger_ok,
        r.converged,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scales: &[Scale] = if smoke {
        &[Scale {
            nodes: 32,
            racks: 4,
            apps: 6,
            days: 2,
            day_ticks: 20_000,
        }]
    } else {
        &[
            Scale {
                nodes: 32,
                racks: 4,
                apps: 6,
                days: 2,
                day_ticks: 20_000,
            },
            Scale {
                nodes: 64,
                racks: 8,
                apps: 12,
                days: 3,
                day_ticks: 50_000,
            },
        ]
    };
    let mut results = Vec::new();
    for scale in scales {
        let r = bench_scale(scale);
        assert_eq!(r.hard_violations, 0, "hard constraints must hold");
        assert_eq!(r.budget_overruns, 0, "disruption budgets must hold");
        assert!(r.ledger_ok, "recovery ledger must stay accounted");
        assert!(r.converged, "lifecycle scenario must converge to Steady");
        assert!(
            r.lifecycle_util >= r.baseline_util,
            "reconciled utilization {:.4} fell below the place-once \
             baseline {:.4}",
            r.lifecycle_util,
            r.baseline_util,
        );
        eprintln!(
            "{} nodes / {} apps / {} days: util {:.4} (baseline {:.4}); \
             {} scale-ups, {} scale-downs, {} upgraded, {} migrations, \
             {} budget denials over {} reconciles",
            r.nodes,
            r.apps,
            r.days,
            r.lifecycle_util,
            r.baseline_util,
            r.scale_ups,
            r.scale_downs,
            r.upgraded,
            r.migrations,
            r.budget_denials,
            r.reconciles,
        );
        results.push(r);
    }
    let mut doc = BenchJson::new("lifecycle", smoke);
    doc.rows("scales", results.iter().map(row_json));
    doc.write().expect("BENCH_lifecycle.json writes");
}
