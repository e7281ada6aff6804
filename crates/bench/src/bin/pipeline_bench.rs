//! `pipeline_bench`: the placement pipeline's benchmark trajectory,
//! emitted as machine-readable JSON (`BENCH_pipeline.json`) so successive
//! PRs can compare the sync-vs-async numbers on identical scenarios.
//!
//! Two experiments, both on the simulated clock (deterministic per seed):
//!
//! 1. **Task latency under LRA solve load** (the Fig. 11c claim): the
//!    same Google-trace-like task stream runs with no LRAs (baseline),
//!    with LRAs under the async pipeline, and with LRAs under the
//!    synchronous compatibility mode. The async median must sit within
//!    10% of the baseline; the monolithic sync tick degrades measurably
//!    because every heartbeat due during a solve waits for it.
//! 2. **Conflict rate vs. solve deadline** (the Fig. 11b trade-off): on
//!    a capacity-tight cluster, the longer a proposal is in flight, the
//!    more commit-time conflicts the async pipeline resolves by
//!    resubmission — the price of taking the ILP off the critical path,
//!    while sync pays with task latency instead.
//!
//! Usage: `cargo run --release -p medea-bench --bin pipeline_bench`
//! (`--smoke` runs the scaled-down CI variant; its JSON records
//! `"mode": "smoke"` and lands under `target/bench-smoke/`, so
//! trajectories never mix scales).

use medea_bench::{paper_solve_model, run_pipeline, BenchJson, PipelineRun, PipelineScenario};
use medea_sim::{box_stats, BoxStats, PipelineMode, SolveLatencyModel};

/// One arm of the task-latency comparison.
struct LatencyArm {
    name: &'static str,
    tasks: usize,
    stats: BoxStats,
    lra_p50: f64,
    deployments: usize,
    conflicts: usize,
}

fn latency_arm(name: &'static str, run: &PipelineRun) -> LatencyArm {
    LatencyArm {
        name,
        tasks: run.task_latencies.len(),
        stats: box_stats(&run.task_latencies),
        lra_p50: if run.lra_latencies.is_empty() {
            0.0
        } else {
            box_stats(&run.lra_latencies).p50
        },
        deployments: run.deployments,
        conflicts: run.commit_conflicts,
    }
}

/// One row of the deadline sweep.
struct SweepRow {
    deadline: u64,
    sync_task_p50: f64,
    sync_task_p99: f64,
    async_task_p50: f64,
    async_task_p99: f64,
    async_conflicts: usize,
    async_conflict_rate: f64,
    async_deployments: usize,
}

/// The members of the `task_latency` object of `BENCH_pipeline.json`:
/// one per arm, then the two deltas against the first (baseline) arm.
fn task_latency_json(arms: &[LatencyArm]) -> Vec<String> {
    let mut entries: Vec<String> = arms
        .iter()
        .map(|a| {
            format!(
                "\"{}\": {{\"tasks\": {}, \"p50\": {:.1}, \"p99\": {:.1}, \"mean\": {:.1}, \
                 \"lra_p50\": {:.1}, \"deployments\": {}, \"conflicts\": {}}}",
                a.name,
                a.tasks,
                a.stats.p50,
                a.stats.p99,
                a.stats.mean,
                a.lra_p50,
                a.deployments,
                a.conflicts,
            )
        })
        .collect();
    let base = arms[0].stats.p50.max(1e-9);
    entries.push(format!(
        "\"async_vs_baseline_p50_pct\": {:.1}",
        (arms[1].stats.p50 / base - 1.0) * 100.0
    ));
    entries.push(format!(
        "\"sync_vs_baseline_p50_pct\": {:.1}",
        (arms[2].stats.p50 / base - 1.0) * 100.0
    ));
    entries
}

/// The inside of one `conflict_sweep` row.
fn sweep_row_json(r: &SweepRow) -> String {
    format!(
        "\"deadline_ticks\": {}, \"sync_task_p50\": {:.1}, \"sync_task_p99\": {:.1}, \
         \"async_task_p50\": {:.1}, \"async_task_p99\": {:.1}, \"async_conflicts\": {}, \
         \"async_conflict_rate\": {:.3}, \"async_deployments\": {}",
        r.deadline,
        r.sync_task_p50,
        r.sync_task_p99,
        r.async_task_p50,
        r.async_task_p99,
        r.async_conflicts,
        r.async_conflict_rate,
        r.async_deployments,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // Experiment 1: task latency with the solver on vs. off the critical
    // path, against the no-LRA baseline.
    let scenario = if smoke {
        PipelineScenario::latency_comparison().smoke()
    } else {
        PipelineScenario::latency_comparison()
    };
    let solve = paper_solve_model();
    let baseline = run_pipeline(&scenario, false, PipelineMode::Async, solve);
    let async_run = run_pipeline(&scenario, true, PipelineMode::Async, solve);
    let sync_run = run_pipeline(&scenario, true, PipelineMode::Sync, solve);
    let arms = [
        latency_arm("baseline", &baseline),
        latency_arm("async", &async_run),
        latency_arm("sync", &sync_run),
    ];

    println!(
        "{:<10} {:>7} {:>9} {:>9} {:>9} {:>9} {:>8} {:>9}",
        "arm", "tasks", "p50", "p99", "mean", "lra_p50", "deploys", "conflicts"
    );
    for a in &arms {
        println!(
            "{:<10} {:>7} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>8} {:>9}",
            a.name,
            a.tasks,
            a.stats.p50,
            a.stats.p99,
            a.stats.mean,
            a.lra_p50,
            a.deployments,
            a.conflicts,
        );
    }
    let base_p50 = arms[0].stats.p50.max(1e-9);
    let async_pct = (arms[1].stats.p50 / base_p50 - 1.0) * 100.0;
    let sync_pct = (arms[2].stats.p50 / base_p50 - 1.0) * 100.0;
    println!(
        "\nTask latency medians vs. no-LRA baseline: async {async_pct:+.1}%, sync {sync_pct:+.1}%"
    );
    assert!(
        async_pct.abs() <= 10.0,
        "async pipeline must keep the task-latency median within 10% of the \
         no-LRA baseline (got {async_pct:+.1}%)"
    );
    assert!(
        sync_pct > async_pct,
        "the monolithic sync tick must degrade task latency more than async \
         (sync {sync_pct:+.1}% vs async {async_pct:+.1}%)"
    );

    // Experiment 2: async conflict rate (and sync task-latency cost) as a
    // function of the solve deadline.
    let contention = if smoke {
        PipelineScenario::contention().smoke()
    } else {
        PipelineScenario::contention()
    };
    let deadlines: &[u64] = if smoke {
        &[0, 2_500, 7_500]
    } else {
        &[0, 1_000, 2_500, 5_000, 7_500]
    };
    let mut sweep = Vec::new();
    for &d in deadlines {
        let lat = SolveLatencyModel::fixed(d);
        let sync = run_pipeline(&contention, true, PipelineMode::Sync, lat);
        let async_ = run_pipeline(&contention, true, PipelineMode::Async, lat);
        assert_eq!(sync.commit_conflicts, 0, "sync commit cannot see drift");
        let sync_stats = box_stats(&sync.task_latencies);
        let async_stats = box_stats(&async_.task_latencies);
        let attempts = async_.deployments + async_.commit_conflicts;
        sweep.push(SweepRow {
            deadline: d,
            sync_task_p50: sync_stats.p50,
            sync_task_p99: sync_stats.p99,
            async_task_p50: async_stats.p50,
            async_task_p99: async_stats.p99,
            async_conflicts: async_.commit_conflicts,
            async_conflict_rate: async_.commit_conflicts as f64 / attempts.max(1) as f64,
            async_deployments: async_.deployments,
        });
        eprintln!("pipeline_bench: deadline {d} done");
    }

    println!(
        "\n{:>9} {:>12} {:>12} {:>13} {:>13} {:>10} {:>9}",
        "deadline", "sync_p50", "sync_p99", "async_p50", "async_p99", "conflicts", "rate"
    );
    for r in &sweep {
        println!(
            "{:>9} {:>12.1} {:>12.1} {:>13.1} {:>13.1} {:>10} {:>9.3}",
            r.deadline,
            r.sync_task_p50,
            r.sync_task_p99,
            r.async_task_p50,
            r.async_task_p99,
            r.async_conflicts,
            r.async_conflict_rate,
        );
    }

    let mut doc = BenchJson::new("pipeline", smoke);
    doc.object("task_latency", task_latency_json(&arms));
    doc.rows("conflict_sweep", sweep.iter().map(sweep_row_json));
    if let Err(e) = doc.write() {
        eprintln!("warning: cannot write BENCH_pipeline.json: {e}");
    }
}
