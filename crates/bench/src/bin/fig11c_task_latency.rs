//! Figure 11c: task scheduling latency on a Google-trace-like workload
//! sped up 200x, comparing Medea (with an extra ~10% LRA load) against
//! plain YARN (§7.5).
//!
//! Both runs use the same heartbeat-driven task scheduler (Medea reuses
//! YARN's); the question is whether the LRA scheduler's presence perturbs
//! task latency. Since the pipeline refactor the comparison has three
//! arms: the no-LRA baseline (YARN), Medea's asynchronous
//! propose/validate/commit pipeline, and the synchronous compatibility
//! mode where the solve blocks the resource manager — the monolithic
//! design the paper argues against. The solve latency elapses on the
//! simulated clock ([`medea_bench::paper_solve_model`]), so the run is
//! deterministic and asserts that it drains before the horizon.
//!
//! The binary asserts the claim it prints: the async median within 10%
//! of YARN's, and the sync tick's median above the async one.

use medea_bench::{f2, paper_solve_model, run_pipeline, PipelineScenario, Report};
use medea_sim::{box_stats, PipelineMode};

fn main() {
    let scenario = PipelineScenario::latency_comparison();
    let solve = paper_solve_model();
    let yarn = run_pipeline(&scenario, false, PipelineMode::Async, solve);
    let medea = run_pipeline(&scenario, true, PipelineMode::Async, solve);
    let sync = run_pipeline(&scenario, true, PipelineMode::Sync, solve);

    let mut report = Report::new(
        "fig11c",
        "Task scheduling latency (ms) on Google-like trace at 200x",
        &["scheduler", "tasks", "p5", "p25", "p50", "p75", "p99"],
    );
    for (name, run) in [
        ("MEDEA async (short tasks)", &medea),
        ("MEDEA sync tick", &sync),
        ("YARN", &yarn),
    ] {
        let b = box_stats(&run.task_latencies);
        report.push(vec![
            name.to_string(),
            run.task_latencies.len().to_string(),
            f2(b.p5),
            f2(b.p25),
            f2(b.p50),
            f2(b.p75),
            f2(b.p99),
        ]);
    }
    report.finish();

    let bm = box_stats(&medea.task_latencies);
    let bs = box_stats(&sync.task_latencies);
    let by = box_stats(&yarn.task_latencies);
    let async_pct = (bm.p50 / by.p50.max(1e-9) - 1.0) * 100.0;
    let sync_pct = (bs.p50 / by.p50.max(1e-9) - 1.0) * 100.0;
    println!(
        "\nPaper claim: despite the extra LRA load, Medea's task scheduling \
         latency matches YARN's because the solve runs off the critical \
         path. Measured medians: MEDEA async {:.0} ms vs YARN {:.0} ms \
         ({async_pct:+.0}%); the synchronous tick jumps to {:.0} ms \
         ({sync_pct:+.0}%) — the heartbeats due during each solve wait for it.",
        bm.p50, by.p50, bs.p50,
    );
    println!(
        "Conflicts resolved by resubmission in the async run: {} \
         (of {} deployments).",
        medea.commit_conflicts, medea.deployments
    );
    assert!(
        async_pct.abs() <= 10.0,
        "the async pipeline must keep the task-latency median within 10% of \
         YARN's (got {async_pct:+.1}%)"
    );
    assert!(
        sync_pct > async_pct,
        "the monolithic sync tick must degrade task latency more than async \
         (sync {sync_pct:+.1}% vs async {async_pct:+.1}%)"
    );
}
