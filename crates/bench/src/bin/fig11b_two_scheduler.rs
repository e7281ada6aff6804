//! Figure 11b: the benefit of the two-scheduler design (§7.5).
//!
//! A capacity-tight cluster runs a bursty task stream plus a rolling LRA
//! churn, and the LRA solve deadline is swept from instant to most of
//! the scheduling interval. The synchronous pipeline is the
//! single-scheduler strawman: the solve runs on the heartbeat path, so
//! every task due while it runs waits — task latency inflates with the
//! deadline. The asynchronous pipeline is Medea's design: the solve
//! elapses off the critical path on the state it started from, and the
//! cost shows up instead as commit-time conflicts (stale placements
//! invalidated and resubmitted, §5.4), which grow with the deadline but
//! never touch the task path. Both runs are on the simulated clock and
//! must drain.
//!
//! The binary asserts the shape it prints, row by row: the sync run sees
//! zero commit conflicts; the sync task p50 and the async conflict count
//! never fall as the deadline grows; the async task p50 stays within
//! ±10% of the deadline-0 row.

use medea_bench::{f2, f3, run_pipeline, PipelineScenario, Report};
use medea_sim::{box_stats, PipelineMode, SolveLatencyModel};

/// Pools task latencies and conflict counts across trace seeds, so one
/// bursty arrival pattern does not dominate a row.
fn pooled(
    scenario: &PipelineScenario,
    mode: PipelineMode,
    lat: SolveLatencyModel,
    seeds: &[u64],
) -> (Vec<f64>, usize, usize) {
    let mut latencies = Vec::new();
    let mut conflicts = 0;
    let mut deployments = 0;
    for &seed in seeds {
        let mut s = scenario.clone();
        s.trace_seed = seed;
        let run = run_pipeline(&s, true, mode, lat);
        latencies.extend(run.task_latencies);
        conflicts += run.commit_conflicts;
        deployments += run.deployments;
    }
    (latencies, conflicts, deployments)
}

fn main() {
    let scenario = PipelineScenario::contention();
    let seeds = [7u64, 21, 35];
    let deadlines = [0u64, 1_000, 2_500, 5_000, 7_500];

    let mut report = Report::new(
        "fig11b",
        "Task latency (ms) vs LRA solve deadline: sync (one scheduler) vs async (two)",
        &[
            "deadline",
            "sync_p50",
            "sync_p99",
            "async_p50",
            "async_p99",
            "slowdown",
            "conflicts",
            "conflict_rate",
        ],
    );
    // (sync p50, async p50, async conflicts) per deadline, for the shape
    // assertions below.
    let mut shape: Vec<(f64, f64, usize)> = Vec::new();
    for &d in &deadlines {
        let lat = SolveLatencyModel::fixed(d);
        let (sync_lat, sync_conflicts, _) = pooled(&scenario, PipelineMode::Sync, lat, &seeds);
        let (async_lat, conflicts, deployments) =
            pooled(&scenario, PipelineMode::Async, lat, &seeds);
        assert_eq!(
            sync_conflicts, 0,
            "nothing mutates between a sync propose and its commit"
        );
        let bs = box_stats(&sync_lat);
        let ba = box_stats(&async_lat);
        let attempts = deployments + conflicts;
        shape.push((bs.p50, ba.p50, conflicts));
        report.push(vec![
            d.to_string(),
            f2(bs.p50),
            f2(bs.p99),
            f2(ba.p50),
            f2(ba.p99),
            f2(bs.p50 / ba.p50.max(1e-9)),
            conflicts.to_string(),
            f3(conflicts as f64 / attempts.max(1) as f64),
        ]);
        eprintln!("fig11b: deadline {d} done");
    }
    report.finish();

    let async_p50_at_0 = shape[0].1.max(1e-9);
    let max_conflicts = shape[shape.len() - 1].2;
    for (w, &d) in shape.windows(2).zip(&deadlines[1..]) {
        let ((sync_before, _, conflicts_before), (sync_p50, _, conflicts)) = (w[0], w[1]);
        assert!(
            sync_p50 >= sync_before,
            "the sync task p50 must not fall as the deadline grows \
             ({sync_before:.1} -> {sync_p50:.1} ms at deadline {d})"
        );
        assert!(
            conflicts >= conflicts_before,
            "async commit conflicts must not fall as the deadline grows \
             ({conflicts_before} -> {conflicts} at deadline {d})"
        );
    }
    for (&(_, async_p50, _), &d) in shape.iter().zip(&deadlines) {
        let pct = (async_p50 / async_p50_at_0 - 1.0) * 100.0;
        assert!(
            pct.abs() <= 10.0,
            "the async task p50 must stay within 10% of the deadline-0 row \
             (got {pct:+.1}% at deadline {d})"
        );
    }

    println!(
        "\nPaper claim: putting the solver on the task path (the \
         single-scheduler design) inflates task latency as solves get \
         longer, while the two-scheduler design keeps the task path flat \
         and pays with commit conflicts instead — {max_conflicts} at the \
         longest deadline here, every one resolved by resubmission rather \
         than by stalling tasks."
    );
}
