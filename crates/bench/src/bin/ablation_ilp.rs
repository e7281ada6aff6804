//! Ablation study of the ILP scheduler's engineering devices (not a paper
//! figure; DESIGN.md §5 commits to ablating these design choices):
//!
//! 1. **MIP start** — seeding branch and bound with the greedy heuristic
//!    placement (anytime behaviour);
//! 2. **Candidate cap** — the equivalence-class candidate budget.
//!
//! Each variant deploys the same HBase batch sequence; we report wall
//! time, placement success, and end-state violations.

use std::time::Instant;

use medea_bench::{f2, pct, Report};
use medea_cluster::{ApplicationId, ClusterState, Resources};
use medea_core::{IlpConfig, LraAlgorithm, LraScheduler};
use medea_sim::apps;

fn run(cfg: IlpConfig) -> (f64, usize, f64) {
    let cluster = ClusterState::homogeneous(60, Resources::new(16 * 1024, 16), 6);
    let reqs: Vec<_> = (0..8u64)
        .map(|i| apps::hbase_instance(ApplicationId(100 + i), 10))
        .collect();
    let mut scheduler = LraScheduler::new(LraAlgorithm::Ilp);
    scheduler.ilp = cfg;

    let mut state = cluster;
    let mut constraints = Vec::new();
    let mut placed = 0usize;
    let t0 = Instant::now();
    for batch in reqs.chunks(2) {
        let outcomes = scheduler.place(&state, batch, &constraints);
        for (req, out) in batch.iter().zip(outcomes) {
            if let Some(pl) = out.placement() {
                for (c, &n) in req.containers.iter().zip(&pl.nodes) {
                    let _ =
                        state.allocate(req.app, n, c, medea_cluster::ExecutionKind::LongRunning);
                }
                constraints.extend(req.constraints.iter().cloned());
                placed += 1;
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let viol = medea_constraints::violation_stats(&state, constraints.iter());
    (elapsed, placed, viol.violating_fraction())
}

fn main() {
    let mut report = Report::new(
        "ablation_ilp",
        "ILP ablations: wall time, LRAs placed, end-state violations",
        &["variant", "seconds", "placed", "violations_pct"],
    );
    // Each variant is the default config with one setting changed.
    let variants: Vec<(&str, IlpConfig)> = vec![
        ("baseline", IlpConfig::default()),
        (
            "no-mip-start",
            IlpConfig {
                mip_start: false,
                ..IlpConfig::default()
            },
        ),
        (
            "candidates=16",
            IlpConfig {
                max_candidates: 16,
                ..IlpConfig::default()
            },
        ),
        (
            "candidates=64",
            IlpConfig {
                max_candidates: 64,
                ..IlpConfig::default()
            },
        ),
    ];
    for (name, cfg) in variants {
        let (secs, placed, viol) = run(cfg);
        report.push(vec![
            name.to_string(),
            f2(secs),
            placed.to_string(),
            pct(viol),
        ]);
        eprintln!("ablation: {name} done");
    }
    report.finish();

    println!(
        "\nExpected: removing the MIP start costs time and/or quality \
         (branch and bound must find an incumbent from scratch within the \
         deadline); the candidate cap trades solve time against placement quality."
    );
}
