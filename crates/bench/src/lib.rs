//! Experiment harness for the Medea reproduction: shared scaffolding used
//! by the per-figure binaries in `src/bin/` and the `benches/` timing
//! targets.
//!
//! Run any experiment with
//! `cargo run --release -p medea-bench --bin <target>`; see DESIGN.md §8
//! for the experiment index (every table and figure of the paper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod models;
mod output;
mod pipeline;
mod scenarios;
mod timing;

pub use models::placement_model;
pub use output::{f2, f3, pct, BenchJson, Report};
pub use pipeline::{paper_solve_model, run_pipeline, PipelineRun, PipelineScenario};
pub use scenarios::{
    deploy_lras, deploy_lras_with_metrics, hbase_count_for_utilization, lra_mix, DeployResult,
};
pub use timing::bench;
