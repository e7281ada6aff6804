//! Experiment harness for the Medea reproduction: shared scaffolding used
//! by the per-figure and `*_bench` binaries in `src/bin/`.
//!
//! Run any experiment with
//! `cargo run --release -p medea-bench --bin <target>`; see DESIGN.md §8
//! for the experiment index (every table and figure of the paper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod output;
mod pipeline;
mod scenarios;
mod timing;

pub use output::{f2, f3, pct, BenchJson, Report};
pub use pipeline::{paper_solve_model, run_pipeline, PipelineRun, PipelineScenario};
pub use scenarios::{deploy_lras, deploy_lras_with_metrics, lra_mix, DeployResult};
pub use timing::{time_iters, Summary};
