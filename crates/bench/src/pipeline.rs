//! Shared scenario for the placement-pipeline figures, Figs. 11b and
//! 11c: a Google-trace-like task stream on the heartbeat path with a
//! rolling LRA churn on the solver path, run under either placement
//! pipeline ([`PipelineMode::Sync`] blocks the simulated resource manager
//! for the whole solve; [`PipelineMode::Async`] lets the solve elapse on
//! the sim clock and commits against live state).
//!
//! Everything is measured on the simulated clock, so runs are
//! deterministic per seed: the two figure binaries assert their
//! two-scheduler claims on exact numbers, not on wall-clock noise, and
//! run at full size in CI.

use medea_cluster::{ApplicationId, ClusterState, NodeGroupId, Resources, Tag};
use medea_constraints::{Cardinality, PlacementConstraint};
use medea_core::{LraAlgorithm, LraRequest};
use medea_sim::{GoogleTraceLike, PipelineMode, SimDriver, SimEvent, SolveLatencyModel};

/// Parameters of one pipeline run: cluster shape, task trace, and the
/// rolling LRA load that keeps a solve in flight on most intervals.
#[derive(Debug, Clone)]
pub struct PipelineScenario {
    /// Cluster size.
    pub nodes: usize,
    /// Per-node resources.
    pub node_resources: Resources,
    /// Rack count.
    pub racks: usize,
    /// LRA placement algorithm.
    pub algorithm: LraAlgorithm,
    /// Task jobs drawn from the Google-trace-like generator.
    pub jobs: usize,
    /// Seed for the task trace.
    pub trace_seed: u64,
    /// Number of LRA submissions, one per scheduling interval.
    pub lra_waves: u64,
    /// Containers per LRA.
    pub lra_containers: usize,
    /// Memory per LRA container (MB).
    pub lra_memory_mb: u64,
    /// Ticks between an LRA's submission and its completion (the churn
    /// that keeps the solver busy across the whole horizon).
    pub lra_lifetime: u64,
    /// LRA scheduling interval in ticks (paper: 10 s).
    pub interval: u64,
    /// Safety limit for [`SimDriver::run_to_completion`]; the run must
    /// drain before it.
    pub horizon: u64,
}

impl PipelineScenario {
    /// The Fig. 11c-scale scenario: a 100-node cluster with ample
    /// headroom, ~600 task jobs at 200x speedup, and an LRA wave per
    /// interval (~10% extra scheduling load). Capacity is never tight,
    /// so the question the run answers is purely about latency: does
    /// the LRA solve perturb task scheduling?
    pub fn latency_comparison() -> Self {
        PipelineScenario {
            nodes: 100,
            node_resources: Resources::new(32 * 1024, 32),
            racks: 10,
            algorithm: LraAlgorithm::Ilp,
            jobs: 600,
            trace_seed: 42,
            lra_waves: 30,
            lra_containers: 10,
            lra_memory_mb: 2048,
            lra_lifetime: 60_000,
            interval: 10_000,
            horizon: 600_000,
        }
    }

    /// A core-tight variant of the same cluster: memory stays ample (the
    /// task path never saturates, so its latency signal stays clean) but
    /// per-node CPU slots are scarce enough that a task burst landing
    /// mid-solve can exhaust the cores a proposal counted on. The longer
    /// a proposal sits in flight, the more commit-time conflicts. Used
    /// for the conflict-rate-vs-solve-deadline sweep (Fig. 11b).
    pub fn contention() -> Self {
        PipelineScenario {
            nodes: 100,
            node_resources: Resources::new(32 * 1024, 12),
            racks: 10,
            algorithm: LraAlgorithm::NodeCandidates,
            jobs: 600,
            trace_seed: 7,
            lra_waves: 30,
            lra_containers: 10,
            lra_memory_mb: 2048,
            lra_lifetime: 60_000,
            interval: 10_000,
            horizon: 600_000,
        }
    }
}

/// Measurements of one pipeline run, all on the simulated clock.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// Scheduling latency of every allocated task container, in ticks.
    pub task_latencies: Vec<f64>,
    /// Scheduling latency of every deployed LRA, in ticks.
    pub lra_latencies: Vec<f64>,
    /// Deployed LRA count.
    pub deployments: usize,
    /// Commit-time conflicts (stale placements invalidated and
    /// resubmitted); structurally zero in [`PipelineMode::Sync`].
    pub commit_conflicts: usize,
    /// LRAs that ended unplaced.
    pub unplaced: usize,
}

/// Runs the scenario under the given pipeline and solve-latency model;
/// `lra_load` off gives the no-LRA baseline (plain YARN). Panics if the
/// run fails to drain before the scenario horizon — a truncated run
/// would silently bias every latency percentile.
pub fn run_pipeline(
    scenario: &PipelineScenario,
    lra_load: bool,
    mode: PipelineMode,
    latency: SolveLatencyModel,
) -> PipelineRun {
    let cluster =
        ClusterState::homogeneous(scenario.nodes, scenario.node_resources, scenario.racks);
    let mut sim = SimDriver::new(cluster, scenario.algorithm, scenario.interval)
        .with_pipeline(mode)
        .with_solve_latency(latency);
    sim.start_heartbeats();

    let mut trace = GoogleTraceLike::new(scenario.trace_seed);
    for (t, job, duration) in trace.arrivals(scenario.jobs) {
        sim.schedule(t, SimEvent::SubmitTasks { job, duration });
    }

    if lra_load {
        for i in 0..scenario.lra_waves {
            let app = ApplicationId(100 + i);
            let t = i * scenario.interval + scenario.interval / 2;
            let req = LraRequest::uniform(
                app,
                scenario.lra_containers,
                Resources::new(scenario.lra_memory_mb, 1),
                vec![Tag::new("svc")],
                vec![PlacementConstraint::new(
                    "svc",
                    "svc",
                    Cardinality::at_most(3),
                    NodeGroupId::node(),
                )],
            );
            sim.schedule(t, SimEvent::SubmitLra(req));
            sim.schedule(t + scenario.lra_lifetime, SimEvent::LraComplete(app));
        }
    }

    let drained = sim.run_to_completion(scenario.horizon);
    assert!(
        drained,
        "pipeline scenario truncated at {} ({mode:?}, lra_load={lra_load})",
        scenario.horizon
    );

    PipelineRun {
        task_latencies: sim
            .metrics()
            .task_latencies
            .iter()
            .map(|&l| l as f64)
            .collect(),
        lra_latencies: sim
            .metrics()
            .lra_latencies
            .iter()
            .map(|&l| l as f64)
            .collect(),
        deployments: sim.metrics().deployments.len(),
        commit_conflicts: sim.medea().stats().commit_conflicts,
        unplaced: sim.medea().stats().lras_unplaced,
    }
}

/// The solve-latency model both figure bins charge per batch: a few
/// simulated seconds of fixed cost plus per-LRA and per-container terms,
/// calibrated so a typical wave occupies roughly half the 10 s interval
/// — long enough that a monolithic tick visibly stalls heartbeats, short
/// enough that the async pipeline always commits before the next tick.
pub fn paper_solve_model() -> SolveLatencyModel {
    SolveLatencyModel {
        base_ticks: 4_000,
        per_lra_ticks: 400,
        per_container_ticks: 60,
    }
}
