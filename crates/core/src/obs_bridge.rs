//! Bridge between the dependency-free solver and the `medea-obs`
//! metrics registry.
//!
//! The solver crate links no metrics library: each solve returns its
//! counts in [`MilpSolution::counts`]. This bridge resolves the
//! `solver.*` series once at construction and adds one solve's counts to
//! them.

use medea_obs::MetricsRegistry;
use medea_solver::MilpSolution;

medea_obs::metric_handles! {
    /// Adds each solve's [`MilpSolution::counts`] to `solver.*` counters
    /// of a registry.
    #[derive(Debug)]
    pub struct SolverMetricsBridge {
        simplex_pivots: Counter = "solver.simplex_pivots_total",
        nodes_explored: Counter = "solver.bnb_nodes_explored_total",
        nodes_pruned: Counter = "solver.bnb_nodes_pruned_total",
        incumbent_improvements: Counter = "solver.incumbent_improvements_total",
        deadline_hits: Counter = "solver.deadline_hits_total",
        node_limit_hits: Counter = "solver.node_limit_hits_total",
        refactorizations: Counter = "solver.refactorizations_total",
        warm_starts: Counter = "solver.warm_starts_total",
    }
}

medea_obs::metric_handles! {
    /// Pre-resolved series of the two placer arms (the anchor's, the
    /// exact arm's `core.prepare_*` and `core.ilp_*`, the heuristic arm's
    /// validation as `core.relax_*`), looked up once against the
    /// [`crate::LraScheduler`]'s registry.
    #[derive(Debug)]
    pub(crate) struct ArmMetrics {
        pub(crate) prepare_anchor_us: Histogram = "core.prepare_anchor_us",
        pub(crate) anchor_probes: Counter = "core.anchor_probes_total",
        pub(crate) prepare_candidates_us: Histogram = "core.prepare_candidates_us",
        pub(crate) prepare_model_us: Histogram = "core.prepare_model_us",
        pub(crate) ilp_solve_us: Histogram = "core.ilp_solve_us",
        pub(crate) heuristic_fallbacks: Counter = "core.heuristic_fallback_total",
        pub(crate) relax_validate_us: Histogram = "core.relax_validate_us",
        pub(crate) relax_evictions: Counter = "core.relax_evictions_total",
    }
}

/// Everything a placer arm reports into: its own `core.*` series and the
/// `solver.*` bridge.
#[derive(Debug)]
pub(crate) struct PlacerMetrics {
    pub(crate) arm: ArmMetrics,
    pub(crate) solver: SolverMetricsBridge,
}

impl PlacerMetrics {
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        PlacerMetrics {
            arm: ArmMetrics::new(registry),
            solver: SolverMetricsBridge::new(registry),
        }
    }
}

/// Handles on a registry of their own, until one is attached.
impl Default for PlacerMetrics {
    fn default() -> Self {
        PlacerMetrics::new(&MetricsRegistry::new())
    }
}

impl SolverMetricsBridge {
    /// Adds one solve's counts.
    pub fn record(&self, sol: &MilpSolution) {
        let c = &sol.counts;
        self.simplex_pivots.add(c.pivots);
        self.nodes_explored.add(sol.nodes as u64);
        self.nodes_pruned.add(c.nodes_pruned);
        self.incumbent_improvements.add(c.incumbent_improvements);
        self.deadline_hits.add(u64::from(c.deadline_hit));
        self.node_limit_hits.add(u64::from(c.node_limit_hit));
        self.refactorizations.add(c.refactorizations);
        self.warm_starts.add(c.warm_starts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_solver::{Cmp, Milp, Problem};

    /// After two exact solves, a complete one and one the node limit
    /// stops, each `solver.*` counter holds the sum of the returned counts.
    #[test]
    fn counters_equal_the_returned_counts() {
        let mut p = Problem::maximize();
        let values = [29.0, 28.0, 49.0, 20.0, 31.0, 46.0, 37.0, 41.0];
        let weights = [20.0, 9.0, 10.0, 12.0, 6.0, 24.0, 17.0, 14.0];
        let xs: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| p.add_binary(v, format!("x{i}")))
            .collect();
        p.add_constraint(xs.iter().zip(weights).map(|(&x, w)| (x, w)), Cmp::Le, 40.0);
        let registry = MetricsRegistry::new();
        let bridge = SolverMetricsBridge::new(&registry);
        let full = Milp::new(&p).solve().unwrap();
        let limited = Milp::new(&p).node_limit(2).solve().unwrap();
        bridge.record(&full);
        bridge.record(&limited);
        let (a, b) = (full.counts, limited.counts);
        assert!(a.nodes_pruned > 0 && a.warm_starts > 0 && b.node_limit_hit);
        let snap = registry.snapshot();
        let read = |name: &str| snap.counter(name).unwrap();
        assert_eq!(read("solver.simplex_pivots_total"), a.pivots + b.pivots);
        assert_eq!(
            read("solver.bnb_nodes_explored_total"),
            (full.nodes + limited.nodes) as u64
        );
        assert_eq!(
            read("solver.bnb_nodes_pruned_total"),
            a.nodes_pruned + b.nodes_pruned
        );
        assert_eq!(
            read("solver.incumbent_improvements_total"),
            a.incumbent_improvements + b.incumbent_improvements
        );
        assert_eq!(read("solver.deadline_hits_total"), 0);
        assert_eq!(read("solver.node_limit_hits_total"), 1);
        assert_eq!(
            read("solver.refactorizations_total"),
            a.refactorizations + b.refactorizations
        );
        assert_eq!(
            read("solver.warm_starts_total"),
            a.warm_starts + b.warm_starts
        );
    }
}
