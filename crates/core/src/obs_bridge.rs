//! Bridge between the dependency-free solver instrumentation hook and
//! the `medea-obs` metrics registry.
//!
//! The solver crate reports discrete [`SolveEvent`]s through the
//! [`SolveInstrumentation`] trait without linking any metrics library;
//! this bridge resolves the `solver.*` series once at construction and
//! maps each event onto a lock-free counter, so the per-event cost is a
//! single relaxed atomic add.

use medea_obs::MetricsRegistry;
use medea_solver::{SolveEvent, SolveInstrumentation};

medea_obs::metric_handles! {
    /// Maps [`SolveEvent`]s onto `solver.*` counters of a registry.
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

impl SolveInstrumentation for SolverMetricsBridge {
    fn record(&self, event: SolveEvent) {
        match event {
            SolveEvent::SimplexPivots(n) => self.simplex_pivots.add(n),
            SolveEvent::NodeExplored => self.nodes_explored.inc(),
            SolveEvent::NodePruned => self.nodes_pruned.inc(),
            SolveEvent::IncumbentImproved => self.incumbent_improvements.inc(),
            SolveEvent::DeadlineHit => self.deadline_hits.inc(),
            SolveEvent::NodeLimitHit => self.node_limit_hits.inc(),
            SolveEvent::Refactorizations(n) => self.refactorizations.add(n),
            SolveEvent::WarmStartUsed => self.warm_starts.inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bridge_maps_events_to_counters() {
        let registry = MetricsRegistry::new();
        let bridge = SolverMetricsBridge::new(&registry);
        bridge.record(SolveEvent::SimplexPivots(17));
        bridge.record(SolveEvent::NodeExplored);
        bridge.record(SolveEvent::NodeExplored);
        bridge.record(SolveEvent::NodePruned);
        bridge.record(SolveEvent::IncumbentImproved);
        bridge.record(SolveEvent::DeadlineHit);
        bridge.record(SolveEvent::NodeLimitHit);
        bridge.record(SolveEvent::Refactorizations(3));
        bridge.record(SolveEvent::WarmStartUsed);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("solver.simplex_pivots_total"), Some(17));
        assert_eq!(snap.counter("solver.bnb_nodes_explored_total"), Some(2));
        assert_eq!(snap.counter("solver.bnb_nodes_pruned_total"), Some(1));
        assert_eq!(snap.counter("solver.incumbent_improvements_total"), Some(1));
        assert_eq!(snap.counter("solver.deadline_hits_total"), Some(1));
        assert_eq!(snap.counter("solver.node_limit_hits_total"), Some(1));
        assert_eq!(snap.counter("solver.refactorizations_total"), Some(3));
        assert_eq!(snap.counter("solver.warm_starts_total"), Some(1));
    }
}
