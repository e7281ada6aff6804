//! Branch-and-bound solver for mixed-integer linear programs.
//!
//! The search solves LP relaxations with [`crate::simplex::Simplex`],
//! branches on the most fractional integer variable, and explores nodes
//! best-bound-first with an initial depth-first dive so that an incumbent is
//! found early. The solver is *anytime*: it honours a wall-clock deadline
//! and a node limit and reports the best incumbent found so far, which is
//! exactly how Medea's LRA scheduler uses it (a scheduling interval bounds
//! the time available for placement).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::instrument::{SolveEvent, SolveInstrumentation};
use crate::problem::{Problem, Sense, VarId};
use crate::simplex::{Basis, LpSolution, LpStatus, Simplex};

/// Integrality tolerance: a value within this distance of an integer is
/// considered integral.
pub const INT_TOL: f64 = 1e-6;

/// Outcome status of a mixed-integer solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilpStatus {
    /// Proven optimal integral solution.
    Optimal,
    /// A feasible integral solution was found, but the search stopped on a
    /// limit before proving optimality.
    Feasible,
    /// No integral feasible point exists.
    Infeasible,
    /// The relaxation (and hence the MILP) is unbounded.
    Unbounded,
    /// A limit was hit before any integral solution was found.
    NoSolutionFound,
}

/// Result of a mixed-integer solve.
#[derive(Debug, Clone)]
pub struct MilpSolution {
    /// Solve status.
    pub status: MilpStatus,
    /// Values of the problem's variables (empty unless a solution exists).
    pub values: Vec<f64>,
    /// Objective in the problem's original sense.
    pub objective: f64,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Best proven bound on the optimum (original sense).
    pub best_bound: f64,
    /// Total wall-clock time of the solve.
    pub elapsed: Duration,
}

impl MilpSolution {
    /// Returns the value of a variable in the incumbent solution.
    ///
    /// # Panics
    ///
    /// Panics if no solution is available or the handle is out of range.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// Returns `true` if an integral feasible solution is available.
    pub fn has_solution(&self) -> bool {
        matches!(self.status, MilpStatus::Optimal | MilpStatus::Feasible)
    }
}

/// A branch-and-bound node: a set of bound overrides on the base problem.
#[derive(Debug, Clone)]
struct Node {
    /// Overrides as `(var index, lower, upper)`.
    bounds: Vec<(usize, f64, f64)>,
    /// LP bound of the parent (minimization form); used for ordering.
    bound: f64,
    depth: usize,
    /// Optimal basis of the parent's LP relaxation; the child LP
    /// warm-starts from it and dual-simplex-repairs the one changed bound
    /// instead of re-solving from scratch.
    basis: Option<Arc<Basis>>,
}

/// Heap ordering: smaller minimization bound is better; deeper first on tie
/// (keeps the dive property).
struct HeapNode(Node);

impl PartialEq for HeapNode {
    fn eq(&self, other: &Self) -> bool {
        self.0.bound == other.0.bound && self.0.depth == other.0.depth
    }
}
impl Eq for HeapNode {}
impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert the bound comparison.
        other
            .0
            .bound
            .partial_cmp(&self.0.bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.0.depth.cmp(&other.0.depth))
    }
}

/// Branch-and-bound MILP solver with deadline and node limits.
///
/// # Examples
///
/// ```
/// use medea_solver::{Problem, Cmp, Milp};
///
/// // 0-1 knapsack: max 10a + 13b + 7c, 3a + 4b + 2c <= 6.
/// let mut p = Problem::maximize();
/// let a = p.add_binary(10.0, "a");
/// let b = p.add_binary(13.0, "b");
/// let c = p.add_binary(7.0, "c");
/// p.add_constraint(vec![(a, 3.0), (b, 4.0), (c, 2.0)], Cmp::Le, 6.0);
/// let sol = Milp::new(&p).solve().unwrap();
/// assert_eq!(sol.objective.round() as i64, 20);
/// ```
pub struct Milp<'a> {
    problem: &'a Problem,
    deadline: Option<Duration>,
    node_limit: usize,
    /// Relative optimality gap at which the search stops early.
    gap_tol: f64,
    /// Optional complete initial point (see [`Milp::with_incumbent`]).
    incumbent_point: Option<Vec<f64>>,
    /// Root bound overrides applied to the entire search.
    root_bounds: Vec<(usize, f64, f64)>,
    /// Optional event sink (see [`SolveInstrumentation`]); `None` costs
    /// nothing on the hot path.
    instrumentation: Option<&'a dyn SolveInstrumentation>,
}

impl<'a> Milp<'a> {
    /// Creates a solver for the given problem with default limits.
    pub fn new(problem: &'a Problem) -> Self {
        Milp {
            problem,
            deadline: None,
            node_limit: 200_000,
            gap_tol: 1e-6,
            incumbent_point: None,
            root_bounds: Vec::new(),
            instrumentation: None,
        }
    }

    /// Attaches an instrumentation sink receiving [`SolveEvent`]s
    /// (simplex pivots, nodes explored/pruned, incumbent improvements,
    /// limit hits) during [`Milp::solve`].
    pub fn with_instrumentation(mut self, sink: &'a dyn SolveInstrumentation) -> Self {
        self.instrumentation = Some(sink);
        self
    }

    /// Emits an event to the attached sink, if any.
    fn emit(&self, event: SolveEvent) {
        if let Some(sink) = self.instrumentation {
            sink.record(event);
        }
    }

    /// Emits the per-LP-solve event group (pivots, refactorizations, and
    /// whether a warm basis seeded the solve).
    fn emit_lp(&self, lp: &LpSolution, warm: bool) {
        if self.instrumentation.is_none() {
            return;
        }
        self.emit(SolveEvent::SimplexPivots(lp.iterations as u64));
        if lp.refactorizations > 0 {
            self.emit(SolveEvent::Refactorizations(lp.refactorizations as u64));
        }
        if warm {
            self.emit(SolveEvent::WarmStartUsed);
        }
    }

    /// Provides a complete known-feasible point as the initial incumbent.
    ///
    /// The point must assign every variable; it is verified with
    /// [`Problem::is_feasible`] and silently ignored if it does not check
    /// out. The search then only has to *improve* on it, which makes the
    /// solver anytime: with a tight deadline it degrades to the point's
    /// quality instead of failing.
    pub fn with_incumbent(mut self, point: Vec<f64>) -> Self {
        self.incumbent_point = Some(point);
        self
    }

    /// Applies bound overrides to the whole search (all nodes).
    pub fn with_root_bounds(mut self, bounds: Vec<(usize, f64, f64)>) -> Self {
        self.root_bounds = bounds;
        self
    }

    /// Sets a wall-clock time limit; the best incumbent found before the
    /// deadline is returned with [`MilpStatus::Feasible`].
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Sets the maximum number of branch-and-bound nodes.
    pub fn node_limit(mut self, limit: usize) -> Self {
        self.node_limit = limit;
        self
    }

    /// Sets the relative optimality gap at which the search may stop.
    pub fn gap(mut self, gap: f64) -> Self {
        self.gap_tol = gap;
        self
    }

    /// Runs branch and bound and returns the best solution found.
    ///
    /// Errors are limited to problem-validation failures; solver-side
    /// conditions (infeasible, unbounded, limits) are reported in
    /// [`MilpSolution::status`].
    pub fn solve(&self) -> Result<MilpSolution, crate::problem::ProblemError> {
        self.problem.validate()?;
        let start = Instant::now();
        let p = self.problem;
        let sign = match p.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let int_vars: Vec<usize> = p
            .vars()
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_integral())
            .map(|(i, _)| i)
            .collect();

        let simplex = Simplex::new(p);

        // Root relaxation, cold; its optimal basis warm-starts the children.
        let (root, root_lp_basis) = simplex.solve_warm(
            if self.root_bounds.is_empty() {
                None
            } else {
                Some(&self.root_bounds)
            },
            None,
        );
        self.emit_lp(&root, false);
        match root.status {
            LpStatus::Infeasible => {
                return Ok(self.finish(MilpStatus::Infeasible, None, f64::NAN, 0, start))
            }
            LpStatus::Unbounded => {
                return Ok(self.finish(MilpStatus::Unbounded, None, f64::NAN, 0, start))
            }
            LpStatus::IterationLimit => {
                return Ok(self.finish(MilpStatus::NoSolutionFound, None, f64::NAN, 0, start))
            }
            LpStatus::Optimal => {}
        }

        let mut incumbent: Option<(Vec<f64>, f64)> = None; // (values, min-form obj)
        let mut heap = BinaryHeap::new();
        let mut nodes = 0usize;
        let mut best_bound = sign * root.objective;

        // Complete initial point, if provided and feasible.
        if let Some(point) = &self.incumbent_point {
            if point.len() == p.num_vars() && p.is_feasible(point, 1e-6) {
                let obj = sign * p.objective_value(point);
                incumbent = Some((point.clone(), obj));
                self.emit(SolveEvent::IncumbentImproved);
            }
        }

        // Initial depth-first dive: follow rounded branches from the root
        // until an integral leaf (or dead end), pushing siblings onto the
        // heap. This produces an early incumbent so that best-first
        // pruning is effective from the start.
        {
            let mut cur = Node {
                bounds: self.root_bounds.clone(),
                bound: sign * root.objective,
                depth: 0,
                basis: root_lp_basis.map(Arc::new),
            };
            let max_dive = 4 * int_vars.len() + 8;
            let mut steps = 0;
            loop {
                if steps >= max_dive {
                    // Dive budget exhausted: return the remaining subtree
                    // to the heap so the search stays exhaustive.
                    heap.push(HeapNode(cur));
                    break;
                }
                steps += 1;
                if let Some(d) = self.deadline {
                    if start.elapsed() >= d {
                        self.emit(SolveEvent::DeadlineHit);
                        heap.push(HeapNode(cur));
                        break;
                    }
                }
                let (lp, lp_basis) = simplex.solve_warm(Some(&cur.bounds), cur.basis.as_deref());
                self.emit_lp(&lp, cur.basis.is_some());
                if lp.status != LpStatus::Optimal {
                    self.emit(SolveEvent::NodePruned);
                    break;
                }
                let lp_basis = lp_basis.map(Arc::new);
                nodes += 1;
                self.emit(SolveEvent::NodeExplored);
                let node_obj = sign * lp.objective;
                // Rounding heuristic: try the nearest integral point.
                self.try_rounded(&lp.values, &int_vars, sign, &mut incumbent);
                let mut branch: Option<(usize, f64, f64)> = None;
                for &j in &int_vars {
                    let v = lp.values[j];
                    let frac = (v - v.round()).abs();
                    if frac > INT_TOL {
                        let score = (v - v.floor() - 0.5).abs();
                        if branch.is_none_or(|(_, _, s)| score < s) {
                            branch = Some((j, v, score));
                        }
                    }
                }
                let Some((j, v, _)) = branch else {
                    // Integral leaf: incumbent.
                    let mut vals = lp.values.clone();
                    for &jj in &int_vars {
                        vals[jj] = vals[jj].round();
                    }
                    let obj = sign * p.objective_value(&vals);
                    if incumbent.as_ref().is_none_or(|(_, inc)| obj < *inc) {
                        incumbent = Some((vals, obj));
                        self.emit(SolveEvent::IncumbentImproved);
                    }
                    break;
                };
                let floor = v.floor();
                let ceil = floor + 1.0;
                let (lo, up) = self.effective_bounds(&cur.bounds, j);
                // Dive toward the rounded value; push the sibling.
                let dive_up = v - floor >= 0.5;
                let mut sib = cur.bounds.clone();
                let mut div = cur.bounds.clone();
                if dive_up {
                    set_override(&mut div, j, ceil.min(up), up);
                    set_override(&mut sib, j, lo, floor.max(lo));
                } else {
                    set_override(&mut div, j, lo, floor.max(lo));
                    set_override(&mut sib, j, ceil.min(up), up);
                }
                heap.push(HeapNode(Node {
                    bounds: sib,
                    bound: node_obj,
                    depth: cur.depth + 1,
                    basis: lp_basis.clone(),
                }));
                cur = Node {
                    bounds: div,
                    bound: node_obj,
                    depth: cur.depth + 1,
                    basis: lp_basis,
                };
            }
        }

        while let Some(HeapNode(node)) = heap.pop() {
            // Global best bound is the minimum over the heap and the node
            // being expanded (heap is best-first, so this node's bound).
            best_bound = node.bound;
            if let Some((_, inc_obj)) = &incumbent {
                // Prune by bound, and stop on gap.
                if node.bound >= inc_obj - self.gap_abs(*inc_obj) {
                    best_bound = *inc_obj;
                    break;
                }
            }
            if nodes >= self.node_limit {
                self.emit(SolveEvent::NodeLimitHit);
                break;
            }
            if let Some(d) = self.deadline {
                if start.elapsed() >= d {
                    self.emit(SolveEvent::DeadlineHit);
                    break;
                }
            }
            nodes += 1;
            self.emit(SolveEvent::NodeExplored);

            let (lp, lp_basis) = simplex.solve_warm(Some(&node.bounds), node.basis.as_deref());
            self.emit_lp(&lp, node.basis.is_some());
            match lp.status {
                LpStatus::Infeasible => {
                    self.emit(SolveEvent::NodePruned);
                    continue;
                }
                LpStatus::Unbounded => {
                    // With an incumbent this cannot improve reporting;
                    // without one the whole MILP may be unbounded, but for
                    // bounded-variable integer programs (Medea's case) this
                    // indicates continuous unboundedness: report it.
                    if incumbent.is_none() {
                        return Ok(self.finish(
                            MilpStatus::Unbounded,
                            None,
                            f64::NAN,
                            nodes,
                            start,
                        ));
                    }
                    self.emit(SolveEvent::NodePruned);
                    continue;
                }
                LpStatus::IterationLimit => {
                    self.emit(SolveEvent::NodePruned);
                    continue;
                }
                LpStatus::Optimal => {}
            }
            let node_obj = sign * lp.objective;
            if let Some((_, inc_obj)) = &incumbent {
                if node_obj >= inc_obj - self.gap_abs(*inc_obj) {
                    self.emit(SolveEvent::NodePruned);
                    continue;
                }
            }
            self.try_rounded(&lp.values, &int_vars, sign, &mut incumbent);

            // Find the most fractional integer variable.
            let mut branch: Option<(usize, f64, f64)> = None; // (var, value, frac score)
            for &j in &int_vars {
                let v = lp.values[j];
                let frac = (v - v.round()).abs();
                if frac > INT_TOL {
                    let score = (v - v.floor() - 0.5).abs(); // closer to .5 is better
                    if branch.is_none_or(|(_, _, s)| score < s) {
                        branch = Some((j, v, score));
                    }
                }
            }

            match branch {
                None => {
                    // Integral: new incumbent.
                    let mut vals = lp.values.clone();
                    for &j in &int_vars {
                        vals[j] = vals[j].round();
                    }
                    let obj = sign * p.objective_value(&vals);
                    let better = incumbent.as_ref().is_none_or(|(_, inc)| obj < *inc - 1e-12);
                    if better {
                        incumbent = Some((vals, obj));
                        self.emit(SolveEvent::IncumbentImproved);
                    }
                }
                Some((j, v, _)) => {
                    let floor = v.floor();
                    let (base_lo, base_up) = self.effective_bounds(&node.bounds, j);
                    // Both children inherit this node's optimal basis: the
                    // bound change keeps it dual feasible, so each child LP
                    // is a short dual-simplex repair.
                    let child_basis = lp_basis.map(Arc::new);
                    // Down child: x_j <= floor(v).
                    if floor >= base_lo - INT_TOL {
                        let mut b = node.bounds.clone();
                        set_override(&mut b, j, base_lo, floor);
                        heap.push(HeapNode(Node {
                            bounds: b,
                            bound: node_obj,
                            depth: node.depth + 1,
                            basis: child_basis.clone(),
                        }));
                    }
                    // Up child: x_j >= ceil(v).
                    let ceil = floor + 1.0;
                    if ceil <= base_up + INT_TOL {
                        let mut b = node.bounds;
                        set_override(&mut b, j, ceil, base_up);
                        heap.push(HeapNode(Node {
                            bounds: b,
                            bound: node_obj,
                            depth: node.depth + 1,
                            basis: child_basis,
                        }));
                    }
                }
            }
        }

        let elapsed_nodes = nodes;
        match incumbent {
            Some((vals, obj)) => {
                let proven = heap
                    .peek()
                    .is_none_or(|HeapNode(n)| n.bound >= obj - self.gap_abs(obj));
                let status = if proven {
                    MilpStatus::Optimal
                } else {
                    MilpStatus::Feasible
                };
                let bb = if proven { obj } else { best_bound };
                Ok(MilpSolution {
                    status,
                    objective: sign * obj,
                    values: vals,
                    nodes: elapsed_nodes,
                    best_bound: sign * bb,
                    elapsed: start.elapsed(),
                })
            }
            None => {
                let exhausted = heap.is_empty()
                    && elapsed_nodes < self.node_limit
                    && self.deadline.is_none_or(|d| start.elapsed() < d);
                let status = if exhausted {
                    MilpStatus::Infeasible
                } else {
                    MilpStatus::NoSolutionFound
                };
                Ok(self.finish(status, None, sign * best_bound, elapsed_nodes, start))
            }
        }
    }

    /// Rounding heuristic: rounds every integer variable of an LP point to
    /// the nearest integer; adopts the point as incumbent if it is feasible
    /// and better. `incumbent` stores minimization-form objectives.
    fn try_rounded(
        &self,
        lp_values: &[f64],
        int_vars: &[usize],
        sign: f64,
        incumbent: &mut Option<(Vec<f64>, f64)>,
    ) {
        let mut vals = lp_values.to_vec();
        let mut any_frac = false;
        for &j in int_vars {
            if (vals[j] - vals[j].round()).abs() > INT_TOL {
                any_frac = true;
            }
            vals[j] = vals[j].round();
        }
        if !any_frac {
            return; // The caller handles integral points exactly.
        }
        if !self.problem.is_feasible(&vals, 1e-6) {
            return;
        }
        let obj = sign * self.problem.objective_value(&vals);
        if incumbent.as_ref().is_none_or(|(_, inc)| obj < *inc - 1e-12) {
            *incumbent = Some((vals, obj));
            self.emit(SolveEvent::IncumbentImproved);
        }
    }

    fn gap_abs(&self, incumbent: f64) -> f64 {
        self.gap_tol * incumbent.abs().max(1.0)
    }

    fn effective_bounds(&self, overrides: &[(usize, f64, f64)], j: usize) -> (f64, f64) {
        overrides
            .iter()
            .rev()
            .find(|&&(v, _, _)| v == j)
            .map(|&(_, lo, up)| (lo, up))
            .or_else(|| {
                self.root_bounds
                    .iter()
                    .rev()
                    .find(|&&(v, _, _)| v == j)
                    .map(|&(_, lo, up)| (lo, up))
            })
            .unwrap_or_else(|| {
                let v = &self.problem.vars()[j];
                (v.lower, v.upper)
            })
    }

    fn finish(
        &self,
        status: MilpStatus,
        values: Option<Vec<f64>>,
        bound: f64,
        nodes: usize,
        start: Instant,
    ) -> MilpSolution {
        MilpSolution {
            status,
            values: values.unwrap_or_default(),
            objective: f64::NAN,
            nodes,
            best_bound: bound,
            elapsed: start.elapsed(),
        }
    }
}

/// Replaces or inserts a bound override for variable `j`.
fn set_override(bounds: &mut Vec<(usize, f64, f64)>, j: usize, lo: f64, up: f64) {
    if let Some(slot) = bounds.iter_mut().find(|(v, _, _)| *v == j) {
        slot.1 = lo;
        slot.2 = up;
    } else {
        bounds.push((j, lo, up));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Cmp, Problem, VarKind};

    #[test]
    fn knapsack_small() {
        // max 60a + 100b + 120c s.t. 10a + 20b + 30c <= 50 -> 220 (b + c).
        let mut p = Problem::maximize();
        let a = p.add_binary(60.0, "a");
        let b = p.add_binary(100.0, "b");
        let c = p.add_binary(120.0, "c");
        p.add_constraint(vec![(a, 10.0), (b, 20.0), (c, 30.0)], Cmp::Le, 50.0);
        let s = Milp::new(&p).solve().unwrap();
        assert_eq!(s.status, MilpStatus::Optimal);
        assert_eq!(s.objective.round() as i64, 220);
        assert_eq!(s.value(a).round() as i64, 0);
        assert_eq!(s.value(b).round() as i64, 1);
        assert_eq!(s.value(c).round() as i64, 1);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y s.t. 2x + 2y <= 5, integer -> 2 (LP relaxation 2.5).
        let mut p = Problem::maximize();
        let x = p.add_var(VarKind::Integer, 0.0, 10.0, 1.0, "x");
        let y = p.add_var(VarKind::Integer, 0.0, 10.0, 1.0, "y");
        p.add_constraint(vec![(x, 2.0), (y, 2.0)], Cmp::Le, 5.0);
        let s = Milp::new(&p).solve().unwrap();
        assert_eq!(s.status, MilpStatus::Optimal);
        assert_eq!(s.objective.round() as i64, 2);
    }

    #[test]
    fn infeasible_milp() {
        let mut p = Problem::minimize();
        let x = p.add_binary(1.0, "x");
        let y = p.add_binary(1.0, "y");
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 3.0);
        let s = Milp::new(&p).solve().unwrap();
        assert_eq!(s.status, MilpStatus::Infeasible);
    }

    #[test]
    fn integer_infeasible_but_lp_feasible() {
        // 2x = 1 has LP solution x = 0.5 but no integer solution.
        let mut p = Problem::minimize();
        let x = p.add_var(VarKind::Integer, 0.0, 10.0, 1.0, "x");
        p.add_constraint(vec![(x, 2.0)], Cmp::Eq, 1.0);
        let s = Milp::new(&p).solve().unwrap();
        assert_eq!(s.status, MilpStatus::Infeasible);
    }

    #[test]
    fn mixed_continuous_and_integer() {
        // max 3x + 2y, x integer <= 4.5 constraint-wise, y continuous.
        // x + y <= 6, x <= 4.2 -> x = 4, y = 2 -> 16.
        let mut p = Problem::maximize();
        let x = p.add_var(VarKind::Integer, 0.0, 100.0, 3.0, "x");
        let y = p.add_nonneg(2.0, "y");
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 6.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 4.2);
        let s = Milp::new(&p).solve().unwrap();
        assert_eq!(s.status, MilpStatus::Optimal);
        assert!((s.objective - 16.0).abs() < 1e-5);
        assert_eq!(s.value(x).round() as i64, 4);
    }

    #[test]
    fn assignment_problem_exact() {
        // 3x3 assignment, costs chosen so optimum is the anti-diagonal.
        let cost = [[9.0, 9.0, 1.0], [9.0, 1.0, 9.0], [1.0, 9.0, 9.0]];
        let mut p = Problem::minimize();
        let mut v = [[None; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                v[i][j] = Some(p.add_binary(cost[i][j], format!("x{i}{j}")));
            }
        }
        // `i` addresses both a row and a column of `v`.
        #[allow(clippy::needless_range_loop)]
        for i in 0..3 {
            p.add_constraint((0..3).map(|j| (v[i][j].unwrap(), 1.0)), Cmp::Eq, 1.0);
            p.add_constraint((0..3).map(|j| (v[j][i].unwrap(), 1.0)), Cmp::Eq, 1.0);
        }
        let s = Milp::new(&p).solve().unwrap();
        assert_eq!(s.status, MilpStatus::Optimal);
        assert_eq!(s.objective.round() as i64, 3);
    }

    #[test]
    fn equality_partition() {
        // Partition {3, 5, 8} into a subset summing exactly to 8: feasible.
        let mut p = Problem::maximize();
        let a = p.add_binary(1.0, "a3");
        let b = p.add_binary(1.0, "b5");
        let c = p.add_binary(1.0, "c8");
        p.add_constraint(vec![(a, 3.0), (b, 5.0), (c, 8.0)], Cmp::Eq, 8.0);
        let s = Milp::new(&p).solve().unwrap();
        assert_eq!(s.status, MilpStatus::Optimal);
        // Best is {3,5} with two items selected.
        assert_eq!(s.objective.round() as i64, 2);
    }

    #[test]
    fn node_limit_reports_feasible_or_none() {
        let mut p = Problem::maximize();
        let vars: Vec<_> = (0..12)
            .map(|i| p.add_binary(1.0 + i as f64 * 0.1, format!("v{i}")))
            .collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint(terms, Cmp::Le, 6.0);
        let s = Milp::new(&p).node_limit(2).solve().unwrap();
        assert!(matches!(
            s.status,
            MilpStatus::Feasible | MilpStatus::NoSolutionFound | MilpStatus::Optimal
        ));
    }

    #[test]
    fn maximization_sign_handling() {
        // min -x is the same as max x; check both give consistent answers.
        let mut pmin = Problem::minimize();
        let x1 = pmin.add_var(VarKind::Integer, 0.0, 7.0, -1.0, "x");
        let smin = Milp::new(&pmin).solve().unwrap();
        let mut pmax = Problem::maximize();
        let x2 = pmax.add_var(VarKind::Integer, 0.0, 7.0, 1.0, "x");
        let smax = Milp::new(&pmax).solve().unwrap();
        assert_eq!(smin.value(x1).round() as i64, 7);
        assert_eq!(smax.value(x2).round() as i64, 7);
        assert!((smin.objective + smax.objective).abs() < 1e-9);
    }

    #[test]
    fn big_m_indicator_pattern() {
        // The exact pattern the scheduler uses: z = 1 only if x <= 3.
        // max z + 0.01x s.t. x + 10z <= 13, x >= 5: z = 1 forces x <= 3,
        // which contradicts x >= 5, so the optimum is z = 0, x = 10.
        let mut p = Problem::maximize();
        let x = p.add_var(VarKind::Continuous, 0.0, 10.0, 0.01, "x");
        let z = p.add_binary(1.0, "z");
        p.add_constraint(vec![(x, 1.0), (z, 10.0)], Cmp::Le, 13.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 5.0);
        let s = Milp::new(&p).solve().unwrap();
        assert_eq!(s.status, MilpStatus::Optimal);
        assert!((s.objective - 0.1).abs() < 1e-6, "got {}", s.objective);
        assert_eq!(s.value(z).round() as i64, 0);
        assert!((s.value(x) - 10.0).abs() < 1e-6);
    }
}
