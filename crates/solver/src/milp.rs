//! Branch-and-bound solver for mixed-integer linear programs.
//!
//! The search solves LP relaxations with [`crate::simplex::Simplex`] and
//! branches on the most fractional integer variable, in one node loop. It
//! first dives: each expanded node's child toward the rounded value is the
//! next node and its sibling goes on a heap, so that an incumbent is found
//! early. Once a dive node ends without children (integral, infeasible or
//! pruned), nodes come off the heap best bound first, the deeper first
//! among equal bounds, and the earlier pushed first among nodes equal in
//! both (an expanded heap node pushes its down child, then its up child).
//! That order is total, so nodes that are pushed but never explored do
//! not change which of two equal optima the search reaches first. Every
//! node, dive or heap, is checked against the incumbent before and after
//! its LP, and against the node limit and the deadline; the first
//! dominated heap node ends the search. The solver is *anytime*: it
//! reports the best incumbent found when a limit stops it, which is
//! exactly how Medea's LRA scheduler uses it (a scheduling interval bounds
//! the time available for placement).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// What one solve did. The root and every explored node each solve one
/// LP, so a solve ran [`MilpSolution::nodes`] + 1 LPs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveCounts {
    /// Simplex pivots over all LPs.
    pub pivots: u64,
    /// Basis refactorizations over all LPs.
    pub refactorizations: u64,
    /// Node LPs started from the parent's basis instead of cold.
    pub warm_starts: u64,
    /// Nodes discarded without branching: an infeasible or
    /// iteration-limited LP, or a bound the incumbent dominates before or
    /// after the node's LP. The first dominated heap node ends the search;
    /// the nodes still on the heap, dominated too, are not counted.
    pub nodes_pruned: u64,
    /// Times the incumbent was set or strictly improved (an accepted MIP
    /// start counts once).
    pub incumbent_improvements: u64,
    /// The deadline stopped the search.
    pub deadline_hit: bool,
    /// The node limit stopped the search.
    pub node_limit_hit: bool,
}

impl SolveCounts {
    fn add_lp(&mut self, lp: &LpSolution, warm: bool) {
        self.pivots += lp.iterations as u64;
        self.refactorizations += lp.refactorizations as u64;
        self.warm_starts += u64::from(warm);
    }
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
    /// Branch-and-bound nodes explored (each solved one LP).
    pub nodes: usize,
    /// Best proven bound on the optimum (original sense).
    pub best_bound: f64,
    /// Total wall-clock time of the solve.
    pub elapsed: Duration,
    /// The solve's LP work, pruning, incumbents and stopping limit.
    pub counts: SolveCounts,
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

/// A node on the heap with its push sequence number. Heap ordering:
/// smaller minimization bound first, the deeper node first among equal
/// bounds, the earlier pushed first among nodes equal in both.
struct HeapNode(Node, u64);

impl PartialEq for HeapNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
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
        // BinaryHeap is a max-heap: invert the bound and push order.
        other
            .0
            .bound
            .partial_cmp(&self.0.bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.0.depth.cmp(&other.0.depth))
            .then_with(|| other.1.cmp(&self.1))
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
        let sign = self.sign();
        let int_vars: Vec<usize> = p
            .vars()
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_integral())
            .map(|(i, _)| i)
            .collect();

        let simplex = Simplex::new(p);
        let mut counts = SolveCounts::default();

        // Root relaxation, cold: it decides infeasibility and
        // unboundedness, and its optimal basis seeds the first node.
        let (root, root_basis) = simplex.solve_warm(None, None);
        counts.add_lp(&root, false);
        let stop = match root.status {
            LpStatus::Infeasible => Some(MilpStatus::Infeasible),
            LpStatus::Unbounded => Some(MilpStatus::Unbounded),
            LpStatus::IterationLimit => Some(MilpStatus::NoSolutionFound),
            LpStatus::Optimal => None,
        };
        if let Some(status) = stop {
            return Ok(self.finish(status, None, f64::NAN, 0, counts, start));
        }

        let mut incumbent: Option<(Vec<f64>, f64)> = None; // (values, min-form obj)
        if let Some(point) = &self.incumbent_point {
            if point.len() == p.num_vars() && p.is_feasible(point, 1e-6) {
                incumbent = Some((point.clone(), sign * p.objective_value(point)));
                counts.incumbent_improvements += 1;
            }
        }
        let dominated = |bound: f64, incumbent: &Option<(Vec<f64>, f64)>| {
            incumbent
                .as_ref()
                .is_some_and(|(_, obj)| bound >= obj - self.gap_abs(*obj))
        };

        let mut heap = BinaryHeap::new();
        let mut pushed = 0u64;
        let mut push = |heap: &mut BinaryHeap<HeapNode>, node: Node| {
            heap.push(HeapNode(node, pushed));
            pushed += 1;
        };
        let mut nodes = 0usize;
        // The dive's next node: the root's bounds and basis, then each
        // expanded dive node's rounded child. Empty once the dive ends.
        let mut dive = Some(Node {
            bounds: Vec::new(),
            bound: sign * root.objective,
            depth: 0,
            basis: root_basis.map(Arc::new),
        });
        loop {
            let diving = dive.is_some();
            let Some(node) = dive.take().or_else(|| heap.pop().map(|HeapNode(n, _)| n)) else {
                break;
            };
            if dominated(node.bound, &incumbent) {
                counts.nodes_pruned += 1;
                if diving {
                    continue;
                }
                // Heap nodes come off best bound first: the rest are
                // dominated too.
                break;
            }
            // A node a limit stops goes back on the heap, where the
            // optimality proof below sees it.
            let node_limit_hit = nodes >= self.node_limit;
            if node_limit_hit || self.deadline.is_some_and(|d| start.elapsed() >= d) {
                counts.node_limit_hit = node_limit_hit;
                counts.deadline_hit = !node_limit_hit;
                push(&mut heap, node);
                break;
            }
            nodes += 1;

            let (lp, lp_basis) = simplex.solve_warm(Some(&node.bounds), node.basis.as_deref());
            counts.add_lp(&lp, node.basis.is_some());
            match lp.status {
                LpStatus::Optimal => {}
                // Without an incumbent the whole MILP may be unbounded; for
                // bounded-variable integer programs (Medea's case) this
                // indicates continuous unboundedness: report it.
                LpStatus::Unbounded if incumbent.is_none() => {
                    return Ok(self.finish(
                        MilpStatus::Unbounded,
                        None,
                        f64::NAN,
                        nodes,
                        counts,
                        start,
                    ));
                }
                _ => {
                    counts.nodes_pruned += 1;
                    continue;
                }
            }
            let node_obj = sign * lp.objective;
            if dominated(node_obj, &incumbent) {
                counts.nodes_pruned += 1;
                continue;
            }
            self.offer_rounded(&lp.values, &int_vars, &mut incumbent, &mut counts);

            // Branch on the most fractional integer variable; an integral
            // node is a leaf, offered above.
            let mut branch: Option<(usize, f64, f64)> = None; // (var, value, frac score)
            for &j in &int_vars {
                let v = lp.values[j];
                if (v - v.round()).abs() > INT_TOL {
                    let score = (v - v.floor() - 0.5).abs(); // closer to .5 is better
                    if branch.is_none_or(|(_, _, s)| score < s) {
                        branch = Some((j, v, score));
                    }
                }
            }
            let Some((j, v, _)) = branch else {
                continue;
            };
            let floor = v.floor();
            let ceil = floor + 1.0;
            let (lo, up) = self.effective_bounds(&node.bounds, j);
            // Both children inherit this node's optimal basis: the bound
            // change keeps it dual feasible, so each child LP is a short
            // dual-simplex repair.
            let basis = lp_basis.map(Arc::new);
            let child = |lo: f64, up: f64| {
                let mut bounds = node.bounds.clone();
                set_override(&mut bounds, j, lo, up);
                Node {
                    bounds,
                    bound: node_obj,
                    depth: node.depth + 1,
                    basis: basis.clone(),
                }
            };
            let down = (floor >= lo - INT_TOL).then(|| child(lo, floor));
            let up = (ceil <= up + INT_TOL).then(|| child(ceil, up));
            if diving {
                // Dive toward the rounded value; the sibling waits.
                let (next, sibling) = if v - floor >= 0.5 {
                    (up, down)
                } else {
                    (down, up)
                };
                if let Some(sibling) = sibling {
                    push(&mut heap, sibling);
                }
                dive = next;
            } else {
                // Down, then up (see the module doc).
                for child in [down, up].into_iter().flatten() {
                    push(&mut heap, child);
                }
            }
        }

        // The open nodes are the heap; the best of them decides the status.
        let open = heap.peek().map(|HeapNode(n, _)| n.bound);
        let (status, bound) = match &incumbent {
            Some((_, obj)) => match open.filter(|&b| b < obj - self.gap_abs(*obj)) {
                Some(b) => (MilpStatus::Feasible, b),
                None => (MilpStatus::Optimal, *obj),
            },
            None => match open {
                Some(b) => (MilpStatus::NoSolutionFound, b),
                None => (MilpStatus::Infeasible, f64::NAN),
            },
        };
        Ok(self.finish(status, incumbent, sign * bound, nodes, counts, start))
    }

    /// `1` to minimize, `-1` to maximize: the search minimizes `sign`
    /// times the objective.
    fn sign(&self) -> f64 {
        match self.problem.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        }
    }

    /// Rounds every integer variable of an LP point to the nearest
    /// integer and adopts the point as incumbent if it is feasible and
    /// better. An integral LP point is feasible as it stands; a rounded
    /// one is checked. `incumbent` stores minimization-form objectives.
    fn offer_rounded(
        &self,
        lp_values: &[f64],
        int_vars: &[usize],
        incumbent: &mut Option<(Vec<f64>, f64)>,
        counts: &mut SolveCounts,
    ) {
        let mut vals = lp_values.to_vec();
        let mut any_frac = false;
        for &j in int_vars {
            any_frac |= (vals[j] - vals[j].round()).abs() > INT_TOL;
            vals[j] = vals[j].round();
        }
        if any_frac && !self.problem.is_feasible(&vals, 1e-6) {
            return;
        }
        let obj = self.sign() * self.problem.objective_value(&vals);
        if incumbent.as_ref().is_none_or(|(_, inc)| obj < *inc - 1e-12) {
            *incumbent = Some((vals, obj));
            counts.incumbent_improvements += 1;
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
            .unwrap_or_else(|| {
                let v = &self.problem.vars()[j];
                (v.lower, v.upper)
            })
    }

    /// The solution for `status`: `point` is the incumbent with its
    /// minimization-form objective, `bound` is in the original sense.
    fn finish(
        &self,
        status: MilpStatus,
        point: Option<(Vec<f64>, f64)>,
        bound: f64,
        nodes: usize,
        counts: SolveCounts,
        start: Instant,
    ) -> MilpSolution {
        let (values, objective) = point.map_or((Vec::new(), f64::NAN), |(values, obj)| {
            (values, self.sign() * obj)
        });
        MilpSolution {
            status,
            values,
            objective,
            nodes,
            best_bound: bound,
            elapsed: start.elapsed(),
            counts,
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
    fn heap_ties_come_off_in_push_order() {
        // Best bound first, then the deeper node, then the earlier push.
        let mut heap = BinaryHeap::new();
        let keys = [
            (1.0, 2),
            (1.0, 2),
            (0.5, 1),
            (1.0, 3),
            (1.0, 2),
            (1.0, 2),
            (1.0, 2),
            (1.0, 2),
        ];
        for (seq, (bound, depth)) in keys.into_iter().enumerate() {
            let node = Node {
                bounds: Vec::new(),
                bound,
                depth,
                basis: None,
            };
            heap.push(HeapNode(node, seq as u64));
        }
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|HeapNode(_, s)| s)).collect();
        assert_eq!(order, [2, 3, 0, 1, 4, 5, 6, 7]);
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
