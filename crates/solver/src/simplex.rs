//! Two-phase primal simplex for linear programs with bounded variables,
//! built on a sparse product-form (eta-file) representation of the basis
//! inverse.
//!
//! The implementation is a *revised* simplex: the basis inverse is never
//! formed explicitly. Instead the solver factorizes the basis once into a
//! sequence of sparse eta matrices (one per pivot column) and represents
//! every later pivot as one additional eta factor. FTRAN (`B^-1 a`) applies
//! the eta file forward; BTRAN (`y' B^-1`) applies the transposed factors in
//! reverse. The file is rebuilt from scratch ("refactorized") only when an
//! update-count, fill, or stability trigger fires — not on every solve.
//!
//! Variables may be nonbasic at either their lower or upper bound (so
//! branch-and-bound bound fixing and binary variables do not require extra
//! rows), bound flips are supported, and Bland's rule guards against
//! cycling under degeneracy.
//!
//! Warm starts: an optimal solve returns an opaque [`Basis`] snapshot.
//! Passing it back via [`Simplex::solve_warm`] — typically after a bound
//! change, as branch and bound does — reinstalls the basis, refactorizes,
//! and repairs primal feasibility with a bounded-variable *dual* simplex
//! instead of running two cold phases. Any numerical trouble on the warm
//! path falls back to the cold start, so correctness never depends on it.
//!
//! Internally the problem is brought to the computational standard form
//! `min c'x  s.t.  Ax = b, l <= x <= u` by adding one slack (or surplus)
//! column per inequality row; phase 1 introduces artificial columns only for
//! rows whose slack cannot serve as the initial basic variable.

use crate::problem::{Cmp, Problem, Sense};

/// Feasibility/optimality tolerance used by the simplex.
pub const FEAS_TOL: f64 = 1e-7;
/// Reduced-cost (dual) tolerance used by the simplex.
pub const COST_TOL: f64 = 1e-9;
/// Pivot element magnitude below which a pivot is rejected.
const PIVOT_TOL: f64 = 1e-9;
/// Pivot magnitude below which the eta update is considered unstable and
/// the basis is refactorized right after the pivot is applied.
const STABLE_PIVOT_TOL: f64 = 1e-6;
/// Number of consecutive degenerate pivots before switching to Bland's rule.
const DEGENERACY_THRESHOLD: usize = 40;
/// Eta updates since the last factorization that force a refactorization.
const REFACTOR_ETA_LIMIT: usize = 100;
/// Extra eta-file fill per row (beyond the fresh factorization) that forces
/// a refactorization.
const REFACTOR_FILL_FACTOR: usize = 16;

/// Outcome status of a linear-programming solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraint system has no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The iteration limit was exceeded before convergence.
    IterationLimit,
}

/// Result of a linear-programming solve.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Solve status; `values`/`objective` are meaningful only for
    /// [`LpStatus::Optimal`].
    pub status: LpStatus,
    /// Primal values of the problem's structural variables.
    pub values: Vec<f64>,
    /// Objective value in the problem's original sense.
    pub objective: f64,
    /// Number of simplex pivots performed (all phases, primal and dual).
    pub iterations: usize,
    /// Row duals `y` of the optimal basis, in *minimization form*: for a
    /// maximization problem these price `min (-c)'x`. Empty unless the
    /// status is [`LpStatus::Optimal`]. Together with the reduced costs
    /// `d_j = c_j - y'A_j` they certify optimality (see
    /// `crates/solver/tests/certificates.rs`).
    pub duals: Vec<f64>,
    /// Number of basis (re)factorizations performed, including the initial
    /// one.
    pub refactorizations: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NonbasicAt {
    Lower,
    Upper,
}

/// An opaque snapshot of an optimal simplex basis, reusable to warm-start
/// a later solve of the *same* problem skeleton (same variables, same
/// rows) under different bounds — the branch-and-bound child-node case.
///
/// Obtained from [`Simplex::solve_warm`]; contains no numeric factor data
/// (the eta file is rebuilt on installation), so it is cheap to clone and
/// share across search-tree nodes.
#[derive(Debug, Clone)]
pub struct Basis {
    /// Basic column per row over the structural+slack universe;
    /// `usize::MAX` marks a row whose basic variable was an artificial
    /// pinned at zero (a redundant row).
    basic: Vec<usize>,
    /// Resting bound of every structural+slack column (meaningful for the
    /// nonbasic ones).
    at: Vec<NonbasicAt>,
    /// Row count of the snapshotted problem.
    m: usize,
    /// Structural + slack column count of the snapshotted problem.
    n_cols: usize,
}

/// One factor of the product-form inverse: an identity matrix whose
/// `row`-th column is replaced by the eta vector derived from the pivot
/// column `w` (`1/w_row` on the diagonal, `-w_i/w_row` elsewhere).
#[derive(Debug, Clone)]
struct Eta {
    row: usize,
    pivot_recip: f64,
    /// Off-pivot multipliers `(i, -w_i / w_row)`.
    others: Vec<(usize, f64)>,
}

/// Bounded-variable two-phase primal simplex solver.
///
/// The solver borrows the [`Problem`] and never mutates it; branching
/// algorithms override bounds through [`Simplex::solve_with_bounds`] or
/// [`Simplex::solve_warm`].
pub struct Simplex<'a> {
    problem: &'a Problem,
    /// Maximum number of pivots across all phases.
    pub max_iterations: usize,
}

/// Internal mutable solver state.
struct State {
    /// Total columns: structural + slack + artificial.
    n_total: usize,
    /// First artificial column index (== n_struct + n_slack).
    art_start: usize,
    /// Row count.
    m: usize,
    /// Sparse columns of `A` (row, coeff).
    cols: Vec<Vec<(usize, f64)>>,
    /// Row right-hand sides.
    b: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Phase-2 costs (minimization form).
    cost: Vec<f64>,
    /// Basic variable per row.
    basis: Vec<usize>,
    /// Eta file: `B^-1 = E_k ... E_1` with `etas[0] = E_1`.
    etas: Vec<Eta>,
    /// Total nonzeros stored across the eta file.
    eta_nnz: usize,
    /// Eta-file fill right after the last fresh factorization.
    base_fill: usize,
    /// Set when an eta with a dangerously small pivot was appended.
    unstable: bool,
    /// Basic variable values per row.
    xb: Vec<f64>,
    /// Nonbasic resting bound per column (ignored for basic columns).
    at: Vec<NonbasicAt>,
    /// Whether each column is currently basic.
    is_basic: Vec<bool>,
    iterations: usize,
    pivots_since_refactor: usize,
    degenerate_streak: usize,
    refactorizations: usize,
}

impl State {
    fn bound_value(&self, j: usize) -> f64 {
        match self.at[j] {
            NonbasicAt::Lower => self.lower[j],
            NonbasicAt::Upper => self.upper[j],
        }
    }

    /// Applies the eta file forward: `v <- B^-1 v`.
    fn apply_etas(&self, v: &mut [f64]) {
        for eta in &self.etas {
            let t = v[eta.row];
            if t == 0.0 {
                continue;
            }
            v[eta.row] = eta.pivot_recip * t;
            for &(i, c) in &eta.others {
                v[i] += c * t;
            }
        }
    }

    /// Applies the transposed eta file in reverse: `u <- (u' B^-1)'`.
    fn btran(&self, u: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let mut acc = eta.pivot_recip * u[eta.row];
            for &(i, c) in &eta.others {
                acc += c * u[i];
            }
            u[eta.row] = acc;
        }
    }

    /// Computes `w = B^{-1} A_j` for a column `j`.
    fn ftran(&self, j: usize, w: &mut [f64]) {
        w.iter_mut().for_each(|x| *x = 0.0);
        for &(row, coeff) in &self.cols[j] {
            w[row] += coeff;
        }
        self.apply_etas(w);
    }

    /// Computes duals `y = c_B' B^{-1}` with the given cost vector.
    fn duals(&self, cost: &[f64], y: &mut [f64]) {
        for (k, &bk) in self.basis.iter().enumerate() {
            y[k] = cost[bk];
        }
        self.btran(y);
    }

    fn reduced_cost(&self, cost: &[f64], y: &[f64], j: usize) -> f64 {
        let mut d = cost[j];
        for &(row, coeff) in &self.cols[j] {
            d -= y[row] * coeff;
        }
        d
    }

    /// Appends the eta factor for a pivot on `row` with pivot column `w`
    /// (which must satisfy `|w[row]| >= PIVOT_TOL`).
    fn push_eta(&mut self, row: usize, w: &[f64]) {
        let piv = w[row];
        if piv.abs() < STABLE_PIVOT_TOL {
            self.unstable = true;
        }
        let pivot_recip = 1.0 / piv;
        let mut others = Vec::new();
        for (i, &wi) in w.iter().enumerate() {
            if i == row || wi.abs() <= 1e-14 {
                continue;
            }
            others.push((i, -wi * pivot_recip));
        }
        self.eta_nnz += others.len() + 1;
        self.etas.push(Eta {
            row,
            pivot_recip,
            others,
        });
    }

    /// Whether the eta file should be rebuilt before the next pivot.
    fn needs_refactor(&self) -> bool {
        self.pivots_since_refactor > 0
            && (self.unstable
                || self.pivots_since_refactor >= REFACTOR_ETA_LIMIT
                || self.eta_nnz > self.base_fill + REFACTOR_FILL_FACTOR * self.m + 64)
    }

    /// Rebuilds the eta file from scratch by factorizing the current basis
    /// columns (sparsest first, partial pivoting by magnitude).
    ///
    /// Returns `false` if the basis matrix is numerically singular.
    fn refactorize(&mut self) -> bool {
        let m = self.m;
        self.etas.clear();
        self.eta_nnz = 0;
        self.unstable = false;
        self.pivots_since_refactor = 0;
        self.refactorizations += 1;
        if m == 0 {
            self.base_fill = 0;
            return true;
        }
        // Factor sparser columns first: their etas stay short and the
        // denser columns absorb the fill.
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&k| self.cols[self.basis[k]].len());
        let mut assigned = vec![false; m];
        let mut row_of = vec![usize::MAX; m];
        let mut w = vec![0.0; m];
        for &k in &order {
            let j = self.basis[k];
            self.ftran(j, &mut w);
            let mut best_r = usize::MAX;
            let mut best = PIVOT_TOL;
            for (r, done) in assigned.iter().enumerate() {
                if !done && w[r].abs() > best {
                    best = w[r].abs();
                    best_r = r;
                }
            }
            if best_r == usize::MAX {
                return false;
            }
            self.push_eta(best_r, &w);
            assigned[best_r] = true;
            row_of[k] = best_r;
        }
        // Partial pivoting may factor a basis column onto a different row;
        // realign `basis` so the column factored onto row r is recorded as
        // basic for row r (the basis *set* is unchanged).
        let old = self.basis.clone();
        for (k, &r) in row_of.iter().enumerate() {
            self.basis[r] = old[k];
        }
        self.unstable = false;
        self.base_fill = self.eta_nnz;
        self.recompute_xb();
        true
    }

    /// Recomputes basic values `xb = B^{-1} (b - N x_N)`.
    fn recompute_xb(&mut self) {
        let mut rhs = self.b.clone();
        for j in 0..self.n_total {
            if self.is_basic[j] {
                continue;
            }
            let v = self.bound_value(j);
            if v == 0.0 {
                continue;
            }
            for &(row, coeff) in &self.cols[j] {
                rhs[row] -= coeff * v;
            }
        }
        self.apply_etas(&mut rhs);
        self.xb.copy_from_slice(&rhs);
    }

    /// Largest bound violation among the basic variables.
    fn max_primal_infeasibility(&self) -> f64 {
        let mut worst = 0.0f64;
        for (i, &bi) in self.basis.iter().enumerate() {
            worst = worst
                .max(self.lower[bi] - self.xb[i])
                .max(self.xb[i] - self.upper[bi]);
        }
        worst
    }

    /// Installs a warm-start basis: statuses, basic set, and a fresh
    /// factorization. Returns `false` (leaving cleanup to
    /// [`State::cold_start`]) if the snapshot does not fit this problem or
    /// the reinstalled basis is singular.
    fn install_warm(&mut self, wb: &Basis) -> bool {
        if wb.m != self.m
            || wb.n_cols != self.art_start
            || wb.at.len() != self.art_start
            || wb.basic.len() != self.m
        {
            return false;
        }
        let mut seen = vec![false; self.art_start];
        for &j in &wb.basic {
            if j == usize::MAX {
                continue;
            }
            if j >= self.art_start || seen[j] {
                return false;
            }
            seen[j] = true;
        }
        for j in 0..self.art_start {
            let mut a = wb.at[j];
            // A column cannot rest at an infinite bound; repair rather
            // than reject (bounds may have changed since the snapshot).
            if a == NonbasicAt::Upper && !self.upper[j].is_finite() {
                a = NonbasicAt::Lower;
            }
            self.at[j] = a;
            self.is_basic[j] = false;
        }
        self.basis.clear();
        self.xb.clear();
        self.xb.resize(self.m, 0.0);
        for (row, &j) in wb.basic.iter().enumerate() {
            let jj = if j == usize::MAX {
                // Recreate the pinned artificial for this redundant row.
                let k = self.cols.len();
                self.cols.push(vec![(row, 1.0)]);
                self.lower.push(0.0);
                self.upper.push(0.0);
                self.cost.push(0.0);
                self.at.push(NonbasicAt::Lower);
                self.is_basic.push(true);
                k
            } else {
                j
            };
            self.is_basic[jj] = true;
            self.basis.push(jj);
        }
        self.n_total = self.cols.len();
        self.refactorize()
    }

    /// Resets to the cold initial basis (slack where feasible, artificial
    /// otherwise), discarding any leftovers from a failed warm install.
    /// Returns whether phase 1 is needed.
    fn cold_start(&mut self, cmps: &[Cmp], slack_of_row: &[usize]) -> bool {
        let m = self.m;
        self.cols.truncate(self.art_start);
        self.lower.truncate(self.art_start);
        self.upper.truncate(self.art_start);
        self.cost.truncate(self.art_start);
        self.at.truncate(self.art_start);
        self.is_basic.clear();
        self.is_basic.resize(self.art_start, false);
        self.basis.clear();
        self.xb.clear();
        self.etas.clear();
        self.eta_nnz = 0;
        self.base_fill = 0;
        self.unstable = false;
        // Default resting assignment: lower bound, unless the finite upper
        // bound has smaller magnitude (keeps initial residuals small).
        for j in 0..self.art_start {
            self.at[j] = if self.upper[j].is_finite() && self.upper[j].abs() < self.lower[j].abs() {
                NonbasicAt::Upper
            } else {
                NonbasicAt::Lower
            };
        }
        // Residual r = b - A x_N with everything nonbasic.
        let mut resid = self.b.clone();
        for j in 0..self.art_start {
            let v = self.bound_value(j);
            if v == 0.0 {
                continue;
            }
            for &(row, coeff) in &self.cols[j] {
                resid[row] -= coeff * v;
            }
        }
        let mut needs_phase1 = false;
        for i in 0..m {
            let s = slack_of_row[i];
            let usable = s != usize::MAX
                && ((cmps[i] == Cmp::Le && resid[i] >= 0.0)
                    || (cmps[i] == Cmp::Ge && resid[i] <= 0.0));
            if usable {
                // Slack coefficient is +1 for Le (value = resid) and -1 for
                // Ge (value = -resid); both are >= 0 here.
                let val = match cmps[i] {
                    Cmp::Le => resid[i],
                    _ => -resid[i],
                };
                self.basis.push(s);
                self.xb.push(val);
                self.is_basic[s] = true;
            } else {
                let coeff = if resid[i] >= 0.0 { 1.0 } else { -1.0 };
                let j = self.cols.len();
                self.cols.push(vec![(i, coeff)]);
                self.lower.push(0.0);
                self.upper.push(f64::INFINITY);
                self.cost.push(0.0);
                self.at.push(NonbasicAt::Lower);
                self.is_basic.push(true);
                self.basis.push(j);
                self.xb.push(resid[i].abs());
                needs_phase1 = true;
            }
        }
        self.n_total = self.cols.len();
        needs_phase1
    }

    /// Snapshots the current basis for later warm starts.
    fn snapshot(&self) -> Basis {
        Basis {
            basic: self
                .basis
                .iter()
                .map(|&j| if j < self.art_start { j } else { usize::MAX })
                .collect(),
            at: self.at[..self.art_start].to_vec(),
            m: self.m,
            n_cols: self.art_start,
        }
    }
}

/// Internal outcome of one primal simplex phase.
enum PhaseOutcome {
    Optimal,
    Unbounded,
    IterationLimit,
}

/// Internal outcome of the dual-simplex repair pass.
enum DualOutcome {
    /// Primal feasibility restored (dual feasibility preserved).
    Feasible,
    /// A row proved the bounds system infeasible.
    Infeasible,
    /// Numerical trouble or iteration budget: fall back to a cold solve.
    GiveUp,
}

impl<'a> Simplex<'a> {
    /// Creates a solver for the given problem.
    pub fn new(problem: &'a Problem) -> Self {
        let size_hint = problem.num_vars() + problem.num_constraints();
        Simplex {
            problem,
            max_iterations: 2_000 + 50 * size_hint,
        }
    }

    /// Solves the LP relaxation (integrality is ignored).
    pub fn solve(&self) -> LpSolution {
        self.solve_with_bounds(None)
    }

    /// Solves the LP relaxation with per-variable bound overrides.
    ///
    /// `overrides` maps structural variable index to `(lower, upper)`; this
    /// is the entry point used by branch and bound so the base problem can
    /// be shared immutably across the search tree.
    pub fn solve_with_bounds(&self, overrides: Option<&[(usize, f64, f64)]>) -> LpSolution {
        self.solve_warm(overrides, None).0
    }

    /// Solves the LP relaxation, optionally warm-starting from a [`Basis`]
    /// snapshot of a previous solve of the same problem skeleton.
    ///
    /// On [`LpStatus::Optimal`] the returned snapshot can seed the next
    /// solve; on any other status it is `None`. A snapshot that does not
    /// fit the problem, or whose basis turns out singular or beyond repair
    /// under the new bounds, is silently discarded in favour of the cold
    /// two-phase start — the warm path is a pure accelerator.
    pub fn solve_warm(
        &self,
        overrides: Option<&[(usize, f64, f64)]>,
        warm: Option<&Basis>,
    ) -> (LpSolution, Option<Basis>) {
        let p = self.problem;
        let n_struct = p.num_vars();
        let m = p.num_constraints();

        // Effective bounds after overrides.
        let mut lower: Vec<f64> = p.vars().iter().map(|v| v.lower).collect();
        let mut upper: Vec<f64> = p.vars().iter().map(|v| v.upper).collect();
        if let Some(ovr) = overrides {
            for &(j, lo, up) in ovr {
                lower[j] = lo;
                upper[j] = up;
            }
        }
        for j in 0..n_struct {
            if lower[j] > upper[j] + FEAS_TOL {
                return (
                    LpSolution {
                        status: LpStatus::Infeasible,
                        values: Vec::new(),
                        objective: 0.0,
                        iterations: 0,
                        duals: Vec::new(),
                        refactorizations: 0,
                    },
                    None,
                );
            }
        }

        // Minimization costs.
        let sign = match p.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut cost: Vec<f64> = p.vars().iter().map(|v| sign * v.cost).collect();

        // Sparse columns for structural variables.
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_struct];
        let mut b = vec![0.0; m];
        for (i, c) in p.constraints().iter().enumerate() {
            b[i] = c.rhs;
            for &(v, coeff) in &c.terms {
                cols[v.0].push((i, coeff));
            }
        }

        // Slack / surplus columns.
        let mut slack_of_row = vec![usize::MAX; m];
        let cmps: Vec<Cmp> = p.constraints().iter().map(|c| c.cmp).collect();
        for (i, &cmp) in cmps.iter().enumerate() {
            let coeff = match cmp {
                Cmp::Le => 1.0,
                Cmp::Ge => -1.0,
                Cmp::Eq => continue,
            };
            let j = cols.len();
            cols.push(vec![(i, coeff)]);
            lower.push(0.0);
            upper.push(f64::INFINITY);
            cost.push(0.0);
            slack_of_row[i] = j;
        }
        let art_start = cols.len();

        let mut st = State {
            n_total: art_start,
            art_start,
            m,
            at: vec![NonbasicAt::Lower; art_start],
            is_basic: vec![false; art_start],
            cols,
            b,
            lower,
            upper,
            cost,
            basis: Vec::new(),
            etas: Vec::new(),
            eta_nnz: 0,
            base_fill: 0,
            unstable: false,
            xb: vec![0.0; m],
            iterations: 0,
            pivots_since_refactor: 0,
            degenerate_streak: 0,
            refactorizations: 0,
        };

        // Warm path: reinstall the snapshot and repair primal feasibility
        // with the dual simplex (bound changes leave the basis dual
        // feasible, so this is usually a handful of pivots).
        let mut warm_ok = match warm {
            Some(wb) => st.install_warm(wb),
            None => false,
        };
        if warm_ok && st.max_primal_infeasibility() > FEAS_TOL {
            let c2 = st.cost.clone();
            match self.dual_simplex(&mut st, &c2) {
                DualOutcome::Feasible => {}
                DualOutcome::Infeasible => return (self.failed(LpStatus::Infeasible, &st), None),
                DualOutcome::GiveUp => warm_ok = false,
            }
        }

        if !warm_ok {
            let needs_phase1 = st.cold_start(&cmps, &slack_of_row);
            if !st.refactorize() {
                // An initial slack/artificial basis is never singular;
                // treat defensively as iteration-limit failure.
                return (self.failed(LpStatus::IterationLimit, &st), None);
            }
            if needs_phase1 {
                let c1: Vec<f64> = (0..st.n_total)
                    .map(|j| if j >= st.art_start { 1.0 } else { 0.0 })
                    .collect();
                match self.run_phase(&mut st, &c1) {
                    PhaseOutcome::IterationLimit => {
                        return (self.failed(LpStatus::IterationLimit, &st), None)
                    }
                    PhaseOutcome::Unbounded => {
                        // Phase-1 objective is bounded below by zero;
                        // reaching here indicates numerical trouble.
                        return (self.failed(LpStatus::Infeasible, &st), None);
                    }
                    PhaseOutcome::Optimal => {}
                }
                let infeas: f64 = st
                    .basis
                    .iter()
                    .enumerate()
                    .filter(|&(_, &j)| j >= st.art_start)
                    .map(|(i, _)| st.xb[i].abs())
                    .sum();
                if infeas > 1e-6 {
                    return (self.failed(LpStatus::Infeasible, &st), None);
                }
                self.expel_artificials(&mut st);
            }
        }

        // Pin all artificial columns to zero so they can never re-enter.
        for j in st.art_start..st.n_total {
            st.lower[j] = 0.0;
            st.upper[j] = 0.0;
            if !st.is_basic[j] {
                st.at[j] = NonbasicAt::Lower;
            }
        }

        // Phase 2.
        let c2 = st.cost.clone();
        let outcome = self.run_phase(&mut st, &c2);
        let status = match outcome {
            PhaseOutcome::Optimal => LpStatus::Optimal,
            PhaseOutcome::Unbounded => LpStatus::Unbounded,
            PhaseOutcome::IterationLimit => LpStatus::IterationLimit,
        };
        if status != LpStatus::Optimal {
            return (self.failed(status, &st), None);
        }

        // Extract structural values.
        let mut x = vec![0.0; n_struct];
        for (j, xj) in x.iter_mut().enumerate() {
            *xj = if st.is_basic[j] {
                let row = st.basis.iter().position(|&bj| bj == j).unwrap();
                st.xb[row]
            } else {
                st.bound_value(j)
            };
        }
        // Clamp tiny numerical drift into bounds.
        for (j, xj) in x.iter_mut().enumerate() {
            let lo = st.lower[j];
            let hi = st.upper[j];
            if *xj < lo {
                *xj = lo;
            }
            if *xj > hi {
                *xj = hi;
            }
        }
        let objective = p.objective_value(&x);
        let mut y = vec![0.0; m];
        st.duals(&c2, &mut y);
        let snapshot = st.snapshot();
        (
            LpSolution {
                status: LpStatus::Optimal,
                values: x,
                objective,
                iterations: st.iterations,
                duals: y,
                refactorizations: st.refactorizations,
            },
            Some(snapshot),
        )
    }

    fn failed(&self, status: LpStatus, st: &State) -> LpSolution {
        LpSolution {
            status,
            values: Vec::new(),
            objective: 0.0,
            iterations: st.iterations,
            duals: Vec::new(),
            refactorizations: st.refactorizations,
        }
    }

    /// Bounded-variable dual simplex: restores primal feasibility while
    /// preserving (approximate) dual feasibility of the installed basis.
    ///
    /// Used only on the warm path after bound changes. A row whose
    /// violation cannot be reduced by any admissible nonbasic column is a
    /// Farkas certificate: the bounds system is infeasible.
    fn dual_simplex(&self, st: &mut State, cost: &[f64]) -> DualOutcome {
        let m = st.m;
        if m == 0 {
            return DualOutcome::Feasible;
        }
        let mut y = vec![0.0; m];
        let mut rho = vec![0.0; m];
        let mut w = vec![0.0; m];
        let mut stalls = 0usize;
        loop {
            if st.iterations >= self.max_iterations {
                return DualOutcome::GiveUp;
            }
            // Leaving variable: the most violated basic variable.
            let mut row = usize::MAX;
            let mut worst = FEAS_TOL;
            let mut leave_at_upper = false;
            for (i, &bi) in st.basis.iter().enumerate() {
                let below = st.lower[bi] - st.xb[i];
                let above = st.xb[i] - st.upper[bi];
                if below > worst {
                    worst = below;
                    row = i;
                    leave_at_upper = false;
                }
                if above > worst {
                    worst = above;
                    row = i;
                    leave_at_upper = true;
                }
            }
            if row == usize::MAX {
                return DualOutcome::Feasible;
            }
            // rho = e_row' B^-1, the tableau row of the leaving variable.
            rho.iter_mut().for_each(|x| *x = 0.0);
            rho[row] = 1.0;
            st.btran(&mut rho);
            st.duals(cost, &mut y);
            // Entering variable: dual ratio test over admissible columns
            // (those whose movement off their bound reduces the violation);
            // the smallest |d/alpha| keeps the reduced costs sign-feasible.
            let mut best: Option<(usize, f64, f64)> = None; // (col, ratio, |alpha|)
            for j in 0..st.n_total {
                if st.is_basic[j] || st.lower[j] == st.upper[j] {
                    continue;
                }
                let mut alpha = 0.0;
                for &(r, c) in &st.cols[j] {
                    alpha += rho[r] * c;
                }
                let admissible = match (leave_at_upper, st.at[j]) {
                    (true, NonbasicAt::Lower) | (false, NonbasicAt::Upper) => alpha > PIVOT_TOL,
                    (true, NonbasicAt::Upper) | (false, NonbasicAt::Lower) => alpha < -PIVOT_TOL,
                };
                if !admissible {
                    continue;
                }
                let d = st.reduced_cost(cost, &y, j);
                let ratio = (d / alpha).abs();
                let better = match best {
                    None => true,
                    Some((_, r0, a0)) => {
                        ratio < r0 - 1e-12 || ((ratio - r0).abs() <= 1e-12 && alpha.abs() > a0)
                    }
                };
                if better {
                    best = Some((j, ratio, alpha.abs()));
                }
            }
            let Some((j_in, _, _)) = best else {
                return DualOutcome::Infeasible;
            };
            st.ftran(j_in, &mut w);
            let piv = w[row];
            if piv.abs() <= PIVOT_TOL {
                // The row view (alpha) and column view (w) disagree:
                // the factorization has drifted. Rebuild and retry.
                stalls += 1;
                if stalls > 2 || !st.refactorize() {
                    return DualOutcome::GiveUp;
                }
                continue;
            }
            stalls = 0;
            let bi = st.basis[row];
            let target = if leave_at_upper {
                st.upper[bi]
            } else {
                st.lower[bi]
            };
            let t = (st.xb[row] - target) / piv;
            for (i, (xb, &wi)) in st.xb.iter_mut().zip(w.iter()).enumerate() {
                if i != row {
                    *xb -= t * wi;
                }
            }
            st.xb[row] = st.bound_value(j_in) + t;
            st.push_eta(row, &w);
            st.basis[row] = j_in;
            st.is_basic[j_in] = true;
            st.is_basic[bi] = false;
            st.at[bi] = if leave_at_upper {
                NonbasicAt::Upper
            } else {
                NonbasicAt::Lower
            };
            st.iterations += 1;
            st.pivots_since_refactor += 1;
            if st.needs_refactor() && !st.refactorize() {
                return DualOutcome::GiveUp;
            }
        }
    }

    /// Pivots remaining basic artificials out of the basis where possible.
    fn expel_artificials(&self, st: &mut State) {
        let mut w = vec![0.0; st.m];
        for row in 0..st.m {
            if st.basis[row] < st.art_start {
                continue;
            }
            // Find any non-artificial nonbasic column with a usable pivot
            // element in this row; a degenerate swap at value zero.
            for j in 0..st.art_start {
                if st.is_basic[j] || (st.lower[j] == st.upper[j]) {
                    continue;
                }
                st.ftran(j, &mut w);
                if w[row].abs() > 1e-6 {
                    let old_val = st.xb[row];
                    self.pivot_update(st, j, row, NonbasicAt::Lower, old_val, 0.0, 0.0, &w);
                    st.recompute_xb();
                    break;
                }
            }
            // If no column qualifies the row is redundant and the
            // artificial stays basic, pinned at zero.
        }
    }

    /// Runs the primal simplex loop with the given cost vector.
    fn run_phase(&self, st: &mut State, cost: &[f64]) -> PhaseOutcome {
        let m = st.m;
        let mut y = vec![0.0; m];
        let mut w = vec![0.0; m];
        loop {
            if st.iterations >= self.max_iterations {
                return PhaseOutcome::IterationLimit;
            }
            st.duals(cost, &mut y);

            // Entering variable selection.
            let use_bland = st.degenerate_streak > DEGENERACY_THRESHOLD;
            let mut entering: Option<(usize, f64, f64)> = None; // (col, dir, score)
            for j in 0..st.n_total {
                if st.is_basic[j] || st.lower[j] == st.upper[j] {
                    continue;
                }
                let d = st.reduced_cost(cost, &y, j);
                let (eligible, dir) = match st.at[j] {
                    NonbasicAt::Lower => (d < -COST_TOL, 1.0),
                    NonbasicAt::Upper => (d > COST_TOL, -1.0),
                };
                if !eligible {
                    continue;
                }
                if use_bland {
                    entering = Some((j, dir, d.abs()));
                    break;
                }
                let score = d.abs();
                if entering.is_none_or(|(_, _, s)| score > s) {
                    entering = Some((j, dir, score));
                }
            }
            let Some((j_in, dir, _)) = entering else {
                return PhaseOutcome::Optimal;
            };

            st.ftran(j_in, &mut w);

            // Ratio test: the entering variable moves by t >= 0 in
            // direction `dir` from its current bound.
            let span = st.upper[j_in] - st.lower[j_in];
            let mut t_best = span; // own bound flip (may be +inf)
            let mut leave: Option<(usize, NonbasicAt)> = None; // (row, bound hit)
            for (i, &wi) in w.iter().enumerate().take(m) {
                let delta = dir * wi;
                if delta > PIVOT_TOL {
                    // Basic variable decreases toward its lower bound.
                    let bi = st.basis[i];
                    let slack = st.xb[i] - st.lower[bi];
                    let t = slack / delta;
                    if t < t_best - 1e-12
                        || (use_bland
                            && (t - t_best).abs() <= 1e-12
                            && leave.is_some_and(|(r, _)| st.basis[i] < st.basis[r]))
                    {
                        t_best = t.max(0.0);
                        leave = Some((i, NonbasicAt::Lower));
                    }
                } else if delta < -PIVOT_TOL {
                    // Basic variable increases toward its upper bound.
                    let bi = st.basis[i];
                    if !st.upper[bi].is_finite() {
                        continue;
                    }
                    let slack = st.upper[bi] - st.xb[i];
                    let t = slack / (-delta);
                    if t < t_best - 1e-12
                        || (use_bland
                            && (t - t_best).abs() <= 1e-12
                            && leave.is_some_and(|(r, _)| st.basis[i] < st.basis[r]))
                    {
                        t_best = t.max(0.0);
                        leave = Some((i, NonbasicAt::Upper));
                    }
                }
            }

            if !t_best.is_finite() {
                return PhaseOutcome::Unbounded;
            }
            st.degenerate_streak = if t_best <= FEAS_TOL {
                st.degenerate_streak + 1
            } else {
                0
            };

            let start = st.bound_value(j_in);
            match leave {
                None => {
                    // Bound flip: the entering variable travels its full
                    // span and rests at the opposite bound.
                    for (xb, &wi) in st.xb.iter_mut().zip(w.iter()).take(m) {
                        *xb -= dir * t_best * wi;
                    }
                    st.at[j_in] = match st.at[j_in] {
                        NonbasicAt::Lower => NonbasicAt::Upper,
                        NonbasicAt::Upper => NonbasicAt::Lower,
                    };
                    st.iterations += 1;
                }
                Some((row, hit)) => {
                    let new_val = start + dir * t_best;
                    self.pivot_update(st, j_in, row, hit, new_val, dir, t_best, &w);
                }
            }

            if st.needs_refactor() && !st.refactorize() {
                return PhaseOutcome::IterationLimit;
            }
        }
    }

    /// Performs a full basis change where column `j_in` replaces the basic
    /// variable of `row`, which leaves at bound `hit`. The update appends
    /// one eta factor instead of eliminating a dense inverse.
    #[allow(clippy::too_many_arguments)]
    fn pivot_update(
        &self,
        st: &mut State,
        j_in: usize,
        row: usize,
        hit: NonbasicAt,
        new_val: f64,
        dir: f64,
        t: f64,
        w: &[f64],
    ) {
        let m = st.m;
        let j_out = st.basis[row];
        // Update basic values.
        for (i, (xb, &wi)) in st.xb.iter_mut().zip(w.iter()).enumerate().take(m) {
            if i != row {
                *xb -= dir * t * wi;
            }
        }
        st.xb[row] = new_val;
        st.push_eta(row, w);
        st.basis[row] = j_in;
        st.is_basic[j_in] = true;
        st.is_basic[j_out] = false;
        st.at[j_out] = hit;
        st.iterations += 1;
        st.pivots_since_refactor += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Cmp, Problem, VarKind};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-5, "expected {b}, got {a}");
    }

    #[test]
    fn trivial_unconstrained_min() {
        // min x over [2, 10] -> 2.
        let mut p = Problem::minimize();
        p.add_var(VarKind::Continuous, 2.0, 10.0, 1.0, "x");
        let s = Simplex::new(&p).solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn trivial_unconstrained_max_at_upper() {
        let mut p = Problem::maximize();
        p.add_var(VarKind::Continuous, 0.0, 7.5, 3.0, "x");
        let s = Simplex::new(&p).solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 22.5);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::maximize();
        p.add_var(VarKind::Continuous, 0.0, f64::INFINITY, 1.0, "x");
        let s = Simplex::new(&p).solve();
        assert_eq!(s.status, LpStatus::Unbounded);
    }

    #[test]
    fn classic_two_var_lp() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36 at (2, 6).
        let mut p = Problem::maximize();
        let x = p.add_nonneg(3.0, "x");
        let y = p.add_nonneg(5.0, "y");
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 4.0);
        p.add_constraint(vec![(y, 2.0)], Cmp::Le, 12.0);
        p.add_constraint(vec![(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let s = Simplex::new(&p).solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 36.0);
        assert_close(s.values[x.index()], 2.0);
        assert_close(s.values[y.index()], 6.0);
    }

    #[test]
    fn ge_and_eq_rows_need_phase_one() {
        // min 2x + 3y s.t. x + y = 10, x >= 3, y >= 2 -> x=8, y=2, obj=22.
        let mut p = Problem::minimize();
        let x = p.add_nonneg(2.0, "x");
        let y = p.add_nonneg(3.0, "y");
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 10.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 3.0);
        p.add_constraint(vec![(y, 1.0)], Cmp::Ge, 2.0);
        let s = Simplex::new(&p).solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 22.0);
        assert_close(s.values[x.index()], 8.0);
        assert_close(s.values[y.index()], 2.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::minimize();
        let x = p.add_var(VarKind::Continuous, 0.0, 1.0, 1.0, "x");
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 5.0);
        let s = Simplex::new(&p).solve();
        assert_eq!(s.status, LpStatus::Infeasible);
    }

    #[test]
    fn conflicting_rows_infeasible() {
        let mut p = Problem::minimize();
        let x = p.add_nonneg(1.0, "x");
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 5.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 3.0);
        let s = Simplex::new(&p).solve();
        assert_eq!(s.status, LpStatus::Infeasible);
    }

    #[test]
    fn bound_overrides_apply() {
        // max x + y, x + y <= 10, with y fixed to [0,0] -> x = 10.
        let mut p = Problem::maximize();
        let x = p.add_nonneg(1.0, "x");
        let y = p.add_nonneg(1.0, "y");
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 10.0);
        let s = Simplex::new(&p).solve_with_bounds(Some(&[(y.index(), 0.0, 0.0)]));
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.values[x.index()], 10.0);
        assert_close(s.values[y.index()], 0.0);
    }

    #[test]
    fn contradictory_override_is_infeasible() {
        let mut p = Problem::maximize();
        let x = p.add_nonneg(1.0, "x");
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 10.0);
        let s = Simplex::new(&p).solve_with_bounds(Some(&[(x.index(), 2.0, 1.0)]));
        assert_eq!(s.status, LpStatus::Infeasible);
    }

    #[test]
    fn negative_rhs_rows() {
        // min x s.t. -x <= -4  (i.e. x >= 4).
        let mut p = Problem::minimize();
        let x = p.add_nonneg(1.0, "x");
        p.add_constraint(vec![(x, -1.0)], Cmp::Le, -4.0);
        let s = Simplex::new(&p).solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 4.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // A classic degenerate configuration; ensures Bland fallback works.
        let mut p = Problem::maximize();
        let x = p.add_nonneg(0.75, "x1");
        let y = p.add_nonneg(-150.0, "x2");
        let z = p.add_nonneg(0.02, "x3");
        let w = p.add_nonneg(-6.0, "x4");
        p.add_constraint(
            vec![(x, 0.25), (y, -60.0), (z, -0.04), (w, 9.0)],
            Cmp::Le,
            0.0,
        );
        p.add_constraint(
            vec![(x, 0.5), (y, -90.0), (z, -0.02), (w, 3.0)],
            Cmp::Le,
            0.0,
        );
        p.add_constraint(vec![(z, 1.0)], Cmp::Le, 1.0);
        let s = Simplex::new(&p).solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 0.05);
    }

    #[test]
    fn equality_with_upper_bounds() {
        // min -x - y s.t. x + y = 1, x,y in [0, 0.6] -> obj -1.
        let mut p = Problem::minimize();
        let x = p.add_var(VarKind::Continuous, 0.0, 0.6, -1.0, "x");
        let y = p.add_var(VarKind::Continuous, 0.0, 0.6, -1.0, "y");
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 1.0);
        let s = Simplex::new(&p).solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, -1.0);
    }

    #[test]
    fn redundant_equality_rows() {
        // x + y = 4 stated twice; optimum is unaffected.
        let mut p = Problem::maximize();
        let x = p.add_nonneg(1.0, "x");
        let y = p.add_nonneg(2.0, "y");
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 4.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 4.0);
        let s = Simplex::new(&p).solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 8.0);
        assert_close(s.values[y.index()], 4.0);
    }

    #[test]
    fn fixed_variables_are_respected() {
        let mut p = Problem::maximize();
        let x = p.add_var(VarKind::Continuous, 2.5, 2.5, 10.0, "x");
        let y = p.add_nonneg(1.0, "y");
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        let s = Simplex::new(&p).solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.values[x.index()], 2.5);
        assert_close(s.values[y.index()], 1.5);
    }

    #[test]
    fn larger_random_like_lp_is_feasible_and_optimal() {
        // Transportation-style LP: 3 sources x 4 sinks.
        let supply = [20.0, 30.0, 25.0];
        let demand = [10.0, 25.0, 15.0, 25.0];
        let cost = [
            [2.0, 3.0, 1.0, 4.0],
            [5.0, 1.0, 3.0, 2.0],
            [2.0, 2.0, 4.0, 1.0],
        ];
        let mut p = Problem::minimize();
        let mut ids = [[None; 4]; 3];
        for i in 0..3 {
            for j in 0..4 {
                ids[i][j] = Some(p.add_nonneg(cost[i][j], format!("x{i}{j}")));
            }
        }
        for i in 0..3 {
            let terms: Vec<_> = (0..4).map(|j| (ids[i][j].unwrap(), 1.0)).collect();
            p.add_constraint(terms, Cmp::Le, supply[i]);
        }
        for j in 0..4 {
            let terms: Vec<_> = (0..3).map(|i| (ids[i][j].unwrap(), 1.0)).collect();
            p.add_constraint(terms, Cmp::Ge, demand[j]);
        }
        let s = Simplex::new(&p).solve();
        assert_eq!(s.status, LpStatus::Optimal);
        // Verify feasibility and the known optimum (hand-checked: 90, e.g.
        // s0->d2:15@1, s0->d0:5@2, s2->d0:5@2, s2->d3:20@1, s1->d3:5@2,
        // s1->d1:25@1).
        assert!(p.is_feasible(&s.values, 1e-6));
        assert_close(s.objective, 90.0);
        assert!(s.refactorizations >= 1);
        assert_eq!(s.duals.len(), p.num_constraints());
    }

    #[test]
    fn warm_restart_matches_cold_after_bound_change() {
        // Branch-and-bound's exact usage: solve, tighten one variable's
        // bounds, re-solve warm; the warm answer must equal the cold one.
        let mut p = Problem::maximize();
        let x = p.add_var(VarKind::Continuous, 0.0, 10.0, 3.0, "x");
        let y = p.add_var(VarKind::Continuous, 0.0, 10.0, 5.0, "y");
        let z = p.add_var(VarKind::Continuous, 0.0, 10.0, 4.0, "z");
        p.add_constraint(vec![(x, 1.0), (y, 2.0), (z, 1.0)], Cmp::Le, 14.0);
        p.add_constraint(vec![(x, 3.0), (y, 1.0), (z, 2.0)], Cmp::Le, 18.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0), (z, 3.0)], Cmp::Le, 16.0);
        let sx = Simplex::new(&p);
        let (root, basis) = sx.solve_warm(None, None);
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = basis.expect("optimal solve returns a basis");
        for overrides in [
            vec![(x.index(), 0.0, 2.0)],
            vec![(y.index(), 3.0, 10.0)],
            vec![(x.index(), 1.0, 1.0), (z.index(), 0.0, 4.0)],
        ] {
            let cold = sx.solve_with_bounds(Some(&overrides));
            let (warm, warm_basis) = sx.solve_warm(Some(&overrides), Some(&basis));
            assert_eq!(warm.status, cold.status);
            assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            assert!(warm_basis.is_some());
        }
    }

    #[test]
    fn warm_restart_detects_infeasible_bounds() {
        // max x + y, x + y <= 4; forcing both >= 3 is infeasible.
        let mut p = Problem::maximize();
        let x = p.add_var(VarKind::Continuous, 0.0, 5.0, 1.0, "x");
        let y = p.add_var(VarKind::Continuous, 0.0, 5.0, 1.0, "y");
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        let sx = Simplex::new(&p);
        let (root, basis) = sx.solve_warm(None, None);
        assert_eq!(root.status, LpStatus::Optimal);
        let overrides = [(x.index(), 3.0, 5.0), (y.index(), 3.0, 5.0)];
        let (warm, warm_basis) = sx.solve_warm(Some(&overrides), basis.as_ref());
        assert_eq!(warm.status, LpStatus::Infeasible);
        assert!(warm_basis.is_none());
    }

    #[test]
    fn warm_restart_with_equality_rows() {
        let mut p = Problem::minimize();
        let x = p.add_var(VarKind::Continuous, 0.0, 6.0, 2.0, "x");
        let y = p.add_var(VarKind::Continuous, 0.0, 6.0, 3.0, "y");
        let z = p.add_var(VarKind::Continuous, 0.0, 6.0, 1.0, "z");
        p.add_constraint(vec![(x, 1.0), (y, 1.0), (z, 1.0)], Cmp::Eq, 8.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        let sx = Simplex::new(&p);
        let (root, basis) = sx.solve_warm(None, None);
        assert_eq!(root.status, LpStatus::Optimal);
        let overrides = [(z.index(), 0.0, 2.0)];
        let cold = sx.solve_with_bounds(Some(&overrides));
        let (warm, _) = sx.solve_warm(Some(&overrides), basis.as_ref());
        assert_eq!(warm.status, LpStatus::Optimal);
        assert_close(warm.objective, cold.objective);
    }

    #[test]
    fn mismatched_basis_snapshot_is_ignored() {
        let mut p1 = Problem::maximize();
        let a = p1.add_nonneg(1.0, "a");
        p1.add_constraint(vec![(a, 1.0)], Cmp::Le, 3.0);
        let (_, basis) = Simplex::new(&p1).solve_warm(None, None);

        let mut p2 = Problem::maximize();
        let x = p2.add_nonneg(1.0, "x");
        let y = p2.add_nonneg(2.0, "y");
        p2.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 5.0);
        p2.add_constraint(vec![(y, 1.0)], Cmp::Le, 2.0);
        let (sol, _) = Simplex::new(&p2).solve_warm(None, basis.as_ref());
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 7.0);
    }

    #[test]
    fn duals_certify_small_lp() {
        // min 2x + 3y s.t. x + y >= 4, x,y >= 0 -> optimum 8 at (4, 0);
        // the dual price of the covering row is 2.
        let mut p = Problem::minimize();
        let x = p.add_nonneg(2.0, "x");
        let y = p.add_nonneg(3.0, "y");
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        let s = Simplex::new(&p).solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 8.0);
        assert_eq!(s.duals.len(), 1);
        assert_close(s.duals[0], 2.0);
    }
}
