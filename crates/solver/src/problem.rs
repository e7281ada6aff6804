//! Problem definition for linear and mixed-integer linear programs.
//!
//! A [`Problem`] is built incrementally: variables are added with
//! [`Problem::add_var`] (returning a [`VarId`] handle), linear constraints
//! with [`Problem::add_constraint`], and the objective sense is fixed at
//! construction time. The resulting problem is consumed by
//! [`crate::simplex::Simplex`] (LP relaxation) or [`crate::milp::Milp`]
//! (exact mixed-integer solve).

use std::fmt;

/// Handle to a decision variable inside a [`Problem`].
///
/// `VarId`s are only meaningful for the problem that created them; using a
/// handle with a different problem is detected and reported as
/// [`ProblemError::UnknownVariable`] where possible (index out of range).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Returns the dense index of this variable within its problem.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a linear constraint inside a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstraintId(pub(crate) usize);

impl ConstraintId {
    /// Returns the dense index of this constraint within its problem.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Integrality class of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Real-valued variable.
    Continuous,
    /// Integer-valued variable.
    Integer,
    /// Binary variable; shorthand for an integer variable in `[0, 1]`.
    Binary,
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Row value must be less than or equal to the right-hand side.
    Le,
    /// Row value must equal the right-hand side.
    Eq,
    /// Row value must be greater than or equal to the right-hand side.
    Ge,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cmp::Le => write!(f, "<="),
            Cmp::Eq => write!(f, "=="),
            Cmp::Ge => write!(f, ">="),
        }
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective function.
    Minimize,
    /// Maximize the objective function.
    Maximize,
}

/// A decision variable: bounds, objective coefficient, and integrality.
#[derive(Debug, Clone)]
pub struct Variable {
    /// Lower bound (finite; MILP variables in Medea are all bounded below).
    pub lower: f64,
    /// Upper bound; may be `f64::INFINITY`.
    pub upper: f64,
    /// Objective coefficient.
    pub cost: f64,
    /// Integrality class.
    pub kind: VarKind,
    /// Diagnostic name (not required to be unique).
    pub name: String,
}

impl Variable {
    /// Returns `true` if the variable must take integer values.
    pub fn is_integral(&self) -> bool {
        matches!(self.kind, VarKind::Integer | VarKind::Binary)
    }
}

/// A linear constraint `sum(coeff_i * x_i) cmp rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Sparse row: `(variable, coefficient)` pairs with distinct variables.
    pub terms: Vec<(VarId, f64)>,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: f64,
}

/// Errors raised while building or validating a [`Problem`].
#[derive(Debug, Clone, PartialEq)]
pub enum ProblemError {
    /// A variable handle does not belong to this problem.
    UnknownVariable(VarId),
    /// A variable was declared with `lower > upper`.
    InvalidBounds {
        /// Offending variable.
        var: VarId,
        /// Declared lower bound.
        lower: f64,
        /// Declared upper bound.
        upper: f64,
    },
    /// A coefficient, bound, or right-hand side is NaN.
    NotANumber,
    /// A lower bound of `-inf` was used (unsupported by the solver).
    UnboundedBelow(VarId),
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::UnknownVariable(v) => {
                write!(f, "variable #{} does not belong to this problem", v.0)
            }
            ProblemError::InvalidBounds { var, lower, upper } => write!(
                f,
                "variable #{} has invalid bounds [{lower}, {upper}]",
                var.0
            ),
            ProblemError::NotANumber => write!(f, "NaN coefficient, bound, or right-hand side"),
            ProblemError::UnboundedBelow(v) => write!(
                f,
                "variable #{} has lower bound -inf, which the solver does not support",
                v.0
            ),
        }
    }
}

impl std::error::Error for ProblemError {}

/// A linear or mixed-integer linear program.
///
/// # Examples
///
/// ```
/// use medea_solver::{Problem, VarKind, Cmp, Milp};
///
/// // maximize x + 2y  s.t.  x + y <= 4, x, y in {0..3}
/// let mut p = Problem::maximize();
/// let x = p.add_var(VarKind::Integer, 0.0, 3.0, 1.0, "x");
/// let y = p.add_var(VarKind::Integer, 0.0, 3.0, 2.0, "y");
/// p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
/// let sol = Milp::new(&p).solve().unwrap();
/// assert_eq!(sol.objective.round() as i64, 7);
/// ```
#[derive(Debug, Clone)]
pub struct Problem {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
}

impl Problem {
    /// Creates an empty minimization problem.
    pub fn minimize() -> Self {
        Self::new(Sense::Minimize)
    }

    /// Creates an empty maximization problem.
    pub fn maximize() -> Self {
        Self::new(Sense::Maximize)
    }

    /// Creates an empty problem with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        Problem {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Returns the optimization sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds a variable and returns its handle.
    ///
    /// For [`VarKind::Binary`], the caller-supplied bounds are intersected
    /// with `[0, 1]`.
    pub fn add_var(
        &mut self,
        kind: VarKind,
        lower: f64,
        upper: f64,
        cost: f64,
        name: impl Into<String>,
    ) -> VarId {
        let (lower, upper) = match kind {
            VarKind::Binary => (lower.max(0.0), upper.min(1.0)),
            _ => (lower, upper),
        };
        self.vars.push(Variable {
            lower,
            upper,
            cost,
            kind,
            name: name.into(),
        });
        VarId(self.vars.len() - 1)
    }

    /// Adds a binary variable with the given objective coefficient.
    pub fn add_binary(&mut self, cost: f64, name: impl Into<String>) -> VarId {
        self.add_var(VarKind::Binary, 0.0, 1.0, cost, name)
    }

    /// Adds a continuous variable in `[0, +inf)`.
    pub fn add_nonneg(&mut self, cost: f64, name: impl Into<String>) -> VarId {
        self.add_var(VarKind::Continuous, 0.0, f64::INFINITY, cost, name)
    }

    /// Adds a linear constraint; duplicate variables in `terms` are summed.
    pub fn add_constraint(
        &mut self,
        terms: impl IntoIterator<Item = (VarId, f64)>,
        cmp: Cmp,
        rhs: f64,
    ) -> ConstraintId {
        let mut merged: Vec<(VarId, f64)> = Vec::new();
        for (v, c) in terms {
            if let Some(slot) = merged.iter_mut().find(|(mv, _)| *mv == v) {
                slot.1 += c;
            } else {
                merged.push((v, c));
            }
        }
        merged.retain(|&(_, c)| c != 0.0);
        self.constraints.push(Constraint {
            terms: merged,
            cmp,
            rhs,
        });
        ConstraintId(self.constraints.len() - 1)
    }

    /// Returns the variable record behind a handle.
    pub fn var(&self, id: VarId) -> &Variable {
        &self.vars[id.0]
    }

    /// Returns all variables in insertion order.
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// Returns all constraints in insertion order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Validates variable bounds, handles, and numeric sanity.
    ///
    /// The solvers call this before starting; it is public so that problem
    /// builders can fail fast.
    pub fn validate(&self) -> Result<(), ProblemError> {
        for (i, v) in self.vars.iter().enumerate() {
            if v.lower.is_nan() || v.upper.is_nan() || v.cost.is_nan() {
                return Err(ProblemError::NotANumber);
            }
            if v.lower == f64::NEG_INFINITY {
                return Err(ProblemError::UnboundedBelow(VarId(i)));
            }
            if v.lower > v.upper {
                return Err(ProblemError::InvalidBounds {
                    var: VarId(i),
                    lower: v.lower,
                    upper: v.upper,
                });
            }
        }
        for c in &self.constraints {
            if c.rhs.is_nan() {
                return Err(ProblemError::NotANumber);
            }
            for &(v, coeff) in &c.terms {
                if coeff.is_nan() {
                    return Err(ProblemError::NotANumber);
                }
                if v.0 >= self.vars.len() {
                    return Err(ProblemError::UnknownVariable(v));
                }
            }
        }
        Ok(())
    }

    /// Hashes the structural skeleton of the problem: sense, variable
    /// count, and per-row comparison operator and sparsity pattern, but
    /// no coefficient, bound or right-hand side. A model-shape
    /// fingerprint: tests pin it to catch a change in which rows and
    /// columns a model builder emits.
    pub fn skeleton_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        matches!(self.sense, Sense::Minimize).hash(&mut h);
        self.vars.len().hash(&mut h);
        self.constraints.len().hash(&mut h);
        for c in &self.constraints {
            let cmp: u8 = match c.cmp {
                Cmp::Le => 0,
                Cmp::Eq => 1,
                Cmp::Ge => 2,
            };
            cmp.hash(&mut h);
            c.terms.len().hash(&mut h);
            for &(v, _) in &c.terms {
                v.0.hash(&mut h);
            }
        }
        h.finish()
    }

    /// Evaluates the objective at a point given as a dense vector.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.vars.iter().zip(x).map(|(v, &xi)| v.cost * xi).sum()
    }

    /// Checks primal feasibility of a dense point within tolerance `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.vars.len() {
            return false;
        }
        for (v, &xi) in self.vars.iter().zip(x) {
            if xi < v.lower - tol || xi > v.upper + tol {
                return false;
            }
            if v.is_integral() && (xi - xi.round()).abs() > tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(v, coeff)| coeff * x[v.0]).sum();
            let ok = match c.cmp {
                Cmp::Le => lhs <= c.rhs + tol,
                Cmp::Eq => (lhs - c.rhs).abs() <= tol,
                Cmp::Ge => lhs >= c.rhs - tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_bounds_are_clamped() {
        let mut p = Problem::minimize();
        let x = p.add_var(VarKind::Binary, -3.0, 9.0, 1.0, "x");
        assert_eq!(p.var(x).lower, 0.0);
        assert_eq!(p.var(x).upper, 1.0);
    }

    #[test]
    fn duplicate_terms_are_merged() {
        let mut p = Problem::minimize();
        let x = p.add_binary(1.0, "x");
        let c = p.add_constraint(vec![(x, 1.0), (x, 2.0)], Cmp::Le, 4.0);
        assert_eq!(p.constraints()[c.index()].terms, vec![(x, 3.0)]);
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let mut p = Problem::minimize();
        let x = p.add_binary(1.0, "x");
        let y = p.add_binary(1.0, "y");
        let c = p.add_constraint(vec![(x, 0.0), (y, 2.0)], Cmp::Le, 4.0);
        assert_eq!(p.constraints()[c.index()].terms, vec![(y, 2.0)]);
    }

    #[test]
    fn validate_rejects_bad_bounds() {
        let mut p = Problem::minimize();
        let x = p.add_var(VarKind::Continuous, 2.0, 1.0, 0.0, "x");
        assert_eq!(
            p.validate(),
            Err(ProblemError::InvalidBounds {
                var: x,
                lower: 2.0,
                upper: 1.0
            })
        );
    }

    #[test]
    fn validate_rejects_nan() {
        let mut p = Problem::minimize();
        p.add_var(VarKind::Continuous, 0.0, 1.0, f64::NAN, "x");
        assert_eq!(p.validate(), Err(ProblemError::NotANumber));
    }

    #[test]
    fn validate_rejects_minus_infinity_lower() {
        let mut p = Problem::minimize();
        let x = p.add_var(VarKind::Continuous, f64::NEG_INFINITY, 1.0, 0.0, "x");
        assert_eq!(p.validate(), Err(ProblemError::UnboundedBelow(x)));
    }

    #[test]
    fn feasibility_checks_integrality() {
        let mut p = Problem::minimize();
        p.add_var(VarKind::Integer, 0.0, 5.0, 1.0, "x");
        assert!(p.is_feasible(&[2.0], 1e-9));
        assert!(!p.is_feasible(&[2.5], 1e-9));
    }

    #[test]
    fn skeleton_hash_ignores_numerics_but_not_structure() {
        let build = |rhs: f64, coeff: f64| {
            let mut p = Problem::maximize();
            let x = p.add_binary(1.0, "x");
            let y = p.add_binary(2.0, "y");
            p.add_constraint(vec![(x, coeff), (y, 1.0)], Cmp::Le, rhs);
            p
        };
        // Same skeleton: only rhs/coefficients differ.
        assert_eq!(
            build(4.0, 1.0).skeleton_hash(),
            build(9.0, 3.0).skeleton_hash()
        );
        // Different row operator or sparsity pattern changes the hash.
        let mut q = Problem::maximize();
        let x = q.add_binary(1.0, "x");
        let y = q.add_binary(2.0, "y");
        q.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        assert_ne!(build(4.0, 1.0).skeleton_hash(), q.skeleton_hash());
        let mut r = Problem::maximize();
        let x = r.add_binary(1.0, "x");
        r.add_binary(2.0, "y");
        r.add_constraint(vec![(x, 1.0)], Cmp::Le, 4.0);
        assert_ne!(build(4.0, 1.0).skeleton_hash(), r.skeleton_hash());
    }

    #[test]
    fn feasibility_checks_rows() {
        let mut p = Problem::minimize();
        let x = p.add_nonneg(1.0, "x");
        p.add_constraint(vec![(x, 2.0)], Cmp::Ge, 4.0);
        assert!(!p.is_feasible(&[1.0], 1e-9));
        assert!(p.is_feasible(&[2.0], 1e-9));
    }
}
