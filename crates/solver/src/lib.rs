//! An exact mixed-integer linear-programming (MILP) solver.
//!
//! This crate is the CPLEX substitute used by Medea's ILP-based scheduler
//! (see the paper's §5.2 and §6: the authors rely on the proprietary CPLEX
//! solver, which this reproduction replaces with an open implementation).
//! It provides:
//!
//! - [`Problem`]: an incremental LP/MILP builder with bounded continuous,
//!   integer, and binary variables and `<=`, `==`, `>=` rows.
//! - [`Simplex`]: a two-phase primal simplex for *bounded* variables, so
//!   binary variables and branching bounds need no extra rows.
//! - [`Milp`]: branch and bound in one node loop — a dive toward rounded
//!   values, then best bound first — with wall-clock deadline, node limit
//!   and anytime incumbent reporting. Each solve returns its counts
//!   ([`SolveCounts`]: pivots, refactorizations, warm starts, pruned
//!   nodes, incumbent improvements, the limit that stopped it).
//!
//! # Examples
//!
//! ```
//! use medea_solver::{Problem, Cmp, Milp, MilpStatus};
//!
//! // Place two "containers" on two "nodes", at most one per node,
//! // maximizing a simple preference score.
//! let mut p = Problem::maximize();
//! let x00 = p.add_binary(2.0, "c0@n0");
//! let x01 = p.add_binary(1.0, "c0@n1");
//! let x10 = p.add_binary(1.0, "c1@n0");
//! let x11 = p.add_binary(2.0, "c1@n1");
//! p.add_constraint(vec![(x00, 1.0), (x01, 1.0)], Cmp::Eq, 1.0);
//! p.add_constraint(vec![(x10, 1.0), (x11, 1.0)], Cmp::Eq, 1.0);
//! p.add_constraint(vec![(x00, 1.0), (x10, 1.0)], Cmp::Le, 1.0);
//! p.add_constraint(vec![(x01, 1.0), (x11, 1.0)], Cmp::Le, 1.0);
//! let sol = Milp::new(&p).solve().unwrap();
//! assert_eq!(sol.status, MilpStatus::Optimal);
//! assert_eq!(sol.objective.round() as i64, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod milp;
mod problem;
mod simplex;

pub use milp::{Milp, MilpSolution, MilpStatus, SolveCounts, INT_TOL};
pub use problem::{
    Cmp, Constraint, ConstraintId, Problem, ProblemError, Sense, VarId, VarKind, Variable,
};
pub use simplex::{Basis, LpSolution, LpStatus, Simplex, COST_TOL, FEAS_TOL};
