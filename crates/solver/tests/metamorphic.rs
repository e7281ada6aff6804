//! Metamorphic solver tests: transformations of a problem with a known
//! effect on the optimum. Row/column permutation and positive row scaling
//! must leave the optimal objective unchanged; scaling a continuous
//! variable's column must too; adding a fixed variable with cost `K`
//! shifts the optimum by exactly `K`.

use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};
use medea_solver::{Cmp, LpStatus, Milp, MilpStatus, Problem, Simplex, VarId, VarKind};

const TOL: f64 = 1e-6;

/// One row: terms over var index, comparator, right-hand side.
type RawRow = (Vec<(usize, f64)>, Cmp, f64);

/// Raw description of a problem, easy to transform and rebuild.
#[derive(Clone)]
struct Raw {
    maximize: bool,
    // (lower, upper, cost, integral)
    vars: Vec<(f64, f64, f64, bool)>,
    rows: Vec<RawRow>,
}

impl Raw {
    fn build(&self) -> Problem {
        let mut p = if self.maximize {
            Problem::maximize()
        } else {
            Problem::minimize()
        };
        let ids: Vec<VarId> = self
            .vars
            .iter()
            .enumerate()
            .map(|(j, &(l, u, c, int))| {
                let kind = if int {
                    VarKind::Integer
                } else {
                    VarKind::Continuous
                };
                p.add_var(kind, l, u, c, format!("x{j}"))
            })
            .collect();
        for (terms, cmp, rhs) in &self.rows {
            p.add_constraint(
                terms.iter().map(|&(j, a)| (ids[j], a)).collect::<Vec<_>>(),
                *cmp,
                *rhs,
            );
        }
        p
    }

    fn milp_objective(&self) -> f64 {
        let sol = Milp::new(&self.build()).solve().expect("valid model");
        assert_eq!(sol.status, MilpStatus::Optimal, "base instance must solve");
        sol.objective
    }

    fn lp_objective(&self) -> f64 {
        let sol = Simplex::new(&self.build()).solve();
        assert_eq!(sol.status, LpStatus::Optimal, "base instance must solve");
        sol.objective
    }
}

/// A feasible-at-zero random instance (all-Le rows with nonnegative
/// coefficients and positive rhs), mixing integers and continuics.
fn random_raw(seed: u64, integral: bool) -> Raw {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E3779B97F4A7C15));
    let n = rng.random_range(3..7usize);
    let m = rng.random_range(2..6usize);
    let vars = (0..n)
        .map(|_| {
            let u = rng.random_range(1..5usize) as f64;
            let c = rng.random_range(-4i64..5) as f64;
            (0.0, u, c, integral && rng.random_bool(0.7))
        })
        .collect();
    let rows = (0..m)
        .filter_map(|_| {
            let terms: Vec<(usize, f64)> = (0..n)
                .filter_map(|j| {
                    let a = rng.random_range(0..4usize) as f64;
                    (a != 0.0).then_some((j, a))
                })
                .collect();
            (!terms.is_empty()).then(|| (terms, Cmp::Le, rng.random_range(1..8usize) as f64))
        })
        .collect();
    Raw {
        maximize: rng.random_bool(0.5),
        vars,
        rows,
    }
}

#[test]
fn row_permutation_preserves_optimum() {
    for seed in 0..15u64 {
        let base = random_raw(seed, true);
        let reference = base.milp_objective();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let mut permuted = base.clone();
        rng.shuffle(&mut permuted.rows);
        assert!(
            (permuted.milp_objective() - reference).abs() <= TOL,
            "seed {seed}: row order changed the optimum"
        );
    }
}

#[test]
fn column_permutation_preserves_optimum() {
    for seed in 0..15u64 {
        let base = random_raw(seed, true);
        let reference = base.milp_objective();
        let n = base.vars.len();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1234);
        let mut perm: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut perm);
        // new index of old var j is inv[j].
        let mut inv = vec![0usize; n];
        for (new_j, &old_j) in perm.iter().enumerate() {
            inv[old_j] = new_j;
        }
        let permuted = Raw {
            maximize: base.maximize,
            vars: perm.iter().map(|&old_j| base.vars[old_j]).collect(),
            rows: base
                .rows
                .iter()
                .map(|(terms, cmp, rhs)| {
                    (
                        terms.iter().map(|&(j, a)| (inv[j], a)).collect(),
                        *cmp,
                        *rhs,
                    )
                })
                .collect(),
        };
        assert!(
            (permuted.milp_objective() - reference).abs() <= TOL,
            "seed {seed}: column order changed the optimum"
        );
    }
}

#[test]
fn positive_row_scaling_preserves_optimum() {
    for seed in 0..15u64 {
        let base = random_raw(seed, true);
        let reference = base.milp_objective();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5CA1E);
        let mut scaled = base.clone();
        for (terms, _, rhs) in &mut scaled.rows {
            let s = rng.random_range(1..20usize) as f64 / 4.0;
            for (_, a) in terms.iter_mut() {
                *a *= s;
            }
            *rhs *= s;
        }
        assert!(
            (scaled.milp_objective() - reference).abs() <= TOL,
            "seed {seed}: positive row scaling changed the optimum"
        );
    }
}

#[test]
fn continuous_column_scaling_preserves_lp_optimum() {
    // Substituting x_j = s_j * x'_j (s_j > 0) rescales the column, the
    // cost, and the bounds; the optimal objective is invariant.
    for seed in 0..15u64 {
        let base = random_raw(seed, false);
        let reference = base.lp_objective();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        let mut scaled = base.clone();
        let scales: Vec<f64> = scaled
            .vars
            .iter()
            .map(|_| rng.random_range(1..16usize) as f64 / 4.0)
            .collect();
        for (j, v) in scaled.vars.iter_mut().enumerate() {
            v.0 /= scales[j];
            v.1 /= scales[j];
            v.2 *= scales[j];
        }
        for (terms, _, _) in &mut scaled.rows {
            for (j, a) in terms.iter_mut() {
                *a *= scales[*j];
            }
        }
        assert!(
            (scaled.lp_objective() - reference).abs() <= 1e-5 * (1.0 + reference.abs()),
            "seed {seed}: column scaling changed the LP optimum"
        );
    }
}

/// The LP relaxation of an integral instance (the same `Problem` solved
/// by `Simplex`, which ignores integrality) must (a) bound the MILP
/// optimum from the relaxation side and (b) keep its optimal *value*
/// invariant under row and column permutation — the bound branch and
/// bound prunes with.
#[test]
fn lp_relaxation_bounds_milp_and_is_permutation_invariant() {
    for seed in 0..15u64 {
        let base = random_raw(seed, true);
        let lp = base.lp_objective();
        let milp = base.milp_objective();
        if base.maximize {
            assert!(
                lp >= milp - TOL,
                "seed {seed}: LP relaxation {lp} below MILP optimum {milp}"
            );
        } else {
            assert!(
                lp <= milp + TOL,
                "seed {seed}: LP relaxation {lp} above MILP minimum {milp}"
            );
        }

        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let mut permuted = base.clone();
        rng.shuffle(&mut permuted.rows);
        let n = permuted.vars.len();
        let mut perm: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut perm);
        let mut inv = vec![0usize; n];
        for (new_j, &old_j) in perm.iter().enumerate() {
            inv[old_j] = new_j;
        }
        let permuted = Raw {
            maximize: permuted.maximize,
            vars: perm.iter().map(|&old_j| permuted.vars[old_j]).collect(),
            rows: permuted
                .rows
                .iter()
                .map(|(terms, cmp, rhs)| {
                    (
                        terms.iter().map(|&(j, a)| (inv[j], a)).collect(),
                        *cmp,
                        *rhs,
                    )
                })
                .collect(),
        };
        assert!(
            (permuted.lp_objective() - lp).abs() <= TOL,
            "seed {seed}: row/column permutation changed the LP relaxation value"
        );
    }
}

/// Positive row scaling leaves the LP relaxation's optimal value
/// unchanged (same feasible region, same objective).
#[test]
fn lp_relaxation_invariant_under_positive_row_scaling() {
    for seed in 0..15u64 {
        let base = random_raw(seed, true);
        let reference = base.lp_objective();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut scaled = base.clone();
        for (terms, _, rhs) in &mut scaled.rows {
            let s = rng.random_range(1..20usize) as f64 / 4.0;
            for (_, a) in terms.iter_mut() {
                *a *= s;
            }
            *rhs *= s;
        }
        assert!(
            (scaled.lp_objective() - reference).abs() <= TOL,
            "seed {seed}: positive row scaling changed the LP relaxation value"
        );
    }
}

#[test]
fn objective_shift_via_fixed_variable() {
    // The Problem has no constant objective term; a variable fixed to
    // [1, 1] with cost K is the canonical encoding and must shift the
    // optimum by exactly K.
    for seed in 0..15u64 {
        let base = random_raw(seed, true);
        let reference = base.milp_objective();
        let k = (seed as f64) * 1.75 - 10.0;
        let mut shifted = base.clone();
        shifted.vars.push((1.0, 1.0, k, false));
        assert!(
            (shifted.milp_objective() - (reference + k)).abs() <= TOL,
            "seed {seed}: fixed-variable shift by {k} not reflected"
        );
    }
}
