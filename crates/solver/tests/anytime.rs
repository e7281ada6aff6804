//! Regression tests for the solver's *anytime* contract (§5.2: a
//! scheduling interval bounds the time available for placement, so a
//! limit hit must degrade to the best incumbent, never to an error).
//!
//! Every instance is generated with the workspace's deterministic PRNG,
//! so each run solves the same problems.

use std::time::Duration;

use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};
use medea_solver::{Cmp, Milp, MilpStatus, Problem};

/// A random knapsack-family maximization: all-zeros is always feasible,
/// so a warm start is available for every instance.
fn knapsack(rng: &mut StdRng, vars: usize, rows: usize) -> Problem {
    let mut p = Problem::maximize();
    let xs: Vec<_> = (0..vars)
        .map(|i| p.add_binary(rng.random_range(1..20i64) as f64, format!("x{i}")))
        .collect();
    for _ in 0..rows {
        let coeffs: Vec<i64> = (0..vars).map(|_| rng.random_range(0..8i64)).collect();
        let budget: i64 = coeffs.iter().sum::<i64>() / 2 + 1;
        p.add_constraint(
            xs.iter().zip(&coeffs).map(|(&v, &c)| (v, c as f64)),
            Cmp::Le,
            budget as f64,
        );
    }
    p
}

#[test]
fn zero_time_limit_returns_feasible_with_warm_start() {
    for case in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0xA11_71E ^ case);
        let p = knapsack(&mut rng, 14, 6);
        let zeros = vec![0.0; p.num_vars()];
        let sol = Milp::new(&p)
            .with_incumbent(zeros)
            .time_limit(Duration::ZERO)
            .solve()
            .expect("time limit must never surface as an error");
        assert!(
            sol.has_solution(),
            "case {case}: warm start must survive a zero deadline"
        );
        // All objective coefficients are positive, so all-zeros scores 0
        // and any improvement the solver reports must only raise it.
        assert!(sol.objective >= 0.0, "case {case}: objective regressed");
    }
}

#[test]
fn node_limit_returns_feasible_with_warm_start() {
    for case in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0x0DE_517 ^ case);
        let p = knapsack(&mut rng, 16, 8);
        let zeros = vec![0.0; p.num_vars()];
        let sol = Milp::new(&p)
            .with_incumbent(zeros)
            .node_limit(1)
            .solve()
            .expect("node limit must never surface as an error");
        assert!(
            sol.has_solution(),
            "case {case}: warm start must survive a node limit of 1"
        );
        assert!(sol.objective >= 0.0, "case {case}: objective regressed");
    }
}

#[test]
fn limits_never_error_even_without_warm_start() {
    for case in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0xC01D ^ case);
        let p = knapsack(&mut rng, 12, 5);
        let timed = Milp::new(&p).time_limit(Duration::ZERO).solve();
        assert!(timed.is_ok(), "case {case}: zero deadline errored");
        let limited = Milp::new(&p).node_limit(1).solve();
        assert!(limited.is_ok(), "case {case}: node limit errored");
        // The knapsack family is feasible (all-zeros), so a status of
        // Infeasible/Unbounded would be a wrong answer; a limit hit with
        // no incumbent must report NoSolutionFound instead.
        for sol in [timed.unwrap(), limited.unwrap()] {
            assert!(
                !matches!(sol.status, MilpStatus::Infeasible | MilpStatus::Unbounded),
                "case {case}: limit produced wrong status {:?}",
                sol.status
            );
        }
    }
}

#[test]
fn limited_solves_are_deterministic_per_seed() {
    for case in 0..8u64 {
        let solve_once = || {
            let mut rng = StdRng::seed_from_u64(0xD_E7E ^ case);
            let p = knapsack(&mut rng, 18, 8);
            let zeros = vec![0.0; p.num_vars()];
            Milp::new(&p)
                .with_incumbent(zeros)
                .node_limit(16)
                .solve()
                .expect("limited solve")
        };
        let a = solve_once();
        let b = solve_once();
        assert_eq!(a.status, b.status, "case {case}: status diverged");
        assert_eq!(a.objective, b.objective, "case {case}: objective diverged");
        assert_eq!(a.values, b.values, "case {case}: solution point diverged");
        assert_eq!(a.nodes, b.nodes, "case {case}: node count diverged");
    }
}

#[test]
fn incumbent_improves_monotonically_with_budget() {
    for case in 0..8u64 {
        let build = || {
            let mut rng = StdRng::seed_from_u64(0xB0D6E7 ^ case);
            knapsack(&mut rng, 18, 8)
        };
        let p_small = build();
        let small = Milp::new(&p_small)
            .with_incumbent(vec![0.0; p_small.num_vars()])
            .node_limit(2)
            .solve()
            .expect("small budget solve");
        let p_big = build();
        let big = Milp::new(&p_big)
            .with_incumbent(vec![0.0; p_big.num_vars()])
            .node_limit(10_000)
            .solve()
            .expect("big budget solve");
        assert!(
            big.objective >= small.objective - 1e-9,
            "case {case}: more budget must not worsen the incumbent \
             ({} < {})",
            big.objective,
            small.objective
        );
    }
}

/// A 0-1 knapsack and its optimum by dynamic programming.
fn knapsack_with_optimum(values: &[i64], weights: &[i64], cap: i64) -> (Problem, f64) {
    let mut p = Problem::maximize();
    let xs: Vec<_> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| p.add_binary(v as f64, format!("x{i}")))
        .collect();
    p.add_constraint(
        xs.iter().zip(weights).map(|(&x, &w)| (x, w as f64)),
        Cmp::Le,
        cap as f64,
    );
    let mut best = vec![0i64; cap as usize + 1];
    for (&v, &w) in values.iter().zip(weights) {
        for c in (w..=cap).rev() {
            best[c as usize] = best[c as usize].max(best[(c - w) as usize] + v);
        }
    }
    (p, best[cap as usize] as f64)
}

/// What a node-limited maximisation may report: `Optimal` only with the
/// optimum, a bound no lower than the optimum, and no more nodes than the
/// limit.
fn assert_honest(p: &Problem, optimum: f64, limit: usize, case: &str) {
    let sol = Milp::new(p).gap(0.0).node_limit(limit).solve().unwrap();
    if sol.status == MilpStatus::Optimal {
        assert!(
            (sol.objective - optimum).abs() < 1e-6,
            "{case}: Optimal {} but the optimum is {optimum}",
            sol.objective
        );
    }
    assert!(
        sol.best_bound >= optimum - 1e-6,
        "{case}: bound {} below the optimum {optimum}",
        sol.best_bound
    );
    assert!(
        sol.nodes <= limit,
        "{case}: {} nodes over a limit of {limit}",
        sol.nodes
    );
}

#[test]
fn a_node_limit_of_one_does_not_prove_a_suboptimal_incumbent() {
    let (p, optimum) =
        knapsack_with_optimum(&[29, 28, 49, 20, 31, 46], &[20, 9, 10, 12, 6, 24], 40);
    assert_eq!(optimum, 128.0);
    assert_honest(&p, optimum, 1, "six items");
}

#[test]
fn node_limited_solves_report_honest_status_bound_and_nodes() {
    for items in 3..=16usize {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(0x11_0DE5 ^ (items as u64) << 8 ^ seed);
            let values: Vec<i64> = (0..items).map(|_| rng.random_range(1..50i64)).collect();
            let weights: Vec<i64> = (0..items).map(|_| rng.random_range(1..25i64)).collect();
            let cap = weights.iter().sum::<i64>() / 2;
            let (p, optimum) = knapsack_with_optimum(&values, &weights, cap);
            for limit in [1, 2, 3, 4, 6, 9, 13, 19, 28, 41, 60, 88, 119] {
                assert_honest(&p, optimum, limit, &format!("{items} items, seed {seed}"));
            }
        }
    }
}
