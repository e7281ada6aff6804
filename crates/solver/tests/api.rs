//! Black-box tests of the solver's public API: anytime behaviour, MIP
//! starts, gaps, the returned counts, and exactness on structured instances.

use std::time::Duration;

use medea_solver::{Cmp, Milp, MilpStatus, Problem, Simplex};

/// A 0-1 knapsack with a known dynamic-programming optimum.
fn knapsack(values: &[i64], weights: &[i64], cap: i64) -> (Problem, i64) {
    let mut p = Problem::maximize();
    let vars: Vec<_> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| p.add_binary(v as f64, format!("x{i}")))
        .collect();
    p.add_constraint(
        vars.iter().zip(weights).map(|(&v, &w)| (v, w as f64)),
        Cmp::Le,
        cap as f64,
    );
    // DP for the exact optimum.
    let mut dp = vec![0i64; (cap + 1) as usize];
    for (i, &w) in weights.iter().enumerate() {
        for c in (w..=cap).rev() {
            dp[c as usize] = dp[c as usize].max(dp[(c - w) as usize] + values[i]);
        }
    }
    (p, dp[cap as usize])
}

#[test]
fn knapsack_matches_dynamic_programming() {
    let values = [41, 50, 49, 59, 45, 47, 42, 44, 52, 48, 51, 46];
    let weights = [7, 8, 11, 13, 9, 12, 6, 10, 14, 8, 9, 7];
    let (p, best) = knapsack(&values, &weights, 40);
    let sol = Milp::new(&p).solve().unwrap();
    assert_eq!(sol.status, MilpStatus::Optimal);
    assert_eq!(sol.objective.round() as i64, best);
}

#[test]
fn mip_start_makes_tight_deadlines_anytime() {
    // Large-ish knapsack with an absurdly tight deadline: with a feasible
    // incumbent provided, the solver must return at least that quality
    // instead of failing.
    let values: Vec<i64> = (0..24).map(|i| 30 + (i * 7) % 23).collect();
    let weights: Vec<i64> = (0..24).map(|i| 5 + (i * 5) % 11).collect();
    let (p, _) = knapsack(&values, &weights, 60);

    // Greedy incumbent: take items while they fit.
    let mut point = vec![0.0; p.num_vars()];
    let mut used = 0;
    for i in 0..24 {
        if used + weights[i] <= 60 {
            used += weights[i];
            point[i] = 1.0;
        }
    }
    let greedy_value: f64 = values.iter().zip(&point).map(|(&v, &x)| v as f64 * x).sum();

    let sol = Milp::new(&p)
        .with_incumbent(point)
        .time_limit(Duration::from_millis(50))
        .solve()
        .unwrap();
    assert!(sol.has_solution(), "anytime: must return something");
    assert!(
        sol.objective >= greedy_value - 1e-9,
        "must be at least the provided incumbent ({} < {greedy_value})",
        sol.objective
    );
}

#[test]
fn infeasible_incumbent_is_ignored() {
    let mut p = Problem::maximize();
    let x = p.add_binary(1.0, "x");
    let y = p.add_binary(1.0, "y");
    p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 1.0);
    // The "incumbent" violates the row; the solver must not adopt it.
    let sol = Milp::new(&p)
        .with_incumbent(vec![1.0, 1.0])
        .solve()
        .unwrap();
    assert_eq!(sol.status, MilpStatus::Optimal);
    assert_eq!(sol.objective.round() as i64, 1);
}

#[test]
fn gap_terminates_early_but_within_tolerance() {
    let values: Vec<i64> = (0..20).map(|i| 40 + (i * 13) % 31).collect();
    let weights: Vec<i64> = (0..20).map(|i| 6 + (i * 7) % 13).collect();
    let (p, best) = knapsack(&values, &weights, 50);
    let sol = Milp::new(&p).gap(0.05).solve().unwrap();
    assert!(sol.has_solution());
    assert!(
        sol.objective >= best as f64 * 0.94,
        "5% gap: {} vs optimum {best}",
        sol.objective
    );
}

#[test]
fn node_limit_is_respected() {
    let values: Vec<i64> = (0..22).map(|i| 10 + (i * 17) % 29).collect();
    let weights: Vec<i64> = (0..22).map(|i| 3 + (i * 13) % 19).collect();
    let (p, _) = knapsack(&values, &weights, 60);
    let sol = Milp::new(&p).node_limit(5).solve().unwrap();
    // Severely limited: a status is still produced and the dive obeys
    // the limit too.
    assert!(sol.nodes <= 5, "node limit 5, explored {}", sol.nodes);
}

/// A MIP start within the gap of the root bound ends the search at the
/// root: one LP, solved cold, and nothing explored.
#[test]
fn mip_start_within_the_gap_stops_at_the_root() {
    // LP bound 20.25 (c, a and a quarter of b); b + c scores 20.
    let (p, best) = knapsack(&[10, 13, 7], &[3, 4, 2], 6);
    let sol = Milp::new(&p)
        .gap(0.02)
        .with_incumbent(vec![0.0, 1.0, 1.0])
        .solve()
        .unwrap();
    assert_eq!(sol.status, MilpStatus::Optimal);
    assert_eq!(sol.objective.round() as i64, best);
    assert_eq!(sol.nodes, 0, "the root LP is the only LP");
    assert_eq!(sol.counts.warm_starts, 0);
    assert_eq!(sol.counts.nodes_pruned, 1);
    assert_eq!(sol.counts.incumbent_improvements, 1);
}

/// A problem without integer variables reports the pivots of its root
/// LP: the one node re-solves the root from its optimal basis without
/// pivoting.
#[test]
fn a_pure_lp_reports_its_root_pivots() {
    let mut p = Problem::maximize();
    let x = p.add_nonneg(3.0, "x");
    let y = p.add_nonneg(2.0, "y");
    let z = p.add_nonneg(4.0, "z");
    p.add_constraint(vec![(x, 1.0), (y, 1.0), (z, 2.0)], Cmp::Le, 4.0);
    p.add_constraint(vec![(x, 2.0), (z, 1.0)], Cmp::Le, 5.0);
    p.add_constraint(vec![(y, 1.0), (z, 3.0)], Cmp::Le, 7.0);
    let root = Simplex::new(&p).solve();
    assert!(root.iterations > 0);
    let sol = Milp::new(&p).solve().unwrap();
    assert_eq!(sol.status, MilpStatus::Optimal);
    assert!((sol.objective - root.objective).abs() < 1e-9);
    assert_eq!(sol.counts.pivots, root.iterations as u64);
    // Installing the root basis in the node factorizes it once.
    assert_eq!(
        sol.counts.refactorizations,
        root.refactorizations as u64 + 1
    );
    assert_eq!((sol.nodes, sol.counts.warm_starts), (1, 1));
}

#[test]
fn equality_constrained_scheduling_shape() {
    // All-or-nothing placement shape: 3 containers on 3 nodes, one each,
    // with an S indicator — the scheduler's Eq. 2/4 structure.
    let mut p = Problem::maximize();
    let x: Vec<Vec<_>> = (0..3)
        .map(|i| {
            (0..3)
                .map(|n| p.add_binary(0.0, format!("x{i}{n}")))
                .collect()
        })
        .collect();
    let s = p.add_binary(1.0, "s");
    let mut all = Vec::new();
    for row in &x {
        p.add_constraint(row.iter().map(|&v| (v, 1.0)), Cmp::Le, 1.0);
        all.extend(row.iter().map(|&v| (v, 1.0)));
    }
    all.push((s, -3.0));
    p.add_constraint(all, Cmp::Eq, 0.0);
    // `n` walks the transposed node dimension of `x`.
    #[allow(clippy::needless_range_loop)]
    for n in 0..3 {
        p.add_constraint((0..3).map(|i| (x[i][n], 1.0)), Cmp::Le, 1.0);
    }
    let sol = Milp::new(&p).solve().unwrap();
    assert_eq!(sol.status, MilpStatus::Optimal);
    assert_eq!(sol.value(s).round() as i64, 1);
}
