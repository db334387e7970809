//! Simplex edge cases: degenerate and redundant systems must terminate at
//! the optimum, and pathological problems must come back as the right
//! [`LpError`] variant — never a hang, never a panic.

use qp_lp::{ConstraintOp, LpError, LpProblem, LpStatus, Sense};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn approx(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-6
}

// ---- Infeasibility -----------------------------------------------------

#[test]
fn contradictory_bounds_are_infeasible() {
    let mut lp = LpProblem::new(Sense::Maximize, 1);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 2.0);
    lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 5.0);
    assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
}

#[test]
fn contradictory_equalities_are_infeasible() {
    // x + y = 1 and x + y = 3 cannot both hold.
    let mut lp = LpProblem::new(Sense::Minimize, 2);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 1.0);
    lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 3.0);
    assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
}

#[test]
fn negative_rhs_equality_with_nonnegative_vars_is_infeasible() {
    // x + y = -1 has no solution in x, y ≥ 0 (exercises the rhs-negation
    // normalization path through phase 1).
    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, -1.0);
    assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
}

#[test]
fn zero_row_with_positive_rhs_is_infeasible() {
    // 0·x ≥ 1: an all-zero constraint row that can never be satisfied.
    let mut lp = LpProblem::new(Sense::Maximize, 1);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(0, 0.0)], ConstraintOp::Ge, 1.0);
    lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 10.0);
    assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
}

// ---- Unboundedness -----------------------------------------------------

#[test]
fn unconstrained_variable_is_unbounded() {
    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Le, 3.0);
    assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
}

#[test]
fn minimization_can_be_unbounded_too() {
    // min −x with only x ≥ 2: x can grow forever.
    let mut lp = LpProblem::new(Sense::Minimize, 1);
    lp.set_objective(0, -1.0);
    lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 2.0);
    assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
}

#[test]
fn unbounded_ray_through_a_feasible_region() {
    // x − y ≤ 1 holds along the ray x = y + 1 → ∞; maximize x + y.
    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, 1.0);
    lp.set_objective(1, 1.0);
    lp.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintOp::Le, 1.0);
    assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
}

#[test]
fn bounded_objective_over_an_unbounded_region_still_solves() {
    // The region is unbounded in y, but the objective ignores y: max x with
    // x ≤ 4, y free upward. Must return 4, not Unbounded.
    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 4.0);
    lp.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintOp::Le, 2.0);
    let sol = lp.solve().unwrap();
    assert!(approx(sol.objective, 4.0));
}

// ---- Degeneracy and redundancy -----------------------------------------

#[test]
fn redundant_inequalities_do_not_change_the_optimum() {
    // The same face described three times plus a slack copy.
    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, 2.0);
    lp.set_objective(1, 3.0);
    lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Le, 4.0);
    lp.add_constraint(vec![(0, 2.0), (1, 2.0)], ConstraintOp::Le, 8.0);
    lp.add_constraint(vec![(0, 3.0), (1, 3.0)], ConstraintOp::Le, 12.0);
    lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Le, 100.0);
    let sol = lp.solve().unwrap();
    assert!(approx(sol.objective, 12.0)); // all budget on y
    assert!(approx(sol.primal[1], 4.0));
}

#[test]
fn redundant_equalities_mixed_with_inequalities_solve() {
    // x + y = 2 stated twice (scaled), plus x ≤ 2: optimum x = 2, y = 0.
    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 2.0);
    lp.add_constraint(vec![(0, 0.5), (1, 0.5)], ConstraintOp::Eq, 1.0);
    lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 2.0);
    let sol = lp.solve().unwrap();
    assert!(approx(sol.objective, 2.0));
    assert!(approx(sol.primal[0], 2.0));
    assert!(approx(sol.primal[1], 0.0));
}

#[test]
fn degenerate_vertex_with_many_tight_constraints_terminates() {
    // Four constraints all tight at the optimum (0, 1) — a classic
    // degenerate vertex that invites pivot cycling.
    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, 1.0);
    lp.set_objective(1, 2.0);
    lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Le, 1.0);
    lp.add_constraint(vec![(0, -1.0), (1, 1.0)], ConstraintOp::Le, 1.0);
    lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Le, 1.0);
    lp.add_constraint(vec![(0, 2.0), (1, 1.0)], ConstraintOp::Le, 1.0);
    let sol = lp.solve().unwrap();
    assert!(approx(sol.objective, 2.0));
    assert!(approx(sol.primal[0], 0.0));
    assert!(approx(sol.primal[1], 1.0));
}

#[test]
fn kuhns_cycling_prone_lp_terminates_at_the_optimum() {
    // A Beale/Kuhn-style degenerate LP with zero right-hand sides; Dantzig
    // pricing alone can cycle here, so this exercises the Bland fallback
    // and the ratio-test tie-breaking.
    let mut lp = LpProblem::new(Sense::Maximize, 4);
    lp.set_objective(0, 2.0);
    lp.set_objective(1, 3.0);
    lp.set_objective(2, -1.0);
    lp.set_objective(3, -12.0);
    lp.add_constraint(
        vec![(0, -2.0), (1, -9.0), (2, 1.0), (3, 9.0)],
        ConstraintOp::Le,
        0.0,
    );
    lp.add_constraint(
        vec![(0, 1.0 / 3.0), (1, 1.0), (2, -1.0 / 3.0), (3, -2.0)],
        ConstraintOp::Le,
        0.0,
    );
    // Bound the feasible region so the LP has a finite optimum.
    lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Le, 10.0);
    let sol = lp.solve().unwrap();
    assert!(sol.objective.is_finite());
    // Optimum: x0 = 10 (worth 2 each) with x2 = 10 absorbing the second
    // constraint's slack (cost 1 each) → objective 10 at (10, 0, 10, 0).
    assert!(approx(sol.objective, 10.0));
    let x = &sol.primal;
    assert!(-2.0 * x[0] - 9.0 * x[1] + x[2] + 9.0 * x[3] <= 1e-6);
    assert!(x[0] / 3.0 + x[1] - x[2] / 3.0 - 2.0 * x[3] <= 1e-6);
    assert!(x[0] + x[1] <= 10.0 + 1e-6);
}

// ---- Budget exhaustion and validation ----------------------------------

#[test]
fn exhausted_pivot_budget_returns_iteration_limit() {
    // A healthy LP that needs several pivots, strangled to one.
    let mut lp = LpProblem::new(Sense::Maximize, 3);
    for j in 0..3 {
        lp.set_objective(j, 1.0 + j as f64);
        lp.add_constraint(vec![(j, 1.0)], ConstraintOp::Le, 1.0);
    }
    lp.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], ConstraintOp::Le, 2.0);
    lp.set_max_iterations(1);
    match lp.solve().unwrap_err() {
        LpError::IterationLimit { iterations } => assert_eq!(iterations, 1),
        other => panic!("expected IterationLimit, got {other:?}"),
    }
    // With the budget restored the same problem solves fine.
    lp.set_max_iterations(10_000);
    assert!(lp.solve().is_ok());
}

#[test]
fn iteration_limit_can_hit_in_phase_one() {
    // Equalities force artificials, so phase 1 must pivot — and is capped.
    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 3.0);
    lp.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintOp::Eq, 1.0);
    lp.set_max_iterations(1);
    assert!(matches!(
        lp.solve().unwrap_err(),
        LpError::IterationLimit { .. }
    ));
}

#[test]
fn non_finite_coefficients_are_rejected_before_solving() {
    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, f64::NAN);
    assert_eq!(lp.solve().unwrap_err(), LpError::NonFiniteCoefficient);

    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(0, f64::INFINITY)], ConstraintOp::Le, 1.0);
    assert_eq!(lp.solve().unwrap_err(), LpError::NonFiniteCoefficient);

    let mut lp = LpProblem::new(Sense::Maximize, 2);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, f64::NEG_INFINITY);
    assert_eq!(lp.solve().unwrap_err(), LpError::NonFiniteCoefficient);
}

#[test]
fn out_of_range_variables_are_rejected_before_solving() {
    let mut lp = LpProblem::new(Sense::Minimize, 2);
    lp.set_objective(0, 1.0);
    lp.add_constraint(vec![(7, 1.0)], ConstraintOp::Le, 1.0);
    assert_eq!(
        lp.solve().unwrap_err(),
        LpError::VariableOutOfRange {
            index: 7,
            num_vars: 2
        }
    );
}

#[test]
fn zero_variable_problems_are_fine() {
    // No variables at all: the origin is optimal with objective 0, and a
    // positive-rhs ≥ row over nothing is infeasible.
    let lp = LpProblem::new(Sense::Maximize, 0);
    let sol = lp.solve().unwrap();
    assert!(approx(sol.objective, 0.0));

    let mut lp = LpProblem::new(Sense::Maximize, 0);
    lp.add_constraint(vec![], ConstraintOp::Ge, 1.0);
    assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
}

// ---- Pricing-shaped LPs ------------------------------------------------

/// A random LP shaped like the pricing LPs: `≤` packing rows with a handful
/// of non-zeros each, plus per-variable caps (the valuation caps) that keep
/// it bounded when a variable appears in no packing row.
fn pricing_like_lp(vars: usize, rows: usize, seed: u64) -> LpProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lp = LpProblem::new(Sense::Maximize, vars);
    for j in 0..vars {
        lp.set_objective(j, rng.gen_range(0.5..2.0));
    }
    for _ in 0..rows {
        let nnz = rng.gen_range(2..8);
        let coeffs: Vec<(usize, f64)> = (0..nnz).map(|_| (rng.gen_range(0..vars), 1.0)).collect();
        lp.add_constraint(coeffs, ConstraintOp::Le, rng.gen_range(5.0..50.0));
    }
    for j in 0..vars {
        lp.add_constraint(vec![(j, 1.0)], ConstraintOp::Le, 100.0);
    }
    lp
}

#[test]
fn pricing_shaped_lps_solve_to_feasible_optima() {
    for (vars, rows) in [(50, 40), (200, 150), (400, 300)] {
        let lp = pricing_like_lp(vars, rows, 5);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(sol.primal.iter().all(|&x| x >= -1e-6), "{vars}v");
        for c in lp.constraints() {
            let lhs: f64 = c.coeffs.iter().map(|&(j, a)| a * sol.value(j)).sum();
            assert!(lhs <= c.rhs + 1e-6, "{vars}v: {lhs} > {}", c.rhs);
        }
    }
}
