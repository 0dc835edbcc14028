//! The always-feasible slack relaxation of a stage-structured LQ problem,
//! built densely: the oracle for the structured recovery solve
//! ([`dspp_solver::solve_structured_relaxed_traced`]).
//!
//! [`relax_lq`] softens the leading rows of every constrained slot except
//! stage 0 as [`SoftSpec`] describes. Stage 0 stays strict because `x_0`
//! is fixed: a softened change budget there would let the recovery solve
//! "teleport" capacity.
//!
//! Mechanically the slack variables ride along as extra *input*
//! dimensions: stage `k`'s input becomes `[u_k; σ_k]` with zero dynamics
//! columns, so the Riccati structure of [`crate::solve_lq`] is untouched.
//! Terminal constraints have no input to extend, so the relaxed problem
//! appends one extra stage with identity dynamics and slack-only inputs
//! carrying the old terminal cost and constraints, followed by a free
//! terminal. [`RelaxedLq::solve`] solves it and maps the answer back onto
//! the original shapes, extracting the slack values.

use crate::dense::MatrixOps;
use crate::lq_ipm::solve_lq_inner;
use crate::{LqProblem, LqStage, LqTerminal};
use dspp_linalg::{Matrix, Vector};
use dspp_solver::{IpmSettings, LqSolution, RelaxedSolution, SoftSpec, SolverError};

/// A relaxed problem plus the bookkeeping to undo the augmentation.
#[derive(Debug, Clone)]
pub struct RelaxedLq {
    /// The always-feasible augmented problem; [`RelaxedLq::solve`]
    /// solves it.
    pub problem: LqProblem,
    /// Original input dimension per stage.
    orig_input_dims: Vec<usize>,
    /// Original constraint-row count per slot (terminal last).
    orig_row_counts: Vec<usize>,
    /// Slack count per slot (terminal last).
    soft_counts: Vec<usize>,
    /// Whether an extra slack-only stage was appended for the terminal.
    extra_stage: bool,
    /// The slack pricing.
    spec: SoftSpec,
}

fn soften_rows(
    cx: &Matrix,
    cu: &Matrix,
    d: &Vector,
    input_dim: usize,
    soft: usize,
) -> (Matrix, Matrix, Vector) {
    let n = cx.cols();
    let mc = d.len();
    // Original rows with −I on the slack columns of the soft rows, then
    // slack non-negativity rows.
    let mut cx_new = Matrix::zeros(mc + soft, n);
    cx_new.set_block(0, 0, cx);
    let mut cu_new = Matrix::zeros(mc + soft, input_dim + soft);
    cu_new.set_block(0, 0, cu);
    for i in 0..soft {
        cu_new[(i, input_dim + i)] = -1.0;
        cu_new[(mc + i, input_dim + i)] = -1.0;
    }
    let mut d_new = Vector::zeros(mc + soft);
    for i in 0..mc {
        d_new[i] = d[i];
    }
    (cx_new, cu_new, d_new)
}

fn slack_cost(soft: usize, spec: &SoftSpec) -> (Matrix, Vector) {
    let mut r_mat = Matrix::zeros(soft, soft);
    let mut r_vec = Vector::zeros(soft);
    for i in 0..soft {
        r_mat[(i, i)] = 2.0 * spec.quadratic;
        r_vec[i] = spec.penalties[i];
    }
    (r_mat, r_vec)
}

/// Builds the slack relaxation of `problem` under `spec`, softening the
/// leading rows of every constrained slot except stage 0 (see the module
/// docs).
///
/// Slots with no constraints are left alone; every other softened slot
/// must have at least `spec.penalties.len()` rows.
///
/// # Errors
///
/// Returns [`SolverError::InvalidProblem`] when the spec is degenerate
/// (no soft rows, non-positive or non-finite penalties) or a constrained
/// slot is shorter than the spec.
pub fn relax_lq(problem: &LqProblem, spec: &SoftSpec) -> Result<RelaxedLq, SolverError> {
    let soft_rows = spec.penalties.len();
    if soft_rows == 0 {
        return Err(SolverError::InvalidProblem(
            "relaxation: no soft rows requested".into(),
        ));
    }
    if !spec.penalties.is_finite() || spec.penalties.iter().any(|p| *p <= 0.0) {
        return Err(SolverError::InvalidProblem(
            "relaxation: slack penalties must be positive and finite".into(),
        ));
    }
    if !spec.quadratic.is_finite() || spec.quadratic <= 0.0 {
        return Err(SolverError::InvalidProblem(
            "relaxation: quadratic slack penalty must be positive".into(),
        ));
    }
    let nstages = problem.horizon();
    let n = problem.state_dim();
    let mut orig_input_dims = Vec::with_capacity(nstages);
    let mut orig_row_counts = Vec::with_capacity(nstages + 1);
    let mut soft_counts = Vec::with_capacity(nstages + 1);
    let mut stages = Vec::with_capacity(nstages + 1);
    for (k, st) in problem.stages.iter().enumerate() {
        let m = st.input_dim();
        let mc = st.num_constraints();
        orig_input_dims.push(m);
        orig_row_counts.push(mc);
        if mc == 0 || k == 0 {
            soft_counts.push(0);
            stages.push(st.clone());
            continue;
        }
        if mc < soft_rows {
            return Err(SolverError::InvalidProblem(format!(
                "relaxation: stage {k} has {mc} constraint rows, fewer than \
                 the {soft_rows} soft rows requested"
            )));
        }
        soft_counts.push(soft_rows);
        let mut b = Matrix::zeros(n, m + soft_rows);
        b.set_block(0, 0, &st.b);
        let (slack_r, slack_rv) = slack_cost(soft_rows, spec);
        let mut r_mat = Matrix::zeros(m + soft_rows, m + soft_rows);
        r_mat.set_block(0, 0, &st.r_mat);
        r_mat.set_block(m, m, &slack_r);
        let mut r_vec = Vector::zeros(m + soft_rows);
        for i in 0..m {
            r_vec[i] = st.r_vec[i];
        }
        for i in 0..soft_rows {
            r_vec[m + i] = slack_rv[i];
        }
        let (cx, cu, d) = soften_rows(&st.cx, &st.cu, &st.d, m, soft_rows);
        stages.push(LqStage {
            a: st.a.clone(),
            b,
            c: st.c.clone(),
            q_mat: st.q_mat.clone(),
            q_vec: st.q_vec.clone(),
            r_mat,
            r_vec,
            cx,
            cu,
            d,
        });
    }

    let term = &problem.terminal;
    let term_rows = term.d.len();
    orig_row_counts.push(term_rows);
    let (terminal, extra_stage) = if term_rows == 0 {
        soft_counts.push(0);
        (term.clone(), false)
    } else {
        if term_rows < soft_rows {
            return Err(SolverError::InvalidProblem(format!(
                "relaxation: terminal has {term_rows} constraint rows, fewer \
                 than the {soft_rows} soft rows requested"
            )));
        }
        soft_counts.push(soft_rows);
        // The old terminal becomes a slack-only stage: identity dynamics,
        // zero dynamics columns for the slack, the terminal cost as its
        // state cost, and the softened terminal rows as its constraints.
        let (slack_r, slack_rv) = slack_cost(soft_rows, spec);
        let (cx, cu, d) = soften_rows(
            &term.cx,
            &Matrix::zeros(term_rows, 0),
            &term.d,
            0,
            soft_rows,
        );
        stages.push(LqStage {
            a: Matrix::identity(n),
            b: Matrix::zeros(n, soft_rows),
            c: Vector::zeros(n),
            q_mat: term.q_mat.clone(),
            q_vec: term.q_vec.clone(),
            r_mat: slack_r,
            r_vec: slack_rv,
            cx,
            cu,
            d,
        });
        (LqTerminal::free(n), true)
    };

    let problem = LqProblem::new(problem.x0.clone(), stages, terminal)?;
    Ok(RelaxedLq {
        problem,
        orig_input_dims,
        orig_row_counts,
        soft_counts,
        extra_stage,
        spec: spec.clone(),
    })
}

impl RelaxedLq {
    /// Solves the relaxation with [`crate::solve_lq`]'s interior point and
    /// maps the answer back onto `original`'s shapes plus the slack
    /// values. As on the structured path, the duality-gap test is measured
    /// against the strict objective, the relaxed one less the slack
    /// penalty: the penalty on shed demand is orders of magnitude above
    /// the placement's own cost, and a gap scaled by it stops short of
    /// the optimum.
    ///
    /// # Errors
    ///
    /// As [`crate::solve_lq`].
    ///
    /// # Panics
    ///
    /// Panics if `original` is not the problem this relaxation was built
    /// from.
    pub fn solve(
        &self,
        original: &LqProblem,
        settings: &IpmSettings,
    ) -> Result<RelaxedSolution, SolverError> {
        let strict = |us: &[Vector], objective: f64| objective - self.slack_penalty(us);
        let sol = solve_lq_inner(&self.problem, settings, Some(&strict))?;
        Ok(self.split_solution(original, &sol))
    }

    /// The slack penalty `Σ ρσ + εσ²` of a relaxed input sequence: slot
    /// `k`'s slacks follow its original inputs, and the extra stage's
    /// inputs are the terminal slacks.
    fn slack_penalty(&self, us: &[Vector]) -> f64 {
        let mut j = 0.0;
        for (k, u) in us.iter().enumerate() {
            let first = self.orig_input_dims.get(k).copied().unwrap_or(0);
            for (i, &rho) in self
                .spec
                .penalties
                .iter()
                .take(self.soft_counts[k])
                .enumerate()
            {
                let s = u[first + i];
                j += rho * s + self.spec.quadratic * s * s;
            }
        }
        j
    }

    /// Splits a solution of the relaxed problem back into the original
    /// problem's shapes plus the slack values.
    fn split_solution(&self, original: &LqProblem, sol: &LqSolution) -> RelaxedSolution {
        let nstages = original.horizon();
        assert_eq!(sol.us.len(), self.problem.horizon(), "relaxed input count");

        let xs: Vec<Vector> = sol.xs.iter().take(nstages + 1).cloned().collect();
        let mut us = Vec::with_capacity(nstages);
        let mut slacks = vec![Vector::zeros(0); nstages + 1];
        for (k, slack) in slacks.iter_mut().enumerate().take(nstages) {
            let m = self.orig_input_dims[k];
            let full = &sol.us[k];
            let mut u = Vector::zeros(m);
            for i in 0..m {
                u[i] = full[i];
            }
            us.push(u);
            let soft = self.soft_counts[k];
            let mut sl = Vector::zeros(soft);
            for i in 0..soft {
                sl[i] = full[m + i].max(0.0);
            }
            *slack = sl;
        }
        if self.extra_stage {
            let full = &sol.us[nstages];
            let soft = self.soft_counts[nstages];
            let mut sl = Vector::zeros(soft);
            for i in 0..soft {
                sl[i] = full[i].max(0.0);
            }
            slacks[nstages] = sl;
        }

        let mut stage_duals = Vec::with_capacity(nstages + 1);
        for k in 0..=nstages {
            let rows = self.orig_row_counts[k];
            let full = &sol.stage_duals[k];
            let mut z = Vector::zeros(rows);
            for i in 0..rows {
                z[i] = full[i];
            }
            stage_duals.push(z);
        }

        let objective = original.objective(&xs, &us);
        RelaxedSolution {
            solution: LqSolution {
                xs,
                us,
                stage_duals,
                objective,
                iterations: sol.iterations,
                status: sol.status,
            },
            slacks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve_lq;

    /// One DC of capacity `cap`, one location, arc coefficient `a = 0.5`:
    /// demand row, capacity row, non-negativity, across 2 stages + terminal.
    fn placement_problem(cap: f64, demands: [f64; 3]) -> LqProblem {
        let a = 0.5;
        let cx = Matrix::from_rows(&[&[-1.0 / a], &[1.0], &[-1.0]]).unwrap();
        let free = LqStage::identity_dynamics(1)
            .with_state_cost(Vector::from(vec![1.0]))
            .with_input_penalty(&Vector::from(vec![0.1]));
        let mk = |dem: f64| {
            free.clone().with_constraints(
                cx.clone(),
                Matrix::zeros(3, 1),
                Vector::from(vec![-dem, cap, 0.0]),
            )
        };
        LqProblem::new(
            Vector::zeros(1),
            vec![free.clone(), mk(demands[0]), mk(demands[1])],
            LqTerminal::free(1)
                .with_state_cost(Vector::from(vec![1.0]))
                .with_constraints(cx, Vector::from(vec![-demands[2], cap, 0.0])),
        )
        .unwrap()
    }

    fn spec() -> SoftSpec {
        SoftSpec::uniform(1, 1e4, 1e-4)
    }

    #[test]
    fn feasible_problem_keeps_slack_at_zero_and_matches_strict() {
        let problem = placement_problem(20.0, [8.0, 12.0, 10.0]);
        let strict = solve_lq(&problem, &IpmSettings::default()).unwrap();
        let relaxed = relax_lq(&problem, &spec()).unwrap();
        let split = relaxed.solve(&problem, &IpmSettings::default()).unwrap();
        assert!(split.max_slack() < 1e-5, "slack = {}", split.max_slack());
        assert!(
            (split.solution.objective - strict.objective).abs() < 1e-3,
            "relaxed {} vs strict {}",
            split.solution.objective,
            strict.objective
        );
        for (a, b) in split.solution.xs.iter().zip(&strict.xs) {
            assert!((a - b).norm_inf() < 1e-3);
        }
    }

    #[test]
    fn infeasible_problem_recovers_with_exact_shortfall() {
        // Demand 50 at a = 0.5 needs 25 servers against capacity 10:
        // 15 servers of demand-rate shortfall, i.e. slack 30 demand units.
        let problem = placement_problem(10.0, [8.0, 50.0, 8.0]);
        assert!(solve_lq(&problem, &IpmSettings::default()).is_err());
        let relaxed = relax_lq(&problem, &spec()).unwrap();
        let split = relaxed.solve(&problem, &IpmSettings::default()).unwrap();
        // Slot 2 (stage 2) is the overloaded period; its slack must cover
        // exactly the unserved demand: 50 − 10/0.5 = 30.
        let slack = split.slot_slack(2);
        assert!((slack - 30.0).abs() < 1e-3, "slack = {slack}");
        // The placement itself must respect capacity.
        for x in split.solution.xs.iter().skip(1) {
            assert!(x[0] <= 10.0 + 1e-5);
        }
        // Other periods stay strict.
        assert!(split.slot_slack(1) < 1e-5);
        assert!(split.slot_slack(3) < 1e-5);
    }

    #[test]
    fn terminal_constraints_are_softened_via_the_extra_stage() {
        // Only the terminal period is overloaded.
        let problem = placement_problem(10.0, [8.0, 8.0, 50.0]);
        let relaxed = relax_lq(&problem, &spec()).unwrap();
        assert_eq!(relaxed.problem.horizon(), problem.horizon() + 1);
        let split = relaxed.solve(&problem, &IpmSettings::default()).unwrap();
        let slack = split.slot_slack(3);
        assert!((slack - 30.0).abs() < 1e-3, "terminal slack = {slack}");
        assert_eq!(split.solution.xs.len(), problem.horizon() + 1);
        assert_eq!(split.solution.us.len(), problem.horizon());
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        let problem = placement_problem(10.0, [8.0, 8.0, 8.0]);
        assert!(relax_lq(&problem, &SoftSpec::uniform(0, 1.0, 1e-4)).is_err());
        assert!(relax_lq(&problem, &SoftSpec::uniform(1, -1.0, 1e-4)).is_err());
        assert!(relax_lq(&problem, &SoftSpec::uniform(1, 1.0, 0.0)).is_err());
        // More soft rows than the slots carry.
        assert!(relax_lq(&problem, &SoftSpec::uniform(4, 1.0, 1e-4)).is_err());
    }
}
