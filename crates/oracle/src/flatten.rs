//! Conversion of a stage-structured LQ problem into an equivalent dense QP.
//!
//! The flattened form exists for cross-validation: the test suite solves
//! LQ problems both with the Riccati solver and (flattened) with the dense
//! QP solver and requires agreement — two independent implementations
//! checking each other.

use crate::{LqProblem, QpProblem, QpSolution};
use dspp_linalg::{Matrix, Vector};
use dspp_solver::SolverError;

/// A dense QP equivalent to an [`LqProblem`], plus the bookkeeping needed to
/// map a [`QpSolution`] back to trajectories.
///
/// The decision vector is `[u_0, …, u_{N-1}, x_1, …, x_N]`; the dynamics
/// become equality constraints and the stage/terminal constraints become
/// inequality rows. Stage 0 contributes the constant `½x₀ᵀQ₀x₀ + q₀ᵀx₀` to
/// the objective, reported as [`FlattenedLq::offset`].
#[derive(Debug, Clone)]
pub struct FlattenedLq {
    /// The equivalent dense QP.
    pub qp: QpProblem,
    /// Constant objective offset: `lq_objective = qp_objective + offset`.
    pub offset: f64,
    /// State dimension `n`.
    n: usize,
    /// Input dimensions per stage.
    mus: Vec<usize>,
}

impl FlattenedLq {
    /// Extracts the input trajectory `u_0..u_{N-1}` from a QP solution.
    pub fn extract_inputs(&self, sol: &QpSolution) -> Vec<Vector> {
        let mut out = Vec::with_capacity(self.mus.len());
        let mut ofs = 0;
        for &mu in &self.mus {
            out.push((ofs..ofs + mu).map(|i| sol.x[i]).collect());
            ofs += mu;
        }
        out
    }

    /// Extracts the state trajectory `x_1..x_N` from a QP solution.
    pub fn extract_states(&self, sol: &QpSolution) -> Vec<Vector> {
        let nu: usize = self.mus.iter().sum();
        let nstages = self.mus.len();
        let mut out = Vec::with_capacity(nstages);
        for k in 0..nstages {
            let ofs = nu + k * self.n;
            out.push((ofs..ofs + self.n).map(|i| sol.x[i]).collect());
        }
        out
    }
}

/// Flattens an [`LqProblem`] into an equivalent dense [`QpProblem`].
///
/// # Errors
///
/// Propagates [`SolverError::InvalidProblem`] from the QP builder (which can
/// only happen if the LQ problem itself was built without validation).
pub fn flatten_lq(problem: &LqProblem) -> Result<FlattenedLq, SolverError> {
    let nstages = problem.horizon();
    let n = problem.state_dim();
    let mus: Vec<usize> = problem.stages.iter().map(|s| s.input_dim()).collect();
    let nu: usize = mus.iter().sum();
    let nvar = nu + nstages * n;

    // Variable offsets.
    let u_ofs: Vec<usize> = {
        let mut v = Vec::with_capacity(nstages);
        let mut acc = 0;
        for &mu in &mus {
            v.push(acc);
            acc += mu;
        }
        v
    };
    let x_ofs = |k: usize| nu + (k - 1) * n; // valid for k = 1..=nstages

    // Objective.
    let mut p = Matrix::zeros(nvar, nvar);
    let mut q = Vector::zeros(nvar);
    for (k, st) in problem.stages.iter().enumerate() {
        p.set_block(u_ofs[k], u_ofs[k], &st.r_mat);
        for i in 0..mus[k] {
            q[u_ofs[k] + i] = st.r_vec[i];
        }
        if k >= 1 {
            p.set_block(x_ofs(k), x_ofs(k), &st.q_mat);
            for i in 0..n {
                q[x_ofs(k) + i] = st.q_vec[i];
            }
        }
    }
    p.set_block(x_ofs(nstages), x_ofs(nstages), &problem.terminal.q_mat);
    for i in 0..n {
        q[x_ofs(nstages) + i] += problem.terminal.q_vec[i];
    }
    let offset = {
        let st0 = &problem.stages[0];
        0.5 * problem.x0.dot(&st0.q_mat.matvec(&problem.x0)) + st0.q_vec.dot(&problem.x0)
    };

    // Dynamics equalities: x_{k+1} − A_k x_k − B_k u_k = c_k  (x_0 constant).
    let mut a_eq = Matrix::zeros(nstages * n, nvar);
    let mut b_eq = Vector::zeros(nstages * n);
    let mut ax0 = Vector::zeros(n);
    for (k, st) in problem.stages.iter().enumerate() {
        let row0 = k * n;
        // +x_{k+1}
        for i in 0..n {
            a_eq[(row0 + i, x_ofs(k + 1) + i)] = 1.0;
        }
        // −B u_k
        for i in 0..n {
            for j in 0..mus[k] {
                a_eq[(row0 + i, u_ofs[k] + j)] = -st.b[(i, j)];
            }
        }
        if k == 0 {
            st.a.matvec_into(&problem.x0, &mut ax0);
            for i in 0..n {
                b_eq[row0 + i] = st.c[i] + ax0[i];
            }
        } else {
            for i in 0..n {
                for j in 0..n {
                    a_eq[(row0 + i, x_ofs(k) + j)] = -st.a[(i, j)];
                }
                b_eq[row0 + i] = st.c[i];
            }
        }
    }

    // Inequalities.
    let m_total = problem.num_constraints();
    let mut g = Matrix::zeros(m_total, nvar);
    let mut h = Vector::zeros(m_total);
    let mut row = 0;
    for (k, st) in problem.stages.iter().enumerate() {
        for r in 0..st.num_constraints() {
            for j in 0..mus[k] {
                g[(row, u_ofs[k] + j)] = st.cu[(r, j)];
            }
            if k >= 1 {
                for j in 0..n {
                    g[(row, x_ofs(k) + j)] = st.cx[(r, j)];
                }
                h[row] = st.d[r];
            } else {
                // Cx x_0 is a constant: move it to the right-hand side.
                let mut cx0 = 0.0;
                for j in 0..n {
                    cx0 += st.cx[(r, j)] * problem.x0[j];
                }
                h[row] = st.d[r] - cx0;
            }
            row += 1;
        }
    }
    for r in 0..problem.terminal.d.len() {
        for j in 0..n {
            g[(row, x_ofs(nstages) + j)] = problem.terminal.cx[(r, j)];
        }
        h[row] = problem.terminal.d[r];
        row += 1;
    }
    debug_assert_eq!(row, m_total);

    let qp = QpProblem::new(p, q)?
        .with_equalities(a_eq, b_eq)?
        .with_inequalities(g, h)?;
    Ok(FlattenedLq { qp, offset, n, mus })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_lq, solve_qp, LqStage, LqTerminal};
    use dspp_solver::IpmSettings;

    /// Builds a nontrivial 2-state, 3-stage problem with active constraints.
    fn sample_problem() -> LqProblem {
        let floor = Matrix::from_rows(&[&[-1.0, -0.5]]).unwrap();
        let nonneg = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, -1.0]]).unwrap();
        let free = LqStage::identity_dynamics(2)
            .with_state_cost(Vector::from(vec![1.0, 2.0]))
            .with_input_penalty(&Vector::from(vec![0.3, 0.4]));
        let constrained = free
            .clone()
            .with_constraints(floor.clone(), Matrix::zeros(1, 2), Vector::from(vec![-4.0]))
            .with_constraints(nonneg, Matrix::zeros(2, 2), Vector::zeros(2));
        LqProblem::new(
            Vector::from(vec![0.5, 0.5]),
            vec![free, constrained.clone(), constrained],
            LqTerminal::free(2).with_constraints(floor, Vector::from(vec![-4.0])),
        )
        .unwrap()
    }

    #[test]
    fn flattened_shapes_are_consistent() {
        let lq = sample_problem();
        let flat = flatten_lq(&lq).unwrap();
        // 3 stages × 2 inputs + 3 states × 2 = 12 variables.
        assert_eq!(flat.qp.num_vars(), 12);
        assert_eq!(flat.qp.num_equalities(), 6);
        assert_eq!(flat.qp.num_inequalities(), lq.num_constraints());
    }

    #[test]
    fn structured_and_dense_solvers_agree() {
        let lq = sample_problem();
        let settings = IpmSettings::default();
        let sol_lq = solve_lq(&lq, &settings).unwrap();
        let flat = flatten_lq(&lq).unwrap();
        let sol_qp = solve_qp(&flat.qp, &settings).unwrap();
        // Objectives agree up to the constant offset.
        assert!(
            (sol_lq.objective - (sol_qp.objective + flat.offset)).abs() < 1e-5,
            "lq {} vs qp {}",
            sol_lq.objective,
            sol_qp.objective + flat.offset
        );
        // Trajectories agree.
        let us = flat.extract_inputs(&sol_qp);
        let xs = flat.extract_states(&sol_qp);
        for k in 0..lq.horizon() {
            assert!(
                (&us[k] - &sol_lq.us[k]).norm_inf() < 1e-4,
                "u[{k}]: {} vs {}",
                us[k],
                sol_lq.us[k]
            );
            assert!(
                (&xs[k] - &sol_lq.xs[k + 1]).norm_inf() < 1e-4,
                "x[{}]: {} vs {}",
                k + 1,
                xs[k],
                sol_lq.xs[k + 1]
            );
        }
    }

    #[test]
    fn dual_variables_agree_between_solvers() {
        let lq = sample_problem();
        let settings = IpmSettings::default();
        let sol_lq = solve_lq(&lq, &settings).unwrap();
        let flat = flatten_lq(&lq).unwrap();
        let sol_qp = solve_qp(&flat.qp, &settings).unwrap();
        // The flattened inequality rows are ordered stage by stage, matching
        // the concatenation of stage_duals.
        let mut flat_duals = Vec::new();
        for k in 0..=lq.horizon() {
            flat_duals.extend(sol_lq.stage_duals[k].iter().copied());
        }
        for (i, &zd) in flat_duals.iter().enumerate() {
            assert!(
                (zd - sol_qp.z[i]).abs() < 1e-3,
                "dual {i}: structured {zd} vs dense {}",
                sol_qp.z[i]
            );
        }
    }

    #[test]
    fn offset_accounts_for_stage_zero_state_cost() {
        let lq = sample_problem();
        let flat = flatten_lq(&lq).unwrap();
        // Stage 0 cost at x0 = (0.5, 0.5) with q = (1, 2): offset = 1.5.
        assert!((flat.offset - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rollout_of_extracted_inputs_matches_extracted_states() {
        let lq = sample_problem();
        let settings = IpmSettings::default();
        let flat = flatten_lq(&lq).unwrap();
        let sol_qp = solve_qp(&flat.qp, &settings).unwrap();
        let us = flat.extract_inputs(&sol_qp);
        let xs = flat.extract_states(&sol_qp);
        let rolled = lq.rollout(&us);
        for k in 1..=lq.horizon() {
            assert!(
                (&rolled[k] - &xs[k - 1]).norm_inf() < 1e-5,
                "dynamics equality violated at stage {k}"
            );
        }
    }
}
