//! Riccati backward recursion for equality-constrained LQ Newton steps.
//!
//! Every interior-point iteration on an [`crate::LqProblem`] must solve an
//! equality-constrained LQ subproblem in the increments `(Δx, Δu, Δλ)` whose
//! stage Hessians are the barrier-modified `Q̃, R̃, M̃`. This module factors
//! that subproblem once per iteration ([`RiccatiFactor::refactor`]) and then
//! solves it for any number of right-hand sides ([`RiccatiFactor::solve_into`])
//! — Mehrotra's predictor–corrector needs two solves per factorization.
//!
//! All stage-shaped storage (Cholesky factors, gains, value Hessians, and the
//! intermediate products `P_{k+1}B`, `P_{k+1}A`) is allocated once in
//! [`RiccatiFactor::new`] and reused across interior-point iterations, so the
//! per-iteration factor/solve path is allocation-free.
//!
//! The recursion (for `x⁺ = A x + B u`, increments satisfy the homogeneous
//! dynamics because the outer loop keeps iterates exactly
//! dynamics-feasible):
//!
//! ```text
//! P_N = Q̃_N
//! F_k = R̃_k + BᵀP_{k+1}B          (Cholesky-factored, must be PD)
//! H_k = M̃_kᵀ + BᵀP_{k+1}A
//! P_k = Q̃_k + AᵀP_{k+1}A − H_kᵀF_k⁻¹H_k
//! ```
//!
//! and per right-hand side `(q̂, r̂)`:
//!
//! ```text
//! p_N = q̂_N
//! g_k = r̂_k + Bᵀp_{k+1},   κ_k = F_k⁻¹g_k
//! p_k = q̂_k + Aᵀp_{k+1} − H_kᵀκ_k
//! Δu_k = −K_kΔx_k − κ_k,   Δx_{k+1} = AΔx_k + BΔu_k,   Δx_0 = 0
//! Δλ_k = P_{k+1}Δx_{k+1} + p_{k+1}
//! ```

use crate::dense::MatrixOps;
use crate::LqProblem;
use dspp_linalg::{Cholesky, Matrix, Vector};
use dspp_solver::SolverError;

/// A factored Newton/LQ subproblem with reusable workspace; see the module
/// docs.
#[derive(Debug, Clone)]
pub(crate) struct RiccatiFactor {
    /// Cholesky factors of `F_k`, one per stage.
    f_chols: Vec<Cholesky>,
    /// Feedback gains `K_k = F_k⁻¹H_k`.
    ks: Vec<Matrix>,
    /// `H_k` matrices (needed in the gradient backward pass).
    hs: Vec<Matrix>,
    /// Value-function Hessians `P_0..P_N` (`P_0` present but unused).
    ps: Vec<Matrix>,
    /// Cached transposes `A_kᵀ`, `B_kᵀ`.
    ats: Vec<Matrix>,
    bts: Vec<Matrix>,
    /// Scratch: `P_{k+1} B_k` per stage.
    pbs: Vec<Matrix>,
    /// Scratch: `F_k` before factorization, per stage.
    fs: Vec<Matrix>,
    /// Scratch: `P_{k+1} A_k` (shared across stages).
    pa: Matrix,
    /// Scratch column for the `K = F⁻¹H` back-substitutions, per stage.
    kcols: Vec<Vector>,
    /// Affine backward-pass values `p_0..p_N`.
    p_vecs: Vec<Vector>,
    /// Affine feedforward terms `κ_k`.
    kappas: Vec<Vector>,
}

/// Solution of one Newton subproblem right-hand side.
#[derive(Debug, Clone)]
pub(crate) struct RiccatiStep {
    /// State increments `Δx_0..Δx_N` (`Δx_0 = 0`).
    pub dxs: Vec<Vector>,
    /// Input increments `Δu_0..Δu_{N-1}`.
    pub dus: Vec<Vector>,
    /// Costate increments `Δλ_0..Δλ_{N-1}`.
    pub dlams: Vec<Vector>,
}

impl RiccatiStep {
    /// Zero-initialized step with the problem's stage shapes, reusable across
    /// [`RiccatiFactor::solve_into`] calls.
    pub fn new(problem: &LqProblem) -> Self {
        let n = problem.state_dim();
        let nstages = problem.horizon();
        RiccatiStep {
            dxs: (0..=nstages).map(|_| Vector::zeros(n)).collect(),
            dus: problem
                .stages
                .iter()
                .map(|st| Vector::zeros(st.input_dim()))
                .collect(),
            dlams: (0..nstages).map(|_| Vector::zeros(n)).collect(),
        }
    }
}

impl RiccatiFactor {
    /// Allocates workspace sized for `problem`; no factorization happens
    /// until [`RiccatiFactor::refactor`].
    pub fn new(problem: &LqProblem) -> Self {
        let n = problem.state_dim();
        let nstages = problem.horizon();
        let mut f_chols = Vec::with_capacity(nstages);
        let mut ks = Vec::with_capacity(nstages);
        let mut hs = Vec::with_capacity(nstages);
        let mut ats = Vec::with_capacity(nstages);
        let mut bts = Vec::with_capacity(nstages);
        let mut pbs = Vec::with_capacity(nstages);
        let mut fs = Vec::with_capacity(nstages);
        let mut kcols = Vec::with_capacity(nstages);
        let mut kappas = Vec::with_capacity(nstages);
        for st in &problem.stages {
            let mu = st.input_dim();
            f_chols.push(Cholesky::unfactored(mu));
            ks.push(Matrix::zeros(mu, n));
            hs.push(Matrix::zeros(mu, n));
            ats.push(st.a.transpose());
            bts.push(st.b.transpose());
            pbs.push(Matrix::zeros(n, mu));
            fs.push(Matrix::zeros(mu, mu));
            kcols.push(Vector::zeros(mu));
            kappas.push(Vector::zeros(mu));
        }
        RiccatiFactor {
            f_chols,
            ks,
            hs,
            ps: (0..=nstages).map(|_| Matrix::zeros(n, n)).collect(),
            ats,
            bts,
            pbs,
            fs,
            pa: Matrix::zeros(n, n),
            kcols,
            p_vecs: (0..=nstages).map(|_| Vector::zeros(n)).collect(),
            kappas,
        }
    }

    /// Factors the subproblem with barrier-modified Hessians.
    ///
    /// Convenience constructor: [`RiccatiFactor::new`] followed by
    /// [`RiccatiFactor::refactor`]. Hot loops should keep the factor around
    /// and call `refactor` instead.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NumericalFailure`] if some `F_k` is not
    /// positive definite — in practice this means a stage `R` is not PD.
    #[cfg(test)]
    pub fn factor(
        problem: &LqProblem,
        q_mods: &[Matrix],
        r_mods: &[Matrix],
        m_mods: &[Matrix],
        regularization: f64,
    ) -> Result<Self, SolverError> {
        let mut factor = Self::new(problem);
        factor.refactor(problem, q_mods, r_mods, m_mods, regularization)?;
        Ok(factor)
    }

    /// Re-runs the backward Riccati recursion into the existing workspace.
    ///
    /// `q_mods[k]` (`k = 0..=N`) are the effective state Hessians `Q̃_k`
    /// (index 0 is ignored; index `N` is the terminal), `r_mods[k]` the
    /// effective input Hessians `R̃_k`, and `m_mods[k]` the cross terms
    /// `M̃_k` (`n × m_u`).
    ///
    /// On error the stored factorization is unspecified; call `refactor`
    /// again (typically with more regularization) before solving.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NumericalFailure`] if some `F_k` is not
    /// positive definite — in practice this means a stage `R` is not PD.
    pub fn refactor(
        &mut self,
        problem: &LqProblem,
        q_mods: &[Matrix],
        r_mods: &[Matrix],
        m_mods: &[Matrix],
        regularization: f64,
    ) -> Result<(), SolverError> {
        let nstages = problem.horizon();
        debug_assert_eq!(q_mods.len(), nstages + 1);
        debug_assert_eq!(r_mods.len(), nstages);
        debug_assert_eq!(m_mods.len(), nstages);

        self.ps[nstages].copy_from(&q_mods[nstages]);
        for k in (0..nstages).rev() {
            let st = &problem.stages[k];
            let (ps_lo, ps_hi) = self.ps.split_at_mut(k + 1);
            let pnext = &ps_hi[0];
            pnext.matmul_into(&st.b, &mut self.pbs[k]); // n x mu
            pnext.matmul_into(&st.a, &mut self.pa); // n x n
            let f = &mut self.fs[k];
            f.copy_from(&r_mods[k]);
            self.bts[k].matmul_acc(1.0, &self.pbs[k], f);
            f.symmetrize();
            self.f_chols[k].refactor(f, regularization).map_err(|e| {
                SolverError::NumericalFailure(format!(
                    "stage {k}: F = R + B'PB is not positive definite ({e}); \
                         every stage needs a positive-definite input cost"
                ))
            })?;
            let h = &mut self.hs[k];
            m_mods[k].transpose_into(h); // mu x n
            self.bts[k].matmul_acc(1.0, &self.pa, h);
            // K = F⁻¹ H, column by column.
            let kcol = &mut self.kcols[k];
            for j in 0..h.cols() {
                h.col_into(j, kcol);
                self.f_chols[k].solve_in_place(kcol);
                for i in 0..h.rows() {
                    self.ks[k][(i, j)] = kcol[i];
                }
            }
            let p = &mut ps_lo[k];
            p.copy_from(&q_mods[k]);
            self.ats[k].matmul_acc(1.0, &self.pa, p);
            self.hs[k].matmul_t_acc(-1.0, &self.ks[k], p);
            p.symmetrize();
        }
        Ok(())
    }

    /// Solves the factored subproblem for gradients `(q̂, r̂)`.
    ///
    /// Allocating convenience wrapper over [`RiccatiFactor::solve_into`];
    /// production callers use `solve_into` with a reused step.
    #[cfg(test)]
    pub fn solve(
        &mut self,
        problem: &LqProblem,
        q_hats: &[Vector],
        r_hats: &[Vector],
    ) -> RiccatiStep {
        let mut step = RiccatiStep::new(problem);
        self.solve_into(problem, q_hats, r_hats, &mut step);
        step
    }

    /// Solves the factored subproblem for gradients `(q̂, r̂)` into a
    /// preallocated step, without allocating.
    ///
    /// `q_hats[k]` (`k = 0..=N`, index 0 ignored) and `r_hats[k]`
    /// (`k = 0..N-1`) are the modified stationarity residuals; see the
    /// module docs for the recursion.
    pub fn solve_into(
        &mut self,
        problem: &LqProblem,
        q_hats: &[Vector],
        r_hats: &[Vector],
        step: &mut RiccatiStep,
    ) {
        let nstages = problem.horizon();
        debug_assert_eq!(q_hats.len(), nstages + 1);
        debug_assert_eq!(r_hats.len(), nstages);

        // Backward pass for the affine terms.
        self.p_vecs[nstages].copy_from(&q_hats[nstages]);
        for k in (0..nstages).rev() {
            let (pv_lo, pv_hi) = self.p_vecs.split_at_mut(k + 1);
            let pnext = &pv_hi[0];
            let kappa = &mut self.kappas[k];
            kappa.copy_from(&r_hats[k]);
            self.bts[k].matvec_acc(1.0, pnext, kappa); // g = r̂ + Bᵀp₊
            self.f_chols[k].solve_in_place(kappa); // κ = F⁻¹g
            let p = &mut pv_lo[k];
            p.copy_from(&q_hats[k]);
            self.ats[k].matvec_acc(1.0, pnext, p);
            self.hs[k].matvec_t_acc(-1.0, kappa, p);
        }

        // Forward rollout of the increments.
        step.dxs[0].fill(0.0);
        for k in 0..nstages {
            let st = &problem.stages[k];
            let (dx_lo, dx_hi) = step.dxs.split_at_mut(k + 1);
            let dx = &dx_lo[k];
            let du = &mut step.dus[k];
            self.ks[k].matvec_into(dx, du);
            du.scale(-1.0);
            du.axpy(-1.0, &self.kappas[k]);
            let dxn = &mut dx_hi[0];
            st.a.matvec_into(dx, dxn);
            st.b.matvec_acc(1.0, du, dxn);
            let dlam = &mut step.dlams[k];
            self.ps[k + 1].matvec_into(dxn, dlam);
            dlam.axpy(1.0, &self.p_vecs[k + 1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LqStage, LqTerminal};

    /// Unconstrained LQ with Q=0: the Newton step from a dynamics-feasible
    /// iterate must land exactly on the analytic optimum.
    #[test]
    fn newton_step_solves_unconstrained_lq_exactly() {
        // min Σ_{k=0..1} [x_k + u_k²] + x_2, scalar, x0 = 0, x⁺ = x + u.
        // Flatten: x1 = u0, x2 = u0+u1.
        // J = u0² + u1² + x1 + x2 = u0² + u1² + 2 u0 + u1.
        // ∂/∂u0 = 2u0 + 2 = 0 → u0 = -1; ∂/∂u1 = 2u1 + 1 = 0 → u1 = -0.5.
        let stage = |q: f64| {
            LqStage::identity_dynamics(1)
                .with_state_cost(Vector::from(vec![q]))
                .with_input_penalty(&Vector::filled(1, 1.0))
        };
        let problem = LqProblem::new(
            Vector::zeros(1),
            vec![stage(1.0), stage(1.0)],
            LqTerminal::free(1).with_state_cost(Vector::filled(1, 1.0)),
        )
        .unwrap();

        // Hessians: Q̃ = 0, R̃ = 2 (from ½ uᵀRu with R = 2), M̃ = 0.
        let q_mods = vec![Matrix::zeros(1, 1); 3];
        let r_mods = vec![Matrix::from_diag(&Vector::from(vec![2.0])); 2];
        let m_mods = vec![Matrix::zeros(1, 1); 2];
        let mut factor = RiccatiFactor::factor(&problem, &q_mods, &r_mods, &m_mods, 0.0).unwrap();

        // Start at us = 0, xs = 0, λ = 0. Residuals:
        // r_x_1 = q_1 + A'λ_1 − λ_0 = 1 (λ=0), r_x_2 (terminal) = 1,
        // r_u_k = R u + r + B'λ = 0.
        let q_hats = vec![
            Vector::zeros(1),
            Vector::from(vec![1.0]),
            Vector::from(vec![1.0]),
        ];
        let r_hats = vec![Vector::zeros(1), Vector::zeros(1)];
        let step = factor.solve(&problem, &q_hats, &r_hats);
        assert!(
            (step.dus[0][0] + 1.0).abs() < 1e-12,
            "du0 = {}",
            step.dus[0][0]
        );
        assert!(
            (step.dus[1][0] + 0.5).abs() < 1e-12,
            "du1 = {}",
            step.dus[1][0]
        );
        assert!((step.dxs[1][0] + 1.0).abs() < 1e-12);
        assert!((step.dxs[2][0] + 1.5).abs() < 1e-12);
        // Costates: λ_k = ∂J/∂x_{k+1} along optimal tail: λ_1 = 1 (terminal),
        // λ_0 = q_1 + λ_1 = 2.
        assert!((step.dlams[1][0] - 1.0).abs() < 1e-12);
        assert!((step.dlams[0][0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn non_pd_input_cost_is_reported() {
        let stage = LqStage::identity_dynamics(1); // R = 0
        let problem = LqProblem::new(Vector::zeros(1), vec![stage], LqTerminal::free(1)).unwrap();
        let q_mods = vec![Matrix::zeros(1, 1); 2];
        let r_mods = vec![Matrix::zeros(1, 1)];
        let m_mods = vec![Matrix::zeros(1, 1)];
        let err = RiccatiFactor::factor(&problem, &q_mods, &r_mods, &m_mods, 0.0).unwrap_err();
        assert!(matches!(err, SolverError::NumericalFailure(_)));
    }

    /// Refactoring with new Hessians must agree with a fresh factorization,
    /// and a failed refactor must be recoverable by refactoring again.
    #[test]
    fn refactor_matches_fresh_factor_and_recovers_after_failure() {
        let n = 2;
        let mut stage = LqStage::identity_dynamics(n)
            .with_state_cost(Vector::from(vec![0.3, -0.2]))
            .with_input_penalty(&Vector::from(vec![1.0, 2.0]));
        stage.a = Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 0.9]]).unwrap();
        stage.b = Matrix::from_rows(&[&[1.0, 0.0], &[0.2, 1.0]]).unwrap();
        let problem = LqProblem::new(
            Vector::from(vec![0.5, -0.5]),
            vec![stage.clone(), stage],
            LqTerminal::free(n),
        )
        .unwrap();
        let nst = problem.horizon();
        let q_mods_a = vec![Matrix::identity(n); nst + 1];
        let r_mods_a: Vec<Matrix> = problem.stages.iter().map(|s| s.r_mat.clone()).collect();
        let m_mods = vec![Matrix::zeros(n, n); nst];

        let mut reused = RiccatiFactor::factor(&problem, &q_mods_a, &r_mods_a, &m_mods, 0.0)
            .expect("first factor");
        // Fail a refactor with an indefinite R (negative enough to swamp
        // BᵀPB), then recover with good data.
        let r_bad = vec![Matrix::from_diag(&Vector::from(vec![-10.0, -10.0])); nst];
        assert!(reused
            .refactor(&problem, &q_mods_a, &r_bad, &m_mods, 0.0)
            .is_err());
        let q_mods_b: Vec<Matrix> = (0..=nst)
            .map(|_| Matrix::from_diag(&Vector::filled(n, 1.5)))
            .collect();
        reused
            .refactor(&problem, &q_mods_b, &r_mods_a, &m_mods, 1e-10)
            .expect("recovery refactor");
        let mut fresh = RiccatiFactor::factor(&problem, &q_mods_b, &r_mods_a, &m_mods, 1e-10)
            .expect("fresh factor");

        let q_hats: Vec<Vector> = (0..=nst).map(|_| Vector::from(vec![1.0, -2.0])).collect();
        let r_hats: Vec<Vector> = (0..nst).map(|_| Vector::from(vec![0.3, 0.7])).collect();
        let got = reused.solve(&problem, &q_hats, &r_hats);
        let want = fresh.solve(&problem, &q_hats, &r_hats);
        for k in 0..nst {
            assert!((&got.dus[k] - &want.dus[k]).norm_inf() < 1e-12, "du {k}");
            assert!(
                (&got.dxs[k + 1] - &want.dxs[k + 1]).norm_inf() < 1e-12,
                "dx {k}"
            );
            assert!(
                (&got.dlams[k] - &want.dlams[k]).norm_inf() < 1e-12,
                "dlam {k}"
            );
        }
    }

    /// With nontrivial A, B the Newton step must satisfy the linearized
    /// stationarity equations exactly (verified by substitution).
    #[test]
    fn step_satisfies_kkt_equations() {
        let n = 2;
        let mut stage = LqStage::identity_dynamics(n)
            .with_state_cost(Vector::from(vec![0.3, -0.2]))
            .with_input_penalty(&Vector::from(vec![1.0, 2.0]));
        stage.a = Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 0.9]]).unwrap();
        stage.b = Matrix::from_rows(&[&[1.0, 0.0], &[0.2, 1.0]]).unwrap();
        let problem = LqProblem::new(
            Vector::from(vec![1.0, -1.0]),
            vec![stage.clone(), stage.clone(), stage],
            LqTerminal::free(n).with_state_cost(Vector::from(vec![0.5, 0.5])),
        )
        .unwrap();

        let nst = problem.horizon();
        let q_mods = vec![Matrix::zeros(n, n); nst + 1];
        let r_mods: Vec<Matrix> = problem.stages.iter().map(|s| s.r_mat.clone()).collect();
        let m_mods = vec![Matrix::zeros(n, n); nst];
        let mut factor = RiccatiFactor::factor(&problem, &q_mods, &r_mods, &m_mods, 0.0).unwrap();

        let q_hats: Vec<Vector> = (0..=nst)
            .map(|k| {
                if k == 0 {
                    Vector::zeros(n)
                } else if k == nst {
                    problem.terminal.q_vec.clone()
                } else {
                    problem.stages[k].q_vec.clone()
                }
            })
            .collect();
        let r_hats: Vec<Vector> = problem.stages.iter().map(|s| s.r_vec.clone()).collect();
        let step = factor.solve(&problem, &q_hats, &r_hats);

        // Verify stationarity rows: Q̃Δx + M̃Δu + q̂ + AᵀΔλ_k − Δλ_{k-1} = 0
        // for k = 1..nst-1 and the terminal row.
        for (k, q_hat) in q_hats.iter().enumerate().take(nst).skip(1) {
            let mut lhs = q_hat.clone();
            lhs.axpy(1.0, &problem.stages[k].a.matvec_t(&step.dlams[k]));
            lhs.axpy(-1.0, &step.dlams[k - 1]);
            assert!(lhs.norm_inf() < 1e-10, "x-row {k}: {lhs:?}");
        }
        let mut term = q_hats[nst].clone();
        term.axpy(-1.0, &step.dlams[nst - 1]);
        assert!(term.norm_inf() < 1e-10, "terminal row: {term:?}");
        // u rows: R̃Δu + r̂ + BᵀΔλ_k = 0.
        for k in 0..nst {
            let mut lhs = r_mods[k].matvec(&step.dus[k]);
            lhs.axpy(1.0, &r_hats[k]);
            lhs.axpy(1.0, &problem.stages[k].b.matvec_t(&step.dlams[k]));
            assert!(lhs.norm_inf() < 1e-10, "u-row {k}: {lhs:?}");
        }
        // Dynamics of increments are homogeneous.
        for k in 0..nst {
            let mut rhs = problem.stages[k].a.matvec(&step.dxs[k]);
            rhs.axpy(1.0, &problem.stages[k].b.matvec(&step.dus[k]));
            assert!((&step.dxs[k + 1] - &rhs).norm_inf() < 1e-12);
        }
        assert!(step.dxs[0].norm_inf() == 0.0);
    }
}
