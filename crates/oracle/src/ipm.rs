//! Dense Mehrotra predictor–corrector interior-point method.

use crate::ldlt::Ldlt;
use crate::qp::{QpProblem, QpSolution};
use dspp_linalg::{Cholesky, Matrix, Vector};
use dspp_solver::{IpmSettings, SolveStatus, SolverError};

/// Solves a dense convex QP with a primal–dual interior-point method.
///
/// Implements the standard Mehrotra predictor–corrector scheme
/// (Nocedal & Wright, ch. 16): infeasible start, affine scaling predictor,
/// centering+corrector step, separate primal/dual step lengths with a
/// fraction-to-boundary rule.
///
/// # Errors
///
/// * [`SolverError::InvalidProblem`] if the settings are invalid.
/// * [`SolverError::MaxIterations`] if tolerances are not reached; this is
///   the usual symptom of an infeasible problem.
/// * [`SolverError::NumericalFailure`] if iterates become non-finite or the
///   Newton system cannot be factorized even with boosted regularization.
pub fn solve_qp(problem: &QpProblem, settings: &IpmSettings) -> Result<QpSolution, SolverError> {
    settings.validate().map_err(SolverError::InvalidProblem)?;
    let n = problem.num_vars();
    let p_eq = problem.num_equalities();
    let m = problem.num_inequalities();
    if n == 0 {
        return Err(SolverError::InvalidProblem(
            "problem has no variables".into(),
        ));
    }

    // Cold start: x = 0, y = 0, s = max(h - Gx, margin), z = margin.
    let mut x = Vector::zeros(n);
    let mut y = Vector::zeros(p_eq);
    let margin = settings.init_margin;
    let mut s = if m > 0 {
        let gx = problem.g.matvec(&x);
        (&problem.h - &gx).map(|v| v.max(margin))
    } else {
        Vector::zeros(0)
    };
    let mut z = Vector::filled(m, margin);

    // If completely unconstrained, a single Newton solve finishes the job.
    if m == 0 && p_eq == 0 {
        let chol = Cholesky::factor_regularized(&problem.p, settings.regularization)?;
        let x = chol.solve(&(-&problem.q));
        let objective = problem.objective(&x);
        return Ok(QpSolution {
            x,
            y,
            z,
            s,
            objective,
            iterations: 1,
            status: SolveStatus::Optimal,
        });
    }

    let scale_q = 1.0 + problem.q.norm_inf();
    let scale_b = 1.0 + problem.b.norm_inf();
    let scale_h = 1.0 + problem.h.norm_inf();

    let mut best_gap = f64::INFINITY;
    for iter in 0..settings.max_iterations {
        // Residuals.
        let px = problem.p.matvec(&x);
        let mut r_dual = &px + &problem.q;
        if p_eq > 0 {
            r_dual += &problem.a.matvec_t(&y);
        }
        if m > 0 {
            r_dual += &problem.g.matvec_t(&z);
        }
        let r_eq = if p_eq > 0 {
            &problem.a.matvec(&x) - &problem.b
        } else {
            Vector::zeros(0)
        };
        let r_ineq = if m > 0 {
            &(&problem.g.matvec(&x) + &s) - &problem.h
        } else {
            Vector::zeros(0)
        };
        let mu = if m > 0 { s.dot(&z) / m as f64 } else { 0.0 };
        best_gap = best_gap.min(mu);

        let objective = problem.objective(&x);
        let feas_ok = r_dual.norm_inf() <= settings.tol_feasibility * scale_q
            && r_eq.norm_inf() <= settings.tol_feasibility * scale_b
            && r_ineq.norm_inf() <= settings.tol_feasibility * scale_h;
        let gap_ok = mu <= settings.tol_gap * (1.0 + objective.abs());
        if feas_ok && gap_ok {
            return Ok(QpSolution {
                x,
                y,
                z,
                s,
                objective,
                iterations: iter,
                status: SolveStatus::Optimal,
            });
        }

        // Newton matrix: P + Gᵀ(Z/S)G (+ equality augmentation).
        let w = if m > 0 {
            let mut w = Vector::zeros(m);
            for i in 0..m {
                w[i] = z[i] / s[i];
            }
            w
        } else {
            Vector::zeros(0)
        };
        let mut reduced = problem.p.clone();
        if m > 0 {
            reduced.add_scaled(1.0, &problem.g.weighted_gram(&w));
        }

        enum Factor {
            Chol(Cholesky),
            Kkt(Ldlt),
        }
        let factor = if p_eq == 0 {
            let mut reg = settings.regularization;
            let chol = loop {
                match Cholesky::factor_regularized(&reduced, reg) {
                    Ok(c) => break c,
                    Err(_) if reg < 1e-2 => reg = (reg * 100.0).max(1e-10),
                    Err(e) => {
                        return Err(SolverError::NumericalFailure(format!(
                            "newton system not factorizable: {e}"
                        )))
                    }
                }
            };
            Factor::Chol(chol)
        } else {
            let dim = n + p_eq;
            let mut kkt = Matrix::zeros(dim, dim);
            kkt.set_block(0, 0, &reduced);
            kkt.set_block(n, 0, &problem.a);
            kkt.set_block(0, n, &problem.a.transpose());
            let delta = settings.regularization.max(1e-10);
            for i in 0..n {
                kkt[(i, i)] += delta;
            }
            for i in n..dim {
                kkt[(i, i)] -= delta;
            }
            let mut reg = delta;
            let ldlt = loop {
                match Ldlt::factor(&kkt) {
                    Ok(f) => break f,
                    Err(_) if reg < 1e-2 => {
                        reg *= 100.0;
                        for i in 0..n {
                            kkt[(i, i)] += reg;
                        }
                        for i in n..dim {
                            kkt[(i, i)] -= reg;
                        }
                    }
                    Err(e) => {
                        return Err(SolverError::NumericalFailure(format!(
                            "kkt system not factorizable: {e}"
                        )))
                    }
                }
            };
            Factor::Kkt(ldlt)
        };

        // Solves the reduced Newton system for a given complementarity
        // residual r_c, returning (dx, dy, dz, ds).
        let solve_step = |r_c: &Vector| -> (Vector, Vector, Vector, Vector) {
            // rhs_x = -(r_dual + Gᵀ S⁻¹ (Z r_ineq − r_c))
            let mut rhs_x = -&r_dual;
            if m > 0 {
                let mut t = Vector::zeros(m);
                for i in 0..m {
                    t[i] = (z[i] * r_ineq[i] - r_c[i]) / s[i];
                }
                rhs_x -= &problem.g.matvec_t(&t);
            }
            let (dx, dy) = match &factor {
                Factor::Chol(c) => (c.solve(&rhs_x), Vector::zeros(0)),
                Factor::Kkt(f) => {
                    let mut rhs = Vector::zeros(n + p_eq);
                    for i in 0..n {
                        rhs[i] = rhs_x[i];
                    }
                    for i in 0..p_eq {
                        rhs[n + i] = -r_eq[i];
                    }
                    let sol = f.solve(&rhs);
                    let dx: Vector = (0..n).map(|i| sol[i]).collect();
                    let dy: Vector = (0..p_eq).map(|i| sol[n + i]).collect();
                    (dx, dy)
                }
            };
            let (ds, dz) = if m > 0 {
                let gdx = problem.g.matvec(&dx);
                let mut ds = Vector::zeros(m);
                let mut dz = Vector::zeros(m);
                for i in 0..m {
                    ds[i] = -r_ineq[i] - gdx[i];
                    dz[i] = (-r_c[i] - z[i] * ds[i]) / s[i];
                }
                (ds, dz)
            } else {
                (Vector::zeros(0), Vector::zeros(0))
            };
            (dx, dy, dz, ds)
        };

        // Predictor (affine) step: r_c = s∘z.
        let r_c_aff = s.hadamard(&z);
        let (dx_aff, dy_aff, dz_aff, ds_aff) = solve_step(&r_c_aff);
        let alpha_p_aff = max_step(&s, &ds_aff);
        let alpha_d_aff = max_step(&z, &dz_aff);
        let sigma = if m > 0 && mu > 0.0 {
            let mut mu_aff = 0.0;
            for i in 0..m {
                mu_aff += (s[i] + alpha_p_aff * ds_aff[i]) * (z[i] + alpha_d_aff * dz_aff[i]);
            }
            mu_aff /= m as f64;
            ((mu_aff / mu).max(0.0)).powi(3).min(1.0)
        } else {
            0.0
        };

        // Corrector step: r_c = s∘z + Δs_aff∘Δz_aff − σμ.
        let (dx, dy, dz, ds) = if m > 0 {
            let mut r_c = Vector::zeros(m);
            for i in 0..m {
                r_c[i] = s[i] * z[i] + ds_aff[i] * dz_aff[i] - sigma * mu;
            }
            solve_step(&r_c)
        } else {
            (dx_aff, dy_aff, dz_aff, ds_aff)
        };

        let tau = settings.step_fraction;
        let alpha_p = (tau * max_step(&s, &ds)).min(1.0);
        let alpha_d = (tau * max_step(&z, &dz)).min(1.0);

        x.axpy(alpha_p, &dx);
        if m > 0 {
            s.axpy(alpha_p, &ds);
            z.axpy(alpha_d, &dz);
        }
        if p_eq > 0 {
            y.axpy(alpha_d, &dy);
        }

        if !x.is_finite() || !s.is_finite() || !z.is_finite() || !y.is_finite() {
            return Err(SolverError::NumericalFailure(
                "iterates became non-finite".into(),
            ));
        }
        if m > 0 && (alpha_p < 1e-13 && alpha_d < 1e-13) {
            return Err(SolverError::NumericalFailure(format!(
                "step length collapsed at iteration {iter} (gap {mu:.3e}); problem is likely infeasible"
            )));
        }
    }

    // Accept a slightly degraded solution rather than failing outright.
    let objective = problem.objective(&x);
    let mu = if m > 0 { s.dot(&z) / m as f64 } else { 0.0 };
    let loose = 1e4;
    let px = problem.p.matvec(&x);
    let mut r_dual = &px + &problem.q;
    if p_eq > 0 {
        r_dual += &problem.a.matvec_t(&y);
    }
    if m > 0 {
        r_dual += &problem.g.matvec_t(&z);
    }
    let feas_ok = r_dual.norm_inf() <= loose * settings.tol_feasibility * scale_q
        && problem.max_violation(&x) <= loose * settings.tol_feasibility * scale_h.max(scale_b);
    let gap_ok = mu <= loose * settings.tol_gap * (1.0 + objective.abs());
    if feas_ok && gap_ok {
        return Ok(QpSolution {
            x,
            y,
            z,
            s,
            objective,
            iterations: settings.max_iterations,
            status: SolveStatus::AlmostOptimal,
        });
    }
    Err(SolverError::MaxIterations {
        limit: settings.max_iterations,
        gap: best_gap,
    })
}

/// Largest `alpha` in `[0, 1]` with `v + alpha*dv >= 0` (strictly, up to the
/// boundary).
fn max_step(v: &Vector, dv: &Vector) -> f64 {
    let mut alpha: f64 = 1.0;
    for i in 0..v.len() {
        if dv[i] < 0.0 {
            alpha = alpha.min(-v[i] / dv[i]);
        }
    }
    alpha
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn settings() -> IpmSettings {
        IpmSettings::default()
    }

    #[test]
    fn unconstrained_quadratic() {
        // min (x-3)² → x = 3.
        let p = Matrix::from_diag(&Vector::from(vec![2.0]));
        let q = Vector::from(vec![-6.0]);
        let qp = QpProblem::new(p, q).unwrap();
        let sol = solve_qp(&qp, &settings()).unwrap();
        assert!((sol.x[0] - 3.0).abs() < 1e-6);
        assert_eq!(sol.status, SolveStatus::Optimal);
    }

    #[test]
    fn active_inequality_constraint() {
        // min (x-3)² s.t. x ≤ 1 → x = 1, z = |gradient| = 4.
        let p = Matrix::from_diag(&Vector::from(vec![2.0]));
        let q = Vector::from(vec![-6.0]);
        let g = Matrix::from_rows(&[&[1.0]]).unwrap();
        let h = Vector::from(vec![1.0]);
        let qp = QpProblem::new(p, q)
            .unwrap()
            .with_inequalities(g, h)
            .unwrap();
        let sol = solve_qp(&qp, &settings()).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-6, "x = {}", sol.x[0]);
        assert!((sol.z[0] - 4.0).abs() < 1e-5, "z = {}", sol.z[0]);
    }

    #[test]
    fn inactive_inequality_constraint_has_zero_dual() {
        // min (x-3)² s.t. x ≤ 10 → interior optimum.
        let p = Matrix::from_diag(&Vector::from(vec![2.0]));
        let q = Vector::from(vec![-6.0]);
        let g = Matrix::from_rows(&[&[1.0]]).unwrap();
        let h = Vector::from(vec![10.0]);
        let qp = QpProblem::new(p, q)
            .unwrap()
            .with_inequalities(g, h)
            .unwrap();
        let sol = solve_qp(&qp, &settings()).unwrap();
        assert!((sol.x[0] - 3.0).abs() < 1e-6);
        assert!(sol.z[0] < 1e-5);
    }

    #[test]
    fn equality_constrained_projection() {
        // min ½‖x‖² s.t. x₀ + x₁ = 2 → x = (1, 1), y = -1.
        let qp = QpProblem::new(Matrix::identity(2), Vector::zeros(2))
            .unwrap()
            .with_equalities(
                Matrix::from_rows(&[&[1.0, 1.0]]).unwrap(),
                Vector::from(vec![2.0]),
            )
            .unwrap();
        let sol = solve_qp(&qp, &settings()).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-6);
        assert!((sol.x[1] - 1.0).abs() < 1e-6);
        // Stationarity: x + Aᵀy = 0 → y = -1.
        assert!((sol.y[0] + 1.0).abs() < 1e-5);
    }

    #[test]
    fn mixed_constraints() {
        // min ½‖x‖² - x₀ s.t. x₀ + x₁ = 1, x₁ ≤ 0.2.
        let qp = QpProblem::new(Matrix::identity(2), Vector::from(vec![-1.0, 0.0]))
            .unwrap()
            .with_equalities(
                Matrix::from_rows(&[&[1.0, 1.0]]).unwrap(),
                Vector::from(vec![1.0]),
            )
            .unwrap()
            .with_inequalities(
                Matrix::from_rows(&[&[0.0, 1.0]]).unwrap(),
                Vector::from(vec![0.2]),
            )
            .unwrap();
        let sol = solve_qp(&qp, &settings()).unwrap();
        // Without the inequality: x = (1, 0); inequality is slack there, so
        // the optimum is x = (1, 0).
        assert!((sol.x[0] - 1.0).abs() < 1e-5, "x0 = {}", sol.x[0]);
        assert!(sol.x[1].abs() < 1e-5, "x1 = {}", sol.x[1]);
        assert!(qp.max_violation(&sol.x) < 1e-7);
    }

    #[test]
    fn nonnegativity_box_lp_like() {
        // min qᵀx s.t. -x ≤ 0, 1ᵀx... pure LP-ish: P=εI to stay convex.
        // min x₀ + 2x₁ s.t. x₀ + x₁ ≥ 1, x ≥ 0 → x = (1, 0).
        let mut p = Matrix::zeros(2, 2);
        p.add_diag(1e-6);
        let qp = QpProblem::new(p, Vector::from(vec![1.0, 2.0]))
            .unwrap()
            .with_inequalities(
                Matrix::from_rows(&[&[-1.0, -1.0], &[-1.0, 0.0], &[0.0, -1.0]]).unwrap(),
                Vector::from(vec![-1.0, 0.0, 0.0]),
            )
            .unwrap();
        let sol = solve_qp(&qp, &settings()).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-4, "x = {:?}", sol.x);
        assert!(sol.x[1].abs() < 1e-4);
    }

    #[test]
    fn infeasible_problem_errors() {
        // x ≤ 0 and -x ≤ -1 (x ≥ 1) cannot both hold.
        let qp = QpProblem::new(Matrix::identity(1), Vector::zeros(1))
            .unwrap()
            .with_inequalities(
                Matrix::from_rows(&[&[1.0], &[-1.0]]).unwrap(),
                Vector::from(vec![0.0, -1.0]),
            )
            .unwrap();
        let err = solve_qp(&qp, &settings()).unwrap_err();
        assert!(
            matches!(
                err,
                SolverError::MaxIterations { .. } | SolverError::NumericalFailure(_)
            ),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn invalid_settings_rejected() {
        let qp = QpProblem::new(Matrix::identity(1), Vector::zeros(1)).unwrap();
        let mut s = settings();
        s.max_iterations = 0;
        assert!(matches!(
            solve_qp(&qp, &s),
            Err(SolverError::InvalidProblem(_))
        ));
    }

    #[test]
    fn empty_problem_rejected() {
        let qp = QpProblem::new(Matrix::zeros(0, 0), Vector::zeros(0)).unwrap();
        assert!(solve_qp(&qp, &settings()).is_err());
    }

    #[test]
    fn duals_satisfy_kkt_stationarity() {
        // Random-ish QP; verify P x + q + Gᵀz ≈ 0 at the solution.
        let p = Matrix::from_rows(&[&[3.0, 0.5], &[0.5, 2.0]]).unwrap();
        let q = Vector::from(vec![-4.0, 1.0]);
        let g = Matrix::from_rows(&[&[1.0, 1.0], &[-1.0, 2.0]]).unwrap();
        let h = Vector::from(vec![0.5, 1.0]);
        let qp = QpProblem::new(p.clone(), q.clone())
            .unwrap()
            .with_inequalities(g.clone(), h)
            .unwrap();
        let sol = solve_qp(&qp, &settings()).unwrap();
        let grad = &(&p.matvec(&sol.x) + &q) + &g.matvec_t(&sol.z);
        assert!(grad.norm_inf() < 1e-5, "stationarity residual {grad}");
        assert!(sol.z.min() >= -1e-9);
        assert!(sol.s.min() >= -1e-9);
        // Complementarity.
        assert!(sol.z.hadamard(&sol.s).norm_inf() < 1e-5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_projection_onto_halfspace(
            c0 in -5.0f64..5.0,
            c1 in -5.0f64..5.0,
            a0 in 0.2f64..2.0,
            a1 in 0.2f64..2.0,
            rhs in -3.0f64..3.0,
        ) {
            // min ½‖x − c‖² s.t. aᵀx ≤ rhs. Analytic projection available.
            let p = Matrix::identity(2);
            let q = Vector::from(vec![-c0, -c1]);
            let g = Matrix::from_rows(&[&[a0, a1]]).unwrap();
            let h = Vector::from(vec![rhs]);
            let qp = QpProblem::new(p, q).unwrap().with_inequalities(g, h).unwrap();
            let sol = solve_qp(&qp, &IpmSettings::default()).unwrap();
            let viol = a0 * c0 + a1 * c1 - rhs;
            let expect = if viol <= 0.0 {
                (c0, c1)
            } else {
                let t = viol / (a0 * a0 + a1 * a1);
                (c0 - t * a0, c1 - t * a1)
            };
            prop_assert!((sol.x[0] - expect.0).abs() < 1e-5);
            prop_assert!((sol.x[1] - expect.1).abs() < 1e-5);
        }
    }
}
