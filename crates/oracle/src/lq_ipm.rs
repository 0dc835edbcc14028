//! Interior-point outer loop for stage-structured LQ problems.

use crate::dense::MatrixOps;
use crate::riccati::{RiccatiFactor, RiccatiStep};
use crate::{LqProblem, INIT_MARGIN, REGULARIZATION, STEP_FRACTION};
use dspp_linalg::{Matrix, Vector};
use dspp_solver::{IpmSettings, LqSolution, SolveStatus, SolverError};

/// Solves a stage-structured LQ problem with a primal–dual interior-point
/// method whose Newton steps are computed by a Riccati recursion.
///
/// This is the general-purpose LQ solver: any dynamics, any stage
/// constraints. Per-iteration work is linear in the horizon length but
/// cubic in the state dimension. DSPP horizons are solved in production by
/// the structure-exploiting path
/// ([`solve_structured`](dspp_solver::solve_structured)); this solver is
/// the independent oracle the test suites and the solver-scaling sweep
/// cross-check it against, on the dense expansion [`expand`](crate::expand).
/// It always starts cold.
///
/// The returned [`LqSolution`] carries the inequality multipliers per
/// stage.
///
/// # Errors
///
/// * [`SolverError::InvalidProblem`] for invalid settings.
/// * [`SolverError::Infeasible`] when the exit classifier certifies primal
///   infeasibility (e.g. demand exceeding total data-center capacity): a
///   constraint row stayed violated while its multipliers diverged.
/// * [`SolverError::MaxIterations`] when tolerances are not met within the
///   iteration budget on an apparently feasible problem.
/// * [`SolverError::NumericalFailure`] for non-PD stage input costs or
///   non-finite iterates.
///
/// # Examples
///
/// ```
/// use dspp_linalg::{Matrix, Vector};
/// use dspp_oracle::{solve_lq, LqProblem, LqStage, LqTerminal};
/// use dspp_solver::IpmSettings;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // One server pool: track a demand floor of 5 servers with reconfiguration
/// // penalty; start from 0 servers. Stage-k constraints apply to x_k, and
/// // x_0 is fixed, so the floor starts at stage 1.
/// let floor = Matrix::from_rows(&[&[-1.0]])?; // -x ≤ -5  ⇔  x ≥ 5
/// let first = LqStage::identity_dynamics(1)
///     .with_state_cost(Vector::from(vec![1.0]))
///     .with_input_penalty(&Vector::from(vec![0.1]));
/// let stage = first.clone()
///     .with_constraints(floor.clone(), Matrix::zeros(1, 1), Vector::from(vec![-5.0]));
/// let problem = LqProblem::new(
///     Vector::zeros(1),
///     vec![first, stage.clone(), stage],
///     LqTerminal::free(1).with_constraints(floor, Vector::from(vec![-5.0])),
/// )?;
/// let sol = solve_lq(&problem, &IpmSettings::default())?;
/// // Stage-1 onward states must sit at (or above) the floor.
/// assert!(sol.xs[1][0] >= 5.0 - 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn solve_lq(problem: &LqProblem, settings: &IpmSettings) -> Result<LqSolution, SolverError> {
    solve_lq_inner(problem, settings, None)
}

/// `strict_objective(us, objective)` is the strict objective of a recovery
/// relaxation's iterate, the relaxed objective less the slack penalty.
pub(crate) type StrictObjective<'a> = &'a dyn Fn(&[Vector], f64) -> f64;

/// [`solve_lq`], or with `strict_objective` the recovery relaxation's
/// solve: its duality-gap test is scaled by the strict objective, as on
/// the structured path, and an exit short of that gap returns the
/// fallback described at its test.
pub(crate) fn solve_lq_inner(
    problem: &LqProblem,
    settings: &IpmSettings,
    strict_objective: Option<StrictObjective<'_>>,
) -> Result<LqSolution, SolverError> {
    settings.validate().map_err(SolverError::InvalidProblem)?;
    let nstages = problem.horizon();
    let n = problem.state_dim();

    // Iterates: inputs, states (always exactly dynamics-feasible), costates,
    // and per-stage slack/dual pairs.
    let mut us: Vec<Vector> = problem
        .stages
        .iter()
        .map(|st| Vector::zeros(st.input_dim()))
        .collect();
    let mut xs = problem.rollout(&us);
    let mut lams: Vec<Vector> = vec![Vector::zeros(n); nstages];

    // Constraint layout per "slot" k = 0..=nstages: stage k for k < nstages,
    // terminal at k = nstages.
    let mcs: Vec<usize> = (0..=nstages)
        .map(|k| {
            if k < nstages {
                problem.stages[k].num_constraints()
            } else {
                problem.terminal.d.len()
            }
        })
        .collect();
    let m_total: usize = mcs.iter().sum();

    let mut ss: Vec<Vector> = Vec::with_capacity(nstages + 1);
    let mut zs: Vec<Vector> = Vec::with_capacity(nstages + 1);
    for k in 0..=nstages {
        if mcs[k] == 0 {
            ss.push(Vector::zeros(0));
            zs.push(Vector::zeros(0));
            continue;
        }
        let lhs = if k < nstages {
            let st = &problem.stages[k];
            &st.cx.matvec(&xs[k]) + &st.cu.matvec(&us[k])
        } else {
            problem.terminal.cx.matvec(&xs[nstages])
        };
        let d = if k < nstages {
            &problem.stages[k].d
        } else {
            &problem.terminal.d
        };
        ss.push((d - &lhs).map(|v| v.max(INIT_MARGIN)));
        zs.push(Vector::filled(mcs[k], INIT_MARGIN));
    }

    // Problem scale for the stopping test.
    let mut scale: f64 = 1.0;
    for st in &problem.stages {
        scale = scale
            .max(st.q_vec.norm_inf())
            .max(st.r_vec.norm_inf())
            .max(st.d.norm_inf());
    }
    scale = scale
        .max(problem.terminal.q_vec.norm_inf())
        .max(problem.terminal.d.norm_inf());

    let mut best_gap = f64::INFINITY;
    // Exit-classifier trackers: the least-violated iterate seen (slot, row,
    // violation) and the latest dual magnitude. If even the *best* iterate
    // leaves a constraint row violated while the multipliers diverge, the
    // problem is primal infeasible (Farkas-style certificate) rather than
    // slow to converge.
    let mut best_violation = (0usize, 0usize, f64::INFINITY, f64::INFINITY);
    let mut z_max = 0.0f64;
    // Regularization is adaptive: a failed Riccati factorization (the
    // barrier Hessian went ill-conditioned near the boundary) boosts it for
    // the rest of the solve instead of aborting. The ceiling is deliberately
    // enormous (inertia-correction style): with barrier weights of 1e16 the
    // backward recursion's subtraction can leave an indefinite P whose
    // negative pivots are far beyond any "small" shift, and a heavily damped
    // step that keeps the iteration alive beats aborting a solve whose
    // primal iterate is already feasible.
    let mut reg = REGULARIZATION;
    let max_reg = REGULARIZATION * 1e20;

    // ------- preallocated workspace, reused every iteration -------
    // Everything the loop body writes lives here (or in the iterates above),
    // so steady-state iterations are allocation-free.
    let slot_vecs = || -> Vec<Vector> { mcs.iter().map(|&m| Vector::zeros(m)).collect() };
    let input_vecs = || -> Vec<Vector> {
        problem
            .stages
            .iter()
            .map(|st| Vector::zeros(st.input_dim()))
            .collect()
    };
    let mut cons = slot_vecs(); // constraint-row scratch (lhs / CΔ products)
    let mut r_ineqs = slot_vecs();
    let mut r_xs: Vec<Vector> = vec![Vector::zeros(n); nstages + 1];
    let mut r_us = input_vecs();
    let mut ws = slot_vecs(); // barrier weights z/s
    let mut ts = slot_vecs();
    let mut r_cs = slot_vecs();
    let mut q_mods: Vec<Matrix> = vec![Matrix::zeros(n, n); nstages + 1];
    let mut r_mods: Vec<Matrix> = problem
        .stages
        .iter()
        .map(|st| Matrix::zeros(st.input_dim(), st.input_dim()))
        .collect();
    let mut m_mods: Vec<Matrix> = problem
        .stages
        .iter()
        .map(|st| Matrix::zeros(n, st.input_dim()))
        .collect();
    let mut q_hats: Vec<Vector> = vec![Vector::zeros(n); nstages + 1];
    let mut r_hats = input_vecs();
    let mut factor = RiccatiFactor::new(problem);
    let mut step_aff = RiccatiStep::new(problem);
    let mut step = RiccatiStep::new(problem);
    let mut dss_aff = slot_vecs();
    let mut dzs_aff = slot_vecs();
    let mut dss = slot_vecs();
    let mut dzs = slot_vecs();
    let mut fallback: Option<(f64, LqSolution)> = None;

    for iter in 0..settings.max_iterations {
        // ------- residuals -------
        // r_ineq per slot.
        for k in 0..=nstages {
            if mcs[k] == 0 {
                continue;
            }
            let r = &mut r_ineqs[k];
            let d = if k < nstages {
                let st = &problem.stages[k];
                st.cx.matvec_into(&xs[k], r);
                st.cu.matvec_acc(1.0, &us[k], r);
                &st.d
            } else {
                problem.terminal.cx.matvec_into(&xs[nstages], r);
                &problem.terminal.d
            };
            for i in 0..mcs[k] {
                r[i] += ss[k][i] - d[i];
            }
        }
        // Stationarity residuals.
        for k in 1..nstages {
            let st = &problem.stages[k];
            let r = &mut r_xs[k];
            st.q_mat.matvec_into(&xs[k], r);
            r.axpy(1.0, &st.q_vec);
            if mcs[k] > 0 {
                st.cx.matvec_t_acc(1.0, &zs[k], r);
            }
            st.a.matvec_t_acc(1.0, &lams[k], r);
            r.axpy(-1.0, &lams[k - 1]);
        }
        {
            let r = &mut r_xs[nstages];
            problem.terminal.q_mat.matvec_into(&xs[nstages], r);
            r.axpy(1.0, &problem.terminal.q_vec);
            if mcs[nstages] > 0 {
                problem.terminal.cx.matvec_t_acc(1.0, &zs[nstages], r);
            }
            r.axpy(-1.0, &lams[nstages - 1]);
        }
        for k in 0..nstages {
            let st = &problem.stages[k];
            let r = &mut r_us[k];
            st.r_mat.matvec_into(&us[k], r);
            r.axpy(1.0, &st.r_vec);
            if mcs[k] > 0 {
                st.cu.matvec_t_acc(1.0, &zs[k], r);
            }
            st.b.matvec_t_acc(1.0, &lams[k], r);
        }

        let mut gap = 0.0;
        for k in 0..=nstages {
            gap += ss[k].dot(&zs[k]);
        }
        let mu = if m_total > 0 {
            gap / m_total as f64
        } else {
            0.0
        };
        best_gap = best_gap.min(mu);

        let mut stat_norm: f64 = 0.0;
        for r in r_xs.iter().skip(1) {
            stat_norm = stat_norm.max(r.norm_inf());
        }
        for r in &r_us {
            stat_norm = stat_norm.max(r.norm_inf());
        }
        let mut ineq_norm: f64 = 0.0;
        for r in &r_ineqs {
            ineq_norm = ineq_norm.max(r.norm_inf());
        }
        let wr = worst_violation_row(problem, &xs, &us, &mut cons);
        if wr.3 < best_violation.3 {
            best_violation = wr;
        }
        z_max = z_max.max(zs.iter().map(Vector::norm_inf).fold(0.0f64, f64::max));
        let objective = problem.objective(&xs, &us);
        let feas_ok = stat_norm <= settings.tol_feasibility * scale
            && ineq_norm <= settings.tol_feasibility * scale;
        let gap_objective = strict_objective.map_or(objective, |strict| strict(&us, objective));
        let gap_ok = mu <= settings.tol_gap * (1.0 + gap_objective.abs());
        if feas_ok && gap_ok {
            return Ok(LqSolution {
                xs,
                us,
                stage_duals: zs,
                objective,
                iterations: iter,
                status: SolveStatus::Optimal,
            });
        }
        // The relaxation keeps a fallback: the first iterate that passes
        // the feasibility tests and the gap scaled by the relaxed
        // objective, replaced by every later primal-feasible iterate of
        // smaller μ whose stationarity passes the loosened (1e4×) test.
        // Once a softened row's barrier weight passes ~1e8, the Riccati
        // step cancels in the slack block (`w − w²/(2ε + w + w′)`), so
        // the regularized late iterates settle the primal answer while
        // their stationarity drifts. An exit short of the strict gap
        // returns the fallback.
        let stationary = if fallback.is_some() {
            stat_norm <= 1e4 * settings.tol_feasibility * scale
        } else {
            stat_norm <= settings.tol_feasibility * scale
        };
        if strict_objective.is_some()
            && stationary
            && ineq_norm <= settings.tol_feasibility * scale
            && mu <= settings.tol_gap * (1.0 + objective.abs())
            && fallback.as_ref().is_none_or(|(saved_mu, _)| mu < *saved_mu)
        {
            fallback = Some((
                mu,
                LqSolution {
                    xs: xs.clone(),
                    us: us.clone(),
                    stage_duals: zs.clone(),
                    objective,
                    iterations: iter,
                    status: SolveStatus::Optimal,
                },
            ));
        }

        // ------- barrier-modified Hessians and factorization -------
        for k in 0..=nstages {
            for i in 0..mcs[k] {
                ws[k][i] = zs[k][i] / ss[k][i];
            }
        }
        // q_mods[0] stays zero: x_0 is fixed, its Hessian never enters the
        // step. Constraint-free stages keep their zero m_mods likewise.
        for k in 1..=nstages {
            let (q_mat, cx) = if k < nstages {
                (&problem.stages[k].q_mat, &problem.stages[k].cx)
            } else {
                (&problem.terminal.q_mat, &problem.terminal.cx)
            };
            let q = &mut q_mods[k];
            q.copy_from(q_mat);
            if mcs[k] > 0 {
                cx.weighted_gram_acc(&ws[k], q);
            }
        }
        for k in 0..nstages {
            let st = &problem.stages[k];
            let r = &mut r_mods[k];
            r.copy_from(&st.r_mat);
            if mcs[k] > 0 {
                st.cu.weighted_gram_acc(&ws[k], r);
                st.cx.weighted_product_into(&ws[k], &st.cu, &mut m_mods[k]);
            }
        }
        loop {
            match factor.refactor(problem, &q_mods, &r_mods, &m_mods, reg) {
                Ok(()) => break,
                Err(_) if reg < max_reg => reg = (reg * 100.0).max(1e-12),
                Err(e) => {
                    if let Some(sol) = fallback_exit(&mut fallback, iter) {
                        return Ok(sol);
                    }
                    // Even the fully boosted regularization cannot factor
                    // the barrier Hessian. On a degenerate optimal face
                    // (e.g. a capacity row pinned against non-negativity)
                    // the primal iterate converges while the non-unique
                    // multipliers diverge until the barrier weights
                    // overflow — accept the converged primal rather than
                    // fail. Otherwise, multipliers diverging against a
                    // never-satisfied constraint row are the
                    // infeasibility exit, not a numerical one.
                    if let Some(sol) =
                        accept_degraded(problem, settings, scale, &xs, &us, &ss, &zs, iter)
                    {
                        return Ok(sol);
                    }
                    if let Some(err) = classify_infeasibility(best_violation, settings, true) {
                        return Err(err);
                    }
                    return Err(e);
                }
            }
        }

        // ------- predictor -------
        for k in 0..=nstages {
            ss[k].hadamard_into(&zs[k], &mut r_cs[k]);
        }
        newton_step(
            problem,
            &mcs,
            &ss,
            &zs,
            &r_ineqs,
            &r_xs,
            &r_us,
            &r_cs,
            &mut factor,
            &mut ts,
            &mut q_hats,
            &mut r_hats,
            &mut cons,
            &mut step_aff,
            &mut dss_aff,
            &mut dzs_aff,
        );
        let alpha_p_aff = max_step_multi(&ss, &dss_aff);
        let alpha_d_aff = max_step_multi(&zs, &dzs_aff);
        let sigma = if m_total > 0 && mu > 0.0 {
            let mut mu_aff = 0.0;
            for k in 0..=nstages {
                for i in 0..mcs[k] {
                    mu_aff += (ss[k][i] + alpha_p_aff * dss_aff[k][i])
                        * (zs[k][i] + alpha_d_aff * dzs_aff[k][i]);
                }
            }
            mu_aff /= m_total as f64;
            ((mu_aff / mu).max(0.0)).powi(3).min(1.0)
        } else {
            0.0
        };

        // ------- corrector -------
        let use_corrector = m_total > 0;
        if use_corrector {
            for k in 0..=nstages {
                for i in 0..mcs[k] {
                    r_cs[k][i] = ss[k][i] * zs[k][i] + dss_aff[k][i] * dzs_aff[k][i] - sigma * mu;
                }
            }
            newton_step(
                problem,
                &mcs,
                &ss,
                &zs,
                &r_ineqs,
                &r_xs,
                &r_us,
                &r_cs,
                &mut factor,
                &mut ts,
                &mut q_hats,
                &mut r_hats,
                &mut cons,
                &mut step,
                &mut dss,
                &mut dzs,
            );
        }
        let (fstep, fdss, fdzs) = if use_corrector {
            (&step, &dss, &dzs)
        } else {
            (&step_aff, &dss_aff, &dzs_aff)
        };

        let alpha_p = (STEP_FRACTION * max_step_multi(&ss, fdss)).min(1.0);
        let alpha_d = (STEP_FRACTION * max_step_multi(&zs, fdzs)).min(1.0);

        for k in 0..=nstages {
            xs[k].axpy(alpha_p, &fstep.dxs[k]);
            ss[k].axpy(alpha_p, &fdss[k]);
            zs[k].axpy(alpha_d, &fdzs[k]);
            if k < nstages {
                us[k].axpy(alpha_p, &fstep.dus[k]);
                lams[k].axpy(alpha_d, &fstep.dlams[k]);
            }
        }

        let finite = xs.iter().all(Vector::is_finite)
            && us.iter().all(Vector::is_finite)
            && ss.iter().all(Vector::is_finite)
            && zs.iter().all(Vector::is_finite)
            && lams.iter().all(Vector::is_finite);
        if !finite {
            if let Some(sol) = fallback_exit(&mut fallback, iter) {
                return Ok(sol);
            }
            // Diverging to non-finite values while a constraint row was
            // never satisfiable is an infeasibility exit, not a numerical
            // accident; classify from the pre-divergence trackers.
            if let Some(err) = classify_infeasibility(best_violation, settings, true) {
                return Err(err);
            }
            return Err(SolverError::NumericalFailure(
                "iterates became non-finite".into(),
            ));
        }
        if m_total > 0 && alpha_p < 1e-13 && alpha_d < 1e-13 {
            if let Some(sol) = fallback_exit(&mut fallback, iter) {
                return Ok(sol);
            }
            // A collapsed step on an already-converged primal iterate is
            // the same degenerate-multiplier breakdown as a failed
            // factorization: take the loose acceptance.
            if let Some(sol) = accept_degraded(problem, settings, scale, &xs, &us, &ss, &zs, iter) {
                return Ok(sol);
            }
            // A collapsed step with a constraint row still violated is the
            // classic primal-infeasibility exit; classify it as such
            // instead of reporting an opaque numerical failure.
            if let Some(err) = classify_infeasibility(best_violation, settings, true) {
                return Err(err);
            }
            return Err(SolverError::NumericalFailure(format!(
                "step length collapsed at iteration {iter} (gap {mu:.3e}); problem is likely infeasible"
            )));
        }
    }

    if let Some(sol) = fallback_exit(&mut fallback, settings.max_iterations) {
        return Ok(sol);
    }
    // Degraded acceptance, mirroring the dense solver.
    let objective = problem.objective(&xs, &us);
    let mut gap = 0.0;
    for k in 0..=nstages {
        gap += ss[k].dot(&zs[k]);
    }
    let mu = if m_total > 0 {
        gap / m_total as f64
    } else {
        0.0
    };
    let loose = 1e4;
    let violation = problem.max_violation(&xs, &us);
    if violation <= loose * settings.tol_feasibility * scale
        && mu <= loose * settings.tol_gap * (1.0 + objective.abs())
    {
        return Ok(LqSolution {
            xs,
            us,
            stage_duals: zs,
            objective,
            iterations: settings.max_iterations,
            status: SolveStatus::AlmostOptimal,
        });
    }
    // Exit classifier: iteration exhaustion on a *feasible* problem leaves
    // the iterates primal-feasible (to loose tolerance) with bounded duals;
    // on an infeasible one a constraint row stays violated while its
    // multipliers diverge — a Farkas-style certificate.
    if let Some(err) = classify_infeasibility(best_violation, settings, z_max > 1e6) {
        return Err(err);
    }
    Err(SolverError::MaxIterations {
        limit: settings.max_iterations,
        gap: best_gap,
    })
}

/// The saved fallback of a solve that stops short of its measured gap,
/// reporting the iterations spent.
fn fallback_exit(
    fallback: &mut Option<(f64, LqSolution)>,
    iterations: usize,
) -> Option<LqSolution> {
    fallback.take().map(|(_, saved)| LqSolution {
        iterations,
        ..saved
    })
}

/// Loose-tolerance acceptance shared by the breakdown exits (failed
/// barrier factorization, collapsed step length): when the *primal*
/// iterate already satisfies the same `1e4×`-loosened feasibility and
/// gap tests the iteration-exhaustion path applies, the solve is done —
/// only the multipliers, non-unique on a degenerate active set (e.g. a
/// zero-capacity row pinned against non-negativity under an outage
/// schedule), kept iterating. Returns the iterate as
/// [`SolveStatus::AlmostOptimal`], or `None` when the iterate genuinely
/// has not converged.
#[allow(clippy::too_many_arguments)]
fn accept_degraded(
    problem: &LqProblem,
    settings: &IpmSettings,
    scale: f64,
    xs: &[Vector],
    us: &[Vector],
    ss: &[Vector],
    zs: &[Vector],
    iterations: usize,
) -> Option<LqSolution> {
    let objective = problem.objective(xs, us);
    let mut gap = 0.0;
    let mut m_total = 0usize;
    for (s, z) in ss.iter().zip(zs) {
        gap += s.dot(z);
        m_total += s.len();
    }
    let mu = if m_total > 0 {
        gap / m_total as f64
    } else {
        0.0
    };
    let loose = 1e4;
    let violation = problem.max_violation(xs, us);
    // The gap test is relative to the problem's scale as well as the
    // objective: breakdowns near a tiny optimal value (a relaxation whose
    // slacks are almost free) would otherwise fail an objective-relative
    // test they pass by any absolute measure.
    if violation <= loose * settings.tol_feasibility * scale
        && mu <= loose * settings.tol_gap * (1.0 + objective.abs()).max(scale)
    {
        Some(LqSolution {
            xs: xs.to_vec(),
            us: us.to_vec(),
            stage_duals: zs.to_vec(),
            objective,
            iterations,
            status: SolveStatus::AlmostOptimal,
        })
    } else {
        None
    }
}

/// Builds the modified gradients for a given complementarity residual
/// `r_cs` and solves the Newton system into preallocated outputs
/// (`step`, `dss`, `dzs`); `ts`, `q_hats`, `r_hats`, and `cons` are
/// per-slot scratch, so the call allocates nothing.
#[allow(clippy::too_many_arguments)]
fn newton_step(
    problem: &LqProblem,
    mcs: &[usize],
    ss: &[Vector],
    zs: &[Vector],
    r_ineqs: &[Vector],
    r_xs: &[Vector],
    r_us: &[Vector],
    r_cs: &[Vector],
    factor: &mut RiccatiFactor,
    ts: &mut [Vector],
    q_hats: &mut [Vector],
    r_hats: &mut [Vector],
    cons: &mut [Vector],
    step: &mut RiccatiStep,
    dss: &mut [Vector],
    dzs: &mut [Vector],
) {
    let nstages = problem.horizon();
    // t_k = S⁻¹(Z r_ineq − r_c) per slot.
    for k in 0..=nstages {
        for i in 0..mcs[k] {
            ts[k][i] = (zs[k][i] * r_ineqs[k][i] - r_cs[k][i]) / ss[k][i];
        }
    }
    // q_hats[0] stays zero (x_0 fixed).
    for k in 1..=nstages {
        let cx = if k < nstages {
            &problem.stages[k].cx
        } else {
            &problem.terminal.cx
        };
        let qh = &mut q_hats[k];
        qh.copy_from(&r_xs[k]);
        if mcs[k] > 0 {
            cx.matvec_t_acc(1.0, &ts[k], qh);
        }
    }
    for k in 0..nstages {
        let rh = &mut r_hats[k];
        rh.copy_from(&r_us[k]);
        if mcs[k] > 0 {
            problem.stages[k].cu.matvec_t_acc(1.0, &ts[k], rh);
        }
    }
    factor.solve_into(problem, q_hats, r_hats, step);
    // Recover Δs, Δz per slot.
    for k in 0..=nstages {
        if mcs[k] == 0 {
            continue;
        }
        let cdx = &mut cons[k];
        if k < nstages {
            let st = &problem.stages[k];
            st.cx.matvec_into(&step.dxs[k], cdx);
            st.cu.matvec_acc(1.0, &step.dus[k], cdx);
        } else {
            problem.terminal.cx.matvec_into(&step.dxs[nstages], cdx);
        }
        for i in 0..mcs[k] {
            dss[k][i] = -r_ineqs[k][i] - cdx[i];
            dzs[k][i] = (-r_cs[k][i] - zs[k][i] * dss[k][i]) / ss[k][i];
        }
    }
}

/// Farkas-style exit classification for the divergence, step-collapse,
/// and iteration-exhaustion exits: `best_violation` is the least-violated
/// iterate's worst row `(slot, row, violation, relative violation)`. If
/// even that iterate left a row violated beyond the loose feasibility
/// tolerance relative to the row's own right-hand side while the iterates
/// `diverged`, the problem is certified infeasible at that row.
fn classify_infeasibility(
    best_violation: (usize, usize, f64, f64),
    settings: &IpmSettings,
    diverged: bool,
) -> Option<SolverError> {
    let loose = 1e4;
    let (period, constraint, shortfall, relative) = best_violation;
    if !diverged || !relative.is_finite() || relative <= loose * settings.tol_feasibility {
        return None;
    }
    Some(SolverError::Infeasible {
        period,
        constraint,
        shortfall,
    })
}

/// Largest `α ≤ 1` keeping every `v + α·dv` non-negative.
fn max_step_multi(vs: &[Vector], dvs: &[Vector]) -> f64 {
    let mut alpha: f64 = 1.0;
    for (v, dv) in vs.iter().zip(dvs) {
        for i in 0..v.len() {
            if dv[i] < 0.0 {
                alpha = alpha.min(-v[i] / dv[i]);
            }
        }
    }
    alpha
}

/// Locates the most-violated constraint row along the trajectory, measured
/// relative to each row's right-hand side; returns
/// `(slot, row, violation, violation / (1 + |d_row|))` with the terminal
/// slot reported as the horizon length. `cons` is per-slot scratch for the
/// constraint left-hand sides.
fn worst_violation_row(
    problem: &LqProblem,
    xs: &[Vector],
    us: &[Vector],
    cons: &mut [Vector],
) -> (usize, usize, f64, f64) {
    let mut worst = (0usize, 0usize, 0.0f64, 0.0f64);
    for (k, st) in problem.stages.iter().enumerate() {
        if st.num_constraints() == 0 {
            continue;
        }
        let lhs = &mut cons[k];
        st.cx.matvec_into(&xs[k], lhs);
        st.cu.matvec_acc(1.0, &us[k], lhs);
        for i in 0..st.d.len() {
            let viol = lhs[i] - st.d[i];
            let rel = viol / (1.0 + st.d[i].abs());
            if rel > worst.3 {
                worst = (k, i, viol, rel);
            }
        }
    }
    if !problem.terminal.d.is_empty() {
        let lhs = &mut cons[problem.horizon()];
        problem.terminal.cx.matvec_into(&xs[problem.horizon()], lhs);
        for i in 0..problem.terminal.d.len() {
            let viol = lhs[i] - problem.terminal.d[i];
            let rel = viol / (1.0 + problem.terminal.d[i].abs());
            if rel > worst.3 {
                worst = (problem.horizon(), i, viol, rel);
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LqStage, LqTerminal};

    fn settings() -> IpmSettings {
        IpmSettings::default()
    }

    #[test]
    fn unconstrained_matches_analytic_optimum() {
        // Same problem as the Riccati unit test; optimum u = (-1, -0.5).
        let stage = LqStage::identity_dynamics(1)
            .with_state_cost(Vector::filled(1, 1.0))
            .with_input_penalty(&Vector::filled(1, 1.0));
        let problem = LqProblem::new(
            Vector::zeros(1),
            vec![stage.clone(), stage],
            LqTerminal::free(1).with_state_cost(Vector::filled(1, 1.0)),
        )
        .unwrap();
        let sol = solve_lq(&problem, &settings()).unwrap();
        assert!((sol.us[0][0] + 1.0).abs() < 1e-7, "u0 = {}", sol.us[0][0]);
        assert!((sol.us[1][0] + 0.5).abs() < 1e-7, "u1 = {}", sol.us[1][0]);
        assert!((sol.objective + 1.25).abs() < 1e-6);
    }

    #[test]
    fn demand_floor_is_respected_with_smoothing() {
        // x ≥ 5 from stage 1 on; price 1; reconfig penalty 0.1 u².
        // (x_0 is fixed at 0, so stage 0 carries no state constraint.)
        let floor = Matrix::from_rows(&[&[-1.0]]).unwrap();
        let free_stage = LqStage::identity_dynamics(1)
            .with_state_cost(Vector::filled(1, 1.0))
            .with_input_penalty(&Vector::from(vec![0.1]));
        let make_stage = || {
            free_stage.clone().with_constraints(
                floor.clone(),
                Matrix::zeros(1, 1),
                Vector::from(vec![-5.0]),
            )
        };
        let problem = LqProblem::new(
            Vector::zeros(1),
            vec![free_stage.clone(), make_stage(), make_stage()],
            LqTerminal::free(1).with_constraints(floor.clone(), Vector::from(vec![-5.0])),
        )
        .unwrap();
        let sol = solve_lq(&problem, &settings()).unwrap();
        for k in 1..=3 {
            assert!(sol.xs[k][0] >= 5.0 - 1e-6, "x[{k}] = {}", sol.xs[k][0]);
        }
        // The active floor must carry a positive multiplier somewhere.
        let max_dual = sol
            .stage_duals
            .iter()
            .map(Vector::norm_inf)
            .fold(0.0f64, f64::max);
        assert!(max_dual > 1e-6);
    }

    #[test]
    fn capacity_cap_binds_from_above() {
        // Strongly negative price pushes x up; capacity x ≤ 2 must hold.
        let cap = Matrix::from_rows(&[&[1.0]]).unwrap();
        let make_stage = || {
            LqStage::identity_dynamics(1)
                .with_state_cost(Vector::from(vec![-10.0]))
                .with_input_penalty(&Vector::from(vec![0.5]))
                .with_constraints(cap.clone(), Matrix::zeros(1, 1), Vector::from(vec![2.0]))
        };
        let problem = LqProblem::new(
            Vector::zeros(1),
            vec![make_stage(), make_stage(), make_stage(), make_stage()],
            LqTerminal::free(1),
        )
        .unwrap();
        let sol = solve_lq(&problem, &settings()).unwrap();
        for k in 1..=4 {
            assert!(sol.xs[k][0] <= 2.0 + 1e-6, "x[{k}] = {}", sol.xs[k][0]);
        }
        // With such a strong incentive the cap should be (nearly) reached at
        // some stage.
        assert!(sol.xs[3][0] > 1.9);
    }

    #[test]
    fn infeasible_constraints_are_certified_as_infeasible() {
        // x ≥ 5 and x ≤ 1 simultaneously: the exit classifier must report
        // a typed certificate, not an opaque iteration failure.
        let rows = Matrix::from_rows(&[&[-1.0], &[1.0]]).unwrap();
        let stage = LqStage::identity_dynamics(1)
            .with_input_penalty(&Vector::filled(1, 1.0))
            .with_constraints(rows, Matrix::zeros(2, 1), Vector::from(vec![-5.0, 1.0]));
        let problem = LqProblem::new(Vector::zeros(1), vec![stage], LqTerminal::free(1)).unwrap();
        let err = solve_lq(&problem, &settings()).unwrap_err();
        match err {
            SolverError::Infeasible {
                period,
                constraint,
                shortfall,
            } => {
                assert_eq!(period, 0);
                assert!(constraint < 2);
                // The two rows are 4 apart; no point can violate the worse
                // one by less than half of that.
                assert!(shortfall >= 2.0 - 1e-6, "shortfall = {shortfall}");
            }
            other => panic!("expected Infeasible, got {other}"),
        }
    }

    #[test]
    fn capacity_overload_names_the_binding_period() {
        // Demand floor x ≥ 8 against capacity x ≤ 5 from stage 2 on: the
        // certificate must point at a constrained slot, not slot 0.
        let rows = Matrix::from_rows(&[&[-1.0], &[1.0]]).unwrap();
        let free = LqStage::identity_dynamics(1).with_input_penalty(&Vector::filled(1, 1.0));
        let tight = free.clone().with_constraints(
            rows.clone(),
            Matrix::zeros(2, 1),
            Vector::from(vec![-8.0, 5.0]),
        );
        let mid = free.clone();
        let problem = LqProblem::new(
            Vector::zeros(1),
            vec![free, mid, tight],
            LqTerminal::free(1),
        )
        .unwrap();
        let err = solve_lq(&problem, &settings()).unwrap_err();
        match err {
            SolverError::Infeasible {
                period, shortfall, ..
            } => {
                assert!(period >= 1, "period = {period}");
                assert!(shortfall >= 1.5 - 1e-6, "shortfall = {shortfall}");
            }
            other => panic!("expected Infeasible, got {other}"),
        }
    }

    #[test]
    fn input_constraints_limit_ramp_rate() {
        // Reach x ≥ 9 eventually but |u| ≤ 2 per stage: need at least 5 stages.
        let ramp = Matrix::from_rows(&[&[1.0], &[-1.0]]).unwrap();
        let floor = Matrix::from_rows(&[&[-1.0]]).unwrap();
        let mk = |with_floor: bool| {
            let mut st = LqStage::identity_dynamics(1)
                .with_state_cost(Vector::from(vec![0.01]))
                .with_input_penalty(&Vector::from(vec![0.01]))
                .with_constraints(
                    Matrix::zeros(2, 1),
                    ramp.clone(),
                    Vector::from(vec![2.0, 2.0]),
                );
            if with_floor {
                st = st.with_constraints(
                    floor.clone(),
                    Matrix::zeros(1, 1),
                    Vector::from(vec![-9.0]),
                );
            }
            st
        };
        // Floor applies from stage 5 (so it is reachable under the rate cap).
        let stages = vec![
            mk(false),
            mk(false),
            mk(false),
            mk(false),
            mk(false),
            mk(true),
        ];
        let problem = LqProblem::new(
            Vector::zeros(1),
            stages,
            LqTerminal::free(1).with_constraints(floor.clone(), Vector::from(vec![-9.0])),
        )
        .unwrap();
        let sol = solve_lq(&problem, &settings()).unwrap();
        for u in &sol.us {
            assert!(u[0].abs() <= 2.0 + 1e-6, "u = {}", u[0]);
        }
        assert!(sol.xs[6][0] >= 9.0 - 1e-6, "x6 = {}", sol.xs[6][0]);
    }

    #[test]
    fn two_pools_split_by_price() {
        // Two locations, shared demand floor x1 + x2 ≥ 10, prices 1 vs 3:
        // everything should go to the cheap location.
        let demand = Matrix::from_rows(&[&[-1.0, -1.0]]).unwrap();
        let nonneg = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, -1.0]]).unwrap();
        let free = LqStage::identity_dynamics(2)
            .with_state_cost(Vector::from(vec![1.0, 3.0]))
            .with_input_penalty(&Vector::from(vec![0.01, 0.01]));
        let mk = || {
            free.clone()
                .with_constraints(
                    demand.clone(),
                    Matrix::zeros(1, 2),
                    Vector::from(vec![-10.0]),
                )
                .with_constraints(nonneg.clone(), Matrix::zeros(2, 2), Vector::zeros(2))
        };
        // Stage 0 is unconstrained: its state constraint would bind the
        // fixed x_0 = 0, which can never satisfy the demand floor.
        let problem = LqProblem::new(
            Vector::zeros(2),
            vec![free.clone(), mk(), mk(), mk(), mk()],
            LqTerminal::free(2),
        )
        .unwrap();
        let sol = solve_lq(&problem, &settings()).unwrap();
        // At the last constrained stage the cheap pool dominates.
        let x = &sol.xs[4];
        assert!(x[0] + x[1] >= 10.0 - 1e-5);
        assert!(x[0] > 8.0, "cheap pool got {}", x[0]);
        assert!(x[1] < 2.0, "expensive pool got {}", x[1]);
    }
}
