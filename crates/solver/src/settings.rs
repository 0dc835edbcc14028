/// Tuning knobs of the interior-point solver ([`solve_structured`] and its
/// warm, traced and relaxed variants).
///
/// The defaults solve every problem in this workspace; they are exposed so
/// the benchmarks can trade accuracy for speed and the tests can stress the
/// failure paths. Every field documents its default, unit, and the failure
/// mode you buy by pushing it too far; [`IpmSettings::validate`] rejects
/// values that are nonsensical outright (and the solver calls it before
/// iterating, surfacing violations as
/// [`SolverError::InvalidProblem`](crate::SolverError::InvalidProblem)).
///
/// The two termination statuses a *successful* solve can carry are
/// [`SolveStatus::Optimal`](crate::SolveStatus::Optimal) (both tolerances
/// met) and
/// [`SolveStatus::AlmostOptimal`](crate::SolveStatus::AlmostOptimal)
/// (iteration budget exhausted but residuals within `1e4×` of tolerance —
/// a usable answer with degraded accuracy). Anything worse is an error:
/// [`SolverError::MaxIterations`](crate::SolverError::MaxIterations) when
/// even the loosened test fails, or
/// [`SolverError::NumericalFailure`](crate::SolverError::NumericalFailure)
/// when factorization or the iterates themselves break down.
///
/// [`solve_structured`]: crate::solve_structured
#[derive(Debug, Clone, PartialEq)]
pub struct IpmSettings {
    /// Maximum interior-point iterations before giving up.
    ///
    /// **Default `100`** (iterations, dimensionless). Well-posed DSPP
    /// instances converge in 10–30 iterations; the headroom absorbs
    /// ill-conditioned horizons. Too low ⇒ premature
    /// `AlmostOptimal`/`MaxIterations` outcomes on feasible problems; the
    /// limit being *hit* at the default is instead the classic symptom of
    /// an infeasible problem (e.g. demand exceeding total capacity). Must
    /// be positive.
    pub max_iterations: usize,
    /// Tolerance on the scaled primal and dual residual infinity norms.
    ///
    /// **Default `1e-8`** (relative — residuals are measured against the
    /// problem's own data magnitudes, so the knob is unitless). Looser
    /// values (`1e-6`, as in [`IpmSettings::fast`]) converge a few
    /// iterations earlier at the cost of constraint violations visible in
    /// the sixth decimal; tighter than ~`1e-10` chases floating-point
    /// noise and tends to end in `MaxIterations`. Must be positive and
    /// finite.
    pub tol_feasibility: f64,
    /// Tolerance on the average complementarity `sᵀz/m`, relative to
    /// `1 + |objective|`.
    ///
    /// **Default `1e-9`** (relative duality-gap measure, unitless). This
    /// is the knob that controls how sharp the reported *duals* are — the
    /// game crate's capacity prices come straight from them. Looser gaps
    /// blur the active-constraint multipliers; tighter than ~`1e-11` is
    /// numerically unreachable in double precision for the larger
    /// horizons. Must be positive and finite.
    pub tol_gap: f64,
    /// Static regularization added to the Newton system diagonal.
    ///
    /// **Default `1e-9`** (absolute, added to matrix entries whose scale
    /// is set by the cost Hessian). Keeps the Cholesky factorizations
    /// alive when the Hessian is only positive *semi*-definite; on
    /// factorization failure the solver boosts it geometrically up to
    /// `regularization · 1e20` (an inertia-correction-style ceiling: a
    /// heavily damped step beats aborting a solve whose primal iterate is
    /// already feasible) before reporting `NumericalFailure` or taking the
    /// degraded acceptance. Too large skews
    /// solutions (the solve answers a slightly different, stiffer
    /// problem); zero is legal but forfeits the safety net on singular
    /// Newton systems. Must be non-negative and finite.
    pub regularization: f64,
    /// Fraction-to-boundary factor for the step length (`< 1`).
    ///
    /// **Default `0.99`** (dimensionless fraction in `(0, 1)`). Each
    /// update stops at this fraction of the largest step keeping slacks
    /// and duals positive. Values near 1 converge fastest but let
    /// iterates graze the boundary, risking step-length collapse
    /// (`NumericalFailure`) on ill-conditioned problems; conservative
    /// values (0.9) trade a couple of extra iterations for robustness.
    pub step_fraction: f64,
    /// Initial slack/dual magnitude used when cold-starting.
    ///
    /// **Default `1.0`** (same units as the constraint right-hand sides —
    /// servers, in the DSPP placement problem). Slacks start at
    /// `max(h − Gx₀, init_margin)` and duals at `init_margin`. Values far
    /// below the natural constraint scale start the iterate next to the
    /// boundary (slow, collapse-prone); values far above waste early
    /// iterations walking back toward the central path. Must be positive
    /// and finite.
    pub init_margin: f64,
}

impl Default for IpmSettings {
    fn default() -> Self {
        IpmSettings {
            max_iterations: 100,
            tol_feasibility: 1e-8,
            tol_gap: 1e-9,
            regularization: 1e-9,
            step_fraction: 0.99,
            init_margin: 1.0,
        }
    }
}

impl IpmSettings {
    /// A looser profile for benchmarks and large parameter sweeps
    /// (1e-6 feasibility / gap tolerances).
    pub fn fast() -> Self {
        IpmSettings {
            tol_feasibility: 1e-6,
            tol_gap: 1e-7,
            ..IpmSettings::default()
        }
    }

    /// Validates that the settings are usable.
    ///
    /// Returns a human-readable complaint for nonsensical values; the
    /// solver calls this before starting.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_iterations == 0 {
            return Err("max_iterations must be positive".into());
        }
        if !(self.tol_feasibility > 0.0 && self.tol_feasibility.is_finite()) {
            return Err("tol_feasibility must be positive and finite".into());
        }
        if !(self.tol_gap > 0.0 && self.tol_gap.is_finite()) {
            return Err("tol_gap must be positive and finite".into());
        }
        if !(self.regularization >= 0.0 && self.regularization.is_finite()) {
            return Err("regularization must be non-negative and finite".into());
        }
        if !(self.step_fraction > 0.0 && self.step_fraction < 1.0) {
            return Err("step_fraction must lie in (0, 1)".into());
        }
        if !(self.init_margin > 0.0 && self.init_margin.is_finite()) {
            return Err("init_margin must be positive and finite".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_settings_validate() {
        assert!(IpmSettings::default().validate().is_ok());
        assert!(IpmSettings::fast().validate().is_ok());
    }

    #[test]
    fn bad_settings_are_rejected() {
        let bad = [
            IpmSettings {
                max_iterations: 0,
                ..IpmSettings::default()
            },
            IpmSettings {
                tol_gap: -1.0,
                ..IpmSettings::default()
            },
            IpmSettings {
                step_fraction: 1.0,
                ..IpmSettings::default()
            },
            IpmSettings {
                regularization: f64::NAN,
                ..IpmSettings::default()
            },
            IpmSettings {
                init_margin: 0.0,
                ..IpmSettings::default()
            },
            IpmSettings {
                tol_feasibility: f64::INFINITY,
                ..IpmSettings::default()
            },
        ];
        for s in bad {
            assert!(s.validate().is_err(), "{s:?} should be rejected");
        }
    }
}
