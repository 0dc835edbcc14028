/// Tuning knobs of the interior-point solver ([`solve_structured`] and its
/// traced and relaxed variants): the iteration budget and the two stopping
/// tolerances.
///
/// The defaults solve every problem in this workspace; they are exposed so
/// the benchmarks can trade accuracy for speed ([`IpmSettings::fast`]) and
/// the tests can stress the failure paths. Every field documents its
/// default, unit, and the failure mode you buy by pushing it too far;
/// [`IpmSettings::validate`] rejects values that are nonsensical outright
/// (and the solver calls it before iterating, surfacing violations as
/// [`SolverError::InvalidProblem`](crate::SolverError::InvalidProblem)).
///
/// The method's other constants are fixed: a static regularization of
/// `1e-9` on the Newton system's diagonal, boosted ×100 after each failed
/// factorization up to `1e-9 · 1e20`; a fraction-to-boundary step factor
/// of `0.99`; and a cold-start slack margin of `1.0` (servers, in the
/// DSPP placement problem). A strict solve's duals start at the horizon's
/// price scale, its largest hosting price, clamped to `[1e-4, 1.0]`; the
/// recovery relaxation's duals start at `1.0`. A strict solve warm-started
/// from a previous solution's duals starts each active row at
/// `z = max(z_prev, 1e-4)` and `s = max(d − Cx, 1e-4)` instead.
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
    /// `1 + |objective|`. For the recovery relaxation that is the strict
    /// objective the solution reports, without the slack penalty.
    ///
    /// **Default `1e-9`** (relative duality-gap measure, unitless). This
    /// is the knob that controls how sharp the reported *duals* are — the
    /// game crate's capacity prices come straight from them. Looser gaps
    /// blur the active-constraint multipliers; tighter than ~`1e-11` is
    /// numerically unreachable in double precision for the larger
    /// horizons. Must be positive and finite.
    pub tol_gap: f64,
}

impl Default for IpmSettings {
    fn default() -> Self {
        IpmSettings {
            max_iterations: 100,
            tol_feasibility: 1e-8,
            tol_gap: 1e-9,
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
                tol_feasibility: f64::INFINITY,
                ..IpmSettings::default()
            },
        ];
        for s in bad {
            assert!(s.validate().is_err(), "{s:?} should be rejected");
        }
    }
}
