//! What a structured solve returns, and the recovery relaxation's spec.

use dspp_linalg::Vector;

/// Termination status of a *successful* interior-point solve.
///
/// This enum only covers the two outcomes that still return a solution.
/// The failure outcomes are errors instead:
/// [`SolverError::MaxIterations`](crate::SolverError::MaxIterations) when
/// even the degraded acceptance test fails after the iteration budget
/// (usually an infeasible problem), and
/// [`SolverError::NumericalFailure`](crate::SolverError::NumericalFailure)
/// when the Newton system cannot be factorized, iterates turn non-finite,
/// or the step length collapses. Telemetry tallies each outcome under
/// `solver.lq.status.*` (see `docs/OBSERVABILITY.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveStatus {
    /// Feasibility and duality-gap tolerances
    /// ([`IpmSettings::tol_feasibility`](crate::IpmSettings::tol_feasibility),
    /// [`IpmSettings::tol_gap`](crate::IpmSettings::tol_gap)) were both
    /// met. Primal values and dual multipliers are accurate to the
    /// configured tolerances.
    Optimal,
    /// The iteration budget ran out, but residuals pass a `1e4×` loosened
    /// version of both tolerances. The solution is usable (defaults give
    /// roughly `1e-4`-level feasibility and `1e-5`-level gap), but
    /// consumers that feed duals onward — the capacity-pricing game —
    /// should treat multipliers as approximate. Persistent
    /// `AlmostOptimal` outcomes signal an ill-conditioned problem or
    /// too-tight tolerances.
    AlmostOptimal,
}

/// Primal–dual solution of a stage-structured problem: states, inputs and
/// per-slot inequality multipliers of a [`StructuredLq`](crate::StructuredLq)
/// solve.
#[derive(Debug, Clone, PartialEq)]
pub struct LqSolution {
    /// State trajectory `x_0..x_N` (`x_0` equals the problem's `x0`).
    pub xs: Vec<Vector>,
    /// Input trajectory `u_0..u_{N-1}`.
    pub us: Vec<Vector>,
    /// Inequality multipliers per stage (`stage_duals[k]` matches stage `k`'s
    /// constraint rows; index `N` holds the terminal multipliers).
    pub stage_duals: Vec<Vector>,
    /// Objective value.
    pub objective: f64,
    /// Interior-point iterations used.
    pub iterations: usize,
    /// Termination status.
    pub status: SolveStatus,
}

/// Which rows the recovery relaxation softens and how hard it penalizes
/// the slack.
///
/// Each designated "soft" row `i` of every constrained slot gains a slack
/// variable `σ_i ≥ 0`,
///
/// ```text
/// (Cx·x + Cu·u)_i − σ_i ≤ d_i,      σ_i ≥ 0,
/// ```
///
/// penalized in the objective by `ρ_i·σ_i + ε·σ_i²`. With `ρ` large
/// relative to the hosting prices this is an exact penalty: slack stays at
/// zero whenever the strict problem is feasible, and otherwise settles at
/// the minimum constraint violation the capacities force — the per-period
/// SLA shortfall the caller reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftSpec {
    /// Linear slack penalties `ρ_i`, one per soft row; every constrained
    /// slot's *leading* `penalties.len()` rows are softened (the horizon
    /// builder puts the demand/SLA rows first).
    pub penalties: Vector,
    /// Quadratic slack penalty `ε` (must be positive: it keeps the slack
    /// block of the input Hessian positive definite).
    pub quadratic: f64,
}

impl SoftSpec {
    /// Softens the leading `rows` rows with a uniform linear penalty.
    pub fn uniform(rows: usize, penalty: f64, quadratic: f64) -> Self {
        SoftSpec {
            penalties: Vector::filled(rows, penalty),
            quadratic,
        }
    }
}

/// A relaxed solve mapped back onto the original problem.
#[derive(Debug, Clone)]
pub struct RelaxedSolution {
    /// The placement in the original problem's shapes (trajectories,
    /// inputs, and per-slot duals truncated to the original rows); the
    /// objective is the *original* objective of that trajectory, without
    /// the slack penalty.
    pub solution: LqSolution,
    /// Slack values per slot (`slacks[k]` matches slot `k`'s soft rows;
    /// index `horizon()` holds the terminal slacks), clamped at zero.
    pub slacks: Vec<Vector>,
}

impl RelaxedSolution {
    /// Largest slack across all slots — zero (to solver tolerance) means
    /// the strict problem was feasible after all.
    pub fn max_slack(&self) -> f64 {
        self.slacks
            .iter()
            .map(Vector::norm_inf)
            .fold(0.0f64, f64::max)
    }

    /// Sum of slack values in slot `k`.
    pub fn slot_slack(&self, k: usize) -> f64 {
        self.slacks[k].iter().sum()
    }
}
