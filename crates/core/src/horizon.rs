use crate::{Allocation, CoreError, Dspp};
use dspp_linalg::Vector;
use dspp_solver::{
    preflight_structured, solve_structured_relaxed_traced, solve_structured_warm_traced,
    CouplingRow, FeasibilityReport, IpmSettings, LqSolution, SoftSpec, SolverError, StructuredLq,
};
use dspp_telemetry::Recorder;

/// How the recovery solve (the always-feasible relaxation of the horizon
/// problem) penalizes unserved demand.
///
/// The linear penalty is expressed per *server* (resource unit) of
/// shortfall, uniformly across locations: internally each location `v`'s
/// demand-unit slack is priced at `penalty · min_e(a^{lv}·s)`, so the
/// optimizer has no arbitrage between shedding demand at "cheap" and
/// "expensive" locations and the total slack lands exactly on the capacity
/// deficit. Keep `penalty` well above the hosting prices — it is an exact
/// penalty, so any value dominating the marginal hosting cost yields zero
/// slack on feasible horizons.
///
/// The penalty does not set how far the solve converges: each slack
/// starts at its row's violation with the row's penalty split between the
/// row's dual and the slack's, and the duality-gap test is scaled by the
/// placement's own objective (hosting plus reconfiguration), not the
/// penalized one (see `dspp_solver::solve_structured_relaxed_traced`).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoverySettings {
    /// Linear slack penalty per server of unserved capacity-equivalent.
    pub penalty: f64,
    /// Quadratic slack penalty (keeps the slack Hessian positive definite;
    /// small relative to `penalty`).
    pub quadratic: f64,
}

impl Default for RecoverySettings {
    fn default() -> Self {
        RecoverySettings {
            penalty: 1e4,
            quadratic: 1e-4,
        }
    }
}

/// Result of a recovery solve: a capacity-respecting placement plus the
/// demand it could not serve.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// The placement in the strict problem's shapes (slack columns and
    /// rows already stripped; the objective excludes the slack penalty).
    pub solution: LqSolution,
    /// Unserved demand per horizon period and location,
    /// `demand_slack[t][v]` in demand units, `t = 0` being the first
    /// predicted period `k+1`.
    pub demand_slack: Vec<Vec<f64>>,
    /// Per-period shortfall converted to servers:
    /// `Σ_v demand_slack[t][v] · min_e(a^{lv}·s)` — directly comparable to
    /// the aggregate deficit a [`HorizonProblem::preflight`] reports.
    pub resource_shortfall: Vec<f64>,
}

impl RecoveryOutcome {
    /// Largest per-period resource shortfall across the horizon.
    pub fn max_resource_shortfall(&self) -> f64 {
        self.resource_shortfall
            .iter()
            .fold(0.0f64, |m, &s| m.max(s))
    }

    /// Total resource shortfall summed over the horizon.
    pub fn total_resource_shortfall(&self) -> f64 {
        self.resource_shortfall.iter().sum()
    }
}

/// How [`HorizonProblem::solve_or_recover`] decided a horizon.
#[derive(Debug, Clone)]
pub enum Decision {
    /// The strict problem solved.
    Strict(LqSolution),
    /// The strict problem is infeasible: the recovery relaxation placed
    /// what the capacity allows and reports the demand it sheds.
    Recovered {
        /// The relaxation's placement and shortfall.
        outcome: RecoveryOutcome,
        /// `true` when the preflight found the deficit and no strict solve
        /// ran; `false` when the strict solve certified
        /// [`SolverError::Infeasible`].
        preflight_deficit: bool,
    },
}

/// One part of a horizon problem: a DSPP with its current allocation and
/// its demand and price forecasts, as [`HorizonProblem::build`] takes
/// them. [`HorizonProblem::build_shared`] stacks several parts that share
/// the data centers' capacity rows.
#[derive(Debug, Clone, Copy)]
pub struct HorizonPart<'a> {
    /// The part's placement problem.
    pub problem: &'a Dspp,
    /// Its current allocation `x_k`.
    pub x0: &'a Allocation,
    /// `demand_forecast[v][t]`: location `v`'s demand in period `k+1+t`.
    pub demand_forecast: &'a [Vec<f64>],
    /// `price_forecast[l][t]`: a server's price at data center `l` in
    /// period `k+1+t`.
    pub price_forecast: &'a [Vec<f64>],
}

/// The horizon-truncated DSPP (Section IV-D) in the solver's compact
/// [`StructuredLq`] form, plus the bookkeeping to read duals back out.
///
/// Given the current allocation `x_k`, demand forecasts
/// `D_{k+1|k}..D_{k+W|k}` and prices `p_{k+1}..p_{k+W}`, the problem is
///
/// ```text
/// min Σ_{j=1..W} [ p_{k+j}ᵀ x_j + Σ_e c_e u_{j-1,e}² ]
/// s.t. x_j = x_{j-1} + u_{j-1}
///      Σ_e∈v  x_{j,e}/a_e ≥ D_{k+j}^v      (demand rows, per location)
///      Σ_e∈l  s·x_{j,e}   ≤ C_l             (capacity rows, per DC)
///      x_j ≥ 0
/// ```
///
/// Constraint rows per stage are laid out demand-first, then capacity, then
/// non-negativity; [`HorizonProblem::capacity_duals`] exploits that layout
/// to extract the per-DC shadow prices the multi-provider game needs. The
/// rows are emitted sparsely — no dense constraint matrix is ever built —
/// and every solve runs on the structure-exploiting KKT path
/// ([`dspp_solver::solve_structured`]). [`HorizonProblem::solve_or_recover`]
/// is the one strict-or-recover decision the controller and the game
/// share. The oracle cross-checks expand [`HorizonProblem::structured`]
/// densely with the test-only `dspp-oracle` crate.
#[derive(Debug, Clone)]
pub struct HorizonProblem {
    slq: StructuredLq,
    num_dcs: usize,
    num_locations: usize,
    /// Per location `v`, the cheapest resource cost of serving one demand
    /// unit, `min_e(a^{lv}·s)` over the arcs serving `v` — the conversion
    /// factor between demand-unit slack and server-unit shortfall.
    resource_per_demand: Vec<f64>,
}

impl HorizonProblem {
    /// Assembles the horizon problem.
    ///
    /// `demand_forecast[v][t]` is the predicted demand of location `v` in
    /// period `k+1+t`; `price_forecast[l][t]` the price of a server at data
    /// center `l` in period `k+1+t`. Both must have `horizon` entries per
    /// series.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidSpec`] for shape mismatches or a zero horizon.
    /// * [`CoreError::Solver`] if the compact problem fails the solver's
    ///   structural validation (should not happen for a compiled
    ///   [`Dspp`]).
    pub fn build(
        problem: &Dspp,
        x0: &Allocation,
        demand_forecast: &[Vec<f64>],
        price_forecast: &[Vec<f64>],
    ) -> Result<Self, CoreError> {
        Self::build_full(problem, x0, demand_forecast, price_forecast, None, None)
    }

    /// [`HorizonProblem::build`] with per-stage capacities.
    ///
    /// `stage_capacities[t][l]` caps data center `l` during period `k+1+t`,
    /// overriding the problem's static capacities. The fault plane's
    /// schedules and the game's unilateral-deviation checks use it; a zero
    /// entry (a dark data center, or one the others fill) pins that DC's
    /// arcs to zero for the period instead of leaving a degenerate row in
    /// the solve.
    ///
    /// The last parameter admits only `None`: it keeps the six-parameter
    /// form that existing callers, the end-to-end benchmark's replay among
    /// them, compile against.
    ///
    /// # Errors
    ///
    /// As [`HorizonProblem::build`], plus mismatched capacity shapes.
    pub fn build_full(
        problem: &Dspp,
        x0: &Allocation,
        demand_forecast: &[Vec<f64>],
        price_forecast: &[Vec<f64>],
        stage_capacities: Option<&[Vec<f64>]>,
        _: Option<std::convert::Infallible>,
    ) -> Result<Self, CoreError> {
        let part = HorizonPart {
            problem,
            x0,
            demand_forecast,
            price_forecast,
        };
        Self::build_shared(&[part], stage_capacities)
    }

    /// Assembles one horizon problem from parts that share the capacity
    /// rows: part `i`'s arcs follow part `i−1`'s, each part keeps its own
    /// demand rows, and data center `l`'s capacity row sums every part's
    /// arcs there. One part is [`HorizonProblem::build_full`]; several are
    /// the multi-provider social-welfare problem. Without
    /// `stage_capacities` the capacity rows take the first part's problem
    /// capacities.
    ///
    /// # Errors
    ///
    /// As [`HorizonProblem::build_full`], plus no parts, or parts that
    /// disagree on the data centers or the horizon.
    pub fn build_shared(
        parts: &[HorizonPart<'_>],
        stage_capacities: Option<&[Vec<f64>]>,
    ) -> Result<Self, CoreError> {
        let Some(first) = parts.first() else {
            return Err(CoreError::InvalidSpec(
                "a horizon problem needs at least one part".into(),
            ));
        };
        let nl = first.problem.num_dcs();
        let horizon = first.demand_forecast.first().map_or(0, Vec::len);
        if horizon == 0 {
            return Err(CoreError::InvalidSpec("horizon must be positive".into()));
        }
        for (i, part) in parts.iter().enumerate() {
            let problem = part.problem;
            let nv = problem.num_locations();
            let n = problem.num_arcs();
            if problem.num_dcs() != nl {
                return Err(CoreError::InvalidSpec(format!(
                    "part {i} has {} data centers, expected {nl}",
                    problem.num_dcs()
                )));
            }
            if part.demand_forecast.len() != nv {
                return Err(CoreError::InvalidSpec(format!(
                    "demand forecast has {} locations, expected {nv}",
                    part.demand_forecast.len()
                )));
            }
            if part.price_forecast.len() != nl {
                return Err(CoreError::InvalidSpec(format!(
                    "price forecast has {} data centers, expected {nl}",
                    part.price_forecast.len()
                )));
            }
            if part.demand_forecast.iter().any(|d| d.len() != horizon)
                || part.price_forecast.iter().any(|p| p.len() != horizon)
            {
                return Err(CoreError::InvalidSpec(
                    "forecast series have inconsistent horizons".into(),
                ));
            }
            if part.x0.arc_values().len() != n {
                return Err(CoreError::InvalidSpec(format!(
                    "initial allocation has {} arcs, expected {n}",
                    part.x0.arc_values().len()
                )));
            }
        }
        if let Some(caps) = stage_capacities {
            if caps.len() != horizon || caps.iter().any(|c| c.len() != nl) {
                return Err(CoreError::InvalidSpec(format!(
                    "stage capacities must be {horizon} vectors of {nl} entries"
                )));
            }
            for row in caps {
                if row.iter().any(|c| !(c.is_finite() && *c >= 0.0)) {
                    return Err(CoreError::InvalidSpec(
                        "stage capacities must be non-negative and finite".into(),
                    ));
                }
            }
        }

        // Per-slot rows: demand rows 0..nv (−Σ x/a ≤ −D), capacity rows
        // nv..nv+nl (Σ s·x ≤ C); the solver appends −x ≤ 0 per arc.
        let nv: usize = parts.iter().map(|p| p.problem.num_locations()).sum();
        let mut demand: Vec<CouplingRow> = Vec::with_capacity(nv);
        let mut capacity: Vec<CouplingRow> = (0..nl)
            .map(|_| CouplingRow {
                entries: Vec::new(),
            })
            .collect();
        let mut resource_per_demand = vec![f64::INFINITY; nv];
        let mut offset = 0;
        for part in parts {
            let problem = part.problem;
            let first_row = demand.len();
            demand.extend((0..problem.num_locations()).map(|_| CouplingRow {
                entries: Vec::new(),
            }));
            for (e, &(l, v)) in problem.arcs().iter().enumerate() {
                demand[first_row + v]
                    .entries
                    .push((offset + e, -1.0 / problem.arc_coeff(e)));
                capacity[l]
                    .entries
                    .push((offset + e, problem.server_size()));
                let per_unit = problem.arc_coeff(e) * problem.server_size();
                let slot = &mut resource_per_demand[first_row + v];
                *slot = slot.min(per_unit);
            }
            offset += problem.num_arcs();
        }
        // Slot t+1 constrains x_{t+1}, the allocation during period
        // k+1+t (forecast index t).
        let rhs: Vec<Vector> = (0..horizon)
            .map(|t| {
                let mut d = Vector::zeros(nv + nl);
                let demands = parts.iter().flat_map(|p| p.demand_forecast);
                for (v, series) in demands.enumerate() {
                    d[v] = -series[t];
                }
                for l in 0..nl {
                    d[nv + l] = match stage_capacities {
                        Some(caps) => caps[t][l],
                        None => first.problem.capacity(l),
                    };
                }
                d
            })
            .collect();
        // One value per arc of every part, in arc order.
        let per_arc = |value: &dyn Fn(&HorizonPart<'_>, usize, usize) -> f64| -> Vector {
            let mut out = Vec::with_capacity(offset);
            for p in parts {
                let arcs = p.problem.arcs().iter().enumerate();
                out.extend(arcs.map(|(e, &(l, _))| value(p, e, l)));
            }
            Vector::from(out)
        };
        let prices: Vec<Vector> = (0..horizon)
            .map(|t| per_arc(&|p, _, l| p.price_forecast[l][t]))
            .collect();
        // ½uᵀRu = Σ c_e u_e² ⇒ Hessian diagonal 2·c_e.
        let reconfiguration = per_arc(&|p, _, l| 2.0 * p.problem.reconfig_weight(l));
        let x0 = per_arc(&|p, e, _| p.x0.arc_values()[e]);
        let slq = StructuredLq::new(x0, prices, reconfiguration, demand, capacity, rhs)?;
        Ok(HorizonProblem {
            slq,
            num_dcs: nl,
            num_locations: nv,
            resource_per_demand,
        })
    }

    /// The underlying compact problem.
    pub fn structured(&self) -> &StructuredLq {
        &self.slq
    }

    /// Horizon length `W`.
    pub fn horizon(&self) -> usize {
        self.slq.horizon()
    }

    /// Solves the horizon problem.
    ///
    /// # Errors
    ///
    /// Propagates solver failures as [`CoreError::Solver`] — most commonly
    /// an infeasible horizon (demand beyond capacity).
    pub fn solve(&self, settings: &IpmSettings) -> Result<LqSolution, CoreError> {
        self.solve_warm(settings, None)
    }

    /// Solves the horizon problem with an optional warm-start input guess
    /// (the previous period's solution shifted by one stage). The guess
    /// seeds the primal trajectory; the duals start at the horizon's price
    /// scale either way (`dspp_solver::solve_structured_warm_traced`).
    ///
    /// # Errors
    ///
    /// As [`HorizonProblem::solve`].
    pub fn solve_warm(
        &self,
        settings: &IpmSettings,
        warm_us: Option<&[Vector]>,
    ) -> Result<LqSolution, CoreError> {
        self.solve_warm_traced(settings, warm_us, &Recorder::disabled())
    }

    /// [`HorizonProblem::solve_warm`] with solver metrics (`solver.lq.*`)
    /// emitted to `telemetry`.
    ///
    /// # Errors
    ///
    /// As [`HorizonProblem::solve`].
    pub fn solve_warm_traced(
        &self,
        settings: &IpmSettings,
        warm_us: Option<&[Vector]>,
        telemetry: &Recorder,
    ) -> Result<LqSolution, CoreError> {
        Ok(solve_structured_warm_traced(
            &self.slq, settings, warm_us, None, telemetry,
        )?)
    }

    /// Aggregate feasibility preflight: per period, can the SLA-scaled
    /// demand `Σ_v D^v · min_e(a^{lv}·s)` fit under the total capacity
    /// `Σ_l C^l`? A clean report is necessary but not sufficient for the
    /// full QP to be feasible; a reported deficit is a lower bound on the
    /// server-unit shortfall every recovery solve must incur. One pass over
    /// the sparse demand and capacity rows.
    ///
    /// # Errors
    ///
    /// None today: the check reads rows every built problem has. The
    /// `Result` keeps the signature callers match on.
    pub fn preflight(&self) -> Result<FeasibilityReport, CoreError> {
        Ok(preflight_structured(&self.slq))
    }

    /// Decides the horizon, strictly when it can: the preflight, then the
    /// strict solve warm-started from `warm_us` and `warm_duals`, then the
    /// recovery relaxation ([`HorizonProblem::solve_recovery`], warm-started
    /// from `warm_us` alone) when the preflight finds a deficit or the
    /// strict solve certifies [`SolverError::Infeasible`]. A deficit skips
    /// the doomed strict solve. `MpcController::step` and the game's best
    /// responses both decide through this one ladder.
    ///
    /// `warm_duals` are a previous solution's
    /// [`LqSolution::stage_duals`] for a horizon of the same shape (the
    /// game passes each provider's previous round); the strict solve then
    /// starts next to them (`dspp_solver::solve_structured_warm_traced`).
    ///
    /// # Errors
    ///
    /// * A strict-solve failure other than [`SolverError::Infeasible`]
    ///   (iteration cap, numerical failure, invalid settings, malformed
    ///   warm start).
    /// * Any failure of the relaxation (see
    ///   [`HorizonProblem::solve_recovery`]).
    pub fn solve_or_recover(
        &self,
        settings: &IpmSettings,
        recovery: &RecoverySettings,
        warm_us: Option<&[Vector]>,
        warm_duals: Option<&[Vector]>,
        telemetry: &Recorder,
    ) -> Result<Decision, CoreError> {
        let preflight_deficit = !self.preflight()?.is_feasible();
        if !preflight_deficit {
            match solve_structured_warm_traced(&self.slq, settings, warm_us, warm_duals, telemetry)
            {
                Ok(sol) => return Ok(Decision::Strict(sol)),
                Err(SolverError::Infeasible { .. }) => {}
                Err(e) => return Err(e.into()),
            }
        }
        let outcome = self.solve_recovery(settings, recovery, warm_us, telemetry)?;
        Ok(Decision::Recovered {
            outcome,
            preflight_deficit,
        })
    }

    /// The slack pricing of the recovery relaxation: location `v`'s
    /// demand-unit slack costs `penalty · min_e(a^{lv}·s)`, a uniform
    /// penalty per server-unit of shortfall, plus the quadratic term.
    pub fn recovery_spec(&self, recovery: &RecoverySettings) -> SoftSpec {
        SoftSpec {
            penalties: self
                .resource_per_demand
                .iter()
                .map(|rpd| recovery.penalty * rpd)
                .collect(),
            quadratic: recovery.quadratic,
        }
    }

    /// Solves the always-feasible relaxation of the horizon problem: the
    /// demand/SLA rows (eq. 11 of the paper) gain per-period slack under
    /// the penalty in `recovery`, while capacity and non-negativity rows
    /// stay hard. The result is the best capacity-respecting placement
    /// plus exactly how much demand each location must shed per period.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidSpec`] for a non-positive or non-finite
    ///   penalty configuration.
    /// * [`CoreError::Solver`] when even the relaxed problem fails. Every
    ///   relaxed horizon is feasible, so that is invalid settings, the
    ///   iteration cap or a numerical failure; callers should degrade
    ///   further (retry/hold) rather than retry the relaxation.
    pub fn solve_recovery(
        &self,
        settings: &IpmSettings,
        recovery: &RecoverySettings,
        warm_us: Option<&[Vector]>,
        telemetry: &Recorder,
    ) -> Result<RecoveryOutcome, CoreError> {
        if !(recovery.penalty.is_finite() && recovery.penalty > 0.0) {
            return Err(CoreError::InvalidSpec(format!(
                "recovery penalty must be positive and finite, got {}",
                recovery.penalty
            )));
        }
        let relaxed = solve_structured_relaxed_traced(
            &self.slq,
            &self.recovery_spec(recovery),
            settings,
            warm_us,
            telemetry,
        )?;
        // Slot t+1 covers forecast index t.
        let w = self.horizon();
        let mut demand_slack = vec![vec![0.0; self.num_locations]; w];
        let mut resource_shortfall = vec![0.0; w];
        for (t, (slack_row, shortfall)) in demand_slack
            .iter_mut()
            .zip(&mut resource_shortfall)
            .enumerate()
        {
            for (v, (slot, &s)) in slack_row
                .iter_mut()
                .zip(relaxed.slacks[t + 1].iter())
                .enumerate()
            {
                *slot = s;
                *shortfall += s * self.resource_per_demand[v];
            }
        }
        Ok(RecoveryOutcome {
            solution: relaxed.solution,
            demand_slack,
            resource_shortfall,
        })
    }

    /// Extracts per-DC capacity shadow prices: the sum over horizon stages
    /// of the capacity-row duals (the `λ^{il}` of the paper's Algorithm 2).
    /// A data center at zero capacity in a stage (its arcs pinned to zero)
    /// contributes nothing for that stage: its multiplier is not unique
    /// there, and the solve reports zero.
    ///
    /// # Panics
    ///
    /// Panics if `sol` does not belong to this problem.
    pub fn capacity_duals(&self, sol: &LqSolution) -> Vec<f64> {
        let mut out = vec![0.0; self.num_dcs];
        // Stage 0 has no state rows; stages 1..W-1 and the terminal do.
        for duals in sol.stage_duals.iter().skip(1) {
            assert!(
                duals.len() == self.slq.num_rows(),
                "solution does not match this horizon problem"
            );
            for l in 0..self.num_dcs {
                out[l] += duals[self.num_locations + l];
            }
        }
        out
    }

    /// Extracts per-location demand shadow prices (marginal cost of one
    /// more unit of demand), summed over stages.
    ///
    /// # Panics
    ///
    /// Panics if `sol` does not belong to this problem.
    pub fn demand_duals(&self, sol: &LqSolution) -> Vec<f64> {
        let mut out = vec![0.0; self.num_locations];
        for duals in sol.stage_duals.iter().skip(1) {
            for v in 0..self.num_locations {
                out[v] += duals[v];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DsppBuilder;
    use dspp_solver::SolveStatus;

    fn problem() -> Dspp {
        DsppBuilder::new(2, 2)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010, 0.030], vec![0.030, 0.010]])
            .capacities(vec![100.0, 100.0])
            .reconfiguration_weights(vec![0.05, 0.05])
            .price_trace(0, vec![1.0])
            .price_trace(1, vec![1.0])
            .build()
            .unwrap()
    }

    fn flat(v: f64, h: usize) -> Vec<f64> {
        vec![v; h]
    }

    #[test]
    fn build_validates_shapes() {
        let p = problem();
        let x0 = Allocation::zeros(&p);
        // Wrong number of locations.
        assert!(
            HorizonProblem::build(&p, &x0, &[flat(1.0, 3)], &[flat(1.0, 3), flat(1.0, 3)]).is_err()
        );
        // Wrong number of DCs.
        assert!(
            HorizonProblem::build(&p, &x0, &[flat(1.0, 3), flat(1.0, 3)], &[flat(1.0, 3)]).is_err()
        );
        // Ragged horizons.
        assert!(HorizonProblem::build(
            &p,
            &x0,
            &[flat(1.0, 3), flat(1.0, 2)],
            &[flat(1.0, 3), flat(1.0, 3)]
        )
        .is_err());
        // Zero horizon.
        assert!(HorizonProblem::build(&p, &x0, &[vec![], vec![]], &[vec![], vec![]]).is_err());
    }

    #[test]
    fn solution_meets_demand_and_nonnegativity() {
        let p = problem();
        let x0 = Allocation::zeros(&p);
        let demand = vec![flat(50.0, 4), flat(30.0, 4)];
        let prices = vec![flat(1.0, 4), flat(1.0, 4)];
        let h = HorizonProblem::build(&p, &x0, &demand, &prices).unwrap();
        let sol = h.solve(&IpmSettings::default()).unwrap();
        for j in 1..=4 {
            let x = Allocation::from_arc_values(&p, sol.xs[j].as_slice().to_vec());
            assert!(
                x.satisfies_demand(&p, &[50.0, 30.0], 1e-5),
                "stage {j} violates demand"
            );
            assert!(
                sol.xs[j].iter().all(|&x| x >= -1e-6),
                "stage {j} went negative"
            );
        }
    }

    #[test]
    fn cheap_dc_attracts_load() {
        let p = DsppBuilder::new(2, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010], vec![0.010]])
            .price_trace(0, vec![1.0])
            .price_trace(1, vec![5.0])
            .reconfiguration_weights(vec![0.01, 0.01])
            .build()
            .unwrap();
        let x0 = Allocation::zeros(&p);
        let h = HorizonProblem::build(&p, &x0, &[flat(100.0, 5)], &[flat(1.0, 5), flat(5.0, 5)])
            .unwrap();
        let sol = h.solve(&IpmSettings::default()).unwrap();
        let x_final = Allocation::from_arc_values(&p, sol.xs[5].as_slice().to_vec());
        let per_dc = x_final.per_dc(&p);
        assert!(
            per_dc[0] > 5.0 * per_dc[1],
            "cheap DC should dominate: {per_dc:?}"
        );
    }

    #[test]
    fn capacity_duals_appear_when_capacity_binds() {
        // DC 0 is cheap but tiny; demand overflows to DC 1.
        let p = DsppBuilder::new(2, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010], vec![0.010]])
            .capacities(vec![0.2, 100.0])
            .price_trace(0, vec![1.0])
            .price_trace(1, vec![5.0])
            .build()
            .unwrap();
        let x0 = Allocation::zeros(&p);
        let h = HorizonProblem::build(&p, &x0, &[flat(100.0, 4)], &[flat(1.0, 4), flat(5.0, 4)])
            .unwrap();
        let sol = h.solve(&IpmSettings::default()).unwrap();
        let duals = h.capacity_duals(&sol);
        assert!(duals[0] > 1e-3, "binding capacity must price: {duals:?}");
        assert!(duals[1] < 1e-5, "slack capacity must not: {duals:?}");
        // The final allocation saturates DC 0.
        let x = Allocation::from_arc_values(&p, sol.xs[4].as_slice().to_vec());
        assert!((x.per_dc(&p)[0] - 0.2).abs() < 1e-4);
    }

    #[test]
    fn demand_duals_reflect_marginal_cost() {
        let p = problem();
        let x0 = Allocation::zeros(&p);
        let h = HorizonProblem::build(
            &p,
            &x0,
            &[flat(50.0, 3), flat(0.0, 3)],
            &[flat(1.0, 3), flat(1.0, 3)],
        )
        .unwrap();
        let sol = h.solve(&IpmSettings::default()).unwrap();
        let duals = h.demand_duals(&sol);
        // Location 0 has positive demand: its constraint binds (cost scales
        // with demand), so the dual is positive.
        assert!(duals[0] > 1e-4, "duals {duals:?}");
    }

    #[test]
    fn preflight_reports_per_period_server_deficits() {
        let p = DsppBuilder::new(1, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010]])
            .capacity(0, 2.0)
            .price_trace(0, vec![1.0])
            .build()
            .unwrap();
        let a = p.arc_coeff(0);
        let x0 = Allocation::zeros(&p);
        // Periods needing 1, 5 and 1 servers against capacity 2.
        let demand = vec![vec![1.0 / a, 5.0 / a, 1.0 / a]];
        let h = HorizonProblem::build(&p, &x0, &demand, &[flat(1.0, 3)]).unwrap();
        let report = h.preflight().unwrap();
        assert!(!report.is_feasible());
        let worst = report.worst().unwrap();
        assert!(
            (worst.deficit - 3.0).abs() < 1e-9,
            "deficit {}",
            worst.deficit
        );
        assert!((report.total_deficit() - 3.0).abs() < 1e-9);
        // A horizon that fits reports clean.
        let h = HorizonProblem::build(&p, &x0, &[vec![1.0 / a; 3]], &[flat(1.0, 3)]).unwrap();
        assert!(h.preflight().unwrap().is_feasible());
    }

    #[test]
    fn recovery_solve_sheds_exactly_the_preflight_deficit() {
        let p = DsppBuilder::new(1, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010]])
            .capacity(0, 2.0)
            .price_trace(0, vec![1.0])
            .build()
            .unwrap();
        let a = p.arc_coeff(0);
        let x0 = Allocation::zeros(&p);
        let demand = vec![vec![1.0 / a, 5.0 / a, 1.0 / a]];
        let h = HorizonProblem::build(&p, &x0, &demand, &[flat(1.0, 3)]).unwrap();
        assert!(h.solve(&IpmSettings::default()).is_err());
        let out = h
            .solve_recovery(
                &IpmSettings::default(),
                &RecoverySettings::default(),
                None,
                &dspp_telemetry::Recorder::disabled(),
            )
            .unwrap();
        // With one DC and one location the aggregate preflight bound is
        // tight: the shed servers equal the deficit, period by period.
        let deficits = h.preflight().unwrap().deficits();
        assert_eq!(out.resource_shortfall.len(), 3);
        for (t, (&short, &deficit)) in out.resource_shortfall.iter().zip(&deficits).enumerate() {
            assert!(
                (short - deficit).abs() < 1e-6,
                "period {t}: shed {short} servers vs preflight deficit {deficit}"
            );
        }
        assert!((out.max_resource_shortfall() - 3.0).abs() < 1e-6);
        assert!((out.total_resource_shortfall() - 3.0).abs() < 1e-6);
        // The placement itself stays within capacity.
        for x in out.solution.xs.iter().skip(1) {
            assert!(x.iter().sum::<f64>() <= 2.0 + 1e-5);
        }
    }

    /// A brownout seen ahead: two data centers run at full capacity for
    /// two periods, then at 0.5 % for three, so only the later stages
    /// shed. The recovery's first control and strict objective agree with
    /// a converged re-solve of the same relaxation at tight tolerances,
    /// and the solve takes the iterations it took when this test was
    /// written. The reference stops at 1e-10/1e-12, the tightest
    /// tolerances it reaches before round-off stalls its refined Newton
    /// solves (from iteration 13 on, their backward error climbs from
    /// round-off toward 1); tighter ones end wherever that stall lets it.
    #[test]
    fn recovery_answer_matches_a_tight_re_solve() {
        let p = DsppBuilder::new(2, 3)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010, 0.020, 0.030], vec![0.030, 0.020, 0.010]])
            .capacities(vec![40.0, 40.0])
            .reconfiguration_weights(vec![0.001, 0.001])
            .price_trace(0, vec![1.0, 1.1, 0.9])
            .price_trace(1, vec![1.2, 0.8, 1.0])
            .build()
            .unwrap();
        let w = 5;
        let x0 = Allocation::from_arc_values(&p, vec![6.0; p.num_arcs()]);
        let demand: Vec<Vec<f64>> = (0..3)
            .map(|v| {
                (0..w)
                    .map(|t| 900.0 + 150.0 * v as f64 + 40.0 * t as f64)
                    .collect()
            })
            .collect();
        let prices: Vec<Vec<f64>> = (0..2)
            .map(|l| (1..=w).map(|t| p.price(l, t)).collect())
            .collect();
        let caps: Vec<Vec<f64>> = (0..w)
            .map(|t| vec![if t < 2 { 40.0 } else { 0.2 }; 2])
            .collect();
        let h = HorizonProblem::build_full(&p, &x0, &demand, &prices, Some(&caps), None).unwrap();
        let recovery = RecoverySettings::default();
        let out = h
            .solve_recovery(
                &IpmSettings::default(),
                &recovery,
                None,
                &Recorder::disabled(),
            )
            .unwrap();
        assert!(out.resource_shortfall[0] < 1e-6 && out.resource_shortfall[4] > 1.0);
        assert!(
            out.solution.iterations <= 11,
            "{} iterations",
            out.solution.iterations
        );
        let tight = IpmSettings {
            max_iterations: 300,
            tol_feasibility: 1e-10,
            tol_gap: 1e-12,
        };
        let reference = solve_structured_relaxed_traced(
            &h.slq,
            &h.recovery_spec(&recovery),
            &tight,
            None,
            &Recorder::disabled(),
        )
        .unwrap()
        .solution;
        assert_eq!(reference.status, SolveStatus::Optimal);
        let u0_err = (0..p.num_arcs())
            .map(|e| (out.solution.us[0][e] - reference.us[0][e]).abs())
            .fold(0.0f64, f64::max);
        let rel = (out.solution.objective - reference.objective).abs() / reference.objective.abs();
        assert!(u0_err <= 1e-6, "first control off by {u0_err:.3e} servers");
        assert!(rel <= 1e-8, "strict objective off by {rel:.3e}");
    }

    #[test]
    fn recovery_matches_strict_solve_when_feasible() {
        let p = problem();
        let x0 = Allocation::zeros(&p);
        let demand = vec![flat(50.0, 3), flat(30.0, 3)];
        let prices = vec![flat(1.0, 3), flat(1.0, 3)];
        let h = HorizonProblem::build(&p, &x0, &demand, &prices).unwrap();
        let strict = h.solve(&IpmSettings::default()).unwrap();
        let out = h
            .solve_recovery(
                &IpmSettings::default(),
                &RecoverySettings::default(),
                None,
                &dspp_telemetry::Recorder::disabled(),
            )
            .unwrap();
        assert!(out.max_resource_shortfall() < 1e-5);
        assert!((out.solution.objective - strict.objective).abs() < 1e-2);
    }

    #[test]
    fn recovery_rejects_bad_penalties() {
        let p = problem();
        let x0 = Allocation::zeros(&p);
        let h = HorizonProblem::build(
            &p,
            &x0,
            &[flat(1.0, 2), flat(1.0, 2)],
            &[flat(1.0, 2), flat(1.0, 2)],
        )
        .unwrap();
        for penalty in [0.0, -1.0, f64::NAN] {
            let err = h
                .solve_recovery(
                    &IpmSettings::default(),
                    &RecoverySettings {
                        penalty,
                        ..RecoverySettings::default()
                    },
                    None,
                    &dspp_telemetry::Recorder::disabled(),
                )
                .unwrap_err();
            assert!(matches!(err, CoreError::InvalidSpec(_)));
        }
    }

    #[test]
    fn reconfiguration_penalty_smooths_spike() {
        // Demand spikes at period 2 only; with a large c the optimizer
        // spreads the ramp-up across periods.
        let p = DsppBuilder::new(1, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010]])
            .reconfiguration_weights(vec![5.0])
            .price_trace(0, vec![0.1])
            .build()
            .unwrap();
        let x0 = Allocation::zeros(&p);
        let demand = vec![vec![0.0, 100.0, 0.0, 0.0]];
        let prices = vec![flat(0.1, 4)];
        let h = HorizonProblem::build(&p, &x0, &demand, &prices).unwrap();
        let sol = h.solve(&IpmSettings::default()).unwrap();
        // x_2 must cover the spike...
        let a = p.arc_coeff(0);
        assert!(sol.xs[2][0] >= 100.0 * a - 1e-5);
        // ...and the climb is split across u_0 and u_1 (both positive).
        assert!(sol.us[0][0] > 1e-3, "u0 = {}", sol.us[0][0]);
        assert!(sol.us[1][0] > 1e-3, "u1 = {}", sol.us[1][0]);
    }
}
