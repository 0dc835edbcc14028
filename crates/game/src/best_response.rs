//! Algorithm 2: iterative best-response with dual-driven capacity quotas.
//!
//! Rounds are *Jacobi sweeps*: every provider best-responds to the quotas
//! fixed at the start of the round, so the `N` per-provider solves are
//! independent. With [`GameConfig::jobs`] `> 1` they run on a
//! `dspp-runtime` worker pool, the calling thread one of its workers;
//! results are merged in provider order, so quota updates, duals, and
//! convergence checks are byte-identical for any worker count.
//!
//! A best response is one horizon problem decided by
//! [`HorizonProblem::solve_or_recover`], the ladder `MpcController` uses:
//! the preflight, the strict solve, then the recovery relaxation when the
//! quota starves the provider.
//!
//! Round 1 starts every solve cold. Each later round starts a provider's
//! solve from its previous-round solution, including one a recovery
//! produced: the inputs, and for the strict solve also the duals and
//! slacks, next to the previous answer (the warm rule of
//! `dspp_solver::solve_structured_warm_traced`). Only the quotas, the
//! capacity rows' right-hand sides, move between rounds, so a small move
//! leaves little to do: on `dspp-bench`'s `game.round_4sp` market, round
//! 2's four solves take 8 iterations against round 1's 22. Quotas that
//! swing far from round to round can make the previous answer a worse
//! start than a cold one. Nothing carries over between two runs of the
//! game.

use crate::ServiceProvider;
use dspp_core::{CoreError, Decision, HorizonProblem, RecoverySettings};
use dspp_runtime::ScenarioPool;
use dspp_solver::{IpmSettings, LqSolution, WarmStartTracker};
use dspp_telemetry::{AttrValue, Recorder};

/// Tuning knobs of the best-response iteration (Algorithm 2).
#[derive(Debug, Clone)]
pub struct GameConfig {
    /// Quota adjustment step `α` applied to the capacity duals.
    pub alpha: f64,
    /// Relative-cost convergence threshold `ε` (the paper uses 0.05).
    pub epsilon: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Solver settings for each provider's DSPP.
    pub ipm: IpmSettings,
    /// Metric recorder for `game.*` (and nested `solver.lq.*`) metrics.
    /// Disabled by default; see `docs/OBSERVABILITY.md`.
    pub telemetry: Recorder,
    /// How a starved provider's recovery solve prices unserved demand.
    /// Whenever a quota makes the strict best response infeasible (a
    /// preflight deficit or a certified `Infeasible`), the provider solves
    /// the relaxation and reports a large-but-finite cost (objective plus
    /// `penalty · shed servers`) together with *real*, finite capacity
    /// duals. A relaxation that fails too, or a strict solve that fails
    /// otherwise, ends in the ∞-cost / synthetic-dual dead-end
    /// (`game.infeasible_responses`).
    pub recovery: RecoverySettings,
    /// Workers of the per-round provider sweep, the calling thread
    /// included (default 1 = sequential; `jobs` spawns `jobs − 1`
    /// threads). The sweep is Jacobi-style — every provider solves
    /// against the quotas fixed at the round start — so the solves are
    /// independent; results are merged in provider order and the outcome
    /// is byte-identical for any `jobs` value.
    pub jobs: usize,
}

impl Default for GameConfig {
    fn default() -> Self {
        GameConfig {
            alpha: 1.0,
            epsilon: 0.05,
            max_iterations: 500,
            ipm: IpmSettings::default(),
            telemetry: Recorder::disabled(),
            recovery: RecoverySettings::default(),
            jobs: 1,
        }
    }
}

/// Result of running the best-response iteration.
#[derive(Debug, Clone)]
pub struct GameOutcome {
    /// Iterations executed (the quantity Figures 7–8 report).
    pub iterations: usize,
    /// Whether the relative-cost test fired before the iteration cap.
    pub converged: bool,
    /// Total cost `Σ_i J^i` at the final iterate.
    pub total_cost: f64,
    /// Per-provider costs `J^i`.
    pub provider_costs: Vec<f64>,
    /// Final capacity quotas, `[provider][dc]`.
    pub quotas: Vec<Vec<f64>>,
    /// Final per-provider horizon solutions.
    pub solutions: Vec<LqSolution>,
}

/// What one provider's share of a Jacobi sweep produced. Workers return
/// these; the main thread merges them in provider order and emits the
/// order-sensitive `game.*` counters there.
enum Response {
    /// The best response: its cost, capacity duals and solution, and — when
    /// the quota starved the strict problem and the relaxation recovered —
    /// the shed server-units priced into `cost` at the recovery penalty.
    Solved {
        cost: f64,
        duals: Vec<f64>,
        sol: LqSolution,
        shortfall: Option<f64>,
    },
    /// The ladder failed — the ∞-cost synthetic-dual dead-end.
    Infeasible,
}

/// The resource-competition game: providers plus the true total capacity.
#[derive(Debug, Clone)]
pub struct ResourceGame {
    providers: Vec<ServiceProvider>,
    total_capacity: Vec<f64>,
    horizon: usize,
    /// Per-provider minimum viable quota per DC: resource demand from
    /// locations only that DC can serve within the provider's SLA.
    floors: Vec<Vec<f64>>,
}

/// Lower bound on the quota provider `sp` needs at each data center:
/// captive locations (single usable arc) require `s·a·max_t D` resources
/// there no matter what the rest of the allocation does.
fn quota_floors(sp: &ServiceProvider, nl: usize) -> Vec<f64> {
    let mut f = vec![0.0; nl];
    for v in 0..sp.problem.num_locations() {
        let arcs = sp.problem.arcs_for_location(v);
        if arcs.len() == 1 {
            let e = arcs[0];
            let (l, _) = sp.problem.arcs()[e];
            let dmax = sp.demand[v].iter().fold(0.0f64, |m, &d| m.max(d));
            f[l] += sp.problem.arc_coeff(e) * dmax * sp.problem.server_size();
        }
    }
    f
}

impl ResourceGame {
    /// Creates a game.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] if there are no providers, the
    /// capacity vector does not match the providers' data-center count,
    /// the providers disagree on the number of data centers, or their
    /// demand windows have different lengths.
    pub fn new(
        providers: Vec<ServiceProvider>,
        total_capacity: Vec<f64>,
    ) -> Result<Self, CoreError> {
        if providers.is_empty() {
            return Err(CoreError::InvalidSpec("no providers".into()));
        }
        let nl = providers[0].problem.num_dcs();
        let horizon = providers[0].horizon();
        for (i, sp) in providers.iter().enumerate() {
            if sp.problem.num_dcs() != nl {
                return Err(CoreError::InvalidSpec(format!(
                    "provider {i} has {} data centers, expected {nl}",
                    sp.problem.num_dcs()
                )));
            }
            if sp.horizon() != horizon {
                return Err(CoreError::InvalidSpec(format!(
                    "provider {i} has a {}-period window, expected {horizon}",
                    sp.horizon()
                )));
            }
        }
        if total_capacity.len() != nl {
            return Err(CoreError::InvalidSpec(format!(
                "capacity vector has {} entries, expected {nl}",
                total_capacity.len()
            )));
        }
        if total_capacity.iter().any(|c| !(c.is_finite() && *c > 0.0)) {
            return Err(CoreError::InvalidSpec(
                "total capacities must be positive and finite".into(),
            ));
        }
        let floors: Vec<Vec<f64>> = providers.iter().map(|sp| quota_floors(sp, nl)).collect();
        for l in 0..nl {
            let need: f64 = floors.iter().map(|f| f[l]).sum();
            if need > total_capacity[l] {
                return Err(CoreError::InvalidSpec(format!(
                    "data center {l}: captive demand needs {need:.1} resource units \
                     but capacity is {:.1} — the game is infeasible",
                    total_capacity[l]
                )));
            }
        }
        Ok(ResourceGame {
            providers,
            total_capacity,
            horizon,
            floors,
        })
    }

    /// Enforces the per-provider quota floors while keeping the quotas a
    /// partition of the capacity: the slack above the floors is rescaled.
    fn apply_floors(&self, quotas: &mut [Vec<f64>]) {
        let nl = self.total_capacity.len();
        let n = quotas.len();
        for l in 0..nl {
            // A little headroom above the bare minimum keeps the starved
            // provider's subproblem comfortably feasible.
            let margin = 1.05;
            let floor_sum: f64 = self.floors.iter().map(|f| margin * f[l]).sum();
            if floor_sum <= 0.0 {
                continue;
            }
            let cap = self.total_capacity[l];
            if floor_sum >= cap {
                // Degenerate: hand out the floors proportionally.
                for (q, f) in quotas.iter_mut().zip(&self.floors) {
                    q[l] = f[l] / floor_sum * cap;
                }
                continue;
            }
            let excess: f64 = quotas
                .iter()
                .zip(&self.floors)
                .map(|(q, f)| (q[l] - margin * f[l]).max(0.0))
                .sum();
            let remaining = cap - floor_sum;
            if excess > 0.0 {
                let gamma = remaining / excess;
                for (q, f) in quotas.iter_mut().zip(&self.floors) {
                    let above = (q[l] - margin * f[l]).max(0.0);
                    q[l] = margin * f[l] + above * gamma;
                }
            } else {
                for (i, q) in quotas.iter_mut().enumerate() {
                    q[l] = margin * self.floors[i][l] + remaining / n as f64;
                }
            }
        }
    }

    /// The players.
    pub fn providers(&self) -> &[ServiceProvider] {
        &self.providers
    }

    /// The shared capacity vector `C`.
    pub fn total_capacity(&self) -> &[f64] {
        &self.total_capacity
    }

    /// The game window length.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// One provider's share of a Jacobi sweep: its horizon problem under
    /// `quota`, decided by [`HorizonProblem::solve_or_recover`] warm-started
    /// from `prev`, the provider's previous-round solution: its inputs and
    /// its duals. Telemetry emitted here (nested `solver.lq.*`,
    /// `game.capacity_dual`) is order-insensitive; the order-sensitive
    /// `game.*` counters are emitted by the caller during the
    /// provider-order merge.
    fn sweep_one(
        &self,
        i: usize,
        quota: &[f64],
        prev: Option<&LqSolution>,
        config: &GameConfig,
        telemetry: &Recorder,
    ) -> Result<Response, CoreError> {
        let sp = &self.providers[i];
        let problem = sp.problem.with_capacities(quota.to_vec())?;
        let horizon = HorizonProblem::build(&problem, &sp.initial, &sp.demand, &sp.price_rows())?;
        let decision = match horizon.solve_or_recover(
            &config.ipm,
            &config.recovery,
            prev.map(|s| s.us.as_slice()),
            prev.map(|s| s.stage_duals.as_slice()),
            telemetry,
        ) {
            Ok(decision) => decision,
            Err(CoreError::Solver(_)) => return Ok(Response::Infeasible),
            Err(e) => return Err(e),
        };
        // A recovered placement's penalty-inflated cost and genuine
        // capacity duals pull quota back toward the starved provider on
        // the next division.
        let (cost, sol, shortfall) = match decision {
            Decision::Strict(sol) => (sol.objective, sol, None),
            Decision::Recovered { outcome, .. } => {
                let shortfall = outcome.total_resource_shortfall();
                let cost = outcome.solution.objective + config.recovery.penalty * shortfall;
                (cost, outcome.solution, Some(shortfall))
            }
        };
        let duals = horizon.capacity_duals(&sol);
        if telemetry.is_enabled() {
            // Per-stage average shadow price: capacity_duals sums the
            // per-stage multipliers over the window.
            let per_stage = 1.0 / self.horizon as f64;
            for d in &duals {
                telemetry.observe("game.capacity_dual", d * per_stage);
            }
        }
        Ok(Response::Solved {
            cost,
            duals,
            sol,
            shortfall,
        })
    }

    /// Runs one round's Jacobi sweep — every provider best-responds to
    /// the quotas fixed at the round start — sequentially or on a
    /// [`ScenarioPool`] when [`GameConfig::jobs`] `> 1`. Results come
    /// back in provider order either way, so the caller's merge is
    /// byte-deterministic regardless of worker count.
    fn sweep_round(
        &self,
        round: usize,
        quotas: &[Vec<f64>],
        prev: &[Option<LqSolution>],
        config: &GameConfig,
        telemetry: &Recorder,
    ) -> Vec<Result<Response, CoreError>> {
        let n = self.providers.len();
        if config.jobs > 1 && n > 1 {
            let pool = ScenarioPool::new(config.jobs).with_telemetry(telemetry.clone());
            let mut span = telemetry.tracer().span("game.round.parallel");
            span.attr("round", round);
            span.attr("jobs", pool.workers().min(n));
            span.attr("providers", n);
            let jobs: Vec<(String, _)> = (0..n)
                .map(|i| {
                    let (quota, prev) = (&quotas[i], prev[i].as_ref());
                    let job = move || self.sweep_one(i, quota, prev, config, telemetry);
                    (format!("game.best_response.{i}"), job)
                })
                .collect();
            pool.run_scoped(jobs)
                .into_iter()
                .map(|slot| match slot {
                    Ok(result) => result,
                    // A panicking best response is a solver bug, not a game
                    // outcome: surface it exactly like the sequential path.
                    Err(e) => panic!("{e}"),
                })
                .collect()
        } else {
            (0..n)
                .map(|i| self.sweep_one(i, &quotas[i], prev[i].as_ref(), config, telemetry))
                .collect()
        }
    }

    /// Runs Algorithm 2 from the equal-split initial quota.
    ///
    /// # Errors
    ///
    /// Returns an error only if a provider's subproblem stays infeasible
    /// even with its quota boosted to the full capacity — i.e. the game
    /// itself is infeasible.
    pub fn run(&self, config: &GameConfig) -> Result<GameOutcome, CoreError> {
        let n = self.providers.len();
        let quotas: Vec<Vec<f64>> =
            vec![self.total_capacity.iter().map(|c| c / n as f64).collect(); n];
        self.run_from(quotas, config)
    }

    /// Runs Algorithm 2 from explicit initial quotas (used to probe
    /// different equilibria for the price-of-anarchy estimate).
    ///
    /// # Errors
    ///
    /// See [`ResourceGame::run`]. Also rejects malformed quota vectors.
    pub fn run_from(
        &self,
        mut quotas: Vec<Vec<f64>>,
        config: &GameConfig,
    ) -> Result<GameOutcome, CoreError> {
        let n = self.providers.len();
        let nl = self.total_capacity.len();
        if quotas.len() != n || quotas.iter().any(|q| q.len() != nl) {
            return Err(CoreError::InvalidSpec(
                "initial quotas must be one vector per provider".into(),
            ));
        }
        self.apply_floors(&mut quotas);
        let telemetry = &config.telemetry;
        telemetry.incr("game.runs", 1);
        let mut prev_cost = f64::INFINITY;
        let mut outcome: Option<GameOutcome> = None;
        // Each provider's previous-round solution, carried as the warm
        // start (inputs and duals) for its next solve: None in round 1
        // and after an infeasible response, which force a cold start.
        let mut prev_sols: Vec<Option<LqSolution>> = (0..n).map(|_| None).collect();
        let mut trackers = vec![WarmStartTracker::new(); n];
        for iter in 1..=config.max_iterations {
            let mut round_span = telemetry.tracer().span("game.round");
            round_span.attr("round", iter);
            // Every provider best-responds to its quota (Jacobi sweep,
            // parallel when config.jobs > 1); merge in provider order.
            let responses = self.sweep_round(iter, &quotas, &prev_sols, config, telemetry);
            let mut costs = vec![0.0; n];
            let mut duals = vec![vec![0.0; nl]; n];
            let mut sols: Vec<Option<LqSolution>> = (0..n).map(|_| None).collect();
            let mut any_infeasible = false;
            for (i, response) in responses.into_iter().enumerate() {
                match response? {
                    Response::Solved {
                        cost,
                        duals: d,
                        sol,
                        shortfall,
                    } => {
                        if let Some(shortfall) = shortfall {
                            telemetry.incr("game.recovered_responses", 1);
                            telemetry.observe("game.response_shortfall", shortfall);
                        }
                        trackers[i].record(prev_sols[i].is_some(), sol.iterations, telemetry);
                        costs[i] = cost;
                        duals[i] = d;
                        sols[i] = Some(sol);
                    }
                    Response::Infeasible => {
                        telemetry.incr("game.infeasible_responses", 1);
                        any_infeasible = true;
                        costs[i] = f64::INFINITY;
                        duals[i] = self.total_capacity.iter().map(|c| c / n as f64).collect();
                    }
                }
            }
            let total: f64 = costs.iter().sum();
            if round_span.is_enabled() {
                round_span.attr("total_cost", total);
                round_span.attr("any_infeasible", any_infeasible);
                // Per-stage mean shadow prices, summed over providers and
                // DCs: one scalar proxy for how hard capacity binds.
                let per_stage = 1.0 / self.horizon as f64;
                let dual_l1: f64 = duals.iter().flatten().map(|d| d.abs() * per_stage).sum();
                round_span.attr("capacity_dual_l1", dual_l1);
            }

            // Paper's convergence test: |J − J̄| ≤ ε·J̄. Only meaningful
            // once a previous (finite) total exists.
            if !any_infeasible
                && prev_cost.is_finite()
                && (total - prev_cost).abs() <= config.epsilon * prev_cost
            {
                telemetry.incr("game.converged", 1);
                telemetry.observe("game.rounds", iter as f64);
                round_span.attr("converged", true);
                return Ok(GameOutcome {
                    iterations: iter,
                    converged: true,
                    total_cost: total,
                    provider_costs: costs,
                    quotas,
                    solutions: sols.into_iter().map(|s| s.expect("feasible")).collect(),
                });
            }
            prev_cost = if any_infeasible { f64::INFINITY } else { total };
            if !any_infeasible {
                outcome = Some(GameOutcome {
                    iterations: iter,
                    converged: false,
                    total_cost: total,
                    provider_costs: costs.clone(),
                    quotas: quotas.clone(),
                    solutions: sols.iter().map(|s| s.clone().expect("feasible")).collect(),
                });
            }
            prev_sols = sols;

            // Quota update: C̄ᵢ = Cᵢ + α·λᵢ, then renormalize per DC so the
            // quotas partition the true capacity. The duals are averaged
            // per stage: a quota applies to every stage of the window, so
            // its shadow price is the mean stage multiplier — without this,
            // longer prediction windows would mechanically inflate the
            // update step (and the convergence behaviour would depend on W
            // for the wrong reason).
            let per_stage = 1.0 / self.horizon as f64;
            let old_quotas =
                (telemetry.is_enabled() || round_span.is_enabled()).then(|| quotas.clone());
            let mut bars = quotas.clone();
            for i in 0..n {
                for l in 0..nl {
                    bars[i][l] += config.alpha * duals[i][l] * per_stage;
                }
            }
            for l in 0..nl {
                let sum: f64 = bars.iter().map(|b| b[l]).sum();
                let floor = 1e-6 * self.total_capacity[l];
                if sum <= 0.0 {
                    for q in &mut quotas {
                        q[l] = self.total_capacity[l] / n as f64;
                    }
                } else {
                    for (q, b) in quotas.iter_mut().zip(&bars) {
                        q[l] = (b[l] / sum * self.total_capacity[l]).max(floor);
                    }
                }
            }
            self.apply_floors(&mut quotas);
            if let Some(old) = old_quotas {
                let l1: f64 = old
                    .iter()
                    .zip(&quotas)
                    .flat_map(|(a, b)| a.iter().zip(b).map(|(x, y)| (x - y).abs()))
                    .sum();
                telemetry.observe("game.quota_adjustment_l1", l1);
                round_span.attr("quota_adjustment_l1", l1);
            }
        }

        // Out of iterations: the relative-cost test never fired. That is a
        // reportable condition (the paper's Figure 7 regime boundary), not
        // just a quietly-smaller outcome, so flag it loudly.
        telemetry.incr("game.max_rounds_hit", 1);
        match outcome {
            Some(mut o) => {
                o.iterations = config.max_iterations;
                telemetry.observe("game.rounds", config.max_iterations as f64);
                telemetry.tracer().event_with(
                    "game.max_rounds_hit",
                    [
                        ("severity", AttrValue::Str("warning".into())),
                        ("rounds", AttrValue::UInt(config.max_iterations as u64)),
                        ("total_cost", AttrValue::Float(o.total_cost)),
                        ("converged", AttrValue::Bool(false)),
                    ],
                );
                Ok(o)
            }
            None => {
                telemetry.tracer().event_with(
                    "game.max_rounds_hit",
                    [
                        ("severity", AttrValue::Str("warning".into())),
                        ("rounds", AttrValue::UInt(config.max_iterations as u64)),
                        ("feasible_iterate", AttrValue::Bool(false)),
                    ],
                );
                Err(CoreError::Solver(dspp_solver::SolverError::MaxIterations {
                    limit: config.max_iterations,
                    gap: f64::INFINITY,
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpSampler;
    use dspp_core::Allocation;

    fn quick_config() -> GameConfig {
        GameConfig {
            ipm: IpmSettings::fast(),
            ..GameConfig::default()
        }
    }

    /// Provider `i`'s capacity duals in its strict best response to
    /// `quota`.
    fn strict_duals(game: &ResourceGame, i: usize, quota: &[f64], ipm: &IpmSettings) -> Vec<f64> {
        let sp = &game.providers()[i];
        let problem = sp.problem.with_capacities(quota.to_vec()).unwrap();
        let horizon =
            HorizonProblem::build(&problem, &sp.initial, &sp.demand, &sp.price_rows()).unwrap();
        horizon.capacity_duals(&horizon.solve(ipm).unwrap())
    }

    #[test]
    fn validation() {
        assert!(ResourceGame::new(vec![], vec![1.0]).is_err());
        let sps = SpSampler::new(2, 1, 3).with_seed(1).sample(2).unwrap();
        assert!(ResourceGame::new(sps.clone(), vec![1.0]).is_err());
        assert!(ResourceGame::new(sps.clone(), vec![-1.0, 1.0]).is_err());
        assert!(ResourceGame::new(sps, vec![100.0, 100.0]).is_ok());
    }

    #[test]
    fn single_provider_converges_immediately() {
        // With one player and ample capacity there is no competition: the
        // cost is stable from the first repeat solve.
        let sps = SpSampler::new(2, 2, 3).with_seed(2).sample(1).unwrap();
        let game = ResourceGame::new(sps, vec![1000.0, 1000.0]).unwrap();
        let out = game.run(&quick_config()).unwrap();
        assert!(out.converged);
        assert!(out.iterations <= 3, "iterations {}", out.iterations);
        assert!(out.total_cost > 0.0);
    }

    #[test]
    fn quotas_partition_capacity() {
        let sps = SpSampler::new(2, 2, 3).with_seed(3).sample(3).unwrap();
        let game = ResourceGame::new(sps, vec![60.0, 80.0]).unwrap();
        let out = game.run(&quick_config()).unwrap();
        for l in 0..2 {
            let sum: f64 = out.quotas.iter().map(|q| q[l]).sum();
            assert!(
                (sum - game.total_capacity()[l]).abs() < 1e-6,
                "dc {l}: quota sum {sum}"
            );
        }
    }

    #[test]
    fn allocations_respect_shared_capacity() {
        let sps = SpSampler::new(2, 2, 4).with_seed(4).sample(3).unwrap();
        let caps = vec![45.0, 45.0];
        let game = ResourceGame::new(sps, caps.clone()).unwrap();
        let out = game.run(&quick_config()).unwrap();
        assert!(out.converged, "game did not converge");
        // At every stage the combined resource usage fits the capacity.
        for t in 1..=game.horizon() {
            for (l, &cap) in caps.iter().enumerate() {
                let mut used = 0.0;
                for (i, sol) in out.solutions.iter().enumerate() {
                    let sp = &game.providers()[i];
                    let x = Allocation::from_arc_values(&sp.problem, sol.xs[t].as_slice().to_vec());
                    used += x.per_dc(&sp.problem)[l] * sp.problem.server_size();
                }
                assert!(used <= cap + 1e-4, "stage {t} dc {l}: used {used} > {cap}");
            }
        }
    }

    #[test]
    fn tighter_capacity_takes_more_iterations() {
        // The Figure 7 effect: a tighter bottleneck converges slower.
        let sample = |seed| SpSampler::new(2, 2, 3).with_seed(seed).sample(6).unwrap();
        let demanding = |caps: Vec<f64>| {
            let game = ResourceGame::new(sample(5), caps).unwrap();
            game.run(&quick_config()).unwrap().iterations
        };
        let tight = demanding(vec![25.0, 400.0]);
        let loose = demanding(vec![400.0, 400.0]);
        assert!(
            tight >= loose,
            "tight {tight} should need at least as many iterations as loose {loose}"
        );
    }

    #[test]
    fn infeasible_game_is_reported() {
        // Total demand cannot fit the capacity at all. With a single data
        // center every location is captive, so the quota-floor check
        // rejects the game at construction.
        let sps = SpSampler::new(1, 2, 3).with_seed(6).sample(3).unwrap();
        let err = ResourceGame::new(sps, vec![0.5]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidSpec(_)), "got {err}");
    }

    #[test]
    fn telemetry_counts_rounds_and_duals() {
        let sps = SpSampler::new(2, 2, 3).with_seed(3).sample(3).unwrap();
        let game = ResourceGame::new(sps, vec![60.0, 80.0]).unwrap();
        let config = GameConfig {
            telemetry: dspp_telemetry::Recorder::enabled(),
            ..quick_config()
        };
        let out = game.run(&config).unwrap();
        let snap = config.telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("game.runs"), 1);
        let rounds = snap.histogram("game.rounds").unwrap();
        assert_eq!(rounds.count, 1);
        assert_eq!(rounds.sum as usize, out.iterations);
        if out.converged {
            assert_eq!(snap.counter("game.converged"), 1);
        }
        // 3 providers × 2 DCs of duals per round, minus rounds lost to
        // infeasible responses: at least one round's worth was observed.
        let duals = snap.histogram("game.capacity_dual").unwrap();
        assert!(duals.count >= 6, "dual observations: {}", duals.count);
        // The nested solver metrics flow into the same recorder.
        assert!(snap.counter("solver.lq.solves") > 0);
        // Quota updates happen on every round that does not converge.
        let expected_adjustments = if out.converged {
            out.iterations - 1
        } else {
            out.iterations
        };
        if expected_adjustments > 0 {
            let adj = snap.histogram("game.quota_adjustment_l1").unwrap();
            assert_eq!(adj.count as usize, expected_adjustments);
        }
    }

    #[test]
    fn max_rounds_exit_emits_warning_event_and_counter() {
        // epsilon < 0 makes the convergence test |J − J̄| ≤ ε·J̄
        // unsatisfiable, so the run must exhaust max_iterations.
        let sps = SpSampler::new(2, 2, 3).with_seed(3).sample(2).unwrap();
        let game = ResourceGame::new(sps, vec![200.0, 200.0]).unwrap();
        let tracer = dspp_telemetry::Tracer::enabled(256);
        let config = GameConfig {
            epsilon: -1.0,
            max_iterations: 3,
            telemetry: dspp_telemetry::Recorder::enabled().with_tracer(tracer.clone()),
            ..quick_config()
        };
        let out = game.run(&config).unwrap();
        assert!(!out.converged);
        assert_eq!(out.iterations, 3);
        let snap = config.telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("game.max_rounds_hit"), 1);
        assert_eq!(snap.counter("game.converged"), 0);
        let records = tracer.records();
        let warning = records
            .iter()
            .find_map(|r| match r {
                dspp_telemetry::TraceRecord::Event(e) if e.name == "game.max_rounds_hit" => Some(e),
                _ => None,
            })
            .expect("warning event must be recorded");
        assert!(warning
            .attrs
            .contains(&("severity", AttrValue::Str("warning".into()))));
        assert!(warning.attrs.contains(&("rounds", AttrValue::UInt(3))));
        assert!(warning
            .attrs
            .contains(&("converged", AttrValue::Bool(false))));
        // One round span per iteration rode along.
        let rounds = records
            .iter()
            .filter(|r| matches!(r, dspp_telemetry::TraceRecord::Span(s) if s.name == "game.round"))
            .count();
        assert_eq!(rounds, 3);
    }

    #[test]
    fn capacity_shock_nonconvergence_keeps_duals_finite_and_warns() {
        // Regression: shock the shared capacity down from the comfortable
        // 120 per DC the healthy tests use to 6 — tight enough that the
        // per-provider quotas bind, the capacity duals keep reshuffling
        // the partition, and the strict ε = 0 test (costs must repeat
        // exactly) cannot fire within the round budget. The run must
        // still exit cleanly: a feasible iterate is returned, every quota
        // dual at that iterate stays finite, and the non-convergence is
        // flagged loudly through the warning event, not silently dropped.
        let sps = SpSampler::new(2, 2, 3).with_seed(1).sample(3).unwrap();
        let game = ResourceGame::new(sps, vec![6.0, 6.0]).unwrap();
        let tracer = dspp_telemetry::Tracer::enabled(256);
        let config = GameConfig {
            epsilon: 0.0,
            max_iterations: 4,
            telemetry: dspp_telemetry::Recorder::enabled().with_tracer(tracer.clone()),
            ..quick_config()
        };
        let out = game.run(&config).unwrap();
        assert!(!out.converged, "shocked game must not converge at ε = 0");
        assert_eq!(out.iterations, 4);
        assert!(out.total_cost.is_finite());
        // Re-derive each provider's best response at the final quotas: the
        // capacity shadow prices must be finite (and non-negative) even
        // though capacity binds hard.
        for (i, quota) in out.quotas.iter().enumerate() {
            for (l, d) in strict_duals(&game, i, quota, &config.ipm)
                .iter()
                .enumerate()
            {
                assert!(
                    d.is_finite() && *d >= 0.0,
                    "provider {i} DC {l}: quota dual {d} not a finite shadow price"
                );
            }
        }
        // Every provider returned an actual placement at the final
        // iterate — no ∞-cost dead-ends survive the recovery path.
        assert_eq!(out.solutions.len(), game.providers().len());
        for (i, (sol, cost)) in out.solutions.iter().zip(&out.provider_costs).enumerate() {
            assert!(cost.is_finite(), "provider {i} cost {cost} not finite");
            assert!(
                sol.xs.iter().all(dspp_linalg::Vector::is_finite),
                "provider {i} placement has non-finite entries"
            );
        }
        let snap = config.telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("game.max_rounds_hit"), 1);
        assert_eq!(snap.counter("game.converged"), 0);
        assert_eq!(
            snap.counter("game.infeasible_responses"),
            0,
            "recovery must absorb starved quotas instead of dead-ending"
        );
        // The shock is real: capacity bound at some round (a positive
        // shadow price was observed), so the quotas were being reshuffled.
        let duals_seen = snap
            .histogram("game.capacity_dual")
            .expect("best responses must record capacity duals");
        assert!(
            duals_seen.quantile(1.0) > 0.0,
            "shock never produced a binding capacity constraint"
        );
        let records = tracer.records();
        let warning = records
            .iter()
            .find_map(|r| match r {
                dspp_telemetry::TraceRecord::Event(e) if e.name == "game.max_rounds_hit" => Some(e),
                _ => None,
            })
            .expect("capacity shock must emit the non-convergence warning");
        assert!(warning
            .attrs
            .contains(&("severity", AttrValue::Str("warning".into()))));
        assert!(warning
            .attrs
            .contains(&("converged", AttrValue::Bool(false))));
    }

    #[test]
    fn starved_quota_recovers_instead_of_dead_ending() {
        // Hand provider 0 a near-zero initial quota: its strict best
        // response is infeasible, so the first rounds must go through the
        // recovery solve (finite penalty-inflated cost, real duals) rather
        // than the ∞-cost synthetic-dual path.
        let sps = SpSampler::new(2, 2, 3).with_seed(9).sample(2).unwrap();
        let game = ResourceGame::new(sps, vec![40.0, 40.0]).unwrap();
        let quotas = vec![vec![0.05, 0.05], vec![39.95, 39.95]];
        let config = GameConfig {
            telemetry: dspp_telemetry::Recorder::enabled(),
            ..quick_config()
        };
        let out = game.run_from(quotas, &config).unwrap();
        let snap = config.telemetry.snapshot().unwrap();
        assert!(
            snap.counter("game.recovered_responses") >= 1,
            "starved provider must recover at least once"
        );
        assert_eq!(snap.counter("game.infeasible_responses"), 0);
        let shortfall = snap.histogram("game.response_shortfall").unwrap();
        assert!(shortfall.count >= 1);
        assert!(shortfall.sum > 0.0, "a starved response must shed demand");
        // The run ends with finite costs and placements for everyone.
        for (i, cost) in out.provider_costs.iter().enumerate() {
            assert!(cost.is_finite(), "provider {i} cost {cost}");
        }
        assert_eq!(out.solutions.len(), 2);
    }

    #[test]
    fn starved_best_response_is_one_solve() {
        // The starved provider's preflight finds the deficit, so its best
        // response runs the relaxation alone: no strict solve is certified
        // infeasible first, and every response is one solve.
        let sps = SpSampler::new(2, 2, 3).with_seed(9).sample(2).unwrap();
        let game = ResourceGame::new(sps, vec![40.0, 40.0]).unwrap();
        let quotas = vec![vec![0.05, 0.05], vec![39.95, 39.95]];
        let config = GameConfig {
            max_iterations: 4,
            telemetry: dspp_telemetry::Recorder::enabled(),
            ..quick_config()
        };
        let out = game.run_from(quotas, &config).unwrap();
        let snap = config.telemetry.snapshot().unwrap();
        assert!(snap.counter("game.recovered_responses") > 0);
        assert_eq!(snap.counter("game.infeasible_responses"), 0);
        assert_eq!(snap.counter("solver.lq.status.infeasible"), 0);
        let responses = out.iterations * game.providers().len();
        assert_eq!(snap.counter("solver.lq.solves"), responses as u64);
    }

    #[test]
    fn parallel_sweep_matches_sequential_bitwise() {
        // The Jacobi sweep merges results in provider order, so the whole
        // trajectory of the game — costs, quotas, solutions — must be
        // byte-identical for any worker count.
        let sps = SpSampler::new(2, 2, 3).with_seed(3).sample(4).unwrap();
        let game = ResourceGame::new(sps, vec![60.0, 80.0]).unwrap();
        let seq = game.run(&quick_config()).unwrap();
        let par = game
            .run(&GameConfig {
                jobs: 4,
                ..quick_config()
            })
            .unwrap();
        assert_eq!(seq.iterations, par.iterations);
        assert_eq!(seq.converged, par.converged);
        assert_eq!(seq.total_cost.to_bits(), par.total_cost.to_bits());
        for (a, b) in seq.provider_costs.iter().zip(&par.provider_costs) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (qa, qb) in seq.quotas.iter().zip(&par.quotas) {
            for (a, b) in qa.iter().zip(qb) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        for (sa, sb) in seq.solutions.iter().zip(&par.solutions) {
            assert_eq!(sa.iterations, sb.iterations);
            for (ua, ub) in sa.us.iter().zip(&sb.us) {
                for (a, b) in ua.as_slice().iter().zip(ub.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn parallel_sweep_emits_round_parallel_spans() {
        let sps = SpSampler::new(2, 2, 3).with_seed(3).sample(3).unwrap();
        let game = ResourceGame::new(sps, vec![60.0, 80.0]).unwrap();
        let tracer = dspp_telemetry::Tracer::enabled(1024);
        let config = GameConfig {
            jobs: 2,
            telemetry: dspp_telemetry::Recorder::enabled().with_tracer(tracer.clone()),
            ..quick_config()
        };
        let out = game.run(&config).unwrap();
        let spans: Vec<_> = tracer
            .records()
            .into_iter()
            .filter_map(|r| match r {
                dspp_telemetry::TraceRecord::Span(s) => Some(s),
                _ => None,
            })
            .collect();
        let rounds: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "game.round.parallel")
            .map(|s| s.id)
            .collect();
        assert_eq!(rounds.len(), out.iterations);
        // A job the calling thread runs nests under its round's span; a
        // spawned worker's job is a root.
        let jobs: Vec<_> = spans.iter().filter(|s| s.name == "runtime.job").collect();
        assert_eq!(jobs.len(), 3 * out.iterations);
        for job in jobs {
            assert!(job.parent.is_none_or(|p| rounds.contains(&p)), "{job:?}");
        }
    }

    #[test]
    fn rounds_after_the_first_warm_start_from_the_previous_round() {
        let sps = SpSampler::new(2, 2, 3).with_seed(3).sample(3).unwrap();
        let game = ResourceGame::new(sps, vec![60.0, 80.0]).unwrap();
        let config = GameConfig {
            telemetry: dspp_telemetry::Recorder::enabled(),
            ..quick_config()
        };
        let out = game.run(&config).unwrap();
        let snap = config.telemetry.snapshot().unwrap();
        let n = game.providers().len() as u64;
        if out.iterations > 1 {
            // Every provider solve after round 1 carries a warm start.
            let expected_hits = (out.iterations as u64 - 1) * n;
            assert_eq!(snap.counter("solver.lq.warm_hits"), expected_hits);
            assert_eq!(snap.counter("solver.lq.warm_starts"), expected_hits);
        }
    }

    /// On the `game.round_4sp` fixture of `dspp-bench`, round 2 starts
    /// each provider from its round-1 duals and slacks and saves
    /// iterations against round 1's cold solves; from the inputs alone it
    /// saved none.
    #[test]
    fn later_rounds_start_from_the_previous_duals() {
        let sps = SpSampler::new(2, 2, 3).with_seed(3).sample(4).unwrap();
        let game = ResourceGame::new(sps, vec![60.0, 80.0]).unwrap();
        for jobs in [1, 4] {
            let config = GameConfig {
                jobs,
                telemetry: dspp_telemetry::Recorder::enabled(),
                ..quick_config()
            };
            let out = game.run(&config).unwrap();
            let snap = config.telemetry.snapshot().unwrap();
            assert_eq!(out.iterations, 2, "jobs {jobs}");
            assert_eq!(snap.counter("solver.lq.warm_starts"), 4, "jobs {jobs}");
            assert_eq!(snap.counter("game.recovered_responses"), 0, "jobs {jobs}");
            assert!(
                snap.counter("solver.lq.iterations_saved") > 0,
                "jobs {jobs}: round 2 saved no iterations"
            );
        }
    }

    #[test]
    fn starved_provider_warm_starts_through_recovery() {
        // Provider 0's first rounds go through the recovery solve; the
        // warm carry must survive that path (the recovered placement is
        // mapped back to strict dimensions and seeds the next round).
        let sps = SpSampler::new(2, 2, 3).with_seed(9).sample(2).unwrap();
        let game = ResourceGame::new(sps, vec![40.0, 40.0]).unwrap();
        let quotas = vec![vec![0.05, 0.05], vec![39.95, 39.95]];
        let config = GameConfig {
            telemetry: dspp_telemetry::Recorder::enabled(),
            ..quick_config()
        };
        let out = game.run_from(quotas, &config).unwrap();
        let snap = config.telemetry.snapshot().unwrap();
        assert!(snap.counter("game.recovered_responses") >= 1);
        if out.iterations > 1 {
            assert!(
                snap.counter("solver.lq.warm_hits") > 0,
                "warm starts must carry through the recovery path"
            );
        }
    }

    #[test]
    fn game_metric_catalogue_matches_the_docs() {
        use std::collections::BTreeSet;
        let telemetry = dspp_telemetry::Recorder::enabled();
        let config = GameConfig {
            telemetry: telemetry.clone(),
            ..quick_config()
        };
        // A lone provider with ample capacity converges.
        let sps = SpSampler::new(2, 2, 3).with_seed(2).sample(1).unwrap();
        let lone = ResourceGame::new(sps, vec![1000.0, 1000.0]).unwrap();
        assert!(lone.run(&config).unwrap().converged);
        // A starved provider that recovers: provider 0 starts on a
        // near-zero quota. Three rounds do not settle the quotas.
        let sps = SpSampler::new(2, 2, 3).with_seed(9).sample(2).unwrap();
        let game = ResourceGame::new(sps, vec![40.0, 40.0]).unwrap();
        let starved = GameConfig {
            max_iterations: 3,
            ..config.clone()
        };
        let quotas = vec![vec![0.05, 0.05], vec![39.95, 39.95]];
        assert!(!game.run_from(quotas, &starved).unwrap().converged);
        // A game whose responses fail outright: `IpmSettings::validate`
        // rejects a zero iteration cap, so the strict and the recovery
        // solve both fail, and no round has a feasible iterate.
        let broken = GameConfig {
            max_iterations: 2,
            ipm: IpmSettings {
                max_iterations: 0,
                ..IpmSettings::fast()
            },
            ..config
        };
        assert!(game.run(&broken).is_err());
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("game.converged"), 1);
        assert!(snap.counter("game.recovered_responses") >= 1);
        assert_eq!(snap.counter("game.infeasible_responses"), 4);
        assert_eq!(snap.counter("game.max_rounds_hit"), 2);
        let emitted: BTreeSet<&str> = snap
            .counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
            .map(String::as_str)
            .filter(|name| name.starts_with("game."))
            .collect();
        // The rows of the `game.*` table in OBSERVABILITY.md.
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let section = doc
            .split("### `game.*`")
            .nth(1)
            .expect("OBSERVABILITY.md has the game.* section");
        let section = section.split("\n#").next().unwrap_or(section);
        let documented: BTreeSet<&str> = section
            .lines()
            .filter_map(|line| line.strip_prefix("| `"))
            .filter_map(|line| line.split('`').next())
            .collect();
        assert_eq!(emitted, documented, "emitted vs documented game.* metrics");
    }

    #[test]
    fn run_from_rejects_malformed_quotas() {
        let sps = SpSampler::new(2, 1, 2).with_seed(7).sample(2).unwrap();
        let game = ResourceGame::new(sps, vec![10.0, 10.0]).unwrap();
        assert!(game
            .run_from(vec![vec![5.0, 5.0]], &quick_config())
            .is_err());
    }
}
