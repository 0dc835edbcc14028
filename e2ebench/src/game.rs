//! `game_rolling`: six providers from [`SpSampler`] (4 DCs × 8 locations,
//! 32 arcs each) play Algorithm 2 every period over a W = 5 window, with
//! capacity tight enough that the quotas bind. Each period builds the
//! windowed game with [`ResourceGame::new`] and runs
//! [`ResourceGame::run_from`] warm-started from the previous quotas,
//! exactly as `dspp_game::run_rolling_game` does (the benchmark's tests
//! check the realized totals agree), on a two-worker sweep.
//!
//! The game layer and its many small best-response solves run only here.

use std::collections::BTreeMap;
use std::time::Instant;

use dspp_core::{Allocation, Dspp, DsppBuilder, HorizonProblem, RoutingPolicy};
use dspp_game::{GameConfig, GameOutcome, ResourceGame, ServiceProvider, SpSampler};
use dspp_telemetry::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alloc_count;
use crate::checks;
use crate::report::SolverCounters;
use crate::run::{Episode, Fingerprint, Options, Samples, SetupClock, Size, Workload};
use crate::stats::ratio;

/// Game window `W`.
pub const WINDOW: usize = 5;
/// Providers in the game.
pub const PROVIDERS: usize = 6;
/// Capacity of every DC, resource units: tight enough that quotas bind,
/// loose enough that every period converges in a few rounds.
pub const CAPACITY_PER_DC: f64 = 20.0;
/// Workers of the per-round best-response sweep.
const JOBS: usize = 2;
/// Untimed periods before the episode start: as many as the controller
/// workloads run, so that `setup_s` sums enough pieces to be steady.
const WARMUP: usize = 8;
/// Seed of the sampled provider population. The run's seed perturbs
/// their demand, so every seed plays the same market.
const POPULATION_SEED: u64 = 7;
/// Relative amplitude of the seeded demand perturbation.
const NOISE: f64 = 0.02;

/// Episode periods of each fixture size.
fn episode_periods(size: Size) -> usize {
    match size {
        Size::Full => 50,
        Size::Smoke => 4,
    }
}

/// The provider population for `periods` realized periods, with demand
/// perturbed by `seed`.
pub fn providers(periods: usize, seed: u64) -> Result<Vec<ServiceProvider>, String> {
    let mut providers = SpSampler::new(4, 8, periods + WINDOW)
        .with_seed(POPULATION_SEED)
        .sample(PROVIDERS)
        .map_err(|e| format!("game fixture: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    for sp in &mut providers {
        for d in sp.demand.iter_mut().flatten() {
            *d *= 1.0 + NOISE * rng.gen_range(-1.0..1.0);
        }
    }
    Ok(providers)
}

/// The game's default configuration with the benchmark's sweep width.
pub fn config(telemetry: Recorder) -> GameConfig {
    GameConfig {
        jobs: JOBS,
        telemetry,
        ..GameConfig::default()
    }
}

/// One realized period of the rolling game.
pub struct GamePeriod {
    /// The period's game (windowed providers, shared capacity).
    pub game: ResourceGame,
    /// Algorithm 2's outcome.
    pub outcome: GameOutcome,
    /// Each provider's allocation after executing its first control.
    pub states: Vec<Allocation>,
    /// Realized cost per provider.
    pub costs: Vec<f64>,
    /// Resource usage per DC.
    pub usage: Vec<f64>,
    /// Building the windowed providers, seconds.
    pub window_s: f64,
    /// `ResourceGame::new`, seconds.
    pub setup_s: f64,
    /// `run_from` (or `run` in the first period), seconds.
    pub decide_s: f64,
    /// Allocations made by the process during the decision.
    pub allocs: u64,
}

/// The rolling game, one period per [`RollingGame::step`].
pub struct RollingGame {
    providers: Vec<ServiceProvider>,
    capacity: Vec<f64>,
    config: GameConfig,
    states: Vec<Allocation>,
    quotas: Option<Vec<Vec<f64>>>,
    period: usize,
}

impl RollingGame {
    /// Starts the game at period 0 from the providers' initial
    /// allocations.
    pub fn new(providers: Vec<ServiceProvider>, capacity: Vec<f64>, config: GameConfig) -> Self {
        let states = providers.iter().map(|sp| sp.initial.clone()).collect();
        RollingGame {
            providers,
            capacity,
            config,
            states,
            quotas: None,
            period: 0,
        }
    }

    /// Plays one period: window the providers at the current period, run
    /// Algorithm 2 from the previous quotas, execute every provider's
    /// first control and bill it at the realized period's price.
    ///
    /// # Errors
    ///
    /// A message when the game rejects the period.
    pub fn step(&mut self) -> Result<GamePeriod, String> {
        let k = self.period;
        let start = Instant::now();
        let windowed = self
            .providers
            .iter()
            .zip(&self.states)
            .map(|(sp, state)| {
                let demand: Vec<Vec<f64>> = sp
                    .demand
                    .iter()
                    .map(|row| row[k..k + WINDOW].to_vec())
                    .collect();
                // Window index t pays the price of absolute period k + t.
                let prices: Vec<Vec<f64>> = (0..sp.problem.num_dcs())
                    .map(|l| {
                        (0..=WINDOW + 1)
                            .map(|t| sp.problem.price(l, k + t))
                            .collect()
                    })
                    .collect();
                let mut provider = ServiceProvider::new(with_prices(&sp.problem, &prices)?, demand)
                    .map_err(|e| e.to_string())?;
                provider.initial = state.clone();
                Ok(provider)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let window_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let game = ResourceGame::new(windowed, self.capacity.clone())
            .map_err(|e| format!("period {k}: {e}"))?;
        let setup_s = start.elapsed().as_secs_f64();

        let allocs_before = alloc_count::allocations();
        let start = Instant::now();
        let outcome = match &self.quotas {
            Some(q) => game.run_from(q.clone(), &self.config),
            None => game.run(&self.config),
        }
        .map_err(|e| format!("period {k}: {e}"))?;
        let decide_s = start.elapsed().as_secs_f64();
        let allocs = alloc_count::allocations() - allocs_before;
        self.quotas = Some(outcome.quotas.clone());

        let mut usage = vec![0.0; self.capacity.len()];
        let mut costs = Vec::with_capacity(self.providers.len());
        let mut states = Vec::with_capacity(self.providers.len());
        for ((sp, sol), old) in self
            .providers
            .iter()
            .zip(&outcome.solutions)
            .zip(&self.states)
        {
            let state = Allocation::from_arc_values(&sp.problem, sol.xs[1].as_slice().to_vec());
            let mut cost = 0.0;
            for (e, &(l, _)) in sp.problem.arcs().iter().enumerate() {
                let x = state.arc_values()[e];
                let u = x - old.arc_values()[e];
                cost += sp.problem.price(l, k + 1) * x + sp.problem.reconfig_weight(l) * u * u;
            }
            for (used, x) in usage.iter_mut().zip(state.per_dc(&sp.problem)) {
                *used += x * sp.problem.server_size();
            }
            costs.push(cost);
            states.push(state);
        }
        self.states.clone_from(&states);
        self.period += 1;
        Ok(GamePeriod {
            game,
            outcome,
            states,
            costs,
            usage,
            window_s,
            setup_s,
            decide_s,
            allocs,
        })
    }
}

/// A copy of `problem` with its price traces replaced.
fn with_prices(problem: &Dspp, prices: &[Vec<f64>]) -> Result<Dspp, String> {
    let (nl, nv) = (problem.num_dcs(), problem.num_locations());
    let latency: Vec<Vec<f64>> = (0..nl)
        .map(|l| (0..nv).map(|v| problem.latency(l, v)).collect())
        .collect();
    let mut builder = DsppBuilder::new(nl, nv)
        .service_rate(problem.sla().service_rate)
        .sla_latency(problem.sla().max_latency)
        .latency_rows(latency)
        .capacities(problem.capacities().to_vec())
        .server_size(problem.server_size())
        .reservation_ratio(problem.sla().reservation_ratio);
    if let Some(phi) = problem.sla().percentile {
        builder = builder.percentile(phi);
    }
    for (l, row) in prices.iter().enumerate() {
        builder = builder
            .price_trace(l, row.clone())
            .reconfiguration_weight(l, problem.reconfig_weight(l));
    }
    builder.build().map_err(|e| e.to_string())
}

/// The rolling-game workload, warmed up and ready to play its episode.
pub struct GameRolling {
    game: RollingGame,
    telemetry: Recorder,
    trace: bool,
    episode: usize,
}

impl Workload for GameRolling {
    // The exponent that made ten interleaved runs steadiest (NOTES.md).
    const SPEED_EXPONENT: f64 = 0.75;

    fn setup(opts: &Options, clock: &mut SetupClock) -> Result<Self, String> {
        let episode = episode_periods(opts.size);
        let telemetry = if opts.trace {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        let mut game = RollingGame::new(
            providers(WARMUP + episode, opts.seed)?,
            vec![CAPACITY_PER_DC; 4],
            config(telemetry.clone()),
        );
        clock.lap();
        for _ in 0..WARMUP {
            game.step()?;
            clock.lap();
        }
        Ok(GameRolling {
            game,
            telemetry,
            trace: opts.trace,
            episode,
        })
    }

    fn run_episode(&mut self, samples: &mut Samples) -> Result<Episode, String> {
        let episode_start = self.counters();
        let (mut cost, mut shed, mut required) = (0.0, 0.0, 0.0);
        let (mut rounds, mut allocs) = (0u64, 0u64);
        let workers = JOBS.min(PROVIDERS) as f64;
        for _ in 0..self.episode {
            let before = self.counters();
            samples.before_period();
            let start = Instant::now();
            let p = self.game.step()?;
            let period_s = start.elapsed().as_secs_f64();
            samples.period(period_s);
            samples.decide(p.decide_s, false);
            samples.add("game.setup", p.setup_s);
            samples.layer("loop.self", (period_s - p.decide_s) * 1e3);
            samples.layer("predict.forecast", p.window_s * 1e3);

            let verdict = self.check(&p, &mut shed, &mut required, samples);
            samples.checked(verdict);
            if self.trace {
                let after = self.counters();
                let solve_s = after.solve_seconds - before.solve_seconds;
                let assemble_s = replay_assembly(&p)? * p.outcome.iterations as f64;
                samples.layer("solver.solve", solve_s * 1e3);
                samples.layer("core.assemble", assemble_s * 1e3);
                samples.layer(
                    "core.unattributed",
                    (p.decide_s - (assemble_s + solve_s) / workers) * 1e3,
                );
            }
            cost += p.costs.iter().sum::<f64>();
            rounds += p.outcome.iterations as u64;
            allocs += p.allocs;
        }
        let periods = self.episode as f64;
        let cost_per_period = cost / periods;
        let served_share = 1.0 - shed / required;
        let counters = self.counters().since(episode_start);
        let best_responses = (rounds * PROVIDERS as u64) as f64;
        let counts = BTreeMap::from([
            ("core.allocs_per_decision", allocs as f64 / periods),
            (
                "solver.iterations_per_decision",
                counters.solver.lq_iterations / periods,
            ),
            (
                "solver.structured_share",
                counters.solver.structured_share(),
            ),
            (
                "solver.recovery_share",
                ratio(counters.recovered, best_responses),
            ),
            ("game.rounds_per_period", rounds as f64 / periods),
            ("game.best_responses", best_responses),
            ("game.recovered_responses", counters.recovered),
            ("game.warm_hits", counters.solver.warm_hits),
        ]);
        Ok(Episode {
            fingerprint: Fingerprint {
                game_rounds: rounds,
                cost_bits: cost_per_period.to_bits(),
                served_bits: served_share.to_bits(),
                ..Fingerprint::default()
            },
            cost_per_period,
            served_share,
            counts,
        })
    }
}

/// Recorder readings of the game's traced run.
#[derive(Debug, Clone, Copy, Default)]
struct GameCounters {
    solver: SolverCounters,
    solve_seconds: f64,
    recovered: f64,
}

impl GameCounters {
    fn since(self, earlier: GameCounters) -> Self {
        GameCounters {
            solver: self.solver.since(earlier.solver),
            solve_seconds: self.solve_seconds - earlier.solve_seconds,
            recovered: self.recovered - earlier.recovered,
        }
    }
}

impl GameRolling {
    fn counters(&self) -> GameCounters {
        let snap = self.telemetry.snapshot();
        GameCounters {
            solver: SolverCounters::read(&self.telemetry),
            solve_seconds: snap
                .as_ref()
                .and_then(|s| s.histogram("solver.lq.solve_seconds").map(|h| h.sum))
                .unwrap_or(0.0),
            recovered: snap.map_or(0.0, |s| s.counter("game.recovered_responses") as f64),
        }
    }

    /// The period's checks: every executed allocation non-negative, total
    /// usage within capacity, and each provider's eq. 13 router conserving
    /// the demand its allocation serves. Also books served demand and the
    /// routing time.
    fn check(
        &self,
        p: &GamePeriod,
        shed: &mut f64,
        required: &mut f64,
        samples: &mut Samples,
    ) -> Result<(), String> {
        checks::usage_within(&p.usage, &self.game.capacity)?;
        let mut route_s = 0.0;
        let mut verdict = Ok(());
        for (sp, state) in p.game.providers().iter().zip(&p.states) {
            let demand: Vec<f64> = sp.demand.iter().map(|row| row[0]).collect();
            let start = Instant::now();
            let routing = RoutingPolicy::from_allocation(&sp.problem, state);
            route_s += start.elapsed().as_secs_f64();
            let (s, r) = checks::shed_and_required(&sp.problem, state, &demand);
            *shed += s;
            *required += r;
            verdict = verdict
                .and_then(|()| checks::nonnegative(state.arc_values()))
                .and_then(|()| checks::routing_conserves(&sp.problem, &routing, &demand));
        }
        samples.layer("core.route", route_s * 1e3);
        verdict
    }
}

/// Replays one best-response sweep's horizon assembly at the converged
/// quotas (`HorizonProblem::build` per provider), seconds.
fn replay_assembly(p: &GamePeriod) -> Result<f64, String> {
    let mut total = 0.0;
    for (sp, quota) in p.game.providers().iter().zip(&p.outcome.quotas) {
        let problem = sp
            .problem
            .with_capacities(quota.clone())
            .map_err(|e| e.to_string())?;
        let prices = sp.price_rows();
        let start = Instant::now();
        let horizon = HorizonProblem::build(&problem, &sp.initial, &sp.demand, &prices)
            .map_err(|e| e.to_string())?;
        total += start.elapsed().as_secs_f64();
        std::hint::black_box(horizon);
    }
    Ok(total)
}
