//! `regional`: 20 DCs × 200 locations with three SLA-feasible arcs each
//! (600 arcs), W = 5, healthy capacity, driven by [`ClosedLoopSim`].
//!
//! It is the only workload above the solver's structured threshold (200
//! arcs), so the structured KKT backend runs, and dense horizon assembly
//! (`HorizonProblem::build_full` plus structure detection) is a large
//! layer. There is no ingest and no fault.

use std::cell::RefCell;
use std::f64::consts::PI;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dspp_core::{Dspp, DsppBuilder, MpcController, MpcSettings};
use dspp_predict::ArPredictor;
use dspp_sim::ClosedLoopSim;
use dspp_telemetry::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checks::shed_and_required;
use crate::paper::diurnal;
use crate::probe::{
    drain_forecast_seconds, SharedForecastLog, SharedStepLog, StepLog, TimedPolicy, TimedPredictor,
};
use crate::replay::{account_decision, ControllerSpec, Tally};
use crate::report::{controller_counts, SolverCounters};
use crate::run::{Episode, Fingerprint, Options, Samples, SetupClock, Size, Workload};

/// Prediction horizon `W`.
const HORIZON: usize = 5;
/// Untimed periods before the episode (the AR(2) fit needs six).
const WARMUP: usize = 8;
/// Capacity of every DC, servers: the cheapest DCs bind at the daily peak
/// while the total stays far above demand (no recovery).
const CAPACITY: f64 = 120.0;
/// Relative amplitude of the seeded per-(location, period) demand noise.
const NOISE: f64 = 0.01;

/// `(DCs, locations, episode periods)` of each fixture size.
fn sizes(size: Size) -> (usize, usize, usize) {
    match size {
        Size::Full => (20, 200, 24),
        Size::Smoke => (20, 200, 4),
    }
}

/// The regional instance: every location reaches exactly three DCs within
/// the SLA (the layout of the repository's 100×-scale solver fixture), and
/// prices follow seven tariff levels with a phase-shifted daily swing
/// over `periods` periods.
fn problem(dcs: usize, locs: usize, periods: usize) -> Result<Dspp, String> {
    let latency: Vec<Vec<f64>> = (0..dcs)
        .map(|l| {
            (0..locs)
                .map(|v| {
                    let near = l == v % dcs || l == (v + 31) % dcs || l == (v + 57) % dcs;
                    if near {
                        0.010
                    } else {
                        0.200
                    }
                })
                .collect()
        })
        .collect();
    let mut builder = DsppBuilder::new(dcs, locs)
        .service_rate(250.0)
        .sla_latency(0.060)
        .latency_rows(latency);
    for l in 0..dcs {
        let base = 0.004 + 0.002 * ((l % 7) as f64);
        let prices = (0..periods)
            .map(|k| base * (1.0 + 0.25 * (2.0 * PI * (k + 3 * l) as f64 / 24.0).sin()))
            .collect();
        builder = builder
            .price_trace(l, prices)
            .reconfiguration_weight(l, 0.001)
            .capacity(l, CAPACITY);
    }
    builder
        .build()
        .map_err(|e| format!("regional fixture: {e}"))
}

/// The regional closed-loop workload, warmed up and ready to play its
/// episode.
pub struct Regional {
    sim: ClosedLoopSim,
    steps: SharedStepLog,
    forecasts: SharedForecastLog,
    spec: ControllerSpec,
    telemetry: Recorder,
    episode: usize,
}

impl Workload for Regional {
    // Lower than the other loops: dense assembly moves memory more than
    // it computes, and slows less than the probe (NOTES.md).
    const SPEED_EXPONENT: f64 = 0.45;

    fn setup(opts: &Options, clock: &mut SetupClock) -> Result<Self, String> {
        let (dcs, locs, episode) = sizes(opts.size);
        // The sim scores each decision against the next period's demand.
        let periods = WARMUP + episode + 1;
        let problem = problem(dcs, locs, periods + HORIZON + 2)?;

        // Diurnal demand per location at one of eleven levels, with seeded
        // multiplicative noise (the seed changes the inputs, not their
        // scale).
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let demand: Vec<Vec<f64>> = (0..locs)
            .map(|v| {
                let level = 700.0 + 30.0 * ((v * 37) % 11) as f64;
                (0..periods)
                    .map(|k| {
                        let jitter = 1.0 + NOISE * rng.gen_range(-1.0..1.0);
                        level * diurnal(k as f64 + 0.5) * jitter
                    })
                    .collect()
            })
            .collect();

        let telemetry = if opts.trace {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        let settings = MpcSettings {
            horizon: HORIZON,
            telemetry: telemetry.clone(),
            ..MpcSettings::default()
        };
        let spec = ControllerSpec {
            problem: problem.clone(),
            horizon: HORIZON,
            ipm: settings.ipm.clone(),
            recovery: settings.recovery.clone(),
            schedule: None,
        };
        let forecasts: SharedForecastLog = Arc::new(Mutex::new(Vec::new()));
        let predictor = TimedPredictor::new(
            Box::new(
                ArPredictor::new(2)
                    .with_window(24)
                    .with_stability_clamp(2.0),
            ),
            forecasts.clone(),
        );
        let controller = MpcController::new(problem, Box::new(predictor), settings)
            .map_err(|e| format!("regional controller: {e}"))?;
        let steps: SharedStepLog = Rc::new(RefCell::new(StepLog::default()));
        let mut sim = ClosedLoopSim::new(
            Box::new(TimedPolicy::new(Box::new(controller), steps.clone())),
            demand,
        )
        .map_err(|e| format!("regional sim: {e}"))?;
        clock.lap();
        for _ in 0..WARMUP {
            sim.step().map_err(|e| format!("regional warm-up: {e}"))?;
            clock.lap();
        }
        steps.borrow_mut().records.clear();
        steps.borrow_mut().capture_state = opts.trace;
        drain_forecast_seconds(&forecasts);
        Ok(Regional {
            sim,
            steps,
            forecasts,
            spec,
            telemetry,
            episode,
        })
    }

    fn run_episode(&mut self, samples: &mut Samples) -> Result<Episode, String> {
        let solver_before = SolverCounters::read(&self.telemetry);
        let mut tally = Tally::default();
        let (mut shed, mut required) = (0.0, 0.0);
        for _ in 0..self.episode {
            samples.before_period();
            let start = Instant::now();
            self.sim
                .step()
                .map_err(|e| format!("regional period failed: {e}"))?;
            let period_s = start.elapsed().as_secs_f64();
            samples.period(period_s);

            let record = self
                .steps
                .borrow_mut()
                .records
                .pop()
                .ok_or("the sim stepped without a decision")?;
            let forecast_s = drain_forecast_seconds(&self.forecasts);
            samples.layer("loop.self", (period_s - record.decide_s) * 1e3);
            let outcome =
                account_decision(samples, &mut tally, &self.spec, record, forecast_s, None);
            let period = self.sim.periods().last().ok_or("no scored period")?;
            if let Some(outcome) = outcome {
                let (s, r) = shed_and_required(
                    &self.spec.problem,
                    &outcome.allocation,
                    &period.realized_demand,
                );
                shed += s;
                required += r;
            }
        }
        let cost_per_period = tally.cost / self.episode as f64;
        let served_share = 1.0 - shed / required;
        Ok(Episode {
            fingerprint: Fingerprint {
                solver_iterations: tally.iterations,
                recovery_decisions: tally.recoveries,
                cost_bits: cost_per_period.to_bits(),
                served_bits: served_share.to_bits(),
                ..Fingerprint::default()
            },
            cost_per_period,
            served_share,
            counts: controller_counts(
                &tally,
                SolverCounters::read(&self.telemetry).since(solver_before),
            ),
        })
    }
}
