//! `paper_stream`: the paper's instance (4 DCs × 24 cities, 65
//! SLA-feasible arcs) driven from raw request events through
//! [`IngestLoop`] on one shard, with a W = 5 AR(2) controller and a fault
//! plan of brownouts and a DC outage fed to `with_capacity_schedule`.
//!
//! It is the paper's scale: the dense Riccati solve dominates a decision,
//! ingest is a large share of each period, and the recovery path and the
//! masked republish run here and nowhere else. The fault plan puts about a
//! third of the decisions on the recovery path, so the median decision is
//! a strict one and the 90th percentile a recovery one, each well inside
//! its own mode.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dspp_core::{MpcController, MpcSettings};
use dspp_experiments::scenario::{populations, wide_area_problem, SLA_LATENCY};
use dspp_ingest::{BackpressureBudget, IngestConfig, IngestLoop};
use dspp_predict::ArPredictor;
use dspp_runtime::FaultPlan;
use dspp_telemetry::Recorder;

use crate::probe::{
    drain_forecast_seconds, SharedForecastLog, SharedStepLog, StepLog, TimedPolicy, TimedPredictor,
};
use crate::replay::{account_decision, ControllerSpec, Tally};
use crate::report::{controller_counts, SolverCounters};
use crate::run::{Episode, Fingerprint, Options, Samples, SetupClock, Size, Workload};
use crate::stats::ratio;

/// Prediction horizon `W`.
const HORIZON: usize = 5;
/// Untimed periods before the episode (the AR(2) fit needs six
/// observations; two more settle the warm start).
const WARMUP: usize = 8;
/// Event time per control period, seconds.
const PERIOD_SECONDS: u64 = 60;
/// Reconfiguration weight of every DC.
const RECONFIG_WEIGHT: f64 = 0.001;
/// `(episode periods, mean events per period, brownout)` of each fixture
/// size. `brownout` is the capacity share every DC keeps during a
/// brownout: at full size 10 servers per DC, 40 in all, below the ≈ 50
/// servers the daytime peak needs; the smoke size scales it with the load.
fn sizes(size: Size) -> (usize, f64, f64) {
    match size {
        // Two simulated days at ≈ 0.5 M events per period.
        Size::Full => (48, 500_000.0, 0.005),
        Size::Smoke => (16, 20_000.0, 0.000_15),
    }
}

/// Demand shape at hour `h` (one period is one hour of the day): a
/// sinusoid with mean 1, trough 0.55 at 02:00 and peak 1.45 at 14:00.
/// A sinusoid is exactly AR(2)-representable, so the forecaster tracks
/// the day instead of overshooting a step-shaped working-hours ramp into
/// its clamp — which would make every decision hinge on input noise.
pub fn diurnal(h: f64) -> f64 {
    1.0 - 0.45 * (2.0 * std::f64::consts::PI * (h - 2.0) / 24.0).cos()
}

/// The fault plan, in absolute periods (the episode starts at `WARMUP`).
///
/// Daytime brownouts cap every DC at a `brownout` share of its capacity
/// (see [`sizes`]), so the aggregate preflight fails and the controller recovers by shedding
/// exactly the deficit. Each window puts itself plus the W − 1 periods
/// whose lookahead already sees it on the recovery path: 14 of the 48
/// full-size decisions (29 %). A night-time outage of DC 3 exercises the
/// masked republish without recovery (the survivors absorb its cities).
/// Outages of DC 0, the only DC with captive cities, are left out on
/// purpose: serving its other cities through near-SLA-limit arcs needs
/// thousands of servers, and whether the relaxation ramps them up a period
/// earlier or later flips with the event noise, so cost and solve times
/// would vary by seed far more than any bound could absorb.
fn fault_plan(size: Size) -> FaultPlan {
    let (brownouts, outage): (&[(usize, usize)], usize) = match size {
        Size::Full => (&[(12, 3), (36, 3)], 24),
        Size::Smoke => (&[(12, 3)], 18),
    };
    let (_, _, brownout) = sizes(size);
    let mut plan = FaultPlan::new().dc_outage(3, outage, 3);
    for &(start, periods) in brownouts {
        for dc in 0..4 {
            plan = plan.capacity_degrade(dc, brownout, start, periods);
        }
    }
    plan
}

/// The paper-scale streaming workload, warmed up and ready to play its
/// episode.
pub struct PaperStream {
    ingest: IngestLoop,
    steps: SharedStepLog,
    forecasts: SharedForecastLog,
    spec: ControllerSpec,
    telemetry: Recorder,
    episode: usize,
}

impl Workload for PaperStream {
    // The exponent that made ten interleaved runs steadiest (NOTES.md).
    const SPEED_EXPONENT: f64 = 0.75;

    fn setup(opts: &Options, clock: &mut SetupClock) -> Result<Self, String> {
        let (episode, events_per_period, _) = sizes(opts.size);
        let periods = WARMUP + episode;
        let locations: Vec<usize> = (0..24).collect();
        let problem = wide_area_problem(
            &locations,
            periods + HORIZON + 2,
            RECONFIG_WEIGHT,
            SLA_LATENCY,
        )
        .map_err(|e| format!("paper fixture: {e}"))?;

        // Diurnal, population-weighted arrival rates: a mean period carries
        // `events_per_period` events.
        let total_rate = events_per_period / PERIOD_SECONDS as f64;
        let pops = populations();
        let pop_sum: f64 = pops.iter().sum();
        let rates: Vec<Vec<f64>> = pops
            .iter()
            .map(|p| {
                (0..periods)
                    .map(|k| total_rate * p / pop_sum * diurnal(k as f64 + 0.5))
                    .collect()
            })
            .collect();
        let schedule = fault_plan(opts.size)
            .capacity_schedule(&problem, periods + HORIZON)
            .ok_or("the fault plan removes no capacity")?;

        let telemetry = if opts.trace {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        let settings = MpcSettings {
            horizon: HORIZON,
            ..MpcSettings::default()
        };
        let spec = ControllerSpec {
            problem: problem.clone(),
            horizon: HORIZON,
            ipm: settings.ipm.clone(),
            recovery: settings.recovery.clone(),
            schedule: Some(schedule.clone()),
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
            .map_err(|e| format!("paper controller: {e}"))?;
        let steps: SharedStepLog = Rc::new(RefCell::new(StepLog::default()));
        let config = IngestConfig::new(opts.seed)
            .with_period_seconds(PERIOD_SECONDS)
            .with_jobs(1)
            // No drops: stranded cities defer for the whole outage.
            .with_budget(BackpressureBudget::new(u64::MAX / 4, u64::MAX / 4));
        let mut ingest = IngestLoop::new(
            Box::new(TimedPolicy::new(Box::new(controller), steps.clone())),
            rates,
            config,
        )
        .and_then(|l| l.with_capacity_schedule(schedule))
        .map_err(|e| format!("paper ingest loop: {e}"))?;
        if opts.trace {
            ingest = ingest.with_telemetry(telemetry.clone());
        }
        clock.lap();
        for _ in 0..WARMUP {
            ingest.step().map_err(|e| format!("paper warm-up: {e}"))?;
            clock.lap();
        }
        steps.borrow_mut().records.clear();
        steps.borrow_mut().capture_state = opts.trace;
        drain_forecast_seconds(&forecasts);
        Ok(PaperStream {
            ingest,
            steps,
            forecasts,
            spec,
            telemetry,
            episode,
        })
    }

    fn run_episode(&mut self, samples: &mut Samples) -> Result<Episode, String> {
        let before = *self.ingest.totals();
        let republishes_before = self.counter("ingest.snapshot_republishes");
        let solver_before = SolverCounters::read(&self.telemetry);
        let schedule = self.spec.schedule.clone().unwrap_or_default();
        let arcs = self.spec.problem.arcs().to_vec();
        let dcs = self.spec.problem.num_dcs();
        let mut tally = Tally::default();
        let mut routed = 0u64;
        for _ in 0..self.episode {
            samples.before_period();
            let start = Instant::now();
            self.ingest
                .step()
                .map_err(|e| format!("paper period failed: {e}"))?;
            let period_s = start.elapsed().as_secs_f64();
            samples.period(period_s);

            let record = self
                .steps
                .borrow_mut()
                .records
                .pop()
                .ok_or("the loop stepped without a decision")?;
            let forecast_s = drain_forecast_seconds(&self.forecasts);
            samples.layer("loop.self", (period_s - record.decide_s) * 1e3);
            let sealed = self.ingest.sealed().last().ok_or("no sealed period")?;
            let k = sealed.period;
            let alive: Vec<bool> = schedule.get(k).map_or_else(
                || vec![true; dcs],
                |caps| caps.iter().map(|&c| c > 0.0).collect(),
            );
            account_decision(
                samples,
                &mut tally,
                &self.spec,
                record,
                forecast_s,
                Some(&alive),
            );

            // Ingest checks: nothing lands on a dead DC, and every
            // generated event is admitted, dropped, or still backlogged.
            let dead_events: u64 = sealed
                .arc_counts
                .iter()
                .zip(&arcs)
                .filter(|&(_, &(l, _))| !alive[l])
                .map(|(&n, _)| n)
                .sum();
            if dead_events > 0 {
                samples.fail(format!(
                    "period {k}: {dead_events} events routed to a dead DC"
                ));
            }
            routed += sealed.total_events() - sealed.unroutable;
            let t = self.ingest.totals();
            let backlog: u64 = self.ingest.carry_backlog().iter().sum();
            if t.generated != t.admitted + t.dropped + backlog {
                samples.fail(format!(
                    "period {k}: generated {} != admitted {} + dropped {} + backlog {backlog}",
                    t.generated, t.admitted, t.dropped
                ));
            }
        }
        let after = *self.ingest.totals();
        let generated = after.generated - before.generated;
        let cost_per_period = tally.cost / self.episode as f64;
        let served_share = ratio(routed as f64, generated as f64);
        let fingerprint = Fingerprint {
            solver_iterations: tally.iterations,
            recovery_decisions: tally.recoveries,
            events_admitted: after.admitted - before.admitted,
            events_deferred: after.deferred - before.deferred,
            events_dropped: after.dropped - before.dropped,
            cost_bits: cost_per_period.to_bits(),
            served_bits: served_share.to_bits(),
            ..Fingerprint::default()
        };
        let mut counts = controller_counts(
            &tally,
            SolverCounters::read(&self.telemetry).since(solver_before),
        );
        counts.extend([
            ("ingest.events", generated as f64),
            ("ingest.deferred", fingerprint.events_deferred as f64),
            ("ingest.dropped", fingerprint.events_dropped as f64),
            (
                "ingest.unroutable",
                (after.unroutable - before.unroutable) as f64,
            ),
            (
                "ingest.republishes",
                (self.counter("ingest.snapshot_republishes") - republishes_before) as f64,
            ),
            (
                "ingest.events_per_s",
                ratio(
                    (after.admitted - before.admitted) as f64,
                    after.route_wall_seconds - before.route_wall_seconds,
                ),
            ),
        ]);
        Ok(Episode {
            fingerprint,
            cost_per_period,
            served_share,
            counts,
        })
    }
}

impl PaperStream {
    fn counter(&self, name: &str) -> u64 {
        self.telemetry.snapshot().map_or(0, |s| s.counter(name))
    }
}
