//! The streaming closed loop: events → tallies → sealed matrices → MPC.
//!
//! [`IngestLoop`] runs one control period at a time:
//!
//! 1. **Fan out.** Cities are split into contiguous shards. Every shard
//!    but the last runs on a scoped thread of its own, and the last on
//!    the loop thread, so a one-shard loop spawns no thread. Per city, a
//!    shard draws the arrival count of the city's deterministic arrival
//!    stream and admits against the per-city budget (carry-over first,
//!    then a prefix of the arrivals). One loop then draws each admitted
//!    request's attribute word (a fresh request's from the arrival
//!    stream, a carried one's from the routing stream) and its routing
//!    word from the routing stream, and counts the routing words that
//!    reach each pick threshold of the city's table in the period's
//!    [`RouterSnapshot`], which every shard borrows; each arc's count is
//!    the difference of two threshold counts. The counts go into the
//!    shard's own plain-integer tally, and the shard ends its pass by
//!    weighing its attribute histogram into payload KiB per class.
//! 2. **Period-close barrier.** The scope joins every spawned shard, so a
//!    shard that panics panics the period. The loop thread then folds the
//!    tallies, in shard order, into a [`SealedPeriod`] — one column of
//!    exactly the demand-matrix shape the MPC consumes.
//! 3. **Control step.** The placement policy observes the sealed rates
//!    and decides the next placement, which is published as the next
//!    snapshot version; SLO samples and `ingest.*` telemetry are emitted.
//!    The period commits — carry backlog, sealed ledger, totals and
//!    counters — only once the step succeeds, so a failed step leaves the
//!    loop exactly where it was and a retry replays the same period.
//!
//! Checkpoint/restore freezes the loop between periods (carry backlog,
//! sealed history, totals, controller state) with bit-exact resume:
//! per-`(city, period)` RNG streams are freshly seeded each period, so a
//! restored loop replays the identical event sequence.

use std::time::Instant;

use dspp_core::{CoreError, Dspp, PlacementPolicy, RoutingPolicy};
use dspp_telemetry::{Recorder, SloEngine, SloSample};

use crate::backpressure::{admit, BackpressureBudget};
use crate::bucket::{SealedPeriod, ShardTally};
use crate::generator::{arrival_stream, routing_stream};
use crate::snapshot::RouterSnapshot;

/// The largest per-period arrival mean a rate plan may ask for: 2^53,
/// the largest count an `f64` Poisson draw holds exactly. It keeps a
/// mean that overflows to infinity away from `poisson::sample`'s
/// assertion; it does not bound how long a period takes.
const MAX_PERIOD_MEAN: f64 = (1u64 << 53) as f64;

/// Errors surfaced by the ingest loop.
#[derive(Debug)]
pub enum IngestError {
    /// The controller (or its solver) failed a step.
    Core(CoreError),
    /// Malformed configuration or checkpoint.
    Invalid(String),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Core(e) => write!(f, "controller step failed: {e}"),
            IngestError::Invalid(m) => write!(f, "invalid ingest state: {m}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<CoreError> for IngestError {
    fn from(e: CoreError) -> Self {
        IngestError::Core(e)
    }
}

/// Static configuration of one ingest run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Root RNG seed; every `(city, period)` stream derives from it.
    pub seed: u64,
    /// Wall-clock length of one control period, in seconds (the divisor
    /// turning sealed counts into the rates the MPC observes);
    /// [`IngestLoop::new`] rejects 0.
    pub period_seconds: u64,
    /// Shards per period (clamped to `1..=cities`); the last runs on the
    /// loop thread and each other on a thread of its own.
    pub jobs: usize,
    /// Per-city admission limits.
    pub budget: BackpressureBudget,
}

impl IngestConfig {
    /// Defaults: one-hour periods, single shard, unlimited budget.
    pub fn new(seed: u64) -> Self {
        IngestConfig {
            seed,
            period_seconds: 3600,
            jobs: 1,
            budget: BackpressureBudget::unlimited(),
        }
    }

    /// Sets the period length in seconds (clamped to ≥ 1).
    pub fn with_period_seconds(mut self, seconds: u64) -> Self {
        self.period_seconds = seconds.max(1);
        self
    }

    /// Sets the shard count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Sets the admission budget.
    pub fn with_budget(mut self, budget: BackpressureBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// Cumulative totals of a run (also the report the drills print).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IngestTotals {
    /// Requests generated by the arrival processes.
    pub generated: u64,
    /// Requests admitted (routed into demand matrices).
    pub admitted: u64,
    /// Admitted requests with no routable arc under the live placement.
    pub unroutable: u64,
    /// Deferral decisions (requests pushed into a later period).
    pub deferred: u64,
    /// Requests dropped at the carry bound.
    pub dropped: u64,
    /// Periods the controller absorbed via fallback.
    pub fallback_periods: u64,
    /// Periods resolved by a recovery solve.
    pub recovery_periods: u64,
    /// Hosting + reconfiguration cost of all executed steps.
    pub step_cost: f64,
    /// Wall-clock seconds of the shard fan-out: generating and routing
    /// (the fold into the sealed period is not included). Checkpoints do
    /// not carry it, so a restored loop counts only its own periods.
    pub route_wall_seconds: f64,
}

impl IngestTotals {
    /// Measured ingest throughput in admitted requests per wall-clock
    /// second of generating and routing (0 before any period ran).
    pub fn req_per_sec(&self) -> f64 {
        if self.route_wall_seconds > 0.0 {
            self.admitted as f64 / self.route_wall_seconds
        } else {
            0.0
        }
    }
}

/// The request-level streaming closed loop. See the module docs.
pub struct IngestLoop {
    controller: Box<dyn PlacementPolicy>,
    /// Mean arrival rates, `[city][period]`, requests/second.
    rates: Vec<Vec<f64>>,
    config: IngestConfig,
    /// The published routing snapshot every shard of the next period
    /// routes off; replaced only between periods, by `publish`.
    snapshot: RouterSnapshot,
    /// Deferred-request backlog per city.
    carry: Vec<u64>,
    /// The backlog the in-flight period leaves behind; swapped into
    /// `carry` when the period commits.
    next_carry: Vec<u64>,
    /// One tally per shard, reused every period.
    tallies: Vec<ShardTally>,
    sealed: Vec<SealedPeriod>,
    cursor: usize,
    telemetry: Recorder,
    slos: Option<SloEngine>,
    totals: IngestTotals,
    /// Per-period absolute capacity vectors (`schedule[k][dc]`); `None`
    /// runs at nominal capacity, like every period past the schedule's
    /// end.
    capacity_schedule: Option<Vec<Vec<f64>>>,
    /// The live-DC mask the currently published snapshot was compiled
    /// under (all true while no DC has zero scheduled capacity).
    published_mask: Vec<bool>,
    /// The routing policy behind the currently published snapshot, kept
    /// so an alive-mask change can recompile it before fan-out.
    routing: RoutingPolicy,
    /// Cities whose routable weight sits entirely on dead DCs under the
    /// published mask; their requests defer instead of misrouting.
    stranded: Vec<bool>,
}

impl std::fmt::Debug for IngestLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestLoop")
            .field("controller", &self.controller.name())
            .field("cursor", &self.cursor)
            .field("periods", &self.periods())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl IngestLoop {
    /// Builds a loop over `controller` and a rate plan (`rates[city]` is
    /// that city's mean request rate per period). The initial placement
    /// is published as snapshot version 1.
    ///
    /// # Errors
    ///
    /// [`IngestError::Invalid`] when the period is zero seconds long,
    /// or the rate plan is empty, ragged, non-finite, negative, does not
    /// match the problem's city count, or holds a rate whose per-period
    /// mean `rate · period_seconds` exceeds 2^53, the largest count an
    /// `f64` draw holds exactly.
    pub fn new(
        controller: Box<dyn PlacementPolicy>,
        rates: Vec<Vec<f64>>,
        config: IngestConfig,
    ) -> Result<Self, IngestError> {
        if config.period_seconds == 0 {
            return Err(IngestError::Invalid("period_seconds must be > 0".into()));
        }
        let cities = controller.problem().num_locations();
        if rates.len() != cities {
            return Err(IngestError::Invalid(format!(
                "rate plan covers {} cities, problem has {cities}",
                rates.len()
            )));
        }
        let periods = rates.first().map(Vec::len).unwrap_or(0);
        if periods == 0 {
            return Err(IngestError::Invalid("rate plan has no periods".into()));
        }
        let period_seconds = config.period_seconds as f64;
        for (v, row) in rates.iter().enumerate() {
            if row.len() != periods {
                return Err(IngestError::Invalid(format!(
                    "ragged rate plan: city {v} has {} periods, expected {periods}",
                    row.len()
                )));
            }
            if let Some(bad) = row.iter().find(|r| !r.is_finite() || **r < 0.0) {
                return Err(IngestError::Invalid(format!(
                    "city {v} has invalid rate {bad}"
                )));
            }
            if let Some(bad) = row.iter().find(|r| **r * period_seconds > MAX_PERIOD_MEAN) {
                return Err(IngestError::Invalid(format!(
                    "city {v} has rate {bad}, a mean above 2^53 arrivals per \
                     {period_seconds} s period"
                )));
            }
        }
        let initial =
            RoutingPolicy::from_allocation(controller.problem(), &controller.initial_placement());
        let all_live = vec![true; controller.problem().num_dcs()];
        let snapshot = RouterSnapshot::compile_masked(controller.problem(), &initial, &all_live, 1);
        let arcs = controller.problem().num_arcs();
        Ok(IngestLoop {
            carry: vec![0; cities],
            next_carry: vec![0; cities],
            tallies: shard_tallies(cities, config.jobs, arcs),
            capacity_schedule: None,
            published_mask: all_live,
            routing: initial,
            stranded: vec![false; cities],
            controller,
            rates,
            config,
            snapshot,
            sealed: Vec::new(),
            cursor: 0,
            telemetry: Recorder::disabled(),
            slos: None,
            totals: IngestTotals::default(),
        })
    }

    /// Installs infrastructure faults. `schedule[k]` is the absolute
    /// per-DC capacity vector in force at period `k` (periods past the
    /// end of the schedule run at nominal capacity). The schedule is
    /// forwarded to the controller — whose MPC then plans around the
    /// degraded stages — and decides which DCs are live each period:
    /// whenever the set of live DCs changes, the current routing table
    /// is recompiled without the dead DCs *before* the period's events
    /// fan out, so no request is ever routed to a DC with zero
    /// capacity. Requests from cities stranded by an outage
    /// (all their routable weight on dead DCs) defer into the carry
    /// backlog, bounded by the admission budget's
    /// `max_carry_per_city` — size the budget accordingly, since
    /// [`BackpressureBudget::unlimited`] has a zero carry bound and
    /// would drop stranded mass instead.
    ///
    /// # Errors
    ///
    /// [`IngestError::Invalid`] when a row does not cover every DC or
    /// contains a non-finite or negative capacity.
    pub fn with_capacity_schedule(mut self, schedule: Vec<Vec<f64>>) -> Result<Self, IngestError> {
        let dcs = self.controller.problem().num_dcs();
        for (k, row) in schedule.iter().enumerate() {
            if row.len() != dcs {
                return Err(IngestError::Invalid(format!(
                    "capacity schedule row {k} has {} entries, problem has {dcs} DCs",
                    row.len()
                )));
            }
            if let Some(bad) = row.iter().find(|c| !c.is_finite() || **c < 0.0) {
                return Err(IngestError::Invalid(format!(
                    "capacity schedule row {k} has invalid capacity {bad}"
                )));
            }
        }
        self.controller.set_capacity_schedule(schedule.clone());
        self.capacity_schedule = Some(schedule);
        Ok(self)
    }

    /// Routes `ingest.*` metrics (and the controller's) to `telemetry`.
    pub fn with_telemetry(mut self, telemetry: Recorder) -> Self {
        self.controller.attach_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// Attaches an SLO engine fed one sample per control period. Build it
    /// over the same recorder passed to
    /// [`IngestLoop::with_telemetry`] so counter-backed signals (the
    /// `ingest_backpressure` SLO) see this loop's counters.
    pub fn with_slos(mut self, slos: SloEngine) -> Self {
        self.slos = Some(slos);
        self
    }

    /// Number of planned control periods.
    pub fn periods(&self) -> usize {
        self.rates.first().map(Vec::len).unwrap_or(0)
    }

    /// Next period index to execute.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Periods sealed so far, in order.
    pub fn sealed(&self) -> &[SealedPeriod] {
        &self.sealed
    }

    /// Cumulative run totals.
    pub fn totals(&self) -> &IngestTotals {
        &self.totals
    }

    /// The attached SLO engine, if any.
    pub fn slos(&self) -> Option<&SloEngine> {
        self.slos.as_ref()
    }

    /// The controller driving the loop.
    pub fn controller(&self) -> &dyn PlacementPolicy {
        self.controller.as_ref()
    }

    /// The loop's configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    /// The deferred-request backlog per city (the only live in-flight
    /// mass between periods — what a checkpoint must carry).
    pub fn carry_backlog(&self) -> &[u64] {
        &self.carry
    }

    /// The per-period capacity schedule, when one is installed.
    pub fn capacity_schedule(&self) -> Option<&[Vec<f64>]> {
        self.capacity_schedule.as_deref()
    }

    /// Sets `published_mask` to the DCs with positive capacity at period
    /// `k` (all of them without a schedule or past its end), in place;
    /// returns whether any DC changed state.
    fn refresh_mask(&mut self, k: usize) -> bool {
        let capacities = self.capacity_schedule.as_ref().and_then(|s| s.get(k));
        let mut changed = false;
        for (dc, live) in self.published_mask.iter_mut().enumerate() {
            let now = capacities.is_none_or(|row| row[dc] > 0.0);
            changed |= *live != now;
            *live = now;
        }
        changed
    }

    pub(crate) fn controller_mut(&mut self) -> &mut dyn PlacementPolicy {
        self.controller.as_mut()
    }

    pub(crate) fn set_state(
        &mut self,
        cursor: usize,
        carry: Vec<u64>,
        sealed: Vec<SealedPeriod>,
        totals: IngestTotals,
    ) {
        self.cursor = cursor;
        self.carry = carry;
        self.sealed = sealed;
        self.totals = totals;
    }

    /// Re-derives and publishes the live placement snapshot after a
    /// checkpoint restore — identical to what the interrupted run had
    /// published after its last step: the post-step snapshot of period
    /// `cursor - 1`, at version `2(cursor - 1) + 3`, under the live-DC
    /// mask in force that period.
    pub(crate) fn republish_restored(&mut self) {
        if self.cursor == 0 {
            return;
        }
        self.refresh_mask(self.cursor - 1);
        self.routing =
            RoutingPolicy::from_allocation(self.controller.problem(), self.controller.allocation());
        self.publish_routing((2 * self.cursor + 1) as u64);
    }

    /// Compiles `routing` under `published_mask` into snapshot `version`,
    /// marks the cities it strands, and publishes it. Versions run 1 for
    /// the initial placement, then per period `k` an optional pre-fan-out
    /// republish at `2k + 2` and the post-step publish at `2k + 3`.
    fn publish_routing(&mut self, version: u64) {
        let problem = self.controller.problem();
        mark_stranded(
            problem,
            &self.routing,
            &self.published_mask,
            &mut self.stranded,
        );
        let snapshot =
            RouterSnapshot::compile_masked(problem, &self.routing, &self.published_mask, version);
        self.publish(snapshot);
    }

    /// Installs `snapshot` as the one the next period's shards route off.
    /// Its version must be strictly newer than the current one, so
    /// versions identify publications.
    ///
    /// # Panics
    ///
    /// Panics when the version does not advance.
    fn publish(&mut self, snapshot: RouterSnapshot) {
        assert!(
            snapshot.version() > self.snapshot.version(),
            "snapshot version must advance ({} -> {})",
            self.snapshot.version(),
            snapshot.version()
        );
        self.snapshot = snapshot;
    }

    /// Executes one full period (fan-out, seal, control step, publish).
    ///
    /// # Errors
    ///
    /// [`IngestError::Invalid`] past the last period;
    /// [`IngestError::Core`] when the controller step fails.
    ///
    /// # Panics
    ///
    /// Panics if a shard panics.
    pub fn step(&mut self) -> Result<&SealedPeriod, IngestError> {
        let k = self.cursor;
        if k >= self.periods() {
            return Err(IngestError::Invalid(format!(
                "period {k} is past the end of the {}-period plan",
                self.periods()
            )));
        }
        let mut span = self.telemetry.tracer().span("ingest.period");
        span.attr("period", k);

        // If this period's live-DC set differs from the one the published
        // snapshot was compiled under, republish the current routing
        // masked to the survivors *before* fan-out, so no request of this
        // period can be routed to a dead DC.
        if self.refresh_mask(k) {
            self.publish_routing((2 * k + 2) as u64);
            self.telemetry.incr("ingest.snapshot_republishes", 1);
        }

        let period_seconds = self.config.period_seconds as f64;
        let (seed, budget) = (self.config.seed, self.config.budget);
        let (rates, stranded, snapshot) = (&self.rates, &self.stranded, &self.snapshot);
        let carry_in = &self.carry;

        // Child spans open on this thread only, so a trace has the same
        // shape at any shard count.
        let fanout = self.telemetry.tracer().span("ingest.fanout");
        let t_route = Instant::now();
        // Every shard but the last runs on a scoped thread of its own, and
        // the last on this thread. The period-close barrier: the scope
        // joins every spawned shard, and panics here if one of them
        // panicked; a panic of the last shard unwinds through it.
        std::thread::scope(|scope| {
            let mut rest: &mut [u64] = &mut self.next_carry;
            let shards = self.tallies.len();
            for (i, tally) in self.tallies.iter_mut().enumerate() {
                let cities = tally.cities();
                let (carry_out, tail) = std::mem::take(&mut rest).split_at_mut(cities.len());
                rest = tail;
                let shard = move || {
                    process_shard(
                        seed,
                        k,
                        rates,
                        &carry_in[cities],
                        carry_out,
                        budget,
                        snapshot,
                        tally,
                        period_seconds,
                        stranded,
                    )
                };
                if i + 1 < shards {
                    scope.spawn(shard);
                } else {
                    shard();
                }
            }
        });
        let route_seconds = t_route.elapsed().as_secs_f64();
        drop(fanout);
        let seal = self.telemetry.tracer().span("ingest.seal");
        let arcs = self.controller.problem().num_arcs();
        let mut sealed = SealedPeriod::empty(k, rates.len(), arcs);
        let period_generated: u64 = self
            .tallies
            .iter_mut()
            .map(|tally| tally.fold_into(&mut sealed))
            .sum();
        let demand = sealed.rates(period_seconds);
        drop(seal);

        let t_step = Instant::now();
        let outcome = self.controller.step(&demand)?;
        let step_latency = t_step.elapsed().as_secs_f64();

        // The step succeeded: commit the period.
        std::mem::swap(&mut self.carry, &mut self.next_carry);
        let totals = &mut self.totals;
        totals.generated += period_generated;
        totals.admitted += sealed.total_events();
        totals.route_wall_seconds += route_seconds;
        totals.unroutable += sealed.unroutable;
        totals.deferred += sealed.deferred;
        totals.dropped += sealed.dropped;
        totals.step_cost += outcome.step_cost.hosting + outcome.step_cost.reconfiguration;
        if outcome.fallback {
            totals.fallback_periods += 1;
        }
        if outcome.recovery.is_some() {
            totals.recovery_periods += 1;
        }
        let recovery_shortfall = outcome
            .recovery
            .as_ref()
            .map(|r| r.resource_shortfall)
            .unwrap_or(0.0);
        let backlog: u64 = self.carry.iter().sum();
        let t = &self.telemetry;
        t.incr("ingest.events_generated", period_generated);
        t.incr("ingest.events_admitted", sealed.total_events());
        t.incr(
            "ingest.events_routed",
            sealed.total_events() - sealed.unroutable,
        );
        t.incr("ingest.events_unroutable", sealed.unroutable);
        t.incr("ingest.events_deferred", sealed.deferred);
        t.incr("ingest.events_dropped", sealed.dropped);
        t.incr(
            "ingest.backpressure_events",
            sealed.deferred + sealed.dropped,
        );
        t.incr("ingest.periods_sealed", 1);
        t.gauge("ingest.carry_backlog", backlog as f64);
        t.gauge("ingest.period_events", sealed.total_events() as f64);
        if route_seconds > 0.0 {
            t.gauge(
                "ingest.req_per_sec",
                sealed.total_events() as f64 / route_seconds,
            );
        }
        t.observe("ingest.route_seconds", route_seconds);

        let publish = self.telemetry.tracer().span("ingest.publish");
        self.routing = outcome.routing;
        self.publish_routing((2 * k + 3) as u64);
        drop(publish);
        self.telemetry.incr("ingest.snapshot_publishes", 1);

        if let Some(engine) = self.slos.as_mut() {
            engine.observe(&SloSample {
                period: k as u64,
                step_latency_seconds: step_latency,
                sla_shortfall: recovery_shortfall,
                fallback: outcome.fallback,
                recovery: outcome.recovery.is_some(),
            });
        }

        drop(span);
        self.sealed.push(sealed);
        self.cursor += 1;
        self.sealed
            .last()
            .ok_or_else(|| IngestError::Invalid("sealed ledger empty after push".to_string()))
    }

    /// Runs every remaining period.
    ///
    /// # Errors
    ///
    /// Propagates the first failing [`IngestLoop::step`].
    pub fn run_to_end(&mut self) -> Result<IngestTotals, IngestError> {
        while self.cursor < self.periods() {
            self.step()?;
        }
        Ok(self.totals)
    }

    /// The sealed per-period matrices as CSV — integer counts only, so
    /// the artifact is byte-identical across shard counts (the CI
    /// determinism job diffs `--jobs 1` against `--jobs 4`). Columns:
    /// period, per-city admitted counts, per-arc routed counts, then the
    /// backpressure ledger.
    pub fn sealed_matrix_csv(&self) -> String {
        let cities = self.rates.len();
        let arcs = self.controller.problem().num_arcs();
        let mut out = String::from("period");
        for v in 0..cities {
            out.push_str(&format!(",city{v}"));
        }
        for e in 0..arcs {
            out.push_str(&format!(",arc{e}"));
        }
        out.push_str(",unroutable,carried_in,deferred,dropped\n");
        for s in &self.sealed {
            out.push_str(&format!("{}", s.period));
            for c in &s.city_counts {
                out.push_str(&format!(",{c}"));
            }
            for a in &s.arc_counts {
                out.push_str(&format!(",{a}"));
            }
            out.push_str(&format!(
                ",{},{},{},{}\n",
                s.unroutable, s.carried_in, s.deferred, s.dropped
            ));
        }
        out
    }
}

/// The shard layout: `cities` split into at most `jobs` contiguous
/// ranges of equal length (the last one shorter), one tally each.
fn shard_tallies(cities: usize, jobs: usize, arcs: usize) -> Vec<ShardTally> {
    let chunk = cities.div_ceil(jobs.max(1)).max(1);
    (0..cities)
        .step_by(chunk)
        .map(|start| ShardTally::new(start, chunk.min(cities - start), arcs))
        .collect()
}

/// One shard's period: sequentially processes its contiguous city range,
/// reading each city's backlog from `carry_in` and writing the backlog it
/// leaves into `carry_out`. Each city draws its arrival count, admits
/// against the budget, and routes its admitted requests in one loop over
/// its two independent random streams ([`ShardTally::route`]); nothing is
/// buffered. The pass ends by weighing the attribute histogram into
/// payload KiB per class.
#[allow(clippy::too_many_arguments)]
fn process_shard(
    seed: u64,
    period: usize,
    rates: &[Vec<f64>],
    carry_in: &[u64],
    carry_out: &mut [u64],
    budget: BackpressureBudget,
    snapshot: &RouterSnapshot,
    tally: &mut ShardTally,
    period_seconds: f64,
    stranded: &[bool],
) {
    for ((city, &carried), slot) in tally.cities().zip(carry_in).zip(carry_out) {
        let table = snapshot.table(city);
        // A stranded city (routable weight entirely on dead DCs) defers
        // its admitted requests back into the carry backlog instead of
        // admitting them as unroutable — no request is charged to a dead
        // DC, and the mass re-enters once capacity returns. Deferred
        // requests are neither histogrammed nor routed.
        let defer = stranded[city] && table.arcs().is_empty();
        // Admission is a prefix: carried mass first, then the first
        // fresh arrivals, so the admitted arrivals' attribute words are
        // the next words of the arrival stream.
        let (fresh, arrivals) =
            arrival_stream(seed, city, period, rates[city][period], period_seconds);
        tally.record_generated(fresh);
        let admission = admit(budget, carried, fresh);
        let mut backlog = admission.carry_out;
        let (mut deferred, mut dropped) = (admission.carry_out, admission.dropped);
        if defer {
            // Conservation: the deferred mass moves from this period's
            // admissions into the carry backlog (or drops at its bound),
            // so generated == admitted + dropped + backlog still holds.
            let route_deferred = admission.admitted();
            let kept = route_deferred.min(budget.max_carry_per_city.saturating_sub(backlog));
            backlog += kept;
            deferred += kept;
            dropped += route_deferred - kept;
        } else {
            tally.route(
                city,
                table,
                admission.admitted_carried,
                admission.admitted_fresh,
                arrivals,
                routing_stream(seed, city, period),
            );
        }
        *slot = backlog;
        tally.record_backpressure(admission.admitted_carried, deferred, dropped);
    }
    tally.weigh_attributes();
}

/// Marks the cities whose requests must defer while the mask is in
/// force: any city with no routable weight on a live DC, and only while
/// some DC is actually dead. In nominal conditions unroutable mass is
/// admitted and recorded instead (the controller has to observe demand
/// it is not yet serving to start serving it); during an infrastructure
/// fault that mass defers into the carry backlog so nothing is charged
/// against a DC with zero capacity.
fn mark_stranded(problem: &Dspp, policy: &RoutingPolicy, alive: &[bool], stranded: &mut [bool]) {
    let arcs = problem.arcs();
    let degraded = alive.iter().any(|a| !a);
    for (v, city) in stranded.iter_mut().enumerate() {
        *city = degraded
            && !policy
                .location_weights(v)
                .iter()
                .any(|&(arc, _)| alive[arcs[arc].0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RequestClass;
    use dspp_core::{DsppBuilder, MpcController, MpcSettings};
    use dspp_predict::LastValue;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn build_loop(jobs: usize, budget: BackpressureBudget, seed: u64) -> IngestLoop {
        let periods = 6usize;
        let horizon = 3usize;
        let p = DsppBuilder::new(2, 3)
            .service_rate(100.0)
            .sla_latency(0.100)
            .latency_rows(vec![vec![0.010; 3], vec![0.020; 3]])
            .price_rows(vec![
                vec![1.0; periods + horizon],
                vec![1.4; periods + horizon],
            ])
            .build()
            .unwrap();
        let controller = MpcController::new(
            p,
            Box::new(LastValue),
            MpcSettings {
                horizon,
                ..MpcSettings::default()
            },
        )
        .unwrap();
        let rates = vec![
            vec![120.0; periods],
            vec![60.0; periods],
            vec![30.0; periods],
        ];
        IngestLoop::new(
            Box::new(controller),
            rates,
            IngestConfig::new(seed)
                .with_period_seconds(60)
                .with_jobs(jobs)
                .with_budget(budget),
        )
        .unwrap()
    }

    #[test]
    fn closed_loop_runs_end_to_end_from_raw_events() {
        let mut l = build_loop(1, BackpressureBudget::unlimited(), 11);
        let totals = l.run_to_end().unwrap();
        assert_eq!(l.cursor(), 6);
        assert_eq!(totals.generated, totals.admitted);
        assert_eq!(totals.deferred + totals.dropped, 0);
        // λ·T per period ≈ 120·60 + 60·60 + 30·60 = 12600.
        let per_period = totals.admitted as f64 / 6.0;
        assert!(
            (per_period - 12_600.0).abs() < 600.0,
            "{per_period} events/period"
        );
        // After period 0 the MPC has published a placement, so demand
        // must actually route (period 0 starts uncovered at x = 0).
        let later = &l.sealed()[2];
        assert_eq!(later.unroutable, 0, "live placement covers all cities");
        assert_eq!(
            later.arc_counts.iter().sum::<u64>(),
            later.total_events(),
            "every admitted event routed to exactly one arc"
        );
        assert!(totals.step_cost > 0.0);
        assert!(totals.req_per_sec() > 0.0);
    }

    #[test]
    fn sealed_matrices_are_byte_identical_across_shard_counts() {
        let mut a = build_loop(1, BackpressureBudget::new(4000, 1000), 7);
        let mut b = build_loop(3, BackpressureBudget::new(4000, 1000), 7);
        a.run_to_end().unwrap();
        b.run_to_end().unwrap();
        assert_eq!(a.sealed(), b.sealed());
        assert_eq!(a.sealed_matrix_csv(), b.sealed_matrix_csv());
        assert_eq!(a.totals().generated, b.totals().generated);
        assert_eq!(a.totals().dropped, b.totals().dropped);
    }

    #[test]
    fn backpressure_defers_then_drops_and_conserves_mass() {
        // Budget far below λ·T so every period overflows.
        let mut l = build_loop(2, BackpressureBudget::new(1000, 500), 3);
        let totals = l.run_to_end().unwrap();
        assert!(totals.dropped > 0, "overload must drop");
        let final_carry: u64 = l.carry.iter().sum();
        // Every generated event ends in exactly one sink: admitted in
        // some period (carried events are only counted when admitted,
        // not when deferred), dropped, or still in the carry backlog.
        assert_eq!(
            totals.generated,
            totals.admitted + totals.dropped + final_carry,
            "generated mass = admissions + drops + backlog"
        );
        assert!(
            carried_total(l.sealed()) > 0,
            "overload must push deferred mass into later periods"
        );
        for s in l.sealed() {
            assert!(s.city_counts.iter().all(|&c| c <= 1000));
        }
    }

    /// Total carried-in admissions across sealed periods (mass that was
    /// generated in an earlier period than it was admitted).
    fn carried_total(sealed: &[SealedPeriod]) -> u64 {
        sealed.iter().map(|s| s.carried_in).sum()
    }

    #[test]
    fn telemetry_and_slos_see_the_stream() {
        let telemetry = Recorder::enabled();
        let specs = vec![dspp_telemetry::SloSpec::ingest_backpressure()];
        let mut l = build_loop(2, BackpressureBudget::new(1000, 500), 3)
            .with_telemetry(telemetry.clone())
            .with_slos(SloEngine::new(specs, telemetry.clone()));
        l.run_to_end().unwrap();
        let snap = telemetry.snapshot().unwrap();
        assert!(snap.counter("ingest.events_admitted") > 0);
        assert!(snap.counter("ingest.backpressure_events") > 0);
        assert_eq!(snap.counter("ingest.periods_sealed"), 6);
        assert_eq!(snap.counter("ingest.snapshot_publishes"), 6);
        // Sustained overload every period: the backpressure SLO fires.
        assert!(
            snap.counter("slo.firing") >= 1,
            "ingest_backpressure should fire under sustained overload"
        );
    }

    #[test]
    fn traced_step_nests_fanout_seal_and_publish_around_the_controller_step() {
        use dspp_telemetry::{SpanRecord, TraceRecord, Tracer};
        // The child spans of each `ingest.period`, in start order, with
        // whether they ran on the period's thread.
        let shape = |jobs: usize| {
            let telemetry = Recorder::enabled().with_tracer(Tracer::enabled(4096));
            let mut l = build_loop(jobs, BackpressureBudget::new(4000, 1000), 5)
                .with_telemetry(telemetry.clone());
            l.step().unwrap();
            l.step().unwrap();
            let spans: Vec<SpanRecord> = telemetry
                .tracer()
                .records()
                .into_iter()
                .filter_map(|r| match r {
                    TraceRecord::Span(s) => Some(s),
                    TraceRecord::Event(_) => None,
                })
                .collect();
            let periods: Vec<&SpanRecord> =
                spans.iter().filter(|s| s.name == "ingest.period").collect();
            assert_eq!(periods.len(), 2, "jobs {jobs}");
            periods
                .iter()
                .map(|period| {
                    let mut children: Vec<&SpanRecord> = spans
                        .iter()
                        .filter(|s| s.parent == Some(period.id))
                        .collect();
                    children.sort_by_key(|s| (s.start_ns, s.id));
                    for pair in children.windows(2) {
                        assert!(pair[0].end_ns <= pair[1].start_ns, "{pair:?}");
                    }
                    children
                        .iter()
                        .map(|s| (s.name, s.thread == period.thread))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        let period = vec![
            ("ingest.fanout", true),
            ("ingest.seal", true),
            ("controller.step", true),
            ("ingest.publish", true),
        ];
        let single = shape(1);
        assert_eq!(single, vec![period.clone(), period]);
        assert_eq!(shape(3), single, "the trace must not depend on --jobs");
    }

    /// One data center, six periods, with the DC dead for periods 2..4.
    fn outage_schedule() -> Vec<Vec<f64>> {
        (0..6)
            .map(|k| {
                if (2..4).contains(&k) {
                    vec![0.0]
                } else {
                    vec![1_000.0]
                }
            })
            .collect()
    }

    fn build_outage_loop(jobs: usize, seed: u64) -> IngestLoop {
        let periods = 6usize;
        let horizon = 3usize;
        let p = DsppBuilder::new(1, 2)
            .service_rate(100.0)
            .sla_latency(0.100)
            .latency_rows(vec![vec![0.010, 0.015]])
            .price_rows(vec![vec![1.0; periods + horizon]])
            .build()
            .unwrap();
        let controller = MpcController::new(
            p,
            Box::new(LastValue),
            MpcSettings {
                horizon,
                ..MpcSettings::default()
            },
        )
        .unwrap();
        let rates = vec![vec![40.0; periods], vec![20.0; periods]];
        IngestLoop::new(
            Box::new(controller),
            rates,
            IngestConfig::new(seed)
                .with_period_seconds(60)
                .with_jobs(jobs)
                .with_budget(BackpressureBudget::new(100_000, 20_000)),
        )
        .unwrap()
        .with_capacity_schedule(outage_schedule())
        .unwrap()
    }

    #[test]
    fn outage_republishes_and_defers_instead_of_routing_to_a_dead_dc() {
        let telemetry = Recorder::enabled();
        let mut l = build_outage_loop(2, 9).with_telemetry(telemetry.clone());
        let totals = l.run_to_end().unwrap();
        let snap = telemetry.snapshot().unwrap();
        // Exactly two mask transitions: the outage onset (pre-period 2)
        // and the recovery (pre-period 4).
        assert_eq!(snap.counter("ingest.snapshot_republishes"), 2);
        for k in 2..4 {
            let s = &l.sealed()[k];
            assert_eq!(s.total_events(), 0, "period {k} routed into a dead DC");
            assert_eq!(s.unroutable, 0, "period {k} admitted unroutable mass");
            assert!(s.deferred > 0, "period {k} must defer stranded mass");
        }
        assert!(totals.deferred > 0, "the outage must defer traffic");
        assert_eq!(totals.dropped, 0, "the carry bound absorbs the outage");
        let backlog: u64 = l.carry_backlog().iter().sum();
        assert_eq!(
            totals.generated,
            totals.admitted + totals.dropped + backlog,
            "conservation across the outage"
        );
        assert!(
            l.sealed()[4].carried_in > 0,
            "deferred mass re-enters once the DC is back"
        );
        assert_eq!(backlog, 0, "backlog drains after recovery");
    }

    #[test]
    fn outage_ledgers_are_byte_identical_across_shard_counts() {
        let mut a = build_outage_loop(1, 7);
        let mut b = build_outage_loop(2, 7);
        a.run_to_end().unwrap();
        b.run_to_end().unwrap();
        assert_eq!(a.sealed(), b.sealed());
        assert_eq!(a.sealed_matrix_csv(), b.sealed_matrix_csv());
    }

    /// Delegates to an inner controller, but fails the `fail_at`-th step
    /// once before the inner controller sees it.
    struct FailOnce {
        inner: Box<dyn PlacementPolicy>,
        fail_at: usize,
        calls: usize,
    }

    impl PlacementPolicy for FailOnce {
        fn step(&mut self, observed: &[f64]) -> Result<dspp_core::StepOutcome, CoreError> {
            self.calls += 1;
            if self.calls == self.fail_at {
                return Err(CoreError::InvalidSpec("injected step failure".into()));
            }
            self.inner.step(observed)
        }

        fn allocation(&self) -> &dspp_core::Allocation {
            self.inner.allocation()
        }

        fn problem(&self) -> &Dspp {
            self.inner.problem()
        }

        fn name(&self) -> &str {
            "fail-once"
        }

        fn attach_telemetry(&mut self, telemetry: Recorder) {
            self.inner.attach_telemetry(telemetry);
        }
    }

    #[test]
    fn failed_controller_step_commits_nothing_and_retry_matches_uninterrupted_run() {
        // City 0 offers ~7200 requests a period against 7000 admitted:
        // its backlog grows every period, so a replay off a mutated carry
        // would show.
        let budget = BackpressureBudget::new(7000, 5000);
        let wrap = |l: IngestLoop, fail_at: usize| {
            let IngestLoop {
                controller,
                rates,
                config,
                ..
            } = l;
            let inner = FailOnce {
                inner: controller,
                fail_at,
                calls: 0,
            };
            IngestLoop::new(Box::new(inner), rates, config)
                .unwrap()
                .with_telemetry(Recorder::enabled())
        };
        let mut clean = wrap(build_loop(2, budget, 3), 0);
        let mut flaky = wrap(build_loop(2, budget, 3), 4);
        clean.run_to_end().unwrap();
        for _ in 0..3 {
            flaky.step().unwrap();
        }
        let state = |l: &IngestLoop| {
            let generated = l
                .telemetry
                .snapshot()
                .unwrap()
                .counter("ingest.events_generated");
            let totals = l.totals().generated;
            let ledger = (l.carry_backlog().to_vec(), l.sealed().to_vec());
            (l.cursor(), ledger, totals, generated)
        };
        assert!(
            flaky.carry_backlog().iter().sum::<u64>() > 0,
            "the scenario must carry a backlog into the failing period"
        );
        let before = state(&flaky);
        assert!(matches!(flaky.step(), Err(IngestError::Core(_))));
        assert_eq!(
            state(&flaky),
            before,
            "a failed step must leave the loop untouched"
        );
        flaky.run_to_end().unwrap();

        assert_eq!(flaky.sealed(), clean.sealed());
        assert_eq!(flaky.carry_backlog(), clean.carry_backlog());
        let strip = |t: &IngestTotals| IngestTotals {
            route_wall_seconds: 0.0,
            ..*t
        };
        assert_eq!(strip(flaky.totals()), strip(clean.totals()));
        let counters = |l: &IngestLoop| {
            let snap = l.telemetry.snapshot().unwrap();
            [
                "ingest.events_generated",
                "ingest.events_admitted",
                "ingest.events_deferred",
                "ingest.events_dropped",
                "ingest.periods_sealed",
            ]
            .map(|name| snap.counter(name))
        };
        assert_eq!(counters(&flaky), counters(&clean));
    }

    const PERIOD_SECONDS: f64 = 10.0;

    /// One period sealed the way the ingest loop did before the counted
    /// passes: generate each city's whole event buffer, admit against the
    /// budget, then route every admitted event off `snapshot` and count
    /// it straight into the ledger, request by request. Updates `carry`
    /// in place and returns the sealed row with the period's generated
    /// and admitted totals and the requests a stranded city deferred.
    #[allow(clippy::too_many_arguments)]
    fn reference_period(
        seed: u64,
        k: usize,
        rates: &[Vec<f64>],
        carry: &mut [u64],
        budget: BackpressureBudget,
        snapshot: &RouterSnapshot,
        stranded: &[bool],
        arcs: usize,
    ) -> (SealedPeriod, u64, u64, u64) {
        let cities = rates.len();
        let mut sealed = SealedPeriod::empty(k, cities, arcs);
        let (mut generated, mut admitted, mut stranded_deferred) = (0u64, 0u64, 0u64);
        let mut events = Vec::new();
        for city in 0..cities {
            let fresh = crate::generator::generate_city_period(
                seed,
                city,
                k,
                rates[city][k],
                PERIOD_SECONDS,
                &mut events,
            );
            generated += fresh;
            let a = admit(budget, carry[city], fresh);
            carry[city] = a.carry_out;
            sealed.carried_in += a.admitted_carried;
            sealed.deferred += a.carry_out;
            sealed.dropped += a.dropped;
            let mut rng = routing_stream(seed, city, k);
            let mut draws = Vec::new();
            for _ in 0..a.admitted_carried {
                let attrs = rng.next_u64();
                let class = RequestClass::from_draw(attrs);
                draws.push((class, class.size_kib(attrs >> 2), rng.next_u64()));
            }
            for ev in &events[..a.admitted_fresh as usize] {
                draws.push((ev.class, ev.size_kib, rng.next_u64()));
            }
            let mut route_deferred = 0u64;
            for (class, kib, draw) in draws {
                match snapshot.route(city, draw) {
                    None if stranded[city] => route_deferred += 1,
                    arc => {
                        sealed.city_counts[city] += 1;
                        sealed.class_kib[class.index()] += u64::from(kib);
                        match arc {
                            Some(e) => sealed.arc_counts[e] += 1,
                            None => sealed.unroutable += 1,
                        }
                    }
                }
            }
            admitted += a.admitted() - route_deferred;
            stranded_deferred += route_deferred;
            let kept = route_deferred.min(budget.max_carry_per_city.saturating_sub(carry[city]));
            carry[city] += kept;
            sealed.deferred += kept;
            sealed.dropped += route_deferred - kept;
        }
        (sealed, generated, admitted, stranded_deferred)
    }

    /// A random shard-pass scenario over `ARCS` arcs: per-city rates,
    /// budget, initial carry, and per period a snapshot and stranded
    /// flags, all drawn from `layout`.
    struct ShardCase {
        seed: u64,
        rates: Vec<Vec<f64>>,
        budget: BackpressureBudget,
        carry: Vec<u64>,
        periods: Vec<(RouterSnapshot, Vec<bool>)>,
    }

    const ARCS: usize = 7;

    impl ShardCase {
        fn new(seed: u64, cities: usize, budget_kind: u64, layout: u64) -> Self {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(layout);
            let periods = 3;
            let rates = (0..cities)
                .map(|_| {
                    let rate = if rng.gen_bool(0.2) {
                        0.0
                    } else {
                        rng.gen_range(0.0..60.0)
                    };
                    vec![rate; periods]
                })
                .collect();
            // Up to 600 arrivals per city and period.
            let budget = match budget_kind {
                0 => BackpressureBudget::unlimited(),
                1 => BackpressureBudget::new(rng.gen_range(50..400), rng.gen_range(0..200)),
                2 => BackpressureBudget::new(0, rng.gen_range(0..300)),
                _ => BackpressureBudget::new(rng.gen_range(300..1000), rng.gen_range(100..1000)),
            };
            let carry = (0..cities).map(|_| rng.gen_range(0..800)).collect();
            let periods = (0..periods)
                .map(|_| {
                    let tables: Vec<Vec<(f64, usize)>> =
                        (0..cities).map(|_| random_table(&mut rng)).collect();
                    let stranded = (0..cities).map(|_| rng.gen_bool(0.3)).collect();
                    (RouterSnapshot::from_tables(&tables), stranded)
                })
                .collect();
            ShardCase {
                seed,
                rates,
                budget,
                carry,
                periods,
            }
        }

        /// Every period's reference row, generated and admitted totals,
        /// stranded deferrals and the carry it leaves.
        fn reference(&self) -> Vec<(SealedPeriod, u64, u64, u64, Vec<u64>)> {
            let mut carry = self.carry.clone();
            self.periods
                .iter()
                .enumerate()
                .map(|(k, (snapshot, stranded))| {
                    let (sealed, generated, admitted, deferred) = reference_period(
                        self.seed,
                        k,
                        &self.rates,
                        &mut carry,
                        self.budget,
                        snapshot,
                        stranded,
                        ARCS,
                    );
                    (sealed, generated, admitted, deferred, carry.clone())
                })
                .collect()
        }

        /// Every period's sealed row, generated and admitted totals and
        /// carry, as the production shard pass computes them over `jobs`
        /// shards.
        fn production(&self, jobs: usize) -> Vec<(SealedPeriod, u64, u64, Vec<u64>)> {
            let cities = self.rates.len();
            let mut tallies = shard_tallies(cities, jobs, ARCS);
            let mut carry = self.carry.clone();
            let mut rows = Vec::new();
            for (k, (snapshot, stranded)) in self.periods.iter().enumerate() {
                let mut sealed = SealedPeriod::empty(k, cities, ARCS);
                let mut next = vec![0u64; cities];
                let mut rest = &mut next[..];
                let mut generated = 0u64;
                for tally in &mut tallies {
                    let owned = tally.cities();
                    let (out, tail) = std::mem::take(&mut rest).split_at_mut(owned.len());
                    rest = tail;
                    process_shard(
                        self.seed,
                        k,
                        &self.rates,
                        &carry[owned],
                        out,
                        self.budget,
                        snapshot,
                        tally,
                        PERIOD_SECONDS,
                        stranded,
                    );
                    generated += tally.fold_into(&mut sealed);
                }
                carry = next;
                let admitted = sealed.total_events();
                rows.push((sealed, generated, admitted, carry.clone()));
            }
            rows
        }
    }

    /// A random cumulative table: empty, one arc, or 2–7 entries whose
    /// fractions include duplicated (zero-width) and tiny steps, with the
    /// last forced to 1.0 as `compile_masked` does.
    fn random_table(rng: &mut StdRng) -> Vec<(f64, usize)> {
        use rand::Rng;
        let entries = match rng.gen_range(0..4) {
            0 => 0,
            1 => 1,
            _ => rng.gen_range(2..8),
        };
        let weights: Vec<f64> = (0..entries)
            .map(|_| match rng.gen_range(0..4) {
                0 => 0.0,
                1 => 1e-9,
                _ => rng.gen_range(0.01..1.0),
            })
            .collect();
        let total: f64 = weights.iter().sum::<f64>().max(1e-300);
        let mut cum = 0.0;
        weights
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                cum += w / total;
                let fraction = if i + 1 == entries { 1.0 } else { cum };
                (fraction, rng.gen_range(0..ARCS))
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// The counted two-pass shard pass seals exactly what the buffered
        /// per-request reference seals — the row with its class KiB, the
        /// carry, and the generated and admitted totals — at one shard and
        /// at three, over random seeds, rates (zero included), budgets
        /// (unlimited, tight enough to defer and drop, zero admission),
        /// carry-ins above and below the budget, stranded cities and
        /// empty, single-entry and multi-entry tables.
        #[test]
        fn prop_shard_pass_matches_the_buffered_reference(
            seed in 0u64..u64::MAX,
            cities in 1usize..7,
            budget_kind in 0u64..4,
            layout in 0u64..u64::MAX,
        ) {
            let case = ShardCase::new(seed, cities, budget_kind, layout);
            let want: Vec<_> = case
                .reference()
                .into_iter()
                .map(|(sealed, generated, admitted, _, carry)| (sealed, generated, admitted, carry))
                .collect();
            for jobs in [1, 3] {
                proptest::prop_assert_eq!(case.production(jobs), want.clone());
            }
        }
    }

    #[test]
    fn shard_pass_cases_cover_every_path() {
        let (mut carried_in, mut deferred, mut dropped) = (0u64, 0u64, 0u64);
        let (mut unroutable, mut routed, mut stranded, mut kib) = (0u64, 0u64, 0u64, 0u64);
        for layout in 0..64u64 {
            let case = ShardCase::new(layout, 1 + layout as usize % 6, layout % 4, layout);
            for (sealed, _, _, stranded_deferred, _) in case.reference() {
                carried_in += sealed.carried_in;
                deferred += sealed.deferred;
                dropped += sealed.dropped;
                unroutable += sealed.unroutable;
                routed += sealed.arc_counts.iter().sum::<u64>();
                stranded += stranded_deferred;
                kib += sealed.class_kib.iter().sum::<u64>();
            }
        }
        for (name, total) in [
            ("carried-in", carried_in),
            ("deferred", deferred),
            ("dropped", dropped),
            ("unroutable", unroutable),
            ("routed", routed),
            ("stranded", stranded),
            ("class KiB", kib),
        ] {
            assert!(total > 0, "no {name} mass in the property's cases");
        }
    }

    #[test]
    #[should_panic(expected = "version must advance")]
    fn stale_publication_is_rejected() {
        let mut l = build_loop(1, BackpressureBudget::unlimited(), 1);
        l.publish(RouterSnapshot::uncovered(3));
    }

    /// A shard that panics panics the period, whether it ran on a
    /// spawned thread (shard 0) or on the loop thread (the last shard).
    #[test]
    fn a_panicking_shard_panics_the_period() {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        for broken in [0, 1] {
            let (done, finished) = channel();
            let stepper = std::thread::spawn(move || {
                let mut l = build_loop(2, BackpressureBudget::unlimited(), 1);
                assert_eq!(l.tallies.len(), 2);
                // A tally over cities the problem does not have panics as
                // soon as its shard looks up their first routing table.
                let cities = l.tallies[broken].cities();
                l.tallies[broken] = ShardTally::new(cities.start + 1_000, cities.len(), 6);
                let _ = l.step();
                let _ = done.send(());
            });
            // A panic drops `done` unsent; a hang times out instead of
            // stalling the suite.
            match finished.recv_timeout(std::time::Duration::from_secs(30)) {
                Err(RecvTimeoutError::Disconnected) => {
                    let panic = stepper.join().expect_err("the step must panic");
                    // The shard itself panicked, not the fold after it.
                    let message = panic
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| panic.downcast_ref::<&str>().copied())
                        .unwrap_or_default();
                    assert!(
                        !message.contains("disagree on the arc count"),
                        "shard {broken}: {message}"
                    );
                }
                Err(RecvTimeoutError::Timeout) => {
                    panic!("shard {broken}: the step hung on a panicking shard")
                }
                Ok(()) => panic!("shard {broken}: the step returned although a shard panicked"),
            }
        }
    }

    #[test]
    fn ingest_metric_catalogue_matches_the_docs() {
        use std::collections::BTreeSet;
        // DC 0 is dark in period 2, so the masked republish fires; the
        // budget defers and drops every period.
        let schedule = (0..6)
            .map(|k| vec![if k == 2 { 0.0 } else { 1_000.0 }, 1_000.0])
            .collect();
        let telemetry = Recorder::enabled();
        let mut l = build_loop(2, BackpressureBudget::new(1000, 500), 3)
            .with_capacity_schedule(schedule)
            .unwrap()
            .with_telemetry(telemetry.clone());
        let totals = l.run_to_end().unwrap();
        assert!(totals.deferred > 0 && totals.dropped > 0, "{totals:?}");
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("ingest.snapshot_republishes"), 2);
        let emitted: BTreeSet<&str> = snap
            .counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
            .map(String::as_str)
            .filter(|name| name.starts_with("ingest."))
            .collect();
        // The rows of the `ingest.*` table in OBSERVABILITY.md.
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let section = doc
            .split("### `ingest.*`")
            .nth(1)
            .expect("OBSERVABILITY.md has the ingest.* section");
        let section = section.split("\n#").next().unwrap_or(section);
        let documented: BTreeSet<&str> = section
            .lines()
            .filter_map(|line| line.strip_prefix("| `"))
            .filter_map(|line| line.split('`').next())
            .collect();
        assert_eq!(
            emitted, documented,
            "emitted vs documented ingest.* metrics"
        );
    }

    #[test]
    fn invalid_capacity_schedules_are_rejected() {
        let l = build_loop(1, BackpressureBudget::unlimited(), 1);
        assert!(matches!(
            l.with_capacity_schedule(vec![vec![1.0; 3]]),
            Err(IngestError::Invalid(_))
        ));
        let l = build_loop(1, BackpressureBudget::unlimited(), 1);
        assert!(matches!(
            l.with_capacity_schedule(vec![vec![-1.0, 1.0]]),
            Err(IngestError::Invalid(_))
        ));
    }

    #[test]
    fn invalid_rate_plans_are_rejected() {
        let p = DsppBuilder::new(1, 2)
            .price_trace(0, vec![1.0; 4])
            .build()
            .unwrap();
        let build = |rates: Vec<Vec<f64>>, period_seconds: u64| {
            let c =
                MpcController::new(p.clone(), Box::new(LastValue), MpcSettings::default()).unwrap();
            // The field is public, so a zero period bypasses
            // `with_period_seconds`' clamp.
            let config = IngestConfig {
                period_seconds,
                ..IngestConfig::new(0)
            };
            IngestLoop::new(Box::new(c), rates, config)
        };
        let invalid =
            |l: Result<IngestLoop, IngestError>| matches!(l, Err(IngestError::Invalid(_)));
        assert!(invalid(build(vec![vec![1.0], vec![1.0, 2.0]], 60)));
        // A zero period would divide every sealed count by zero.
        assert!(invalid(build(vec![vec![1.0]; 2], 0)));
        // A per-period mean above 2^53 is rejected, also one that a finite
        // rate overflows to infinity; 2^53 itself is accepted.
        let cap = (1u64 << 53) as f64;
        assert!(build(vec![vec![1.0], vec![cap / 60.0]], 60).is_ok());
        assert!(invalid(build(vec![vec![1.0], vec![cap / 30.0]], 60)));
        assert!(invalid(build(vec![vec![1.0], vec![3e306]], 60)));
    }
}
