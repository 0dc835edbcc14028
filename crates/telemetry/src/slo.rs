//! Declarative SLOs with multi-window burn-rate alerting.
//!
//! An [`SloSpec`] watches one per-period signal (controller step latency,
//! SLA-shortfall mass, fallback periods, recovery-solve rate, game
//! non-convergence) against an objective and an error budget. Each
//! control period the [`SloEngine`] folds one [`SloSample`] in, computes
//! the budget burn rate over a short and a long trailing window (the
//! SRE-style multi-window rule: both must burn hot, so a single blip
//! neither pages nor does a slow leak hide), and drives a
//! pending → firing → resolved alert state machine.
//!
//! Every transition is recorded (see [`SloEngine::transitions`]), counted
//! (`slo.pending` / `slo.firing` / `slo.resolved`), and — when the
//! recorder carries a tracer — emitted as a flight-recorder event, so
//! post-mortem timelines (`dspp-analyze`) can correlate alerts against
//! injected faults. Live burn rates are exported as gauges
//! (`slo.burn_rate`, `slo.<name>.burn_rate`, `slo.<name>.state`) and show
//! up on the `/metrics` endpoint.
//!
//! The per-period evaluation pass is allocation-free after construction:
//! windows are preallocated rings, gauge names are precomputed, and the
//! transition log reserves capacity up front (verified by the
//! `telemetry.slo_eval` workload in `dspp-bench`).

use crate::{AttrValue, Recorder};

/// Extra transition-log capacity reserved beyond one full
/// pending→firing→resolved cycle per SLO, so pathological flapping does
/// not reallocate mid-run.
const TRANSITION_RESERVE: usize = 32;

/// The per-period signal an [`SloSpec`] watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloSignal {
    /// Controller step latency in seconds ([`SloSample::step_latency_seconds`]).
    StepLatency,
    /// Server-units of demand knowingly left unserved this period
    /// ([`SloSample::sla_shortfall`]).
    SlaShortfall,
    /// The period was absorbed by the last-known-good fallback
    /// ([`SloSample::fallback`]).
    Fallback,
    /// The period was resolved by a recovery (soft-constraint) solve
    /// ([`SloSample::recovery`]).
    Recovery,
    /// Game best-response sweeps that hit their round limit without
    /// converging. Read directly from the recorder as the per-period
    /// delta of the `game.max_rounds_hit` counter.
    GameNonConvergence,
    /// Ingest requests deferred or dropped by bounded admission. Read
    /// directly from the recorder as the per-period delta of the
    /// `ingest.backpressure_events` counter the streaming front end
    /// maintains.
    IngestBackpressure,
    /// Periods in which at least one datacenter had zero surviving
    /// capacity. Read directly from the recorder as the per-period delta
    /// of the `faults.dc_down_periods` counter the fault plane's
    /// injector maintains.
    DcOutage,
}

/// One control period's worth of SLO inputs, built by the layer driving
/// the engine (the closed-loop simulator / scenario runner).
#[derive(Debug, Clone, Copy, Default)]
pub struct SloSample {
    /// Period index.
    pub period: u64,
    /// Wall-clock latency of the controller step, in seconds.
    pub step_latency_seconds: f64,
    /// Server-units of demand knowingly left unserved this period.
    pub sla_shortfall: f64,
    /// True when the period was absorbed by the last-known-good fallback.
    pub fallback: bool,
    /// True when a recovery (soft-constraint) solve resolved the period.
    pub recovery: bool,
}

/// A declarative service-level objective with burn-rate alert tuning.
///
/// A period is *bad* for this SLO when its signal value exceeds
/// `objective`. The burn rate over a trailing window is
/// `bad_fraction / error_budget`; the alert condition requires both the
/// short- and long-window burn rates to reach `burn_threshold`.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Stable identifier (`slo.<name>.*` gauges, transition log, events).
    pub name: &'static str,
    /// The signal watched.
    pub signal: SloSignal,
    /// A period is bad when its signal value strictly exceeds this.
    pub objective: f64,
    /// Tolerated bad-period fraction, in `(0, 1]` (0.01 ≈ "p99").
    pub error_budget: f64,
    /// Short trailing window, in periods (fast detection).
    pub short_window: usize,
    /// Long trailing window, in periods (blip suppression); clamped to
    /// at least `short_window`.
    pub long_window: usize,
    /// Both windows must burn at or above this multiple of the budget.
    pub burn_threshold: f64,
    /// Consecutive breaching evaluations the alert stays `pending`
    /// before it fires (0 fires on the first breach).
    pub pending_periods: usize,
    /// Consecutive clear evaluations a firing alert needs to resolve.
    pub resolve_periods: usize,
}

impl SloSpec {
    /// The default SLO set covering the signals the paper's control loop
    /// cares about. Window sizes are tuned for the short (≈ 12–16
    /// period) traces the fault drills run; production traces would use
    /// proportionally longer windows.
    pub fn default_set() -> Vec<SloSpec> {
        vec![
            SloSpec {
                name: "step_latency_p99",
                signal: SloSignal::StepLatency,
                objective: 0.25,
                error_budget: 0.01,
                short_window: 4,
                long_window: 16,
                burn_threshold: 2.0,
                pending_periods: 1,
                resolve_periods: 2,
            },
            SloSpec {
                name: "sla_shortfall",
                signal: SloSignal::SlaShortfall,
                objective: 0.0,
                error_budget: 0.125,
                short_window: 4,
                long_window: 16,
                burn_threshold: 2.0,
                pending_periods: 1,
                resolve_periods: 2,
            },
            SloSpec {
                name: "fallback_budget",
                signal: SloSignal::Fallback,
                objective: 0.0,
                error_budget: 0.125,
                short_window: 2,
                long_window: 8,
                burn_threshold: 2.0,
                pending_periods: 1,
                resolve_periods: 2,
            },
            SloSpec {
                name: "recovery_rate",
                signal: SloSignal::Recovery,
                objective: 0.0,
                error_budget: 0.25,
                short_window: 4,
                long_window: 12,
                burn_threshold: 1.5,
                pending_periods: 1,
                resolve_periods: 3,
            },
            SloSpec {
                name: "game_non_convergence",
                signal: SloSignal::GameNonConvergence,
                objective: 0.0,
                error_budget: 0.25,
                short_window: 2,
                long_window: 8,
                burn_threshold: 1.5,
                pending_periods: 1,
                resolve_periods: 2,
            },
        ]
    }

    /// The backpressure SLO of the streaming ingest front end: any
    /// period that defers or drops requests burns budget; sustained
    /// overload (a flash crowd outrunning the admission budget for
    /// several periods) fires, and the alert resolves once admission
    /// keeps up again. Not part of [`SloSpec::default_set`] — attach it
    /// to loops that actually ingest (`IngestLoop::with_slos`).
    pub fn ingest_backpressure() -> SloSpec {
        SloSpec {
            name: "ingest_backpressure",
            signal: SloSignal::IngestBackpressure,
            objective: 0.0,
            error_budget: 0.125,
            short_window: 4,
            long_window: 16,
            burn_threshold: 2.0,
            pending_periods: 1,
            resolve_periods: 3,
        }
    }

    /// The infrastructure fault plane's availability SLO: any period with
    /// a fully downed datacenter burns budget, a multi-period outage
    /// fires, and the alert resolves once every datacenter has capacity
    /// again. Not part of [`SloSpec::default_set`] — attach it to runs
    /// whose fault plans remove capacity (the chaos drill does).
    pub fn dc_outage() -> SloSpec {
        SloSpec {
            name: "dc_outage",
            signal: SloSignal::DcOutage,
            objective: 0.0,
            error_budget: 0.125,
            short_window: 2,
            long_window: 8,
            burn_threshold: 2.0,
            pending_periods: 1,
            resolve_periods: 2,
        }
    }
}

/// Alert lifecycle states. `Resolved` is transient: it appears in the
/// transition log when a firing alert clears, after which the stored
/// state returns to `Inactive`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// No breach in progress.
    Inactive,
    /// Breaching, waiting out the pending budget before firing.
    Pending,
    /// The alert is live.
    Firing,
    /// A firing alert just cleared (transition log only).
    Resolved,
}

impl AlertState {
    /// Lower-case label (`"firing"`) used in events, CSV, and reports.
    pub fn label(&self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

impl std::fmt::Display for AlertState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded alert-state change.
#[derive(Debug, Clone, PartialEq)]
pub struct SloTransition {
    /// Period at which the transition happened.
    pub period: u64,
    /// The SLO's [`SloSpec::name`].
    pub slo: &'static str,
    /// State before.
    pub from: AlertState,
    /// State after ([`AlertState::Resolved`] marks a cleared alert; the
    /// stored state continues as `Inactive`).
    pub to: AlertState,
    /// Short-window burn rate at the transition.
    pub burn_short: f64,
    /// Long-window burn rate at the transition.
    pub burn_long: f64,
}

/// Fixed-capacity ring of bad-period flags.
#[derive(Debug)]
struct BadWindow {
    buf: Box<[bool]>,
    head: usize,
    filled: usize,
}

impl BadWindow {
    fn new(capacity: usize) -> Self {
        BadWindow {
            buf: vec![false; capacity.max(1)].into_boxed_slice(),
            head: 0,
            filled: 0,
        }
    }

    fn push(&mut self, bad: bool) {
        self.buf[self.head] = bad;
        self.head = (self.head + 1) % self.buf.len();
        self.filled = (self.filled + 1).min(self.buf.len());
    }

    /// Fraction of bad periods among the most recent `min(n, filled)`
    /// samples (0 before the first sample).
    fn bad_fraction(&self, n: usize) -> f64 {
        let n = n.min(self.filled);
        if n == 0 {
            return 0.0;
        }
        let len = self.buf.len();
        let mut bad = 0usize;
        for back in 1..=n {
            if self.buf[(self.head + len - back) % len] {
                bad += 1;
            }
        }
        bad as f64 / n as f64
    }
}

#[derive(Debug)]
struct SloState {
    spec: SloSpec,
    window: BadWindow,
    state: AlertState,
    breach_streak: usize,
    clear_streak: usize,
    /// Precomputed gauge names, so the per-period pass never formats.
    burn_gauge: String,
    state_gauge: String,
    /// Last seen total of the recorder counter backing
    /// [`SloSignal::GameNonConvergence`].
    last_game_total: u64,
    /// Last seen total of the recorder counter backing
    /// [`SloSignal::IngestBackpressure`].
    last_ingest_total: u64,
    /// Last seen total of the recorder counter backing
    /// [`SloSignal::DcOutage`].
    last_dc_down_total: u64,
}

/// Evaluates a set of [`SloSpec`]s one control period at a time. See the
/// module docs for the alerting semantics.
#[derive(Debug)]
pub struct SloEngine {
    slos: Vec<SloState>,
    telemetry: Recorder,
    transitions: Vec<SloTransition>,
    evaluations: u64,
}

impl SloEngine {
    /// Builds an engine over `specs`, emitting counters, gauges, and
    /// events to `telemetry`. All `slo.*` series are pre-registered here
    /// so the per-period [`SloEngine::observe`] pass never allocates.
    pub fn new(specs: Vec<SloSpec>, telemetry: Recorder) -> SloEngine {
        let mut slos = Vec::with_capacity(specs.len());
        for mut spec in specs {
            spec.short_window = spec.short_window.max(1);
            spec.long_window = spec.long_window.max(spec.short_window);
            spec.error_budget = if spec.error_budget > 0.0 {
                spec.error_budget.min(1.0)
            } else {
                1.0
            };
            let burn_gauge = format!("slo.{}.burn_rate", spec.name);
            let state_gauge = format!("slo.{}.state", spec.name);
            telemetry.gauge(&burn_gauge, 0.0);
            telemetry.gauge(&state_gauge, 0.0);
            // Materialize counter-backed signals so reads (and the
            // /metrics exposition) see them even before any activity.
            match spec.signal {
                SloSignal::GameNonConvergence => telemetry.incr("game.max_rounds_hit", 0),
                SloSignal::IngestBackpressure => telemetry.incr("ingest.backpressure_events", 0),
                SloSignal::DcOutage => telemetry.incr("faults.dc_down_periods", 0),
                _ => {}
            }
            slos.push(SloState {
                window: BadWindow::new(spec.long_window),
                state: AlertState::Inactive,
                breach_streak: 0,
                clear_streak: 0,
                burn_gauge,
                state_gauge,
                last_game_total: 0,
                last_ingest_total: 0,
                last_dc_down_total: 0,
                spec,
            });
        }
        for counter in [
            "slo.evaluations",
            "slo.breaches",
            "slo.pending",
            "slo.firing",
            "slo.resolved",
        ] {
            telemetry.incr(counter, 0);
        }
        telemetry.gauge("slo.burn_rate", 0.0);
        SloEngine {
            transitions: Vec::with_capacity(3 * slos.len() + TRANSITION_RESERVE),
            slos,
            telemetry,
            evaluations: 0,
        }
    }

    /// An engine over [`SloSpec::default_set`].
    pub fn with_defaults(telemetry: Recorder) -> SloEngine {
        SloEngine::new(SloSpec::default_set(), telemetry)
    }

    /// Folds one control period in: updates every SLO's windows, burn
    /// gauges, and alert state. Allocation-free except when the
    /// transition log outgrows its reserved capacity.
    pub fn observe(&mut self, sample: &SloSample) {
        self.evaluations += 1;
        self.telemetry.incr("slo.evaluations", 1);
        let game_total = self
            .telemetry
            .counter_value("game.max_rounds_hit")
            .unwrap_or_default();
        let ingest_total = self
            .telemetry
            .counter_value("ingest.backpressure_events")
            .unwrap_or_default();
        let dc_down_total = self
            .telemetry
            .counter_value("faults.dc_down_periods")
            .unwrap_or_default();
        let mut max_burn = 0.0f64;
        for slo in &mut self.slos {
            let value = match slo.spec.signal {
                SloSignal::StepLatency => sample.step_latency_seconds,
                SloSignal::SlaShortfall => sample.sla_shortfall,
                SloSignal::Fallback => u64::from(sample.fallback) as f64,
                SloSignal::Recovery => u64::from(sample.recovery) as f64,
                SloSignal::GameNonConvergence => {
                    let delta = game_total.saturating_sub(slo.last_game_total);
                    slo.last_game_total = game_total;
                    delta as f64
                }
                SloSignal::IngestBackpressure => {
                    let delta = ingest_total.saturating_sub(slo.last_ingest_total);
                    slo.last_ingest_total = ingest_total;
                    delta as f64
                }
                SloSignal::DcOutage => {
                    let delta = dc_down_total.saturating_sub(slo.last_dc_down_total);
                    slo.last_dc_down_total = dc_down_total;
                    delta as f64
                }
            };
            let bad = value > slo.spec.objective;
            if bad {
                self.telemetry.incr("slo.breaches", 1);
            }
            slo.window.push(bad);
            let burn_short = slo.window.bad_fraction(slo.spec.short_window) / slo.spec.error_budget;
            let burn_long = slo.window.bad_fraction(slo.spec.long_window) / slo.spec.error_budget;
            let burn = burn_short.min(burn_long);
            max_burn = max_burn.max(burn);
            self.telemetry.gauge(&slo.burn_gauge, burn);
            let breaching = burn >= slo.spec.burn_threshold;
            let (from, to) = match slo.state {
                AlertState::Inactive if breaching => {
                    slo.breach_streak = 1;
                    slo.state = AlertState::Pending;
                    (AlertState::Inactive, AlertState::Pending)
                }
                AlertState::Pending if breaching => {
                    slo.breach_streak += 1;
                    if slo.breach_streak > slo.spec.pending_periods {
                        slo.state = AlertState::Firing;
                        slo.clear_streak = 0;
                        (AlertState::Pending, AlertState::Firing)
                    } else {
                        (slo.state, slo.state)
                    }
                }
                AlertState::Pending => {
                    slo.state = AlertState::Inactive;
                    slo.breach_streak = 0;
                    (AlertState::Pending, AlertState::Inactive)
                }
                AlertState::Firing if breaching => {
                    slo.clear_streak = 0;
                    (slo.state, slo.state)
                }
                AlertState::Firing => {
                    slo.clear_streak += 1;
                    if slo.clear_streak >= slo.spec.resolve_periods.max(1) {
                        slo.state = AlertState::Inactive;
                        slo.breach_streak = 0;
                        (AlertState::Firing, AlertState::Resolved)
                    } else {
                        (slo.state, slo.state)
                    }
                }
                state => (state, state),
            };
            slo.state_gauge_value(&self.telemetry);
            if from != to {
                record_transition(
                    &mut self.transitions,
                    &self.telemetry,
                    SloTransition {
                        period: sample.period,
                        slo: slo.spec.name,
                        from,
                        to,
                        burn_short,
                        burn_long,
                    },
                );
                // A zero pending budget fires in the same evaluation the
                // alert went pending.
                if to == AlertState::Pending && slo.spec.pending_periods == 0 {
                    slo.state = AlertState::Firing;
                    slo.clear_streak = 0;
                    record_transition(
                        &mut self.transitions,
                        &self.telemetry,
                        SloTransition {
                            period: sample.period,
                            slo: slo.spec.name,
                            from: AlertState::Pending,
                            to: AlertState::Firing,
                            burn_short,
                            burn_long,
                        },
                    );
                    slo.state_gauge_value(&self.telemetry);
                }
            }
        }
        self.telemetry.gauge("slo.burn_rate", max_burn);
    }

    /// Every transition recorded so far, in evaluation order.
    pub fn transitions(&self) -> &[SloTransition] {
        &self.transitions
    }

    /// Number of [`SloEngine::observe`] calls.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// The current state of the named SLO.
    pub fn state(&self, name: &str) -> Option<AlertState> {
        self.slos
            .iter()
            .find(|s| s.spec.name == name)
            .map(|s| s.state)
    }

    /// The alert timeline as CSV (`period,slo,from,to,burn_short,
    /// burn_long`), the artifact the fault-drill CI job uploads.
    pub fn timeline_csv(&self) -> String {
        let mut out = String::from("period,slo,from,to,burn_short,burn_long\n");
        for t in &self.transitions {
            out.push_str(&format!(
                "{},{},{},{},{:.3},{:.3}\n",
                t.period, t.slo, t.from, t.to, t.burn_short, t.burn_long
            ));
        }
        out
    }
}

impl SloState {
    fn state_gauge_value(&self, telemetry: &Recorder) {
        let v = match self.state {
            AlertState::Inactive | AlertState::Resolved => 0.0,
            AlertState::Pending => 1.0,
            AlertState::Firing => 2.0,
        };
        telemetry.gauge(&self.state_gauge, v);
    }
}

fn record_transition(transitions: &mut Vec<SloTransition>, telemetry: &Recorder, t: SloTransition) {
    match t.to {
        AlertState::Pending => telemetry.incr("slo.pending", 1),
        AlertState::Firing => telemetry.incr("slo.firing", 1),
        AlertState::Resolved => telemetry.incr("slo.resolved", 1),
        AlertState::Inactive => {}
    }
    let tracer = telemetry.tracer();
    if tracer.is_enabled() {
        let severity = match t.to {
            AlertState::Firing => "error",
            AlertState::Pending => "warning",
            _ => "info",
        };
        tracer.event_with(
            match t.to {
                AlertState::Pending => "slo.pending",
                AlertState::Firing => "slo.firing",
                AlertState::Resolved => "slo.resolved",
                AlertState::Inactive => "slo.cancelled",
            },
            [
                ("severity", AttrValue::Str(severity.into())),
                ("slo", AttrValue::Str(t.slo.into())),
                ("period", AttrValue::UInt(t.period)),
                ("burn_short", AttrValue::Float(t.burn_short)),
                ("burn_long", AttrValue::Float(t.burn_long)),
            ],
        );
    }
    transitions.push(t);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fallback_spec() -> SloSpec {
        SloSpec {
            name: "fallback_budget",
            signal: SloSignal::Fallback,
            objective: 0.0,
            error_budget: 0.125,
            short_window: 2,
            long_window: 8,
            burn_threshold: 2.0,
            pending_periods: 1,
            resolve_periods: 2,
        }
    }

    fn sample(period: u64, fallback: bool) -> SloSample {
        SloSample {
            period,
            fallback,
            ..SloSample::default()
        }
    }

    #[test]
    fn quiet_stream_never_transitions() {
        let telemetry = Recorder::enabled();
        let mut engine = SloEngine::with_defaults(telemetry.clone());
        for k in 0..50 {
            engine.observe(&sample(k, false));
        }
        assert!(engine.transitions().is_empty());
        assert_eq!(engine.evaluations(), 50);
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("slo.evaluations"), 50);
        assert_eq!(snap.counter("slo.firing"), 0);
        assert_eq!(snap.gauge("slo.burn_rate"), Some(0.0));
    }

    #[test]
    fn outage_drives_pending_firing_resolved() {
        let telemetry = Recorder::enabled();
        let mut engine = SloEngine::new(vec![fallback_spec()], telemetry.clone());
        // Two clean periods, a two-period outage, then recovery.
        for k in 0..10 {
            engine.observe(&sample(k, k == 2 || k == 3));
        }
        let kinds: Vec<(AlertState, u64)> = engine
            .transitions()
            .iter()
            .map(|t| (t.to, t.period))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (AlertState::Pending, 2),
                (AlertState::Firing, 3),
                (AlertState::Resolved, 6),
            ]
        );
        assert_eq!(engine.state("fallback_budget"), Some(AlertState::Inactive));
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("slo.pending"), 1);
        assert_eq!(snap.counter("slo.firing"), 1);
        assert_eq!(snap.counter("slo.resolved"), 1);
        assert_eq!(snap.counter("slo.breaches"), 2);
        assert_eq!(snap.gauge("slo.fallback_budget.state"), Some(0.0));
    }

    /// The `slo.*` names an engine over the default set registers and
    /// emits through a breach, fire and resolve, each default SLO's name
    /// folded to `<name>`, equal the `slo.*` rows of the SLO chapter's
    /// table in `docs/OBSERVABILITY.md`.
    #[test]
    fn slo_metric_catalogue_matches_the_docs() {
        use std::collections::BTreeSet;
        let telemetry = Recorder::enabled();
        let mut engine = SloEngine::with_defaults(telemetry.clone());
        for k in 0..10 {
            engine.observe(&sample(k, k == 2 || k == 3));
        }
        let tos: Vec<AlertState> = engine.transitions().iter().map(|t| t.to).collect();
        assert_eq!(
            tos,
            [
                AlertState::Pending,
                AlertState::Firing,
                AlertState::Resolved
            ]
        );
        let snap = telemetry.snapshot().unwrap();
        let specs = SloSpec::default_set();
        let fold = |name: &str| -> String {
            specs
                .iter()
                .find_map(|spec| name.strip_prefix(&format!("slo.{}.", spec.name)))
                .map_or_else(|| name.to_string(), |rest| format!("slo.<name>.{rest}"))
        };
        let emitted: BTreeSet<String> = snap
            .counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
            .filter(|name| name.starts_with("slo."))
            .map(|name| fold(name))
            .collect();
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let section = doc
            .split("### The SLO engine")
            .nth(1)
            .expect("OBSERVABILITY.md has the SLO engine section");
        let section = section.split("\n#").next().unwrap_or(section);
        let documented: BTreeSet<String> = section
            .lines()
            .filter_map(|line| line.strip_prefix("| `slo."))
            .filter_map(|line| line.split('`').next())
            .map(|rest| format!("slo.{rest}"))
            .collect();
        assert_eq!(emitted, documented, "emitted vs documented slo.* metrics");
    }

    #[test]
    fn single_blip_stays_quiet_under_multiwindow_rule() {
        // One bad period in a long-filled window: the short window burns
        // hot but the long window does not — no alert.
        let mut engine = SloEngine::new(vec![fallback_spec()], Recorder::enabled());
        for k in 0..9 {
            engine.observe(&sample(k, false));
        }
        engine.observe(&sample(9, true));
        for k in 10..16 {
            engine.observe(&sample(k, false));
        }
        assert!(
            engine.transitions().is_empty(),
            "{:?}",
            engine.transitions()
        );
    }

    #[test]
    fn pending_cancels_when_breach_clears_early() {
        let mut spec = fallback_spec();
        spec.pending_periods = 3;
        let mut engine = SloEngine::new(vec![spec], Recorder::enabled());
        engine.observe(&sample(0, true));
        assert_eq!(engine.state("fallback_budget"), Some(AlertState::Pending));
        // Clear before the pending budget elapses: back to inactive.
        for k in 1..6 {
            engine.observe(&sample(k, false));
        }
        assert_eq!(engine.state("fallback_budget"), Some(AlertState::Inactive));
        let tos: Vec<AlertState> = engine.transitions().iter().map(|t| t.to).collect();
        assert_eq!(tos, vec![AlertState::Pending, AlertState::Inactive]);
    }

    #[test]
    fn zero_pending_budget_fires_immediately() {
        let mut spec = fallback_spec();
        spec.pending_periods = 0;
        let mut engine = SloEngine::new(vec![spec], Recorder::enabled());
        engine.observe(&sample(0, true));
        let tos: Vec<AlertState> = engine.transitions().iter().map(|t| t.to).collect();
        assert_eq!(tos, vec![AlertState::Pending, AlertState::Firing]);
        assert_eq!(engine.state("fallback_budget"), Some(AlertState::Firing));
    }

    #[test]
    fn game_non_convergence_reads_recorder_deltas() {
        let telemetry = Recorder::enabled();
        let spec = SloSpec {
            name: "game_non_convergence",
            signal: SloSignal::GameNonConvergence,
            objective: 0.0,
            error_budget: 0.25,
            short_window: 2,
            long_window: 8,
            burn_threshold: 1.5,
            pending_periods: 1,
            resolve_periods: 2,
        };
        let mut engine = SloEngine::new(vec![spec], telemetry.clone());
        engine.observe(&sample(0, false));
        // Two consecutive periods of non-converging sweeps.
        telemetry.incr("game.max_rounds_hit", 1);
        engine.observe(&sample(1, false));
        telemetry.incr("game.max_rounds_hit", 2);
        engine.observe(&sample(2, false));
        let tos: Vec<AlertState> = engine.transitions().iter().map(|t| t.to).collect();
        assert_eq!(tos, vec![AlertState::Pending, AlertState::Firing]);
    }

    #[test]
    fn ingest_backpressure_fires_on_sustained_overload_and_resolves() {
        let telemetry = Recorder::enabled();
        let mut engine = SloEngine::new(vec![SloSpec::ingest_backpressure()], telemetry.clone());
        // Quiet warm-up, a 6-period overload, then recovery.
        for k in 0..20u64 {
            if (4..10).contains(&k) {
                telemetry.incr("ingest.backpressure_events", 500);
            }
            engine.observe(&sample(k, false));
        }
        let tos: Vec<(AlertState, u64)> = engine
            .transitions()
            .iter()
            .map(|t| (t.to, t.period))
            .collect();
        // Overload spans periods 4..10. The long window first breaches
        // at period 5 (2 bad of 6 seen → burn 2.67 ≥ 2.0), so the alert
        // goes pending at 5 and fires at 6. The short window stays hot
        // through period 12 (1 bad of 4 → burn 2.0), breach clears at
        // 13, and three clean evaluations resolve the alert at 15.
        assert_eq!(
            tos,
            vec![
                (AlertState::Pending, 5),
                (AlertState::Firing, 6),
                (AlertState::Resolved, 15),
            ]
        );
        assert_eq!(
            engine.state("ingest_backpressure"),
            Some(AlertState::Inactive)
        );
    }

    #[test]
    fn dc_outage_fires_during_the_window_and_resolves_after() {
        let telemetry = Recorder::enabled();
        let mut engine = SloEngine::new(vec![SloSpec::dc_outage()], telemetry.clone());
        // A 4-period outage (periods 4..8) in a 16-period trace.
        for k in 0..16u64 {
            if (4..8).contains(&k) {
                telemetry.incr("faults.dc_down_periods", 1);
            }
            engine.observe(&sample(k, false));
        }
        let tos: Vec<(AlertState, u64)> = engine
            .transitions()
            .iter()
            .map(|t| (t.to, t.period))
            .collect();
        assert_eq!(
            tos,
            vec![
                (AlertState::Pending, 5),
                (AlertState::Firing, 6),
                (AlertState::Resolved, 10),
            ]
        );
        assert_eq!(engine.state("dc_outage"), Some(AlertState::Inactive));
    }

    #[test]
    fn latency_slo_uses_objective_threshold() {
        let telemetry = Recorder::enabled();
        let mut engine = SloEngine::with_defaults(telemetry.clone());
        for k in 0..6 {
            engine.observe(&SloSample {
                period: k,
                step_latency_seconds: if k >= 3 { 0.9 } else { 0.001 },
                ..SloSample::default()
            });
        }
        assert!(engine
            .transitions()
            .iter()
            .any(|t| t.slo == "step_latency_p99" && t.to == AlertState::Firing));
        assert!(
            telemetry
                .snapshot()
                .unwrap()
                .gauge("slo.step_latency_p99.burn_rate")
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn timeline_csv_is_deterministic_and_headed() {
        let mut engine = SloEngine::new(vec![fallback_spec()], Recorder::enabled());
        for k in 0..8 {
            engine.observe(&sample(k, k == 2 || k == 3));
        }
        let csv = engine.timeline_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "period,slo,from,to,burn_short,burn_long");
        assert!(lines[1].starts_with("2,fallback_budget,inactive,pending,"));
        assert!(lines[2].starts_with("3,fallback_budget,pending,firing,"));
        assert_eq!(lines.len(), 1 + engine.transitions().len());
    }

    #[test]
    fn transitions_fire_flight_recorder_events() {
        let tracer = crate::Tracer::enabled(1024);
        let telemetry = Recorder::enabled().with_tracer(tracer.clone());
        let mut engine = SloEngine::new(vec![fallback_spec()], telemetry);
        for k in 0..8 {
            engine.observe(&sample(k, k == 2 || k == 3));
        }
        let names: Vec<String> = tracer
            .records()
            .iter()
            .filter_map(|r| match r {
                crate::TraceRecord::Event(e) => Some(e.name.to_string()),
                _ => None,
            })
            .collect();
        assert!(names.contains(&"slo.pending".to_string()));
        assert!(names.contains(&"slo.firing".to_string()));
        assert!(names.contains(&"slo.resolved".to_string()));
    }
}
