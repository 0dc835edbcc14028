//! The shared run loop: set a workload up and play one episode on it,
//! several times over.
//!
//! An episode is a fixed stretch of periods after the warm-up. Set-up is
//! deterministic, so every repeat plays the same decisions and must
//! produce the same fingerprint.
//!
//! The hosts this benchmark was tuned on change speed under a run: each
//! vCPU flips between two speeds about 2× apart for seconds at a time, and
//! the whole host drifts by as much over minutes (neighbours on shared
//! hardware). Raw medians moved 30 % between runs of the same code. So a
//! fixed compute kernel owned by the benchmark ([`host_probe`]) brackets
//! every period and every piece of set-up, and the end-to-end timings are
//! scaled to a reference host speed:
//! `t · (PROBE_REFERENCE_S / probe)^Workload::SPEED_EXPONENT`. The
//! exponent is per workload, because the loops follow the host speed
//! unequally: it is the value that held each workload's figures steadiest
//! over ten interleaved runs (`NOTES.md` has the table, and each run
//! prints its own [`fitted_exponent`] beside it). A change to the
//! program cannot move the probe, so it moves the scaled times as it moves
//! the raw ones. Each decision, period and set-up piece then counts at its
//! fastest scaled repeat, which also drops repeats that a speed flip hit
//! mid-period.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::noise::host_probe;

/// Fixture size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's measured sizes.
    Full,
    /// Small fixtures for the benchmark's own tests: every code path, two
    /// repeats, no time target.
    Smoke,
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Wall time the timed episodes should fill, seconds.
    pub seconds: f64,
    /// Traced run: per-layer replay and counters instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Fixture size.
    pub size: Size,
}

/// Fewest repeats of a full-size untraced run.
pub const MIN_REPEATS: usize = 3;
/// Most repeats of any run.
pub const MAX_REPEATS: usize = 12;
/// [`host_probe`] on the reference host at full speed, seconds: the speed
/// every end-to-end timing is scaled to.
pub const PROBE_REFERENCE_S: f64 = 450e-6;

/// The exact outcome of one episode: equal for every repeat of a run,
/// equal across runs with the same seed, different across seeds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Fingerprint {
    /// Interior-point iterations of every decision.
    pub solver_iterations: u64,
    /// Decisions resolved by a recovery solve.
    pub recovery_decisions: u64,
    /// Best-response rounds of every game period.
    pub game_rounds: u64,
    /// Events admitted by the ingest front end.
    pub events_admitted: u64,
    /// Events deferred into a later period.
    pub events_deferred: u64,
    /// Events dropped at the carry bound.
    pub events_dropped: u64,
    /// `cost_per_period` as IEEE-754 bits.
    pub cost_bits: u64,
    /// `served_share` as IEEE-754 bits.
    pub served_bits: u64,
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "solver_iterations={} recovery_decisions={} game_rounds={} events_admitted={} \
             events_deferred={} events_dropped={} cost_bits={:#018x} served_bits={:#018x}",
            self.solver_iterations,
            self.recovery_decisions,
            self.game_rounds,
            self.events_admitted,
            self.events_deferred,
            self.events_dropped,
            self.cost_bits,
            self.served_bits
        )
    }
}

/// What one episode produced.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Its fingerprint.
    pub fingerprint: Fingerprint,
    /// Realized hosting + reconfiguration cost per period.
    pub cost_per_period: f64,
    /// Share of offered demand served.
    pub served_share: f64,
    /// Exact per-episode counters reported as per-layer metrics.
    pub counts: BTreeMap<&'static str, f64>,
}

/// Timing samples and check results of a run. Every period holds exactly
/// one decision, so `[repeat][i]` indexes the same decision in all three
/// tables.
#[derive(Debug, Default)]
pub struct Samples {
    /// Decision wall times, ms.
    pub decide_ms: Vec<Vec<f64>>,
    /// Whether each decision ran a recovery solve.
    pub recovery: Vec<Vec<bool>>,
    /// Period wall times (the loop's whole step), seconds.
    pub period_s: Vec<Vec<f64>>,
    /// The faster of the two host probes around each period, seconds (a
    /// probe only reads slow, never fast, by accident).
    pub probe_s: Vec<Vec<f64>>,
    /// Per-decision layer samples, ms, keyed by metric stem.
    pub layers: BTreeMap<&'static str, Vec<f64>>,
    /// Layer time totals, seconds, for the per-layer shares.
    pub totals: BTreeMap<&'static str, f64>,
    /// Decisions attempted.
    pub attempted: u64,
    /// Decisions that failed (error, failed check, or replay mismatch).
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// The workload's [`Workload::SPEED_EXPONENT`].
    pub exponent: f64,
    /// The probe taken before the period in flight.
    pending_probe: f64,
}

impl Samples {
    fn begin_repeat(&mut self) {
        self.decide_ms.push(Vec::new());
        self.recovery.push(Vec::new());
        self.period_s.push(Vec::new());
        self.probe_s.push(Vec::new());
    }

    fn current(&self) -> usize {
        self.period_s.len() - 1
    }

    /// Probes the host speed just before a period starts.
    pub fn before_period(&mut self) {
        self.pending_probe = host_probe();
    }

    /// Records one period's wall time and probes the host speed again.
    pub fn period(&mut self, seconds: f64) {
        let probe = self.pending_probe.min(host_probe());
        let current = self.current();
        self.period_s[current].push(seconds);
        self.probe_s[current].push(probe);
        self.add("period", seconds);
    }

    /// Records one decision's wall time.
    pub fn decide(&mut self, seconds: f64, recovery: bool) {
        let current = self.current();
        self.decide_ms[current].push(seconds * 1e3);
        self.recovery[current].push(recovery);
        self.add("decide", seconds);
        if recovery {
            self.add("recovery_decide", seconds);
        }
    }

    /// Records one attempted decision and the outcome of its checks.
    pub fn checked(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = verdict {
            self.fail(msg);
        }
    }

    /// Records a failure without a new attempt.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    /// Adds a per-decision layer sample, ms.
    pub fn layer(&mut self, stem: &'static str, ms: f64) {
        self.layers.entry(stem).or_default().push(ms);
    }

    /// Adds to a layer time total, seconds.
    pub fn add(&mut self, key: &'static str, seconds: f64) {
        *self.totals.entry(key).or_default() += seconds;
    }

    /// A layer time total, seconds (0 when the layer never ran).
    pub fn total(&self, key: &str) -> f64 {
        self.totals.get(key).copied().unwrap_or(0.0)
    }

    /// Every decision time of every repeat, ms.
    pub fn all_decide_ms(&self) -> Vec<f64> {
        self.decide_ms.iter().flatten().copied().collect()
    }

    /// Each decision's fastest repeat at the reference host speed, ms.
    pub fn best_decide_ms(&self) -> Vec<f64> {
        fastest_scaled(&self.decide_ms, &self.probe_s, self.exponent)
    }

    /// Each decision's fastest raw (unscaled) repeat, ms.
    pub fn fastest_raw_decide_ms(&self) -> Vec<f64> {
        fastest_scaled(&self.decide_ms, &self.probe_s, 0.0)
    }

    /// Each period's fastest repeat at the reference host speed, seconds.
    pub fn best_period_s(&self) -> Vec<f64> {
        fastest_scaled(&self.period_s, &self.probe_s, self.exponent)
    }

    /// [`Samples::best_decide_ms`] of the decisions that ran a recovery
    /// solve, ms.
    pub fn best_recovery_decide_ms(&self) -> Vec<f64> {
        let recovered = self.recovery.first().cloned().unwrap_or_default();
        self.best_decide_ms()
            .into_iter()
            .zip(recovered)
            .filter_map(|(ms, r)| r.then_some(ms))
            .collect()
    }
}

/// `t` measured while the probe read `probe`, scaled to the reference
/// host speed with sensitivity `exponent`.
pub fn scaled(t: f64, probe: f64, exponent: f64) -> f64 {
    t * (PROBE_REFERENCE_S / probe).powf(exponent)
}

/// Per position, the minimum over repeats of the scaled sample (positions
/// every repeat has).
fn fastest_scaled(repeats: &[Vec<f64>], probes: &[Vec<f64>], exponent: f64) -> Vec<f64> {
    let len = repeats.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|i| {
            repeats
                .iter()
                .zip(probes)
                .map(|(r, p)| scaled(r[i], p[i], exponent))
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// How strongly times follow the host probe: the least-squares slope `b`
/// through the origin of `ln(t_a / t_b) = b · ln(p_a / p_b)` over every
/// pair of repeats `a`, `b` of every position, with the root-mean-square
/// `ln(p_a / p_b)` it rests on (near 0 when the host speed never moved, and
/// the slope is then noise). `None` with fewer than two repeats.
pub fn fitted_exponent(repeats: &[Vec<f64>], probes: &[Vec<f64>]) -> Option<(f64, f64)> {
    let len = repeats.iter().map(Vec::len).min().unwrap_or(0);
    let (mut sxy, mut sxx, mut pairs) = (0.0, 0.0, 0usize);
    for i in 0..len {
        for a in 0..repeats.len() {
            for b in a + 1..repeats.len() {
                let x = (probes[a][i] / probes[b][i]).ln();
                sxy += x * (repeats[a][i] / repeats[b][i]).ln();
                sxx += x * x;
                pairs += 1;
            }
        }
    }
    (sxx > 0.0).then(|| (sxy / sxx, (sxx / pairs as f64).sqrt()))
}

/// Times a set-up piece by piece — the fixture build, then each warm-up
/// period — with host probes around every piece, as episode periods are
/// timed. A set-up lasts seconds, longer than the host holds one speed, so
/// a single probe pair around all of it would misjudge its speed.
#[derive(Debug)]
pub struct SetupClock {
    /// Wall time of each piece, seconds.
    pub piece_s: Vec<f64>,
    /// The faster of the two probes around each piece, seconds.
    pub probe_s: Vec<f64>,
    pending_probe: f64,
    start: Instant,
}

impl SetupClock {
    /// Probes the host and starts the first piece.
    pub fn start() -> Self {
        SetupClock {
            piece_s: Vec::new(),
            probe_s: Vec::new(),
            pending_probe: host_probe(),
            start: Instant::now(),
        }
    }

    /// Ends the piece in flight and starts the next one; the probe that
    /// closes one piece opens the next.
    pub fn lap(&mut self) {
        self.piece_s.push(self.start.elapsed().as_secs_f64());
        let probe = host_probe();
        self.probe_s.push(self.pending_probe.min(probe));
        self.pending_probe = probe;
        self.start = Instant::now();
    }

    /// Raw wall time of the timed pieces, seconds.
    pub fn total(&self) -> f64 {
        self.piece_s.iter().sum()
    }
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// How strongly the workload's times follow the host probe: the
    /// exponent of its speed scaling (see the module documentation).
    const SPEED_EXPONENT: f64;

    /// Builds the fixture, constructs the loop and runs the warm-up
    /// periods, calling [`SetupClock::lap`] after the build and after each
    /// warm-up period.
    ///
    /// # Errors
    ///
    /// A message when the program rejects the fixture or a warm-up period.
    fn setup(opts: &Options, clock: &mut SetupClock) -> Result<Self, String>;

    /// Plays the episode, timing its periods into `samples` (calling
    /// [`Samples::before_period`] before each one) and checking every
    /// decision.
    ///
    /// # Errors
    ///
    /// A message when a period fails outright (the run cannot continue).
    fn run_episode(&mut self, samples: &mut Samples) -> Result<Episode, String>;
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Each set-up's clock, one per repeat.
    pub setups: Vec<SetupClock>,
    /// The first repeat's episode (its counters are the exact per-layer
    /// counts).
    pub first: Episode,
    /// Repeats run.
    pub repeats: usize,
    /// Pooled samples.
    pub samples: Samples,
}

impl Outcome {
    /// Set-up time at the reference host speed, seconds: the sum over
    /// set-up pieces of each piece's fastest scaled repeat.
    pub fn setup_s(&self) -> f64 {
        let (pieces, probes) = self.setup_tables();
        fastest_scaled(&pieces, &probes, self.samples.exponent)
            .iter()
            .sum()
    }

    /// `(piece times, probes)` of every set-up, `[repeat][piece]`.
    pub fn setup_tables(&self) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        (
            self.setups.iter().map(|c| c.piece_s.clone()).collect(),
            self.setups.iter().map(|c| c.probe_s.clone()).collect(),
        )
    }
}

/// Runs `W`. Each repeat sets the workload up afresh (timed piece by
/// piece as set-up) and plays its episode. Full-size untraced runs repeat
/// until `opts.seconds` have passed, at least [`MIN_REPEATS`] and at most
/// [`MAX_REPEATS`] times; traced and smoke runs, whose timings carry no
/// bound, repeat twice.
///
/// # Errors
///
/// Propagates a failed set-up or episode.
pub fn execute<W: Workload>(opts: &Options) -> Result<Outcome, String> {
    let timed = opts.size == Size::Full && !opts.trace;
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut samples = Samples {
        exponent: W::SPEED_EXPONENT,
        ..Samples::default()
    };
    let mut first: Option<Episode> = None;
    for repeat in 0..MAX_REPEATS {
        let mut clock = SetupClock::start();
        let mut workload = W::setup(opts, &mut clock)?;
        setups.push(clock);
        samples.begin_repeat();
        let episode = workload.run_episode(&mut samples)?;
        // Free this repeat's workload before the next set-up, so peak
        // memory is one workload's.
        drop(workload);
        match &first {
            None => first = Some(episode),
            Some(f) if f.fingerprint != episode.fingerprint => samples.fail(format!(
                "repeat {} diverged from repeat 1: {} vs {}",
                repeat + 1,
                episode.fingerprint,
                f.fingerprint
            )),
            Some(_) => {}
        }
        let done = if timed {
            repeat + 1 >= MIN_REPEATS && start.elapsed().as_secs_f64() >= opts.seconds
        } else {
            repeat + 1 >= 2
        };
        if done {
            break;
        }
    }
    Ok(Outcome {
        setups,
        repeats: samples.period_s.len(),
        first: first.expect("at least one repeat ran"),
        samples,
    })
}
