//! Lightweight telemetry for the dspp workspace: counters, gauges, and
//! streaming histograms behind a cheap cloneable [`Recorder`] handle.
//!
//! Design goals, in order:
//!
//! 1. **Zero cost when off.** The default [`Recorder`] is disabled: every
//!    recording method is a branch on a `None` and returns — no
//!    allocation, no locking, no atomics. Instrumented hot paths (IPM
//!    iterations, Riccati recursions, closed-loop steps) pay nothing
//!    unless a caller opts in.
//! 2. **Cheap when on.** Counters and gauges are lock-free atomics;
//!    histograms take a short [`parking_lot::Mutex`] around a fixed
//!    64-bucket array. Metric registration (first use of a name) takes a
//!    write lock once; steady-state lookups take a read lock.
//! 3. **Inspectable.** [`Recorder::snapshot`] freezes everything into a
//!    [`Snapshot`] — mergeable, `Display`able as an aligned text report,
//!    and exportable as JSON without a `serde_json` dependency.
//!
//! Call sites use static metric names (`"solver.lq.solves"`), so the
//! enabled fast path allocates only on the first sight of each name. The
//! full metric catalogue lives in `docs/OBSERVABILITY.md`.
//!
//! ```
//! use dspp_telemetry::Recorder;
//!
//! let telemetry = Recorder::enabled();
//! telemetry.incr("demo.events", 2);
//! telemetry.gauge("demo.level", 0.75);
//! telemetry.observe("demo.latency_seconds", 0.004);
//! let snap = telemetry.snapshot().unwrap();
//! assert_eq!(snap.counter("demo.events"), 2);
//! println!("{snap}");          // aligned text report
//! let _json = snap.to_json();  // machine-readable export
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod expo;
mod histogram;
mod http;
pub mod json;
mod slo;
mod snapshot;
mod trace;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

pub use histogram::Histogram;
pub use http::MetricsServer;
pub use slo::{AlertState, SloEngine, SloSample, SloSignal, SloSpec, SloTransition};
pub use snapshot::{HistogramSummary, Snapshot, SNAPSHOT_SCHEMA_VERSION};
pub use trace::{
    chrome_trace, jsonl, AttrValue, Attrs, EventRecord, FlightRecorder, ManualClock,
    MonotonicClock, SpanGuard, SpanRecord, TraceClock, TraceRecord, Tracer, DEFAULT_CAPACITY,
};

/// In-memory metric store: named atomic counters, atomic gauges, and
/// mutex-guarded histograms.
#[derive(Default)]
struct Registry {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    // Gauges store f64 bit patterns in an AtomicU64 (safe: to_bits/from_bits).
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<String, Arc<Mutex<Histogram>>>>,
}

impl Registry {
    fn counter_cell(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    fn gauge_cell(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(g) = self.gauges.read().get(name) {
            return Arc::clone(g);
        }
        Arc::clone(
            self.gauges
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits()))),
        )
    }

    fn histogram_cell(&self, name: &str) -> Arc<Mutex<Histogram>> {
        if let Some(h) = self.histograms.read().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Mutex::new(Histogram::new()))),
        )
    }

    /// Adds `by` to counter `name` (creating it at 0).
    fn incr(&self, name: &str, by: u64) {
        self.counter_cell(name).fetch_add(by, Ordering::Relaxed);
    }

    /// Sets gauge `name` to `value` (latest write wins).
    fn gauge(&self, name: &str, value: f64) {
        self.gauge_cell(name)
            .store(value.to_bits(), Ordering::Relaxed);
    }

    /// Records `value` into histogram `name`.
    fn observe(&self, name: &str, value: f64) {
        self.histogram_cell(name).lock().record(value);
    }

    /// Reads counter `name` without creating it: `None` when the counter
    /// has never been touched. Allocation-free — safe on hot paths (the
    /// SLO engine polls `game.max_rounds_hit` every control period).
    fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .read()
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
    }

    /// Freezes the current state of every metric.
    fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        for (name, cell) in self.counters.read().iter() {
            snap.counters
                .insert(name.clone(), cell.load(Ordering::Relaxed));
        }
        for (name, cell) in self.gauges.read().iter() {
            snap.gauges
                .insert(name.clone(), f64::from_bits(cell.load(Ordering::Relaxed)));
        }
        for (name, cell) in self.histograms.read().iter() {
            snap.histograms.insert(name.clone(), cell.lock().summary());
        }
        snap
    }
}

/// Cheap, cloneable handle through which instrumented code emits
/// metrics.
///
/// Two flavors:
/// * [`Recorder::disabled`] (the [`Default`]) — every call is a no-op;
///   this is what uninstrumented callers get implicitly via
///   `..Default::default()` on settings structs.
/// * [`Recorder::enabled`] — events accumulate in an owned in-memory
///   registry, retrievable via [`Recorder::snapshot`].
///
/// Clones share the underlying registry, so a `Recorder` can be fanned
/// out across the controller, solver, game, and simulator and still
/// produce one coherent snapshot.
#[derive(Clone, Default)]
pub struct Recorder {
    registry: Option<Arc<Registry>>,
    tracer: Tracer,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .field("tracer", &self.tracer)
            .finish()
    }
}

impl Recorder {
    /// A recorder that drops everything at zero cost.
    pub fn disabled() -> Self {
        Recorder {
            registry: None,
            tracer: Tracer::disabled(),
        }
    }

    /// A recorder backed by a fresh in-memory registry.
    pub fn enabled() -> Self {
        Recorder {
            registry: Some(Arc::default()),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a [`Tracer`], so every layer this recorder is threaded
    /// through can open spans via [`Recorder::tracer`]. Builder-style:
    ///
    /// ```
    /// use dspp_telemetry::{Recorder, Tracer};
    /// let telemetry = Recorder::enabled().with_tracer(Tracer::enabled(4096));
    /// assert!(telemetry.tracer().is_enabled());
    /// ```
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The attached [`Tracer`] (disabled unless set via
    /// [`Recorder::with_tracer`]). Instrumented code calls
    /// `telemetry.tracer().span("...")` — free when tracing is off.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// True unless this is a disabled recorder. Call sites may use this
    /// to skip computing expensive metric inputs.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Adds `by` to counter `name`.
    #[inline]
    pub fn incr(&self, name: &str, by: u64) {
        if let Some(r) = &self.registry {
            r.incr(name, by);
        }
    }

    /// Sets gauge `name` to `value`.
    #[inline]
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(r) = &self.registry {
            r.gauge(name, value);
        }
    }

    /// Records `value` into histogram `name`.
    #[inline]
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(r) = &self.registry {
            r.observe(name, value);
        }
    }

    /// Records a duration, in seconds, into histogram `name`.
    #[inline]
    pub fn observe_duration(&self, name: &str, elapsed: Duration) {
        if let Some(r) = &self.registry {
            r.observe(name, elapsed.as_secs_f64());
        }
    }

    /// Reads counter `name` without creating it; `None` when disabled or
    /// never touched. Allocation-free — safe on hot paths (the SLO engine
    /// polls `game.max_rounds_hit` every control period).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.registry.as_ref()?.counter_value(name)
    }

    /// Freezes current metric values; `None` for a disabled recorder.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.registry.as_ref().map(|r| r.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.incr("c", 1);
        r.gauge("g", 1.0);
        r.observe("h", 1.0);
        assert!(r.snapshot().is_none());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Recorder::default().is_enabled());
    }

    #[test]
    fn counters_accumulate_across_clones() {
        let r = Recorder::enabled();
        let r2 = r.clone();
        r.incr("events", 2);
        r2.incr("events", 3);
        let snap = r.snapshot().unwrap();
        assert_eq!(snap.counter("events"), 5);
    }

    #[test]
    fn gauges_keep_latest_value() {
        let r = Recorder::enabled();
        r.gauge("level", 1.0);
        r.gauge("level", -2.5);
        assert_eq!(r.snapshot().unwrap().gauge("level"), Some(-2.5));
    }

    #[test]
    fn histograms_observe() {
        let r = Recorder::enabled();
        r.observe("lat", 0.5);
        r.observe("lat", 1.5);
        let snap = r.snapshot().unwrap();
        let h = snap.histogram("lat").unwrap();
        assert_eq!(h.count, 2);
        assert!(h.min >= 0.0 && h.max <= 1.5);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let r = Recorder::enabled();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = r.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        r.incr("n", 1);
                        r.observe("v", 1.0);
                    }
                });
            }
        });
        let snap = r.snapshot().unwrap();
        assert_eq!(snap.counter("n"), 4000);
        assert_eq!(snap.histogram("v").unwrap().count, 4000);
    }
}
