//! Structured span tracing and the flight recorder.
//!
//! Where the metric [`Recorder`](crate::Recorder) answers *aggregate*
//! questions (how many solves, what latency distribution), the [`Tracer`]
//! answers *causal* ones: which MPC period triggered the slow IPM solve,
//! which best-response round pushed the quota adjustment that later caused
//! an SLA violation. It follows the same design rules as the recorder:
//!
//! 1. **Zero cost when off.** A disabled tracer's [`Tracer::span`] returns
//!    an inert guard; every attribute/event call is a branch on `None`.
//! 2. **Cheap when on.** Starting a span is one atomic id fetch, one clock
//!    read and one thread-local push (plus a thread-list lookup when the
//!    thread last recorded into another tracer); finishing it is a clock
//!    read plus a short mutex push into the flight recorder.
//! 3. **Bounded.** Finished records land in a fixed-capacity ring buffer
//!    — the **flight recorder** — that evicts the *oldest* record when
//!    full, so a long run keeps the most recent history (what you want
//!    for a post-mortem) at constant memory.
//!
//! Span parentage is tracked per *thread* through a thread-local span
//! stack, so nesting falls out of lexical scoping: the simulator opens a
//! period span, the controller step span started inside it becomes its
//! child, the solver span nests below that. Guards may carry typed
//! attributes and emit point-in-time [`EventRecord`]s.
//!
//! Time comes from an injectable [`TraceClock`] so tests can be fully
//! deterministic ([`ManualClock`]); the default [`MonotonicClock`] reads a
//! process-relative [`Instant`].
//!
//! Exports: [`chrome_trace`] renders records as Chrome Trace Format JSON
//! (open in `chrome://tracing` or <https://ui.perfetto.dev>), [`jsonl`]
//! as a line-delimited event log. See `docs/OBSERVABILITY.md` ("Tracing
//! and post-mortems") for the schemas.
//!
//! ```
//! use dspp_telemetry::Tracer;
//!
//! let tracer = Tracer::enabled(1024);
//! {
//!     let mut outer = tracer.span("demo.outer");
//!     outer.attr("period", 3u64);
//!     let inner = tracer.span("demo.inner");
//!     inner.event("demo.tick");
//! } // guards drop innermost-first; records land in the flight recorder
//! let records = tracer.records();
//! assert_eq!(records.len(), 3); // event + two spans
//! let _chrome = tracer.to_chrome_trace(); // paste into Perfetto
//! ```

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

use parking_lot::Mutex;

use crate::json;

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// Source of monotonic trace timestamps, in nanoseconds from an arbitrary
/// per-tracer epoch. Injectable so tests see deterministic timings.
pub trait TraceClock: Send + Sync {
    /// Nanoseconds since the clock's epoch.
    fn now_ns(&self) -> u64;
}

/// The default clock: nanoseconds since the tracer was constructed.
#[derive(Debug)]
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        MonotonicClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceClock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A hand-cranked clock for deterministic tests: time only moves when
/// [`ManualClock::advance`] is called.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A clock stopped at 0 ns.
    pub fn new() -> Arc<Self> {
        Arc::new(ManualClock::default())
    }

    /// Moves time forward by `ns` nanoseconds.
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::Relaxed);
    }
}

impl TraceClock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

impl TraceClock for Arc<ManualClock> {
    fn now_ns(&self) -> u64 {
        self.as_ref().now_ns()
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// A typed attribute value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (counts, ids).
    UInt(u64),
    /// Floating point (residuals, costs, magnitudes).
    Float(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form text (status names, labels).
    Str(String),
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::UInt(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::UInt(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// Attribute list: static keys (metric-style dotted names) with typed
/// values.
pub type Attrs = Vec<(&'static str, AttrValue)>;

/// A finished span: a named interval with identity, parentage and
/// attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique (per tracer) span id, starting at 1.
    pub id: u64,
    /// Enclosing span on the same thread at start time, if any.
    pub parent: Option<u64>,
    /// The thread the span ran on, numbered per tracer: 1 for the first
    /// thread that recorded into the tracer, 2 for the next, and so on.
    pub thread: u64,
    /// Static span name, e.g. `"controller.step"`.
    pub name: &'static str,
    /// Start timestamp (ns since the tracer's clock epoch).
    pub start_ns: u64,
    /// End timestamp (ns); `end_ns >= start_ns`.
    pub end_ns: u64,
    /// Typed key–value attributes set during the span.
    pub attrs: Attrs,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A point-in-time event, optionally attached to the span it occurred in.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Id of the span this event fired inside, if any.
    pub span: Option<u64>,
    /// The emitting thread, numbered like [`SpanRecord::thread`].
    pub thread: u64,
    /// Static event name, e.g. `"solver.lq.iteration"`.
    pub name: &'static str,
    /// Timestamp (ns since the tracer's clock epoch).
    pub ts_ns: u64,
    /// Typed key–value attributes.
    pub attrs: Attrs,
}

/// One flight-recorder entry.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A finished span (recorded when its guard drops).
    Span(SpanRecord),
    /// An instant event.
    Event(EventRecord),
}

impl TraceRecord {
    /// The record's name.
    pub fn name(&self) -> &'static str {
        match self {
            TraceRecord::Span(s) => s.name,
            TraceRecord::Event(e) => e.name,
        }
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Bounded in-memory store of finished [`TraceRecord`]s: a fixed-capacity
/// ring that evicts the oldest record when full, counting what it drops.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    buf: Mutex<VecDeque<TraceRecord>>,
    dropped: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` records (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            buf: Mutex::new(VecDeque::with_capacity(capacity)),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends a record, evicting the oldest if the ring is full.
    pub fn push(&self, record: TraceRecord) {
        let mut buf = self.buf.lock();
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(record);
    }

    /// Copies the current contents, oldest first (non-destructive).
    pub fn records(&self) -> Vec<TraceRecord> {
        self.buf.lock().iter().cloned().collect()
    }

    /// Removes and returns the current contents, oldest first.
    pub fn drain(&self) -> Vec<TraceRecord> {
        self.buf.lock().drain(..).collect()
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// True when nothing has been recorded (or everything drained).
    pub fn is_empty(&self) -> bool {
        self.buf.lock().is_empty()
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records evicted so far to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

/// Default flight-recorder capacity for [`Tracer::enabled`] callers that
/// take the constructor's suggestion of `DEFAULT_CAPACITY`.
pub const DEFAULT_CAPACITY: usize = 65_536;

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread stack of open spans, as (tracer id, span id) pairs so
    /// two tracers live in one thread never adopt each other's spans.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    /// (tracer id, thread number) of the tracer this thread last recorded
    /// into: a cache in front of that tracer's thread list.
    static THREAD_NUMBER: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct TracerInner {
    tracer_id: u64,
    next_span: AtomicU64,
    clock: Box<dyn TraceClock>,
    flight: FlightRecorder,
    /// Threads that have recorded into this tracer, in order of their
    /// first record; thread number `n` is entry `n - 1`.
    threads: Mutex<Vec<ThreadId>>,
}

impl TracerInner {
    /// This thread's number in this tracer, so a trace depends only on
    /// its own spans, never on which threads traced before it.
    fn thread_number(&self) -> u64 {
        let (tracer, number) = THREAD_NUMBER.get();
        if tracer == self.tracer_id {
            return number;
        }
        let id = std::thread::current().id();
        let mut threads = self.threads.lock();
        let index = threads.iter().position(|t| *t == id).unwrap_or_else(|| {
            threads.push(id);
            threads.len() - 1
        });
        let number = index as u64 + 1;
        THREAD_NUMBER.set((self.tracer_id, number));
        number
    }
}

/// Cheap, cloneable handle through which instrumented code opens spans and
/// emits events. Clones share one flight recorder and one span-id space.
///
/// Mirrors [`Recorder`](crate::Recorder): the [`Tracer::disabled`] flavor
/// (also [`Default`]) costs a branch per call and records nothing, which
/// is what every instrumented hot path sees unless a caller opts in.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.debug_struct("Tracer").field("kind", &"disabled").finish(),
            Some(i) => f
                .debug_struct("Tracer")
                .field("kind", &"enabled")
                .field("capacity", &i.flight.capacity())
                .field("len", &i.flight.len())
                .finish(),
        }
    }
}

impl Tracer {
    /// A tracer that drops everything at zero cost.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer recording into a flight recorder of `capacity` records
    /// (use [`DEFAULT_CAPACITY`] when in doubt), timed by the monotonic
    /// wall clock.
    pub fn enabled(capacity: usize) -> Self {
        Tracer::with_clock(capacity, Box::new(MonotonicClock::new()))
    }

    /// A tracer with an explicit [`TraceClock`] — the deterministic-test
    /// entry point (pass a [`ManualClock`]).
    pub fn with_clock(capacity: usize, clock: Box<dyn TraceClock>) -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                tracer_id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
                next_span: AtomicU64::new(1),
                clock,
                flight: FlightRecorder::new(capacity),
                threads: Mutex::new(Vec::new()),
            })),
        }
    }

    /// True unless this is a disabled tracer. Hot paths may use this to
    /// skip computing expensive attribute values.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span named `name`, parented to the innermost open span on
    /// this thread (of this tracer). The returned guard records the span
    /// into the flight recorder when dropped.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { state: None };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack
                .iter()
                .rev()
                .find(|(t, _)| *t == inner.tracer_id)
                .map(|(_, s)| *s);
            stack.push((inner.tracer_id, id));
            parent
        });
        SpanGuard {
            state: Some(GuardState {
                tracer: Arc::clone(inner),
                id,
                parent,
                thread: inner.thread_number(),
                name,
                start_ns: inner.clock.now_ns(),
                attrs: Vec::new(),
            }),
        }
    }

    /// Emits an instant event, attached to the innermost open span on this
    /// thread if one exists.
    pub fn event(&self, name: &'static str) {
        self.event_with(name, []);
    }

    /// [`Tracer::event`] with attributes.
    pub fn event_with(
        &self,
        name: &'static str,
        attrs: impl IntoIterator<Item = (&'static str, AttrValue)>,
    ) {
        let Some(inner) = &self.inner else { return };
        let span = SPAN_STACK.with(|stack| {
            stack
                .borrow()
                .iter()
                .rev()
                .find(|(t, _)| *t == inner.tracer_id)
                .map(|(_, s)| *s)
        });
        inner.flight.push(TraceRecord::Event(EventRecord {
            span,
            thread: inner.thread_number(),
            name,
            ts_ns: inner.clock.now_ns(),
            attrs: attrs.into_iter().collect(),
        }));
    }

    /// Copies the flight recorder's current contents, oldest first.
    /// Empty for a disabled tracer.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.inner
            .as_ref()
            .map(|i| i.flight.records())
            .unwrap_or_default()
    }

    /// Removes and returns the flight recorder's contents, oldest first.
    pub fn drain(&self) -> Vec<TraceRecord> {
        self.inner
            .as_ref()
            .map(|i| i.flight.drain())
            .unwrap_or_default()
    }

    /// Records evicted so far (0 when disabled).
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map(|i| i.flight.dropped()).unwrap_or(0)
    }

    /// The flight recorder's capacity, `None` when disabled.
    pub fn capacity(&self) -> Option<usize> {
        self.inner.as_ref().map(|i| i.flight.capacity())
    }

    /// Renders the current records as Chrome Trace Format JSON
    /// (non-destructive). Empty-but-valid JSON for a disabled tracer.
    pub fn to_chrome_trace(&self) -> String {
        chrome_trace(&self.records())
    }

    /// Renders the current records as a line-delimited JSON event log
    /// (non-destructive). Empty string for a disabled tracer.
    pub fn to_jsonl(&self) -> String {
        jsonl(&self.records())
    }
}

struct GuardState {
    tracer: Arc<TracerInner>,
    id: u64,
    parent: Option<u64>,
    thread: u64,
    name: &'static str,
    start_ns: u64,
    attrs: Attrs,
}

/// RAII guard of an open span: dropping it timestamps the end and commits
/// the [`SpanRecord`] to the flight recorder. Obtained from
/// [`Tracer::span`]; inert (all methods no-ops) when the tracer is
/// disabled.
pub struct SpanGuard {
    state: Option<GuardState>,
}

impl SpanGuard {
    /// True when this guard belongs to an enabled tracer — use to skip
    /// computing expensive attribute values.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// The span's id, `None` when disabled.
    pub fn id(&self) -> Option<u64> {
        self.state.as_ref().map(|s| s.id)
    }

    /// Attaches (or appends) a typed attribute.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(state) = &mut self.state {
            state.attrs.push((key, value.into()));
        }
    }

    /// Emits an instant event inside this span.
    pub fn event(&self, name: &'static str) {
        self.event_with(name, []);
    }

    /// [`SpanGuard::event`] with attributes.
    pub fn event_with(
        &self,
        name: &'static str,
        attrs: impl IntoIterator<Item = (&'static str, AttrValue)>,
    ) {
        let Some(state) = &self.state else { return };
        state.tracer.flight.push(TraceRecord::Event(EventRecord {
            span: Some(state.id),
            thread: state.thread,
            name,
            ts_ns: state.tracer.clock.now_ns(),
            attrs: attrs.into_iter().collect(),
        }));
    }
}

impl fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.state {
            None => f.write_str("SpanGuard(disabled)"),
            Some(s) => write!(f, "SpanGuard({} #{})", s.name, s.id),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        let end_ns = state.tracer.clock.now_ns();
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Normally the top of the stack; search defensively so an
            // out-of-order drop cannot corrupt unrelated parentage.
            if let Some(pos) = stack
                .iter()
                .rposition(|&(t, s)| t == state.tracer.tracer_id && s == state.id)
            {
                stack.remove(pos);
            }
        });
        state.tracer.flight.push(TraceRecord::Span(SpanRecord {
            id: state.id,
            parent: state.parent,
            thread: state.thread,
            name: state.name,
            start_ns: state.start_ns,
            end_ns,
            attrs: state.attrs,
        }));
    }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

fn push_attr_value(out: &mut String, value: &AttrValue) {
    match value {
        AttrValue::Int(v) => out.push_str(&v.to_string()),
        AttrValue::UInt(v) => out.push_str(&v.to_string()),
        AttrValue::Float(v) => json::push_f64_or_null(out, *v),
        AttrValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        AttrValue::Str(v) => json::push_string(out, v),
    }
}

fn push_attrs(out: &mut String, attrs: &Attrs) {
    out.push('{');
    for (i, (key, value)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_string(out, key);
        out.push(':');
        push_attr_value(out, value);
    }
    out.push('}');
}

/// Microseconds with nanosecond precision, the unit Chrome traces use.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

/// Renders records as Chrome Trace Format JSON (the "JSON Array Format"
/// with a `traceEvents` wrapper), loadable in `chrome://tracing` and
/// Perfetto. Spans become complete (`"ph":"X"`) events, instant events
/// become `"ph":"i"` with thread scope; span id/parent ride in `args` so
/// the hierarchy survives the export.
pub fn chrome_trace(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, record) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match record {
            TraceRecord::Span(s) => {
                out.push_str("{\"name\":");
                json::push_string(&mut out, s.name);
                out.push_str(",\"cat\":\"dspp\",\"ph\":\"X\",\"ts\":");
                out.push_str(&us(s.start_ns));
                out.push_str(",\"dur\":");
                out.push_str(&us(s.duration_ns()));
                out.push_str(&format!(",\"pid\":1,\"tid\":{},\"args\":", s.thread));
                let mut args: Attrs = vec![("span_id", AttrValue::UInt(s.id))];
                if let Some(p) = s.parent {
                    args.push(("parent_id", AttrValue::UInt(p)));
                }
                args.extend(s.attrs.iter().cloned());
                push_attrs(&mut out, &args);
                out.push('}');
            }
            TraceRecord::Event(e) => {
                out.push_str("{\"name\":");
                json::push_string(&mut out, e.name);
                out.push_str(",\"cat\":\"dspp\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
                out.push_str(&us(e.ts_ns));
                out.push_str(&format!(",\"pid\":1,\"tid\":{},\"args\":", e.thread));
                let mut args: Attrs = Vec::with_capacity(e.attrs.len() + 1);
                if let Some(span) = e.span {
                    args.push(("span_id", AttrValue::UInt(span)));
                }
                args.extend(e.attrs.iter().cloned());
                push_attrs(&mut out, &args);
                out.push('}');
            }
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Renders records as a line-delimited JSON event log (one object per
/// line). Spans carry `"type":"span"` with `id`/`parent`/`start_ns`/
/// `end_ns`; events carry `"type":"event"` with `span`/`ts_ns`; both
/// carry `thread`, `name` and an `attrs` object. The schema is documented
/// in `docs/OBSERVABILITY.md`.
pub fn jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 96);
    for record in records {
        match record {
            TraceRecord::Span(s) => {
                out.push_str("{\"type\":\"span\",\"id\":");
                out.push_str(&s.id.to_string());
                out.push_str(",\"parent\":");
                match s.parent {
                    Some(p) => out.push_str(&p.to_string()),
                    None => out.push_str("null"),
                }
                out.push_str(&format!(",\"thread\":{},\"name\":", s.thread));
                json::push_string(&mut out, s.name);
                out.push_str(&format!(
                    ",\"start_ns\":{},\"end_ns\":{},\"attrs\":",
                    s.start_ns, s.end_ns
                ));
                push_attrs(&mut out, &s.attrs);
                out.push_str("}\n");
            }
            TraceRecord::Event(e) => {
                out.push_str("{\"type\":\"event\",\"span\":");
                match e.span {
                    Some(s) => out.push_str(&s.to_string()),
                    None => out.push_str("null"),
                }
                out.push_str(&format!(",\"thread\":{},\"name\":", e.thread));
                json::push_string(&mut out, e.name);
                out.push_str(&format!(",\"ts_ns\":{},\"attrs\":", e.ts_ns));
                push_attrs(&mut out, &e.attrs);
                out.push_str("}\n");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual_tracer(capacity: usize) -> (Tracer, Arc<ManualClock>) {
        let clock = ManualClock::new();
        let tracer = Tracer::with_clock(capacity, Box::new(Arc::clone(&clock)));
        (tracer, clock)
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let mut span = tracer.span("x");
        assert!(!span.is_enabled());
        assert_eq!(span.id(), None);
        span.attr("k", 1u64);
        span.event("e");
        tracer.event("top");
        drop(span);
        assert!(tracer.records().is_empty());
        assert_eq!(tracer.capacity(), None);
        assert_eq!(tracer.dropped(), 0);
        assert_eq!(tracer.to_jsonl(), "");
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Tracer::default().is_enabled());
    }

    #[test]
    fn spans_nest_through_the_thread_local_stack() {
        let (tracer, clock) = manual_tracer(64);
        {
            let _outer = tracer.span("outer");
            clock.advance(100);
            {
                let _inner = tracer.span("inner");
                clock.advance(50);
            }
            clock.advance(25);
        }
        let records = tracer.records();
        assert_eq!(records.len(), 2);
        // Inner finishes (and records) first.
        let TraceRecord::Span(inner) = &records[0] else {
            panic!("expected span");
        };
        let TraceRecord::Span(outer) = &records[1] else {
            panic!("expected span");
        };
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.start_ns, 100);
        assert_eq!(inner.duration_ns(), 50);
        assert_eq!(outer.start_ns, 0);
        assert_eq!(outer.duration_ns(), 175);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let (tracer, _clock) = manual_tracer(64);
        let root_id;
        {
            let root = tracer.span("root");
            root_id = root.id().unwrap();
            drop(tracer.span("a"));
            drop(tracer.span("b"));
        }
        let spans: Vec<SpanRecord> = tracer
            .records()
            .into_iter()
            .filter_map(|r| match r {
                TraceRecord::Span(s) => Some(s),
                _ => None,
            })
            .collect();
        let a = spans.iter().find(|s| s.name == "a").unwrap();
        let b = spans.iter().find(|s| s.name == "b").unwrap();
        assert_eq!(a.parent, Some(root_id));
        assert_eq!(b.parent, Some(root_id));
    }

    #[test]
    fn events_attach_to_the_innermost_span() {
        let (tracer, clock) = manual_tracer(64);
        tracer.event("orphan");
        let span = tracer.span("s");
        clock.advance(10);
        span.event_with("tick", [("i", AttrValue::UInt(3))]);
        tracer.event("ambient"); // also inside `s` via the stack
        drop(span);
        let records = tracer.records();
        let events: Vec<&EventRecord> = records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Event(e) => Some(e),
                _ => None,
            })
            .collect();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].span, None);
        assert!(events[1].span.is_some());
        assert_eq!(events[1].ts_ns, 10);
        assert_eq!(events[1].attrs, vec![("i", AttrValue::UInt(3))]);
        assert_eq!(events[2].span, events[1].span);
    }

    #[test]
    fn flight_recorder_evicts_oldest_at_capacity() {
        let (tracer, _clock) = manual_tracer(3);
        for _ in 0..7 {
            tracer.event("e");
        }
        assert_eq!(tracer.records().len(), 3);
        assert_eq!(tracer.dropped(), 4);
        assert_eq!(tracer.capacity(), Some(3));
        // Drain empties without touching the eviction counter.
        assert_eq!(tracer.drain().len(), 3);
        assert!(tracer.records().is_empty());
        assert_eq!(tracer.dropped(), 4);
    }

    #[test]
    fn flight_recorder_keeps_newest_records() {
        let recorder = FlightRecorder::new(2);
        for i in 0..5u64 {
            recorder.push(TraceRecord::Event(EventRecord {
                span: None,
                thread: 1,
                name: "e",
                ts_ns: i,
                attrs: vec![],
            }));
        }
        let kept: Vec<u64> = recorder
            .records()
            .iter()
            .map(|r| match r {
                TraceRecord::Event(e) => e.ts_ns,
                TraceRecord::Span(s) => s.end_ns,
            })
            .collect();
        assert_eq!(kept, vec![3, 4]);
        assert_eq!(recorder.dropped(), 3);
        assert_eq!(recorder.len(), 2);
        assert!(!recorder.is_empty());
    }

    #[test]
    fn two_tracers_in_one_thread_do_not_cross_parent() {
        let (a, _ca) = manual_tracer(16);
        let (b, _cb) = manual_tracer(16);
        let _outer_a = a.span("a.outer");
        {
            let _span_b = b.span("b.span");
        }
        let records = b.records();
        let TraceRecord::Span(sb) = &records[0] else {
            panic!("expected span");
        };
        // b's span must not adopt a's open span as parent.
        assert_eq!(sb.parent, None);
    }

    #[test]
    fn clones_share_the_flight_recorder() {
        let (tracer, _clock) = manual_tracer(16);
        let clone = tracer.clone();
        drop(clone.span("from_clone"));
        assert_eq!(tracer.records().len(), 1);
    }

    #[test]
    fn concurrent_spans_record_distinct_threads() {
        let (tracer, _clock) = manual_tracer(1024);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let tracer = tracer.clone();
                s.spawn(move || {
                    for _ in 0..16 {
                        let span = tracer.span("worker");
                        span.event("tick");
                    }
                });
            }
        });
        let records = tracer.records();
        assert_eq!(records.len(), 4 * 16 * 2);
        let mut ids: Vec<u64> = records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Span(s) => Some(s.id),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 64, "span ids must be unique");
    }

    #[test]
    fn thread_numbers_are_local_to_each_tracer() {
        // Another tracer records on another thread first.
        let other = Tracer::enabled(8);
        std::thread::spawn(move || drop(other.span("other")))
            .join()
            .unwrap();
        let (tracer, _clock) = manual_tracer(64);
        let first = tracer.clone();
        let jsonl = std::thread::spawn(move || {
            drop(first.span("fresh"));
            first.to_jsonl()
        })
        .join()
        .unwrap();
        assert!(jsonl.contains("\"thread\":1,"), "{jsonl}");
        // The next new thread is 2, the one after that 3; a thread keeps
        // its number when another tracer records on it in between.
        let second = tracer.clone();
        std::thread::spawn(move || second.event("second"))
            .join()
            .unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                drop(tracer.span("third"));
                drop(Tracer::enabled(8).span("interloper"));
                drop(tracer.span("third.again"));
            });
        });
        let threads: Vec<u64> = tracer
            .records()
            .iter()
            .map(|r| match r {
                TraceRecord::Span(s) => s.thread,
                TraceRecord::Event(e) => e.thread,
            })
            .collect();
        assert_eq!(threads, [1, 2, 3, 3]);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_span_hierarchy() {
        let (tracer, clock) = manual_tracer(64);
        {
            let mut outer = tracer.span("outer");
            outer.attr("period", 7u64);
            outer.attr("label", "warm");
            clock.advance(1500);
            let inner = tracer.span("inner");
            inner.event_with("tick", [("residual", AttrValue::Float(1e-9))]);
            clock.advance(500);
        }
        let text = tracer.to_chrome_trace();
        let doc = json::parse(&text).expect("chrome trace must be valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        let outer = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("outer"))
            .unwrap();
        let inner = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("inner"))
            .unwrap();
        assert_eq!(outer.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(
            inner
                .get("args")
                .unwrap()
                .get("parent_id")
                .unwrap()
                .as_u64(),
            outer.get("args").unwrap().get("span_id").unwrap().as_u64()
        );
        // ts/dur are microseconds: outer spans 0 → 2000 ns = 2.0 µs.
        assert_eq!(outer.get("dur").unwrap().as_f64(), Some(2.0));
        assert_eq!(
            outer.get("args").unwrap().get("period").unwrap().as_u64(),
            Some(7)
        );
        assert_eq!(
            outer.get("args").unwrap().get("label").unwrap().as_str(),
            Some("warm")
        );
    }

    #[test]
    fn jsonl_lines_parse_individually() {
        let (tracer, clock) = manual_tracer(64);
        {
            let span = tracer.span("s");
            clock.advance(42);
            span.event_with("e", [("ok", AttrValue::Bool(true))]);
        }
        let text = tracer.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let event = json::parse(lines[0]).unwrap();
        let span = json::parse(lines[1]).unwrap();
        assert_eq!(event.get("type").unwrap().as_str(), Some("event"));
        assert_eq!(event.get("ts_ns").unwrap().as_u64(), Some(42));
        assert_eq!(
            event.get("attrs").unwrap().get("ok").unwrap().as_bool(),
            Some(true)
        );
        assert_eq!(span.get("type").unwrap().as_str(), Some("span"));
        assert_eq!(span.get("start_ns").unwrap().as_u64(), Some(0));
        assert_eq!(span.get("end_ns").unwrap().as_u64(), Some(42));
        assert_eq!(
            span.get("id").unwrap().as_u64(),
            event.get("span").unwrap().as_u64()
        );
    }

    #[test]
    fn exporters_escape_and_encode_non_finite() {
        let records = vec![TraceRecord::Event(EventRecord {
            span: None,
            thread: 1,
            name: "weird\"name",
            ts_ns: 1,
            attrs: vec![("nan", AttrValue::Float(f64::NAN))],
        })];
        let chrome = chrome_trace(&records);
        assert!(json::parse(&chrome).is_ok());
        assert!(chrome.contains("weird\\\"name"));
        assert!(chrome.contains("\"nan\":null"));
        let lines = jsonl(&records);
        assert!(json::parse(lines.trim()).is_ok());
    }

    #[test]
    fn manual_clock_is_deterministic() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_ns(), 0);
        clock.advance(7);
        clock.advance(5);
        assert_eq!(clock.now_ns(), 12);
    }
}
