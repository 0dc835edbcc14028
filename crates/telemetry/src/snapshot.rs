//! Point-in-time snapshots of a telemetry registry.
//!
//! A [`Snapshot`] is a plain, owned view of every metric at one instant:
//! counters as `u64`, gauges as `f64`, histograms as
//! [`HistogramSummary`]. Snapshots can be [merged](Snapshot::merge)
//! (e.g. across worker threads or runs), rendered as an aligned text
//! report via [`Display`](std::fmt::Display), or exported as JSON with
//! [`Snapshot::to_json`] — the JSON encoder is hand-rolled because this
//! workspace deliberately carries no `serde_json` dependency.

use std::collections::BTreeMap;
use std::fmt;

use serde::Serialize;

use crate::histogram::{bucket_mid, BIN_COUNT};
use crate::json::{self, JsonValue};

/// Version stamped into [`Snapshot::to_json`] output as
/// `schema_version`, and required by [`Snapshot::from_json`]. Bump when
/// the JSON layout changes shape (v1: counters/gauges/histograms maps,
/// histogram entries carrying raw `bins` plus derived stats).
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 1;

/// Frozen state of one histogram: exact count/sum/min/max plus the raw
/// log-spaced buckets (kept so summaries stay mergeable).
#[derive(Debug, Clone, Serialize)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Exact sum of all finite observations.
    pub sum: f64,
    /// Smallest finite observation (0 when empty).
    pub min: f64,
    /// Largest finite observation (0 when empty).
    pub max: f64,
    /// Per-bucket observation counts (see `histogram` module docs).
    pub bins: Vec<u64>,
}

impl HistogramSummary {
    /// Exact arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`, resolved to bucket
    /// granularity (relative error ≤ 2×) and clamped into `[min, max]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &n) in self.bins.iter().enumerate() {
            cum += n;
            if cum >= target {
                return bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds another summary into this one. Counts and buckets add;
    /// min/max widen; the mean and quantiles of the result describe the
    /// union of both observation streams.
    pub fn merge(&mut self, other: &HistogramSummary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.bins.resize(BIN_COUNT, 0);
        for (i, &n) in other.bins.iter().enumerate().take(BIN_COUNT) {
            self.bins[i] += n;
        }
    }
}

/// All metrics of a registry at one instant.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Snapshot {
    /// Monotonic event counts, keyed by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Last-written instantaneous values, keyed by metric name.
    pub gauges: BTreeMap<String, f64>,
    /// Distribution summaries, keyed by metric name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no metric has any data.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Convenience: a counter's value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Convenience: a gauge's value, `None` when absent.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Convenience: a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.get(name)
    }

    /// Merges `other` into `self`: counters add, gauges take `other`'s
    /// value (latest writer wins), histograms merge observation streams.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, v) in &other.histograms {
            self.histograms
                .entry(k.clone())
                .and_modify(|h| h.merge(v))
                .or_insert_with(|| v.clone());
        }
    }

    /// Serializes the snapshot as a JSON object with `schema_version`,
    /// `counters`, `gauges`, and `histograms` keys. Histogram entries
    /// carry `count`/`sum`/`min`/`max`/`mean`/`p50`/`p90`/`p99` plus the
    /// raw `bins` array, so [`Snapshot::from_json`] round-trips
    /// losslessly (merges and quantiles keep working after reload).
    /// Non-finite gauge values encode as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"schema_version\":");
        out.push_str(&SNAPSHOT_SCHEMA_VERSION.to_string());
        out.push_str(",\"counters\":{");
        push_entries(&mut out, self.counters.iter(), |out, v| {
            out.push_str(&v.to_string())
        });
        out.push_str("},\"gauges\":{");
        push_entries(&mut out, self.gauges.iter(), |out, v| {
            push_json_f64(out, **v)
        });
        out.push_str("},\"histograms\":{");
        push_entries(&mut out, self.histograms.iter(), |out, h| {
            out.push_str("{\"count\":");
            out.push_str(&h.count.to_string());
            for (key, value) in [
                ("sum", h.sum),
                ("min", h.min),
                ("max", h.max),
                ("mean", h.mean()),
                ("p50", h.quantile(0.50)),
                ("p90", h.quantile(0.90)),
                ("p99", h.quantile(0.99)),
            ] {
                out.push_str(",\"");
                out.push_str(key);
                out.push_str("\":");
                push_json_f64(out, value);
            }
            out.push_str(",\"bins\":");
            json::push_u64_array(out, &h.bins);
            out.push('}');
        });
        out.push_str("}}");
        out
    }

    /// Parses a snapshot previously written by [`Snapshot::to_json`].
    ///
    /// Derived histogram fields (`mean`, `p50`, …) in the input are
    /// ignored — they are recomputed from `count`/`sum`/`bins` on demand.
    /// Gauges encoded as `null` (non-finite at export time) reload as
    /// `NAN`.
    ///
    /// # Errors
    ///
    /// Returns a [`json::JsonError`] when the input is not valid JSON,
    /// is missing a required section, or declares a `schema_version`
    /// other than [`SNAPSHOT_SCHEMA_VERSION`].
    pub fn from_json(input: &str) -> Result<Snapshot, json::JsonError> {
        fn shape_err(message: &str) -> json::JsonError {
            json::JsonError {
                message: message.to_string(),
                offset: 0,
            }
        }
        let doc = json::parse(input)?;
        let version = doc
            .get("schema_version")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| shape_err("missing schema_version"))?;
        if version != SNAPSHOT_SCHEMA_VERSION {
            return Err(shape_err(&format!(
                "unsupported schema_version {version} (expected {SNAPSHOT_SCHEMA_VERSION})"
            )));
        }
        let mut snap = Snapshot::new();
        let counters = doc
            .get("counters")
            .and_then(JsonValue::as_object)
            .ok_or_else(|| shape_err("missing counters object"))?;
        for (name, value) in counters {
            let v = value
                .as_u64()
                .ok_or_else(|| shape_err(&format!("counter {name:?} is not a u64")))?;
            snap.counters.insert(name.clone(), v);
        }
        let gauges = doc
            .get("gauges")
            .and_then(JsonValue::as_object)
            .ok_or_else(|| shape_err("missing gauges object"))?;
        for (name, value) in gauges {
            let v = match value {
                JsonValue::Null => f64::NAN,
                other => other
                    .as_f64()
                    .ok_or_else(|| shape_err(&format!("gauge {name:?} is not a number")))?,
            };
            snap.gauges.insert(name.clone(), v);
        }
        let histograms = doc
            .get("histograms")
            .and_then(JsonValue::as_object)
            .ok_or_else(|| shape_err("missing histograms object"))?;
        for (name, value) in histograms {
            let field = |key: &str| {
                value
                    .get(key)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| shape_err(&format!("histogram {name:?} missing {key:?}")))
            };
            let count = value
                .get("count")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| shape_err(&format!("histogram {name:?} missing count")))?;
            let bins = value
                .get("bins")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| shape_err(&format!("histogram {name:?} missing bins")))?
                .iter()
                .map(|b| {
                    b.as_u64()
                        .ok_or_else(|| shape_err(&format!("histogram {name:?} has non-u64 bin")))
                })
                .collect::<Result<Vec<u64>, _>>()?;
            snap.histograms.insert(
                name.clone(),
                HistogramSummary {
                    count,
                    sum: field("sum")?,
                    min: field("min")?,
                    max: field("max")?,
                    bins,
                },
            );
        }
        Ok(snap)
    }
}

fn push_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, V)>,
    mut push_value: impl FnMut(&mut String, &V),
) {
    let mut first = true;
    for (name, value) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        json::push_string(out, name);
        out.push(':');
        push_value(out, &value);
    }
}

fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let s = format!("{v}");
        out.push_str(&s);
        // `{}` prints integral floats without a decimal point; keep the
        // output unambiguously a JSON number-with-fraction for readers
        // that distinguish int/float.
        if !s.contains('.') && !s.contains('e') && !s.contains("inf") {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

impl fmt::Display for Snapshot {
    /// Renders an aligned human-readable report, one section per metric
    /// kind; empty sections are omitted.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "telemetry: no metrics recorded");
        }
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0)
            .max(8);
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (name, v) in &self.counters {
                writeln!(f, "  {name:<width$}  {v}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for (name, v) in &self.gauges {
                writeln!(f, "  {name:<width$}  {v:.6}")?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(
                f,
                "histograms: {:<w$}  {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
                "",
                "count",
                "mean",
                "p50",
                "p90",
                "min",
                "max",
                w = width.saturating_sub(9)
            )?;
            for (name, h) in &self.histograms {
                writeln!(
                    f,
                    "  {name:<width$}  {:>8} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
                    h.count,
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.9),
                    h.min,
                    h.max,
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    fn summary_of(values: &[f64]) -> HistogramSummary {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h.summary()
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let s = summary_of(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!(s.quantile(0.0).max(s.min), s.quantile(0.0));
        assert!(s.quantile(0.5) >= s.min && s.quantile(0.5) <= s.max);
        assert!(s.quantile(1.0) <= s.max);
        assert!(s.quantile(0.9) >= s.quantile(0.1));
    }

    #[test]
    fn merge_counters_add_gauges_overwrite() {
        let mut a = Snapshot::new();
        a.counters.insert("c".into(), 3);
        a.gauges.insert("g".into(), 1.0);
        let mut b = Snapshot::new();
        b.counters.insert("c".into(), 4);
        b.counters.insert("only_b".into(), 1);
        b.gauges.insert("g".into(), 9.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 7);
        assert_eq!(a.counter("only_b"), 1);
        assert_eq!(a.gauge("g"), Some(9.0));
    }

    #[test]
    fn merge_histograms_unions_streams() {
        let mut a = Snapshot::new();
        a.histograms.insert("h".into(), summary_of(&[1.0, 2.0]));
        let mut b = Snapshot::new();
        b.histograms.insert("h".into(), summary_of(&[10.0, 20.0]));
        b.histograms.insert("h2".into(), summary_of(&[5.0]));
        a.merge(&b);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count, 4);
        assert!((h.sum - 33.0).abs() < 1e-12);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 20.0);
        assert_eq!(a.histogram("h2").unwrap().count, 1);
    }

    #[test]
    fn merge_into_empty_copies() {
        let mut empty = HistogramSummary {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            bins: vec![],
        };
        empty.merge(&summary_of(&[3.0]));
        assert_eq!(empty.count, 1);
        assert_eq!(empty.min, 3.0);
    }

    #[test]
    fn json_shape_and_escaping() {
        let mut s = Snapshot::new();
        s.counters.insert("a\"b".into(), 2);
        s.gauges.insert("g".into(), 1.5);
        s.gauges.insert("bad".into(), f64::NAN);
        s.histograms.insert("h".into(), summary_of(&[2.0, 4.0]));
        let json = s.to_json();
        assert!(json.starts_with("{\"schema_version\":1,\"counters\":{"));
        assert!(json.contains("\"a\\\"b\":2"));
        assert!(json.contains("\"g\":1.5"));
        assert!(json.contains("\"bad\":null"));
        assert!(json.contains("\"count\":2"));
        assert!(json.contains("\"mean\":3.0"));
        assert!(json.contains("\"bins\":["));
        assert!(json.ends_with("}}"));
    }

    #[test]
    fn json_round_trips_losslessly() {
        let mut s = Snapshot::new();
        s.counters.insert("solver.lq.solves".into(), 42);
        s.counters.insert("weird \"name\"".into(), 1);
        s.gauges.insert("game.capacity_dual".into(), -0.125);
        s.gauges.insert("nan_gauge".into(), f64::NAN);
        s.histograms
            .insert("lat".into(), summary_of(&[0.001, 0.004, 0.25, 3.0]));
        let reloaded = Snapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(reloaded.counters, s.counters);
        assert_eq!(reloaded.gauge("game.capacity_dual"), Some(-0.125));
        assert!(reloaded.gauge("nan_gauge").unwrap().is_nan());
        let (a, b) = (
            s.histogram("lat").unwrap(),
            reloaded.histogram("lat").unwrap(),
        );
        assert_eq!(a.count, b.count);
        assert_eq!(a.bins, b.bins);
        assert_eq!(a.min, b.min);
        assert_eq!(a.max, b.max);
        assert!((a.sum - b.sum).abs() < 1e-12);
        // Derived stats recompute identically from the reloaded bins.
        assert_eq!(a.quantile(0.9), b.quantile(0.9));
        // And a second encode is byte-identical modulo the NaN gauge
        // (exported as null both times).
        assert_eq!(
            reloaded.to_json(),
            Snapshot::from_json(&reloaded.to_json()).unwrap().to_json()
        );
    }

    #[test]
    fn from_json_rejects_wrong_version_and_shape() {
        let bad_version = "{\"schema_version\":99,\"counters\":{},\"gauges\":{},\"histograms\":{}}";
        let err = Snapshot::from_json(bad_version).unwrap_err();
        assert!(err.message.contains("schema_version"));
        assert!(Snapshot::from_json("{\"counters\":{}}").is_err());
        assert!(Snapshot::from_json("not json").is_err());
    }

    #[test]
    fn display_report_lists_all_sections() {
        let mut s = Snapshot::new();
        s.counters.insert("solver.lq.solves".into(), 12);
        s.gauges.insert("game.capacity_dual".into(), 0.25);
        s.histograms
            .insert("controller.step_seconds".into(), summary_of(&[0.01]));
        let text = s.to_string();
        assert!(text.contains("counters:"));
        assert!(text.contains("solver.lq.solves"));
        assert!(text.contains("gauges:"));
        assert!(text.contains("histograms:"));
    }
}
