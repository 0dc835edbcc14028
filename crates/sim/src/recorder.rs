use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Named series, each a list of `(x, y)` points, sorted by name.
type SeriesMap = BTreeMap<String, Vec<(f64, f64)>>;

/// A thread-safe collector of named numeric series.
///
/// The experiments crate runs parameter sweeps on scoped threads
/// (`std::thread::scope`), each thread pushing its `(parameter, value)` results into
/// a shared recorder; the main thread then drains everything in
/// deterministic (sorted-key) order for the CSV writers.
///
/// # Examples
///
/// ```
/// use dspp_sim::SharedRecorder;
///
/// let rec = SharedRecorder::new();
/// let handle = rec.clone();
/// handle.push("cost", 1.0, 42.0);
/// handle.push("cost", 0.5, 40.0);
/// let series = rec.series("cost");
/// assert_eq!(series, vec![(0.5, 40.0), (1.0, 42.0)]); // sorted by key
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedRecorder {
    inner: Arc<Mutex<SeriesMap>>,
}

impl SharedRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        SharedRecorder::default()
    }

    /// Appends `(x, y)` to the named series.
    pub fn push(&self, name: &str, x: f64, y: f64) {
        self.inner
            .lock()
            .entry(name.to_string())
            .or_default()
            .push((x, y));
    }

    /// Returns the named series sorted by `x` (empty if absent).
    pub fn series(&self, name: &str) -> Vec<(f64, f64)> {
        let mut v = self.inner.lock().get(name).cloned().unwrap_or_default();
        v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        v
    }

    /// All series names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.inner.lock().keys().cloned().collect()
    }

    /// Renders the named series as CSV in the `results/*.csv` layout the
    /// figure regenerators write: a header line `x_name,columns...`, then
    /// one row per grid point with every value printed as `{:.6}` and
    /// comma-joined. Column `i` takes its y-values from series
    /// `columns[i]`; the x grid comes from the first column's series, and
    /// every listed series must be defined on that same grid.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending series when `columns` is
    /// empty, a series is missing/empty, or the x grids disagree.
    pub fn to_csv(&self, x_name: &str, columns: &[&str]) -> Result<String, String> {
        if columns.is_empty() {
            return Err("to_csv needs at least one column".into());
        }
        let series: Vec<Vec<(f64, f64)>> = columns.iter().map(|c| self.series(c)).collect();
        let grid: Vec<f64> = series[0].iter().map(|(x, _)| *x).collect();
        if grid.is_empty() {
            return Err(format!("series {:?} is missing or empty", columns[0]));
        }
        for (name, s) in columns.iter().zip(&series) {
            if s.len() != grid.len() {
                return Err(format!(
                    "series {name:?} has {} points, expected {}",
                    s.len(),
                    grid.len()
                ));
            }
            if s.iter().zip(&grid).any(|((x, _), g)| (x - g).abs() > 1e-9) {
                return Err(format!("series {name:?} is on a different x grid"));
            }
        }
        let mut out = String::new();
        out.push_str(x_name);
        for name in columns {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for (i, x) in grid.iter().enumerate() {
            out.push_str(&format!("{x:.6}"));
            for s in &series {
                out.push_str(&format!(",{:.6}", s[i].1));
            }
            out.push('\n');
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_across_threads() {
        let rec = SharedRecorder::new();
        push_from_scoped_threads(&rec);
        let s = rec.series("w");
        assert_eq!(s.len(), 8);
        // Sorted by x regardless of insertion thread.
        for pair in s.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
        assert_eq!(rec.names(), vec!["w".to_string()]);
    }

    fn push_from_scoped_threads(rec: &SharedRecorder) {
        std::thread::scope(|s| {
            for t in 0..4 {
                let rec = rec.clone();
                s.spawn(move || {
                    rec.push("w", (7 - t) as f64, t as f64);
                    rec.push("w", t as f64, t as f64);
                });
            }
        });
    }

    #[test]
    fn missing_series_is_empty() {
        let rec = SharedRecorder::new();
        assert!(rec.series("nope").is_empty());
        assert!(rec.names().is_empty());
    }

    #[test]
    fn to_csv_matches_results_layout() {
        let rec = SharedRecorder::new();
        for (x, a, b) in [(1.0, 10.0, 0.5), (0.0, 9.0, 0.25)] {
            rec.push("alpha", x, a);
            rec.push("beta", x, b);
        }
        let csv = rec.to_csv("hour", &["alpha", "beta"]).unwrap();
        assert_eq!(
            csv,
            "hour,alpha,beta\n0.000000,9.000000,0.250000\n1.000000,10.000000,0.500000\n"
        );
    }

    #[test]
    fn to_csv_rejects_mismatched_series() {
        let rec = SharedRecorder::new();
        rec.push("a", 0.0, 1.0);
        rec.push("a", 1.0, 2.0);
        rec.push("short", 0.0, 1.0);
        rec.push("offgrid", 0.0, 1.0);
        rec.push("offgrid", 2.0, 2.0);
        assert!(rec.to_csv("x", &[]).is_err());
        assert!(rec.to_csv("x", &["missing"]).is_err());
        assert!(rec
            .to_csv("x", &["a", "short"])
            .unwrap_err()
            .contains("short"));
        assert!(rec
            .to_csv("x", &["a", "offgrid"])
            .unwrap_err()
            .contains("different x grid"));
    }
}
