//! The monitoring module of the paper's system architecture (Figure 2,
//! component 2): online statistics over observed demand and prices.
//!
//! The architecture routes all observations through a monitoring module
//! before they reach the analysis-and-prediction module. This
//! implementation keeps exponentially-weighted running statistics per
//! series and flags anomalies (flash crowds, price spikes) by z-score —
//! the signal the [`dspp_predict::GuardedPredictor`] acts on.

use serde::{Deserialize, Serialize};

/// Observations required before alarms may fire: variance estimates are
/// unreliable while the EWMA is cold.
const WARMUP: usize = 10;

/// Exponentially-weighted running mean/variance of one series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct EwmaStat {
    alpha: f64,
    mean: Option<f64>,
    var: f64,
}

impl EwmaStat {
    /// Creates a statistic with smoothing factor `alpha ∈ (0, 1]`
    /// (larger = faster forgetting).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        EwmaStat {
            alpha,
            mean: None,
            var: 0.0,
        }
    }

    /// Feeds one observation.
    fn observe(&mut self, x: f64) {
        match self.mean {
            None => self.mean = Some(x),
            Some(m) => {
                let d = x - m;
                let new_mean = m + self.alpha * d;
                // West-style EWMA variance update.
                self.var = (1.0 - self.alpha) * (self.var + self.alpha * d * d);
                self.mean = Some(new_mean);
            }
        }
    }

    /// The current mean, or `None` before any observation.
    fn mean(&self) -> Option<f64> {
        self.mean
    }

    /// The current standard deviation.
    fn std(&self) -> f64 {
        self.var.max(0.0).sqrt()
    }

    /// The z-score an observation would have right now (`None` until the
    /// statistic has a mean). The spread is floored at 1 % of the mean
    /// level so that a perfectly constant baseline — zero empirical
    /// variance — still yields a finite, meaningful score when a genuine
    /// spike arrives.
    fn z_score(&self, x: f64) -> Option<f64> {
        let m = self.mean?;
        let s = self.std().max(0.01 * m.abs()).max(1e-12);
        Some((x - m) / s)
    }
}

/// Online monitor over all demand series (and optionally prices).
///
/// # Examples
///
/// ```
/// use dspp_sim::Monitor;
///
/// let mut mon = Monitor::new(2, 0.2, 4.0);
/// for _ in 0..20 {
///     mon.observe(&[100.0, 50.0]);
/// }
/// let alarms = mon.observe(&[100.0, 400.0]); // location 1 spikes 8×
/// assert_eq!(alarms, vec![1]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Monitor {
    stats: Vec<EwmaStat>,
    /// |z| above which an observation is flagged.
    z_threshold: f64,
    /// Total observations fed.
    count: usize,
    /// Total anomalies flagged, per series.
    anomaly_counts: Vec<usize>,
}

impl Monitor {
    /// Creates a monitor over `series` series with EWMA factor `alpha` and
    /// anomaly threshold `z_threshold` (e.g. 4.0).
    ///
    /// # Panics
    ///
    /// Panics if `series == 0` or `z_threshold <= 0`.
    pub fn new(series: usize, alpha: f64, z_threshold: f64) -> Self {
        assert!(series > 0, "need at least one series");
        assert!(z_threshold > 0.0, "z threshold must be positive");
        Monitor {
            stats: (0..series).map(|_| EwmaStat::new(alpha)).collect(),
            z_threshold,
            count: 0,
            anomaly_counts: vec![0; series],
        }
    }

    /// Feeds one period of observations; returns the indices of series
    /// whose new value is anomalous w.r.t. their history *before* this
    /// observation.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the series count.
    pub fn observe(&mut self, values: &[f64]) -> Vec<usize> {
        assert_eq!(values.len(), self.stats.len(), "series count mismatch");
        let mut alarms = Vec::new();
        let armed = self.count >= WARMUP;
        for (i, (&x, stat)) in values.iter().zip(self.stats.iter_mut()).enumerate() {
            if armed {
                if let Some(z) = stat.z_score(x) {
                    if z.abs() > self.z_threshold {
                        alarms.push(i);
                        self.anomaly_counts[i] += 1;
                    }
                }
            }
            stat.observe(x);
        }
        self.count += 1;
        alarms
    }

    /// Current mean of series `i` (`None` before data arrives).
    pub fn mean(&self, i: usize) -> Option<f64> {
        self.stats[i].mean()
    }

    /// Current standard deviation of series `i`.
    pub fn std(&self, i: usize) -> f64 {
        self.stats[i].std()
    }

    /// Periods observed so far.
    pub fn periods(&self) -> usize {
        self.count
    }

    /// Anomalies flagged so far, per series.
    pub fn anomaly_counts(&self) -> &[usize] {
        &self.anomaly_counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges_to_level() {
        let mut s = EwmaStat::new(0.3);
        for _ in 0..60 {
            s.observe(42.0);
        }
        assert!((s.mean().unwrap() - 42.0).abs() < 1e-9);
        assert!(s.std() < 1e-6);
    }

    #[test]
    fn ewma_tracks_level_shift() {
        let mut s = EwmaStat::new(0.3);
        for _ in 0..40 {
            s.observe(10.0);
        }
        for _ in 0..40 {
            s.observe(20.0);
        }
        assert!((s.mean().unwrap() - 20.0).abs() < 0.1);
    }

    #[test]
    fn monitor_flags_flash_crowd_only_on_the_spiking_series() {
        let mut mon = Monitor::new(3, 0.2, 4.0);
        // Mildly noisy steady state.
        for k in 0..30 {
            let w = 1.0 + 0.05 * ((k % 5) as f64 - 2.0);
            mon.observe(&[100.0 * w, 50.0 * w, 80.0 * w]);
        }
        let alarms = mon.observe(&[100.0, 50.0, 600.0]);
        assert_eq!(alarms, vec![2]);
        assert_eq!(mon.anomaly_counts(), &[0, 0, 1]);
        assert_eq!(mon.periods(), 31);
    }

    #[test]
    fn constant_series_never_alarm() {
        let mut mon = Monitor::new(1, 0.3, 4.0);
        for _ in 0..50 {
            let alarms = mon.observe(&[7.0]);
            assert!(alarms.is_empty());
        }
    }

    #[test]
    fn first_observation_cannot_alarm() {
        let mut mon = Monitor::new(1, 0.3, 4.0);
        assert!(mon.observe(&[1e9]).is_empty());
    }

    #[test]
    #[should_panic(expected = "series count")]
    fn wrong_width_panics() {
        let mut mon = Monitor::new(2, 0.3, 4.0);
        mon.observe(&[1.0]);
    }

    #[test]
    fn z_score_is_none_before_any_observation() {
        let s = EwmaStat::new(0.3);
        assert_eq!(s.mean(), None);
        assert_eq!(s.z_score(100.0), None);
    }

    #[test]
    fn z_score_is_finite_on_zero_variance_series() {
        // A perfectly constant baseline has zero empirical variance; the
        // 1%-of-mean floor must keep the score finite and still huge for
        // a genuine spike.
        let mut s = EwmaStat::new(0.3);
        for _ in 0..50 {
            s.observe(100.0);
        }
        assert!(s.std() < 1e-9);
        let z = s.z_score(200.0).unwrap();
        assert!(z.is_finite());
        assert!(z > 50.0, "spike on a flat series must score high, got {z}");
        // At the mean itself the score is exactly zero.
        assert_eq!(s.z_score(100.0), Some(0.0));
    }

    #[test]
    fn zero_mean_zero_variance_series_uses_absolute_floor() {
        // Mean 0 makes the relative floor vanish too; the absolute 1e-12
        // floor keeps the division well-defined.
        let mut s = EwmaStat::new(0.5);
        for _ in 0..10 {
            s.observe(0.0);
        }
        let z = s.z_score(1.0).unwrap();
        assert!(z.is_finite() && z > 0.0);
    }

    #[test]
    fn default_warmup_suppresses_early_alarms() {
        // A spike inside the warm-up stays silent even though its z-score
        // would fire.
        let mut mon = Monitor::new(1, 0.3, 4.0);
        mon.observe(&[100.0]);
        assert!(mon.observe(&[10_000.0]).is_empty());
    }
}
