use crate::Predictor;

/// A perfect-foresight predictor backed by the true future trace.
///
/// The oracle infers the current time from the history length: if series
/// `v`'s history holds `k+1` observations, the forecast starts at period
/// `k+1` of the stored truth. Requests beyond the end of the truth repeat
/// its final value (the controller's last few horizons always overrun the
/// trace).
///
/// Used to isolate controller behaviour from prediction error — the paper's
/// Figures 4–6 and 10 are effectively oracle-prediction experiments (clean
/// diurnal traces), while Figure 9 contrasts the oracle with a fallible AR
/// model on volatile traces.
///
/// # Examples
///
/// ```
/// use dspp_predict::{OraclePredictor, Predictor};
///
/// let truth = vec![vec![1.0, 2.0, 3.0, 4.0]];
/// let oracle = OraclePredictor::new(truth);
/// // History covers periods 0..=1, so the forecast is periods 2, 3, 3...
/// let f = oracle.forecast_all(&[vec![1.0, 2.0]], 3);
/// assert_eq!(f[0], vec![3.0, 4.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OraclePredictor {
    truth: Vec<Vec<f64>>,
}

impl OraclePredictor {
    /// Creates an oracle from the true per-series traces.
    ///
    /// # Panics
    ///
    /// Panics if `truth` is empty or any series is empty.
    pub fn new(truth: Vec<Vec<f64>>) -> Self {
        assert!(!truth.is_empty(), "truth must have at least one series");
        assert!(
            truth.iter().all(|s| !s.is_empty()),
            "every truth series must be non-empty"
        );
        OraclePredictor { truth }
    }
}

impl Predictor for OraclePredictor {
    fn forecast_all(&self, histories: &[Vec<f64>], horizon: usize) -> Vec<Vec<f64>> {
        assert_eq!(
            histories.len(),
            self.truth.len(),
            "oracle knows {} series, asked about {}",
            self.truth.len(),
            histories.len()
        );
        histories
            .iter()
            .zip(&self.truth)
            .map(|(h, t)| {
                let k = h.len(); // forecast starts at absolute period k
                (0..horizon)
                    .map(|i| {
                        let idx = (k + i).min(t.len() - 1);
                        t[idx]
                    })
                    .collect()
            })
            .collect()
    }

    fn name(&self) -> &str {
        "oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_future() {
        let oracle = OraclePredictor::new(vec![vec![10.0, 20.0, 30.0], vec![1.0, 2.0, 3.0]]);
        let f = oracle.forecast_all(&[vec![10.0], vec![1.0]], 2);
        assert_eq!(f, vec![vec![20.0, 30.0], vec![2.0, 3.0]]);
    }

    #[test]
    fn clamps_at_end_of_truth() {
        let oracle = OraclePredictor::new(vec![vec![1.0, 2.0]]);
        let f = oracle.forecast_all(&[vec![1.0, 2.0]], 3);
        assert_eq!(f[0], vec![2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "oracle knows")]
    fn series_count_mismatch_panics() {
        let oracle = OraclePredictor::new(vec![vec![1.0]]);
        oracle.forecast_all(&[vec![1.0], vec![2.0]], 1);
    }

    #[test]
    #[should_panic(expected = "truth must have")]
    fn empty_truth_rejected() {
        OraclePredictor::new(vec![]);
    }
}
