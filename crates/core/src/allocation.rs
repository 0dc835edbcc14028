use crate::Dspp;
use serde::{Deserialize, Serialize};

/// A server allocation: the value `x^{lv}` for every usable arc of a
/// [`Dspp`].
///
/// Allocations are plain data tied to an arc layout; the [`Dspp`] that
/// produced one must be used to interpret it.
///
/// # Examples
///
/// ```
/// use dspp_core::{Allocation, DsppBuilder};
///
/// # fn main() -> Result<(), dspp_core::CoreError> {
/// let p = DsppBuilder::new(2, 1)
///     .price_trace(0, vec![1.0])
///     .price_trace(1, vec![1.0])
///     .build()?;
/// let mut x = Allocation::zeros(&p);
/// x.set(&p, 0, 0, 5.0);
/// x.set(&p, 1, 0, 3.0);
/// assert_eq!(x.total(), 8.0);
/// assert_eq!(x.per_dc(&p), vec![5.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    values: Vec<f64>,
}

impl Allocation {
    /// The all-zero allocation for a problem.
    pub fn zeros(problem: &Dspp) -> Self {
        Allocation {
            values: vec![0.0; problem.num_arcs()],
        }
    }

    /// Wraps raw per-arc values.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from `problem.num_arcs()`.
    pub fn from_arc_values(problem: &Dspp, values: Vec<f64>) -> Self {
        assert_eq!(
            values.len(),
            problem.num_arcs(),
            "expected {} arc values, got {}",
            problem.num_arcs(),
            values.len()
        );
        Allocation { values }
    }

    /// Per-arc values, ordered like `problem.arcs()`.
    pub fn arc_values(&self) -> &[f64] {
        &self.values
    }

    /// Servers on arc `(l, v)`, or `0.0` when the arc is unusable.
    pub fn get(&self, problem: &Dspp, l: usize, v: usize) -> f64 {
        problem.arc_index(l, v).map_or(0.0, |e| self.values[e])
    }

    /// Sets the servers on arc `(l, v)`.
    ///
    /// # Panics
    ///
    /// Panics if the arc is unusable under the SLA.
    pub fn set(&mut self, problem: &Dspp, l: usize, v: usize, x: f64) {
        let e = problem
            .arc_index(l, v)
            .unwrap_or_else(|| panic!("arc ({l},{v}) is not usable under the SLA"));
        self.values[e] = x;
    }

    /// Total servers across all arcs.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Servers per data center (`x^l = Σ_v x^{lv}`).
    pub fn per_dc(&self, problem: &Dspp) -> Vec<f64> {
        let mut out = vec![0.0; problem.num_dcs()];
        for (e, &(l, _)) in problem.arcs().iter().enumerate() {
            out[l] += self.values[e];
        }
        out
    }

    /// Service capability per location: `Σ_l x^{lv} / a^{lv}` — the largest
    /// demand the allocation can absorb within the SLA.
    pub fn capability_per_location(&self, problem: &Dspp) -> Vec<f64> {
        let mut out = vec![0.0; problem.num_locations()];
        for (e, &(_, v)) in problem.arcs().iter().enumerate() {
            out[v] += self.values[e] / problem.arc_coeff(e);
        }
        out
    }

    /// Returns `true` if the allocation satisfies the demand constraint for
    /// the given demand vector (within `tol`).
    pub fn satisfies_demand(&self, problem: &Dspp, demand: &[f64], tol: f64) -> bool {
        self.capability_per_location(problem)
            .iter()
            .zip(demand)
            .all(|(cap, d)| *cap >= d - tol)
    }

    /// Returns `true` if no data-center capacity is exceeded (within `tol`),
    /// accounting for the server size.
    pub fn satisfies_capacity(&self, problem: &Dspp, tol: f64) -> bool {
        self.per_dc(problem)
            .iter()
            .enumerate()
            .all(|(l, x)| x * problem.server_size() <= problem.capacity(l) + tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DsppBuilder;

    fn problem() -> Dspp {
        DsppBuilder::new(2, 2)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010, 0.030], vec![0.030, 0.010]])
            .price_trace(0, vec![1.0])
            .price_trace(1, vec![1.0])
            .build()
            .unwrap()
    }

    #[test]
    fn zeros_and_total() {
        let p = problem();
        let x = Allocation::zeros(&p);
        assert_eq!(x.total(), 0.0);
        assert_eq!(x.arc_values().len(), 4);
    }

    #[test]
    fn per_dc_aggregation() {
        let p = problem();
        let mut x = Allocation::zeros(&p);
        x.set(&p, 0, 0, 2.0);
        x.set(&p, 0, 1, 3.0);
        x.set(&p, 1, 1, 4.0);
        assert_eq!(x.per_dc(&p), vec![5.0, 4.0]);
        assert_eq!(x.get(&p, 1, 0), 0.0);
    }

    #[test]
    fn capability_uses_arc_coefficients() {
        let p = problem();
        let mut x = Allocation::zeros(&p);
        let e = p.arc_index(0, 0).unwrap();
        let a = p.arc_coeff(e);
        x.set(&p, 0, 0, 2.0 * a); // capability exactly 2.0
        let cap = x.capability_per_location(&p);
        assert!((cap[0] - 2.0).abs() < 1e-12);
        assert_eq!(cap[1], 0.0);
        assert!(x.satisfies_demand(&p, &[2.0, 0.0], 1e-9));
        assert!(!x.satisfies_demand(&p, &[2.1, 0.0], 1e-9));
    }

    #[test]
    fn capacity_check_respects_server_size() {
        let p = DsppBuilder::new(1, 1)
            .capacity(0, 10.0)
            .server_size(2.0)
            .price_trace(0, vec![1.0])
            .build()
            .unwrap();
        let mut x = Allocation::zeros(&p);
        x.set(&p, 0, 0, 5.0); // 5 servers × size 2 = 10 units: exactly full
        assert!(x.satisfies_capacity(&p, 1e-9));
        x.set(&p, 0, 0, 5.1);
        assert!(!x.satisfies_capacity(&p, 1e-9));
    }

    #[test]
    #[should_panic(expected = "not usable")]
    fn setting_invalid_arc_panics() {
        let p = DsppBuilder::new(1, 2)
            .service_rate(100.0)
            .sla_latency(0.020)
            .latency_rows(vec![vec![0.005, 0.005]])
            .price_trace(0, vec![1.0])
            .build()
            .unwrap();
        let mut x = Allocation::zeros(&p);
        // (0, 5) is not in the arc set at all.
        x.set(&p, 0, 5, 1.0);
    }
}
