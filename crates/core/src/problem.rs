use crate::{CoreError, SlaSpec};
use serde::{Deserialize, Serialize};

/// The static specification of a dynamic service placement problem:
/// data centers, client locations, latencies, SLA, capacities, prices and
/// reconfiguration weights.
///
/// Build one with [`DsppBuilder`]. At build time the SLA is compiled into
/// the *arc set*: the pairs `(l, v)` that can meet the latency target, each
/// with its coefficient `a^{lv}`. Pairs that cannot are simply not decision
/// variables — the paper's `a^{lv} = ∞` case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dspp {
    num_dcs: usize,
    num_locations: usize,
    latency: Vec<Vec<f64>>,
    sla: SlaSpec,
    capacities: Vec<f64>,
    reconfig_weights: Vec<f64>,
    /// Per-DC price series `p_k^l`; reads past the end repeat the last value.
    prices: Vec<Vec<f64>>,
    /// Resource units one server occupies (the game's `s^i`; 1 for a lone SP).
    server_size: f64,
    /// Usable arcs as (data center, location) pairs, sorted.
    arcs: Vec<(usize, usize)>,
    /// `a^{lv}` per arc, parallel to `arcs`.
    arc_coeffs: Vec<f64>,
}

impl Dspp {
    /// Number of data centers `L`.
    pub fn num_dcs(&self) -> usize {
        self.num_dcs
    }

    /// Number of client locations `V`.
    pub fn num_locations(&self) -> usize {
        self.num_locations
    }

    /// The SLA specification.
    pub fn sla(&self) -> &SlaSpec {
        &self.sla
    }

    /// Capacity `C^l` of data center `l`.
    pub fn capacity(&self, l: usize) -> f64 {
        self.capacities[l]
    }

    /// All capacities.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Reconfiguration weight `c^l` of data center `l`.
    pub fn reconfig_weight(&self, l: usize) -> f64 {
        self.reconfig_weights[l]
    }

    /// Network latency `d_{lv}`.
    pub fn latency(&self, l: usize, v: usize) -> f64 {
        self.latency[l][v]
    }

    /// Price of one server at data center `l` in period `k`; periods past
    /// the end of the configured trace repeat its final value.
    pub fn price(&self, l: usize, k: usize) -> f64 {
        let row = &self.prices[l];
        row[k.min(row.len() - 1)]
    }

    /// Length of the configured price traces.
    pub fn price_periods(&self) -> usize {
        self.prices[0].len()
    }

    /// Resource units per server (the multi-provider game's `s^i`).
    pub fn server_size(&self) -> f64 {
        self.server_size
    }

    /// The usable arcs, as sorted `(data center, location)` pairs.
    pub fn arcs(&self) -> &[(usize, usize)] {
        &self.arcs
    }

    /// Number of usable arcs (the per-stage decision dimension).
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// The SLA coefficient `a^{lv}` of arc `e`.
    pub fn arc_coeff(&self, e: usize) -> f64 {
        self.arc_coeffs[e]
    }

    /// Index of the arc `(l, v)` if it is usable.
    pub fn arc_index(&self, l: usize, v: usize) -> Option<usize> {
        self.arcs.binary_search(&(l, v)).ok()
    }

    /// Arcs serving location `v` (arc indices).
    pub fn arcs_for_location(&self, v: usize) -> Vec<usize> {
        (0..self.arcs.len())
            .filter(|&e| self.arcs[e].1 == v)
            .collect()
    }

    /// Arcs hosted at data center `l` (arc indices).
    pub fn arcs_for_dc(&self, l: usize) -> Vec<usize> {
        (0..self.arcs.len())
            .filter(|&e| self.arcs[e].0 == l)
            .collect()
    }

    /// Returns a copy with different capacities (the game's per-provider
    /// quota vector).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] if the vector has the wrong length
    /// or a negative/non-finite entry.
    pub fn with_capacities(&self, capacities: Vec<f64>) -> Result<Dspp, CoreError> {
        if capacities.len() != self.num_dcs {
            return Err(CoreError::InvalidSpec(format!(
                "expected {} capacities, got {}",
                self.num_dcs,
                capacities.len()
            )));
        }
        if !capacities.iter().all(|c| c.is_finite() && *c >= 0.0) {
            return Err(CoreError::InvalidSpec(
                "capacities must be finite and non-negative".into(),
            ));
        }
        let mut out = self.clone();
        out.capacities = capacities;
        Ok(out)
    }
}

/// Builder for [`Dspp`].
///
/// See the crate-level example. All setters are chainable; [`DsppBuilder::build`]
/// validates the whole specification at once.
#[derive(Debug, Clone)]
pub struct DsppBuilder {
    num_dcs: usize,
    num_locations: usize,
    latency: Vec<Vec<f64>>,
    service_rate: f64,
    sla_latency: f64,
    percentile: Option<f64>,
    reservation_ratio: f64,
    capacities: Vec<f64>,
    reconfig_weights: Vec<f64>,
    prices: Vec<Option<Vec<f64>>>,
    server_size: f64,
}

impl DsppBuilder {
    /// Starts a specification with `num_dcs` data centers and
    /// `num_locations` client locations.
    ///
    /// Defaults: all latencies 10 ms, service rate 100 req/s, SLA 100 ms,
    /// capacity 1e9 (effectively uncapacitated), reconfiguration weight
    /// 0.01, price 1.0 forever, server size 1.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(num_dcs: usize, num_locations: usize) -> Self {
        assert!(num_dcs > 0, "need at least one data center");
        assert!(num_locations > 0, "need at least one location");
        DsppBuilder {
            num_dcs,
            num_locations,
            latency: vec![vec![0.010; num_locations]; num_dcs],
            service_rate: 100.0,
            sla_latency: 0.100,
            percentile: None,
            reservation_ratio: 1.0,
            capacities: vec![1e9; num_dcs],
            reconfig_weights: vec![0.01; num_dcs],
            prices: vec![None; num_dcs],
            server_size: 1.0,
        }
    }

    /// Sets one network latency `d_{lv}` (seconds).
    pub fn network_latency(mut self, l: usize, v: usize, d: f64) -> Self {
        self.latency[l][v] = d;
        self
    }

    /// Sets the whole latency matrix from `[dc][location]` rows.
    pub fn latency_rows(mut self, rows: Vec<Vec<f64>>) -> Self {
        self.latency = rows;
        self
    }

    /// Sets the per-server service rate `μ`.
    pub fn service_rate(mut self, mu: f64) -> Self {
        self.service_rate = mu;
        self
    }

    /// Sets the SLA latency target `d̄` (seconds).
    pub fn sla_latency(mut self, dbar: f64) -> Self {
        self.sla_latency = dbar;
        self
    }

    /// Switches the SLA to a φ-percentile delay bound.
    pub fn percentile(mut self, phi: f64) -> Self {
        self.percentile = Some(phi);
        self
    }

    /// Sets the over-provisioning ratio `r`.
    pub fn reservation_ratio(mut self, r: f64) -> Self {
        self.reservation_ratio = r;
        self
    }

    /// Sets the capacity of data center `l`.
    pub fn capacity(mut self, l: usize, c: f64) -> Self {
        self.capacities[l] = c;
        self
    }

    /// Sets all capacities at once.
    pub fn capacities(mut self, c: Vec<f64>) -> Self {
        self.capacities = c;
        self
    }

    /// Sets the reconfiguration weight `c^l` of data center `l`.
    pub fn reconfiguration_weight(mut self, l: usize, c: f64) -> Self {
        self.reconfig_weights[l] = c;
        self
    }

    /// Sets all reconfiguration weights at once.
    pub fn reconfiguration_weights(mut self, c: Vec<f64>) -> Self {
        self.reconfig_weights = c;
        self
    }

    /// Sets the price series of data center `l` (repeats its last value
    /// beyond the end).
    pub fn price_trace(mut self, l: usize, prices: Vec<f64>) -> Self {
        self.prices[l] = Some(prices);
        self
    }

    /// Sets all price series from `[dc][period]` rows.
    pub fn price_rows(mut self, rows: Vec<Vec<f64>>) -> Self {
        self.prices = rows.into_iter().map(Some).collect();
        self
    }

    /// Sets the per-server resource size (the game's `s^i`).
    pub fn server_size(mut self, s: f64) -> Self {
        self.server_size = s;
        self
    }

    /// Validates and compiles the specification.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidSpec`] for dimension mismatches, non-finite or
    ///   negative parameters, or missing price traces.
    /// * [`CoreError::UnservableLocation`] if some location has no arc that
    ///   can meet the SLA.
    pub fn build(self) -> Result<Dspp, CoreError> {
        let sla = SlaSpec {
            service_rate: self.service_rate,
            max_latency: self.sla_latency,
            percentile: self.percentile,
            reservation_ratio: self.reservation_ratio,
        };
        sla.validate()?;
        if self.latency.len() != self.num_dcs
            || self.latency.iter().any(|r| r.len() != self.num_locations)
        {
            return Err(CoreError::InvalidSpec(format!(
                "latency matrix must be {}x{}",
                self.num_dcs, self.num_locations
            )));
        }
        for row in &self.latency {
            if row.iter().any(|d| !(d.is_finite() && *d >= 0.0)) {
                return Err(CoreError::InvalidSpec("latencies must be >= 0".into()));
            }
        }
        if self.capacities.len() != self.num_dcs
            || self
                .capacities
                .iter()
                .any(|c| !(c.is_finite() && *c >= 0.0))
        {
            return Err(CoreError::InvalidSpec(
                "capacities must be one non-negative value per data center".into(),
            ));
        }
        if self.reconfig_weights.len() != self.num_dcs
            || self
                .reconfig_weights
                .iter()
                .any(|c| !(c.is_finite() && *c > 0.0))
        {
            return Err(CoreError::InvalidSpec(
                "reconfiguration weights must be one positive value per data center".into(),
            ));
        }
        if !(self.server_size.is_finite() && self.server_size > 0.0) {
            return Err(CoreError::InvalidSpec(format!(
                "server size must be positive, got {}",
                self.server_size
            )));
        }
        let mut prices = Vec::with_capacity(self.num_dcs);
        for (l, p) in self.prices.into_iter().enumerate() {
            let p = p.ok_or_else(|| {
                CoreError::InvalidSpec(format!("data center {l} has no price trace"))
            })?;
            if p.is_empty() {
                return Err(CoreError::InvalidSpec(format!(
                    "data center {l} has an empty price trace"
                )));
            }
            if p.iter().any(|x| !(x.is_finite() && *x >= 0.0)) {
                return Err(CoreError::InvalidSpec(format!(
                    "data center {l} has a negative or non-finite price"
                )));
            }
            prices.push(p);
        }

        // Compile the arc set.
        let mut arcs = Vec::new();
        let mut arc_coeffs = Vec::new();
        for l in 0..self.num_dcs {
            for v in 0..self.num_locations {
                if let Some(a) = sla.arc_coefficient(self.latency[l][v]) {
                    arcs.push((l, v));
                    arc_coeffs.push(a);
                }
            }
        }
        for v in 0..self.num_locations {
            if !arcs.iter().any(|&(_, av)| av == v) {
                return Err(CoreError::UnservableLocation { location: v });
            }
        }
        Ok(Dspp {
            num_dcs: self.num_dcs,
            num_locations: self.num_locations,
            latency: self.latency,
            sla,
            capacities: self.capacities,
            reconfig_weights: self.reconfig_weights,
            prices,
            server_size: self.server_size,
            arcs,
            arc_coeffs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_by_two() -> DsppBuilder {
        DsppBuilder::new(2, 2)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010, 0.030], vec![0.030, 0.010]])
            .price_trace(0, vec![1.0, 2.0])
            .price_trace(1, vec![3.0])
    }

    #[test]
    fn builds_and_exposes_arcs() {
        let p = two_by_two().build().unwrap();
        assert_eq!(p.num_arcs(), 4);
        assert_eq!(p.arcs(), &[(0, 0), (0, 1), (1, 0), (1, 1)]);
        // 10 ms arcs are cheaper (smaller a) than 30 ms arcs.
        let a_near = p.arc_coeff(p.arc_index(0, 0).unwrap());
        let a_far = p.arc_coeff(p.arc_index(0, 1).unwrap());
        assert!(a_near < a_far);
    }

    #[test]
    fn sla_prunes_unusable_arcs() {
        let p = two_by_two()
            .sla_latency(0.025) // 30 ms arcs can no longer qualify
            .build()
            .unwrap();
        assert_eq!(p.num_arcs(), 2);
        assert_eq!(p.arc_index(0, 1), None);
        assert_eq!(p.arc_index(1, 0), None);
        assert!(p.arc_index(0, 0).is_some());
    }

    #[test]
    fn unservable_location_is_reported() {
        let err = DsppBuilder::new(1, 2)
            .service_rate(100.0)
            .sla_latency(0.020)
            .latency_rows(vec![vec![0.005, 0.050]])
            .price_trace(0, vec![1.0])
            .build()
            .unwrap_err();
        assert_eq!(err, CoreError::UnservableLocation { location: 1 });
    }

    #[test]
    fn price_trace_repeats_last_value() {
        let p = two_by_two().build().unwrap();
        assert_eq!(p.price(0, 0), 1.0);
        assert_eq!(p.price(0, 1), 2.0);
        assert_eq!(p.price(0, 99), 2.0);
        assert_eq!(p.price(1, 5), 3.0);
    }

    #[test]
    fn missing_price_trace_is_an_error() {
        let err = DsppBuilder::new(2, 1)
            .price_trace(0, vec![1.0])
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidSpec(_)));
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(two_by_two().service_rate(-1.0).build().is_err());
        assert!(two_by_two().capacities(vec![1.0]).build().is_err());
        assert!(two_by_two()
            .reconfiguration_weights(vec![0.0, 1.0])
            .build()
            .is_err());
        assert!(two_by_two().server_size(0.0).build().is_err());
        assert!(two_by_two().price_trace(0, vec![]).build().is_err());
        assert!(two_by_two().price_trace(0, vec![-1.0]).build().is_err());
    }

    #[test]
    fn arcs_by_location_and_dc() {
        let p = two_by_two().build().unwrap();
        assert_eq!(p.arcs_for_location(0), vec![0, 2]);
        assert_eq!(p.arcs_for_dc(1), vec![2, 3]);
    }

    #[test]
    fn with_capacities_swaps_quota() {
        let p = two_by_two().build().unwrap();
        let q = p.with_capacities(vec![5.0, 6.0]).unwrap();
        assert_eq!(q.capacity(0), 5.0);
        assert_eq!(q.capacity(1), 6.0);
        // Everything else unchanged.
        assert_eq!(q.arcs(), p.arcs());
        assert!(p.with_capacities(vec![1.0]).is_err());
        assert!(p.with_capacities(vec![-1.0, 1.0]).is_err());
    }

    #[test]
    fn percentile_sla_produces_larger_coefficients() {
        let mean = two_by_two().build().unwrap();
        let p95 = two_by_two().percentile(0.95).build().unwrap();
        let e = mean.arc_index(0, 0).unwrap();
        assert!(p95.arc_coeff(e) > mean.arc_coeff(e));
    }
}
