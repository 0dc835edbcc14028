//! Shared scenario parameters for the Section VII experiments.
//!
//! Everything the paper fixes once — data-center sites, access networks,
//! electricity markets, SLA parameters — is built here so the figure
//! modules stay small and consistent with one another.

use dspp_core::{CoreError, Dspp, DsppBuilder};
use dspp_pricing::{ElectricityMarket, VmClass};
use dspp_topology::{default_data_centers, geo_latency_matrix, us_cities, LatencyMatrix};

/// Per-server service rate used by the single-provider experiments
/// (requests/second).
pub const SERVICE_RATE: f64 = 250.0;

/// SLA latency target for the wide-area experiments (seconds). Chosen so
/// every data center can serve nearby regions but not the opposite coast —
/// the regime in which price-driven load shifting (Figure 5) is a
/// *constrained* optimization rather than a trivial winner-takes-all.
pub const SLA_LATENCY: f64 = 0.030;

/// The paper's four-region electricity market (Figure 3 calibration).
pub fn market() -> ElectricityMarket {
    ElectricityMarket::us_default()
}

/// The 4 data centers × 24 access networks latency matrix, from great-circle
/// distances (2 ms access hop + 10 µs/km propagation).
pub fn latency_matrix() -> LatencyMatrix {
    geo_latency_matrix(&default_data_centers(), &us_cities(), 0.002, 1.0e-5)
        .expect("the fixed city database yields a valid matrix")
}

/// Metro populations of the 24 access networks (demand weights).
pub fn populations() -> Vec<f64> {
    us_cities().iter().map(|c| c.population).collect()
}

/// Builds the wide-area single-provider DSPP: 4 DCs, the given subset of
/// access networks, market-driven server prices over `periods` hours.
///
/// `locations` selects which of the 24 access networks participate (many
/// experiments use a subset to keep the figures legible, as the paper's
/// Figure 5 does with 3 data centers).
///
/// # Errors
///
/// Propagates [`CoreError`] from the builder (e.g. a selected location
/// outside every data center's SLA reach).
pub fn wide_area_problem(
    locations: &[usize],
    periods: usize,
    reconfig_weight: f64,
    sla_latency: f64,
) -> Result<Dspp, CoreError> {
    let full = latency_matrix();
    let latency: Vec<Vec<f64>> = (0..full.num_data_centers())
        .map(|l| locations.iter().map(|&v| full.get(l, v)).collect())
        .collect();
    let prices = market().server_price_trace(VmClass::Medium, periods, 1.0, 0);
    let mut builder = DsppBuilder::new(full.num_data_centers(), locations.len())
        .service_rate(SERVICE_RATE)
        .sla_latency(sla_latency)
        .latency_rows(latency);
    for l in 0..full.num_data_centers() {
        builder = builder
            .price_trace(l, prices.data_center(l).to_vec())
            .reconfiguration_weight(l, reconfig_weight)
            .capacity(l, 2000.0);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_matrix_covers_paper_dimensions() {
        let m = latency_matrix();
        assert_eq!(m.num_data_centers(), 4);
        assert_eq!(m.num_locations(), 24);
    }

    #[test]
    fn sla_creates_regional_service_areas() {
        // Under the default SLA, no single DC reaches every city, but every
        // city is reachable from at least one DC.
        let p = wide_area_problem(&(0..24).collect::<Vec<_>>(), 24, 0.001, SLA_LATENCY)
            .expect("all cities must be coverable");
        for l in 0..4 {
            let reach = p.arcs_for_dc(l).len();
            assert!(
                reach < 24,
                "DC {l} reaches all {reach} cities — SLA too loose for Figure 5's regime"
            );
            assert!(reach > 0, "DC {l} reaches nothing");
        }
    }

    #[test]
    fn some_city_is_contested_between_dcs() {
        let p = wide_area_problem(&(0..24).collect::<Vec<_>>(), 24, 0.001, SLA_LATENCY).unwrap();
        let contested = (0..24)
            .filter(|&v| p.arcs_for_location(v).len() >= 2)
            .count();
        assert!(
            contested >= 4,
            "only {contested} cities are multi-DC; price shifting needs more"
        );
    }
}
