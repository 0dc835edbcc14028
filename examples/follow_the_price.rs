//! Follow-the-price: four data centers in different electricity markets
//! serve constant demand; servers migrate away from California as its
//! afternoon price peak arrives (the paper's Figure 5 scenario).
//!
//! ```text
//! cargo run --example follow_the_price
//! ```

use dspp::core::{DsppBuilder, MpcController, MpcSettings};
use dspp::predict::OraclePredictor;
use dspp::pricing::{ElectricityMarket, VmClass};
use dspp::sim::ClosedLoopSim;
use dspp::topology::{default_data_centers, geo_latency_matrix, us_cities};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let periods = 48;
    // Western/central cities whose SLA service areas overlap several DCs.
    let cities = [1usize, 10, 23, 12, 3, 4]; // LA, SF, Salt Lake City, Phoenix, Dallas, Houston
    let full = geo_latency_matrix(&default_data_centers(), &us_cities(), 0.002, 1.0e-5)?;
    let latency: Vec<Vec<f64>> = (0..4)
        .map(|l| cities.iter().map(|&v| full.get(l, v)).collect())
        .collect();

    // Hourly server prices from the four regional electricity markets.
    let market = ElectricityMarket::us_default();
    let prices = market.server_price_trace(VmClass::Medium, periods, 1.0, 0);

    let mut builder = DsppBuilder::new(4, cities.len())
        .service_rate(250.0)
        .sla_latency(0.030)
        .latency_rows(latency);
    for l in 0..4 {
        builder = builder
            .price_trace(l, prices.data_center(l).to_vec())
            .reconfiguration_weight(l, 2e-5);
    }
    let problem = builder.build()?;

    let demand = vec![vec![2_400.0; periods]; cities.len()];
    let controller = MpcController::new(
        problem,
        Box::new(OraclePredictor::new(demand.clone())),
        MpcSettings {
            horizon: 6,
            ..MpcSettings::default()
        },
    )?;
    let report = ClosedLoopSim::new(Box::new(controller), demand)?.run()?;

    println!("hour  CA($/MWh)  x_CA   x_TX   x_GA   x_IL");
    for p in report.periods.iter().skip(23) {
        let hour = (p.period + 1) % 24;
        println!(
            "{:>4}  {:>9.1}  {:>5.1}  {:>5.1}  {:>5.1}  {:>5.1}",
            hour,
            market.wholesale_price(0, hour as f64 + 0.5),
            p.per_dc[0],
            p.per_dc[1],
            p.per_dc[2],
            p.per_dc[3],
        );
    }
    println!("\nCalifornia sheds servers around its ~5 pm price peak; demand is constant.");
    Ok(())
}
