//! Cross-crate integration: topology → pricing → workload → controller →
//! simulator, exercising the whole pipeline the way the experiments do.

use dspp::core::{DsppBuilder, MpcController, MpcSettings, PlacementPolicy, StaticCheapestDc};
use dspp::predict::{ArPredictor, LastValue, OraclePredictor, SeasonalNaive};
use dspp::pricing::{ElectricityMarket, VmClass};
use dspp::sim::ClosedLoopSim;
use dspp::topology::{default_data_centers, geo_latency_matrix, us_cities};
use dspp::workload::{DemandModel, DiurnalProfile};

/// The full wide-area scenario: 4 DCs from the topology crate, prices from
/// the market model, diurnal population-weighted demand from the workload
/// crate, MPC from core, closed loop from sim.
fn wide_area_run(horizon: usize) -> dspp::sim::SimReport {
    let periods = 48;
    let cities = [1usize, 10, 3, 4]; // LA, SF, Dallas, Houston
    let full = geo_latency_matrix(&default_data_centers(), &us_cities(), 0.002, 1.0e-5)
        .expect("valid latency parameters");
    let latency: Vec<Vec<f64>> = (0..4)
        .map(|l| cities.iter().map(|&v| full.get(l, v)).collect())
        .collect();
    let prices =
        ElectricityMarket::us_default().server_price_trace(VmClass::Medium, periods, 1.0, 0);
    let mut builder = DsppBuilder::new(4, cities.len())
        .service_rate(250.0)
        .sla_latency(0.030)
        .latency_rows(latency);
    for l in 0..4 {
        builder = builder
            .price_trace(l, prices.data_center(l).to_vec())
            .reconfiguration_weight(l, 0.0005);
    }
    let problem = builder.build().expect("valid spec");

    let demand = DemandModel::new(DiurnalProfile::working_hours(4_000.0, 1_000.0))
        .with_population_weights(cities.iter().map(|&v| us_cities()[v].population).collect())
        .with_seed(7)
        .generate(periods, 1.0)
        .into_rows();

    let controller = MpcController::new(
        problem,
        Box::new(OraclePredictor::new(demand.clone())),
        MpcSettings {
            horizon,
            ..MpcSettings::default()
        },
    )
    .expect("controller");
    ClosedLoopSim::new(Box::new(controller), demand)
        .expect("sim")
        .run()
        .expect("run")
}

#[test]
fn wide_area_pipeline_is_sla_compliant_and_priced() {
    let report = wide_area_run(6);
    assert_eq!(report.periods.len(), 47);
    assert_eq!(
        report.violation_periods(),
        0,
        "oracle MPC must meet the SLA"
    );
    assert!(report.ledger.total() > 0.0);
    // All four DCs participate at some point (geo demand spread).
    let active = (0..report.periods[0].per_dc.len())
        .filter(|&l| report.periods.iter().any(|p| p.per_dc[l] > 0.5))
        .count();
    assert!(active >= 2, "only {active} DCs ever used");
}

#[test]
fn longer_horizons_do_not_violate_more() {
    let short = wide_area_run(2);
    let long = wide_area_run(12);
    assert_eq!(short.violation_periods(), 0);
    assert_eq!(long.violation_periods(), 0);
}

#[test]
fn mpc_beats_static_and_reactive_on_the_full_scenario() {
    let periods = 36;
    let demand = DemandModel::new(DiurnalProfile::working_hours(8_000.0, 2_000.0))
        .with_seed(3)
        .generate(periods, 1.0)
        .into_rows();
    let problem = || {
        DsppBuilder::new(1, 1)
            .service_rate(250.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010]])
            .reconfiguration_weights(vec![0.01])
            .price_trace(0, vec![0.01; periods])
            .build()
            .expect("spec")
    };
    let run = |c: Box<dyn PlacementPolicy>| {
        ClosedLoopSim::new(c, demand.clone())
            .expect("sim")
            .run()
            .expect("run")
            .ledger
            .total()
    };
    let mpc = run(Box::new(
        MpcController::new(
            problem(),
            Box::new(OraclePredictor::new(demand.clone())),
            MpcSettings {
                horizon: 6,
                ..MpcSettings::default()
            },
        )
        .expect("controller"),
    ));
    let peak = demand[0].iter().cloned().fold(0.0f64, f64::max);
    let stat = run(Box::new(
        StaticCheapestDc::new(problem(), vec![peak]).expect("static"),
    ));
    // Reactive = no lookahead: a one-period horizon on last period's demand.
    let reactive = run(Box::new(
        MpcController::new(
            problem(),
            Box::new(LastValue),
            MpcSettings {
                horizon: 1,
                ..MpcSettings::default()
            },
        )
        .expect("reactive"),
    ));
    assert!(mpc < stat, "mpc {mpc} should beat static {stat}");
    assert!(mpc < reactive, "mpc {mpc} should beat reactive {reactive}");
}

/// The headline ablation on a diurnal day: MPC's total cost beats the
/// static baseline (which pays peak hosting all night) and beats reactive
/// placement when reconfiguration is expensive. Reconfiguration must be
/// expensive *relative to hosting* for lookahead to pay — here one unit of
/// ramping costs as much as 100 server-hours.
#[test]
fn mpc_beats_baselines_on_diurnal_day() {
    let problem = || {
        DsppBuilder::new(1, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010]])
            .reconfiguration_weights(vec![5.0])
            .price_trace(0, vec![0.05])
            .build()
            .unwrap()
    };
    let demand: Vec<f64> = (0..24)
        .map(|h| if (8..17).contains(&h) { 100.0 } else { 20.0 })
        .collect();
    let run = |c: &mut dyn PlacementPolicy| -> f64 {
        demand[..23]
            .iter()
            .map(|&d| c.step(&[d]).unwrap().step_cost.total())
            .sum()
    };
    let mut mpc = MpcController::new(
        problem(),
        Box::new(OraclePredictor::new(vec![demand.clone()])),
        MpcSettings {
            horizon: 4,
            ..MpcSettings::default()
        },
    )
    .unwrap();
    let mut reactive = MpcController::new(
        problem(),
        Box::new(LastValue),
        MpcSettings {
            horizon: 1,
            ..MpcSettings::default()
        },
    )
    .unwrap();
    let mut stat = StaticCheapestDc::new(problem(), vec![100.0]).unwrap();
    let j_mpc = run(&mut mpc);
    let j_reactive = run(&mut reactive);
    let j_static = run(&mut stat);
    assert!(
        j_mpc < j_static,
        "mpc {j_mpc} should beat static {j_static}"
    );
    assert!(
        j_mpc < j_reactive,
        "mpc {j_mpc} should beat reactive {j_reactive}"
    );
}

#[test]
fn realistic_predictors_work_in_the_loop() {
    let periods = 72;
    let demand = DemandModel::new(DiurnalProfile::working_hours(5_000.0, 1_500.0))
        .with_noise(0.05)
        .with_seed(11)
        .generate(periods, 1.0)
        .into_rows();
    let problem = || {
        DsppBuilder::new(1, 1)
            .service_rate(250.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010]])
            .price_trace(0, vec![0.004; periods])
            .build()
            .expect("spec")
    };
    for predictor in [
        Box::new(SeasonalNaive::new(24)) as Box<dyn dspp::predict::Predictor>,
        Box::new(
            ArPredictor::new(2)
                .with_window(24)
                .with_stability_clamp(3.0),
        ),
    ] {
        let name = predictor.name().to_string();
        let controller = MpcController::new(
            problem(),
            predictor,
            MpcSettings {
                horizon: 4,
                ..MpcSettings::default()
            },
        )
        .expect("controller");
        let report = ClosedLoopSim::new(Box::new(controller), demand.clone())
            .expect("sim")
            .run()
            .expect("run");
        // Imperfect prediction may cause some violations, but the loop must
        // stay functional and mostly compliant on a mildly noisy trace.
        let frac = report.violation_periods() as f64 / report.periods.len() as f64;
        assert!(
            frac < 0.40,
            "{name}: {:.0}% violation periods",
            frac * 100.0
        );
        assert!(report.ledger.total() > 0.0, "{name}: no cost recorded");
    }
}
