//! Figure 4: "Impact of demand change on resource allocation" — a single
//! data center serving a single access network under diurnal demand; the
//! controller tracks the demand while smoothing reconfigurations.

use crate::{ExpResult, Figure};
use dspp_core::{DsppBuilder, MpcController, MpcSettings};
use dspp_predict::OraclePredictor;
use dspp_sim::ClosedLoopSim;
use dspp_telemetry::Recorder;
use dspp_workload::{DemandModel, DiurnalProfile};

/// Peak and off-peak demand (requests/second), mirroring Figure 4's
/// ~2.2×10⁴-request peak.
pub const PEAK_DEMAND: f64 = 22_000.0;
/// Night-time demand level.
pub const OFF_DEMAND: f64 = 4_000.0;

/// Builds the Figure 4/6 single-DC problem.
fn problem(periods: usize, reconfig: f64) -> ExpResult<dspp_core::Dspp> {
    Ok(DsppBuilder::new(1, 1)
        .service_rate(250.0)
        .sla_latency(0.100)
        .latency_rows(vec![vec![0.010]])
        .reconfiguration_weight(0, reconfig)
        .price_trace(0, vec![0.004; periods])
        .build()?)
}

/// The Figure 4/6 demand trace: two diurnal days with mild noise.
pub fn demand_trace(periods: usize) -> Vec<Vec<f64>> {
    DemandModel::new(DiurnalProfile::working_hours(PEAK_DEMAND, OFF_DEMAND))
        .with_noise(0.04)
        .with_seed(4)
        .generate(periods, 1.0)
        .into_rows()
}

/// Regenerates Figure 4, recording controller/solver/sim metrics into
/// `telemetry`.
///
/// # Errors
///
/// Propagates controller/solver failures.
pub fn run(telemetry: &Recorder) -> ExpResult<Figure> {
    let periods = 48;
    let demand = demand_trace(periods);
    let problem = problem(periods, 0.0005)?;
    let a = problem.arc_coeff(0);
    let controller = MpcController::new(
        problem,
        Box::new(OraclePredictor::new(demand.clone())),
        MpcSettings {
            horizon: 5,
            telemetry: telemetry.clone(),
            ..MpcSettings::default()
        },
    )?;
    let report = ClosedLoopSim::new(Box::new(controller), demand.clone())?
        .with_telemetry(telemetry.clone())
        .run()?;

    // Report the second simulated day (hours 24–47), like the paper's
    // single-day axis.
    let mut rows = Vec::new();
    for p in &report.periods {
        if p.period + 1 < 24 {
            continue;
        }
        rows.push(vec![
            (p.period + 1 - 24) as f64,
            p.realized_demand[0],
            p.total_servers,
        ]);
    }
    let servers: Vec<f64> = rows.iter().map(|r| r[2]).collect();
    let min_s = servers.iter().fold(f64::INFINITY, |m, &x| m.min(x));
    let max_s = servers.iter().fold(0.0f64, |m, &x| m.max(x));
    let notes = vec![
        format!(
            "allocation tracks demand: {min_s:.0}–{max_s:.0} servers across the day \
             (paper's Figure 4 spans ~10–110)"
        ),
        format!(
            "required servers at peak ≈ a·D = {:.0}; SLA violations: {}",
            a * PEAK_DEMAND,
            report.violation_periods()
        ),
        format!(
            "largest hourly reconfiguration {:.1} servers (quadratic penalty smooths the ramps)",
            report.max_reconfig()
        ),
    ];
    Ok(Figure {
        id: "fig4",
        title: "Impact of demand change on resource allocation".into(),
        header: vec!["hour".into(), "demand_req_per_s".into(), "servers".into()],
        rows,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_tracks_diurnal_demand() {
        let fig = run(&Recorder::disabled()).unwrap();
        assert_eq!(fig.rows.len(), 24);
        // Midday allocation ≫ night allocation (columns: hour, demand, x).
        let noon = fig.rows.iter().find(|r| r[0] == 12.0).unwrap();
        let night = fig.rows.iter().find(|r| r[0] == 3.0).unwrap();
        assert!(
            noon[2] > 3.0 * night[2],
            "noon {} vs night {}",
            noon[2],
            night[2]
        );
        // Peak allocation lands in the paper's ~tens-of-servers regime.
        let max = fig.rows.iter().map(|r| r[2]).fold(0.0f64, f64::max);
        assert!((60.0..150.0).contains(&max), "peak servers {max}");
        // No violations with oracle prediction.
        assert!(fig.notes[1].contains("violations: 0"), "{}", fig.notes[1]);
    }
}
