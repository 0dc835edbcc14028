//! Figure 6: "Effect of prediction horizon on the number of servers" — the
//! Figure 4 scenario re-run with K ∈ {1, 10, 20, 30}; longer horizons
//! produce visibly smoother allocation trajectories.

use crate::{fig4, ExpResult, Figure};
use dspp_core::{DsppBuilder, MpcController, MpcSettings};
use dspp_predict::OraclePredictor;
use dspp_sim::{ClosedLoopSim, SimReport};
use dspp_telemetry::Recorder;

/// The horizons the paper sweeps.
pub const HORIZONS: [usize; 4] = [1, 10, 20, 30];

fn run_horizon(demand: &[Vec<f64>], horizon: usize, telemetry: &Recorder) -> ExpResult<SimReport> {
    let periods = demand[0].len();
    let problem = DsppBuilder::new(1, 1)
        .service_rate(250.0)
        .sla_latency(0.100)
        .latency_rows(vec![vec![0.010]])
        // Hosting is expensive relative to reconfiguration so every horizon
        // tracks the diurnal swing; horizons differ in how sharply they ramp.
        .reconfiguration_weight(0, 0.002)
        .price_trace(0, vec![0.040; periods])
        .build()?;
    let controller = MpcController::new(
        problem,
        Box::new(OraclePredictor::new(demand.to_vec())),
        MpcSettings {
            horizon,
            telemetry: telemetry.clone(),
            ..MpcSettings::default()
        },
    )?;
    Ok(ClosedLoopSim::new(Box::new(controller), demand.to_vec())?
        .with_telemetry(telemetry.clone())
        .run()?)
}

/// Regenerates Figure 6, recording controller/solver/sim metrics into
/// `telemetry`.
///
/// # Errors
///
/// Propagates solver failures.
pub fn run(telemetry: &Recorder) -> ExpResult<Figure> {
    let demand = fig4::demand_trace(48);
    let mut reports = Vec::new();
    for &k in &HORIZONS {
        reports.push(run_horizon(&demand, k, telemetry)?);
    }

    let mut rows = Vec::new();
    for (idx, p) in reports[0].periods.iter().enumerate() {
        if p.period + 1 < 24 {
            continue;
        }
        let mut row = vec![(p.period + 1 - 24) as f64];
        for r in &reports {
            row.push(r.periods[idx].total_servers);
        }
        rows.push(row);
    }

    // Smoothness metric: total reconfiguration per day, per horizon.
    let mut notes = Vec::new();
    let mut totals = Vec::new();
    for (i, r) in reports.iter().enumerate() {
        let total_u: f64 = r
            .periods
            .iter()
            .skip(23)
            .map(|p| p.reconfig_magnitude)
            .sum();
        totals.push(total_u);
        notes.push(format!(
            "K={}: total daily reconfiguration Σ|u| = {:.1}, max single step {:.1}",
            HORIZONS[i],
            total_u,
            r.max_reconfig()
        ));
    }
    notes.push(
        "longer horizons reduce the largest per-step change (paper: 'the change in the \
         number of servers tends to be less as K increases'); the effect saturates \
         beyond K≈10, as in the paper's overlapping K=10/20/30 curves"
            .into(),
    );

    let mut header = vec!["hour".to_string()];
    header.extend(HORIZONS.iter().map(|k| format!("servers_K{k}")));
    Ok(Figure {
        id: "fig6",
        title: "Effect of prediction horizon on the number of servers".into(),
        header,
        rows,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longer_horizon_is_smoother() {
        let demand = fig4::demand_trace(30);
        let telemetry = Recorder::disabled();
        let short = run_horizon(&demand, 1, &telemetry).unwrap();
        let long = run_horizon(&demand, 10, &telemetry).unwrap();
        let max_short = short.max_reconfig();
        let max_long = long.max_reconfig();
        assert!(
            max_long < max_short,
            "K=10 max|u| {max_long} should undercut K=1 {max_short}"
        );
        // Both still track the demand (same peak magnitude ballpark).
        let peak_short = short.total_series().iter().fold(0.0f64, |m, &x| m.max(x));
        let peak_long = long.total_series().iter().fold(0.0f64, |m, &x| m.max(x));
        assert!((peak_short - peak_long).abs() < 0.35 * peak_short);
    }
}
