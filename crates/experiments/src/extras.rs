//! Extension ablations beyond the paper's figures, exercising the
//! features its future-work section calls for:
//!
//! * **Integer deployment** — closed-loop cost of the integerizing
//!   controller vs the continuous relaxation (the paper's MIP remark).
//! * **SLA strictness** — mean-delay vs 95th-percentile SLA cost premium
//!   (the paper's φ-percentile extension after eq. 11).
//! * **Predictor ladder** — closed-loop cost and SLA violations for
//!   persistence, seasonal, seasonal+AR and oracle prediction on a noisy
//!   diurnal trace.

use crate::{ExpResult, Figure};
use dspp_core::{
    Dspp, DsppBuilder, IntegerizingController, MpcController, MpcSettings, PlacementPolicy,
};
use dspp_predict::{ArPredictor, LastValue, OraclePredictor, Predictor, SeasonalAr, SeasonalNaive};
use dspp_sim::ClosedLoopSim;
use dspp_telemetry::Recorder;
use dspp_workload::{DemandModel, DiurnalProfile};

fn demand(periods: usize, noise: f64) -> Vec<Vec<f64>> {
    DemandModel::new(DiurnalProfile::working_hours(9_000.0, 2_500.0))
        .with_noise(noise)
        .with_seed(17)
        .generate(periods, 1.0)
        .into_rows()
}

fn problem(periods: usize, percentile: Option<f64>) -> ExpResult<Dspp> {
    let mut b = DsppBuilder::new(1, 1)
        .service_rate(250.0)
        .sla_latency(0.060)
        .latency_rows(vec![vec![0.010]])
        .reconfiguration_weight(0, 0.0005)
        .price_trace(0, vec![0.004; periods]);
    if let Some(phi) = percentile {
        b = b.percentile(phi);
    }
    Ok(b.build()?)
}

fn run_loop(
    controller: Box<dyn PlacementPolicy>,
    demand: Vec<Vec<f64>>,
    telemetry: &Recorder,
) -> ExpResult<(f64, usize)> {
    let report = ClosedLoopSim::new(controller, demand)?
        .with_telemetry(telemetry.clone())
        .run()?;
    Ok((report.ledger.total(), report.violation_periods()))
}

/// Integer vs continuous closed-loop ablation: relative cost premium of
/// integral deployment, recording metrics into `telemetry`.
///
/// # Errors
///
/// Propagates build/solver failures.
pub fn integer_ablation(telemetry: &Recorder) -> ExpResult<(f64, f64)> {
    let periods = 48;
    let d = demand(periods, 0.0);
    let mk = || -> ExpResult<MpcController> {
        Ok(MpcController::new(
            problem(periods, None)?,
            Box::new(OraclePredictor::new(d.clone())),
            MpcSettings {
                horizon: 5,
                telemetry: telemetry.clone(),
                ..MpcSettings::default()
            },
        )?)
    };
    let (continuous, _) = run_loop(Box::new(mk()?), d.clone(), telemetry)?;
    let (integral, _) = run_loop(Box::new(IntegerizingController::new(mk()?)), d, telemetry)?;
    Ok((continuous, integral))
}

/// Mean vs p95 SLA ablation: cost of the stricter guarantee, recording
/// metrics into `telemetry`.
///
/// # Errors
///
/// Propagates build/solver failures.
pub fn percentile_ablation(telemetry: &Recorder) -> ExpResult<(f64, f64)> {
    let periods = 48;
    let d = demand(periods, 0.0);
    let mut out = Vec::new();
    for phi in [None, Some(0.95)] {
        let c = MpcController::new(
            problem(periods, phi)?,
            Box::new(OraclePredictor::new(d.clone())),
            MpcSettings {
                horizon: 5,
                telemetry: telemetry.clone(),
                ..MpcSettings::default()
            },
        )?;
        out.push(run_loop(Box::new(c), d.clone(), telemetry)?.0);
    }
    Ok((out[0], out[1]))
}

/// Predictor ladder: `(name, cost, violation periods)` per predictor,
/// recording metrics into `telemetry`.
///
/// Runs with the paper's reservation-ratio cushion (r = 1.15) so that
/// forecast errors below 15 % are absorbed — the realistic operating point
/// for fallible predictors.
///
/// # Errors
///
/// Propagates build/solver failures.
pub fn predictor_ladder(telemetry: &Recorder) -> ExpResult<Vec<(String, f64, usize)>> {
    let periods = 96;
    let d = demand(periods, 0.15);
    let predictors: Vec<Box<dyn Predictor>> = vec![
        Box::new(LastValue),
        Box::new(
            ArPredictor::new(2)
                .with_window(24)
                .with_stability_clamp(3.0),
        ),
        Box::new(SeasonalNaive::new(24)),
        Box::new(SeasonalAr::new(24, 1)),
        Box::new(OraclePredictor::new(d.clone())),
    ];
    let mut rows = Vec::new();
    for p in predictors {
        let name = p.name().to_string();
        let cushioned = DsppBuilder::new(1, 1)
            .service_rate(250.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010]])
            .reconfiguration_weight(0, 0.0005)
            .price_trace(0, vec![0.004; periods])
            .reservation_ratio(1.15)
            .build()?;
        let c = MpcController::new(
            cushioned,
            p,
            MpcSettings {
                horizon: 5,
                telemetry: telemetry.clone(),
                ..MpcSettings::default()
            },
        )?;
        let (cost, violations) = run_loop(Box::new(c), d.clone(), telemetry)?;
        rows.push((name, cost, violations));
    }
    Ok(rows)
}

/// Runs all extension ablations as one pseudo-figure, recording
/// controller/solver/sim metrics into `telemetry`.
///
/// # Errors
///
/// Propagates ablation failures.
pub fn run(telemetry: &Recorder) -> ExpResult<Figure> {
    let (cont, int) = integer_ablation(telemetry)?;
    let (mean_sla, p95_sla) = percentile_ablation(telemetry)?;
    let ladder = predictor_ladder(telemetry)?;

    let mut notes = vec![
        format!(
            "integer deployment premium: {:.2}% (continuous {cont:.3} vs integral {int:.3})",
            (int / cont - 1.0) * 100.0
        ),
        format!(
            "p95-SLA premium over mean-delay SLA: {:.1}% ({mean_sla:.3} → {p95_sla:.3})",
            (p95_sla / mean_sla - 1.0) * 100.0
        ),
    ];
    for (name, cost, violations) in &ladder {
        notes.push(format!(
            "predictor {name}: cost {cost:.3}, SLA violations in {violations} periods"
        ));
    }
    // Figure rows: the predictor ladder (x = index).
    let rows = ladder
        .iter()
        .enumerate()
        .map(|(i, (_, cost, violations))| vec![i as f64, *cost, *violations as f64])
        .collect();
    Ok(Figure {
        id: "extras",
        title: "Extension ablations: integerization, percentile SLA, predictor ladder".into(),
        header: vec!["predictor_index".into(), "cost".into(), "violations".into()],
        rows,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_premium_is_small_and_positive() {
        let (cont, int) = integer_ablation(&Recorder::disabled()).unwrap();
        assert!(int >= cont - 1e-9, "integral {int} cheaper than {cont}");
        assert!(
            int / cont < 1.05,
            "premium {:.1}% too large",
            (int / cont - 1.0) * 100.0
        );
    }

    #[test]
    fn p95_sla_costs_more() {
        let (mean_sla, p95_sla) = percentile_ablation(&Recorder::disabled()).unwrap();
        assert!(
            p95_sla > mean_sla * 1.005,
            "p95 {p95_sla} should cost visibly more than {mean_sla}"
        );
    }

    #[test]
    fn oracle_anchors_the_ladder() {
        let ladder = predictor_ladder(&Recorder::disabled()).unwrap();
        let oracle = ladder.last().unwrap();
        assert_eq!(oracle.0, "oracle");
        assert_eq!(oracle.2, 0, "oracle must not violate");
        // Every real predictor costs at least as much as... not necessarily
        // (underprovisioning is cheap); but none may beat oracle on
        // violations AND cost simultaneously.
        for (name, cost, violations) in &ladder[..ladder.len() - 1] {
            assert!(
                *violations > 0 || *cost >= oracle.1 * 0.98,
                "{name} dominates the oracle ({cost}, {violations})"
            );
        }
        // The hybrid beats plain seasonal on violations or cost.
        let seasonal = ladder.iter().find(|l| l.0 == "seasonal-naive").unwrap();
        let hybrid = ladder.iter().find(|l| l.0 == "seasonal-ar").unwrap();
        assert!(
            hybrid.2 <= seasonal.2 || hybrid.1 <= seasonal.1,
            "hybrid ({:?}) should not lose to seasonal ({:?}) on both axes",
            hybrid,
            seasonal
        );
    }
}
