//! Figure 5: "Impact of price on resource allocation" — several data
//! centers serve constant aggregate demand; as California's electricity
//! price peaks in the afternoon, the controller shifts servers away from
//! the Mountain View / San Jose data center toward cheaper regions.

use crate::{scenario, ExpResult, Figure};
use dspp_core::{MpcController, MpcSettings};
use dspp_predict::OraclePredictor;
use dspp_sim::ClosedLoopSim;
use dspp_telemetry::Recorder;

/// Access networks used: LA, San Francisco, Salt Lake City, Phoenix,
/// Dallas, Houston (indices into [`dspp_topology::us_cities`]).
///
/// The mix is deliberate: SF is *captive* to the CA data center (nothing
/// else meets its SLA), LA prefers CA even at peak prices (its
/// latency-efficiency ratio a_TX/a_CA ≈ 2.4 exceeds the worst price
/// ratio), while Salt Lake City's ratio (~1.45) sits inside the diurnal
/// CA/TX price-ratio swing (~1.37 at night, ~2.1 at 5 pm) — its load is
/// what migrates when California's price peaks, which is exactly the
/// mechanism behind the paper's Figure 5.
/// Miami and Minneapolis anchor the GA and IL data centers with captive
/// regional demand, as in the paper's plot where every region hosts load.
const LOCATIONS: [usize; 8] = [1, 10, 23, 12, 3, 4, 7, 14];

/// Constant per-location demand (requests/second).
const DEMAND: f64 = 2_400.0;

/// Regenerates Figure 5, recording controller/solver/sim metrics into
/// `telemetry`.
///
/// # Errors
///
/// Propagates build/solver failures.
pub fn run(telemetry: &Recorder) -> ExpResult<Figure> {
    let periods = 48;
    // Reconfiguration weight matched to the literal electricity-price
    // scale (~$0.003 per server-hour): migrations must pay for themselves
    // within a few hours of price spread, as in the paper.
    let problem = scenario::wide_area_problem(&LOCATIONS, periods, 2e-5, scenario::SLA_LATENCY)?;
    let demand: Vec<Vec<f64>> = vec![vec![DEMAND; periods]; LOCATIONS.len()];
    let controller = MpcController::new(
        problem,
        Box::new(OraclePredictor::new(demand.clone())),
        MpcSettings {
            horizon: 6,
            telemetry: telemetry.clone(),
            ..MpcSettings::default()
        },
    )?;
    let report = ClosedLoopSim::new(Box::new(controller), demand)?
        .with_telemetry(telemetry.clone())
        .run()?;

    let names = [
        "CA (San Jose)",
        "TX (Houston)",
        "GA (Atlanta)",
        "IL (Chicago)",
    ];
    let mut rows = Vec::new();
    for p in &report.periods {
        if p.period + 1 < 24 {
            continue;
        }
        let mut row = vec![(p.period + 1 - 24) as f64];
        row.extend(p.per_dc.iter().copied());
        rows.push(row);
    }

    // Shape: CA's share at its price peak (hour 17) vs at night (hour 4).
    let at = |hour: f64, col: usize| -> f64 {
        rows.iter()
            .find(|r| r[0] == hour)
            .map(|r| r[col])
            .unwrap_or(0.0)
    };
    let ca_peak = at(17.0, 1);
    let ca_night = at(4.0, 1);
    let tx_peak = at(17.0, 2);
    let tx_night = at(4.0, 2);
    let notes = vec![
        format!(
            "CA servers drop from {ca_night:.1} (4 am) to {ca_peak:.1} (5 pm) as its price peaks \
             (paper: Mountain View dips in the afternoon)"
        ),
        format!("TX servers move oppositely: {tx_night:.1} (4 am) → {tx_peak:.1} (5 pm)"),
        "aggregate demand is constant; only prices move the allocation".into(),
    ];
    let mut header = vec!["hour".to_string()];
    header.extend(names.iter().map(|s| s.to_string()));
    Ok(Figure {
        id: "fig5",
        title: "Number of allocated servers per data center under price fluctuation".into(),
        header,
        rows,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ca_sheds_load_at_its_price_peak() {
        let fig = run(&Recorder::disabled()).unwrap();
        assert_eq!(fig.rows.len(), 24);
        let at =
            |hour: f64, col: usize| -> f64 { fig.rows.iter().find(|r| r[0] == hour).unwrap()[col] };
        // CA (column 1) holds fewer servers at 5 pm than at 4 am.
        let ca_peak = at(17.0, 1);
        let ca_night = at(4.0, 1);
        assert!(
            ca_peak < ca_night,
            "CA at 5 pm ({ca_peak}) should be below CA at 4 am ({ca_night})"
        );
        // Total across DCs stays roughly constant (demand is constant).
        let total = |hour: f64| (1..=4).map(|c| at(hour, c)).sum::<f64>();
        let t_peak = total(17.0);
        let t_night = total(4.0);
        assert!(
            (t_peak - t_night).abs() < 0.15 * t_night,
            "totals drifted: {t_peak} vs {t_night}"
        );
    }
}
