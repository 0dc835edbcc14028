//! Figure 3: "Prices of electricity used in the experiments" — the diurnal
//! $/MWh curves of the four data-center regions.

use crate::{scenario, ExpResult, Figure};

const NAMES: [&str; 4] = [
    "San Jose, CA",
    "Dallas/Houston, TX",
    "Atlanta, GA",
    "Chicago, IL",
];

/// Regenerates Figure 3.
///
/// # Errors
///
/// Infallible in practice; returns `ExpResult` for uniformity.
pub fn run() -> ExpResult<Figure> {
    let trace = scenario::market().wholesale_trace(24, 1.0, 0);
    let rows: Vec<Vec<f64>> = (0..24)
        .map(|k| {
            let mut row = vec![k as f64];
            row.extend((0..NAMES.len()).map(|l| trace.get(l, k)));
            row
        })
        .collect();

    // Shape notes: regional ordering and peak positions.
    let peak_hour = |l: usize| {
        (0..24)
            .max_by(|&a, &b| {
                trace
                    .get(l, a)
                    .partial_cmp(&trace.get(l, b))
                    .expect("finite")
            })
            .expect("non-empty")
    };
    let ca_peak = peak_hour(0);
    let gap_hour = (0..24)
        .max_by(|&a, &b| {
            let ga = trace.get(0, a) - trace.get(1, a);
            let gb = trace.get(0, b) - trace.get(1, b);
            ga.partial_cmp(&gb).expect("finite")
        })
        .expect("non-empty");
    let all_prices: Vec<f64> = (0..4)
        .flat_map(|l| (0..24).map(|k| trace.get(l, k)).collect::<Vec<_>>())
        .collect();
    let notes = vec![
        format!("CA is the most expensive region; its peak falls at hour {ca_peak} (paper: ~5 pm)"),
        format!("the CA–TX price gap is maximal at hour {gap_hour} (paper: ~5 pm)"),
        format!(
            "price band: {:.0}–{:.0} $/MWh (paper's Figure 3 spans ~30–110)",
            all_prices.iter().copied().fold(f64::INFINITY, f64::min),
            all_prices.iter().copied().fold(0.0f64, f64::max)
        ),
    ];

    let mut header = vec!["hour".to_string()];
    header.extend(NAMES.iter().map(|s| s.to_string()));
    Ok(Figure {
        id: "fig3",
        title: "Prices of electricity used in the experiments ($/MWh)".into(),
        header,
        rows,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let fig = run().unwrap();
        assert_eq!(fig.rows.len(), 24);
        assert_eq!(fig.header.len(), 5);
        // CA (col 1) is the most expensive at 5 pm; TX (col 2) cheapest.
        let row17 = &fig.rows[17];
        assert!(row17[1] > row17[2]);
        assert!(row17[1] > row17[3]);
        assert!(row17[1] > row17[4]);
        // All prices inside the paper's ~30–110 band.
        for row in &fig.rows {
            for &p in &row[1..] {
                assert!((25.0..=115.0).contains(&p), "price {p} out of band");
            }
        }
        // The CA peak is in the late afternoon.
        let note = &fig.notes[0];
        assert!(
            note.contains("hour 16") || note.contains("hour 17") || note.contains("hour 18"),
            "unexpected peak note: {note}"
        );
    }

    #[test]
    fn csv_matches_committed_golden_file() {
        // fig3 is fully deterministic (pure market calibration, no
        // solver), so Figure::write_csv must reproduce the committed
        // artifact byte for byte.
        let golden = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/fig3.csv"
        ))
        .expect("committed results/fig3.csv");
        let fig = run().unwrap();
        let dir = std::env::temp_dir().join("dspp-fig3-golden");
        let path = fig.write_csv(&dir).unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), golden);
    }
}
