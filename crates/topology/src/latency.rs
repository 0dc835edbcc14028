use crate::{City, DataCenterSite};
use serde::{Deserialize, Serialize};

/// The data-center ↔ access-network latency matrix `d_lv` (seconds).
///
/// Row `l` is a data center, column `v` an access network, matching the
/// paper's notation. This is the only topology artifact the optimization
/// layer consumes.
///
/// # Examples
///
/// ```
/// use dspp_topology::LatencyMatrix;
///
/// let m = LatencyMatrix::from_rows(vec![vec![0.010, 0.030], vec![0.025, 0.012]]).unwrap();
/// assert_eq!(m.num_data_centers(), 2);
/// assert_eq!(m.num_locations(), 2);
/// assert_eq!(m.get(0, 1), 0.030);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyMatrix {
    rows: Vec<Vec<f64>>,
}

impl LatencyMatrix {
    /// Builds a matrix from per-data-center rows.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem if rows are ragged, empty, or
    /// contain non-finite / negative latencies.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, String> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err("latency matrix must be non-empty".into());
        }
        let v = rows[0].len();
        for (l, row) in rows.iter().enumerate() {
            if row.len() != v {
                return Err(format!("row {l} has {} entries, expected {v}", row.len()));
            }
            for (j, &d) in row.iter().enumerate() {
                if !(d.is_finite() && d >= 0.0) {
                    return Err(format!("latency ({l},{j}) = {d} is invalid"));
                }
            }
        }
        Ok(LatencyMatrix { rows })
    }

    /// Number of data centers (rows).
    pub fn num_data_centers(&self) -> usize {
        self.rows.len()
    }

    /// Number of access-network locations (columns).
    pub fn num_locations(&self) -> usize {
        self.rows[0].len()
    }

    /// Latency between data center `l` and location `v`, in seconds.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn get(&self, l: usize, v: usize) -> f64 {
        self.rows[l][v]
    }

    /// Borrows the row of data center `l`.
    pub fn row(&self, l: usize) -> &[f64] {
        &self.rows[l]
    }
}

/// Builds a latency matrix from great-circle distances.
///
/// Latency model: `base + distance_km * per_km`, the standard
/// speed-of-light-in-fiber approximation. With the values the experiments
/// use (`base` 2 ms for the access hop, 0.01 ms/km one-way propagation
/// ≈ 2/3 c), coast to coast comes out around 40–50 ms.
///
/// # Errors
///
/// Returns a description of the problem if `base_s` or `per_km_s` is
/// negative or non-finite, if either slice is empty, or if a coordinate
/// yields a non-finite distance.
pub fn geo_latency_matrix(
    data_centers: &[DataCenterSite],
    cities: &[City],
    base_s: f64,
    per_km_s: f64,
) -> Result<LatencyMatrix, String> {
    for (name, value) in [("base_s", base_s), ("per_km_s", per_km_s)] {
        if !(value.is_finite() && value >= 0.0) {
            return Err(format!("{name} = {value} must be finite and non-negative"));
        }
    }
    let rows = data_centers
        .iter()
        .map(|dc| {
            cities
                .iter()
                .map(|c| base_s + dc.city.distance_km(c) * per_km_s)
                .collect()
        })
        .collect();
    LatencyMatrix::from_rows(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{default_data_centers, us_cities};

    #[test]
    fn from_rows_validates() {
        assert!(LatencyMatrix::from_rows(vec![]).is_err());
        assert!(LatencyMatrix::from_rows(vec![vec![]]).is_err());
        assert!(LatencyMatrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(LatencyMatrix::from_rows(vec![vec![-1.0]]).is_err());
        assert!(LatencyMatrix::from_rows(vec![vec![f64::NAN]]).is_err());
        assert!(LatencyMatrix::from_rows(vec![vec![0.01]]).is_ok());
    }

    #[test]
    fn geo_matrix_shape_and_ranges() {
        let m = geo_latency_matrix(&default_data_centers(), &us_cities(), 0.002, 1.0e-5).unwrap();
        assert_eq!(m.num_data_centers(), 4);
        assert_eq!(m.num_locations(), 24);
        // San Jose DC ↔ San Francisco access network: nearly local.
        let sj_sf = m.get(0, 10);
        assert!(sj_sf < 0.005, "SJ–SF = {sj_sf}s");
        // San Jose DC ↔ New York: coast to coast, tens of ms.
        let sj_ny = m.get(0, 0);
        assert!((0.030..0.080).contains(&sj_ny), "SJ–NY = {sj_ny}s");
    }

    #[test]
    fn geo_matrix_rejects_bad_input() {
        let (dcs, cities) = (default_data_centers(), us_cities());
        assert!(geo_latency_matrix(&[], &cities, 0.002, 1.0e-5).is_err());
        assert!(geo_latency_matrix(&dcs, &[], 0.002, 1.0e-5).is_err());
        let mut nan_city = cities.clone();
        nan_city[3].lat = f64::NAN;
        assert!(geo_latency_matrix(&dcs, &nan_city, 0.002, 1.0e-5).is_err());
        let mut nan_dc = dcs.clone();
        nan_dc[1].city.lon = f64::NAN;
        assert!(geo_latency_matrix(&nan_dc, &cities, 0.002, 1.0e-5).is_err());
        for bad in [-0.001, f64::NAN, f64::INFINITY] {
            assert!(
                geo_latency_matrix(&dcs, &cities, bad, 1.0e-5).is_err(),
                "base_s = {bad}"
            );
            assert!(
                geo_latency_matrix(&dcs, &cities, 0.002, bad).is_err(),
                "per_km_s = {bad}"
            );
        }
    }
}
