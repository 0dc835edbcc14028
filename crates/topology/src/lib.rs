//! Network-topology substrate for the `dspp` workspace.
//!
//! The ICDCS'12 evaluation derives its data-center ↔ client latency matrix
//! from a Rocketfuel tier-1 ISP map that the authors themselves augment with
//! GT-ITM-style transit–stub structure (Section VII). The raw Rocketfuel
//! data is not redistributable, so the experiments use great-circle
//! latencies over a fixed city database instead:
//!
//! * [`us_cities`] / [`default_data_centers`] — the 24 major-US-city access
//!   networks and the 4 data-center regions (San Jose CA, Houston/Dallas TX,
//!   Atlanta GA, Chicago IL) used throughout the experiments, with
//!   coordinates and populations.
//! * [`LatencyMatrix`] — the `d_lv` matrix consumed by `dspp-core`, built
//!   from explicit rows or from great-circle distances
//!   ([`geo_latency_matrix`]).
//!
//! # Examples
//!
//! ```
//! use dspp_topology::{default_data_centers, geo_latency_matrix, us_cities};
//!
//! // 2 ms access hop + 10 µs/km propagation: 4 DCs × 24 access networks.
//! let latency = geo_latency_matrix(&default_data_centers(), &us_cities(), 0.002, 1.0e-5)?;
//! assert_eq!(latency.num_data_centers(), 4);
//! assert!(latency.get(0, 0) > 0.0);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cities;
mod latency;

pub use cities::{default_data_centers, us_cities, City, DataCenterSite};
pub use latency::{geo_latency_matrix, LatencyMatrix};
