//! Workload-generation substrate for the `dspp` workspace.
//!
//! The paper's demand generator (Section VII): requests originate from 24
//! access networks following a *non-homogeneous Poisson process* whose rate
//! depends on each city's population and the time of day — an on–off
//! process with high arrival rate during working hours (8 am–5 pm) and low
//! rate at night. This crate reproduces that generator and adds the
//! flash-crowd events the paper mentions as the reason prediction can fail.
//!
//! * [`DiurnalProfile`] — smooth on–off daily shape in `[off, peak]`.
//! * [`DemandModel`] — per-location rate model (population-weighted diurnal
//!   base, optional flash crowds, optional multiplicative noise).
//! * [`DemandTrace`] — the `[location][period]` demand matrix `D_k^v`
//!   consumed by the controller and simulator.
//! * [`poisson`] — exact Poisson sampling (Knuth's multiplication
//!   method below mean 10, Hörmann's transformed rejection from 10 on),
//!   which turns rates into integer request counts for the
//!   streaming-ingest front end, plus the Gaussian noise of the demand
//!   model.
//!
//! # Examples
//!
//! ```
//! use dspp_workload::{DemandModel, DiurnalProfile};
//!
//! let model = DemandModel::new(DiurnalProfile::working_hours(100.0, 20.0))
//!     .with_population_weights(vec![2.0, 1.0])
//!     .with_seed(7);
//! let trace = model.generate(24, 1.0); // 24 one-hour periods
//! assert_eq!(trace.num_locations(), 2);
//! assert_eq!(trace.num_periods(), 24);
//! // The big city sees roughly twice the small city's demand.
//! assert!(trace.get(0, 12) > trace.get(1, 12));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod demand;
mod diurnal;
mod flash;
pub mod poisson;
mod trace;

pub use demand::DemandModel;
pub use diurnal::DiurnalProfile;
pub use flash::FlashCrowd;
pub use trace::DemandTrace;
