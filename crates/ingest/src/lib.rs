//! Request-level streaming front end for the DSPP control loop.
//!
//! The paper's controller consumes precomputed per-period demand
//! matrices; a production placement system sees individual requests.
//! This crate closes that gap:
//!
//! * [`generator`] — deterministic per-`(city, period)` request streams:
//!   one exact Poisson arrival count per stream, then one attribute word
//!   (class and payload size) per request, millions of `(city, class,
//!   size)` events per control period, counted by the shards without
//!   building events and collected on demand;
//! * [`snapshot`] — compiled placement snapshots: the controller
//!   publishes each placement as an immutable compiled eq. 13 routing
//!   table, replaced only between periods and borrowed by every shard;
//! * [`bucket`] — sharded aggregation: each shard counts requests per
//!   city, per arc and per attribute word into its own plain-integer
//!   tally, and once the period's shards have joined the loop thread
//!   folds the tallies into a [`SealedPeriod`] — exactly the
//!   demand-matrix shape `ClosedLoopSim`/`MpcController` consume;
//! * [`backpressure`] — bounded admission with conserved
//!   deferred/dropped accounting (backing the `ingest_backpressure`
//!   SLO);
//! * [`pipeline`] — [`IngestLoop`], the end-to-end closed loop
//!   (events → tallies → sealed matrix → MPC step → new snapshot), with
//!   schema-versioned JSON [`checkpoint`]s and bit-exact resume.
//!
//! Determinism is by construction: event streams are pure functions of
//! `(seed, city, period)`, aggregation is commutative integer addition,
//! and count→rate conversion happens once at seal time — so sealed
//! matrices are byte-identical at any shard count (`--jobs 1` vs
//! `--jobs 4` is diffed in CI) and a checkpoint resumes bit-exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backpressure;
pub mod bucket;
pub mod checkpoint;
pub mod event;
pub mod generator;
pub mod pipeline;
pub mod snapshot;

pub use backpressure::{admit, Admission, BackpressureBudget};
pub use bucket::SealedPeriod;
pub use checkpoint::{
    IngestCheckpoint, INGEST_CHECKPOINT_MIN_SCHEMA_VERSION, INGEST_CHECKPOINT_SCHEMA_VERSION,
};
pub use event::{Event, RequestClass};
pub use generator::{generate_city_period, stream_seed};
pub use pipeline::{IngestConfig, IngestError, IngestLoop, IngestTotals};
pub use snapshot::RouterSnapshot;
