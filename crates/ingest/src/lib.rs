//! Request-level streaming front end for the DSPP control loop.
//!
//! The paper's controller consumes precomputed per-period demand
//! matrices; a production placement system sees individual requests.
//! This crate closes that gap:
//!
//! * [`generator`] — deterministic per-`(city, period)` request streams
//!   built on the DES arrival machinery ([`dspp_sim::ArrivalProcess`]),
//!   millions of timestamped `(city, class, size)` events per control
//!   period, counted by the shards without building events and
//!   collected on demand;
//! * [`snapshot`] — the read-mostly placement snapshot swap: the
//!   controller publishes each placement as an immutable compiled eq. 13
//!   routing table, read once per period and shared by every shard;
//! * [`bucket`] — sharded aggregation: each shard counts requests per
//!   city, per arc and per attribute word into its own plain-integer
//!   [`ShardTally`] and folds it into the lock-free
//!   per-period [`PeriodBucket`] at the period-close barrier, which is
//!   sealed into exactly the demand-matrix shape
//!   `ClosedLoopSim`/`MpcController` consume;
//! * [`backpressure`] + [`channel`] — bounded admission with conserved
//!   deferred/dropped accounting (backing the `ingest_backpressure`
//!   SLO) and a bounded std-only MPMC channel for shard summaries;
//! * [`pipeline`] — [`IngestLoop`], the end-to-end closed loop
//!   (events → buckets → sealed matrix → MPC step → new snapshot), with
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
pub mod channel;
pub mod checkpoint;
pub mod event;
pub mod generator;
pub mod pipeline;
pub mod snapshot;

pub use backpressure::{admit, Admission, BackpressureBudget};
pub use bucket::{PeriodBucket, SealedPeriod, ShardTally};
pub use channel::{Bounded, SendError};
pub use checkpoint::{
    IngestCheckpoint, INGEST_CHECKPOINT_MIN_SCHEMA_VERSION, INGEST_CHECKPOINT_SCHEMA_VERSION,
};
pub use event::{Event, RequestClass};
pub use generator::{generate_city_period, stream_seed};
pub use pipeline::{IngestConfig, IngestError, IngestLoop, IngestTotals};
pub use snapshot::{RouterSnapshot, SnapshotSwap};
