//! Checkpoint/restore for [`IngestLoop`], JSON like the sim checkpoints.
//!
//! A checkpoint freezes the loop between two control periods: the
//! deferred-request carry backlog (the in-flight bucket state — sealed
//! buckets are history, the carry is the only live mass), the sealed
//! period ledger, run totals, and the controller's internal state.
//! Because event streams are seeded per `(city, period)`, a restored
//! loop replays the remaining periods bit-exactly — the soak drill
//! asserts the sealed matrices of an interrupted-and-resumed run equal
//! the uninterrupted ones byte for byte.

use std::fmt::Write as _;

use dspp_core::ControllerCheckpoint;
use dspp_telemetry::json::{self, JsonValue};

use crate::bucket::SealedPeriod;
use crate::pipeline::{IngestError, IngestLoop, IngestTotals};

/// Schema version of the ingest checkpoint document. Version 2 added
/// the capacity time-series (`capacity_schedule`); version-1 documents
/// are still readable and parse as schedule-free runs.
pub const INGEST_CHECKPOINT_SCHEMA_VERSION: u64 = 2;

/// Oldest ingest-checkpoint schema still readable.
pub const INGEST_CHECKPOINT_MIN_SCHEMA_VERSION: u64 = 1;

/// A frozen mid-stream ingest run.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestCheckpoint {
    /// Schema version ([`INGEST_CHECKPOINT_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Name of the controller driving the loop (checked on restore).
    pub controller: String,
    /// Root seed (checked on restore — a different seed is a different
    /// stream, not a resume).
    pub seed: u64,
    /// Next period index to execute.
    pub cursor: usize,
    /// Deferred-request backlog per city.
    pub carry: Vec<u64>,
    /// Run totals at the freeze point. `route_wall_seconds` is always 0:
    /// a wall-clock total is not state, and a restored loop times only
    /// its own periods. The document does not carry it, and the reader
    /// ignores the field in documents that do.
    pub totals: IngestTotals,
    /// Sealed periods executed before the freeze.
    pub sealed: Vec<SealedPeriod>,
    /// The controller's internal state.
    pub controller_state: ControllerCheckpoint,
    /// The per-period capacity schedule the loop ran under (`None` for
    /// runs without one, and for all version-1 documents).
    pub capacity_schedule: Option<Vec<Vec<f64>>>,
}

impl IngestCheckpoint {
    /// Serializes the checkpoint as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema_version\":{},\"controller\":",
            self.schema_version
        );
        json::push_string(&mut out, &self.controller);
        let _ = write!(
            out,
            ",\"seed\":{},\"cursor\":{},\"carry\":",
            self.seed, self.cursor
        );
        json::push_u64_array(&mut out, &self.carry);
        let t = &self.totals;
        let _ = write!(
            out,
            ",\"totals\":{{\"generated\":{},\"admitted\":{},\"unroutable\":{},\"deferred\":{},\
             \"dropped\":{},\"fallback_periods\":{},\"recovery_periods\":{},\"step_cost\":",
            t.generated,
            t.admitted,
            t.unroutable,
            t.deferred,
            t.dropped,
            t.fallback_periods,
            t.recovery_periods
        );
        json::push_f64(&mut out, t.step_cost);
        out.push_str("},\"sealed\":[");
        for (i, s) in self.sealed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"period\":{},\"city_counts\":", s.period);
            json::push_u64_array(&mut out, &s.city_counts);
            out.push_str(",\"arc_counts\":");
            json::push_u64_array(&mut out, &s.arc_counts);
            out.push_str(",\"class_kib\":");
            json::push_u64_array(&mut out, &s.class_kib);
            let _ = write!(
                out,
                ",\"unroutable\":{},\"carried_in\":{},\"deferred\":{},\"dropped\":{}}}",
                s.unroutable, s.carried_in, s.deferred, s.dropped
            );
        }
        out.push_str("],\"controller_state\":");
        self.controller_state.push_json(&mut out);
        out.push_str(",\"capacity_schedule\":");
        json::push_f64_matrix_or_null(&mut out, self.capacity_schedule.as_deref());
        out.push('}');
        out
    }

    /// Parses a checkpoint written by [`IngestCheckpoint::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a wrong schema version, or a
    /// missing/mistyped field.
    pub fn from_json(input: &str) -> Result<IngestCheckpoint, String> {
        let root = json::parse(input).map_err(|e| format!("ingest checkpoint JSON: {e}"))?;
        let version = json::field_u64(&root, "schema_version")?;
        if !(INGEST_CHECKPOINT_MIN_SCHEMA_VERSION..=INGEST_CHECKPOINT_SCHEMA_VERSION)
            .contains(&version)
        {
            return Err(format!(
                "unsupported ingest checkpoint schema_version {version} (expected \
                 {INGEST_CHECKPOINT_MIN_SCHEMA_VERSION}..={INGEST_CHECKPOINT_SCHEMA_VERSION})"
            ));
        }
        let controller = json::field(&root, "controller")?
            .as_str()
            .ok_or("controller must be a string")?
            .to_string();
        let totals_v = json::field(&root, "totals")?;
        let totals = IngestTotals {
            generated: json::field_u64(totals_v, "generated")?,
            admitted: json::field_u64(totals_v, "admitted")?,
            unroutable: json::field_u64(totals_v, "unroutable")?,
            deferred: json::field_u64(totals_v, "deferred")?,
            dropped: json::field_u64(totals_v, "dropped")?,
            fallback_periods: json::field_u64(totals_v, "fallback_periods")?,
            recovery_periods: json::field_u64(totals_v, "recovery_periods")?,
            step_cost: json::field_with(totals_v, "step_cost", json::parse_f64)?,
            route_wall_seconds: 0.0,
        };
        let sealed = json::field(&root, "sealed")?
            .as_array()
            .ok_or("sealed must be an array")?
            .iter()
            .enumerate()
            .map(|(i, s)| sealed_from_json(s).map_err(|e| format!("sealed[{i}]: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let capacity_schedule = if version >= 2 {
            json::field_with(&root, "capacity_schedule", json::parse_f64_matrix_or_null)?
        } else {
            None
        };
        Ok(IngestCheckpoint {
            schema_version: version,
            controller,
            seed: json::field_u64(&root, "seed")?,
            cursor: json::field_usize(&root, "cursor")?,
            carry: json::field_with(&root, "carry", json::parse_u64_array)?,
            totals,
            sealed,
            controller_state: json::field_with(
                &root,
                "controller_state",
                ControllerCheckpoint::from_json_value,
            )?,
            capacity_schedule,
        })
    }
}

fn sealed_from_json(s: &JsonValue) -> Result<SealedPeriod, String> {
    let class_kib = json::field_with(s, "class_kib", json::parse_u64_array)?;
    let class_kib =
        <[u64; 3]>::try_from(class_kib).map_err(|_| "class_kib must have 3 entries".to_string())?;
    Ok(SealedPeriod {
        period: json::field_usize(s, "period")?,
        city_counts: json::field_with(s, "city_counts", json::parse_u64_array)?,
        arc_counts: json::field_with(s, "arc_counts", json::parse_u64_array)?,
        class_kib,
        unroutable: json::field_u64(s, "unroutable")?,
        carried_in: json::field_u64(s, "carried_in")?,
        deferred: json::field_u64(s, "deferred")?,
        dropped: json::field_u64(s, "dropped")?,
    })
}

impl IngestLoop {
    /// Freezes the loop between two periods.
    ///
    /// # Errors
    ///
    /// [`IngestError::Invalid`] when the controller does not support
    /// checkpointing.
    pub fn checkpoint(&self) -> Result<IngestCheckpoint, IngestError> {
        let controller_state = self.controller().checkpoint().ok_or_else(|| {
            IngestError::Invalid(format!(
                "controller {:?} does not support checkpointing",
                self.controller().name()
            ))
        })?;
        Ok(IngestCheckpoint {
            schema_version: INGEST_CHECKPOINT_SCHEMA_VERSION,
            controller: self.controller().name().to_string(),
            seed: self.config().seed,
            cursor: self.cursor(),
            carry: self.carry_backlog().to_vec(),
            totals: IngestTotals {
                route_wall_seconds: 0.0,
                ..*self.totals()
            },
            sealed: self.sealed().to_vec(),
            controller_state,
            capacity_schedule: self.capacity_schedule().map(<[Vec<f64>]>::to_vec),
        })
    }

    /// Restores a checkpoint into this freshly built loop (same
    /// construction parameters), republishing the placement snapshot the
    /// interrupted run had live so routing resumes identically.
    ///
    /// # Errors
    ///
    /// [`IngestError::Invalid`] on controller-name/seed/shape mismatches,
    /// [`IngestError::Core`] when the controller rejects the state.
    pub fn restore(&mut self, checkpoint: &IngestCheckpoint) -> Result<(), IngestError> {
        if !(INGEST_CHECKPOINT_MIN_SCHEMA_VERSION..=INGEST_CHECKPOINT_SCHEMA_VERSION)
            .contains(&checkpoint.schema_version)
        {
            return Err(IngestError::Invalid(format!(
                "unsupported schema_version {}",
                checkpoint.schema_version
            )));
        }
        if checkpoint.capacity_schedule.as_deref() != self.capacity_schedule() {
            return Err(IngestError::Invalid(
                "checkpoint capacity schedule does not match this loop's \
                 (resume must run under the same fault plan)"
                    .into(),
            ));
        }
        if checkpoint.controller != self.controller().name() {
            return Err(IngestError::Invalid(format!(
                "checkpoint is for controller {:?}, this loop runs {:?}",
                checkpoint.controller,
                self.controller().name()
            )));
        }
        if checkpoint.seed != self.config().seed {
            return Err(IngestError::Invalid(format!(
                "checkpoint seed {} does not match loop seed {}",
                checkpoint.seed,
                self.config().seed
            )));
        }
        let cities = self.controller().problem().num_locations();
        if checkpoint.carry.len() != cities {
            return Err(IngestError::Invalid(format!(
                "checkpoint carries {} cities, problem has {cities}",
                checkpoint.carry.len()
            )));
        }
        if checkpoint.cursor > self.periods() || checkpoint.sealed.len() != checkpoint.cursor {
            return Err(IngestError::Invalid(format!(
                "inconsistent cursor {} for {} sealed periods over a {}-period plan",
                checkpoint.cursor,
                checkpoint.sealed.len(),
                self.periods()
            )));
        }
        self.controller_mut()
            .restore(&checkpoint.controller_state)?;
        self.set_state(
            checkpoint.cursor,
            checkpoint.carry.clone(),
            checkpoint.sealed.clone(),
            checkpoint.totals,
        );
        self.republish_restored();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backpressure::BackpressureBudget;
    use crate::pipeline::IngestConfig;
    use dspp_core::{DsppBuilder, MpcController, MpcSettings};
    use dspp_predict::LastValue;

    fn build_loop(seed: u64) -> IngestLoop {
        let periods = 8usize;
        let p = DsppBuilder::new(2, 2)
            .service_rate(100.0)
            .sla_latency(0.100)
            .latency_rows(vec![vec![0.010, 0.015], vec![0.020, 0.012]])
            .price_rows(vec![vec![1.0; periods + 3], vec![1.2; periods + 3]])
            .build()
            .unwrap();
        let c = MpcController::new(
            p,
            Box::new(LastValue),
            MpcSettings {
                horizon: 3,
                ..MpcSettings::default()
            },
        )
        .unwrap();
        let rates = vec![vec![300.0; periods], vec![150.0; periods]];
        IngestLoop::new(
            Box::new(c),
            rates,
            IngestConfig::new(seed)
                .with_period_seconds(30)
                .with_jobs(2)
                .with_budget(BackpressureBudget::new(8_000, 2_000)),
        )
        .unwrap()
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let mut l = build_loop(21);
        for _ in 0..3 {
            l.step().unwrap();
        }
        let ck = l.checkpoint().unwrap();
        let back = IngestCheckpoint::from_json(&ck.to_json()).unwrap();
        assert_eq!(ck, back);
    }

    #[test]
    fn resume_is_bit_exact() {
        // The second seed is above 2^53, where an f64 round trip would
        // change it and the restore would reject the checkpoint.
        for seed in [5, 0x9E37_79B9_7F4A_7C15] {
            let mut full = build_loop(seed);
            let mut interrupted = build_loop(seed);
            for _ in 0..4 {
                interrupted.step().unwrap();
            }
            let ck =
                IngestCheckpoint::from_json(&interrupted.checkpoint().unwrap().to_json()).unwrap();
            drop(interrupted);

            let mut resumed = build_loop(seed);
            resumed.restore(&ck).unwrap();
            assert_eq!(resumed.cursor(), 4);
            full.run_to_end().unwrap();
            resumed.run_to_end().unwrap();
            assert_eq!(full.sealed(), resumed.sealed(), "sealed ledgers diverged");
            assert_eq!(full.sealed_matrix_csv(), resumed.sealed_matrix_csv());
            let (a, b) = (full.totals(), resumed.totals());
            assert_eq!(
                (a.generated, a.admitted, a.deferred, a.dropped),
                (b.generated, b.admitted, b.deferred, b.dropped)
            );
            assert_eq!(a.step_cost.to_bits(), b.step_cost.to_bits());
        }
    }

    #[test]
    fn resume_under_a_capacity_schedule_is_bit_exact() {
        // DC 0 dead for periods 3..5; freeze inside the outage window.
        let schedule: Vec<Vec<f64>> = (0..8)
            .map(|k| {
                if (3..5).contains(&k) {
                    vec![0.0, 500.0]
                } else {
                    vec![500.0, 500.0]
                }
            })
            .collect();
        let mut full = build_loop(5)
            .with_capacity_schedule(schedule.clone())
            .unwrap();
        let mut interrupted = build_loop(5)
            .with_capacity_schedule(schedule.clone())
            .unwrap();
        for _ in 0..4 {
            interrupted.step().unwrap();
        }
        let ck = IngestCheckpoint::from_json(&interrupted.checkpoint().unwrap().to_json()).unwrap();
        assert_eq!(ck.schema_version, INGEST_CHECKPOINT_SCHEMA_VERSION);
        assert_eq!(ck.capacity_schedule.as_deref(), Some(&schedule[..]));
        drop(interrupted);

        let mut resumed = build_loop(5).with_capacity_schedule(schedule).unwrap();
        resumed.restore(&ck).unwrap();
        full.run_to_end().unwrap();
        resumed.run_to_end().unwrap();
        assert_eq!(full.sealed(), resumed.sealed(), "sealed ledgers diverged");
        assert_eq!(full.sealed_matrix_csv(), resumed.sealed_matrix_csv());

        // A schedule-free loop must refuse the fault-plan checkpoint.
        let mut plain = build_loop(5);
        assert!(matches!(plain.restore(&ck), Err(IngestError::Invalid(_))));
    }

    #[test]
    fn version_1_documents_still_parse() {
        let mut l = build_loop(21);
        l.step().unwrap();
        let mut json = l.checkpoint().unwrap().to_json();
        // Rewrite as a v1 document: old version stamp, no capacity
        // series (it is the final field of the v2 layout).
        json = json.replace("\"schema_version\":2", "\"schema_version\":1");
        let idx = json.find(",\"capacity_schedule\":").unwrap();
        json.truncate(idx);
        json.push('}');
        let v1 = IngestCheckpoint::from_json(&json).unwrap();
        assert_eq!(v1.schema_version, 1);
        assert_eq!(v1.capacity_schedule, None);
        let mut fresh = build_loop(21);
        fresh.restore(&v1).unwrap();
        assert_eq!(fresh.cursor(), 1);
    }

    #[test]
    fn checkpoint_bytes_depend_only_on_the_stepped_state() {
        let stepped = || {
            let mut l = build_loop(21);
            for _ in 0..3 {
                l.step().unwrap();
            }
            assert!(l.totals().route_wall_seconds > 0.0);
            l.checkpoint().unwrap().to_json()
        };
        let json = stepped();
        assert_eq!(json, stepped(), "identical runs must write identical bytes");
        assert!(!json.contains("route_wall_seconds"));
        // Documents written before the field was dropped still restore,
        // and the restored loop starts its own wall-clock total at 0.
        let older = json.replace(
            "},\"sealed\":[",
            ",\"route_wall_seconds\":0.75},\"sealed\":[",
        );
        assert_ne!(older, json);
        let ck = IngestCheckpoint::from_json(&older).unwrap();
        assert_eq!(ck, IngestCheckpoint::from_json(&json).unwrap());
        let mut fresh = build_loop(21);
        fresh.restore(&ck).unwrap();
        assert_eq!(fresh.totals().route_wall_seconds, 0.0);
        fresh.step().unwrap();
        assert!(fresh.totals().route_wall_seconds > 0.0);
    }

    #[test]
    fn mismatched_checkpoints_are_rejected() {
        let mut l = build_loop(1);
        l.step().unwrap();
        let mut ck = l.checkpoint().unwrap();
        ck.seed = 2;
        let mut fresh = build_loop(1);
        assert!(matches!(fresh.restore(&ck), Err(IngestError::Invalid(_))));
        let mut ck2 = l.checkpoint().unwrap();
        ck2.carry.push(0);
        assert!(matches!(fresh.restore(&ck2), Err(IngestError::Invalid(_))));
        let mut ck3 = l.checkpoint().unwrap();
        ck3.controller = "somebody-else".into();
        assert!(matches!(fresh.restore(&ck3), Err(IngestError::Invalid(_))));
    }
}
