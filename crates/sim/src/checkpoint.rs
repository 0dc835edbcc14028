//! Checkpoint/resume for [`crate::ClosedLoopSim`].
//!
//! A [`SimCheckpoint`] freezes everything a closed-loop run has produced
//! and the controller's internal state ([`ControllerCheckpoint`]) into
//! plain data with a lossless JSON round-trip, built on the workspace's
//! own `dspp_telemetry::json` toolkit — no external serialization
//! dependency is involved. Because every solve in this
//! workspace is deterministic, restoring a checkpoint into a freshly
//! built simulation reproduces the interrupted run exactly (the
//! `dspp-runtime` crate's resume tests pin this).
//!
//! Non-finite floats (an overloaded arc reports `worst_latency = ∞`) are
//! encoded as the JSON strings `"inf"`, `"-inf"` and `"nan"`, since RFC
//! 8259 has no number syntax for them.

use std::fmt::Write as _;

use dspp_core::{ControllerCheckpoint, PeriodCost};
use dspp_telemetry::json::{self, JsonValue};

use crate::{SimPeriod, SlaReport};

/// Schema version of the checkpoint JSON document.
///
/// Version history: 1 — initial layout; 2 — adds the per-period
/// `sla_shortfall` recovery field.
pub const CHECKPOINT_SCHEMA_VERSION: u64 = 2;

/// A frozen mid-run closed-loop simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCheckpoint {
    /// Schema version (see [`CHECKPOINT_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Name of the controller driving the run (sanity-checked on restore).
    pub controller: String,
    /// Next period index to execute.
    pub cursor: usize,
    /// Periods executed before the checkpoint.
    pub periods: Vec<SimPeriod>,
    /// The controller's internal state.
    pub controller_state: ControllerCheckpoint,
}

impl SimCheckpoint {
    /// Serializes the checkpoint as a single JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema_version\":{},\"controller\":",
            self.schema_version
        );
        json::push_string(&mut out, &self.controller);
        let _ = write!(out, ",\"cursor\":{},\"periods\":[", self.cursor);
        for (i, p) in self.periods.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"period\":{},\"observed_demand\":", p.period);
            json::push_f64_array(&mut out, &p.observed_demand);
            out.push_str(",\"realized_demand\":");
            json::push_f64_array(&mut out, &p.realized_demand);
            out.push_str(",\"per_dc\":");
            json::push_f64_array(&mut out, &p.per_dc);
            for (key, v) in [
                ("total_servers", p.total_servers),
                ("reconfig_magnitude", p.reconfig_magnitude),
                ("hosting", p.cost.hosting),
                ("reconfiguration", p.cost.reconfiguration),
            ] {
                let _ = write!(out, ",\"{key}\":");
                json::push_f64(&mut out, v);
            }
            let _ = write!(
                out,
                ",\"sla\":{{\"violated_arcs\":{},\"loaded_arcs\":{},\"worst_latency\":",
                p.sla.violated_arcs, p.sla.loaded_arcs
            );
            json::push_f64(&mut out, p.sla.worst_latency);
            out.push_str(",\"served_fraction\":");
            json::push_f64(&mut out, p.sla.served_fraction);
            out.push_str("},\"sla_shortfall\":");
            json::push_f64(&mut out, p.sla_shortfall);
            out.push('}');
        }
        out.push_str("],\"controller_state\":");
        self.controller_state.push_json(&mut out);
        out.push('}');
        out
    }

    /// Parses a checkpoint previously written by [`SimCheckpoint::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a wrong schema version, or a
    /// missing/mistyped field.
    pub fn from_json(input: &str) -> Result<SimCheckpoint, String> {
        let root = json::parse(input).map_err(|e| format!("checkpoint JSON: {e}"))?;
        let version = json::field_u64(&root, "schema_version")?;
        if version != CHECKPOINT_SCHEMA_VERSION {
            return Err(format!(
                "unsupported checkpoint schema_version {version} \
                 (expected {CHECKPOINT_SCHEMA_VERSION})"
            ));
        }
        let controller = json::field(&root, "controller")?
            .as_str()
            .ok_or("controller must be a string")?
            .to_string();
        let cursor = json::field_usize(&root, "cursor")?;
        let periods = json::field(&root, "periods")?
            .as_array()
            .ok_or("periods must be an array")?
            .iter()
            .enumerate()
            .map(|(i, p)| period_from_json(p).map_err(|e| format!("periods[{i}]: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let controller_state = json::field_with(
            &root,
            "controller_state",
            ControllerCheckpoint::from_json_value,
        )?;
        Ok(SimCheckpoint {
            schema_version: version,
            controller,
            cursor,
            periods,
            controller_state,
        })
    }
}

fn period_from_json(p: &JsonValue) -> Result<SimPeriod, String> {
    let f64_field = |obj, key| json::field_with(obj, key, json::parse_f64);
    let sla = json::field(p, "sla")?;
    Ok(SimPeriod {
        period: json::field_usize(p, "period")?,
        observed_demand: json::field_with(p, "observed_demand", json::parse_f64_array)?,
        realized_demand: json::field_with(p, "realized_demand", json::parse_f64_array)?,
        per_dc: json::field_with(p, "per_dc", json::parse_f64_array)?,
        total_servers: f64_field(p, "total_servers")?,
        reconfig_magnitude: f64_field(p, "reconfig_magnitude")?,
        cost: PeriodCost {
            hosting: f64_field(p, "hosting")?,
            reconfiguration: f64_field(p, "reconfiguration")?,
        },
        sla: SlaReport {
            violated_arcs: json::field_usize(sla, "violated_arcs")?,
            loaded_arcs: json::field_usize(sla, "loaded_arcs")?,
            worst_latency: f64_field(sla, "worst_latency")?,
            served_fraction: f64_field(sla, "served_fraction")?,
        },
        sla_shortfall: f64_field(p, "sla_shortfall")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimCheckpoint {
        SimCheckpoint {
            schema_version: CHECKPOINT_SCHEMA_VERSION,
            controller: "mpc".into(),
            cursor: 2,
            periods: vec![
                SimPeriod {
                    period: 0,
                    observed_demand: vec![40.0],
                    realized_demand: vec![60.0],
                    per_dc: vec![0.875_000_000_000_123],
                    total_servers: 0.875_000_000_000_123,
                    reconfig_magnitude: 0.875,
                    cost: PeriodCost {
                        hosting: 1.0 / 3.0,
                        reconfiguration: 2e-17,
                    },
                    sla: SlaReport {
                        violated_arcs: 0,
                        loaded_arcs: 1,
                        worst_latency: 0.031,
                        served_fraction: 1.0,
                    },
                    sla_shortfall: 0.0,
                },
                SimPeriod {
                    period: 1,
                    observed_demand: vec![60.0],
                    realized_demand: vec![90.0],
                    per_dc: vec![1.25],
                    total_servers: 1.25,
                    reconfig_magnitude: 0.375,
                    cost: PeriodCost {
                        hosting: 1.25,
                        reconfiguration: 0.01,
                    },
                    sla: SlaReport {
                        violated_arcs: 1,
                        loaded_arcs: 1,
                        worst_latency: f64::INFINITY,
                        served_fraction: 1.0,
                    },
                    sla_shortfall: 2.625,
                },
            ],
            controller_state: ControllerCheckpoint {
                period: 2,
                allocation: vec![1.25],
                history: vec![vec![40.0, 60.0]],
                warm_us: Some(vec![vec![0.1], vec![0.0]]),
            },
        }
    }

    #[test]
    fn json_round_trips_losslessly() {
        let ck = sample();
        let parsed = SimCheckpoint::from_json(&ck.to_json()).unwrap();
        assert_eq!(parsed, ck);
    }

    #[test]
    fn round_trips_non_finite_and_none_warm_start() {
        let mut ck = sample();
        ck.controller_state.warm_us = None;
        ck.periods[0].sla.worst_latency = f64::NEG_INFINITY;
        let parsed = SimCheckpoint::from_json(&ck.to_json()).unwrap();
        assert_eq!(parsed.controller_state.warm_us, None);
        assert_eq!(parsed.periods[0].sla.worst_latency, f64::NEG_INFINITY);
        assert_eq!(parsed.periods[1].sla.worst_latency, f64::INFINITY);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(SimCheckpoint::from_json("not json").is_err());
        assert!(SimCheckpoint::from_json("{\"schema_version\":99}").is_err());
        let mut ck = sample();
        ck.schema_version = CHECKPOINT_SCHEMA_VERSION;
        let text = ck.to_json().replace("\"cursor\":2", "\"cursor\":\"x\"");
        assert!(SimCheckpoint::from_json(&text).is_err());
        // A v1 document (no sla_shortfall) is rejected by version check.
        let old = ck
            .to_json()
            .replace("\"schema_version\":2", "\"schema_version\":1");
        assert!(SimCheckpoint::from_json(&old).is_err());
    }

    #[test]
    fn controller_name_with_quotes_escapes() {
        let mut ck = sample();
        ck.controller = "weird \"name\"\n".into();
        let parsed = SimCheckpoint::from_json(&ck.to_json()).unwrap();
        assert_eq!(parsed.controller, ck.controller);
    }
}
