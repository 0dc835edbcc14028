//! Post-mortem analysis of JSONL trace exports (`dspp-analyze`).
//!
//! [`analyze_jsonl`] ingests the line-delimited event log written by
//! [`Tracer::to_jsonl`](crate::Tracer::to_jsonl) (`--events-out` on the
//! quickstart and every experiments binary) and renders a deterministic
//! plain-text report with four sections:
//!
//! 1. **Critical-path attribution** — per-period latency split across
//!    the `sim.period → controller.step → solver.*` span nesting: how
//!    much of each simulated period was solver time, controller overhead
//!    above the solver, and simulator overhead above the controller.
//! 2. **Top-k slowest periods** — ranked by period-span duration, with
//!    their warm-start, solver-iteration, recovery, and fallback context.
//! 3. **Alert and fault timeline** — every `slo.*` alert transition and
//!    `runtime.*` fault/fallback event in timestamp order, so injected
//!    faults line up against the SLO engine's reaction.
//! 4. **Fault recovery (MTTR)** — per injected fault, the number of
//!    control periods from fault onset until the per-period step cost
//!    (the `step_cost` attribute on `controller.step` spans) returns
//!    within tolerance of its pre-fault baseline.
//!
//! The report derives every number from the trace's own clock (the
//! tracer's injectable [`TraceClock`](crate::TraceClock)); it never reads
//! wall clock, so a committed fixture reproduces byte-for-byte.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, JsonValue};

/// Tuning knobs for [`analyze_jsonl`].
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// How many slowest periods to list (default 5).
    pub top_k: usize,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions { top_k: 5 }
    }
}

#[derive(Debug)]
struct ParsedSpan {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_ns: u64,
    end_ns: u64,
    attrs: BTreeMap<String, JsonValue>,
}

impl ParsedSpan {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct ParsedEvent {
    span: Option<u64>,
    name: String,
    ts_ns: u64,
    attrs: BTreeMap<String, JsonValue>,
}

fn attr_string(value: &JsonValue) -> String {
    match value {
        JsonValue::String(s) => s.clone(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::UInt(n) => n.to_string(),
        JsonValue::Number(n) => format!("{n}"),
        JsonValue::Null => "null".to_string(),
        other => format!("{other:?}"),
    }
}

fn parse_records(input: &str) -> Result<(Vec<ParsedSpan>, Vec<ParsedEvent>), String> {
    let mut spans = Vec::new();
    let mut events = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let kind = doc
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {}: missing \"type\"", lineno + 1))?;
        let name = doc
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {}: missing \"name\"", lineno + 1))?
            .to_string();
        let attrs = doc
            .get("attrs")
            .and_then(JsonValue::as_object)
            .cloned()
            .unwrap_or_default();
        match kind {
            "span" => spans.push(ParsedSpan {
                id: doc
                    .get("id")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("line {}: span missing \"id\"", lineno + 1))?,
                parent: doc.get("parent").and_then(JsonValue::as_u64),
                name,
                start_ns: doc.get("start_ns").and_then(JsonValue::as_u64).unwrap_or(0),
                end_ns: doc.get("end_ns").and_then(JsonValue::as_u64).unwrap_or(0),
                attrs,
            }),
            "event" => events.push(ParsedEvent {
                span: doc.get("span").and_then(JsonValue::as_u64),
                name,
                ts_ns: doc.get("ts_ns").and_then(JsonValue::as_u64).unwrap_or(0),
                attrs,
            }),
            other => {
                return Err(format!(
                    "line {}: unknown record type {other:?}",
                    lineno + 1
                ))
            }
        }
    }
    Ok((spans, events))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// True when `span_id`'s parent chain (inclusive) reaches `ancestor`.
fn is_within(by_id: &BTreeMap<u64, &ParsedSpan>, mut span_id: u64, ancestor: u64) -> bool {
    loop {
        if span_id == ancestor {
            return true;
        }
        match by_id.get(&span_id).and_then(|s| s.parent) {
            Some(p) => span_id = p,
            None => return false,
        }
    }
}

/// Analyzes a JSONL trace export and renders the post-mortem report.
///
/// # Errors
///
/// Returns a message naming the offending line when the input is not
/// valid JSONL in the tracer's export schema.
pub fn analyze_jsonl(input: &str, options: &AnalyzeOptions) -> Result<String, String> {
    let (spans, events) = parse_records(input)?;
    let by_id: BTreeMap<u64, &ParsedSpan> = spans.iter().map(|s| (s.id, s)).collect();
    let t0 = spans
        .iter()
        .map(|s| s.start_ns)
        .chain(events.iter().map(|e| e.ts_ns))
        .min()
        .unwrap_or(0);
    let t1 = spans
        .iter()
        .map(|s| s.end_ns)
        .chain(events.iter().map(|e| e.ts_ns))
        .max()
        .unwrap_or(t0);

    let mut out = String::with_capacity(2048);
    let _ = writeln!(out, "dspp-analyze post-mortem report");
    let _ = writeln!(out, "===============================");
    let _ = writeln!(
        out,
        "records: {} spans, {} events",
        spans.len(),
        events.len()
    );
    let _ = writeln!(out, "timeline: {:.3} ms", ms(t1 - t0));
    out.push('\n');

    // ---- Section 1: critical-path attribution ------------------------
    // One row per sim.period span, ordered by the period attribute (the
    // trace may interleave threads; attribute order is the logical one).
    struct PeriodRow {
        period: u64,
        total_ns: u64,
        controller_ns: u64,
        solver_ns: u64,
        solver_iterations: u64,
        warm_start: Option<bool>,
        recovered: bool,
        sla_shortfall: Option<f64>,
        fallback: bool,
    }
    let mut rows: Vec<PeriodRow> = Vec::new();
    for span in spans.iter().filter(|s| s.name == "sim.period") {
        let period = span
            .attrs
            .get("period")
            .and_then(JsonValue::as_u64)
            .unwrap_or(u64::MAX);
        let steps: Vec<&ParsedSpan> = spans
            .iter()
            .filter(|s| s.name == "controller.step" && s.parent == Some(span.id))
            .collect();
        let controller_ns: u64 = steps.iter().map(|s| s.duration_ns()).sum();
        let solver_ns: u64 = spans
            .iter()
            .filter(|s| {
                s.name.starts_with("solver.")
                    && s.parent
                        .is_some_and(|p| steps.iter().any(|step| step.id == p))
            })
            .map(|s| s.duration_ns())
            .sum();
        let solver_iterations = steps
            .iter()
            .filter_map(|s| s.attrs.get("solver_iterations").and_then(JsonValue::as_u64))
            .sum();
        let warm_start = steps
            .first()
            .and_then(|s| s.attrs.get("warm_start").and_then(JsonValue::as_bool));
        let recovered = steps
            .iter()
            .any(|s| s.attrs.get("recovered").and_then(JsonValue::as_bool) == Some(true));
        let sla_shortfall = span
            .attrs
            .get("sla_shortfall")
            .and_then(JsonValue::as_f64)
            .or_else(|| {
                steps
                    .iter()
                    .find_map(|s| s.attrs.get("sla_shortfall").and_then(JsonValue::as_f64))
            });
        let fallback = events.iter().any(|e| {
            e.name == "runtime.fallback" && e.span.is_some_and(|id| is_within(&by_id, id, span.id))
        });
        rows.push(PeriodRow {
            period,
            total_ns: span.duration_ns(),
            controller_ns,
            solver_ns,
            solver_iterations,
            warm_start,
            recovered,
            sla_shortfall,
            fallback,
        });
    }
    rows.sort_by_key(|r| r.period);

    let _ = writeln!(
        out,
        "critical path (sim.period -> controller.step -> solver.*)"
    );
    let _ = writeln!(
        out,
        "---------------------------------------------------------"
    );
    if rows.is_empty() {
        let _ = writeln!(out, "no sim.period spans in this trace");
    } else {
        let total: u64 = rows.iter().map(|r| r.total_ns).sum();
        let controller: u64 = rows.iter().map(|r| r.controller_ns).sum();
        let solver: u64 = rows.iter().map(|r| r.solver_ns).sum();
        let share = |part: u64| {
            if total == 0 {
                0.0
            } else {
                100.0 * part as f64 / total as f64
            }
        };
        let sim_excl = total.saturating_sub(controller);
        let ctl_excl = controller.saturating_sub(solver);
        let _ = writeln!(out, "layer                        total_ms    share");
        let _ = writeln!(
            out,
            "solver                     {:>10.3}   {:>5.1}%",
            ms(solver),
            share(solver)
        );
        let _ = writeln!(
            out,
            "controller (excl. solver)  {:>10.3}   {:>5.1}%",
            ms(ctl_excl),
            share(ctl_excl)
        );
        let _ = writeln!(
            out,
            "sim (excl. controller)     {:>10.3}   {:>5.1}%",
            ms(sim_excl),
            share(sim_excl)
        );
        let _ = writeln!(out, "periods: {}", rows.len());
    }
    out.push('\n');

    // ---- Section 2: top-k slowest periods ----------------------------
    let _ = writeln!(out, "top {} slowest periods", options.top_k.min(rows.len()));
    let _ = writeln!(out, "----------------------");
    if rows.is_empty() {
        let _ = writeln!(out, "none");
    } else {
        let mut ranked: Vec<&PeriodRow> = rows.iter().collect();
        // Slowest first; ties resolve to the earlier period so the
        // ordering is deterministic for manual-clock fixtures.
        ranked.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.period.cmp(&b.period)));
        let _ = writeln!(
            out,
            "rank  period    total_ms  controller_ms    solver_ms  iters  warm  notes"
        );
        for (rank, r) in ranked.iter().take(options.top_k).enumerate() {
            let warm = match r.warm_start {
                Some(true) => "yes",
                Some(false) => "no",
                None => "-",
            };
            let mut notes: Vec<String> = Vec::new();
            if r.fallback {
                notes.push("fallback".to_string());
            }
            if r.recovered {
                match r.sla_shortfall {
                    Some(s) => notes.push(format!("recovered (shortfall {s:.4})")),
                    None => notes.push("recovered".to_string()),
                }
            }
            let notes = if notes.is_empty() {
                "-".to_string()
            } else {
                notes.join(", ")
            };
            let _ = writeln!(
                out,
                "{:>4}  {:>6}  {:>10.3}  {:>13.3}  {:>11.3}  {:>5}  {:>4}  {}",
                rank + 1,
                r.period,
                ms(r.total_ns),
                ms(r.controller_ns),
                ms(r.solver_ns),
                r.solver_iterations,
                warm,
                notes
            );
        }
    }
    out.push('\n');

    // ---- Section 3: alert and fault timeline -------------------------
    let _ = writeln!(out, "alert and fault timeline");
    let _ = writeln!(out, "------------------------");
    let interesting = |name: &str| {
        name.starts_with("slo.")
            || name == "runtime.fault_injected"
            || name == "runtime.fallback"
            || name == "runtime.fallback_budget_exhausted"
            || name == "game.max_rounds_hit"
    };
    let mut timeline: Vec<&ParsedEvent> = events.iter().filter(|e| interesting(&e.name)).collect();
    timeline.sort_by(|a, b| {
        let pa = a.attrs.get("period").and_then(JsonValue::as_u64);
        let pb = b.attrs.get("period").and_then(JsonValue::as_u64);
        a.ts_ns
            .cmp(&b.ts_ns)
            .then(pa.cmp(&pb))
            .then(a.name.cmp(&b.name))
    });
    if timeline.is_empty() {
        let _ = writeln!(out, "no alert or fault events in this trace");
    } else {
        let _ = writeln!(out, "{:>10}  {:<34}  detail", "ts_ms", "event");
        for e in &timeline {
            let detail = e
                .attrs
                .iter()
                .filter(|(k, _)| k.as_str() != "severity")
                .map(|(k, v)| format!("{k}={}", attr_string(v)))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(
                out,
                "{:>10.3}  {:<34}  {}",
                ms(e.ts_ns - t0),
                e.name,
                if detail.is_empty() { "-" } else { &detail }
            );
        }
    }
    let count = |n: &str| timeline.iter().filter(|e| e.name == n).count();
    let _ = writeln!(
        out,
        "summary: pending={} firing={} resolved={} faults={} fallbacks={}",
        count("slo.pending"),
        count("slo.firing"),
        count("slo.resolved"),
        count("runtime.fault_injected"),
        count("runtime.fallback"),
    );
    out.push('\n');

    // ---- Section 4: fault recovery (MTTR) ----------------------------
    // Per-period cost series from the controller's own step accounting.
    let mut cost_by_period: BTreeMap<u64, f64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.name == "controller.step") {
        if let (Some(p), Some(c)) = (
            span.attrs.get("period").and_then(JsonValue::as_u64),
            span.attrs.get("step_cost").and_then(JsonValue::as_f64),
        ) {
            cost_by_period.insert(p, c);
        }
    }
    // Unique fault onsets: solver outages emit one event per retried
    // attempt inside a period, so collapse to (kind, dc, period).
    let mut onsets: Vec<(String, Option<u64>, u64)> = Vec::new();
    for e in events.iter().filter(|e| e.name == "runtime.fault_injected") {
        let kind = e
            .attrs
            .get("kind")
            .map(attr_string)
            .unwrap_or_else(|| "unknown".to_string());
        let dc = e.attrs.get("dc").and_then(JsonValue::as_u64);
        let Some(period) = e.attrs.get("period").and_then(JsonValue::as_u64) else {
            continue;
        };
        let key = (kind, dc, period);
        if !onsets.contains(&key) {
            onsets.push(key);
        }
    }
    onsets.sort_by(|a, b| a.2.cmp(&b.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));

    let _ = writeln!(out, "fault recovery (MTTR)");
    let _ = writeln!(out, "---------------------");
    if onsets.is_empty() {
        let _ = writeln!(out, "no injected faults in this trace");
    } else if cost_by_period.is_empty() {
        let _ = writeln!(
            out,
            "faults present but no step_cost attributes to measure recovery"
        );
    } else {
        let _ = writeln!(
            out,
            "fault                dc  onset  baseline_cost  recovered_at  mttr_periods"
        );
        let mut recovered = 0usize;
        let mut mttr_sum = 0u64;
        for (kind, dc, onset) in &onsets {
            let dc_str = dc.map_or_else(|| "-".to_string(), |d| d.to_string());
            // Baseline: mean step cost over every pre-fault period. The
            // tolerance band is 5% of the baseline (floored at 1e-9 so a
            // zero-cost baseline still admits exact recovery).
            let pre: Vec<f64> = cost_by_period.range(..onset).map(|(_, &c)| c).collect();
            if pre.is_empty() {
                let _ = writeln!(
                    out,
                    "{kind:<18}  {dc_str:>2}  {onset:>5}  no pre-fault baseline"
                );
                continue;
            }
            let baseline = pre.iter().sum::<f64>() / pre.len() as f64;
            let tol = (0.05 * baseline.abs()).max(1e-9);
            match cost_by_period
                .range(onset..)
                .find(|&(_, &c)| (c - baseline).abs() <= tol)
            {
                Some((&q, _)) => {
                    let mttr = q - onset;
                    recovered += 1;
                    mttr_sum += mttr;
                    let _ = writeln!(
                        out,
                        "{kind:<18}  {dc_str:>2}  {onset:>5}  {baseline:>13.4}  {q:>12}  {mttr:>12}"
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "{kind:<18}  {dc_str:>2}  {onset:>5}  {baseline:>13.4}  {:>12}  {:>12}",
                        "-", "never"
                    );
                }
            }
        }
        if recovered > 0 {
            let _ = writeln!(
                out,
                "mttr: {recovered}/{} faults recovered, mean {:.1} periods",
                onsets.len(),
                mttr_sum as f64 / recovered as f64
            );
        } else {
            let _ = writeln!(
                out,
                "mttr: 0/{} faults recovered within this trace",
                onsets.len()
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrValue, ManualClock, Tracer};
    use std::sync::Arc;

    /// Builds a small deterministic trace with a manual clock: three
    /// periods (the middle one slow, with a fault, fallback, and alert),
    /// then returns its JSONL export.
    fn fixture_jsonl() -> String {
        let clock = ManualClock::new();
        let tracer = Tracer::with_clock(4096, Box::new(Arc::clone(&clock)));
        for k in 0u64..3 {
            let mut period = tracer.span("sim.period");
            period.attr("period", k);
            clock.advance(50_000);
            {
                let mut step = tracer.span("controller.step");
                step.attr("period", k);
                step.attr("warm_start", k > 0);
                step.attr("solver_iterations", 9 + k);
                // Period 1's fault triples the cost; period 2 lands back
                // inside the 5% baseline band, so MTTR is one period.
                step.attr("step_cost", [10.0, 30.0, 10.2][k as usize]);
                {
                    let _solve = tracer.span("solver.lq.solve");
                    clock.advance(if k == 1 { 900_000 } else { 300_000 });
                }
                clock.advance(100_000);
            }
            if k == 1 {
                tracer.event_with(
                    "runtime.fault_injected",
                    [
                        ("kind", AttrValue::Str("solver_outage".into())),
                        ("period", AttrValue::UInt(k)),
                    ],
                );
                tracer.event_with("runtime.fallback", [("period", AttrValue::UInt(k))]);
                tracer.event_with(
                    "slo.firing",
                    [
                        ("slo", AttrValue::Str("fallback_budget".into())),
                        ("period", AttrValue::UInt(k)),
                    ],
                );
            }
            clock.advance(50_000);
            drop(period);
        }
        tracer.to_jsonl()
    }

    #[test]
    fn report_attributes_the_critical_path() {
        let report = analyze_jsonl(&fixture_jsonl(), &AnalyzeOptions::default()).unwrap();
        assert!(report.contains("records: 9 spans, 3 events"));
        assert!(report.contains("critical path"));
        // Solver time: 0.3 + 0.9 + 0.3 ms.
        assert!(
            report.contains("solver                          1.500"),
            "{report}"
        );
        assert!(report.contains("periods: 3"));
    }

    #[test]
    fn slow_period_ranks_first_with_fallback_note() {
        let report = analyze_jsonl(&fixture_jsonl(), &AnalyzeOptions { top_k: 2 }).unwrap();
        let rank1 = report
            .lines()
            .find(|l| l.trim_start().starts_with("1  "))
            .unwrap();
        assert!(
            rank1.contains("     1  "),
            "period 1 must rank first: {rank1}"
        );
        assert!(rank1.contains("fallback"));
    }

    #[test]
    fn timeline_correlates_alerts_and_faults() {
        let report = analyze_jsonl(&fixture_jsonl(), &AnalyzeOptions::default()).unwrap();
        let fault_pos = report.find("runtime.fault_injected").unwrap();
        let firing_pos = report.find("slo.firing").unwrap();
        assert!(fault_pos < firing_pos, "fault must precede the alert");
        assert!(report.contains("summary: pending=0 firing=1 resolved=0 faults=1 fallbacks=1"));
    }

    #[test]
    fn mttr_measures_periods_until_cost_rebaselines() {
        let report = analyze_jsonl(&fixture_jsonl(), &AnalyzeOptions::default()).unwrap();
        assert!(report.contains("fault recovery (MTTR)"), "{report}");
        // Onset at period 1 (cost 30 vs baseline 10), back in band at 2.
        let row = report
            .lines()
            .find(|l| l.starts_with("solver_outage"))
            .expect("mttr row for the injected fault");
        assert!(row.contains("10.0000"), "baseline from period 0: {row}");
        assert!(
            row.trim_end().ends_with('1'),
            "one period to recover: {row}"
        );
        assert!(report.contains("mttr: 1/1 faults recovered, mean 1.0 periods"));
    }

    #[test]
    fn mttr_section_degrades_without_cost_attributes() {
        // An event-only trace (no controller.step spans): the section
        // must say why it cannot measure instead of omitting the fault.
        let clock = ManualClock::new();
        let tracer = Tracer::with_clock(64, Box::new(Arc::clone(&clock)));
        tracer.event_with(
            "runtime.fault_injected",
            [
                ("kind", AttrValue::Str("dc_outage".into())),
                ("dc", AttrValue::UInt(0)),
                ("period", AttrValue::UInt(3)),
            ],
        );
        let report = analyze_jsonl(&tracer.to_jsonl(), &AnalyzeOptions::default()).unwrap();
        assert!(report.contains("faults present but no step_cost attributes"));
        // And a clean trace reports the empty case.
        let clean = analyze_jsonl("", &AnalyzeOptions::default()).unwrap();
        assert!(clean.contains("no injected faults in this trace"));
    }

    #[test]
    fn report_is_deterministic() {
        let a = analyze_jsonl(&fixture_jsonl(), &AnalyzeOptions::default()).unwrap();
        let b = analyze_jsonl(&fixture_jsonl(), &AnalyzeOptions::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(analyze_jsonl("not json\n", &AnalyzeOptions::default())
            .unwrap_err()
            .contains("line 1"));
        let missing_type = "{\"name\":\"x\"}\n";
        assert!(analyze_jsonl(missing_type, &AnalyzeOptions::default())
            .unwrap_err()
            .contains("type"));
    }

    #[test]
    fn empty_input_yields_empty_sections() {
        let report = analyze_jsonl("", &AnalyzeOptions::default()).unwrap();
        assert!(report.contains("no sim.period spans"));
        assert!(report.contains("no alert or fault events"));
    }
}
