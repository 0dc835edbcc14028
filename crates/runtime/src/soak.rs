//! Long-horizon streaming soak drills.
//!
//! A soak run drives the full ingest front end ([`dspp_ingest::IngestLoop`])
//! for a long simulated horizon (the CI drill uses 30 simulated days of
//! hourly control periods) under injected adversity — flash crowds that
//! outrun the admission budget and spot-price shocks — and, mid-stream,
//! drills the persistence path: freeze an [`dspp_ingest::IngestCheckpoint`],
//! round-trip it through JSON, restore it into a *fresh* loop (fresh
//! controller, fresh buckets), and run both to the end. Deterministic
//! generation and integer aggregation make the resumed run bit-exact;
//! [`SoakReport::resume_bit_exact`] is the assertion CI greps for.
//!
//! The drill also exercises the `ingest_backpressure` SLO lifecycle: the
//! flash crowd must push the alert through pending → firing → resolved,
//! and the engine's transition timeline is exported as CSV for the
//! fault-drill job's artifact upload.

use dspp_core::{CoreError, PlacementPolicy};
use dspp_ingest::{IngestCheckpoint, IngestConfig, IngestLoop, IngestTotals};
use dspp_telemetry::{Recorder, SloEngine, SloSpec};

use crate::{Fault, FaultPlan, RuntimeError};

/// Specification of one streaming soak drill.
#[derive(Debug, Clone)]
pub struct SoakSpec {
    /// Per-`[city][period]` offered-load plan in requests per second,
    /// before fault injection.
    pub rates: Vec<Vec<f64>>,
    /// Adversity to inject. Demand spikes are applied to `rates` here;
    /// price shocks must be applied to the price trace by the caller's
    /// controller factory (prices live inside the problem spec). A soak
    /// has no solver-outage wrapper and no capacity schedule, so any
    /// other fault is rejected.
    pub faults: FaultPlan,
    /// Ingest configuration (seed, shard count, period length, budget).
    pub config: IngestConfig,
    /// Period after which the checkpoint/restore drill happens. Must be
    /// `>= 1` and `< rates[0].len()` so both halves are non-trivial.
    pub checkpoint_after: usize,
    /// SLOs to attach to the primary run (the restored run re-observes
    /// nothing before its resume point, so it runs without an engine).
    pub slos: Vec<SloSpec>,
}

/// Outcome of a [`run_soak`] drill.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Periods executed end to end.
    pub periods: usize,
    /// Stream totals of the primary (uninterrupted) run.
    pub totals: IngestTotals,
    /// Whether the restored run's sealed ledger, CSV export, and
    /// accumulated step cost are bit-identical to the primary run's.
    pub resume_bit_exact: bool,
    /// `slo.firing` transitions observed during the run.
    pub slo_firing: u64,
    /// `slo.resolved` transitions observed during the run.
    pub slo_resolved: u64,
    /// Alert-timeline CSV (`period,slo,from,to,burn_short,burn_long`),
    /// the artifact the fault-drill CI job uploads.
    pub timeline_csv: String,
    /// Size of the checkpoint JSON document that was round-tripped.
    pub checkpoint_bytes: usize,
}

/// Runs a streaming soak drill: ingest the full horizon under faults,
/// checkpoint after `spec.checkpoint_after` periods, restore into a
/// fresh loop built by a second `make_controller` call, and verify the
/// resumed run reproduces the primary run bit for bit.
///
/// `make_controller` is invoked twice (primary + restored loop); both
/// controllers must be built from the *same* problem spec or the
/// restore is rejected by the checkpoint validation.
///
/// # Errors
///
/// [`RuntimeError::Core`] with [`CoreError::InvalidSpec`] when the plan
/// holds a solver outage, DC outage or capacity degradation, or when
/// `checkpoint_after` is outside `1..periods`; otherwise the first
/// failure of a loop step, checkpoint or restore.
pub fn run_soak<F>(
    spec: &SoakSpec,
    make_controller: F,
    telemetry: &Recorder,
) -> Result<SoakReport, RuntimeError>
where
    F: Fn() -> Result<Box<dyn PlacementPolicy>, CoreError>,
{
    let mut unsupported: Vec<&str> = spec
        .faults
        .faults()
        .iter()
        .filter_map(|fault| match fault {
            Fault::DemandSpike(_) | Fault::PriceShock { .. } => None,
            Fault::SolverOutage { .. } => Some("solver outage"),
            Fault::DcOutage { .. } => Some("DC outage"),
            Fault::CapacityDegrade { .. } => Some("capacity degradation"),
        })
        .collect();
    if !unsupported.is_empty() {
        unsupported.sort_unstable();
        unsupported.dedup();
        return Err(RuntimeError::Core(CoreError::InvalidSpec(format!(
            "a soak applies only demand spikes and price shocks, not: {}",
            unsupported.join(", ")
        ))));
    }
    let mut rates = spec.rates.clone();
    spec.faults.apply_to_demand(&mut rates);
    let periods = rates.first().map(Vec::len).unwrap_or(0);
    if spec.checkpoint_after == 0 || spec.checkpoint_after >= periods {
        return Err(RuntimeError::Core(CoreError::InvalidSpec(format!(
            "checkpoint_after {} outside 1..{periods}",
            spec.checkpoint_after
        ))));
    }

    // Primary run: telemetry + SLO engine attached, interrupted only to
    // freeze (not consume) a checkpoint.
    let mut primary = IngestLoop::new(make_controller()?, rates.clone(), spec.config)?
        .with_telemetry(telemetry.clone());
    if !spec.slos.is_empty() {
        primary = primary.with_slos(SloEngine::new(spec.slos.clone(), telemetry.clone()));
    }
    while primary.cursor() < spec.checkpoint_after {
        primary.step()?;
    }
    let frozen = primary.checkpoint()?.to_json();
    primary.run_to_end()?;

    // Restored run: a fresh loop resumes from the JSON document and
    // must replay the remaining periods bit-exactly.
    let parsed = IngestCheckpoint::from_json(&frozen)
        .map_err(|e| RuntimeError::Core(CoreError::InvalidSpec(e)))?;
    let mut restored = IngestLoop::new(make_controller()?, rates, spec.config)?;
    restored.restore(&parsed)?;
    restored.run_to_end()?;

    let resume_bit_exact = primary.sealed() == restored.sealed()
        && primary.sealed_matrix_csv() == restored.sealed_matrix_csv()
        && primary.totals().step_cost.to_bits() == restored.totals().step_cost.to_bits();

    let (slo_firing, slo_resolved) = telemetry
        .snapshot()
        .map(|s| (s.counter("slo.firing"), s.counter("slo.resolved")))
        .unwrap_or((0, 0));
    let timeline_csv = primary
        .slos()
        .map(SloEngine::timeline_csv)
        .unwrap_or_default();

    Ok(SoakReport {
        periods: primary.cursor(),
        totals: *primary.totals(),
        resume_bit_exact,
        slo_firing,
        slo_resolved,
        timeline_csv,
        checkpoint_bytes: frozen.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspp_core::{DsppBuilder, MpcController, MpcSettings};
    use dspp_ingest::BackpressureBudget;
    use dspp_predict::LastValue;
    use dspp_telemetry::SloSpec;
    use dspp_workload::FlashCrowd;

    fn make_controller(
        periods: usize,
    ) -> Box<dyn Fn() -> Result<Box<dyn PlacementPolicy>, CoreError>> {
        Box::new(move || {
            let problem = DsppBuilder::new(2, 2)
                .service_rate(100.0)
                .sla_latency(0.100)
                .latency_rows(vec![vec![0.010, 0.030], vec![0.030, 0.010]])
                .price_trace(0, vec![1.0; periods + 8])
                .price_trace(1, vec![1.3; periods + 8])
                .build()?;
            Ok(Box::new(MpcController::new(
                problem,
                Box::new(LastValue),
                MpcSettings {
                    horizon: 3,
                    ..MpcSettings::default()
                },
            )?) as Box<dyn PlacementPolicy>)
        })
    }

    #[test]
    fn soak_drill_is_bit_exact_and_fires_backpressure() {
        let periods = 16;
        let spec = SoakSpec {
            rates: vec![vec![40.0; periods], vec![25.0; periods]],
            faults: FaultPlan::new()
                .demand_spike(FlashCrowd::new(5.0, 4.0, 8.0))
                .price_shock(1, 6, 4, 3.0),
            config: IngestConfig::new(41)
                .with_period_seconds(60)
                .with_jobs(2)
                .with_budget(BackpressureBudget::new(3000, 800)),
            checkpoint_after: 7,
            slos: vec![SloSpec::ingest_backpressure()],
        };
        let telemetry = Recorder::enabled();
        let report = run_soak(&spec, make_controller(periods), &telemetry).unwrap();
        assert_eq!(report.periods, periods);
        assert!(report.resume_bit_exact, "resume must be bit-exact");
        assert!(report.totals.dropped + report.totals.deferred > 0);
        assert!(report.slo_firing >= 1, "flash crowd must fire the SLO");
        assert!(
            report.slo_resolved >= 1,
            "alert must resolve after the crowd"
        );
        assert!(report.timeline_csv.contains("ingest_backpressure"));
        assert!(report.checkpoint_bytes > 0);
    }

    #[test]
    fn soak_rejects_degenerate_checkpoint_position() {
        let spec = SoakSpec {
            rates: vec![vec![10.0; 4]],
            faults: FaultPlan::new(),
            config: IngestConfig::new(1),
            checkpoint_after: 4,
            slos: vec![],
        };
        let err = run_soak(&spec, make_controller(4), &Recorder::disabled());
        assert!(err.is_err());
    }

    #[test]
    fn soak_rejects_faults_it_cannot_apply() {
        let spec = SoakSpec {
            rates: vec![vec![10.0; 4], vec![10.0; 4]],
            faults: FaultPlan::new()
                .price_shock(0, 1, 1, 2.0)
                .dc_outage(1, 1, 1)
                .solver_outage(2, 1)
                .capacity_degrade(0, 0.5, 1, 2)
                .dc_outage(0, 3, 1),
            config: IngestConfig::new(1),
            checkpoint_after: 2,
            slos: vec![],
        };
        match run_soak(&spec, make_controller(4), &Recorder::disabled()) {
            Err(RuntimeError::Core(CoreError::InvalidSpec(m))) => assert!(
                m.ends_with("not: DC outage, capacity degradation, solver outage"),
                "{m}"
            ),
            other => panic!("expected an invalid-spec error, got {other:?}"),
        }
    }
}
