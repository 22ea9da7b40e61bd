//! Fault-tolerance study.
//!
//! The paper's protocol (§III) is analyzed failure-free; this extension
//! quantifies what geo-distributed reality costs it. Every hour is re-run
//! under seeded random [`FaultPlan`]s at increasing crash rates — node
//! crashes recovered from checkpoints, permanent crashes answered by
//! degraded-mode eviction — and the achieved UFC is compared with the
//! clean run. As with dropped messages, recoverable faults
//! are *result-free* (checkpoint replay is bit-faithful) and only evictions
//! move the objective, by an amount the [`FaultStudy`] reports per rate.

use ufc_core::{AdmgSettings, CoreError, Result, Strategy};
use ufc_distsim::{DistributedAdmg, Engine, FaultPlan, RunSpec};
use ufc_model::scenario::ScenarioBuilder;
use ufc_traces::csv::Csv;

use crate::parallel::{default_threads, par_map};

/// Per-datacenter crash probabilities swept by the study.
pub const CRASH_RATES: [f64; 4] = [0.0, 0.1, 0.25, 0.5];

/// Straggler probability per node (fixed across the sweep).
pub const STRAGGLER_RATE: f64 = 0.2;

/// Crash iterations are drawn from `[1, HORIZON]` — early enough that a
/// scheduled crash almost always fires before convergence.
pub const HORIZON: usize = 15;

/// Aggregate over all hours at one crash rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPoint {
    /// Per-datacenter crash probability.
    pub crash_rate: f64,
    /// Hours attempted.
    pub hours_attempted: usize,
    /// Hours that completed (converged or hit the iteration cap).
    pub hours_completed: usize,
    /// Hours aborted with an unrecoverable `NodeFailure`.
    pub hours_aborted: usize,
    /// Crash events scheduled by the plans.
    pub crashes_scheduled: usize,
    /// Crash events that actually fired before the run finished.
    pub crashes_observed: usize,
    /// Datacenter evictions (degraded-mode transitions).
    pub evictions: usize,
    /// Evicted datacenters later readmitted.
    pub readmissions: usize,
    /// Total checkpoint rounds taken.
    pub checkpoints: usize,
    /// Total iterations recomputed during checkpoint-restart replay.
    pub recomputed_iterations: usize,
    /// Total modeled downtime across completed hours (s).
    pub downtime_s: f64,
    /// Mean |UFC delta| vs the clean run, relative (fraction).
    pub mean_abs_ufc_delta: f64,
    /// Worst |UFC delta| vs the clean run, relative (fraction).
    pub max_abs_ufc_delta: f64,
}

/// The full study result.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStudy {
    /// One aggregate per swept crash rate.
    pub points: Vec<FaultPoint>,
}

/// One hour's outcome (internal).
enum HourOutcome {
    Completed {
        scheduled: usize,
        report: ufc_distsim::FaultReport,
        rel_delta: f64,
    },
    Aborted {
        scheduled: usize,
    },
}

/// Runs the sweep over `hours` hourly instances at every [`CRASH_RATES`]
/// entry. Unrecoverable failures (a permanently dead front-end, losing the
/// last datacenter) abort only their own hour and are tallied, not
/// propagated.
///
/// # Errors
///
/// Scenario construction or clean-run solver failures.
pub fn run(seed: u64, hours: usize, settings: AdmgSettings) -> Result<FaultStudy> {
    let scenario = ScenarioBuilder::paper_default()
        .seed(seed)
        .hours(hours)
        .build()
        .map_err(CoreError::Model)?;
    let runner = DistributedAdmg::try_new(settings)?;
    let hour_ids: Vec<usize> = (0..scenario.instances.len()).collect();

    let mut points = Vec::with_capacity(CRASH_RATES.len());
    for (r, &rate) in CRASH_RATES.iter().enumerate() {
        let outcomes = par_map(&hour_ids, default_threads(), |_, &t| {
            let inst = &scenario.instances[t];
            // One independent, reproducible plan per (rate, hour).
            let plan_seed = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((r * hours + t) as u64);
            let plan = FaultPlan::random(
                plan_seed,
                inst.m_frontends(),
                inst.n_datacenters(),
                HORIZON,
                rate,
                STRAGGLER_RATE,
            );
            let scheduled = plan.crash_count();
            match runner.execute(
                inst,
                Strategy::Hybrid,
                &RunSpec::new(Engine::Lockstep).with_plan(plan),
                &mut (),
            ) {
                Ok(report) => {
                    let fault = report.fault.unwrap_or_default();
                    let clean_ufc = report.breakdown.ufc() - fault.ufc_delta_vs_clean;
                    let rel_delta = fault.ufc_delta_vs_clean.abs() / clean_ufc.abs().max(1.0);
                    Ok(HourOutcome::Completed {
                        scheduled,
                        report: fault,
                        rel_delta,
                    })
                }
                Err(CoreError::NodeFailure { .. }) => Ok(HourOutcome::Aborted { scheduled }),
                Err(e) => Err(e),
            }
        });

        let mut point = FaultPoint {
            crash_rate: rate,
            hours_attempted: hour_ids.len(),
            hours_completed: 0,
            hours_aborted: 0,
            crashes_scheduled: 0,
            crashes_observed: 0,
            evictions: 0,
            readmissions: 0,
            checkpoints: 0,
            recomputed_iterations: 0,
            downtime_s: 0.0,
            mean_abs_ufc_delta: 0.0,
            max_abs_ufc_delta: 0.0,
        };
        let mut delta_sum = 0.0;
        for outcome in outcomes {
            match outcome? {
                HourOutcome::Completed {
                    scheduled,
                    report,
                    rel_delta,
                } => {
                    point.hours_completed += 1;
                    point.crashes_scheduled += scheduled;
                    point.crashes_observed += report.crashes_observed;
                    point.evictions += report.evicted.len();
                    point.readmissions += report.readmitted.len();
                    point.checkpoints += report.checkpoints_taken;
                    point.recomputed_iterations += report.recomputed_iterations;
                    point.downtime_s += report.downtime_seconds;
                    delta_sum += rel_delta;
                    point.max_abs_ufc_delta = point.max_abs_ufc_delta.max(rel_delta);
                }
                HourOutcome::Aborted { scheduled } => {
                    point.hours_aborted += 1;
                    point.crashes_scheduled += scheduled;
                }
            }
        }
        point.mean_abs_ufc_delta = delta_sum / point.hours_completed.max(1) as f64;
        points.push(point);
    }
    Ok(FaultStudy { points })
}

impl FaultStudy {
    /// Fraction of hours that completed at the highest swept crash rate.
    #[must_use]
    pub fn worst_completion_rate(&self) -> f64 {
        self.points.last().map_or(1.0, |p| {
            p.hours_completed as f64 / p.hours_attempted.max(1) as f64
        })
    }

    /// CSV with one row per crash rate.
    #[must_use]
    pub fn csv(&self) -> Csv {
        let mut csv = Csv::new(&[
            "crash_rate",
            "hours_completed",
            "hours_aborted",
            "crashes_observed",
            "evictions",
            "readmissions",
            "recomputed_iterations",
            "downtime_s",
            "mean_abs_ufc_delta_pct",
            "max_abs_ufc_delta_pct",
        ]);
        for p in &self.points {
            csv.push_row(&[
                p.crash_rate,
                p.hours_completed as f64,
                p.hours_aborted as f64,
                p.crashes_observed as f64,
                p.evictions as f64,
                p.readmissions as f64,
                p.recomputed_iterations as f64,
                p.downtime_s,
                100.0 * p.mean_abs_ufc_delta,
                100.0 * p.max_abs_ufc_delta,
            ]);
        }
        csv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_scales_with_crash_rate() {
        let study = run(crate::DEFAULT_SEED, 4, AdmgSettings::default()).unwrap();
        assert_eq!(study.points.len(), CRASH_RATES.len());

        let calm = &study.points[0];
        assert_eq!(calm.crash_rate, 0.0);
        assert_eq!(calm.crashes_scheduled, 0);
        assert_eq!(calm.hours_completed, calm.hours_attempted);
        assert_eq!(calm.mean_abs_ufc_delta, 0.0);

        let stormy = study.points.last().unwrap();
        assert!(
            stormy.crashes_scheduled > 0,
            "0.5 rate must schedule crashes"
        );
        assert!(stormy.crashes_observed <= stormy.crashes_scheduled);
        assert_eq!(
            stormy.hours_completed + stormy.hours_aborted,
            stormy.hours_attempted
        );
        // Observed crashes imply modeled downtime, and vice versa.
        assert_eq!(stormy.crashes_observed > 0, stormy.downtime_s > 0.0);
    }
}
