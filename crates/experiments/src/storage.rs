//! `repro storage` — the temporal-coupling study of the 5th ADM-G block:
//! per-datacenter batteries plus fuel-cell ramp limits, driven over the
//! 24-hour trace by a receding-horizon loop.
//!
//! Each hour the loop freezes the fleet's charge state and the previous
//! hour's fuel-cell output into [`StorageParams`], attaches them to the
//! hourly instance (which switches the solver onto the 5-block
//! [`ufc_core::BlockSchedule`]), solves, and advances
//! `b_j(t+1) = b_j(t) − d_j·h` / `μ_prev ← μ`. The opportunity value
//! `κ_j` is set to datacenter `j`'s *mean* grid price over the horizon, so
//! the myopic hourly solve charges when power is cheap and discharges when
//! it is dear — the arbitrage a look-ahead controller would extract.
//! Hour 0's ramp anchor is the hour-0 spatial-only optimum, not 0 MW — a
//! running plant has an operating point before the horizon starts.
//!
//! Every hour is solved three ways: the plain instance in-process (the
//! spatial-only baseline), and the storage instance on the lockstep engine
//! and on the in-process solver, which must agree **bit for bit** (the
//! study fails loudly if they do not). The headline metric is the
//! horizon-total UFC improvement over the baseline, both raw and adjusted
//! for the battery's net change in stored energy (valued at `κ_j`, so a
//! run cannot look good by merely draining its batteries).

use ufc_core::{AdmgSettings, AdmgSolver, CoreError, Result, Strategy};
use ufc_distsim::{DistributedAdmg, Engine, RunSpec};
use ufc_model::scenario::ScenarioBuilder;
use ufc_model::{OperatingPoint, StorageFleet, StorageParams, UfcBreakdown};
use ufc_traces::csv::Csv;

/// The study's default battery fleet: 4 MWh / 2 MW per datacenter (half a
/// peak-hour of demand), starting half charged, with a mild quadratic wear
/// cost and a 2.5 MW/h fuel-cell ramp limit. The ramp is genuinely active
/// at this setting (on its own it *costs* ≈0.25% of UFC — slow fuel cells
/// cannot follow hourly price crossings), and the battery more than buys
/// that flexibility back. `value_per_mwh` is left 0 here — [`run`]
/// overrides it per datacenter with the mean grid price.
#[must_use]
pub fn default_fleet() -> StorageFleet {
    StorageFleet::new(4.0, 2.0)
        .initial_charge_frac(0.5)
        .degradation(0.5)
        .ramp_mw(2.5)
}

/// One receding-horizon hour of the study.
#[derive(Debug, Clone)]
pub struct StorageHour {
    /// Hour index.
    pub hour: usize,
    /// Spatial-only (no storage) Hybrid UFC ($).
    pub baseline_ufc: f64,
    /// 5-block Hybrid UFC ($) — degradation cost already deducted.
    pub storage_ufc: f64,
    /// Fleet-total net discharged energy this hour (MWh; negative while
    /// charging).
    pub net_discharge_mwh: f64,
    /// Mean state of charge across the fleet after the hour (MWh).
    pub mean_charge_mwh: f64,
    /// ADM-G iterations of the storage solve (lockstep == in-process).
    pub iterations: usize,
    /// Whether all three solves converged.
    pub converged: bool,
    /// Whether the lockstep engine and the in-process solver agreed bit
    /// for bit (operating point, breakdown and iteration count).
    pub bitwise: bool,
}

/// The full receding-horizon study.
#[derive(Debug, Clone)]
pub struct StorageStudy {
    /// One record per hour of the horizon.
    pub hours: Vec<StorageHour>,
    /// The per-datacenter opportunity value κ used ($/MWh = mean grid
    /// price over the horizon).
    pub kappa: Vec<f64>,
    /// Initial per-datacenter charge (MWh).
    pub initial_charge_mwh: Vec<f64>,
    /// Final per-datacenter charge (MWh).
    pub final_charge_mwh: Vec<f64>,
}

impl StorageStudy {
    /// Horizon-total spatial-only UFC ($).
    #[must_use]
    pub fn total_baseline_ufc(&self) -> f64 {
        self.hours.iter().map(|h| h.baseline_ufc).sum()
    }

    /// Horizon-total 5-block UFC ($).
    #[must_use]
    pub fn total_storage_ufc(&self) -> f64 {
        self.hours.iter().map(|h| h.storage_ufc).sum()
    }

    /// The value of the fleet's net change in stored energy over the
    /// horizon, at κ: positive when the batteries end fuller than they
    /// started.
    #[must_use]
    pub fn charge_delta_value(&self) -> f64 {
        self.kappa
            .iter()
            .zip(self.final_charge_mwh.iter().zip(&self.initial_charge_mwh))
            .map(|(k, (fin, init))| k * (fin - init))
            .sum()
    }

    /// Raw UFC improvement of the 5-block run over the spatial-only
    /// baseline, as a fraction of the baseline magnitude.
    #[must_use]
    pub fn improvement(&self) -> f64 {
        let base = self.total_baseline_ufc();
        (self.total_storage_ufc() - base) / base.abs().max(1.0)
    }

    /// Charge-adjusted improvement: the raw improvement with the net
    /// stored-energy delta credited/charged at κ, so draining the
    /// batteries does not count as profit.
    #[must_use]
    pub fn adjusted_improvement(&self) -> f64 {
        let base = self.total_baseline_ufc();
        (self.total_storage_ufc() + self.charge_delta_value() - base) / base.abs().max(1.0)
    }

    /// Whether every hour's lockstep and in-process solves agreed bit for
    /// bit.
    #[must_use]
    pub fn all_bitwise(&self) -> bool {
        self.hours.iter().all(|h| h.bitwise)
    }

    /// Whether every solve of every hour converged.
    #[must_use]
    pub fn all_converged(&self) -> bool {
        self.hours.iter().all(|h| h.converged)
    }

    /// CSV of the hourly trajectory (the study's figure data).
    #[must_use]
    pub fn csv(&self) -> Csv {
        let mut csv = Csv::new(&[
            "hour",
            "baseline_ufc",
            "storage_ufc",
            "net_discharge_mwh",
            "mean_charge_mwh",
            "iterations",
        ]);
        for h in &self.hours {
            csv.push_row(&[
                h.hour as f64,
                h.baseline_ufc,
                h.storage_ufc,
                h.net_discharge_mwh,
                h.mean_charge_mwh,
                h.iterations as f64,
            ]);
        }
        csv
    }
}

fn bits_of(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

/// The bits of a solve's answer: the full operating point (λ, μ, ν, d)
/// and the UFC breakdown.
fn solve_bits(p: &OperatingPoint, b: &UfcBreakdown) -> Vec<u64> {
    let mut bits = bits_of(p.lambda.iter().flatten().copied());
    bits.extend(bits_of(p.mu.iter().copied()));
    bits.extend(bits_of(p.nu.iter().copied()));
    bits.extend(bits_of(p.d.iter().copied()));
    bits.extend(bits_of([
        b.utility_dollars,
        b.energy_cost_dollars,
        b.carbon_cost_dollars,
        b.queueing_cost_dollars,
        b.storage_mwh,
        b.storage_cost_dollars,
        b.ufc(),
    ]));
    bits
}

/// Runs the receding-horizon storage study over `hours` hours of the
/// trace-driven scenario.
///
/// # Errors
///
/// Scenario construction, storage-parameter validation, or solver
/// failures.
pub fn run(
    seed: u64,
    hours: usize,
    settings: AdmgSettings,
    fleet: StorageFleet,
) -> Result<StorageStudy> {
    let scenario = ScenarioBuilder::paper_default()
        .seed(seed)
        .hours(hours)
        .build()
        .map_err(CoreError::Model)?;
    let n = scenario.instances[0].n_datacenters();

    // κ_j = datacenter j's mean grid price over the horizon: the price
    // level the battery arbitrages around.
    let mut kappa = vec![0.0; n];
    for inst in &scenario.instances {
        for (k, &p) in kappa.iter_mut().zip(&inst.grid_price) {
            *k += p / scenario.instances.len() as f64;
        }
    }

    let solver = AdmgSolver::new(settings);
    let dist = DistributedAdmg::new(settings);
    let mut charge = vec![fleet.initial_charge_frac * fleet.capacity_mwh; n];
    let initial_charge_mwh = charge.clone();
    let mut mu_prev = vec![0.0; n];
    let mut out_hours = Vec::with_capacity(scenario.instances.len());

    for (t, inst) in scenario.instances.iter().enumerate() {
        let baseline = solver.solve(inst, Strategy::Hybrid)?;
        if t == 0 {
            // Anchor the ramp at the hour-0 spatial optimum: a running
            // plant has an operating point before the horizon starts, and
            // ramping the fuel cells up from an artificial 0 MW would
            // charge the 5-block run a cold-start penalty the baseline
            // never pays.
            for (prev, (&mu, &cap)) in mu_prev
                .iter_mut()
                .zip(baseline.point.mu.iter().zip(&inst.mu_max))
            {
                *prev = mu.clamp(0.0, cap);
            }
        }

        let mut params: StorageParams = fleet.params(charge.clone(), mu_prev.clone());
        params.value_per_mwh.clone_from(&kappa);
        let sinst = inst
            .clone()
            .with_storage(params)
            .map_err(CoreError::Model)?;

        let lockstep = dist.execute(
            &sinst,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep),
            &mut (),
        )?;
        let in_process = solver.solve(&sinst, Strategy::Hybrid)?;
        let bitwise = lockstep.iterations == in_process.iterations
            && solve_bits(&lockstep.point, &lockstep.breakdown)
                == solve_bits(&in_process.point, &in_process.breakdown);

        let h = sinst.slot_hours;
        let mut net_discharge = 0.0;
        for j in 0..n {
            net_discharge += lockstep.point.d[j] * h;
            // FP-safe advance: d sits in the discharge box by construction,
            // so the clamp only shaves round-off at the rails.
            charge[j] = (charge[j] - lockstep.point.d[j] * h).clamp(0.0, fleet.capacity_mwh);
            mu_prev[j] = lockstep.point.mu[j].clamp(0.0, inst.mu_max[j]);
        }

        out_hours.push(StorageHour {
            hour: t,
            baseline_ufc: baseline.breakdown.ufc(),
            storage_ufc: lockstep.breakdown.ufc(),
            net_discharge_mwh: net_discharge,
            mean_charge_mwh: charge.iter().sum::<f64>() / n as f64,
            iterations: lockstep.iterations,
            converged: baseline.converged && lockstep.converged && in_process.converged,
            bitwise,
        });
    }

    Ok(StorageStudy {
        hours: out_hours,
        kappa,
        initial_charge_mwh,
        final_charge_mwh: charge,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shared 24-hour study (the `repro storage` configuration).
    fn study() -> &'static StorageStudy {
        use std::sync::OnceLock;
        static CELL: OnceLock<StorageStudy> = OnceLock::new();
        CELL.get_or_init(|| {
            run(
                crate::DEFAULT_SEED,
                24,
                AdmgSettings::default(),
                default_fleet(),
            )
            .unwrap()
        })
    }

    #[test]
    fn converges_and_engines_agree_bitwise_every_hour() {
        let s = study();
        assert!(s.all_converged());
        assert!(s.all_bitwise(), "lockstep and in-process solves diverged");
    }

    #[test]
    fn storage_improves_ufc_even_charge_adjusted() {
        let s = study();
        assert!(
            s.improvement() > 0.0,
            "raw improvement {} not positive",
            s.improvement()
        );
        assert!(
            s.adjusted_improvement() > 0.0,
            "charge-adjusted improvement {} not positive",
            s.adjusted_improvement()
        );
    }

    #[test]
    fn batteries_actually_cycle() {
        let s = study();
        assert!(
            s.hours.iter().any(|h| h.net_discharge_mwh > 1e-6),
            "the fleet never discharged"
        );
        assert!(
            s.hours.iter().any(|h| h.net_discharge_mwh < -1e-6),
            "the fleet never charged"
        );
        for (j, &c) in s.final_charge_mwh.iter().enumerate() {
            assert!(
                c.is_finite() && (0.0..=default_fleet().capacity_mwh).contains(&c),
                "dc {j}: final charge {c} left the battery"
            );
        }
    }

    #[test]
    fn zero_capacity_fleet_reproduces_the_baseline_bit_for_bit() {
        let s = run(
            crate::DEFAULT_SEED,
            3,
            AdmgSettings::default(),
            StorageFleet::new(0.0, 1.0),
        )
        .unwrap();
        for h in &s.hours {
            assert!(h.bitwise && h.converged);
            assert_eq!(
                h.storage_ufc.to_bits(),
                h.baseline_ufc.to_bits(),
                "hour {}: zero-capacity UFC diverged from spatial-only",
                h.hour
            );
            assert_eq!(h.net_discharge_mwh.to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn csv_has_one_row_per_hour() {
        let s = study();
        assert_eq!(s.csv().len(), s.hours.len());
    }
}
