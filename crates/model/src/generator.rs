//! Seeded random instance generation for the differential fuzzer.
//!
//! [`arbitrary_params`] maps a 64-bit seed to a whole candidate instance —
//! sizes, utility/tariff shapes, storage/ramp data — deliberately including
//! the degenerate corners the solvers must survive: zero-demand front-ends,
//! zero-capacity datacenters, `p₀` below/above/crossing every grid price,
//! zero or constant latency rows and zero latency weight (near-singular
//! rank-one Hessians), and infeasible capacity totals. Roughly a tenth of
//! the seeds build *invalid* parameter sets on purpose: those must be
//! rejected by [`InstanceParams::build`] with the **same typed error every
//! time**, which the fuzzer cross-checks.
//!
//! Everything here is pure and deterministic: the same seed always produces
//! the same [`InstanceParams`], which is what lets a fuzz failure shrink to
//! a replayable corpus entry.

use crate::{EmissionCostFn, Result, StorageParams, UfcInstance};

/// SplitMix64 (Steele et al.) — a tiny, high-quality, dependency-free PRNG.
///
/// Deliberately duplicated from the trace substrate rather than shared: the
/// generator's stream must stay frozen so corpus seeds replay forever, even
/// if other crates later tune their RNGs.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed; equal seeds yield equal streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// The raw arguments of one candidate instance, *before* validation — the
/// fuzzer's unit of generation, shrinking, and corpus persistence.
///
/// Unlike [`UfcInstance`] this type enforces nothing, so it can represent
/// deliberately broken inputs; [`InstanceParams::build`] runs them through
/// the real validating constructors.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceParams {
    /// Per-front-end arrivals `A_i` (kilo-servers).
    pub arrivals: Vec<f64>,
    /// Per-datacenter capacities `S_j` (kilo-servers).
    pub capacities: Vec<f64>,
    /// Fixed power term `α_j` (MW).
    pub alpha: Vec<f64>,
    /// Load-proportional power `β_j` (MW per kilo-server).
    pub beta: Vec<f64>,
    /// Fuel-cell capacities `μ_j^max` (MW).
    pub mu_max: Vec<f64>,
    /// Grid prices `p_j` ($/MWh).
    pub grid_price: Vec<f64>,
    /// Fuel-cell price `p₀` ($/MWh).
    pub fuel_cell_price: f64,
    /// Carbon rates `C_j` (tons/MWh).
    pub carbon_t_per_mwh: Vec<f64>,
    /// Latency matrix `L_ij` (seconds), `M × N`.
    pub latency_s: Vec<Vec<f64>>,
    /// Latency weight `w` ($/s² per server).
    pub weight_per_server: f64,
    /// Emission-cost functions `V_j`.
    pub emission_cost: Vec<EmissionCostFn>,
    /// Slot length (hours).
    pub slot_hours: f64,
    /// Optional storage/ramp extension data.
    pub storage: Option<StorageParams>,
}

impl InstanceParams {
    /// Runs the parameters through the real validating constructors.
    ///
    /// # Errors
    ///
    /// Whatever [`UfcInstance::new`] or
    /// [`UfcInstance::with_storage`] reject — the fuzzer asserts these
    /// errors are deterministic and engine-independent.
    pub fn build(&self) -> Result<UfcInstance> {
        let inst = UfcInstance::new(
            self.arrivals.clone(),
            self.capacities.clone(),
            self.alpha.clone(),
            self.beta.clone(),
            self.mu_max.clone(),
            self.grid_price.clone(),
            self.fuel_cell_price,
            self.carbon_t_per_mwh.clone(),
            self.latency_s.clone(),
            self.weight_per_server,
            self.emission_cost.clone(),
            self.slot_hours,
        )?;
        match &self.storage {
            Some(sp) => inst.with_storage(sp.clone()),
            None => Ok(inst),
        }
    }
}

/// How the fuel-cell price relates to the grid prices — the tariff corner
/// the ROADMAP calls out (`p0` below, above, or crossing every grid price
/// flips which energy source each datacenter prefers).
fn draw_fuel_cell_price(rng: &mut SplitMix64, grid_price: &[f64]) -> f64 {
    let lo = grid_price.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = grid_price.iter().copied().fold(0.0f64, f64::max);
    match rng.below(3) {
        0 => rng.uniform(0.0, lo.max(1.0)), // below every grid price
        1 => rng.uniform(hi, hi + 60.0),    // above every grid price
        _ => rng.uniform(lo.min(hi), hi.max(lo)), // crossing the spread
    }
}

fn draw_emission_cost(rng: &mut SplitMix64) -> EmissionCostFn {
    match rng.below(3) {
        0 => EmissionCostFn::Linear {
            rate: rng.uniform(0.0, 60.0),
        },
        1 => EmissionCostFn::Quadratic {
            linear: rng.uniform(0.0, 30.0),
            quad: rng.uniform(0.0, 8.0),
        },
        _ => {
            let t1 = rng.uniform(0.05, 1.0);
            let t2 = t1 + rng.uniform(0.05, 1.0);
            let r1 = rng.uniform(0.0, 20.0);
            let r2 = r1 + rng.uniform(0.0, 20.0);
            let r3 = r2 + rng.uniform(0.0, 20.0);
            EmissionCostFn::Stepped {
                thresholds: vec![t1, t2],
                rates: vec![r1, r2, r3],
            }
        }
    }
}

fn draw_storage(rng: &mut SplitMix64, n: usize, mu_max: &[f64]) -> StorageParams {
    let mut capacity_mwh = Vec::with_capacity(n);
    let mut charge_mwh = Vec::with_capacity(n);
    let mut charge_rate_mw = Vec::with_capacity(n);
    let mut discharge_rate_mw = Vec::with_capacity(n);
    let mut value_per_mwh = Vec::with_capacity(n);
    let mut ramp_mw = Vec::with_capacity(n);
    let mut mu_prev_mw = Vec::with_capacity(n);
    for &cap_mu in mu_max.iter().take(n) {
        // A zero-capacity battery is a legal "no battery here" marker.
        let cap = if rng.chance(0.25) {
            0.0
        } else {
            rng.uniform(0.1, 2.0)
        };
        capacity_mwh.push(cap);
        charge_mwh.push(rng.uniform(0.0, 1.0) * cap);
        charge_rate_mw.push(rng.uniform(0.05, 1.0));
        discharge_rate_mw.push(rng.uniform(0.05, 1.0));
        value_per_mwh.push(rng.uniform(0.0, 100.0));
        ramp_mw.push(if rng.chance(0.5) {
            f64::INFINITY
        } else {
            rng.uniform(0.02, 0.5)
        });
        mu_prev_mw.push(rng.uniform(0.0, 1.0) * cap_mu);
    }
    StorageParams {
        capacity_mwh,
        charge_mwh,
        charge_rate_mw,
        discharge_rate_mw,
        value_per_mwh,
        degradation_per_mwh: rng.uniform(0.0, 3.0),
        ramp_mw,
        mu_prev_mw,
    }
}

/// Generates one candidate instance from a seed (pure and deterministic).
///
/// Degenerate corners are injected with fixed probabilities: zero-demand
/// front-ends (~20% of instances carry at least one), zero-capacity
/// datacenters (~8%, must be *rejected*), infeasible capacity totals (~5%,
/// rejected), zero/constant latency rows and zero latency weight
/// (near-singular Hessians), all three tariff shapes, and `p₀`
/// below/above/crossing the grid-price spread. ~30% of instances carry
/// the storage/ramp extension.
#[must_use]
pub fn arbitrary_params(seed: u64) -> InstanceParams {
    let mut rng = SplitMix64::new(seed);
    let m = 1 + rng.below(5);
    let n = 1 + rng.below(4);

    let mut arrivals: Vec<f64> = (0..m).map(|_| rng.uniform(0.2, 3.0)).collect();
    if rng.chance(0.2) {
        let i = rng.below(m);
        arrivals[i] = 0.0;
    }

    let alpha: Vec<f64> = (0..n).map(|_| rng.uniform(0.05, 0.5)).collect();
    let beta: Vec<f64> = (0..n).map(|_| rng.uniform(0.05, 0.3)).collect();

    // Capacities that cover total arrivals with headroom, then the two
    // rejection corners: a zero-capacity datacenter, or totals squeezed
    // below the arrivals (infeasible).
    let total_a: f64 = arrivals.iter().sum();
    let mut capacities: Vec<f64> = (0..n).map(|_| rng.uniform(0.3, 3.0)).collect();
    let total_s: f64 = capacities.iter().sum();
    if total_s < total_a {
        let scale = (total_a / total_s) * 1.2;
        for s in &mut capacities {
            *s *= scale;
        }
    }
    if rng.chance(0.08) {
        let j = rng.below(n);
        capacities[j] = 0.0;
    } else if rng.chance(0.05) && total_a > 0.0 {
        let total_s: f64 = capacities.iter().sum();
        let scale = 0.5 * total_a / total_s;
        for s in &mut capacities {
            *s *= scale;
        }
    }

    // Fuel cells: absent, partial, or covering peak demand (the §IV-A
    // assumption that makes the FuelCellOnly strategy feasible).
    let mu_max: Vec<f64> = (0..n)
        .map(|j| {
            let peak = alpha[j] + beta[j] * capacities[j];
            match rng.below(3) {
                0 => 0.0,
                1 => rng.uniform(0.0, peak),
                _ => peak * rng.uniform(1.0, 1.5),
            }
        })
        .collect();

    let grid_price: Vec<f64> = (0..n).map(|_| rng.uniform(20.0, 120.0)).collect();
    let fuel_cell_price = draw_fuel_cell_price(&mut rng, &grid_price);
    let carbon_t_per_mwh: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 1.0)).collect();

    // Latency rows, with the near-singular corners: a constant row makes
    // the rank-one disutility blind to routing; a zero row (or zero
    // weight) removes the utility curvature entirely.
    let latency_s: Vec<Vec<f64>> = (0..m)
        .map(|_| {
            if rng.chance(0.08) {
                vec![0.0; n]
            } else if rng.chance(0.08) {
                vec![rng.uniform(0.005, 0.08); n]
            } else {
                (0..n).map(|_| rng.uniform(0.001, 0.1)).collect()
            }
        })
        .collect();
    let weight_per_server = if rng.chance(0.07) {
        0.0
    } else {
        rng.uniform(1.0, 40.0)
    };

    let emission_cost: Vec<EmissionCostFn> = (0..n).map(|_| draw_emission_cost(&mut rng)).collect();
    let slot_hours = if rng.chance(0.8) {
        1.0
    } else {
        rng.uniform(0.25, 4.0)
    };

    let storage = if rng.chance(0.3) {
        Some(draw_storage(&mut rng, n, &mu_max))
    } else {
        None
    };

    InstanceParams {
        arrivals,
        capacities,
        alpha,
        beta,
        mu_max,
        grid_price,
        fuel_cell_price,
        carbon_t_per_mwh,
        latency_s,
        weight_per_server,
        emission_cost,
        slot_hours,
        storage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_stays_in_unit_interval() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..10_000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            assert_eq!(arbitrary_params(seed), arbitrary_params(seed));
        }
    }

    #[test]
    fn build_errors_are_deterministic() {
        for seed in 0..400u64 {
            let p = arbitrary_params(seed);
            match (p.build(), p.build()) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("seed {seed}: nondeterministic build {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn sweep_hits_the_degenerate_corners() {
        let (mut zero_demand, mut rejected, mut storage, mut stepped, mut below, mut above) =
            (0, 0, 0, 0, 0, 0);
        for seed in 0..600u64 {
            let p = arbitrary_params(seed);
            if p.arrivals.contains(&0.0) {
                zero_demand += 1;
            }
            if p.build().is_err() {
                rejected += 1;
            }
            if p.storage.is_some() {
                storage += 1;
            }
            if p.emission_cost
                .iter()
                .any(|v| matches!(v, EmissionCostFn::Stepped { .. }))
            {
                stepped += 1;
            }
            let lo = p.grid_price.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = p.grid_price.iter().copied().fold(0.0f64, f64::max);
            if p.fuel_cell_price < lo {
                below += 1;
            }
            if p.fuel_cell_price > hi {
                above += 1;
            }
        }
        for (name, count) in [
            ("zero-demand front-ends", zero_demand),
            ("rejected instances", rejected),
            ("storage instances", storage),
            ("stepped tariffs", stepped),
            ("p0 below all grid prices", below),
            ("p0 above all grid prices", above),
        ] {
            assert!(count > 10, "only {count} of 600 seeds hit: {name}");
        }
    }

    #[test]
    fn most_instances_are_valid() {
        let ok = (0..300u64)
            .filter(|&s| arbitrary_params(s).build().is_ok())
            .count();
        assert!(ok > 200, "only {ok}/300 seeds built valid instances");
    }
}
