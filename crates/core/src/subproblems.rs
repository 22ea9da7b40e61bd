//! The five procedures of the ADM-G prediction (ADMM) step — §III-C of the
//! paper, Eqs. (17)–(20) plus the dual updates.
//!
//! Each function computes one block's *predicted* iterate (the tilde
//! quantities) exactly as the corresponding sub-problem prescribes:
//!
//! | step | owner | problem | method |
//! |------|-------|---------|--------|
//! | [`lambda_step`] | each front-end `i` | QP over the load-balance simplex (17) | active-set (exact) |
//! | [`mu_step`] | each datacenter `j` | 1-variable box QP (18) | closed form |
//! | [`nu_step`] | each datacenter `j` | 1-variable convex problem (19) | closed form (affine/quadratic `V`) or derivative bisection |
//! | [`storage_step`] | each datacenter `j` | 1-variable box QP (storage extension) | closed form |
//! | [`a_step`] | each datacenter `j` | QP over the capped simplex (20) | active-set (exact); backtracking FISTA with the congestion barrier |
//! | [`dual_step`] | both sides | gradient ascent on the two coupling rows | closed form |
//!
//! The "block activity" flags implement the paper's strategy restrictions:
//! `GridOnly` clamps `μ ≡ 0` (via `μ_max = 0`), `FuelCellOnly` pins `ν ≡ 0`
//! and drops the ν block from the iteration, which keeps the remaining
//! blocks a valid (3-block) ADM-G instance.

use ufc_linalg::Matrix;
use ufc_model::{utility::disutility_rank1_gamma, EmissionCostFn, QueueingCost, UfcInstance};
use ufc_opt::projection::project_capped_simplex;
use ufc_opt::{scalar, ActiveSetQp, Fista, QuadObjective, SmoothObjective};

use crate::{AdmgState, CoreError, Result};

/// Iteration cap of the congested reference a-step's inner FISTA solve
/// (the exact kernel, `crate::AColQp`, is what the engines run).
const FISTA_MAX_ITER: usize = 50_000;
/// The congestion barrier's curvature makes ultra-tight inner tolerances
/// disproportionately expensive; 1e-8 keeps the inner error two orders below
/// the outer stopping rule.
const FISTA_CONGESTED_TOL: f64 = 1e-8;

/// λ-minimization (17): each front-end solves a simplex-constrained QP with
/// Hessian `ρI + (2w/A_i)·L_i L_iᵀ` and linear term `φ_ij − ρ a_ij`.
///
/// Returns the predicted routing `λ̃` as an `M × N` flat.
///
/// # Errors
///
/// Returns [`CoreError::Subproblem`] if a front-end's QP fails.
pub fn lambda_step(instance: &UfcInstance, rho: f64, state: &AdmgState) -> Result<Vec<f64>> {
    let (m, n) = (state.m, state.n);
    let w = instance.weight_per_kserver();
    let mut lambda_tilde = vec![0.0; m * n];
    // The constraint data is identical for every front-end and the Hessian
    // diagonal is always ρI — build them once and retarget the objective's
    // rank-one latency term and linear term per block, borrowing the latency
    // row instead of cloning it.
    let a_eq = Matrix::from_fn(1, n, |_, _| 1.0);
    let a_in = Matrix::from_fn(n, n, |r, cidx| if r == cidx { -1.0 } else { 0.0 });
    let b_in = vec![0.0; n];
    let mut c = vec![0.0; n];
    let mut objective =
        QuadObjective::diag_rank1(vec![rho; n], 0.0, vec![0.0; n], vec![0.0; n], 0.0);
    // One start buffer recycled across blocks: each solve consumes it and
    // its solution vector becomes the next block's start storage.
    let mut start_buf: Vec<f64> = Vec::new();
    for i in 0..m {
        let arrival = instance.arrivals[i];
        if arrival == 0.0 {
            // Zero-demand front-end: the simplex of radius 0 is the
            // singleton {0}; the row is already zero. Skipping the QP keeps
            // this path bit-identical to the workspace/node short-circuit.
            continue;
        }
        let gamma = disutility_rank1_gamma(w, arrival);
        objective.set_rank1(gamma, &instance.latency_s[i]);
        for (j, cj) in c.iter_mut().enumerate() {
            *cj = state.varphi[state.idx(i, j)] - rho * state.a[state.idx(i, j)];
        }
        objective.set_linear(&c);
        let mut start = std::mem::take(&mut start_buf);
        start.clear();
        start.resize(n, arrival / n as f64);
        let row = ActiveSetQp::default()
            .solve(&objective, &a_eq, &[arrival], &a_in, &b_in, start)
            .map_err(|e| CoreError::subproblem(format!("lambda[{i}]"), e))?
            .x;
        lambda_tilde[i * n..(i + 1) * n].copy_from_slice(&row);
        start_buf = row;
    }
    Ok(lambda_tilde)
}

/// Closed-form μ-minimization for a single datacenter, parameterized on raw
/// scalars: `μ̃ = clamp(demand − ν − (φ + fuel_cost_h)/ρ, 0, μ_max)` where
/// `fuel_cost_h = h·p₀` is the per-slot fuel-cell price.
///
/// This is the single definition shared by [`mu_step`], the solver's fused
/// datacenter phase, and the distributed datacenter node — their iterates
/// must match bit-for-bit.
#[must_use]
pub fn mu_scalar_step(
    demand: f64,
    nu: f64,
    phi: f64,
    fuel_cost_h: f64,
    rho: f64,
    mu_max: f64,
) -> f64 {
    mu_scalar_step_bounded(demand, nu, phi, fuel_cost_h, rho, 0.0, mu_max)
}

/// [`mu_scalar_step`] over an arbitrary box `[μ_lo, μ_hi]` — the ramp-limit
/// generalization used by the storage block. With `(0, μ_max)` this is the
/// exact same computation as the unbounded-ramp step (the classic schedule's
/// degenerate case).
#[must_use]
pub fn mu_scalar_step_bounded(
    demand: f64,
    nu: f64,
    phi: f64,
    fuel_cost_h: f64,
    rho: f64,
    mu_lo: f64,
    mu_hi: f64,
) -> f64 {
    scalar::prox_linear_quadratic(demand - nu, phi + fuel_cost_h, rho, mu_lo, mu_hi)
}

/// Closed-form storage (battery net-discharge) minimization for a single
/// datacenter, parameterized on raw scalars: the block minimizes
/// `γh·d² + κh·d + φ·d + ρ/2 (d − r)²` over the box `[d_lo, d_hi]`, where
/// `r = demand − μ̃ − ν̃` is the balance residual left by the earlier blocks,
/// `value_cost_h = κ·h` prices drained stored energy, and
/// `degradation_h = γ·h` is the per-slot wear coefficient. Stationarity
/// gives `d̃ = clamp((ρ·r − (φ + κh)) / (ρ + 2γh), d_lo, d_hi)`.
///
/// Shared by [`storage_step`], the solver's fused datacenter phase, and the
/// distributed datacenter node — their iterates must match bit-for-bit.
/// (Deliberately *not* routed through `prox_linear_quadratic`: its
/// `d − s/ρ` form is algebraically equal but not bitwise equal to this
/// closed form once the quadratic term enters the denominator.)
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn storage_scalar_step(
    demand: f64,
    mu_tilde: f64,
    nu_tilde: f64,
    phi: f64,
    value_cost_h: f64,
    degradation_h: f64,
    rho: f64,
    d_lo: f64,
    d_hi: f64,
) -> f64 {
    let r = demand - mu_tilde - nu_tilde;
    ((rho * r - (phi + value_cost_h)) / (rho + 2.0 * degradation_h)).clamp(d_lo, d_hi)
}

/// Closed-form / bisection ν-minimization for a single datacenter,
/// parameterized on raw scalars: `grid_cost_h = h·p_j` and
/// `carbon_h = C_j·h`. Shared by [`nu_step`], the solver's fused datacenter
/// phase, and the distributed datacenter node (bit-for-bit).
#[must_use]
pub fn nu_scalar_step(
    demand: f64,
    mu_tilde: f64,
    phi: f64,
    grid_cost_h: f64,
    carbon_h: f64,
    emission: &EmissionCostFn,
    rho: f64,
) -> f64 {
    let d = demand - mu_tilde;
    let ch = carbon_h;
    let base = grid_cost_h + phi;
    match emission {
        EmissionCostFn::Linear { rate } => {
            scalar::prox_linear_quadratic(d, base + rate * ch, rho, 0.0, f64::INFINITY)
        }
        EmissionCostFn::Quadratic { linear, quad } => {
            // Stationarity: l·ch + 2q·ch²·ν + base + ρ(ν − d) = 0.
            let nu = (rho * d - linear * ch - base) / (rho + 2.0 * quad * ch * ch);
            nu.max(0.0)
        }
        stepped @ EmissionCostFn::Stepped { .. } => {
            let df = |nu: f64| ch * stepped.marginal(ch * nu) + base + rho * (nu - d);
            // Expand the bracket until the derivative turns positive.
            let mut hi = (2.0 * d.abs()).max(1.0);
            for _ in 0..120 {
                if df(hi) > 0.0 {
                    break;
                }
                hi *= 2.0;
            }
            scalar::bisect_derivative(df, 0.0, hi, 1e-12 * (1.0 + hi))
        }
    }
}

/// μ-minimization (18): the closed-form clamp
/// `μ̃_j = clamp(α_j + β_j Σ_i a_ij − ν_j − (φ_j + h·p₀)/ρ, 0, μ_j^max)`.
///
/// With `active = false` (the *Grid* strategy) the block is pinned at zero.
#[must_use]
pub fn mu_step(instance: &UfcInstance, rho: f64, state: &AdmgState, active: bool) -> Vec<f64> {
    if !active {
        return vec![0.0; state.n];
    }
    let h = instance.slot_hours;
    let loads = state.a_loads();
    (0..state.n)
        .map(|j| {
            let (mu_lo, mu_hi) = match &instance.storage {
                Some(sp) => sp.mu_bounds(j, instance.mu_max[j]),
                None => (0.0, instance.mu_max[j]),
            };
            mu_scalar_step_bounded(
                instance.demand_mw(j, loads[j]) - state.d[j],
                state.nu[j],
                state.phi[j],
                h * instance.fuel_cell_price,
                rho,
                mu_lo,
                mu_hi,
            )
        })
        .collect()
}

/// ν-minimization (19): each datacenter minimizes
/// `V_j(C_j·h·ν) + (h·p_j + φ_j)ν + ρ/2(α_j + β_jΣa − μ̃_j − ν)²` over
/// `ν ≥ 0`; closed-form for affine and quadratic `V_j`, derivative
/// bisection for stepped tariffs.
///
/// With `active = false` (the *Fuel cell* strategy) the block is pinned at
/// zero.
#[must_use]
pub fn nu_step(
    instance: &UfcInstance,
    rho: f64,
    state: &AdmgState,
    mu_tilde: &[f64],
    active: bool,
) -> Vec<f64> {
    if !active {
        return vec![0.0; state.n];
    }
    let h = instance.slot_hours;
    let loads = state.a_loads();
    (0..state.n)
        .map(|j| {
            nu_scalar_step(
                instance.demand_mw(j, loads[j]) - state.d[j],
                mu_tilde[j],
                state.phi[j],
                h * instance.grid_price[j],
                instance.carbon_t_per_mwh[j] * h,
                &instance.emission_cost[j],
                rho,
            )
        })
        .collect()
}

/// Storage (battery) minimization — the 5th block of the extended
/// schedule: each datacenter with a battery solves the 1-variable box QP
/// of [`storage_scalar_step`] against the balance residual left by `μ̃`
/// and `ν̃` over the *full* demand (the block replaces, not adjusts, the
/// previous iterate's `d`). Datacenters without a battery — and every
/// datacenter on spatial-only instances — are pinned at exactly `+0.0`.
#[must_use]
pub fn storage_step(
    instance: &UfcInstance,
    rho: f64,
    state: &AdmgState,
    mu_tilde: &[f64],
    nu_tilde: &[f64],
) -> Vec<f64> {
    let Some(sp) = &instance.storage else {
        return vec![0.0; state.n];
    };
    let h = instance.slot_hours;
    let loads = state.a_loads();
    (0..state.n)
        .map(|j| {
            if !sp.active(j) {
                return 0.0;
            }
            let (d_lo, d_hi) = sp.discharge_bounds(j, h);
            storage_scalar_step(
                instance.demand_mw(j, loads[j]),
                mu_tilde[j],
                nu_tilde[j],
                state.phi[j],
                sp.value_per_mwh[j] * h,
                sp.degradation_per_mwh * h,
                rho,
                d_lo,
                d_hi,
            )
        })
        .collect()
}

/// The a-sub-problem objective with the optional congestion barrier
/// (extension): quadratic part of (20) plus `Q_j(Σ_i a_ij)`.
#[derive(Debug, Clone)]
pub struct CongestedAStep {
    quad: QuadObjective,
    queueing: QueueingCost,
    capacity: f64,
}

impl CongestedAStep {
    /// Assembles the congested a-step objective for one datacenter.
    #[must_use]
    pub fn new(quad: QuadObjective, queueing: QueueingCost, capacity: f64) -> Self {
        CongestedAStep {
            quad,
            queueing,
            capacity,
        }
    }
}

impl SmoothObjective for CongestedAStep {
    fn dim(&self) -> usize {
        self.quad.dim()
    }

    fn value(&self, x: &[f64]) -> f64 {
        let load: f64 = x.iter().sum();
        self.quad.value(x) + self.queueing.value(load.max(0.0), self.capacity)
    }

    fn gradient(&self, x: &[f64]) -> Vec<f64> {
        let load: f64 = x.iter().sum();
        let dq = self.queueing.derivative(load.max(0.0), self.capacity);
        let mut g = self.quad.gradient(x);
        for gi in &mut g {
            *gi += dq;
        }
        g
    }

    fn lipschitz_bound(&self) -> f64 {
        // Curvature of Q(Σx) is unbounded near the ceiling; start from the
        // quadratic part's bound and let backtracking find the rest.
        SmoothObjective::lipschitz_bound(&self.quad)
    }
}

/// a-minimization (20): each datacenter solves a QP with Hessian
/// `ρ(I + β_j²·1 1ᵀ)` over `{a ≥ 0, Σ_i a_ij ≤ S_j}`. With the queueing
/// extension enabled the objective gains the convex congestion barrier and
/// is solved by backtracking FISTA instead: the reference the exact
/// congested kernel (`crate::AColQp`) is tested against.
///
/// Returns the predicted auxiliary routing `ã` as an `M × N` flat.
///
/// # Errors
///
/// Returns [`CoreError::Subproblem`] if a datacenter's QP fails.
#[allow(clippy::too_many_arguments)]
pub fn a_step(
    instance: &UfcInstance,
    rho: f64,
    state: &AdmgState,
    lambda_tilde: &[f64],
    mu_tilde: &[f64],
    nu_tilde: &[f64],
    d_tilde: &[f64],
) -> Result<Vec<f64>> {
    let (m, n) = (state.m, state.n);
    let mut a_tilde = vec![0.0; m * n];
    // Constraint rows (−a_i ≤ 0 for each i, then Σ_i a_i ≤ S_j) and the
    // objective buffers are shared across datacenters; only the cap entry,
    // the rank-one coefficient and the linear term are retargeted per block.
    let a_eq = Matrix::zeros(0, m);
    let mut a_in = Matrix::zeros(m + 1, m);
    let mut b_in = vec![0.0; m + 1];
    for i in 0..m {
        a_in[(i, i)] = -1.0;
        a_in[(m, i)] = 1.0;
    }
    let ones = vec![1.0; m];
    let mut c = vec![0.0; m];
    let mut objective =
        QuadObjective::diag_rank1(vec![rho; m], 0.0, ones.clone(), vec![0.0; m], 0.0);
    // One start buffer recycled across columns (see `lambda_step`).
    let mut start_buf: Vec<f64> = Vec::new();
    for j in 0..n {
        let beta = instance.beta[j];
        let drift = instance.alpha[j] - mu_tilde[j] - nu_tilde[j] - d_tilde[j];
        for i in 0..m {
            c[i] = -rho * lambda_tilde[state.idx(i, j)]
                - state.varphi[state.idx(i, j)]
                - state.phi[j] * beta
                + rho * beta * drift;
        }
        objective.set_rank1(rho * beta * beta, &ones);
        objective.set_linear(&c);
        let cap = instance.capacities[j];
        if let Some(q) = &instance.queueing {
            // Congested path: barrier objective over the shrunk cap.
            let congested = CongestedAStep {
                quad: objective.clone(),
                queueing: *q,
                capacity: cap,
            };
            let cap_q = q.load_cap(cap).min(cap);
            let mut start = std::mem::take(&mut start_buf);
            start.clear();
            start.resize(m, 0.0);
            let col = Fista::new(FISTA_MAX_ITER, FISTA_CONGESTED_TOL)
                .minimize_adaptive(&congested, |x| project_capped_simplex(x, cap_q), start)
                .map_err(|e| CoreError::subproblem(format!("a[{j}] (congested)"), e))?
                .x;
            for i in 0..m {
                a_tilde[state.idx(i, j)] = col[i];
            }
            start_buf = col;
            continue;
        }
        let mut start = std::mem::take(&mut start_buf);
        start.clear();
        start.resize(m, 0.0);
        b_in[m] = cap;
        let col = ActiveSetQp::default()
            .solve(&objective, &a_eq, &[], &a_in, &b_in, start)
            .map_err(|e| CoreError::subproblem(format!("a[{j}]"), e))?
            .x;
        for i in 0..m {
            a_tilde[state.idx(i, j)] = col[i];
        }
        start_buf = col;
    }
    Ok(a_tilde)
}

/// Dual updates (step 1.5): gradient ascent on the two coupling rows,
/// `φ̃_j = φ_j − ρ(α_j + β_jΣ_i ã_ij − μ̃_j − ν̃_j − d̃_j)` at each
/// datacenter and `φ̃_ij = φ_ij − ρ(ã_ij − λ̃_ij)` at each front-end.
///
/// Returns `(φ̃, φ̃_ij)`.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn dual_step(
    instance: &UfcInstance,
    rho: f64,
    state: &AdmgState,
    lambda_tilde: &[f64],
    mu_tilde: &[f64],
    nu_tilde: &[f64],
    d_tilde: &[f64],
    a_tilde: &[f64],
) -> (Vec<f64>, Vec<f64>) {
    let (m, n) = (state.m, state.n);
    let mut a_loads = vec![0.0; n];
    for i in 0..m {
        for j in 0..n {
            a_loads[j] += a_tilde[state.idx(i, j)];
        }
    }
    let phi_tilde: Vec<f64> = (0..n)
        .map(|j| {
            state.phi[j]
                - rho * (instance.demand_mw(j, a_loads[j]) - mu_tilde[j] - nu_tilde[j] - d_tilde[j])
        })
        .collect();
    let varphi_tilde: Vec<f64> = (0..m * n)
        .map(|k| state.varphi[k] - rho * (a_tilde[k] - lambda_tilde[k]))
        .collect();
    (phi_tilde, varphi_tilde)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufc_model::EmissionCostFn;

    fn tiny() -> UfcInstance {
        UfcInstance::new(
            vec![1.0, 2.0],
            vec![2.0, 2.0],
            vec![0.24, 0.24],
            vec![0.12, 0.12],
            vec![0.48, 0.48],
            vec![30.0, 70.0],
            80.0,
            vec![0.5, 0.3],
            vec![vec![0.01, 0.02], vec![0.02, 0.01]],
            10.0,
            vec![
                EmissionCostFn::linear(25.0).unwrap(),
                EmissionCostFn::linear(25.0).unwrap(),
            ],
            1.0,
        )
        .unwrap()
    }

    #[test]
    fn lambda_step_satisfies_load_balance() {
        let inst = tiny();
        let state = AdmgState::zeros(&inst);
        let lt = lambda_step(&inst, 0.3, &state).unwrap();
        // Row sums equal arrivals; entries nonnegative.
        assert!((lt[0] + lt[1] - 1.0).abs() < 1e-7);
        assert!((lt[2] + lt[3] - 2.0).abs() < 1e-7);
        assert!(lt.iter().all(|&v| v >= -1e-9));
    }

    #[test]
    fn lambda_step_prefers_nearby_datacenter_without_penalty_terms() {
        // With a = λ's attractor at zero and no duals, the only pull apart
        // from ρ‖λ‖² is the latency disutility ⇒ prefer the closer DC.
        let inst = tiny();
        let state = AdmgState::zeros(&inst);
        let lt = lambda_step(&inst, 1e-6, &state).unwrap();
        // FE0 is closer to DC0 (10 ms vs 20 ms) but the quadratic utility
        // spreads load; still the closer DC gets at least half.
        assert!(lt[0] >= 0.5, "lt = {lt:?}");
        // FE1 is closer to DC1.
        assert!(lt[3] >= 1.0, "lt = {lt:?}");
    }

    #[test]
    fn mu_step_clamps_to_capacity_and_zero() {
        let inst = tiny();
        let mut state = AdmgState::zeros(&inst);
        state.a = vec![1.0, 0.0, 1.0, 0.0]; // load 2.0 at DC0 ⇒ demand 0.48
                                            // Strong negative dual pushes μ to its cap.
        state.phi = vec![-1e3, 0.0];
        let mu = mu_step(&inst, 0.3, &state, true);
        assert!((mu[0] - 0.48).abs() < 1e-12);
        // Strong positive dual pushes μ to zero.
        state.phi = vec![1e3, 1e3];
        let mu = mu_step(&inst, 0.3, &state, true);
        assert_eq!(mu, vec![0.0, 0.0]);
        // Inactive block pinned at zero.
        assert_eq!(mu_step(&inst, 0.3, &state, false), vec![0.0, 0.0]);
    }

    #[test]
    fn mu_step_interior_value() {
        let inst = tiny();
        let mut state = AdmgState::zeros(&inst);
        state.a = vec![1.0, 0.0, 1.0, 0.0]; // demand 0.48 MW at DC0
        state.nu = vec![0.1, 0.0];
        state.phi = vec![-80.3, 0.0]; // (φ + p0)/ρ = (−80.3 + 80)/0.3 = −1
        let mu = mu_step(&inst, 0.3, &state, true);
        // d = 0.48 − 0.1 = 0.38; μ = clamp(0.38 + 1, 0, 0.48) = 0.48.
        assert!((mu[0] - 0.48).abs() < 1e-9);
    }

    #[test]
    fn nu_step_linear_tax_closed_form() {
        let inst = tiny();
        let mut state = AdmgState::zeros(&inst);
        state.a = vec![1.0, 0.0, 1.0, 0.0]; // demand at DC0: 0.48 MW
        let mu_tilde = vec![0.0, 0.0];
        let nu = nu_step(&inst, 0.3, &state, &mu_tilde, true);
        // d = 0.48; cost slope = p + r·C = 30 + 12.5 = 42.5 ⇒ ν = max(0, 0.48 − 42.5/0.3) = 0.
        assert_eq!(nu[0], 0.0);
        // With a dual that offsets the price, ν moves into the interior.
        state.phi = vec![-42.35, 0.0]; // slope = 0.15 ⇒ ν = 0.48 − 0.5 = interior... still −0.02 ⇒ 0
        let nu = nu_step(&inst, 0.3, &state, &mu_tilde, true);
        assert!((nu[0] - (0.48f64 - 0.15 / 0.3).max(0.0)).abs() < 1e-9);
        // Inactive (fuel-cell-only) pins to zero.
        assert_eq!(
            nu_step(&inst, 0.3, &state, &mu_tilde, false),
            vec![0.0, 0.0]
        );
    }

    #[test]
    fn nu_step_quadratic_and_stepped_match_bisection_of_linear_case() {
        // With a quadratic V whose quad term is 0 and a stepped V with equal
        // rates, all three paths must produce the linear-tax answer.
        let mut inst = tiny();
        let mut state = AdmgState::zeros(&inst);
        state.a = vec![1.0, 0.0, 1.0, 0.0];
        state.phi = vec![-45.0, -45.0];
        let mu_tilde = vec![0.0, 0.0];

        inst.emission_cost = vec![
            EmissionCostFn::linear(25.0).unwrap(),
            EmissionCostFn::linear(25.0).unwrap(),
        ];
        let linear = nu_step(&inst, 0.3, &state, &mu_tilde, true);

        inst.emission_cost = vec![
            EmissionCostFn::quadratic(25.0, 0.0).unwrap(),
            EmissionCostFn::quadratic(25.0, 0.0).unwrap(),
        ];
        let quad = nu_step(&inst, 0.3, &state, &mu_tilde, true);

        inst.emission_cost = vec![
            EmissionCostFn::stepped(vec![1.0], vec![25.0, 25.0]).unwrap(),
            EmissionCostFn::stepped(vec![1.0], vec![25.0, 25.0]).unwrap(),
        ];
        let stepped = nu_step(&inst, 0.3, &state, &mu_tilde, true);

        for j in 0..2 {
            assert!((linear[j] - quad[j]).abs() < 1e-9, "quad path diverges");
            assert!(
                (linear[j] - stepped[j]).abs() < 1e-6,
                "stepped path diverges: {} vs {}",
                linear[j],
                stepped[j]
            );
        }
    }

    #[test]
    fn a_step_respects_capacity_and_sign() {
        let inst = tiny();
        let mut state = AdmgState::zeros(&inst);
        state.varphi = vec![5.0, 5.0, 5.0, 5.0]; // strong pull towards a > 0
        let lambda_tilde = vec![2.0, 2.0, 2.0, 2.0];
        let a = a_step(
            &inst,
            0.3,
            &state,
            &lambda_tilde,
            &[0.0, 0.0],
            &[0.0, 0.0],
            &[0.0, 0.0],
        )
        .unwrap();
        for j in 0..2 {
            let load: f64 = (0..2).map(|i| a[state.idx(i, j)]).sum();
            assert!(load <= inst.capacities[j] + 1e-7, "capacity violated");
        }
        assert!(a.iter().all(|&v| v >= -1e-9));
    }

    #[test]
    fn mu_scalar_step_bounded_reduces_to_plain_box() {
        // The classic path's exact arguments: bounds (0, mu_max).
        let plain = mu_scalar_step(0.48, 0.1, -80.3, 80.0, 0.3, 0.48);
        let bounded = mu_scalar_step_bounded(0.48, 0.1, -80.3, 80.0, 0.3, 0.0, 0.48);
        assert_eq!(plain.to_bits(), bounded.to_bits());
        // A tighter box actually binds.
        let ramped = mu_scalar_step_bounded(0.48, 0.1, -80.3, 80.0, 0.3, 0.0, 0.2);
        assert_eq!(ramped, 0.2);
    }

    #[test]
    fn storage_scalar_step_charges_when_value_exceeds_pressure() {
        // Balanced residual (r = 0), no dual: the κ term alone pulls the
        // battery toward charging, clamped at the converter rate.
        let d = storage_scalar_step(0.42, 0.42, 0.0, 0.0, 40.0, 0.1, 0.3, -0.5, 0.5);
        assert_eq!(d, -0.5);
        // A strongly negative dual (power shortage) pushes discharge.
        let d = storage_scalar_step(0.42, 0.0, 0.0, -100.0, 40.0, 0.1, 0.3, -0.5, 0.5);
        assert_eq!(d, 0.5);
        // Interior stationary point: r = 0.42, κh = 0, γh = 0.1, ρ = 0.3
        // ⇒ d = 0.3·0.42/0.5 = 0.252.
        let d = storage_scalar_step(0.42, 0.0, 0.0, 0.0, 0.0, 0.1, 0.3, -0.5, 0.5);
        assert!((d - 0.252).abs() < 1e-12);
    }

    #[test]
    fn storage_step_pins_inactive_datacenters_to_positive_zero() {
        let inst = tiny();
        let state = AdmgState::zeros(&inst);
        // No storage on the instance at all.
        let d = storage_step(&inst, 0.3, &state, &[0.0, 0.0], &[0.0, 0.0]);
        assert_eq!(d, vec![0.0, 0.0]);
        assert!(d.iter().all(|v| v.to_bits() == 0.0f64.to_bits()));
        // Storage present but DC1's battery has zero capacity.
        let mut params = ufc_model::StorageFleet::new(1.0, 0.4)
            .initial_charge_frac(0.5)
            .initial_params(2);
        params.capacity_mwh[1] = 0.0;
        params.charge_mwh[1] = 0.0;
        let inst = inst.with_storage(params).unwrap();
        let mut state = AdmgState::zeros(&inst);
        state.a = vec![1.0, 1.0, 1.0, 1.0];
        state.phi = vec![-100.0, -100.0];
        let d = storage_step(&inst, 0.3, &state, &[0.0, 0.0], &[0.0, 0.0]);
        assert!(d[0] > 0.0, "active battery should discharge, got {}", d[0]);
        assert_eq!(d[1].to_bits(), 0.0f64.to_bits(), "inactive must be +0.0");
    }

    #[test]
    fn dual_step_signs() {
        let inst = tiny();
        let state = AdmgState::zeros(&inst);
        let lambda_tilde = vec![0.5, 0.5, 1.0, 1.0];
        let a_tilde = vec![0.5, 0.5, 1.0, 1.0];
        // Perfect balance: μ̃ + ν̃ = demand ⇒ φ̃ = φ.
        let mu_tilde = vec![0.42, 0.0];
        let nu_tilde = vec![0.0, 0.42];
        let (phi_t, varphi_t) = dual_step(
            &inst,
            0.3,
            &state,
            &lambda_tilde,
            &mu_tilde,
            &nu_tilde,
            &[0.0, 0.0],
            &a_tilde,
        );
        assert!(phi_t.iter().all(|&v| v.abs() < 1e-12));
        assert!(varphi_t.iter().all(|&v| v.abs() < 1e-12));
        // Underprovision at DC0 by 0.1 MW ⇒ φ̃ = 0 − ρ·(0.1) = −0.03.
        let mu_short = vec![0.32, 0.0];
        let (phi_t, _) = dual_step(
            &inst,
            0.3,
            &state,
            &lambda_tilde,
            &mu_short,
            &nu_tilde,
            &[0.0, 0.0],
            &a_tilde,
        );
        assert!((phi_t[0] + 0.03).abs() < 1e-12);
        // a > λ at one entry ⇒ varphi decreases there.
        let a_big = vec![0.7, 0.5, 1.0, 1.0];
        let (_, varphi_t) = dual_step(
            &inst,
            0.3,
            &state,
            &lambda_tilde,
            &mu_tilde,
            &nu_tilde,
            &[0.0, 0.0],
            &a_big,
        );
        assert!((varphi_t[0] + 0.3 * 0.2).abs() < 1e-12);
    }
}
