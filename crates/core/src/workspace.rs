//! Persistent per-block solver workspaces for the ADM-G hot path.
//!
//! Across ADM-G iterations every sub-problem QP keeps the *same* Hessian and
//! constraints — only the linear term (built from the current duals and
//! iterates) moves. The λ-QP of front-end `i` always has Hessian
//! `ρI + (2w/A_i)·L_i L_iᵀ` over the simplex `{λ ≥ 0, Σλ = A_i}`, and the
//! a-QP of datacenter `j` always has `ρ(I + β_j²·1 1ᵀ)` over the capped
//! simplex. [`LambdaQp`] and [`AColQp`] exploit that: each owns its block's
//! objective and constraint matrices once and warm-starts from the previous
//! iterate. By default ([`QpOptions`]) each working-set KKT system is solved
//! in `O(n)` by Sherman–Morrison from the diagonal-plus-rank-one Hessian;
//! working sets outside that shape, and the dense kernel, go through a
//! [`KktCache`] of LDLᵀ factorizations keyed by working set, so steady-state
//! iterations never re-assemble and re-factor a KKT system.
//!
//! # Cache and warm-start invariants
//!
//! * A kernel is valid for one `(instance row/column, ρ)` pair —
//!   its cache keys assume a fixed Hessian and constraint set. Changing ρ or
//!   retargeting to a different block requires building a new kernel. A
//!   workspace **may** be reused across strategy restrictions on the same
//!   instance/settings: the strategy flags only gate the scalar μ/ν steps
//!   and never touch a block Hessian or constraint, so cached factors stay
//!   valid (and, the cache being pure memoization, results stay
//!   bit-identical to fresh-workspace solves — `solve_all_strategies` relies
//!   on this).
//! * The cache is a pure memoization: cached solves are **bit-identical** to
//!   fresh ones (asserted by tests in `ufc-opt`), so it never perturbs the
//!   iterate trajectory.
//! * Warm starts use a deterministic feasibility gate: the previous iterate
//!   is used as the QP start only when it satisfies the block's constraints
//!   to tight tolerance, otherwise the kernel falls back to the classic cold
//!   start (uniform for λ, zero for a). The gate depends only on the iterate
//!   values, never on timing or thread count, preserving determinism.

use ufc_linalg::Matrix;
use ufc_model::{utility::disutility_rank1_gamma, QueueingCost, UfcInstance};
use ufc_opt::projection::project_capped_simplex;
use ufc_opt::{ActiveSetQp, Fista, KktCache, QuadObjective};

use crate::pool::WorkerPool;
use crate::subproblems::{
    mu_scalar_step_bounded, nu_scalar_step, storage_scalar_step, CongestedAStep,
    FISTA_CONGESTED_TOL, FISTA_MAX_ITER,
};
use crate::telemetry::SolverCounters;
use crate::{AdmgSettings, AdmgState, CoreError, Result};

/// Entry tolerance for accepting a previous iterate as a warm start:
/// component-wise nonnegativity slack.
const WARM_NONNEG_TOL: f64 = 1e-9;
/// Relative tolerance on the coupling row (Σλ = A_i, Σa ≤ S_j) for warm
/// starts; tighter than the active-set solver's own feasibility check so an
/// accepted warm start is never rejected downstream.
const WARM_ROW_TOL: f64 = 1e-7;
/// Entries of an accepted warm start at or below this value are snapped to
/// exactly zero and their nonnegativity rows seed the active-set working
/// set — the solver then starts on the previous iterate's support instead
/// of re-discovering it one blocking constraint per KKT solve.
const WARM_SNAP_TOL: f64 = 1e-10;

/// Snaps near-zero warm-start entries to exact zeros and fills `seed` with
/// the seeded working-set rows (the snapped indices). An all-zero result
/// clears the seed: a zero iterate carries no support information and
/// coincides with the classic cold start, which must stay bit-identical to
/// the unseeded reference path. Writes into a caller-owned buffer so the
/// steady-state hot path allocates nothing per solve.
fn snap_support_into(x: &mut [f64], seed: &mut Vec<usize>) {
    seed.clear();
    for (i, xi) in x.iter_mut().enumerate() {
        if *xi <= WARM_SNAP_TOL {
            *xi = 0.0;
            seed.push(i);
        }
    }
    if seed.len() == x.len() {
        seed.clear();
    }
}

/// Which acceleration paths a block kernel engages — the per-kernel
/// projection of [`AdmgSettings`]. The default follows
/// [`AdmgSettings::default`] (both on); the bit-identity contract of each
/// knob is documented on the corresponding settings field.
#[derive(Debug, Clone, Copy)]
pub struct QpOptions {
    /// Solve structured KKT systems in `O(n)` via Sherman–Morrison
    /// ([`AdmgSettings::rank1_kkt`]; tolerance-equal, **not** bitwise).
    pub rank1_kkt: bool,
    /// Factor dense KKT systems with the blocked LDLᵀ kernel
    /// ([`AdmgSettings::blocked_factorizations`]; bit-identical).
    pub blocked_factorizations: bool,
}

impl Default for QpOptions {
    fn default() -> Self {
        QpOptions::from_settings(&AdmgSettings::default())
    }
}

impl QpOptions {
    /// Extracts the kernel options from solver settings.
    #[must_use]
    pub fn from_settings(settings: &AdmgSettings) -> Self {
        QpOptions {
            rank1_kkt: settings.rank1_kkt,
            blocked_factorizations: settings.blocked_factorizations,
        }
    }

    /// The configured active-set solver for a block of dimension `dim`.
    /// The iteration cap grows with the block (`max(500, 4·dim)`): a cold
    /// active-set solve legitimately performs `O(dim)` working-set changes,
    /// so the classic 500 starves blocks beyond ~125 variables. Raising the
    /// cap is bit-safe — any solve that converged under the old cap follows
    /// the exact same trajectory under the new one.
    fn solver(self, dim: usize) -> ActiveSetQp {
        ActiveSetQp::new(500.max(4 * dim), 1e-9)
            .with_rank1_kkt(self.rank1_kkt)
            .with_blocked_factorizations(self.blocked_factorizations)
    }
}

/// Adds one block kernel's counters to `c`: its dense KKT solves (cache
/// hits and misses), its Sherman–Morrison solves, and its warm-start gate
/// decisions.
fn add_kernel_counters(cache: &KktCache, accepted: u64, rejected: u64, c: &mut SolverCounters) {
    c.kkt_cache_hits += cache.hits();
    c.kkt_cache_misses += cache.misses();
    c.kkt_rank1_solves += cache.rank1_solves();
    c.warm_starts_accepted += accepted;
    c.warm_starts_rejected += rejected;
}

/// Persistent solver kernel for one front-end's λ-QP (paper Eq. (17)).
///
/// Owns the block's objective (Hessian fixed at construction, linear term
/// retargeted per solve), its simplex constraint matrices, and a KKT
/// factorization cache shared across solves.
#[derive(Debug, Clone)]
pub struct LambdaQp {
    arrival: f64,
    solver: ActiveSetQp,
    objective: QuadObjective,
    a_eq: Matrix,
    a_in: Matrix,
    b_in: Vec<f64>,
    cache: KktCache,
    /// Recycled start vector: each solve takes it, fills it, and hands it to
    /// the solver by value; the solver's previous output buffer comes back
    /// in its place, so steady-state solves allocate nothing.
    start_buf: Vec<f64>,
    /// Recycled working-set seed buffer (see [`snap_support_into`]).
    seed_buf: Vec<usize>,
    warm_accepted: u64,
    warm_rejected: u64,
}

impl LambdaQp {
    /// Builds the kernel for a front-end with the given latency row,
    /// arrival rate, disutility weight `w` and penalty ρ. `options` selects
    /// the KKT kernels.
    #[must_use]
    pub fn new(latencies: &[f64], arrival: f64, w: f64, rho: f64, options: QpOptions) -> Self {
        let n = latencies.len();
        let gamma = disutility_rank1_gamma(w, arrival);
        let objective =
            QuadObjective::diag_rank1(vec![rho; n], gamma, latencies.to_vec(), vec![0.0; n], 0.0);
        LambdaQp {
            arrival,
            solver: options.solver(n),
            objective,
            a_eq: Matrix::from_fn(1, n, |_, _| 1.0),
            a_in: Matrix::from_fn(n, n, |r, c| if r == c { -1.0 } else { 0.0 }),
            b_in: vec![0.0; n],
            cache: KktCache::default(),
            start_buf: Vec::new(),
            seed_buf: Vec::new(),
            warm_accepted: 0,
            warm_rejected: 0,
        }
    }

    /// Solves the block QP for linear term `c`, warm-starting from `warm`
    /// when it passes the deterministic feasibility gate (otherwise the
    /// classic uniform start `A_i/n` is used, matching the cold path).
    ///
    /// # Errors
    ///
    /// Propagates the inner QP solver's error.
    pub fn solve(&mut self, c: &[f64], warm: Option<&[f64]>) -> ufc_opt::Result<Vec<f64>> {
        let mut out = Vec::new();
        self.solve_into(c, warm, &mut out)?;
        Ok(out)
    }

    /// [`Self::solve`] into a caller-owned output buffer. `out` is replaced
    /// by the solution vector; its previous backing storage is recycled as
    /// the next solve's start vector, so a caller looping over iterations
    /// with a persistent `out` allocates nothing per solve in steady state.
    ///
    /// # Errors
    ///
    /// Propagates the inner QP solver's error.
    pub fn solve_into(
        &mut self,
        c: &[f64],
        warm: Option<&[f64]>,
        out: &mut Vec<f64>,
    ) -> ufc_opt::Result<()> {
        if self.arrival == 0.0 {
            // Zero-demand front-end: the simplex of radius 0 is the
            // singleton {0}. Short-circuiting keeps every engine (and the
            // reference `lambda_step`) bit-identical and spares the QP an
            // all-active degenerate working set.
            out.clear();
            out.resize(self.b_in.len(), 0.0);
            return Ok(());
        }
        self.objective.set_linear(c);
        let start = self.fill_start(warm);
        let x = self
            .solver
            .solve_seeded(
                &self.objective,
                &self.a_eq,
                &[self.arrival],
                &self.a_in,
                &self.b_in,
                start,
                &mut self.cache,
                &self.seed_buf,
            )?
            .x;
        self.start_buf = std::mem::replace(out, x);
        Ok(())
    }

    /// Adds this kernel's KKT-solve and warm-start counts to `c`
    /// (telemetry).
    pub fn add_counters(&self, c: &mut SolverCounters) {
        add_kernel_counters(&self.cache, self.warm_accepted, self.warm_rejected, c);
    }

    /// Fills the recycled start buffer (warm candidate if it passes the
    /// feasibility gate, uniform cold start otherwise) and the working-set
    /// seed buffer, then hands the start vector to the caller by value.
    fn fill_start(&mut self, warm: Option<&[f64]>) -> Vec<f64> {
        let n = self.b_in.len();
        let mut start = std::mem::take(&mut self.start_buf);
        self.seed_buf.clear();
        if let Some(w) = warm {
            if w.len() == n {
                let sum: f64 = w.iter().sum();
                let nonneg = w.iter().all(|&v| v >= -WARM_NONNEG_TOL);
                if nonneg && (sum - self.arrival).abs() <= WARM_ROW_TOL * (1.0 + self.arrival.abs())
                {
                    start.clear();
                    start.extend_from_slice(w);
                    snap_support_into(&mut start, &mut self.seed_buf);
                    self.warm_accepted += 1;
                    return start;
                }
            }
            self.warm_rejected += 1;
        }
        start.clear();
        start.resize(n, self.arrival / n as f64);
        start
    }
}

/// Persistent solver kernel for one datacenter's a-QP column (paper
/// Eq. (20)), optionally with the congestion-barrier extension.
#[derive(Debug, Clone)]
pub struct AColQp {
    capacity: f64,
    solver: ActiveSetQp,
    objective: QuadObjective,
    a_eq: Matrix,
    a_in: Matrix,
    b_in: Vec<f64>,
    /// Persistent congested objective (barrier + quadratic part) and its
    /// shrunk cap, built once at construction instead of cloned per solve.
    congested: Option<(CongestedAStep, f64)>,
    cache: KktCache,
    /// Recycled start vector (see [`LambdaQp::start_buf`]).
    start_buf: Vec<f64>,
    /// Recycled working-set seed buffer.
    seed_buf: Vec<usize>,
    warm_accepted: u64,
    warm_rejected: u64,
}

impl AColQp {
    /// Builds the kernel for a datacenter column: `m` front-ends, penalty ρ,
    /// power-proportionality slope β, capacity cap, and the optional
    /// queueing (congestion) extension. `options` selects the KKT kernels.
    #[must_use]
    pub fn new(
        m: usize,
        rho: f64,
        beta: f64,
        capacity: f64,
        queueing: Option<QueueingCost>,
        options: QpOptions,
    ) -> Self {
        let objective = QuadObjective::diag_rank1(
            vec![rho; m],
            rho * beta * beta,
            vec![1.0; m],
            vec![0.0; m],
            0.0,
        );
        // Rows: −a_i ≤ 0 for each i, then Σ_i a_i ≤ S_j.
        let mut a_in = Matrix::zeros(m + 1, m);
        let mut b_in = vec![0.0; m + 1];
        for i in 0..m {
            a_in[(i, i)] = -1.0;
            a_in[(m, i)] = 1.0;
        }
        b_in[m] = capacity;
        let congested = queueing.map(|q| {
            let cap_q = q.load_cap(capacity).min(capacity);
            (CongestedAStep::new(objective.clone(), q, capacity), cap_q)
        });
        AColQp {
            capacity,
            solver: options.solver(m),
            objective,
            a_eq: Matrix::zeros(0, m),
            a_in,
            b_in,
            congested,
            cache: KktCache::default(),
            start_buf: Vec::new(),
            seed_buf: Vec::new(),
            warm_accepted: 0,
            warm_rejected: 0,
        }
    }

    /// Solves the column QP for linear term `c`, warm-starting from `warm`
    /// when it passes the deterministic feasibility gate (otherwise from the
    /// classic zero start).
    ///
    /// # Errors
    ///
    /// Propagates the inner solver's error.
    pub fn solve(&mut self, c: &[f64], warm: Option<&[f64]>) -> ufc_opt::Result<Vec<f64>> {
        let mut out = Vec::new();
        self.solve_into(c, warm, &mut out)?;
        Ok(out)
    }

    /// [`Self::solve`] into a caller-owned output buffer, with the same
    /// buffer-recycling contract as [`LambdaQp::solve_into`].
    ///
    /// # Errors
    ///
    /// Propagates the inner solver's error.
    pub fn solve_into(
        &mut self,
        c: &[f64],
        warm: Option<&[f64]>,
        out: &mut Vec<f64>,
    ) -> ufc_opt::Result<()> {
        if self.congested.is_some() {
            // Congested path: barrier objective over the shrunk cap; the
            // barrier is not quadratic, so backtracking FISTA solves it.
            let cap_q = self.congested.as_ref().map(|(_, cq)| *cq).unwrap_or(0.0);
            let start = self.fill_start(warm, cap_q);
            let (cong, _) = self.congested.as_mut().expect("checked above");
            cong.set_linear(c);
            let x = Fista::new(FISTA_MAX_ITER, FISTA_CONGESTED_TOL)
                .minimize_adaptive(&*cong, |x| project_capped_simplex(x, cap_q), start)?
                .x;
            self.start_buf = std::mem::replace(out, x);
            return Ok(());
        }
        self.objective.set_linear(c);
        let start = self.fill_start(warm, self.capacity);
        let x = self
            .solver
            .solve_seeded(
                &self.objective,
                &self.a_eq,
                &[],
                &self.a_in,
                &self.b_in,
                start,
                &mut self.cache,
                &self.seed_buf,
            )?
            .x;
        self.start_buf = std::mem::replace(out, x);
        Ok(())
    }

    /// Adds this kernel's KKT-solve and warm-start counts to `c`
    /// (telemetry).
    pub fn add_counters(&self, c: &mut SolverCounters) {
        add_kernel_counters(&self.cache, self.warm_accepted, self.warm_rejected, c);
    }

    /// Fills the recycled start buffer (warm candidate if it passes the
    /// feasibility gate, zero cold start otherwise) and the working-set
    /// seed buffer, then hands the start vector to the caller by value.
    fn fill_start(&mut self, warm: Option<&[f64]>, cap: f64) -> Vec<f64> {
        let m = self.a_in.cols();
        let mut start = std::mem::take(&mut self.start_buf);
        self.seed_buf.clear();
        if let Some(w) = warm {
            if w.len() == m {
                let sum: f64 = w.iter().sum();
                let nonneg = w.iter().all(|&v| v >= -WARM_NONNEG_TOL);
                if nonneg && sum <= cap * (1.0 + WARM_NONNEG_TOL) + WARM_NONNEG_TOL {
                    start.clear();
                    start.extend_from_slice(w);
                    // Only the m nonnegativity rows are ever seeded — the
                    // capacity row (index m) is left to the solver's own
                    // blocking logic, which keeps every seeded working set
                    // linearly independent by construction.
                    snap_support_into(&mut start, &mut self.seed_buf);
                    self.warm_accepted += 1;
                    return start;
                }
            }
            self.warm_rejected += 1;
        }
        start.clear();
        start.resize(m, 0.0);
        start
    }
}

/// Per-front-end λ block: the kernel plus reusable linear-term and result
/// buffers, so steady-state iterations allocate nothing per block.
#[derive(Debug)]
struct LambdaBlock {
    c: Vec<f64>,
    out: Vec<f64>,
    qp: LambdaQp,
}

/// Per-datacenter μ/ν/d/a block (the datacenter-owned prediction steps are
/// fused: they share the column load and demand). `d` is the storage block's
/// net discharge — exactly `0.0` on spatial-only instances and for
/// datacenters without a battery, which keeps the classic 4-block schedule
/// the bit-identical degenerate case.
#[derive(Debug)]
struct ABlock {
    c: Vec<f64>,
    warm: Vec<f64>,
    out: Vec<f64>,
    mu: f64,
    nu: f64,
    d: f64,
    qp: AColQp,
}

/// The solver-wide workspace: one persistent kernel per ADM-G block plus the
/// reusable `tilde`/`prev` iterate buffers. Built once per run (or shared
/// across the strategy solves of `solve_all_strategies`) and reused across
/// all iterations through the in-process `Transport`.
#[derive(Debug)]
pub(crate) struct SolverWorkspace {
    /// Predicted (tilde) iterate, overwritten by each prediction phase.
    pub(crate) tilde: AdmgState,
    /// Scratch copy of the pre-correction iterate (for the dual residual).
    pub(crate) prev: AdmgState,
    lambda_blocks: Vec<LambdaBlock>,
    a_blocks: Vec<ABlock>,
    rho: f64,
}

impl SolverWorkspace {
    pub(crate) fn new(instance: &UfcInstance, settings: &AdmgSettings) -> Self {
        let (m, n) = (instance.m_frontends(), instance.n_datacenters());
        let w = instance.weight_per_kserver();
        let options = QpOptions::from_settings(settings);
        let lambda_blocks = (0..m)
            .map(|i| LambdaBlock {
                c: vec![0.0; n],
                out: vec![0.0; n],
                qp: LambdaQp::new(
                    &instance.latency_s[i],
                    instance.arrivals[i],
                    w,
                    settings.rho,
                    options,
                ),
            })
            .collect();
        let a_blocks = (0..n)
            .map(|j| ABlock {
                c: vec![0.0; m],
                warm: vec![0.0; m],
                out: vec![0.0; m],
                mu: 0.0,
                nu: 0.0,
                d: 0.0,
                qp: AColQp::new(
                    m,
                    settings.rho,
                    instance.beta[j],
                    instance.capacities[j],
                    instance.queueing,
                    options,
                ),
            })
            .collect();
        SolverWorkspace {
            tilde: AdmgState::zeros(instance),
            prev: AdmgState::zeros(instance),
            lambda_blocks,
            a_blocks,
            rho: settings.rho,
        }
    }

    /// The λ prediction phase (paper Eq. (17)): one simplex QP per
    /// front-end, writing `λ̃` into `self.tilde.lambda`.
    ///
    /// The per-front-end solves are fanned across `pool`; results land in
    /// fixed per-block slots and are gathered in index order, so any thread
    /// count yields bit-identical output. Errors are reported
    /// deterministically (lowest block index first).
    ///
    /// Called from the unified iteration driver (`crate::engine::drive`) —
    /// the phase order λ → μ → ν → a lives there, not here.
    pub(crate) fn predict_lambda(&mut self, state: &AdmgState, pool: &WorkerPool) -> Result<()> {
        let n = state.n;
        let rho = self.rho;
        let lambda_results = pool.map_mut(&mut self.lambda_blocks, |i, blk| {
            for j in 0..n {
                blk.c[j] = state.varphi[i * n + j] - rho * state.a[i * n + j];
            }
            let warm = Some(&state.lambda[i * n..(i + 1) * n]);
            let (c, out) = (&blk.c, &mut blk.out);
            blk.qp.solve_into(c, warm, out)
        });
        for (i, r) in lambda_results.into_iter().enumerate() {
            r.map_err(|e| CoreError::subproblem(format!("lambda[{i}]"), e))?;
        }
        for (i, blk) in self.lambda_blocks.iter().enumerate() {
            self.tilde.lambda[i * n..(i + 1) * n].copy_from_slice(&blk.out);
        }
        Ok(())
    }

    /// The datacenter-side prediction phases (paper Eqs. (18)–(20) plus the
    /// storage block and the dual prediction): the fused per-datacenter
    /// μ → ν → d → a steps followed by the in-place φ/φ_ij updates, writing
    /// into `self.tilde`. Requires a preceding [`Self::predict_lambda`] for
    /// the same `state` (it consumes `self.tilde.lambda`).
    ///
    /// Each column's closed-form μ, ν and d and its capped-simplex QP depend
    /// only on that datacenter's load, so the steps run as one task per
    /// datacenter, fanned across `pool` with index-ordered gather
    /// (bit-identical at any thread count). On spatial-only instances the d
    /// step is pinned at exactly `0.0` and the phase reproduces the classic
    /// 4-block prediction bit-for-bit.
    pub(crate) fn predict_site_blocks(
        &mut self,
        instance: &UfcInstance,
        state: &AdmgState,
        pool: &WorkerPool,
        active_mu: bool,
        active_nu: bool,
    ) -> Result<()> {
        let (m, n) = (state.m, state.n);
        let rho = self.rho;
        let tilde_lambda = &self.tilde.lambda;
        let h = instance.slot_hours;
        let a_results = pool.map_mut(&mut self.a_blocks, |j, blk| {
            let mut load = 0.0;
            for i in 0..m {
                load += state.a[i * n + j];
            }
            let demand = instance.demand_mw(j, load);
            // μ̃/ν̃ see the demand net of the previous iterate's storage
            // draw; on spatial-only instances `state.d[j]` is exactly `0.0`
            // and `x − 0.0 = x` bitwise, so the classic path is unchanged.
            let demand_eff = demand - state.d[j];
            let (mu_lo, mu_hi) = match &instance.storage {
                Some(sp) => sp.mu_bounds(j, instance.mu_max[j]),
                None => (0.0, instance.mu_max[j]),
            };
            blk.mu = if active_mu {
                mu_scalar_step_bounded(
                    demand_eff,
                    state.nu[j],
                    state.phi[j],
                    h * instance.fuel_cell_price,
                    rho,
                    mu_lo,
                    mu_hi,
                )
            } else {
                0.0
            };
            blk.nu = if active_nu {
                nu_scalar_step(
                    demand_eff,
                    blk.mu,
                    state.phi[j],
                    h * instance.grid_price[j],
                    instance.carbon_t_per_mwh[j] * h,
                    &instance.emission_cost[j],
                    rho,
                )
            } else {
                0.0
            };
            // Storage block: solves for a *fresh* net discharge against the
            // full demand (not `demand_eff` — the block replaces `d`, it
            // does not adjust it). Pinned at exactly `+0.0` without a
            // battery.
            blk.d = match &instance.storage {
                Some(sp) if sp.active(j) => {
                    let (d_lo, d_hi) = sp.discharge_bounds(j, h);
                    storage_scalar_step(
                        demand,
                        blk.mu,
                        blk.nu,
                        state.phi[j],
                        sp.value_per_mwh[j] * h,
                        sp.degradation_per_mwh * h,
                        rho,
                        d_lo,
                        d_hi,
                    )
                }
                _ => 0.0,
            };
            let beta = instance.beta[j];
            let drift = instance.alpha[j] - blk.mu - blk.nu - blk.d;
            for i in 0..m {
                blk.c[i] =
                    -rho * tilde_lambda[i * n + j] - state.varphi[i * n + j] - state.phi[j] * beta
                        + rho * beta * drift;
            }
            for i in 0..m {
                blk.warm[i] = state.a[i * n + j];
            }
            let (c, warm, out) = (&blk.c, &blk.warm, &mut blk.out);
            blk.qp.solve_into(c, Some(warm.as_slice()), out)
        });
        for (j, r) in a_results.into_iter().enumerate() {
            r.map_err(|e| CoreError::subproblem(format!("a[{j}]"), e))?;
        }
        for (j, blk) in self.a_blocks.iter().enumerate() {
            self.tilde.mu[j] = blk.mu;
            self.tilde.nu[j] = blk.nu;
            self.tilde.d[j] = blk.d;
            for i in 0..m {
                self.tilde.a[i * n + j] = blk.out[i];
            }
        }

        // --- Dual updates, in place (no per-iteration allocation).
        for j in 0..n {
            let mut load = 0.0;
            for i in 0..m {
                load += self.tilde.a[i * n + j];
            }
            self.tilde.phi[j] = state.phi[j]
                - rho
                    * (instance.demand_mw(j, load)
                        - self.tilde.mu[j]
                        - self.tilde.nu[j]
                        - self.tilde.d[j]);
        }
        for k in 0..m * n {
            self.tilde.varphi[k] = state.varphi[k] - rho * (self.tilde.a[k] - self.tilde.lambda[k]);
        }
        Ok(())
    }

    /// Solver-layer telemetry counters aggregated across every block
    /// kernel. The pool counters are filled in by the caller that owns the
    /// [`WorkerPool`].
    pub(crate) fn counters(&self) -> SolverCounters {
        let mut c = SolverCounters::default();
        for b in &self.lambda_blocks {
            b.qp.add_counters(&mut c);
        }
        for b in &self.a_blocks {
            b.qp.add_counters(&mut c);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subproblems::{a_step, dual_step, lambda_step, mu_step, nu_step, storage_step};
    use ufc_model::{EmissionCostFn, StorageFleet};

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

    /// The dense reference kernel the step functions of `subproblems` use.
    fn dense() -> AdmgSettings {
        AdmgSettings::default().with_rank1_kkt(false)
    }

    /// One workspace prediction round from `state`, returning the predicted
    /// iterate.
    fn predict(inst: &UfcInstance, settings: &AdmgSettings, state: &AdmgState) -> AdmgState {
        let pool = WorkerPool::new(1);
        let mut ws = SolverWorkspace::new(inst, settings);
        ws.predict_lambda(state, &pool).unwrap();
        ws.predict_site_blocks(inst, state, &pool, true, true)
            .unwrap();
        ws.tilde
    }

    /// The same round through the reference step functions (dense KKT,
    /// cold starts).
    fn reference(inst: &UfcInstance, rho: f64, state: &AdmgState) -> AdmgState {
        let lt = lambda_step(inst, rho, state).unwrap();
        let mt = mu_step(inst, rho, state, true);
        let nt = nu_step(inst, rho, state, &mt, true);
        let dt = storage_step(inst, rho, state, &mt, &nt);
        let at = a_step(inst, rho, state, &lt, &mt, &nt, &dt).unwrap();
        let (pt, vt) = dual_step(inst, rho, state, &lt, &mt, &nt, &dt, &at);
        AdmgState {
            lambda: lt,
            mu: mt,
            nu: nt,
            d: dt,
            a: at,
            phi: pt,
            varphi: vt,
            ..state.clone()
        }
    }

    /// Asserts `a ≈ b` entry by entry at `1e-9 · (1 + |b|)`.
    fn assert_close(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (x, y) in a.iter().zip(b) {
            assert!(
                (x - y).abs() <= 1e-9 * (1.0 + y.abs()),
                "{what}: {a:?} vs {b:?}"
            );
        }
    }

    /// The rank-1 leg of the reference tests: the default kernel matches the
    /// dense reference exactly on the closed-form μ/ν/d steps, which run
    /// before any QP, and to solver precision on λ, a and the duals.
    fn assert_rank1_matches(inst: &UfcInstance, state: &AdmgState, expected: &AdmgState) {
        let fast = predict(inst, &AdmgSettings::default(), state);
        assert_eq!(fast.mu, expected.mu);
        assert_eq!(fast.nu, expected.nu);
        assert_eq!(fast.d, expected.d);
        assert_close(&fast.lambda, &expected.lambda, "rank-1 lambda");
        assert_close(&fast.a, &expected.a, "rank-1 a");
        assert_close(&fast.phi, &expected.phi, "rank-1 phi");
        assert_close(&fast.varphi, &expected.varphi, "rank-1 varphi");
    }

    /// The fused workspace prediction must reproduce the five reference step
    /// functions bit-for-bit on the dense kernel when warm starts cannot
    /// engage (zero state), and to solver precision on the rank-1 kernel.
    #[test]
    fn predict_matches_reference_steps_on_cold_state() {
        let inst = tiny();
        let state = AdmgState::zeros(&inst);
        let settings = dense();
        let tilde = predict(&inst, &settings, &state);
        let expected = reference(&inst, settings.rho, &state);
        assert_eq!(tilde.lambda, expected.lambda);
        assert_eq!(tilde.mu, expected.mu);
        assert_eq!(tilde.nu, expected.nu);
        assert_eq!(tilde.d, expected.d);
        assert_eq!(tilde.a, expected.a);
        assert_eq!(tilde.phi, expected.phi);
        assert_eq!(tilde.varphi, expected.varphi);
        assert_rank1_matches(&inst, &state, &expected);
    }

    /// From a warm, nonzero state the dense workspace must match the
    /// cold-started reference steps: λ̃ exactly (the zero λ fails the
    /// warm-start gate), μ̃/ν̃/d̃ exactly (closed forms computed before any
    /// QP), and ã with the duals that depend on it to solver precision (the
    /// a-QP starts from the warm column, the reference from zero). The
    /// rank-1 kernel matches to solver precision.
    #[test]
    fn predict_baseline_path_matches_reference_steps() {
        let inst = tiny();
        let mut state = AdmgState::zeros(&inst);
        state.a = vec![0.4, 0.6, 1.5, 0.5];
        state.varphi = vec![0.1, -0.2, 0.05, 0.3];
        state.phi = vec![0.2, -0.1];
        let settings = dense();
        let tilde = predict(&inst, &settings, &state);
        let expected = reference(&inst, settings.rho, &state);
        assert_eq!(tilde.lambda, expected.lambda);
        assert_eq!(tilde.mu, expected.mu);
        assert_eq!(tilde.nu, expected.nu);
        assert_eq!(tilde.d, expected.d);
        assert_close(&tilde.a, &expected.a, "a");
        assert_close(&tilde.phi, &expected.phi, "phi");
        assert_close(&tilde.varphi, &expected.varphi, "varphi");
        assert_rank1_matches(&inst, &state, &expected);
    }

    /// On a storage instance the fused datacenter phase must reproduce the
    /// five reference step functions — μ bounds from the ramp limit, the
    /// fresh-d storage solve, and the d-aware drift and duals — from a
    /// warm, nonzero state: on the dense kernel exactly up to the
    /// warm-started a-QP and to solver precision from there on, on the
    /// rank-1 kernel to solver precision.
    #[test]
    fn predict_matches_reference_steps_with_storage() {
        let fleet = StorageFleet::new(2.0, 1.0)
            .initial_charge_frac(0.5)
            .value_per_mwh(40.0)
            .degradation(2.0)
            .ramp_mw(0.3);
        let inst = tiny().with_storage(fleet.initial_params(2)).unwrap();
        let mut state = AdmgState::zeros(&inst);
        state.a = vec![0.4, 0.6, 1.5, 0.5];
        state.varphi = vec![0.1, -0.2, 0.05, 0.3];
        state.phi = vec![0.2, -0.1];
        state.nu = vec![0.3, 0.2];
        state.d = vec![0.05, -0.1];
        let settings = dense();
        let tilde = predict(&inst, &settings, &state);
        let expected = reference(&inst, settings.rho, &state);

        assert!(
            expected.d.iter().any(|&d| d != 0.0),
            "storage block should engage"
        );
        assert_eq!(tilde.lambda, expected.lambda);
        assert_eq!(tilde.mu, expected.mu);
        assert_eq!(tilde.nu, expected.nu);
        assert_eq!(tilde.d, expected.d);
        assert_close(&tilde.a, &expected.a, "a");
        assert_close(&tilde.phi, &expected.phi, "phi");
        assert_close(&tilde.varphi, &expected.varphi, "varphi");
        // Ramp limit binds: μ̃ stays inside the [μ_prev ± ramp] box.
        for j in 0..2 {
            assert!(tilde.mu[j] <= 0.3 + 1e-12);
        }
        assert_rank1_matches(&inst, &state, &expected);
    }

    /// Warm-started solves accumulate KKT-solve counts across iterations:
    /// cache hits on the dense kernel, Sherman–Morrison solves (and no
    /// factorizations) on the rank-1 kernel.
    #[test]
    fn repeated_predictions_hit_the_cache() {
        let inst = tiny();
        let state = AdmgState::zeros(&inst);
        let pool = WorkerPool::new(1);
        let run = |settings: AdmgSettings| {
            let mut ws = SolverWorkspace::new(&inst, &settings);
            for _ in 0..3 {
                ws.predict_lambda(&state, &pool).unwrap();
                ws.predict_site_blocks(&inst, &state, &pool, true, true)
                    .unwrap();
            }
            ws.counters()
        };
        let dense = run(dense());
        assert!(dense.kkt_cache_hits > 0, "expected KKT cache reuse");
        assert_eq!(dense.kkt_rank1_solves, 0);
        let rank1 = run(AdmgSettings::default());
        assert!(
            rank1.kkt_rank1_solves > 0,
            "expected Sherman–Morrison solves"
        );
        assert_eq!(
            rank1.kkt_cache_misses, 0,
            "no working set left the rank-1 shape"
        );
    }

    /// Deterministic scaled instance for the thread-count bit-identity test:
    /// `m` front-ends × `n` datacenters with LCG-jittered data (no RNG
    /// dependency, reproducible across runs and platforms).
    fn scaled(m: usize, n: usize) -> UfcInstance {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut unit = move || {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (s >> 40) as f64 / (1u64 << 24) as f64
        };
        let arrivals: Vec<f64> = (0..m).map(|_| 0.5 + unit()).collect();
        let total: f64 = arrivals.iter().sum();
        let capacities: Vec<f64> = (0..n)
            .map(|_| (1.2 + 0.6 * unit()) * total / n as f64)
            .collect();
        let alpha: Vec<f64> = (0..n).map(|_| 0.2 + 0.1 * unit()).collect();
        let beta: Vec<f64> = (0..n).map(|_| 0.08 + 0.08 * unit()).collect();
        let mu_max: Vec<f64> = (0..n).map(|_| 0.3 + 0.4 * unit()).collect();
        let grid_price: Vec<f64> = (0..n).map(|_| 20.0 + 60.0 * unit()).collect();
        let carbon: Vec<f64> = (0..n).map(|_| 0.2 + 0.5 * unit()).collect();
        let latency: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..n).map(|_| 0.005 + 0.05 * unit()).collect())
            .collect();
        let emission = (0..n)
            .map(|_| EmissionCostFn::linear(25.0).unwrap())
            .collect();
        UfcInstance::new(
            arrivals, capacities, alpha, beta, mu_max, grid_price, 80.0, carbon, latency, 10.0,
            emission, 1.0,
        )
        .unwrap()
    }

    /// The tentpole invariant at scale: with the sharded gather and the
    /// rank-1 fast KKT path engaged, prediction rounds on a 512×16 instance
    /// are bit-identical at 1, 2, 4 and 8 worker threads. `exact` pools
    /// bypass the core-count clamp so the multi-shard spawn path genuinely
    /// runs regardless of the host machine.
    #[test]
    fn scaled_predictions_bit_identical_across_thread_counts() {
        let inst = scaled(512, 16);
        let settings = AdmgSettings::default()
            .with_rank1_kkt(true)
            .with_blocked_factorizations(true);
        let mut reference: Option<AdmgState> = None;
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::exact(threads);
            let mut ws = SolverWorkspace::new(&inst, &settings);
            let mut state = AdmgState::zeros(&inst);
            for _ in 0..3 {
                ws.predict_lambda(&state, &pool).unwrap();
                ws.predict_site_blocks(&inst, &state, &pool, true, true)
                    .unwrap();
                state.lambda.copy_from_slice(&ws.tilde.lambda);
                state.mu.copy_from_slice(&ws.tilde.mu);
                state.nu.copy_from_slice(&ws.tilde.nu);
                state.a.copy_from_slice(&ws.tilde.a);
                state.phi.copy_from_slice(&ws.tilde.phi);
                state.varphi.copy_from_slice(&ws.tilde.varphi);
            }
            match &reference {
                None => reference = Some(state),
                Some(r) => {
                    assert_eq!(r.lambda, state.lambda, "{threads} threads: λ diverged");
                    assert_eq!(r.mu, state.mu, "{threads} threads: μ diverged");
                    assert_eq!(r.nu, state.nu, "{threads} threads: ν diverged");
                    assert_eq!(r.a, state.a, "{threads} threads: a diverged");
                    assert_eq!(r.phi, state.phi, "{threads} threads: φ diverged");
                    assert_eq!(r.varphi, state.varphi, "{threads} threads: φ_ij diverged");
                }
            }
        }
    }

    /// Infeasible warm candidates fall back to the classic cold start.
    #[test]
    fn warm_start_gate_rejects_infeasible_points() {
        let mut qp = LambdaQp::new(&[0.01, 0.02], 1.0, 10.0, 1.0, QpOptions::default());
        let c = vec![0.1, -0.2];
        // Row sum far from the arrival: gate must reject and use the uniform
        // start, i.e. match the no-warm solve exactly.
        let cold = qp.solve(&c, None).unwrap();
        let gated = qp.solve(&c, Some(&[5.0, 5.0])).unwrap();
        assert_eq!(cold, gated);
        // A feasible warm start is accepted and converges to the same point.
        let warm = qp.solve(&c, Some(&cold.clone())).unwrap();
        for (a, b) in cold.iter().zip(&warm) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
