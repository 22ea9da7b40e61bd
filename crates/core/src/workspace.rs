//! Per-block solver kernels for the ADM-G hot path.
//!
//! Across ADM-G iterations every sub-problem QP keeps the *same* Hessian and
//! constraints — only the linear term (built from the current duals and
//! iterates) moves. The λ-QP of front-end `i` always has Hessian
//! `ρI + γ·L_i L_iᵀ` (`γ = 2w/A_i`) over the simplex `{λ ≥ 0, Σλ = A_i}`,
//! and the a-QP of datacenter `j` always has `ρ(I + β_j²·1 1ᵀ)` over the
//! capped simplex `{a ≥ 0, Σa ≤ S_j}`. Both reduce to scalar equations over
//! sorted breakpoints, which [`LambdaQp`] and [`AColQp`] solve exactly
//! (derivations in DESIGN.md §9):
//!
//! * **a-column.** The KKT conditions give `a_i = max(0, x_i − τ)` with
//!   `x_i = −c_i/ρ`, where `τ = β²·Σ max(0, x_i − τ)` — one prefix-sum
//!   scan over the `x` sorted in descending order — unless that point
//!   overfills the cap, in which case τ is the Held–Wolfe–Crowder
//!   threshold of the projection onto `{Σa = S_j}`. `O(M log M)`, no
//!   iteration.
//! * **λ-row.** For a fixed `t = L_iᵀλ`, λ is the simplex projection of
//!   `−(c + γ·t·L_i)/ρ`, and `t − L_iᵀλ(t)` is strictly increasing. On a
//!   fixed support the root has a closed form; the kernel tries the full
//!   support, then brackets `t` with projections and re-solves on the
//!   support each projection reads, returning the first closed form that
//!   passes its KKT check.
//!
//! # Invariants
//!
//! * A kernel is a pure function of its block data, ρ and the linear term:
//!   it takes no warm start and carries nothing between calls but scratch
//!   buffers it overwrites. Every engine builds its kernels here, so the
//!   in-process workspace, every node, a respawned node and a restored one
//!   all produce the same bits.
//! * Ties among breakpoints cannot change a result: the sorts use
//!   [`f64::total_cmp`], a total order under which tied entries are equal
//!   bit patterns, so the sorted sequence — and every prefix sum — is
//!   unique.
//! * Zero-arrival rows and zero-capacity columns return zeros before any
//!   arithmetic (their feasible set is the single point 0).
//! * Poison: otherwise a non-finite linear term, or any non-finite
//!   intermediate value, yields an all-NaN block, as `project_simplex`
//!   does — never an error and never a panic. The divergence gate of
//!   `engine::drive` then sees NaN residuals (and `divergence_rollback` can
//!   repair the run).
//! * The congested a-step (queueing extension) is not quadratic; it keeps
//!   the warm-started backtracking FISTA solve and its feasibility gate.

use ufc_model::{utility::disutility_rank1_gamma, QueueingCost, UfcInstance};
use ufc_opt::projection::{project_capped_simplex, simplex_threshold};
use ufc_opt::{Fista, QuadObjective, SmoothObjective};

use crate::pool::WorkerPool;
use crate::subproblems::{
    mu_scalar_step_bounded, nu_scalar_step, storage_scalar_step, CongestedAStep,
    FISTA_CONGESTED_TOL, FISTA_MAX_ITER,
};
use crate::telemetry::SolverCounters;
use crate::{AdmgSettings, AdmgState, CoreError, Result};

/// Entry tolerance for accepting a previous iterate as the congested
/// a-step's warm start: component-wise nonnegativity slack, also the
/// relative slack on the cap row.
const WARM_NONNEG_TOL: f64 = 1e-9;

/// Relative slack of the λ-kernel's KKT check on a candidate support: an
/// entry the closed form puts within this fraction of the terms' scale of
/// zero counts as zero. Only degenerate rows (an entry exactly at its
/// breakpoint) need it; it bounds the error it admits at that fraction.
const SUPPORT_TOL: f64 = 1e-12;

/// Cap on the λ-kernel's bracketing steps. Each step either certifies a
/// support or shrinks the bracket, which bisection alone collapses to
/// rounding level in well under this many steps.
const MAX_BRACKET_STEPS: usize = 200;

/// `max(v, 0)` that always yields `+0.0`, never `−0.0`.
fn pos(v: f64) -> f64 {
    if v > 0.0 {
        v
    } else {
        0.0
    }
}

/// Exact kernel for one front-end's λ-QP (paper Eq. (17)):
/// `min ½ρ‖λ‖² + ½γ(L_iᵀλ)² + cᵀλ` over `{λ ≥ 0, Σλ = A_i}`.
#[derive(Debug, Clone)]
pub struct LambdaQp {
    arrival: f64,
    rho: f64,
    gamma: f64,
    latencies: Vec<f64>,
    /// The root's bracket `[A_i·min L, A_i·max L]`: `L_iᵀλ` lies in it for
    /// every feasible λ.
    t_lo: f64,
    t_hi: f64,
    /// Scratch: projection input, its descending sort, a closed-form
    /// candidate and the support being tried. Overwritten by every solve.
    y: Vec<f64>,
    sorted: Vec<f64>,
    cand: Vec<f64>,
    support: Vec<bool>,
}

impl LambdaQp {
    /// Builds the kernel for a front-end with the given latency row,
    /// arrival rate, disutility weight `w` and penalty ρ.
    #[must_use]
    pub fn new(latencies: &[f64], arrival: f64, w: f64, rho: f64) -> Self {
        let n = latencies.len();
        let (min_l, max_l) = latencies
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &l| {
                (lo.min(l), hi.max(l))
            });
        LambdaQp {
            arrival,
            rho,
            gamma: disutility_rank1_gamma(w, arrival),
            latencies: latencies.to_vec(),
            t_lo: arrival * min_l,
            t_hi: arrival * max_l,
            y: vec![0.0; n],
            sorted: Vec::with_capacity(n),
            cand: vec![0.0; n],
            support: vec![false; n],
        }
    }

    /// Solves the block QP for linear term `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c.len()` differs from the latency row's.
    #[must_use]
    pub fn solve(&mut self, c: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.solve_into(c, &mut out);
        out
    }

    /// [`Self::solve`] into a caller-owned buffer, so a caller looping over
    /// iterations allocates nothing per solve.
    ///
    /// # Panics
    ///
    /// Panics if `c.len()` differs from the latency row's.
    pub fn solve_into(&mut self, c: &[f64], out: &mut Vec<f64>) {
        let n = self.latencies.len();
        assert_eq!(c.len(), n, "linear term length mismatch");
        out.clear();
        out.resize(n, 0.0);
        // Zero-demand front-end: the simplex of radius 0 is the singleton
        // {0}. The reference `lambda_step` skips the same rows.
        if self.arrival == 0.0 {
            return;
        }
        if !self.solve_row(c, out) {
            out.fill(f64::NAN);
        }
    }

    /// Writes the minimizer into `out`; `false` on poison.
    fn solve_row(&mut self, c: &[f64], out: &mut [f64]) -> bool {
        if c.iter().any(|v| !v.is_finite()) {
            return false;
        }
        // Full support first: its closed form certifies a row that routes
        // to every datacenter outright, and otherwise its root seeds t.
        self.support.fill(true);
        let (mut t_s, certified) = self.on_support(c);
        if certified {
            out.copy_from_slice(&self.cand);
            return true;
        }
        let (mut lo, mut hi) = (self.t_lo, self.t_hi);
        // Start from the full-support root clamped into the bracket: when
        // it falls outside, the optimum usually routes everything to the
        // entries at that end's extreme latency. (Starting from the
        // bracket's midpoint instead doubled the projections per solve at
        // 10 × 4.)
        let mut t = if t_s.is_nan() {
            0.5 * (lo + hi)
        } else if t_s < lo {
            lo
        } else if t_s > hi {
            hi
        } else {
            t_s
        };
        for _ in 0..MAX_BRACKET_STEPS {
            // Project at t (writes λ(t) into `out` and its support), then
            // shrink the bracket by the sign of h(t) = t − Lᵀλ(t).
            let Some(h) = self.project_at(c, t, out) else {
                return false;
            };
            if h == 0.0 {
                return true; // λ(t) is the fixed point itself
            }
            if h > 0.0 {
                hi = t;
            } else {
                lo = t;
            }
            let certified;
            (t_s, certified) = self.on_support(c);
            if certified {
                out.copy_from_slice(&self.cand);
                return true;
            }
            let next = if lo < t_s && t_s < hi {
                t_s
            } else {
                0.5 * (lo + hi)
            };
            if next == t {
                // The bracket collapsed to rounding level around the root:
                // λ(t) is the answer to within that rounding.
                return true;
            }
            t = next;
        }
        true
    }

    /// The projection `λ(t) = Π(−(c + γtL)/ρ)` onto the simplex, written
    /// into `out` with its support into `self.support`. Returns
    /// `h(t) = t − Lᵀλ(t)`, or `None` on a non-finite intermediate.
    fn project_at(&mut self, c: &[f64], t: f64, out: &mut [f64]) -> Option<f64> {
        let (rho, gt) = (self.rho, self.gamma * t);
        for ((yj, &cj), &lj) in self.y.iter_mut().zip(c).zip(&self.latencies) {
            *yj = -(cj + gt * lj) / rho;
        }
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.y);
        self.sorted.sort_unstable_by(|a, b| b.total_cmp(a));
        let tau = simplex_threshold(&self.sorted, self.arrival)?;
        let mut load = 0.0;
        for (((o, inside), &yj), &lj) in out
            .iter_mut()
            .zip(self.support.iter_mut())
            .zip(&self.y)
            .zip(&self.latencies)
        {
            let v = pos(yj - tau);
            *o = v;
            *inside = v > 0.0;
            load += lj * v;
        }
        let h = t - load;
        h.is_finite().then_some(h)
    }

    /// The closed-form minimizer on the support in `self.support`, written
    /// into `self.cand`. With `k = |S|` and bars denoting means over `S`:
    ///
    /// ```text
    /// t_S = (ρ·A·L̄ − Σ_S (L_j − L̄)(c_j − c̄)) / (ρ + γ·Σ_S (L_j − L̄)²)
    /// u_j = (−(c_j − c̄) − γ·t_S·(L_j − L̄))/ρ + A/k
    /// ```
    ///
    /// `u_j` is λ_j on `S` and the unclamped projection value off it, so the
    /// candidate is optimal iff `u ≥ 0` on `S` and `u ≤ 0` off `S` (up to
    /// [`SUPPORT_TOL`]). Returns `t_S` and whether that certificate holds.
    /// Centred sums keep the variance and covariance free of cancellation.
    fn on_support(&mut self, c: &[f64]) -> (f64, bool) {
        let (rho, a, gamma) = (self.rho, self.arrival, self.gamma);
        let (mut k, mut c_sum, mut l_sum) = (0usize, 0.0, 0.0);
        for ((&inside, &cj), &lj) in self.support.iter().zip(c).zip(&self.latencies) {
            if inside {
                k += 1;
                c_sum += cj;
                l_sum += lj;
            }
        }
        let kf = k as f64;
        let (c_bar, l_bar) = (c_sum / kf, l_sum / kf);
        let (mut cov, mut var) = (0.0, 0.0);
        for ((&inside, &cj), &lj) in self.support.iter().zip(c).zip(&self.latencies) {
            if inside {
                let dl = lj - l_bar;
                cov += dl * (cj - c_bar);
                var += dl * dl;
            }
        }
        let t = (rho * a * l_bar - cov) / (rho + gamma * var);
        let share = a / kf;
        let mut scale = share;
        for ((u, &cj), &lj) in self.cand.iter_mut().zip(c).zip(&self.latencies) {
            let (dc, dl) = (cj - c_bar, gamma * t * (lj - l_bar));
            *u = (-dc - dl) / rho + share;
            scale = scale.max((dc.abs() + dl.abs()) / rho);
        }
        let tol = SUPPORT_TOL * scale;
        let mut certified = t.is_finite();
        for (u, &inside) in self.cand.iter_mut().zip(&self.support) {
            if inside {
                certified &= *u >= -tol;
                *u = pos(*u);
            } else {
                certified &= *u <= tol;
                *u = 0.0;
            }
        }
        (t, certified)
    }
}

/// The congested a-step: barrier objective over the shrunk cap, solved by
/// backtracking FISTA warm-started from the previous column when it passes
/// the feasibility gate.
#[derive(Debug, Clone)]
struct CongestedCol {
    objective: CongestedAStep,
    cap: f64,
    /// Recycled start vector: the solver's previous output buffer.
    start_buf: Vec<f64>,
    warm_accepted: u64,
    warm_rejected: u64,
}

impl CongestedCol {
    /// The warm column if it is feasible to tight tolerance, else the
    /// classic zero start.
    fn start(&mut self, warm: Option<&[f64]>) -> Vec<f64> {
        let m = self.objective.dim();
        let mut start = std::mem::take(&mut self.start_buf);
        start.clear();
        if let Some(w) = warm {
            if w.len() == m {
                let sum: f64 = w.iter().sum();
                let nonneg = w.iter().all(|&v| v >= -WARM_NONNEG_TOL);
                if nonneg && sum <= self.cap * (1.0 + WARM_NONNEG_TOL) + WARM_NONNEG_TOL {
                    start.extend_from_slice(w);
                    self.warm_accepted += 1;
                    return start;
                }
            }
            self.warm_rejected += 1;
        }
        start.resize(m, 0.0);
        start
    }
}

/// Kernel for one datacenter's a-QP column (paper Eq. (20)):
/// `min ½ρ‖a‖² + ½ρβ²(1ᵀa)² + cᵀa` over `{a ≥ 0, 1ᵀa ≤ S_j}`, optionally
/// with the congestion-barrier extension.
#[derive(Debug, Clone)]
pub struct AColQp {
    m: usize,
    rho: f64,
    beta_sq: f64,
    capacity: f64,
    congested: Option<CongestedCol>,
    /// Scratch: the breakpoints `x_i = −c_i/ρ` in descending order.
    sorted: Vec<f64>,
}

impl AColQp {
    /// Builds the kernel for a datacenter column: `m` front-ends, penalty ρ,
    /// power-proportionality slope β, capacity cap, and the optional
    /// queueing (congestion) extension.
    #[must_use]
    pub fn new(
        m: usize,
        rho: f64,
        beta: f64,
        capacity: f64,
        queueing: Option<QueueingCost>,
    ) -> Self {
        let congested = queueing.map(|q| {
            let quad = QuadObjective::diag_rank1(
                vec![rho; m],
                rho * beta * beta,
                vec![1.0; m],
                vec![0.0; m],
                0.0,
            );
            CongestedCol {
                objective: CongestedAStep::new(quad, q, capacity),
                cap: q.load_cap(capacity).min(capacity),
                start_buf: Vec::new(),
                warm_accepted: 0,
                warm_rejected: 0,
            }
        });
        AColQp {
            m,
            rho,
            beta_sq: beta * beta,
            capacity,
            congested,
            sorted: Vec::with_capacity(m),
        }
    }

    /// Solves the column QP for linear term `c`. `warm` (the previous
    /// column) seeds only the congested solve.
    ///
    /// # Errors
    ///
    /// The congested solve's FISTA error; the quadratic column cannot fail.
    ///
    /// # Panics
    ///
    /// Panics if `c.len()` differs from the column's length.
    pub fn solve(&mut self, c: &[f64], warm: Option<&[f64]>) -> ufc_opt::Result<Vec<f64>> {
        let mut out = Vec::new();
        self.solve_into(c, warm, &mut out)?;
        Ok(out)
    }

    /// [`Self::solve`] into a caller-owned output buffer. On the congested
    /// path the buffer's previous storage is recycled as the next solve's
    /// start vector.
    ///
    /// # Errors
    ///
    /// As for [`Self::solve`].
    ///
    /// # Panics
    ///
    /// As for [`Self::solve`].
    pub fn solve_into(
        &mut self,
        c: &[f64],
        warm: Option<&[f64]>,
        out: &mut Vec<f64>,
    ) -> ufc_opt::Result<()> {
        if let Some(cong) = &mut self.congested {
            cong.objective.set_linear(c);
            let start = cong.start(warm);
            let cap = cong.cap;
            let x = Fista::new(FISTA_MAX_ITER, FISTA_CONGESTED_TOL)
                .minimize_adaptive(&cong.objective, |x| project_capped_simplex(x, cap), start)?
                .x;
            cong.start_buf = std::mem::replace(out, x);
            return Ok(());
        }
        assert_eq!(c.len(), self.m, "linear term length mismatch");
        out.clear();
        out.resize(self.m, 0.0);
        // Zero-capacity datacenter: the capped simplex is the singleton {0}
        // (rounding in the cap step would leave ulp-sized shares on ties).
        if self.capacity == 0.0 {
            return Ok(());
        }
        if !self.solve_column(c, out) {
            out.fill(f64::NAN);
        }
        Ok(())
    }

    /// Writes the minimizer into `out`; `false` on poison.
    fn solve_column(&mut self, c: &[f64], out: &mut [f64]) -> bool {
        if c.iter().any(|v| !v.is_finite()) {
            return false;
        }
        let rho = self.rho;
        self.sorted.clear();
        self.sorted.extend(c.iter().map(|&ci| -ci / rho));
        self.sorted.sort_unstable_by(|a, b| b.total_cmp(a));
        // Uncapped: τ = β²·Σ max(0, x_i − τ). With the k largest entries
        // active, τ_k = β²·X_k/(1 + β²k); entry k is active iff it exceeds
        // τ_{k+1}, a test that fails for good once it fails.
        let b2 = self.beta_sq;
        let (mut tau, mut prefix) = (0.0, 0.0);
        for (k, &xk) in self.sorted.iter().enumerate() {
            let p = prefix + xk;
            let cand = b2 * p / (1.0 + b2 * (k + 1) as f64);
            if xk <= cand {
                break;
            }
            (tau, prefix) = (cand, p);
        }
        let mut load = 0.0;
        for (a, &ci) in out.iter_mut().zip(c) {
            *a = pos(-ci / rho - tau);
            load += *a;
        }
        if load > self.capacity {
            // The cap binds: Σ max(0, x_i − τ) = S_j.
            let Some(tau) = simplex_threshold(&self.sorted, self.capacity) else {
                return false;
            };
            for (a, &ci) in out.iter_mut().zip(c) {
                *a = pos(-ci / rho - tau);
            }
        }
        out.iter().all(|v| v.is_finite())
    }

    /// Adds this kernel's congested warm-start gate decisions to `c`
    /// (telemetry; zero on uncongested columns).
    pub fn add_counters(&self, c: &mut SolverCounters) {
        if let Some(cong) = &self.congested {
            c.warm_starts_accepted += cong.warm_accepted;
            c.warm_starts_rejected += cong.warm_rejected;
        }
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
    /// The previous column `a_·j`: the congested kernel's warm start.
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
        let lambda_blocks = (0..m)
            .map(|i| LambdaBlock {
                c: vec![0.0; n],
                out: vec![0.0; n],
                qp: LambdaQp::new(
                    &instance.latency_s[i],
                    instance.arrivals[i],
                    w,
                    settings.rho,
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
    /// count yields bit-identical output.
    ///
    /// Called from the unified iteration driver (`crate::engine::drive`) —
    /// the phase order λ → μ → ν → a lives there, not here.
    pub(crate) fn predict_lambda(&mut self, state: &AdmgState, pool: &WorkerPool) {
        let n = state.n;
        let rho = self.rho;
        pool.map_mut(&mut self.lambda_blocks, |i, blk| {
            for j in 0..n {
                blk.c[j] = state.varphi[i * n + j] - rho * state.a[i * n + j];
            }
            blk.qp.solve_into(&blk.c, &mut blk.out);
        });
        for (i, blk) in self.lambda_blocks.iter().enumerate() {
            self.tilde.lambda[i * n..(i + 1) * n].copy_from_slice(&blk.out);
        }
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

    /// Solver-layer telemetry counters aggregated across the a-column
    /// kernels (the congested warm-start gates; the λ kernels count
    /// nothing). The pool counters are filled in by the caller that owns
    /// the [`WorkerPool`].
    pub(crate) fn counters(&self) -> SolverCounters {
        let mut c = SolverCounters::default();
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

    /// One workspace prediction round from `state`, returning the predicted
    /// iterate.
    fn predict(inst: &UfcInstance, state: &AdmgState) -> AdmgState {
        let pool = WorkerPool::new(1);
        let mut ws = SolverWorkspace::new(inst, &AdmgSettings::default());
        ws.predict_lambda(state, &pool);
        ws.predict_site_blocks(inst, state, &pool, true, true)
            .unwrap();
        ws.tilde
    }

    /// The same round through the reference step functions (dense active
    /// set).
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

    /// The workspace round matches the reference steps exactly on the
    /// closed-form μ/ν/d steps, which run before any QP, and to solver
    /// precision on λ, a and the duals.
    fn assert_matches_reference(inst: &UfcInstance, state: &AdmgState) -> AdmgState {
        let expected = reference(inst, AdmgSettings::default().rho, state);
        let tilde = predict(inst, state);
        assert_eq!(tilde.mu, expected.mu);
        assert_eq!(tilde.nu, expected.nu);
        assert_eq!(tilde.d, expected.d);
        assert_close(&tilde.lambda, &expected.lambda, "lambda");
        assert_close(&tilde.a, &expected.a, "a");
        assert_close(&tilde.phi, &expected.phi, "phi");
        assert_close(&tilde.varphi, &expected.varphi, "varphi");
        tilde
    }

    /// The fused workspace prediction reproduces the five reference step
    /// functions from the zero state.
    #[test]
    fn predict_matches_reference_steps_on_cold_state() {
        let inst = tiny();
        assert_matches_reference(&inst, &AdmgState::zeros(&inst));
    }

    /// The same from a nonzero state.
    #[test]
    fn predict_baseline_path_matches_reference_steps() {
        let inst = tiny();
        let mut state = AdmgState::zeros(&inst);
        state.a = vec![0.4, 0.6, 1.5, 0.5];
        state.varphi = vec![0.1, -0.2, 0.05, 0.3];
        state.phi = vec![0.2, -0.1];
        assert_matches_reference(&inst, &state);
    }

    /// On a storage instance the fused datacenter phase reproduces the five
    /// reference step functions — μ bounds from the ramp limit, the
    /// fresh-d storage solve, and the d-aware drift and duals — from a
    /// nonzero state.
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
        let tilde = assert_matches_reference(&inst, &state);
        assert!(
            tilde.d.iter().any(|&d| d != 0.0),
            "storage block should engage"
        );
        // Ramp limit binds: μ̃ stays inside the [μ_prev ± ramp] box.
        for j in 0..2 {
            assert!(tilde.mu[j] <= 0.3 + 1e-12);
        }
    }

    /// The kernels carry nothing between solves: repeated rounds from the
    /// same state on one workspace are bit-identical to a fresh
    /// workspace's first round.
    #[test]
    fn repeated_predictions_are_bit_identical() {
        let inst = tiny();
        let mut state = AdmgState::zeros(&inst);
        state.a = vec![0.4, 0.6, 1.5, 0.5];
        state.varphi = vec![0.1, -0.2, 0.05, 0.3];
        let fresh = predict(&inst, &state);
        let pool = WorkerPool::new(1);
        let mut ws = SolverWorkspace::new(&inst, &AdmgSettings::default());
        for _ in 0..3 {
            ws.predict_lambda(&state, &pool);
            ws.predict_site_blocks(&inst, &state, &pool, true, true)
                .unwrap();
            assert_eq!(ws.tilde.lambda, fresh.lambda);
            assert_eq!(ws.tilde.a, fresh.a);
            assert_eq!(ws.tilde.varphi, fresh.varphi);
        }
        assert_eq!(ws.counters(), SolverCounters::default());
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

    /// The invariant at scale: with the sharded gather, prediction rounds
    /// on a 512×16 instance are bit-identical at 1, 2, 4 and 8 worker
    /// threads. `exact` pools bypass the core-count clamp so the
    /// multi-shard spawn path genuinely runs regardless of the host
    /// machine.
    #[test]
    fn scaled_predictions_bit_identical_across_thread_counts() {
        let inst = scaled(512, 16);
        let settings = AdmgSettings::default();
        let mut reference: Option<AdmgState> = None;
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::exact(threads);
            let mut ws = SolverWorkspace::new(&inst, &settings);
            let mut state = AdmgState::zeros(&inst);
            for _ in 0..3 {
                ws.predict_lambda(&state, &pool);
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

    /// The congested a-step's gate: an infeasible warm column falls back
    /// to the classic zero start, so its solve matches the unseeded one
    /// bit for bit; a feasible one is accepted and lands on the same point.
    #[test]
    fn warm_start_gate_rejects_infeasible_points() {
        let queueing = QueueingCost::default_interactive();
        let mut qp = AColQp::new(2, 8.0, 0.12, 2.0, Some(queueing));
        let c = vec![-3.0, -2.5];
        let cold = qp.solve(&c, None).unwrap();
        let gated = qp.solve(&c, Some(&[5.0, 5.0])).unwrap();
        assert_eq!(cold, gated);
        let warm = qp.solve(&c, Some(&cold.clone())).unwrap();
        for (a, b) in cold.iter().zip(&warm) {
            assert!((a - b).abs() < 1e-6, "{cold:?} vs {warm:?}");
        }
        let mut counters = SolverCounters::default();
        qp.add_counters(&mut counters);
        assert_eq!(
            (counters.warm_starts_accepted, counters.warm_starts_rejected),
            (1, 1)
        );
    }
}
