//! The in-process solver's hot path: the exact per-block kernels every
//! node builds, and [`InProcessTransport`], which steps one node per block
//! on a [`WorkerPool`].
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
//! * **Congested a-column** (queueing extension). The column gains
//!   `Q_j(Σa)`, convex and increasing, over the shrunk cap `S_q`. The
//!   minimizer keeps the form `a_i = max(0, x_i − τ)`, now with
//!   `τ = β²s + Q′_j(s)/ρ` at the load `s = Σa`, so `s` solves the scalar
//!   equation `s = Σ max(0, x_i − τ(s))`, whose right side never rises with
//!   `s`: bisection over the sorted breakpoints finds it to rounding, or
//!   the cap binds and τ is the threshold at `S_q`.
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
//!   buffers it overwrites. Every engine builds its kernels through
//!   [`crate::node`], so every node — in process, on a distributed engine,
//!   respawned or restored — produces the same bits.
//! * Ties among breakpoints cannot change a result: the sorts use
//!   [`f64::total_cmp`], a total order under which tied entries are equal
//!   bit patterns, so the sorted sequence — and every prefix sum — is
//!   unique.
//! * Zero-arrival rows and zero-capacity columns return zeros before any
//!   arithmetic (their feasible set is the single point 0).
//! * Poison: otherwise a non-finite linear term, or any non-finite
//!   intermediate value, yields an all-NaN block, as `project_simplex`
//!   does — never an error and never a panic, on every kernel, congested
//!   or not. The divergence gate of `engine::drive` then sees NaN
//!   residuals (and `divergence_rollback` can repair the run).

use ufc_model::{utility::disutility_rank1_gamma, QueueingCost, UfcInstance};
use ufc_opt::projection::simplex_threshold;

use crate::engine::{BlockResiduals, BlockSchedule, Transport};
use crate::node::{DatacenterNode, FrontendNode, NodeResiduals};
use crate::pool::WorkerPool;
use crate::{AdmgSettings, AdmgState, Result};

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

/// Kernel for one datacenter's a-QP column (paper Eq. (20)):
/// `min ½ρ‖a‖² + ½ρβ²(1ᵀa)² + cᵀa` over `{a ≥ 0, 1ᵀa ≤ S_j}`, optionally
/// plus the queueing extension's congestion cost `Q_j(1ᵀa)` over its
/// shrunk cap.
#[derive(Debug, Clone)]
pub struct AColQp {
    m: usize,
    rho: f64,
    beta_sq: f64,
    capacity: f64,
    queueing: Option<QueueingCost>,
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
        AColQp {
            m,
            rho,
            beta_sq: beta * beta,
            capacity,
            queueing,
            sorted: Vec::with_capacity(m),
        }
    }

    /// Solves the column for linear term `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c.len()` differs from the column's length.
    #[must_use]
    pub fn solve(&mut self, c: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.solve_into(c, &mut out);
        out
    }

    /// [`Self::solve`] into a caller-owned output buffer.
    ///
    /// # Panics
    ///
    /// As for [`Self::solve`].
    pub fn solve_into(&mut self, c: &[f64], out: &mut Vec<f64>) {
        assert_eq!(c.len(), self.m, "linear term length mismatch");
        out.clear();
        out.resize(self.m, 0.0);
        // Zero-capacity datacenter: the capped simplex is the singleton {0}
        // (rounding in the cap step would leave ulp-sized shares on ties).
        if self.capacity == 0.0 {
            return;
        }
        if !self.solve_column(c, out) {
            out.fill(f64::NAN);
        }
    }

    /// Writes the minimizer `a_i = max(0, (x_i − x₀) − τ)` into `out`, with
    /// τ measured from the offset `x₀` its threshold returns; `false` on
    /// poison.
    fn solve_column(&mut self, c: &[f64], out: &mut [f64]) -> bool {
        if c.iter().any(|v| !v.is_finite()) {
            return false;
        }
        let rho = self.rho;
        self.sorted.clear();
        self.sorted.extend(c.iter().map(|&ci| -ci / rho));
        self.sorted.sort_unstable_by(|a, b| b.total_cmp(a));
        let threshold = match self.queueing {
            None => self.quadratic_threshold(c).map(|tau| (0.0, tau)),
            Some(q) => self.congested_threshold(&q),
        };
        let Some((x0, tau)) = threshold else {
            return false;
        };
        for (a, &ci) in out.iter_mut().zip(c) {
            *a = pos(-ci / rho - x0 - tau);
        }
        out.iter().all(|v| v.is_finite())
    }

    /// The quadratic column's τ: uncapped, `τ = β²·Σ max(0, x_i − τ)`.
    /// With the k largest entries active, `τ_k = β²·X_k/(1 + β²k)`; entry
    /// k is active iff it exceeds `τ_{k+1}`, a test that fails for good
    /// once it fails. When that point overfills the cap, τ solves
    /// `Σ max(0, x_i − τ) = S_j` instead.
    fn quadratic_threshold(&self, c: &[f64]) -> Option<f64> {
        let (b2, rho) = (self.beta_sq, self.rho);
        let (mut tau, mut prefix) = (0.0, 0.0);
        for (k, &xk) in self.sorted.iter().enumerate() {
            let p = prefix + xk;
            let cand = b2 * p / (1.0 + b2 * (k + 1) as f64);
            if xk <= cand {
                break;
            }
            (tau, prefix) = (cand, p);
        }
        let load = c.iter().fold(0.0, |load, &ci| load + pos(-ci / rho - tau));
        if load > self.capacity {
            simplex_threshold(&self.sorted, self.capacity)
        } else {
            Some(tau)
        }
    }

    /// The congested column's offset and τ. Its KKT conditions give
    /// `τ(s) = β²s + Q′(s)/ρ` at the load `s = Σa`, so `s` solves
    /// `s = Σ max(0, x_i − τ(s))`; the right side never rises with `s`, so
    /// the root is unique, and deterministic bisection finds it to rounding.
    /// The load is 0 when `τ(0)` already clears every breakpoint. When the
    /// root would pass the shrunk cap `S_q`, the cap binds: `s = S_q`, τ is
    /// the simplex threshold at `S_q`, and the cap's multiplier is
    /// `ρ·(τ − τ(S_q)) ≥ 0`. That threshold is taken over the breakpoints
    /// less the largest, `x₀`: the barrier prices binding columns at
    /// breakpoints far above `S_q`, and shares measured from `x₀` keep the
    /// precision of the cap rather than of the breakpoints, so the load
    /// meets `S_q` to rounding.
    fn congested_threshold(&mut self, q: &QueueingCost) -> Option<(f64, f64)> {
        let (b2, rho, capacity) = (self.beta_sq, self.rho, self.capacity);
        let cap = q.load_cap(capacity).min(capacity);
        let tau_at = |s: f64| b2 * s + q.derivative(s, capacity) / rho;
        let sorted = &self.sorted;
        let load_at = |tau: f64| -> f64 {
            sorted
                .iter()
                .take_while(|&&x| x > tau)
                .map(|&x| x - tau)
                .sum()
        };
        // The root lies in (0, free]: the right side only falls from
        // `free`, its value at s = 0.
        let free = load_at(tau_at(0.0));
        if free == 0.0 {
            return Some((0.0, tau_at(0.0)));
        }
        if !free.is_finite() {
            return None;
        }
        if free <= cap || load_at(tau_at(cap)) <= cap {
            let (mut lo, mut hi) = (0.0, free.min(cap));
            loop {
                let mid = lo + 0.5 * (hi - lo);
                if mid <= lo || mid >= hi {
                    break;
                }
                if load_at(tau_at(mid)) > mid {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            // τ at the upper end keeps the load at or below the root.
            return Some((0.0, tau_at(hi)));
        }
        let x0 = self.sorted[0];
        for x in &mut self.sorted {
            *x -= x0;
        }
        simplex_threshold(&self.sorted, cap).map(|tau| (x0, tau))
    }
}

/// The in-process transport: one [`FrontendNode`] per front-end and one
/// [`DatacenterNode`] per datacenter — the nodes every distributed engine
/// steps — run on a [`WorkerPool`]. Each iteration is two pool maps, the
/// front-end predictions and then the datacenter steps (which carry the
/// datacenter side of the correction); the front-end correction runs
/// inline. The shares cross between the two sides through two flat
/// buffers, so the nodes' clean path allocates nothing per iteration.
pub(crate) struct InProcessTransport<'a> {
    instance: &'a UfcInstance,
    pool: &'a WorkerPool,
    frontends: Vec<FrontendNode>,
    datacenters: Vec<DatacenterNode>,
    /// `λ̃` by column: datacenter `j` reads `columns[j·M..(j+1)·M]`.
    columns: Vec<f64>,
    /// `ã` by row: front-end `i` reads `rows[i·N..(i+1)·N]`.
    rows: Vec<f64>,
    dc_residuals: Vec<NodeResiduals>,
    /// The iterate gathered back from the nodes: the objective's input,
    /// and the final state.
    state: AdmgState,
}

impl<'a> InProcessTransport<'a> {
    /// Builds the nodes for `instance` and loads them from `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not shaped for `instance`.
    pub(crate) fn new(
        instance: &'a UfcInstance,
        settings: &AdmgSettings,
        start: AdmgState,
        pool: &'a WorkerPool,
        active_mu: bool,
        active_nu: bool,
    ) -> Self {
        let (m, n) = (instance.m_frontends(), instance.n_datacenters());
        let mut transport = InProcessTransport {
            instance,
            pool,
            frontends: (0..m)
                .map(|i| FrontendNode::new(instance, i, settings))
                .collect(),
            datacenters: (0..n)
                .map(|j| DatacenterNode::new(instance, j, settings, active_mu, active_nu))
                .collect(),
            columns: vec![0.0; m * n],
            rows: vec![0.0; m * n],
            dc_residuals: vec![NodeResiduals::default(); n],
            state: start,
        };
        transport.load();
        transport
    }

    /// Loads every node's slice of `self.state`.
    fn load(&mut self) {
        for fe in &mut self.frontends {
            fe.load(&self.state);
        }
        for dc in &mut self.datacenters {
            dc.load(&self.state);
        }
    }

    /// The final corrected iterate, gathered from the nodes.
    pub(crate) fn into_state(mut self) -> AdmgState {
        for fe in &self.frontends {
            fe.store(&mut self.state);
        }
        for dc in &self.datacenters {
            dc.store(&mut self.state);
        }
        self.state
    }
}

impl Transport for InProcessTransport<'_> {
    fn schedule(&self) -> BlockSchedule {
        BlockSchedule::for_instance(self.instance)
    }

    fn predict_lambda(&mut self, _k: usize) -> Result<()> {
        self.pool.map_mut(&mut self.frontends, |_, fe| {
            fe.predict_lambda();
        });
        let m = self.frontends.len();
        for (i, fe) in self.frontends.iter().enumerate() {
            for (column, &v) in self.columns.chunks_exact_mut(m).zip(fe.lambda_tilde()) {
                column[i] = v;
            }
        }
        Ok(())
    }

    fn step_datacenters(&mut self, _k: usize) -> Result<()> {
        let (m, n) = (self.frontends.len(), self.datacenters.len());
        let columns = &self.columns;
        self.dc_residuals = self.pool.map_mut(&mut self.datacenters, |j, dc| {
            dc.process(&columns[j * m..(j + 1) * m]).residuals
        });
        for (j, dc) in self.datacenters.iter().enumerate() {
            for (row, &v) in self.rows.chunks_exact_mut(n).zip(dc.a_tilde()) {
                row[j] = v;
            }
        }
        Ok(())
    }

    fn correct(&mut self, _k: usize) -> Result<BlockResiduals> {
        let n = self.datacenters.len();
        let mut reduced = BlockResiduals::default();
        for (fe, row) in self.frontends.iter_mut().zip(self.rows.chunks_exact(n)) {
            fe.receive_a_and_correct(row).fold_into(&mut reduced);
        }
        for r in &self.dc_residuals {
            r.fold_into(&mut reduced);
        }
        Ok(reduced)
    }

    fn objective(&mut self) -> Option<f64> {
        let n = self.datacenters.len();
        for (row, fe) in self.state.lambda.chunks_exact_mut(n).zip(&self.frontends) {
            row.copy_from_slice(fe.lambda());
        }
        for (j, dc) in self.datacenters.iter().enumerate() {
            self.state.mu[j] = dc.mu();
            self.state.nu[j] = dc.nu();
            self.state.d[j] = dc.d();
        }
        Some(self.state.objective(self.instance))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correction::gaussian_back_substitution;
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

    /// One node round (predict, datacenter step, front-end correction)
    /// through the in-process transport.
    fn step(t: &mut InProcessTransport<'_>) {
        t.predict_lambda(1).unwrap();
        t.step_datacenters(1).unwrap();
        t.correct(1).unwrap();
    }

    /// One node round from `state` on fresh nodes, returning the corrected
    /// iterate.
    fn round(inst: &UfcInstance, state: &AdmgState) -> AdmgState {
        let pool = WorkerPool::new(1);
        let settings = AdmgSettings::default();
        let mut t = InProcessTransport::new(inst, &settings, state.clone(), &pool, true, true);
        step(&mut t);
        t.into_state()
    }

    /// The same round through the reference step functions (dense active
    /// set) and the closed-form correction, returning the prediction and
    /// the corrected iterate.
    fn reference(inst: &UfcInstance, state: &AdmgState) -> (AdmgState, AdmgState) {
        let settings = AdmgSettings::default();
        let rho = settings.rho;
        let lt = lambda_step(inst, rho, state).unwrap();
        let mt = mu_step(inst, rho, state, true);
        let nt = nu_step(inst, rho, state, &mt, true);
        let dt = storage_step(inst, rho, state, &mt, &nt);
        let at = a_step(inst, rho, state, &lt, &mt, &nt, &dt).unwrap();
        let (pt, vt) = dual_step(inst, rho, state, &lt, &mt, &nt, &dt, &at);
        let tilde = AdmgState {
            lambda: lt,
            mu: mt,
            nu: nt,
            d: dt,
            a: at,
            phi: pt,
            varphi: vt,
            ..state.clone()
        };
        let mut next = state.clone();
        gaussian_back_substitution(inst, &mut next, &tilde, settings.epsilon, true, true);
        (tilde, next)
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

    /// A node round matches the reference steps followed by
    /// `correction::gaussian_back_substitution` — the closed form that
    /// `generic` checks against the explicit `G` matrix — to the exact
    /// kernels' precision against the dense active set.
    fn assert_matches_reference(inst: &UfcInstance, state: &AdmgState) -> AdmgState {
        let (tilde, expected) = reference(inst, state);
        let next = round(inst, state);
        assert_close(&next.lambda, &expected.lambda, "lambda");
        assert_close(&next.mu, &expected.mu, "mu");
        assert_close(&next.nu, &expected.nu, "nu");
        assert_close(&next.d, &expected.d, "d");
        assert_close(&next.a, &expected.a, "a");
        assert_close(&next.phi, &expected.phi, "phi");
        assert_close(&next.varphi, &expected.varphi, "varphi");
        tilde
    }

    /// A node round from the zero state.
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

    /// On a storage instance the node round reproduces the reference —
    /// μ bounds from the ramp limit, the fresh-d storage solve, the d-aware
    /// drift, duals and correction — from a nonzero state whose balance
    /// duals price power above the fuel cells' cost, so the ramp binds.
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
        state.phi = vec![-90.0, -95.0];
        state.nu = vec![0.3, 0.2];
        state.d = vec![0.05, -0.1];
        let tilde = assert_matches_reference(&inst, &state);
        assert!(
            tilde.d.iter().any(|&d| d != 0.0),
            "storage block should engage"
        );
        // The ramp binds: μ̃ sits on the top of the [μ_prev ± ramp] box.
        assert_eq!(tilde.mu, vec![0.3, 0.3], "ramp should bind");
    }

    /// The kernels carry nothing between solves: rounds from the same
    /// state, reloaded into the same nodes, are bit-identical to fresh
    /// nodes' first round.
    #[test]
    fn repeated_predictions_are_bit_identical() {
        let inst = tiny();
        let mut state = AdmgState::zeros(&inst);
        state.a = vec![0.4, 0.6, 1.5, 0.5];
        state.varphi = vec![0.1, -0.2, 0.05, 0.3];
        let fresh = round(&inst, &state);
        let pool = WorkerPool::new(1);
        let settings = AdmgSettings::default();
        let mut t = InProcessTransport::new(&inst, &settings, state.clone(), &pool, true, true);
        for _ in 0..3 {
            t.state.clone_from(&state);
            t.load();
            step(&mut t);
            for fe in &t.frontends {
                fe.store(&mut t.state);
            }
            for dc in &t.datacenters {
                dc.store(&mut t.state);
            }
            assert_eq!(t.state, fresh);
        }
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

    /// The invariant at scale: node rounds on a 512×16 instance are
    /// bit-identical at 1, 2, 4 and 8 worker threads. `exact` pools bypass
    /// the core-count clamp so the multi-shard spawn path genuinely runs
    /// regardless of the host machine.
    #[test]
    fn scaled_predictions_bit_identical_across_thread_counts() {
        let inst = scaled(512, 16);
        let settings = AdmgSettings::default();
        let mut reference: Option<AdmgState> = None;
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::exact(threads);
            let start = AdmgState::zeros(&inst);
            let mut t = InProcessTransport::new(&inst, &settings, start, &pool, true, true);
            for _ in 0..3 {
                step(&mut t);
            }
            let state = t.into_state();
            match &reference {
                None => reference = Some(state),
                Some(r) => assert_eq!(r, &state, "{threads} threads diverged"),
            }
        }
    }
}
