use std::sync::Arc;

use ufc_linalg::{vec_ops, Ldlt, Matrix};

use crate::cache::{CachedKkt, KktCache, Rank1Structure, RowKind};
use crate::{OptError, QuadObjective, Result};

/// Solution of a convex QP returned by [`ActiveSetQp`].
#[derive(Debug, Clone)]
pub struct QpSolution {
    /// Optimal point.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Outer active-set iterations performed.
    pub iterations: usize,
    /// Multipliers of the equality constraints (sign-free).
    pub eq_multipliers: Vec<f64>,
    /// Multipliers of the inequality constraints `Ax ≤ b`, one per row
    /// (zero for inactive rows, nonnegative at optimality).
    pub ineq_multipliers: Vec<f64>,
}

/// Exact primal active-set solver for small dense convex QPs
///
/// ```text
///     min ½ xᵀQx + cᵀx   s.t.   A_eq x = b_eq,   A_in x ≤ b_in,
/// ```
///
/// following the classical method of Nocedal & Wright §16.5. Each iteration
/// solves one equality-constrained KKT system (factored with [`Ldlt`] after a
/// quasi-definite regularization, plus one step of iterative refinement) and
/// either moves to a blocking constraint or updates the working set from the
/// multiplier signs.
///
/// This is the *exact* path used for the paper-scale sub-problems
/// (λ-minimization over an `N = 4` simplex, a-minimization over an `M = 10`
/// capped simplex, centralized reference QP with ~50 variables). For larger
/// instances use [`crate::AdmmQp`] or [`crate::Fista`].
///
/// # Example
///
/// ```
/// use ufc_linalg::Matrix;
/// use ufc_opt::{ActiveSetQp, QuadObjective};
///
/// # fn main() -> Result<(), ufc_opt::OptError> {
/// // min ½‖x‖² s.t. x₁ + x₂ = 1, x ≥ 0  ⇒  x = (½, ½).
/// let f = QuadObjective::dense(Matrix::identity(2), vec![0.0, 0.0], 0.0)?;
/// let a_eq = Matrix::from_rows(&[&[1.0, 1.0]])?;
/// let a_in = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, -1.0]])?; // −x ≤ 0
/// let sol = ActiveSetQp::default().solve(
///     &f, &a_eq, &[1.0], &a_in, &[0.0, 0.0], vec![0.5, 0.5])?;
/// assert!((sol.x[0] - 0.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ActiveSetQp {
    max_iterations: usize,
    tolerance: f64,
    /// Extra diagonal shift applied to `Q` inside the KKT solves; lets
    /// callers with merely positive *semi*-definite Hessians (e.g. the
    /// centralized UFC QP, whose μ/ν blocks are linear) obtain a solution of
    /// the shifted problem that is within `O(shift)` of the true optimum.
    hessian_shift: f64,
    /// Rank-1 fast KKT path (see [`ActiveSetQp::with_rank1_kkt`]).
    rank1_kkt: bool,
    /// Blocked LDLᵀ for the dense KKT factorizations (see
    /// [`ActiveSetQp::with_blocked_factorizations`]).
    blocked: bool,
}

impl Default for ActiveSetQp {
    /// 500 iterations, `1e-9` tolerance, no Hessian shift, fast paths off.
    fn default() -> Self {
        ActiveSetQp {
            max_iterations: 500,
            tolerance: 1e-9,
            hessian_shift: 0.0,
            rank1_kkt: false,
            blocked: false,
        }
    }
}

impl ActiveSetQp {
    /// Creates a solver with explicit iteration cap and tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `max_iterations == 0` or `tolerance <= 0`.
    #[must_use]
    pub fn new(max_iterations: usize, tolerance: f64) -> Self {
        assert!(max_iterations > 0, "need at least one iteration");
        assert!(tolerance > 0.0, "tolerance must be positive");
        ActiveSetQp {
            max_iterations,
            tolerance,
            hessian_shift: 0.0,
            rank1_kkt: false,
            blocked: false,
        }
    }

    /// Returns a copy with the given diagonal Hessian shift (see the struct
    /// docs).
    ///
    /// # Panics
    ///
    /// Panics if `shift < 0`.
    #[must_use]
    pub fn with_hessian_shift(mut self, shift: f64) -> Self {
        assert!(shift >= 0.0, "hessian shift must be nonnegative");
        self.hessian_shift = shift;
        self
    }

    /// Returns a copy with the rank-1 fast KKT path enabled or disabled
    /// (default: disabled).
    ///
    /// When enabled and the objective exposes a diagonal-plus-rank-one
    /// Hessian ([`QuadObjective::diag_rank1_parts`]), working sets made of
    /// nonnegativity bounds (`−x_j ≤ b`) and at most one all-ones row
    /// (`Σx = b` or `Σx ≤ b`) — exactly the shape of the paper's λ- and
    /// a-sub-problems — are solved in `O(n)` per iteration via
    /// Sherman–Morrison (diagonal backsolve + one rank-1 correction + one
    /// bordered ones-row elimination) instead of materializing and factoring
    /// an `O(n³)` dense KKT matrix. Working sets outside that shape fall
    /// back to the dense path automatically, so enabling the knob is always
    /// safe.
    ///
    /// The fast path solves the *same* shifted KKT system exactly (no
    /// constraint-block regularization to refine away), so its solutions
    /// agree with the dense path to solver tolerance but are **not**
    /// bit-identical to it; keep the knob off where bit-compatibility with
    /// the dense path is required.
    #[must_use]
    pub fn with_rank1_kkt(mut self, on: bool) -> Self {
        self.rank1_kkt = on;
        self
    }

    /// Returns a copy that factors dense KKT systems with the blocked
    /// (cache-tiled) LDLᵀ kernel [`Ldlt::factor_blocked`] instead of the
    /// unblocked one (default: unblocked).
    ///
    /// The blocked kernel produces bit-identical factors, so this knob never
    /// changes results — it only changes the memory-access pattern, which
    /// pays off once KKT systems reach a few hundred rows.
    #[must_use]
    pub fn with_blocked_factorizations(mut self, on: bool) -> Self {
        self.blocked = on;
        self
    }

    /// Solves the QP starting from the feasible point `x0`.
    ///
    /// # Errors
    ///
    /// * [`OptError::InvalidInput`] on shape mismatches.
    /// * [`OptError::Infeasible`] if `x0` violates the constraints beyond
    ///   `√tolerance`.
    /// * [`OptError::MaxIterations`] if the working set does not settle.
    /// * [`OptError::Linalg`] if a KKT system is singular beyond repair.
    pub fn solve(
        &self,
        f: &QuadObjective,
        a_eq: &Matrix,
        b_eq: &[f64],
        a_in: &Matrix,
        b_in: &[f64],
        x0: Vec<f64>,
    ) -> Result<QpSolution> {
        self.solve_with_cache(f, a_eq, b_eq, a_in, b_in, x0, &mut KktCache::disabled())
    }

    /// Solves the QP, memoizing KKT factorizations in `cache`.
    ///
    /// The cache is keyed by the ordered working set, so repeated solves of
    /// the *same* problem structure (identical `Q`, `a_eq`, `a_in` and
    /// Hessian shift — only `c`, `b_*` and `x0` varying) skip the dense
    /// Hessian materialization and LDLᵀ factorization on every revisited
    /// working set. Results are bit-identical to [`ActiveSetQp::solve`];
    /// callers are responsible for clearing the cache when the structure
    /// changes (see [`KktCache`]).
    ///
    /// # Errors
    ///
    /// Same as [`ActiveSetQp::solve`].
    #[allow(clippy::too_many_arguments)]
    pub fn solve_with_cache(
        &self,
        f: &QuadObjective,
        a_eq: &Matrix,
        b_eq: &[f64],
        a_in: &Matrix,
        b_in: &[f64],
        x0: Vec<f64>,
        cache: &mut KktCache,
    ) -> Result<QpSolution> {
        self.solve_seeded(f, a_eq, b_eq, a_in, b_in, x0, cache, &[])
    }

    /// Like [`ActiveSetQp::solve_with_cache`], but initializes the working
    /// set from `seed_working` instead of starting empty.
    ///
    /// Warm-started callers (the ADM-G block kernels) know which inequality
    /// rows are active at their start point — typically most of a sparse
    /// routing vector's nonnegativity bounds. Starting from an empty working
    /// set would re-discover those rows one blocking constraint (one KKT
    /// solve) at a time; seeding lets near-stationary warm starts finish in
    /// O(1) iterations. Seed rows whose constraint is not (near-)tight at
    /// `x0` are ignored, so a stale seed degrades performance, never
    /// correctness. With an empty seed this is exactly
    /// [`ActiveSetQp::solve_with_cache`].
    ///
    /// # Errors
    ///
    /// Same as [`ActiveSetQp::solve`].
    #[allow(clippy::too_many_arguments)]
    pub fn solve_seeded(
        &self,
        f: &QuadObjective,
        a_eq: &Matrix,
        b_eq: &[f64],
        a_in: &Matrix,
        b_in: &[f64],
        x0: Vec<f64>,
        cache: &mut KktCache,
        seed_working: &[usize],
    ) -> Result<QpSolution> {
        let n = f.dim();
        let me = a_eq.rows();
        let mi = a_in.rows();
        if (me > 0 && a_eq.cols() != n) || (mi > 0 && a_in.cols() != n) || x0.len() != n {
            return Err(OptError::invalid(format!(
                "QP shapes disagree: n={n}, a_eq {}x{}, a_in {}x{}, x0 len {}",
                a_eq.rows(),
                a_eq.cols(),
                a_in.rows(),
                a_in.cols(),
                x0.len()
            )));
        }
        if b_eq.len() != me || b_in.len() != mi {
            return Err(OptError::invalid(
                "right-hand side lengths disagree with constraint matrices",
            ));
        }
        let feas_tol = self.tolerance.sqrt();
        if me > 0 {
            let r = vec_ops::sub(&a_eq.matvec(&x0)?, b_eq);
            if vec_ops::norm_inf(&r) > feas_tol * (1.0 + vec_ops::norm_inf(b_eq)) {
                return Err(OptError::infeasible(format!(
                    "start point violates equalities by {:e}",
                    vec_ops::norm_inf(&r)
                )));
            }
        }
        if mi > 0 {
            let ax = a_in.matvec(&x0)?;
            for (i, (axi, bi)) in ax.iter().zip(b_in).enumerate() {
                if axi - bi > feas_tol * (1.0 + bi.abs()) {
                    return Err(OptError::infeasible(format!(
                        "start point violates inequality {i} by {:e}",
                        axi - bi
                    )));
                }
            }
        }

        let mut x = x0;
        // Membership mask kept in lockstep with `working`: the line search
        // and the seeding loop test membership per row, and a linear
        // `contains` scan per row is `O(m_i·m_w)` per iteration — ruinous at
        // the scaled instance sizes. The mask changes no arithmetic.
        let mut in_working = vec![false; mi];
        // Seed the working set with the rows that are actually tight at the
        // start point (in ascending order, deduplicated). A row that is not
        // tight cannot be in a valid working set — the KKT step assumes
        // A_W x = b_W — so such seeds are dropped rather than trusted.
        let mut working: Vec<usize> = Vec::new();
        for &ci in seed_working {
            if ci >= mi || in_working[ci] {
                continue;
            }
            let slack = b_in[ci] - vec_ops::dot(a_in.row(ci), &x);
            if slack.abs() <= feas_tol * (1.0 + b_in[ci].abs()) {
                working.push(ci);
                in_working[ci] = true;
            }
        }
        working.sort_unstable();
        let step_tol = self.tolerance;
        // Anti-cycling: after this many consecutive zero-length steps the
        // pivot choice switches to Bland's rule (lowest index), which is
        // guaranteed to escape degenerate-vertex cycles.
        let mut degenerate_steps = 0usize;
        const BLAND_THRESHOLD: usize = 12;

        // Rank-1 fast path: classify the constraint rows once (memoized in
        // the cache across solves) when the knob is on and the Hessian
        // exposes its diagonal-plus-rank-one parts.
        let structure: Option<Arc<Rank1Structure>> =
            if self.rank1_kkt && f.diag_rank1_parts().is_some() {
                Some(match cache.structure() {
                    Some(s) => Arc::clone(s),
                    None => {
                        let s = Arc::new(classify_structure(a_eq, a_in));
                        cache.set_structure(Arc::clone(&s));
                        s
                    }
                })
            } else {
                None
            };

        let mut g = vec![0.0; n];
        for iter in 0..self.max_iterations {
            f.gradient_into(&x, &mut g);
            let fast = match structure.as_deref() {
                Some(s) => self.solve_kkt_rank1(f, s, me, &working, &g)?,
                None => None,
            };
            let (p, mults) = match fast {
                Some(pm) => {
                    cache.record_rank1_solve();
                    pm
                }
                None => self.solve_kkt(f, a_eq, a_in, &working, &g, cache)?,
            };
            let use_bland = degenerate_steps >= BLAND_THRESHOLD;

            if vec_ops::norm_inf(&p) <= step_tol * (1.0 + vec_ops::norm_inf(&x)) {
                // Stationary on the working set: check inequality multipliers.
                let ineq_mults_w = &mults[me..];
                let mut min_idx = None;
                if use_bland {
                    // Bland: drop the *lowest-indexed* constraint with a
                    // clearly negative multiplier.
                    let threshold = -step_tol * (1.0 + vec_ops::norm_inf(&g));
                    let mut best_ci = usize::MAX;
                    for (k, &v) in ineq_mults_w.iter().enumerate() {
                        if v < threshold && working[k] < best_ci {
                            best_ci = working[k];
                            min_idx = Some(k);
                        }
                    }
                } else {
                    let mut min_val = -step_tol * (1.0 + vec_ops::norm_inf(&g));
                    for (k, &v) in ineq_mults_w.iter().enumerate() {
                        if v < min_val {
                            min_val = v;
                            min_idx = Some(k);
                        }
                    }
                }
                match min_idx {
                    None => {
                        // Optimal: scatter multipliers into full-length vector.
                        let mut ineq_multipliers = vec![0.0; mi];
                        for (k, &ci) in working.iter().enumerate() {
                            ineq_multipliers[ci] = ineq_mults_w[k].max(0.0);
                        }
                        return Ok(QpSolution {
                            value: f.value(&x),
                            x,
                            iterations: iter + 1,
                            eq_multipliers: mults[..me].to_vec(),
                            ineq_multipliers,
                        });
                    }
                    Some(k) => {
                        in_working[working[k]] = false;
                        working.remove(k);
                        continue;
                    }
                }
            }

            // Line search to the nearest blocking constraint. Under Bland's
            // rule ties at the minimal step resolve to the lowest index.
            // When the rank-1 structure is known, nonnegativity and ones
            // rows get `O(1)` directional derivatives and slacks (two
            // whole-vector sums hoisted out of the loop) instead of `O(n)`
            // dot products per row.
            let sums = structure
                .as_deref()
                .map(|_| (p.iter().sum::<f64>(), x.iter().sum::<f64>()));
            let mut alpha = 1.0f64;
            let mut blocking = None;
            #[allow(clippy::needless_range_loop)]
            for i in 0..mi {
                if in_working[i] {
                    continue;
                }
                let kind = structure.as_deref().map(|s| s.rows[i]);
                let d = match kind {
                    Some(RowKind::NegUnit(j)) => -p[j],
                    Some(RowKind::Ones) => sums.expect("sums precomputed with structure").0,
                    _ => vec_ops::dot(a_in.row(i), &p),
                };
                if d > step_tol {
                    let slack = match kind {
                        Some(RowKind::NegUnit(j)) => b_in[i] + x[j],
                        Some(RowKind::Ones) => {
                            b_in[i] - sums.expect("sums precomputed with structure").1
                        }
                        _ => b_in[i] - vec_ops::dot(a_in.row(i), &x),
                    };
                    let ai_step = (slack / d).max(0.0);
                    let strictly_better = ai_step < alpha - 1e-14;
                    let tie_break = use_bland
                        && (ai_step - alpha).abs() <= 1e-14
                        && blocking.is_some_and(|b| i < b);
                    if strictly_better || tie_break {
                        alpha = ai_step;
                        blocking = Some(i);
                    }
                }
            }
            if alpha <= step_tol {
                degenerate_steps += 1;
            } else {
                degenerate_steps = 0;
            }
            vec_ops::axpy(alpha, &p, &mut x);
            if let Some(i) = blocking {
                working.push(i);
                in_working[i] = true;
            }
        }
        Err(OptError::MaxIterations {
            iterations: self.max_iterations,
            residual: f64::NAN,
        })
    }

    /// Solves the equality-constrained KKT system on the current working set:
    ///
    /// ```text
    ///   [ Q + δI   A_Wᵀ ] [ p ]   [ −g ]
    ///   [ A_W     −δI   ] [ v ] = [  0 ]
    /// ```
    ///
    /// with one iterative-refinement pass against the unregularized system.
    ///
    /// The factorization (and the objective shift it was assembled with) is
    /// memoized in `cache` keyed by the ordered working set; a hit skips the
    /// dense-Hessian materialization and the LDLᵀ entirely and replays the
    /// exact factors a fresh solve would compute.
    fn solve_kkt(
        &self,
        f: &QuadObjective,
        a_eq: &Matrix,
        a_in: &Matrix,
        working: &[usize],
        g: &[f64],
        cache: &mut KktCache,
    ) -> Result<(Vec<f64>, Vec<f64>)> {
        let n = f.dim();
        let me = a_eq.rows();
        let mw = working.len();
        let m = me + mw;
        let dim = n + m;

        let mut spill = None;
        let entry = cache.get_or_build(working, &mut spill, || {
            let q = f.dense_hessian();
            let scale = q.norm_max().max(1.0);
            // Two distinct regularizations: `shift` is part of the *objective
            // operator* (also applied during refinement, so steps are
            // consistent with it — the solution is that of the shifted
            // problem), while `delta_c` merely stabilizes the LDLᵀ
            // factorization and is refined *away*, keeping `A_W p ≈ 0` so
            // iterates never drift off the working set.
            let shift = (1e-11 * scale).max(1e-12) + self.hessian_shift;
            let delta_c = (1e-11 * scale).max(1e-12);

            let mut kkt = Matrix::zeros(dim, dim);
            for i in 0..n {
                for j in 0..n {
                    kkt[(i, j)] = q[(i, j)];
                }
                kkt[(i, i)] += shift;
            }
            for r in 0..me {
                for j in 0..n {
                    kkt[(n + r, j)] = a_eq[(r, j)];
                    kkt[(j, n + r)] = a_eq[(r, j)];
                }
            }
            for (k, &ci) in working.iter().enumerate() {
                for j in 0..n {
                    kkt[(n + me + k, j)] = a_in[(ci, j)];
                    kkt[(j, n + me + k)] = a_in[(ci, j)];
                }
            }
            for r in 0..m {
                kkt[(n + r, n + r)] = -delta_c;
            }
            // The blocked kernel factors the same matrix into bit-identical
            // factors; the knob only swaps the memory-access pattern.
            let fact = if self.blocked {
                Ldlt::factor_blocked(&kkt)?
            } else {
                Ldlt::factor(&kkt)?
            };
            Ok(CachedKkt { fact, shift })
        })?;
        let fact: &Ldlt = &entry.fact;
        let shift = entry.shift;

        let mut rhs = vec![0.0; dim];
        for i in 0..n {
            rhs[i] = -g[i];
        }
        let mut sol = fact.solve(&rhs)?;

        // Two refinement passes against the operator *with* the objective
        // shift but *without* the constraint-block regularization.
        let mut corr = vec![0.0; dim];
        for _ in 0..2 {
            let residual = {
                let mut r = rhs.clone();
                let qp = f.hess_vec(&sol[..n]);
                for i in 0..n {
                    r[i] -= qp[i] + shift * sol[i];
                    for row in 0..me {
                        r[i] -= a_eq[(row, i)] * sol[n + row];
                    }
                    for (k, &ci) in working.iter().enumerate() {
                        r[i] -= a_in[(ci, i)] * sol[n + me + k];
                    }
                }
                for row in 0..me {
                    r[n + row] -= vec_ops::dot(a_eq.row(row), &sol[..n]);
                }
                for (k, &ci) in working.iter().enumerate() {
                    r[n + me + k] -= vec_ops::dot(a_in.row(ci), &sol[..n]);
                }
                r
            };
            fact.solve_into(&residual, &mut corr)?;
            vec_ops::axpy(1.0, &corr, &mut sol);
        }

        let p = sol[..n].to_vec();
        let v = sol[n..].to_vec();
        Ok((p, v))
    }

    /// `O(n)` Sherman–Morrison solve of the working-set KKT system for
    /// diagonal-plus-rank-one Hessians with simplex-shaped constraints.
    ///
    /// With the working set made of nonnegativity bounds (pinning a set `P`
    /// of coordinates to their bound) plus at most one all-ones row, the KKT
    /// system reduces to the free coordinates `F = {0..n} \ P`:
    ///
    /// ```text
    ///   K p_F + v₁·1 = −g_F,   1ᵀ p_F = 0   (ones row active)
    ///   K p_F        = −g_F                 (no ones row)
    /// ```
    ///
    /// with `K = diag(d_F + δ) + γ u_F u_Fᵀ`, where `δ` is the same
    /// objective-operator shift the dense path uses. `K⁻¹z` is two diagonal
    /// passes plus a rank-1 correction (Sherman–Morrison), the bordered
    /// ones row is eliminated in closed form
    /// (`v₁ = −(1ᵀK⁻¹g)/(1ᵀK⁻¹1)`), and the multipliers of the pinned rows
    /// come from the stationarity rows of the pinned coordinates. Unlike
    /// the dense path there is no constraint-block regularization to refine
    /// away — the shifted system is solved exactly — so the result matches
    /// the dense path to solver tolerance, not bitwise.
    ///
    /// Returns `Ok(None)` when the working set leaves the supported shape
    /// (an `Other` row, two simultaneous ones rows, a non-ones equality, or
    /// a degenerate denominator): the caller falls back to the dense path.
    fn solve_kkt_rank1(
        &self,
        f: &QuadObjective,
        s: &Rank1Structure,
        me: usize,
        working: &[usize],
        g: &[f64],
    ) -> Result<Option<(Vec<f64>, Vec<f64>)>> {
        let Some((d, gamma, u)) = f.diag_rank1_parts() else {
            return Ok(None);
        };
        if me > 1 || (me == 1 && !s.eq_ones) {
            return Ok(None);
        }
        let n = d.len();
        let mut pinned = vec![false; n];
        let mut ones_in_working = false;
        for &ci in working {
            match s.rows[ci] {
                RowKind::NegUnit(j) => pinned[j] = true,
                RowKind::Ones if !ones_in_working => ones_in_working = true,
                // An `Other` row, or a second ones row (the pair would make
                // the working-set rows linearly dependent): dense fallback.
                _ => return Ok(None),
            }
        }
        if me == 1 && ones_in_working {
            // `Σx = b` equality plus an active `Σx ≤ cap` row: linearly
            // dependent, only the regularized dense path copes.
            return Ok(None);
        }
        let ones_active = me == 1 || ones_in_working;

        // Same objective-operator shift as the dense path. For `d ≥ 0`,
        // `γ ≥ 0` the largest dense-Hessian entry sits on the diagonal, so
        // `max_i(d_i + γu_i²)` equals the dense path's `norm_max` scale.
        let mut scale = 0.0f64;
        for (di, ui) in d.iter().zip(u) {
            scale = scale.max(di + gamma * ui * ui);
        }
        let shift = (1e-11 * scale.max(1.0)).max(1e-12) + self.hessian_shift;

        // Sherman–Morrison inverse of K = diag(d_F + δ) + γ u_F u_Fᵀ:
        //   K⁻¹z = D⁻¹z − γ(uᵀD⁻¹z)/(1 + γuᵀD⁻¹u) · D⁻¹u.
        let mut ud_u = 0.0;
        let mut ud_g = 0.0;
        let mut ud_1 = 0.0;
        for i in 0..n {
            if pinned[i] {
                continue;
            }
            let di = d[i] + shift;
            ud_u += u[i] * u[i] / di;
            ud_g += u[i] * g[i] / di;
            ud_1 += u[i] / di;
        }
        let denom = 1.0 + gamma * ud_u;
        if !denom.is_finite() || denom <= 0.0 {
            return Ok(None);
        }
        let cg = gamma * ud_g / denom;
        let c1 = gamma * ud_1 / denom;

        let mut v_ones = 0.0;
        if ones_active {
            // Bordered elimination of the ones row: 1ᵀ p_F = 0.
            let mut s_g = 0.0; // 1ᵀ K⁻¹ g
            let mut s_1 = 0.0; // 1ᵀ K⁻¹ 1
            for i in 0..n {
                if pinned[i] {
                    continue;
                }
                let di = d[i] + shift;
                s_g += (g[i] - cg * u[i]) / di;
                s_1 += (1.0 - c1 * u[i]) / di;
            }
            // K ≻ 0 makes 1ᵀK⁻¹1 > 0 whenever F is nonempty; anything else
            // (all coordinates pinned, or overflow) is degenerate.
            if !(s_1.is_finite() && s_1 > 0.0) {
                return Ok(None);
            }
            v_ones = -s_g / s_1;
            if !v_ones.is_finite() {
                return Ok(None);
            }
        }

        // p_F = −K⁻¹(g_F + v₁·1_F), p_P = 0.
        let mut p = vec![0.0; n];
        let mut u_dot_p = 0.0;
        for i in 0..n {
            if pinned[i] {
                continue;
            }
            let di = d[i] + shift;
            let pi = -((g[i] - cg * u[i]) / di + v_ones * (1.0 - c1 * u[i]) / di);
            p[i] = pi;
            u_dot_p += u[i] * pi;
        }

        // Multipliers in the dense path's layout: equalities first, then
        // working rows in working-set order. A pinned coordinate's
        // stationarity row gives its bound multiplier directly:
        //   (d_j+δ)·0 + γu_j(uᵀp) + [ones]·v₁ − v_j = −g_j.
        let mut mults = vec![0.0; me + working.len()];
        if me == 1 {
            mults[0] = v_ones;
        }
        let ones_term = if ones_active { v_ones } else { 0.0 };
        for (k, &ci) in working.iter().enumerate() {
            mults[me + k] = match s.rows[ci] {
                RowKind::NegUnit(j) => g[j] + gamma * u[j] * u_dot_p + ones_term,
                RowKind::Ones => v_ones,
                RowKind::Other => unreachable!("Other rows force the dense fallback above"),
            };
        }
        Ok(Some((p, mults)))
    }
}

/// Classifies the constraint matrices for the rank-1 fast KKT path.
///
/// Entries are compared exactly (`== 1.0`, `== −1.0`, `== 0.0`): the λ/a
/// sub-problem constraint matrices are built from those literals, and an
/// exact match is the only guarantee that the `O(1)` line-search shortcuts
/// compute the same quantity the dense dot product would.
fn classify_structure(a_eq: &Matrix, a_in: &Matrix) -> Rank1Structure {
    let eq_ones = a_eq.rows() == 1 && a_eq.row(0).iter().all(|&v| v == 1.0);
    let rows = (0..a_in.rows())
        .map(|i| {
            let r = a_in.row(i);
            if !r.is_empty() && r.iter().all(|&v| v == 1.0) {
                return RowKind::Ones;
            }
            let mut neg = None;
            for (j, &v) in r.iter().enumerate() {
                if v == -1.0 {
                    if neg.is_some() {
                        return RowKind::Other;
                    }
                    neg = Some(j);
                } else if v != 0.0 {
                    return RowKind::Other;
                }
            }
            match neg {
                Some(j) => RowKind::NegUnit(j),
                None => RowKind::Other,
            }
        })
        .collect();
    Rank1Structure { eq_ones, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection::project_simplex;

    fn nonneg_rows(n: usize) -> (Matrix, Vec<f64>) {
        // −x ≤ 0 encoded row-wise.
        let a = Matrix::from_fn(n, n, |i, j| if i == j { -1.0 } else { 0.0 });
        (a, vec![0.0; n])
    }

    #[test]
    fn unconstrained_newton_step() {
        let f =
            QuadObjective::dense(Matrix::from_diag(&[2.0, 4.0]), vec![-2.0, -8.0], 0.0).unwrap();
        let sol = ActiveSetQp::default()
            .solve(
                &f,
                &Matrix::zeros(0, 2),
                &[],
                &Matrix::zeros(0, 2),
                &[],
                vec![0.0, 0.0],
            )
            .unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-8);
        assert!((sol.x[1] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn equality_constrained_projection() {
        // min ½‖x − (2,0)‖² s.t. x₁ + x₂ = 1 ⇒ x = (1.5, −0.5).
        let f = QuadObjective::dense(Matrix::identity(2), vec![-2.0, 0.0], 2.0).unwrap();
        let a_eq = Matrix::from_rows(&[&[1.0, 1.0]]).unwrap();
        let sol = ActiveSetQp::default()
            .solve(&f, &a_eq, &[1.0], &Matrix::zeros(0, 2), &[], vec![0.5, 0.5])
            .unwrap();
        assert!((sol.x[0] - 1.5).abs() < 1e-8);
        assert!((sol.x[1] + 0.5).abs() < 1e-8);
        // Multiplier: g + Aᵀv = 0 at x*: g = x − (2,0) = (−0.5, −0.5) ⇒ v = 0.5.
        assert!((sol.eq_multipliers[0] - 0.5).abs() < 1e-7);
    }

    #[test]
    fn simplex_qp_matches_projection_operator() {
        // min ½‖x − t‖² over the simplex == projection of t.
        let t = [1.2, 0.4, -0.6, 0.1];
        let f =
            QuadObjective::dense(Matrix::identity(4), t.iter().map(|v| -v).collect(), 0.0).unwrap();
        let a_eq = Matrix::from_rows(&[&[1.0; 4]]).unwrap();
        let (a_in, b_in) = nonneg_rows(4);
        let sol = ActiveSetQp::default()
            .solve(&f, &a_eq, &[1.0], &a_in, &b_in, vec![0.25; 4])
            .unwrap();
        let expected = project_simplex(&t, 1.0);
        assert!(vec_ops::dist2(&sol.x, &expected) < 1e-7, "{:?}", sol.x);
        // Multipliers of active nonnegativity constraints are nonnegative.
        assert!(sol.ineq_multipliers.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn activates_and_releases_constraints() {
        // min (x₁−3)² + (x₂−2)² s.t. x ≤ (1, 5): only the first bound binds.
        let f =
            QuadObjective::dense(Matrix::from_diag(&[2.0, 2.0]), vec![-6.0, -4.0], 13.0).unwrap();
        let a_in = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let sol = ActiveSetQp::default()
            .solve(
                &f,
                &Matrix::zeros(0, 2),
                &[],
                &a_in,
                &[1.0, 5.0],
                vec![0.0, 0.0],
            )
            .unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-8);
        assert!((sol.x[1] - 2.0).abs() < 1e-8);
        assert!(sol.ineq_multipliers[0] > 1.0); // active with positive multiplier
        assert!(sol.ineq_multipliers[1].abs() < 1e-8);
    }

    #[test]
    fn rejects_infeasible_start() {
        let f = QuadObjective::dense(Matrix::identity(1), vec![0.0], 0.0).unwrap();
        let a_eq = Matrix::from_rows(&[&[1.0]]).unwrap();
        let err = ActiveSetQp::default()
            .solve(&f, &a_eq, &[1.0], &Matrix::zeros(0, 1), &[], vec![0.0])
            .unwrap_err();
        assert!(matches!(err, OptError::Infeasible { .. }));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let f = QuadObjective::dense(Matrix::identity(2), vec![0.0; 2], 0.0).unwrap();
        let a_eq = Matrix::from_rows(&[&[1.0, 1.0, 1.0]]).unwrap();
        let err = ActiveSetQp::default()
            .solve(&f, &a_eq, &[1.0], &Matrix::zeros(0, 2), &[], vec![0.0; 2])
            .unwrap_err();
        assert!(matches!(err, OptError::InvalidInput { .. }));
    }

    #[test]
    fn semidefinite_hessian_with_shift() {
        // Pure linear objective over the simplex: min cᵀx ⇒ vertex with min c.
        let q = Matrix::zeros(3, 3);
        let f = QuadObjective::dense(q, vec![3.0, 1.0, 2.0], 0.0).unwrap();
        let a_eq = Matrix::from_rows(&[&[1.0; 3]]).unwrap();
        let (a_in, b_in) = nonneg_rows(3);
        let sol = ActiveSetQp::new(1000, 1e-9)
            .with_hessian_shift(1e-7)
            .solve(&f, &a_eq, &[1.0], &a_in, &b_in, vec![1.0 / 3.0; 3])
            .unwrap();
        assert!((sol.x[1] - 1.0).abs() < 1e-4, "{:?}", sol.x);
    }

    #[test]
    fn cached_solves_are_bit_identical_to_fresh() {
        // Repeated solves with the same Hessian but varying linear terms —
        // exactly the ADM-G iteration pattern the cache exists for.
        let a_eq = Matrix::from_rows(&[&[1.0; 4]]).unwrap();
        let (a_in, b_in) = nonneg_rows(4);
        let mut cache = KktCache::default();
        for round in 0..5 {
            let c: Vec<f64> = (0..4).map(|i| (i as f64 - round as f64) * 0.3).collect();
            let f = QuadObjective::diag_rank1(vec![1.0; 4], 0.5, vec![1.0, 2.0, 0.5, 1.5], c, 0.0);
            let fresh = ActiveSetQp::default()
                .solve(&f, &a_eq, &[1.0], &a_in, &b_in, vec![0.25; 4])
                .unwrap();
            let cached = ActiveSetQp::default()
                .solve_with_cache(&f, &a_eq, &[1.0], &a_in, &b_in, vec![0.25; 4], &mut cache)
                .unwrap();
            assert_eq!(fresh.x, cached.x, "round {round}");
            assert_eq!(fresh.value.to_bits(), cached.value.to_bits());
            assert_eq!(fresh.iterations, cached.iterations);
            assert_eq!(fresh.ineq_multipliers, cached.ineq_multipliers);
        }
        assert!(cache.hits() > 0, "later rounds must hit the memo");
    }

    #[test]
    fn seeded_solve_matches_unseeded_and_ignores_stale_seeds() {
        // a-QP shape: x ≥ 0, Σx ≤ cap, start at a vertex with known support.
        let n = 6;
        let f = QuadObjective::diag_rank1(
            vec![1.0; n],
            0.4,
            vec![1.0; n],
            vec![-0.9, 0.3, -0.1, 0.5, -0.7, 0.2],
            0.0,
        );
        let mut a_in = Matrix::zeros(n + 1, n);
        let mut b_in = vec![0.0; n + 1];
        for i in 0..n {
            a_in[(i, i)] = -1.0;
            a_in[(n, i)] = 1.0;
        }
        b_in[n] = 1.5;
        let no_eq = Matrix::zeros(0, n);
        let plain = ActiveSetQp::default()
            .solve(&f, &no_eq, &[], &a_in, &b_in, vec![0.0; n])
            .unwrap();
        // Restart from the solution, seeding its zero rows: must finish in
        // one outer iteration at (numerically) the same point.
        let x0 = plain.x.clone();
        let seed: Vec<usize> = (0..n).filter(|&i| x0[i].abs() <= 1e-9).collect();
        assert!(!seed.is_empty(), "test problem should have inactive rows");
        let seeded = ActiveSetQp::default()
            .solve_seeded(
                &f,
                &no_eq,
                &[],
                &a_in,
                &b_in,
                x0,
                &mut KktCache::disabled(),
                &seed,
            )
            .unwrap();
        assert!(vec_ops::dist2(&seeded.x, &plain.x) < 1e-14);
        assert!(
            seeded.iterations <= 2,
            "seed should skip the build-up phase"
        );
        // Stale / out-of-range seeds are dropped, not trusted: seeding rows
        // that are slack at an interior start must not change the result.
        let stale = ActiveSetQp::default()
            .solve_seeded(
                &f,
                &no_eq,
                &[],
                &a_in,
                &b_in,
                vec![0.1; n],
                &mut KktCache::disabled(),
                &[0, 3, n, 99],
            )
            .unwrap();
        let fresh = ActiveSetQp::default()
            .solve(&f, &no_eq, &[], &a_in, &b_in, vec![0.1; n])
            .unwrap();
        assert_eq!(stale.x, fresh.x);
        assert_eq!(stale.iterations, fresh.iterations);
    }

    /// λ-shaped problem (simplex with an all-ones equality): the rank-1
    /// fast path must agree with the dense path to solver tolerance and
    /// produce equally valid KKT multipliers.
    #[test]
    fn rank1_fast_path_matches_dense_on_lambda_shape() {
        let n = 5;
        let arrival = 2.0;
        let a_eq = Matrix::from_rows(&[&[1.0; 5]]).unwrap();
        let (a_in, b_in) = nonneg_rows(n);
        for round in 0..4 {
            let c: Vec<f64> = (0..n)
                .map(|i| ((i * 7 + round) % 5) as f64 * 0.4 - 1.0)
                .collect();
            let f = QuadObjective::diag_rank1(
                vec![0.3; n],
                1.7,
                vec![0.01, 0.04, 0.02, 0.05, 0.03],
                c,
                0.0,
            );
            let start = vec![arrival / n as f64; n];
            let dense = ActiveSetQp::default()
                .solve(&f, &a_eq, &[arrival], &a_in, &b_in, start.clone())
                .unwrap();
            let fast = ActiveSetQp::default()
                .with_rank1_kkt(true)
                .solve(&f, &a_eq, &[arrival], &a_in, &b_in, start)
                .unwrap();
            assert!(
                vec_ops::dist2(&fast.x, &dense.x) < 1e-7,
                "round {round}: {:?} vs {:?}",
                fast.x,
                dense.x
            );
            assert!((fast.value - dense.value).abs() < 1e-9 * (1.0 + dense.value.abs()));
            let r = crate::kkt::qp_residuals(
                &f,
                &a_eq,
                &[arrival],
                &a_in,
                &b_in,
                &fast.x,
                &fast.eq_multipliers,
                &fast.ineq_multipliers,
            );
            assert!(r.is_optimal(1e-6), "round {round}: KKT residuals {r:?}");
        }
    }

    /// Every KKT solve is counted once: a dense solve as a cache hit or
    /// miss, a Sherman–Morrison solve as a rank-1 solve.
    #[test]
    fn cache_counts_each_kkt_solve_by_kernel() {
        let n = 4;
        let a_eq = Matrix::from_rows(&[&[1.0; 4]]).unwrap();
        let (a_in, b_in) = nonneg_rows(n);
        let f = QuadObjective::diag_rank1(
            vec![0.3; n],
            1.7,
            vec![0.01, 0.04, 0.02, 0.05],
            vec![-1.0, 0.6, -0.2, 1.0],
            0.0,
        );
        let solve = |rank1: bool| {
            let mut cache = KktCache::default();
            let sol = ActiveSetQp::default()
                .with_rank1_kkt(rank1)
                .solve_with_cache(&f, &a_eq, &[2.0], &a_in, &b_in, vec![0.5; n], &mut cache)
                .unwrap();
            let solves = (cache.hits() + cache.misses(), cache.rank1_solves());
            (sol.iterations as u64, solves)
        };
        let (iterations, (dense, rank1)) = solve(false);
        assert_eq!((dense, rank1), (iterations, 0));
        let (iterations, (dense, rank1)) = solve(true);
        assert_eq!((dense, rank1), (0, iterations));
    }

    /// a-shaped problem (nonnegativity + one capacity row), with a linear
    /// term aggressive enough that the capacity row goes active — the
    /// bordered ones-row elimination must handle a *working* ones row, not
    /// just the equality.
    #[test]
    fn rank1_fast_path_matches_dense_on_capped_shape() {
        let n = 6;
        let cap = 1.0;
        let mut a_in = Matrix::zeros(n + 1, n);
        let mut b_in = vec![0.0; n + 1];
        for i in 0..n {
            a_in[(i, i)] = -1.0;
            a_in[(n, i)] = 1.0;
        }
        b_in[n] = cap;
        let no_eq = Matrix::zeros(0, n);
        let c = vec![-2.0, -1.5, 0.4, -1.8, 0.2, -0.9];
        let f = QuadObjective::diag_rank1(vec![0.3; n], 0.3 * 0.12 * 0.12, vec![1.0; n], c, 0.0);
        let dense = ActiveSetQp::default()
            .solve(&f, &no_eq, &[], &a_in, &b_in, vec![0.0; n])
            .unwrap();
        let fast = ActiveSetQp::default()
            .with_rank1_kkt(true)
            .solve(&f, &no_eq, &[], &a_in, &b_in, vec![0.0; n])
            .unwrap();
        let total: f64 = dense.x.iter().sum();
        assert!((total - cap).abs() < 1e-7, "capacity should bind: {total}");
        assert!(vec_ops::dist2(&fast.x, &dense.x) < 1e-7);
        assert!(fast.ineq_multipliers[n] >= 0.0);
    }

    /// The rank-1 knob is structurally inert for dense Hessians — not just
    /// close, bit-identical, because the fast path never engages.
    #[test]
    fn rank1_knob_is_bitwise_inert_for_dense_hessians() {
        let f =
            QuadObjective::dense(Matrix::from_diag(&[2.0, 2.0]), vec![-6.0, -4.0], 13.0).unwrap();
        let a_in = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let no_eq = Matrix::zeros(0, 2);
        let off = ActiveSetQp::default()
            .solve(&f, &no_eq, &[], &a_in, &[1.0, 5.0], vec![0.0, 0.0])
            .unwrap();
        let on = ActiveSetQp::default()
            .with_rank1_kkt(true)
            .solve(&f, &no_eq, &[], &a_in, &[1.0, 5.0], vec![0.0, 0.0])
            .unwrap();
        assert_eq!(off.x, on.x);
        assert_eq!(off.value.to_bits(), on.value.to_bits());
        assert_eq!(off.iterations, on.iterations);
        assert_eq!(off.ineq_multipliers, on.ineq_multipliers);
    }

    /// Rank-1 Hessian but general (unstructured) constraint rows: the fast
    /// path must detect the `Other` rows and fall back to the dense KKT
    /// solve whenever one is active, still converging to the same optimum.
    #[test]
    fn rank1_falls_back_on_unstructured_rows() {
        let n = 3;
        let f = QuadObjective::diag_rank1(
            vec![1.0; n],
            0.5,
            vec![1.0, -1.0, 2.0],
            vec![-1.0, -2.0, -0.5],
            0.0,
        );
        // x₁ + 2x₂ ≤ 1 is neither a bound nor a ones row.
        let a_in =
            Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[-1.0, 0.0, 0.0], &[0.0, 0.0, -1.0]]).unwrap();
        let b_in = [1.0, 0.0, 0.0];
        let no_eq = Matrix::zeros(0, n);
        let off = ActiveSetQp::default()
            .solve(&f, &no_eq, &[], &a_in, &b_in, vec![0.0; n])
            .unwrap();
        let on = ActiveSetQp::default()
            .with_rank1_kkt(true)
            .solve(&f, &no_eq, &[], &a_in, &b_in, vec![0.0; n])
            .unwrap();
        assert!(
            vec_ops::dist2(&off.x, &on.x) < 1e-7,
            "{:?} vs {:?}",
            off.x,
            on.x
        );
    }

    /// The blocked-factorization knob swaps the LDLᵀ kernel for a
    /// bit-identical one, so entire solves must be bit-identical.
    #[test]
    fn blocked_factorization_knob_is_bitwise_inert() {
        let a_eq = Matrix::from_rows(&[&[1.0; 4]]).unwrap();
        let (a_in, b_in) = nonneg_rows(4);
        let f = QuadObjective::diag_rank1(
            vec![1.0; 4],
            0.5,
            vec![1.0, 2.0, 0.5, 1.5],
            vec![0.3, -0.6, 0.9, -1.2],
            0.0,
        );
        let plain = ActiveSetQp::default()
            .solve(&f, &a_eq, &[1.0], &a_in, &b_in, vec![0.25; 4])
            .unwrap();
        let blocked = ActiveSetQp::default()
            .with_blocked_factorizations(true)
            .solve(&f, &a_eq, &[1.0], &a_in, &b_in, vec![0.25; 4])
            .unwrap();
        assert_eq!(plain.x, blocked.x);
        assert_eq!(plain.value.to_bits(), blocked.value.to_bits());
        assert_eq!(plain.iterations, blocked.iterations);
        assert_eq!(plain.eq_multipliers, blocked.eq_multipliers);
        assert_eq!(plain.ineq_multipliers, blocked.ineq_multipliers);
    }

    #[test]
    fn agrees_with_fista_on_rank1_capped_problem() {
        use crate::projection::project_capped_simplex;
        use crate::Fista;
        // min ½xᵀ(ρI + ρβ²11ᵀ)x + cᵀx over {x ≥ 0, Σx ≤ cap} — the paper's
        // a-sub-problem shape (20).
        let rho = 0.3;
        let beta = 0.12;
        let c = vec![-0.4, 0.1, -0.2, 0.05, -0.15];
        let n = c.len();
        let f = QuadObjective::diag_rank1(
            vec![rho; n],
            rho * beta * beta,
            vec![1.0; n],
            c.clone(),
            0.0,
        );
        let cap = 1.0;
        let mut a_in = Matrix::zeros(n + 1, n);
        let mut b_in = vec![0.0; n + 1];
        for i in 0..n {
            a_in[(i, i)] = -1.0;
        }
        for j in 0..n {
            a_in[(n, j)] = 1.0;
        }
        b_in[n] = cap;
        let exact = ActiveSetQp::default()
            .solve(&f, &Matrix::zeros(0, n), &[], &a_in, &b_in, vec![0.0; n])
            .unwrap();
        let fista = Fista::new(50_000, 1e-12)
            .minimize(&f, |x| project_capped_simplex(x, cap), vec![0.0; n])
            .unwrap();
        assert!(
            vec_ops::dist2(&exact.x, &fista.x) < 1e-5,
            "active-set {:?} vs fista {:?}",
            exact.x,
            fista.x
        );
    }
}
