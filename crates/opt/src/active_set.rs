use ufc_linalg::{vec_ops, Ldlt, Matrix};

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
/// This is the *exact* dense path behind the centralized reference QP
/// (~50 variables at paper scale) and the reference λ- and a-steps that the
/// ADM-G block kernels are checked against. For larger instances use
/// [`crate::AdmmQp`] or [`crate::Fista`].
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
}

impl Default for ActiveSetQp {
    /// 500 iterations, `1e-9` tolerance, no Hessian shift.
    fn default() -> Self {
        ActiveSetQp::new(500, 1e-9)
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
        // tests membership per row, and a linear `contains` scan per row is
        // `O(m_i·m_w)` per iteration. The mask changes no arithmetic.
        let mut in_working = vec![false; mi];
        let mut working: Vec<usize> = Vec::new();
        let step_tol = self.tolerance;
        // Anti-cycling: after this many consecutive zero-length steps the
        // pivot choice switches to Bland's rule (lowest index), which is
        // guaranteed to escape degenerate-vertex cycles.
        let mut degenerate_steps = 0usize;
        const BLAND_THRESHOLD: usize = 12;

        let mut g = vec![0.0; n];
        for iter in 0..self.max_iterations {
            f.gradient_into(&x, &mut g);
            let (p, mults) = self.solve_kkt(f, a_eq, a_in, &working, &g)?;
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
            let mut alpha = 1.0f64;
            let mut blocking = None;
            #[allow(clippy::needless_range_loop)]
            for i in 0..mi {
                if in_working[i] {
                    continue;
                }
                let d = vec_ops::dot(a_in.row(i), &p);
                if d > step_tol {
                    let slack = b_in[i] - vec_ops::dot(a_in.row(i), &x);
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
    /// with two iterative-refinement passes against the unregularized
    /// system.
    fn solve_kkt(
        &self,
        f: &QuadObjective,
        a_eq: &Matrix,
        a_in: &Matrix,
        working: &[usize],
        g: &[f64],
    ) -> Result<(Vec<f64>, Vec<f64>)> {
        let n = f.dim();
        let me = a_eq.rows();
        let mw = working.len();
        let m = me + mw;
        let dim = n + m;

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
        let fact = Ldlt::factor(&kkt)?;

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
