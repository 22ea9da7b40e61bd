use ufc_linalg::{vec_ops, Matrix};

use crate::{OptError, Result};

/// A convex quadratic objective `f(x) = ½ xᵀ Q x + cᵀ x + k`.
///
/// Two Hessian representations are supported because both shapes occur in
/// the paper's sub-problems:
///
/// * **Dense** — arbitrary symmetric PSD `Q` (used by the centralized
///   reference QP and by tests),
/// * **Diagonal + rank-one** — `Q = diag(d) + γ·u uᵀ`. The λ-minimization
///   (17) has `Q = ρI + (2w/A_i)·L Lᵀ` and the a-minimization (20) has
///   `Q = ρI + ρβ²·1 1ᵀ`, so this form covers both without materializing a
///   matrix, and gives an `O(n)` matvec and a closed-form Lipschitz bound.
///
/// # Example
///
/// ```
/// use ufc_opt::QuadObjective;
///
/// // f(x) = ½‖x‖² + [1,1]ᵀx  ⇒  ∇f(x) = x + 1
/// let f = QuadObjective::diag_rank1(vec![1.0, 1.0], 0.0, vec![0.0, 0.0], vec![1.0, 1.0], 0.0);
/// assert_eq!(f.gradient(&[2.0, 3.0]), vec![3.0, 4.0]);
/// ```
#[derive(Debug, Clone)]
pub struct QuadObjective {
    hessian: Hessian,
    linear: Vec<f64>,
    constant: f64,
}

#[derive(Debug, Clone)]
enum Hessian {
    Dense(Matrix),
    DiagRank1 {
        diag: Vec<f64>,
        gamma: f64,
        u: Vec<f64>,
    },
}

impl QuadObjective {
    /// Creates an objective with a dense symmetric Hessian.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::InvalidInput`] if `q` is not square, is asymmetric
    /// beyond `1e-9`, or its size disagrees with `c`.
    pub fn dense(q: Matrix, c: Vec<f64>, constant: f64) -> Result<Self> {
        if !q.is_square() {
            return Err(OptError::invalid(format!(
                "dense hessian must be square, got {}x{}",
                q.rows(),
                q.cols()
            )));
        }
        if q.rows() != c.len() {
            return Err(OptError::invalid(format!(
                "hessian is {}x{} but linear term has length {}",
                q.rows(),
                q.cols(),
                c.len()
            )));
        }
        if !q.is_symmetric(1e-9 * (1.0 + q.norm_max())) {
            return Err(OptError::invalid("dense hessian is not symmetric"));
        }
        Ok(QuadObjective {
            hessian: Hessian::Dense(q),
            linear: c,
            constant,
        })
    }

    /// Creates an objective with Hessian `diag(d) + gamma·u uᵀ`.
    ///
    /// Convexity requires `d ≥ 0` and `gamma ≥ 0`; this is debug-asserted.
    ///
    /// # Panics
    ///
    /// Panics if `diag`, `u` and `c` lengths disagree.
    #[must_use]
    pub fn diag_rank1(diag: Vec<f64>, gamma: f64, u: Vec<f64>, c: Vec<f64>, constant: f64) -> Self {
        assert_eq!(diag.len(), u.len(), "diag/u length mismatch");
        assert_eq!(diag.len(), c.len(), "diag/c length mismatch");
        debug_assert!(gamma >= 0.0, "rank-one coefficient must be nonnegative");
        debug_assert!(
            diag.iter().all(|&d| d >= 0.0),
            "diagonal must be nonnegative for convexity"
        );
        QuadObjective {
            hessian: Hessian::DiagRank1 { diag, gamma, u },
            linear: c,
            constant,
        }
    }

    /// Problem dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.linear.len()
    }

    /// Hessian–vector product `Q x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    #[must_use]
    pub fn hess_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim(), "hess_vec dimension mismatch");
        match &self.hessian {
            Hessian::Dense(q) => q.matvec(x).expect("validated at construction"),
            Hessian::DiagRank1 { diag, gamma, u } => {
                let ux = vec_ops::dot(u, x) * *gamma;
                diag.iter()
                    .zip(x)
                    .zip(u)
                    .map(|((d, xi), ui)| d * xi + ux * ui)
                    .collect()
            }
        }
    }

    /// Hessian–vector product `Q x` written into `out` without allocating.
    ///
    /// Performs the exact same floating-point operations as
    /// [`QuadObjective::hess_vec`] (bit-identical results); only the
    /// destination differs.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()` or `out.len() != dim()`.
    pub fn hess_vec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.dim(), "hess_vec dimension mismatch");
        assert_eq!(out.len(), self.dim(), "hess_vec output length mismatch");
        match &self.hessian {
            Hessian::Dense(q) => {
                for (i, oi) in out.iter_mut().enumerate() {
                    *oi = vec_ops::dot(q.row(i), x);
                }
            }
            Hessian::DiagRank1 { diag, gamma, u } => {
                let ux = vec_ops::dot(u, x) * *gamma;
                for (oi, ((d, xi), ui)) in out.iter_mut().zip(diag.iter().zip(x).zip(u)) {
                    *oi = d * xi + ux * ui;
                }
            }
        }
    }

    /// Objective value `½xᵀQx + cᵀx + k`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    #[must_use]
    pub fn value(&self, x: &[f64]) -> f64 {
        let qx = self.hess_vec(x);
        0.5 * vec_ops::dot(x, &qx) + vec_ops::dot(&self.linear, x) + self.constant
    }

    /// Gradient `Qx + c`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    #[must_use]
    pub fn gradient(&self, x: &[f64]) -> Vec<f64> {
        let mut g = self.hess_vec(x);
        vec_ops::axpy(1.0, &self.linear, &mut g);
        g
    }

    /// Gradient `Qx + c` written into `out` without allocating.
    ///
    /// Same floating-point operations as [`QuadObjective::gradient`]
    /// (bit-identical results); used by per-iteration hot loops that reuse a
    /// gradient buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()` or `out.len() != dim()`.
    pub fn gradient_into(&self, x: &[f64], out: &mut [f64]) {
        self.hess_vec_into(x, out);
        vec_ops::axpy(1.0, &self.linear, out);
    }

    /// Borrows the linear term `c`.
    #[must_use]
    pub fn linear(&self) -> &[f64] {
        &self.linear
    }

    /// Overwrites the linear term `c` in place, leaving the Hessian intact.
    ///
    /// This is the hot-path mutator used by the ADM-G solver workspaces: the
    /// sub-problem Hessians are constant across iterations while the linear
    /// term changes every iteration, so retargeting `c` avoids rebuilding the
    /// objective.
    ///
    /// # Panics
    ///
    /// Panics if `c.len() != dim()`.
    pub fn set_linear(&mut self, c: &[f64]) {
        assert_eq!(c.len(), self.linear.len(), "linear term length mismatch");
        self.linear.copy_from_slice(c);
    }

    /// Overwrites the rank-one part of a diagonal-plus-rank-one Hessian in
    /// place, borrowing `u` instead of taking ownership.
    ///
    /// Used by sub-problem loops that sweep over blocks sharing the same
    /// diagonal `ρI` but block-specific rank-one terms: retargeting reuses
    /// the existing buffers instead of cloning a latency vector per block.
    ///
    /// # Panics
    ///
    /// Panics if the Hessian is dense or `u.len() != dim()`.
    pub fn set_rank1(&mut self, gamma: f64, u: &[f64]) {
        match &mut self.hessian {
            Hessian::DiagRank1 {
                gamma: g, u: uu, ..
            } => {
                assert_eq!(u.len(), uu.len(), "rank-one term length mismatch");
                debug_assert!(gamma >= 0.0, "rank-one coefficient must be nonnegative");
                *g = gamma;
                uu.copy_from_slice(u);
            }
            Hessian::Dense(_) => panic!("set_rank1 requires a diagonal-plus-rank-one Hessian"),
        }
    }

    /// An upper bound on the largest Hessian eigenvalue — the gradient
    /// Lipschitz constant used to set FISTA's step size.
    ///
    /// For the diagonal-plus-rank-one form the bound `max(d) + γ‖u‖²` is
    /// closed-form and tight enough; dense Hessians use 50 power-method
    /// iterations with a 1.01 safety factor.
    #[must_use]
    pub fn lipschitz_bound(&self) -> f64 {
        match &self.hessian {
            Hessian::DiagRank1 { diag, gamma, u } => {
                let dmax = diag.iter().fold(0.0f64, |m, &d| m.max(d));
                let un = vec_ops::norm2(u);
                dmax + gamma * un * un
            }
            Hessian::Dense(q) => {
                let n = q.rows();
                if n == 0 {
                    return 0.0;
                }
                let mut v = vec![1.0 / (n as f64).sqrt(); n];
                let mut lambda = 0.0;
                for _ in 0..50 {
                    let w = q.matvec(&v).expect("square by construction");
                    let norm = vec_ops::norm2(&w);
                    if norm == 0.0 {
                        return 0.0;
                    }
                    lambda = norm;
                    v = w;
                    vec_ops::scale(&mut v, 1.0 / norm);
                }
                lambda * 1.01
            }
        }
    }

    /// Materializes the Hessian as a dense matrix (for the exact active-set
    /// path and for tests).
    #[must_use]
    pub fn dense_hessian(&self) -> Matrix {
        match &self.hessian {
            Hessian::Dense(q) => q.clone(),
            Hessian::DiagRank1 { diag, gamma, u } => {
                let n = diag.len();
                Matrix::from_fn(n, n, |i, j| {
                    let base = if i == j { diag[i] } else { 0.0 };
                    base + gamma * u[i] * u[j]
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dense() -> QuadObjective {
        let q = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]).unwrap();
        QuadObjective::dense(q, vec![-1.0, 1.0], 3.0).unwrap()
    }

    #[test]
    fn dense_value_and_gradient() {
        let f = sample_dense();
        // f(0) = constant.
        assert_eq!(f.value(&[0.0, 0.0]), 3.0);
        assert_eq!(f.gradient(&[0.0, 0.0]), vec![-1.0, 1.0]);
        // f(x) at x = (1, 2): ½(2 + 2*0.5*2 + 4) + (-1 + 2) + 3 = ½*8 + 1 + 3 = 8.
        assert!((f.value(&[1.0, 2.0]) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn dense_rejects_bad_inputs() {
        let q = Matrix::zeros(2, 3);
        assert!(QuadObjective::dense(q, vec![0.0; 2], 0.0).is_err());
        let q = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(QuadObjective::dense(q, vec![0.0; 2], 0.0).is_err());
        let q = Matrix::identity(2);
        assert!(QuadObjective::dense(q, vec![0.0; 3], 0.0).is_err());
    }

    #[test]
    fn diag_rank1_matches_dense_equivalent() {
        let diag = vec![1.0, 2.0, 0.5];
        let u = vec![1.0, -1.0, 2.0];
        let gamma = 0.7;
        let c = vec![0.1, 0.2, 0.3];
        let f1 = QuadObjective::diag_rank1(diag.clone(), gamma, u.clone(), c.clone(), 0.0);
        let f2 = QuadObjective::dense(f1.dense_hessian(), c, 0.0).unwrap();
        let x = [0.3, -1.2, 0.8];
        assert!((f1.value(&x) - f2.value(&x)).abs() < 1e-12);
        let g1 = f1.gradient(&x);
        let g2 = f2.gradient(&x);
        assert!(vec_ops::dist2(&g1, &g2) < 1e-12);
    }

    #[test]
    fn retargeting_matches_fresh_construction() {
        let mut f = QuadObjective::diag_rank1(vec![0.3; 3], 0.0, vec![0.0; 3], vec![0.0; 3], 0.0);
        f.set_rank1(0.7, &[1.0, -1.0, 2.0]);
        f.set_linear(&[0.1, 0.2, 0.3]);
        let fresh = QuadObjective::diag_rank1(
            vec![0.3; 3],
            0.7,
            vec![1.0, -1.0, 2.0],
            vec![0.1, 0.2, 0.3],
            0.0,
        );
        let x = [0.3, -1.2, 0.8];
        assert_eq!(f.value(&x).to_bits(), fresh.value(&x).to_bits());
        assert_eq!(f.gradient(&x), fresh.gradient(&x));
    }

    #[test]
    fn lipschitz_bound_dominates_true_eigenvalue() {
        // Q = I + 1·uuᵀ with u = (3, 4): λmax = 1 + 25 = 26.
        let f = QuadObjective::diag_rank1(vec![1.0, 1.0], 1.0, vec![3.0, 4.0], vec![0.0, 0.0], 0.0);
        let l = f.lipschitz_bound();
        assert!(l >= 26.0 - 1e-9);
        assert!(l <= 26.0 + 1e-9);
    }

    #[test]
    fn dense_lipschitz_via_power_method() {
        let q = Matrix::from_diag(&[1.0, 5.0, 3.0]);
        let f = QuadObjective::dense(q, vec![0.0; 3], 0.0).unwrap();
        let l = f.lipschitz_bound();
        assert!((5.0..=5.2).contains(&l), "power method estimate {l} off");
    }

    #[test]
    fn gradient_is_derivative_of_value() {
        let f = sample_dense();
        let x = [0.7, -0.4];
        let g = f.gradient(&x);
        let h = 1e-6;
        for i in 0..2 {
            let mut xp = x;
            xp[i] += h;
            let mut xm = x;
            xm[i] -= h;
            let fd = (f.value(&xp) - f.value(&xm)) / (2.0 * h);
            assert!((fd - g[i]).abs() < 1e-5, "coordinate {i}: {fd} vs {}", g[i]);
        }
    }
}
