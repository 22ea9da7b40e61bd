use crate::{LinalgError, Matrix, Result};

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite matrix.
///
/// Used by the optimization toolkit for Newton steps and for solving the
/// positive-definite reduced systems that arise inside the active-set QP
/// solver.
///
/// # Example
///
/// ```
/// use ufc_linalg::{Cholesky, Matrix};
///
/// # fn main() -> Result<(), ufc_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0],
///                             &[15.0, 18.0,  0.0],
///                             &[-5.0,  0.0, 11.0]])?;
/// let chol = Cholesky::factor(&a)?;
/// let x = chol.solve(&[1.0, 2.0, 3.0])?;
/// let ax = a.matvec(&x)?;
/// assert!((ax[0] - 1.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor, stored densely (upper part is zero).
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; the caller is responsible for
    /// `a` being symmetric (use [`Matrix::is_symmetric`] to check).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is not strictly
    ///   positive (beyond a small relative tolerance).
    pub fn factor(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        // Scale-aware pivot tolerance: pivots below `tol` relative to the
        // largest diagonal entry are treated as a loss of positive
        // definiteness rather than silently producing huge factors.
        let max_diag = (0..n).fold(0.0f64, |m, i| m.max(a[(i, i)].abs()));
        let tol = 1e-13 * max_diag.max(1.0);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= tol {
                return Err(LinalgError::NotPositiveDefinite { pivot: j, value: d });
            }
            let ljj = d.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / ljj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factored matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrows the lower-triangular factor `L`.
    #[must_use]
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.dim()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A x = b`, writing the solution into `out` without allocating.
    ///
    /// `b` and `out` may be the same buffer only via a prior copy by the
    /// caller; aliasing is not required — `b` is copied into `out` first.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len() != dim()` or
    /// `out.len() != dim()`.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if b.len() != n || out.len() != n {
            return Err(LinalgError::dim(format!(
                "cholesky solve: rhs length {} / out length {} for system of size {n}",
                b.len(),
                out.len()
            )));
        }
        out.copy_from_slice(b);
        // Forward substitution L y = b.
        for i in 0..n {
            for k in 0..i {
                out[i] -= self.l[(i, k)] * out[k];
            }
            out[i] /= self.l[(i, i)];
        }
        // Back substitution Lᵀ x = y.
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                out[i] -= self.l[(k, i)] * out[k];
            }
            out[i] /= self.l[(i, i)];
        }
        Ok(())
    }

    /// Log-determinant of `A`, i.e. `2 Σ log L_ii`.
    #[must_use]
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Computes `A⁻¹` by solving against the identity (for tests/diagnostics;
    /// prefer [`Cholesky::solve`] in production paths).
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Cholesky::solve`] (cannot occur for a valid
    /// factorization).
    pub fn inverse(&self) -> Result<Matrix> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        let mut col = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            self.solve_into(&e, &mut col)?;
            e[j] = 0.0;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        Ok(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]]).unwrap()
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let c = Cholesky::factor(&a).unwrap();
        let llt = c.l().matmul(&c.l().transpose()).unwrap();
        assert!(llt.sub(&a).unwrap().norm_max() < 1e-10);
    }

    #[test]
    fn known_factor() {
        // Classic example: L = [[5,0,0],[3,3,0],[-1,1,3]].
        let c = Cholesky::factor(&spd3()).unwrap();
        let l = c.l();
        assert!((l[(0, 0)] - 5.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 3.0).abs() < 1e-12);
        assert!((l[(2, 2)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_residual_is_small() {
        let a = spd3();
        let c = Cholesky::factor(&a).unwrap();
        let b = [1.0, -2.0, 4.5];
        let x = c.solve(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_wrong_rhs_len() {
        let c = Cholesky::factor(&spd3()).unwrap();
        assert!(c.solve(&[1.0]).is_err());
    }

    #[test]
    fn log_det_matches_known_value() {
        // det(spd3) = (5*3*3)^2 = 2025.
        let c = Cholesky::factor(&spd3()).unwrap();
        assert!((c.log_det() - 2025.0f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn inverse_times_a_is_identity() {
        let a = spd3();
        let inv = Cholesky::factor(&a).unwrap().inverse().unwrap();
        let prod = inv.matmul(&a).unwrap();
        assert!(prod.sub(&Matrix::identity(3)).unwrap().norm_max() < 1e-9);
    }

    #[test]
    fn solve_into_matches_solve() {
        let c = Cholesky::factor(&spd3()).unwrap();
        let b = [1.0, -2.0, 4.5];
        let mut out = [0.0; 3];
        c.solve_into(&b, &mut out).unwrap();
        assert_eq!(out.to_vec(), c.solve(&b).unwrap());
        let mut short = [0.0; 2];
        assert!(c.solve_into(&b, &mut short).is_err());
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[&[4.0]]).unwrap();
        let c = Cholesky::factor(&a).unwrap();
        assert_eq!(c.solve(&[8.0]).unwrap(), vec![2.0]);
    }
}
