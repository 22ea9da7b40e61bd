use crate::{LinalgError, Matrix, Result};

/// `A = L D Lᵀ` factorization (unit lower-triangular `L`, diagonal `D`) for
/// symmetric matrices that are *quasi-definite* rather than positive
/// definite.
///
/// KKT systems of equality-constrained QPs have the saddle-point form
/// `[[H, Aᵀ], [A, 0]]` — symmetric but indefinite, so Cholesky fails while
/// LDLᵀ (with nonzero, possibly negative, pivots) succeeds. The OSQP-style
/// ADMM QP solver in `ufc-opt` regularizes its KKT matrix into quasi-definite
/// form exactly so that this pivot-free factorization is stable.
///
/// # Example
///
/// ```
/// use ufc_linalg::{Ldlt, Matrix};
///
/// # fn main() -> Result<(), ufc_linalg::LinalgError> {
/// // Indefinite saddle-point system: Cholesky would fail.
/// let k = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, -3.0]])?;
/// let f = Ldlt::factor(&k)?;
/// let x = f.solve(&[1.0, 0.0])?;
/// let kx = k.matvec(&x)?;
/// assert!((kx[0] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Ldlt {
    /// Unit lower-triangular factor (diagonal entries are 1, stored
    /// implicitly; the dense storage holds the strictly-lower part).
    l: Matrix,
    /// Diagonal of `D`.
    d: Vec<f64>,
}

impl Ldlt {
    /// Factors a symmetric matrix without pivoting.
    ///
    /// Only the lower triangle of `a` is read. No pivoting is performed, so
    /// the factorization exists only when every leading principal minor is
    /// nonzero — true for quasi-definite matrices, which is the intended use.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::Singular`] if a pivot underflows the numerical
    ///   tolerance (matrix not quasi-definite / singular).
    pub fn factor(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut l = Matrix::identity(n);
        let mut d = vec![0.0; n];
        let max_abs = a.norm_max().max(1.0);
        let tol = 1e-14 * max_abs;
        for j in 0..n {
            let mut dj = a[(j, j)];
            for k in 0..j {
                dj -= l[(j, k)] * l[(j, k)] * d[k];
            }
            if dj.abs() <= tol {
                return Err(LinalgError::Singular { pivot: j });
            }
            d[j] = dj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)] * d[k];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(Ldlt { l, d })
    }

    /// Dimension of the factored matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.d.len()
    }

    /// Borrows the diagonal of `D`.
    #[must_use]
    pub fn d(&self) -> &[f64] {
        &self.d
    }

    /// Number of negative pivots — for a quasi-definite KKT system this
    /// equals the number of equality constraints (the matrix *inertia*),
    /// which callers can use as a sanity check.
    #[must_use]
    pub fn negative_pivots(&self) -> usize {
        self.d.iter().filter(|&&v| v < 0.0).count()
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
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len() != dim()` or
    /// `out.len() != dim()`.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if b.len() != n || out.len() != n {
            return Err(LinalgError::dim(format!(
                "ldlt solve: rhs length {} / out length {} for system of size {n}",
                b.len(),
                out.len()
            )));
        }
        out.copy_from_slice(b);
        // Forward: L y = b (unit diagonal).
        for i in 0..n {
            for k in 0..i {
                out[i] -= self.l[(i, k)] * out[k];
            }
        }
        // Diagonal: D z = y.
        for (xi, di) in out.iter_mut().zip(&self.d) {
            *xi /= di;
        }
        // Backward: Lᵀ x = z.
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                out[i] -= self.l[(k, i)] * out[k];
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4x4 quasi-definite KKT matrix: H = diag(2,3), A = [[1,1],[1,-1]],
    /// lower-right block −δI.
    fn kkt() -> Matrix {
        Matrix::from_rows(&[
            &[2.0, 0.0, 1.0, 1.0],
            &[0.0, 3.0, 1.0, -1.0],
            &[1.0, 1.0, -1e-6, 0.0],
            &[1.0, -1.0, 0.0, -1e-6],
        ])
        .unwrap()
    }

    #[test]
    fn factor_reconstructs() {
        let a = kkt();
        let f = Ldlt::factor(&a).unwrap();
        let ld = f.l.matmul(&Matrix::from_diag(f.d())).unwrap();
        let ldlt = ld.matmul(&f.l.transpose()).unwrap();
        assert!(ldlt.sub(&a).unwrap().norm_max() < 1e-9);
    }

    #[test]
    fn inertia_counts_constraints() {
        let f = Ldlt::factor(&kkt()).unwrap();
        assert_eq!(f.negative_pivots(), 2);
    }

    #[test]
    fn solve_indefinite_system() {
        let a = kkt();
        let f = Ldlt::factor(&a).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0];
        let x = f.solve(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-8, "residual too large: {r:?}");
        }
    }

    #[test]
    fn agrees_with_cholesky_on_spd() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let f = Ldlt::factor(&a).unwrap();
        assert_eq!(f.negative_pivots(), 0);
        let x1 = f.solve(&[1.0, 1.0]).unwrap();
        let x2 = crate::Cholesky::factor(&a)
            .unwrap()
            .solve(&[1.0, 1.0])
            .unwrap();
        assert!(crate::vec_ops::dist2(&x1, &x2) < 1e-12);
    }

    #[test]
    fn rejects_singular() {
        // Zero leading pivot with no pivoting => structural failure.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!(matches!(
            Ldlt::factor(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn solve_into_matches_solve() {
        let f = Ldlt::factor(&kkt()).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0];
        let mut out = [0.0; 4];
        f.solve_into(&b, &mut out).unwrap();
        assert_eq!(out.to_vec(), f.solve(&b).unwrap());
        let mut short = [0.0; 2];
        assert!(f.solve_into(&b, &mut short).is_err());
    }

    #[test]
    fn rejects_non_square_and_bad_rhs() {
        assert!(Ldlt::factor(&Matrix::zeros(2, 3)).is_err());
        let f = Ldlt::factor(&Matrix::identity(2)).unwrap();
        assert!(f.solve(&[1.0]).is_err());
    }
}
