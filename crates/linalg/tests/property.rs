//! Property-based tests for the dense linear-algebra kernel.
//!
//! Strategy: generate well-conditioned random matrices (via `M Mᵀ + δI`)
//! and check the algebraic identities that the downstream optimization code
//! relies on.

use proptest::prelude::*;
use ufc_linalg::{vec_ops, Cholesky, Ldlt, Matrix};

/// Strategy: vector of `n` floats in [-5, 5].
fn vec_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-5.0f64..5.0, n)
}

/// Strategy: (n, row-major entries) for an n×n matrix, n in 1..=6.
fn square_entries() -> impl Strategy<Value = (usize, Vec<f64>)> {
    (1usize..=6).prop_flat_map(|n| (Just(n), proptest::collection::vec(-3.0f64..3.0, n * n)))
}

fn to_matrix(n: usize, data: &[f64]) -> Matrix {
    Matrix::from_fn(n, n, |i, j| data[i * n + j])
}

/// SPD matrix built as `M Mᵀ + I`.
fn spd_from(n: usize, data: &[f64]) -> Matrix {
    let m = to_matrix(n, data);
    let mut g = m.matmul(&m.transpose()).unwrap();
    g.add_diagonal(1.0);
    g
}

proptest! {
    #[test]
    fn cholesky_solve_residual((n, data) in square_entries(), seed in 0u64..1000) {
        let a = spd_from(n, &data);
        let b: Vec<f64> = (0..n).map(|i| ((seed + i as u64) % 7) as f64 - 3.0).collect();
        let x = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        prop_assert!(vec_ops::dist2(&r, &b) <= 1e-7 * (1.0 + vec_ops::norm2(&b)));
    }

    #[test]
    fn cholesky_reconstructs((n, data) in square_entries()) {
        let a = spd_from(n, &data);
        let c = Cholesky::factor(&a).unwrap();
        let llt = c.l().matmul(&c.l().transpose()).unwrap();
        prop_assert!(llt.sub(&a).unwrap().norm_max() <= 1e-8 * (1.0 + a.norm_max()));
    }

    #[test]
    fn ldlt_matches_cholesky_on_spd((n, data) in square_entries()) {
        let a = spd_from(n, &data);
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 1.0).collect();
        let x1 = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        let x2 = Ldlt::factor(&a).unwrap().solve(&b).unwrap();
        prop_assert!(vec_ops::dist2(&x1, &x2) <= 1e-7 * (1.0 + vec_ops::norm2(&x1)));
    }

    #[test]
    fn matvec_linear((n, data) in square_entries(), alpha in -3.0f64..3.0) {
        let a = to_matrix(n, &data);
        let x = vec![1.0; n];
        let y: Vec<f64> = (0..n).map(|i| i as f64).collect();
        // A(αx + y) = αAx + Ay
        let axy: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| alpha * xi + yi).collect();
        let lhs = a.matvec(&axy).unwrap();
        let mut rhs = a.matvec(&y).unwrap();
        vec_ops::axpy(alpha, &a.matvec(&x).unwrap(), &mut rhs);
        prop_assert!(vec_ops::dist2(&lhs, &rhs) <= 1e-9 * (1.0 + vec_ops::norm2(&rhs)));
    }

    #[test]
    fn transpose_respects_dot((n, data) in square_entries()) {
        let a = to_matrix(n, &data);
        let x: Vec<f64> = (0..n).map(|i| 0.5 * i as f64 - 1.0).collect();
        let y: Vec<f64> = (0..n).map(|i| 1.0 - 0.3 * i as f64).collect();
        // ⟨Ax, y⟩ = ⟨x, Aᵀy⟩
        let lhs = vec_ops::dot(&a.matvec(&x).unwrap(), &y);
        let rhs = vec_ops::dot(&x, &a.matvec_t(&y).unwrap());
        prop_assert!((lhs - rhs).abs() <= 1e-9 * (1.0 + lhs.abs()));
    }

    #[test]
    fn gram_is_psd((n, data) in square_entries(), v in vec_strategy(6)) {
        let a = to_matrix(n, &data);
        let g = a.gram();
        let x = &v[..n];
        let q = vec_ops::dot(x, &g.matvec(x).unwrap());
        prop_assert!(q >= -1e-9 * (1.0 + g.norm_max()));
    }

    #[test]
    fn norm_triangle_inequality(x in vec_strategy(5), y in vec_strategy(5)) {
        let s = vec_ops::add(&x, &y);
        prop_assert!(vec_ops::norm2(&s) <= vec_ops::norm2(&x) + vec_ops::norm2(&y) + 1e-12);
        prop_assert!(vec_ops::norm1(&s) <= vec_ops::norm1(&x) + vec_ops::norm1(&y) + 1e-12);
        prop_assert!(vec_ops::norm_inf(&s) <= vec_ops::norm_inf(&x) + vec_ops::norm_inf(&y) + 1e-12);
    }

    #[test]
    fn cauchy_schwarz(x in vec_strategy(5), y in vec_strategy(5)) {
        let lhs = vec_ops::dot(&x, &y).abs();
        let rhs = vec_ops::norm2(&x) * vec_ops::norm2(&y);
        prop_assert!(lhs <= rhs + 1e-9);
    }
}
