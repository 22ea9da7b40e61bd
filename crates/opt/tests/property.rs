//! Property-based tests for the convex-optimization toolkit.
//!
//! The central invariants: projections satisfy feasibility, idempotence and
//! the variational inequality; and the three QP solvers (active-set, FISTA,
//! ADMM) agree with each other and pass the KKT checker on randomly generated
//! convex instances shaped like the paper's sub-problems.

use proptest::prelude::*;
use ufc_linalg::{vec_ops, Matrix};
use ufc_opt::projection::{project_box, project_capped_simplex, project_simplex};
use ufc_opt::{kkt, ActiveSetQp, AdmmQp, Fista, QuadObjective};

fn vec_in(n: usize, lo: f64, hi: f64) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(lo..hi, n)
}

proptest! {
    #[test]
    fn simplex_projection_invariants(x in vec_in(6, -5.0, 5.0), s in 0.0f64..10.0) {
        let p = project_simplex(&x, s);
        // Feasibility.
        prop_assert!((p.iter().sum::<f64>() - s).abs() < 1e-9 * (1.0 + s));
        prop_assert!(p.iter().all(|&v| v >= -1e-12));
        // Idempotence.
        let pp = project_simplex(&p, s);
        prop_assert!(vec_ops::dist2(&p, &pp) < 1e-9 * (1.0 + s));
        // Non-expansiveness versus a feasible reference point.
        let uniform = vec![s / 6.0; 6];
        prop_assert!(vec_ops::dist2(&p, &uniform) <= vec_ops::dist2(&x, &uniform) + 1e-9);
    }

    #[test]
    fn simplex_projection_order_preserving(x in vec_in(5, -3.0, 3.0)) {
        // Projection preserves the coordinate ordering: x_i ≥ x_j ⇒ p_i ≥ p_j.
        let p = project_simplex(&x, 1.0);
        for i in 0..5 {
            for j in 0..5 {
                if x[i] >= x[j] {
                    prop_assert!(p[i] >= p[j] - 1e-12);
                }
            }
        }
    }

    #[test]
    fn capped_simplex_invariants(x in vec_in(5, -4.0, 4.0), cap in 0.0f64..6.0) {
        let p = project_capped_simplex(&x, cap);
        prop_assert!(p.iter().sum::<f64>() <= cap + 1e-9);
        prop_assert!(p.iter().all(|&v| v >= -1e-12));
        let pp = project_capped_simplex(&p, cap);
        prop_assert!(vec_ops::dist2(&p, &pp) < 1e-9);
    }

    #[test]
    fn box_projection_invariants(x in vec_in(4, -10.0, 10.0), w in vec_in(4, 0.0, 3.0)) {
        let lo = vec![-1.0; 4];
        let hi: Vec<f64> = w.iter().map(|v| -1.0 + v).collect();
        let p = project_box(&x, &lo, &hi);
        for i in 0..4 {
            prop_assert!(p[i] >= lo[i] && p[i] <= hi[i]);
        }
        // Components already inside are untouched.
        for i in 0..4 {
            if x[i] >= lo[i] && x[i] <= hi[i] {
                prop_assert_eq!(p[i], x[i]);
            }
        }
    }

    /// Active-set and FISTA agree on the λ-sub-problem shape:
    /// rank-one + diagonal Hessian over a simplex (paper Eq. (17)).
    #[test]
    fn solvers_agree_on_lambda_subproblem(
        latencies in vec_in(4, 0.005, 0.05),
        c in vec_in(4, -2.0, 2.0),
        arrival in 0.5f64..5.0,
    ) {
        let rho = 0.3;
        let w_over_a = 2.0 * 10.0 / arrival;
        let f = QuadObjective::diag_rank1(vec![rho; 4], w_over_a, latencies, c, 0.0);
        let a_eq = Matrix::from_rows(&[&[1.0; 4]]).unwrap();
        let a_in = Matrix::from_fn(4, 4, |i, j| if i == j { -1.0 } else { 0.0 });
        let start = vec![arrival / 4.0; 4];

        let exact = ActiveSetQp::default()
            .solve(&f, &a_eq, &[arrival], &a_in, &[0.0; 4], start.clone())
            .unwrap();
        let res = kkt::qp_residuals(
            &f, &a_eq, &[arrival], &a_in, &[0.0; 4],
            &exact.x, &exact.eq_multipliers, &exact.ineq_multipliers,
        );
        prop_assert!(res.is_optimal(1e-5), "KKT residuals {res:?}");

        let fista = Fista::new(100_000, 1e-12)
            .minimize(&f, |x| project_simplex(x, arrival), start)
            .unwrap();
        prop_assert!(
            (exact.value - fista.value).abs() <= 1e-5 * (1.0 + exact.value.abs()),
            "values differ: {} vs {}", exact.value, fista.value
        );
    }

    /// ADMM-QP matches the active-set answer on random strictly convex QPs
    /// with an equality row and bounds.
    #[test]
    fn admm_matches_active_set(
        diag in vec_in(3, 0.5, 3.0),
        q in vec_in(3, -2.0, 2.0),
        total in 0.5f64..3.0,
    ) {
        let p = Matrix::from_diag(&diag);
        // rows: Σx = total; x ≥ 0 (as l = 0, u = ∞).
        let mut a = Matrix::zeros(4, 3);
        for j in 0..3 { a[(0, j)] = 1.0; }
        for i in 0..3 { a[(1 + i, i)] = 1.0; }
        let l = vec![total, 0.0, 0.0, 0.0];
        let u = vec![total, f64::INFINITY, f64::INFINITY, f64::INFINITY];
        let admm = AdmmQp::default().solve(&p, &q, &a, &l, &u).unwrap();

        let f = QuadObjective::dense(p, q.clone(), 0.0).unwrap();
        let a_eq = Matrix::from_rows(&[&[1.0; 3]]).unwrap();
        let a_in = Matrix::from_fn(3, 3, |i, j| if i == j { -1.0 } else { 0.0 });
        let exact = ActiveSetQp::default()
            .solve(&f, &a_eq, &[total], &a_in, &[0.0; 3], vec![total / 3.0; 3])
            .unwrap();
        prop_assert!(
            (admm.value - exact.value).abs() <= 1e-4 * (1.0 + exact.value.abs()),
            "admm {} vs exact {}", admm.value, exact.value
        );
    }

    /// FISTA monotonically improves over the projected start value.
    #[test]
    fn fista_never_worse_than_start(
        c in vec_in(4, -1.0, 1.0),
        s in 0.5f64..2.0,
    ) {
        let f = QuadObjective::diag_rank1(vec![1.0; 4], 0.5, vec![1.0; 4], c, 0.0);
        let start = vec![s / 4.0; 4];
        let r = Fista::new(10_000, 1e-10)
            .minimize(&f, |x| project_simplex(x, s), start.clone())
            .unwrap();
        prop_assert!(r.value <= f.value(&start) + 1e-9);
    }
}
