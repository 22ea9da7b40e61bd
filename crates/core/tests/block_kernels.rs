//! Property tests of the exact λ-row and a-column kernels at scale.
//!
//! Every solve is certified through `ufc_opt::kkt::qp_residuals`, with the
//! multipliers recovered from the gradient at the returned point; wherever
//! the dense active set converges (small blocks), the kernels must also
//! agree with it to `1e-9·(1 + |x|)`. Columns run up to M = 1024 and rows
//! up to N = 64, over ties, one-signed linear terms, zero arrivals, binding
//! and slack caps, and the stiff corner A_i = 1e-3 with w = 1e4.

use ufc_core::{AColQp, LambdaQp};
use ufc_linalg::Matrix;
use ufc_model::generator::SplitMix64;
use ufc_model::utility::disutility_rank1_gamma;
use ufc_opt::{kkt, ActiveSetQp, QuadObjective};

/// Blocks up to this dimension are also solved by the dense active set.
const DENSE_MAX_DIM: usize = 40;

/// A linear term of length `n` in one of five shapes: uniform, heavy ties,
/// all negative, all positive, and widely spread.
fn linear_term(rng: &mut SplitMix64, n: usize, shape: usize, scale: f64) -> Vec<f64> {
    (0..n)
        .map(|_| match shape {
            0 => rng.uniform(-scale, scale),
            1 => [-0.5, 0.0, 0.25][rng.below(3)] * scale,
            2 => -rng.uniform(0.0, scale),
            3 => rng.uniform(0.0, scale),
            _ => rng.uniform(-scale, scale) * 10f64.powi(rng.below(5) as i32 - 2),
        })
        .collect()
}

/// The a-column QP in the generic form, for the certificate and the dense
/// reference: rows `−a_i ≤ 0`, then `Σa ≤ cap`.
fn a_column_qp(rho: f64, beta: f64, cap: f64, c: &[f64]) -> (QuadObjective, Matrix, Vec<f64>) {
    let m = c.len();
    let f = QuadObjective::diag_rank1(
        vec![rho; m],
        rho * beta * beta,
        vec![1.0; m],
        c.to_vec(),
        0.0,
    );
    let mut a_in = Matrix::zeros(m + 1, m);
    let mut b_in = vec![0.0; m + 1];
    for i in 0..m {
        a_in[(i, i)] = -1.0;
        a_in[(m, i)] = 1.0;
    }
    b_in[m] = cap;
    (f, a_in, b_in)
}

/// The λ-row QP in the generic form: `Σλ = A`, rows `−λ_j ≤ 0`.
fn lambda_row_qp(rho: f64, gamma: f64, l: &[f64], c: &[f64]) -> (QuadObjective, Matrix, Matrix) {
    let n = c.len();
    let f = QuadObjective::diag_rank1(vec![rho; n], gamma, l.to_vec(), c.to_vec(), 0.0);
    let a_eq = Matrix::from_fn(1, n, |_, _| 1.0);
    let a_in = Matrix::from_fn(n, n, |r, k| if r == k { -1.0 } else { 0.0 });
    (f, a_eq, a_in)
}

/// Certifies an a-column: the multipliers come from the gradient `g` at
/// the point — the cap's `κ = max(0, −g_i)` over the entries it holds
/// positive when the cap binds, each bound's `g_i + κ` where `a_i = 0`.
fn certify_a(rho: f64, beta: f64, cap: f64, c: &[f64], a: &[f64]) {
    let (f, a_in, b_in) = a_column_qp(rho, beta, cap, c);
    let g = f.gradient(a);
    let m = a.len();
    let load: f64 = a.iter().sum();
    let binding = cap > 0.0 && load >= cap * (1.0 - 1e-12);
    let active: Vec<usize> = (0..m).filter(|&i| a[i] > 0.0).collect();
    let kappa = if binding && !active.is_empty() {
        (-active.iter().map(|&i| g[i]).sum::<f64>() / active.len() as f64).max(0.0)
    } else if cap == 0.0 {
        // Zero cap: the cap row's multiplier absorbs the most negative
        // gradient entry so every bound multiplier is nonnegative.
        g.iter().fold(0.0f64, |k, &gi| k.max(-gi))
    } else {
        0.0
    };
    let mut u = vec![0.0; m + 1];
    for i in 0..m {
        if a[i] == 0.0 {
            u[i] = g[i] + kappa;
        }
    }
    u[m] = kappa;
    let r = kkt::qp_residuals(&f, &Matrix::zeros(0, m), &[], &a_in, &b_in, a, &[], &u);
    let scale = 1.0 + c.iter().fold(0.0f64, |s, v| s.max(v.abs())) + cap;
    assert!(
        r.is_optimal(1e-9 * scale),
        "a-column m={m} beta={beta} cap={cap}: {r:?}"
    );
}

/// Certifies a λ-row: the simplex multiplier `v = −g_j` averaged over the
/// support, each bound's `g_j + v` off it.
fn certify_lambda(rho: f64, gamma: f64, arrival: f64, l: &[f64], c: &[f64], lambda: &[f64]) {
    let (f, a_eq, a_in) = lambda_row_qp(rho, gamma, l, c);
    let g = f.gradient(lambda);
    let n = lambda.len();
    let active: Vec<usize> = (0..n).filter(|&j| lambda[j] > 0.0).collect();
    assert!(!active.is_empty(), "a positive arrival needs a support");
    let v = -active.iter().map(|&j| g[j]).sum::<f64>() / active.len() as f64;
    let u: Vec<f64> = (0..n)
        .map(|j| if lambda[j] > 0.0 { 0.0 } else { g[j] + v })
        .collect();
    let r = kkt::qp_residuals(
        &f,
        &a_eq,
        &[arrival],
        &a_in,
        &vec![0.0; n],
        lambda,
        &[v],
        &u,
    );
    let scale = 1.0
        + c.iter().fold(0.0f64, |s, x| s.max(x.abs()))
        + g.iter().fold(0.0f64, |s, x| s.max(x.abs()))
        + arrival;
    assert!(
        r.is_optimal(1e-9 * scale),
        "lambda-row n={n} A={arrival} gamma={gamma}: {r:?}"
    );
}

/// Whether the dense active set's answer is itself a feasible point: on
/// stiff rows it can stop on a working set whose iterate went negative.
fn feasible(reference: &[f64]) -> bool {
    let scale = 1.0 + reference.iter().fold(0.0f64, |s, v| s.max(v.abs()));
    reference.iter().all(|&v| v >= -1e-9 * scale)
}

fn assert_agrees(x: &[f64], reference: &[f64], what: &str) {
    for (a, b) in x.iter().zip(reference) {
        assert!(
            (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
            "{what}: {x:?} vs dense {reference:?}"
        );
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn a_columns_are_kkt_optimal_and_match_the_dense_active_set() {
    let mut rng = SplitMix64::new(0xA_C01);
    let rho = 1.0;
    let mut dense_checked = 0;
    for &m in &[1usize, 2, 3, 5, 8, 17, 40, 128, 512, 1024] {
        let rounds = if m > 128 { 6 } else { 30 };
        for round in 0..rounds {
            let shape = round % 5;
            let scale = rng.uniform(0.1, 5.0);
            let c = linear_term(&mut rng, m, shape, scale);
            let beta = [0.0, 0.08, 0.15, 1.0][rng.below(4)];
            // Slack, binding and zero caps.
            let uncapped: f64 = AColQp::new(m, rho, beta, f64::INFINITY, None)
                .solve(&c, None)
                .unwrap()
                .iter()
                .sum();
            let cap = match round % 4 {
                0 => 0.0,
                1 => 0.5 * uncapped,
                2 => 2.0 * uncapped + 1.0,
                _ => rng.uniform(0.0, 3.0),
            };
            let mut kernel = AColQp::new(m, rho, beta, cap, None);
            let a = kernel.solve(&c, None).unwrap();
            assert!(a.iter().all(|&v| v >= 0.0), "m={m}: negative share");
            if cap == 0.0 {
                assert!(a.iter().all(|&v| v == 0.0), "zero cap must yield zeros");
            }
            certify_a(rho, beta, cap, &c, &a);
            if m <= DENSE_MAX_DIM {
                let (f, a_in, b_in) = a_column_qp(rho, beta, cap, &c);
                let dense = ActiveSetQp::default().solve(
                    &f,
                    &Matrix::zeros(0, m),
                    &[],
                    &a_in,
                    &b_in,
                    vec![0.0; m],
                );
                if let Some(sol) = dense.ok().filter(|sol| feasible(&sol.x)) {
                    assert_agrees(&a, &sol.x, &format!("a-column m={m} cap={cap}"));
                    dense_checked += 1;
                }
            }
        }
    }
    assert!(
        dense_checked > 150,
        "dense reference ran {dense_checked} times"
    );
}

#[test]
fn lambda_rows_are_kkt_optimal_and_match_the_dense_active_set() {
    let mut rng = SplitMix64::new(0x1A_3BDA);
    let rho = 1.0;
    let (mut dense_checked, mut dense_failed) = (0, 0);
    for &n in &[1usize, 2, 3, 4, 8, 16, 32, 64] {
        for round in 0..40 {
            let (arrival, w) = match round % 4 {
                0 => (1e-3, 1e4),
                1 => (rng.uniform(0.05, 3.0), 10.0),
                2 => (rng.uniform(0.05, 3.0), 0.0),
                _ => (rng.uniform(1e-3, 0.1), rng.uniform(1e3, 1e4)),
            };
            // Latency rows with and without ties.
            let l: Vec<f64> = if round % 5 == 0 {
                (0..n).map(|_| [0.01, 0.02][rng.below(2)]).collect()
            } else {
                (0..n).map(|_| rng.uniform(0.005, 0.06)).collect()
            };
            let scale = rng.uniform(0.01, 3.0);
            let c = linear_term(&mut rng, n, round % 5, scale);
            let gamma = disutility_rank1_gamma(w, arrival);
            let lambda = LambdaQp::new(&l, arrival, w, rho).solve(&c);
            assert!(lambda.iter().all(|&v| v >= 0.0), "n={n}: negative share");
            let total: f64 = lambda.iter().sum();
            assert!(
                (total - arrival).abs() <= 1e-12 * (1.0 + arrival) * n as f64,
                "n={n}: routes {total}, arrival {arrival}"
            );
            certify_lambda(rho, gamma, arrival, &l, &c, &lambda);
            if n <= DENSE_MAX_DIM {
                let (f, a_eq, a_in) = lambda_row_qp(rho, gamma, &l, &c);
                match ActiveSetQp::default().solve(
                    &f,
                    &a_eq,
                    &[arrival],
                    &a_in,
                    &vec![0.0; n],
                    vec![arrival / n as f64; n],
                ) {
                    Ok(sol) if feasible(&sol.x) => {
                        assert_agrees(
                            &lambda,
                            &sol.x,
                            &format!("lambda-row n={n} A={arrival} w={w}"),
                        );
                        dense_checked += 1;
                    }
                    _ => dense_failed += 1,
                }
            }
        }
    }
    assert!(
        dense_checked > 150,
        "dense reference converged {dense_checked} times, failed {dense_failed}"
    );
}

#[test]
fn zero_arrival_rows_are_zero() {
    let mut qp = LambdaQp::new(&[0.01, 0.02, 0.03], 0.0, 10.0, 1.0);
    assert_eq!(qp.solve(&[-1.0, 0.5, 2.0]), vec![0.0; 3]);
    // The short-circuit runs before any arithmetic, poison included.
    assert_eq!(qp.solve(&[f64::NAN, 0.5, 2.0]), vec![0.0; 3]);
}

/// A kernel carries nothing between solves: one that has already solved
/// other inputs returns the bits a fresh kernel returns.
#[test]
fn used_kernels_return_the_bits_of_fresh_ones() {
    let mut rng = SplitMix64::new(0xF2E5);
    let l: Vec<f64> = (0..24).map(|_| rng.uniform(0.005, 0.06)).collect();
    let mut used_row = LambdaQp::new(&l, 0.7, 10.0, 1.0);
    let mut used_col = AColQp::new(300, 1.0, 0.12, 40.0, None);
    for round in 0..50 {
        let c_row = linear_term(&mut rng, 24, round % 5, 2.0);
        let c_col = linear_term(&mut rng, 300, round % 5, 2.0);
        let fresh_row = LambdaQp::new(&l, 0.7, 10.0, 1.0).solve(&c_row);
        let fresh_col = AColQp::new(300, 1.0, 0.12, 40.0, None)
            .solve(&c_col, None)
            .unwrap();
        assert_eq!(
            bits(&used_row.solve(&c_row)),
            bits(&fresh_row),
            "round {round}"
        );
        assert_eq!(
            bits(&used_col.solve(&c_col, None).unwrap()),
            bits(&fresh_col),
            "round {round}"
        );
    }
}

/// Poison degrades like `project_simplex`: an all-NaN block and `Ok`,
/// never an error and never a panic — for the λ-row and the a-column, and
/// for NaN and either infinity anywhere in the linear term.
#[test]
fn non_finite_linear_terms_yield_all_nan_blocks() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for at in 0..4 {
            let mut c = vec![0.3, -0.2, 0.1, -0.4];
            c[at] = bad;
            let row = LambdaQp::new(&[0.01, 0.02, 0.03, 0.04], 1.5, 10.0, 1.0).solve(&c);
            assert!(row.iter().all(|v| v.is_nan()), "{bad} at {at}: {row:?}");
            let col = AColQp::new(4, 1.0, 0.12, 2.0, None)
                .solve(&c, None)
                .unwrap();
            assert!(col.iter().all(|v| v.is_nan()), "{bad} at {at}: {col:?}");
        }
    }
}
