//! Property tests of the exact λ-row and a-column kernels at scale.
//!
//! Every quadratic solve is certified through `ufc_opt::kkt::qp_residuals`,
//! with the multipliers recovered from the gradient at the returned point;
//! wherever the dense active set converges (small blocks), the kernels must
//! also agree with it to `1e-9·(1 + |x|)`. Columns run up to M = 1024 and
//! rows up to N = 64, over ties, one-signed linear terms, zero arrivals,
//! binding and slack caps, and the stiff corner A_i = 1e-3 with w = 1e4.
//!
//! The congested a-column (queueing extension) is not a QP: it must beat
//! the FISTA reference step's objective, land near its point, and satisfy
//! its scalar KKT system.

use ufc_core::subproblems::{a_step, CongestedAStep};
use ufc_core::{AColQp, AdmgState, LambdaQp};
use ufc_linalg::Matrix;
use ufc_model::generator::SplitMix64;
use ufc_model::utility::disutility_rank1_gamma;
use ufc_model::{EmissionCostFn, QueueingCost, UfcInstance};
use ufc_opt::{kkt, ActiveSetQp, QuadObjective, SmoothObjective};

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
                .solve(&c)
                .iter()
                .sum();
            let cap = match round % 4 {
                0 => 0.0,
                1 => 0.5 * uncapped,
                2 => 2.0 * uncapped + 1.0,
                _ => rng.uniform(0.0, 3.0),
            };
            let mut kernel = AColQp::new(m, rho, beta, cap, None);
            let a = kernel.solve(&c);
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
/// other inputs returns the bits a fresh kernel returns, congested or not.
#[test]
fn used_kernels_return_the_bits_of_fresh_ones() {
    let mut rng = SplitMix64::new(0xF2E5);
    let l: Vec<f64> = (0..24).map(|_| rng.uniform(0.005, 0.06)).collect();
    let q = Some(QueueingCost::default_interactive());
    let mut used_row = LambdaQp::new(&l, 0.7, 10.0, 1.0);
    let mut used_col = AColQp::new(300, 1.0, 0.12, 40.0, None);
    let mut used_congested = AColQp::new(300, 1.0, 0.12, 40.0, q);
    for round in 0..50 {
        let c_row = linear_term(&mut rng, 24, round % 5, 2.0);
        let c_col = linear_term(&mut rng, 300, round % 5, 2.0);
        let fresh_row = LambdaQp::new(&l, 0.7, 10.0, 1.0).solve(&c_row);
        let fresh_col = AColQp::new(300, 1.0, 0.12, 40.0, None).solve(&c_col);
        let c_congested: Vec<f64> = c_col.iter().map(|v| 20.0 * v).collect();
        let fresh_congested = AColQp::new(300, 1.0, 0.12, 40.0, q).solve(&c_congested);
        assert_eq!(
            bits(&used_row.solve(&c_row)),
            bits(&fresh_row),
            "round {round}"
        );
        assert_eq!(
            bits(&used_col.solve(&c_col)),
            bits(&fresh_col),
            "round {round}"
        );
        assert_eq!(
            bits(&used_congested.solve(&c_congested)),
            bits(&fresh_congested),
            "round {round}"
        );
    }
}

/// Poison degrades like `project_simplex`: an all-NaN block, never an
/// error and never a panic — for the λ-row and the a-column, congested or
/// not, and for NaN and either infinity anywhere in the linear term.
#[test]
fn non_finite_linear_terms_yield_all_nan_blocks() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for at in 0..4 {
            let mut c = vec![0.3, -0.2, 0.1, -0.4];
            c[at] = bad;
            let row = LambdaQp::new(&[0.01, 0.02, 0.03, 0.04], 1.5, 10.0, 1.0).solve(&c);
            assert!(row.iter().all(|v| v.is_nan()), "{bad} at {at}: {row:?}");
            let col = AColQp::new(4, 1.0, 0.12, 2.0, None).solve(&c);
            assert!(col.iter().all(|v| v.is_nan()), "{bad} at {at}: {col:?}");
            let q = QueueingCost::default_interactive();
            let col = AColQp::new(4, 1.0, 0.12, 2.0, Some(q)).solve(&c);
            assert!(col.iter().all(|v| v.is_nan()), "{bad} at {at}: {col:?}");
        }
    }
}

/// One datacenter of `m` front-ends with capacity `cap` and slope β, under
/// the queueing extension `q`: the instance the reference a-step solves.
fn congested_instance(m: usize, beta: f64, cap: f64, q: QueueingCost) -> UfcInstance {
    UfcInstance::new(
        vec![0.0; m],
        vec![cap],
        vec![0.24],
        vec![beta],
        vec![0.48],
        vec![40.0],
        80.0,
        vec![0.5],
        vec![vec![0.01]; m],
        10.0,
        vec![EmissionCostFn::linear(25.0).unwrap()],
        1.0,
    )
    .unwrap()
    .with_queueing(q)
}

/// The FISTA reference column (`subproblems::a_step`) for linear term `c`:
/// λ̃ = 0, φ = 0, μ̃ = α and φ_i· = −c make the step's linear term exactly
/// `c` (its drift term is then `α − α = 0`).
fn fista_reference(inst: &UfcInstance, rho: f64, c: &[f64]) -> Vec<f64> {
    let mut state = AdmgState::zeros(inst);
    for (v, &ci) in state.varphi.iter_mut().zip(c) {
        *v = -ci;
    }
    let zeros = vec![0.0; c.len()];
    a_step(inst, rho, &state, &zeros, &inst.alpha, &[0.0], &[0.0]).unwrap()
}

/// How a congested column's load came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Load {
    Zero,
    Interior,
    AtCap,
}

/// Checks the congested column's scalar KKT system: with `s = Σa` and
/// `x = −c/ρ`, every entry is `max(0, x_i − τ)` for one `τ`, and
/// `τ = β²s + Q′(s)/ρ + η/ρ` with `η = 0` below the shrunk cap and
/// `η ≥ 0` on it.
fn certify_congested(
    rho: f64,
    beta: f64,
    cap: f64,
    q: &QueueingCost,
    c: &[f64],
    a: &[f64],
) -> Load {
    let x: Vec<f64> = c.iter().map(|&ci| -ci / rho).collect();
    let s: f64 = a.iter().sum();
    let cap_q = q.load_cap(cap).min(cap);
    let base = beta * beta * s + q.derivative(s, cap) / rho;
    let support: Vec<usize> = (0..a.len()).filter(|&i| a[i] > 0.0).collect();
    let tau = if support.is_empty() {
        base
    } else {
        support.iter().map(|&i| x[i] - a[i]).sum::<f64>() / support.len() as f64
    };
    let tol = 1e-9 * (1.0 + x.iter().fold(tau.abs(), |t, v| t.max(v.abs())));
    for (i, (&xi, &ai)) in x.iter().zip(a).enumerate() {
        assert!(ai >= 0.0, "entry {i} negative: {ai}");
        if ai > 0.0 {
            assert!(
                (xi - ai - tau).abs() <= tol,
                "entry {i}: x − a = {} vs τ {tau}",
                xi - ai
            );
        } else {
            assert!(
                xi <= tau + tol,
                "entry {i} off the support above τ: {xi} vs {tau}"
            );
        }
    }
    assert!(
        s <= cap_q * (1.0 + 1e-12),
        "load {s} past the shrunk cap {cap_q}"
    );
    let eta = rho * (tau - base);
    if s >= cap_q * (1.0 - 1e-12) {
        assert!(eta >= -rho * tol, "cap multiplier {eta} negative");
        Load::AtCap
    } else {
        assert!(
            eta.abs() <= rho * tol,
            "τ {tau} vs β²s + Q′(s)/ρ = {base} below the cap"
        );
        if s == 0.0 {
            Load::Zero
        } else {
            Load::Interior
        }
    }
}

/// The exact congested kernel against the FISTA reference step: its
/// objective is never worse (to `1e-12·(1 + |f|)`), the reference lies no
/// farther from it than the reference's objective excess allows, its
/// entries lie within `1e-4·(1 + |x|)` of a reference that converged, its
/// scalar KKT system holds, and a used kernel returns the bits of a fresh
/// one. The linear terms cover columns that carry no load, interior loads
/// and a binding cap.
#[test]
fn congested_columns_beat_the_fista_reference_and_satisfy_their_kkt_system() {
    let mut rng = SplitMix64::new(0xC0_4637);
    let (mut seen, mut entries_compared) = (Vec::new(), 0);
    for &m in &[1usize, 2, 10, 128, 1024] {
        let rounds = if m > 128 { 6 } else { 15 };
        for round in 0..rounds {
            let rho = [1.0, 8.0][round % 2];
            let beta = [0.08, 0.15, 1.0][rng.below(3)];
            let cap = rng.uniform(0.5, 4.0);
            let q = if round % 3 == 2 {
                QueueingCost::new(rng.uniform(0.001, 0.01), rng.uniform(1.0, 1e4), 0.9).unwrap()
            } else {
                QueueingCost::default_interactive()
            };
            // Zero load (every x below τ(0)), then loads that stay inside
            // or reach the cap as the breakpoints grow.
            let scale = [0.0, 1.0, 30.0, 300.0, 3e4][round % 5];
            let c: Vec<f64> = if scale == 0.0 {
                linear_term(&mut rng, m, 3, 2.0)
            } else {
                linear_term(&mut rng, m, round % 5, scale)
                    .into_iter()
                    .map(|v| v - scale)
                    .collect()
            };
            let mut kernel = AColQp::new(m, rho, beta, cap, Some(q));
            let a = kernel.solve(&c);
            let reference = fista_reference(&congested_instance(m, beta, cap, q), rho, &c);
            let quad = QuadObjective::diag_rank1(
                vec![rho; m],
                rho * beta * beta,
                vec![1.0; m],
                c.clone(),
                0.0,
            );
            let f = CongestedAStep::new(quad, q, cap);
            let (fk, fr) = (f.value(&a), f.value(&reference));
            assert!(
                fk <= fr + 1e-12 * (1.0 + fr.abs()),
                "m={m} round {round}: kernel objective {fk} vs FISTA {fr}"
            );
            // The column is ρ-strongly convex, so a minimizer `a` bounds
            // any feasible point's distance by its objective excess:
            // ½ρ‖x − a‖² ≤ f(x) − f(a).
            let dist_sq: f64 = a
                .iter()
                .zip(&reference)
                .map(|(x, y)| (x - y) * (x - y))
                .sum();
            assert!(
                0.5 * rho * dist_sq <= fr - fk + 1e-12 * (1.0 + fr.abs()),
                "m={m} round {round}: FISTA lies {} from the kernel, past its objective excess {}",
                dist_sq.sqrt(),
                fr - fk
            );
            // Where FISTA stopped on a point measurably worse than the
            // kernel's (its 1/L step shrinks as backtracking meets the
            // barrier's curvature), its entries are no verdict.
            if fr - fk <= 1e-9 * (1.0 + fr.abs()) {
                for (i, (&ak, &ar)) in a.iter().zip(&reference).enumerate() {
                    assert!(
                        (ak - ar).abs() <= 1e-4 * (1.0 + ar.abs()),
                        "m={m} round {round} entry {i}: kernel {ak} vs FISTA {ar}"
                    );
                }
                entries_compared += 1;
            }
            seen.push(certify_congested(rho, beta, cap, &q, &c, &a));
            let c2 = linear_term(&mut rng, m, round % 5, 10.0);
            let _ = kernel.solve(&c2);
            assert_eq!(
                bits(&kernel.solve(&c)),
                bits(&a),
                "m={m} round {round}: used kernel"
            );
        }
    }
    for load in [Load::Zero, Load::Interior, Load::AtCap] {
        assert!(
            seen.iter().filter(|&&l| l == load).count() >= 5,
            "{load:?} columns: {seen:?}"
        );
    }
    assert!(
        entries_compared * 10 >= seen.len() * 9,
        "entries compared on {entries_compared} of {} columns",
        seen.len()
    );
}

/// A zero-capacity congested column is the single point 0: zeros before
/// any arithmetic, poison included (the congestion cost has no domain at
/// zero capacity).
#[test]
fn zero_capacity_congested_columns_are_zero() {
    let q = Some(QueueingCost::default_interactive());
    let mut qp = AColQp::new(3, 1.0, 0.12, 0.0, q);
    assert_eq!(qp.solve(&[-1e4, 0.5, 2.0]), vec![0.0; 3]);
    assert_eq!(qp.solve(&[f64::NAN, 0.5, 2.0]), vec![0.0; 3]);
}
