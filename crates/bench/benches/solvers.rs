//! Substrate solver micro-benchmarks: the dense factorizations and the
//! three QP paths that power every ADM-G iteration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ufc_linalg::{Cholesky, Ldlt, Matrix};
use ufc_opt::projection::{project_capped_simplex, project_simplex};
use ufc_opt::{ActiveSetQp, AdmmQp, Fista, QuadObjective};

fn spd(n: usize) -> Matrix {
    // Diagonally dominant SPD with off-diagonal structure.
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            4.0 + (i % 3) as f64
        } else {
            1.0 / (1.0 + (i as f64 - j as f64).abs())
        }
    })
}

fn bench_factorizations(c: &mut Criterion) {
    let mut g = c.benchmark_group("factorizations");
    for n in [8usize, 32, 96] {
        let a = spd(n);
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        g.bench_with_input(BenchmarkId::new("cholesky_solve", n), &n, |b, _| {
            b.iter(|| {
                let f = Cholesky::factor(black_box(&a)).unwrap();
                black_box(f.solve(black_box(&rhs)).unwrap())
            })
        });
        g.bench_with_input(BenchmarkId::new("ldlt_solve", n), &n, |b, _| {
            b.iter(|| {
                let f = Ldlt::factor(black_box(&a)).unwrap();
                black_box(f.solve(black_box(&rhs)).unwrap())
            })
        });
    }
    g.finish();
}

fn bench_projections(c: &mut Criterion) {
    let mut g = c.benchmark_group("projections");
    for n in [4usize, 10, 100, 1000] {
        let x: Vec<f64> = (0..n).map(|i| ((i * 37) % 17) as f64 / 7.0 - 1.0).collect();
        g.bench_with_input(BenchmarkId::new("simplex", n), &n, |b, _| {
            b.iter(|| black_box(project_simplex(black_box(&x), 1.0)))
        });
        g.bench_with_input(BenchmarkId::new("capped_simplex", n), &n, |b, _| {
            b.iter(|| black_box(project_capped_simplex(black_box(&x), 1.0)))
        });
    }
    g.finish();
}

/// The λ-sub-problem shape at growing datacenter counts: ρI + γLLᵀ over a
/// simplex — exactly what every front-end solves every iteration.
fn lambda_shaped_problem(n: usize) -> (QuadObjective, f64) {
    let arrival = 2.0;
    let latencies: Vec<f64> = (0..n).map(|j| 0.005 + 0.002 * (j % 9) as f64).collect();
    let c: Vec<f64> = (0..n).map(|j| 0.1 * ((j % 5) as f64 - 2.0)).collect();
    let obj = QuadObjective::diag_rank1(vec![1.0; n], 2.0 * 1e4 / arrival, latencies, c, 0.0);
    (obj, arrival)
}

fn bench_qp_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("lambda_subproblem");
    for n in [4usize, 10, 40] {
        let (obj, arrival) = lambda_shaped_problem(n);
        let a_eq = Matrix::from_fn(1, n, |_, _| 1.0);
        let a_in = Matrix::from_fn(n, n, |i, j| if i == j { -1.0 } else { 0.0 });
        let start = vec![arrival / n as f64; n];
        g.bench_with_input(BenchmarkId::new("active_set", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    ActiveSetQp::default()
                        .solve(
                            black_box(&obj),
                            &a_eq,
                            &[arrival],
                            &a_in,
                            &vec![0.0; n],
                            start.clone(),
                        )
                        .unwrap(),
                )
            })
        });
        g.bench_with_input(BenchmarkId::new("fista", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    Fista::new(100_000, 1e-9)
                        .minimize(
                            black_box(&obj),
                            |x| project_simplex(x, arrival),
                            start.clone(),
                        )
                        .unwrap(),
                )
            })
        });
        // ADMM path: Σx = arrival as an equality row plus x ≥ 0 bounds.
        let p = obj.dense_hessian();
        let q = obj.linear().to_vec();
        let mut a = Matrix::zeros(n + 1, n);
        for j in 0..n {
            a[(0, j)] = 1.0;
            a[(1 + j, j)] = 1.0;
        }
        let mut l = vec![0.0; n + 1];
        let mut u = vec![f64::INFINITY; n + 1];
        l[0] = arrival;
        u[0] = arrival;
        g.bench_with_input(BenchmarkId::new("admm_qp", n), &n, |b, _| {
            b.iter(|| black_box(AdmmQp::default().solve(&p, &q, &a, &l, &u).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(
    solvers,
    bench_factorizations,
    bench_projections,
    bench_qp_paths
);
criterion_main!(solvers);
