//! Scaling study: how the distributed ADM-G algorithm behaves as the
//! deployment grows — the paper's motivation for a distributed solution
//! ("tens of datacenters, hundreds of thousands of front-ends").
//!
//! Measures wall-clock per solve for growing front-end and datacenter
//! counts, and the message volume of the distributed protocol at paper
//! scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ufc_bench::{paper_instance, synthetic_instance};
use ufc_core::{AdmgSettings, AdmgSolver, Strategy};
use ufc_distsim::{DistributedAdmg, Runtime};

fn bench_frontend_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("admg_frontend_scaling");
    g.sample_size(10);
    for m in [10usize, 40, 160] {
        let inst = synthetic_instance(m, 4);
        let solver = AdmgSolver::new(AdmgSettings::default());
        g.bench_with_input(BenchmarkId::new("exact_kernels", m), &m, |b, _| {
            b.iter(|| black_box(solver.solve(black_box(&inst), Strategy::Hybrid).unwrap()))
        });
    }
    g.finish();
}

fn bench_datacenter_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("admg_datacenter_scaling");
    g.sample_size(10);
    for n in [4usize, 8, 16] {
        let inst = synthetic_instance(20, n);
        let solver = AdmgSolver::new(AdmgSettings::default());
        g.bench_with_input(BenchmarkId::new("exact_kernels", n), &n, |b, _| {
            b.iter(|| black_box(solver.solve(black_box(&inst), Strategy::Hybrid).unwrap()))
        });
    }
    g.finish();
}

fn bench_distributed_runtimes(c: &mut Criterion) {
    let inst = paper_instance();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    // Report the protocol cost once.
    let report = runner
        .run(&inst, Strategy::Hybrid, Runtime::Lockstep)
        .unwrap();
    println!(
        "[distsim] paper scale: {} iterations, {} data + {} control messages, \
         {:.1} KiB, est. WAN wall-clock {:.2} s",
        report.iterations,
        report.stats.data_messages,
        report.stats.control_messages,
        report.stats.total_bytes as f64 / 1024.0,
        report.estimated_wan_seconds,
    );
    let mut g = c.benchmark_group("distributed_runtime");
    g.sample_size(10);
    g.bench_function("lockstep_paper_scale", |b| {
        b.iter(|| {
            black_box(
                runner
                    .run(black_box(&inst), Strategy::Hybrid, Runtime::Lockstep)
                    .unwrap(),
            )
        })
    });
    g.bench_function("threaded_paper_scale", |b| {
        b.iter(|| {
            black_box(
                runner
                    .run(black_box(&inst), Strategy::Hybrid, Runtime::Threaded)
                    .unwrap(),
            )
        })
    });
    g.finish();
}

fn bench_lossy_runtime(c: &mut Criterion) {
    use ufc_distsim::loss::LossConfig;
    let inst = paper_instance();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    for p in [0.0, 0.1, 0.3] {
        let report = runner
            .run_lossy(&inst, Strategy::Hybrid, LossConfig::new(p, 7))
            .unwrap();
        println!(
            "[distsim] loss p = {p}: {} retransmissions, est. WAN wall-clock {:.2} s",
            report.retransmissions, report.estimated_wan_seconds,
        );
    }
    let mut g = c.benchmark_group("lossy_runtime");
    g.sample_size(10);
    for p in [0.0, 0.3] {
        g.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                black_box(
                    runner
                        .run_lossy(black_box(&inst), Strategy::Hybrid, LossConfig::new(p, 7))
                        .unwrap(),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(
    admg_scaling,
    bench_frontend_scaling,
    bench_datacenter_scaling,
    bench_distributed_runtimes,
    bench_lossy_runtime
);
criterion_main!(admg_scaling);
