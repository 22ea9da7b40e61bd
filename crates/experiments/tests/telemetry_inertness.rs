//! The telemetry layer's inertness contract (DESIGN.md §11): collecting
//! telemetry — or chaining any extra observer onto a run — must not
//! change a single bit of the iterate stream. Asserted here by running
//! every engine with telemetry off, on, and chained with extra observers,
//! at 1 and 4 worker threads (the socket engine at its default one
//! process per node), and comparing histories, points, and UFC breakdowns
//! bitwise.

use ufc_core::{
    AdmgSettings, AdmgSolution, AdmgSolver, HistoryRecorder, JsonlSink, RunTelemetry, Strategy,
    TelemetryCollector,
};
use ufc_distsim::{DistRunReport, DistributedAdmg, Runtime, SocketOptions};
use ufc_experiments::solver_bench::admg_scaling;
use ufc_experiments::DEFAULT_SEED;
use ufc_model::{UfcBreakdown, UfcInstance};

fn breakdown_bits(b: &UfcBreakdown) -> Vec<u64> {
    vec![
        b.utility_dollars.to_bits(),
        b.energy_cost_dollars.to_bits(),
        b.carbon_cost_dollars.to_bits(),
        b.carbon_tons.to_bits(),
        b.average_latency_s.to_bits(),
        b.fuel_cell_mwh.to_bits(),
        b.grid_mwh.to_bits(),
        b.fuel_cell_utilization.to_bits(),
        b.queueing_cost_dollars.to_bits(),
        b.ufc().to_bits(),
    ]
}

fn point_bits(lambda: &[Vec<f64>], mu: &[f64], nu: &[f64]) -> Vec<u64> {
    lambda
        .iter()
        .flatten()
        .chain(mu.iter())
        .chain(nu.iter())
        .map(|v| v.to_bits())
        .collect()
}

/// The full bit fingerprint of a solver run: iteration count, every
/// history record, the final iterate, point, and breakdown.
fn solution_bits(sol: &AdmgSolution) -> Vec<u64> {
    let mut bits = vec![sol.iterations as u64, u64::from(sol.converged)];
    for rec in &sol.history {
        bits.push(rec.iteration as u64);
        bits.push(rec.link_residual.to_bits());
        bits.push(rec.balance_residual.to_bits());
        bits.push(rec.dual_residual.to_bits());
    }
    bits.extend(sol.state.lambda.iter().map(|v| v.to_bits()));
    bits.extend(sol.state.mu.iter().map(|v| v.to_bits()));
    bits.extend(sol.state.nu.iter().map(|v| v.to_bits()));
    bits.extend(sol.state.a.iter().map(|v| v.to_bits()));
    bits.extend(point_bits(&sol.point.lambda, &sol.point.mu, &sol.point.nu));
    bits.extend(breakdown_bits(&sol.breakdown));
    bits
}

fn report_bits(report: &DistRunReport) -> Vec<u64> {
    let mut bits = vec![
        report.iterations as u64,
        u64::from(report.converged),
        report.stats.data_messages as u64,
        report.stats.control_messages as u64,
        report.stats.total_bytes as u64,
    ];
    bits.extend(point_bits(
        &report.point.lambda,
        &report.point.mu,
        &report.point.nu,
    ));
    bits.extend(breakdown_bits(&report.breakdown));
    bits
}

/// KKT systems a run solved, on either kernel: dense solves are cache hits
/// or misses, Sherman–Morrison solves bypass the cache.
fn kkt_solves(telemetry: &RunTelemetry) -> u64 {
    let s = &telemetry.solver;
    s.kkt_cache_hits + s.kkt_cache_misses + s.kkt_rank1_solves
}

fn workload(num_threads: usize) -> (UfcInstance, AdmgSettings) {
    let instances = admg_scaling(DEFAULT_SEED, 1).expect("scaling workload must build");
    let instance = instances
        .into_iter()
        .next()
        .expect("scaling workload yields at least one instance");
    let settings = AdmgSettings {
        num_threads,
        ..AdmgSettings::default()
    };
    (instance, settings)
}

/// In-process solver: telemetry off vs on vs on-with-chained-observers.
fn sweep_solver(num_threads: usize) {
    let (instance, settings) = workload(num_threads);

    let off = AdmgSolver::new(settings)
        .solve(&instance, Strategy::Hybrid)
        .expect("baseline solve");
    assert!(off.converged);
    assert!(off.telemetry.is_none(), "telemetry off must attach nothing");
    let reference = solution_bits(&off);

    let on = AdmgSolver::new(settings.with_telemetry(true))
        .solve(&instance, Strategy::Hybrid)
        .expect("telemetry solve");
    assert_eq!(
        reference,
        solution_bits(&on),
        "{num_threads} threads: enabling telemetry changed the run"
    );
    let telemetry = on.telemetry.expect("telemetry on must attach a snapshot");
    assert_eq!(telemetry.iterations as usize, on.iterations);
    assert!(telemetry.total_ns() > 0, "phase timings must be collected");
    assert!(
        kkt_solves(&telemetry) > 0,
        "solver counters must be folded in"
    );
    assert!(telemetry.traffic.is_none() && telemetry.fault.is_none());

    // Chain a history recorder, a second collector, and a JSONL sink on
    // top of the enabled run: still bit-identical.
    let mut extra = HistoryRecorder::default();
    let chained = AdmgSolver::new(settings.with_telemetry(true))
        .solve_observed(&instance, Strategy::Hybrid, &mut extra)
        .expect("chained solve");
    assert_eq!(
        reference,
        solution_bits(&chained),
        "{num_threads} threads: chained observers changed the run"
    );
    let extra_history = extra.into_history();
    assert_eq!(chained.history.len(), extra_history.len());
    for (a, b) in chained.history.iter().zip(&extra_history) {
        assert_eq!(a.link_residual.to_bits(), b.link_residual.to_bits());
        assert_eq!(a.dual_residual.to_bits(), b.dual_residual.to_bits());
    }

    let mut sink = JsonlSink::new(Vec::new());
    let sunk = AdmgSolver::new(settings)
        .solve_observed(&instance, Strategy::Hybrid, &mut sink)
        .expect("sink solve");
    assert_eq!(
        reference,
        solution_bits(&sunk),
        "{num_threads} threads: a JSONL sink changed the run"
    );
    assert!(
        sunk.telemetry.is_none(),
        "an external sink must not flip the settings gate"
    );
    let bytes = sink.finish().expect("vec writes cannot fail");
    assert_eq!(
        String::from_utf8(bytes)
            .expect("json is utf8")
            .lines()
            .count(),
        sunk.iterations,
        "the sink must emit one line per iteration"
    );
}

/// Distributed engines: telemetry off vs on vs chained, both runtimes.
fn sweep_distributed(num_threads: usize) {
    let (instance, settings) = workload(num_threads);

    for runtime in [Runtime::Lockstep, Runtime::Threaded] {
        let off = DistributedAdmg::new(settings)
            .run(&instance, Strategy::Hybrid, runtime)
            .expect("baseline run");
        assert!(off.converged);
        assert!(off.telemetry.is_none());
        let reference = report_bits(&off);

        let on = DistributedAdmg::new(settings.with_telemetry(true))
            .run(&instance, Strategy::Hybrid, runtime)
            .expect("telemetry run");
        assert_eq!(
            reference,
            report_bits(&on),
            "{runtime:?}/{num_threads} threads: enabling telemetry changed the run"
        );
        let telemetry = on.telemetry.expect("telemetry on must attach a snapshot");
        assert_eq!(telemetry.iterations as usize, on.iterations);
        assert!(telemetry.total_ns() > 0);
        let traffic = telemetry.traffic.expect("distributed runs count traffic");
        assert_eq!(traffic.data_messages as usize, on.stats.data_messages);
        assert_eq!(traffic.total_bytes as usize, on.stats.total_bytes);
        assert_eq!(
            (traffic.frames_sent, traffic.socket_writes),
            (0, 0),
            "{runtime:?}: in-memory engines send no socket frames"
        );
        assert!(
            telemetry.fault.is_none(),
            "clean run must not report faults"
        );
        if runtime == Runtime::Lockstep {
            assert!(
                kkt_solves(&telemetry) > 0,
                "lockstep keeps the node kernels observable"
            );
        }

        let mut collector = TelemetryCollector::default();
        let chained = DistributedAdmg::new(settings.with_telemetry(true))
            .run_observed(&instance, Strategy::Hybrid, runtime, &mut collector)
            .expect("chained run");
        assert_eq!(
            reference,
            report_bits(&chained),
            "{runtime:?}/{num_threads} threads: chained observers changed the run"
        );
        let external = collector.into_telemetry();
        assert_eq!(external.iterations as usize, chained.iterations);
        assert!(external.total_ns() > 0);
    }
}

#[test]
fn socket_telemetry_is_inert() {
    let (instance, settings) = workload(1);
    let options = SocketOptions::new(env!("CARGO_BIN_EXE_ufc-node"));
    let off = DistributedAdmg::new(settings)
        .run_sockets(&instance, Strategy::Hybrid, &options)
        .expect("baseline socket run");
    assert!(off.converged);
    assert!(off.telemetry.is_none());

    let on = DistributedAdmg::new(settings.with_telemetry(true))
        .run_sockets(&instance, Strategy::Hybrid, &options)
        .expect("telemetry socket run");
    assert_eq!(
        report_bits(&off),
        report_bits(&on),
        "sockets: enabling telemetry changed the run"
    );
    let telemetry = on.telemetry.expect("telemetry on must attach a snapshot");
    assert_eq!(telemetry.iterations as usize, on.iterations);
    let traffic = telemetry.traffic.expect("socket runs count traffic");
    assert_eq!(traffic.data_messages as usize, on.stats.data_messages);
    assert!(traffic.frames_sent > 0);
    // One process per node: a fan-out puts at most one frame on each
    // connection, except that every front-end connection carries its
    // correction and its next prediction in one write.
    let m = instance.m_frontends() as u64;
    assert_eq!(
        traffic.socket_writes,
        traffic.frames_sent - m * on.iterations as u64
    );
}

#[test]
fn solver_telemetry_is_inert_single_threaded() {
    sweep_solver(1);
}

#[test]
fn solver_telemetry_is_inert_multi_threaded() {
    sweep_solver(4);
}

#[test]
fn distributed_telemetry_is_inert_single_threaded() {
    sweep_distributed(1);
}

#[test]
fn distributed_telemetry_is_inert_multi_threaded() {
    sweep_distributed(4);
}
