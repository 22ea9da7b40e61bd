//! Cross-engine invariant of the unified iteration driver: the in-process
//! solver, the lockstep engine (also under a trivial fault plan,
//! [`FaultPlan::none`]), and the multi-process socket engine at any
//! process count all run the SAME iterates and residual streams — bitwise,
//! at any thread count — because every one of them is a `Transport`
//! sequenced by `ufc_core::engine::drive` over the same `ufc_core::node`
//! types.

use ufc_core::{
    AdmgSettings, AdmgSolver, BlockSchedule, HistoryRecorder, IterationRecord, Phase, Strategy,
};
use ufc_distsim::{
    CorruptionConfig, DistRunReport, DistributedAdmg, Engine, FaultPlan, RunSpec, SocketOptions,
};
use ufc_experiments::solver_bench::admg_scaling;
use ufc_experiments::DEFAULT_SEED;
use ufc_model::{StorageFleet, UfcBreakdown, UfcInstance};

/// Bit-pattern view of every breakdown field, so equality failures are
/// exact (no tolerance hides a divergent engine).
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
        b.storage_mwh.to_bits(),
        b.storage_cost_dollars.to_bits(),
        b.ufc().to_bits(),
    ]
}

fn point_bits(lambda: &[Vec<f64>], mu: &[f64], nu: &[f64], d: &[f64]) -> Vec<u64> {
    lambda
        .iter()
        .flatten()
        .chain(mu.iter())
        .chain(nu.iter())
        .chain(d.iter())
        .map(|v| v.to_bits())
        .collect()
}

fn report_bits(report: &DistRunReport) -> Vec<u64> {
    let mut bits = point_bits(
        &report.point.lambda,
        &report.point.mu,
        &report.point.nu,
        &report.point.d,
    );
    bits.extend(breakdown_bits(&report.breakdown));
    bits
}

fn assert_report_matches(reference: &ReferenceRun, report: &DistRunReport, label: &str) {
    assert_eq!(
        reference.iterations, report.iterations,
        "{label}: iteration count diverged from the in-process solver"
    );
    assert!(
        report.converged,
        "{label}: engine failed to converge where the in-process solver did"
    );
    assert_eq!(
        reference.point,
        point_bits(
            &report.point.lambda,
            &report.point.mu,
            &report.point.nu,
            &report.point.d
        ),
        "{label}: operating point diverged bitwise"
    );
    assert_eq!(
        reference.breakdown,
        breakdown_bits(&report.breakdown),
        "{label}: UFC breakdown diverged bitwise"
    );
}

struct ReferenceRun {
    iterations: usize,
    point: Vec<u64>,
    breakdown: Vec<u64>,
    /// Link, balance and dual residual bits, per iteration.
    residuals: Vec<[u64; 3]>,
}

fn residual_bits(history: &[IterationRecord]) -> Vec<[u64; 3]> {
    history
        .iter()
        .map(|r| {
            [
                r.link_residual.to_bits(),
                r.balance_residual.to_bits(),
                r.dual_residual.to_bits(),
            ]
        })
        .collect()
}

/// Runs `spec` with a history observer and asserts that both the report
/// and the observed residual stream match the in-process run bitwise.
fn observed_run(
    runner: &DistributedAdmg,
    instance: &UfcInstance,
    spec: &RunSpec,
    reference: &ReferenceRun,
    label: &str,
) -> DistRunReport {
    let mut recorder = HistoryRecorder::default();
    let report = runner
        .execute(instance, Strategy::Hybrid, spec, &mut recorder)
        .unwrap_or_else(|e| panic!("{label} run must succeed: {e}"));
    assert_report_matches(reference, &report, label);
    assert_eq!(
        reference.residuals,
        residual_bits(&recorder.into_history()),
        "{label}: residual stream diverged bitwise from the in-process history"
    );
    report
}

fn reference_run(instance: &UfcInstance, settings: AdmgSettings) -> ReferenceRun {
    let solution = AdmgSolver::new(settings)
        .solve(instance, Strategy::Hybrid)
        .expect("in-process reference solve must succeed");
    assert!(
        solution.converged,
        "reference solve must converge within the iteration cap"
    );
    ReferenceRun {
        iterations: solution.iterations,
        point: point_bits(
            &solution.point.lambda,
            &solution.point.mu,
            &solution.point.nu,
            &solution.point.d,
        ),
        breakdown: breakdown_bits(&solution.breakdown),
        residuals: residual_bits(&solution.history),
    }
}

/// One engine sweep at a fixed thread count: in-process vs lockstep
/// (points and residual streams), also under `FaultPlan::none()` and
/// under rate-0 corruption.
fn sweep_engines(num_threads: usize) {
    let instances = admg_scaling(DEFAULT_SEED, 1).expect("scaling workload must build");
    let instance = instances
        .first()
        .expect("scaling workload yields at least one instance");
    let settings = AdmgSettings {
        num_threads,
        ..AdmgSettings::default()
    };
    let reference = reference_run(instance, settings);
    let runner = DistributedAdmg::new(settings);

    let lockstep = observed_run(
        &runner,
        instance,
        &RunSpec::new(Engine::Lockstep),
        &reference,
        "lockstep",
    );
    assert!(
        lockstep.fault.is_none(),
        "clean lockstep run must not carry a fault report"
    );

    let faulty = runner
        .execute(
            instance,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep).with_plan(FaultPlan::none()),
            &mut (),
        )
        .expect("trivial-plan run must succeed");
    assert_report_matches(&reference, &faulty, "trivial fault plan");
    assert_eq!(
        lockstep.stats, faulty.stats,
        "a trivial fault plan must add no traffic"
    );

    // Rate-0 corruption with checksums off must be indistinguishable from
    // a plain run: same iterates, same traffic, same wall-clock estimate.
    // This pins the "off by default costs nothing" contract of the codec.
    let corrupt = runner
        .execute(
            instance,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep)
                .with_corruption(CorruptionConfig::new(0.0, DEFAULT_SEED)),
            &mut (),
        )
        .expect("rate-0 corrupt run must succeed");
    assert_report_matches(&reference, &corrupt, "rate-0 corruption");
    assert_eq!(
        lockstep.stats, corrupt.stats,
        "rate-0 corruption without checksums must add no traffic"
    );
    assert_eq!(
        lockstep.estimated_wan_seconds.to_bits(),
        corrupt.estimated_wan_seconds.to_bits(),
        "rate-0 corruption must not perturb the WAN-time estimate"
    );
    let integrity = corrupt
        .integrity
        .expect("an armed corruption channel reports integrity counters");
    assert!(
        integrity.is_zero(),
        "a rate-0 channel must count nothing: {integrity:?}"
    );
}

/// The multi-process socket engine joins the agreement: real `ufc-node`
/// OS processes over loopback TCP, at both extremes of the co-hosting
/// spectrum (everything in one worker process, and nodes spread over
/// four), reproduce the in-process iterates bitwise with exactly the
/// lockstep engine's traffic. A traced run at each process count also
/// pins the coordinator's egress: every command frame goes out, each
/// front-end's next prediction rides in its correction's fan-out, and
/// each fan-out costs one socket write per worker process, not one per
/// node.
#[test]
fn socket_engine_agrees_bitwise_across_process_counts() {
    let instances = admg_scaling(DEFAULT_SEED, 1).expect("scaling workload must build");
    let instance = instances
        .first()
        .expect("scaling workload yields at least one instance");
    let settings = AdmgSettings::default();
    let reference = reference_run(instance, settings);
    let runner = DistributedAdmg::new(settings);
    let lockstep = runner
        .execute(
            instance,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep),
            &mut (),
        )
        .expect("lockstep run must succeed");

    for processes in [1usize, 4] {
        let options = SocketOptions::new(env!("CARGO_BIN_EXE_ufc-node")).with_processes(processes);
        let socket = runner
            .execute(
                instance,
                Strategy::Hybrid,
                &RunSpec::new(Engine::Sockets(options.clone())),
                &mut (),
            )
            .expect("socket run must succeed");
        let label = format!("sockets x{processes}");
        assert_report_matches(&reference, &socket, &label);
        assert_eq!(
            lockstep.stats, socket.stats,
            "{label}: socket and lockstep runs must exchange identical traffic"
        );
        assert!(
            socket.fault.is_none(),
            "{label}: clean socket run must not carry a fault report"
        );
        assert!(
            socket.integrity.is_none(),
            "{label}: clean socket run must not carry integrity counters"
        );

        let traced = DistributedAdmg::new(settings.with_telemetry(true))
            .execute(
                instance,
                Strategy::Hybrid,
                &RunSpec::new(Engine::Sockets(options.clone())),
                &mut (),
            )
            .expect("traced socket run must succeed");
        assert_report_matches(&reference, &traced, &format!("{label} traced"));
        let traffic = traced
            .telemetry
            .and_then(|t| t.traffic)
            .expect("a traced socket run reports traffic counters");
        let (m, n) = (
            instance.m_frontends() as u64,
            instance.n_datacenters() as u64,
        );
        let (iterations, processes) = (traced.iterations as u64, processes as u64);
        // Per iteration: m Predict, n Process and m Correct frames; the
        // stopping iteration's correction also sends m Predict frames for
        // an iteration that never runs; then the final gather's one Finish
        // per node.
        assert_eq!(
            traffic.frames_sent,
            (2 * m + n) * iterations + 2 * m + n,
            "{label}: command frames sent"
        );
        // The first prediction, two fan-outs per iteration (the datacenter
        // step; the correction with the next prediction) and the finish
        // round, each at most one write per process. Teardown's Shutdown
        // frames are not commands and are not counted.
        assert!(
            traffic.socket_writes <= 2 * processes * iterations + 2 * processes,
            "{label}: {} socket writes for {} frames over {iterations} iterations",
            traffic.socket_writes,
            traffic.frames_sent
        );
    }
}

/// The command frames a sequential socket run sends over `iterations`
/// iterations: m Predict, n Process and m Correct per iteration, then one
/// Finish per node.
fn sequential_frames(instance: &UfcInstance, iterations: usize) -> u64 {
    let (m, n) = (instance.m_frontends(), instance.n_datacenters());
    ((2 * m + n) * iterations + m + n) as u64
}

fn frames_sent(report: &DistRunReport) -> u64 {
    report
        .telemetry
        .as_ref()
        .and_then(|t| t.traffic)
        .expect("a traced socket run reports traffic counters")
        .frames_sent
}

/// A clean socket run stopped by the iteration cap agrees with lockstep
/// bitwise, and its last correction sends no prediction: past the cap
/// there is no next iteration to predict.
#[test]
fn capped_socket_run_predicts_nothing_past_the_cap() {
    let instances = admg_scaling(DEFAULT_SEED, 1).expect("scaling workload must build");
    let instance = instances.first().expect("at least one instance");
    let settings = AdmgSettings {
        max_iterations: 5,
        ..AdmgSettings::default()
    }
    .with_telemetry(true);
    let runner = DistributedAdmg::new(settings);
    let lockstep = runner
        .execute(
            instance,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep),
            &mut (),
        )
        .expect("capped lockstep run must succeed");
    let options = SocketOptions::new(env!("CARGO_BIN_EXE_ufc-node"));
    let socket = runner
        .execute(
            instance,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Sockets(options.clone())),
            &mut (),
        )
        .expect("capped socket run must succeed");
    assert_eq!(socket.iterations, 5);
    assert!(!lockstep.converged && !socket.converged);
    assert_eq!(report_bits(&lockstep), report_bits(&socket));
    assert_eq!(lockstep.stats, socket.stats);
    assert_eq!(frames_sent(&socket), sequential_frames(instance, 5));
}

/// A fault-free plan that takes checkpoints keeps the sequential order
/// (a snapshot must record the corrected iterate, not a predicted one):
/// it agrees with lockstep bitwise and sends exactly the sequential
/// frames plus one Snapshot per node per checkpoint round.
#[test]
fn checkpointing_socket_run_stays_sequential() {
    let instances = admg_scaling(DEFAULT_SEED, 1).expect("scaling workload must build");
    let instance = instances.first().expect("at least one instance");
    let settings = AdmgSettings::default();
    let reference = reference_run(instance, settings);
    let options = SocketOptions::new(env!("CARGO_BIN_EXE_ufc-node"));
    let report = DistributedAdmg::new(settings.with_telemetry(true))
        .execute(
            instance,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Sockets(options.clone()))
                .with_plan(FaultPlan::none().with_checkpoint_interval(4)),
            &mut (),
        )
        .expect("checkpointing socket run must succeed");
    assert_report_matches(&reference, &report, "sockets, checkpoint every 4");
    let checkpoints = report
        .fault
        .as_ref()
        .expect("a checkpointing run reports its checkpoints")
        .checkpoints_taken;
    // Every 4th iteration except the stopping one.
    assert_eq!(checkpoints, (report.iterations - 1) / 4);
    let nodes = (instance.m_frontends() + instance.n_datacenters()) as u64;
    assert_eq!(
        frames_sent(&report),
        sequential_frames(instance, report.iterations) + nodes * checkpoints as u64
    );
}

#[test]
fn engines_agree_bitwise_single_threaded() {
    sweep_engines(1);
}

#[test]
fn engines_agree_bitwise_multi_threaded() {
    sweep_engines(4);
}

/// A storage-free instance runs under exactly the explicit classic
/// schedule — the pre-refactor 4-block pipeline is the degenerate case of
/// the schedule-driven driver, not a separate code path.
#[test]
fn storage_free_instances_run_the_explicit_classic_schedule() {
    let instances = admg_scaling(DEFAULT_SEED, 1).expect("scaling workload must build");
    let instance = instances.first().expect("at least one instance");
    let bound = BlockSchedule::for_instance(instance);
    let classic = BlockSchedule::classic();
    assert_eq!(
        bound.blocks().iter().map(|b| b.kind).collect::<Vec<_>>(),
        classic.blocks().iter().map(|b| b.kind).collect::<Vec<_>>(),
        "a storage-free instance must bind the classic 4-block schedule"
    );
    assert!(!bound.has_storage());
    assert_eq!(
        classic.phases(),
        Phase::ALL.to_vec(),
        "the classic schedule's derived phases are the legacy phase list"
    );
}

/// The storage instance the cross-engine tests share: the scaling
/// workload's hour with a non-trivial battery on every datacenter, a
/// binding fuel-cell ramp, and a nonzero opportunity value.
fn storage_instance() -> UfcInstance {
    let instances = admg_scaling(DEFAULT_SEED, 1).expect("scaling workload must build");
    let instance = instances.first().expect("at least one instance").clone();
    let n = instance.n_datacenters();
    let params = StorageFleet::new(4.0, 2.0)
        .initial_charge_frac(0.5)
        .value_per_mwh(60.0)
        .degradation(0.5)
        .ramp_mw(2.5)
        .initial_params(n);
    instance
        .with_storage(params)
        .expect("storage parameters must validate")
}

/// The 5-block storage schedule agrees bitwise — point and residual
/// stream — across the in-process solver and the lockstep engine, at 1 and
/// 4 worker threads.
#[test]
fn storage_schedule_agrees_bitwise_across_thread_counts() {
    let instance = storage_instance();
    assert!(BlockSchedule::for_instance(&instance).has_storage());
    for num_threads in [1usize, 4] {
        let settings = AdmgSettings {
            num_threads,
            ..AdmgSettings::default()
        };
        let reference = reference_run(&instance, settings);
        let runner = DistributedAdmg::new(settings);
        observed_run(
            &runner,
            &instance,
            &RunSpec::new(Engine::Lockstep),
            &reference,
            &format!("storage lockstep x{num_threads}"),
        );
    }
}

/// The per-datacenter `BlockReport` control messages actually flow: a
/// storage run carries exactly `n` more control messages per iteration
/// than the zero-capacity run of the same schedule needs for its
/// bookkeeping (dead batteries report nothing).
#[test]
fn storage_runs_ship_one_block_report_per_datacenter_per_iteration() {
    let with_batteries = storage_instance();
    let n = with_batteries.n_datacenters();
    let zero = {
        let instances = admg_scaling(DEFAULT_SEED, 1).expect("scaling workload must build");
        let plain = instances.first().expect("at least one instance").clone();
        plain
            .clone()
            .with_storage(StorageFleet::new(0.0, 1.0).initial_params(n))
            .expect("zero-capacity storage must validate")
    };
    let runner = DistributedAdmg::new(AdmgSettings::default());
    for (instance, reports_per_iter) in [(&with_batteries, n), (&zero, 0)] {
        let report = runner
            .execute(
                instance,
                Strategy::Hybrid,
                &RunSpec::new(Engine::Lockstep),
                &mut (),
            )
            .expect("lockstep run must succeed");
        // Per iteration the control plane carries: one residual report per
        // node, one continue/stop broadcast per node, and one BlockReport
        // per storage-active datacenter.
        let m = instance.m_frontends();
        let per_iter = 2 * (m + n) + reports_per_iter;
        assert_eq!(
            report.stats.control_messages,
            per_iter * report.iterations,
            "unexpected control traffic for reports_per_iter = {reports_per_iter}"
        );
    }
}

/// The socket engine runs the same 5-block schedule bitwise, at both ends
/// of the co-hosting spectrum (1 and 4 worker processes) — the run-config
/// frame carries the storage section and the schedule echo across the
/// process boundary.
#[test]
fn storage_schedule_agrees_bitwise_across_socket_process_counts() {
    let instance = storage_instance();
    let settings = AdmgSettings::default();
    let reference = reference_run(&instance, settings);
    let runner = DistributedAdmg::new(settings);
    let lockstep = runner
        .execute(
            &instance,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep),
            &mut (),
        )
        .expect("lockstep storage run must succeed");
    for processes in [1usize, 4] {
        let options = SocketOptions::new(env!("CARGO_BIN_EXE_ufc-node")).with_processes(processes);
        let socket = runner
            .execute(
                &instance,
                Strategy::Hybrid,
                &RunSpec::new(Engine::Sockets(options.clone())),
                &mut (),
            )
            .expect("socket storage run must succeed");
        let label = format!("storage sockets x{processes}");
        assert_report_matches(&reference, &socket, &label);
        assert_eq!(
            lockstep.stats, socket.stats,
            "{label}: socket and lockstep storage runs must exchange identical traffic"
        );
    }
}

/// Zero-capacity batteries bind the 5-block schedule but pin `d = +0.0`
/// everywhere, reproducing the spatial-only solution bit for bit on every
/// engine — at 1 and 4 threads on lockstep, and 1 and 4 socket processes.
#[test]
fn zero_capacity_storage_is_bitwise_spatial_only_on_every_engine() {
    let instances = admg_scaling(DEFAULT_SEED, 1).expect("scaling workload must build");
    let plain = instances.first().expect("at least one instance").clone();
    let n = plain.n_datacenters();
    let zero = plain
        .clone()
        .with_storage(StorageFleet::new(0.0, 1.0).initial_params(n))
        .expect("zero-capacity storage must validate");
    assert!(BlockSchedule::for_instance(&zero).has_storage());

    for num_threads in [1usize, 4] {
        let settings = AdmgSettings {
            num_threads,
            ..AdmgSettings::default()
        };
        // The reference is the PLAIN instance: attaching dead batteries
        // must change nothing about the solution.
        let reference = reference_run(&plain, settings);
        let runner = DistributedAdmg::new(settings);
        let report = runner
            .execute(
                &zero,
                Strategy::Hybrid,
                &RunSpec::new(Engine::Lockstep),
                &mut (),
            )
            .expect("zero-capacity run must succeed");
        assert_report_matches(
            &reference,
            &report,
            &format!("zero-capacity lockstep x{num_threads}"),
        );
        assert!(
            report
                .point
                .d
                .iter()
                .all(|&v| v.to_bits() == 0.0f64.to_bits()),
            "dead batteries must hold d at +0.0 exactly"
        );
    }

    let settings = AdmgSettings::default();
    let reference = reference_run(&plain, settings);
    let runner = DistributedAdmg::new(settings);
    for processes in [1usize, 4] {
        let options = SocketOptions::new(env!("CARGO_BIN_EXE_ufc-node")).with_processes(processes);
        let socket = runner
            .execute(
                &zero,
                Strategy::Hybrid,
                &RunSpec::new(Engine::Sockets(options.clone())),
                &mut (),
            )
            .expect("zero-capacity socket run must succeed");
        assert_report_matches(
            &reference,
            &socket,
            &format!("zero-capacity sockets x{processes}"),
        );
    }
}
