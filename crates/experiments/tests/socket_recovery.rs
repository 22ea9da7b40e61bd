//! Crash recovery outside the simulator: the socket engine's worker
//! processes are killed with real `SIGKILL`s mid-iteration and their
//! connections are torn down for a partition window, and the
//! checkpoint-restarted run must still land on the clean operating point
//! bit-for-bit. The faults here are delivered by the operating system —
//! the process table and the socket layer, not an in-process script — so
//! this is the paper protocol's recovery story under its real failure
//! model.

use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use ufc_core::{AdmgSettings, CoreError, Strategy};
use ufc_distsim::wire::FrameBuffer;
use ufc_distsim::{
    BindConfig, CorruptionConfig, CorruptionKind, DistRunReport, DistributedAdmg, Engine,
    FaultPlan, NodeId, PartitionWindow, RunSpec, SocketOptions,
};
use ufc_experiments::sockets::recovery_fault_plan;
use ufc_experiments::solver_bench::admg_scaling;
use ufc_experiments::DEFAULT_SEED;
use ufc_model::UfcInstance;

fn worker_options() -> SocketOptions {
    SocketOptions::new(env!("CARGO_BIN_EXE_ufc-node"))
}

fn workload() -> UfcInstance {
    let instances = admg_scaling(DEFAULT_SEED, 1).expect("scaling workload must build");
    instances
        .into_iter()
        .next()
        .expect("scaling workload yields at least one instance")
}

fn point_bits(report: &ufc_distsim::DistRunReport) -> Vec<u64> {
    report
        .point
        .lambda
        .iter()
        .flatten()
        .chain(report.point.mu.iter())
        .chain(report.point.nu.iter())
        .map(|v| v.to_bits())
        .collect()
}

/// A worker SIGKILL'd mid-iteration is declared dead by the deadline
/// ladder, respawned, restored from the last verified checkpoint, and
/// replayed — and the recovered run reproduces the clean iterates
/// exactly, down to the last bit of the operating point. It also makes the
/// lockstep run's recovery decisions under the same plan: the same traffic
/// and the same fault report.
#[test]
fn sigkilled_workers_recover_bit_identically() {
    let instance = workload();
    let settings = AdmgSettings::default();
    let runner = DistributedAdmg::new(settings);
    let run = |engine, plan| {
        runner
            .execute(
                &instance,
                Strategy::Hybrid,
                &RunSpec::new(engine).with_plan(plan),
                &mut (),
            )
            .expect("every scripted crash has a recovery budget, so the run must succeed")
    };
    let clean = run(Engine::Lockstep, FaultPlan::none());
    let faulty_lockstep = run(Engine::Lockstep, recovery_fault_plan());
    let recovered = run(Engine::Sockets(worker_options()), recovery_fault_plan());
    assert_eq!(
        recovered.stats, faulty_lockstep.stats,
        "the socket recovery must exchange lockstep's traffic"
    );
    assert_eq!(
        recovered.fault, faulty_lockstep.fault,
        "the socket recovery must report lockstep's faults"
    );

    assert_eq!(
        clean.iterations, recovered.iterations,
        "recovery must not change the iteration count"
    );
    assert!(recovered.converged, "recovered run must converge");
    assert_eq!(
        point_bits(&clean),
        point_bits(&recovered),
        "recovered operating point must match the clean run bitwise"
    );
    assert_eq!(
        clean.breakdown.ufc().to_bits(),
        recovered.breakdown.ufc().to_bits(),
        "recovered UFC must match the clean run bitwise"
    );

    let fault = recovered.fault.expect("faulty run reports fault counters");
    assert_eq!(
        fault.crashes_observed, 2,
        "both scripted SIGKILLs must fire and resolve"
    );
    assert!(
        fault.checkpoints_taken > 0,
        "recovery requires checkpoints to restart from"
    );
    assert!(
        fault.recomputed_iterations > 0,
        "restart must replay iterations past the checkpoint"
    );
    assert_eq!(
        fault.ufc_delta_vs_clean, 0.0,
        "full recovery must cost nothing in UFC"
    );
    assert!(fault.evicted.is_empty(), "no datacenter should be evicted");

    let integrity = recovered
        .integrity
        .expect("socket recovery reports integrity counters");
    assert_eq!(
        integrity.dead_node_declarations, 2,
        "the ladder must declare exactly the two SIGKILL'd nodes dead"
    );
    assert!(
        integrity.reconnects >= 2,
        "the partition window must tear down and re-establish both sides"
    );
}

/// A partition window that opens after a datacenter's eviction severs
/// only links that still run: the evicted datacenter's process is gone, so
/// there is no connection to drop and no reconnect to await. The socket
/// run finishes the plan as lockstep does.
#[test]
fn partition_after_an_eviction_skips_the_evicted_process() {
    let instance = workload();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    let plan = FaultPlan::new()
        .with_phase_timeout(Duration::from_millis(20))
        .crash_at(NodeId::Datacenter(0), 2)
        .partition(PartitionWindow {
            from_iteration: 5,
            to_iteration: 7,
            frontends: vec![0],
            datacenters: vec![0],
        });
    let lockstep = runner
        .execute(
            &instance,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep).with_plan(plan.clone()),
            &mut (),
        )
        .expect("lockstep finishes the plan degraded");
    let sockets = runner
        .execute(
            &instance,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Sockets(worker_options())).with_plan(plan),
            &mut (),
        )
        .expect("the socket run must not wait on the evicted process");
    assert_eq!(lockstep.iterations, sockets.iterations);
    let evicted = |report: &ufc_distsim::DistRunReport| {
        report
            .fault
            .as_ref()
            .expect("faulty run reports fault counters")
            .evicted
            .clone()
    };
    assert_eq!(evicted(&lockstep), vec![0]);
    assert_eq!(evicted(&lockstep), evicted(&sockets));
    assert_eq!(
        lockstep.breakdown.ufc().to_bits(),
        sockets.breakdown.ufc().to_bits()
    );
}

/// A datacenter down for five recovery attempts is evicted after the
/// third and readmitted after the fifth, the plan `fault_injection.rs`
/// pins on lockstep. The process fleet kills and respawns the worker and
/// makes the same decisions: the same iterations, traffic, fault report
/// and point bits.
#[test]
fn eviction_then_readmission_matches_lockstep() {
    let instance = workload();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    let plan = FaultPlan::new()
        .with_phase_timeout(Duration::from_millis(20))
        .crash_and_recover(NodeId::Datacenter(1), 2, 5);
    let run = |engine| {
        runner
            .execute(
                &instance,
                Strategy::Hybrid,
                &RunSpec::new(engine).with_plan(plan.clone()),
                &mut (),
            )
            .expect("eviction-then-readmission plan must complete")
    };
    let lockstep = run(Engine::Lockstep);
    let sockets = run(Engine::Sockets(worker_options()));
    let fault = lockstep.fault.as_ref().expect("fault report");
    assert_eq!((&fault.evicted, &fault.readmitted), (&vec![1], &vec![1]));
    assert!(sockets.converged, "the readmitted run must converge");
    assert_eq!(sockets.iterations, lockstep.iterations);
    assert_eq!(sockets.stats, lockstep.stats);
    assert_eq!(sockets.fault, lockstep.fault);
    assert_eq!(point_bits(&sockets), point_bits(&lockstep));
}

/// One runner's parked fleet serves clean runs, a SIGKILL-and-partition
/// recovery, an eviction (whose fleet, with a process gone, is torn down
/// instead of parked) and a wire-chaos plan (which binds its chaos to a
/// fleet of its own), in that order, and every report equals the same run
/// on a fresh runner: iterations, point bits, traffic, fault report and
/// integrity counters.
#[test]
fn a_parked_fleet_serves_faulty_and_chaotic_runs_like_a_fresh_one() {
    let instance = workload();
    let settings = AdmgSettings::default();
    let runner = DistributedAdmg::new(settings);
    let eviction = FaultPlan::new()
        .with_phase_timeout(Duration::from_millis(20))
        .crash_at(NodeId::Datacenter(0), 2);
    let truncation = FaultPlan::none().with_corruption(
        CorruptionConfig::new(1e-2, DEFAULT_SEED).with_kind(CorruptionKind::FrameTruncate),
    );
    let plans = [
        ("clean", FaultPlan::none()),
        ("recovery", recovery_fault_plan()),
        ("eviction", eviction),
        ("clean after the eviction", FaultPlan::none()),
        ("frame truncation", truncation),
        ("clean after the chaos", FaultPlan::none()),
    ];
    let fingerprint = |report: &DistRunReport| {
        (
            report.iterations,
            point_bits(report),
            report.breakdown.ufc().to_bits(),
            report.stats,
            report.fault.clone(),
            report.integrity,
        )
    };
    for (label, plan) in plans {
        let spec = RunSpec::new(Engine::Sockets(worker_options())).with_plan(plan);
        let parked = runner
            .execute(&instance, Strategy::Hybrid, &spec, &mut ())
            .unwrap_or_else(|e| panic!("{label}: run on the parked fleet failed: {e}"));
        let fresh = DistributedAdmg::new(settings)
            .execute(&instance, Strategy::Hybrid, &spec, &mut ())
            .unwrap_or_else(|e| panic!("{label}: run on a fresh runner failed: {e}"));
        assert_eq!(fingerprint(&parked), fingerprint(&fresh), "{label}");
    }
}

/// The process fleet's twin of `fault_injection.rs`'s lockstep test: a
/// SIGKILLed, reaped worker has neither a connection nor a process, so the
/// gather declares its node dead at once instead of sleeping out a 70 s
/// ladder, and the degraded run equals lockstep's.
#[test]
fn processes_declare_dead_nodes_without_waiting_out_the_ladder() {
    let instance = workload();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    let plan = FaultPlan::new()
        .crash_at(NodeId::Datacenter(1), 3)
        .with_phase_timeout(Duration::from_secs(10));
    let run = |engine| {
        runner
            .execute(
                &instance,
                Strategy::Hybrid,
                &RunSpec::new(engine).with_plan(plan.clone()),
                &mut (),
            )
            .expect("a permanent datacenter crash must degrade, not error")
    };
    let lockstep = run(Engine::Lockstep);
    let start = Instant::now();
    let sockets = run(Engine::Sockets(worker_options()));
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "a 70 s ladder took {elapsed:?} on the process fleet"
    );
    assert_eq!(sockets.iterations, lockstep.iterations);
    assert_eq!(sockets.stats, lockstep.stats);
    assert_eq!(
        sockets.breakdown.ufc().to_bits(),
        lockstep.breakdown.ufc().to_bits()
    );
    assert_eq!(sockets.fault, lockstep.fault);
    assert_eq!(
        sockets.fault.expect("fault report").evicted,
        vec![1],
        "the killed datacenter is evicted"
    );
}

/// An unrecoverable front-end crash (no recovery budget) is fatal with a
/// typed error — the coordinator must not hang on the dead process or
/// panic, and must name the node that died.
#[test]
fn unrecoverable_frontend_crash_fails_typed() {
    let instance = workload();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    let plan = FaultPlan::new()
        .with_phase_timeout(Duration::from_millis(25))
        .crash_at(NodeId::Frontend(0), 3);
    let err = runner
        .execute(
            &instance,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Sockets(worker_options())).with_plan(plan),
            &mut (),
        )
        .expect_err("a permanent front-end crash must be fatal");
    match err {
        CoreError::NodeFailure { node, .. } => {
            assert!(
                node.contains("frontend[0]"),
                "error must name the dead front-end, got {node:?}"
            );
        }
        other => panic!("expected a typed NodeFailure, got {other:?}"),
    }
}

/// Process-level fault injection demands the one-process-per-node split:
/// a kill plan combined with co-hosting is rejected up front with a
/// typed configuration error instead of killing an unrelated node.
#[test]
fn kill_plans_require_one_process_per_node() {
    let instance = workload();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    let options = worker_options().with_processes(4);
    let plan = FaultPlan::new().crash_and_recover(NodeId::Datacenter(0), 3, 1);
    let err = runner
        .execute(
            &instance,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Sockets(options.clone())).with_plan(plan),
            &mut (),
        )
        .expect_err("co-hosted kill plans must be rejected");
    assert!(
        matches!(err, CoreError::InvalidConfig { .. }),
        "expected a typed InvalidConfig, got {err:?}"
    );
}

/// A fleet whose advertised address does not lead back to its listener
/// fails its launch with a typed `NodeFailure` once the registration
/// deadline passes: the workers cannot reach `127.0.0.1:1`, and the
/// teardown that follows wakes the acceptor through the listener's own
/// address, where a poke at the advertised one would be refused and
/// leave the teardown waiting on `accept()` for good.
#[test]
fn a_launch_its_workers_cannot_reach_fails_typed_instead_of_hanging() {
    let instance = workload();
    let options = worker_options()
        .with_processes(2)
        .with_bind(BindConfig::new("127.0.0.1:0").with_advertise("127.0.0.1:1"));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let run = std::thread::spawn(move || {
        let result = DistributedAdmg::new(AdmgSettings::default())
            .execute(
                &instance,
                Strategy::Hybrid,
                &RunSpec::new(Engine::Sockets(options)),
                &mut (),
            )
            .map(|report| report.iterations);
        let _ = done_tx.send(result);
    });
    match done_rx.recv_timeout(Duration::from_secs(30)) {
        Ok(Err(CoreError::NodeFailure { .. })) => {}
        Ok(other) => panic!("expected a typed NodeFailure, got {other:?}"),
        Err(_) => panic!("the failed launch did not return within 30 s"),
    }
    run.join().expect("the run thread must not panic");
}

/// Whether process `pid` has exited: it is gone from the process table, or
/// a zombie nobody has reaped yet.
fn exited(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat")).map_or(true, |stat| {
        stat.rfind(')')
            .and_then(|at| stat[at + 1..].split_whitespace().next())
            .is_some_and(|state| state == "Z" || state == "X")
    })
}

/// A worker whose coordinator died mid-run does not outlive it by the
/// reconnect budget. Here an intermediate `sh` that waits on the worker
/// stands in for the coordinator: the test's listener takes the worker's
/// handshake, the `sh` is SIGKILLed (so the worker is reparented), and the
/// connection closes with no listener left. The worker must be gone within
/// 1 s; retrying the connection would keep it up for about 4 s.
#[test]
fn an_orphaned_worker_exits_instead_of_reconnecting() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let mut parent = Command::new("sh")
        .arg("-c")
        .arg("\"$0\" --connect \"$1\" --process 0 --session 7 >/dev/null 2>&1 & echo $!; wait")
        .arg(env!("CARGO_BIN_EXE_ufc-node"))
        .arg(&addr)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn sh");
    let mut line = String::new();
    BufReader::new(parent.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("sh prints the worker's pid");
    let worker: u32 = line.trim().parse().expect("a pid");
    let (stream, _) = listener.accept().expect("the worker connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut frames = FrameBuffer::new();
    while frames.next_frame().expect("a well-formed hello").is_none() {
        let read = frames
            .read_from(&mut &stream)
            .expect("the worker says hello");
        assert!(read > 0, "the worker hung up before its hello");
    }
    parent.kill().expect("SIGKILL the worker's parent");
    parent.wait().expect("reap the worker's parent");
    drop(listener);
    let closed = Instant::now();
    drop(stream);
    while !exited(worker) {
        assert!(
            closed.elapsed() < Duration::from_secs(1),
            "the orphaned worker {worker} still runs {:?} after its connection closed",
            closed.elapsed()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
