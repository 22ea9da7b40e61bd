//! Crash recovery outside the simulator: the socket engine's worker
//! processes are killed with real `SIGKILL`s mid-iteration and TCP
//! connections are torn down for a partition window, and the
//! checkpoint-restarted run must still land on the clean operating point
//! bit-for-bit. The faults here are delivered by the operating system —
//! the process table and the socket layer, not an in-process script — so
//! this is the paper protocol's recovery story under its real failure
//! model.

use std::time::Duration;

use ufc_core::{AdmgSettings, CoreError, Strategy};
use ufc_distsim::{DistributedAdmg, Engine, FaultPlan, NodeId, RunSpec, SocketOptions};
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
/// exactly, down to the last bit of the operating point.
#[test]
fn sigkilled_workers_recover_bit_identically() {
    let instance = workload();
    let settings = AdmgSettings::default();
    let runner = DistributedAdmg::new(settings);
    let clean = runner
        .execute(
            &instance,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep),
            &mut (),
        )
        .expect("clean lockstep run must succeed");

    let recovered = runner
        .execute(
            &instance,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Sockets(worker_options())).with_plan(recovery_fault_plan()),
            &mut (),
        )
        .expect("every scripted crash has a recovery budget, so the run must succeed");

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
