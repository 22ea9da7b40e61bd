//! Chaos over the real wire: seeded corruption applied to the socket
//! engine's actual TCP traffic. Value-level corruption must reproduce the
//! in-process corrupt engines bit-for-bit (identical draw order), and the
//! wire-level kinds — frame truncation, duplication, reordering — must all
//! be caught by the framing CRC + `Nak`/resend ladder or absorbed by the
//! duplicate/order guards, with the run still landing on the clean
//! operating point bitwise.

use ufc_core::telemetry::IntegrityCounters;
use ufc_core::{AdmgSettings, CoreError, Strategy};
use ufc_distsim::stats::MessageStats;
use ufc_distsim::{
    CorruptionConfig, CorruptionKind, DistRunReport, DistributedAdmg, Engine, RunSpec,
    SocketOptions,
};
use ufc_experiments::solver_bench::admg_scaling;
use ufc_experiments::DEFAULT_SEED;
use ufc_model::{EmissionCostFn, UfcInstance};

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

/// The 2×2 instance of distsim's `fault_injection.rs` and `corruption.rs`,
/// whose seeded corruption runs those tests pin on lockstep.
fn slack_instance() -> UfcInstance {
    UfcInstance::new(
        vec![1.0, 2.0],
        vec![4.0, 4.0],
        vec![0.24, 0.24],
        vec![0.12, 0.12],
        vec![0.48, 0.48],
        vec![30.0, 70.0],
        80.0,
        vec![0.5, 0.3],
        vec![vec![0.01, 0.02], vec![0.02, 0.01]],
        10.0,
        vec![
            EmissionCostFn::linear(25.0).expect("linear emission cost is valid"),
            EmissionCostFn::linear(25.0).expect("linear emission cost is valid"),
        ],
        1.0,
    )
    .expect("slack instance parameters are consistent")
}

fn point_bits(report: &DistRunReport) -> Vec<u64> {
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

/// Value-level corruption (§12 kinds, random per event) drawn over the
/// socket engine's real traffic strikes in the exact order of the
/// in-process engines, so the verified run, its solution, and its
/// integrity counters all reproduce the lockstep corrupt run bit-for-bit.
#[test]
fn value_corruption_over_sockets_matches_lockstep_corrupt_run() {
    let instance = workload();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    let cfg = CorruptionConfig::new(1e-2, DEFAULT_SEED).with_checksums(true);

    let lockstep = runner
        .execute(
            &instance,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep).with_corruption(cfg),
            &mut (),
        )
        .expect("verified lockstep corrupt run must converge");
    let sockets = runner
        .execute(
            &instance,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Sockets(worker_options())).with_corruption(cfg),
            &mut (),
        )
        .expect("verified socket corrupt run must converge");

    assert!(sockets.converged);
    assert_eq!(lockstep.iterations, sockets.iterations);
    assert_eq!(point_bits(&lockstep), point_bits(&sockets));
    assert_eq!(
        lockstep.breakdown.ufc().to_bits(),
        sockets.breakdown.ufc().to_bits(),
        "verified socket corruption must reproduce the lockstep UFC bitwise"
    );

    let li = lockstep.integrity.expect("lockstep integrity counters");
    let si = sockets.integrity.expect("socket integrity counters");
    assert!(si.corruptions_injected > 0, "rate 1e-2 must strike");
    assert_eq!(
        (
            li.corruptions_injected,
            li.corruptions_detected,
            li.checksum_retransmissions
        ),
        (
            si.corruptions_injected,
            si.corruptions_detected,
            si.checksum_retransmissions
        ),
        "identical draw order must give identical counters"
    );
    // Strikes whose mangle is a bitwise no-op (e.g. scaling a zero) decode
    // cleanly and are never "detected" — but nothing corrupt is delivered.
    assert!(si.corruptions_detected <= si.corruptions_injected);
    assert_eq!(si.corruptions_delivered, 0);
}

/// What the link channel decides about a run: its iterations, point and
/// UFC bits, traffic, resends and integrity counters, or its error.
type LinkOutcome = (
    usize,
    Vec<u64>,
    u64,
    MessageStats,
    usize,
    Option<IntegrityCounters>,
);

fn link_outcome(run: Result<DistRunReport, CoreError>) -> Result<LinkOutcome, String> {
    run.map(|r| {
        (
            r.iterations,
            point_bits(&r),
            r.breakdown.ufc().to_bits(),
            r.stats,
            r.retransmissions,
            r.integrity,
        )
    })
    .map_err(|e| e.to_string())
}

/// The link channel's other postures over sockets: copies dropped and
/// resent until delivered, unverified bit flips delivered into the iterate
/// stream, unverified NaNs caught by the divergence gate, and a verified
/// link that runs out of resends. Each draws in lockstep's order, so each
/// ends as the lockstep run does (`corruption.rs` and
/// `fault_injection.rs` pin those runs): the same iterates, traffic,
/// resends and counters, or the same typed error.
#[test]
fn lossy_and_unverified_links_over_sockets_match_lockstep() {
    let instance = slack_instance();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    // (label, channel, whether lockstep's run fails)
    let links = [
        (
            "drops",
            CorruptionConfig::new(0.4, 7).with_kind(CorruptionKind::Drop),
            false,
        ),
        (
            "unverified bit flips",
            CorruptionConfig::new(0.02, 1).with_kind(CorruptionKind::BitFlip),
            false,
        ),
        (
            "unverified NaNs",
            CorruptionConfig::new(0.05, 3).with_kind(CorruptionKind::NanSubstitution),
            true,
        ),
        (
            "exhausted resends",
            CorruptionConfig::new(0.999, 5)
                .with_max_retransmits(1)
                .with_checksums(true),
            true,
        ),
    ];
    for (label, cfg, fails) in links {
        let run = |engine| {
            link_outcome(runner.execute(
                &instance,
                Strategy::Hybrid,
                &RunSpec::new(engine).with_corruption(cfg),
                &mut (),
            ))
        };
        let lockstep = run(Engine::Lockstep);
        assert_eq!(lockstep.is_err(), fails, "{label}: {lockstep:?}");
        assert_eq!(run(Engine::Sockets(worker_options())), lockstep, "{label}");
    }
}

/// The socket twin of `corruption.rs`'s rollback test: a magnitude-scale
/// strike trips the divergence gate once, the coordinator restores every
/// node from the last checkpoint in place, and the run converges. With one
/// process per node and with two, the socket run makes lockstep's trip and
/// rollback decisions and reports the same integrity and fault sections
/// and the same UFC bits.
#[test]
fn rollback_repairs_a_poisoned_socket_run_as_on_lockstep() {
    let instance = slack_instance();
    let settings = AdmgSettings::default()
        .with_divergence_gate(10.0, 1)
        .with_divergence_rollback(true);
    let runner = DistributedAdmg::new(settings);
    let cfg = CorruptionConfig::new(0.002, 1).with_kind(CorruptionKind::MagnitudeScale);
    let run = |engine| {
        runner
            .execute(
                &instance,
                Strategy::Hybrid,
                &RunSpec::new(engine).with_corruption(cfg),
                &mut (),
            )
            .expect("rollback must repair the run")
    };
    let lockstep = run(Engine::Lockstep);
    let integrity = lockstep.integrity.expect("integrity report");
    assert_eq!((integrity.divergence_trips, integrity.rollbacks), (1, 1));
    assert!(lockstep.fault.is_some(), "checkpointing ran for rollback");
    for options in [worker_options(), worker_options().with_processes(2)] {
        let label = format!("{} processes", options.processes);
        let sockets = run(Engine::Sockets(options));
        assert!(sockets.converged, "{label}");
        assert_eq!(sockets.iterations, lockstep.iterations, "{label}");
        assert_eq!(sockets.integrity, lockstep.integrity, "{label}");
        assert_eq!(sockets.fault, lockstep.fault, "{label}");
        assert_eq!(
            sockets.breakdown.ufc().to_bits(),
            lockstep.breakdown.ufc().to_bits(),
            "{label}"
        );
    }
}

/// Every wire-level kind at rate 1e-2 over real TCP: each injection is
/// detected (CRC + `Nak`/clean-resend) or structurally absorbed
/// (duplicate drop, order-insensitive gather), none is silently
/// delivered, and the run reproduces the clean socket run bit-for-bit.
#[test]
fn wire_chaos_is_fully_detected_and_bit_identical() {
    let instance = workload();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    let clean = runner
        .execute(
            &instance,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep),
            &mut (),
        )
        .expect("clean lockstep run must converge");

    for kind in [
        CorruptionKind::FrameTruncate,
        CorruptionKind::FrameDuplicate,
        CorruptionKind::FrameReorder,
    ] {
        let cfg = CorruptionConfig::new(1e-2, DEFAULT_SEED).with_kind(kind);
        let report = runner
            .execute(
                &instance,
                Strategy::Hybrid,
                &RunSpec::new(Engine::Sockets(worker_options())).with_corruption(cfg),
                &mut (),
            )
            .unwrap_or_else(|e| panic!("wire chaos {kind:?} must be repaired, got {e}"));
        assert!(report.converged, "{kind:?}: run must converge");
        assert_eq!(
            point_bits(&clean),
            point_bits(&report),
            "{kind:?}: operating point must match the clean run bitwise"
        );
        assert_eq!(
            clean.breakdown.ufc().to_bits(),
            report.breakdown.ufc().to_bits(),
            "{kind:?}: UFC must match the clean run bitwise"
        );
        let integrity = report.integrity.expect("wire chaos reports counters");
        assert!(
            integrity.corruptions_injected > 0,
            "{kind:?}: rate 1e-2 must strike at least once"
        );
        assert_eq!(
            integrity.corruptions_detected, integrity.corruptions_injected,
            "{kind:?}: every injected frame fault must be caught or absorbed"
        );
        assert_eq!(
            integrity.corruptions_delivered, 0,
            "{kind:?}: no frame fault may reach the iterate stream"
        );
        if kind == CorruptionKind::FrameTruncate {
            assert!(
                integrity.checksum_retransmissions > 0,
                "truncations must be repaired by retransmission"
            );
        }
    }
}

/// A truncation storm past the retransmit budget fails with a typed
/// `CorruptPayload` — never a hang or a panic.
#[test]
fn wire_chaos_budget_exhaustion_fails_typed() {
    let instance = workload();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    let cfg = CorruptionConfig::new(0.999, DEFAULT_SEED)
        .with_kind(CorruptionKind::FrameTruncate)
        .with_max_retransmits(2);
    let err = runner
        .execute(
            &instance,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Sockets(worker_options())).with_corruption(cfg),
            &mut (),
        )
        .expect_err("a near-certain truncation storm must exhaust the budget");
    assert!(
        matches!(err, CoreError::CorruptPayload { .. }),
        "expected a typed CorruptPayload, got {err:?}"
    );
}

/// The socket chaos sweep (the engine behind `repro chaos --engine
/// sockets`) aggregates the same guarantees: every hour of every cell —
/// value-level and all three wire-level kinds — lands on the clean UFC
/// bit-for-bit, and wire cells catch exactly what they inject.
#[test]
fn socket_chaos_study_is_bitwise_clean_and_catches_everything() {
    let study = ufc_experiments::chaos::run_sockets_chaos(
        DEFAULT_SEED,
        1,
        AdmgSettings::default(),
        &[1e-2],
        std::path::Path::new(env!("CARGO_BIN_EXE_ufc-node")),
    )
    .expect("socket chaos sweep must complete");
    // 1 value cell + 3 wire cells.
    assert_eq!(study.points.len(), 4);
    assert!(study.all_hours_bitwise_clean());
    assert!(study.wire_faults_all_caught());
    assert!(
        study.points.iter().all(|p| p.corruptions_injected > 0),
        "rate 1e-2 must strike in every cell"
    );
    assert_eq!(study.csv().len(), 4);
}

/// Wire-level kinds need real frames and the one-process-per-node split:
/// co-hosted workers and the in-process engines both reject them with a
/// typed configuration error.
#[test]
fn wire_kinds_are_gated_to_one_process_per_node_sockets() {
    let instance = workload();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    let cfg = CorruptionConfig::new(1e-2, DEFAULT_SEED).with_kind(CorruptionKind::FrameReorder);

    let err = runner
        .execute(
            &instance,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Sockets(worker_options().with_processes(2))).with_corruption(cfg),
            &mut (),
        )
        .expect_err("co-hosted wire chaos must be rejected");
    assert!(
        matches!(err, CoreError::InvalidConfig { .. }),
        "got {err:?}"
    );

    let err = runner
        .execute(
            &instance,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep).with_corruption(cfg),
            &mut (),
        )
        .expect_err("in-process engines have no wire frames to mangle");
    assert!(
        matches!(err, CoreError::InvalidConfig { .. }),
        "got {err:?}"
    );
}
