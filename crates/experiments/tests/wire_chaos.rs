//! Chaos over the real wire: seeded corruption applied to the socket
//! engine's actual TCP traffic. Value-level corruption must reproduce the
//! in-process corrupt engines bit-for-bit (identical draw order), and the
//! wire-level kinds — frame truncation, duplication, reordering — must all
//! be caught by the framing CRC + `Nak`/resend ladder or absorbed by the
//! duplicate/order guards, with the run still landing on the clean
//! operating point bitwise.

use ufc_core::{AdmgSettings, CoreError, Strategy};
use ufc_distsim::{
    CorruptionConfig, CorruptionKind, DistributedAdmg, Engine, RunSpec, SocketOptions,
};
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

/// Value-level corruption (§12 kinds, random per event) drawn over the
/// socket engine's real traffic strikes in the exact order of the
/// in-process engines, so the verified run, its solution, and its
/// integrity counters all reproduce the lockstep corrupt run bit-for-bit.
#[test]
fn value_corruption_over_sockets_matches_lockstep_corrupt_run() {
    let instance = workload();
    let settings = AdmgSettings::default().with_checksums(true);
    let runner = DistributedAdmg::new(settings);
    let cfg = CorruptionConfig::new(1e-2, DEFAULT_SEED);

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
