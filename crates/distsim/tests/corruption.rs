//! Poisoned-data resilience: seeded link-level corruption against the
//! receivers' checksum verification and the driver's divergence safeguards.
//!
//! The contract under test, per engine: with checksums on, corruption
//! costs bytes and retransmits but never changes the answer; with
//! checksums off, delivered poison surfaces as a *typed* error (or is
//! repaired by checkpoint rollback) — never a panic and never a silently
//! wrong UFC.

use proptest::prelude::*;
use ufc_core::telemetry::IntegrityCounters;
use ufc_core::{AdmgSettings, CoreError, Strategy};
use ufc_distsim::wire::crc32;
use ufc_distsim::{CorruptionConfig, CorruptionKind, DistributedAdmg, Engine, RunSpec};
use ufc_model::{EmissionCostFn, UfcInstance};

/// Same 2×2 instance as `tests/fault_injection.rs`.
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

#[test]
fn checksummed_corruption_converges_to_the_clean_answer() {
    let inst = slack_instance();
    let clean = DistributedAdmg::new(AdmgSettings::default())
        .execute(
            &inst,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep),
            &mut (),
        )
        .expect("clean run must succeed");
    let runner = DistributedAdmg::new(AdmgSettings::default());
    let cfg = CorruptionConfig::new(0.02, 7).with_checksums(true);
    for engine in [Engine::Lockstep, Engine::Threaded] {
        let report = runner
            .execute(
                &inst,
                Strategy::Hybrid,
                &RunSpec::new(engine.clone()).with_corruption(cfg),
                &mut (),
            )
            .expect("verified links repair every corruption");
        assert!(report.converged, "{engine:?} must converge");
        assert_eq!(report.iterations, clean.iterations);
        // Retransmission delivers the clean copy, so the iterate stream —
        // and the polished answer — are bit-identical to the clean run.
        assert_eq!(
            report.breakdown.ufc().to_bits(),
            clean.breakdown.ufc().to_bits(),
            "{engine:?}: checksummed corruption must not move the answer"
        );
        assert_eq!(report.stats.data_messages, clean.stats.data_messages);
        assert!(
            report.stats.total_bytes > clean.stats.total_bytes,
            "checksum trailers and resends must cost bytes"
        );
        let integrity = report.integrity.expect("corrupt run reports integrity");
        assert!(integrity.corruptions_injected > 0, "rate 0.02 must strike");
        // A mangle can land bit-identically (e.g. a magnitude scale of a
        // 0.0 payload), which the checksum rightly lets through — so
        // detected may trail injected, but every detection retransmits.
        assert!(integrity.corruptions_detected <= integrity.corruptions_injected);
        assert_eq!(integrity.corruptions_delivered, 0);
        assert_eq!(
            integrity.checksum_retransmissions,
            integrity.corruptions_detected
        );
        assert!(integrity.checksum_retransmissions > 0);
        assert_eq!(integrity.divergence_trips, 0);
    }
}

#[test]
fn lockstep_and_threaded_agree_under_corruption() {
    let inst = slack_instance();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    let cfg = CorruptionConfig::new(0.05, 11).with_checksums(true);
    let lockstep = runner
        .execute(
            &inst,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep).with_corruption(cfg),
            &mut (),
        )
        .expect("lockstep corrupt run");
    let threaded = runner
        .execute(
            &inst,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Threaded).with_corruption(cfg),
            &mut (),
        )
        .expect("threaded corrupt run");
    assert_eq!(lockstep.iterations, threaded.iterations);
    assert_eq!(lockstep.stats, threaded.stats);
    assert_eq!(lockstep.integrity, threaded.integrity);
    assert_eq!(
        lockstep.breakdown.ufc().to_bits(),
        threaded.breakdown.ufc().to_bits()
    );
}

/// Exact counters and byte totals of two seeded runs on both engines. A
/// verifying receiver rejects a copy iff the CRC32 of its 8 value bytes
/// changed; CRC-32 is affine, so that verdict depends only on the XOR
/// pattern of the change and matches the verdict of a CRC over any frame
/// that ends in those bytes. These numbers pin that every seed corrupts,
/// detects, resends and delivers the same copies whatever framing is
/// modelled around the value.
#[test]
fn seeded_runs_keep_their_integrity_counters_and_bytes() {
    let inst = slack_instance();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    let run = |cfg: CorruptionConfig, engine: Engine| {
        runner
            .execute(
                &inst,
                Strategy::Hybrid,
                &RunSpec::new(engine).with_corruption(cfg),
                &mut (),
            )
            .expect("seeded corrupt run")
    };
    // Verified, a random kind per strike: 6 of the 84 mangles leave bytes
    // the check cannot tell from the sent ones, and the answer is clean.
    let verified = CorruptionConfig::new(0.05, 11).with_checksums(true);
    // Unverified bit flips: every strike is delivered and moves the run.
    let flips = CorruptionConfig::new(0.02, 1).with_kind(CorruptionKind::BitFlip);
    for engine in [Engine::Lockstep, Engine::Threaded] {
        let report = run(verified, engine.clone());
        assert_eq!(report.iterations, 206, "{engine:?}");
        assert_eq!(report.stats.total_bytes, 97_022, "{engine:?}");
        assert_eq!(
            report.integrity,
            Some(IntegrityCounters {
                corruptions_injected: 84,
                corruptions_detected: 78,
                checksum_retransmissions: 78,
                ..IntegrityCounters::default()
            }),
            "{engine:?}"
        );
        let report = run(flips, engine.clone());
        assert_eq!(report.iterations, 236, "{engine:?}");
        assert_eq!(report.stats.total_bytes, 99_120, "{engine:?}");
        assert_eq!(
            report.breakdown.ufc().to_bits(),
            0xc04a_8ccc_cccc_cccc,
            "{engine:?}"
        );
        assert_eq!(
            report.integrity,
            Some(IntegrityCounters {
                corruptions_injected: 41,
                corruptions_delivered: 41,
                ..IntegrityCounters::default()
            }),
            "{engine:?}"
        );
    }
}

#[test]
fn unverified_nan_corruption_is_a_typed_error_not_a_panic() {
    let inst = slack_instance();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    let cfg = CorruptionConfig::new(0.05, 3).with_kind(CorruptionKind::NanSubstitution);
    for engine in [Engine::Lockstep, Engine::Threaded] {
        let err = runner
            .execute(
                &inst,
                Strategy::Hybrid,
                &RunSpec::new(engine.clone()).with_corruption(cfg),
                &mut (),
            )
            .expect_err("a delivered NaN must fail the run");
        match err {
            CoreError::Divergence { node, context, .. } => {
                assert!(node.is_some(), "{engine:?}: the receiver is named");
                assert!(
                    context.contains("non-finite"),
                    "{engine:?}: context names the poison: {context}"
                );
            }
            other => panic!("{engine:?}: expected Divergence, got {other}"),
        }
    }
}

#[test]
fn exhausted_retransmit_budget_is_a_typed_error() {
    let inst = slack_instance();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    // Rate ~1 with a budget of 1: the second attempt also corrupts and the
    // ladder gives up with the link named.
    let cfg = CorruptionConfig::new(0.999, 5)
        .with_max_retransmits(1)
        .with_checksums(true);
    for engine in [Engine::Lockstep, Engine::Threaded] {
        let err = runner
            .execute(
                &inst,
                Strategy::Hybrid,
                &RunSpec::new(engine.clone()).with_corruption(cfg),
                &mut (),
            )
            .expect_err("an unrepairable link must fail the run");
        match err {
            CoreError::CorruptPayload { node, .. } => {
                assert!(
                    node.contains('→'),
                    "{engine:?}: the failing link is named: {node}"
                );
            }
            other => panic!("{engine:?}: expected CorruptPayload, got {other}"),
        }
    }
}

#[test]
fn rate_zero_without_checksums_is_bit_identical_to_a_plain_run() {
    let inst = slack_instance();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    let plain = runner
        .execute(
            &inst,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep),
            &mut (),
        )
        .expect("plain run");
    let corrupt = runner
        .execute(
            &inst,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep).with_corruption(CorruptionConfig::new(0.0, 1)),
            &mut (),
        )
        .expect("rate-0 corrupt run");
    assert_eq!(plain.iterations, corrupt.iterations);
    assert_eq!(plain.stats, corrupt.stats);
    assert_eq!(
        plain.breakdown.ufc().to_bits(),
        corrupt.breakdown.ufc().to_bits()
    );
    assert_eq!(
        plain.estimated_wan_seconds.to_bits(),
        corrupt.estimated_wan_seconds.to_bits()
    );
    let integrity = corrupt
        .integrity
        .expect("the integrity machinery was armed, even at rate 0");
    assert!(integrity.is_zero());
    assert!(plain.integrity.is_none());
}

#[test]
fn rollback_repairs_a_poisoned_run_in_both_engines() {
    let inst = slack_instance();
    let settings = AdmgSettings::default()
        .with_divergence_gate(10.0, 1)
        .with_divergence_rollback(true)
        .with_telemetry(true);
    let runner = DistributedAdmg::new(settings);
    // Seeded so the first magnitude-scale strike lands after the first
    // checkpoint round: the gate trips once, the rollback restores the
    // last finite state, and the run still converges.
    let cfg = CorruptionConfig::new(0.002, 1).with_kind(CorruptionKind::MagnitudeScale);
    let lockstep = runner
        .execute(
            &inst,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep).with_corruption(cfg),
            &mut (),
        )
        .expect("rollback must repair the lockstep run");
    assert!(lockstep.converged);
    let integrity = lockstep.integrity.expect("integrity report");
    assert_eq!(integrity.divergence_trips, 1);
    assert_eq!(integrity.rollbacks, 1);
    let fault = lockstep
        .fault
        .as_ref()
        .expect("checkpointing ran for rollback");
    assert!(fault.checkpoints_taken > 0);
    // A rolled-back run re-solves from an earlier iterate, so it lands on
    // the same answer as a clean run (within the stop tolerance), just
    // later.
    let clean = DistributedAdmg::new(AdmgSettings::default())
        .execute(
            &inst,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep),
            &mut (),
        )
        .expect("clean run");
    assert!(
        (lockstep.breakdown.ufc() - clean.breakdown.ufc()).abs()
            <= 1e-4 * clean.breakdown.ufc().abs(),
        "rolled-back {} vs clean {}",
        lockstep.breakdown.ufc(),
        clean.breakdown.ufc()
    );
    // Both engines make the identical trip/rollback decisions.
    let threaded = runner
        .execute(
            &inst,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Threaded).with_corruption(cfg),
            &mut (),
        )
        .expect("rollback must repair the threaded run");
    assert_eq!(lockstep.iterations, threaded.iterations);
    assert_eq!(lockstep.integrity, threaded.integrity);
    assert_eq!(
        lockstep.breakdown.ufc().to_bits(),
        threaded.breakdown.ufc().to_bits()
    );
    // ...and report the checkpointing alike, in the telemetry too.
    assert_eq!(lockstep.fault, threaded.fault);
    let fault_section = |report: &ufc_distsim::DistRunReport| {
        report
            .telemetry
            .as_ref()
            .expect("telemetry was on")
            .fault
            .is_some()
    };
    assert!(fault_section(&lockstep));
    assert_eq!(fault_section(&lockstep), fault_section(&threaded));
}

proptest! {
    /// Any change confined to one byte of a data value fails the verifying
    /// receiver's check: the received bytes' CRC32 differs from the sent
    /// bytes'. Never a quiet delivery.
    #[test]
    fn single_byte_tamper_never_decodes(
        bits in 0u64..u64::MAX,
        byte in 0usize..8,
        mask in 1u8..=255,
    ) {
        let sent = bits.to_le_bytes();
        let mut received = sent;
        received[byte] ^= mask;
        prop_assert!(
            crc32(&received) != crc32(&sent),
            "tampering byte {byte} with {mask:#x} must be detected"
        );
    }
}
