//! Fault injection: the protocol's results are invariant under dropped
//! copies; only its cost grows with the drop rate. Crash-stop faults with
//! checkpoint-restart recovery reproduce the clean iterates exactly;
//! permanent crashes degrade to the surviving datacenters.
//!
//! The lockstep fault reports below are pinned to the values the earlier
//! stand-alone lockstep engine produced. The socket tests of
//! `ufc-experiments` (`socket_recovery.rs`, `wire_chaos.rs`) hold the
//! process fleet to the lockstep runs.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use ufc_core::node::{DatacenterSnapshot, FrontendSnapshot};
use ufc_core::{AdmgSettings, Strategy};
use ufc_distsim::fault::NodeId;
use ufc_distsim::{
    CorruptionConfig, CorruptionKind, DistRunReport, DistributedAdmg, Engine, FaultPlan,
    FaultReport, RunSpec,
};
use ufc_model::scenario::ScenarioBuilder;
use ufc_model::{EmissionCostFn, UfcInstance};

/// A 2×2 instance with enough datacenter slack that either datacenter can
/// absorb all arrivals alone — degraded single-datacenter operation stays
/// feasible.
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

/// The pinned outcome of a faulty run: iterations, data and control
/// messages, total bytes and the UFC's bits.
fn assert_outcome(report: &DistRunReport, expected: (usize, usize, usize, usize, u64)) {
    let (iterations, data, control, bytes, ufc_bits) = expected;
    assert_eq!(report.iterations, iterations);
    assert_eq!(report.stats.data_messages, data);
    assert_eq!(report.stats.control_messages, control);
    assert_eq!(report.stats.total_bytes, bytes);
    assert_eq!(
        report.breakdown.ufc().to_bits(),
        ufc_bits,
        "UFC {}",
        report.breakdown.ufc()
    );
}

/// The permanent crash of datacenter 1 at iteration 3, on a ladder of
/// `phase_timeout` rungs.
fn permanent_crash(phase_timeout: Duration) -> FaultPlan {
    FaultPlan::new()
        .crash_at(NodeId::Datacenter(1), 3)
        .with_phase_timeout(phase_timeout)
}

/// A lockstep run that drops each copy with probability `rate`.
fn lossy(rate: f64, seed: u64) -> RunSpec {
    let drops = CorruptionConfig::new(rate, seed).with_kind(CorruptionKind::Drop);
    RunSpec::new(Engine::Lockstep).with_corruption(drops)
}

#[test]
fn crash_and_recover_matches_clean_run() {
    let inst = slack_instance();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    let clean = runner
        .execute(
            &inst,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep),
            &mut (),
        )
        .expect("clean lockstep run must succeed");

    // One datacenter crash that recovers from checkpoint, plus a straggler.
    let plan = FaultPlan::new()
        .crash_and_recover(NodeId::Datacenter(1), 3, 1)
        .straggle(NodeId::Frontend(0), 2, Duration::from_millis(1))
        .with_phase_timeout(Duration::from_millis(40));
    let faulty = runner
        .execute(
            &inst,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep).with_plan(plan),
            &mut (),
        )
        .expect("crash-and-recover plan must complete");

    assert!(faulty.converged, "recovered run must still converge");
    assert_eq!(faulty.iterations, clean.iterations);
    // Checkpoint-restart replay is bit-faithful, so the tolerance here is
    // slack: the iterates are actually identical.
    assert!(
        (faulty.breakdown.ufc() - clean.breakdown.ufc()).abs()
            <= 1e-6 * clean.breakdown.ufc().abs(),
        "faulty {} vs clean {}",
        faulty.breakdown.ufc(),
        clean.breakdown.ufc()
    );
    let fault = faulty.fault.expect("fault report for a non-trivial plan");
    assert_eq!(fault.crashes_observed, 1);
    assert_eq!(fault.stragglers_observed, 1);
    // Crash at iteration 3, no checkpoint yet (interval 4): iterations 1–2
    // are recomputed from the replay buffer.
    assert_eq!(fault.recomputed_iterations, 2);
    assert!(fault.checkpoints_taken > 0);
    assert!(fault.evicted.is_empty(), "a recovered crash never evicts");
    assert!(fault.downtime_seconds > 0.0);
    assert!(fault.straggler_seconds > 0.0);
    assert!(fault.ufc_delta_vs_clean.abs() <= 1e-9);
    assert!(faulty.estimated_wan_seconds > clean.estimated_wan_seconds);
}

#[test]
fn faulty_lockstep_runs_keep_their_pinned_reports() {
    let inst = slack_instance();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    let faulty = FaultPlan::new()
        .crash_and_recover(NodeId::Datacenter(0), 5, 2)
        .crash_and_recover(NodeId::Frontend(1), 7, 1)
        .straggle(NodeId::Datacenter(1), 4, Duration::from_millis(2))
        .with_phase_timeout(Duration::from_millis(40));

    let pinned = FaultReport {
        crashes_observed: 2,
        stragglers_observed: 1,
        downtime_attempts: 3,
        downtime_seconds: 0.840_000_000_000_000_1,
        straggler_seconds: 0.002,
        recomputed_iterations: 2,
        checkpoints_taken: 51,
        evicted: Vec::new(),
        readmitted: Vec::new(),
        partition_retransmissions: 0,
        ufc_delta_vs_clean: 0.0,
    };
    // The empty plan too: it has no fault section.
    for (plan, fault, control, bytes) in [
        (faulty, Some(pinned), 1852, 107_328),
        (FaultPlan::none(), None, 1648, 86_520),
    ] {
        let lockstep = runner
            .execute(
                &inst,
                Strategy::Hybrid,
                &RunSpec::new(Engine::Lockstep).with_plan(plan),
                &mut (),
            )
            .expect("faulty lockstep run must complete");
        assert_outcome(
            &lockstep,
            (206, 1648, control, bytes, 0xc04a_8ccc_ce1e_f4c0),
        );
        assert_eq!(lockstep.fault, fault);
    }
}

#[test]
fn permanent_crash_degrades_gracefully() {
    let inst = slack_instance();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    let clean = runner
        .execute(
            &inst,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep),
            &mut (),
        )
        .expect("clean lockstep run must succeed");
    let degraded = runner
        .execute(
            &inst,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep).with_plan(permanent_crash(Duration::from_millis(40))),
            &mut (),
        )
        .expect("a permanent datacenter crash must degrade, not error");
    assert_outcome(&degraded, (87, 358, 594, 30_461, 0xc04a_909b_119e_8a78));
    assert_eq!(
        degraded.fault,
        Some(FaultReport {
            crashes_observed: 1,
            downtime_attempts: 3,
            downtime_seconds: 0.840_000_000_000_000_1,
            checkpoints_taken: 22,
            evicted: vec![1],
            ufc_delta_vs_clean: f64::from_bits(0xbf9e_721b_fcad_c000),
            ..FaultReport::default()
        })
    );

    let fault = degraded.fault.expect("fault report");
    // The dead datacenter is pinned to zero; survivors carry all load.
    assert_eq!(degraded.point.mu[1], 0.0);
    for i in 0..inst.m_frontends() {
        assert!(
            degraded.point.lambda[i][1].abs() < 1e-9,
            "traffic still routed to the evicted datacenter"
        );
    }
    assert!(degraded.point.feasibility_residual(&inst) < 1e-6);
    // The report's delta is exactly the degraded-vs-clean UFC gap, and the
    // forced single-datacenter routing genuinely moves the objective.
    let gap = degraded.breakdown.ufc() - clean.breakdown.ufc();
    assert!((fault.ufc_delta_vs_clean - gap).abs() < 1e-12);
    assert!(
        gap.abs() > 1e-6,
        "eviction should change the operating point"
    );
}

/// The lockstep fleet answers every fan-out before the gather starts, so a
/// node it stopped is declared dead without waiting out the ladder: a 10 s
/// rung (a 70 s ladder) changes the charged downtime and the WAN estimate,
/// never the run or its wall time.
#[test]
fn lockstep_declares_dead_nodes_without_waiting_out_the_ladder() {
    let inst = slack_instance();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    let run = |phase_timeout| {
        runner
            .execute(
                &inst,
                Strategy::Hybrid,
                &RunSpec::new(Engine::Lockstep).with_plan(permanent_crash(phase_timeout)),
                &mut (),
            )
            .expect("a permanent datacenter crash must degrade, not error")
    };
    let short = run(Duration::from_millis(40));
    let start = Instant::now();
    let long = run(Duration::from_secs(10));
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "a 70 s ladder took {elapsed:?} on the lockstep fleet"
    );
    assert_outcome(&long, (87, 358, 594, 30_461, 0xc04a_909b_119e_8a78));
    assert_eq!(long.point, short.point);
    let (short_fault, long_fault) = (
        short.fault.expect("fault report"),
        long.fault.expect("fault report"),
    );
    assert_eq!(long_fault.downtime_seconds, 210.0, "three 70 s ladders");
    assert_eq!(
        FaultReport {
            downtime_seconds: short_fault.downtime_seconds,
            ..long_fault
        },
        short_fault
    );
    assert!(long.estimated_wan_seconds > short.estimated_wan_seconds);
}

#[test]
fn eviction_then_readmission_completes() {
    let inst = slack_instance();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    // 5 down attempts vs deadline 3: evicted after 3, readmitted once the
    // remaining 2 probes succeed.
    let plan = FaultPlan::new()
        .crash_and_recover(NodeId::Datacenter(1), 2, 5)
        .with_phase_timeout(Duration::from_millis(40));
    let report = runner
        .execute(
            &inst,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep).with_plan(plan),
            &mut (),
        )
        .expect("eviction-then-readmission plan must complete");
    assert_outcome(&report, (210, 1674, 1891, 109_541, 0xc04a_8ccc_cd51_5f2a));
    assert_eq!(
        report.fault,
        Some(FaultReport {
            crashes_observed: 1,
            downtime_attempts: 5,
            downtime_seconds: 0.840_000_000_000_000_1,
            checkpoints_taken: 53,
            evicted: vec![1],
            readmitted: vec![1],
            ufc_delta_vs_clean: f64::from_bits(0x3e79_b2b2_c000_0000),
            ..FaultReport::default()
        })
    );
    assert!(report.converged, "readmitted run must converge");
    assert!(report.point.feasibility_residual(&inst) < 1e-6);
}

#[test]
fn unplanned_missing_frontend_is_a_typed_error() {
    let inst = slack_instance();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    // A permanently dead front-end cannot be evicted: typed failure.
    let plan = FaultPlan::new()
        .crash_at(NodeId::Frontend(0), 2)
        .with_phase_timeout(Duration::from_millis(40));
    let err = runner
        .execute(
            &inst,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep).with_plan(plan),
            &mut (),
        )
        .unwrap_err();
    assert!(
        matches!(err, ufc_core::CoreError::NodeFailure { .. }),
        "expected NodeFailure, got {err}"
    );
}

proptest! {
    #[test]
    fn frontend_snapshot_round_trips(
        blocks in proptest::collection::vec(
            (-5.0..5.0f64, -5.0..5.0f64, -5.0..5.0f64, -5.0..5.0f64, -1.0..1.0f64),
            1..8,
        )
    ) {
        let snap = FrontendSnapshot {
            lambda: blocks.iter().map(|b| b.0).collect(),
            lambda_tilde: blocks.iter().map(|b| b.1).collect(),
            a: blocks.iter().map(|b| b.2).collect(),
            varphi: blocks.iter().map(|b| b.3).collect(),
            evicted: blocks.iter().map(|b| b.4 > 0.0).collect(),
        };
        let back = FrontendSnapshot::from_bytes(&snap.to_bytes())
            .expect("a freshly serialized front-end snapshot must decode");
        prop_assert_eq!(snap, back);
    }

    #[test]
    fn datacenter_snapshot_round_trips(
        scalars in (-50.0..50.0f64, -50.0..50.0f64, -50.0..50.0f64, -50.0..50.0f64),
        cols in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 1..8),
    ) {
        let snap = DatacenterSnapshot {
            mu: scalars.0,
            nu: scalars.1,
            phi: scalars.2,
            d: scalars.3,
            a: cols.iter().map(|c| c.0).collect(),
            varphi: cols.iter().map(|c| c.1).collect(),
        };
        let back = DatacenterSnapshot::from_bytes(&snap.to_bytes())
            .expect("a freshly serialized datacenter snapshot must decode");
        prop_assert_eq!(snap, back);
    }
}

#[test]
fn lossy_run_is_result_identical_to_lossless() {
    let scenario = ScenarioBuilder::paper_default()
        .seed(3)
        .hours(1)
        .build()
        .expect("paper-default scenario must build");
    let inst = &scenario.instances[0];
    let runner = DistributedAdmg::new(AdmgSettings::default());

    let clean = runner
        .execute(
            inst,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep),
            &mut (),
        )
        .expect("lossless lockstep run must succeed");
    let dropped = runner
        .execute(inst, Strategy::Hybrid, &lossy(0.2, 99), &mut ())
        .expect("lossy run must succeed: retransmission hides all loss");

    assert_eq!(clean.iterations, dropped.iterations);
    assert!((clean.breakdown.ufc() - dropped.breakdown.ufc()).abs() < 1e-12);
    assert_eq!(clean.stats.data_messages, dropped.stats.data_messages);
    // ...but the lossy run paid for it.
    assert!(
        dropped.retransmissions > 0,
        "20% loss must cause retransmissions"
    );
    assert!(dropped.stats.total_bytes > clean.stats.total_bytes);
    assert!(dropped.estimated_wan_seconds > clean.estimated_wan_seconds);
    // Drops are resends, not corruptions.
    let integrity = dropped.integrity.expect("the drop channel was armed");
    assert!(integrity.is_zero());
    assert!(dropped.fault.is_none());
}

#[test]
fn cost_grows_with_loss_rate() {
    let scenario = ScenarioBuilder::paper_default()
        .seed(3)
        .hours(1)
        .build()
        .expect("paper-default scenario must build");
    let inst = &scenario.instances[0];
    let runner = DistributedAdmg::new(AdmgSettings::default());

    let mild = runner
        .execute(inst, Strategy::Hybrid, &lossy(0.05, 7), &mut ())
        .expect("mildly lossy run must succeed");
    let harsh = runner
        .execute(inst, Strategy::Hybrid, &lossy(0.4, 7), &mut ())
        .expect("harshly lossy run must succeed");
    assert!(harsh.retransmissions > mild.retransmissions);
    assert!(harsh.estimated_wan_seconds > mild.estimated_wan_seconds);
    // Sanity: expected retransmissions ≈ messages × p/(1−p).
    let msgs = mild.stats.data_messages as f64;
    let expected = msgs * 0.05 / 0.95;
    let got = mild.retransmissions as f64;
    assert!(
        (got - expected).abs() < 0.5 * expected + 20.0,
        "retransmissions {got} far from expectation {expected}"
    );
}

#[test]
fn zero_loss_is_free() {
    let scenario = ScenarioBuilder::paper_default()
        .seed(3)
        .hours(1)
        .build()
        .expect("paper-default scenario must build");
    let inst = &scenario.instances[0];
    let runner = DistributedAdmg::new(AdmgSettings::default());
    let clean = runner
        .execute(
            inst,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep),
            &mut (),
        )
        .expect("lossless lockstep run must succeed");
    let lossy0 = runner
        .execute(inst, Strategy::Hybrid, &lossy(0.0, 1), &mut ())
        .expect("zero-loss lossy run must succeed");
    assert_eq!(lossy0.retransmissions, 0);
    assert_eq!(lossy0.stats.total_bytes, clean.stats.total_bytes);
    assert!((lossy0.estimated_wan_seconds - clean.estimated_wan_seconds).abs() < 1e-12);
}
