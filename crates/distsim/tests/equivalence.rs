//! The central claim of the distributed runtime: executing the protocol as
//! message-passing nodes produces the same iterates as the in-memory
//! `AdmgSolver`, at the paper's full scale (M = 10, N = 4).

use ufc_core::{AdmgSettings, AdmgSolver, Strategy};
use ufc_distsim::{DistributedAdmg, Engine, RunSpec};
use ufc_model::scenario::ScenarioBuilder;

#[test]
fn lockstep_equals_in_memory_solver_at_paper_scale() {
    let scenario = ScenarioBuilder::paper_default()
        .hours(3)
        .build()
        .expect("paper-default scenario must build");
    let settings = AdmgSettings::default();
    let solver = AdmgSolver::new(settings);
    let dist = DistributedAdmg::new(settings);
    for (t, inst) in scenario.instances.iter().enumerate() {
        let mem = solver
            .solve(inst, Strategy::Hybrid)
            .expect("in-memory solve must succeed on a paper-default instance");
        let net = dist
            .execute(
                inst,
                Strategy::Hybrid,
                &RunSpec::new(Engine::Lockstep),
                &mut (),
            )
            .expect("lockstep run must succeed on a paper-default instance");
        assert_eq!(
            mem.iterations, net.iterations,
            "hour {t}: iteration counts differ"
        );
        assert!(
            (mem.breakdown.ufc() - net.breakdown.ufc()).abs()
                < 1e-6 * mem.breakdown.ufc().abs().max(1.0),
            "hour {t}: UFC differs: {} vs {}",
            mem.breakdown.ufc(),
            net.breakdown.ufc()
        );
        // Full operating points agree component-wise.
        for (rm, rn) in mem.point.lambda.iter().zip(&net.point.lambda) {
            for (a, b) in rm.iter().zip(rn) {
                assert!((a - b).abs() < 1e-8, "hour {t}: lambda differs");
            }
        }
        for (a, b) in mem.point.mu.iter().zip(&net.point.mu) {
            assert!((a - b).abs() < 1e-8, "hour {t}: mu differs");
        }
    }
}

#[test]
fn threaded_equals_lockstep_at_paper_scale() {
    let scenario = ScenarioBuilder::paper_default()
        .hours(2)
        .build()
        .expect("paper-default scenario must build");
    let dist = DistributedAdmg::new(AdmgSettings::default());
    for inst in &scenario.instances {
        let lock = dist
            .execute(
                inst,
                Strategy::Hybrid,
                &RunSpec::new(Engine::Lockstep),
                &mut (),
            )
            .expect("lockstep run must succeed on a paper-default instance");
        let thr = dist
            .execute(
                inst,
                Strategy::Hybrid,
                &RunSpec::new(Engine::Threaded),
                &mut (),
            )
            .expect("threaded run must succeed on a paper-default instance");
        assert_eq!(lock.iterations, thr.iterations);
        assert_eq!(lock.stats, thr.stats);
        assert!((lock.breakdown.ufc() - thr.breakdown.ufc()).abs() < 1e-9);
    }
}

#[test]
fn message_complexity_is_linear_in_pairs() {
    let scenario = ScenarioBuilder::paper_default()
        .hours(1)
        .build()
        .expect("paper-default scenario must build");
    let inst = &scenario.instances[0];
    let report = DistributedAdmg::new(AdmgSettings::default())
        .execute(
            inst,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep),
            &mut (),
        )
        .expect("lockstep run must succeed on a paper-default instance");
    let m = inst.m_frontends();
    let n = inst.n_datacenters();
    assert_eq!(report.stats.data_messages, 2 * m * n * report.iterations);
    assert_eq!(
        report.stats.control_messages,
        2 * (m + n) * report.iterations
    );
    // WAN estimate: 4 latency-bound phases per iteration.
    let l_max = inst
        .latency_s
        .iter()
        .flatten()
        .cloned()
        .fold(0.0f64, f64::max);
    assert!((report.estimated_wan_seconds - report.iterations as f64 * 4.0 * l_max).abs() < 1e-12);
}
