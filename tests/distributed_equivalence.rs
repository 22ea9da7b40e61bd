//! Workspace-level check that the three execution paths — centralized QP,
//! in-memory ADM-G, and the message-passing protocol — agree on the same
//! instances, across all strategies.

use ufc_core::{centralized, AdmgSettings, AdmgSolver, Strategy};
use ufc_distsim::{DistributedAdmg, Engine, RunSpec};
use ufc_model::scenario::ScenarioBuilder;

#[test]
fn three_paths_one_answer() {
    let scenario = ScenarioBuilder::paper_default()
        .seed(11)
        .hours(2)
        .build()
        .unwrap();
    let settings = AdmgSettings::default();
    let solver = AdmgSolver::new(settings);
    let dist = DistributedAdmg::new(settings);

    for inst in &scenario.instances {
        for strategy in [Strategy::Hybrid, Strategy::GridOnly] {
            let mem = solver.solve(inst, strategy).unwrap();
            let net = dist
                .execute(inst, strategy, &RunSpec::new(Engine::Lockstep), &mut ())
                .unwrap();
            let central = centralized::solve(inst, strategy, centralized::Backend::Admm).unwrap();

            let scale = central.breakdown.ufc().abs().max(1.0);
            assert!(
                (mem.breakdown.ufc() - central.breakdown.ufc()).abs() / scale < 5e-3,
                "{strategy:?}: ADM-G {} vs centralized {}",
                mem.breakdown.ufc(),
                central.breakdown.ufc()
            );
            assert!(
                (mem.breakdown.ufc() - net.breakdown.ufc()).abs() / scale < 1e-9,
                "{strategy:?}: in-memory and distributed disagree"
            );
            assert_eq!(mem.iterations, net.iterations);
        }
    }
}

#[test]
fn fuel_cell_strategy_distributed_matches_memory() {
    // FuelCellOnly has no centralized-QP comparison here (ν ≡ 0 makes it a
    // pure routing problem), but distributed and in-memory must still match.
    let scenario = ScenarioBuilder::paper_default()
        .seed(13)
        .hours(2)
        .build()
        .unwrap();
    let settings = AdmgSettings::default();
    let solver = AdmgSolver::new(settings);
    let dist = DistributedAdmg::new(settings);
    for inst in &scenario.instances {
        let mem = solver.solve(inst, Strategy::FuelCellOnly).unwrap();
        let net = dist
            .execute(
                inst,
                Strategy::FuelCellOnly,
                &RunSpec::new(Engine::Threaded),
                &mut (),
            )
            .unwrap();
        assert_eq!(mem.iterations, net.iterations);
        assert!((mem.breakdown.ufc() - net.breakdown.ufc()).abs() < 1e-6);
        assert!(net.point.nu.iter().all(|&v| v.abs() < 1e-9));
    }
}
