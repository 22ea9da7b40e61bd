//! Cross-cutting algorithm tests: ADM-G vs the centralized reference on
//! randomized instances, strategy dominance, and robustness to emission-cost
//! shapes.

use proptest::prelude::*;
use ufc_core::{centralized, AdmgSettings, AdmgSolver, Strategy};
use ufc_model::{EmissionCostFn, UfcInstance};

/// A randomized but well-posed 3×2 instance.
fn random_instance(
    arrivals: Vec<f64>,
    prices: Vec<f64>,
    carbon: Vec<f64>,
    p0: f64,
    tax: f64,
) -> UfcInstance {
    UfcInstance::new(
        arrivals,
        vec![3.0, 3.0],
        vec![0.36, 0.36],
        vec![0.12, 0.12],
        vec![0.72, 0.72],
        prices,
        p0,
        carbon,
        vec![vec![0.008, 0.025], vec![0.020, 0.010], vec![0.015, 0.018]],
        10.0,
        vec![
            EmissionCostFn::linear(tax).unwrap(),
            EmissionCostFn::linear(tax).unwrap(),
        ],
        1.0,
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// ADM-G lands within 0.5% of the centralized optimum across random
    /// price/carbon/arrival configurations.
    #[test]
    fn admg_matches_centralized(
        a1 in 0.5f64..2.0,
        a2 in 0.5f64..2.0,
        a3 in 0.5f64..2.0,
        p1 in 15.0f64..120.0,
        p2 in 15.0f64..120.0,
        c1 in 0.1f64..0.8,
        c2 in 0.1f64..0.8,
        p0 in 30.0f64..110.0,
        tax in 0.0f64..100.0,
    ) {
        let inst = random_instance(vec![a1, a2, a3], vec![p1, p2], vec![c1, c2], p0, tax);
        let admg = AdmgSolver::new(AdmgSettings::default())
            .solve(&inst, Strategy::Hybrid)
            .unwrap();
        prop_assert!(admg.converged, "did not converge: {:?}", admg.history.last());
        let cen = centralized::solve(&inst, Strategy::Hybrid, centralized::Backend::Admm).unwrap();
        let scale = cen.breakdown.ufc().abs().max(10.0);
        prop_assert!(
            (admg.breakdown.ufc() - cen.breakdown.ufc()).abs() / scale < 5e-3,
            "ADM-G {} vs centralized {}",
            admg.breakdown.ufc(),
            cen.breakdown.ufc()
        );
    }

    /// Hybrid dominates both single-source strategies on every instance
    /// (its feasible set contains theirs).
    #[test]
    fn hybrid_dominates(
        a1 in 0.5f64..2.0,
        p1 in 15.0f64..120.0,
        p2 in 15.0f64..120.0,
        p0 in 30.0f64..110.0,
    ) {
        let inst = random_instance(vec![a1, 1.0, 1.0], vec![p1, p2], vec![0.5, 0.3], p0, 25.0);
        let solver = AdmgSolver::new(AdmgSettings::default());
        let hybrid = solver.solve(&inst, Strategy::Hybrid).unwrap();
        let grid = solver.solve(&inst, Strategy::GridOnly).unwrap();
        let fc = solver.solve(&inst, Strategy::FuelCellOnly).unwrap();
        let tol = 1e-3 * hybrid.breakdown.ufc().abs().max(1.0);
        prop_assert!(hybrid.breakdown.ufc() >= grid.breakdown.ufc() - tol);
        prop_assert!(hybrid.breakdown.ufc() >= fc.breakdown.ufc() - tol);
    }
}

#[test]
fn cheap_fuel_cells_get_fully_used() {
    // p0 far below every effective grid price ⇒ hybrid ≈ fuel-cell-only.
    let inst = random_instance(
        vec![1.0, 1.0, 1.0],
        vec![80.0, 90.0],
        vec![0.5, 0.5],
        5.0,
        25.0,
    );
    let sol = AdmgSolver::new(AdmgSettings::default())
        .solve(&inst, Strategy::Hybrid)
        .unwrap();
    assert!(
        sol.breakdown.fuel_cell_utilization > 0.99,
        "utilization {}",
        sol.breakdown.fuel_cell_utilization
    );
}

#[test]
fn expensive_fuel_cells_stay_idle() {
    // p0 far above every effective grid price ⇒ hybrid ≈ grid-only.
    let inst = random_instance(
        vec![1.0, 1.0, 1.0],
        vec![20.0, 25.0],
        vec![0.3, 0.3],
        500.0,
        5.0,
    );
    let sol = AdmgSolver::new(AdmgSettings::default())
        .solve(&inst, Strategy::Hybrid)
        .unwrap();
    assert!(
        sol.breakdown.fuel_cell_utilization < 0.01,
        "utilization {}",
        sol.breakdown.fuel_cell_utilization
    );
}

#[test]
fn high_carbon_tax_pushes_to_fuel_cells() {
    // Same prices, tax cranked to $500/ton: grid becomes effectively
    // 20 + 0.5·500 = 270 $/MWh against p0 = 80 ⇒ fuel cells win.
    let inst = random_instance(
        vec![1.0, 1.0, 1.0],
        vec![20.0, 25.0],
        vec![0.5, 0.5],
        80.0,
        500.0,
    );
    let sol = AdmgSolver::new(AdmgSettings::default())
        .solve(&inst, Strategy::Hybrid)
        .unwrap();
    assert!(
        sol.breakdown.fuel_cell_utilization > 0.99,
        "utilization {}",
        sol.breakdown.fuel_cell_utilization
    );
    // Near-zero emissions (a whisker of grid draw survives the finite
    // stopping tolerance; grid-only would emit ≈ 0.5 t here).
    assert!(
        sol.breakdown.carbon_tons < 0.01,
        "tons {}",
        sol.breakdown.carbon_tons
    );
}

#[test]
fn stepped_tariff_runs_through_admg() {
    // ADM-G's ν-step handles the stepped tariff the centralized QP cannot.
    let mut inst = random_instance(
        vec![1.0, 1.0, 1.0],
        vec![40.0, 45.0],
        vec![0.5, 0.4],
        80.0,
        0.0,
    );
    inst.emission_cost = vec![
        EmissionCostFn::stepped(vec![0.2, 0.5], vec![10.0, 60.0, 200.0]).unwrap(),
        EmissionCostFn::stepped(vec![0.2, 0.5], vec![10.0, 60.0, 200.0]).unwrap(),
    ];
    let sol = AdmgSolver::new(AdmgSettings::default())
        .solve(&inst, Strategy::Hybrid)
        .unwrap();
    assert!(sol.converged);
    assert!(sol.point.feasibility_residual(&inst) < 1e-6);
    // The bracket structure shows: emissions land at or below a knee rather
    // than deep in the expensive bracket.
    assert!(
        sol.breakdown.carbon_tons < 0.55,
        "tons {}",
        sol.breakdown.carbon_tons
    );
}

#[test]
fn paper_verbatim_rho_also_converges() {
    let inst = random_instance(
        vec![1.0, 1.5, 0.8],
        vec![35.0, 75.0],
        vec![0.55, 0.3],
        80.0,
        25.0,
    );
    let default = AdmgSolver::new(AdmgSettings::default())
        .solve(&inst, Strategy::Hybrid)
        .unwrap();
    let verbatim = AdmgSolver::new(AdmgSettings::paper_verbatim())
        .solve(&inst, Strategy::Hybrid)
        .unwrap();
    assert!(verbatim.converged);
    assert!(
        (default.breakdown.ufc() - verbatim.breakdown.ufc()).abs()
            < 1e-2 * default.breakdown.ufc().abs(),
        "rho choices disagree: {} vs {}",
        default.breakdown.ufc(),
        verbatim.breakdown.ufc()
    );
}
