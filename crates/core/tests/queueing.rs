//! The congestion (queueing) extension: ADM-G with a convex non-quadratic
//! a-step solved by backtracking FISTA.

use ufc_core::{centralized, AdmgSettings, AdmgSolver, CoreError, Strategy};

/// The congestion barrier's curvature slows the splitting at the paper's
/// default penalty; a larger ρ (and headroom in the iteration cap) is the
/// documented recommendation for congested instances.
fn congested_settings() -> AdmgSettings {
    let mut s = AdmgSettings::default().with_rho(8.0);
    s.max_iterations = 6000;
    s
}

/// The default congested solve, shared across tests (it is the expensive
/// part of this suite).
fn congested_solution() -> &'static ufc_core::AdmgSolution {
    use std::sync::OnceLock;
    static CELL: OnceLock<ufc_core::AdmgSolution> = OnceLock::new();
    CELL.get_or_init(|| {
        let inst = base_instance().with_queueing(QueueingCost::default_interactive());
        AdmgSolver::new(congested_settings())
            .solve(&inst, Strategy::Hybrid)
            .unwrap()
    })
}
use ufc_distsim::{DistributedAdmg, Engine, RunSpec};
use ufc_model::{EmissionCostFn, QueueingCost, UfcInstance};

/// Two front-ends, two datacenters; DC0 is close to everyone (latency-wise)
/// so the base model crams load into it.
fn base_instance() -> UfcInstance {
    UfcInstance::new(
        vec![1.2, 1.2],
        vec![2.0, 2.0],
        vec![0.24, 0.24],
        vec![0.12, 0.12],
        vec![0.48, 0.48],
        vec![40.0, 45.0],
        80.0,
        vec![0.5, 0.4],
        // DC0 strictly dominates on latency for both front-ends.
        vec![vec![0.005, 0.025], vec![0.006, 0.028]],
        10.0,
        vec![
            EmissionCostFn::linear(25.0).unwrap(),
            EmissionCostFn::linear(25.0).unwrap(),
        ],
        1.0,
    )
    .unwrap()
}

#[test]
fn negligible_weight_recovers_base_solution() {
    // Arrivals low enough that the utilization ceiling is slack — then a
    // near-zero weight must reproduce the base solution. (At saturation the
    // ceiling itself shrinks the feasible set, so the solutions would
    // legitimately differ.)
    let mut base = base_instance();
    base.arrivals = vec![0.8, 0.8];
    let queued = base
        .clone()
        .with_queueing(QueueingCost::new(0.002, 1e-6, 0.98).unwrap());
    let solver = AdmgSolver::new(congested_settings());
    let a = solver.solve(&base, Strategy::Hybrid).unwrap();
    let b = solver.solve(&queued, Strategy::Hybrid).unwrap();
    assert!(b.converged);
    let scale = a.breakdown.ufc().abs().max(1.0);
    assert!(
        (a.breakdown.ufc() - b.breakdown.ufc()).abs() / scale < 1e-3,
        "base {} vs ~zero-weight queueing {}",
        a.breakdown.ufc(),
        b.breakdown.ufc()
    );
}

#[test]
fn congestion_pressure_spreads_load() {
    let base = base_instance();
    let queued = base
        .clone()
        .with_queueing(QueueingCost::default_interactive());
    let solver = AdmgSolver::new(congested_settings());
    let a = solver.solve(&base, Strategy::Hybrid).unwrap();
    let _ = queued; // documented: shares the canonical congested solve below
    let b = congested_solution();
    assert!(b.converged);

    let loads_a = a.point.loads();
    let loads_b = b.point.loads();
    // Base: latency pulls nearly everything to DC0.
    assert!(loads_a[0] > loads_a[1], "base solution should favor DC0");
    // Queueing: the spread between the two datacenters shrinks.
    let spread_a = (loads_a[0] - loads_a[1]).abs();
    let spread_b = (loads_b[0] - loads_b[1]).abs();
    assert!(
        spread_b < spread_a,
        "congestion should balance loads: {spread_a} -> {spread_b}"
    );
    // And the breakdown carries the congestion charge.
    assert!(b.breakdown.queueing_cost_dollars > 0.0);
    assert_eq!(a.breakdown.queueing_cost_dollars, 0.0);
}

#[test]
fn utilization_ceiling_is_respected() {
    // Tight fleet: total arrivals = 90% of capacity, ceiling at 93%.
    let mut inst = base_instance();
    inst.arrivals = vec![1.8, 1.8];
    let inst = inst.with_queueing(QueueingCost::new(0.002, 1e4, 0.93).unwrap());
    let sol = AdmgSolver::new(congested_settings())
        .solve(&inst, Strategy::Hybrid)
        .unwrap();
    for (j, load) in sol.point.loads().iter().enumerate() {
        let u = load / inst.capacities[j];
        assert!(u <= 0.93 + 1e-6, "datacenter {j} at utilization {u}");
    }
    assert!(sol.breakdown.queueing_cost_dollars.is_finite());
}

#[test]
fn distributed_runtime_matches_in_memory_with_queueing() {
    let inst = base_instance().with_queueing(QueueingCost::default_interactive());
    let settings = congested_settings();
    let mem = AdmgSolver::new(settings)
        .solve(&inst, Strategy::Hybrid)
        .unwrap();
    let net = DistributedAdmg::new(settings)
        .execute(
            &inst,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep),
            &mut (),
        )
        .unwrap();
    assert_eq!(mem.iterations, net.iterations);
    assert!(
        (mem.breakdown.ufc() - net.breakdown.ufc()).abs() < 1e-9 * mem.breakdown.ufc().abs(),
        "in-memory {} vs distributed {}",
        mem.breakdown.ufc(),
        net.breakdown.ufc()
    );
}

#[test]
fn unsupported_paths_reject_queueing_cleanly() {
    let inst = base_instance().with_queueing(QueueingCost::default_interactive());
    assert!(matches!(
        centralized::solve(&inst, Strategy::Hybrid, centralized::Backend::Admm),
        Err(CoreError::Unsupported { .. })
    ));
    assert!(matches!(
        ufc_core::baseline::solve(
            &inst,
            Strategy::Hybrid,
            &ufc_core::baseline::SubgradientSettings::default()
        ),
        Err(CoreError::Unsupported { .. })
    ));
}

#[test]
fn ufc_equals_negated_objective_with_queueing() {
    // The duality between `evaluate` and the min-form objective must
    // survive the extension.
    let inst = base_instance().with_queueing(QueueingCost::default_interactive());
    let sol = congested_solution();
    let mut state = ufc_core::AdmgState::zeros(&inst);
    for (i, row) in sol.point.lambda.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            let k = state.idx(i, j);
            state.lambda[k] = v;
        }
    }
    state.mu = sol.point.mu.clone();
    state.nu = sol.point.nu.clone();
    let obj = state.objective(&inst);
    assert!(
        (sol.breakdown.ufc() + obj).abs() < 1e-9 * (1.0 + obj.abs()),
        "UFC {} vs −objective {}",
        sol.breakdown.ufc(),
        -obj
    );
}
