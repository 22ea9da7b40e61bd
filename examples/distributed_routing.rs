//! Run the UFC optimization the way the paper's Fig. 2 draws it: as a
//! message-passing protocol between 10 front-end proxies and 4 datacenters,
//! then compare against the in-memory solver and a centralized QP.
//!
//! ```text
//! cargo run --release -p ufc-experiments --example distributed_routing
//! ```

use ufc_core::{centralized, AdmgSettings, AdmgSolver, Strategy};
use ufc_distsim::{DistributedAdmg, Engine, RunSpec};
use ufc_model::scenario::ScenarioBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = ScenarioBuilder::paper_default().seed(7).hours(1).build()?;
    let inst = &scenario.instances[0];
    let settings = AdmgSettings::default();

    // The distributed protocol: front-end and datacenter nodes that only
    // exchange explicit, accounted messages through the coordinator.
    let report = DistributedAdmg::new(settings).execute(
        inst,
        Strategy::Hybrid,
        &RunSpec::new(Engine::Lockstep),
        &mut (),
    )?;
    println!(
        "distributed run: {} iterations, UFC = {:.2} $",
        report.iterations,
        report.breakdown.ufc()
    );
    println!(
        "traffic: {} data messages + {} control messages = {:.1} KiB",
        report.stats.data_messages,
        report.stats.control_messages,
        report.stats.total_bytes as f64 / 1024.0
    );
    println!(
        "estimated WAN wall-clock: {:.2} s ({} iterations × 4 latency-bound phases)",
        report.estimated_wan_seconds, report.iterations
    );

    // The in-memory solver computes the identical iterates...
    let mem = AdmgSolver::new(settings).solve(inst, Strategy::Hybrid)?;
    println!(
        "\nin-memory solver: {} iterations, UFC = {:.2} $ (identical by construction)",
        mem.iterations,
        mem.breakdown.ufc()
    );

    // ...and both match the centralized reference QP.
    let central = centralized::solve(inst, Strategy::Hybrid, centralized::Backend::Admm)?;
    println!(
        "centralized QP:   UFC = {:.2} $ (optimality gap {:.4}%)",
        central.breakdown.ufc(),
        100.0 * (central.breakdown.ufc() - report.breakdown.ufc()).abs()
            / central.breakdown.ufc().abs()
    );

    // The point the protocol agreed on.
    println!("\nper-datacenter decisions (hybrid):");
    for (j, name) in scenario.dc_names.iter().enumerate() {
        let load: f64 = report.point.lambda.iter().map(|row| row[j]).sum();
        println!(
            "  {name:>10}: load {load:5.2} kservers, fuel cells {:5.3} MW, grid {:5.3} MW \
             (price {:5.1} $/MWh, carbon {:4.0} g/kWh)",
            report.point.mu[j],
            report.point.nu[j],
            inst.grid_price[j],
            1e3 * inst.carbon_t_per_mwh[j],
        );
    }
    Ok(())
}
