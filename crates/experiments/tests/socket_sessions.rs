//! The reuse contract of the socket engine's parked fleet: one
//! `DistributedAdmg` runs a sequence of socket solves on one set of
//! `ufc-node` processes, loading each run's configuration into them, and
//! every report is what a fresh runner reports. The workers are found in
//! the process table (`/proc/*/stat` parent pid and `/proc/<pid>/comm`),
//! and the coordinator's threads in `/proc/self/task`, so this file holds a
//! single test: no other test's workers share its parent pid, and no other
//! test's threads share its process.

use std::collections::BTreeSet;
use std::fs;
use std::time::{Duration, Instant};

use ufc_core::{AdmgSettings, Strategy};
use ufc_distsim::{DistRunReport, DistributedAdmg, Engine, RunSpec, SocketOptions};
use ufc_experiments::solver_bench::admg_scaling_sized;
use ufc_experiments::DEFAULT_SEED;
use ufc_model::scenario::ScenarioBuilder;
use ufc_model::{StorageFleet, UfcInstance};

/// The live `ufc-node` children of this test process.
fn workers() -> BTreeSet<u32> {
    let me = std::process::id();
    let mut found = BTreeSet::new();
    for entry in fs::read_dir("/proc").expect("read /proc").flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|name| name.parse::<u32>().ok())
        else {
            continue;
        };
        // `pid (comm) state ppid …`; the command name may hold spaces or
        // parentheses, so the fields are read after the last `)`.
        let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        let Some(ppid) = stat
            .rfind(')')
            .and_then(|at| stat[at + 1..].split_whitespace().nth(1))
            .and_then(|field| field.parse::<u32>().ok())
        else {
            continue;
        };
        let comm = fs::read_to_string(format!("/proc/{pid}/comm")).unwrap_or_default();
        if ppid == me && comm.trim_end() == "ufc-node" {
            found.insert(pid);
        }
    }
    found
}

/// The threads of this test process.
fn threads() -> usize {
    fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

/// This process's thread count once it has fallen to `expected`, or after
/// two seconds: a thread the test joined may stay listed for a moment
/// after the join returns.
fn settled_threads(expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let count = threads();
        if count <= expected || Instant::now() >= deadline {
            return count;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn bits(report: &DistRunReport) -> Vec<u64> {
    let point = &report.point;
    point
        .lambda
        .iter()
        .flatten()
        .chain(&point.mu)
        .chain(&point.nu)
        .chain(&point.d)
        .map(|v| v.to_bits())
        .chain([report.breakdown.ufc().to_bits()])
        .collect()
}

fn traffic(report: &DistRunReport) -> (u64, u64) {
    let traffic = report
        .telemetry
        .as_ref()
        .and_then(|t| t.traffic)
        .expect("a traced socket run reports traffic counters");
    (traffic.frames_sent, traffic.socket_writes)
}

/// One socket run on `runner` checked against lockstep and against the
/// same run on a fresh runner; returns the workers left running after it.
fn run(
    runner: &DistributedAdmg,
    instance: &UfcInstance,
    strategy: Strategy,
    options: &SocketOptions,
    label: &str,
) -> BTreeSet<u32> {
    let spec = RunSpec::new(Engine::Sockets(options.clone()));
    let report = runner
        .execute(instance, strategy, &spec, &mut ())
        .unwrap_or_else(|e| panic!("{label}: socket run failed: {e}"));
    let parked = workers();
    let lockstep = runner
        .execute(instance, strategy, &RunSpec::new(Engine::Lockstep), &mut ())
        .unwrap_or_else(|e| panic!("{label}: lockstep run failed: {e}"));
    assert_eq!(
        report.iterations, lockstep.iterations,
        "{label}: iterations"
    );
    assert_eq!(
        bits(&report),
        bits(&lockstep),
        "{label}: point and UFC bits"
    );
    assert_eq!(report.stats, lockstep.stats, "{label}: message stats");
    let fresh = DistributedAdmg::new(AdmgSettings::default().with_telemetry(true))
        .execute(instance, strategy, &spec, &mut ())
        .unwrap_or_else(|e| panic!("{label}: fresh socket run failed: {e}"));
    assert_eq!(
        traffic(&report),
        traffic(&fresh),
        "{label}: frames sent and socket writes"
    );
    parked
}

#[test]
fn one_runner_serves_a_sequence_of_loads_on_one_fleet() {
    let runner = DistributedAdmg::new(AdmgSettings::default().with_telemetry(true));
    let worker = env!("CARGO_BIN_EXE_ufc-node");
    let cohosted = SocketOptions::new(worker).with_processes(2);
    let paper = ScenarioBuilder::paper_default()
        .hours(3)
        .build()
        .expect("paper scenario builds");

    // A parked fleet adds one coordinator thread, its acceptor: the
    // coordinator reads every connection itself.
    let threads_before = threads();
    let mut fleet: Option<BTreeSet<u32>> = None;
    let mut same_fleet = |parked: BTreeSet<u32>, label: &str| {
        assert_eq!(parked.len(), 2, "{label}: the two workers stay up");
        let first = fleet.get_or_insert_with(|| parked.clone());
        assert_eq!(*first, parked, "{label}: the same two workers serve it");
        assert_eq!(
            settled_threads(threads_before + 1),
            threads_before + 1,
            "{label}: the parked fleet's only thread is its acceptor"
        );
    };

    // 1. Three paper hours per strategy: each load flips the block
    //    activation the workers build their kernels with.
    for (hour, instance) in paper.instances.iter().enumerate() {
        for strategy in [Strategy::Hybrid, Strategy::GridOnly, Strategy::FuelCellOnly] {
            let label = format!("hour {hour} {strategy:?}");
            same_fleet(run(&runner, instance, strategy, &cohosted, &label), &label);
        }
    }

    // 2. A storage hour: the 5-block schedule on the same workers.
    let base = paper.instances[0].clone();
    let n = base.n_datacenters();
    let storage = base
        .with_storage(
            StorageFleet::new(4.0, 2.0)
                .initial_charge_frac(0.5)
                .value_per_mwh(60.0)
                .degradation(0.5)
                .ramp_mw(2.5)
                .initial_params(n),
        )
        .expect("storage parameters validate");
    same_fleet(
        run(&runner, &storage, Strategy::Hybrid, &cohosted, "storage"),
        "storage",
    );

    // 3. A 16×4 hour: another instance size, the same two processes.
    let wide = admg_scaling_sized(DEFAULT_SEED, 1, 16, 4).expect("16x4 workload builds");
    same_fleet(
        run(&runner, &wide[0], Strategy::Hybrid, &cohosted, "16x4"),
        "16x4",
    );
    let cohosted_fleet = fleet.expect("runs 1-3 left a fleet");

    // 4. One process per node is another fleet.
    let instance = &paper.instances[0];
    let default_options = SocketOptions::new(worker);
    let per_node = run(
        &runner,
        instance,
        Strategy::Hybrid,
        &default_options,
        "one per node",
    );
    assert_eq!(
        per_node.len(),
        instance.m_frontends() + instance.n_datacenters()
    );
    assert!(
        per_node.is_disjoint(&cohosted_fleet),
        "the co-hosted fleet is reaped when another replaces it"
    );
    assert_eq!(
        settled_threads(threads_before + 1),
        threads_before + 1,
        "one process per node still adds one thread"
    );

    drop(runner);
    assert!(
        workers().is_empty(),
        "dropping the runner reaps its workers"
    );
    assert_eq!(
        settled_threads(threads_before),
        threads_before,
        "and joins its acceptor"
    );
}
