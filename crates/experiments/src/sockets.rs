//! Socket-engine study: the multi-process transport vs the in-memory
//! lockstep engine, clean and under real `SIGKILL` recovery.
//!
//! The paper's protocol claims are simulator-agnostic, so this extension
//! checks them against the operating system instead of the in-process
//! fault model: every node runs as its own `ufc-node` OS process speaking
//! the checksummed wire framing over a Unix socket on the coordinator's
//! own host. The clean sweep asserts the headline invariant — every
//! hour's operating point is bit-identical to the lockstep engine — and
//! the recovery scenario kills live worker processes with `SIGKILL`
//! mid-iteration, drops connections for a partition window, and asserts
//! the checkpoint-restarted run still lands on the clean UFC exactly.

use std::path::{Path, PathBuf};
use std::time::Duration;

use ufc_core::{AdmgSettings, CoreError, Result, Strategy};
use ufc_distsim::{
    DistRunReport, DistributedAdmg, Engine, FaultPlan, NodeId, PartitionWindow, RunSpec,
    SocketOptions,
};
use ufc_model::scenario::ScenarioBuilder;
use ufc_traces::csv::Csv;

/// One clean hour: the socket engine's run next to the lockstep baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocketHour {
    /// Hour index within the scenario.
    pub hour: usize,
    /// Iterations the socket run performed.
    pub iterations: usize,
    /// Whether the socket run converged.
    pub converged: bool,
    /// Whether operating point, UFC breakdown, and iteration count match
    /// the lockstep engine bit-for-bit.
    pub bitwise_match: bool,
    /// Estimated WAN wall-clock of the socket run (seconds).
    pub wan_seconds: f64,
}

/// The `SIGKILL`-and-restart scenario's accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryOutcome {
    /// Iterations the recovered run performed.
    pub iterations: usize,
    /// Scripted crashes that were delivered as real `SIGKILL`s and
    /// resolved by checkpoint-restart.
    pub crashes_resolved: usize,
    /// Checkpoints taken (periodic + forced after membership changes).
    pub checkpoints_taken: usize,
    /// Iterations recomputed during restart replays.
    pub recomputed_iterations: usize,
    /// Nodes the supervision deadline ladder declared dead.
    pub dead_node_declarations: u64,
    /// Connections re-established after a drop (partition heals and
    /// respawn handshakes).
    pub reconnects: u64,
    /// Final UFC minus the clean lockstep UFC, in dollars.
    pub ufc_delta_vs_clean: f64,
    /// Whether the recovered run reproduced the clean operating point
    /// bit-for-bit.
    pub bitwise_match: bool,
}

/// The full study result.
#[derive(Debug, Clone, PartialEq)]
pub struct SocketStudy {
    /// Worker processes per clean run (`M + N`).
    pub processes: usize,
    /// One row per clean hour.
    pub hours: Vec<SocketHour>,
    /// The kill-and-restart scenario.
    pub recovery: RecoveryOutcome,
}

impl SocketStudy {
    /// `true` when every clean hour and the recovered run reproduced the
    /// lockstep operating point bit-for-bit — the engine's headline
    /// guarantee.
    #[must_use]
    pub fn all_bitwise(&self) -> bool {
        self.hours.iter().all(|h| h.bitwise_match) && self.recovery.bitwise_match
    }

    /// CSV with one row per clean hour.
    #[must_use]
    pub fn csv(&self) -> Csv {
        let mut csv = Csv::new(&[
            "hour",
            "iterations",
            "converged",
            "bitwise_match",
            "wan_seconds",
        ]);
        for h in &self.hours {
            csv.push_row(&[
                h.hour as f64,
                h.iterations as f64,
                f64::from(u8::from(h.converged)),
                f64::from(u8::from(h.bitwise_match)),
                h.wan_seconds,
            ]);
        }
        csv
    }
}

/// Finds the `ufc-node` worker binary next to the running executable
/// (same directory, or its parent when the executable sits in a cargo
/// `deps/` directory, as test binaries do).
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] when no candidate exists — build it with
/// `cargo build -p ufc-experiments --bin ufc-node` first.
pub fn locate_worker() -> Result<PathBuf> {
    let exe = std::env::current_exe()
        .map_err(|e| CoreError::invalid_config(format!("cannot locate current executable: {e}")))?;
    let mut dirs: Vec<PathBuf> = Vec::new();
    if let Some(dir) = exe.parent() {
        dirs.push(dir.to_path_buf());
        if dir.file_name().is_some_and(|name| name == "deps") {
            if let Some(parent) = dir.parent() {
                dirs.push(parent.to_path_buf());
            }
        }
    }
    let name = format!("ufc-node{}", std::env::consts::EXE_SUFFIX);
    for dir in &dirs {
        let candidate = dir.join(&name);
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err(CoreError::invalid_config(format!(
        "worker binary {name:?} not found next to {} — build it with \
         `cargo build -p ufc-experiments --bin ufc-node`",
        exe.display()
    )))
}

/// The deterministic fault script of the recovery scenario: two real
/// `SIGKILL`s (one front-end, one datacenter, both mid-run with recovery
/// budget), plus a two-iteration partition window that tears the severed
/// side's connections down for real. Kept in one place so the `repro`
/// sweep, the integration tests, and CI all exercise the same script.
#[must_use]
pub fn recovery_fault_plan() -> FaultPlan {
    FaultPlan::new()
        .with_phase_timeout(Duration::from_millis(25))
        .crash_and_recover(NodeId::Datacenter(0), 6, 1)
        .crash_and_recover(NodeId::Frontend(1), 10, 1)
        .partition(PartitionWindow {
            from_iteration: 14,
            to_iteration: 16,
            frontends: vec![0],
            datacenters: vec![1],
        })
}

/// Bit-pattern equality of two runs: iteration count, every operating
/// point coordinate, and the UFC, compared as exact bit patterns.
fn reports_bitwise_equal(a: &DistRunReport, b: &DistRunReport) -> bool {
    let coords = |r: &DistRunReport| -> Vec<u64> {
        r.point
            .lambda
            .iter()
            .flatten()
            .chain(r.point.mu.iter())
            .chain(r.point.nu.iter())
            .map(|v| v.to_bits())
            .collect()
    };
    a.iterations == b.iterations
        && a.converged == b.converged
        && coords(a) == coords(b)
        && a.breakdown.ufc().to_bits() == b.breakdown.ufc().to_bits()
}

/// Runs the study: a clean per-hour socket-vs-lockstep comparison over
/// `hours` hourly instances, then the [`recovery_fault_plan`] scenario on
/// the first hour. `worker` is the `ufc-node` binary (see
/// [`locate_worker`]).
///
/// # Errors
///
/// Scenario construction, solver, or worker-process failures.
pub fn run(seed: u64, hours: usize, settings: AdmgSettings, worker: &Path) -> Result<SocketStudy> {
    let scenario = ScenarioBuilder::paper_default()
        .seed(seed)
        .hours(hours)
        .build()
        .map_err(CoreError::Model)?;
    let runner = DistributedAdmg::try_new(settings)?;
    let lockstep = RunSpec::new(Engine::Lockstep);
    let sockets = RunSpec::new(Engine::Sockets(SocketOptions::new(worker)));
    let processes = scenario.instances[0].m_frontends() + scenario.instances[0].n_datacenters();

    let mut rows = Vec::with_capacity(scenario.instances.len());
    for (hour, instance) in scenario.instances.iter().enumerate() {
        let clean = runner.execute(instance, Strategy::Hybrid, &lockstep, &mut ())?;
        let socket = runner.execute(instance, Strategy::Hybrid, &sockets, &mut ())?;
        rows.push(SocketHour {
            hour,
            iterations: socket.iterations,
            converged: socket.converged,
            bitwise_match: reports_bitwise_equal(&clean, &socket),
            wan_seconds: socket.estimated_wan_seconds,
        });
    }

    let instance = &scenario.instances[0];
    let clean = runner.execute(instance, Strategy::Hybrid, &lockstep, &mut ())?;
    let recovered = runner.execute(
        instance,
        Strategy::Hybrid,
        &sockets.with_plan(recovery_fault_plan()),
        &mut (),
    )?;
    let fault = recovered
        .fault
        .clone()
        .ok_or_else(|| CoreError::invalid_config("faulty socket run lost its fault report"))?;
    let integrity = recovered.integrity.ok_or_else(|| {
        CoreError::invalid_config("faulty socket run lost its integrity counters")
    })?;
    let recovery = RecoveryOutcome {
        iterations: recovered.iterations,
        crashes_resolved: fault.crashes_observed,
        checkpoints_taken: fault.checkpoints_taken,
        recomputed_iterations: fault.recomputed_iterations,
        dead_node_declarations: integrity.dead_node_declarations,
        reconnects: integrity.reconnects,
        ufc_delta_vs_clean: fault.ufc_delta_vs_clean,
        bitwise_match: reports_bitwise_equal(&clean, &recovered),
    };

    Ok(SocketStudy {
        processes,
        hours: rows,
        recovery,
    })
}
