//! The public runtime facade: one entry point,
//! [`DistributedAdmg::execute`], that runs a [`RunSpec`] — an [`Engine`]
//! and the [`FaultPlan`] it runs under — and packages the result.
//!
//! The two engines are one [`ufc_core::engine::Transport`], the
//! supervised coordinator (`crate::supervision`), over two fleets: node
//! kernels in the calling thread ([`Engine::Lockstep`],
//! `crate::worker::InlineFleet`) or worker processes ([`Engine::Sockets`],
//! `crate::engine_socket`). It is sequenced by the single transport-agnostic
//! driver `ufc_core::engine::drive`, so the prediction order, correction
//! step, and stop rule exist in exactly one place, and the fault protocol
//! exists once in the supervisor. Faults, corruption and drops are not
//! separate code paths either: a clean run is the [`FaultPlan::none`]
//! degenerate case of the same engines, and the run policy (validation,
//! rollback checkpoints, the clean baseline, and which socket runs share a
//! fleet of worker processes) lives in [`DistributedAdmg::execute`] alone.

use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;

use ufc_core::engine::IterationObserver;
use ufc_core::telemetry::{IntegrityCounters, RunTelemetry};
use ufc_core::{AdmgSettings, AdmgSolver, CoreError, Strategy};
use ufc_model::{OperatingPoint, UfcBreakdown, UfcInstance};

use crate::engine_socket::ProcessFleet;
use crate::fault::{CorruptionConfig, CorruptionKind, FaultPlan, FaultReport};
use crate::stats::MessageStats;
use crate::supervision::run_supervised;
use crate::wire::{AuthKey, BindConfig, RunConfig};
use crate::worker::InlineFleet;

/// Checkpoint cadence [`DistributedAdmg::execute`] gives a corrupting plan
/// without one when [`AdmgSettings::divergence_rollback`] is on: rollback
/// needs a recent finite state to return to.
const ROLLBACK_CHECKPOINT_INTERVAL: usize = 4;

/// Configuration of the multi-process socket engine: where the worker
/// binary lives, how many OS processes to spread the nodes over, where the
/// coordinator listens (its own host, or a TCP address), and the shared
/// authentication key (required for non-loopback binds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocketOptions {
    /// Path to the `ufc-node` worker binary (built from
    /// `experiments/src/bin/ufc-node.rs`).
    pub worker: PathBuf,
    /// Worker process count. `0` (the default) means one process per node
    /// (`M + N`); smaller counts co-host nodes round-robin. Process-level
    /// fault injection (kills, partitions) requires the full one-per-node
    /// split so a `SIGKILL` hits exactly the scripted node.
    pub processes: usize,
    /// Where the coordinator listens. `None` (the default) means the
    /// coordinator's own host: a Unix stream socket in a fresh mode-0700
    /// directory under [`std::env::temp_dir`], removed when the fleet is
    /// torn down, which only the coordinator's user can reach. `Some` is a
    /// TCP listen/advertise address pair; a non-loopback listen address is
    /// refused unless [`Self::auth`] is set (see DESIGN.md §17).
    pub bind: Option<BindConfig>,
    /// Shared handshake key. When set, every connection must pass the
    /// challenge–response MAC exchange before any iteration state is
    /// exchanged; plain `Hello` handshakes (a downgrade) are rejected.
    pub auth: Option<AuthKey>,
}

impl SocketOptions {
    /// Options for the given worker binary with the default one process
    /// per node on the coordinator's own host, unauthenticated.
    pub fn new(worker: impl Into<PathBuf>) -> Self {
        SocketOptions {
            worker: worker.into(),
            processes: 0,
            bind: None,
            auth: None,
        }
    }

    /// Overrides the worker process count.
    #[must_use]
    pub fn with_processes(mut self, processes: usize) -> Self {
        self.processes = processes;
        self
    }

    /// Listens on TCP at `bind` instead of the own-host Unix socket: for
    /// workers on other hosts, or behind an address the coordinator
    /// advertises.
    #[must_use]
    pub fn with_bind(mut self, bind: BindConfig) -> Self {
        self.bind = Some(bind);
        self
    }

    /// Enables the authenticated challenge–response handshake with the
    /// given shared key.
    #[must_use]
    pub fn with_auth(mut self, key: AuthKey) -> Self {
        self.auth = Some(key);
        self
    }
}

/// Which execution engine runs the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Engine {
    /// The supervised coordinator over node kernels in the calling
    /// process: each command fan-out runs over the
    /// [`AdmgSettings::num_threads`]-wide worker pool, and its replies are
    /// queued before the coordinator gathers them. Deterministic,
    /// bit-identical to the in-memory `AdmgSolver`, and the one distributed
    /// engine whose telemetry carries the solver counters.
    Lockstep,
    /// Every node in a worker OS process (per [`SocketOptions::processes`])
    /// speaking the checksummed wire framing over a Unix stream socket on
    /// the coordinator's own host, or over TCP with an explicit
    /// [`SocketOptions::bind`], driven by the supervising coordinator;
    /// bit-identical to [`Engine::Lockstep`] on a clean plan, on either
    /// carrier.
    Sockets(SocketOptions),
}

/// One distributed run: the engine, and the plan it runs under. The plan
/// carries the node-level faults and the link-level
/// [`CorruptionConfig`] (corruption, or drops with
/// [`CorruptionKind::Drop`]); [`FaultPlan::none`] is a clean run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// The execution engine.
    pub engine: Engine,
    /// Faults, corruption and drops injected into the run.
    pub plan: FaultPlan,
}

impl RunSpec {
    /// A clean run on `engine`.
    #[must_use]
    pub fn new(engine: Engine) -> Self {
        RunSpec {
            engine,
            plan: FaultPlan::none(),
        }
    }

    /// Runs under `plan` instead.
    #[must_use]
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Adds link-level corruption (or drops) to the plan.
    #[must_use]
    pub fn with_corruption(mut self, corruption: CorruptionConfig) -> Self {
        self.plan.corruption = Some(corruption);
        self
    }
}

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct DistRunReport {
    /// Exactly feasible operating point (same polish as the in-memory
    /// solver).
    pub point: OperatingPoint,
    /// UFC breakdown at the point.
    pub breakdown: UfcBreakdown,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the residual tests passed before the iteration cap.
    pub converged: bool,
    /// Message/byte accounting.
    pub stats: MessageStats,
    /// Estimated wall-clock of a real WAN deployment (see
    /// [`crate::stats::estimated_wan_seconds`]); under drops, corruption or
    /// a fault plan this includes the resend/recovery stalls.
    pub estimated_wan_seconds: f64,
    /// Resent dropped copies (0 unless the plan pins
    /// [`CorruptionKind::Drop`]).
    pub retransmissions: usize,
    /// Fault accounting — `Some` iff the plan scripts node-level faults
    /// ([`FaultPlan::is_trivial`] is false) or the run took checkpoints.
    pub fault: Option<FaultReport>,
    /// Payload-integrity accounting — `Some` when the run injected
    /// corruption or drops, or verified checksums.
    pub integrity: Option<IntegrityCounters>,
    /// Run telemetry (phase timings plus solver/traffic/fault counters),
    /// present iff [`AdmgSettings::telemetry`] was enabled. Strictly
    /// observational: the iterate stream is bit-identical whether or not
    /// this is collected.
    pub telemetry: Option<RunTelemetry>,
}

/// Facade: runs the distributed ADM-G protocol on an instance.
///
/// A runner keeps the worker processes of its last clean
/// [`Engine::Sockets`] run and hands them to its next socket run with
/// equal [`SocketOptions`] (see [`DistributedAdmg::execute`]), so a
/// sequence of hourly socket solves spawns, handshakes and reaps its
/// workers once, not once per hour. It reaps them when it is dropped.
/// That is why it is not `Copy`: a clone starts with no workers of its
/// own. It is `Send + Sync`; runs on one runner from several threads each
/// get a fleet, and only one of them is kept.
pub struct DistributedAdmg {
    settings: AdmgSettings,
    /// The process fleet of the last clean socket run, waiting for the
    /// next one.
    parked: Mutex<Option<ProcessFleet>>,
}

impl Clone for DistributedAdmg {
    /// A runner with the same settings and no parked fleet.
    fn clone(&self) -> Self {
        DistributedAdmg {
            settings: self.settings,
            parked: Mutex::new(None),
        }
    }
}

impl fmt::Debug for DistributedAdmg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DistributedAdmg")
            .field("settings", &self.settings)
            .finish_non_exhaustive()
    }
}

impl DistributedAdmg {
    /// Creates a runner with the given ADM-G hyper-parameters.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if the settings are invalid.
    pub fn try_new(settings: AdmgSettings) -> Result<Self, CoreError> {
        settings.check()?;
        Ok(DistributedAdmg {
            settings,
            parked: Mutex::new(None),
        })
    }

    /// Creates a runner, panicking on invalid settings (thin wrapper over
    /// [`DistributedAdmg::try_new`]).
    ///
    /// # Panics
    ///
    /// Panics if the settings are invalid.
    #[must_use]
    pub fn new(settings: AdmgSettings) -> Self {
        match Self::try_new(settings) {
            Ok(runner) => runner,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the protocol as `spec` says, to convergence (or the iteration
    /// cap), streaming per-iteration (and, if the observer asks for them,
    /// per-phase) events to `observer` — e.g. a
    /// `ufc_core::telemetry::JsonlSink` writing a trace; pass `&mut ()` to
    /// watch nothing. The observer never affects the iterate stream.
    ///
    /// The run policy, for every engine:
    ///
    /// * The plan is validated ([`FaultPlan::check`]), and wire-level
    ///   [`CorruptionKind`]s run only on [`Engine::Sockets`].
    /// * With [`AdmgSettings::divergence_rollback`] on, a plan that carries
    ///   corruption but no checkpoint cadence checkpoints every 4
    ///   iterations, so a tripped divergence gate finds a recent finite
    ///   state.
    /// * A plan with node-level faults ([`FaultPlan::is_trivial`] false)
    ///   first runs a clean, unobserved, telemetry-off in-process
    ///   [`AdmgSolver`] baseline, which every engine reproduces bit for bit
    ///   on a clean plan; [`FaultReport::ufc_delta_vs_clean`] is the UFC
    ///   difference to it, and `0.0` otherwise.
    /// * An [`Engine::Sockets`] run takes the runner's parked fleet of
    ///   worker processes when its [`SocketOptions`] equal the fleet's, it
    ///   resolves to the same process count, every parked process still
    ///   runs and the plan binds no wire-level chaos to the connections;
    ///   it loads its configuration into those workers instead of spawning
    ///   new ones. Otherwise it tears the parked fleet down and launches
    ///   its own. Its fleet is parked afterwards if the run returned `Ok`
    ///   with every process still running, no parked error and no wire-level
    ///   chaos — an eviction or a wire-chaos plan therefore ends with a
    ///   teardown — and the runner reaps a parked fleet when it is
    ///   dropped. Reuse changes no result: every report covers only its
    ///   own run, and a run on a parked fleet reports what the same run on
    ///   a fresh runner reports.
    ///
    /// A run whose every crash recovers, and a run whose corruption is
    /// caught by verified checksums or whose copies are only dropped,
    /// reproduces the clean iterates exactly.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfig`] for an inconsistent plan, a
    ///   wire-level corruption kind off the socket engine, or socket-engine
    ///   options the plan cannot run under (process-level faults and
    ///   wire-level chaos need one process per node).
    /// * [`CoreError::Unsupported`] for an infeasible `FuelCellOnly`
    ///   restriction.
    /// * [`CoreError::Model`] if the final point cannot be polished or
    ///   evaluated.
    /// * [`CoreError::NodeFailure`] for an unrecoverable failure (a
    ///   permanently dead front-end, the last active datacenter, a worker
    ///   that dies unplanned, or a worker process that cannot be spawned or
    ///   never completes the handshake), and when tearing down a fleet
    ///   finds its acceptor thread panicked.
    /// * [`CoreError::CorruptPayload`] when a verified link exhausts its
    ///   retransmit budget, and [`CoreError::Divergence`] when undetected
    ///   corruption poisons the iterate stream.
    pub fn execute(
        &self,
        instance: &UfcInstance,
        strategy: Strategy,
        spec: &RunSpec,
        observer: &mut dyn IterationObserver,
    ) -> Result<DistRunReport, CoreError> {
        let mut plan = spec.plan.clone();
        plan.check()?;
        let wire_level = plan
            .corruption
            .and_then(|c| c.kind)
            .is_some_and(CorruptionKind::is_wire_level);
        if wire_level && !matches!(spec.engine, Engine::Sockets(_)) {
            return Err(CoreError::invalid_config(
                "wire-level corruption kinds (frame truncate/duplicate/reorder) need real \
                 socket frames; run them on Engine::Sockets",
            ));
        }
        let (active_mu, active_nu) = strategy.block_activation(instance)?;
        if self.settings.divergence_rollback
            && plan.corruption.is_some()
            && plan.checkpoint_interval == 0
        {
            plan.checkpoint_interval = ROLLBACK_CHECKPOINT_INTERVAL;
        }
        // The clean baseline run is support machinery, not the run the
        // caller asked to watch: no observer, no telemetry.
        let clean_ufc = if plan.is_trivial() {
            None
        } else {
            let clean =
                AdmgSolver::new(self.settings.with_telemetry(false)).solve(instance, strategy)?;
            Some(clean.breakdown.ufc())
        };
        let settings = &self.settings;
        let mut report = match &spec.engine {
            Engine::Lockstep => {
                let mut fleet = InlineFleet::launch(instance, settings, active_mu, active_nu);
                run_supervised(
                    settings, instance, active_mu, active_nu, plan, &mut fleet, observer,
                )
            }
            Engine::Sockets(options) => {
                let nodes = instance.m_frontends() + instance.n_datacenters();
                let config = RunConfig {
                    instance: instance.clone(),
                    settings: *settings,
                    active_mu,
                    active_nu,
                    processes: ProcessFleet::processes_for(nodes, &plan, options)?,
                };
                let mut fleet = self.fleet_for(&config, &plan, options)?;
                let report = run_supervised(
                    settings, instance, active_mu, active_nu, plan, &mut fleet, observer,
                );
                if report.is_ok() && fleet.reusable() {
                    // The newest fleet is kept; one a concurrent run parked
                    // meanwhile is reaped here, outside the lock.
                    let _replaced = self
                        .parked
                        .lock()
                        .ok()
                        .and_then(|mut slot| slot.replace(fleet));
                }
                report
            }
        }?;
        let ufc = report.breakdown.ufc();
        if let Some(fault) = report.fault.as_mut() {
            fault.ufc_delta_vs_clean = clean_ufc.map_or(0.0, |clean| ufc - clean);
        }
        Ok(report)
    }

    /// The fleet a socket run of `config` under `plan` and `options` runs
    /// on: the parked one loaded with `config` if it fits
    /// ([`ProcessFleet::fits`]), else a fresh launch, after the unfit
    /// parked fleet (if any) is torn down. A run on the same runner in
    /// another thread meanwhile finds the slot empty and launches its own.
    ///
    /// # Errors
    ///
    /// [`CoreError::NodeFailure`] when the unfit fleet's teardown finds its
    /// acceptor thread panicked, or as for [`ProcessFleet::launch`].
    fn fleet_for(
        &self,
        config: &RunConfig,
        plan: &FaultPlan,
        options: &SocketOptions,
    ) -> Result<ProcessFleet, CoreError> {
        let parked = self.parked.lock().ok().and_then(|mut slot| slot.take());
        if let Some(mut fleet) = parked {
            if fleet.fits(options, config.processes, plan) {
                fleet.load(config);
                return Ok(fleet);
            }
            fleet.teardown()?;
        }
        ProcessFleet::launch(config, plan, options)
    }

    /// A clean run on the socket engine: `execute` with
    /// [`Engine::Sockets`] and [`FaultPlan::none`]. Kept for the benchmark
    /// package, which calls it.
    ///
    /// # Errors
    ///
    /// As for [`DistributedAdmg::execute`].
    pub fn run_sockets_observed(
        &self,
        instance: &UfcInstance,
        strategy: Strategy,
        options: &SocketOptions,
        observer: &mut dyn IterationObserver,
    ) -> Result<DistRunReport, CoreError> {
        let spec = RunSpec::new(Engine::Sockets(options.clone()));
        self.execute(instance, strategy, &spec, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufc_model::EmissionCostFn;

    fn tiny() -> UfcInstance {
        UfcInstance::new(
            vec![1.0, 2.0],
            vec![2.0, 2.0],
            vec![0.24, 0.24],
            vec![0.12, 0.12],
            vec![0.48, 0.48],
            vec![30.0, 70.0],
            80.0,
            vec![0.5, 0.3],
            vec![vec![0.01, 0.02], vec![0.02, 0.01]],
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
    fn lockstep_converges_and_counts_messages() {
        let inst = tiny();
        let report = DistributedAdmg::new(AdmgSettings::default())
            .execute(
                &inst,
                Strategy::Hybrid,
                &RunSpec::new(Engine::Lockstep),
                &mut (),
            )
            .unwrap();
        assert!(report.converged);
        // 2·M·N data messages per iteration.
        assert_eq!(report.stats.data_messages, 2 * 2 * 2 * report.iterations);
        // (M+N) reports + (M+N) controls per iteration.
        assert_eq!(report.stats.control_messages, 2 * 4 * report.iterations);
        assert!(report.estimated_wan_seconds > 0.0);
        assert!(report.point.feasibility_residual(&inst) < 1e-8);
        assert!(report.fault.is_none());
    }

    #[test]
    fn strategies_run_distributed() {
        let inst = tiny();
        let runner = DistributedAdmg::new(AdmgSettings::default());
        let grid = runner
            .execute(
                &inst,
                Strategy::GridOnly,
                &RunSpec::new(Engine::Lockstep),
                &mut (),
            )
            .unwrap();
        assert!(grid.point.mu.iter().all(|&v| v == 0.0));
        let fc = runner
            .execute(
                &inst,
                Strategy::FuelCellOnly,
                &RunSpec::new(Engine::Lockstep),
                &mut (),
            )
            .unwrap();
        assert!(fc.point.nu.iter().all(|&v| v.abs() < 1e-9));
    }

    #[test]
    fn fuel_cell_only_validation() {
        let mut inst = tiny();
        inst.mu_max = vec![0.0, 0.0];
        let err = DistributedAdmg::new(AdmgSettings::default())
            .execute(
                &inst,
                Strategy::FuelCellOnly,
                &RunSpec::new(Engine::Lockstep),
                &mut (),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::Unsupported { .. }));
    }

    #[test]
    fn try_new_rejects_bad_settings() {
        let settings = AdmgSettings {
            rho: -1.0,
            ..AdmgSettings::default()
        };
        assert!(matches!(
            DistributedAdmg::try_new(settings),
            Err(CoreError::InvalidConfig { .. })
        ));
    }
}
