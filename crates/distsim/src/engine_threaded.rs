//! The supervised threaded engine as a `Transport` for the unified ADM-G
//! driver (`ufc_core::engine::drive`).
//!
//! The supervising coordinator owns one OS thread per node (spawned via
//! `crate::supervision`) and awaits every reply with `recv_timeout`
//! deadlines and an exponential backoff ladder; a worker that stays silent
//! past the ladder (and whose thread has exited) is resolved through the
//! [`FaultTracker`] state machine — respawned from the last checkpoint and
//! replayed, evicted (datacenters only), or reported as a typed
//! [`CoreError::NodeFailure`]. Worker threads are joined on every exit
//! path, including errors.
//!
//! The lockstep engine (`crate::engine_lockstep`) mirrors the same decision
//! machine step for step — both run under the same driver and share the
//! coordinator helpers — so a faulty lockstep run and a faulty threaded run
//! with the same [`FaultPlan`] produce identical iterates, statistics, and
//! fault reports (asserted in `tests/fault_injection.rs`).

use std::collections::HashSet;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

use ufc_core::engine::{drive, BlockResiduals, IterationObserver, Transport};
use ufc_core::telemetry::{ObserverChain, TelemetryCollector, TrafficCounters};
use ufc_core::{AdmgSettings, BlockKind, BlockSchedule, CoreError};
use ufc_model::UfcInstance;

use crate::coordinator::{
    account_stragglers, column_of, finish, max_latency, record_a_traffic, record_control,
    record_lambda_traffic, reduce_residuals, row_of, HistoryEntry,
};
use crate::fault::{FaultPlan, FaultTracker, IntegrityState, NodeId, Resolution};
use crate::message::Message;
use crate::node::{DatacenterNode, FrontendNode, NodeResiduals};
use crate::runtime::DistRunReport;
use crate::snapshot::{CheckpointStore, DatacenterSnapshot, FrontendSnapshot};
use crate::stats::{estimated_wan_seconds_live, MessageStats};
use crate::supervision::{
    gather_phase, spawn_datacenter_worker, spawn_frontend_worker, DcCmd, FaultScript, FeCmd, Reply,
};

mod recovery;

/// Runs the supervised threaded engine under a fault plan. A trivial plan
/// (no scripted faults, checkpointing off — [`FaultPlan::none`]) reduces to
/// the plain threaded runtime: no extra traffic, byte-identical iterates,
/// and `fault: None` in the report.
pub(crate) fn run_supervised(
    settings: &AdmgSettings,
    instance: &UfcInstance,
    active_mu: bool,
    active_nu: bool,
    plan: FaultPlan,
    observer: &mut dyn IterationObserver,
) -> Result<DistRunReport, CoreError> {
    let tolerances = settings.scaled_tolerances(instance);
    let mut sup = Supervisor::new(instance, *settings, active_mu, active_nu, plan);
    let mut collector = settings.telemetry.then(TelemetryCollector::default);
    let outcome = match collector.as_mut() {
        Some(c) => {
            let mut chain = ObserverChain(&mut *c, observer);
            drive(&mut sup, settings, tolerances, &mut chain)
        }
        None => drive(&mut sup, settings, tolerances, observer),
    }
    .and_then(|outcome| {
        sup.final_gather(outcome.iterations)
            .map(|(lambda_rows, mu, d)| (outcome, lambda_rows, mu, d))
    });
    // Extract everything the report needs before the supervisor is consumed
    // by shutdown; the error path still joins every worker thread.
    let stats = sup.stats;
    let fault_report = sup.tracker.report.clone();
    let plan_trivial = sup.tracker.plan().is_trivial();
    let evicted = sup.tracker.evicted_mask();
    let stall_phases = sup.stall_phases;
    let integrity = sup.integrity.active().then_some(sup.integrity.counters);
    let shutdown = sup.shutdown();
    let (outcome, lambda_rows, mu, d) = outcome?;
    shutdown?;

    let (point, breakdown) = finish(instance, lambda_rows, mu, d, !active_nu)?;
    let estimated = estimated_wan_seconds_live(outcome.iterations, &instance.latency_s, &evicted)
        + fault_report.downtime_seconds
        + fault_report.straggler_seconds
        + stall_phases * max_latency(instance, &evicted);
    let report_fault = !plan_trivial || fault_report.checkpoints_taken > 0;
    let telemetry = collector.map(|c| {
        let mut t = c.into_telemetry();
        // Solver counters stay zero here: the per-node kernels live inside
        // the worker threads and are dropped with them at shutdown, so the
        // supervisor has nothing to read. Use the lockstep engine (which is
        // bit-identical) to observe the solver layer.
        t.traffic = Some(TrafficCounters {
            data_messages: stats.data_messages as u64,
            control_messages: stats.control_messages as u64,
            total_bytes: stats.total_bytes as u64,
            retransmissions: 0,
            ..TrafficCounters::default()
        });
        if report_fault {
            t.fault = Some(fault_report.counters());
        }
        t.integrity = integrity;
        t
    });
    Ok(DistRunReport {
        point,
        breakdown,
        iterations: outcome.iterations,
        converged: outcome.converged,
        stats,
        estimated_wan_seconds: estimated,
        retransmissions: 0,
        fault: report_fault.then_some(fault_report),
        integrity,
        telemetry,
    })
}

/// The supervising coordinator of the threaded runtime.
struct Supervisor<'a> {
    instance: &'a UfcInstance,
    settings: AdmgSettings,
    active_mu: bool,
    active_nu: bool,
    m: usize,
    n: usize,
    tracker: FaultTracker,
    store: CheckpointStore,
    history: Vec<HistoryEntry>,
    reply_tx: Sender<Reply>,
    reply_rx: Receiver<Reply>,
    fe_tx: Vec<Option<Sender<FeCmd>>>,
    dc_tx: Vec<Option<Sender<DcCmd>>>,
    fe_handles: Vec<Option<JoinHandle<()>>>,
    dc_handles: Vec<Option<JoinHandle<()>>>,
    stats: MessageStats,
    integrity: IntegrityState,
    /// First node whose residual report was non-finite this iteration —
    /// the divergence gate's suspect.
    suspect: Option<NodeId>,
    timeout: Duration,
    rounds: u32,
    checkpoint_interval: usize,
    /// Fault-induced full-phase stalls (partition windows), in phases.
    stall_phases: f64,
    // Per-iteration scratch, produced by one phase and consumed by the next.
    rows: Vec<Vec<f64>>,
    a_cols: Vec<Vec<f64>>,
    dc_residuals: Vec<Option<NodeResiduals>>,
    readmitted_now: Vec<usize>,
    membership_changed: bool,
    node_count: usize,
}

impl<'a> Supervisor<'a> {
    fn new(
        instance: &'a UfcInstance,
        settings: AdmgSettings,
        active_mu: bool,
        active_nu: bool,
        plan: FaultPlan,
    ) -> Self {
        let m = instance.m_frontends();
        let n = instance.n_datacenters();
        let (reply_tx, reply_rx) = channel::<Reply>();
        let timeout = plan.phase_timeout;
        let rounds = plan.backoff_rounds;
        let checkpoint_interval = plan.checkpoint_interval;
        let integrity = IntegrityState::new(plan.corruption.as_ref(), settings.verify_checksums);
        let mut sup = Supervisor {
            instance,
            settings,
            active_mu,
            active_nu,
            m,
            n,
            tracker: FaultTracker::new(plan, m, n),
            store: CheckpointStore::new(m, n),
            history: Vec::new(),
            reply_tx,
            reply_rx,
            fe_tx: (0..m).map(|_| None).collect(),
            dc_tx: (0..n).map(|_| None).collect(),
            fe_handles: (0..m).map(|_| None).collect(),
            dc_handles: (0..n).map(|_| None).collect(),
            stats: MessageStats::default(),
            integrity,
            suspect: None,
            timeout,
            rounds,
            checkpoint_interval,
            stall_phases: 0.0,
            rows: Vec::new(),
            a_cols: Vec::new(),
            dc_residuals: Vec::new(),
            readmitted_now: Vec::new(),
            membership_changed: false,
            node_count: m + n,
        };
        for i in 0..m {
            let node = FrontendNode::new(instance, i, &sup.settings);
            sup.spawn_frontend(i, node, 0);
        }
        for j in 0..n {
            let node = DatacenterNode::new(instance, j, &sup.settings, active_mu, active_nu);
            sup.spawn_datacenter(j, node, 0);
        }
        sup
    }

    fn spawn_frontend(&mut self, i: usize, node: FrontendNode, after: usize) {
        if let Some(old) = self.fe_handles[i].take() {
            let _ = old.join();
        }
        let script = FaultScript::for_node(self.tracker.plan(), NodeId::Frontend(i), after);
        let (tx, handle) = spawn_frontend_worker(i, node, script, self.reply_tx.clone());
        self.fe_tx[i] = Some(tx);
        self.fe_handles[i] = Some(handle);
    }

    fn spawn_datacenter(&mut self, j: usize, node: DatacenterNode, after: usize) {
        if let Some(old) = self.dc_handles[j].take() {
            let _ = old.join();
        }
        let script = FaultScript::for_node(self.tracker.plan(), NodeId::Datacenter(j), after);
        let (tx, handle) = spawn_datacenter_worker(j, node, script, self.reply_tx.clone());
        self.dc_tx[j] = Some(tx);
        self.dc_handles[j] = Some(handle);
    }

    fn send_fe(&self, i: usize, cmd: FeCmd) {
        if let Some(tx) = &self.fe_tx[i] {
            let _ = tx.send(cmd);
        }
    }

    fn send_dc(&self, j: usize, cmd: DcCmd) {
        if let Some(tx) = &self.dc_tx[j] {
            let _ = tx.send(cmd);
        }
    }

    fn alive(&self, node: NodeId) -> bool {
        match node {
            NodeId::Frontend(i) => self.fe_handles[i]
                .as_ref()
                .is_some_and(|h| !h.is_finished()),
            NodeId::Datacenter(j) => self.dc_handles[j]
                .as_ref()
                .is_some_and(|h| !h.is_finished()),
        }
    }

    /// Closes every command channel (ending the worker loops) and joins
    /// all threads. Called on every exit path, success or error.
    fn shutdown(mut self) -> Result<(), CoreError> {
        self.fe_tx.clear();
        self.dc_tx.clear();
        let mut first_panic = None;
        for slot in self.fe_handles.iter_mut().chain(self.dc_handles.iter_mut()) {
            if let Some(handle) = slot.take() {
                if handle.join().is_err() && first_panic.is_none() {
                    first_panic = Some(CoreError::node_failure(
                        "worker",
                        0,
                        "node thread panicked during shutdown",
                    ));
                }
            }
        }
        first_panic.map_or(Ok(()), Err)
    }
}

impl Transport for Supervisor<'_> {
    fn schedule(&self) -> BlockSchedule {
        BlockSchedule::for_instance(self.instance)
    }

    fn begin_iteration(&mut self, k: usize) -> Result<(), CoreError> {
        self.membership_changed = false;
        let readmitted_now = self.tracker.probe_readmissions();
        for &j in &readmitted_now {
            let node = DatacenterNode::new(
                self.instance,
                j,
                &self.settings,
                self.active_mu,
                self.active_nu,
            );
            self.store
                .put_datacenter(j, k - 1, node.snapshot().to_bytes());
            self.spawn_datacenter(j, node, k - 1);
            for i in 0..self.m {
                self.send_fe(
                    i,
                    FeCmd::Membership {
                        datacenter: j,
                        evict: false,
                    },
                );
                self.stats.record(&Message::Membership {
                    datacenter: j,
                    evict: false,
                });
            }
            self.membership_changed = true;
        }
        self.readmitted_now = readmitted_now;
        account_stragglers(&mut self.tracker, self.m, self.n, k);
        if self.tracker.plan().partition_active(k) {
            self.stall_phases += 2.0;
        }
        Ok(())
    }

    fn predict_lambda(&mut self, k: usize) -> Result<(), CoreError> {
        let m = self.m;
        for i in 0..m {
            self.send_fe(i, FeCmd::Predict { iteration: k });
        }
        let mut rows: Vec<Option<Vec<f64>>> = vec![None; m];
        let mut errors: Vec<Option<CoreError>> = vec![None; m];
        let mut pending: HashSet<NodeId> = (0..m).map(NodeId::Frontend).collect();
        // One broad gather loop: dead nodes surface per-ladder while live
        // stragglers stay pending, and a respawned node rejoins the same
        // pending set so no reply is ever consumed by a narrower filter.
        let mut respawned: HashSet<NodeId> = HashSet::new();
        loop {
            let missing = gather_phase(
                &self.reply_rx,
                &mut pending,
                self.timeout,
                self.rounds,
                |node| self.alive(node),
                |reply| match reply {
                    Reply::Lambda { i, iteration, row } if iteration == k => {
                        rows[i] = Some(row);
                        Some(NodeId::Frontend(i))
                    }
                    Reply::NodeError {
                        node: node @ NodeId::Frontend(i),
                        iteration,
                        error,
                    } if iteration == k => {
                        errors[i] = Some(error);
                        Some(node)
                    }
                    _ => None,
                },
            );
            if missing.is_empty() && pending.is_empty() {
                break;
            }
            for node in missing {
                let NodeId::Frontend(i) = node else {
                    unreachable!("predict phase only waits on front-ends")
                };
                if errors[i].is_some() {
                    // The worker already reported a typed rejection and
                    // stopped; do not respawn into the same poison.
                    continue;
                }
                if !respawned.insert(node) {
                    return Err(CoreError::node_failure(
                        node.to_string(),
                        k,
                        "no reply after checkpoint respawn",
                    ));
                }
                match self.tracker.resolve_crash(node, k)? {
                    Resolution::Recovered { .. } => {
                        self.respawn_frontend(i, k)?;
                        self.send_fe(i, FeCmd::Predict { iteration: k });
                        pending.insert(node);
                    }
                    Resolution::Evicted { .. } => {
                        unreachable!("front-ends are never evicted")
                    }
                }
            }
        }
        if let Some(error) = errors.into_iter().flatten().next() {
            return Err(error);
        }
        let mut rows: Vec<Vec<f64>> = rows
            .into_iter()
            .enumerate()
            .map(|(i, row)| {
                row.ok_or_else(|| {
                    CoreError::node_failure(
                        NodeId::Frontend(i).to_string(),
                        k,
                        "prediction missing after gather",
                    )
                })
            })
            .collect::<Result<_, _>>()?;
        let phase_max = record_lambda_traffic(
            &mut self.stats,
            &mut self.tracker,
            None,
            &mut self.integrity,
            &mut rows,
            k,
        )?;
        self.stall_phases += (phase_max - 1) as f64;
        self.rows = rows;
        Ok(())
    }

    fn step_datacenters(&mut self, k: usize) -> Result<(), CoreError> {
        let (m, n) = (self.m, self.n);
        for j in 0..n {
            if self.tracker.is_evicted(j) {
                continue;
            }
            self.send_dc(
                j,
                DcCmd::Process {
                    iteration: k,
                    column: column_of(&self.rows, j),
                },
            );
        }
        let mut a_cols = vec![vec![0.0; m]; n];
        let mut d_vals = vec![0.0; n];
        let mut dc_residuals: Vec<Option<NodeResiduals>> = vec![None; n];
        let mut errors: Vec<Option<CoreError>> = vec![None; n];
        let mut pending: HashSet<NodeId> = (0..n)
            .filter(|&j| !self.tracker.is_evicted(j))
            .map(NodeId::Datacenter)
            .collect();
        // Same broad gather loop as `predict_lambda`: per-ladder dead-node
        // verdicts, stragglers keep pending, respawns rejoin the same set.
        let mut respawned: HashSet<NodeId> = HashSet::new();
        loop {
            let missing = gather_phase(
                &self.reply_rx,
                &mut pending,
                self.timeout,
                self.rounds,
                |node| self.alive(node),
                |reply| match reply {
                    Reply::DcStep {
                        j,
                        iteration,
                        a_tilde,
                        d,
                        residuals,
                    } if iteration == k => {
                        a_cols[j] = a_tilde;
                        d_vals[j] = d;
                        dc_residuals[j] = Some(residuals);
                        Some(NodeId::Datacenter(j))
                    }
                    Reply::NodeError {
                        node: node @ NodeId::Datacenter(j),
                        iteration,
                        error,
                    } if iteration == k => {
                        errors[j] = Some(error);
                        Some(node)
                    }
                    _ => None,
                },
            );
            if missing.is_empty() && pending.is_empty() {
                break;
            }
            for node in missing {
                let NodeId::Datacenter(j) = node else {
                    unreachable!("datacenter phase only waits on datacenters")
                };
                if errors[j].is_some() {
                    continue;
                }
                if !respawned.insert(node) {
                    return Err(CoreError::node_failure(
                        node.to_string(),
                        k,
                        "no reply after checkpoint respawn",
                    ));
                }
                match self.tracker.resolve_crash(node, k)? {
                    Resolution::Recovered { .. } => {
                        self.respawn_datacenter(j, k)?;
                        self.send_dc(
                            j,
                            DcCmd::Process {
                                iteration: k,
                                column: column_of(&self.rows, j),
                            },
                        );
                        pending.insert(node);
                    }
                    Resolution::Evicted { .. } => {
                        self.evict_datacenter(j);
                        self.membership_changed = true;
                    }
                }
            }
        }
        if let Some(error) = errors.into_iter().flatten().next() {
            return Err(error);
        }
        let mut phase_max = 1usize;
        for j in 0..n {
            if dc_residuals[j].is_some() {
                // a_cols[j] was moved into place by the accept closure; the
                // integrity layer may overwrite corrupted entries in place.
                phase_max = phase_max.max(record_a_traffic(
                    &mut self.stats,
                    &mut self.tracker,
                    None,
                    &mut self.integrity,
                    &mut a_cols[j],
                    j,
                    k,
                )?);
                // Storage-active datacenters report their corrected block
                // value on the control plane (same accounting as lockstep).
                if self
                    .instance
                    .storage
                    .as_ref()
                    .is_some_and(|sp| sp.active(j))
                {
                    self.stats.record(&Message::BlockReport {
                        datacenter: j,
                        block: BlockKind::Storage.wire_id(),
                        value: d_vals[j],
                    });
                }
            }
        }
        self.stall_phases += (phase_max - 1) as f64;
        self.a_cols = a_cols;
        self.dc_residuals = dc_residuals;
        Ok(())
    }

    fn correct(&mut self, k: usize) -> Result<BlockResiduals, CoreError> {
        let m = self.m;
        for i in 0..m {
            self.send_fe(
                i,
                FeCmd::Correct {
                    iteration: k,
                    a_row: row_of(&self.a_cols, i),
                },
            );
        }
        let mut fe_residuals: Vec<Option<NodeResiduals>> = vec![None; m];
        let mut pending: HashSet<NodeId> = (0..m).map(NodeId::Frontend).collect();
        let missing = gather_phase(
            &self.reply_rx,
            &mut pending,
            self.timeout,
            self.rounds,
            |node| self.alive(node),
            |reply| match reply {
                Reply::FeResidual {
                    i,
                    iteration,
                    residuals,
                } if iteration == k => {
                    fe_residuals[i] = Some(residuals);
                    Some(NodeId::Frontend(i))
                }
                _ => None,
            },
        );
        if let Some(node) = missing.first() {
            return Err(CoreError::node_failure(
                node.to_string(),
                k,
                "no reply in correction phase",
            ));
        }
        let fe_residuals: Vec<NodeResiduals> = fe_residuals
            .into_iter()
            .map(|r| r.unwrap_or_default())
            .collect();
        self.node_count = m + self.dc_residuals.iter().flatten().count();
        let (reduced, suspect) =
            reduce_residuals(&mut self.stats, &fe_residuals, &self.dc_residuals);
        self.suspect = suspect;
        Ok(reduced)
    }

    fn rollback(&mut self, k: usize) -> Result<Option<usize>, CoreError> {
        self.integrity.counters.divergence_trips += 1;
        // Every live node needs a finite checkpoint before any worker is
        // respawned — a partial restore would leave the deployment
        // inconsistent, so decline instead.
        let mut base = usize::MAX;
        let mut fe_snaps = Vec::with_capacity(self.m);
        for i in 0..self.m {
            let Some((it, blob)) = self.store.frontend(i) else {
                return Ok(None);
            };
            let snap = FrontendSnapshot::from_bytes(blob)?;
            if !snap.is_finite() {
                return Ok(None);
            }
            base = base.min(it);
            fe_snaps.push(snap);
        }
        let mut dc_snaps: Vec<Option<DatacenterSnapshot>> = Vec::with_capacity(self.n);
        for j in 0..self.n {
            if self.tracker.is_evicted(j) {
                dc_snaps.push(None);
                continue;
            }
            let Some((it, blob)) = self.store.datacenter(j) else {
                return Ok(None);
            };
            let snap = DatacenterSnapshot::from_bytes(blob)?;
            if !snap.is_finite() {
                return Ok(None);
            }
            base = base.min(it);
            dc_snaps.push(Some(snap));
        }
        let evicted = self.tracker.evicted_mask();
        for (i, snap) in fe_snaps.iter().enumerate() {
            let mut node = FrontendNode::new(self.instance, i, &self.settings);
            node.restore(snap)?;
            // The live membership view stays authoritative over whatever
            // the snapshot recorded.
            for (j, &gone) in evicted.iter().enumerate() {
                if gone {
                    node.set_evicted(j);
                } else {
                    node.clear_evicted(j);
                }
            }
            // The old worker is alive and blocked on its command channel:
            // close it first so the respawn's join cannot deadlock.
            self.fe_tx[i] = None;
            self.spawn_frontend(i, node, k);
        }
        for (j, snap) in dc_snaps.into_iter().enumerate() {
            let Some(snap) = snap else { continue };
            let mut node = DatacenterNode::new(
                self.instance,
                j,
                &self.settings,
                self.active_mu,
                self.active_nu,
            );
            node.restore(&snap)?;
            self.dc_tx[j] = None;
            self.spawn_datacenter(j, node, k);
        }
        // Buffered inputs may hold the very payloads that poisoned the run;
        // never replay them into the restored state.
        self.history.clear();
        self.integrity.counters.rollbacks += 1;
        Ok(Some(base))
    }

    fn divergence_suspect(&self) -> Option<String> {
        self.suspect
            .map(|node| node.to_string())
            .or_else(|| self.integrity.last_corrupted.clone())
    }

    fn finish_iteration(&mut self, k: usize, stop: bool) -> Result<(), CoreError> {
        record_control(&mut self.stats, stop, self.node_count);
        self.history.push(HistoryEntry {
            iteration: k,
            rows: std::mem::take(&mut self.rows),
            a_cols: std::mem::take(&mut self.a_cols),
        });
        if !stop
            && (self.membership_changed
                || (self.checkpoint_interval > 0 && k.is_multiple_of(self.checkpoint_interval)))
        {
            self.checkpoint_round(k)?;
        }
        Ok(())
    }
}
