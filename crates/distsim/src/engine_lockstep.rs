//! The deterministic lockstep engine as a `Transport` for the unified
//! ADM-G driver (`ufc_core::engine::drive`).
//!
//! One transport covers every lockstep run: a clean run is literally the
//! [`FaultPlan::none`] degenerate case of the fault-aware engine — with a
//! trivial plan the readmission probes return nothing, no crash ever
//! resolves, no link is partitioned, and the replay history stays
//! unbuffered, so the code path reduces to the plain synchronous rounds.
//! Per-node compute fans out over the shared [`WorkerPool`] (indexed-slot
//! gather ⇒ bit-identical at any thread count); message recording stays
//! sequential so traffic accounting is deterministic.

use ufc_core::engine::{drive, BlockResiduals, DriveOutcome, IterationObserver, Transport};
use ufc_core::telemetry::{ObserverChain, TelemetryCollector};
use ufc_core::{AdmgSettings, BlockKind, BlockSchedule, CoreError, WorkerPool};
use ufc_model::UfcInstance;

use crate::coordinator::{
    account_stragglers, column_of, record_a_traffic, record_control, record_lambda_traffic,
    reduce_residuals, replay_entries, row_of, HistoryEntry, Tally,
};
use crate::fault::{FaultPlan, FaultTracker, IntegrityState, NodeId, Resolution};
use crate::message::Message;
use crate::node::{DatacenterNode, FrontendNode, NodeResiduals};
use crate::runtime::DistRunReport;
use crate::snapshot::{CheckpointStore, DatacenterSnapshot, FrontendSnapshot};
use crate::stats::MessageStats;

/// Runs the lockstep engine under a fault plan.
pub(crate) fn run_lockstep(
    settings: &AdmgSettings,
    instance: &UfcInstance,
    active_mu: bool,
    active_nu: bool,
    plan: FaultPlan,
    observer: &mut dyn IterationObserver,
) -> Result<DistRunReport, CoreError> {
    let tolerances = settings.scaled_tolerances(instance);
    let mut transport = LockstepTransport::new(instance, settings, active_mu, active_nu, plan);
    let mut collector = settings.telemetry.then(TelemetryCollector::default);
    let outcome = match collector.as_mut() {
        Some(c) => {
            let mut chain = ObserverChain(&mut *c, observer);
            drive(&mut transport, settings, tolerances, &mut chain)?
        }
        None => drive(&mut transport, settings, tolerances, observer)?,
    };
    transport.into_report(outcome, collector)
}

/// The lockstep engine's state between driver callbacks.
struct LockstepTransport<'a> {
    instance: &'a UfcInstance,
    settings: AdmgSettings,
    active_mu: bool,
    active_nu: bool,
    frontends: Vec<FrontendNode>,
    /// `None` marks an evicted datacenter.
    datacenters: Vec<Option<DatacenterNode>>,
    pool: WorkerPool,
    tracker: FaultTracker,
    store: CheckpointStore,
    history: Vec<HistoryEntry>,
    /// Whether replay history is worth buffering (non-trivial plan or
    /// checkpointing on) — a clean run skips the copies entirely.
    buffer_history: bool,
    checkpoint_interval: usize,
    integrity: IntegrityState,
    /// First node whose residual report was non-finite this iteration —
    /// the divergence gate's suspect.
    suspect: Option<NodeId>,
    stats: MessageStats,
    /// Whole-phase stalls, in phases: partition windows, and the resends
    /// each data phase waits out for its slowest message.
    stall_phases: f64,
    // Per-iteration scratch, produced by one phase and consumed by the next.
    rows: Vec<Vec<f64>>,
    a_cols: Vec<Vec<f64>>,
    dc_residuals: Vec<Option<NodeResiduals>>,
    readmitted_now: Vec<usize>,
    membership_changed: bool,
    node_count: usize,
}

impl<'a> LockstepTransport<'a> {
    fn new(
        instance: &'a UfcInstance,
        settings: &AdmgSettings,
        active_mu: bool,
        active_nu: bool,
        plan: FaultPlan,
    ) -> Self {
        let m = instance.m_frontends();
        let n = instance.n_datacenters();
        let frontends = (0..m)
            .map(|i| FrontendNode::new(instance, i, settings))
            .collect();
        let datacenters = (0..n)
            .map(|j| {
                Some(DatacenterNode::new(
                    instance, j, settings, active_mu, active_nu,
                ))
            })
            .collect();
        let checkpoint_interval = plan.checkpoint_interval;
        let buffer_history = !plan.is_trivial() || checkpoint_interval > 0;
        let integrity = IntegrityState::new(plan.corruption.as_ref(), settings.verify_checksums);
        LockstepTransport {
            instance,
            settings: *settings,
            active_mu,
            active_nu,
            frontends,
            datacenters,
            pool: WorkerPool::new(settings.num_threads),
            tracker: FaultTracker::new(plan, m, n),
            store: CheckpointStore::new(m, n),
            history: Vec::new(),
            buffer_history,
            checkpoint_interval,
            integrity,
            suspect: None,
            stats: MessageStats::default(),
            stall_phases: 0.0,
            rows: Vec::new(),
            a_cols: Vec::new(),
            dc_residuals: Vec::new(),
            readmitted_now: Vec::new(),
            membership_changed: false,
            node_count: m + n,
        }
    }

    /// One checkpoint round: every live node's iterate slice is serialized,
    /// accounted as coordinator traffic, stored, and the replay buffer
    /// cleared.
    fn checkpoint(&mut self, k: usize) {
        let m = self.frontends.len();
        for (i, fe) in self.frontends.iter().enumerate() {
            let blob = fe.snapshot().to_bytes();
            self.stats.record(&Message::Checkpoint {
                node: i,
                payload_bytes: blob.len(),
            });
            self.store.put_frontend(i, k, blob);
        }
        for (j, dc) in self.datacenters.iter().enumerate() {
            if let Some(dc) = dc {
                let blob = dc.snapshot().to_bytes();
                self.stats.record(&Message::Checkpoint {
                    node: m + j,
                    payload_bytes: blob.len(),
                });
                self.store.put_datacenter(j, k, blob);
            }
        }
        self.tracker.report.checkpoints_taken += 1;
        self.history.clear();
    }

    /// Gathers the final iterate, polishes it, and assembles the report.
    fn into_report(
        self,
        outcome: DriveOutcome,
        collector: Option<TelemetryCollector>,
    ) -> Result<DistRunReport, CoreError> {
        let lambda_rows = self.frontends.iter().map(|f| f.lambda().to_vec()).collect();
        let mu = self
            .datacenters
            .iter()
            .map(|dc| dc.as_ref().map_or(0.0, DatacenterNode::mu))
            .collect();
        let d = self
            .datacenters
            .iter()
            .map(|dc| dc.as_ref().map_or(0.0, DatacenterNode::d))
            .collect();
        let telemetry = collector.map(|c| {
            let mut t = c.into_telemetry();
            // The lockstep engine keeps every node in-process, so the
            // per-node kernel counters are still readable here (evicted
            // datacenters are gone — their counters go with them; the λ
            // kernels count nothing).
            for dc in self.datacenters.iter().flatten() {
                dc.add_counters(&mut t.solver);
            }
            t.solver.pool_tasks = self.pool.tasks_dispatched();
            t.solver.pool_maps = self.pool.maps_run();
            t
        });
        Tally::new(
            self.stats,
            &self.tracker,
            &self.integrity,
            self.stall_phases,
        )
        .into_report(
            self.instance,
            outcome,
            (lambda_rows, mu, d),
            !self.active_nu,
            telemetry,
        )
    }
}

impl Transport for LockstepTransport<'_> {
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
            self.datacenters[j] = Some(node);
            for fe in &mut self.frontends {
                fe.clear_evicted(j);
                self.stats.record(&Message::Membership {
                    datacenter: j,
                    evict: false,
                });
            }
            self.membership_changed = true;
        }
        self.readmitted_now = readmitted_now;
        account_stragglers(
            &mut self.tracker,
            self.frontends.len(),
            self.datacenters.len(),
            k,
        );
        if self.tracker.plan().partition_active(k) {
            self.stall_phases += 2.0;
        }
        Ok(())
    }

    fn predict_lambda(&mut self, k: usize) -> Result<(), CoreError> {
        // Resolve scripted front-end crashes before the parallel fan-out.
        // Resolution touches only the crashed node and the tracker, both in
        // ascending node order, so hoisting it out of the per-node loop is
        // decision-for-decision identical to the sequential engine.
        for i in 0..self.frontends.len() {
            let node_id = NodeId::Frontend(i);
            if self.tracker.plan().crash_at_iteration(node_id, k).is_none() {
                continue;
            }
            match self.tracker.resolve_crash(node_id, k)? {
                Resolution::Recovered { .. } => {
                    let mut node = FrontendNode::new(self.instance, i, &self.settings);
                    let mut base = 0usize;
                    if let Some((it, blob)) = self.store.frontend(i) {
                        node.restore(&FrontendSnapshot::from_bytes(blob)?)?;
                        base = it;
                    }
                    let mut replayed = 0usize;
                    for entry in replay_entries(&self.history, base, k) {
                        node.predict_lambda();
                        node.receive_a_and_correct(&row_of(&entry.a_cols, i));
                        replayed += 1;
                    }
                    self.tracker.report.recomputed_iterations += replayed;
                    for &j in &self.readmitted_now {
                        node.clear_evicted(j);
                    }
                    self.frontends[i] = node;
                }
                Resolution::Evicted { .. } => {
                    unreachable!("front-ends are never evicted")
                }
            }
        }
        let mut rows = self
            .pool
            .map_mut(&mut self.frontends, |_, fe| fe.predict_lambda());
        let phase_max = record_lambda_traffic(
            &mut self.stats,
            &mut self.tracker,
            &mut self.integrity,
            &mut rows,
            k,
        )?;
        self.stall_phases += (phase_max - 1) as f64;
        self.rows = rows;
        Ok(())
    }

    fn step_datacenters(&mut self, k: usize) -> Result<(), CoreError> {
        let m = self.frontends.len();
        let n = self.datacenters.len();
        // Resolve scripted datacenter crashes and evictions in index order.
        for j in 0..n {
            if self.tracker.is_evicted(j) {
                continue;
            }
            let node_id = NodeId::Datacenter(j);
            if self.tracker.plan().crash_at_iteration(node_id, k).is_none() {
                continue;
            }
            match self.tracker.resolve_crash(node_id, k)? {
                Resolution::Recovered { .. } => {
                    let mut node = DatacenterNode::new(
                        self.instance,
                        j,
                        &self.settings,
                        self.active_mu,
                        self.active_nu,
                    );
                    let mut base = 0usize;
                    if let Some((it, blob)) = self.store.datacenter(j) {
                        node.restore(&DatacenterSnapshot::from_bytes(blob)?)?;
                        base = it;
                    }
                    let mut replayed = 0usize;
                    for entry in replay_entries(&self.history, base, k) {
                        node.process(&column_of(&entry.rows, j))?;
                        replayed += 1;
                    }
                    self.tracker.report.recomputed_iterations += replayed;
                    self.datacenters[j] = Some(node);
                }
                Resolution::Evicted { .. } => {
                    self.datacenters[j] = None;
                    for fe in &mut self.frontends {
                        fe.set_evicted(j);
                        self.stats.record(&Message::Membership {
                            datacenter: j,
                            evict: true,
                        });
                    }
                    self.membership_changed = true;
                }
            }
        }
        // Parallel fan-out over the live datacenters; gather in index order.
        let rows = std::mem::take(&mut self.rows);
        let steps = self.pool.map_mut(&mut self.datacenters, |j, dc| {
            dc.as_mut().map(|node| {
                let column: Vec<f64> = (0..m).map(|i| rows[i][j]).collect();
                node.process(&column)
            })
        });
        self.rows = rows;
        self.a_cols = vec![vec![0.0; m]; n];
        self.dc_residuals = vec![None; n];
        let mut phase_max = 1usize;
        for (j, step) in steps.into_iter().enumerate() {
            // `transpose` surfaces a poisoned iterate as the lowest-indexed
            // datacenter's typed error (index-order gather).
            let Some(mut step) = step.transpose()? else {
                continue;
            };
            phase_max = phase_max.max(record_a_traffic(
                &mut self.stats,
                &mut self.tracker,
                &mut self.integrity,
                &mut step.a_tilde,
                j,
                k,
            )?);
            self.a_cols[j] = step.a_tilde;
            self.dc_residuals[j] = Some(step.residuals);
            // Storage-active datacenters report their corrected block value
            // to the coordinator: control-plane traffic (like residual
            // reports), so it rides outside the droppable/corruptible data path
            // and the classic schedule's accounting is untouched.
            if self
                .instance
                .storage
                .as_ref()
                .is_some_and(|sp| sp.active(j))
            {
                self.stats.record(&Message::BlockReport {
                    datacenter: j,
                    block: BlockKind::Storage.wire_id(),
                    value: step.d,
                });
            }
        }
        self.stall_phases += (phase_max - 1) as f64;
        Ok(())
    }

    fn correct(&mut self, _k: usize) -> Result<BlockResiduals, CoreError> {
        let n = self.datacenters.len();
        let a_cols = std::mem::take(&mut self.a_cols);
        let fe_residuals = self.pool.map_mut(&mut self.frontends, |i, fe| {
            let a_row: Vec<f64> = (0..n).map(|j| a_cols[j][i]).collect();
            fe.receive_a_and_correct(&a_row)
        });
        self.a_cols = a_cols;
        self.node_count = self.frontends.len() + self.dc_residuals.iter().flatten().count();
        let (reduced, suspect) =
            reduce_residuals(&mut self.stats, &fe_residuals, &self.dc_residuals);
        self.suspect = suspect;
        Ok(reduced)
    }

    fn rollback(&mut self, _k: usize) -> Result<Option<usize>, CoreError> {
        self.integrity.counters.divergence_trips += 1;
        // Every live node needs a finite checkpoint before anything is
        // touched — a partial restore would leave the deployment
        // inconsistent, so decline instead.
        let mut base = usize::MAX;
        let mut fe_snaps = Vec::with_capacity(self.frontends.len());
        for i in 0..self.frontends.len() {
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
        let mut dc_snaps: Vec<Option<DatacenterSnapshot>> =
            Vec::with_capacity(self.datacenters.len());
        for (j, dc) in self.datacenters.iter().enumerate() {
            if dc.is_none() {
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
        for (fe, snap) in self.frontends.iter_mut().zip(&fe_snaps) {
            fe.restore(snap)?;
            // The live membership view stays authoritative over whatever
            // the snapshot recorded.
            for (j, &gone) in evicted.iter().enumerate() {
                if gone {
                    fe.set_evicted(j);
                } else {
                    fe.clear_evicted(j);
                }
            }
        }
        for (dc, snap) in self.datacenters.iter_mut().zip(dc_snaps) {
            if let (Some(node), Some(snap)) = (dc.as_mut(), snap) {
                node.restore(&snap)?;
            }
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
        if self.buffer_history {
            self.history.push(HistoryEntry {
                iteration: k,
                rows: std::mem::take(&mut self.rows),
                a_cols: std::mem::take(&mut self.a_cols),
            });
        }
        if !stop
            && (self.membership_changed
                || (self.checkpoint_interval > 0 && k.is_multiple_of(self.checkpoint_interval)))
        {
            self.checkpoint(k);
        }
        Ok(())
    }
}
