//! The supervised coordinator: the ADM-G protocol between front-ends and
//! datacenters (§III, Fig. 2) as one `Transport` for the unified driver
//! (`ufc_core::engine::drive`), written once over a [`Fleet`].
//!
//! A fleet is how commands reach the nodes, and it is the only part the
//! two engines implement: node kernels in the coordinator's thread
//! (`crate::worker::InlineFleet`, [`crate::Engine::Lockstep`]) or worker OS
//! processes over TCP (`crate::engine_socket::ProcessFleet`,
//! [`crate::Engine::Sockets`]). Both carry the same [`NodeCmd`]s to the
//! same node dispatch (`crate::worker`), and every [`Reply`] comes back
//! through [`Fleet::recv`], tagged with its node and iteration so stale
//! replay traffic is discarded.
//!
//! Everything else exists here once: the phase fan-outs and gathers; crash
//! injection (a front-end is killed before its `Predict`, a datacenter
//! before its `Process`); the deadline ladder ([`gather_phase`]), which
//! declares a silent node dead only once it no longer runs; recovery
//! through the [`FaultTracker`] — respawn from the last checkpoint with
//! `Restore` plus input replay, or eviction (datacenters only) and later
//! readmission; checkpoint rounds; rollback in place with `Restore`; the
//! final gather; and, on a clean plan ([`pipelines`]), each front-end's
//! next prediction riding in its correction's fan-out.
//!
//! The inline fleet has queued every reply by the time `send` returns, so
//! its `recv` never waits. The process fleet reads its workers'
//! connections itself, in the coordinator's thread. Every fleet's `recv`
//! returns at once when no pending node can still answer, so the ladder's
//! rungs pass at once and a stopped node is declared dead as soon as what
//! arrived is handed out. `tests/fault_injection.rs` pins the lockstep
//! fault reports; the socket tests (`socket_recovery.rs`, `wire_chaos.rs`)
//! hold the process fleet to the same iterates, statistics and reports.

use std::time::{Duration, Instant};

use ufc_core::engine::{drive, BlockResiduals, IterationObserver, Transport};
use ufc_core::node::{DatacenterNode, NodeResiduals};
use ufc_core::telemetry::{ObserverChain, TelemetryCollector};
use ufc_core::{AdmgSettings, BlockKind, BlockSchedule, CoreError};
use ufc_model::UfcInstance;

use crate::coordinator::{
    account_stragglers, buffers_history, checkpoint_due, column_of, record_a_traffic,
    record_control, record_lambda_traffic, reduce_residuals, replay_entries, row_of, Gathered,
    HistoryEntry, RollbackPoint, Tally,
};
use crate::fault::{FaultPlan, FaultTracker, IntegrityState, NodeId, Resolution, BACKOFF_ROUNDS};
use crate::message::Message;
use crate::runtime::DistRunReport;
use crate::snapshot::CheckpointStore;
use crate::stats::MessageStats;
use crate::wire::NodeCmd;

/// Node replies, tagged with node and iteration so the coordinator can
/// discard stale replay traffic.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Reply {
    Lambda {
        i: usize,
        iteration: usize,
        row: Vec<f64>,
    },
    FeResidual {
        i: usize,
        iteration: usize,
        residuals: NodeResiduals,
    },
    DcStep {
        j: usize,
        iteration: usize,
        a_tilde: Vec<f64>,
        d: f64,
        residuals: NodeResiduals,
    },
    FeSnapshot {
        i: usize,
        iteration: usize,
        blob: Vec<u8>,
    },
    DcSnapshot {
        j: usize,
        iteration: usize,
        blob: Vec<u8>,
    },
    FeFinal {
        i: usize,
        lambda: Vec<f64>,
    },
    DcFinal {
        j: usize,
        mu: f64,
        d: f64,
    },
}

/// How the supervisor's commands reach the nodes, which are addressed by
/// global id: front-ends `0..m`, datacenters `m..m + n`, and how their
/// replies come back ([`Fleet::recv`]). Deadlines, recovery
/// decisions and accounting are the supervisor's; this is the place a
/// fleet of workers is spawned, kept and reaped. The supervisor borrows a
/// fleet for one run, so a fleet can outlive it (the process fleet does,
/// between `DistributedAdmg::execute` calls).
pub(crate) trait Fleet {
    /// The next reply, waiting at most `timeout` for one, or `None` once
    /// the wait is over. `pending` names the nodes the gather still needs,
    /// so a fleet can read where they will answer; a reply from any node
    /// may come back, stale ones included. A zero `timeout` takes only
    /// what has arrived already, without blocking. When nothing has
    /// arrived and no pending node can still answer, the call returns
    /// `None` without waiting.
    fn recv(&mut self, pending: &Pending, timeout: Duration) -> Option<Reply>;
    /// Delivers one fan-out. A command for a node that is down is dropped:
    /// its silence is the gather ladder's to judge.
    fn send(&mut self, cmds: Vec<(usize, NodeCmd)>);
    /// Whether node `id` can still answer.
    fn alive(&mut self, id: usize) -> bool;
    /// Kills node `id`: a scripted crash, or an eviction.
    fn kill(&mut self, id: usize);
    /// Replaces node `id` with a fresh kernel, built as at launch.
    ///
    /// # Errors
    ///
    /// [`CoreError::NodeFailure`] when the node cannot be started.
    fn start(&mut self, id: usize) -> Result<(), CoreError>;
    /// Notes that the gather ladder declared node `id` dead.
    fn declared_dead(&mut self, _id: usize) {}
    /// Per-iteration hook, run after the supervisor's own begin-iteration
    /// work (readmissions, straggler charges).
    ///
    /// # Errors
    ///
    /// [`CoreError::NodeFailure`] when the carrier cannot recover a link.
    fn begin_iteration(&mut self, _k: usize, _plan: &FaultPlan) -> Result<(), CoreError> {
        Ok(())
    }
    /// Ends a run, on every exit path: `clean` says whether it reached its
    /// final gather. Stops what the run leaves behind (every node, unless
    /// the fleet can serve another run), folds the carrier's own
    /// accounting of the run into `tally` and returns the typed error the
    /// carrier parked during the run, if any (it outranks the dead-node
    /// verdict its silence produced), beside the result of stopping.
    fn end_run(
        &mut self,
        clean: bool,
        tally: &mut Tally,
    ) -> (Option<CoreError>, Result<(), CoreError>);
}

/// Whether a run under `plan` sends each front-end's next prediction in
/// the same fan-out as its correction. Only a clean plan does: a scripted
/// kill must land before its victim predicts, a rollback must restore in
/// place before any node predicts on a poisoned iterate, a snapshot must
/// record the corrected iterate, and a readmission changes the next
/// prediction.
pub(crate) fn pipelines(plan: &FaultPlan) -> bool {
    plan.is_trivial() && plan.corruption.is_none() && plan.checkpoint_interval == 0
}

/// Runs the supervised coordinator under `plan` over `fleet`, whose nodes
/// already hold this run's kernels, and ends the run on it
/// ([`Fleet::end_run`]). A trivial plan reduces to the clean runtime: no
/// kills, no extra traffic, and the same report on every fleet.
pub(crate) fn run_supervised<F: Fleet>(
    settings: &AdmgSettings,
    instance: &UfcInstance,
    active_mu: bool,
    active_nu: bool,
    plan: FaultPlan,
    fleet: &mut F,
    observer: &mut dyn IterationObserver,
) -> Result<DistRunReport, CoreError> {
    let tolerances = settings.scaled_tolerances(instance);
    let mut sup = Supervisor::new(instance, *settings, active_mu, active_nu, plan, fleet);
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
            .map(|gathered| (outcome, gathered))
    });
    // The error path ends the run too.
    let mut tally = Tally::new(sup.stats, &sup.tracker, &sup.integrity, sup.stall_phases);
    let (parked, shutdown) = sup.fleet.end_run(outcome.is_ok(), &mut tally);
    let (outcome, gathered) = outcome.map_err(|e| parked.unwrap_or(e))?;
    shutdown?;
    tally.into_report(
        instance,
        outcome,
        gathered,
        !active_nu,
        collector.map(TelemetryCollector::into_telemetry),
    )
}

/// The supervising coordinator's state between driver callbacks.
struct Supervisor<'a, F> {
    instance: &'a UfcInstance,
    settings: AdmgSettings,
    active_mu: bool,
    active_nu: bool,
    m: usize,
    n: usize,
    fleet: &'a mut F,
    tracker: FaultTracker,
    store: CheckpointStore,
    history: Vec<HistoryEntry>,
    /// Scripted crash iterations per node id, consumed as they fire.
    remaining_crashes: Vec<Vec<usize>>,
    stats: MessageStats,
    integrity: IntegrityState,
    /// The iteration whose `Predict` commands went out with the previous
    /// correction ([`pipelines`]).
    predicted: Option<usize>,
    /// Replies to those commands that the correction gather drained.
    early_predictions: Vec<Reply>,
    /// First node whose residual report was non-finite this iteration —
    /// the divergence gate's suspect.
    suspect: Option<NodeId>,
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

impl<'a, F: Fleet> Supervisor<'a, F> {
    fn new(
        instance: &'a UfcInstance,
        settings: AdmgSettings,
        active_mu: bool,
        active_nu: bool,
        plan: FaultPlan,
        fleet: &'a mut F,
    ) -> Self {
        let m = instance.m_frontends();
        let n = instance.n_datacenters();
        let remaining_crashes = (0..m)
            .map(NodeId::Frontend)
            .chain((0..n).map(NodeId::Datacenter))
            .map(|node| plan.crash_iterations_for(node))
            .collect();
        let integrity = IntegrityState::new(plan.corruption.as_ref());
        Supervisor {
            instance,
            settings,
            active_mu,
            active_nu,
            m,
            n,
            fleet,
            tracker: FaultTracker::new(plan, m, n),
            store: CheckpointStore::new(m, n),
            history: Vec::new(),
            remaining_crashes,
            stats: MessageStats::default(),
            integrity,
            predicted: None,
            early_predictions: Vec::new(),
            suspect: None,
            stall_phases: 0.0,
            rows: Vec::new(),
            a_cols: Vec::new(),
            dc_residuals: Vec::new(),
            readmitted_now: Vec::new(),
            membership_changed: false,
            node_count: m + n,
        }
    }

    /// `node`'s fleet address.
    fn id(&self, node: NodeId) -> usize {
        match node {
            NodeId::Frontend(i) => i,
            NodeId::Datacenter(j) => self.m + j,
        }
    }

    /// The datacenters still in the membership view, in index order.
    fn live_datacenters(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(|&j| !self.tracker.is_evicted(j))
    }

    /// Every front-end, then the live datacenters.
    fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.m)
            .map(NodeId::Frontend)
            .chain(self.live_datacenters().map(NodeId::Datacenter))
    }

    /// The gather set of `nodes`.
    fn pending(&self, nodes: impl IntoIterator<Item = NodeId>) -> Pending {
        Pending::of(self.m, self.n, nodes)
    }

    /// One gather on the plan's deadline ladder ([`gather_phase`]).
    fn gather(
        &mut self,
        pending: &mut Pending,
        accept: impl FnMut(Reply) -> Option<NodeId>,
    ) -> Vec<NodeId> {
        let base_timeout = self.tracker.plan().phase_timeout;
        gather_phase(self.fleet, pending, base_timeout, BACKOFF_ROUNDS, accept)
    }

    /// The command `node` computes iteration `k` on: `Predict` for a
    /// front-end, `Process` of its λ̃ column for a datacenter.
    fn compute_cmd(&self, node: NodeId, k: usize) -> NodeCmd {
        match node {
            NodeId::Frontend(_) => NodeCmd::Predict { iteration: k },
            NodeId::Datacenter(j) => NodeCmd::Process {
                iteration: k,
                column: column_of(&self.rows, j),
            },
        }
    }

    /// Fires the crashes scripted for iteration `k` among `ids`, before
    /// their compute commands go out, so each victim dies mid-iteration.
    fn inject_crashes(&mut self, ids: Vec<usize>, k: usize) {
        for id in ids {
            if self.remaining_crashes[id].first() == Some(&k) {
                self.fleet.kill(id);
                self.remaining_crashes[id].retain(|&it| it > k);
            }
        }
    }

    /// Broadcasts datacenter `j`'s membership change to every front-end.
    fn broadcast_membership(&mut self, datacenter: usize, evict: bool) {
        self.fleet.send(
            (0..self.m)
                .map(|i| (i, NodeCmd::Membership { datacenter, evict }))
                .collect(),
        );
        for _ in 0..self.m {
            self.stats
                .record(&Message::Membership { datacenter, evict });
        }
    }

    /// Gathers one compute phase's replies through the broad recovery
    /// loop: dead nodes surface per ladder while live stragglers stay
    /// pending. A node declared dead is resolved by the [`FaultTracker`]:
    /// respawned, replayed and asked again (rejoining the same pending set,
    /// so no reply is ever consumed by a narrower filter), or — for a
    /// datacenter — evicted. `early` holds replies an earlier gather
    /// drained.
    fn gather_compute(
        &mut self,
        k: usize,
        early: Vec<Reply>,
        mut pending: Pending,
        mut accept: impl FnMut(Reply) -> Option<NodeId>,
    ) -> Result<(), CoreError> {
        for reply in early {
            if let Some(node) = accept(reply) {
                pending.remove(node);
            }
        }
        let mut respawned: Vec<NodeId> = Vec::new();
        loop {
            let missing = self.gather(&mut pending, &mut accept);
            if missing.is_empty() && pending.is_empty() {
                break;
            }
            for node in missing {
                self.fleet.declared_dead(self.id(node));
                if respawned.contains(&node) {
                    return Err(CoreError::node_failure(
                        node.to_string(),
                        k,
                        "no reply after checkpoint respawn",
                    ));
                }
                respawned.push(node);
                match self.tracker.resolve_crash(node, k)? {
                    Resolution::Recovered { .. } => {
                        self.respawn(node, k)?;
                        self.fleet
                            .send(vec![(self.id(node), self.compute_cmd(node, k))]);
                        pending.insert(node);
                    }
                    Resolution::Evicted { .. } => {
                        let NodeId::Datacenter(j) = node else {
                            unreachable!("front-ends are never evicted")
                        };
                        self.fleet.kill(self.m + j);
                        self.broadcast_membership(j, true);
                        self.membership_changed = true;
                    }
                }
            }
        }
        Ok(())
    }

    /// Starts `node` fresh, restores it from its last checkpoint, replays
    /// the buffered inputs since, and (for a front-end) re-applies this
    /// iteration's readmissions, so its state is exactly what the crashed
    /// node's would have been entering iteration `k`.
    fn respawn(&mut self, node: NodeId, k: usize) -> Result<(), CoreError> {
        let id = self.id(node);
        self.fleet.start(id)?;
        self.remaining_crashes[id].retain(|&it| it > k);
        let checkpoint = match node {
            NodeId::Frontend(i) => self.store.frontend(i),
            NodeId::Datacenter(j) => self.store.datacenter(j),
        };
        let mut base = 0usize;
        if let Some((it, blob)) = checkpoint {
            base = it;
            self.fleet.send(vec![(
                id,
                NodeCmd::Restore {
                    blob: blob.to_vec(),
                },
            )]);
        }
        let mut replayed = 0usize;
        for entry in replay_entries(&self.history, base, k) {
            let iteration = entry.iteration;
            match node {
                NodeId::Frontend(i) => {
                    self.fleet.send(vec![(id, NodeCmd::Predict { iteration })]);
                    let a_row = row_of(&entry.a_cols, i);
                    self.fleet
                        .send(vec![(id, NodeCmd::Correct { iteration, a_row })]);
                }
                NodeId::Datacenter(j) => {
                    let column = column_of(&entry.rows, j);
                    self.fleet
                        .send(vec![(id, NodeCmd::Process { iteration, column })]);
                }
            }
            replayed += 1;
        }
        self.tracker.report.recomputed_iterations += replayed;
        if let NodeId::Frontend(_) = node {
            for &datacenter in &self.readmitted_now {
                self.fleet.send(vec![(
                    id,
                    NodeCmd::Membership {
                        datacenter,
                        evict: false,
                    },
                )]);
            }
        }
        Ok(())
    }

    /// One checkpoint round: every live node snapshots its iterate slice
    /// and ships it to the coordinator, which accounts the traffic and
    /// clears the replay buffer.
    fn checkpoint_round(&mut self, k: usize) -> Result<(), CoreError> {
        let (m, n) = (self.m, self.n);
        let mut pending = self.pending(self.live_nodes());
        self.fleet.send(
            (0..m)
                .chain(self.live_datacenters().map(|j| m + j))
                .map(|id| (id, NodeCmd::Snapshot { iteration: k }))
                .collect(),
        );
        let mut fe_blobs: Vec<Option<Vec<u8>>> = vec![None; m];
        let mut dc_blobs: Vec<Option<Vec<u8>>> = vec![None; n];
        let missing = self.gather(&mut pending, |reply| match reply {
            Reply::FeSnapshot { i, iteration, blob } if iteration == k => {
                fe_blobs[i] = Some(blob);
                Some(NodeId::Frontend(i))
            }
            Reply::DcSnapshot { j, iteration, blob } if iteration == k => {
                dc_blobs[j] = Some(blob);
                Some(NodeId::Datacenter(j))
            }
            _ => None,
        });
        if let Some(node) = missing.first() {
            return Err(CoreError::node_failure(
                node.to_string(),
                k,
                "no reply to the checkpoint request",
            ));
        }
        for (i, blob) in fe_blobs.into_iter().enumerate() {
            let blob = blob.ok_or_else(|| {
                CoreError::node_failure(
                    NodeId::Frontend(i).to_string(),
                    k,
                    "checkpoint blob missing after gather",
                )
            })?;
            self.stats.record(&Message::Checkpoint {
                node: i,
                payload_bytes: blob.len(),
            });
            self.store.put_frontend(i, k, blob);
        }
        for (j, blob) in dc_blobs.into_iter().enumerate() {
            let Some(blob) = blob else { continue };
            self.stats.record(&Message::Checkpoint {
                node: m + j,
                payload_bytes: blob.len(),
            });
            self.store.put_datacenter(j, k, blob);
        }
        self.tracker.report.checkpoints_taken += 1;
        self.history.clear();
        Ok(())
    }

    /// Ships `Finish` to every live node and gathers the final iterate.
    fn final_gather(&mut self, iterations: usize) -> Result<Gathered, CoreError> {
        let (m, n) = (self.m, self.n);
        let mut pending = self.pending(self.live_nodes());
        self.fleet.send(
            (0..m)
                .chain(self.live_datacenters().map(|j| m + j))
                .map(|id| (id, NodeCmd::Finish))
                .collect(),
        );
        let mut lambda_rows: Vec<Vec<f64>> = vec![Vec::new(); m];
        let mut mu = vec![0.0; n];
        let mut d = vec![0.0; n];
        let missing = self.gather(&mut pending, |reply| match reply {
            Reply::FeFinal { i, lambda } => {
                lambda_rows[i] = lambda;
                Some(NodeId::Frontend(i))
            }
            Reply::DcFinal { j, mu: v, d: dv } => {
                mu[j] = v;
                d[j] = dv;
                Some(NodeId::Datacenter(j))
            }
            _ => None,
        });
        if let Some(node) = missing.first() {
            return Err(CoreError::node_failure(
                node.to_string(),
                iterations,
                "no reply to the final gather",
            ));
        }
        Ok((lambda_rows, mu, d))
    }
}

impl<F: Fleet> Transport for Supervisor<'_, F> {
    fn schedule(&self) -> BlockSchedule {
        BlockSchedule::for_instance(self.instance)
    }

    fn begin_iteration(&mut self, k: usize) -> Result<(), CoreError> {
        self.membership_changed = false;
        let readmitted_now = self.tracker.probe_readmissions();
        for &j in &readmitted_now {
            // The fresh node builds the kernel this snapshot describes; the
            // coordinator keeps it as the node's checkpoint.
            let node = DatacenterNode::new(
                self.instance,
                j,
                &self.settings,
                self.active_mu,
                self.active_nu,
            );
            self.store
                .put_datacenter(j, k - 1, node.snapshot().to_bytes());
            let id = self.m + j;
            self.remaining_crashes[id].retain(|&it| it >= k);
            self.fleet.start(id)?;
            self.broadcast_membership(j, false);
            self.membership_changed = true;
        }
        self.readmitted_now = readmitted_now;
        account_stragglers(&mut self.tracker, self.m, self.n, k);
        if self.tracker.plan().partition_active(k) {
            self.stall_phases += 2.0;
        }
        self.fleet.begin_iteration(k, self.tracker.plan())
    }

    fn predict_lambda(&mut self, k: usize) -> Result<(), CoreError> {
        let m = self.m;
        if self.predicted.take() != Some(k) {
            self.inject_crashes((0..m).collect(), k);
            self.fleet.send(
                (0..m)
                    .map(|i| (i, NodeCmd::Predict { iteration: k }))
                    .collect(),
            );
        }
        let mut rows: Vec<Option<Vec<f64>>> = vec![None; m];
        let early = std::mem::take(&mut self.early_predictions);
        let pending = self.pending((0..m).map(NodeId::Frontend));
        self.gather_compute(k, early, pending, |reply| match reply {
            Reply::Lambda { i, iteration, row } if iteration == k => {
                rows[i] = Some(row);
                Some(NodeId::Frontend(i))
            }
            _ => None,
        })?;
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
        self.inject_crashes(self.live_datacenters().map(|j| m + j).collect(), k);
        self.fleet.send(
            self.live_datacenters()
                .map(|j| (m + j, self.compute_cmd(NodeId::Datacenter(j), k)))
                .collect(),
        );
        let mut a_cols = vec![vec![0.0; m]; n];
        let mut d_vals = vec![0.0; n];
        let mut dc_residuals: Vec<Option<NodeResiduals>> = vec![None; n];
        let pending = self.pending(self.live_datacenters().map(NodeId::Datacenter));
        self.gather_compute(k, Vec::new(), pending, |reply| match reply {
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
            _ => None,
        })?;
        let mut phase_max = 1usize;
        for j in 0..n {
            if dc_residuals[j].is_some() {
                // The integrity layer may overwrite corrupted entries of the
                // gathered column in place.
                phase_max = phase_max.max(record_a_traffic(
                    &mut self.stats,
                    &mut self.tracker,
                    &mut self.integrity,
                    &mut a_cols[j],
                    j,
                    k,
                )?);
                // Storage-active datacenters report their corrected block
                // value on the control plane, like residual reports, so it
                // rides outside the droppable and corruptible data path.
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
        let mut cmds: Vec<(usize, NodeCmd)> = (0..m)
            .map(|i| {
                (
                    i,
                    NodeCmd::Correct {
                        iteration: k,
                        a_row: row_of(&self.a_cols, i),
                    },
                )
            })
            .collect();
        if k < self.settings.max_iterations && pipelines(self.tracker.plan()) {
            // A front-end predicts k + 1 from exactly the state this
            // correction leaves it in, so the prediction goes out now, in
            // the same fan-out. At the stopping iteration its replies go
            // unread; `Finish` still returns the corrected λ.
            cmds.extend((0..m).map(|i| (i, NodeCmd::Predict { iteration: k + 1 })));
            self.predicted = Some(k + 1);
        }
        self.fleet.send(cmds);
        let mut fe_residuals: Vec<Option<NodeResiduals>> = vec![None; m];
        let mut early = Vec::new();
        let mut pending = self.pending((0..m).map(NodeId::Frontend));
        let missing = self.gather(&mut pending, |reply| match reply {
            Reply::FeResidual {
                i,
                iteration,
                residuals,
            } if iteration == k => {
                fe_residuals[i] = Some(residuals);
                Some(NodeId::Frontend(i))
            }
            Reply::Lambda { iteration, .. } if iteration == k + 1 => {
                early.push(reply);
                None
            }
            _ => None,
        });
        self.early_predictions = early;
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

    fn rollback(&mut self, _k: usize) -> Result<Option<usize>, CoreError> {
        self.integrity.counters.divergence_trips += 1;
        let Some(point) = RollbackPoint::read(&self.store, self.m, &self.tracker.evicted_mask())?
        else {
            return Ok(None);
        };
        // The nodes are alive — the poison is in their state, not their
        // liveness — so they restore in place. Each node takes its commands
        // in order, so the Restore lands before any later command.
        let m = self.m;
        let frontends = point.frontends.iter().enumerate().map(|(i, snap)| {
            let blob = snap.to_bytes();
            (i, NodeCmd::Restore { blob })
        });
        let datacenters = point
            .datacenters
            .iter()
            .enumerate()
            .filter_map(|(j, snap)| {
                let blob = snap.as_ref()?.to_bytes();
                Some((m + j, NodeCmd::Restore { blob }))
            });
        self.fleet.send(frontends.chain(datacenters).collect());
        // Buffered inputs may hold the very payloads that poisoned the run;
        // never replay them into the restored state.
        self.history.clear();
        self.integrity.counters.rollbacks += 1;
        Ok(Some(point.base))
    }

    fn divergence_suspect(&self) -> Option<String> {
        self.suspect
            .map(|node| node.to_string())
            .or_else(|| self.integrity.last_corrupted.clone())
    }

    fn finish_iteration(&mut self, k: usize, stop: bool) -> Result<(), CoreError> {
        record_control(&mut self.stats, stop, self.node_count);
        if buffers_history(self.tracker.plan()) {
            self.history.push(HistoryEntry {
                iteration: k,
                rows: std::mem::take(&mut self.rows),
                a_cols: std::mem::take(&mut self.a_cols),
            });
        }
        let interval = self.tracker.plan().checkpoint_interval;
        if checkpoint_due(k, stop, self.membership_changed, interval) {
            self.checkpoint_round(k)?;
        }
        Ok(())
    }
}

/// The nodes a gather still waits for: a mask over fleet ids (front-ends
/// `0..m`, datacenters `m..m + n`) and its count. A gather files each
/// reply with an index, not a hash, and lists what is left in node order.
pub(crate) struct Pending {
    m: usize,
    waiting: Vec<bool>,
    count: usize,
}

impl Pending {
    /// The set of `nodes` among `m` front-ends and `n` datacenters.
    pub(crate) fn of(m: usize, n: usize, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut pending = Pending {
            m,
            waiting: vec![false; m + n],
            count: 0,
        };
        for node in nodes {
            pending.insert(node);
        }
        pending
    }

    /// `node`'s fleet id.
    fn id(&self, node: NodeId) -> usize {
        match node {
            NodeId::Frontend(i) => i,
            NodeId::Datacenter(j) => self.m + j,
        }
    }

    fn slot(&mut self, node: NodeId) -> Option<&mut bool> {
        let id = self.id(node);
        self.waiting.get_mut(id)
    }

    /// Adds `node` (once).
    fn insert(&mut self, node: NodeId) {
        if let Some(waiting @ false) = self.slot(node) {
            *waiting = true;
            self.count += 1;
        }
    }

    /// Drops `node`, if it is pending.
    fn remove(&mut self, node: NodeId) {
        if let Some(waiting @ true) = self.slot(node) {
            *waiting = false;
            self.count -= 1;
        }
    }

    fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The fleet ids of the pending nodes, in node order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.waiting
            .iter()
            .enumerate()
            .filter_map(|(id, &waiting)| waiting.then_some(id))
    }

    /// The pending nodes, in node order.
    fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let m = self.m;
        self.ids().map(move |id| {
            if id < m {
                NodeId::Frontend(id)
            } else {
                NodeId::Datacenter(id - m)
            }
        })
    }

    /// Empties the set, returning what it held in node order.
    fn take_all(&mut self) -> Vec<NodeId> {
        let all: Vec<NodeId> = self.nodes().collect();
        self.waiting.fill(false);
        self.count = 0;
        all
    }
}

/// Hard cap on ladder restarts granted to silent-but-running nodes. At
/// 1000 restarts of the full ladder a node is treated as wedged and
/// returned as missing regardless of liveness.
const MAX_EXTENSIONS: u32 = 1000;

/// Waits for the pending nodes' replies from `fleet` with an
/// exponential-backoff ladder.
///
/// Each rung of the ladder is a fixed *phase deadline* (`base_timeout`
/// doubled per rung, `rounds` rungs): timely replies drain the fleet but
/// never push the deadline out, so a trickle of replies cannot stretch the
/// wait. When the ladder is exhausted, any pending node that no longer
/// runs ([`Fleet::alive`] is false) is immediately returned as
/// suspected-dead, in deterministic node order — a live straggler
/// elsewhere in the pending set does not delay that verdict.
/// Silent-but-running nodes (long sub-problem, scheduling hiccup) get the
/// ladder restarted, up to [`MAX_EXTENSIONS`] times.
///
/// # Worst-case bound
///
/// One ladder blocks for at most `Σ_{r<rounds} base_timeout·2^r =
/// base_timeout·(2^rounds − 1)` — i.e. [`FaultPlan::ladder_seconds`] —
/// *independent of how many replies arrive*, since [`Fleet::recv`] never
/// waits past what is left of the rung. A dead node is therefore declared
/// within one ladder of the moment it stops; with `E` ladder extensions
/// granted to live stragglers the total wait is at most `(1 + E)` ladders,
/// `E ≤ MAX_EXTENSIONS`. When none of the pending nodes can still answer,
/// every fleet's `recv` returns at once once it has handed out what
/// already arrived, so the rungs pass without waiting and the dead nodes
/// are declared at once: the ladder is waited out only while a live node
/// is pending.
fn gather_phase<F: Fleet>(
    fleet: &mut F,
    pending: &mut Pending,
    base_timeout: Duration,
    rounds: u32,
    mut accept: impl FnMut(Reply) -> Option<NodeId>,
) -> Vec<NodeId> {
    let rounds = rounds.max(1);
    let mut round = 0u32;
    let mut wait = base_timeout;
    let mut extensions = 0u32;
    let mut deadline = Instant::now() + wait;
    loop {
        if pending.is_empty() {
            break Vec::new();
        }
        // A zero remaining budget still drains replies that already
        // arrived.
        let remaining = deadline.saturating_duration_since(Instant::now());
        if let Some(reply) = fleet.recv(pending, remaining) {
            if let Some(node) = accept(reply) {
                pending.remove(node);
            }
            continue;
        }
        round += 1;
        if round < rounds {
            wait = wait.saturating_mul(2);
            deadline = Instant::now() + wait;
            continue;
        }
        // Ladder exhausted: declare stopped nodes dead right away.
        let dead: Vec<NodeId> = pending
            .nodes()
            .filter(|&node| !fleet.alive(pending.id(node)))
            .collect();
        if !dead.is_empty() {
            for &node in &dead {
                pending.remove(node);
            }
            break dead;
        }
        if extensions >= MAX_EXTENSIONS {
            break pending.take_all();
        }
        extensions += 1;
        round = 0;
        wait = base_timeout;
        deadline = Instant::now() + wait;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver};

    use crate::worker::InlineFleet;
    use ufc_core::Strategy;
    use ufc_model::scenario::ScenarioBuilder;

    /// A fleet whose replies come from test threads over a channel, so they
    /// arrive while a gather waits, and whose live nodes are a fixed set of
    /// ids: the ladder tests' stand-in for a real fleet.
    struct ChannelFleet {
        replies: Receiver<Reply>,
        live: Vec<usize>,
    }

    impl Fleet for ChannelFleet {
        fn recv(&mut self, _pending: &Pending, timeout: Duration) -> Option<Reply> {
            self.replies.recv_timeout(timeout).ok()
        }

        fn send(&mut self, _cmds: Vec<(usize, NodeCmd)>) {}

        fn alive(&mut self, id: usize) -> bool {
            self.live.contains(&id)
        }

        fn kill(&mut self, _id: usize) {}

        fn start(&mut self, _id: usize) -> Result<(), CoreError> {
            Ok(())
        }

        fn end_run(
            &mut self,
            _clean: bool,
            _tally: &mut Tally,
        ) -> (Option<CoreError>, Result<(), CoreError>) {
            (None, Ok(()))
        }
    }

    /// Replay entries a lockstep run of one paper hour under `plan` still
    /// holds when it stops.
    fn history_left_by(plan: FaultPlan) -> usize {
        let scenario = ScenarioBuilder::paper_default()
            .hours(1)
            .build()
            .expect("paper scenario builds");
        let instance = &scenario.instances[0];
        let settings = AdmgSettings::default();
        let (active_mu, active_nu) = Strategy::Hybrid
            .block_activation(instance)
            .expect("hybrid runs every block");
        let mut fleet = InlineFleet::launch(instance, &settings, active_mu, active_nu);
        let mut sup = Supervisor::new(instance, settings, active_mu, active_nu, plan, &mut fleet);
        let tolerances = settings.scaled_tolerances(instance);
        let outcome = drive(&mut sup, &settings, tolerances, &mut ()).expect("run converges");
        assert!(outcome.converged);
        let left = sup.history.len();
        let mut tally = Tally::new(sup.stats, &sup.tracker, &sup.integrity, sup.stall_phases);
        let (_, shutdown) = sup.fleet.end_run(true, &mut tally);
        shutdown.expect("the inline fleet stops");
        left
    }

    /// A clean run never replays, so it keeps none of its iterations'
    /// inputs; a checkpointing run keeps those since its last checkpoint.
    #[test]
    fn clean_run_keeps_no_replay_history() {
        assert_eq!(history_left_by(FaultPlan::none()), 0);
        assert!(history_left_by(FaultPlan::new()) > 0);
    }

    /// One live straggler (replies late) and one crash-stopped worker
    /// (stopped, never replies) in the same gather: the dead node
    /// must be declared within the ladder budget, not after the straggler
    /// wakes. Pre-fix, `any(alive)` restarted the whole ladder while the
    /// straggler slept, stalling the dead-node verdict by ~1.2 s.
    #[test]
    fn dead_node_declared_while_straggler_sleeps() {
        let (tx, rx) = channel::<Reply>();
        let mut pending = Pending::of(2, 0, [NodeId::Frontend(0), NodeId::Frontend(1)]);
        // Frontend(0) is a live straggler replying long after the ladder;
        // Frontend(1) has already stopped.
        let straggler = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(1200));
            let _ = tx.send(Reply::Lambda {
                i: 0,
                iteration: 1,
                row: vec![1.0],
            });
        });
        let mut fleet = ChannelFleet {
            replies: rx,
            live: vec![0],
        };
        let start = Instant::now();
        let missing = gather_phase(
            &mut fleet,
            &mut pending,
            Duration::from_millis(20),
            3, // ladder = 20 + 40 + 80 = 140 ms
            |reply| match reply {
                Reply::Lambda { i, .. } => Some(NodeId::Frontend(i)),
                _ => None,
            },
        );
        let elapsed = start.elapsed();
        assert_eq!(missing, vec![NodeId::Frontend(1)]);
        assert!(
            pending.nodes().eq([NodeId::Frontend(0)]),
            "the live straggler must stay pending, not be declared dead"
        );
        assert!(
            elapsed < Duration::from_millis(600),
            "dead node took {elapsed:?} to declare — gated on the straggler"
        );
        straggler.join().expect("straggler thread panicked");
    }

    /// A trickle of timely replies must not re-arm the rung: the ladder is
    /// a phase deadline, so the worst case is `base·(2^rounds − 1)` per
    /// ladder regardless of reply count. Pre-fix, each reply restarted the
    /// (possibly doubled) `recv_timeout`, stretching the phase to ~N×.
    #[test]
    fn timely_replies_do_not_extend_the_phase_deadline() {
        let (tx, rx) = channel::<Reply>();
        let mut pending = Pending::of(11, 0, (0..11).map(NodeId::Frontend));
        // Frontend(0) is dead and silent; frontends 1..=10 trickle replies
        // every 80 ms — each inside a fresh base timeout of 100 ms, so the
        // pre-fix per-message wait never fires until the trickle ends.
        let trickle = std::thread::spawn(move || {
            for i in 1..11usize {
                std::thread::sleep(Duration::from_millis(80));
                let _ = tx.send(Reply::Lambda {
                    i,
                    iteration: 1,
                    row: vec![1.0],
                });
            }
        });
        let mut fleet = ChannelFleet {
            replies: rx,
            live: (1..11).collect(),
        };
        let start = Instant::now();
        let missing = gather_phase(
            &mut fleet,
            &mut pending,
            Duration::from_millis(100),
            2, // ladder = 100 + 200 = 300 ms
            |reply| match reply {
                Reply::Lambda { i, .. } => Some(NodeId::Frontend(i)),
                _ => None,
            },
        );
        let elapsed = start.elapsed();
        assert_eq!(missing, vec![NodeId::Frontend(0)]);
        assert!(
            elapsed < Duration::from_millis(700),
            "phase took {elapsed:?} — replies re-armed the rung timeout \
             (trickle alone spans 800 ms)"
        );
        trickle.join().expect("trickle thread panicked");
    }
}
