//! Coordinator-side helpers shared by the distributed engines.
//!
//! Everything here is transport-independent bookkeeping: traffic recording
//! (with drop, corruption and partition relay accounting), plan-driven
//! straggler charging, residual reduction, replay-history filtering, the
//! checkpoint cadence and rollback point, and the final
//! gather→polish→report step ([`Tally::into_report`]). The supervised
//! coordinator (`crate::supervision`) calls into these on every fleet, so
//! the report rules exist once for both engines.

use ufc_core::engine::{BlockResiduals, DriveOutcome};
use ufc_core::node::{DatacenterSnapshot, FrontendSnapshot, NodeResiduals};
use ufc_core::repair::assemble_point;
use ufc_core::telemetry::{IntegrityCounters, RunTelemetry, SolverCounters, TrafficCounters};
use ufc_core::{AdmgState, CoreError};
use ufc_model::{evaluate, OperatingPoint, UfcBreakdown, UfcInstance};

use crate::fault::{FaultPlan, FaultReport, FaultTracker, IntegrityState, NodeId};
use crate::message::{Message, CHECKSUM_OVERHEAD_BYTES};
use crate::runtime::DistRunReport;
use crate::snapshot::CheckpointStore;
use crate::stats::{estimated_wan_seconds_live, max_live_latency, MessageStats};

/// One iteration's inputs, buffered for checkpoint-restart replay.
pub(crate) struct HistoryEntry {
    /// The (1-based) iteration these inputs belong to.
    pub(crate) iteration: usize,
    /// Per-front-end λ̃ rows.
    pub(crate) rows: Vec<Vec<f64>>,
    /// Per-datacenter ã columns.
    pub(crate) a_cols: Vec<Vec<f64>>,
}

/// Whether a run under `plan` buffers each iteration's inputs for replay:
/// only a respawned node replays them, and only a plan that scripts node
/// faults or takes checkpoints can respawn one, so a clean run keeps none.
pub(crate) fn buffers_history(plan: &FaultPlan) -> bool {
    !plan.is_trivial() || plan.checkpoint_interval > 0
}

/// The buffered entries a node restored from a checkpoint taken after
/// iteration `base` must replay before rejoining iteration `k`.
pub(crate) fn replay_entries(
    history: &[HistoryEntry],
    base: usize,
    k: usize,
) -> impl Iterator<Item = &HistoryEntry> {
    history
        .iter()
        .filter(move |entry| entry.iteration > base && entry.iteration < k)
}

/// Whether iteration `k` ends with a checkpoint round: after a membership
/// change, or on the plan's cadence (`interval` 0 is off) — never at the
/// stopping iteration.
pub(crate) fn checkpoint_due(
    k: usize,
    stop: bool,
    membership_changed: bool,
    interval: usize,
) -> bool {
    !stop && (membership_changed || (interval > 0 && k.is_multiple_of(interval)))
}

/// What a divergence rollback returns the live nodes to: each one's last
/// checkpoint, decoded.
pub(crate) struct RollbackPoint {
    /// The oldest of those checkpoints' iterations.
    pub(crate) base: usize,
    /// Front-end snapshots, carrying the live membership view.
    pub(crate) frontends: Vec<FrontendSnapshot>,
    /// Datacenter snapshots; `None` for an evicted datacenter.
    pub(crate) datacenters: Vec<Option<DatacenterSnapshot>>,
}

impl RollbackPoint {
    /// Reads the rollback point of `m` front-ends and the datacenters of
    /// the `evicted` mask off `store`. `None` when a live node has no
    /// checkpoint or a non-finite one: a partial restore would leave the
    /// deployment inconsistent, so the caller declines the rollback.
    ///
    /// The live membership view stays authoritative over whatever a
    /// snapshot recorded: each front-end snapshot takes the current mask,
    /// with the blocks of every evicted datacenter zeroed, as
    /// [`ufc_core::node::FrontendNode::set_evicted`] does.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] for a blob that does not decode.
    pub(crate) fn read(
        store: &CheckpointStore,
        m: usize,
        evicted: &[bool],
    ) -> Result<Option<Self>, CoreError> {
        let mut base = usize::MAX;
        let mut frontends = Vec::with_capacity(m);
        for i in 0..m {
            let Some((it, blob)) = store.frontend(i) else {
                return Ok(None);
            };
            let mut snap = FrontendSnapshot::from_bytes(blob)?;
            if !snap.is_finite() {
                return Ok(None);
            }
            base = base.min(it);
            for (j, &gone) in evicted.iter().enumerate() {
                if gone {
                    snap.lambda[j] = 0.0;
                    snap.lambda_tilde[j] = 0.0;
                    snap.a[j] = 0.0;
                    snap.varphi[j] = 0.0;
                }
            }
            snap.evicted = evicted.to_vec();
            frontends.push(snap);
        }
        let mut datacenters = Vec::with_capacity(evicted.len());
        for (j, &gone) in evicted.iter().enumerate() {
            if gone {
                datacenters.push(None);
                continue;
            }
            let Some((it, blob)) = store.datacenter(j) else {
                return Ok(None);
            };
            let snap = DatacenterSnapshot::from_bytes(blob)?;
            if !snap.is_finite() {
                return Ok(None);
            }
            base = base.min(it);
            datacenters.push(Some(snap));
        }
        Ok(Some(RollbackPoint {
            base,
            frontends,
            datacenters,
        }))
    }
}

/// Column `j` of the per-front-end λ̃ rows: the values bound for
/// datacenter `j`.
pub(crate) fn column_of(rows: &[Vec<f64>], j: usize) -> Vec<f64> {
    rows.iter().map(|row| row[j]).collect()
}

/// Row `i` of the per-datacenter ã columns: the values bound for
/// front-end `i`.
pub(crate) fn row_of(cols: &[Vec<f64>], i: usize) -> Vec<f64> {
    cols.iter().map(|col| col[i]).collect()
}

/// Plan-driven straggler accounting, identical in every engine: the
/// coordinator charges every scripted delay of a live node.
pub(crate) fn account_stragglers(tracker: &mut FaultTracker, m: usize, n: usize, k: usize) {
    for i in 0..m {
        let delay = tracker.plan().straggler_delay(NodeId::Frontend(i), k);
        if let Some(delay) = delay {
            tracker.record_straggler(delay);
        }
    }
    for j in 0..n {
        if tracker.is_evicted(j) {
            continue;
        }
        let delay = tracker.plan().straggler_delay(NodeId::Datacenter(j), k);
        if let Some(delay) = delay {
            tracker.record_straggler(delay);
        }
    }
}

/// One data message through the corruption (or drop) and partition
/// machinery: charges resent and relayed bytes, folds the worst attempt
/// count into `phase_max`, and returns the override value when corruption
/// altered the payload in flight.
#[allow(clippy::too_many_arguments)]
fn transmit_data(
    stats: &mut MessageStats,
    tracker: &mut FaultTracker,
    integrity: &mut IntegrityState,
    msg: &Message,
    i: usize,
    j: usize,
    k: usize,
    phase_max: &mut usize,
) -> Result<Option<f64>, CoreError> {
    stats.record(msg);
    let mut delivered = None;
    if integrity.active() {
        let frame_bytes = msg.wire_bytes()
            + if integrity.verify {
                CHECKSUM_OVERHEAD_BYTES
            } else {
                0
            };
        // Charge the trailer on the first copy, the full frame on resends.
        stats.total_bytes += frame_bytes - msg.wire_bytes();
        let (override_value, attempts) = integrity.transmit(msg, k)?;
        stats.total_bytes += (attempts - 1) * frame_bytes;
        *phase_max = (*phase_max).max(attempts);
        delivered = override_value;
    }
    if tracker.plan().is_partitioned(i, j, k) {
        stats.total_bytes += msg.wire_bytes();
        tracker.report.partition_retransmissions += 1;
    }
    Ok(delivered)
}

/// Records the λ̃ scatter to every non-evicted datacenter. The integrity
/// layer may drop a copy (resent until delivered), corrupt a payload in
/// flight (the delivered value is written back into `rows`) or, when
/// checksums are verified, charge the trailer bytes and bounded
/// retransmits; severed partition links double their bytes (relay path).
/// Returns the phase's worst attempt count — the synchronous phase waits
/// for its slowest message (1 when nothing was resent).
///
/// # Errors
///
/// Propagates the integrity layer's typed failures (retransmit budget
/// exhausted, or a non-finite payload delivered unverified).
pub(crate) fn record_lambda_traffic(
    stats: &mut MessageStats,
    tracker: &mut FaultTracker,
    integrity: &mut IntegrityState,
    rows: &mut [Vec<f64>],
    k: usize,
) -> Result<usize, CoreError> {
    let mut phase_max = 1usize;
    for (i, row) in rows.iter_mut().enumerate() {
        for (j, value) in row.iter_mut().enumerate() {
            if tracker.is_evicted(j) {
                continue;
            }
            let msg = Message::LambdaTilde {
                frontend: i,
                datacenter: j,
                value: *value,
            };
            let delivered =
                transmit_data(stats, tracker, integrity, &msg, i, j, k, &mut phase_max)?;
            if let Some(v) = delivered {
                *value = v;
            }
        }
    }
    Ok(phase_max)
}

/// Records one datacenter's ã gather (mirror of [`record_lambda_traffic`]).
/// Returns this column's worst attempt count (1 when nothing was resent).
///
/// # Errors
///
/// As for [`record_lambda_traffic`].
pub(crate) fn record_a_traffic(
    stats: &mut MessageStats,
    tracker: &mut FaultTracker,
    integrity: &mut IntegrityState,
    a_tilde: &mut [f64],
    j: usize,
    k: usize,
) -> Result<usize, CoreError> {
    let mut phase_max = 1usize;
    for (i, value) in a_tilde.iter_mut().enumerate() {
        let msg = Message::ATilde {
            frontend: i,
            datacenter: j,
            value: *value,
        };
        let delivered = transmit_data(stats, tracker, integrity, &msg, i, j, k, &mut phase_max)?;
        if let Some(v) = delivered {
            *value = v;
        }
    }
    Ok(phase_max)
}

/// Records every node's residual report and max-reduces the three
/// residuals (NaN-sticky, so a poisoned iterate cannot hide — see
/// [`NodeResiduals::fold_into`]); the stop decision itself belongs to the
/// unified driver (`ufc_core::engine::drive`), which applies the tolerance
/// tests and hands the verdict back through [`record_control`]. Also
/// returns the first node whose report is non-finite — the divergence
/// gate's suspect.
pub(crate) fn reduce_residuals(
    stats: &mut MessageStats,
    fe: &[NodeResiduals],
    dc: &[Option<NodeResiduals>],
) -> (BlockResiduals, Option<NodeId>) {
    let mut reduced = BlockResiduals::default();
    let mut suspect = None;
    let m = fe.len();
    let all = fe
        .iter()
        .map(|r| Some(*r))
        .chain(dc.iter().copied())
        .enumerate();
    for (node, r) in all {
        let Some(r) = r else { continue };
        stats.record(&Message::ResidualReport {
            node,
            link: r.link,
            balance: r.balance,
            movement: r.movement,
        });
        r.fold_into(&mut reduced);
        let finite = r.link.is_finite() && r.balance.is_finite() && r.movement.is_finite();
        if suspect.is_none() && !finite {
            suspect = Some(if node < m {
                NodeId::Frontend(node)
            } else {
                NodeId::Datacenter(node - m)
            });
        }
    }
    (reduced, suspect)
}

/// Accounts the coordinator's continue/stop broadcast to every live node.
pub(crate) fn record_control(stats: &mut MessageStats, stop: bool, node_count: usize) {
    for _ in 0..node_count {
        stats.record(&Message::Control { stop });
    }
}

/// The gathered final iterate: per-front-end λ rows, per-datacenter μ,
/// and the storage column `d` (all zeros when the schedule has no storage
/// block).
pub(crate) type Gathered = (Vec<Vec<f64>>, Vec<f64>, Vec<f64>);

/// Polishes the gathered iterate into a feasible point and evaluates it
/// (same repair as the in-memory solver).
fn finish(
    instance: &UfcInstance,
    (lambda_rows, mu, d): Gathered,
    fuel_cell_only: bool,
) -> Result<(OperatingPoint, UfcBreakdown), CoreError> {
    let mut state = AdmgState::zeros(instance);
    for (i, row) in lambda_rows.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            let k = state.idx(i, j);
            state.lambda[k] = v;
        }
    }
    state.mu = mu;
    state.d = d;
    let point = assemble_point(instance, &state, fuel_cell_only)?;
    let breakdown = evaluate(instance, &point)?;
    Ok((point, breakdown))
}

/// A finished run's accounting, read off the coordinator state that every
/// engine keeps. [`Tally::into_report`] turns it into the report by one
/// rule for all engines.
pub(crate) struct Tally {
    pub(crate) stats: MessageStats,
    pub(crate) fault: FaultReport,
    /// Whether the plan scripts no node-level fault
    /// ([`crate::FaultPlan::is_trivial`]).
    pub(crate) trivial_plan: bool,
    pub(crate) evicted: Vec<bool>,
    /// Whole phases lost to partitions and resends.
    pub(crate) stall_phases: f64,
    /// Resent dropped copies.
    pub(crate) retransmissions: usize,
    /// Integrity counters, reported iff `report_integrity`.
    pub(crate) counters: IntegrityCounters,
    /// Whether the report carries the integrity counters: the integrity
    /// layer ran, or the socket fleet counted something of its own.
    pub(crate) report_integrity: bool,
    /// Command frames sent and the socket writes that carried them (socket
    /// engine only).
    pub(crate) frames: (u64, u64),
    /// Solver-layer counters of the node kernels and the worker pool. Only
    /// the inline fleet can read them; on the thread and process fleets the
    /// kernels are gone with their carriers, and these stay zero.
    pub(crate) solver: SolverCounters,
}

impl Tally {
    /// Reads the accounting off an engine's coordinator state.
    pub(crate) fn new(
        stats: MessageStats,
        tracker: &FaultTracker,
        integrity: &IntegrityState,
        stall_phases: f64,
    ) -> Self {
        Tally {
            stats,
            fault: tracker.report.clone(),
            trivial_plan: tracker.plan().is_trivial(),
            evicted: tracker.evicted_mask(),
            stall_phases,
            retransmissions: integrity.retransmissions,
            counters: integrity.counters,
            report_integrity: integrity.active(),
            frames: (0, 0),
            solver: SolverCounters::default(),
        }
    }

    /// Polishes the gathered iterate and assembles the report. One rule for
    /// every engine: the WAN estimate is four latency-bound phases per
    /// iteration plus recovery, straggler and stall time, and the fault
    /// section — in the report and in the telemetry alike — exists iff the
    /// plan scripts node faults or the run took checkpoints.
    ///
    /// # Errors
    ///
    /// [`CoreError::Model`] if the point cannot be polished or evaluated.
    pub(crate) fn into_report(
        self,
        instance: &UfcInstance,
        outcome: DriveOutcome,
        gathered: Gathered,
        fuel_cell_only: bool,
        telemetry: Option<RunTelemetry>,
    ) -> Result<DistRunReport, CoreError> {
        let (point, breakdown) = finish(instance, gathered, fuel_cell_only)?;
        let estimated =
            estimated_wan_seconds_live(outcome.iterations, &instance.latency_s, &self.evicted)
                + self.fault.downtime_seconds
                + self.fault.straggler_seconds
                + self.stall_phases * max_live_latency(&instance.latency_s, &self.evicted);
        let integrity = self.report_integrity.then_some(self.counters);
        let fault = (!self.trivial_plan || self.fault.checkpoints_taken > 0).then_some(self.fault);
        let telemetry = telemetry.map(|mut t| {
            let (frames_sent, socket_writes) = self.frames;
            t.traffic = Some(TrafficCounters {
                data_messages: self.stats.data_messages as u64,
                control_messages: self.stats.control_messages as u64,
                total_bytes: self.stats.total_bytes as u64,
                retransmissions: self.retransmissions as u64,
                frames_sent,
                socket_writes,
            });
            t.solver = self.solver;
            t.fault = fault.as_ref().map(FaultReport::counters);
            t.integrity = integrity;
            t
        });
        Ok(DistRunReport {
            point,
            breakdown,
            iterations: outcome.iterations,
            converged: outcome.converged,
            stats: self.stats,
            estimated_wan_seconds: estimated,
            retransmissions: self.retransmissions,
            fault,
            integrity,
            telemetry,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CorruptionConfig;

    #[test]
    fn only_node_faults_or_checkpoints_buffer_history() {
        let clean = FaultPlan::none();
        assert!(!buffers_history(&clean));
        assert!(!buffers_history(
            &clean.clone().with_corruption(CorruptionConfig::new(0.1, 1))
        ));
        assert!(buffers_history(&clean.clone().with_checkpoint_interval(4)));
        assert!(buffers_history(&clean.crash_and_recover(
            NodeId::Datacenter(0),
            3,
            1
        )));
        assert!(buffers_history(&FaultPlan::new()), "checkpoints by default");
    }
}
