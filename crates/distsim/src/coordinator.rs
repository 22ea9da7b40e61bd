//! Coordinator-side helpers shared by the three distributed engines.
//!
//! Everything here is transport-independent bookkeeping: traffic recording
//! (with drop, corruption and partition relay accounting), plan-driven
//! straggler charging, residual reduction, replay-history filtering, and
//! the final gather→polish→report step ([`Tally::into_report`]). The
//! lockstep engine (`crate::engine_lockstep`), the supervised threaded
//! engine (`crate::engine_threaded`) and the socket engine
//! (`crate::engine_socket`) all call into these, so the engines stay
//! decision-for-decision identical by construction.

use ufc_core::engine::{BlockResiduals, DriveOutcome};
use ufc_core::repair::assemble_point;
use ufc_core::telemetry::{IntegrityCounters, RunTelemetry, TrafficCounters};
use ufc_core::{AdmgState, CoreError};
use ufc_model::{evaluate, OperatingPoint, UfcBreakdown, UfcInstance};

use crate::fault::{FaultReport, FaultTracker, IntegrityState, NodeId};
use crate::message::{Message, CHECKSUM_OVERHEAD_BYTES};
use crate::node::{nan_max, NodeResiduals};
use crate::runtime::DistRunReport;
use crate::stats::{estimated_wan_seconds_live, MessageStats};

/// One iteration's inputs, buffered for checkpoint-restart replay.
pub(crate) struct HistoryEntry {
    /// The (1-based) iteration these inputs belong to.
    pub(crate) iteration: usize,
    /// Per-front-end λ̃ rows.
    pub(crate) rows: Vec<Vec<f64>>,
    /// Per-datacenter ã columns.
    pub(crate) a_cols: Vec<Vec<f64>>,
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

/// Worst *live* link latency in the deployment — the per-phase stall unit.
/// Links to evicted datacenters carry no traffic in degraded mode, so they
/// are excluded; with every datacenter evicted the stall unit is 0.
pub(crate) fn max_latency(instance: &UfcInstance, evicted: &[bool]) -> f64 {
    instance
        .latency_s
        .iter()
        .flat_map(|row| {
            row.iter()
                .enumerate()
                .filter(|&(j, _)| !evicted.get(j).copied().unwrap_or(false))
                .map(|(_, &l)| l)
        })
        .fold(0.0f64, f64::max)
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
/// [`nan_max`]); the stop decision itself belongs to the unified driver
/// (`ufc_core::engine::drive`), which applies the tolerance tests and
/// hands the verdict back through [`record_control`]. Also returns the
/// first node whose report is non-finite — the divergence gate's suspect.
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
        reduced.link = nan_max(reduced.link, r.link);
        reduced.balance = nan_max(reduced.balance, r.balance);
        reduced.movement = nan_max(reduced.movement, r.movement);
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
    /// Integrity counters, when the integrity layer ran.
    pub(crate) integrity: Option<IntegrityCounters>,
    /// Command frames sent and the socket writes that carried them (socket
    /// engine only).
    pub(crate) frames: (u64, u64),
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
            integrity: integrity.active().then_some(integrity.counters),
            frames: (0, 0),
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
                + self.stall_phases * max_latency(instance, &self.evicted);
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
            t.fault = fault.as_ref().map(FaultReport::counters);
            t.integrity = self.integrity;
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
            integrity: self.integrity,
            telemetry,
        })
    }
}
