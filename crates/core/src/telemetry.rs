//! Run telemetry for the unified ADM-G driver: per-phase wall-clock
//! histograms, solver counters, and distributed traffic/fault counters,
//! with a JSONL event sink — all std-only.
//!
//! The layer is strictly *observational*. Its contract, asserted by the
//! `telemetry_inertness` integration test and DESIGN.md §11:
//!
//! * **Disabled ⇒ untouched.** The driver reads
//!   [`IterationObserver::wants_phase_timings`] once per run; when `false`
//!   it never reads the clock, so a telemetry-disabled run executes the
//!   exact pre-telemetry instruction stream on the numeric path.
//! * **Enabled ⇒ inert.** Clock reads happen between phases and flow only
//!   outward into a [`RunTelemetry`]; counters are reads of bookkeeping the
//!   solver layers already maintain. Nothing feeds back into the iterates,
//!   so enabling telemetry keeps the iterate stream bit-identical.
//!
//! [`TelemetryCollector`] aggregates a run into a [`RunTelemetry`];
//! [`JsonlSink`] streams one JSON object per iteration; [`ObserverChain`]
//! composes either with any other observer (e.g. the solver's
//! `HistoryRecorder`).

use std::io::{self, Write};
use std::time::Duration;

use crate::engine::{BlockOwner, IterationEvent, IterationObserver};

/// The driver phases of one ADM-G iteration, in execution order. The
/// prediction phases are keyed by the owning deployment side
/// ([`BlockOwner`]) — the unit the schedule-driven driver actually
/// sequences — rather than by block name, so the same five phases cover
/// both the classic 4-block and the 5-block storage schedules
/// (`BlockSchedule::phases` derives exactly this list for both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Pre-phase bookkeeping (`Transport::begin_iteration`).
    Begin,
    /// One fused prediction phase: every block the owner holds, plus (for
    /// datacenters) the dual prediction (`Transport::predict_phase`).
    Predict(BlockOwner),
    /// Gaussian back substitution + residual reduction (`Transport::correct`).
    Correct,
    /// Control broadcast and checkpointing (`Transport::finish_iteration`).
    FinishIteration,
}

impl Phase {
    /// All phases, in driver execution order.
    pub const ALL: [Phase; 5] = [
        Phase::Begin,
        Phase::Predict(BlockOwner::FrontEnd),
        Phase::Predict(BlockOwner::Datacenter),
        Phase::Correct,
        Phase::FinishIteration,
    ];

    /// Stable snake_case name (used as the JSON key). The prediction
    /// phases keep their historical keys — `predict_lambda` for the
    /// front-end phase, `step_datacenters` for the datacenter phase — so
    /// existing trace consumers keep parsing.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Begin => "begin",
            Phase::Predict(BlockOwner::FrontEnd) => "predict_lambda",
            Phase::Predict(BlockOwner::Datacenter) => "step_datacenters",
            Phase::Correct => "correct",
            Phase::FinishIteration => "finish_iteration",
        }
    }

    /// Dense index into per-phase arrays, matching [`Phase::ALL`] order.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Phase::Begin => 0,
            Phase::Predict(BlockOwner::FrontEnd) => 1,
            Phase::Predict(BlockOwner::Datacenter) => 2,
            Phase::Correct => 3,
            Phase::FinishIteration => 4,
        }
    }
}

/// Number of log₂ duration buckets a [`PhaseHistogram`] keeps: bucket `b`
/// counts durations in `[2^b, 2^(b+1))` nanoseconds, so the range spans
/// 1 ns up to ~18 minutes with everything longer clamped into the last
/// bucket.
const HISTOGRAM_BUCKETS: usize = 40;

/// Wall-clock histogram of one driver phase across a run's iterations:
/// count/total/min/max plus log₂-of-nanoseconds buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseHistogram {
    count: u64,
    total_ns: u128,
    min_ns: u64,
    max_ns: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for PhaseHistogram {
    fn default() -> Self {
        PhaseHistogram {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl PhaseHistogram {
    /// Records one phase duration.
    pub fn record(&mut self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.count += 1;
        self.total_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        // log₂ bucket: 0 ns and 1 ns land in bucket 0.
        let bucket = (63 - ns.max(1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket] += 1;
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations, in nanoseconds.
    #[must_use]
    pub fn total_ns(&self) -> u128 {
        self.total_ns
    }

    /// Shortest recorded duration in nanoseconds (0 when empty).
    #[must_use]
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Longest recorded duration in nanoseconds.
    #[must_use]
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean duration in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// The non-empty log₂ buckets as `(exponent, count)` pairs: bucket
    /// `(b, c)` means `c` samples fell in `[2^b, 2^(b+1))` ns.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (b as u32, c))
            .collect()
    }

    fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .nonzero_buckets()
            .into_iter()
            .map(|(b, c)| format!("[{b},{c}]"))
            .collect();
        format!(
            "{{\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{},\"log2_ns_buckets\":[{}]}}",
            self.count,
            self.total_ns,
            self.min_ns(),
            self.max_ns,
            buckets.join(",")
        )
    }
}

/// Counters surfaced from the solver layers that already track them — the
/// KKT solves (dense through the factorization cache, or Sherman–Morrison),
/// the warm-start gates, and the worker pool.
/// Zero for engines that cannot observe a layer (e.g. the threaded engine's
/// per-node kernels die with their worker threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverCounters {
    /// KKT factorizations served from the memo (`opt::KktCache`).
    pub kkt_cache_hits: u64,
    /// KKT lookups that required a fresh factorization.
    pub kkt_cache_misses: u64,
    /// KKT systems solved by the Sherman–Morrison rank-1 path, which
    /// bypasses the factorization cache.
    pub kkt_rank1_solves: u64,
    /// Warm starts that passed the feasibility gates and seeded a solve.
    pub warm_starts_accepted: u64,
    /// Warm starts rejected by the gates (cold-started instead).
    pub warm_starts_rejected: u64,
    /// Items dispatched through `WorkerPool::map_mut` fan-outs.
    pub pool_tasks: u64,
    /// `WorkerPool::map_mut` fan-outs run.
    pub pool_maps: u64,
}

impl SolverCounters {
    fn to_json(self) -> String {
        format!(
            "{{\"kkt_cache_hits\":{},\"kkt_cache_misses\":{},\"kkt_rank1_solves\":{},\
             \"warm_starts_accepted\":{},\"warm_starts_rejected\":{},\"pool_tasks\":{},\
             \"pool_maps\":{}}}",
            self.kkt_cache_hits,
            self.kkt_cache_misses,
            self.kkt_rank1_solves,
            self.warm_starts_accepted,
            self.warm_starts_rejected,
            self.pool_tasks,
            self.pool_maps
        )
    }
}

/// Message-traffic counters of a distributed run, folded in from
/// `ufc_distsim`'s `MessageStats` (plain-typed here: core cannot depend on
/// distsim).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficCounters {
    /// λ̃/ã data messages.
    pub data_messages: u64,
    /// Residual reports and control broadcasts.
    pub control_messages: u64,
    /// Total bytes on the wire.
    pub total_bytes: u64,
    /// Loss-induced retransmissions.
    pub retransmissions: u64,
    /// Command frames the socket coordinator sent (0 on every other
    /// engine).
    pub frames_sent: u64,
    /// Socket writes that carried those frames: one per worker process
    /// per fan-out (0 on every other engine).
    pub socket_writes: u64,
}

impl TrafficCounters {
    fn to_json(self) -> String {
        format!(
            "{{\"data_messages\":{},\"control_messages\":{},\"total_bytes\":{},\
             \"retransmissions\":{},\"frames_sent\":{},\"socket_writes\":{}}}",
            self.data_messages,
            self.control_messages,
            self.total_bytes,
            self.retransmissions,
            self.frames_sent,
            self.socket_writes
        )
    }
}

/// Fault-handling counters of a supervised run, folded in from
/// `ufc_distsim`'s `FaultReport`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultCounters {
    /// Crash-stop failures resolved (recoveries + evictions).
    pub crashes_resolved: u64,
    /// Scripted straggler delays charged.
    pub stragglers_observed: u64,
    /// Wall-clock charged to crash detection and recovery, in seconds.
    pub downtime_seconds: f64,
    /// Wall-clock charged to straggler delays, in seconds.
    pub straggler_seconds: f64,
    /// Iterations recomputed during checkpoint-restart replays.
    pub recomputed_iterations: u64,
    /// Checkpoints taken (periodic + forced).
    pub checkpoints_taken: u64,
    /// Datacenter evictions.
    pub evictions: u64,
    /// Datacenter readmissions after eviction.
    pub readmissions: u64,
    /// Extra message copies sent around partition windows.
    pub partition_retransmissions: u64,
}

impl FaultCounters {
    fn to_json(self) -> String {
        format!(
            "{{\"crashes_resolved\":{},\"stragglers_observed\":{},\"downtime_seconds\":{},\
             \"straggler_seconds\":{},\"recomputed_iterations\":{},\"checkpoints_taken\":{},\
             \"evictions\":{},\"readmissions\":{},\"partition_retransmissions\":{}}}",
            self.crashes_resolved,
            self.stragglers_observed,
            json_f64(self.downtime_seconds),
            json_f64(self.straggler_seconds),
            self.recomputed_iterations,
            self.checkpoints_taken,
            self.evictions,
            self.readmissions,
            self.partition_retransmissions
        )
    }
}

/// Data-integrity counters of a run with corruption injection, wire
/// checksums, or the divergence gate's rollback engaged — folded in from
/// `ufc_distsim`'s corruption channel and the driver's divergence guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntegrityCounters {
    /// Payloads the fault plan corrupted on the wire.
    pub corruptions_injected: u64,
    /// Corrupted payloads caught by the CRC32 verify-on-receive check.
    pub corruptions_detected: u64,
    /// Corrupted payloads delivered unverified (checksums off).
    pub corruptions_delivered: u64,
    /// Retransmissions triggered by failed checksum verification.
    pub checksum_retransmissions: u64,
    /// Divergence-gate trips (each either rolled back or fatal).
    pub divergence_trips: u64,
    /// Successful rollbacks to a finite checkpoint after a gate trip.
    pub rollbacks: u64,
    /// Transport connections re-established after a drop (socket runtime:
    /// ECONNRESET/EOF followed by a successful re-handshake).
    pub reconnects: u64,
    /// Nodes declared dead by the supervision deadline ladder (each then
    /// either respawned from checkpoint or evicted).
    pub dead_node_declarations: u64,
}

impl IntegrityCounters {
    /// `true` when every counter is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == IntegrityCounters::default()
    }

    fn to_json(self) -> String {
        format!(
            "{{\"corruptions_injected\":{},\"corruptions_detected\":{},\
             \"corruptions_delivered\":{},\"checksum_retransmissions\":{},\
             \"divergence_trips\":{},\"rollbacks\":{},\"reconnects\":{},\
             \"dead_node_declarations\":{}}}",
            self.corruptions_injected,
            self.corruptions_detected,
            self.corruptions_delivered,
            self.checksum_retransmissions,
            self.divergence_trips,
            self.rollbacks,
            self.reconnects,
            self.dead_node_declarations
        )
    }
}

/// The telemetry snapshot of one ADM-G run: per-phase timing histograms
/// plus the counter groups an engine could observe (`None` where the
/// engine has no such layer — e.g. `traffic` for the in-process solver).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunTelemetry {
    /// Iterations observed.
    pub iterations: u64,
    /// Per-phase wall-clock histograms, indexed by [`Phase::index`].
    pub phases: [PhaseHistogram; 5],
    /// Solver-layer counters (cache, warm starts, pool).
    pub solver: SolverCounters,
    /// Message-traffic counters (distributed engines only).
    pub traffic: Option<TrafficCounters>,
    /// Fault-handling counters (fault-aware runs only).
    pub fault: Option<FaultCounters>,
    /// Data-integrity counters (runs with corruption injection, checksums,
    /// or divergence rollback only).
    pub integrity: Option<IntegrityCounters>,
}

impl RunTelemetry {
    /// The histogram of one phase.
    #[must_use]
    pub fn phase(&self, phase: Phase) -> &PhaseHistogram {
        &self.phases[phase.index()]
    }

    /// Total wall-clock across all phases and iterations, in nanoseconds.
    #[must_use]
    pub fn total_ns(&self) -> u128 {
        self.phases.iter().map(PhaseHistogram::total_ns).sum()
    }

    /// The run summary as one JSON object (`"type":"summary"`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let phases: Vec<String> = Phase::ALL
            .iter()
            .map(|&p| format!("\"{}\":{}", p.name(), self.phase(p).to_json()))
            .collect();
        let traffic = self
            .traffic
            .map_or_else(|| "null".to_string(), |t| t.to_json());
        let fault = self
            .fault
            .map_or_else(|| "null".to_string(), |f| f.to_json());
        let integrity = self
            .integrity
            .map_or_else(|| "null".to_string(), |i| i.to_json());
        format!(
            "{{\"type\":\"summary\",\"iterations\":{},\"phases\":{{{}}},\"solver\":{},\
             \"traffic\":{},\"fault\":{},\"integrity\":{}}}",
            self.iterations,
            phases.join(","),
            self.solver.to_json(),
            traffic,
            fault,
            integrity
        )
    }
}

/// An [`IterationObserver`] that aggregates the run into a
/// [`RunTelemetry`] (phase histograms + iteration count; the counter
/// groups are filled in afterwards by whichever layer owns them).
#[derive(Debug, Clone, Default)]
pub struct TelemetryCollector {
    telemetry: RunTelemetry,
}

impl TelemetryCollector {
    /// The aggregated snapshot.
    #[must_use]
    pub fn into_telemetry(self) -> RunTelemetry {
        self.telemetry
    }
}

impl IterationObserver for TelemetryCollector {
    fn on_iteration(&mut self, _event: &IterationEvent) {
        self.telemetry.iterations += 1;
    }

    fn wants_phase_timings(&self) -> bool {
        true
    }

    fn on_phase(&mut self, _k: usize, phase: Phase, elapsed: Duration) {
        self.telemetry.phases[phase.index()].record(elapsed);
    }
}

/// Fans one event stream out to two observers (`first`, then `second`).
/// Phase timings are produced if *either* side wants them; a side that
/// does not want them still receives them, which is harmless — `on_phase`
/// defaults to a no-op.
#[derive(Debug, Clone, Default)]
pub struct ObserverChain<A, B>(pub A, pub B);

impl<A: IterationObserver, B: IterationObserver> IterationObserver for ObserverChain<A, B> {
    fn on_iteration(&mut self, event: &IterationEvent) {
        self.0.on_iteration(event);
        self.1.on_iteration(event);
    }

    fn wants_phase_timings(&self) -> bool {
        self.0.wants_phase_timings() || self.1.wants_phase_timings()
    }

    fn on_phase(&mut self, k: usize, phase: Phase, elapsed: Duration) {
        self.0.on_phase(k, phase, elapsed);
        self.1.on_phase(k, phase, elapsed);
    }
}

/// Streams one JSON object per iteration (`"type":"iteration"`) to a
/// writer: the residuals/objective/stop decision plus the five phase
/// durations in nanoseconds.
///
/// `on_*` callbacks cannot return errors, so the first write error is
/// latched and surfaced by [`JsonlSink::finish`]; subsequent events are
/// dropped.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    pending_event: Option<IterationEvent>,
    pending_ns: [u128; 5],
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing JSON lines to `out`.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            pending_event: None,
            pending_ns: [0; 5],
            error: None,
        }
    }

    /// Returns the writer, or the first write error hit while streaming.
    ///
    /// # Errors
    ///
    /// The first `io::Error` any event write produced.
    pub fn finish(self) -> io::Result<W> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.out),
        }
    }

    fn emit_line(&mut self) {
        let Some(event) = self.pending_event.take() else {
            return;
        };
        if self.error.is_some() {
            return;
        }
        let phases: Vec<String> = Phase::ALL
            .iter()
            .map(|&p| format!("\"{}\":{}", p.name(), self.pending_ns[p.index()]))
            .collect();
        let line = format!(
            "{{\"type\":\"iteration\",\"iteration\":{},\"link_residual\":{},\
             \"balance_residual\":{},\"dual_residual\":{},\"objective\":{},\
             \"converged\":{},\"phase_ns\":{{{}}}}}",
            event.iteration,
            json_f64(event.link_residual),
            json_f64(event.balance_residual),
            json_f64(event.dual_residual),
            event.objective.map_or_else(|| "null".to_string(), json_f64),
            event.converged,
            phases.join(",")
        );
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
        }
        self.pending_ns = [0; 5];
    }
}

impl<W: Write> IterationObserver for JsonlSink<W> {
    fn on_iteration(&mut self, event: &IterationEvent) {
        self.pending_event = Some(*event);
    }

    fn wants_phase_timings(&self) -> bool {
        true
    }

    fn on_phase(&mut self, _k: usize, phase: Phase, elapsed: Duration) {
        self.pending_ns[phase.index()] = elapsed.as_nanos();
        // `finish_iteration` is the last phase event of an iteration (the
        // driver emits it even on the stopping iteration), so the buffered
        // line is complete here.
        if phase == Phase::FinishIteration {
            self.emit_line();
        }
    }
}

/// Formats an `f64` as a JSON number token: Rust's `Display` never emits
/// scientific notation for `f64`, and non-finite values (invalid JSON)
/// become `null`.
#[must_use]
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        // Keep the token a JSON *number* (Display prints integral floats
        // without a fractional part).
        if s.contains('.') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_count_extrema_and_buckets() {
        let mut h = PhaseHistogram::default();
        assert_eq!(h.min_ns(), 0);
        h.record(Duration::from_nanos(3));
        h.record(Duration::from_nanos(1000));
        h.record(Duration::from_nanos(1));
        assert_eq!(h.count(), 3);
        assert_eq!(h.min_ns(), 1);
        assert_eq!(h.max_ns(), 1000);
        assert_eq!(h.total_ns(), 1004);
        // 1 → bucket 0, 3 → bucket 1, 1000 → bucket 9.
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (9, 1)]);
        assert!((h.mean_ns() - 1004.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn chain_merges_wants_and_forwards_both() {
        let chain = ObserverChain((), TelemetryCollector::default());
        assert!(chain.wants_phase_timings());
        let chain = ObserverChain((), ());
        assert!(!chain.wants_phase_timings());
    }

    #[test]
    fn jsonl_sink_emits_one_line_per_iteration() {
        let mut sink = JsonlSink::new(Vec::new());
        let event = IterationEvent {
            iteration: 0,
            link_residual: 0.5,
            balance_residual: 0.25,
            dual_residual: 1.0,
            objective: None,
            converged: false,
        };
        for phase in Phase::ALL {
            if phase == Phase::Correct {
                sink.on_iteration(&event);
            }
            sink.on_phase(1, phase, Duration::from_nanos(7));
        }
        let out = sink.finish().expect("vec writes cannot fail");
        let line = String::from_utf8(out).expect("ascii json");
        assert_eq!(line.matches('\n').count(), 1);
        assert!(line.contains("\"type\":\"iteration\""));
        assert!(line.contains("\"objective\":null"));
        assert!(line.contains("\"finish_iteration\":7"));
    }

    #[test]
    fn json_f64_tokens_are_valid_json() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        // Display never switches to scientific notation for f64.
        assert!(!json_f64(1e-300).contains('e'));
    }

    #[test]
    fn summary_json_carries_all_sections() {
        let mut t = RunTelemetry {
            iterations: 2,
            ..RunTelemetry::default()
        };
        t.phases[Phase::Correct.index()].record(Duration::from_micros(5));
        t.traffic = Some(TrafficCounters {
            data_messages: 80,
            ..TrafficCounters::default()
        });
        let json = t.to_json();
        assert!(json.starts_with("{\"type\":\"summary\""));
        assert!(json.contains("\"correct\":{\"count\":1"));
        assert!(json.contains("\"data_messages\":80"));
        assert!(json.contains("\"socket_writes\":0}"));
        assert!(json.contains("\"kkt_rank1_solves\":0,"));
        assert!(json.contains("\"fault\":null"));
        assert!(json.contains("\"integrity\":null"));
    }

    #[test]
    fn integrity_counters_serialize_and_detect_zero() {
        assert!(IntegrityCounters::default().is_zero());
        let c = IntegrityCounters {
            corruptions_injected: 3,
            corruptions_detected: 2,
            corruptions_delivered: 1,
            checksum_retransmissions: 2,
            divergence_trips: 1,
            rollbacks: 1,
            reconnects: 2,
            dead_node_declarations: 1,
        };
        assert!(!c.is_zero());
        let t = RunTelemetry {
            integrity: Some(c),
            ..RunTelemetry::default()
        };
        let json = t.to_json();
        assert!(json.contains("\"corruptions_injected\":3"));
        assert!(json.contains("\"checksum_retransmissions\":2"));
        assert!(json.contains("\"rollbacks\":1"));
        assert!(json.contains("\"reconnects\":2"));
        assert!(json.contains("\"dead_node_declarations\":1"));
    }
}
