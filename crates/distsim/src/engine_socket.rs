//! The multi-process socket engine as a `Transport` for the unified ADM-G
//! driver (`ufc_core::engine::drive`).
//!
//! Each worker is a real OS process (the `ufc-node` binary, running
//! [`crate::worker::run_worker`]) connected to the coordinator over TCP —
//! loopback by default, or any [`crate::wire::BindConfig`] listen address
//! when a shared [`crate::wire::AuthKey`] is configured. The coordinator
//! accepts connections on a background acceptor thread, validates the
//! handshake (a `Hello` session check on loopback; a challenge–response
//! keyed MAC when authentication is on — see DESIGN.md §17), answers with
//! the serialized run configuration, and spawns one I/O pump thread per
//! connection that reassembles wire frames ([`crate::wire::FrameBuffer`])
//! and feeds decoded replies into the same mpsc channel the threaded
//! engine's `gather_phase` ladder drains — the deadline ladder, fault
//! tracker, checkpoint store, and replay buffer are shared with
//! `crate::engine_threaded` verbatim. A hostile peer (wrong key, replayed
//! or truncated handshake, downgrade attempt) is dropped before any
//! iteration state is exchanged and the acceptor keeps serving honest
//! workers.
//!
//! A [`crate::fault::CorruptionConfig`] pinned to a wire-level
//! [`crate::fault::CorruptionKind`] arms seeded [`WireChaos`] interceptors
//! at the coordinator's side of every connection — conceptually the
//! coordinator's NIC boundary, covering both directions: outgoing command
//! frames and incoming reply payloads. Truncated frames keep a coherent
//! length prefix but an impossible CRC, so the receiver `Nak`s and the
//! sender retransmits the cached clean bytes; duplicates are absorbed by
//! the receivers' duplicate guards; reordered replies are held and
//! delivered after their successor. The iterate stream therefore stays
//! bit-identical to a clean run while every injection is counted and
//! detected.
//!
//! Faults here are real: a scripted crash is a `SIGKILL` delivered to the
//! live worker process mid-iteration (`Child::kill`), a partition window
//! tears down the affected TCP connections so the workers must
//! reconnect-with-backoff, and liveness is `Child::try_wait` — the actual
//! OS process table, not a thread flag. Recovery is the same
//! checkpoint-restart protocol: the ladder declares the silent process
//! dead, [`crate::fault::FaultTracker`] decides respawn-vs-evict, and a
//! respawned process is rebuilt from the last verified snapshot
//! ([`crate::wire::NodeCmd::Restore`]) plus input replay, bit-identical to
//! the state the killed process would have held.
//!
//! Under a clean plan (see [`pipelines`]) a front-end's prediction for
//! iteration k + 1 rides in the same write as its correction for k, so an
//! iteration costs two coordinator round trips instead of three. Every
//! other plan keeps the sequential order its faults are scripted against.

use std::cell::RefCell;
use std::collections::HashSet;
use std::fs::File;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use ufc_core::engine::{drive, BlockResiduals, IterationObserver, Transport};
use ufc_core::telemetry::{IntegrityCounters, ObserverChain, TelemetryCollector, TrafficCounters};
use ufc_core::{AdmgSettings, BlockKind, BlockSchedule, CoreError};
use ufc_model::UfcInstance;

use crate::coordinator::{
    account_stragglers, column_of, finish, max_latency, record_a_traffic, record_control,
    record_lambda_traffic, reduce_residuals, replay_entries, row_of, HistoryEntry,
};
use crate::fault::{
    CorruptionConfig, FaultPlan, FaultTracker, IntegrityState, NodeId, Resolution, WireChaos,
    WireVerdict,
};
use crate::message::Message;
use crate::node::{DatacenterNode, NodeResiduals};
use crate::runtime::{DistRunReport, SocketOptions};
use crate::snapshot::{CheckpointStore, DatacenterSnapshot, FrontendSnapshot};
use crate::stats::{estimated_wan_seconds_live, MessageStats};
use crate::supervision::{gather_phase, Reply};
use crate::wire::{
    process_of, sha256, verify_auth_hello, AuthKey, FrameBuffer, NodeCmd, RunConfig, WireFrame,
};

/// How long the coordinator waits for a spawned worker to complete the
/// `Hello`/`Welcome` handshake before declaring the spawn failed. Covers
/// process startup plus the worker's own connect backoff.
const REGISTRATION_DEADLINE: Duration = Duration::from_secs(10);

/// Grace period for workers to exit after a `Shutdown` frame before the
/// coordinator falls back to `SIGKILL` at teardown.
const EXIT_GRACE: Duration = Duration::from_secs(2);

/// First and longest sleep between `try_wait` polls while reaping a worker
/// at teardown. Workers usually exit within a millisecond of `Shutdown`,
/// so the poll starts short and doubles up to the cap.
const REAP_POLL_START: Duration = Duration::from_micros(50);
const REAP_POLL_CAP: Duration = Duration::from_millis(10);

/// Runs the socket engine under a fault plan. A trivial plan reduces to
/// the clean multi-process runtime: no kills, no drops, and a report
/// bit-identical to the lockstep engine's.
pub(crate) fn run_socket_engine(
    settings: &AdmgSettings,
    instance: &UfcInstance,
    active_mu: bool,
    active_nu: bool,
    plan: FaultPlan,
    options: &SocketOptions,
    observer: &mut dyn IterationObserver,
) -> Result<DistRunReport, CoreError> {
    let tolerances = settings.scaled_tolerances(instance);
    let mut sup = SocketSupervisor::new(instance, *settings, active_mu, active_nu, plan, options)?;
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
    // by shutdown; the error path still tears down every worker process.
    let stats = sup.stats;
    let fault_report = sup.tracker.report.clone();
    let plan_trivial = sup.tracker.plan().is_trivial();
    let evicted = sup.tracker.evicted_mask();
    let stall_phases = sup.stall_phases;
    let mut counters = sup.integrity.counters;
    let integrity_active = sup.integrity.active();
    let (frames_sent, socket_writes) = {
        let egress = sup.egress.borrow();
        (egress.frames_sent, egress.socket_writes)
    };
    let wire_shared = sup.wire_shared.clone();
    let shutdown = sup.shutdown();
    // With every pump joined by shutdown, the wire-chaos counters are
    // final: fold them into the run's integrity accounting, and let a
    // pump's typed error (reply retransmit budget exhausted on a real
    // connection) outrank the dead-node verdict its silence produced.
    if let Some(shared) = &wire_shared {
        if let Ok(wire) = shared.counters.lock() {
            counters.corruptions_injected += wire.corruptions_injected;
            counters.corruptions_detected += wire.corruptions_detected;
            counters.checksum_retransmissions += wire.checksum_retransmissions;
        }
    }
    let socket_activity = counters.reconnects > 0 || counters.dead_node_declarations > 0;
    let integrity =
        (integrity_active || wire_shared.is_some() || socket_activity).then_some(counters);
    let (outcome, lambda_rows, mu, d) = outcome.map_err(|e| {
        wire_shared
            .as_ref()
            .and_then(|shared| shared.error.lock().ok().and_then(|mut slot| slot.take()))
            .unwrap_or(e)
    })?;
    shutdown?;

    let (point, breakdown) = finish(instance, lambda_rows, mu, d, !active_nu)?;
    let estimated = estimated_wan_seconds_live(outcome.iterations, &instance.latency_s, &evicted)
        + fault_report.downtime_seconds
        + fault_report.straggler_seconds
        + stall_phases * max_latency(instance, &evicted);
    let report_fault = !plan_trivial || fault_report.checkpoints_taken > 0;
    let telemetry = collector.map(|c| {
        let mut t = c.into_telemetry();
        // Solver counters stay zero: the per-node kernels live in other OS
        // processes. Use the lockstep engine (bit-identical) to observe the
        // solver layer.
        t.traffic = Some(TrafficCounters {
            data_messages: stats.data_messages as u64,
            control_messages: stats.control_messages as u64,
            total_bytes: stats.total_bytes as u64,
            retransmissions: 0,
            frames_sent,
            socket_writes,
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

/// A completed handshake delivered by the acceptor thread: the stream the
/// coordinator sends commands on, plus the pump thread that is already
/// forwarding the worker's replies.
struct Registration {
    process: usize,
    incarnation: u32,
    stream: TcpStream,
    pump: JoinHandle<()>,
}

/// State shared between the supervisor and every pump when wire-level
/// chaos is armed: the fold-at-the-end counters and the first typed error
/// a pump hit (a reply frame that stayed corrupt past the retransmit
/// budget).
#[derive(Default)]
struct WireShared {
    counters: Mutex<IntegrityCounters>,
    error: Mutex<Option<CoreError>>,
}

/// Deterministic per-connection RNG salt: process index × direction, so
/// every pump and every egress interceptor draws an independent but
/// reproducible chaos stream from one [`CorruptionConfig::seed`].
fn wire_salt(process: usize, ingress: bool) -> u64 {
    (2 * process as u64 + u64::from(ingress) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Everything the acceptor thread needs to complete a handshake: the
/// legacy session check, the optional challenge–response key (plus the
/// run-config digest the MAC binds), and the ingress-chaos plumbing handed
/// to each validated connection's pump.
struct AcceptorState {
    session: u64,
    welcome: Arc<Vec<u8>>,
    config_digest: [u8; 32],
    auth: Option<AuthState>,
    wire: Option<WireIngressSetup>,
}

/// The acceptor's half of authentication: the shared key, and the kernel
/// CSPRNG each challenge nonce is read from.
struct AuthState {
    key: AuthKey,
    urandom: File,
}

/// Opens `/dev/urandom` and reads one nonce's worth from it, so that an
/// authenticated coordinator without a working CSPRNG fails typed before
/// it listens rather than at its first challenge.
fn open_urandom() -> Result<File, CoreError> {
    let mut probe = [0u8; 32];
    File::open("/dev/urandom")
        .and_then(|mut file| file.read_exact(&mut probe).map(|()| file))
        .map_err(|e| {
            CoreError::node_failure(
                "coordinator",
                0,
                format!("cannot read challenge nonces from /dev/urandom: {e}"),
            )
        })
}

/// How the coordinator launches a worker process: the binary, the address
/// and session it dials, and the key it must prove.
struct WorkerLauncher {
    path: PathBuf,
    addr: String,
    session: u64,
    /// The shared key as 64 hex digits. It reaches the worker through a
    /// stdin pipe, never argv, which any local user can read from `/proc`.
    auth_hex: Option<String>,
}

impl WorkerLauncher {
    /// The command line for process slot `p` at `incarnation`. An
    /// authenticated worker gets `--auth-key-stdin` and a piped stdin.
    fn command(&self, p: usize, incarnation: u32) -> Command {
        let mut command = Command::new(&self.path);
        command
            .arg("--connect")
            .arg(&self.addr)
            .arg("--process")
            .arg(p.to_string())
            .arg("--session")
            .arg(self.session.to_string())
            .arg("--incarnation")
            .arg(incarnation.to_string());
        let stdin = if self.auth_hex.is_some() {
            command.arg("--auth-key-stdin");
            Stdio::piped()
        } else {
            Stdio::null()
        };
        command.stdin(stdin).stdout(Stdio::null());
        command
    }

    /// Launches the worker for process slot `p`, writes the key (if any)
    /// to its stdin and closes the pipe.
    fn spawn(&self, p: usize, incarnation: u32) -> Result<Child, CoreError> {
        let failure = |what: String| CoreError::node_failure(format!("process-{p}"), 0, what);
        let mut child = self
            .command(p, incarnation)
            .spawn()
            .map_err(|e| failure(format!("cannot spawn {}: {e}", self.path.display())))?;
        if let (Some(hex), Some(mut stdin)) = (&self.auth_hex, child.stdin.take()) {
            if let Err(e) = writeln!(stdin, "{hex}") {
                let _ = child.kill();
                let _ = child.wait();
                return Err(failure(format!("cannot pass the auth key on stdin: {e}")));
            }
        }
        Ok(child)
    }
}

/// Whether a run under `plan` sends each front-end's next prediction in
/// the same fan-out as its correction. Only a clean plan does: a scripted
/// kill must land before its victim predicts, a rollback must restore in
/// place before any node predicts on a poisoned iterate (and a prediction
/// on NaN state ends its worker), a snapshot must record the corrected
/// iterate, and a readmission changes the next prediction.
fn pipelines(plan: &FaultPlan) -> bool {
    plan.is_trivial() && plan.corruption.is_none() && plan.checkpoint_interval == 0
}

/// Ingress-side wire-chaos plumbing, cloned into each pump at handshake.
struct WireIngressSetup {
    corruption: CorruptionConfig,
    shared: Arc<WireShared>,
    last_sent: Vec<Arc<Mutex<Vec<u8>>>>,
}

/// Per-pump wire-chaos state (only allocated when a wire-level kind is
/// pinned): the ingress interceptor, the cached clean bytes of the last
/// command sent on this connection (for `Nak`-triggered resends), the
/// shared counters/error slot, and the per-frame retransmit budget.
struct PumpWire {
    chaos: WireChaos,
    last_sent: Arc<Mutex<Vec<u8>>>,
    shared: Arc<WireShared>,
    max_retransmits: u32,
}

/// The coordinator's command egress: everything [`SocketSupervisor::send`]
/// keeps per worker process, plus its counters.
struct Egress {
    /// Command-direction chaos interceptors.
    chaos: Vec<Option<WireChaos>>,
    /// The frames of the fan-out being sent; each goes out in one write.
    batches: Vec<Vec<u8>>,
    /// `Cmd` frames handed to a live connection (a chaos duplicate is an
    /// injection, not a second frame).
    frames_sent: u64,
    /// Socket writes that carried them.
    socket_writes: u64,
}

/// The supervising coordinator of the multi-process runtime.
struct SocketSupervisor<'a> {
    instance: &'a UfcInstance,
    settings: AdmgSettings,
    active_mu: bool,
    active_nu: bool,
    m: usize,
    n: usize,
    processes: usize,
    launcher: WorkerLauncher,
    tracker: FaultTracker,
    store: CheckpointStore,
    history: Vec<HistoryEntry>,
    reply_rx: Receiver<Reply>,
    reg_rx: Receiver<Registration>,
    /// Live worker processes, one slot per process index. `RefCell`
    /// because liveness probing (`try_wait`) needs `&mut Child` from
    /// inside the gather ladder's `Fn` closure.
    children: Vec<RefCell<Option<Child>>>,
    /// Command streams to the workers (`None` while a worker is down or
    /// its connection is dropped).
    conns: Vec<Option<TcpStream>>,
    incarnations: Vec<u32>,
    pumps: Vec<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
    acceptor_stop: Arc<AtomicBool>,
    /// Scripted kill-iterations per global node id, consumed as they fire.
    remaining_crashes: Vec<Vec<usize>>,
    stats: MessageStats,
    integrity: IntegrityState,
    /// Command egress. `RefCell` because fan-outs are built from `&self`
    /// borrows (iterate rows, replay history, the membership view).
    egress: RefCell<Egress>,
    /// Per-connection cache of the last clean command bytes, shared with
    /// the pump so a worker `Nak` can be answered with a clean resend.
    last_sent: Vec<Arc<Mutex<Vec<u8>>>>,
    /// Chaos counters + error slot shared with the pumps; `Some` iff a
    /// wire-level corruption kind is armed.
    wire_shared: Option<Arc<WireShared>>,
    /// The iteration whose `Predict` frames went out with the previous
    /// correction ([`pipelines`]).
    predicted: Option<usize>,
    /// Replies to those frames that the correction gather drained.
    early_predictions: Vec<Reply>,
    suspect: Option<NodeId>,
    timeout: Duration,
    rounds: u32,
    checkpoint_interval: usize,
    stall_phases: f64,
    // Per-iteration scratch, produced by one phase and consumed by the next.
    rows: Vec<Vec<f64>>,
    a_cols: Vec<Vec<f64>>,
    dc_residuals: Vec<Option<NodeResiduals>>,
    readmitted_now: Vec<usize>,
    membership_changed: bool,
    node_count: usize,
}

impl<'a> SocketSupervisor<'a> {
    fn new(
        instance: &'a UfcInstance,
        settings: AdmgSettings,
        active_mu: bool,
        active_nu: bool,
        plan: FaultPlan,
        options: &SocketOptions,
    ) -> Result<Self, CoreError> {
        let m = instance.m_frontends();
        let n = instance.n_datacenters();
        let processes = if options.processes == 0 {
            m + n
        } else {
            options.processes
        };
        if processes > m + n {
            return Err(CoreError::invalid_config(format!(
                "{processes} worker processes for {} nodes",
                m + n
            )));
        }
        if (plan.crash_count() > 0 || plan.partition_count() > 0) && processes != m + n {
            return Err(CoreError::invalid_config(format!(
                "process-level fault injection needs one process per node \
                 ({} for this instance), got {processes}",
                m + n
            )));
        }
        let wire_kind = plan
            .corruption
            .as_ref()
            .and_then(|c| c.kind.filter(|k| k.is_wire_level()));
        if wire_kind.is_some() {
            // The Nak/resend repair protocol relies on at most one command
            // being outstanding per connection: a co-hosted node (or a
            // replay burst after a crash) lets a later frame overtake the
            // Nak, so the cached clean resend would repair the wrong one.
            if processes != m + n {
                return Err(CoreError::invalid_config(format!(
                    "wire-level chaos needs one process per node ({} for \
                     this instance), got {processes}",
                    m + n
                )));
            }
            if !plan.is_trivial() {
                return Err(CoreError::invalid_config(
                    "wire-level chaos cannot be combined with \
                     crash/straggler/partition plans",
                ));
            }
        }
        if !options.bind.is_loopback() && options.auth.is_none() {
            return Err(CoreError::invalid_config(format!(
                "refusing to listen on non-loopback {:?} without a shared \
                 authentication key (SocketOptions::with_auth)",
                options.bind.listen
            )));
        }
        let auth = match &options.auth {
            Some(key) => Some(AuthState {
                key: key.clone(),
                urandom: open_urandom()?,
            }),
            None => None,
        };
        let listener = TcpListener::bind(&options.bind.listen)
            .map_err(|e| CoreError::node_failure("coordinator", 0, format!("bind: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| CoreError::node_failure("coordinator", 0, format!("local_addr: {e}")))?
            .to_string();
        let addr = options.bind.advertise.clone().unwrap_or(local);
        let session = session_id();
        let config_bytes = RunConfig {
            instance: instance.clone(),
            settings,
            active_mu,
            active_nu,
            processes,
        }
        .encode();
        // The digest the challenge MAC binds: a worker answering this
        // coordinator commits to this exact run configuration, and checks
        // the later Welcome against the same digest.
        let config_digest = sha256(&config_bytes);
        let welcome: Arc<Vec<u8>> = Arc::new(
            WireFrame::Welcome {
                config: config_bytes,
            }
            .to_wire(),
        );
        let wire_shared = wire_kind.map(|_| Arc::new(WireShared::default()));
        let last_sent: Vec<Arc<Mutex<Vec<u8>>>> = (0..processes)
            .map(|_| Arc::new(Mutex::new(Vec::new())))
            .collect();
        let egress = RefCell::new(Egress {
            chaos: (0..processes)
                .map(|p| WireChaos::egress(plan.corruption.as_ref(), wire_salt(p, false)))
                .collect(),
            batches: vec![Vec::new(); processes],
            frames_sent: 0,
            socket_writes: 0,
        });
        let (reply_tx, reply_rx) = channel::<Reply>();
        let (reg_tx, reg_rx) = channel::<Registration>();
        let acceptor_stop = Arc::new(AtomicBool::new(false));
        let acceptor = spawn_acceptor(
            listener,
            AcceptorState {
                session,
                welcome,
                config_digest,
                auth,
                wire: wire_shared.as_ref().map(|shared| WireIngressSetup {
                    corruption: plan.corruption.expect("wire kind implies corruption"),
                    shared: Arc::clone(shared),
                    last_sent: last_sent.clone(),
                }),
            },
            reply_tx,
            reg_tx,
            Arc::clone(&acceptor_stop),
        );
        let timeout = plan.phase_timeout;
        let rounds = plan.backoff_rounds;
        let checkpoint_interval = plan.checkpoint_interval;
        let integrity = IntegrityState::new(plan.corruption.as_ref(), settings.verify_checksums);
        let mut remaining_crashes = Vec::with_capacity(m + n);
        for i in 0..m {
            remaining_crashes.push(plan.crash_iterations_for(NodeId::Frontend(i)));
        }
        for j in 0..n {
            remaining_crashes.push(plan.crash_iterations_for(NodeId::Datacenter(j)));
        }
        let mut sup = SocketSupervisor {
            instance,
            settings,
            active_mu,
            active_nu,
            m,
            n,
            processes,
            launcher: WorkerLauncher {
                path: options.worker.clone(),
                addr,
                session,
                auth_hex: options.auth.as_ref().map(AuthKey::to_hex),
            },
            tracker: FaultTracker::new(plan, m, n),
            store: CheckpointStore::new(m, n),
            history: Vec::new(),
            reply_rx,
            reg_rx,
            children: (0..processes).map(|_| RefCell::new(None)).collect(),
            conns: (0..processes).map(|_| None).collect(),
            incarnations: vec![0; processes],
            pumps: Vec::new(),
            acceptor: Some(acceptor),
            acceptor_stop,
            remaining_crashes,
            stats: MessageStats::default(),
            integrity,
            egress,
            last_sent,
            wire_shared,
            predicted: None,
            early_predictions: Vec::new(),
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
        for p in 0..processes {
            sup.spawn_process(p)?;
        }
        for p in 0..processes {
            sup.await_registration(p)?;
        }
        Ok(sup)
    }

    /// Launches the worker binary for process slot `p` at its current
    /// incarnation. Registration happens asynchronously via the acceptor.
    fn spawn_process(&mut self, p: usize) -> Result<(), CoreError> {
        let child = self.launcher.spawn(p, self.incarnations[p])?;
        *self.children[p].borrow_mut() = Some(child);
        Ok(())
    }

    /// Blocks until process `p` (at its current incarnation) completes the
    /// handshake, installing any other registrations that arrive meanwhile.
    fn await_registration(&mut self, p: usize) -> Result<(), CoreError> {
        let deadline = Instant::now() + REGISTRATION_DEADLINE;
        while self.conns[p].is_none() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(CoreError::node_failure(
                    format!("process-{p}"),
                    0,
                    "worker did not complete the handshake before the deadline",
                ));
            }
            match self.reg_rx.recv_timeout(remaining) {
                Ok(reg) => self.install_registration(reg),
                Err(_) => {
                    return Err(CoreError::node_failure(
                        format!("process-{p}"),
                        0,
                        "worker did not complete the handshake before the deadline",
                    ))
                }
            }
        }
        Ok(())
    }

    /// Adopts a completed handshake — unless it is stale (an old
    /// incarnation of a process we have since killed and respawned, or a
    /// straggler arriving after shutdown drained the connection table).
    fn install_registration(&mut self, reg: Registration) {
        if reg.process >= self.conns.len() || reg.incarnation != self.incarnations[reg.process] {
            self.pumps.push(reg.pump);
            let _ = reg.stream.shutdown(Shutdown::Both);
            return;
        }
        self.conns[reg.process] = Some(reg.stream);
        self.pumps.push(reg.pump);
    }

    /// Installs any registrations already queued (reconnects after a
    /// partition heal can complete while the coordinator is mid-phase).
    fn drain_registrations(&mut self) {
        while let Ok(reg) = self.reg_rx.try_recv() {
            self.install_registration(reg);
        }
    }

    /// The coordinator's one egress path, fed a whole fan-out at a time.
    /// Each `(node, cmd)` is encoded as its `Cmd` frame and appended to the
    /// buffer of the process hosting `node`; then each process's buffer
    /// goes out in one `write_all`, so a worker hosting several nodes pays
    /// one syscall and one wake-up per fan-out, not one per node. With one
    /// process per node a write carries one frame, or two on a front-end
    /// connection of a pipelined correction (its correction and its next
    /// prediction). Errors are deliberately swallowed — a dead or dropped
    /// connection surfaces as silence in the gather ladder, which owns the
    /// failure verdict. With wire chaos armed, each frame's clean bytes are
    /// cached first (so a worker `Nak` can be answered by the pump with an
    /// uncorrupted resend) and the egress interceptor then gets one draw at
    /// the frame, in the order the frames go out on that connection. It
    /// takes a `Vec`, not a generic iterator, so that one copy of this body
    /// serves every call site.
    fn send(&self, cmds: Vec<(usize, NodeCmd)>) {
        let mut egress = self.egress.borrow_mut();
        let Egress {
            chaos,
            batches,
            frames_sent,
            socket_writes,
        } = &mut *egress;
        for (node, cmd) in cmds {
            let p = process_of(node, self.processes);
            if self.conns[p].is_none() {
                continue;
            }
            let mut bytes = WireFrame::Cmd { node, cmd }.to_wire();
            let mut copies = 1usize;
            if let Some(chaos) = chaos[p].as_mut() {
                if let Ok(mut cache) = self.last_sent[p].lock() {
                    cache.clear();
                    cache.extend_from_slice(&bytes);
                }
                let verdict = chaos.next_egress(&mut bytes);
                if verdict == WireVerdict::Duplicated {
                    copies = 2;
                }
                if let (Some(shared), true) = (&self.wire_shared, verdict != WireVerdict::Clean) {
                    if let Ok(mut counters) = shared.counters.lock() {
                        counters.corruptions_injected += 1;
                        if verdict == WireVerdict::Duplicated {
                            // The worker's duplicate guard drops the copy
                            // unconditionally; detection is structural.
                            counters.corruptions_detected += 1;
                        }
                    }
                }
            }
            *frames_sent += 1;
            for _ in 0..copies {
                batches[p].extend_from_slice(&bytes);
            }
        }
        for (batch, conn) in batches.iter_mut().zip(&self.conns) {
            if let (false, Some(conn)) = (batch.is_empty(), conn) {
                let mut writer: &TcpStream = conn;
                let _ = std::io::Write::write_all(&mut writer, batch);
                *socket_writes += 1;
            }
            batch.clear();
        }
    }

    /// The datacenters still in the membership view, in index order.
    fn live_datacenters(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(|&j| !self.tracker.is_evicted(j))
    }

    /// Liveness straight from the OS process table — unless a pump parked
    /// a typed wire error (retransmit budget exhausted), in which case the
    /// node is reported dead so the gather ladder stops extending for a
    /// connection that will never deliver and the typed error surfaces.
    fn alive(&self, node: NodeId) -> bool {
        if self
            .wire_shared
            .as_ref()
            .is_some_and(|shared| shared.error.lock().map_or(true, |slot| slot.is_some()))
        {
            return false;
        }
        let id = match node {
            NodeId::Frontend(i) => i,
            NodeId::Datacenter(j) => self.m + j,
        };
        let p = process_of(id, self.processes);
        self.children[p]
            .borrow_mut()
            .as_mut()
            .is_some_and(|child| matches!(child.try_wait(), Ok(None)))
    }

    /// Delivers a real `SIGKILL` to process `p` and reaps it.
    fn kill_process(&mut self, p: usize) {
        if let Some(conn) = self.conns[p].take() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(mut child) = self.children[p].borrow_mut().take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Fires this iteration's scripted front-end kills (before the predict
    /// commands go out, so the victim dies mid-iteration).
    fn inject_frontend_crashes(&mut self, k: usize) {
        for i in 0..self.m {
            if self.remaining_crashes[i].first() == Some(&k) {
                self.kill_process(process_of(i, self.processes));
                self.remaining_crashes[i].retain(|&it| it > k);
            }
        }
    }

    /// Fires this iteration's scripted datacenter kills.
    fn inject_datacenter_crashes(&mut self, k: usize) {
        for j in 0..self.n {
            if self.tracker.is_evicted(j) {
                continue;
            }
            let id = self.m + j;
            if self.remaining_crashes[id].first() == Some(&k) {
                self.kill_process(process_of(id, self.processes));
                self.remaining_crashes[id].retain(|&it| it > k);
            }
        }
    }

    /// At a partition window's opening iteration, tears down the affected
    /// connections (the workers survive and reconnect with backoff — the
    /// socket spelling of a healed WAN partition).
    fn simulate_partition_drops(&mut self, k: usize) -> Result<(), CoreError> {
        let plan = self.tracker.plan();
        if !plan.partition_active(k) || (k > 1 && plan.partition_active(k - 1)) {
            return Ok(());
        }
        let mut affected: Vec<usize> = Vec::new();
        for i in 0..self.m {
            for j in 0..self.n {
                if plan.is_partitioned(i, j, k) {
                    for id in [i, self.m + j] {
                        let p = process_of(id, self.processes);
                        if !affected.contains(&p) {
                            affected.push(p);
                        }
                    }
                }
            }
        }
        for &p in &affected {
            if let Some(conn) = self.conns[p].take() {
                let _ = conn.shutdown(Shutdown::Both);
            }
        }
        for &p in &affected {
            self.await_registration(p)?;
            self.integrity.counters.reconnects += 1;
        }
        Ok(())
    }

    /// Kills (if needed), respawns, and re-registers the process hosting
    /// `node` at a bumped incarnation.
    fn respawn_process_for(&mut self, node: usize, k: usize) -> Result<(), CoreError> {
        let p = process_of(node, self.processes);
        self.kill_process(p);
        self.incarnations[p] += 1;
        self.remaining_crashes[node].retain(|&it| it > k);
        self.spawn_process(p)?;
        self.await_registration(p)
    }

    /// Respawns front-end `i` from its last checkpoint, replays the
    /// buffered inputs since, and re-applies this iteration's membership
    /// deltas — the socket spelling of the threaded engine's
    /// `respawn_frontend`.
    fn respawn_frontend(&mut self, i: usize, k: usize) -> Result<(), CoreError> {
        self.respawn_process_for(i, k)?;
        let mut base = 0usize;
        if let Some((it, blob)) = self.store.frontend(i) {
            let blob = blob.to_vec();
            base = it;
            self.send(vec![(i, NodeCmd::Restore { blob })]);
        }
        let mut replayed = 0usize;
        for entry in replay_entries(&self.history, base, k) {
            self.send(vec![(
                i,
                NodeCmd::Predict {
                    iteration: entry.iteration,
                },
            )]);
            self.send(vec![(
                i,
                NodeCmd::Correct {
                    iteration: entry.iteration,
                    a_row: row_of(&entry.a_cols, i),
                },
            )]);
            replayed += 1;
        }
        self.tracker.report.recomputed_iterations += replayed;
        for &j in &self.readmitted_now {
            self.send(vec![(
                i,
                NodeCmd::Membership {
                    datacenter: j,
                    evict: false,
                },
            )]);
        }
        Ok(())
    }

    /// Respawns datacenter `j` from its last checkpoint and replays the
    /// buffered λ̃ columns since.
    fn respawn_datacenter(&mut self, j: usize, k: usize) -> Result<(), CoreError> {
        let id = self.m + j;
        self.respawn_process_for(id, k)?;
        let mut base = 0usize;
        if let Some((it, blob)) = self.store.datacenter(j) {
            let blob = blob.to_vec();
            base = it;
            self.send(vec![(id, NodeCmd::Restore { blob })]);
        }
        let mut replayed = 0usize;
        for entry in replay_entries(&self.history, base, k) {
            self.send(vec![(
                id,
                NodeCmd::Process {
                    iteration: entry.iteration,
                    column: column_of(&entry.rows, j),
                },
            )]);
            replayed += 1;
        }
        self.tracker.report.recomputed_iterations += replayed;
        Ok(())
    }

    /// Evicts datacenter `j`: reaps the dead process and broadcasts the
    /// membership change to every front-end.
    fn evict_datacenter(&mut self, j: usize) {
        self.kill_process(process_of(self.m + j, self.processes));
        self.send(
            (0..self.m)
                .map(|i| {
                    (
                        i,
                        NodeCmd::Membership {
                            datacenter: j,
                            evict: true,
                        },
                    )
                })
                .collect(),
        );
        for _ in 0..self.m {
            self.stats.record(&Message::Membership {
                datacenter: j,
                evict: true,
            });
        }
    }

    /// One checkpoint round, identical accounting to the threaded engine's.
    fn checkpoint_round(&mut self, k: usize) -> Result<(), CoreError> {
        let (m, n) = (self.m, self.n);
        let mut pending: HashSet<NodeId> = (0..m).map(NodeId::Frontend).collect();
        pending.extend(self.live_datacenters().map(NodeId::Datacenter));
        self.send(
            (0..m)
                .chain(self.live_datacenters().map(|j| m + j))
                .map(|id| (id, NodeCmd::Snapshot { iteration: k }))
                .collect(),
        );
        let mut fe_blobs: Vec<Option<Vec<u8>>> = vec![None; m];
        let mut dc_blobs: Vec<Option<Vec<u8>>> = vec![None; n];
        let missing = gather_phase(
            &self.reply_rx,
            &mut pending,
            self.timeout,
            self.rounds,
            |node| self.alive(node),
            |reply| match reply {
                Reply::FeSnapshot { i, iteration, blob } if iteration == k => {
                    fe_blobs[i] = Some(blob);
                    Some(NodeId::Frontend(i))
                }
                Reply::DcSnapshot { j, iteration, blob } if iteration == k => {
                    dc_blobs[j] = Some(blob);
                    Some(NodeId::Datacenter(j))
                }
                _ => None,
            },
        );
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

    /// Ships `Finish` to every live worker and gathers the final iterate.
    #[allow(clippy::type_complexity)]
    fn final_gather(
        &mut self,
        iterations: usize,
    ) -> Result<(Vec<Vec<f64>>, Vec<f64>, Vec<f64>), CoreError> {
        let (m, n) = (self.m, self.n);
        let mut pending: HashSet<NodeId> = (0..m).map(NodeId::Frontend).collect();
        pending.extend(self.live_datacenters().map(NodeId::Datacenter));
        self.send(
            (0..m)
                .chain(self.live_datacenters().map(|j| m + j))
                .map(|id| (id, NodeCmd::Finish))
                .collect(),
        );
        let mut lambda_rows: Vec<Vec<f64>> = vec![Vec::new(); m];
        let mut mu = vec![0.0; n];
        let mut d = vec![0.0; n];
        let missing = gather_phase(
            &self.reply_rx,
            &mut pending,
            self.timeout,
            self.rounds,
            |node| self.alive(node),
            |reply| match reply {
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
            },
        );
        if let Some(node) = missing.first() {
            return Err(CoreError::node_failure(
                node.to_string(),
                iterations,
                "no reply to the final gather",
            ));
        }
        Ok((lambda_rows, mu, d))
    }

    /// Orderly teardown on every exit path: `Shutdown` frames, forced
    /// socket closes (so pump threads exit), acceptor stop, pump joins,
    /// then a bounded wait for each worker process with `SIGKILL` as the
    /// backstop.
    fn shutdown(mut self) -> Result<(), CoreError> {
        for conn in self.conns.iter().flatten() {
            let mut writer: &TcpStream = conn;
            let _ = std::io::Write::write_all(&mut writer, &WireFrame::Shutdown.to_wire());
        }
        for conn in self.conns.drain(..).flatten() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        self.acceptor_stop.store(true, Ordering::SeqCst);
        // The acceptor is blocked in accept(); poke it awake.
        let _ = TcpStream::connect(&self.launcher.addr);
        let mut first_panic = None;
        if let Some(handle) = self.acceptor.take() {
            if handle.join().is_err() {
                first_panic = Some(CoreError::node_failure(
                    "coordinator",
                    0,
                    "acceptor thread panicked during shutdown",
                ));
            }
        }
        self.drain_registrations();
        for pump in self.pumps.drain(..) {
            if pump.join().is_err() && first_panic.is_none() {
                first_panic = Some(CoreError::node_failure(
                    "coordinator",
                    0,
                    "pump thread panicked during shutdown",
                ));
            }
        }
        let deadline = Instant::now() + EXIT_GRACE;
        for cell in &self.children {
            let Some(mut child) = cell.borrow_mut().take() else {
                continue;
            };
            let mut poll = REAP_POLL_START;
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(poll);
                        poll = (poll * 2).min(REAP_POLL_CAP);
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        first_panic.map_or(Ok(()), Err)
    }
}

impl Transport for SocketSupervisor<'_> {
    fn schedule(&self) -> BlockSchedule {
        BlockSchedule::for_instance(self.instance)
    }

    fn begin_iteration(&mut self, k: usize) -> Result<(), CoreError> {
        self.drain_registrations();
        self.membership_changed = false;
        let readmitted_now = self.tracker.probe_readmissions();
        for &j in &readmitted_now {
            // The respawned process builds a fresh datacenter kernel at
            // Welcome — exactly the state the threaded engine constructs —
            // so only the coordinator-side snapshot needs producing here.
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
            let p = process_of(id, self.processes);
            self.incarnations[p] += 1;
            self.remaining_crashes[id].retain(|&it| it >= k);
            self.spawn_process(p)?;
            self.await_registration(p)?;
            self.send(
                (0..self.m)
                    .map(|i| {
                        (
                            i,
                            NodeCmd::Membership {
                                datacenter: j,
                                evict: false,
                            },
                        )
                    })
                    .collect(),
            );
            for _ in 0..self.m {
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
        self.simulate_partition_drops(k)?;
        Ok(())
    }

    fn predict_lambda(&mut self, k: usize) -> Result<(), CoreError> {
        let m = self.m;
        if self.predicted.take() != Some(k) {
            self.inject_frontend_crashes(k);
            self.send(
                (0..m)
                    .map(|i| (i, NodeCmd::Predict { iteration: k }))
                    .collect(),
            );
        }
        let mut rows: Vec<Option<Vec<f64>>> = vec![None; m];
        let mut errors: Vec<Option<CoreError>> = vec![None; m];
        let mut pending: HashSet<NodeId> = (0..m).map(NodeId::Frontend).collect();
        for reply in std::mem::take(&mut self.early_predictions) {
            if let Some(node) = accept_prediction(k, &mut rows, &mut errors, reply) {
                pending.remove(&node);
            }
        }
        // One broad gather loop, shared shape with the threaded engine:
        // dead processes surface per-ladder while live stragglers stay
        // pending, and a respawned process rejoins the same pending set.
        let mut respawned: HashSet<NodeId> = HashSet::new();
        loop {
            let missing = gather_phase(
                &self.reply_rx,
                &mut pending,
                self.timeout,
                self.rounds,
                |node| self.alive(node),
                |reply| accept_prediction(k, &mut rows, &mut errors, reply),
            );
            if missing.is_empty() && pending.is_empty() {
                break;
            }
            for node in missing {
                let NodeId::Frontend(i) = node else {
                    unreachable!("predict phase only waits on front-ends")
                };
                if errors[i].is_some() {
                    // The worker shipped a typed rejection and exited; do
                    // not respawn into the same poison.
                    continue;
                }
                self.integrity.counters.dead_node_declarations += 1;
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
                        self.send(vec![(i, NodeCmd::Predict { iteration: k })]);
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
        self.inject_datacenter_crashes(k);
        let (m, n) = (self.m, self.n);
        self.send(
            self.live_datacenters()
                .map(|j| {
                    (
                        m + j,
                        NodeCmd::Process {
                            iteration: k,
                            column: column_of(&self.rows, j),
                        },
                    )
                })
                .collect(),
        );
        let mut a_cols = vec![vec![0.0; m]; n];
        let mut d_vals = vec![0.0; n];
        let mut dc_residuals: Vec<Option<NodeResiduals>> = vec![None; n];
        let mut errors: Vec<Option<CoreError>> = vec![None; n];
        let mut pending: HashSet<NodeId> =
            self.live_datacenters().map(NodeId::Datacenter).collect();
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
                self.integrity.counters.dead_node_declarations += 1;
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
                        self.send(vec![(
                            m + j,
                            NodeCmd::Process {
                                iteration: k,
                                column: column_of(&self.rows, j),
                            },
                        )]);
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
            // the same write. At the stopping iteration its replies go
            // unread; `Finish` still returns the corrected λ.
            cmds.extend((0..m).map(|i| (i, NodeCmd::Predict { iteration: k + 1 })));
            self.predicted = Some(k + 1);
        }
        self.send(cmds);
        let mut fe_residuals: Vec<Option<NodeResiduals>> = vec![None; m];
        let mut early = Vec::new();
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
                Reply::Lambda { iteration, .. }
                | Reply::NodeError {
                    node: NodeId::Frontend(_),
                    iteration,
                    ..
                } if iteration == k + 1 => {
                    early.push(reply);
                    None
                }
                _ => None,
            },
        );
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
        // Every live node needs a finite checkpoint before anything is
        // restored — a partial restore would leave the deployment
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
        let mut dc_snaps: Vec<Option<Vec<u8>>> = Vec::with_capacity(self.n);
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
            dc_snaps.push(Some(blob.to_vec()));
        }
        // The worker processes are alive — the poison is in their state,
        // not their liveness — so restore in place over the live streams.
        // TCP ordering guarantees the Restore lands before any later
        // command. The live membership view stays authoritative over
        // whatever the snapshot recorded.
        let evicted = self.tracker.evicted_mask();
        let m = self.m;
        let fe_restores = fe_snaps.into_iter().enumerate().map(|(i, mut snap)| {
            snap.evicted.clone_from(&evicted);
            (
                i,
                NodeCmd::Restore {
                    blob: snap.to_bytes(),
                },
            )
        });
        let dc_restores = dc_snaps
            .into_iter()
            .enumerate()
            .filter_map(|(j, blob)| Some((m + j, NodeCmd::Restore { blob: blob? })));
        self.send(fe_restores.chain(dc_restores).collect());
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

/// Files a front-end's reply to `Predict { iteration: k }` into `rows` or
/// `errors`, returning the node it answers for; anything else is dropped.
fn accept_prediction(
    k: usize,
    rows: &mut [Option<Vec<f64>>],
    errors: &mut [Option<CoreError>],
    reply: Reply,
) -> Option<NodeId> {
    match reply {
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
    }
}

/// A run-unique session id: stale workers from an earlier run (or another
/// concurrent test) fail the handshake instead of corrupting this one.
fn session_id() -> u64 {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    nanos ^ (u64::from(std::process::id()) << 32)
}

/// Spawns the acceptor thread: accepts connections, runs the handshake
/// (legacy `Hello` session check, or challenge–response when a key is
/// configured), and hands each validated connection (plus its reply pump)
/// to the coordinator via `reg_tx`. A hostile or malformed peer is simply
/// dropped — the loop keeps serving honest workers.
fn spawn_acceptor(
    listener: TcpListener,
    state: AcceptorState,
    reply_tx: Sender<Reply>,
    reg_tx: Sender<Registration>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            let Ok((stream, _)) = listener.accept() else {
                continue;
            };
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Some(reg) = handshake(stream, &state, &reply_tx) else {
                continue;
            };
            if reg_tx.send(reg).is_err() {
                break;
            }
        }
    })
}

/// Reads exactly one decodable frame off a handshaking connection, or
/// `None` on timeout, EOF, framing desync (garbage before the magic, an
/// oversized length prefix), or a payload that fails its CRC.
fn read_one_frame(stream: &TcpStream, frames: &mut FrameBuffer) -> Option<WireFrame> {
    loop {
        match frames.next_frame() {
            Ok(Some(payload)) => return WireFrame::decode_payload(&payload).ok(),
            Ok(None) => {}
            Err(_) => return None,
        }
        let mut chunk = [0u8; 1024];
        let mut reader: &TcpStream = stream;
        let n = reader.read(&mut chunk).ok()?;
        if n == 0 {
            return None;
        }
        frames.push(&chunk[..n]);
    }
}

/// Coordinator side of one connection handshake. Returns `None` (dropping
/// the connection) on timeout, session mismatch, a malformed frame, or —
/// with authentication on — a failed challenge–response: a typed
/// [`CoreError::Unauthorized`] verdict is produced by
/// [`verify_auth_hello`] before any iteration state is exchanged, and the
/// hostile peer never sees a `Welcome`. Each challenge carries 32 fresh
/// bytes from `/dev/urandom`; a failed read drops the connection.
fn handshake(
    stream: TcpStream,
    state: &AcceptorState,
    reply_tx: &Sender<Reply>,
) -> Option<Registration> {
    stream.set_nodelay(true).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    let mut frames = FrameBuffer::new();
    let (process, incarnation) = match &state.auth {
        None => {
            let WireFrame::Hello {
                session,
                process,
                incarnation,
            } = read_one_frame(&stream, &mut frames)?
            else {
                return None;
            };
            if session != state.session {
                return None;
            }
            (process, incarnation)
        }
        Some(AuthState { key, urandom }) => {
            let mut nonce = [0u8; 32];
            let mut entropy: &File = urandom;
            entropy.read_exact(&mut nonce).ok()?;
            {
                let mut writer: &TcpStream = &stream;
                let challenge = WireFrame::Challenge {
                    nonce,
                    digest: state.config_digest,
                };
                std::io::Write::write_all(&mut writer, &challenge.to_wire()).ok()?;
            }
            let answer = read_one_frame(&stream, &mut frames)?;
            verify_auth_hello(key, &nonce, &state.config_digest, state.session, &answer).ok()?
        }
    };
    if process >= state.last_sent_len() {
        return None;
    }
    {
        let mut writer: &TcpStream = &stream;
        std::io::Write::write_all(&mut writer, &state.welcome).ok()?;
    }
    // Back to blocking reads for the pump: the gather ladder owns all
    // timeout policy.
    stream.set_read_timeout(None).ok()?;
    let pump_stream = stream.try_clone().ok()?;
    let pump_tx = reply_tx.clone();
    let pump_wire = state.wire.as_ref().and_then(|setup| {
        Some(PumpWire {
            chaos: WireChaos::ingress(Some(&setup.corruption), wire_salt(process, true))?,
            last_sent: Arc::clone(setup.last_sent.get(process)?),
            shared: Arc::clone(&setup.shared),
            max_retransmits: setup.corruption.max_retransmits,
        })
    });
    let pump = std::thread::spawn(move || pump(&pump_stream, frames, &pump_tx, pump_wire));
    Some(Registration {
        process,
        incarnation,
        stream,
        pump,
    })
}

impl AcceptorState {
    /// Upper bound on valid process indices (the per-connection cache
    /// table is sized to the process count). Only meaningful with wire
    /// chaos armed; otherwise any index is admitted and the coordinator's
    /// own staleness check (`install_registration`) rejects strays.
    fn last_sent_len(&self) -> usize {
        self.wire
            .as_ref()
            .map_or(usize::MAX, |setup| setup.last_sent.len())
    }
}

/// The per-connection reply pump: reassembles frames from the stream and
/// forwards decoded replies to the coordinator until EOF, a socket error,
/// or an unrepairable frame. With wire chaos armed it is also the
/// coordinator's half of the repair protocol: an undecodable reply is
/// `Nak`ed back to the worker (which resends its cached reply, re-drawn
/// through chaos each attempt, bounded by the retransmit budget), a worker
/// `Nak` is answered with the cached clean bytes of the last command, and
/// a reordered reply is held until its successor passes it or the stream
/// goes quiet.
fn pump(stream: &TcpStream, frames: FrameBuffer, tx: &Sender<Reply>, mut wire: Option<PumpWire>) {
    let mut held = None;
    pump_loop(stream, frames, tx, wire.as_mut(), &mut held);
    // Never strand a reordered reply on exit: EOF and error paths flush it
    // so a held final-phase frame cannot fake a dead node.
    if let Some(reply) = held {
        let _ = tx.send(reply);
    }
}

fn pump_loop(
    stream: &TcpStream,
    mut frames: FrameBuffer,
    tx: &Sender<Reply>,
    mut wire: Option<&mut PumpWire>,
    held: &mut Option<Reply>,
) {
    let mut reader: &TcpStream = stream;
    let mut chunk = [0u8; 64 * 1024];
    // Consecutive undecodable frames on this connection; reset by any
    // clean decode. One ingress chaos draw happens per delivery attempt,
    // so this mirrors §12's per-attempt redraw semantics.
    let mut failures = 0u32;
    loop {
        loop {
            match frames.next_frame() {
                Ok(Some(mut payload)) => {
                    let verdict = wire
                        .as_mut()
                        .map_or(WireVerdict::Clean, |w| w.chaos.next_ingress(&mut payload));
                    if verdict != WireVerdict::Clean {
                        if let Some(w) = wire.as_ref() {
                            if let Ok(mut counters) = w.shared.counters.lock() {
                                counters.corruptions_injected += 1;
                                if verdict != WireVerdict::Truncated {
                                    // Duplicates and reorders are absorbed
                                    // structurally (dedup / order-free
                                    // gather); truncation is detected by
                                    // the decode below.
                                    counters.corruptions_detected += 1;
                                }
                            }
                        }
                    }
                    match WireFrame::decode_payload(&payload) {
                        Ok(WireFrame::Reply(reply)) => {
                            failures = 0;
                            if verdict == WireVerdict::Reordered && held.is_none() {
                                *held = Some(reply);
                                continue;
                            }
                            let copies = if verdict == WireVerdict::Duplicated {
                                2
                            } else {
                                1
                            };
                            for _ in 0..copies {
                                if tx.send(reply.clone()).is_err() {
                                    return;
                                }
                            }
                            if let Some(passed) = held.take() {
                                if tx.send(passed).is_err() {
                                    return;
                                }
                            }
                        }
                        Ok(WireFrame::Nak) => {
                            // The worker could not decode our last command:
                            // resend the cached clean bytes, bypassing the
                            // egress interceptor (a §12 retransmission).
                            let Some(w) = wire.as_ref() else { return };
                            let resend = w
                                .last_sent
                                .lock()
                                .map(|cache| cache.clone())
                                .unwrap_or_default();
                            if resend.is_empty() {
                                return;
                            }
                            if let Ok(mut counters) = w.shared.counters.lock() {
                                counters.corruptions_detected += 1;
                                counters.checksum_retransmissions += 1;
                            }
                            let mut writer: &TcpStream = stream;
                            if std::io::Write::write_all(&mut writer, &resend).is_err() {
                                return;
                            }
                        }
                        Ok(_) => return,
                        Err(_) => {
                            let Some(w) = wire.as_ref() else { return };
                            failures += 1;
                            if let Ok(mut counters) = w.shared.counters.lock() {
                                counters.corruptions_detected += 1;
                            }
                            if failures > w.max_retransmits {
                                if let Ok(mut slot) = w.shared.error.lock() {
                                    slot.get_or_insert_with(|| {
                                        CoreError::corrupt_payload(
                                            "wire",
                                            0,
                                            format!(
                                                "reply frame still failing after {} retransmits",
                                                w.max_retransmits
                                            ),
                                        )
                                    });
                                }
                                return;
                            }
                            if let Ok(mut counters) = w.shared.counters.lock() {
                                counters.checksum_retransmissions += 1;
                            }
                            let mut writer: &TcpStream = stream;
                            let nak = WireFrame::Nak.to_wire();
                            if std::io::Write::write_all(&mut writer, &nak).is_err() {
                                return;
                            }
                        }
                    }
                }
                Ok(None) => break,
                Err(_) => return,
            }
        }
        // Reads. A held reordered reply may have no successor coming (it
        // was the phase's last frame), so reads go briefly non-blocking
        // and quiet streams flush the held frame — well inside the gather
        // ladder's base deadline.
        if held.is_some() {
            if stream
                .set_read_timeout(Some(Duration::from_millis(50)))
                .is_err()
            {
                return;
            }
            let read = reader.read(&mut chunk);
            if stream.set_read_timeout(None).is_err() {
                return;
            }
            match read {
                Ok(0) => return,
                Ok(n) => frames.push(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if let Some(passed) = held.take() {
                        if tx.send(passed).is_err() {
                            return;
                        }
                    }
                }
                Err(_) => return,
            }
        } else {
            match reader.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => frames.push(&chunk[..n]),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The key reaches an authenticated worker on stdin: no argument of
    /// its command line contains it, and an unauthenticated worker gets
    /// neither the flag nor a pipe.
    #[test]
    fn worker_command_keeps_the_key_off_argv() {
        let hex = AuthKey::new([0xA7; 32]).to_hex();
        let mut launcher = WorkerLauncher {
            path: PathBuf::from("ufc-node"),
            addr: "127.0.0.1:7740".to_owned(),
            session: 42,
            auth_hex: Some(hex.clone()),
        };
        let args = |launcher: &WorkerLauncher| -> Vec<String> {
            launcher
                .command(3, 1)
                .get_args()
                .map(|arg| arg.to_string_lossy().into_owned())
                .collect()
        };
        let authenticated = args(&launcher);
        assert!(authenticated.iter().any(|arg| arg == "--auth-key-stdin"));
        assert!(
            authenticated
                .iter()
                .all(|arg| !arg.contains(&hex) && !arg.contains(&hex[..16])),
            "the key leaked onto argv: {authenticated:?}"
        );
        launcher.auth_hex = None;
        let plain = args(&launcher);
        assert!(!plain.iter().any(|arg| arg.starts_with("--auth")));
        assert_eq!(
            plain,
            [
                "--connect",
                "127.0.0.1:7740",
                "--process",
                "3",
                "--session",
                "42",
                "--incarnation",
                "1"
            ]
        );
    }

    /// The first challenge an authenticated acceptor sends for `session`.
    fn first_challenge(session: u64) -> [u8; 32] {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let (reply_tx, _reply_rx) = channel();
        let (reg_tx, _reg_rx) = channel();
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = spawn_acceptor(
            listener,
            AcceptorState {
                session,
                welcome: Arc::new(Vec::new()),
                config_digest: [0; 32],
                auth: Some(AuthState {
                    key: AuthKey::new([7; 32]),
                    urandom: open_urandom().expect("/dev/urandom is readable"),
                }),
                wire: None,
            },
            reply_tx,
            reg_tx,
            Arc::clone(&stop),
        );
        let stream = TcpStream::connect(addr).expect("connect to the acceptor");
        let frame = read_one_frame(&stream, &mut FrameBuffer::new());
        // Hanging up fails the handshake; the poke then ends the loop.
        drop(stream);
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        acceptor.join().expect("acceptor thread");
        match frame {
            Some(WireFrame::Challenge { nonce, .. }) => nonce,
            other => panic!("expected a challenge, got {other:?}"),
        }
    }

    /// Nonces come from the kernel CSPRNG, not from the session id: two
    /// acceptors for the same session challenge with different nonces.
    #[test]
    fn acceptors_sharing_a_session_send_different_challenges() {
        let session = 0x5EED_0000_0000_0001;
        assert_ne!(first_challenge(session), first_challenge(session));
    }
}
