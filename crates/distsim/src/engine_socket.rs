//! The multi-process socket engine: the supervised coordinator
//! (`crate::supervision`) over a [`ProcessFleet`] of worker OS processes.
//!
//! Each worker is a real OS process (the `ufc-node` binary, running
//! [`crate::worker::run_worker`]) connected to the coordinator over TCP —
//! loopback by default, or any [`crate::wire::BindConfig`] listen address
//! when a shared [`crate::wire::AuthKey`] is configured. The coordinator
//! accepts connections on a background acceptor thread, validates the
//! handshake (a `Hello` session check on loopback; a challenge–response
//! keyed MAC when authentication is on — see DESIGN.md §17), and spawns
//! one I/O pump thread per connection that reassembles wire frames
//! ([`crate::wire::FrameBuffer`]) and feeds decoded replies into the
//! fleet's reply channel. The protocol, deadline ladder, fault tracker,
//! checkpoint store and replay buffer are the supervisor's, shared with
//! the other fleets; this module only carries the bytes. A hostile peer
//! (wrong key, replayed or truncated handshake, downgrade attempt) is
//! dropped before any iteration state is exchanged and the acceptor keeps
//! serving honest workers.
//!
//! A fleet outlives a run. Each run begins with a `Load` frame to every
//! process ([`ProcessFleet::load`]), which carries the run's
//! configuration, and so does every registration of a new incarnation.
//! After a run that ends cleanly, with every process still running, no
//! pump error and no wire chaos bound to the connections, the fleet stays
//! up ([`ProcessFleet::reusable`]) and `DistributedAdmg::execute` parks it
//! for its next socket run with the same options; any other run ends with
//! the fleet's teardown.
//!
//! A reply stream the coordinator cannot parse — a payload failing its CRC
//! or decode, a worker `Nak`, a frame kind a worker never sends, a framing
//! desync — parks a typed [`CoreError::CorruptPayload`] in a run-wide slot,
//! and every process reads as dead from then on, so the gather ladder stops
//! at once and the run fails with that error.
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
//! OS process table, not a thread flag. A respawned process is rebuilt
//! from the last verified snapshot ([`crate::wire::NodeCmd::Restore`]) plus
//! input replay, bit-identical to the state the killed process would have
//! held.

use std::cell::RefCell;
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

use ufc_core::telemetry::IntegrityCounters;
use ufc_core::CoreError;

use crate::coordinator::Tally;
use crate::fault::{CorruptionConfig, CorruptionKind, FaultPlan, WireChaos, WireVerdict};
use crate::runtime::SocketOptions;
use crate::supervision::{Fleet, Reply};
use crate::wire::{
    process_of, verify_auth_hello, AuthKey, FrameBuffer, Load, NodeCmd, RunConfig, WireFrame,
};

/// How long the coordinator waits for a spawned worker to complete the
/// handshake before declaring the spawn failed. Covers process startup
/// plus the worker's own connect backoff.
const REGISTRATION_DEADLINE: Duration = Duration::from_secs(10);

/// Grace period for workers to exit after a `Shutdown` frame before the
/// coordinator falls back to `SIGKILL` at teardown.
const EXIT_GRACE: Duration = Duration::from_secs(2);

/// First and longest sleep between `try_wait` polls while reaping a worker
/// at teardown. Workers usually exit within a millisecond of `Shutdown`,
/// so the poll starts short and doubles up to the cap.
const REAP_POLL_START: Duration = Duration::from_micros(50);
const REAP_POLL_CAP: Duration = Duration::from_millis(10);

/// A completed handshake delivered by the acceptor thread: the stream the
/// coordinator sends commands on, plus the pump thread that is already
/// forwarding the worker's replies.
struct Registration {
    process: usize,
    incarnation: u32,
    stream: TcpStream,
    pump: JoinHandle<()>,
}

/// State shared between the fleet and every pump: the wire-chaos counters
/// folded into the run's report (zero unless chaos is armed), and the
/// first typed error a pump parked.
#[derive(Default)]
struct WireShared {
    counters: Mutex<IntegrityCounters>,
    error: Mutex<Option<CoreError>>,
}

impl WireShared {
    /// Parks `error` unless an earlier one is parked already.
    fn park(&self, error: CoreError) {
        if let Ok(mut slot) = self.error.lock() {
            slot.get_or_insert(error);
        }
    }

    /// Whether no pump has parked an error. Once one has, every process
    /// reads as dead, so the gather ladder stops extending for a
    /// connection that will never deliver and the typed error surfaces.
    fn healthy(&self) -> bool {
        self.error.lock().is_ok_and(|slot| slot.is_none())
    }
}

/// Deterministic per-connection RNG salt: process index × direction, so
/// every pump and every egress interceptor draws an independent but
/// reproducible chaos stream from one [`CorruptionConfig::seed`].
fn wire_salt(process: usize, ingress: bool) -> u64 {
    (2 * process as u64 + u64::from(ingress) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Everything the acceptor thread needs to complete a handshake: the
/// session check, the optional challenge–response key, and what each
/// validated connection's pump is handed: the shared counters and error
/// slot, and the ingress-chaos plumbing.
struct AcceptorState {
    session: u64,
    auth: Option<AuthState>,
    shared: Arc<WireShared>,
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
    /// The shared key. It reaches the worker through a stdin pipe, never
    /// argv, which any local user can read from `/proc`.
    auth: Option<AuthKey>,
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
        let stdin = if self.auth.is_some() {
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
        if let (Some(key), Some(mut stdin)) = (&self.auth, child.stdin.take()) {
            if let Err(e) = writeln!(stdin, "{}", key.to_hex()) {
                let _ = child.kill();
                let _ = child.wait();
                return Err(failure(format!("cannot pass the auth key on stdin: {e}")));
            }
        }
        Ok(child)
    }
}

/// Ingress-side wire-chaos plumbing, cloned into each pump at handshake.
struct WireIngressSetup {
    corruption: CorruptionConfig,
    last_sent: Vec<Arc<Mutex<Vec<u8>>>>,
}

/// Per-pump wire-chaos state (only allocated when a wire-level kind is
/// pinned): the ingress interceptor, the cached clean bytes of the last
/// command sent on this connection (for `Nak`-triggered resends), and the
/// per-frame retransmit budget.
struct PumpWire {
    chaos: WireChaos,
    last_sent: Arc<Mutex<Vec<u8>>>,
    max_retransmits: u32,
}

/// The coordinator's command egress: everything the process fleet's
/// `Fleet::send` keeps per worker process, plus its counters.
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

/// The wire-level corruption kind `plan` pins, if any: chaos that is bound
/// to a fleet's connections at launch.
fn wire_kind(plan: &FaultPlan) -> Option<CorruptionKind> {
    plan.corruption
        .and_then(|c| c.kind)
        .filter(|k| k.is_wire_level())
}

/// The [`Fleet`] of [`crate::Engine::Sockets`]: worker OS processes, each
/// hosting its round-robin share of the nodes, behind one TCP connection
/// apiece. It serves one run per [`ProcessFleet::load`] and is reaped by
/// [`ProcessFleet::teardown`], at the end of a run that leaves it unfit
/// for another, or when it is dropped.
pub(crate) struct ProcessFleet {
    /// The options it was launched with.
    options: SocketOptions,
    m: usize,
    n: usize,
    processes: usize,
    launcher: WorkerLauncher,
    reg_rx: Receiver<Registration>,
    /// Every pump's replies. The pumps hold the sending end, so the
    /// channel lives as long as the fleet, across runs.
    replies: Receiver<Reply>,
    /// Live worker processes, one slot per process index. `RefCell`
    /// because liveness probing (`try_wait`) needs `&mut Child` from
    /// inside the gather ladder's `Fn` closure.
    children: Vec<RefCell<Option<Child>>>,
    /// Command streams to the workers (`None` while a worker is down or
    /// its connection is dropped).
    conns: Vec<Option<TcpStream>>,
    /// Respawn generation per process slot. It only rises, across runs
    /// too, so a stale registration from an earlier run is refused.
    incarnations: Vec<u32>,
    pumps: Vec<JoinHandle<()>>,
    /// The acceptor thread; `None` once the fleet is torn down.
    acceptor: Option<JoinHandle<()>>,
    acceptor_stop: Arc<AtomicBool>,
    /// Command egress.
    egress: Egress,
    /// Per-connection cache of the last clean command bytes, shared with
    /// the pump so a worker `Nak` can be answered with a clean resend.
    last_sent: Vec<Arc<Mutex<Vec<u8>>>>,
    /// Chaos counters and the parked-error slot, shared with the pumps.
    shared: Arc<WireShared>,
    /// Whether a wire-level corruption kind is armed.
    chaos_armed: bool,
    /// Processes the gather ladder declared dead in this run.
    dead_node_declarations: u64,
    /// Connections re-established after a partition teardown in this run.
    reconnects: u64,
    /// The encoded [`RunConfig`] of the run being served.
    config: Vec<u8>,
    /// Loads sent so far: the current run's [`Load::seq`].
    loads: u64,
}

impl ProcessFleet {
    /// The worker process count a run of `plan` on an instance of `nodes`
    /// nodes gets under `options` (`0` means one per node), once the
    /// options are checked against the plan.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for more processes than nodes,
    /// process-level faults or wire-level chaos without one process per
    /// node, wire-level chaos beside node-level faults, and a non-loopback
    /// listen address without a shared key.
    pub(crate) fn processes_for(
        nodes: usize,
        plan: &FaultPlan,
        options: &SocketOptions,
    ) -> Result<usize, CoreError> {
        let processes = if options.processes == 0 {
            nodes
        } else {
            options.processes
        };
        if processes > nodes {
            return Err(CoreError::invalid_config(format!(
                "{processes} worker processes for {nodes} nodes"
            )));
        }
        if (plan.crash_count() > 0 || plan.partition_count() > 0) && processes != nodes {
            return Err(CoreError::invalid_config(format!(
                "process-level fault injection needs one process per node \
                 ({nodes} for this instance), got {processes}"
            )));
        }
        if wire_kind(plan).is_some() {
            // The Nak/resend repair protocol relies on at most one command
            // being outstanding per connection: a co-hosted node (or a
            // replay burst after a crash) lets a later frame overtake the
            // Nak, so the cached clean resend would repair the wrong one.
            if processes != nodes {
                return Err(CoreError::invalid_config(format!(
                    "wire-level chaos needs one process per node ({nodes} for \
                     this instance), got {processes}"
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
        Ok(processes)
    }

    /// Listens, starts `config.processes` worker processes and loads
    /// `config` into them, returning once each has completed its handshake.
    /// `options` and `plan` must have passed [`ProcessFleet::processes_for`];
    /// a wire-level corruption kind in `plan` binds its chaos to the
    /// fleet's connections.
    ///
    /// # Errors
    ///
    /// [`CoreError::NodeFailure`] when the coordinator cannot listen or
    /// a worker cannot be spawned or never completes its handshake.
    pub(crate) fn launch(
        config: &RunConfig,
        plan: &FaultPlan,
        options: &SocketOptions,
    ) -> Result<Self, CoreError> {
        let processes = config.processes;
        let wire_kind = wire_kind(plan);
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
        let shared = Arc::new(WireShared::default());
        let last_sent: Vec<Arc<Mutex<Vec<u8>>>> = (0..processes)
            .map(|_| Arc::new(Mutex::new(Vec::new())))
            .collect();
        let egress = Egress {
            chaos: (0..processes)
                .map(|p| WireChaos::egress(plan.corruption.as_ref(), wire_salt(p, false)))
                .collect(),
            batches: vec![Vec::new(); processes],
            frames_sent: 0,
            socket_writes: 0,
        };
        let (reply_tx, replies) = channel::<Reply>();
        let (reg_tx, reg_rx) = channel::<Registration>();
        let acceptor_stop = Arc::new(AtomicBool::new(false));
        let acceptor = spawn_acceptor(
            listener,
            AcceptorState {
                session,
                auth,
                shared: Arc::clone(&shared),
                wire: wire_kind
                    .and(plan.corruption)
                    .map(|corruption| WireIngressSetup {
                        corruption,
                        last_sent: last_sent.clone(),
                    }),
            },
            reply_tx,
            reg_tx,
            Arc::clone(&acceptor_stop),
        );
        // From here on a failure drops the fleet, and `Drop` reaps what
        // was started.
        let mut fleet = ProcessFleet {
            options: options.clone(),
            m: 0,
            n: 0,
            processes,
            launcher: WorkerLauncher {
                path: options.worker.clone(),
                addr,
                session,
                auth: options.auth.clone(),
            },
            reg_rx,
            replies,
            children: (0..processes).map(|_| RefCell::new(None)).collect(),
            conns: (0..processes).map(|_| None).collect(),
            incarnations: vec![0; processes],
            pumps: Vec::new(),
            acceptor: Some(acceptor),
            acceptor_stop,
            egress,
            last_sent,
            shared,
            chaos_armed: wire_kind.is_some(),
            dead_node_declarations: 0,
            reconnects: 0,
            config: Vec::new(),
            loads: 0,
        };
        for p in 0..processes {
            fleet.spawn_process(p)?;
        }
        for p in 0..processes {
            fleet.await_registration(p)?;
        }
        fleet.load(config);
        Ok(fleet)
    }

    /// Whether this fleet can serve a run of `plan` under `options` on
    /// `processes` processes: the same options and process count, no
    /// wire-level chaos to bind, and [`ProcessFleet::reusable`].
    pub(crate) fn fits(&self, options: &SocketOptions, processes: usize, plan: &FaultPlan) -> bool {
        self.options == *options
            && self.processes == processes
            && wire_kind(plan).is_none()
            && self.reusable()
    }

    /// Whether the fleet can serve another run: it is not torn down, no
    /// wire chaos is bound to its connections, no pump parked an error, and
    /// every process runs behind a live connection.
    pub(crate) fn reusable(&self) -> bool {
        self.acceptor.is_some()
            && !self.chaos_armed
            && self.shared.healthy()
            && (0..self.processes).all(|p| self.conns[p].is_some() && self.runs(p))
    }

    /// Starts a run of `config` (`config.processes` must be the fleet's):
    /// clears the previous run's counters and sends every process a `Load`
    /// with the next sequence number. A clean run leaves the reply channel
    /// empty — each connection's unread pipelined predictions arrive
    /// before its finals, which the final gather waits for — so the drain
    /// here finds nothing (debug builds assert it).
    pub(crate) fn load(&mut self, config: &RunConfig) {
        let stale = self.replies.try_iter().count();
        debug_assert_eq!(stale, 0, "replies left over from the previous run");
        self.m = config.instance.m_frontends();
        self.n = config.instance.n_datacenters();
        self.config = config.encode();
        self.loads += 1;
        self.egress.frames_sent = 0;
        self.egress.socket_writes = 0;
        if let Ok(mut counters) = self.shared.counters.lock() {
            *counters = IntegrityCounters::default();
        }
        self.dead_node_declarations = 0;
        self.reconnects = 0;
        for p in 0..self.processes {
            self.send_load(p);
        }
    }

    /// Sends process `p`'s incarnation the current run's `Load`, tagged
    /// under the fleet's key. Like [`Fleet::send`] it swallows a write
    /// error: the gather ladder judges the silence.
    fn send_load(&self, p: usize) {
        let Some(conn) = &self.conns[p] else {
            return;
        };
        let load = Load::new(
            self.launcher.auth.as_ref(),
            self.launcher.session,
            p,
            self.incarnations[p],
            self.loads,
            self.config.clone(),
        );
        let mut writer: &TcpStream = conn;
        let _ = writer.write_all(&WireFrame::Load(load).to_wire());
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

    /// Whether process `p` has a child that is still running.
    fn runs(&self, p: usize) -> bool {
        self.children[p]
            .borrow_mut()
            .as_mut()
            .is_some_and(|child| matches!(child.try_wait(), Ok(None)))
    }

    /// At a partition window's opening iteration, tears down the affected
    /// connections (the workers survive and reconnect with backoff — the
    /// socket spelling of a healed WAN partition). A process that no longer
    /// runs (an evicted datacenter's) has no connection to drop and would
    /// never reconnect, so it is skipped.
    fn simulate_partition_drops(&mut self, k: usize, plan: &FaultPlan) -> Result<(), CoreError> {
        if !plan.partition_active(k) || (k > 1 && plan.partition_active(k - 1)) {
            return Ok(());
        }
        let mut affected: Vec<usize> = Vec::new();
        for i in 0..self.m {
            for j in 0..self.n {
                if plan.is_partitioned(i, j, k) {
                    for id in [i, self.m + j] {
                        let p = process_of(id, self.processes);
                        if !affected.contains(&p) && self.runs(p) {
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
            self.reconnects += 1;
        }
        Ok(())
    }

    /// Orderly teardown: `Shutdown` frames, forced socket closes (so pump
    /// threads exit), acceptor stop, pump joins, then a bounded wait for
    /// each worker process with `SIGKILL` as the backstop. Afterwards the
    /// fleet is no longer [`ProcessFleet::reusable`].
    ///
    /// # Errors
    ///
    /// [`CoreError::NodeFailure`] when the acceptor or a pump thread
    /// panicked.
    pub(crate) fn teardown(&mut self) -> Result<(), CoreError> {
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

impl Drop for ProcessFleet {
    /// Reaps a fleet nobody tore down: a parked fleet when its runner goes,
    /// or one whose launch failed part way.
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            let _ = self.teardown();
        }
    }
}

impl Fleet for ProcessFleet {
    fn replies(&self) -> &Receiver<Reply> {
        &self.replies
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
    fn send(&mut self, cmds: Vec<(usize, NodeCmd)>) {
        let Egress {
            chaos,
            batches,
            frames_sent,
            socket_writes,
        } = &mut self.egress;
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
                if verdict != WireVerdict::Clean {
                    if let Ok(mut counters) = self.shared.counters.lock() {
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

    /// Liveness straight from the OS process table — unless a pump parked
    /// a typed error ([`WireShared::healthy`]).
    fn alive(&self, id: usize) -> bool {
        self.shared.healthy() && self.runs(process_of(id, self.processes))
    }

    fn kill(&mut self, id: usize) {
        self.kill_process(process_of(id, self.processes));
    }

    /// Kills (if needed), respawns, and re-registers the process hosting
    /// `id` at a bumped incarnation, then loads the current run into it.
    fn start(&mut self, id: usize) -> Result<(), CoreError> {
        let p = process_of(id, self.processes);
        self.kill_process(p);
        self.incarnations[p] += 1;
        self.spawn_process(p)?;
        self.await_registration(p)?;
        self.send_load(p);
        Ok(())
    }

    fn declared_dead(&mut self, _id: usize) {
        self.dead_node_declarations += 1;
    }

    /// Installs registrations that completed mid-phase, then tears down
    /// the links of a partition window opening at `k`.
    fn begin_iteration(&mut self, k: usize, plan: &FaultPlan) -> Result<(), CoreError> {
        self.drain_registrations();
        self.simulate_partition_drops(k, plan)
    }

    /// Keeps the fleet up after a clean run that leaves it
    /// [`ProcessFleet::reusable`], and tears it down after any other. Then
    /// folds the run's socket-only accounting into `tally`: the egress
    /// counters, the wire-chaos counters (final, since chaos never leaves a
    /// fleet up and teardown joins every pump), the reconnects and
    /// dead-node declarations; the integrity section is reported whenever
    /// chaos was armed or either of the latter moved.
    fn end_run(
        &mut self,
        clean: bool,
        tally: &mut Tally,
    ) -> (Option<CoreError>, Result<(), CoreError>) {
        let result = if clean && self.reusable() {
            Ok(())
        } else {
            self.teardown()
        };
        tally.frames = (self.egress.frames_sent, self.egress.socket_writes);
        let counters = &mut tally.counters;
        if let Ok(wire) = self.shared.counters.lock() {
            counters.corruptions_injected += wire.corruptions_injected;
            counters.corruptions_detected += wire.corruptions_detected;
            counters.checksum_retransmissions += wire.checksum_retransmissions;
        }
        counters.reconnects += self.reconnects;
        counters.dead_node_declarations += self.dead_node_declarations;
        tally.report_integrity |=
            self.chaos_armed || self.reconnects > 0 || self.dead_node_declarations > 0;
        let parked = self
            .shared
            .error
            .lock()
            .ok()
            .and_then(|mut slot| slot.take());
        (parked, result)
    }
}

/// A fleet-unique session id: the wall clock in nanoseconds XOR the
/// coordinator's pid shifted into the high half. It is not random, and
/// not secret; it only keeps stale workers of an earlier fleet (or of
/// another coordinator on the host) from joining this one. Authentication
/// rests on the challenge nonce and the key, never on this value.
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
/// hostile peer never registers, so it never sees a `Load`. Each challenge
/// carries 32 fresh bytes from `/dev/urandom`; a failed read drops the
/// connection.
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
                let challenge = WireFrame::Challenge { nonce };
                std::io::Write::write_all(&mut writer, &challenge.to_wire()).ok()?;
            }
            let answer = read_one_frame(&stream, &mut frames)?;
            verify_auth_hello(key, &nonce, state.session, &answer).ok()?
        }
    };
    if process >= state.last_sent_len() {
        return None;
    }
    // Back to blocking reads for the pump: the gather ladder owns all
    // timeout policy.
    stream.set_read_timeout(None).ok()?;
    let pump_stream = stream.try_clone().ok()?;
    let pump_tx = reply_tx.clone();
    let pump_shared = Arc::clone(&state.shared);
    let pump_wire = state.wire.as_ref().and_then(|setup| {
        Some(PumpWire {
            chaos: WireChaos::ingress(Some(&setup.corruption), wire_salt(process, true))?,
            last_sent: Arc::clone(setup.last_sent.get(process)?),
            max_retransmits: setup.corruption.max_retransmits,
        })
    });
    let pump = std::thread::spawn(move || {
        pump(&pump_stream, frames, &pump_tx, &pump_shared, pump_wire);
    });
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
/// the coordinator hanging up, or a frame it cannot use. That last exit
/// parks a typed [`CoreError::CorruptPayload`] in `shared`
/// ([`WireShared::park`]), so the run fails with it instead of waiting out
/// a live but useless connection. With wire chaos armed the pump is also
/// the coordinator's half of the repair protocol: an undecodable reply is
/// `Nak`ed back to the worker (which resends its cached reply, re-drawn
/// through chaos each attempt, bounded by the retransmit budget), a worker
/// `Nak` is answered with the cached clean bytes of the last command, and
/// a reordered reply is held until its successor passes it or the stream
/// goes quiet.
fn pump(
    stream: &TcpStream,
    frames: FrameBuffer,
    tx: &Sender<Reply>,
    shared: &WireShared,
    mut wire: Option<PumpWire>,
) {
    let mut held = None;
    if let Err(error) = pump_loop(stream, frames, tx, shared, wire.as_mut(), &mut held) {
        shared.park(error);
    }
    // Never strand a reordered reply on exit: EOF and error paths flush it
    // so a held final-phase frame cannot fake a dead node.
    if let Some(reply) = held {
        let _ = tx.send(reply);
    }
}

/// The pump's loop. `Ok` is an ordinary end of the stream (EOF, a socket
/// error, the coordinator hanging up); `Err` is a frame the pump cannot
/// use: a framing desync, a payload failing its CRC or decode (past the
/// retransmit budget when chaos is armed, at once when it is not), a
/// worker `Nak` with no clean command to resend, or a frame kind no
/// worker sends.
fn pump_loop(
    stream: &TcpStream,
    mut frames: FrameBuffer,
    tx: &Sender<Reply>,
    shared: &WireShared,
    mut wire: Option<&mut PumpWire>,
    held: &mut Option<Reply>,
) -> Result<(), CoreError> {
    let corrupt = |what: String| CoreError::corrupt_payload("wire", 0, what);
    let mut reader: &TcpStream = stream;
    let mut chunk = [0u8; 64 * 1024];
    // Consecutive undecodable frames on this connection; reset by any
    // clean decode. One ingress chaos draw happens per delivery attempt,
    // so this mirrors §12's per-attempt redraw semantics.
    let mut failures = 0u32;
    loop {
        while let Some(mut payload) = frames.next_frame()? {
            let verdict = wire
                .as_mut()
                .map_or(WireVerdict::Clean, |w| w.chaos.next_ingress(&mut payload));
            if verdict != WireVerdict::Clean {
                if let Ok(mut counters) = shared.counters.lock() {
                    counters.corruptions_injected += 1;
                    if verdict != WireVerdict::Truncated {
                        // Duplicates and reorders are absorbed structurally
                        // (dedup / order-free gather); truncation is
                        // detected by the decode below.
                        counters.corruptions_detected += 1;
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
                            return Ok(());
                        }
                    }
                    if let Some(passed) = held.take() {
                        if tx.send(passed).is_err() {
                            return Ok(());
                        }
                    }
                }
                Ok(WireFrame::Nak) => {
                    // The worker could not decode our last command: resend
                    // the cached clean bytes, bypassing the egress
                    // interceptor (a §12 retransmission). Without chaos
                    // there is no cache, and the command is lost.
                    let resend = wire
                        .as_ref()
                        .and_then(|w| w.last_sent.lock().ok().map(|cache| cache.clone()))
                        .unwrap_or_default();
                    if resend.is_empty() {
                        return Err(corrupt(
                            "a worker could not decode a command frame".to_owned(),
                        ));
                    }
                    if let Ok(mut counters) = shared.counters.lock() {
                        counters.corruptions_detected += 1;
                        counters.checksum_retransmissions += 1;
                    }
                    let mut writer: &TcpStream = stream;
                    if std::io::Write::write_all(&mut writer, &resend).is_err() {
                        return Ok(());
                    }
                }
                Ok(_) => {
                    return Err(corrupt(
                        "a worker sent a frame kind only the coordinator sends".to_owned(),
                    ))
                }
                Err(error) => {
                    let Some(w) = wire.as_ref() else {
                        return Err(error);
                    };
                    failures += 1;
                    if let Ok(mut counters) = shared.counters.lock() {
                        counters.corruptions_detected += 1;
                    }
                    if failures > w.max_retransmits {
                        return Err(corrupt(format!(
                            "reply frame still failing after {} retransmits",
                            w.max_retransmits
                        )));
                    }
                    if let Ok(mut counters) = shared.counters.lock() {
                        counters.checksum_retransmissions += 1;
                    }
                    let mut writer: &TcpStream = stream;
                    let nak = WireFrame::Nak.to_wire();
                    if std::io::Write::write_all(&mut writer, &nak).is_err() {
                        return Ok(());
                    }
                }
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
                return Ok(());
            }
            let read = reader.read(&mut chunk);
            if stream.set_read_timeout(None).is_err() {
                return Ok(());
            }
            match read {
                Ok(0) => return Ok(()),
                Ok(n) => frames.push(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if let Some(passed) = held.take() {
                        if tx.send(passed).is_err() {
                            return Ok(());
                        }
                    }
                }
                Err(_) => return Ok(()),
            }
        } else {
            match reader.read(&mut chunk) {
                Ok(0) | Err(_) => return Ok(()),
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
        let key = AuthKey::new([0xA7; 32]);
        let hex = key.to_hex();
        let mut launcher = WorkerLauncher {
            path: PathBuf::from("ufc-node"),
            addr: "127.0.0.1:7740".to_owned(),
            session: 42,
            auth: Some(key),
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
        launcher.auth = None;
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
                auth: Some(AuthState {
                    key: AuthKey::new([7; 32]),
                    urandom: open_urandom().expect("/dev/urandom is readable"),
                }),
                shared: Arc::default(),
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

    /// With chaos off, each reply stream the coordinator cannot parse — a
    /// payload failing its CRC, a worker `Nak`, a frame kind only the
    /// coordinator sends, a framing desync — ends the pump with a typed
    /// `CorruptPayload` parked, and from then on every process reads as
    /// dead (`alive` checks [`WireShared::healthy`] first), so the gather
    /// ladder stops at once instead of extending for a live worker.
    #[test]
    fn unparseable_reply_streams_park_a_typed_error() {
        let reply = WireFrame::Reply(Reply::FeFinal {
            i: 0,
            lambda: vec![1.0],
        })
        .to_wire();
        let mut bad_crc = reply.clone();
        *bad_crc.last_mut().expect("non-empty frame") ^= 0xFF;
        let mut desync = reply;
        desync[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let inputs = [
            ("bad CRC", bad_crc),
            ("worker Nak", WireFrame::Nak.to_wire()),
            ("coordinator-only kind", WireFrame::Shutdown.to_wire()),
            ("framing desync", desync),
        ];
        for (what, bytes) in inputs {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let addr = listener.local_addr().expect("local addr");
            let mut worker = TcpStream::connect(addr).expect("connect to the pump");
            let (coordinator, _) = listener.accept().expect("accept");
            let shared = Arc::new(WireShared::default());
            let (tx, rx) = channel();
            let pump_shared = Arc::clone(&shared);
            let handle = std::thread::spawn(move || {
                pump(&coordinator, FrameBuffer::new(), &tx, &pump_shared, None);
            });
            worker.write_all(&bytes).expect("write the reply stream");
            // The worker keeps its end open: only the bytes end the pump.
            handle.join().expect("pump thread");
            let parked = shared.error.lock().expect("error slot").clone();
            assert!(
                matches!(parked, Some(CoreError::CorruptPayload { .. })),
                "{what}: parked {parked:?}"
            );
            assert!(!shared.healthy(), "{what}: the process must read as dead");
            assert!(rx.try_recv().is_err(), "{what}: nothing may be delivered");
            drop(worker);
        }
    }
}
