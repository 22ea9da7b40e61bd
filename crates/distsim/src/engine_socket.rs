//! The multi-process socket engine: the supervised coordinator
//! (`crate::supervision`) over a [`ProcessFleet`] of worker OS processes.
//!
//! Each worker is a real OS process (the `ufc-node` binary, running
//! [`crate::worker::run_worker`]) connected to the coordinator over TCP —
//! loopback by default, or any [`crate::wire::BindConfig`] listen address
//! when a shared [`crate::wire::AuthKey`] is configured. The coordinator
//! accepts connections on a background acceptor thread, its one thread
//! besides the caller's, and validates the handshake (a `Hello` session
//! check on loopback; a challenge–response keyed MAC when authentication is
//! on — see DESIGN.md §17). Everything after the handshake happens in the
//! coordinator's own thread: `Fleet::send` writes each fan-out's frames,
//! and `Fleet::recv` reads the connection of the first node the gather
//! still waits for, straight into that connection's [`FrameBuffer`],
//! blocking no longer than what is left of the ladder rung
//! (`SO_RCVTIMEO`), and decodes the replies there ([`Link::visit`]). The
//! protocol, deadline ladder, fault tracker, checkpoint store and replay
//! buffer are the supervisor's, shared with the other fleets; this module
//! only carries the bytes. A hostile peer (wrong key, replayed or truncated
//! handshake, downgrade attempt) is dropped before any iteration state is
//! exchanged and the acceptor keeps serving honest workers.
//!
//! A fleet outlives a run. Each run begins with a `Load` frame to every
//! process ([`ProcessFleet::load`]), which carries the run's
//! configuration, and so does every registration of a new incarnation.
//! After a run that ends cleanly, with every process still running behind
//! its connection, no parked error and no wire chaos bound to the
//! connections, the fleet stays up ([`ProcessFleet::reusable`]) and
//! `DistributedAdmg::execute` parks it for its next socket run with the
//! same options; any other run ends with the fleet's teardown.
//!
//! A reply stream the coordinator cannot parse — a payload failing its CRC
//! or decode, a worker `Nak`, a frame kind a worker never sends, a framing
//! desync — parks a typed [`CoreError::CorruptPayload`] in the fleet, and
//! every process reads as dead from then on, so the gather ladder stops
//! at once and the run fails with that error.
//!
//! A [`crate::fault::CorruptionConfig`] pinned to a wire-level
//! [`crate::fault::CorruptionKind`] arms seeded [`WireChaos`] interceptors
//! at the coordinator's side of every connection — conceptually the
//! coordinator's NIC boundary, covering both directions: outgoing command
//! frames and incoming reply payloads. Truncated frames keep a coherent
//! length prefix but an impossible CRC, so the receiver `Nak`s and the
//! sender retransmits the cached clean bytes; duplicates are absorbed by
//! the receivers' duplicate guards; a reordered reply is held and handed
//! out after its successor, or as soon as the reader would block with it
//! held. The repair runs in the same reader that decodes every run's
//! replies. The iterate stream therefore stays bit-identical to a clean
//! run while every injection is counted and detected.
//!
//! Faults here are real: a scripted crash is a `SIGKILL` delivered to the
//! live worker process mid-iteration (`Child::kill`), a partition window
//! tears down the affected TCP connections so the workers must
//! reconnect-with-backoff, and liveness is `Child::try_wait` — the actual
//! OS process table, not a thread flag — once the process's connection has
//! been read to its end. A respawned process is rebuilt from the last
//! verified snapshot ([`crate::wire::NodeCmd::Restore`]) plus input replay,
//! bit-identical to the state the killed process would have held.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use ufc_core::telemetry::IntegrityCounters;
use ufc_core::CoreError;

use crate::coordinator::Tally;
use crate::fault::{CorruptionConfig, CorruptionKind, FaultPlan, WireChaos, WireVerdict};
use crate::runtime::SocketOptions;
use crate::supervision::{Fleet, Pending, Reply};
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

/// A completed handshake delivered by the acceptor thread: the stream, and
/// the buffer holding whatever the handshake read past its last frame.
struct Registration {
    process: usize,
    incarnation: u32,
    stream: TcpStream,
    frames: FrameBuffer,
}

/// Deterministic per-connection RNG salt: process index × direction, so
/// every connection's egress and ingress interceptor draws an independent
/// but reproducible chaos stream from one [`CorruptionConfig::seed`].
fn wire_salt(process: usize, ingress: bool) -> u64 {
    (2 * process as u64 + u64::from(ingress) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Everything the acceptor thread needs to complete a handshake: the
/// session check and the optional challenge–response key.
struct AcceptorState {
    session: u64,
    auth: Option<AuthState>,
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

/// The coordinator's command egress: everything the process fleet's
/// `Fleet::send` keeps per worker process, plus its counters.
struct Egress {
    /// Command-direction chaos interceptors.
    chaos: Vec<Option<WireChaos>>,
    /// The frames of the fan-out being sent, encoded in place; each
    /// process's go out in one write.
    batches: Vec<Vec<u8>>,
    /// With chaos armed, the clean bytes of the last command sent to each
    /// process: what a worker `Nak` is answered with.
    last_sent: Vec<Vec<u8>>,
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

/// How far past its receive timeout a blocking read may return: the
/// kernel rounds `SO_RCVTIMEO` up to its timer tick (6–8 ms past the
/// timeout, measured at HZ = 250). A read blocks in the kernel only for
/// what is left of the rung beyond this slack, so it returns inside the
/// rung.
const RCVTIMEO_SLACK: Duration = Duration::from_millis(10);

/// The sleep between two non-blocking reads in the last
/// [`RCVTIMEO_SLACK`] of a rung.
const POLL_STEP: Duration = Duration::from_micros(200);

/// The receive timeout for a read with `remaining` left of the rung: the
/// rest beyond [`RCVTIMEO_SLACK`], rounded down to whole milliseconds, or
/// zero (read without blocking) in the rung's last stretch. The rounded
/// value stays the same across the reads of a gather and from one gather
/// to the next, so a stream keeps the timeout it has and a read costs no
/// `setsockopt`.
fn read_timeout(remaining: Duration) -> Duration {
    let blocking = remaining.saturating_sub(RCVTIMEO_SLACK);
    Duration::from_millis(blocking.as_millis() as u64)
}

/// What one [`Link::visit`] came back with.
enum Visit {
    /// A reply.
    Reply(Reply),
    /// Nothing before the deadline.
    Idle,
    /// The worker closed the connection and everything it sent has been
    /// handed out.
    Closed,
}

/// One worker process's connection, as the coordinator holds it: the
/// stream its commands go out on and its replies come in on, the replies'
/// reassembly buffer, and the reader's state for this connection.
struct Link {
    stream: TcpStream,
    frames: FrameBuffer,
    /// Whether the worker has closed its end: what is buffered is all that
    /// is left to read.
    eof: bool,
    /// Replies decoded and not yet handed out, oldest first: the second
    /// copy of a chaos duplicate, and a held reply its successor passed.
    ready: VecDeque<Reply>,
    /// The reply ingress chaos reordered, handed out after its successor.
    held: Option<Reply>,
    /// Reply-direction chaos (only with a wire-level kind armed).
    chaos: Option<WireChaos>,
    /// Consecutive undecodable frames under chaos; any clean decode resets
    /// it. One ingress chaos draw happens per delivery attempt, so this
    /// mirrors §12's per-attempt redraw semantics.
    failures: u32,
    /// The receive timeout the reader last set on the stream.
    timeout: Option<Duration>,
}

impl Link {
    fn new(stream: TcpStream, frames: FrameBuffer, chaos: Option<WireChaos>) -> Self {
        Link {
            stream,
            frames,
            eof: false,
            ready: VecDeque::new(),
            held: None,
            chaos,
            failures: 0,
            timeout: None,
        }
    }

    /// Whether nothing read from this connection waits to be handed out.
    fn drained(&self) -> bool {
        self.frames.pending_bytes() == 0 && self.ready.is_empty() && self.held.is_none()
    }

    /// The coordinator's reader for this connection: hands out the next
    /// reply, decoding what is buffered first and reading the stream only
    /// when nothing is, never blocking past `deadline`: a blocking read
    /// stops [`RCVTIMEO_SLACK`] short of it, the rest is polled, and a
    /// deadline already passed reads what the socket holds without
    /// blocking.
    ///
    /// With chaos armed this is also the coordinator's half of the repair
    /// protocol: every payload gets one ingress draw; an undecodable reply
    /// is `Nak`ed back to the worker (which resends its cached reply,
    /// re-drawn through chaos each attempt, bounded by `max_retransmits`),
    /// a worker `Nak` is answered with `resend`, the clean bytes of the
    /// last command, and a reordered reply is held until its successor
    /// passes it or the reader would block with it held. `counters` gets
    /// every injection, detection and retransmission.
    ///
    /// # Errors
    ///
    /// [`CoreError::CorruptPayload`] for a stream the coordinator cannot
    /// use: a framing desync, a payload failing its CRC or decode (past
    /// the retransmit budget when chaos is armed, at once when it is not),
    /// a worker `Nak` with no clean command to resend, or a frame kind no
    /// worker sends.
    fn visit(
        &mut self,
        deadline: Instant,
        resend: &[u8],
        counters: &mut IntegrityCounters,
        max_retransmits: u32,
    ) -> Result<Visit, CoreError> {
        let corrupt = |what: String| CoreError::corrupt_payload("wire", 0, what);
        loop {
            if let Some(reply) = self.ready.pop_front() {
                return Ok(Visit::Reply(reply));
            }
            if let Some(mut payload) = self.frames.next_frame()? {
                let verdict = self
                    .chaos
                    .as_mut()
                    .map_or(WireVerdict::Clean, |chaos| chaos.next_ingress(&mut payload));
                if verdict != WireVerdict::Clean {
                    counters.corruptions_injected += 1;
                    if verdict != WireVerdict::Truncated {
                        // Duplicates and reorders are absorbed structurally
                        // (dedup / order-free gather); truncation is
                        // detected by the decode below.
                        counters.corruptions_detected += 1;
                    }
                }
                let answer = match WireFrame::decode_payload(payload) {
                    Ok(WireFrame::Reply(reply)) => {
                        self.failures = 0;
                        if verdict == WireVerdict::Reordered && self.held.is_none() {
                            self.held = Some(reply);
                            continue;
                        }
                        if verdict == WireVerdict::Duplicated {
                            self.ready.push_back(reply.clone());
                        }
                        self.ready.extend(self.held.take());
                        return Ok(Visit::Reply(reply));
                    }
                    Ok(WireFrame::Nak) => {
                        // The worker could not decode our last command:
                        // resend its clean bytes, bypassing the egress
                        // interceptor (a §12 retransmission). Without chaos
                        // there is no cache, and the command is lost.
                        if resend.is_empty() {
                            return Err(corrupt(
                                "a worker could not decode a command frame".to_owned(),
                            ));
                        }
                        counters.corruptions_detected += 1;
                        counters.checksum_retransmissions += 1;
                        resend
                    }
                    Ok(_) => {
                        return Err(corrupt(
                            "a worker sent a frame kind only the coordinator sends".to_owned(),
                        ))
                    }
                    Err(error) => {
                        if self.chaos.is_none() {
                            return Err(error);
                        }
                        self.failures += 1;
                        counters.corruptions_detected += 1;
                        if self.failures > max_retransmits {
                            return Err(corrupt(format!(
                                "reply frame still failing after {max_retransmits} retransmits"
                            )));
                        }
                        counters.checksum_retransmissions += 1;
                        &WireFrame::Nak.to_wire()
                    }
                };
                // A connection that takes no more writes delivers no more
                // replies either.
                if (&self.stream).write_all(answer).is_err() {
                    self.eof = true;
                }
                continue;
            }
            if let Some(reply) = self.held.take() {
                return Ok(Visit::Reply(reply));
            }
            if self.eof {
                return Ok(Visit::Closed);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            let timeout = read_timeout(remaining);
            let read = if timeout.is_zero() {
                let read = self
                    .stream
                    .set_nonblocking(true)
                    .and_then(|()| self.frames.read_from(&mut &self.stream));
                let _ = self.stream.set_nonblocking(false);
                read
            } else {
                let set = if self.timeout == Some(timeout) {
                    Ok(())
                } else {
                    self.timeout = Some(timeout);
                    self.stream.set_read_timeout(Some(timeout))
                };
                set.and_then(|()| self.frames.read_from(&mut &self.stream))
            };
            match read {
                Ok(0) => self.eof = true,
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if remaining.is_zero() {
                        return Ok(Visit::Idle);
                    }
                    if timeout.is_zero() {
                        std::thread::sleep(POLL_STEP.min(remaining));
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.eof = true,
            }
        }
    }
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
    /// Live worker processes, one slot per process index.
    children: Vec<Option<Child>>,
    /// Connections to the workers (`None` while a worker is down, its
    /// connection is dropped, or once it has been read to its end).
    links: Vec<Option<Link>>,
    /// Respawn generation per process slot. It only rises, across runs
    /// too, so a stale registration from an earlier run is refused.
    incarnations: Vec<u32>,
    /// The acceptor thread; `None` once the fleet is torn down.
    acceptor: Option<JoinHandle<()>>,
    acceptor_stop: Arc<AtomicBool>,
    /// Command egress.
    egress: Egress,
    /// The wire-level corruption bound to the connections, if any.
    chaos: Option<CorruptionConfig>,
    /// This run's wire-chaos counters (zero unless chaos is armed).
    wire_counters: IntegrityCounters,
    /// The first typed error the reader parked in this run.
    error: Option<CoreError>,
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
        let egress = Egress {
            chaos: (0..processes)
                .map(|p| WireChaos::egress(plan.corruption.as_ref(), wire_salt(p, false)))
                .collect(),
            batches: vec![Vec::new(); processes],
            last_sent: vec![Vec::new(); processes],
            frames_sent: 0,
            socket_writes: 0,
        };
        let (reg_tx, reg_rx) = channel::<Registration>();
        let acceptor_stop = Arc::new(AtomicBool::new(false));
        let acceptor = spawn_acceptor(
            listener,
            AcceptorState { session, auth },
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
            children: (0..processes).map(|_| None).collect(),
            links: (0..processes).map(|_| None).collect(),
            incarnations: vec![0; processes],
            acceptor: Some(acceptor),
            acceptor_stop,
            egress,
            chaos: wire_kind(plan).and(plan.corruption),
            wire_counters: IntegrityCounters::default(),
            error: None,
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
    pub(crate) fn fits(
        &mut self,
        options: &SocketOptions,
        processes: usize,
        plan: &FaultPlan,
    ) -> bool {
        self.options == *options
            && self.processes == processes
            && wire_kind(plan).is_none()
            && self.reusable()
    }

    /// Whether the fleet can serve another run: it is not torn down, no
    /// wire chaos is bound to its connections, no error is parked, and
    /// every process runs behind a live connection.
    pub(crate) fn reusable(&mut self) -> bool {
        self.acceptor.is_some()
            && self.chaos.is_none()
            && self.error.is_none()
            && (0..self.processes).all(|p| self.links[p].is_some() && self.runs(p))
    }

    /// Starts a run of `config` (`config.processes` must be the fleet's):
    /// clears the previous run's counters and sends every process a `Load`
    /// with the next sequence number. A clean run leaves nothing unread —
    /// each connection's unread pipelined predictions arrive before its
    /// finals, which the final gather reads — so every connection is
    /// drained here (debug builds assert it).
    pub(crate) fn load(&mut self, config: &RunConfig) {
        debug_assert!(
            self.links.iter().flatten().all(Link::drained),
            "replies left over from the previous run"
        );
        self.m = config.instance.m_frontends();
        self.n = config.instance.n_datacenters();
        self.config = config.encode();
        self.loads += 1;
        self.egress.frames_sent = 0;
        self.egress.socket_writes = 0;
        self.wire_counters = IntegrityCounters::default();
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
        let Some(link) = &self.links[p] else {
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
        let _ = (&link.stream).write_all(&WireFrame::Load(load).to_wire());
    }

    /// Launches the worker binary for process slot `p` at its current
    /// incarnation. Registration happens asynchronously via the acceptor.
    fn spawn_process(&mut self, p: usize) -> Result<(), CoreError> {
        self.children[p] = Some(self.launcher.spawn(p, self.incarnations[p])?);
        Ok(())
    }

    /// Blocks until process `p` (at its current incarnation) completes the
    /// handshake, installing any other registrations that arrive meanwhile.
    fn await_registration(&mut self, p: usize) -> Result<(), CoreError> {
        let deadline = Instant::now() + REGISTRATION_DEADLINE;
        while self.links[p].is_none() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let reg = (!remaining.is_zero())
                .then(|| self.reg_rx.recv_timeout(remaining).ok())
                .flatten()
                .ok_or_else(|| {
                    CoreError::node_failure(
                        format!("process-{p}"),
                        0,
                        "worker did not complete the handshake before the deadline",
                    )
                })?;
            self.install_registration(reg);
        }
        Ok(())
    }

    /// Adopts a completed handshake — unless it is stale (an old
    /// incarnation of a process we have since killed and respawned, or a
    /// straggler arriving after teardown emptied the connection table). A
    /// new connection gets a fresh reader, with this fleet's reply-direction
    /// chaos when it is armed.
    fn install_registration(&mut self, reg: Registration) {
        let p = reg.process;
        if p >= self.links.len() || reg.incarnation != self.incarnations[p] {
            let _ = reg.stream.shutdown(Shutdown::Both);
            return;
        }
        let chaos = WireChaos::ingress(self.chaos.as_ref(), wire_salt(p, true));
        self.links[p] = Some(Link::new(reg.stream, reg.frames, chaos));
    }

    /// Installs any registrations already queued (reconnects after a
    /// partition heal can complete while the coordinator is mid-phase).
    fn drain_registrations(&mut self) {
        while let Ok(reg) = self.reg_rx.try_recv() {
            self.install_registration(reg);
        }
    }

    /// Drops process `p`'s connection, if it has one.
    fn drop_link(&mut self, p: usize) {
        if let Some(link) = self.links[p].take() {
            let _ = link.stream.shutdown(Shutdown::Both);
        }
    }

    /// Delivers a real `SIGKILL` to process `p` and reaps it.
    fn kill_process(&mut self, p: usize) {
        self.drop_link(p);
        if let Some(mut child) = self.children[p].take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Whether process `p` has a child that is still running.
    fn runs(&mut self, p: usize) -> bool {
        self.children[p]
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
            self.drop_link(p);
        }
        for &p in &affected {
            self.await_registration(p)?;
            self.reconnects += 1;
        }
        Ok(())
    }

    /// Orderly teardown: `Shutdown` frames, forced socket closes, acceptor
    /// stop and join, then a bounded wait for each worker process with
    /// `SIGKILL` as the backstop. Afterwards the fleet is no longer
    /// [`ProcessFleet::reusable`].
    ///
    /// # Errors
    ///
    /// [`CoreError::NodeFailure`] when the acceptor thread panicked.
    pub(crate) fn teardown(&mut self) -> Result<(), CoreError> {
        let shutdown = WireFrame::Shutdown.to_wire();
        for link in self.links.iter().flatten() {
            let _ = (&link.stream).write_all(&shutdown);
        }
        for link in self.links.drain(..).flatten() {
            let _ = link.stream.shutdown(Shutdown::Both);
        }
        self.acceptor_stop.store(true, Ordering::SeqCst);
        // The acceptor is blocked in accept(); poke it awake.
        let _ = TcpStream::connect(&self.launcher.addr);
        let mut result = Ok(());
        if let Some(handle) = self.acceptor.take() {
            if handle.join().is_err() {
                result = Err(CoreError::node_failure(
                    "coordinator",
                    0,
                    "acceptor thread panicked during shutdown",
                ));
            }
        }
        self.drain_registrations();
        let deadline = Instant::now() + EXIT_GRACE;
        for mut child in self.children.iter_mut().filter_map(Option::take) {
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
        result
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
    /// Reads, in this thread, the connection of the first pending node
    /// that still has one ([`Link::visit`]), until it yields a reply or
    /// `timeout` has passed. A connection the worker closed is read to its
    /// end and then dropped, and the next pending node's is read. With no
    /// connection left for the pending nodes the call returns `None` at
    /// once when none of their processes runs either (no reply can come),
    /// and otherwise waits `timeout` out, as an empty reply channel would:
    /// a running process may still reconnect. Once a typed error is parked
    /// nothing more is read, and the call returns `None` at once.
    fn recv(&mut self, pending: &Pending, timeout: Duration) -> Option<Reply> {
        let deadline = Instant::now() + timeout;
        let max_retransmits = self.chaos.map_or(0, |c| c.max_retransmits);
        while self.error.is_none() {
            let Some(p) = pending
                .ids()
                .map(|id| process_of(id, self.processes))
                .find(|&p| self.links[p].is_some())
            else {
                if pending
                    .ids()
                    .any(|id| self.runs(process_of(id, self.processes)))
                {
                    std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
                }
                return None;
            };
            let link = self.links[p].as_mut()?;
            let resend = &self.egress.last_sent[p];
            match link.visit(deadline, resend, &mut self.wire_counters, max_retransmits) {
                Ok(Visit::Reply(reply)) => return Some(reply),
                Ok(Visit::Idle) => return None,
                Ok(Visit::Closed) => self.drop_link(p),
                Err(error) => self.error = Some(error),
            }
        }
        None
    }

    /// The coordinator's one egress path, fed a whole fan-out at a time.
    /// Each `(node, cmd)` is encoded as its `Cmd` frame straight into the
    /// batch of the process hosting `node`; then each process's batch goes
    /// out in one `write_all`, so a worker hosting several nodes pays one
    /// syscall and one wake-up per fan-out, not one per node. With one
    /// process per node a write carries one frame, or two on a front-end
    /// connection of a pipelined correction (its correction and its next
    /// prediction). Errors are deliberately swallowed — a dead or dropped
    /// connection surfaces as silence in the gather ladder, which owns the
    /// failure verdict. With wire chaos armed, each frame's clean bytes are
    /// cached first (so a worker `Nak` can be answered by the reader with
    /// an uncorrupted resend) and the egress interceptor then gets one draw
    /// at the frame, in the order the frames go out on that connection. It
    /// takes a `Vec`, not a generic iterator, so that one copy of this body
    /// serves every call site.
    fn send(&mut self, cmds: Vec<(usize, NodeCmd)>) {
        let Egress {
            chaos,
            batches,
            last_sent,
            frames_sent,
            socket_writes,
        } = &mut self.egress;
        for (node, cmd) in cmds {
            let p = process_of(node, self.processes);
            if self.links[p].is_none() {
                continue;
            }
            let batch = &mut batches[p];
            let start = batch.len();
            WireFrame::Cmd { node, cmd }.write_wire(batch);
            *frames_sent += 1;
            let Some(chaos) = chaos[p].as_mut() else {
                continue;
            };
            last_sent[p].clear();
            last_sent[p].extend_from_slice(&batch[start..]);
            let verdict = chaos.next_egress(batch, start);
            if verdict != WireVerdict::Clean {
                let counters = &mut self.wire_counters;
                counters.corruptions_injected += 1;
                if verdict == WireVerdict::Duplicated {
                    // The worker's duplicate guard drops the copy
                    // unconditionally; detection is structural.
                    counters.corruptions_detected += 1;
                    batch.extend_from_within(start..);
                }
            }
        }
        for (batch, link) in batches.iter_mut().zip(&self.links) {
            if let (false, Some(link)) = (batch.is_empty(), link) {
                let _ = (&link.stream).write_all(batch);
                *socket_writes += 1;
            }
            batch.clear();
        }
    }

    /// Liveness straight from the OS process table, once the process's
    /// connection has been read to its end (so a reply a worker wrote
    /// before it exited is still handed out) — unless the reader parked a
    /// typed error, after which every process reads as dead.
    fn alive(&mut self, id: usize) -> bool {
        let p = process_of(id, self.processes);
        self.error.is_none() && (self.links[p].is_some() || self.runs(p))
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
    /// counters, the wire-chaos counters, the reconnects and dead-node
    /// declarations; the integrity section is reported whenever chaos was
    /// armed or either of the latter moved.
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
        let wire = &self.wire_counters;
        counters.corruptions_injected += wire.corruptions_injected;
        counters.corruptions_detected += wire.corruptions_detected;
        counters.checksum_retransmissions += wire.checksum_retransmissions;
        counters.reconnects += self.reconnects;
        counters.dead_node_declarations += self.dead_node_declarations;
        tally.report_integrity |=
            self.chaos.is_some() || self.reconnects > 0 || self.dead_node_declarations > 0;
        (self.error.take(), result)
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
/// configured), and hands each validated connection to the coordinator
/// via `reg_tx`. A hostile or malformed peer is simply dropped — the loop
/// keeps serving honest workers.
fn spawn_acceptor(
    listener: TcpListener,
    state: AcceptorState,
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
            let Some(reg) = handshake(stream, &state) else {
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
            Ok(Some(payload)) => return WireFrame::decode_payload(payload).ok(),
            Ok(None) => {}
            Err(_) => return None,
        }
        if frames.read_from(&mut &*stream).ok()? == 0 {
            return None;
        }
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
fn handshake(stream: TcpStream, state: &AcceptorState) -> Option<Registration> {
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
            let challenge = WireFrame::Challenge { nonce };
            (&stream).write_all(&challenge.to_wire()).ok()?;
            let answer = read_one_frame(&stream, &mut frames)?;
            verify_auth_hello(key, &nonce, state.session, &answer).ok()?
        }
    };
    Some(Registration {
        process,
        incarnation,
        stream,
        frames,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::NodeId;

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
            },
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

    /// A one-process fleet with no worker behind it, reading `stream`: the
    /// coordinator's end of a loopback connection the test writes into.
    fn reader_over(stream: TcpStream) -> ProcessFleet {
        let (_reg_tx, reg_rx) = channel();
        ProcessFleet {
            options: SocketOptions::new("ufc-node"),
            m: 1,
            n: 0,
            processes: 1,
            launcher: WorkerLauncher {
                path: PathBuf::from("ufc-node"),
                addr: "127.0.0.1:0".to_owned(),
                session: 0,
                auth: None,
            },
            reg_rx,
            children: vec![None],
            links: vec![Some(Link::new(stream, FrameBuffer::new(), None))],
            incarnations: vec![0],
            acceptor: None,
            acceptor_stop: Arc::default(),
            egress: Egress {
                chaos: vec![None],
                batches: vec![Vec::new()],
                last_sent: vec![Vec::new()],
                frames_sent: 0,
                socket_writes: 0,
            },
            chaos: None,
            wire_counters: IntegrityCounters::default(),
            error: None,
            dead_node_declarations: 0,
            reconnects: 0,
            config: Vec::new(),
            loads: 0,
        }
    }

    /// A loopback connection: the worker's end, and a reader over the
    /// coordinator's.
    fn connected_reader() -> (TcpStream, ProcessFleet) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let worker = TcpStream::connect(addr).expect("connect to the reader");
        let (coordinator, _) = listener.accept().expect("accept");
        (worker, reader_over(coordinator))
    }

    /// The reader keeps to the rung it is given: a zero budget hands out
    /// what has arrived without blocking, and a silent connection is read
    /// for the whole budget but not much past it (the bounds leave room
    /// for a loaded host, not for a read left blocking on an older
    /// timeout).
    #[test]
    fn reads_stay_inside_their_budget() {
        let pending = Pending::of(1, 0, [NodeId::Frontend(0)]);
        let (mut worker, mut fleet) = connected_reader();
        let reply = Reply::FeFinal {
            i: 0,
            lambda: vec![0.5],
        };
        worker
            .write_all(&WireFrame::Reply(reply.clone()).to_wire())
            .expect("write a reply");
        assert_eq!(fleet.recv(&pending, Duration::ZERO), Some(reply));
        let start = Instant::now();
        assert_eq!(fleet.recv(&pending, Duration::ZERO), None);
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "a zero budget blocked"
        );
        for budget in [Duration::from_millis(4), Duration::from_millis(30)] {
            let start = Instant::now();
            assert_eq!(fleet.recv(&pending, budget), None);
            let waited = start.elapsed();
            assert!(waited >= budget, "{budget:?}: gave up after {waited:?}");
            assert!(
                waited < budget + Duration::from_millis(200),
                "{budget:?}: read for {waited:?}"
            );
        }
        assert!(fleet.error.is_none() && fleet.alive(0));
    }

    /// With chaos off, each reply stream the coordinator cannot parse — a
    /// payload failing its CRC, a worker `Nak`, a frame kind only the
    /// coordinator sends, a framing desync — parks a typed
    /// `CorruptPayload` in the fleet as the coordinator's own reader meets
    /// it, with no thread, delivers nothing, and from then on every process
    /// reads as dead and `recv` returns at once, so the gather ladder stops
    /// instead of extending for a live worker.
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
        let pending = Pending::of(1, 0, [NodeId::Frontend(0)]);
        let patience = Duration::from_secs(5);
        for (what, bytes) in inputs {
            let (mut worker, mut fleet) = connected_reader();
            // The worker keeps its end open: only the bytes end the read.
            worker.write_all(&bytes).expect("write the reply stream");
            let start = Instant::now();
            let delivered = fleet.recv(&pending, patience);
            assert!(delivered.is_none(), "{what}: delivered {delivered:?}");
            assert!(
                start.elapsed() < patience,
                "{what}: the reader waited out its budget"
            );
            assert!(
                matches!(fleet.error, Some(CoreError::CorruptPayload { .. })),
                "{what}: parked {:?}",
                fleet.error
            );
            assert!(!fleet.alive(0), "{what}: the process must read as dead");
            let again = Instant::now();
            assert!(fleet.recv(&pending, patience).is_none());
            assert!(again.elapsed() < patience, "{what}: recv after the error");
            drop(worker);
        }
    }
}
