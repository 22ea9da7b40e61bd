//! The worker side of the supervised runtime: the one node-command
//! dispatch, and the two carriers that serve it.
//!
//! Every node — in the coordinator's own thread (`InlineFleet`) or in a
//! `ufc-node` process ([`run_worker`]) — is a hosted kernel that answers
//! `NodeCmd`s through the same `dispatch`, calling the same node methods in
//! the same order. That is what makes the two engines bit-identical to each
//! other, and to the in-process solver that steps the same node types.
//!
//! [`run_worker`] is the entire body of the `ufc-node` binary: connect to
//! the coordinator (over a Unix socket on its own host, or TCP), introduce
//! yourself (a `Hello` wire frame), then serve one run per `Load` frame —
//! rebuild your hosted node kernels from its `RunConfig` and answer
//! node-addressed commands — until the coordinator says `Shutdown` or
//! hangs up once every hosted node has shipped its final iterate. A worker
//! process therefore outlives a run: the coordinator keeps its fleet
//! between the runs of one `DistributedAdmg`. It hosts the nodes
//! `id % processes == process` (see [`crate::wire::hosted_nodes`]):
//! front-end kernels for `id < m`, datacenter kernels above.
//!
//! Failure behaviour: a dropped connection (`ECONNRESET`, EOF — e.g. the
//! coordinator simulating a WAN partition by shutting the socket down) is
//! answered with reconnect-with-backoff and a fresh `Hello` carrying the
//! *same* incarnation, after which the run resumes on the new stream; the
//! kernels live in this process and keep their state across reconnects.
//! A worker whose parent process is gone (a coordinator killed mid-run;
//! the worker has been reparented) makes no reconnect attempt and exits.
//! A worker that was really killed (`kill -9`) is respawned by the
//! coordinator with a bumped incarnation and rebuilt from the last
//! verified checkpoint via a `Restore` command plus command replay.

use std::collections::VecDeque;
use std::io::Write;
use std::os::unix::process::parent_id;
use std::thread;
use std::time::Duration;

use ufc_core::node::{DatacenterNode, DatacenterSnapshot, FrontendNode, FrontendSnapshot};
use ufc_core::{AdmgSettings, CoreError, WorkerPool};
use ufc_model::UfcInstance;

use crate::carrier::Stream;
use crate::coordinator::Tally;
use crate::supervision::{Fleet, Pending, Reply};
use crate::wire::{
    handshake_mac, hosted_nodes, AuthKey, FrameBuffer, NodeCmd, RunConfig, WireFrame,
};

/// Connection attempts before the worker gives up on the coordinator.
const CONNECT_ATTEMPTS: usize = 12;

/// Initial retry delay; doubles per attempt up to [`BACKOFF_CAP`].
const BACKOFF_START: Duration = Duration::from_millis(10);

/// Ceiling on the reconnect backoff delay.
const BACKOFF_CAP: Duration = Duration::from_millis(500);

/// Naks a worker may send per connection before declaring the link
/// poisoned. Generously above any plausible chaos draw count — the
/// per-send retransmit budget is enforced coordinator-side; this bound
/// only prevents a livelock on a link that corrupts everything.
const NAK_BUDGET: usize = 4096;

/// One hosted node kernel.
// Both kernels are boxed: each carries per-node solver workspaces that
// would otherwise bloat every enum slot to the largest kernel's size.
enum Hosted {
    Fe(Box<FrontendNode>),
    Dc(Box<DatacenterNode>),
}

impl Hosted {
    /// The fresh kernel of node `id`: front-end `id` below `m`, datacenter
    /// `id − m` above — identical construction on every engine.
    fn new(
        instance: &UfcInstance,
        settings: &AdmgSettings,
        active_mu: bool,
        active_nu: bool,
        id: usize,
    ) -> Self {
        let m = instance.m_frontends();
        if id < m {
            Hosted::Fe(Box::new(FrontendNode::new(instance, id, settings)))
        } else {
            Hosted::Dc(Box::new(DatacenterNode::new(
                instance,
                id - m,
                settings,
                active_mu,
                active_nu,
            )))
        }
    }
}

fn io_failure(process: usize, context: &str, err: &std::io::Error) -> CoreError {
    CoreError::node_failure(format!("worker-{process}"), 0, format!("{context}: {err}"))
}

/// Connects to the coordinator, retrying with backoff, unless the worker's
/// parent is no longer `parent` (the coordinator that spawned it): an
/// orphan has nobody to reconnect to, so it fails before every attempt.
fn connect_with_backoff(addr: &str, process: usize, parent: u32) -> Result<Stream, CoreError> {
    let mut delay = BACKOFF_START;
    let mut last: Option<std::io::Error> = None;
    for _ in 0..CONNECT_ATTEMPTS {
        if parent_id() != parent {
            return Err(CoreError::node_failure(
                format!("worker-{process}"),
                0,
                format!("coordinator gone: parent process {parent} exited"),
            ));
        }
        match Stream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                last = Some(e);
                thread::sleep(delay);
                delay = (delay * 2).min(BACKOFF_CAP);
            }
        }
    }
    Err(CoreError::node_failure(
        format!("worker-{process}"),
        0,
        format!(
            "cannot reach coordinator at {addr} after {CONNECT_ATTEMPTS} attempts: {}",
            last.map_or_else(|| "no attempt made".to_owned(), |e| e.to_string())
        ),
    ))
}

/// A live session: the stream, its reassembly buffer, the frames queued
/// for the next write, and the per-run wire-chaos recovery state
/// (duplicate suppression, reply cache for coordinator Naks, Nak budget),
/// which a reconnect or a `Load` starts afresh. The buffers are reused from
/// frame to frame.
struct Session {
    stream: Stream,
    frames: FrameBuffer,
    /// Frames to send, in order, encoded in place and written together by
    /// [`Session::flush`] just before the worker would block on a read. A
    /// failed flush leaves them here, which is how [`run_worker`] tells a
    /// failed write (fatal) from a dropped read (reconnect).
    out: Vec<u8>,
    /// Raw payload bytes of the previously delivered frame (empty before
    /// the first; no payload is empty). A chaos `FrameDuplicate` arrives as
    /// two byte-identical back-to-back frames; legitimate consecutive
    /// frames are never identical (commands embed their iteration, finals
    /// their node id), so equality means "drop".
    last_seen: Vec<u8>,
    /// Wire bytes of the last reply sent (empty before the first);
    /// retransmitted verbatim when the coordinator answers with a
    /// [`WireFrame::Nak`].
    last_reply: Vec<u8>,
    /// Naks sent in this run on this connection (bounded by
    /// [`NAK_BUDGET`]).
    naks_sent: usize,
}

impl Session {
    /// Connects (with backoff, while the worker's parent is still
    /// `parent`) and performs the handshake: a plain `Hello` without a key,
    /// or the challenge–response exchange with one.
    fn establish(
        addr: &str,
        process: usize,
        session: u64,
        incarnation: u32,
        auth: Option<&AuthKey>,
        parent: u32,
    ) -> Result<Session, CoreError> {
        let stream = connect_with_backoff(addr, process, parent)?;
        let mut link = Session {
            stream,
            frames: FrameBuffer::new(),
            out: Vec::new(),
            last_seen: Vec::new(),
            last_reply: Vec::new(),
            naks_sent: 0,
        };
        match auth {
            None => {
                WireFrame::Hello {
                    session,
                    process,
                    incarnation,
                }
                .write_wire(&mut link.out);
                link.flush(process)?;
            }
            Some(key) => {
                // Say nothing until the coordinator proves it holds the
                // run: wait for its challenge, answer with the keyed MAC.
                let frame = link.next_frame(process)?.ok_or_else(|| {
                    CoreError::unauthorized(
                        format!("worker-{process}"),
                        "connection closed before the authentication challenge",
                    )
                })?;
                let WireFrame::Challenge { nonce } = frame else {
                    return Err(CoreError::unauthorized(
                        format!("worker-{process}"),
                        "expected an authentication challenge, got a different frame",
                    ));
                };
                let mac = handshake_mac(key, &nonce, session, process, incarnation);
                WireFrame::AuthHello {
                    session,
                    process,
                    incarnation,
                    mac,
                }
                .write_wire(&mut link.out);
                link.flush(process)?;
            }
        }
        Ok(link)
    }

    /// Forgets the previous run's duplicate guard, reply cache and Nak
    /// count.
    fn reset_run_state(&mut self) {
        self.last_seen.clear();
        self.last_reply.clear();
        self.naks_sent = 0;
    }

    /// Blocks for the next complete frame; `Ok(None)` on orderly EOF.
    /// Queued frames are flushed first whenever the input holds no
    /// complete frame, so the replies to one batch of commands leave in
    /// one write before the worker waits for the next batch.
    ///
    /// Wire-chaos recovery happens here: a payload that fails its CRC or
    /// bounds checks is answered with a `Nak` (asking the coordinator to
    /// retransmit), queued behind any replies, instead of dying, and a
    /// frame byte-identical to the previous one is dropped as a chaos
    /// duplicate.
    fn next_frame(&mut self, process: usize) -> Result<Option<WireFrame>, CoreError> {
        loop {
            if let Some(payload) = self.frames.next_frame()? {
                match WireFrame::decode_payload(payload) {
                    Ok(frame) => {
                        if frame != WireFrame::Nak && self.last_seen == payload {
                            continue;
                        }
                        self.last_seen.clear();
                        self.last_seen.extend_from_slice(payload);
                        return Ok(Some(frame));
                    }
                    Err(_) if self.naks_sent < NAK_BUDGET => {
                        self.naks_sent += 1;
                        WireFrame::Nak.write_wire(&mut self.out);
                        continue;
                    }
                    Err(err) => return Err(err),
                }
            }
            self.flush(process)?;
            let n = self
                .frames
                .read_from(&mut &self.stream)
                .map_err(|e| io_failure(process, "socket read", &e))?;
            if n == 0 {
                if self.frames.pending_bytes() > 0 {
                    return Err(CoreError::corrupt_payload(
                        format!("worker-{process}"),
                        0,
                        format!(
                            "connection closed mid-frame with {} bytes pending",
                            self.frames.pending_bytes()
                        ),
                    ));
                }
                return Ok(None);
            }
        }
    }

    /// Queues a reply behind the others of this batch, keeping its bytes
    /// for a coordinator `Nak`.
    fn queue_reply(&mut self, reply: Reply) {
        let start = self.out.len();
        WireFrame::Reply(reply).write_wire(&mut self.out);
        self.last_reply.clear();
        self.last_reply.extend_from_slice(&self.out[start..]);
    }

    /// Writes every queued frame with one `write_all`.
    fn flush(&mut self, process: usize) -> Result<(), CoreError> {
        if self.out.is_empty() {
            return Ok(());
        }
        (&self.stream)
            .write_all(&self.out)
            .and_then(|()| (&self.stream).flush())
            .map_err(|e| io_failure(process, "socket write", &e))?;
        self.out.clear();
        Ok(())
    }
}

/// Builds the node kernels this process hosts, in node-id order.
fn build_nodes(config: &RunConfig, process: usize) -> Vec<(usize, Hosted)> {
    let m = config.instance.m_frontends();
    let n = config.instance.n_datacenters();
    hosted_nodes(process, config.processes, m, n)
        .into_iter()
        .map(|id| {
            let settings = &config.settings;
            let (mu, nu) = (config.active_mu, config.active_nu);
            (id, Hosted::new(&config.instance, settings, mu, nu, id))
        })
        .collect()
}

/// Dispatches one command to the addressed hosted node: the one node
/// dispatch of every engine, for inline nodes and worker processes alike
/// (`carrier` names the node or process in errors).
/// Returns the reply to ship, or `None` for fire-and-forget verbs
/// (membership, restore).
fn dispatch(
    node_id: usize,
    hosted: &mut Hosted,
    cmd: NodeCmd,
    carrier: usize,
) -> Result<Option<Reply>, CoreError> {
    let misaddressed = |verb: &str| {
        CoreError::node_failure(
            format!("worker-{carrier}"),
            0,
            format!("{verb} command addressed to the wrong node kind (node {node_id})"),
        )
    };
    match (hosted, cmd) {
        (Hosted::Fe(node), NodeCmd::Predict { iteration }) => Ok(Some(Reply::Lambda {
            i: node.index(),
            iteration,
            row: node.predict_lambda().to_vec(),
        })),
        (Hosted::Fe(node), NodeCmd::Correct { iteration, a_row }) => Ok(Some(Reply::FeResidual {
            i: node.index(),
            iteration,
            residuals: node.receive_a_and_correct(&a_row),
        })),
        (Hosted::Dc(node), NodeCmd::Process { iteration, column }) => {
            let j = node.index();
            let step = node.process(&column);
            Ok(Some(Reply::DcStep {
                j,
                iteration,
                a_tilde: step.a_tilde.to_vec(),
                d: step.d,
                residuals: step.residuals,
            }))
        }
        (Hosted::Fe(node), NodeCmd::Snapshot { iteration }) => Ok(Some(Reply::FeSnapshot {
            i: node.index(),
            iteration,
            blob: node.snapshot().to_bytes(),
        })),
        (Hosted::Dc(node), NodeCmd::Snapshot { iteration }) => Ok(Some(Reply::DcSnapshot {
            j: node.index(),
            iteration,
            blob: node.snapshot().to_bytes(),
        })),
        (Hosted::Fe(node), NodeCmd::Membership { datacenter, evict }) => {
            if evict {
                node.set_evicted(datacenter);
            } else {
                node.clear_evicted(datacenter);
            }
            Ok(None)
        }
        (Hosted::Fe(node), NodeCmd::Restore { blob }) => {
            let snap = FrontendSnapshot::from_bytes(&blob)?;
            node.restore(&snap)?;
            Ok(None)
        }
        (Hosted::Dc(node), NodeCmd::Restore { blob }) => {
            let snap = DatacenterSnapshot::from_bytes(&blob)?;
            node.restore(&snap)?;
            Ok(None)
        }
        (Hosted::Fe(node), NodeCmd::Finish) => Ok(Some(Reply::FeFinal {
            i: node.index(),
            lambda: node.lambda().to_vec(),
        })),
        (Hosted::Dc(node), NodeCmd::Finish) => Ok(Some(Reply::DcFinal {
            j: node.index(),
            mu: node.mu(),
            d: node.d(),
        })),
        (_, NodeCmd::Predict { .. } | NodeCmd::Correct { .. }) => Err(misaddressed("front-end")),
        (_, NodeCmd::Process { .. }) => Err(misaddressed("datacenter")),
        (_, NodeCmd::Membership { .. }) => Err(misaddressed("membership")),
    }
}

/// Runs one worker process to completion: the body of the `ufc-node`
/// binary.
///
/// Connects to the coordinator at `addr` — `unix:` and the absolute path
/// of the coordinator's own-host socket (the default), or any reachable
/// `host:port` when the coordinator listens on TCP — and performs
/// the handshake for `(session, process, incarnation)` — a plain `Hello`
/// without `auth`, the challenge–response exchange with it. Then it serves
/// runs: each `Load` frame rebuilds the hosted node kernels from its run
/// configuration and starts the per-run session state afresh, and the
/// commands after it are answered by those kernels. The worker exits on a
/// `Shutdown` frame, or at once when the coordinator hangs up after every
/// hosted node has answered `Finish` (so workers also end with a
/// coordinator that exits without tearing its fleet down). A connection
/// dropped mid-run is re-established with exponential backoff and a
/// repeated handshake (same incarnation); it gets no `Load`, and node state
/// survives because it lives here, not in the stream.
///
/// # Errors
///
/// [`CoreError::NodeFailure`] when the coordinator stays unreachable past
/// the backoff budget, when a reconnect finds the worker's parent process
/// gone, or when a command is misaddressed,
/// [`CoreError::CorruptPayload`] when a frame fails its CRC32 or bounds
/// checks beyond the Nak budget, and [`CoreError::Unauthorized`] when the
/// authenticated handshake cannot be completed or a `Load` fails
/// `wire::Load::verify`: its sequence number does not exceed the
/// last load's, or, under `auth`, its tag does not verify.
pub fn run_worker(
    addr: &str,
    process: usize,
    session: u64,
    incarnation: u32,
    auth: Option<&AuthKey>,
) -> Result<(), CoreError> {
    let parent = parent_id();
    let mut link = Session::establish(addr, process, session, incarnation, auth, parent)?;
    let mut nodes: Vec<(usize, Hosted)> = Vec::new();
    let mut finished = 0usize;
    let mut last_load: Option<u64> = None;
    loop {
        let frame = match link.next_frame(process) {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                if !nodes.is_empty() && finished == nodes.len() {
                    // All hosted nodes shipped their finals; an EOF now is
                    // an orderly coordinator teardown.
                    return Ok(());
                }
                // Mid-run drop (partition simulation or coordinator
                // hiccup): reconnect and re-introduce ourselves.
                link = Session::establish(addr, process, session, incarnation, auth, parent)?;
                continue;
            }
            // Read errors (ECONNRESET and friends) take the same recovery
            // path as EOF; anything else (a corrupt frame, or a failed
            // flush, whose bytes are still queued) is fatal.
            Err(CoreError::NodeFailure { .. }) if link.out.is_empty() => {
                if !nodes.is_empty() && finished == nodes.len() {
                    return Ok(());
                }
                link = Session::establish(addr, process, session, incarnation, auth, parent)?;
                continue;
            }
            Err(err) => return Err(err),
        };
        match frame {
            WireFrame::Load(load) => {
                load.verify(auth, session, process, incarnation, last_load)?;
                last_load = Some(load.seq);
                let config = RunConfig::decode(&load.config)?;
                if process >= config.processes {
                    return Err(CoreError::invalid_config(format!(
                        "worker process {process} out of range for {} processes",
                        config.processes
                    )));
                }
                nodes = build_nodes(&config, process);
                finished = 0;
                link.reset_run_state();
            }
            WireFrame::Cmd { node, cmd } => {
                let is_finish = matches!(cmd, NodeCmd::Finish);
                let Some((id, hosted)) = nodes.iter_mut().find(|(id, _)| *id == node) else {
                    return Err(CoreError::node_failure(
                        format!("worker-{process}"),
                        0,
                        format!("command for node {node}, which this worker does not host"),
                    ));
                };
                if let Some(reply) = dispatch(*id, hosted, cmd, process)? {
                    link.queue_reply(reply);
                }
                if is_finish {
                    finished += 1;
                }
            }
            WireFrame::Shutdown => {
                link.flush(process)?;
                return Ok(());
            }
            WireFrame::Nak => {
                // The coordinator failed to decode our last reply; resend
                // the cached bytes verbatim (a Nak with nothing cached is
                // a stray and is ignored).
                link.out.extend_from_slice(&link.last_reply);
            }
            WireFrame::Hello { .. } | WireFrame::AuthHello { .. } | WireFrame::Reply(_) => {
                return Err(CoreError::corrupt_payload(
                    format!("worker-{process}"),
                    0,
                    "coordinator sent a worker-to-coordinator frame".to_owned(),
                ));
            }
            WireFrame::Challenge { .. } => {
                return Err(CoreError::unauthorized(
                    format!("worker-{process}"),
                    "authentication challenge arrived mid-session",
                ));
            }
        }
    }
}

/// The [`Fleet`] of [`crate::Engine::Lockstep`]: every node kernel lives in
/// the coordinator's thread. A fan-out runs `dispatch` over the
/// [`WorkerPool`], one task per addressed node, and its replies are queued
/// in node order before `send` returns; `recv` pops the queue and never
/// waits, since nothing arrives later. A killed
/// node's slot is emptied; a node started fresh gets a new kernel.
/// Scripted straggler delays are not slept: the supervisor charges them
/// from the plan on every fleet.
pub(crate) struct InlineFleet<'a> {
    instance: &'a UfcInstance,
    settings: AdmgSettings,
    active_mu: bool,
    active_nu: bool,
    /// One kernel per node; `None` while the node is down.
    nodes: Vec<Option<Hosted>>,
    pool: WorkerPool,
    /// Replies of the fan-outs sent so far, oldest first.
    replies: VecDeque<Reply>,
}

impl<'a> InlineFleet<'a> {
    /// Builds every node of `instance`.
    pub(crate) fn launch(
        instance: &'a UfcInstance,
        settings: &AdmgSettings,
        active_mu: bool,
        active_nu: bool,
    ) -> Self {
        let nodes = (0..instance.m_frontends() + instance.n_datacenters())
            .map(|id| Some(Hosted::new(instance, settings, active_mu, active_nu, id)))
            .collect();
        InlineFleet {
            instance,
            settings: *settings,
            active_mu,
            active_nu,
            nodes,
            pool: WorkerPool::new(settings.num_threads),
            replies: VecDeque::new(),
        }
    }
}

/// Serves one node's share of a fan-out, in order. Like a worker process,
/// the node stops at a command it cannot apply.
fn serve_inline(id: usize, slot: &mut Option<Hosted>, cmds: Vec<NodeCmd>) -> Vec<Reply> {
    let mut replies = Vec::new();
    for cmd in cmds {
        let Some(node) = slot.as_mut() else { break };
        match dispatch(id, node, cmd, id) {
            Ok(reply) => replies.extend(reply),
            Err(_) => *slot = None,
        }
    }
    replies
}

impl Fleet for InlineFleet<'_> {
    fn recv(&mut self, _pending: &Pending, _timeout: Duration) -> Option<Reply> {
        self.replies.pop_front()
    }

    fn send(&mut self, cmds: Vec<(usize, NodeCmd)>) {
        let mut queues: Vec<Vec<NodeCmd>> = self.nodes.iter().map(|_| Vec::new()).collect();
        for (id, cmd) in cmds {
            queues[id].push(cmd);
        }
        let mut tasks: Vec<_> = self
            .nodes
            .iter_mut()
            .zip(queues)
            .enumerate()
            .filter(|(_, (slot, queue))| slot.is_some() && !queue.is_empty())
            .collect();
        let replies = self.pool.map_mut(&mut tasks, |_, (id, (slot, queue))| {
            serve_inline(*id, slot, std::mem::take(queue))
        });
        self.replies.extend(replies.into_iter().flatten());
    }

    fn alive(&mut self, id: usize) -> bool {
        self.nodes[id].is_some()
    }

    fn kill(&mut self, id: usize) {
        self.nodes[id] = None;
    }

    fn start(&mut self, id: usize) -> Result<(), CoreError> {
        self.nodes[id] = Some(Hosted::new(
            self.instance,
            &self.settings,
            self.active_mu,
            self.active_nu,
            id,
        ));
        Ok(())
    }

    /// Folds the pool's fan-outs into `tally`: the kernels run in this
    /// process, so lockstep keeps the pool layer observable.
    fn end_run(
        &mut self,
        _clean: bool,
        tally: &mut Tally,
    ) -> (Option<CoreError>, Result<(), CoreError>) {
        tally.solver.pool_tasks = self.pool.tasks_dispatched();
        tally.solver.pool_maps = self.pool.maps_run();
        (None, Ok(()))
    }
}
