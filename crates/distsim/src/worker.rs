//! The worker side of the multi-process socket runtime.
//!
//! [`run_worker`] is the entire body of the `ufc-node` binary: connect to
//! the coordinator, introduce yourself (a `Hello` wire frame), rebuild
//! your hosted node kernels from the `RunConfig` in the `Welcome` answer,
//! then serve node-addressed commands until every hosted node has shipped
//! its final iterate or the coordinator says `Shutdown`.
//!
//! A worker process hosts the nodes `id % processes == process` (see
//! [`crate::wire::hosted_nodes`]): front-end kernels for `id < m`,
//! datacenter kernels above. The command dispatch is a byte-for-byte
//! mirror of the supervised in-process workers in `supervision.rs` — same
//! node methods in the same order — which is what makes the socket
//! engine's clean path bit-identical to the lockstep engine.
//!
//! Failure behaviour: a dropped connection (`ECONNRESET`, EOF — e.g. the
//! coordinator simulating a WAN partition by shutting the socket down) is
//! answered with reconnect-with-backoff and a fresh `Hello` carrying the
//! *same* incarnation, after which the run resumes on the new stream; the
//! kernels live in this process and keep their state across reconnects.
//! A worker that was really killed (`kill -9`) is respawned by the
//! coordinator with a bumped incarnation and rebuilt from the last
//! verified checkpoint via a `Restore` command plus command replay.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use ufc_core::CoreError;

use crate::fault::NodeId;
use crate::node::{DatacenterNode, FrontendNode};
use crate::snapshot::{DatacenterSnapshot, FrontendSnapshot};
use crate::supervision::Reply;
use crate::wire::{
    handshake_mac, hosted_nodes, sha256, AuthKey, FrameBuffer, NodeCmd, RunConfig, WireFrame,
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

/// One hosted node kernel: the worker-side spelling of the supervised
/// runtime's per-thread node ownership.
// Both kernels are boxed: each carries per-node solver workspaces that
// would otherwise bloat every enum slot to the largest kernel's size.
enum Hosted {
    Fe(Box<FrontendNode>),
    Dc(Box<DatacenterNode>),
}

fn io_failure(process: usize, context: &str, err: &std::io::Error) -> CoreError {
    CoreError::node_failure(format!("worker-{process}"), 0, format!("{context}: {err}"))
}

fn connect_with_backoff(addr: &str, process: usize) -> Result<TcpStream, CoreError> {
    let mut delay = BACKOFF_START;
    let mut last: Option<std::io::Error> = None;
    for _ in 0..CONNECT_ATTEMPTS {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream
                    .set_nodelay(true)
                    .map_err(|e| io_failure(process, "set_nodelay", &e))?;
                return Ok(stream);
            }
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
/// for the next write, and the per-connection wire-chaos recovery state
/// (duplicate suppression, reply cache for coordinator Naks, Nak budget).
struct Session {
    stream: TcpStream,
    frames: FrameBuffer,
    /// Frames to send, in order, written together by [`Session::flush`]
    /// just before the worker would block on a read. A failed flush leaves
    /// them here, which is how [`run_worker`] tells a failed write (fatal)
    /// from a dropped read (reconnect).
    out: Vec<u8>,
    /// Raw payload bytes of the previously delivered frame. A chaos
    /// `FrameDuplicate` arrives as two byte-identical back-to-back frames;
    /// legitimate consecutive frames are never identical (commands embed
    /// their iteration, finals their node id), so equality means "drop".
    last_seen: Option<Vec<u8>>,
    /// Wire bytes of the last reply sent; retransmitted verbatim when the
    /// coordinator answers with a [`WireFrame::Nak`].
    last_reply: Option<Vec<u8>>,
    /// Naks sent on this connection (bounded by [`NAK_BUDGET`]).
    naks_sent: usize,
}

impl Session {
    /// Connects (with backoff) and performs the handshake: a plain `Hello`
    /// without a key, or the challenge–response exchange with one. Returns
    /// the session plus the run-config digest the coordinator committed to
    /// in its challenge (checked against the `Welcome` later).
    fn establish(
        addr: &str,
        process: usize,
        session: u64,
        incarnation: u32,
        auth: Option<&AuthKey>,
    ) -> Result<(Session, Option<[u8; 32]>), CoreError> {
        let stream = connect_with_backoff(addr, process)?;
        let mut link = Session {
            stream,
            frames: FrameBuffer::new(),
            out: Vec::new(),
            last_seen: None,
            last_reply: None,
            naks_sent: 0,
        };
        let digest = match auth {
            None => {
                let hello = WireFrame::Hello {
                    session,
                    process,
                    incarnation,
                }
                .to_wire();
                link.out.extend_from_slice(&hello);
                link.flush(process)?;
                None
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
                let WireFrame::Challenge { nonce, digest } = frame else {
                    return Err(CoreError::unauthorized(
                        format!("worker-{process}"),
                        "expected an authentication challenge, got a different frame",
                    ));
                };
                let mac = handshake_mac(key, &nonce, session, process, incarnation, &digest);
                let hello = WireFrame::AuthHello {
                    session,
                    process,
                    incarnation,
                    mac,
                }
                .to_wire();
                link.out.extend_from_slice(&hello);
                link.flush(process)?;
                Some(digest)
            }
        };
        Ok((link, digest))
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
                match WireFrame::decode_payload(&payload) {
                    Ok(frame) => {
                        if frame != WireFrame::Nak
                            && self.last_seen.as_deref() == Some(&payload[..])
                        {
                            continue;
                        }
                        self.last_seen = Some(payload);
                        return Ok(Some(frame));
                    }
                    Err(_) if self.naks_sent < NAK_BUDGET => {
                        self.naks_sent += 1;
                        self.out.extend_from_slice(&WireFrame::Nak.to_wire());
                        continue;
                    }
                    Err(err) => return Err(err),
                }
            }
            self.flush(process)?;
            let mut chunk = [0u8; 16 * 1024];
            let n = self
                .stream
                .read(&mut chunk)
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
            self.frames.push(&chunk[..n]);
        }
    }

    /// Queues a reply behind the others of this batch, keeping its bytes
    /// for a coordinator `Nak`.
    fn queue_reply(&mut self, reply: Reply) {
        let bytes = WireFrame::Reply(reply).to_wire();
        self.out.extend_from_slice(&bytes);
        self.last_reply = Some(bytes);
    }

    /// Writes every queued frame with one `write_all`.
    fn flush(&mut self, process: usize) -> Result<(), CoreError> {
        if self.out.is_empty() {
            return Ok(());
        }
        self.stream
            .write_all(&self.out)
            .and_then(|()| self.stream.flush())
            .map_err(|e| io_failure(process, "socket write", &e))?;
        self.out.clear();
        Ok(())
    }
}

/// Builds the node kernels this process hosts, in node-id order —
/// identical construction to the in-process engines.
fn build_nodes(config: &RunConfig, process: usize) -> Vec<(usize, Hosted)> {
    let m = config.instance.m_frontends();
    let n = config.instance.n_datacenters();
    hosted_nodes(process, config.processes, m, n)
        .into_iter()
        .map(|id| {
            let hosted = if id < m {
                Hosted::Fe(Box::new(FrontendNode::new(
                    &config.instance,
                    id,
                    &config.settings,
                )))
            } else {
                Hosted::Dc(Box::new(DatacenterNode::new(
                    &config.instance,
                    id - m,
                    &config.settings,
                    config.active_mu,
                    config.active_nu,
                )))
            };
            (id, hosted)
        })
        .collect()
}

/// Dispatches one command to the addressed hosted node; mirrors the
/// supervised worker loops in `supervision.rs` verb for verb. Returns the
/// reply to ship, or `None` for fire-and-forget verbs (membership,
/// restore).
fn dispatch(
    node_id: usize,
    hosted: &mut Hosted,
    cmd: NodeCmd,
    process: usize,
) -> Result<Option<Reply>, CoreError> {
    let misaddressed = |verb: &str| {
        CoreError::node_failure(
            format!("worker-{process}"),
            0,
            format!("{verb} command addressed to the wrong node kind (node {node_id})"),
        )
    };
    match (hosted, cmd) {
        (Hosted::Fe(node), NodeCmd::Predict { iteration }) => Ok(Some(Reply::Lambda {
            i: node.index(),
            iteration,
            row: node.predict_lambda(),
        })),
        (Hosted::Fe(node), NodeCmd::Correct { iteration, a_row }) => Ok(Some(Reply::FeResidual {
            i: node.index(),
            iteration,
            residuals: node.receive_a_and_correct(&a_row),
        })),
        (Hosted::Dc(node), NodeCmd::Process { iteration, column }) => {
            Ok(Some(match node.process(&column) {
                Ok(step) => Reply::DcStep {
                    j: node.index(),
                    iteration,
                    a_tilde: step.a_tilde,
                    d: step.d,
                    residuals: step.residuals,
                },
                Err(error) => Reply::NodeError {
                    node: NodeId::Datacenter(node.index()),
                    iteration,
                    error,
                },
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
/// Connects to the coordinator at `addr` (loopback by default; any
/// reachable `host:port` when the coordinator binds remotely), performs
/// the handshake for `(session, process, incarnation)` — a plain
/// `Hello`/`Welcome` without `auth`, the challenge–response exchange with
/// it — then serves commands for its hosted nodes until all of them have
/// answered `Finish` or a `Shutdown` frame arrives. Dropped connections
/// are re-established with exponential backoff and a repeated handshake
/// (same incarnation); node state survives the reconnect because it lives
/// here, not in the stream.
///
/// # Errors
///
/// [`CoreError::NodeFailure`] when the coordinator stays unreachable past
/// the backoff budget or a command is misaddressed,
/// [`CoreError::CorruptPayload`] when a frame fails its CRC32 or bounds
/// checks beyond the Nak budget, and [`CoreError::Unauthorized`] when the
/// authenticated handshake cannot be completed or the `Welcome` does not
/// match the digest the coordinator committed to in its challenge.
pub fn run_worker(
    addr: &str,
    process: usize,
    session: u64,
    incarnation: u32,
    auth: Option<&AuthKey>,
) -> Result<(), CoreError> {
    let (mut link, mut expected_digest) =
        Session::establish(addr, process, session, incarnation, auth)?;
    let mut nodes: Vec<(usize, Hosted)> = Vec::new();
    let mut finished = 0usize;
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
                (link, expected_digest) =
                    Session::establish(addr, process, session, incarnation, auth)?;
                continue;
            }
            // Read errors (ECONNRESET and friends) take the same recovery
            // path as EOF; anything else (a corrupt frame, or a failed
            // flush, whose bytes are still queued) is fatal.
            Err(CoreError::NodeFailure { .. }) if link.out.is_empty() => {
                if !nodes.is_empty() && finished == nodes.len() {
                    return Ok(());
                }
                (link, expected_digest) =
                    Session::establish(addr, process, session, incarnation, auth)?;
                continue;
            }
            Err(err) => return Err(err),
        };
        match frame {
            WireFrame::Welcome { config } => {
                // Under authentication the coordinator committed to a
                // config digest in its challenge; a Welcome that does not
                // match is a spliced or swapped configuration.
                if let Some(expect) = expected_digest {
                    if sha256(&config) != expect {
                        return Err(CoreError::unauthorized(
                            format!("worker-{process}"),
                            "welcome config digest does not match the challenge",
                        ));
                    }
                }
                // First Welcome builds the kernels; a Welcome on a
                // reconnect is ignored — state lives here.
                if nodes.is_empty() {
                    let config = RunConfig::decode(&config)?;
                    if process >= config.processes {
                        return Err(CoreError::invalid_config(format!(
                            "worker process {process} out of range for {} processes",
                            config.processes
                        )));
                    }
                    nodes = build_nodes(&config, process);
                }
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
                    let failed = match &reply {
                        Reply::NodeError { error, .. } => Some(error.clone()),
                        _ => None,
                    };
                    link.queue_reply(reply);
                    if let Some(error) = failed {
                        // The hosted iterate is poisoned; exit typed after
                        // the report instead of serving further commands.
                        link.flush(process)?;
                        return Err(error);
                    }
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
                if let Some(bytes) = &link.last_reply {
                    link.out.extend_from_slice(bytes);
                }
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
