//! `ufc-node` — a worker process of the multi-process socket runtime.
//!
//! Spawned by the socket engine's coordinator
//! (`ufc_distsim::DistributedAdmg::execute` with `Engine::Sockets`), one per
//! process slot:
//!
//! ```text
//! ufc-node --connect 127.0.0.1:PORT --process P --session S \
//!     [--incarnation I] [--auth-key-stdin]
//! ```
//!
//! The process connects to the coordinator and joins its fleet (the
//! `Hello` handshake). It then serves one run per `Load` frame: it
//! rebuilds its hosted node kernels from the load's run configuration and
//! answers ADM-G commands. A fleet outlives a run, so one worker serves
//! every run its coordinator loads into it, and exits on `Shutdown`, or
//! when the coordinator hangs up after the run's final gather. A
//! connection lost mid-run is dialled again with backoff, unless the
//! worker's parent process has changed (its coordinator was killed, so the
//! worker was reparented): then it exits at once. With
//! `--auth-key-stdin` the worker reads the shared key (one line of 64 hex
//! digits) from stdin, where no other local user can read it, answers the
//! coordinator's challenge with a keyed MAC before any iteration state is
//! exchanged, and refuses any `Load` whose tag that key does not verify.
//! All protocol logic lives in `ufc_distsim::worker::run_worker`; this
//! binary only parses the flags.

use std::process::ExitCode;

use ufc_distsim::worker::run_worker;
use ufc_distsim::AuthKey;

struct Args {
    connect: String,
    process: usize,
    session: u64,
    incarnation: u32,
    auth: Option<AuthKey>,
}

fn parse_args() -> Result<Args, String> {
    let mut connect = None;
    let mut process = None;
    let mut session = None;
    let mut incarnation = 0u32;
    let mut auth = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--connect" => connect = Some(value("--connect")?),
            "--process" => {
                let v = value("--process")?;
                process = Some(
                    v.parse()
                        .map_err(|_| format!("bad --process value {v:?}"))?,
                );
            }
            "--session" => {
                let v = value("--session")?;
                session = Some(
                    v.parse()
                        .map_err(|_| format!("bad --session value {v:?}"))?,
                );
            }
            "--incarnation" => {
                let v = value("--incarnation")?;
                incarnation = v
                    .parse()
                    .map_err(|_| format!("bad --incarnation value {v:?}"))?;
            }
            "--auth-key-stdin" => {
                let mut line = String::new();
                std::io::stdin()
                    .read_line(&mut line)
                    .map_err(|e| format!("cannot read the auth key from stdin: {e}"))?;
                auth = Some(
                    AuthKey::from_hex(&line).map_err(|e| format!("bad auth key on stdin: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        connect: connect.ok_or("missing --connect")?,
        process: process.ok_or("missing --process")?,
        session: session.ok_or("missing --session")?,
        incarnation,
        auth,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ufc-node: {e}");
            eprintln!(
                "usage: ufc-node --connect HOST:PORT --process P --session S \
                 [--incarnation I] [--auth-key-stdin]"
            );
            return ExitCode::FAILURE;
        }
    };
    match run_worker(
        &args.connect,
        args.process,
        args.session,
        args.incarnation,
        args.auth.as_ref(),
    ) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ufc-node[{}]: {e}", args.process);
            ExitCode::FAILURE
        }
    }
}
