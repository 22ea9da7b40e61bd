//! Hostile-network handshake hardening: the socket engine's acceptor is
//! poked with truncated, malformed, downgraded, and forged handshakes
//! over real TCP connections while an authenticated run is in flight. No
//! hostile peer may reach the iteration loop, the acceptor must keep
//! serving honest workers, and the authenticated run must still reproduce
//! the lockstep solution bit-for-bit.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use ufc_core::{AdmgSettings, CoreError, Strategy};
use ufc_distsim::wire::{crc32, frame, WIRE_MAGIC};
use ufc_distsim::{AuthKey, BindConfig, DistributedAdmg, Engine, RunSpec, SocketOptions};
use ufc_experiments::solver_bench::admg_scaling;
use ufc_experiments::DEFAULT_SEED;
use ufc_model::UfcInstance;

fn worker_options() -> SocketOptions {
    SocketOptions::new(env!("CARGO_BIN_EXE_ufc-node"))
}

fn workload() -> UfcInstance {
    let instances = admg_scaling(DEFAULT_SEED, 1).expect("scaling workload must build");
    instances
        .into_iter()
        .next()
        .expect("scaling workload yields at least one instance")
}

fn test_key() -> AuthKey {
    AuthKey::new([0x5A; 32])
}

fn point_bits(report: &ufc_distsim::DistRunReport) -> Vec<u64> {
    report
        .point
        .lambda
        .iter()
        .flatten()
        .chain(report.point.mu.iter())
        .chain(report.point.nu.iter())
        .map(|v| v.to_bits())
        .collect()
}

/// Reserves a free loopback port by binding an ephemeral listener and
/// dropping it, so the coordinator can be pointed at a known address.
fn free_port() -> u16 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let port = listener.local_addr().expect("local addr").port();
    drop(listener);
    port
}

/// Hand-assembles a checksummed wire payload `[magic, kind, body, crc32]`
/// exactly as `WireFrame::write_wire` does, so the hostile peer can
/// speak well-formed framing without access to the crate internals.
fn forged_payload(kind: u8, body: &[u8]) -> Vec<u8> {
    let mut payload = vec![WIRE_MAGIC, kind];
    payload.extend_from_slice(body);
    let crc = crc32(&payload);
    payload.extend_from_slice(&crc.to_le_bytes());
    payload
}

/// A well-formed plain `Hello` — under authentication this is a protocol
/// downgrade and must be rejected even with a plausible-looking session.
fn forged_hello(session: u64) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&session.to_le_bytes());
    body.extend_from_slice(&0u32.to_le_bytes()); // process
    body.extend_from_slice(&0u32.to_le_bytes()); // incarnation
    frame(&forged_payload(0, &body))
}

/// A well-formed `AuthHello` whose MAC was not produced by the shared key
/// (a wrong-key peer, or a replay against a fresh nonce).
fn forged_auth_hello(session: u64, mac: [u8; 32]) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&session.to_le_bytes());
    body.extend_from_slice(&0u32.to_le_bytes()); // process
    body.extend_from_slice(&0u32.to_le_bytes()); // incarnation
    body.extend_from_slice(&mac);
    frame(&forged_payload(6, &body))
}

fn connect(addr: &str) -> TcpStream {
    for _ in 0..200 {
        if let Ok(stream) = TcpStream::connect(addr) {
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            return stream;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("coordinator never started listening on {addr}");
}

/// Five hostile peers attack the acceptor over real TCP — garbage before
/// the magic, an oversized length prefix, a truncated `Hello`, a protocol
/// downgrade, and a forged/replayed `AuthHello` — while honest
/// authenticated workers run the protocol on the same listener. Every
/// attack dies before the iteration loop and the run still matches
/// lockstep bitwise.
#[test]
fn acceptor_survives_hostile_peers_while_serving_honest_workers() {
    let instance = workload();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    let clean = runner
        .execute(
            &instance,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Lockstep),
            &mut (),
        )
        .expect("clean lockstep run must converge");

    let addr = format!("127.0.0.1:{}", free_port());
    let options = worker_options()
        .with_bind(BindConfig::new(addr.clone()))
        .with_auth(test_key());
    let run = {
        let instance = instance.clone();
        std::thread::spawn(move || {
            runner.execute(
                &instance,
                Strategy::Hybrid,
                &RunSpec::new(Engine::Sockets(options.clone())),
                &mut (),
            )
        })
    };

    // 1. Garbage before the magic: bytes that never form a frame.
    let mut stream = connect(&addr);
    stream.write_all(&[0xDE; 64]).expect("write garbage");
    drop(stream);

    // 2. Oversized length prefix: claims a frame far past the cap.
    let mut stream = connect(&addr);
    stream
        .write_all(&u32::MAX.to_le_bytes())
        .expect("write oversized prefix");
    stream.write_all(&[0u8; 16]).expect("write stub body");
    drop(stream);

    // 3. Truncated `Hello`: a valid frame cut off mid-payload, then EOF.
    let mut stream = connect(&addr);
    let hello = forged_hello(0);
    stream
        .write_all(&hello[..hello.len() / 2])
        .expect("write truncated hello");
    drop(stream);

    // 4. Downgrade: a well-formed plain `Hello` where the key demands the
    //    challenge–response exchange.
    let mut stream = connect(&addr);
    stream.write_all(&forged_hello(0)).expect("write downgrade");
    drop(stream);

    // 5. Forged `AuthHello`: read the challenge (proving the acceptor
    //    engaged), answer with a MAC the shared key never produced, and
    //    replay the same bytes against a second fresh nonce.
    let mut stream = connect(&addr);
    let mut challenge = [0u8; 8];
    stream
        .read_exact(&mut challenge)
        .expect("acceptor must send a challenge to an authenticated peer");
    let forged = forged_auth_hello(0, [0xAB; 32]);
    stream.write_all(&forged).expect("write forged auth hello");
    drop(stream);
    let mut stream = connect(&addr);
    stream.write_all(&forged).expect("replay forged auth hello");
    drop(stream);

    let report = run
        .join()
        .expect("run thread must not panic")
        .expect("honest authenticated run must survive the hostile peers");
    assert!(report.converged);
    assert_eq!(clean.iterations, report.iterations);
    assert_eq!(
        point_bits(&clean),
        point_bits(&report),
        "hostile peers must not perturb the operating point"
    );
    assert_eq!(
        clean.breakdown.ufc().to_bits(),
        report.breakdown.ufc().to_bits(),
        "hostile peers must not perturb the UFC"
    );
}

/// The authenticated handshake is a transparent layer: with the shared
/// key on both sides, runs at one process and at four co-hosted processes
/// reproduce the lockstep solution bit-for-bit. Each process count serves
/// two hours on one runner, so the second hour's configuration reaches
/// the parked workers in a tagged `Load`.
#[test]
fn authenticated_runs_match_lockstep_at_one_and_four_processes() {
    let instances = admg_scaling(DEFAULT_SEED, 2).expect("scaling workload must build");
    let runner = DistributedAdmg::new(AdmgSettings::default());
    for processes in [1, 4] {
        let options = worker_options()
            .with_processes(processes)
            .with_auth(test_key());
        for (hour, instance) in instances.iter().enumerate() {
            let clean = runner
                .execute(
                    instance,
                    Strategy::Hybrid,
                    &RunSpec::new(Engine::Lockstep),
                    &mut (),
                )
                .expect("clean lockstep run must converge");
            let report = runner
                .execute(
                    instance,
                    Strategy::Hybrid,
                    &RunSpec::new(Engine::Sockets(options.clone())),
                    &mut (),
                )
                .unwrap_or_else(|e| {
                    panic!("authenticated run at {processes} processes, hour {hour}: {e}")
                });
            assert!(report.converged);
            assert_eq!(
                point_bits(&clean),
                point_bits(&report),
                "{processes} processes, hour {hour}: point must match lockstep bitwise"
            );
            assert_eq!(
                clean.breakdown.ufc().to_bits(),
                report.breakdown.ufc().to_bits(),
                "{processes} processes, hour {hour}: UFC must match lockstep bitwise"
            );
        }
    }
}

/// Exposing the listener beyond loopback without a shared key is refused
/// up front with a typed configuration error — an unauthenticated remote
/// bind never starts listening.
#[test]
fn non_loopback_bind_without_key_is_rejected() {
    let instance = workload();
    let runner = DistributedAdmg::new(AdmgSettings::default());
    let options = worker_options().with_bind(BindConfig::new("0.0.0.0:0"));
    let err = runner
        .execute(
            &instance,
            Strategy::Hybrid,
            &RunSpec::new(Engine::Sockets(options.clone())),
            &mut (),
        )
        .expect_err("remote bind without a key must be refused");
    match err {
        CoreError::InvalidConfig { context } => {
            assert!(
                context.contains("auth"),
                "error must point at the missing key, got {context:?}"
            );
        }
        other => panic!("expected a typed InvalidConfig, got {other:?}"),
    }
}
