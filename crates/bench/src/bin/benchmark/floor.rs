//! Transport floor: what one message costs on a bare std channel and on a
//! loopback TCP connection, with no solver attached.
//!
//! This follows the shape of the crossbeam-channel benchmarks: a fixed
//! message count pushed through three topologies — `seq` (one thread
//! sends everything, then receives everything), `spsc` (one producer
//! thread, the caller receives) and `mpsc` (`producers` threads split the
//! count) — plus one TCP stream carrying fixed-size frames, one
//! `write_all` per frame as the socket engine's I/O pumps do. Set beside
//! the `wire.*` counts of the socket workload, these floors split a socket
//! iteration into what the OS charges per message and what the protocol
//! adds on top.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

/// Size of one TCP frame: about a framed λ̃/ã data message (length
/// prefix, magic, kind, payload and CRC).
const FRAME_BYTES: usize = 32;

/// Message carried through the channels: the same 32 bytes.
type Payload = [u8; FRAME_BYTES];

/// Per-message costs in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Floor {
    /// One thread sends every message, then receives them all.
    pub chan_seq_ns: f64,
    /// One producer thread, the caller receives.
    pub chan_spsc_ns: f64,
    /// `producers` threads, the caller receives.
    pub chan_mpsc_ns: f64,
    /// One loopback TCP stream, one `write_all` per frame.
    pub tcp_loopback_ns: f64,
}

fn payload(i: usize) -> Payload {
    let mut p = [0u8; FRAME_BYTES];
    p[..8].copy_from_slice(&(i as u64).to_le_bytes());
    p
}

fn per_message_ns(start: Instant, messages: usize) -> f64 {
    start.elapsed().as_secs_f64() * 1e9 / messages as f64
}

fn seq(messages: usize) -> f64 {
    let (tx, rx) = mpsc::channel::<Payload>();
    let start = Instant::now();
    for i in 0..messages {
        tx.send(payload(i)).expect("receiver is alive");
    }
    for _ in 0..messages {
        std::hint::black_box(rx.recv().expect("sender is alive"));
    }
    per_message_ns(start, messages)
}

fn mpsc_topology(messages: usize, producers: usize) -> f64 {
    let (tx, rx) = mpsc::channel::<Payload>();
    let per_producer = messages / producers;
    let total = per_producer * producers;
    let start = Instant::now();
    thread::scope(|scope| {
        for _ in 0..producers {
            let tx = tx.clone();
            scope.spawn(move || {
                for i in 0..per_producer {
                    tx.send(payload(i)).expect("receiver is alive");
                }
            });
        }
        for _ in 0..total {
            std::hint::black_box(rx.recv().expect("producers are alive"));
        }
    });
    per_message_ns(start, total)
}

fn tcp_loopback(messages: usize) -> io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let start = Instant::now();
    thread::scope(|scope| {
        let writer = scope.spawn(move || -> io::Result<()> {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            for i in 0..messages {
                stream.write_all(&payload(i))?;
            }
            stream.shutdown(Shutdown::Write)
        });
        // The listener moves into the reader, so a failed accept closes it
        // and the writer's pending connection errors out instead of
        // blocking the scope forever.
        let received = (move || -> io::Result<()> {
            let (mut stream, _) = listener.accept()?;
            let mut frame = [0u8; FRAME_BYTES];
            for _ in 0..messages {
                stream.read_exact(&mut frame)?;
                std::hint::black_box(&frame);
            }
            Ok(())
        })();
        let written = writer.join().expect("the writer thread does not panic");
        received.and(written)
    })?;
    Ok(per_message_ns(start, messages))
}

/// Measures every floor: `messages` through each channel topology and a
/// tenth as many frames over TCP (a syscall per frame costs ~100× a
/// channel send).
///
/// # Errors
///
/// Socket errors of the loopback leg.
pub fn measure(messages: usize, producers: usize) -> io::Result<Floor> {
    Ok(Floor {
        chan_seq_ns: seq(messages),
        chan_spsc_ns: mpsc_topology(messages, 1),
        chan_mpsc_ns: mpsc_topology(messages, producers.max(2)),
        tcp_loopback_ns: tcp_loopback((messages / 10).max(1))?,
    })
}
