//! Message-passing simulation of the distributed ADM-G protocol.
//!
//! The paper argues (§III, Fig. 2) that its 4-block ADM-G decomposes into a
//! *fully distributed* protocol between `M` front-end proxies and `N`
//! datacenters. This crate runs the algorithm that way — as independent
//! nodes ([`ufc_core::node`]) that only hold their own slice of the
//! problem data and only communicate through explicit, accounted
//! [`message`]s:
//!
//! 1. each front-end solves its λ-sub-problem and sends `λ̃_ij` to
//!    datacenter `j`,
//! 2. each datacenter computes `μ̃_j` and `ν̃_j` locally,
//! 3. each datacenter solves its a-sub-problem and sends `ã_ij` back to
//!    front-end `i`,
//! 4. both sides update their dual replicas and apply the Gaussian
//!    back-substitution correction to the blocks they own,
//! 5. a coordinator max-reduces the per-node residuals and broadcasts the
//!    continue/stop decision.
//!
//! Three engines execute the node logic the in-process
//! `ufc_core::AdmgSolver` steps, and all three are one supervised
//! coordinator over a different fleet of nodes: node kernels in the calling
//! thread, fanned out over the worker pool ([`Engine::Lockstep`]), one
//! worker thread per node over std::sync::mpsc channels
//! ([`Engine::Threaded`]), or worker OS processes over TCP
//! ([`Engine::Sockets`]). The coordinator is a `Transport` sequenced by the
//! single transport-agnostic iteration driver `ufc_core::engine::drive` —
//! the λ→μ→ν→a prediction order, the correction step, and the stop rule
//! exist in exactly one place — and every engine is reached through one
//! entry point, [`DistributedAdmg::execute`], that takes a [`RunSpec`]: the
//! engine and the [`FaultPlan`] it runs under. All three are bit-identical
//! to the in-process solver on a clean plan (asserted in tests), account
//! every logical message, and estimate the wall-clock cost of a real WAN
//! deployment from the latency matrix.
//!
//! # Failure model
//!
//! Every engine is *supervised*, by one coordinator written once over all
//! three fleets: a deterministic, seeded [`FaultPlan`] can script
//! crash-stop failures (with or without recovery), straggler delays, and
//! partition windows. The coordinator awaits every reply with
//! deadline-bounded receives and an exponential backoff ladder, which no
//! fleet waits out for a node that can no longer answer (the lockstep
//! fleet has answered before the gather starts); a node silent past its
//! eviction deadline is respawned from its
//! last [`snapshot`] checkpoint and replayed, or — for datacenters only —
//! evicted so the survivors continue in degraded mode (the evicted `μ_j`
//! and `λ_·j` blocks are pinned to zero) until the node is readmitted.
//! The fault protocol exists once, so a faulty run makes the same
//! decisions on every fleet and is reproducible and testable on the
//! fastest one; accounting lands in a [`FaultReport`] attached to the
//! [`DistRunReport`].
//!
//! Orthogonally to crash faults, the plan's seeded [`CorruptionConfig`]
//! is the one link-level channel. It poisons data payloads in flight
//! (bit-flips, sign flips, NaN substitution, magnitude scaling) or, pinned
//! to [`CorruptionKind::Drop`], loses copies that are resent until
//! delivered — the iterates are unchanged and only traffic and the WAN
//! estimate grow. With [`CorruptionConfig::with_checksums`] on, receivers
//! check the CRC32 ([`wire::crc32`]) of every value they receive, corrupt
//! copies are detected and retransmitted (bounded), and the run converges
//! to the clean answer; with verification off, delivered poison is caught
//! by the driver's divergence gate as a typed error — never a panic or a
//! silently wrong UFC.
//!
//! The multi-process socket engine extends both directions to a hostile
//! network: a [`BindConfig`] allows non-loopback listen addresses gated on
//! a shared [`AuthKey`] (challenge–response keyed MAC before any iteration
//! state moves), and the wire-level [`CorruptionKind`]s
//! (`FrameTruncate`/`FrameDuplicate`/`FrameReorder`) mangle real TCP
//! frames at the socket coordinator's side of each connection, repaired
//! by the CRC + `Nak`/resend ladder in the coordinator's reader.
//!
//! # Example
//!
//! ```
//! use ufc_core::{AdmgSettings, Strategy};
//! use ufc_distsim::{CorruptionConfig, CorruptionKind, DistributedAdmg, Engine, RunSpec};
//! use ufc_model::scenario::ScenarioBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = ScenarioBuilder::paper_default().hours(1).build()?;
//! let runner = DistributedAdmg::new(AdmgSettings::default());
//! let spec = RunSpec::new(Engine::Lockstep);
//! let report = runner.execute(&scenario.instances[0], Strategy::Hybrid, &spec, &mut ())?;
//! assert!(report.converged);
//! // Two data messages per (front-end, datacenter) pair per iteration.
//! assert_eq!(report.stats.data_messages, 2 * 10 * 4 * report.iterations);
//!
//! // Drop 10% of the copies in flight: the same answer, at a price.
//! let drops = CorruptionConfig::new(0.1, 7).with_kind(CorruptionKind::Drop);
//! let lossy = runner.execute(
//!     &scenario.instances[0],
//!     Strategy::Hybrid,
//!     &spec.with_corruption(drops),
//!     &mut (),
//! )?;
//! assert_eq!(lossy.point, report.point);
//! assert!(lossy.retransmissions > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coordinator;
mod engine_socket;
pub mod fault;
pub mod message;
mod rng;
mod runtime;
pub mod snapshot;
pub mod stats;
mod supervision;
pub mod wire;
pub mod worker;

pub use fault::{
    CorruptionConfig, CorruptionKind, FaultPlan, FaultReport, NodeId, PartitionWindow,
};
pub use runtime::{DistRunReport, DistributedAdmg, Engine, RunSpec, SocketOptions};
pub use snapshot::CheckpointStore;
pub use wire::{AuthKey, BindConfig};
