//! Deterministic fault injection for the distributed runtime.
//!
//! The link level has one seeded channel, [`CorruptionConfig`]: it mangles
//! payloads in flight or, pinned to [`CorruptionKind::Drop`], loses copies
//! that are resent until delivered. This module also models the node
//! level: crash-stop failures with optional recovery, stragglers (slow
//! replies), and partition windows that sever front-end/datacenter links
//! for a span of iterations. A
//! [`FaultPlan`] is a fully deterministic schedule — either hand-built or
//! expanded from a seed by [`FaultPlan::random`] — so that a faulty run is
//! exactly reproducible and makes the same decisions on every fleet of the
//! supervisor.
//!
//! The supervisor's recovery policy lives in [`FaultTracker`]: a crashed
//! node is contacted with exponential-backoff deadlines; each expired
//! ladder counts one *attempt*. A node whose plan says it recovers after
//! `k` attempts is respawned from the last checkpoint and replayed. A
//! datacenter still dead after [`EVICTION_DEADLINE`] attempts is
//! evicted — its `μ_j`/`λ_·j` blocks are pinned to zero and the solve
//! continues degraded — and re-admitted (fresh state) if it later recovers.
//! A front-end cannot be evicted (its arrivals must be routed), so a
//! permanently dead front-end is a fatal, typed
//! [`ufc_core::CoreError::NodeFailure`].

use std::time::Duration;

use ufc_core::telemetry::IntegrityCounters;
use ufc_core::CoreError;
use ufc_model::generator::SplitMix64;

use crate::message::Message;
use crate::wire::crc32;

/// The generator behind every seeded fault plan, corruption draw and
/// wire-chaos stream: `SplitMix64` at `seed ^ 0x9E37_79B9_7F4A_7C15`, the
/// derivation the pinned fault reports and corpus cases were recorded
/// under.
fn seeded(seed: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15)
}

/// Failed contact attempts before a dead datacenter is evicted (a
/// front-end still dead at this point is fatal instead).
pub const EVICTION_DEADLINE: u32 = 3;

/// Exponential-backoff receive rounds per contact attempt: the supervisor
/// waits `phase_timeout · 2^r` for `r = 0..BACKOFF_ROUNDS` before it
/// declares the attempt failed.
pub const BACKOFF_ROUNDS: u32 = 3;

/// A protocol participant. Nodes order front-ends first, then
/// datacenters, each by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// Front-end `i`.
    Frontend(usize),
    /// Datacenter `j`.
    Datacenter(usize),
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeId::Frontend(i) => write!(f, "frontend[{i}]"),
            NodeId::Datacenter(j) => write!(f, "datacenter[{j}]"),
        }
    }
}

/// A crash-stop failure: the node dies when asked to compute iteration
/// `at_iteration` (1-based, matching [`crate::DistRunReport::iterations`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// Which node crashes.
    pub node: NodeId,
    /// Iteration whose compute command the node dies on.
    pub at_iteration: usize,
    /// Contact attempts until the node answers again; `None` = permanent.
    pub down_attempts: Option<u32>,
}

/// A straggler: the node delays its reply at one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StragglerEvent {
    /// Which node is slow.
    pub node: NodeId,
    /// Iteration at which the reply is delayed.
    pub at_iteration: usize,
    /// Injected delay (must stay below the supervisor's backoff ladder,
    /// else it is indistinguishable from a crash).
    pub delay: Duration,
}

/// A partition window: links between the listed front-ends and datacenters
/// are severed for `[from_iteration, to_iteration)`. Traffic is re-routed
/// over a relay path, which doubles the affected bytes and stalls each data
/// phase by one extra propagation delay — pure accounting, the iterates are
/// unchanged (delivery remains reliable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First iteration of the window (1-based, inclusive).
    pub from_iteration: usize,
    /// First iteration after the window (exclusive).
    pub to_iteration: usize,
    /// Front-ends on the severed side.
    pub frontends: Vec<usize>,
    /// Datacenters on the severed side.
    pub datacenters: Vec<usize>,
}

/// How an injected corruption mangles a data payload's bytes.
///
/// The first four kinds are *value-level*: they mangle the 8 little-endian
/// bytes of a data message's value and are drawn per event when
/// [`CorruptionConfig::kind`] is `None`. The `Frame*` kinds are
/// *wire-level*: they act on whole wire frames of the socket engine
/// (truncation, duplication, reordering) and are only exercised when
/// pinned explicitly — see [`CorruptionKind::is_wire_level`]. So is
/// [`CorruptionKind::Drop`], the lossy channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// Flip one uniformly chosen bit of the 8-byte value.
    BitFlip,
    /// Flip the IEEE-754 sign bit.
    SignFlip,
    /// Replace the value with a quiet NaN.
    NanSubstitution,
    /// Scale the value by `2^±e` for a random exponent `e ∈ [1, 30]`.
    MagnitudeScale,
    /// Truncate a wire frame mid-payload (socket engine only): the length
    /// prefix is rewritten so the receiver reads a complete-but-short frame
    /// whose CRC cannot verify.
    FrameTruncate,
    /// Send a wire frame twice back-to-back (socket engine only); the
    /// receiver's duplicate guard must absorb the copy.
    FrameDuplicate,
    /// Hold a reply frame and deliver it after its successor (socket engine
    /// only); the coordinator's gather must stay order-insensitive.
    FrameReorder,
    /// Lose the copy in flight (every engine). A lost copy is resent until
    /// one arrives, with no retransmit budget, so the iterates are those of
    /// a clean run; each resend costs the frame's wire bytes, the phase
    /// stalls for its slowest message, and resends count as
    /// [`crate::DistRunReport::retransmissions`]. With `rate = p` a message
    /// takes a geometric number of attempts with mean `1/(1 − p)`.
    Drop,
}

impl CorruptionKind {
    /// Whether this kind mangles whole wire frames instead of a data
    /// message's value. Wire-level kinds require the socket engine (they
    /// act on real socket bytes) and are rejected by the in-process engines.
    #[must_use]
    pub fn is_wire_level(self) -> bool {
        matches!(
            self,
            CorruptionKind::FrameTruncate
                | CorruptionKind::FrameDuplicate
                | CorruptionKind::FrameReorder
        )
    }
}

/// The seeded, deterministic link-level channel and its receivers' verify
/// policy: every λ̃/ã data message is independently corrupted (or, for
/// [`CorruptionKind::Drop`], lost) in flight with probability `rate`.
///
/// A verifying receiver ([`CorruptionConfig::with_checksums`]) rejects a
/// copy iff the CRC32 ([`crate::wire::crc32`]) of the 8 value bytes it
/// received differs from that of the bytes sent, and asks for a resend;
/// each data message is charged
/// [`crate::message::CHECKSUM_OVERHEAD_BYTES`] of modelled trailer. An
/// unverified receiver folds whatever arrives into its iterate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionConfig {
    /// Per-message corruption probability in `[0, 1)`.
    pub rate: f64,
    /// RNG seed for the corruption process.
    pub seed: u64,
    /// Fixed mangling, or `None` to draw a kind per event.
    pub kind: Option<CorruptionKind>,
    /// Retransmits granted per message when the receiver verifies
    /// checksums; a payload still corrupt after this many resends is a
    /// typed [`CoreError::CorruptPayload`]. Dropped copies are not bounded
    /// by it.
    pub max_retransmits: u32,
    /// Whether receivers verify a CRC32 checksum on every data payload and
    /// request a resend on mismatch (`false` by default: corrupt copies are
    /// delivered).
    pub verify_checksums: bool,
}

impl CorruptionConfig {
    /// Creates a configuration (random kind, 8 retransmits, unverified),
    /// validating the rate.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] unless `0 ≤ rate < 1` (NaN rejected).
    pub fn try_new(rate: f64, seed: u64) -> Result<Self, CoreError> {
        if !(0.0..1.0).contains(&rate) {
            return Err(CoreError::invalid_config(format!(
                "corruption rate must be in [0, 1), got {rate}"
            )));
        }
        Ok(CorruptionConfig {
            rate,
            seed,
            kind: None,
            max_retransmits: 8,
            verify_checksums: false,
        })
    }

    /// Creates a configuration, panicking on an invalid rate (thin wrapper
    /// over [`CorruptionConfig::try_new`]).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ rate < 1`.
    #[must_use]
    pub fn new(rate: f64, seed: u64) -> Self {
        match Self::try_new(rate, seed) {
            Ok(config) => config,
            Err(e) => panic!("{e}"),
        }
    }

    /// Pins every event to one mangling kind.
    #[must_use]
    pub fn with_kind(mut self, kind: CorruptionKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Sets the retransmit budget (minimum 1).
    #[must_use]
    pub fn with_max_retransmits(mut self, retransmits: u32) -> Self {
        self.max_retransmits = retransmits.max(1);
        self
    }

    /// Toggles checksum verification on receive.
    #[must_use]
    pub fn with_checksums(mut self, enabled: bool) -> Self {
        self.verify_checksums = enabled;
        self
    }

    fn check(&self) -> Result<(), CoreError> {
        if !(0.0..1.0).contains(&self.rate) {
            return Err(CoreError::invalid_config(format!(
                "corruption rate must be in [0, 1), got {}",
                self.rate
            )));
        }
        if self.max_retransmits == 0 {
            return Err(CoreError::invalid_config(
                "corruption retransmit budget must be ≥ 1",
            ));
        }
        Ok(())
    }
}

/// A deterministic fault schedule plus the supervisor's policy knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    crashes: Vec<CrashEvent>,
    stragglers: Vec<StragglerEvent>,
    partitions: Vec<PartitionWindow>,
    /// Link-level payload corruption (`None` = clean links). Orthogonal to
    /// the node-level schedule: [`FaultPlan::is_trivial`] ignores it, so
    /// corruption alone does not switch on replay buffering.
    pub corruption: Option<CorruptionConfig>,
    /// Take a checkpoint every this many iterations (`0` disables; forced
    /// checkpoints still happen after membership changes).
    pub checkpoint_interval: usize,
    /// Base reply deadline, the first rung of the [`BACKOFF_ROUNDS`]-rung
    /// backoff ladder.
    pub phase_timeout: Duration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            crashes: Vec::new(),
            stragglers: Vec::new(),
            partitions: Vec::new(),
            corruption: None,
            checkpoint_interval: 4,
            phase_timeout: Duration::from_millis(200),
        }
    }
}

impl FaultPlan {
    /// An empty plan: supervision on, nothing injected, checkpoints off.
    /// This is what a clean supervised run runs under, so it carries no
    /// checkpoint traffic and matches lockstep byte-for-byte.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            checkpoint_interval: 0,
            ..FaultPlan::default()
        }
    }

    /// An empty plan with default checkpointing — the base for builders.
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a permanent crash.
    #[must_use]
    pub fn crash_at(mut self, node: NodeId, at_iteration: usize) -> Self {
        self.crashes.push(CrashEvent {
            node,
            at_iteration,
            down_attempts: None,
        });
        self
    }

    /// Adds a crash that recovers after `attempts` failed contacts.
    #[must_use]
    pub fn crash_and_recover(mut self, node: NodeId, at_iteration: usize, attempts: u32) -> Self {
        self.crashes.push(CrashEvent {
            node,
            at_iteration,
            down_attempts: Some(attempts.max(1)),
        });
        self
    }

    /// Adds a straggler delay.
    #[must_use]
    pub fn straggle(mut self, node: NodeId, at_iteration: usize, delay: Duration) -> Self {
        self.stragglers.push(StragglerEvent {
            node,
            at_iteration,
            delay,
        });
        self
    }

    /// Adds a partition window.
    #[must_use]
    pub fn partition(mut self, window: PartitionWindow) -> Self {
        self.partitions.push(window);
        self
    }

    /// Enables link-level payload corruption.
    #[must_use]
    pub fn with_corruption(mut self, corruption: CorruptionConfig) -> Self {
        self.corruption = Some(corruption);
        self
    }

    /// Sets the checkpoint cadence (`0` disables periodic checkpoints).
    #[must_use]
    pub fn with_checkpoint_interval(mut self, interval: usize) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Sets the base reply deadline.
    #[must_use]
    pub fn with_phase_timeout(mut self, timeout: Duration) -> Self {
        self.phase_timeout = timeout;
        self
    }

    /// Expands a seed into a random plan over `m` front-ends and `n`
    /// datacenters: each datacenter crashes with probability `crash_rate`
    /// (30% of those permanently), each front-end with half that rate
    /// (always recoverable), and each node straggles once with probability
    /// `straggler_rate`. Crash iterations land in `[1, horizon]`.
    #[must_use]
    pub fn random(
        seed: u64,
        m: usize,
        n: usize,
        horizon: usize,
        crash_rate: f64,
        straggler_rate: f64,
    ) -> Self {
        let mut rng = seeded(seed);
        let horizon = horizon.max(1);
        let mut plan = FaultPlan::default();
        for j in 0..n {
            if rng.next_f64() < crash_rate {
                let at = 1 + (rng.next_u64() as usize) % horizon;
                if rng.next_f64() < 0.3 {
                    plan = plan.crash_at(NodeId::Datacenter(j), at);
                } else {
                    // 1–5 attempts: outages longer than
                    // `EVICTION_DEADLINE` (3) exercise evict-then-readmit.
                    let attempts = 1 + (rng.next_u64() % 5) as u32;
                    plan = plan.crash_and_recover(NodeId::Datacenter(j), at, attempts);
                }
            }
            if rng.next_f64() < straggler_rate {
                let at = 1 + (rng.next_u64() as usize) % horizon;
                let ms = 1 + rng.next_u64() % 5;
                plan = plan.straggle(NodeId::Datacenter(j), at, Duration::from_millis(ms));
            }
        }
        for i in 0..m {
            if rng.next_f64() < crash_rate * 0.5 {
                let at = 1 + (rng.next_u64() as usize) % horizon;
                let attempts = 1 + (rng.next_u64() % 2) as u32;
                plan = plan.crash_and_recover(NodeId::Frontend(i), at, attempts);
            }
            if rng.next_f64() < straggler_rate {
                let at = 1 + (rng.next_u64() as usize) % horizon;
                let ms = 1 + rng.next_u64() % 5;
                plan = plan.straggle(NodeId::Frontend(i), at, Duration::from_millis(ms));
            }
        }
        plan
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if two crash events share a `(node,
    /// iteration)` pair, an iteration index is zero, a partition window is
    /// empty, or the phase timeout is zero.
    pub fn check(&self) -> Result<(), CoreError> {
        if self.phase_timeout.is_zero() {
            return Err(CoreError::invalid_config("phase timeout must be nonzero"));
        }
        for (idx, c) in self.crashes.iter().enumerate() {
            if c.at_iteration == 0 {
                return Err(CoreError::invalid_config(format!(
                    "crash on {} at iteration 0 (iterations are 1-based)",
                    c.node
                )));
            }
            if self.crashes[..idx]
                .iter()
                .any(|p| p.node == c.node && p.at_iteration == c.at_iteration)
            {
                return Err(CoreError::invalid_config(format!(
                    "duplicate crash for {} at iteration {}",
                    c.node, c.at_iteration
                )));
            }
        }
        for s in &self.stragglers {
            if s.at_iteration == 0 {
                return Err(CoreError::invalid_config("straggler at iteration 0"));
            }
            if s.delay.as_secs_f64() >= self.ladder_seconds() {
                return Err(CoreError::invalid_config(format!(
                    "straggler delay {:?} on {} exceeds the backoff ladder \
                     ({:.3}s) — it would be misdiagnosed as a crash",
                    s.delay,
                    s.node,
                    self.ladder_seconds()
                )));
            }
        }
        for p in &self.partitions {
            if p.from_iteration == 0 || p.to_iteration <= p.from_iteration {
                return Err(CoreError::invalid_config("empty partition window"));
            }
        }
        if let Some(corruption) = &self.corruption {
            corruption.check()?;
        }
        Ok(())
    }

    /// The crash scheduled for `node` at `iteration`, if any.
    #[must_use]
    pub fn crash_at_iteration(&self, node: NodeId, iteration: usize) -> Option<&CrashEvent> {
        self.crashes
            .iter()
            .find(|c| c.node == node && c.at_iteration == iteration)
    }

    /// Crash iterations for one node, ascending (the worker's crash script).
    #[must_use]
    pub fn crash_iterations_for(&self, node: NodeId) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .crashes
            .iter()
            .filter(|c| c.node == node)
            .map(|c| c.at_iteration)
            .collect();
        out.sort_unstable();
        out
    }

    /// Straggler delay for `node` at `iteration`, if any.
    #[must_use]
    pub fn straggler_delay(&self, node: NodeId, iteration: usize) -> Option<Duration> {
        self.stragglers
            .iter()
            .find(|s| s.node == node && s.at_iteration == iteration)
            .map(|s| s.delay)
    }

    /// Whether any partition window covers `iteration`.
    #[must_use]
    pub fn partition_active(&self, iteration: usize) -> bool {
        self.partitions
            .iter()
            .any(|p| iteration >= p.from_iteration && iteration < p.to_iteration)
    }

    /// Whether the `(frontend, datacenter)` link is severed at `iteration`.
    #[must_use]
    pub fn is_partitioned(&self, frontend: usize, datacenter: usize, iteration: usize) -> bool {
        self.partitions.iter().any(|p| {
            iteration >= p.from_iteration
                && iteration < p.to_iteration
                && p.frontends.contains(&frontend)
                && p.datacenters.contains(&datacenter)
        })
    }

    /// Total crashes scheduled.
    #[must_use]
    pub fn crash_count(&self) -> usize {
        self.crashes.len()
    }

    /// Total stragglers scheduled.
    #[must_use]
    pub fn straggler_count(&self) -> usize {
        self.stragglers.len()
    }

    /// Total partition windows scheduled.
    #[must_use]
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Whether the node-level schedule injects anything at all. Link-level
    /// corruption is deliberately excluded: it needs no replay buffering or
    /// supervision, so a corruption-only plan still runs the plain path.
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        self.crashes.is_empty() && self.stragglers.is_empty() && self.partitions.is_empty()
    }

    /// Worst-case wall-clock of one failed contact attempt: the full
    /// backoff ladder `Σ_{r<R} timeout·2^r` with `R =` [`BACKOFF_ROUNDS`].
    #[must_use]
    pub fn ladder_seconds(&self) -> f64 {
        let factor = (1u64 << BACKOFF_ROUNDS) - 1;
        self.phase_timeout.as_secs_f64() * factor as f64
    }
}

/// What happened to a dead node after the supervisor exhausted its policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// The node answered after this many failed attempts; respawn from the
    /// last checkpoint and replay.
    Recovered {
        /// Failed contact attempts before recovery.
        attempts: u32,
    },
    /// A datacenter stayed dead past the deadline; pin its blocks and
    /// continue degraded.
    Evicted {
        /// Failed contact attempts charged before eviction.
        attempts: u32,
    },
}

/// Post-run fault accounting attached to [`crate::DistRunReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// Crash events that actually fired before the run ended.
    pub crashes_observed: usize,
    /// Straggler events that actually fired.
    pub stragglers_observed: usize,
    /// Failed contact attempts across all crashes.
    pub downtime_attempts: usize,
    /// Wall-clock lost to expired backoff ladders (seconds).
    pub downtime_seconds: f64,
    /// Wall-clock lost to straggler delays (seconds).
    pub straggler_seconds: f64,
    /// Iterations recomputed during checkpoint-restart replays.
    pub recomputed_iterations: usize,
    /// Checkpoints taken (periodic + forced).
    pub checkpoints_taken: usize,
    /// Datacenters evicted at any point, ascending.
    pub evicted: Vec<usize>,
    /// Datacenters re-admitted after eviction, ascending.
    pub readmitted: Vec<usize>,
    /// Extra message copies sent around partition windows.
    pub partition_retransmissions: usize,
    /// Final UFC minus the clean run's UFC (an in-process solve, which every
    /// engine reproduces bit for bit), in dollars.
    pub ufc_delta_vs_clean: f64,
}

impl FaultReport {
    /// This report folded into the telemetry layer's plain counter form
    /// (the delta-vs-clean belongs to the report, not the counters).
    #[must_use]
    pub fn counters(&self) -> ufc_core::telemetry::FaultCounters {
        ufc_core::telemetry::FaultCounters {
            crashes_resolved: self.crashes_observed as u64,
            stragglers_observed: self.stragglers_observed as u64,
            downtime_seconds: self.downtime_seconds,
            straggler_seconds: self.straggler_seconds,
            recomputed_iterations: self.recomputed_iterations as u64,
            checkpoints_taken: self.checkpoints_taken as u64,
            evictions: self.evicted.len() as u64,
            readmissions: self.readmitted.len() as u64,
            partition_retransmissions: self.partition_retransmissions as u64,
        }
    }
}

/// The supervisor's decision state machine, shared verbatim by the
/// supervised coordinator and its lockstep mirror so both make identical
/// recovery/eviction/readmission decisions.
#[derive(Debug, Clone)]
pub struct FaultTracker {
    plan: FaultPlan,
    /// Cumulative failed contact attempts per datacenter / front-end.
    dc_attempts: Vec<u32>,
    fe_attempts: Vec<u32>,
    /// Currently evicted datacenters, with the attempts needed to readmit
    /// (`None` = permanent, never readmitted).
    evicted: Vec<Option<Option<u32>>>,
    /// Fault accounting being accumulated.
    pub report: FaultReport,
}

impl FaultTracker {
    /// New tracker for `m` front-ends and `n` datacenters.
    #[must_use]
    pub fn new(plan: FaultPlan, m: usize, n: usize) -> Self {
        FaultTracker {
            plan,
            dc_attempts: vec![0; n],
            fe_attempts: vec![0; m],
            evicted: vec![None; n],
            report: FaultReport::default(),
        }
    }

    /// The plan this tracker enforces.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether datacenter `j` is currently evicted.
    #[must_use]
    pub fn is_evicted(&self, j: usize) -> bool {
        self.evicted[j].is_some()
    }

    /// Count of currently active (non-evicted) datacenters.
    #[must_use]
    pub fn active_datacenters(&self) -> usize {
        self.evicted.iter().filter(|e| e.is_none()).count()
    }

    /// Per-datacenter eviction mask (`mask[j]` ⇔ `j` currently evicted),
    /// for restricting WAN-latency estimates to live links.
    #[must_use]
    pub fn evicted_mask(&self) -> Vec<bool> {
        self.evicted.iter().map(|e| e.is_some()).collect()
    }

    /// Resolves a node that failed to reply at `iteration`: charge backoff
    /// attempts until the plan lets it recover, the eviction deadline
    /// fires, or (for front-ends / unplanned deaths) the failure is fatal.
    ///
    /// # Errors
    ///
    /// [`CoreError::NodeFailure`] for an unplanned death or an
    /// unrecoverable front-end.
    pub fn resolve_crash(
        &mut self,
        node: NodeId,
        iteration: usize,
    ) -> Result<Resolution, CoreError> {
        let Some(event) = self.plan.crash_at_iteration(node, iteration).copied() else {
            return Err(CoreError::node_failure(
                node.to_string(),
                iteration,
                "node died with no scheduled fault; treating as unrecoverable",
            ));
        };
        self.report.crashes_observed += 1;
        let deadline = EVICTION_DEADLINE;
        let ladder = self.plan.ladder_seconds();
        // A node either recovers within its scripted attempt count or stays
        // dead until the deadline: the charge is plan-determined.
        let charged = match event.down_attempts {
            Some(d) if d <= deadline => d,
            _ => deadline,
        };
        match node {
            NodeId::Frontend(i) => self.fe_attempts[i] += charged,
            NodeId::Datacenter(j) => self.dc_attempts[j] += charged,
        }
        self.report.downtime_attempts += charged as usize;
        self.report.downtime_seconds += ladder * f64::from(charged);
        if let Some(d) = event.down_attempts {
            if d <= deadline {
                return Ok(Resolution::Recovered { attempts: charged });
            }
        }
        match node {
            NodeId::Datacenter(_) if self.active_datacenters() <= 1 => {
                Err(CoreError::node_failure(
                    node.to_string(),
                    iteration,
                    "cannot evict the last active datacenter",
                ))
            }
            NodeId::Datacenter(j) => {
                let remaining = event.down_attempts.map(|d| d.saturating_sub(charged));
                self.evicted[j] = Some(remaining);
                self.report.evicted.push(j);
                Ok(Resolution::Evicted { attempts: charged })
            }
            NodeId::Frontend(_) => Err(CoreError::node_failure(
                node.to_string(),
                iteration,
                format!(
                    "front-end dead after {charged} attempts; front-ends \
                     cannot be evicted (their arrivals must be routed)"
                ),
            )),
        }
    }

    /// One readmission probe per evicted datacenter, called at the start of
    /// each iteration. Returns the datacenters readmitted now.
    pub fn probe_readmissions(&mut self) -> Vec<usize> {
        let mut back = Vec::new();
        for (j, slot) in self.evicted.iter_mut().enumerate() {
            // A permanent eviction (`Some(None)`) is never readmitted.
            if let Some(Some(left)) = slot {
                self.report.downtime_attempts += 1;
                if *left <= 1 {
                    *slot = None;
                    self.report.readmitted.push(j);
                    back.push(j);
                } else {
                    *left -= 1;
                }
            }
        }
        back
    }

    /// Accounts a straggler firing (every engine charges the *planned*
    /// delay so their reports agree exactly).
    pub fn record_straggler(&mut self, delay: Duration) {
        self.report.stragglers_observed += 1;
        self.report.straggler_seconds += delay.as_secs_f64();
    }
}

/// The seeded corruption process: decides per send attempt whether the
/// payload is mangled in flight, and how.
#[derive(Debug, Clone)]
struct CorruptionChannel {
    rate: f64,
    kind: Option<CorruptionKind>,
    rng: SplitMix64,
}

impl CorruptionChannel {
    fn new(config: &CorruptionConfig) -> Self {
        CorruptionChannel {
            rate: config.rate,
            kind: config.kind,
            rng: seeded(config.seed),
        }
    }

    /// One Bernoulli draw: is this attempt corrupted?
    fn strikes(&mut self) -> bool {
        self.rng.next_f64() < self.rate
    }

    /// Mangles the 8 little-endian bytes of a data value in place.
    fn mangle(&mut self, value: &mut [u8; 8]) {
        let kind = self.kind.unwrap_or_else(|| match self.rng.next_u64() % 4 {
            0 => CorruptionKind::BitFlip,
            1 => CorruptionKind::SignFlip,
            2 => CorruptionKind::NanSubstitution,
            _ => CorruptionKind::MagnitudeScale,
        });
        match kind {
            CorruptionKind::BitFlip => {
                let bit = (self.rng.next_u64() % 64) as usize;
                value[bit / 8] ^= 1 << (bit % 8);
            }
            CorruptionKind::SignFlip => value[7] ^= 0x80,
            CorruptionKind::NanSubstitution => *value = f64::NAN.to_le_bytes(),
            CorruptionKind::MagnitudeScale => {
                let e = 1 + (self.rng.next_u64() % 30) as i32;
                let e = if self.rng.next_u64() & 1 == 0 { e } else { -e };
                *value = (f64::from_le_bytes(*value) * f64::powi(2.0, e)).to_le_bytes();
            }
            // Wire-level kinds and drops never reach here:
            // `IntegrityState::new` leaves the channel disarmed for the
            // former, `IntegrityState::transmit` resends the latter, and the
            // per-event draw above only covers the four value kinds.
            CorruptionKind::FrameTruncate
            | CorruptionKind::FrameDuplicate
            | CorruptionKind::FrameReorder
            | CorruptionKind::Drop => {}
        }
    }
}

/// What a [`WireChaos`] draw decided for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WireVerdict {
    /// Deliver the frame untouched.
    Clean,
    /// The frame bytes were truncated in place; the receiver's CRC check
    /// must reject them and trigger a `Nak`/resend round.
    Truncated,
    /// Send (or deliver) the frame twice back-to-back.
    Duplicated,
    /// Hold this frame and deliver it after its successor (ingress only).
    Reordered,
}

/// The seeded wire-level chaos process of the socket engine: one instance
/// per connection *direction*, applying frame-granular §12 draws to the
/// actual TCP bytes. Draw order mirrors [`CorruptionChannel`]: one Bernoulli
/// `next_f64() < rate` per frame, then (for truncation) one `next_u64()`
/// for the cut point — so a given `(seed, salt)` pair injects the same
/// chaos on every run.
#[derive(Debug, Clone)]
pub(crate) struct WireChaos {
    rate: f64,
    kind: CorruptionKind,
    rng: SplitMix64,
}

impl WireChaos {
    /// Chaos for the command (coordinator→worker) direction, or `None` when
    /// the config does not pin a wire-level kind. Frame reordering is never
    /// applied to commands: their execution order is protocol state, and a
    /// reordered command would draw a wrong-iteration reply that the gather
    /// misreads as a dead node.
    pub(crate) fn egress(config: Option<&CorruptionConfig>, salt: u64) -> Option<Self> {
        Self::armed(config, salt).filter(|c| c.kind != CorruptionKind::FrameReorder)
    }

    /// Chaos for the reply (worker→coordinator) direction, or `None` when
    /// the config does not pin a wire-level kind.
    pub(crate) fn ingress(config: Option<&CorruptionConfig>, salt: u64) -> Option<Self> {
        Self::armed(config, salt)
    }

    fn armed(config: Option<&CorruptionConfig>, salt: u64) -> Option<Self> {
        let config = config?;
        let kind = config.kind.filter(|k| k.is_wire_level())?;
        Some(WireChaos {
            rate: config.rate,
            kind,
            rng: seeded(config.seed ^ salt),
        })
    }

    /// One draw over the outgoing frame at `out[start..]` (length prefix,
    /// then payload), mangling it in place for truncation: the draw
    /// [`WireChaos::next_ingress`] makes on the payload, with the prefix
    /// rewritten to the cut, so framing never desynchronizes while the CRC
    /// is impossible.
    pub(crate) fn next_egress(&mut self, out: &mut Vec<u8>, start: usize) -> WireVerdict {
        let payload = start + 4;
        let mut kept = &out[payload..];
        let verdict = self.next_ingress(&mut kept);
        if verdict == WireVerdict::Truncated {
            let cut = kept.len();
            out[start..payload].copy_from_slice(&(cut as u32).to_le_bytes());
            out.truncate(payload + cut);
        }
        verdict
    }

    /// One draw over an incoming de-framed payload, cutting the slice short
    /// when the truncation kind strikes: to a uniformly drawn
    /// `cut ∈ [6, len)`, keeping at least magic, kind, and a (now wrong)
    /// CRC so decoding fails cleanly. A payload too short to cut passes
    /// through clean.
    pub(crate) fn next_ingress(&mut self, payload: &mut &[u8]) -> WireVerdict {
        if self.rng.next_f64() >= self.rate {
            return WireVerdict::Clean;
        }
        match self.kind {
            CorruptionKind::FrameTruncate if payload.len() > 6 => {
                let cut = 6 + (self.rng.next_u64() as usize) % (payload.len() - 6);
                *payload = &payload[..cut];
                WireVerdict::Truncated
            }
            CorruptionKind::FrameDuplicate => WireVerdict::Duplicated,
            CorruptionKind::FrameReorder => WireVerdict::Reordered,
            _ => WireVerdict::Clean,
        }
    }
}

/// Per-run integrity machinery shared by every engine: the link channel
/// (corruption or drops), the receiver-side verify policy
/// ([`CorruptionConfig::verify_checksums`]), and the counters that land in
/// the run report. Every engine drives it through the shared coordinator
/// record helpers in deterministic link order, so runs with the same seed
/// corrupt (or drop) the same messages on every engine.
#[derive(Debug, Clone)]
pub(crate) struct IntegrityState {
    channel: Option<CorruptionChannel>,
    /// Whether receivers check each value's CRC32 (and retransmit on
    /// mismatch).
    pub(crate) verify: bool,
    max_retransmits: u32,
    /// Counters for the run report / telemetry.
    pub(crate) counters: IntegrityCounters,
    /// Resends of dropped copies ([`CorruptionKind::Drop`]), reported as
    /// [`crate::DistRunReport::retransmissions`] rather than in `counters`.
    pub(crate) retransmissions: usize,
    /// Receiver of the most recent *delivered* corruption (verify off) —
    /// the divergence gate's prime suspect when residuals later explode.
    pub(crate) last_corrupted: Option<String>,
}

/// Endpoint strings of a data message: `(link, receiver)`.
fn data_endpoints(msg: &Message) -> (String, String) {
    match msg {
        Message::LambdaTilde {
            frontend,
            datacenter,
            ..
        } => (
            format!("frontend[{frontend}]→datacenter[{datacenter}]"),
            format!("datacenter[{datacenter}]"),
        ),
        Message::ATilde {
            frontend,
            datacenter,
            ..
        } => (
            format!("datacenter[{datacenter}]→frontend[{frontend}]"),
            format!("frontend[{frontend}]"),
        ),
        _ => ("coordinator".to_string(), "coordinator".to_string()),
    }
}

impl IntegrityState {
    pub(crate) fn new(corruption: Option<&CorruptionConfig>) -> Self {
        IntegrityState {
            // A config pinned to a wire-level kind belongs to the socket
            // engine's `WireChaos` interceptors; the value channel stays disarmed
            // so the two injection layers never double-draw from one seed.
            channel: corruption
                .filter(|c| !c.kind.is_some_and(|k| k.is_wire_level()))
                .map(CorruptionChannel::new),
            verify: corruption.is_some_and(|c| c.verify_checksums),
            max_retransmits: corruption.map_or(1, |c| c.max_retransmits),
            counters: IntegrityCounters::default(),
            retransmissions: 0,
            last_corrupted: None,
        }
    }

    /// Whether this run carries any integrity machinery at all (corruption
    /// injected or checksums verified). When `false` every transmit is a
    /// no-op and the byte accounting is bit-identical to a plain run.
    pub(crate) fn active(&self) -> bool {
        self.channel.is_some() || self.verify
    }

    /// Transmits one data message's value through the corruption channel.
    /// Returns `(delivered, attempts)`: `delivered` is `Some(v)` when the
    /// receiver accepted a struck copy — a value different from the sent
    /// one, or bit-identical to it when the mangle changed nothing — and
    /// `None` for an untouched delivery; `attempts ≥ 1` counts sends
    /// including checksum-triggered retransmits and resends of dropped
    /// copies. A verifying receiver rejects a copy iff the CRC32 of the
    /// bytes it received differs from that of the bytes sent.
    ///
    /// # Errors
    ///
    /// * [`CoreError::CorruptPayload`] when checksums are on and the
    ///   retransmit budget is exhausted.
    /// * [`CoreError::Divergence`] when checksums are off and a non-finite
    ///   payload would be folded into the receiver's iterate — failing fast
    ///   with the link named beats a NaN quietly poisoning the solve.
    pub(crate) fn transmit(
        &mut self,
        msg: &Message,
        k: usize,
    ) -> Result<(Option<f64>, usize), CoreError> {
        let Some(channel) = self.channel.as_mut() else {
            return Ok((None, 1));
        };
        if channel.kind == Some(CorruptionKind::Drop) {
            let mut attempts = 1usize;
            while channel.strikes() {
                attempts += 1;
            }
            self.retransmissions += attempts - 1;
            return Ok((None, attempts));
        }
        let sent = match msg {
            Message::LambdaTilde { value, .. } | Message::ATilde { value, .. } => {
                value.to_le_bytes()
            }
            _ => unreachable!("only data messages cross the link channel"),
        };
        let sent_crc = crc32(&sent);
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            if !channel.strikes() {
                return Ok((None, attempts));
            }
            self.counters.corruptions_injected += 1;
            let mut received = sent;
            channel.mangle(&mut received);
            let value = f64::from_le_bytes(received);
            if self.verify {
                // A copy the CRC cannot tell from the sent one passes:
                // above all a mangle that left the bytes bit-identical
                // (e.g. a magnitude scale of ±0.0).
                if crc32(&received) == sent_crc {
                    return Ok((Some(value), attempts));
                }
                self.counters.corruptions_detected += 1;
                if attempts > self.max_retransmits as usize {
                    let (link, _) = data_endpoints(msg);
                    return Err(CoreError::corrupt_payload(
                        link,
                        k,
                        format!(
                            "checksum still failing after {} retransmits",
                            self.max_retransmits
                        ),
                    ));
                }
                self.counters.checksum_retransmissions += 1;
            } else {
                self.counters.corruptions_delivered += 1;
                let (link, receiver) = data_endpoints(msg);
                if !value.is_finite() {
                    return Err(CoreError::divergence_at(
                        "transmit",
                        k,
                        receiver,
                        format!("non-finite payload {value} delivered on {link}"),
                    ));
                }
                self.last_corrupted = Some(receiver);
                return Ok((Some(value), attempts));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookups() {
        let plan = FaultPlan::new()
            .crash_and_recover(NodeId::Datacenter(1), 5, 2)
            .crash_at(NodeId::Datacenter(0), 9)
            .straggle(NodeId::Frontend(2), 3, Duration::from_millis(4));
        plan.check().unwrap();
        assert_eq!(plan.crash_count(), 2);
        assert!(plan.crash_at_iteration(NodeId::Datacenter(1), 5).is_some());
        assert!(plan.crash_at_iteration(NodeId::Datacenter(1), 6).is_none());
        assert_eq!(
            plan.straggler_delay(NodeId::Frontend(2), 3),
            Some(Duration::from_millis(4))
        );
        assert!(!plan.is_trivial());
        assert!(FaultPlan::none().is_trivial());
    }

    #[test]
    fn check_rejects_duplicates_and_zero_iterations() {
        let dup = FaultPlan::new()
            .crash_at(NodeId::Datacenter(0), 2)
            .crash_at(NodeId::Datacenter(0), 2);
        assert!(dup.check().is_err());
        let zero = FaultPlan::new().crash_at(NodeId::Frontend(0), 0);
        assert!(zero.check().is_err());
    }

    /// The seeded streams are pinned: these draws were recorded from the
    /// generator every fault plan, corruption draw and wire-chaos stream
    /// has used, so pinned reports and corpus cases replay unchanged.
    #[test]
    fn seeded_generator_reproduces_the_pinned_streams() {
        let pinned: [(u64, [u64; 3], [u64; 2]); 3] = [
            (
                0,
                [
                    0x6e78_9e6a_a1b9_65f4,
                    0x06c4_5d18_8009_454f,
                    0xf88b_b8a8_724c_81ec,
                ],
                [0x3fbb_3989_6a51_a870, 0x3fd4_f2e7_c31d_1fa8],
            ),
            (
                7,
                [
                    0xec77_9c36_93f8_8501,
                    0xfed9_eeb4_936d_e39d,
                    0x6f9f_b04b_092b_d30a,
                ],
                [0x3fc3_07fd_8130_5ddc, 0x3fa0_59fd_10cd_f580],
            ),
            (
                2012,
                [
                    0x4b0d_7e76_33b6_3743,
                    0x50d2_aba0_7524_8a79,
                    0x96df_1d41_b5f7_4810,
                ],
                [0x3fc6_4473_3855_d684, 0x3fd4_2109_4bb9_198e],
            ),
        ];
        for (seed, raw, unit) in pinned {
            let mut rng = seeded(seed);
            assert_eq!(
                [rng.next_u64(), rng.next_u64(), rng.next_u64()],
                raw,
                "seed {seed}"
            );
            let drawn = [rng.next_f64().to_bits(), rng.next_f64().to_bits()];
            assert_eq!(drawn, unit, "seed {seed}");
        }
    }

    #[test]
    fn random_plans_are_deterministic() {
        let a = FaultPlan::random(7, 10, 4, 30, 0.5, 0.5);
        let b = FaultPlan::random(7, 10, 4, 30, 0.5, 0.5);
        assert_eq!(a, b);
        let c = FaultPlan::random(8, 10, 4, 30, 0.5, 0.5);
        assert_ne!(a, c);
        a.check().unwrap();
    }

    #[test]
    fn tracker_recovers_before_deadline() {
        let plan = FaultPlan::new().crash_and_recover(NodeId::Datacenter(0), 3, 2);
        let mut t = FaultTracker::new(plan, 2, 2);
        let r = t.resolve_crash(NodeId::Datacenter(0), 3).unwrap();
        assert_eq!(r, Resolution::Recovered { attempts: 2 });
        assert!(!t.is_evicted(0));
        assert_eq!(t.report.downtime_attempts, 2);
        assert!(t.report.downtime_seconds > 0.0);
    }

    #[test]
    fn tracker_evicts_then_readmits() {
        // Recovery after 5 attempts but deadline 3: evict with 2 remaining,
        // then readmit after 2 probes.
        let plan = FaultPlan::new().crash_and_recover(NodeId::Datacenter(1), 4, 5);
        let mut t = FaultTracker::new(plan, 2, 2);
        let r = t.resolve_crash(NodeId::Datacenter(1), 4).unwrap();
        assert_eq!(r, Resolution::Evicted { attempts: 3 });
        assert!(t.is_evicted(1));
        assert_eq!(t.active_datacenters(), 1);
        assert!(t.probe_readmissions().is_empty()); // probe 1 of 2
        assert_eq!(t.probe_readmissions(), vec![1]); // probe 2: back
        assert!(!t.is_evicted(1));
        assert_eq!(t.report.readmitted, vec![1]);
    }

    #[test]
    fn tracker_never_readmits_permanent_crashes() {
        let plan = FaultPlan::new().crash_at(NodeId::Datacenter(0), 2);
        let mut t = FaultTracker::new(plan, 1, 2);
        let r = t.resolve_crash(NodeId::Datacenter(0), 2).unwrap();
        assert!(matches!(r, Resolution::Evicted { .. }));
        for _ in 0..10 {
            assert!(t.probe_readmissions().is_empty());
        }
        assert!(t.is_evicted(0));
    }

    #[test]
    fn tracker_fatal_for_frontend_past_deadline() {
        let plan = FaultPlan::new().crash_at(NodeId::Frontend(1), 2);
        let mut t = FaultTracker::new(plan, 3, 2);
        let err = t.resolve_crash(NodeId::Frontend(1), 2).unwrap_err();
        assert!(matches!(err, CoreError::NodeFailure { .. }));
    }

    #[test]
    fn tracker_fatal_for_unplanned_death() {
        let mut t = FaultTracker::new(FaultPlan::none(), 2, 2);
        let err = t.resolve_crash(NodeId::Datacenter(0), 7).unwrap_err();
        assert!(matches!(err, CoreError::NodeFailure { iteration: 7, .. }));
    }

    #[test]
    fn ladder_sums_backoff_rounds() {
        let plan = FaultPlan::new().with_phase_timeout(Duration::from_millis(100));
        // 3 rounds: 100 + 200 + 400 ms.
        assert!((plan.ladder_seconds() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn corruption_config_validates_rate_and_budget() {
        assert!(CorruptionConfig::try_new(0.5, 1).is_ok());
        assert!(matches!(
            CorruptionConfig::try_new(1.0, 1),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            CorruptionConfig::try_new(f64::NAN, 1),
            Err(CoreError::InvalidConfig { .. })
        ));
        // Budget is clamped to ≥ 1 by the builder and caught by check().
        let cfg = CorruptionConfig::new(0.1, 1).with_max_retransmits(0);
        assert_eq!(cfg.max_retransmits, 1);
        let mut bad = cfg;
        bad.max_retransmits = 0;
        assert!(FaultPlan::none().with_corruption(bad).check().is_err());
        assert!(FaultPlan::none().with_corruption(cfg).check().is_ok());
        // A corruption-only plan still counts as trivial (no node faults).
        assert!(FaultPlan::none().with_corruption(cfg).is_trivial());
    }

    #[test]
    fn corrupted_transmit_is_detected_and_retransmitted_when_verifying() {
        let msg = Message::LambdaTilde {
            frontend: 0,
            datacenter: 1,
            value: 0.75,
        };
        // A generous budget: rate 0.4 makes a run of 33 straight corrupt
        // copies (the only way to exhaust it) essentially impossible.
        let cfg = CorruptionConfig::new(0.4, 9)
            .with_max_retransmits(32)
            .with_checksums(true);
        let mut state = IntegrityState::new(Some(&cfg));
        let mut worst = 1usize;
        for _ in 0..2000 {
            let (delivered, attempts) = state.transmit(&msg, 1).unwrap();
            // Verified links either deliver the clean value or a
            // bit-identical mangle; never silent garbage.
            assert!(delivered.is_none() || delivered == Some(0.75));
            worst = worst.max(attempts);
        }
        assert!(worst > 1, "rate 0.4 over 2000 sends must retransmit");
        assert!(state.counters.corruptions_injected > 0);
        assert_eq!(
            state.counters.corruptions_detected,
            state.counters.checksum_retransmissions
        );
        assert_eq!(state.counters.corruptions_delivered, 0);
    }

    #[test]
    fn retransmit_budget_exhaustion_is_a_typed_error() {
        let msg = Message::ATilde {
            frontend: 2,
            datacenter: 0,
            value: 1.0,
        };
        // Near-certain corruption with a tiny budget: exhaustion is quick.
        let cfg = CorruptionConfig::new(0.999, 3)
            .with_kind(CorruptionKind::BitFlip)
            .with_max_retransmits(2)
            .with_checksums(true);
        let mut state = IntegrityState::new(Some(&cfg));
        let err = loop {
            match state.transmit(&msg, 7) {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        match err {
            CoreError::CorruptPayload {
                node, iteration, ..
            } => {
                assert_eq!(node, "datacenter[0]→frontend[2]");
                assert_eq!(iteration, 7);
            }
            other => panic!("expected CorruptPayload, got {other}"),
        }
    }

    #[test]
    fn unverified_nan_delivery_fails_fast_with_the_link_named() {
        let msg = Message::LambdaTilde {
            frontend: 1,
            datacenter: 2,
            value: 0.5,
        };
        let cfg = CorruptionConfig::new(0.999, 5).with_kind(CorruptionKind::NanSubstitution);
        let mut state = IntegrityState::new(Some(&cfg));
        let err = loop {
            match state.transmit(&msg, 4) {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        match err {
            CoreError::Divergence {
                iteration,
                node,
                context,
                ..
            } => {
                assert_eq!(iteration, 4);
                assert_eq!(node.as_deref(), Some("datacenter[2]"));
                assert!(context.contains("frontend[1]→datacenter[2]"), "{context}");
            }
            other => panic!("expected Divergence, got {other}"),
        }
    }

    #[test]
    fn unverified_finite_corruption_is_delivered_and_counted() {
        let msg = Message::LambdaTilde {
            frontend: 0,
            datacenter: 0,
            value: 1.5,
        };
        let cfg = CorruptionConfig::new(0.999, 11).with_kind(CorruptionKind::SignFlip);
        let mut state = IntegrityState::new(Some(&cfg));
        let (delivered, attempts) = state.transmit(&msg, 1).unwrap();
        assert_eq!(delivered, Some(-1.5), "sign flip must be delivered");
        assert_eq!(attempts, 1, "no retransmits without verification");
        assert_eq!(state.counters.corruptions_delivered, 1);
        assert_eq!(state.last_corrupted.as_deref(), Some("datacenter[0]"));
    }

    #[test]
    fn corruption_process_is_deterministic_given_seed() {
        let msg = Message::ATilde {
            frontend: 1,
            datacenter: 1,
            value: 0.25,
        };
        let cfg = CorruptionConfig::new(0.3, 77).with_checksums(true);
        let mut a = IntegrityState::new(Some(&cfg));
        let mut b = IntegrityState::new(Some(&cfg));
        for _ in 0..500 {
            assert_eq!(a.transmit(&msg, 1).unwrap(), b.transmit(&msg, 1).unwrap());
        }
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn inactive_integrity_state_is_a_no_op() {
        let mut state = IntegrityState::new(None);
        assert!(!state.active());
        let msg = Message::LambdaTilde {
            frontend: 0,
            datacenter: 0,
            value: 2.0,
        };
        assert_eq!(state.transmit(&msg, 1).unwrap(), (None, 1));
        assert!(state.counters.is_zero());
    }

    #[test]
    fn wire_kinds_are_classified_and_disarm_the_value_channel() {
        assert!(CorruptionKind::FrameTruncate.is_wire_level());
        assert!(CorruptionKind::FrameDuplicate.is_wire_level());
        assert!(CorruptionKind::FrameReorder.is_wire_level());
        assert!(!CorruptionKind::BitFlip.is_wire_level());
        assert!(!CorruptionKind::MagnitudeScale.is_wire_level());
        assert!(!CorruptionKind::Drop.is_wire_level());
        // A wire-pinned config leaves the value channel inert (the socket
        // coordinator's reader owns those draws) but keeps checksum
        // verification active.
        let cfg = CorruptionConfig::new(0.9, 3)
            .with_kind(CorruptionKind::FrameTruncate)
            .with_checksums(true);
        let mut state = IntegrityState::new(Some(&cfg));
        let msg = Message::LambdaTilde {
            frontend: 0,
            datacenter: 0,
            value: 1.0,
        };
        for _ in 0..100 {
            assert_eq!(state.transmit(&msg, 1).unwrap(), (None, 1));
        }
        assert!(state.counters.is_zero());
        assert!(state.active(), "verify flag still counts as active");
    }

    #[test]
    fn wire_chaos_arms_only_for_pinned_wire_kinds() {
        let value = CorruptionConfig::new(0.5, 1).with_kind(CorruptionKind::BitFlip);
        let unpinned = CorruptionConfig::new(0.5, 1);
        let wire = CorruptionConfig::new(0.5, 1).with_kind(CorruptionKind::FrameDuplicate);
        assert!(WireChaos::ingress(Some(&value), 0).is_none());
        assert!(WireChaos::ingress(Some(&unpinned), 0).is_none());
        assert!(WireChaos::ingress(None, 0).is_none());
        assert!(WireChaos::ingress(Some(&wire), 0).is_some());
        // Reordering never applies to the command direction.
        let reorder = CorruptionConfig::new(0.5, 1).with_kind(CorruptionKind::FrameReorder);
        assert!(WireChaos::egress(Some(&reorder), 0).is_none());
        assert!(WireChaos::ingress(Some(&reorder), 0).is_some());
    }

    #[test]
    fn wire_truncation_keeps_a_coherent_length_prefix() {
        let cfg =
            CorruptionConfig::new(1.0 - f64::EPSILON, 42).with_kind(CorruptionKind::FrameTruncate);
        let mut chaos = WireChaos::egress(Some(&cfg), 7).unwrap();
        // A fake 20-byte payload behind a 4-byte length prefix.
        let payload: Vec<u8> = (0..20u8).collect();
        let mut wire = 20u32.to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);
        assert_eq!(chaos.next_egress(&mut wire, 0), WireVerdict::Truncated);
        let cut = u32::from_le_bytes(wire[..4].try_into().unwrap()) as usize;
        assert!((6..20).contains(&cut), "cut {cut} outside [6, 20)");
        assert_eq!(wire.len(), 4 + cut, "prefix must match the short frame");

        // Ingress truncation acts on the bare payload.
        let mut chaos = WireChaos::ingress(Some(&cfg), 8).unwrap();
        let bytes: Vec<u8> = (0..20u8).collect();
        let mut payload = &bytes[..];
        assert_eq!(chaos.next_ingress(&mut payload), WireVerdict::Truncated);
        assert!((6..20).contains(&payload.len()));

        // Frames at or below the 6-byte floor pass through clean.
        let mut tiny: &[u8] = &[0xFD, 7, 0, 0, 0, 0];
        assert_eq!(chaos.next_ingress(&mut tiny), WireVerdict::Clean);
        assert_eq!(tiny.len(), 6);
    }

    #[test]
    fn wire_chaos_draws_are_deterministic_per_seed_and_salt() {
        let cfg = CorruptionConfig::new(0.3, 99).with_kind(CorruptionKind::FrameReorder);
        let mut a = WireChaos::ingress(Some(&cfg), 5).unwrap();
        let mut b = WireChaos::ingress(Some(&cfg), 5).unwrap();
        let mut c = WireChaos::ingress(Some(&cfg), 6).unwrap();
        let mut diverged = false;
        for _ in 0..200 {
            let bytes: Vec<u8> = (0..12u8).collect();
            let (mut pa, mut pb, mut pc) = (&bytes[..], &bytes[..], &bytes[..]);
            let va = a.next_ingress(&mut pa);
            assert_eq!(va, b.next_ingress(&mut pb));
            assert_eq!(pa, pb);
            diverged |= va != c.next_ingress(&mut pc);
        }
        assert!(diverged, "different salts must decorrelate the streams");
    }

    /// A drop channel of the given rate on an unverified link.
    fn drop_state(rate: f64, seed: u64) -> IntegrityState {
        let cfg = CorruptionConfig::new(rate, seed).with_kind(CorruptionKind::Drop);
        IntegrityState::new(Some(&cfg))
    }

    /// Sends one message through `state`; returns the attempts it took.
    fn send(state: &mut IntegrityState) -> usize {
        let msg = Message::LambdaTilde {
            frontend: 0,
            datacenter: 0,
            value: 1.0,
        };
        let (delivered, attempts) = state.transmit(&msg, 1).unwrap();
        assert_eq!(delivered, None, "a dropped copy is resent, never altered");
        attempts
    }

    #[test]
    fn lossless_channel_never_retransmits() {
        let mut state = drop_state(0.0, 1);
        for _ in 0..1000 {
            assert_eq!(send(&mut state), 1);
        }
        assert_eq!(state.retransmissions, 0);
    }

    #[test]
    fn attempts_match_geometric_mean() {
        // E[attempts] = 1/(1−p); p = 0.5 ⇒ 2.
        let mut state = drop_state(0.5, 42);
        let n = 20_000;
        let total: usize = (0..n).map(|_| send(&mut state)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean attempts {mean}");
        assert_eq!(state.retransmissions, total - n);
        // Drops are resends, not corruptions: no budget, no counters.
        assert!(state.counters.is_zero());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = drop_state(0.3, 7);
        let mut b = drop_state(0.3, 7);
        for _ in 0..100 {
            assert_eq!(send(&mut a), send(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "corruption rate")]
    fn rejects_certain_loss() {
        let _ = CorruptionConfig::new(1.0, 0).with_kind(CorruptionKind::Drop);
    }

    #[test]
    fn try_new_returns_typed_error() {
        assert!(matches!(
            CorruptionConfig::try_new(1.5, 0),
            Err(CoreError::InvalidConfig { .. })
        ));
        let mut certain = CorruptionConfig::new(0.25, 0).with_kind(CorruptionKind::Drop);
        assert!(FaultPlan::none().with_corruption(certain).check().is_ok());
        certain.rate = 1.0;
        assert!(matches!(
            FaultPlan::none().with_corruption(certain).check(),
            Err(CoreError::InvalidConfig { .. })
        ));
    }
}
