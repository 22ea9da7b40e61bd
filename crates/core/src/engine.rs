//! The transport-agnostic ADM-G iteration driver — the **single** copy of
//! the paper's prediction/correction loop.
//!
//! The paper's central claim (§III, problem (13)) is that one algorithm —
//! N-block ADM-G with Gaussian back substitution — runs identically whether
//! executed centrally or distributed across front-ends and datacenters.
//! This module encodes that claim structurally: [`drive`] owns the
//! schedule-driven prediction order (classically λ → μ → ν → a; with the
//! storage extension λ → μ → ν → d → a), the backward correction, the
//! three-residual convergence test, and the per-iteration event stream,
//! while a [`Transport`] implementation supplies only *how* block inputs
//! are broadcast and block results gathered:
//!
//! * **in-process** (`InProcessTransport`, crate-private): the
//!   [`crate::AdmgSolver`] steps the [`crate::node`] types, one per
//!   front-end and datacenter, on a [`crate::WorkerPool`];
//! * **lockstep message-passing** (`ufc_distsim`): deterministic rounds
//!   over explicit messages, with optional fault, corruption and drop
//!   injection;
//! * **supervised threaded** (`ufc_distsim`): one OS thread per node over
//!   mpsc channels, driven by a supervising coordinator;
//! * **multi-process sockets** (`ufc_distsim`): worker OS processes over
//!   TCP, driven by the same kind of coordinator.
//!
//! Every transport must preserve the numerical contract bit-for-bit:
//! parallel ≡ sequential, reused ≡ fresh, lockstep ≡ threaded, and
//! faulty-with-no-faults ≡ clean (asserted across crates in the
//! `engine_equivalence` integration test).

use std::time::{Duration, Instant};

use ufc_model::UfcInstance;

use crate::telemetry::Phase;
use crate::{AdmgSettings, Result};

/// Per-iteration residual record (the raw material of Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Link residual `max|λ − a|` (kilo-servers).
    pub link_residual: f64,
    /// Power-balance residual (MW).
    pub balance_residual: f64,
    /// Dual residual: ρ × the ∞-norm movement of the corrected blocks.
    pub dual_residual: f64,
    /// ADMM-form objective (12) at the corrected iterate ($); `NaN` when
    /// the transport cannot observe the assembled iterate.
    pub objective: f64,
}

/// Max-reduced residuals of one corrected iterate, as returned by
/// [`Transport::correct`]. The driver derives the dual residual as
/// `ρ × movement` and applies the stop rule.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BlockResiduals {
    /// Link residual `max|λ − a|` (kilo-servers).
    pub link: f64,
    /// Power-balance residual (MW).
    pub balance: f64,
    /// ∞-norm movement of the corrected blocks `(μ, ν, d, a, φ, φ_ij)`.
    pub movement: f64,
}

/// One iteration of the unified driver, as delivered to an
/// [`IterationObserver`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationEvent {
    /// Iteration index (0-based, matching [`IterationRecord::iteration`]).
    pub iteration: usize,
    /// Link residual at the corrected iterate.
    pub link_residual: f64,
    /// Power-balance residual at the corrected iterate.
    pub balance_residual: f64,
    /// Dual residual `ρ × movement`.
    pub dual_residual: f64,
    /// Objective at the corrected iterate, when the transport can observe
    /// it (`None` for distributed transports — no node holds the full
    /// iterate).
    pub objective: Option<f64>,
    /// Whether this iteration passed all three residual tests.
    pub converged: bool,
}

/// Receives the per-iteration event stream of [`drive`] — the single hook
/// through which solvers, distributed statistics, and experiment drivers
/// observe an ADM-G run.
pub trait IterationObserver {
    /// Called once per iteration, after correction and the stop decision.
    fn on_iteration(&mut self, event: &IterationEvent);

    /// Whether this observer wants [`IterationObserver::on_phase`] events.
    /// [`drive`] reads this **once** per run and, when `false` (the
    /// default), never touches the clock — the inertness contract for
    /// telemetry-disabled runs is "zero timing reads", not just "timings
    /// discarded".
    fn wants_phase_timings(&self) -> bool {
        false
    }

    /// Called after each driver phase of iteration `k` (1-based) with its
    /// wall-clock duration — only when [`wants_phase_timings`] returned
    /// `true` at the start of the run. Timing flows strictly outward:
    /// nothing an observer does here can feed back into the iterates.
    ///
    /// [`wants_phase_timings`]: IterationObserver::wants_phase_timings
    fn on_phase(&mut self, k: usize, phase: Phase, elapsed: Duration) {
        let _ = (k, phase, elapsed);
    }
}

/// The no-op observer, for callers that only need the final outcome.
impl IterationObserver for () {
    fn on_iteration(&mut self, _event: &IterationEvent) {}
}

/// Forwarding impl so observers compose by mutable reference (e.g. a
/// caller-owned collector reborrowed into an [`ObserverChain`]).
///
/// [`ObserverChain`]: crate::telemetry::ObserverChain
impl<T: IterationObserver + ?Sized> IterationObserver for &mut T {
    fn on_iteration(&mut self, event: &IterationEvent) {
        (**self).on_iteration(event);
    }

    fn wants_phase_timings(&self) -> bool {
        (**self).wants_phase_timings()
    }

    fn on_phase(&mut self, k: usize, phase: Phase, elapsed: Duration) {
        (**self).on_phase(k, phase, elapsed);
    }
}

/// An observer that collects the classic [`IterationRecord`] history.
#[derive(Debug, Clone, Default)]
pub struct HistoryRecorder {
    records: Vec<IterationRecord>,
}

impl HistoryRecorder {
    /// The recorded trajectory, one record per iteration.
    #[must_use]
    pub fn into_history(self) -> Vec<IterationRecord> {
        self.records
    }
}

impl IterationObserver for HistoryRecorder {
    fn on_iteration(&mut self, event: &IterationEvent) {
        self.records.push(IterationRecord {
            iteration: event.iteration,
            link_residual: event.link_residual,
            balance_residual: event.balance_residual,
            dual_residual: event.dual_residual,
            objective: event.objective.unwrap_or(f64::NAN),
        });
    }
}

/// Which side of the geo-distributed deployment owns a block's
/// computation — the unit [`drive`] schedules prediction phases by.
/// Consecutive blocks with the same owner fuse into one phase (one
/// scatter/gather round), which is how the classic 4-block schedule and
/// the 5-block storage schedule both execute as exactly two prediction
/// phases per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockOwner {
    /// A front-end (access point): owns the routing block λ.
    FrontEnd,
    /// A datacenter: owns the μ/ν/d/a blocks and the dual prediction.
    Datacenter,
}

impl BlockOwner {
    /// Stable snake_case name (used in diagnostics and JSON keys).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BlockOwner::FrontEnd => "front_end",
            BlockOwner::Datacenter => "datacenter",
        }
    }
}

/// What one ADM-G block computes. The discriminants are **wire-stable**:
/// [`BlockKind::wire_id`] is encoded into run-config frames and
/// block-indexed messages by `ufc_distsim`, so variants must never be
/// reordered or renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// λ — request routing fractions at the front-ends (paper Eq. (17)).
    Routing,
    /// μ — fuel-cell generation at each datacenter (Eq. (18)).
    FuelCell,
    /// ν — grid draw at each datacenter (Eq. (19)).
    Grid,
    /// d — battery net discharge at each datacenter (storage extension).
    Storage,
    /// a — the auxiliary routing copy at each datacenter (Eq. (20)).
    Auxiliary,
}

impl BlockKind {
    /// The stable one-byte wire identifier of this block kind.
    #[must_use]
    pub const fn wire_id(self) -> u8 {
        match self {
            BlockKind::Routing => 0,
            BlockKind::FuelCell => 1,
            BlockKind::Grid => 2,
            BlockKind::Storage => 3,
            BlockKind::Auxiliary => 4,
        }
    }

    /// Decodes a wire identifier back into a kind.
    #[must_use]
    pub const fn from_wire_id(id: u8) -> Option<Self> {
        match id {
            0 => Some(BlockKind::Routing),
            1 => Some(BlockKind::FuelCell),
            2 => Some(BlockKind::Grid),
            3 => Some(BlockKind::Storage),
            4 => Some(BlockKind::Auxiliary),
            _ => None,
        }
    }

    /// Stable snake_case name (used in diagnostics and JSON keys).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BlockKind::Routing => "routing",
            BlockKind::FuelCell => "fuel_cell",
            BlockKind::Grid => "grid",
            BlockKind::Storage => "storage",
            BlockKind::Auxiliary => "auxiliary",
        }
    }
}

/// One block of the ADM-G schedule: what it computes, who computes it, and
/// how many scalar variables it holds (0 when the schedule is not yet bound
/// to an instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockDescriptor {
    /// What the block computes.
    pub kind: BlockKind,
    /// Which deployment side owns the computation.
    pub owner: BlockOwner,
    /// Scalar variables in the block (`m·n` for routing blocks, `n` for
    /// per-datacenter blocks); 0 for unbound template schedules.
    pub dimension: usize,
}

/// The ordered block schedule one ADM-G run executes — the data structure
/// that replaced the hard-coded 4-block pipeline. [`drive`] derives its
/// prediction phases from it, `ufc_distsim` echoes it through run-config
/// frames, and the correction step processes its blocks in reverse.
///
/// [`BlockSchedule::classic`] (λ, μ, ν, a) is the degenerate case and is
/// **bit-identical** to the pre-schedule pipeline on every engine;
/// [`BlockSchedule::with_storage`] inserts the battery block d between ν
/// and a.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSchedule {
    blocks: Vec<BlockDescriptor>,
}

impl BlockSchedule {
    /// The paper's 4-block schedule λ → μ → ν → a (unbound: dimensions 0).
    #[must_use]
    pub fn classic() -> Self {
        BlockSchedule {
            blocks: vec![
                BlockDescriptor {
                    kind: BlockKind::Routing,
                    owner: BlockOwner::FrontEnd,
                    dimension: 0,
                },
                BlockDescriptor {
                    kind: BlockKind::FuelCell,
                    owner: BlockOwner::Datacenter,
                    dimension: 0,
                },
                BlockDescriptor {
                    kind: BlockKind::Grid,
                    owner: BlockOwner::Datacenter,
                    dimension: 0,
                },
                BlockDescriptor {
                    kind: BlockKind::Auxiliary,
                    owner: BlockOwner::Datacenter,
                    dimension: 0,
                },
            ],
        }
    }

    /// The 5-block storage schedule λ → μ → ν → d → a (unbound).
    #[must_use]
    pub fn with_storage() -> Self {
        let mut schedule = BlockSchedule::classic();
        schedule.blocks.insert(
            3,
            BlockDescriptor {
                kind: BlockKind::Storage,
                owner: BlockOwner::Datacenter,
                dimension: 0,
            },
        );
        schedule
    }

    /// The schedule an instance runs under, with block dimensions bound:
    /// the storage variant exactly when the instance carries storage
    /// parameters, the classic schedule otherwise.
    #[must_use]
    pub fn for_instance(instance: &UfcInstance) -> Self {
        let (m, n) = (instance.m_frontends(), instance.n_datacenters());
        let mut schedule = if instance.storage.is_some() {
            BlockSchedule::with_storage()
        } else {
            BlockSchedule::classic()
        };
        for block in &mut schedule.blocks {
            block.dimension = match block.kind {
                BlockKind::Routing | BlockKind::Auxiliary => m * n,
                BlockKind::FuelCell | BlockKind::Grid | BlockKind::Storage => n,
            };
        }
        schedule
    }

    /// The blocks in prediction (forward) order.
    #[must_use]
    pub fn blocks(&self) -> &[BlockDescriptor] {
        &self.blocks
    }

    /// Number of blocks in the schedule.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the schedule has no blocks (never true for the built-ins).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Whether the schedule carries the storage block.
    #[must_use]
    pub fn has_storage(&self) -> bool {
        self.blocks.iter().any(|b| b.kind == BlockKind::Storage)
    }

    /// The prediction phases [`drive`] runs per iteration: the block owners
    /// in schedule order with consecutive duplicates fused (each fused run
    /// is one scatter/gather round). Both built-in schedules reduce to
    /// `[FrontEnd, Datacenter]`, which is why the storage extension costs
    /// no extra communication rounds.
    #[must_use]
    pub fn prediction_phases(&self) -> Vec<BlockOwner> {
        let mut phases: Vec<BlockOwner> = Vec::new();
        for block in &self.blocks {
            if phases.last() != Some(&block.owner) {
                phases.push(block.owner);
            }
        }
        phases
    }

    /// Every driver phase of one iteration, in execution order — the
    /// schedule-derived source of truth for telemetry keys and the trace
    /// validator ([`Phase::ALL`] equals this for both built-in schedules).
    #[must_use]
    pub fn phases(&self) -> Vec<Phase> {
        let mut phases = vec![Phase::Begin];
        phases.extend(self.prediction_phases().into_iter().map(Phase::Predict));
        phases.push(Phase::Correct);
        phases.push(Phase::FinishIteration);
        phases
    }
}

/// How one ADM-G execution engine moves block inputs and results around.
///
/// [`drive`] calls the phases in a fixed order each iteration `k`
/// (1-based): [`Transport::begin_iteration`] (membership/fault
/// bookkeeping), then one [`Transport::predict_phase`] per entry of the
/// schedule's [`BlockSchedule::prediction_phases`] — for both built-in
/// schedules that is the λ-step broadcast ([`Transport::predict_lambda`])
/// followed by the fused datacenter steps plus dual prediction and result
/// gather ([`Transport::step_datacenters`]) — then [`Transport::correct`]
/// (Gaussian back substitution plus residual reduction), and
/// [`Transport::finish_iteration`] (the continue/stop control broadcast
/// and any checkpointing) — after the stop decision, so a converged
/// iteration still broadcasts its verdict but never checkpoints.
pub trait Transport {
    /// Pre-phase bookkeeping: readmission probes, straggler accounting,
    /// partition stalls. Default: nothing (clean engines).
    ///
    /// # Errors
    ///
    /// Transport-specific; a returned error aborts the run.
    fn begin_iteration(&mut self, k: usize) -> Result<()> {
        let _ = k;
        Ok(())
    }

    /// The block schedule this transport executes. The default is the
    /// classic 4-block schedule; storage-aware transports report the
    /// schedule bound to their instance ([`BlockSchedule::for_instance`]).
    /// [`drive`] reads this once per run.
    fn schedule(&self) -> BlockSchedule {
        BlockSchedule::classic()
    }

    /// Runs one prediction phase: every block owned by `owner` predicts,
    /// in schedule order. The default dispatches the two built-in owners
    /// to the named phase methods, so existing transports pick up the
    /// schedule-driven driver without code changes.
    ///
    /// # Errors
    ///
    /// As for the dispatched phase method.
    fn predict_phase(&mut self, owner: BlockOwner, k: usize) -> Result<()> {
        match owner {
            BlockOwner::FrontEnd => self.predict_lambda(k),
            BlockOwner::Datacenter => self.step_datacenters(k),
        }
    }

    /// Step 1: every front-end block solves its λ-sub-problem (17) and the
    /// predictions `λ̃` are scattered to the datacenter blocks.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::Subproblem`] if a block QP fails; transports
    /// add their own failure modes (e.g. node failures).
    fn predict_lambda(&mut self, k: usize) -> Result<()>;

    /// The fused datacenter phase: every datacenter block runs the μ̃ (18),
    /// ν̃ (19), d̃ (storage schedules only) and ã (20) predictions plus the
    /// dual prediction, and the results are gathered back.
    ///
    /// # Errors
    ///
    /// As for [`Transport::predict_lambda`].
    fn step_datacenters(&mut self, k: usize) -> Result<()>;

    /// The Gaussian back-substitution correction (backward block order) and
    /// the max-reduction of the per-block residuals.
    ///
    /// # Errors
    ///
    /// Transport-specific node/communication failures.
    fn correct(&mut self, k: usize) -> Result<BlockResiduals>;

    /// Post-decision bookkeeping: the continue/stop control broadcast,
    /// replay-history buffering, and checkpointing (never on `stop`).
    /// Default: nothing.
    ///
    /// # Errors
    ///
    /// Transport-specific (e.g. a checkpoint round failing).
    fn finish_iteration(&mut self, k: usize, stop: bool) -> Result<()> {
        let _ = (k, stop);
        Ok(())
    }

    /// Objective at the current corrected iterate, when observable.
    /// Distributed transports return `None`: no single node holds the
    /// full iterate.
    fn objective(&mut self) -> Option<f64> {
        None
    }

    /// Rolls the iterate back to the transport's last *finite* checkpoint
    /// after a divergence-gate trip, returning the checkpoint iteration on
    /// success. The default declines (`None`): transports without
    /// checkpoint machinery let the typed divergence error surface.
    ///
    /// # Errors
    ///
    /// Transport-specific restore failures (e.g. a corrupt blob).
    fn rollback(&mut self, k: usize) -> Result<Option<usize>> {
        let _ = k;
        Ok(None)
    }

    /// The node the transport blames for a non-finite residual, if it
    /// tracked one during the last residual reduction — flows into the
    /// typed [`crate::CoreError::Divergence`] diagnostics.
    fn divergence_suspect(&self) -> Option<String> {
        None
    }
}

/// Caps how many divergence-gate trips may be repaired by checkpoint
/// rollback in one run before the gate turns fatal — a deterministically
/// re-diverging run must not roll back forever.
const MAX_ROLLBACKS: usize = 3;

/// The driver's divergence gate: watches the residual stream for
/// non-finite values (immediate trip) and sustained explosion past
/// `κ × best-seen` for `K` consecutive iterations. Purely observational —
/// it only reads residuals the driver already computed, so healthy runs
/// are bit-identical with the gate armed (which it always is).
struct DivergenceGuard {
    kappa: f64,
    window: usize,
    best: f64,
    streak: usize,
    rollbacks: usize,
}

impl DivergenceGuard {
    fn new(settings: &AdmgSettings) -> Self {
        DivergenceGuard {
            kappa: settings.divergence_kappa,
            window: settings.divergence_window,
            best: f64::INFINITY,
            streak: 0,
            rollbacks: 0,
        }
    }

    /// Observes one iteration's residual triple; `Some(context)` when the
    /// gate trips.
    fn observe(&mut self, residuals: &BlockResiduals, dual: f64) -> Option<String> {
        for (name, value) in [
            ("link", residuals.link),
            ("balance", residuals.balance),
            ("dual", dual),
        ] {
            if !value.is_finite() {
                return Some(format!("{name} residual became non-finite ({value})"));
            }
        }
        let r = residuals.link.max(residuals.balance).max(dual);
        if self.best.is_finite() && r > self.kappa * self.best {
            self.streak += 1;
            if self.streak >= self.window {
                return Some(format!(
                    "residual {r:e} exceeded {}× the best-seen {:e} for {} consecutive iterations",
                    self.kappa, self.best, self.streak
                ));
            }
        } else {
            self.streak = 0;
        }
        self.best = self.best.min(r);
        None
    }

    /// Whether the rollback budget still allows repairing a trip.
    fn can_roll_back(&self) -> bool {
        self.rollbacks < MAX_ROLLBACKS
    }

    /// Re-arms the gate after a successful rollback.
    fn rearm(&mut self) {
        self.rollbacks += 1;
        self.best = f64::INFINITY;
        self.streak = 0;
    }
}

/// What [`drive`] reports back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveOutcome {
    /// Iterations performed (1-based count).
    pub iterations: usize,
    /// Whether all three residual tests passed before the iteration cap.
    pub converged: bool,
}

/// Runs the ADM-G iteration to convergence (or the iteration cap) over the
/// given transport — the one place in the workspace where the
/// schedule-driven prediction order (λ → μ → ν → a classically,
/// λ → μ → ν → d → a under storage), the backward correction, and the
/// stopping rule
/// `link ≤ ε_link ∧ balance ≤ ε_balance ∧ ρ·movement ≤ ε_dual` are
/// sequenced. The prediction phases are read once from
/// [`Transport::schedule`] and iterated each round — the driver never
/// names a block.
///
/// `tolerances` is the `(link, balance, dual)` triple, typically
/// [`AdmgSettings::scaled_tolerances`].
///
/// # Errors
///
/// Propagates the first transport error.
pub fn drive<T: Transport + ?Sized>(
    transport: &mut T,
    settings: &AdmgSettings,
    tolerances: (f64, f64, f64),
    observer: &mut dyn IterationObserver,
) -> Result<DriveOutcome> {
    let (link_tol, balance_tol, dual_tol) = tolerances;
    // Read once: with timings unwanted the loop below never touches the
    // clock, so a telemetry-disabled run is instruction-identical on the
    // numeric path.
    let timed = observer.wants_phase_timings();
    // Read the schedule once: the prediction phases are fixed for the run
    // (collected into an owned Vec so the loop below can borrow the
    // transport mutably).
    let prediction_phases = transport.schedule().prediction_phases();
    let mut guard = DivergenceGuard::new(settings);
    let mut converged = false;
    let mut iterations = 0;
    for k in 1..=settings.max_iterations {
        iterations = k;
        let t = timed.then(Instant::now);
        transport.begin_iteration(k)?;
        if let Some(t0) = t {
            observer.on_phase(k, Phase::Begin, t0.elapsed());
        }
        // Prediction, forward block order, one phase per fused owner run:
        // for both built-in schedules the front-end λ phase first, then
        // the fused datacenter blocks and the dual prediction.
        for &owner in &prediction_phases {
            let t = timed.then(Instant::now);
            transport.predict_phase(owner, k)?;
            if let Some(t0) = t {
                observer.on_phase(k, Phase::Predict(owner), t0.elapsed());
            }
        }
        // Correction (Gaussian back substitution), backward block order.
        let t = timed.then(Instant::now);
        let residuals = transport.correct(k)?;
        if let Some(t0) = t {
            observer.on_phase(k, Phase::Correct, t0.elapsed());
        }
        let dual = settings.rho * residuals.movement;
        if let Some(context) = guard.observe(&residuals, dual) {
            // The iterate is poisoned: either repair it from the last
            // finite checkpoint (and skip this iteration's event/stop
            // bookkeeping — the residuals are meaningless), or fail with a
            // typed divergence error. Never continue silently.
            if settings.divergence_rollback && guard.can_roll_back() {
                if let Some(_checkpoint_iteration) = transport.rollback(k)? {
                    guard.rearm();
                    continue;
                }
            }
            return Err(match transport.divergence_suspect() {
                Some(node) => crate::CoreError::divergence_at("correct", k, node, context),
                None => crate::CoreError::divergence("correct", k, context),
            });
        }
        let stop =
            residuals.link <= link_tol && residuals.balance <= balance_tol && dual <= dual_tol;
        observer.on_iteration(&IterationEvent {
            iteration: k - 1,
            link_residual: residuals.link,
            balance_residual: residuals.balance,
            dual_residual: dual,
            objective: transport.objective(),
            converged: stop,
        });
        let t = timed.then(Instant::now);
        transport.finish_iteration(k, stop)?;
        if let Some(t0) = t {
            observer.on_phase(k, Phase::FinishIteration, t0.elapsed());
        }
        if stop {
            converged = true;
            break;
        }
    }
    Ok(DriveOutcome {
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A transport that converges after a scripted number of iterations,
    /// for exercising the driver's sequencing alone.
    struct Scripted {
        calls: Vec<&'static str>,
        converge_at: usize,
    }

    impl Transport for Scripted {
        fn begin_iteration(&mut self, _k: usize) -> Result<()> {
            self.calls.push("begin");
            Ok(())
        }
        fn predict_lambda(&mut self, _k: usize) -> Result<()> {
            self.calls.push("lambda");
            Ok(())
        }
        fn step_datacenters(&mut self, _k: usize) -> Result<()> {
            self.calls.push("site");
            Ok(())
        }
        fn correct(&mut self, k: usize) -> Result<BlockResiduals> {
            self.calls.push("correct");
            let done = k >= self.converge_at;
            Ok(BlockResiduals {
                link: if done { 0.0 } else { 1.0 },
                balance: 0.0,
                movement: 0.0,
            })
        }
        fn finish_iteration(&mut self, _k: usize, stop: bool) -> Result<()> {
            self.calls.push(if stop { "finish/stop" } else { "finish" });
            Ok(())
        }
    }

    #[test]
    fn classic_schedule_is_the_four_block_pipeline() {
        let s = BlockSchedule::classic();
        assert_eq!(s.len(), 4);
        assert!(!s.has_storage());
        let kinds: Vec<BlockKind> = s.blocks().iter().map(|b| b.kind).collect();
        assert_eq!(
            kinds,
            vec![
                BlockKind::Routing,
                BlockKind::FuelCell,
                BlockKind::Grid,
                BlockKind::Auxiliary
            ]
        );
        assert_eq!(
            s.prediction_phases(),
            vec![BlockOwner::FrontEnd, BlockOwner::Datacenter]
        );
        assert_eq!(s.phases(), Phase::ALL.to_vec());
    }

    #[test]
    fn storage_schedule_inserts_d_between_nu_and_a() {
        let s = BlockSchedule::with_storage();
        assert_eq!(s.len(), 5);
        assert!(s.has_storage());
        let kinds: Vec<BlockKind> = s.blocks().iter().map(|b| b.kind).collect();
        assert_eq!(
            kinds,
            vec![
                BlockKind::Routing,
                BlockKind::FuelCell,
                BlockKind::Grid,
                BlockKind::Storage,
                BlockKind::Auxiliary
            ]
        );
        // The 5th block is datacenter-owned, so it fuses into the existing
        // datacenter phase: no extra communication round, identical phase
        // list.
        assert_eq!(
            s.prediction_phases(),
            vec![BlockOwner::FrontEnd, BlockOwner::Datacenter]
        );
        assert_eq!(s.phases(), Phase::ALL.to_vec());
    }

    fn tiny_instance() -> UfcInstance {
        UfcInstance::new(
            vec![1.0, 2.0],
            vec![2.0, 2.0],
            vec![0.24, 0.24],
            vec![0.12, 0.12],
            vec![0.48, 0.48],
            vec![30.0, 70.0],
            80.0,
            vec![0.5, 0.3],
            vec![vec![0.01, 0.02], vec![0.02, 0.01]],
            10.0,
            vec![
                ufc_model::EmissionCostFn::linear(25.0).unwrap(),
                ufc_model::EmissionCostFn::linear(25.0).unwrap(),
            ],
            1.0,
        )
        .unwrap()
    }

    #[test]
    fn for_instance_binds_dimensions_and_storage() {
        let inst = tiny_instance();
        let s = BlockSchedule::for_instance(&inst);
        assert_eq!(s.len(), 4);
        for b in s.blocks() {
            let expect = match b.kind {
                BlockKind::Routing | BlockKind::Auxiliary => 4,
                _ => 2,
            };
            assert_eq!(b.dimension, expect, "{:?}", b.kind);
        }
        let fleet = ufc_model::StorageFleet::new(1.0, 0.5);
        let with = inst.with_storage(fleet.initial_params(2)).unwrap();
        let s = BlockSchedule::for_instance(&with);
        assert!(s.has_storage());
        assert_eq!(s.blocks()[3].dimension, 2);
    }

    #[test]
    fn block_kind_wire_ids_round_trip_and_stay_stable() {
        for (kind, id) in [
            (BlockKind::Routing, 0u8),
            (BlockKind::FuelCell, 1),
            (BlockKind::Grid, 2),
            (BlockKind::Storage, 3),
            (BlockKind::Auxiliary, 4),
        ] {
            assert_eq!(kind.wire_id(), id);
            assert_eq!(BlockKind::from_wire_id(id), Some(kind));
        }
        assert_eq!(BlockKind::from_wire_id(5), None);
    }

    /// A transport that reports a storage schedule must still see exactly
    /// one FrontEnd and one Datacenter prediction phase per iteration —
    /// the default `predict_phase` dispatch reaches the classic methods.
    #[test]
    fn driver_iterates_schedule_phases() {
        struct WithStorageSchedule(Scripted);
        impl Transport for WithStorageSchedule {
            fn schedule(&self) -> BlockSchedule {
                BlockSchedule::with_storage()
            }
            fn predict_lambda(&mut self, k: usize) -> Result<()> {
                self.0.predict_lambda(k)
            }
            fn step_datacenters(&mut self, k: usize) -> Result<()> {
                self.0.step_datacenters(k)
            }
            fn correct(&mut self, k: usize) -> Result<BlockResiduals> {
                self.0.correct(k)
            }
        }
        let mut t = WithStorageSchedule(Scripted {
            calls: Vec::new(),
            converge_at: 1,
        });
        let outcome = drive(&mut t, &AdmgSettings::default(), (0.5, 0.5, 0.5), &mut ())
            .expect("scripted transport cannot fail");
        assert!(outcome.converged);
        assert_eq!(t.0.calls, vec!["lambda", "site", "correct"]);
    }

    #[test]
    fn driver_sequences_phases_and_stops() {
        let mut t = Scripted {
            calls: Vec::new(),
            converge_at: 2,
        };
        let settings = AdmgSettings::default();
        let mut recorder = HistoryRecorder::default();
        let outcome = drive(&mut t, &settings, (0.5, 0.5, 0.5), &mut recorder)
            .expect("scripted transport cannot fail");
        assert!(outcome.converged);
        assert_eq!(outcome.iterations, 2);
        assert_eq!(
            t.calls,
            vec![
                "begin",
                "lambda",
                "site",
                "correct",
                "finish",
                "begin",
                "lambda",
                "site",
                "correct",
                "finish/stop",
            ]
        );
        let history = recorder.into_history();
        assert_eq!(history.len(), 2);
        assert_eq!(history[0].iteration, 0);
        assert!(history[1].objective.is_nan(), "no objective => NaN record");
    }

    #[test]
    fn driver_hits_iteration_cap_without_convergence() {
        let mut t = Scripted {
            calls: Vec::new(),
            converge_at: usize::MAX,
        };
        let settings = AdmgSettings {
            max_iterations: 3,
            ..AdmgSettings::default()
        };
        let outcome = drive(&mut t, &settings, (0.5, 0.5, 0.5), &mut ())
            .expect("scripted transport cannot fail");
        assert!(!outcome.converged);
        assert_eq!(outcome.iterations, 3);
    }

    /// A transport that replays a scripted residual stream, optionally with
    /// rollback support, for exercising the divergence gate alone.
    struct Diverging {
        /// Link residual per iteration (1-based index − 1, shifted by
        /// `offset` after a rollback); the last entry repeats past the end.
        script: Vec<f64>,
        suspect: Option<String>,
        checkpoint: Option<usize>,
        rollbacks: usize,
        /// Residual served after a rollback instead of replaying the script.
        post_rollback: Option<f64>,
        offset: usize,
    }

    impl Diverging {
        fn new(script: Vec<f64>) -> Self {
            Diverging {
                script,
                suspect: None,
                checkpoint: None,
                rollbacks: 0,
                post_rollback: None,
                offset: 0,
            }
        }
    }

    impl Transport for Diverging {
        fn predict_lambda(&mut self, _k: usize) -> Result<()> {
            Ok(())
        }
        fn step_datacenters(&mut self, _k: usize) -> Result<()> {
            Ok(())
        }
        fn correct(&mut self, k: usize) -> Result<BlockResiduals> {
            let link = match self.post_rollback {
                Some(post) if self.rollbacks > 0 => post,
                _ => *self
                    .script
                    .get(k - 1 - self.offset)
                    .or(self.script.last())
                    .expect("nonempty script"),
            };
            Ok(BlockResiduals {
                link,
                balance: 0.0,
                movement: 0.0,
            })
        }
        fn rollback(&mut self, k: usize) -> Result<Option<usize>> {
            if self.checkpoint.is_some() {
                self.rollbacks += 1;
                self.offset = k;
            }
            Ok(self.checkpoint)
        }
        fn divergence_suspect(&self) -> Option<String> {
            self.suspect.clone()
        }
    }

    #[test]
    fn gate_trips_immediately_on_non_finite_residuals() {
        let mut t = Diverging::new(vec![1.0, f64::NAN]);
        let err = drive(&mut t, &AdmgSettings::default(), (0.5, 0.5, 0.5), &mut ()).unwrap_err();
        match err {
            crate::CoreError::Divergence {
                phase,
                iteration,
                node,
                context,
            } => {
                assert_eq!(phase, "correct");
                assert_eq!(iteration, 2);
                assert!(node.is_none());
                assert!(context.contains("non-finite"), "context: {context}");
            }
            other => panic!("expected Divergence, got {other}"),
        }
    }

    #[test]
    fn gate_trips_on_sustained_residual_explosion_only() {
        let settings = AdmgSettings::default().with_divergence_gate(10.0, 3);
        // One spike (streak broken) is tolerated...
        let mut t = Diverging::new(vec![1.0, 100.0, 1.0, 1.0]);
        let capped = AdmgSettings {
            max_iterations: 10,
            ..settings
        };
        assert!(drive(&mut t, &capped, (0.5, 0.5, 0.5), &mut ()).is_ok());
        // ...but three consecutive iterations past κ×best trip the gate.
        let mut t = Diverging::new(vec![1.0, 100.0, 100.0, 100.0]);
        t.suspect = Some("datacenter[1]".to_string());
        let err = drive(&mut t, &capped, (0.5, 0.5, 0.5), &mut ()).unwrap_err();
        match err {
            crate::CoreError::Divergence {
                iteration, node, ..
            } => {
                assert_eq!(iteration, 4);
                assert_eq!(node.as_deref(), Some("datacenter[1]"));
            }
            other => panic!("expected Divergence, got {other}"),
        }
    }

    #[test]
    fn gate_rolls_back_when_enabled_and_supported() {
        let settings = AdmgSettings {
            max_iterations: 10,
            ..AdmgSettings::default()
                .with_divergence_gate(10.0, 2)
                .with_divergence_rollback(true)
        };
        let mut t = Diverging::new(vec![1.0, 100.0, 100.0]);
        t.checkpoint = Some(1);
        t.post_rollback = Some(0.0);
        let outcome =
            drive(&mut t, &settings, (0.5, 0.5, 0.5), &mut ()).expect("rollback repairs the run");
        assert!(outcome.converged);
        assert_eq!(t.rollbacks, 1);
        // Without rollback enabled the same script is a typed error.
        let mut t = Diverging::new(vec![1.0, 100.0, 100.0]);
        t.checkpoint = Some(1);
        let no_rollback = AdmgSettings {
            divergence_rollback: false,
            ..settings
        };
        assert!(drive(&mut t, &no_rollback, (0.5, 0.5, 0.5), &mut ()).is_err());
        assert_eq!(t.rollbacks, 0, "rollback must not run when disabled");
    }

    #[test]
    fn rollback_budget_is_bounded() {
        let settings = AdmgSettings {
            max_iterations: 200,
            ..AdmgSettings::default()
                .with_divergence_gate(10.0, 1)
                .with_divergence_rollback(true)
        };
        // Replays the same diverging script after every rollback.
        let mut t = Diverging::new(vec![1.0, 100.0]);
        t.checkpoint = Some(1);
        let err = drive(&mut t, &settings, (1e-9, 0.5, 0.5), &mut ()).unwrap_err();
        assert!(matches!(err, crate::CoreError::Divergence { .. }));
        assert_eq!(t.rollbacks, MAX_ROLLBACKS);
    }
}
