//! **ufc-core** — the paper's primary contribution: distributed N-block
//! ADM-G for UFC maximization in geo-distributed clouds.
//!
//! The UFC maximization problem (paper Eq. (3)) jointly chooses geographic
//! request routing `λ_ij` and fuel-cell generation `μ_j`. After introducing
//! the grid draw `ν_j` and an auxiliary routing copy `a_ij = λ_ij`, it
//! becomes the 4-block separable convex program (13), solved here exactly as
//! §III prescribes — and generalized to a schedule-driven N-block
//! architecture ([`BlockSchedule`]) whose first extension block is a
//! per-datacenter battery with fuel-cell ramp limits (`d`, the temporal
//! coupling layer):
//!
//! 1. **ADMM prediction step** in the schedule's forward order — classically
//!    λ → μ → ν → a → duals, with storage λ → μ → ν → d → a → duals
//!    ([`subproblems`]): a per-front-end simplex QP, closed-form box
//!    clamps, a scalar convex minimization, and a per-datacenter
//!    capped-simplex QP — every step decomposes across front-ends or
//!    datacenters.
//! 2. **Gaussian back substitution correction step** in the backward order
//!    ([`correction`]), using the paper's specialized closed-form recursions
//!    (validated in tests against the generic matrix form of He–Tao–Yuan,
//!    [`generic`]), which guarantees convergence *without strong convexity*
//!    of the emission-cost functions `V_j` — the flat carbon tax case.
//!
//! Both steps are sequenced by exactly one iteration loop: the
//! transport-agnostic driver in [`engine`], whose [`Transport`] trait is
//! implemented by the in-process solver here and by the lockstep and
//! supervised-threaded runtimes in `ufc-distsim`.
//!
//! The crate also provides the paper's three procurement strategies
//! ([`Strategy`]: `Hybrid`, `GridOnly`, `FuelCellOnly`) as block
//! restrictions of the same machinery, and a [`centralized`] reference
//! solver (the fully assembled QP handed to `ufc-opt`) used to verify
//! optimality of the distributed iterates.
//!
//! # Example
//!
//! ```
//! use ufc_core::{AdmgSettings, AdmgSolver, Strategy};
//! use ufc_model::scenario::ScenarioBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = ScenarioBuilder::paper_default().hours(1).build()?;
//! let solver = AdmgSolver::new(AdmgSettings::default());
//! let hybrid = solver.solve(&scenario.instances[0], Strategy::Hybrid)?;
//! let grid = solver.solve(&scenario.instances[0], Strategy::GridOnly)?;
//! // Intelligent coordination never does worse than grid-only (paper Fig. 4).
//! assert!(hybrid.breakdown.ufc() >= grid.breakdown.ufc() - 1e-3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod centralized;
pub mod correction;
pub mod engine;
mod error;
pub mod generic;
mod pool;
pub mod repair;
pub mod right_sizing;
mod settings;
mod solver;
/// ADM-G iterate state and its checkpoint byte codec.
pub mod state;
mod strategy;
pub mod subproblems;
pub mod telemetry;
mod workspace;

pub use engine::{
    BlockDescriptor, BlockKind, BlockOwner, BlockResiduals, BlockSchedule, DriveOutcome,
    HistoryRecorder, IterationEvent, IterationObserver, IterationRecord, Transport,
};
pub use error::CoreError;
pub use pool::WorkerPool;
pub use settings::AdmgSettings;
pub use solver::{AdmgSolution, AdmgSolver};
pub use state::AdmgState;
pub use strategy::{solve_all_strategies, Strategy, StrategyComparison};
pub use telemetry::{
    FaultCounters, JsonlSink, ObserverChain, Phase, RunTelemetry, SolverCounters,
    TelemetryCollector, TrafficCounters,
};
pub use workspace::{AColQp, LambdaQp};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
