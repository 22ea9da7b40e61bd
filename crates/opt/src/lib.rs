//! Convex-optimization toolkit for the UFC reproduction.
//!
//! The paper's distributed ADM-G algorithm repeatedly solves four families of
//! convex sub-problems (per-front-end simplex-constrained QPs, per-datacenter
//! box/capped-simplex QPs, and scalar convex minimizations), and its
//! verification path needs a solver for the fully assembled problem. Because
//! mature convex-programming crates are not available, this crate implements
//! the required machinery from scratch on top of [`ufc_linalg`]:
//!
//! * [`projection`] — exact Euclidean projections onto the simplex, the
//!   capped simplex, boxes and the nonnegative orthant,
//! * [`QuadObjective`] — quadratic objectives `½xᵀQx + cᵀx` with dense or
//!   diagonal-plus-rank-one Hessians (the two forms that arise in the
//!   paper's λ- and a-sub-problems),
//! * [`Fista`] — accelerated projected-gradient for smooth convex objectives
//!   over projectable sets (fixed-step for quadratics, backtracking for
//!   general [`SmoothObjective`]s with barriers),
//! * [`ActiveSetQp`] — an exact dense active-set solver for small convex QPs
//!   with equality and inequality constraints,
//! * [`AdmmQp`] — an OSQP-style ADMM solver for larger QPs in the form
//!   `min ½xᵀPx + qᵀx  s.t.  l ≤ Ax ≤ u`,
//! * [`scalar`] — golden-section / derivative-bisection minimization of
//!   one-dimensional convex functions,
//! * [`kkt`] — KKT residual checkers used to validate solutions in tests.
//!
//! # Example: projecting a routing vector onto the load-balance simplex
//!
//! ```
//! use ufc_opt::projection::project_simplex;
//!
//! let y = project_simplex(&[0.8, 0.3, -0.2], 1.0);
//! assert!((y.iter().sum::<f64>() - 1.0).abs() < 1e-12);
//! assert!(y.iter().all(|&v| v >= 0.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod active_set;
mod admm_qp;
mod error;
mod fista;
pub mod kkt;
pub mod projection;
mod quadratic;
pub mod scalar;
mod smooth;

pub use active_set::{ActiveSetQp, QpSolution};
pub use admm_qp::{AdmmQp, AdmmQpSettings, AdmmQpSolution, AdmmWorkspace};
pub use error::OptError;
pub use fista::{Fista, FistaResult};
pub use quadratic::QuadObjective;
pub use smooth::SmoothObjective;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, OptError>;
