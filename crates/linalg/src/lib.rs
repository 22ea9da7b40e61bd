//! Dense linear-algebra kernel for the UFC reproduction.
//!
//! The UFC maximization problem and its ADM-G solver only ever touch small,
//! dense systems (the Gaussian back-substitution matrix, per-iteration KKT
//! systems inside the QP sub-solvers, and the centralized reference QP), so
//! this crate deliberately implements a compact, dependency-free dense
//! toolkit rather than pulling in a large external library:
//!
//! * [`Matrix`] — row-major dense matrix with the usual algebra,
//! * [`Cholesky`] — `A = L Lᵀ` factorization for symmetric positive-definite
//!   systems,
//! * [`Ldlt`] — `A = L D Lᵀ` factorization for symmetric quasi-definite
//!   (KKT-style) systems,
//! * [`vec_ops`] — BLAS-1 style helpers on `&[f64]` slices.
//!
//! # Example
//!
//! ```
//! use ufc_linalg::{Matrix, Cholesky};
//!
//! # fn main() -> Result<(), ufc_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let chol = Cholesky::factor(&a)?;
//! let x = chol.solve(&[1.0, 2.0])?;
//! let r = a.matvec(&x)?;
//! assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cholesky;
mod error;
mod ldlt;
mod matrix;
pub mod vec_ops;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use ldlt::Ldlt;
pub use matrix::Matrix;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
