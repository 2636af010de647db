//! Dense linear algebra kernels used throughout the RCR framework.
//!
//! This crate provides a small, dependency-free dense linear algebra toolkit
//! sized for the optimization problems that appear in the paper's relaxation
//! chain (QP → QCQP → SDP, Eqs. 7–10) and in neural-network bound
//! propagation:
//!
//! * [`Matrix`] — a row-major dense matrix of `f64` with the usual
//!   arithmetic, [`Matrix::matmul`], transposition and norms.
//! * [`LuDecomposition`] — LU with partial pivoting for square solves.
//! * [`Cholesky`] — factorization of symmetric positive definite
//!   matrices; the cheapest positive-definiteness test used by the convex
//!   solvers.
//! * [`QrDecomposition`] — Householder QR and least-squares solves.
//! * [`SymmetricEigen`] — eigendecomposition of symmetric matrices
//!   (Householder tridiagonalization + implicit QL at every size).
//! * [`Matrix::psd_projection`] and [`Matrix::project_psd_in_place`] —
//!   projection onto the positive semidefinite cone, the SDP solver's
//!   Z-update. The same tridiagonal reduction, then only the smaller side
//!   of the spectrum when it holds at most a third of the eigenvalues
//!   (bisection and inverse iteration), or every eigenpair otherwise.
//!
//! # Example
//!
//! ```
//! use rcr_linalg::Matrix;
//!
//! # fn main() -> Result<(), rcr_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let b = vec![1.0, 2.0];
//! let x = a.cholesky()?.solve(&b)?;
//! let r = a.matvec(&x)?;
//! assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cholesky;
mod eigen;
mod error;
mod lu;
mod matrix;
mod qr;
pub mod vector;

pub use cholesky::Cholesky;
pub use eigen::SymmetricEigen;
pub use error::LinalgError;
pub use lu::LuDecomposition;
pub use matrix::Matrix;
pub use qr::QrDecomposition;
