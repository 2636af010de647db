//! Dense linear algebra kernels used throughout the RCR framework.
//!
//! This crate provides a small, dependency-free dense linear algebra toolkit
//! sized for the optimization problems that appear in the paper's relaxation
//! chain (QP → QCQP → SDP, Eqs. 7–10) and in neural-network bound
//! propagation:
//!
//! * [`Matrix`] — a row-major dense matrix of `f64` with the usual
//!   arithmetic, [`Matrix::matmul`], transposition and norms.
//! * [`LuDecomposition`] — LU with partial pivoting: solves, determinants,
//!   inverses.
//! * [`Cholesky`] and [`Ldlt`] — factorizations of symmetric (positive
//!   definite / indefinite) matrices; the cheapest positive-definiteness
//!   test used by the convex solvers.
//! * [`QrDecomposition`] — Householder QR and least-squares solves.
//! * [`SymmetricEigen`] — eigendecomposition of symmetric matrices
//!   (blocked tridiagonalization + implicit QL at every size), the
//!   workhorse behind [`Matrix::psd_projection`] (projection onto the
//!   positive semidefinite cone) needed by the SDP solver.
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

pub use cholesky::{Cholesky, Ldlt};
pub use eigen::SymmetricEigen;
pub use error::LinalgError;
pub use lu::LuDecomposition;
pub use matrix::Matrix;
pub use qr::QrDecomposition;
