//! Convex optimization solvers for the RCR relaxation chain.
//!
//! Implements every solver class the paper's §IV-C walks through:
//!
//! * [`qp`] — an OSQP-style ADMM solver for quadratic programs with
//!   two-sided linear constraints `l ≤ Ax ≤ u`.
//! * [`qcqp`] — a log-barrier interior-point method for the convex QCQP of
//!   Eq. 7 (quadratic objective, quadratic inequality constraints, linear
//!   equalities), with an explicit convexity gate: indefinite `P_i` are
//!   rejected, mirroring the paper's "two envelopes" classification.
//! * [`sdp`] — a conic-ADMM semidefinite programming solver
//!   (`min ⟨C,X⟩ s.t. A(X)=b, X ⪰ 0`) built on eigenvalue PSD projection.
//! * [`rankmin`] — the paper's Eq. 8 → Eq. 9 → Eq. 10 pipeline: the
//!   nonconvex Rank Minimization Problem relaxed to Trace Minimization and
//!   solved as an SDP.
//! * [`warm`] — a warm-start and solution-reuse cache for the [`qp`]
//!   solver: fingerprints instances, keeps a bounded deterministic LRU
//!   of prior solutions and KKT factorizations, and re-solves drifting
//!   instances in a handful of iterations.
//!
//! # Example
//!
//! ```
//! use rcr_convex::qp::{QpProblem, QpSettings};
//! use rcr_linalg::Matrix;
//!
//! # fn main() -> Result<(), rcr_convex::ConvexError> {
//! // minimize ½xᵀx - [1,1]ᵀx  subject to 0 ≤ x ≤ 0.5
//! let p = Matrix::identity(2);
//! let a = Matrix::identity(2);
//! let prob = QpProblem::new(p, vec![-1.0, -1.0], a, vec![0.0, 0.0], vec![0.5, 0.5])?;
//! let sol = prob.solve(&QpSettings::default())?;
//! assert!((sol.x[0] - 0.5).abs() < 1e-4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod qcqp;
pub mod qp;
pub mod rankmin;
pub mod sdp;
pub mod warm;

pub use error::ConvexError;
