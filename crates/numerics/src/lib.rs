//! Numerically careful primitives and floating-point issue detection.
//!
//! This crate is the reproduction of the paper's "M-GNU-O" numerical kernel
//! (§III–IV): a set of primitives whose whole point is *how* they are
//! computed, not just what they compute:
//!
//! * [`summation`] — compensated (Kahan/Neumaier) and pairwise summation,
//!   with the naive left-fold kept around as the instructive baseline.
//! * [`stable`] — log-sum-exp, softmax and the **fused** log-softmax whose
//!   naive `log(softmax(x))` composition the paper singles out as a source
//!   of instability ("as the softmax output approaches 0, the log output
//!   approaches infinity", §V).
//! * [`approx`] — the truncation-error demonstrations of Eqs. 3–4: Taylor
//!   polynomial approximation of `exp` and composite trapezoidal
//!   integration, each with an a-priori error model to compare against.
//! * [`float`] — the [`float::FloatAudit`] scanner used by the E3
//!   conformance suite to classify numerical defects.
//!
//! # Example
//!
//! ```
//! use rcr_numerics::stable::log_softmax;
//!
//! // Extreme logits overflow a naive log(softmax(x)); the fused form is exact.
//! let out = log_softmax(&[1000.0, 0.0]);
//! assert!(out[0] > -1e-6 && out[1] <= -999.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod float;
pub mod stable;
pub mod summation;

mod error;

pub use error::NumericsError;
