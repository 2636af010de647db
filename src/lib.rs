//! Umbrella crate re-exporting the whole RCR workspace.
//!
//! See the README for an architecture overview. Most users should depend
//! on the individual crates; this facade exists for the examples and
//! integration tests.
//!
//! # Example
//!
//! The relaxation chain in three lines: a nonconvex rank objective,
//! relaxed to a trace objective, solved as an SDP (the paper's
//! Eqs. 8–10):
//!
//! ```
//! use rcr::convex::rankmin::{synth_low_rank_plus_diag, trace_min_decompose};
//! use rcr::convex::sdp::SdpSettings;
//! use rcr::linalg::Matrix;
//!
//! # fn main() -> Result<(), rcr::convex::ConvexError> {
//! let v = Matrix::from_rows(&[&[1.0], &[2.0], &[-1.0]]).expect("literal");
//! let r_s = synth_low_rank_plus_diag(&v, &[0.5, 0.3, 0.4])?;
//! let result = trace_min_decompose(&r_s, &SdpSettings::default())?;
//! assert_eq!(result.rank, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use rcr_codec as codec;
pub use rcr_convex as convex;
pub use rcr_core as core;
pub use rcr_linalg as linalg;
pub use rcr_minlp as minlp;
pub use rcr_nn as nn;
pub use rcr_numerics as numerics;
pub use rcr_pso as pso;
pub use rcr_qos as qos;
pub use rcr_runtime as runtime;
pub use rcr_scenarios as scenarios;
pub use rcr_serve as serve;
pub use rcr_signal as signal;
pub use rcr_verify as verify;
