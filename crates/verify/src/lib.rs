//! Layer-wise convex relaxation robustness verification for ReLU
//! networks — the paper's §II-B-2.
//!
//! "There are two aspects of relaxation: (1) convex relaxations
//! implemented at each layer of the MSY3I, and (2) the relaxation schema
//! verifier implemented to ascertain robustness … both layer-wise and
//! overall. These are the key elements of the RCR framework, which has a
//! counterpoised objective of the tightest possible relaxation."
//!
//! The crate provides the full verifier spectrum the paper describes:
//!
//! * [`net::AffineReluNet`] — the framework-agnostic network form the
//!   verifiers consume (extractable from trained [`rcr_nn`] MLPs).
//! * [`bounds`] — **interval bound propagation** (IBP), the loosest and
//!   cheapest layer-wise relaxation.
//! * [`crown`] — backward **linear relaxation** with the ReLU triangle
//!   envelope (CROWN-style), the tightened relaxation of Anderson et al.
//!   / Salman et al. that the paper cites.
//! * [`exact`] — a **complete** verifier: input-domain branch-and-bound
//!   with CROWN bounding and concrete falsification, the paper's
//!   "exact (complete)" arm; exponential worst case, exact answers.
//!
//! # Example
//!
//! ```
//! use rcr_linalg::Matrix;
//! use rcr_verify::net::AffineReluNet;
//! use rcr_verify::bounds::interval_bounds;
//!
//! # fn main() -> Result<(), rcr_verify::VerifyError> {
//! // y = ReLU(x) for a single neuron; input in [-1, 1] → output in [0, 1].
//! let net = AffineReluNet::new(vec![
//!     (Matrix::identity(1), vec![0.0]),
//!     (Matrix::identity(1), vec![0.0]),
//! ])?;
//! let b = interval_bounds(&net, &[(-1.0, 1.0)])?;
//! assert_eq!(b.output()[0], (0.0, 1.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod crown;
pub mod exact;
pub mod net;

mod error;

pub use error::VerifyError;
/// Re-export of the workspace scratch pool so callers of the
/// `*_scratch` verifier entry points need not depend on `rcr-kernels`
/// directly.
pub use rcr_kernels::Scratch;

use std::cell::RefCell;

thread_local! {
    /// Per-thread verifier scratch pool. Worker threads of the parallel
    /// entry points (and the branch-and-bound node loop) each warm their
    /// own pool once and then propagate bounds allocation-free.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Runs `f` with this thread's scratch pool. Callees must take the pool as
/// a parameter rather than re-entering `with_scratch` (the `RefCell` is
/// already mutably borrowed for the duration of `f`).
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}
