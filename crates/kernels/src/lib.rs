#![forbid(unsafe_code)]
//! # rcr-kernels
//!
//! Allocation-free, cache/register-blocked f64 compute kernels shared by the
//! solver crates, plus the reusable [`Scratch`] workspace that lets the
//! IBP/CROWN/BnB hot paths propagate bounds through pre-sized buffers instead
//! of allocating fresh `Vec`s per layer per node.
//!
//! ## Bit-identity contract
//!
//! Every kernel in this crate preserves the *per-output-element accumulation
//! order* of the naive loops it replaces: each output element is produced by a
//! single sequential chain of correctly-rounded f64 operations in increasing
//! `k` order, with the same `a == 0.0` skip behaviour as the original code.
//! Blocking only changes *which* elements are in flight concurrently (register
//! tiles, row quads), never the order of additions feeding one element, so
//! results are byte-identical to the naive reference — including signed-zero
//! and `0.0 * inf = NaN` edge cases. The contract is pinned by the proptest
//! suite in `tests/proptests.rs` and by fixed-seed equivalence tests in the
//! consumer crates. The symmetric eigensolver has no naive loop to match and
//! is pinned bit for bit to the strided-layout solver it replaced; the PSD
//! projection's partial route is pinned by a tolerance oracle (see
//! [`factor`]).
//!
//! ## Allocation discipline
//!
//! The crate is covered by the `no-alloc-in-kernel` rcr-lint rule: no
//! allocating construct may appear here except behind an explicit allow pragma
//! with a reason. Kernels write into caller-provided slices; the only
//! allocation sites live in [`Scratch`]'s cold checkout path.

pub mod factor;
pub mod gemm;
pub mod scratch;

pub use factor::{
    cholesky, cholesky_unblocked, cholesky_with_block, eigh, psd_projection, qr, qr_thin_q,
    FACTOR_NB, PSD_PARTIAL_DIVISOR,
};
pub use gemm::{
    axpy, dot, gemm, gemm_naive, gemv, gemv_bias, gemv_t, mul_into, norm_inf_diff, MR, NR,
};
pub use scratch::Scratch;
