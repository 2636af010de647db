//! The workspace's one JSON codec and one 128-bit digest, std-only and
//! dependency-free so any crate can use them without pulling in the
//! solver stack.
//!
//! * [`json`] — the serve wire protocol, scenario manifests, the
//!   `rcr-lint` cache, baseline and SARIF output, and the bench gate.
//! * [`Digest128`] — the scenario trace digest (the replay contract)
//!   and the serve engine's solution-reuse keys.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digest;
pub mod json;

pub use digest::Digest128;
