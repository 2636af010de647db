//! 5G QoS resource-management problems — the paper's motivating
//! application domain (§I).
//!
//! "Examples include: Radio Resource Allocation (RRA) (whose aim is to
//! maximize the spectral efficiency, subject to certain performance
//! guarantees), Multi-Radio Access Technology (RAT) handling for
//! multi-connectivity … The involved optimization formulations are, in
//! essence, mixed integer nonlinear programming (MINLP) problems … an RRA
//! problem may be formulated as a problem of optimally assigning
//! frequency-time blocks (integer variables) to a number of served
//! connections while simultaneously determining the appropriate transmit
//! powers (continuous variables)."
//!
//! * [`channel`] — a Rayleigh-faded downlink channel generator with
//!   distance-based path loss.
//! * [`power`] — the continuous inner problem: weighted water-filling
//!   power allocation with per-user minimum-rate constraints (dual
//!   subgradient on the rate multipliers, an exact water level for the
//!   power multiplier, and a certified early exit when the rates are
//!   unreachable).
//! * [`rra`] — the RRA MINLP: binary resource-block assignment × power
//!   allocation, implementing [`rcr_minlp::RelaxableProblem`] for exact
//!   branch-and-bound, plus a PSO metaheuristic adapter and a greedy
//!   baseline.
//! * [`robust`] — the robust convex relaxation of the RRA assignment
//!   (uncertainty margin from the gain-profile Gram spectrum, box QP,
//!   round + repair), solved by one entry point, `solve_robust`.
//! * [`workload`] — scenario generators with eMBB/URLLC/mMTC QoS classes.
//!
//! # Example
//!
//! ```
//! use rcr_qos::workload::{Scenario, ScenarioConfig};
//! use rcr_qos::rra::solve_exact;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = Scenario::generate(&ScenarioConfig { users: 3, resource_blocks: 6, ..Default::default() }, 7)?;
//! let solution = solve_exact(&scenario.rra, &Default::default())?;
//! assert!(solution.total_rate_bps > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod channel;
pub mod power;
pub mod robust;
pub mod rra;
pub mod scheduler;
pub mod workload;

mod error;

pub use error::QosError;
pub use workload::QosClass;
