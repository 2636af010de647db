//! `rcr-scenarios` — declarative scenarios, deterministic traces, and a
//! closed-loop load harness for `rcr-serve`.
//!
//! The paper's experiments need *workloads*, not just solvers: cell
//! populations with a QoS-class mix, fading channels, bursty and diurnal
//! arrival processes, offered at controlled load against the serving
//! stack. This crate makes those workloads declarative and replayable:
//!
//! ```text
//!   ScenarioManifest (JSON)          ──  manifest
//!        │ seed
//!        ▼
//!   Arrivals → TraceGenerator        ──  arrivals, trace
//!        │ lazy stream of SolveRequests  (+ 128-bit trace digest)
//!        ▼
//!   LoadGenerator → rcr_serve::Service   ──  load
//!        │ open- or closed-loop
//!        ▼
//!   ScenarioReport (+ reconcile)     ──  report
//!        │
//!        ▼
//!   ScenarioExpectation checks       ──  expect
//! ```
//!
//! Everything up to the load loop is **clock-free and bit-deterministic**:
//! a `(manifest, seed)` pair pins the exact request stream, recorded as a
//! 128-bit digest in a [`RunManifest`] so replays are checkable. Only the
//! load harness touches the wall clock — it has to, to offer load at a
//! real rate — and the lint wall-clock rule is scoped accordingly.
//!
//! [`sim`] adds a third leg: a virtual-time discrete-event simulator over
//! the *same* admission queue the live service uses, for scheduling
//! experiments (EDF vs FIFO) that must not depend on machine speed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod expect;
pub mod load;
pub mod manifest;
pub mod report;
pub mod sim;
pub mod trace;

pub use arrivals::Arrivals;
pub use expect::{DisciplineExpectation, OverloadExpectation};
pub use load::{run_scenario, LoadMode};
pub use manifest::{ArrivalProcess, ClassMix, FadingModel, RunManifest, ScenarioManifest};
pub use report::{ClassReport, ReportBuilder, ScenarioReport};
pub use sim::{simulate, SimItem, SimOutcome};
pub use trace::{trace_digest, TimedRequest, TraceGenerator};
