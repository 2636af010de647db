//! `rcr-serve` — a QoS-class-aware solver service over the RCR stack.
//!
//! The paper's subject is *diverse QoS*: URLLC latency floors, eMBB
//! throughput, mMTC scale. This crate turns the offline solvers into a
//! long-running service whose **own scheduling honors the same classes
//! it solves for**:
//!
//! ```text
//!            SolveRequest {class, deadline, problem}
//!                           │ admission (bounded lanes — backpressure)
//!          ┌────────────────┼────────────────┐
//!          ▼                ▼                ▼
//!    URLLC lane        eMBB lane        mMTC lane
//!    EDF, batch=1      EDF, coalesce    EDF, coalesce
//!          └────────────────┼────────────────┘
//!                           │ dynamic batcher (priority + deadlines)
//!                           ▼
//!              ordered fan-out on WorkerPool
//!                           │
//!                           ▼
//!            SolveResponse {outcome, queue/solve timing}
//! ```
//!
//! * [`request`] — the typed request/response model ([`SolveRequest`],
//!   [`SolveResponse`], [`Outcome`]): every request ends as exactly one
//!   of *solved*, *rejected*, *expired*, or *failed*.
//! * [`queue`] — per-class priority lanes, earliest-deadline-first,
//!   bounded depth with explicit rejection instead of silent buffering.
//! * [`service`] — the batcher thread, the persistent worker pool, the
//!   in-process [`Client`], graceful draining shutdown.
//! * [`wire`] — line-delimited JSON over TCP (`std::net`, serde-free)
//!   plus the shared codec.
//! * [`metrics`] — per-class outcome counters and fixed-bin latency
//!   histograms ([`MetricsSnapshot`]).
//! * [`reuse`] — opt-in exact-match solution reuse: a sharded
//!   deterministic LRU over bit-exact problem digests, so repeated
//!   identical requests skip the solver without perturbing determinism.
//!
//! Determinism carries over from the rest of the workspace: for a fixed
//! request trace, solver outputs are bit-identical at every worker
//! count — batching and scheduling affect only timing.
//!
//! # Example
//!
//! ```
//! use rcr_serve::{Payload, ScenarioSpec, Service, ServiceConfig, SolveRequest, SolverKind};
//! use rcr_serve::Outcome;
//! use rcr_qos::QosClass;
//! use std::time::Duration;
//!
//! let service = Service::spawn(ServiceConfig::default()).unwrap();
//! let response = service
//!     .client()
//!     .solve(SolveRequest {
//!         id: 1,
//!         class: QosClass::Urllc,
//!         deadline: Duration::from_secs(5),
//!         solver: SolverKind::Greedy,
//!         payload: Payload::Scenario(ScenarioSpec { users: 3, resource_blocks: 6, seed: 7 }),
//!     })
//!     .unwrap();
//! assert!(matches!(response.outcome, Outcome::Solved(_)));
//! let metrics = service.shutdown();
//! assert_eq!(metrics.class(QosClass::Urllc).solved, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod queue;
pub mod request;
pub mod reuse;
pub mod service;
pub mod wire;

pub use metrics::{ClassCounters, LatencySummary, MetricsSnapshot};
pub use queue::{
    AdmissionQueue, EnqueueRejection, LanePolicy, PolicyError, QueueDiscipline, QueuePolicy,
};
pub use request::{
    DeadlineMissed, ExpiryPhase, Outcome, Payload, RejectReason, ScenarioSpec, SolveRequest,
    SolveResponse, Solved, SolverKind,
};
pub use reuse::{ReuseConfig, ReuseCounters};
pub use service::{Client, Service, ServiceConfig, Ticket};
pub use wire::TcpFrontend;

use std::fmt;

/// Errors surfaced by the service handles.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The response channel closed without a response — the service was
    /// torn down non-gracefully while the request was pending.
    ChannelClosed,
    /// The service configuration carried an invalid queue policy, caught
    /// at [`Service::spawn`] before any thread was started.
    InvalidPolicy(PolicyError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::ChannelClosed => {
                write!(f, "service dropped the request without responding")
            }
            ServeError::InvalidPolicy(e) => write!(f, "invalid queue policy: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::ChannelClosed => None,
            ServeError::InvalidPolicy(e) => Some(e),
        }
    }
}

impl From<PolicyError> for ServeError {
    fn from(e: PolicyError) -> Self {
        ServeError::InvalidPolicy(e)
    }
}
