//! The closed-loop load harness: offer a generated trace to a live
//! in-process [`rcr_serve::Service`] and account for every response.
//!
//! Two offering disciplines:
//!
//! * [`LoadMode::Open`] — replay the trace's own virtual timeline
//!   against the wall clock, scaled by `speed` (2.0 = the same scenario
//!   offered twice as fast). Arrivals do not wait for responses, so
//!   overload manifests as queueing, shedding, and expiry — exactly what
//!   the admission lanes are for.
//! * [`LoadMode::Closed`] — ignore the timeline and keep at most
//!   `concurrency` requests in flight, submitting the next as the oldest
//!   completes. The service runs back-to-back, so the achieved rate *is*
//!   its capacity — which is how expectation tests calibrate "2×
//!   overload" without machine-specific constants.
//!
//! This module is the one deliberately wall-clock-touching part of the
//! crate (generation stays virtual-time and clock-free); every clock
//! read funnels through `wall_now`, which carries the lint waiver.

use crate::manifest::ScenarioManifest;
use crate::report::{ReportBuilder, ScenarioReport};
use crate::trace::TraceGenerator;
use rcr_qos::QosClass;
use rcr_serve::{Service, ServiceConfig, Ticket};
use std::collections::VecDeque;
use std::thread;
use std::time::{Duration, Instant};

/// How the harness offers the trace to the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Open loop: submit on the trace's virtual timeline, compressed by
    /// `speed` (1.0 = real time; must be positive).
    Open {
        /// Timeline compression factor.
        speed: f64,
    },
    /// Closed loop: at most `concurrency` requests in flight.
    Closed {
        /// In-flight window (must be at least 1).
        concurrency: usize,
    },
}

/// The single sanctioned wall-clock read in this crate: load offering is
/// inherently a wall-clock activity, unlike trace generation.
fn wall_now() -> Instant {
    // rcr-lint: allow(no-wall-clock-in-solvers, reason = "the load harness paces real offered load; generation stays virtual-time")
    Instant::now()
}

/// Runs `manifest`'s trace against a freshly spawned service and returns
/// the sealed report (the service is drained and shut down before the
/// snapshot is taken, so harness and service books are comparable).
///
/// # Errors
/// Invalid manifest or mode parameters, service spawn failure, or a
/// response channel closing mid-run.
pub fn run_scenario(
    manifest: &ScenarioManifest,
    config: ServiceConfig,
    mode: LoadMode,
) -> Result<ScenarioReport, String> {
    match mode {
        LoadMode::Open { speed } => {
            if !(speed > 0.0) || !speed.is_finite() {
                return Err(format!(
                    "open-loop speed must be finite and positive, got {speed}"
                ));
            }
        }
        LoadMode::Closed { concurrency } => {
            if concurrency == 0 {
                return Err("closed-loop concurrency must be at least 1".into());
            }
        }
    }
    let trace = TraceGenerator::new(manifest)?;
    let service = Service::spawn(config).map_err(|e| e.to_string())?;
    let client = service.client();
    let mut builder = ReportBuilder::new();
    let settle = |builder: &mut ReportBuilder, class: QosClass, ticket: Ticket| {
        let resp = ticket.wait().map_err(|e| e.to_string())?;
        builder.record(
            class,
            &resp.outcome,
            resp.queue_time.saturating_add(resp.solve_time),
        );
        Ok::<(), String>(())
    };
    let start = wall_now();
    match mode {
        LoadMode::Open { speed } => {
            // Submit on schedule; settle everything afterwards. A ticket
            // is just a response-channel handle, so pending responses —
            // not requests — are what accumulates here.
            let mut pending: Vec<(QosClass, Ticket)> = Vec::new();
            let mut backlogged = 0u64;
            for t in trace {
                // A schedule offset the clock can't represent (absurd
                // speed, or a trace hour beyond the Instant range)
                // degrades to "submit immediately" instead of panicking.
                let offset = Duration::try_from_secs_f64(t.at_us as f64 / (speed * 1e6))
                    .unwrap_or(Duration::ZERO);
                let target = start.checked_add(offset).unwrap_or(start);
                let now = wall_now();
                match target.checked_duration_since(now) {
                    Some(ahead) if !ahead.is_zero() => thread::sleep(ahead),
                    // Behind schedule → submit immediately and catch up,
                    // yielding the core once in a while: a producer that
                    // busy-loops through a backlog starves the batcher on
                    // small machines, so an unyielding loop measures the
                    // host's core count rather than the admission policy.
                    // Every 8th submission keeps the pressure a firehose
                    // while letting the service actually run.
                    _ => {
                        backlogged += 1;
                        if backlogged.is_multiple_of(8) {
                            thread::yield_now();
                        }
                    }
                }
                pending.push((t.request.class, client.submit(t.request)));
            }
            for (class, ticket) in pending {
                settle(&mut builder, class, ticket)?;
            }
        }
        LoadMode::Closed { concurrency } => {
            let mut inflight: VecDeque<(QosClass, Ticket)> = VecDeque::new();
            for t in trace {
                if inflight.len() == concurrency {
                    if let Some((class, ticket)) = inflight.pop_front() {
                        settle(&mut builder, class, ticket)?;
                    }
                }
                inflight.push_back((t.request.class, client.submit(t.request)));
            }
            for (class, ticket) in inflight {
                settle(&mut builder, class, ticket)?;
            }
        }
    }
    let elapsed = wall_now().saturating_duration_since(start);
    let snapshot = service.shutdown();
    Ok(builder.finish(elapsed, snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{ArrivalProcess, ClassMix, FadingModel};
    use rcr_serve::SolverKind;

    fn manifest(requests: u64) -> ScenarioManifest {
        ScenarioManifest {
            name: "load-unit".into(),
            seed: 5,
            requests,
            cells: 2,
            population: 500,
            users_per_problem: 3,
            resource_blocks: 6,
            class_mix: ClassMix {
                urllc: 0.2,
                embb: 0.3,
                mmtc: 0.5,
            },
            fading: FadingModel::BlockRayleigh {
                coherence_us: 10_000,
            },
            arrivals: ArrivalProcess::Poisson {
                rate_per_sec: 100_000.0,
            },
            deadlines_us: [1_000_000, 1_000_000, 1_000_000],
            solver: SolverKind::Greedy,
        }
    }

    #[test]
    fn rejects_degenerate_modes() {
        let m = manifest(10);
        assert!(run_scenario(&m, ServiceConfig::default(), LoadMode::Open { speed: 0.0 }).is_err());
        assert!(run_scenario(
            &m,
            ServiceConfig::default(),
            LoadMode::Closed { concurrency: 0 }
        )
        .is_err());
    }

    #[test]
    fn closed_loop_accounts_for_every_request() {
        let report = run_scenario(
            &manifest(400),
            ServiceConfig::default(),
            LoadMode::Closed { concurrency: 8 },
        )
        .expect("run succeeds");
        assert_eq!(report.offered(), 400);
        report.reconcile(None).expect("books balance");
        // Generous deadlines + closed loop: everything solves.
        for class in QosClass::ALL {
            let c = report.class(class);
            assert_eq!(c.solved, c.offered, "{} shed under no load", class.name());
        }
    }

    #[test]
    fn open_loop_survives_unrepresentable_schedule_offsets() {
        // A vanishingly small (but valid) replay speed pushes every
        // schedule offset past what Duration can represent; the
        // try_from_secs_f64 + checked_add pacing must degrade to
        // "submit immediately" rather than panic in Duration::from_secs_f64.
        let report = run_scenario(
            &manifest(50),
            ServiceConfig::default(),
            LoadMode::Open { speed: 1e-300 },
        )
        .expect("run succeeds");
        assert_eq!(report.offered(), 50);
        report.reconcile(None).expect("books balance");
    }

    #[test]
    fn open_loop_replays_the_trace_timeline() {
        // 400 requests at 100k/s ≈ 4ms of virtual time; at speed 0.5 the
        // submission window alone must take at least ~8ms of wall time.
        let report = run_scenario(
            &manifest(400),
            ServiceConfig::default(),
            LoadMode::Open { speed: 0.5 },
        )
        .expect("run succeeds");
        assert_eq!(report.offered(), 400);
        report.reconcile(None).expect("books balance");
        assert!(
            report.elapsed >= Duration::from_millis(6),
            "open loop finished in {:?} — pacing was ignored",
            report.elapsed
        );
    }
}
