//! The long-running solver service: admission → lanes → dynamic batcher
//! → worker-pool fan-out → responses.
//!
//! One batcher thread owns the [`AdmissionQueue`]; submitters (the
//! in-process [`Client`], or TCP connection threads in [`crate::wire`])
//! enqueue under a mutex and wake the batcher through a condvar. The
//! batcher sweeps expired entries, drains the next ready batch, and fans
//! it across a persistent [`rcr_runtime::WorkerPool`] via the same
//! [`rcr_runtime::BatchSolve`] seam the offline batch APIs use.
//!
//! **Determinism.** A request's solution depends only on its own problem,
//! solver, and seed — never on batch composition, lane timing, or worker
//! count. Per-request PSO seeds derive from `seed_stream(base, id)`, so a
//! fixed request trace produces bit-identical solver outputs at any
//! `workers` setting; only timing metrics vary.
//!
//! **Deadline safety.** Expiry is checked at enqueue, at every batcher
//! wakeup, and again after the solve completes; a request whose solve
//! finished late is answered `Expired`, so a `Solved` response always
//! means solved *within* its deadline.

use crate::metrics::{Metrics, MetricsSnapshot};
use crate::queue::{AdmissionQueue, EnqueueRejection, QueuePolicy, Queued};
use crate::request::{
    DeadlineMissed, ExpiryPhase, Outcome, Payload, RejectReason, SolveRequest, SolveResponse,
    Solved, SolverKind,
};
use crate::reuse::{self, ReuseCache, ReuseConfig};
use crate::ServeError;
use rcr_minlp::BnbSettings;
use rcr_pso::swarm::PsoSettings;
use rcr_qos::robust;
use rcr_qos::rra::{self, RraProblem, RraSolution};
use rcr_qos::{QosClass, QosError};
use rcr_runtime::{seed_stream, BatchSolve, WorkerPool};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads for batch fan-out: `0` = auto (`RCR_WORKERS`, with
    /// `auto` resolving to the machine's parallelism, else serial).
    pub workers: usize,
    /// Admission and batching policy per class lane.
    pub queue: QueuePolicy,
    /// Branch-and-bound settings for [`SolverKind::Exact`] requests.
    pub bnb: BnbSettings,
    /// PSO settings for [`SolverKind::Pso`] requests. The configured
    /// `seed` is a *base*: each request's swarm seed is derived from it
    /// and the request id, so results are per-request deterministic and
    /// independent of batching.
    pub pso: PsoSettings,
    /// Exact-match solution reuse (disabled by default). See
    /// [`crate::reuse`] for the determinism contract.
    pub reuse: ReuseConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue: QueuePolicy::default(),
            bnb: BnbSettings::default(),
            pso: PsoSettings {
                swarm_size: 12,
                max_iter: 40,
                ..Default::default()
            },
            reuse: ReuseConfig::default(),
        }
    }
}

/// Solver dispatch shared by every batch; `BatchSolve::solve_item` is the
/// unit the pool fans out.
#[derive(Debug)]
struct Engine {
    bnb: BnbSettings,
    pso: PsoSettings,
    reuse: Option<ReuseCache>,
}

/// One item of a drained batch, ready for the pool.
#[derive(Debug)]
struct WorkItem {
    problem: RraProblem,
    solver: SolverKind,
    request_id: u64,
}

impl Engine {
    fn solve_one(&self, item: &WorkItem) -> Result<RraSolution, QosError> {
        if let Some(cache) = &self.reuse {
            if reuse::cacheable(item.solver) {
                if let Some(hit) = cache.get(item.solver, &item.problem) {
                    // Bit-identical to a fresh solve: the cache only
                    // stores deterministic solver kinds keyed bit-exact.
                    return Ok(hit);
                }
            } else {
                cache.count_bypass();
            }
        }
        let result = self.dispatch(item);
        if let (Some(cache), Ok(solution)) = (&self.reuse, &result) {
            if reuse::cacheable(item.solver) {
                cache.put(item.solver, &item.problem, solution);
            }
        }
        result
    }

    fn dispatch(&self, item: &WorkItem) -> Result<RraSolution, QosError> {
        match item.solver {
            SolverKind::Greedy => rra::solve_greedy(&item.problem),
            SolverKind::Exact => rra::solve_exact(&item.problem, &self.bnb),
            SolverKind::Pso => {
                // Per-request stream off the configured base seed: the
                // same request solves identically in any batch.
                let settings = PsoSettings {
                    seed: seed_stream(self.pso.seed, item.request_id),
                    // Item-level parallelism only: nested swarm fan-out
                    // would oversubscribe the pool.
                    workers: 1,
                    ..self.pso
                };
                rra::solve_pso(&item.problem, &settings)
            }
            SolverKind::Robust => robust::solve_robust(&item.problem),
        }
    }
}

impl BatchSolve for Engine {
    type Item = WorkItem;
    type Output = (Result<RraSolution, QosError>, Duration);

    fn solve_item(&self, _index: usize, item: &WorkItem) -> Self::Output {
        // rcr-lint: allow(determinism-taint, reason = "per-item wall time is deadline telemetry; the solution payload in .0 is clock-free")
        let start = Instant::now();
        let result = self.solve_one(item);
        (result, start.elapsed())
    }
}

/// A queued job: everything needed to answer the request later. The
/// class lives on the [`Queued`] wrapper, not here.
#[derive(Debug)]
struct Job {
    id: u64,
    solver: SolverKind,
    problem: RraProblem,
    responder: Sender<SolveResponse>,
}

#[derive(Debug)]
struct State {
    queue: AdmissionQueue<Job>,
    shutdown: bool,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    wakeup: Condvar,
    metrics: Mutex<Metrics>,
    pool: WorkerPool,
    engine: Arc<Engine>,
}

impl Shared {
    fn snapshot(&self) -> MetricsSnapshot {
        let (high_water, lane_high_waters) = {
            let state = self.state.lock().expect("serve: state mutex poisoned");
            (
                state.queue.depth_high_water(),
                state.queue.lane_high_waters(),
            )
        };
        let reuse = self
            .engine
            .reuse
            .as_ref()
            .map(ReuseCache::counters)
            .unwrap_or_default();
        self.metrics
            .lock()
            .expect("serve: metrics mutex poisoned")
            .snapshot(high_water, lane_high_waters, reuse)
    }
}

/// A pending response, returned by [`Client::submit`].
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<SolveResponse>,
}

impl Ticket {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    /// [`ServeError::ChannelClosed`] if the service dropped the request
    /// without responding (it never does under normal operation).
    pub fn wait(self) -> Result<SolveResponse, ServeError> {
        self.rx.recv().map_err(|_| ServeError::ChannelClosed)
    }

    /// Non-blocking poll; `None` until the response is ready.
    pub fn poll(&self) -> Option<SolveResponse> {
        self.rx.try_recv().ok()
    }
}

/// A cheap cloneable handle for submitting requests.
#[derive(Debug, Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

impl Client {
    /// Submits a request and returns a [`Ticket`] for its response.
    /// Admission outcomes (rejected / already-expired / payload
    /// conversion failure) are decided synchronously and delivered
    /// through the ticket immediately.
    pub fn submit(&self, request: SolveRequest) -> Ticket {
        let (tx, rx) = mpsc::channel();
        self.submit_with(request, tx);
        Ticket { rx }
    }

    /// Like [`Client::submit`], but routes the response into an existing
    /// channel — used by connection handlers multiplexing many requests
    /// onto one writer.
    pub fn submit_with(&self, request: SolveRequest, responder: Sender<SolveResponse>) {
        let SolveRequest {
            id,
            class,
            deadline,
            solver,
            payload,
        } = request;
        let respond = |outcome: Outcome| {
            let _ = responder.send(SolveResponse {
                id,
                class,
                outcome,
                queue_time: Duration::ZERO,
                solve_time: Duration::ZERO,
            });
        };

        // Payload conversion happens on the submitter's thread: cheap,
        // and conversion errors never occupy a lane slot.
        let problem = match payload {
            Payload::Problem(p) => *p,
            Payload::Scenario(spec) => match spec.to_problem(class) {
                Ok(p) => p,
                Err(e) => {
                    self.count(class, |c| c.failed += 1);
                    respond(Outcome::Failed(e.to_string()));
                    return;
                }
            },
        };

        let now = Instant::now();
        // A client-supplied deadline large enough to overflow `Instant`
        // is effectively "never": clamp to ~30 years out (double failure
        // would need centuries of uptime; fall back to immediate expiry
        // rather than panic).
        const EFFECTIVELY_NEVER: Duration = Duration::from_secs(30 * 365 * 86_400);
        let deadline_at = now
            .checked_add(deadline)
            .or_else(|| now.checked_add(EFFECTIVELY_NEVER))
            .unwrap_or(now);
        let job = Job {
            id,
            solver,
            problem,
            responder: responder.clone(),
        };

        let mut state = self
            .shared
            .state
            .lock()
            .expect("serve: state mutex poisoned");
        if state.shutdown {
            drop(state);
            self.count(class, |c| c.rejected += 1);
            respond(Outcome::Rejected(RejectReason::ShuttingDown));
            return;
        }
        match state.queue.enqueue(job, class, now, deadline_at) {
            Ok(()) => {
                drop(state);
                self.count(class, |c| c.admitted += 1);
                self.shared.wakeup.notify_all();
            }
            Err(EnqueueRejection::QueueFull {
                depth, capacity, ..
            }) => {
                drop(state);
                self.count(class, |c| c.rejected += 1);
                respond(Outcome::Rejected(RejectReason::QueueFull {
                    depth,
                    capacity,
                }));
            }
            Err(EnqueueRejection::AlreadyExpired { late_by, .. }) => {
                drop(state);
                self.count(class, |c| c.expired += 1);
                respond(Outcome::Expired(DeadlineMissed {
                    phase: ExpiryPhase::AtEnqueue,
                    late_by,
                }));
            }
        }
    }

    /// Submits and blocks for the response.
    ///
    /// # Errors
    /// See [`Ticket::wait`].
    pub fn solve(&self, request: SolveRequest) -> Result<SolveResponse, ServeError> {
        self.submit(request).wait()
    }

    /// A point-in-time copy of the service metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    fn count(&self, class: QosClass, f: impl FnOnce(&mut crate::metrics::ClassCounters)) {
        let mut m = self
            .shared
            .metrics
            .lock()
            .expect("serve: metrics mutex poisoned");
        f(m.class_mut(class));
    }
}

/// The running service; dropping it (or calling [`Service::shutdown`])
/// drains the queue and joins the batcher.
#[derive(Debug)]
pub struct Service {
    shared: Arc<Shared>,
    batcher: Option<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Spawns the batcher thread and worker pool.
    ///
    /// # Errors
    /// [`ServeError::InvalidPolicy`] if the queue policy is invalid
    /// (e.g. a lane with `max_batch == 0`); nothing is spawned.
    pub fn spawn(config: ServiceConfig) -> Result<Service, ServeError> {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: AdmissionQueue::new(&config.queue)?,
                shutdown: false,
            }),
            wakeup: Condvar::new(),
            metrics: Mutex::new(Metrics::default()),
            pool: WorkerPool::new(config.workers),
            engine: Arc::new(Engine {
                bnb: config.bnb,
                pso: config.pso,
                reuse: ReuseCache::from_config(&config.reuse),
            }),
        });
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("rcr-serve-batcher".into())
                .spawn(move || batcher_loop(&shared))
                // rcr-lint: allow(no-unwrap-in-lib, reason = "spawn fails only on OS resource exhaustion at service startup; the service cannot run without its batcher")
                .expect("serve: failed to spawn batcher thread")
        };
        Ok(Service {
            shared,
            batcher: Some(batcher),
        })
    }

    /// A submission handle.
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A point-in-time copy of the service metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    /// Graceful shutdown: stops admitting, drains every queued request
    /// (in-flight batches included), joins the batcher, and returns the
    /// final metrics. Unexpired queued requests are *solved*, not
    /// dropped.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop_and_join();
        self.shared.snapshot()
    }

    fn stop_and_join(&mut self) {
        {
            let mut state = self
                .shared
                .state
                .lock()
                .expect("serve: state mutex poisoned");
            state.shutdown = true;
        }
        self.shared.wakeup.notify_all();
        if let Some(handle) = self.batcher.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Delivers terminal responses for a set of expired queue entries.
fn respond_expired(shared: &Shared, expired: Vec<Queued<Job>>, now: Instant) {
    let mut metrics = shared
        .metrics
        .lock()
        .expect("serve: metrics mutex poisoned");
    for entry in expired {
        metrics.class_mut(entry.class).expired += 1;
        let late_by = now.saturating_duration_since(entry.deadline_at);
        let queue_time = now.saturating_duration_since(entry.enqueued_at);
        let _ = entry.item.responder.send(SolveResponse {
            id: entry.item.id,
            class: entry.class,
            outcome: Outcome::Expired(DeadlineMissed {
                phase: ExpiryPhase::InQueue,
                late_by,
            }),
            queue_time,
            solve_time: Duration::ZERO,
        });
    }
}

/// Solves one drained batch on the pool and answers every entry.
fn solve_batch(shared: &Shared, entries: Vec<Queued<Job>>) {
    let drained_at = Instant::now();
    let batch_size = entries.len();
    let mut meta = Vec::with_capacity(batch_size);
    let mut items = Vec::with_capacity(batch_size);
    for entry in entries {
        items.push(WorkItem {
            problem: entry.item.problem,
            solver: entry.item.solver,
            request_id: entry.item.id,
        });
        meta.push((
            entry.item.id,
            entry.class,
            entry.item.responder,
            entry.enqueued_at,
            entry.deadline_at,
        ));
    }

    let engine = Arc::clone(&shared.engine);
    let outputs = shared.pool.solve_batch_on(engine, items);

    let completed_at = Instant::now();
    let mut metrics = shared
        .metrics
        .lock()
        .expect("serve: metrics mutex poisoned");
    metrics.batches += 1;
    for ((result, solve_time), (id, class, responder, enqueued_at, deadline_at)) in
        outputs.into_iter().zip(meta)
    {
        let queue_time = drained_at.saturating_duration_since(enqueued_at);
        metrics.queue_latency.record(queue_time);
        metrics.solve_latency.record(solve_time);
        let response_time = completed_at.saturating_duration_since(enqueued_at);
        metrics.response_latency.record(response_time);
        metrics.class_response_mut(class).record(response_time);
        let outcome = match result {
            // The deadline gate: a late solve is reported as expired, so
            // downstream consumers can rely on "solved ⇒ in time".
            Ok(_) if completed_at > deadline_at => {
                metrics.class_mut(class).expired += 1;
                Outcome::Expired(DeadlineMissed {
                    phase: ExpiryPhase::AfterSolve,
                    late_by: completed_at.saturating_duration_since(deadline_at),
                })
            }
            Ok(solution) => {
                metrics.class_mut(class).solved += 1;
                Outcome::Solved(Solved {
                    solution,
                    batch_size,
                })
            }
            Err(e) => {
                metrics.class_mut(class).failed += 1;
                Outcome::Failed(e.to_string())
            }
        };
        let _ = responder.send(SolveResponse {
            id,
            class,
            outcome,
            queue_time,
            solve_time,
        });
    }
}

fn batcher_loop(shared: &Shared) {
    let mut state = shared.state.lock().expect("serve: state mutex poisoned");
    loop {
        let now = Instant::now();
        let expired = state.queue.sweep_expired(now);
        let force = state.shutdown;
        let batch = state.queue.next_batch(now, force);
        let done = state.shutdown && state.queue.is_empty();

        if !expired.is_empty() || batch.is_some() {
            // Unlock while responding/solving so submitters keep flowing.
            drop(state);
            if !expired.is_empty() {
                respond_expired(shared, expired, now);
            }
            if let Some((_, entries)) = batch {
                solve_batch(shared, entries);
            }
            state = shared.state.lock().expect("serve: state mutex poisoned");
            continue;
        }
        if done {
            return;
        }

        state = match state.queue.next_wakeup(now) {
            None => shared
                .wakeup
                .wait(state)
                // rcr-lint: allow(no-unwrap-in-lib, reason = "condvar re-lock poisoning means a holder already panicked; propagate it")
                .expect("serve: state mutex poisoned"),
            Some(at) => {
                // `at <= now` only from clock races between the sweep
                // above and this read; the floor keeps that from
                // becoming a hot spin.
                let wait = at
                    .saturating_duration_since(now)
                    .max(Duration::from_micros(50));
                shared
                    .wakeup
                    .wait_timeout(state, wait)
                    // rcr-lint: allow(no-unwrap-in-lib, reason = "condvar re-lock poisoning means a holder already panicked; propagate it")
                    .expect("serve: state mutex poisoned")
                    .0
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::LanePolicy;
    use crate::request::ScenarioSpec;

    fn spec_request(id: u64, class: QosClass, deadline: Duration) -> SolveRequest {
        SolveRequest {
            id,
            class,
            deadline,
            solver: SolverKind::Greedy,
            payload: Payload::Scenario(ScenarioSpec {
                users: 3,
                resource_blocks: 6,
                seed: id,
            }),
        }
    }

    #[test]
    fn solves_a_request_end_to_end() {
        let service = Service::spawn(ServiceConfig::default()).unwrap();
        let client = service.client();
        let resp = client
            .solve(spec_request(1, QosClass::Urllc, Duration::from_secs(30)))
            .unwrap();
        assert_eq!(resp.id, 1);
        match &resp.outcome {
            Outcome::Solved(s) => {
                assert!(s.solution.total_rate_bps > 0.0);
                assert_eq!(s.batch_size, 1, "URLLC fires alone");
            }
            other => panic!("expected Solved, got {other:?}"),
        }
        let snap = service.shutdown();
        assert_eq!(snap.class(QosClass::Urllc).solved, 1);
        assert_eq!(snap.total_responses(), 1);
    }

    #[test]
    fn zero_deadline_expires_at_enqueue() {
        let service = Service::spawn(ServiceConfig::default()).unwrap();
        let resp = service
            .client()
            .solve(spec_request(2, QosClass::Embb, Duration::ZERO))
            .unwrap();
        assert!(matches!(
            resp.outcome,
            Outcome::Expired(DeadlineMissed {
                phase: ExpiryPhase::AtEnqueue,
                ..
            })
        ));
        let snap = service.shutdown();
        assert_eq!(snap.class(QosClass::Embb).expired, 1);
        assert_eq!(snap.class(QosClass::Embb).solved, 0);
    }

    #[test]
    fn full_lane_backpressures() {
        let config = ServiceConfig {
            queue: QueuePolicy {
                mmtc: LanePolicy {
                    capacity: 0,
                    max_batch: 8,
                    max_age: Duration::from_secs(1),
                },
                ..QueuePolicy::default()
            },
            ..ServiceConfig::default()
        };
        let service = Service::spawn(config).unwrap();
        let resp = service
            .client()
            .solve(spec_request(3, QosClass::Mmtc, Duration::from_secs(30)))
            .unwrap();
        assert!(matches!(
            resp.outcome,
            Outcome::Rejected(RejectReason::QueueFull { capacity: 0, .. })
        ));
        let snap = service.shutdown();
        assert_eq!(snap.class(QosClass::Mmtc).rejected, 1);
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let service = Service::spawn(ServiceConfig::default()).unwrap();
        let client = service.client();
        // mMTC coalesces for up to 2 ms; submit then shut down at once —
        // the drain must still answer them all with solutions.
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| client.submit(spec_request(i, QosClass::Mmtc, Duration::from_secs(30))))
            .collect();
        let snap = service.shutdown();
        for t in tickets {
            let resp = t.wait().unwrap();
            assert!(
                matches!(resp.outcome, Outcome::Solved(_)),
                "got {:?}",
                resp.outcome
            );
        }
        assert_eq!(snap.class(QosClass::Mmtc).solved, 8);
    }

    #[test]
    fn submissions_after_shutdown_are_rejected() {
        let service = Service::spawn(ServiceConfig::default()).unwrap();
        let client = service.client();
        let snap = service.shutdown();
        assert_eq!(snap.total_responses(), 0);
        let resp = client
            .solve(spec_request(9, QosClass::Urllc, Duration::from_secs(30)))
            .unwrap();
        assert!(matches!(
            resp.outcome,
            Outcome::Rejected(RejectReason::ShuttingDown)
        ));
    }

    #[test]
    fn embb_requests_coalesce_into_batches() {
        // A generous age window so the whole burst lands in one batch.
        let config = ServiceConfig {
            workers: 2,
            queue: QueuePolicy {
                embb: LanePolicy {
                    capacity: 64,
                    max_batch: 8,
                    max_age: Duration::from_millis(200),
                },
                ..QueuePolicy::default()
            },
            ..ServiceConfig::default()
        };
        let service = Service::spawn(config).unwrap();
        let client = service.client();
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| client.submit(spec_request(i, QosClass::Embb, Duration::from_secs(30))))
            .collect();
        let mut max_batch = 0usize;
        for t in tickets {
            match t.wait().unwrap().outcome {
                Outcome::Solved(s) => max_batch = max_batch.max(s.batch_size),
                other => panic!("expected Solved, got {other:?}"),
            }
        }
        assert!(max_batch >= 2, "no coalescing observed (max {max_batch})");
        let snap = service.shutdown();
        assert!(snap.batches < 8, "batches: {}", snap.batches);
        assert_eq!(snap.response_latency.count, 8);
    }

    #[test]
    fn reuse_serves_identical_requests_from_cache() {
        let config = ServiceConfig {
            reuse: ReuseConfig {
                enabled: true,
                capacity: 64,
            },
            ..ServiceConfig::default()
        };
        let service = Service::spawn(config).unwrap();
        let client = service.client();
        let request = |id: u64| SolveRequest {
            id,
            class: QosClass::Urllc,
            deadline: Duration::from_secs(30),
            solver: SolverKind::Greedy,
            payload: Payload::Scenario(ScenarioSpec {
                users: 3,
                resource_blocks: 6,
                seed: 5,
            }),
        };
        // Sequential solves of the *same* problem under different ids:
        // the second must hit and answer bit-identically.
        let first = client.solve(request(1)).unwrap();
        let second = client.solve(request(2)).unwrap();
        let rate = |resp: &SolveResponse| match &resp.outcome {
            Outcome::Solved(s) => s.solution.total_rate_bps,
            other => panic!("expected Solved, got {other:?}"),
        };
        assert_eq!(rate(&first).to_bits(), rate(&second).to_bits());
        let snap = service.shutdown();
        assert_eq!(snap.reuse.hits, 1);
        assert_eq!(snap.reuse.misses, 1);
        assert_eq!(snap.reuse.evictions, 0);
    }

    #[test]
    fn spawn_rejects_zero_max_batch_policy() {
        let config = ServiceConfig {
            queue: QueuePolicy {
                urllc: LanePolicy {
                    capacity: 8,
                    max_batch: 0,
                    max_age: Duration::ZERO,
                },
                ..QueuePolicy::default()
            },
            ..ServiceConfig::default()
        };
        match Service::spawn(config) {
            Err(ServeError::InvalidPolicy(crate::queue::PolicyError::ZeroMaxBatch { class })) => {
                assert_eq!(class, QosClass::Urllc)
            }
            other => panic!("expected InvalidPolicy, got {other:?}"),
        }
    }

    #[test]
    fn robust_requests_solve_identically_at_any_worker_count() {
        // Neither batching nor the worker count may leak into solutions:
        // every served answer equals a direct solve of the same problem.
        let spec = |i: u64| ScenarioSpec {
            users: 3,
            resource_blocks: 6,
            seed: 40 + i,
        };
        let solve_all = |workers: usize| -> Vec<(Vec<usize>, u64)> {
            let config = ServiceConfig {
                workers,
                queue: QueuePolicy {
                    embb: LanePolicy {
                        capacity: 64,
                        max_batch: 8,
                        max_age: Duration::from_millis(100),
                    },
                    ..QueuePolicy::default()
                },
                ..ServiceConfig::default()
            };
            let service = Service::spawn(config).unwrap();
            let client = service.client();
            let tickets: Vec<Ticket> = (0..6)
                .map(|i| {
                    client.submit(SolveRequest {
                        id: i,
                        class: QosClass::Embb,
                        deadline: Duration::from_secs(30),
                        solver: SolverKind::Robust,
                        payload: Payload::Scenario(spec(i)),
                    })
                })
                .collect();
            let answers = tickets
                .into_iter()
                .map(|t| match t.wait().unwrap().outcome {
                    Outcome::Solved(s) => (s.solution.owners, s.solution.total_rate_bps.to_bits()),
                    other => panic!("expected Solved, got {other:?}"),
                })
                .collect();
            service.shutdown();
            answers
        };
        let direct: Vec<(Vec<usize>, u64)> = (0..6)
            .map(|i| {
                let problem = spec(i).to_problem(QosClass::Embb).unwrap();
                let s = robust::solve_robust(&problem).unwrap();
                (s.owners, s.total_rate_bps.to_bits())
            })
            .collect();
        assert_eq!(solve_all(1), direct);
        assert_eq!(solve_all(4), direct);
    }

    #[test]
    fn failed_solves_are_reported_not_panicked() {
        // An infeasible exact solve returns Outcome::Failed.
        let spec = ScenarioSpec {
            users: 2,
            resource_blocks: 2,
            seed: 3,
        };
        let mut problem = spec.to_problem(QosClass::Embb).unwrap();
        problem.min_rates_bps = vec![1e15; 2];
        let service = Service::spawn(ServiceConfig::default()).unwrap();
        let resp = service
            .client()
            .solve(SolveRequest {
                id: 4,
                class: QosClass::Embb,
                deadline: Duration::from_secs(30),
                solver: SolverKind::Exact,
                payload: Payload::Problem(Box::new(problem)),
            })
            .unwrap();
        assert!(
            matches!(resp.outcome, Outcome::Failed(_)),
            "{:?}",
            resp.outcome
        );
        let snap = service.shutdown();
        assert_eq!(snap.class(QosClass::Embb).failed, 1);
    }
}
