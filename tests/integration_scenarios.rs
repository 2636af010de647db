//! Scenario-engine integration tests: the replay contract on the
//! committed manifest, worker-count determinism of served traces, the
//! QoS shape under 2× overload, EDF-vs-FIFO at ≥0.9 utilization over a
//! 10⁵-item trace, and lane-full accounting under sustained overload.
//!
//! The `scenario_smoke` test is the hard gate wired into
//! `scripts/verify.sh --scenario-smoke`.

use rcr::codec::Digest128;
use rcr::qos::QosClass;
use rcr::scenarios::{
    run_scenario, simulate, trace_digest, ArrivalProcess, ClassMix, DisciplineExpectation,
    FadingModel, LoadMode, OverloadExpectation, RunManifest, ScenarioManifest, SimItem,
    TraceGenerator,
};
use rcr::serve::{
    LanePolicy, Outcome, QueueDiscipline, QueuePolicy, ReuseConfig, Service, ServiceConfig,
    SolverKind,
};
use std::time::Instant;

/// The committed run manifest behind `examples/scenario_storm.rs` and
/// EXPERIMENTS.md E17.
const COMMITTED: &str = include_str!("../crates/scenarios/manifests/diurnal_storm.json");

/// A reuse-friendly scenario: long coherence blocks over a small
/// population mean ~`population` distinct problems per fading epoch, so
/// with the solution-reuse cache enabled most requests are cache hits
/// and each epoch boundary injects a burst of real Greedy solves. A
/// Greedy 3×6 solve costs only tens of µs optimized, so a test that
/// needs the service solve-bound shortens the fading blocks (more
/// boundaries, more cold solves) or grows the problems; that is what
/// lets a small CI box run honest 10⁵-request overload experiments.
fn cached_manifest(requests: u64, rate_per_sec: f64) -> ScenarioManifest {
    ScenarioManifest {
        name: "overload-shape".into(),
        seed: 0xC0FFEE,
        requests,
        cells: 4,
        population: 24,
        users_per_problem: 3,
        resource_blocks: 6,
        class_mix: ClassMix {
            urllc: 0.1,
            embb: 0.3,
            mmtc: 0.6,
        },
        // Half a virtual second per channel realization: within a block
        // the problem set is closed (cache hits), and every boundary
        // redraws all 24 users' channels at once.
        fading: FadingModel::BlockRayleigh {
            coherence_us: 500_000,
        },
        arrivals: ArrivalProcess::Poisson { rate_per_sec },
        deadlines_us: [2_000_000, 2_000_000, 2_000_000],
        solver: SolverKind::Greedy,
    }
}

fn cached_config() -> ServiceConfig {
    ServiceConfig {
        reuse: ReuseConfig {
            enabled: true,
            capacity: 512,
        },
        ..ServiceConfig::default()
    }
}

#[test]
fn committed_manifest_replays_bit_identically() {
    let run = RunManifest::parse(COMMITTED.trim()).expect("committed manifest parses");
    let first = trace_digest(&run.manifest).expect("valid manifest");
    assert_eq!(
        first, run.trace_digest,
        "replay contract broken: the spec+seed in manifests/diurnal_storm.json no longer \
         regenerates the committed trace"
    );
    let second = trace_digest(&run.manifest).expect("valid manifest");
    assert_eq!(
        first, second,
        "two generations of the same manifest diverged"
    );
}

#[test]
fn million_request_trace_streams_lazily() {
    // 10⁶ requests over a 10⁶-user population, consumed without ever
    // materializing the trace. The generator is an iterator, so this is
    // O(1) memory for block fading; the run finishing in test time at
    // all is the point.
    let mut m = cached_manifest(1_000_000, 500_000.0);
    m.population = 1_000_000;
    m.cells = 64;
    let mut count = 0u64;
    let mut last_at = 0u64;
    let mut last_id = 0u64;
    for t in TraceGenerator::new(&m).expect("valid manifest") {
        assert!(
            t.at_us > last_at || count == 0,
            "arrival times must increase"
        );
        last_at = t.at_us;
        last_id = t.request.id;
        count += 1;
    }
    assert_eq!(count, 1_000_000);
    assert_eq!(last_id, 999_999);
}

/// Submits a full trace and digests the sorted responses: id, outcome
/// tag, and for solved requests the exact allocation (owners + total
/// rate bits).
fn served_response_digest(workers: usize, manifest: &ScenarioManifest) -> String {
    let config = ServiceConfig {
        workers,
        ..cached_config()
    };
    let service = Service::spawn(config).expect("valid policy");
    let client = service.client();
    let mut responses = Vec::new();
    let mut settle = |ticket: rcr::serve::Ticket| {
        let resp = ticket.wait().expect("response");
        let (owners, rate_bits) = match &resp.outcome {
            Outcome::Solved(s) => (
                s.solution.owners.clone(),
                s.solution.total_rate_bps.to_bits(),
            ),
            other => panic!("generous-deadline trace must fully solve, got {other:?}"),
        };
        responses.push((resp.id, owners, rate_bits));
    };
    // Windowed submission so the lanes never fill — this test is about
    // solution identity, not admission control.
    let mut inflight = std::collections::VecDeque::new();
    for t in TraceGenerator::new(manifest).expect("valid manifest") {
        if inflight.len() == 64 {
            settle(inflight.pop_front().expect("non-empty window"));
        }
        inflight.push_back(client.submit(t.request));
    }
    for ticket in inflight {
        settle(ticket);
    }
    service.shutdown();
    responses.sort_by_key(|r| r.0);
    let mut d = Digest128::new(0x5E57_D16E);
    for (id, owners, rate_bits) in &responses {
        d.u64(*id);
        d.u64(owners.len() as u64);
        for &owner in owners {
            d.u64(owner as u64);
        }
        d.u64(*rate_bits);
    }
    d.hex()
}

#[test]
fn worker_count_does_not_change_served_solutions() {
    // The trace is a pure function of the manifest, and per-request seed
    // streams make each solve self-contained — so a 1-worker and a
    // 4-worker service must produce bit-identical allocations for every
    // request, whatever order the pool solved them in.
    let manifest = cached_manifest(2_000, 50_000.0);
    let one = served_response_digest(1, &manifest);
    let four = served_response_digest(4, &manifest);
    assert_eq!(
        one, four,
        "worker count changed solved allocations — scheduling leaked into results"
    );
}

/// The capped scenario gate run by `scripts/verify.sh --scenario-smoke`:
/// a 10⁴-request closed-loop run whose books must balance to the request
/// against the service's own metrics.
#[test]
fn scenario_smoke() {
    let manifest = cached_manifest(10_000, 50_000.0);
    let config = cached_config();
    let policy = config.queue;
    let report = run_scenario(&manifest, config, LoadMode::Closed { concurrency: 32 })
        .expect("smoke run completes");
    assert_eq!(report.offered(), 10_000);
    report
        .reconcile(Some(&policy))
        .expect("harness and service books reconcile");
    for class in QosClass::ALL {
        let c = report.class(class);
        assert!(c.offered > 0, "{} never offered", class.name());
        assert_eq!(
            c.solved,
            c.offered,
            "{} shed under a closed loop with 2 s deadlines",
            class.name()
        );
    }
}

#[test]
fn overload_sheds_mmtc_while_urllc_stays_flat() {
    // Phase 1 — baseline & calibration in one run: a closed loop never
    // overloads the service, and its achieved rate *is* the service's
    // capacity, so "2× overload" needs no machine-specific constant.
    //
    // Fading-epoch redraws are what overload the service with *real*
    // solve work (cache hits alone are nearly as fast as the submit path,
    // so a one-core producer could never overpressure a fully warmed
    // service). The product epochs × population × solve-time is what has
    // to exceed the run's wall budget, and a Greedy 3×6 solve is cheap
    // (serve-cold's traced per-class p50 is 4–66 µs optimized on a
    // 2-vCPU host), so the trace crosses many boundaries: 1024
    // optimized, 64 unoptimized, where each solve costs more and the
    // producer itself is slower.
    let debug = cfg!(debug_assertions);
    let epochs = if debug { 64 } else { 1024 };
    let mut config = cached_config();
    // Trim batch sizes against head-of-line blocking: right after an
    // epoch boundary a whole batch can be cold solves, and a deep cold
    // batch would wall off the URLLC lane for longer than its arrivals
    // can sit in it.
    config.queue.urllc = LanePolicy {
        capacity: 512,
        max_batch: 1,
        max_age: std::time::Duration::ZERO,
    };
    config.queue.embb.max_batch = 8;
    config.queue.mmtc.max_batch = 8;
    // A shallower best-effort lane: mMTC tolerates loss, not staleness,
    // so bounce excess load instead of aging it out of a deep queue.
    config.queue.mmtc.capacity = 256;
    let policy = config.queue;
    // The arrival rate sets the *virtual* span (and with it the number of
    // fading epochs the trace crosses) even though a closed loop ignores
    // the timeline for pacing. mMTC gets a 1 s budget — delay-tolerant,
    // but stale sensor readings are worthless, so the deep-backlog tail
    // expires rather than riding the queue out.
    let scenario = {
        let mut m = cached_manifest(100_000, 30_000.0);
        m.deadlines_us = [2_000_000, 2_000_000, 1_000_000];
        // Pin the fading structure to the run, not the wall: `epochs`
        // boundaries over the trace's virtual span, each redrawing all 24
        // channels, keep the service solve-bound on any host — a faster
        // box compresses the span and would otherwise never cross one.
        m.fading = FadingModel::BlockRayleigh {
            coherence_us: (100_000.0 / 30_000.0 * 1e6) as u64 / epochs,
        };
        m
    };
    let baseline = run_scenario(
        &scenario,
        config.clone(),
        LoadMode::Closed { concurrency: 32 },
    )
    .expect("baseline run completes");
    baseline
        .reconcile(Some(&policy))
        .expect("baseline books reconcile");
    let capacity_rps = baseline.achieved_rps();
    assert!(
        capacity_rps > 500.0,
        "calibration run measured implausible capacity {capacity_rps:.0} req/s"
    );

    // Phase 2 — the same 10⁵-request scenario offered open-loop as a
    // diurnal storm averaging 2× the measured capacity. Starting from the
    // trough matters: the fresh service's reuse cache is cold, and on an
    // unoptimized build the first pass over the problem set takes whole
    // seconds — the ramp warms it under light load, the way a real
    // diurnal cycle would, instead of burying a cold cache at t=0.
    // The closed-loop figure under-reads the service's warm capacity (it
    // includes the cold first pass over the problem set), so the storm
    // averages 3× the measured rate — comfortably past 2× the true
    // capacity even when calibration reads low.
    // How far past calibrated capacity the storm crest reaches. The
    // unoptimized build backs off slightly: its submit path is itself
    // near capacity on one core, so extra storm just queues in the
    // producer and smears the URLLC lane instead of pressuring admission.
    let storm_factor = if debug { 3.5 } else { 4.0 };
    let period_us = (100_000.0 / (storm_factor * capacity_rps) * 1e6) as u64;
    let overload_manifest = {
        let mut m = scenario.clone();
        m.arrivals = ArrivalProcess::Diurnal {
            base_rate_per_sec: 0.2 * capacity_rps,
            // One full wave over the run: mean rate = base + (peak−base)/2
            // = storm_factor × measured capacity.
            peak_rate_per_sec: (2.0 * storm_factor - 0.2) * capacity_rps,
            period_us,
        };
        // Same epoch structure relative to this run's (much shorter)
        // virtual span.
        m.fading = FadingModel::BlockRayleigh {
            coherence_us: (period_us / epochs).max(1),
        };
        m
    };
    let overload = run_scenario(&overload_manifest, config, LoadMode::Open { speed: 1.0 })
        .expect("overload run completes");
    println!(
        "calibrated capacity {capacity_rps:.0} req/s\nbaseline:\n{}\noverload:\n{}",
        baseline.render(),
        overload.render()
    );
    overload
        .reconcile(Some(&policy))
        .expect("overload books reconcile");

    // The pressure must land on mMTC as QueueFull shedding — which
    // reconcile() above has already tied to the lane literally hitting
    // its configured capacity.
    assert!(
        overload.class(QosClass::Mmtc).rejected_full > 0,
        "2× overload produced no mMTC QueueFull rejections"
    );
    let mut violations: Vec<String> = Vec::new();
    // The cross-class shape that holds on any machine is the *shedding*
    // ordering, not solved-request latency: a class shed at the door
    // serves its shallow-lane survivors almost instantly, so mMTC's
    // solved-only median can sit far below a URLLC median that queued
    // through the crest keeping everything. What must never invert is
    // where the loss lands.
    let urllc_shed = overload.class(QosClass::Urllc).shed_fraction();
    let mmtc_shed = overload.class(QosClass::Mmtc).shed_fraction();
    if urllc_shed * 10.0 >= mmtc_shed {
        violations.push(format!(
            "URLLC shed {:.2}% is not an order of magnitude below mMTC shed {:.2}%",
            urllc_shed * 100.0,
            mmtc_shed * 100.0
        ));
    }
    // The absolute floor is sized for this single-core CI box: the
    // open-loop submitter competes with the batcher for the one core, so
    // "flat" means tens of milliseconds, not the baseline's ~100 µs —
    // and several times that again on an unoptimized build, where the
    // submit path alone nearly saturates the core at the storm's crest.
    // min_mmtc_shed sits below the library default: on one core the
    // submitting thread itself caps how hard the storm can actually
    // press (≈1.2× capacity sustained, whatever the manifest asks for),
    // so the observable shed is bounded by the host, not the policy.
    let expectation = OverloadExpectation {
        max_urllc_p99_ratio: 10.0,
        urllc_p99_floor_us: if cfg!(debug_assertions) {
            1_000_000
        } else {
            150_000
        },
        min_mmtc_shed: 0.18,
        min_urllc_solved: 0.95,
    };
    if let Err(violation) = expectation.check(&baseline, &overload) {
        violations.push(violation);
    }
    if !violations.is_empty() {
        panic!(
            "QoS shape violated: {}\nbaseline:\n{}\noverload:\n{}",
            violations.join("; "),
            baseline.render(),
            overload.render()
        );
    }
}

#[test]
fn edf_beats_fifo_at_high_utilization_over_a_generated_trace() {
    // A 1.2·10⁵-request MMPP trace at ~0.92 utilization against a 500 µs
    // server. Deadline budgets are heterogeneous per user (tight for even
    // users, loose for odd), so within every lane EDF has real choices to
    // make; FIFO serves the same arrivals in order.
    let manifest = ScenarioManifest {
        name: "edf-vs-fifo".into(),
        seed: 0xEDF0,
        requests: 120_000,
        cells: 8,
        population: 10_000,
        users_per_problem: 3,
        resource_blocks: 6,
        class_mix: ClassMix {
            urllc: 0.2,
            embb: 0.3,
            mmtc: 0.5,
        },
        fading: FadingModel::BlockRayleigh {
            coherence_us: 20_000,
        },
        arrivals: ArrivalProcess::Mmpp {
            slow_rate_per_sec: 800.0,
            fast_rate_per_sec: 6_000.0,
            mean_slow_us: 100_000.0,
            mean_fast_us: 25_000.0,
        },
        deadlines_us: [2_000, 20_000, 200_000],
        solver: SolverKind::Greedy,
    };
    const SERVICE_US: u64 = 540;
    let items: Vec<SimItem> = TraceGenerator::new(&manifest)
        .expect("valid manifest")
        .map(|t| SimItem {
            at_us: t.at_us,
            class: t.request.class,
            // Heterogeneous budgets, sized against the MMPP burst: a fast
            // phase backs the server up by ~55 ms of work, but the tight
            // class alone only by ~16 ms. So EDF can still meet 20 ms
            // budgets by triaging (loose 200 ms budgets soak the burst),
            // while FIFO makes tight work eat the whole backlog.
            deadline_us: if (t.request.id / 8) % 2 == 0 {
                200_000
            } else {
                20_000
            },
        })
        .collect();
    let span_us = items.last().expect("non-empty trace").at_us;
    let utilization = (items.len() as u64 * SERVICE_US) as f64 / span_us as f64;
    assert!(
        utilization >= 0.9,
        "trace only loads the simulated server to {utilization:.2}, need ≥ 0.9"
    );

    let lane = LanePolicy {
        capacity: 2_048,
        max_batch: 8,
        max_age: std::time::Duration::from_micros(500),
    };
    let policy = |discipline| QueuePolicy {
        urllc: lane,
        embb: lane,
        mmtc: lane,
        discipline,
    };
    let base = Instant::now();
    let edf =
        simulate(base, &items, SERVICE_US, &policy(QueueDiscipline::Edf)).expect("EDF sim runs");
    let fifo =
        simulate(base, &items, SERVICE_US, &policy(QueueDiscipline::Fifo)).expect("FIFO sim runs");
    assert_eq!(edf.total(), items.len() as u64, "sim lost arrivals");
    DisciplineExpectation::default()
        .check(&edf, &fifo)
        .unwrap_or_else(|violation| {
            panic!("scheduling shape violated at utilization {utilization:.2}: {violation}")
        });
}

#[test]
fn lane_full_accounting_reconciles_under_sustained_overload() {
    // A deliberately tiny mMTC lane under a firehose: QueueFull counts,
    // the lane's depth high-water, and the harness/service books must
    // reconcile *exactly* — the regression pin for lane-full accounting.
    let mut manifest = cached_manifest(4_000, 300_000.0);
    manifest.name = "lane-full-pin".into();
    manifest.class_mix = ClassMix {
        urllc: 0.05,
        embb: 0.05,
        mmtc: 0.9,
    };
    manifest.deadlines_us = [60_000_000, 60_000_000, 60_000_000];
    // Every request a fresh 8-user × 32-RB channel: no reuse hits, so
    // each admitted request costs a real solve and the firehose keeps the
    // 64-deep lane full even though Greedy is cheap.
    manifest.users_per_problem = 8;
    manifest.resource_blocks = 32;
    manifest.fading = FadingModel::BlockRayleigh { coherence_us: 1 };
    let mut config = cached_config();
    config.queue.mmtc = LanePolicy {
        capacity: 64,
        max_batch: 8,
        max_age: std::time::Duration::from_millis(1),
    };
    let policy = config.queue;
    let report = run_scenario(&manifest, config, LoadMode::Open { speed: 1.0 })
        .expect("overload run completes");
    report
        .reconcile(Some(&policy))
        .expect("lane-full books must reconcile exactly");
    let mmtc = report.class(QosClass::Mmtc);
    assert!(
        mmtc.rejected_full > 100,
        "expected a QueueFull storm on the 64-deep mMTC lane, got {}",
        mmtc.rejected_full
    );
    assert_eq!(
        report.snapshot.lane_high_water(QosClass::Mmtc),
        64,
        "high water must pin to the configured capacity once the lane rejects"
    );
    // Nothing expires under 60 s deadlines: every mMTC request either
    // solved or bounced off the full lane.
    assert_eq!(mmtc.solved + mmtc.rejected_full, mmtc.offered);
}
