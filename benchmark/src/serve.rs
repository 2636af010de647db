//! The serve-cold workload: open-loop load from one thread into an
//! in-process `rcr_serve::Service`, every response checked against a
//! direct `rra::solve_greedy` of the same scenario and scored against
//! `rra::relaxation_bound_bps`.

use crate::report::{cpu_seconds, peak_rss_mb, print_spread, quantile_of, Outcome, Samples, Sink};
use crate::spans::Tracer;
use rcr_qos::power::{solve_power, PowerProblem};
use rcr_qos::rra::{self, RraSolution};
use rcr_qos::QosClass;
use rcr_runtime::seed_stream;
use rcr_scenarios::{ArrivalProcess, ClassMix, FadingModel, ScenarioManifest, TraceGenerator};
use rcr_serve::{
    MetricsSnapshot, Outcome as Served, ReuseConfig, ScenarioSpec, Service, ServiceConfig,
    SolveResponse, SolverKind,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

const USERS: usize = 3;
const RBS: usize = 6;
const WORKERS: usize = 2;
/// URLLC / eMBB / mMTC, indexed by `QosClass::priority_rank`.
const DEADLINES_US: [u64; 3] = [50_000, 200_000, 1_000_000];
const MIX: ClassMix = ClassMix {
    urllc: 0.1,
    embb: 0.3,
    mmtc: 0.6,
};
/// Segments per run, each on a fresh service. Set-up time and CPU per
/// request are taken per segment and the median reported, so a stretch
/// in which the shared host runs slow moves them by one segment's rank.
const SEGMENTS: usize = 10;
/// Warm-up requests per set-up (distinct problems, so each is a solve).
const WARMUP: usize = 48;
const WARMUP_SEED: u64 = 0x5EED_F00D_3A2A_4B11;
/// In traced runs, `evaluate`/`solve_power` are replayed on at most this
/// many served problems (each costs up to a few ms).
const REPLAY_DETAIL: usize = 400;

/// Open-loop Poisson arrivals at a literal 50 req/s, not calibrated per
/// run, so a slower commit does not get an easier load. (At 200 req/s
/// the batcher, which solves one drained batch at a time, already runs
/// at its single-item capacity: latency there doubles from run to run.)
const RATE_PER_S: f64 = 50.0;
/// 10⁶ users with 20 ms coherence blocks: every request is a new problem.
const POPULATION: u64 = 1_000_000;
const COHERENCE_US: u64 = 20_000;
const REUSE_CAPACITY: usize = 256;

fn manifest(name: &str, seed: u64) -> ScenarioManifest {
    ScenarioManifest {
        name: name.into(),
        seed,
        requests: u64::MAX,
        cells: 4,
        population: POPULATION,
        users_per_problem: USERS,
        resource_blocks: RBS,
        class_mix: MIX,
        fading: FadingModel::BlockRayleigh {
            coherence_us: COHERENCE_US,
        },
        arrivals: ArrivalProcess::Poisson {
            rate_per_sec: RATE_PER_S,
        },
        deadlines_us: DEADLINES_US,
        solver: SolverKind::Greedy,
    }
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        reuse: ReuseConfig {
            enabled: true,
            capacity: REUSE_CAPACITY,
        },
        ..ServiceConfig::default()
    }
}

fn rank(c: QosClass) -> usize {
    c.priority_rank()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Bit-level fingerprint of a solution: equal digests for bit-identical
/// allocations, powers and rates.
fn digest(s: &RraSolution) -> u64 {
    fn mix(h: u64, x: u64) -> u64 {
        let mut z = (h ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut h = mix(0, s.owners.len() as u64);
    for &o in &s.owners {
        h = mix(h, o as u64);
    }
    let p = &s.power;
    for v in [&p.powers, &p.rb_rates_bps, &p.user_rates_bps] {
        h = mix(h, v.len() as u64);
        for x in v.iter() {
            h = mix(h, x.to_bits());
        }
    }
    for x in [p.total_rate_bps, s.total_rate_bps, s.spectral_efficiency] {
        h = mix(h, x.to_bits());
    }
    mix(h, u64::from(s.qos_satisfied) << 1 | u64::from(p.feasible))
}

/// A submitted request awaiting its response.
struct Pending {
    class: QosClass,
    seed: u64,
    /// The request's due time: latency runs from here.
    origin: Instant,
    /// Submission start, for the stage reconciliation.
    submitted: Instant,
}

/// Every served answer for one `(class, scenario seed)`.
struct KeyAgg {
    digest: u64,
    mismatches: u64,
    count: u64,
}

#[derive(Default)]
struct ClassBook {
    offered: u64,
    solved: u64,
    rejected: u64,
    expired: u64,
    failed: u64,
    met: u64,
}

/// What the load loop collects.
#[derive(Default)]
struct Books {
    class: [ClassBook; 3],
    keys: BTreeMap<(usize, u64), KeyAgg>,
    /// Client latency of solved responses, ms.
    latency: Samples,
    urllc_latency: Samples,
    // Traced run only.
    queue_ms: Samples,
    solve_ms: Samples,
    batch_wait_ms: Samples,
    gen_lag_ms: Samples,
    reconcile_violations: u64,
    // Always: cheap sums straight off the response.
    solve_total: Duration,
    batch_size_sum: u64,
}

impl Books {
    fn offered(&self) -> u64 {
        self.class.iter().map(|k| k.offered).sum()
    }

    fn settle(&mut self, p: Pending, r: SolveResponse, at: Instant, traced: bool) {
        let book = &mut self.class[rank(p.class)];
        let latency = at.saturating_duration_since(p.origin);
        self.solve_total += r.solve_time;
        match r.outcome {
            Served::Solved(s) => {
                book.solved += 1;
                if latency <= Duration::from_micros(DEADLINES_US[rank(p.class)]) {
                    book.met += 1;
                }
                self.batch_size_sum += s.batch_size as u64;
                let d = digest(&s.solution);
                let agg = self.keys.entry((rank(p.class), p.seed)).or_insert(KeyAgg {
                    digest: d,
                    mismatches: 0,
                    count: 0,
                });
                agg.count += 1;
                if agg.digest != d {
                    agg.mismatches += 1;
                }
                self.latency.push(ms(latency));
                if p.class == QosClass::Urllc {
                    self.urllc_latency.push(ms(latency));
                }
                if traced {
                    let lag = p.submitted.saturating_duration_since(p.origin);
                    let service = at.saturating_duration_since(p.submitted);
                    let inside = r.queue_time + r.solve_time;
                    if inside > service {
                        self.reconcile_violations += 1;
                    }
                    self.queue_ms.push(ms(r.queue_time));
                    self.solve_ms.push(ms(r.solve_time));
                    self.batch_wait_ms.push(ms(service.saturating_sub(inside)));
                    self.gen_lag_ms.push(ms(lag));
                }
            }
            Served::Rejected(_) => book.rejected += 1,
            Served::Expired(_) => book.expired += 1,
            Served::Failed(_) => book.failed += 1,
        }
    }
}

/// One live service with its warm-up done.
struct Live {
    service: Service,
    before: MetricsSnapshot,
}

/// Spawns a service, builds a generator and pushes a warm-up burst of
/// distinct problems through it. The warm-up problems are the same for
/// every seed, so set-up does the same work on every run. Returns the
/// service and the time taken.
fn set_up(seed: u64) -> Result<(Live, TraceGenerator, Duration), String> {
    let start = Instant::now();
    let service = Service::spawn(config()).map_err(|e| e.to_string())?;
    let generator = TraceGenerator::new(&manifest("bench", seed))?;
    let mut warm = manifest("warm-up", WARMUP_SEED);
    warm.fading = FadingModel::BlockRayleigh { coherence_us: 1 };
    let client = service.client();
    let (tx, rx) = mpsc::channel();
    for t in TraceGenerator::new(&warm)?.take(WARMUP) {
        client.submit_with(t.request, tx.clone());
    }
    for _ in 0..WARMUP {
        rx.recv_timeout(Duration::from_secs(30))
            .map_err(|e| format!("warm-up response lost: {e}"))?;
    }
    let before = service.metrics();
    Ok((Live { service, before }, generator, start.elapsed()))
}

struct LoadGen<'a> {
    client: rcr_serve::Client,
    tx: Sender<SolveResponse>,
    rx: &'a Receiver<SolveResponse>,
    pending: HashMap<u64, Pending>,
    books: &'a mut Books,
    tracer: Option<&'a mut Tracer>,
}

impl LoadGen<'_> {
    fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    fn next(&mut self, gen: &mut TraceGenerator) -> Option<rcr_scenarios::TimedRequest> {
        match self.tracer.as_deref_mut() {
            Some(t) => t.time("scenarios.trace_next", || gen.next()),
            None => gen.next(),
        }
    }

    fn submit(&mut self, t: rcr_scenarios::TimedRequest, due: Instant) {
        let rcr_serve::Payload::Scenario(spec) = t.request.payload else {
            unreachable!("traces carry scenario specs")
        };
        let (id, class) = (t.request.id, t.request.class);
        self.books.class[rank(class)].offered += 1;
        let submitted = Instant::now();
        self.client.submit_with(t.request, self.tx.clone());
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.record("serve.submit", submitted.elapsed());
        }
        let pending = Pending {
            class,
            seed: spec.seed,
            origin: due,
            submitted,
        };
        self.pending.insert(id, pending);
    }

    /// Receives one response (or times out) and settles it.
    fn receive(&mut self, wait: Duration) -> Result<bool, String> {
        match self.rx.recv_timeout(wait) {
            Ok(r) => {
                let at = Instant::now();
                let p = self
                    .pending
                    .remove(&r.id)
                    .ok_or_else(|| format!("response for unknown request {}", r.id))?;
                let traced = self.traced();
                self.books.settle(p, r, at, traced);
                Ok(true)
            }
            Err(RecvTimeoutError::Timeout) => Ok(false),
            Err(RecvTimeoutError::Disconnected) => Err("response channel closed".into()),
        }
    }

    /// Waits for every outstanding response.
    fn drain(&mut self) -> Result<(), String> {
        let give_up = Instant::now() + Duration::from_secs(60);
        while !self.pending.is_empty() {
            if Instant::now() > give_up {
                return Err(format!("{} responses never arrived", self.pending.len()));
            }
            self.receive(Duration::from_millis(100))?;
        }
        Ok(())
    }
}

/// The service's own counters over the measured segments.
#[derive(Default)]
struct ServiceBooks {
    /// Per class: solved, rejected, expired, failed.
    class: [[u64; 4]; 3],
    batches: u64,
    queue_depth_hw: usize,
    reuse_hits: u64,
    reuse_lookups: u64,
    reuse_evictions: u64,
}

impl ServiceBooks {
    fn add(&mut self, before: &MetricsSnapshot, after: &MetricsSnapshot) {
        for c in QosClass::ALL {
            let (a, b) = (after.class(c), before.class(c));
            let row = &mut self.class[rank(c)];
            row[0] += a.solved - b.solved;
            row[1] += a.rejected - b.rejected;
            row[2] += a.expired - b.expired;
            row[3] += a.failed - b.failed;
        }
        self.batches += after.batches - before.batches;
        self.queue_depth_hw = self.queue_depth_hw.max(after.queue_depth_high_water);
        let hits = after.reuse.hits - before.reuse.hits;
        self.reuse_hits += hits;
        self.reuse_lookups += hits + after.reuse.misses - before.reuse.misses;
        self.reuse_evictions += after.reuse.evictions - before.reuse.evictions;
    }
}

impl LoadGen<'_> {
    /// Offers open-loop load to the current service for `length` and
    /// waits for every response. Between due times the thread drains
    /// responses with `recv_timeout`, so receipt is seen without a
    /// second thread.
    fn segment(&mut self, gen: &mut TraceGenerator, length: Duration) -> Result<(), String> {
        let start = Instant::now();
        while let Some(t) = self.next(gen) {
            let offset = Duration::from_micros(t.at_us);
            if offset >= length {
                break;
            }
            let due = start + offset;
            loop {
                let now = Instant::now();
                if now >= due || !self.receive(due - now)? {
                    break;
                }
            }
            self.submit(t, due);
        }
        self.drain()
    }
}

/// Runs serve-cold and fills `out`: `SEGMENTS` segments, each on a
/// freshly set-up service with its own trace seed, so one run averages
/// over several thread placements and warm-ups.
pub fn run(seed: u64, seconds: u64, traced: bool, out: &mut Outcome) -> Result<(), String> {
    let mut tracer = traced.then(Tracer::default);
    let (tx, rx) = mpsc::channel();
    let mut setups = Vec::with_capacity(SEGMENTS);
    let mut svc = ServiceBooks::default();
    let mut cpu_ms_per_req = Vec::with_capacity(SEGMENTS);
    let length = Duration::from_secs_f64(seconds as f64 / SEGMENTS as f64);
    let mut books = Books::default();
    for k in 0..SEGMENTS {
        let (live, mut gen, took) = set_up(seed_stream(seed, k as u64))?;
        setups.push(took.as_secs_f64());
        let from = books.latency.len();
        let offered_before = books.offered();
        let cpu_before = cpu_seconds()?;
        let mut d = LoadGen {
            client: live.service.client(),
            tx: tx.clone(),
            rx: &rx,
            pending: HashMap::new(),
            books: &mut books,
            tracer: tracer.as_mut(),
        };
        d.segment(&mut gen, length)?;
        let offered = books.offered() - offered_before;
        let cpu_ms = (cpu_seconds()? - cpu_before) * 1e3 / offered.max(1) as f64;
        cpu_ms_per_req.push(cpu_ms);
        let seg = &books.latency.values()[from..];
        println!(
            "# segment {k}: set-up {:.4} s, {offered} requests, {cpu_ms:.4} CPU ms each, latency ms p50={:.4} p90={:.4}",
            took.as_secs_f64(),
            quantile_of(seg, 0.5),
            quantile_of(seg, 0.9)
        );
        svc.add(&live.before, &live.service.shutdown());
    }
    let wall = length * SEGMENTS as u32;
    let rss = peak_rss_mb();
    let check = verify(&books, traced, tracer.as_mut());
    report(
        &books,
        &svc,
        &check,
        setups,
        wall,
        cpu_ms_per_req,
        rss,
        tracer,
        out,
    );
    Ok(())
}

/// Result of replaying every served problem on the benchmark thread(s).
#[derive(Default)]
struct Check {
    /// Keys whose served answers differ from the direct solve (or among
    /// themselves), weighted by responses.
    wrong: u64,
    /// Σ over solved responses of (bound − rate) / bound.
    gap_sum: f64,
    /// Solved responses meeting every minimum rate.
    qos_met: u64,
    gaps: [Samples; 3],
    problems: Vec<String>,
}

struct Replay {
    key: (usize, u64),
    digest: u64,
    gap: f64,
    qos_met: bool,
    error: Option<String>,
    // Traced timings, µs.
    expand_us: f64,
    greedy_us: f64,
    bound_us: f64,
    detail: Option<(f64, f64)>,
}

fn replay_one(key: (usize, u64), detail: bool) -> Replay {
    let class = QosClass::ALL
        .into_iter()
        .find(|c| rank(*c) == key.0)
        .expect("rank of a class");
    let spec = ScenarioSpec {
        users: USERS,
        resource_blocks: RBS,
        seed: key.1,
    };
    let mut r = Replay {
        key,
        digest: 0,
        gap: 0.0,
        qos_met: false,
        error: None,
        expand_us: 0.0,
        greedy_us: 0.0,
        bound_us: 0.0,
        detail: None,
    };
    let t = Instant::now();
    let problem = match spec.to_problem(class) {
        Ok(p) => p,
        Err(e) => {
            r.error = Some(format!("expand {key:?}: {e}"));
            return r;
        }
    };
    r.expand_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let reference = match rra::solve_greedy(&problem) {
        Ok(s) => s,
        Err(e) => {
            r.error = Some(format!("direct greedy {key:?}: {e}"));
            return r;
        }
    };
    r.greedy_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let bound = rra::relaxation_bound_bps(&problem);
    r.bound_us = t.elapsed().as_secs_f64() * 1e6;
    r.digest = digest(&reference);
    if !(bound > 0.0) || reference.total_rate_bps > bound * (1.0 + 1e-9) {
        r.error = Some(format!(
            "rate {} above relaxation bound {bound} for {key:?}",
            reference.total_rate_bps
        ));
    }
    r.gap = (bound - reference.total_rate_bps) / bound;
    r.qos_met = reference
        .power
        .user_rates_bps
        .iter()
        .zip(&problem.min_rates_bps)
        .all(|(rate, min)| *rate >= min - 1e-9);
    if detail {
        let t = Instant::now();
        let eval = problem.evaluate(&reference.owners);
        let eval_us = t.elapsed().as_secs_f64() * 1e6;
        let power = PowerProblem {
            gains: (0..RBS)
                .map(|k| problem.normalized_gain(reference.owners[k], k))
                .collect(),
            owners: reference.owners.clone(),
            power_budget: problem.power_budget_w,
            rb_bandwidth_hz: problem.rb_bandwidth_hz,
            min_rates_bps: problem.min_rates_bps.clone(),
        };
        let t = Instant::now();
        let direct = solve_power(&power);
        let power_us = t.elapsed().as_secs_f64() * 1e6;
        match (eval, direct) {
            (Ok(e), Ok(p)) if digest(&e) == r.digest && p.total_rate_bps == e.total_rate_bps => {}
            _ => {
                r.error = Some(format!(
                    "evaluate/solve_power disagree with greedy for {key:?}"
                ))
            }
        }
        r.detail = Some((eval_us, power_us));
    }
    r
}

fn verify(books: &Books, traced: bool, tracer: Option<&mut Tracer>) -> Check {
    let keys: Vec<(usize, u64)> = books.keys.keys().copied().collect();
    let half = keys.len().div_ceil(2);
    let replays: Vec<Replay> = std::thread::scope(|s| {
        let handles: Vec<_> = keys
            .chunks(half.max(1))
            .enumerate()
            .map(|(c, chunk)| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(i, &k)| replay_one(k, traced && c * half + i < REPLAY_DETAIL))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut check = Check::default();
    let mut tracer = tracer;
    for r in replays {
        let agg = &books.keys[&r.key];
        if let Some(e) = &r.error {
            check.problems.push(e.clone());
            check.wrong += agg.count;
            continue;
        }
        if r.digest != agg.digest {
            check.wrong += agg.count;
            check.problems.push(format!(
                "served answer for {:?} differs from direct solve_greedy",
                r.key
            ));
        } else {
            check.wrong += agg.mismatches;
            if agg.mismatches > 0 {
                check.problems.push(format!(
                    "{} served answers for {:?} differ from the first",
                    agg.mismatches, r.key
                ));
            }
        }
        check.gap_sum += r.gap * agg.count as f64;
        if r.qos_met {
            check.qos_met += agg.count;
        }
        check.gaps[r.key.0].push(r.gap);
        if let Some(t) = tracer.as_deref_mut() {
            let us = |x: f64| Duration::from_nanos((x * 1e3) as u64);
            t.record("qos.expand", us(r.expand_us));
            let name = ["qos.greedy.urllc", "qos.greedy.embb", "qos.greedy.mmtc"][r.key.0];
            t.record(name, us(r.greedy_us));
            t.record("qos.bound", us(r.bound_us));
            if let Some((e, p)) = r.detail {
                t.record("qos.evaluate", us(e));
                t.record("qos.power", us(p));
            }
        }
    }
    check
}

#[allow(clippy::too_many_arguments)]
fn report(
    b: &Books,
    svc: &ServiceBooks,
    check: &Check,
    setups: Vec<f64>,
    wall: Duration,
    cpu_ms_per_req: Vec<f64>,
    rss: f64,
    tracer: Option<Tracer>,
    out: &mut Outcome,
) {
    out.correct = true;
    // Books: per class, offered = solved + rejected + expired + failed,
    // and the client's counts equal the service's counter deltas.
    for c in QosClass::ALL {
        let k = &b.class[rank(c)];
        let total = k.solved + k.rejected + k.expired + k.failed;
        if k.offered != total {
            out.problem(format!(
                "{}: offered {} != solved+rejected+expired+failed {total}",
                c.name(),
                k.offered
            ));
        }
        let counters = svc.class[rank(c)];
        if counters != [k.solved, k.rejected, k.expired, k.failed] {
            out.problem(format!(
                "{}: client books {:?} != service counters {counters:?} (solved, rejected, expired, failed)",
                c.name(),
                [k.solved, k.rejected, k.expired, k.failed]
            ));
        }
    }
    for p in &check.problems {
        out.problem(p.clone());
    }
    let offered = b.offered();
    let solved: u64 = b.class.iter().map(|k| k.solved).sum();
    let met: u64 = b.class.iter().map(|k| k.met).sum();
    let svc_failed: u64 = b.class.iter().map(|k| k.failed).sum();
    out.attempted = offered;
    out.failed = svc_failed + check.wrong;
    let secs = wall.as_secs_f64();
    print_spread("latency ms", &b.latency);
    print_spread("URLLC latency ms", &b.urllc_latency);
    let throughput = met as f64 / secs;
    let solved_f = solved.max(1) as f64;

    let mut e = Sink(&mut out.end_to_end);
    e.put_n(
        "setup_s",
        "s",
        quantile_of(&setups, 0.5),
        SEGMENTS,
        "median of set-ups",
    );
    e.put_n(
        "throughput_rps",
        "1/s",
        throughput,
        met as usize,
        "solved within deadline per second",
    );
    e.put_n(
        "cpu_ms_per_op",
        "ms",
        quantile_of(&cpu_ms_per_req, 0.5),
        SEGMENTS,
        "median over segments of process CPU time per offered request",
    );
    e.put_n(
        "ok_frac",
        "1",
        1.0 - out.failed as f64 / offered.max(1) as f64,
        offered as usize,
        "1 - failed_frac",
    );
    e.put_n("peak_rss_mb", "MB", rss, 1, "VmHWM");

    let deadline_met = met as f64 / offered.max(1) as f64;
    let failed_frac = out.failed as f64 / offered.max(1) as f64;
    let rate_gap = check.gap_sum / solved_f;
    let qos_met = check.qos_met as f64 / solved_f;
    let mut i = Sink(&mut out.info);
    i.quantile("latency_p50_ms", "ms", &b.latency, 0.5);
    i.tail("latency_tail_ms", "ms", &b.latency);
    i.quantile("urllc_p50_ms", "ms", &b.urllc_latency, 0.5);
    i.tail("urllc_tail_ms", "ms", &b.urllc_latency);
    i.put_n("deadline_met_frac", "1", deadline_met, offered as usize, "");
    i.put_n("failed_frac", "1", failed_frac, offered as usize, "");
    i.put_n("rate_gap_frac", "1", rate_gap, solved as usize, "mean");
    for c in QosClass::ALL {
        let name = format!("rate_gap_frac.{}", c.name().to_ascii_lowercase());
        let g = &check.gaps[rank(c)];
        i.put_n(&name, "1", g.mean(), g.len(), "mean over distinct problems");
    }
    i.put_n("qos_met_frac", "1", qos_met, solved as usize, "");

    let Some(tracer) = tracer else { return };
    let mut l = Sink(&mut out.per_layer);
    let next = tracer.micros("scenarios.trace_next");
    l.quantile("scenarios.trace_next_us", "us", &next, 0.5);
    l.quantile("scenarios.gen_lag_p99_ms", "ms", &b.gen_lag_ms, 0.99);
    let submit = tracer.micros("serve.submit");
    l.quantile("serve.submit_us.p50", "us", &submit, 0.5);
    l.quantile("serve.submit_us.p99", "us", &submit, 0.99);
    l.quantile("serve.queue_wait_ms.p50", "ms", &b.queue_ms, 0.5);
    l.tail("serve.queue_wait_ms.tail", "ms", &b.queue_ms);
    l.quantile("serve.solve_ms.p50", "ms", &b.solve_ms, 0.5);
    l.quantile("serve.batch_wait_ms.p50", "ms", &b.batch_wait_ms, 0.5);
    l.put_n(
        "serve.batch_size_mean",
        "count",
        b.batch_size_sum as f64 / solved_f,
        solved as usize,
        "mean over solved responses",
    );
    l.put("serve.batches", "count", svc.batches as f64);
    l.put("serve.queue_depth_hw", "count", svc.queue_depth_hw as f64);
    let sum = |f: fn(&ClassBook) -> u64| b.class.iter().map(f).sum::<u64>() as f64;
    l.put("serve.rejected", "count", sum(|k| k.rejected));
    l.put("serve.expired", "count", sum(|k| k.expired));
    l.put("serve.failed", "count", sum(|k| k.failed));
    l.put_n(
        "serve.reuse_hit_ratio",
        "1",
        svc.reuse_hits as f64 / svc.reuse_lookups.max(1) as f64,
        svc.reuse_lookups as usize,
        "",
    );
    l.put("serve.reuse_evictions", "count", svc.reuse_evictions as f64);
    l.put(
        "runtime.worker_busy_frac",
        "1",
        b.solve_total.as_secs_f64() / (WORKERS as f64 * secs),
    );
    for name in ["urllc", "embb", "mmtc"] {
        let s = tracer.micros(&format!("qos.greedy.{name}"));
        l.quantile(&format!("qos.greedy_us.{name}"), "us", &s, 0.5);
    }
    let eval = tracer.micros("qos.evaluate");
    let power = tracer.micros("qos.power");
    l.quantile("qos.evaluate_us.p50", "us", &eval, 0.5);
    l.quantile("qos.evaluate_us.p90", "us", &eval, 0.9);
    l.quantile("qos.power_us.p50", "us", &power, 0.5);
    l.quantile("qos.power_us.p90", "us", &power, 0.9);
    l.quantile("qos.expand_us", "us", &tracer.micros("qos.expand"), 0.5);
    l.quantile("qos.bound_us", "us", &tracer.micros("qos.bound"), 0.5);
    // The serve-only end-to-end figures, recorded here so they are kept.
    l.quantile("serve.urllc_p50_ms", "ms", &b.urllc_latency, 0.5);
    l.tail("serve.urllc_tail_ms", "ms", &b.urllc_latency);
    l.put_n(
        "serve.deadline_met_frac",
        "1",
        deadline_met,
        offered as usize,
        "",
    );
    l.put_n("qos.rate_gap_frac", "1", rate_gap, solved as usize, "mean");
    l.put_n("qos.qos_met_frac", "1", qos_met, solved as usize, "");
    l.put_n("failed_frac", "1", failed_frac, offered as usize, "");
    crate::relax::absent_layers(&mut l);
    // Stage reconciliation: per solved request, latency = generator lag
    // + queue + solve + batch wait exactly (batch wait is the remainder,
    // checked non-negative); the sums and medians are compared here.
    let lat_mean = b.latency.mean();
    let stage_mean =
        b.gen_lag_ms.mean() + b.queue_ms.mean() + b.solve_ms.mean() + b.batch_wait_ms.mean();
    let stage_p50 = b.gen_lag_ms.quantile(0.5)
        + b.queue_ms.quantile(0.5)
        + b.solve_ms.quantile(0.5)
        + b.batch_wait_ms.quantile(0.5);
    l.put_n(
        "trace.latency_mean_ms",
        "ms",
        lat_mean,
        b.latency.len(),
        "traced run",
    );
    l.put_n(
        "trace.stage_sum_mean_ms",
        "ms",
        stage_mean,
        b.latency.len(),
        "lag+queue+solve+batch_wait",
    );
    l.quantile("trace.latency_p50_ms", "ms", &b.latency, 0.5);
    l.tail("trace.latency_tail_ms", "ms", &b.latency);
    l.put_n(
        "trace.stage_sum_p50_ms",
        "ms",
        stage_p50,
        b.latency.len(),
        "sum of stage medians",
    );
    l.put(
        "trace.reconcile_violations",
        "count",
        b.reconcile_violations as f64,
    );
    l.put("trace.throughput_rps", "1/s", throughput);
    // Spans on the request path: the generator step and the submission.
    let spans_per_req = (next.len() + submit.len()) as f64 / offered.max(1) as f64;
    l.put_n(
        "trace.overhead_us_per_req",
        "us",
        Tracer::per_span_cost_ns() * spans_per_req / 1e3,
        tracer.len(),
        "calibrated span cost x request-path spans",
    );
    if b.reconcile_violations > 0 {
        out.problem(format!(
            "{} responses report queue + solve longer than the client saw",
            b.reconcile_violations
        ));
    }
}

/// The serve-only per-layer names, reported as absent by relax-drift so
/// every workload prints the same set.
pub fn absent_layers(l: &mut Sink) {
    for (name, unit) in [
        ("scenarios.trace_next_us", "us"),
        ("scenarios.gen_lag_p99_ms", "ms"),
        ("serve.submit_us.p50", "us"),
        ("serve.submit_us.p99", "us"),
        ("serve.queue_wait_ms.p50", "ms"),
        ("serve.queue_wait_ms.tail", "ms"),
        ("serve.solve_ms.p50", "ms"),
        ("serve.batch_wait_ms.p50", "ms"),
        ("serve.batch_size_mean", "count"),
        ("serve.batches", "count"),
        ("serve.queue_depth_hw", "count"),
        ("serve.rejected", "count"),
        ("serve.expired", "count"),
        ("serve.failed", "count"),
        ("serve.reuse_hit_ratio", "1"),
        ("serve.reuse_evictions", "count"),
        ("runtime.worker_busy_frac", "1"),
        ("qos.greedy_us.urllc", "us"),
        ("qos.greedy_us.embb", "us"),
        ("qos.greedy_us.mmtc", "us"),
        ("qos.evaluate_us.p50", "us"),
        ("qos.evaluate_us.p90", "us"),
        ("qos.power_us.p50", "us"),
        ("qos.power_us.p90", "us"),
        ("qos.expand_us", "us"),
        ("qos.bound_us", "us"),
        ("serve.urllc_p50_ms", "ms"),
        ("serve.urllc_tail_ms", "ms"),
        ("serve.deadline_met_frac", "1"),
        ("qos.rate_gap_frac", "1"),
        ("qos.qos_met_frac", "1"),
    ] {
        l.absent(name, unit);
    }
}
