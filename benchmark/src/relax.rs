//! The relax-drift workload: offline, one thread, no service.
//!
//! Each epoch drifts two rank-2-plus-diagonal covariances, decomposes
//! the n = 24 one with `rankmin::trace_min_decompose` (the Eq. 9/10
//! trace-minimization SDP, Jacobi eigensolver), projects shifted n = 32
//! ones onto the PSD cone `PROJ_PER_EPOCH` times (the SDP's Z-update, on
//! the blocked eigensolver at `EIGH_CROSSOVER`), then re-solves a
//! drifting n = 128 box QP `QP_PER_EPOCH` times through one `WarmCache`.
//!
//! Trace-min at n = 32 is not in the timed loop: the blocked eigensolver
//! fails on some of its exactly rank-deficient results (known defect
//! `eigh-rank-deficient` in `record.json`). Traced runs count those
//! failures on a fixed, seed-determined set of `PROBE_N32` problems.

use crate::report::{cpu_seconds, peak_rss_mb, print_spread, quantile_of, Outcome, Samples, Sink};
use crate::spans::Tracer;
use rcr_convex::qp::{QpProblem, QpSettings};
use rcr_convex::rankmin::{synth_low_rank_plus_diag, trace_min_decompose};
use rcr_convex::sdp::SdpSettings;
use rcr_convex::warm::WarmCache;
use rcr_linalg::{Cholesky, Matrix, SymmetricEigen};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Trace-min size in the timed loop, below `EIGH_CROSSOVER`.
const TRACEMIN_N: usize = 24;
/// PSD-projection size, at `EIGH_CROSSOVER`.
const PROJ_N: usize = 32;
/// PSD projections per epoch, about a twentieth of an epoch. Kept small
/// because the blocked eigensolver's speed moves most with the shared
/// host's load (±25 % from run to run, against ±8 % for trace-min).
const PROJ_PER_EPOCH: usize = 32;
/// n = 32 trace-min decompositions in a traced run's defect probe.
const PROBE_N32: usize = 24;
const RANK: usize = 2;
const QP_N: usize = 128;
/// Warm QP re-solves per epoch: enough that the QP path takes about a
/// third of an epoch or more, so a regression there moves the throughput.
const QP_PER_EPOCH: usize = 8;
/// The epoch's last QP is checked against a cold solve every this many
/// epochs.
const COLD_CHECK_EVERY: u64 = 8;
const SETUPS: usize = 9;
/// Segments per run. Throughput and CPU per solve are taken per segment
/// and the median reported, so a stretch in which the shared host runs
/// slow moves them by one segment's rank.
const SEGMENTS: u32 = 10;
/// SDP iterations run per size during set-up.
const WARMUP_SDP_ITERS: usize = 50;
/// AR(1) coefficients: how much of the previous epoch's covariances and
/// QP Hessian factor, and of the previous QP's linear term, survive into
/// the next. The linear term decorrelates within about a hundred QPs, so
/// a run sees many independent problems and its figures depend little on
/// the seed.
const COV_KEEP: f64 = 0.5;
const Q_KEEP: f64 = 0.99;

/// splitmix64 stream with uniform and normal draws.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn uniform(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    fn normal(&mut self) -> f64 {
        let (u, v) = (self.uniform(), self.uniform());
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    fn matrix(&mut self, rows: usize, cols: usize, scale: f64) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| scale * self.normal())
    }
}

/// One drifting low-rank-plus-diagonal covariance.
struct Cov {
    v: Matrix,
    d: Vec<f64>,
}

impl Cov {
    fn new(rng: &mut Rng, n: usize) -> Cov {
        Cov {
            v: rng.matrix(n, RANK, 1.0),
            d: (0..n).map(|_| 0.5 + rng.uniform()).collect(),
        }
    }

    /// One AR(1) step towards fresh draws: the covariance keeps half of
    /// its previous state, so a run sees many independent-ish instances
    /// from one stationary distribution rather than one slow walk.
    fn drift(&mut self, rng: &mut Rng) {
        let keep = COV_KEEP;
        let fresh = (1.0 - keep * keep).sqrt();
        let step = rng.matrix(self.v.rows(), RANK, fresh);
        self.v = &(&self.v * keep) + &step;
        for d in &mut self.d {
            *d = (1.0 + keep * (*d - 1.0) + 0.25 * fresh * rng.normal()).clamp(0.3, 2.0);
        }
    }

    fn r_s(&self) -> Matrix {
        synth_low_rank_plus_diag(&self.v, &self.d).expect("d matches v's rows")
    }

    /// `R_s` shifted by its mean eigenvalue: indefinite and full rank,
    /// so its PSD projection drops all but the low-rank modes.
    fn shifted(&self) -> Matrix {
        let mut a = self.r_s();
        let shift = a.trace() / a.rows() as f64;
        for i in 0..a.rows() {
            a[(i, i)] -= shift;
        }
        a
    }
}

/// The QP's `P = M·Mᵀ + 0.5·I`, `M` drifting once per epoch, so a run
/// averages over many instances rather than one seed-fixed `P`.
struct Hessian {
    m: Matrix,
    p: Matrix,
}

impl Hessian {
    fn new(rng: &mut Rng) -> Result<Hessian, String> {
        let m = rng.matrix(QP_N, QP_N, 1.0 / (QP_N as f64).sqrt());
        let p = Hessian::p_of(&m)?;
        Ok(Hessian { m, p })
    }

    fn p_of(m: &Matrix) -> Result<Matrix, String> {
        let mut p = m.matmul(&m.transpose()).map_err(|e| e.to_string())?;
        for i in 0..QP_N {
            p[(i, i)] += 0.5;
        }
        p.symmetrize().map_err(|e| e.to_string())
    }

    fn drift(&mut self, rng: &mut Rng) -> Result<(), String> {
        let fresh = (1.0 - COV_KEEP * COV_KEEP).sqrt();
        let step = rng.matrix(QP_N, QP_N, fresh / (QP_N as f64).sqrt());
        self.m = &(&self.m * COV_KEEP) + &step;
        self.p = Hessian::p_of(&self.m)?;
        Ok(())
    }
}

/// The drifting state of one run.
struct State {
    rng: Rng,
    tracemin: Cov,
    proj: Cov,
    hessian: Hessian,
    q: Vec<f64>,
    warm: WarmCache,
}

fn qp(p: &Matrix, q: &[f64]) -> QpProblem {
    QpProblem::new(
        p.clone(),
        q.to_vec(),
        Matrix::identity(QP_N),
        vec![-1.0; QP_N],
        vec![1.0; QP_N],
    )
    .expect("well-formed box QP")
}

/// Builds the inputs, warms the cache with the epoch-0 QP, runs a fixed
/// number of SDP iterations and one epoch's projections (the same work
/// for every seed, so set-up time does not depend on the data).
fn set_up(seed: u64) -> Result<(State, Duration), String> {
    let start = Instant::now();
    let mut rng = Rng(seed);
    let tracemin = Cov::new(&mut rng, TRACEMIN_N);
    let proj = Cov::new(&mut rng, PROJ_N);
    let hessian = Hessian::new(&mut rng)?;
    let q: Vec<f64> = (0..QP_N).map(|_| rng.normal()).collect();
    let mut warm = WarmCache::default();
    warm.solve_qp(&qp(&hessian.p, &q), &QpSettings::default())
        .map_err(|e| format!("warm-up QP: {e}"))?;
    let fixed = SdpSettings {
        max_iter: WARMUP_SDP_ITERS,
        tol: 0.0,
        ..SdpSettings::default()
    };
    // Runs out its iteration budget by design; only the work counts.
    let _ = trace_min_decompose(&tracemin.r_s(), &fixed);
    let a = proj.shifted();
    for _ in 0..PROJ_PER_EPOCH {
        black_box(
            a.psd_projection()
                .map_err(|e| format!("warm-up projection: {e}"))?,
        );
    }
    let state = State {
        rng,
        tracemin,
        proj,
        hessian,
        q,
        warm,
    };
    Ok((state, start.elapsed()))
}

/// Checks a decomposition: ‖R_c + R_n − R_s‖∞ ≤ 1e-4 and rank 2.
fn decomposition_error(r_s: &Matrix, r_c: &Matrix, r_n: &Matrix, rank: usize) -> Option<String> {
    let resid = (&(r_c + r_n) - r_s).max_abs();
    if !(resid <= 1e-4) {
        return Some(format!("‖R_c + R_n − R_s‖∞ = {resid:e} > 1e-4"));
    }
    (rank != RANK).then(|| format!("rank {rank} != {RANK}"))
}

/// Checks `p` is the PSD projection of `a` without another
/// eigendecomposition: `p` and `p − a` are both PSD (Cholesky after a
/// tiny shift) and complementary, ‖p·(p − a)‖∞ ≤ 1e-9·scale². Together
/// these characterise the projection (Moreau decomposition).
fn projection_error(a: &Matrix, p: &Matrix) -> Option<String> {
    let scale = a.max_abs().max(1.0);
    let eps = &Matrix::identity(a.rows()) * (1e-9 * scale);
    let n = p - a;
    for (what, m) in [("P", p), ("P - A", &n)] {
        let shifted = match (m + &eps).symmetrize() {
            Ok(s) => s,
            Err(e) => return Some(format!("{what}: {e}")),
        };
        if let Err(e) = Cholesky::new(&shifted) {
            return Some(format!("{what} is not PSD: {e}"));
        }
    }
    let gap = match p.matmul(&n) {
        Ok(pn) => pn.max_abs(),
        Err(e) => return Some(e.to_string()),
    };
    (!(gap <= 1e-9 * scale * scale)).then(|| format!("‖P(P − A)‖∞ = {gap:e}"))
}

#[derive(Default)]
struct Books {
    attempted: u64,
    failed: u64,
    /// Successful-solve times, ms (projections µs).
    tracemin_ms: Samples,
    proj_us: Samples,
    qp_ms: Samples,
    tracemin_failures: u64,
    errors: Vec<String>,
    sdp_iters: Samples,
    qp_iters: Samples,
    cold_checks: u64,
    epochs: u64,
    /// Wall time of each epoch and the sum of its timed solves, ms.
    epoch_ms: Samples,
    op_sum_ms: Samples,
    /// Epochs whose timed solves add up to more than the epoch's time.
    reconcile_violations: u64,
    /// Per segment: successful solves per second, CPU ms per attempt.
    segment_rps: Vec<f64>,
    segment_cpu_ms: Vec<f64>,
}

impl Books {
    fn succeeded(&self) -> usize {
        self.tracemin_ms.len() + self.proj_us.len() + self.qp_ms.len()
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.errors.push(msg);
    }
}

/// What a traced run's n = 32 trace-min probe found.
#[derive(Default)]
struct Probe {
    tracemin_ms: Samples,
    failures: u64,
    /// R_c of the successful decompositions, for the eigensolver timing.
    returned: Vec<Matrix>,
}

/// Decomposes `PROBE_N32` drifting n = 32 covariances from a stream of
/// their own, so the problems depend only on the seed. Untimed by the
/// run; a failure here is the known defect and does not count in
/// `failed`.
fn probe_n32(seed: u64, sdp: &SdpSettings) -> Probe {
    let mut rng = Rng(seed ^ 0x7072_6f62_655f_3332);
    let mut cov = Cov::new(&mut rng, PROJ_N);
    let mut probe = Probe::default();
    for _ in 0..PROBE_N32 {
        cov.drift(&mut rng);
        let r_s = cov.r_s();
        let t = Instant::now();
        let res = trace_min_decompose(&r_s, sdp);
        let took = t.elapsed();
        match res {
            Ok(r) if decomposition_error(&r_s, &r.r_c, &r.r_n, r.rank).is_none() => {
                probe.tracemin_ms.push(took.as_secs_f64() * 1e3);
                probe.returned.push(r.r_c);
            }
            _ => probe.failures += 1,
        }
    }
    probe
}

pub fn run(seed: u64, seconds: u64, traced: bool, out: &mut Outcome) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        let (s, took) = set_up(seed)?;
        setups.push(took.as_secs_f64());
        state = Some(s);
    }
    let mut st = state.expect("at least one set-up");
    let warm_before = st.warm.stats();
    let mut tracer = traced.then(Tracer::default);
    let sdp = SdpSettings::default();
    let qps = QpSettings::default();
    let mut b = Books::default();
    let horizon = Duration::from_secs(seconds);
    let segment = horizon / SEGMENTS;
    let cpu_before = cpu_seconds()?;
    let start = Instant::now();
    // Books, CPU time and wall time at the start of the open segment.
    let mut seg_from = (0, 0, cpu_before, Duration::ZERO);
    while start.elapsed() < horizon {
        let epoch_start = Instant::now();
        let mut op_sum = Duration::ZERO;
        // Answer checks, kept out of the epoch's time.
        let mut check_time = Duration::ZERO;
        st.tracemin.drift(&mut st.rng);
        let r_s = st.tracemin.r_s();
        b.attempted += 1;
        let t = Instant::now();
        let res = trace_min_decompose(&r_s, &sdp);
        let took = t.elapsed();
        op_sum += took;
        let mut returned = None;
        match res {
            Ok(r) => match decomposition_error(&r_s, &r.r_c, &r.r_n, r.rank) {
                None => {
                    b.tracemin_ms.push(took.as_secs_f64() * 1e3);
                    b.sdp_iters.push(r.sdp_iterations as f64);
                    returned = Some(r.r_c);
                }
                Some(e) => {
                    b.tracemin_failures += 1;
                    b.fail(format!("n={TRACEMIN_N} wrong answer: {e}"));
                }
            },
            Err(e) => {
                b.tracemin_failures += 1;
                b.fail(format!("n={TRACEMIN_N}: {e}"));
            }
        }
        for _ in 0..PROJ_PER_EPOCH {
            st.proj.drift(&mut st.rng);
            let a = st.proj.shifted();
            b.attempted += 1;
            let t = Instant::now();
            let res = a.psd_projection();
            let took = t.elapsed();
            op_sum += took;
            let t = Instant::now();
            match res.map(|p| projection_error(&a, &p)) {
                Ok(None) => b.proj_us.push(took.as_secs_f64() * 1e6),
                Ok(Some(e)) => b.fail(format!("n={PROJ_N} projection wrong: {e}")),
                Err(e) => b.fail(format!("n={PROJ_N} projection: {e}")),
            }
            check_time += t.elapsed();
        }
        st.hessian.drift(&mut st.rng)?;
        let fresh = (1.0 - Q_KEEP * Q_KEEP).sqrt();
        let mut last = None;
        for k in 0..QP_PER_EPOCH {
            for q in &mut st.q {
                *q = Q_KEEP * *q + fresh * st.rng.normal();
            }
            let problem = qp(&st.hessian.p, &st.q);
            b.attempted += 1;
            let t = Instant::now();
            let res = st.warm.solve_qp(&problem, &qps);
            let took = t.elapsed();
            op_sum += took;
            let sol = match res {
                Ok((sol, _)) => sol,
                Err(e) => {
                    b.fail(format!("warm QP: {e}"));
                    continue;
                }
            };
            if k + 1 == QP_PER_EPOCH && b.epochs % COLD_CHECK_EVERY == 0 {
                let t = Instant::now();
                b.cold_checks += 1;
                let cold = problem.solve(&qps);
                check_time += t.elapsed();
                match cold {
                    Ok(cold) if (cold.objective - sol.objective).abs() <= 1e-5 => {}
                    Ok(cold) => {
                        b.fail(format!(
                            "warm QP objective {} vs cold {}",
                            sol.objective, cold.objective
                        ));
                        continue;
                    }
                    Err(e) => {
                        b.fail(format!("cold QP: {e}"));
                        continue;
                    }
                }
            }
            b.qp_ms.push(took.as_secs_f64() * 1e3);
            b.qp_iters.push(sol.iterations as f64);
            last = Some(problem);
        }
        let epoch = epoch_start.elapsed().saturating_sub(check_time);
        b.epoch_ms.push(epoch.as_secs_f64() * 1e3);
        b.op_sum_ms.push(op_sum.as_secs_f64() * 1e3);
        if op_sum > epoch {
            b.reconcile_violations += 1;
        }
        if let (Some(t), Some(problem)) = (tracer.as_mut(), &last) {
            layer_probes(t, &st, problem, &qps, returned.as_ref());
        }
        b.epochs += 1;
        let now = start.elapsed();
        if now >= segment * (b.segment_rps.len() as u32 + 1) || now >= horizon {
            let (ok, attempted, cpu, at) = seg_from;
            let cpu_now = cpu_seconds()?;
            let (ok_now, att_now) = (b.succeeded(), b.attempted);
            let rps = (ok_now - ok) as f64 / (now - at).as_secs_f64();
            let cpu_ms = (cpu_now - cpu) * 1e3 / (att_now - attempted).max(1) as f64;
            println!(
                "# segment {}: {} epochs so far, {rps:.2} solves/s, {cpu_ms:.4} CPU ms each",
                b.segment_rps.len(),
                b.epochs
            );
            b.segment_rps.push(rps);
            b.segment_cpu_ms.push(cpu_ms);
            seg_from = (ok_now, att_now, cpu_now, now);
        }
    }
    let rss = peak_rss_mb();
    let warm = st.warm.stats();
    let probe = tracer.as_mut().map(|t| {
        let probe = probe_n32(seed, &sdp);
        for r_c in &probe.returned {
            let _ = black_box(t.time("linalg.eigh.n32", || SymmetricEigen::new(r_c)));
        }
        probe
    });
    report(&b, setups, rss, warm_before, warm, tracer, probe, out);
    Ok(())
}

/// Traced run only: time the linalg and kernels calls the solvers make,
/// on this epoch's data, outside the timed solves.
fn layer_probes(
    t: &mut Tracer,
    st: &State,
    problem: &QpProblem,
    qps: &QpSettings,
    returned: Option<&Matrix>,
) {
    if let Some(r_c) = returned {
        let _ = black_box(t.time("linalg.eigh.n24", || SymmetricEigen::new(r_c)));
    }
    if let Ok(kkt) = problem.kkt_matrix(qps.rho, qps.sigma) {
        let _ = black_box(t.time("linalg.cholesky", || Cholesky::new(&kkt)));
    }
    let r_s = st.proj.r_s();
    for (name, m) in [
        ("kernels.gemm.n32", &r_s),
        ("kernels.gemm.n128", &st.hessian.p),
    ] {
        let n = m.rows();
        let mut c = vec![0.0; n * n];
        t.time(name, || {
            rcr_kernels::gemm(n, n, n, m.as_slice(), m.as_slice(), &mut c)
        });
        black_box(&c);
    }
}
#[allow(clippy::too_many_arguments)]
fn report(
    b: &Books,
    setups: Vec<f64>,
    rss: f64,
    warm_before: rcr_convex::warm::WarmStats,
    warm: rcr_convex::warm::WarmStats,
    tracer: Option<Tracer>,
    probe: Option<Probe>,
    out: &mut Outcome,
) {
    out.correct = true;
    out.attempted = b.attempted;
    out.failed = b.failed;
    print_spread("epoch ms", &b.epoch_ms);
    let throughput = quantile_of(&b.segment_rps, 0.5);
    let mut e = Sink(&mut out.end_to_end);
    e.put_n(
        "setup_s",
        "s",
        quantile_of(&setups, 0.5),
        SETUPS,
        "median of set-ups",
    );
    e.put_n(
        "throughput_rps",
        "1/s",
        throughput,
        b.segment_rps.len(),
        "median over segments of successful solves per second",
    );
    e.put_n(
        "cpu_ms_per_op",
        "ms",
        quantile_of(&b.segment_cpu_ms, 0.5),
        b.segment_cpu_ms.len(),
        "median over segments of process CPU time per attempted solve",
    );
    let failed_frac = b.failed as f64 / b.attempted.max(1) as f64;
    e.put_n(
        "ok_frac",
        "1",
        1.0 - failed_frac,
        b.attempted as usize,
        "1 - failed_frac",
    );
    e.put_n("peak_rss_mb", "MB", rss, 1, "VmHWM");

    let mut i = Sink(&mut out.info);
    // Per epoch, so the figure does not depend on how many decompositions
    // succeed.
    i.quantile("latency_p50_ms", "ms", &b.epoch_ms, 0.5);
    i.tail("latency_tail_ms", "ms", &b.epoch_ms);
    i.put_n("failed_frac", "1", failed_frac, b.attempted as usize, "");
    i.put_n(
        "tracemin_failed.n24",
        "count",
        b.tracemin_failures as f64,
        b.epochs as usize,
        "decompositions failed or wrong",
    );
    i.put_n("epochs", "count", b.epochs as f64, b.epochs as usize, "");
    i.put_n(
        "qp_cold_checks",
        "count",
        b.cold_checks as f64,
        b.cold_checks as usize,
        "",
    );
    for name in ["urllc_p50_ms", "urllc_tail_ms"] {
        i.absent(name, "ms");
    }
    for name in ["deadline_met_frac", "rate_gap_frac", "qos_met_frac"] {
        i.absent(name, "1");
    }
    let mut seen = std::collections::BTreeMap::new();
    for err in &b.errors {
        *seen
            .entry(err.split(':').next().unwrap_or(err))
            .or_insert(0u64) += 1;
    }
    for (kind, count) in seen {
        println!("failure: {count} x {kind}");
    }
    if let Some(first) = b.errors.first() {
        println!("first failure: {first}");
    }

    let (Some(tracer), Some(probe)) = (tracer, probe) else {
        return;
    };
    let mut l = Sink(&mut out.per_layer);
    crate::serve::absent_layers(&mut l);
    l.put_n("failed_frac", "1", failed_frac, b.attempted as usize, "");
    l.quantile("convex.tracemin_ms.n24", "ms", &b.tracemin_ms, 0.5);
    l.quantile("convex.tracemin_ms.n32", "ms", &probe.tracemin_ms, 0.5);
    l.put_n(
        "convex.tracemin_failures.n24",
        "count",
        b.tracemin_failures as f64,
        b.epochs as usize,
        "",
    );
    l.put_n(
        "convex.tracemin_failures.n32",
        "count",
        probe.failures as f64,
        PROBE_N32,
        "known defect eigh-rank-deficient, untimed probe",
    );
    l.put_n(
        "convex.sdp_iters",
        "count",
        b.sdp_iters.mean(),
        b.sdp_iters.len(),
        "mean",
    );
    l.quantile("convex.qp_warm_ms", "ms", &b.qp_ms, 0.5);
    l.put_n(
        "convex.qp_iters",
        "count",
        b.qp_iters.mean(),
        b.qp_iters.len(),
        "mean",
    );
    let hits = warm.hits - warm_before.hits;
    let lookups = hits + warm.misses - warm_before.misses;
    l.put_n(
        "convex.warm_hit_ratio",
        "1",
        hits as f64 / lookups.max(1) as f64,
        lookups as usize,
        "",
    );
    let reuses = warm.factorization_reuses - warm_before.factorization_reuses;
    l.put_n(
        "convex.factor_reuse_ratio",
        "1",
        reuses as f64 / hits.max(1) as f64,
        hits as usize,
        "of warm hits",
    );
    l.quantile(
        "linalg.eigh_us.n24",
        "us",
        &tracer.micros("linalg.eigh.n24"),
        0.5,
    );
    l.quantile(
        "linalg.eigh_us.n32",
        "us",
        &tracer.micros("linalg.eigh.n32"),
        0.5,
    );
    l.quantile("linalg.psd_projection_us", "us", &b.proj_us, 0.5);
    l.quantile(
        "linalg.cholesky_us",
        "us",
        &tracer.micros("linalg.cholesky"),
        0.5,
    );
    for n in [32usize, 128] {
        let s = tracer.micros(&format!("kernels.gemm.n{n}"));
        let flops = 2.0 * (n as f64).powi(3);
        l.quantile(&format!("kernels.gemm_us.n{n}"), "us", &s, 0.5);
        l.put_n(
            &format!("kernels.gemm_gflops.n{n}"),
            "GFLOP/s",
            flops / (s.quantile(0.5) * 1e3),
            s.len(),
            "computed 2n^3 flops over the median time",
        );
        l.put_n(
            &format!("kernels.gemm_bytes.n{n}"),
            "B",
            3.0 * (n * n * 8) as f64,
            0,
            "computed: A, B and C once",
        );
    }
    // Reconciliation: an epoch's wall time against the sum of its timed
    // solves (the remainder is drift generation and bookkeeping).
    l.put_n(
        "trace.latency_mean_ms",
        "ms",
        b.epoch_ms.mean(),
        b.epoch_ms.len(),
        "per epoch",
    );
    l.put_n(
        "trace.stage_sum_mean_ms",
        "ms",
        b.op_sum_ms.mean(),
        b.op_sum_ms.len(),
        "sum of timed solves per epoch",
    );
    l.quantile("trace.latency_p50_ms", "ms", &b.epoch_ms, 0.5);
    l.tail("trace.latency_tail_ms", "ms", &b.epoch_ms);
    l.put_n(
        "trace.stage_sum_p50_ms",
        "ms",
        b.op_sum_ms.quantile(0.5),
        b.op_sum_ms.len(),
        "per epoch",
    );
    l.put(
        "trace.reconcile_violations",
        "count",
        b.reconcile_violations as f64,
    );
    l.put("trace.throughput_rps", "1/s", throughput);
    l.put_n(
        "trace.overhead_us_per_req",
        "us",
        Tracer::per_span_cost_ns() * tracer.len() as f64 / b.attempted.max(1) as f64 / 1e3,
        tracer.len(),
        "calibrated span cost x spans per solve",
    );
}

/// The relax-drift per-layer names, reported as absent by the serve
/// workloads so every workload prints the same set.
pub fn absent_layers(l: &mut Sink) {
    for (name, unit) in [
        ("convex.tracemin_ms.n24", "ms"),
        ("convex.tracemin_ms.n32", "ms"),
        ("convex.tracemin_failures.n24", "count"),
        ("convex.tracemin_failures.n32", "count"),
        ("convex.sdp_iters", "count"),
        ("convex.qp_warm_ms", "ms"),
        ("convex.qp_iters", "count"),
        ("convex.warm_hit_ratio", "1"),
        ("convex.factor_reuse_ratio", "1"),
        ("linalg.eigh_us.n24", "us"),
        ("linalg.eigh_us.n32", "us"),
        ("linalg.psd_projection_us", "us"),
        ("linalg.cholesky_us", "us"),
        ("kernels.gemm_us.n32", "us"),
        ("kernels.gemm_gflops.n32", "GFLOP/s"),
        ("kernels.gemm_bytes.n32", "B"),
        ("kernels.gemm_us.n128", "us"),
        ("kernels.gemm_gflops.n128", "GFLOP/s"),
        ("kernels.gemm_bytes.n128", "B"),
    ] {
        l.absent(name, unit);
    }
}
