//! Regression benchmarks backing the committed `BENCH_10.json` baseline:
//! the blocked GEMM microkernel against the naive triple loop, the
//! blocked factorization layer (Cholesky, the PSD projection's
//! eigensolver, the batched small-matrix path) against its unblocked /
//! Jacobi ancestors, the trace-minimization SDP solve, the
//! scratch-pooled IBP/CROWN paths against their allocating ancestors,
//! exact branch-and-bound verification, warm-started vs cold solves of a
//! drifting QP, the QoS power allocation and Greedy solve, and service
//! throughput.
//!
//! Run with JSON output for the gate (pass an absolute path: cargo runs
//! bench binaries with the package directory, not the workspace root, as
//! their working directory — `scripts/verify.sh --bench-smoke` does this):
//!
//! ```text
//! cargo bench -p rcr-bench --bench bench_kernels --features alloc-count \
//!     -- --save-json "$PWD/target/bench_current.json"
//! cargo run -p rcr-bench --bin bench_gate -- \
//!     target/bench_current.json BENCH_10.json
//! ```
//!
//! All inputs are fixed splitmix64 streams so wall times and (for the
//! single-threaded benches) allocation counts are reproducible.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rcr_convex::qp::{QpProblem, QpSettings};
use rcr_convex::rankmin::{synth_low_rank_plus_diag, trace_min_decompose};
use rcr_convex::sdp::SdpSettings;
use rcr_convex::warm::WarmCache;
use rcr_core::robust::{train_classifier, BlobData, RobustTrainConfig, TrainMode};
use rcr_kernels::{gemm, gemm_naive, Scratch};
use rcr_linalg::{Cholesky, LinalgError, Matrix, SymmetricEigen};
use rcr_qos::power::{solve_power, PowerProblem};
use rcr_qos::rra::solve_greedy;
use rcr_qos::workload::{Scenario, ScenarioConfig};
use rcr_qos::QosClass;
use rcr_serve::{Payload, ScenarioSpec, Service, ServiceConfig, SolveRequest, SolverKind, Ticket};
use rcr_verify::bounds::{interval_bounds, interval_bounds_scratch};
use rcr_verify::crown::{crown_lower_value_scratch, crown_lower_with_bounds};
use rcr_verify::exact::{verify_complete, BnbSettings};
use rcr_verify::net::{AffineReluNet, Specification};
use std::hint::black_box;
use std::time::Duration;

/// Deterministic pseudo-random values in [-1, 1] (splitmix64).
fn weights(n: usize, mut state: u64) -> Vec<f64> {
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

/// Square-matrix product, naive vs register/cache-blocked kernel. The
/// baseline pins a `>= 2x` blocked-over-naive speedup at 128 and 256
/// (the sizes where the cache blocking pays for its bookkeeping).
fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(15);
    for &n in &[32usize, 128, 256] {
        let a = weights(n * n, 0x11);
        let b = weights(n * n, 0x22);
        let mut out = vec![0.0; n * n];
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |be, &n| {
            be.iter(|| {
                gemm_naive(n, n, n, black_box(&a), black_box(&b), &mut out);
                out[0]
            })
        });
        let mut out2 = vec![0.0; n * n];
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |be, &n| {
            be.iter(|| {
                gemm(n, n, n, black_box(&a), black_box(&b), &mut out2);
                out2[0]
            })
        });
    }
    group.finish();
}

/// Deterministic dense SPD matrix: `GᵀG/n + I` over a splitmix64 draw.
fn spd(n: usize, seed: u64) -> Matrix {
    let g = Matrix::from_vec(n, n, weights(n * n, seed)).expect("spd seed");
    let mut a = g
        .transpose()
        .matmul(&g)
        .expect("gram")
        .scale(1.0 / n as f64);
    for i in 0..n {
        a[(i, i)] += 1.0;
    }
    a
}

/// Deterministic dense symmetric (indefinite) matrix over a splitmix64
/// draw — the shape the SDP Z-update projects every ADMM iteration.
fn symmetric(n: usize, seed: u64) -> Matrix {
    let g = Matrix::from_vec(n, n, weights(n * n, seed)).expect("sym seed");
    Matrix::from_fn(n, n, |i, j| 0.5 * (g[(i, j)] + g[(j, i)]))
}

/// The historical unblocked left-looking Cholesky that `rcr-linalg` ran
/// before the blocked kernel, statement for statement: the slower leg of
/// the `cholesky/` speedup floor. Returns `L`.
fn cholesky_unblocked_reference(a: &Matrix) -> Result<Matrix, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if !a.is_finite() {
        return Err(LinalgError::NotFinite);
    }
    let n = a.rows();
    let tol = 1e-13 * a.max_abs().max(1.0);
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if d <= tol {
            return Err(LinalgError::NotPositiveDefinite { pivot: j });
        }
        let dj = d.sqrt();
        l[(j, j)] = dj;
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = s / dj;
        }
    }
    Ok(l)
}

/// Maximum number of full Jacobi sweeps before reporting non-convergence.
const MAX_SWEEPS: usize = 100;

/// The historical cyclic-Jacobi eigensolver that `rcr-linalg` ran before
/// the blocked tridiagonalization + implicit-QL kernel, statement for
/// statement: the slower leg of the `sdp/projection` and `eigh_batch`
/// speedup floors. Returns the eigenvalues ascending with matching
/// eigenvector columns.
fn eigen_jacobi_reference(a: &Matrix) -> Result<(Vec<f64>, Matrix), LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if !a.is_finite() {
        return Err(LinalgError::NotFinite);
    }
    let scale = a.max_abs().max(1.0);
    if !a.is_symmetric(1e-8 * scale) {
        return Err(LinalgError::InvalidInput("matrix is not symmetric".into()));
    }
    let n = a.rows();
    let mut m = a.symmetrize()?;
    let mut v = Matrix::identity(n);
    let tol = 1e-14 * scale;

    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                off += m[(p, q)] * m[(p, q)];
            }
        }
        if off.sqrt() <= tol {
            return Ok(jacobi_sorted(m, v));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= tol * 1e-2 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                // Classic Jacobi rotation angle.
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Update rows/columns p and q of M.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                // Accumulate eigenvectors.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    Err(LinalgError::NonConvergence {
        iterations: MAX_SWEEPS,
    })
}

/// Sorts a converged Jacobi iterate's diagonal ascending (IEEE total
/// order) and permutes the eigenvector columns to match.
fn jacobi_sorted(m: Matrix, v: Matrix) -> (Vec<f64>, Matrix) {
    let n = m.rows();
    let mut idx: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    idx.sort_by(|&a, &b| diag[a].total_cmp(&diag[b]));
    let eigenvalues: Vec<f64> = idx.iter().map(|&i| diag[i]).collect();
    let eigenvectors = Matrix::from_fn(n, n, |r, c| v[(r, idx[c])]);
    (eigenvalues, eigenvectors)
}

/// One-shot dense Cholesky at the KKT sizes the QP path factors:
/// unblocked reference column algorithm vs the right-looking blocked
/// kernel behind [`Cholesky::new`]. The baseline pins a `>= 1.5x`
/// blocked-over-unblocked speedup at 96 (satisfying the issue floor at
/// `n >= 64`; the gap widens with size as the SYRK trailing update takes
/// over the flops).
fn bench_cholesky(c: &mut Criterion) {
    let mut group = c.benchmark_group("cholesky");
    group.sample_size(30);
    let n = 96usize;
    let a = spd(n, 0x77);
    group.bench_with_input(BenchmarkId::new("unblocked", n), &n, |be, _| {
        be.iter(|| cholesky_unblocked_reference(black_box(&a)).expect("spd")[(0, 0)])
    });
    group.bench_with_input(BenchmarkId::new("blocked", n), &n, |be, _| {
        be.iter(|| Cholesky::new(black_box(&a)).expect("spd").factor()[(0, 0)])
    });
    group.finish();
}

/// The SDP solver's per-iteration hot path: projection of a symmetric
/// iterate onto the PSD cone. `jacobi` is the historical cyclic-Jacobi
/// eigensolver followed by the `V·diag·Vᵀ` rebuild
/// `SymmetricEigen::reconstruct_with` performs; `blocked` is what
/// [`Matrix::psd_projection`] runs — `SymmetricEigen::new`, the blocked
/// tridiagonalization + implicit-QL kernel at every size. The baseline
/// pins the end-to-end projection speedup this rewiring bought.
/// `tracemin` is a whole SDP solve, pinned by its p25 and allocation
/// count.
fn bench_sdp(c: &mut Criterion) {
    let mut group = c.benchmark_group("sdp");
    group.sample_size(20);
    let n = 64usize;
    let a = symmetric(n, 0x88);
    group.bench_with_input(BenchmarkId::new("projection/jacobi", n), &n, |be, _| {
        be.iter(|| {
            let (vals, vecs) = eigen_jacobi_reference(black_box(&a)).expect("eigen");
            let clipped: Vec<f64> = vals.iter().map(|&l| l.max(0.0)).collect();
            let vd = Matrix::from_fn(n, n, |r, c| vecs[(r, c)] * clipped[c]);
            vd.matmul(&vecs.transpose()).expect("reconstruct")[(0, 0)]
        })
    });
    group.bench_with_input(BenchmarkId::new("projection/blocked", n), &n, |be, _| {
        be.iter(|| black_box(&a).psd_projection().expect("projection")[(0, 0)])
    });
    // The whole trace-minimization SDP (Eq. 9/10) on a fixed rank-2
    // n = 24 input: 276 two-nonzero constraints, so the sparse Gram
    // build and X-update sit beside ~50 PSD projections.
    let n = 24usize;
    let v = Matrix::from_vec(n, 2, weights(n * 2, 0x8A)).expect("shape");
    let d: Vec<f64> = (0..n).map(|i| 0.5 + 0.02 * i as f64).collect();
    let r_s = synth_low_rank_plus_diag(&v, &d).expect("shape");
    let settings = SdpSettings::default();
    group.bench_with_input(BenchmarkId::new("tracemin", n), &n, |be, _| {
        be.iter(|| {
            trace_min_decompose(black_box(&r_s), &settings)
                .expect("trace-min")
                .trace
        })
    });
    group.finish();
}

/// Eigendecomposing a batch of independent Gram-sized matrices, one after
/// another on one thread: the pinned ratio is the algorithmic
/// tridiag+QL-over-Jacobi win. The blocked leg reuses one [`Scratch`]
/// pool across items and iterations, so its steady state allocates only
/// the results.
fn bench_eigh_batch(c: &mut Criterion) {
    const ITEMS: usize = 16;
    const N: usize = 48;
    let items: Vec<Matrix> = (0..ITEMS).map(|i| symmetric(N, 0x99 + i as u64)).collect();
    let mut group = c.benchmark_group("eigh_batch");
    group.sample_size(15);
    group.bench_function(BenchmarkId::new("jacobi", N), |be| {
        be.iter(|| {
            items
                .iter()
                .map(|a| eigen_jacobi_reference(black_box(a)).expect("eigen").0[0])
                .sum::<f64>()
        })
    });
    let mut scratch = Scratch::new();
    group.bench_function(BenchmarkId::new("blocked", N), |be| {
        be.iter(|| {
            black_box(&items)
                .iter()
                .map(|a| SymmetricEigen::new_blocked_with_scratch(a, &mut scratch))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|e| e.expect("eigen").eigenvalues()[0])
                .sum::<f64>()
        })
    });
    group.finish();
}

/// Fixed 6-128-128-8 synthetic network shared by the IBP and CROWN
/// benches; wide enough that per-layer propagation dominates call
/// overhead.
fn test_net() -> AffineReluNet {
    AffineReluNet::new(vec![
        (
            Matrix::from_vec(128, 6, weights(768, 1)).expect("w1"),
            weights(128, 2),
        ),
        (
            Matrix::from_vec(128, 128, weights(16384, 3)).expect("w2"),
            weights(128, 4),
        ),
        (
            Matrix::from_vec(8, 128, weights(1024, 5)).expect("w3"),
            weights(8, 6),
        ),
    ])
    .expect("net")
}

fn input_box() -> Vec<(f64, f64)> {
    (0..6).map(|i| (-0.3 - 0.01 * i as f64, 0.3)).collect()
}

/// Interval bound propagation: historical allocating path vs the warm
/// scratch-pool path (bounds recycled back into the pool every
/// iteration, so the steady state performs no layer-buffer allocations).
fn bench_ibp(c: &mut Criterion) {
    let net = test_net();
    let bx = input_box();
    let mut group = c.benchmark_group("ibp");
    group.sample_size(30);
    group.bench_function("alloc", |b| {
        b.iter(|| interval_bounds(black_box(&net), black_box(&bx)).expect("ibp"))
    });
    let mut scratch = Scratch::new();
    group.bench_function("scratch", |b| {
        b.iter(|| {
            let lb = interval_bounds_scratch(black_box(&net), black_box(&bx), 1, &mut scratch)
                .expect("ibp");
            let lo = lb.output()[0].0;
            lb.recycle(&mut scratch);
            lo
        })
    });
    group.finish();
}

/// CROWN backward pass over precomputed layer bounds: the legacy
/// allocating entry point (fresh pool per call) vs the warm-pool value
/// variant branch-and-bound uses per node. The baseline requires the
/// scratch path to allocate at most 70% of the allocating path
/// (in practice it is allocation-free once warm).
fn bench_crown(c: &mut Criterion) {
    let net = test_net();
    let bx = input_box();
    let spec = Specification::margin(8, 1, 0).expect("spec");
    let bounds = interval_bounds(&net, &bx).expect("bounds");
    let mut group = c.benchmark_group("crown");
    group.sample_size(30);
    group.bench_function("alloc", |b| {
        b.iter(|| {
            crown_lower_with_bounds(black_box(&net), black_box(&bx), &spec, &bounds)
                .expect("crown")
                .lower
        })
    });
    let mut scratch = Scratch::new();
    group.bench_function("scratch", |b| {
        b.iter(|| {
            crown_lower_value_scratch(
                black_box(&net),
                black_box(&bx),
                &spec,
                &bounds,
                &mut scratch,
            )
            .expect("crown")
        })
    });
    group.finish();
}

/// Exact verification by branch-and-bound on a trained classifier — the
/// downstream consumer of the scratch-pooled IBP/CROWN re-verification.
fn bench_bnb(c: &mut Criterion) {
    let data = BlobData::generate(40, 3);
    let cfg = RobustTrainConfig {
        mode: TrainMode::Standard,
        epochs: 60,
        ..Default::default()
    };
    let model = train_classifier(&data, &cfg).expect("training");
    let net = model.to_affine_relu().expect("extraction");
    let spec = Specification::margin(2, 1, 0).expect("spec");
    let eps = 0.25;
    let bx = [(1.0 - eps, 1.0 + eps), (-eps, eps)];
    let mut group = c.benchmark_group("bnb");
    group.sample_size(20);
    group.bench_function("verify_complete", |b| {
        b.iter(|| {
            verify_complete(
                black_box(&net),
                black_box(&bx),
                &spec,
                &BnbSettings::default(),
            )
            .expect("bnb")
        })
    });
    group.finish();
}

/// Warm-started vs cold solves of a drifting box QP — the slowly-varying
/// channel workload the warm-start cache exists for. `(P, A)` stay fixed
/// while the linear term takes a fresh 1e-5-scale perturbation every
/// iteration, so each warm solve is a near-neighbor cache hit: the KKT
/// Cholesky is reused bit-for-bit and ADMM starts from the previous
/// optimum instead of zero. The baseline pins a `>= 2.5x` warm-over-cold
/// speedup. Allocation counts stay unpinned: the per-instance ADMM
/// iteration count (and with it transient workspace traffic) varies with
/// the drift draw.
fn bench_warm(c: &mut Criterion) {
    const N: usize = 128;
    let g = Matrix::from_vec(N, N, weights(N * N, 0x44)).expect("gram seed");
    let mut p = g
        .transpose()
        .matmul(&g)
        .expect("gram")
        .scale(1.0 / N as f64);
    // Graded diagonal: a mildly ill-conditioned instance whose active
    // box set takes a cold ADMM run ~5x longer to discover than a
    // warm-started one takes to confirm.
    for i in 0..N {
        p[(i, i)] += 0.05 + 0.002 * i as f64;
    }
    let q0: Vec<f64> = weights(N, 0x55).into_iter().map(|v| 3.0 * v).collect();
    let make = |k: u64| -> QpProblem {
        let noise = weights(N, 0x66 ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let q: Vec<f64> = q0.iter().zip(&noise).map(|(a, b)| a + 1e-5 * b).collect();
        QpProblem::new(
            p.clone(),
            q,
            Matrix::identity(N),
            vec![-1.0; N],
            vec![1.0; N],
        )
        .expect("qp")
    };
    let settings = QpSettings::default();
    let mut group = c.benchmark_group("warm");
    group.sample_size(15);
    let mut k_cold = 0u64;
    group.bench_function("drift/cold", |b| {
        b.iter(|| {
            k_cold += 1;
            make(black_box(k_cold))
                .solve(&settings)
                .expect("cold")
                .objective
        })
    });
    let mut cache = WarmCache::new(8);
    let mut k_warm = 0u64;
    group.bench_function("drift/warm", |b| {
        b.iter(|| {
            k_warm += 1;
            let (sol, _) = cache
                .solve_qp(&make(black_box(k_warm)), &settings)
                .expect("warm");
            sol.objective
        })
    });
    group.finish();
}

/// The QoS layer on the serve-cold request shape (3 users, 6 RBs, eMBB
/// minimum rates): the power-allocation inner solve at the Greedy
/// assignment, which runs the full 300 subgradient iterations on this
/// instance, and the whole Greedy solve (assignment, repair and its
/// re-evaluations). Both are single-threaded, so the baseline pins their
/// allocation counts: a change that brings back per-step allocation in
/// the water-filling fails the gate.
fn bench_qos(c: &mut Criterion) {
    let config = ScenarioConfig::single_class(QosClass::Embb, 3, 6);
    let scenario = Scenario::generate(&config, 0).expect("scenario");
    let rra = &scenario.rra;
    let owners = solve_greedy(rra).expect("greedy").owners;
    let problem = PowerProblem {
        gains: owners
            .iter()
            .enumerate()
            .map(|(k, &u)| rra.normalized_gain(u, k))
            .collect(),
        owners,
        power_budget: rra.power_budget_w,
        rb_bandwidth_hz: rra.rb_bandwidth_hz,
        min_rates_bps: rra.min_rates_bps.clone(),
    };
    let mut group = c.benchmark_group("qos");
    group.sample_size(30);
    group.bench_function("solve_power/3x6", |b| {
        b.iter(|| {
            solve_power(black_box(&problem))
                .expect("power")
                .total_rate_bps
        })
    });
    group.bench_function("greedy/3x6", |b| {
        b.iter(|| solve_greedy(black_box(rra)).expect("greedy").total_rate_bps)
    });
    group.finish();
}

/// Enqueue-to-response throughput for a fixed mixed-class trace through
/// the service at 2 workers. Worker threads allocate nondeterministically,
/// so the baseline leaves this entry's allocation count unpinned.
fn bench_serve(c: &mut Criterion) {
    const TRACE_LEN: u64 = 48;
    let trace = || -> Vec<SolveRequest> {
        (0..TRACE_LEN)
            .map(|id| SolveRequest {
                id,
                class: QosClass::ALL[(id % 3) as usize],
                deadline: Duration::from_secs(60),
                solver: SolverKind::Greedy,
                payload: Payload::Scenario(ScenarioSpec {
                    users: 3,
                    resource_blocks: 6,
                    seed: id * 17 + 3,
                }),
            })
            .collect()
    };
    let service = Service::spawn(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .expect("valid policy");
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.bench_function("trace48/2w", |b| {
        b.iter(|| {
            let client = service.client();
            let tickets: Vec<Ticket> = trace().into_iter().map(|r| client.submit(r)).collect();
            for ticket in tickets {
                black_box(ticket.wait().expect("response"));
            }
        })
    });
    group.finish();
    service.shutdown();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_cholesky,
    bench_sdp,
    bench_eigh_batch,
    bench_ibp,
    bench_crown,
    bench_bnb,
    bench_warm,
    bench_qos,
    bench_serve
);
criterion_main!(benches);
