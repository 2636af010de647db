//! Performance companion to E8/E9: QP, QCQP and SDP solve times across
//! problem sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rcr_convex::qcqp::{QcqpProblem, QcqpSettings, QuadraticForm};
use rcr_convex::qp::{QpProblem, QpSettings, QP_INF};
use rcr_convex::rankmin::{synth_low_rank_plus_diag, trace_min_decompose};
use rcr_convex::sdp::SdpSettings;
use rcr_linalg::Matrix;
use std::hint::black_box;

fn psd(n: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let a = Matrix::from_fn(n, n, |_, _| next());
    let mut p = a
        .transpose()
        .matmul(&a)
        .expect("square")
        .scale(1.0 / n as f64);
    for i in 0..n {
        p[(i, i)] += 0.1;
    }
    p
}

fn bench_qp(c: &mut Criterion) {
    let mut group = c.benchmark_group("qp_admm");
    group.sample_size(20);
    for &n in &[10usize, 25, 50] {
        let p = psd(n, n as u64);
        let q: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let prob = QpProblem::new(p, q, Matrix::identity(n), vec![-QP_INF; n], vec![1.0; n])
            .expect("valid qp");
        group.bench_with_input(BenchmarkId::from_parameter(n), &prob, |b, prob| {
            b.iter(|| {
                prob.solve(black_box(&QpSettings::default()))
                    .expect("solve")
            })
        });
    }
    group.finish();
}

fn bench_qcqp(c: &mut Criterion) {
    let mut group = c.benchmark_group("qcqp_barrier");
    group.sample_size(20);
    for &n in &[10usize, 25] {
        let obj = QuadraticForm::new(
            psd(n, 7 + n as u64),
            (0..n).map(|i| (i as f64 * 0.3).cos()).collect(),
            0.0,
        )
        .expect("form");
        let ball = QuadraticForm::new(Matrix::identity(n), vec![0.0; n], -2.0).expect("form");
        let prob = QcqpProblem::new(obj, vec![ball], None).expect("convex");
        group.bench_with_input(BenchmarkId::from_parameter(n), &prob, |b, prob| {
            b.iter(|| {
                prob.solve(black_box(&QcqpSettings::default()))
                    .expect("solve")
            })
        });
    }
    group.finish();
}

fn bench_sdp(c: &mut Criterion) {
    let mut group = c.benchmark_group("rankmin_sdp");
    group.sample_size(15);
    // Trace-minimization SDP (Eq. 10).
    let v = Matrix::from_fn(8, 2, |r, cc| ((r * 3 + cc * 5 + 1) % 7) as f64 / 7.0 - 0.4);
    let d: Vec<f64> = (0..8).map(|i| 0.5 + (i % 3) as f64 * 0.2).collect();
    let r_s = synth_low_rank_plus_diag(&v, &d).expect("synth");
    group.bench_function("8", |bch| {
        bch.iter(|| {
            trace_min_decompose(black_box(&r_s), &SdpSettings::default()).expect("decompose")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_qp, bench_qcqp, bench_sdp);
criterion_main!(benches);
