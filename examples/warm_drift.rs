//! Drifting-channel warm-start demo: the workload behind the
//! EXPERIMENTS.md "Warm-start under channel drift" table and the
//! `warm/` group in `BENCH_10.json`.
//!
//! A box QP stands in for one scheduling epoch of the rate-allocation
//! problem: the quadratic term `P` (interference structure) and the
//! constraint geometry stay fixed while the linear term `q` (measured
//! channel gains) takes a fresh small perturbation every epoch. Each
//! epoch is solved twice — cold (`QpProblem::solve`, fresh KKT
//! factorization, ADMM from zero) and through a `WarmCache`
//! (factorization reused, ADMM seeded from the previous epoch's
//! optimum) — and both must agree on the objective to 1e-5 (both run
//! to the same 1e-7 residual tolerance; at n = 128 that leaves a few
//! 1e-6 of objective slack between distinct tolerance-feasible points).
//!
//! ```sh
//! cargo run --release --example warm_drift
//! ```

use rcr::convex::qp::{QpProblem, QpSettings};
use rcr::convex::warm::WarmCache;
use rcr::linalg::Matrix;
use std::time::Instant;

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

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

fn main() {
    const N: usize = 128;
    const EPOCHS: u64 = 60;
    const DRIFT: f64 = 1e-5;

    let g = Matrix::from_vec(N, N, weights(N * N, 0x44)).expect("gram seed");
    let mut p = g
        .transpose()
        .matmul(&g)
        .expect("gram")
        .scale(1.0 / N as f64);
    for i in 0..N {
        p[(i, i)] += 0.05 + 0.002 * i as f64;
    }
    let q0: Vec<f64> = weights(N, 0x55).into_iter().map(|v| 3.0 * v).collect();
    let make = |k: u64| -> QpProblem {
        let noise = weights(N, 0x66 ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let q: Vec<f64> = q0.iter().zip(&noise).map(|(a, b)| a + DRIFT * b).collect();
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
    let mut cache = WarmCache::new(8);
    let mut cold_us = Vec::new();
    let mut warm_us = Vec::new();
    let mut cold_iters = 0u64;
    let mut warm_iters = 0u64;
    let mut factor_reuses = 0u64;
    let mut worst_gap = 0.0f64;

    for k in 0..EPOCHS {
        let prob = make(k);
        let t0 = Instant::now();
        let cold = prob.solve(&settings).expect("cold solve");
        cold_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t1 = Instant::now();
        let (warm, report) = cache.solve_qp(&prob, &settings).expect("warm solve");
        warm_us.push(t1.elapsed().as_secs_f64() * 1e6);
        cold_iters += cold.iterations as u64;
        warm_iters += warm.iterations as u64;
        factor_reuses += u64::from(report.factorization_reused);
        worst_gap = worst_gap.max((warm.objective - cold.objective).abs());
    }

    assert!(
        worst_gap < 1e-5,
        "warm and cold objectives diverged: {worst_gap:e}"
    );
    cold_us.sort_by(f64::total_cmp);
    warm_us.sort_by(f64::total_cmp);
    let stats = cache.stats();
    let epochs = EPOCHS as f64;

    println!("drifting-channel QP, n = {N}, {EPOCHS} epochs, drift {DRIFT:.0e}");
    println!(
        "cache: {} hits / {} misses ({:.0}% hit rate), {} KKT factorization reuses",
        stats.hits,
        stats.misses,
        100.0 * stats.hits as f64 / epochs,
        factor_reuses,
    );
    println!(
        "iterations per epoch: cold {:.1}, warm {:.1}",
        cold_iters as f64 / epochs,
        warm_iters as f64 / epochs,
    );
    for (label, us) in [("cold", &cold_us), ("warm", &warm_us)] {
        println!(
            "{label}: p50 {:.0} us, p99 {:.0} us",
            percentile(us, 0.50),
            percentile(us, 0.99),
        );
    }
    println!(
        "p50 speedup: {:.1}x",
        percentile(&cold_us, 0.50) / percentile(&warm_us, 0.50)
    );
    println!("worst warm-vs-cold objective gap: {worst_gap:.1e}");
}
