//! Property-based invariants of the warm-start cache (`rcr_convex::warm`).
//!
//! The contract under test: a warm solve runs to the *same stopping
//! tolerance* as a cold solve — the cache trades iterations, never
//! accuracy — and cache behavior (hits, evictions) is a deterministic
//! function of the request sequence.

use proptest::prelude::*;
use rcr_convex::qp::{QpProblem, QpSettings};
use rcr_convex::warm::WarmCache;
use rcr_linalg::{vector, Matrix};

fn spd(entries: &[f64], n: usize) -> Matrix {
    let g = Matrix::from_vec(n, n, entries.to_vec()).unwrap();
    let mut p = g.transpose().matmul(&g).unwrap().scale(1.0 / n as f64);
    for i in 0..n {
        p[(i, i)] += 0.5;
    }
    p
}

fn qp(p: &Matrix, q: &[f64]) -> QpProblem {
    let n = q.len();
    QpProblem::new(
        p.clone(),
        q.to_vec(),
        Matrix::identity(n),
        vec![-1.0; n],
        vec![1.0; n],
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cold and warm QP solves of a drifting instance agree on the
    /// objective to 1e-6, for every drift in the sequence.
    #[test]
    fn qp_warm_objective_matches_cold(
        entries in prop::collection::vec(-1.5f64..1.5, 9),
        q in prop::collection::vec(-2.0f64..2.0, 3),
        drifts in prop::collection::vec(-1e-3f64..1e-3, 1..4),
    ) {
        let p = spd(&entries, 3);
        let s = QpSettings::default();
        let mut cache = WarmCache::new(8);
        cache.solve_qp(&qp(&p, &q), &s).unwrap();
        let mut qd = q.clone();
        for d in drifts {
            for v in &mut qd {
                *v += d;
            }
            let prob = qp(&p, &qd);
            let (warm, _) = cache.solve_qp(&prob, &s).unwrap();
            let cold = prob.solve(&s).unwrap();
            prop_assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            prop_assert!(vector::norm_inf(&vector::sub(&warm.x, &cold.x)) < 1e-3);
        }
    }

    /// Cache bookkeeping is a pure function of the request sequence:
    /// replaying any sequence into a fresh cache reproduces identical
    /// hit/miss/eviction counts and identical solutions.
    #[test]
    fn eviction_and_hits_are_deterministic(
        seq in prop::collection::vec(0usize..4, 1..12),
    ) {
        let s = QpSettings::default();
        // Four structurally distinct instances (different n) against a
        // capacity-2 cache forces evictions on most sequences.
        let probs: Vec<QpProblem> = (2..6)
            .map(|n| {
                QpProblem::new(
                    Matrix::identity(n),
                    vec![-0.5; n],
                    Matrix::identity(n),
                    vec![-1.0; n],
                    vec![1.0; n],
                )
                .unwrap()
            })
            .collect();
        let run = || {
            let mut cache = WarmCache::new(2);
            let mut log = Vec::new();
            for &i in &seq {
                let (sol, rep) = cache.solve_qp(&probs[i], &s).unwrap();
                log.push((rep.hit, sol.objective.to_bits()));
            }
            (log, cache.stats())
        };
        let (log_a, stats_a) = run();
        let (log_b, stats_b) = run();
        prop_assert_eq!(log_a, log_b);
        prop_assert_eq!(stats_a.hits, stats_b.hits);
        prop_assert_eq!(stats_a.misses, stats_b.misses);
        prop_assert_eq!(stats_a.evictions, stats_b.evictions);
        prop_assert_eq!(stats_a.hits + stats_a.misses, seq.len() as u64);
    }
}
