//! Bit-level pins of the SDP and warm-QP answers.
//!
//! The other tests compare warm to cold solves within a tolerance, so a
//! refactor that changed a single rounding would pass them. These pins
//! fail on any changed bit of the trace-minimization SDP or of a drifting
//! `WarmCache::solve_qp` trace (objectives, iteration counts, cache flags
//! and counters).

use rcr_convex::qp::{QpProblem, QpSettings};
use rcr_convex::rankmin::{synth_low_rank_plus_diag, trace_min_decompose};
use rcr_convex::sdp::SdpSettings;
use rcr_convex::warm::{WarmCache, WarmStats};
use rcr_linalg::Matrix;

#[test]
fn sdp_and_warm_qp_answers_are_pinned_bit_for_bit() {
    // Trace minimization (Eq. 9/10) of a rank-2-plus-diagonal n = 12 input.
    let n = 12;
    let v = Matrix::from_fn(n, 2, |i, k| {
        if k == 0 {
            ((i + 1) as f64).sin()
        } else {
            (0.7 * i as f64).cos()
        }
    });
    let d: Vec<f64> = (0..n).map(|i| 0.5 + 0.05 * i as f64).collect();
    let r_s = synth_low_rank_plus_diag(&v, &d).unwrap();
    let res = trace_min_decompose(&r_s, &SdpSettings::default()).unwrap();
    let r_c_fold = res
        .r_c
        .as_slice()
        .iter()
        .fold(0u64, |h, x| h.rotate_left(7) ^ x.to_bits());
    assert_eq!(res.trace.to_bits(), 0x4028_c837_f886_46f7);
    assert_eq!(res.sdp_iterations, 42);
    assert_eq!(r_c_fold, 0xe49a_5b42_9d16_d241);

    // A drifting 6-variable QP: q drifts every step, step 3 repeats step 2
    // exactly, and P drifts from step 6 on (a hit that must refactorize).
    // Per step: (objective bits, iterations, hit, exact, factorization_reused).
    let expected: [(u64, usize, bool, bool, bool); 10] = [
        (0xbfd6_3723_4957_379e, 25, false, false, false),
        (0xbfd6_43e3_e4c8_cba5, 17, true, false, true),
        (0xbfd6_510a_1ae0_2153, 17, true, false, true),
        (0xbfd6_510a_1ae0_2154, 1, true, true, true),
        (0xbfd6_6c87_5700_1198, 18, true, false, true),
        (0xbfd6_7ade_5d08_ac32, 17, true, false, true),
        (0xbfd6_8778_7f06_1170, 16, true, false, false),
        (0xbfd6_9698_8a6f_28a4, 17, true, false, true),
        (0xbfd6_a61e_2933_6859, 17, true, false, true),
        (0xbfd6_b609_5b52_d08e, 17, true, false, true),
    ];
    let m = 6;
    let p_at = |step: usize| {
        Matrix::from_fn(m, m, |i, j| {
            let base = 1.0 / (1.0 + i.abs_diff(j) as f64);
            let drift = if step >= 6 && i == j { 1e-3 } else { 0.0 };
            if i == j {
                base + 1.5 + drift
            } else {
                base
            }
        })
    };
    let mut cache = WarmCache::new(4);
    let s = QpSettings::default();
    for (step, want) in expected.iter().enumerate() {
        let t = if step == 3 { 2 } else { step };
        let q: Vec<f64> = (0..m)
            .map(|i| -1.0 + 0.3 * i as f64 + 1e-3 * (t * (i + 1)) as f64)
            .collect();
        let prob = QpProblem::new(
            p_at(step),
            q,
            Matrix::identity(m),
            vec![-1.0; m],
            vec![1.0; m],
        )
        .unwrap();
        let (sol, rep) = cache.solve_qp(&prob, &s).unwrap();
        let got = (
            sol.objective.to_bits(),
            sol.iterations,
            rep.hit,
            rep.exact,
            rep.factorization_reused,
        );
        assert_eq!(got, *want, "step {step}");
    }
    assert_eq!(
        cache.stats(),
        WarmStats {
            hits: 9,
            misses: 1,
            evictions: 0,
            factorization_reuses: 8,
        }
    );
}
