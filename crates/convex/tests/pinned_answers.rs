//! Bit-level pins of the SDP and warm-QP answers.
//!
//! The other tests compare warm to cold solves within a tolerance, so a
//! refactor that changed a single rounding would pass them. These pins
//! fail on any changed bit of the trace-minimization SDP or of a drifting
//! `WarmCache::solve_qp` trace (objectives, iteration counts, cache flags,
//! factorizations done and reused, and counters), from the default ρ and
//! from a starting ρ the solver moves away from.

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
    // Was trace 0x4028_c837_f886_46f7, 42 iterations and R_c fold
    // 0xe49a_5b42_9d16_d241 with every projection taken through the full
    // eigendecomposition. The partial route computes only the smaller
    // side of the spectrum, a rounding change: the trace must stay within
    // 1e-10 relative of the old pin and the iteration count within ±2.
    let old_trace = f64::from_bits(0x4028_c837_f886_46f7);
    assert!((res.trace - old_trace).abs() <= 1e-10 * old_trace.abs());
    assert!(res.sdp_iterations.abs_diff(42) <= 2);
    assert_eq!(res.trace.to_bits(), 0x4028_c837_f886_46f6);
    assert_eq!(res.sdp_iterations, 42);
    assert_eq!(r_c_fold, 0x1fcf_1338_f55e_ae43);

    // A drifting 6-variable QP: q drifts every step, step 3 repeats step 2
    // exactly, and P drifts from step 6 on (a hit that must refactorize).
    // Per step: (objective bits, iterations, hit, factorization_reused,
    // factorizations). From the default ρ = 0.1 no residual check moves ρ
    // by more than 5×, so this trace is the one pinned before ρ adapted.
    let expected: [Step; 10] = [
        (0xbfd6_3723_4957_379e, 25, false, false, 1),
        (0xbfd6_43e3_e4c8_cba5, 17, true, true, 0),
        (0xbfd6_510a_1ae0_2153, 17, true, true, 0),
        (0xbfd6_510a_1ae0_2154, 1, true, true, 0),
        (0xbfd6_6c87_5700_1198, 18, true, true, 0),
        (0xbfd6_7ade_5d08_ac32, 17, true, true, 0),
        // Was 0xbfd6_8778_7f06_1170 with the row-oriented backward
        // substitution.
        (0xbfd6_8778_7f06_116e, 16, true, false, 1),
        (0xbfd6_9698_8a6f_28a4, 17, true, true, 0),
        (0xbfd6_a61e_2933_6859, 17, true, true, 0),
        // Was 0xbfd6_b609_5b52_d08e with the row-oriented backward
        // substitution.
        (0xbfd6_b609_5b52_d08d, 17, true, true, 0),
    ];
    // The column-oriented backward substitution subtracts each row's
    // terms in descending order, a rounding change: the objectives it
    // moved stay within 4 ulp of their row-oriented pins.
    for (step, old) in [(6, 0xbfd6_8778_7f06_1170u64), (9, 0xbfd6_b609_5b52_d08e)] {
        assert!(expected[step].0.abs_diff(old) <= 4, "step {step}");
    }
    let stats = drifting_qp_trace(&QpSettings::default(), &expected);
    assert_eq!(
        stats,
        WarmStats {
            hits: 9,
            misses: 1,
            evictions: 0,
            factorization_reuses: 8,
            factorizations: 2,
        }
    );

    // The same trace from ρ = 1e-3: the miss moves ρ twice (three
    // factorizations), and every hit starts from the ρ it ended at, so
    // the reused factor needs no further move. Each objective stays
    // within 1e-6 of the default-ρ pin above.
    let from_low_rho: [Step; 10] = [
        (0xbfd6_3723_4957_3788, 26, false, false, 3),
        (0xbfd6_43e3_e4c8_cb9c, 14, true, true, 0),
        (0xbfd6_510a_1ae0_2144, 14, true, true, 0),
        (0xbfd6_510a_1ae0_2153, 1, true, true, 0),
        (0xbfd6_6c87_5700_1190, 15, true, true, 0),
        (0xbfd6_7ade_5d08_ac26, 14, true, true, 0),
        (0xbfd6_8778_7f06_1165, 14, true, false, 1),
        (0xbfd6_9698_8a6f_289a, 14, true, true, 0),
        (0xbfd6_a61e_2933_684e, 14, true, true, 0),
        (0xbfd6_b609_5b52_d085, 14, true, true, 0),
    ];
    for (step, (got, pin)) in from_low_rho.iter().zip(&expected).enumerate() {
        let gap = f64::from_bits(got.0) - f64::from_bits(pin.0);
        assert!(gap.abs() < 1e-6, "step {step}: {gap:e}");
    }
    let low_rho = QpSettings {
        rho: 1e-3,
        ..QpSettings::default()
    };
    let stats = drifting_qp_trace(&low_rho, &from_low_rho);
    assert_eq!(
        stats,
        WarmStats {
            hits: 9,
            misses: 1,
            evictions: 0,
            factorization_reuses: 8,
            factorizations: 4,
        }
    );
}

/// One `WarmCache::solve_qp` step: (objective bits, iterations, hit,
/// factorization_reused, factorizations).
type Step = (u64, usize, bool, bool, u64);

/// Runs the drifting 6-variable QP trace through a fresh cache, asserts
/// each step's [`Step`] and returns the cache's counters.
fn drifting_qp_trace(s: &QpSettings, expected: &[Step]) -> WarmStats {
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
        let (sol, rep) = cache.solve_qp(&prob, s).unwrap();
        let got = (
            sol.objective.to_bits(),
            sol.iterations,
            rep.hit,
            rep.factorization_reused,
            rep.factorizations,
        );
        assert_eq!(got, *want, "rho {} step {step}", s.rho);
    }
    cache.stats()
}
