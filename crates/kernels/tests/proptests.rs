//! Bit-equivalence properties of the blocked kernels vs the naive loops.
//!
//! These pin the crate's core contract: blocking is a pure scheduling
//! transformation — every output element's chain of f64 operations is
//! unchanged, so results match the naive reference *bitwise*, including
//! NaN/±inf propagation and signed zeros.

use proptest::prelude::*;
use rcr_kernels::{
    axpy, cholesky_unblocked, cholesky_with_block, dot, gemm, gemm_naive, gemv, gemv_bias, gemv_t,
    norm_inf_diff, FACTOR_NB,
};

const MAX_M: usize = 13;
const MAX_K: usize = 40;
const MAX_N: usize = 19;

/// Injects exact zeros and special values into a coefficient slice so the
/// zero-skip and non-finite propagation paths are exercised.
fn spice(a: &mut [f64], zero_stride: usize, special: usize) {
    for (i, v) in a.iter_mut().enumerate() {
        if i % zero_stride == 0 {
            *v = 0.0;
        }
    }
    if a.is_empty() {
        return;
    }
    let last = a.len() - 1;
    match special {
        1 => a[last / 2] = f64::NAN,
        2 => a[last] = f64::INFINITY,
        3 => a[last / 2] = f64::NEG_INFINITY,
        4 => a[last] = -0.0,
        _ => {}
    }
}

fn assert_bits_eq(got: &[f64], want: &[f64]) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "element {} differs: {} vs {}",
            i,
            g,
            w
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_gemm_is_bit_identical(
        m in 1usize..=MAX_M,
        k in 1usize..=MAX_K,
        n in 1usize..=MAX_N,
        a_pool in prop::collection::vec(-3.0f64..3.0, MAX_M * MAX_K),
        b_pool in prop::collection::vec(-3.0f64..3.0, MAX_K * MAX_N),
        zero_stride in 2usize..7,
        special_a in 0usize..5,
        special_b in 0usize..5,
    ) {
        // Shapes include 1xN, Nx1 and sizes straddling the 4x8 tile edges.
        let mut a = a_pool[..m * k].to_vec();
        let mut b = b_pool[..k * n].to_vec();
        spice(&mut a, zero_stride, special_a);
        spice(&mut b, zero_stride + 1, special_b);
        let mut want = vec![0.0; m * n];
        let mut got = vec![f64::NAN; m * n];
        gemm_naive(m, k, n, &a, &b, &mut want);
        gemm(m, k, n, &a, &b, &mut got);
        assert_bits_eq(&got, &want)?;
    }

    #[test]
    fn blocked_gemm_straddles_cache_panel(
        m in 1usize..5,
        k in 250usize..262,
        n in 1usize..10,
        a_pool in prop::collection::vec(-1.0f64..1.0, 4 * 261),
        b_pool in prop::collection::vec(-1.0f64..1.0, 261 * 9),
        zero_stride in 2usize..5,
    ) {
        // k crosses the KC=256 panel boundary: partial sums spill to `out`
        // between panels and must still match the naive chain bitwise.
        let mut a = a_pool[..m * k].to_vec();
        let b = &b_pool[..k * n];
        spice(&mut a, zero_stride, 0);
        let mut want = vec![0.0; m * n];
        let mut got = vec![f64::NAN; m * n];
        gemm_naive(m, k, n, &a, b, &mut want);
        gemm(m, k, n, &a, b, &mut got);
        assert_bits_eq(&got, &want)?;
    }

    #[test]
    fn gemv_matches_naive_fold(
        m in 1usize..=MAX_M,
        n in 1usize..=MAX_N,
        a_pool in prop::collection::vec(-3.0f64..3.0, MAX_M * MAX_N),
        x_pool in prop::collection::vec(-3.0f64..3.0, MAX_N),
        special in 0usize..5,
    ) {
        let mut a = a_pool[..m * n].to_vec();
        let x = &x_pool[..n];
        spice(&mut a, 3, special);
        let mut got = vec![f64::NAN; m];
        gemv(m, n, &a, x, &mut got);
        let want: Vec<f64> = (0..m)
            .map(|r| a[r * n..(r + 1) * n].iter().zip(x).map(|(p, q)| p * q).sum())
            .collect();
        assert_bits_eq(&got, &want)?;
    }

    #[test]
    fn gemv_bias_matches_linear_forward_order(
        m in 1usize..=MAX_M,
        n in 1usize..=MAX_N,
        a_pool in prop::collection::vec(-3.0f64..3.0, MAX_M * MAX_N),
        x_pool in prop::collection::vec(-3.0f64..3.0, MAX_N),
        bias_pool in prop::collection::vec(-2.0f64..2.0, MAX_M),
    ) {
        let a = &a_pool[..m * n];
        let x = &x_pool[..n];
        let bias = &bias_pool[..m];
        let mut got = vec![f64::NAN; m];
        gemv_bias(m, n, a, x, bias, &mut got);
        // Reference: rcr-nn Linear::forward accumulation (chain starts at bias).
        let want: Vec<f64> = (0..m)
            .map(|r| {
                let mut s = bias[r];
                for (av, xv) in a[r * n..(r + 1) * n].iter().zip(x) {
                    s += av * xv;
                }
                s
            })
            .collect();
        assert_bits_eq(&got, &want)?;
    }

    #[test]
    fn gemv_t_matches_matvec_t_order(
        m in 1usize..=MAX_M,
        n in 1usize..=MAX_N,
        a_pool in prop::collection::vec(-3.0f64..3.0, MAX_M * MAX_N),
        x_pool in prop::collection::vec(-3.0f64..3.0, MAX_M),
        zero_stride in 2usize..5,
        special in 0usize..5,
    ) {
        let mut a = a_pool[..m * n].to_vec();
        let mut x = x_pool[..m].to_vec();
        spice(&mut a, 7, special);
        spice(&mut x, zero_stride, 0);
        let mut got = vec![f64::NAN; n];
        gemv_t(m, n, &a, &x, &mut got);
        // Reference: Matrix::matvec_t (zeroed out, increasing r, x[r]==0 skip).
        let mut want = vec![0.0; n];
        for r in 0..m {
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            for (o, av) in want.iter_mut().zip(&a[r * n..(r + 1) * n]) {
                *o += av * xr;
            }
        }
        assert_bits_eq(&got, &want)?;
    }

    #[test]
    fn fused_vector_kernels_match_composition(
        a in prop::collection::vec(-5.0f64..5.0, 33),
        b in prop::collection::vec(-5.0f64..5.0, 33),
        alpha in -4.0f64..4.0,
    ) {
        let want_dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        prop_assert_eq!(dot(&a, &b).to_bits(), want_dot.to_bits());

        let mut y = b.clone();
        axpy(alpha, &a, &mut y);
        for (i, (got, bi)) in y.iter().zip(&b).enumerate() {
            let want = bi + alpha * a[i];
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }

        let diff: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x - y).collect();
        let want_inf = diff.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        prop_assert_eq!(norm_inf_diff(&a, &b).to_bits(), want_inf.to_bits());
    }
}

// ---------------------------------------------------------------------
// Blocked factorizations vs unblocked references
// ---------------------------------------------------------------------

/// Builds an SPD matrix G·Gᵀ/n + I from a raw coefficient pool.
fn spd_from_pool(n: usize, pool: &[f64]) -> Vec<f64> {
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut s = 0.0;
            for k in 0..n {
                s += pool[k * n + i] * pool[k * n + j];
            }
            a[i * n + j] = s / n as f64 + if i == j { 1.0 } else { 0.0 };
        }
    }
    a
}

/// Sizes straddling the default panel width: below, exactly at, one past,
/// and a non-multiple beyond `FACTOR_NB`.
const STRADDLE_NS: [usize; 5] = [7, FACTOR_NB - 1, FACTOR_NB, FACTOR_NB + 1, FACTOR_NB + 13];
const MAX_STRADDLE_N: usize = FACTOR_NB + 13;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn blocked_cholesky_is_bit_identical(
        size_idx in 0usize..STRADDLE_NS.len(),
        nb in 1usize..=2 * FACTOR_NB,
        pool in prop::collection::vec(-1.0f64..1.0, MAX_STRADDLE_N * MAX_STRADDLE_N),
    ) {
        let n = STRADDLE_NS[size_idx];
        let a = spd_from_pool(n, &pool);
        let mut unb = a.clone();
        cholesky_unblocked(&mut unb, n, n, 0.0).unwrap();
        let mut blk = a.clone();
        cholesky_with_block(&mut blk, n, n, 0.0, nb).unwrap();
        for i in 0..n {
            for j in 0..=i {
                prop_assert_eq!(
                    blk[i * n + j].to_bits(),
                    unb[i * n + j].to_bits(),
                    "n={} nb={} ({},{})", n, nb, i, j
                );
            }
        }
    }

    #[test]
    fn blocked_cholesky_pivot_index_matches_unblocked(
        n in 2usize..=MAX_STRADDLE_N,
        bad in 0usize..MAX_STRADDLE_N,
        nb in 1usize..=2 * FACTOR_NB,
        pool in prop::collection::vec(-1.0f64..1.0, MAX_STRADDLE_N * MAX_STRADDLE_N),
    ) {
        // Poison one diagonal entry so the factorization must fail, and
        // require both paths to report the same (first) failing pivot.
        let bad = bad % n;
        let mut a = spd_from_pool(n, &pool);
        a[bad * n + bad] = -1.0;
        let mut unb = a.clone();
        let want = cholesky_unblocked(&mut unb, n, n, 0.0);
        let mut blk = a.clone();
        let got = cholesky_with_block(&mut blk, n, n, 0.0, nb);
        prop_assert!(want.is_err());
        prop_assert_eq!(got, want, "n={} nb={} poisoned={}", n, nb, bad);
    }
}
