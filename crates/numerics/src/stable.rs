//! Numerically stable composite kernels.
//!
//! The paper's concluding remark (§V) observes that "sub-operations needed
//! to be combined, as performing the sub-operations separately would be
//! computationally slower and more numerically unstable (e.g., as the
//! softmax output approaches 0, the log output approaches infinity)". This
//! module provides both the fused kernels and the deliberately naive
//! compositions so experiments can quantify the difference (experiment E14).

/// Stable log-sum-exp: `log(Σ exp(x_i))` computed with the max-shift trick.
///
/// Returns `-inf` for an empty slice (the sum of zero exponentials).
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    if m.is_infinite() {
        // +inf dominates: log(exp(inf)) = inf.
        return f64::INFINITY;
    }
    let s: f64 = xs.iter().map(|&x| (x - m).exp()).sum();
    m + s.ln()
}

/// Stable softmax via max-shift; never overflows and always sums to ~1.
///
/// Returns an empty vector for empty input.
pub fn softmax(xs: &[f64]) -> Vec<f64> {
    if xs.is_empty() {
        return Vec::new();
    }
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = xs.iter().map(|&x| (x - m).exp()).collect();
    let s: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / s).collect()
}

/// **Fused** log-softmax: `x_i - logsumexp(x)`.
///
/// This is the numerically correct kernel: exact for extreme logits where
/// [`naive_log_softmax`] underflows to `log(0) = -inf` or produces NaN.
pub fn log_softmax(xs: &[f64]) -> Vec<f64> {
    let lse = log_sum_exp(xs);
    xs.iter().map(|&x| x - lse).collect()
}

/// The *naive composition* `log(softmax_naive(x))` with an unshifted
/// softmax, kept as the defective baseline for experiment E14.
///
/// For `max(x)` beyond ~709 the unshifted `exp` overflows to `inf` and the
/// result is NaN; for large negative gaps the softmax underflows to exactly
/// 0 and the log returns `-inf` even when the true value is representable.
pub fn naive_log_softmax(xs: &[f64]) -> Vec<f64> {
    let exps: Vec<f64> = xs.iter().map(|&x| x.exp()).collect();
    let s: f64 = exps.iter().sum();
    exps.into_iter().map(|e| (e / s).ln()).collect()
}

/// Stable sigmoid, accurate for very positive and very negative inputs.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// `log(1 + exp(x))` (softplus) without overflow for large `x`.
pub fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        // exp(-x) < 1e-13: log1p(exp(x)) = x + log1p(exp(-x)) ≈ x.
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sum_exp_matches_direct_for_small_inputs() {
        let xs = [0.5f64, -0.25, 1.0];
        let direct = xs.iter().map(|x| x.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&xs) - direct).abs() < 1e-14);
    }

    #[test]
    fn log_sum_exp_survives_huge_inputs() {
        let v = log_sum_exp(&[1000.0, 1000.0]);
        assert!((v - (1000.0 + 2f64.ln())).abs() < 1e-10);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-14);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_handles_extreme_logits() {
        let p = softmax(&[1e4, 0.0]);
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn fused_log_softmax_finite_where_naive_fails() {
        let xs = [1000.0, 0.0];
        let fused = log_softmax(&xs);
        assert!(fused.iter().all(|v| !v.is_nan()));
        assert!((fused[0] - 0.0).abs() < 1e-10);
        assert!((fused[1] + 1000.0).abs() < 1e-10);
        // The naive composition overflows exp(1000) → inf → NaN.
        let naive = naive_log_softmax(&xs);
        assert!(naive.iter().any(|v| v.is_nan() || v.is_infinite()));
    }

    #[test]
    fn naive_log_softmax_ok_on_benign_input() {
        let xs = [0.1, 0.2, 0.3];
        let fused = log_softmax(&xs);
        let naive = naive_log_softmax(&xs);
        for (a, b) in fused.iter().zip(&naive) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn sigmoid_extremes() {
        assert!((sigmoid(800.0) - 1.0).abs() < 1e-15);
        // exp(-700) is still representable (~1e-304); the stable form keeps it.
        assert!(sigmoid(-700.0) > 0.0);
        assert!(sigmoid(-700.0) < 1e-300);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn softplus_asymptotics() {
        assert!((softplus(100.0) - 100.0).abs() < 1e-12);
        assert!(softplus(-100.0) > 0.0);
        assert!((softplus(0.0) - 2f64.ln()).abs() < 1e-15);
    }
}
