//! Finite approximations of infinite objects — the paper's Eqs. 3–4.
//!
//! §IV-B frames numerical-implementation error as "supplanting the infinite
//! object with a finite approximation", illustrated by a Taylor polynomial
//! for `exp` (Eq. 3) and a composite trapezoidal rule (Eq. 4). This module
//! implements both together with their textbook truncation-error models, so
//! experiment E6 can plot observed-vs-predicted error as the approximation
//! order/step is refined.

use crate::NumericsError;

/// Result of evaluating a finite approximation together with its predicted
/// truncation error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxResult {
    /// The computed approximate value.
    pub value: f64,
    /// An a-priori bound on the truncation error (not round-off).
    pub truncation_bound: f64,
}

/// Taylor polynomial approximation of `e^x` of degree `n` (Eq. 3):
/// `1 + x + x²/2! + … + xⁿ/n!`, evaluated by Horner-style accumulation of
/// ascending terms to avoid forming large factorials.
///
/// The returned truncation bound is the Lagrange remainder
/// `|x|^{n+1} e^{max(x,0)} / (n+1)!`.
///
/// # Errors
/// Returns [`NumericsError::NotFinite`] for non-finite `x`.
pub fn taylor_exp(x: f64, n: usize) -> Result<ApproxResult, NumericsError> {
    if !x.is_finite() {
        return Err(NumericsError::NotFinite);
    }
    let mut term = 1.0;
    let mut sum = 1.0;
    for k in 1..=n {
        term *= x / k as f64;
        sum += term;
    }
    // Lagrange remainder: next term magnitude times e^{ξ} with ξ in [0, x].
    let next = (term * x / (n as f64 + 1.0)).abs();
    let bound = next * x.max(0.0).exp();
    Ok(ApproxResult {
        value: sum,
        truncation_bound: bound,
    })
}

/// Composite trapezoidal approximation of `∫_a^b f(x) dx` with `n`
/// subintervals (Eq. 4).
///
/// The truncation bound uses the standard `(b-a) h² max|f''| / 12` model
/// with `max|f''|` estimated by sampling a central second difference at the
/// nodes.
///
/// # Errors
/// * [`NumericsError::InvalidParameter`] when `n == 0` or `a > b`.
/// * [`NumericsError::NotFinite`] when the integrand produces non-finite
///   values at the nodes.
pub fn trapezoid(
    f: impl Fn(f64) -> f64,
    a: f64,
    b: f64,
    n: usize,
) -> Result<ApproxResult, NumericsError> {
    if n == 0 {
        return Err(NumericsError::InvalidParameter("n must be >= 1".into()));
    }
    if !(a <= b) || !a.is_finite() || !b.is_finite() {
        return Err(NumericsError::InvalidParameter(format!(
            "bad interval [{a}, {b}]"
        )));
    }
    let h = (b - a) / n as f64;
    let mut interior = 0.0;
    let mut max_f2 = 0.0f64;
    let fa = f(a);
    let fb = f(b);
    if !fa.is_finite() || !fb.is_finite() {
        return Err(NumericsError::NotFinite);
    }
    let mut prev = fa;
    let mut cur = f(a + h);
    for i in 1..n {
        let next = f(a + (i + 1) as f64 * h);
        if !cur.is_finite() || !next.is_finite() {
            return Err(NumericsError::NotFinite);
        }
        interior += cur;
        // Central second difference estimate of f'' at node i.
        if h > 0.0 {
            max_f2 = max_f2.max(((next - 2.0 * cur + prev) / (h * h)).abs());
        }
        prev = cur;
        cur = next;
    }
    let value = h / 2.0 * (fa + 2.0 * interior + fb);
    let bound = (b - a) * h * h * max_f2 / 12.0;
    Ok(ApproxResult {
        value,
        truncation_bound: bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taylor_exp_converges_with_order() {
        let x = 1.0f64;
        let exact = x.exp();
        let e4 = (taylor_exp(x, 4).unwrap().value - exact).abs();
        let e8 = (taylor_exp(x, 8).unwrap().value - exact).abs();
        let e16 = (taylor_exp(x, 16).unwrap().value - exact).abs();
        assert!(e8 < e4 / 100.0);
        assert!(e16 < 1e-14);
    }

    #[test]
    fn taylor_bound_dominates_true_error() {
        for n in 1..20 {
            for &x in &[0.5, 1.0, 2.0, -1.5] {
                let r = taylor_exp(x, n).unwrap();
                let err = (r.value - x.exp()).abs();
                assert!(
                    err <= r.truncation_bound * (1.0 + 1e-9) + 1e-15,
                    "n={n} x={x}: err {err} > bound {}",
                    r.truncation_bound
                );
            }
        }
    }

    #[test]
    fn taylor_rejects_nonfinite() {
        assert!(taylor_exp(f64::NAN, 3).is_err());
    }

    #[test]
    fn trapezoid_linear_function_exact() {
        let r = trapezoid(|x| 2.0 * x + 1.0, 0.0, 1.0, 4).unwrap();
        assert!((r.value - 2.0).abs() < 1e-14);
    }

    #[test]
    fn trapezoid_quadratic_error_decay() {
        let exact = 1.0 / 3.0;
        let e10 = (trapezoid(|x| x * x, 0.0, 1.0, 10).unwrap().value - exact).abs();
        let e100 = (trapezoid(|x| x * x, 0.0, 1.0, 100).unwrap().value - exact).abs();
        // Second-order method: 10x finer grid → ~100x smaller error.
        assert!(e100 < e10 / 50.0);
    }

    #[test]
    fn trapezoid_bound_dominates_error_for_smooth_f() {
        let exact = 1.0 - (-1.0f64).exp();
        let r = trapezoid(|x| (-x).exp(), 0.0, 1.0, 64).unwrap();
        let err = (r.value - exact).abs();
        assert!(err <= r.truncation_bound * 1.5 + 1e-14);
    }

    #[test]
    fn trapezoid_validates_input() {
        assert!(trapezoid(|x| x, 0.0, 1.0, 0).is_err());
        assert!(trapezoid(|x| x, 1.0, 0.0, 4).is_err());
        assert!(trapezoid(|_| f64::NAN, 0.0, 1.0, 4).is_err());
    }
}
