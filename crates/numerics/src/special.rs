//! Special functions needed by the wireless substrate: the complementary
//! error function and the Gaussian Q-function (the bit-error rate of a
//! Gray-coded QPSK link is `Q(√(2·Eb/N0))`).
//!
//! `erfc` uses the Numerical-Recipes Chebyshev rational approximation
//! (relative error < 1.2e-7 everywhere) — plenty for bit-error-rate
//! comparisons, and another instance of the crate's theme: a documented
//! finite approximation with a known error bound replacing an infinite
//! object (§IV-B).

/// Complementary error function `erfc(x) = 1 − erf(x)`.
///
/// Maximum relative error ≈ 1.2e-7 (Chebyshev fit of Numerical Recipes).
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Error function `erf(x)`.
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// The Gaussian Q-function `Q(x) = P(N(0,1) > x) = erfc(x/√2)/2`.
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Theoretical QPSK bit error rate over AWGN at the given per-bit SNR
/// (linear): `Q(√(2·Eb/N0))`.
pub fn qpsk_ber_awgn(ebn0_linear: f64) -> f64 {
    q_function((2.0 * ebn0_linear.max(0.0)).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_reference_values() {
        // Known values to ~1e-7 relative.
        let cases = [
            (0.0, 1.0),
            (0.5, 0.4795001),
            (1.0, 0.1572992),
            (2.0, 0.0046777),
            (3.0, 2.209e-5),
        ];
        for (x, want) in cases {
            let got = erfc(x);
            // Reference values are rounded to 7 decimals and the fit
            // itself carries ~1.2e-7 relative error.
            assert!((got - want).abs() < 1e-6, "erfc({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn erfc_symmetry_and_limits() {
        for x in [0.3, 1.1, 2.7] {
            assert!((erfc(-x) - (2.0 - erfc(x))).abs() < 1e-12);
        }
        assert!(erfc(10.0) < 1e-40);
        assert!((erfc(-10.0) - 2.0).abs() < 1e-12);
        assert!((erf(0.0)).abs() < 1e-6);
    }

    #[test]
    fn q_function_reference_values() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-6);
        assert!((q_function(1.0) - 0.158655).abs() < 1e-5);
        assert!((q_function(3.0) - 1.3499e-3).abs() < 1e-6);
        // Monotone decreasing.
        assert!(q_function(1.0) > q_function(2.0));
    }

    #[test]
    fn qpsk_ber_matches_textbook_points() {
        // Eb/N0 = 0 dB → BER ≈ 0.0786; 6 dB → ≈ 2.39e-3; 9.6 dB ≈ 1e-5.
        let db = |d: f64| 10f64.powf(d / 10.0);
        assert!((qpsk_ber_awgn(db(0.0)) - 0.0786).abs() < 1e-3);
        assert!((qpsk_ber_awgn(db(6.0)) - 2.39e-3).abs() < 2e-4);
        assert!(qpsk_ber_awgn(db(9.6)) < 5e-5);
    }
}
