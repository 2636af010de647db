//! Analysis windows, in both *periodic* and *symmetric* variants.
//!
//! The periodic/symmetric distinction is one of the quiet cross-library
//! mismatches in the paper's Fig. 3 class: MATLAB's `hann(n)` is symmetric,
//! NumPy/PyTorch default to periodic for spectral analysis. Both are
//! provided so the [`crate::profile`] emulation can reproduce the mismatch.

use crate::SignalError;
use std::f64::consts::PI;

/// Window functions supported by the STFT kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum WindowKind {
    /// All-ones (boxcar) window.
    Rectangular,
    /// Hann (raised cosine) window.
    Hann,
    /// Hamming window (0.54/0.46 coefficients).
    Hamming,
    /// Blackman window.
    Blackman,
    /// Gaussian window with the given standard deviation expressed as a
    /// fraction of half the window length.
    Gaussian {
        /// Standard deviation / (L/2); typical values 0.3–0.5.
        sigma: f64,
    },
}

/// Sampling convention for window generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSymmetry {
    /// DFT-even ("periodic") sampling — correct for spectral analysis with
    /// overlap-add.
    Periodic,
    /// Symmetric sampling — correct for FIR filter design; using it for
    /// STFT breaks constant-overlap-add by one sample.
    Symmetric,
}

/// Generates a window of `len` samples.
///
/// # Errors
/// * [`SignalError::InvalidLength`] when `len == 0`.
/// * [`SignalError::InvalidParameter`] for a non-positive Gaussian sigma.
pub fn window(
    kind: WindowKind,
    symmetry: WindowSymmetry,
    len: usize,
) -> Result<Vec<f64>, SignalError> {
    if len == 0 {
        return Err(SignalError::InvalidLength {
            what: "window length",
            got: 0,
        });
    }
    if let WindowKind::Gaussian { sigma } = kind {
        if !(sigma > 0.0) || !sigma.is_finite() {
            return Err(SignalError::InvalidParameter(format!(
                "gaussian sigma {sigma}"
            )));
        }
    }
    if len == 1 {
        return Ok(vec![1.0]);
    }
    // Denominator: N for periodic, N-1 for symmetric.
    let denom = match symmetry {
        WindowSymmetry::Periodic => len as f64,
        WindowSymmetry::Symmetric => (len - 1) as f64,
    };
    let out = (0..len)
        .map(|i| {
            let t = i as f64 / denom;
            match kind {
                WindowKind::Rectangular => 1.0,
                WindowKind::Hann => 0.5 - 0.5 * (2.0 * PI * t).cos(),
                WindowKind::Hamming => 0.54 - 0.46 * (2.0 * PI * t).cos(),
                WindowKind::Blackman => {
                    0.42 - 0.5 * (2.0 * PI * t).cos() + 0.08 * (4.0 * PI * t).cos()
                }
                WindowKind::Gaussian { sigma } => {
                    let half = denom / 2.0;
                    let d = (i as f64 - half) / (sigma * half);
                    (-0.5 * d * d).exp()
                }
            }
        })
        .collect();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_is_all_ones() {
        let w = window(WindowKind::Rectangular, WindowSymmetry::Periodic, 5).unwrap();
        assert!(w.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn hann_symmetric_endpoints_zero() {
        let w = window(WindowKind::Hann, WindowSymmetry::Symmetric, 9).unwrap();
        assert!(w[0].abs() < 1e-15 && w[8].abs() < 1e-15);
        assert!((w[4] - 1.0).abs() < 1e-15); // peak at center
    }

    #[test]
    fn hann_periodic_differs_from_symmetric() {
        let p = window(WindowKind::Hann, WindowSymmetry::Periodic, 8).unwrap();
        let s = window(WindowKind::Hann, WindowSymmetry::Symmetric, 8).unwrap();
        assert!(p.iter().zip(&s).any(|(a, b)| (a - b).abs() > 1e-3));
    }

    #[test]
    fn hamming_endpoints_nonzero() {
        let w = window(WindowKind::Hamming, WindowSymmetry::Symmetric, 11).unwrap();
        assert!((w[0] - 0.08).abs() < 1e-12);
    }

    #[test]
    fn gaussian_peak_at_center() {
        let w = window(
            WindowKind::Gaussian { sigma: 0.4 },
            WindowSymmetry::Symmetric,
            33,
        )
        .unwrap();
        assert!((w[16] - 1.0).abs() < 1e-12);
        assert!(w[0] < w[16]);
    }

    #[test]
    fn gaussian_rejects_bad_sigma() {
        assert!(window(
            WindowKind::Gaussian { sigma: 0.0 },
            WindowSymmetry::Periodic,
            8
        )
        .is_err());
        assert!(window(
            WindowKind::Gaussian { sigma: -1.0 },
            WindowSymmetry::Periodic,
            8
        )
        .is_err());
    }

    #[test]
    fn zero_length_rejected() {
        assert!(window(WindowKind::Hann, WindowSymmetry::Periodic, 0).is_err());
    }

    #[test]
    fn length_one_is_unity() {
        let w = window(WindowKind::Blackman, WindowSymmetry::Periodic, 1).unwrap();
        assert_eq!(w, vec![1.0]);
    }
}
