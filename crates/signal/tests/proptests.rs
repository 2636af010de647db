//! Property-based invariants of the signal kernels.

use proptest::prelude::*;
use rcr_signal::fft::{dft_naive, fft, ifft, irfft, rfft};
use rcr_signal::stft::{PhaseConvention, StftPlan};
use rcr_signal::window::{window, WindowKind, WindowSymmetry};
use rcr_signal::Complex64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fft_matches_naive_dft(values in prop::collection::vec(-10.0f64..10.0, 2..40)) {
        let x: Vec<Complex64> = values.iter().map(|&v| Complex64::from_real(v)).collect();
        let fast = fft(&x).unwrap();
        let slow = dft_naive(&x).unwrap();
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((a.re - b.re).abs() < 1e-7);
            prop_assert!((a.im - b.im).abs() < 1e-7);
        }
    }

    #[test]
    fn rfft_irfft_roundtrip(values in prop::collection::vec(-10.0f64..10.0, 2..64)) {
        let spec = rfft(&values).unwrap();
        let back = irfft(&spec, values.len()).unwrap();
        for (a, b) in values.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn fft_linearity(
        a in prop::collection::vec(-5.0f64..5.0, 16),
        b in prop::collection::vec(-5.0f64..5.0, 16),
        alpha in -3.0f64..3.0,
    ) {
        let ca: Vec<Complex64> = a.iter().map(|&v| Complex64::from_real(v)).collect();
        let cb: Vec<Complex64> = b.iter().map(|&v| Complex64::from_real(v)).collect();
        let mix: Vec<Complex64> =
            ca.iter().zip(&cb).map(|(&x, &y)| x.scale(alpha) + y).collect();
        let lhs = fft(&mix).unwrap();
        let fa = fft(&ca).unwrap();
        let fb = fft(&cb).unwrap();
        for ((l, x), y) in lhs.iter().zip(&fa).zip(&fb) {
            let want = x.scale(alpha) + *y;
            prop_assert!((l.re - want.re).abs() < 1e-8);
            prop_assert!((l.im - want.im).abs() < 1e-8);
        }
    }

    #[test]
    fn parseval_holds(values in prop::collection::vec(-10.0f64..10.0, 4..64)) {
        let x: Vec<Complex64> = values.iter().map(|&v| Complex64::from_real(v)).collect();
        let spec = fft(&x).unwrap();
        let te: f64 = values.iter().map(|v| v * v).sum();
        let fe: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / values.len() as f64;
        prop_assert!((te - fe).abs() < 1e-7 * te.max(1.0));
    }

    #[test]
    fn ifft_inverts_fft(values in prop::collection::vec(-10.0f64..10.0, 6..48)) {
        let x: Vec<Complex64> = values
            .chunks(2)
            .map(|c| Complex64::new(c[0], *c.get(1).unwrap_or(&0.0)))
            .collect();
        let back = ifft(&fft(&x).unwrap()).unwrap();
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((a.re - b.re).abs() < 1e-8 && (a.im - b.im).abs() < 1e-8);
        }
    }

    #[test]
    fn stft_roundtrip_on_random_signals(
        values in prop::collection::vec(-5.0f64..5.0, 96..192),
    ) {
        let g = window(WindowKind::Hann, WindowSymmetry::Periodic, 16).unwrap();
        let plan = StftPlan::new(g, 4, 16, PhaseConvention::TimeInvariant).unwrap();
        let st = plan.analyze(&values).unwrap();
        let back = plan.synthesize(&st).unwrap();
        for (a, b) in values.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-8);
        }
    }

}
