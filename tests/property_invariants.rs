//! Property-based invariants across the workspace (proptest).

use proptest::prelude::*;
use rcr::linalg::{vector, Matrix};
use rcr::numerics::stable::{log_softmax, softmax};
use rcr::signal::fft::{fft, ifft};
use rcr::signal::Complex64;
use rcr::verify::bounds::interval_bounds;
use rcr::verify::net::AffineReluNet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_ifft_roundtrip(values in prop::collection::vec(-100.0f64..100.0, 1..64)) {
        let x: Vec<Complex64> = values.iter().map(|&v| Complex64::from_real(v)).collect();
        let back = ifft(&fft(&x).unwrap()).unwrap();
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((a.re - b.re).abs() < 1e-8);
            prop_assert!(b.im.abs() < 1e-8);
        }
    }

    #[test]
    fn softmax_is_distribution(logits in prop::collection::vec(-50.0f64..50.0, 1..16)) {
        let p = softmax(&logits);
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // log_softmax consistency.
        let lp = log_softmax(&logits);
        for (a, b) in p.iter().zip(&lp) {
            prop_assert!((a.ln() - b).abs() < 1e-7);
        }
    }

    #[test]
    fn psd_projection_is_psd_and_idempotent(
        entries in prop::collection::vec(-3.0f64..3.0, 9)
    ) {
        let a = Matrix::from_vec(3, 3, entries).unwrap().symmetrize().unwrap();
        let p = a.psd_projection().unwrap();
        prop_assert!(p.min_eigenvalue().unwrap() > -1e-8);
        let pp = p.psd_projection().unwrap();
        prop_assert!((&pp - &p).max_abs() < 1e-7);
    }

    #[test]
    fn lu_solve_residual_small(
        entries in prop::collection::vec(-2.0f64..2.0, 16),
        rhs in prop::collection::vec(-5.0f64..5.0, 4),
    ) {
        let mut a = Matrix::from_vec(4, 4, entries).unwrap();
        // Diagonal dominance guarantees solvability.
        for i in 0..4 {
            let v = a[(i, i)];
            a[(i, i)] = v + 10.0;
        }
        let x = a.solve(&rhs).unwrap();
        let r = a.matvec(&x).unwrap();
        prop_assert!(vector::norm_inf(&vector::sub(&r, &rhs)) < 1e-8);
    }

    #[test]
    fn ibp_bounds_contain_samples(
        w in prop::collection::vec(-2.0f64..2.0, 6),
        b in prop::collection::vec(-1.0f64..1.0, 3),
        probe in -1.0f64..1.0,
    ) {
        // 1-3-1 ReLU net with random weights; the IBP output box must
        // contain every sampled output.
        let w1 = Matrix::from_vec(3, 1, w[..3].to_vec()).unwrap();
        let w2 = Matrix::from_vec(1, 3, w[3..].to_vec()).unwrap();
        let net = AffineReluNet::new(vec![(w1, b.clone()), (w2, vec![0.0])]).unwrap();
        let bounds = interval_bounds(&net, &[(-1.0, 1.0)]).unwrap();
        let (lo, hi) = bounds.output()[0];
        let y = net.eval(&[probe]).unwrap()[0];
        prop_assert!(y >= lo - 1e-9 && y <= hi + 1e-9);
    }

    #[test]
    fn waterfill_respects_budget(
        gains in prop::collection::vec(0.1f64..100.0, 1..8),
        budget in 0.1f64..10.0,
    ) {
        let owners: Vec<usize> = (0..gains.len()).collect();
        let problem = rcr::qos::power::PowerProblem {
            min_rates_bps: vec![0.0; gains.len()],
            gains,
            owners,
            power_budget: budget,
            rb_bandwidth_hz: 1.0,
        };
        let sol = rcr::qos::power::solve_power(&problem).unwrap();
        prop_assert!(sol.powers.iter().sum::<f64>() <= budget * (1.0 + 1e-6));
        prop_assert!(sol.powers.iter().all(|&p| p >= 0.0));
        prop_assert!(sol.feasible);
    }
}
