//! Property-based invariants of the neural-network substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rcr_nn::gan::RingMixture;
use rcr_nn::layers::{Activation, ActivationLayer, BatchNorm, Layer, Linear};
use rcr_nn::network::bce_with_logits;
use rcr_nn::tensor::Tensor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn activations_respect_their_ranges(values in prop::collection::vec(-50.0f64..50.0, 1..32)) {
        let x = Tensor::from_vec(vec![1, values.len()], values.clone()).unwrap();
        let y = ActivationLayer::new(Activation::Sigmoid).forward(&x, true).unwrap();
        prop_assert!(y.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        let y = ActivationLayer::new(Activation::Tanh).forward(&x, true).unwrap();
        prop_assert!(y.data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
        let y = ActivationLayer::new(Activation::Relu).forward(&x, true).unwrap();
        prop_assert!(y.data().iter().zip(&values).all(|(&o, &i)| o == i.max(0.0)));
    }

    #[test]
    fn bce_loss_nonnegative_and_finite(
        logits in prop::collection::vec(-700.0f64..700.0, 4),
        bits in prop::collection::vec(any::<bool>(), 4),
    ) {
        let p = Tensor::from_vec(vec![4], logits).unwrap();
        let t = Tensor::from_vec(vec![4], bits.iter().map(|&b| f64::from(b)).collect()).unwrap();
        let (loss, grad) = bce_with_logits(&p, &t).unwrap();
        prop_assert!(loss >= -1e-12 && loss.is_finite());
        prop_assert!(grad.is_finite());
        // Gradient components live in [-1/n, 1/n].
        prop_assert!(grad.data().iter().all(|&g| g.abs() <= 0.25 + 1e-12));
    }

    #[test]
    fn linear_layer_is_linear(
        a in prop::collection::vec(-2.0f64..2.0, 3),
        b in prop::collection::vec(-2.0f64..2.0, 3),
        alpha in -2.0f64..2.0,
    ) {
        let mut l = Linear::new(3, 2, 7).unwrap();
        let fa = l.forward(&Tensor::from_vec(vec![1, 3], a.clone()).unwrap(), true).unwrap();
        let fb = l.forward(&Tensor::from_vec(vec![1, 3], b.clone()).unwrap(), true).unwrap();
        let mix: Vec<f64> = a.iter().zip(&b).map(|(x, y)| alpha * x + (1.0 - alpha) * y).collect();
        let fm = l.forward(&Tensor::from_vec(vec![1, 3], mix).unwrap(), true).unwrap();
        // Affine: f(αa + (1−α)b) = αf(a) + (1−α)f(b).
        for ((m, x), y) in fm.data().iter().zip(fa.data()).zip(fb.data()) {
            prop_assert!((m - (alpha * x + (1.0 - alpha) * y)).abs() < 1e-9);
        }
    }

    #[test]
    fn batchnorm_output_statistics(values in prop::collection::vec(-10.0f64..10.0, 16)) {
        // 8 samples x 2 channels; training-mode output is standardized.
        let x = Tensor::from_vec(vec![8, 2], values).unwrap();
        let mut bn = BatchNorm::new(2).unwrap();
        let y = bn.forward(&x, true).unwrap();
        for c in 0..2 {
            let col: Vec<f64> = (0..8).map(|i| y.data()[i * 2 + c]).collect();
            let mean = col.iter().sum::<f64>() / 8.0;
            prop_assert!(mean.abs() < 1e-8, "mean {mean}");
        }
    }

    #[test]
    fn ring_mixture_samples_lie_near_the_ring(seed in 0u64..500) {
        let m = RingMixture::new(8, 2.0, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let samples = m.sample(&mut rng, 64);
        for s in &samples {
            let r = (s[0] * s[0] + s[1] * s[1]).sqrt();
            // Within 6σ of the ring radius (probabilistically certain).
            prop_assert!((r - 2.0).abs() < 0.6, "radius {r}");
        }
        prop_assert!(m.quality(&samples) > 0.9);
    }
}
