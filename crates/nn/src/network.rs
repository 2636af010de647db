//! A sequential network container and first-order optimizers.

use crate::layers::Layer;
use crate::tensor::Tensor;
use crate::NnError;

/// A sequential stack of layers trained by manual backpropagation.
#[derive(Debug)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Creates a network from a layer stack.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Network { layers }
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Forward pass in training mode.
    ///
    /// # Errors
    /// Propagates layer shape errors; reports divergence when activations
    /// become non-finite.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        self.forward_mode(x, true)
    }

    /// Forward pass in inference mode (running statistics, no caches
    /// needed afterwards).
    ///
    /// # Errors
    /// Same as [`Network::forward`].
    pub fn infer(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        self.forward_mode(x, false)
    }

    fn forward_mode(&mut self, x: &Tensor, training: bool) -> Result<Tensor, NnError> {
        let mut cur = x.clone();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            cur = layer.forward(&cur, training)?;
            if !cur.is_finite() {
                return Err(NnError::Diverged(format!(
                    "non-finite activation after layer {i}"
                )));
            }
        }
        Ok(cur)
    }

    /// Backward pass from the loss gradient w.r.t. the network output.
    ///
    /// # Errors
    /// Propagates layer errors; reports divergence on non-finite grads.
    pub fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let mut cur = grad.clone();
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            cur = layer.backward(&cur)?;
            if !cur.is_finite() {
                return Err(NnError::Diverged(format!(
                    "non-finite gradient before layer {i}"
                )));
            }
        }
        Ok(cur)
    }

    /// Applies one optimizer step and clears gradients.
    pub fn step(&mut self, opt: &mut Optimizer) {
        let mut slot = 0usize;
        for layer in &mut self.layers {
            for (param, grad) in layer.params_mut() {
                opt.update(slot, param, grad);
                slot += 1;
            }
            layer.zero_grad();
        }
    }

    /// Clears all accumulated gradients without stepping.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Global gradient-norm clipping: scales all gradients so their joint
    /// L2 norm is at most `max_norm`. Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f64) -> f64 {
        let mut sq = 0.0;
        for layer in &mut self.layers {
            for (_, grad) in layer.params_mut() {
                sq += grad.iter().map(|g| g * g).sum::<f64>();
            }
        }
        let norm = sq.sqrt();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for layer in &mut self.layers {
                for (_, grad) in layer.params_mut() {
                    grad.iter_mut().for_each(|g| *g *= s);
                }
            }
        }
        norm
    }
}

/// First-order optimizer state.
#[derive(Debug, Clone)]
pub struct Optimizer {
    kind: OptKind,
    lr: f64,
    // Per-slot moment buffers, lazily sized.
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
    t: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum OptKind {
    Sgd { momentum: f64 },
    Adam { beta1: f64, beta2: f64, eps: f64 },
}

impl Optimizer {
    /// Plain SGD (no momentum).
    pub fn sgd(lr: f64) -> Self {
        Optimizer {
            kind: OptKind::Sgd { momentum: 0.0 },
            lr,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Adam with the standard DCGAN-friendly defaults (β₁ = 0.5).
    pub fn adam(lr: f64) -> Self {
        Optimizer {
            kind: OptKind::Adam {
                beta1: 0.5,
                beta2: 0.999,
                eps: 1e-8,
            },
            lr,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn ensure_slot(&mut self, slot: usize, len: usize) {
        while self.m.len() <= slot {
            self.m.push(Vec::new());
            self.v.push(Vec::new());
        }
        if self.m[slot].len() != len {
            self.m[slot] = vec![0.0; len];
            self.v[slot] = vec![0.0; len];
        }
    }

    /// Applies the update for one parameter buffer. `slot` must be stable
    /// across steps (the network assigns slots in layer order).
    pub fn update(&mut self, slot: usize, param: &mut [f64], grad: &[f64]) {
        self.ensure_slot(slot, param.len());
        if slot == 0 {
            self.t += 1;
        }
        match self.kind {
            OptKind::Sgd { momentum } => {
                let m = &mut self.m[slot];
                for ((p, &g), mv) in param.iter_mut().zip(grad).zip(m.iter_mut()) {
                    *mv = momentum * *mv + g;
                    *p -= self.lr * *mv;
                }
            }
            OptKind::Adam { beta1, beta2, eps } => {
                let t = self.t.max(1) as i32;
                let bc1 = 1.0 - beta1.powi(t);
                let bc2 = 1.0 - beta2.powi(t);
                let (m, v) = (&mut self.m[slot], &mut self.v[slot]);
                for (((p, &g), mv), vv) in param
                    .iter_mut()
                    .zip(grad)
                    .zip(m.iter_mut())
                    .zip(v.iter_mut())
                {
                    *mv = beta1 * *mv + (1.0 - beta1) * g;
                    *vv = beta2 * *vv + (1.0 - beta2) * g * g;
                    let mh = *mv / bc1;
                    let vh = *vv / bc2;
                    *p -= self.lr * mh / (vh.sqrt() + eps);
                }
            }
        }
    }
}

/// Binary cross-entropy on logits: returns `(loss, dL/dlogit)`.
/// Uses the fused softplus form — numerically stable for large logits
/// (the §V lesson applied to the GAN loss).
///
/// # Errors
/// Returns [`NnError::ShapeMismatch`] when shapes differ.
pub fn bce_with_logits(pred: &Tensor, target: &Tensor) -> Result<(f64, Tensor), NnError> {
    if pred.shape() != target.shape() {
        return Err(NnError::ShapeMismatch {
            op: "bce",
            got: pred.shape().to_vec(),
        });
    }
    let n = pred.len().max(1) as f64;
    let mut grad = pred.clone();
    let mut loss = 0.0;
    for (g, &t) in grad.data_mut().iter_mut().zip(target.data()) {
        let z = *g;
        // loss = softplus(z) − t·z ; d/dz = σ(z) − t.
        loss += rcr_numerics::stable::softplus(z) - t * z;
        *g = (rcr_numerics::stable::sigmoid(z) - t) / n;
    }
    Ok((loss / n, grad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, ActivationLayer, Linear};

    fn xor_net(seed: u64) -> Network {
        Network::new(vec![
            Box::new(Linear::new(2, 8, seed).unwrap()),
            Box::new(ActivationLayer::new(Activation::Tanh)),
            Box::new(Linear::new(8, 1, seed + 1).unwrap()),
        ])
    }

    #[test]
    #[allow(clippy::identity_op)] // per-layer W·x+b arithmetic spelled out
    fn param_count_sums_layers() {
        let net = xor_net(0);
        assert_eq!(net.param_count(), (2 * 8 + 8) + (8 * 1 + 1));
    }

    #[test]
    fn learns_xor_with_adam() {
        let mut net = xor_net(3);
        let mut opt = Optimizer::adam(0.02);
        let x = Tensor::from_vec(vec![4, 2], vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]).unwrap();
        let t = Tensor::from_vec(vec![4, 1], vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let mut last = f64::INFINITY;
        for _ in 0..800 {
            let y = net.forward(&x).unwrap();
            // Mean squared error and its gradient 2(y − t)/n.
            let n = y.len() as f64;
            let mut grad = y.clone();
            let mut loss = 0.0;
            for (g, &t) in grad.data_mut().iter_mut().zip(t.data()) {
                let d = *g - t;
                loss += d * d;
                *g = 2.0 * d / n;
            }
            net.backward(&grad).unwrap();
            net.step(&mut opt);
            last = loss / n;
        }
        assert!(last < 0.01, "final loss {last}");
    }

    #[test]
    fn grad_clipping_bounds_norm() {
        let mut net = xor_net(1);
        let x = Tensor::from_vec(vec![1, 2], vec![100.0, -100.0]).unwrap();
        let y = net.forward(&x).unwrap();
        let big_grad = y.map(|_| 1e6);
        net.backward(&big_grad).unwrap();
        let pre = net.clip_grad_norm(1.0);
        assert!(pre > 1.0);
        // Norm after clipping is exactly max_norm.
        let mut sq = 0.0;
        for layer in &mut net.layers {
            for (_, g) in layer.params_mut() {
                sq += g.iter().map(|v| v * v).sum::<f64>();
            }
        }
        assert!((sq.sqrt() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bce_logits_stable_at_extremes() {
        let p = Tensor::from_vec(vec![2], vec![1000.0, -1000.0]).unwrap();
        let t = Tensor::from_vec(vec![2], vec![1.0, 0.0]).unwrap();
        let (loss, grad) = bce_with_logits(&p, &t).unwrap();
        assert!(loss.is_finite());
        assert!(loss < 1e-6); // perfectly classified
        assert!(grad.is_finite());
    }

    #[test]
    fn bce_gradient_sign() {
        let p = Tensor::from_vec(vec![1], vec![0.0]).unwrap();
        let t1 = Tensor::from_vec(vec![1], vec![1.0]).unwrap();
        let (_, g1) = bce_with_logits(&p, &t1).unwrap();
        assert!(g1.data()[0] < 0.0); // push logit up toward the target
        let t0 = Tensor::from_vec(vec![1], vec![0.0]).unwrap();
        let (_, g0) = bce_with_logits(&p, &t0).unwrap();
        assert!(g0.data()[0] > 0.0);
    }

    #[test]
    fn divergence_detected() {
        let mut net = xor_net(0);
        let x = Tensor::from_vec(vec![1, 2], vec![f64::MAX, f64::MAX]).unwrap();
        // tanh keeps activations finite, so force divergence via backward.
        let y = net.forward(&x);
        if let Ok(y) = y {
            let bad = y.map(|_| f64::NAN);
            assert!(net.backward(&bad).is_err());
        }
    }
}
