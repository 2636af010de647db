//! CROWN-style backward linear relaxation with the ReLU triangle
//! envelope — the paper's "tightened convex relaxation" verifier arm
//! (Anderson et al. 2020, Salman et al. 2019).
//!
//! A linear function of the network output is propagated backward; at
//! each unstable ReLU the coefficient sign selects the convex
//! under-estimator (a line `λz` through the origin) or the concave
//! over-estimator (the chord `u(z − l)/(u − l)`), exactly the
//! envelope pair of §II-B. The result is an affine minorant of the
//! specification over the input box, concretized by interval arithmetic.

use crate::bounds::{interval_bounds, LayerBounds};
use crate::net::{validate_box, AffineReluNet, Specification};
use crate::VerifyError;
use rcr_kernels::Scratch;

/// Result of a CROWN bound computation.
#[derive(Debug, Clone)]
pub struct CrownBound {
    /// Sound lower bound on `cᵀ f(x) + offset` over the box.
    pub lower: f64,
    /// The affine minorant's coefficients over the input (for diagnosis
    /// and for warm-starting branch-and-bound).
    pub input_coeffs: Vec<f64>,
    /// The affine minorant's constant term.
    pub constant: f64,
}

/// Computes a CROWN lower bound for `spec` over `input_box`, reusing
/// caller-provided interval bounds (so branch-and-bound can pass refined
/// per-node bounds).
///
/// # Errors
/// * [`VerifyError::InvalidInput`] on malformed box/spec.
/// * [`VerifyError::DimensionMismatch`] on incompatible dimensions.
pub fn crown_lower_with_bounds(
    net: &AffineReluNet,
    input_box: &[(f64, f64)],
    spec: &Specification,
    bounds: &LayerBounds,
) -> Result<CrownBound, VerifyError> {
    let mut scratch = Scratch::new();
    crown_lower_with_bounds_scratch(net, input_box, spec, bounds, &mut scratch)
}

/// [`crown_lower_with_bounds`] propagating the backward state through
/// buffers checked out of `scratch`. The intermediate coefficient vectors
/// ping-pong through the pool; only the returned
/// [`CrownBound::input_coeffs`] vector permanently leaves it. For a fully
/// allocation-free bound (the branch-and-bound hot path), use
/// [`crown_lower_value_scratch`].
///
/// # Errors
/// Same as [`crown_lower_with_bounds`].
pub fn crown_lower_with_bounds_scratch(
    net: &AffineReluNet,
    input_box: &[(f64, f64)],
    spec: &Specification,
    bounds: &LayerBounds,
    scratch: &mut Scratch,
) -> Result<CrownBound, VerifyError> {
    let (lower, constant, input_coeffs) =
        crown_backward(net, input_box, &spec.c, spec.offset, bounds, scratch)?;
    Ok(CrownBound {
        lower,
        input_coeffs,
        constant,
    })
}

/// The lower bound of [`crown_lower_with_bounds_scratch`] alone, with
/// every intermediate buffer returned to `scratch` — zero allocations once
/// the pool is warm. Branch-and-bound calls this once per node.
///
/// # Errors
/// Same as [`crown_lower_with_bounds`].
pub fn crown_lower_value_scratch(
    net: &AffineReluNet,
    input_box: &[(f64, f64)],
    spec: &Specification,
    bounds: &LayerBounds,
    scratch: &mut Scratch,
) -> Result<f64, VerifyError> {
    let (lower, _, coeffs) = crown_backward(net, input_box, &spec.c, spec.offset, bounds, scratch)?;
    scratch.give_f64(coeffs);
    Ok(lower)
}

/// Slice-level backward pass shared by the public CROWN entry points:
/// returns `(lower, constant, input_coeffs)` with `input_coeffs` checked
/// out of `scratch` (the caller owns it and decides whether to recycle).
/// Accumulation orders are exactly those of the historical implementation:
/// the bias dot is a sequential `.sum()`-seeded fold and the `aᵀW` row
/// combination keeps the increasing-`r` order with the `ar == 0.0` skip.
fn crown_backward(
    net: &AffineReluNet,
    input_box: &[(f64, f64)],
    spec_c: &[f64],
    spec_offset: f64,
    bounds: &LayerBounds,
    scratch: &mut Scratch,
) -> Result<(f64, f64, Vec<f64>), VerifyError> {
    validate_box(input_box)?;
    if spec_c.len() != net.output_dim() {
        return Err(VerifyError::DimensionMismatch(format!(
            "spec has {} coefficients, network emits {}",
            spec_c.len(),
            net.output_dim()
        )));
    }
    if input_box.len() != net.input_dim() {
        return Err(VerifyError::DimensionMismatch(format!(
            "box has {} dims, network expects {}",
            input_box.len(),
            net.input_dim()
        )));
    }

    let depth = net.depth();
    // Backward state: spec ≥ a·h + c where h is the post-activation of
    // layer `li` (initially the output itself).
    let mut a = scratch.take_f64(spec_c.len(), 0.0);
    a.copy_from_slice(spec_c);
    let mut c = spec_offset;

    for li in (0..depth).rev() {
        let (w, b) = &net.layers()[li];
        // Through the affine layer: h_post(li) relates to previous post as
        // z = W h_prev + b, and (except the last layer) h = ReLU(z).
        // `a` currently multiplies h(li)-post; first undo the ReLU (if
        // any), turning it into a function of z(li).
        if li + 1 < depth {
            // a·h with h = ReLU(z): relax each unstable coordinate.
            let pre = &bounds.pre_activation()[li];
            for (j, aj) in a.iter_mut().enumerate() {
                let (l, u) = pre[j];
                if u <= 0.0 {
                    *aj = 0.0; // neuron always off
                } else if l >= 0.0 {
                    // identity: keep aj
                } else if *aj >= 0.0 {
                    // lower envelope: h ≥ λ z, λ ∈ [0, 1]; adaptive pick.
                    let lambda = if u >= -l { 1.0 } else { 0.0 };
                    *aj *= lambda;
                } else {
                    // upper envelope: h ≤ u (z − l)/(u − l).
                    let slope = u / (u - l);
                    c += *aj * (-l * slope);
                    *aj *= slope;
                }
            }
        }
        // Now through the affine map z = W h_prev + b:
        // a·z + c = (aᵀW)·h_prev + a·b + c.
        c += rcr_kernels::dot(&a, b);
        let mut new_a = scratch.take_f64(w.cols(), 0.0);
        for (r, ar) in a.iter().enumerate() {
            if *ar == 0.0 {
                continue;
            }
            rcr_kernels::axpy(*ar, w.row(r), &mut new_a);
        }
        scratch.give_f64(std::mem::replace(&mut a, new_a));
    }

    // Concretize over the input box.
    let mut lower = c;
    for (ai, &(lo, hi)) in a.iter().zip(input_box) {
        lower += if *ai >= 0.0 { ai * lo } else { ai * hi };
    }
    Ok((lower, c, a))
}

/// Computes a CROWN lower bound, deriving interval bounds internally.
///
/// # Errors
/// Same as [`crown_lower_with_bounds`].
pub fn crown_lower(
    net: &AffineReluNet,
    input_box: &[(f64, f64)],
    spec: &Specification,
) -> Result<CrownBound, VerifyError> {
    let bounds = interval_bounds(net, input_box)?;
    crown_lower_with_bounds(net, input_box, spec, &bounds)
}

/// Per-output CROWN bounds `(lo, hi)` via unit specifications (the upper
/// bound of output `j` is minus the lower bound of `−e_j`).
///
/// # Errors
/// Same as [`crown_lower`].
pub fn crown_output_bounds(
    net: &AffineReluNet,
    input_box: &[(f64, f64)],
) -> Result<Vec<(f64, f64)>, VerifyError> {
    crown_output_bounds_parallel(net, input_box, 1)
}

/// [`crown_output_bounds`] with the per-output-node backward passes fanned
/// out across `workers` threads (a count as resolved by
/// [`rcr_runtime::resolve_workers`]).
///
/// Each output's `±e_j` backward substitutions are independent and share
/// only the read-only pre-activation bounds, so results are bit-identical
/// to the serial sweep for every worker count.
///
/// # Errors
/// Same as [`crown_lower`].
pub fn crown_output_bounds_parallel(
    net: &AffineReluNet,
    input_box: &[(f64, f64)],
    workers: usize,
) -> Result<Vec<(f64, f64)>, VerifyError> {
    let bounds = interval_bounds(net, input_box)?;
    let m = net.output_dim();
    let outputs: Vec<usize> = (0..m).collect();
    let per_output = rcr_runtime::parallel_map(&outputs, workers, |_, &j| {
        // Both ±e_j backward passes run through this worker thread's
        // scratch pool: after the first output, no allocations remain.
        crate::with_scratch(|scratch| {
            let mut c = scratch.take_f64(m, 0.0);
            c[j] = 1.0;
            let (lo, _, coeffs) = crown_backward(net, input_box, &c, 0.0, &bounds, scratch)?;
            scratch.give_f64(coeffs);
            for v in &mut c {
                *v = -*v;
            }
            let (neg_hi, _, coeffs) = crown_backward(net, input_box, &c, 0.0, &bounds, scratch)?;
            scratch.give_f64(coeffs);
            scratch.give_f64(c);
            Ok::<(f64, f64), VerifyError>((lo, -neg_hi))
        })
    });
    per_output.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcr_linalg::Matrix;

    fn abs_net() -> AffineReluNet {
        AffineReluNet::new(vec![
            (
                Matrix::from_rows(&[&[1.0], &[-1.0]]).unwrap(),
                vec![0.0, 0.0],
            ),
            (Matrix::from_rows(&[&[1.0, 1.0]]).unwrap(), vec![0.0]),
        ])
        .unwrap()
    }

    fn random_net(seed: u64) -> AffineReluNet {
        // Deterministic pseudo-random 2-4-4-1 network.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mk = |rows: usize, cols: usize, f: &mut dyn FnMut() -> f64| {
            Matrix::from_fn(rows, cols, |_, _| f())
        };
        AffineReluNet::new(vec![
            (mk(4, 2, &mut next), vec![0.1, -0.1, 0.2, 0.0]),
            (mk(4, 4, &mut next), vec![0.0, 0.05, -0.05, 0.1]),
            (mk(1, 4, &mut next), vec![0.0]),
        ])
        .unwrap()
    }

    fn spec1() -> Specification {
        Specification {
            c: vec![1.0],
            offset: 0.0,
        }
    }

    #[test]
    fn exact_for_stable_region() {
        // Box entirely positive: |x| = x exactly; CROWN is exact.
        let net = abs_net();
        let b = crown_lower(&net, &[(0.5, 1.0)], &spec1()).unwrap();
        assert!((b.lower - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sound_and_tighter_than_ibp_on_abs() {
        let net = abs_net();
        let input_box = [(-1.0, 1.0)];
        // True min of |x| is 0.
        let cb = crown_lower(&net, &input_box, &spec1()).unwrap();
        assert!(cb.lower <= 0.0 + 1e-12, "must be sound: {}", cb.lower);
        let ibp = interval_bounds(&net, &input_box).unwrap();
        assert!(
            cb.lower >= ibp.output()[0].0 - 1e-12,
            "never looser than IBP here"
        );
    }

    #[test]
    fn crown_sound_on_random_networks() {
        for seed in 0..5u64 {
            let net = random_net(seed);
            let input_box = [(-0.8, 0.8), (-0.5, 1.0)];
            let cb = crown_lower(&net, &input_box, &spec1()).unwrap();
            // Exhaustive grid sample: the bound must lie below every value.
            let mut min_seen = f64::INFINITY;
            for i in 0..=24 {
                for j in 0..=24 {
                    let x = [-0.8 + 1.6 * i as f64 / 24.0, -0.5 + 1.5 * j as f64 / 24.0];
                    min_seen = min_seen.min(net.eval(&x).unwrap()[0]);
                }
            }
            assert!(
                cb.lower <= min_seen + 1e-9,
                "seed {seed}: crown {} above sampled min {min_seen}",
                cb.lower
            );
        }
    }

    #[test]
    fn crown_tighter_than_ibp_under_cancellation() {
        // CROWN's advantage over IBP is *cancellation*: when paths through
        // the network carry correlated signals, the backward linear form
        // cancels them while interval arithmetic double-counts. (On tiny
        // monotone networks whose neurons all peak at a shared corner,
        // IBP is exact and CROWN's chord slack can even lose — the regime
        // the CROWN-IBP literature documents.)
        //
        // f(x) = ReLU(x + 1.5) + ReLU(−x + 1.5) ≡ 3 on [−1, 1] (both
        // neurons stably active): CROWN is exact, IBP is off by 2.
        let net = AffineReluNet::new(vec![
            (
                Matrix::from_rows(&[&[1.0], &[-1.0]]).unwrap(),
                vec![1.5, 1.5],
            ),
            (Matrix::from_rows(&[&[1.0, 1.0]]).unwrap(), vec![0.0]),
        ])
        .unwrap();
        let input_box = [(-1.0, 1.0)];
        let cb = crown_lower(&net, &input_box, &spec1()).unwrap();
        let ibp = interval_bounds(&net, &input_box).unwrap().output()[0].0;
        assert!((cb.lower - 3.0).abs() < 1e-12, "crown {}", cb.lower);
        assert!((ibp - 1.0).abs() < 1e-12, "ibp {ibp}");
    }

    #[test]
    fn output_bounds_bracket_function() {
        let net = random_net(7);
        let input_box = [(-0.5, 0.5), (-0.5, 0.5)];
        let ob = crown_output_bounds(&net, &input_box).unwrap();
        assert_eq!(ob.len(), 1);
        let (lo, hi) = ob[0];
        assert!(lo <= hi);
        for i in 0..=10 {
            for j in 0..=10 {
                let x = [-0.5 + i as f64 / 10.0, -0.5 + j as f64 / 10.0];
                let y = net.eval(&x).unwrap()[0];
                assert!(y >= lo - 1e-9 && y <= hi + 1e-9);
            }
        }
    }

    #[test]
    fn point_box_is_exact() {
        let net = random_net(3);
        let x = [0.3, -0.2];
        let cb = crown_lower(&net, &[(x[0], x[0]), (x[1], x[1])], &spec1()).unwrap();
        assert!((cb.lower - net.eval(&x).unwrap()[0]).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        let net = abs_net();
        assert!(crown_lower(&net, &[], &spec1()).is_err());
        assert!(crown_lower(&net, &[(0.0, 1.0), (0.0, 1.0)], &spec1()).is_err());
        let bad_spec = Specification {
            c: vec![1.0, 2.0],
            offset: 0.0,
        };
        assert!(crown_lower(&net, &[(0.0, 1.0)], &bad_spec).is_err());
    }
}
