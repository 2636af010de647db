//! Free functions on `&[f64]` vectors.
//!
//! These helpers operate on plain slices so callers never need to wrap data
//! in a dedicated vector type. All fallible operations assert matching
//! lengths via `debug_assert!` and document panic behaviour.

/// Dot product of two equal-length slices.
///
/// Delegates to `rcr_kernels::dot`, which preserves the sequential
/// `.sum()` fold (seeded with `-0.0`, matching std) bit-for-bit.
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    rcr_kernels::dot(a, b)
}

/// Euclidean norm.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Infinity norm (maximum absolute value); `0.0` for an empty slice.
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// `y += alpha * x`.
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    rcr_kernels::axpy(alpha, x, y)
}

/// Element-wise `a - b` into a new vector.
///
/// # Panics
/// Panics in debug builds if the lengths differ.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len(), "sub length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Element-wise `a + b` into a new vector.
///
/// # Panics
/// Panics in debug builds if the lengths differ.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len(), "add length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// `alpha * a` into a new vector.
pub fn scale(alpha: f64, a: &[f64]) -> Vec<f64> {
    a.iter().map(|v| alpha * v).collect()
}

/// Euclidean distance between two points.
///
/// # Panics
/// Panics in debug builds if the lengths differ.
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "distance length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// True when every element is finite.
pub fn is_finite(a: &[f64]) -> bool {
    a.iter().all(|v| v.is_finite())
}

/// Index and value of the maximum element; `None` for an empty slice.
/// NaN entries are skipped.
pub fn argmax(a: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv >= v => {}
            _ => best = Some((i, v)),
        }
    }
    best
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Population variance; `0.0` for slices shorter than 2.
pub fn variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm_inf(&[-5.0, 2.0]), 5.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    fn elementwise_ops() {
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 4.0]), vec![-2.0, -2.0]);
        assert_eq!(scale(2.0, &[1.0, -1.0]), vec![2.0, -2.0]);
        assert_eq!(distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn argmax_skips_nan() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some((1, 3.0)));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f64::NAN, 2.0]), Some((1, 2.0)));
    }

    #[test]
    fn stats() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-15);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn finiteness() {
        assert!(is_finite(&[1.0, 2.0]));
        assert!(!is_finite(&[1.0, f64::NAN]));
        assert!(!is_finite(&[f64::INFINITY]));
    }
}
