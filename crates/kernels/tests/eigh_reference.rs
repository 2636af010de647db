//! The eigensolver's bit-identity oracle.
//!
//! The functions below are the strided-layout symmetric eigensolver that
//! `rcr_kernels::eigh` ran before its memory layout became row-contiguous,
//! kept verbatim: a Householder reduction that reads the lower triangle
//! and stores `v_k` in column `k`, the backward accumulation of `Q`, the
//! implicit-QL iteration rotating columns of `Z`, and the selection sort
//! swapping them. The kernel performs the same floating-point chains in
//! another memory order, so every eigenvalue, eigenvector and error must
//! match this oracle bit for bit.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rcr_kernels::{eigh, Scratch, FACTOR_NB};

/// Maximum implicit-QL iterations per eigenvalue before reporting
/// non-convergence.
const QL_MAX_ITER: usize = 30;

/// The reference decomposition: on success `a` holds the eigenvector
/// matrix (column `c` pairs with `vals[c]`) and `vals` the eigenvalues in
/// ascending IEEE-total order. Reads only the lower triangle of `a`.
fn eigh_reference(a: &mut [f64], n: usize, vals: &mut [f64]) -> Result<(), usize> {
    if n == 0 {
        return Ok(());
    }
    let mut e = vec![0.0; n];
    let mut tau = vec![0.0; n];
    let mut w = vec![0.0; n];
    let mut z = vec![0.0; n * n];
    tridiagonalize(a, n, &mut e, &mut tau, &mut w, FACTOR_NB);
    for i in 0..n {
        vals[i] = a[i * n + i];
    }
    accumulate_tridiag_q(a, n, &tau, &mut z);
    let result = tql2(vals, &mut e, &mut z, n);
    if result.is_ok() {
        sort_eigh(vals, &mut z, &mut w, n);
        a.copy_from_slice(&z);
    }
    result
}

/// Householder reduction to tridiagonal form. On return the diagonal of
/// `a` holds the tridiagonal diagonal, `e[k]` the subdiagonal entry
/// between rows `k` and `k+1`, and column `k` below the diagonal stores
/// the Householder vector `v_k` (with `tau[k] = β_k = 2/v_kᵀv_k`, `0.0`
/// marking a skipped column). Only the lower triangle of the active
/// trailing block is referenced; `wbuf` is an `n`-length workspace. Row
/// loops of the matvec and rank-2 update are strip-mined in `nb` bands.
fn tridiagonalize(
    a: &mut [f64],
    n: usize,
    e: &mut [f64],
    tau: &mut [f64],
    wbuf: &mut [f64],
    nb: usize,
) {
    for k in 0..n.saturating_sub(2) {
        let lo = k + 1;
        let mut norm2 = 0.0;
        for i in lo..n {
            norm2 += a[i * n + k] * a[i * n + k];
        }
        let norm = norm2.sqrt();
        if norm == 0.0 {
            e[k] = 0.0;
            tau[k] = 0.0;
            continue;
        }
        let x0 = a[lo * n + k];
        let alpha = if x0 >= 0.0 { -norm } else { norm };
        let v0 = x0 - alpha;
        let mut vtv = 0.0;
        vtv += v0 * v0;
        for i in (lo + 1)..n {
            vtv += a[i * n + k] * a[i * n + k];
        }
        e[k] = alpha;
        if vtv == 0.0 {
            tau[k] = 0.0;
            continue;
        }
        let beta = 2.0 / vtv;
        tau[k] = beta;
        a[lo * n + k] = v0;

        // w = β·A₂₂·v over the trailing block, reading the symmetric
        // matrix from its lower triangle; each w[i] is one j-ascending
        // chain, so banding the i loop never reorders a chain.
        let mut band = lo;
        while band < n {
            let bend = (band + nb).min(n);
            for i in band..bend {
                let mut acc = 0.0;
                for j in lo..n {
                    let aij = if j <= i { a[i * n + j] } else { a[j * n + i] };
                    acc += aij * a[j * n + k];
                }
                wbuf[i] = beta * acc;
            }
            band = bend;
        }
        // w ← w − (β/2)(wᵀv)·v, then A₂₂ ← A₂₂ − v·wᵀ − w·vᵀ.
        let mut wv = 0.0;
        for i in lo..n {
            wv += wbuf[i] * a[i * n + k];
        }
        let kappa = 0.5 * beta * wv;
        for i in lo..n {
            wbuf[i] -= kappa * a[i * n + k];
        }
        let mut band = lo;
        while band < n {
            let bend = (band + nb).min(n);
            for i in band..bend {
                let vi = a[i * n + k];
                let wi = wbuf[i];
                for j in lo..=i {
                    a[i * n + j] -= vi * wbuf[j] + wi * a[j * n + k];
                }
            }
            band = bend;
        }
    }
    // The final 2x2 block is never reflected; read its subdiagonal only
    // after the trailing updates above have finished rewriting it.
    if n >= 2 {
        e[n - 2] = a[(n - 1) * n + (n - 2)];
    }
}

/// Backward-accumulates the tridiagonalization's orthogonal transform
/// `Q = H_0 · H_1 ⋯ H_{n-3}` into `z` (fully overwritten with a row-major
/// `n x n` matrix), reading each `v_k` from its in-place storage in `a`.
fn accumulate_tridiag_q(a: &[f64], n: usize, tau: &[f64], z: &mut [f64]) {
    z.fill(0.0);
    for i in 0..n {
        z[i * n + i] = 1.0;
    }
    for k in (0..n.saturating_sub(2)).rev() {
        if tau[k] == 0.0 {
            continue;
        }
        let lo = k + 1;
        // Columns c < lo of z are unit vectors orthogonal to v_k.
        for c in lo..n {
            let mut dot = 0.0;
            for i in lo..n {
                dot += a[i * n + k] * z[i * n + c];
            }
            let f = tau[k] * dot;
            for i in lo..n {
                z[i * n + c] -= f * a[i * n + k];
            }
        }
    }
}

/// Implicit-shift QL iteration on the tridiagonal `(d, e)` with
/// eigenvector accumulation into `z` (EISPACK `tql2` lineage). `e` enters
/// with the subdiagonal in `e[0..n-1]` and is destroyed. On success `d`
/// holds unordered eigenvalues and the columns of `z` the matching
/// eigenvectors.
///
/// Deflation uses EISPACK's running-norm test: `e[m]` is negligible once
/// `|e[m]| <= ε·tst1`, where `tst1 = max |d[l]| + |e[l]|` over the rows
/// already visited. A local test against `|d[m]| + |d[m+1]|` never passes
/// inside a cluster of zero eigenvalues (its right-hand side is itself
/// about 0), so exactly rank-deficient input would exhaust
/// [`QL_MAX_ITER`].
fn tql2(d: &mut [f64], e: &mut [f64], z: &mut [f64], n: usize) -> Result<(), usize> {
    if n <= 1 {
        return Ok(());
    }
    e[n - 1] = 0.0;
    let mut tst1 = 0.0f64;
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut iter = 0;
        loop {
            // Find the first negligible subdiagonal at or after l.
            let mut m = l;
            while m + 1 < n {
                if e[m].abs() <= f64::EPSILON * tst1 {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            if iter == QL_MAX_ITER {
                return Err(QL_MAX_ITER);
            }
            iter += 1;
            // Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            let sign_r = if g >= 0.0 { r } else { -r };
            g = d[m] - d[l] + e[l] / (g + sign_r);
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Underflow recovery: drop the deflated tail and
                    // restart the sweep (EISPACK lineage).
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Rotate eigenvector columns i and i+1.
                for row in 0..n {
                    f = z[row * n + i + 1];
                    let zi = z[row * n + i];
                    z[row * n + i + 1] = s * zi + c * f;
                    z[row * n + i] = c * zi - s * f;
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Sorts eigenpairs ascending by `total_cmp`, permuting the columns of
/// `z` through the `perm` workspace row by row (no allocation).
fn sort_eigh(vals: &mut [f64], z: &mut [f64], perm: &mut [f64], n: usize) {
    // Selection sort: O(n²) swaps of (value, column) pairs — negligible
    // next to the O(n³) decomposition, and allocation-free.
    for i in 0..n {
        let mut best = i;
        for j in (i + 1)..n {
            if vals[j].total_cmp(&vals[best]) == std::cmp::Ordering::Less {
                best = j;
            }
        }
        if best != i {
            vals.swap(i, best);
            for row in 0..n {
                z.swap(row * n + i, row * n + best);
            }
        }
    }
    let _ = perm;
}

/// SplitMix64 stream: the inputs are drawn from a seed rather than from
/// an `n²`-long strategy, so a 96 × 96 case costs one `u64`.
struct Stream(u64);

impl Stream {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

/// The input shapes the proptest draws from.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Uniform symmetric entries: full rank.
    FullRank,
    /// `u·uᵀ + v·vᵀ` with small integer `u`, `v`, so every entry is exact
    /// and the matrix has exactly two nonzero eigenvalues.
    RankTwo,
    /// Symmetric with most entries `+0.0` or `-0.0` and one all-zero row
    /// and column, which makes some reflectors skip.
    SignedZeroSparse,
    /// Uniform lower triangle under an unrelated strict upper triangle,
    /// which both solvers must ignore.
    GarbageUpper,
    /// Uniform symmetric entries with one NaN below the diagonal.
    NotANumber,
}

const SHAPES: [Shape; 5] = [
    Shape::FullRank,
    Shape::RankTwo,
    Shape::SignedZeroSparse,
    Shape::GarbageUpper,
    Shape::NotANumber,
];

/// An `n x n` row-major input of the given shape.
fn input(n: usize, shape: Shape, seed: u64) -> Vec<f64> {
    let mut rng = Stream(seed);
    let mut a = vec![0.0; n * n];
    let mirror = |a: &mut [f64]| {
        for i in 0..n {
            for j in 0..i {
                a[j * n + i] = a[i * n + j];
            }
        }
    };
    match shape {
        Shape::FullRank | Shape::NotANumber => {
            for i in 0..n {
                for j in 0..=i {
                    a[i * n + j] = rng.unit();
                }
            }
            if let (Shape::NotANumber, true) = (shape, n > 0) {
                let i = (rng.next_u64() % n as u64) as usize;
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                a[i * n + j] = f64::NAN;
            }
            mirror(&mut a);
        }
        Shape::RankTwo => {
            let small = |rng: &mut Stream| (rng.next_u64() % 9) as f64 - 4.0;
            let u: Vec<f64> = (0..n).map(|_| small(&mut rng)).collect();
            let v: Vec<f64> = (0..n).map(|_| small(&mut rng)).collect();
            for i in 0..n {
                for j in 0..n {
                    a[i * n + j] = u[i] * u[j] + v[i] * v[j];
                }
            }
        }
        Shape::SignedZeroSparse => {
            let keep = 1 + rng.next_u64() % 4;
            let empty = rng.next_u64() % n.max(1) as u64;
            for i in 0..n {
                for j in 0..=i {
                    let r = rng.next_u64();
                    a[i * n + j] = if i as u64 == empty || j as u64 == empty || r % 8 >= keep {
                        if r & 1 == 0 {
                            0.0
                        } else {
                            -0.0
                        }
                    } else {
                        rng.unit()
                    };
                }
            }
            mirror(&mut a);
        }
        Shape::GarbageUpper => {
            for v in a.iter_mut() {
                *v = rng.unit();
            }
        }
    }
    a
}

/// Runs the kernel and the oracle on one input and pins every bit of the
/// result: both `Ok` with equal values and vectors, or the same `Err`,
/// which is returned.
fn check(n: usize, shape: Shape, seed: u64) -> Result<Result<(), usize>, TestCaseError> {
    let a = input(n, shape, seed);
    let mut want_v = a.clone();
    let mut want_vals = vec![0.0; n];
    let want = eigh_reference(&mut want_v, n, &mut want_vals);
    let mut got_v = a;
    let mut got_vals = vec![0.0; n];
    let got = eigh(&mut got_v, n, &mut got_vals, &mut Scratch::new());
    prop_assert_eq!(got, want, "n = {}, {:?}", n, shape);
    if want.is_ok() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got_vals), bits(&want_vals), "values, n = {}", n);
        prop_assert_eq!(bits(&got_v), bits(&want_v), "vectors, n = {}", n);
    }
    Ok(want)
}

#[test]
fn every_size_and_shape_matches_the_reference() {
    for n in (0..=64).chain([96]) {
        for shape in SHAPES {
            let outcome = check(n, shape, 0xE16 ^ n as u64).unwrap();
            // A NaN reaches every reflector once n >= 3, so QL cannot
            // converge: the sweep pins the `Err` path too.
            if let (Shape::NotANumber, 3..) = (shape, n) {
                assert_eq!(outcome, Err(QL_MAX_ITER), "n = {n}");
            }
        }
    }
}

#[test]
fn the_reference_reconstructs_its_input() {
    // The oracle is only worth pinning against if it is right.
    for n in [1usize, 2, 7, 33] {
        let a = input(n, Shape::FullRank, 7);
        let mut v = a.clone();
        let mut vals = vec![0.0; n];
        eigh_reference(&mut v, n, &mut vals).unwrap();
        for i in 0..n {
            for j in 0..n {
                let s: f64 = (0..n).map(|c| v[i * n + c] * vals[c] * v[j * n + c]).sum();
                assert!((s - a[i * n + j]).abs() < 1e-9, "n = {n} ({i},{j})");
            }
        }
        assert!(vals.windows(2).all(|w| w[0] <= w[1]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn eigh_matches_the_reference_bit_for_bit(
        size in 0usize..=65,
        shape in 0usize..SHAPES.len(),
        seed in any::<u64>(),
    ) {
        // n = 0..=64, and 96 past the largest panel the SDP sees.
        let n = if size == 65 { 96 } else { size };
        // `check` has pinned whichever outcome both sides reached.
        let _ = check(n, SHAPES[shape], seed)?;
    }
}
