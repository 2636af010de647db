//! Oracle for `Matrix::psd_projection` against the full spectrum.
//!
//! The projection computes only the smaller side of the spectrum when it
//! is small. The reference below is the definition: every eigenpair from
//! `symmetric_eigen`, negative eigenvalues clipped to zero, and
//! `V·diag(max(λ, 0))·Vᵀ` rebuilt. With `tol = 1e-12·max(‖A‖max, 1)`,
//! every input must give `‖P − P_full‖max ≤ tol`, `P ⪰ 0` and `P − A ⪰ 0`
//! within `tol`, and `project_psd_in_place` on a reused pool must return
//! the same bits as `psd_projection`.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rcr_kernels::Scratch;
use rcr_linalg::{Cholesky, LinalgError, Matrix};

/// splitmix64 stream with uniform and normal draws.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1).
    fn uniform(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    fn normal(&mut self) -> f64 {
        let (u, v) = (self.uniform(), self.uniform());
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.normal())
    }
}

/// The relax-drift input: `V·Vᵀ + diag(d)` with `V` n×2, shifted by its
/// mean eigenvalue, so two large modes sit above an indefinite bulk.
fn shifted_rank_two(n: usize, rng: &mut Rng) -> Matrix {
    let v = rng.matrix(n, 2);
    let mut a = v.matmul(&v.transpose()).unwrap();
    for i in 0..n {
        a[(i, i)] += 0.5 + rng.uniform();
    }
    let shift = a.trace() / n.max(1) as f64;
    for i in 0..n {
        a[(i, i)] -= shift;
    }
    a
}

/// `±V·Vᵀ` with `V` n×r, r = 1..=4: exactly rank r, so `n − r`
/// eigenvalues form a cluster at zero on the large side.
fn exact_low_rank(n: usize, rng: &mut Rng) -> Matrix {
    let r = 1 + rng.below(4);
    let v = rng.matrix(n, r);
    let a = v.matmul(&v.transpose()).unwrap();
    if rng.below(2) == 0 {
        a
    } else {
        &a * -1.0
    }
}

/// `Q·diag(λ)·Qᵀ` with `Q` the orthogonal factor of a seeded draw.
fn with_spectrum(lam: &[f64], rng: &mut Rng) -> Matrix {
    let n = lam.len();
    if n == 0 {
        return Matrix::zeros(0, 0);
    }
    let q = rng.matrix(n, n).qr().unwrap().q().clone();
    let qd = Matrix::from_fn(n, n, |r, c| q[(r, c)] * lam[c]);
    qd.matmul(&q.transpose()).unwrap().symmetrize().unwrap()
}

/// A small side holding one eigenvalue of multiplicity 2–4 (and up to
/// two more modes), on the positive or the negative side.
fn repeated_small_side(n: usize, rng: &mut Rng) -> Matrix {
    let mult = 2 + rng.below(3);
    let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
    let repeated = 0.5 + 1.5 * rng.uniform();
    let extra = rng.below(3);
    let lam: Vec<f64> = (0..n)
        .map(|i| {
            if i < mult {
                sign * repeated
            } else if i < mult + extra {
                sign * (0.5 + 3.0 * rng.uniform())
            } else {
                -sign * (0.1 + rng.uniform())
            }
        })
        .collect();
    with_spectrum(&lam, rng)
}

/// A split tridiagonal: diagonal input with repeated entries, or
/// 1×1, 2×2 and 3×3 symmetric blocks on the diagonal.
fn block_diagonal(n: usize, rng: &mut Rng) -> Matrix {
    let mut a = Matrix::zeros(n, n);
    if rng.below(2) == 0 {
        let values = [-1.0, 2.0, -0.5, 0.0, 3.0];
        for i in 0..n {
            a[(i, i)] = values[rng.below(values.len())];
        }
        return a;
    }
    let mut i = 0;
    while i < n {
        let size = (1 + rng.below(3)).min(n - i);
        let block = rng.matrix(size, size).symmetrize().unwrap();
        a.set_block(i, i, &block);
        i += size;
    }
    a
}

/// Mostly `±0.0` (both signs), with a few symmetric nonzero pairs.
fn signed_zero_sparse(n: usize, rng: &mut Rng) -> Matrix {
    let mut a = Matrix::from_fn(n, n, |r, c| if (r + 2 * c) % 3 == 0 { -0.0 } else { 0.0 });
    for _ in 0..n / 2 + 1 {
        if n == 0 {
            break;
        }
        let (r, c) = (rng.below(n), rng.below(n));
        let v = rng.normal();
        a[(r, c)] = v;
        a[(c, r)] = v;
    }
    a
}

/// `k` positive and `n − k` negative eigenvalues, `k` anywhere in
/// `0..=n`, so the smaller side falls both below and above the switch
/// between the partial and the full route.
fn split_spectrum(n: usize, rng: &mut Rng) -> Matrix {
    let k = rng.below(n + 1);
    let lam: Vec<f64> = (0..n)
        .map(|i| {
            let m = 0.05 + 2.0 * rng.uniform();
            if i < k {
                m
            } else {
                -m
            }
        })
        .collect();
    with_spectrum(&lam, rng)
}

/// `V·diag(max(λ, 0))·Vᵀ` from the full spectrum, or `None` where the
/// eigensolver does not converge.
fn full_spectrum_projection(a: &Matrix) -> Option<Matrix> {
    let e = a.symmetrize().unwrap().symmetric_eigen().ok()?;
    let v = e.eigenvectors();
    let n = a.rows();
    let vd = Matrix::from_fn(n, n, |r, c| v[(r, c)] * e.eigenvalues()[c].max(0.0));
    Some(vd.matmul(&v.transpose()).unwrap())
}

/// `m ⪰ −tol·I`: its smallest eigenvalue, or where the eigensolver does
/// not converge, a Cholesky factor of `m + tol·I`.
fn psd_within(m: &Matrix, tol: f64) -> bool {
    let sym = m.symmetrize().unwrap();
    match sym.symmetric_eigen() {
        Ok(e) => e.eigenvalues().first().is_none_or(|&l| l >= -tol),
        Err(_) => Cholesky::new(&(&sym + &(&Matrix::identity(m.rows()) * tol))).is_ok(),
    }
}

fn check(a: &Matrix) -> Result<(), TestCaseError> {
    let n = a.rows();
    let scale = a.max_abs().max(1.0);
    let tol = 1e-12 * scale;
    let p = a.psd_projection().unwrap();
    prop_assert!(psd_within(&p, tol), "n = {}: P is not PSD", n);
    let gap = &p - a;
    prop_assert!(psd_within(&gap, tol), "n = {}: P − A is not PSD", n);
    match full_spectrum_projection(a) {
        Some(full) => {
            let err = (&p - &full).max_abs();
            prop_assert!(
                err <= tol,
                "n = {}: ‖P − P_full‖max = {:e} > {:e}",
                n,
                err,
                tol
            );
        }
        // The reference eigensolver's known non-convergence on some
        // exactly rank-one inputs: P ⪰ 0, P − A ⪰ 0 and P·(P − A) = 0
        // characterise the projection on their own.
        None => {
            let cross = p.matmul(&gap).unwrap().max_abs();
            prop_assert!(
                cross <= n as f64 * tol * scale,
                "n = {}: ‖P(P − A)‖max = {:e}",
                n,
                cross
            );
        }
    }
    // The in-place form on a pool warmed by another input.
    let mut scratch = Scratch::new();
    let mut warm = a * -1.0;
    warm.project_psd_in_place(&mut scratch).unwrap();
    let mut q = a.clone();
    q.project_psd_in_place(&mut scratch).unwrap();
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&q), bits(&p));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn partial_projection_matches_the_full_spectrum(
        size in 0usize..=65,
        shape in 0usize..6,
        seed in any::<u64>(),
    ) {
        // n = 0..=64, and 96 in place of 65.
        let n = if size == 65 { 96 } else { size };
        let mut rng = Rng(seed);
        let a = match shape {
            0 => shifted_rank_two(n, &mut rng),
            1 => exact_low_rank(n, &mut rng),
            2 => repeated_small_side(n, &mut rng),
            3 => block_diagonal(n, &mut rng),
            4 => signed_zero_sparse(n, &mut rng),
            _ => split_spectrum(n, &mut rng),
        };
        check(&a)?;
    }
}

#[test]
fn invalid_input_keeps_its_errors() {
    assert!(matches!(
        Matrix::zeros(2, 3).psd_projection(),
        Err(LinalgError::NotSquare { rows: 2, cols: 3 })
    ));
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut a = Matrix::identity(3);
        a[(2, 0)] = bad;
        assert!(
            matches!(a.psd_projection(), Err(LinalgError::NotFinite)),
            "{bad}"
        );
        let mut scratch = Scratch::new();
        assert!(matches!(
            a.clone().project_psd_in_place(&mut scratch),
            Err(LinalgError::NotFinite)
        ));
    }
    // Finite entries whose symmetric part overflows are not finite
    // either, off the diagonal and on it.
    let mut a = Matrix::identity(2);
    a[(0, 1)] = f64::MAX;
    a[(1, 0)] = f64::MAX;
    assert!(matches!(a.psd_projection(), Err(LinalgError::NotFinite)));
    let a = Matrix::from_diag(&[f64::MAX, 1.0]);
    assert!(matches!(a.psd_projection(), Err(LinalgError::NotFinite)));
}

#[test]
fn empty_and_one_by_one() {
    assert_eq!(
        Matrix::zeros(0, 0).psd_projection().unwrap().shape(),
        (0, 0)
    );
    for (x, want) in [(2.5, 2.5), (-1.0, 0.0), (0.0, 0.0)] {
        let p = Matrix::from_diag(&[x]).psd_projection().unwrap();
        assert_eq!(p[(0, 0)], want);
    }
}
