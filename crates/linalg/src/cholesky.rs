use std::borrow::Cow;

use crate::{LinalgError, Matrix};

/// The edge of the square tiles the in-place mirror walks.
const BLOCK: usize = 8;

/// Cholesky factorization `A = L * L^T` of a symmetric positive definite
/// matrix.
///
/// Besides solving, the factorization doubles as the standard
/// positive-definiteness test used by the convex solvers: construction fails
/// with [`LinalgError::NotPositiveDefinite`] exactly when `A` is not SPD
/// (up to a small diagonal tolerance).
///
/// The factor is stored row-major in one n² buffer as `L` in the lower
/// triangle and its mirror `Lᵀ` in the strict upper one, so row `j` holds
/// both row `j` of `L` (left of the diagonal) and column `j` of `L` (right
/// of it): the column-oriented substitutions of [`Cholesky::solve_into`]
/// read one contiguous half-row per step.
///
/// # Example
/// ```
/// use rcr_linalg::{Cholesky, Matrix};
/// # fn main() -> Result<(), rcr_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[25.0, 15.0], &[15.0, 18.0]])?;
/// let ch = Cholesky::new(&a)?;
/// assert!((ch.factor()[(0, 0)] - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// `L` in the lower triangle, `Lᵀ` in the strict upper one.
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive definite matrix.
    ///
    /// Pass `&a` to factor a copy of `a`, or `Cow::Owned(a)` to hand `a`
    /// over: its own buffer then becomes the factor, so no second n×n
    /// buffer is allocated or filled.
    ///
    /// Delegates to the blocked right-looking kernel in `rcr-kernels` at
    /// every size: the blocked factorization is bit-identical to the
    /// unblocked reference loop (`rcr_kernels::cholesky_unblocked`), so
    /// there is no crossover threshold to tune — blocking degenerates to
    /// the reference loop for `n` at or below the panel width and wins
    /// above it.
    ///
    /// # Errors
    /// * [`LinalgError::NotSquare`] for non-square input.
    /// * [`LinalgError::NotFinite`] for NaN/inf entries.
    /// * [`LinalgError::NotPositiveDefinite`] when a pivot is non-positive;
    ///   `pivot` reports the first offending column, identically to the
    ///   unblocked reference loop.
    pub fn new<'a>(a: impl Into<Cow<'a, Matrix>>) -> Result<Self, LinalgError> {
        let a = a.into();
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if !a.is_finite() {
            return Err(LinalgError::NotFinite);
        }
        let n = a.rows();
        let tol = 1e-13 * a.max_abs().max(1.0);
        let mut l = a.into_owned();
        rcr_kernels::cholesky(l.as_mut_slice(), n, n, tol)
            .map_err(|pivot| LinalgError::NotPositiveDefinite { pivot })?;
        // The kernel leaves `L` in the lower triangle and the input's
        // entries in the strict upper one.
        mirror_lower_in_place(l.as_mut_slice(), n);
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor `L`, copied out of the stored mirror
    /// into a new matrix with a `+0.0` strict upper triangle.
    pub fn factor(&self) -> Matrix {
        let n = self.l.rows();
        let l = self.l.as_slice();
        Matrix::from_fn(n, n, |i, j| {
            if j <= i {
                l.get(i * n + j).copied().unwrap_or(0.0)
            } else {
                0.0
            }
        })
    }

    /// Solves `A x = b` via two triangular solves.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when `b.len()` differs from `n`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.l.rows();
        let mut work = vec![0.0; n];
        let mut x = vec![0.0; n];
        self.solve_into(b, &mut work, &mut x)?;
        Ok(x)
    }

    /// Allocation-free variant of [`Cholesky::solve`]: writes the solution
    /// into `out` and leaves the forward-substitution intermediate `y`
    /// (`L y = b`) in `work`. Both buffers must have length `n`; prior
    /// contents are ignored (every element is written before it is read).
    ///
    /// Both substitutions are column-oriented ("axpy" form, Golub & Van
    /// Loan): once `y_j` (or `x_j`) is known, its column of terms leaves
    /// every row still unsolved, one contiguous half-row of the stored
    /// factor per step, so each step is an independent, vectorisable
    /// update and the critical path is `n` steps of (mul, sub, div).
    ///
    /// * Forward, `j` ascending: `y_j = s_j / l_jj`, then
    ///   `s_i −= l_ij·y_j` for `i > j`. Each `s_i` still subtracts its
    ///   terms in ascending `j`, so every bit equals the textbook
    ///   `y_i = (b_i − Σ_{j<i} l_ij·y_j) / l_ii` row loop.
    /// * Backward, `j` descending: `x_j = s_j / l_jj`, then
    ///   `s_i −= l_ji·x_j` for `i < j`. Each `x_i = (y_i − Σ_{j>i}
    ///   l_ji·x_j) / l_ii` subtracts its terms in *descending* `j`, which
    ///   rounds differently from an ascending row loop (within the usual
    ///   backward-error bound).
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when any slice length differs
    /// from `n`.
    pub fn solve_into(
        &self,
        b: &[f64],
        work: &mut [f64],
        out: &mut [f64],
    ) -> Result<(), LinalgError> {
        let n = self.l.rows();
        if b.len() != n || work.len() != n || out.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve_into",
                got: vec![n, b.len(), work.len(), out.len()],
            });
        }
        if n == 0 {
            return Ok(());
        }
        let rows = || self.l.as_slice().chunks_exact(n);
        // L y = b: column j of L below the diagonal is row j of the
        // mirror right of it.
        work.copy_from_slice(b);
        for (j, row) in rows().enumerate() {
            let (done, below) = work.split_at_mut(j + 1);
            if let (Some(yj), Some((&d, col))) =
                (done.last_mut(), row.get(j..).and_then(<[f64]>::split_first))
            {
                *yj /= d;
                let y = *yj;
                for (s, &l) in below.iter_mut().zip(col) {
                    *s -= l * y;
                }
            }
        }
        // Lᵀ x = y: column j of Lᵀ above the diagonal is row j of L left
        // of it.
        out.copy_from_slice(work);
        for (j, row) in rows().enumerate().rev() {
            let (above, rest) = out.split_at_mut(j);
            if let (Some(xj), Some((&d, left))) = (
                rest.first_mut(),
                row.get(..=j).and_then(<[f64]>::split_last),
            ) {
                *xj /= d;
                let x = *xj;
                for (s, &l) in above.iter_mut().zip(left) {
                    *s -= l * x;
                }
            }
        }
        Ok(())
    }

    /// Log-determinant of `A` (twice the log-sum of the diagonal of `L`);
    /// numerically safer than computing the determinant directly.
    pub fn log_determinant(&self) -> f64 {
        (0..self.l.rows()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// Copies the strict lower triangle of the row-major `n x n` matrix `m`
/// onto the strict upper one, transposed, and keeps it: `L` gains its
/// mirror `Lᵀ` in the same buffer. Each 8×8 tile below the diagonal goes
/// through a stack tile, so both sides are read and written a row at a
/// time.
fn mirror_lower_in_place(m: &mut [f64], n: usize) {
    let mut tile = [[0.0f64; BLOCK]; BLOCK];
    for i0 in (0..n).step_by(BLOCK) {
        let ih = BLOCK.min(n - i0);
        // Tiles wholly left of the diagonal: j0 + BLOCK <= i0.
        for j0 in (0..i0).step_by(BLOCK) {
            for ii in 0..ih {
                let row = &m[(i0 + ii) * n + j0..(i0 + ii) * n + j0 + BLOCK];
                for (t, &x) in tile.iter_mut().zip(row) {
                    t[ii] = x;
                }
            }
            for (jj, t) in tile.iter().enumerate() {
                m[(j0 + jj) * n + i0..(j0 + jj) * n + i0 + ih].copy_from_slice(&t[..ih]);
            }
        }
        // The diagonal tile.
        for i in i0..i0 + ih {
            for j in i0..i {
                m[j * n + i] = m[i * n + j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_known_factor() {
        let a = Matrix::from_rows(&[
            &[4.0, 12.0, -16.0],
            &[12.0, 37.0, -43.0],
            &[-16.0, -43.0, 98.0],
        ])
        .unwrap();
        let ch = a.cholesky().unwrap();
        let l = ch.factor();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 6.0).abs() < 1e-12);
        assert!((l[(2, 0)] + 8.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 1.0).abs() < 1e-12);
        assert!((l[(2, 1)] - 5.0).abs() < 1e-12);
        assert!((l[(2, 2)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_diag(&[1.0, -1.0]);
        assert!(matches!(
            a.cholesky(),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn cholesky_reports_first_nonpositive_pivot() {
        // Indefinite with the sign structure chosen so a naive "last pivot
        // visited" bug would report 2: the leading 1x1 minor is positive,
        // the 2x2 minor is negative (pivot 1 fails), and the (2,2) entry is
        // large and positive. The error must carry pivot index 1.
        let a = Matrix::from_rows(&[&[4.0, 2.0, 0.0], &[2.0, 1.0 - 1e-6, 0.0], &[0.0, 0.0, 9.0]])
            .unwrap();
        match a.cholesky() {
            Err(LinalgError::NotPositiveDefinite { pivot }) => assert_eq!(pivot, 1),
            other => panic!("expected NotPositiveDefinite {{ pivot: 1 }}, got {other:?}"),
        }
        // A matrix that fails immediately reports pivot 0.
        let b = Matrix::from_diag(&[-1.0, 5.0]);
        match b.cholesky() {
            Err(LinalgError::NotPositiveDefinite { pivot }) => assert_eq!(pivot, 0),
            other => panic!("expected NotPositiveDefinite {{ pivot: 0 }}, got {other:?}"),
        }
    }

    #[test]
    fn blocked_and_unblocked_agree_bitwise_including_pivots() {
        // `Cholesky::new` (blocked kernel) against the kernel-level
        // unblocked reference loop, on a deterministic SPD matrix large
        // enough to exercise multiple panels.
        let unblocked = |a: &Matrix| -> Result<Matrix, LinalgError> {
            let n = a.rows();
            let tol = 1e-13 * a.max_abs().max(1.0);
            let mut l = a.clone();
            rcr_kernels::cholesky_unblocked(l.as_mut_slice(), n, n, tol)
                .map_err(|pivot| LinalgError::NotPositiveDefinite { pivot })?;
            Ok(l)
        };
        let n = 70;
        let g = Matrix::from_fn(n, n, |i, j| {
            ((i * 31 + j * 17 + 5) % 97) as f64 / 97.0 - 0.5
        });
        let a = Matrix::from_fn(n, n, |i, j| {
            (0..n).map(|k| g[(k, i)] * g[(k, j)]).sum::<f64>() / n as f64
                + if i == j { 1.0 } else { 0.0 }
        });
        let blocked = Cholesky::new(&a).unwrap();
        let reference = unblocked(&a).unwrap();
        for i in 0..n {
            for j in 0..=i {
                assert_eq!(
                    blocked.factor()[(i, j)].to_bits(),
                    reference[(i, j)].to_bits(),
                    "factor mismatch at ({i},{j})"
                );
            }
        }
        // Poison a diagonal entry mid-matrix: both paths must report the
        // same first failing pivot.
        for bad in [0usize, 1, 33, 64, n - 1] {
            let mut p = a.clone();
            p[(bad, bad)] = -2.0;
            let eb = Cholesky::new(&p).expect_err("blocked must fail");
            let eu = unblocked(&p).expect_err("unblocked must fail");
            assert_eq!(eb, eu, "pivot divergence with poisoned diag {bad}");
            assert!(matches!(
                eb,
                LinalgError::NotPositiveDefinite { pivot } if pivot == bad
            ));
        }
    }

    #[test]
    fn factor_is_the_kernels_lower_triangle_at_every_tile_edge() {
        // The stored mirror goes through 8×8 tiles: cover every partial
        // last tile, with and without full tiles before it.
        for n in (0..=17).chain([70]) {
            let a = Matrix::from_fn(n, n, |i, j| {
                let s = (0..n)
                    .map(|k| {
                        ((i * 7 + k * 3) as f64 * 0.29).cos()
                            * ((j * 7 + k * 3) as f64 * 0.29).cos()
                    })
                    .sum::<f64>();
                s + if i == j { 1.0 } else { 0.0 }
            });
            let mut want = a.clone();
            rcr_kernels::cholesky_unblocked(
                want.as_mut_slice(),
                n,
                n,
                1e-13 * a.max_abs().max(1.0),
            )
            .unwrap();
            let l = Cholesky::new(&a).unwrap().factor();
            for i in 0..n {
                for j in 0..n {
                    let w = if j <= i { want[(i, j)] } else { 0.0 };
                    assert_eq!(l[(i, j)].to_bits(), w.to_bits(), "n = {n} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn cholesky_solve_matches_lu() {
        let a = Matrix::from_rows(&[&[6.0, 2.0, 1.0], &[2.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]).unwrap();
        let b = [1.0, -2.0, 3.0];
        let x1 = a.cholesky().unwrap().solve(&b).unwrap();
        let x2 = a.solve(&b).unwrap();
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_into_matches_the_one_row_reference_bit_for_bit() {
        // One row at a time: the forward pass subtracts each row's terms in
        // ascending `j` (the textbook loop), the backward pass in
        // descending `j` (the order the column-oriented pass leaves them
        // in). `ascending` picks the textbook backward order instead.
        let reference = |l: &Matrix, b: &[f64], ascending: bool| -> (Vec<f64>, Vec<f64>) {
            let n = l.rows();
            let mut y = vec![0.0; n];
            for i in 0..n {
                let mut s = b[i];
                for j in 0..i {
                    s -= l[(i, j)] * y[j];
                }
                y[i] = s / l[(i, i)];
            }
            let mut x = vec![0.0; n];
            for i in (0..n).rev() {
                let mut s = y[i];
                let terms: Vec<usize> = if ascending {
                    ((i + 1)..n).collect()
                } else {
                    ((i + 1)..n).rev().collect()
                };
                for j in terms {
                    s -= l[(j, i)] * x[j];
                }
                x[i] = s / l[(i, i)];
            }
            (y, x)
        };
        let inf_norm = |v: &[f64]| v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        // Every `n mod 8` tile edge with and without a full 8×8 tile before
        // it, several tiles, and the n = 128 KKT size of the warm QP.
        for n in (0..=17).chain([31, 128]) {
            // A Gram matrix, not a diagonally dominant one: its factor's
            // off-diagonal terms are large enough that subtracting them in
            // another order changes the rounding.
            let g = Matrix::from_fn(n, n, |i, j| ((i * 131 + j * 71 + 17) as f64 * 0.61).sin());
            let mut a = g
                .matmul(&g.transpose())
                .unwrap()
                .scale(1.0 / n.max(1) as f64);
            for i in 0..n {
                a[(i, i)] += 0.05;
            }
            let ch = Cholesky::new(&a).unwrap();
            let l = ch.factor();
            // ‖Lᵀ‖∞: the largest absolute column sum of L.
            let lt_norm = (0..n)
                .map(|j| (j..n).map(|i| l[(i, j)].abs()).sum::<f64>())
                .fold(0.0f64, f64::max);
            let smooth: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin() * 3.0).collect();
            let mut special = smooth.clone();
            for (i, v) in special.iter_mut().enumerate() {
                match i % 5 {
                    1 => *v = f64::INFINITY,
                    3 => *v = f64::NEG_INFINITY,
                    4 if i > 5 => *v = f64::NAN,
                    _ => {}
                }
            }
            let zeros = vec![0.0; n];
            let neg_zeros = vec![-0.0; n];
            for b in [&smooth, &special, &zeros, &neg_zeros] {
                let (want_y, want_x) = reference(&l, b, false);
                let mut work = vec![7.0; n];
                let mut got = vec![7.0; n];
                ch.solve_into(b, &mut work, &mut got).unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&work), bits(&want_y), "forward, n = {n}, b = {b:?}");
                assert_eq!(bits(&got), bits(&want_x), "backward, n = {n}, b = {b:?}");
                // The textbook ascending backward order agrees within
                // the substitution's rounding on finite data.
                if b.iter().all(|v| v.is_finite()) {
                    let (_, old_x) = reference(&l, b, true);
                    let bound = 8.0
                        * n as f64
                        * f64::EPSILON
                        * (lt_norm * inf_norm(&got) + inf_norm(&want_y));
                    let gap = got
                        .iter()
                        .zip(&old_x)
                        .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
                    assert!(gap <= bound, "n = {n}: |Δx|∞ = {gap:e} > {bound:e}");
                }
            }
        }
    }

    #[test]
    fn log_determinant_matches_determinant() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
        let ld = a.cholesky().unwrap().log_determinant();
        assert!((ld - 5.0f64.ln()).abs() < 1e-12);
    }
}
