use crate::{LinalgError, Matrix};

/// Rows per block of the forward substitution, and the edge of the square
/// tiles the in-place transpose walks.
const BLOCK: usize = 8;

/// Cholesky factorization `A = L * L^T` of a symmetric positive definite
/// matrix.
///
/// Besides solving, the factorization doubles as the standard
/// positive-definiteness test used by the convex solvers: construction fails
/// with [`LinalgError::NotPositiveDefinite`] exactly when `A` is not SPD
/// (up to a small diagonal tolerance).
///
/// The factor is stored as `Lᵀ`, row-major in one n² buffer, so both
/// substitutions of [`Cholesky::solve_into`] walk memory at unit stride.
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
    /// `Lᵀ`: upper triangular, the strict lower triangle zero.
    lt: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive definite matrix.
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
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
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
        let mut lt = a.clone();
        rcr_kernels::cholesky(lt.as_mut_slice(), n, n, tol)
            .map_err(|pivot| LinalgError::NotPositiveDefinite { pivot })?;
        // The kernel leaves `L` in the lower triangle and the input's
        // entries in the strict upper one.
        transpose_lower_in_place(lt.as_mut_slice(), n);
        Ok(Cholesky { lt })
    }

    /// The lower-triangular factor `L`, transposed out of the stored `Lᵀ`
    /// into a new matrix.
    pub fn factor(&self) -> Matrix {
        let n = self.lt.rows();
        let lt = self.lt.as_slice();
        Matrix::from_fn(n, n, |i, j| lt.get(j * n + i).copied().unwrap_or(0.0))
    }

    /// Solves `A x = b` via two triangular solves.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when `b.len()` differs from `n`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.lt.rows();
        let mut work = vec![0.0; n];
        let mut x = vec![0.0; n];
        self.solve_into(b, &mut work, &mut x)?;
        Ok(x)
    }

    /// Allocation-free variant of [`Cholesky::solve`]: writes the solution
    /// into `out`, using `work` for the forward-substitution intermediate.
    /// Both buffers must have length `n`; prior contents are ignored
    /// (every element is written before it is read).
    ///
    /// Every entry is the textbook substitution chain: `y_i = (b_i −
    /// Σ_{j<i} l_ij·y_j) / l_ii` and `x_i = (y_i − Σ_{j>i} l_ji·x_j) / l_ii`,
    /// each sum subtracted term by term in ascending `j`. The forward pass
    /// runs eight rows at a time: their terms `l_ij` for one `j` are the
    /// contiguous `Lᵀ[j][i..i+8]`, the eight chains over the solved prefix
    /// are independent, so they hide each other's add latency, and each
    /// then finishes its own 8×8 triangle in the same ascending order, so
    /// the bits equal the one-row-at-a-time loop's. The `n mod 8` rows
    /// left over run one at a time. The backward pass keeps one chain:
    /// interleaving its rows would reorder the sums. Its terms `l_ji`,
    /// `j > i`, are row `i` of `Lᵀ`, so that chain is unit-stride too.
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
        let n = self.lt.rows();
        if b.len() != n || work.len() != n || out.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve_into",
                got: vec![n, b.len(), work.len(), out.len()],
            });
        }
        if n == 0 {
            return Ok(());
        }
        let lt = self.lt.as_slice();
        // L y = b, rows i..i+8 per block.
        let blocks = b.chunks_exact(BLOCK);
        let b_rest = blocks.remainder();
        let mut i = 0;
        for bb in blocks {
            let (solved, next) = work.split_at_mut(i);
            let mut s = [0.0; BLOCK];
            s.copy_from_slice(bb);
            for (&y, row) in solved.iter().zip(lt.chunks_exact(n)) {
                if let Some(col) = row
                    .get(i..i + BLOCK)
                    .and_then(|c| <&[f64; BLOCK]>::try_from(c).ok())
                {
                    for (sk, &lkj) in s.iter_mut().zip(col) {
                        *sk -= lkj * y;
                    }
                }
            }
            // The 8×8 diagonal block, right-looking: once row kk is
            // solved, its `y` leaves the rows below it. Row k still
            // subtracts its terms kk = 0..k in ascending order.
            for (kk, row) in lt.chunks_exact(n).skip(i).take(BLOCK).enumerate() {
                let block = row.split_at(i).1;
                let (done, below) = s.split_at_mut(kk + 1);
                if let (Some(&sk), Some(&d), Some(yk)) =
                    (done.last(), block.get(kk), next.get_mut(kk))
                {
                    let y = sk / d;
                    *yk = y;
                    for (sj, &ljk) in below.iter_mut().zip(block.iter().skip(kk + 1)) {
                        *sj -= ljk * y;
                    }
                }
            }
            i += BLOCK;
        }
        // The `n mod 8` rows left over, one at a time down column i of Lᵀ.
        for &bi in b_rest {
            let (solved, next) = work.split_at_mut(i);
            let mut s = bi;
            for (&y, row) in solved.iter().zip(lt.chunks_exact(n)) {
                s -= row.get(i).copied().unwrap_or(f64::NAN) * y;
            }
            let d = lt.get(i * n + i).copied().unwrap_or(f64::NAN);
            if let Some(w) = next.first_mut() {
                *w = s / d;
            }
            i += 1;
        }
        // Lᵀ x = y, walking row i of Lᵀ from the diagonal right.
        for ((i, &yi), row) in work.iter().enumerate().zip(lt.chunks_exact(n)).rev() {
            let (head, solved) = out.split_at_mut(i + 1);
            let (d, right) = match row.split_at(i).1.split_first() {
                Some((&d, right)) => (d, right),
                None => (f64::NAN, Default::default()),
            };
            let mut s = yi;
            for (&lji, &x) in right.iter().zip(&*solved) {
                s -= lji * x;
            }
            if let Some(xi) = head.last_mut() {
                *xi = s / d;
            }
        }
        Ok(())
    }

    /// Log-determinant of `A` (twice the log-sum of the diagonal of `L`);
    /// numerically safer than computing the determinant directly.
    pub fn log_determinant(&self) -> f64 {
        (0..self.lt.rows())
            .map(|i| self.lt[(i, i)].ln())
            .sum::<f64>()
            * 2.0
    }
}

/// Moves the strict lower triangle of the row-major `n x n` matrix `m`
/// onto the strict upper one, transposed, and zeroes it: `L` becomes
/// `Lᵀ` in the same buffer. Each 8×8 tile below the diagonal goes through
/// a stack tile, so both sides are read and written a row at a time.
fn transpose_lower_in_place(m: &mut [f64], n: usize) {
    let mut tile = [[0.0f64; BLOCK]; BLOCK];
    for i0 in (0..n).step_by(BLOCK) {
        let ih = BLOCK.min(n - i0);
        // Tiles wholly left of the diagonal: j0 + BLOCK <= i0.
        for j0 in (0..i0).step_by(BLOCK) {
            for ii in 0..ih {
                let row = &mut m[(i0 + ii) * n + j0..(i0 + ii) * n + j0 + BLOCK];
                for (t, &x) in tile.iter_mut().zip(&*row) {
                    t[ii] = x;
                }
                row.fill(0.0);
            }
            for (jj, t) in tile.iter().enumerate() {
                m[(j0 + jj) * n + i0..(j0 + jj) * n + i0 + ih].copy_from_slice(&t[..ih]);
            }
        }
        // The diagonal tile.
        for i in i0..i0 + ih {
            for j in i0..i {
                m[j * n + i] = std::mem::take(&mut m[i * n + j]);
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
        // The stored Lᵀ goes through 8×8 tiles: cover every partial
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
        // The textbook two-loop substitution, one row at a time.
        let reference = |ch: &Cholesky, b: &[f64]| -> Vec<f64> {
            let l = ch.factor();
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
                for j in (i + 1)..n {
                    s -= l[(j, i)] * x[j];
                }
                x[i] = s / l[(i, i)];
            }
            x
        };
        // Every `n mod 8` tail with and without a full 8-row block before
        // it, several blocks, and the n = 128 KKT size of the warm QP.
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
                let want = reference(&ch, b);
                let mut work = vec![7.0; n];
                let mut got = vec![7.0; n];
                ch.solve_into(b, &mut work, &mut got).unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "n = {n}, b = {b:?}");
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
