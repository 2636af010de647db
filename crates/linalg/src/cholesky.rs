use crate::{LinalgError, Matrix};

/// Cholesky factorization `A = L * L^T` of a symmetric positive definite
/// matrix.
///
/// Besides solving, the factorization doubles as the standard
/// positive-definiteness test used by the convex solvers: construction fails
/// with [`LinalgError::NotPositiveDefinite`] exactly when `A` is not SPD
/// (up to a small diagonal tolerance).
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
    l: Matrix,
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
        let mut l = a.clone();
        rcr_kernels::cholesky(l.as_mut_slice(), n, n, tol)
            .map_err(|pivot| LinalgError::NotPositiveDefinite { pivot })?;
        // The kernel factors in place and leaves the strict upper triangle
        // holding the input's entries; zero it so `factor()` is a clean L.
        for i in 0..n {
            for j in (i + 1)..n {
                l[(i, j)] = 0.0;
            }
        }
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
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
    /// into `out`, using `work` for the forward-substitution intermediate.
    /// Both buffers must have length `n`; prior contents are ignored
    /// (every element is written before it is read).
    ///
    /// Every entry is the textbook substitution chain: `y_i = (b_i −
    /// Σ_{j<i} l_ij·y_j) / l_ii` and `x_i = (y_i − Σ_{j>i} l_ji·x_j) / l_ii`,
    /// each sum subtracted term by term in ascending `j`. The forward pass
    /// runs four rows at a time (the row-quad pattern of
    /// `rcr_kernels::gemv`): the four chains over the solved prefix are
    /// independent, so they hide each other's add latency, and each then
    /// finishes its own 4×4 triangle in the same ascending order, so the
    /// bits equal the one-row-at-a-time loop's. The backward pass keeps one
    /// chain: interleaving its rows would reorder the sums.
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
        let l = self.l.as_slice();
        // L y = b, rows i..i+4 per step.
        let quads = l.chunks_exact(4 * n);
        let l_rest = quads.remainder();
        let mut i = 0;
        for (quad, bq) in quads.zip(b.chunks_exact(4)) {
            let (r0, rest) = quad.split_at(n);
            let (r1, rest) = rest.split_at(n);
            let (r2, r3) = rest.split_at(n);
            let (solved, next) = work.split_at_mut(i);
            let mut s = [0.0; 4];
            s.copy_from_slice(bq);
            let [mut s0, mut s1, mut s2, mut s3] = s;
            for ((((&l0, &l1), &l2), &l3), &y) in r0.iter().zip(r1).zip(r2).zip(r3).zip(&*solved) {
                s0 -= l0 * y;
                s1 -= l1 * y;
                s2 -= l2 * y;
                s3 -= l3 * y;
            }
            // The 4×4 diagonal block, each row still in ascending `j`.
            let mut ys = [0.0f64; 4];
            for (k, (row, mut sk)) in [r0, r1, r2, r3]
                .into_iter()
                .zip([s0, s1, s2, s3])
                .enumerate()
            {
                let block = row.split_at(i).1;
                for (&lkj, &yj) in block.iter().zip(&ys).take(k) {
                    sk -= lkj * yj;
                }
                if let (Some(&d), Some(yk)) = (block.get(k), ys.get_mut(k)) {
                    *yk = sk / d;
                }
            }
            for (w, y) in next.iter_mut().zip(ys) {
                *w = y;
            }
            i += 4;
        }
        for (row, &bi) in l_rest.chunks_exact(n).zip(b.chunks_exact(4).remainder()) {
            let (solved, next) = work.split_at_mut(i);
            let mut s = bi;
            for (&lij, &y) in row.iter().zip(&*solved) {
                s -= lij * y;
            }
            if let (Some(&d), Some(w)) = (row.get(i), next.first_mut()) {
                *w = s / d;
            }
            i += 1;
        }
        // L^T x = y, walking column i of L from the diagonal down.
        for (i, &yi) in work.iter().enumerate().rev() {
            let (head, solved) = out.split_at_mut(i + 1);
            let mut below = l
                .chunks_exact(n)
                .skip(i)
                .map(|row| row.get(i).copied().unwrap_or(f64::NAN));
            let d = below.next().unwrap_or(f64::NAN);
            let mut s = yi;
            for (lji, &x) in below.zip(&*solved) {
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
        (0..self.l.rows()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// LDLᵀ factorization `A = L * D * L^T` of a symmetric matrix, where `D` is
/// diagonal (possibly with negative entries).
///
/// Unlike [`Cholesky`] this handles symmetric *indefinite* matrices (no
/// pivoting, so nearly-singular leading minors can still fail). It powers
/// inertia queries — the count of negative eigenvalues equals the count of
/// negative entries of `D` by Sylvester's law — used when classifying
/// quadratic forms as convex/nonconvex in the QCQP pipeline.
#[derive(Debug, Clone)]
pub struct Ldlt {
    l: Matrix,
    d: Vec<f64>,
}

impl Ldlt {
    /// Factorizes a symmetric matrix.
    ///
    /// # Errors
    /// * [`LinalgError::NotSquare`] for non-square input.
    /// * [`LinalgError::NotFinite`] for NaN/inf entries.
    /// * [`LinalgError::Singular`] when a pivot vanishes (the unpivoted
    ///   algorithm cannot continue).
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
        let mut l = Matrix::identity(n);
        let mut d = vec![0.0; n];
        for j in 0..n {
            let mut dj = a[(j, j)];
            for k in 0..j {
                dj -= l[(j, k)] * l[(j, k)] * d[k];
            }
            if dj.abs() <= tol {
                return Err(LinalgError::Singular);
            }
            d[j] = dj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)] * d[k];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(Ldlt { l, d })
    }

    /// The unit lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// The diagonal of `D`.
    pub fn diagonal(&self) -> &[f64] {
        &self.d
    }

    /// Matrix inertia `(n_neg, n_zero, n_pos)`: the signs of `D` equal the
    /// signs of the eigenvalues (Sylvester's law of inertia). `n_zero` is
    /// always 0 here since zero pivots abort factorization.
    pub fn inertia(&self) -> (usize, usize, usize) {
        let neg = self.d.iter().filter(|&&v| v < 0.0).count();
        (neg, 0, self.d.len() - neg)
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when `b.len()` differs from `n`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "ldlt solve",
                got: vec![n, b.len()],
            });
        }
        // L y = b (unit diagonal)
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for j in 0..i {
                s -= self.l[(i, j)] * y[j];
            }
            y[i] = s;
        }
        // D z = y
        for i in 0..n {
            y[i] /= self.d[i];
        }
        // L^T x = z
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.l[(j, i)] * x[j];
            }
            x[i] = s;
        }
        Ok(x)
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
        // Every `n mod 4` tail, one and several row quads, and the n = 128
        // KKT size of the warm QP.
        for n in (0..=9).chain([31, 128]) {
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

    #[test]
    fn ldlt_inertia_counts_negative_eigenvalues() {
        let a = Matrix::from_diag(&[2.0, -3.0, 5.0]);
        let f = Ldlt::new(&a).unwrap();
        assert_eq!(f.inertia(), (1, 0, 2));
    }

    #[test]
    fn ldlt_solves_indefinite_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, -3.0]]).unwrap();
        let b = [1.0, 2.0];
        let x = Ldlt::new(&a).unwrap().solve(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        assert!((r[0] - b[0]).abs() < 1e-12 && (r[1] - b[1]).abs() < 1e-12);
    }

    #[test]
    fn ldlt_detects_zero_pivot() {
        let a = Matrix::zeros(2, 2);
        assert!(matches!(Ldlt::new(&a), Err(LinalgError::Singular)));
    }
}
