use crate::{LinalgError, Matrix};

/// LU decomposition with partial (row) pivoting: `P * A = L * U`.
///
/// The factors are stored compactly in a single matrix; `L` has an implicit
/// unit diagonal. Every solve reuses the factorization, so decompose once and
/// solve many times.
///
/// # Example
/// ```
/// use rcr_linalg::{LuDecomposition, Matrix};
/// # fn main() -> Result<(), rcr_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let lu = LuDecomposition::new(&a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12 && (x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    lu: Matrix,
    perm: Vec<usize>,
    singular: bool,
}

/// Pivots smaller than this (relative to the column scale) mark the matrix
/// as numerically singular.
const PIVOT_TOL: f64 = 1e-13;

impl LuDecomposition {
    /// Factorizes `a` with partial pivoting.
    ///
    /// # Errors
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::NotFinite`] if `a` contains NaN/inf.
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
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut singular = false;
        let scale = a.max_abs().max(1.0);

        for k in 0..n {
            // Find the pivot row.
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for r in (k + 1)..n {
                let v = lu[(r, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = r;
                }
            }
            if pmax <= PIVOT_TOL * scale {
                singular = true;
                continue;
            }
            if p != k {
                for c in 0..n {
                    let tmp = lu[(k, c)];
                    lu[(k, c)] = lu[(p, c)];
                    lu[(p, c)] = tmp;
                }
                perm.swap(k, p);
            }
            let pivot = lu[(k, k)];
            for r in (k + 1)..n {
                let factor = lu[(r, k)] / pivot;
                lu[(r, k)] = factor;
                for c in (k + 1)..n {
                    let sub = factor * lu[(k, c)];
                    lu[(r, c)] -= sub;
                }
            }
        }
        Ok(LuDecomposition { lu, perm, singular })
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    /// * [`LinalgError::Singular`] when the factorization detected singularity.
    /// * [`LinalgError::DimensionMismatch`] when `b.len()` differs from `n`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu solve",
                got: vec![n, b.len()],
            });
        }
        if self.singular {
            return Err(LinalgError::Singular);
        }
        // Forward substitution with permuted RHS (unit lower triangle).
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[self.perm[i]];
            for j in 0..i {
                s -= self.lu[(i, j)] * y[j];
            }
            y[i] = s;
        }
        // Back substitution (upper triangle).
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.lu[(i, j)] * x[j];
            }
            x[i] = s / self.lu[(i, i)];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn solves_diagonal_system() {
        let a = Matrix::from_diag(&[2.0, 4.0]);
        let x = a.solve(&[2.0, 8.0]).unwrap();
        assert_close(&x, &[1.0, 2.0], 1e-14);
    }

    #[test]
    fn solves_system_requiring_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert_close(&x, &[7.0, 3.0], 1e-14);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        assert!(matches!(lu.solve(&[1.0, 1.0]), Err(LinalgError::Singular)));
    }

    #[test]
    fn rejects_nonsquare_and_nonfinite() {
        assert!(matches!(
            LuDecomposition::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        let mut a = Matrix::identity(2);
        a[(0, 0)] = f64::NAN;
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::NotFinite)
        ));
    }

    #[test]
    fn random_like_system_residual_small() {
        // Fixed pseudo-random 5x5 system (no RNG dependency in this crate).
        let a = Matrix::from_fn(5, 5, |r, c| {
            ((r * 7 + c * 3 + 1) % 11) as f64 + if r == c { 12.0 } else { 0.0 }
        });
        let xtrue: Vec<f64> = (0..5).map(|i| i as f64 - 2.0).collect();
        let b = a.matvec(&xtrue).unwrap();
        let x = a.solve(&b).unwrap();
        assert_close(&x, &xtrue, 1e-10);
    }
}
