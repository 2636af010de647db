use crate::{LinalgError, Matrix};

/// Householder QR decomposition `A = Q * R` of an `m x n` matrix with
/// `m >= n`.
///
/// `Q` is `m x n` with orthonormal columns (thin QR) and `R` is `n x n`
/// upper triangular. Used for least-squares solves.
///
/// # Example
/// ```
/// use rcr_linalg::Matrix;
/// # fn main() -> Result<(), rcr_linalg::LinalgError> {
/// // Over-determined fit: find x minimizing ||Ax - b||.
/// let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]])?;
/// let x = a.qr()?.solve_least_squares(&[6.0, 0.0, 0.0])?;
/// assert!((x[0] - 8.0).abs() < 1e-10 && (x[1] + 3.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QrDecomposition {
    q: Matrix,
    r: Matrix,
}

impl QrDecomposition {
    /// Factorizes `a` (requires `rows >= cols`).
    ///
    /// Delegates to the Householder kernel in `rcr-kernels`. The returned
    /// `R` is bit-identical to the historical loop; `Q` is accumulated
    /// backward from the stored reflectors onto a thin identity (`O(m·n²)`
    /// instead of the old full `m x m` product), which agrees with the old
    /// `Q` to rounding — all downstream consumers are tolerance-based
    /// least-squares solves.
    ///
    /// # Errors
    /// * [`LinalgError::InvalidInput`] when `rows < cols`.
    /// * [`LinalgError::NotFinite`] for NaN/inf entries.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::InvalidInput(format!(
                "thin QR requires rows >= cols, got {m}x{n}"
            )));
        }
        if !a.is_finite() {
            return Err(LinalgError::NotFinite);
        }
        let mut rv = a.clone();
        let mut vhead = vec![0.0; n];
        let mut vtv = vec![0.0; n];
        rcr_kernels::qr(rv.as_mut_slice(), m, n, &mut vhead, &mut vtv);
        let mut q = Matrix::zeros(m, n);
        rcr_kernels::qr_thin_q(rv.as_slice(), m, n, &vhead, &vtv, q.as_mut_slice());
        // The strict lower triangle of `rv` stores the Householder vectors;
        // the thin R is its upper n x n triangle.
        let mut r = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                r[(i, j)] = rv[(i, j)];
            }
        }
        Ok(QrDecomposition { q, r })
    }

    /// The thin orthonormal factor `Q` (`m x n`).
    pub fn q(&self) -> &Matrix {
        &self.q
    }

    /// The upper-triangular factor `R` (`n x n`).
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// Solves the least-squares problem `min_x ||A x - b||_2`.
    ///
    /// # Errors
    /// * [`LinalgError::DimensionMismatch`] when `b.len()` differs from `m`.
    /// * [`LinalgError::Singular`] when `A` is rank-deficient.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let m = self.q.rows();
        let n = self.q.cols();
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch {
                op: "qr solve",
                got: vec![m, b.len()],
            });
        }
        // x = R^{-1} Q^T b
        let qtb = self.q.matvec_t(b)?;
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = qtb[i];
            for j in (i + 1)..n {
                s -= self.r[(i, j)] * x[j];
            }
            let d = self.r[(i, i)];
            if d.abs() < 1e-13 {
                return Err(LinalgError::Singular);
            }
            x[i] = s / d;
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qr_reconstructs_input() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let qr = a.qr().unwrap();
        let recon = qr.q().matmul(qr.r()).unwrap();
        assert!((&recon - &a).max_abs() < 1e-12);
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let a = Matrix::from_rows(&[&[2.0, -1.0], &[1.0, 3.0], &[0.0, 1.0]]).unwrap();
        let qr = a.qr().unwrap();
        let qtq = qr.q().transpose().matmul(qr.q()).unwrap();
        assert!((&qtq - &Matrix::identity(2)).max_abs() < 1e-12);
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let qr = a.qr().unwrap();
        assert!(qr.r()[(1, 0)].abs() < 1e-12);
    }

    #[test]
    fn least_squares_matches_normal_equations() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]).unwrap();
        let b = [1.0, 2.0, 2.5, 4.0];
        let x = a.qr().unwrap().solve_least_squares(&b).unwrap();
        // Normal equations: (A^T A) x = A^T b.
        let ata = a.transpose().matmul(&a).unwrap();
        let atb = a.matvec_t(&b).unwrap();
        let xn = ata.solve(&atb).unwrap();
        for (p, q) in x.iter().zip(&xn) {
            assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_wide_matrices() {
        assert!(Matrix::zeros(2, 3).qr().is_err());
    }

    #[test]
    fn rank_deficient_detected_on_solve() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let qr = a.qr().unwrap();
        assert!(matches!(
            qr.solve_least_squares(&[1.0, 1.0, 1.0]),
            Err(LinalgError::Singular)
        ));
    }
}
