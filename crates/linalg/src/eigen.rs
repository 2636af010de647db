use crate::{LinalgError, Matrix};

/// Eigendecomposition `A = V * diag(λ) * V^T` of a symmetric matrix,
/// computed with the cyclic Jacobi rotation method.
///
/// Jacobi is slower than tridiagonal QL for large matrices but is simple,
/// unconditionally stable and computes small eigenvalues to high relative
/// accuracy — exactly what the PSD-projection step of the SDP solver needs.
///
/// Eigenvalues are returned in ascending order with matching eigenvector
/// columns.
///
/// # Example
/// ```
/// use rcr_linalg::Matrix;
/// # fn main() -> Result<(), rcr_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
/// let eig = a.symmetric_eigen()?;
/// assert!((eig.eigenvalues()[0] - 1.0).abs() < 1e-12);
/// assert!((eig.eigenvalues()[1] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vec<f64>,
    eigenvectors: Matrix,
}

/// Maximum number of full Jacobi sweeps before reporting non-convergence.
const MAX_SWEEPS: usize = 100;

/// Crossover size between the two eigensolver backends: below this order
/// [`SymmetricEigen::new`] runs cyclic Jacobi (high relative accuracy on
/// the tiny matrices the SDP cone projections see, results unchanged from
/// every earlier release); at or above it, the blocked
/// tridiagonalization + implicit-QL kernel from `rcr-kernels`, which is
/// O(n³) with a far smaller constant than Jacobi's sweep loop.
pub const EIGH_CROSSOVER: usize = 32;

impl SymmetricEigen {
    /// Computes the eigendecomposition of a symmetric matrix.
    ///
    /// The input is validated for symmetry with tolerance scaled to its
    /// magnitude; call [`Matrix::symmetrize`] first for nearly-symmetric data.
    ///
    /// Dispatches on size: cyclic Jacobi below [`EIGH_CROSSOVER`]
    /// (unchanged behaviour for the small matrices in the SDP cone
    /// projections), blocked tridiagonalization + implicit QL at or above
    /// it. Both return eigenvalues ascending (IEEE total order) with
    /// matching eigenvector columns.
    ///
    /// # Errors
    /// * [`LinalgError::NotSquare`] for non-square input.
    /// * [`LinalgError::NotFinite`] for NaN/inf entries.
    /// * [`LinalgError::InvalidInput`] when the matrix is visibly asymmetric.
    /// * [`LinalgError::NonConvergence`] if the iteration fails to converge
    ///   (practically unreachable for finite symmetric input).
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        Self::validate(a)?;
        if a.rows() >= EIGH_CROSSOVER {
            let mut scratch = rcr_kernels::Scratch::new();
            Self::new_blocked_with_scratch(a, &mut scratch)
        } else {
            Self::new_jacobi(a)
        }
    }

    fn validate(a: &Matrix) -> Result<(), LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if !a.is_finite() {
            return Err(LinalgError::NotFinite);
        }
        let scale = a.max_abs().max(1.0);
        if !a.is_symmetric(1e-8 * scale) {
            return Err(LinalgError::InvalidInput("matrix is not symmetric".into()));
        }
        Ok(())
    }

    /// The blocked tridiagonalization + implicit-QL backend at every size
    /// (no Jacobi crossover), on an explicit [`rcr_kernels::Scratch`] pool
    /// so repeated same-size decompositions over one reused pool stop
    /// allocating kernel workspace. The robust RRA solver uses it for its
    /// Gram spectrum. Validation is identical to [`SymmetricEigen::new`].
    ///
    /// # Errors
    /// As for [`SymmetricEigen::new`].
    pub fn new_blocked_with_scratch(
        a: &Matrix,
        scratch: &mut rcr_kernels::Scratch,
    ) -> Result<Self, LinalgError> {
        Self::validate(a)?;
        let n = a.rows();
        // rcr-lint: allow(no-unwrap-in-lib, reason = "symmetrize only errs on non-square input, rejected by validate above")
        let mut m = a.symmetrize().expect("square checked above");
        let mut vals = vec![0.0; n];
        rcr_kernels::eigh(m.as_mut_slice(), n, &mut vals, scratch)
            .map_err(|iterations| LinalgError::NonConvergence { iterations })?;
        Ok(SymmetricEigen {
            eigenvalues: vals,
            eigenvectors: m,
        })
    }

    /// The cyclic Jacobi backend, always available regardless of size —
    /// the baseline leg of the `sdp/projection` bench group and the
    /// accuracy oracle in tests.
    ///
    /// # Errors
    /// As for [`SymmetricEigen::new`].
    pub fn new_jacobi(a: &Matrix) -> Result<Self, LinalgError> {
        Self::validate(a)?;
        let scale = a.max_abs().max(1.0);
        let n = a.rows();
        // rcr-lint: allow(no-unwrap-in-lib, reason = "symmetrize only errs on non-square input, rejected two lines above")
        let mut m = a.symmetrize().expect("square checked above");
        let mut v = Matrix::identity(n);
        let tol = 1e-14 * scale;

        for _sweep in 0..MAX_SWEEPS {
            let mut off = 0.0;
            for p in 0..n {
                for q in (p + 1)..n {
                    off += m[(p, q)] * m[(p, q)];
                }
            }
            if off.sqrt() <= tol {
                return Ok(Self::sorted(m, v));
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= tol * 1e-2 {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    // Classic Jacobi rotation angle.
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    // Update rows/columns p and q of M.
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    // Accumulate eigenvectors.
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        Err(LinalgError::NonConvergence {
            iterations: MAX_SWEEPS,
        })
    }

    fn sorted(m: Matrix, v: Matrix) -> Self {
        let n = m.rows();
        let mut idx: Vec<usize> = (0..n).collect();
        let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
        // IEEE total order: ascending, with any NaN (impossible for a
        // converged Jacobi sweep, but never worth a panic) sorting last.
        idx.sort_by(|&a, &b| diag[a].total_cmp(&diag[b]));
        let eigenvalues: Vec<f64> = idx.iter().map(|&i| diag[i]).collect();
        let eigenvectors = Matrix::from_fn(n, n, |r, c| v[(r, idx[c])]);
        SymmetricEigen {
            eigenvalues,
            eigenvectors,
        }
    }

    /// Eigenvalues in ascending order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Eigenvector matrix `V`; column `i` pairs with `eigenvalues()[i]`.
    pub fn eigenvectors(&self) -> &Matrix {
        &self.eigenvectors
    }

    /// Rebuilds `V * diag(vals) * V^T` using caller-provided eigenvalues —
    /// the primitive behind spectral functions (PSD projection, matrix
    /// square roots, etc.).
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when `vals.len()` differs from `n`.
    pub fn reconstruct_with(&self, vals: &[f64]) -> Result<Matrix, LinalgError> {
        let n = self.eigenvalues.len();
        if vals.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "eigen reconstruct",
                got: vec![n, vals.len()],
            });
        }
        // V * diag(vals)
        let vd = Matrix::from_fn(n, n, |r, c| self.eigenvectors[(r, c)] * vals[c]);
        vd.matmul(&self.eigenvectors.transpose())
    }

    /// Rebuilds the original matrix `V * diag(λ) * V^T`.
    pub fn reconstruct(&self) -> Matrix {
        self.reconstruct_with(&self.eigenvalues.clone())
            // rcr-lint: allow(no-unwrap-in-lib, reason = "reconstruct_with only errs on a length mismatch; self.eigenvalues matches by construction")
            .expect("matching lengths")
    }

    /// Numerical rank: eigenvalues with `|λ| > tol` count toward the rank.
    pub fn rank(&self, tol: f64) -> usize {
        self.eigenvalues.iter().filter(|l| l.abs() > tol).count()
    }

    /// Symmetric positive semidefinite square root `A^{1/2}` (negative
    /// eigenvalues are clipped to zero first).
    pub fn sqrt_psd(&self) -> Matrix {
        let vals: Vec<f64> = self
            .eigenvalues
            .iter()
            .map(|&l| l.max(0.0).sqrt())
            .collect();
        // rcr-lint: allow(no-unwrap-in-lib, reason = "vals is mapped 1:1 from self.eigenvalues, so the lengths cannot mismatch")
        self.reconstruct_with(&vals).expect("matching lengths")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let a = Matrix::from_diag(&[3.0, -1.0, 2.0]);
        let e = a.symmetric_eigen().unwrap();
        assert!((e.eigenvalues()[0] + 1.0).abs() < 1e-12);
        assert!((e.eigenvalues()[1] - 2.0).abs() < 1e-12);
        assert!((e.eigenvalues()[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2_eigensystem() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let e = a.symmetric_eigen().unwrap();
        assert!((e.eigenvalues()[0] - 1.0).abs() < 1e-12);
        assert!((e.eigenvalues()[1] - 3.0).abs() < 1e-12);
        // Eigenvector for λ=3 is (1,1)/sqrt(2) up to sign.
        let v = e.eigenvectors();
        assert!((v[(0, 1)].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_roundtrip() {
        let a =
            Matrix::from_rows(&[&[4.0, 1.0, -2.0], &[1.0, 2.0, 0.0], &[-2.0, 0.0, 3.0]]).unwrap();
        let e = a.symmetric_eigen().unwrap();
        assert!((&e.reconstruct() - &a).max_abs() < 1e-10);
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = Matrix::from_rows(&[&[5.0, 2.0], &[2.0, 1.0]]).unwrap();
        let e = a.symmetric_eigen().unwrap();
        let vtv = e
            .eigenvectors()
            .transpose()
            .matmul(e.eigenvectors())
            .unwrap();
        assert!((&vtv - &Matrix::identity(2)).max_abs() < 1e-10);
    }

    #[test]
    fn rank_counts_nonzero_modes() {
        let a = Matrix::from_diag(&[1.0, 1e-15, 2.0]);
        let e = a.symmetric_eigen().unwrap();
        assert_eq!(e.rank(1e-10), 2);
    }

    #[test]
    fn sqrt_psd_squares_back() {
        let a = Matrix::from_rows(&[&[4.0, 0.0], &[0.0, 9.0]]).unwrap();
        let s = a.symmetric_eigen().unwrap().sqrt_psd();
        let s2 = s.matmul(&s).unwrap();
        assert!((&s2 - &a).max_abs() < 1e-10);
    }

    #[test]
    fn asymmetric_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(a.symmetric_eigen().is_err());
    }

    #[test]
    fn blocked_backend_agrees_with_jacobi_above_crossover() {
        // n >= EIGH_CROSSOVER so `new` takes the blocked QL path; Jacobi is
        // the accuracy oracle. Eigenvalues agree to tight tolerance and the
        // decomposition reconstructs the input.
        let n = EIGH_CROSSOVER + 9;
        let g = Matrix::from_fn(n, n, |i, j| {
            ((i * 23 + j * 41 + 7) % 83) as f64 / 83.0 - 0.5
        });
        let a = Matrix::from_fn(n, n, |i, j| {
            (0..n).map(|k| g[(k, i)] * g[(k, j)]).sum::<f64>() / n as f64
        });
        let blocked = a.symmetric_eigen().unwrap();
        let jacobi = SymmetricEigen::new_jacobi(&a).unwrap();
        for (b, j) in blocked.eigenvalues().iter().zip(jacobi.eigenvalues()) {
            assert!((b - j).abs() < 1e-9, "eigenvalue mismatch: {b} vs {j}");
        }
        for w in blocked.eigenvalues().windows(2) {
            assert!(w[0] <= w[1], "eigenvalues must be ascending");
        }
        assert!((&blocked.reconstruct() - &a).max_abs() < 1e-9);
        let vtv = blocked
            .eigenvectors()
            .transpose()
            .matmul(blocked.eigenvectors())
            .unwrap();
        assert!((&vtv - &Matrix::identity(n)).max_abs() < 1e-9);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a =
            Matrix::from_rows(&[&[3.0, 1.0, 0.5], &[1.0, -2.0, 0.0], &[0.5, 0.0, 1.0]]).unwrap();
        let e = a.symmetric_eigen().unwrap();
        let sum: f64 = e.eigenvalues().iter().sum();
        assert!((sum - a.trace()).abs() < 1e-10);
    }
}
