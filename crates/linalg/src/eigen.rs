use crate::{LinalgError, Matrix};

/// Eigendecomposition `A = V * diag(λ) * V^T` of a symmetric matrix,
/// computed by Householder tridiagonalization followed by implicit-shift
/// QL (the `rcr_kernels::eigh` kernel) at every size. The kernel keeps
/// the reduction's trailing block symmetric and the eigenvectors
/// transposed while it works, so its inner loops walk rows of contiguous
/// memory; the answer bits are those of the column-walking formulation.
///
/// The QL deflation test is EISPACK's running-norm test, so exactly
/// rank-deficient input (a cluster of zero eigenvalues, as in the PSD
/// projections and trace-minimization spectra of the SDP solver)
/// converges like any other.
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

impl SymmetricEigen {
    /// Computes the eigendecomposition of a symmetric matrix.
    ///
    /// The input is validated for symmetry with tolerance scaled to its
    /// magnitude; call [`Matrix::symmetrize`] first for nearly-symmetric data.
    /// Eigenvalues come back ascending (IEEE total order) with matching
    /// eigenvector columns.
    ///
    /// # Errors
    /// * [`LinalgError::NotSquare`] for non-square input.
    /// * [`LinalgError::NotFinite`] for NaN/inf entries.
    /// * [`LinalgError::InvalidInput`] when the matrix is visibly asymmetric.
    /// * [`LinalgError::NonConvergence`] if the iteration fails to converge
    ///   (practically unreachable for finite symmetric input).
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        Self::with_scratch(a, &mut rcr_kernels::Scratch::new())
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

    /// [`SymmetricEigen::new`] on an explicit [`rcr_kernels::Scratch`]
    /// pool, so repeated same-size decompositions over one reused pool
    /// stop allocating kernel workspace. Same validation, same bits.
    ///
    /// # Errors
    /// As for [`SymmetricEigen::new`].
    pub fn with_scratch(
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

    /// Eigenvalues in ascending order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Eigenvector matrix `V`; column `i` pairs with `eigenvalues()[i]`.
    pub fn eigenvectors(&self) -> &Matrix {
        &self.eigenvectors
    }

    /// Numerical rank: eigenvalues with `|λ| > tol` count toward the rank.
    pub fn rank(&self, tol: f64) -> usize {
        self.eigenvalues.iter().filter(|l| l.abs() > tol).count()
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

    /// `V·diag(λ)·Vᵀ` of a decomposition.
    fn reconstruct(e: &SymmetricEigen) -> Matrix {
        let v = e.eigenvectors();
        let n = v.rows();
        let vd = Matrix::from_fn(n, n, |r, c| v[(r, c)] * e.eigenvalues()[c]);
        vd.matmul(&v.transpose()).unwrap()
    }

    #[test]
    fn reconstruction_roundtrip() {
        let a =
            Matrix::from_rows(&[&[4.0, 1.0, -2.0], &[1.0, 2.0, 0.0], &[-2.0, 0.0, 3.0]]).unwrap();
        let e = a.symmetric_eigen().unwrap();
        assert!((&reconstruct(&e) - &a).max_abs() < 1e-10);
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
    fn asymmetric_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(a.symmetric_eigen().is_err());
    }

    /// Deterministic values in [-1, 1] (splitmix64).
    fn uniform(len: usize, mut state: u64) -> Vec<f64> {
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn exactly_rank_two_inputs_converge() {
        // Exact rank-2 Gram matrices V·Vᵀ: n − 2 eigenvalues are zero. The
        // QL deflation test must not measure a subdiagonal against the
        // (vanishing) neighbouring diagonal entries of that zero cluster.
        for n in [32usize, 40, 64] {
            for seed in 0..40u64 {
                let v = Matrix::from_vec(n, 2, uniform(2 * n, (n as u64) << 32 | seed)).unwrap();
                let a = v.matmul(&v.transpose()).unwrap();
                let e = a
                    .symmetric_eigen()
                    .unwrap_or_else(|err| panic!("n={n} seed={seed}: {err}"));
                let vecs = e.eigenvectors();
                let lam = Matrix::from_diag(e.eigenvalues());
                let residual = &a.matmul(vecs).unwrap() - &vecs.matmul(&lam).unwrap();
                let bound = 1e-12 * a.inf_norm().max(1.0);
                assert!(
                    residual.inf_norm() < bound,
                    "n={n} seed={seed}: ‖AV − VΛ‖∞ = {:e} ≥ {bound:e}",
                    residual.inf_norm()
                );
            }
        }
    }

    #[test]
    fn known_spectrum_is_recovered() {
        // A = Q·diag(λ)·Qᵀ with Q orthogonal (QR of a seeded draw) and λ
        // known: full rank with a repeated cluster, and rank 2–3 with a
        // zero cluster. Eigenvalues, ascending order, reconstruction and
        // orthonormality are all checked within tolerances scaled by n.
        let full = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|i| {
                    if i % 4 == 0 {
                        0.5
                    } else {
                        (i as f64 - 0.4 * n as f64) / n as f64
                    }
                })
                .collect()
        };
        let low = |n: usize, modes: &[f64]| -> Vec<f64> {
            let mut lam = vec![0.0; n];
            lam[..modes.len()].copy_from_slice(modes);
            lam
        };
        let cases = [
            (5, full(5)),
            (24, full(24)),
            (41, full(41)),
            (32, low(32, &[1.5, 3.0])),
            (64, low(64, &[-2.0, 0.75, 4.0])),
        ];
        for (n, lam) in cases {
            let g = Matrix::from_vec(n, n, uniform(n * n, 0xE16 ^ n as u64)).unwrap();
            let q = g.qr().unwrap().q().clone();
            let qd = Matrix::from_fn(n, n, |r, c| q[(r, c)] * lam[c]);
            let a = qd.matmul(&q.transpose()).unwrap().symmetrize().unwrap();
            let e = a.symmetric_eigen().unwrap();

            let scale = lam.iter().fold(0.0f64, |m, l| m.max(l.abs()));
            let tol = 1e-14 * n as f64 * scale;
            let mut want = lam.clone();
            want.sort_by(f64::total_cmp);
            for (i, (got, want)) in e.eigenvalues().iter().zip(&want).enumerate() {
                assert!((got - want).abs() < tol, "n={n} λ{i}: {got} vs {want}");
            }
            for w in e.eigenvalues().windows(2) {
                assert!(w[0] <= w[1], "n={n}: eigenvalues must be ascending");
            }
            assert!(
                (&reconstruct(&e) - &a).max_abs() < tol,
                "n={n}: reconstruction"
            );
            let vtv = e
                .eigenvectors()
                .transpose()
                .matmul(e.eigenvectors())
                .unwrap();
            assert!(
                (&vtv - &Matrix::identity(n)).max_abs() < 1e-14 * n as f64,
                "n={n}: VᵀV ≠ I"
            );
        }
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
