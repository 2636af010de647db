//! A conic-ADMM semidefinite programming solver.
//!
//! Standard primal form (the shape of the paper's Eq. 10):
//!
//! ```text
//! minimize   ⟨C, X⟩
//! subject to ⟨A_i, X⟩ = b_i,  i = 1..m
//!            X ⪰ 0
//! ```
//!
//! Splitting: `X` lives on the affine subspace, `Z` on the PSD cone, with
//! the consensus constraint `X = Z`:
//!
//! * X-update: Euclidean projection of `Z − U − C/ρ` onto `{A(X) = b}`
//!   (one pre-factorized Gram solve);
//! * Z-update: [`rcr_linalg::Matrix::psd_projection`] of `X + U`;
//! * U-update: dual ascent.
//!
//! This is a scaled-down cousin of SCS/SDPT3, adequate for the ≤ ~60×60
//! cones the experiments need.
//!
//! Each `A_i` is held as its nonzeros (row-major flat index, value), so
//! with `nnz` the total nonzero count and `m` the constraint count:
//!
//! * set-up is O(m²·nnz) for the Gram `G_ij = ⟨A_i, A_j⟩` (a sorted
//!   merge of two nonzero lists per entry) plus one m×m Cholesky factor;
//! * an iteration is O(nnz + m²) for the X-update (gather `A(M) − b`,
//!   two triangular solves, scatter `M − Σ wᵢAᵢ`) plus the Z-update's
//!   O(n³) eigendecomposition: the blocked tridiagonalization +
//!   implicit-QL kernel behind [`rcr_linalg::SymmetricEigen`], one
//!   eigensolver at every cone size.
//!
//! The trace-minimization SDP of [`crate::rankmin`] has two nonzeros per
//! constraint, so its gather and scatter cost O(m), not O(m·n²).
//!
//! The gather and scatter are the sequential `-0.0`-seeded add chains of
//! `rcr_kernels::dot`/`axpy` with the exact-zero `0·x` terms left out,
//! which leaves every nonzero partial sum, and so every answer bit of
//! the dense formulation, unchanged (`tests/sdp_sparse_oracle.rs` keeps
//! the dense reference and pins this).

use crate::ConvexError;
use rcr_linalg::{Cholesky, Matrix};

/// Solver settings.
#[derive(Debug, Clone)]
pub struct SdpSettings {
    /// ADMM penalty ρ.
    pub rho: f64,
    /// Maximum iterations.
    pub max_iter: usize,
    /// Tolerance on the consensus, constraint, and dual residuals
    /// (Frobenius norms).
    pub tol: f64,
}

impl Default for SdpSettings {
    fn default() -> Self {
        SdpSettings {
            rho: 1.0,
            max_iter: 20_000,
            tol: 1e-7,
        }
    }
}

/// Solution of an SDP.
#[derive(Debug, Clone)]
pub struct SdpSolution {
    /// The PSD primal solution (the cone-side iterate `Z`).
    pub x: Matrix,
    /// Objective `⟨C, X⟩`.
    pub objective: f64,
    /// Iterations used.
    pub iterations: usize,
    /// Final residual: the largest of the consensus residual
    /// `‖X − Z‖_F`, the constraint residual, and the dual residual
    /// `ρ‖Z_k − Z_{k−1}‖_F`.
    pub residual: f64,
}

/// An SDP in standard primal form.
#[derive(Debug, Clone)]
pub struct SdpProblem {
    c: Matrix,
    constraints: Vec<SparseConstraint>,
    n: usize,
}

/// One equality `⟨A, X⟩ = b` with `A` held as its nonzeros.
#[derive(Debug, Clone)]
struct SparseConstraint {
    /// `(k, a_k)` for every entry with `a_k ≠ 0`, `k = row·n + col`
    /// ascending (row-major, the layout of [`Matrix::as_slice`]).
    entries: Vec<(usize, f64)>,
    rhs: f64,
}

impl SparseConstraint {
    fn from_dense(a: &Matrix, rhs: f64) -> Self {
        let entries = a
            .as_slice()
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0.0)
            .map(|(k, &v)| (k, v))
            .collect();
        SparseConstraint { entries, rhs }
    }

    /// `⟨A, X⟩` for a row-major `X`: a gather over the nonzeros.
    fn inner(&self, x: &[f64]) -> f64 {
        let mut s = -0.0;
        for &(k, a) in &self.entries {
            s += a * x.get(k).copied().unwrap_or(f64::NAN);
        }
        s
    }

    /// `⟨A, B⟩` by a sorted merge of the two nonzero lists.
    fn inner_sparse(&self, other: &SparseConstraint) -> f64 {
        let mut s = -0.0;
        let mut rest = other.entries.iter().peekable();
        for &(k, a) in &self.entries {
            while rest.next_if(|&&(kb, _)| kb < k).is_some() {}
            if let Some(&(_, b)) = rest.next_if(|&&(kb, _)| kb == k) {
                s += a * b;
            }
        }
        s
    }

    /// `y += alpha·A` for a row-major `y`: a scatter over the nonzeros.
    fn axpy(&self, alpha: f64, y: &mut [f64]) {
        for &(k, a) in &self.entries {
            if let Some(yk) = y.get_mut(k) {
                *yk += alpha * a;
            }
        }
    }
}

impl SdpProblem {
    /// Builds a problem over `n x n` symmetric matrices.
    ///
    /// Each `A_i` is converted once into its nonzero (row-major flat
    /// index, value) pairs, skipping `±0.0` entries, and the dense copy
    /// is dropped: the solver's Gram build, X-update and
    /// [`SdpProblem::constraint_residual`] touch only those nonzeros.
    ///
    /// # Errors
    /// * [`ConvexError::DimensionMismatch`] when `C` or some `A_i` is not
    ///   `n x n`.
    /// * [`ConvexError::NotFinite`] for NaN/inf data.
    pub fn new(c: Matrix, constraints: Vec<(Matrix, f64)>) -> Result<Self, ConvexError> {
        let n = c.rows();
        if !c.is_square() {
            return Err(ConvexError::DimensionMismatch(format!(
                "C is {:?}",
                c.shape()
            )));
        }
        if !c.is_finite() {
            return Err(ConvexError::NotFinite);
        }
        for (i, (a, b)) in constraints.iter().enumerate() {
            if a.shape() != (n, n) {
                return Err(ConvexError::DimensionMismatch(format!(
                    "A_{i} is {:?}, expected {n}x{n}",
                    a.shape()
                )));
            }
            if !a.is_finite() || !b.is_finite() {
                return Err(ConvexError::NotFinite);
            }
        }
        let constraints = constraints
            .iter()
            .map(|(a, b)| SparseConstraint::from_dense(a, *b))
            .collect();
        Ok(SdpProblem { c, constraints, n })
    }

    /// Cone dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of equality constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Constraint residual `max_i |⟨A_i, X⟩ − b_i|`; NaN when `X` is not
    /// `n x n`.
    pub fn constraint_residual(&self, x: &Matrix) -> f64 {
        if x.shape() != (self.n, self.n) {
            return f64::NAN;
        }
        self.constraints
            .iter()
            .map(|con| (con.inner(x.as_slice()) - con.rhs).abs())
            .fold(0.0, f64::max)
    }

    /// Solves the SDP from a cold start.
    ///
    /// # Errors
    /// * [`ConvexError::Infeasible`] when the constraint matrices are
    ///   linearly dependent (singular Gram `G_ij = ⟨A_i, A_j⟩` of the
    ///   affine projection), which includes an inconsistent `A(X) = b`.
    /// * [`ConvexError::NonConvergence`] when the iteration budget runs
    ///   out — typical for infeasible or unbounded cone problems.
    pub fn solve(&self, settings: &SdpSettings) -> Result<SdpSolution, ConvexError> {
        let n = self.n;
        let rho = settings.rho;
        if !(rho > 0.0) {
            return Err(ConvexError::InvalidParameter("rho must be positive".into()));
        }

        // Factorize the affine projection's Gram matrix once (`None` for
        // an unconstrained cone).
        let m = self.constraints.len();
        let chol = if m == 0 {
            None
        } else {
            let mut gram = Matrix::zeros(m, m);
            for (row, ci) in gram
                .as_mut_slice()
                .chunks_exact_mut(m)
                .zip(&self.constraints)
            {
                for (g, cj) in row.iter_mut().zip(&self.constraints) {
                    *g = ci.inner_sparse(cj);
                }
            }
            Some(Cholesky::new(&gram).map_err(|_| ConvexError::Infeasible)?)
        };

        let proj_affine = |mat: &Matrix| -> Result<Matrix, ConvexError> {
            let Some(chol) = &chol else {
                return Ok(mat.clone());
            };
            // X = M − Σ w_i A_i with G w = A(M) − b.
            let resid: Vec<f64> = self
                .constraints
                .iter()
                .map(|con| con.inner(mat.as_slice()) - con.rhs)
                .collect();
            let w = chol.solve(&resid)?;
            let mut out = mat.clone();
            for (con, wi) in self.constraints.iter().zip(&w) {
                // x + (-w)·a and x - w·a are bitwise equal.
                con.axpy(-wi, out.as_mut_slice());
            }
            Ok(out)
        };

        let mut z = Matrix::zeros(n, n);
        let mut u = Matrix::zeros(n, n);
        let mut residual = f64::INFINITY;
        for iter in 0..settings.max_iter {
            // X-update: project Z − U − C/ρ onto the affine subspace.
            let target = &(&z - &u) - &(&self.c * (1.0 / rho));
            let x = proj_affine(&target)?;
            // Z-update: PSD projection of X + U.
            let z_new = (&x + &u).psd_projection()?;
            // Dual update.
            u = &(&u + &x) - &z_new;
            let diff = (&x - &z_new).frobenius_norm();
            // The ADMM dual residual ρ‖Z_k − Z_{k−1}‖_F. Without it the
            // solve can stop at iteration 1: from the zero seed the first
            // affine projection is sometimes already PSD, making the
            // consensus residual ~0 at a feasible but suboptimal point.
            let dual = rho * (&z_new - &z).frobenius_norm();
            z = z_new;
            residual = diff.max(self.constraint_residual(&z)).max(dual);
            if residual < settings.tol {
                return Ok(SdpSolution {
                    objective: self.c.inner(&z)?,
                    x: z,
                    iterations: iter + 1,
                    residual,
                });
            }
        }
        Err(ConvexError::NonConvergence {
            iterations: settings.max_iter,
            residual,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e_ii(n: usize, i: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        m[(i, i)] = 1.0;
        m
    }

    #[test]
    fn diagonal_sdp_reduces_to_lp() {
        // min x₁ + 2x₂ s.t. x₁ + x₂ = 1, X = diag ⪰ 0 → X = diag(1, 0).
        let c = Matrix::from_diag(&[1.0, 2.0]);
        let sum = Matrix::identity(2);
        // Also force off-diagonals to zero so the solution stays diagonal.
        let mut off = Matrix::zeros(2, 2);
        off[(0, 1)] = 1.0;
        off[(1, 0)] = 1.0;
        let prob = SdpProblem::new(c, vec![(sum, 1.0), (off, 0.0)]).unwrap();
        let sol = prob.solve(&SdpSettings::default()).unwrap();
        assert!((sol.x[(0, 0)] - 1.0).abs() < 1e-4, "{}", sol.x);
        assert!(sol.x[(1, 1)].abs() < 1e-4);
        assert!((sol.objective - 1.0).abs() < 1e-4);
    }

    #[test]
    fn trace_one_min_eigenvalue_objective() {
        // min ⟨C, X⟩ s.t. tr X = 1, X ⪰ 0 gives λ_min(C) (extreme point is
        // the eigenvector outer product).
        let c = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap(); // eigs 1, 3
        let prob = SdpProblem::new(c, vec![(Matrix::identity(2), 1.0)]).unwrap();
        let sol = prob.solve(&SdpSettings::default()).unwrap();
        assert!(
            (sol.objective - 1.0).abs() < 1e-4,
            "objective {}",
            sol.objective
        );
        // X should be rank-1 on the eigenvector (1,-1)/√2.
        assert!((sol.x[(0, 1)] + 0.5).abs() < 1e-3, "{}", sol.x);
    }

    #[test]
    fn solution_is_psd_and_feasible() {
        let c = Matrix::from_diag(&[1.0, 1.0, 1.0]);
        let prob = SdpProblem::new(c, vec![(e_ii(3, 0), 0.5), (e_ii(3, 1), 0.25)]).unwrap();
        let sol = prob.solve(&SdpSettings::default()).unwrap();
        assert!(sol.x.min_eigenvalue().unwrap() > -1e-6);
        assert!(prob.constraint_residual(&sol.x) < 1e-6);
        // Minimizing trace with fixed diagonal entries: X₃₃ → 0.
        assert!(sol.x[(2, 2)].abs() < 1e-4);
    }

    #[test]
    fn unconstrained_psd_min_of_positive_c_is_zero() {
        let c = Matrix::from_diag(&[1.0, 2.0]);
        let prob = SdpProblem::new(c, vec![]).unwrap();
        let sol = prob.solve(&SdpSettings::default()).unwrap();
        assert!(sol.objective.abs() < 1e-6);
        assert!(sol.x.frobenius_norm() < 1e-5);
    }

    #[test]
    fn inconsistent_affine_detected_or_divergent() {
        // Same A with two different right-hand sides. The Gram matrix is
        // singular, so Cholesky fails → Infeasible.
        let a = e_ii(2, 0);
        let prob = SdpProblem::new(Matrix::identity(2), vec![(a.clone(), 1.0), (a, 2.0)]).unwrap();
        assert!(matches!(
            prob.solve(&SdpSettings::default()),
            Err(ConvexError::Infeasible) | Err(ConvexError::NonConvergence { .. })
        ));
    }

    #[test]
    fn validation() {
        assert!(SdpProblem::new(Matrix::zeros(2, 3), vec![]).is_err());
        assert!(SdpProblem::new(Matrix::identity(2), vec![(Matrix::identity(3), 1.0)]).is_err());
        let mut c = Matrix::identity(2);
        c[(0, 0)] = f64::NAN;
        assert!(SdpProblem::new(c, vec![]).is_err());
    }

    #[test]
    fn negative_rho_rejected() {
        let prob = SdpProblem::new(Matrix::identity(2), vec![]).unwrap();
        let s = SdpSettings {
            rho: -1.0,
            ..Default::default()
        };
        assert!(prob.solve(&s).is_err());
    }

    #[test]
    fn full_support_gather_merge_and_scatter_are_the_dense_kernels() {
        // With no zero entries to skip, the sparse chains are exactly
        // `rcr_kernels::dot`/`axpy`, down to the `-0.0` seed that an
        // all-zero sum keeps.
        let a = Matrix::from_rows(&[&[1.5, 0.25], &[0.25, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[0.5, 3.0], &[3.0, -1.0]]).unwrap();
        let (ca, cb) = (
            SparseConstraint::from_dense(&a, 0.0),
            SparseConstraint::from_dense(&b, 0.0),
        );
        let neg_zero = [-0.0; 4];
        for x in [b.as_slice(), &neg_zero[..]] {
            let dense = rcr_kernels::dot(a.as_slice(), x);
            assert_eq!(ca.inner(x).to_bits(), dense.to_bits());
        }
        let dense = rcr_kernels::dot(a.as_slice(), b.as_slice());
        assert_eq!(ca.inner_sparse(&cb).to_bits(), dense.to_bits());
        assert_eq!(cb.inner_sparse(&ca).to_bits(), dense.to_bits());
        // Products that underflow to -0.0 keep the merge's seed too.
        let tiny = SparseConstraint::from_dense(&Matrix::filled(2, 2, 1e-200), 0.0);
        let neg_tiny = SparseConstraint::from_dense(&Matrix::filled(2, 2, -1e-200), 0.0);
        assert_eq!(tiny.inner_sparse(&neg_tiny).to_bits(), (-0.0f64).to_bits());
        let (mut sparse_y, mut dense_y) = (neg_zero, neg_zero);
        ca.axpy(-0.75, &mut sparse_y);
        rcr_kernels::axpy(-0.75, a.as_slice(), &mut dense_y);
        assert_eq!(sparse_y.map(f64::to_bits), dense_y.map(f64::to_bits));
    }

    #[test]
    fn zero_entries_are_not_stored() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 2)] = 1.0;
        a[(2, 0)] = -0.0;
        a[(1, 1)] = -2.0;
        let con = SparseConstraint::from_dense(&a, 1.0);
        assert_eq!(con.entries, vec![(2, 1.0), (4, -2.0)]);
    }

    #[test]
    fn constraint_residual_of_a_wrong_shape_is_nan() {
        let prob = SdpProblem::new(Matrix::identity(2), vec![(Matrix::identity(2), 1.0)]).unwrap();
        assert!(prob.constraint_residual(&Matrix::identity(3)).is_nan());
        assert_eq!(prob.constraint_residual(&Matrix::identity(2)), 1.0);
    }
}
