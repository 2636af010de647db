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
//! The per-iteration cost is dominated by the Z-update's
//! eigendecomposition: the blocked tridiagonalization + implicit-QL
//! kernel behind [`rcr_linalg::SymmetricEigen`], one eigensolver at every
//! cone size.

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
    constraints: Vec<(Matrix, f64)>,
    n: usize,
}

impl SdpProblem {
    /// Builds a problem over `n x n` symmetric matrices.
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

    /// Constraint residual `max_i |⟨A_i, X⟩ − b_i|`.
    pub fn constraint_residual(&self, x: &Matrix) -> f64 {
        self.constraints
            .iter()
            .map(|(a, b)| (a.inner(x).unwrap_or(f64::NAN) - b).abs())
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
            let gram = Matrix::from_fn(m, m, |i, j| {
                self.constraints[i]
                    .0
                    .inner(&self.constraints[j].0)
                    .unwrap_or(f64::NAN)
            });
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
                .map(|(a, b)| a.inner(mat).map(|v| v - b))
                .collect::<Result<_, _>>()?;
            let w = chol.solve(&resid)?;
            let mut out = mat.clone();
            for ((a, _), wi) in self.constraints.iter().zip(&w) {
                // In-place axpy replaces the historical `out - a·wᵢ`
                // temporaries; x + (-w)·a and x - w·a are bitwise equal.
                rcr_kernels::axpy(-wi, a.as_slice(), out.as_mut_slice());
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
}
