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
//! * Z-update: the PSD projection of `X + U`, in place
//!   ([`rcr_linalg::Matrix::project_psd_in_place`], one buffer and one
//!   `Scratch` pool for the whole solve);
//! * U-update: dual ascent.
//!
//! This is a scaled-down cousin of SCS/SDPT3, adequate for the ≤ ~60×60
//! cones the experiments need.
//!
//! Each `A_i` is held as its nonzeros (row-major flat index, value), so
//! with `nnz` the total nonzero count and `m` the constraint count:
//!
//! * set-up starts with one O(nnz) ownership pass over the flat indices.
//!   When no two constraints share an entry, the Gram `G_ij = ⟨A_i, A_j⟩`
//!   is diagonal and set-up is O(nnz) (`g_ii` only); otherwise it is
//!   O(m²·nnz) for the dense Gram (a sorted merge of two nonzero lists
//!   per entry) plus one m×m Cholesky factor;
//! * an iteration's X-update (gather `A(M) − b`, solve with the Gram,
//!   scatter `M − Σ wᵢAᵢ`) is O(nnz) on disjoint supports and
//!   O(nnz + m²) otherwise (two triangular solves), plus the Z-update's
//!   O(n³) tridiagonal reduction. When one side of the spectrum has at
//!   most a third of the eigenvalues (two of n in the trace-min
//!   iterates), only that side's k eigenpairs are computed, by bisection
//!   and inverse iteration, for O(n²k) more; otherwise every eigenpair
//!   (implicit QL) and `V·diag·Vᵀ`, O(n³).
//!
//! The trace-minimization SDP of [`crate::rankmin`] has two nonzeros per
//! constraint on disjoint supports, so its set-up and X-update cost
//! O(m), not O(m²) or O(m·n²).
//!
//! The gather and scatter are the sequential `-0.0`-seeded add chains of
//! `rcr_kernels::dot`/`axpy` with the exact-zero `0·x` terms left out,
//! which leaves every nonzero partial sum, and so every answer bit of
//! the dense formulation, unchanged (`tests/sdp_sparse_oracle.rs` keeps
//! the dense reference and pins this). The diagonal solve is the dense
//! substitution with its `±0·y_j` terms folded into one signed-zero
//! subtraction, so it returns the dense factor's bits too (see
//! `GramFactor::solve_into`).

use std::borrow::Cow;

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
pub(crate) struct SparseConstraint {
    /// `(k, a_k)` for every entry with `a_k ≠ 0`, `k = row·n + col`
    /// ascending (row-major, the layout of [`Matrix::as_slice`]).
    pub(crate) entries: Vec<(usize, f64)>,
    pub(crate) rhs: f64,
}

impl SparseConstraint {
    pub(crate) fn from_dense(a: &Matrix, rhs: f64) -> Self {
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
        Ok(Self::from_sparse(c, constraints))
    }

    /// Builds a problem from constraints already held as nonzeros.
    ///
    /// The caller guarantees what [`SdpProblem::new`] validates: `C` is
    /// square and finite, and every constraint has finite values and
    /// right-hand side, nonzero entries, and flat indices below `n²` in
    /// ascending order.
    pub(crate) fn from_sparse(c: Matrix, constraints: Vec<SparseConstraint>) -> Self {
        let n = c.rows();
        SdpProblem { c, constraints, n }
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
        let gram = if self.constraints.is_empty() {
            None
        } else {
            Some(GramFactor::new(&self.constraints, n)?)
        };

        // The iterates live in buffers made once and reused by every
        // iteration, and the PSD projection works in place on `X + U`
        // with its kernel workspaces drawn from one pool.
        let c_rho = &self.c * (1.0 / rho);
        let m = self.constraints.len();
        let (mut resid, mut work, mut w) = (vec![0.0; m], vec![0.0; m], vec![0.0; m]);
        let mut scratch = rcr_kernels::Scratch::new();
        let mut x = Matrix::zeros(n, n);
        let mut z_new = Matrix::zeros(n, n);
        let mut delta = Matrix::zeros(n, n);
        let mut z = Matrix::zeros(n, n);
        let mut u = Matrix::zeros(n, n);
        let mut residual = f64::INFINITY;
        for iter in 0..settings.max_iter {
            // X-update: project Z − U − C/ρ onto the affine subspace.
            for (((xk, &zk), &uk), &ck) in x
                .as_mut_slice()
                .iter_mut()
                .zip(z.as_slice())
                .zip(u.as_slice())
                .zip(c_rho.as_slice())
            {
                *xk = (zk - uk) - ck;
            }
            if let Some(gram) = &gram {
                // X = M − Σ w_i A_i with G w = A(M) − b.
                for (ri, con) in resid.iter_mut().zip(&self.constraints) {
                    *ri = con.inner(x.as_slice()) - con.rhs;
                }
                gram.solve_into(&resid, &mut work, &mut w)?;
                for (con, wi) in self.constraints.iter().zip(&w) {
                    // x + (-w)·a and x - w·a are bitwise equal.
                    con.axpy(-wi, x.as_mut_slice());
                }
            }
            // Z-update: PSD projection of X + U.
            zip_into(&mut z_new, &x, &u, |xk, uk| xk + uk);
            z_new.project_psd_in_place(&mut scratch)?;
            // Dual update.
            for ((uk, &xk), &zk) in u
                .as_mut_slice()
                .iter_mut()
                .zip(x.as_slice())
                .zip(z_new.as_slice())
            {
                *uk = (*uk + xk) - zk;
            }
            zip_into(&mut delta, &x, &z_new, |xk, zk| xk - zk);
            let diff = delta.frobenius_norm();
            // The ADMM dual residual ρ‖Z_k − Z_{k−1}‖_F. Without it the
            // solve can stop at iteration 1: from the zero seed the first
            // affine projection is sometimes already PSD, making the
            // consensus residual ~0 at a feasible but suboptimal point.
            zip_into(&mut delta, &z_new, &z, |new, old| new - old);
            let dual = rho * delta.frobenius_norm();
            std::mem::swap(&mut z, &mut z_new);
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

/// The affine projection's Gram `G_ij = ⟨A_i, A_j⟩`, factored once.
enum GramFactor {
    /// No two constraints share an entry, so `G` is diagonal: the
    /// Cholesky factor's diagonal `l_ii = sqrt(g_ii)`.
    Diagonal(Vec<f64>),
    /// Overlapping supports: the dense m×m Cholesky factor.
    Dense(Cholesky),
}

impl GramFactor {
    /// Factors the Gram of a nonempty constraint list over `n x n`
    /// matrices.
    ///
    /// # Errors
    /// [`ConvexError::Infeasible`] when `Cholesky::new` would reject the
    /// dense Gram: a non-finite entry, or a pivot at or below
    /// `1e-13·max(max |g_ij|, 1)`. On disjoint supports the pivots are
    /// the `g_ii` themselves (the off-diagonal entries are `-0.0`), so an
    /// all-zero constraint (`g_ii = -0.0`) is rejected too.
    fn new(constraints: &[SparseConstraint], n: usize) -> Result<Self, ConvexError> {
        if !supports_are_disjoint(constraints, n) {
            let m = constraints.len();
            let mut gram = Matrix::zeros(m, m);
            for (row, ci) in gram.as_mut_slice().chunks_exact_mut(m).zip(constraints) {
                for (g, cj) in row.iter_mut().zip(constraints) {
                    *g = ci.inner_sparse(cj);
                }
            }
            let chol = Cholesky::new(Cow::Owned(gram)).map_err(|_| ConvexError::Infeasible)?;
            return Ok(GramFactor::Dense(chol));
        }
        let diag: Vec<f64> = constraints.iter().map(|c| c.inner_sparse(c)).collect();
        let tol = 1e-13 * diag.iter().fold(0.0, |m: f64, g| m.max(g.abs())).max(1.0);
        if diag.iter().any(|&g| !g.is_finite() || g <= tol) {
            return Err(ConvexError::Infeasible);
        }
        Ok(GramFactor::Diagonal(
            diag.into_iter().map(f64::sqrt).collect(),
        ))
    }

    /// Solves `G w = r` into `w`; `work` holds the dense path's forward
    /// substitution. All three slices have length `m`.
    ///
    /// The diagonal path is the dense forward and backward substitution
    /// `w_i = (r_i / l_ii) / l_ii` with the exact-zero terms dropped. The
    /// dense factor's off-diagonal entries are all `-0.0`, so each row
    /// subtracts only `(-0.0)·y_j` terms. For finite `y_j` such a term
    /// is `-0.0` when `y_j`'s sign bit is clear and `+0.0` otherwise, and
    /// subtracting either leaves every value but a `-0.0` partial sum
    /// alone, which any `-0.0` term turns into `+0.0`, in whatever order
    /// the row subtracts its terms (the dense backward pass goes in
    /// descending `j`). So each row subtracts one `t`: `-0.0` once some
    /// already solved `y_j` has a clear sign bit, `+0.0` before. A non-finite `y_j` would make the later dense
    /// rows NaN where this path leaves them finite, but either way `w`
    /// holds a non-finite entry, the scatter puts it into `X`, and the
    /// PSD projection that follows fails with the same `NotFinite` error.
    fn solve_into(&self, r: &[f64], work: &mut [f64], w: &mut [f64]) -> Result<(), ConvexError> {
        match self {
            GramFactor::Dense(chol) => Ok(chol.solve_into(r, work, w)?),
            GramFactor::Diagonal(l) => {
                for (wi, &ri) in w.iter_mut().zip(r) {
                    *wi = ri;
                }
                substitute(w.iter_mut().zip(l));
                substitute(w.iter_mut().zip(l).rev());
                Ok(())
            }
        }
    }
}

/// `out = f(a, b)` entry by entry, for three matrices of one shape.
fn zip_into(out: &mut Matrix, a: &Matrix, b: &Matrix, f: impl Fn(f64, f64) -> f64) {
    for ((o, &ak), &bk) in out
        .as_mut_slice()
        .iter_mut()
        .zip(a.as_slice())
        .zip(b.as_slice())
    {
        *o = f(ak, bk);
    }
}

/// One diagonal substitution pass `y_i = (s_i − t) / l_ii` over `(s_i,
/// l_ii)` in solve order, where `t` is `-0.0` once an already solved
/// `y_j` has a clear sign bit and `+0.0` before (see [`GramFactor::solve_into`]).
fn substitute<'a>(rows: impl Iterator<Item = (&'a mut f64, &'a f64)>) {
    let mut t = 0.0;
    for (s, &l) in rows {
        *s = (*s - t) / l;
        if s.is_sign_positive() {
            t = -0.0;
        }
    }
}

/// Whether no two constraints share a flat index: one ownership pass
/// over the nonzeros of constraints whose indices lie below `n²`.
fn supports_are_disjoint(constraints: &[SparseConstraint], n: usize) -> bool {
    let mut owned = vec![false; n * n];
    constraints.iter().flat_map(|c| &c.entries).all(|&(k, _)| {
        owned
            .get_mut(k)
            .is_some_and(|o| !std::mem::replace(o, true))
    })
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

    /// `m` disjoint constraints over `n x n` with mixed-sign, non-unit
    /// values: `E_ii` diagonals and symmetric pairs.
    fn disjoint_set(n: usize, m: usize) -> Vec<SparseConstraint> {
        let mut out = Vec::new();
        for i in 0..n {
            for j in i..n {
                if out.len() == m {
                    return out;
                }
                let v = if (i + 2 * j) % 3 == 0 {
                    -1.5
                } else {
                    0.75 + 0.1 * j as f64
                };
                let mut a = Matrix::zeros(n, n);
                a[(i, j)] = v;
                a[(j, i)] = v;
                out.push(SparseConstraint::from_dense(&a, 0.0));
            }
        }
        out
    }

    fn dense_gram(constraints: &[SparseConstraint]) -> Cholesky {
        let m = constraints.len();
        let gram = Matrix::from_fn(m, m, |i, j| constraints[i].inner_sparse(&constraints[j]));
        Cholesky::new(&gram).unwrap()
    }

    #[test]
    fn diagonal_solve_is_the_dense_substitution_bit_for_bit() {
        // m = 3 and 7 (no full forward block), 36 and 45 (past the 32-wide
        // factor panel). Right-hand sides mix signs and put ±0.0 after
        // both signs, so the signed-zero rule of the dense rows shows.
        for (n, m) in [(3, 3), (4, 7), (8, 36), (9, 45)] {
            let constraints = disjoint_set(n, m);
            assert!(supports_are_disjoint(&constraints, n));
            let GramFactor::Diagonal(_) = GramFactor::new(&constraints, n).unwrap() else {
                panic!("n={n} m={m}: expected the diagonal path");
            };
            let chol = dense_gram(&constraints);
            let patterns: [fn(usize) -> f64; 6] = [
                |i| if i % 2 == 0 { -0.0 } else { 0.25 * i as f64 },
                |i| if i % 2 == 0 { -0.0 } else { -0.25 * i as f64 },
                |i| if i % 3 == 0 { 0.0 } else { -0.0 },
                |i| if i % 3 == 1 { -3.0 } else { -0.0 },
                |_| -0.0,
                |i| if i % 4 == 2 { 1e-300 } else { -0.0 },
            ];
            for (p, pattern) in patterns.iter().enumerate() {
                let r: Vec<f64> = (0..m).map(pattern).collect();
                let dense = chol.solve(&r).unwrap();
                let mut diag = vec![7.0; m];
                GramFactor::new(&constraints, n)
                    .unwrap()
                    .solve_into(&r, &mut vec![7.0; m], &mut diag)
                    .unwrap();
                assert_eq!(
                    diag.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    dense.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "n={n} m={m} pattern {p}"
                );
            }
        }
    }

    #[test]
    fn diagonal_gram_errors_mirror_the_dense_cholesky() {
        let n = 3;
        let with = |k: usize, v: f64| {
            let mut constraints = disjoint_set(n, 4);
            let mut a = Matrix::zeros(n, n);
            a[(2, 2)] = v;
            constraints[k] = SparseConstraint::from_dense(&a, 1.0);
            constraints
        };
        for (label, constraints) in [
            ("all-zero", with(1, 0.0)),
            ("under the pivot tolerance", with(0, 1e-8)),
            ("overflowing", with(3, 1e200)),
        ] {
            assert!(supports_are_disjoint(&constraints, n), "{label}");
            let m = constraints.len();
            let gram = Matrix::from_fn(m, m, |i, j| constraints[i].inner_sparse(&constraints[j]));
            assert!(Cholesky::new(&gram).is_err(), "{label}: dense");
            assert!(
                matches!(
                    GramFactor::new(&constraints, n),
                    Err(ConvexError::Infeasible)
                ),
                "{label}: diagonal"
            );
        }
        // Just above the tolerance the diagonal path factors.
        assert!(GramFactor::new(&with(0, 1e-6), n).is_ok());
    }

    #[test]
    fn a_shared_entry_takes_the_dense_path() {
        let n = 4;
        let mut constraints = disjoint_set(n, 5);
        assert!(supports_are_disjoint(&constraints, n));
        let mut a = Matrix::zeros(n, n);
        a[(3, 3)] = 2.0;
        a[(0, 1)] = 0.5;
        constraints.push(SparseConstraint::from_dense(&a, 0.0));
        assert!(!supports_are_disjoint(&constraints, n));
        assert!(matches!(
            GramFactor::new(&constraints, n),
            Ok(GramFactor::Dense(_))
        ));
    }

    #[test]
    fn constraint_residual_of_a_wrong_shape_is_nan() {
        let prob = SdpProblem::new(Matrix::identity(2), vec![(Matrix::identity(2), 1.0)]).unwrap();
        assert!(prob.constraint_residual(&Matrix::identity(3)).is_nan());
        assert_eq!(prob.constraint_residual(&Matrix::identity(2)), 1.0);
    }
}
