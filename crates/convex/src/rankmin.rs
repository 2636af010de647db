//! The paper's Eq. 8 → Eq. 9 → Eq. 10 relaxation pipeline:
//! Rank Minimization → Trace Minimization → SDP.
//!
//! Given a symmetric measurement matrix `R_s`, decompose
//!
//! ```text
//! R_s = R_c + R_n,   R_c ⪰ 0 (low rank),   R_n diagonal
//! ```
//!
//! Minimizing `rank(R_c)` (Eq. 8) is nonconvex and discontinuous; the
//! trace surrogate (Eq. 9) is the tightest convex relaxation over the PSD
//! cone ("the rank function tallies the number of nonzero eigenvalues and
//! the trace function computes the sum of the involved eigenvalues"), and
//! is solvable as the SDP (Eq. 10):
//!
//! ```text
//! minimize   tr(X)
//! subject to X_ij = (R_s)_ij  for all i ≠ j
//!            X ⪰ 0
//! ```
//!
//! with `R_n = diag(R_s − X)` recovered afterwards. This is exactly the
//! classic low-rank + diagonal ("factor analysis") decomposition.

use crate::sdp::{SdpProblem, SdpSettings, SdpSolution, SparseConstraint};
use crate::ConvexError;
use rcr_linalg::Matrix;

/// Result of the trace-minimization decomposition.
#[derive(Debug, Clone)]
pub struct RankMinResult {
    /// The PSD low-rank part `R_c`.
    pub r_c: Matrix,
    /// The diagonal part `R_n` (as a full matrix).
    pub r_n: Matrix,
    /// `tr(R_c)` — the relaxed objective (Eq. 9).
    pub trace: f64,
    /// Numerical rank of `R_c` at tolerance `rank_tol`.
    pub rank: usize,
    /// Tolerance used for the rank count.
    pub rank_tol: f64,
    /// Iterations used by the underlying SDP solver.
    pub sdp_iterations: usize,
}

/// Solves the Eq. 9/10 trace-minimization problem for a symmetric `r_s`.
///
/// # Errors
/// * [`ConvexError::DimensionMismatch`] for non-square or empty (0×0)
///   input.
/// * [`ConvexError::NotFinite`] for NaN/inf entries.
/// * Propagates SDP solver errors ([`ConvexError::NonConvergence`] when no
///   PSD completion exists, e.g. heavily corrupted off-diagonals).
pub fn trace_min_decompose(
    r_s: &Matrix,
    settings: &SdpSettings,
) -> Result<RankMinResult, ConvexError> {
    if !r_s.is_square() || r_s.rows() == 0 {
        return Err(ConvexError::DimensionMismatch(format!(
            "R_s is {:?}",
            r_s.shape()
        )));
    }
    if !r_s.is_finite() {
        return Err(ConvexError::NotFinite);
    }
    let n = r_s.rows();
    let sym = r_s.symmetrize()?;

    let constraints = trace_min_constraints(&sym);
    if constraints.iter().any(|con| !con.rhs.is_finite()) {
        return Err(ConvexError::NotFinite);
    }
    let prob = SdpProblem::from_sparse(Matrix::identity(n), constraints);
    let SdpSolution { x, iterations, .. } = prob.solve(settings)?;

    let r_c = x;
    let diag: Vec<f64> = (0..n).map(|i| sym[(i, i)] - r_c[(i, i)]).collect();
    let r_n = Matrix::from_diag(&diag);
    let trace = r_c.trace();
    let rank_tol = 1e-4 * r_c.max_abs().max(1.0);
    let rank = r_c.symmetric_eigen()?.rank(rank_tol);
    Ok(RankMinResult {
        r_c,
        r_n,
        trace,
        rank,
        rank_tol,
        sdp_iterations: iterations,
    })
}

/// One constraint per off-diagonal pair `i < j` of the symmetric `n x n`
/// `sym`: `⟨E_ij + E_ji, X⟩ = 2·R_ij`, built from its two nonzeros at flat
/// indices `i·n + j < j·n + i` (the ascending order of
/// `SparseConstraint::from_dense`).
fn trace_min_constraints(sym: &Matrix) -> Vec<SparseConstraint> {
    let n = sym.rows();
    let mut constraints = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for (i, row) in sym.as_slice().chunks_exact(n).enumerate() {
        for (j, &r_ij) in row.iter().enumerate().skip(i + 1) {
            constraints.push(SparseConstraint {
                entries: vec![(i * n + j, 1.0), (j * n + i, 1.0)],
                rhs: 2.0 * r_ij,
            });
        }
    }
    constraints
}

/// Generates a synthetic `R_s = V Vᵀ + diag(d)` with known rank, for
/// experiments: `v` is `n x r` (so the low-rank part has rank ≤ r).
///
/// # Errors
/// Returns [`ConvexError::DimensionMismatch`] if `d.len() != v.rows()`.
pub fn synth_low_rank_plus_diag(v: &Matrix, d: &[f64]) -> Result<Matrix, ConvexError> {
    if d.len() != v.rows() {
        return Err(ConvexError::DimensionMismatch(format!(
            "d has {} entries, v has {} rows",
            d.len(),
            v.rows()
        )));
    }
    let vvt = v.matmul(&v.transpose())?;
    Ok(&vvt + &Matrix::from_diag(d))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings() -> SdpSettings {
        SdpSettings {
            tol: 1e-8,
            ..Default::default()
        }
    }

    #[test]
    fn recovers_rank_one_plus_diagonal() {
        // R_s = v vᵀ + diag(d) with v = (1, 2, -1), d = (0.5, 0.3, 0.4).
        let v = Matrix::from_rows(&[&[1.0], &[2.0], &[-1.0]]).unwrap();
        let d = [0.5, 0.3, 0.4];
        let r_s = synth_low_rank_plus_diag(&v, &d).unwrap();
        let res = trace_min_decompose(&r_s, &settings()).unwrap();
        assert_eq!(res.rank, 1, "rank: {} (eigs of R_c)", res.rank);
        // Off-diagonals of R_c must match R_s exactly.
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    assert!((res.r_c[(i, j)] - r_s[(i, j)]).abs() < 1e-5);
                }
            }
        }
        // Recovered diagonal noise close to the truth.
        for (i, &di) in d.iter().enumerate() {
            assert!(
                (res.r_n[(i, i)] - di).abs() < 1e-3,
                "d[{i}]: {} vs {di}",
                res.r_n[(i, i)]
            );
        }
    }

    #[test]
    fn decomposition_is_exact_split() {
        let v = Matrix::from_rows(&[&[1.0, 0.5], &[0.0, 1.0], &[2.0, -1.0], &[1.0, 1.0]]).unwrap();
        let d = [1.0, 2.0, 0.5, 1.5];
        let r_s = synth_low_rank_plus_diag(&v, &d).unwrap();
        let res = trace_min_decompose(&r_s, &settings()).unwrap();
        let recon = &res.r_c + &res.r_n;
        assert!((&recon - &r_s).max_abs() < 1e-5);
        assert!(res.r_c.min_eigenvalue().unwrap() > -1e-6);
        // R_n is diagonal by construction.
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert_eq!(res.r_n[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn rank_two_structure_dominates_spectrum() {
        // The trace relaxation is not guaranteed to recover the planted
        // rank exactly (here it finds a trace-6.47 completion, slightly
        // below the planted trace 6.5, with a tiny third eigenvalue), but
        // the planted rank-2 structure must dominate the spectrum.
        let v = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 1.0],
            &[1.0, -1.0],
            &[0.5, 0.5],
        ])
        .unwrap();
        let d = [0.8, 0.9, 0.7, 1.1, 0.6];
        let r_s = synth_low_rank_plus_diag(&v, &d).unwrap();
        let res = trace_min_decompose(&r_s, &settings()).unwrap();
        let eig = res.r_c.symmetric_eigen().unwrap();
        let evals = eig.eigenvalues(); // ascending
        let n = evals.len();
        let top2 = evals[n - 1] + evals[n - 2];
        assert!(top2 / res.trace > 0.95, "top-2 share {}", top2 / res.trace);
        // Relaxed objective never exceeds the planted trace.
        assert!(res.trace <= 6.5 + 1e-4);
    }

    #[test]
    fn trace_relaxation_never_exceeds_truth() {
        // tr is minimized subject to matching off-diagonals; the true R_c
        // is feasible, so the optimum is ≤ tr(V Vᵀ).
        let v = Matrix::from_rows(&[&[2.0], &[1.0], &[1.5]]).unwrap();
        let d = [0.2, 0.2, 0.2];
        let r_s = synth_low_rank_plus_diag(&v, &d).unwrap();
        let res = trace_min_decompose(&r_s, &settings()).unwrap();
        let true_trace = 2.0 * 2.0 + 1.0 + 1.5 * 1.5;
        assert!(res.trace <= true_trace + 1e-4);
    }

    #[test]
    fn validation() {
        assert!(trace_min_decompose(&Matrix::zeros(2, 3), &settings()).is_err());
        let mut m = Matrix::identity(2);
        m[(0, 1)] = f64::NAN;
        assert!(trace_min_decompose(&m, &settings()).is_err());
        let v = Matrix::zeros(3, 1);
        assert!(synth_low_rank_plus_diag(&v, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn constraints_are_the_nonzeros_of_the_dense_pair_matrices() {
        let r_s = Matrix::from_fn(5, 5, |i, j| 0.3 * i as f64 - 0.7 * j as f64 + 0.1);
        let sym = r_s.symmetrize().unwrap();
        let n = sym.rows();
        let mut dense = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let mut a = Matrix::zeros(n, n);
                a[(i, j)] = 1.0;
                a[(j, i)] = 1.0;
                dense.push(SparseConstraint::from_dense(&a, 2.0 * sym[(i, j)]));
            }
        }
        let built = trace_min_constraints(&sym);
        assert_eq!(built.len(), dense.len());
        for (b, d) in built.iter().zip(&dense) {
            assert_eq!(b.entries, d.entries);
            assert_eq!(b.rhs.to_bits(), d.rhs.to_bits());
        }
        assert!(trace_min_constraints(&Matrix::identity(1)).is_empty());
    }

    #[test]
    fn an_overflowing_right_hand_side_is_not_finite() {
        // 2·R_01 overflows although R_s is finite.
        let mut r_s = Matrix::identity(3);
        r_s[(0, 1)] = 1.5e308;
        r_s[(1, 0)] = 1.5e308;
        assert!(matches!(
            trace_min_decompose(&r_s, &settings()),
            Err(ConvexError::NotFinite)
        ));
    }

    #[test]
    fn empty_input_is_a_dimension_error() {
        assert!(matches!(
            trace_min_decompose(&Matrix::zeros(0, 0), &settings()),
            Err(ConvexError::DimensionMismatch(_))
        ));
    }
}
