//! Robust convex relaxation of the RRA assignment.
//!
//! The paper's robustness recipe: instead of assigning each resource block
//! greedily on the nominal channel, hedge against channel uncertainty by
//! (1) measuring the spread of the per-user gain profiles through the
//! spectrum of their Gram matrix — a wide spectral range means user
//! profiles that disagree strongly across the band, i.e. an assignment
//! sensitive to estimation error — and (2) solving a box-constrained QP
//! whose linear term is the nominal gain *discounted by that uncertainty
//! margin* and whose quadratic term couples users sharing a block through
//! the same Gram matrix. The relaxed solution is rounded per-block and then
//! repaired by the same minimum-rate repair pass the greedy solver uses.
//!
//! [`solve_robust`] is the one entry point; serve calls it per request on
//! its worker pool like every other solver.

use rcr_convex::qp::{QpProblem, QpSettings, QpSolution};
use rcr_linalg::{Matrix, SymmetricEigen};

use crate::rra::{repair_min_rates, RraProblem, RraSolution};
use crate::QosError;

/// Weight of the Gram coupling term in the QP objective. Keeps
/// `alpha·C + I` well-conditioned (C has unit-bounded entries) while still
/// penalizing x-mass on spectrally-correlated users.
const ROBUST_ALPHA: f64 = 0.5;

/// Scale of the uncertainty discount derived from the Gram spectral range.
const ROBUST_BETA: f64 = 0.25;

/// ADMM settings for the relaxation QP. Fixed (not caller-supplied) so a
/// given problem always yields the same answer.
fn robust_qp_settings() -> QpSettings {
    QpSettings {
        max_iter: 4000,
        eps_abs: 1e-6,
        eps_rel: 1e-6,
        ..QpSettings::default()
    }
}

/// Normalized gain weights `w[u][rb] ∈ [0, 1]` (nominal gains scaled by
/// the problem-wide maximum; an all-zero or non-finite channel yields all
/// zeros, which downstream degrades to margin 0 and a uniform objective).
fn weights(problem: &RraProblem) -> Vec<Vec<f64>> {
    let users = problem.users();
    let rbs = problem.resource_blocks();
    let mut gmax = 0.0f64;
    for u in 0..users {
        for r in 0..rbs {
            let g = problem.normalized_gain(u, r);
            if g.is_finite() && g > gmax {
                gmax = g;
            }
        }
    }
    let scale = if gmax > 0.0 { 1.0 / gmax } else { 0.0 };
    (0..users)
        .map(|u| {
            (0..rbs)
                .map(|r| {
                    let g = problem.normalized_gain(u, r) * scale;
                    if g.is_finite() {
                        g.clamp(0.0, 1.0)
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect()
}

/// Gram matrix of the weight profiles `w` over `rbs` blocks:
/// `C[i][j] = ⟨w_i, w_j⟩ / rbs`. Symmetric PSD with entries in `[0, 1]`.
fn gram(w: &[Vec<f64>], rbs: usize) -> Matrix {
    let users = w.len();
    Matrix::from_fn(users, users, |i, j| {
        let mut s = 0.0;
        for r in 0..rbs {
            s += w[i][r] * w[j][r];
        }
        s / rbs.max(1) as f64
    })
}

/// Assembles the relaxation QP for one request given its weights, Gram
/// matrix and uncertainty margin. Variables `x[u·rbs + r] ∈ [0, 1]` relax
/// the block-ownership indicators; per block the coupling is
/// `alpha·C + I` (block-diagonal in `r`, so `P` is PSD), the linear term
/// rewards margin-discounted gain, and one constraint row per block caps
/// the block's total mass at 1.
fn assemble_qp(
    w: &[Vec<f64>],
    rbs: usize,
    margin: f64,
    gram_c: &Matrix,
) -> Result<QpProblem, QosError> {
    let n = w.len() * rbs;
    let p = Matrix::from_fn(n, n, |row, col| {
        let (u, r) = (row / rbs, row % rbs);
        let (v, r2) = (col / rbs, col % rbs);
        if r != r2 {
            return 0.0;
        }
        ROBUST_ALPHA * gram_c[(u, v)] + if u == v { 1.0 } else { 0.0 }
    });
    let q: Vec<f64> = (0..n).map(|i| -(w[i / rbs][i % rbs] - margin)).collect();
    // Rows 0..n: box 0 <= x <= 1. Rows n..n+rbs: per-block mass <= 1.
    let m = n + rbs;
    let a = Matrix::from_fn(m, n, |row, col| {
        if row < n {
            return if row == col { 1.0 } else { 0.0 };
        }
        if col % rbs == row - n {
            1.0
        } else {
            0.0
        }
    });
    QpProblem::new(p, q, a, vec![0.0; m], vec![1.0; m])
        .map_err(|e| QosError::Solver(format!("robust QP assembly: {e}")))
}

/// Uncertainty margin from the Gram spectrum: `beta·sqrt(range/users)`
/// where `range` is the spectral spread `λ_max − λ_min`.
fn margin_from_spectrum(vals: &[f64], users: usize) -> f64 {
    match (vals.first(), vals.last()) {
        (Some(lo), Some(hi)) => ROBUST_BETA * (((hi - lo).max(0.0)) / users.max(1) as f64).sqrt(),
        _ => 0.0,
    }
}

/// Solves the robust relaxation of `problem`, rounds the relaxed
/// assignment per block, and repairs minimum rates.
///
/// # Errors
/// * [`QosError::Solver`] when the Gram eigendecomposition, the QP
///   assembly or the QP solve fails.
/// * [`QosError::InvalidParameter`] when the problem has no users.
/// * Evaluation errors from the rounded assignment.
pub fn solve_robust(problem: &RraProblem) -> Result<RraSolution, QosError> {
    let users = problem.users();
    let rbs = problem.resource_blocks();
    let w = weights(problem);
    let gram_c = gram(&w, rbs);
    let eig = SymmetricEigen::new(&gram_c)
        .map_err(|e| QosError::Solver(format!("gram eigendecomposition: {e}")))?;
    let margin = margin_from_spectrum(eig.eigenvalues(), users);
    let qp = assemble_qp(&w, rbs, margin, &gram_c)?;
    // Path-qualified: a bare `.solve(` would resolve by name in the
    // workspace lint's call graph and pick the wrong `solve`.
    let sol: QpSolution = QpProblem::solve(&qp, &robust_qp_settings())
        .map_err(|e| QosError::Solver(format!("robust QP solve: {e}")))?;
    // Round: each block goes to the user holding the most relaxed mass on
    // it. total_cmp so NaN (corrupt input) claims deterministically and
    // surfaces in evaluate() instead of panicking here.
    let mut owners = Vec::with_capacity(rbs);
    for r in 0..rbs {
        let owner = (0..users)
            .max_by(|&a, &b| sol.x[a * rbs + r].total_cmp(&sol.x[b * rbs + r]))
            .ok_or_else(|| QosError::InvalidParameter("problem has no users".into()))?;
        owners.push(owner);
    }
    let best = problem.evaluate(&owners)?;
    repair_min_rates(problem, &mut owners, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Channel, ChannelConfig};
    use crate::rra::solve_greedy;

    fn problem(users: usize, rbs: usize, seed: u64, min_rate: f64) -> RraProblem {
        let ch = Channel::generate(&ChannelConfig::default(), users, rbs, seed).unwrap();
        RraProblem::new(ch, 1e-12, 1.0, 180e3, vec![min_rate; users]).unwrap()
    }

    #[test]
    fn robust_solve_produces_valid_assignment() {
        let p = problem(4, 12, 11, 1e5);
        let sol = solve_robust(&p).unwrap();
        assert_eq!(sol.owners.len(), 12);
        assert!(sol.owners.iter().all(|&u| u < 4));
        assert!(sol.total_rate_bps > 0.0);
    }

    #[test]
    fn robust_answers_are_pinned_bit_for_bit() {
        // Any change to the Gram, margin, QP or rounding arithmetic shows
        // up here as a changed owner or rate bit.
        let pin = |p: RraProblem, owners: &[usize], rate_bits: u64| {
            let sol = solve_robust(&p).unwrap();
            assert_eq!(sol.owners, owners);
            assert_eq!(sol.total_rate_bps.to_bits(), rate_bits);
        };
        pin(
            problem(4, 12, 11, 1e5),
            &[3, 3, 0, 0, 1, 0, 3, 3, 2, 3, 2, 3],
            0x4142_f398_55b3_9031,
        );
        pin(
            problem(3, 8, 100, 5e4),
            &[0, 2, 2, 0, 2, 1, 0, 2],
            0x4136_e526_c5fa_82f4,
        );
        pin(
            problem(4, 16, 42, 1e4),
            &[1, 1, 1, 1, 0, 1, 1, 3, 2, 0, 1, 1, 1, 1, 3, 1],
            0x414b_85f1_7a66_f6c8,
        );
    }

    #[test]
    fn robust_stays_close_to_greedy_on_benign_channels() {
        // The margin discount must not wreck nominal performance: on a
        // well-conditioned channel the robust assignment's total rate stays
        // within a constant factor of greedy's.
        let p = problem(4, 16, 42, 1e4);
        let greedy = solve_greedy(&p).unwrap();
        let robust = solve_robust(&p).unwrap();
        assert!(
            robust.total_rate_bps > 0.25 * greedy.total_rate_bps,
            "robust {} vs greedy {}",
            robust.total_rate_bps,
            greedy.total_rate_bps
        );
    }
}
