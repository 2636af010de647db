//! An OSQP-style ADMM solver for convex quadratic programs.
//!
//! Standard form:
//!
//! ```text
//! minimize   ½ xᵀ P x + qᵀ x
//! subject to l ≤ A x ≤ u
//! ```
//!
//! with `P ⪰ 0`. Equality constraints are rows with `l_i = u_i`; one-sided
//! constraints use ±[`QP_INF`]. The splitting, residuals and stopping rule
//! follow the OSQP paper (Stellato et al.), scaled down: the KKT matrix is
//! factorized once by Cholesky and reused every iteration.

use crate::ConvexError;
use rcr_linalg::{vector, Cholesky, Matrix};

/// The "infinity" bound understood by the QP solver.
pub const QP_INF: f64 = 1e30;

/// Convergence is checked every iteration this early in the run, because
/// warm-started solves routinely finish in a handful of iterations; past
/// the window the check falls back to every 10 iterations to save the
/// residual matvecs on long cold solves.
const EARLY_CHECK_WINDOW: usize = 32;

/// A warm-start seed for the ADMM iteration: the primal iterate `x`, the
/// constraint duals `y` and the auxiliary (projected) variable `z` of a
/// previous solve of a nearby problem. Seeding from the previous solution
/// of a drifting instance typically cuts the iteration count from
/// hundreds to single digits.
#[derive(Debug, Clone)]
pub struct QpWarmStart {
    /// Primal seed (length `n`).
    pub x: Vec<f64>,
    /// Dual seed (length `m`).
    pub y: Vec<f64>,
    /// Auxiliary-variable seed (length `m`); usually the projected `A x`
    /// of the previous solution.
    pub z: Vec<f64>,
}

impl QpWarmStart {
    /// Builds a warm start from a previous [`QpSolution`] of a problem
    /// with the same shape, reconstructing `z` as the projection of the
    /// cached `A x` onto the new bounds.
    pub fn from_solution(problem: &QpProblem, sol: &QpSolution) -> Result<Self, ConvexError> {
        let ax = problem.a.matvec(&sol.x)?;
        let z = ax
            .iter()
            .zip(problem.l.iter().zip(&problem.u))
            .map(|(v, (lo, hi))| v.clamp(*lo, *hi))
            .collect();
        Ok(QpWarmStart {
            x: sol.x.clone(),
            y: sol.y.clone(),
            z,
        })
    }
}

/// Solver settings.
#[derive(Debug, Clone)]
pub struct QpSettings {
    /// ADMM penalty parameter ρ.
    pub rho: f64,
    /// Regularization parameter σ added to `P`.
    pub sigma: f64,
    /// Over-relaxation parameter α ∈ (0, 2).
    pub alpha: f64,
    /// Maximum ADMM iterations.
    pub max_iter: usize,
    /// Absolute tolerance for primal/dual residuals.
    pub eps_abs: f64,
    /// Relative tolerance for primal/dual residuals.
    pub eps_rel: f64,
}

impl Default for QpSettings {
    fn default() -> Self {
        QpSettings {
            rho: 0.1,
            sigma: 1e-6,
            alpha: 1.6,
            max_iter: 20_000,
            eps_abs: 1e-7,
            eps_rel: 1e-7,
        }
    }
}

/// Solution of a QP.
#[derive(Debug, Clone)]
pub struct QpSolution {
    /// Primal solution.
    pub x: Vec<f64>,
    /// Dual variables for the constraint rows.
    pub y: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// ADMM iterations used.
    pub iterations: usize,
    /// Final primal residual `‖Ax − z‖∞`.
    pub primal_residual: f64,
    /// Final dual residual `‖Px + q + Aᵀy‖∞`.
    pub dual_residual: f64,
}

/// A convex QP in OSQP standard form.
#[derive(Debug, Clone)]
pub struct QpProblem {
    p: Matrix,
    q: Vec<f64>,
    a: Matrix,
    l: Vec<f64>,
    u: Vec<f64>,
}

impl QpProblem {
    /// Builds a problem, validating shapes, bound ordering and symmetry of
    /// `P` (PSD-ness is certified later, cheaply, by the KKT Cholesky).
    ///
    /// # Errors
    /// * [`ConvexError::DimensionMismatch`] on inconsistent sizes.
    /// * [`ConvexError::InvalidParameter`] when some `l_i > u_i`.
    /// * [`ConvexError::NotFinite`] for NaN entries (±[`QP_INF`] is fine).
    /// * [`ConvexError::NotConvex`] when `P` is visibly asymmetric.
    pub fn new(
        p: Matrix,
        q: Vec<f64>,
        a: Matrix,
        l: Vec<f64>,
        u: Vec<f64>,
    ) -> Result<Self, ConvexError> {
        let n = q.len();
        let m = l.len();
        if p.shape() != (n, n) {
            return Err(ConvexError::DimensionMismatch(format!(
                "P is {:?}, expected {n}x{n}",
                p.shape()
            )));
        }
        if a.shape() != (m, n) {
            return Err(ConvexError::DimensionMismatch(format!(
                "A is {:?}, expected {m}x{n}",
                a.shape()
            )));
        }
        if u.len() != m {
            return Err(ConvexError::DimensionMismatch(format!(
                "u has {} entries, expected {m}",
                u.len()
            )));
        }
        if !p.is_finite() || !a.is_finite() || q.iter().any(|v| v.is_nan()) {
            return Err(ConvexError::NotFinite);
        }
        if l.iter().any(|v| v.is_nan()) || u.iter().any(|v| v.is_nan()) {
            return Err(ConvexError::NotFinite);
        }
        if l.iter().zip(&u).any(|(lo, hi)| lo > hi) {
            return Err(ConvexError::InvalidParameter("some l_i > u_i".into()));
        }
        if !p.is_symmetric(1e-8 * p.max_abs().max(1.0)) {
            return Err(ConvexError::NotConvex("P must be symmetric".into()));
        }
        Ok(QpProblem { p, q, a, l, u })
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.q.len()
    }

    // Internal accessors for the warm-start layer (fingerprinting needs
    // to read the raw data without widening the public API).
    pub(crate) fn p(&self) -> &Matrix {
        &self.p
    }
    pub(crate) fn q(&self) -> &[f64] {
        &self.q
    }
    pub(crate) fn a(&self) -> &Matrix {
        &self.a
    }
    pub(crate) fn l(&self) -> &[f64] {
        &self.l
    }
    pub(crate) fn u(&self) -> &[f64] {
        &self.u
    }

    /// Number of constraint rows.
    pub fn num_constraints(&self) -> usize {
        self.l.len()
    }

    /// Objective value `½xᵀPx + qᵀx`.
    pub fn objective(&self, x: &[f64]) -> f64 {
        0.5 * self.p.quadratic_form(x).unwrap_or(f64::NAN) + vector::dot(&self.q, x)
    }

    /// Solves the QP by ADMM from a cold (all-zero) start.
    ///
    /// # Errors
    /// * [`ConvexError::NotConvex`] when the regularized KKT matrix is not
    ///   positive definite (indefinite `P`).
    /// * [`ConvexError::NonConvergence`] when the iteration budget runs out.
    pub fn solve(&self, settings: &QpSettings) -> Result<QpSolution, ConvexError> {
        self.solve_with(settings, None, None)
    }

    /// Assembles the condensed KKT matrix `P + σI + ρAᵀA` without
    /// factorizing it — the matrix every solve factors once. Public so
    /// callers can inspect or time the KKT system on its own.
    ///
    /// # Errors
    /// [`ConvexError::DimensionMismatch`] if `AᵀA` cannot be formed (not
    /// reachable for a validated problem).
    pub fn kkt_matrix(&self, rho: f64, sigma: f64) -> Result<Matrix, ConvexError> {
        let n = self.num_vars();
        let ata = self.a.transpose().matmul(&self.a)?;
        let mut kkt = &self.p + &(&ata * rho);
        for i in 0..n {
            kkt[(i, i)] += sigma;
        }
        Ok(kkt)
    }

    /// Factorizes the condensed KKT matrix `P + σI + ρAᵀA` for the given
    /// penalty parameters. The factor can be passed back to
    /// [`QpProblem::solve_with`] to skip refactorization, and is what the
    /// warm-start cache stores per fingerprint.
    pub(crate) fn kkt_factor(&self, rho: f64, sigma: f64) -> Result<Cholesky, ConvexError> {
        let kkt = self.kkt_matrix(rho, sigma)?;
        Cholesky::new(&kkt)
            .map_err(|_| ConvexError::NotConvex("P + σI + ρAᵀA is not positive definite".into()))
    }

    /// The full-control solve: optional warm start and optional
    /// pre-computed KKT factorization. `factor`, when given, must factor
    /// `P + σI + ρAᵀA` for exactly this problem's `(P, A)` and the
    /// settings' `(rho, sigma)` — the warm cache enforces that by keying
    /// factors on a bit-exact hash.
    pub(crate) fn solve_with(
        &self,
        settings: &QpSettings,
        warm: Option<&QpWarmStart>,
        factor: Option<&Cholesky>,
    ) -> Result<QpSolution, ConvexError> {
        let n = self.num_vars();
        let m = self.num_constraints();
        let rho = settings.rho;
        let sigma = settings.sigma;
        let alpha = settings.alpha;
        // Negated so NaN parameters fail validation too.
        if !(rho > 0.0 && sigma >= 0.0 && alpha > 0.0 && alpha < 2.0) {
            return Err(ConvexError::InvalidParameter(
                "need rho > 0, sigma >= 0, 0 < alpha < 2".into(),
            ));
        }
        if let Some(w) = warm {
            if w.x.len() != n || w.y.len() != m || w.z.len() != m {
                return Err(ConvexError::DimensionMismatch(format!(
                    "warm start has lengths ({}, {}, {}), expected ({n}, {m}, {m})",
                    w.x.len(),
                    w.y.len(),
                    w.z.len()
                )));
            }
            let finite = |v: &[f64]| v.iter().all(|x| x.is_finite());
            if !finite(&w.x) || !finite(&w.y) || !finite(&w.z) {
                return Err(ConvexError::NotFinite);
            }
        }

        // KKT matrix: P + σI + ρ AᵀA (condensed form), factorized once —
        // or reused from a previous solve when the caller certifies it.
        let owned;
        let chol = match factor {
            Some(f) => f,
            None => {
                owned = self.kkt_factor(rho, sigma)?;
                &owned
            }
        };

        let (mut x, mut z, mut y) = match warm {
            Some(w) => (w.x.clone(), w.z.clone(), w.y.clone()),
            None => (vec![0.0; n], vec![0.0; m], vec![0.0; m]),
        };

        // Per-iteration workspaces, hoisted so the ADMM loop allocates
        // nothing in steady state. Every buffer is fully overwritten before
        // use each iteration, so reuse cannot change any computed value.
        let mut rhs = vec![0.0; n];
        let mut w = vec![0.0; m];
        let mut atw = vec![0.0; n];
        let mut x_new = vec![0.0; n];
        let mut chol_work = vec![0.0; n];
        let mut ax = vec![0.0; m];
        let mut z_new = vec![0.0; m];
        let mut px = vec![0.0; n];
        let mut aty = vec![0.0; n];
        let mut d = vec![0.0; n];

        let mut primal_res = f64::INFINITY;
        let mut dual_res = f64::INFINITY;
        for iter in 0..settings.max_iter {
            // x-update: solve (P+σI+ρAᵀA)x = σx - q + Aᵀ(ρz - y).
            for i in 0..n {
                rhs[i] = sigma * x[i] - self.q[i];
            }
            for i in 0..m {
                w[i] = rho * z[i] - y[i];
            }
            self.a.matvec_t_into(&w, &mut atw)?;
            for i in 0..n {
                rhs[i] += atw[i];
            }
            chol.solve_into(&rhs, &mut chol_work, &mut x_new)?;

            // Over-relaxed z-update with projection onto [l, u].
            self.a.matvec_into(&x_new, &mut ax)?;
            for i in 0..m {
                let v = alpha * ax[i] + (1.0 - alpha) * z[i] + y[i] / rho;
                z_new[i] = v.clamp(self.l[i], self.u[i]);
            }
            // Dual update.
            for i in 0..m {
                y[i] += rho * (alpha * ax[i] + (1.0 - alpha) * z[i] - z_new[i]);
            }
            std::mem::swap(&mut x, &mut x_new);
            std::mem::swap(&mut z, &mut z_new);

            // Residuals: every iteration inside the early window (where
            // warm-started solves converge), then every 10 iterations to
            // save work, and always on the final iteration so the
            // non-convergence report reflects a performed check. `ax`
            // still holds A·x for the just-accepted iterate, so it is not
            // recomputed.
            if iter < EARLY_CHECK_WINDOW || iter % 10 == 0 || iter + 1 == settings.max_iter {
                primal_res = rcr_kernels::norm_inf_diff(&ax, &z);
                self.p.matvec_into(&x, &mut px)?;
                self.a.matvec_t_into(&y, &mut aty)?;
                for i in 0..n {
                    d[i] = px[i] + self.q[i] + aty[i];
                }
                dual_res = vector::norm_inf(&d);
                let eps_pri = settings.eps_abs
                    + settings.eps_rel * vector::norm_inf(&ax).max(vector::norm_inf(&z));
                let eps_dua = settings.eps_abs
                    + settings.eps_rel
                        * vector::norm_inf(&px)
                            .max(vector::norm_inf(&aty))
                            .max(vector::norm_inf(&self.q));
                if primal_res <= eps_pri && dual_res <= eps_dua {
                    return Ok(QpSolution {
                        objective: self.objective(&x),
                        x,
                        y,
                        iterations: iter + 1,
                        primal_residual: primal_res,
                        dual_residual: dual_res,
                    });
                }
            }
        }
        Err(ConvexError::NonConvergence {
            iterations: settings.max_iter,
            residual: primal_res.max(dual_res),
        })
    }
}

/// Convenience: box-constrained QP `min ½xᵀPx + qᵀx, lo ≤ x ≤ hi`.
///
/// # Errors
/// Same as [`QpProblem::new`] / [`QpProblem::solve`].
pub fn solve_box_qp(
    p: Matrix,
    q: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    settings: &QpSettings,
) -> Result<QpSolution, ConvexError> {
    let n = q.len();
    QpProblem::new(p, q, Matrix::identity(n), lo, hi)?.solve(settings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings() -> QpSettings {
        QpSettings::default()
    }

    #[test]
    fn unconstrained_minimum_inside_box() {
        // min ½‖x - c‖² with generous box: solution is c.
        let c = [0.3, -0.2];
        let sol = solve_box_qp(
            Matrix::identity(2),
            vec![-c[0], -c[1]],
            vec![-10.0, -10.0],
            vec![10.0, 10.0],
            &settings(),
        )
        .unwrap();
        assert!((sol.x[0] - c[0]).abs() < 1e-5);
        assert!((sol.x[1] - c[1]).abs() < 1e-5);
    }

    #[test]
    fn active_box_constraint() {
        // min ½‖x - (2,2)‖² s.t. x ≤ 1: solution clamps to (1,1).
        let sol = solve_box_qp(
            Matrix::identity(2),
            vec![-2.0, -2.0],
            vec![-QP_INF, -QP_INF],
            vec![1.0, 1.0],
            &settings(),
        )
        .unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-5);
        assert!((sol.x[1] - 1.0).abs() < 1e-5);
        // Dual variables at the active constraints are positive.
        assert!(sol.y[0] > 0.5 && sol.y[1] > 0.5);
    }

    #[test]
    fn equality_constraint_via_tight_bounds() {
        // min ½(x₁² + x₂²) s.t. x₁ + x₂ = 1 → x = (0.5, 0.5).
        let a = Matrix::from_rows(&[&[1.0, 1.0]]).unwrap();
        let prob =
            QpProblem::new(Matrix::identity(2), vec![0.0, 0.0], a, vec![1.0], vec![1.0]).unwrap();
        let sol = prob.solve(&settings()).unwrap();
        assert!((sol.x[0] - 0.5).abs() < 1e-5);
        assert!((sol.x[1] - 0.5).abs() < 1e-5);
        assert!((sol.objective - 0.25).abs() < 1e-5);
    }

    #[test]
    fn known_kkt_solution() {
        // Boyd & Vandenberghe-style 2-var QP with one inequality active:
        // min ½xᵀ[[2,0],[0,2]]x + [-2,-5]ᵀx s.t. x₁ ≥ 0, x₂ ≥ 0, x₁+x₂ ≤ 2.
        // Unconstrained opt = (1, 2.5), constraint x₁+x₂ ≤ 2 is active.
        let p = Matrix::from_diag(&[2.0, 2.0]);
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let prob = QpProblem::new(
            p,
            vec![-2.0, -5.0],
            a,
            vec![0.0, 0.0, -QP_INF],
            vec![QP_INF, QP_INF, 2.0],
        )
        .unwrap();
        let sol = prob.solve(&settings()).unwrap();
        // KKT: x₁ = x* with λ for sum constraint: x = (0.25, 1.75).
        assert!((sol.x[0] - 0.25).abs() < 1e-4, "{:?}", sol.x);
        assert!((sol.x[1] - 1.75).abs() < 1e-4, "{:?}", sol.x);
    }

    #[test]
    fn psd_but_singular_p_is_accepted() {
        // P = [[1,0],[0,0]] is PSD (not PD); σ regularization handles it.
        let p = Matrix::from_diag(&[1.0, 0.0]);
        let sol = solve_box_qp(
            p,
            vec![0.0, 1.0],
            vec![-1.0, -1.0],
            vec![1.0, 1.0],
            &settings(),
        )
        .unwrap();
        // x₂ has linear objective coefficient 1 → slides to its lower bound.
        assert!((sol.x[1] + 1.0).abs() < 1e-4);
    }

    #[test]
    fn validation_errors() {
        let p = Matrix::identity(2);
        let a = Matrix::identity(2);
        // wrong P shape
        assert!(QpProblem::new(
            Matrix::identity(3),
            vec![0.0; 2],
            a.clone(),
            vec![0.0; 2],
            vec![1.0; 2]
        )
        .is_err());
        // l > u
        assert!(QpProblem::new(
            p.clone(),
            vec![0.0; 2],
            a.clone(),
            vec![2.0, 0.0],
            vec![1.0, 1.0]
        )
        .is_err());
        // NaN
        assert!(QpProblem::new(
            p.clone(),
            vec![f64::NAN, 0.0],
            a.clone(),
            vec![0.0; 2],
            vec![1.0; 2]
        )
        .is_err());
        // asymmetric P
        let bad = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]).unwrap();
        assert!(QpProblem::new(bad, vec![0.0; 2], a, vec![0.0; 2], vec![1.0; 2]).is_err());
    }

    #[test]
    fn indefinite_p_rejected_at_solve() {
        let p = Matrix::from_diag(&[1.0, -5.0]);
        let prob = QpProblem::new(
            p,
            vec![0.0, 0.0],
            Matrix::identity(2),
            vec![-1.0, -1.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        // -5 on the diagonal defeats ρAᵀA + σ for default settings.
        assert!(matches!(
            prob.solve(&settings()),
            Err(ConvexError::NotConvex(_))
        ));
    }

    #[test]
    fn invalid_settings_rejected() {
        let prob = QpProblem::new(
            Matrix::identity(1),
            vec![0.0],
            Matrix::identity(1),
            vec![0.0],
            vec![1.0],
        )
        .unwrap();
        let mut s = settings();
        s.alpha = 2.5;
        assert!(prob.solve(&s).is_err());
    }

    /// A modest strictly-convex QP with coupled variables and an active
    /// constraint, used by the cadence/warm-start tests below.
    fn coupled_qp() -> QpProblem {
        let n = 6;
        let p = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                4.0
            } else if i.abs_diff(j) == 1 {
                1.0
            } else {
                0.0
            }
        });
        let q: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.9).cos() - 0.5).collect();
        let a = Matrix::identity(n);
        QpProblem::new(p, q, a, vec![-0.2; n], vec![0.2; n]).unwrap()
    }

    #[test]
    fn convergence_checked_every_iteration_in_early_window() {
        // Regression test for the residual-check cadence: the old code only
        // checked when `iter % 10 == 0`, so reported iteration counts could
        // only be ≡ 1 (mod 10) or max_iter. A solve warm-started from a
        // slightly perturbed solution converges inside (1, 11) exclusive —
        // counts the old cadence could never report.
        let prob = coupled_qp();
        let settings = settings();
        let cold = prob.solve(&settings).unwrap();
        let mut warm = QpWarmStart::from_solution(&prob, &cold).unwrap();
        // Perturb the dual seed: dual error contracts slowly (~0.93/iter
        // here), so a 1e-7 nudge needs a handful of iterations — inside
        // the every-iteration window, past the iter-0 check.
        for (i, v) in warm.y.iter_mut().enumerate() {
            *v += 1e-7 * ((i as f64) + 1.0).sin();
        }
        let sol = prob.solve_with(&settings, Some(&warm), None).unwrap();
        assert!(
            sol.iterations > 1 && sol.iterations < 11,
            "warm solve took {} iterations; the every-iteration early window \
             should land strictly between the old cadence's only possible \
             reports (1, 11, 21, ...)",
            sol.iterations
        );
        assert!((sol.objective - cold.objective).abs() < 1e-6);
    }

    #[test]
    fn nonconvergence_reports_residual_from_a_performed_check() {
        // With a tiny iteration budget the final iteration always performs
        // a check, so the reported residual must be finite (not the
        // initial +inf placeholder).
        let prob = coupled_qp();
        let mut s = settings();
        s.max_iter = 3;
        s.eps_abs = 1e-16;
        s.eps_rel = 1e-16;
        match prob.solve(&s) {
            Err(ConvexError::NonConvergence {
                iterations,
                residual,
            }) => {
                assert_eq!(iterations, 3);
                assert!(residual.is_finite(), "residual {residual} not finite");
                assert!(residual > 0.0);
            }
            other => panic!("expected NonConvergence, got {other:?}"),
        }
    }

    #[test]
    fn warm_start_validation() {
        let prob = coupled_qp();
        let s = settings();
        let bad_len = QpWarmStart {
            x: vec![0.0; 2],
            y: vec![0.0; 6],
            z: vec![0.0; 6],
        };
        assert!(matches!(
            prob.solve_with(&s, Some(&bad_len), None),
            Err(ConvexError::DimensionMismatch(_))
        ));
        let bad_nan = QpWarmStart {
            x: vec![f64::NAN; 6],
            y: vec![0.0; 6],
            z: vec![0.0; 6],
        };
        assert!(matches!(
            prob.solve_with(&s, Some(&bad_nan), None),
            Err(ConvexError::NotFinite)
        ));
    }

    #[test]
    fn warm_start_matches_cold_objective() {
        let prob = coupled_qp();
        let s = settings();
        let cold = prob.solve(&s).unwrap();
        let warm = QpWarmStart::from_solution(&prob, &cold).unwrap();
        let sol = prob.solve_with(&s, Some(&warm), None).unwrap();
        assert!(sol.iterations <= cold.iterations);
        assert!((sol.objective - cold.objective).abs() < 1e-6);
    }

    #[test]
    fn reused_factor_matches_fresh_solve() {
        let prob = coupled_qp();
        let s = settings();
        let factor = prob.kkt_factor(s.rho, s.sigma).unwrap();
        let with_factor = prob.solve_with(&s, None, Some(&factor)).unwrap();
        let fresh = prob.solve(&s).unwrap();
        // Same factorization, same arithmetic: bit-identical iterates.
        assert_eq!(with_factor.iterations, fresh.iterations);
        assert_eq!(with_factor.x, fresh.x);
        assert_eq!(with_factor.y, fresh.y);
    }

    #[test]
    fn larger_random_like_qp_matches_projection() {
        // min ½‖x − c‖² over the box [0,1]^8: answer is clamp(c).
        let n = 8;
        let c: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() * 1.5).collect();
        let q: Vec<f64> = c.iter().map(|v| -v).collect();
        let sol = solve_box_qp(
            Matrix::identity(n),
            q,
            vec![0.0; n],
            vec![1.0; n],
            &settings(),
        )
        .unwrap();
        for (xi, ci) in sol.x.iter().zip(&c) {
            assert!((xi - ci.clamp(0.0, 1.0)).abs() < 1e-5);
        }
    }
}
