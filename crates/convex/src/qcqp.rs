//! A log-barrier interior-point solver for the convex QCQP of Eq. 7:
//!
//! ```text
//! minimize   ½ xᵀ P₀ x + q₀ᵀ x + r₀
//! subject to ½ xᵀ Pᵢ x + qᵢᵀ x + rᵢ ≤ 0,  i = 1..m
//!            A x = b
//! ```
//!
//! The paper's "two envelopes" gate is enforced literally: each `P_i` must
//! be positive semidefinite (`P_i ∈ S₊ⁿ`), otherwise construction fails
//! with [`ConvexError::NotConvex`] — that problem belongs to the
//! relaxation pipeline ([`crate::rankmin`]), not to this solver.
//!
//! The implementation is the textbook barrier method: an outer loop scales
//! the barrier parameter `t` by `mu`, an inner (feasible-start, equality-
//! constrained) Newton iteration solves each centering problem, and a
//! phase-I pass manufactures the strictly feasible start when the caller
//! has none.

use crate::ConvexError;
use rcr_linalg::{vector, Matrix};

/// A quadratic form `½ xᵀ P x + qᵀ x + r`.
#[derive(Debug, Clone)]
pub struct QuadraticForm {
    /// Symmetric matrix `P`.
    pub p: Matrix,
    /// Linear coefficient `q`.
    pub q: Vec<f64>,
    /// Constant offset `r`.
    pub r: f64,
}

impl QuadraticForm {
    /// Builds a form, validating shape, symmetry and finiteness.
    ///
    /// # Errors
    /// * [`ConvexError::DimensionMismatch`] / [`ConvexError::NotFinite`] on
    ///   malformed data.
    pub fn new(p: Matrix, q: Vec<f64>, r: f64) -> Result<Self, ConvexError> {
        let n = q.len();
        if p.shape() != (n, n) {
            return Err(ConvexError::DimensionMismatch(format!(
                "P is {:?}, expected {n}x{n}",
                p.shape()
            )));
        }
        if !p.is_finite() || !vector::is_finite(&q) || !r.is_finite() {
            return Err(ConvexError::NotFinite);
        }
        if !p.is_symmetric(1e-8 * p.max_abs().max(1.0)) {
            return Err(ConvexError::NotConvex("P must be symmetric".into()));
        }
        Ok(QuadraticForm { p, q, r })
    }

    /// A purely linear form `qᵀx + r`.
    pub fn linear(q: Vec<f64>, r: f64) -> Self {
        let n = q.len();
        QuadraticForm {
            p: Matrix::zeros(n, n),
            q,
            r,
        }
    }

    /// Number of variables.
    pub fn dim(&self) -> usize {
        self.q.len()
    }

    /// Evaluates the form at `x`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        0.5 * self.p.quadratic_form(x).unwrap_or(f64::NAN) + vector::dot(&self.q, x) + self.r
    }

    /// Gradient `P x + q`.
    pub fn grad(&self, x: &[f64]) -> Vec<f64> {
        let mut g = self.p.matvec(x).unwrap_or_else(|_| vec![f64::NAN; x.len()]);
        vector::axpy(1.0, &self.q, &mut g);
        g
    }

    /// True when `P ⪰ 0` (up to tolerance) — the Eq. 7 convexity test.
    pub fn is_convex(&self, tol: f64) -> bool {
        match self.p.min_eigenvalue() {
            Ok(min) => min >= -tol,
            Err(_) => false,
        }
    }
}

/// Solver settings for the barrier method.
#[derive(Debug, Clone)]
pub struct QcqpSettings {
    /// Initial barrier parameter.
    pub t0: f64,
    /// Barrier multiplier per outer iteration.
    pub mu: f64,
    /// Target duality-gap bound `m / t`.
    pub tol: f64,
    /// Newton iterations per centering step.
    pub max_newton: usize,
    /// Maximum outer (centering) steps.
    pub max_outer: usize,
}

impl Default for QcqpSettings {
    fn default() -> Self {
        QcqpSettings {
            t0: 1.0,
            mu: 20.0,
            tol: 1e-8,
            max_newton: 80,
            max_outer: 60,
        }
    }
}

/// Solution of a QCQP.
#[derive(Debug, Clone)]
pub struct QcqpSolution {
    /// Primal solution.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// Upper bound on the duality gap (`m / t_final`).
    pub gap_bound: f64,
    /// Total Newton iterations across all centering steps.
    pub newton_iterations: usize,
}

/// A convex QCQP (Eq. 7).
#[derive(Debug, Clone)]
pub struct QcqpProblem {
    objective: QuadraticForm,
    constraints: Vec<QuadraticForm>,
    equality: Option<(Matrix, Vec<f64>)>,
}

/// PSD tolerance used by the convexity gate.
const PSD_TOL: f64 = 1e-8;

impl QcqpProblem {
    /// Builds a QCQP, enforcing the Eq. 7 convexity conditions on the
    /// objective and every constraint.
    ///
    /// # Errors
    /// * [`ConvexError::NotConvex`] when any `P_i` has a negative
    ///   eigenvalue beyond tolerance.
    /// * [`ConvexError::DimensionMismatch`] on inconsistent dimensions.
    pub fn new(
        objective: QuadraticForm,
        constraints: Vec<QuadraticForm>,
        equality: Option<(Matrix, Vec<f64>)>,
    ) -> Result<Self, ConvexError> {
        let n = objective.dim();
        if !objective.is_convex(PSD_TOL * objective.p.max_abs().max(1.0)) {
            return Err(ConvexError::NotConvex("objective P₀ is indefinite".into()));
        }
        for (i, c) in constraints.iter().enumerate() {
            if c.dim() != n {
                return Err(ConvexError::DimensionMismatch(format!(
                    "constraint {i} has dim {}, expected {n}",
                    c.dim()
                )));
            }
            if !c.is_convex(PSD_TOL * c.p.max_abs().max(1.0)) {
                return Err(ConvexError::NotConvex(format!(
                    "constraint {i} P is indefinite"
                )));
            }
        }
        if let Some((a, b)) = &equality {
            if a.cols() != n || a.rows() != b.len() {
                return Err(ConvexError::DimensionMismatch(format!(
                    "equality system is {:?} with rhs {}",
                    a.shape(),
                    b.len()
                )));
            }
            if !a.is_finite() || !vector::is_finite(b) {
                return Err(ConvexError::NotFinite);
            }
        }
        Ok(QcqpProblem {
            objective,
            constraints,
            equality,
        })
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.dim()
    }

    /// Number of inequality constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Maximum constraint violation at `x` (≤ 0 means feasible).
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let ineq = self
            .constraints
            .iter()
            .map(|c| c.eval(x))
            .fold(f64::NEG_INFINITY, f64::max);
        let eq = match &self.equality {
            Some((a, b)) => {
                let ax = a.matvec(x).unwrap_or_else(|_| vec![f64::NAN; b.len()]);
                vector::norm_inf(&vector::sub(&ax, b))
            }
            None => 0.0,
        };
        ineq.max(eq)
    }

    /// Solves, manufacturing a strictly feasible start by the standard
    /// phase-I problem `min s  s.t. f_i(x) ≤ s, Ax = b`.
    ///
    /// # Errors
    /// * [`ConvexError::Infeasible`] when phase-I cannot drive `s` below 0.
    /// * Propagates barrier-method errors.
    pub fn solve(&self, settings: &QcqpSettings) -> Result<QcqpSolution, ConvexError> {
        let n = self.num_vars();
        // Starting x: satisfy Ax = b by least squares (or zero).
        let x_init = match &self.equality {
            Some((a, b)) => {
                if a.rows() >= a.cols() {
                    a.qr()?.solve_least_squares(b)?
                } else {
                    // Under-determined: minimum-norm solution via AᵀA on Aᵀ.
                    let at = a.transpose();
                    let aat = a.matmul(&at)?;
                    let w = aat.solve(b)?;
                    at.matvec(&w)?
                }
            }
            None => vec![0.0; n],
        };
        if self.constraints.iter().all(|c| c.eval(&x_init) < -1e-10) {
            return self.barrier(x_init, settings);
        }

        // Phase I over z = (x, s).
        let m = self.constraints.len();
        let mut phase1_cons = Vec::with_capacity(m);
        for c in &self.constraints {
            // f_i(x) - s ≤ 0 in the lifted space.
            let mut p = Matrix::zeros(n + 1, n + 1);
            p.set_block(0, 0, &c.p);
            let mut q = c.q.clone();
            q.push(-1.0);
            phase1_cons.push(QuadraticForm { p, q, r: c.r });
        }
        let mut obj_q = vec![0.0; n + 1];
        obj_q[n] = 1.0;
        let phase1_eq = self.equality.as_ref().map(|(a, b)| {
            let mut aw = Matrix::zeros(a.rows(), n + 1);
            aw.set_block(0, 0, a);
            (aw, b.clone())
        });
        let phase1 = QcqpProblem {
            objective: QuadraticForm::linear(obj_q, 0.0),
            constraints: phase1_cons,
            equality: phase1_eq,
        };
        let s0 = self
            .constraints
            .iter()
            .map(|c| c.eval(&x_init))
            .fold(f64::NEG_INFINITY, f64::max)
            + 1.0;
        let mut z0 = x_init;
        z0.push(s0);
        let p1 = phase1.barrier(z0, settings)?;
        let s_star = p1.x[n];
        if s_star >= -1e-10 {
            return Err(ConvexError::Infeasible);
        }
        let x0 = p1.x[..n].to_vec();
        self.barrier(x0, settings)
    }

    /// The barrier outer loop; `x` must be strictly feasible.
    fn barrier(
        &self,
        mut x: Vec<f64>,
        settings: &QcqpSettings,
    ) -> Result<QcqpSolution, ConvexError> {
        let m = self.constraints.len().max(1) as f64;
        let mut t = settings.t0;
        let mut total_newton = 0usize;
        for _outer in 0..settings.max_outer {
            let used = self.center(&mut x, t, settings)?;
            total_newton += used;
            if m / t < settings.tol {
                return Ok(QcqpSolution {
                    objective: self.objective.eval(&x),
                    gap_bound: m / t,
                    x,
                    newton_iterations: total_newton,
                });
            }
            t *= settings.mu;
        }
        Err(ConvexError::NonConvergence {
            iterations: total_newton,
            residual: m / t,
        })
    }

    /// Newton centering for fixed `t`; returns iterations used.
    fn center(
        &self,
        x: &mut Vec<f64>,
        t: f64,
        settings: &QcqpSettings,
    ) -> Result<usize, ConvexError> {
        let n = self.num_vars();
        let p_eq = self.equality.as_ref().map(|(a, _)| a.rows()).unwrap_or(0);
        // Work with the 1/t-scaled objective f₀ + φ/t so the KKT system
        // stays well-scaled as t grows (the unscaled t·f₀ + φ form drives
        // the equality-block Schur complement below pivot tolerance).
        let inv_t = 1.0 / t;
        for iter in 0..settings.max_newton {
            let mut grad = self.objective.grad(x);
            let mut hess = self.objective.p.clone();
            for c in &self.constraints {
                let fi = c.eval(x);
                debug_assert!(fi < 0.0, "Newton iterate left the interior");
                let gi = c.grad(x);
                let inv = -inv_t / fi; // (1/t)·1/(-f_i) > 0
                vector::axpy(inv, &gi, &mut grad);
                // Hessian: (1/t)(P_i/(-f_i) + g_i g_iᵀ / f_i²).
                let inv2 = inv * (-1.0 / fi);
                for r in 0..n {
                    for cidx in 0..n {
                        hess[(r, cidx)] += c.p[(r, cidx)] * inv + gi[r] * gi[cidx] * inv2;
                    }
                }
            }
            // Tiny Tikhonov term keeps the KKT system nonsingular when the
            // barrier Hessian is flat along some direction.
            for i in 0..n {
                hess[(i, i)] += 1e-10;
            }

            // KKT system for the equality-constrained Newton step.
            let (dx, _w) = if let Some((a, _)) = &self.equality {
                let mut kkt = Matrix::zeros(n + p_eq, n + p_eq);
                kkt.set_block(0, 0, &hess);
                kkt.set_block(n, 0, a);
                kkt.set_block(0, n, &a.transpose());
                let mut rhs = vec![0.0; n + p_eq];
                for i in 0..n {
                    rhs[i] = -grad[i];
                }
                let sol = kkt.solve(&rhs)?;
                (sol[..n].to_vec(), sol[n..].to_vec())
            } else {
                (hess.solve(&vector::scale(-1.0, &grad))?, Vec::new())
            };

            // Newton decrement.
            let lambda2 = -vector::dot(&grad, &dx);
            if lambda2 / 2.0 < 1e-12 {
                return Ok(iter);
            }

            // Backtracking: stay strictly feasible, then Armijo (in the
            // same 1/t scaling as the Newton system).
            let f0 = self.objective.eval(x) + inv_t * self.barrier_phi(x);
            let mut step = 1.0;
            let mut accepted = false;
            for _ in 0..60 {
                let cand: Vec<f64> = x.iter().zip(&dx).map(|(xi, di)| xi + step * di).collect();
                if self.constraints.iter().all(|c| c.eval(&cand) < 0.0) {
                    let fc = self.objective.eval(&cand) + inv_t * self.barrier_phi(&cand);
                    if fc <= f0 - 0.25 * step * lambda2 {
                        *x = cand;
                        accepted = true;
                        break;
                    }
                }
                step *= 0.5;
            }
            if !accepted {
                // Line search failed: already as centered as float allows.
                return Ok(iter + 1);
            }
        }
        Ok(settings.max_newton)
    }

    fn barrier_phi(&self, x: &[f64]) -> f64 {
        self.constraints.iter().map(|c| -(-c.eval(x)).ln()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ball_constraint(center: &[f64], radius: f64) -> QuadraticForm {
        // ½‖x − c‖² − ½r² ≤ 0  ⇔  ‖x − c‖ ≤ r.
        let n = center.len();
        let q: Vec<f64> = center.iter().map(|v| -v).collect();
        let r = 0.5 * vector::dot(center, center) - 0.5 * radius * radius;
        QuadraticForm {
            p: Matrix::identity(n),
            q,
            r,
        }
    }

    #[test]
    fn quadratic_form_eval_and_grad() {
        let f = QuadraticForm::new(Matrix::from_diag(&[2.0, 4.0]), vec![1.0, -1.0], 3.0).unwrap();
        assert_eq!(f.eval(&[1.0, 1.0]), 0.5 * 6.0 + 0.0 + 3.0);
        assert_eq!(f.grad(&[1.0, 1.0]), vec![3.0, 3.0]);
        assert!(f.is_convex(1e-10));
    }

    #[test]
    fn convexity_gate_rejects_indefinite_constraint() {
        let obj = QuadraticForm::new(Matrix::identity(2), vec![0.0; 2], 0.0).unwrap();
        let bad = QuadraticForm::new(Matrix::from_diag(&[1.0, -1.0]), vec![0.0; 2], -1.0).unwrap();
        assert!(matches!(
            QcqpProblem::new(obj, vec![bad], None),
            Err(ConvexError::NotConvex(_))
        ));
    }

    #[test]
    fn unconstrained_center_of_ball() {
        // min ½‖x − a‖² s.t. ‖x‖ ≤ 10, a inside: solution a.
        let a = [1.0, -2.0];
        let obj = QuadraticForm::new(Matrix::identity(2), vec![-a[0], -a[1]], 0.0).unwrap();
        let prob = QcqpProblem::new(obj, vec![ball_constraint(&[0.0, 0.0], 10.0)], None).unwrap();
        let sol = prob.solve(&QcqpSettings::default()).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-5, "{:?}", sol.x);
        assert!((sol.x[1] + 2.0).abs() < 1e-5, "{:?}", sol.x);
    }

    #[test]
    fn active_ball_constraint_projects_to_boundary() {
        // min ½‖x − (3,0)‖² s.t. ‖x‖ ≤ 1: solution (1, 0).
        let obj = QuadraticForm::new(Matrix::identity(2), vec![-3.0, 0.0], 0.0).unwrap();
        let prob = QcqpProblem::new(obj, vec![ball_constraint(&[0.0, 0.0], 1.0)], None).unwrap();
        let sol = prob.solve(&QcqpSettings::default()).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-4, "{:?}", sol.x);
        assert!(sol.x[1].abs() < 1e-4);
        assert!(sol.gap_bound < 1e-7);
    }

    #[test]
    fn equality_constrained_qcqp() {
        // min ½‖x‖² s.t. x₁ + x₂ = 2, ‖x‖ ≤ 10 → (1,1).
        let obj = QuadraticForm::new(Matrix::identity(2), vec![0.0, 0.0], 0.0).unwrap();
        let a = Matrix::from_rows(&[&[1.0, 1.0]]).unwrap();
        let prob = QcqpProblem::new(
            obj,
            vec![ball_constraint(&[0.0, 0.0], 10.0)],
            Some((a, vec![2.0])),
        )
        .unwrap();
        let sol = prob.solve(&QcqpSettings::default()).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-4, "{:?}", sol.x);
        assert!((sol.x[1] - 1.0).abs() < 1e-4, "{:?}", sol.x);
    }

    #[test]
    fn two_ball_intersection() {
        // Balls around (±1, 0) radius 1.5; minimize distance to (0, 5):
        // solution on the lens boundary, x₁ = 0 by symmetry.
        let obj = QuadraticForm::new(Matrix::identity(2), vec![0.0, -5.0], 0.0).unwrap();
        let prob = QcqpProblem::new(
            obj,
            vec![
                ball_constraint(&[1.0, 0.0], 1.5),
                ball_constraint(&[-1.0, 0.0], 1.5),
            ],
            None,
        )
        .unwrap();
        let sol = prob.solve(&QcqpSettings::default()).unwrap();
        assert!(sol.x[0].abs() < 1e-4, "{:?}", sol.x);
        // Top of the lens: x₂ = sqrt(1.5² − 1) = sqrt(1.25).
        assert!((sol.x[1] - 1.25f64.sqrt()).abs() < 1e-4, "{:?}", sol.x);
        assert!(prob.max_violation(&sol.x) < 1e-8);
    }

    #[test]
    fn phase1_detects_infeasibility() {
        // Disjoint balls: radius 0.5 around (±2, 0).
        let obj = QuadraticForm::new(Matrix::identity(2), vec![0.0, 0.0], 0.0).unwrap();
        let prob = QcqpProblem::new(
            obj,
            vec![
                ball_constraint(&[2.0, 0.0], 0.5),
                ball_constraint(&[-2.0, 0.0], 0.5),
            ],
            None,
        )
        .unwrap();
        assert!(matches!(
            prob.solve(&QcqpSettings::default()),
            Err(ConvexError::Infeasible)
        ));
    }

    #[test]
    fn linear_objective_over_ball_reaches_boundary() {
        // min  -x₁  s.t. ‖x‖ ≤ 2 → x = (2, 0).
        let obj = QuadraticForm::linear(vec![-1.0, 0.0], 0.0);
        let prob = QcqpProblem::new(obj, vec![ball_constraint(&[0.0, 0.0], 2.0)], None).unwrap();
        let sol = prob.solve(&QcqpSettings::default()).unwrap();
        assert!((sol.x[0] - 2.0).abs() < 1e-4, "{:?}", sol.x);
    }

    #[test]
    fn matches_qp_solver_on_shared_problem() {
        // Pure QP posed to both solvers: min ½xᵀx − (1,2)ᵀx, ‖x‖ ≤ 10.
        let obj = QuadraticForm::new(Matrix::identity(2), vec![-1.0, -2.0], 0.0).unwrap();
        let prob = QcqpProblem::new(obj, vec![ball_constraint(&[0.0, 0.0], 10.0)], None).unwrap();
        let sol = prob.solve(&QcqpSettings::default()).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-5 && (sol.x[1] - 2.0).abs() < 1e-5);
        assert!((sol.objective - (-2.5)).abs() < 1e-6);
    }
}
