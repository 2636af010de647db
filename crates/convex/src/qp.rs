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
//!
//! `A` is held as its nonzeros, row by row, so with `nnz = nnz(A)`:
//!
//! * a factorization is O(n·nnz) for `AᵀA` (one outer product per row)
//!   plus the n×n Cholesky factor, once per factor — the warm cache
//!   reuses it while `(P, A, ρ, σ)` stay bit-identical;
//! * an iteration is one n² triangular-solve pair plus O(nnz + n + m) for
//!   `Aᵀ(ρz − y)`, `A·x` and the vector updates;
//! * a residual check adds the dense `P·x` (n²) and an O(nnz) `Aᵀy`.
//!
//! The products are the add chains of `rcr_kernels::gemv` (gather, seeded
//! with `-0.0`, columns in order) and `gemv_t` (scatter into `+0.0`, rows
//! in order, `w_r == 0` skipped) with the exact-zero `0·x` terms left
//! out, which changes no nonzero partial sum and so no answer bit of the
//! dense formulation (`tests/qp_sparse_oracle.rs` keeps the dense
//! reference and pins this).

use crate::ConvexError;
use rcr_linalg::{vector, Cholesky, LinalgError, Matrix};

/// The "infinity" bound understood by the QP solver, for `l` and `u`
/// only: `q`, `P` and `A` must be finite.
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
    ///
    /// # Errors
    /// [`ConvexError::Linalg`] when `sol.x` does not have one entry per
    /// variable of `problem`.
    pub fn from_solution(problem: &QpProblem, sol: &QpSolution) -> Result<Self, ConvexError> {
        let (m, n) = (problem.num_constraints(), problem.num_vars());
        if sol.x.len() != n {
            return Err(ConvexError::Linalg(LinalgError::DimensionMismatch {
                op: "matvec",
                got: vec![m, n, sol.x.len()],
            }));
        }
        let mut z = vec![0.0; m];
        problem.a.gather(&sol.x, &mut z);
        for (zi, (lo, hi)) in z.iter_mut().zip(problem.l.iter().zip(&problem.u)) {
            *zi = zi.clamp(*lo, *hi);
        }
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
    a: SparseRows,
    l: Vec<f64>,
    u: Vec<f64>,
}

/// The constraint matrix `A` held as its nonzeros, row by row.
#[derive(Debug, Clone)]
pub(crate) struct SparseRows {
    cols: usize,
    /// One past each row's last entry in `entries`.
    row_end: Vec<usize>,
    /// `(column, a_rc)` for every `a_rc ≠ 0`: rows in order, columns
    /// ascending within a row.
    entries: Vec<(usize, f64)>,
}

impl SparseRows {
    /// Keeps the entries of `a` that are not `±0.0`.
    fn from_dense(a: &Matrix) -> Self {
        let cols = a.cols();
        let data = a.as_slice();
        let mut row_end = Vec::with_capacity(a.rows());
        let mut entries = Vec::new();
        for r in 0..a.rows() {
            let row = data.get(r * cols..(r + 1) * cols).unwrap_or(&[]);
            entries.extend(
                row.iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0.0)
                    .map(|(c, &v)| (c, v)),
            );
            row_end.push(entries.len());
        }
        SparseRows {
            cols,
            row_end,
            entries,
        }
    }

    /// Number of rows `m`.
    pub(crate) fn rows(&self) -> usize {
        self.row_end.len()
    }

    /// Number of columns `n`.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Each row's `(column, value)` nonzeros, rows in order.
    pub(crate) fn row_entries(&self) -> impl Iterator<Item = &[(usize, f64)]> + '_ {
        let mut start = 0;
        self.row_end.iter().map(move |&end| {
            let row = self.entries.get(start..end).unwrap_or(&[]);
            start = end;
            row
        })
    }

    /// `out = A·x`: per row a `-0.0`-seeded chain over its nonzeros in
    /// column order (`rcr_kernels::gemv` without the `0·x_c` terms).
    fn gather(&self, x: &[f64], out: &mut [f64]) {
        for (o, row) in out.iter_mut().zip(self.row_entries()) {
            let mut s = -0.0;
            for &(c, a) in row {
                s += a * x.get(c).copied().unwrap_or(f64::NAN);
            }
            *o = s;
        }
    }

    /// `out = Aᵀw`: from `+0.0`, row by row with `w_r == 0` skipped
    /// (`rcr_kernels::gemv_t` without the `w_r·0` terms).
    fn scatter(&self, w: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for (&wr, row) in w.iter().zip(self.row_entries()) {
            if wr == 0.0 {
                continue;
            }
            for &(c, a) in row {
                if let Some(o) = out.get_mut(c) {
                    *o += wr * a;
                }
            }
        }
    }
}

/// One side of the stopping test in one pass over `(r_i, s_i, t_i)`:
/// `‖r‖∞`, NaN when some `r_i` is NaN (a plain `f64::max` fold would drop
/// it and read the residual as small), and `max(‖s‖∞, ‖t‖∞)`, the scale of
/// the relative tolerance. Each max is exact, so fusing the folds leaves
/// every bit of the separate [`vector::norm_inf`] passes.
fn residual_and_scale(rows: impl IntoIterator<Item = (f64, f64, f64)>) -> (f64, f64) {
    let (mut res, mut s_norm, mut t_norm, mut nan) = (0.0f64, 0.0f64, 0.0f64, false);
    for (r, s, t) in rows {
        nan |= r.is_nan();
        res = res.max(r.abs());
        s_norm = s_norm.max(s.abs());
        t_norm = t_norm.max(t.abs());
    }
    (if nan { f64::NAN } else { res }, s_norm.max(t_norm))
}

impl QpProblem {
    /// Builds a problem, validating shapes, bound ordering and symmetry of
    /// `P` (PSD-ness is certified later, cheaply, by the KKT Cholesky).
    ///
    /// `A` is converted once into its nonzeros, skipping `±0.0` entries,
    /// and the dense copy is dropped: the products of every iteration,
    /// the KKT assembly and the warm-start fingerprint touch only those.
    ///
    /// # Errors
    /// * [`ConvexError::DimensionMismatch`] on inconsistent sizes.
    /// * [`ConvexError::NotFinite`] for a NaN or infinite entry of `P`,
    ///   `q` or `A`, or a NaN bound (infinite bounds are fine).
    /// * [`ConvexError::InvalidParameter`] when some `l_i > u_i`.
    /// * [`ConvexError::Infeasible`] when some `l_i = +∞` or `u_i = −∞`:
    ///   no finite `A x` meets that row.
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
        if !p.is_finite() || !a.is_finite() || !q.iter().all(|v| v.is_finite()) {
            return Err(ConvexError::NotFinite);
        }
        if l.iter().any(|v| v.is_nan()) || u.iter().any(|v| v.is_nan()) {
            return Err(ConvexError::NotFinite);
        }
        if l.iter().zip(&u).any(|(lo, hi)| lo > hi) {
            return Err(ConvexError::InvalidParameter("some l_i > u_i".into()));
        }
        if l.iter()
            .zip(&u)
            .any(|(&lo, &hi)| lo == f64::INFINITY || hi == f64::NEG_INFINITY)
        {
            return Err(ConvexError::Infeasible);
        }
        if !p.is_symmetric(1e-8 * p.max_abs().max(1.0)) {
            return Err(ConvexError::NotConvex("P must be symmetric".into()));
        }
        let a = SparseRows::from_dense(&a);
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
    pub(crate) fn a(&self) -> &SparseRows {
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
    /// * [`ConvexError::NonConvergence`] when the iteration budget runs
    ///   out, or at once, with a NaN `residual`, when an iterate or a
    ///   residual turns NaN or infinite (overflowing data).
    pub fn solve(&self, settings: &QpSettings) -> Result<QpSolution, ConvexError> {
        self.solve_with(settings, None, None)
    }

    /// Assembles the condensed KKT matrix `P + σI + ρAᵀA` without
    /// factorizing it — the matrix every solve factors once. Public so
    /// callers can inspect or time the KKT system on its own.
    ///
    /// `AᵀA` is summed from the outer products of `A`'s sparse rows, in
    /// row order from `+0.0`: bit for bit the chains of the dense
    /// `Aᵀ·A` product (`rcr_kernels::gemm` skips the same zero factors).
    ///
    /// # Errors
    /// None for a problem built by [`QpProblem::new`].
    pub fn kkt_matrix(&self, rho: f64, sigma: f64) -> Result<Matrix, ConvexError> {
        let n = self.num_vars();
        let mut ata = Matrix::zeros(n, n);
        let gram = ata.as_mut_slice();
        for row in self.a.row_entries() {
            for &(i, ai) in row {
                let Some(dst) = gram.get_mut(i * n..(i + 1) * n) else {
                    continue;
                };
                for &(j, aj) in row {
                    if let Some(o) = dst.get_mut(j) {
                        *o += ai * aj;
                    }
                }
            }
        }
        let mut kkt = self.p.clone();
        for (k, &g) in kkt.as_mut_slice().iter_mut().zip(ata.as_slice()) {
            *k += g * rho;
        }
        for d in kkt.as_mut_slice().iter_mut().step_by(n + 1) {
            *d += sigma;
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

        let q_norm = vector::norm_inf(&self.q);
        let mut primal_res = f64::INFINITY;
        let mut dual_res = f64::INFINITY;
        for iter in 0..settings.max_iter {
            // x-update: solve (P+σI+ρAᵀA)x = σx - q + Aᵀ(ρz - y).
            for ((wi, &zi), &yi) in w.iter_mut().zip(&z).zip(&y) {
                *wi = rho * zi - yi;
            }
            self.a.scatter(&w, &mut atw);
            for (((r, &xi), &qi), &ai) in rhs.iter_mut().zip(&x).zip(&self.q).zip(&atw) {
                *r = sigma * xi - qi + ai;
            }
            chol.solve_into(&rhs, &mut chol_work, &mut x_new)?;

            // Over-relaxed z-update with projection onto [l, u], then the
            // dual update from the same relaxed point.
            self.a.gather(&x_new, &mut ax);
            for ((((zn, yi), &axi), &zi), (&lo, &hi)) in z_new
                .iter_mut()
                .zip(y.iter_mut())
                .zip(&ax)
                .zip(&z)
                .zip(self.l.iter().zip(&self.u))
            {
                let relaxed = alpha * axi + (1.0 - alpha) * zi;
                *zn = (relaxed + *yi / rho).clamp(lo, hi);
                *yi += rho * (relaxed - *zn);
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
                let pri_scale;
                (primal_res, pri_scale) =
                    residual_and_scale(ax.iter().zip(&z).map(|(&a, &zi)| (a - zi, a, zi)));
                self.p.matvec_into(&x, &mut px)?;
                self.a.scatter(&y, &mut aty);
                let dua_scale;
                (dual_res, dua_scale) = residual_and_scale(
                    px.iter()
                        .zip(&self.q)
                        .zip(&aty)
                        .map(|((&pi, &qi), &ai)| (pi + qi + ai, pi, ai)),
                );
                // A NaN or infinity never recovers: stop rather than let it
                // pass the tolerance test or run out the budget.
                let finite = |v: &[f64]| v.iter().all(|t| t.is_finite());
                if !(primal_res.is_finite() && dual_res.is_finite() && finite(&x) && finite(&y)) {
                    return Err(ConvexError::NonConvergence {
                        iterations: iter + 1,
                        residual: f64::NAN,
                    });
                }
                let eps_pri = settings.eps_abs + settings.eps_rel * pri_scale;
                let eps_dua = settings.eps_abs + settings.eps_rel * dua_scale.max(q_norm);
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

    #[test]
    fn full_support_gather_and_scatter_equal_the_dense_kernels() {
        // With no zero entry to leave out, the sparse products must be the
        // dense kernels' chains exactly, down to the sign of a zero sum.
        // Row 0 is all positive, so at x = -0.0 its every product is -0.0
        // and only a `-0.0` seed keeps the sum's sign.
        let (m, n) = (5, 7);
        let a = Matrix::from_fn(m, n, |i, j| {
            let v = ((i * 7 + j * 3) % 11) as f64 / 4.0 - 1.3;
            if i == 0 {
                v.abs() + 0.25
            } else if v == 0.0 {
                0.5
            } else {
                v
            }
        });
        let sparse = SparseRows::from_dense(&a);
        let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        let x_cases = [
            (0..n).map(|j| (j as f64 * 0.7).sin()).collect::<Vec<_>>(),
            vec![-0.0; n],
            vec![0.0; n],
        ];
        for x in &x_cases {
            let (mut dense, mut got) = (vec![7.0; m], vec![7.0; m]);
            rcr_kernels::gemv(m, n, a.as_slice(), x, &mut dense);
            sparse.gather(x, &mut got);
            assert_eq!(bits(&got), bits(&dense), "gather of {x:?}");
        }
        let w_cases = [
            (0..m).map(|i| (i as f64 * 1.1).cos()).collect::<Vec<_>>(),
            vec![0.0, -0.0, 1.5, 0.0, -2.0],
            vec![-0.0; m],
        ];
        for w in &w_cases {
            let (mut dense, mut got) = (vec![7.0; n], vec![7.0; n]);
            rcr_kernels::gemv_t(m, n, a.as_slice(), w, &mut dense);
            sparse.scatter(w, &mut got);
            assert_eq!(bits(&got), bits(&dense), "scatter of {w:?}");
        }
    }

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
    fn infinite_linear_term_is_not_finite_data() {
        // Before: Ok(x = [NaN, NaN]) after one iteration, because the NaN
        // residuals vanished in the f64::max folds.
        for inf in [f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                QpProblem::new(
                    Matrix::identity(2),
                    vec![inf, 0.5],
                    Matrix::identity(2),
                    vec![0.0; 2],
                    vec![1.0; 2],
                )
                .err(),
                Some(ConvexError::NotFinite)
            );
        }
    }

    #[test]
    fn a_row_bounded_away_at_infinity_is_infeasible() {
        // Before: Ok with an x that violates the row.
        for (lo, hi) in [
            (f64::INFINITY, f64::INFINITY),
            (f64::NEG_INFINITY, f64::NEG_INFINITY),
        ] {
            assert_eq!(
                QpProblem::new(
                    Matrix::identity(2),
                    vec![-1.0, 0.5],
                    Matrix::identity(2),
                    vec![0.0, lo],
                    vec![1.0, hi],
                )
                .err(),
                Some(ConvexError::Infeasible)
            );
        }
        // A free row (−∞, +∞) stays valid.
        let free = QpProblem::new(
            Matrix::identity(2),
            vec![-1.0, 0.5],
            Matrix::identity(2),
            vec![0.0, f64::NEG_INFINITY],
            vec![1.0, f64::INFINITY],
        )
        .unwrap();
        let sol = free.solve(&settings()).unwrap();
        assert!((sol.x[1] + 0.5).abs() < 1e-5, "{:?}", sol.x);
    }

    #[test]
    fn an_overflowing_iterate_is_never_accepted() {
        // Finite data whose first x-update overflows: with P = 0 the KKT
        // matrix is (σ + ρ)I ≈ 0.1·I, so x = −q/0.1 = ∞.
        let prob = QpProblem::new(
            Matrix::zeros(2, 2),
            vec![-1.7e308, 0.5],
            Matrix::identity(2),
            vec![-1.0; 2],
            vec![1.0; 2],
        )
        .unwrap();
        match prob.solve(&settings()) {
            Err(ConvexError::NonConvergence {
                iterations,
                residual,
            }) => {
                assert_eq!(iterations, 1);
                assert!(residual.is_nan());
            }
            other => panic!("expected NonConvergence, got {other:?}"),
        }
    }

    #[test]
    fn fused_norms_match_norm_inf_and_keep_nan() {
        let (r, s, t) = (
            [0.5, -3.0, -0.0, 2.0],
            [1.0, -7.5, 0.0, 0.25],
            [-0.0, 2.0, 9.0, 1.0],
        );
        let rows = || r.iter().zip(&s).zip(&t).map(|((&r, &s), &t)| (r, s, t));
        let (res, scale) = residual_and_scale(rows());
        assert_eq!(res.to_bits(), vector::norm_inf(&r).to_bits());
        let sep = vector::norm_inf(&s).max(vector::norm_inf(&t));
        assert_eq!(scale.to_bits(), sep.to_bits());
        assert_eq!(residual_and_scale([]), (0.0, 0.0));
        // NaN survives in the residual; plain norm_inf drops it.
        let (res, _) = residual_and_scale([(1.0, 0.0, 0.0), (f64::NAN, 0.0, 0.0), (2.0, 0.0, 0.0)]);
        assert!(res.is_nan());
        assert_eq!(vector::norm_inf(&[1.0, f64::NAN, 2.0]), 2.0);
        let (res, _) = residual_and_scale([(1.0, 0.0, 0.0), (f64::NEG_INFINITY, 0.0, 0.0)]);
        assert_eq!(res, f64::INFINITY);
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
