//! Dense-reference oracle for the ADMM-QP's sparse constraint matrix.
//!
//! `QpProblem` holds `A` as its nonzeros and runs `A·x`, `Aᵀ(ρz − y)`,
//! `Aᵀy`, the warm-start `z` and the KKT `AᵀA` over those only. The
//! reference below is the ADMM loop over the full matrix: the products
//! through `Matrix::matvec_into`/`matvec_t_into` (`rcr_kernels::gemv` and
//! `gemv_t`) and the KKT from `Aᵀ·A` (`rcr_kernels::gemm`). The add
//! chains are the same and dropping exact-zero `0·x` terms leaves every
//! nonzero partial sum unchanged, so every answer must agree bit for bit:
//! `x`, `y`, `objective`, `iterations` and both residuals, or the error
//! variant. The reference carries the solver's one guard that the dense
//! loop lacked: a NaN or infinite iterate or residual ends the solve with
//! a NaN-residual `NonConvergence` instead of passing the tolerance test.

use proptest::prelude::*;
use rcr_convex::qp::{QpProblem, QpSettings, QpSolution, QpWarmStart, QP_INF};
use rcr_convex::warm::WarmCache;
use rcr_convex::ConvexError;
use rcr_linalg::{vector, Cholesky, Matrix};

/// One QP in dense form.
#[derive(Clone)]
struct Dense {
    p: Matrix,
    q: Vec<f64>,
    a: Matrix,
    l: Vec<f64>,
    u: Vec<f64>,
}

impl Dense {
    fn problem(&self) -> QpProblem {
        QpProblem::new(
            self.p.clone(),
            self.q.clone(),
            self.a.clone(),
            self.l.clone(),
            self.u.clone(),
        )
        .unwrap()
    }

    /// `P + σI + ρAᵀA` with `AᵀA` from the dense product.
    fn kkt(&self, rho: f64, sigma: f64) -> Matrix {
        let ata = self.a.transpose().matmul(&self.a).unwrap();
        let mut kkt = &self.p + &(&ata * rho);
        for i in 0..self.q.len() {
            kkt[(i, i)] += sigma;
        }
        kkt
    }

    fn factor(&self, s: &QpSettings) -> Result<Cholesky, ConvexError> {
        Cholesky::new(&self.kkt(s.rho, s.sigma))
            .map_err(|_| ConvexError::NotConvex("P + σI + ρAᵀA is not positive definite".into()))
    }

    /// The warm start of a solution: `z` = the dense `A·x` clamped to the
    /// bounds.
    fn warm_start(&self, sol: &QpSolution) -> QpWarmStart {
        let ax = self.a.matvec(&sol.x).unwrap();
        let z = ax
            .iter()
            .zip(self.l.iter().zip(&self.u))
            .map(|(v, (lo, hi))| v.clamp(*lo, *hi))
            .collect();
        QpWarmStart {
            x: sol.x.clone(),
            y: sol.y.clone(),
            z,
        }
    }

    /// The ADMM loop of `QpProblem::solve_with` over the dense `A`.
    fn solve(
        &self,
        settings: &QpSettings,
        warm: Option<&QpWarmStart>,
        factor: Option<&Cholesky>,
    ) -> Result<QpSolution, ConvexError> {
        let (p, q, a, l, u) = (&self.p, &self.q, &self.a, &self.l, &self.u);
        let n = q.len();
        let m = l.len();
        let rho = settings.rho;
        let sigma = settings.sigma;
        let alpha = settings.alpha;
        let owned;
        let chol = match factor {
            Some(f) => f,
            None => {
                owned = self.factor(settings)?;
                &owned
            }
        };
        let (mut x, mut z, mut y) = match warm {
            Some(w) => (w.x.clone(), w.z.clone(), w.y.clone()),
            None => (vec![0.0; n], vec![0.0; m], vec![0.0; m]),
        };
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
            for i in 0..n {
                rhs[i] = sigma * x[i] - q[i];
            }
            for i in 0..m {
                w[i] = rho * z[i] - y[i];
            }
            a.matvec_t_into(&w, &mut atw)?;
            for i in 0..n {
                rhs[i] += atw[i];
            }
            chol.solve_into(&rhs, &mut chol_work, &mut x_new)?;
            a.matvec_into(&x_new, &mut ax)?;
            for i in 0..m {
                let v = alpha * ax[i] + (1.0 - alpha) * z[i] + y[i] / rho;
                z_new[i] = v.clamp(l[i], u[i]);
            }
            for i in 0..m {
                y[i] += rho * (alpha * ax[i] + (1.0 - alpha) * z[i] - z_new[i]);
            }
            std::mem::swap(&mut x, &mut x_new);
            std::mem::swap(&mut z, &mut z_new);
            if iter < 32 || iter % 10 == 0 || iter + 1 == settings.max_iter {
                primal_res = rcr_kernels::norm_inf_diff(&ax, &z);
                p.matvec_into(&x, &mut px)?;
                a.matvec_t_into(&y, &mut aty)?;
                for i in 0..n {
                    d[i] = px[i] + q[i] + aty[i];
                }
                dual_res = vector::norm_inf(&d);
                let finite = |v: &[f64]| v.iter().all(|t| t.is_finite());
                if !(ax.iter().zip(&z).all(|(a, z)| (a - z).is_finite())
                    && finite(&d)
                    && finite(&x)
                    && finite(&y))
                {
                    return Err(ConvexError::NonConvergence {
                        iterations: iter + 1,
                        residual: f64::NAN,
                    });
                }
                let eps_pri = settings.eps_abs
                    + settings.eps_rel * vector::norm_inf(&ax).max(vector::norm_inf(&z));
                let eps_dua = settings.eps_abs
                    + settings.eps_rel
                        * vector::norm_inf(&px)
                            .max(vector::norm_inf(&aty))
                            .max(vector::norm_inf(q));
                if primal_res <= eps_pri && dual_res <= eps_dua {
                    return Ok(QpSolution {
                        objective: 0.5 * p.quadratic_form(&x).unwrap() + vector::dot(q, &x),
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

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Asserts two outcomes agree bit for bit.
fn assert_same(
    label: &str,
    got: &Result<QpSolution, ConvexError>,
    want: &Result<QpSolution, ConvexError>,
) {
    match (got, want) {
        (Ok(g), Ok(e)) => {
            assert_eq!(g.iterations, e.iterations, "{label}: iterations");
            assert_eq!(bits(&g.x), bits(&e.x), "{label}: x bits");
            assert_eq!(bits(&g.y), bits(&e.y), "{label}: y bits");
            assert_eq!(
                g.objective.to_bits(),
                e.objective.to_bits(),
                "{label}: objective {} vs {}",
                g.objective,
                e.objective
            );
            assert_eq!(
                g.primal_residual.to_bits(),
                e.primal_residual.to_bits(),
                "{label}: primal residual"
            );
            assert_eq!(
                g.dual_residual.to_bits(),
                e.dual_residual.to_bits(),
                "{label}: dual residual"
            );
        }
        (
            Err(ConvexError::NonConvergence {
                iterations: gi,
                residual: gr,
            }),
            Err(ConvexError::NonConvergence {
                iterations: ei,
                residual: er,
            }),
        ) => {
            assert_eq!(gi, ei, "{label}: non-convergence iterations");
            assert_eq!(gr.to_bits(), er.to_bits(), "{label}: final residual");
        }
        (Err(g), Err(e)) => assert_eq!(g, e, "{label}: error variant"),
        _ => panic!("{label}: outcomes differ: {got:?} vs {want:?}"),
    }
}

/// Cold-solves with the library and the dense reference, asserts they
/// agree, and pins the warm start and the KKT matrix too. Returns the
/// library's outcome.
fn assert_matches_reference(
    label: &str,
    dense: &Dense,
    settings: &QpSettings,
) -> Result<QpSolution, ConvexError> {
    let prob = dense.problem();
    let got = prob.solve(settings);
    assert_same(label, &got, &dense.solve(settings, None, None));
    assert_kkt_matches(label, &prob, dense, settings);
    if let Ok(sol) = &got {
        let warm = QpWarmStart::from_solution(&prob, sol).unwrap();
        assert_same_up_to_zero_sign(
            &format!("{label}: warm-start z"),
            &warm.z,
            &dense.warm_start(sol).z,
        );
    }
    got
}

/// Bit equality, except that `-0.0` and `+0.0` match. The sparse `A·x`
/// leaves out the `0·x_c` terms, so a row whose sum is exactly zero
/// keeps the `-0.0` seed where the dense chain may end on `+0.0`. No
/// answer sees that sign: the next solve reads such a `z_r` only through
/// `ρz_r − y_r` (skipped by the scatter when zero) and `(1 − α)z_r` (added
/// to `y_r/ρ`, which is `+0.0` or nonzero), which
/// `warm_starts_with_a_supplied_factor_match_the_dense_reference` checks.
fn assert_same_up_to_zero_sign(label: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (*g == 0.0 && *w == 0.0),
            "{label}[{i}]: {g:e} vs {w:e}"
        );
    }
}

fn assert_kkt_matches(label: &str, prob: &QpProblem, dense: &Dense, s: &QpSettings) {
    let got = prob.kkt_matrix(s.rho, s.sigma).unwrap();
    assert_eq!(
        bits(got.as_slice()),
        bits(dense.kkt(s.rho, s.sigma).as_slice()),
        "{label}: KKT matrix"
    );
}

/// Deterministic values in [-1, 1) (splitmix64).
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    fn below(&mut self, k: usize) -> usize {
        (((self.next() + 1.0) / 2.0 * k as f64) as usize).min(k - 1)
    }

    fn vec(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next()).collect()
    }
}

/// A random symmetric PSD matrix `VVᵀ/rank + shift·I` (exactly symmetric:
/// both triangles run the same products).
fn random_psd(n: usize, rank: usize, shift: f64, s: &mut Stream) -> Matrix {
    let v = Matrix::from_fn(n, rank, |_, _| s.next());
    let mut p = v.matmul(&v.transpose()).unwrap().scale(1.0 / rank as f64);
    for i in 0..n {
        p[(i, i)] += shift;
    }
    p
}

/// Bounds around `A·x0` of a random point: a box, an equality, a
/// one-sided `±QP_INF` or a free row, chosen per row by `kind`.
fn bounds_around(
    a: &Matrix,
    s: &mut Stream,
    kind: impl Fn(usize) -> usize,
) -> (Vec<f64>, Vec<f64>) {
    let x0 = s.vec(a.cols());
    let ax0 = a.matvec(&x0).unwrap();
    let (mut l, mut u) = (Vec::new(), Vec::new());
    for (i, &v) in ax0.iter().enumerate() {
        let slack = 0.1 + s.next().abs();
        let (lo, hi) = match kind(i) {
            0 => (v - slack, v + slack),
            1 => (v, v),
            2 => (-QP_INF, v + slack),
            3 => (v - slack, QP_INF),
            _ => (f64::NEG_INFINITY, f64::INFINITY),
        };
        l.push(lo);
        u.push(hi);
    }
    (l, u)
}

#[test]
fn identity_box_qps_match_the_dense_reference() {
    let mut s = Stream(0xB0C5);
    for &n in &[1usize, 2, 5, 16, 33, 128] {
        let p = random_psd(n, n.min(8), 0.5, &mut s);
        let q = s.vec(n).iter().map(|v| 2.0 * v).collect();
        let dense = Dense {
            p,
            q,
            a: Matrix::identity(n),
            l: vec![-0.3; n],
            u: vec![0.4; n],
        };
        let sol = assert_matches_reference(&format!("box n={n}"), &dense, &QpSettings::default());
        assert!(sol.is_ok(), "box n={n}: {sol:?}");
    }
}

#[test]
fn robust_block_mass_qp_matches_the_dense_reference() {
    // The shape `rcr_qos::robust::assemble_qp` builds: x[u·rbs + r] in
    // [0, 1], P block-diagonal in r with blocks α·C + I, and one row per
    // block r capping Σ_u x[u·rbs + r] at 1.
    let mut s = Stream(0x20B5);
    for &(users, rbs) in &[(2usize, 3usize), (3, 6), (4, 8)] {
        let n = users * rbs;
        let m = n + rbs;
        let c = random_psd(users, users, 0.0, &mut s);
        let p = Matrix::from_fn(n, n, |row, col| {
            let (u, r) = (row / rbs, row % rbs);
            let (v, r2) = (col / rbs, col % rbs);
            if r != r2 {
                return 0.0;
            }
            0.5 * c[(u, v)] + if u == v { 1.0 } else { 0.0 }
        });
        let q = (0..n).map(|_| -(s.next().abs() - 0.2)).collect();
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
        let dense = Dense {
            p,
            q,
            a,
            l: vec![0.0; m],
            u: vec![1.0; m],
        };
        let settings = QpSettings {
            eps_abs: 1e-6,
            eps_rel: 1e-6,
            ..QpSettings::default()
        };
        let sol = assert_matches_reference(&format!("block mass {users}x{rbs}"), &dense, &settings);
        assert!(sol.is_ok(), "block mass {users}x{rbs}: {sol:?}");
    }
}

#[test]
fn equality_and_one_sided_rows_match_the_dense_reference() {
    let mut s = Stream(0xE0_51DE);
    for &(n, m) in &[(3usize, 4usize), (6, 9), (10, 7)] {
        let p = random_psd(n, n, 0.2, &mut s);
        let q = s.vec(n);
        // Sparse rows: two or three nonzeros each.
        let mut a = Matrix::zeros(m, n);
        for r in 0..m {
            for _ in 0..2 + s.below(2) {
                a[(r, s.below(n))] = s.next();
            }
        }
        let (l, u) = bounds_around(&a, &mut s, |i| i % 5);
        let dense = Dense { p, q, a, l, u };
        let sol = assert_matches_reference(
            &format!("mixed rows {n}x{m}"),
            &dense,
            &QpSettings::default(),
        );
        assert!(sol.is_ok(), "mixed rows {n}x{m}: {sol:?}");
    }
}

#[test]
fn dense_zero_and_negative_zero_entries_match_the_dense_reference() {
    let mut s = Stream(0xD0_5E);
    let n = 7;
    let m = 9;
    let p = random_psd(n, 3, 0.1, &mut s);
    let q = s.vec(n);
    // A fully dense random A, then the same with a -0.0 sprinkle and an
    // all-zero row (one of +0.0 entries, one of -0.0 entries).
    let full = Matrix::from_fn(m, n, |_, _| s.next());
    let mut holed = full.clone();
    for r in 0..m {
        holed[(r, s.below(n))] = -0.0;
    }
    let mut zero_rows = holed.clone();
    for c in 0..n {
        zero_rows[(2, c)] = 0.0;
        zero_rows[(5, c)] = -0.0;
    }
    for (label, a) in [("dense", full), ("-0.0", holed), ("zero rows", zero_rows)] {
        let (l, u) = bounds_around(&a, &mut s, |i| i % 4);
        let dense = Dense {
            p: p.clone(),
            q: q.clone(),
            a,
            l,
            u,
        };
        let sol = assert_matches_reference(label, &dense, &QpSettings::default());
        assert!(sol.is_ok(), "{label}: {sol:?}");
    }
}

#[test]
fn kkt_matrix_matches_the_dense_product_past_a_gemm_panel() {
    // 300 rows spill the dense product's partial sums across its
    // 256-deep panels; the row-outer-product sum must still agree.
    let mut s = Stream(0x4B_4B);
    let (n, m) = (9, 300);
    let a = Matrix::from_fn(m, n, |_, _| {
        let v = s.next();
        if v.abs() < 0.3 {
            if v < 0.0 {
                -0.0
            } else {
                0.0
            }
        } else {
            v
        }
    });
    let dense = Dense {
        p: random_psd(n, n, 0.3, &mut s),
        q: vec![0.0; n],
        l: vec![-1.0; m],
        u: vec![1.0; m],
        a,
    };
    for (rho, sigma) in [(0.1, 1e-6), (1.7, 0.0), (1e-3, 2.5)] {
        let settings = QpSettings {
            rho,
            sigma,
            ..QpSettings::default()
        };
        assert_kkt_matches("300 rows", &dense.problem(), &dense, &settings);
    }
}

#[test]
fn warm_starts_with_a_supplied_factor_match_the_dense_reference() {
    // Through the warm cache: a miss (cold solve on a fresh factor), hits
    // that reuse the factor with the previous solution as the seed, and a
    // P drift that refactors and keeps the seed.
    let mut s = Stream(0x3A_2F);
    let n = 12;
    let p0 = random_psd(n, 4, 0.3, &mut s);
    // Identity rows with two couplings, then an all-zero row and a row
    // whose product is exactly zero at x_2 = 0: the rows whose warm-start
    // z_r keeps the sparse gather's -0.0 where the dense one has +0.0.
    let mut a = Matrix::zeros(n + 2, n);
    for r in 0..n {
        a[(r, r)] = 1.0;
    }
    a[(0, 5)] = 0.5;
    a[(7, 2)] = -0.25;
    a[(n + 1, 2)] = -1.0;
    let (mut l, mut u) = bounds_around(&a, &mut s, |i| [0, 0, 2, 3, 1][i % 5]);
    (l[2], u[2]) = (0.0, 0.0);
    (l[n + 1], u[n + 1]) = (-0.5, 0.5);
    let settings = QpSettings::default();
    let mut cache = WarmCache::new(4);
    let mut factor: Option<Cholesky> = None;
    let mut seed: Option<QpWarmStart> = None;
    for step in 0..6 {
        let mut p = p0.clone();
        if step >= 4 {
            p[(1, 1)] += 1e-3;
        }
        let q: Vec<f64> = (0..n)
            .map(|i| ((i + 1) as f64 * 0.3).sin() + 1e-3 * (step * (i + 1)) as f64)
            .collect();
        let dense = Dense {
            p,
            q,
            a: a.clone(),
            l: l.clone(),
            u: u.clone(),
        };
        let prob = dense.problem();
        let (got, report) = cache.solve_qp(&prob, &settings).unwrap();
        assert_eq!(report.hit, step > 0, "step {step}: hit");
        assert_eq!(
            report.factorization_reused,
            step > 0 && step != 4,
            "step {step}: reuse"
        );
        if factor.is_none() || step == 4 {
            factor = Some(dense.factor(&settings).unwrap());
        }
        let chol = factor.as_ref().unwrap();
        let want = match dense.solve(&settings, seed.as_ref(), Some(chol)) {
            Err(ConvexError::NonConvergence { .. }) => dense.solve(&settings, None, Some(chol)),
            other => other,
        };
        let label = format!("warm step {step}");
        assert_same(&label, &Ok(got.clone()), &want);
        let dense_seed = dense.warm_start(&want.unwrap());
        let sparse_seed = QpWarmStart::from_solution(&prob, &got).unwrap();
        assert_same_up_to_zero_sign(&label, &sparse_seed.z, &dense_seed.z);
        seed = Some(dense_seed);
    }
}

#[test]
fn three_iteration_budget_matches_the_dense_reference() {
    let mut s = Stream(0x3_1735);
    let n = 8;
    let mut a = Matrix::zeros(n + 2, n);
    for r in 0..n {
        a[(r, r)] = 1.0;
    }
    for c in 0..n {
        a[(n, c)] = 1.0;
        a[(n + 1, c)] = if c % 2 == 0 { 1.0 } else { -1.0 };
    }
    let (l, u) = bounds_around(&a, &mut s, |i| i % 4);
    let dense = Dense {
        p: random_psd(n, n, 0.1, &mut s),
        q: s.vec(n),
        a,
        l,
        u,
    };
    let settings = QpSettings {
        max_iter: 3,
        ..QpSettings::default()
    };
    let got = assert_matches_reference("budget 3", &dense, &settings);
    assert!(
        matches!(got, Err(ConvexError::NonConvergence { iterations: 3, .. })),
        "{got:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_sparsity_patterns_match_the_dense_reference(
        seed in any::<u64>(),
        n in 1usize..9,
        m in 1usize..13,
        density in 0.05f64..0.9,
    ) {
        let mut s = Stream(seed);
        let p = random_psd(n, 1 + s.below(n), 0.05, &mut s);
        let q = s.vec(n);
        // Values from {±1, ±0.5, -0.0, a random value}.
        let a = Matrix::from_fn(m, n, |_, _| {
            if (s.next() + 1.0) / 2.0 >= density {
                return 0.0;
            }
            match s.below(6) {
                0 => 1.0,
                1 => -1.0,
                2 => 0.5,
                3 => -0.5,
                4 => -0.0,
                _ => s.next(),
            }
        });
        let kinds: Vec<usize> = (0..m).map(|_| s.below(5)).collect();
        let (l, u) = bounds_around(&a, &mut s, |i| kinds[i]);
        let settings = QpSettings {
            max_iter: 400,
            ..QpSettings::default()
        };
        let dense = Dense { p, q, a, l, u };
        let outcome = assert_matches_reference(&format!("seed {seed:#x}"), &dense, &settings);
        prop_assert!(
            matches!(outcome, Ok(_) | Err(ConvexError::NonConvergence { .. })),
            "unexpected outcome {outcome:?}"
        );
    }
}
