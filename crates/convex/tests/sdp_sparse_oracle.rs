//! Dense-reference oracle for the conic-ADMM SDP's sparse constraints.
//!
//! `SdpProblem` holds each `A_i` as its nonzeros and runs the Gram build,
//! the X-update and the constraint residual over those only. The
//! reference below is the same ADMM over full matrices: the Gram from
//! `Matrix::inner` and the X-update as `rcr_kernels::dot`/`axpy`. Both are sequential add chains
//! seeded with `-0.0`, and dropping exact-zero `0·x` terms leaves every
//! nonzero partial sum unchanged, so every answer must agree bit for bit:
//! `x`, `objective`, `iterations` and `residual`, or the error variant.

use proptest::prelude::*;
use rcr_convex::sdp::{SdpProblem, SdpSettings, SdpSolution};
use rcr_convex::ConvexError;
use rcr_linalg::{Cholesky, Matrix};

/// The ADMM solve of `SdpProblem::solve` over full constraint matrices.
fn dense_reference_solve(
    c: &Matrix,
    constraints: &[(Matrix, f64)],
    settings: &SdpSettings,
) -> Result<SdpSolution, ConvexError> {
    let n = c.rows();
    let rho = settings.rho;
    let m = constraints.len();
    let chol = if m == 0 {
        None
    } else {
        let gram = Matrix::from_fn(m, m, |i, j| {
            constraints[i]
                .0
                .inner(&constraints[j].0)
                .unwrap_or(f64::NAN)
        });
        Some(Cholesky::new(&gram).map_err(|_| ConvexError::Infeasible)?)
    };
    let constraint_residual = |x: &Matrix| {
        constraints
            .iter()
            .map(|(a, b)| (a.inner(x).unwrap_or(f64::NAN) - b).abs())
            .fold(0.0, f64::max)
    };
    let proj_affine = |mat: &Matrix| -> Result<Matrix, ConvexError> {
        let Some(chol) = &chol else {
            return Ok(mat.clone());
        };
        let resid: Vec<f64> = constraints
            .iter()
            .map(|(a, b)| a.inner(mat).map(|v| v - b))
            .collect::<Result<_, _>>()?;
        let w = chol.solve(&resid)?;
        let mut out = mat.clone();
        for ((a, _), wi) in constraints.iter().zip(&w) {
            rcr_kernels::axpy(-wi, a.as_slice(), out.as_mut_slice());
        }
        Ok(out)
    };

    let mut z = Matrix::zeros(n, n);
    let mut u = Matrix::zeros(n, n);
    let mut residual = f64::INFINITY;
    for iter in 0..settings.max_iter {
        let target = &(&z - &u) - &(c * (1.0 / rho));
        let x = proj_affine(&target)?;
        let z_new = (&x + &u).psd_projection()?;
        u = &(&u + &x) - &z_new;
        let diff = (&x - &z_new).frobenius_norm();
        let dual = rho * (&z_new - &z).frobenius_norm();
        z = z_new;
        residual = diff.max(constraint_residual(&z)).max(dual);
        if residual < settings.tol {
            return Ok(SdpSolution {
                objective: c.inner(&z)?,
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

fn bits(x: &Matrix) -> Vec<u64> {
    x.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Solves with the library and the dense reference and asserts the two
/// outcomes agree bit for bit. Returns the library's outcome.
fn assert_matches_reference(
    label: &str,
    c: &Matrix,
    constraints: Vec<(Matrix, f64)>,
    settings: &SdpSettings,
) -> Result<SdpSolution, ConvexError> {
    let expected = dense_reference_solve(c, &constraints, settings);
    let prob = SdpProblem::new(c.clone(), constraints.clone()).unwrap();
    let got = prob.solve(settings);
    match (&got, &expected) {
        (Ok(g), Ok(e)) => {
            assert_eq!(g.iterations, e.iterations, "{label}: iterations");
            assert_eq!(
                g.objective.to_bits(),
                e.objective.to_bits(),
                "{label}: objective {} vs {}",
                g.objective,
                e.objective
            );
            assert_eq!(
                g.residual.to_bits(),
                e.residual.to_bits(),
                "{label}: residual {} vs {}",
                g.residual,
                e.residual
            );
            assert_eq!(bits(&g.x), bits(&e.x), "{label}: x bits");
            // The public residual runs the same sparse gather.
            let dense_residual = constraints
                .iter()
                .map(|(a, b)| (a.inner(&g.x).unwrap() - b).abs())
                .fold(0.0, f64::max);
            assert_eq!(
                prob.constraint_residual(&g.x).to_bits(),
                dense_residual.to_bits(),
                "{label}: constraint_residual"
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
        _ => panic!("{label}: outcomes differ: {got:?} vs {expected:?}"),
    }
    got
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
}

/// A random symmetric PSD matrix of rank `rank`, plus `shift·I`.
fn random_psd(n: usize, rank: usize, shift: f64, s: &mut Stream) -> Matrix {
    let v = Matrix::from_fn(n, rank, |_, _| s.next());
    let mut p = v.matmul(&v.transpose()).unwrap();
    for i in 0..n {
        p[(i, i)] += shift;
    }
    p
}

/// The trace-minimization SDP of `rankmin::trace_min_decompose`:
/// `min tr X` with `⟨E_ij + E_ji, X⟩ = 2·R_ij` for every pair `i < j`.
fn trace_min_problem(r_s: &Matrix) -> (Matrix, Vec<(Matrix, f64)>) {
    let n = r_s.rows();
    let mut constraints = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let mut a = Matrix::zeros(n, n);
            a[(i, j)] = 1.0;
            a[(j, i)] = 1.0;
            constraints.push((a, 2.0 * r_s[(i, j)]));
        }
    }
    (Matrix::identity(n), constraints)
}

/// The Hankel moment SDP that bounds the minimum of a univariate
/// even-degree polynomial from below: `y_0 = 1` plus one symmetrized
/// difference per non-representative anti-diagonal cell. Neighbouring
/// constraints share their representative cell, so the Gram is not
/// diagonal.
fn hankel_problem(coeffs: &[f64]) -> (Matrix, Vec<(Matrix, f64)>) {
    let degree = coeffs.len() - 1;
    let n = degree / 2 + 1;
    let mut c = Matrix::zeros(n, n);
    for (k, &ck) in coeffs.iter().enumerate() {
        let cells: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| i + j == k)
            .collect();
        let share = ck / cells.len() as f64;
        for (i, j) in cells {
            c[(i, j)] += share;
        }
    }
    let mut a0 = Matrix::zeros(n, n);
    a0[(0, 0)] = 1.0;
    let mut constraints = vec![(a0, 1.0)];
    for k in 0..=degree {
        let cells: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| i + j == k && i <= j)
            .collect();
        let rep = cells[0];
        for &(i, j) in &cells[1..] {
            let mut a = Matrix::zeros(n, n);
            a[(i, j)] += 1.0;
            a[(j, i)] += 1.0;
            a[(rep.0, rep.1)] -= 1.0;
            a[(rep.1, rep.0)] -= 1.0;
            constraints.push((a, 0.0));
        }
    }
    (c, constraints)
}

#[test]
fn trace_min_sets_match_the_dense_reference() {
    for &n in &[2usize, 3, 8, 16, 24] {
        for seed in 0..2u64 {
            let mut s = Stream(0x7A11 + 31 * n as u64 + seed);
            let mut r_s = random_psd(n, 2.min(n), 0.0, &mut s);
            for i in 0..n {
                r_s[(i, i)] += 0.5 + 0.5 * s.next().abs();
            }
            let (c, constraints) = trace_min_problem(&r_s);
            let sol = assert_matches_reference(
                &format!("trace-min n={n} seed={seed}"),
                &c,
                constraints,
                &SdpSettings::default(),
            );
            assert!(sol.is_ok(), "trace-min n={n} seed={seed}: {sol:?}");
        }
    }
}

#[test]
fn hankel_moment_sets_match_the_dense_reference() {
    let polys: [&[f64]; 4] = [
        &[4.0, -4.0, 1.0],
        &[1.0, 0.0, -2.0, 0.0, 1.0],
        &[0.0, 0.0, -2.0, -1.0, 1.0],
        &[1.0, 0.0, 9.0, 0.0, -6.0, 0.0, 1.0],
    ];
    let settings = SdpSettings {
        tol: 1e-8,
        ..Default::default()
    };
    for coeffs in polys {
        let (c, constraints) = hankel_problem(coeffs);
        let sol =
            assert_matches_reference(&format!("hankel {coeffs:?}"), &c, constraints, &settings);
        assert!(sol.is_ok(), "hankel {coeffs:?}: {sol:?}");
    }
}

#[test]
fn dense_constraints_match_the_dense_reference() {
    // tr X = 1 (the identity) and a random dense symmetric A with a
    // right-hand side that a PSD point meets.
    let mut s = Stream(0xDE75E);
    for &n in &[2usize, 5, 9] {
        let c = random_psd(n, n, 0.1, &mut s);
        let a = Matrix::from_fn(n, n, |_, _| s.next()).symmetrize().unwrap();
        let x0 = random_psd(n, 2.min(n), 0.2, &mut s);
        let b = a.inner(&x0).unwrap();
        let constraints = vec![(Matrix::identity(n), x0.trace()), (a, b)];
        let sol = assert_matches_reference(
            &format!("dense n={n}"),
            &c,
            constraints,
            &SdpSettings::default(),
        );
        assert!(sol.is_ok(), "dense n={n}: {sol:?}");
    }
}

#[test]
fn explicit_negative_zero_entries_match_the_dense_reference() {
    // -0.0 entries are skipped like +0.0 ones; the answers must not move.
    let n = 4;
    let mut s = Stream(0x2E50);
    let c = random_psd(n, n, 0.1, &mut s);
    let x0 = random_psd(n, 2, 0.3, &mut s);
    let mut constraints = Vec::new();
    for i in 0..n {
        let mut a = Matrix::from_fn(n, n, |_, _| -0.0);
        a[(i, i)] = 1.0;
        if i + 1 < n {
            a[(i, i + 1)] = 0.5;
            a[(i + 1, i)] = 0.5;
        }
        let b = a.inner(&x0).unwrap();
        constraints.push((a, b));
    }
    let mut mixed = Matrix::identity(n);
    mixed[(0, 3)] = -0.0;
    mixed[(3, 0)] = -0.0;
    mixed[(1, 2)] = -0.0;
    constraints.push((mixed.scale(-1.0), -x0.trace()));
    let sol = assert_matches_reference("-0.0 entries", &c, constraints, &SdpSettings::default());
    assert!(sol.is_ok(), "-0.0 entries: {sol:?}");
}

#[test]
fn all_zero_constraint_is_infeasible_on_both_sides() {
    let n = 3;
    for zero in [Matrix::zeros(n, n), Matrix::from_fn(n, n, |_, _| -0.0)] {
        let mut diag = Matrix::zeros(n, n);
        diag[(0, 0)] = 1.0;
        let constraints = vec![(diag, 1.0), (zero, 0.0)];
        let got = assert_matches_reference(
            "all-zero constraint",
            &Matrix::identity(n),
            constraints,
            &SdpSettings::default(),
        );
        assert!(matches!(got, Err(ConvexError::Infeasible)), "{got:?}");
    }
}

#[test]
fn non_convergence_matches_the_dense_reference() {
    // A short budget on a trace-min set stops both sides mid-solve.
    let mut s = Stream(0xB0D6E7);
    let r_s = random_psd(6, 2, 0.4, &mut s);
    let (c, constraints) = trace_min_problem(&r_s);
    let settings = SdpSettings {
        max_iter: 7,
        ..Default::default()
    };
    let got = assert_matches_reference("budget 7", &c, constraints, &settings);
    assert!(
        matches!(got, Err(ConvexError::NonConvergence { .. })),
        "{got:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_sparsity_patterns_match_the_dense_reference(
        seed in any::<u64>(),
        n in 1usize..7,
        m_frac in 0.0f64..1.0,
        density in 0.05f64..0.9,
    ) {
        let mut s = Stream(seed);
        let max_m = n * (n + 1) / 2;
        let m = 1 + ((m_frac * max_m as f64) as usize).min(max_m - 1);
        let c = random_psd(n, n, 0.05, &mut s);
        let x0 = random_psd(n, 1 + s.below(n), 0.1, &mut s);
        let mut constraints = Vec::with_capacity(m);
        for _ in 0..m {
            // A random pattern: symmetric or not, with values drawn from
            // {±1, ±0.5, a random value, -0.0}.
            let symmetric = s.next() > 0.0;
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    if symmetric && j < i {
                        continue;
                    }
                    if (s.next() + 1.0) / 2.0 >= density {
                        continue;
                    }
                    let v = match s.below(6) {
                        0 => 1.0,
                        1 => -1.0,
                        2 => 0.5,
                        3 => -0.5,
                        4 => -0.0,
                        _ => s.next(),
                    };
                    a[(i, j)] = v;
                    if symmetric {
                        a[(j, i)] = v;
                    }
                }
            }
            let b = a.inner(&x0).unwrap();
            constraints.push((a, b));
        }
        let settings = SdpSettings {
            max_iter: 400,
            ..Default::default()
        };
        let outcome = assert_matches_reference(&format!("seed {seed:#x}"), &c, constraints, &settings);
        prop_assert!(
            matches!(
                outcome,
                Ok(_) | Err(ConvexError::Infeasible | ConvexError::NonConvergence { .. })
            ),
            "unexpected outcome {outcome:?}"
        );
    }
}

/// `E_ii` diagonals and symmetric pairs `v·(E_ij + E_ji)` on pairwise
/// disjoint supports, with non-unit, mixed-sign values and right-hand
/// sides that the PSD point `x0` meets.
fn disjoint_problem(n: usize, s: &mut Stream) -> (Matrix, Vec<(Matrix, f64)>) {
    let c = random_psd(n, n, 0.1, s);
    let x0 = random_psd(n, 2.min(n), 0.3, s);
    let mut constraints = Vec::new();
    for i in 0..n {
        for j in i..n {
            // Leave about a third of the entries free.
            if s.below(3) == 0 {
                continue;
            }
            let v = match s.below(4) {
                0 => -1.0,
                1 => 2.5,
                2 => -0.375,
                _ => s.next(),
            };
            let mut a = Matrix::zeros(n, n);
            a[(i, j)] = v;
            a[(j, i)] = v;
            let b = a.inner(&x0).unwrap();
            constraints.push((a, b));
        }
    }
    (c, constraints)
}

#[test]
fn disjoint_mixed_sign_sets_match_the_dense_reference() {
    for &n in &[2usize, 4, 7, 12] {
        for seed in 0..3u64 {
            let mut s = Stream(0xD15_0000 + 17 * n as u64 + seed);
            let (c, constraints) = disjoint_problem(n, &mut s);
            let sol = assert_matches_reference(
                &format!("disjoint n={n} seed={seed}"),
                &c,
                constraints,
                &SdpSettings::default(),
            );
            assert!(sol.is_ok(), "disjoint n={n} seed={seed}: {sol:?}");
        }
    }
}

#[test]
fn block_diagonal_trace_min_with_zero_off_diagonals_matches_the_dense_reference() {
    // Every off-block constraint has b = +0.0 and meets X = 0 there, so
    // residuals of exactly zero occur: +0.0 with the `E_ij + E_ji` pairs,
    // -0.0 with the negated pairs (a `-1·(+0.0)` gather sums to -0.0).
    for blocks in [&[3usize, 4][..], &[2, 5, 3][..]] {
        let n: usize = blocks.iter().sum();
        let mut s = Stream(0xB10C + n as u64);
        let mut r_s = Matrix::zeros(n, n);
        let mut start = 0;
        for &size in blocks {
            let block = random_psd(size, 2.min(size), 0.4, &mut s);
            for i in 0..size {
                for j in 0..size {
                    r_s[(start + i, start + j)] = block[(i, j)];
                }
            }
            start += size;
        }
        let (c, constraints) = trace_min_problem(&r_s);
        let negated = constraints
            .iter()
            .map(|(a, b)| (a.clone().scale(-1.0), 0.0 - b))
            .collect();
        for (label, constraints) in [("pairs", constraints), ("negated pairs", negated)] {
            let label = format!("block-diagonal {blocks:?} {label}");
            let sol = assert_matches_reference(&label, &c, constraints, &SdpSettings::default());
            assert!(sol.is_ok(), "{label}: {sol:?}");
        }
    }
}

#[test]
fn trace_min_at_n32_matches_the_dense_reference() {
    let n = 32;
    let mut s = Stream(0x7A11_0032);
    let mut r_s = random_psd(n, 2, 0.0, &mut s);
    for i in 0..n {
        r_s[(i, i)] += 0.5 + 0.5 * s.next().abs();
    }
    let (c, constraints) = trace_min_problem(&r_s);
    let sol = assert_matches_reference("trace-min n=32", &c, constraints, &SdpSettings::default());
    assert!(sol.is_ok(), "trace-min n=32: {sol:?}");
}

#[test]
fn degenerate_disjoint_constraints_are_infeasible_on_both_sides() {
    // One constraint's Gram entry is under the pivot tolerance, or
    // overflows to +inf; the other constraints stay disjoint from it.
    let n = 4;
    for (label, v) in [("tiny", 1e-8), ("overflowing", 1e200)] {
        let mut s = Stream(0xDE6E);
        let (c, mut constraints) = disjoint_problem(n, &mut s);
        let mut a = Matrix::zeros(n, n);
        a[(3, 3)] = v;
        constraints.retain(|(b, _)| b[(3, 3)] == 0.0);
        constraints.push((a, 1.0));
        let got = assert_matches_reference(label, &c, constraints, &SdpSettings::default());
        assert!(
            matches!(got, Err(ConvexError::Infeasible)),
            "{label}: {got:?}"
        );
    }
}

#[test]
fn a_nearly_disjoint_set_matches_the_dense_reference() {
    // The last constraint shares one entry with an earlier one, so the
    // Gram is not diagonal.
    let n = 5;
    let mut s = Stream(0x0E4_1A9);
    let (c, mut constraints) = disjoint_problem(n, &mut s);
    let x0 = random_psd(n, 2, 0.3, &mut s);
    let (shared, _) = constraints[constraints.len() / 2].clone();
    let k = shared.as_slice().iter().position(|&v| v != 0.0).unwrap();
    let mut a = Matrix::zeros(n, n);
    a.as_mut_slice()[k] = 0.5;
    let (i, j) = (k / n, k % n);
    a[(j, i)] = 0.5;
    let free = (0..n)
        .find(|&d| constraints.iter().all(|(b, _)| b[(d, d)] == 0.0) && d != i)
        .unwrap_or(i);
    a[(free, free)] -= 1.25;
    let b = a.inner(&x0).unwrap();
    constraints.push((a, b));
    let sol = assert_matches_reference("nearly disjoint", &c, constraints, &SdpSettings::default());
    assert!(
        matches!(sol, Ok(_) | Err(ConvexError::NonConvergence { .. })),
        "nearly disjoint: {sol:?}"
    );
}
