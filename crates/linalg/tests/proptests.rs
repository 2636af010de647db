//! Property-based invariants of the linear-algebra kernels.

use proptest::prelude::*;
use rcr_linalg::{Cholesky, Matrix};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cholesky_solves_spd_systems(
        entries in prop::collection::vec(-1.5f64..1.5, 12),
        rhs in prop::collection::vec(-3.0f64..3.0, 3),
    ) {
        // A = GᵀG + I is SPD for any G.
        let g = Matrix::from_vec(4, 3, entries).unwrap();
        let a = {
            let gtg = g.transpose().matmul(&g).unwrap();
            &gtg + &Matrix::identity(3)
        };
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve(&rhs).unwrap();
        let r = a.matvec(&x).unwrap();
        for (got, want) in r.iter().zip(&rhs) {
            prop_assert!((got - want).abs() < 1e-8);
        }
        // L Lᵀ reconstructs A.
        let l = ch.factor();
        let recon = l.matmul(&l.transpose()).unwrap();
        prop_assert!((&recon - &a).max_abs() < 1e-9);
    }

    #[test]
    fn cholesky_solve_meets_the_normwise_backward_error_bound(
        n in 1usize..=64,
        entries in prop::collection::vec(-1.0f64..1.0, 64 * 64),
        rhs in prop::collection::vec(-3.0f64..3.0, 64),
        log_delta in -6.0f64..0.0,
    ) {
        // A = GᵀG/n + δI is SPD; δ down to 1e-6 makes it ill-conditioned.
        let g = Matrix::from_vec(n, n, entries[..n * n].to_vec()).unwrap();
        let mut a = g.transpose().matmul(&g).unwrap().scale(1.0 / n as f64);
        for i in 0..n {
            a[(i, i)] += 10f64.powf(log_delta);
        }
        let b = &rhs[..n];
        let x = Cholesky::new(&a).unwrap().solve(b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let inf = |v: &[f64]| v.iter().fold(0.0f64, |m, e| m.max(e.abs()));
        let resid = inf(&b.iter().zip(&ax).map(|(p, q)| p - q).collect::<Vec<_>>());
        // Higham, Thm 10.4: (A + ΔA)x = b with |ΔA| ≤ γ(3n+1)|L||Lᵀ|, and
        // every entry of |L||Lᵀ| is at most max_i a_ii (Cauchy–Schwarz);
        // forming b − A·x adds γ(n+1)(‖b‖∞ + ‖A‖∞‖x‖∞).
        let gamma = |k: usize| {
            let u = k as f64 * f64::EPSILON / 2.0;
            u / (1.0 - u)
        };
        let max_diag = (0..n).fold(0.0f64, |m, i| m.max(a[(i, i)]));
        let bound = gamma(3 * n + 1) * n as f64 * max_diag * inf(&x)
            + gamma(n + 1) * (inf(b) + a.inf_norm() * inf(&x));
        prop_assert!(resid <= bound, "n = {}: ‖b − Ax‖∞ = {:e} > {:e}", n, resid, bound);
    }

    #[test]
    fn eigen_reconstruction_and_trace(entries in prop::collection::vec(-2.0f64..2.0, 9)) {
        let a = Matrix::from_vec(3, 3, entries).unwrap().symmetrize().unwrap();
        let e = a.symmetric_eigen().unwrap();
        let v = e.eigenvectors();
        let vd = Matrix::from_fn(3, 3, |r, c| v[(r, c)] * e.eigenvalues()[c]);
        let recon = vd.matmul(&v.transpose()).unwrap();
        prop_assert!((&recon - &a).max_abs() < 1e-8);
        let sum: f64 = e.eigenvalues().iter().sum();
        prop_assert!((sum - a.trace()).abs() < 1e-8);
        // Eigenvalues ascend.
        for w in e.eigenvalues().windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn qr_factors_are_consistent(entries in prop::collection::vec(-2.0f64..2.0, 12)) {
        let a = Matrix::from_vec(4, 3, entries).unwrap();
        let qr = a.qr().unwrap();
        let recon = qr.q().matmul(qr.r()).unwrap();
        prop_assert!((&recon - &a).max_abs() < 1e-9);
        let qtq = qr.q().transpose().matmul(qr.q()).unwrap();
        prop_assert!((&qtq - &Matrix::identity(3)).max_abs() < 1e-9);
    }

    #[test]
    fn operator_norms_bound_action(
        entries in prop::collection::vec(-2.0f64..2.0, 9),
        x in prop::collection::vec(-1.0f64..1.0, 3),
    ) {
        // ‖Ax‖∞ ≤ ‖A‖∞ ‖x‖∞.
        let a = Matrix::from_vec(3, 3, entries).unwrap();
        let ax = a.matvec(&x).unwrap();
        let lhs = ax.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let xinf = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        prop_assert!(lhs <= a.inf_norm() * xinf + 1e-12);
    }
}
