//! Property-based invariants of the convex solvers.

use proptest::prelude::*;
use rcr_convex::qp::{solve_box_qp, QpSettings};
use rcr_linalg::{vector, Matrix};

fn spd(entries: &[f64], n: usize) -> Matrix {
    let g = Matrix::from_vec(n, n, entries.to_vec()).unwrap();
    let mut p = g.transpose().matmul(&g).unwrap().scale(1.0 / n as f64);
    for i in 0..n {
        p[(i, i)] += 0.5;
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn box_qp_solution_feasible_and_locally_optimal(
        entries in prop::collection::vec(-1.5f64..1.5, 9),
        q in prop::collection::vec(-2.0f64..2.0, 3),
    ) {
        let p = spd(&entries, 3);
        let sol = solve_box_qp(
            p.clone(),
            q.clone(),
            vec![-1.0; 3],
            vec![1.0; 3],
            &QpSettings::default(),
        )
        .unwrap();
        // Feasible.
        for &xi in &sol.x {
            prop_assert!((-1.0 - 1e-6..=1.0 + 1e-6).contains(&xi));
        }
        // No interior coordinate descent direction: projected gradient ~ 0.
        let grad = {
            let mut g = p.matvec(&sol.x).unwrap();
            vector::axpy(1.0, &q, &mut g);
            g
        };
        for (xi, gi) in sol.x.iter().zip(&grad) {
            let proj = if *xi <= -1.0 + 1e-5 {
                gi.min(0.0) // pushing further out is blocked
            } else if *xi >= 1.0 - 1e-5 {
                gi.max(0.0)
            } else {
                *gi
            };
            prop_assert!(proj.abs() < 1e-3, "projected gradient {proj} at x={xi}");
        }
    }
}
