//! Cross-crate integration: the §IV-C relaxation chain
//! (QCQP → RMP → TMP → SDP) built from real matrices flowing through
//! `rcr-linalg` → `rcr-convex`.

use rcr::convex::qcqp::{QcqpProblem, QcqpSettings, QuadraticForm};
use rcr::convex::rankmin::{synth_low_rank_plus_diag, trace_min_decompose};
use rcr::convex::sdp::{SdpProblem, SdpSettings};
use rcr::linalg::Matrix;

#[test]
fn qcqp_solution_is_feasible_and_optimal_against_grid() {
    // min ½‖x − (2, 1)‖² s.t. ‖x‖ ≤ 1: optimum is (2,1)/√5.
    let obj = QuadraticForm::new(Matrix::identity(2), vec![-2.0, -1.0], 0.0).unwrap();
    let ball = QuadraticForm::new(Matrix::identity(2), vec![0.0, 0.0], -0.5).unwrap();
    let prob = QcqpProblem::new(obj, vec![ball], None).unwrap();
    let sol = prob.solve(&QcqpSettings::default()).unwrap();
    let norm = (sol.x[0] * sol.x[0] + sol.x[1] * sol.x[1]).sqrt();
    assert!(norm <= 1.0 + 1e-6);
    let expected = [2.0 / 5.0f64.sqrt(), 1.0 / 5.0f64.sqrt()];
    assert!((sol.x[0] - expected[0]).abs() < 1e-4);
    assert!((sol.x[1] - expected[1]).abs() < 1e-4);
}

#[test]
fn nonconvex_rank_objective_rejected_but_sdp_relaxation_succeeds() {
    // The rank function cannot enter the QCQP solver (nonconvex gate), but
    // the trace relaxation solves the same decomposition as an SDP.
    let indefinite = QuadraticForm::new(Matrix::from_diag(&[1.0, -1.0]), vec![0.0; 2], 0.0);
    assert!(!indefinite.unwrap().is_convex(1e-9));

    let v = Matrix::from_rows(&[&[1.0], &[0.5], &[-2.0], &[1.5]]).unwrap();
    let d = [0.6, 0.8, 0.5, 0.9];
    let r_s = synth_low_rank_plus_diag(&v, &d).unwrap();
    let res = trace_min_decompose(&r_s, &SdpSettings::default()).unwrap();
    assert_eq!(res.rank, 1);
    let recon = &res.r_c + &res.r_n;
    assert!((&recon - &r_s).max_abs() < 1e-4);
}

#[test]
fn sdp_certificate_matches_eigen_analysis() {
    // min ⟨C, X⟩, tr X = 1, X ⪰ 0 equals λ_min(C); cross-check the SDP
    // against the eigensolver on a 4x4 instance.
    let c = Matrix::from_rows(&[
        &[2.0, 0.3, 0.0, 0.1],
        &[0.3, 1.5, 0.2, 0.0],
        &[0.0, 0.2, 3.0, 0.4],
        &[0.1, 0.0, 0.4, 2.5],
    ])
    .unwrap();
    let eig_min = c.symmetric_eigen().unwrap().eigenvalues()[0];
    let prob = SdpProblem::new(c, vec![(Matrix::identity(4), 1.0)]).unwrap();
    let sol = prob.solve(&SdpSettings::default()).unwrap();
    assert!(
        (sol.objective - eig_min).abs() < 1e-4,
        "sdp {} vs eigen {eig_min}",
        sol.objective
    );
}
