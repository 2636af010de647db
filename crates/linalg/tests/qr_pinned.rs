//! Bit-level pins of the Householder QR.
//!
//! The unit tests check `Q·R = A` and the least-squares residual within a
//! tolerance, so a change that moved a single rounding would pass them.
//! These pins fail on any changed bit of `Q`, `R` or the least-squares
//! solution for tall inputs 31, 32 and 45 columns wide, with and without
//! an all-zero column (a skipped reflector).

use rcr_linalg::{LinalgError, Matrix};

fn fold(xs: &[f64]) -> u64 {
    xs.iter().fold(0u64, |h, x| h.rotate_left(7) ^ x.to_bits())
}

/// A tall `(n + 7) x n` input; `zero_col` names a column set to zero.
fn input(n: usize, zero_col: Option<usize>) -> Matrix {
    Matrix::from_fn(n + 7, n, |i, j| {
        if Some(j) == zero_col {
            0.0
        } else {
            ((i * 7 + j * 13) as f64 * 0.37).sin() + if i == j { 0.5 } else { 0.0 }
        }
    })
}

fn rhs(m: usize) -> Vec<f64> {
    (0..m).map(|i| (0.3 * i as f64).cos() - 0.25).collect()
}

#[test]
fn qr_factors_and_least_squares_are_pinned_bit_for_bit() {
    // Per width: (Q fold, R fold, least-squares fold) of the full-rank
    // input, then (Q fold, R fold) with column n - 13 zeroed.
    let expected: [(usize, [u64; 3], [u64; 2]); 3] = [
        (
            31,
            [
                0xa30d_dde3_1789_cfd3,
                0x6012_03a5_4fae_5baa,
                0x4fbd_e127_5582_cbe0,
            ],
            [0x7ac5_0ca7_4c67_be6c, 0x18da_12df_b3c9_d2f7],
        ),
        (
            32,
            [
                0xf39f_23d9_b7b6_5536,
                0x8706_0273_a6f9_f4e5,
                0xfabb_2167_fb09_c822,
            ],
            [0xb1c4_6df3_6091_dfb9, 0xa4cc_4558_90c8_64d1],
        ),
        (
            45,
            [
                0xf391_0e82_51dd_7a40,
                0x6d14_cfa0_1102_a6a6,
                0x17fb_061c_1e21_c22c,
            ],
            [0xd506_492a_ecf3_606f, 0x65e5_35c6_c2ac_8bad],
        ),
    ];
    for (n, full, zeroed) in expected {
        let qr = input(n, None).qr().unwrap();
        let x = qr.solve_least_squares(&rhs(n + 7)).unwrap();
        let got = [fold(qr.q().as_slice()), fold(qr.r().as_slice()), fold(&x)];
        assert_eq!(got, full, "n = {n}, full rank");

        let qr = input(n, Some(n - 13)).qr().unwrap();
        let got = [fold(qr.q().as_slice()), fold(qr.r().as_slice())];
        assert_eq!(got, zeroed, "n = {n}, zero column");
        assert!(matches!(
            qr.solve_least_squares(&rhs(n + 7)),
            Err(LinalgError::Singular)
        ));
    }
}
