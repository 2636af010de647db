//! Blocked f64 GEMM/GEMV microkernels and fused vector primitives.
//!
//! All kernels preserve the per-output-element accumulation order of the
//! naive reference loops (see crate docs for the bit-identity contract):
//! every output element is a single sequential chain of adds in increasing
//! `k` order. The blocked GEMM keeps the reference implementation's
//! `a == 0.0` skip, which is observable under IEEE-754 (it suppresses
//! `0.0 * inf = NaN` and keeps `-0.0` outputs that a `+= 0.0 * b` pass
//! would flush to `+0.0`), so the skip is part of the contract, not an
//! optimisation detail.

/// Register-tile height: rows of the output computed per microkernel call.
/// Six rows of eight doubles keeps 12 four-wide accumulator registers
/// live with room left for the `b` row and the broadcast coefficient on
/// 16-register SIMD files, making the microkernel FMA-throughput-bound
/// rather than load-bound.
pub const MR: usize = 6;
/// Register-tile width: columns of the output computed per microkernel call.
pub const NR: usize = 8;
/// Cache-block depth: `k` is swept in panels of this many rank-1 updates so
/// the active slice of `b` stays resident in cache. Partial sums spill to
/// `out` between panels, exactly as the naive in-memory accumulation does,
/// so panelling never reorders the additions feeding one element.
const KC: usize = 256;

/// Reference GEMM: the pre-blocking naive i-k-j loop, kept verbatim as the
/// bit-identity oracle for tests and benches. Computes `out = a * b` where
/// `a` is `m x k`, `b` is `k x n`, both row-major; `out` is fully
/// overwritten.
///
/// # Panics
/// Panics in debug builds when slice lengths disagree with the dimensions.
pub fn gemm_naive(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k, "gemm_naive: a length mismatch");
    debug_assert_eq!(b.len(), k * n, "gemm_naive: b length mismatch");
    debug_assert_eq!(out.len(), m * n, "gemm_naive: out length mismatch");
    out.fill(0.0);
    for r in 0..m {
        for kk in 0..k {
            let av = a[r * k + kk];
            if av == 0.0 {
                continue;
            }
            let dst = &mut out[r * n..(r + 1) * n];
            let src = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in dst.iter_mut().zip(src) {
                *o += av * bv;
            }
        }
    }
}

/// Cache/register-blocked GEMM: `out = a * b`, bit-identical to
/// [`gemm_naive`].
///
/// The output is tiled into `MR x NR` register accumulators; within a tile
/// the `k` loop is innermost so each accumulator receives its additions in
/// increasing `k` order — the same chain the naive loop produces, just held
/// in registers instead of bouncing through memory. Rows of `b` are loaded
/// once per `MR` output rows instead of once per row, and `out` sees no
/// read-modify-write traffic inside a `k` panel.
///
/// `out` is fully overwritten; it does not need to be zeroed by the caller.
///
/// # Panics
/// Panics in debug builds when slice lengths disagree with the dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k, "gemm: a length mismatch");
    debug_assert_eq!(b.len(), k * n, "gemm: b length mismatch");
    debug_assert_eq!(out.len(), m * n, "gemm: out length mismatch");
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let mut k0 = 0;
    while k0 < k {
        let kend = (k0 + KC).min(k);
        let first_panel = k0 == 0;
        let mut r0 = 0;
        while r0 < m {
            let rh = MR.min(m - r0);
            let mut c0 = 0;
            if rh == MR && strip_nonzero(a, k, r0, k0, kend) {
                // Full-height tiles over an all-nonzero `a` strip: the
                // compile-time-sized, branch-free microkernel. Checking
                // the strip once per panel (instead of per `k` step, as
                // the reference does) keeps the `a == 0.0` skip out of
                // the hot loop entirely, which is what lets LLVM hold
                // every partial sum in a register. The column edge
                // (n % NR), the row edge (m % MR), and strips containing
                // exact zeros fall through to the generic tile below.
                while c0 + NR <= n {
                    tile_full(k, n, a, b, out, r0, c0, k0, kend, first_panel);
                    c0 += NR;
                }
            }
            while c0 < n {
                let nw = NR.min(n - c0);
                tile_edge(k, n, a, b, out, r0, c0, rh, nw, k0, kend, first_panel);
                c0 += NR;
            }
            r0 += MR;
        }
        k0 = kend;
    }
}

/// Whether the `MR`-row strip of `a` holds no exact zero in columns
/// `k0..kend`. When true, the reference `a == 0.0` skip can never fire in
/// this strip-panel, so the branch-free microkernel is bit-equivalent.
/// NaN coefficients return true (`NaN != 0.0`), which is correct: the
/// reference skip only ever elides exact zeros, never NaN.
#[inline]
fn strip_nonzero(a: &[f64], k: usize, r0: usize, k0: usize, kend: usize) -> bool {
    (0..MR).all(|ri| {
        let row = (r0 + ri) * k;
        a[row + k0..row + kend].iter().all(|&v| v != 0.0)
    })
}

/// `MR x NR` microkernel on a full interior tile whose `a` strip was
/// pre-checked to contain no exact zeros ([`strip_nonzero`]). Both tile
/// dimensions are compile-time constants and the `k` loop body has no
/// control flow at all, so the inner loops unroll into straight-line
/// vector code with every partial sum held in a register for the whole
/// panel — this is where the speedup over the naive row sweep comes from
/// (the naive loop re-reads and re-writes the `out` row once per `k`
/// step).
#[inline]
#[allow(clippy::too_many_arguments)] // flat slice-and-offset call from the blocked driver
fn tile_full(
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    r0: usize,
    c0: usize,
    k0: usize,
    kend: usize,
    first_panel: bool,
) {
    // One named accumulator array per output row (rather than a single
    // [[f64; NR]; MR]): scalar-replacement promotes each small
    // constant-indexed array into vector registers, where the 2-D form
    // was observed to spill every partial sum to the stack.
    let mut acc0 = [0.0f64; NR];
    let mut acc1 = [0.0f64; NR];
    let mut acc2 = [0.0f64; NR];
    let mut acc3 = [0.0f64; NR];
    let mut acc4 = [0.0f64; NR];
    let mut acc5 = [0.0f64; NR];
    if !first_panel {
        let base = r0 * n + c0;
        acc0.copy_from_slice(&out[base..base + NR]);
        acc1.copy_from_slice(&out[base + n..base + n + NR]);
        acc2.copy_from_slice(&out[base + 2 * n..base + 2 * n + NR]);
        acc3.copy_from_slice(&out[base + 3 * n..base + 3 * n + NR]);
        acc4.copy_from_slice(&out[base + 4 * n..base + 4 * n + NR]);
        acc5.copy_from_slice(&out[base + 5 * n..base + 5 * n + NR]);
    }
    // Per-row coefficient slices over the panel's k range: bounds are
    // established here once, so the loads inside the k loop are provably
    // in range and compile check-free.
    let ar0 = &a[r0 * k + k0..r0 * k + kend];
    let ar1 = &a[(r0 + 1) * k + k0..(r0 + 1) * k + kend];
    let ar2 = &a[(r0 + 2) * k + k0..(r0 + 2) * k + kend];
    let ar3 = &a[(r0 + 3) * k + k0..(r0 + 3) * k + kend];
    let ar4 = &a[(r0 + 4) * k + k0..(r0 + 4) * k + kend];
    let ar5 = &a[(r0 + 5) * k + k0..(r0 + 5) * k + kend];
    for (kk, (((((&a0, &a1), &a2), &a3), &a4), &a5)) in ar0
        .iter()
        .zip(ar1)
        .zip(ar2)
        .zip(ar3)
        .zip(ar4)
        .zip(ar5)
        .enumerate()
    {
        let boff = (k0 + kk) * n + c0;
        let brow = &b[boff..boff + NR];
        for t in 0..NR {
            acc0[t] += a0 * brow[t];
            acc1[t] += a1 * brow[t];
            acc2[t] += a2 * brow[t];
            acc3[t] += a3 * brow[t];
            acc4[t] += a4 * brow[t];
            acc5[t] += a5 * brow[t];
        }
    }
    let base = r0 * n + c0;
    out[base..base + NR].copy_from_slice(&acc0);
    out[base + n..base + n + NR].copy_from_slice(&acc1);
    out[base + 2 * n..base + 2 * n + NR].copy_from_slice(&acc2);
    out[base + 3 * n..base + 3 * n + NR].copy_from_slice(&acc3);
    out[base + 4 * n..base + 4 * n + NR].copy_from_slice(&acc4);
    out[base + 5 * n..base + 5 * n + NR].copy_from_slice(&acc5);
}

/// Generic tile for the `m % MR` / `n % NR` edges: identical accumulation
/// structure with runtime tile bounds.
#[inline]
#[allow(clippy::too_many_arguments)] // flat slice-and-offset call from the blocked driver
fn tile_edge(
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    r0: usize,
    c0: usize,
    rh: usize,
    nw: usize,
    k0: usize,
    kend: usize,
    first_panel: bool,
) {
    let mut acc = [[0.0f64; NR]; MR];
    if !first_panel {
        for (ri, accr) in acc.iter_mut().enumerate().take(rh) {
            let off = (r0 + ri) * n + c0;
            accr[..nw].copy_from_slice(&out[off..off + nw]);
        }
    }
    for kk in k0..kend {
        let brow = &b[kk * n + c0..kk * n + c0 + nw];
        for (ri, accr) in acc.iter_mut().enumerate().take(rh) {
            let av = a[(r0 + ri) * k + kk];
            if av == 0.0 {
                continue;
            }
            for (t, &bv) in accr[..nw].iter_mut().zip(brow) {
                *t += av * bv;
            }
        }
    }
    for (ri, accr) in acc.iter().enumerate().take(rh) {
        let off = (r0 + ri) * n + c0;
        out[off..off + nw].copy_from_slice(&accr[..nw]);
    }
}

/// Edge of the square block of `a` that [`gemv`] transposes per step:
/// eight rows (eight independent chains), eight columns at a time.
const GEMV_TILE: usize = 8;

/// Matrix–vector product `out = a * x` (`a` is `m x n`, row-major).
///
/// Bit-identical to the naive per-row `Σ a[r][c] * x[c]` fold: each output
/// element is a single sequential chain seeded with `-0.0` (matching std's
/// `Sum<f64>`, see [`dot`]) with **no** zero-skip (matching
/// `Matrix::matvec`). Rows go in tiles of eight. Each step loads an 8×8
/// block a row at a time and transposes it into eight column arrays, so
/// column `c`'s eight entries form one lane vector; the eight chains then
/// take their `a[r][c]·x[c]` terms column by column, side by side in SIMD
/// lanes, each chain still in ascending `c`. The `n mod 8` columns left
/// over run one at a time, and the `m mod 8` rows left over one [`dot`]
/// each.
///
/// # Panics
/// Panics in debug builds when slice lengths disagree with the dimensions.
pub fn gemv(m: usize, n: usize, a: &[f64], x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * n, "gemv: a length mismatch");
    debug_assert_eq!(x.len(), n, "gemv: x length mismatch");
    debug_assert_eq!(out.len(), m, "gemv: out length mismatch");
    let mut r = 0;
    while r + GEMV_TILE <= m {
        let tile = &a[r * n..(r + GEMV_TILE) * n];
        let mut s = [-0.0f64; GEMV_TILE];
        let mut c = 0;
        while c + GEMV_TILE <= n {
            // Indexed loops, not zips: this is the form LLVM turns into
            // in-register shuffles and whole-tile SIMD adds.
            let mut cols = [[0.0f64; GEMV_TILE]; GEMV_TILE];
            for ri in 0..GEMV_TILE {
                let mut row = [0.0f64; GEMV_TILE];
                row.copy_from_slice(&tile[ri * n + c..ri * n + c + GEMV_TILE]);
                for k in 0..GEMV_TILE {
                    cols[k][ri] = row[k];
                }
            }
            let mut xs = [0.0f64; GEMV_TILE];
            xs.copy_from_slice(&x[c..c + GEMV_TILE]);
            for k in 0..GEMV_TILE {
                for ri in 0..GEMV_TILE {
                    s[ri] += cols[k][ri] * xs[k];
                }
            }
            c += GEMV_TILE;
        }
        for (k, &xv) in x.iter().enumerate().skip(c) {
            for (ri, sr) in s.iter_mut().enumerate() {
                *sr += tile[ri * n + k] * xv;
            }
        }
        out[r..r + GEMV_TILE].copy_from_slice(&s);
        r += GEMV_TILE;
    }
    while r < m {
        out[r] = dot(&a[r * n..(r + 1) * n], x);
        r += 1;
    }
}

/// Fused biased matrix–vector product `out[r] = bias[r] + Σ a[r][c] * x[c]`.
///
/// Matches the accumulation order of `rcr-nn`'s `Linear::forward`: each
/// output chain *starts at the bias value* and adds terms in increasing
/// column order (note this differs from computing `gemv` then adding the
/// bias, which would round differently).
///
/// # Panics
/// Panics in debug builds when slice lengths disagree with the dimensions.
pub fn gemv_bias(m: usize, n: usize, a: &[f64], x: &[f64], bias: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * n, "gemv_bias: a length mismatch");
    debug_assert_eq!(x.len(), n, "gemv_bias: x length mismatch");
    debug_assert_eq!(bias.len(), m, "gemv_bias: bias length mismatch");
    debug_assert_eq!(out.len(), m, "gemv_bias: out length mismatch");
    let mut r = 0;
    while r + 4 <= m {
        let a0 = &a[r * n..(r + 1) * n];
        let a1 = &a[(r + 1) * n..(r + 2) * n];
        let a2 = &a[(r + 2) * n..(r + 3) * n];
        let a3 = &a[(r + 3) * n..(r + 4) * n];
        let (mut s0, mut s1, mut s2, mut s3) = (bias[r], bias[r + 1], bias[r + 2], bias[r + 3]);
        for ((((&v0, &v1), &v2), &v3), &xv) in a0.iter().zip(a1).zip(a2).zip(a3).zip(x) {
            s0 += v0 * xv;
            s1 += v1 * xv;
            s2 += v2 * xv;
            s3 += v3 * xv;
        }
        out[r] = s0;
        out[r + 1] = s1;
        out[r + 2] = s2;
        out[r + 3] = s3;
        r += 4;
    }
    while r < m {
        let mut s = bias[r];
        for (&av, &xv) in a[r * n..(r + 1) * n].iter().zip(x) {
            s += av * xv;
        }
        out[r] = s;
        r += 1;
    }
}

/// Transposed matrix–vector product `out = a^T * x` (`a` is `m x n`).
///
/// Bit-identical to `Matrix::matvec_t`: `out` is zeroed, then rows are
/// accumulated in increasing `r` order with the `x[r] == 0.0` skip
/// preserved (the skip is observable — see the crate docs).
///
/// # Panics
/// Panics in debug builds when slice lengths disagree with the dimensions.
pub fn gemv_t(m: usize, n: usize, a: &[f64], x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * n, "gemv_t: a length mismatch");
    debug_assert_eq!(x.len(), m, "gemv_t: x length mismatch");
    debug_assert_eq!(out.len(), n, "gemv_t: out length mismatch");
    out.fill(0.0);
    for r in 0..m {
        let xr = x[r];
        if xr == 0.0 {
            continue;
        }
        axpy(xr, &a[r * n..(r + 1) * n], out);
    }
}

/// Sequential dot product `Σ a[i] * b[i]`, folded from `-0.0`.
///
/// Deliberately a single accumulator: splitting into multiple chains would
/// change rounding and break the bit-identity contract. The fold seed is
/// `-0.0` — the IEEE-754 additive identity — because that is what std's
/// `Sum<f64>` uses, so an all-`-0.0` product row yields `-0.0` here exactly
/// as it does from the `.sum()` folds this kernel replaces (a `+0.0` seed
/// would flush it to `+0.0`).
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut s = -0.0;
    for (&x, &y) in a.iter().zip(b) {
        s += x * y;
    }
    s
}

/// `y[i] += alpha * x[i]`.
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Element-wise product `out[i] = a[i] * b[i]` (frame windowing).
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn mul_into(a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len(), "mul_into length mismatch");
    debug_assert_eq!(a.len(), out.len(), "mul_into out length mismatch");
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x * y;
    }
}

/// Fused `norm_inf(a - b)`: `max_i |a[i] - b[i]|` folded from `0.0` with
/// `f64::max` (NaN differences are ignored, matching
/// `vector::norm_inf(&vector::sub(a, b))` without the intermediate
/// allocation).
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn norm_inf_diff(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "norm_inf_diff length mismatch");
    let mut m = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        m = m.max((x - y).abs());
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill_det(buf: &mut [f64], seed: u64) {
        // splitmix64-derived values in [-1, 1); deterministic, no RNG dep.
        let mut state = seed;
        for v in buf.iter_mut() {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            *v = (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
        }
    }

    #[test]
    fn gemm_matches_naive_on_edge_shapes() {
        // Shapes straddling the MR=4 / NR=8 / KC=256 block boundaries.
        let shapes = [
            (1, 1, 1),
            (1, 7, 1),
            (1, 1, 9),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 9),
            (8, 3, 17),
            (4, 257, 8),
            (13, 300, 11),
        ];
        for &(m, k, n) in &shapes {
            let mut a = vec![0.0; m * k];
            let mut b = vec![0.0; k * n];
            fill_det(&mut a, (m * 1000 + k * 10 + n) as u64);
            fill_det(&mut b, (n * 1000 + k * 10 + m) as u64);
            // Sprinkle exact zeros so the skip path is exercised.
            for (i, v) in a.iter_mut().enumerate() {
                if i % 5 == 0 {
                    *v = 0.0;
                }
            }
            let mut want = vec![0.0; m * n];
            let mut got = vec![f64::NAN; m * n]; // gemm must fully overwrite
            gemm_naive(m, k, n, &a, &b, &mut want);
            gemm(m, k, n, &a, &b, &mut got);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "({m},{k},{n})");
            }
        }
    }

    #[test]
    fn gemm_k_zero_zeroes_out() {
        let mut out = vec![f64::NAN; 6];
        gemm(2, 0, 3, &[], &[], &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gemm_zero_skip_preserves_nan_semantics() {
        // 0.0 * inf would be NaN; the skip keeps the output finite, and the
        // blocked kernel must agree with the naive reference exactly.
        let a = [0.0, 1.0];
        let b = [f64::INFINITY, -1.0];
        let mut want = [f64::NAN];
        let mut got = [f64::NAN];
        gemm_naive(1, 2, 1, &a, &b, &mut want);
        gemm(1, 2, 1, &a, &b, &mut got);
        assert_eq!(want[0], -1.0);
        assert_eq!(got[0].to_bits(), want[0].to_bits());
    }

    #[test]
    fn gemv_matches_fold() {
        for m in [1usize, 3, 4, 5, 9] {
            let n = 7;
            let mut a = vec![0.0; m * n];
            let mut x = vec![0.0; n];
            fill_det(&mut a, m as u64);
            fill_det(&mut x, 99);
            let mut out = vec![f64::NAN; m];
            gemv(m, n, &a, &x, &mut out);
            for r in 0..m {
                let want: f64 = a[r * n..(r + 1) * n]
                    .iter()
                    .zip(&x)
                    .map(|(p, q)| p * q)
                    .sum();
                assert_eq!(out[r].to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn gemv_bias_starts_chain_at_bias() {
        // bias + a*x must round as ((bias + t0) + t1)..., not gemv + bias.
        let a = [1e-17, 1.0];
        let x = [1.0, 1.0];
        let bias = [1.0];
        let mut out = [0.0];
        gemv_bias(1, 2, &a, &x, &bias, &mut out);
        let want = (1.0f64 + 1e-17) + 1.0;
        assert_eq!(out[0].to_bits(), want.to_bits());
    }

    #[test]
    fn gemv_t_skips_zero_coefficients() {
        let a = [f64::INFINITY, 1.0, 2.0, 3.0];
        let x = [0.0, 2.0];
        let mut out = [f64::NAN; 2];
        gemv_t(2, 2, &a, &x, &mut out);
        assert_eq!(out, [4.0, 6.0]);
    }

    #[test]
    fn fused_helpers_match_composition() {
        let a = [1.0, -3.5, 2.0];
        let b = [0.5, -3.0, 7.0];
        assert_eq!(dot(&a, &b), 1.0 * 0.5 + (-3.5) * (-3.0) + 2.0 * 7.0);
        let mut y = [1.0, 1.0, 1.0];
        axpy(2.0, &a, &mut y);
        assert_eq!(y, [3.0, -6.0, 5.0]);
        let mut prod = [0.0; 3];
        mul_into(&a, &b, &mut prod);
        assert_eq!(prod, [0.5, 10.5, 14.0]);
        assert_eq!(norm_inf_diff(&a, &b), 5.0);
        assert_eq!(norm_inf_diff(&[], &[]), 0.0);
    }
}
