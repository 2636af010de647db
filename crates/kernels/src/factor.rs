//! Blocked, panel-based dense factorizations on top of the GEMM-style
//! register tiling: right-looking Cholesky, Householder QR, and a
//! tridiagonalization + implicit-QL symmetric eigensolver.
//!
//! ## Bit-identity
//!
//! The Cholesky and QR kernels preserve the per-output-element operation
//! chains of the unblocked reference loops (`cholesky_unblocked`,
//! `qr_unblocked` — themselves transcriptions of the historical
//! `rcr-linalg` implementations). The key observation is that an f64
//! store/load round trip is exact, so a right-looking trailing update that
//! *continues* an element's subtraction chain in memory (`a[i][j] -=
//! l[i][k]·l[j][k]`, `k` ascending) produces the same bits as the
//! one-pass left-looking chain held in a register. Blocking therefore only
//! changes *which* elements are in flight, never the rounding sequence
//! feeding one element. The eigensolver's blocked front end strips its
//! symmetric matvec and rank-2 update across row bands — per-element
//! chains are row-local, so banding is likewise a pure scheduling choice.
//! All of this is pinned bitwise by the proptests in `tests/proptests.rs`.
//!
//! ## Allocation
//!
//! Cholesky uses fixed-size stack tiles only. QR and the eigensolver check
//! their panel/accumulation workspaces out of a caller-provided
//! [`Scratch`] pool (2-D panels via [`Scratch::take_mat`]), so steady-state
//! repeated factorizations perform no heap allocation.

use crate::scratch::Scratch;

/// Panel width for the blocked factorizations. Narrow enough that a
/// `FACTOR_NB x NR` pack tile fits in L1 alongside the accumulators, wide
/// enough that the O(n²·nb) trailing updates dominate the O(n·nb²) panel
/// work.
pub const FACTOR_NB: usize = 32;

/// Register-tile height of the symmetric rank-k trailing update.
const SYRK_MR: usize = 4;
/// Register-tile width of the symmetric rank-k trailing update.
const SYRK_NR: usize = 8;

/// Column-tile width used when applying Householder reflectors to a
/// trailing block: reflectors are applied one at a time (preserving each
/// element's operation chain) but vectorized across this many independent
/// columns.
const QR_NC: usize = 8;

// ---------------------------------------------------------------------
// Cholesky
// ---------------------------------------------------------------------

/// Unblocked in-place Cholesky of the lower triangle of `a` (`n x n`,
/// row-major with leading dimension `ld >= n`): on success the lower
/// triangle holds `L` with `A = L·Lᵀ`. Only the lower triangle (diagonal
/// included) is read or written; the strict upper triangle is untouched.
///
/// This is the bit-identity oracle: a verbatim transcription of the
/// left-looking loop the `rcr-linalg` wrapper historically ran, on flat
/// slices. A pivot `d <= tol` aborts with `Err(j)`, `j` being the *first*
/// non-positive pivot column (the loop returns immediately, so no later
/// pivot can shadow it).
pub fn cholesky_unblocked(a: &mut [f64], n: usize, ld: usize, tol: f64) -> Result<(), usize> {
    debug_assert!(ld >= n && a.len() >= n.saturating_sub(1) * ld + n);
    for j in 0..n {
        let mut d = a[j * ld + j];
        for k in 0..j {
            let l = a[j * ld + k];
            d -= l * l;
        }
        if d <= tol {
            return Err(j);
        }
        let dj = d.sqrt();
        a[j * ld + j] = dj;
        for i in (j + 1)..n {
            let mut s = a[i * ld + j];
            for k in 0..j {
                s -= a[i * ld + k] * a[j * ld + k];
            }
            a[i * ld + j] = s / dj;
        }
    }
    Ok(())
}

/// Blocked right-looking Cholesky, bit-identical to
/// [`cholesky_unblocked`] (panel width [`FACTOR_NB`]).
///
/// Each panel is factored with the left-looking loop restricted to
/// within-panel `k`, then the trailing submatrix absorbs the panel's
/// contribution through a register-tiled symmetric rank-`nb` update that
/// *continues* each element's subtraction chain in memory. Every element's
/// chain is therefore `k = 0..j` ascending, exactly as in the reference.
///
/// # Errors
/// `Err(j)` at the first column whose pivot is `<= tol`; the reported
/// index is identical to the unblocked path's.
pub fn cholesky(a: &mut [f64], n: usize, ld: usize, tol: f64) -> Result<(), usize> {
    cholesky_with_block(a, n, ld, tol, FACTOR_NB)
}

/// [`cholesky`] with an explicit panel width — exposed so tests and
/// benches can pin blocked-vs-unblocked bit-identity across panel sizes
/// (`nb >= n` degenerates to the unblocked loop).
pub fn cholesky_with_block(
    a: &mut [f64],
    n: usize,
    ld: usize,
    tol: f64,
    nb: usize,
) -> Result<(), usize> {
    debug_assert!(ld >= n && a.len() >= n.saturating_sub(1) * ld + n);
    let nb = nb.max(1);
    let mut p = 0;
    while p < n {
        let pb = nb.min(n - p);
        // Factor the tall panel (diagonal block + rows below) with the
        // reference loop over within-panel k; contributions from earlier
        // panels were already subtracted by their trailing updates.
        for j in p..p + pb {
            let mut d = a[j * ld + j];
            for k in p..j {
                let l = a[j * ld + k];
                d -= l * l;
            }
            if d <= tol {
                return Err(j);
            }
            let dj = d.sqrt();
            a[j * ld + j] = dj;
            for i in (j + 1)..n {
                let mut s = a[i * ld + j];
                for k in p..j {
                    s -= a[i * ld + k] * a[j * ld + k];
                }
                a[i * ld + j] = s / dj;
            }
        }
        // Trailing update: A[t.., t..] -= L[t.., p..p+pb] · L[t.., p..p+pb]ᵀ
        // (lower triangle only), chains continued in increasing k.
        syrk_sub_lower(a, n, ld, p, pb);
        p += pb;
    }
    Ok(())
}

/// Symmetric rank-`pb` trailing update for the blocked Cholesky: for every
/// lower-triangle element `(i, j)` with `i, j >= p + pb`,
/// `a[i][j] -= Σ_k a[i][k]·a[j][k]` over panel columns `k = p..p+pb` in
/// ascending order. Register-tiled `SYRK_MR x SYRK_NR`; accumulators are
/// seeded from `out` so the subtraction chain continues the element's
/// existing partial result, and there is deliberately *no* zero skip — the
/// reference loop has none.
fn syrk_sub_lower(a: &mut [f64], n: usize, ld: usize, p: usize, pb: usize) {
    let t = p + pb;
    let mut j0 = t;
    while j0 < n {
        let jw = SYRK_NR.min(n - j0);
        // Rows straddling the diagonal tile: scalar triangular loop.
        for i in j0..(j0 + jw).min(n) {
            for j in j0..=i {
                let mut s = a[i * ld + j];
                for k in p..t {
                    s -= a[i * ld + k] * a[j * ld + k];
                }
                a[i * ld + j] = s;
            }
        }
        // Full tiles strictly below the diagonal block.
        let mut i0 = j0 + jw;
        while i0 < n {
            let ih = SYRK_MR.min(n - i0);
            if ih == SYRK_MR && jw == SYRK_NR {
                syrk_tile_full(a, ld, p, pb, i0, j0);
            } else {
                syrk_tile_edge(a, ld, p, pb, i0, j0, ih, jw);
            }
            i0 += SYRK_MR;
        }
        j0 += SYRK_NR;
    }
}

/// Full `SYRK_MR x SYRK_NR` register tile of [`syrk_sub_lower`]. Named
/// accumulator rows (not a 2-D array) so LLVM performs scalar replacement
/// and keeps every partial chain in a register for the whole `k` sweep.
#[inline]
fn syrk_tile_full(a: &mut [f64], ld: usize, p: usize, pb: usize, i0: usize, j0: usize) {
    let mut acc0 = [0.0f64; SYRK_NR];
    let mut acc1 = [0.0f64; SYRK_NR];
    let mut acc2 = [0.0f64; SYRK_NR];
    let mut acc3 = [0.0f64; SYRK_NR];
    for (jj, slot) in acc0.iter_mut().enumerate() {
        *slot = a[i0 * ld + j0 + jj];
    }
    for (jj, slot) in acc1.iter_mut().enumerate() {
        *slot = a[(i0 + 1) * ld + j0 + jj];
    }
    for (jj, slot) in acc2.iter_mut().enumerate() {
        *slot = a[(i0 + 2) * ld + j0 + jj];
    }
    for (jj, slot) in acc3.iter_mut().enumerate() {
        *slot = a[(i0 + 3) * ld + j0 + jj];
    }
    for k in p..p + pb {
        let a0 = a[i0 * ld + k];
        let a1 = a[(i0 + 1) * ld + k];
        let a2 = a[(i0 + 2) * ld + k];
        let a3 = a[(i0 + 3) * ld + k];
        for jj in 0..SYRK_NR {
            let b = a[(j0 + jj) * ld + k];
            acc0[jj] -= a0 * b;
            acc1[jj] -= a1 * b;
            acc2[jj] -= a2 * b;
            acc3[jj] -= a3 * b;
        }
    }
    for (jj, &v) in acc0.iter().enumerate() {
        a[i0 * ld + j0 + jj] = v;
    }
    for (jj, &v) in acc1.iter().enumerate() {
        a[(i0 + 1) * ld + j0 + jj] = v;
    }
    for (jj, &v) in acc2.iter().enumerate() {
        a[(i0 + 2) * ld + j0 + jj] = v;
    }
    for (jj, &v) in acc3.iter().enumerate() {
        a[(i0 + 3) * ld + j0 + jj] = v;
    }
}

/// Generic edge tile of [`syrk_sub_lower`] for partial heights/widths.
#[allow(clippy::too_many_arguments)]
#[inline]
fn syrk_tile_edge(
    a: &mut [f64],
    ld: usize,
    p: usize,
    pb: usize,
    i0: usize,
    j0: usize,
    ih: usize,
    jw: usize,
) {
    for ii in 0..ih {
        let i = i0 + ii;
        for jj in 0..jw {
            let j = j0 + jj;
            let mut s = a[i * ld + j];
            for k in p..p + pb {
                s -= a[i * ld + k] * a[j * ld + k];
            }
            a[i * ld + j] = s;
        }
    }
}

// ---------------------------------------------------------------------
// Householder QR
// ---------------------------------------------------------------------

/// Unblocked Householder QR of `r` (`m x n` row-major, `m >= n`), the
/// bit-identity oracle for the returned `R`.
///
/// On return the upper triangle of `r` holds `R` exactly as the historical
/// `rcr-linalg` loop computed it (the diagonal is produced by *applying*
/// the reflector to its own column, not by assigning `alpha`, so rounding
/// matches the reference bit for bit). The strict lower triangle stores
/// the tail of each Householder vector `v_k` (compact WY storage);
/// `vhead[k]` holds `v_k[k]` and `vtv[k]` holds `v_kᵀv_k` (`0.0` marks a
/// skipped/zero column). `vhead` and `vtv` must have length `n`.
pub fn qr_unblocked(r: &mut [f64], m: usize, n: usize, vhead: &mut [f64], vtv: &mut [f64]) {
    debug_assert!(m >= n && r.len() == m * n);
    debug_assert!(vhead.len() == n && vtv.len() == n);
    for k in 0..n {
        qr_householder_column(r, m, n, k, vhead, vtv);
        if vtv[k] == 0.0 {
            continue;
        }
        qr_apply_columns(r, m, n, k, k + 1, n, vhead, vtv);
    }
}

/// Blocked Householder QR with panel width [`FACTOR_NB`]: bit-identical
/// `R`/`V` to [`qr_unblocked`].
///
/// Within a panel, reflectors are formed and applied to the remaining
/// panel columns immediately (the reference order). The panel's `V` is
/// then packed into a contiguous [`Scratch::take_mat`] buffer and the
/// reflectors are replayed over the trailing columns in ascending `k`
/// order, vectorized across `QR_NC`-column tiles — each element still
/// sees the exact reference sequence of (dot, scale, subtract) operations,
/// the packing only improves locality of the `V` reads.
pub fn qr(r: &mut [f64], m: usize, n: usize, vhead: &mut [f64], vtv: &mut [f64], s: &mut Scratch) {
    qr_with_block(r, m, n, vhead, vtv, s, FACTOR_NB);
}

/// [`qr`] with an explicit panel width (`nb >= n` degenerates to the
/// unblocked loop plus a pack that is never replayed).
pub fn qr_with_block(
    r: &mut [f64],
    m: usize,
    n: usize,
    vhead: &mut [f64],
    vtv: &mut [f64],
    s: &mut Scratch,
    nb: usize,
) {
    debug_assert!(m >= n && r.len() == m * n);
    debug_assert!(vhead.len() == n && vtv.len() == n);
    let nb = nb.max(1);
    let mut p = 0;
    while p < n {
        let pb = nb.min(n - p);
        for k in p..p + pb {
            qr_householder_column(r, m, n, k, vhead, vtv);
            if vtv[k] == 0.0 {
                continue;
            }
            qr_apply_columns(r, m, n, k, k + 1, p + pb, vhead, vtv);
        }
        if p + pb < n {
            // Pack the panel's V rows contiguously: row kk holds v_{p+kk}
            // over matrix rows p..m at offsets (i - p); entries before the
            // reflector's own row are never read.
            let stride = m - p;
            let mut pv = s.take_mat(pb, stride, 0.0);
            for kk in 0..pb {
                let k = p + kk;
                if vtv[k] == 0.0 {
                    continue;
                }
                pv[kk * stride + (k - p)] = vhead[k];
                for i in (k + 1)..m {
                    pv[kk * stride + (i - p)] = r[i * n + k];
                }
            }
            let mut c0 = p + pb;
            while c0 < n {
                let cw = QR_NC.min(n - c0);
                qr_replay_panel(r, m, n, p, pb, c0, cw, &pv, stride, vtv);
                c0 += QR_NC;
            }
            s.give_mat(pv);
        }
        p += pb;
    }
}

/// Forms the Householder reflector for column `k` and applies it to that
/// column's diagonal entry — a verbatim transcription of the reference
/// loop's `c == k` pass, with the vector tail left *in place* below the
/// diagonal instead of being annihilated (the returned `R` is upper
/// triangular, so the subdiagonal garbage the reference produced there was
/// never observable).
fn qr_householder_column(
    r: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
    vhead: &mut [f64],
    vtv: &mut [f64],
) {
    let mut norm2 = 0.0;
    for i in k..m {
        norm2 += r[i * n + k] * r[i * n + k];
    }
    let norm = norm2.sqrt();
    if norm == 0.0 {
        vhead[k] = 0.0;
        vtv[k] = 0.0;
        return;
    }
    let rkk = r[k * n + k];
    let alpha = if rkk >= 0.0 { -norm } else { norm };
    let vk = rkk - alpha;
    // vᵀv with the reference's fold order: the leading zeros of the
    // full-length v contribute exact +0.0 terms, so starting the chain at
    // v[k]² reproduces the same bits.
    let mut t = 0.0;
    t += vk * vk;
    for i in (k + 1)..m {
        t += r[i * n + k] * r[i * n + k];
    }
    vhead[k] = vk;
    vtv[k] = t;
    if t == 0.0 {
        return;
    }
    // Reference `c == k` application: only the diagonal entry survives
    // into R; the subdiagonal keeps v's tail as storage.
    let mut dot = 0.0;
    dot += vk * rkk;
    for i in (k + 1)..m {
        dot += r[i * n + k] * r[i * n + k];
    }
    let f = 2.0 * dot / t;
    r[k * n + k] = rkk - f * vk;
}

/// Applies reflector `k` to columns `c0..c1` of `r`, reading `v` from its
/// in-place storage — the reference trailing loop verbatim.
#[allow(clippy::too_many_arguments)]
fn qr_apply_columns(
    r: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
    c0: usize,
    c1: usize,
    vhead: &[f64],
    vtv: &[f64],
) {
    let vk = vhead[k];
    for c in c0..c1 {
        let mut dot = 0.0;
        dot += vk * r[k * n + c];
        for i in (k + 1)..m {
            dot += r[i * n + k] * r[i * n + c];
        }
        let f = 2.0 * dot / vtv[k];
        r[k * n + c] -= f * vk;
        for i in (k + 1)..m {
            r[i * n + c] -= f * r[i * n + k];
        }
    }
}

/// Replays the packed panel's reflectors (ascending `k`) over one
/// `cw`-column tile of the trailing block. Per column the operation
/// sequence is identical to [`qr_apply_columns`]; the tile form exists so
/// the dot and update passes stream the tile rows once per reflector with
/// `V` reads coming from the contiguous pack.
#[allow(clippy::too_many_arguments)]
fn qr_replay_panel(
    r: &mut [f64],
    m: usize,
    n: usize,
    p: usize,
    pb: usize,
    c0: usize,
    cw: usize,
    pv: &[f64],
    stride: usize,
    vtv: &[f64],
) {
    for kk in 0..pb {
        let k = p + kk;
        if vtv[k] == 0.0 {
            continue;
        }
        let v = &pv[kk * stride..(kk + 1) * stride];
        let mut dots = [0.0f64; QR_NC];
        for i in k..m {
            let vi = v[i - p];
            let row = &r[i * n + c0..i * n + c0 + cw];
            for (jj, &x) in row.iter().enumerate() {
                dots[jj] += vi * x;
            }
        }
        let mut fs = [0.0f64; QR_NC];
        for jj in 0..cw {
            fs[jj] = 2.0 * dots[jj] / vtv[k];
        }
        for i in k..m {
            let vi = v[i - p];
            let row = &mut r[i * n + c0..i * n + c0 + cw];
            for (jj, x) in row.iter_mut().enumerate() {
                *x -= fs[jj] * vi;
            }
        }
    }
}

/// Accumulates the thin `Q` (`m x n`, row-major, fully overwritten) from a
/// factored `r`/`vhead`/`vtv` triple by applying the stored reflectors
/// backward onto a thin identity — `O(m·n²)` instead of the historical
/// `O(m²·n)` full-square accumulation. Shared by the blocked and unblocked
/// paths, so identical `V` storage yields identical `Q` bits.
pub fn qr_thin_q(r: &[f64], m: usize, n: usize, vhead: &[f64], vtv: &[f64], q: &mut [f64]) {
    debug_assert!(q.len() == m * n);
    q.fill(0.0);
    for i in 0..n {
        q[i * n + i] = 1.0;
    }
    for k in (0..n).rev() {
        if vtv[k] == 0.0 {
            continue;
        }
        let vk = vhead[k];
        // Columns below k are still unit vectors untouched by reflectors
        // j >= k (their dot with v_k is exactly zero), so start at k.
        let mut c0 = k;
        while c0 < n {
            let cw = QR_NC.min(n - c0);
            let mut dots = [0.0f64; QR_NC];
            {
                let row = &q[k * n + c0..k * n + c0 + cw];
                for (jj, &x) in row.iter().enumerate() {
                    dots[jj] += vk * x;
                }
            }
            for i in (k + 1)..m {
                let vi = r[i * n + k];
                let row = &q[i * n + c0..i * n + c0 + cw];
                for (jj, &x) in row.iter().enumerate() {
                    dots[jj] += vi * x;
                }
            }
            let mut fs = [0.0f64; QR_NC];
            for jj in 0..cw {
                fs[jj] = 2.0 * dots[jj] / vtv[k];
            }
            {
                let row = &mut q[k * n + c0..k * n + c0 + cw];
                for (jj, x) in row.iter_mut().enumerate() {
                    *x -= fs[jj] * vk;
                }
            }
            for i in (k + 1)..m {
                let vi = r[i * n + k];
                let row = &mut q[i * n + c0..i * n + c0 + cw];
                for (jj, x) in row.iter_mut().enumerate() {
                    *x -= fs[jj] * vi;
                }
            }
            c0 += QR_NC;
        }
    }
}

// ---------------------------------------------------------------------
// Symmetric eigensolver: Householder tridiagonalization + implicit QL
// ---------------------------------------------------------------------

/// Maximum implicit-QL iterations per eigenvalue before reporting
/// non-convergence.
const QL_MAX_ITER: usize = 30;

/// Symmetric eigendecomposition of `a` (`n x n` row-major, both triangles
/// populated): on success `a` holds the eigenvector matrix (column `c`
/// pairs with `vals[c]`) and `vals` the eigenvalues in ascending
/// IEEE-total order. Workspaces come from `s`; a warmed pool makes
/// repeated same-size calls allocation-free. Block width [`FACTOR_NB`].
///
/// # Errors
/// `Err(iterations)` if the QL iteration fails to converge (practically
/// unreachable for finite symmetric input).
pub fn eigh(a: &mut [f64], n: usize, vals: &mut [f64], s: &mut Scratch) -> Result<(), usize> {
    eigh_with_block(a, n, vals, s, FACTOR_NB)
}

/// [`eigh`] with an explicit row-band width for the tridiagonalization's
/// symmetric matvec and rank-2 update. Per-element chains are row-local,
/// so every band width produces bit-identical results — pinned by the
/// proptests, which is exactly what licenses the banding as a pure
/// locality optimisation.
pub fn eigh_with_block(
    a: &mut [f64],
    n: usize,
    vals: &mut [f64],
    s: &mut Scratch,
    nb: usize,
) -> Result<(), usize> {
    debug_assert!(a.len() == n * n && vals.len() == n);
    let nb = nb.max(1);
    if n == 0 {
        return Ok(());
    }
    let mut e = s.take_f64(n, 0.0);
    let mut tau = s.take_f64(n, 0.0);
    let mut w = s.take_f64(n, 0.0);
    let mut z = s.take_mat(n, n, 0.0);

    tridiagonalize(a, n, &mut e, &mut tau, &mut w, nb);
    for i in 0..n {
        vals[i] = a[i * n + i];
    }
    accumulate_tridiag_q(a, n, &tau, &mut z);
    let result = tql2(vals, &mut e, &mut z, n);

    if result.is_ok() {
        // Ascending IEEE total order with matching eigenvector columns.
        sort_eigh(vals, &mut z, &mut w, n);
        a.copy_from_slice(&z);
    }
    s.give_f64(e);
    s.give_f64(tau);
    s.give_f64(w);
    s.give_mat(z);
    result
}

/// Householder reduction to tridiagonal form. On return the diagonal of
/// `a` holds the tridiagonal diagonal, `e[k]` the subdiagonal entry
/// between rows `k` and `k+1`, and column `k` below the diagonal stores
/// the Householder vector `v_k` (with `tau[k] = β_k = 2/v_kᵀv_k`, `0.0`
/// marking a skipped column). Only the lower triangle of the active
/// trailing block is referenced; `wbuf` is an `n`-length workspace. Row
/// loops of the matvec and rank-2 update are strip-mined in `nb` bands.
fn tridiagonalize(
    a: &mut [f64],
    n: usize,
    e: &mut [f64],
    tau: &mut [f64],
    wbuf: &mut [f64],
    nb: usize,
) {
    for k in 0..n.saturating_sub(2) {
        let lo = k + 1;
        let mut norm2 = 0.0;
        for i in lo..n {
            norm2 += a[i * n + k] * a[i * n + k];
        }
        let norm = norm2.sqrt();
        if norm == 0.0 {
            e[k] = 0.0;
            tau[k] = 0.0;
            continue;
        }
        let x0 = a[lo * n + k];
        let alpha = if x0 >= 0.0 { -norm } else { norm };
        let v0 = x0 - alpha;
        let mut vtv = 0.0;
        vtv += v0 * v0;
        for i in (lo + 1)..n {
            vtv += a[i * n + k] * a[i * n + k];
        }
        e[k] = alpha;
        if vtv == 0.0 {
            tau[k] = 0.0;
            continue;
        }
        let beta = 2.0 / vtv;
        tau[k] = beta;
        a[lo * n + k] = v0;

        // w = β·A₂₂·v over the trailing block, reading the symmetric
        // matrix from its lower triangle; each w[i] is one j-ascending
        // chain, so banding the i loop never reorders a chain.
        let mut band = lo;
        while band < n {
            let bend = (band + nb).min(n);
            for i in band..bend {
                let mut acc = 0.0;
                for j in lo..n {
                    let aij = if j <= i { a[i * n + j] } else { a[j * n + i] };
                    acc += aij * a[j * n + k];
                }
                wbuf[i] = beta * acc;
            }
            band = bend;
        }
        // w ← w − (β/2)(wᵀv)·v, then A₂₂ ← A₂₂ − v·wᵀ − w·vᵀ.
        let mut wv = 0.0;
        for i in lo..n {
            wv += wbuf[i] * a[i * n + k];
        }
        let kappa = 0.5 * beta * wv;
        for i in lo..n {
            wbuf[i] -= kappa * a[i * n + k];
        }
        let mut band = lo;
        while band < n {
            let bend = (band + nb).min(n);
            for i in band..bend {
                let vi = a[i * n + k];
                let wi = wbuf[i];
                for j in lo..=i {
                    a[i * n + j] -= vi * wbuf[j] + wi * a[j * n + k];
                }
            }
            band = bend;
        }
    }
    // The final 2x2 block is never reflected; read its subdiagonal only
    // after the trailing updates above have finished rewriting it.
    if n >= 2 {
        e[n - 2] = a[(n - 1) * n + (n - 2)];
    }
}

/// Backward-accumulates the tridiagonalization's orthogonal transform
/// `Q = H_0 · H_1 ⋯ H_{n-3}` into `z` (fully overwritten with a row-major
/// `n x n` matrix), reading each `v_k` from its in-place storage in `a`.
fn accumulate_tridiag_q(a: &[f64], n: usize, tau: &[f64], z: &mut [f64]) {
    z.fill(0.0);
    for i in 0..n {
        z[i * n + i] = 1.0;
    }
    for k in (0..n.saturating_sub(2)).rev() {
        if tau[k] == 0.0 {
            continue;
        }
        let lo = k + 1;
        // Columns c < lo of z are unit vectors orthogonal to v_k.
        for c in lo..n {
            let mut dot = 0.0;
            for i in lo..n {
                dot += a[i * n + k] * z[i * n + c];
            }
            let f = tau[k] * dot;
            for i in lo..n {
                z[i * n + c] -= f * a[i * n + k];
            }
        }
    }
}

/// Implicit-shift QL iteration on the tridiagonal `(d, e)` with
/// eigenvector accumulation into `z` (EISPACK `tql2` lineage). `e` enters
/// with the subdiagonal in `e[0..n-1]` and is destroyed. On success `d`
/// holds unordered eigenvalues and the columns of `z` the matching
/// eigenvectors.
///
/// Deflation uses EISPACK's running-norm test: `e[m]` is negligible once
/// `|e[m]| <= ε·tst1`, where `tst1 = max |d[l]| + |e[l]|` over the rows
/// already visited. A local test against `|d[m]| + |d[m+1]|` never passes
/// inside a cluster of zero eigenvalues (its right-hand side is itself
/// about 0), so exactly rank-deficient input would exhaust
/// [`QL_MAX_ITER`].
fn tql2(d: &mut [f64], e: &mut [f64], z: &mut [f64], n: usize) -> Result<(), usize> {
    if n <= 1 {
        return Ok(());
    }
    e[n - 1] = 0.0;
    let mut tst1 = 0.0f64;
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut iter = 0;
        loop {
            // Find the first negligible subdiagonal at or after l.
            let mut m = l;
            while m + 1 < n {
                if e[m].abs() <= f64::EPSILON * tst1 {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            if iter == QL_MAX_ITER {
                return Err(QL_MAX_ITER);
            }
            iter += 1;
            // Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            let sign_r = if g >= 0.0 { r } else { -r };
            g = d[m] - d[l] + e[l] / (g + sign_r);
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Underflow recovery: drop the deflated tail and
                    // restart the sweep (EISPACK lineage).
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Rotate eigenvector columns i and i+1.
                for row in 0..n {
                    f = z[row * n + i + 1];
                    let zi = z[row * n + i];
                    z[row * n + i + 1] = s * zi + c * f;
                    z[row * n + i] = c * zi - s * f;
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Sorts eigenpairs ascending by `total_cmp`, permuting the columns of
/// `z` through the `perm` workspace row by row (no allocation).
fn sort_eigh(vals: &mut [f64], z: &mut [f64], perm: &mut [f64], n: usize) {
    // Selection sort: O(n²) swaps of (value, column) pairs — negligible
    // next to the O(n³) decomposition, and allocation-free.
    for i in 0..n {
        let mut best = i;
        for j in (i + 1)..n {
            if vals[j].total_cmp(&vals[best]) == std::cmp::Ordering::Less {
                best = j;
            }
        }
        if best != i {
            vals.swap(i, best);
            for row in 0..n {
                z.swap(row * n + i, row * n + best);
            }
        }
    }
    let _ = perm;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> Vec<f64> {
        // Gram matrix of a deterministic pseudo-random factor + diagonal
        // boost: strictly positive definite.
        let mut state = seed;
        let mut g = vec![0.0; n * n];
        for v in g.iter_mut() {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            *v = (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        }
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += g[k * n + i] * g[k * n + j];
                }
                a[i * n + j] = s / n as f64 + if i == j { 1.0 } else { 0.0 };
            }
        }
        a
    }

    #[test]
    fn blocked_cholesky_matches_unblocked_bitwise() {
        for &n in &[1usize, 5, 31, 32, 33, 64, 97] {
            let a = spd(n, 0x5EED ^ n as u64);
            let mut unb = a.clone();
            cholesky_unblocked(&mut unb, n, n, 0.0).unwrap();
            for nb in [1usize, 7, 32, 200] {
                let mut blk = a.clone();
                cholesky_with_block(&mut blk, n, n, 0.0, nb).unwrap();
                for i in 0..n {
                    for j in 0..=i {
                        assert_eq!(
                            blk[i * n + j].to_bits(),
                            unb[i * n + j].to_bits(),
                            "n={n} nb={nb} ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cholesky_reports_first_bad_pivot() {
        // Indefinite: leading 1x1 minor positive, second pivot negative.
        let a = [4.0, 2.0, 0.0, 2.0, 1.0, 0.0, 0.0, 0.0, 9.0];
        for nb in [1usize, 2, 8] {
            let mut m = a;
            assert_eq!(cholesky_with_block(&mut m, 3, 3, 0.0, nb), Err(1));
        }
        let mut m = a;
        assert_eq!(cholesky_unblocked(&mut m, 3, 3, 0.0), Err(1));
    }

    #[test]
    fn blocked_qr_matches_unblocked_bitwise() {
        for &(m, n) in &[(6usize, 4usize), (33, 32), (40, 33), (64, 64), (70, 5)] {
            let a = spd(m.max(n), 0xACE ^ (m * n) as u64);
            let a: Vec<f64> = (0..m * n).map(|i| a[i]).collect();
            let mut r_ref = a.clone();
            let mut vh_ref = vec![0.0; n];
            let mut vt_ref = vec![0.0; n];
            qr_unblocked(&mut r_ref, m, n, &mut vh_ref, &mut vt_ref);
            let mut q_ref = vec![0.0; m * n];
            qr_thin_q(&r_ref, m, n, &vh_ref, &vt_ref, &mut q_ref);
            let mut scratch = Scratch::new();
            for nb in [1usize, 8, 32, 100] {
                let mut r = a.clone();
                let mut vh = vec![0.0; n];
                let mut vt = vec![0.0; n];
                qr_with_block(&mut r, m, n, &mut vh, &mut vt, &mut scratch, nb);
                for i in 0..m {
                    for j in 0..n {
                        assert_eq!(
                            r[i * n + j].to_bits(),
                            r_ref[i * n + j].to_bits(),
                            "R m={m} n={n} nb={nb} ({i},{j})"
                        );
                    }
                }
                let mut q = vec![0.0; m * n];
                qr_thin_q(&r, m, n, &vh, &vt, &mut q);
                for i in 0..m * n {
                    assert_eq!(q[i].to_bits(), q_ref[i].to_bits(), "Q nb={nb} idx {i}");
                }
            }
        }
    }

    #[test]
    fn eigh_banding_is_bit_identical_and_reconstructs() {
        for &n in &[2usize, 16, 31, 32, 33, 48] {
            let a = {
                let mut a = spd(n, 0xE16 ^ n as u64);
                for i in 0..n {
                    for j in 0..i {
                        let s = 0.5 * (a[i * n + j] + a[j * n + i]);
                        a[i * n + j] = s;
                        a[j * n + i] = s;
                    }
                }
                a
            };
            let mut scratch = Scratch::new();
            let mut v_ref = a.clone();
            let mut vals_ref = vec![0.0; n];
            eigh_with_block(&mut v_ref, n, &mut vals_ref, &mut scratch, n.max(1)).unwrap();
            for nb in [1usize, 8, 32] {
                let mut v = a.clone();
                let mut vals = vec![0.0; n];
                eigh_with_block(&mut v, n, &mut vals, &mut scratch, nb).unwrap();
                for i in 0..n {
                    assert_eq!(
                        vals[i].to_bits(),
                        vals_ref[i].to_bits(),
                        "n={n} nb={nb} λ{i}"
                    );
                }
                for i in 0..n * n {
                    assert_eq!(
                        v[i].to_bits(),
                        v_ref[i].to_bits(),
                        "n={n} nb={nb} V idx {i}"
                    );
                }
            }
            // V diag(λ) Vᵀ reconstructs A.
            for i in 0..n {
                for j in 0..n {
                    let mut s = 0.0;
                    for c in 0..n {
                        s += v_ref[i * n + c] * vals_ref[c] * v_ref[j * n + c];
                    }
                    assert!(
                        (s - a[i * n + j]).abs() < 1e-9,
                        "n={n} recon ({i},{j}): {s} vs {}",
                        a[i * n + j]
                    );
                }
            }
            // Ascending order.
            for i in 1..n {
                assert!(vals_ref[i - 1] <= vals_ref[i]);
            }
        }
    }

    #[test]
    fn eigh_steady_state_reuses_scratch() {
        let n = 24;
        let a = spd(n, 7);
        let mut scratch = Scratch::new();
        let mut v = a.clone();
        let mut vals = vec![0.0; n];
        eigh(&mut v, n, &mut vals, &mut scratch).unwrap();
        let cold = scratch.cold_allocs();
        for _ in 0..5 {
            let mut v = a.clone();
            eigh(&mut v, n, &mut vals, &mut scratch).unwrap();
        }
        assert_eq!(scratch.cold_allocs(), cold, "warm eigh must not allocate");
    }
}
