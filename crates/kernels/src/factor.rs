//! Dense factorizations: a blocked right-looking Cholesky on register
//! tiles, Householder QR, and a tridiagonalization + implicit-QL
//! symmetric eigensolver.
//!
//! ## Bit-identity
//!
//! [`qr`] is the historical `rcr-linalg` QR loop on flat slices. The
//! blocked Cholesky preserves the per-output-element operation chains of
//! the unblocked reference loop (`cholesky_unblocked`, itself a
//! transcription of the historical implementation). The key observation
//! is that an f64 store/load round trip is exact, so a right-looking
//! trailing update that *continues* an element's subtraction chain in
//! memory (`a[i][j] -= l[i][k]·l[j][k]`, `k` ascending) produces the same
//! bits as the one-pass left-looking chain held in a register. Blocking
//! therefore only changes *which* elements are in flight, never the
//! rounding sequence feeding one element. This is pinned bitwise by the
//! proptests in `tests/proptests.rs`.
//!
//! The eigensolver's layout is chosen the same way: it keeps the trailing
//! block of its Householder reduction symmetric bit for bit and holds the
//! eigenvector matrix transposed, so every hot inner loop walks a row
//! while every floating-point chain stays that of the strided-layout
//! solver it replaced. `tests/eigh_reference.rs` keeps that solver and
//! pins eigenvalues, eigenvectors and errors to it bit for bit.
//!
//! ## Allocation
//!
//! Cholesky uses fixed-size stack tiles and QR works in its caller's
//! buffers only. The eigensolver checks its accumulation workspaces out of
//! a caller-provided [`Scratch`] pool (2-D panels via
//! [`Scratch::take_mat`]), so steady-state repeated factorizations perform
//! no heap allocation.

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

/// Column-tile width used when accumulating the thin QR `Q`: reflectors
/// are applied one at a time (preserving each element's operation chain)
/// but vectorized across this many independent columns.
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

/// Householder QR of `r` (`m x n` row-major, `m >= n`).
///
/// On return the upper triangle of `r` holds `R` exactly as the historical
/// `rcr-linalg` loop computed it (the diagonal is produced by *applying*
/// the reflector to its own column, not by assigning `alpha`, so rounding
/// matches the reference bit for bit). The strict lower triangle stores
/// the tail of each Householder vector `v_k` (compact WY storage);
/// `vhead[k]` holds `v_k[k]` and `vtv[k]` holds `v_kᵀv_k` (`0.0` marks a
/// skipped/zero column). `vhead` and `vtv` must have length `n`.
pub fn qr(r: &mut [f64], m: usize, n: usize, vhead: &mut [f64], vtv: &mut [f64]) {
    debug_assert!(m >= n && r.len() == m * n);
    debug_assert!(vhead.len() == n && vtv.len() == n);
    for k in 0..n {
        qr_householder_column(r, m, n, k, vhead, vtv);
        if vtv[k] == 0.0 {
            continue;
        }
        // Apply reflector k to the trailing columns, reading v from its
        // in-place storage: the reference trailing loop verbatim.
        let vk = vhead[k];
        for c in (k + 1)..n {
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

/// Accumulates the thin `Q` (`m x n`, row-major, fully overwritten) from a
/// factored `r`/`vhead`/`vtv` triple by applying the stored reflectors
/// backward onto a thin identity — `O(m·n²)` instead of the historical
/// `O(m²·n)` full-square accumulation.
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

/// Symmetric eigendecomposition of `a` (`n x n` row-major): on success
/// `a` holds the eigenvector matrix (column `c` pairs with `vals[c]`) and
/// `vals` the eigenvalues in ascending IEEE-total order. Only the lower
/// triangle of `a` is read; it is mirrored into the upper triangle on
/// entry. Workspaces come from `s`; a warmed pool makes repeated
/// same-size calls allocation-free.
///
/// Every hot inner loop walks a row: the reduction keeps its trailing
/// block symmetric and stores `v_k` in row `k`, and `Q` is accumulated
/// and rotated as `Zᵀ` (row `c` holds eigenvector `c`), transposed once
/// at the end.
///
/// # Errors
/// `Err(iterations)` if the QL iteration fails to converge (practically
/// unreachable for finite symmetric input).
pub fn eigh(a: &mut [f64], n: usize, vals: &mut [f64], s: &mut Scratch) -> Result<(), usize> {
    debug_assert!(a.len() == n * n && vals.len() == n);
    if n == 0 {
        return Ok(());
    }
    let mut e = s.take_f64(n, 0.0);
    let mut tau = s.take_f64(n, 0.0);
    let mut w = s.take_f64(n, 0.0);
    let mut zt = s.take_mat(n, n, 0.0);

    for i in 1..n {
        for j in 0..i {
            a[j * n + i] = a[i * n + j];
        }
    }
    tridiagonalize(a, n, &mut e, &mut tau, &mut w);
    for i in 0..n {
        vals[i] = a[i * n + i];
    }
    accumulate_tridiag_qt(a, n, &tau, &mut zt);
    let result = tql2(vals, &mut e, &mut zt, n);

    if result.is_ok() {
        // Ascending IEEE total order with matching eigenvectors.
        sort_eigh(vals, &mut zt, n);
        for (c, zrow) in zt.chunks_exact(n).enumerate() {
            for (r, &x) in zrow.iter().enumerate() {
                a[r * n + c] = x;
            }
        }
    }
    s.give_f64(e);
    s.give_f64(tau);
    s.give_f64(w);
    s.give_mat(zt);
    result
}

/// Householder reduction to tridiagonal form of a fully symmetric `a`.
/// On return the diagonal of `a` holds the tridiagonal diagonal, `e[k]`
/// the subdiagonal entry between rows `k` and `k+1`, and row `k` right
/// of the diagonal the Householder vector `v_k` (with `tau[k] = β_k =
/// 2/v_kᵀv_k`, `0.0` marking a skipped column); `wbuf` is an `n`-length
/// workspace.
///
/// Row `k` right of the diagonal mirrors column `k` below it, and the
/// reduction never reads row `k` after step `k`, so `v_k` is formed in
/// place there. The rank-2 update writes both triangles of the trailing
/// block: entry `(i, j)` gets `v_i·w_j + w_i·v_j` and its mirror `(j, i)`
/// the same two exact products added in the other order, which IEEE
/// addition's commutativity makes bit-equal. The block therefore stays
/// symmetric bit for bit, and the matvec reads row `i` where a
/// lower-triangle-only reduction would read column `i` below the
/// diagonal, with the same `j`-ascending chain.
fn tridiagonalize(a: &mut [f64], n: usize, e: &mut [f64], tau: &mut [f64], wbuf: &mut [f64]) {
    for k in 0..n.saturating_sub(2) {
        let lo = k + 1;
        let (head, trail) = a.split_at_mut(lo * n);
        let v = &mut head[k * n + lo..lo * n];
        let mut norm2 = 0.0;
        for &x in v.iter() {
            norm2 += x * x;
        }
        let norm = norm2.sqrt();
        if norm == 0.0 {
            e[k] = 0.0;
            tau[k] = 0.0;
            continue;
        }
        let x0 = v[0];
        let alpha = if x0 >= 0.0 { -norm } else { norm };
        let v0 = x0 - alpha;
        let mut vtv = 0.0;
        vtv += v0 * v0;
        for &x in &v[1..] {
            vtv += x * x;
        }
        e[k] = alpha;
        if vtv == 0.0 {
            tau[k] = 0.0;
            continue;
        }
        let beta = 2.0 / vtv;
        tau[k] = beta;
        v[0] = v0;
        let v = &*v;
        let w = &mut wbuf[lo..n];

        // w = β·A₂₂·v over the trailing block; each w[i] is one
        // j-ascending chain along row i.
        for (wi, row) in w.iter_mut().zip(trail.chunks_exact(n)) {
            let mut acc = 0.0;
            for (&aij, &vj) in row[lo..].iter().zip(v) {
                acc += aij * vj;
            }
            *wi = beta * acc;
        }
        // w ← w − (β/2)(wᵀv)·v, then A₂₂ ← A₂₂ − v·wᵀ − w·vᵀ.
        let mut wv = 0.0;
        for (&wi, &vi) in w.iter().zip(v) {
            wv += wi * vi;
        }
        let kappa = 0.5 * beta * wv;
        for (wi, &vi) in w.iter_mut().zip(v) {
            *wi -= kappa * vi;
        }
        let w = &*w;
        for ((&vi, &wi), row) in v.iter().zip(w).zip(trail.chunks_exact_mut(n)) {
            for ((aij, &wj), &vj) in row[lo..].iter_mut().zip(w).zip(v) {
                *aij -= vi * wj + wi * vj;
            }
        }
    }
    // The final 2x2 block is never reflected; read its subdiagonal only
    // after the trailing updates above have finished rewriting it.
    if n >= 2 {
        e[n - 2] = a[(n - 1) * n + (n - 2)];
    }
}

/// Backward-accumulates the tridiagonalization's orthogonal transform
/// `Q = H_0 · H_1 ⋯ H_{n-3}` into `zt` as `Qᵀ` (fully overwritten; row
/// `c` holds column `c` of `Q`), reading each `v_k` from row `k` of `a`.
/// Each reflector's dot and update walk one row of `zt`.
fn accumulate_tridiag_qt(a: &[f64], n: usize, tau: &[f64], zt: &mut [f64]) {
    zt.fill(0.0);
    for i in 0..n {
        zt[i * n + i] = 1.0;
    }
    for k in (0..n.saturating_sub(2)).rev() {
        if tau[k] == 0.0 {
            continue;
        }
        let lo = k + 1;
        let v = &a[k * n + lo..lo * n];
        // Rows c < lo of zt are unit vectors orthogonal to v_k.
        for zrow in zt[lo * n..].chunks_exact_mut(n) {
            let zrow = &mut zrow[lo..];
            let mut dot = 0.0;
            for (&vi, &z) in v.iter().zip(&*zrow) {
                dot += vi * z;
            }
            let f = tau[k] * dot;
            for (z, &vi) in zrow.iter_mut().zip(v) {
                *z -= f * vi;
            }
        }
    }
}

/// Implicit-shift QL iteration on the tridiagonal `(d, e)` with
/// eigenvector accumulation into `zt` (EISPACK `tql2` lineage, with the
/// eigenvector matrix held transposed, so a Givens rotation of two
/// eigenvector columns walks two contiguous rows). `e` enters with the
/// subdiagonal in `e[0..n-1]` and is destroyed. On success `d` holds
/// unordered eigenvalues and the rows of `zt` the matching eigenvectors.
///
/// Deflation uses EISPACK's running-norm test: `e[m]` is negligible once
/// `|e[m]| <= ε·tst1`, where `tst1 = max |d[l]| + |e[l]|` over the rows
/// already visited. A local test against `|d[m]| + |d[m+1]|` never passes
/// inside a cluster of zero eigenvalues (its right-hand side is itself
/// about 0), so exactly rank-deficient input would exhaust
/// [`QL_MAX_ITER`].
fn tql2(d: &mut [f64], e: &mut [f64], zt: &mut [f64], n: usize) -> Result<(), usize> {
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
                let f = s * e[i];
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
                // Rotate eigenvectors i and i+1: rows i and i+1 of zt.
                let (lo_rows, hi_rows) = zt.split_at_mut((i + 1) * n);
                let zi = &mut lo_rows[i * n..];
                for (x, y) in zi.iter_mut().zip(&mut hi_rows[..n]) {
                    let f = *y;
                    let zi = *x;
                    *y = s * zi + c * f;
                    *x = c * zi - s * f;
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

/// Sorts eigenpairs ascending by `total_cmp`, swapping the matching rows
/// of `zt` (no allocation).
fn sort_eigh(vals: &mut [f64], zt: &mut [f64], n: usize) {
    // Selection sort: O(n²) swaps of (value, row) pairs — negligible
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
            let (lo_rows, hi_rows) = zt.split_at_mut(best * n);
            lo_rows[i * n..(i + 1) * n].swap_with_slice(&mut hi_rows[..n]);
        }
    }
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
