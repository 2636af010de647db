//! Dense factorizations: a blocked right-looking Cholesky on register
//! tiles, Householder QR, a tridiagonalization + implicit-QL symmetric
//! eigensolver, and the projection onto the PSD cone built on its
//! reduction.
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
//! [`psd_projection`] shares [`eigh`]'s reduction bit for bit. When one
//! side of the spectrum is small it computes only that side, by
//! bisection and inverse iteration, with a rounding profile of its own:
//! its oracle is a tolerance against the full-spectrum projection
//! (`rcr-linalg`'s `tests/psd_oracle.rs`), not bits.
//!
//! ## Allocation
//!
//! Cholesky uses fixed-size stack tiles and QR works in its caller's
//! buffers only. The eigensolver and the projection check their
//! workspaces out of a caller-provided [`Scratch`] pool (2-D panels via
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

    mirror_lower(a, n);
    tridiagonalize(a, n, &mut e, &mut tau, &mut w);
    for i in 0..n {
        vals[i] = a[i * n + i];
    }
    let result = tridiag_eigen(a, n, vals, &mut e, &tau, &mut zt);

    if result.is_ok() {
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

/// Copies the strict lower triangle of `a` into its upper triangle.
fn mirror_lower(a: &mut [f64], n: usize) {
    for i in 1..n {
        for j in 0..i {
            a[j * n + i] = a[i * n + j];
        }
    }
}

/// Eigenpairs of a tridiagonalized matrix: the reflectors in `t` (as
/// [`tridiagonalize`] leaves them) accumulated into `zt`, then implicit QL
/// on `(d, e)` and the ascending IEEE-total-order sort. On success `d`
/// holds the eigenvalues and row `c` of `zt` the eigenvector of `d[c]`.
fn tridiag_eigen(
    t: &[f64],
    n: usize,
    d: &mut [f64],
    e: &mut [f64],
    tau: &[f64],
    zt: &mut [f64],
) -> Result<(), usize> {
    accumulate_tridiag_qt(t, n, tau, zt);
    tql2(d, e, zt, n)?;
    sort_eigh(d, zt, n);
    Ok(())
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

// ---------------------------------------------------------------------
// Projection onto the PSD cone from the small side of the spectrum
// ---------------------------------------------------------------------

/// Switch between the two routes of [`psd_projection`]: the partial
/// route runs when the smaller side of the spectrum has `k` eigenvalues
/// with `k · PSD_PARTIAL_DIVISOR <= n`, the full eigendecomposition
/// otherwise. Each eigenpair the partial route computes costs a few
/// Sturm counts and shifted tridiagonal solves, chains of dependent
/// divisions of length `n`, plus `O(n²)` for its back-transform and its
/// share of the rank-`k` update; the full route pays the `O(n³)`
/// eigenvector accumulation, QL rotations and reconstruction at any `k`.
/// Measured on a 2-vCPU VM against the full route (median of nine
/// interleaved timings), the partial route takes 0.24× the time at
/// `k = 1`, 0.31× at `k = 2`, 0.62× at `k = 8` and 0.92× at `k = 14` for
/// `n = 32`, and breaks even near `k ≈ 0.4·n` for `n = 16..64`; at
/// `k = n/2` it is 1.0–1.8× slower. A third keeps it on the side where
/// it wins at every measured size.
pub const PSD_PARTIAL_DIVISOR: usize = 3;

/// Sturm-count bisections allowed per wanted eigenvalue. Halving a
/// Gershgorin interval down to the `ε·‖T‖` cluster width takes at most
/// ~55, so hitting this bound means non-monotone counts.
const PSD_BISECT_MAX: usize = 128;

/// Inverse-iteration steps allowed per eigenpair. Rayleigh-quotient
/// shifts converge cubically, so an isolated eigenpair takes 2–4.
const PSD_INVIT_MAX: usize = 10;

/// Width, as a share of `‖T‖`, an isolating interval is bisected down to
/// before inverse iteration starts from its midpoint.
const PSD_NARROW: f64 = 1.0 / 64.0;

/// Multiple of `ε·‖T‖` within which an eigenvalue counts as zero: it
/// belongs to neither side, and leaving it out moves the projection by
/// at most its own size (a sum of orthogonal rank-1 projectors weighted
/// by at most `δ` has no entry above `δ`). It keeps an exactly rank-`r`
/// PSD input's zero cluster out of both sides.
const PSD_ZERO_MULT: f64 = 4.0;

/// Multiple of `ε·‖T‖` an eigenpair's residual `‖T·y − ρ·y‖₂` must reach.
const PSD_RESIDUAL_MULT: f64 = 8.0;

/// Multiple of `ε·‖T‖` a residual that a step no longer halves may stop
/// at: the floor a cluster member reaches after Gram–Schmidt against the
/// members before it, whose own errors it inherits.
const PSD_STALL_MULT: f64 = 128.0;

/// Euclidean projection of the symmetric `a` (`n x n` row-major) onto the
/// positive semidefinite cone, in place: on success `a` holds
/// `Σ_{λ>0} λ·v·vᵀ`. Only the lower triangle is read; it is mirrored
/// into the upper triangle on entry. Workspaces come from `s`; a warmed
/// pool makes repeated same-size calls allocation-free.
///
/// The reduction is [`eigh`]'s, bit for bit. One Sturm count either side
/// of zero then splits the spectrum, and when the smaller side has few
/// enough eigenvalues (see [`PSD_PARTIAL_DIVISOR`]) only those are
/// computed:
///
/// 1. bisection with Sturm counts until the wanted eigenvalue is alone
///    in its interval (or the interval is `2ε` wide inside a cluster);
/// 2. inverse iteration with Rayleigh-quotient shifts that stay inside
///    that interval, each step a pivoted tridiagonal solve followed by
///    modified Gram–Schmidt against the side's earlier vectors, until the
///    residual reaches `PSD_RESIDUAL_MULT·ε·‖T‖`; `λ` is the Rayleigh
///    quotient;
/// 3. the back-transform of the `k` vectors through the stored
///    reflectors, `O(n²k)`;
/// 4. `Σ λ·y·yᵀ` over the positive side, or `A − Σ λ·y·yᵀ` over the
///    negative side.
///
/// Eigenvalues within `PSD_ZERO_MULT·ε·‖T‖` of zero are left out of both
/// sides. A larger small side, or an eigenpair that does not converge,
/// takes the full route instead: [`eigh`]'s accumulation, QL and sort,
/// then `V·diag(max(λ, 0))·Vᵀ` through [`gemm`](crate::gemm::gemm), the
/// bits of an eigendecomposition followed by that product.
///
/// # Errors
/// `Err(iterations)` if the full route's QL iteration fails to converge
/// (practically unreachable for finite symmetric input).
pub fn psd_projection(a: &mut [f64], n: usize, s: &mut Scratch) -> Result<(), usize> {
    debug_assert!(a.len() == n * n);
    if n == 0 {
        return Ok(());
    }
    mirror_lower(a, n);
    let mut t = s.take_mat(n, n, 0.0);
    t.copy_from_slice(a);
    let mut d = s.take_f64(n, 0.0);
    let mut e = s.take_f64(n, 0.0);
    let mut tau = s.take_f64(n, 0.0);
    let mut w = s.take_f64(n, 0.0);
    tridiagonalize(&mut t, n, &mut e, &mut tau, &mut w);
    for (i, di) in d.iter_mut().enumerate() {
        *di = t[i * n + i];
    }
    let result = if psd_partial(a, &t, n, &d, &e, &tau, s) {
        Ok(())
    } else {
        psd_full(a, &t, n, &mut d, &mut e, &tau, s)
    };
    s.give_mat(t);
    s.give_f64(d);
    s.give_f64(e);
    s.give_f64(tau);
    s.give_f64(w);
    result
}

/// The full route of [`psd_projection`]: every eigenpair, then
/// `a = V·diag(max(λ, 0))·Vᵀ`. `Vᵀ` is `zt` itself.
fn psd_full(
    a: &mut [f64],
    t: &[f64],
    n: usize,
    d: &mut [f64],
    e: &mut [f64],
    tau: &[f64],
    s: &mut Scratch,
) -> Result<(), usize> {
    let mut zt = s.take_mat(n, n, 0.0);
    let result = tridiag_eigen(t, n, d, e, tau, &mut zt);
    if result.is_ok() {
        let mut vd = s.take_mat(n, n, 0.0);
        for (r, row) in vd.chunks_exact_mut(n).enumerate() {
            for (c, x) in row.iter_mut().enumerate() {
                *x = zt[c * n + r] * d[c].max(0.0);
            }
        }
        crate::gemm::gemm(n, n, n, &vd, &zt, a);
        s.give_mat(vd);
    }
    s.give_mat(zt);
    result
}

/// What [`psd_partial`] knows about the tridiagonal `T`.
struct Tridiag<'a> {
    d: &'a [f64],
    /// Subdiagonal, `n − 1` entries.
    sub: &'a [f64],
    /// `e2[0] = 0`, `e2[i] = sub[i − 1]²`: the Sturm recurrence's terms.
    e2: &'a [f64],
    /// Smallest pivot magnitude the Sturm recurrence lets through.
    pivmin: f64,
    /// The Gershgorin interval, widened so that no count at its ends
    /// can miss an eigenvalue.
    lo: f64,
    hi: f64,
    /// `‖T‖`, the larger end of the Gershgorin interval in magnitude.
    norm: f64,
    /// `ε·‖T‖`.
    eps_norm: f64,
}

impl Tridiag<'_> {
    /// Number of eigenvalues below `x` (a pivot within `pivmin` of zero
    /// counts as negative, so an eigenvalue equal to `x` may count).
    fn count_below(&self, x: f64) -> usize {
        let mut count = 0;
        let mut q = 1.0;
        for (&di, &e2i) in self.d.iter().zip(self.e2) {
            q = (di - x) - e2i / q;
            if q.abs() < self.pivmin {
                q = -self.pivmin;
            }
            if q <= 0.0 {
                count += 1;
            }
        }
        count
    }

    /// Solves `(T − σI)·y = b` in place (`y` enters as `b`) by Gaussian
    /// elimination with partial pivoting; a final pivot below `ε·‖T‖`
    /// is raised to it, as inverse iteration wants. `u` holds three
    /// `n`-length rows for the factor.
    fn solve_shifted(&self, sigma: f64, y: &mut [f64], u: &mut [f64]) {
        let n = self.d.len();
        let (u0, rest) = u.split_at_mut(n);
        let (u1, u2) = rest.split_at_mut(n);
        let pivtol = self.eps_norm.max(self.pivmin);
        // The row being eliminated: entries at columns i and i+1, and its
        // right-hand side.
        let mut p0 = self.d[0] - sigma;
        let mut p1 = self.sub.first().copied().unwrap_or(0.0);
        let mut rb = y[0];
        for i in 0..n - 1 {
            let s = self.sub[i];
            let dn = self.d[i + 1] - sigma;
            let en = self.sub.get(i + 1).copied().unwrap_or(0.0);
            let bn = y[i + 1];
            if p0.abs() >= s.abs() {
                let l = if p0 == 0.0 { 0.0 } else { s / p0 };
                (u0[i], u1[i], u2[i], y[i]) = (p0, p1, 0.0, rb);
                (p0, p1, rb) = (dn - l * p1, en, bn - l * rb);
            } else {
                let l = p0 / s;
                (u0[i], u1[i], u2[i], y[i]) = (s, dn, en, bn);
                (p0, p1, rb) = (p1 - l * dn, -l * en, rb - l * bn);
            }
        }
        u0[n - 1] = p0;
        y[n - 1] = rb;
        for i in (0..n).rev() {
            let mut v = y[i];
            if i + 1 < n {
                v -= u1[i] * y[i + 1];
            }
            if i + 2 < n {
                v -= u2[i] * y[i + 2];
            }
            let p = if u0[i].abs() < pivtol {
                pivtol.copysign(u0[i])
            } else {
                u0[i]
            };
            y[i] = v / p;
        }
    }

    /// Rayleigh quotient `ρ = yᵀ·T·y` of a unit `y` and the residual
    /// `‖T·y − ρ·y‖₂`; `ty` receives `T·y`.
    fn rayleigh(&self, y: &[f64], ty: &mut [f64]) -> (f64, f64) {
        let n = self.d.len();
        let mut rho = 0.0;
        for i in 0..n {
            let mut v = self.d[i] * y[i];
            if i > 0 {
                v += self.sub[i - 1] * y[i - 1];
            }
            if i + 1 < n {
                v += self.sub[i] * y[i + 1];
            }
            ty[i] = v;
            rho += v * y[i];
        }
        let mut r2 = 0.0;
        for (&tyi, &yi) in ty[..n].iter().zip(y) {
            let r = tyi - rho * yi;
            r2 += r * r;
        }
        (rho, r2.sqrt())
    }
}

/// Scales `y` to unit 2-norm (max-abs first, so no square overflows);
/// `false` for a zero or non-finite vector.
fn normalize(y: &mut [f64]) -> bool {
    let m = y.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    if !(m > 0.0 && m.is_finite()) {
        return false;
    }
    let mut ss = 0.0;
    for v in y.iter_mut() {
        *v /= m;
        ss += *v * *v;
    }
    let inv = 1.0 / ss.sqrt();
    for v in y.iter_mut() {
        *v *= inv;
    }
    true
}

/// Deterministic start vector for eigenpair `j`: entries in `[−1, 1)`
/// from a splitmix64 stream, so cluster members start apart.
fn start_vector(y: &mut [f64], j: usize) {
    let mut state = 0x5EED_0000_0000_0000u64 ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for v in y.iter_mut() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        *v = (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
    }
}

/// The partial route of [`psd_projection`] on the tridiagonal reduction
/// `t` (reflectors in its rows, `τ` in `tau`) with diagonal `d` and
/// subdiagonal `e`. Writes the projection into `a` (which holds the
/// mirrored input) and returns `true`; returns `false` with `a` untouched
/// when the smaller side is too large or some eigenpair fails to
/// converge.
fn psd_partial(
    a: &mut [f64],
    t: &[f64],
    n: usize,
    d: &[f64],
    e: &[f64],
    tau: &[f64],
    s: &mut Scratch,
) -> bool {
    let sub = &e[..n - 1];
    let mut glo = f64::INFINITY;
    let mut ghi = f64::NEG_INFINITY;
    let mut e2 = s.take_f64(n, 0.0);
    for (i, &di) in d.iter().enumerate() {
        let left = if i > 0 { sub[i - 1].abs() } else { 0.0 };
        let right = sub.get(i).map_or(0.0, |x| x.abs());
        glo = glo.min(di - left - right);
        ghi = ghi.max(di + left + right);
        if i > 0 {
            e2[i] = sub[i - 1] * sub[i - 1];
        }
    }
    let norm = glo.abs().max(ghi.abs());
    let pivmin = f64::MIN_POSITIVE * e2.iter().fold(1.0f64, |m, &v| m.max(v));
    let slack = 2.0 * f64::EPSILON * norm + 2.0 * pivmin;
    let tri = Tridiag {
        d,
        sub,
        e2: &e2,
        pivmin,
        lo: glo - slack,
        hi: ghi + slack,
        norm,
        eps_norm: f64::EPSILON * norm,
    };
    let done = norm.is_finite() && partial_on(a, t, n, tau, &tri, s);
    s.give_f64(e2);
    done
}

/// [`psd_partial`] once the Sturm data are known.
fn partial_on(
    a: &mut [f64],
    t: &[f64],
    n: usize,
    tau: &[f64],
    tri: &Tridiag<'_>,
    s: &mut Scratch,
) -> bool {
    let zero = PSD_ZERO_MULT * tri.eps_norm;
    let below_neg = tri.count_below(-zero);
    let below_pos = tri.count_below(zero);
    if below_pos < below_neg {
        return false;
    }
    // The wanted eigenvalues are indices first..first + k of the
    // ascending spectrum, inside [lo, hi] with lo's count ≤ first and
    // hi's count ≥ first + k.
    let positive = n - below_pos <= below_neg;
    let (first, k, lo, hi) = if positive {
        (below_pos, n - below_pos, (zero, below_pos), (tri.hi, n))
    } else {
        (0, below_neg, (tri.lo, 0), (-zero, below_neg))
    };
    if k * PSD_PARTIAL_DIVISOR > n {
        return false;
    }
    let mut ys = s.take_mat(k, n, 0.0);
    let mut lam = s.take_f64(k, 0.0);
    let mut work = s.take_f64(3 * n, 0.0);
    // Upper probes `(x, count below x)`, x descending and count
    // non-increasing from bottom to top, one per count: the top is the
    // tightest upper bound for the next wanted index.
    let mut uppers = s.take_pairs(n + 1, (0.0, 0.0));
    uppers[0] = (hi.0, hi.1 as f64);
    let ok = find_eigenpairs(tri, first, lo, &mut uppers, &mut ys, &mut lam, &mut work);
    if ok {
        back_transform(t, n, tau, &mut ys);
        rank_k_update(a, n, &ys, &lam, positive);
    }
    s.give_mat(ys);
    s.give_f64(lam);
    s.give_f64(work);
    s.give_pairs(uppers);
    ok
}

/// Computes eigenpairs `first..first + k` of `T` (`k = lam.len()`) into
/// the rows of `ys` and `lam`. `lo` is a lower bound with its Sturm
/// count, `uppers[0]` an upper bound for every wanted eigenvalue.
fn find_eigenpairs(
    tri: &Tridiag<'_>,
    first: usize,
    lo: (f64, usize),
    uppers: &mut [(f64, f64)],
    ys: &mut [f64],
    lam: &mut [f64],
    work: &mut [f64],
) -> bool {
    let n = tri.d.len();
    let (mut lo, mut clo) = lo;
    let mut top = 0;
    for m in 0..lam.len() {
        let j = first + m;
        // Probes whose count is ≤ j now bound eigenvalue j from below.
        while top > 0 && uppers[top].1 as usize <= j {
            let (x, c) = uppers[top];
            if x > lo {
                (lo, clo) = (x, c as usize);
            }
            top -= 1;
        }
        let (mut hi, mut chi) = (uppers[top].0, uppers[top].1 as usize);
        if chi <= j || clo > j {
            return false;
        }
        // Bisect until eigenvalue j is alone in [lo, hi] or the interval
        // is as narrow as the cluster it sits in.
        let mut steps = 0;
        let narrow = PSD_NARROW * tri.norm;
        while (chi - clo > 1 || hi - lo > narrow)
            && hi - lo > 2.0 * f64::EPSILON * lo.abs().max(hi.abs()) + tri.eps_norm
        {
            steps += 1;
            if steps > PSD_BISECT_MAX {
                return false;
            }
            let mid = 0.5 * (lo + hi);
            let c = tri.count_below(mid);
            if c < clo || c > chi {
                return false;
            }
            if c <= j {
                (lo, clo) = (mid, c);
            } else {
                (hi, chi) = (mid, c);
                if c == uppers[top].1 as usize {
                    uppers[top].0 = mid;
                } else {
                    top += 1;
                    if top >= uppers.len() {
                        return false;
                    }
                    uppers[top] = (mid, c as f64);
                }
            }
        }
        let isolated = chi - clo == 1;
        let (done, rest) = ys.split_at_mut(m * n);
        let y = &mut rest[..n];
        let Some(l) = inverse_iteration(tri, j, (&mut lo, &mut hi), isolated, done, y, work) else {
            return false;
        };
        lam[m] = l;
        if isolated {
            // Eigenvalue j + 1 lies above this interval.
            (lo, clo) = (hi, j + 1);
        }
    }
    true
}

/// Inverse iteration for eigenpair `j`, inside `[lo, hi]`, into `y`;
/// `done` holds the side's earlier unit vectors (rows of `n`). When
/// `isolated`, the shift follows the Rayleigh quotient while it stays
/// inside the interval and the interval is bisected when it does not.
/// Returns the eigenvalue, or `None` if the residual does not reach
/// `PSD_RESIDUAL_MULT·ε·‖T‖`.
fn inverse_iteration(
    tri: &Tridiag<'_>,
    j: usize,
    (lo, hi): (&mut f64, &mut f64),
    isolated: bool,
    done: &[f64],
    y: &mut [f64],
    work: &mut [f64],
) -> Option<f64> {
    let n = y.len();
    let res_tol = PSD_RESIDUAL_MULT * tri.eps_norm;
    let stall_tol = PSD_STALL_MULT * tri.eps_norm;
    let mut prev = f64::INFINITY;
    start_vector(y, j);
    let mut sigma = 0.5 * (*lo + *hi);
    for _ in 0..PSD_INVIT_MAX {
        tri.solve_shifted(sigma, y, work);
        // Twice, so a vector that lies mostly in the span of earlier
        // cluster members keeps an orthogonal remainder free of the
        // cancellation the first pass leaves.
        for _ in 0..2 {
            for q in done.chunks_exact(n) {
                let dot = dot_lanes(q, y);
                for (yi, &qi) in y.iter_mut().zip(q) {
                    *yi -= dot * qi;
                }
            }
        }
        if !normalize(y) {
            return None;
        }
        let (rho, res) = tri.rayleigh(y, work);
        // An eigenvalue lies within `res` of ρ; one within the cluster
        // width of the interval is eigenvalue j or indistinguishable
        // from it.
        let slack = res + 2.0 * f64::EPSILON * lo.abs().max(hi.abs()) + tri.eps_norm;
        let inside = rho >= *lo - slack && rho <= *hi + slack;
        if inside && (res <= res_tol || (res >= 0.5 * prev && res <= stall_tol)) {
            return Some(rho);
        }
        prev = res;
        if isolated {
            if rho > *lo && rho < *hi {
                sigma = rho;
            } else {
                let mid = 0.5 * (*lo + *hi);
                if tri.count_below(mid) <= j {
                    *lo = mid;
                } else {
                    *hi = mid;
                }
                sigma = 0.5 * (*lo + *hi);
            }
        }
    }
    None
}

/// Applies `Q = H_0 ⋯ H_{n−3}` of the reduction in `t` to every row of
/// `ys` (`H_{n−3}` first), each reflector's dot and update walking one
/// row.
fn back_transform(t: &[f64], n: usize, tau: &[f64], ys: &mut [f64]) {
    for k in (0..n.saturating_sub(2)).rev() {
        if tau[k] == 0.0 {
            continue;
        }
        let lo = k + 1;
        let v = &t[k * n + lo..lo * n];
        for y in ys.chunks_exact_mut(n) {
            let y = &mut y[lo..];
            let f = tau[k] * dot_lanes(v, y);
            for (yi, &vi) in y.iter_mut().zip(v) {
                *yi -= f * vi;
            }
        }
    }
}

/// `Σ a_i·b_i` in four interleaved partial sums, so the adds pipeline
/// (the partial route has no fold order to keep).
fn dot_lanes(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in (&mut ca).zip(&mut cb) {
        for l in 0..4 {
            acc[l] += x[l] * y[l];
        }
    }
    let mut tail = 0.0;
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// `a = Σ λ·y·yᵀ` (`positive`) or `a −= Σ λ·y·yᵀ` over the rows `y` of
/// `ys`, on the lower triangle, then mirrored.
fn rank_k_update(a: &mut [f64], n: usize, ys: &[f64], lam: &[f64], positive: bool) {
    if positive {
        a.fill(0.0);
    }
    let sign = if positive { 1.0 } else { -1.0 };
    for r in 0..n {
        let row = &mut a[r * n..r * n + r + 1];
        for (y, &l) in ys.chunks_exact(n).zip(lam) {
            let coef = sign * l * y[r];
            for (p, &yc) in row.iter_mut().zip(&y[..=r]) {
                *p += coef * yc;
            }
        }
    }
    mirror_lower(a, n);
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

    #[test]
    fn psd_projection_steady_state_reuses_scratch() {
        // One dominant positive mode on a negative definite matrix (the
        // partial route, k = 1) and a spectrum cut near its middle (the
        // full route), interleaved on one pool.
        let n = 24;
        let mut partial = spd(n, 3);
        for (i, x) in partial.iter_mut().enumerate() {
            *x = if i == 0 { 50.0 } else { -*x };
        }
        let mut full = spd(n, 5);
        for i in 0..n {
            full[i * n + i] -= 2.0;
        }
        let mut scratch = Scratch::new();
        let fresh: Vec<Vec<f64>> = [&partial, &full]
            .iter()
            .map(|a| {
                let mut p = a.to_vec();
                psd_projection(&mut p, n, &mut Scratch::new()).unwrap();
                p
            })
            .collect();
        let mut cold = None;
        for round in 0..4 {
            for (a, want) in [&partial, &full].iter().zip(&fresh) {
                let mut p = a.to_vec();
                psd_projection(&mut p, n, &mut scratch).unwrap();
                assert_eq!(&p, want, "a reused pool must not change the answer");
            }
            if round == 0 {
                cold = Some(scratch.cold_allocs());
            }
        }
        assert_eq!(
            Some(scratch.cold_allocs()),
            cold,
            "warm projection must not allocate"
        );
    }
}
