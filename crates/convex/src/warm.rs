//! Warm-start and solution-reuse layer for the ADMM-QP solver.
//!
//! At production scale most solve requests are near-duplicates: the same
//! cell resolved every scheduling interval with a slowly drifting channel.
//! This module exploits that redundancy. A [`WarmCache`] fingerprints each
//! [`crate::qp`] instance — a *structural* hash of the dimensions and
//! sparsity patterns plus a *quantized coefficient digest* that tolerates
//! small drift — and keeps a bounded, deterministic LRU of prior
//! solutions and KKT factorizations. A hit seeds `x`/`y`/`z` from the
//! nearest cached solution and reuses the condensed KKT Cholesky whenever
//! `(P, A, ρ, σ)` are bit-identical to the ones it was computed for.
//!
//! Warm solves run to the *same* stopping tolerance as cold solves — the
//! layer trades iterations, never accuracy. Every lookup, update and
//! eviction is deterministic (ordered maps, an explicit recency clock, no
//! hash-iteration order), so the results are a pure function of the
//! request sequence and the capacity: replaying a trace into a fresh
//! cache of the same capacity reproduces every solution bit. Results are
//! *not* independent of the capacity — a different capacity changes
//! which seed a solve starts from, and with it the last bits of the
//! answer and the iteration count.

use crate::qp::{QpProblem, QpSettings, QpSolution, QpWarmStart};
use crate::ConvexError;
use rcr_linalg::Cholesky;
use std::collections::BTreeMap;

/// Default number of cached entries.
pub const DEFAULT_CAPACITY: usize = 64;

/// Counters describing how the cache has been used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmStats {
    /// Lookups that found a structurally matching entry to warm-start from.
    pub hits: u64,
    /// Lookups that found nothing and solved cold.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Hits that additionally reused a cached factorization verbatim.
    pub factorization_reuses: u64,
}

/// What the cache did for one solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmReport {
    /// A cached entry seeded the iteration.
    pub hit: bool,
    /// The entry's digest matched the instance exactly (no drift since it
    /// was stored).
    pub exact: bool,
    /// A cached factorization was reused verbatim.
    pub factorization_reused: bool,
}

// ---------------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------------

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Running hash accumulator (splitmix64 compression per word).
#[derive(Debug, Clone, Copy)]
struct Hasher(u64);

impl Hasher {
    fn new(seed: u64) -> Self {
        Hasher(splitmix64(seed))
    }
    fn word(&mut self, v: u64) {
        self.0 = splitmix64(self.0 ^ v);
    }
    fn usize(&mut self, v: usize) {
        self.word(v as u64);
    }
    /// Exact bit pattern of a float (normalizing -0.0 to 0.0 so equal
    /// values always hash equally).
    fn f64_exact(&mut self, v: f64) {
        self.word((v + 0.0).to_bits());
    }
    /// Coarse quantization: sign, exponent and the top 5 mantissa bits
    /// (~3% relative precision), so a slowly drifting coefficient keeps
    /// its digest until the drift accumulates.
    fn f64_quantized(&mut self, v: f64) {
        self.word((v + 0.0).to_bits() >> 47);
    }
    fn finish(self) -> u64 {
        self.0
    }
}

fn hash_slice_quantized(h: &mut Hasher, s: &[f64]) {
    h.usize(s.len());
    for v in s {
        h.f64_quantized(*v);
    }
}

/// Combined key: structural hash in the high 64 bits (so all digests of
/// one structure are contiguous under the ordered map), digest in the low.
fn key_of(structural: u64, digest: u64) -> u128 {
    (u128::from(structural) << 64) | u128::from(digest)
}

fn structure_range(structural: u64) -> std::ops::RangeInclusive<u128> {
    key_of(structural, 0)..=key_of(structural, u64::MAX)
}

/// What the cache knows a QP by.
#[derive(Debug, Clone, Copy)]
struct Fingerprint {
    /// Structure (dimensions, sparsity patterns of `P` and `A`) in the
    /// high half, the quantized digest of `(P, A, q, l, u)` in the low.
    key: u128,
    /// Bit-exact hash of `(P, A)`: a cached factor is reused only on a
    /// match.
    exact_pa: u64,
}

/// Independent hash lanes for `P`'s values: entry `k` feeds lane
/// `k % P_LANES`, so the splitmix chains of neighbouring entries overlap
/// instead of each waiting on the last.
const P_LANES: usize = 4;

/// All three hashes in one pass over `P` and one over `A`'s nonzeros.
/// `P` feeds its pattern (packed 64 entries per word), its quantized
/// entries and its exact bits; `A` feeds each row's length and column
/// indices, the quantized and the exact nonzero values. `A` keeps no
/// `±0.0` entry, so a `-0.0` fingerprints like a `+0.0`, and with the
/// pattern equal, hashing only the nonzeros tells two instances apart
/// exactly when hashing every entry would.
fn fingerprint(p: &QpProblem) -> Fingerprint {
    let (pm, a) = (p.p(), p.a());
    let mut s = Hasher::new(0x51_70);
    let mut d = Hasher::new(0xD1_6E);
    let mut e = Hasher::new(0xEC_AC);
    s.usize(p.num_vars());
    s.usize(p.num_constraints());
    for h in [&mut s, &mut e] {
        h.usize(pm.rows());
        h.usize(pm.cols());
    }
    let mut word = 0u64;
    let mut bit = 0u32;
    let mut d_lanes: [Hasher; P_LANES] = std::array::from_fn(|k| Hasher::new(0xD1_6E ^ k as u64));
    let mut e_lanes: [Hasher; P_LANES] = std::array::from_fn(|k| Hasher::new(0xEC_AC ^ k as u64));
    for chunk in pm.as_slice().chunks(P_LANES) {
        for ((&v, dl), el) in chunk.iter().zip(&mut d_lanes).zip(&mut e_lanes) {
            if v != 0.0 {
                word |= 1 << bit;
            }
            bit += 1;
            if bit == 64 {
                s.word(word);
                word = 0;
                bit = 0;
            }
            dl.f64_quantized(v);
            el.f64_exact(v);
        }
    }
    if bit > 0 {
        s.word(word);
    }
    for (dl, el) in d_lanes.into_iter().zip(e_lanes) {
        d.word(dl.finish());
        e.word(el.finish());
    }
    for h in [&mut s, &mut e] {
        h.usize(a.rows());
        h.usize(a.cols());
    }
    for row in a.row_entries() {
        s.usize(row.len());
        for &(c, v) in row {
            s.usize(c);
            d.f64_quantized(v);
            e.f64_exact(v);
        }
    }
    hash_slice_quantized(&mut d, p.q());
    hash_slice_quantized(&mut d, p.l());
    hash_slice_quantized(&mut d, p.u());
    let structural = s.finish();
    e.word(structural);
    Fingerprint {
        key: key_of(structural, d.finish()),
        exact_pa: e.finish(),
    }
}

/// The cache key alone.
#[cfg(test)]
fn fingerprint_qp(p: &QpProblem) -> u128 {
    fingerprint(p).key
}

// ---------------------------------------------------------------------------
// The LRU store
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Slot<T> {
    last_used: u64,
    entry: T,
}

/// A bounded, fully deterministic LRU: an ordered map plus an explicit
/// recency clock. Eviction removes the entry with the smallest
/// `(last_used, key)` — no hash-iteration order anywhere, so two runs
/// that perform the same operations hold byte-identical cache states.
#[derive(Debug, Clone)]
struct Lru<T> {
    map: BTreeMap<u128, Slot<T>>,
    capacity: usize,
}

impl<T> Lru<T> {
    fn new(capacity: usize) -> Self {
        Lru {
            map: BTreeMap::new(),
            capacity,
        }
    }

    /// The best entry for `structural`: an exact digest match when
    /// present, otherwise the most recently used entry of the same
    /// structure ("nearest" in the drifting-trace sense). Returns the
    /// full key and whether the match was exact.
    fn lookup(&self, key: u128, structural_lo: u128, structural_hi: u128) -> Option<(u128, bool)> {
        if self.map.contains_key(&key) {
            return Some((key, true));
        }
        self.map
            .range(structural_lo..=structural_hi)
            .max_by_key(|(k, slot)| (slot.last_used, **k))
            .map(|(k, _)| (*k, false))
    }

    fn touch(&mut self, key: u128, clock: u64) -> Option<&mut T> {
        self.map.get_mut(&key).map(|slot| {
            slot.last_used = clock;
            &mut slot.entry
        })
    }

    /// Inserts (or replaces) `key`, evicting the LRU entry if the
    /// capacity bound is exceeded. Returns the number of evictions.
    fn insert(&mut self, key: u128, entry: T, clock: u64) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        self.map.insert(
            key,
            Slot {
                last_used: clock,
                entry,
            },
        );
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            let victim = self
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(k, slot)| (slot.last_used, **k))
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    self.map.remove(&k);
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }

    /// Moves an entry to a new key (the digest changed after a re-solve),
    /// preserving its recency.
    fn rekey(&mut self, old: u128, new: u128) {
        if old != new {
            if let Some(slot) = self.map.remove(&old) {
                self.map.insert(new, slot);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cache entries
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct QpEntry {
    warm: QpWarmStart,
    kkt: Cholesky,
    /// Bit-exact hash of `(P, A)` the factorization was computed for.
    exact_pa: u64,
    rho: f64,
    sigma: f64,
}

// ---------------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------------

/// A warm-start and solution-reuse cache for ADMM-QP solves.
///
/// Not thread-safe by design — give each worker its own cache, which is
/// also what keeps parallel runs bit-identical to serial ones.
///
/// # Example
/// ```
/// use rcr_convex::qp::{QpProblem, QpSettings};
/// use rcr_convex::warm::WarmCache;
/// use rcr_linalg::Matrix;
///
/// # fn main() -> Result<(), rcr_convex::ConvexError> {
/// let mut cache = WarmCache::new(16);
/// let s = QpSettings::default();
/// let prob = QpProblem::new(
///     Matrix::identity(2),
///     vec![-1.0, -1.0],
///     Matrix::identity(2),
///     vec![0.0, 0.0],
///     vec![0.5, 0.5],
/// )?;
/// let (cold, r0) = cache.solve_qp(&prob, &s)?;
/// let (warm, r1) = cache.solve_qp(&prob, &s)?;
/// assert!(!r0.hit && r1.hit && r1.factorization_reused);
/// assert!((cold.objective - warm.objective).abs() < 1e-6);
/// assert!(warm.iterations <= cold.iterations);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WarmCache {
    clock: u64,
    qp: Lru<QpEntry>,
    stats: WarmStats,
}

impl Default for WarmCache {
    fn default() -> Self {
        WarmCache::new(DEFAULT_CAPACITY)
    }
}

impl WarmCache {
    /// Creates a cache holding at most `capacity` entries (a capacity of
    /// 0 disables caching but still solves).
    pub fn new(capacity: usize) -> Self {
        WarmCache {
            clock: 0,
            qp: Lru::new(capacity),
            stats: WarmStats::default(),
        }
    }

    /// Usage counters so far.
    pub fn stats(&self) -> WarmStats {
        self.stats
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.qp.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Solves a QP, warm-starting from (and updating) the cache.
    ///
    /// The solution satisfies the same stopping tolerance as a cold
    /// [`QpProblem::solve`]. A hit seeds `x`/`y`/`z` from the nearest
    /// cached entry; when `(P, A)` and the penalty parameters are
    /// bit-identical to the cached factorization's, the KKT Cholesky is
    /// reused too and the solve performs no factorization at all.
    ///
    /// # Errors
    /// Those of [`QpProblem::solve`]; a failing warm seed falls back to a
    /// cold solve before any error is reported.
    pub fn solve_qp(
        &mut self,
        problem: &QpProblem,
        settings: &QpSettings,
    ) -> Result<(QpSolution, WarmReport), ConvexError> {
        let Fingerprint { key, exact_pa } = fingerprint(problem);
        let structural = (key >> 64) as u64;
        let clock = self.tick();
        let mut report = WarmReport::default();

        let found = self.qp.lookup(
            key,
            *structure_range(structural).start(),
            *structure_range(structural).end(),
        );
        if let Some((hit_key, exact)) = found {
            report.hit = true;
            report.exact = exact;
            self.stats.hits += 1;
            // Borrow the entry immutably via a clone of the small parts we
            // need; the factor itself is never cloned.
            let (warm, factor_ok) = {
                // Entry exists: lookup returned its key.
                let Some(entry) = self.qp.touch(hit_key, clock) else {
                    return Err(ConvexError::InvalidParameter(
                        "warm cache entry vanished (internal invariant)".into(),
                    ));
                };
                let factor_ok = entry.exact_pa == exact_pa
                    && entry.rho.to_bits() == settings.rho.to_bits()
                    && entry.sigma.to_bits() == settings.sigma.to_bits();
                (entry.warm.clone(), factor_ok)
            };
            if factor_ok {
                self.stats.factorization_reuses += 1;
                report.factorization_reused = true;
                // Split borrow: clone nothing, solve against the stored factor.
                let sol = {
                    let Some(entry) = self.qp.touch(hit_key, clock) else {
                        return Err(ConvexError::InvalidParameter(
                            "warm cache entry vanished (internal invariant)".into(),
                        ));
                    };
                    match problem.solve_with(settings, Some(&warm), Some(&entry.kkt)) {
                        Ok(sol) => sol,
                        // A stale seed (large drift) can stall; retry cold
                        // with the same factorization before giving up.
                        Err(ConvexError::NonConvergence { .. }) => {
                            problem.solve_with(settings, None, Some(&entry.kkt))?
                        }
                        Err(e) => return Err(e),
                    }
                };
                self.store_qp(hit_key, key, &sol, problem, None, exact_pa, settings)?;
                return Ok((sol, report));
            }
            // Coefficients of (P, A) drifted: refactorize, keep the seed.
            let factor = problem.kkt_factor(settings.rho, settings.sigma)?;
            let sol = match problem.solve_with(settings, Some(&warm), Some(&factor)) {
                Ok(sol) => sol,
                Err(ConvexError::NonConvergence { .. }) => {
                    problem.solve_with(settings, None, Some(&factor))?
                }
                Err(e) => return Err(e),
            };
            self.store_qp(
                hit_key,
                key,
                &sol,
                problem,
                Some(factor),
                exact_pa,
                settings,
            )?;
            return Ok((sol, report));
        }

        // Miss: cold solve, then populate.
        self.stats.misses += 1;
        let factor = problem.kkt_factor(settings.rho, settings.sigma)?;
        let sol = problem.solve_with(settings, None, Some(&factor))?;
        let warm = QpWarmStart::from_solution(problem, &sol)?;
        let evicted = self.qp.insert(
            key,
            QpEntry {
                warm,
                kkt: factor,
                exact_pa,
                rho: settings.rho,
                sigma: settings.sigma,
            },
            clock,
        );
        self.stats.evictions += evicted;
        Ok((sol, report))
    }

    /// Refreshes the hit entry with the new solution (and optionally a new
    /// factorization), then moves it under the instance's current key.
    #[allow(clippy::too_many_arguments)]
    fn store_qp(
        &mut self,
        hit_key: u128,
        new_key: u128,
        sol: &QpSolution,
        problem: &QpProblem,
        new_factor: Option<Cholesky>,
        exact_pa: u64,
        settings: &QpSettings,
    ) -> Result<(), ConvexError> {
        let warm = QpWarmStart::from_solution(problem, sol)?;
        if let Some(entry) = self.qp.map.get_mut(&hit_key) {
            entry.entry.warm = warm;
            if let Some(f) = new_factor {
                entry.entry.kkt = f;
                entry.entry.exact_pa = exact_pa;
                entry.entry.rho = settings.rho;
                entry.entry.sigma = settings.sigma;
            }
        }
        self.qp.rekey(hit_key, new_key);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcr_linalg::Matrix;

    fn qp_instance(shift: f64) -> QpProblem {
        // Dense SPD P (a channel-Gram-like matrix): channel perturbations
        // keep the sparsity pattern.
        let n = 4;
        let p = Matrix::from_fn(n, n, |i, j| {
            let base = 1.0 / (1.0 + i.abs_diff(j) as f64);
            if i == j {
                base + 2.0
            } else {
                base
            }
        });
        let q: Vec<f64> = (0..n).map(|i| -1.0 + shift + 0.1 * i as f64).collect();
        QpProblem::new(p, q, Matrix::identity(n), vec![-1.0; n], vec![1.0; n]).unwrap()
    }

    #[test]
    fn qp_repeat_solve_hits_and_reuses_factorization() {
        let mut cache = WarmCache::new(8);
        let s = QpSettings::default();
        let prob = qp_instance(0.0);
        let (cold, r0) = cache.solve_qp(&prob, &s).unwrap();
        assert!(!r0.hit);
        let (warm, r1) = cache.solve_qp(&prob, &s).unwrap();
        assert!(r1.hit && r1.exact && r1.factorization_reused);
        assert!((cold.objective - warm.objective).abs() < 1e-6);
        assert!(warm.iterations <= cold.iterations);
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.factorization_reuses), (1, 1, 1));
    }

    #[test]
    fn qp_drifting_q_warm_starts_without_refactorizing() {
        // q drifts (picked up by the digest or not — either way the
        // structural match warm-starts) while (P, A) stay bit-identical,
        // so the factorization is reused on every step.
        let mut cache = WarmCache::new(8);
        let s = QpSettings::default();
        let mut max_iters_warm = 0;
        let (first, _) = cache.solve_qp(&qp_instance(0.0), &s).unwrap();
        for step in 1..10 {
            let prob = qp_instance(1e-4 * step as f64);
            let (sol, rep) = cache.solve_qp(&prob, &s).unwrap();
            assert!(rep.hit, "step {step} should warm-start");
            assert!(rep.factorization_reused, "step {step} should reuse KKT");
            // Same tolerance as cold:
            let cold = prob.solve(&s).unwrap();
            assert!((sol.objective - cold.objective).abs() < 1e-6);
            max_iters_warm = max_iters_warm.max(sol.iterations);
        }
        assert!(
            max_iters_warm < first.iterations,
            "warm {max_iters_warm} vs cold {}",
            first.iterations
        );
    }

    #[test]
    fn eviction_is_deterministic_lru() {
        let mut cache = WarmCache::new(2);
        let s = QpSettings::default();
        // Three structurally distinct instances (different n).
        let probs: Vec<QpProblem> = (2..5)
            .map(|n| {
                QpProblem::new(
                    Matrix::identity(n),
                    vec![-1.0; n],
                    Matrix::identity(n),
                    vec![0.0; n],
                    vec![1.0; n],
                )
                .unwrap()
            })
            .collect();
        cache.solve_qp(&probs[0], &s).unwrap(); // clock 1
        cache.solve_qp(&probs[1], &s).unwrap(); // clock 2
        cache.solve_qp(&probs[0], &s).unwrap(); // hit, clock 3
        cache.solve_qp(&probs[2], &s).unwrap(); // evicts probs[1] (LRU)
        assert_eq!(cache.stats().evictions, 1);
        let (_, rep0) = cache.solve_qp(&probs[0], &s).unwrap();
        assert!(rep0.hit, "probs[0] was recently used, must survive");
        let (_, rep1) = cache.solve_qp(&probs[1], &s).unwrap();
        assert!(!rep1.hit, "probs[1] was the LRU victim");
    }

    #[test]
    fn zero_capacity_cache_still_solves() {
        let mut cache = WarmCache::new(0);
        let s = QpSettings::default();
        let prob = qp_instance(0.0);
        let (a, _) = cache.solve_qp(&prob, &s).unwrap();
        let (b, rep) = cache.solve_qp(&prob, &s).unwrap();
        assert!(!rep.hit);
        assert_eq!(a.x, b.x);
        assert!(cache.is_empty());
    }

    #[test]
    fn fingerprints_distinguish_structure_but_tolerate_tiny_drift() {
        let a = qp_instance(0.0);
        let b = qp_instance(0.0);
        assert_eq!(fingerprint_qp(&a), fingerprint_qp(&b));
        // Different dimension → different structural half.
        let other = QpProblem::new(
            Matrix::identity(3),
            vec![0.0; 3],
            Matrix::identity(3),
            vec![0.0; 3],
            vec![1.0; 3],
        )
        .unwrap();
        assert_ne!(fingerprint_qp(&a) >> 64, fingerprint_qp(&other) >> 64);
        // -0.0 and 0.0 hash identically.
        let neg = QpProblem::new(
            Matrix::identity(2),
            vec![-0.0, 0.0],
            Matrix::identity(2),
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        let pos = QpProblem::new(
            Matrix::identity(2),
            vec![0.0, 0.0],
            Matrix::identity(2),
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        assert_eq!(fingerprint_qp(&neg), fingerprint_qp(&pos));
    }

    #[test]
    fn constraint_fingerprint_follows_the_nonzeros_of_a() {
        let with_a = |a: Matrix| {
            let p = qp_instance(0.0);
            let n = p.num_vars();
            let prob = QpProblem::new(
                p.p().clone(),
                p.q().to_vec(),
                a,
                vec![-1.0; n],
                vec![1.0; n],
            )
            .unwrap();
            fingerprint(&prob)
        };
        let base = Matrix::from_fn(4, 4, |i, j| if i == j { 1.0 } else { 0.0 });
        // An explicit -0.0 is no nonzero: key and exact hash both agree.
        let mut neg_zero = base.clone();
        neg_zero[(0, 3)] = -0.0;
        let (f, g) = (with_a(base.clone()), with_a(neg_zero));
        assert_eq!((f.key, f.exact_pa), (g.key, g.exact_pa));
        // Moving a nonzero (same values, other column) changes the
        // structural half, and with it the exact hash.
        let mut moved = base.clone();
        moved[(2, 2)] = 0.0;
        moved[(2, 3)] = 1.0;
        let h = with_a(moved);
        assert_ne!(f.key >> 64, h.key >> 64);
        assert_ne!(f.exact_pa, h.exact_pa);
        // A changed value keeps the structure but not the exact hash.
        let mut scaled = base;
        scaled[(1, 1)] = 2.0;
        let k = with_a(scaled);
        assert_eq!(f.key >> 64, k.key >> 64);
        assert_ne!(f.exact_pa, k.exact_pa);
    }
}
