//! Warm-start and solution-reuse layer for the ADMM-QP solver.
//!
//! At production scale most solve requests are near-duplicates: the same
//! cell resolved every scheduling interval with a slowly drifting channel.
//! This module exploits that redundancy. A [`WarmCache`] keys each
//! [`crate::qp`] instance by a *structural* hash of its dimensions and
//! the sparsity patterns of `P` and `A`, and keeps one entry per
//! structure in a bounded, deterministic LRU: the last solution of that
//! structure, the ADMM penalty ρ its solve ended at, and the KKT
//! factorization at that ρ. A hit seeds `x`/`y`/`z` from the entry and
//! starts from the entry's ρ. It reuses the condensed KKT Cholesky
//! whenever `(P, A)` and σ are bit-identical to the ones it was computed
//! for, and otherwise refactors at the entry's ρ. The solve then
//! overwrites the entry, so the next instance of that structure starts
//! from the latest answer and the latest ρ.
//!
//! Warm solves run to the *same* stopping tolerance as cold solves — the
//! layer trades iterations, never accuracy. Every lookup, update and
//! eviction is deterministic (an ordered map, an explicit recency clock,
//! no hash-iteration order), so the results are a pure function of the
//! request sequence and the capacity: replaying a trace into a fresh
//! cache of the same capacity reproduces every solution bit. Results are
//! *not* independent of the capacity — a different capacity changes
//! which structures are evicted, so whether a solve starts warm or cold,
//! and with it the last bits of the answer and the iteration count.

use crate::qp::{Penalty, QpProblem, QpSettings, QpSolution, QpWarmStart};
use crate::ConvexError;
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
    /// Hits that additionally started from a cached factorization.
    pub factorization_reuses: u64,
    /// KKT factorizations performed: one per miss, one per hit whose
    /// `(P, A)` or σ changed, and one per ρ move inside a solve.
    pub factorizations: u64,
}

/// What the cache did for one solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmReport {
    /// A cached entry seeded the iteration.
    pub hit: bool,
    /// The solve started from a cached factorization.
    pub factorization_reused: bool,
    /// KKT factorizations this solve performed (see
    /// [`WarmStats::factorizations`]).
    pub factorizations: u64,
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
    fn finish(self) -> u64 {
        self.0
    }
}

/// What the cache knows a QP by.
#[derive(Debug, Clone, Copy)]
struct Fingerprint {
    /// Dimensions and the sparsity patterns of `P` and `A`: the cache key.
    structural: u64,
    /// Bit-exact hash of `(P, A)`: a cached factor is reused only on a
    /// match.
    exact_pa: u64,
}

/// Independent hash lanes for `P`'s values: entry `k` feeds lane
/// `k % P_LANES`, so the splitmix chains of neighbouring entries overlap
/// instead of each waiting on the last.
const P_LANES: usize = 4;

/// Both hashes in one pass over `P` and one over `A`'s nonzeros. `P`
/// feeds its pattern (packed 64 entries per word) and its exact bits;
/// `A` feeds each row's length and column indices, and the exact nonzero
/// values. `A` keeps no `±0.0` entry, so a `-0.0` fingerprints like a
/// `+0.0`, and with the pattern equal, hashing only the nonzeros tells
/// two instances apart exactly when hashing every entry would.
fn fingerprint(p: &QpProblem) -> Fingerprint {
    let (pm, a) = (p.p(), p.a());
    let mut s = Hasher::new(0x51_70);
    let mut e = Hasher::new(0xEC_AC);
    s.usize(p.num_vars());
    s.usize(p.num_constraints());
    for h in [&mut s, &mut e] {
        h.usize(pm.rows());
        h.usize(pm.cols());
    }
    let mut word = 0u64;
    let mut bit = 0u32;
    let mut e_lanes: [Hasher; P_LANES] = std::array::from_fn(|k| Hasher::new(0xEC_AC ^ k as u64));
    for chunk in pm.as_slice().chunks(P_LANES) {
        for (&v, el) in chunk.iter().zip(&mut e_lanes) {
            if v != 0.0 {
                word |= 1 << bit;
            }
            bit += 1;
            if bit == 64 {
                s.word(word);
                word = 0;
                bit = 0;
            }
            el.f64_exact(v);
        }
    }
    if bit > 0 {
        s.word(word);
    }
    for el in e_lanes {
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
            e.f64_exact(v);
        }
    }
    let structural = s.finish();
    e.word(structural);
    Fingerprint {
        structural,
        exact_pa: e.finish(),
    }
}

// ---------------------------------------------------------------------------
// Cache entries
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct QpEntry {
    /// Recency clock of the last solve that used this entry.
    last_used: u64,
    warm: QpWarmStart,
    /// The ρ the last solve ended at, with the KKT factor at that ρ.
    penalty: Penalty,
    /// Bit-exact hash of `(P, A)` and the σ the factor was computed for.
    exact_pa: u64,
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
/// assert!(r0.factorizations >= 1 && r1.factorizations == 0);
/// assert!((cold.objective - warm.objective).abs() < 1e-6);
/// assert!(warm.iterations <= cold.iterations);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WarmCache {
    clock: u64,
    capacity: usize,
    /// One entry per structural hash. Eviction removes the entry with the
    /// smallest `(last_used, key)` — no hash-iteration order anywhere, so
    /// two runs that perform the same operations hold identical states.
    qp: BTreeMap<u64, QpEntry>,
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
            capacity,
            qp: BTreeMap::new(),
            stats: WarmStats::default(),
        }
    }

    /// Usage counters so far.
    pub fn stats(&self) -> WarmStats {
        self.stats
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.qp.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Solves a QP, warm-starting from (and updating) the cache.
    ///
    /// The solution satisfies the same stopping tolerance as a cold
    /// [`QpProblem::solve`]. A miss solves cold with ρ starting at
    /// `settings.rho`. A hit seeds `x`/`y`/`z` from the entry of the
    /// instance's structure and starts from the ρ that entry's last solve
    /// ended at: when `(P, A)` and σ are bit-identical to the cached
    /// factorization's, the KKT Cholesky at that ρ is reused too, and
    /// otherwise it is refactored at that ρ. Either way the solve may move
    /// ρ and refactor again; [`WarmReport::factorizations`] counts every
    /// factorization, so a hit that reuses the factor and keeps ρ performs
    /// none.
    ///
    /// # Errors
    /// Those of [`QpProblem::solve`]; a failing warm seed falls back to a
    /// cold solve before any error is reported.
    pub fn solve_qp(
        &mut self,
        problem: &QpProblem,
        settings: &QpSettings,
    ) -> Result<(QpSolution, WarmReport), ConvexError> {
        settings.check()?;
        let Fingerprint {
            structural,
            exact_pa,
        } = fingerprint(problem);
        self.clock += 1;
        let Some(entry) = self.qp.get_mut(&structural) else {
            // Miss: cold solve, then populate.
            self.stats.misses += 1;
            let mut penalty = Penalty::new(problem, settings.rho, settings.sigma)?;
            let solved = problem.solve_with(settings, None, &mut penalty);
            let factorizations = penalty.factorizations();
            self.stats.factorizations += factorizations;
            let sol = solved?;
            let warm = QpWarmStart::from_solution(problem, &sol)?;
            if self.capacity > 0 {
                if self.qp.len() == self.capacity {
                    self.evict_lru();
                }
                let entry = QpEntry {
                    last_used: self.clock,
                    warm,
                    penalty,
                    exact_pa,
                    sigma: settings.sigma,
                };
                self.qp.insert(structural, entry);
            }
            let report = WarmReport {
                factorizations,
                ..WarmReport::default()
            };
            return Ok((sol, report));
        };
        entry.last_used = self.clock;
        self.stats.hits += 1;
        let before = entry.penalty.factorizations();
        let factorization_reused =
            entry.exact_pa == exact_pa && entry.sigma.to_bits() == settings.sigma.to_bits();
        if factorization_reused {
            self.stats.factorization_reuses += 1;
        } else {
            // (P, A) or σ drifted: refactor at the entry's ρ, keep the
            // seed. The entry then describes the new factor, whatever the
            // solve below does.
            let rho = entry.penalty.rho();
            entry.penalty.refactor(problem, rho, settings.sigma)?;
            entry.exact_pa = exact_pa;
            entry.sigma = settings.sigma;
        }
        let solved = match problem.solve_with(settings, Some(&entry.warm), &mut entry.penalty) {
            // A stale seed (large drift) can stall; retry cold from the
            // penalty it ended at before giving up.
            Err(ConvexError::NonConvergence { .. }) => {
                problem.solve_with(settings, None, &mut entry.penalty)
            }
            other => other,
        };
        let factorizations = entry.penalty.factorizations() - before;
        self.stats.factorizations += factorizations;
        let sol = solved?;
        entry.warm = QpWarmStart::from_solution(problem, &sol)?;
        Ok((
            sol,
            WarmReport {
                hit: true,
                factorization_reused,
                factorizations,
            },
        ))
    }

    /// Removes the least recently used entry.
    fn evict_lru(&mut self) {
        let victim = self
            .qp
            .iter()
            .min_by_key(|(k, entry)| (entry.last_used, **k))
            .map(|(k, _)| *k);
        if let Some(k) = victim {
            self.qp.remove(&k);
            self.stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcr_linalg::Matrix;

    /// A 4-variable box QP with an SPD `P` (a channel-Gram-like matrix)
    /// that keeps the entries within `band` of the diagonal, its diagonal
    /// raised by `p_drift`, and `q` shifted by `shift`. Channel
    /// perturbations keep the sparsity pattern.
    fn qp_banded(band: usize, shift: f64, p_drift: f64) -> QpProblem {
        let n = 4;
        let p = Matrix::from_fn(n, n, |i, j| {
            let base = 1.0 / (1.0 + i.abs_diff(j) as f64);
            if i == j {
                base + 2.0 + p_drift
            } else if i.abs_diff(j) <= band {
                base
            } else {
                0.0
            }
        });
        let q: Vec<f64> = (0..n).map(|i| -1.0 + shift + 0.1 * i as f64).collect();
        QpProblem::new(p, q, Matrix::identity(n), vec![-1.0; n], vec![1.0; n]).unwrap()
    }

    /// `qp_banded` with a dense `P`.
    fn qp_instance(shift: f64) -> QpProblem {
        qp_banded(3, shift, 0.0)
    }

    #[test]
    fn qp_repeat_solve_hits_and_reuses_factorization() {
        let mut cache = WarmCache::new(8);
        let s = QpSettings::default();
        let prob = qp_instance(0.0);
        let (cold, r0) = cache.solve_qp(&prob, &s).unwrap();
        assert!(!r0.hit);
        let (warm, r1) = cache.solve_qp(&prob, &s).unwrap();
        assert!(r1.hit && r1.factorization_reused);
        assert!((cold.objective - warm.objective).abs() < 1e-6);
        assert!(warm.iterations <= cold.iterations);
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.factorization_reuses), (1, 1, 1));
    }

    #[test]
    fn hits_on_an_unchanged_p_and_a_start_from_the_adapted_rho_without_factorizing() {
        // From ρ = 1e-3 the miss moves ρ; the entry keeps the moved ρ with
        // its factor, and hits whose (P, A) stay put start there.
        let s = QpSettings {
            rho: 1e-3,
            ..QpSettings::default()
        };
        let mut cache = WarmCache::new(8);
        let (_, miss) = cache.solve_qp(&qp_instance(0.0), &s).unwrap();
        assert!(miss.factorizations > 1, "{miss:?}");
        let entry = |cache: &WarmCache| cache.qp.values().next().cloned().unwrap();
        let adapted = entry(&cache).penalty.rho();
        assert_ne!(adapted.to_bits(), s.rho.to_bits());
        for step in 1..=2 {
            let prob = qp_instance(1e-4 * step as f64);
            let seed = entry(&cache).warm;
            let (sol, rep) = cache.solve_qp(&prob, &s).unwrap();
            assert!(rep.hit && rep.factorization_reused, "step {step}");
            assert_eq!(rep.factorizations, 0, "step {step}");
            // Bit for bit the solve that starts at the adapted ρ.
            let mut penalty = Penalty::new(&prob, adapted, s.sigma).unwrap();
            let want = prob.solve_with(&s, Some(&seed), &mut penalty).unwrap();
            assert_eq!(
                (sol.objective.to_bits(), sol.iterations),
                (want.objective.to_bits(), want.iterations),
                "step {step}"
            );
            assert_eq!(entry(&cache).penalty.rho().to_bits(), adapted.to_bits());
        }
        let st = cache.stats();
        assert_eq!(
            (st.hits, st.factorization_reuses, st.factorizations),
            (2, 2, miss.factorizations)
        );
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
    fn one_entry_per_structure() {
        let s = QpSettings::default();
        // One structure: q drifts every step, step 3 repeats step 2
        // exactly, and P drifts from step 5 on (hits that refactorize).
        let mut cache = WarmCache::new(8);
        for step in 0..8 {
            let t = if step == 3 { 2 } else { step };
            let p_drift = if step >= 5 { 1e-3 * step as f64 } else { 0.0 };
            let (_, rep) = cache
                .solve_qp(&qp_banded(3, 1e-3 * t as f64, p_drift), &s)
                .unwrap();
            assert_eq!(rep.hit, step > 0, "step {step}");
            assert_eq!(
                rep.factorization_reused,
                (1..=4).contains(&step),
                "step {step}"
            );
            assert_eq!(cache.len(), 1, "step {step}");
        }
        // Two interleaved structures of one size (dense and tridiagonal
        // `P`): each hit must start from its own structure's last answer,
        // exactly as in a cache that holds that structure alone.
        let mut shared = WarmCache::new(8);
        let mut alone = [WarmCache::new(8), WarmCache::new(8)];
        for step in 0..6 {
            let shift = 1e-3 * step as f64;
            let probs = [qp_banded(3, shift, 0.0), qp_banded(1, -shift, 0.0)];
            for (prob, own) in probs.iter().zip(&mut alone) {
                let (got, rep) = shared.solve_qp(prob, &s).unwrap();
                let (want, _) = own.solve_qp(prob, &s).unwrap();
                assert_eq!(rep.hit, step > 0, "step {step}");
                assert_eq!(
                    (got.objective.to_bits(), got.iterations),
                    (want.objective.to_bits(), want.iterations),
                    "step {step}"
                );
            }
            assert_eq!(shared.len(), 2, "step {step}");
        }
    }

    #[test]
    fn fingerprints_separate_structures_and_ignore_the_sign_of_zero() {
        let f = fingerprint(&qp_instance(0.0));
        let g = fingerprint(&qp_instance(0.0));
        assert_eq!((f.structural, f.exact_pa), (g.structural, g.exact_pa));
        // Drift in q or in P's values keeps the structure; only the
        // latter changes the exact hash.
        let q_drift = fingerprint(&qp_instance(1e-3));
        assert_eq!(
            (f.structural, f.exact_pa),
            (q_drift.structural, q_drift.exact_pa)
        );
        let p_drift = fingerprint(&qp_banded(3, 0.0, 1e-3));
        assert_eq!(f.structural, p_drift.structural);
        assert_ne!(f.exact_pa, p_drift.exact_pa);
        // Another sparsity pattern or dimension is another structure.
        assert_ne!(
            f.structural,
            fingerprint(&qp_banded(1, 0.0, 0.0)).structural
        );
        let other = QpProblem::new(
            Matrix::identity(3),
            vec![0.0; 3],
            Matrix::identity(3),
            vec![0.0; 3],
            vec![1.0; 3],
        )
        .unwrap();
        assert_ne!(f.structural, fingerprint(&other).structural);
        // A -0.0 in P hashes like a 0.0 in both hashes.
        let with_p = |off: f64| {
            let p = Matrix::from_rows(&[&[1.0, off], &[off, 1.0]]).unwrap();
            let prob = QpProblem::new(
                p,
                vec![0.0; 2],
                Matrix::identity(2),
                vec![0.0; 2],
                vec![1.0; 2],
            )
            .unwrap();
            let h = fingerprint(&prob);
            (h.structural, h.exact_pa)
        };
        assert_eq!(with_p(-0.0), with_p(0.0));
    }

    #[test]
    fn constraint_fingerprint_follows_the_nonzeros_of_a() {
        let with_a = |a: Matrix| {
            let p = qp_instance(0.0).p().clone();
            let prob = QpProblem::new(p, vec![-1.0; 4], a, vec![-1.0; 4], vec![1.0; 4]).unwrap();
            fingerprint(&prob)
        };
        let base = Matrix::from_fn(4, 4, |i, j| if i == j { 1.0 } else { 0.0 });
        // An explicit -0.0 is no nonzero: both hashes agree.
        let mut neg_zero = base.clone();
        neg_zero[(0, 3)] = -0.0;
        let (f, g) = (with_a(base.clone()), with_a(neg_zero));
        assert_eq!((f.structural, f.exact_pa), (g.structural, g.exact_pa));
        // Moving a nonzero (same values, other column) changes the
        // structural hash, and with it the exact hash.
        let mut moved = base.clone();
        moved[(2, 2)] = 0.0;
        moved[(2, 3)] = 1.0;
        let h = with_a(moved);
        assert_ne!(f.structural, h.structural);
        assert_ne!(f.exact_pa, h.exact_pa);
        // A changed value keeps the structure but not the exact hash.
        let mut scaled = base;
        scaled[(1, 1)] = 2.0;
        let k = with_a(scaled);
        assert_eq!(f.structural, k.structural);
        assert_ne!(f.exact_pa, k.exact_pa);
    }
}
