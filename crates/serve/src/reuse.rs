//! Exact-match solution reuse for the serve engine.
//!
//! The serving workload re-sees identical problems constantly: retries,
//! replicated scenario specs, periodic re-solves of a slowly-varying
//! cell. This module gives the [`crate::service`] engine a bounded,
//! sharded, deterministic LRU keyed by a **bit-exact** digest of the
//! problem and solver kind, so a hit returns exactly the solution a
//! fresh solve would have produced.
//!
//! Scope is deliberately narrower than the warm-start layer in
//! `rcr-convex::warm` (which accepts *nearby* instances and reuses
//! factorizations): here only bit-identical instances hit, because a
//! served response must be indistinguishable from a cold solve.
//!
//! **Determinism.** [`SolverKind::Greedy`] and [`SolverKind::Exact`] are
//! pure functions of the problem, so serving a cached solution is
//! bit-identical to recomputing it — the serial-vs-parallel identity
//! guarantee survives with the cache enabled at any worker count.
//! [`SolverKind::Pso`] derives a per-request seed from the request id
//! and is never cached. Cache *contents* (and therefore hit/miss
//! counters) may differ across worker counts because insertion order is
//! timing-dependent; responses never do.
//!
//! Eviction within a shard is deterministic: the entry with the
//! smallest `(last_used, key)` pair goes first, and iteration is over a
//! `BTreeMap` (no hash-iteration order).

use rcr_codec::Digest128;
use rcr_qos::rra::{RraProblem, RraSolution};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::request::SolverKind;

/// Number of independently locked shards. A power of two so the shard
/// index is a mask of the digest.
const SHARDS: usize = 8;

/// Solution-reuse configuration for [`crate::ServiceConfig`].
#[derive(Debug, Clone)]
pub struct ReuseConfig {
    /// Master switch; `false` (the default) bypasses the cache entirely.
    pub enabled: bool,
    /// Total cached solutions across all shards (rounded up to a
    /// multiple of the shard count; `0` disables caching).
    pub capacity: usize,
}

impl Default for ReuseConfig {
    fn default() -> Self {
        ReuseConfig {
            enabled: false,
            capacity: 256,
        }
    }
}

/// A point-in-time copy of the reuse counters, carried on
/// [`crate::MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReuseCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a solve (including uncacheable
    /// solver kinds when the cache is enabled).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

// ---------------------------------------------------------------------
// Bit-exact fingerprinting
// ---------------------------------------------------------------------

/// The bit-exact cache key of `(solver, problem)`. 128 bits, because a
/// collision would serve the wrong solution; floats fold by raw bits,
/// so distinct inputs may only ever cause a spurious miss, never a
/// wrong hit.
fn key_of(solver: SolverKind, problem: &RraProblem) -> u128 {
    let mut d = Digest128::new(match solver {
        SolverKind::Greedy => 0x6772_6565_6479,
        SolverKind::Exact => 0x0065_7861_6374,
        // Uncacheable; callers gate on `cacheable` first. Hashed under
        // its own seed anyway so a future change cannot alias Greedy.
        SolverKind::Pso => 0x0070_736f,
        SolverKind::Robust => 0x726f_6275_7374,
    });
    d.u64(problem.users() as u64);
    d.u64(problem.resource_blocks() as u64);
    d.f64(problem.noise_power_w);
    d.f64(problem.power_budget_w);
    d.f64(problem.rb_bandwidth_hz);
    for &r in &problem.min_rates_bps {
        d.f64(r);
    }
    for user in 0..problem.users() {
        for rb in 0..problem.resource_blocks() {
            d.f64(problem.channel().gain(user, rb));
        }
    }
    d.finish()
}

/// Whether a solver kind's output depends only on the problem (and may
/// therefore be cached across requests).
pub(crate) fn cacheable(solver: SolverKind) -> bool {
    match solver {
        // Robust is a pure function of the problem too; a hit skips the
        // Gram eigendecomposition, KKT factorization and ADMM solve.
        SolverKind::Greedy | SolverKind::Exact | SolverKind::Robust => true,
        // Seeded per request id: two requests with identical problems
        // legitimately produce different swarms.
        SolverKind::Pso => false,
    }
}

// ---------------------------------------------------------------------
// The sharded LRU
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Slot {
    solution: RraSolution,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Shard {
    clock: u64,
    map: BTreeMap<u128, Slot>,
}

impl Shard {
    fn get(&mut self, key: u128) -> Option<RraSolution> {
        self.clock += 1;
        let clock = self.clock;
        let slot = self.map.get_mut(&key)?;
        slot.last_used = clock;
        Some(slot.solution.clone())
    }

    /// Inserts `solution`, evicting the least-recently-used entry (ties
    /// broken by smaller key) if the shard is full. Returns evictions.
    fn insert(&mut self, key: u128, solution: RraSolution, capacity: usize) -> u64 {
        if capacity == 0 {
            return 0;
        }
        self.clock += 1;
        let slot = Slot {
            solution,
            last_used: self.clock,
        };
        let fresh = self.map.insert(key, slot).is_none();
        let mut evicted = 0;
        if fresh && self.map.len() > capacity {
            let victim = self
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(k, s)| (s.last_used, **k))
                .map(|(k, _)| *k);
            if let Some(v) = victim {
                self.map.remove(&v);
                evicted = 1;
            }
        }
        evicted
    }
}

/// The engine-side cache: `SHARDS` independently locked deterministic
/// LRUs plus lock-free counters.
#[derive(Debug)]
pub(crate) struct ReuseCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ReuseCache {
    /// Builds a cache from a config; `None` when disabled or zero-sized.
    pub(crate) fn from_config(config: &ReuseConfig) -> Option<ReuseCache> {
        if !config.enabled || config.capacity == 0 {
            return None;
        }
        Some(ReuseCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: config.capacity.div_ceil(SHARDS),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    fn shard(&self, key: u128) -> &Mutex<Shard> {
        // High digest bits pick the shard; low bits order the BTreeMap.
        &self.shards[((key >> 64) as usize) & (SHARDS - 1)]
    }

    /// Looks up a bit-exact match, counting a hit or miss. Uncacheable
    /// solver kinds are counted as misses by the caller not calling in.
    pub(crate) fn get(&self, solver: SolverKind, problem: &RraProblem) -> Option<RraSolution> {
        let key = key_of(solver, problem);
        let found = self
            .shard(key)
            .lock()
            .expect("serve: reuse shard poisoned")
            .get(key);
        match found {
            Some(s) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(s)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a freshly computed solution.
    pub(crate) fn put(&self, solver: SolverKind, problem: &RraProblem, solution: &RraSolution) {
        let key = key_of(solver, problem);
        let evicted = self
            .shard(key)
            .lock()
            .expect("serve: reuse shard poisoned")
            .insert(key, solution.clone(), self.shard_capacity);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Counts a miss without a lookup — used for uncacheable solver
    /// kinds so the hit *rate* reflects the whole request stream.
    pub(crate) fn count_bypass(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub(crate) fn counters(&self) -> ReuseCounters {
        ReuseCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ScenarioSpec;
    use rcr_qos::QosClass;

    fn problem(seed: u64) -> RraProblem {
        ScenarioSpec {
            users: 3,
            resource_blocks: 6,
            seed,
        }
        .to_problem(QosClass::Embb)
        .unwrap()
    }

    fn solution(p: &RraProblem) -> RraSolution {
        rcr_qos::rra::solve_greedy(p).unwrap()
    }

    fn cache(capacity: usize) -> ReuseCache {
        ReuseCache::from_config(&ReuseConfig {
            enabled: true,
            capacity,
        })
        .unwrap()
    }

    #[test]
    fn disabled_or_empty_config_builds_no_cache() {
        assert!(ReuseCache::from_config(&ReuseConfig::default()).is_none());
        assert!(ReuseCache::from_config(&ReuseConfig {
            enabled: true,
            capacity: 0,
        })
        .is_none());
    }

    #[test]
    fn hit_returns_the_stored_solution_bit_identically() {
        let c = cache(16);
        let p = problem(7);
        let s = solution(&p);
        assert!(c.get(SolverKind::Greedy, &p).is_none());
        c.put(SolverKind::Greedy, &p, &s);
        let hit = c.get(SolverKind::Greedy, &p).expect("hit");
        assert_eq!(hit.owners, s.owners);
        assert_eq!(
            hit.total_rate_bps.to_bits(),
            s.total_rate_bps.to_bits(),
            "cached solution must be bit-identical"
        );
        let counters = c.counters();
        assert_eq!((counters.hits, counters.misses), (1, 1));
    }

    #[test]
    fn keys_are_pinned_bit_for_bit() {
        // Reuse keys are part of the replay story: a change to the digest
        // or to what `key_of` folds must show up here, not as a silent
        // shift in which requests share a cache entry.
        let p = problem(7);
        for (kind, want) in [
            (
                SolverKind::Greedy,
                0x9282_e18f_65cb_3857_e237_5677_3532_5a6f,
            ),
            (SolverKind::Exact, 0x54d3_fe1b_5e57_2abf_f115_3015_f5b0_dd29),
            (
                SolverKind::Robust,
                0xd9ca_7219_8e4a_a082_d571_0ad5_c791_cc77,
            ),
            (SolverKind::Pso, 0xf384_b8e7_3acd_1a08_bd20_3d4d_267a_3a46),
        ] {
            assert_eq!(key_of(kind, &p), want, "{kind:?}");
        }
    }

    #[test]
    fn key_separates_solver_kinds_and_problems() {
        let c = cache(16);
        let p7 = problem(7);
        let p8 = problem(8);
        c.put(SolverKind::Greedy, &p7, &solution(&p7));
        assert!(c.get(SolverKind::Exact, &p7).is_none(), "kind in the key");
        assert!(c.get(SolverKind::Greedy, &p8).is_none(), "problem in key");
        assert!(c.get(SolverKind::Greedy, &p7).is_some());
    }

    #[test]
    fn tiny_bitwise_perturbation_misses() {
        let c = cache(16);
        let p = problem(7);
        c.put(SolverKind::Greedy, &p, &solution(&p));
        let mut q = p.clone();
        q.power_budget_w = f64::from_bits(q.power_budget_w.to_bits() + 1);
        assert!(
            c.get(SolverKind::Greedy, &q).is_none(),
            "one ulp of drift must miss — only bit-exact matches hit"
        );
    }

    #[test]
    fn eviction_is_lru_and_counted() {
        // One-entry shards: every insert into an occupied shard evicts.
        let c = cache(SHARDS);
        assert_eq!(c.shard_capacity, 1);
        let p = problem(3);
        let s = solution(&p);
        // Drive many distinct keys through; once more than SHARDS
        // distinct problems exist, some shard must have evicted.
        for seed in 0..(SHARDS as u64 * 4) {
            let pi = problem(seed);
            c.put(SolverKind::Greedy, &pi, &s);
        }
        assert!(c.counters().evictions > 0, "evictions must be counted");
        // Re-inserting a key that is already resident never evicts.
        c.put(SolverKind::Greedy, &p, &s);
        let after_first = c.counters().evictions;
        c.put(SolverKind::Greedy, &p, &s);
        assert_eq!(c.counters().evictions, after_first);
        assert!(c.get(SolverKind::Greedy, &p).is_some());
    }

    #[test]
    fn pso_is_not_cacheable() {
        assert!(cacheable(SolverKind::Greedy));
        assert!(cacheable(SolverKind::Exact));
        assert!(cacheable(SolverKind::Robust));
        assert!(!cacheable(SolverKind::Pso));
    }
}
