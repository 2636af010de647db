//! Lazy, deterministic trace generation.
//!
//! [`TraceGenerator`] turns a validated [`ScenarioManifest`] into an
//! iterator of [`TimedRequest`]s — nothing is materialized, so a 10⁶-
//! request trace costs O(active drifting users) memory, and the whole
//! stream is a pure function of the manifest (worker counts, wall clock,
//! and iteration batching cannot touch it).
//!
//! Seed derivation is layered so streams never alias:
//!
//! ```text
//! manifest.seed
//!   ├─ ^ARRIVAL_SALT  → arrival timeline rng
//!   ├─ ^PICK_SALT     → user-selection rng
//!   ├─ ^CLASS_SALT ──seed_stream(·, user)──→ the user's QoS class
//!   └─ ^CHANNEL_SALT ─seed_stream(·, user ⊕ cell·φ)─→ user channel base
//!                        └─seed_stream(·, epoch)──→ per-epoch spec seed
//! ```
//!
//! so a user's class is stable for the whole trace, and their channel
//! redraws exactly when the fading model says it should.

use crate::arrivals::Arrivals;
use crate::manifest::{FadingModel, ScenarioManifest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcr_codec::Digest128;
use rcr_runtime::seed_stream;
use rcr_serve::{Payload, ScenarioSpec, SolveRequest};
use std::collections::HashMap;
use std::time::Duration;

const ARRIVAL_SALT: u64 = 0xA11C_0A75_ED15_7AB1;
const PICK_SALT: u64 = 0x9C0D_E5EE_D0F0_0D5E;
const CLASS_SALT: u64 = 0xC1A5_5EED_0000_0001;
const CHANNEL_SALT: u64 = 0xC4A7_7E15_EED0_0002;
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Maps a 64-bit hash to the unit interval `[0, 1)`.
#[inline]
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// One generated request with its virtual arrival time and attribution.
#[derive(Debug, Clone)]
pub struct TimedRequest {
    /// Virtual arrival time (µs since trace start, strictly increasing).
    pub at_us: u64,
    /// The user this arrival is attributed to.
    pub user: u64,
    /// The user's home cell (`user % cells`).
    pub cell: u64,
    /// The request to submit; `request.id` is the trace position.
    pub request: SolveRequest,
}

/// Per-user correlated-drift channel state: how many requests the user
/// has issued, and which epoch their current channel realization is.
struct DriftState {
    arrivals: u64,
    epoch: u64,
}

/// Lazy trace iterator. Yields exactly `manifest.requests` items.
pub struct TraceGenerator {
    manifest: ScenarioManifest,
    arrivals: Arrivals,
    pick_rng: StdRng,
    next_id: u64,
    /// Correlated-drift memory, keyed by user. Only populated under
    /// [`FadingModel::CorrelatedDrift`]; grows with *distinct users
    /// seen*, the one deliberate O(population) cost of that model.
    drift: HashMap<u64, DriftState>,
}

impl TraceGenerator {
    /// A generator over `manifest`. Validates first so iteration cannot
    /// divide by zero or loop forever.
    ///
    /// # Errors
    /// Whatever [`ScenarioManifest::validate`] reports.
    pub fn new(manifest: &ScenarioManifest) -> Result<TraceGenerator, String> {
        manifest.validate()?;
        Ok(TraceGenerator {
            arrivals: Arrivals::new(manifest.arrivals, manifest.seed ^ ARRIVAL_SALT),
            pick_rng: StdRng::seed_from_u64(manifest.seed ^ PICK_SALT),
            manifest: manifest.clone(),
            next_id: 0,
            drift: HashMap::new(),
        })
    }

    /// The channel-spec seed for this arrival, per the fading model.
    fn channel_seed(&mut self, user: u64, cell: u64, at_us: u64) -> u64 {
        let base = seed_stream(
            self.manifest.seed ^ CHANNEL_SALT,
            user ^ cell.wrapping_mul(GOLDEN),
        );
        match self.manifest.fading {
            FadingModel::BlockRayleigh { coherence_us } => {
                // Redraw on coherence-block boundaries of virtual time.
                seed_stream(base, at_us / coherence_us)
            }
            FadingModel::CorrelatedDrift { redraw_prob } => {
                let state = self.drift.entry(user).or_insert(DriftState {
                    arrivals: 0,
                    epoch: 0,
                });
                if state.arrivals > 0 {
                    let u = unit_f64(seed_stream(base ^ GOLDEN, state.arrivals));
                    if u < redraw_prob {
                        state.epoch = state.arrivals;
                    }
                }
                state.arrivals += 1;
                seed_stream(base, state.epoch)
            }
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = TimedRequest;

    fn next(&mut self) -> Option<TimedRequest> {
        if self.next_id >= self.manifest.requests {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        let at_us = self.arrivals.next()?;
        let user = self.pick_rng.gen_range(0..self.manifest.population);
        let cell = user % self.manifest.cells;
        let class = self
            .manifest
            .class_mix
            .pick(unit_f64(seed_stream(self.manifest.seed ^ CLASS_SALT, user)));
        let spec_seed = self.channel_seed(user, cell, at_us);
        Some(TimedRequest {
            at_us,
            user,
            cell,
            request: SolveRequest {
                id,
                class,
                deadline: Duration::from_micros(self.manifest.deadline_us(class)),
                solver: self.manifest.solver,
                payload: Payload::Scenario(ScenarioSpec {
                    users: self.manifest.users_per_problem,
                    resource_blocks: self.manifest.resource_blocks,
                    seed: spec_seed,
                }),
            },
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.manifest.requests - self.next_id) as usize;
        (left, Some(left))
    }
}

/// Folds one timed request into a digest — every field that reaches the
/// service, plus the attribution, in emission order.
pub fn fold_request(d: &mut Digest128, t: &TimedRequest) {
    d.u64(t.request.id);
    d.u64(t.at_us);
    d.u64(t.user);
    d.u64(t.cell);
    d.u64(t.request.class.priority_rank() as u64);
    d.u64(t.request.deadline.as_micros() as u64);
    d.str(t.request.solver.name());
    if let Payload::Scenario(spec) = &t.request.payload {
        d.u64(spec.users as u64);
        d.u64(spec.resource_blocks as u64);
        d.u64(spec.seed);
    }
}

/// Generates the full trace and returns its 128-bit hex digest — the
/// replay contract recorded in a [`crate::manifest::RunManifest`].
///
/// # Errors
/// Whatever [`ScenarioManifest::validate`] reports.
pub fn trace_digest(manifest: &ScenarioManifest) -> Result<String, String> {
    let mut d = Digest128::new(manifest.seed);
    manifest.fold_into(&mut d);
    for t in TraceGenerator::new(manifest)? {
        fold_request(&mut d, &t);
    }
    Ok(d.hex())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{ArrivalProcess, ClassMix, ScenarioManifest};
    use rcr_qos::QosClass;
    use rcr_serve::SolverKind;

    fn manifest() -> ScenarioManifest {
        ScenarioManifest {
            name: "trace-unit".into(),
            seed: 99,
            requests: 5_000,
            cells: 4,
            population: 10_000,
            users_per_problem: 3,
            resource_blocks: 6,
            class_mix: ClassMix {
                urllc: 0.2,
                embb: 0.3,
                mmtc: 0.5,
            },
            fading: FadingModel::BlockRayleigh {
                coherence_us: 5_000,
            },
            arrivals: ArrivalProcess::Poisson {
                rate_per_sec: 50_000.0,
            },
            deadlines_us: [2_000, 20_000, 200_000],
            solver: SolverKind::Greedy,
        }
    }

    #[test]
    fn yields_exactly_requests_items_with_sequential_ids() {
        let items: Vec<TimedRequest> = TraceGenerator::new(&manifest()).unwrap().collect();
        assert_eq!(items.len(), 5_000);
        for (i, t) in items.iter().enumerate() {
            assert_eq!(t.request.id, i as u64);
            assert_eq!(t.cell, t.user % 4);
            assert!(t.user < 10_000);
        }
        assert!(items.windows(2).all(|w| w[0].at_us < w[1].at_us));
    }

    #[test]
    fn class_is_a_stable_function_of_the_user() {
        let mut class_of: HashMap<u64, QosClass> = HashMap::new();
        for t in TraceGenerator::new(&manifest()).unwrap() {
            let prev = class_of.insert(t.user, t.request.class);
            if let Some(prev) = prev {
                assert_eq!(prev, t.request.class, "user {} changed class", t.user);
            }
            assert_eq!(
                t.request.deadline.as_micros() as u64,
                manifest().deadline_us(t.request.class)
            );
        }
        // With a 10k population and 5k requests, all three classes appear.
        let mut seen = [false; 3];
        for class in class_of.values() {
            seen[class.priority_rank()] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn block_fading_redraws_on_epoch_boundaries_only() {
        // Within one coherence block a user's spec seed is constant;
        // across blocks it changes.
        let mut per_user: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for t in TraceGenerator::new(&manifest()).unwrap() {
            if let Payload::Scenario(spec) = &t.request.payload {
                per_user
                    .entry(t.user)
                    .or_default()
                    .push((t.at_us, spec.seed));
            }
        }
        let mut same_epoch_pairs = 0u64;
        let mut cross_epoch_changes = 0u64;
        for draws in per_user.values() {
            for w in draws.windows(2) {
                let (ta, sa) = w[0];
                let (tb, sb) = w[1];
                if ta / 5_000 == tb / 5_000 {
                    assert_eq!(sa, sb, "seed changed inside a coherence block");
                    same_epoch_pairs += 1;
                } else if sa != sb {
                    cross_epoch_changes += 1;
                }
            }
        }
        assert!(same_epoch_pairs > 0, "test must exercise same-block pairs");
        assert!(cross_epoch_changes > 0, "blocks must actually redraw");
    }

    #[test]
    fn correlated_drift_repeats_and_redraws_per_its_probability() {
        let mut m = manifest();
        m.fading = FadingModel::CorrelatedDrift { redraw_prob: 0.3 };
        m.population = 200; // force many repeat arrivals per user
        let mut per_user: HashMap<u64, Vec<u64>> = HashMap::new();
        for t in TraceGenerator::new(&m).unwrap() {
            if let Payload::Scenario(spec) = &t.request.payload {
                per_user.entry(t.user).or_default().push(spec.seed);
            }
        }
        let (mut kept, mut redrawn) = (0u64, 0u64);
        for seeds in per_user.values() {
            for w in seeds.windows(2) {
                if w[0] == w[1] {
                    kept += 1;
                } else {
                    redrawn += 1;
                }
            }
        }
        let frac = redrawn as f64 / (kept + redrawn) as f64;
        assert!(
            (frac - 0.3).abs() < 0.05,
            "redraw fraction {frac}, want ~0.3"
        );
    }

    #[test]
    fn digest_is_reproducible_and_spec_sensitive() {
        let m = manifest();
        let a = trace_digest(&m).unwrap();
        let b = trace_digest(&m).unwrap();
        assert_eq!(a, b, "same manifest, same digest");
        let mut m2 = m.clone();
        m2.seed += 1;
        assert_ne!(a, trace_digest(&m2).unwrap(), "seed must change the digest");
        let mut m3 = m.clone();
        m3.class_mix.urllc += 0.01;
        assert_ne!(a, trace_digest(&m3).unwrap(), "spec must change the digest");
    }
}
