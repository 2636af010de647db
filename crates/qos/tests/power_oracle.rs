//! Bit-identity oracle for the power-allocation inner solve.
//!
//! `oracle` below is the straightforward allocating implementation of
//! [`solve_power`] (fresh vectors every bisection step and every
//! subgradient iteration, all 200 bisection steps always run). The
//! library version reuses its buffers and stops the bisection at its
//! exact fixed point; both must produce the same bits in every field of
//! the returned [`PowerSolution`] on every problem.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcr_qos::power::{solve_power, PowerProblem, PowerSolution};
use rcr_qos::workload::{QosClass, Scenario, ScenarioConfig};
use rcr_qos::QosError;

/// The reference implementation. It must stay independent of the
/// library code: a shared helper would let one regression pass both.
mod oracle {
    use super::{PowerProblem, PowerSolution, QosError};

    fn rate_bps(bandwidth: f64, a: f64, p: f64) -> f64 {
        bandwidth * (1.0 + a * p).log2()
    }

    fn weighted_waterfill(gains: &[f64], weights: &[f64], budget: f64) -> Vec<f64> {
        let power_at = |lambda: f64| -> Vec<f64> {
            gains
                .iter()
                .zip(weights)
                .map(|(&a, &w)| ((w / lambda) - 1.0 / a).max(0.0))
                .collect()
        };
        let mut lo = 1e-12f64;
        let mut hi = 1e12;
        for _ in 0..200 {
            let mid = (lo * hi).sqrt();
            let total: f64 = power_at(mid).iter().sum();
            if total > budget {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        power_at((lo * hi).sqrt())
    }

    pub fn solve_power(problem: &PowerProblem) -> Result<PowerSolution, QosError> {
        let k = problem.gains.len();
        if k == 0 || problem.owners.len() != k {
            return Err(QosError::InvalidParameter(format!(
                "{} gains vs {} owners",
                k,
                problem.owners.len()
            )));
        }
        if !(problem.power_budget > 0.0) || !(problem.rb_bandwidth_hz > 0.0) {
            return Err(QosError::InvalidParameter(
                "budget and bandwidth must be positive".into(),
            ));
        }
        if problem.gains.iter().any(|&a| !(a > 0.0) || !a.is_finite()) {
            return Err(QosError::InvalidParameter(
                "gains must be positive and finite".into(),
            ));
        }
        let users = problem.min_rates_bps.len();
        if problem.owners.iter().any(|&u| u >= users) {
            return Err(QosError::InvalidParameter(
                "owner index out of range".into(),
            ));
        }

        let user_rates = |powers: &[f64]| -> Vec<f64> {
            let mut rates = vec![0.0; users];
            for ((&p, &a), &u) in powers.iter().zip(&problem.gains).zip(&problem.owners) {
                rates[u] += rate_bps(problem.rb_bandwidth_hz, a, p);
            }
            rates
        };

        let mut mu = vec![0.0; users];
        let mut best: Option<PowerSolution> = None;
        let iterations = 300;
        for it in 0..iterations {
            let weights: Vec<f64> = problem.owners.iter().map(|&u| 1.0 + mu[u]).collect();
            let powers = weighted_waterfill(&problem.gains, &weights, problem.power_budget);
            let rates = user_rates(&powers);
            let violation: Vec<f64> = rates
                .iter()
                .zip(&problem.min_rates_bps)
                .map(|(r, m)| m - r)
                .collect();
            let feasible = violation
                .iter()
                .all(|&v| v <= 1e-6 * problem.rb_bandwidth_hz.max(1.0));

            let rb_rates: Vec<f64> = powers
                .iter()
                .zip(&problem.gains)
                .map(|(&p, &a)| rate_bps(problem.rb_bandwidth_hz, a, p))
                .collect();
            let total: f64 = rb_rates.iter().sum();
            let candidate = PowerSolution {
                powers,
                rb_rates_bps: rb_rates,
                user_rates_bps: rates,
                total_rate_bps: total,
                feasible,
            };
            let better = match &best {
                None => true,
                Some(b) => {
                    (candidate.feasible && !b.feasible)
                        || (candidate.feasible == b.feasible
                            && candidate.total_rate_bps > b.total_rate_bps)
                }
            };
            if better {
                best = Some(candidate);
            }
            if feasible && mu.iter().all(|&m| m == 0.0) {
                break;
            }
            let step = 2.0 / (1.0 + it as f64).sqrt();
            for (m, v) in mu.iter_mut().zip(&violation) {
                *m = (*m + step * v / problem.rb_bandwidth_hz.max(1.0)).max(0.0);
            }
        }
        best.ok_or_else(|| {
            QosError::PowerAllocationFailure("subgradient loop completed zero iterations".into())
        })
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Solves `problem` both ways and returns the library answer's
/// feasibility, or a description of the first field that differs.
fn compare(problem: &PowerProblem) -> Result<bool, String> {
    let want = oracle::solve_power(problem).map_err(|e| format!("oracle failed: {e}"))?;
    let got = solve_power(problem).map_err(|e| format!("solve_power failed: {e}"))?;
    if bits(&got.powers) != bits(&want.powers) {
        return Err(format!("powers {:?} vs {:?}", got.powers, want.powers));
    }
    if bits(&got.rb_rates_bps) != bits(&want.rb_rates_bps) {
        return Err(format!(
            "rb_rates_bps {:?} vs {:?}",
            got.rb_rates_bps, want.rb_rates_bps
        ));
    }
    if bits(&got.user_rates_bps) != bits(&want.user_rates_bps) {
        return Err(format!(
            "user_rates_bps {:?} vs {:?}",
            got.user_rates_bps, want.user_rates_bps
        ));
    }
    if got.total_rate_bps.to_bits() != want.total_rate_bps.to_bits() {
        return Err(format!(
            "total_rate_bps {} vs {}",
            got.total_rate_bps, want.total_rate_bps
        ));
    }
    if got.feasible != want.feasible {
        return Err(format!("feasible {} vs {}", got.feasible, want.feasible));
    }
    Ok(got.feasible)
}

/// Per-RB argmax-gain owners, the assignment Greedy starts from.
fn greedy_owners(scenario: &Scenario) -> Vec<usize> {
    let rra = &scenario.rra;
    (0..rra.resource_blocks())
        .map(|k| {
            (0..rra.users())
                .max_by(|&a, &b| {
                    rra.normalized_gain(a, k)
                        .total_cmp(&rra.normalized_gain(b, k))
                })
                .unwrap()
        })
        .collect()
}

#[test]
fn matches_oracle_bit_for_bit_on_seeded_sweep() {
    const SHAPES: [(usize, usize); 5] = [(2, 4), (3, 6), (4, 8), (6, 12), (8, 32)];
    const SEEDS: u64 = 4;
    let (mut checked, mut infeasible) = (0usize, 0usize);
    let mut mismatches = Vec::new();
    for class in QosClass::ALL {
        for (users, rbs) in SHAPES {
            for seed in 0..SEEDS {
                let config = ScenarioConfig::single_class(class, users, rbs);
                let scenario = Scenario::generate(&config, 1000 * seed + rbs as u64).unwrap();
                let rra = &scenario.rra;
                let mut rng = StdRng::seed_from_u64(seed ^ 0xA11C);
                let random: Vec<usize> = (0..rbs).map(|_| rng.gen_range(0..users)).collect();
                for owners in [greedy_owners(&scenario), random] {
                    let gains: Vec<f64> = owners
                        .iter()
                        .enumerate()
                        .map(|(k, &u)| rra.normalized_gain(u, k))
                        .collect();
                    for min_rates in [rra.min_rates_bps.clone(), vec![0.0; users]] {
                        let problem = PowerProblem {
                            gains: gains.clone(),
                            owners: owners.clone(),
                            power_budget: rra.power_budget_w,
                            rb_bandwidth_hz: rra.rb_bandwidth_hz,
                            min_rates_bps: min_rates,
                        };
                        match compare(&problem) {
                            Ok(feasible) => infeasible += usize::from(!feasible),
                            Err(diff) => mismatches.push(format!(
                                "{} {users}x{rbs} seed {seed} owners {owners:?} \
                                 min rates {:?}: {diff}",
                                class.name(),
                                problem.min_rates_bps
                            )),
                        }
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
    assert_eq!(checked, 3 * 5 * SEEDS as usize * 2 * 2);
    // The sweep must exercise both exits of the subgradient loop: the
    // early break on a feasible unconstrained optimum and the full
    // 300-iteration budget on unattainable rates.
    assert!(
        infeasible > 0 && infeasible < checked,
        "{infeasible} of {checked} infeasible"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matches_oracle_bit_for_bit_on_random_problems(
        log_gains in prop::collection::vec(-4.0f64..8.0, 1..13),
        owner_draws in prop::collection::vec(0usize..64, 12),
        users in 1usize..5,
        log_budget in -3.0f64..2.0,
        log_bandwidth in -1.0f64..6.0,
        rate_fracs in prop::collection::vec(0.0f64..3.0, 4),
        constrained in prop::collection::vec(any::<bool>(), 4),
    ) {
        let k = log_gains.len();
        let rb_bandwidth_hz = 10f64.powf(log_bandwidth);
        let problem = PowerProblem {
            gains: log_gains.iter().map(|&g| 10f64.powf(g)).collect(),
            owners: owner_draws[..k].iter().map(|&d| d % users).collect(),
            power_budget: 10f64.powf(log_budget),
            rb_bandwidth_hz,
            min_rates_bps: (0..users)
                .map(|u| if constrained[u] { rate_fracs[u] * rb_bandwidth_hz } else { 0.0 })
                .collect(),
        };
        let outcome = compare(&problem);
        prop_assert!(outcome.is_ok(), "{problem:?}: {outcome:?}");
    }
}
