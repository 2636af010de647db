//! Tolerance and certificate oracle for the power-allocation inner solve.
//!
//! `oracle` below is the straightforward allocating implementation of
//! [`solve_power`] that finds each water level by a 200-step geometric
//! bisection and always runs the full 300-iteration dual ascent; it is
//! the reference answer. The library computes the level exactly and
//! stops the ascent after its first iterate when the minimum rates are
//! certified unreachable, so its bits may differ from the reference by
//! rounding. `check` pins what must hold on every problem: the same
//! `feasible` flag, the same total rate to 1e-12 relative (or to the rate
//! formula's own resolution at tiny SNR), a power vector inside the
//! budget, rates that follow from the powers, a total no higher than the
//! unconstrained (μ = 0) water-filling bound, and on μ = 0 answers a
//! common water level.

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

const REL: f64 = 1e-12;

/// `|x − y| ≤ rel·max(|x|, |y|)`.
fn close(x: f64, y: f64, rel: f64) -> bool {
    (x - y).abs() <= rel * x.abs().max(y.abs())
}

/// Total rates agree to `REL` relative, or to the resolution of the rate
/// formula itself: `B·log2(1 + a·p)` rounds `1 + a·p` to a multiple of
/// `ε`, one quantum `B·ε/ln 2` per RB, which at SNRs below ~1e-3 is more
/// than `REL` of the rate on either side.
fn close_total(x: f64, y: f64, problem: &PowerProblem) -> bool {
    let quanta = 2.0 * problem.gains.len() as f64;
    let floor = quanta * problem.rb_bandwidth_hz * f64::EPSILON / std::f64::consts::LN_2;
    (x - y).abs() <= REL * x.abs().max(y.abs()) + floor
}

fn unconstrained(problem: &PowerProblem) -> PowerProblem {
    PowerProblem {
        min_rates_bps: vec![0.0; problem.min_rates_bps.len()],
        ..problem.clone()
    }
}

/// Solves `problem` both ways and returns the library answer's
/// feasibility, or a description of the first property that fails.
fn check(problem: &PowerProblem) -> Result<bool, String> {
    let want = oracle::solve_power(problem).map_err(|e| format!("oracle failed: {e}"))?;
    let got = solve_power(problem).map_err(|e| format!("solve_power failed: {e}"))?;
    if got.feasible != want.feasible {
        return Err(format!("feasible {} vs {}", got.feasible, want.feasible));
    }
    if !close_total(got.total_rate_bps, want.total_rate_bps, problem) {
        return Err(format!(
            "total_rate_bps {} vs {}",
            got.total_rate_bps, want.total_rate_bps
        ));
    }
    if got.powers.iter().any(|&p| !(p >= 0.0)) {
        return Err(format!("negative power in {:?}", got.powers));
    }
    let spent: f64 = got.powers.iter().sum();
    if spent > problem.power_budget * (1.0 + REL) {
        return Err(format!("spent {spent} of {}", problem.power_budget));
    }

    // Rates follow from the powers: per RB, per owner, in total.
    let mut user_rates = vec![0.0; problem.min_rates_bps.len()];
    for (((&p, &a), &u), &r) in got
        .powers
        .iter()
        .zip(&problem.gains)
        .zip(&problem.owners)
        .zip(&got.rb_rates_bps)
    {
        let rate = problem.rb_bandwidth_hz * (1.0 + a * p).log2();
        if !close(r, rate, REL) {
            return Err(format!("rb rate {r} vs {rate} at power {p}"));
        }
        user_rates[u] += r;
    }
    for (&got_rate, &rate) in got.user_rates_bps.iter().zip(&user_rates) {
        if !close(got_rate, rate, REL) {
            return Err(format!(
                "user rates {:?} vs {user_rates:?}",
                got.user_rates_bps
            ));
        }
    }
    let rb_sum: f64 = got.rb_rates_bps.iter().sum();
    if !close(got.total_rate_bps, rb_sum, REL) {
        return Err(format!("total {} vs rb sum {rb_sum}", got.total_rate_bps));
    }

    // The unconstrained water-filling total bounds every allocation.
    let bound = oracle::solve_power(&unconstrained(problem))
        .map_err(|e| format!("oracle bound failed: {e}"))?
        .total_rate_bps;
    if got.total_rate_bps > bound && !close_total(got.total_rate_bps, bound, problem) {
        return Err(format!(
            "total {} above the μ = 0 bound {bound}",
            got.total_rate_bps
        ));
    }

    // A μ = 0 answer is plain water-filling: `p_k + 1/a_k` is one level
    // on the RBs with power and no lower than it on the others.
    if problem.min_rates_bps.iter().all(|&r| r == 0.0) {
        let level = got
            .powers
            .iter()
            .zip(&problem.gains)
            .filter(|(&p, _)| p > 0.0)
            .map(|(&p, &a)| p + 1.0 / a)
            .fold(0.0, f64::max);
        for (&p, &a) in got.powers.iter().zip(&problem.gains) {
            let holds = if p > 0.0 {
                close(p + 1.0 / a, level, REL)
            } else {
                1.0 / a >= level * (1.0 - REL)
            };
            if !holds {
                return Err(format!("water level {level} broken at power {p}, gain {a}"));
            }
        }
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

const SHAPES: [(usize, usize); 5] = [(2, 4), (3, 6), (4, 8), (6, 12), (8, 32)];
const SEEDS: u64 = 4;

/// The seeded sweep: every class and shape, greedy and random owners,
/// class and zero minimum rates, each problem with a label.
fn sweep() -> Vec<(String, PowerProblem)> {
    let mut problems = Vec::new();
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
                        let label = format!(
                            "{} {users}x{rbs} seed {seed} owners {owners:?} min rates {min_rates:?}",
                            class.name()
                        );
                        problems.push((
                            label,
                            PowerProblem {
                                gains: gains.clone(),
                                owners: owners.clone(),
                                power_budget: rra.power_budget_w,
                                rb_bandwidth_hz: rra.rb_bandwidth_hz,
                                min_rates_bps: min_rates,
                            },
                        ));
                    }
                }
            }
        }
    }
    problems
}

#[test]
fn matches_oracle_within_tolerance_on_seeded_sweep() {
    let problems = sweep();
    let (mut infeasible, mut failures) = (0usize, Vec::new());
    for (label, problem) in &problems {
        match check(problem) {
            Ok(feasible) => infeasible += usize::from(!feasible),
            Err(diff) => failures.push(format!("{label}: {diff}")),
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
    assert_eq!(problems.len(), 3 * SHAPES.len() * SEEDS as usize * 2 * 2);
    // The sweep must exercise both exits of the subgradient loop: the
    // early break on a feasible unconstrained optimum and the certified
    // unreachable rates.
    assert!(
        infeasible > 0 && infeasible < problems.len(),
        "{infeasible} of {} infeasible",
        problems.len()
    );
}

/// An infeasible answer is the dual ascent's first (μ = 0) iterate, so it
/// carries the same bits as the problem with every minimum rate zeroed.
#[test]
fn infeasible_answers_are_the_unconstrained_allocation() {
    let mut infeasible = 0usize;
    for (label, problem) in sweep() {
        let got = solve_power(&problem).unwrap();
        if got.feasible {
            continue;
        }
        infeasible += 1;
        let free = solve_power(&unconstrained(&problem)).unwrap();
        assert!(free.feasible, "{label}");
        assert_eq!(bits(&got.powers), bits(&free.powers), "{label}");
        assert_eq!(bits(&got.rb_rates_bps), bits(&free.rb_rates_bps), "{label}");
        assert_eq!(
            bits(&got.user_rates_bps),
            bits(&free.user_rates_bps),
            "{label}"
        );
        assert_eq!(
            got.total_rate_bps.to_bits(),
            free.total_rate_bps.to_bits(),
            "{label}"
        );
    }
    assert!(infeasible > 0);
}

#[test]
fn rejects_negative_or_non_finite_min_rates() {
    for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let problem = PowerProblem {
            gains: vec![10.0, 2.0],
            owners: vec![0, 1],
            power_budget: 1.0,
            rb_bandwidth_hz: 1.0,
            min_rates_bps: vec![0.5, bad],
        };
        assert!(
            matches!(solve_power(&problem), Err(QosError::InvalidParameter(_))),
            "min rate {bad} accepted"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matches_oracle_within_tolerance_on_random_problems(
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
        let outcome = check(&problem);
        prop_assert!(outcome.is_ok(), "{problem:?}: {outcome:?}");
    }
}
