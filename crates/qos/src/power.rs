//! The continuous inner problem of the RRA MINLP: power allocation over
//! assigned resource blocks.
//!
//! For a fixed RB→user assignment the remaining problem is concave:
//!
//! ```text
//! maximize   Σ_k B·log2(1 + a_k p_k)
//! subject to Σ_k p_k ≤ P_total,  p ≥ 0
//!            Σ_{k ∈ K_u} B·log2(1 + a_k p_k) ≥ r_u   ∀u
//! ```
//!
//! with `a_k = g_{u(k),k} / N₀B` the normalized gain of RB `k`'s owner.
//! Without rate constraints the solution is classical water-filling; the
//! constrained version is solved by dual subgradient ascent on the rate
//! multipliers μ with an inner bisection on the water level — each inner
//! problem is *weighted* water-filling `p_k = (w_k/λ − 1/a_k)₊` with
//! `w_k = 1 + μ_{u(k)}`.

use crate::QosError;

/// Power-allocation problem description for one assignment.
#[derive(Debug, Clone)]
pub struct PowerProblem {
    /// Normalized gain `a_k` per RB (gain / noise power).
    pub gains: Vec<f64>,
    /// Owner user of each RB.
    pub owners: Vec<usize>,
    /// Total power budget (W).
    pub power_budget: f64,
    /// Bandwidth per RB (Hz).
    pub rb_bandwidth_hz: f64,
    /// Minimum rate per user (bit/s); users without assigned RBs must
    /// have 0 here to be satisfiable.
    pub min_rates_bps: Vec<f64>,
}

/// Result of a power allocation.
#[derive(Debug, Clone)]
pub struct PowerSolution {
    /// Power per RB (W).
    pub powers: Vec<f64>,
    /// Rate per RB (bit/s).
    pub rb_rates_bps: Vec<f64>,
    /// Rate per user (bit/s).
    pub user_rates_bps: Vec<f64>,
    /// Total rate (bit/s).
    pub total_rate_bps: f64,
    /// True when every minimum-rate constraint is met (within tolerance).
    pub feasible: bool,
}

impl PowerSolution {
    /// An empty placeholder allocation (no RBs, no users, zero rate,
    /// infeasible) — for decoders and summaries that carry a solution's
    /// headline numbers without the per-RB breakdown.
    pub fn empty() -> PowerSolution {
        PowerSolution {
            powers: Vec::new(),
            rb_rates_bps: Vec::new(),
            user_rates_bps: Vec::new(),
            total_rate_bps: 0.0,
            feasible: false,
        }
    }
}

// rcr-lint: unit(bandwidth = Hz, a = GainLinear, p = PowerLinear, return = BitsPerSec, reason = "Shannon rate per RB: Hz times log2(1 + normalized-gain times watts)")
fn rate_bps(bandwidth: f64, a: f64, p: f64) -> f64 {
    bandwidth * (1.0 + a * p).log2()
}

/// Weighted water-filling: maximize `Σ w_k log(1 + a_k p_k)` subject to
/// `Σ p ≤ budget`, `p ≥ 0`, writing `p` into `powers`. Exact via
/// geometric bisection on the water level `λ`, taking `1/a_k` precomputed.
///
/// The bisection state is `(lo, hi)` alone, so a step that leaves both
/// unchanged has reached a fixed point: every later step would repeat
/// it. Stopping there returns the same bits as running all 200 steps.
// rcr-lint: unit(budget = PowerLinear, reason = "water-filling works on linear inverse normalized gains and a watt budget, never dB")
fn weighted_waterfill(inv_gains: &[f64], weights: &[f64], budget: f64, powers: &mut [f64]) {
    let power = |inv_a: f64, w: f64, lambda: f64| ((w / lambda) - inv_a).max(0.0);
    // λ ∈ (0, ∞): total power decreases in λ. Find λ with Σp = budget.
    let mut lo = 1e-12f64;
    let mut hi = 1e12;
    for _ in 0..200 {
        let mid = (lo * hi).sqrt(); // geometric bisection for scale-freeness
        let total: f64 = inv_gains
            .iter()
            .zip(weights)
            .map(|(&inv_a, &w)| power(inv_a, w, mid))
            .sum();
        let (next_lo, next_hi) = if total > budget { (mid, hi) } else { (lo, mid) };
        if next_lo == lo && next_hi == hi {
            break;
        }
        lo = next_lo;
        hi = next_hi;
    }
    let level = (lo * hi).sqrt();
    for ((p, &inv_a), &w) in powers.iter_mut().zip(inv_gains).zip(weights) {
        *p = power(inv_a, w, level);
    }
}

/// Solves the constrained power allocation.
///
/// ```
/// use rcr_qos::power::{solve_power, PowerProblem};
///
/// # fn main() -> Result<(), rcr_qos::QosError> {
/// let sol = solve_power(&PowerProblem {
///     gains: vec![10.0, 2.0],
///     owners: vec![0, 1],
///     power_budget: 1.0,
///     rb_bandwidth_hz: 1.0,
///     min_rates_bps: vec![0.0, 0.0],
/// })?;
/// assert!(sol.feasible);
/// assert!(sol.powers.iter().sum::<f64>() <= 1.0 + 1e-9);
/// # Ok(())
/// # }
/// ```
///
/// Returns the best allocation found; `feasible` reports whether the
/// minimum rates were met. When some user's minimum rate is unattainable
/// even with the whole budget on its best RB, the result comes back
/// infeasible rather than erroring.
///
/// # Errors
/// Returns [`QosError::InvalidParameter`] for malformed problem data.
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

    // Dual subgradient on μ ≥ 0 (one per user with a positive min rate).
    // Every buffer lives across iterations; only an improving candidate
    // is copied out into `best`.
    let bandwidth = problem.rb_bandwidth_hz;
    let scale = bandwidth.max(1.0);
    let inv_gains: Vec<f64> = problem.gains.iter().map(|&a| 1.0 / a).collect();
    let mut mu = vec![0.0; users];
    let mut weights = vec![0.0; k];
    let mut powers = vec![0.0; k];
    let mut rb_rates = vec![0.0; k];
    let mut rates = vec![0.0; users];
    let mut best: Option<PowerSolution> = None;
    let iterations = 300;
    for it in 0..iterations {
        // Owners were range-checked above, so every `get` hits.
        for (w, &u) in weights.iter_mut().zip(&problem.owners) {
            *w = 1.0 + mu.get(u).copied().unwrap_or(0.0);
        }
        weighted_waterfill(&inv_gains, &weights, problem.power_budget, &mut powers);
        for ((r, &p), &a) in rb_rates.iter_mut().zip(&powers).zip(&problem.gains) {
            *r = rate_bps(bandwidth, a, p);
        }
        rates.fill(0.0);
        for (&r, &u) in rb_rates.iter().zip(&problem.owners) {
            if let Some(rate) = rates.get_mut(u) {
                *rate += r;
            }
        }
        let feasible = rates
            .iter()
            .zip(&problem.min_rates_bps)
            .all(|(r, m)| m - r <= 1e-6 * scale);
        let total: f64 = rb_rates.iter().sum();

        let better = match &best {
            None => true,
            Some(b) => {
                (feasible && !b.feasible) || (feasible == b.feasible && total > b.total_rate_bps)
            }
        };
        if better {
            let b = best.get_or_insert_with(PowerSolution::empty);
            b.powers.clone_from(&powers);
            b.rb_rates_bps.clone_from(&rb_rates);
            b.user_rates_bps.clone_from(&rates);
            b.total_rate_bps = total;
            b.feasible = feasible;
        }
        if feasible && mu.iter().all(|&m| m == 0.0) {
            break; // unconstrained optimum already satisfies the rates
        }
        // Subgradient step on μ: grow where violated, shrink otherwise.
        let step = 2.0 / (1.0 + it as f64).sqrt();
        for ((m, r), min) in mu.iter_mut().zip(&rates).zip(&problem.min_rates_bps) {
            *m = (*m + step * (min - r) / scale).max(0.0);
        }
    }
    best.ok_or_else(|| {
        QosError::PowerAllocationFailure("subgradient loop completed zero iterations".into())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_problem() -> PowerProblem {
        PowerProblem {
            gains: vec![10.0, 5.0, 1.0],
            owners: vec![0, 0, 1],
            power_budget: 3.0,
            rb_bandwidth_hz: 1.0,
            min_rates_bps: vec![0.0, 0.0],
        }
    }

    #[test]
    fn unconstrained_matches_classic_waterfilling() {
        let p = base_problem();
        let s = solve_power(&p).unwrap();
        assert!(s.feasible);
        assert!((s.powers.iter().sum::<f64>() - 3.0).abs() < 1e-6);
        // Water-filling: p_k = (1/λ − 1/a_k)₊ with common water level:
        // better channels get *more* power only through the 1/a term —
        // levels p_k + 1/a_k must be equal where p > 0.
        let levels: Vec<f64> = s
            .powers
            .iter()
            .zip(&p.gains)
            .map(|(&pw, &a)| pw + 1.0 / a)
            .collect();
        for w in levels.windows(2) {
            if s.powers[0] > 1e-9 && s.powers[1] > 1e-9 {
                assert!((w[0] - w[1]).abs() < 1e-5, "levels {levels:?}");
            }
        }
    }

    #[test]
    fn weak_channel_gets_no_power_under_tight_budget() {
        let p = PowerProblem {
            gains: vec![100.0, 0.001],
            owners: vec![0, 1],
            power_budget: 0.5,
            rb_bandwidth_hz: 1.0,
            min_rates_bps: vec![0.0, 0.0],
        };
        let s = solve_power(&p).unwrap();
        assert!(s.powers[1] < 1e-9, "weak RB power {}", s.powers[1]);
    }

    #[test]
    fn min_rate_constraint_diverts_power() {
        // User 1 owns only the weak RB; without a constraint it gets
        // almost nothing, with one it must reach its floor.
        let mut p = base_problem();
        let unconstrained = solve_power(&p).unwrap();
        p.min_rates_bps = vec![0.0, 1.0];
        let constrained = solve_power(&p).unwrap();
        assert!(
            constrained.feasible,
            "rates {:?}",
            constrained.user_rates_bps
        );
        assert!(constrained.user_rates_bps[1] >= 1.0 - 1e-4);
        assert!(constrained.user_rates_bps[1] > unconstrained.user_rates_bps[1]);
        // The diverted power costs total throughput.
        assert!(constrained.total_rate_bps <= unconstrained.total_rate_bps + 1e-9);
    }

    #[test]
    fn impossible_rate_reported_infeasible() {
        let mut p = base_problem();
        p.min_rates_bps = vec![0.0, 1000.0];
        let s = solve_power(&p).unwrap();
        assert!(!s.feasible);
    }

    #[test]
    fn rates_consistent_with_powers() {
        let p = base_problem();
        let s = solve_power(&p).unwrap();
        for ((&r, &pw), &a) in s.rb_rates_bps.iter().zip(&s.powers).zip(&p.gains) {
            assert!((r - (1.0 + a * pw).log2()).abs() < 1e-9);
        }
        let sum: f64 = s.user_rates_bps.iter().sum();
        assert!((sum - s.total_rate_bps).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        let mut p = base_problem();
        p.owners = vec![0, 0];
        assert!(solve_power(&p).is_err());
        let mut p = base_problem();
        p.power_budget = 0.0;
        assert!(solve_power(&p).is_err());
        let mut p = base_problem();
        p.gains[0] = -1.0;
        assert!(solve_power(&p).is_err());
        let mut p = base_problem();
        p.owners = vec![0, 0, 5];
        assert!(solve_power(&p).is_err());
    }
}
