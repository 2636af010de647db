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
//! multipliers μ. Each inner problem is *weighted* water-filling
//! `p_k = (w_k/λ − 1/a_k)₊` with `w_k = 1 + μ_{u(k)}`, whose water level
//! `λ` is found exactly by active-set elimination. When the minimum rates
//! provably cannot all be met within the budget, the ascent stops after
//! its first (μ = 0) iterate, which is then the answer.

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
/// `Σ p ≤ budget`, `p ≥ 0`, writing `p` into `powers`, taking `1/a_k`
/// precomputed.
///
/// The solution is `p_k = w_k·(1/λ − f_k)₊` with floors `f_k = 1/(w_k a_k)`.
/// The level is exact and measured from the lowest floor `c`: with
/// `e_k = f_k − c ≥ 0` and active set `A`, the height `h = 1/λ − c` is
/// `(budget + Σ_A w e) / Σ_A w`, and every active RB with `e_k ≥ h` is
/// dropped until none is. Dropping an RB at or above the water can only
/// lower `h`, so dropped RBs stay dropped and the loop ends within K
/// passes; the lowest-floor RB (`e = 0`) is never dropped. Working in
/// heights keeps low-SNR problems (`1/a_k` far above the budget) free of
/// the cancellation in `w/λ − 1/a`. `powers` holds the active mask
/// (`> 0` means active) until the final pass writes the powers.
// rcr-lint: unit(budget = PowerLinear, reason = "water-filling works on linear inverse normalized gains and a watt budget, never dB")
fn weighted_waterfill(inv_gains: &[f64], weights: &[f64], budget: f64, powers: &mut [f64]) {
    let floor = |inv_a: f64, w: f64| inv_a / w;
    let lowest = inv_gains
        .iter()
        .zip(weights)
        .map(|(&inv_a, &w)| floor(inv_a, w))
        .fold(f64::INFINITY, f64::min);
    let excess = |inv_a: f64, w: f64| floor(inv_a, w) - lowest;
    let (mut kept_w, mut kept_we) = (0.0, 0.0);
    for (&inv_a, &w) in inv_gains.iter().zip(weights) {
        kept_w += w;
        kept_we += w * excess(inv_a, w);
    }
    powers.fill(1.0);
    let mut height;
    loop {
        height = (budget + kept_we) / kept_w;
        let mut dropped = false;
        (kept_w, kept_we) = (0.0, 0.0);
        for ((p, &inv_a), &w) in powers.iter_mut().zip(inv_gains).zip(weights) {
            if *p == 0.0 {
                continue;
            }
            let e = excess(inv_a, w);
            if e >= height {
                *p = 0.0;
                dropped = true;
            } else {
                kept_w += w;
                kept_we += w * e;
            }
        }
        if !dropped {
            break;
        }
    }
    for ((p, &inv_a), &w) in powers.iter_mut().zip(inv_gains).zip(weights) {
        if *p > 0.0 {
            *p = w * (height - excess(inv_a, w));
        }
    }
}

/// True when no allocation within the budget can meet every minimum rate
/// to `tolerance`, the slack the `feasible` flag allows.
///
/// Users own disjoint RBs, so the rates are jointly reachable exactly when
/// the per-user least powers sum to at most the budget. User `u`'s least
/// power for target `t` is inverse water-filling on its own RBs,
/// `p_k = (ν − 1/a_k)₊` with `log2 ν = (t/B − Σ_A log2 a_k)/|A|`. As in
/// [`weighted_waterfill`] the level is measured from the strongest RB:
/// with `y_k = log2(a_max/a_k) ≥ 0`, `x = log2(ν a_max) = (t/B + Σ_A y)/|A|`
/// and `p_k = (2^(x − y_k) − 1)/a_k`; RBs with `y_k ≥ x` are dropped until
/// none is, which can only lower `x`. A user with a positive target and no
/// RB needs infinite power. The `1e-9` relative margin keeps rounding from
/// certifying a problem the flag could still call feasible. `mask` is
/// scratch of one entry per RB.
// rcr-lint: unit(tolerance = BitsPerSec, reason = "least powers in watts from Shannon rates over Hz-wide RBs")
fn rates_unreachable(problem: &PowerProblem, tolerance: f64, mask: &mut [f64]) -> bool {
    let mut needed = 0.0;
    for (u, &min_rate) in problem.min_rates_bps.iter().enumerate() {
        let target = min_rate - tolerance;
        if !(target > 0.0) {
            continue;
        }
        let Some(strongest) = problem
            .owners
            .iter()
            .zip(&problem.gains)
            .filter(|(&owner, _)| owner == u)
            .map(|(_, &a)| a)
            .reduce(f64::max)
        else {
            return true;
        };
        let spread = |a: f64| (strongest / a).log2();
        let spectral = target / problem.rb_bandwidth_hz;
        let (mut kept, mut kept_y) = (0usize, 0.0);
        for ((m, &owner), &a) in mask.iter_mut().zip(&problem.owners).zip(&problem.gains) {
            *m = 0.0;
            if owner == u {
                *m = 1.0;
                kept += 1;
                kept_y += spread(a);
            }
        }
        let mut x;
        loop {
            x = (spectral + kept_y) / kept as f64;
            let mut dropped = false;
            (kept, kept_y) = (0, 0.0);
            for (m, &a) in mask.iter_mut().zip(&problem.gains) {
                if *m == 0.0 {
                    continue;
                }
                let y = spread(a);
                if y >= x {
                    *m = 0.0;
                    dropped = true;
                } else {
                    kept += 1;
                    kept_y += y;
                }
            }
            if !dropped {
                break;
            }
        }
        needed += mask
            .iter()
            .zip(&problem.gains)
            .filter(|(&m, _)| m > 0.0)
            .map(|(_, &a)| ((x - spread(a)) * std::f64::consts::LN_2).exp_m1() / a)
            .sum::<f64>();
    }
    needed > problem.power_budget * (1.0 + 1e-9)
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
/// minimum rates were met. When the minimum rates cannot all be met
/// within the budget, the result is the unconstrained water-filling
/// allocation flagged infeasible rather than an error.
///
/// # Errors
/// Returns [`QosError::InvalidParameter`] for malformed problem data,
/// including negative or non-finite minimum rates.
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
    if problem
        .min_rates_bps
        .iter()
        .any(|&r| !(r >= 0.0) || !r.is_finite())
    {
        return Err(QosError::InvalidParameter(
            "minimum rates must be non-negative and finite".into(),
        ));
    }

    // Dual subgradient on μ ≥ 0 (one per user with a positive min rate).
    // Every buffer lives across iterations; only an improving candidate
    // is copied out into `best`.
    let bandwidth = problem.rb_bandwidth_hz;
    let scale = bandwidth.max(1.0);
    let tolerance = 1e-6 * scale;
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
            .all(|(r, m)| m - r <= tolerance);
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
        // Certified unreachable rates: every iterate is infeasible, so the
        // μ = 0 iterate, which has the highest total, is the answer. It
        // is already in `best`, which frees `powers` as scratch.
        if it == 0 && rates_unreachable(problem, tolerance, &mut powers) {
            break;
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
