//! The Radio Resource Allocation MINLP and its three solvers.
//!
//! Per the paper's §I formulation: frequency–time resource blocks are the
//! integer variables (which connection owns each block), transmit powers
//! the continuous variables, the objective is spectral efficiency, and
//! per-connection minimum rates are the QoS guarantees. Solvers:
//!
//! * [`solve_exact`] — branch-and-bound over the per-RB best-user convex
//!   relaxation ([`rcr_minlp`]), with water-filling inner solves: the
//!   global optimum with a certificate.
//! * [`solve_pso`] — the metaheuristic the paper leans on (§II-A), using
//!   distribution-attribute discrete PSO with a penalty for unmet rates.
//! * [`solve_greedy`] — the max-gain baseline with a repair pass.

use crate::channel::Channel;
use crate::power::{solve_power, PowerProblem, PowerSolution};
use crate::QosError;
use rcr_minlp::{BnbSettings, MinlpError, RelaxableProblem, Relaxation};
use rcr_pso::discrete::{minimize_mixed, DiscreteStrategy, VarSpec};
use rcr_pso::swarm::PsoSettings;

/// An RRA problem instance.
#[derive(Debug, Clone)]
pub struct RraProblem {
    channel: Channel,
    /// Noise power per RB (W).
    pub noise_power_w: f64,
    /// Total transmit power budget (W).
    pub power_budget_w: f64,
    /// Bandwidth per RB (Hz).
    pub rb_bandwidth_hz: f64,
    /// Minimum rate per user (bit/s).
    pub min_rates_bps: Vec<f64>,
}

/// A solved allocation.
#[derive(Debug, Clone)]
pub struct RraSolution {
    /// RB → user assignment.
    pub owners: Vec<usize>,
    /// The inner power allocation.
    pub power: PowerSolution,
    /// Total downlink rate (bit/s).
    pub total_rate_bps: f64,
    /// Spectral efficiency (bit/s/Hz over the whole band).
    pub spectral_efficiency: f64,
    /// Whether all minimum rates are satisfied.
    pub qos_satisfied: bool,
}

impl RraProblem {
    /// Builds a problem over a channel realization.
    ///
    /// # Errors
    /// Returns [`QosError::InvalidParameter`] on malformed data.
    // rcr-lint: unit(noise_power_w = PowerLinear, power_budget_w = PowerLinear, rb_bandwidth_hz = Hz, reason = "problem data is linear-domain watts and Hz; dB inputs must be converted upstream")
    pub fn new(
        channel: Channel,
        noise_power_w: f64,
        power_budget_w: f64,
        rb_bandwidth_hz: f64,
        min_rates_bps: Vec<f64>,
    ) -> Result<Self, QosError> {
        if min_rates_bps.len() != channel.users() {
            return Err(QosError::InvalidParameter(format!(
                "{} min rates for {} users",
                min_rates_bps.len(),
                channel.users()
            )));
        }
        if !(noise_power_w > 0.0) || !(power_budget_w > 0.0) || !(rb_bandwidth_hz > 0.0) {
            return Err(QosError::InvalidParameter(
                "noise, budget and bandwidth must be positive".into(),
            ));
        }
        if min_rates_bps.iter().any(|r| *r < 0.0 || !r.is_finite()) {
            return Err(QosError::InvalidParameter(
                "negative or non-finite min rate".into(),
            ));
        }
        Ok(RraProblem {
            channel,
            noise_power_w,
            power_budget_w,
            rb_bandwidth_hz,
            min_rates_bps,
        })
    }

    /// The underlying channel.
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// Number of users.
    pub fn users(&self) -> usize {
        self.channel.users()
    }

    /// Number of resource blocks.
    pub fn resource_blocks(&self) -> usize {
        self.channel.resource_blocks()
    }

    /// Normalized gain `a = g / N` of `user` on `rb`.
    // rcr-lint: unit(return = GainLinear, reason = "linear power ratio gain/noise, the `a_k` of the water-filling inner problem")
    pub fn normalized_gain(&self, user: usize, rb: usize) -> f64 {
        self.channel.gain(user, rb) / self.noise_power_w
    }

    /// Evaluates a full assignment: inner water-filling power solve with
    /// the minimum-rate constraints.
    ///
    /// # Errors
    /// Propagates power-allocation failures and index errors.
    pub fn evaluate(&self, owners: &[usize]) -> Result<RraSolution, QosError> {
        if owners.len() != self.resource_blocks() {
            return Err(QosError::InvalidParameter(format!(
                "{} owners for {} RBs",
                owners.len(),
                self.resource_blocks()
            )));
        }
        if owners.iter().any(|&u| u >= self.users()) {
            return Err(QosError::InvalidParameter(
                "owner index out of range".into(),
            ));
        }
        let gains: Vec<f64> = owners
            .iter()
            .enumerate()
            .map(|(k, &u)| self.normalized_gain(u, k))
            .collect();
        let power = solve_power(&PowerProblem {
            gains,
            owners: owners.to_vec(),
            power_budget: self.power_budget_w,
            rb_bandwidth_hz: self.rb_bandwidth_hz,
            min_rates_bps: self.min_rates_bps.clone(),
        })?;
        let band = self.rb_bandwidth_hz * self.resource_blocks() as f64;
        Ok(RraSolution {
            owners: owners.to_vec(),
            total_rate_bps: power.total_rate_bps,
            spectral_efficiency: power.total_rate_bps / band,
            qos_satisfied: power.feasible,
            power,
        })
    }

    /// Evaluates many candidate assignments, fanning the independent
    /// water-filling solves across `workers` threads (`0` = auto: the
    /// `RCR_WORKERS` environment variable, else serial).
    ///
    /// Results are returned in input order and are identical to calling
    /// [`RraProblem::evaluate`] per assignment — per-candidate errors are
    /// reported in place rather than aborting the batch. This is the
    /// batched evaluation seam for admission sweeps and scheduling
    /// candidate scoring.
    pub fn evaluate_batch(
        &self,
        assignments: &[Vec<usize>],
        workers: usize,
    ) -> Vec<Result<RraSolution, QosError>> {
        let workers = rcr_runtime::resolve_workers(workers);
        rcr_runtime::parallel_map(assignments, workers, |_, owners| self.evaluate(owners))
    }

    /// The relaxation bound for an assignment sub-box: each RB may go to
    /// any user in its index range; taking the per-RB maximum gain and
    /// water-filling without rate constraints over-estimates every
    /// feasible completion.
    fn relaxation_rate(&self, bounds: &[(i64, i64)]) -> Result<(f64, Vec<f64>), QosError> {
        let best: Vec<(usize, f64)> = bounds
            .iter()
            .enumerate()
            .map(|(k, &(lo, hi))| {
                let mut best_u = lo as usize;
                let mut best_g = f64::NEG_INFINITY;
                for u in lo..=hi {
                    let g = self.normalized_gain(u as usize, k);
                    if g > best_g {
                        best_g = g;
                        best_u = u as usize;
                    }
                }
                (best_u, best_g)
            })
            .collect();
        let gains: Vec<f64> = best.iter().map(|&(_, g)| g).collect();
        let owners: Vec<usize> = best.iter().map(|&(u, _)| u).collect();
        let sol = solve_power(&PowerProblem {
            gains,
            owners: owners.clone(),
            power_budget: self.power_budget_w,
            rb_bandwidth_hz: self.rb_bandwidth_hz,
            min_rates_bps: vec![0.0; self.users()],
        })?;
        Ok((
            sol.total_rate_bps,
            owners.iter().map(|&u| u as f64).collect(),
        ))
    }
}

/// MINLP view of an RRA problem (minimizing `−total_rate`).
#[derive(Debug)]
struct RraMinlp<'a> {
    problem: &'a RraProblem,
}

impl RelaxableProblem for RraMinlp<'_> {
    fn num_integers(&self) -> usize {
        self.problem.resource_blocks()
    }

    fn integer_bounds(&self) -> Vec<(i64, i64)> {
        vec![(0, self.problem.users() as i64 - 1); self.problem.resource_blocks()]
    }

    fn solve_relaxation(&self, bounds: &[(i64, i64)]) -> Result<Relaxation, MinlpError> {
        let (rate, values) = self
            .problem
            .relaxation_rate(bounds)
            .map_err(|e| MinlpError::SubproblemFailure(e.to_string()))?;
        Ok(Relaxation {
            lower_bound: -rate,
            values,
        })
    }

    fn evaluate_assignment(&self, assignment: &[i64]) -> Result<Option<f64>, MinlpError> {
        let owners: Vec<usize> = assignment.iter().map(|&v| v as usize).collect();
        let sol = self
            .problem
            .evaluate(&owners)
            .map_err(|e| MinlpError::SubproblemFailure(e.to_string()))?;
        Ok(if sol.qos_satisfied {
            Some(-sol.total_rate_bps)
        } else {
            None
        })
    }
}

/// Solves the RRA MINLP to proven optimality by branch-and-bound.
///
/// # Errors
/// Propagates [`rcr_minlp`] errors (infeasibility, budget exhaustion).
pub fn solve_exact(problem: &RraProblem, settings: &BnbSettings) -> Result<RraSolution, QosError> {
    let adapter = RraMinlp { problem };
    let report = rcr_minlp::solve(&adapter, settings)?;
    let owners: Vec<usize> = report.assignment.iter().map(|&v| v as usize).collect();
    problem.evaluate(&owners)
}

/// The relaxation upper bound on the total rate (drop integrality *and*
/// minimum rates) — the certificate companion to heuristic solvers.
// rcr-lint: unit(return = BitsPerSec, reason = "upper bound on the same bit/s objective the solvers report")
pub fn relaxation_bound_bps(problem: &RraProblem) -> f64 {
    let bounds = vec![(0i64, problem.users() as i64 - 1); problem.resource_blocks()];
    // Validated problem data cannot fail the unconstrained water-filling;
    // degrade to 0 (a useless but sound bound) rather than panicking.
    problem
        .relaxation_rate(&bounds)
        .map(|(r, _)| r)
        .unwrap_or(0.0)
}

/// Solves the RRA problem with discrete PSO (distribution attributes) and
/// a rate-violation penalty.
///
/// # Errors
/// Propagates PSO and evaluation errors.
pub fn solve_pso(problem: &RraProblem, settings: &PsoSettings) -> Result<RraSolution, QosError> {
    let specs = vec![
        VarSpec::Integer {
            lo: 0,
            hi: problem.users() as i64 - 1
        };
        problem.resource_blocks()
    ];
    let band = problem.rb_bandwidth_hz * problem.resource_blocks() as f64;
    let fitness = |x: &[f64]| -> f64 {
        let owners: Vec<usize> = x.iter().map(|&v| v as usize).collect();
        match problem.evaluate(&owners) {
            Ok(sol) => {
                let violation: f64 = sol
                    .power
                    .user_rates_bps
                    .iter()
                    .zip(&problem.min_rates_bps)
                    .map(|(r, m)| (m - r).max(0.0))
                    .sum();
                (-sol.total_rate_bps + 10.0 * violation) / band
            }
            Err(_) => f64::MAX / 1e6,
        }
    };
    let result = minimize_mixed(fitness, &specs, DiscreteStrategy::Distribution, settings)?;
    let owners: Vec<usize> = result.best_position.iter().map(|&v| v as usize).collect();
    problem.evaluate(&owners)
}

/// Greedy baseline: give each RB to its best-gain user, then repair unmet
/// minimum rates by reassigning the weakest blocks of over-served users.
///
/// # Errors
/// Propagates evaluation errors.
pub fn solve_greedy(problem: &RraProblem) -> Result<RraSolution, QosError> {
    // IEEE total order throughout this solver: a NaN gain ranks above
    // every finite gain (total_cmp), so a corrupt channel entry claims
    // the block deterministically and surfaces in evaluate() instead of
    // panicking mid-assignment.
    let mut owners = Vec::with_capacity(problem.resource_blocks());
    for k in 0..problem.resource_blocks() {
        let owner = (0..problem.users())
            .max_by(|&a, &b| {
                problem
                    .normalized_gain(a, k)
                    .total_cmp(&problem.normalized_gain(b, k))
            })
            .ok_or_else(|| QosError::InvalidParameter("problem has no users".into()))?;
        owners.push(owner);
    }
    let best = problem.evaluate(&owners)?;
    repair_min_rates(problem, &mut owners, best)
}

/// Greedy's repair pass: while some user misses its minimum rate, hand
/// the most-deficient user its best-gain block among those it does not
/// own, re-evaluating after each steal (bounded by one round per
/// resource block).
///
/// # Errors
/// Propagates evaluation errors.
fn repair_min_rates(
    problem: &RraProblem,
    owners: &mut [usize],
    mut best: RraSolution,
) -> Result<RraSolution, QosError> {
    for _round in 0..problem.resource_blocks() {
        if best.qos_satisfied {
            break;
        }
        let rates = &best.power.user_rates_bps;
        let Some(needy) = (0..problem.users())
            .filter(|&u| rates[u] < problem.min_rates_bps[u] - 1e-9)
            .max_by(|&a, &b| {
                let da = problem.min_rates_bps[a] - rates[a];
                let db = problem.min_rates_bps[b] - rates[b];
                // NaN deficit ranks greatest: the corrupt user is
                // repaired first and the NaN reaches evaluate().
                da.total_cmp(&db)
            })
        else {
            break;
        };
        let candidate = (0..problem.resource_blocks())
            .filter(|&k| owners[k] != needy)
            .max_by(|&a, &b| {
                problem
                    .normalized_gain(needy, a)
                    .total_cmp(&problem.normalized_gain(needy, b))
            });
        let Some(k) = candidate else { break };
        owners[k] = needy;
        let sol = problem.evaluate(owners)?;
        best = sol;
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Channel, ChannelConfig};

    fn problem(users: usize, rbs: usize, seed: u64, min_rate: f64) -> RraProblem {
        let ch = Channel::generate(&ChannelConfig::default(), users, rbs, seed).unwrap();
        RraProblem::new(ch, 1e-12, 1.0, 180e3, vec![min_rate; users]).unwrap()
    }

    #[test]
    fn evaluate_checks_inputs() {
        let p = problem(2, 4, 1, 0.0);
        assert!(p.evaluate(&[0, 1]).is_err());
        assert!(p.evaluate(&[0, 1, 2, 0]).is_err());
        assert!(p.evaluate(&[0, 1, 0, 1]).is_ok());
    }

    #[test]
    fn exact_beats_or_matches_greedy() {
        for seed in [1u64, 2, 3] {
            let p = problem(3, 5, seed, 1e5);
            let exact = solve_exact(&p, &BnbSettings::default()).unwrap();
            let greedy = solve_greedy(&p).unwrap();
            assert!(exact.qos_satisfied);
            if greedy.qos_satisfied {
                assert!(
                    exact.total_rate_bps >= greedy.total_rate_bps - 1e-6,
                    "seed {seed}: exact {} < greedy {}",
                    exact.total_rate_bps,
                    greedy.total_rate_bps
                );
            }
        }
    }

    #[test]
    fn exact_within_relaxation_bound() {
        let p = problem(3, 6, 5, 1e5);
        let exact = solve_exact(&p, &BnbSettings::default()).unwrap();
        let bound = relaxation_bound_bps(&p);
        assert!(exact.total_rate_bps <= bound + 1e-6);
        // The bound should not be absurdly loose on small instances.
        assert!(
            exact.total_rate_bps > 0.5 * bound,
            "rate {} bound {bound}",
            exact.total_rate_bps
        );
    }

    #[test]
    fn exact_matches_brute_force_tiny() {
        let p = problem(2, 4, 7, 5e4);
        let exact = solve_exact(&p, &BnbSettings::default()).unwrap();
        // Brute force all 2^4 assignments.
        let mut best = 0.0f64;
        for mask in 0..16usize {
            let owners: Vec<usize> = (0..4).map(|k| (mask >> k) & 1).collect();
            let sol = p.evaluate(&owners).unwrap();
            if sol.qos_satisfied && sol.total_rate_bps > best {
                best = sol.total_rate_bps;
            }
        }
        assert!(
            (exact.total_rate_bps - best).abs() <= 1e-6 * best,
            "bnb {} vs brute {best}",
            exact.total_rate_bps
        );
    }

    #[test]
    fn pso_finds_feasible_near_optimal() {
        let p = problem(3, 6, 9, 1e5);
        let exact = solve_exact(&p, &BnbSettings::default()).unwrap();
        let pso = solve_pso(
            &p,
            &PsoSettings {
                swarm_size: 20,
                max_iter: 60,
                seed: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            pso.qos_satisfied,
            "PSO rates {:?}",
            pso.power.user_rates_bps
        );
        assert!(
            pso.total_rate_bps >= 0.85 * exact.total_rate_bps,
            "pso {} vs exact {}",
            pso.total_rate_bps,
            exact.total_rate_bps
        );
    }

    #[test]
    fn infeasible_min_rates_detected() {
        let p = problem(2, 2, 3, 1e12);
        assert!(matches!(
            solve_exact(&p, &BnbSettings::default()),
            Err(QosError::Solver(_))
        ));
    }

    #[test]
    fn spectral_efficiency_consistent() {
        let p = problem(2, 4, 11, 0.0);
        let sol = solve_greedy(&p).unwrap();
        let band = 180e3 * 4.0;
        assert!((sol.spectral_efficiency - sol.total_rate_bps / band).abs() < 1e-12);
        assert!(sol.spectral_efficiency > 0.0);
    }

    #[test]
    fn problem_validation() {
        let ch = Channel::generate(&ChannelConfig::default(), 2, 2, 0).unwrap();
        assert!(RraProblem::new(ch.clone(), 1e-12, 1.0, 180e3, vec![0.0]).is_err());
        assert!(RraProblem::new(ch.clone(), 0.0, 1.0, 180e3, vec![0.0, 0.0]).is_err());
        assert!(RraProblem::new(ch, 1e-12, 1.0, 180e3, vec![-1.0, 0.0]).is_err());
    }
}
