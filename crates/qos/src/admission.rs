//! Admission control — the paper's third QoS example: "Radio Resource
//! Management (RRM) for connections with varied QoS requirements" (§I).
//!
//! When a cell cannot satisfy every connection's minimum rate, the RRM
//! must decide *which* connections to admit. Admission here maximizes a
//! class-weighted count of admitted users subject to the admitted set
//! being RRA-feasible (there exists an assignment + power allocation
//! meeting every admitted minimum rate). Feasibility of a candidate set
//! is decided with the greedy-with-repair RRA solver (cheap, sound for
//! admission in the "no" direction only — so the search is
//! conservative: it never admits an infeasible set, but may reject a
//! marginally feasible one, the standard engineering trade).

use crate::rra::{solve_greedy, RraProblem, RraSolution};
use crate::workload::QosClass;
use crate::QosError;

/// Admission priority weight of a service class (URLLC highest — its
/// guarantees are the reason it exists).
pub fn class_weight(class: QosClass) -> f64 {
    match class {
        QosClass::Urllc => 3.0,
        QosClass::Embb => 2.0,
        QosClass::Mmtc => 1.0,
    }
}

/// Result of admission control.
#[derive(Debug, Clone)]
pub struct AdmissionResult {
    /// Which users were admitted.
    pub admitted: Vec<bool>,
    /// Total class-weight of the admitted set.
    pub weight: f64,
    /// The allocation serving the admitted set.
    pub solution: RraSolution,
    /// Candidate sets whose feasibility was checked.
    pub feasibility_checks: usize,
}

/// Runs greedy admission control: start from the full set; while the set
/// is infeasible, evict the lowest-weight user with the largest rate
/// deficit; finally try to re-admit evicted users one at a time
/// (lowest-demand first).
///
/// # Errors
/// Propagates solver errors; returns [`QosError::InvalidParameter`] when
/// `classes.len()` differs from the problem's user count.
pub fn admit(problem: &RraProblem, classes: &[QosClass]) -> Result<AdmissionResult, QosError> {
    let users = problem.users();
    if classes.len() != users {
        return Err(QosError::InvalidParameter(format!(
            "{} classes for {users} users",
            classes.len()
        )));
    }
    let mut admitted = vec![true; users];
    let mut checks = 0usize;

    // Masked problem: evicted users keep their RBs eligible but drop
    // their rate floor to zero.
    let masked = |admitted: &[bool]| -> Result<(RraProblem, RraSolution), QosError> {
        let rates: Vec<f64> = problem
            .min_rates_bps
            .iter()
            .zip(admitted)
            .map(|(&r, &a)| if a { r } else { 0.0 })
            .collect();
        let sub = RraProblem::new(
            problem.channel().clone(),
            problem.noise_power_w,
            problem.power_budget_w,
            problem.rb_bandwidth_hz,
            rates,
        )?;
        let sol = solve_greedy(&sub)?;
        Ok((sub, sol))
    };

    let (_, mut sol) = masked(&admitted)?;
    checks += 1;
    while !sol.qos_satisfied {
        // Evict: among unsatisfied users, the one with the lowest
        // weight-per-deficit (cheap guarantees go first).
        let candidate = (0..users)
            .filter(|&u| admitted[u])
            .filter(|&u| sol.power.user_rates_bps[u] < problem.min_rates_bps[u] - 1e-9)
            .min_by(|&a, &b| {
                let score = |u: usize| {
                    class_weight(classes[u])
                        / (problem.min_rates_bps[u] - sol.power.user_rates_bps[u]).max(1.0)
                };
                score(a).total_cmp(&score(b))
            });
        let Some(evict) = candidate else {
            break; // infeasible for other reasons; stop evicting
        };
        admitted[evict] = false;
        let (_, s) = masked(&admitted)?;
        checks += 1;
        sol = s;
        if admitted.iter().all(|a| !a) {
            // Empty admitted set: all rate floors are zero, so the fresh
            // solve above is trivially feasible — stop evicting.
            break;
        }
    }

    // Re-admission pass: lowest demand first.
    let mut evicted: Vec<usize> = (0..users).filter(|&u| !admitted[u]).collect();
    evicted.sort_by(|&a, &b| problem.min_rates_bps[a].total_cmp(&problem.min_rates_bps[b]));
    for u in evicted {
        admitted[u] = true;
        let (_, s) = masked(&admitted)?;
        checks += 1;
        if s.qos_satisfied {
            sol = s;
        } else {
            admitted[u] = false;
        }
    }

    let weight = admitted
        .iter()
        .zip(classes)
        .filter(|(&a, _)| a)
        .map(|(_, &c)| class_weight(c))
        .sum();
    Ok(AdmissionResult {
        admitted,
        weight,
        solution: sol,
        feasibility_checks: checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Channel, ChannelConfig};
    use crate::workload::{Scenario, ScenarioConfig};

    fn problem_with_rates(rates: Vec<f64>, seed: u64) -> RraProblem {
        let users = rates.len();
        let ch = Channel::generate(&ChannelConfig::default(), users, 2 * users, seed).unwrap();
        RraProblem::new(ch, 1e-12, 1.0, 180e3, rates).unwrap()
    }

    #[test]
    fn feasible_scenario_admits_everyone() {
        let p = problem_with_rates(vec![1e5; 3], 1);
        let classes = vec![QosClass::Embb, QosClass::Urllc, QosClass::Mmtc];
        let r = admit(&p, &classes).unwrap();
        assert!(r.admitted.iter().all(|&a| a), "{:?}", r.admitted);
        assert!(r.solution.qos_satisfied);
        assert_eq!(r.weight, 6.0);
    }

    #[test]
    fn overloaded_scenario_evicts_someone_and_stays_feasible() {
        // Demands far beyond the cell capacity: someone must go.
        let p = problem_with_rates(vec![4e6, 4e6, 4e6, 4e6], 2);
        let classes = vec![
            QosClass::Mmtc,
            QosClass::Urllc,
            QosClass::Embb,
            QosClass::Mmtc,
        ];
        let r = admit(&p, &classes).unwrap();
        let kept = r.admitted.iter().filter(|&&a| a).count();
        assert!(kept < 4, "admitted {:?}", r.admitted);
        assert!(r.solution.qos_satisfied, "served set must be feasible");
        // Every admitted user's floor is met by the reported allocation.
        for u in 0..4 {
            if r.admitted[u] {
                assert!(
                    r.solution.power.user_rates_bps[u] >= p.min_rates_bps[u] * 0.999,
                    "user {u}"
                );
            }
        }
    }

    #[test]
    fn urllc_survives_over_mmtc_at_equal_demand() {
        // Two users, identical demands that cannot both be met: the
        // higher-weight class stays.
        let p = problem_with_rates(vec![6e6, 6e6], 3);
        let classes = vec![QosClass::Mmtc, QosClass::Urllc];
        let r = admit(&p, &classes).unwrap();
        if r.admitted.iter().filter(|&&a| a).count() == 1 {
            assert!(r.admitted[1], "URLLC should outrank mMTC: {:?}", r.admitted);
        }
    }

    #[test]
    fn generated_scenarios_admit_consistently() {
        let s = Scenario::generate(
            &ScenarioConfig {
                users: 5,
                resource_blocks: 10,
                ..Default::default()
            },
            11,
        )
        .unwrap();
        let r = admit(&s.rra, &s.classes).unwrap();
        assert!(r.feasibility_checks >= 1);
        assert!(r.solution.qos_satisfied);
    }

    #[test]
    fn validation() {
        let p = problem_with_rates(vec![1e5; 2], 0);
        assert!(admit(&p, &[QosClass::Embb]).is_err());
    }
}
