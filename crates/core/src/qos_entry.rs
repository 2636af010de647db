//! The headline QoS entry point: solve a 5G RRA scenario with the full
//! solver arsenal and report the relaxation certificates side by side —
//! the deliverable the paper's title promises.

use crate::CoreError;
use rcr_minlp::BnbSettings;
use rcr_pso::swarm::PsoSettings;
use rcr_qos::rra::{relaxation_bound_bps, solve_exact, solve_greedy, solve_pso, RraSolution};
use rcr_qos::workload::Scenario;

/// Which solver produced a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Branch-and-bound to proven optimality.
    Exact,
    /// Discrete particle swarm (the paper's metaheuristic of choice).
    Pso,
    /// Max-gain greedy with repair.
    Greedy,
}

impl SolverKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SolverKind::Exact => "exact (B&B)",
            SolverKind::Pso => "PSO",
            SolverKind::Greedy => "greedy",
        }
    }
}

/// One solver's outcome on a scenario.
#[derive(Debug, Clone)]
pub struct SolverOutcome {
    /// The solver.
    pub solver: SolverKind,
    /// The allocation it found (`None` when it failed/infeasible).
    pub solution: Option<RraSolution>,
    /// Wall-clock seconds spent.
    pub seconds: f64,
}

/// Comparative report for one scenario (one block of the E12 table).
#[derive(Debug, Clone)]
pub struct QosComparison {
    /// Upper bound on any allocation's rate from the convex relaxation.
    pub relaxation_bound_bps: f64,
    /// Per-solver outcomes, in [`SolverKind`] order.
    pub outcomes: Vec<SolverOutcome>,
}

impl QosComparison {
    /// Optimality gap of a solver against the exact optimum (when both
    /// solved): `(exact − solver) / exact`.
    pub fn gap_vs_exact(&self, solver: SolverKind) -> Option<f64> {
        let exact = self
            .outcomes
            .iter()
            .find(|o| o.solver == SolverKind::Exact)?
            .solution
            .as_ref()?
            .total_rate_bps;
        let mine = self
            .outcomes
            .iter()
            .find(|o| o.solver == solver)?
            .solution
            .as_ref()?
            .total_rate_bps;
        Some((exact - mine) / exact.max(1e-12))
    }
}

/// Runs all three solvers on a scenario.
///
/// # Errors
/// Propagates configuration errors; individual solver failures are
/// captured as `None` outcomes rather than aborting the comparison.
pub fn compare_solvers(
    scenario: &Scenario,
    bnb: &BnbSettings,
    pso: &PsoSettings,
) -> Result<QosComparison, CoreError> {
    let problem = &scenario.rra;
    let bound = relaxation_bound_bps(problem);
    let mut outcomes = Vec::with_capacity(3);

    // rcr-lint: allow(no-wall-clock-in-solvers, reason = "timing is reported metadata only; the measured durations never feed back into any solver decision")
    let clock = std::time::Instant::now;
    {
        let t0 = clock();
        let sol = solve_exact(problem, bnb).ok();
        outcomes.push(SolverOutcome {
            solver: SolverKind::Exact,
            solution: sol,
            seconds: t0.elapsed().as_secs_f64(),
        });
    }
    {
        let t0 = clock();
        let sol = solve_pso(problem, pso).ok().filter(|s| s.qos_satisfied);
        outcomes.push(SolverOutcome {
            solver: SolverKind::Pso,
            solution: sol,
            seconds: t0.elapsed().as_secs_f64(),
        });
    }
    {
        let t0 = clock();
        let sol = solve_greedy(problem).ok();
        outcomes.push(SolverOutcome {
            solver: SolverKind::Greedy,
            solution: sol,
            seconds: t0.elapsed().as_secs_f64(),
        });
    }
    Ok(QosComparison {
        relaxation_bound_bps: bound,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcr_qos::workload::ScenarioConfig;

    #[test]
    fn comparison_runs_and_orders_sensibly() {
        let scenario = Scenario::generate(
            &ScenarioConfig {
                users: 3,
                resource_blocks: 5,
                ..Default::default()
            },
            21,
        )
        .unwrap();
        let pso = PsoSettings {
            swarm_size: 10,
            max_iter: 30,
            seed: 2,
            ..Default::default()
        };
        let cmp = compare_solvers(&scenario, &BnbSettings::default(), &pso).unwrap();
        let exact = cmp.outcomes[0].solution.as_ref().expect("exact solves");
        assert!(exact.total_rate_bps <= cmp.relaxation_bound_bps + 1e-6);
        // Exact dominates any feasible heuristic outcome.
        for o in &cmp.outcomes[1..] {
            if let Some(s) = &o.solution {
                if s.qos_satisfied {
                    assert!(
                        s.total_rate_bps <= exact.total_rate_bps + 1e-6,
                        "{:?}",
                        o.solver
                    );
                }
            }
        }
        // Gaps computable and nonnegative.
        if let Some(g) = cmp.gap_vs_exact(SolverKind::Greedy) {
            assert!(g >= -1e-9);
        }
    }

    #[test]
    fn exhausted_budget_reports_no_exact_row_and_keeps_the_heuristics() {
        let scenario = Scenario::generate(
            &ScenarioConfig {
                users: 3,
                resource_blocks: 5,
                ..Default::default()
            },
            21,
        )
        .unwrap();
        let pso = PsoSettings {
            swarm_size: 10,
            max_iter: 30,
            seed: 2,
            ..Default::default()
        };
        // One node is the root relaxation: the budget runs out before any
        // assignment is evaluated, so B&B has no incumbent to return.
        let starved = BnbSettings {
            max_nodes: 1,
            ..Default::default()
        };
        let cmp = compare_solvers(&scenario, &starved, &pso).unwrap();
        let kinds: Vec<SolverKind> = cmp.outcomes.iter().map(|o| o.solver).collect();
        assert_eq!(
            kinds,
            [SolverKind::Exact, SolverKind::Pso, SolverKind::Greedy]
        );
        assert!(cmp.outcomes[0].solution.is_none());
        assert_eq!(cmp.gap_vs_exact(SolverKind::Pso), None);
        assert_eq!(cmp.gap_vs_exact(SolverKind::Greedy), None);
        // The heuristics' outcomes do not depend on the B&B budget.
        let full = compare_solvers(&scenario, &BnbSettings::default(), &pso).unwrap();
        assert!(full.outcomes[0].solution.is_some());
        assert!(cmp.outcomes[2].solution.is_some());
        for i in 1..3 {
            let rate = |c: &QosComparison| {
                c.outcomes[i]
                    .solution
                    .as_ref()
                    .map(|s| s.total_rate_bps.to_bits())
            };
            assert_eq!(rate(&cmp), rate(&full), "{:?}", cmp.outcomes[i].solver);
        }
    }

    #[test]
    fn solver_names() {
        assert_eq!(SolverKind::Exact.name(), "exact (B&B)");
        assert_eq!(SolverKind::Pso.name(), "PSO");
        assert_eq!(SolverKind::Greedy.name(), "greedy");
    }
}
