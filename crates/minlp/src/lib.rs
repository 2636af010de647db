//! Branch-and-bound for mixed-integer nonlinear programs over convex
//! relaxations.
//!
//! §II of the paper: "Obtaining the globally optimal solution to an MINLP
//! problem requires exploring a vast search space. This can be done
//! through robust mixed-integer convex relaxations of the MINLP … it is
//! necessary to identify those key combinatorial substructures, induced
//! by integral variables, which can be leveraged so as to improve the
//! involved bound tightening and global optimization algorithms."
//!
//! The solver is generic over [`RelaxableProblem`]: a problem supplies
//! (a) a convex relaxation solvable for any sub-box of its integer
//! variables — the *bound*, and (b) an exact continuous solve for a fixed
//! integer assignment — the *incumbent*. The driver owns the tree:
//! best-bound node selection, most-fractional branching, rounding
//! heuristics, and gap-based termination with a certificate.
//!
//! # Example
//!
//! ```
//! use rcr_minlp::{solve, BnbSettings, SeparableQuadratic};
//!
//! # fn main() -> Result<(), rcr_minlp::MinlpError> {
//! // min (x₀ − 1.4)² + (x₁ − 2.7)²  s.t.  x ∈ {0..5}², x₀ + x₁ = 4
//! let p = SeparableQuadratic::new(vec![1.4, 2.7], (0, 5), Some(4))?;
//! let r = solve(&p, &BnbSettings::default())?;
//! assert_eq!(r.assignment, vec![1, 3]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Errors produced by the MINLP driver.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MinlpError {
    /// The problem reported inconsistent dimensions or malformed data.
    InvalidProblem(String),
    /// No feasible integer assignment exists.
    Infeasible,
    /// The node budget was exhausted before proving optimality; the
    /// incumbent (if any) is returned inside the error for salvage.
    BudgetExhausted {
        /// Best feasible objective found, if any.
        incumbent: Option<f64>,
        /// Nodes explored.
        nodes: usize,
    },
    /// A relaxation or subproblem solve failed.
    SubproblemFailure(String),
}

impl fmt::Display for MinlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinlpError::InvalidProblem(msg) => write!(f, "invalid problem: {msg}"),
            MinlpError::Infeasible => write!(f, "no feasible integer assignment"),
            MinlpError::BudgetExhausted { incumbent, nodes } => write!(
                f,
                "node budget exhausted after {nodes} nodes (incumbent: {incumbent:?})"
            ),
            MinlpError::SubproblemFailure(msg) => write!(f, "subproblem failure: {msg}"),
        }
    }
}

impl std::error::Error for MinlpError {}

/// Result of solving a convex relaxation on an integer sub-box.
#[derive(Debug, Clone)]
pub struct Relaxation {
    /// A valid lower bound on the optimum within the sub-box (+∞ when the
    /// relaxation itself is infeasible).
    pub lower_bound: f64,
    /// The relaxed (possibly fractional) values of the integer variables.
    pub values: Vec<f64>,
}

/// A minimization MINLP exposing its convex-relaxation structure.
pub trait RelaxableProblem {
    /// Number of integer decision variables.
    fn num_integers(&self) -> usize;

    /// Global bounds `(lo, hi)` of each integer variable.
    fn integer_bounds(&self) -> Vec<(i64, i64)>;

    /// Solves the convex relaxation with the integer variables confined
    /// to `bounds` (continuous inside the box). Returns a valid lower
    /// bound for the sub-tree.
    ///
    /// # Errors
    /// Implementations report solver failures; an infeasible relaxation
    /// should return `lower_bound = f64::INFINITY` rather than an error.
    fn solve_relaxation(&self, bounds: &[(i64, i64)]) -> Result<Relaxation, MinlpError>;

    /// Solves the residual continuous problem for a fixed integer
    /// assignment. Returns `None` when the assignment is infeasible.
    ///
    /// # Errors
    /// Implementations report solver failures.
    fn evaluate_assignment(&self, assignment: &[i64]) -> Result<Option<f64>, MinlpError>;
}

/// Branch-and-bound settings.
#[derive(Debug, Clone)]
pub struct BnbSettings {
    /// Node budget.
    pub max_nodes: usize,
    /// Absolute optimality gap for termination.
    pub gap: f64,
    /// Run the rounding heuristic at every node (cheap incumbents).
    pub rounding_heuristic: bool,
}

impl Default for BnbSettings {
    fn default() -> Self {
        BnbSettings {
            max_nodes: 50_000,
            gap: 1e-6,
            rounding_heuristic: true,
        }
    }
}

/// Solution report.
#[derive(Debug, Clone)]
pub struct MinlpReport {
    /// Optimal (or best proven) objective value.
    pub objective: f64,
    /// Optimal integer assignment.
    pub assignment: Vec<i64>,
    /// Nodes explored.
    pub nodes: usize,
    /// Final lower bound (optimality certificate: `objective − lower ≤ gap`).
    pub lower_bound: f64,
    /// True when the gap was proven (false never escapes [`solve`]; kept
    /// for symmetry with salvage paths).
    pub proven_optimal: bool,
}

#[derive(Debug)]
struct TreeNode {
    lower: f64,
    bounds: Vec<(i64, i64)>,
    relaxed: Vec<f64>,
}

impl PartialEq for TreeNode {
    fn eq(&self, other: &Self) -> bool {
        self.lower == other.lower
    }
}
impl Eq for TreeNode {}
impl PartialOrd for TreeNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TreeNode {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap → reverse for best-(lowest-)bound-first.
        other
            .lower
            .partial_cmp(&self.lower)
            .unwrap_or(Ordering::Equal)
    }
}

/// Solves the MINLP to proven optimality (within `settings.gap`).
///
/// # Errors
/// * [`MinlpError::Infeasible`] when no integer assignment is feasible.
/// * [`MinlpError::BudgetExhausted`] when `max_nodes` is reached first.
/// * Propagates problem-reported failures.
pub fn solve<P: RelaxableProblem + ?Sized>(
    problem: &P,
    settings: &BnbSettings,
) -> Result<MinlpReport, MinlpError> {
    let n = problem.num_integers();
    if n == 0 {
        return Err(MinlpError::InvalidProblem("no integer variables".into()));
    }
    let root_bounds = problem.integer_bounds();
    if root_bounds.len() != n {
        return Err(MinlpError::InvalidProblem(format!(
            "integer_bounds returned {} entries for {n} variables",
            root_bounds.len()
        )));
    }
    for &(lo, hi) in &root_bounds {
        if lo > hi {
            return Err(MinlpError::Infeasible);
        }
    }

    let mut incumbent: Option<(f64, Vec<i64>)> = None;
    let mut nodes = 0usize;
    let mut heap = BinaryHeap::new();

    let root = problem.solve_relaxation(&root_bounds)?;
    nodes += 1;
    if root.lower_bound.is_finite() {
        heap.push(TreeNode {
            lower: root.lower_bound,
            bounds: root_bounds,
            relaxed: root.values,
        });
    }

    let try_assignment =
        |assignment: &[i64], incumbent: &mut Option<(f64, Vec<i64>)>| -> Result<(), MinlpError> {
            if let Some(obj) = problem.evaluate_assignment(assignment)? {
                match incumbent {
                    Some((best, _)) if *best <= obj => {}
                    _ => *incumbent = Some((obj, assignment.to_vec())),
                }
            }
            Ok(())
        };

    while let Some(node) = heap.pop() {
        // Prune against the incumbent.
        if let Some((best, _)) = &incumbent {
            if node.lower >= *best - settings.gap {
                // Best-bound order: every remaining node is at least as
                // bad — the incumbent is optimal.
                break;
            }
        }
        if nodes >= settings.max_nodes {
            return Err(MinlpError::BudgetExhausted {
                incumbent: incumbent.map(|(v, _)| v),
                nodes,
            });
        }

        // Rounding heuristic on the relaxed values.
        if settings.rounding_heuristic {
            let rounded: Vec<i64> = node
                .relaxed
                .iter()
                .zip(&node.bounds)
                .map(|(&v, &(lo, hi))| (v.round() as i64).clamp(lo, hi))
                .collect();
            try_assignment(&rounded, &mut incumbent)?;
        }

        // Pick the most fractional variable to branch on. An *integral*
        // relaxation does NOT close the node: the relaxation may have
        // dropped coupling constraints (that is its job), so a feasible
        // completion better than the relaxed point can still hide in the
        // sub-box — we evaluate the candidate, then keep partitioning.
        let frac = |v: f64| (v - v.round()).abs();
        let branch_var = node
            .relaxed
            .iter()
            .enumerate()
            .filter(|(i, _)| node.bounds[*i].0 < node.bounds[*i].1)
            // total_cmp: a NaN relaxed coordinate (frac(NaN) = NaN)
            // ranks most-fractional and is branched on first, rather
            // than tying with everything and leaving the pick to
            // position — strict order, deterministic.
            .max_by(|a, b| frac(*a.1).total_cmp(&frac(*b.1)))
            .map(|(i, _)| i);

        let Some(bv) = branch_var else {
            // Every variable is fixed: exact evaluation closes the node.
            let assignment: Vec<i64> = node.bounds.iter().map(|&(lo, _)| lo).collect();
            try_assignment(&assignment, &mut incumbent)?;
            continue;
        };
        if frac(node.relaxed[bv]) < 1e-9 {
            let assignment: Vec<i64> = node
                .relaxed
                .iter()
                .zip(&node.bounds)
                .map(|(&v, &(lo, hi))| (v.round() as i64).clamp(lo, hi))
                .collect();
            try_assignment(&assignment, &mut incumbent)?;
            // The candidate may have raised the incumbent enough to prune.
            if let Some((best, _)) = &incumbent {
                if node.lower >= *best - settings.gap {
                    continue;
                }
            }
        }

        // Branch: x_bv ≤ split and x_bv ≥ split + 1, with the split point
        // clamped so both children are non-empty.
        let split =
            (node.relaxed[bv].floor() as i64).clamp(node.bounds[bv].0, node.bounds[bv].1 - 1);
        let children = [(node.bounds[bv].0, split), (split + 1, node.bounds[bv].1)];
        for &(lo, hi) in &children {
            if lo > hi {
                continue;
            }
            let mut b = node.bounds.clone();
            b[bv] = (lo, hi);
            nodes += 1;
            let rel = problem.solve_relaxation(&b)?;
            if !rel.lower_bound.is_finite() {
                continue; // infeasible sub-box
            }
            // Prune immediately when dominated.
            if let Some((best, _)) = &incumbent {
                if rel.lower_bound >= *best - settings.gap {
                    continue;
                }
            }
            heap.push(TreeNode {
                lower: rel.lower_bound,
                bounds: b,
                relaxed: rel.values,
            });
        }
    }

    match incumbent {
        Some((objective, assignment)) => {
            let lower_bound = heap.peek().map(|n| n.lower).unwrap_or(objective);
            Ok(MinlpReport {
                objective,
                assignment,
                nodes,
                lower_bound: lower_bound.min(objective),
                proven_optimal: true,
            })
        }
        None => Err(MinlpError::Infeasible),
    }
}

// ---------------------------------------------------------------------
// A reference problem for tests, docs and benchmarks.
// ---------------------------------------------------------------------

/// `min Σ (x_i − c_i)²` over integer `x_i ∈ [lo, hi]`, optionally subject
/// to `Σ x_i = budget` — a separable integer least-squares problem with a
/// closed-form convex relaxation (clamped projection onto the budget
/// hyperplane, found by bisection on the multiplier).
#[derive(Debug, Clone)]
pub struct SeparableQuadratic {
    targets: Vec<f64>,
    range: (i64, i64),
    budget: Option<i64>,
}

impl SeparableQuadratic {
    /// Creates the problem.
    ///
    /// # Errors
    /// Returns [`MinlpError::InvalidProblem`] for empty targets or a
    /// reversed range.
    pub fn new(
        targets: Vec<f64>,
        range: (i64, i64),
        budget: Option<i64>,
    ) -> Result<Self, MinlpError> {
        if targets.is_empty() {
            return Err(MinlpError::InvalidProblem("no variables".into()));
        }
        if range.0 > range.1 {
            return Err(MinlpError::InvalidProblem("reversed range".into()));
        }
        Ok(SeparableQuadratic {
            targets,
            range,
            budget,
        })
    }

    fn objective(&self, x: &[f64]) -> f64 {
        self.targets
            .iter()
            .zip(x)
            .map(|(c, v)| (v - c) * (v - c))
            .sum()
    }

    /// Continuous minimizer of `Σ (x_i − c_i)²` with `x_i ∈ [lo_i, hi_i]`
    /// and (optionally) `Σ x_i = budget`: `x_i = clamp(c_i + λ)` with λ
    /// found by bisection.
    fn project(&self, bounds: &[(i64, i64)]) -> Option<Vec<f64>> {
        let clamp = |lambda: f64| -> Vec<f64> {
            self.targets
                .iter()
                .zip(bounds)
                .map(|(&c, &(lo, hi))| (c + lambda).clamp(lo as f64, hi as f64))
                .collect()
        };
        match self.budget {
            None => Some(clamp(0.0)),
            Some(s) => {
                let s = s as f64;
                let total = |l: f64| clamp(l).iter().sum::<f64>();
                let (min_sum, max_sum) = (
                    bounds.iter().map(|b| b.0 as f64).sum::<f64>(),
                    bounds.iter().map(|b| b.1 as f64).sum::<f64>(),
                );
                if s < min_sum - 1e-9 || s > max_sum + 1e-9 {
                    return None;
                }
                let (mut lo, mut hi) = (-1e6, 1e6);
                for _ in 0..200 {
                    let mid = 0.5 * (lo + hi);
                    if total(mid) < s {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                Some(clamp(0.5 * (lo + hi)))
            }
        }
    }
}

impl RelaxableProblem for SeparableQuadratic {
    fn num_integers(&self) -> usize {
        self.targets.len()
    }

    fn integer_bounds(&self) -> Vec<(i64, i64)> {
        vec![self.range; self.targets.len()]
    }

    fn solve_relaxation(&self, bounds: &[(i64, i64)]) -> Result<Relaxation, MinlpError> {
        match self.project(bounds) {
            Some(x) => Ok(Relaxation {
                lower_bound: self.objective(&x),
                values: x,
            }),
            None => Ok(Relaxation {
                lower_bound: f64::INFINITY,
                values: Vec::new(),
            }),
        }
    }

    fn evaluate_assignment(&self, assignment: &[i64]) -> Result<Option<f64>, MinlpError> {
        if assignment.len() != self.targets.len() {
            return Err(MinlpError::InvalidProblem("assignment length".into()));
        }
        if assignment
            .iter()
            .any(|&v| v < self.range.0 || v > self.range.1)
        {
            return Ok(None);
        }
        if let Some(s) = self.budget {
            if assignment.iter().sum::<i64>() != s {
                return Ok(None);
            }
        }
        let x: Vec<f64> = assignment.iter().map(|&v| v as f64).collect();
        Ok(Some(self.objective(&x)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_rounds_each_coordinate() {
        let p = SeparableQuadratic::new(vec![1.2, -0.6, 3.7], (-5, 5), None).unwrap();
        let r = solve(&p, &BnbSettings::default()).unwrap();
        assert_eq!(r.assignment, vec![1, -1, 4]);
        assert!(r.proven_optimal);
        // Certificate: gap closed.
        assert!(r.objective - r.lower_bound <= 1e-6 + 1e-12);
    }

    #[test]
    fn budget_constraint_forces_tradeoff() {
        // Targets (1.4, 2.7) sum to 4.1; budget 4 forces the cheapest
        // integer split: (1, 3) costs 0.16+0.09 = 0.25.
        let p = SeparableQuadratic::new(vec![1.4, 2.7], (0, 5), Some(4)).unwrap();
        let r = solve(&p, &BnbSettings::default()).unwrap();
        assert_eq!(r.assignment, vec![1, 3]);
        assert!((r.objective - 0.25).abs() < 1e-9);
    }

    #[test]
    fn matches_exhaustive_enumeration() {
        let p = SeparableQuadratic::new(vec![0.3, 1.9, -1.2, 2.2], (-3, 3), Some(3)).unwrap();
        let r = solve(&p, &BnbSettings::default()).unwrap();
        // Brute force.
        let mut best = f64::INFINITY;
        let mut best_x = vec![];
        let rng = -3i64..=3;
        for a in rng.clone() {
            for b in rng.clone() {
                for c in rng.clone() {
                    for d in rng.clone() {
                        if a + b + c + d != 3 {
                            continue;
                        }
                        let obj = p.objective(&[a as f64, b as f64, c as f64, d as f64]);
                        if obj < best {
                            best = obj;
                            best_x = vec![a, b, c, d];
                        }
                    }
                }
            }
        }
        assert!(
            (r.objective - best).abs() < 1e-9,
            "bnb {} vs brute {best}",
            r.objective
        );
        assert_eq!(r.assignment, best_x);
    }

    #[test]
    fn infeasible_budget_detected() {
        let p = SeparableQuadratic::new(vec![0.0, 0.0], (0, 1), Some(5)).unwrap();
        assert!(matches!(
            solve(&p, &BnbSettings::default()),
            Err(MinlpError::Infeasible)
        ));
    }

    #[test]
    fn budget_exhaustion_salvages_incumbent() {
        let p = SeparableQuadratic::new(
            (0..12).map(|i| i as f64 * 0.37 + 0.4).collect(),
            (0, 10),
            Some(25),
        )
        .unwrap();
        let s = BnbSettings {
            max_nodes: 2,
            rounding_heuristic: false,
            ..Default::default()
        };
        match solve(&p, &s) {
            Err(MinlpError::BudgetExhausted { nodes, .. }) => assert!(nodes >= 2),
            Ok(r) => {
                // A 2-node budget may still suffice when the root
                // relaxation is integral; accept a proven solve.
                assert!(r.proven_optimal);
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn rounding_heuristic_accelerates() {
        let p = SeparableQuadratic::new(
            (0..8).map(|i| (i as f64 * 0.77).sin() * 3.0).collect(),
            (-4, 4),
            Some(2),
        )
        .unwrap();
        let with = solve(
            &p,
            &BnbSettings {
                rounding_heuristic: true,
                ..Default::default()
            },
        )
        .unwrap();
        let without = solve(
            &p,
            &BnbSettings {
                rounding_heuristic: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((with.objective - without.objective).abs() < 1e-9);
        assert!(
            with.nodes <= without.nodes,
            "with {} vs without {}",
            with.nodes,
            without.nodes
        );
    }

    #[test]
    fn validation() {
        assert!(SeparableQuadratic::new(vec![], (0, 1), None).is_err());
        assert!(SeparableQuadratic::new(vec![1.0], (2, 1), None).is_err());
        let p = SeparableQuadratic::new(vec![1.0], (0, 1), None).unwrap();
        assert!(p.evaluate_assignment(&[0, 1]).is_err());
    }

    #[test]
    fn tight_range_single_point() {
        let p = SeparableQuadratic::new(vec![0.7, 0.2], (1, 1), None).unwrap();
        let r = solve(&p, &BnbSettings::default()).unwrap();
        assert_eq!(r.assignment, vec![1, 1]);
    }
}
