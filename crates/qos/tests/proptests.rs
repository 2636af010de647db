//! Property-based invariants of the QoS problem domain.

use proptest::prelude::*;
use rcr_qos::channel::{Channel, ChannelConfig};
use rcr_qos::rra::{relaxation_bound_bps, solve_greedy, RraProblem};

fn problem(users: usize, rbs: usize, seed: u64) -> RraProblem {
    let ch = Channel::generate(&ChannelConfig::default(), users, rbs, seed).unwrap();
    RraProblem::new(ch, 1e-12, 1.0, 180e3, vec![0.0; users]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn channel_gains_positive_and_deterministic(
        users in 1usize..6,
        rbs in 1usize..12,
        seed in 0u64..500,
    ) {
        let a = Channel::generate(&ChannelConfig::default(), users, rbs, seed).unwrap();
        let b = Channel::generate(&ChannelConfig::default(), users, rbs, seed).unwrap();
        prop_assert_eq!(a.gains(), b.gains());
        for u in 0..users {
            for k in 0..rbs {
                prop_assert!(a.gain(u, k) > 0.0 && a.gain(u, k).is_finite());
            }
        }
    }

    #[test]
    fn greedy_solution_within_relaxation_bound(
        users in 2usize..5,
        rbs in 2usize..8,
        seed in 0u64..200,
    ) {
        let p = problem(users, rbs, seed);
        let sol = solve_greedy(&p).unwrap();
        let bound = relaxation_bound_bps(&p);
        prop_assert!(sol.total_rate_bps <= bound * (1.0 + 1e-9));
        prop_assert!(sol.total_rate_bps > 0.0);
        prop_assert!(sol.qos_satisfied); // zero rate floors: always satisfied
        // Power budget respected.
        let total_power: f64 = sol.power.powers.iter().sum();
        prop_assert!(total_power <= 1.0 * (1.0 + 1e-6));
    }

    #[test]
    fn greedy_assignment_prefers_best_gain_without_floors(
        users in 2usize..5,
        rbs in 2usize..8,
        seed in 0u64..200,
    ) {
        let p = problem(users, rbs, seed);
        let sol = solve_greedy(&p).unwrap();
        // With zero rate floors the greedy assignment is exactly per-RB
        // argmax gain (no repair needed).
        for (k, &owner) in sol.owners.iter().enumerate() {
            for u in 0..users {
                prop_assert!(
                    p.normalized_gain(owner, k) >= p.normalized_gain(u, k) - 1e-12
                );
            }
        }
    }

}
