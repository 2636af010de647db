//! Scenario generation with the 5G service categories.
//!
//! §I: "three main service categories: Enhanced Mobile Broadband (eMBB),
//! Ultra-Reliable Low-Latency Communications (URLLC), and massive
//! Machine-Type Communications (mMTC). These service categories will
//! support a wide range of QoS needs…". A scenario draws users, assigns
//! them service classes with class-appropriate minimum rates, realizes a
//! channel, and packages everything as an [`RraProblem`].

use crate::channel::{Channel, ChannelConfig};
use crate::rra::RraProblem;
use crate::QosError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A 5G service category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosClass {
    /// Enhanced Mobile Broadband — high minimum rate.
    Embb,
    /// Ultra-Reliable Low-Latency — moderate rate that *must* be met.
    Urllc,
    /// Massive Machine-Type — low rate, best effort.
    Mmtc,
}

impl QosClass {
    /// Every class, in *service-priority order* (URLLC first): the order
    /// a QoS-aware scheduler visits lanes, and the canonical order for
    /// per-class metric tables.
    pub const ALL: [QosClass; 3] = [QosClass::Urllc, QosClass::Embb, QosClass::Mmtc];

    /// The minimum-rate requirement of the class, as a multiple of one
    /// RB's bandwidth (bit/s per Hz of a single block).
    // rcr-lint: unit(return = PerRb, reason = "normalized per-RB requirement; multiply by rb_bandwidth_hz to get bit/s")
    pub fn min_rate_per_rb_bandwidth(&self) -> f64 {
        match self {
            QosClass::Embb => 2.0,
            QosClass::Urllc => 1.0,
            QosClass::Mmtc => 0.1,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            QosClass::Embb => "eMBB",
            QosClass::Urllc => "URLLC",
            QosClass::Mmtc => "mMTC",
        }
    }

    /// The class's position in [`QosClass::ALL`] — 0 for URLLC (highest
    /// priority) through 2 for mMTC. Stable across releases: wire
    /// protocols and lane arrays may index by it.
    pub fn priority_rank(&self) -> usize {
        match self {
            QosClass::Urllc => 0,
            QosClass::Embb => 1,
            QosClass::Mmtc => 2,
        }
    }

    /// Parses a service-class name, case-insensitively, accepting the
    /// display names from [`QosClass::name`] (`"URLLC"`, `"eMBB"`,
    /// `"mMTC"`) in any capitalization — the inverse mapping used by
    /// text protocols and CLI flags.
    pub fn from_name(name: &str) -> Option<QosClass> {
        let name = name.trim();
        QosClass::ALL
            .into_iter()
            .find(|c| c.name().eq_ignore_ascii_case(name))
    }
}

/// Scenario generation parameters.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Number of users.
    pub users: usize,
    /// Number of resource blocks.
    pub resource_blocks: usize,
    /// Class mix (eMBB, URLLC, mMTC) proportions; need not normalize.
    pub class_mix: (f64, f64, f64),
    /// Total transmit power (W).
    pub power_budget_w: f64,
    /// Bandwidth per RB (Hz).
    pub rb_bandwidth_hz: f64,
    /// Noise power per RB (W).
    pub noise_power_w: f64,
    /// Channel model.
    pub channel: ChannelConfig,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            users: 4,
            resource_blocks: 8,
            class_mix: (0.3, 0.2, 0.5),
            power_budget_w: 1.0,
            rb_bandwidth_hz: 180e3,
            noise_power_w: 1e-12,
            channel: ChannelConfig::default(),
        }
    }
}

impl ScenarioConfig {
    /// A configuration whose every user belongs to `class` — the request
    /// conversion used by the solver service, where one request carries
    /// one service class and a cell size.
    pub fn single_class(class: QosClass, users: usize, resource_blocks: usize) -> ScenarioConfig {
        let class_mix = match class {
            QosClass::Embb => (1.0, 0.0, 0.0),
            QosClass::Urllc => (0.0, 1.0, 0.0),
            QosClass::Mmtc => (0.0, 0.0, 1.0),
        };
        ScenarioConfig {
            users,
            resource_blocks,
            class_mix,
            ..ScenarioConfig::default()
        }
    }
}

/// A generated scenario: the RRA instance plus class annotations.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The optimization problem.
    pub rra: RraProblem,
    /// Class of each user.
    pub classes: Vec<QosClass>,
}

impl Scenario {
    /// Generates a scenario deterministically from `seed`.
    ///
    /// # Errors
    /// Returns [`QosError::InvalidParameter`] for malformed configuration.
    pub fn generate(config: &ScenarioConfig, seed: u64) -> Result<Self, QosError> {
        let (a, b, c) = config.class_mix;
        if !(a >= 0.0 && b >= 0.0 && c >= 0.0) || a + b + c <= 0.0 {
            return Err(QosError::InvalidParameter(format!(
                "bad class mix {:?}",
                config.class_mix
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let total = a + b + c;
        let classes: Vec<QosClass> = (0..config.users)
            .map(|_| {
                let u: f64 = rng.gen_range(0.0..total);
                if u < a {
                    QosClass::Embb
                } else if u < a + b {
                    QosClass::Urllc
                } else {
                    QosClass::Mmtc
                }
            })
            .collect();
        let min_rates: Vec<f64> = classes
            .iter()
            .map(|cl| cl.min_rate_per_rb_bandwidth() * config.rb_bandwidth_hz)
            .collect();
        let channel = Channel::generate(
            &config.channel,
            config.users,
            config.resource_blocks,
            seed.wrapping_add(0x9E37_79B9),
        )?;
        let rra = RraProblem::new(
            channel,
            config.noise_power_w,
            config.power_budget_w,
            config.rb_bandwidth_hz,
            min_rates,
        )?;
        Ok(Scenario { rra, classes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rra::solve_greedy;

    #[test]
    fn generation_deterministic() {
        let cfg = ScenarioConfig::default();
        let a = Scenario::generate(&cfg, 5).unwrap();
        let b = Scenario::generate(&cfg, 5).unwrap();
        assert_eq!(a.classes, b.classes);
        assert_eq!(a.rra.min_rates_bps, b.rra.min_rates_bps);
    }

    #[test]
    fn class_mix_respected_in_aggregate() {
        let cfg = ScenarioConfig {
            users: 300,
            class_mix: (1.0, 0.0, 0.0),
            ..Default::default()
        };
        let s = Scenario::generate(&cfg, 1).unwrap();
        assert!(s.classes.iter().all(|&c| c == QosClass::Embb));
        let cfg = ScenarioConfig {
            users: 300,
            class_mix: (1.0, 1.0, 1.0),
            ..Default::default()
        };
        let s = Scenario::generate(&cfg, 2).unwrap();
        let count = |class| s.classes.iter().filter(|&&c| c == class).count();
        let (e, u, m) = (
            count(QosClass::Embb),
            count(QosClass::Urllc),
            count(QosClass::Mmtc),
        );
        assert!(e > 50 && u > 50 && m > 50, "({e},{u},{m})");
    }

    #[test]
    fn min_rates_follow_classes() {
        let cfg = ScenarioConfig {
            users: 20,
            ..Default::default()
        };
        let s = Scenario::generate(&cfg, 3).unwrap();
        for (cl, &r) in s.classes.iter().zip(&s.rra.min_rates_bps) {
            assert_eq!(r, cl.min_rate_per_rb_bandwidth() * cfg.rb_bandwidth_hz);
        }
    }

    #[test]
    fn generated_scenarios_are_solvable() {
        let cfg = ScenarioConfig::default();
        let s = Scenario::generate(&cfg, 8).unwrap();
        let sol = solve_greedy(&s.rra).unwrap();
        assert!(sol.total_rate_bps > 0.0);
    }

    #[test]
    fn validation() {
        let bad = ScenarioConfig {
            class_mix: (0.0, 0.0, 0.0),
            ..Default::default()
        };
        assert!(Scenario::generate(&bad, 0).is_err());
        let bad = ScenarioConfig {
            class_mix: (-1.0, 1.0, 1.0),
            ..Default::default()
        };
        assert!(Scenario::generate(&bad, 0).is_err());
    }

    #[test]
    fn class_names() {
        assert_eq!(QosClass::Embb.name(), "eMBB");
        assert_eq!(QosClass::Urllc.name(), "URLLC");
        assert_eq!(QosClass::Mmtc.name(), "mMTC");
    }

    #[test]
    fn name_round_trips_and_ranks_align() {
        for (rank, class) in QosClass::ALL.into_iter().enumerate() {
            assert_eq!(class.priority_rank(), rank);
            assert_eq!(QosClass::from_name(class.name()), Some(class));
            assert_eq!(
                QosClass::from_name(&class.name().to_uppercase()),
                Some(class)
            );
            assert_eq!(
                QosClass::from_name(&class.name().to_lowercase()),
                Some(class)
            );
        }
        assert_eq!(QosClass::from_name(" urllc "), Some(QosClass::Urllc));
        assert_eq!(QosClass::from_name("bestEffort"), None);
        assert_eq!(QosClass::from_name(""), None);
    }

    #[test]
    fn single_class_scenarios_are_uniform() {
        for class in QosClass::ALL {
            let cfg = ScenarioConfig::single_class(class, 6, 12);
            assert_eq!(cfg.users, 6);
            assert_eq!(cfg.resource_blocks, 12);
            let s = Scenario::generate(&cfg, 17).unwrap();
            assert!(s.classes.iter().all(|&c| c == class), "{class:?}");
        }
    }
}
