//! Declarative scenario manifests: the JSON spec layer.
//!
//! A manifest describes a workload *family* — cell topology, user
//! population, QoS-class mix, channel fading model, arrival process —
//! and, together with its `seed`, pins one exact trace of
//! [`rcr_serve::SolveRequest`]s. The JSON codec is the workspace's
//! hand-rolled one (`rcr_codec::json`), so the build stays hermetic and
//! floats round-trip bit-identically.
//!
//! Encoding is canonical: [`ScenarioManifest::encode`] emits keys in one
//! fixed order, so `parse(encode(m)) == m` *and* `encode(parse(s))` is a
//! normal form suitable for digesting and committing to the repo.

use rcr_codec::json::{self, JsonObject, JsonValue};
use rcr_codec::Digest128;
use rcr_qos::QosClass;
use rcr_serve::SolverKind;

/// QoS-class mix fractions. Need not sum to 1 — they are weights, and
/// validation only requires them non-negative with a positive sum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMix {
    /// URLLC weight.
    pub urllc: f64,
    /// eMBB weight.
    pub embb: f64,
    /// mMTC weight.
    pub mmtc: f64,
}

impl ClassMix {
    /// The weight of `class`.
    pub fn weight(&self, class: QosClass) -> f64 {
        match class {
            QosClass::Urllc => self.urllc,
            QosClass::Embb => self.embb,
            QosClass::Mmtc => self.mmtc,
        }
    }

    /// Maps a uniform draw `u ∈ [0, 1)` to a class by cumulative weight.
    pub fn pick(&self, u: f64) -> QosClass {
        let total = self.urllc + self.embb + self.mmtc;
        let x = u * total;
        if x < self.urllc {
            QosClass::Urllc
        } else if x < self.urllc + self.embb {
            QosClass::Embb
        } else {
            QosClass::Mmtc
        }
    }
}

/// How a user's channel realization evolves over virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FadingModel {
    /// Block fading: the channel is redrawn independently every
    /// `coherence_us` of virtual time (block Rayleigh — the realization
    /// inside `rcr_qos::channel` is Rayleigh-faded).
    BlockRayleigh {
        /// Coherence-block length in virtual microseconds.
        coherence_us: u64,
    },
    /// Correlated drift: each of a user's successive requests keeps the
    /// previous channel realization with probability `1 - redraw_prob`,
    /// drawing the redraw decision from the user's own seed stream, so
    /// consecutive requests are correlated and the whole path is still a
    /// pure function of (manifest, seed).
    CorrelatedDrift {
        /// Per-request probability of redrawing the channel.
        redraw_prob: f64,
    },
}

/// The arrival process generating request times on the virtual
/// microsecond timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals.
    Poisson {
        /// Mean arrival rate (requests per virtual second).
        rate_per_sec: f64,
    },
    /// Two-state Markov-modulated Poisson process: exponential sojourns
    /// in a slow and a fast phase, Poisson arrivals at the phase's rate —
    /// the classic bursty-traffic model.
    Mmpp {
        /// Arrival rate in the slow phase (requests per virtual second).
        slow_rate_per_sec: f64,
        /// Arrival rate in the fast (burst) phase.
        fast_rate_per_sec: f64,
        /// Mean slow-phase sojourn (virtual µs).
        mean_slow_us: f64,
        /// Mean fast-phase sojourn (virtual µs).
        mean_fast_us: f64,
    },
    /// Diurnal wave: a non-homogeneous Poisson process whose rate swings
    /// sinusoidally between `base_rate_per_sec` and `peak_rate_per_sec`
    /// with period `period_us`, sampled by thinning.
    Diurnal {
        /// Trough arrival rate (requests per virtual second).
        base_rate_per_sec: f64,
        /// Crest arrival rate.
        peak_rate_per_sec: f64,
        /// Wave period (virtual µs).
        period_us: u64,
    },
}

/// A complete declarative scenario spec. See the module docs; every
/// field participates in the canonical encoding and the trace digest.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioManifest {
    /// Human-readable scenario name (also the default run-artifact stem).
    pub name: String,
    /// Base seed; all per-user and per-arrival streams derive from it.
    pub seed: u64,
    /// Trace length in requests.
    pub requests: u64,
    /// Cells in the topology; a user's home cell is `user % cells` and
    /// decorrelates that user's channel stream from same-index users of
    /// other cells.
    pub cells: u64,
    /// User population size; each arrival is attributed to one user drawn
    /// uniformly from it.
    pub population: u64,
    /// Users per solve request (the per-cell problem size handed to the
    /// solver).
    pub users_per_problem: usize,
    /// Resource blocks per solve request.
    pub resource_blocks: usize,
    /// QoS-class mix over the population.
    pub class_mix: ClassMix,
    /// Channel fading model.
    pub fading: FadingModel,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Per-class request deadline in µs, indexed by
    /// [`QosClass::priority_rank`].
    pub deadlines_us: [u64; 3],
    /// Solver every request asks for.
    pub solver: SolverKind,
}

impl ScenarioManifest {
    /// Checks every invariant the generator relies on.
    ///
    /// # Errors
    /// A human-readable message naming the first violated field.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("name must be non-empty".into());
        }
        if self.requests == 0 {
            return Err("requests must be >= 1".into());
        }
        if self.cells == 0 {
            return Err("cells must be >= 1".into());
        }
        if self.population == 0 {
            return Err("population must be >= 1".into());
        }
        if self.users_per_problem == 0 {
            return Err("users_per_problem must be >= 1".into());
        }
        if self.resource_blocks == 0 {
            return Err("resource_blocks must be >= 1".into());
        }
        let ClassMix { urllc, embb, mmtc } = self.class_mix;
        // Negated-conjunction form so NaN anywhere in the mix fails too.
        if !(urllc >= 0.0 && embb >= 0.0 && mmtc >= 0.0 && urllc + embb + mmtc > 0.0) {
            return Err(format!(
                "class_mix must be non-negative with a positive sum, got {:?}",
                self.class_mix
            ));
        }
        match self.fading {
            FadingModel::BlockRayleigh { coherence_us } => {
                if coherence_us == 0 {
                    return Err("fading.coherence_us must be >= 1".into());
                }
            }
            FadingModel::CorrelatedDrift { redraw_prob } => {
                if !(0.0..=1.0).contains(&redraw_prob) {
                    return Err(format!(
                        "fading.redraw_prob must be in [0, 1], got {redraw_prob}"
                    ));
                }
            }
        }
        match self.arrivals {
            ArrivalProcess::Poisson { rate_per_sec } => {
                if !(rate_per_sec > 0.0) || !rate_per_sec.is_finite() {
                    return Err(format!(
                        "arrivals.rate_per_sec must be finite and positive, got {rate_per_sec}"
                    ));
                }
            }
            ArrivalProcess::Mmpp {
                slow_rate_per_sec,
                fast_rate_per_sec,
                mean_slow_us,
                mean_fast_us,
            } => {
                for (name, v) in [
                    ("slow_rate_per_sec", slow_rate_per_sec),
                    ("fast_rate_per_sec", fast_rate_per_sec),
                    ("mean_slow_us", mean_slow_us),
                    ("mean_fast_us", mean_fast_us),
                ] {
                    if !(v > 0.0) || !v.is_finite() {
                        return Err(format!(
                            "arrivals.{name} must be finite and positive, got {v}"
                        ));
                    }
                }
            }
            ArrivalProcess::Diurnal {
                base_rate_per_sec,
                peak_rate_per_sec,
                period_us,
            } => {
                if !(base_rate_per_sec > 0.0) || !base_rate_per_sec.is_finite() {
                    return Err(format!(
                        "arrivals.base_rate_per_sec must be finite and positive, got {base_rate_per_sec}"
                    ));
                }
                if !(peak_rate_per_sec >= base_rate_per_sec) || !peak_rate_per_sec.is_finite() {
                    return Err(format!(
                        "arrivals.peak_rate_per_sec must be >= base_rate_per_sec, got {peak_rate_per_sec}"
                    ));
                }
                if period_us == 0 {
                    return Err("arrivals.period_us must be >= 1".into());
                }
            }
        }
        for (class, &d) in QosClass::ALL.iter().zip(&self.deadlines_us) {
            if d == 0 {
                return Err(format!("deadlines_us.{} must be >= 1", class.name()));
            }
        }
        Ok(())
    }

    /// The deadline of `class`, in virtual µs.
    pub fn deadline_us(&self, class: QosClass) -> u64 {
        self.deadlines_us[class.priority_rank()]
    }

    /// Canonical JSON encoding (fixed key order, one line).
    pub fn encode(&self) -> String {
        let fading = match self.fading {
            FadingModel::BlockRayleigh { coherence_us } => {
                format!("{{\"model\":\"block_rayleigh\",\"coherence_us\":{coherence_us}}}")
            }
            FadingModel::CorrelatedDrift { redraw_prob } => format!(
                "{{\"model\":\"correlated_drift\",\"redraw_prob\":{}}}",
                json::encode_f64(redraw_prob)
            ),
        };
        let arrivals = match self.arrivals {
            ArrivalProcess::Poisson { rate_per_sec } => format!(
                "{{\"process\":\"poisson\",\"rate_per_sec\":{}}}",
                json::encode_f64(rate_per_sec)
            ),
            ArrivalProcess::Mmpp {
                slow_rate_per_sec,
                fast_rate_per_sec,
                mean_slow_us,
                mean_fast_us,
            } => format!(
                "{{\"process\":\"mmpp\",\"slow_rate_per_sec\":{},\"fast_rate_per_sec\":{},\"mean_slow_us\":{},\"mean_fast_us\":{}}}",
                json::encode_f64(slow_rate_per_sec),
                json::encode_f64(fast_rate_per_sec),
                json::encode_f64(mean_slow_us),
                json::encode_f64(mean_fast_us),
            ),
            ArrivalProcess::Diurnal {
                base_rate_per_sec,
                peak_rate_per_sec,
                period_us,
            } => format!(
                "{{\"process\":\"diurnal\",\"base_rate_per_sec\":{},\"peak_rate_per_sec\":{},\"period_us\":{period_us}}}",
                json::encode_f64(base_rate_per_sec),
                json::encode_f64(peak_rate_per_sec),
            ),
        };
        format!(
            "{{\"name\":{},\"seed\":{},\"requests\":{},\"cells\":{},\"population\":{},\
             \"users_per_problem\":{},\"resource_blocks\":{},\
             \"class_mix\":{{\"urllc\":{},\"embb\":{},\"mmtc\":{}}},\
             \"fading\":{},\"arrivals\":{},\
             \"deadlines_us\":{{\"urllc\":{},\"embb\":{},\"mmtc\":{}}},\
             \"solver\":{}}}",
            json::encode_str(&self.name),
            self.seed,
            self.requests,
            self.cells,
            self.population,
            self.users_per_problem,
            self.resource_blocks,
            json::encode_f64(self.class_mix.urllc),
            json::encode_f64(self.class_mix.embb),
            json::encode_f64(self.class_mix.mmtc),
            fading,
            arrivals,
            self.deadlines_us[0],
            self.deadlines_us[1],
            self.deadlines_us[2],
            json::encode_str(self.solver.name()),
        )
    }

    /// Parses a manifest (accepting any key order and ignoring unknown
    /// keys) and validates it.
    ///
    /// # Errors
    /// A human-readable message naming the malformed or invalid field.
    pub fn parse(text: &str) -> Result<ScenarioManifest, String> {
        ScenarioManifest::parse_value(&json::parse(text)?)
    }

    /// [`ScenarioManifest::parse`] over an already-parsed JSON value
    /// (used by [`RunManifest::parse`] for the nested object).
    ///
    /// # Errors
    /// Same as [`ScenarioManifest::parse`].
    pub fn parse_value(value: &JsonValue) -> Result<ScenarioManifest, String> {
        let obj = value.as_object().ok_or("manifest is not a JSON object")?;
        let manifest = ScenarioManifest {
            name: obj
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("missing \"name\"")?
                .to_string(),
            seed: obj
                .get_u64("seed")
                .ok_or("missing or non-integer \"seed\"")?,
            requests: obj
                .get_u64("requests")
                .ok_or("missing or non-integer \"requests\"")?,
            cells: obj.get_u64("cells").unwrap_or(1),
            population: obj
                .get_u64("population")
                .ok_or("missing or non-integer \"population\"")?,
            users_per_problem: obj.get_u64("users_per_problem").unwrap_or(3) as usize,
            resource_blocks: obj.get_u64("resource_blocks").unwrap_or(6) as usize,
            class_mix: parse_class_mix(obj)?,
            fading: parse_fading(obj)?,
            arrivals: parse_arrivals(obj)?,
            deadlines_us: parse_deadlines(obj)?,
            solver: match obj.get("solver").and_then(JsonValue::as_str) {
                None => SolverKind::Greedy,
                Some(name) => {
                    SolverKind::from_name(name).ok_or_else(|| format!("unknown solver {name:?}"))?
                }
            },
        };
        manifest.validate()?;
        Ok(manifest)
    }

    /// Folds every spec field into `d` — the manifest's contribution to a
    /// run digest (so two different specs can never share one).
    pub fn fold_into(&self, d: &mut Digest128) {
        d.str(&self.name);
        d.u64(self.seed);
        d.u64(self.requests);
        d.u64(self.cells);
        d.u64(self.population);
        d.u64(self.users_per_problem as u64);
        d.u64(self.resource_blocks as u64);
        d.f64(self.class_mix.urllc);
        d.f64(self.class_mix.embb);
        d.f64(self.class_mix.mmtc);
        match self.fading {
            FadingModel::BlockRayleigh { coherence_us } => {
                d.u64(1);
                d.u64(coherence_us);
            }
            FadingModel::CorrelatedDrift { redraw_prob } => {
                d.u64(2);
                d.f64(redraw_prob);
            }
        }
        match self.arrivals {
            ArrivalProcess::Poisson { rate_per_sec } => {
                d.u64(1);
                d.f64(rate_per_sec);
            }
            ArrivalProcess::Mmpp {
                slow_rate_per_sec,
                fast_rate_per_sec,
                mean_slow_us,
                mean_fast_us,
            } => {
                d.u64(2);
                d.f64(slow_rate_per_sec);
                d.f64(fast_rate_per_sec);
                d.f64(mean_slow_us);
                d.f64(mean_fast_us);
            }
            ArrivalProcess::Diurnal {
                base_rate_per_sec,
                peak_rate_per_sec,
                period_us,
            } => {
                d.u64(3);
                d.f64(base_rate_per_sec);
                d.f64(peak_rate_per_sec);
                d.u64(period_us);
            }
        }
        for &dl in &self.deadlines_us {
            d.u64(dl);
        }
        d.str(self.solver.name());
    }
}

fn parse_class_mix(obj: &JsonObject) -> Result<ClassMix, String> {
    let mix = obj
        .get("class_mix")
        .and_then(JsonValue::as_object)
        .ok_or("missing \"class_mix\" object")?;
    let field = |key: &str| {
        mix.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("class_mix missing numeric {key:?}"))
    };
    Ok(ClassMix {
        urllc: field("urllc")?,
        embb: field("embb")?,
        mmtc: field("mmtc")?,
    })
}

fn parse_fading(obj: &JsonObject) -> Result<FadingModel, String> {
    let fading = obj
        .get("fading")
        .and_then(JsonValue::as_object)
        .ok_or("missing \"fading\" object")?;
    match fading.get("model").and_then(JsonValue::as_str) {
        Some("block_rayleigh") => Ok(FadingModel::BlockRayleigh {
            coherence_us: fading
                .get_u64("coherence_us")
                .ok_or("block_rayleigh missing \"coherence_us\"")?,
        }),
        Some("correlated_drift") => Ok(FadingModel::CorrelatedDrift {
            redraw_prob: fading
                .get("redraw_prob")
                .and_then(JsonValue::as_f64)
                .ok_or("correlated_drift missing \"redraw_prob\"")?,
        }),
        other => Err(format!("unknown fading model {other:?}")),
    }
}

fn parse_arrivals(obj: &JsonObject) -> Result<ArrivalProcess, String> {
    let arrivals = obj
        .get("arrivals")
        .and_then(JsonValue::as_object)
        .ok_or("missing \"arrivals\" object")?;
    let num = |key: &str| {
        arrivals
            .get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("arrivals missing numeric {key:?}"))
    };
    match arrivals.get("process").and_then(JsonValue::as_str) {
        Some("poisson") => Ok(ArrivalProcess::Poisson {
            rate_per_sec: num("rate_per_sec")?,
        }),
        Some("mmpp") => Ok(ArrivalProcess::Mmpp {
            slow_rate_per_sec: num("slow_rate_per_sec")?,
            fast_rate_per_sec: num("fast_rate_per_sec")?,
            mean_slow_us: num("mean_slow_us")?,
            mean_fast_us: num("mean_fast_us")?,
        }),
        Some("diurnal") => Ok(ArrivalProcess::Diurnal {
            base_rate_per_sec: num("base_rate_per_sec")?,
            peak_rate_per_sec: num("peak_rate_per_sec")?,
            period_us: arrivals
                .get_u64("period_us")
                .ok_or("diurnal missing \"period_us\"")?,
        }),
        other => Err(format!("unknown arrival process {other:?}")),
    }
}

fn parse_deadlines(obj: &JsonObject) -> Result<[u64; 3], String> {
    let deadlines = obj
        .get("deadlines_us")
        .and_then(JsonValue::as_object)
        .ok_or("missing \"deadlines_us\" object")?;
    let field = |key: &str| {
        deadlines
            .get_u64(key)
            .ok_or_else(|| format!("deadlines_us missing integer {key:?}"))
    };
    // Key order here is URLLC, eMBB, mMTC — the priority_rank order.
    Ok([field("urllc")?, field("embb")?, field("mmtc")?])
}

/// A run manifest: the spec plus the digest of the trace it generated —
/// written alongside a run so the trace is exactly replayable and the
/// replay is *checkable*.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// The generating spec.
    pub manifest: ScenarioManifest,
    /// Hex digest of the generated trace (see
    /// [`crate::trace::trace_digest`]).
    pub trace_digest: String,
}

impl RunManifest {
    /// Canonical JSON encoding.
    pub fn encode(&self) -> String {
        format!(
            "{{\"manifest\":{},\"trace_digest\":{}}}",
            self.manifest.encode(),
            json::encode_str(&self.trace_digest)
        )
    }

    /// Parses a run manifest.
    ///
    /// # Errors
    /// A human-readable message naming the malformed field.
    pub fn parse(text: &str) -> Result<RunManifest, String> {
        let value = json::parse(text)?;
        let obj = value.as_object().ok_or("run manifest is not an object")?;
        let manifest =
            ScenarioManifest::parse_value(obj.get("manifest").ok_or("missing \"manifest\"")?)?;
        let trace_digest = obj
            .get("trace_digest")
            .and_then(JsonValue::as_str)
            .ok_or("missing \"trace_digest\"")?
            .to_string();
        if trace_digest.len() != 32 || !trace_digest.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("malformed trace_digest {trace_digest:?}"));
        }
        Ok(RunManifest {
            manifest,
            trace_digest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn example() -> ScenarioManifest {
        ScenarioManifest {
            name: "unit".into(),
            seed: 42,
            requests: 1000,
            cells: 3,
            population: 5000,
            users_per_problem: 3,
            resource_blocks: 6,
            class_mix: ClassMix {
                urllc: 0.2,
                embb: 0.3,
                mmtc: 0.5,
            },
            fading: FadingModel::BlockRayleigh {
                coherence_us: 10_000,
            },
            arrivals: ArrivalProcess::Poisson {
                rate_per_sec: 10_000.0,
            },
            deadlines_us: [5_000, 20_000, 100_000],
            solver: SolverKind::Greedy,
        }
    }

    #[test]
    fn encode_parse_round_trips_every_variant() {
        let mut variants = vec![example()];
        let mut mmpp = example();
        mmpp.fading = FadingModel::CorrelatedDrift { redraw_prob: 0.25 };
        mmpp.arrivals = ArrivalProcess::Mmpp {
            slow_rate_per_sec: 1_000.0,
            fast_rate_per_sec: 50_000.0,
            mean_slow_us: 200_000.0,
            mean_fast_us: 20_000.0,
        };
        variants.push(mmpp);
        let mut diurnal = example();
        diurnal.arrivals = ArrivalProcess::Diurnal {
            base_rate_per_sec: 500.0,
            peak_rate_per_sec: 20_000.0,
            period_us: 60_000_000,
        };
        variants.push(diurnal);
        for m in variants {
            let text = m.encode();
            let parsed = ScenarioManifest::parse(&text).unwrap();
            assert_eq!(parsed, m);
            // Canonical: encoding is a normal form.
            assert_eq!(parsed.encode(), text);
        }
    }

    #[test]
    fn parse_accepts_any_key_order_and_defaults() {
        let text = r#"{
            "population": 100, "seed": 1, "requests": 10, "name": "x",
            "arrivals": {"process": "poisson", "rate_per_sec": 100.0},
            "fading": {"model": "block_rayleigh", "coherence_us": 1000},
            "class_mix": {"mmtc": 1.0, "urllc": 0.0, "embb": 0.0},
            "deadlines_us": {"urllc": 1, "embb": 2, "mmtc": 3}
        }"#;
        let m = ScenarioManifest::parse(text).unwrap();
        assert_eq!(m.cells, 1, "cells defaults to 1");
        assert_eq!(m.users_per_problem, 3);
        assert_eq!(m.resource_blocks, 6);
        assert_eq!(m.solver, SolverKind::Greedy);
        assert_eq!(m.deadlines_us, [1, 2, 3]);
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let mut m = example();
        m.requests = 0;
        assert!(m.validate().is_err());
        let mut m = example();
        m.class_mix = ClassMix {
            urllc: 0.0,
            embb: 0.0,
            mmtc: 0.0,
        };
        assert!(m.validate().is_err());
        let mut m = example();
        m.fading = FadingModel::CorrelatedDrift { redraw_prob: 1.5 };
        assert!(m.validate().is_err());
        let mut m = example();
        m.arrivals = ArrivalProcess::Poisson { rate_per_sec: -1.0 };
        assert!(m.validate().is_err());
        let mut m = example();
        m.deadlines_us[1] = 0;
        assert!(m.validate().is_err());
        let mut m = example();
        m.arrivals = ArrivalProcess::Diurnal {
            base_rate_per_sec: 100.0,
            peak_rate_per_sec: 10.0, // peak < base
            period_us: 1000,
        };
        assert!(m.validate().is_err());
    }

    #[test]
    fn parse_reports_malformed_fields_by_name() {
        assert!(ScenarioManifest::parse("not json").is_err());
        let err = ScenarioManifest::parse(r#"{"name":"x"}"#).unwrap_err();
        assert!(err.contains("seed"), "{err}");
        let bad_fading = example().encode().replace("block_rayleigh", "nakagami");
        let err = ScenarioManifest::parse(&bad_fading).unwrap_err();
        assert!(err.contains("fading"), "{err}");
    }

    #[test]
    fn class_mix_pick_follows_cumulative_weights() {
        let mix = ClassMix {
            urllc: 1.0,
            embb: 1.0,
            mmtc: 2.0,
        };
        assert_eq!(mix.pick(0.0), QosClass::Urllc);
        assert_eq!(mix.pick(0.26), QosClass::Embb);
        assert_eq!(mix.pick(0.51), QosClass::Mmtc);
        assert_eq!(mix.pick(0.99), QosClass::Mmtc);
    }

    #[test]
    fn run_manifest_round_trips() {
        let run = RunManifest {
            manifest: example(),
            trace_digest: format!("{:032x}", 0xDEAD_BEEFu128),
        };
        let parsed = RunManifest::parse(&run.encode()).unwrap();
        assert_eq!(parsed, run);
        assert!(RunManifest::parse(r#"{"manifest":{},"trace_digest":"zz"}"#).is_err());
    }
}
