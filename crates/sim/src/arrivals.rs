//! Open-system workload: when sessions arrive and when they leave.
//!
//! The paper's §VI evaluation is a *closed* population — N users all
//! pressing play at slot 0 — but the related deployment literature
//! (utility-optimal scheduling with admission control, prediction-aware
//! adaptive video) treats session churn as the baseline regime. The
//! [`ArrivalSpec`] here describes that churn as part of the workload:
//! arrival processes (simultaneous, staggered, Poisson with an optional
//! diurnal rate curve), session-length truncation (users who stop
//! watching before the video ends), and fully declared per-user
//! arrival/departure slots for tests.
//!
//! Every variant compiles to one [`ChurnPlan`] — per-user arrival and
//! departure slots — consumed by the engine's live-set machinery. The
//! PR 4 fault taxonomy keeps its `late_arrival`/`departure` events, but
//! those are *perturbations layered on top* of this plan (fault delays
//! add to workload arrivals); the golden fault traces are unchanged.
//!
//! # Determinism rules
//!
//! * Churn draws come from one dedicated RNG stream
//!   (`seed ^ 0xA11_1BA1`, the stream the staggered spec has used since
//!   PR 2) that is **separate from every signal stream**: per-user RSSI
//!   processes are seeded by user id. Since PR 10 each user's signal
//!   stream is *arrival-anchored* — the engine starts drawing it at the
//!   user's final (post-deferral) arrival slot, so pre-arrival users
//!   cost nothing — which means draw `k` of user `i`'s stream lands on
//!   absolute slot `arrival + k`. Closed populations (everyone arrives
//!   at slot 0) are bit-identical to the pre-PR 10 sampling, so the
//!   golden traces are unchanged; open systems see the same *stream*
//!   shifted to start at arrival, and the driver and the reference loop
//!   anchor identically.
//! * The plan is compiled once, before the run; nothing about arrivals
//!   or departures is drawn inside the slot loop.
//! * Arrivals past the horizon are legal (the user simply never starts;
//!   a Poisson process thinner than the horizon leaves the tail of the
//!   population unspawned) — completion metrics then reflect an open
//!   system, not a bug.

use crate::error::ScenarioError;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Stream-splitting constant for churn draws (arrivals *and* session
/// lengths), unchanged from the PR 2 staggered spec so existing staggered
/// scenarios keep their exact arrival slots.
const CHURN_SEED: u64 = 0xA11_1BA1;

/// Sentinel departure slot for users who watch to completion.
pub const NEVER_DEPARTS: u64 = u64::MAX;

/// Sinusoidal modulation of a Poisson arrival rate over the horizon —
/// the classic diurnal load curve (busy hour / quiet hour).
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct Diurnal {
    /// Period of the modulation in slots (one simulated "day").
    pub period_slots: u64,
    /// Relative amplitude in `[0, 1)`: the instantaneous rate is
    /// `λ·(1 + depth·sin(2π·t/period))`, so `0.5` swings between half
    /// and one-and-a-half times the base rate.
    pub depth: f64,
}

impl Diurnal {
    /// Instantaneous rate multiplier at continuous time `t` (slots).
    fn factor(&self, t: f64) -> f64 {
        1.0 + self.depth * (std::f64::consts::TAU * t / self.period_slots as f64).sin()
    }
}

/// How long an arriving user stays before abandoning the session (in
/// slots, counted from arrival). Users whose video ends first simply
/// finish; the truncation only cuts sessions short.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum SessionLength {
    /// Exponentially distributed watch time (memoryless abandonment).
    Exponential {
        /// Mean watch time, slots.
        mean_slots: f64,
    },
    /// Uniform watch time in `[min_slots, max_slots]`.
    Uniform {
        /// Shortest stay, slots (≥ 1).
        min_slots: u64,
        /// Longest stay, slots.
        max_slots: u64,
    },
}

/// When user sessions begin (and, for the open-system variants, end).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Default)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ArrivalSpec {
    /// Everyone starts at slot 0 (the paper's setting).
    #[default]
    Simultaneous,
    /// Users arrive one after another with i.i.d. uniform inter-arrival
    /// gaps in `[0, 2·mean_interval_slots]` (mean as named), seeded.
    Staggered {
        /// Mean gap between consecutive arrivals, slots.
        mean_interval_slots: f64,
    },
    /// Poisson arrivals: exponential inter-arrival gaps with mean
    /// `mean_interval_slots`, optionally rate-modulated by a diurnal
    /// curve (via thinning) and truncated by a session-length
    /// distribution. This is the open-system workload.
    Poisson {
        /// Mean gap between consecutive arrivals at the base rate, slots.
        mean_interval_slots: f64,
        /// Optional diurnal modulation of the arrival rate.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        diurnal: Option<Diurnal>,
        /// Optional watch-time truncation (None = watch to completion).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        session_slots: Option<SessionLength>,
    },
    /// Fully declared per-user churn — the first-class form of what the
    /// fault taxonomy expresses as `late_arrival`/`departure` events,
    /// without going through the fault hook.
    Declared {
        /// Arrival slot per user (length must equal `n_users`).
        arrivals: Vec<u64>,
        /// Departure slot per user (`None` = watches to completion).
        /// Empty means nobody departs early; otherwise length must equal
        /// `n_users` and each departure must lie after its arrival.
        #[serde(default, skip_serializing_if = "Vec::is_empty")]
        departures: Vec<Option<u64>>,
    },
}

/// Compiled per-user churn: what the engine actually consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnPlan {
    /// Arrival slot per user (may exceed the horizon: never arrives).
    pub arrivals: Vec<u64>,
    /// Departure slot per user; [`NEVER_DEPARTS`] = watches to the end.
    pub departures: Vec<u64>,
}

impl ChurnPlan {
    /// True when at least one user departs before [`NEVER_DEPARTS`].
    pub fn any_departures(&self) -> bool {
        self.departures.iter().any(|&d| d != NEVER_DEPARTS)
    }
}

/// One exponential sample with the given mean (inverse-CDF on a
/// half-open uniform, so the log argument is never zero).
fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.random_range(0.0..1.0);
    -(1.0 - u).ln() * mean
}

impl ArrivalSpec {
    /// True for the open-system variants (Poisson churn or declared
    /// per-user arrivals/departures) — the ones whose runs benefit from
    /// live-population telemetry.
    pub fn is_open(&self) -> bool {
        matches!(
            self,
            ArrivalSpec::Poisson { .. } | ArrivalSpec::Declared { .. }
        )
    }

    /// Draw the per-user arrival slots (departures discarded). Kept for
    /// callers that predate [`ArrivalSpec::compile`].
    pub fn arrival_slots(&self, n_users: usize, seed: u64) -> Vec<u64> {
        self.compile(n_users, seed).arrivals
    }

    /// Compile to per-user arrival and departure slots. Deterministic in
    /// `(self, n_users, seed)`; see the module docs for the stream rules.
    pub fn compile(&self, n_users: usize, seed: u64) -> ChurnPlan {
        match self {
            ArrivalSpec::Simultaneous => ChurnPlan {
                arrivals: vec![0; n_users],
                departures: vec![NEVER_DEPARTS; n_users],
            },
            ArrivalSpec::Staggered {
                mean_interval_slots,
            } => {
                let mut rng = StdRng::seed_from_u64(seed ^ CHURN_SEED);
                let mut t = 0.0f64;
                let arrivals = (0..n_users)
                    .map(|_| {
                        let slot = t as u64;
                        t += rng
                            .random_range(0.0..=(2.0 * mean_interval_slots).max(f64::MIN_POSITIVE));
                        slot
                    })
                    .collect();
                ChurnPlan {
                    arrivals,
                    departures: vec![NEVER_DEPARTS; n_users],
                }
            }
            ArrivalSpec::Poisson {
                mean_interval_slots,
                diurnal,
                session_slots,
            } => {
                let mut rng = StdRng::seed_from_u64(seed ^ CHURN_SEED);
                let base_rate = 1.0 / mean_interval_slots.max(f64::MIN_POSITIVE);
                // Thinning (Lewis–Shedler): candidates at the peak rate,
                // accepted with probability rate(t)/peak. With no diurnal
                // curve every candidate is accepted and this reduces to a
                // plain homogeneous Poisson process.
                let peak_rate = base_rate * (1.0 + diurnal.map_or(0.0, |d| d.depth));
                let mut t = 0.0f64;
                let mut arrivals = Vec::with_capacity(n_users);
                let mut departures = Vec::with_capacity(n_users);
                for _ in 0..n_users {
                    loop {
                        t += exp_sample(&mut rng, 1.0 / peak_rate);
                        let accept = match diurnal {
                            None => true,
                            Some(d) => {
                                let p = base_rate * d.factor(t) / peak_rate;
                                rng.random_range(0.0..1.0) < p
                            }
                        };
                        if accept {
                            break;
                        }
                    }
                    let arrival = t as u64;
                    arrivals.push(arrival);
                    departures.push(match session_slots {
                        None => NEVER_DEPARTS,
                        Some(SessionLength::Exponential { mean_slots }) => {
                            let stay = exp_sample(&mut rng, *mean_slots).ceil().max(1.0) as u64;
                            arrival.saturating_add(stay)
                        }
                        Some(SessionLength::Uniform {
                            min_slots,
                            max_slots,
                        }) => {
                            let stay = rng.random_range(*min_slots..=*max_slots).max(1);
                            arrival.saturating_add(stay)
                        }
                    });
                }
                ChurnPlan {
                    arrivals,
                    departures,
                }
            }
            ArrivalSpec::Declared {
                arrivals,
                departures,
            } => ChurnPlan {
                arrivals: arrivals.clone(),
                departures: if departures.is_empty() {
                    vec![NEVER_DEPARTS; n_users]
                } else {
                    departures
                        .iter()
                        .map(|d| d.unwrap_or(NEVER_DEPARTS))
                        .collect()
                },
            },
        }
    }

    /// Field-named parameter checks, run from [`Scenario::validate`]
    /// (`field` is the scenario-level field name, i.e. `"arrivals"`).
    ///
    /// [`Scenario::validate`]: crate::Scenario::validate
    pub fn validate(&self, n_users: usize, field: &str) -> Result<(), ScenarioError> {
        let err = |suffix: &str, reason: String| {
            Err(ScenarioError::new(format!("{field}{suffix}"), reason))
        };
        match self {
            ArrivalSpec::Simultaneous | ArrivalSpec::Staggered { .. } => Ok(()),
            ArrivalSpec::Poisson {
                mean_interval_slots,
                diurnal,
                session_slots,
            } => {
                if !mean_interval_slots.is_finite() || *mean_interval_slots <= 0.0 {
                    return err(
                        ".mean_interval_slots",
                        "must be positive and finite".to_string(),
                    );
                }
                if let Some(d) = diurnal {
                    if d.period_slots == 0 {
                        return err(".diurnal.period_slots", "must be positive".to_string());
                    }
                    if !(0.0..1.0).contains(&d.depth) {
                        return err(".diurnal.depth", "must lie in [0, 1)".to_string());
                    }
                }
                match session_slots {
                    Some(SessionLength::Exponential { mean_slots })
                        if !mean_slots.is_finite() || *mean_slots <= 0.0 =>
                    {
                        err(
                            ".session_slots.mean_slots",
                            "must be positive and finite".to_string(),
                        )
                    }
                    Some(SessionLength::Uniform {
                        min_slots,
                        max_slots,
                    }) if min_slots == &0 || min_slots > max_slots => err(
                        ".session_slots",
                        "needs 1 <= min_slots <= max_slots".to_string(),
                    ),
                    _ => Ok(()),
                }
            }
            ArrivalSpec::Declared {
                arrivals,
                departures,
            } => {
                if arrivals.len() != n_users {
                    return err(
                        ".arrivals",
                        format!("needs {n_users} entries, got {}", arrivals.len()),
                    );
                }
                if !departures.is_empty() {
                    if departures.len() != n_users {
                        return err(
                            ".departures",
                            format!(
                                "needs {n_users} entries (or none), got {}",
                                departures.len()
                            ),
                        );
                    }
                    for (i, (a, d)) in arrivals.iter().zip(departures).enumerate() {
                        if let Some(d) = d {
                            if d <= a {
                                return err(
                                    &format!(".departures[{i}]"),
                                    format!("departure slot {d} must follow arrival slot {a}"),
                                );
                            }
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_specs_never_depart() {
        let plan = ArrivalSpec::Simultaneous.compile(4, 7);
        assert_eq!(plan.arrivals, vec![0; 4]);
        assert!(!plan.any_departures());
        let plan = ArrivalSpec::Staggered {
            mean_interval_slots: 10.0,
        }
        .compile(4, 7);
        assert!(!plan.any_departures());
    }

    #[test]
    fn staggered_compile_matches_legacy_arrival_slots() {
        // `compile` must reproduce the PR 2 stream exactly: same seed
        // xor, same draw order.
        let spec = ArrivalSpec::Staggered {
            mean_interval_slots: 20.0,
        };
        assert_eq!(spec.compile(10, 3).arrivals, spec.arrival_slots(10, 3));
    }

    #[test]
    fn poisson_is_deterministic_and_ordered() {
        let spec = ArrivalSpec::Poisson {
            mean_interval_slots: 5.0,
            diurnal: None,
            session_slots: None,
        };
        let a = spec.compile(50, 9);
        let b = spec.compile(50, 9);
        assert_eq!(a, b, "seeded");
        for w in a.arrivals.windows(2) {
            assert!(w[1] >= w[0], "non-decreasing arrivals");
        }
        assert!(!a.any_departures(), "no truncation configured");
        let c = spec.compile(50, 10);
        assert_ne!(a, c, "different seed, different process");
        // Mean gap roughly matches the configured interval (50 draws,
        // generous tolerance).
        let last = *a.arrivals.last().unwrap() as f64;
        assert!(last > 50.0 && last < 1000.0, "last arrival {last}");
    }

    #[test]
    fn diurnal_modulation_changes_the_process() {
        let flat = ArrivalSpec::Poisson {
            mean_interval_slots: 5.0,
            diurnal: None,
            session_slots: None,
        };
        let curved = ArrivalSpec::Poisson {
            mean_interval_slots: 5.0,
            diurnal: Some(Diurnal {
                period_slots: 100,
                depth: 0.9,
            }),
            session_slots: None,
        };
        assert_ne!(flat.compile(40, 9), curved.compile(40, 9));
    }

    #[test]
    fn session_truncation_departs_after_arrival() {
        for session in [
            SessionLength::Exponential { mean_slots: 30.0 },
            SessionLength::Uniform {
                min_slots: 5,
                max_slots: 50,
            },
        ] {
            let plan = ArrivalSpec::Poisson {
                mean_interval_slots: 3.0,
                diurnal: None,
                session_slots: Some(session),
            }
            .compile(30, 11);
            assert!(plan.any_departures());
            for (&a, &d) in plan.arrivals.iter().zip(&plan.departures) {
                assert!(d > a, "departure {d} after arrival {a}");
            }
        }
    }

    #[test]
    fn declared_plan_is_verbatim() {
        let spec = ArrivalSpec::Declared {
            arrivals: vec![0, 10, 20],
            departures: vec![None, Some(15), None],
        };
        assert!(spec.validate(3, "arrivals").is_ok());
        let plan = spec.compile(3, 99);
        assert_eq!(plan.arrivals, vec![0, 10, 20]);
        assert_eq!(plan.departures, vec![NEVER_DEPARTS, 15, NEVER_DEPARTS]);
    }

    #[test]
    fn validation_names_the_field() {
        let bad = ArrivalSpec::Poisson {
            mean_interval_slots: 0.0,
            diurnal: None,
            session_slots: None,
        };
        let msg = bad.validate(3, "arrivals").unwrap_err().to_string();
        assert!(msg.contains("arrivals.mean_interval_slots"), "{msg}");

        let bad = ArrivalSpec::Poisson {
            mean_interval_slots: 1.0,
            diurnal: Some(Diurnal {
                period_slots: 0,
                depth: 0.5,
            }),
            session_slots: None,
        };
        let msg = bad.validate(3, "arrivals").unwrap_err().to_string();
        assert!(msg.contains("diurnal.period_slots"), "{msg}");

        let bad = ArrivalSpec::Declared {
            arrivals: vec![0, 1],
            departures: vec![],
        };
        let msg = bad.validate(3, "arrivals").unwrap_err().to_string();
        assert!(msg.contains("arrivals.arrivals"), "{msg}");

        let bad = ArrivalSpec::Declared {
            arrivals: vec![0, 10],
            departures: vec![None, Some(10)],
        };
        let msg = bad.validate(2, "arrivals").unwrap_err().to_string();
        assert!(msg.contains("departures[1]"), "{msg}");
    }

    #[test]
    fn serde_keeps_the_tagged_form() {
        let spec = ArrivalSpec::Poisson {
            mean_interval_slots: 2.5,
            diurnal: Some(Diurnal {
                period_slots: 500,
                depth: 0.4,
            }),
            session_slots: Some(SessionLength::Exponential { mean_slots: 60.0 }),
        };
        let j = serde_json::to_string(&spec).unwrap();
        assert!(j.contains("\"kind\":\"poisson\""), "{j}");
        let back: ArrivalSpec = serde_json::from_str(&j).unwrap();
        assert_eq!(back, spec);
        // Legacy scenarios still parse.
        let legacy: ArrivalSpec = serde_json::from_str("{\"kind\":\"simultaneous\"}").unwrap();
        assert_eq!(legacy, ArrivalSpec::Simultaneous);
    }
}
