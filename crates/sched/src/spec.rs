//! Serializable scheduler descriptions — the factory scenario configs use.

use crate::baselines::{
    DefaultMax, EStreamer, OnOff, ProportionalFair, RoundRobin, Salsa, Throttling,
};
use crate::cost::{CrossLayerModels, TailPricing};
use crate::ema::Ema;
use crate::rtma::Rtma;
use crate::threshold::SignalThreshold;
use jmso_gateway::Scheduler;
use jmso_radio::MilliJoules;
use serde::{Deserialize, Serialize};

/// A named, parameterised scheduling policy.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum SchedulerSpec {
    /// The greedy-max Default baseline.
    Default,
    /// RTMA with the Eq. (12) threshold derived from a per-slot energy
    /// budget `Φ` (mJ per user-slot).
    Rtma {
        /// Energy budget Φ in mJ.
        phi_mj: f64,
        /// Best-effort fallback: when the threshold leaves BS budget
        /// unservable (degraded cap, deep fades), re-sweep ignoring it
        /// and emit a `DegradationEvent`. Off by default (paper-exact).
        #[serde(default)]
        best_effort: bool,
    },
    /// RTMA without an energy constraint.
    RtmaUnbounded,
    /// EMA (Algorithm 2), each slot solved by the exact marginal greedy.
    Ema {
        /// Lyapunov weight V.
        v: f64,
        /// How idle slots are priced (defaults to the literal Eq. (5)).
        #[serde(default)]
        tail: TailPricing,
        /// Saturate virtual queues `PCᵢ(n)` at this bound, seconds
        /// (graceful degradation under prolonged outage). `None` keeps
        /// the paper-exact unbounded queues.
        #[serde(default)]
        pc_clamp: Option<f64>,
    },
    /// Server-side pacing at κ·pᵢ.
    Throttling {
        /// Pacing factor κ.
        kappa: f64,
    },
    /// Client watermark ON-OFF protocol.
    OnOff {
        /// Resume-reading watermark, seconds.
        low_s: f64,
        /// Stop-reading watermark, seconds.
        high_s: f64,
    },
    /// SALSA energy-delay deferral.
    Salsa {
        /// Channel-opportunity factor θ.
        theta: f64,
        /// Buffer floor that forces a send, seconds.
        buffer_floor_s: f64,
        /// EWMA smoothing α.
        ewma_alpha: f64,
    },
    /// EStreamer burst shaping.
    EStreamer {
        /// Refill threshold, seconds.
        refill_s: f64,
        /// Burst target, seconds.
        target_s: f64,
    },
    /// Rotating fair-share (extension baseline, not in the paper).
    RoundRobin,
    /// Proportional-fair cellular scheduler (extension baseline).
    ProportionalFair {
        /// EWMA factor of the served-throughput average.
        ewma_alpha: f64,
    },
}

impl SchedulerSpec {
    /// Instantiate the policy. `tau` and `models` parameterize the
    /// cross-layer policies (RTMA's threshold, EMA's cost).
    pub fn build(&self, tau: f64, models: &CrossLayerModels) -> Box<dyn Scheduler> {
        match *self {
            SchedulerSpec::Default => Box::new(DefaultMax::new()),
            SchedulerSpec::Rtma {
                phi_mj,
                best_effort,
            } => Box::new(
                Rtma::with_energy_bound(MilliJoules(phi_mj), tau, models)
                    .with_best_effort(best_effort),
            ),
            SchedulerSpec::RtmaUnbounded => {
                Box::new(Rtma::with_threshold(SignalThreshold::allow_all()))
            }
            SchedulerSpec::Ema { v, tail, pc_clamp } => Box::new(
                Ema::new(v, *models)
                    .with_tail_pricing(tail)
                    .with_pc_clamp(pc_clamp),
            ),
            SchedulerSpec::Throttling { kappa } => Box::new(Throttling::new(kappa)),
            SchedulerSpec::OnOff { low_s, high_s } => Box::new(OnOff::new(low_s, high_s)),
            SchedulerSpec::Salsa {
                theta,
                buffer_floor_s,
                ewma_alpha,
            } => Box::new(Salsa::new(theta, buffer_floor_s, ewma_alpha)),
            SchedulerSpec::EStreamer { refill_s, target_s } => {
                Box::new(EStreamer::new(refill_s, target_s))
            }
            SchedulerSpec::RoundRobin => Box::new(RoundRobin::new()),
            SchedulerSpec::ProportionalFair { ewma_alpha } => {
                Box::new(ProportionalFair::new(ewma_alpha))
            }
        }
    }

    /// Reject every parameter that [`SchedulerSpec::build`]'s constructors
    /// `assert!`, with their own comparisons, under which NaN fails too,
    /// and the two that would build a policy that silently misbehaves: a
    /// NaN Φ (a NaN Eq. (12) threshold admits no signal) and a zero-slot
    /// amortization horizon.
    pub fn validate(&self) -> Result<(), String> {
        let unit = |a: f64| a > 0.0 && a <= 1.0;
        let (ok, rule) = match *self {
            Self::Rtma { phi_mj, .. } => (!phi_mj.is_nan(), "needs a phi_mj that is a number"),
            Self::Ema { v, tail, pc_clamp } => (
                v > 0.0
                    && pc_clamp.is_none_or(|b| b > 0.0)
                    && tail != TailPricing::Amortized { horizon_slots: 0 },
                "needs v > 0, pc_clamp > 0 and horizon_slots > 0",
            ),
            Self::Throttling { kappa } => (kappa > 0.0, "needs kappa > 0"),
            Self::OnOff { low_s, high_s } => {
                (low_s >= 0.0 && high_s > low_s, "needs 0 <= low_s < high_s")
            }
            Self::Salsa {
                theta,
                buffer_floor_s,
                ewma_alpha,
            } => (
                theta > 0.0 && buffer_floor_s >= 0.0 && unit(ewma_alpha),
                "needs theta > 0, buffer_floor_s >= 0 and 0 < ewma_alpha <= 1",
            ),
            Self::EStreamer { refill_s, target_s } => (
                refill_s >= 0.0 && target_s > refill_s,
                "needs 0 <= refill_s < target_s",
            ),
            Self::ProportionalFair { ewma_alpha } => {
                (unit(ewma_alpha), "needs 0 < ewma_alpha <= 1")
            }
            Self::Default | Self::RtmaUnbounded | Self::RoundRobin => (true, ""),
        };
        match ok {
            true => Ok(()),
            false => Err(format!("{} {rule}", self.label())),
        }
    }

    /// Short label for figure legends and CSV columns.
    pub fn label(&self) -> String {
        match self {
            SchedulerSpec::Default => "Default".into(),
            SchedulerSpec::Rtma { phi_mj, .. } => format!("RTMA(Φ={phi_mj:.0}mJ)"),
            SchedulerSpec::RtmaUnbounded => "RTMA(∞)".into(),
            SchedulerSpec::Ema { v, .. } => format!("EMA(V={v})"),
            SchedulerSpec::Throttling { kappa } => format!("Throttling(κ={kappa})"),
            SchedulerSpec::OnOff { low_s, high_s } => format!("ON-OFF({low_s}/{high_s}s)"),
            SchedulerSpec::Salsa { .. } => "SALSA".into(),
            SchedulerSpec::EStreamer { .. } => "EStreamer".into(),
            SchedulerSpec::RoundRobin => "RoundRobin".into(),
            SchedulerSpec::ProportionalFair { .. } => "PF".into(),
        }
    }

    /// The paper's default parameterisations for the three §VI baselines.
    pub fn throttling_default() -> Self {
        SchedulerSpec::Throttling { kappa: 1.25 }
    }

    /// ON-OFF with the YouTube-style watermarks.
    pub fn onoff_default() -> Self {
        SchedulerSpec::OnOff {
            low_s: 10.0,
            high_s: 40.0,
        }
    }

    /// SALSA defaults used in the figure harness.
    pub fn salsa_default() -> Self {
        SchedulerSpec::Salsa {
            theta: 1.0,
            buffer_floor_s: 3.0,
            ewma_alpha: 0.2,
        }
    }

    /// EStreamer as the figure harness runs it: refill at 5 s, burst to
    /// 60 s (a playout-buffer-sized burst). The one place these two
    /// numbers are written.
    pub fn estreamer_default() -> Self {
        SchedulerSpec::EStreamer {
            refill_s: 5.0,
            target_s: 60.0,
        }
    }

    /// RTMA with the given energy budget and no fallback (paper-exact).
    pub fn rtma(phi_mj: f64) -> Self {
        SchedulerSpec::Rtma {
            phi_mj,
            best_effort: false,
        }
    }

    /// EMA with the literal Eq. (5) per-slot tail pricing.
    pub fn ema(v: f64) -> Self {
        SchedulerSpec::Ema {
            v,
            tail: TailPricing::PerSlot,
            pc_clamp: None,
        }
    }

    /// EMA with the amortized tail pricing the figure harness uses (see
    /// [`TailPricing`]).
    pub fn ema_amortized(v: f64) -> Self {
        SchedulerSpec::Ema {
            v,
            tail: TailPricing::amortized_default(),
            pc_clamp: None,
        }
    }

    // The benchmark harness still spells these two names; ROADMAP item 9
    // moves it to `ema` and deletes them.
    #[doc(hidden)]
    pub fn ema_dp(v: f64) -> Self {
        Self::ema(v)
    }

    #[doc(hidden)]
    pub fn ema_fast(v: f64) -> Self {
        Self::ema(v)
    }

    /// Proportional fair with the default EWMA factor.
    pub fn pf_default() -> Self {
        SchedulerSpec::ProportionalFair { ewma_alpha: 0.05 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_variant() {
        let models = CrossLayerModels::paper();
        let specs = [
            SchedulerSpec::Default,
            SchedulerSpec::rtma(900.0),
            SchedulerSpec::RtmaUnbounded,
            SchedulerSpec::ema(1.0),
            SchedulerSpec::throttling_default(),
            SchedulerSpec::onoff_default(),
            SchedulerSpec::salsa_default(),
            SchedulerSpec::estreamer_default(),
            SchedulerSpec::RoundRobin,
            SchedulerSpec::pf_default(),
        ];
        for spec in specs {
            assert_eq!(spec.validate(), Ok(()));
            let s = spec.build(1.0, &models);
            assert!(!s.name().is_empty());
            assert!(!spec.label().is_empty());
        }
    }

    /// Results, trace headers and the committed digests carry the
    /// scheduler name: every EMA constructor, the two hidden aliases
    /// included, builds the one policy named `"EMA"`.
    #[test]
    fn ema_variants_keep_their_names() {
        let models = CrossLayerModels::paper();
        let name = |spec: SchedulerSpec| spec.build(1.0, &models).name();
        assert_eq!(name(SchedulerSpec::ema(1.0)), "EMA");
        assert_eq!(name(SchedulerSpec::ema_amortized(1.0)), "EMA");
        assert_eq!(SchedulerSpec::ema_dp(1.0), SchedulerSpec::ema(1.0));
        assert_eq!(SchedulerSpec::ema_fast(1.0), SchedulerSpec::ema(1.0));
    }

    #[test]
    fn serde_roundtrip() {
        let spec = SchedulerSpec::rtma(850.5);
        let j = serde_json::to_string(&spec).expect("serializes");
        assert_eq!(
            serde_json::from_str::<SchedulerSpec>(&j).expect("parses"),
            spec
        );
        let spec2 = SchedulerSpec::salsa_default();
        let j2 = serde_json::to_string(&spec2).expect("serializes");
        assert_eq!(
            serde_json::from_str::<SchedulerSpec>(&j2).expect("parses"),
            spec2
        );
    }

    /// Configs written before the degradation knobs existed must keep
    /// deserializing, with fallback and clamping off (paper-exact).
    #[test]
    fn degradation_knobs_default_off() {
        let rtma: SchedulerSpec =
            serde_json::from_str(r#"{"kind":"rtma","phi_mj":900.0}"#).expect("parses");
        assert_eq!(rtma, SchedulerSpec::rtma(900.0));
        let ema: SchedulerSpec = serde_json::from_str(r#"{"kind":"ema","v":2.0}"#).expect("parses");
        assert_eq!(ema, SchedulerSpec::ema(2.0));
        let on: SchedulerSpec =
            serde_json::from_str(r#"{"kind":"rtma","phi_mj":900.0,"best_effort":true}"#)
                .expect("parses");
        assert_eq!(
            on,
            SchedulerSpec::Rtma {
                phi_mj: 900.0,
                best_effort: true,
            }
        );
        let _ = on.build(1.0, &CrossLayerModels::paper());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<String> = [
            SchedulerSpec::Default,
            SchedulerSpec::rtma(900.0),
            SchedulerSpec::RtmaUnbounded,
            SchedulerSpec::ema(1.0),
            SchedulerSpec::throttling_default(),
            SchedulerSpec::onoff_default(),
            SchedulerSpec::salsa_default(),
            SchedulerSpec::estreamer_default(),
            SchedulerSpec::RoundRobin,
            SchedulerSpec::pf_default(),
        ]
        .iter()
        .map(|s| s.label())
        .collect();
        assert_eq!(labels.len(), 10);
    }
}
