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
        /// Solve each slot with the paper's literal O(P · C · φ_max)
        /// table DP instead of the greedy. Differential-testing route;
        /// identical allocations, orders of magnitude slower.
        #[serde(default)]
        reference_dp: bool,
        /// Saturate virtual queues `PCᵢ(n)` at this bound, seconds
        /// (graceful degradation under prolonged outage). `None` keeps
        /// the paper-exact unbounded queues.
        #[serde(default)]
        pc_clamp: Option<f64>,
    },
    /// The same policy and solver as [`SchedulerSpec::Ema`], reported as
    /// `"EMA-fast"` (kept so existing configs, results and traces that
    /// name it stay valid).
    EmaFast {
        /// Lyapunov weight V.
        v: f64,
        /// How idle slots are priced (defaults to the literal Eq. (5)).
        #[serde(default)]
        tail: TailPricing,
        /// Saturate virtual queues `PCᵢ(n)` at this bound, seconds.
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
            SchedulerSpec::Ema {
                v,
                tail,
                reference_dp,
                pc_clamp,
            } => Box::new(
                Ema::new(v, *models)
                    .with_tail_pricing(tail)
                    .with_reference_solver(reference_dp)
                    .with_pc_clamp(pc_clamp),
            ),
            SchedulerSpec::EmaFast { v, tail, pc_clamp } => {
                let mut ema = Ema::new(v, *models)
                    .with_tail_pricing(tail)
                    .with_pc_clamp(pc_clamp);
                ema.name = "EMA-fast";
                Box::new(ema)
            }
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

    /// Short label for figure legends and CSV columns.
    pub fn label(&self) -> String {
        match self {
            SchedulerSpec::Default => "Default".into(),
            SchedulerSpec::Rtma { phi_mj, .. } => format!("RTMA(Φ={phi_mj:.0}mJ)"),
            SchedulerSpec::RtmaUnbounded => "RTMA(∞)".into(),
            SchedulerSpec::Ema { v, .. } => format!("EMA(V={v})"),
            SchedulerSpec::EmaFast { v, .. } => format!("EMA-fast(V={v})"),
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

    /// EMA-fast with the literal Eq. (5) per-slot tail pricing.
    pub fn ema_fast(v: f64) -> Self {
        SchedulerSpec::EmaFast {
            v,
            tail: TailPricing::PerSlot,
            pc_clamp: None,
        }
    }

    /// EMA-fast with the amortized tail pricing the figure harness uses
    /// (see [`TailPricing`]).
    pub fn ema_fast_amortized(v: f64) -> Self {
        SchedulerSpec::EmaFast {
            v,
            tail: TailPricing::amortized_default(),
            pc_clamp: None,
        }
    }

    /// EMA with the literal Eq. (5) per-slot tail pricing.
    pub fn ema_dp(v: f64) -> Self {
        SchedulerSpec::Ema {
            v,
            tail: TailPricing::PerSlot,
            reference_dp: false,
            pc_clamp: None,
        }
    }

    /// [`SchedulerSpec::ema_dp`] solved by the literal Algorithm 2 table
    /// (differential tests only).
    pub fn ema_dp_reference(v: f64) -> Self {
        SchedulerSpec::Ema {
            v,
            tail: TailPricing::PerSlot,
            reference_dp: true,
            pc_clamp: None,
        }
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
            SchedulerSpec::ema_dp(1.0),
            SchedulerSpec::ema_fast(1.0),
            SchedulerSpec::throttling_default(),
            SchedulerSpec::onoff_default(),
            SchedulerSpec::salsa_default(),
            SchedulerSpec::estreamer_default(),
            SchedulerSpec::RoundRobin,
            SchedulerSpec::pf_default(),
        ];
        for spec in specs {
            let s = spec.build(1.0, &models);
            assert!(!s.name().is_empty());
            assert!(!spec.label().is_empty());
        }
    }

    /// Results, trace headers and the committed digests carry the
    /// scheduler name, so each EMA variant keeps its own.
    #[test]
    fn ema_variants_keep_their_names() {
        let models = CrossLayerModels::paper();
        let name = |spec: SchedulerSpec| spec.build(1.0, &models).name();
        assert_eq!(name(SchedulerSpec::ema_dp(1.0)), "EMA");
        assert_eq!(name(SchedulerSpec::ema_dp_reference(1.0)), "EMA");
        assert_eq!(name(SchedulerSpec::ema_fast(1.0)), "EMA-fast");
        assert_eq!(name(SchedulerSpec::ema_fast_amortized(1.0)), "EMA-fast");
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

    /// Configs written before the `reference_dp` knob existed must keep
    /// deserializing, defaulting to the production solver.
    #[test]
    fn ema_reference_dp_defaults_off() {
        let spec: SchedulerSpec =
            serde_json::from_str(r#"{"kind":"ema","v":1.0}"#).expect("parses");
        assert_eq!(spec, SchedulerSpec::ema_dp(1.0));
        let explicit: SchedulerSpec =
            serde_json::from_str(r#"{"kind":"ema","v":1.0,"reference_dp":true}"#).expect("parses");
        assert_eq!(explicit, SchedulerSpec::ema_dp_reference(1.0));
        assert_eq!(explicit.label(), "EMA(V=1)");
        let _ = explicit.build(1.0, &CrossLayerModels::paper());
    }

    /// Configs written before the degradation knobs existed must keep
    /// deserializing, with fallback and clamping off (paper-exact).
    #[test]
    fn degradation_knobs_default_off() {
        let rtma: SchedulerSpec =
            serde_json::from_str(r#"{"kind":"rtma","phi_mj":900.0}"#).expect("parses");
        assert_eq!(rtma, SchedulerSpec::rtma(900.0));
        let fast: SchedulerSpec =
            serde_json::from_str(r#"{"kind":"ema_fast","v":2.0}"#).expect("parses");
        assert_eq!(fast, SchedulerSpec::ema_fast(2.0));
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
            SchedulerSpec::ema_dp(1.0),
            SchedulerSpec::ema_fast(1.0),
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
        assert_eq!(labels.len(), 11);
    }
}
