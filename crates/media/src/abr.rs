//! DASH-style adaptive bitrate (ABR): a ladder of encoded rates per
//! session and a per-chunk rung-selection policy.
//!
//! The paper holds each user's bitrate `pᵢ` constant; the related work
//! (rate-prediction-aware adaptive video, utility-optimal scheduling)
//! makes it a decision variable. Here a session's native CBR rate is the
//! top of a [`BitrateLadder`] of multiplicative rungs (e.g. `[0.5, 0.75,
//! 1.0]`), the video is fetched in fixed-duration chunks, and at every
//! chunk boundary an [`AbrPolicy`] picks the next chunk's rung from the
//! client's buffer level and a throughput prediction. Re-encoding a
//! chunk at rung `r` scales its bytes by `multiplier[r]` while its
//! playback duration stays fixed, so the invariant
//! `remaining_kb / current_rate == remaining_playback_seconds` holds
//! across switches (see [`AbrClient`]).
//!
//! **Bit-identity contract:** a single-rung ladder `[1.0]` never stages
//! a switch (both policies return the only rung) and prices every chunk
//! at the native rate (`1.0 * native` is exact in IEEE 754), so an
//! ABR-enabled run with that ladder is bit-identical to a constant-
//! bitrate run. The engine's property tests pin this on every run path.

use serde::{Deserialize, Serialize};

/// Ordered ladder of bitrate rungs, as multipliers on the session's
/// native rate. Rung 0 is the lowest quality; the last rung is the
/// highest (typically `1.0`, the native encoding).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct BitrateLadder {
    /// Strictly ascending, positive multipliers on the native rate.
    pub multipliers: Vec<f64>,
}

impl BitrateLadder {
    /// The degenerate single-rung ladder: native rate only. ABR runs
    /// with this ladder are bit-identical to constant-bitrate runs.
    pub fn single_rung() -> Self {
        Self {
            multipliers: vec![1.0],
        }
    }

    /// Number of rungs.
    pub fn len(&self) -> usize {
        self.multipliers.len()
    }

    /// True when the ladder has no rungs (invalid; see
    /// [`BitrateLadder::validate`]).
    pub fn is_empty(&self) -> bool {
        self.multipliers.is_empty()
    }

    /// The encoded rate of rung `rung` for a session with the given
    /// native rate, KB/s.
    pub fn rate_kbps(&self, rung: usize, native_kbps: f64) -> f64 {
        self.multipliers[rung] * native_kbps
    }

    /// Bytes of one `chunk_s`-second chunk at rung `rung`, KB.
    pub fn chunk_kb(&self, rung: usize, native_kbps: f64, chunk_s: f64) -> f64 {
        self.rate_kbps(rung, native_kbps) * chunk_s
    }

    /// Structural checks: at least one rung, every multiplier positive
    /// and finite, strictly ascending order.
    pub fn validate(&self) -> Result<(), String> {
        if self.multipliers.is_empty() {
            return Err("ladder needs at least one rung".to_string());
        }
        for (i, &m) in self.multipliers.iter().enumerate() {
            if !m.is_finite() || m <= 0.0 {
                return Err(format!(
                    "rung {i} multiplier {m} must be positive and finite"
                ));
            }
        }
        for w in self.multipliers.windows(2) {
            if w[1] <= w[0] {
                return Err(format!(
                    "rungs must be strictly ascending, got {} then {}",
                    w[0], w[1]
                ));
            }
        }
        Ok(())
    }
}

/// Inputs to a per-chunk rung decision, observed at the chunk boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbrInputs {
    /// Playback-buffer occupancy `rᵢ(n)` at the start of the slot, s.
    pub buffer_s: f64,
    /// Predicted deliverable throughput for the next chunk, KB/s. The
    /// engine derives it from the Eq. (1) link capacity of the current
    /// signal block, which the sinusoidal/Markov signal structure makes
    /// exact in expectation.
    pub predicted_kbps: f64,
}

/// Per-chunk rung-selection policy.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum AbrPolicy {
    /// Buffer-based (BBA-style): step one rung down when the buffer sits
    /// below `low_s`, one rung up above `high_s`, hold in between.
    BufferBased {
        /// Buffer level below which quality steps down, seconds.
        low_s: f64,
        /// Buffer level above which quality steps up, seconds.
        high_s: f64,
    },
    /// Rate-prediction-based: pick the highest rung whose encoded rate
    /// fits inside `safety × predicted_kbps` (rung 0 when none does).
    RateBased {
        /// Fraction of the predicted throughput to spend, in `(0, 1]`.
        safety: f64,
    },
}

impl Default for AbrPolicy {
    fn default() -> Self {
        AbrPolicy::BufferBased {
            low_s: 4.0,
            high_s: 12.0,
        }
    }
}

impl AbrPolicy {
    /// Choose the next chunk's rung. Deterministic in its arguments;
    /// the result is always a valid rung index.
    pub fn select(
        &self,
        ladder: &BitrateLadder,
        native_kbps: f64,
        cur: usize,
        inp: AbrInputs,
    ) -> usize {
        let top = ladder.len() - 1;
        match *self {
            AbrPolicy::BufferBased { low_s, high_s } => {
                if inp.buffer_s < low_s {
                    cur.saturating_sub(1)
                } else if inp.buffer_s > high_s {
                    (cur + 1).min(top)
                } else {
                    cur.min(top)
                }
            }
            AbrPolicy::RateBased { safety } => {
                let budget = safety * inp.predicted_kbps;
                let mut pick = 0;
                for (r, &m) in ladder.multipliers.iter().enumerate() {
                    if m * native_kbps <= budget {
                        pick = r;
                    }
                }
                pick
            }
        }
    }

    /// Parameter checks.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            AbrPolicy::BufferBased { low_s, high_s } => {
                if !low_s.is_finite() || low_s < 0.0 {
                    Err(format!("low_s {low_s} must be finite and non-negative"))
                } else if !high_s.is_finite() || high_s < low_s {
                    Err(format!("high_s {high_s} must be finite and ≥ low_s"))
                } else {
                    Ok(())
                }
            }
            AbrPolicy::RateBased { safety } => {
                if safety.is_finite() && safety > 0.0 && safety <= 1.0 {
                    Ok(())
                } else {
                    Err(format!("safety {safety} must lie in (0, 1]"))
                }
            }
        }
    }
}

/// Scenario-level ABR configuration: ladder, chunking, policy.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct AbrSpec {
    /// The bitrate ladder (multipliers on each session's native rate).
    pub ladder: BitrateLadder,
    /// Chunk duration in slots (each chunk carries this many slots of
    /// playback at the chosen rung).
    #[serde(default = "default_chunk_slots")]
    pub chunk_slots: u64,
    /// Per-chunk rung-selection policy.
    #[serde(default)]
    pub policy: AbrPolicy,
    /// Rung every session starts on (index into the ladder).
    #[serde(default = "default_initial_rung_top")]
    pub initial_rung: Option<usize>,
}

fn default_chunk_slots() -> u64 {
    4
}

fn default_initial_rung_top() -> Option<usize> {
    None
}

impl AbrSpec {
    /// The identity spec: single rung, bit-identical to no ABR at all.
    pub fn single_rung() -> Self {
        Self {
            ladder: BitrateLadder::single_rung(),
            chunk_slots: default_chunk_slots(),
            policy: AbrPolicy::default(),
            initial_rung: None,
        }
    }

    /// The rung sessions start on: `initial_rung` when given, else the
    /// top (native) rung.
    pub fn start_rung(&self) -> usize {
        self.initial_rung
            .unwrap_or_else(|| self.ladder.len().saturating_sub(1))
    }

    /// Structural and parameter checks.
    pub fn validate(&self) -> Result<(), String> {
        self.ladder.validate()?;
        self.policy.validate()?;
        if self.chunk_slots == 0 {
            return Err("chunk_slots must be positive".to_string());
        }
        if let Some(r) = self.initial_rung {
            if r >= self.ladder.len() {
                return Err(format!(
                    "initial_rung {r} out of range for a {}-rung ladder",
                    self.ladder.len()
                ));
            }
        }
        Ok(())
    }
}

/// A staged rung switch, applied at the end of the slot that completed
/// the chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbrSwitch {
    /// Rung left.
    pub from: usize,
    /// Rung entered.
    pub to: usize,
    /// `new_rate / old_rate`: the factor the session's unfetched bytes
    /// scale by (re-encoding the remaining chunks at the new rung).
    pub ratio: f64,
}

/// Per-user ABR client state: current rung, its encoded rate, and the
/// bytes left in the in-flight chunk.
///
/// The state machine is deliberately split in two:
/// [`AbrClient::on_delivery`] (called from per-user accounting) only
/// touches this user's state and *stages* a switch;
/// [`AbrClient::apply_pending`] (called in user order, once every user
/// is accounted) commits it, returning the [`AbrSwitch`] the caller uses
/// to rescale the session and record telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AbrClient {
    /// Current ladder rung.
    pub rung: usize,
    /// Encoded rate of the current rung, KB/s.
    pub rate_kbps: f64,
    /// Bytes left in the chunk being fetched, KB.
    pub chunk_rem_kb: f64,
    /// Rung switch staged at a chunk boundary, not yet applied.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub pending: Option<usize>,
}

impl AbrClient {
    /// A client starting its first chunk on `rung`.
    pub fn new(ladder: &BitrateLadder, rung: usize, native_kbps: f64, chunk_s: f64) -> Self {
        Self {
            rung,
            rate_kbps: ladder.rate_kbps(rung, native_kbps),
            chunk_rem_kb: ladder.chunk_kb(rung, native_kbps, chunk_s),
            pending: None,
        }
    }

    /// Account `kb` of delivered video against the in-flight chunk; at a
    /// chunk boundary (and while the session still has bytes to fetch)
    /// consult `policy` and stage the next chunk's rung. The fresh chunk
    /// is priced at the rung that will be in effect after
    /// [`AbrClient::apply_pending`].
    #[allow(clippy::too_many_arguments)]
    pub fn on_delivery(
        &mut self,
        kb: f64,
        session_done: bool,
        ladder: &BitrateLadder,
        policy: &AbrPolicy,
        native_kbps: f64,
        chunk_s: f64,
        inp: AbrInputs,
    ) {
        self.chunk_rem_kb -= kb;
        if self.chunk_rem_kb > 1e-9 || session_done {
            return;
        }
        let next = policy.select(ladder, native_kbps, self.rung, inp);
        if next != self.rung {
            self.pending = Some(next);
        }
        self.chunk_rem_kb = ladder.chunk_kb(next, native_kbps, chunk_s);
    }

    /// Commit a staged switch: update rung and rate, return the switch
    /// descriptor (None when nothing was staged).
    pub fn apply_pending(&mut self, ladder: &BitrateLadder, native_kbps: f64) -> Option<AbrSwitch> {
        let to = self.pending.take()?;
        let from = self.rung;
        let old_rate = self.rate_kbps;
        self.rung = to;
        self.rate_kbps = ladder.rate_kbps(to, native_kbps);
        Some(AbrSwitch {
            from,
            to,
            ratio: self.rate_kbps / old_rate,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder3() -> BitrateLadder {
        BitrateLadder {
            multipliers: vec![0.5, 0.75, 1.0],
        }
    }

    #[test]
    fn ladder_validation() {
        assert!(ladder3().validate().is_ok());
        assert!(BitrateLadder {
            multipliers: vec![]
        }
        .validate()
        .is_err());
        assert!(BitrateLadder {
            multipliers: vec![0.5, 0.5]
        }
        .validate()
        .is_err());
        assert!(BitrateLadder {
            multipliers: vec![1.0, 0.5]
        }
        .validate()
        .is_err());
        assert!(BitrateLadder {
            multipliers: vec![-1.0]
        }
        .validate()
        .is_err());
        assert!(BitrateLadder {
            multipliers: vec![f64::NAN]
        }
        .validate()
        .is_err());
    }

    #[test]
    fn single_rung_rate_is_exactly_native() {
        let ladder = BitrateLadder::single_rung();
        for native in [300.0f64, 417.3, 599.999] {
            assert_eq!(ladder.rate_kbps(0, native).to_bits(), native.to_bits());
        }
    }

    #[test]
    fn buffer_policy_steps_one_rung() {
        let l = ladder3();
        let p = AbrPolicy::BufferBased {
            low_s: 4.0,
            high_s: 12.0,
        };
        let at = |buffer_s, cur| {
            p.select(
                &l,
                400.0,
                cur,
                AbrInputs {
                    buffer_s,
                    predicted_kbps: 0.0,
                },
            )
        };
        assert_eq!(at(1.0, 2), 1, "starved: down");
        assert_eq!(at(1.0, 0), 0, "floor holds");
        assert_eq!(at(20.0, 0), 1, "surplus: up");
        assert_eq!(at(20.0, 2), 2, "ceiling holds");
        assert_eq!(at(8.0, 1), 1, "in band: hold");
    }

    #[test]
    fn rate_policy_picks_highest_fitting_rung() {
        let l = ladder3();
        let p = AbrPolicy::RateBased { safety: 0.9 };
        let at = |pred| {
            p.select(
                &l,
                400.0,
                0,
                AbrInputs {
                    buffer_s: 0.0,
                    predicted_kbps: pred,
                },
            )
        };
        // Rung rates: 200 / 300 / 400. Budget = 0.9 × pred.
        assert_eq!(at(500.0), 2);
        assert_eq!(at(350.0), 1);
        assert_eq!(at(100.0), 0, "nothing fits: lowest rung");
    }

    #[test]
    fn policy_validation() {
        assert!(AbrPolicy::default().validate().is_ok());
        assert!(AbrPolicy::BufferBased {
            low_s: 5.0,
            high_s: 2.0
        }
        .validate()
        .is_err());
        assert!(AbrPolicy::RateBased { safety: 0.0 }.validate().is_err());
        assert!(AbrPolicy::RateBased { safety: 1.5 }.validate().is_err());
    }

    #[test]
    fn spec_validation_and_start_rung() {
        let mut spec = AbrSpec {
            ladder: ladder3(),
            chunk_slots: 4,
            policy: AbrPolicy::default(),
            initial_rung: None,
        };
        assert!(spec.validate().is_ok());
        assert_eq!(spec.start_rung(), 2, "defaults to the native rung");
        spec.initial_rung = Some(0);
        assert_eq!(spec.start_rung(), 0);
        spec.initial_rung = Some(3);
        assert!(spec.validate().is_err());
        spec.initial_rung = None;
        spec.chunk_slots = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn client_stages_switch_at_chunk_boundary_only() {
        let l = ladder3();
        let p = AbrPolicy::BufferBased {
            low_s: 4.0,
            high_s: 12.0,
        };
        // Native 400 KB/s, 2 s chunks, starting on the top rung: the
        // first chunk is 800 KB.
        let mut c = AbrClient::new(&l, 2, 400.0, 2.0);
        assert_eq!(c.chunk_rem_kb, 800.0);
        let starving = AbrInputs {
            buffer_s: 0.0,
            predicted_kbps: 100.0,
        };
        c.on_delivery(500.0, false, &l, &p, 400.0, 2.0, starving);
        assert!(c.pending.is_none(), "mid-chunk: no decision");
        c.on_delivery(300.0, false, &l, &p, 400.0, 2.0, starving);
        assert_eq!(c.pending, Some(1), "boundary under starvation: down");
        // The fresh chunk is priced at the staged rung (0.75 × 400 × 2 s).
        assert_eq!(c.chunk_rem_kb, 600.0);
        let sw = c.apply_pending(&l, 400.0).unwrap();
        assert_eq!((sw.from, sw.to), (2, 1));
        assert!((sw.ratio - 0.75).abs() < 1e-12);
        assert_eq!(c.rate_kbps, 300.0);
        assert!(c.apply_pending(&l, 400.0).is_none(), "one-shot");
    }

    #[test]
    fn client_holds_rung_without_staging() {
        let l = ladder3();
        let p = AbrPolicy::BufferBased {
            low_s: 4.0,
            high_s: 12.0,
        };
        let mut c = AbrClient::new(&l, 1, 400.0, 1.0);
        let comfy = AbrInputs {
            buffer_s: 8.0,
            predicted_kbps: 1000.0,
        };
        c.on_delivery(300.0, false, &l, &p, 400.0, 1.0, comfy);
        assert!(c.pending.is_none(), "hold: nothing staged");
        assert_eq!(c.chunk_rem_kb, 300.0, "fresh chunk at the held rung");
    }

    #[test]
    fn finished_session_never_decides() {
        let l = ladder3();
        let p = AbrPolicy::default();
        let mut c = AbrClient::new(&l, 2, 400.0, 1.0);
        c.on_delivery(
            400.0,
            true,
            &l,
            &p,
            400.0,
            1.0,
            AbrInputs {
                buffer_s: 0.0,
                predicted_kbps: 0.0,
            },
        );
        assert!(c.pending.is_none());
    }

    #[test]
    fn single_rung_client_is_inert() {
        let l = BitrateLadder::single_rung();
        let p = AbrPolicy::default();
        let native = 437.25f64;
        let mut c = AbrClient::new(&l, 0, native, 4.0);
        assert_eq!(c.rate_kbps.to_bits(), native.to_bits());
        for _ in 0..50 {
            c.on_delivery(
                900.0,
                false,
                &l,
                &p,
                native,
                4.0,
                AbrInputs {
                    buffer_s: 0.0,
                    predicted_kbps: 1.0,
                },
            );
            assert!(c.pending.is_none(), "single rung never stages a switch");
            assert_eq!(c.rate_kbps.to_bits(), native.to_bits());
        }
    }

    #[test]
    fn serde_roundtrip() {
        let spec = AbrSpec {
            ladder: ladder3(),
            chunk_slots: 8,
            policy: AbrPolicy::RateBased { safety: 0.8 },
            initial_rung: Some(1),
        };
        let j = serde_json::to_string(&spec).unwrap();
        let back: AbrSpec = serde_json::from_str(&j).unwrap();
        assert_eq!(back, spec);
        // Defaults fill in for terse specs.
        let terse: AbrSpec =
            serde_json::from_str("{\"ladder\":{\"multipliers\":[0.5,1.0]}}").unwrap();
        assert_eq!(terse.chunk_slots, 4);
        assert_eq!(terse.start_rung(), 1);
    }
}
