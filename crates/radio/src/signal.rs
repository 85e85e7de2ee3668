//! Per-user received-signal-strength (RSSI) processes.
//!
//! The paper drives each user's channel with a sinusoid spanning
//! `[-110, -50]` dBm plus white Gaussian noise, with a per-user phase shift
//! ([`SineSignal`]). We additionally provide a discretized Markov-chain
//! process ([`MarkovSignal`], in the spirit of the Markov channel models the
//! paper cites for related work), replay of recorded traces
//! ([`TraceSignal`]), and a constant channel ([`ConstantSignal`]) for tests.
//!
//! All models are deterministic for a fixed seed, which is what makes every
//! figure in the benchmark harness reproducible bit-for-bit.

use crate::types::Dbm;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::f64::consts::TAU;

/// The paper's signal floor (weakest signal considered).
pub const PAPER_SIG_MIN: Dbm = Dbm(-110.0);
/// The paper's signal ceiling (strongest signal considered).
pub const PAPER_SIG_MAX: Dbm = Dbm(-50.0);

/// A stochastic process producing one RSSI sample per slot.
///
/// Implementations must be deterministic given their construction
/// parameters (including any seed); `sample` is called exactly once per
/// slot, in slot order.
pub trait SignalModel: Send {
    /// RSSI for slot `slot`.
    fn sample(&mut self, slot: u64) -> Dbm;

    /// Fill `out` with the samples for slots
    /// `start_slot .. start_slot + out.len()`.
    ///
    /// Semantically identical to calling [`SignalModel::sample`] once per
    /// slot in order; implementations may override it to amortize
    /// per-call work across the block, but the produced sample stream
    /// (RNG draws included) must stay bit-for-bit the same.
    fn sample_into(&mut self, start_slot: u64, out: &mut [Dbm]) {
        for (k, o) in out.iter_mut().enumerate() {
            *o = self.sample(start_slot + k as u64);
        }
    }

    /// Advance the stream past `n` samples, leaving it exactly where `n`
    /// calls to [`SignalModel::sample`] would (RNG draws included), for a
    /// resume that replays a user's stream up to its checkpoint.
    /// Implementations may override it to draw without computing.
    fn skip(&mut self, n: u64) {
        for slot in 0..n {
            self.sample(slot);
        }
    }
}

/// Draw a standard normal via Box–Muller (rand_distr is not in the offline
/// crate set; two uniforms per call keeps the stream deterministic).
#[inline]
fn standard_normal(rng: &mut StdRng) -> f64 {
    // Avoid ln(0).
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
}

/// The paper's sinusoid-plus-noise RSSI process.
///
/// `sig(n) = mean + amplitude·sin(2πn/period + phase) + N(0, noise_std²)`,
/// clamped to `[clamp_min, clamp_max]`.
#[derive(Debug)]
pub struct SineSignal {
    mean: f64,
    amplitude: f64,
    period_slots: f64,
    phase: f64,
    noise_std: f64,
    clamp_min: Dbm,
    clamp_max: Dbm,
    rng: StdRng,
}

impl SineSignal {
    /// Fully parameterised constructor.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        mean: Dbm,
        amplitude: f64,
        period_slots: f64,
        phase: f64,
        noise_std: f64,
        clamp_min: Dbm,
        clamp_max: Dbm,
        seed: u64,
    ) -> Self {
        assert!(period_slots > 0.0, "sine period must be positive");
        assert!(noise_std >= 0.0, "noise std must be non-negative");
        Self {
            mean: mean.value(),
            amplitude,
            period_slots,
            phase,
            noise_std,
            clamp_min,
            clamp_max,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The paper's §VI configuration for user `user_idx` of `n_users`:
    /// sine spanning −110..−50 dBm (mean −80, amplitude 30), per-user phase
    /// shift spreading users uniformly around the cycle, Gaussian noise of
    /// `noise_std` dB, 600-slot period.
    pub fn paper_default(user_idx: usize, n_users: usize, noise_std: f64, seed: u64) -> Self {
        let n = n_users.max(1) as f64;
        let phase = TAU * (user_idx as f64) / n;
        Self::new(
            Dbm(-80.0),
            30.0,
            600.0,
            phase,
            noise_std,
            PAPER_SIG_MIN,
            PAPER_SIG_MAX,
            seed,
        )
    }
}

impl SignalModel for SineSignal {
    fn sample(&mut self, slot: u64) -> Dbm {
        let angle = TAU * (slot as f64) / self.period_slots + self.phase;
        let noise = if self.noise_std > 0.0 {
            self.noise_std * standard_normal(&mut self.rng)
        } else {
            0.0
        };
        Dbm(self.mean + self.amplitude * angle.sin() + noise).clamp(self.clamp_min, self.clamp_max)
    }

    fn sample_into(&mut self, start_slot: u64, out: &mut [Dbm]) {
        // The noise branch is hoisted out of the per-sample loop; the
        // angle must stay the literal `2πn/period + phase` per sample (no
        // incremental stepping) so the block path reproduces `sample`'s
        // values exactly.
        if self.noise_std > 0.0 {
            for (k, o) in out.iter_mut().enumerate() {
                let slot = start_slot + k as u64;
                let angle = TAU * (slot as f64) / self.period_slots + self.phase;
                let noise = self.noise_std * standard_normal(&mut self.rng);
                *o = Dbm(self.mean + self.amplitude * angle.sin() + noise)
                    .clamp(self.clamp_min, self.clamp_max);
            }
        } else {
            for (k, o) in out.iter_mut().enumerate() {
                let slot = start_slot + k as u64;
                let angle = TAU * (slot as f64) / self.period_slots + self.phase;
                *o = Dbm(self.mean + self.amplitude * angle.sin())
                    .clamp(self.clamp_min, self.clamp_max);
            }
        }
    }

    /// A sample's only state change is the noise's two uniform draws.
    fn skip(&mut self, n: u64) {
        if self.noise_std > 0.0 {
            for _ in 0..n {
                self.rng.random::<f64>();
                self.rng.random::<f64>();
            }
        }
    }
}

/// A birth–death Markov chain over equally spaced RSSI levels.
///
/// The chain has `levels` states spanning `[min, max]`; each slot it stays
/// with probability `1 - 2·move_prob` and steps up/down one level with
/// probability `move_prob` each (reflected at the edges).
#[derive(Debug)]
pub struct MarkovSignal {
    min: f64,
    step: f64,
    levels: usize,
    state: usize,
    move_prob: f64,
    rng: StdRng,
}

impl MarkovSignal {
    /// Build a chain over `levels` states in `[min, max]` starting from the
    /// middle state.
    pub fn new(min: Dbm, max: Dbm, levels: usize, move_prob: f64, seed: u64) -> Self {
        assert!(levels >= 2, "need at least two levels");
        assert!(max.value() > min.value(), "max must exceed min");
        assert!(
            (0.0..=0.5).contains(&move_prob),
            "move_prob must be in [0, 0.5]"
        );
        Self {
            min: min.value(),
            step: (max.value() - min.value()) / (levels - 1) as f64,
            levels,
            state: levels / 2,
            move_prob,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl SignalModel for MarkovSignal {
    fn sample(&mut self, _slot: u64) -> Dbm {
        let u: f64 = self.rng.random();
        if u < self.move_prob {
            self.state = self.state.saturating_sub(1);
        } else if u < 2.0 * self.move_prob && self.state + 1 < self.levels {
            self.state += 1;
        }
        Dbm(self.min + self.step * self.state as f64)
    }
}

/// Replays a recorded RSSI trace, cycling when it runs out of samples.
///
/// ```
/// use jmso_radio::signal::{SignalModel, TraceSignal};
///
/// let mut t = TraceSignal::new(vec![-60.0, -70.0, -80.0]);
/// assert_eq!(t.sample(1).value(), -70.0);
/// assert_eq!(t.sample(3).value(), -60.0); // wraps to the start
/// assert_eq!(t.sample(7).value(), -70.0); // 7 mod 3 == 1
/// assert_eq!(t.len(), 3);
/// assert!(!t.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct TraceSignal {
    samples: Vec<f64>,
}

impl TraceSignal {
    /// Wrap a non-empty trace of dBm samples.
    pub fn new(samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "trace must not be empty");
        Self { samples }
    }

    /// Number of samples before the trace repeats.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Always false — construction rejects empty traces — but derived
    /// from [`TraceSignal::len`] rather than restating that invariant.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SignalModel for TraceSignal {
    fn sample(&mut self, slot: u64) -> Dbm {
        Dbm(self.samples[(slot % self.samples.len() as u64) as usize])
    }

    /// A replay is a function of the slot alone: nothing to advance.
    fn skip(&mut self, _n: u64) {}
}

/// A constant channel, useful in unit tests and worked examples.
#[derive(Debug, Clone, Copy)]
pub struct ConstantSignal(pub Dbm);

impl SignalModel for ConstantSignal {
    fn sample(&mut self, _slot: u64) -> Dbm {
        self.0
    }

    fn sample_into(&mut self, _start_slot: u64, out: &mut [Dbm]) {
        out.fill(self.0);
    }

    fn skip(&mut self, _n: u64) {}
}

/// Enum dispatch over the built-in signal models — the simulation
/// engine's devirtualized sampling path.
///
/// The engine's per-slot sweep touches every live user's signal; through
/// a `Box<dyn SignalModel>` that is one virtual call (and one pointer
/// chase) per user per slot. `SignalKind` makes the dispatch a single
/// inlined `match` and, combined with [`SignalModel::sample_into`],
/// amortizes it over a whole block of slots. [`SignalSpec::build`] boxes
/// one for callers that want the virtual call.
pub enum SignalKind {
    /// The paper's sinusoid-plus-noise process.
    Sine(SineSignal),
    /// Birth–death Markov chain.
    Markov(MarkovSignal),
    /// Recorded-trace replay.
    Trace(TraceSignal),
    /// Constant channel.
    Constant(ConstantSignal),
}

impl SignalModel for SignalKind {
    #[inline]
    fn sample(&mut self, slot: u64) -> Dbm {
        match self {
            SignalKind::Sine(s) => s.sample(slot),
            SignalKind::Markov(m) => m.sample(slot),
            SignalKind::Trace(t) => t.sample(slot),
            SignalKind::Constant(c) => c.sample(slot),
        }
    }

    #[inline]
    fn sample_into(&mut self, start_slot: u64, out: &mut [Dbm]) {
        match self {
            SignalKind::Sine(s) => s.sample_into(start_slot, out),
            SignalKind::Markov(m) => m.sample_into(start_slot, out),
            SignalKind::Trace(t) => t.sample_into(start_slot, out),
            SignalKind::Constant(c) => c.sample_into(start_slot, out),
        }
    }

    fn skip(&mut self, n: u64) {
        match self {
            SignalKind::Sine(s) => s.skip(n),
            SignalKind::Markov(m) => m.skip(n),
            SignalKind::Trace(t) => t.skip(n),
            SignalKind::Constant(c) => c.skip(n),
        }
    }
}

impl std::fmt::Debug for SignalKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignalKind::Sine(s) => f.debug_tuple("Sine").field(s).finish(),
            SignalKind::Markov(m) => f.debug_tuple("Markov").field(m).finish(),
            SignalKind::Trace(t) => f.debug_tuple("Trace").field(t).finish(),
            SignalKind::Constant(c) => f.debug_tuple("Constant").field(c).finish(),
        }
    }
}

impl From<SineSignal> for SignalKind {
    fn from(s: SineSignal) -> Self {
        SignalKind::Sine(s)
    }
}

impl From<MarkovSignal> for SignalKind {
    fn from(m: MarkovSignal) -> Self {
        SignalKind::Markov(m)
    }
}

impl From<TraceSignal> for SignalKind {
    fn from(t: TraceSignal) -> Self {
        SignalKind::Trace(t)
    }
}

impl From<ConstantSignal> for SignalKind {
    fn from(c: ConstantSignal) -> Self {
        SignalKind::Constant(c)
    }
}

/// Serializable description of a signal model; the factory for per-user
/// [`SignalModel`] instances used by scenario configs.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum SignalSpec {
    /// The paper's sinusoid (+ Gaussian noise, per-user phase).
    Sine {
        /// Mean RSSI in dBm.
        mean_dbm: f64,
        /// Sine amplitude in dB.
        amplitude_db: f64,
        /// Period in slots.
        period_slots: f64,
        /// Gaussian noise standard deviation in dB.
        noise_std_db: f64,
    },
    /// Birth–death Markov chain.
    Markov {
        /// Weakest level in dBm.
        min_dbm: f64,
        /// Strongest level in dBm.
        max_dbm: f64,
        /// Number of levels.
        levels: usize,
        /// Per-slot probability of moving one level in each direction.
        move_prob: f64,
    },
    /// Constant channel.
    Constant {
        /// The RSSI in dBm.
        dbm: f64,
    },
    /// Recorded per-slot RSSI trace, replayed cyclically; user `i` starts
    /// `offset_per_user` samples into the trace so users are decorrelated.
    Trace {
        /// The samples in dBm.
        samples_dbm: Vec<f64>,
        /// Per-user phase offset into the trace, samples.
        offset_per_user: usize,
    },
}

impl SignalSpec {
    /// The paper's §VI setup with the noise level we calibrated (see
    /// DESIGN.md §3 on the "30 dBm noise" ambiguity).
    pub fn paper_default() -> Self {
        SignalSpec::Sine {
            mean_dbm: -80.0,
            amplitude_db: 30.0,
            period_slots: 600.0,
            noise_std_db: 8.0,
        }
    }

    /// Instantiate the model for one user as an enum-dispatched
    /// [`SignalKind`] (the engine's hot path). `user_idx`/`n_users` drive
    /// the per-user phase shift for the sine model; `seed` is mixed with
    /// the user index so users get independent noise streams.
    pub fn build_kind(&self, user_idx: usize, n_users: usize, seed: u64) -> SignalKind {
        let user_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(user_idx as u64);
        match *self {
            SignalSpec::Sine {
                mean_dbm,
                amplitude_db,
                period_slots,
                noise_std_db,
            } => {
                let n = n_users.max(1) as f64;
                let phase = TAU * (user_idx as f64) / n;
                SignalKind::Sine(SineSignal::new(
                    Dbm(mean_dbm),
                    amplitude_db,
                    period_slots,
                    phase,
                    noise_std_db,
                    PAPER_SIG_MIN,
                    PAPER_SIG_MAX,
                    user_seed,
                ))
            }
            SignalSpec::Markov {
                min_dbm,
                max_dbm,
                levels,
                move_prob,
            } => SignalKind::Markov(MarkovSignal::new(
                Dbm(min_dbm),
                Dbm(max_dbm),
                levels,
                move_prob,
                user_seed,
            )),
            SignalSpec::Constant { dbm } => SignalKind::Constant(ConstantSignal(Dbm(dbm))),
            SignalSpec::Trace {
                ref samples_dbm,
                offset_per_user,
            } => {
                let mut rotated = samples_dbm.clone();
                let n = rotated.len().max(1);
                rotated.rotate_left((user_idx * offset_per_user) % n);
                SignalKind::Trace(TraceSignal::new(rotated))
            }
        }
    }

    /// [`SignalSpec::build_kind`] behind a trait object, for callers that
    /// want dynamic dispatch. Produces the identical sample stream.
    pub fn build(&self, user_idx: usize, n_users: usize, seed: u64) -> Box<dyn SignalModel> {
        Box::new(self.build_kind(user_idx, n_users, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sine_stays_in_clamp_range() {
        let mut s = SineSignal::paper_default(0, 40, 8.0, 42);
        for n in 0..5_000 {
            let v = s.sample(n).value();
            assert!((-110.0..=-50.0).contains(&v), "out of range: {v}");
        }
    }

    #[test]
    fn sine_without_noise_is_exact() {
        let mut s = SineSignal::new(
            Dbm(-80.0),
            30.0,
            600.0,
            0.0,
            0.0,
            PAPER_SIG_MIN,
            PAPER_SIG_MAX,
            0,
        );
        // n = 150 is a quarter period: sin = 1 → −50 dBm.
        assert!((s.sample(150).value() - -50.0).abs() < 1e-9);
        // n = 450 is three quarters: sin = −1 → −110 dBm.
        assert!((s.sample(450).value() - -110.0).abs() < 1e-9);
        // n = 0 → mean.
        assert!((s.sample(0).value() - -80.0).abs() < 1e-9);
    }

    #[test]
    fn sine_is_deterministic_per_seed() {
        let run = |seed| {
            let mut s = SineSignal::paper_default(3, 40, 8.0, seed);
            (0..100).map(|n| s.sample(n).value()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn phase_shifts_differ_across_users() {
        let mut a = SineSignal::paper_default(0, 4, 0.0, 1);
        let mut b = SineSignal::paper_default(2, 4, 0.0, 1);
        // Half a cycle apart: opposite extremes at the quarter period.
        assert!((a.sample(150).value() - -50.0).abs() < 1e-9);
        assert!((b.sample(150).value() - -110.0).abs() < 1e-9);
    }

    #[test]
    fn markov_moves_only_one_level_per_slot() {
        let mut m = MarkovSignal::new(Dbm(-110.0), Dbm(-50.0), 13, 0.3, 11);
        let step = 60.0 / 12.0;
        let mut prev = m.sample(0).value();
        for n in 1..2_000 {
            let cur = m.sample(n).value();
            assert!((cur - prev).abs() <= step + 1e-9);
            assert!((-110.0..=-50.0).contains(&cur));
            prev = cur;
        }
    }

    #[test]
    fn markov_visits_multiple_levels() {
        let mut m = MarkovSignal::new(Dbm(-110.0), Dbm(-50.0), 7, 0.4, 3);
        let distinct: std::collections::BTreeSet<i64> =
            (0..2_000).map(|n| m.sample(n).value() as i64).collect();
        assert!(distinct.len() >= 4, "chain should mix: {distinct:?}");
    }

    #[test]
    fn trace_replays_and_wraps() {
        let mut t = TraceSignal::new(vec![-60.0, -70.0, -80.0]);
        assert_eq!(t.sample(0).value(), -60.0);
        assert_eq!(t.sample(1).value(), -70.0);
        assert_eq!(t.sample(2).value(), -80.0);
        assert_eq!(t.sample(3).value(), -60.0);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "trace must not be empty")]
    fn empty_trace_rejected() {
        TraceSignal::new(vec![]);
    }

    #[test]
    fn constant_is_constant() {
        let mut c = ConstantSignal(Dbm(-75.0));
        assert_eq!(c.sample(0), Dbm(-75.0));
        assert_eq!(c.sample(99), Dbm(-75.0));
    }

    #[test]
    fn spec_builds_all_variants() {
        for spec in [
            SignalSpec::paper_default(),
            SignalSpec::Markov {
                min_dbm: -110.0,
                max_dbm: -50.0,
                levels: 10,
                move_prob: 0.25,
            },
            SignalSpec::Constant { dbm: -65.0 },
        ] {
            let mut m = spec.build(0, 40, 99);
            let v = m.sample(0).value();
            assert!((-110.0..=-50.0).contains(&v));
        }
    }

    #[test]
    fn trace_spec_offsets_users() {
        let spec = SignalSpec::Trace {
            samples_dbm: vec![-60.0, -70.0, -80.0, -90.0],
            offset_per_user: 1,
        };
        let mut u0 = spec.build(0, 4, 0);
        let mut u2 = spec.build(2, 4, 0);
        assert_eq!(u0.sample(0).value(), -60.0);
        assert_eq!(u2.sample(0).value(), -80.0, "user 2 starts 2 samples in");
        assert_eq!(u2.sample(2).value(), -60.0, "wraps around");
        let j = serde_json::to_string(&spec).unwrap();
        assert_eq!(serde_json::from_str::<SignalSpec>(&j).unwrap(), spec);
    }

    type MakeKind = fn() -> SignalKind;

    /// One of each `SignalKind`, the sine with and without noise.
    const KINDS: [(&str, MakeKind); 5] = [
        ("sine+noise", || {
            SignalKind::Sine(SineSignal::paper_default(3, 40, 8.0, 42))
        }),
        ("sine noiseless", || {
            SignalKind::Sine(SineSignal::paper_default(1, 8, 0.0, 7))
        }),
        ("markov", || {
            SignalKind::Markov(MarkovSignal::new(Dbm(-110.0), Dbm(-50.0), 16, 0.3, 9))
        }),
        ("trace", || {
            SignalKind::Trace(TraceSignal::new(vec![-60.0, -75.0, -90.0]))
        }),
        ("constant", || {
            SignalKind::Constant(ConstantSignal(Dbm(-70.0)))
        }),
    ];

    /// `sample_into` must reproduce the per-slot `sample` stream exactly
    /// (RNG draws included) for every model, across arbitrary block cuts.
    #[test]
    fn block_sampling_matches_stream() {
        for (name, make) in KINDS {
            let mut by_slot = make();
            let reference: Vec<Dbm> = (0..96).map(|n| by_slot.sample(n)).collect();
            for block in [1usize, 7, 32, 96] {
                let mut blocked = make();
                let mut got = vec![Dbm(0.0); 96];
                for start in (0..96).step_by(block) {
                    let end = (start + block).min(96);
                    blocked.sample_into(start as u64, &mut got[start..end]);
                }
                assert_eq!(got, reference, "{name} diverges at block size {block}");
            }
        }
    }

    /// `skip(n)` leaves the stream where `n` samples would: the next
    /// block is bit for bit the one a sampled prefix leads to.
    #[test]
    fn skip_leaves_the_stream_where_sampling_would() {
        for (name, make) in KINDS {
            for n in [0u64, 1, 31, 32, 33, 1000] {
                let mut sampled = make();
                for slot in 0..n {
                    sampled.sample(slot);
                }
                let mut skipped = make();
                skipped.skip(n);
                let (mut want, mut got) = ([Dbm(0.0); 32], [Dbm(0.0); 32]);
                sampled.sample_into(n, &mut want);
                skipped.sample_into(n, &mut got);
                let bits = |b: &[Dbm; 32]| b.map(|d| d.value().to_bits());
                assert_eq!(bits(&got), bits(&want), "{name} after skip({n})");
            }
        }
    }

    #[test]
    fn build_kind_matches_build() {
        for spec in [
            SignalSpec::paper_default(),
            SignalSpec::Markov {
                min_dbm: -110.0,
                max_dbm: -50.0,
                levels: 10,
                move_prob: 0.25,
            },
            SignalSpec::Constant { dbm: -65.0 },
            SignalSpec::Trace {
                samples_dbm: vec![-60.0, -70.0, -80.0, -90.0],
                offset_per_user: 1,
            },
        ] {
            let mut boxed = spec.build(2, 5, 77);
            let mut kind = spec.build_kind(2, 5, 77);
            for n in 0..200 {
                assert_eq!(boxed.sample(n), kind.sample(n), "{spec:?} slot {n}");
            }
        }
    }

    #[test]
    fn spec_serde_roundtrip() {
        let spec = SignalSpec::paper_default();
        let json = serde_json::to_string(&spec).unwrap();
        let back: SignalSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
