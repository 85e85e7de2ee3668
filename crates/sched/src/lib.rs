//! The paper's scheduling algorithms and comparison baselines.
//!
//! The primary contribution of the ICPP'15 paper lives here:
//!
//! * [`rtma`] — **RTMA** (Algorithm 1): minimize rebuffering subject to a
//!   per-slot energy bound, enforced through the Eq. (12) signal-strength
//!   threshold computed by [`threshold`].
//! * [`ema`] — **EMA** (Algorithm 2): minimize energy subject to a
//!   rebuffering bound, via the Lyapunov drift-plus-penalty machinery in
//!   [`lyapunov`] over the shared cost model in [`cost`]; it also keeps
//!   the paper's literal knapsack DP, which no policy calls, as the oracle.
//! * [`ema_fast`] — the exact marginal greedy EMA solves each slot with
//!   (the per-user cost is convex in φ, so marginal-cost greedy is
//!   optimal). Property-tested allocation-equal to the DP, and to a
//!   brute-force enumeration on tiny instances (`tests/oracle/`).
//! * [`baselines`] — the five §VI comparison policies: Default (greedy
//!   max), Throttling, ON-OFF, SALSA, and EStreamer.
//! * [`kernels`] — autovectorization-pinned batch kernels over RTMA's
//!   per-slot need/ceiling columns (the tranche clamp, the demand mask),
//!   each sharing its per-element core with the scalar path so batch ≡
//!   scalar bit-for-bit.
//! * [`spec`] — a serializable [`spec::SchedulerSpec`] naming any policy,
//!   the factory used by scenario configs.

pub mod baselines;
pub mod cost;
pub mod ema;
pub mod ema_fast;
pub mod error;
pub mod kernels;
pub mod lyapunov;
pub mod rtma;
pub mod spec;
pub mod threshold;

pub use baselines::{
    DefaultMax, EStreamer, OnOff, ProportionalFair, RoundRobin, Salsa, Throttling,
};
pub use cost::{CrossLayerModels, EmaCost, TailPricing};
pub use ema::Ema;
pub use error::StateImportError;
pub use lyapunov::{drift_bound_b, energy_upper_bound, rebuffer_upper_bound, VirtualQueues};
pub use rtma::Rtma;
pub use spec::SchedulerSpec;
pub use threshold::SignalThreshold;
