//! Streaming-media substrate for the jmso simulator.
//!
//! Implements the client-side half of the paper's model:
//!
//! * [`video`] — video sessions: total size, CBR/VBR bitrate `pᵢ(n)`,
//!   download progress and playback progress `mᵢ`/`Mᵢ`.
//! * [`buffer`] — the playback buffer: remaining occupancy `rᵢ(n)` (Eq. (7))
//!   and per-slot rebuffering `cᵢ(n)` (Eq. (8)).
//! * [`workload`] — seeded generators for the paper's §VI workload
//!   distributions (video sizes 250–500 MB, rates 300–600 KB/s).
//! * [`metrics`] — QoE aggregation: rebuffering statistics, the Jain
//!   fairness index used in Figs. 2/6, and CDF utilities for the figure
//!   harness.
//! * [`abr`] — DASH-style adaptive bitrate: a ladder of encoded rates
//!   per session and per-chunk rung-selection policies (buffer-based
//!   and rate-prediction-based).

pub mod abr;
pub mod buffer;
pub mod metrics;
pub mod video;
pub mod workload;

pub use abr::{AbrClient, AbrInputs, AbrPolicy, AbrSpec, AbrSwitch, BitrateLadder};
pub use buffer::{ClientPlayback, SlotOutcome};
pub use metrics::{jain_index, Cdf, RebufferStats};
pub use video::{BitrateModel, RateList, VideoSession};
pub use workload::{generate_sessions, WorkloadSpec};
