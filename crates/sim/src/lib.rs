//! Simulation layer: the slotted multi-user engine the paper's §VI
//! evaluation runs on, plus scenario configuration, calibration, parallel
//! parameter sweeps and reporting.
//!
//! * [`engine`] — wires radio (signals, RRC, energy), media (sessions,
//!   playback buffers) and gateway (receiver, collector, scheduler,
//!   transmitter) into the per-slot loop of §III, stepped by a
//!   [`SlotDriver`].
//! * [`arrivals`] — open-system workload churn ([`ArrivalSpec`] →
//!   [`ChurnPlan`]): Poisson arrivals with diurnal rate curves and
//!   session-length truncation, compiled to per-user arrival/departure
//!   slots before the run.
//! * [`scenario`] — a serializable [`Scenario`] describing one experiment,
//!   and the one way into the slot: every run method validates, builds
//!   the engine and drives it; `Scenario::paper_default(n)` reproduces the
//!   paper's setup (10 000 slots of τ = 1 s, S = 20 MB/s, videos 250–500
//!   MB at 300–600 KB/s, sinusoidal RSSI, 3G RRC).
//! * [`results`] — per-user and aggregate outcome records with the
//!   normalizations the paper's figures use.
//! * [`calibrate`] — measures the Default strategy's energy/rebuffering
//!   (the `E_Default`/`R_Default` the α/β constraints are defined
//!   against) and fits EMA's `V` to a rebuffering bound Ω by bisection.
//! * [`sweep`] — deterministic parallel execution of scenario grids on
//!   scoped threads: one run per thread, runs side by side.
//! * [`report`] — CSV and table output for the figure harness.
//! * [`telemetry`] — slot-level recorders: a zero-overhead-when-disabled
//!   [`SlotRecorder`] hook in the engine loop, a capturing
//!   [`TraceRecorder`] with JSONL export, and the run summary merged
//!   into [`SimResult`].
//! * [`faults`] — timed fault injection ([`FaultSpec`] → [`FaultPlan`]):
//!   deep fades, link outages, capacity degradation, cell outages, and
//!   user churn; the engine carries the compiled plan (none for a
//!   fault-free scenario) on every run path.
//! * [`error`] — typed errors ([`ScenarioError`], [`TraceError`],
//!   [`CheckpointError`], umbrella [`SimError`]) replacing panics on
//!   input-handling and I/O paths.

pub mod arrivals;
pub mod calibrate;
pub mod chart;
pub mod engine;
pub mod error;
pub mod faults;
pub mod multicell;
mod pool;
pub mod report;
pub mod results;
pub mod scenario;
pub mod svg;
pub mod sweep;
pub mod telemetry;
mod waiting_room;

pub use arrivals::{ArrivalSpec, ChurnPlan, Diurnal, SessionLength, NEVER_DEPARTS};
pub use calibrate::{calibrate_default, fit_v_for_omega, fit_v_for_omega_with, Calibration};
pub use chart::ascii_chart;
pub use engine::{EngineCheckpoint, RunOutcome, SidecarPrinter, SlotDriver, SlotWork};
pub use error::{
    atomic_write, sync_parent_dir, CheckpointError, ScenarioError, SimError, TraceError,
};
pub use faults::{FaultEvent, FaultPlan, FaultSpec};
pub use multicell::{MultiCellResult, MultiCellScenario};
#[doc(hidden)]
pub use pool::{SpinBarrier, WorkerPool};
pub use results::{SimResult, SimWarning, UserResult};
pub use scenario::Scenario;
pub use svg::svg_chart;
pub use sweep::{parallel_map, run_scenarios, try_parallel_map};
pub use telemetry::{
    AbrSwitchRecord, AdmissionRecord, LatencyHistogram, NullRecorder, SlotRecord, SlotRecorder,
    SlotTrace, TelemetrySummary, TraceRecorder,
};

// Re-export the pieces callers need to assemble scenarios without extra deps.
pub use jmso_gateway::bs::CapacitySpec;
pub use jmso_gateway::{AdmissionDecision, AdmissionSpec, CollectorSpec, OriginModel};
pub use jmso_media::{AbrPolicy, AbrSpec, BitrateLadder, WorkloadSpec};
pub use jmso_radio::SignalSpec;
pub use jmso_sched::{CrossLayerModels, SchedulerSpec, TailPricing};
