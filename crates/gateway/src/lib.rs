//! Gateway framework — the paper's Fig. 1 deployed at the PDN gateway.
//!
//! Four components cooperate each slot:
//!
//! 1. the [`receiver::DataReceiver`] buffers downlink bytes per video flow
//!    (resource slicing separates video from background traffic);
//! 2. the [`collector::InformationCollector`] snapshots per-user cross-layer
//!    state (RSSI, required data rate, buffer occupancy, RRC idle time);
//! 3. a [`scheduler::Scheduler`] decides the per-user data-unit allocation
//!    `φᵢ(n)` under the link constraint Eq. (1) and BS constraint Eq. (2);
//! 4. the [`transmitter::DataTransmitter`] enforces those constraints and
//!    moves bytes from the receiver queues to the clients.
//!
//! [`shard`] holds the `δ`-sized data-unit arithmetic of Definitions 1–3 and
//! [`bs`] the serving-capacity model `S(n)`.

pub mod admission;
pub mod bs;
pub mod collector;
pub mod dpi;
pub mod protocol;
pub mod receiver;
pub mod scheduler;
pub mod shard;
pub mod transmitter;

pub use admission::{
    AdmissionContext, AdmissionController, AdmissionDecision, AdmissionSpec, AdmissionState,
    AdmissionSummary,
};
pub use bs::{CapacityModel, ConstantCapacity, DiurnalCapacity, OutageCapacity, TraceCapacity};
pub use collector::{CollectorSpec, CollectorState, InformationCollector};
pub use dpi::{format_segment_request, DpiClassifier, DpiError, FlowInfo};
pub use protocol::{
    declared_rate_from_request, parse_command, FeedReader, GwCommand, GwEvent, GwStatus, LiveEvent,
    ProtocolError, SvcState, MAX_LINE_BYTES,
};
pub use receiver::{DataReceiver, FlowClass, FlowState, OriginModel};
pub use scheduler::{
    Allocation, DegradationEvent, Scheduler, SlotContext, SparseGrants, UserSnapshot,
};
pub use shard::UnitParams;
pub use transmitter::{DataTransmitter, Delivery};
