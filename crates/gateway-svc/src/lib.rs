//! `jmso-gateway-svc` — the live gateway service (`jmso-gateway`
//! binary): a resilient long-lived front-end over the simulator core.
//!
//! Four layers (DESIGN.md §13):
//!
//! 1. **Ingestion** ([`net`], [`bus`]) — flow/session events as
//!    line-delimited JSON on a Unix/TCP socket, with per-connection
//!    read timeouts, a bounded command queue, and typed protocol errors
//!    that reject a malformed line without killing the session.
//! 2. **Deadline-aware slot loop** ([`service`], [`policy`]) — a
//!    real/accelerated-time driver over [`jmso_sim::SlotDriver`] that
//!    measures per-slot wall-clock budget and applies a configurable
//!    [`policy::LivePolicy`] on overrun instead of silently falling
//!    behind.
//! 3. **Telemetry fan-out with backpressure** ([`fanout`]) — JSONL
//!    slot records, in batches of up to 64 KiB, and service events to
//!    any number of subscribers as shared messages over byte-bounded
//!    channels; a slow consumer is dropped (counted, announced), never
//!    waited on.
//! 4. **Supervision and crash recovery** ([`supervisor`]) — periodic
//!    crash-safe checkpoints (an `atomic_write`n state sidecar plus an
//!    append-only spool of the trace lines, each record serialised
//!    once), automatic resume-on-restart with a cold-start fallback on
//!    an unusable pair, and a panic supervisor with bounded exponential
//!    backoff.
//!
//! Under [`policy::LivePolicy::Stall`] with a scripted feed, the trace
//! this service writes is byte-identical to the equivalent batch run —
//! the batch loop and the live loop step the same driver.

#![deny(missing_docs)]

pub mod bus;
pub mod fanout;
pub mod net;
pub mod policy;
pub mod service;
mod spool;
pub mod supervisor;

pub use bus::{Command, CommandBus};
pub use fanout::{FanOut, Subscription};
pub use net::{handle_connection, spawn_listener, ListenSpec};
pub use policy::LivePolicy;
pub use service::{LiveService, Outcome, ServeConfig};
pub use supervisor::{supervise, SupervisedEnd, SupervisorConfig};
