//! Simulation outcome records and the normalizations the figures use.
//!
//! The paper reports energy and rebuffering under several normalizations
//! (per user-slot over the whole horizon in Eqs. (6)/(9); per active
//! user-slot on the figure axes; totals in Fig. 8). [`SimResult`] keeps
//! the raw totals and derives each view, so harness code never re-derives
//! them inconsistently.

use crate::telemetry::TelemetrySummary;
use jmso_radio::EnergyBreakdown;
use serde::{Deserialize, Serialize};

fn default_tau() -> f64 {
    1.0
}

/// Outcome for one user.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserResult {
    /// Total rebuffering `Σ cᵢ(n)`, seconds.
    pub rebuffer_s: f64,
    /// Slots with any stall.
    pub stall_slots: u64,
    /// Slots before first playback.
    pub startup_slots: u64,
    /// Seconds of media watched.
    pub watched_s: f64,
    /// Whether the whole video was watched before the horizon ended.
    pub playback_complete: bool,
    /// KB fetched through the gateway.
    pub fetched_kb: f64,
    /// Energy split (transmission vs tail).
    pub energy: EnergyBreakdown,
    /// Slots while the user was still watching (`Γᵢ`).
    pub active_slots: u64,
    /// Slots on which this user received data (`φᵢ(n) ≠ 0`).
    pub tx_slots: u64,
    /// Slots on which this user's radio idled (tail accounting).
    pub idle_slots: u64,
    /// The session's required mean rate, KB/s (diagnostics).
    pub rate_kbps: f64,
    /// The session's total volume, KB (diagnostics).
    pub video_kb: f64,
}

/// A non-fatal condition a run wants the caller to know about — a
/// requested start that was substituted. Typed (not a log line) so
/// harness code and tests can assert on it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum SimWarning {
    /// A resume-on-restart found its checkpoint sidecar unusable
    /// (missing component, corrupt bytes, version drift) and the run
    /// cold-started instead of resuming.
    CheckpointFallback {
        /// Why the checkpoint could not be restored.
        reason: String,
    },
}

impl std::fmt::Display for SimWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimWarning::CheckpointFallback { reason } => {
                write!(f, "checkpoint unusable, cold-started: {reason}")
            }
        }
    }
}

/// Outcome of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Label of the scheduler that produced this run.
    pub scheduler: String,
    /// Per-user outcomes.
    pub per_user: Vec<UserResult>,
    /// Slots actually simulated (may stop early once all sessions end).
    pub slots_run: u64,
    /// Slots configured (the paper's Γ).
    pub slots_configured: u64,
    /// Slot length τ in seconds (for converting slot counts to time).
    #[serde(default = "default_tau")]
    pub tau_s: f64,
    /// Per-slot Jain fairness index over actively-fetching users
    /// (present when series recording is on; drives Figs. 2/6).
    pub fairness_series: Vec<f64>,
    /// Jain fairness over 10-slot windows of accumulated deliveries.
    /// Separates genuine starvation from benign time-multiplexing: a
    /// scheduler that rotates bulk grants (EMA) scores low per slot but
    /// high per window, a scheduler that starves the same users every
    /// slot (Default) scores low on both.
    #[serde(default)]
    pub fairness_window_series: Vec<f64>,
    /// Per-slot total energy across users, joules (drives Fig. 7).
    pub power_series_j: Vec<f64>,
    /// Telemetry digest (present when the run was traced; `None` under
    /// the zero-overhead `NullRecorder`, so untraced results — and their
    /// equality comparisons — are unaffected).
    #[serde(default)]
    pub telemetry: Option<TelemetrySummary>,
    /// Non-fatal conditions raised during the run (empty in the common
    /// case, and skipped in serialization so pre-existing result JSON —
    /// and byte-level comparisons against it — are unaffected).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub warnings: Vec<SimWarning>,
}

impl SimResult {
    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.per_user.len()
    }

    /// Total rebuffering over all users, seconds.
    pub fn total_rebuffer_s(&self) -> f64 {
        self.per_user.iter().map(|u| u.rebuffer_s).sum()
    }

    /// The paper's `PC(Γ)` (Eq. (9)): average rebuffering per user per
    /// configured slot, seconds.
    pub fn pc_paper(&self) -> f64 {
        let n = self.n_users() as f64 * self.slots_configured as f64;
        if n == 0.0 {
            0.0
        } else {
            self.total_rebuffer_s() / n
        }
    }

    /// Average rebuffering per *active* user-slot, seconds — the
    /// normalization on the Fig. 4/5a/9b axes.
    pub fn avg_rebuffer_per_active_slot(&self) -> f64 {
        let active: u64 = self.per_user.iter().map(|u| u.active_slots).sum();
        if active == 0 {
            0.0
        } else {
            self.total_rebuffer_s() / active as f64
        }
    }

    /// Mean total rebuffering per user, seconds (Fig. 3's CDF support).
    pub fn mean_rebuffer_per_user_s(&self) -> f64 {
        if self.per_user.is_empty() {
            0.0
        } else {
            self.total_rebuffer_s() / self.per_user.len() as f64
        }
    }

    /// Total energy across users.
    pub fn total_energy(&self) -> EnergyBreakdown {
        self.per_user.iter().map(|u| u.energy).sum()
    }

    /// Total energy in kilojoules (Fig. 8's axis).
    pub fn total_energy_kj(&self) -> f64 {
        self.total_energy().total().kilojoules()
    }

    /// The paper's `PE(Γ)` (Eq. (6)): average energy per user per
    /// configured slot, mJ.
    pub fn pe_paper_mj(&self) -> f64 {
        let n = self.n_users() as f64 * self.slots_configured as f64;
        if n == 0.0 {
            0.0
        } else {
            self.total_energy().total().value() / n
        }
    }

    /// Average energy per *active* user-slot, mJ — the Fig. 5b/9a axis
    /// normalization and the `E_Default` used for Φ = α·E_Default.
    pub fn avg_energy_per_active_slot_mj(&self) -> f64 {
        let active: u64 = self.per_user.iter().map(|u| u.active_slots).sum();
        if active == 0 {
            0.0
        } else {
            self.total_energy().total().value() / active as f64
        }
    }

    /// Mean energy per *transmitting* user-slot, mJ. Under the Default
    /// strategy this is the per-slot full-rate cost `P(sig)·v(sig)·τ` the
    /// Eq. (12) budget `Φ = α·E_Default` is calibrated against (the only
    /// normalization that lands in Eq. (12)'s feasible band — see
    /// DESIGN.md §3).
    pub fn avg_energy_per_tx_slot_mj(&self) -> f64 {
        let tx: u64 = self.per_user.iter().map(|u| u.tx_slots).sum();
        if tx == 0 {
            0.0
        } else {
            self.total_energy().transmission.value() / tx as f64
        }
    }

    /// Tail share of total energy (the black bars of Fig. 5b).
    pub fn tail_fraction(&self) -> f64 {
        self.total_energy().tail_fraction()
    }

    /// Per-user total rebuffering samples (Fig. 3's CDF).
    pub fn rebuffer_samples(&self) -> Vec<f64> {
        self.per_user.iter().map(|u| u.rebuffer_s).collect()
    }

    /// Total startup delay across users, seconds (full stall slots before
    /// first playback × τ). Startup delay is a distinct QoE quantity from
    /// mid-stream rebuffering; Eq. (8) counts both, so
    /// `total_rebuffer_s − total_startup_s` isolates the mid-stream part.
    pub fn total_startup_s(&self) -> f64 {
        self.per_user.iter().map(|u| u.startup_slots).sum::<u64>() as f64 * self.tau_s
    }

    /// Mid-stream rebuffering (total rebuffering minus startup), seconds.
    pub fn total_midstream_rebuffer_s(&self) -> f64 {
        (self.total_rebuffer_s() - self.total_startup_s()).max(0.0)
    }

    /// Fraction of users who watched their whole video.
    pub fn completion_rate(&self) -> f64 {
        if self.per_user.is_empty() {
            return 0.0;
        }
        self.per_user.iter().filter(|u| u.playback_complete).count() as f64
            / self.per_user.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmso_radio::MilliJoules;

    fn user(rebuffer: f64, active: u64, trans: f64, tail: f64) -> UserResult {
        UserResult {
            rebuffer_s: rebuffer,
            stall_slots: 1,
            startup_slots: 1,
            watched_s: 100.0,
            playback_complete: true,
            fetched_kb: 1000.0,
            energy: EnergyBreakdown {
                transmission: MilliJoules(trans),
                tail: MilliJoules(tail),
            },
            active_slots: active,
            tx_slots: active / 2,
            idle_slots: active - active / 2,
            rate_kbps: 450.0,
            video_kb: 350_000.0,
        }
    }

    fn result() -> SimResult {
        SimResult {
            scheduler: "test".into(),
            per_user: vec![
                user(10.0, 100, 4000.0, 1000.0),
                user(30.0, 300, 8000.0, 2000.0),
            ],
            slots_run: 400,
            slots_configured: 1000,
            tau_s: 1.0,
            fairness_series: vec![],
            fairness_window_series: vec![],
            power_series_j: vec![],
            telemetry: None,
            warnings: vec![],
        }
    }

    #[test]
    fn normalizations() {
        let r = result();
        assert_eq!(r.n_users(), 2);
        assert!((r.total_rebuffer_s() - 40.0).abs() < 1e-12);
        // PC over Γ: 40 / (2·1000).
        assert!((r.pc_paper() - 0.02).abs() < 1e-12);
        // Per active slot: 40 / 400.
        assert!((r.avg_rebuffer_per_active_slot() - 0.1).abs() < 1e-12);
        assert!((r.mean_rebuffer_per_user_s() - 20.0).abs() < 1e-12);
        // Energy: total 15 000 mJ.
        assert!((r.total_energy().total().value() - 15_000.0).abs() < 1e-9);
        assert!((r.total_energy_kj() - 0.015).abs() < 1e-12);
        assert!((r.pe_paper_mj() - 7.5).abs() < 1e-12);
        assert!((r.avg_energy_per_active_slot_mj() - 37.5).abs() < 1e-12);
        // Transmission energy 12 000 mJ over 200 tx slots.
        assert!((r.avg_energy_per_tx_slot_mj() - 60.0).abs() < 1e-12);
        assert!((r.tail_fraction() - 0.2).abs() < 1e-12);
        assert_eq!(r.completion_rate(), 1.0);
        assert_eq!(r.rebuffer_samples(), vec![10.0, 30.0]);
        // Startup split: 1 startup slot per user × τ = 2 s total.
        assert!((r.total_startup_s() - 2.0).abs() < 1e-12);
        assert!((r.total_midstream_rebuffer_s() - 38.0).abs() < 1e-12);
    }

    #[test]
    fn empty_result_is_zero() {
        let r = SimResult {
            scheduler: "empty".into(),
            per_user: vec![],
            slots_run: 0,
            slots_configured: 0,
            tau_s: 1.0,
            fairness_series: vec![],
            fairness_window_series: vec![],
            power_series_j: vec![],
            telemetry: None,
            warnings: vec![],
        };
        assert_eq!(r.pc_paper(), 0.0);
        assert_eq!(r.pe_paper_mj(), 0.0);
        assert_eq!(r.avg_rebuffer_per_active_slot(), 0.0);
        assert_eq!(r.completion_rate(), 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let r = result();
        let j = serde_json::to_string(&r).unwrap();
        assert_eq!(serde_json::from_str::<SimResult>(&j).unwrap(), r);
    }
}
