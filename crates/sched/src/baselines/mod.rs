//! The comparison policies of the paper's §VI.
//!
//! * [`DefaultMax`] — the paper's baseline: greedily give every user as
//!   much as the link and BS allow, in fixed user order.
//! * [`Throttling`] — server-side pacing at `κ·pᵢ` (Hoque et al. \[15\]):
//!   above the encoding rate, below bulk capacity, continuous radio.
//! * [`OnOff`] — the YouTube-style client buffer watermark protocol
//!   (Hoque et al. \[14\]): fill to a high watermark, stop reading until the
//!   low watermark.
//! * [`Salsa`] — the energy-delay tradeoff scheduler (Ra et al. \[17\]):
//!   defer until the channel beats an EWMA or queue pressure forces a
//!   send; tail-blind by design.
//! * [`EStreamer`] — burst-shaped delivery sized from the client buffer
//!   (Hoque et al. \[16\]); signal-blind by design.
//! * [`RoundRobin`] and [`ProportionalFair`] — two classical cellular
//!   schedulers *not* in the paper, included to separate what RTMA/EMA
//!   gain from fairness alone (RR) and channel-awareness alone (PF) from
//!   what they gain from the cross-layer video information.
//!
//! These are re-implementations from the descriptions in the paper (the
//! originals are closed-source); each reproduces precisely the deficiency
//! the paper attributes to it — see DESIGN.md §3.

mod default_max;
mod estreamer;
mod onoff;
mod proportional_fair;
mod round_robin;
mod salsa;
mod throttling;

pub use default_max::DefaultMax;
pub use estreamer::EStreamer;
pub use onoff::OnOff;
pub use proportional_fair::ProportionalFair;
pub use round_robin::RoundRobin;
pub use salsa::Salsa;
pub use throttling::Throttling;

/// A policy's per-user rows for a checkpoint, printed the way `Ema`
/// prints its queues.
fn export_rows<T: serde::Serialize>(rows: &[T]) -> Option<String> {
    serde_json::to_string(rows).ok()
}

/// Restore rows printed by [`export_rows`]. A policy sizes its rows on
/// its first slot, so a policy that has run refuses a checkpoint taken
/// over a different number of users; one that has not takes any.
fn import_rows<T: serde::Deserialize>(
    policy: &str,
    rows: &mut Vec<T>,
    state: &str,
) -> Result<(), String> {
    let restored: Vec<T> =
        serde_json::from_str(state).map_err(|e| format!("{policy} state: {e}"))?;
    if !rows.is_empty() && rows.len() != restored.len() {
        return Err(format!(
            "{policy} state has {} rows, the policy holds {}",
            restored.len(),
            rows.len()
        ));
    }
    *rows = restored;
    Ok(())
}

#[cfg(test)]
pub(crate) mod test_support {
    use jmso_gateway::{SlotContext, UserSnapshot};
    use jmso_radio::rrc::RrcState;
    use jmso_radio::Dbm;

    pub(crate) fn user(id: usize, sig: f64, rate: f64, link_cap: u64) -> UserSnapshot {
        UserSnapshot {
            id,
            signal: Dbm(sig),
            rate_kbps: rate,
            buffer_s: 0.0,
            remaining_kb: 1e9,
            active: true,
            link_cap_units: link_cap,
            idle_s: 0.0,
            rrc_state: RrcState::Dch,
        }
    }

    pub(crate) fn ctx<'a>(users: &'a [UserSnapshot], bs_cap: u64) -> SlotContext<'a> {
        SlotContext {
            slot: 0,
            tau: 1.0,
            delta_kb: 50.0,
            bs_cap_units: bs_cap,
            users,
            soa: None,
        }
    }
}
