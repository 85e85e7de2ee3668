//! The scheduler abstraction every allocation policy implements.
//!
//! A scheduler is called once per slot with a [`SlotContext`] — the
//! cross-layer snapshot assembled by the Information Collector — and must
//! return a per-user allocation in data units that respects the link bound
//! Eq. (1) (`alloc[i] ≤ users[i].link_cap_units`) and the BS bound Eq. (2)
//! (`Σ alloc[i] ≤ bs_cap_units`). The Data Transmitter re-checks both, so
//! a buggy policy cannot corrupt the simulation, but violations are
//! reported (and `debug_assert`ed) because they indicate a policy bug.

use jmso_radio::rrc::RrcState;
use jmso_radio::Dbm;
use serde::{Deserialize, Serialize};

/// Per-user cross-layer state visible to the gateway in one slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserSnapshot {
    /// Stable user index in `[0, N)`.
    pub id: usize,
    /// RSSI reported for this slot (`sigᵢ(n)`).
    pub signal: Dbm,
    /// Required data rate `pᵢ(n)` in KB/s.
    pub rate_kbps: f64,
    /// Client buffer occupancy `rᵢ(n)` in seconds, as known to the gateway.
    pub buffer_s: f64,
    /// KB still to be fetched for this user's video (0 ⇒ fetch complete).
    pub remaining_kb: f64,
    /// True while the user is still watching (`mᵢ(n) < Mᵢ`).
    pub active: bool,
    /// Eq. (1) bound for this slot, in units.
    pub link_cap_units: u64,
    /// Seconds since this user's radio last carried data.
    pub idle_s: f64,
    /// Current RRC state of the user's radio.
    pub rrc_state: RrcState,
}

impl UserSnapshot {
    /// Units this user could still usefully receive this slot: the link
    /// bound intersected with the bytes the session still needs.
    pub fn usable_cap_units(&self, delta_kb: f64) -> u64 {
        let need = (self.remaining_kb / delta_kb).ceil() as u64;
        self.link_cap_units.min(need)
    }
}

/// Everything a scheduler sees in one slot.
#[derive(Debug, Clone)]
pub struct SlotContext<'a> {
    /// Slot index `n`.
    pub slot: u64,
    /// Slot length τ in seconds.
    pub tau: f64,
    /// Frame length δ in KB.
    pub delta_kb: f64,
    /// Eq. (2) bound: `⌊τ·S(n)/δ⌋`.
    pub bs_cap_units: u64,
    /// Per-user snapshots, indexed by `UserSnapshot::id`.
    pub users: &'a [UserSnapshot],
    /// The rows that may hold demand, ascending; `None` means every row.
    /// A row off the list has nothing a policy may grant — not arrived,
    /// session over, or (in a multicell run) attached to another cell —
    /// so a sweep over the listed rows grants what a sweep over all of
    /// them would, at the cost of the sessions in the cell rather than
    /// the pool. The transmitter walks only the listed rows.
    ///
    /// The name is older than the field's meaning (it once held a
    /// column mirror of `users`) and stays because the benchmark
    /// harness (`benchmark/src/fixtures.rs`) builds this struct as a
    /// literal with `soa: None`.
    pub soa: Option<&'a [usize]>,
}

impl SlotContext<'_> {
    /// Playback seconds carried by `units` frames at rate `p` KB/s
    /// (`tᵢ(n) = δ·φᵢ/pᵢ`).
    #[inline]
    pub fn playback_seconds(&self, units: u64, rate_kbps: f64) -> f64 {
        self.delta_kb * units as f64 / rate_kbps
    }
}

/// A per-user allocation in data units (`φᵢ(n)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation(pub Vec<u64>);

impl Allocation {
    /// The all-zero allocation for `n` users.
    pub fn zeros(n: usize) -> Self {
        Self(vec![0; n])
    }

    /// Reuse this allocation for a new slot: `n` zeroed entries, keeping
    /// the existing heap buffer whenever it is already big enough.
    pub fn reset(&mut self, n: usize) {
        self.0.clear();
        self.0.resize(n, 0);
    }

    /// Total units allocated.
    pub fn total_units(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Check Eq. (1) and Eq. (2) against a context; returns a description
    /// of the first violation found, if any.
    pub fn validate(&self, ctx: &SlotContext) -> Result<(), String> {
        if self.0.len() != ctx.users.len() {
            return Err(format!(
                "allocation has {} entries for {} users",
                self.0.len(),
                ctx.users.len()
            ));
        }
        for (alloc, user) in self.0.iter().zip(ctx.users) {
            if *alloc > user.link_cap_units {
                return Err(format!(
                    "user {} allocated {} units over link cap {} (Eq. 1)",
                    user.id, alloc, user.link_cap_units
                ));
            }
        }
        if self.total_units() > ctx.bs_cap_units {
            return Err(format!(
                "total {} units over BS cap {} (Eq. 2)",
                self.total_units(),
                ctx.bs_cap_units
            ));
        }
        Ok(())
    }
}

/// The non-zero rows of a reused [`Allocation`], kept by a scheduler that
/// writes its grants sparsely — the [`DataTransmitter`]'s `granted` list,
/// one layer up.
///
/// A policy that sweeps only the rows that can hold demand must still
/// hand back a vector whose other rows are zero, and zeroing the vector
/// costs the pool (800 KB a slot at 100 000 users, for a few dozen
/// sessions). So the policy remembers the rows it granted to:
/// [`SparseGrants::begin`] zeroes exactly those at the next call — the
/// full clear only when the length changed — and [`SparseGrants::grant`]
/// writes a row and lists it. A zero grant is not listed (the row is
/// zero already), so the list is as long as the slot's grants, however
/// many rows the sweep visits. There is no fallback to the full clear
/// when the list covers most of the vector: with all 100 000 rows of one
/// granted every slot the list costs a push and an indexed store per
/// row where the memset cost 800 KB; `slot_work_scaling.rs` pins the rows
/// touched per slot, and `sim.phase.allocate_ns` times the call.
///
/// `out` must therefore be the buffer the policy's previous call filled,
/// untouched since — or all zeros, or of another length, which is
/// rebuilt. A debug assertion checks it.
///
/// [`DataTransmitter`]: crate::transmitter::DataTransmitter
#[derive(Debug, Clone, Default)]
pub struct SparseGrants {
    /// Rows granted to since the latest [`SparseGrants::begin`] — the
    /// only rows of the buffer that are not zero.
    rows: Vec<usize>,
    /// Rows the latest [`SparseGrants::begin`] zeroed.
    cleared: usize,
}

impl SparseGrants {
    /// Ready `out` for a slot of `n` users: every row zero.
    pub fn begin(&mut self, out: &mut Allocation, n: usize) {
        if out.0.len() == n {
            for &row in &self.rows {
                out.0[row] = 0;
            }
            self.cleared = self.rows.len();
        } else {
            out.reset(n);
            self.cleared = n;
        }
        self.rows.clear();
        debug_assert!(
            out.0.iter().all(|&units| units == 0),
            "`out` is not the buffer the previous call filled"
        );
    }

    /// Grant `units` to `row`.
    #[inline]
    pub fn grant(&mut self, out: &mut Allocation, row: usize, units: u64) {
        if units > 0 {
            out.0[row] = units;
            self.rows.push(row);
        }
    }

    /// Rows the latest [`SparseGrants::begin`] zeroed plus rows granted
    /// to since: what keeping the vector cost this slot, as a count.
    pub fn rows_touched(&self) -> usize {
        self.cleared + self.rows.len()
    }
}

/// A graceful-degradation decision a scheduler took because its nominal
/// policy was infeasible under the slot's (possibly faulted) conditions.
///
/// Events are diagnostic: the allocation pipeline never reads them, but
/// the engine forwards them to the telemetry recorder so traces show when
/// and why a policy departed from its paper-exact behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum DegradationEvent {
    /// RTMA's Eq. (12) threshold left demand unserved under a degraded
    /// cap, and the policy re-ran a best-effort sweep ignoring the
    /// threshold.
    RtmaBestEffort {
        /// Slot on which the fallback fired.
        slot: u64,
        /// Units the threshold-respecting sweep left unallocated.
        units_recovered: u64,
    },
    /// EMA clamped a virtual queue `PCᵢ(n)` that exceeded the configured
    /// saturation bound under prolonged outage.
    QueueClamped {
        /// Slot on which the clamp fired.
        slot: u64,
        /// User whose queue was clamped.
        user: usize,
        /// The unclamped queue value.
        pc_before: f64,
        /// The bound it was clamped to.
        pc_after: f64,
    },
}

/// A per-slot allocation policy (the paper's Scheduler component).
///
/// Policies implement [`Scheduler::allocate_into`], writing into a
/// caller-owned [`Allocation`] so the per-slot hot path (the engine in
/// `jmso-sim`) performs no heap allocation in steady state. The
/// allocating [`Scheduler::allocate`] convenience wrapper is provided for
/// tests and one-shot callers.
pub trait Scheduler: Send {
    /// Short policy name used in reports and figure legends.
    fn name(&self) -> &'static str;

    /// Decide `φᵢ(n)` for every user, writing into `out`.
    ///
    /// Implementations must bring `out` to `ctx.users.len()` zeroed
    /// entries themselves, by [`Allocation::reset`] or, writing sparsely,
    /// by [`SparseGrants::begin`]. `out` arrives as this policy's
    /// previous call left it, or all zeros, or of another length; a
    /// caller must not hand a policy a same-length buffer something else
    /// wrote.
    fn allocate_into(&mut self, ctx: &SlotContext, out: &mut Allocation);

    /// For a policy that keeps `out` by [`SparseGrants`], its
    /// [`SparseGrants::rows_touched`] after the latest
    /// [`Scheduler::allocate_into`] call; `None` for a policy that
    /// resets and walks the whole vector. A work count, not a timing:
    /// it repeats exactly from run to run.
    fn grant_rows_touched(&self) -> Option<usize> {
        None
    }

    /// Decide `φᵢ(n)` for every user (allocating convenience wrapper).
    fn allocate(&mut self, ctx: &SlotContext) -> Allocation {
        let mut out = Allocation::zeros(ctx.users.len());
        self.allocate_into(ctx, &mut out);
        out
    }

    /// Per-user internal queue/backlog values after the latest
    /// [`Scheduler::allocate_into`] call, for observability layers.
    ///
    /// Lyapunov policies expose their virtual rebuffering queues `PCᵢ(n+1)`
    /// here; RTMA exposes its per-user need estimate. Stateless policies
    /// keep the default `None`, and callers must treat the values as
    /// diagnostic only — nothing in the allocation pipeline reads them.
    fn queue_values(&self) -> Option<&[f64]> {
        None
    }

    /// Degradation events emitted by the latest
    /// [`Scheduler::allocate_into`] call (cleared at the start of each
    /// call). Policies without fallback behaviour keep the default empty
    /// slice.
    fn degradations(&self) -> &[DegradationEvent] {
        &[]
    }

    /// Switch the policy into its degraded (cheaper, best-effort)
    /// operating mode, if it has one — the live service's `Degrade`
    /// overrun response. Returns `true` when the policy supports
    /// degradation (engaging is idempotent; repeated calls keep
    /// returning `true`). The default is `false`: nothing changes and
    /// the caller knows the policy cannot shed load.
    ///
    /// Implementations must emit their usual [`DegradationEvent`]s when
    /// the engaged mode actually alters an allocation, so the switch is
    /// observable in telemetry.
    fn engage_degraded(&mut self) -> bool {
        false
    }

    /// Serialize the policy's mutable state (virtual queues, …) for a
    /// checkpoint. Stateless policies return `Some(String::new())`; a
    /// policy that cannot be checkpointed returns `None`.
    fn export_state(&self) -> Option<String> {
        Some(String::new())
    }

    /// Restore state captured by [`Scheduler::export_state`].
    fn import_state(&mut self, state: &str) -> Result<(), String> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "scheduler {} holds no state but checkpoint carries some",
                self.name()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn snap(id: usize, link_cap: u64) -> UserSnapshot {
        UserSnapshot {
            id,
            signal: Dbm(-80.0),
            rate_kbps: 450.0,
            buffer_s: 0.0,
            remaining_kb: 1e9,
            active: true,
            link_cap_units: link_cap,
            idle_s: 0.0,
            rrc_state: RrcState::Dch,
        }
    }

    #[test]
    fn validate_catches_link_violation() {
        let users = vec![snap(0, 5), snap(1, 5)];
        let ctx = SlotContext {
            slot: 0,
            tau: 1.0,
            delta_kb: 50.0,
            bs_cap_units: 100,
            users: &users,
            soa: None,
        };
        assert!(Allocation(vec![5, 5]).validate(&ctx).is_ok());
        let err = Allocation(vec![6, 0]).validate(&ctx).unwrap_err();
        assert!(err.contains("Eq. 1"), "{err}");
    }

    #[test]
    fn validate_catches_bs_violation() {
        let users = vec![snap(0, 50), snap(1, 50)];
        let ctx = SlotContext {
            slot: 0,
            tau: 1.0,
            delta_kb: 50.0,
            bs_cap_units: 60,
            users: &users,
            soa: None,
        };
        let err = Allocation(vec![40, 40]).validate(&ctx).unwrap_err();
        assert!(err.contains("Eq. 2"), "{err}");
    }

    #[test]
    fn validate_catches_length_mismatch() {
        let users = vec![snap(0, 5)];
        let ctx = SlotContext {
            slot: 0,
            tau: 1.0,
            delta_kb: 50.0,
            bs_cap_units: 10,
            users: &users,
            soa: None,
        };
        assert!(Allocation(vec![1, 2]).validate(&ctx).is_err());
    }

    #[test]
    fn usable_cap_respects_remaining_bytes() {
        let mut u = snap(0, 40);
        u.remaining_kb = 120.0;
        assert_eq!(u.usable_cap_units(50.0), 3); // ceil(120/50)=3 < 40
        u.remaining_kb = 1e9;
        assert_eq!(u.usable_cap_units(50.0), 40);
        u.remaining_kb = 0.0;
        assert_eq!(u.usable_cap_units(50.0), 0);
    }

    #[test]
    fn playback_seconds_helper() {
        let users: Vec<UserSnapshot> = vec![];
        let ctx = SlotContext {
            slot: 0,
            tau: 1.0,
            delta_kb: 50.0,
            bs_cap_units: 0,
            users: &users,
            soa: None,
        };
        // 9 units × 50 KB / 450 KB/s = 1 s.
        assert!((ctx.playback_seconds(9, 450.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn allocation_totals() {
        let a = Allocation(vec![1, 2, 3]);
        assert_eq!(a.total_units(), 6);
        assert_eq!(Allocation::zeros(4).total_units(), 0);
    }
}
