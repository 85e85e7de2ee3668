//! Autovectorization-pinned batch kernels over the [`SnapshotSoA`] columns.
//!
//! ROADMAP item 2's SIMD remainder: the sched dense passes that touch one
//! or two SoA columns per user — RTMA's need/cap clamp and the Eq. (12)
//! signal-threshold admission mask — get explicit batch entry points here,
//! in the same shape as the radio crate's `throughput_into` kernel.
//! Each batch function is a branch-light
//! tight loop over contiguous slices whose per-element core is a shared
//! `#[inline(always)]` function also called by the scalar path, so batch
//! and scalar are **bit-identical by construction** (pinned by the
//! `*_matches_scalar_bitwise` tests below, and end-to-end by the golden
//! traces).
//!
//! The kernels are written for auto-vectorization on stable Rust (no
//! `std::simd`): `u64::max`/`u64::min` lower to vector `pmax`/`pmin`, the
//! `ceiling == 0` select and the `>=` compare lower to vector compares +
//! blends, and every loop is a straight `zip` over equal-length slices
//! with the length equality asserted up front so bounds checks vanish.
//!
//! [`SnapshotSoA`]: jmso_gateway::SnapshotSoA

use crate::threshold::SignalThreshold;

/// Per-element core of [`tranche_clamp_into`]: the one-sweep RTMA grant
/// cap `min(max(need, 1), ceiling)`. Clamping by the static ceiling here
/// is exact because the sweep re-clamps by the *remaining* headroom
/// `(ceiling − alloc).min(budget) ≤ ceiling`, and `min` is idempotent
/// under a looser bound — so hoisting the clamp out of the sweep changes
/// no grant.
#[inline(always)]
pub fn tranche_at(need: u64, ceiling: u64) -> u64 {
    need.max(1).min(ceiling)
}

/// Batch need/cap clamp: `out[i] = min(max(need[i], 1), ceiling[i])`, the
/// per-sweep tranche size of RTMA Steps 8–12 precomputed for the whole
/// population in one vectorizable pass instead of twice per user per
/// sweep.
///
/// # Panics
/// If `need` and `ceiling` differ in length.
pub fn tranche_clamp_into(need: &[u64], ceiling: &[u64], out: &mut Vec<u64>) {
    assert_eq!(
        need.len(),
        ceiling.len(),
        "batch kernel slice length mismatch"
    );
    out.clear();
    out.extend(need.iter().zip(ceiling).map(|(&n, &c)| tranche_at(n, c)));
}

/// Per-element core of [`demand_mask_into`]: a user's outstanding per-slot
/// demand for the queue view — raw need masked to zero when the ceiling is
/// zero (fetch complete or link down), so exported queue values never leak
/// stale rate snapshots for finished users.
#[inline(always)]
pub fn demand_at(need: u64, ceiling: u64) -> f64 {
    if ceiling == 0 {
        0.0
    } else {
        need as f64
    }
}

/// Batch demand mask: `out[i] = demand_at(need[i], ceiling[i])` — the
/// `queue_values` column RTMA exports, built in one select-and-convert
/// pass over the two SoA-derived columns.
///
/// # Panics
/// If `need` and `ceiling` differ in length.
pub fn demand_mask_into(need: &[u64], ceiling: &[u64], out: &mut Vec<f64>) {
    assert_eq!(
        need.len(),
        ceiling.len(),
        "batch kernel slice length mismatch"
    );
    out.clear();
    out.extend(need.iter().zip(ceiling).map(|(&n, &c)| demand_at(n, c)));
}

/// Batch Eq. (12) admission mask: `out[i] = threshold.allows(signal[i])`
/// evaluated over the contiguous `signal_dbm` column. RTMA's tranche
/// sweep re-reads the admission verdict for every user on every sweep;
/// precomputing the mask turns those repeated float compares into `bool`
/// loads, and the dense compare pass itself vectorizes.
///
/// [`SignalThreshold::allows`] routes through the same [`admit_at`] core,
/// so mask entries equal the scalar verdicts bit-for-bit (including the
/// `NaN ⇒ deny` and `min_dbm = ±∞` edge cases of the raw `>=`).
pub fn admit_mask_into(signal_dbm: &[f64], threshold: SignalThreshold, out: &mut Vec<bool>) {
    out.clear();
    out.extend(signal_dbm.iter().map(|&s| admit_at(s, threshold.min_dbm)));
}

/// Per-element core of [`admit_mask_into`] and scalar
/// [`SignalThreshold::allows`]: the raw IEEE-754 `>=` (deny on NaN, admit
/// everything when `min_dbm = −∞`, nothing when `+∞`).
#[inline(always)]
pub fn admit_at(signal_dbm: f64, min_dbm: f64) -> bool {
    signal_dbm >= min_dbm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tranche_clamp_matches_scalar_bitwise() {
        // Exercise need = 0 (max(·,1) floor), ceiling = 0 (full mask),
        // need > ceiling (clamp binds), and large values.
        let need: Vec<u64> = (0..257).map(|i| (i * 7) % 23).collect();
        let ceiling: Vec<u64> = (0..257).map(|i| (i * 5) % 17).collect();
        let mut out = Vec::new();
        tranche_clamp_into(&need, &ceiling, &mut out);
        assert_eq!(out.len(), need.len());
        for i in 0..need.len() {
            assert_eq!(out[i], need[i].max(1).min(ceiling[i]), "row {i}");
            assert_eq!(out[i], tranche_at(need[i], ceiling[i]), "row {i}");
        }
    }

    #[test]
    fn tranche_clamp_never_exceeds_ceiling() {
        let need = vec![u64::MAX, 0, 9];
        let ceiling = vec![4, 0, 100];
        let mut out = Vec::new();
        tranche_clamp_into(&need, &ceiling, &mut out);
        assert_eq!(out, vec![4, 0, 9]);
    }

    #[test]
    fn demand_mask_matches_scalar_bitwise() {
        let need: Vec<u64> = (0..257).map(|i| i * 3).collect();
        let ceiling: Vec<u64> = (0..257).map(|i| i % 4).collect();
        let mut out = Vec::new();
        demand_mask_into(&need, &ceiling, &mut out);
        for i in 0..need.len() {
            let scalar = if ceiling[i] == 0 { 0.0 } else { need[i] as f64 };
            assert_eq!(out[i].to_bits(), scalar.to_bits(), "row {i}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn batch_rejects_length_mismatch() {
        let mut out = Vec::new();
        tranche_clamp_into(&[1, 2], &[3], &mut out);
    }

    #[test]
    fn admit_mask_matches_scalar_allows_bitwise() {
        use jmso_radio::Dbm;
        let sigs: Vec<f64> = (0..257)
            .map(|i| -130.0 + i as f64 * 0.37)
            .chain([f64::NAN, f64::NEG_INFINITY, f64::INFINITY])
            .collect();
        for min_dbm in [-80.0, f64::NEG_INFINITY, f64::INFINITY] {
            let t = SignalThreshold { min_dbm };
            let mut mask = Vec::new();
            admit_mask_into(&sigs, t, &mut mask);
            assert_eq!(mask.len(), sigs.len());
            for (i, &s) in sigs.iter().enumerate() {
                assert_eq!(mask[i], t.allows(Dbm(s)), "row {i} min {min_dbm}");
            }
        }
    }

    #[test]
    fn nan_signal_is_denied_even_by_allow_all() {
        let t = SignalThreshold::allow_all();
        let mut mask = Vec::new();
        admit_mask_into(&[f64::NAN], t, &mut mask);
        assert!(!mask[0], "NaN must never be admitted");
    }
}
