//! Autovectorization-pinned batch kernels over RTMA's per-slot columns.
//!
//! RTMA builds two `u64` columns per slot from the snapshot rows — the
//! need `⌈τ·pᵢ/δ⌉` and the ceiling `usable_cap_units(δ)` — and the dense
//! passes over them get explicit batch entry points here, in the same
//! shape as the radio crate's `throughput_into` kernel: the need/cap
//! clamp that sizes a sweep's tranche and the demand mask behind
//! `queue_values`. Each batch function is a branch-light tight loop over
//! contiguous slices whose per-element core is a shared
//! `#[inline(always)]` function, so batch and scalar are **bit-identical
//! by construction** (pinned by the `*_matches_scalar_bitwise` tests
//! below, and end-to-end by the golden traces).
//!
//! The kernels are written for auto-vectorization on stable Rust (no
//! `std::simd`): `u64::max`/`u64::min` lower to vector `pmax`/`pmin`, the
//! `ceiling == 0` select lowers to a vector compare + blend, and every
//! loop is a straight `zip` over equal-length slices with the length
//! equality asserted up front so bounds checks vanish.

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
/// pass over the two columns.
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
}
