//! The admission tick's waiting room: the users whose arrival is due and
//! not yet ruled in for good, indexed by their rate.
//!
//! Each tick rules on every waiting user in ascending user order, and
//! within one tick the verdict on a user depends only on their rate and
//! on the admits ruled before them — monotonically: a lower rate is
//! admitted whenever a higher one is (`engine.rs`, `admission_tick`).
//! So the tick never visits the users it refuses. It asks the room for
//! the leftmost user whose rate passes, admits them, and asks again
//! from the next user on; everyone it skipped was refused.
//!
//! The index is two levels: one `u64` membership mask per 64-user
//! block, and a min-tree over the blocks' lowest waiting rates. A search
//! tests the verdict on O(log n) rates: the tree's nodes on the way to
//! the leftmost block whose lowest rate passes, then — inside the block
//! — a binary search over its (at most 64) rates, sorted.

/// Users per membership word.
const BLOCK: usize = 64;

/// Membership masks per 64-user block and a min-rate tree over them.
pub(crate) struct WaitingRoom {
    /// Bit `j % 64` of word `j / 64` is set while user `j` waits.
    masks: Vec<u64>,
    /// Node 1 is the root and node `k` has children `2k`, `2k + 1`; leaf
    /// `leaves + b` holds block `b`'s lowest waiting rate, and every
    /// node the lowest of its leaves (`+∞` over no waiting user).
    tree: Vec<f64>,
    leaves: usize,
    len: usize,
}

/// A verdict on a rate that is monotone — if `r` passes, every rate
/// below `r` does — and remembers what it has seen: the highest rate
/// that passed and the lowest that failed bound every later answer
/// they decide, so only a rate strictly between them is evaluated.
/// `+∞` (an empty node) fails without an evaluation.
pub(crate) struct MonotoneVerdict<F> {
    eval: F,
    passes_up_to: f64,
    fails_from: f64,
    /// Calls of `eval` so far.
    pub(crate) evaluations: usize,
}

impl<F: FnMut(f64) -> bool> MonotoneVerdict<F> {
    pub(crate) fn new(eval: F) -> Self {
        Self {
            eval,
            passes_up_to: f64::NEG_INFINITY,
            fails_from: f64::INFINITY,
            evaluations: 0,
        }
    }

    fn passes(&mut self, rate: f64) -> bool {
        if rate <= self.passes_up_to {
            return true;
        }
        if rate >= self.fails_from {
            return false;
        }
        self.evaluations += 1;
        let pass = (self.eval)(rate);
        if pass {
            self.passes_up_to = rate;
        } else {
            self.fails_from = rate;
        }
        pass
    }
}

impl WaitingRoom {
    /// An empty room over users `0..n_users`.
    pub(crate) fn new(n_users: usize) -> Self {
        let blocks = n_users.div_ceil(BLOCK).max(1);
        let leaves = blocks.next_power_of_two();
        Self {
            masks: vec![0; blocks],
            tree: vec![f64::INFINITY; 2 * leaves],
            leaves,
            len: 0,
        }
    }

    /// Users waiting.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn contains(&self, user: usize) -> bool {
        self.masks[user / BLOCK] & (1 << (user % BLOCK)) != 0
    }

    /// `user`, at `rate`, starts waiting. O(log n).
    pub(crate) fn insert(&mut self, user: usize, rate: f64) {
        debug_assert!(!self.contains(user), "user {user} already waits");
        self.masks[user / BLOCK] |= 1 << (user % BLOCK);
        self.len += 1;
        let mut k = self.leaves + user / BLOCK;
        while k >= 1 && rate < self.tree[k] {
            self.tree[k] = rate;
            k /= 2;
        }
    }

    /// `user` stops waiting; `rates` is the rate column the room was
    /// filled from. O(log n + 64).
    pub(crate) fn remove(&mut self, user: usize, rates: &[f64]) {
        debug_assert!(self.contains(user), "user {user} does not wait");
        let b = user / BLOCK;
        self.masks[b] &= !(1 << (user % BLOCK));
        self.len -= 1;
        let mut k = self.leaves + b;
        if rates[user] > self.tree[k] {
            // Not the block's lowest: nothing above the mask changes.
            return;
        }
        let low = block_min(b, self.masks[b], rates);
        if self.tree[k] == low {
            return;
        }
        self.tree[k] = low;
        while k > 1 {
            k /= 2;
            let low = self.tree[2 * k].min(self.tree[2 * k + 1]);
            if self.tree[k] == low {
                break;
            }
            self.tree[k] = low;
        }
    }

    /// The waiting users, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (self.masks.iter().enumerate())
            .flat_map(|(b, &mask)| bits(mask).map(move |t| b * BLOCK + t))
    }

    /// The lowest-indexed waiting user at or after `from` whose rate
    /// passes `verdict`, which must be monotone in the rate.
    pub(crate) fn leftmost<F: FnMut(f64) -> bool>(
        &self,
        from: usize,
        rates: &[f64],
        verdict: &mut MonotoneVerdict<F>,
    ) -> Option<usize> {
        // Nobody passes unless the lowest waiting rate does: the common
        // tick, one evaluation.
        if !verdict.passes(self.tree[1]) {
            return None;
        }
        let b0 = from / BLOCK;
        let head = self.masks.get(b0)? & (u64::MAX << (from % BLOCK));
        if let Some(user) = self.leftmost_in_block(b0, head, rates, verdict) {
            return Some(user);
        }
        let b = self.leftmost_block(b0 + 1, verdict)?;
        self.leftmost_in_block(b, self.masks[b], rates, verdict)
    }

    /// The leftmost block at or after `lo` whose lowest rate passes.
    fn leftmost_block<F: FnMut(f64) -> bool>(
        &self,
        lo: usize,
        verdict: &mut MonotoneVerdict<F>,
    ) -> Option<usize> {
        if lo >= self.leaves {
            return None;
        }
        // Climb: test the maximal subtrees that tile `lo..`, left to
        // right — each a level above the last — until one passes.
        let mut k = self.leaves + lo;
        while k.is_multiple_of(2) && k > 1 {
            k /= 2;
        }
        while !verdict.passes(self.tree[k]) {
            while !k.is_multiple_of(2) {
                if k == 1 {
                    return None;
                }
                k /= 2;
            }
            k += 1;
        }
        // Descend: a passing node whose left child fails has a passing
        // right child (the node's low is the right child's), so one test
        // a level.
        while k < self.leaves {
            k *= 2;
            if !verdict.passes(self.tree[k]) {
                k += 1;
            }
        }
        Some(k - self.leaves)
    }

    /// The leftmost user of block `b`'s members in `mask` whose rate
    /// passes: a binary search over the members' sorted rates finds the
    /// highest that passes, and every member at or below it does.
    fn leftmost_in_block<F: FnMut(f64) -> bool>(
        &self,
        b: usize,
        mask: u64,
        rates: &[f64],
        verdict: &mut MonotoneVerdict<F>,
    ) -> Option<usize> {
        if mask == 0 || !verdict.passes(block_min(b, mask, rates)) {
            return None;
        }
        let mut sorted = [0.0f64; BLOCK];
        let mut n = 0;
        for t in bits(mask) {
            sorted[n] = rates[b * BLOCK + t];
            n += 1;
        }
        let sorted = &mut sorted[..n];
        sorted.sort_unstable_by(f64::total_cmp);
        // `sorted[lo]` passes; `sorted[hi]` fails (`hi = n`: none left).
        let (mut lo, mut hi) = (0, n);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if verdict.passes(sorted[mid]) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let bar = sorted[lo];
        bits(mask)
            .map(|t| b * BLOCK + t)
            .find(|&user| rates[user] <= bar)
    }
}

/// The set bits of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let t = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            t
        })
    })
}

/// The lowest rate among block `b`'s members in `mask` (`+∞` for none).
fn block_min(b: usize, mask: u64, rates: &[f64]) -> f64 {
    bits(mask).fold(f64::INFINITY, |low, t| low.min(rates[b * BLOCK + t]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The search against a scan, over rooms that grow and shrink: the
    /// leftmost waiting user at or after `from` with `rate ≤ bar`, for
    /// bars at and between the rates present — and no more evaluations
    /// than the O(log n) the tick's bound allows.
    #[test]
    fn leftmost_matches_a_scan() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [1usize, 63, 64, 65, 200, 1_000, 4_100] {
            // Few distinct rates, so ties across blocks are common.
            let rates: Vec<f64> = (0..n)
                .map(|_| f64::from(rng.random_range(0..40u32)))
                .collect();
            let mut room = WaitingRoom::new(n);
            let mut waiting = vec![false; n];
            let log2 = (n as f64).log2().ceil() as usize;
            for round in 0..400 {
                let j = rng.random_range(0..n);
                if waiting[j] {
                    room.remove(j, &rates);
                } else {
                    room.insert(j, rates[j]);
                }
                waiting[j] = !waiting[j];
                assert_eq!(room.len(), waiting.iter().filter(|&&w| w).count());
                if round % 7 != 0 {
                    continue;
                }
                let listed: Vec<usize> = room.iter().collect();
                let expect: Vec<usize> = (0..n).filter(|&u| waiting[u]).collect();
                assert_eq!(listed, expect);
                for bar in [-1.0, 0.0, 7.5, 12.0, 20.0, 39.0, 40.0] {
                    let from = rng.random_range(0..=n);
                    let scan = (from..n).find(|&u| waiting[u] && rates[u] <= bar);
                    let mut verdict = MonotoneVerdict::new(|r: f64| r <= bar);
                    let found = room.leftmost(from, &rates, &mut verdict);
                    assert_eq!(found, scan, "n {n} from {from} bar {bar}");
                    assert!(
                        verdict.evaluations <= 2 * log2 + 2,
                        "{}",
                        verdict.evaluations
                    );
                }
            }
        }
    }

    /// The verdict's memory: a rate inside the known-pass or known-fail
    /// range costs no evaluation, and `+∞` never does.
    #[test]
    fn monotone_verdict_remembers() {
        let mut v = MonotoneVerdict::new(|r: f64| r <= 5.0);
        assert!(!v.passes(f64::INFINITY));
        assert!(v.passes(3.0));
        assert!(!v.passes(8.0));
        assert_eq!(v.evaluations, 2);
        assert!(v.passes(2.0) && !v.passes(9.0));
        assert_eq!(v.evaluations, 2);
        assert!(v.passes(5.0) && !v.passes(6.0));
        assert_eq!(v.evaluations, 4);
    }
}
