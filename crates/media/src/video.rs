//! Video session model.
//!
//! A session is a fixed volume of media (`total_kb`) encoded at a bitrate
//! `pᵢ(n)` that the paper allows to vary per slot but hold constant within
//! one ("we consider the video bit rate changes over time but remains same
//! in a slot"). The total playback time `Mᵢ` follows from volume and rates.

use serde::{Deserialize, Error, JsonWriter, Reader, Serialize};

/// A VBR session's per-segment rates, KB/s: up to
/// [`RateList::CAPACITY`] of them, held inline so that a session is plain
/// data (no heap memory, nothing to drop). It reads as a slice and prints
/// as the JSON array a `Vec<f64>` would.
#[derive(Clone, Copy, PartialEq)]
pub struct RateList {
    len: u8,
    /// The rates in `..len`; zero past it, so the derived equality is
    /// the slices'.
    rates: [f64; RateList::CAPACITY],
}

impl RateList {
    /// Most rates a list holds.
    pub const CAPACITY: usize = 8;

    /// The list of `rates`, or `None` past [`RateList::CAPACITY`].
    pub fn new(rates: &[f64]) -> Option<Self> {
        let mut list = Self {
            len: u8::try_from(rates.len()).ok()?,
            rates: [0.0; Self::CAPACITY],
        };
        list.rates.get_mut(..rates.len())?.copy_from_slice(rates);
        Some(list)
    }
}

impl std::ops::Deref for RateList {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.rates[..usize::from(self.len)]
    }
}

impl std::fmt::Debug for RateList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Serialize for RateList {
    fn serialize(&self, w: &mut JsonWriter) {
        (**self).serialize(w)
    }

    fn same_bits(&self, other: &Self) -> bool {
        (**self).same_bits(other)
    }
}

impl Deserialize for RateList {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let rates = Vec::<f64>::deserialize(r)?;
        Self::new(&rates).ok_or_else(|| {
            Error::custom(format!(
                "{} rates, at most {} fit",
                rates.len(),
                Self::CAPACITY
            ))
        })
    }
}

/// Requested data rate `pᵢ(n)` as a function of the slot index.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum BitrateModel {
    /// Constant bitrate in KB/s.
    Cbr {
        /// The rate in KB/s.
        kbps: f64,
    },
    /// Variable bitrate: piecewise-constant segments, cycling.
    Vbr {
        /// Per-segment rates in KB/s.
        rates_kbps: RateList,
        /// Slots per segment.
        segment_slots: u64,
    },
}

impl BitrateModel {
    /// The rate in effect during `slot`, KB/s.
    pub fn rate_at(&self, slot: u64) -> f64 {
        match self {
            BitrateModel::Cbr { kbps } => *kbps,
            BitrateModel::Vbr {
                rates_kbps,
                segment_slots,
            } => {
                let seg = (slot / (*segment_slots).max(1)) as usize % rates_kbps.len();
                rates_kbps[seg]
            }
        }
    }

    /// Mean rate across a cycle (CBR: the rate itself).
    pub fn mean_rate(&self) -> f64 {
        match self {
            BitrateModel::Cbr { kbps } => *kbps,
            BitrateModel::Vbr { rates_kbps, .. } => {
                rates_kbps.iter().sum::<f64>() / rates_kbps.len() as f64
            }
        }
    }
}

/// One user's video-on-demand session.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct VideoSession {
    /// Total media volume in KB (the paper's 250–500 MB).
    pub total_kb: f64,
    /// Requested data rate model `pᵢ(n)`.
    pub bitrate: BitrateModel,
    /// KB fetched through the gateway so far.
    received_kb: f64,
}

impl VideoSession {
    /// New unstarted session.
    pub fn new(total_kb: f64, bitrate: BitrateModel) -> Self {
        assert!(total_kb > 0.0, "video must have positive size");
        assert!(bitrate.mean_rate() > 0.0, "bitrate must be positive");
        Self {
            total_kb,
            bitrate,
            received_kb: 0.0,
        }
    }

    /// Convenience CBR constructor.
    pub fn cbr(total_kb: f64, kbps: f64) -> Self {
        Self::new(total_kb, BitrateModel::Cbr { kbps })
    }

    /// Total playback duration `Mᵢ` in seconds (volume ÷ mean rate; exact
    /// for CBR, the natural generalization for VBR).
    pub fn total_playback_s(&self) -> f64 {
        self.total_kb / self.bitrate.mean_rate()
    }

    /// KB still to be fetched from the server.
    pub fn remaining_kb(&self) -> f64 {
        (self.total_kb - self.received_kb).max(0.0)
    }

    /// KB fetched so far.
    pub fn received_kb(&self) -> f64 {
        self.received_kb
    }

    /// True when the whole file has been fetched.
    pub fn fully_fetched(&self) -> bool {
        self.remaining_kb() <= 1e-9
    }

    /// Record `kb` delivered by the gateway; returns the amount actually
    /// accepted (delivery never exceeds the remaining volume).
    ///
    /// A delivery that completes the fetch snaps `received_kb` to
    /// `total_kb`: `received + (total − received)` need not round back
    /// to `total` (after an ABR rescale it can leave ~1e-13 KB), and a
    /// residue that [`VideoSession::fully_fetched`] ignores would still
    /// read as one more unit of demand off [`VideoSession::remaining_kb`].
    pub fn deliver(&mut self, kb: f64) -> f64 {
        debug_assert!(kb >= 0.0);
        let accepted = kb.min(self.remaining_kb());
        self.received_kb += accepted;
        if self.fully_fetched() {
            self.received_kb = self.total_kb;
        }
        accepted
    }

    /// The rate `pᵢ(n)` in effect at `slot`, KB/s.
    pub fn rate_at(&self, slot: u64) -> f64 {
        self.bitrate.rate_at(slot)
    }

    /// Cancel the unfetched remainder (user churn): truncate `total_kb` to
    /// what has been received, so the session is fully fetched and the
    /// gateway stops scheduling data for it.
    pub fn cancel_remaining(&mut self) {
        self.total_kb = self.received_kb;
    }

    /// Re-price the unfetched remainder by `ratio` (an ABR rung switch:
    /// the remaining chunks are re-encoded at `new_rate = ratio × old_rate`,
    /// so their bytes scale by the same factor while their playback
    /// duration is unchanged). Returns the signed change in `total_kb`
    /// so the caller can adjust the gateway's source-volume accounting.
    pub fn rescale_remaining(&mut self, ratio: f64) -> f64 {
        debug_assert!(ratio > 0.0 && ratio.is_finite());
        let delta = self.remaining_kb() * (ratio - 1.0);
        self.total_kb += delta;
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbr_session_basics() {
        let mut s = VideoSession::cbr(350_000.0, 500.0);
        assert!((s.total_playback_s() - 700.0).abs() < 1e-9);
        assert_eq!(s.remaining_kb(), 350_000.0);
        assert!(!s.fully_fetched());
        let got = s.deliver(1000.0);
        assert_eq!(got, 1000.0);
        assert_eq!(s.received_kb(), 1000.0);
        assert_eq!(s.remaining_kb(), 349_000.0);
    }

    #[test]
    fn delivery_clamps_at_total() {
        let mut s = VideoSession::cbr(100.0, 10.0);
        assert_eq!(s.deliver(60.0), 60.0);
        assert_eq!(s.deliver(60.0), 40.0);
        assert!(s.fully_fetched());
        assert_eq!(s.deliver(5.0), 0.0);
        assert_eq!(s.received_kb(), 100.0);
    }

    /// Fetched to the end after a rescale, nothing is left over: the
    /// residue `total − received` would otherwise read as demand.
    #[test]
    fn rescaled_session_fetched_to_the_end_has_nothing_remaining() {
        // 1116.2 − 200.3 scaled by 0.75 is 687.225, and 200.3 + 687.225
        // rounds to one ulp under the rescaled total of 887.225.
        let mut s = VideoSession::cbr(1_116.2, 450.0);
        s.deliver(200.3);
        s.rescale_remaining(0.75);
        s.deliver(1e9);
        assert!(s.fully_fetched());
        assert_eq!(s.remaining_kb(), 0.0);
        assert_eq!(s.total_kb, s.received_kb());
    }

    fn rates(r: &[f64]) -> RateList {
        RateList::new(r).unwrap()
    }

    #[test]
    fn vbr_segments_cycle() {
        let b = BitrateModel::Vbr {
            rates_kbps: rates(&[300.0, 600.0, 450.0]),
            segment_slots: 10,
        };
        assert_eq!(b.rate_at(0), 300.0);
        assert_eq!(b.rate_at(9), 300.0);
        assert_eq!(b.rate_at(10), 600.0);
        assert_eq!(b.rate_at(25), 450.0);
        assert_eq!(b.rate_at(30), 300.0); // wrapped
        assert!((b.mean_rate() - 450.0).abs() < 1e-9);
    }

    #[test]
    fn vbr_playback_duration_uses_mean() {
        let s = VideoSession::new(
            90_000.0,
            BitrateModel::Vbr {
                rates_kbps: rates(&[300.0, 600.0]),
                segment_slots: 5,
            },
        );
        assert!((s.total_playback_s() - 200.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive size")]
    fn zero_size_rejected() {
        VideoSession::cbr(0.0, 100.0);
    }

    /// A session is plain data: a pool of them is released without
    /// visiting a row.
    const _: () = assert!(!std::mem::needs_drop::<VideoSession>());

    /// A rate list prints as the array a `Vec<f64>` would, parses back,
    /// and refuses more rates than it holds.
    #[test]
    fn rate_list_is_a_json_array() {
        let vbr = BitrateModel::Vbr {
            rates_kbps: rates(&[226.5, 377.25, 301.0]),
            segment_slots: 30,
        };
        let j = serde_json::to_string(&vbr).unwrap();
        assert_eq!(
            j,
            r#"{"kind":"vbr","rates_kbps":[226.5,377.25,301.0],"segment_slots":30}"#
        );
        assert_eq!(serde_json::from_str::<BitrateModel>(&j).unwrap(), vbr);
        let full = [1.0; RateList::CAPACITY];
        assert_eq!(&*rates(&full), &full[..]);
        assert!(RateList::new(&[1.0; RateList::CAPACITY + 1]).is_none());
        let long = serde_json::to_string(&vec![1.0; RateList::CAPACITY + 1]).unwrap();
        assert!(serde_json::from_str::<RateList>(&long).is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let s = VideoSession::cbr(1000.0, 300.0);
        let j = serde_json::to_string(&s).unwrap();
        let back: VideoSession = serde_json::from_str(&j).unwrap();
        assert_eq!(back, s);
    }
}
