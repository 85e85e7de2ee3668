//! Order statistics over timing samples, and the FNV-1a digest used to
//! compare simulated outputs.

/// The `p`-quantile (`0 ≤ p ≤ 1`) by nearest rank; 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median: the mean of the two middle samples when the count is even.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Windows a run's samples are cut into by the steady estimators.
const STEADY_WINDOWS: usize = 8;

/// The steady value of a run of timing samples taken back to back,
/// where lower is better: cut them, in order, into eight equal windows,
/// take each window's lowest sample, and report the median of those.
///
/// On a shared VM, interference only ever adds time, and it comes in
/// stretches: over a 20 s run the median of all samples wanders by ±5 %
/// between runs of the same code while the best sample of any half
/// second stays within ±0.5 % (README "Steadiness"). The best of a
/// window is what the code does when left alone; the median over
/// windows keeps one lucky or unlucky window from deciding the value.
/// With fewer than sixteen samples every window is one sample and this
/// is the plain median.
pub fn steady_low(samples: &[f64]) -> f64 {
    steady(samples, f64::min)
}

/// [`steady_low`] for samples where higher is better (rates).
pub fn steady_high(samples: &[f64]) -> f64 {
    steady(samples, f64::max)
}

fn steady(samples: &[f64], best: fn(f64, f64) -> f64) -> f64 {
    let width = (samples.len() / STEADY_WINDOWS).max(1);
    let bests: Vec<f64> = samples
        .chunks_exact(width)
        .map(|w| w.iter().copied().reduce(best).unwrap_or(0.0))
        .collect();
    median(&bests)
}

/// Incremental 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far, as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// FNV-1a digest of `bytes`.
pub fn digest(bytes: &[u8]) -> String {
    let mut h = Fnv::new();
    h.update(bytes);
    h.hex()
}

/// FNV-1a digest of a file, read in blocks so a large trace never sits
/// in memory whole.
pub fn file_digest(path: &std::path::Path) -> std::io::Result<String> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let mut h = Fnv::new();
    let mut block = vec![0u8; 1 << 16];
    loop {
        let n = file.read(&mut block)?;
        if n == 0 {
            return Ok(h.hex());
        }
        h.update(&block[..n]);
    }
}

/// SplitMix64: the harness's own generator, so that workload inputs
/// depend on `--seed` alone and not on the program's RNG.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&v[..4]), 3.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.99), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn steady_takes_window_bests() {
        // 16 samples: windows of two; interference doubles every other one.
        let v: Vec<f64> = (0..16)
            .map(|i| if i % 2 == 0 { 10.0 } else { 20.0 })
            .collect();
        assert_eq!(steady_low(&v), 10.0);
        assert_eq!(steady_high(&v), 20.0);
        assert_eq!(median(&v), 15.0);
        // Too few samples to window: the plain median.
        assert_eq!(steady_low(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(steady_low(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }
}
