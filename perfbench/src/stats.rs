//! Small statistics, hashing, randomness and host helpers shared by the
//! workloads.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p < 1) of `samples`, refused unless at
/// least ten samples lie above it: a percentile with fewer samples beyond
/// it is one or two unlucky requests, not a measurement.
pub fn tail_percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).max(1);
    let beyond = sorted.len() - rank;
    if beyond < 10 {
        return Err(format!(
            "p{} of {} samples has only {beyond} samples beyond it (need 10)",
            p * 100.0,
            sorted.len()
        ));
    }
    Ok(sorted[rank - 1])
}

/// Geometric mean of positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (logs / values.len() as f64).exp()
}

/// SplitMix64: the benchmark's own seeded generator, so inputs depend on
/// the seed and on nothing the program under test could change.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BEEF_CAFE_F00D)
    }

    /// A stream started from `state` as given.
    pub fn from_state(state: u64) -> Self {
        Rng(state)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over a sequence of byte strings (each terminated by a zero byte
/// so that concatenations cannot collide trivially).
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &byte in part.iter().chain(std::iter::once(&0u8)) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Peak resident set (`VmHWM`) of a process in MiB; `None` = this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable VmHWM line `{line}`"))?;
    Ok(kib / 1024.0)
}

/// Resets this process's peak resident set to its current resident set, so
/// the next [`peak_rss_mb`] reads the peak of what ran since.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Seconds a fixed integer loop takes: a host-speed probe recorded before
/// and after each workload so host drift can be told from a program
/// change. It is reported, never divided into a metric.
pub fn host_probe_s() -> f64 {
    let start = Instant::now();
    let mut x = 0x1234_5678_9abc_def0u64;
    for i in 0..300_000_000u64 {
        x = x.rotate_left(7) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 0.95), Ok(190.0));
        assert!(tail_percentile(&samples[..100], 0.95).is_err());
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }
}
