//! A fixed-memory, log-bucketed latency histogram.
//!
//! Buckets follow the log-linear layout of HdrHistogram: values below
//! [`SUB_BUCKETS`] nanoseconds get one exact bucket each, and every power of
//! two above that is split into [`SUB_BUCKETS`] equal-width buckets. A
//! bucket's width is therefore at most `1/SUB_BUCKETS` of its lower bound,
//! and a percentile reported as the bucket midpoint is within
//! `1/(2·SUB_BUCKETS)` = **1.6 %** of the true sample. Values past
//! 2^[`MAX_EXP`] ns (about 18 minutes) land in the last bucket.
//!
//! The bucket array is allocated once: recording never allocates, and
//! memory does not grow with the number of samples.

use std::time::Duration;

/// Linear sub-buckets per power of two (a power of two itself).
pub const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Values at or above `2^MAX_EXP` nanoseconds are clamped to the last bucket.
pub const MAX_EXP: u32 = 40;
/// Total buckets: the exact range plus `SUB_BUCKETS` per octave up to
/// `2^MAX_EXP`.
pub const BUCKETS: usize = SUB_BUCKETS * (MAX_EXP - SUB_BITS + 1) as usize;

/// Fixed-size latency histogram; see the [module docs](self) for the bucket
/// layout and its error bound.
#[derive(Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: Box::new([0; BUCKETS]),
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .field("p50", &self.percentile(50.0))
            .field("p99", &self.percentile(99.0))
            .finish()
    }
}

fn bucket_of(nanos: u64) -> usize {
    if nanos < SUB_BUCKETS as u64 {
        return nanos as usize;
    }
    let exp = 63 - nanos.leading_zeros();
    if exp >= MAX_EXP {
        return BUCKETS - 1;
    }
    let shift = exp - SUB_BITS;
    let sub = (nanos >> shift) as usize - SUB_BUCKETS;
    SUB_BUCKETS * (shift as usize + 1) + sub
}

/// `[lower, upper)` nanosecond bounds of bucket `index`.
fn bounds_of(index: usize) -> (u64, u64) {
    if index < SUB_BUCKETS {
        return (index as u64, index as u64 + 1);
    }
    let shift = (index / SUB_BUCKETS - 1) as u32;
    let sub = (index % SUB_BUCKETS + SUB_BUCKETS) as u64;
    (sub << shift, (sub + 1) << shift)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one sample.
    pub fn record(&mut self, latency: Duration) {
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.counts[bucket_of(nanos)] += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Bytes of bucket storage — fixed at construction.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<[u64; BUCKETS]>()
    }

    /// The `pct` percentile (`0..=100`): the midpoint of the bucket holding
    /// the sample at rank `round(pct/100 · (count − 1))` in sorted order.
    /// Zero when empty.
    pub fn percentile(&self, pct: f64) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        let rank = (pct.clamp(0.0, 100.0) / 100.0 * (total - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen > rank {
                let (lo, hi) = bounds_of(index);
                return Duration::from_nanos(lo + (hi - lo) / 2);
            }
        }
        unreachable!("rank < total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut expected_lo = 0;
        for index in 0..BUCKETS {
            let (lo, hi) = bounds_of(index);
            assert_eq!(
                lo, expected_lo,
                "bucket {index} starts where the last ended"
            );
            assert!(hi > lo);
            assert_eq!(bucket_of(lo), index);
            assert_eq!(bucket_of(hi - 1), index);
            expected_lo = hi;
        }
        assert_eq!(expected_lo, 1u64 << MAX_EXP);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_stay_within_the_documented_error() {
        let mut h = LatencyHistogram::new();
        let samples: Vec<u64> = (0..10_000u64).map(|i| 1 + i * i * 37).collect();
        for &ns in &samples {
            h.record(Duration::from_nanos(ns));
        }
        assert_eq!(h.count(), samples.len() as u64);
        for pct in [0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let rank = (pct / 100.0 * (samples.len() - 1) as f64).round() as usize;
            let exact = samples[rank] as f64;
            let got = h.percentile(pct).as_nanos() as f64;
            let bound = exact / (2 * SUB_BUCKETS) as f64 + 0.5;
            assert!(
                (got - exact).abs() <= bound,
                "p{pct}: {got} vs exact {exact} (bound {bound})"
            );
        }
    }

    #[test]
    fn empty_reads_zero_and_one_sample_reads_itself() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.percentile(50.0), Duration::ZERO);
        h.record(Duration::from_millis(10));
        let p50 = h.percentile(50.0).as_secs_f64();
        assert!((p50 - 0.010).abs() < 0.010 / 64.0 + 1e-9);
    }
}
