//! Lock-free log-linear bucketed histogram (HdrHistogram-style).
//!
//! Values (nanoseconds, byte counts, …) land in a fixed array of atomic
//! buckets: the first 32 buckets are exact (one per value 0..32), and every
//! power-of-two octave above that is split into 32 linear sub-buckets. The
//! whole `u64` range fits in 1 920 buckets (~15 KiB), so memory is bounded,
//! recording is a single `fetch_add`, snapshots never sort, and a scraper
//! merges two histograms' exposition by adding bucket counts. The price is
//! quantization: any recorded value is reported as its bucket's upper
//! bound, at most 1/32 ≈ 3.1 % above the true value.

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the number of linear sub-buckets per power-of-two octave.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave (and the number of exact low buckets).
const SUB: u64 = 1 << SUB_BITS;
/// Octaves above the exact range: the most-significant-bit position of a
/// bucketed value ranges over `SUB_BITS..=63`.
const OCTAVES: u64 = 64 - SUB_BITS as u64;
/// Total bucket count covering every `u64` value.
const NUM_BUCKETS: usize = (SUB + OCTAVES * SUB) as usize;

/// Bucket index for a value. Exact for `v < 32`; log-linear above.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - u64::from(v.leading_zeros());
        // Top SUB_BITS+1 bits of v, minus the implied leading one.
        let sub = (v >> (msb - u64::from(SUB_BITS))) - SUB;
        (SUB + (msb - u64::from(SUB_BITS)) * SUB + sub) as usize
    }
}

/// Lowest value that lands in bucket `i` (the bucket's inclusive lower bound).
fn bucket_lo(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB {
        i
    } else {
        let oct = (i - SUB) / SUB;
        let sub = (i - SUB) % SUB;
        let msb = oct + u64::from(SUB_BITS);
        (1u64 << msb) + (sub << (msb - u64::from(SUB_BITS)))
    }
}

/// Highest value that lands in bucket `i` (the bucket's inclusive upper
/// bound). Every value recorded into bucket `i` is reported as this bound.
fn bucket_hi(i: usize) -> u64 {
    if i + 1 >= NUM_BUCKETS {
        u64::MAX
    } else {
        bucket_lo(i + 1) - 1
    }
}

/// The `[lo, hi]` inclusive bounds of the bucket that `v` lands in — the
/// quantization interval a recorded value is reported from.
#[cfg(test)]
pub(crate) fn bucket_bounds(v: u64) -> (u64, u64) {
    let i = bucket_index(v);
    (bucket_lo(i), bucket_hi(i))
}

/// A lock-free histogram over `u64` values with bounded memory.
///
/// `record` is wait-free (one relaxed `fetch_add` per atomic touched);
/// `snapshot` reads the buckets without blocking writers. See the module
/// docs for the bucket layout.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram (allocates the full 1 920-bucket array).
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Reset every bucket to zero. Not atomic with respect to concurrent
    /// `record` calls — intended for stat-window resets between runs.
    pub fn clear(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy of the non-empty buckets, for exposition.
    /// Never sorts; cost is one pass over the bucket array.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((i as u32, c));
                count += c;
            }
        }
        // Count is recomputed from the buckets so the `+Inf` bucket and
        // `_count` agree with the cumulative buckets under concurrent
        // recording; the sum may then lag or lead by the in-flight
        // records, which exposition tolerates.
        let sum = if count == 0 {
            0
        } else {
            self.sum.load(Ordering::Relaxed)
        };
        HistogramSnapshot {
            buckets,
            count,
            sum,
        }
    }
}

/// A point-in-time copy of a [`Histogram`]'s non-empty buckets, rendered
/// by [`crate::MetricsRegistry`].
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// `(bucket index, count)` pairs, sorted by index, counts > 0.
    buckets: Vec<(u32, u64)>,
    count: u64,
    sum: u64,
}

impl HistogramSnapshot {
    /// Number of recorded values.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Iterate non-empty buckets as `(upper inclusive bound, count)`,
    /// in increasing bound order.
    pub(crate) fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .map(|&(i, c)| (bucket_hi(i as usize), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic PRNG for the "proptest-style" randomized checks below.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn low_values_are_exact() {
        for v in 0..32u64 {
            let (lo, hi) = bucket_bounds(v);
            assert_eq!((lo, hi), (v, v), "value {v} must have its own bucket");
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_bounds_contain_value() {
        let mut state = 0xfee1_dead_u64;
        let mut prev_v = 0u64;
        let mut prev_i = 0usize;
        for step in 0..20_000 {
            let v = if step < 4096 {
                step as u64 // dense sweep over the exact + first octaves
            } else {
                splitmix64(&mut state)
            };
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "index {i} out of range for {v}");
            let (lo, hi) = bucket_bounds(v);
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
            // Relative quantization error bounded by one sub-bucket: 1/32.
            if v >= 32 {
                assert!(
                    (hi - lo) as f64 <= v as f64 / 32.0 + 1.0,
                    "bucket [{lo},{hi}] too wide for {v}"
                );
            }
            if v >= prev_v {
                assert!(i >= prev_i, "index must be monotone in value");
            }
            if step < 4096 {
                prev_v = v;
                prev_i = i;
            }
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_hi(NUM_BUCKETS - 1), u64::MAX);
    }

    /// Nearest-rank quantile as a scraper computes it from the cumulative
    /// `le` buckets: the upper bound of the bucket holding the rank-th
    /// smallest sample.
    fn quantile(snap: &HistogramSnapshot, q: f64) -> u64 {
        let rank = ((q * snap.count() as f64).ceil() as u64).clamp(1, snap.count());
        let mut cum = 0;
        snap.buckets()
            .find(|&(_, c)| {
                cum += c;
                cum >= rank
            })
            .map(|(hi, _)| hi)
            .expect("the rank lies within the count")
    }

    #[test]
    fn quantiles_match_sorted_samples_within_one_bucket() {
        let mut state = 42u64;
        let mut samples = Vec::new();
        let hist = Histogram::new();
        for _ in 0..5000 {
            // Mix of magnitudes: sub-µs, µs, ms, s in nanoseconds.
            let r = splitmix64(&mut state);
            let v = match r % 4 {
                0 => r % 1_000,
                1 => r % 1_000_000,
                2 => r % 1_000_000_000,
                _ => r % 60_000_000_000,
            };
            samples.push(v);
            hist.record(v);
        }
        samples.sort_unstable();
        let snap = hist.snapshot();
        assert_eq!(snap.count(), samples.len() as u64);
        assert_eq!(snap.sum(), samples.iter().sum::<u64>());
        for &q in &[0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1];
            let approx = quantile(&snap, q);
            let (lo, hi) = bucket_bounds(exact);
            assert_eq!(
                approx, hi,
                "q={q}: the buckets must report the upper bound of the \
                 exact sample {exact} (bucket [{lo},{hi}]), got {approx}"
            );
            assert!(approx >= exact && approx - exact <= hi - lo);
        }
    }

    #[test]
    fn merged_histogram_equals_concatenated_samples() {
        // What a scraper does with two shards' exposition: add the bucket
        // counts bound by bound. That must equal one histogram that
        // recorded the concatenated samples, across many random splits.
        let mut state = 0xc0ffee_u64;
        for round in 0..25 {
            let n1 = 1 + (splitmix64(&mut state) % 800) as usize;
            let n2 = 1 + (splitmix64(&mut state) % 800) as usize;
            let (h1, h2, all) = (Histogram::new(), Histogram::new(), Histogram::new());
            for k in 0..(n1 + n2) {
                let v = splitmix64(&mut state) % (1 << (10 + round % 40));
                if k < n1 {
                    h1.record(v);
                } else {
                    h2.record(v);
                }
                all.record(v);
            }
            let (s1, s2, whole) = (h1.snapshot(), h2.snapshot(), all.snapshot());
            let mut merged = std::collections::BTreeMap::new();
            for (hi, c) in s1.buckets().chain(s2.buckets()) {
                *merged.entry(hi).or_insert(0u64) += c;
            }
            assert_eq!(
                merged.into_iter().collect::<Vec<_>>(),
                whole.buckets().collect::<Vec<_>>(),
                "round {round}: bucket-wise sum differs from the concatenation"
            );
            assert_eq!(s1.count() + s2.count(), whole.count());
            assert_eq!(s1.sum() + s2.sum(), whole.sum());
        }
    }

    #[test]
    fn clear_resets_everything() {
        let h = Histogram::new();
        h.record(7);
        h.record(70_000);
        assert_eq!(h.snapshot().count(), 2);
        h.clear();
        let snap = h.snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.sum(), 0);
        assert_eq!(snap.buckets().count(), 0);
    }
}
