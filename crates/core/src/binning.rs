//! Bin selection for equivalent key groups (paper §4.2, Algorithm 2).
//!
//! A bin set partitions the *value set* of one equivalent key group. Bound
//! tightness hinges on within-bin count variance: if every value in a bin
//! occurs equally often on every member key, the MFV bound is exact. GBSA
//! greedily minimizes that variance across all member keys; equal-width and
//! equal-depth binning are provided for the Table 6 ablation.
//!
//! Binning probes no hash map. One sort of the members' frequency-map
//! entries yields the group's sorted domain and every member's count of
//! each value, by domain position. Bins then hold domain positions, and every sort orders materialised
//! `(count, position)` pairs — the `(count, value)` order, since the domain
//! is sorted.

use fj_stats::KeyBinMap;
use std::collections::HashMap;

pub use crate::freq::KeyFreq;

/// Binning strategies evaluated in paper Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinningStrategy {
    /// Greedy Bin Selection Algorithm — minimizes within-bin count variance
    /// across all member keys (the paper's contribution).
    Gbsa,
    /// Equal-width ranges over the value domain.
    EqualWidth,
    /// Equal-depth (equal total frequency mass) over the sorted domain.
    EqualDepth,
}

/// Per-group bin budget: either a uniform `k` per group or a global budget
/// split proportionally to workload join-pattern frequencies (paper §4.2,
/// "Deciding k based on query workloads").
#[derive(Debug, Clone, PartialEq)]
pub enum BinBudget {
    /// Every group gets the same number of bins.
    Uniform(usize),
    /// A total budget `total` split as `k_i = total · n_i / Σ n_j` given
    /// per-group workload weights `n_i` (missing groups weigh 1).
    Workload {
        /// Total bins across all groups.
        total: usize,
        /// group id → frequency weight.
        weights: HashMap<usize, f64>,
    },
}

impl BinBudget {
    /// Bins for group `gid` of `num_groups`.
    pub fn bins_for(&self, gid: usize, num_groups: usize) -> usize {
        match self {
            BinBudget::Uniform(k) => (*k).max(1),
            BinBudget::Workload { total, weights } => {
                let w = |g: usize| weights.get(&g).copied().unwrap_or(1.0).max(1e-9);
                let sum: f64 = (0..num_groups).map(w).sum();
                (((*total as f64) * w(gid) / sum).round() as usize).max(1)
            }
        }
    }
}

/// Builds the value→bin map for one key group from its member keys'
/// frequency maps. `freqs` must be non-empty; `k` is clamped to the number
/// of distinct values.
///
/// Every strategy yields its `(value, bin)` pairs in an order fixed by the
/// sorted domain and the counts, never by a hash map's, so the same data
/// always builds the same slab layout and hence the same `.fjm` bytes —
/// across repeated trainings and across thread counts.
pub fn build_group_bins(freqs: &[&KeyFreq], k: usize, strategy: BinningStrategy) -> KeyBinMap {
    assert!(!freqs.is_empty(), "a key group has at least one member");
    let group = GroupCounts::new(freqs);
    if group.domain.is_empty() {
        return KeyBinMap::single_bin();
    }
    let k = k.clamp(1, group.domain.len());
    let assign = match strategy {
        BinningStrategy::EqualWidth => equal_width(&group.domain, k),
        BinningStrategy::EqualDepth => equal_depth(&group, k),
        BinningStrategy::Gbsa => gbsa(&group, freqs, k),
    };
    KeyBinMap::new(k, assign)
}

/// A key group's domain — the union of its members' values, sorted and
/// duplicate-free — and every member's count of each domain value, by
/// position. Binning reads counts from these slabs, never from the members'
/// hash maps.
struct GroupCounts {
    domain: Vec<i64>,
    /// `counts[j][p]`: member `j`'s count of `domain[p]` (0 when absent).
    counts: Vec<Vec<u64>>,
}

impl GroupCounts {
    /// One sort of every `(value, member, count)` entry: its values,
    /// deduplicated, are the domain, and a walk over it fills the slabs.
    fn new(freqs: &[&KeyFreq]) -> Self {
        let mut entries: Vec<(i64, usize, u64)> = freqs
            .iter()
            .enumerate()
            .flat_map(|(j, f)| f.iter().map(move |(v, c)| (v, j, c)))
            .collect();
        entries.sort_unstable_by_key(|&(v, _, _)| v);
        let mut domain: Vec<i64> = entries.iter().map(|&(v, _, _)| v).collect();
        domain.dedup();
        let mut counts = vec![vec![0; domain.len()]; freqs.len()];
        let mut p = 0;
        for &(v, j, c) in &entries {
            if domain[p] != v {
                p += 1;
            }
            counts[j][p] = c;
        }
        GroupCounts { domain, counts }
    }
}

/// Bin `⌊(v − lo) / width⌋` of `k` equal ranges over `[lo, hi]`. The
/// differences are taken in `i128`: over a domain spanning more than
/// `i64::MAX` they overflow `i64`, and below that they are the same exact
/// integers, rounded once into `f64`.
fn equal_width(domain: &[i64], k: usize) -> Vec<(i64, u32)> {
    let (lo, hi) = (domain[0], *domain.last().expect("non-empty"));
    let offset = |v: i64| (i128::from(v) - i128::from(lo)) as f64;
    let width = (offset(hi) + 1.0) / k as f64;
    domain
        .iter()
        .map(|&v| {
            let b = (offset(v) / width).floor() as usize;
            (v, b.min(k - 1) as u32)
        })
        .collect()
}

fn equal_depth(group: &GroupCounts, k: usize) -> Vec<(i64, u32)> {
    let totals: Vec<u64> = (0..group.domain.len())
        .map(|p| group.counts.iter().map(|c| c[p]).sum())
        .collect();
    let total: u64 = totals.iter().sum();
    let per = (total as f64 / k as f64).max(1.0);
    let mut out = Vec::with_capacity(group.domain.len());
    let mut acc = 0f64;
    let mut bin = 0u32;
    for (&v, &count) in group.domain.iter().zip(&totals) {
        out.push((v, bin));
        acc += count as f64;
        if acc >= per * (bin as f64 + 1.0) && (bin as usize) < k - 1 {
            bin += 1;
        }
    }
    out
}

/// Greedy Bin Selection Algorithm (paper Algorithm 2).
///
/// 1. Sort member keys by domain size (descending — the widest key, usually
///    the PK side, seeds the bins).
/// 2. Spend half the budget on minimum-variance bins for the first key:
///    sort values by that key's count and cut into equal-population chunks,
///    so each bin holds values of similar frequency.
/// 3. For each remaining key: apply the current bins, rank bins by that
///    key's within-bin count variance, and dichotomize the worst
///    `remaining/2` bins by that key's counts; halve the remaining budget.
///
/// Bins hold positions in the sorted domain, and every sort compares
/// materialised `(count, position)` pairs, which order like `(count,
/// value)` because the domain is sorted and duplicate-free.
fn gbsa(group: &GroupCounts, freqs: &[&KeyFreq], k: usize) -> Vec<(i64, u32)> {
    // Order member keys by descending domain size.
    let mut order: Vec<usize> = (0..freqs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(freqs[i].len()));

    let first = &group.counts[order[0]];
    let k_init = if freqs.len() == 1 { k } else { (k / 2).max(1) };
    let mut bins = min_variance_bins(first, k_init);
    let mut remaining = k.saturating_sub(bins.len());

    for &j in order.iter().skip(1) {
        if remaining == 0 {
            break;
        }
        let counts = &group.counts[j];
        // Rank current bins by their variance under key j.
        let mut ranked: Vec<(f64, usize)> = bins
            .iter()
            .enumerate()
            .filter(|(_, b)| b.len() > 1)
            .map(|(i, b)| (count_variance(b.iter().map(|&p| counts[p])), i))
            .collect();
        ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("variance is finite"));
        let splits = (remaining / 2).max(1).min(ranked.len()).min(remaining);
        // Collect indices first: splitting appends new bins at the end.
        let targets: Vec<usize> = ranked.iter().take(splits).map(|&(_, i)| i).collect();
        let mut used = 0;
        for i in targets {
            if let Some((a, b)) = min_variance_dichotomy(&bins[i], counts) {
                bins[i] = a;
                bins.push(b);
                used += 1;
            }
        }
        remaining -= used;
    }

    // While budget remains (e.g. duplicate-free groups), split the largest
    // bins by the first key's counts.
    while remaining > 0 {
        let (idx, _) = match bins
            .iter()
            .enumerate()
            .filter(|(_, b)| b.len() > 1)
            .max_by_key(|(_, b)| b.len())
        {
            Some((i, b)) => (i, b.len()),
            None => break,
        };
        match min_variance_dichotomy(&bins[idx], first) {
            Some((a, b)) => {
                bins[idx] = a;
                bins.push(b);
                remaining -= 1;
            }
            None => break,
        }
    }

    bins.iter()
        .enumerate()
        .flat_map(|(bi, b)| b.iter().map(move |&p| (group.domain[p], bi as u32)))
        .collect()
}

/// The domain positions `bin` sorted by `(counts[p], p)`.
fn by_count(bin: impl Iterator<Item = usize>, counts: &[u64]) -> Vec<usize> {
    let mut keyed: Vec<(u64, usize)> = bin.map(|p| (counts[p], p)).collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, p)| p).collect()
}

/// Minimum-variance binning of a single key (`counts` by domain position):
/// sort positions by count and cut into `k` equal-population chunks (similar
/// counts share a bin).
fn min_variance_bins(counts: &[u64], k: usize) -> Vec<Vec<usize>> {
    let sorted = by_count(0..counts.len(), counts);
    let k = k.clamp(1, sorted.len());
    let per = sorted.len().div_ceil(k);
    sorted.chunks(per).map(<[usize]>::to_vec).collect()
}

/// Variance of the key counts within a bin.
fn count_variance(counts: impl Iterator<Item = u64> + Clone) -> f64 {
    let n = counts.clone().count();
    if n < 2 {
        return 0.0;
    }
    let n = n as f64;
    let mean = counts.clone().map(|c| c as f64).sum::<f64>() / n;
    counts.map(|c| (c as f64 - mean).powi(2)).sum::<f64>() / n
}

/// Splits a bin into two halves of the count-sorted order (minimizing the
/// larger half's variance under `counts`). Returns `None` for unsplittable
/// singleton bins.
fn min_variance_dichotomy(bin: &[usize], counts: &[u64]) -> Option<(Vec<usize>, Vec<usize>)> {
    if bin.len() < 2 {
        return None;
    }
    let mut sorted = by_count(bin.iter().copied(), counts);
    let right = sorted.split_off(sorted.len() / 2);
    Some((sorted, right))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn freq(pairs: &[(i64, u64)]) -> KeyFreq {
        pairs.iter().copied().collect()
    }

    fn bins_of(map: &KeyBinMap, domain: &[i64]) -> Vec<Vec<i64>> {
        let mut out = vec![Vec::new(); map.k()];
        for &v in domain {
            out[map.bin_of(v)].push(v);
        }
        out
    }

    #[test]
    fn every_value_gets_exactly_one_bin() {
        let f = freq(&[(1, 10), (2, 1), (3, 100), (4, 1), (5, 50), (6, 2)]);
        for strat in [
            BinningStrategy::Gbsa,
            BinningStrategy::EqualWidth,
            BinningStrategy::EqualDepth,
        ] {
            let map = build_group_bins(&[&f], 3, strat);
            assert_eq!(map.k(), 3, "{strat:?}");
            let bins = bins_of(&map, &[1, 2, 3, 4, 5, 6]);
            let total: usize = bins.iter().map(Vec::len).sum();
            assert_eq!(total, 6, "{strat:?}: partition covers the domain");
        }
    }

    #[test]
    fn equal_width_splits_ranges() {
        let f = freq(&[(0, 1), (5, 1), (10, 1), (15, 1), (20, 1), (29, 1)]);
        let map = build_group_bins(&[&f], 3, BinningStrategy::EqualWidth);
        assert_eq!(map.bin_of(0), 0);
        assert_eq!(map.bin_of(5), 0);
        assert_eq!(map.bin_of(10), 1);
        assert_eq!(map.bin_of(29), 2);
    }

    #[test]
    fn equal_width_survives_a_domain_wider_than_i64() {
        // hi − lo and v − lo overflow i64 here.
        let keys = [i64::MIN + 5, -1, 0, 7, i64::MAX - 5];
        let f = freq(&keys.map(|v| (v, 1)));
        let map = build_group_bins(&[&f], 4, BinningStrategy::EqualWidth);
        let bins: Vec<usize> = keys.iter().map(|&v| map.bin_of(v)).collect();
        // Width 2^62 (the span rounds to 2^64): the middle keys sit at 2^63.
        assert_eq!(bins, vec![0, 2, 2, 2, 3]);
    }

    #[test]
    fn equal_depth_balances_mass() {
        // Value 1 carries 90% of the mass → it gets a bin almost alone.
        let f = freq(&[(1, 900), (2, 25), (3, 25), (4, 25), (5, 25)]);
        let map = build_group_bins(&[&f], 2, BinningStrategy::EqualDepth);
        let b1 = map.bin_of(1);
        assert!(
            [2, 3, 4, 5].iter().all(|&v| map.bin_of(v) != b1),
            "heavy value should be isolated"
        );
    }

    #[test]
    fn gbsa_groups_similar_counts() {
        // Counts: {1,2}:100, {3,4}:10, {5,6}:1 — GBSA with k=3 should
        // recover exactly these groups (zero within-bin variance).
        let f = freq(&[(1, 100), (2, 100), (3, 10), (4, 10), (5, 1), (6, 1)]);
        let map = build_group_bins(&[&f], 3, BinningStrategy::Gbsa);
        assert_eq!(map.bin_of(1), map.bin_of(2));
        assert_eq!(map.bin_of(3), map.bin_of(4));
        assert_eq!(map.bin_of(5), map.bin_of(6));
        assert_ne!(map.bin_of(1), map.bin_of(3));
        assert_ne!(map.bin_of(3), map.bin_of(5));
    }

    #[test]
    fn gbsa_refines_for_second_key() {
        // Key A (PK): every value count 1 → any binning has zero variance.
        // Key B (FK): values 1..8, counts 1,1,1,1,100,100,100,100.
        // GBSA must separate the heavy B values from the light ones.
        let a: KeyFreq = (1..=8).map(|v| (v, 1u64)).collect();
        let b = freq(&[
            (1, 1),
            (2, 1),
            (3, 1),
            (4, 1),
            (5, 100),
            (6, 100),
            (7, 100),
            (8, 100),
        ]);
        let map = build_group_bins(&[&a, &b], 4, BinningStrategy::Gbsa);
        // No bin mixes a count-1 and a count-100 value of B.
        let bins = bins_of(&map, &[1, 2, 3, 4, 5, 6, 7, 8]);
        for bin in bins.iter().filter(|bn| !bn.is_empty()) {
            let heavy = bin.iter().filter(|&&v| b.get(v) >= 100).count();
            assert!(
                heavy == 0 || heavy == bin.len(),
                "bin {bin:?} mixes heavy and light B values"
            );
        }
    }

    #[test]
    fn gbsa_variance_beats_equal_width_on_skew() {
        // Zipf-ish counts over an interleaved domain: equal-width mixes
        // heavy and light values; GBSA should achieve lower total variance.
        let f: KeyFreq = (0..200)
            .map(|v| {
                (
                    v,
                    if v % 10 == 0 {
                        1000u64
                    } else {
                        (v % 7 + 1) as u64
                    },
                )
            })
            .collect();
        let domain: Vec<i64> = (0..200).collect();
        let var_of = |map: &KeyBinMap| -> f64 {
            bins_of(map, &domain)
                .iter()
                .filter(|b| !b.is_empty())
                .map(|b| count_variance(b.iter().map(|&v| f.get(v))))
                .sum()
        };
        let gb = build_group_bins(&[&f], 20, BinningStrategy::Gbsa);
        let ew = build_group_bins(&[&f], 20, BinningStrategy::EqualWidth);
        assert!(
            var_of(&gb) < var_of(&ew) / 10.0,
            "gbsa {} vs equal-width {}",
            var_of(&gb),
            var_of(&ew)
        );
    }

    #[test]
    fn k_clamps_to_domain_size() {
        let f = freq(&[(1, 5), (2, 5)]);
        let map = build_group_bins(&[&f], 100, BinningStrategy::Gbsa);
        assert!(map.k() <= 2);
    }

    #[test]
    fn single_bin_budget() {
        let f = freq(&[(1, 5), (2, 7), (3, 2)]);
        let map = build_group_bins(&[&f], 1, BinningStrategy::Gbsa);
        assert_eq!(map.k(), 1);
        assert_eq!(map.bin_of(1), 0);
        assert_eq!(map.bin_of(3), 0);
    }

    #[test]
    fn budget_split_by_workload() {
        let weights: HashMap<usize, f64> = [(0, 3.0), (1, 1.0)].into_iter().collect();
        let b = BinBudget::Workload {
            total: 200,
            weights,
        };
        assert_eq!(b.bins_for(0, 2), 150);
        assert_eq!(b.bins_for(1, 2), 50);
        let u = BinBudget::Uniform(42);
        assert_eq!(u.bins_for(0, 5), 42);
        assert_eq!(u.bins_for(4, 5), 42);
    }

    #[test]
    fn multi_member_union_domain() {
        let a = freq(&[(1, 1), (2, 1)]);
        let b = freq(&[(2, 5), (3, 5)]);
        let map = build_group_bins(&[&a, &b], 2, BinningStrategy::EqualDepth);
        // All of 1, 2, 3 are assigned.
        for v in [1, 2, 3] {
            assert!(map.bin_of(v) < 2);
        }
    }

    #[test]
    fn bins_partition_domain_for_all_strategies_and_budgets() {
        // Skewed frequency map: every domain value must land in exactly one
        // bin below k, for every strategy and a sweep of budgets.
        let f: KeyFreq = (0..97).map(|v| (v * 3, (1 + v % 13) as u64 * 7)).collect();
        let domain: Vec<i64> = f.iter().map(|(v, _)| v).collect();
        for strat in [
            BinningStrategy::Gbsa,
            BinningStrategy::EqualWidth,
            BinningStrategy::EqualDepth,
        ] {
            for k in [1usize, 2, 5, 13, 64, 500] {
                let map = build_group_bins(&[&f], k, strat);
                assert!(map.k() <= k.max(1), "{strat:?} k={k}: produced {}", map.k());
                assert!(
                    map.k() <= domain.len(),
                    "{strat:?} k={k}: more bins than values"
                );
                let mut per_bin = vec![0usize; map.k()];
                for &v in &domain {
                    let b = map.bin_of(v);
                    assert!(
                        b < map.k(),
                        "{strat:?} k={k}: value {v} → bin {b} out of range"
                    );
                    per_bin[b] += 1;
                }
                let assigned: usize = per_bin.iter().sum();
                assert_eq!(
                    assigned,
                    domain.len(),
                    "{strat:?} k={k}: partition covers domain"
                );
            }
        }
    }

    #[test]
    fn bin_counts_sum_to_table_cardinality() {
        use crate::keystats::KeyStats;
        // Per-bin totals under any binning must sum to the column's non-null
        // cardinality: bins partition values, so no row is lost or counted
        // twice.
        let f: KeyFreq = (0..60)
            .map(|v| {
                (
                    v,
                    if v % 9 == 0 {
                        500u64
                    } else {
                        (v % 5 + 1) as u64
                    },
                )
            })
            .collect();
        let cardinality: u64 = f.iter().map(|(_, c)| c).sum();
        for strat in [
            BinningStrategy::Gbsa,
            BinningStrategy::EqualWidth,
            BinningStrategy::EqualDepth,
        ] {
            for k in [1usize, 4, 16, 60] {
                let map = build_group_bins(&[&f], k, strat);
                let stats = KeyStats::from_freq(f.clone(), &map);
                assert_eq!(
                    stats.total(),
                    cardinality as f64,
                    "{strat:?} k={k}: per-bin totals must sum to the cardinality"
                );
                // MFV dominates the mean but never exceeds the bin total.
                for b in 0..map.k() {
                    assert!(
                        stats.bin_mfv[b] <= stats.bin_total[b],
                        "{strat:?} k={k} bin {b}"
                    );
                    assert!(
                        stats.bin_ndv[b] == 0.0 || stats.bin_mfv[b] >= 1.0,
                        "{strat:?} k={k} bin {b}: non-empty bin needs an MFV"
                    );
                }
            }
        }
    }

    #[test]
    fn workload_budget_floors_at_one_bin() {
        // Zero/missing weights must still yield at least one bin per group,
        // and heavily-weighted groups get proportionally more.
        let weights: HashMap<usize, f64> = [(0, 0.0), (1, 1000.0)].into_iter().collect();
        let b = BinBudget::Workload {
            total: 100,
            weights,
        };
        assert!(b.bins_for(0, 3) >= 1, "zero-weight group still binned");
        assert!(b.bins_for(2, 3) >= 1, "missing-weight group still binned");
        assert!(
            b.bins_for(1, 3) > b.bins_for(2, 3),
            "weighting is proportional"
        );
        let tiny = BinBudget::Workload {
            total: 1,
            weights: HashMap::new(),
        };
        for g in 0..4 {
            assert_eq!(tiny.bins_for(g, 4).max(1), tiny.bins_for(g, 4));
        }
        assert_eq!(
            BinBudget::Uniform(0).bins_for(0, 1),
            1,
            "uniform budget floors at 1"
        );
    }

    /// Binning straight off the frequency maps — the domain through a
    /// `HashSet`, every sort probing the maps from its comparator: the
    /// oracle the count-slab versions must equal.
    mod by_comparator {
        use super::super::*;

        pub fn build(freqs: &[&KeyFreq], k: usize, strategy: BinningStrategy) -> KeyBinMap {
            let mut domain: Vec<i64> = freqs
                .iter()
                .flat_map(|f| f.iter().map(|(v, _)| v))
                .collect::<std::collections::HashSet<i64>>()
                .into_iter()
                .collect();
            domain.sort_unstable();
            if domain.is_empty() {
                return KeyBinMap::single_bin();
            }
            let k = k.clamp(1, domain.len());
            let assign = match strategy {
                BinningStrategy::EqualWidth => equal_width(&domain, k),
                BinningStrategy::EqualDepth => equal_depth(&domain, freqs, k),
                BinningStrategy::Gbsa => gbsa(&domain, freqs, k),
            };
            KeyBinMap::new(k, assign)
        }

        fn equal_depth(domain: &[i64], freqs: &[&KeyFreq], k: usize) -> Vec<(i64, u32)> {
            let total_count = |v: i64| -> u64 { freqs.iter().map(|f| f.get(v)).sum() };
            let total: u64 = domain.iter().map(|&v| total_count(v)).sum();
            let per = (total as f64 / k as f64).max(1.0);
            let mut out = Vec::with_capacity(domain.len());
            let mut acc = 0f64;
            let mut bin = 0u32;
            for &v in domain {
                out.push((v, bin));
                acc += total_count(v) as f64;
                if acc >= per * (bin as f64 + 1.0) && (bin as usize) < k - 1 {
                    bin += 1;
                }
            }
            out
        }

        fn gbsa(domain: &[i64], freqs: &[&KeyFreq], k: usize) -> Vec<(i64, u32)> {
            let mut order: Vec<usize> = (0..freqs.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(freqs[i].len()));
            let first = freqs[order[0]];
            let k_init = if freqs.len() == 1 { k } else { (k / 2).max(1) };
            let mut bins = min_variance_bins(domain, first, k_init);
            let mut remaining = k.saturating_sub(bins.len());
            for &j in order.iter().skip(1) {
                if remaining == 0 {
                    break;
                }
                let fj = freqs[j];
                let mut ranked: Vec<(f64, usize)> = bins
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.len() > 1)
                    .map(|(i, b)| (count_variance(b, fj), i))
                    .collect();
                ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("variance is finite"));
                let splits = (remaining / 2).max(1).min(ranked.len()).min(remaining);
                let targets: Vec<usize> = ranked.iter().take(splits).map(|&(_, i)| i).collect();
                let mut used = 0;
                for i in targets {
                    if let Some((a, b)) = min_variance_dichotomy(&bins[i], fj) {
                        bins[i] = a;
                        bins.push(b);
                        used += 1;
                    }
                }
                remaining -= used;
            }
            while remaining > 0 {
                let (idx, _) = match bins
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.len() > 1)
                    .max_by_key(|(_, b)| b.len())
                {
                    Some((i, b)) => (i, b.len()),
                    None => break,
                };
                match min_variance_dichotomy(&bins[idx], first) {
                    Some((a, b)) => {
                        bins[idx] = a;
                        bins.push(b);
                        remaining -= 1;
                    }
                    None => break,
                }
            }
            bins.iter()
                .enumerate()
                .flat_map(|(bi, b)| b.iter().map(move |&v| (v, bi as u32)))
                .collect()
        }

        fn min_variance_bins(domain: &[i64], freq: &KeyFreq, k: usize) -> Vec<Vec<i64>> {
            let mut by_count: Vec<i64> = domain.to_vec();
            by_count.sort_by_key(|&v| (freq.get(v), v));
            let k = k.clamp(1, by_count.len());
            let per = by_count.len().div_ceil(k);
            by_count.chunks(per).map(|c| c.to_vec()).collect()
        }

        fn count_variance(bin: &[i64], freq: &KeyFreq) -> f64 {
            if bin.len() < 2 {
                return 0.0;
            }
            let counts: Vec<f64> = bin.iter().map(|&v| freq.get(v) as f64).collect();
            let n = counts.len() as f64;
            let mean = counts.iter().sum::<f64>() / n;
            counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / n
        }

        fn min_variance_dichotomy(bin: &[i64], freq: &KeyFreq) -> Option<(Vec<i64>, Vec<i64>)> {
            if bin.len() < 2 {
                return None;
            }
            let mut sorted: Vec<i64> = bin.to_vec();
            sorted.sort_by_key(|&v| (freq.get(v), v));
            let mid = sorted.len() / 2;
            let right = sorted.split_off(mid);
            Some((sorted, right))
        }
    }

    /// The bin count, the assignments in slab order and the slab size of a
    /// map. Under linear probing the set of occupied slots depends only on
    /// the values and the slab size, so equal parts mean an equal slab,
    /// slot for slot — and equal `.fjm` bytes.
    fn raw(map: &KeyBinMap) -> (usize, Vec<(i64, u32)>, usize) {
        (map.k(), map.entries().collect(), map.heap_bytes())
    }

    use proptest::prelude::*;

    proptest! {
        /// GBSA and equal-depth over count slabs build the same maps, slab
        /// for slab, as the comparator-sort oracle — on groups of 1–5
        /// members with overlapping domains, counts with many ties, narrow
        /// domains and domains as wide as `i64`, and budgets from one bin
        /// to more bins than values.
        #[test]
        fn keyed_binning_equals_the_comparator_sort(
            members in prop::collection::vec(
                prop::collection::vec((-40i64..200, 1u64..6), 0..120),
                1..6,
            ),
            heavy in prop::collection::vec((-40i64..200, 1u64..100_000), 0..8),
            wide in prop::collection::vec((i64::MIN..i64::MAX, 1u64..6), 0..3),
            k in 1usize..80,
        ) {
            let mut freqs: Vec<KeyFreq> = members
                .iter()
                .map(|entries| entries.iter().copied().collect())
                .collect();
            let n = freqs.len();
            for &(v, c) in heavy.iter().chain(&wide) {
                freqs[v.unsigned_abs() as usize % n].add(v, c);
            }
            let refs: Vec<&KeyFreq> = freqs.iter().collect();
            for strategy in [BinningStrategy::Gbsa, BinningStrategy::EqualDepth] {
                prop_assert_eq!(
                    raw(&build_group_bins(&refs, k, strategy)),
                    raw(&by_comparator::build(&refs, k, strategy)),
                    "{:?} k={}", strategy, k
                );
            }
        }
    }
}
