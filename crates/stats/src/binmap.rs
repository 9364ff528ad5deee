//! Value→bin maps for join-key columns.
//!
//! Bins in FactorJoin partition a key group's *value set*, not its value
//! range: GBSA (paper §4.2) groups values by frequency, so a bin is an
//! arbitrary subset of the domain. [`KeyBinMap`] materializes the mapping
//! as a hash map plus a deterministic fallback for values never seen during
//! binning (which appear after incremental inserts, paper §4.3).

use fj_storage::codec::{Dec, DecodeError, EntryReader};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Mapping from join-key values to bin indices `0..k`.
///
/// Stored as a flat open-addressing table (two parallel slabs, linear
/// probing, multiply-rotate hash) rather than a std `HashMap`: `bin_of`
/// sits on every hot path in the system — per row in exact/sampled
/// profiling, per inserted row in incremental updates — and the flat
/// layout answers it with one mix and a short probe instead of SipHash
/// plus bucket indirection. `u32::MAX` marks an empty slot (bin indices
/// are always `< k`, and `k` is far below that). `factorjoin::KeyFreq` is
/// the sibling slab for i64→count profiling (zero-count sentinel, low
/// hash bits) — a probe/grow fix here likely applies there too.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KeyBinMap {
    k: usize,
    /// Slot keys; meaningful only where `bins` is not the empty sentinel.
    keys: Vec<i64>,
    /// Slot bin indices; `u32::MAX` = empty slot.
    bins: Vec<u32>,
    len: usize,
}

const EMPTY: u32 = u32::MAX;

impl KeyBinMap {
    /// Creates a map with `k` bins from explicit `(value, bin)` assignments.
    ///
    /// The slab layout (which slot a colliding value lands in) follows the
    /// order of `assignments`; lookups do not depend on it. A map without
    /// assignments allocates nothing.
    pub fn new(k: usize, assignments: impl IntoIterator<Item = (i64, u32)>) -> Self {
        assert!(k > 0, "at least one bin required");
        let assignments: Vec<(i64, u32)> = assignments.into_iter().collect();
        let mut out = Self::sized(k, assignments.len());
        let mask = out.keys.len().wrapping_sub(1);
        for (v, b) in assignments {
            debug_assert!((b as usize) < k, "bin index out of range");
            let mut slot = (fxhash(v) >> 32) as usize & mask;
            while out.bins[slot] != EMPTY && out.keys[slot] != v {
                slot = (slot + 1) & mask;
            }
            out.len += usize::from(out.bins[slot] == EMPTY);
            out.keys[slot] = v;
            out.bins[slot] = b;
        }
        out
    }

    /// An empty map with room for `n` assignments: sized once, at most 7/8
    /// full, so every probe ends at an empty slot; the map is never
    /// written again once filled.
    fn sized(k: usize, n: usize) -> Self {
        let cap = match n {
            0 => 0,
            n => (n * 8 / 7 + 1).next_power_of_two().max(8),
        };
        KeyBinMap {
            k,
            keys: vec![0; cap],
            bins: vec![EMPTY; cap],
            len: 0,
        }
    }

    /// Assigns a `value` known to be absent, in a slab with room for it.
    #[inline]
    fn insert_new(&mut self, value: i64, bin: u32) {
        let mask = self.keys.len() - 1;
        let mut slot = (fxhash(value) >> 32) as usize & mask;
        while self.bins[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        self.len += 1;
        self.keys[slot] = value;
        self.bins[slot] = bin;
    }

    /// Single-bin map (the k=1 ablation of paper Figure 9).
    pub fn single_bin() -> Self {
        Self::new(1, [])
    }

    /// Number of bins.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of explicitly assigned values.
    pub fn assigned(&self) -> usize {
        self.len
    }

    /// Bin of `value`. Unseen values hash deterministically into a bin so
    /// that inserted data lands in a stable place without re-binning.
    #[inline]
    pub fn bin_of(&self, value: i64) -> usize {
        if !self.keys.is_empty() {
            let mask = self.keys.len() - 1;
            let mut slot = (fxhash(value) >> 32) as usize & mask;
            loop {
                let b = self.bins[slot];
                if b == EMPTY {
                    break;
                }
                if self.keys[slot] == value {
                    return b as usize;
                }
                slot = (slot + 1) & mask;
            }
        }
        (fxhash(value) % self.k as u64) as usize
    }

    /// Approximate heap size in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.keys.len() * 8 + self.bins.len() * 4
    }

    /// The explicit assignments sorted by value — the canonical form a
    /// model file stores, whatever order the slab holds them in.
    pub fn sorted_entries(&self) -> Vec<(i64, u32)> {
        let mut out: Vec<(i64, u32)> = self.entries().collect();
        out.sort_unstable();
        out
    }

    /// Reads a map written as its [`Self::sorted_entries`] by
    /// [`fj_storage::codec::encode_entries`], filling the slab as the pairs
    /// decode — no vector of pairs in between. The outer error is the byte
    /// stream's (truncated, overflowing, a hostile count); the inner one is
    /// what a corrupt file could break: `k > 0`, values strictly increasing
    /// (so no value is assigned twice), and every bin `< k`. Filled in
    /// value order, so the slab is laid out as [`Self::new`] lays out the
    /// same entries.
    pub fn from_sorted_entries(
        k: usize,
        d: &mut Dec<'_>,
        what: &'static str,
    ) -> Result<Result<Self, String>, DecodeError> {
        let mut entries = EntryReader::new(d, what)?;
        let mut out = Self::sized(k, entries.count());
        let mut out_of_range = None;
        for _ in 0..entries.count() {
            let (v, b) = entries.next_pair(d)?;
            let b = u32::try_from(b).unwrap_or(u32::MAX);
            if b as usize >= k {
                out_of_range.get_or_insert((v, b));
            } else if entries.in_order() {
                out.insert_new(v, b);
            }
        }
        if k == 0 {
            return Ok(Err("at least one bin required".into()));
        }
        Ok(entries.unordered().and_then(|()| match out_of_range {
            Some((v, b)) => Err(format!("value {v}: bin {b} out of range for k={k}")),
            None => Ok(out),
        }))
    }

    /// Iterates over the explicit (value, bin) assignments in slab order.
    pub fn entries(&self) -> impl Iterator<Item = (i64, u32)> + '_ {
        self.keys
            .iter()
            .zip(&self.bins)
            .filter(|&(_, &b)| b != EMPTY)
            .map(|(&v, &b)| (v, b))
    }
}

/// Multiply-rotate mix. The *fallback bin* (`hash % k`) uses the low bits
/// and the *slot index* uses the high bits, so explicit assignments and
/// fallback assignments stay decorrelated.
#[inline]
fn fxhash(v: i64) -> u64 {
    (v as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
}

/// The bin maps for every join-key column of one table.
///
/// Maps are held behind `Arc`s: a key group's bin map is built once and
/// never mutated afterwards (incremental inserts route new values through
/// [`KeyBinMap::bin_of`]'s fallback, paper §4.3), so the model, every table
/// and every single-table estimator that references the same group share
/// one allocation. That makes both cold builds and the hot-swap model
/// clone O(refcount) per map instead of O(assigned values).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TableBins {
    per_key: HashMap<String, Arc<KeyBinMap>>,
}

impl TableBins {
    /// Empty set of bins (table with no join keys).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the bin map for `column`.
    pub fn insert(&mut self, column: &str, map: KeyBinMap) {
        self.insert_shared(column, Arc::new(map));
    }

    /// Adds an already-shared bin map for `column` (training shares one
    /// `Arc` per key group across all referencing tables).
    pub fn insert_shared(&mut self, column: &str, map: Arc<KeyBinMap>) {
        self.per_key.insert(column.to_string(), map);
    }

    /// Bin map of `column`, if it is a binned join key.
    pub fn get(&self, column: &str) -> Option<&KeyBinMap> {
        self.per_key.get(column).map(Arc::as_ref)
    }

    /// Shared handle to `column`'s bin map (estimators keep the `Arc`).
    pub fn get_shared(&self, column: &str) -> Option<&Arc<KeyBinMap>> {
        self.per_key.get(column)
    }

    /// Iterates over (column, map) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &KeyBinMap)> {
        self.per_key.iter().map(|(k, v)| (k, v.as_ref()))
    }

    /// Number of binned key columns.
    pub fn len(&self) -> usize {
        self.per_key.len()
    }

    /// True when no key columns are binned.
    pub fn is_empty(&self) -> bool {
        self.per_key.is_empty()
    }

    /// Approximate heap size in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.per_key.values().map(|m| m.heap_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_storage::codec::{encode_entries, Enc};

    /// The whole slab: bin count, slots, assigned values and where they sit.
    fn layout(m: &KeyBinMap) -> (usize, Vec<i64>, Vec<u32>, usize) {
        (m.k, m.keys.clone(), m.bins.clone(), m.len)
    }

    #[test]
    fn explicit_assignments_resolve() {
        let map: HashMap<i64, u32> = [(10, 0), (20, 1), (30, 1)].into_iter().collect();
        let b = KeyBinMap::new(3, map);
        assert_eq!(b.bin_of(10), 0);
        assert_eq!(b.bin_of(20), 1);
        assert_eq!(b.bin_of(30), 1);
        assert_eq!(b.k(), 3);
        assert_eq!(b.assigned(), 3);
    }

    #[test]
    fn unseen_values_fall_back_deterministically() {
        let b = KeyBinMap::new(7, HashMap::new());
        let x = b.bin_of(999);
        assert_eq!(x, b.bin_of(999));
        assert!(x < 7);
        // Different values spread across bins.
        let bins: std::collections::HashSet<usize> = (0..100).map(|v| b.bin_of(v)).collect();
        assert!(bins.len() > 3, "fallback should spread: {bins:?}");
    }

    #[test]
    fn single_bin_maps_everything_to_zero() {
        let b = KeyBinMap::single_bin();
        assert_eq!(b.bin_of(i64::MAX), 0);
        assert_eq!(b.bin_of(-5), 0);
        assert_eq!(b.k(), 1);
    }

    #[test]
    fn table_bins_lookup() {
        let mut tb = TableBins::new();
        tb.insert("id", KeyBinMap::single_bin());
        assert!(tb.get("id").is_some());
        assert!(tb.get("other").is_none());
        assert_eq!(tb.len(), 1);
        assert!(!tb.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        KeyBinMap::new(0, HashMap::new());
    }

    /// `entries` through the byte form a model file stores them in.
    fn read(k: usize, entries: &[(i64, u32)]) -> Result<KeyBinMap, String> {
        let wide: Vec<(i64, u64)> = entries.iter().map(|&(v, b)| (v, b.into())).collect();
        let mut e = Enc::default();
        encode_entries(&mut e, &wide);
        let bytes = e.finish();
        KeyBinMap::from_sorted_entries(k, &mut Dec::new(&bytes), "entries")
            .expect("well-formed bytes")
    }

    #[test]
    fn sorted_entries_roundtrip_preserves_lookups() {
        let map: HashMap<i64, u32> = (0..500).map(|v| (v * 13, (v % 9) as u32)).collect();
        let b = KeyBinMap::new(9, map);
        let entries = b.sorted_entries();
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let back = read(b.k(), &entries).unwrap();
        assert_eq!(back.k(), b.k());
        assert_eq!(back.assigned(), b.assigned());
        assert_eq!(back.heap_bytes(), b.heap_bytes());
        for v in -1000..1000 {
            assert_eq!(back.bin_of(v), b.bin_of(v), "value {v}");
        }
        assert_eq!(back.sorted_entries(), entries);
        // The same slab as `new` fed the sorted entries.
        let sorted = KeyBinMap::new(b.k(), entries.iter().copied());
        assert_eq!(layout(&back), layout(&sorted));
    }

    /// The rebuild `from_sorted_entries` replaced: collect every pair,
    /// validate the vector, then build the map with `new`.
    fn per_entry(k: usize, d: &mut Dec<'_>) -> Result<Result<KeyBinMap, String>, DecodeError> {
        let n = d.count("bins", 2)?;
        let mut entries = Vec::with_capacity(n);
        let mut prev = 0i64;
        for _ in 0..n {
            prev = prev.wrapping_add(d.zigzag("bins")?);
            let b = d.varint("bins")?;
            entries.push((prev, u32::try_from(b).unwrap_or(u32::MAX)));
        }
        if k == 0 {
            return Ok(Err("at least one bin required".into()));
        }
        if let Some(w) = entries.windows(2).find(|w| w[0].0 >= w[1].0) {
            return Ok(Err(format!(
                "values not strictly increasing: {} then {}",
                w[0].0, w[1].0
            )));
        }
        if let Some(&(v, b)) = entries.iter().find(|&&(_, b)| b as usize >= k) {
            return Ok(Err(format!("value {v}: bin {b} out of range for k={k}")));
        }
        Ok(Ok(KeyBinMap::new(k, entries)))
    }

    /// Filling the slab from the bytes gives the slab the per-entry path
    /// built — raw parts equal — and rejects every corrupt stream with the
    /// same error: bins out of range (or beyond 32 bits), values repeated
    /// or out of order and `k = 0`, then truncated, overflowing or hostile
    /// bytes on top, alone or together.
    #[test]
    fn streamed_rebuild_matches_the_per_entry_path() {
        let map: HashMap<i64, u32> = (0..300).map(|v| (v * 37 - 4000, (v % 11) as u32)).collect();
        let base: Vec<(i64, u64)> = KeyBinMap::new(11, map)
            .sorted_entries()
            .into_iter()
            .map(|(v, b)| (v, b.into()))
            .collect();
        let parts = |r: Result<Result<KeyBinMap, String>, DecodeError>| {
            r.map(|inner| inner.map(|m| layout(&m)))
        };
        let mut state = 3u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 24
        };
        for round in 0..3000 {
            let mut entries = base.clone();
            for _ in 0..round % 4 {
                let i = next() as usize % entries.len();
                match next() % 3 {
                    0 => entries[i].1 = [11, 12, 1 << 33][next() as usize % 3],
                    1 => entries[i].0 = entries[i.saturating_sub(1)].0 - (next() % 3) as i64,
                    _ => entries[i].1 = next() % 13,
                }
            }
            let mut e = Enc::default();
            encode_entries(&mut e, &entries);
            let mut b = e.finish();
            if round % 3 == 2 {
                let at = next() as usize % b.len();
                b[at] = [0, 0x80, 0xFF, 0x7F][next() as usize % 4];
            }
            if round % 7 == 6 {
                b.truncate(next() as usize % (b.len() + 1));
            }
            let k = [11, 12, 3, 0][round % 4];
            let streamed = KeyBinMap::from_sorted_entries(k, &mut Dec::new(&b), "bins");
            let want = per_entry(k, &mut Dec::new(&b));
            assert_eq!(parts(streamed), parts(want), "round {round}, k = {k}");
        }
    }

    #[test]
    fn from_sorted_entries_rejects_invalid_entries() {
        // k = 0.
        assert!(read(0, &[]).is_err());
        // Repeated and decreasing values.
        assert!(read(2, &[(1, 0), (1, 1)]).is_err());
        assert!(read(2, &[(5, 0), (1, 1)]).is_err());
        // Bin index out of range.
        assert!(read(2, &[(1, 0), (2, 2)]).is_err());
        // An empty map allocates nothing, like `single_bin`.
        let empty = read(3, &[]).unwrap();
        assert_eq!((empty.assigned(), empty.heap_bytes()), (0, 0));
        assert!(empty.bin_of(7) < 3);
        assert_eq!(KeyBinMap::single_bin().heap_bytes(), 0);
    }
}
