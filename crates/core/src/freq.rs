//! Flat open-addressing frequency counter for join-key values.
//!
//! Key-frequency profiling is the inner loop of offline training: one
//! counter bump per non-null row of every join-key column. The std
//! `HashMap` pays SipHash plus bucket indirection per bump; this map is the
//! training-side sibling of the estimation path's flat factor slabs (PR 2):
//! two parallel flat arrays (`keys`, `counts`), a multiply-rotate hash, and
//! linear probing. A count of zero marks an empty slot, which the public
//! API preserves by never storing zero counts.
//!
//! `fj_stats::KeyBinMap` carries a sibling slab specialized for i64→bin
//! lookups (different sentinel and hash-bit split; fj-stats cannot depend
//! on this crate) — a probe/grow fix here likely applies there too.
//!
//! Iteration order is slot order — arbitrary but **deterministic**: it
//! depends only on the sequence of inserts, never on pointer addresses or
//! per-process seeds. Serial and parallel training build each key's map
//! with the identical insert sequence, which is one of the pillars of the
//! bit-identical parallel build (see `crates/core/tests/parallel_train.rs`).

/// Value → occurrence-count map over `i64` join keys (see module docs).
#[derive(Debug, Clone, Default)]
pub struct KeyFreq {
    /// Slot keys; meaningful only where `counts` is non-zero.
    keys: Vec<i64>,
    /// Slot counts; `0` = empty slot (real entries are always ≥ 1).
    counts: Vec<u64>,
    /// Number of occupied slots.
    len: usize,
}

impl KeyFreq {
    /// An empty map (allocates nothing until the first insert).
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts every non-null key of `column` — the shared profiling loop
    /// of model training (wave 1), per-key statistics, and the JoinHist
    /// baseline.
    pub fn count_column(column: &fj_storage::Column) -> Self {
        let mut f = Self::default();
        for r in 0..column.len() {
            if let Some(v) = column.key_at(r) {
                f.add(v, 1);
            }
        }
        f
    }

    /// An empty map pre-sized for about `n` distinct values.
    pub fn with_capacity(n: usize) -> Self {
        let mut f = Self::default();
        if n > 0 {
            f.grow_to((n * 8 / 7 + 1).next_power_of_two().max(8));
        }
        f
    }

    /// Number of distinct values recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no values have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The count of `value` (0 when absent).
    #[inline]
    pub fn get(&self, value: i64) -> u64 {
        if self.counts.is_empty() {
            return 0;
        }
        let mask = self.keys.len() - 1;
        let mut slot = (hash(value) as usize) & mask;
        loop {
            let c = self.counts[slot];
            if c == 0 {
                return 0;
            }
            if self.keys[slot] == value {
                return c;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Adds `delta` occurrences of `value`, returning the new count.
    #[inline]
    pub fn add(&mut self, value: i64, delta: u64) -> u64 {
        if delta == 0 {
            return self.get(value);
        }
        if self.counts.is_empty() || self.len * 8 >= self.keys.len() * 7 {
            self.grow_to((self.keys.len() * 2).max(8));
        }
        let mask = self.keys.len() - 1;
        let mut slot = (hash(value) as usize) & mask;
        loop {
            let c = self.counts[slot];
            if c == 0 {
                self.keys[slot] = value;
                self.counts[slot] = delta;
                self.len += 1;
                return delta;
            }
            if self.keys[slot] == value {
                self.counts[slot] = c + delta;
                return c + delta;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Records the count of a not-yet-seen `value` outright (zero counts
    /// are dropped, they mean "absent").
    pub fn set(&mut self, value: i64, count: u64) {
        if count == 0 {
            return;
        }
        debug_assert_eq!(self.get(value), 0, "set expects a fresh value");
        self.add(value, count);
    }

    /// Iterates over `(value, count)` pairs in slot order (deterministic
    /// for a given insert sequence; see module docs).
    pub fn iter(&self) -> impl Iterator<Item = (i64, u64)> + '_ {
        self.keys
            .iter()
            .zip(&self.counts)
            .filter(|&(_, &c)| c > 0)
            .map(|(&v, &c)| (v, c))
    }

    /// All `(value, count)` pairs sorted by value (canonical order for
    /// persistence and differential tests).
    pub fn sorted_entries(&self) -> Vec<(i64, u64)> {
        let mut out: Vec<(i64, u64)> = self.iter().collect();
        out.sort_unstable();
        out
    }

    /// Approximate heap size in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.keys.len() * 8 + self.counts.len() * 8
    }

    /// Rebuilds a map from [`Self::sorted_entries`], validating what a
    /// hostile or corrupt file could break: values strictly increasing (no
    /// value twice) and every count non-zero (zero means "absent"). Sized
    /// once for the entries, so the rebuild never regrows.
    pub fn from_sorted_entries(entries: &[(i64, u64)]) -> Result<Self, String> {
        if let Some(w) = entries.windows(2).find(|w| w[0].0 >= w[1].0) {
            return Err(format!(
                "values not strictly increasing: {} then {}",
                w[0].0, w[1].0
            ));
        }
        if let Some(&(v, _)) = entries.iter().find(|&&(_, c)| c == 0) {
            return Err(format!("value {v} has a zero count"));
        }
        let mut f = Self::with_capacity(entries.len());
        for &(v, c) in entries {
            f.add(v, c);
        }
        Ok(f)
    }

    fn grow_to(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two());
        let old_keys = std::mem::replace(&mut self.keys, vec![0; cap]);
        let old_counts = std::mem::replace(&mut self.counts, vec![0; cap]);
        let mask = cap - 1;
        for (k, c) in old_keys.into_iter().zip(old_counts) {
            if c == 0 {
                continue;
            }
            let mut slot = (hash(k) as usize) & mask;
            while self.counts[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.keys[slot] = k;
            self.counts[slot] = c;
        }
    }
}

/// Fibonacci-style multiply-rotate mix — same family as the `KeyBinMap`
/// fallback hash; one multiply and a rotate, no per-process seed.
#[inline]
fn hash(v: i64) -> u64 {
    (v as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(23)
}

impl FromIterator<(i64, u64)> for KeyFreq {
    fn from_iter<T: IntoIterator<Item = (i64, u64)>>(iter: T) -> Self {
        let mut f = KeyFreq::new();
        for (v, c) in iter {
            f.add(v, c);
        }
        f
    }
}

impl PartialEq for KeyFreq {
    /// Set equality: same value→count pairs, regardless of slot layout.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().all(|(v, c)| other.get(v) == c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_len() {
        let mut f = KeyFreq::new();
        assert_eq!(f.get(5), 0);
        assert!(f.is_empty());
        assert_eq!(f.add(5, 1), 1);
        assert_eq!(f.add(5, 2), 3);
        assert_eq!(f.add(-9, 1), 1);
        assert_eq!(f.get(5), 3);
        assert_eq!(f.get(-9), 1);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn grows_past_many_distinct_values() {
        let mut f = KeyFreq::new();
        for v in 0..10_000i64 {
            f.add(v * 31, (v % 7 + 1) as u64);
        }
        assert_eq!(f.len(), 10_000);
        for v in 0..10_000i64 {
            assert_eq!(f.get(v * 31), (v % 7 + 1) as u64, "value {v}");
        }
        assert_eq!(f.get(1), 0);
    }

    #[test]
    fn iter_covers_all_entries_and_sorted_is_canonical() {
        let f: KeyFreq = [(3, 1u64), (-7, 4), (100, 2)].into_iter().collect();
        let mut seen: Vec<(i64, u64)> = f.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(-7, 4), (3, 1), (100, 2)]);
        assert_eq!(f.sorted_entries(), seen);
    }

    #[test]
    fn set_restores_counts() {
        let mut f = KeyFreq::new();
        f.set(42, 17);
        f.set(43, 1);
        f.set(44, 0); // no-op
        assert_eq!(f.get(42), 17);
        assert_eq!(f.get(44), 0);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn equality_is_layout_independent() {
        // Same entries, inserted in different orders (→ different slot
        // layouts after growth), still compare equal.
        let a: KeyFreq = (0..1000).map(|v| (v, (v % 5 + 1) as u64)).collect();
        let b: KeyFreq = (0..1000).rev().map(|v| (v, (v % 5 + 1) as u64)).collect();
        assert_eq!(a, b);
        let mut c = b.clone();
        c.add(5000, 1);
        assert_ne!(a, c);
    }

    #[test]
    fn iteration_is_deterministic_for_a_given_insert_sequence() {
        let build = || {
            let mut f = KeyFreq::new();
            for v in 0..500i64 {
                f.add((v * 9173) % 613, 1);
            }
            f
        };
        let a: Vec<(i64, u64)> = build().iter().collect();
        let b: Vec<(i64, u64)> = build().iter().collect();
        assert_eq!(a, b, "same insert sequence must give same slot order");
    }

    #[test]
    fn extreme_keys() {
        let mut f = KeyFreq::new();
        f.add(i64::MAX, 1);
        f.add(i64::MIN, 2);
        f.add(0, 3);
        assert_eq!(f.get(i64::MAX), 1);
        assert_eq!(f.get(i64::MIN), 2);
        assert_eq!(f.get(0), 3);
    }

    #[test]
    fn sorted_entries_roundtrip_preserves_counts() {
        let mut f = KeyFreq::new();
        for v in 0..2000i64 {
            f.add((v * 7919) % 997, 1 + (v % 13) as u64);
        }
        let entries = f.sorted_entries();
        let back = KeyFreq::from_sorted_entries(&entries).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.sorted_entries(), entries);
    }

    #[test]
    fn from_sorted_entries_rejects_invalid_entries() {
        assert!(KeyFreq::from_sorted_entries(&[(1, 1), (1, 2)]).is_err());
        assert!(KeyFreq::from_sorted_entries(&[(3, 1), (1, 2)]).is_err());
        assert!(KeyFreq::from_sorted_entries(&[(1, 1), (2, 0)]).is_err());
        let empty = KeyFreq::from_sorted_entries(&[]).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn with_capacity_avoids_regrowth() {
        let mut f = KeyFreq::with_capacity(100);
        let bytes = f.heap_bytes();
        for v in 0..100 {
            f.add(v, 1);
        }
        assert_eq!(f.heap_bytes(), bytes, "pre-sized map must not regrow");
    }
}
