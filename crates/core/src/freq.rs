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

use fj_storage::codec::{Dec, DecodeError, EntryReader};

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

    /// Reads a map written as its [`Self::sorted_entries`] by
    /// [`fj_storage::codec::encode_entries`], filling the slab as the pairs
    /// decode — no vector of pairs in between. The outer error is the byte
    /// stream's (truncated, overflowing, a hostile count); the inner one is
    /// what a corrupt file could break: values strictly increasing (no
    /// value twice) and every count non-zero (zero means "absent"). Sized
    /// once for the entries and filled in value order, so the slab never
    /// regrows and is laid out as [`Self::add`] in that order lays it out.
    pub fn from_sorted_entries(
        d: &mut Dec<'_>,
        what: &'static str,
    ) -> Result<Result<Self, String>, DecodeError> {
        let mut entries = EntryReader::new(d, what)?;
        let mut f = Self::with_capacity(entries.count());
        let mut zero = None;
        for _ in 0..entries.count() {
            let (v, c) = entries.next_pair(d)?;
            if c == 0 {
                zero.get_or_insert(v);
            } else if entries.in_order() {
                f.insert_new(v, c);
            }
        }
        Ok(entries.unordered().and_then(|()| match zero {
            Some(v) => Err(format!("value {v} has a zero count")),
            None => Ok(f),
        }))
    }

    /// Stores a `value` known to be absent in a slab with room for it.
    #[inline]
    fn insert_new(&mut self, value: i64, count: u64) {
        let mask = self.keys.len() - 1;
        let mut slot = (hash(value) as usize) & mask;
        while self.counts[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        self.keys[slot] = value;
        self.counts[slot] = count;
        self.len += 1;
    }

    fn grow_to(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two());
        let old_keys = std::mem::replace(&mut self.keys, vec![0; cap]);
        let old_counts = std::mem::replace(&mut self.counts, vec![0; cap]);
        self.len = 0;
        for (k, c) in old_keys.into_iter().zip(old_counts) {
            if c != 0 {
                self.insert_new(k, c);
            }
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
    use fj_storage::codec::{encode_entries, Enc};

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

    /// `entries` through the byte form a model file stores them in.
    fn read(entries: &[(i64, u64)]) -> Result<KeyFreq, String> {
        let mut e = Enc::default();
        encode_entries(&mut e, entries);
        let bytes = e.finish();
        KeyFreq::from_sorted_entries(&mut Dec::new(&bytes), "entries").expect("well-formed bytes")
    }

    #[test]
    fn sorted_entries_roundtrip_preserves_counts() {
        let mut f = KeyFreq::new();
        for v in 0..2000i64 {
            f.add((v * 7919) % 997, 1 + (v % 13) as u64);
        }
        let entries = f.sorted_entries();
        let back = read(&entries).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.sorted_entries(), entries);
    }

    #[test]
    fn from_sorted_entries_rejects_invalid_entries() {
        assert!(read(&[(1, 1), (1, 2)]).is_err());
        assert!(read(&[(3, 1), (1, 2)]).is_err());
        assert!(read(&[(1, 1), (2, 0)]).is_err());
        let empty = read(&[]).unwrap();
        assert!(empty.is_empty());
    }

    /// The rebuild `from_sorted_entries` replaced: collect every pair,
    /// validate the vector, then add the pairs in order.
    fn per_entry(d: &mut Dec<'_>) -> Result<Result<KeyFreq, String>, DecodeError> {
        let n = d.count("freq", 2)?;
        let mut entries = Vec::with_capacity(n);
        let mut prev = 0i64;
        for _ in 0..n {
            prev = prev.wrapping_add(d.zigzag("freq")?);
            entries.push((prev, d.varint("freq")?));
        }
        if let Some(w) = entries.windows(2).find(|w| w[0].0 >= w[1].0) {
            return Ok(Err(format!(
                "values not strictly increasing: {} then {}",
                w[0].0, w[1].0
            )));
        }
        if let Some(&(v, _)) = entries.iter().find(|&&(_, c)| c == 0) {
            return Ok(Err(format!("value {v} has a zero count")));
        }
        let mut f = KeyFreq::with_capacity(entries.len());
        for (v, c) in entries {
            f.add(v, c);
        }
        Ok(Ok(f))
    }

    /// Filling the slab from the bytes gives the slab the per-entry path
    /// built — same slots in the same order — and rejects every corrupt
    /// stream with the same error: zero counts and values repeated or out
    /// of order, then truncated, overflowing or hostile bytes on top, alone
    /// or together.
    #[test]
    fn streamed_rebuild_matches_the_per_entry_path() {
        let mut f = KeyFreq::new();
        for v in 0..300i64 {
            f.add((v * 7919) % 1013 - 500, 1 + (v % 200) as u64);
        }
        let base = f.sorted_entries();
        let layout = |r: Result<Result<KeyFreq, String>, DecodeError>| {
            r.map(|inner| inner.map(|f| (f.iter().collect::<Vec<_>>(), f.heap_bytes())))
        };
        let mut state = 5u64;
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
                    0 => entries[i].1 = 0,
                    1 => entries[i].0 = entries[i.saturating_sub(1)].0 - (next() % 3) as i64,
                    _ => entries[i].1 = u64::MAX - next() % 2,
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
            let streamed = KeyFreq::from_sorted_entries(&mut Dec::new(&b), "freq");
            let want = per_entry(&mut Dec::new(&b));
            assert_eq!(layout(streamed), layout(want), "round {round}");
        }
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
