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
//! A map has one of two forms, kept in the same two arrays:
//!
//! - the **slab** above, which every map built by counting, `add`,
//!   [`KeyFreq::with_capacity`] or `collect` has;
//! - the **sorted** form of a map read by [`KeyFreq::from_sorted_entries`]:
//!   dense `keys` and `counts` columns, values strictly increasing, exactly
//!   as a model file stores them. A loaded model that only serves never
//!   reads its maps, so it never pays for a slab.
//!
//! The conversion is one way: the first [`KeyFreq::add`] to a sorted map
//! (an update of a loaded model) turns it into the slab, filled in value
//! order into a map sized for its entries, which is the slab
//! `from_sorted_entries` used to build at load time, slot for slot. `get`
//! binary-searches the sorted form; `len`, `iter`, `sorted_entries` and
//! equality answer the same on either form.
//!
//! `fj_stats::KeyBinMap` carries a sibling slab specialized for i64→bin
//! lookups (different sentinel and hash-bit split; fj-stats cannot depend
//! on this crate) — a probe/grow fix here likely applies there too.
//!
//! Iteration order is slot order for a slab and value order for a sorted
//! map — arbitrary but **deterministic**: it depends only on the sequence
//! of inserts (or the bytes read), never on pointer addresses or
//! per-process seeds. Serial and parallel training build each key's map
//! with the identical insert sequence, which is one of the pillars of the
//! bit-identical parallel build (see `crates/core/tests/parallel_train.rs`).

use fj_storage::codec::{Dec, DecodeError, EntryReader};

/// Value → occurrence-count map over `i64` join keys (see module docs).
#[derive(Debug, Clone, Default)]
pub struct KeyFreq {
    /// Slot keys; meaningful only where `counts` is non-zero. In the
    /// sorted form, every value, strictly increasing.
    keys: Vec<i64>,
    /// Slot counts; `0` = empty slot (real entries are always ≥ 1). In the
    /// sorted form, the count of each value in `keys`.
    counts: Vec<u64>,
    /// Number of occupied slots (in the sorted form, `keys.len()`).
    len: usize,
    /// `keys` and `counts` are the sorted form, not a slab.
    sorted: bool,
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
            f.grow_to(slots_for(n));
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
        if self.sorted {
            return match self.keys.binary_search(&value) {
                Ok(i) => self.counts[i],
                Err(_) => 0,
            };
        }
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

    /// Adds `delta` occurrences of `value`, returning the new count. The
    /// first add to a sorted map turns it into the slab (see module docs).
    #[inline]
    pub fn add(&mut self, value: i64, delta: u64) -> u64 {
        if delta == 0 {
            return self.get(value);
        }
        // A sorted map is always full by this test, so its first add takes
        // the cold path and the slab's hot path has no extra branch.
        if self.counts.is_empty() || self.len * 8 >= self.keys.len() * 7 {
            self.make_room();
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
    /// persistence and differential tests). A sorted map already holds
    /// them in that order, so re-saving a loaded model sorts nothing.
    pub fn sorted_entries(&self) -> Vec<(i64, u64)> {
        let mut out: Vec<(i64, u64)> = self.iter().collect();
        if !self.sorted {
            out.sort_unstable();
        }
        out
    }

    /// Whether the map is still in the sorted form it was read in.
    #[cfg(test)]
    pub(crate) fn is_sorted_form(&self) -> bool {
        self.sorted
    }

    /// Approximate heap size in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.keys.len() * 8 + self.counts.len() * 8
    }

    /// Reads a map written as its [`Self::sorted_entries`] by
    /// [`fj_storage::codec::encode_entries`] into the sorted form, pushing
    /// the pairs as they decode — no slab, no vector of pairs in between.
    /// The outer error is the byte stream's (truncated, overflowing, a
    /// hostile count, all caught before the columns are sized); the inner
    /// one is what a corrupt file could break: values strictly increasing
    /// (no value twice) and every count non-zero (zero means "absent").
    pub fn from_sorted_entries(
        d: &mut Dec<'_>,
        what: &'static str,
    ) -> Result<Result<Self, String>, DecodeError> {
        let mut entries = EntryReader::new(d, what)?;
        let mut f = KeyFreq {
            keys: Vec::with_capacity(entries.count()),
            counts: Vec::with_capacity(entries.count()),
            len: 0,
            sorted: true,
        };
        let mut zero = None;
        for _ in 0..entries.count() {
            let (v, c) = entries.next_pair(d)?;
            if c == 0 {
                zero.get_or_insert(v);
            } else if entries.in_order() {
                f.keys.push(v);
                f.counts.push(c);
            }
        }
        f.len = f.keys.len();
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

    /// Makes room for one more value: turns a sorted map into its slab —
    /// sized as [`Self::with_capacity`] sizes it and filled in value order
    /// — then doubles the slab if it is still too full.
    #[cold]
    #[inline(never)]
    fn make_room(&mut self) {
        if self.sorted {
            self.sorted = false;
            self.grow_to(slots_for(self.len));
        }
        if self.counts.is_empty() || self.len * 8 >= self.keys.len() * 7 {
            self.grow_to((self.keys.len() * 2).max(8));
        }
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

/// Slab slots for `n` values under the 7/8 load limit.
fn slots_for(n: usize) -> usize {
    (n * 8 / 7 + 1).next_power_of_two().max(8)
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

    /// Reading the bytes into the sorted form keeps every guarantee of the
    /// per-entry path: each corrupt stream (zero counts, values repeated or
    /// out of order, then truncated, overflowing or hostile bytes on top,
    /// alone or together) is rejected with the same error, each sound one
    /// holds the same `(value, count)` set, and after one `add` the slab is
    /// the per-entry path's slot for slot.
    #[test]
    fn streamed_rebuild_matches_the_per_entry_path() {
        let mut f = KeyFreq::new();
        for v in 0..300i64 {
            f.add((v * 7919) % 1013 - 500, 1 + (v % 200) as u64);
        }
        let base = f.sorted_entries();
        type Read = Result<Result<KeyFreq, String>, DecodeError>;
        let pairs = |r: &Read| {
            r.clone().map(|inner| {
                inner.map(|f| {
                    let mut p: Vec<(i64, u64)> = f.iter().collect();
                    p.sort_unstable();
                    p
                })
            })
        };
        let layout = |f: &KeyFreq| (f.iter().collect::<Vec<_>>(), f.heap_bytes());
        let mut state = 5u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 24
        };
        let mut sound = 0;
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
            assert_eq!(pairs(&streamed), pairs(&want), "round {round}");
            if let (Ok(Ok(mut got)), Ok(Ok(mut want))) = (streamed, want) {
                assert!(got.sorted && !want.sorted, "round {round}");
                // An existing value with room to count, or a new one.
                let v = base[next() as usize % base.len()].0;
                let v = if next() % 2 == 0 && (1..1000).contains(&want.get(v)) {
                    v
                } else {
                    2000 + (next() % 1000) as i64
                };
                assert_eq!(got.add(v, 1), want.add(v, 1), "round {round}");
                assert!(!got.sorted, "round {round}");
                assert_eq!(layout(&got), layout(&want), "round {round}");
                sound += 1;
            }
        }
        assert!(sound > 100, "only {sound} sound streams");
    }

    /// `get`, `iter`, `len`, `sorted_entries` and `==` answer the same for
    /// a map read into the sorted form and the slab it was saved from, and
    /// its first `add` builds the slab the per-entry load built: the empty
    /// map, negative values and the `i64` extremes included.
    #[test]
    fn sorted_and_slab_forms_answer_alike() {
        let mut state = 11u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 24
        };
        for round in 0..300 {
            let n = if round == 0 { 0 } else { next() as usize % 300 };
            let mut slab = KeyFreq::new();
            for _ in 0..n {
                let v = match next() % 4 {
                    0 => i64::MIN + (next() % 3) as i64,
                    1 => i64::MAX - (next() % 3) as i64,
                    2 => -((next() % 1000) as i64),
                    _ => (next() % 1000) as i64,
                };
                slab.add(v, 1 + next() % 5);
            }
            let sorted = read(&slab.sorted_entries()).unwrap();
            assert!(sorted.sorted && !slab.sorted, "round {round}");
            assert_eq!(sorted.len(), slab.len(), "round {round}");
            assert_eq!(sorted.is_empty(), n == 0, "round {round}");
            // Equality probes the other side: both directions.
            assert_eq!(sorted, slab, "round {round}");
            assert_eq!(slab, sorted, "round {round}");
            let entries = slab.sorted_entries();
            assert_eq!(sorted.sorted_entries(), entries, "round {round}");
            assert_eq!(sorted.iter().collect::<Vec<_>>(), entries, "round {round}");
            let mut probes = vec![i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
            for &(v, _) in &entries {
                probes.extend([v.wrapping_sub(1), v, v.wrapping_add(1)]);
            }
            for v in probes {
                assert_eq!(sorted.get(v), slab.get(v), "round {round}, value {v}");
            }
            // The first add builds the slab the per-entry load built.
            let mut loaded = sorted.clone();
            let mut want = KeyFreq::with_capacity(entries.len());
            entries.iter().for_each(|&(v, c)| {
                want.add(v, c);
            });
            let v = (next() % 2000) as i64 - 1000;
            assert_eq!(loaded.add(v, 1), want.add(v, 1), "round {round}");
            let layout = |f: &KeyFreq| (f.iter().collect::<Vec<_>>(), f.heap_bytes());
            assert_eq!(layout(&loaded), layout(&want), "round {round}");
            if let Some(&(v, _)) = entries.first() {
                let mut more = slab.clone();
                more.add(v, 1);
                assert_ne!(sorted, more, "round {round}");
                assert_ne!(more, sorted, "round {round}");
            }
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
