//! Sharded, epoch-fenced sub-plan estimate cache.
//!
//! An optimizer fleet re-plans the same queries constantly, and every
//! re-plan re-requests the same canonical sub-plans. FactorJoin's
//! estimates are pure functions of (model, canonical sub-plan), so the
//! service tier can answer repeats without touching the model at all.
//! This module provides that fast path:
//!
//! * **Key** — `(model epoch, sub-plan mask, fingerprint)`. The
//!   fingerprint is [`fj_query::subplan_fingerprints`]'s seeded word-mixed
//!   hash over the canonicalized sub-plan (table identities, filter
//!   terms in stored order, join-key equivalence structure projected
//!   onto the sub-plan); equal keys imply an isomorphic estimation
//!   computation and therefore a **bit-identical** `f64`. The value
//!   stored is the raw `f64::to_bits`, so a hit reproduces the miss
//!   exactly.
//! * **Epoch fencing** — registry epochs are globally unique and
//!   monotonic across datasets, so the epoch component both scopes keys
//!   to their dataset *and* invalidates the whole cache lazily on
//!   hot-swap/`apply_insert`: an entry written under the old model can
//!   never answer a request resolved against the new one. Stale entries
//!   are not swept; they become preferred eviction victims in place.
//! * **Sharding** — the table is split into `NUM_SHARDS` lock-striped
//!   shards selected by the fingerprint's high bits, so concurrent
//!   workers rarely contend on one mutex and there is no global lock.
//! * **Bounded memory** — each shard is a fixed set-associative array
//!   (`WAYS` entries per set, capacity chosen at construction and
//!   never grown). Insertion picks an empty slot, else a stale-epoch
//!   slot, else a round-robin victim within the set — eviction is O(WAYS)
//!   with no heap activity on the hot path.
//!
//! The cache itself is policy-free about *when* it is consulted; the
//! worker loop implements the all-or-nothing read (serve from cache only
//! when every sub-plan of the request hits) and counts hits/misses/
//! evictions into [`crate::StatsSnapshot`].

use std::sync::Mutex;

/// Number of lock-striped shards (power of two).
const NUM_SHARDS: usize = 16;

/// Set associativity: slots probed per lookup/insert.
const WAYS: usize = 8;

/// Seed for the sub-plan fingerprint hash. Fixed for the life of
/// a cache so the same canonical sub-plan always maps to the same key;
/// distinct from zero so accidental all-zero keys do not collide with
/// empty slots.
pub const FINGERPRINT_SEED: u64 = 0x6a09_e667_f3bc_c908;

/// One cached estimate. `epoch == 0` marks an empty slot — registry
/// epochs start at 1, so no live entry can carry epoch 0.
#[derive(Clone, Copy, Default)]
struct Entry {
    epoch: u64,
    mask: u64,
    fp: u64,
    bits: u64,
}

struct Shard {
    slots: Box<[Entry]>,
    /// Round-robin eviction cursor, advanced per forced eviction.
    tick: usize,
}

/// A sharded, bounded, epoch-fenced map from canonical sub-plans to
/// bit-exact estimates (see module docs).
pub struct SubplanCache {
    shards: Box<[Mutex<Shard>]>,
    /// Sets per shard (power of two), for masked set selection.
    sets_per_shard: usize,
}

impl SubplanCache {
    /// A cache holding at least `total_entries` estimates across all
    /// shards (rounded up so each shard is a power-of-two number of
    /// `WAYS`-wide sets). `total_entries` must be nonzero — a disabled
    /// cache is represented by *not constructing one* (see
    /// [`crate::ServiceConfig::subplan_cache_entries`]).
    pub fn new(total_entries: usize) -> Self {
        assert!(total_entries > 0, "use None, not an empty cache");
        let per_shard = total_entries.div_ceil(NUM_SHARDS);
        let sets_per_shard = per_shard.div_ceil(WAYS).next_power_of_two();
        let shards = (0..NUM_SHARDS)
            .map(|_| {
                Mutex::new(Shard {
                    slots: vec![Entry::default(); sets_per_shard * WAYS].into_boxed_slice(),
                    tick: 0,
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SubplanCache {
            shards,
            sets_per_shard,
        }
    }

    /// Total slot capacity (an upper bound on live entries, never grown).
    pub fn capacity(&self) -> usize {
        NUM_SHARDS * self.sets_per_shard * WAYS
    }

    /// Number of live (non-empty) entries right now, stale epochs
    /// included. O(capacity); for tests and introspection, not the hot
    /// path.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("cache shard lock");
                shard.slots.iter().filter(|e| e.epoch != 0).count()
            })
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mixes (mask, fp) into a slot hash. Epoch is deliberately left
    /// out: after a model swap the fresh entry lands in the same set as
    /// its stale predecessor, which the insert path then prefers as the
    /// victim — the common swap pattern reclaims stale space for free.
    #[inline]
    fn slot_hash(mask: u64, fp: u64) -> u64 {
        // splitmix64-style avalanche over the xor; fp is already
        // avalanched but mask is a raw bitmask and needs the mixing.
        let mut z = fp ^ mask.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[inline]
    fn locate(&self, mask: u64, fp: u64) -> (usize, usize) {
        let h = Self::slot_hash(mask, fp);
        // High bits pick the shard, low bits the set — independent bit
        // ranges so shard striping does not skew set selection.
        let shard = (h >> 60) as usize & (NUM_SHARDS - 1);
        let set = (h as usize) & (self.sets_per_shard - 1);
        (shard, set * WAYS)
    }

    /// Looks up the estimate for `(epoch, mask, fp)`. Returns the stored
    /// `f64::to_bits` on a hit; entries written under any other epoch
    /// never match.
    pub fn get(&self, epoch: u64, mask: u64, fp: u64) -> Option<u64> {
        let (shard_idx, base) = self.locate(mask, fp);
        let shard = self.shards[shard_idx].lock().expect("cache shard lock");
        shard.slots[base..base + WAYS]
            .iter()
            .find(|e| e.epoch == epoch && e.mask == mask && e.fp == fp)
            .map(|e| e.bits)
    }

    /// Test-only view of where a key lands, for constructing colliding
    /// key sets in the eviction tests.
    #[cfg(test)]
    fn probe_location(&self, mask: u64, fp: u64) -> (usize, usize) {
        self.locate(mask, fp)
    }

    /// Inserts (or refreshes) the estimate for `(epoch, mask, fp)`.
    /// Returns `true` when a **live** entry of the same epoch was
    /// evicted to make room — the capacity-pressure signal surfaced as
    /// `fj_subplan_cache_evictions_total`. Overwriting an empty or
    /// stale-epoch slot is not an eviction.
    pub fn insert(&self, epoch: u64, mask: u64, fp: u64, bits: u64) -> bool {
        let (shard_idx, base) = self.locate(mask, fp);
        let mut shard = self.shards[shard_idx].lock().expect("cache shard lock");
        // Refresh an existing key in place (concurrent misses on the
        // same sub-plan insert the same bits — benign).
        let mut victim = None;
        for i in base..base + WAYS {
            let e = shard.slots[i];
            if e.epoch == epoch && e.mask == mask && e.fp == fp {
                shard.slots[i].bits = bits;
                return false;
            }
            if victim.is_none() && (e.epoch == 0 || e.epoch != epoch) {
                victim = Some(i); // empty or stale-epoch slot
            }
        }
        let (idx, evicted) = match victim {
            Some(i) => (i, false),
            None => {
                let i = base + shard.tick % WAYS;
                shard.tick = shard.tick.wrapping_add(1);
                (i, true)
            }
        };
        shard.slots[idx] = Entry {
            epoch,
            mask,
            fp,
            bits,
        };
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn hit_returns_exact_bits_and_wrong_epoch_misses() {
        let cache = SubplanCache::new(1024);
        let bits = (1234.5678f64).to_bits();
        assert!(cache.get(7, 0b1011, 42).is_none());
        cache.insert(7, 0b1011, 42, bits);
        assert_eq!(cache.get(7, 0b1011, 42), Some(bits));
        // Same sub-plan under any other epoch is a miss: the swapped
        // model must recompute.
        assert!(cache.get(8, 0b1011, 42).is_none());
        assert!(cache.get(6, 0b1011, 42).is_none());
        // Different mask or fingerprint is a different key.
        assert!(cache.get(7, 0b1111, 42).is_none());
        assert!(cache.get(7, 0b1011, 43).is_none());
    }

    #[test]
    fn refresh_in_place_is_not_an_eviction() {
        let cache = SubplanCache::new(1024);
        assert!(!cache.insert(1, 1, 1, 10));
        assert!(!cache.insert(1, 1, 1, 20), "refresh, not eviction");
        assert_eq!(cache.get(1, 1, 1), Some(20));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_is_bounded_under_churn_and_evictions_are_counted() {
        let cache = SubplanCache::new(256);
        let cap = cache.capacity();
        let mut evictions = 0usize;
        // Insert far more distinct keys than capacity.
        for i in 0..(cap as u64 * 8) {
            if cache.insert(1, i, i.wrapping_mul(0x9e37_79b9_7f4a_7c15), i) {
                evictions += 1;
            }
        }
        assert!(cache.len() <= cap, "live entries bounded by capacity");
        assert!(
            evictions > 0,
            "8x oversubscription must force live evictions"
        );
    }

    #[test]
    fn stale_epoch_slots_are_preferred_victims() {
        // Deterministic per-set scenario: collect 2*WAYS+1 distinct keys
        // that all hash to the same set, then watch the victim policy.
        let cache = SubplanCache::new(1);
        let target = cache.probe_location(0, 0);
        let mut colliding = vec![(0u64, 0u64)];
        let mut fp = 1u64;
        while colliding.len() < 2 * WAYS + 1 {
            if cache.probe_location(7, fp) == target {
                colliding.push((7, fp));
            }
            fp += 1;
        }
        // Fill the set under epoch 1: first WAYS inserts take empty
        // slots, the next forces a live eviction.
        for &(mask, f) in &colliding[..WAYS] {
            assert!(!cache.insert(1, mask, f, 1), "empty slots absorb");
        }
        assert!(
            cache.insert(1, colliding[WAYS].0, colliding[WAYS].1, 1),
            "a full set of live same-epoch entries forces an eviction"
        );
        // Epoch bump: the set is full of now-stale epoch-1 entries.
        // WAYS fresh inserts must all land on stale slots (no eviction
        // counted) — and the WAYS+1-th, with the set now fully live
        // under epoch 2, evicts again.
        for &(mask, f) in &colliding[WAYS..2 * WAYS] {
            assert!(!cache.insert(2, mask, f, 2), "stale slots absorb");
        }
        assert!(
            cache.insert(2, colliding[2 * WAYS].0, colliding[2 * WAYS].1, 2),
            "no stale slot left: live eviction"
        );
        assert!(cache.len() <= cache.capacity());
    }

    #[test]
    fn concurrent_mixed_readers_and_writers_race_cleanly() {
        // Seeded stress: 8 threads hammer overlapping key ranges with
        // interleaved gets/inserts across two epochs. The invariant is
        // that any hit returns bits some thread inserted for exactly
        // that key — never bits from another key or epoch.
        let cache = Arc::new(SubplanCache::new(512));
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let mut x = t.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                    for _ in 0..20_000 {
                        // xorshift64 for a seeded, thread-distinct stream
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let epoch = 1 + (x % 2);
                        let mask = x % 64;
                        let fp = x % 128;
                        // Value is a pure function of the key, so any
                        // winner of an insert race stored the same
                        // truth every reader expects.
                        let bits = epoch
                            .wrapping_mul(0x100_0000_01b3)
                            .wrapping_add(mask << 32)
                            .wrapping_add(fp);
                        if x % 3 == 0 {
                            cache.insert(epoch, mask, fp, bits);
                        } else if let Some(got) = cache.get(epoch, mask, fp) {
                            assert_eq!(got, bits, "hit must be the bits inserted for this key");
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("stress thread");
        }
        assert!(cache.len() <= cache.capacity());
    }

    #[test]
    fn tiny_capacity_still_rounds_up_to_a_full_set() {
        let cache = SubplanCache::new(1);
        assert!(cache.capacity() >= WAYS);
        cache.insert(1, 0, 0, 99);
        assert_eq!(cache.get(1, 0, 0), Some(99));
    }
}
