//! Canonical sub-plan fingerprints for the service-tier estimate cache.
//!
//! A sub-plan's estimate is a pure function of the trained model plus the
//! sub-plan's *shape*: which tables it touches, their filters, how their
//! join keys group into equivalent-key variables, and which pairs are
//! directly joined. [`subplan_fingerprints`] hashes exactly that shape —
//! nothing more — with a seeded, platform-independent hash, so
//!
//! * two requests for the **same** sub-plan always produce the same
//!   `(mask, fingerprint)` pair (repeated-workload serving hits), and
//! * equal fingerprints imply the progressive estimator performs an
//!   **isomorphic computation**, making a cache hit bit-identical to the
//!   miss it replaces (`f64::to_bits` equality — see the fj-service cache
//!   tests).
//!
//! ## What the fingerprint must cover (and why)
//!
//! Per alias of the sub-plan mask `S`, in ascending-bit order:
//!
//! * the **table name** and the **filter tree** in stored term order —
//!   term order is preserved (not sorted) because float evaluation order
//!   inside the estimators follows it;
//! * the alias's `(column index, variable)` join-key list, with each
//!   global variable id remapped to its **rank** among the distinct ids
//!   appearing anywhere in `S`. Global ids depend on join order across the
//!   whole query, but every ordering decision the estimator makes
//!   (variable elimination order, shared-variable discovery, `KeepVars`
//!   membership) is invariant under the order-preserving rank map. The
//!   list also captures *global* key-equivalence projected onto `S`: two
//!   keys inside `S` can share a variable only through a chain of joins —
//!   possibly passing outside `S` — and that merge shows up here;
//! * the alias's direct-join **neighbor set intersected with `S`**,
//!   remapped to mask ranks — the progressive estimator's split choice and
//!   connectivity checks depend on which pairs inside `S` are directly
//!   joined, not just on the variable structure.
//!
//! Structure *outside* `S` (beyond the projected variable merges above)
//! provably cannot change the sub-plan's row bound: it only decides which
//! residual variables are kept in cached factors, and residual variables
//! never contribute to any step's bound inside `S`.
//!
//! ## The hash
//!
//! Every field above is fed as whole `u64` words (strings as a length word
//! then 8-byte little-endian chunks) into a folded 64×64→128-bit multiply,
//! and each fingerprint ends in a splitmix64 avalanche. What does not
//! depend on the mask — an alias's table, filter and key columns — is
//! hashed once per query into one content word per alias; per sub-plan the
//! stream is the alias count, then per alias its content word, its key
//! ranks (as many as its content says) and its remapped neighbor set. A
//! variable's rank is a popcount over the [`QueryGraph`]'s per-alias
//! variable bitsets.
//!
//! Fingerprints are deterministic across platforms and runs but carry no
//! promise across releases: they key a process-local cache. The request
//! path analyses a query once and fingerprints through
//! [`subplan_fingerprints_into`] with buffers it keeps. [`StableHasher`] is
//! the byte-stream hash whose outputs never change, for hashes that outlive
//! a process (benchmark input hashes, test checksums).

use crate::graph::QueryGraph;
use crate::predicate::Predicate;
use crate::query::Query;
use crate::subplan::{connected_subplans, SubplanMask};
use crate::FilterExpr;
use fj_storage::Value;

/// Seeded FNV-1a (64-bit) with a splitmix64 finalizer: byte-order
/// independent of the platform, stable across processes, runs and releases
/// (unlike `DefaultHasher`) — its outputs are pinned by tests.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl StableHasher {
    /// A hasher whose stream starts with `seed`.
    pub fn new(seed: u64) -> Self {
        let mut h = StableHasher { state: FNV_OFFSET };
        h.write_u64(seed);
        h
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` (little-endian byte stream).
    pub fn write_u64(&mut self, x: u64) {
        self.write_bytes(&x.to_le_bytes());
    }

    /// Feeds a length-prefixed string (prefix disambiguates boundaries).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Final avalanche (splitmix64), so low-entropy streams still spread
    /// over the full 64 bits.
    pub fn finish(&self) -> u64 {
        splitmix64(self.state)
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fingerprints' word mixer: one folded multiply per `u64` fed.
#[derive(Clone, Copy)]
struct WordHasher {
    state: u64,
}

const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

impl WordHasher {
    fn new(seed: u64) -> Self {
        // A zero state folds a zero word to zero; start away from it.
        let mut h = WordHasher { state: MIX };
        h.write_u64(seed);
        h
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let product = u128::from(self.state ^ x) * u128::from(MIX);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }

    /// A length word, then the bytes in 8-byte little-endian words (the
    /// last zero-padded; the length tells the padding apart).
    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        let mut chunks = s.as_bytes().chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        splitmix64(self.state)
    }
}

/// Hashes a literal by type tag + content (floats via `to_bits`, so two
/// literals hash equal iff predicate evaluation treats them identically).
fn write_value(h: &mut WordHasher, v: &Value) {
    match v {
        Value::Null => h.write_u64(0),
        Value::Int(i) => {
            h.write_u64(1);
            h.write_u64(*i as u64);
        }
        Value::Float(f) => {
            h.write_u64(2);
            h.write_u64(f.to_bits());
        }
        Value::Str(s) => {
            h.write_u64(3);
            h.write_str(s);
        }
    }
}

fn write_predicate(h: &mut WordHasher, p: &Predicate) {
    match p {
        Predicate::Cmp { column, op, value } => {
            h.write_u64(10);
            h.write_str(column);
            h.write_u64(*op as u64);
            write_value(h, value);
        }
        Predicate::Between { column, lo, hi } => {
            h.write_u64(11);
            h.write_str(column);
            write_value(h, lo);
            write_value(h, hi);
        }
        Predicate::InList { column, values } => {
            h.write_u64(12);
            h.write_str(column);
            h.write_u64(values.len() as u64);
            for v in values {
                write_value(h, v);
            }
        }
        Predicate::Like {
            column,
            pattern,
            negated,
        } => {
            h.write_u64(13);
            h.write_str(column);
            h.write_str(pattern);
            h.write_u64(*negated as u64);
        }
        Predicate::IsNull { column, negated } => {
            h.write_u64(14);
            h.write_str(column);
            h.write_u64(*negated as u64);
        }
    }
}

/// Structural hash of a filter tree. Term order is *stored* order: the
/// estimators evaluate conjuncts in that order, and float arithmetic is
/// not associative, so sorting terms here could alias two filters whose
/// estimates differ in the last ulp.
fn write_filter(h: &mut WordHasher, f: &FilterExpr) {
    match f {
        FilterExpr::True => h.write_u64(20),
        FilterExpr::Pred(p) => {
            h.write_u64(21);
            write_predicate(h, p);
        }
        FilterExpr::And(parts) => {
            h.write_u64(22);
            h.write_u64(parts.len() as u64);
            for p in parts {
                write_filter(h, p);
            }
        }
        FilterExpr::Or(parts) => {
            h.write_u64(23);
            h.write_u64(parts.len() as u64);
            for p in parts {
                write_filter(h, p);
            }
        }
        FilterExpr::Not(inner) => {
            h.write_u64(24);
            write_filter(h, inner);
        }
    }
}

/// Remaps the set bits of `bits ∩ mask` to their ranks within `mask`
/// (software `pext`): bit `b` becomes bit `popcount(mask & (2^b - 1))`.
fn rank_remap(bits: u64, mask: u64) -> u64 {
    let mut rest = bits & mask;
    let mut out = 0u64;
    while rest != 0 {
        let b = rest.trailing_zeros() as u64;
        out |= 1 << (mask & ((1u64 << b) - 1)).count_ones();
        rest &= rest - 1;
    }
    out
}

/// Caller-owned buffers of [`subplan_fingerprints_into`]; a hot path that
/// keeps one across queries fingerprints without allocating once warm.
#[derive(Debug, Default)]
pub struct FingerprintBuf {
    /// Per alias its content hash, then the variable set of the sub-plan
    /// being hashed.
    words: Vec<u64>,
    out: Vec<(SubplanMask, u64)>,
}

/// Per-sub-plan canonical fingerprints of `query`, in exactly the order
/// `FactorJoinModel::estimate_subplans_with(.., query, min_size)` returns
/// its estimates (connected sub-plans sorted by `(popcount, mask)`).
///
/// `seed` perturbs every fingerprint; the service picks one per process so
/// fingerprints never become accidentally load-bearing across deployments.
pub fn subplan_fingerprints(query: &Query, min_size: u32, seed: u64) -> Vec<(SubplanMask, u64)> {
    let graph = QueryGraph::analyze(query);
    let masks = connected_subplans(query, min_size);
    let mut buf = FingerprintBuf::default();
    subplan_fingerprints_into(query, &graph, &masks, seed, &mut buf);
    buf.out
}

/// [`subplan_fingerprints`] of the given connected sub-plans `masks` of
/// `query` (analysed as `graph`), one `(mask, fingerprint)` per mask in
/// order, written into `buf`: the request path analyses and enumerates a
/// query once and shares both with the estimator.
pub fn subplan_fingerprints_into<'b>(
    query: &Query,
    graph: &QueryGraph,
    masks: &[SubplanMask],
    seed: u64,
    buf: &'b mut FingerprintBuf,
) -> &'b [(SubplanMask, u64)] {
    let FingerprintBuf { words, out } = buf;
    let seeded = WordHasher::new(seed);
    // Per alias, what does not depend on the mask, hashed once: table,
    // filter and join-key columns.
    let n = query.num_tables();
    words.clear();
    words.reserve(n + graph.var_set_words());
    words.extend(query.tables().iter().enumerate().map(|(alias, tref)| {
        let mut h = seeded;
        h.write_str(&tref.table);
        write_filter(&mut h, query.filter(alias));
        let keys = graph.alias_keys(alias);
        h.write_u64(keys.len() as u64);
        for &(col, _) in keys {
            h.write_u64(col as u64);
        }
        h.finish()
    }));
    words.resize(n + graph.var_set_words(), 0);
    let (contents, mask_vars) = words.split_at_mut(n);

    out.clear();
    out.reserve(masks.len());
    for &mask in masks {
        mask_var_set(graph, mask, mask_vars);
        let mut h = seeded;
        h.write_u64(mask.count_ones() as u64);
        let mut rest = mask;
        while rest != 0 {
            let alias = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            // The content fixes how many key ranks follow.
            h.write_u64(contents[alias]);
            for &(_, var) in graph.alias_keys(alias) {
                h.write_u64(rank(mask_vars, var));
            }
            h.write_u64(rank_remap(graph.neighbor_mask(alias), mask));
        }
        out.push((mask, h.finish()));
    }
    out
}

/// The variables any alias of the non-empty `mask` touches, as a bitset
/// in `set` (the union of the aliases' [`QueryGraph::alias_var_set`]s).
fn mask_var_set(graph: &QueryGraph, mask: SubplanMask, set: &mut [u64]) {
    set.copy_from_slice(graph.alias_var_set(mask.trailing_zeros() as usize));
    let mut rest = mask & mask.wrapping_sub(1);
    while rest != 0 {
        let alias = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        for (w, &bits) in set.iter_mut().zip(graph.alias_var_set(alias)) {
            *w |= bits;
        }
    }
}

/// The rank of member `v` in the bitset `set`: how many members lie below
/// it (the order-preserving id → position map of the module doc).
fn rank(set: &[u64], v: usize) -> u64 {
    let (word, bit) = (v / 64, v % 64);
    let below: u32 = set[..word].iter().map(|w| w.count_ones()).sum();
    u64::from(below + (set[word] & ((1u64 << bit) - 1)).count_ones())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::TableRef;
    use fj_storage::{Catalog, ColumnDef, Table, TableSchema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for (name, keys) in [
            ("a", vec!["id", "x"]),
            ("b", vec!["a_id", "c_id"]),
            ("c", vec!["id"]),
        ] {
            let cols: Vec<ColumnDef> = keys.iter().map(|k| ColumnDef::key(k)).collect();
            let schema = TableSchema::new(cols);
            let row: Vec<Value> = (0..schema.len()).map(|i| Value::Int(i as i64)).collect();
            cat.add_table(Table::from_rows(name, schema, &[row]).unwrap())
                .unwrap();
        }
        cat
    }

    fn j(la: &str, lc: &str, ra: &str, rc: &str) -> ((String, String), (String, String)) {
        ((la.into(), lc.into()), (ra.into(), rc.into()))
    }

    fn chain_query(cat: &Catalog, filters: Vec<FilterExpr>) -> Query {
        Query::new(
            cat,
            vec![
                TableRef::new("a", "a"),
                TableRef::new("b", "b"),
                TableRef::new("c", "c"),
            ],
            &[j("a", "id", "b", "a_id"), j("b", "c_id", "c", "id")],
            filters,
        )
        .unwrap()
    }

    #[test]
    fn deterministic_across_calls() {
        let cat = catalog();
        let q = chain_query(&cat, vec![FilterExpr::True; 3]);
        assert_eq!(
            subplan_fingerprints(&q, 1, 7),
            subplan_fingerprints(&q, 1, 7)
        );
    }

    #[test]
    fn order_matches_subplan_enumeration() {
        let cat = catalog();
        let q = chain_query(&cat, vec![FilterExpr::True; 3]);
        for min_size in [1u32, 2] {
            let fps = subplan_fingerprints(&q, min_size, 3);
            let masks: Vec<SubplanMask> = fps.iter().map(|&(m, _)| m).collect();
            assert_eq!(masks, crate::subplan::connected_subplans(&q, min_size));
        }
    }

    #[test]
    fn seed_perturbs_every_fingerprint() {
        let cat = catalog();
        let q = chain_query(&cat, vec![FilterExpr::True; 3]);
        let a = subplan_fingerprints(&q, 1, 1);
        let b = subplan_fingerprints(&q, 1, 2);
        for ((m1, f1), (m2, f2)) in a.iter().zip(&b) {
            assert_eq!(m1, m2);
            assert_ne!(f1, f2, "mask {m1:b} fingerprint ignored the seed");
        }
    }

    #[test]
    fn filter_changes_change_affected_subplans_only() {
        let cat = catalog();
        let base = chain_query(&cat, vec![FilterExpr::True; 3]);
        let filtered = chain_query(
            &cat,
            vec![
                FilterExpr::pred(Predicate::eq("x", 5)),
                FilterExpr::True,
                FilterExpr::True,
            ],
        );
        let fa = subplan_fingerprints(&base, 1, 9);
        let fb = subplan_fingerprints(&filtered, 1, 9);
        for ((m, f1), (_, f2)) in fa.iter().zip(&fb) {
            if m & 0b001 != 0 {
                assert_ne!(f1, f2, "mask {m:b} should see the alias-0 filter");
            } else {
                assert_eq!(f1, f2, "mask {m:b} does not involve alias 0");
            }
        }
    }

    #[test]
    fn filter_term_order_is_significant() {
        let cat = catalog();
        let p1 = FilterExpr::pred(Predicate::eq("x", 1));
        let p2 = FilterExpr::pred(Predicate::eq("x", 2));
        let q1 = chain_query(
            &cat,
            vec![
                FilterExpr::And(vec![p1.clone(), p2.clone()]),
                FilterExpr::True,
                FilterExpr::True,
            ],
        );
        let q2 = chain_query(
            &cat,
            vec![
                FilterExpr::And(vec![p2, p1]),
                FilterExpr::True,
                FilterExpr::True,
            ],
        );
        let f1 = subplan_fingerprints(&q1, 1, 0);
        let f2 = subplan_fingerprints(&q2, 1, 0);
        assert_ne!(f1[0].1, f2[0].1, "term order must not be canonicalized");
    }

    #[test]
    fn join_shape_distinguishes_chain_from_star() {
        // Same tables/filters, both connected on one variable each, but
        // a–b–c chain vs a–b, a–c star: the split/fold order differs, so
        // the full-mask fingerprints must differ.
        let cat = catalog();
        let chain = chain_query(&cat, vec![FilterExpr::True; 3]);
        let star = Query::new(
            &cat,
            vec![
                TableRef::new("a", "a"),
                TableRef::new("b", "b"),
                TableRef::new("c", "c"),
            ],
            &[j("a", "id", "b", "a_id"), j("a", "x", "c", "id")],
            vec![FilterExpr::True; 3],
        )
        .unwrap();
        let fc = subplan_fingerprints(&chain, 1, 4);
        let fs = subplan_fingerprints(&star, 1, 4);
        let full_c = fc.iter().find(|&&(m, _)| m == 0b111).unwrap().1;
        let full_s = fs.iter().find(|&&(m, _)| m == 0b111).unwrap().1;
        assert_ne!(full_c, full_s);
    }

    #[test]
    fn rank_remap_compacts_bits() {
        assert_eq!(rank_remap(0b1010, 0b1110), 0b101);
        assert_eq!(rank_remap(0b0001, 0b1110), 0);
        assert_eq!(rank_remap(u64::MAX, 0b1001), 0b11);
    }

    /// Pinned outputs: benchmark input hashes and test checksums outlive
    /// the process, so every method must keep producing these exact words
    /// on every platform and release.
    #[test]
    fn stable_hasher_is_seeded_and_stable() {
        assert_eq!(StableHasher::new(0).finish(), 0x813f_0174_a236_7c13);
        let mut h = StableHasher::new(0);
        h.write_u64(42);
        assert_eq!(h.finish(), 0x496c_8e55_462d_a6bb);
        let mut h = StableHasher::new(1);
        h.write_str("hello");
        assert_eq!(h.finish(), 0xef8a_d2a3_bafc_0ad9);
        let mut h = StableHasher::new(2);
        h.write_str("hello");
        assert_eq!(h.finish(), 0x8085_0145_babb_e9d0);
        let mut h = StableHasher::new(7);
        h.write_bytes(&[0x00, 0xff]);
        assert_eq!(h.finish(), 0xa339_baa5_4459_e4e3);
    }

    #[test]
    fn word_hasher_string_padding_is_unambiguous() {
        let hash = |s: &str| {
            let mut h = WordHasher::new(0);
            h.write_str(s);
            h.finish()
        };
        // Same padded words, told apart by the length word.
        assert_ne!(hash("ab"), hash("ab\0"));
        assert_ne!(hash("12345678"), hash("12345678\0"));
        assert_ne!(hash(""), hash("\0"));
    }

    /// The rank map before variable bitsets: every variable of the mask
    /// collected, sorted, deduplicated and binary-searched — per alias of
    /// the mask in ascending order, per key in `alias_keys` order.
    fn oracle_ranks(graph: &QueryGraph, mask: SubplanMask) -> Vec<u64> {
        let aliases = || (0..64).filter(move |a| mask & (1u64 << a) != 0);
        let mut vars: Vec<usize> = aliases()
            .flat_map(|a| graph.alias_keys(a).iter().map(|&(_, var)| var))
            .collect();
        vars.sort_unstable();
        vars.dedup();
        aliases()
            .flat_map(|a| graph.alias_keys(a).iter())
            .map(|&(_, var)| vars.binary_search(&var).expect("var of the mask") as u64)
            .collect()
    }

    /// A query with more join variables than one word holds: a 40-alias
    /// chain of one table joined on two column pairs per edge (78
    /// variables). Every sub-plan's ranks match the sort/dedup oracle, so
    /// no variable id ≥ 64 wraps onto a low bit.
    #[test]
    fn wide_query_ranks_match_the_sorting_oracle() {
        let mut cat = Catalog::new();
        let schema = TableSchema::new(["c0", "c1", "c2", "c3"].map(ColumnDef::key).to_vec());
        cat.add_table(Table::from_rows("t", schema, &[vec![Value::Int(0); 4]]).unwrap())
            .unwrap();
        let n = 40;
        let tables = (0..n)
            .map(|i| TableRef::new(&format!("t{i}"), "t"))
            .collect();
        let joins: Vec<_> = (1..n)
            .flat_map(|i| {
                let (l, r) = (format!("t{}", i - 1), format!("t{i}"));
                [j(&l, "c0", &r, "c1"), j(&l, "c2", &r, "c3")]
            })
            .collect();
        let q = Query::new(&cat, tables, &joins, vec![FilterExpr::True; n]).unwrap();
        let graph = QueryGraph::analyze(&q);
        assert_eq!(graph.num_vars(), 2 * (n - 1));
        assert_eq!(graph.var_set_words(), 2);

        let masks = crate::subplan::connected_subplans(&q, 1);
        let mut set = vec![0; graph.var_set_words()];
        let mut high_ranks = 0;
        for &mask in &masks {
            mask_var_set(&graph, mask, &mut set);
            let ranks: Vec<u64> = (0..n)
                .filter(|&a| mask & (1u64 << a) != 0)
                .flat_map(|a| graph.alias_keys(a).iter())
                .map(|&(_, var)| rank(&set, var))
                .collect();
            assert_eq!(ranks, oracle_ranks(&graph, mask), "mask {mask:b}");
            high_ranks += ranks.iter().filter(|&&r| r >= 64).count();
        }
        assert!(high_ranks > 0, "some sub-plan spans more than 64 variables");
        let fps = subplan_fingerprints(&q, 1, 5);
        assert_eq!(fps.iter().map(|&(m, _)| m).collect::<Vec<_>>(), masks);
    }
}
