//! Query fingerprints for the service-tier estimate cache.
//!
//! Estimating a query's sub-plans is a deterministic fold over what the
//! estimator reads of the query: each alias's table name, its filter in
//! stored term order, and the join list in stored order. Alias names are
//! never read. [`query_fingerprint`] hashes exactly those inputs with a
//! seeded, platform-independent hash, so the cache key `(model epoch,
//! sub-plan mask, query fingerprint)` is sound in one sentence: equal keys
//! mean the same deterministic fold over the same inputs, so a cache hit
//! reproduces the miss it replaces bit for bit. Term order is hashed as
//! stored, not sorted, because float evaluation order inside the
//! estimators follows it; the join list is hashed as stored because it
//! numbers the key-group variables.
//!
//! Different queries share no entry (up to hash collisions), even where a
//! sub-plan of one is a sub-plan of the other: the query is the cache
//! unit, as it is the unit an optimizer asks for (paper §5.2).
//!
//! ## The hash
//!
//! Every field is fed as whole `u64` words (strings as a length word then
//! 8-byte little-endian chunks) into a folded 64×64→128-bit multiply, and
//! the fingerprint ends in a splitmix64 avalanche. Counts precede every
//! repeated field, so the word stream of one query is never a prefix of
//! another's. Fingerprints are deterministic across platforms and runs but
//! carry no promise across releases: they key a process-local cache.
//! [`StableHasher`] is the byte-stream hash whose outputs never change, for
//! hashes that outlive a process (benchmark input hashes, test checksums).

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

/// The fingerprint of everything `query`'s estimation reads (see the
/// module docs): the alias count, per alias its table name and filter,
/// then the join list, each side as `(alias index, column index)`.
///
/// `seed` perturbs the fingerprint; the service picks one per process so
/// fingerprints never become accidentally load-bearing across deployments.
pub fn query_fingerprint(query: &Query, seed: u64) -> u64 {
    let mut h = WordHasher::new(seed);
    h.write_u64(query.num_tables() as u64);
    for (tref, filter) in query.tables().iter().zip(query.filters()) {
        h.write_str(&tref.table);
        write_filter(&mut h, filter);
    }
    h.write_u64(query.joins().len() as u64);
    for join in query.joins() {
        for side in [join.left, join.right] {
            h.write_u64(side.alias as u64);
            h.write_u64(side.column as u64);
        }
    }
    h.finish()
}

/// Every connected sub-plan of `query` with at least `min_size` aliases,
/// each paired with the query's [`query_fingerprint`], in exactly the
/// order `FactorJoinModel::estimate_subplans_with(.., query, min_size)`
/// returns its estimates (sorted by `(popcount, mask)`): the cache keys of
/// one request, minus the epoch.
pub fn subplan_fingerprints(query: &Query, min_size: u32, seed: u64) -> Vec<(SubplanMask, u64)> {
    let fingerprint = query_fingerprint(query, seed);
    connected_subplans(query, min_size)
        .into_iter()
        .map(|mask| (mask, fingerprint))
        .collect()
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

    /// The query is the cache unit: a filter on alias 0 changes the key
    /// of every sub-plan, those without alias 0 included.
    #[test]
    fn a_filter_change_changes_every_subplan_key() {
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
        assert_eq!(fa.len(), fb.len());
        for ((m1, f1), (m2, f2)) in fa.iter().zip(&fb) {
            assert_eq!(m1, m2);
            assert_ne!(f1, f2, "mask {m1:b} kept its key across a filter change");
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

    /// Alias names are not read by estimation, so they are not hashed;
    /// the join list's stored order numbers the variables, so it is.
    #[test]
    fn alias_names_are_ignored_and_join_order_is_not() {
        let cat = catalog();
        let q = chain_query(&cat, vec![FilterExpr::True; 3]);
        let renamed = Query::from_wire_parts(
            ["x", "y", "z"]
                .iter()
                .zip(q.tables())
                .map(|(alias, t)| TableRef::new(alias, &t.table))
                .collect(),
            q.joins().to_vec(),
            q.filters().to_vec(),
        )
        .unwrap();
        assert_eq!(query_fingerprint(&q, 6), query_fingerprint(&renamed, 6));
        let reversed = Query::from_wire_parts(
            q.tables().to_vec(),
            q.joins().iter().rev().copied().collect(),
            q.filters().to_vec(),
        )
        .unwrap();
        assert_ne!(query_fingerprint(&q, 6), query_fingerprint(&reversed, 6));
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
}
