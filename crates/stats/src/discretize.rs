//! Column discretization for the Bayesian-network estimator.
//!
//! Every modeled column is mapped to a small discrete code domain:
//!
//! * **join keys** → their FactorJoin bin index (the BN then directly
//!   provides the binned conditional key distributions the factor graph
//!   needs, paper §5.1);
//! * **low-cardinality integers** → one code per distinct value;
//! * **high-cardinality integers** → equi-depth buckets with per-bucket
//!   min/max/ndv for fractional range coverage;
//! * **strings** → one code per dictionary entry (small dictionaries) or
//!   hashed buckets with per-code row counts (large ones), so `LIKE`
//!   clauses become approximate code weights;
//! * **NULL** → a dedicated trailing code, making `IS NULL` ordinary
//!   evidence.
//!
//! An integer column's distinct values and their multiplicities come from
//! one census: a histogram over `[min, max]` when that range holds at most
//! four integers per non-NULL value, else one sort. The equi-depth buckets
//! are cut from the cumulative counts, at the same boundaries a walk over
//! the sorted values would cut.
//!
//! [`DiscreteColumn::encode_rows`] encodes a range of rows a column at a
//! time — the fit and every `insert` batch go through it: one dispatch on
//! the encoding, one loop over the typed slice, and NULLs patched in from
//! the null bitmap a word at a time. Every row gets the code [`DiscreteColumn::encode`] gives its
//! value, so rows appended after the fit — values and strings it never saw
//! — land where the value-level encoder puts them.

use crate::binmap::{KeyBinMap, TableBins};
use fj_query::{CmpOp, FilterExpr, Predicate};
use fj_storage::codec::{decode_deltas, encode_deltas, invalid, Dec, DecodeError, Enc};
use fj_storage::{Column, DataType, StrDict, Table, Value};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// How a column's values map to codes.
#[derive(Debug, Clone)]
enum Encoding {
    /// FactorJoin key bins (shared with the model and its other
    /// estimators; frozen after bin selection).
    KeyBins(Arc<KeyBinMap>),
    /// One code per distinct integer (sorted); an unseen value takes the
    /// code of the next higher one, or the last code.
    IntCategorical { values: Vec<i64> },
    /// Equi-depth integer buckets: `uppers[i]` is the inclusive upper bound
    /// of bucket `i`; `mins`/`maxs`/`ndv` describe the bucket contents.
    IntBuckets {
        uppers: Vec<i64>,
        mins: Vec<i64>,
        maxs: Vec<i64>,
        ndv: Vec<u32>,
    },
    /// One code per dictionary string.
    StrSmall {
        dict: StrDict,
        intern: HashMap<String, u32>,
    },
    /// Hashed string buckets: code = hash(string) % n; `dict`/`dict_rows`
    /// retained to evaluate pattern clauses as per-bucket row fractions.
    StrHashed {
        n: usize,
        dict: StrDict,
        dict_rows: Vec<u32>,
        bucket_rows: Vec<f64>,
    },
}

/// A discretized column: codes `0..n_codes()`, NULL mapped to the last code.
#[derive(Debug, Clone)]
pub struct DiscreteColumn {
    /// Column name in the table schema.
    pub name: String,
    encoding: Encoding,
    non_null_codes: usize,
}

/// Builder turning table columns into [`DiscreteColumn`]s.
pub struct Discretizer {
    /// Maximum non-null codes for attribute columns.
    pub max_codes: usize,
}

impl Default for Discretizer {
    fn default() -> Self {
        Discretizer { max_codes: 64 }
    }
}

impl Discretizer {
    /// Discretizes column `ci` of `table`; `key_bins` is present when the
    /// column is a binned join key.
    pub fn build(
        &self,
        table: &Table,
        ci: usize,
        key_bins: Option<&Arc<KeyBinMap>>,
    ) -> Option<DiscreteColumn> {
        let def = table.schema().column(ci);
        let col = table.column(ci);
        if let Some(map) = key_bins {
            return Some(DiscreteColumn {
                name: def.name.clone(),
                non_null_codes: map.k(),
                encoding: Encoding::KeyBins(Arc::clone(map)),
            });
        }
        match def.dtype {
            // Not modeled: the network charges `fallback_selectivity` once for
            // the clauses on each such column.
            DataType::Float => None,
            DataType::Int => Some(self.build_int(&def.name, col)),
            DataType::Str => Some(self.build_str(&def.name, col)),
        }
    }

    fn build_int(&self, name: &str, col: &Column) -> DiscreteColumn {
        let ints = col.ints();
        let mut values: Vec<i64> = (0..ints.len())
            .filter(|&i| !col.is_null(i))
            .map(|i| ints[i])
            .collect();
        let runs = census(&mut values);
        if runs.len() <= self.max_codes {
            return DiscreteColumn {
                name: name.to_string(),
                non_null_codes: runs.len().max(1),
                encoding: Encoding::IntCategorical {
                    values: runs.iter().map(|&(v, _)| v).collect(),
                },
            };
        }
        // Equi-depth buckets over the sorted multiset, cut at distinct-value
        // boundaries so a value belongs to exactly one bucket: a bucket
        // ends with the run holding its `per`-th value.
        let n = self.max_codes;
        let per = values.len().div_ceil(n);
        let mut uppers = Vec::with_capacity(n);
        let mut mins = Vec::with_capacity(n);
        let mut maxs = Vec::with_capacity(n);
        let mut ndv = Vec::with_capacity(n);
        let (mut first, mut start) = (0usize, 0usize);
        while first < runs.len() {
            let target = (start + per).min(values.len());
            let (mut last, mut end) = (first, start + runs[first].1);
            while end < target {
                last += 1;
                end += runs[last].1;
            }
            mins.push(runs[first].0);
            maxs.push(runs[last].0);
            uppers.push(runs[last].0);
            ndv.push((last - first + 1) as u32);
            (first, start) = (last + 1, end);
        }
        DiscreteColumn {
            name: name.to_string(),
            non_null_codes: uppers.len(),
            encoding: Encoding::IntBuckets {
                uppers,
                mins,
                maxs,
                ndv,
            },
        }
    }

    fn build_str(&self, name: &str, col: &Column) -> DiscreteColumn {
        let dict = col.dict().clone();
        if dict.len() <= self.max_codes {
            let intern = dict
                .iter()
                .enumerate()
                .map(|(i, s)| (s.to_string(), i as u32))
                .collect();
            return DiscreteColumn {
                name: name.to_string(),
                non_null_codes: dict.len().max(1),
                encoding: Encoding::StrSmall { dict, intern },
            };
        }
        let n = self.max_codes;
        let mut dict_rows = vec![0u32; dict.len()];
        for i in 0..col.len() {
            if !col.is_null(i) {
                dict_rows[col.codes()[i] as usize] += 1;
            }
        }
        let bucket_rows = bucket_rows(&dict, &dict_rows, n);
        DiscreteColumn {
            name: name.to_string(),
            non_null_codes: n,
            encoding: Encoding::StrHashed {
                n,
                dict,
                dict_rows,
                bucket_rows,
            },
        }
    }
}

/// Integers per value up to which [`census`] counts into a histogram over
/// `[min, max]` instead of sorting.
const CENSUS_SPAN_PER_VALUE: u64 = 4;

/// The distinct `values`, ascending, each with its number of occurrences.
/// Counted into a histogram over `[min, max]` when that range holds at most
/// [`CENSUS_SPAN_PER_VALUE`] integers per value; otherwise `values` is
/// sorted in place and its runs are counted.
fn census(values: &mut [i64]) -> Vec<(i64, usize)> {
    let (lo, hi) = values
        .iter()
        .fold((i64::MAX, i64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let span = lo.abs_diff(hi);
    let dense = !values.is_empty()
        && u32::try_from(values.len()).is_ok()
        && span <= CENSUS_SPAN_PER_VALUE * values.len() as u64;
    if dense {
        let mut histogram = vec![0u32; span as usize + 1];
        for &v in values.iter() {
            histogram[v.abs_diff(lo) as usize] += 1;
        }
        return (lo..=hi)
            .zip(histogram)
            .filter(|&(_, count)| count > 0)
            .map(|(v, count)| (v, count as usize))
            .collect();
    }
    values.sort_unstable();
    let mut runs: Vec<(i64, usize)> = Vec::new();
    for &v in values.iter() {
        match runs.last_mut() {
            Some((last, count)) if *last == v => *count += 1,
            _ => runs.push((v, 1)),
        }
    }
    runs
}

fn str_bucket(s: &str, n: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % n as u64) as usize
}

impl DiscreteColumn {
    /// Total number of codes including the trailing NULL code.
    pub fn n_codes(&self) -> usize {
        self.non_null_codes + 1
    }

    /// The shared bin map of a key column (`None` for an attribute).
    pub fn key_bins(&self) -> Option<&Arc<KeyBinMap>> {
        match &self.encoding {
            Encoding::KeyBins(map) => Some(map),
            _ => None,
        }
    }

    /// The NULL code (always the last).
    pub fn null_code(&self) -> usize {
        self.non_null_codes
    }

    /// Encodes one value. Unseen values map to a deterministic code rather
    /// than erroring, so incremental inserts keep working (paper §4.3).
    pub fn encode(&self, v: &Value) -> usize {
        if v.is_null() {
            return self.null_code();
        }
        match &self.encoding {
            Encoding::KeyBins(map) => match v.as_int() {
                Some(x) => map.bin_of(x),
                None => self.null_code(),
            },
            Encoding::IntCategorical { values: sorted }
            | Encoding::IntBuckets { uppers: sorted, .. } => match v.as_int() {
                Some(x) => code_at_or_above(sorted, x),
                None => self.null_code(),
            },
            Encoding::StrSmall { .. } | Encoding::StrHashed { .. } => match v.as_str() {
                Some(s) => self.encode_str(s),
                None => self.null_code(),
            },
        }
    }

    /// A non-NULL string's code: its dictionary entry's in a small
    /// dictionary (a string the fit never saw hashes into one of them),
    /// its hash bucket otherwise.
    fn encode_str(&self, s: &str) -> usize {
        match &self.encoding {
            Encoding::StrSmall { intern, dict } => match intern.get(s) {
                Some(&c) => c as usize,
                None => str_bucket(s, dict.len().max(1)),
            },
            Encoding::StrHashed { n, .. } => str_bucket(s, *n),
            _ => self.null_code(),
        }
    }

    /// The codes of rows `rows` of `col` — the column this was fitted to, or
    /// that column after rows were appended. Row `r` gets what
    /// [`Self::encode`] gives its value; a join key's value is its join-key
    /// value [`Column::key_at`], so a string key encodes its dictionary
    /// code. A string reads through `col`'s own dictionary, whose codes
    /// need not match the fit's. A column of another type than the fit's
    /// encodes every row as NULL.
    pub fn encode_rows(&self, col: &Column, rows: Range<usize>) -> Vec<u32> {
        let mut out: Vec<u32> = match (&self.encoding, col) {
            (Encoding::KeyBins(map), Column::Int { values, .. }) => values[rows.clone()]
                .iter()
                .map(|&x| map.bin_of(x) as u32)
                .collect(),
            (Encoding::KeyBins(map), Column::Str { codes, .. }) => codes[rows.clone()]
                .iter()
                .map(|&c| map.bin_of(i64::from(c)) as u32)
                .collect(),
            (
                Encoding::IntCategorical { values: sorted }
                | Encoding::IntBuckets { uppers: sorted, .. },
                Column::Int { values, .. },
            ) => values[rows.clone()]
                .iter()
                .map(|&x| code_at_or_above(sorted, x) as u32)
                .collect(),
            (
                Encoding::StrSmall { .. } | Encoding::StrHashed { .. },
                Column::Str { codes, dict, .. },
            ) => codes[rows.clone()]
                .iter()
                .map(|&c| self.encode_str(dict.get(c as usize)) as u32)
                .collect(),
            _ => vec![self.null_code() as u32; rows.len()],
        };
        let nulls = col.nulls();
        if !nulls.no_nulls() {
            let null = self.null_code() as u32;
            for word in rows.start / 64..rows.end.div_ceil(64) {
                let mut bits = nulls.word(word);
                while bits != 0 {
                    let r = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if rows.contains(&r) {
                        out[r - rows.start] = null;
                    }
                }
            }
        }
        out
    }

    /// Evaluates a single-column clause, returning a weight per code in
    /// `[0, 1]`: the (estimated) fraction of that code's rows satisfying
    /// the clause. Exact for categorical/string codes; fractional coverage
    /// under within-bucket uniformity for bucketized numerics (combined
    /// with product/complement fuzzy logic across boolean connectives).
    pub fn clause_weights(&self, clause: &FilterExpr) -> Vec<f64> {
        let mut w = vec![1.0; self.n_codes()];
        self.apply_clause(clause, &mut w);
        w
    }

    /// Multiplies `lambda` (one slot per code) by each code's
    /// [`Self::clause_weights`] weight, in place — how the Bayesian network
    /// compiles a conjunct into a node's evidence. A lone comparison or
    /// `BETWEEN` on an integer column is resolved by binary search to the
    /// run of codes it keeps (plus the boundary buckets it covers in
    /// part); any other clause shape is evaluated code by code. Integer
    /// and key columns allocate nothing; a clause on a string column
    /// compiles its matcher (`LIKE` patterns) once per call.
    pub fn apply_clause(&self, clause: &FilterExpr, lambda: &mut [f64]) {
        let nn = self.non_null_codes;
        let (codes, null) = lambda[..=nn].split_at_mut(nn);
        let null = &mut null[0];
        match &self.encoding {
            Encoding::KeyBins(_) => {
                // Value predicates on binned keys are not representable at
                // bin granularity; treat as non-selective (weight 1) except
                // for NULL tests, which the code structure does capture —
                // the same for every bin, so two evaluations cover all codes.
                if only_null_tests(clause) {
                    if !clause.eval(&|_c: &str| Value::Int(0)) {
                        codes.fill(0.0);
                    }
                    keep_if(null, clause.eval(&|_c: &str| Value::Null));
                } else {
                    *null = 0.0;
                }
            }
            Encoding::IntCategorical { values } => match kept_run(values, clause) {
                Some(run) => {
                    codes[..run.start].fill(0.0);
                    codes[run.end..].fill(0.0);
                    *null = 0.0;
                }
                None => {
                    for (slot, &x) in codes.iter_mut().zip(values) {
                        keep_if(slot, clause.eval(&|_c: &str| Value::Int(x)));
                    }
                    // An all-NULL column keeps one phantom code no row maps to.
                    codes[values.len()..].fill(0.0);
                    keep_if(null, clause.eval(&|_c: &str| Value::Null));
                }
            },
            Encoding::IntBuckets {
                mins, maxs, ndv, ..
            } => {
                let coverage = |i: usize| bucket_coverage(clause, mins[i], maxs[i], ndv[i]);
                match bucket_interval(clause) {
                    Some((a, b)) => {
                        // Buckets wholly outside [a, b] weigh 0, buckets
                        // wholly inside (with a margin of one, which every
                        // operator's coverage formula honours) weigh 1;
                        // only the few in between are evaluated.
                        let zero_to = maxs.partition_point(|&hi| hi as f64 + 1.0 <= a);
                        let zero_from = mins.partition_point(|&lo| (lo as f64 - 1.0) < b);
                        let full_from = mins.partition_point(|&lo| (lo as f64 - 1.0) < a);
                        let full_to = maxs.partition_point(|&hi| hi as f64 + 1.0 <= b);
                        codes[..zero_to].fill(0.0);
                        codes[zero_from.max(zero_to)..].fill(0.0);
                        let partial = codes.iter_mut().enumerate().take(zero_from);
                        for (i, slot) in partial.skip(zero_to) {
                            if !(full_from..full_to).contains(&i) {
                                *slot *= coverage(i);
                            }
                        }
                        *null = 0.0;
                    }
                    None => {
                        for (i, slot) in codes.iter_mut().enumerate() {
                            *slot *= coverage(i);
                        }
                        keep_if(null, clause.eval(&|_c: &str| Value::Null));
                    }
                }
            }
            Encoding::StrSmall { dict, .. } => {
                let matcher = clause.value_matcher();
                for (slot, s) in codes.iter_mut().zip(dict.iter()) {
                    keep_if(slot, matcher.matches_str(s));
                }
                // An empty dictionary keeps one phantom code no row maps to.
                codes[dict.len()..].fill(0.0);
                keep_if(null, clause.eval(&|_c: &str| Value::Null));
            }
            Encoding::StrHashed {
                n,
                dict,
                dict_rows,
                bucket_rows,
            } => {
                let mut matched = vec![0f64; *n];
                let matcher = clause.value_matcher();
                for (code, s) in dict.iter().enumerate() {
                    if matcher.matches_str(s) {
                        matched[str_bucket(s, *n)] += dict_rows[code] as f64;
                    }
                }
                for ((slot, &hit), &rows) in codes.iter_mut().zip(&matched).zip(bucket_rows) {
                    *slot *= if rows > 0.0 { hit / rows } else { 0.0 };
                }
                keep_if(null, clause.eval(&|_c: &str| Value::Null));
            }
        }
    }

    /// Approximate heap footprint in bytes of what the column owns: a key
    /// column's bin map is its group's, shared with the model, which
    /// charges it once.
    pub fn heap_bytes(&self) -> usize {
        match &self.encoding {
            Encoding::KeyBins(_) => 0,
            Encoding::IntCategorical { values } => values.len() * 8,
            Encoding::IntBuckets { uppers, .. } => uppers.len() * 8 * 3 + uppers.len() * 4,
            Encoding::StrSmall { dict, .. } => {
                dict.heap_bytes() + dict.iter().map(|s| s.len() + 24).sum::<usize>()
            }
            Encoding::StrHashed {
                dict,
                dict_rows,
                bucket_rows,
                ..
            } => dict.heap_bytes() + dict_rows.len() * 4 + bucket_rows.len() * 8,
        }
    }
}

impl DiscreteColumn {
    /// Writes the fitted encoding: the column name, then a key column as its
    /// group's id in `groups` (and that group's `k`), integer codes as their
    /// values or bucket bounds, string codes as their dictionary (and a
    /// hashed column's per-entry row counts). Derived lookups — a small
    /// dictionary's intern map, a hashed column's per-bucket rows — are
    /// rebuilt by [`Self::decode_fit`].
    pub fn encode_fit(&self, out: &mut Enc, groups: &[Arc<KeyBinMap>]) {
        out.str(&self.name);
        match &self.encoding {
            Encoding::KeyBins(map) => {
                let gid = groups
                    .iter()
                    .position(|g| Arc::ptr_eq(g, map))
                    .expect("a key column's bins are its group's shared map");
                out.u8(0);
                out.len(gid);
                out.len(map.k());
            }
            Encoding::IntCategorical { values } => {
                out.u8(1);
                encode_deltas(out, values);
            }
            Encoding::IntBuckets {
                uppers,
                mins,
                maxs,
                ndv,
            } => {
                out.u8(2);
                encode_deltas(out, uppers);
                encode_deltas(out, mins);
                encode_deltas(out, maxs);
                out.len(ndv.len());
                ndv.iter().for_each(|&n| out.varint(n.into()));
            }
            Encoding::StrSmall { dict, .. } => {
                out.u8(3);
                encode_dict(out, dict);
            }
            Encoding::StrHashed {
                n, dict, dict_rows, ..
            } => {
                out.u8(4);
                out.len(*n);
                encode_dict(out, dict);
                out.len(dict_rows.len());
                dict_rows.iter().for_each(|&r| out.varint(r.into()));
            }
        }
    }

    /// Reads a column written by [`Self::encode_fit`]. A key column must name a
    /// group of `groups` with the `k` it was fitted to, and be a key of the
    /// table with that group's map in `bins`; integer values and bucket
    /// bounds must be strictly increasing, and every length must match the
    /// code count — so inference can never index out of bounds.
    pub fn decode_fit(
        d: &mut Dec<'_>,
        groups: &[Arc<KeyBinMap>],
        bins: &TableBins,
    ) -> Result<Self, DecodeError> {
        let name = d.str("node column name")?.to_string();
        let bad = |what: String| invalid(format!("column {name:?}: {what}"));
        let (encoding, non_null_codes) = match d.u8("node encoding tag")? {
            0 => {
                let gid = d.varint("key group id")?;
                let k = d.varint("key group bins")?;
                let map = usize::try_from(gid)
                    .ok()
                    .and_then(|g| groups.get(g))
                    .ok_or_else(|| bad(format!("names missing group {gid}")))?;
                if map.k() as u64 != k {
                    return Err(bad(format!(
                        "fitted to {k} bins, group {gid} has {}",
                        map.k()
                    )));
                }
                if !bins.get_shared(&name).is_some_and(|m| Arc::ptr_eq(m, map)) {
                    return Err(bad(format!("is not the table's key in group {gid}")));
                }
                (Encoding::KeyBins(Arc::clone(map)), map.k())
            }
            1 => {
                let values = decode_deltas(d, "categorical values")?;
                increasing(&values).map_err(bad)?;
                let codes = values.len().max(1);
                (Encoding::IntCategorical { values }, codes)
            }
            2 => {
                let uppers = decode_deltas(d, "bucket uppers")?;
                let mins = decode_deltas(d, "bucket mins")?;
                let maxs = decode_deltas(d, "bucket maxs")?;
                let n = d.count("bucket ndv count", 1)?;
                let ndv = (0..n)
                    .map(|_| d.u32_varint("bucket ndv"))
                    .collect::<Result<Vec<u32>, _>>()?;
                let k = uppers.len();
                if k == 0 || [mins.len(), maxs.len(), ndv.len()] != [k; 3] {
                    return Err(bad("bucket vectors of unequal or zero length".into()));
                }
                increasing(&uppers).map_err(bad)?;
                for i in 0..k {
                    let width = maxs[i].checked_sub(mins[i]).and_then(|w| w.checked_add(1));
                    if width.is_none_or(|w| w <= 0) || (i > 0 && mins[i] <= maxs[i - 1]) {
                        return Err(bad(format!("bucket {i} bounds are not ordered")));
                    }
                }
                let encoding = Encoding::IntBuckets {
                    uppers,
                    mins,
                    maxs,
                    ndv,
                };
                (encoding, k)
            }
            3 => {
                let dict = decode_dict(d)?;
                let intern = dict
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.to_string(), i as u32))
                    .collect();
                let codes = dict.len().max(1);
                (Encoding::StrSmall { dict, intern }, codes)
            }
            4 => {
                // The node's marginal (one count a code) follows, which
                // bounds the bucket count before anything is allocated.
                let n = d.count("hashed buckets", 1)?;
                if n == 0 {
                    return Err(bad("no hashed buckets".into()));
                }
                let dict = decode_dict(d)?;
                let rows = d.count("dictionary row counts", 1)?;
                if rows != dict.len() {
                    return Err(bad(format!("{rows} row counts for {} entries", dict.len())));
                }
                let dict_rows = (0..rows)
                    .map(|_| d.u32_varint("dictionary row count"))
                    .collect::<Result<Vec<u32>, _>>()?;
                let bucket_rows = bucket_rows(&dict, &dict_rows, n);
                let encoding = Encoding::StrHashed {
                    n,
                    dict,
                    dict_rows,
                    bucket_rows,
                };
                (encoding, n)
            }
            t => return Err(bad(format!("unknown encoding tag {t}"))),
        };
        Ok(DiscreteColumn {
            name,
            encoding,
            non_null_codes,
        })
    }
}

fn encode_dict(out: &mut Enc, dict: &StrDict) {
    out.len(dict.len());
    dict.iter().for_each(|s| out.str(s));
}

fn decode_dict(d: &mut Dec<'_>) -> Result<StrDict, DecodeError> {
    let n = d.count("dictionary size", 1)?;
    let entries = (0..n)
        .map(|_| d.str("dictionary entry"))
        .collect::<Result<Vec<&str>, _>>()?;
    StrDict::from_entries(entries).map_err(|_| invalid("dictionary exceeds 4 GiB"))
}

/// Rows per hash bucket of a hashed string column: each entry's rows added
/// into its bucket, in dictionary order.
fn bucket_rows(dict: &StrDict, dict_rows: &[u32], n: usize) -> Vec<f64> {
    let mut rows = vec![0f64; n];
    for (code, s) in dict.iter().enumerate() {
        rows[str_bucket(s, n)] += dict_rows[code] as f64;
    }
    rows
}

/// `Ok` when `values` are strictly increasing.
fn increasing(values: &[i64]) -> Result<(), String> {
    match values.windows(2).find(|w| w[0] >= w[1]) {
        Some(w) => Err(format!(
            "values not strictly increasing: {} then {}",
            w[0], w[1]
        )),
        None => Ok(()),
    }
}

/// The code of `x` under strictly increasing `sorted` values or bucket
/// uppers: the first at or above `x`, or the last when `x` is above them
/// all.
#[inline]
fn code_at_or_above(sorted: &[i64], x: i64) -> usize {
    sorted
        .partition_point(|&s| s < x)
        .min(sorted.len().saturating_sub(1))
}

/// Zeroes `slot` unless `keep` (a 0/1 weight multiplied in).
#[inline]
fn keep_if(slot: &mut f64, keep: bool) {
    if !keep {
        *slot = 0.0;
    }
}

/// Whether every predicate of `clause` is a NULL test.
fn only_null_tests(clause: &FilterExpr) -> bool {
    match clause {
        FilterExpr::True => true,
        FilterExpr::Pred(p) => matches!(p, Predicate::IsNull { .. }),
        FilterExpr::And(parts) | FilterExpr::Or(parts) => parts.iter().all(only_null_tests),
        FilterExpr::Not(inner) => only_null_tests(inner),
    }
}

/// How many of the sorted `values` compare below `lit` and how many below
/// or equal, under SQL numeric comparison; `None` when `lit` is not a
/// number (every comparison with it is then false).
fn ranks(values: &[i64], lit: &Value) -> Option<(usize, usize)> {
    match lit {
        Value::Int(b) => Some((
            values.partition_point(|x| x < b),
            values.partition_point(|x| x <= b),
        )),
        Value::Float(f) if !f.is_nan() => Some((
            values.partition_point(|&x| (x as f64) < *f),
            values.partition_point(|&x| (x as f64) <= *f),
        )),
        _ => None,
    }
}

/// The run of the sorted distinct `values` a lone comparison or `BETWEEN`
/// accepts; `None` for every other clause shape (and `<>`, whose answer is
/// not a run).
fn kept_run(values: &[i64], clause: &FilterExpr) -> Option<Range<usize>> {
    let FilterExpr::Pred(p) = clause else {
        return None;
    };
    let n = values.len();
    Some(match p {
        Predicate::Cmp { op, value, .. } => {
            let Some((lt, le)) = ranks(values, value) else {
                return (*op != CmpOp::Neq).then_some(0..0);
            };
            match op {
                CmpOp::Eq => lt..le,
                CmpOp::Lt => 0..lt,
                CmpOp::Le => 0..le,
                CmpOp::Gt => le..n,
                CmpOp::Ge => lt..n,
                CmpOp::Neq => return None,
            }
        }
        Predicate::Between { lo, hi, .. } => match (ranks(values, lo), ranks(values, hi)) {
            (Some((from, _)), Some((_, to))) => from..to.max(from),
            _ => 0..0,
        },
        _ => return None,
    })
}

/// The numeric interval `[a, b]` (open sides infinite) a lone comparison or
/// `BETWEEN` on a bucketized column asks for; `None` for every other clause
/// shape, `<>`, and literals that are not numbers.
fn bucket_interval(clause: &FilterExpr) -> Option<(f64, f64)> {
    let FilterExpr::Pred(p) = clause else {
        return None;
    };
    let (a, b) = match p {
        Predicate::Cmp { op, value, .. } => {
            let v = value.as_float()?;
            match op {
                CmpOp::Eq => (v, v),
                CmpOp::Lt | CmpOp::Le => (f64::NEG_INFINITY, v),
                CmpOp::Gt | CmpOp::Ge => (v, f64::INFINITY),
                CmpOp::Neq => return None,
            }
        }
        Predicate::Between { lo, hi, .. } => (lo.as_float()?, hi.as_float()?),
        _ => return None,
    };
    (!a.is_nan() && !b.is_nan()).then_some((a, b))
}

/// Fractional coverage of an integer bucket `[min, max]` (with `ndv`
/// distinct values) under a boolean clause, assuming within-bucket
/// uniformity; boolean connectives combine with fuzzy logic.
fn bucket_coverage(clause: &FilterExpr, min: i64, max: i64, ndv: u32) -> f64 {
    match clause {
        FilterExpr::True => 1.0,
        FilterExpr::Pred(p) => pred_coverage(p, min, max, ndv),
        FilterExpr::And(parts) => parts
            .iter()
            .map(|c| bucket_coverage(c, min, max, ndv))
            .product(),
        FilterExpr::Or(parts) => {
            1.0 - parts
                .iter()
                .map(|c| 1.0 - bucket_coverage(c, min, max, ndv))
                .product::<f64>()
        }
        FilterExpr::Not(inner) => 1.0 - bucket_coverage(inner, min, max, ndv),
    }
}

fn pred_coverage(p: &Predicate, min: i64, max: i64, ndv: u32) -> f64 {
    let width = (max - min + 1) as f64;
    let clampf = |x: f64| x.clamp(0.0, 1.0);
    match p {
        Predicate::Cmp { op, value, .. } => {
            let Some(v) = value.as_float() else {
                return 0.0;
            };
            let (lo, hi) = (min as f64, max as f64);
            match op {
                CmpOp::Eq => {
                    if v >= lo && v <= hi {
                        1.0 / ndv.max(1) as f64
                    } else {
                        0.0
                    }
                }
                CmpOp::Neq => {
                    if v >= lo && v <= hi {
                        1.0 - 1.0 / ndv.max(1) as f64
                    } else {
                        1.0
                    }
                }
                CmpOp::Lt => clampf((v - lo) / width),
                CmpOp::Le => clampf((v - lo + 1.0) / width),
                CmpOp::Gt => clampf((hi - v) / width),
                CmpOp::Ge => clampf((hi - v + 1.0) / width),
            }
        }
        Predicate::Between { lo, hi, .. } => {
            let (Some(a), Some(b)) = (lo.as_float(), hi.as_float()) else {
                return 0.0;
            };
            let inter = (b.min(max as f64) - a.max(min as f64) + 1.0).max(0.0);
            clampf(inter / width)
        }
        Predicate::InList { values, .. } => {
            let hits = values
                .iter()
                .filter_map(Value::as_int)
                .filter(|&v| v >= min && v <= max)
                .count();
            clampf(hits as f64 / ndv.max(1) as f64)
        }
        Predicate::Like { .. } => 0.0, // LIKE on an integer bucket: no match
        Predicate::IsNull { negated, .. } => {
            // Bucket codes are non-null by construction.
            if *negated {
                1.0
            } else {
                0.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_storage::{ColumnDef, TableSchema};

    fn int_table(values: &[Option<i64>]) -> Table {
        let schema = TableSchema::new(vec![ColumnDef::new("x", DataType::Int)]);
        let rows: Vec<Vec<Value>> = values
            .iter()
            .map(|v| vec![v.map(Value::Int).unwrap_or(Value::Null)])
            .collect();
        Table::from_rows("t", schema, &rows).unwrap()
    }

    #[test]
    fn categorical_int_roundtrip() {
        let t = int_table(&[Some(5), Some(1), Some(5), None, Some(9)]);
        let d = Discretizer::default().build(&t, 0, None).unwrap();
        assert_eq!(d.n_codes(), 4); // {1,5,9} + null
        assert_eq!(d.encode(&Value::Int(1)), 0);
        assert_eq!(d.encode(&Value::Int(5)), 1);
        assert_eq!(d.encode(&Value::Int(9)), 2);
        assert_eq!(d.encode(&Value::Null), 3);
        // The column encoder agrees with the value encoder.
        let col = t.column(0);
        let codes = d.encode_rows(col, 0..t.nrows());
        for (r, &c) in codes.iter().enumerate() {
            assert_eq!(c as usize, d.encode(&col.get(r)));
        }
    }

    #[test]
    fn categorical_clause_weights_exact() {
        let t = int_table(&[Some(1), Some(5), Some(9)]);
        let d = Discretizer::default().build(&t, 0, None).unwrap();
        let w = d.clause_weights(&FilterExpr::pred(Predicate::cmp("x", CmpOp::Ge, 5)));
        assert_eq!(w, vec![0.0, 1.0, 1.0, 0.0]);
        let w = d.clause_weights(&FilterExpr::or(vec![
            FilterExpr::pred(Predicate::eq("x", 1)),
            FilterExpr::pred(Predicate::eq("x", 9)),
        ]));
        assert_eq!(w, vec![1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn bucketized_int_coverage() {
        let values: Vec<Option<i64>> = (0..1000).map(Some).collect();
        let t = int_table(&values);
        let d = Discretizer { max_codes: 10 }.build(&t, 0, None).unwrap();
        assert_eq!(d.n_codes(), 11);
        // x < 500 should give total weighted coverage ≈ 5 of 10 buckets.
        let w = d.clause_weights(&FilterExpr::pred(Predicate::cmp("x", CmpOp::Lt, 500)));
        let total: f64 = w[..10].iter().sum();
        assert!((total - 5.0).abs() < 0.2, "coverage {total}");
        // Every bucket's weight within [0,1].
        assert!(w.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn binary_searched_clauses_match_code_by_code_evaluation() {
        // A lone comparison / BETWEEN takes the binary-search path; wrapped
        // in a one-element AND it is evaluated code by code. Same weights,
        // bit for bit, on both integer encodings — in-range, boundary,
        // out-of-range, fractional, NaN and non-numeric literals.
        let values: Vec<Option<i64>> = (0..400).map(|i| Some(i * i % 977)).chain([None]).collect();
        let t = int_table(&values);
        let literals = [
            Value::Int(-5),
            Value::Int(0),
            Value::Int(126),
            Value::Int(500),
            Value::Int(976),
            Value::Int(5000),
            Value::Float(125.5),
            Value::Float(126.0),
            Value::Float(f64::NAN),
            Value::Str("x".into()),
            Value::Null,
        ];
        let ops = [
            CmpOp::Eq,
            CmpOp::Neq,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for max_codes in [1000, 16] {
            let d = Discretizer { max_codes }.build(&t, 0, None).unwrap();
            let mut preds = Vec::new();
            for a in &literals {
                preds.extend(ops.iter().map(|&op| Predicate::cmp("x", op, a.clone())));
                for b in &literals {
                    preds.push(Predicate::Between {
                        column: "x".into(),
                        lo: a.clone(),
                        hi: b.clone(),
                    });
                }
            }
            for p in preds {
                let lone = FilterExpr::pred(p);
                let wrapped = FilterExpr::And(vec![lone.clone()]);
                let (fast, slow) = (d.clause_weights(&lone), d.clause_weights(&wrapped));
                let same = fast
                    .iter()
                    .zip(&slow)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{lone} at {max_codes} codes: {fast:?} vs {slow:?}");
            }
        }
    }

    #[test]
    fn clauses_multiply_into_earlier_evidence() {
        let t = int_table(&[Some(1), Some(5), Some(9), None]);
        let d = Discretizer::default().build(&t, 0, None).unwrap();
        let mut lambda = vec![0.5, 0.25, 1.0, 1.0];
        d.apply_clause(
            &FilterExpr::pred(Predicate::cmp("x", CmpOp::Le, 5)),
            &mut lambda,
        );
        assert_eq!(lambda, vec![0.5, 0.25, 0.0, 0.0]);
    }

    #[test]
    fn null_code_handling() {
        let t = int_table(&[Some(1), None, Some(2)]);
        let d = Discretizer::default().build(&t, 0, None).unwrap();
        let w = d.clause_weights(&FilterExpr::pred(Predicate::IsNull {
            column: "x".into(),
            negated: false,
        }));
        assert_eq!(w[d.null_code()], 1.0);
        assert_eq!(w[0], 0.0);
        let w = d.clause_weights(&FilterExpr::pred(Predicate::IsNull {
            column: "x".into(),
            negated: true,
        }));
        assert_eq!(w[d.null_code()], 0.0);
        assert_eq!(w[0], 1.0);
    }

    #[test]
    fn string_small_dict_like_weights() {
        let schema = TableSchema::new(vec![ColumnDef::new("s", DataType::Str)]);
        let rows: Vec<Vec<Value>> = ["apple", "banana", "apricot"]
            .iter()
            .map(|s| vec![Value::Str(s.to_string())])
            .collect();
        let t = Table::from_rows("t", schema, &rows).unwrap();
        let d = Discretizer::default().build(&t, 0, None).unwrap();
        let w = d.clause_weights(&FilterExpr::pred(Predicate::like("s", "ap%")));
        assert_eq!(&w[..3], &[1.0, 0.0, 1.0]);
    }

    #[test]
    fn string_hashed_buckets_fractional() {
        let schema = TableSchema::new(vec![ColumnDef::new("s", DataType::Str)]);
        let rows: Vec<Vec<Value>> = (0..500)
            .map(|i| vec![Value::Str(format!("title {i} the"))])
            .collect();
        let t = Table::from_rows("t", schema, &rows).unwrap();
        let d = Discretizer { max_codes: 16 }.build(&t, 0, None).unwrap();
        assert_eq!(d.n_codes(), 17);
        let w = d.clause_weights(&FilterExpr::pred(Predicate::like("s", "%the%")));
        // Every title contains "the": all buckets fully covered.
        assert!(w[..16].iter().all(|&x| x == 1.0), "{w:?}");
        let w = d.clause_weights(&FilterExpr::pred(Predicate::like("s", "%42 %")));
        let total: f64 = w[..16].iter().sum();
        assert!(total > 0.0 && total < 4.0, "selective pattern: {total}");
    }

    #[test]
    fn key_bins_pass_through() {
        let t = int_table(&[Some(10), Some(20), Some(30)]);
        let map: HashMap<i64, u32> = [(10, 0), (20, 1), (30, 1)].into_iter().collect();
        let bins = Arc::new(KeyBinMap::new(2, map));
        let d = Discretizer::default().build(&t, 0, Some(&bins)).unwrap();
        assert_eq!(d.n_codes(), 3);
        assert_eq!(d.encode(&Value::Int(10)), 0);
        assert_eq!(d.encode(&Value::Int(30)), 1);
        // Value predicates on binned keys: weight 1 on non-null codes.
        let gt = FilterExpr::pred(Predicate::cmp("k", CmpOp::Gt, 15));
        assert_eq!(d.clause_weights(&gt), vec![1.0, 1.0, 0.0]);
        // NULL tests are representable; conjunct by conjunct, `IS NULL`
        // and a value predicate contradict each other.
        let is_null = FilterExpr::pred(Predicate::IsNull {
            column: "k".into(),
            negated: false,
        });
        let mut lambda = d.clause_weights(&is_null);
        assert_eq!(lambda, vec![0.0, 0.0, 1.0]);
        d.apply_clause(&gt, &mut lambda);
        assert_eq!(lambda, vec![0.0, 0.0, 0.0]);
        let not_null = FilterExpr::Not(Box::new(is_null));
        assert_eq!(d.clause_weights(&not_null), vec![1.0, 1.0, 0.0]);
    }

    #[test]
    fn float_columns_not_modeled() {
        let schema = TableSchema::new(vec![ColumnDef::new("f", DataType::Float)]);
        let t = Table::from_rows("t", schema, &[vec![Value::Float(1.0)]]).unwrap();
        assert!(Discretizer::default().build(&t, 0, None).is_none());
    }

    #[test]
    fn unseen_values_encode_deterministically() {
        let t = int_table(&[Some(1), Some(5)]);
        let d = Discretizer::default().build(&t, 0, None).unwrap();
        let c = d.encode(&Value::Int(1000));
        assert!(c < d.n_codes());
        assert_eq!(c, d.encode(&Value::Int(1000)));
    }

    /// The integer discretizer by one sort and a walk over the sorted
    /// values: the census's oracle.
    fn build_int_by_sort(disc: &Discretizer, name: &str, col: &Column) -> DiscreteColumn {
        let mut values: Vec<i64> = (0..col.len())
            .filter(|&i| !col.is_null(i))
            .map(|i| col.ints()[i])
            .collect();
        values.sort_unstable();
        let mut distinct = values.clone();
        distinct.dedup();
        if distinct.len() <= disc.max_codes {
            return DiscreteColumn {
                name: name.to_string(),
                non_null_codes: distinct.len().max(1),
                encoding: Encoding::IntCategorical { values: distinct },
            };
        }
        let n = disc.max_codes;
        let per = values.len().div_ceil(n);
        let (mut uppers, mut mins, mut maxs, mut ndv) = (vec![], vec![], vec![], vec![]);
        let mut start = 0usize;
        while start < values.len() {
            let mut end = (start + per).min(values.len());
            while end < values.len() && values[end] == values[end - 1] {
                end += 1;
            }
            let slice = &values[start..end];
            let mut d = 1u32;
            for w in slice.windows(2) {
                if w[0] != w[1] {
                    d += 1;
                }
            }
            mins.push(slice[0]);
            maxs.push(slice[slice.len() - 1]);
            uppers.push(slice[slice.len() - 1]);
            ndv.push(d);
            start = end;
        }
        DiscreteColumn {
            name: name.to_string(),
            non_null_codes: uppers.len(),
            encoding: Encoding::IntBuckets {
                uppers,
                mins,
                maxs,
                ndv,
            },
        }
    }

    /// Every field of an integer encoding, tagged by variant.
    type IntFields = (&'static str, usize, Vec<i64>, Vec<i64>, Vec<i64>, Vec<u32>);

    fn int_fields(d: &DiscreteColumn) -> IntFields {
        match &d.encoding {
            Encoding::IntCategorical { values } => (
                "categorical",
                d.non_null_codes,
                values.clone(),
                vec![],
                vec![],
                vec![],
            ),
            Encoding::IntBuckets {
                uppers,
                mins,
                maxs,
                ndv,
            } => (
                "buckets",
                d.non_null_codes,
                uppers.clone(),
                mins.clone(),
                maxs.clone(),
                ndv.clone(),
            ),
            other => panic!("not an integer encoding: {other:?}"),
        }
    }

    /// A `NULL`-able integer drawn as `(tag, x)`: tags below `nulls` are
    /// NULL; the rest spread `x` narrowly, over a thousand values, or over
    /// all of `i64` (its ends included), by `shape`.
    fn int_value(shape: u32, nulls: u32, (tag, x): (u32, i64)) -> Value {
        if tag < nulls {
            return Value::Null;
        }
        Value::Int(match shape {
            0 => x % 30 - 10,
            1 => x % 1000 - 500,
            _ => match x % 40 {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => x.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64),
            },
        })
    }

    fn one_column(dtype: DataType, values: impl Iterator<Item = Value>) -> Table {
        let schema = TableSchema::new(vec![ColumnDef::new("x", dtype)]);
        let rows: Vec<Vec<Value>> = values.map(|v| vec![v]).collect();
        Table::from_rows("t", schema, &rows).unwrap()
    }

    use proptest::prelude::*;

    proptest! {
        /// The census builds the integer encoding field for field like the
        /// sort-based oracle: narrow spans (histogram), wide and
        /// `i64`-extreme ones (sort), NULLs, all-NULL and empty columns,
        /// categorical and bucketed.
        #[test]
        fn census_equals_the_sorting_discretizer(
            shape in 0u32..3,
            nulls in 0u32..11,
            rows in prop::collection::vec((0u32..10, 0i64..1_000_000), 0..300),
            max_codes in 1usize..80,
        ) {
            let t = one_column(DataType::Int, rows.iter().map(|&r| int_value(shape, nulls, r)));
            let disc = Discretizer { max_codes };
            let census = disc.build(&t, 0, None).unwrap();
            let oracle = build_int_by_sort(&disc, "x", t.column(0));
            prop_assert_eq!(int_fields(&census), int_fields(&oracle));
        }

        /// `encode_rows` gives every row of any range what `encode` gives
        /// its value (a key row: its join-key value) — on integer
        /// (categorical, bucketed, `i64`-extreme), string (small and hashed
        /// dictionaries), integer-key and string-key columns with NULLs,
        /// all-NULL and empty, and on the column grown by rows the fit never
        /// saw: appended, or ahead of the fitted rows so that every
        /// dictionary code moves.
        #[test]
        fn column_encoder_equals_the_value_encoder(
            kind in 0u32..6,
            nulls in 0u32..11,
            fit in prop::collection::vec((0u32..10, 0i64..1_000_000), 0..150),
            more in prop::collection::vec((0u32..10, 0i64..1_000_000), 0..70),
            ahead in 0u32..2,
            max_codes in 1usize..40,
            range in (0usize..230, 0usize..230),
        ) {
            let (dtype, key) = match kind {
                0..=2 => (DataType::Int, false),
                3 => (DataType::Str, false),
                4 => (DataType::Int, true),
                _ => (DataType::Str, true),
            };
            let value = |&(tag, x): &(u32, i64)| match kind {
                0..=2 => int_value(kind, nulls, (tag, x)),
                4 => int_value(0, nulls, (tag, x)),
                _ if tag < nulls => Value::Null,
                _ => Value::Str(format!("s{}", x % 90)),
            };
            let fitted = one_column(dtype, fit.iter().map(value));
            // Key bins assign every other fitted key; the rest take the
            // map's fallback.
            let bins = key.then(|| {
                let col = fitted.column(0);
                let assigned = (0..col.len()).filter_map(|r| col.key_at(r)).filter(|v| v % 2 == 0);
                Arc::new(KeyBinMap::new(7, assigned.map(|v| (v, v.rem_euclid(7) as u32))))
            });
            let d = Discretizer { max_codes }.build(&fitted, 0, bins.as_ref()).unwrap();
            let grown = if ahead == 1 {
                one_column(dtype, more.iter().chain(&fit).map(value))
            } else {
                one_column(dtype, fit.iter().chain(&more).map(value))
            };
            let col = grown.column(0);
            let (a, b) = (range.0.min(col.len()), range.1.min(col.len()));
            let rows = a.min(b)..a.max(b);
            let codes = d.encode_rows(col, rows.clone());
            prop_assert_eq!(codes.len(), rows.len());
            for (r, &code) in rows.zip(&codes) {
                let v = if key { col.key_at(r).map_or(Value::Null, Value::Int) } else { col.get(r) };
                prop_assert_eq!(code as usize, d.encode(&v), "row {} = {:?}", r, v);
            }
        }
    }
}
