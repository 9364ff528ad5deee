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

use crate::binmap::KeyBinMap;
use fj_query::{CmpOp, FilterExpr, Predicate};
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
    /// One code per distinct integer (sorted).
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
        let mut values: Vec<i64> = (0..col.len())
            .filter(|&i| !col.is_null(i))
            .map(|i| col.ints()[i])
            .collect();
        values.sort_unstable();
        let mut distinct = values.clone();
        distinct.dedup();
        if distinct.len() <= self.max_codes {
            return DiscreteColumn {
                name: name.to_string(),
                non_null_codes: distinct.len().max(1),
                encoding: Encoding::IntCategorical { values: distinct },
            };
        }
        // Equi-depth buckets over the sorted multiset, cut at distinct-value
        // boundaries so a value belongs to exactly one bucket.
        let n = self.max_codes;
        let per = values.len().div_ceil(n);
        let mut uppers = Vec::with_capacity(n);
        let mut mins = Vec::with_capacity(n);
        let mut maxs = Vec::with_capacity(n);
        let mut ndv = Vec::with_capacity(n);
        let mut start = 0usize;
        while start < values.len() {
            let mut end = (start + per).min(values.len());
            // Extend to the end of the run of equal values.
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
        let mut bucket_rows = vec![0f64; n];
        for (code, s) in dict.iter().enumerate() {
            bucket_rows[str_bucket(s, n)] += dict_rows[code] as f64;
        }
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
            Encoding::IntCategorical { values } => match v.as_int() {
                Some(x) => match values.binary_search(&x) {
                    Ok(i) => i,
                    // Unseen value: clamp to the nearest existing code.
                    Err(i) => i.min(values.len().saturating_sub(1)),
                },
                None => self.null_code(),
            },
            Encoding::IntBuckets { uppers, .. } => match v.as_int() {
                Some(x) => match uppers.binary_search(&x) {
                    Ok(i) => i,
                    Err(i) => i.min(uppers.len() - 1),
                },
                None => self.null_code(),
            },
            Encoding::StrSmall { intern, dict, .. } => match v.as_str() {
                Some(s) => match intern.get(s) {
                    Some(&c) => c as usize,
                    None => str_bucket(s, dict.len().max(1)),
                },
                None => self.null_code(),
            },
            Encoding::StrHashed { n, .. } => match v.as_str() {
                Some(s) => str_bucket(s, *n),
                None => self.null_code(),
            },
        }
    }

    /// Fast-path encoding of row `r` of the column this was built from.
    pub fn encode_row(&self, col: &Column, r: usize) -> usize {
        if col.is_null(r) {
            return self.null_code();
        }
        match &self.encoding {
            Encoding::KeyBins(map) => map.bin_of(col.key_at(r).expect("non-null checked")),
            Encoding::IntCategorical { values } => {
                let x = col.ints()[r];
                match values.binary_search(&x) {
                    Ok(i) => i,
                    Err(i) => i.min(values.len().saturating_sub(1)),
                }
            }
            Encoding::IntBuckets { uppers, .. } => {
                let x = col.ints()[r];
                match uppers.binary_search(&x) {
                    Ok(i) => i,
                    Err(i) => i.min(uppers.len() - 1),
                }
            }
            Encoding::StrSmall { .. } => col.codes()[r] as usize,
            Encoding::StrHashed { n, dict, .. } => {
                str_bucket(dict.get(col.codes()[r] as usize % dict.len()), *n)
            }
        }
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
                        for i in zero_to..zero_from {
                            if !(full_from..full_to).contains(&i) {
                                codes[i] *= coverage(i);
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

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        match &self.encoding {
            Encoding::KeyBins(m) => m.heap_bytes(),
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
        // Row-level encoding agrees with value-level.
        let col = t.column(0);
        for r in 0..t.nrows() {
            assert_eq!(d.encode_row(col, r), d.encode(&col.get(r)));
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
}
