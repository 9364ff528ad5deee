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
use fj_query::{FilterExpr, Predicate};
use fj_storage::{Column, DataType, Table, Value};
use std::collections::HashMap;
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
        dict: Vec<String>,
        intern: HashMap<String, u32>,
    },
    /// Hashed string buckets: code = hash(string) % n; `dict`/`dict_rows`
    /// retained to evaluate pattern clauses as per-bucket row fractions.
    StrHashed {
        n: usize,
        dict: Vec<String>,
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
            DataType::Float => None, // not modeled; clauses on floats are ignored
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
        let dict = col.dict().to_vec();
        if dict.len() <= self.max_codes {
            let intern = dict
                .iter()
                .enumerate()
                .map(|(i, s)| (s.clone(), i as u32))
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
                str_bucket(&dict[col.codes()[r] as usize % dict.len()], *n)
            }
        }
    }

    /// Evaluates a single-column clause, returning a weight per code in
    /// `[0, 1]`: the (estimated) fraction of that code's rows satisfying
    /// the clause. Exact for categorical/string codes; fractional coverage
    /// under within-bucket uniformity for bucketized numerics (combined
    /// with product/complement fuzzy logic across boolean connectives).
    pub fn clause_weights(&self, clause: &FilterExpr) -> Vec<f64> {
        let n = self.n_codes();
        let mut w = vec![0.0; n];
        match &self.encoding {
            Encoding::KeyBins(_) => {
                // Value predicates on binned keys are not representable at
                // bin granularity; treat as non-selective (weight 1) except
                // for NULL tests, which the code structure does capture.
                for (c, slot) in w.iter_mut().enumerate() {
                    let v = if c == self.null_code() {
                        Value::Null
                    } else {
                        Value::Int(c as i64)
                    };
                    *slot = match only_null_tests(clause) {
                        Some(expr) => eval01(&expr, &v),
                        None => {
                            if c == self.null_code() {
                                0.0
                            } else {
                                1.0
                            }
                        }
                    };
                }
            }
            Encoding::IntCategorical { values } => {
                for (i, &x) in values.iter().enumerate() {
                    w[i] = eval01(clause, &Value::Int(x));
                }
                w[self.null_code()] = eval01(clause, &Value::Null);
            }
            Encoding::IntBuckets {
                mins, maxs, ndv, ..
            } => {
                for i in 0..self.non_null_codes {
                    w[i] = bucket_coverage(clause, mins[i], maxs[i], ndv[i]);
                }
                w[self.null_code()] = eval01(clause, &Value::Null);
            }
            Encoding::StrSmall { dict, .. } => {
                let matcher = clause.value_matcher();
                for (i, s) in dict.iter().enumerate() {
                    w[i] = f64::from(matcher.matches(&Value::Str(s.clone())));
                }
                w[self.null_code()] = eval01(clause, &Value::Null);
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
                    if matcher.matches(&Value::Str(s.clone())) {
                        matched[str_bucket(s, *n)] += dict_rows[code] as f64;
                    }
                }
                for i in 0..*n {
                    w[i] = if bucket_rows[i] > 0.0 {
                        matched[i] / bucket_rows[i]
                    } else {
                        0.0
                    };
                }
                w[self.null_code()] = eval01(clause, &Value::Null);
            }
        }
        w
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        match &self.encoding {
            Encoding::KeyBins(m) => m.heap_bytes(),
            Encoding::IntCategorical { values } => values.len() * 8,
            Encoding::IntBuckets { uppers, .. } => uppers.len() * 8 * 3 + uppers.len() * 4,
            Encoding::StrSmall { dict, .. } => dict.iter().map(|s| 2 * s.len() + 48).sum(),
            Encoding::StrHashed { dict, .. } => {
                dict.iter().map(|s| s.len() + 28).sum::<usize>() + dict.len() * 4
            }
        }
    }
}

/// Extracts the clause if it consists only of NULL tests (else `None`).
fn only_null_tests(clause: &FilterExpr) -> Option<FilterExpr> {
    let all_null = clause
        .predicates()
        .iter()
        .all(|p| matches!(p, Predicate::IsNull { .. }));
    all_null.then(|| clause.clone())
}

/// Evaluates a clause on a concrete value → {0.0, 1.0}.
fn eval01(clause: &FilterExpr, v: &Value) -> f64 {
    if clause.eval(&|_c: &str| v.clone()) {
        1.0
    } else {
        0.0
    }
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
                fj_query::CmpOp::Eq => {
                    if v >= lo && v <= hi {
                        1.0 / ndv.max(1) as f64
                    } else {
                        0.0
                    }
                }
                fj_query::CmpOp::Neq => {
                    if v >= lo && v <= hi {
                        1.0 - 1.0 / ndv.max(1) as f64
                    } else {
                        1.0
                    }
                }
                fj_query::CmpOp::Lt => clampf((v - lo) / width),
                fj_query::CmpOp::Le => clampf((v - lo + 1.0) / width),
                fj_query::CmpOp::Gt => clampf((hi - v) / width),
                fj_query::CmpOp::Ge => clampf((hi - v + 1.0) / width),
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
    use fj_query::CmpOp;
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
        let w = d.clause_weights(&FilterExpr::pred(Predicate::cmp("k", CmpOp::Gt, 15)));
        assert_eq!(w, vec![1.0, 1.0, 0.0]);
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
