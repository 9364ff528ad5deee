//! Per-column statistics: equi-depth histogram + most-common values + NDV.
//!
//! This is the Postgres-flavoured statistic the traditional baselines use
//! (Selinger model, JoinHist): per-column, independence across columns,
//! MCV list for skew, equi-depth buckets for ranges, and a fixed default
//! selectivity for `LIKE` — deliberately reproducing the weaknesses the
//! paper's Figure 7 shows for the `Postgres` baseline.

use fj_query::{CmpOp, FilterExpr, LikePattern, Predicate};
use fj_storage::{Column, DataType, Value};
use std::collections::HashMap;

/// Number of MCVs retained, as in Postgres' default statistics target ÷ 1.
const NUM_MCV: usize = 32;
/// Number of equi-depth buckets.
const NUM_BUCKETS: usize = 64;
/// Postgres-style default selectivity for un-anchored LIKE patterns.
const DEFAULT_MATCH_SEL: f64 = 0.005;
/// Default equality selectivity when the value misses MCVs and NDV is unknown.
const DEFAULT_EQ_SEL: f64 = 0.005;

/// Summary statistics of one column.
#[derive(Debug, Clone)]
pub struct ColumnHistogram {
    total: f64,
    null_frac: f64,
    ndv: f64,
    dtype: DataType,
    /// Most common integer values (or dictionary codes) with frequencies.
    mcv: Vec<(i64, f64)>,
    /// Most common strings (kept as text for LIKE evaluation).
    mcv_str: Vec<(String, f64)>,
    /// Equi-depth bucket upper bounds over non-MCV integer values.
    uppers: Vec<i64>,
    /// Fraction of rows per bucket (uniform by construction, kept explicit).
    bucket_frac: Vec<f64>,
    /// Global min/max of non-null integer values.
    minmax: Option<(i64, i64)>,
}

impl ColumnHistogram {
    /// Builds statistics for `col`.
    pub fn build(col: &Column) -> Self {
        let total = col.len() as f64;
        let nulls = col.nulls().null_count() as f64;
        let null_frac = if total > 0.0 { nulls / total } else { 0.0 };
        match col.dtype() {
            DataType::Int => Self::build_int(col, total, null_frac),
            DataType::Str => Self::build_str(col, total, null_frac),
            DataType::Float => ColumnHistogram {
                total,
                null_frac,
                ndv: 0.0,
                dtype: DataType::Float,
                mcv: Vec::new(),
                mcv_str: Vec::new(),
                uppers: Vec::new(),
                bucket_frac: Vec::new(),
                minmax: None,
            },
        }
    }

    fn build_int(col: &Column, total: f64, null_frac: f64) -> Self {
        let mut counts: HashMap<i64, u64> = HashMap::new();
        for i in 0..col.len() {
            if !col.is_null(i) {
                *counts.entry(col.ints()[i]).or_default() += 1;
            }
        }
        let ndv = counts.len() as f64;
        let minmax = counts
            .keys()
            .fold(None, |acc: Option<(i64, i64)>, &v| match acc {
                None => Some((v, v)),
                Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
            });
        let mut by_freq: Vec<(i64, u64)> = counts.iter().map(|(&v, &c)| (v, c)).collect();
        by_freq.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mcv: Vec<(i64, f64)> = by_freq
            .iter()
            .take(NUM_MCV)
            .map(|&(v, c)| (v, c as f64 / total.max(1.0)))
            .collect();
        let mcv_set: std::collections::HashSet<i64> = mcv.iter().map(|&(v, _)| v).collect();
        // Histogram over remaining values (value-weighted equi-depth).
        let mut rest: Vec<(i64, u64)> = by_freq
            .iter()
            .filter(|(v, _)| !mcv_set.contains(v))
            .copied()
            .collect();
        rest.sort_unstable_by_key(|&(v, _)| v);
        let rest_rows: u64 = rest.iter().map(|&(_, c)| c).sum();
        let mut uppers = Vec::new();
        let mut bucket_frac = Vec::new();
        if rest_rows > 0 {
            let per = (rest_rows as usize).div_ceil(NUM_BUCKETS) as u64;
            let mut acc = 0u64;
            for &(v, c) in &rest {
                acc += c;
                if acc >= per {
                    uppers.push(v);
                    bucket_frac.push(acc as f64 / total.max(1.0));
                    acc = 0;
                }
            }
            if acc > 0 {
                uppers.push(rest.last().expect("non-empty rest").0);
                bucket_frac.push(acc as f64 / total.max(1.0));
            }
        }
        ColumnHistogram {
            total,
            null_frac,
            ndv,
            dtype: DataType::Int,
            mcv,
            mcv_str: Vec::new(),
            uppers,
            bucket_frac,
            minmax,
        }
    }

    fn build_str(col: &Column, total: f64, null_frac: f64) -> Self {
        let mut counts: HashMap<u32, u64> = HashMap::new();
        for i in 0..col.len() {
            if !col.is_null(i) {
                *counts.entry(col.codes()[i]).or_default() += 1;
            }
        }
        let ndv = counts.len() as f64;
        let mut by_freq: Vec<(u32, u64)> = counts.into_iter().collect();
        by_freq.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let dict = col.dict();
        let mcv_str: Vec<(String, f64)> = by_freq
            .iter()
            .take(NUM_MCV)
            .map(|&(c, n)| (dict.get(c as usize).to_string(), n as f64 / total.max(1.0)))
            .collect();
        ColumnHistogram {
            total,
            null_frac,
            ndv,
            dtype: DataType::Str,
            mcv: Vec::new(),
            mcv_str,
            uppers: Vec::new(),
            bucket_frac: Vec::new(),
            minmax: None,
        }
    }

    /// Number of rows the statistics were built over.
    pub fn total_rows(&self) -> f64 {
        self.total
    }

    /// Incorporates rows `first_new_row..` of the (already appended-to)
    /// column in `O(|delta|)` — the Postgres-`ANALYZE`-avoiding maintenance
    /// path of paper §4.3 applied to the traditional per-column statistic.
    /// Totals, the NULL fraction, min/max, and the retained MCV
    /// frequencies update exactly; equi-depth bucket *boundaries* stay
    /// frozen with their masses rescaled (bucket re-selection, like bin
    /// re-selection, is a rebuild-time decision), and new MCV-missed
    /// *integer* values spread across the frozen buckets (string columns
    /// keep only an MCV list, as at build time). The NDV estimate keeps its
    /// build-time value (distinguishing genuinely-new values from repeats
    /// needs the full value set, which only a rebuild re-derives).
    pub fn insert(&mut self, col: &Column, first_new_row: usize) {
        let old_total = self.total;
        let new_total = col.len() as f64;
        if new_total <= old_total {
            return;
        }
        let scale = old_total / new_total.max(1.0);
        // Exact rescale of every stored fraction to the new denominator.
        for (_, f) in self.mcv.iter_mut() {
            *f *= scale;
        }
        for (_, f) in self.mcv_str.iter_mut() {
            *f *= scale;
        }
        let mut rest_mass = 0.0;
        for f in self.bucket_frac.iter_mut() {
            *f *= scale;
        }
        let mut nulls = self.null_frac * old_total;
        // One pass over the delta: bump MCV hits exactly, pool the rest.
        let one = 1.0 / new_total.max(1.0);
        for i in first_new_row..col.len() {
            if col.is_null(i) {
                nulls += 1.0;
                continue;
            }
            match self.dtype {
                DataType::Int => {
                    let v = col.ints()[i];
                    self.minmax = Some(match self.minmax {
                        None => (v, v),
                        Some((lo, hi)) => (lo.min(v), hi.max(v)),
                    });
                    if let Some((_, f)) = self.mcv.iter_mut().find(|&&mut (m, _)| m == v) {
                        *f += one;
                    } else {
                        rest_mass += one;
                    }
                }
                DataType::Str => {
                    // MCV-missed string mass has no histogram form even at
                    // build time (strings keep only an MCV list); misses
                    // fall back to default selectivities like stale
                    // Postgres stats.
                    let s = col.dict().get(col.codes()[i] as usize);
                    if let Some((_, f)) = self.mcv_str.iter_mut().find(|(m, _)| m == s) {
                        *f += one;
                    }
                }
                DataType::Float => {}
            }
        }
        // Spread MCV-missed mass across the frozen buckets proportionally.
        // A histogram built with every value in the MCV list has no
        // buckets; the first MCV-missed inserts then open one catch-all
        // bucket up to the new max, so their mass is represented instead
        // of silently dropped (mirrors Postgres keeping stale stats until
        // the next ANALYZE, not losing rows).
        if rest_mass > 0.0 && self.dtype == DataType::Int {
            let bucket_total: f64 = self.bucket_frac.iter().sum();
            if bucket_total > 0.0 {
                for f in self.bucket_frac.iter_mut() {
                    *f += rest_mass * (*f / bucket_total);
                }
            } else if let Some((_, hi)) = self.minmax {
                self.uppers.push(hi);
                self.bucket_frac.push(rest_mass);
            }
        }
        self.total = new_total;
        self.null_frac = nulls / new_total.max(1.0);
    }

    /// Estimated number of distinct non-null values.
    pub fn ndv(&self) -> f64 {
        self.ndv
    }

    /// Fraction of NULL rows.
    pub fn null_frac(&self) -> f64 {
        self.null_frac
    }

    /// Estimated selectivity (fraction of rows) of a boolean clause on this
    /// column, combining atoms with independence-style fuzzy logic —
    /// exactly the "attribute independence within a clause" weakness the
    /// traditional baselines exhibit.
    pub fn selectivity(&self, clause: &FilterExpr) -> f64 {
        match clause {
            FilterExpr::True => 1.0,
            FilterExpr::Pred(p) => self.pred_selectivity(p).clamp(0.0, 1.0),
            FilterExpr::And(parts) => parts.iter().map(|c| self.selectivity(c)).product(),
            FilterExpr::Or(parts) => {
                let miss: f64 = parts.iter().map(|c| 1.0 - self.selectivity(c)).product();
                1.0 - miss
            }
            FilterExpr::Not(inner) => 1.0 - self.selectivity(inner),
        }
    }

    fn pred_selectivity(&self, p: &Predicate) -> f64 {
        match p {
            Predicate::IsNull { negated, .. } => {
                if *negated {
                    1.0 - self.null_frac
                } else {
                    self.null_frac
                }
            }
            Predicate::Cmp { op, value, .. } => match self.dtype {
                DataType::Int | DataType::Float => self.numeric_cmp(*op, value),
                DataType::Str => self.string_cmp(*op, value),
            },
            Predicate::Between { lo, hi, .. } => {
                let a = self.numeric_cmp(CmpOp::Ge, lo);
                let b = self.numeric_cmp(CmpOp::Le, hi);
                (a + b - 1.0).max(0.0)
            }
            Predicate::InList { values, .. } => {
                let sum: f64 = values
                    .iter()
                    .map(|v| {
                        self.pred_selectivity(&Predicate::Cmp {
                            column: String::new(),
                            op: CmpOp::Eq,
                            value: v.clone(),
                        })
                    })
                    .sum();
                sum.min(1.0)
            }
            Predicate::Like {
                pattern, negated, ..
            } => {
                let pattern = LikePattern::new(pattern);
                let hit: f64 = self
                    .mcv_str
                    .iter()
                    .filter(|(s, _)| pattern.matches(s))
                    .map(|&(_, f)| f)
                    .sum();
                let mcv_mass: f64 = self.mcv_str.iter().map(|&(_, f)| f).sum();
                let rest = (1.0 - self.null_frac - mcv_mass).max(0.0);
                let sel = hit + rest * DEFAULT_MATCH_SEL;
                if *negated {
                    (1.0 - self.null_frac - sel).max(0.0)
                } else {
                    sel
                }
            }
        }
    }

    fn numeric_cmp(&self, op: CmpOp, value: &Value) -> f64 {
        let Some(v) = value.as_float() else {
            return 0.0;
        };
        match op {
            CmpOp::Eq => self.eq_selectivity(value),
            CmpOp::Neq => (1.0 - self.null_frac - self.eq_selectivity(value)).max(0.0),
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                // MCVs contribute exactly; histogram buckets interpolate.
                let mut sel = 0.0;
                for &(m, f) in &self.mcv {
                    if op.eval((m as f64).partial_cmp(&v).expect("finite")) {
                        sel += f;
                    }
                }
                let mut prev = self.minmax.map(|(lo, _)| lo).unwrap_or(0);
                for (i, &u) in self.uppers.iter().enumerate() {
                    let frac = self.bucket_frac[i];
                    let (blo, bhi) = (prev as f64, u as f64);
                    let cover = match op {
                        CmpOp::Lt | CmpOp::Le => ((v - blo) / (bhi - blo + 1.0)).clamp(0.0, 1.0),
                        _ => ((bhi - v) / (bhi - blo + 1.0)).clamp(0.0, 1.0),
                    };
                    sel += frac * cover;
                    prev = u;
                }
                sel
            }
        }
    }

    fn eq_selectivity(&self, value: &Value) -> f64 {
        if let Some(v) = value.as_int() {
            if let Some(&(_, f)) = self.mcv.iter().find(|&&(m, _)| m == v) {
                return f;
            }
        } else if let Some(s) = value.as_str() {
            if let Some(&(_, f)) = self.mcv_str.iter().find(|(m, _)| m == s) {
                return f;
            }
        }
        let mcv_mass: f64 = self.mcv.iter().map(|&(_, f)| f).sum::<f64>()
            + self.mcv_str.iter().map(|&(_, f)| f).sum::<f64>();
        let n_mcv = self.mcv.len() + self.mcv_str.len();
        let rest_ndv = (self.ndv - n_mcv as f64).max(1.0);
        if self.ndv > 0.0 {
            ((1.0 - self.null_frac - mcv_mass).max(0.0) / rest_ndv).max(0.0)
        } else {
            DEFAULT_EQ_SEL
        }
    }

    fn string_cmp(&self, op: CmpOp, value: &Value) -> f64 {
        let Some(s) = value.as_str() else { return 0.0 };
        match op {
            CmpOp::Eq => self.eq_selectivity(value),
            CmpOp::Neq => (1.0 - self.null_frac - self.eq_selectivity(value)).max(0.0),
            _ => {
                // Lexicographic ranges: MCV mass + default for the rest.
                let hit: f64 = self
                    .mcv_str
                    .iter()
                    .filter(|(m, _)| op.eval(m.as_str().cmp(s)))
                    .map(|&(_, f)| f)
                    .sum();
                let mcv_mass: f64 = self.mcv_str.iter().map(|&(_, f)| f).sum();
                hit + (1.0 - self.null_frac - mcv_mass).max(0.0) * 0.33
            }
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.mcv.len() * 16
            + self
                .mcv_str
                .iter()
                .map(|(s, _)| s.len() + 24)
                .sum::<usize>()
            + self.uppers.len() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_storage::{ColumnDef, Table, TableSchema};

    fn int_col(values: &[Option<i64>]) -> Column {
        let schema = TableSchema::new(vec![ColumnDef::new("x", DataType::Int)]);
        let rows: Vec<Vec<Value>> = values
            .iter()
            .map(|v| vec![v.map(Value::Int).unwrap_or(Value::Null)])
            .collect();
        Table::from_rows("t", schema, &rows)
            .unwrap()
            .column(0)
            .clone()
    }

    fn exact_sel(values: &[Option<i64>], clause: &FilterExpr) -> f64 {
        let n = values.len() as f64;
        let hits = values
            .iter()
            .filter(|v| clause.eval(&|_| v.map(Value::Int).unwrap_or(Value::Null)))
            .count();
        hits as f64 / n
    }

    #[test]
    fn insert_tracks_totals_nulls_minmax_and_mcv_exactly() {
        let mut values: Vec<Option<i64>> = vec![Some(7); 200];
        values.extend((0..100).map(Some));
        values.push(None);
        let mut h = ColumnHistogram::build(&int_col(&values));
        // Append a delta: more of the heavy MCV value, a NULL, and a value
        // beyond the old max.
        let mut appended = values.clone();
        appended.extend([Some(7), Some(7), None, Some(5000)].iter().copied());
        let first_new = values.len();
        h.insert(&int_col(&appended), first_new);
        let rebuilt = ColumnHistogram::build(&int_col(&appended));
        // Exactly-maintained statistics match a full rebuild.
        assert_eq!(h.total_rows(), rebuilt.total_rows());
        assert!((h.null_frac() - rebuilt.null_frac()).abs() < 1e-12);
        assert_eq!(h.minmax, rebuilt.minmax);
        // The MCV frequency of 7 is exact under both paths.
        let freq_of_7 =
            |hist: &ColumnHistogram| hist.mcv.iter().find(|&&(v, _)| v == 7).map(|&(_, f)| f);
        let (a, b) = (freq_of_7(&h).unwrap(), freq_of_7(&rebuilt).unwrap());
        assert!((a - b).abs() < 1e-12, "incremental {a} vs rebuilt {b}");
        // Equality selectivity on the MCV stays exact after the update.
        let clause = FilterExpr::pred(Predicate::eq("x", 7));
        let est = h.selectivity(&clause);
        let exact = exact_sel(&appended, &clause);
        assert!((est - exact).abs() < 0.01, "est {est} vs exact {exact}");
        // Probability mass stays normalized (≤ 1 with slack for rounding).
        let mass: f64 = h.null_frac()
            + h.mcv.iter().map(|&(_, f)| f).sum::<f64>()
            + h.bucket_frac.iter().sum::<f64>();
        assert!((mass - 1.0).abs() < 1e-9, "mass {mass}");
    }

    #[test]
    fn insert_into_all_mcv_histogram_keeps_new_value_mass() {
        // Built from ≤ NUM_MCV distinct values, the histogram has no
        // buckets; inserted MCV-missed values must still carry their mass
        // (a catch-all bucket opens) instead of vanishing.
        let values: Vec<Option<i64>> = (0..10).map(Some).collect();
        let mut h = ColumnHistogram::build(&int_col(&values));
        assert!(h.bucket_frac.is_empty(), "all values fit the MCV list");
        let mut appended = values.clone();
        // 30 brand-new values: far past the MCV list, above the old max.
        appended.extend((100..130).map(Some));
        h.insert(&int_col(&appended), values.len());
        let mass: f64 = h.null_frac()
            + h.mcv.iter().map(|&(_, f)| f).sum::<f64>()
            + h.bucket_frac.iter().sum::<f64>();
        assert!((mass - 1.0).abs() < 1e-9, "mass {mass} lost on insert");
        // The new values' range is selectable, not invisible.
        let clause = FilterExpr::pred(Predicate::cmp("x", CmpOp::Gt, 50));
        let est = h.selectivity(&clause);
        let exact = exact_sel(&appended, &clause);
        assert!(
            est >= exact * 0.5,
            "range over inserted values estimated {est} vs exact {exact}"
        );
    }

    #[test]
    fn equality_on_mcv_is_exact() {
        let mut values: Vec<Option<i64>> = vec![Some(7); 500];
        values.extend((0..500).map(Some));
        let h = ColumnHistogram::build(&int_col(&values));
        let clause = FilterExpr::pred(Predicate::eq("x", 7));
        let est = h.selectivity(&clause);
        let exact = exact_sel(&values, &clause);
        assert!((est - exact).abs() < 0.01, "est {est} vs exact {exact}");
    }

    #[test]
    fn range_estimates_are_close_on_uniform_data() {
        let values: Vec<Option<i64>> = (0..2000).map(Some).collect();
        let h = ColumnHistogram::build(&int_col(&values));
        for cut in [100, 500, 1500, 1900] {
            let clause = FilterExpr::pred(Predicate::cmp("x", CmpOp::Lt, cut));
            let est = h.selectivity(&clause);
            let exact = exact_sel(&values, &clause);
            assert!(
                (est - exact).abs() < 0.08,
                "cut {cut}: est {est:.3} vs exact {exact:.3}"
            );
        }
    }

    #[test]
    fn null_fraction_and_is_null() {
        let values: Vec<Option<i64>> = (0..100)
            .map(|i| if i % 4 == 0 { None } else { Some(i) })
            .collect();
        let h = ColumnHistogram::build(&int_col(&values));
        assert!((h.null_frac() - 0.25).abs() < 1e-9);
        let isnull = FilterExpr::pred(Predicate::IsNull {
            column: "x".into(),
            negated: false,
        });
        assert!((h.selectivity(&isnull) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn selectivities_in_unit_interval() {
        let values: Vec<Option<i64>> = (0..500).map(|i| Some(i % 37)).collect();
        let h = ColumnHistogram::build(&int_col(&values));
        let clauses = [
            FilterExpr::pred(Predicate::eq("x", 5)),
            FilterExpr::pred(Predicate::cmp("x", CmpOp::Neq, 5)),
            FilterExpr::pred(Predicate::between("x", 3, 30)),
            FilterExpr::pred(Predicate::in_list(
                "x",
                vec![Value::Int(1), Value::Int(2), Value::Int(99)],
            )),
            FilterExpr::Not(Box::new(FilterExpr::pred(Predicate::eq("x", 0)))),
            FilterExpr::or(vec![
                FilterExpr::pred(Predicate::eq("x", 1)),
                FilterExpr::pred(Predicate::eq("x", 2)),
            ]),
        ];
        for c in &clauses {
            let s = h.selectivity(c);
            assert!((0.0..=1.0).contains(&s), "{c} → {s}");
        }
    }

    #[test]
    fn like_uses_mcvs_plus_default() {
        let schema = TableSchema::new(vec![ColumnDef::new("s", DataType::Str)]);
        let mut rows: Vec<Vec<Value>> = vec![vec![Value::Str("the hit".into())]; 400];
        rows.extend((0..600).map(|i| vec![Value::Str(format!("tail {i}"))]));
        let t = Table::from_rows("t", schema, &rows).unwrap();
        let h = ColumnHistogram::build(t.column(0));
        let sel = h.selectivity(&FilterExpr::pred(Predicate::like("s", "%hit%")));
        // MCV "the hit" carries 0.4; the tail contributes only the default.
        assert!(sel > 0.39 && sel < 0.45, "sel {sel}");
        let sel_rare = h.selectivity(&FilterExpr::pred(Predicate::like("s", "%zzz%")));
        assert!(sel_rare < 0.01, "rare pattern sel {sel_rare}");
    }

    #[test]
    fn between_combines_bounds() {
        let values: Vec<Option<i64>> = (0..1000).map(Some).collect();
        let h = ColumnHistogram::build(&int_col(&values));
        let clause = FilterExpr::pred(Predicate::between("x", 250, 750));
        let est = h.selectivity(&clause);
        assert!((est - 0.5).abs() < 0.1, "est {est}");
    }

    #[test]
    fn ndv_counts_distinct() {
        let values: Vec<Option<i64>> = (0..300).map(|i| Some(i % 10)).collect();
        let h = ColumnHistogram::build(&int_col(&values));
        assert_eq!(h.ndv(), 10.0);
    }

    #[test]
    fn selectivity_monotone_under_widening_ranges() {
        // Skewed data with NULLs: as a range predicate widens, the estimate
        // must never decrease (and the mirror-image predicate never
        // increases).
        let values: Vec<Option<i64>> = (0..1500)
            .map(|i| {
                if i % 11 == 0 {
                    None
                } else if i % 3 == 0 {
                    Some(42) // heavy hitter lands in the MCV list
                } else {
                    Some(i % 400)
                }
            })
            .collect();
        let h = ColumnHistogram::build(&int_col(&values));
        let mut prev_lt = 0.0f64;
        let mut prev_gt = 1.0f64;
        for cut in (0..=440).step_by(20) {
            let lt = h.selectivity(&FilterExpr::pred(Predicate::cmp("x", CmpOp::Lt, cut)));
            let gt = h.selectivity(&FilterExpr::pred(Predicate::cmp("x", CmpOp::Gt, cut)));
            assert!(
                lt >= prev_lt - 1e-9,
                "x < {cut}: widening dropped the estimate {prev_lt} → {lt}"
            );
            assert!(
                gt <= prev_gt + 1e-9,
                "x > {cut}: narrowing raised the estimate {prev_gt} → {gt}"
            );
            prev_lt = lt;
            prev_gt = gt;
        }
        // BETWEEN widening around a fixed center is monotone too.
        let mut prev = 0.0f64;
        for half in (0..=200).step_by(25) {
            let s = h.selectivity(&FilterExpr::pred(Predicate::between(
                "x",
                200 - half,
                200 + half,
            )));
            assert!((0.0..=1.0).contains(&s), "between ±{half} → {s}");
            assert!(s >= prev - 1e-9, "between widened ±{half}: {prev} → {s}");
            prev = s;
        }
    }

    #[test]
    fn selectivity_bounded_on_adversarial_columns() {
        // Constant, near-empty, all-NULL, and two-point columns: every
        // predicate shape stays within [0, 1].
        let columns: Vec<Vec<Option<i64>>> = vec![
            vec![Some(5); 64], // constant
            vec![Some(1)],     // single row
            vec![None; 32],    // all NULL
            (0..64)
                .map(|i| {
                    Some(if i % 2 == 0 {
                        i64::MIN / 2
                    } else {
                        i64::MAX / 2
                    })
                })
                .collect(),
        ];
        for values in &columns {
            let h = ColumnHistogram::build(&int_col(values));
            let clauses = [
                FilterExpr::pred(Predicate::eq("x", 5)),
                FilterExpr::pred(Predicate::eq("x", 123456)),
                FilterExpr::pred(Predicate::cmp("x", CmpOp::Lt, 0)),
                FilterExpr::pred(Predicate::cmp("x", CmpOp::Ge, 5)),
                FilterExpr::pred(Predicate::cmp("x", CmpOp::Neq, 5)),
                FilterExpr::pred(Predicate::between("x", -10, 10)),
                FilterExpr::pred(Predicate::IsNull {
                    column: "x".into(),
                    negated: true,
                }),
                FilterExpr::Not(Box::new(FilterExpr::pred(Predicate::eq("x", 5)))),
                FilterExpr::and(vec![
                    FilterExpr::pred(Predicate::cmp("x", CmpOp::Ge, 0)),
                    FilterExpr::pred(Predicate::cmp("x", CmpOp::Le, 100)),
                ]),
                FilterExpr::or(vec![
                    FilterExpr::pred(Predicate::eq("x", 1)),
                    FilterExpr::pred(Predicate::eq("x", 5)),
                ]),
            ];
            for c in &clauses {
                let s = h.selectivity(c);
                assert!(
                    (0.0..=1.0).contains(&s),
                    "{c} on {} rows → {s}",
                    values.len()
                );
            }
        }
    }
}
