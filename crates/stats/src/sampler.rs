//! Uniform-sampling single-table estimator.
//!
//! The paper uses "traditional random sampling" as one of the two base
//! estimators (§3.3) — it is the one used for IMDB-JOB because it supports
//! arbitrary filter shapes: disjunctions, `LIKE`, NULL tests, anything the
//! filter evaluator can decide. The estimator materializes a uniform
//! sample as its own small [`Table`] with the bin id of every sampled join
//! key precomputed. A query's filter is compiled against the sample and
//! evaluated column at a time into a selection bitmap; the selected rows'
//! bin ids are counted per key and scaled by the inverse sampling fraction.
//! An unfiltered alias skips the scan and copies a cached histogram.

use crate::binmap::{KeyBinMap, TableBins};
use crate::traits::{BaseTableEstimator, TableProfile};
use fj_query::{compile_filter, FilterExpr};
use fj_storage::codec::{decode_table, encode_table, invalid, Dec, DecodeError, Enc};
use fj_storage::{Table, TableSchema};
use std::sync::Arc;

/// One binned join-key column of the sample.
#[derive(Clone)]
struct KeyColumn {
    name: String,
    /// Index of the column in the sample's schema.
    col: usize,
    /// Bin id of each sampled row. NULL keys carry the id `k` (one past the
    /// last bin), so counting indexes a `k + 1`-slot histogram unbranched.
    bin_ids: Vec<u32>,
    /// Sampled rows per bin id over the whole sample, unscaled (`k + 1`
    /// slots, NULLs last) — the histogram of an unfiltered alias.
    counts: Vec<f64>,
}

/// Sampling-based estimator for one table.
#[derive(Clone)]
pub struct SamplingEstimator {
    sample: Table,
    keys: Vec<KeyColumn>,
    bins: TableBins,
    base_rows: f64,
    rate: f64,
    seed: u64,
}

impl SamplingEstimator {
    /// Minimum sample size: small (dimension) tables are kept whole, as
    /// real systems do — a 1% sample of a 7-row table would zero out most
    /// of the key domain and poison every bound that joins through it.
    pub const MIN_SAMPLE_ROWS: usize = 100;

    /// Builds a sampler over `table` with sampling fraction `rate`,
    /// deterministic in `seed`. The sample is systematic (seeded offset +
    /// stride), which is unbiased for our purposes and reproducible.
    pub fn build(table: &Table, bins: &TableBins, rate: f64, seed: u64) -> Self {
        assert!(rate > 0.0 && rate <= 1.0, "rate must be in (0, 1]");
        let n = table.nrows();
        let rate = if n > 0 {
            rate.max((Self::MIN_SAMPLE_ROWS as f64 / n as f64).min(1.0))
        } else {
            rate
        };
        let stride = (1.0 / rate).max(1.0);
        let offset = (seed % stride.ceil() as u64) as f64;
        let mut rows = Vec::with_capacity((n as f64 * rate) as usize + 1);
        let mut pos = offset;
        while (pos as usize) < n {
            rows.push(pos as usize);
            pos += stride;
        }
        if rows.is_empty() && n > 0 {
            rows.push(0);
        }
        let sample = table.select_rows(table.name(), &rows);
        Self::from_sample(sample, bins, n as f64, rate, seed)
    }

    /// The estimator over `sample`, drawn at `rate` with `seed` from a table
    /// of `base_rows` rows: bins every sampled key.
    fn from_sample(sample: Table, bins: &TableBins, base_rows: f64, rate: f64, seed: u64) -> Self {
        let keys = bins
            .iter()
            .filter_map(|(name, map)| {
                Some(KeyColumn {
                    name: name.clone(),
                    col: sample.schema().index_of(name)?,
                    bin_ids: Vec::with_capacity(sample.nrows()),
                    counts: vec![0.0; map.k() + 1],
                })
            })
            .collect();
        let mut est = SamplingEstimator {
            sample,
            keys,
            bins: bins.clone(),
            base_rows,
            rate,
            seed,
        };
        est.bin_rows_from(0);
        est
    }

    /// Reads a sampler written by [`BaseTableEstimator::encode`] for the
    /// table `name` with `schema` and key bins `bins`, and bins the sample's
    /// keys as the fit does. The rate must lie in (0, 1], the base row count
    /// be finite and non-negative, and the sample have the table's schema.
    pub fn decode(
        d: &mut Dec<'_>,
        name: &str,
        schema: &TableSchema,
        bins: &TableBins,
    ) -> Result<Self, DecodeError> {
        let rate = d.f64("sampling rate")?;
        let seed = d.varint("sampling seed")?;
        let base_rows = d.f64("sampled table rows")?;
        if !(rate > 0.0 && rate <= 1.0 && base_rows.is_finite() && base_rows >= 0.0) {
            return Err(invalid(format!(
                "sampler of {name:?}: rate {rate} or base rows {base_rows} out of range"
            )));
        }
        let sample = decode_table(d)?;
        if sample.name() != name || sample.schema() != schema {
            return Err(invalid(format!(
                "sample {:?} does not have table {name:?}'s schema",
                sample.name()
            )));
        }
        Ok(Self::from_sample(sample, bins, base_rows, rate, seed))
    }

    /// Bins the keys of sample rows `from..`, extending each key column's
    /// bin ids and unfiltered histogram. Rows before `from` keep their
    /// ids: the bin maps are frozen, and appending to the sample leaves
    /// the dictionary codes of string keys in place.
    fn bin_rows_from(&mut self, from: usize) {
        for key in &mut self.keys {
            let column = self.sample.column(key.col);
            let map = self
                .bins
                .get(&key.name)
                .expect("key columns come from `bins`");
            for r in from..self.sample.nrows() {
                let bin = column.key_at(r).map_or(map.k(), |v| map.bin_of(v));
                key.bin_ids.push(bin as u32);
                key.counts[bin] += 1.0;
            }
        }
    }

    /// Scale factor from sample counts to table counts.
    fn scale(&self) -> f64 {
        if self.sample.nrows() == 0 {
            0.0
        } else {
            self.base_rows / self.sample.nrows() as f64
        }
    }
}

impl BaseTableEstimator for SamplingEstimator {
    fn name(&self) -> &'static str {
        "sampling"
    }

    fn key_bins(&self, key_col: &str) -> usize {
        self.bins.get(key_col).map(|m| m.k()).unwrap_or(1)
    }

    fn profile_into(&self, filter: &FilterExpr, key_cols: &[&str], out: &mut TableProfile) {
        out.reset(key_cols.len());
        let TableProfile {
            rows,
            key_dists,
            selection,
            ..
        } = out;
        let scale = self.scale();
        let unfiltered = filter.is_trivial();
        let hits = if unfiltered {
            self.sample.nrows() as u64
        } else {
            compile_filter(&self.sample, filter).select(&self.sample, selection);
            selection.count()
        };
        *rows = hits as f64 * scale;
        for (dist, name) in key_dists.iter_mut().zip(key_cols) {
            let Some(key) = self.keys.iter().find(|key| key.name == *name) else {
                dist.resize(self.key_bins(name), 0.0);
                continue;
            };
            if unfiltered {
                dist.extend_from_slice(&key.counts);
            } else {
                dist.resize(key.counts.len(), 0.0);
                for r in selection.rows() {
                    dist[key.bin_ids[r] as usize] += 1.0;
                }
            }
            dist.pop(); // the NULL slot
            for x in dist.iter_mut() {
                *x *= scale;
            }
        }
    }

    fn clone_box(&self) -> Box<dyn BaseTableEstimator> {
        Box::new(self.clone())
    }

    fn insert(&mut self, table: &Table, first_new_row: usize) {
        // Extend the sample systematically over the inserted suffix, then
        // bin the appended sample rows.
        let n = table.nrows();
        let stride = (1.0 / self.rate).max(1.0);
        let offset = (self.seed % stride.ceil() as u64) as f64;
        let mut new_rows = Vec::new();
        let mut pos = first_new_row as f64 + offset;
        while (pos as usize) < n {
            new_rows.push(table.row(pos as usize));
            pos += stride;
        }
        let sampled_before = self.sample.nrows();
        if !new_rows.is_empty() {
            self.sample
                .append_rows(&new_rows)
                .expect("schema-compatible rows");
        }
        self.base_rows = n as f64;
        self.bin_rows_from(sampled_before);
    }

    fn encode(&self, out: &mut Enc, _groups: &[Arc<KeyBinMap>]) {
        out.f64(self.rate);
        out.varint(self.seed);
        out.f64(self.base_rows);
        encode_table(out, &self.sample);
    }

    fn model_bytes(&self) -> usize {
        self.sample.heap_bytes()
            + self
                .keys
                .iter()
                .map(|key| key.bin_ids.len() * 4 + key.counts.len() * 8)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binmap::KeyBinMap;
    use fj_query::{CmpOp, Predicate};
    use fj_storage::{ColumnDef, DataType, TableSchema, Value};
    use std::collections::HashMap;

    fn table(n: usize) -> Table {
        let schema = TableSchema::new(vec![
            ColumnDef::key("id"),
            ColumnDef::new("x", DataType::Int),
        ]);
        let rows: Vec<Vec<Value>> = (0..n as i64)
            .map(|i| {
                let id = if i % 10 == 9 {
                    Value::Null
                } else {
                    Value::Int(i % 50)
                };
                vec![id, Value::Int(i % 100)]
            })
            .collect();
        Table::from_rows("t", schema, &rows).unwrap()
    }

    fn bins_for(k: usize) -> TableBins {
        let mut tb = TableBins::new();
        let map: HashMap<i64, u32> = (0..50).map(|v| (v, (v % k as i64) as u32)).collect();
        tb.insert("id", KeyBinMap::new(k, map));
        tb
    }

    #[test]
    fn full_rate_sampling_is_exact() {
        let t = table(1000);
        let est = SamplingEstimator::build(&t, &bins_for(5), 1.0, 7);
        assert_eq!(est.sample.nrows(), 1000);
        let f = FilterExpr::pred(Predicate::cmp("x", CmpOp::Lt, 50));
        assert_eq!(est.estimate_filter(&f), 500.0);
    }

    #[test]
    fn subsample_estimates_within_tolerance() {
        let t = table(5000);
        let est = SamplingEstimator::build(&t, &bins_for(5), 0.2, 3);
        let f = FilterExpr::pred(Predicate::cmp("x", CmpOp::Lt, 30));
        let exact = 5000.0 * 0.3;
        let got = est.estimate_filter(&f);
        assert!(
            (got - exact).abs() / exact < 0.15,
            "estimate {got} vs exact {exact}"
        );
    }

    #[test]
    fn key_distribution_sums_to_non_null_rows() {
        let t = table(1000);
        let est = SamplingEstimator::build(&t, &bins_for(5), 1.0, 7);
        let d = &est.profile(&FilterExpr::True, &["id"]).key_dists[0];
        assert_eq!(d.len(), 5);
        let sum: f64 = d.iter().sum();
        // 10% of ids are NULL.
        assert_eq!(sum, 900.0);
    }

    #[test]
    fn profile_matches_individual_calls() {
        let t = table(2000);
        let est = SamplingEstimator::build(&t, &bins_for(4), 0.5, 1);
        let f = FilterExpr::pred(Predicate::cmp("x", CmpOp::Ge, 40));
        let p = est.profile(&f, &["id"]);
        assert_eq!(p.rows, est.estimate_filter(&f));
        assert_eq!(p.key_dists[0], est.profile(&f, &["x", "id"]).key_dists[1]);
    }

    #[test]
    fn supports_disjunctions_and_like_shapes() {
        // The sampler must handle shapes the BN cannot.
        let schema = TableSchema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("s", DataType::Str),
        ]);
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                vec![
                    Value::Int(i % 10),
                    Value::Str(if i % 2 == 0 {
                        "even x".into()
                    } else {
                        "odd y".into()
                    }),
                ]
            })
            .collect();
        let t = Table::from_rows("t", schema, &rows).unwrap();
        let est = SamplingEstimator::build(&t, &TableBins::new(), 1.0, 0);
        let f = FilterExpr::or(vec![
            FilterExpr::pred(Predicate::eq("a", 3)),
            FilterExpr::pred(Predicate::like("s", "%even%")),
        ]);
        // 50 evens + 10 rows with a=3 (i%10==3, all odd) = 60.
        assert_eq!(est.estimate_filter(&f), 60.0);
    }

    #[test]
    fn insert_extends_sample_and_scale() {
        let mut t = table(1000);
        let mut est = SamplingEstimator::build(&t, &bins_for(5), 0.5, 3);
        let before = est.estimate_filter(&FilterExpr::True);
        assert!((before - 1000.0).abs() < 3.0);
        let new_rows: Vec<Vec<Value>> = (0..500)
            .map(|i| vec![Value::Int(i % 50), Value::Int(5)])
            .collect();
        t.append_rows(&new_rows).unwrap();
        est.insert(&t, 1000);
        let after = est.estimate_filter(&FilterExpr::True);
        assert!((after - 1500.0).abs() < 5.0, "after insert {after}");
        // The x=5 mass grew substantially.
        let f5 = est.estimate_filter(&FilterExpr::pred(Predicate::eq("x", 5)));
        assert!(f5 > 400.0, "x=5 estimate {f5}");
    }

    /// `x IS NULL OR x IS NOT NULL`: accepts every row, but through the scan.
    fn tautology() -> FilterExpr {
        let null_test = |negated| {
            FilterExpr::pred(Predicate::IsNull {
                column: "x".into(),
                negated,
            })
        };
        FilterExpr::or(vec![null_test(false), null_test(true)])
    }

    #[test]
    fn insert_bins_the_appended_rows_only_and_keeps_the_cached_histogram_exact() {
        let mut t = table(1000);
        let mut est = SamplingEstimator::build(&t, &bins_for(5), 0.5, 3);
        let ids_before = est.keys[0].bin_ids.clone();
        for round in 0..3i64 {
            let first_new_row = t.nrows();
            // New rows bring NULL keys and key values the bins never saw.
            let new_rows: Vec<Vec<Value>> = (0..333)
                .map(|i| {
                    let id = match i % 7 {
                        0 => Value::Null,
                        1 => Value::Int(1000 + round * 10 + i % 3),
                        _ => Value::Int(i % 50),
                    };
                    vec![id, Value::Int(5)]
                })
                .collect();
            t.append_rows(&new_rows).unwrap();
            est.insert(&t, first_new_row);

            assert_eq!(est.keys[0].bin_ids.len(), est.sample.nrows());
            assert_eq!(est.keys[0].bin_ids[..ids_before.len()], ids_before[..]);
            let cached = est.profile(&FilterExpr::True, &["id"]);
            let recount = est.profile(&tautology(), &["id"]);
            assert_eq!(cached.rows.to_bits(), recount.rows.to_bits());
            let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&cached.key_dists[0]), bits(&recount.key_dists[0]));
        }
        assert!(est.sample.nrows() > ids_before.len() + 400);
    }

    #[test]
    fn profile_into_refills_the_callers_buffers() {
        let t = table(2000);
        let est = SamplingEstimator::build(&t, &bins_for(4), 0.5, 1);
        let selective = FilterExpr::pred(Predicate::cmp("x", CmpOp::Ge, 90));
        let mut out = TableProfile::default();
        // Warm up on the widest request, and on a narrower one so the
        // parked distribution buffer has its slot.
        est.profile_into(&tautology(), &["id", "id"], &mut out);
        est.profile_into(&tautology(), &["id"], &mut out);
        let reserved = out.capacity();
        let buffer = out.key_dists[0].as_ptr();
        for (filter, keys) in [
            (&selective, &["id"][..]),
            (&FilterExpr::True, &["id", "id"][..]),
            (&tautology(), &["id"][..]),
        ] {
            est.profile_into(filter, keys, &mut out);
            assert_eq!(out.key_dists.len(), keys.len());
            assert_eq!(out.key_dists[0].as_ptr(), buffer);
            assert_eq!(out.capacity(), reserved);
        }
    }

    #[test]
    fn model_bytes_charges_bin_ids_and_cached_histograms() {
        let t = table(1000);
        let est = SamplingEstimator::build(&t, &bins_for(5), 1.0, 7);
        // One key: 4 B per sampled row, 8 B per bin plus the NULL slot.
        assert_eq!(
            est.model_bytes(),
            est.sample.heap_bytes() + 1000 * 4 + (5 + 1) * 8
        );
    }

    #[test]
    fn model_bytes_scales_with_rate() {
        let t = table(4000);
        let small = SamplingEstimator::build(&t, &bins_for(5), 0.05, 3);
        let large = SamplingEstimator::build(&t, &bins_for(5), 0.5, 3);
        assert!(large.model_bytes() > 4 * small.model_bytes());
    }

    #[test]
    fn deterministic_given_seed() {
        let t = table(3000);
        let a = SamplingEstimator::build(&t, &bins_for(5), 0.1, 11);
        let b = SamplingEstimator::build(&t, &bins_for(5), 0.1, 11);
        let f = FilterExpr::pred(Predicate::cmp("x", CmpOp::Lt, 37));
        assert_eq!(a.estimate_filter(&f), b.estimate_filter(&f));
    }
}
