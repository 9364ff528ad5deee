//! "TrueScan" estimator: exact filtering at estimation time.
//!
//! Paper Table 7 evaluates FactorJoin with a `TrueScan` base estimator that
//! "scans and filters the tables during query time and calculates the true
//! cardinalities". It produces exact single-table statistics — and
//! therefore an exact per-bin bound — at the cost of per-query scan
//! latency, which is why its end-to-end time loses to the Bayesian network
//! despite better plans.

use crate::binmap::{KeyBinMap, TableBins};
use crate::traits::{BaseTableEstimator, TableProfile};
use fj_query::{compile_filter, FilterExpr};
use fj_storage::codec::{decode_table, encode_table, invalid, Dec, DecodeError, Enc};
use fj_storage::{Table, TableSchema};
use std::sync::Arc;

/// Exact scanning estimator holding its own snapshot of the table.
#[derive(Clone)]
pub struct ExactEstimator {
    table: Table,
    bins: TableBins,
}

impl ExactEstimator {
    /// Snapshots `table` for exact scanning.
    pub fn build(table: &Table, bins: &TableBins) -> Self {
        ExactEstimator {
            table: table.clone(),
            bins: bins.clone(),
        }
    }

    /// Reads a snapshot written by [`BaseTableEstimator::encode`]; it must
    /// be the table `name` with `schema`.
    pub fn decode(
        d: &mut Dec<'_>,
        name: &str,
        schema: &TableSchema,
        bins: &TableBins,
    ) -> Result<Self, DecodeError> {
        let table = decode_table(d)?;
        if table.name() != name || table.schema() != schema {
            return Err(invalid(format!(
                "snapshot {:?} does not have table {name:?}'s schema",
                table.name()
            )));
        }
        Ok(ExactEstimator {
            table,
            bins: bins.clone(),
        })
    }
}

impl BaseTableEstimator for ExactEstimator {
    fn name(&self) -> &'static str {
        "truescan"
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
        compile_filter(&self.table, filter).select(&self.table, selection);
        *rows = selection.count() as f64;
        for (dist, name) in key_dists.iter_mut().zip(key_cols) {
            dist.resize(self.key_bins(name), 0.0);
            let (Some(ci), Some(map)) = (self.table.schema().index_of(name), self.bins.get(name))
            else {
                continue;
            };
            let column = self.table.column(ci);
            for r in selection.rows() {
                if let Some(v) = column.key_at(r) {
                    dist[map.bin_of(v)] += 1.0;
                }
            }
        }
    }

    fn clone_box(&self) -> Box<dyn BaseTableEstimator> {
        Box::new(self.clone())
    }

    fn insert(&mut self, table: &Table, _first_new_row: usize) {
        // Exact scanning just re-snapshots the live table.
        self.table = table.clone();
    }

    fn encode(&self, out: &mut Enc, _groups: &[Arc<KeyBinMap>]) {
        encode_table(out, &self.table);
    }

    fn model_bytes(&self) -> usize {
        // The "model" is the data itself, and the bin maps are shared: no
        // learned state to report.
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binmap::KeyBinMap;
    use fj_query::{CmpOp, Predicate};
    use fj_storage::{ColumnDef, DataType, TableSchema, Value};
    use std::collections::HashMap;

    fn table() -> Table {
        let schema = TableSchema::new(vec![
            ColumnDef::key("id"),
            ColumnDef::new("x", DataType::Int),
        ]);
        let rows: Vec<Vec<Value>> = (0..200i64)
            .map(|i| {
                let id = if i % 7 == 6 {
                    Value::Null
                } else {
                    Value::Int(i % 20)
                };
                vec![id, Value::Int(i)]
            })
            .collect();
        Table::from_rows("t", schema, &rows).unwrap()
    }

    fn bins() -> TableBins {
        let mut tb = TableBins::new();
        let map: HashMap<i64, u32> = (0..20).map(|v| (v, (v % 4) as u32)).collect();
        tb.insert("id", KeyBinMap::new(4, map));
        tb
    }

    #[test]
    fn counts_are_exact() {
        let t = table();
        let e = ExactEstimator::build(&t, &bins());
        let f = FilterExpr::pred(Predicate::cmp("x", CmpOp::Lt, 100));
        assert_eq!(e.estimate_filter(&f), 100.0);
        assert_eq!(e.estimate_filter(&FilterExpr::True), 200.0);
    }

    #[test]
    fn distribution_is_exact_and_excludes_nulls() {
        let t = table();
        let e = ExactEstimator::build(&t, &bins());
        let d = &e.profile(&FilterExpr::True, &["id"]).key_dists[0];
        let nulls = t.column_by_name("id").unwrap().nulls().null_count() as f64;
        let sum: f64 = d.iter().sum();
        assert_eq!(sum, 200.0 - nulls);
    }

    #[test]
    fn insert_resnapshots() {
        let mut t = table();
        let mut e = ExactEstimator::build(&t, &bins());
        t.append_rows(&[vec![Value::Int(1), Value::Int(999)]])
            .unwrap();
        e.insert(&t, 200);
        assert_eq!(e.estimate_filter(&FilterExpr::True), 201.0);
    }

    #[test]
    fn name_and_size() {
        let t = table();
        let e = ExactEstimator::build(&t, &bins());
        assert_eq!(e.name(), "truescan");
        assert!(e.model_bytes() < t.heap_bytes());
    }
}
