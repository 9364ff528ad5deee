//! The common estimator interface used by the end-to-end harness.

use fj_query::{connected_subplans, Query, SubplanMask};

/// A cardinality estimator that can serve a cost-based optimizer.
///
/// `estimate_subplans` is the operation the end-to-end experiments time as
/// *planning latency*: estimating every connected sub-plan of a query
/// (paper §6.1 injects exactly these into Postgres). Methods take `&mut
/// self` because a baseline may keep scratch state across queries
/// (FactorJoin's estimation buffers).
pub trait CardEst {
    /// Display name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Estimated cardinality of one (sub-)query.
    fn estimate(&mut self, query: &Query) -> f64;

    /// Estimates every connected sub-plan with ≥ `min_size` aliases.
    ///
    /// The default projects each mask to a sub-query and estimates it
    /// independently — which is what the paper's non-progressive baselines
    /// do and why their planning time grows with sub-plan count.
    fn estimate_subplans(&mut self, query: &Query, min_size: u32) -> Vec<(SubplanMask, f64)> {
        connected_subplans(query, min_size)
            .into_iter()
            .map(|mask| {
                let (sub, _) = query.project(mask);
                (mask, self.estimate(&sub))
            })
            .collect()
    }

    /// Model size in bytes (0 for methods without a model).
    fn model_bytes(&self) -> usize {
        0
    }

    /// Offline training time in seconds (0 for training-free methods).
    fn train_seconds(&self) -> f64 {
        0.0
    }

    /// Whether the method supports this query's features (the learned
    /// data-driven baselines reject cyclic joins / LIKE, paper §6.1).
    fn supports(&self, _query: &Query) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_query::{FilterExpr, TableRef};
    use fj_storage::{Catalog, ColumnDef, Table, TableSchema, Value};

    struct CountingEst {
        calls: usize,
    }

    impl CardEst for CountingEst {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn estimate(&mut self, query: &Query) -> f64 {
            self.calls += 1;
            query.num_tables() as f64
        }
    }

    #[test]
    fn default_subplans_projects_each_mask() {
        let mut cat = Catalog::new();
        for name in ["a", "b", "c"] {
            let schema = TableSchema::new(vec![ColumnDef::key("id"), ColumnDef::key("fk")]);
            cat.add_table(
                Table::from_rows(name, schema, &[vec![Value::Int(1), Value::Int(1)]]).unwrap(),
            )
            .unwrap();
        }
        let q = Query::new(
            &cat,
            vec![
                TableRef::new("a", "a"),
                TableRef::new("b", "b"),
                TableRef::new("c", "c"),
            ],
            &[
                (("a".into(), "id".into()), ("b".into(), "fk".into())),
                (("b".into(), "id".into()), ("c".into(), "fk".into())),
            ],
            vec![FilterExpr::True; 3],
        )
        .unwrap();
        let mut est = CountingEst { calls: 0 };
        let subs = est.estimate_subplans(&q, 1);
        assert_eq!(subs.len(), 6);
        assert_eq!(est.calls, 6, "one estimate call per sub-plan");
        // Estimates reflect the projected sub-query sizes.
        assert!(subs.iter().any(|&(m, c)| m.count_ones() == 2 && c == 2.0));
    }
}
