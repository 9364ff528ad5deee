//! Filter decomposition into per-column clauses.
//!
//! A filter can be read column by column exactly when it is a conjunction
//! of clauses that each reference a single column (disjunctions/negations
//! *inside* a clause are fine — they still induce a weight per value of
//! that column). [`split_per_column`] performs the decomposition for the
//! histogram baselines in `fj-baselines`, merging the clauses of one column
//! with `AND`; [`clause_weights`] evaluates a clause against a discretized
//! column. The Bayesian network no longer goes through here: it walks the
//! conjunction itself and multiplies each clause's weights into its
//! evidence buffers in place (see [`crate::bayesnet`]).

use crate::discretize::DiscreteColumn;
use fj_query::FilterExpr;

/// Splits `filter` into per-column clauses if it is a conjunction of
/// single-column sub-expressions; returns `None` for cross-column
/// disjunctions.
pub fn split_per_column(filter: &FilterExpr) -> Option<Vec<(String, FilterExpr)>> {
    let mut clauses: Vec<(String, FilterExpr)> = Vec::new();
    collect(filter, &mut clauses)?;
    Some(clauses)
}

fn collect(expr: &FilterExpr, out: &mut Vec<(String, FilterExpr)>) -> Option<()> {
    match expr {
        FilterExpr::True => Some(()),
        FilterExpr::And(parts) => {
            for p in parts {
                collect(p, out)?;
            }
            Some(())
        }
        other => {
            let cols = other.columns();
            match cols.len() {
                0 => Some(()),
                1 => {
                    let col = cols.into_iter().next().expect("len checked");
                    // Merge multiple clauses on the same column with AND.
                    if let Some(entry) = out.iter_mut().find(|(c, _)| *c == col) {
                        entry.1 = FilterExpr::and(vec![entry.1.clone(), other.clone()]);
                    } else {
                        out.push((col, other.clone()));
                    }
                    Some(())
                }
                _ => None,
            }
        }
    }
}

/// Evaluates a single-column clause against a discretized column, returning
/// the expected satisfaction weight of each code in `[0, 1]`.
///
/// For exact codes (categorical values, key bins of size 1, dictionary
/// strings) the weight is 0 or 1; for range-bucketized numerics boundary
/// buckets get fractional coverage estimated under within-bucket uniformity.
pub fn clause_weights(col: &DiscreteColumn, clause: &FilterExpr) -> Vec<f64> {
    col.clause_weights(clause)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_query::{CmpOp, Predicate};

    fn pred(col: &str, v: i64) -> FilterExpr {
        FilterExpr::pred(Predicate::eq(col, v))
    }

    #[test]
    fn conjunction_splits_by_column() {
        let f = FilterExpr::and(vec![
            pred("a", 1),
            pred("b", 2),
            FilterExpr::pred(Predicate::cmp("a", CmpOp::Lt, 10)),
        ]);
        let clauses = split_per_column(&f).unwrap();
        assert_eq!(clauses.len(), 2);
        assert_eq!(clauses[0].0, "a");
        assert_eq!(
            clauses[0].1.num_predicates(),
            2,
            "same-column clauses merged"
        );
        assert_eq!(clauses[1].0, "b");
    }

    #[test]
    fn same_column_disjunction_is_supported() {
        let f = FilterExpr::or(vec![pred("a", 1), pred("a", 2)]);
        let clauses = split_per_column(&f).unwrap();
        assert_eq!(clauses.len(), 1);
        assert_eq!(clauses[0].0, "a");
    }

    #[test]
    fn cross_column_disjunction_is_rejected() {
        let f = FilterExpr::or(vec![pred("a", 1), pred("b", 2)]);
        assert!(split_per_column(&f).is_none());
    }

    #[test]
    fn trivial_filter_yields_no_clauses() {
        assert_eq!(split_per_column(&FilterExpr::True).unwrap().len(), 0);
    }

    #[test]
    fn nested_not_single_column_ok() {
        let f = FilterExpr::Not(Box::new(pred("a", 3)));
        let clauses = split_per_column(&f).unwrap();
        assert_eq!(clauses.len(), 1);
    }
}
