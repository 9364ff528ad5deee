//! Boolean filter expressions: AND/OR/NOT trees over [`Predicate`]s.

use crate::like::LikePattern;
use crate::predicate::Predicate;
use fj_storage::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The deepest AND/OR/NOT nesting a filter may have: the count of
/// AND, OR and NOT nodes on its longest path from the root. The parser and
/// the wire decoder both refuse deeper input with a typed error, since
/// both recurse once a level and a hostile query would otherwise overflow
/// the stack. The workloads nest about four levels deep.
pub const MAX_FILTER_DEPTH: usize = 64;

/// A boolean combination of predicates on a single table alias.
///
/// FactorJoin explicitly supports disjunctive filter clauses (paper §1),
/// which the learned data-driven baselines cannot handle; keeping full
/// AND/OR/NOT trees in the IR lets the sampling-based single-table
/// estimator support them while the Bayesian-network estimator can reject
/// shapes it cannot evaluate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FilterExpr {
    /// No filter — matches every row.
    True,
    /// An atomic predicate.
    Pred(Predicate),
    /// Conjunction; empty conjunction is `True`.
    And(Vec<FilterExpr>),
    /// Disjunction; empty disjunction is `False` (matches nothing).
    Or(Vec<FilterExpr>),
    /// Negation.
    Not(Box<FilterExpr>),
}

impl FilterExpr {
    /// Builds a conjunction, flattening nested ANDs and dropping `True`s.
    pub fn and(parts: Vec<FilterExpr>) -> FilterExpr {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                FilterExpr::True => {}
                FilterExpr::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => FilterExpr::True,
            1 => flat.pop().expect("len checked"),
            _ => FilterExpr::And(flat),
        }
    }

    /// Builds a disjunction, flattening nested ORs.
    pub fn or(parts: Vec<FilterExpr>) -> FilterExpr {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                FilterExpr::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.iter().any(|e| matches!(e, FilterExpr::True)) {
            return FilterExpr::True;
        }
        match flat.len() {
            1 => flat.pop().expect("len checked"),
            _ => FilterExpr::Or(flat),
        }
    }

    /// Wraps a predicate.
    pub fn pred(p: Predicate) -> FilterExpr {
        FilterExpr::Pred(p)
    }

    /// True when the filter matches all rows.
    pub fn is_trivial(&self) -> bool {
        matches!(self, FilterExpr::True)
    }

    /// Evaluates the filter against a row accessor: `get(column) -> Value`.
    ///
    /// Unknown (NULL-involved) atoms evaluate to false before negation, which
    /// matches filter semantics in the executors we compare against closely
    /// enough for cardinality work.
    pub fn eval<F>(&self, get: &F) -> bool
    where
        F: Fn(&str) -> Value,
    {
        match self {
            FilterExpr::True => true,
            FilterExpr::Pred(p) => p.eval(&get(p.column())),
            FilterExpr::And(parts) => parts.iter().all(|e| e.eval(get)),
            FilterExpr::Or(parts) => parts.iter().any(|e| e.eval(get)),
            FilterExpr::Not(inner) => !inner.eval(get),
        }
    }

    /// Prepares a single-column clause for evaluation against many strings
    /// of that column (a dictionary): `LIKE` patterns are compiled here,
    /// once, not once per string.
    pub fn value_matcher(&self) -> ValueMatcher<'_> {
        ValueMatcher(match self {
            FilterExpr::True => MatchNode::True,
            FilterExpr::Pred(Predicate::Like {
                pattern, negated, ..
            }) => MatchNode::Like {
                pattern: LikePattern::new(pattern),
                negated: *negated,
            },
            FilterExpr::Pred(p) => MatchNode::Pred(p),
            FilterExpr::And(parts) => {
                MatchNode::And(parts.iter().map(|e| e.value_matcher().0).collect())
            }
            FilterExpr::Or(parts) => {
                MatchNode::Or(parts.iter().map(|e| e.value_matcher().0).collect())
            }
            FilterExpr::Not(inner) => MatchNode::Not(Box::new(inner.value_matcher().0)),
        })
    }

    /// All column names referenced, deduplicated, in first-reference order.
    pub fn columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            FilterExpr::True => {}
            FilterExpr::Pred(p) => {
                if !out.iter().any(|c| c == p.column()) {
                    out.push(p.column().to_string());
                }
            }
            FilterExpr::And(parts) | FilterExpr::Or(parts) => {
                for p in parts {
                    p.collect_columns(out);
                }
            }
            FilterExpr::Not(inner) => inner.collect_columns(out),
        }
    }

    /// All atomic predicates in the tree, in-order.
    pub fn predicates(&self) -> Vec<&Predicate> {
        let mut out = Vec::new();
        self.collect_preds(&mut out);
        out
    }

    fn collect_preds<'a>(&'a self, out: &mut Vec<&'a Predicate>) {
        match self {
            FilterExpr::True => {}
            FilterExpr::Pred(p) => out.push(p),
            FilterExpr::And(parts) | FilterExpr::Or(parts) => {
                for p in parts {
                    p.collect_preds(out);
                }
            }
            FilterExpr::Not(inner) => inner.collect_preds(out),
        }
    }

    /// Number of atomic predicates.
    pub fn num_predicates(&self) -> usize {
        self.predicates().len()
    }

    /// Renders the expression as SQL, with `alias.` prefixed to each column.
    pub fn to_sql(&self, alias: &str) -> String {
        match self {
            FilterExpr::True => "TRUE".to_string(),
            FilterExpr::Pred(p) => {
                let s = p.to_string();
                format!("{alias}.{s}")
            }
            FilterExpr::And(parts) => {
                let inner: Vec<String> = parts.iter().map(|p| p.to_sql_paren(alias)).collect();
                inner.join(" AND ")
            }
            FilterExpr::Or(parts) => {
                let inner: Vec<String> = parts.iter().map(|p| p.to_sql_paren(alias)).collect();
                inner.join(" OR ")
            }
            FilterExpr::Not(inner) => format!("NOT {}", inner.to_sql_paren(alias)),
        }
    }

    fn to_sql_paren(&self, alias: &str) -> String {
        match self {
            FilterExpr::And(_) | FilterExpr::Or(_) => format!("({})", self.to_sql(alias)),
            _ => self.to_sql(alias),
        }
    }
}

/// A clause bound by [`FilterExpr::value_matcher`].
pub struct ValueMatcher<'a>(MatchNode<'a>);

enum MatchNode<'a> {
    True,
    Pred(&'a Predicate),
    Like { pattern: LikePattern, negated: bool },
    And(Vec<MatchNode<'a>>),
    Or(Vec<MatchNode<'a>>),
    Not(Box<MatchNode<'a>>),
}

impl ValueMatcher<'_> {
    /// [`FilterExpr::eval`] with every referenced column reading the
    /// string `s` (never wrapped in a [`Value`]: the callers scan whole
    /// dictionaries).
    pub fn matches_str(&self, s: &str) -> bool {
        self.0.matches_str(s)
    }
}

impl MatchNode<'_> {
    fn matches_str(&self, s: &str) -> bool {
        match self {
            MatchNode::True => true,
            MatchNode::Pred(p) => p.eval_str(s),
            MatchNode::Like { pattern, negated } => pattern.matches(s) != *negated,
            MatchNode::And(parts) => parts.iter().all(|n| n.matches_str(s)),
            MatchNode::Or(parts) => parts.iter().any(|n| n.matches_str(s)),
            MatchNode::Not(inner) => !inner.matches_str(s),
        }
    }
}

impl fmt::Display for FilterExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Display without alias prefix (columns as-is). Used in diagnostics.
        match self {
            FilterExpr::True => write!(f, "TRUE"),
            FilterExpr::Pred(p) => write!(f, "{p}"),
            FilterExpr::And(parts) => {
                let inner: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
                write!(f, "({})", inner.join(" AND "))
            }
            FilterExpr::Or(parts) => {
                let inner: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
                write!(f, "({})", inner.join(" OR "))
            }
            FilterExpr::Not(inner) => write!(f, "NOT ({inner})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use std::collections::HashMap;

    fn row(pairs: &[(&str, Value)]) -> HashMap<String, Value> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    fn getter(m: &HashMap<String, Value>) -> impl Fn(&str) -> Value + '_ {
        move |c: &str| m.get(c).cloned().unwrap_or(Value::Null)
    }

    #[test]
    fn and_or_evaluation() {
        let e = FilterExpr::and(vec![
            FilterExpr::pred(Predicate::cmp("a", CmpOp::Gt, 0)),
            FilterExpr::or(vec![
                FilterExpr::pred(Predicate::eq("b", 1)),
                FilterExpr::pred(Predicate::eq("b", 2)),
            ]),
        ]);
        let r1 = row(&[("a", Value::Int(5)), ("b", Value::Int(2))]);
        let r2 = row(&[("a", Value::Int(5)), ("b", Value::Int(3))]);
        let r3 = row(&[("a", Value::Int(-1)), ("b", Value::Int(1))]);
        assert!(e.eval(&getter(&r1)));
        assert!(!e.eval(&getter(&r2)));
        assert!(!e.eval(&getter(&r3)));
    }

    #[test]
    fn value_matcher_agrees_with_eval() {
        let clauses = [
            FilterExpr::True,
            FilterExpr::pred(Predicate::like("s", "%an%")),
            FilterExpr::Not(Box::new(FilterExpr::pred(Predicate::like("s", "b_n%")))),
            FilterExpr::or(vec![
                FilterExpr::pred(Predicate::Like {
                    column: "s".into(),
                    pattern: "%a".into(),
                    negated: true,
                }),
                FilterExpr::and(vec![
                    FilterExpr::pred(Predicate::cmp("s", CmpOp::Ge, "b")),
                    FilterExpr::pred(Predicate::IsNull {
                        column: "s".into(),
                        negated: true,
                    }),
                ]),
            ]),
        ];
        for clause in &clauses {
            let matcher = clause.value_matcher();
            for s in ["banana", "pear", "", "a"] {
                assert_eq!(
                    matcher.matches_str(s),
                    clause.eval(&|_| Value::Str(s.into())),
                    "{clause} on {s:?}"
                );
            }
        }
    }

    #[test]
    fn and_flattens_and_drops_true() {
        let e = FilterExpr::and(vec![
            FilterExpr::True,
            FilterExpr::and(vec![
                FilterExpr::pred(Predicate::eq("a", 1)),
                FilterExpr::pred(Predicate::eq("b", 2)),
            ]),
        ]);
        match &e {
            FilterExpr::And(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected flat And, got {other:?}"),
        }
        assert_eq!(FilterExpr::and(vec![]), FilterExpr::True);
        assert_eq!(FilterExpr::and(vec![FilterExpr::True]), FilterExpr::True);
    }

    #[test]
    fn or_with_true_collapses() {
        let e = FilterExpr::or(vec![
            FilterExpr::True,
            FilterExpr::pred(Predicate::eq("a", 1)),
        ]);
        assert_eq!(e, FilterExpr::True);
        // Empty Or matches nothing.
        let empty = FilterExpr::Or(vec![]);
        let r = row(&[("a", Value::Int(1))]);
        assert!(!empty.eval(&getter(&r)));
    }

    #[test]
    fn not_inverts() {
        let e = FilterExpr::Not(Box::new(FilterExpr::pred(Predicate::eq("a", 1))));
        let hit = row(&[("a", Value::Int(1))]);
        let miss = row(&[("a", Value::Int(2))]);
        assert!(!e.eval(&getter(&hit)));
        assert!(e.eval(&getter(&miss)));
    }

    #[test]
    fn columns_deduplicated() {
        let e = FilterExpr::and(vec![
            FilterExpr::pred(Predicate::cmp("a", CmpOp::Gt, 0)),
            FilterExpr::pred(Predicate::cmp("a", CmpOp::Lt, 10)),
            FilterExpr::pred(Predicate::eq("b", 1)),
        ]);
        assert_eq!(e.columns(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(e.num_predicates(), 3);
    }

    #[test]
    fn to_sql_renders_with_alias() {
        let e = FilterExpr::and(vec![
            FilterExpr::pred(Predicate::cmp("a", CmpOp::Gt, 0)),
            FilterExpr::or(vec![
                FilterExpr::pred(Predicate::eq("b", 1)),
                FilterExpr::pred(Predicate::eq("b", 2)),
            ]),
        ]);
        assert_eq!(e.to_sql("t"), "t.a > 0 AND (t.b = 1 OR t.b = 2)");
        assert_eq!(FilterExpr::True.to_sql("t"), "TRUE");
    }
}
