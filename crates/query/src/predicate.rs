//! Atomic filter predicates over a single column.

use fj_storage::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Comparison operators for scalar predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Applies the operator to an ordering produced by `sql_cmp`.
    #[inline]
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Neq => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// An atomic predicate on one column of one table alias.
///
/// Column names are resolved against the alias's table schema at bind time;
/// the predicate itself stores only the column name, keeping the IR
/// independent of any particular catalog.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// `col <op> literal`
    Cmp {
        /// Column name.
        column: String,
        /// Operator.
        op: CmpOp,
        /// Literal to compare against.
        value: Value,
    },
    /// `col BETWEEN lo AND hi` (inclusive both ends).
    Between {
        /// Column name.
        column: String,
        /// Lower bound (inclusive).
        lo: Value,
        /// Upper bound (inclusive).
        hi: Value,
    },
    /// `col IN (v1, v2, ...)`.
    InList {
        /// Column name.
        column: String,
        /// Allowed values.
        values: Vec<Value>,
    },
    /// `col [NOT] LIKE 'pattern'`.
    Like {
        /// Column name.
        column: String,
        /// LIKE pattern with `%`/`_` wildcards.
        pattern: String,
        /// True for `NOT LIKE`.
        negated: bool,
    },
    /// `col IS [NOT] NULL`.
    IsNull {
        /// Column name.
        column: String,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
}

impl Predicate {
    /// Column the predicate constrains.
    pub fn column(&self) -> &str {
        match self {
            Predicate::Cmp { column, .. }
            | Predicate::Between { column, .. }
            | Predicate::InList { column, .. }
            | Predicate::Like { column, .. }
            | Predicate::IsNull { column, .. } => column,
        }
    }

    /// Evaluates the predicate on a single value (SQL three-valued logic
    /// collapsed to filter semantics: unknown ⇒ false).
    pub fn eval(&self, v: &Value) -> bool {
        match self {
            Predicate::Cmp { op, value, .. } => match v.sql_cmp(value) {
                Some(ord) => op.eval(ord),
                None => false,
            },
            Predicate::Between { lo, hi, .. } => {
                matches!(
                    v.sql_cmp(lo),
                    Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
                ) && matches!(
                    v.sql_cmp(hi),
                    Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
                )
            }
            Predicate::InList { values, .. } => values.iter().any(|x| v.sql_eq(x)),
            Predicate::Like {
                pattern, negated, ..
            } => match v.as_str() {
                Some(s) => crate::like::like_match(pattern, s) != *negated,
                None => false,
            },
            Predicate::IsNull { negated, .. } => v.is_null() != *negated,
        }
    }

    /// [`Self::eval`] on the string `s`, without building a [`Value`] for it
    /// (dictionary scans test every entry): only string literals compare
    /// with a string, and a string is never NULL.
    pub fn eval_str(&self, s: &str) -> bool {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let cmp = |lit: &Value| lit.as_str().map(|l| s.cmp(l));
        match self {
            Predicate::Cmp { op, value, .. } => cmp(value).is_some_and(|ord| op.eval(ord)),
            Predicate::Between { lo, hi, .. } => {
                matches!(cmp(lo), Some(Greater | Equal)) && matches!(cmp(hi), Some(Less | Equal))
            }
            Predicate::InList { values, .. } => values.iter().any(|v| cmp(v) == Some(Equal)),
            Predicate::Like {
                pattern, negated, ..
            } => crate::like::like_match(pattern, s) != *negated,
            Predicate::IsNull { negated, .. } => *negated,
        }
    }

    /// Convenience constructor: `col = value`.
    pub fn eq(column: &str, value: impl Into<Value>) -> Self {
        Predicate::Cmp {
            column: column.into(),
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// Convenience constructor: `col <op> value`.
    pub fn cmp(column: &str, op: CmpOp, value: impl Into<Value>) -> Self {
        Predicate::Cmp {
            column: column.into(),
            op,
            value: value.into(),
        }
    }

    /// Convenience constructor: `col BETWEEN lo AND hi`.
    pub fn between(column: &str, lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        Predicate::Between {
            column: column.into(),
            lo: lo.into(),
            hi: hi.into(),
        }
    }

    /// Convenience constructor: `col LIKE pattern`.
    pub fn like(column: &str, pattern: &str) -> Self {
        Predicate::Like {
            column: column.into(),
            pattern: pattern.into(),
            negated: false,
        }
    }

    /// Convenience constructor: `col IN (values…)`.
    pub fn in_list(column: &str, values: Vec<Value>) -> Self {
        Predicate::InList {
            column: column.into(),
            values,
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Cmp { column, op, value } => write!(f, "{column} {} {value}", op.sql()),
            Predicate::Between { column, lo, hi } => {
                write!(f, "{column} BETWEEN {lo} AND {hi}")
            }
            Predicate::InList { column, values } => {
                write!(f, "{column} IN (")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Predicate::Like {
                column,
                pattern,
                negated,
            } => {
                let not = if *negated { "NOT " } else { "" };
                write!(f, "{column} {not}LIKE '{}'", pattern.replace('\'', "''"))
            }
            Predicate::IsNull { column, negated } => {
                let not = if *negated { "NOT " } else { "" };
                write!(f, "{column} IS {not}NULL")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_eval_matrix() {
        let five = Value::Int(5);
        assert!(Predicate::cmp("c", CmpOp::Eq, 5).eval(&five));
        assert!(!Predicate::cmp("c", CmpOp::Neq, 5).eval(&five));
        assert!(Predicate::cmp("c", CmpOp::Le, 5).eval(&five));
        assert!(Predicate::cmp("c", CmpOp::Ge, 5).eval(&five));
        assert!(!Predicate::cmp("c", CmpOp::Lt, 5).eval(&five));
        assert!(Predicate::cmp("c", CmpOp::Lt, 6).eval(&five));
        assert!(Predicate::cmp("c", CmpOp::Gt, 4).eval(&five));
    }

    #[test]
    fn null_never_satisfies_comparisons() {
        assert!(!Predicate::eq("c", 5).eval(&Value::Null));
        assert!(!Predicate::cmp("c", CmpOp::Neq, 5).eval(&Value::Null));
        assert!(!Predicate::between("c", 0, 10).eval(&Value::Null));
        assert!(!Predicate::in_list("c", vec![Value::Null]).eval(&Value::Null));
    }

    #[test]
    fn between_inclusive() {
        let p = Predicate::between("c", 2, 4);
        assert!(!p.eval(&Value::Int(1)));
        assert!(p.eval(&Value::Int(2)));
        assert!(p.eval(&Value::Int(3)));
        assert!(p.eval(&Value::Int(4)));
        assert!(!p.eval(&Value::Int(5)));
    }

    #[test]
    fn in_list_membership() {
        let p = Predicate::in_list("c", vec![Value::Int(1), Value::Int(3)]);
        assert!(p.eval(&Value::Int(3)));
        assert!(!p.eval(&Value::Int(2)));
    }

    #[test]
    fn like_and_not_like() {
        let p = Predicate::like("c", "%an%");
        assert!(p.eval(&Value::Str("banana".into())));
        assert!(!p.eval(&Value::Str("pear".into())));
        assert!(!p.eval(&Value::Int(5)), "LIKE on non-string is false");
        let n = Predicate::Like {
            column: "c".into(),
            pattern: "%an%".into(),
            negated: true,
        };
        assert!(!n.eval(&Value::Str("banana".into())));
        assert!(n.eval(&Value::Str("pear".into())));
    }

    #[test]
    fn is_null_tests() {
        let p = Predicate::IsNull {
            column: "c".into(),
            negated: false,
        };
        assert!(p.eval(&Value::Null));
        assert!(!p.eval(&Value::Int(0)));
        let n = Predicate::IsNull {
            column: "c".into(),
            negated: true,
        };
        assert!(!n.eval(&Value::Null));
        assert!(n.eval(&Value::Int(0)));
    }

    #[test]
    fn eval_str_agrees_with_eval_on_a_string_value() {
        let preds = [
            Predicate::eq("c", "pear"),
            Predicate::cmp("c", CmpOp::Lt, "pear"),
            Predicate::cmp("c", CmpOp::Neq, 5),
            Predicate::between("c", "apple", "fig"),
            Predicate::between("c", 1, "fig"),
            Predicate::in_list("c", vec![Value::Int(1), Value::Str("fig".into())]),
            Predicate::like("c", "%ea%"),
            Predicate::Like {
                column: "c".into(),
                pattern: "p%".into(),
                negated: true,
            },
            Predicate::IsNull {
                column: "c".into(),
                negated: false,
            },
            Predicate::IsNull {
                column: "c".into(),
                negated: true,
            },
        ];
        for p in &preds {
            for s in ["apple", "fig", "pear", "peach", ""] {
                assert_eq!(p.eval_str(s), p.eval(&Value::Str(s.into())), "{p} on {s:?}");
            }
        }
    }

    #[test]
    fn display_is_sql() {
        assert_eq!(Predicate::eq("a", 5).to_string(), "a = 5");
        assert_eq!(
            Predicate::between("a", 1, 2).to_string(),
            "a BETWEEN 1 AND 2"
        );
        assert_eq!(
            Predicate::in_list("a", vec![Value::Int(1), Value::Int(2)]).to_string(),
            "a IN (1, 2)"
        );
        assert_eq!(Predicate::like("a", "%x%").to_string(), "a LIKE '%x%'");
        assert_eq!(
            Predicate::IsNull {
                column: "a".into(),
                negated: true
            }
            .to_string(),
            "a IS NOT NULL"
        );
    }

    #[test]
    fn numeric_widening_in_predicates() {
        assert!(Predicate::eq("c", 2.0).eval(&Value::Int(2)));
        assert!(Predicate::cmp("c", CmpOp::Gt, 1.5).eval(&Value::Int(2)));
    }
}
