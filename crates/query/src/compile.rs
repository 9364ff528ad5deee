//! Filter compilation and evaluation against columnar tables.
//!
//! A [`crate::FilterExpr`] is compiled once per (table, filter) pair:
//! column names resolve to indices, literals are coerced to the column
//! type, and every string predicate (`=`, `<>`, `<`, `<=`, `>`, `>=`,
//! `BETWEEN`, `IN`, `[NOT] LIKE`) pre-evaluates against the column's
//! dictionary into one `bool` per code — reading the dictionary's byte
//! arena, and for `LIKE` through [`LikePattern::match_dict`], which scans
//! the arena once instead of matching entry by entry. Numeric `IN` keeps
//! SQL equality (`Value::sql_eq`): an integer column compares integer
//! literals exactly and float literals after widening, and NaN equals
//! nothing.
//!
//! Full scans evaluate the compiled filter **column at a time** into a
//! [`Selection`] bitmap ([`CompiledFilter::select`]): each predicate reads
//! one typed column slice and produces one `u64` per 64 rows, NULLs are
//! masked a word at a time from the column's null bitmap, and AND/OR/NOT
//! are word operations.

use crate::expr::FilterExpr;
use crate::like::LikePattern;
use crate::predicate::{CmpOp, Predicate};
use fj_storage::{Column, DataType, Table, Value};
use std::collections::HashSet;

/// A compiled atomic predicate.
enum CompiledPred {
    /// Integer comparison against an integer literal.
    IntCmp { col: usize, op: CmpOp, v: i64 },
    /// Integer column compared against a float literal.
    IntCmpF { col: usize, op: CmpOp, v: f64 },
    /// Float column comparison.
    FloatCmp { col: usize, op: CmpOp, v: f64 },
    /// Integer range (inclusive).
    IntBetween { col: usize, lo: i64, hi: i64 },
    /// Float range (inclusive).
    FloatBetween { col: usize, lo: f64, hi: f64 },
    /// Integer set membership: `ints` (sorted) exactly, or `floats`
    /// (sorted, no NaN) after widening the row to `f64`.
    IntIn {
        col: usize,
        ints: Vec<i64>,
        floats: Vec<f64>,
    },
    /// Float set membership; `values` is sorted and holds no NaN.
    FloatIn { col: usize, values: Vec<f64> },
    /// String predicate pre-evaluated per dictionary code.
    StrCodes { col: usize, codes: Vec<bool> },
    /// NULL test.
    IsNull { col: usize, negated: bool },
    /// Statically false (e.g. type-mismatched literal).
    Never,
}

/// A compiled boolean filter for one specific table.
pub struct CompiledFilter {
    root: CompiledNode,
}

enum CompiledNode {
    True,
    Pred(CompiledPred),
    And(Vec<CompiledNode>),
    Or(Vec<CompiledNode>),
    Not(Box<CompiledNode>),
}

/// Compiles `expr` for `table`. Panics on unknown columns — queries are
/// validated at bind time, so reaching here with a bad column is a bug.
pub fn compile_filter(table: &Table, expr: &FilterExpr) -> CompiledFilter {
    CompiledFilter {
        root: compile_node(table, expr),
    }
}

fn compile_node(table: &Table, expr: &FilterExpr) -> CompiledNode {
    match expr {
        FilterExpr::True => CompiledNode::True,
        FilterExpr::Pred(p) => CompiledNode::Pred(compile_pred(table, p)),
        FilterExpr::And(parts) => {
            CompiledNode::And(parts.iter().map(|p| compile_node(table, p)).collect())
        }
        FilterExpr::Or(parts) => {
            CompiledNode::Or(parts.iter().map(|p| compile_node(table, p)).collect())
        }
        FilterExpr::Not(inner) => CompiledNode::Not(Box::new(compile_node(table, inner))),
    }
}

/// Pre-evaluates a string predicate against every dictionary entry, read
/// as bytes from the arena (UTF-8 compares and orders as its bytes do).
fn str_codes(column: &Column, pred: impl Fn(&[u8]) -> bool) -> Vec<bool> {
    column.dict().iter_bytes().map(pred).collect()
}

/// The numeric literals of an `IN` list as `f64`s, sorted, without NaN
/// (which equals nothing); `keep` picks which literals take this path.
fn float_set(values: &[Value], keep: impl Fn(&Value) -> bool) -> Vec<f64> {
    let mut set: Vec<f64> = values
        .iter()
        .filter(|v| keep(v))
        .filter_map(Value::as_float)
        .filter(|f| !f.is_nan())
        .collect();
    set.sort_unstable_by(f64::total_cmp);
    set
}

/// Whether `x` equals a member of the sorted, NaN-free `set` (`-0.0`
/// equals `0.0`, as in SQL).
#[inline]
fn float_in(set: &[f64], x: f64) -> bool {
    set.binary_search_by(|v| v.partial_cmp(&x).unwrap_or(std::cmp::Ordering::Less))
        .is_ok()
}

fn compile_pred(table: &Table, p: &Predicate) -> CompiledPred {
    let col = table
        .schema()
        .index_of(p.column())
        .unwrap_or_else(|| panic!("unbound column {} in compiled filter", p.column()));
    let column = table.column(col);
    let dtype = column.dtype();
    match p {
        Predicate::Cmp { op, value, .. } => match (dtype, value) {
            (DataType::Int, Value::Int(v)) => CompiledPred::IntCmp {
                col,
                op: *op,
                v: *v,
            },
            (DataType::Int, Value::Float(v)) => CompiledPred::IntCmpF {
                col,
                op: *op,
                v: *v,
            },
            (DataType::Float, v) => match v.as_float() {
                Some(f) => CompiledPred::FloatCmp { col, op: *op, v: f },
                None => CompiledPred::Never,
            },
            (DataType::Str, Value::Str(s)) => CompiledPred::StrCodes {
                col,
                codes: str_codes(column, |d| match op {
                    // Equality looks at the length before any byte.
                    CmpOp::Eq => d == s.as_bytes(),
                    CmpOp::Neq => d != s.as_bytes(),
                    _ => op.eval(d.cmp(s.as_bytes())),
                }),
            },
            _ => CompiledPred::Never,
        },
        Predicate::Between { lo, hi, .. } => match dtype {
            DataType::Int => match (lo, hi) {
                (Value::Int(a), Value::Int(b)) => CompiledPred::IntBetween {
                    col,
                    lo: *a,
                    hi: *b,
                },
                _ => match (lo.as_float(), hi.as_float()) {
                    (Some(a), Some(b)) => {
                        // Integer column, float bounds: tighten to ints.
                        CompiledPred::IntBetween {
                            col,
                            lo: a.ceil() as i64,
                            hi: b.floor() as i64,
                        }
                    }
                    _ => CompiledPred::Never,
                },
            },
            DataType::Float => match (lo.as_float(), hi.as_float()) {
                (Some(a), Some(b)) => CompiledPred::FloatBetween { col, lo: a, hi: b },
                _ => CompiledPred::Never,
            },
            DataType::Str => match (lo, hi) {
                (Value::Str(a), Value::Str(b)) => CompiledPred::StrCodes {
                    col,
                    codes: str_codes(column, |d| d >= a.as_bytes() && d <= b.as_bytes()),
                },
                _ => CompiledPred::Never,
            },
        },
        Predicate::InList { values, .. } => match dtype {
            DataType::Int => {
                let mut ints: Vec<i64> = values.iter().filter_map(Value::as_int).collect();
                ints.sort_unstable();
                let floats = float_set(values, |v| matches!(v, Value::Float(_)));
                CompiledPred::IntIn { col, ints, floats }
            }
            DataType::Str => {
                let wanted: HashSet<&[u8]> = values
                    .iter()
                    .filter_map(Value::as_str)
                    .map(str::as_bytes)
                    .collect();
                CompiledPred::StrCodes {
                    col,
                    codes: str_codes(column, |d| wanted.contains(d)),
                }
            }
            DataType::Float => CompiledPred::FloatIn {
                col,
                values: float_set(values, |_| true),
            },
        },
        Predicate::Like {
            pattern, negated, ..
        } => match dtype {
            DataType::Str => {
                let mut codes = LikePattern::new(pattern).match_dict(column.dict());
                if *negated {
                    codes.iter_mut().for_each(|c| *c = !*c);
                }
                CompiledPred::StrCodes { col, codes }
            }
            _ => CompiledPred::Never,
        },
        Predicate::IsNull { negated, .. } => CompiledPred::IsNull {
            col,
            negated: *negated,
        },
    }
}

/// `x <op> v`, where an unordered pair (a NaN on either side) satisfies no
/// operator, `<>` included.
#[inline]
fn cmp_holds<T: PartialOrd>(op: CmpOp, x: T, v: T) -> bool {
    x.partial_cmp(&v).is_some_and(|ord| op.eval(ord))
}

impl CompiledFilter {
    /// Evaluates the filter for every row of the table it was compiled
    /// for, leaving in `out` one bit per row (set = the row passes).
    pub fn select(&self, table: &Table, out: &mut Selection) {
        let Selection { words, temps } = out;
        let nrows = table.nrows();
        words.clear();
        words.resize(nrows.div_ceil(64), 0);
        select_node(&self.root, table, words, Combine::Set, temps);
        // NOT and constant-true fill whole words; clear the bits past the
        // last row so counting and iteration see rows only.
        let tail_rows = nrows % 64;
        if tail_rows != 0 {
            *words.last_mut().expect("nrows > 0") &= (1u64 << tail_rows) - 1;
        }
    }

    /// Number of rows of `table` passing the filter.
    pub fn count(&self, table: &Table) -> u64 {
        let mut selection = Selection::default();
        self.select(table, &mut selection);
        selection.count()
    }
}

/// A selection over the rows of one table: one bit per row, 64 rows per
/// word, row `r` at bit `r % 64` of word `r / 64`.
///
/// The buffer is reusable: [`CompiledFilter::select`] overwrites it in
/// place and keeps its allocations, including the temporaries nested
/// boolean nodes evaluate into.
#[derive(Debug, Clone, Default)]
pub struct Selection {
    words: Vec<u64>,
    /// Scratch words of composite nodes nested under AND/OR, one per level.
    temps: Vec<Vec<u64>>,
}

impl Selection {
    /// Number of selected rows.
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// The selected row indices in ascending order; costs one step per
    /// word plus one per selected row.
    pub fn rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            std::iter::successors(Some(word).filter(|&w| w != 0), |&w| {
                Some(w & (w - 1)).filter(|&w| w != 0)
            })
            .map(move |w| wi * 64 + w.trailing_zeros() as usize)
        })
    }

    /// Words reserved across all buffers — lets owners of a reused
    /// selection count its growth.
    pub fn capacity(&self) -> usize {
        self.words.capacity() + self.temps.iter().map(Vec::capacity).sum::<usize>()
    }
}

/// How a node's result enters the destination words.
#[derive(Clone, Copy, PartialEq)]
enum Combine {
    Set,
    And,
    Or,
}

impl Combine {
    #[inline]
    fn apply(self, dst: &mut u64, bits: u64) {
        match self {
            Combine::Set => *dst = bits,
            Combine::And => *dst &= bits,
            Combine::Or => *dst |= bits,
        }
    }
}

/// Evaluates `node` over all rows and combines the result into `dst`.
///
/// Leaves combine straight into `dst`, so a flat AND/OR of predicates
/// needs no temporary; only a composite node nested under AND/OR evaluates
/// into a scratch buffer first (`temps[0]`, handing `temps[1..]` down).
/// Bits past the last row are unspecified here; `select` clears them.
fn select_node(
    node: &CompiledNode,
    table: &Table,
    dst: &mut [u64],
    how: Combine,
    temps: &mut Vec<Vec<u64>>,
) {
    match node {
        CompiledNode::True => dst.iter_mut().for_each(|w| how.apply(w, !0)),
        CompiledNode::Pred(p) => select_pred(p, table, dst, how),
        _ if how != Combine::Set => {
            let mut tmp = temps.pop().unwrap_or_default();
            tmp.clear();
            tmp.resize(dst.len(), 0);
            select_node(node, table, &mut tmp, Combine::Set, temps);
            for (w, &bits) in dst.iter_mut().zip(&tmp) {
                how.apply(w, bits);
            }
            temps.push(tmp);
        }
        CompiledNode::And(parts) => {
            dst.fill(!0);
            for part in parts {
                select_node(part, table, dst, Combine::And, temps);
            }
        }
        CompiledNode::Or(parts) => {
            dst.fill(0);
            for part in parts {
                select_node(part, table, dst, Combine::Or, temps);
            }
        }
        CompiledNode::Not(inner) => {
            select_node(inner, table, dst, Combine::Set, temps);
            dst.iter_mut().for_each(|w| *w = !*w);
        }
    }
}

/// Tests 64 values per word and combines the non-NULL hits into `dst`.
#[inline]
fn select_values<T: Copy>(
    column: &Column,
    values: &[T],
    dst: &mut [u64],
    how: Combine,
    test: impl Fn(T) -> bool,
) {
    let nulls = column.nulls();
    for (wi, (chunk, w)) in values.chunks(64).zip(dst).enumerate() {
        let mut bits = 0u64;
        for (b, &v) in chunk.iter().enumerate() {
            bits |= u64::from(test(v)) << b;
        }
        how.apply(w, bits & !nulls.word(wi));
    }
}

fn select_pred(p: &CompiledPred, table: &Table, dst: &mut [u64], how: Combine) {
    match p {
        CompiledPred::IntCmp { col, op, v } => {
            let c = table.column(*col);
            select_values(c, c.ints(), dst, how, |x| cmp_holds(*op, x, *v));
        }
        CompiledPred::IntCmpF { col, op, v } => {
            let c = table.column(*col);
            select_values(c, c.ints(), dst, how, |x| cmp_holds(*op, x as f64, *v));
        }
        CompiledPred::FloatCmp { col, op, v } => {
            let c = table.column(*col);
            select_values(c, c.floats(), dst, how, |x| cmp_holds(*op, x, *v));
        }
        CompiledPred::IntBetween { col, lo, hi } => {
            let c = table.column(*col);
            select_values(c, c.ints(), dst, how, |x| (*lo..=*hi).contains(&x));
        }
        CompiledPred::FloatBetween { col, lo, hi } => {
            let c = table.column(*col);
            select_values(c, c.floats(), dst, how, |x| (*lo..=*hi).contains(&x));
        }
        CompiledPred::IntIn { col, ints, floats } => {
            let c = table.column(*col);
            select_values(c, c.ints(), dst, how, |x| {
                ints.binary_search(&x).is_ok() || float_in(floats, x as f64)
            });
        }
        CompiledPred::FloatIn { col, values } => {
            let c = table.column(*col);
            select_values(c, c.floats(), dst, how, |x| float_in(values, x));
        }
        CompiledPred::StrCodes { col, codes } => {
            let c = table.column(*col);
            select_values(c, c.codes(), dst, how, |code| codes[code as usize]);
        }
        CompiledPred::IsNull { col, negated } => {
            let nulls = table.column(*col).nulls();
            for (wi, w) in dst.iter_mut().enumerate() {
                let bits = nulls.word(wi);
                how.apply(w, if *negated { !bits } else { bits });
            }
        }
        CompiledPred::Never => dst.iter_mut().for_each(|w| how.apply(w, 0)),
    }
}

/// Returns the indices of rows matching `expr`.
pub fn filtered_selection(table: &Table, expr: &FilterExpr) -> Vec<u32> {
    let mut selection = Selection::default();
    compile_filter(table, expr).select(table, &mut selection);
    selection.rows().map(|r| r as u32).collect()
}

/// Counts rows matching `expr` without materializing the selection.
pub fn filtered_count(table: &Table, expr: &FilterExpr) -> u64 {
    compile_filter(table, expr).count(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_storage::{ColumnDef, TableSchema};

    fn table() -> Table {
        let schema = TableSchema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("f", DataType::Float),
            ColumnDef::new("s", DataType::Str),
        ]);
        let rows = vec![
            vec![
                Value::Int(1),
                Value::Float(0.5),
                Value::Str("apple pie".into()),
            ],
            vec![
                Value::Int(5),
                Value::Float(2.5),
                Value::Str("banana".into()),
            ],
            vec![
                Value::Null,
                Value::Float(-1.0),
                Value::Str("apple tart".into()),
            ],
            vec![Value::Int(10), Value::Null, Value::Null],
            vec![
                Value::Int(5),
                Value::Float(9.0),
                Value::Str("cherry".into()),
            ],
        ];
        Table::from_rows("t", schema, &rows).unwrap()
    }

    /// Cross-check against the reference row-at-a-time evaluator in fj-query.
    fn reference(table: &Table, expr: &FilterExpr) -> Vec<u32> {
        (0..table.nrows())
            .filter(|&i| expr.eval(&|col: &str| table.column_by_name(col).unwrap().get(i)))
            .map(|i| i as u32)
            .collect()
    }

    /// The compiled bitmap scan against the reference.
    fn check(expr: FilterExpr) {
        let t = table();
        let expected = reference(&t, &expr);
        assert_eq!(filtered_selection(&t, &expr), expected, "expr {expr}");
    }

    #[test]
    fn int_comparisons_match_reference() {
        for op in [
            CmpOp::Eq,
            CmpOp::Neq,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            check(FilterExpr::pred(Predicate::cmp("a", op, 5)));
        }
    }

    #[test]
    fn float_and_widened_comparisons() {
        check(FilterExpr::pred(Predicate::cmp("f", CmpOp::Gt, 0)));
        check(FilterExpr::pred(Predicate::cmp("f", CmpOp::Le, 2.5)));
        check(FilterExpr::pred(Predicate::cmp("a", CmpOp::Gt, 4.5)));
    }

    #[test]
    fn between_in_like() {
        check(FilterExpr::pred(Predicate::between("a", 2, 9)));
        check(FilterExpr::pred(Predicate::in_list(
            "a",
            vec![Value::Int(1), Value::Int(10)],
        )));
        check(FilterExpr::pred(Predicate::like("s", "%apple%")));
        check(FilterExpr::pred(Predicate::Like {
            column: "s".into(),
            pattern: "%apple%".into(),
            negated: true,
        }));
    }

    #[test]
    fn in_lists_keep_sql_equality() {
        let t = table();
        let count = |col: &str, values: Vec<Value>| {
            let expr = FilterExpr::pred(Predicate::in_list(col, values));
            check(expr.clone());
            filtered_count(&t, &expr)
        };
        // Float column: an int literal widens, a float literal compares.
        assert_eq!(count("f", vec![Value::Int(9)]), 1);
        assert_eq!(count("f", vec![Value::Float(2.5), "x".into()]), 1);
        // Int column: a float literal compares against the widened row.
        assert_eq!(count("a", vec![Value::Float(5.0)]), 2);
        let mixed = vec![Value::Float(0.5), Value::Int(10), Value::Float(1.0)];
        assert_eq!(count("a", mixed), 2);
        // NaN equals nothing.
        assert_eq!(count("f", vec![Value::Float(f64::NAN)]), 0);
        assert_eq!(count("a", vec![Value::Float(f64::NAN), Value::Null]), 0);
    }

    #[test]
    fn null_tests_and_boolean_composition() {
        check(FilterExpr::pred(Predicate::IsNull {
            column: "a".into(),
            negated: false,
        }));
        check(FilterExpr::pred(Predicate::IsNull {
            column: "s".into(),
            negated: true,
        }));
        check(FilterExpr::and(vec![
            FilterExpr::pred(Predicate::cmp("a", CmpOp::Ge, 1)),
            FilterExpr::or(vec![
                FilterExpr::pred(Predicate::like("s", "%an%")),
                FilterExpr::pred(Predicate::cmp("f", CmpOp::Gt, 5)),
            ]),
        ]));
        check(FilterExpr::Not(Box::new(FilterExpr::pred(Predicate::eq(
            "a", 5,
        )))));
    }

    #[test]
    fn string_equality_and_order() {
        check(FilterExpr::pred(Predicate::eq("s", "banana")));
        check(FilterExpr::pred(Predicate::cmp("s", CmpOp::Lt, "banana")));
        // Literal absent from the dictionary still works (matches nothing).
        check(FilterExpr::pred(Predicate::eq("s", "zzz")));
    }

    #[test]
    fn filtered_count_matches_selection_len() {
        let t = table();
        let e = FilterExpr::pred(Predicate::cmp("a", CmpOp::Ge, 1));
        assert_eq!(
            filtered_count(&t, &e),
            filtered_selection(&t, &e).len() as u64
        );
    }

    #[test]
    fn trivial_filter_selects_everything() {
        let t = table();
        assert_eq!(filtered_count(&t, &FilterExpr::True), t.nrows() as u64);
    }

    #[test]
    fn type_mismatch_matches_nothing() {
        // Comparing a string column to an int is statically Never.
        check(FilterExpr::pred(Predicate::eq("s", 5)));
        check(FilterExpr::pred(Predicate::like("a", "%1%")));
    }
}
