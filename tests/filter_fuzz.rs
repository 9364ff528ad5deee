//! Seeded never-panics differential fuzz for the filter compiler: every
//! STATS-CEB and IMDB-JOB alias filter, then seeded edits of it that keep
//! its columns bound — literal type swaps, NaN/±inf/−0.0, the `i64`
//! extremes, empty and duplicate `IN` lists, `LIKE` patterns with `%`, `_`,
//! empty and non-ASCII text, operator flips, predicates moved to another
//! column of the table, and `NOT` nesting up to `MAX_FILTER_DEPTH`. Each
//! compiled filter must count exactly the rows the row-at-a-time
//! `FilterExpr::eval` accepts, and neither side may panic.
//!
//! Every such filter also goes through `profile_into` of each single-table
//! estimator, reached through `FactorJoinModel::estimator` and asked for the
//! alias's join keys, the way sub-plan estimation asks: TrueScan's rows must
//! equal the reference count, and no estimator may panic or return a
//! negative or non-finite row count or key distribution.

use factorjoin::{BaseEstimatorKind, BinBudget, FactorJoinConfig, FactorJoinModel};
use fj_datagen::{
    imdb_catalog, imdb_job_workload, stats_catalog, stats_ceb_workload, ImdbConfig, StatsConfig,
    WorkloadConfig,
};
use fj_query::{compile_filter, CmpOp, FilterExpr, Predicate, Query, QueryGraph, MAX_FILTER_DEPTH};
use fj_stats::{BnConfig, TableProfile};
use fj_storage::{Catalog, Table, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Same mixer as the parser, `.fjm` and wire fuzz suites, so a failure
/// replays from the printed seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick<T: Clone>(rng: &mut u64, from: &[T]) -> T {
    from[(splitmix64(rng) as usize) % from.len()].clone()
}

/// Seeded edits per workload filter.
const EDITS: usize = 24;

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Neq,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// `LIKE` patterns: wildcards alone and doubled, empty, and non-ASCII text
/// next to wildcards (`_` must match one char, not one byte).
const PATTERNS: [&str; 12] = [
    "",
    "%",
    "_",
    "%%",
    "__",
    "%a%",
    "a_",
    "é%",
    "%ü_",
    "_é",
    "%\u{1F600}%",
    "%_%_",
];

/// The row-at-a-time reference: `FilterExpr::eval` on every row.
fn reference(table: &Table, expr: &FilterExpr) -> u64 {
    (0..table.nrows())
        .filter(|&i| expr.eval(&|col: &str| table.column_by_name(col).unwrap().get(i)))
        .count() as u64
}

/// AND, OR and NOT nodes on the longest root-to-leaf path.
fn depth(expr: &FilterExpr) -> usize {
    match expr {
        FilterExpr::True | FilterExpr::Pred(_) => 0,
        FilterExpr::And(parts) | FilterExpr::Or(parts) => {
            1 + parts.iter().map(depth).max().unwrap_or(0)
        }
        FilterExpr::Not(inner) => 1 + depth(inner),
    }
}

fn predicates_mut<'a>(expr: &'a mut FilterExpr, out: &mut Vec<&'a mut Predicate>) {
    match expr {
        FilterExpr::True => {}
        FilterExpr::Pred(p) => out.push(p),
        FilterExpr::And(parts) | FilterExpr::Or(parts) => {
            parts.iter_mut().for_each(|e| predicates_mut(e, out))
        }
        FilterExpr::Not(inner) => predicates_mut(inner, out),
    }
}

/// A literal of another type, a float edge case, or an `i64` extreme.
fn literal(rng: &mut u64, old: &Value) -> Value {
    match splitmix64(rng) % 9 {
        0 => Value::Float(f64::NAN),
        1 => Value::Float(f64::INFINITY),
        2 => Value::Float(f64::NEG_INFINITY),
        3 => Value::Float(-0.0),
        4 => Value::Int(i64::MIN),
        5 => Value::Int(i64::MAX),
        6 => match old {
            Value::Int(v) => Value::Float(*v as f64 + 0.5),
            Value::Float(f) => Value::Int(*f as i64),
            Value::Str(s) => Value::Int(s.len() as i64),
            Value::Null => Value::Int(0),
        },
        7 => match old {
            Value::Int(v) => Value::Str(v.to_string()),
            Value::Float(f) => Value::Str(f.to_string()),
            Value::Str(s) => Value::Float(s.len() as f64),
            Value::Null => Value::Str(String::new()),
        },
        _ => Value::Str(pick(rng, &PATTERNS).replace(['%', '_'], "")),
    }
}

/// The predicate's literals, each of which an edit may replace.
fn literals(p: &mut Predicate) -> Vec<&mut Value> {
    match p {
        Predicate::Cmp { value, .. } => vec![value],
        Predicate::Between { lo, hi, .. } => vec![lo, hi],
        Predicate::InList { values, .. } => values.iter_mut().collect(),
        Predicate::Like { .. } | Predicate::IsNull { .. } => Vec::new(),
    }
}

/// One seeded edit of one predicate; `columns` are the table's column
/// names, so a moved predicate stays bound.
fn edit_predicate(rng: &mut u64, p: &mut Predicate, columns: &[String]) {
    let column = p.column().to_string();
    match splitmix64(rng) % 6 {
        0 => {
            let mut slots = literals(p);
            if !slots.is_empty() {
                let at = (splitmix64(rng) as usize) % slots.len();
                *slots[at] = literal(rng, slots[at]);
            }
        }
        1 => match p {
            Predicate::Cmp { op, .. } => *op = pick(rng, &OPS),
            Predicate::Between { lo, hi, .. } => std::mem::swap(lo, hi),
            Predicate::Like { negated, .. } | Predicate::IsNull { negated, .. } => {
                *negated = !*negated
            }
            Predicate::InList { values, .. } => values.reverse(),
        },
        2 => {
            let values = match p {
                Predicate::InList { values, .. } if splitmix64(rng).is_multiple_of(2) => {
                    let dup = values.first().cloned();
                    values.extend(dup.clone());
                    values.extend(dup);
                    return;
                }
                Predicate::Cmp { value, .. } => vec![value.clone(), value.clone()],
                _ => Vec::new(),
            };
            *p = Predicate::InList { column, values };
        }
        3 => {
            let pattern = match (&*p, splitmix64(rng) % 3) {
                (Predicate::Like { pattern, .. }, 0) => {
                    let cut = pattern
                        .char_indices()
                        .map(|(i, _)| i)
                        .nth((splitmix64(rng) % 4) as usize)
                        .unwrap_or(pattern.len());
                    let wild = pick(rng, &["%", "_", "é"]);
                    format!("{}{wild}{}", &pattern[..cut], &pattern[cut..])
                }
                _ => pick(rng, &PATTERNS).to_string(),
            };
            let negated = splitmix64(rng).is_multiple_of(2);
            *p = Predicate::Like {
                column,
                pattern,
                negated,
            };
        }
        4 => {
            let to = pick(rng, columns);
            match p {
                Predicate::Cmp { column, .. }
                | Predicate::Between { column, .. }
                | Predicate::InList { column, .. }
                | Predicate::Like { column, .. }
                | Predicate::IsNull { column, .. } => *column = to,
            }
        }
        _ => {
            *p = Predicate::IsNull {
                column,
                negated: splitmix64(rng).is_multiple_of(2),
            }
        }
    }
}

/// One to three predicate edits, then `NOT`s up to the depth cap a third
/// of the time (on a filter with no predicate, a fresh one is added first).
fn edit(rng: &mut u64, expr: &FilterExpr, columns: &[String]) -> FilterExpr {
    let mut out = expr.clone();
    if matches!(out, FilterExpr::True) {
        let column = pick(rng, columns);
        out = FilterExpr::Pred(Predicate::IsNull {
            column,
            negated: true,
        });
    }
    for _ in 0..1 + splitmix64(rng) % 3 {
        let mut preds = Vec::new();
        predicates_mut(&mut out, &mut preds);
        let at = (splitmix64(rng) as usize) % preds.len();
        edit_predicate(rng, preds[at], columns);
    }
    if splitmix64(rng).is_multiple_of(3) {
        let room = MAX_FILTER_DEPTH - depth(&out);
        let nots = if splitmix64(rng).is_multiple_of(2) {
            room
        } else {
            (splitmix64(rng) as usize) % (room + 1)
        };
        for _ in 0..nots {
            out = FilterExpr::Not(Box::new(out));
        }
    }
    out
}

/// One model per single-table estimator, trained on `catalog` (few bins:
/// the filter path does not depend on them).
fn models(catalog: &Catalog) -> Vec<FactorJoinModel> {
    [
        BaseEstimatorKind::TrueScan,
        BaseEstimatorKind::BayesNet(BnConfig::default()),
        BaseEstimatorKind::Sampling { rate: 0.2 },
    ]
    .into_iter()
    .map(|estimator| {
        let config = FactorJoinConfig {
            bin_budget: BinBudget::Uniform(10),
            estimator,
            ..Default::default()
        };
        FactorJoinModel::train(catalog, config)
    })
    .collect()
}

/// Compiled count against the reference, then each model's estimator
/// profile of `keys` against it, each run where a panic is caught and
/// reported with the case that caused it. `profiles` holds one reused
/// buffer per model, as a session's scratch does.
fn check(
    table: &Table,
    expr: &FilterExpr,
    keys: &[&str],
    models: &[FactorJoinModel],
    profiles: &mut [TableProfile],
    case: &str,
) {
    let compiled = catch_unwind(AssertUnwindSafe(|| {
        compile_filter(table, expr).count(table)
    }));
    let compiled =
        compiled.unwrap_or_else(|_| panic!("compiled filter panicked on {case}: {expr}"));
    let want = catch_unwind(AssertUnwindSafe(|| reference(table, expr)))
        .unwrap_or_else(|_| panic!("reference panicked on {case}: {expr}"));
    assert_eq!(compiled, want, "{case} on table {}: {expr}", table.name());
    for (model, profile) in models.iter().zip(profiles.iter_mut()) {
        let est = model.estimator(table.name()).unwrap();
        let name = est.name();
        catch_unwind(AssertUnwindSafe(|| est.profile_into(expr, keys, profile)))
            .unwrap_or_else(|_| panic!("{name} profile panicked on {case}: {expr}"));
        let rows = profile.rows;
        assert!(
            rows.is_finite() && rows >= 0.0,
            "{name} rows {rows} on {case}: {expr}"
        );
        assert_eq!(profile.key_dists.len(), keys.len(), "{name} on {case}");
        for (key, dist) in keys.iter().zip(&profile.key_dists) {
            assert!(
                dist.iter().all(|&d| d.is_finite() && d >= 0.0),
                "{name} key {key} distribution {dist:?} on {case}: {expr}"
            );
        }
        if name == "truescan" {
            assert_eq!(rows, want as f64, "truescan rows on {case}: {expr}");
        }
    }
}

fn fuzz(catalog: &Catalog, queries: &[Query], seed: u64) -> usize {
    let models = models(catalog);
    let mut profiles = vec![TableProfile::default(); models.len()];
    let mut checked = 0;
    for (qi, query) in queries.iter().enumerate() {
        let graph = QueryGraph::analyze(query);
        for (ai, table_ref) in query.tables().iter().enumerate() {
            let table = catalog.table(&table_ref.table).unwrap();
            let columns: Vec<String> = table
                .schema()
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect();
            let keys: Vec<&str> = graph
                .alias_keys(ai)
                .iter()
                .map(|&(c, _)| columns[c].as_str())
                .collect();
            let filter = query.filter(ai);
            let mut check = |expr: &FilterExpr, case: &str| {
                check(table, expr, &keys, &models, &mut profiles, case)
            };
            check(filter, &format!("query {qi} alias {ai}"));
            let mut rng = seed ^ ((qi * 16 + ai) as u64).wrapping_mul(0x5851_F42D_4C95_7F2D);
            for e in 0..EDITS {
                let edited = edit(&mut rng, filter, &columns);
                assert!(depth(&edited) <= MAX_FILTER_DEPTH);
                let case = format!("query {qi} alias {ai} edit {e} (seed {seed})");
                check(&edited, &case);
            }
            checked += 1 + EDITS;
        }
    }
    checked
}

#[test]
fn stats_ceb_filter_edits_compile_to_the_reference_count() {
    let catalog = stats_catalog(&StatsConfig {
        scale: 0.05,
        ..Default::default()
    });
    let queries = stats_ceb_workload(&catalog, &WorkloadConfig::stats_ceb());
    assert_eq!(queries.len(), 146);
    assert!(fuzz(&catalog, &queries, 2023) > 146 * 2 * EDITS);
}

#[test]
fn imdb_job_filter_edits_compile_to_the_reference_count() {
    let catalog = imdb_catalog(&ImdbConfig {
        scale: 0.05,
        ..Default::default()
    });
    let queries = imdb_job_workload(&catalog, &WorkloadConfig::imdb_job());
    assert_eq!(queries.len(), 113);
    assert!(fuzz(&catalog, &queries, 1995) > 113 * 3 * EDITS);
}
