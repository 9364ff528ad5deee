//! Differential properties of bulk single-table inference: the selection
//! bitmap against the per-row evaluator, compiled `LIKE` against the
//! reference matcher, and the in-place profile against its parts.

use fj_query::{
    compile_filter, filtered_count, filtered_selection, like_match, CmpOp, FilterExpr, LikePattern,
    Predicate, Selection,
};
use fj_stats::{
    BaseTableEstimator, ExactEstimator, KeyBinMap, SamplingEstimator, TableBins, TableProfile,
};
use fj_storage::{ColumnDef, DataType, Table, TableSchema, Value};
use proptest::prelude::*;

// ---------------------------------------------------------------- inputs

/// Strings of the `s` column: shared words, multi-byte characters, and the
/// `LIKE` metacharacters as data.
const WORDS: [&str; 8] = [
    "",
    "the night",
    "night of the zephyr",
    "naïve café",
    "日本 the 映画",
    "100%",
    "a_b",
    "back\\slash",
];

/// Patterns for the `s` column, one per `LikePattern` shape.
const PATTERNS: [&str; 8] = [
    "%the%",
    "the%",
    "%é",
    "%n%t%",
    "a_b",
    "100\\%",
    "%",
    "日本%映画",
];

/// One row of `t(k key Int, a Int, f Float, s Str)`; a fifth of each column
/// is NULL, and floats include NaN.
fn row() -> impl Strategy<Value = Vec<Value>> {
    let nullable = |s: BoxedStrategy<Value>| prop_oneof![4 => s, 1 => Just(Value::Null)];
    (
        nullable((0i64..40).prop_map(Value::Int).boxed()),
        nullable((-5i64..15).prop_map(Value::Int).boxed()),
        nullable(
            prop_oneof![
                8 => (-2.0f64..6.0).prop_map(Value::Float),
                1 => Just(Value::Float(f64::NAN)),
            ]
            .boxed(),
        ),
        nullable(
            (0usize..WORDS.len())
                .prop_map(|i| Value::Str(WORDS[i].into()))
                .boxed(),
        ),
    )
        .prop_map(|(k, a, f, s)| vec![k, a, f, s])
}

/// The word boundaries of the bitmap: empty, one row, one word ± a row,
/// and several words with a ragged tail.
fn row_count() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0), Just(1), Just(63), Just(64), Just(65), Just(200)]
}

fn table(mut rows: Vec<Vec<Value>>, nrows: usize) -> Table {
    rows.truncate(nrows);
    let schema = TableSchema::new(vec![
        ColumnDef::key("k"),
        ColumnDef::new("a", DataType::Int),
        ColumnDef::new("f", DataType::Float),
        ColumnDef::new("s", DataType::Str),
    ]);
    Table::from_rows("t", schema, &rows).expect("rows match the schema")
}

/// AND/OR/NOT trees (built raw, so empty and nested connectives survive)
/// over leaves that compile to every `CompiledPred` kind.
#[derive(Debug, Clone, Copy)]
struct Filters {
    depth: u32,
}

impl Strategy for Filters {
    type Value = FilterExpr;

    fn generate(&self, rng: &mut TestRng) -> FilterExpr {
        let int = |rng: &mut TestRng| (-6i64..16).generate(rng);
        let float = |rng: &mut TestRng| (-3.0f64..7.0).generate(rng);
        let word = |rng: &mut TestRng| WORDS[(0..WORDS.len()).generate(rng)];
        let op = |rng: &mut TestRng| {
            [
                CmpOp::Eq,
                CmpOp::Neq,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ][(0usize..6).generate(rng)]
        };
        let negated = |rng: &mut TestRng| (0u32..2).generate(rng) == 1;
        let kinds = if self.depth == 0 { 16 } else { 22 };
        let children = |rng: &mut TestRng| {
            let sub = Filters {
                depth: self.depth - 1,
            };
            prop::collection::vec(sub, 0..4).generate(rng)
        };
        FilterExpr::pred(match (0u32..kinds).generate(rng) {
            0 => return FilterExpr::True,
            // IntCmp, IntCmpF, FloatCmp (float and widened int literal).
            1 => Predicate::cmp("a", op(rng), int(rng)),
            2 => Predicate::cmp("a", op(rng), float(rng)),
            3 => Predicate::cmp("f", op(rng), float(rng)),
            4 => Predicate::cmp("f", op(rng), int(rng)),
            // IntBetween (int and float bounds), FloatBetween.
            5 => Predicate::between("a", int(rng), int(rng)),
            6 => Predicate::between("a", float(rng), float(rng)),
            7 => Predicate::between("f", float(rng), float(rng)),
            // IntIn.
            8 => Predicate::in_list(
                "a",
                prop::collection::vec((-6i64..16).prop_map(Value::Int), 0..5).generate(rng),
            ),
            // StrCodes: comparison, range, IN, LIKE.
            9 => Predicate::cmp("s", op(rng), word(rng)),
            10 => Predicate::between("s", word(rng), word(rng)),
            11 => Predicate::in_list(
                "s",
                vec![Value::Str(word(rng).into()), Value::Str(word(rng).into())],
            ),
            12 => Predicate::Like {
                column: "s".into(),
                pattern: PATTERNS[(0..PATTERNS.len()).generate(rng)].into(),
                negated: negated(rng),
            },
            // IsNull on each column type.
            13 => Predicate::IsNull {
                column: ["k", "a", "f", "s"][(0usize..4).generate(rng)].into(),
                negated: negated(rng),
            },
            // Never: type-mismatched literals.
            14 => Predicate::eq("s", int(rng)),
            15 => Predicate::like("a", "%1%"),
            16 | 17 => return FilterExpr::And(children(rng)),
            18 | 19 => return FilterExpr::Or(children(rng)),
            _ => return FilterExpr::Not(Box::new(children(rng).pop().unwrap_or(FilterExpr::True))),
        })
    }
}

/// Always-true filter that still goes through the scan.
fn tautology() -> FilterExpr {
    let null_test = |negated| {
        FilterExpr::pred(Predicate::IsNull {
            column: "k".into(),
            negated,
        })
    };
    FilterExpr::Or(vec![null_test(false), null_test(true)])
}

/// Bins for `k`: values below 30 assigned round-robin, the rest left to the
/// map's fallback hash.
fn bins(k: usize) -> TableBins {
    let mut bins = TableBins::new();
    let assigned = (0i64..30).map(|v| (v, (v % k as i64) as u32));
    bins.insert("k", KeyBinMap::new(k, assigned));
    bins
}

/// The matcher `LikePattern` replaced: two-pointer greedy matching with
/// backtracking on the last `%`, over collected characters.
fn reference_like(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() {
            match p[pi] {
                '%' => {
                    star = Some((pi + 1, ti));
                    pi += 1;
                    continue;
                }
                '_' => {
                    pi += 1;
                    ti += 1;
                    continue;
                }
                '\\' if pi + 1 < p.len() => {
                    if p[pi + 1] == t[ti] {
                        pi += 2;
                        ti += 1;
                        continue;
                    }
                }
                c => {
                    if c == t[ti] {
                        pi += 1;
                        ti += 1;
                        continue;
                    }
                }
            }
        }
        match star {
            Some((sp, st)) => {
                pi = sp;
                ti = st + 1;
                star = Some((sp, st + 1));
            }
            None => return false,
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

/// Strings over `alphabet`, up to `max_len` characters.
fn strings(alphabet: &'static [char], max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0..alphabet.len(), 0..max_len + 1)
        .prop_map(move |picks| picks.into_iter().map(|i| alphabet[i]).collect())
}

// ------------------------------------------------------------ properties

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// The selection bitmap holds exactly the rows the per-row evaluator
    /// accepts — also when the buffer still holds another filter's bits.
    #[test]
    fn bulk_selection_equals_per_row_eval(
        rows in prop::collection::vec(row(), 200..201),
        nrows in row_count(),
        before in Filters { depth: 2 },
        expr in Filters { depth: 3 },
    ) {
        let t = table(rows, nrows);
        let compiled = compile_filter(&t, &expr);
        let expected: Vec<usize> = (0..t.nrows()).filter(|&r| compiled.eval(&t, r)).collect();

        let mut selection = Selection::default();
        compile_filter(&t, &before).select(&t, &mut selection);
        compiled.select(&t, &mut selection);
        prop_assert_eq!(selection.rows().collect::<Vec<_>>(), expected.clone());
        prop_assert_eq!(selection.count(), expected.len() as u64);
        prop_assert_eq!(compiled.count(&t), expected.len() as u64);
        prop_assert_eq!(filtered_count(&t, &expr), expected.len() as u64);
        let as_u32: Vec<u32> = expected.iter().map(|&r| r as u32).collect();
        prop_assert_eq!(filtered_selection(&t, &expr), as_u32);
    }

    /// A compiled pattern decides every text as the reference matcher
    /// does. The first alphabet has no `_` or `\`, so its patterns compile
    /// to literal segments; the second exercises the general matcher.
    #[test]
    fn like_pattern_equals_reference_matcher(
        pattern in prop_oneof![
            strings(&['a', 'b', '%', '%', 'é', '日'], 7),
            strings(&['a', 'b', '%', '_', '\\', 'é', '日'], 7),
        ],
        texts in prop::collection::vec(strings(&['a', 'b', 'é', '日', '%', '_', '\\'], 5), 6..7),
    ) {
        let compiled = LikePattern::new(&pattern);
        for filler in &texts {
            // Random texts rarely match; instantiating the pattern (each
            // `%` becomes the filler, `_` one character, escapes dropped)
            // yields matches, and deleting one character near-misses such
            // as a prefix and a suffix that would have to overlap.
            let instance: Vec<char> = pattern
                .replace('%', filler)
                .replace('_', "é")
                .replace('\\', "")
                .chars()
                .collect();
            let near = (0..instance.len()).map(|skip| {
                let kept = instance.iter().enumerate().filter(|&(i, _)| i != skip);
                kept.map(|(_, c)| c).collect::<String>()
            });
            for text in near.chain([filler.clone(), instance.iter().collect()]) {
                let expected = reference_like(&pattern, &text);
                prop_assert_eq!(compiled.matches(&text), expected, "{:?} on {:?}", pattern, text);
                prop_assert_eq!(like_match(&pattern, &text), expected, "{:?} on {:?}", pattern, text);
            }
        }
    }

    /// `profile_into` into a used buffer ≡ `profile` ≡ (`estimate_filter`,
    /// a `profile` of the one key) for the two scanning estimators, and the
    /// unfiltered shortcut equals a scan that accepts every row.
    #[test]
    fn scanning_estimators_agree_with_themselves(
        rows in prop::collection::vec(row(), 200..201),
        nrows in row_count(),
        expr in Filters { depth: 2 },
        k in 1usize..7,
        full_rate in 0u32..2,
    ) {
        let t = table(rows, nrows);
        let bins = bins(k);
        let rate = if full_rate == 1 { 1.0 } else { 0.4 };
        let estimators: [Box<dyn BaseTableEstimator>; 2] = [
            Box::new(SamplingEstimator::build(&t, &bins, rate, 7)),
            Box::new(ExactEstimator::build(&t, &bins)),
        ];
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        for est in &estimators {
            // `a` is not a binned key: one all-zero bin.
            let keys = ["k", "a", "k"];
            let mut reused = TableProfile::default();
            est.profile_into(&tautology(), &["k"], &mut reused);
            for filter in [&expr, &FilterExpr::True] {
                let fresh = est.profile(filter, &keys);
                est.profile_into(filter, &keys, &mut reused);
                prop_assert_eq!(fresh.rows.to_bits(), reused.rows.to_bits());
                prop_assert_eq!(fresh.rows.to_bits(), est.estimate_filter(filter).to_bits());
                prop_assert_eq!(fresh.key_dists.len(), keys.len());
                for (i, key) in keys.iter().enumerate() {
                    prop_assert_eq!(fresh.key_dists[i].len(), est.key_bins(key));
                    prop_assert!(same(&fresh.key_dists[i], &reused.key_dists[i]), "{}", est.name());
                    prop_assert!(
                        same(&fresh.key_dists[i], &est.profile(filter, &[key]).key_dists[0]),
                        "{}", est.name()
                    );
                }
            }
            let unfiltered = est.profile(&FilterExpr::True, &["k"]);
            let scanned = est.profile(&tautology(), &["k"]);
            prop_assert_eq!(unfiltered.rows.to_bits(), scanned.rows.to_bits());
            prop_assert!(same(&unfiltered.key_dists[0], &scanned.key_dists[0]), "{}", est.name());
        }
    }
}
