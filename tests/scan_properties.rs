//! Differential properties of bulk single-table inference: the compiled
//! filter's selection bitmap against the reference `FilterExpr::eval`,
//! compiled `LIKE` against the reference matcher, the dictionary-wide
//! `LIKE` matcher against per-entry matching, string columns across round
//! trips, and the in-place profile against its parts.

use fj_query::{
    compile_filter, filtered_count, filtered_selection, like_match, CmpOp, FilterExpr, LikePattern,
    Predicate, Selection,
};
use fj_stats::{
    BaseTableEstimator, ExactEstimator, KeyBinMap, SamplingEstimator, TableBins, TableProfile,
};
use fj_storage::{ColumnDef, DataType, StrDict, Table, TableSchema, Value};
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
/// is NULL, and floats include whole numbers (which `IN` lists hit) and
/// NaN.
fn row() -> impl Strategy<Value = Vec<Value>> {
    let nullable = |s: BoxedStrategy<Value>| prop_oneof![4 => s, 1 => Just(Value::Null)];
    (
        nullable((0i64..40).prop_map(Value::Int).boxed()),
        nullable((-5i64..15).prop_map(Value::Int).boxed()),
        nullable(
            prop_oneof![
                6 => (-2.0f64..6.0).prop_map(Value::Float),
                2 => (-2i64..6).prop_map(|i| Value::Float(i as f64)),
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
        // IN-list literals: ints, floats (some equal to an int) and NaN.
        let numbers = |rng: &mut TestRng, ints: bool| {
            let n = (0usize..5).generate(rng);
            (0..n)
                .map(|_| match (0u32..8).generate(rng) {
                    0 => Value::Float(f64::NAN),
                    1 | 2 => Value::Float(int(rng) as f64),
                    3 | 4 if ints => Value::Int(int(rng)),
                    _ => Value::Float(float(rng)),
                })
                .collect()
        };
        let kinds = if self.depth == 0 { 18 } else { 24 };
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
            // FloatIn (int and float literals), IntIn with float literals.
            16 => Predicate::in_list("f", numbers(rng, true)),
            17 => Predicate::in_list("a", numbers(rng, false)),
            18 | 19 => return FilterExpr::And(children(rng)),
            20 | 21 => return FilterExpr::Or(children(rng)),
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

/// Dictionary entries: short (often empty) strings with multi-byte
/// characters and the `LIKE` metacharacters as data.
fn entries() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(strings(&['a', 'b', 'é', '日', '%', '_', '\\'], 4), 0..24)
}

/// Patterns of every `LikePattern` shape: the fixed corner cases, then
/// random ones (literal-and-`%` only, or with `_` and escapes).
fn patterns() -> impl Strategy<Value = String> {
    const FIXED: [&str; 12] = [
        "%", "%%", "", "_", "\\%", "%\\%%", "%a%b%", "a%b", "b%%é", "%日%", "%ab%", "a_%",
    ];
    prop_oneof![
        2 => (0..FIXED.len()).prop_map(|i| FIXED[i].to_string()),
        2 => strings(&['a', 'b', '%', '%', 'é', '日'], 6),
        1 => strings(&['a', 'b', '%', '_', '\\', 'é', '日'], 6),
    ]
}

/// `%xy%` for each pair of adjacent entries, `x` the last character of
/// the first and `y` the first of the second: a literal the arena holds
/// across an entry boundary.
fn straddling_patterns(dict: &StrDict) -> Vec<String> {
    let entries: Vec<&str> = dict.iter().filter(|e| !e.is_empty()).collect();
    entries
        .windows(2)
        .filter_map(|pair| {
            let (x, y) = (pair[0].chars().last()?, pair[1].chars().next()?);
            let plain = |c: char| !matches!(c, '%' | '_' | '\\');
            (plain(x) && plain(y)).then(|| format!("%{x}{y}%"))
        })
        .collect()
}

/// A one-column string table: a NULL first row (so code 0 is the empty
/// placeholder), then `entries` in order.
fn string_table(entries: &[String]) -> Table {
    let schema = TableSchema::new(vec![ColumnDef::new("s", DataType::Str)]);
    let rows: Vec<Vec<Value>> = std::iter::once(Value::Null)
        .chain(entries.iter().map(|e| Value::Str(e.clone())))
        .map(|v| vec![v])
        .collect();
    Table::from_rows("d", schema, &rows).expect("rows match the schema")
}

// ------------------------------------------------------------ properties

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// The compiled filter accepts exactly the rows the reference
    /// evaluator `FilterExpr::eval` does — also when the selection buffer
    /// still holds another filter's bits — and every count agrees.
    #[test]
    fn compiled_filter_equals_reference_evaluator(
        rows in prop::collection::vec(row(), 200..201),
        nrows in row_count(),
        before in Filters { depth: 2 },
        expr in Filters { depth: 3 },
    ) {
        let t = table(rows, nrows);
        let expected: Vec<usize> = (0..t.nrows())
            .filter(|&r| expr.eval(&|c: &str| t.column_by_name(c).expect("bound").get(r)))
            .collect();

        let compiled = compile_filter(&t, &expr);
        let mut selection = Selection::default();
        compile_filter(&t, &before).select(&t, &mut selection);
        compiled.select(&t, &mut selection);
        prop_assert_eq!(selection.rows().collect::<Vec<_>>(), expected.clone(), "{}", expr);
        prop_assert_eq!(selection.count(), expected.len() as u64);
        prop_assert_eq!(compiled.count(&t), expected.len() as u64);
        prop_assert_eq!(filtered_count(&t, &expr), expected.len() as u64);
        let as_u32: Vec<u32> = expected.iter().map(|&r| r as u32).collect();
        prop_assert_eq!(filtered_selection(&t, &expr), as_u32);
    }

    /// `LikePattern::match_dict` marks exactly the entries per-entry
    /// `matches` accepts — on interned dictionaries with the NULL
    /// placeholder and on raw ones with repeated and empty entries, for
    /// corner-case, random and entry-straddling patterns — and compiled
    /// `LIKE` / `NOT LIKE` agree with the reference evaluator row by row.
    #[test]
    fn dictionary_matcher_equals_per_entry_matches(
        words in entries(),
        pats in prop::collection::vec(patterns(), 4..5),
    ) {
        let t = string_table(&words);
        let mut raw = StrDict::new();
        for w in &words {
            raw.push(w).expect("small dictionary");
        }
        let interned = t.column(0).dict();
        for dict in [interned, &raw] {
            for pattern in pats.iter().cloned().chain(straddling_patterns(dict)) {
                let compiled = LikePattern::new(&pattern);
                let per_entry: Vec<bool> = dict.iter().map(|e| compiled.matches(e)).collect();
                prop_assert_eq!(compiled.match_dict(dict), per_entry, "{:?} over {:?}", pattern, words);
            }
        }
        for pattern in &pats {
            for negated in [false, true] {
                let like = Predicate::Like { column: "s".into(), pattern: pattern.clone(), negated };
                let expr = FilterExpr::pred(like);
                let reference: Vec<u32> = (0..t.nrows() as u32)
                    .filter(|&r| expr.eval(&|_: &str| t.column(0).get(r as usize)))
                    .collect();
                prop_assert_eq!(filtered_selection(&t, &expr), reference, "{}", expr);
            }
        }
    }

    /// A string column decodes every row to what was loaded, keeps its
    /// codes through `select_rows` and `append_rows`, and its dictionary
    /// costs exactly its bytes plus four per entry.
    #[test]
    fn string_columns_round_trip_with_stable_codes(
        words in entries(),
        more in entries(),
    ) {
        let t = string_table(&words);
        let col = t.column(0);
        let dict = col.dict();
        let text: usize = dict.iter().map(str::len).sum();
        prop_assert_eq!(dict.heap_bytes(), text + 4 * dict.len());
        prop_assert_eq!(dict.bytes().len(), text);
        for (r, w) in words.iter().enumerate() {
            prop_assert_eq!(col.get(r + 1), Value::Str(w.clone()));
        }
        prop_assert!(col.get(0).is_null());

        let all: Vec<usize> = (0..t.nrows()).collect();
        let copy = t.select_rows("copy", &all);
        prop_assert_eq!(copy.column(0).codes(), col.codes());
        prop_assert_eq!(copy.column(0).dict(), dict);

        let mut grown = t.clone();
        let rows: Vec<Vec<Value>> = more.iter().map(|w| vec![Value::Str(w.clone())]).collect();
        grown.append_rows(&rows).expect("rows match the schema");
        let g = grown.column(0);
        prop_assert_eq!(&g.codes()[..t.nrows()], col.codes());
        prop_assert_eq!(&g.dict().ends()[..dict.len()], dict.ends());
        for (r, w) in more.iter().enumerate() {
            prop_assert_eq!(g.get(t.nrows() + r), Value::Str(w.clone()));
        }
        let gd = g.dict();
        prop_assert_eq!(gd.heap_bytes(), gd.bytes().len() + 4 * gd.len());
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
