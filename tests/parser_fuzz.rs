//! Seeded never-panics fuzz for the SQL parser: every STATS-CEB and
//! IMDB-JOB query's text, cut at every char boundary and edited byte by
//! byte, parses to a query or a typed `ParseError` — never a panic, and
//! never a stack overflow (a nesting deeper than `MAX_FILTER_DEPTH` is
//! `ParseError::TooDeep`).

use fj_datagen::{
    imdb_catalog, imdb_job_workload, stats_catalog, stats_ceb_workload, ImdbConfig, StatsConfig,
    WorkloadConfig,
};
use fj_query::parse_query;
use fj_storage::Catalog;

/// Same mixer as the `.fjm` and wire fuzz suites, so a failure replays
/// from the printed seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What an edit writes: the parser's own symbols, quotes, keywords' first
/// letters, digits, blanks and one non-ASCII byte sequence.
const SPLICES: [&str; 18] = [
    "(", ")", "'", "''", ".", ",", ";", "-", "=", "<", ">", "%", "*", " ", "NOT ", "0", "é", "",
];

fn parse_quietly(catalog: &Catalog, sql: &str, case: &str) {
    let outcome = std::panic::catch_unwind(|| parse_query(catalog, sql).map(|_| ()));
    assert!(outcome.is_ok(), "parse_query panicked on {case}: {sql:?}");
}

/// Parses every char-boundary prefix of each query's SQL, then 24 seeded
/// edits of it: a splice at a char boundary replacing zero to three chars.
fn fuzz(catalog: &Catalog, sqls: &[String], seed: u64) {
    for (qi, sql) in sqls.iter().enumerate() {
        parse_query(catalog, sql).unwrap_or_else(|e| panic!("query {qi} does not parse: {e}"));
        for (cut, _) in sql.char_indices() {
            parse_quietly(catalog, &sql[..cut], &format!("query {qi} cut at {cut}"));
        }
        let bounds: Vec<usize> = sql
            .char_indices()
            .map(|(i, _)| i)
            .chain([sql.len()])
            .collect();
        let mut rng = seed ^ (qi as u64).wrapping_mul(0x5851_F42D_4C95_7F2D);
        for edit in 0..24 {
            let at = (splitmix64(&mut rng) as usize) % bounds.len();
            let gone = (splitmix64(&mut rng) % 4) as usize;
            let (start, end) = (bounds[at], bounds[(at + gone).min(bounds.len() - 1)]);
            let splice = SPLICES[(splitmix64(&mut rng) as usize) % SPLICES.len()];
            let edited = format!("{}{splice}{}", &sql[..start], &sql[end..]);
            parse_quietly(
                catalog,
                &edited,
                &format!("query {qi} edit {edit} (seed {seed})"),
            );
        }
    }
}

#[test]
fn stats_ceb_sql_edits_never_panic_the_parser() {
    let catalog = stats_catalog(&StatsConfig {
        scale: 0.05,
        ..Default::default()
    });
    let sqls: Vec<String> = stats_ceb_workload(&catalog, &WorkloadConfig::stats_ceb())
        .iter()
        .map(|q| q.to_sql(&catalog))
        .collect();
    assert_eq!(sqls.len(), 146);
    fuzz(&catalog, &sqls, 2023);
}

#[test]
fn imdb_job_sql_edits_never_panic_the_parser() {
    let catalog = imdb_catalog(&ImdbConfig {
        scale: 0.05,
        ..Default::default()
    });
    let sqls: Vec<String> = imdb_job_workload(&catalog, &WorkloadConfig::imdb_job())
        .iter()
        .map(|q| q.to_sql(&catalog))
        .collect();
    assert_eq!(sqls.len(), 113);
    fuzz(&catalog, &sqls, 1995);
}
