//! Query workload generators (stand-ins for STATS-CEB and IMDB-JOB).
//!
//! A workload is a set of join templates (connected subgraphs of the schema
//! join graph) instantiated with filter predicates whose literals are drawn
//! from the actual data, so selectivities are realistic and span orders of
//! magnitude. STATS-CEB-like workloads are star/chain templates with
//! numeric/categorical filters; IMDB-JOB-like workloads add cyclic templates
//! (via `movie_link`) and `LIKE` string predicates, matching paper Table 2.

use crate::text;
use fj_query::{CmpOp, FilterExpr, Predicate, Query, TableRef};
use fj_storage::{Catalog, DataType, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Workload generation knobs.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// RNG seed.
    pub seed: u64,
    /// Total number of queries to emit.
    pub num_queries: usize,
    /// Number of distinct join templates.
    pub num_templates: usize,
    /// Minimum aliases per query.
    pub min_tables: usize,
    /// Maximum aliases per query.
    pub max_tables: usize,
    /// Probability that an alias receives any filter.
    pub filter_prob: f64,
    /// Maximum predicates per filtered alias.
    pub max_preds_per_table: usize,
    /// Include cyclic/self-join templates (IMDB only).
    pub allow_cyclic: bool,
    /// Include `LIKE` predicates on string columns.
    pub allow_like: bool,
}

impl WorkloadConfig {
    /// Paper-shaped STATS-CEB workload: 146 queries over 70 templates.
    pub fn stats_ceb() -> Self {
        WorkloadConfig {
            seed: 2023,
            num_queries: 146,
            num_templates: 70,
            min_tables: 2,
            max_tables: 6,
            filter_prob: 0.75,
            max_preds_per_table: 3,
            allow_cyclic: false,
            allow_like: false,
        }
    }

    /// Paper-shaped IMDB-JOB workload: 113 queries over 33 templates.
    pub fn imdb_job() -> Self {
        WorkloadConfig {
            seed: 1995,
            num_queries: 113,
            num_templates: 33,
            min_tables: 3,
            max_tables: 8,
            filter_prob: 0.7,
            max_preds_per_table: 2,
            allow_cyclic: true,
            allow_like: true,
        }
    }

    /// Small workload for unit tests.
    pub fn tiny(seed: u64) -> Self {
        WorkloadConfig {
            seed,
            num_queries: 12,
            num_templates: 6,
            min_tables: 2,
            max_tables: 4,
            filter_prob: 0.8,
            max_preds_per_table: 2,
            allow_cyclic: false,
            allow_like: false,
        }
    }
}

/// A join template: tables and join conditions, before filters.
#[derive(Debug, Clone)]
struct Template {
    tables: Vec<TableRef>,
    joins: Vec<((String, String), (String, String))>,
}

/// Per-column metadata used for sensible filter generation.
struct ColumnProfile {
    distinct_small: Option<Vec<i64>>, // present iff the column is low-cardinality
}

/// Generates the STATS-CEB-like workload.
pub fn stats_ceb_workload(catalog: &Catalog, cfg: &WorkloadConfig) -> Vec<Query> {
    generate(catalog, cfg)
}

/// Generates the IMDB-JOB-like workload (cyclic templates + LIKE filters
/// when enabled in `cfg`).
pub fn imdb_job_workload(catalog: &Catalog, cfg: &WorkloadConfig) -> Vec<Query> {
    generate(catalog, cfg)
}

fn generate(catalog: &Catalog, cfg: &WorkloadConfig) -> Vec<Query> {
    assert!(cfg.min_tables >= 2 && cfg.max_tables >= cfg.min_tables);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let profiles = profile_columns(catalog);

    let mut templates = Vec::with_capacity(cfg.num_templates);
    // A fixed share of cyclic templates when requested (paper: IMDB-JOB
    // contains cyclic joins).
    let num_cyclic = if cfg.allow_cyclic {
        (cfg.num_templates / 8).max(2)
    } else {
        0
    };
    for i in 0..cfg.num_templates {
        let t = if i < num_cyclic {
            cyclic_template(catalog, &mut rng)
                .unwrap_or_else(|| tree_template(catalog, &mut rng, cfg))
        } else {
            tree_template(catalog, &mut rng, cfg)
        };
        templates.push(t);
    }

    let mut queries = Vec::with_capacity(cfg.num_queries);
    let mut attempts = 0;
    while queries.len() < cfg.num_queries && attempts < cfg.num_queries * 20 {
        attempts += 1;
        let t = &templates[queries.len() % templates.len()];
        let filters = gen_filters(catalog, &mut rng, &t.tables, &profiles, cfg);
        match Query::new(catalog, t.tables.clone(), &t.joins, filters) {
            Ok(q) => queries.push(q),
            Err(e) => panic!("template instantiation must bind: {e}"),
        }
    }
    queries
}

/// Samples a tree-shaped connected template by growing along schema relations.
fn tree_template(catalog: &Catalog, rng: &mut StdRng, cfg: &WorkloadConfig) -> Template {
    let relations = catalog.relations();
    assert!(!relations.is_empty(), "catalog must declare join relations");
    let target = rng.gen_range(cfg.min_tables..=cfg.max_tables);

    // Start from a random relation.
    let r0 = &relations[rng.gen_range(0..relations.len())];
    let mut tables: Vec<String> = vec![r0.left.table.clone()];
    if r0.right.table != r0.left.table {
        tables.push(r0.right.table.clone());
    }
    let mut joins = vec![(
        (r0.left.table.clone(), r0.left.column.clone()),
        (r0.right.table.clone(), r0.right.column.clone()),
    )];

    let mut guard = 0;
    while tables.len() < target && guard < 200 {
        guard += 1;
        let r = &relations[rng.gen_range(0..relations.len())];
        let l_in = tables.contains(&r.left.table);
        let r_in = tables.contains(&r.right.table);
        let join = (
            (r.left.table.clone(), r.left.column.clone()),
            (r.right.table.clone(), r.right.column.clone()),
        );
        match (l_in, r_in) {
            (true, false) => {
                tables.push(r.right.table.clone());
                joins.push(join);
            }
            (false, true) => {
                tables.push(r.left.table.clone());
                joins.push(join);
            }
            // Occasionally densify with an extra edge between included
            // tables (creates multi-predicate joins but not new aliases).
            (true, true)
                if rng.gen_bool(0.1) && !joins.contains(&join) && r.left.table != r.right.table =>
            {
                joins.push(join);
            }
            _ => {}
        }
    }
    let tables = tables.into_iter().map(|t| TableRef::new(&t, &t)).collect();
    Template { tables, joins }
}

/// Builds a cyclic template around `movie_link` if the catalog has one:
/// `t1 ⋈ ml ⋈ t2` plus `t1.kind_id = t2.kind_id`, a 3-alias cycle that is
/// also a self-join of `title` (paper: IMDB-JOB has cyclic & self joins).
fn cyclic_template(catalog: &Catalog, rng: &mut StdRng) -> Option<Template> {
    catalog.table("movie_link").ok()?;
    catalog.table("title").ok()?;
    let mut tables = vec![
        TableRef::new("t1", "title"),
        TableRef::new("ml", "movie_link"),
        TableRef::new("t2", "title"),
    ];
    let mut joins = vec![
        (
            ("t1".to_string(), "id".to_string()),
            ("ml".to_string(), "movie_id".to_string()),
        ),
        (
            ("t2".to_string(), "id".to_string()),
            ("ml".to_string(), "linked_movie_id".to_string()),
        ),
        (
            ("t1".to_string(), "kind_id".to_string()),
            ("t2".to_string(), "kind_id".to_string()),
        ),
    ];
    // Optionally hang one more fact table off t1.
    if rng.gen_bool(0.5) {
        tables.push(TableRef::new("mk", "movie_keyword"));
        joins.push((
            ("t1".to_string(), "id".to_string()),
            ("mk".to_string(), "movie_id".to_string()),
        ));
    }
    Some(Template { tables, joins })
}

/// Precomputes low-cardinality domains for equality/IN filter generation.
fn profile_columns(catalog: &Catalog) -> HashMap<(String, String), ColumnProfile> {
    let mut out = HashMap::new();
    for table in catalog.tables() {
        for (ci, def) in table.schema().columns().iter().enumerate() {
            if def.join_key || def.dtype != DataType::Int {
                continue;
            }
            let col = table.column(ci);
            let mut distinct = std::collections::BTreeSet::new();
            let mut small = true;
            for i in 0..table.nrows().min(2000) {
                if !col.is_null(i) {
                    distinct.insert(col.ints()[i]);
                    if distinct.len() > 20 {
                        small = false;
                        break;
                    }
                }
            }
            out.insert(
                (table.name().to_string(), def.name.clone()),
                ColumnProfile {
                    distinct_small: small.then(|| distinct.into_iter().collect()),
                },
            );
        }
    }
    out
}

/// Generates filters for each alias by sampling literals from real rows.
fn gen_filters(
    catalog: &Catalog,
    rng: &mut StdRng,
    tables: &[TableRef],
    profiles: &HashMap<(String, String), ColumnProfile>,
    cfg: &WorkloadConfig,
) -> Vec<FilterExpr> {
    tables
        .iter()
        .map(|tref| {
            if !rng.gen_bool(cfg.filter_prob) {
                return FilterExpr::True;
            }
            let table = catalog.table(&tref.table).expect("template tables exist");
            if table.nrows() == 0 {
                return FilterExpr::True;
            }
            // Candidate columns: non-key Int/Str attributes.
            let cands: Vec<usize> = table
                .schema()
                .columns()
                .iter()
                .enumerate()
                .filter(|(_, c)| {
                    !c.join_key
                        && (c.dtype == DataType::Int
                            || (cfg.allow_like && c.dtype == DataType::Str))
                })
                .map(|(i, _)| i)
                .collect();
            if cands.is_empty() {
                return FilterExpr::True;
            }
            let n_preds = rng.gen_range(1..=cfg.max_preds_per_table);
            let mut parts = Vec::with_capacity(n_preds);
            for _ in 0..n_preds {
                let ci = cands[rng.gen_range(0..cands.len())];
                if let Some(p) = gen_predicate(table, ci, profiles, rng) {
                    parts.push(p);
                }
            }
            FilterExpr::and(parts)
        })
        .collect()
}

fn sample_nonnull(table: &fj_storage::Table, ci: usize, rng: &mut StdRng) -> Option<Value> {
    let col = table.column(ci);
    for _ in 0..16 {
        let i = rng.gen_range(0..table.nrows());
        if !col.is_null(i) {
            return Some(col.get(i));
        }
    }
    None
}

fn gen_predicate(
    table: &fj_storage::Table,
    ci: usize,
    profiles: &HashMap<(String, String), ColumnProfile>,
    rng: &mut StdRng,
) -> Option<FilterExpr> {
    let def = table.schema().column(ci);
    let name = def.name.clone();
    match def.dtype {
        DataType::Int => {
            let profile = profiles.get(&(table.name().to_string(), name.clone()));
            if let Some(ColumnProfile {
                distinct_small: Some(domain),
            }) = profile
            {
                // Categorical: equality, IN, or a small disjunction.
                match rng.gen_range(0..3) {
                    0 => {
                        let v = domain[rng.gen_range(0..domain.len())];
                        Some(FilterExpr::pred(Predicate::eq(&name, v)))
                    }
                    1 => {
                        let k = rng.gen_range(1..=3.min(domain.len()));
                        let mut vals: Vec<Value> = Vec::with_capacity(k);
                        for _ in 0..k {
                            vals.push(Value::Int(domain[rng.gen_range(0..domain.len())]));
                        }
                        vals.dedup();
                        Some(FilterExpr::pred(Predicate::in_list(&name, vals)))
                    }
                    _ => {
                        let a = domain[rng.gen_range(0..domain.len())];
                        let b = domain[rng.gen_range(0..domain.len())];
                        Some(FilterExpr::or(vec![
                            FilterExpr::pred(Predicate::eq(&name, a)),
                            FilterExpr::pred(Predicate::eq(&name, b)),
                        ]))
                    }
                }
            } else {
                // Numeric: range-style predicates anchored at data values.
                let v = sample_nonnull(table, ci, rng)?.as_int()?;
                match rng.gen_range(0..4) {
                    0 => Some(FilterExpr::pred(Predicate::cmp(&name, CmpOp::Le, v))),
                    1 => Some(FilterExpr::pred(Predicate::cmp(&name, CmpOp::Ge, v))),
                    2 => Some(FilterExpr::pred(Predicate::cmp(&name, CmpOp::Gt, v))),
                    _ => {
                        let w = sample_nonnull(table, ci, rng)?.as_int()?;
                        let (lo, hi) = if v <= w { (v, w) } else { (w, v) };
                        Some(FilterExpr::pred(Predicate::between(&name, lo, hi)))
                    }
                }
            }
        }
        DataType::Str => {
            let s = sample_nonnull(table, ci, rng)?;
            let s = s.as_str()?;
            if rng.gen_bool(0.7) {
                // LIKE on a word drawn from a real value (or a vocabulary
                // word so some patterns are highly selective).
                let word = if rng.gen_bool(0.8) {
                    s.split([' ', ',', '-'])
                        .find(|w| w.len() >= 3)
                        .unwrap_or(s)
                        .to_string()
                } else {
                    text::RARE_WORDS[rng.gen_range(0..text::RARE_WORDS.len())].to_string()
                };
                Some(FilterExpr::pred(Predicate::like(
                    &name,
                    &format!("%{word}%"),
                )))
            } else {
                Some(FilterExpr::pred(Predicate::eq(&name, s)))
            }
        }
        DataType::Float => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imdb_db::{imdb_catalog, ImdbConfig};
    use crate::stats_db::{stats_catalog, StatsConfig};
    use fj_query::connected_subplans;

    #[test]
    fn stats_workload_shape() {
        let cat = stats_catalog(&StatsConfig::tiny());
        let cfg = WorkloadConfig {
            num_queries: 30,
            num_templates: 10,
            ..WorkloadConfig::tiny(1)
        };
        let qs = stats_ceb_workload(&cat, &cfg);
        assert_eq!(qs.len(), 30);
        for q in &qs {
            assert!(q.num_tables() >= 2 && q.num_tables() <= 4);
            assert!(q.is_connected());
        }
        // Some queries must actually carry filters.
        assert!(qs
            .iter()
            .any(|q| q.filters().iter().any(|f| !f.is_trivial())));
    }

    #[test]
    fn workload_is_deterministic() {
        let cat = stats_catalog(&StatsConfig::tiny());
        let cfg = WorkloadConfig::tiny(5);
        let a = stats_ceb_workload(&cat, &cfg);
        let b = stats_ceb_workload(&cat, &cfg);
        let sa: Vec<String> = a.iter().map(|q| q.to_sql(&cat)).collect();
        let sb: Vec<String> = b.iter().map(|q| q.to_sql(&cat)).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn different_seeds_differ() {
        let cat = stats_catalog(&StatsConfig::tiny());
        let a = stats_ceb_workload(&cat, &WorkloadConfig::tiny(5));
        let b = stats_ceb_workload(&cat, &WorkloadConfig::tiny(6));
        let sa: Vec<String> = a.iter().map(|q| q.to_sql(&cat)).collect();
        let sb: Vec<String> = b.iter().map(|q| q.to_sql(&cat)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn imdb_workload_has_cyclic_and_like() {
        let cat = imdb_catalog(&ImdbConfig::tiny());
        let cfg = WorkloadConfig {
            num_queries: 40,
            num_templates: 16,
            allow_cyclic: true,
            allow_like: true,
            ..WorkloadConfig::tiny(9)
        };
        let qs = imdb_job_workload(&cat, &cfg);
        assert_eq!(qs.len(), 40);
        // Cyclic: more join edges than a tree needs.
        let cyclic = qs
            .iter()
            .filter(|q| q.joins().len() >= q.num_tables())
            .count();
        assert!(cyclic > 0, "expected cyclic templates");
        // Self-joins: a table appearing under two aliases.
        let selfjoin = qs
            .iter()
            .filter(|q| {
                let mut names: Vec<&str> = q.tables().iter().map(|t| t.table.as_str()).collect();
                names.sort_unstable();
                names.windows(2).any(|w| w[0] == w[1])
            })
            .count();
        assert!(selfjoin > 0, "expected self-join templates");
        let has_like = qs.iter().any(|q| {
            q.filters().iter().any(|f| {
                f.predicates()
                    .iter()
                    .any(|p| matches!(p, Predicate::Like { .. }))
            })
        });
        assert!(has_like, "expected LIKE predicates");
    }

    #[test]
    fn paper_shaped_configs() {
        let s = WorkloadConfig::stats_ceb();
        assert_eq!((s.num_queries, s.num_templates), (146, 70));
        let j = WorkloadConfig::imdb_job();
        assert_eq!((j.num_queries, j.num_templates), (113, 33));
        assert!(j.allow_cyclic && j.allow_like);
        assert!(!s.allow_cyclic && !s.allow_like);
    }

    #[test]
    fn subplan_counts_are_nontrivial() {
        let cat = stats_catalog(&StatsConfig::tiny());
        let cfg = WorkloadConfig {
            num_queries: 10,
            num_templates: 5,
            min_tables: 4,
            max_tables: 6,
            max_preds_per_table: 2,
            filter_prob: 0.5,
            allow_cyclic: false,
            allow_like: false,
            seed: 3,
        };
        let qs = stats_ceb_workload(&cat, &cfg);
        let max_subs = qs
            .iter()
            .map(|q| connected_subplans(q, 2).len())
            .max()
            .unwrap();
        assert!(
            max_subs >= 6,
            "expected multi-table sub-plans, got {max_subs}"
        );
    }

    #[test]
    fn queries_parse_back_from_sql() {
        let cat = stats_catalog(&StatsConfig::tiny());
        let qs = stats_ceb_workload(&cat, &WorkloadConfig::tiny(11));
        for q in &qs {
            let sql = q.to_sql(&cat);
            let q2 = fj_query::parse_query(&cat, &sql)
                .unwrap_or_else(|e| panic!("reparse failed for {sql}: {e}"));
            assert_eq!(&q2, q, "round-trip mismatch for {sql}");
        }
    }
}
