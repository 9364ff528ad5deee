//! IMDB-like synthetic database (stand-in for the IMDB-JOB dataset).
//!
//! Reproduces the 21-table JOB schema: the `title`/`name` entity tables, the
//! big fact tables (`cast_info`, `movie_info`, …), the tiny dimension tables
//! (`info_type`, `kind_type`, …), and `movie_link`, whose
//! `movie_id`/`linked_movie_id` pair is what makes cyclic join templates
//! possible. String columns carry generated text so `LIKE` predicates have
//! meaningful, widely-varying selectivities.
//!
//! Key-group structure matches the paper's Table 2: 11 equivalent key
//! groups (movie, person, company, company-type, kind, info-type, keyword,
//! role, character, complete-cast-type, link-type).

use crate::dist::{weighted_choice, ZipfKeys};
use crate::schemas::{declare_imdb_relations, DatasetKind};
use crate::text;
use fj_storage::{Catalog, Table, TableSchema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generation knobs for the IMDB-like database.
#[derive(Debug, Clone, Copy)]
pub struct ImdbConfig {
    /// Linear scale factor on entity/fact row counts (1.0 ≈ 90k rows).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Zipf exponent for FKs into `title.id` (movie popularity skew).
    pub movie_skew: f64,
    /// Zipf exponent for FKs into `name.id` (actor prolificness skew).
    pub person_skew: f64,
}

impl Default for ImdbConfig {
    fn default() -> Self {
        ImdbConfig {
            scale: 1.0,
            seed: 1337,
            movie_skew: 1.0,
            person_skew: 0.9,
        }
    }
}

impl ImdbConfig {
    /// A small configuration for unit tests (≈ 9k rows).
    pub fn tiny() -> Self {
        ImdbConfig {
            scale: 0.1,
            ..Default::default()
        }
    }

    fn n(&self, base: usize) -> usize {
        ((base as f64) * self.scale).round().max(8.0) as usize
    }
}

/// Looks up one JOB table schema from the shared definitions.
fn schema_of(name: &str) -> TableSchema {
    DatasetKind::Imdb
        .table_schema(name)
        .expect("imdb table name")
}

/// Builds a tiny dimension table `name(id, <text_col>)` with fixed size.
fn dim_table(name: &str, n: usize, rng: &mut StdRng) -> Table {
    let schema = schema_of(name);
    let rows: Vec<Vec<Value>> = (1..=n as i64)
        .map(|id| {
            vec![
                Value::Int(id),
                Value::Str(format!("{}_{id}", text::keyword(rng))),
            ]
        })
        .collect();
    Table::from_rows(name, schema, &rows).expect("valid rows")
}

/// Builds the IMDB-like catalog: 21 tables, 11 equivalent key groups.
pub fn imdb_catalog(cfg: &ImdbConfig) -> Catalog {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n_title = cfg.n(4000);
    let n_name = cfg.n(6000);
    let n_char = cfg.n(4000);
    let n_company = cfg.n(2000);
    let n_keyword = cfg.n(2000);

    let movie_keys = ZipfKeys::new(&mut rng, n_title as u64, cfg.movie_skew);
    let person_keys = ZipfKeys::new(&mut rng, n_name as u64, cfg.person_skew);
    let company_keys = ZipfKeys::new(&mut rng, n_company as u64, 0.9);
    let keyword_keys = ZipfKeys::new(&mut rng, n_keyword as u64, 1.1);
    let char_keys = ZipfKeys::new(&mut rng, n_char as u64, 0.8);

    let mut cat = Catalog::new();

    // ------------------------------------------------ dimension tables (6)
    const N_KIND: usize = 7;
    const N_CTYPE: usize = 4;
    const N_ITYPE: usize = 113;
    const N_ROLE: usize = 12;
    const N_LINK: usize = 18;
    const N_CCT: usize = 4;
    for (name, n) in [
        ("kind_type", N_KIND),
        ("company_type", N_CTYPE),
        ("info_type", N_ITYPE),
        ("role_type", N_ROLE),
        ("link_type", N_LINK),
        ("comp_cast_type", N_CCT),
    ] {
        cat.add_table(dim_table(name, n, &mut rng))
            .expect("fresh catalog");
    }

    // --------------------------------------------------------------- title
    {
        let schema = schema_of("title");
        let rows: Vec<Vec<Value>> = (1..=n_title as i64)
            .map(|id| {
                // Production year drifts upward with id (newer titles later),
                // correlating year filters with the movie key domain.
                let base_year = 1930 + (id * 90 / n_title as i64);
                let year = (base_year + rng.gen_range(-5..=5)).clamp(1900, 2023);
                let kind =
                    1 + weighted_choice(&mut rng, &[10.0, 2.0, 1.0, 5.0, 0.5, 0.5, 0.5]) as i64;
                let episode = if kind == 4 {
                    Value::Int(rng.gen_range(1..500))
                } else {
                    Value::Null
                };
                vec![
                    Value::Int(id),
                    Value::Int(kind),
                    Value::Str(text::title(&mut rng)),
                    Value::Int(year),
                    episode,
                ]
            })
            .collect();
        cat.add_table(Table::from_rows("title", schema, &rows).expect("valid rows"))
            .expect("fresh catalog");
    }

    // ---------------------------------------------------------------- name
    {
        let schema = schema_of("name");
        let rows: Vec<Vec<Value>> = (1..=n_name as i64)
            .map(|id| {
                let gender = match weighted_choice(&mut rng, &[5.0, 4.0, 1.0]) {
                    0 => Value::Str("m".into()),
                    1 => Value::Str("f".into()),
                    _ => Value::Null,
                };
                vec![
                    Value::Int(id),
                    Value::Str(text::person_name(&mut rng)),
                    gender,
                ]
            })
            .collect();
        cat.add_table(Table::from_rows("name", schema, &rows).expect("valid rows"))
            .expect("fresh catalog");
    }

    // ----------------------------------------------------------- char_name
    {
        let schema = schema_of("char_name");
        let rows: Vec<Vec<Value>> = (1..=n_char as i64)
            .map(|id| vec![Value::Int(id), Value::Str(text::person_name(&mut rng))])
            .collect();
        cat.add_table(Table::from_rows("char_name", schema, &rows).expect("valid rows"))
            .expect("fresh catalog");
    }

    // -------------------------------------------------------- company_name
    {
        let schema = schema_of("company_name");
        let rows: Vec<Vec<Value>> = (1..=n_company as i64)
            .map(|id| {
                // Country correlates with company id range (national clusters).
                let cc_idx = ((id as usize * text::COUNTRY_CODES.len()) / (n_company + 1))
                    .min(text::COUNTRY_CODES.len() - 1);
                let cc = if rng.gen_bool(0.8) {
                    text::COUNTRY_CODES[cc_idx]
                } else {
                    text::COUNTRY_CODES[rng.gen_range(0..text::COUNTRY_CODES.len())]
                };
                vec![
                    Value::Int(id),
                    Value::Str(text::company_name(&mut rng)),
                    Value::Str(cc.to_string()),
                ]
            })
            .collect();
        cat.add_table(Table::from_rows("company_name", schema, &rows).expect("valid rows"))
            .expect("fresh catalog");
    }

    // ------------------------------------------------------------- keyword
    {
        let schema = schema_of("keyword");
        let rows: Vec<Vec<Value>> = (1..=n_keyword as i64)
            .map(|id| vec![Value::Int(id), Value::Str(text::keyword(&mut rng))])
            .collect();
        cat.add_table(Table::from_rows("keyword", schema, &rows).expect("valid rows"))
            .expect("fresh catalog");
    }

    // ------------------------------------------------------ fact tables
    // movie_companies(id, movie_id, company_id, company_type_id)
    {
        let schema = schema_of("movie_companies");
        let rows: Vec<Vec<Value>> = (1..=cfg.n(8000) as i64)
            .map(|id| {
                vec![
                    Value::Int(id),
                    Value::Int(movie_keys.sample(&mut rng)),
                    Value::Int(company_keys.sample(&mut rng)),
                    Value::Int(1 + weighted_choice(&mut rng, &[6.0, 3.0, 0.5, 0.5]) as i64),
                ]
            })
            .collect();
        cat.add_table(Table::from_rows("movie_companies", schema, &rows).expect("valid rows"))
            .expect("fresh catalog");
    }

    // cast_info(id, movie_id, person_id, person_role_id, role_id, nr_order)
    {
        let schema = schema_of("cast_info");
        let rows: Vec<Vec<Value>> = (1..=cfg.n(20_000) as i64)
            .map(|id| {
                let person_role = if rng.gen_bool(0.40) {
                    Value::Null
                } else {
                    Value::Int(char_keys.sample(&mut rng))
                };
                vec![
                    Value::Int(id),
                    Value::Int(movie_keys.sample(&mut rng)),
                    Value::Int(person_keys.sample(&mut rng)),
                    person_role,
                    Value::Int(
                        1 + weighted_choice(
                            &mut rng,
                            &[8.0, 6.0, 1.0, 1.0, 0.5, 0.5, 0.5, 2.0, 1.0, 0.5, 0.3, 0.2],
                        ) as i64,
                    ),
                    Value::Int(rng.gen_range(1..100)),
                ]
            })
            .collect();
        cat.add_table(Table::from_rows("cast_info", schema, &rows).expect("valid rows"))
            .expect("fresh catalog");
    }

    // movie_info / movie_info_idx / person_info share a shape.
    let info_fact = |name: &str, n: usize, keys: &ZipfKeys, rng: &mut StdRng| -> Table {
        let schema = schema_of(name);
        let rows: Vec<Vec<Value>> = (1..=n as i64)
            .map(|id| {
                // Info-type skew: a handful of types dominate, as in IMDB.
                let itype = 1
                    + (crate::dist::mix64(rng.gen::<u64>()) % 113).min(if rng.gen_bool(0.7) {
                        7
                    } else {
                        112
                    }) as i64;
                vec![
                    Value::Int(id),
                    Value::Int(keys.sample(rng)),
                    Value::Int(itype),
                    Value::Str(text::info_text(rng)),
                ]
            })
            .collect();
        Table::from_rows(name, schema, &rows).expect("valid rows")
    };
    cat.add_table(info_fact(
        "movie_info",
        cfg.n(12_000),
        &movie_keys,
        &mut rng,
    ))
    .expect("fresh catalog");
    cat.add_table(info_fact(
        "movie_info_idx",
        cfg.n(5000),
        &movie_keys,
        &mut rng,
    ))
    .expect("fresh catalog");
    cat.add_table(info_fact(
        "person_info",
        cfg.n(6000),
        &person_keys,
        &mut rng,
    ))
    .expect("fresh catalog");

    // movie_keyword(id, movie_id, keyword_id)
    {
        let schema = schema_of("movie_keyword");
        let rows: Vec<Vec<Value>> = (1..=cfg.n(10_000) as i64)
            .map(|id| {
                vec![
                    Value::Int(id),
                    Value::Int(movie_keys.sample(&mut rng)),
                    Value::Int(keyword_keys.sample(&mut rng)),
                ]
            })
            .collect();
        cat.add_table(Table::from_rows("movie_keyword", schema, &rows).expect("valid rows"))
            .expect("fresh catalog");
    }

    // aka_name(id, person_id, name) / aka_title(id, movie_id, title)
    {
        let schema = schema_of("aka_name");
        let rows: Vec<Vec<Value>> = (1..=cfg.n(2500) as i64)
            .map(|id| {
                vec![
                    Value::Int(id),
                    Value::Int(person_keys.sample(&mut rng)),
                    Value::Str(text::person_name(&mut rng)),
                ]
            })
            .collect();
        cat.add_table(Table::from_rows("aka_name", schema, &rows).expect("valid rows"))
            .expect("fresh catalog");
    }
    {
        let schema = schema_of("aka_title");
        let rows: Vec<Vec<Value>> = (1..=cfg.n(1500) as i64)
            .map(|id| {
                vec![
                    Value::Int(id),
                    Value::Int(movie_keys.sample(&mut rng)),
                    Value::Str(text::title(&mut rng)),
                ]
            })
            .collect();
        cat.add_table(Table::from_rows("aka_title", schema, &rows).expect("valid rows"))
            .expect("fresh catalog");
    }

    // complete_cast(id, movie_id, subject_id, status_id)
    {
        let schema = schema_of("complete_cast");
        let rows: Vec<Vec<Value>> = (1..=cfg.n(2500) as i64)
            .map(|id| {
                vec![
                    Value::Int(id),
                    Value::Int(movie_keys.sample(&mut rng)),
                    Value::Int(1 + weighted_choice(&mut rng, &[4.0, 4.0, 1.0, 1.0]) as i64),
                    Value::Int(1 + weighted_choice(&mut rng, &[1.0, 1.0, 6.0, 2.0]) as i64),
                ]
            })
            .collect();
        cat.add_table(Table::from_rows("complete_cast", schema, &rows).expect("valid rows"))
            .expect("fresh catalog");
    }

    // movie_link(id, movie_id, linked_movie_id, link_type_id) — cyclic joins.
    {
        let schema = schema_of("movie_link");
        let rows: Vec<Vec<Value>> = (1..=cfg.n(1500) as i64)
            .map(|id| {
                vec![
                    Value::Int(id),
                    Value::Int(movie_keys.sample(&mut rng)),
                    Value::Int(movie_keys.sample(&mut rng)),
                    Value::Int(rng.gen_range(1..=N_LINK as i64)),
                ]
            })
            .collect();
        cat.add_table(Table::from_rows("movie_link", schema, &rows).expect("valid rows"))
            .expect("fresh catalog");
    }

    declare_relations(&mut cat);
    cat
}

/// Declares the JOB join relations (⇒ 11 equivalent key groups).
fn declare_relations(cat: &mut Catalog) {
    declare_imdb_relations(cat);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_shape_matches_paper() {
        let cat = imdb_catalog(&ImdbConfig::tiny());
        assert_eq!(cat.num_tables(), 21, "21 tables as in Table 2");
        assert_eq!(
            cat.equivalent_key_groups().len(),
            11,
            "11 key groups as in Table 2"
        );
        // 35 join keys (paper reports 36; title.id serving many FKs counts once here).
        assert_eq!(cat.join_keys().len(), 35);
    }

    #[test]
    fn movie_group_contains_linked_movie_id() {
        let cat = imdb_catalog(&ImdbConfig::tiny());
        let groups = cat.equivalent_key_groups();
        let movie_group = groups
            .iter()
            .find(|g| {
                g.keys
                    .iter()
                    .any(|k| k.table == "title" && k.column == "id")
            })
            .expect("movie group exists");
        assert!(movie_group
            .keys
            .iter()
            .any(|k| k.table == "movie_link" && k.column == "linked_movie_id"));
        assert_eq!(movie_group.keys.len(), 10);
    }

    #[test]
    fn determinism() {
        let a = imdb_catalog(&ImdbConfig::tiny());
        let b = imdb_catalog(&ImdbConfig::tiny());
        for t in a.tables() {
            let u = b.table(t.name()).unwrap();
            assert_eq!(t.nrows(), u.nrows());
            if t.nrows() > 0 {
                assert_eq!(
                    t.row(t.nrows() / 2),
                    u.row(u.nrows() / 2),
                    "table {}",
                    t.name()
                );
            }
        }
    }

    #[test]
    fn like_selectivities_vary() {
        let cat = imdb_catalog(&ImdbConfig::tiny());
        let title = cat.table("title").unwrap();
        let col = title.column_by_name("title").unwrap();
        let count = |pat: &str| {
            let pat = fj_query::LikePattern::new(pat);
            (0..title.nrows())
                .filter(|&i| {
                    !col.is_null(i) && pat.matches(col.dict().get(col.codes()[i] as usize))
                })
                .count()
        };
        let common = count("%the%");
        let rare = count("%zephyr%");
        assert!(common > 10 * rare.max(1), "common {common} vs rare {rare}");
        assert!(rare < title.nrows() / 10);
    }

    #[test]
    fn dimension_tables_are_small_and_fixed() {
        let small = imdb_catalog(&ImdbConfig::tiny());
        let big = imdb_catalog(&ImdbConfig {
            scale: 0.5,
            ..Default::default()
        });
        for dim in ["kind_type", "info_type", "role_type", "link_type"] {
            assert_eq!(
                small.table(dim).unwrap().nrows(),
                big.table(dim).unwrap().nrows(),
                "dimension {dim} must not scale"
            );
        }
        assert!(
            big.table("cast_info").unwrap().nrows() > small.table("cast_info").unwrap().nrows()
        );
    }

    #[test]
    fn fk_values_within_domains() {
        let cat = imdb_catalog(&ImdbConfig::tiny());
        let n_title = cat.table("title").unwrap().nrows() as i64;
        let ml = cat.table("movie_link").unwrap();
        for colname in ["movie_id", "linked_movie_id"] {
            let col = ml.column_by_name(colname).unwrap();
            for i in 0..ml.nrows() {
                let v = col.key_at(i).unwrap();
                assert!(
                    (1..=n_title).contains(&v),
                    "{colname} value {v} out of range"
                );
            }
        }
    }

    #[test]
    fn nullable_person_role() {
        let cat = imdb_catalog(&ImdbConfig::tiny());
        let ci = cat.table("cast_info").unwrap();
        let pr = ci.column_by_name("person_role_id").unwrap();
        let frac = pr.nulls().null_count() as f64 / ci.nrows() as f64;
        assert!(
            frac > 0.25 && frac < 0.55,
            "person_role_id null fraction {frac:.2}"
        );
    }
}
