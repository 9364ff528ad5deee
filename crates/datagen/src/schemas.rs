//! Canonical table schemas and join relations for both benchmarks.
//!
//! The synthetic generators ([`crate::stats_catalog`], [`crate::imdb_catalog`])
//! and the real-dump loader ([`crate::loader`]) both build their catalogs from
//! the definitions in this module, so a database loaded from disk is
//! guaranteed to land in **exactly** the same in-memory structs — same column
//! order, same types, same join-key flags, same relations — as a generated
//! one. Anything trained on one can be validated against the other.

use fj_storage::{Catalog, ColumnDef, DataType, TableSchema};

/// One benchmark's schema: named tables plus a relation declarator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// STATS-CEB: 8 tables, 13 join keys, 2 equivalent key groups.
    Stats,
    /// IMDB-JOB: 21 tables, 11 equivalent key groups.
    Imdb,
}

impl DatasetKind {
    /// All table schemas of this benchmark, in catalog (name) order.
    pub fn table_schemas(self) -> Vec<(&'static str, TableSchema)> {
        match self {
            DatasetKind::Stats => stats_table_schemas(),
            DatasetKind::Imdb => imdb_table_schemas(),
        }
    }

    /// The schema of one table, if it belongs to this benchmark.
    pub fn table_schema(self, name: &str) -> Option<TableSchema> {
        self.table_schemas()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }

    /// Declares this benchmark's join relations on `cat` (all tables must
    /// already be registered).
    pub fn declare_relations(self, cat: &mut Catalog) {
        match self {
            DatasetKind::Stats => declare_stats_relations(cat),
            DatasetKind::Imdb => declare_imdb_relations(cat),
        }
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Stats => "STATS-CEB",
            DatasetKind::Imdb => "IMDB-JOB",
        }
    }
}

fn col(name: &str, dtype: DataType) -> ColumnDef {
    ColumnDef::new(name, dtype)
}

fn key(name: &str) -> ColumnDef {
    ColumnDef::key(name)
}

/// The 8 STATS table schemas (paper Table 2: 13 join keys, 2 key groups).
pub fn stats_table_schemas() -> Vec<(&'static str, TableSchema)> {
    use DataType::Int;
    vec![
        (
            "users",
            TableSchema::new(vec![
                key("id"),
                col("reputation", Int),
                col("creation_date", Int),
                col("views", Int),
                col("upvotes", Int),
                col("downvotes", Int),
            ]),
        ),
        (
            "posts",
            TableSchema::new(vec![
                key("id"),
                key("owner_user_id"),
                col("creation_date", Int),
                col("score", Int),
                col("view_count", Int),
                col("answer_count", Int),
                col("comment_count", Int),
                col("favorite_count", Int),
                col("post_type", Int),
            ]),
        ),
        (
            "comments",
            TableSchema::new(vec![
                col("id", Int),
                key("post_id"),
                key("user_id"),
                col("score", Int),
                col("creation_date", Int),
            ]),
        ),
        (
            "badges",
            TableSchema::new(vec![
                col("id", Int),
                key("user_id"),
                col("date", Int),
                col("class", Int),
            ]),
        ),
        (
            "votes",
            TableSchema::new(vec![
                col("id", Int),
                key("post_id"),
                key("user_id"),
                col("vote_type", Int),
                col("creation_date", Int),
            ]),
        ),
        (
            "postHistory",
            TableSchema::new(vec![
                col("id", Int),
                key("post_id"),
                key("user_id"),
                col("post_history_type", Int),
                col("creation_date", Int),
            ]),
        ),
        (
            "postLinks",
            TableSchema::new(vec![
                col("id", Int),
                key("post_id"),
                key("related_post_id"),
                col("link_type", Int),
                col("creation_date", Int),
            ]),
        ),
        (
            "tags",
            TableSchema::new(vec![
                col("id", Int),
                key("excerpt_post_id"),
                col("count", Int),
            ]),
        ),
    ]
}

/// Declares the 11 STATS FK→PK join relations (⇒ 13 join keys, 2 groups).
pub fn declare_stats_relations(cat: &mut Catalog) {
    let user_fks = [
        ("posts", "owner_user_id"),
        ("comments", "user_id"),
        ("badges", "user_id"),
        ("votes", "user_id"),
        ("postHistory", "user_id"),
    ];
    for (t, c) in user_fks {
        cat.relate("users", "id", t, c)
            .expect("schema declares join keys");
    }
    let post_fks = [
        ("comments", "post_id"),
        ("votes", "post_id"),
        ("postHistory", "post_id"),
        ("postLinks", "post_id"),
        ("postLinks", "related_post_id"),
        ("tags", "excerpt_post_id"),
    ];
    for (t, c) in post_fks {
        cat.relate("posts", "id", t, c)
            .expect("schema declares join keys");
    }
}

/// The 21 IMDB-JOB table schemas (paper Table 2: 11 equivalent key groups).
pub fn imdb_table_schemas() -> Vec<(&'static str, TableSchema)> {
    use DataType::{Int, Str};
    let dim = |text_col: &str| TableSchema::new(vec![key("id"), col(text_col, Str)]);
    let info_fact = |key_col: &str| {
        TableSchema::new(vec![
            col("id", Int),
            key(key_col),
            key("info_type_id"),
            col("info", Str),
        ])
    };
    vec![
        ("kind_type", dim("kind")),
        ("company_type", dim("kind")),
        ("info_type", dim("info")),
        ("role_type", dim("role")),
        ("link_type", dim("link")),
        ("comp_cast_type", dim("kind")),
        (
            "title",
            TableSchema::new(vec![
                key("id"),
                key("kind_id"),
                col("title", Str),
                col("production_year", Int),
                col("episode_nr", Int),
            ]),
        ),
        (
            "name",
            TableSchema::new(vec![key("id"), col("name", Str), col("gender", Str)]),
        ),
        (
            "char_name",
            TableSchema::new(vec![key("id"), col("name", Str)]),
        ),
        (
            "company_name",
            TableSchema::new(vec![key("id"), col("name", Str), col("country_code", Str)]),
        ),
        (
            "keyword",
            TableSchema::new(vec![key("id"), col("keyword", Str)]),
        ),
        (
            "movie_companies",
            TableSchema::new(vec![
                col("id", Int),
                key("movie_id"),
                key("company_id"),
                key("company_type_id"),
            ]),
        ),
        (
            "cast_info",
            TableSchema::new(vec![
                col("id", Int),
                key("movie_id"),
                key("person_id"),
                key("person_role_id"),
                key("role_id"),
                col("nr_order", Int),
            ]),
        ),
        ("movie_info", info_fact("movie_id")),
        ("movie_info_idx", info_fact("movie_id")),
        ("person_info", info_fact("person_id")),
        (
            "movie_keyword",
            TableSchema::new(vec![col("id", Int), key("movie_id"), key("keyword_id")]),
        ),
        (
            "aka_name",
            TableSchema::new(vec![col("id", Int), key("person_id"), col("name", Str)]),
        ),
        (
            "aka_title",
            TableSchema::new(vec![col("id", Int), key("movie_id"), col("title", Str)]),
        ),
        (
            "complete_cast",
            TableSchema::new(vec![
                col("id", Int),
                key("movie_id"),
                key("subject_id"),
                key("status_id"),
            ]),
        ),
        (
            "movie_link",
            TableSchema::new(vec![
                col("id", Int),
                key("movie_id"),
                key("linked_movie_id"),
                key("link_type_id"),
            ]),
        ),
    ]
}

/// Declares the JOB join relations (⇒ 11 equivalent key groups).
pub fn declare_imdb_relations(cat: &mut Catalog) {
    let movie_fks = [
        ("movie_companies", "movie_id"),
        ("cast_info", "movie_id"),
        ("movie_info", "movie_id"),
        ("movie_info_idx", "movie_id"),
        ("movie_keyword", "movie_id"),
        ("aka_title", "movie_id"),
        ("complete_cast", "movie_id"),
        ("movie_link", "movie_id"),
        ("movie_link", "linked_movie_id"),
    ];
    for (t, c) in movie_fks {
        cat.relate("title", "id", t, c)
            .expect("schema declares join keys");
    }
    let person_fks = [
        ("cast_info", "person_id"),
        ("aka_name", "person_id"),
        ("person_info", "person_id"),
    ];
    for (t, c) in person_fks {
        cat.relate("name", "id", t, c)
            .expect("schema declares join keys");
    }
    let info_type_fks = [
        ("movie_info", "info_type_id"),
        ("movie_info_idx", "info_type_id"),
        ("person_info", "info_type_id"),
    ];
    for (t, c) in info_type_fks {
        cat.relate("info_type", "id", t, c)
            .expect("schema declares join keys");
    }
    cat.relate("kind_type", "id", "title", "kind_id")
        .expect("schema declares join keys");
    cat.relate("company_name", "id", "movie_companies", "company_id")
        .expect("schema declares join keys");
    cat.relate("company_type", "id", "movie_companies", "company_type_id")
        .expect("schema declares join keys");
    cat.relate("keyword", "id", "movie_keyword", "keyword_id")
        .expect("schema declares join keys");
    cat.relate("role_type", "id", "cast_info", "role_id")
        .expect("schema declares join keys");
    cat.relate("char_name", "id", "cast_info", "person_role_id")
        .expect("schema declares join keys");
    cat.relate("comp_cast_type", "id", "complete_cast", "subject_id")
        .expect("schema declares join keys");
    cat.relate("comp_cast_type", "id", "complete_cast", "status_id")
        .expect("schema declares join keys");
    cat.relate("link_type", "id", "movie_link", "link_type_id")
        .expect("schema declares join keys");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_has_eight_tables_and_thirteen_keys() {
        let schemas = stats_table_schemas();
        assert_eq!(schemas.len(), 8);
        let keys: usize = schemas
            .iter()
            .map(|(_, s)| s.columns().iter().filter(|c| c.join_key).count())
            .sum();
        assert_eq!(keys, 13, "13 join keys as in paper Table 2");
    }

    #[test]
    fn imdb_has_twentyone_tables() {
        let schemas = imdb_table_schemas();
        assert_eq!(schemas.len(), 21);
        // No duplicate table names.
        let mut names: Vec<&str> = schemas.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 21);
    }

    #[test]
    fn table_schema_lookup() {
        assert!(DatasetKind::Stats.table_schema("users").is_some());
        assert!(DatasetKind::Stats.table_schema("title").is_none());
        assert!(DatasetKind::Imdb.table_schema("title").is_some());
        assert_eq!(DatasetKind::Stats.name(), "STATS-CEB");
        assert_eq!(DatasetKind::Imdb.name(), "IMDB-JOB");
    }
}
