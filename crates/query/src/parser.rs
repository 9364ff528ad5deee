//! A SQL-subset parser producing bound [`Query`] values.
//!
//! Supported grammar (enough for the STATS-CEB / IMDB-JOB style workloads):
//!
//! ```sql
//! SELECT COUNT(*) FROM t1 [AS] a1, t2 [AS] a2, ...
//! WHERE a1.k = a2.fk            -- equi-join conditions
//!   AND a1.x > 5                -- comparisons  = <> < <= > >=
//!   AND a1.y BETWEEN 1 AND 9
//!   AND a1.z IN (1, 2, 3)
//!   AND a2.s LIKE '%pattern%'   -- also NOT LIKE
//!   AND a2.t IS NOT NULL
//!   AND (a1.u = 1 OR a1.u = 2)  -- disjunctions within one alias
//! ;
//! ```
//!
//! The WHERE clause is parsed as a boolean expression with the usual
//! precedence (`OR` < `AND` < `NOT` < atom), then the top-level conjuncts
//! are classified: column=column atoms across two aliases become join
//! predicates; everything else must reference exactly one alias and becomes
//! part of that alias's filter.

use crate::expr::{FilterExpr, MAX_FILTER_DEPTH};
use crate::predicate::{CmpOp, Predicate};
use crate::query::{Query, QueryError, TableRef};
use fj_storage::{Catalog, Value};
use std::fmt;

/// Parse / bind errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Lexical error at byte offset.
    Lex(usize, String),
    /// Unexpected token.
    Unexpected { got: String, expected: String },
    /// A WHERE conjunct mixes columns of different aliases (other than a
    /// plain equi-join atom).
    MixedAliasFilter(String),
    /// Column reference without an alias qualifier.
    UnqualifiedColumn(String),
    /// Query binding failed.
    Bind(QueryError),
    /// The WHERE clause nests AND/OR/NOT deeper than the cap.
    TooDeep {
        /// The cap, [`MAX_FILTER_DEPTH`].
        max: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(pos, msg) => write!(f, "lex error at {pos}: {msg}"),
            ParseError::Unexpected { got, expected } => {
                write!(f, "unexpected token {got:?}, expected {expected}")
            }
            ParseError::MixedAliasFilter(s) => {
                write!(f, "filter clause spans multiple aliases: {s}")
            }
            ParseError::UnqualifiedColumn(c) => write!(f, "unqualified column reference: {c}"),
            ParseError::Bind(e) => write!(f, "bind error: {e}"),
            ParseError::TooDeep { max } => {
                write!(
                    f,
                    "WHERE clause nests AND/OR/NOT more than {max} levels deep"
                )
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<QueryError> for ParseError {
    fn from(e: QueryError) -> Self {
        ParseError::Bind(e)
    }
}

// ---------------------------------------------------------------- tokenizer

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Sym(&'static str), // , ( ) ; . * = <> < <= > >=
    Eof,
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => s.clone(),
            Tok::Int(v) => v.to_string(),
            Tok::Float(v) => v.to_string(),
            Tok::Str(s) => format!("'{s}'"),
            Tok::Sym(s) => (*s).to_string(),
            Tok::Eof => "<eof>".to_string(),
        }
    }
}

fn lex(sql: &str) -> Result<Vec<Tok>, ParseError> {
    let b: Vec<char> = sql.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            out.push(Tok::Ident(b[start..i].iter().collect()));
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == '.') {
                if b[i] == '.' {
                    // Disambiguate "1.5" from "a.b" — a digit must follow.
                    if i + 1 < b.len() && b[i + 1].is_ascii_digit() {
                        is_float = true;
                    } else {
                        break;
                    }
                }
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            if is_float {
                out.push(Tok::Float(text.parse().map_err(|_| {
                    ParseError::Lex(start, format!("bad float literal {text}"))
                })?));
            } else {
                out.push(Tok::Int(text.parse().map_err(|_| {
                    ParseError::Lex(start, format!("bad int literal {text}"))
                })?));
            }
            continue;
        }
        if c == '\'' {
            let start = i;
            i += 1;
            let mut s = String::new();
            loop {
                if i >= b.len() {
                    return Err(ParseError::Lex(start, "unterminated string".into()));
                }
                if b[i] == '\'' {
                    if i + 1 < b.len() && b[i + 1] == '\'' {
                        s.push('\'');
                        i += 2;
                        continue;
                    }
                    i += 1;
                    break;
                }
                s.push(b[i]);
                i += 1;
            }
            out.push(Tok::Str(s));
            continue;
        }
        let two = if i + 1 < b.len() {
            Some((b[i], b[i + 1]))
        } else {
            None
        };
        let sym: &'static str = match (c, two) {
            ('<', Some(('<', '>'))) => {
                i += 2;
                "<>"
            }
            ('<', Some(('<', '='))) => {
                i += 2;
                "<="
            }
            ('>', Some(('>', '='))) => {
                i += 2;
                ">="
            }
            ('!', Some(('!', '='))) => {
                i += 2;
                "<>"
            }
            ('=', _) => {
                i += 1;
                "="
            }
            ('<', _) => {
                i += 1;
                "<"
            }
            ('>', _) => {
                i += 1;
                ">"
            }
            (',', _) => {
                i += 1;
                ","
            }
            ('(', _) => {
                i += 1;
                "("
            }
            (')', _) => {
                i += 1;
                ")"
            }
            (';', _) => {
                i += 1;
                ";"
            }
            ('.', _) => {
                i += 1;
                "."
            }
            ('*', _) => {
                i += 1;
                "*"
            }
            ('-', _) => {
                i += 1;
                "-"
            }
            _ => return Err(ParseError::Lex(i, format!("unexpected character {c:?}"))),
        };
        out.push(Tok::Sym(sym));
    }
    out.push(Tok::Eof);
    Ok(out)
}

// ------------------------------------------------------------------ parser

/// Unbound boolean AST used during parsing (columns carry alias names).
#[derive(Debug, Clone)]
enum Ast {
    JoinAtom {
        la: String,
        lc: String,
        ra: String,
        rc: String,
    },
    Filter {
        alias: String,
        expr: FilterExpr,
    },
    And(Vec<Ast>),
    Or(Vec<Ast>),
    Not(Box<Ast>),
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Grammar levels entered: one an `expr`, an `and_expr` and a `NOT`.
    /// Every AND, OR and NOT node of the filter a clause lowers to comes
    /// from a level of its own, so capping the levels caps the filter's
    /// depth — and the parser's recursion — at [`MAX_FILTER_DEPTH`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos]
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), ParseError> {
        match self.next() {
            Tok::Sym(t) if t == s => Ok(()),
            other => Err(ParseError::Unexpected {
                got: other.describe(),
                expected: s.into(),
            }),
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Tok::Ident(t) if t.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(ParseError::Unexpected {
                got: other.describe(),
                expected: kw.into(),
            }),
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(t) if t.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Tok::Ident(s) => Ok(s),
            other => Err(ParseError::Unexpected {
                got: other.describe(),
                expected: "identifier".into(),
            }),
        }
    }

    /// `alias.column`
    fn colref(&mut self) -> Result<(String, String), ParseError> {
        let first = self.ident()?;
        if matches!(self.peek(), Tok::Sym(".")) {
            self.next();
            let col = self.ident()?;
            Ok((first, col))
        } else {
            Err(ParseError::UnqualifiedColumn(first))
        }
    }

    fn literal(&mut self) -> Result<Value, ParseError> {
        match self.next() {
            Tok::Int(v) => Ok(Value::Int(v)),
            Tok::Float(v) => Ok(Value::Float(v)),
            Tok::Str(s) => Ok(Value::Str(s)),
            Tok::Sym("-") => match self.next() {
                Tok::Int(v) => Ok(Value::Int(-v)),
                Tok::Float(v) => Ok(Value::Float(-v)),
                other => Err(ParseError::Unexpected {
                    got: other.describe(),
                    expected: "numeric literal".into(),
                }),
            },
            Tok::Ident(s) if s.eq_ignore_ascii_case("null") => Ok(Value::Null),
            other => Err(ParseError::Unexpected {
                got: other.describe(),
                expected: "literal".into(),
            }),
        }
    }

    /// Enters one grammar level, refusing to go past the cap. The caller
    /// leaves it (`depth -= 1`) once its node is built; an error ends the
    /// whole parse, so an early return need not.
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_FILTER_DEPTH {
            return Err(ParseError::TooDeep {
                max: MAX_FILTER_DEPTH,
            });
        }
        self.depth += 1;
        Ok(())
    }

    // expr := and_expr (OR and_expr)*
    fn expr(&mut self) -> Result<Ast, ParseError> {
        self.descend()?;
        let mut parts = vec![self.and_expr()?];
        while self.peek_kw("or") {
            self.next();
            parts.push(self.and_expr()?);
        }
        self.depth -= 1;
        Ok(if parts.len() == 1 {
            parts.pop().expect("nonempty")
        } else {
            Ast::Or(parts)
        })
    }

    // and_expr := not_expr (AND not_expr)*
    fn and_expr(&mut self) -> Result<Ast, ParseError> {
        self.descend()?;
        let mut parts = vec![self.not_expr()?];
        loop {
            // BETWEEN consumes its own AND, so only continue when the next
            // token truly starts a new conjunct.
            if self.peek_kw("and") {
                self.next();
                parts.push(self.not_expr()?);
            } else {
                break;
            }
        }
        self.depth -= 1;
        Ok(if parts.len() == 1 {
            parts.pop().expect("nonempty")
        } else {
            Ast::And(parts)
        })
    }

    fn not_expr(&mut self) -> Result<Ast, ParseError> {
        if self.peek_kw("not") {
            self.next();
            self.descend()?;
            let inner = self.not_expr()?;
            self.depth -= 1;
            Ok(Ast::Not(Box::new(inner)))
        } else {
            self.atom()
        }
    }

    fn atom(&mut self) -> Result<Ast, ParseError> {
        if matches!(self.peek(), Tok::Sym("(")) {
            self.next();
            let inner = self.expr()?;
            self.expect_sym(")")?;
            return Ok(inner);
        }
        let (alias, col) = self.colref()?;
        // Operator or keyword clause.
        match self.peek().clone() {
            Tok::Sym(op @ ("=" | "<>" | "<" | "<=" | ">" | ">=")) => {
                self.next();
                // Either a column ref (join) or a literal (filter).
                if let Tok::Ident(_) = self.peek() {
                    // Lookahead for `ident.ident` meaning a column; `NULL`
                    // and other keywords fall through to literal.
                    let save = self.pos;
                    if let Ok((ra, rc)) = self.colref() {
                        if op == "=" {
                            return Ok(Ast::JoinAtom {
                                la: alias,
                                lc: col,
                                ra,
                                rc,
                            });
                        }
                        // Non-equi column comparison unsupported.
                        return Err(ParseError::Unexpected {
                            got: format!("{ra}.{rc}"),
                            expected: "literal (non-equi column comparisons unsupported)".into(),
                        });
                    }
                    self.pos = save;
                }
                let v = self.literal()?;
                let cmp = match op {
                    "=" => CmpOp::Eq,
                    "<>" => CmpOp::Neq,
                    "<" => CmpOp::Lt,
                    "<=" => CmpOp::Le,
                    ">" => CmpOp::Gt,
                    ">=" => CmpOp::Ge,
                    _ => unreachable!("matched above"),
                };
                Ok(Ast::Filter {
                    alias,
                    expr: FilterExpr::pred(Predicate::Cmp {
                        column: col,
                        op: cmp,
                        value: v,
                    }),
                })
            }
            Tok::Ident(kw) if kw.eq_ignore_ascii_case("between") => {
                self.next();
                let lo = self.literal()?;
                self.expect_kw("and")?;
                let hi = self.literal()?;
                Ok(Ast::Filter {
                    alias,
                    expr: FilterExpr::pred(Predicate::Between {
                        column: col,
                        lo,
                        hi,
                    }),
                })
            }
            Tok::Ident(kw) if kw.eq_ignore_ascii_case("in") => {
                self.next();
                self.expect_sym("(")?;
                let mut values = vec![self.literal()?];
                while matches!(self.peek(), Tok::Sym(",")) {
                    self.next();
                    values.push(self.literal()?);
                }
                self.expect_sym(")")?;
                Ok(Ast::Filter {
                    alias,
                    expr: FilterExpr::pred(Predicate::InList {
                        column: col,
                        values,
                    }),
                })
            }
            Tok::Ident(kw) if kw.eq_ignore_ascii_case("like") => {
                self.next();
                let pat = match self.next() {
                    Tok::Str(s) => s,
                    other => {
                        return Err(ParseError::Unexpected {
                            got: other.describe(),
                            expected: "string pattern".into(),
                        })
                    }
                };
                Ok(Ast::Filter {
                    alias,
                    expr: FilterExpr::pred(Predicate::Like {
                        column: col,
                        pattern: pat,
                        negated: false,
                    }),
                })
            }
            Tok::Ident(kw) if kw.eq_ignore_ascii_case("not") => {
                self.next();
                self.expect_kw("like")?;
                let pat = match self.next() {
                    Tok::Str(s) => s,
                    other => {
                        return Err(ParseError::Unexpected {
                            got: other.describe(),
                            expected: "string pattern".into(),
                        })
                    }
                };
                Ok(Ast::Filter {
                    alias,
                    expr: FilterExpr::pred(Predicate::Like {
                        column: col,
                        pattern: pat,
                        negated: true,
                    }),
                })
            }
            Tok::Ident(kw) if kw.eq_ignore_ascii_case("is") => {
                self.next();
                let negated = if self.peek_kw("not") {
                    self.next();
                    true
                } else {
                    false
                };
                self.expect_kw("null")?;
                Ok(Ast::Filter {
                    alias,
                    expr: FilterExpr::pred(Predicate::IsNull {
                        column: col,
                        negated,
                    }),
                })
            }
            other => Err(ParseError::Unexpected {
                got: other.describe(),
                expected: "comparison operator or BETWEEN/IN/LIKE/IS".into(),
            }),
        }
    }
}

// ------------------------------------------------------------- AST lowering

/// Classifies a parsed boolean expression into joins + per-alias filters.
fn lower(
    ast: Ast,
    joins: &mut Vec<((String, String), (String, String))>,
    filters: &mut std::collections::BTreeMap<String, Vec<FilterExpr>>,
) -> Result<(), ParseError> {
    match ast {
        Ast::And(parts) => {
            for p in parts {
                lower(p, joins, filters)?;
            }
            Ok(())
        }
        Ast::JoinAtom { la, lc, ra, rc } => {
            joins.push(((la, lc), (ra, rc)));
            Ok(())
        }
        Ast::Filter { alias, expr } => {
            filters.entry(alias).or_default().push(expr);
            Ok(())
        }
        Ast::Or(_) | Ast::Not(_) => {
            // OR/NOT trees must be confined to a single alias.
            let (alias, expr) = lower_single_alias(&ast)?;
            filters.entry(alias).or_default().push(expr);
            Ok(())
        }
    }
}

fn lower_single_alias(ast: &Ast) -> Result<(String, FilterExpr), ParseError> {
    match ast {
        Ast::Filter { alias, expr } => Ok((alias.clone(), expr.clone())),
        Ast::JoinAtom { la, lc, ra, rc } => Err(ParseError::MixedAliasFilter(format!(
            "{la}.{lc} = {ra}.{rc} inside OR/NOT"
        ))),
        Ast::And(parts) | Ast::Or(parts) => {
            let mut alias: Option<String> = None;
            let mut exprs = Vec::with_capacity(parts.len());
            for p in parts {
                let (a, e) = lower_single_alias(p)?;
                match &alias {
                    None => alias = Some(a),
                    Some(existing) if *existing == a => {}
                    Some(existing) => {
                        return Err(ParseError::MixedAliasFilter(format!(
                            "aliases {existing} and {a} in one clause"
                        )))
                    }
                }
                exprs.push(e);
            }
            let alias = alias.ok_or_else(|| ParseError::MixedAliasFilter("empty clause".into()))?;
            let combined = if matches!(ast, Ast::And(_)) {
                FilterExpr::and(exprs)
            } else {
                FilterExpr::or(exprs)
            };
            Ok((alias, combined))
        }
        Ast::Not(inner) => {
            let (a, e) = lower_single_alias(inner)?;
            Ok((a, FilterExpr::Not(Box::new(e))))
        }
    }
}

/// Parses a `SELECT COUNT(*) …` statement and binds it against `catalog`.
pub fn parse_query(catalog: &Catalog, sql: &str) -> Result<Query, ParseError> {
    let toks = lex(sql)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    p.expect_kw("select")?;
    p.expect_kw("count")?;
    p.expect_sym("(")?;
    p.expect_sym("*")?;
    p.expect_sym(")")?;
    p.expect_kw("from")?;

    let mut tables = Vec::new();
    loop {
        let table = p.ident()?;
        let alias = if p.peek_kw("as") {
            p.next();
            p.ident()?
        } else if let Tok::Ident(s) = p.peek() {
            // `FROM t a` (implicit AS) — but not a keyword like WHERE.
            if !s.eq_ignore_ascii_case("where") {
                p.ident()?
            } else {
                table.clone()
            }
        } else {
            table.clone()
        };
        tables.push(TableRef::new(&alias, &table));
        if matches!(p.peek(), Tok::Sym(",")) {
            p.next();
        } else {
            break;
        }
    }

    let mut joins = Vec::new();
    let mut filter_map: std::collections::BTreeMap<String, Vec<FilterExpr>> = Default::default();
    if p.peek_kw("where") {
        p.next();
        let ast = p.expr()?;
        lower(ast, &mut joins, &mut filter_map)?;
    }
    if matches!(p.peek(), Tok::Sym(";")) {
        p.next();
    }
    if !matches!(p.peek(), Tok::Eof) {
        return Err(ParseError::Unexpected {
            got: p.peek().describe(),
            expected: "end of statement".into(),
        });
    }

    // Unknown aliases in filters surface as bind errors.
    for alias in filter_map.keys() {
        if !tables.iter().any(|t| &t.alias == alias) {
            return Err(ParseError::Bind(QueryError::UnknownAlias(alias.clone())));
        }
    }
    let filters: Vec<FilterExpr> = tables
        .iter()
        .map(|t| FilterExpr::and(filter_map.get(&t.alias).cloned().unwrap_or_default()))
        .collect();
    Ok(Query::new(catalog, tables, &joins, filters)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_storage::{ColumnDef, DataType, Table, TableSchema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for (name, keys, attrs) in [
            ("users", vec!["id"], vec![("reputation", DataType::Int)]),
            (
                "posts",
                vec!["id", "owner_id"],
                vec![("score", DataType::Int), ("title", DataType::Str)],
            ),
            (
                "comments",
                vec!["post_id", "user_id"],
                vec![("score", DataType::Int)],
            ),
        ] {
            let mut cols: Vec<ColumnDef> = keys.iter().map(|k| ColumnDef::key(k)).collect();
            cols.extend(attrs.iter().map(|(n, t)| ColumnDef::new(n, *t)));
            let schema = TableSchema::new(cols);
            let row: Vec<Value> = schema
                .columns()
                .iter()
                .map(|c| match c.dtype {
                    DataType::Int => Value::Int(0),
                    DataType::Float => Value::Float(0.0),
                    DataType::Str => Value::Str("x".into()),
                })
                .collect();
            cat.add_table(Table::from_rows(name, schema, &[row]).unwrap())
                .unwrap();
        }
        cat
    }

    #[test]
    fn parses_two_table_join_with_filters() {
        let cat = catalog();
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM users AS u, posts AS p \
             WHERE u.id = p.owner_id AND u.reputation > 100 AND p.score >= 5;",
        )
        .unwrap();
        assert_eq!(q.num_tables(), 2);
        assert_eq!(q.joins().len(), 1);
        assert_eq!(q.filter(0).num_predicates(), 1);
        assert_eq!(q.filter(1).num_predicates(), 1);
    }

    #[test]
    fn parses_disjunction_in_like_between() {
        let cat = catalog();
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id \
             AND (p.score = 1 OR p.score = 2) AND p.title LIKE '%rust%' \
             AND c.score BETWEEN 0 AND 10 AND c.user_id IS NOT NULL \
             AND p.score IN (1, 2, 3);",
        )
        .unwrap();
        assert_eq!(q.joins().len(), 1);
        // posts filter: OR + LIKE + IN = 2+1+3... predicates count atoms.
        assert!(q.filter(0).num_predicates() >= 4);
        // The OR survives as its own node under the top-level AND.
        assert!(matches!(q.filter(0), FilterExpr::And(parts)
            if parts.iter().any(|p| matches!(p, FilterExpr::Or(_)))));
    }

    #[test]
    fn implicit_alias_and_no_as() {
        let cat = catalog();
        let q = parse_query(
            &cat,
            "select count(*) from users u, posts where u.id = posts.owner_id",
        )
        .unwrap();
        assert_eq!(q.tables()[0].alias, "u");
        assert_eq!(q.tables()[1].alias, "posts");
    }

    #[test]
    fn self_join_two_aliases() {
        let cat = catalog();
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p1, posts p2 WHERE p1.id = p2.owner_id;",
        )
        .unwrap();
        assert_eq!(q.num_tables(), 2);
        assert_eq!(q.tables()[0].table, "posts");
        assert_eq!(q.tables()[1].table, "posts");
    }

    #[test]
    fn negative_literals_and_not_like() {
        let cat = catalog();
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id \
             AND p.score > -10 AND p.title NOT LIKE '%spam%';",
        )
        .unwrap();
        let preds = q.filter(0).predicates();
        assert!(preds.iter().any(|p| matches!(
            p,
            Predicate::Cmp {
                value: Value::Int(-10),
                ..
            }
        )));
        assert!(preds
            .iter()
            .any(|p| matches!(p, Predicate::Like { negated: true, .. })));
    }

    #[test]
    fn mixed_alias_or_rejected() {
        let cat = catalog();
        let err = parse_query(
            &cat,
            "SELECT COUNT(*) FROM users u, posts p WHERE u.id = p.owner_id \
             AND (u.reputation > 1 OR p.score > 1);",
        )
        .unwrap_err();
        assert!(matches!(err, ParseError::MixedAliasFilter(_)));
    }

    #[test]
    fn bind_errors_surface() {
        let cat = catalog();
        assert!(matches!(
            parse_query(&cat, "SELECT COUNT(*) FROM nosuch n;"),
            Err(ParseError::Bind(QueryError::UnknownTable(_)))
        ));
        assert!(matches!(
            parse_query(
                &cat,
                "SELECT COUNT(*) FROM users u, posts p WHERE u.id = p.owner_id AND u.nope = 3;"
            ),
            Err(ParseError::Bind(QueryError::UnknownColumn { .. }))
        ));
        // Cross product (no join) is rejected.
        assert!(matches!(
            parse_query(&cat, "SELECT COUNT(*) FROM users u, posts p;"),
            Err(ParseError::Bind(QueryError::Disconnected))
        ));
    }

    #[test]
    fn string_escapes() {
        let cat = catalog();
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id AND p.title = 'it''s';",
        )
        .unwrap();
        let preds = q.filter(0).predicates();
        assert!(matches!(&preds[0], Predicate::Cmp { value: Value::Str(s), .. } if s == "it's"));
    }

    #[test]
    fn roundtrip_parse_to_sql_parse() {
        let cat = catalog();
        let sql = "SELECT COUNT(*) FROM users AS u, posts AS p \
                   WHERE u.id = p.owner_id AND u.reputation > 100;";
        let q1 = parse_query(&cat, sql).unwrap();
        let q2 = parse_query(&cat, &q1.to_sql(&cat)).unwrap();
        assert_eq!(q1, q2);
    }

    /// Nesting past [`MAX_FILTER_DEPTH`] is a typed error, not a stack
    /// overflow: 10 000 parentheses or `NOT`s used to abort the process.
    /// Up to the cap a clause parses, and its filter is no deeper than the
    /// wire decoder accepts.
    #[test]
    fn nesting_past_the_cap_is_a_typed_error() {
        let cat = catalog();
        let sql = |open: &str, close: &str, n: usize| {
            format!(
                "SELECT COUNT(*) FROM posts p WHERE {}p.score > 1{};",
                open.repeat(n),
                close.repeat(n)
            )
        };
        let too_deep = Err(ParseError::TooDeep {
            max: MAX_FILTER_DEPTH,
        });
        for (open, close) in [("(", ")"), ("NOT ", ""), ("NOT (", ")")] {
            assert_eq!(parse_query(&cat, &sql(open, close, 10_000)), too_deep);
        }
        fn depth(f: &FilterExpr) -> usize {
            match f {
                FilterExpr::True | FilterExpr::Pred(_) => 0,
                FilterExpr::Not(inner) => 1 + depth(inner),
                FilterExpr::And(parts) | FilterExpr::Or(parts) => {
                    1 + parts.iter().map(depth).max().unwrap_or(0)
                }
            }
        }
        // A clause is an OR of ANDs: two levels before the first NOT.
        let nots = MAX_FILTER_DEPTH - 2;
        let q = parse_query(&cat, &sql("NOT ", "", nots)).unwrap();
        assert_eq!(depth(q.filter(0)), nots);
        assert_eq!(parse_query(&cat, &sql("NOT ", "", nots + 1)), too_deep);
        // Each parenthesis here opens an OR of an AND: two levels a pair.
        let alternating =
            |n: usize| sql("p.score = 1 OR p.score = 2 AND (", ")", n).replace("> 1", "= 3");
        let deepest = (0..)
            .take_while(|&n| parse_query(&cat, &alternating(n)).is_ok())
            .last()
            .unwrap();
        let q = parse_query(&cat, &alternating(deepest)).unwrap();
        assert_eq!(depth(q.filter(0)), MAX_FILTER_DEPTH - 2);
        assert_eq!(parse_query(&cat, &alternating(deepest + 1)), too_deep);
    }

    #[test]
    fn lex_errors_reported() {
        let cat = catalog();
        assert!(matches!(
            parse_query(&cat, "SELECT COUNT(*) FROM users u WHERE u.id = 'oops"),
            Err(ParseError::Lex(..))
        ));
        assert!(matches!(
            parse_query(&cat, "SELECT COUNT(*) FROM users ? "),
            Err(ParseError::Lex(..))
        ));
    }
}
