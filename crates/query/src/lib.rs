//! # fj-query — query IR, join graphs, sub-plan enumeration, SQL parser
//!
//! The FactorJoin paper (§2.1) defines a query as a *join graph* over table
//! aliases plus per-alias base-table filter predicates. This crate provides:
//!
//! * [`Predicate`] / [`FilterExpr`] — conjunction/disjunction trees of
//!   comparison, range, `IN`, `LIKE`, and NULL-test predicates (the paper
//!   supports disjunctive clauses and string pattern matching, §1);
//! * [`Query`] — aliases (self-joins are two aliases of the same table),
//!   equi-join conditions (cyclic join graphs allowed), and filters;
//! * [`QueryGraph`] — alias-level adjacency and per-query *equivalent key
//!   group* variables (paper §3.1), which become the factor-graph variables;
//! * [`subplan`] — enumeration of all connected sub-plans, which is the set
//!   of cardinalities a cost-based optimizer requests (paper §5.2);
//! * [`fingerprint`] — seeded stable canonical sub-plan fingerprints, the
//!   cache key of the service tier's sub-plan estimate cache;
//! * [`parser`] — a SQL-subset parser so workloads can be written as text.

pub mod compile;
pub mod expr;
pub mod fingerprint;
pub mod graph;
pub mod like;
pub mod parser;
pub mod predicate;
pub mod query;
pub mod subplan;

pub use compile::{compile_filter, filtered_count, filtered_selection, CompiledFilter, Selection};
pub use expr::{FilterExpr, ValueMatcher, MAX_FILTER_DEPTH};
pub use fingerprint::{
    subplan_fingerprints, subplan_fingerprints_into, FingerprintBuf, StableHasher,
};
pub use graph::{KeyVar, QueryGraph};
pub use like::{like_match, LikePattern};
pub use parser::{parse_query, ParseError};
pub use predicate::{CmpOp, Predicate};
pub use query::{ColRef, JoinPredicate, Query, QueryError, TableRef};
pub use subplan::{connected_subplans, connected_subplans_into, SubplanMask};
