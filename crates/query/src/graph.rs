//! Per-query join graph and equivalent key group variables.
//!
//! This is the structure behind paper Figure 3: every join key that appears
//! in the query is a node; equi-join conditions are edges; connected
//! components become *equivalent key group variables* `V₁…Vₙ` — the variable
//! nodes of the factor graph. Each alias (table occurrence) touches a set of
//! variables, and that alias's factor node will hold the distribution of
//! exactly those variables.
//!
//! Analysis runs once per estimate request on the serving path, so it
//! records bitset views the hot loops test instead of scanning lists — per
//! alias its join neighbors, per variable the aliases it touches, per alias
//! the variables its keys touch — and builds the per-variable member lists
//! only when [`QueryGraph::vars`] is first asked for them.

use crate::query::{ColRef, Query};
use fj_storage::UnionFind;
use std::sync::OnceLock;

/// An equivalent key group variable of one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyVar {
    /// Variable id, dense `0..n`.
    pub id: usize,
    /// Member join keys (alias, column) — at least two, unless degenerate.
    pub members: Vec<ColRef>,
}

/// The analyzed join structure of a query.
#[derive(Debug, Clone)]
pub struct QueryGraph {
    /// Every distinct join key with its variable, in first-appearance
    /// order.
    keys: Vec<(ColRef, usize)>,
    num_vars: usize,
    /// The member lists, built on first use: the estimation path reads
    /// only the bitset views.
    vars: OnceLock<Vec<KeyVar>>,
    /// Every alias's distinct (column, var) pairs, sorted, alias after
    /// alias: alias `a`'s run is `alias_keys[key_start[a]..key_start[a + 1]]`.
    alias_keys: Vec<(usize, usize)>,
    key_start: Vec<usize>,
    /// Three bitset tables in one buffer: per alias the mask of aliases it
    /// is directly joined with (`n` words); per variable the mask of aliases
    /// with a member key in it (`num_vars` words); per alias the variables
    /// its keys touch (`var_words` = ⌈num_vars / 64⌉ words each, bit
    /// `v % 64` of word `v / 64`, so an id ≥ 64 lands in its own word
    /// instead of wrapping).
    bits: Vec<u64>,
    num_aliases: usize,
    var_words: usize,
}

impl QueryGraph {
    /// Analyzes `query` into variables and per-alias key sets.
    pub fn analyze(query: &Query) -> Self {
        let n = query.num_tables();
        let joins = query.joins();
        // Distinct join keys in first-appearance order, found by a linear
        // scan (a query has a handful), and unioned join by join — the same
        // indices and the same union sequence as inserting every key first,
        // so the same roots. Slots past the distinct keys stay singletons.
        let mut keys: Vec<(ColRef, usize)> = Vec::with_capacity(2 * joins.len());
        let mut uf = UnionFind::new(2 * joins.len());
        for j in joins {
            let left = key_index(&mut keys, j.left);
            let right = key_index(&mut keys, j.right);
            uf.union(left, right);
        }
        // Each key's variable: ids number the groups by ascending root,
        // members by ascending key index. Roots take their ids first, then
        // every key reads its root's.
        let mut num_vars = 0;
        for (k, key) in keys.iter_mut().enumerate() {
            if uf.find(k) == k {
                key.1 = num_vars;
                num_vars += 1;
            }
        }
        for k in 0..keys.len() {
            keys[k].1 = keys[uf.find(k)].1;
        }

        let var_words = num_vars.div_ceil(64).max(1);
        let mut bits = vec![0u64; n + num_vars + n * var_words];
        let (neighbors, rest) = bits.split_at_mut(n);
        let (var_aliases, var_sets) = rest.split_at_mut(num_vars);
        // Keys are distinct (alias, column)s, so each alias's (column, var)
        // pairs are distinct too: a counting sort by alias places them.
        let mut key_start = vec![0usize; n + 1];
        for &(cr, var) in &keys {
            var_aliases[var] |= 1 << cr.alias;
            var_sets[cr.alias * var_words + var / 64] |= 1 << (var % 64);
            key_start[cr.alias + 1] += 1;
        }
        for a in 0..n {
            key_start[a + 1] += key_start[a];
        }
        let mut alias_keys = vec![(0, 0); keys.len()];
        // `key_start[a]` is alias `a`'s fill cursor and ends at its run's
        // end; shifting right by one restores the starts.
        for &(cr, var) in &keys {
            alias_keys[key_start[cr.alias]] = (cr.column, var);
            key_start[cr.alias] += 1;
        }
        key_start.copy_within(0..n, 1);
        key_start[0] = 0;
        for a in 0..n {
            alias_keys[key_start[a]..key_start[a + 1]].sort_unstable();
        }

        for j in joins {
            neighbors[j.left.alias] |= 1 << j.right.alias;
            neighbors[j.right.alias] |= 1 << j.left.alias;
        }

        QueryGraph {
            keys,
            num_vars,
            vars: OnceLock::new(),
            alias_keys,
            key_start,
            bits,
            num_aliases: n,
            var_words,
        }
    }

    /// Equivalent key group variables.
    pub fn vars(&self) -> &[KeyVar] {
        self.vars.get_or_init(|| {
            let mut vars: Vec<KeyVar> = (0..self.num_vars)
                .map(|id| KeyVar {
                    id,
                    members: Vec::new(),
                })
                .collect();
            for &(cr, var) in &self.keys {
                vars[var].members.push(cr);
            }
            vars
        })
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Distinct (column index, variable id) pairs contributed by `alias`,
    /// sorted.
    pub fn alias_keys(&self, alias: usize) -> &[(usize, usize)] {
        &self.alias_keys[self.key_start[alias]..self.key_start[alias + 1]]
    }

    /// Variable ids touched by `alias`.
    pub fn alias_vars(&self, alias: usize) -> Vec<usize> {
        let mut v: Vec<usize> = self.alias_keys(alias).iter().map(|&(_, var)| var).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Words in each variable bitset: ⌈[`Self::num_vars`] / 64⌉, at least
    /// one.
    pub(crate) fn var_set_words(&self) -> usize {
        self.var_words
    }

    /// The variables `alias` touches as a bitset: bit `v % 64` of word
    /// `v / 64`, [`Self::var_set_words`] words.
    pub(crate) fn alias_var_set(&self, alias: usize) -> &[u64] {
        let start = self.num_aliases + self.num_vars + alias * self.var_words;
        &self.bits[start..start + self.var_words]
    }

    /// The mask of aliases with a member key in variable `var`.
    pub fn var_aliases(&self, var: usize) -> u64 {
        self.bits[self.num_aliases + var]
    }

    /// The mask of `alias`'s neighbors in the join graph: the aliases it
    /// shares a join condition with.
    pub fn neighbor_mask(&self, alias: usize) -> u64 {
        self.bits[alias]
    }

    /// Maximum number of distinct join keys in any single alias — the
    /// `max(|JK|)` exponent in the paper's complexity analysis (§3.2).
    pub fn max_keys_per_alias(&self) -> usize {
        self.key_start
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// The variable id of a given (alias, column) key, if it is a join key
    /// of this query.
    pub fn var_of(&self, alias: usize, column: usize) -> Option<usize> {
        self.alias_keys(alias)
            .iter()
            .find(|&&(c, _)| c == column)
            .map(|&(_, v)| v)
    }
}

/// Index of `key` in `keys`, appending it (variable not yet known) on
/// first sight.
fn key_index(keys: &mut Vec<(ColRef, usize)>, key: ColRef) -> usize {
    match keys.iter().position(|&(k, _)| k == key) {
        Some(i) => i,
        None => {
            keys.push((key, usize::MAX));
            keys.len() - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::FilterExpr;
    use crate::query::TableRef;
    use fj_storage::{Catalog, ColumnDef, Table, TableSchema, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for (name, keys) in [
            ("a", vec!["id", "id2"]),
            ("b", vec!["a_id", "c_id"]),
            ("c", vec!["a_id2", "id"]),
            ("d", vec!["c_id"]),
        ] {
            let cols: Vec<ColumnDef> = keys.iter().map(|k| ColumnDef::key(k)).collect();
            let schema = TableSchema::new(cols);
            let row: Vec<Value> = (0..schema.len()).map(|i| Value::Int(i as i64)).collect();
            cat.add_table(Table::from_rows(name, schema, &[row]).unwrap())
                .unwrap();
        }
        cat
    }

    fn j(la: &str, lc: &str, ra: &str, rc: &str) -> ((String, String), (String, String)) {
        ((la.into(), lc.into()), (ra.into(), rc.into()))
    }

    /// The four-table query of paper Figure 3:
    /// A.id = B.Aid, A.id2 = C.Aid2, C.id = B.Cid, C.id = D.Cid.
    fn figure3_query(cat: &Catalog) -> Query {
        Query::new(
            cat,
            vec![
                TableRef::new("a", "a"),
                TableRef::new("b", "b"),
                TableRef::new("c", "c"),
                TableRef::new("d", "d"),
            ],
            &[
                j("a", "id", "b", "a_id"),
                j("a", "id2", "c", "a_id2"),
                j("c", "id", "b", "c_id"),
                j("c", "id", "d", "c_id"),
            ],
            vec![FilterExpr::True; 4],
        )
        .unwrap()
    }

    #[test]
    fn figure3_has_three_variables() {
        let cat = catalog();
        let g = QueryGraph::analyze(&figure3_query(&cat));
        // V1 = {A.id, B.Aid}, V2 = {A.id2, C.Aid2}, V3 = {C.id, B.Cid, D.Cid}.
        assert_eq!(g.num_vars(), 3);
        let sizes: Vec<usize> = g.vars().iter().map(|v| v.members.len()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![2, 2, 3]);
        // Max join keys in one table is 2 (paper: exponent = 2 for Q2).
        assert_eq!(g.max_keys_per_alias(), 2);
    }

    #[test]
    fn alias_vars_and_adjacency() {
        let cat = catalog();
        let q = figure3_query(&cat);
        let g = QueryGraph::analyze(&q);
        // Alias a (index 0) touches two variables; alias d (index 3) one.
        assert_eq!(g.alias_vars(0).len(), 2);
        assert_eq!(g.alias_vars(3).len(), 1);
        // a is adjacent to b and c, not d.
        assert_eq!(g.neighbor_mask(0), 0b0110);
        assert_eq!(g.neighbor_mask(3), 0b0100);
    }

    #[test]
    fn chain_query_one_var_per_edge_group() {
        let cat = catalog();
        // a.id = b.a_id and b.c_id = c.id: two variables.
        let q = Query::new(
            &cat,
            vec![
                TableRef::new("a", "a"),
                TableRef::new("b", "b"),
                TableRef::new("c", "c"),
            ],
            &[j("a", "id", "b", "a_id"), j("b", "c_id", "c", "id")],
            vec![FilterExpr::True; 3],
        )
        .unwrap();
        let g = QueryGraph::analyze(&q);
        assert_eq!(g.num_vars(), 2);
        assert_eq!(g.alias_vars(1).len(), 2, "middle table touches both vars");
    }

    #[test]
    fn star_join_merges_into_single_var() {
        let cat = catalog();
        // a.id = b.a_id and a.id = c.a_id2: one variable with 3 members.
        let q = Query::new(
            &cat,
            vec![
                TableRef::new("a", "a"),
                TableRef::new("b", "b"),
                TableRef::new("c", "c"),
            ],
            &[j("a", "id", "b", "a_id"), j("a", "id", "c", "a_id2")],
            vec![FilterExpr::True; 3],
        )
        .unwrap();
        let g = QueryGraph::analyze(&q);
        assert_eq!(g.num_vars(), 1);
        assert_eq!(g.vars()[0].members.len(), 3);
    }

    #[test]
    fn bitset_views_match_member_lists() {
        let cat = catalog();
        let g = QueryGraph::analyze(&figure3_query(&cat));
        for v in g.vars() {
            let aliases = v.members.iter().fold(0u64, |m, cr| m | 1 << cr.alias);
            assert_eq!(g.var_aliases(v.id), aliases);
        }
        for alias in 0..4 {
            let set = g.alias_var_set(alias);
            assert_eq!(set.len(), 1);
            let vars = g.alias_vars(alias).iter().fold(0u64, |m, &v| m | 1 << v);
            assert_eq!(set[0], vars);
        }
    }

    #[test]
    fn var_of_lookup() {
        let cat = catalog();
        let q = figure3_query(&cat);
        let g = QueryGraph::analyze(&q);
        let a_id_col = cat.table("a").unwrap().schema().index_of("id").unwrap();
        let b_aid_col = cat.table("b").unwrap().schema().index_of("a_id").unwrap();
        assert_eq!(g.var_of(0, a_id_col), g.var_of(1, b_aid_col));
        assert_eq!(g.var_of(3, 99), None);
    }
}
