//! Cost-based join-order optimization with injected cardinalities.
//!
//! This is the stand-in for Postgres' planner in the paper's methodology
//! (§6.1: "we inject into PostgreSQL all sub-plan query cardinalities
//! estimated by each method, so the PostgreSQL optimizer uses the injected
//! cardinalities to optimize the query plan"). [`optimize`] runs exact
//! dynamic programming over connected subgraphs (DPsub) for queries up to
//! [`DP_MAX_ALIASES`] aliases and falls back to greedy operator ordering
//! (GOO) beyond that.

use crate::cost::CostModel;
use crate::plan::PlanNode;
use fj_query::{Query, SubplanMask};
use std::collections::HashMap;

/// Maximum alias count for exact DP (3^n subset-splitting work).
pub const DP_MAX_ALIASES: usize = 13;

/// An optimized plan with its estimated cost (under the *injected*
/// cardinalities, not the true ones).
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    /// The chosen join tree.
    pub root: PlanNode,
    /// Cost under the injected cardinality function.
    pub est_cost: f64,
}

/// Chooses a join order for `query` given per-sub-plan cardinality
/// estimates (`card_of`: alias bitmask → estimated rows).
pub fn optimize(
    query: &Query,
    card_of: &mut dyn FnMut(SubplanMask) -> f64,
    model: &CostModel,
) -> OptimizedPlan {
    let n = query.num_tables();
    if n == 1 {
        return OptimizedPlan {
            root: PlanNode::Scan { alias: 0 },
            est_cost: card_of(1).max(0.0),
        };
    }
    let adj = adjacency(query);
    if n <= DP_MAX_ALIASES {
        dp_optimize(n, &adj, card_of, model)
    } else {
        greedy_optimize(n, &adj, card_of, model)
    }
}

fn adjacency(query: &Query) -> Vec<u64> {
    let mut adj = vec![0u64; query.num_tables()];
    for j in query.joins() {
        adj[j.left.alias] |= 1u64 << j.right.alias;
        adj[j.right.alias] |= 1u64 << j.left.alias;
    }
    adj
}

fn is_connected(mask: u64, adj: &[u64]) -> bool {
    if mask == 0 {
        return false;
    }
    let start = mask.trailing_zeros() as usize;
    let mut seen = 1u64 << start;
    let mut frontier = seen;
    while frontier != 0 {
        let mut next = 0u64;
        let mut rest = frontier;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            next |= adj[i] & mask & !seen;
            rest &= rest - 1;
        }
        seen |= next;
        frontier = next;
    }
    seen == mask
}

fn touches(a: u64, b: u64, adj: &[u64]) -> bool {
    let mut rest = a;
    while rest != 0 {
        let i = rest.trailing_zeros() as usize;
        if adj[i] & b != 0 {
            return true;
        }
        rest &= rest - 1;
    }
    false
}

struct DpEntry {
    cost: f64,
    split: u64, // 0 for leaves
    card: f64,
}

fn dp_optimize(
    n: usize,
    adj: &[u64],
    card_of: &mut dyn FnMut(SubplanMask) -> f64,
    model: &CostModel,
) -> OptimizedPlan {
    let full = (1u64 << n) - 1;
    let mut table: HashMap<u64, DpEntry> = HashMap::new();
    for i in 0..n {
        let m = 1u64 << i;
        let c = card_of(m).max(0.0);
        table.insert(
            m,
            DpEntry {
                cost: c,
                split: 0,
                card: c,
            },
        );
    }
    // Enumerate masks in increasing numeric order: every proper submask of m
    // is < m, so dependencies are ready.
    for mask in 1..=full {
        if mask.count_ones() < 2 || !is_connected(mask, adj) {
            continue;
        }
        let out_card = card_of(mask).max(0.0);
        let mut best: Option<(f64, u64)> = None;
        // Enumerate submasks containing the lowest set bit (canonical side).
        let low = mask & mask.wrapping_neg();
        let mut s = (mask - 1) & mask;
        while s != 0 {
            if s & low != 0 {
                let c = mask & !s;
                if let (Some(le), Some(re)) = (table.get(&s), table.get(&c)) {
                    if touches(s, c, adj) {
                        let (build, probe) = if le.card <= re.card {
                            (le.card, re.card)
                        } else {
                            (re.card, le.card)
                        };
                        let cost = le.cost
                            + re.cost
                            + model.build_weight * build
                            + model.probe_weight * probe
                            + model.output_weight * out_card;
                        if best.is_none_or(|(bc, _)| cost < bc) {
                            best = Some((cost, s));
                        }
                    }
                }
            }
            s = (s - 1) & mask;
        }
        if let Some((cost, split)) = best {
            table.insert(
                mask,
                DpEntry {
                    cost,
                    split,
                    card: out_card,
                },
            );
        }
    }
    let root = rebuild(full, &table);
    let est_cost = table[&full].cost;
    OptimizedPlan { root, est_cost }
}

fn rebuild(mask: u64, table: &HashMap<u64, DpEntry>) -> PlanNode {
    let entry = table
        .get(&mask)
        .expect("connected mask must have a DP entry");
    if entry.split == 0 {
        PlanNode::Scan {
            alias: mask.trailing_zeros() as usize,
        }
    } else {
        let l = rebuild(entry.split, table);
        let r = rebuild(mask & !entry.split, table);
        PlanNode::Join {
            left: Box::new(l),
            right: Box::new(r),
        }
    }
}

/// Greedy operator ordering: repeatedly merge the adjacent pair of
/// fragments whose join has the smallest estimated cardinality.
fn greedy_optimize(
    n: usize,
    adj: &[u64],
    card_of: &mut dyn FnMut(SubplanMask) -> f64,
    model: &CostModel,
) -> OptimizedPlan {
    let mut frags: Vec<(u64, PlanNode, f64, f64)> = (0..n)
        .map(|i| {
            let m = 1u64 << i;
            let c = card_of(m).max(0.0);
            (m, PlanNode::Scan { alias: i }, c, c) // (mask, plan, card, cost)
        })
        .collect();
    while frags.len() > 1 {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..frags.len() {
            for j in i + 1..frags.len() {
                if !touches(frags[i].0, frags[j].0, adj) {
                    continue;
                }
                let out = card_of(frags[i].0 | frags[j].0).max(0.0);
                if best.is_none_or(|(_, _, b)| out < b) {
                    best = Some((i, j, out));
                }
            }
        }
        // If nothing is adjacent (disconnected input), merge arbitrarily.
        let (i, j, out) = best.unwrap_or_else(|| {
            let out = card_of(frags[0].0 | frags[1].0).max(0.0);
            (0, 1, out)
        });
        let (mj, pj, cj, costj) = frags.swap_remove(j);
        let (mi, pi, ci, costi) = frags.swap_remove(if i < j { i } else { i - 1 });
        let (build, probe) = if ci <= cj { (ci, cj) } else { (cj, ci) };
        let cost = costi
            + costj
            + model.build_weight * build
            + model.probe_weight * probe
            + model.output_weight * out;
        frags.push((
            mi | mj,
            PlanNode::Join {
                left: Box::new(pi),
                right: Box::new(pj),
            },
            out,
            cost,
        ));
    }
    let (_, root, _, cost) = frags.pop().expect("one fragment remains");
    OptimizedPlan {
        root,
        est_cost: cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_query::{FilterExpr, TableRef};
    use fj_storage::{Catalog, ColumnDef, Table, TableSchema, Value};

    /// The masks of a plan's join nodes, bottom-up.
    fn join_masks(node: &PlanNode) -> Vec<u64> {
        match node {
            PlanNode::Scan { .. } => Vec::new(),
            PlanNode::Join { left, right } => {
                let mut out = join_masks(left);
                out.extend(join_masks(right));
                out.push(node.mask());
                out
            }
        }
    }

    fn catalog(n: usize) -> Catalog {
        let mut cat = Catalog::new();
        for i in 0..n {
            let schema = TableSchema::new(vec![ColumnDef::key("id"), ColumnDef::key("fk")]);
            cat.add_table(
                Table::from_rows(
                    &format!("t{i}"),
                    schema,
                    &[vec![Value::Int(0), Value::Int(0)]],
                )
                .unwrap(),
            )
            .unwrap();
        }
        cat
    }

    fn chain(cat: &Catalog, n: usize) -> Query {
        let tables: Vec<TableRef> = (0..n)
            .map(|i| TableRef::new(&format!("t{i}"), &format!("t{i}")))
            .collect();
        let joins: Vec<((String, String), (String, String))> = (1..n)
            .map(|i| {
                (
                    (format!("t{}", i - 1), "id".into()),
                    (format!("t{i}"), "fk".into()),
                )
            })
            .collect();
        Query::new(cat, tables, &joins, vec![FilterExpr::True; n]).unwrap()
    }

    #[test]
    fn picks_the_cheap_side_first() {
        let cat = catalog(3);
        let q = chain(&cat, 3);
        // t0–t1 join explodes; t1–t2 is tiny. Optimal: (t1 ⋈ t2) ⋈ t0.
        let mut cards: HashMap<u64, f64> = HashMap::new();
        cards.insert(0b001, 1000.0);
        cards.insert(0b010, 1000.0);
        cards.insert(0b100, 10.0);
        cards.insert(0b011, 1_000_000.0);
        cards.insert(0b110, 50.0);
        cards.insert(0b111, 2000.0);
        let plan = optimize(&q, &mut |m| cards[&m], &CostModel::default());
        // The first join must be {t1, t2}.
        assert_eq!(
            join_masks(&plan.root)[0],
            0b110,
            "plan {}",
            plan.root.display(&q)
        );
    }

    #[test]
    fn never_chooses_cross_products() {
        let cat = catalog(4);
        let q = chain(&cat, 4);
        // Even if a cross product looks cheap, splits must touch.
        let mut call_masks: Vec<u64> = Vec::new();
        let plan = optimize(
            &q,
            &mut |m| {
                call_masks.push(m);
                m.count_ones() as f64 // trivially increasing
            },
            &CostModel::default(),
        );
        for mask in join_masks(&plan.root) {
            let (sub, _) = q.project(mask);
            assert!(sub.is_connected(), "join node {mask:b} must be connected");
        }
        assert_eq!(plan.root.mask(), 0b1111);
    }

    #[test]
    fn dp_beats_or_ties_greedy() {
        // On a star query with adversarial cardinalities, exact DP must be
        // at least as good as greedy when both use the same cost model.
        let cat = catalog(5);
        let tables: Vec<TableRef> = (0..5)
            .map(|i| TableRef::new(&format!("t{i}"), &format!("t{i}")))
            .collect();
        let joins: Vec<((String, String), (String, String))> = (1..5)
            .map(|i| {
                (
                    ("t0".to_string(), "id".into()),
                    (format!("t{i}"), "fk".into()),
                )
            })
            .collect();
        let q = Query::new(&cat, tables, &joins, vec![FilterExpr::True; 5]).unwrap();
        let card = |m: u64| -> f64 {
            // Deterministic pseudo-random cardinalities.
            let h = (m.wrapping_mul(0x9E3779B97F4A7C15)) >> 40;
            (h % 10_000) as f64 + 1.0
        };
        let model = CostModel::default();
        let dp = dp_optimize(5, &adjacency(&q), &mut { |m| card(m) }, &model);
        let greedy = greedy_optimize(5, &adjacency(&q), &mut { |m| card(m) }, &model);
        assert!(dp.est_cost <= greedy.est_cost + 1e-9);
    }

    #[test]
    fn single_table_plan() {
        let cat = catalog(1);
        let q = Query::new(
            &cat,
            vec![TableRef::new("t0", "t0")],
            &[],
            vec![FilterExpr::True],
        )
        .unwrap();
        let plan = optimize(&q, &mut |_| 42.0, &CostModel::default());
        assert_eq!(plan.root, PlanNode::Scan { alias: 0 });
        assert_eq!(plan.est_cost, 42.0);
    }

    #[test]
    fn greedy_handles_wide_queries() {
        let n = 16; // beyond DP_MAX_ALIASES
        let cat = catalog(n);
        let q = chain(&cat, n);
        let plan = optimize(
            &q,
            &mut |m| m.count_ones() as f64 * 10.0,
            &CostModel::default(),
        );
        assert_eq!(plan.root.mask(), (1u64 << n) - 1);
        assert_eq!(plan.root.num_leaves(), n);
    }

    #[test]
    fn better_estimates_never_worsen_dp_cost_under_truth() {
        // Feeding the DP true cardinalities yields a plan whose true cost is
        // ≤ the true cost of the plan chosen under corrupted estimates.
        let cat = catalog(4);
        let q = chain(&cat, 4);
        let truth: HashMap<u64, f64> = [
            (0b0001u64, 500.0),
            (0b0010, 80.0),
            (0b0100, 900.0),
            (0b1000, 20.0),
            (0b0011, 4000.0),
            (0b0110, 100.0),
            (0b1100, 60.0),
            (0b0111, 8000.0),
            (0b1110, 300.0),
            (0b1111, 1000.0),
        ]
        .into_iter()
        .collect();
        let model = CostModel::default();
        let plan_true = optimize(&q, &mut |m| truth[&m], &model);
        // Corrupt: pretend the middle join is free.
        let plan_bad = optimize(
            &q,
            &mut |m| if m == 0b0011 { 1.0 } else { truth[&m] },
            &model,
        );
        let cost = |p: &PlanNode| crate::cost::plan_cost(p, &mut |m| truth[&m], &model).total;
        assert!(cost(&plan_true.root) <= cost(&plan_bad.root));
    }
}
