//! Tree-structured Bayesian-network estimator (BayesCard stand-in).
//!
//! Build phase (paper §5.1): discretize every modeled column (join keys at
//! bin granularity, attributes into ≤ `max_codes` codes, NULL as a code),
//! learn a Chow-Liu tree from pairwise mutual information, and store CPTs
//! as smoothed counts. The fit and every `insert` batch encode their rows
//! a column at a time (`DiscreteColumn::encode_rows`) and count them a
//! column at a time. From the counts the estimator derives — at fit and
//! again after every `insert` batch — what inference reads besides them:
//! every CPT in one parent-major slab, each node's evidence-free *prior*
//! marginal, and that prior scaled to rows.
//!
//! Query phase, one path for every request:
//!
//! 1. **Evidence.** Each conjunct of the filter that constrains a single
//!    modeled column multiplies its per-code weights (the fraction of the
//!    code's rows satisfying it) straight into that node's `λ` buffer;
//!    conjuncts the network cannot express — cross-column disjunctions,
//!    unmodeled columns — charge `fallback_selectivity` instead. Conjuncts
//!    are multiplied one by one, never merged per column first: the same
//!    weights for every encoding with two exceptions, both for several
//!    conjuncts on one column — a binned key asked `IS NULL` *and* a value
//!    comparison now gets weight 0 everywhere (the true answer; merged, the
//!    NULL test was ignored), and a hashed string column gets the product of
//!    each pattern's per-bucket match fraction rather than the fraction
//!    matching all patterns.
//! 2. **No evidence** (an unfiltered alias): the answer is a pure function
//!    of the model — copy the cached priors.
//! 3. **Propagation** runs only over the subtree spanning the evidence
//!    nodes and the requested keys. Per tree, the lowest common ancestor of
//!    those nodes is the *top*; nothing above it carries evidence, so its
//!    cached prior is its exact root distribution and
//!    `P(evidence) = Σ prior_top · λ_top`. Messages flow up to the top from
//!    the evidence below it, beliefs flow down from the top to the keys; a
//!    key in a tree without evidence is its cached prior scaled by the other
//!    trees' evidence probability. This is the same sum-product as two full
//!    passes through the root, so results differ from it by rounding only.
//!
//! The result is `P(filter)` and `P(key bin, filter)` for every requested
//! key — exactly what the factor graph needs — and depends on nothing but
//! the counts and the request: the propagation scratch is fully rewritten
//! by each call.

use crate::binmap::{KeyBinMap, TableBins};
use crate::chowliu::chow_liu_tree_threads;
use crate::discretize::{DiscreteColumn, Discretizer};
use crate::traits::{BaseTableEstimator, TableProfile};
use fj_query::FilterExpr;
use fj_storage::codec::{invalid, Dec, DecodeError, Enc};
use fj_storage::{Table, TableSchema};
use std::sync::{Arc, Mutex};

/// Bayesian-network build configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BnConfig {
    /// Maximum non-null codes per attribute column.
    pub max_codes: usize,
    /// Rows used for mutual-information estimation (strided sample).
    pub mi_sample_rows: usize,
    /// Laplace smoothing added to every count cell.
    pub alpha: f64,
    /// Selectivity factor applied per filter conjunct the network cannot
    /// express as evidence (cross-column disjunctions) and once per
    /// filtered column it does not model. A crude constant, mirroring how
    /// real systems punt on unsupported predicates.
    pub fallback_selectivity: f64,
    /// Worker threads for the pairwise mutual-information sweep of
    /// structure learning (1 = serial; the learned tree is identical for
    /// every thread count). Model training already fans out one task per
    /// *table*, so per-network parallelism stays off by default — raise it
    /// when building a single wide-table network on its own.
    pub threads: usize,
}

impl Default for BnConfig {
    fn default() -> Self {
        BnConfig {
            max_codes: 64,
            mi_sample_rows: 20_000,
            alpha: 0.1,
            fallback_selectivity: 0.25,
            threads: 1,
        }
    }
}

/// `out[j] += Σᵢ w[i] · mat[i·n + j]` over the rows `i` with `w[i] > 0`,
/// `n = out.len()` — the one kernel of both propagation directions (each
/// reads a layout of its own, so rows are always contiguous). Rows are taken
/// four at a time: every load and store of `out` then carries four
/// multiply-adds, and evidence that zeroes most codes skips their rows.
#[inline]
fn axpy_rows(out: &mut [f64], mat: &[f64], w: &[f64]) {
    let n = out.len();
    let row = |i: usize| &mat[i * n..(i + 1) * n];
    let mut pending = [0usize; 4];
    let mut filled = 0;
    for (i, &wi) in w.iter().enumerate() {
        if wi > 0.0 {
            pending[filled] = i;
            filled += 1;
            if filled == 4 {
                filled = 0;
                let [a, b, c, d] = pending;
                let (wa, wb, wc, wd) = (w[a], w[b], w[c], w[d]);
                let rows = row(a).iter().zip(row(b)).zip(row(c)).zip(row(d));
                for (o, (((&xa, &xb), &xc), &xd)) in out.iter_mut().zip(rows) {
                    *o += (wa * xa + wb * xb) + (wc * xc + wd * xd);
                }
            }
        }
    }
    for &i in &pending[..filled] {
        for (o, &x) in out.iter_mut().zip(row(i)) {
            *o += w[i] * x;
        }
    }
}

/// Counts above this are not exact in an `f64`; a file claiming one is
/// corrupt (every count is a sum of ones).
const MAX_EXACT_COUNT: u64 = 1 << 53;

/// Writes counts (exact integers in `f64`s) as their length and varints.
fn encode_counts(out: &mut Enc, counts: &[f64]) {
    out.len(counts.len());
    for &c in counts {
        debug_assert!(c >= 0.0 && c.fract() == 0.0, "counts are sums of ones");
        out.varint(c as u64);
    }
}

/// Reads `expected` counts written by [`encode_counts`].
fn decode_counts(
    d: &mut Dec<'_>,
    expected: usize,
    what: &'static str,
) -> Result<Vec<f64>, DecodeError> {
    let n = d.count(what, 1)?;
    if n != expected {
        return Err(invalid(format!(
            "{what}: {n} cells, but the code counts give {expected}"
        )));
    }
    let mut counts = Vec::with_capacity(n);
    for _ in 0..n {
        let c = d.varint(what)?;
        if c > MAX_EXACT_COUNT {
            return Err(invalid(format!("{what}: count {c} is not exact")));
        }
        counts.push(c as f64);
    }
    Ok(counts)
}

/// "No node": the parent of a root, the top of a tree without evidence.
const NONE: usize = usize::MAX;

/// One node's place in the tree and in the slabs.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Parent node ([`NONE`] for a root) and distance from the root.
    parent: usize,
    depth: usize,
    /// Index of the tree (connected component) the node belongs to.
    tree: usize,
    /// Codes of the node and of its parent (0 for a root).
    k: usize,
    kp: usize,
    /// Start of the node's `k` slots in every per-code slab (`prior`,
    /// `prior_rows`, `lambda`, `belief`).
    at: usize,
    /// Start of its `k · kp` cells in the CPT slab, and of the `kp` slots
    /// of its message to the parent.
    cpt: usize,
    msg: usize,
}

impl Node {
    fn codes(&self) -> std::ops::Range<usize> {
        self.at..self.at + self.k
    }

    fn cells(&self) -> std::ops::Range<usize> {
        self.cpt..self.cpt + self.k * self.kp
    }

    fn message(&self) -> std::ops::Range<usize> {
        self.msg..self.msg + self.kp
    }
}

/// Belief-propagation buffers, sized once from the network shape and fully
/// rewritten by every request (so results never depend on what ran before).
#[derive(Debug)]
struct PropScratch {
    /// Per node: evidence weights times the messages of its children.
    lambda: Vec<f64>,
    /// Per node: `P(node = c, evidence of its tree)`, filled for the
    /// requested keys and the nodes between them and the top.
    belief: Vec<f64>,
    /// Per non-root node: its message to the parent.
    msg: Vec<f64>,
    /// The parent's belief with one child's message divided out.
    pi_ex: Vec<f64>,
    /// Whether node i's `lambda` is in use: it or its subtree (below the
    /// top) carries evidence.
    live: Vec<bool>,
    /// Whether node i's belief is needed: a requested key or on the path
    /// from the top down to one.
    need: Vec<bool>,
    /// The node of each requested key column ([`NONE`]: not modeled).
    keys: Vec<usize>,
    /// Per tree: lowest common ancestor of its evidence nodes and requested
    /// keys — [`NONE`] while the tree carries no evidence.
    top: Vec<usize>,
    /// Per tree with evidence: the probability of that evidence.
    tree_p: Vec<f64>,
}

impl PropScratch {
    fn new(nodes: &[Node], trees: usize) -> Self {
        let codes = nodes.iter().map(|n| n.k).sum();
        PropScratch {
            lambda: vec![0.0; codes],
            belief: vec![0.0; codes],
            msg: vec![0.0; nodes.iter().map(|n| n.kp).sum()],
            pi_ex: vec![0.0; nodes.iter().map(|n| n.kp).max().unwrap_or(0)],
            live: vec![false; nodes.len()],
            need: vec![false; nodes.len()],
            keys: Vec::with_capacity(8),
            top: vec![NONE; trees],
            tree_p: vec![0.0; trees],
        }
    }
}

/// The columns a clause constrains: none, exactly one, or several.
enum Columns<'a> {
    None,
    One(&'a str),
    Many,
}

impl<'a> Columns<'a> {
    fn of(expr: &'a FilterExpr) -> Self {
        Self::extend(Columns::None, expr)
    }

    fn extend(self, expr: &'a FilterExpr) -> Self {
        match expr {
            FilterExpr::True => self,
            FilterExpr::Pred(p) => match self {
                Columns::None => Columns::One(p.column()),
                Columns::One(c) if c == p.column() => self,
                _ => Columns::Many,
            },
            FilterExpr::And(parts) | FilterExpr::Or(parts) => {
                parts.iter().fold(self, Columns::extend)
            }
            FilterExpr::Not(inner) => self.extend(inner),
        }
    }
}

/// Calls `visit` on the conjuncts of `filter` in order — nested `AND`s
/// flattened, `TRUE` skipped — until it returns `false`.
fn each_conjunct<'a>(
    filter: &'a FilterExpr,
    visit: &mut impl FnMut(&'a FilterExpr) -> bool,
) -> bool {
    match filter {
        FilterExpr::True => true,
        FilterExpr::And(parts) => parts.iter().all(|part| each_conjunct(part, visit)),
        clause => visit(clause),
    }
}

/// A Bayesian-network estimator bound to one table.
pub struct BayesNetEstimator {
    cols: Vec<DiscreteColumn>,
    parent: Vec<Option<usize>>,
    /// Marginal counts per node (unsmoothed). A parent's also normalize its
    /// children's CPTs: they are the per-parent-code sums of each child's
    /// joint counts.
    marginal: Vec<Vec<f64>>,
    /// For non-root node i: joint counts `[code_i * k_parent + code_parent]`.
    joint: Vec<Option<Vec<f64>>>,
    nrows: f64,
    cfg: BnConfig,
    /// Tree shape and slab layout, fixed at fit.
    nodes: Vec<Node>,
    /// Topological order, parents before children.
    topo: Vec<usize>,
    trees: usize,
    // Derived from the counts by `recompute_derived` (fit, every insert
    // batch); like the scratch, not part of `model_bytes`.
    /// Smoothed `P(c | p)` of every non-root node, parent-major
    /// `[p · k + c]`: the downward pass adds row `p` times `π(p)` into the
    /// node's belief. (The upward pass wants child-major rows and reads
    /// the `joint` counts themselves, smoothing each message as a whole.)
    cpt: Vec<f64>,
    /// Evidence-free marginal `P(c)` of every node (a root's is its
    /// smoothed marginal, a child's follows from its parent's by the
    /// downward recurrence).
    prior: Vec<f64>,
    /// `prior × nrows`: what an unfiltered alias copies out.
    prior_rows: Vec<f64>,
    /// Propagation buffers, reused across queries. Concurrent queries on
    /// the same table fall back to fresh local buffers (`try_lock`), so
    /// the estimator stays `Sync` without serializing readers.
    scratch: Mutex<PropScratch>,
}

impl Clone for BayesNetEstimator {
    /// Deep copy of the trained network with propagation buffers of its own.
    fn clone(&self) -> Self {
        BayesNetEstimator {
            cols: self.cols.clone(),
            parent: self.parent.clone(),
            marginal: self.marginal.clone(),
            joint: self.joint.clone(),
            nrows: self.nrows,
            cfg: self.cfg,
            nodes: self.nodes.clone(),
            topo: self.topo.clone(),
            trees: self.trees,
            cpt: self.cpt.clone(),
            prior: self.prior.clone(),
            prior_rows: self.prior_rows.clone(),
            scratch: Mutex::new(PropScratch::new(&self.nodes, self.trees)),
        }
    }
}

impl BayesNetEstimator {
    /// Builds the network over the modeled columns of `table`.
    pub fn build(table: &Table, bins: &TableBins, cfg: BnConfig) -> Self {
        let disc = Discretizer {
            max_codes: cfg.max_codes,
        };
        let mut cols = Vec::new();
        let mut src_cols = Vec::new();
        for (ci, def) in table.schema().columns().iter().enumerate() {
            if let Some(dc) = disc.build(table, ci, bins.get_shared(&def.name)) {
                cols.push(dc);
                src_cols.push(ci);
            }
        }
        let n = table.nrows();

        // Encode all rows, column-major.
        let codes: Vec<Vec<u32>> = cols
            .iter()
            .zip(&src_cols)
            .map(|(dc, &ci)| dc.encode_rows(table.column(ci), 0..n))
            .collect();

        // Structure learning on a strided sample.
        let stride = (n / cfg.mi_sample_rows.max(1)).max(1);
        let sampled: Vec<Vec<u32>> = codes
            .iter()
            .map(|c| c.iter().step_by(stride).copied().collect())
            .collect();
        let domains: Vec<usize> = cols.iter().map(DiscreteColumn::n_codes).collect();
        let parent = chow_liu_tree_threads(&sampled, &domains, cfg.threads);
        Self::from_codes(cols, parent, &codes, cfg)
    }

    /// Fits the forest `parent` over `cols` to the encoded rows `codes`
    /// (column-major, one vector per column).
    fn from_codes(
        cols: Vec<DiscreteColumn>,
        parent: Vec<Option<usize>>,
        codes: &[Vec<u32>],
        cfg: BnConfig,
    ) -> Self {
        let n = codes.first().map_or(0, Vec::len);
        let domains: Vec<usize> = cols.iter().map(DiscreteColumn::n_codes).collect();
        let marginal = domains.iter().map(|&k| vec![0.0; k]).collect();
        let joint = parent
            .iter()
            .enumerate()
            .map(|(i, p)| p.map(|p| vec![0.0; domains[i] * domains[p]]))
            .collect();
        let mut bn = Self::with_counts(cols, parent, marginal, joint, 0.0, cfg);
        bn.count(codes, n);
        bn
    }

    /// The network over `cols` with the forest `parent` and these counts:
    /// its topological order, tree ids and slab layout. What inference
    /// derives from the counts is left for `recompute_derived`.
    fn with_counts(
        cols: Vec<DiscreteColumn>,
        parent: Vec<Option<usize>>,
        marginal: Vec<Vec<f64>>,
        joint: Vec<Option<Vec<f64>>>,
        nrows: f64,
        cfg: BnConfig,
    ) -> Self {
        let m = cols.len();
        let domains: Vec<usize> = cols.iter().map(DiscreteColumn::n_codes).collect();

        let mut children: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[*p].push(i);
            }
        }
        // Topological order: BFS from roots.
        let mut topo = Vec::with_capacity(m);
        let mut queue: std::collections::VecDeque<usize> =
            (0..m).filter(|&i| parent[i].is_none()).collect();
        while let Some(v) = queue.pop_front() {
            topo.push(v);
            queue.extend(children[v].iter().copied());
        }

        // Slab layout in node order; depth and tree follow the parent's.
        let mut nodes: Vec<Node> = Vec::with_capacity(m);
        let (mut at, mut cpt, mut msg) = (0, 0, 0);
        for (i, &k) in domains.iter().enumerate() {
            let kp = parent[i].map_or(0, |p| domains[p]);
            nodes.push(Node {
                parent: parent[i].unwrap_or(NONE),
                depth: 0,
                tree: 0,
                k,
                kp,
                at,
                cpt,
                msg,
            });
            at += k;
            cpt += k * kp;
            msg += kp;
        }
        let mut trees = 0;
        for &i in &topo {
            match parent[i] {
                None => {
                    nodes[i].tree = trees;
                    trees += 1;
                }
                Some(p) => {
                    nodes[i].tree = nodes[p].tree;
                    nodes[i].depth = nodes[p].depth + 1;
                }
            }
        }

        let scratch = Mutex::new(PropScratch::new(&nodes, trees));
        BayesNetEstimator {
            cols,
            parent,
            marginal,
            joint,
            nrows,
            cfg,
            nodes,
            topo,
            trees,
            cpt: Vec::new(),
            prior: Vec::new(),
            prior_rows: Vec::new(),
            scratch,
        }
    }

    /// Reads a network written by [`BaseTableEstimator::encode`] for the
    /// table with `schema` and key bins `bins`, then derives the CPT slab
    /// and priors from the counts as the fit does.
    ///
    /// Rejected before any inference could index with them: a node naming
    /// no column of `schema` (or a column twice), a key column not matching
    /// its group (see [`DiscreteColumn::decode_fit`]), a key of `bins` the
    /// network does not model by its bins, a parent forest with an
    /// out-of-range index or a cycle, and a marginal or joint whose length
    /// is not its code count (or the product of its own and its parent's).
    pub fn decode(
        d: &mut Dec<'_>,
        schema: &TableSchema,
        bins: &TableBins,
        groups: &[Arc<KeyBinMap>],
        cfg: BnConfig,
    ) -> Result<Self, DecodeError> {
        let nrows = d.varint("network rows")?;
        if nrows > MAX_EXACT_COUNT {
            return Err(invalid(format!("{nrows} rows exceed exact f64 counts")));
        }
        // A node is at least its name's length, tag, parent and two counts.
        let m = d.count("network nodes", 5)?;
        let mut cols: Vec<DiscreteColumn> = Vec::with_capacity(m);
        let mut parent = Vec::with_capacity(m);
        for _ in 0..m {
            let col = DiscreteColumn::decode_fit(d, groups, bins)?;
            if schema.index_of(&col.name).is_none() || cols.iter().any(|c| c.name == col.name) {
                return Err(invalid(format!(
                    "node {:?} is not a distinct column of the table",
                    col.name
                )));
            }
            cols.push(col);
            parent.push(match d.varint("node parent")? {
                0 => None,
                p => Some(usize::try_from(p - 1).unwrap_or(usize::MAX)),
            });
        }
        if let Some((i, p)) =
            (0..m).find_map(|i| parent[i].filter(|&p| p >= m || p == i).map(|p| (i, p)))
        {
            return Err(invalid(format!("node {i} has parent {p} of {m} nodes")));
        }
        if let Some((key, _)) = bins.iter().find(|(key, _)| {
            !cols
                .iter()
                .any(|c| &c.name == *key && c.key_bins().is_some())
        }) {
            return Err(invalid(format!(
                "key column {key:?} is not modeled by its bins"
            )));
        }
        let mut marginal = Vec::with_capacity(m);
        let mut joint = Vec::with_capacity(m);
        for i in 0..m {
            let k = cols[i].n_codes();
            marginal.push(decode_counts(d, k, "marginal counts")?);
            let cells = parent[i].map(|p| k.checked_mul(cols[p].n_codes()));
            joint.push(match cells {
                None => None,
                Some(cells) => Some(decode_counts(
                    d,
                    cells.unwrap_or(usize::MAX),
                    "joint counts",
                )?),
            });
        }
        let mut bn = Self::with_counts(cols, parent, marginal, joint, nrows as f64, cfg);
        if bn.topo.len() != m {
            return Err(invalid("the parent forest has a cycle"));
        }
        bn.recompute_derived();
        Ok(bn)
    }

    /// Adds `rows` rows, encoded as `codes` (column-major), to the marginal
    /// and child×parent joint counts, one column at a time, then refreshes
    /// what inference derives from the counts. Every count is an exact
    /// integer in an `f64`, so the order rows are added in cannot change a
    /// bit of it.
    fn count(&mut self, codes: &[Vec<u32>], rows: usize) {
        for (i, column) in codes.iter().enumerate() {
            let marginal = &mut self.marginal[i];
            for &c in column {
                marginal[c as usize] += 1.0;
            }
            if let (Some(p), Some(joint)) = (self.parent[i], self.joint[i].as_mut()) {
                let kp = self.cols[p].n_codes();
                for (&c, &cp) in column.iter().zip(&codes[p]) {
                    joint[c as usize * kp + cp as usize] += 1.0;
                }
            }
        }
        self.nrows += rows as f64;
        self.recompute_derived();
    }

    /// Refreshes everything inference reads from the current counts (after
    /// build and after each `insert` batch): the CPT slab, and every node's
    /// prior by the recurrence the downward pass uses —
    /// `prior_child = Σ_p prior_parent(p) · P(· | p)`, parents first.
    fn recompute_derived(&mut self) {
        let codes = self.nodes.iter().map(|n| n.k).sum();
        let cells = self.nodes.iter().map(|n| n.k * n.kp).sum();
        let mut cpt = std::mem::take(&mut self.cpt);
        let mut prior = std::mem::take(&mut self.prior);
        cpt.resize(cells, 0.0);
        prior.clear();
        prior.resize(codes, 0.0);
        for &i in &self.topo {
            let node = self.nodes[i];
            if node.parent == NONE {
                for (c, slot) in prior[node.codes()].iter_mut().enumerate() {
                    *slot = self.root_prob(i, c);
                }
                continue;
            }
            let cpt = &mut cpt[node.cells()];
            for p in 0..node.kp {
                for c in 0..node.k {
                    cpt[p * node.k + c] = self.cpt_cell(i, c, p);
                }
            }
            let of_parent = prior[self.nodes[node.parent].codes()].to_vec();
            axpy_rows(&mut prior[node.codes()], cpt, &of_parent);
        }
        self.prior_rows.clear();
        self.prior_rows.extend(prior.iter().map(|p| p * self.nrows));
        self.cpt = cpt;
        self.prior = prior;
    }

    /// Number of network nodes.
    pub fn num_nodes(&self) -> usize {
        self.cols.len()
    }

    /// Parent array (diagnostic / tests).
    pub fn structure(&self) -> &[Option<usize>] {
        &self.parent
    }

    fn k(&self, i: usize) -> usize {
        self.cols[i].n_codes()
    }

    /// Smoothed CPT entry `P(node_i = c | parent = p)`.
    fn cpt_cell(&self, i: usize, c: usize, p: usize) -> f64 {
        let parent = self.parent[i].expect("cpt only for non-roots");
        let kc = self.k(i);
        let j = self.joint[i].as_ref().expect("non-root has joint counts");
        let parent_total = self.marginal[parent][p];
        (j[c * self.k(parent) + p] + self.cfg.alpha) / (parent_total + self.cfg.alpha * kc as f64)
    }

    /// Smoothed root marginal `P(node_i = c)`.
    fn root_prob(&self, i: usize, c: usize) -> f64 {
        (self.marginal[i][c] + self.cfg.alpha) / (self.nrows + self.cfg.alpha * self.k(i) as f64)
    }

    /// The node modeling column `name` (a scan: a table has few columns).
    fn node_of(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|c| c.name == name)
    }

    /// Lowest common ancestor of two nodes of one tree.
    fn lca(&self, mut a: usize, mut b: usize) -> usize {
        while a != b {
            if self.nodes[a].depth >= self.nodes[b].depth {
                a = self.nodes[a].parent;
            } else {
                b = self.nodes[b].parent;
            }
        }
        a
    }

    /// Runs `f` with the shared propagation scratch, falling back to fresh
    /// local buffers when another thread holds it (keeps `profile` lock-free
    /// for concurrent readers of one table model).
    fn with_scratch<R>(&self, f: impl FnOnce(&mut PropScratch) -> R) -> R {
        match self.scratch.try_lock() {
            Ok(mut guard) => f(&mut guard),
            Err(_) => f(&mut PropScratch::new(&self.nodes, self.trees)),
        }
    }

    /// Node `i`'s evidence weights, set to all-ones (and the node counted
    /// into its tree's top) on first use within a request.
    fn evidence_slot<'s>(&self, s: &'s mut PropScratch, i: usize) -> &'s mut [f64] {
        let node = self.nodes[i];
        let slot = &mut s.lambda[node.codes()];
        if !s.live[i] {
            s.live[i] = true;
            slot.fill(1.0);
            let top = &mut s.top[node.tree];
            *top = if *top == NONE { i } else { self.lca(*top, i) };
        }
        slot
    }

    /// Clears `s` and multiplies the evidence of `filter` into it, conjunct
    /// by conjunct. Returns the fallback multiplier for what the network
    /// cannot express.
    fn compile_evidence(&self, filter: &FilterExpr, s: &mut PropScratch) -> f64 {
        s.live.fill(false);
        s.top.fill(NONE);
        let mut fallback = 1.0;
        each_conjunct(filter, &mut |clause| {
            match Columns::of(clause) {
                Columns::None => {}
                Columns::One(col) => match self.node_of(col) {
                    Some(i) => self.cols[i].apply_clause(clause, self.evidence_slot(s, i)),
                    None => {
                        // One charge per unmodeled column, however many
                        // conjuncts name it: skip when an earlier one did.
                        let mut first = true;
                        each_conjunct(filter, &mut |earlier| {
                            if std::ptr::eq(earlier, clause) {
                                return false;
                            }
                            first = !matches!(Columns::of(earlier), Columns::One(c) if c == col);
                            first
                        });
                        if first {
                            fallback *= self.cfg.fallback_selectivity;
                        }
                    }
                },
                Columns::Many => fallback *= self.cfg.fallback_selectivity,
            }
            true
        });
        fallback
    }

    /// Sum-product over the subtree spanning the compiled evidence and the
    /// requested keys `s.keys`. Returns `P(evidence)`; for every requested
    /// key in a tree with evidence, leaves `P(key = c, that tree's
    /// evidence)` in `s.belief` and the tree's evidence probability in
    /// `s.tree_p`.
    fn propagate(&self, s: &mut PropScratch) -> f64 {
        if s.top.iter().all(|&top| top == NONE) {
            return 1.0;
        }
        // Tops: a requested key lifts the top of its tree to their common
        // ancestor; a tree without evidence needs no propagation at all.
        for &t in s.keys.iter().filter(|&&t| t != NONE) {
            let top = &mut s.top[self.nodes[t].tree];
            if *top != NONE {
                *top = self.lca(*top, t);
            }
        }

        // Upward, children before parents: every live node below its top
        // sends msg(p) = Σ_c P(c | p) · λ(c) into its parent's λ. Subtrees
        // without evidence would send exactly 1 and stay silent. With
        // P(c | p) = (count(c, p) + α) / (total(p) + α·k), the sum runs over
        // the child-major counts and is smoothed once per parent code.
        for &i in self.topo.iter().rev() {
            let node = self.nodes[i];
            if !s.live[i] || s.top[node.tree] == i {
                continue;
            }
            let counts = self.joint[i].as_ref().expect("non-root has joint counts");
            let totals = &self.marginal[node.parent];
            let lambda = &s.lambda[node.codes()];
            let msg = &mut s.msg[node.message()];
            msg.fill(0.0);
            axpy_rows(msg, counts, lambda);
            let smoothing = self.cfg.alpha * lambda.iter().sum::<f64>();
            let pad = self.cfg.alpha * node.k as f64;
            for (m, &total) in msg.iter_mut().zip(totals) {
                *m = (*m + smoothing) / (total + pad);
            }
            let into = &mut s.lambda[self.nodes[node.parent].codes()];
            if s.live[node.parent] {
                for (l, &m) in into.iter_mut().zip(&s.msg[node.message()]) {
                    *l *= m;
                }
            } else {
                s.live[node.parent] = true;
                into.copy_from_slice(&s.msg[node.message()]);
            }
        }

        // Nothing above a top carries evidence, so its prior is its exact
        // root distribution: P(tree's evidence) = Σ prior_top · λ_top.
        let mut p_evidence = 1.0;
        for tree in 0..self.trees {
            if s.top[tree] != NONE {
                let codes = self.nodes[s.top[tree]].codes();
                let prior = &self.prior[codes.clone()];
                let p: f64 = prior
                    .iter()
                    .zip(&s.lambda[codes])
                    .map(|(&p, &l)| p * l)
                    .sum();
                s.tree_p[tree] = p;
                p_evidence *= p;
            }
        }

        // Downward, only from each top to the requested keys below it:
        // belief(c) = λ(c) · Σ_p π(p) · P(c | p), where π is the parent's
        // belief with this node's own message divided out.
        s.need.fill(false);
        for &t in s.keys.iter().filter(|&&t| t != NONE) {
            let (mut i, top) = (t, s.top[self.nodes[t].tree]);
            while top != NONE && !s.need[i] {
                s.need[i] = true;
                if i != top {
                    i = self.nodes[i].parent;
                }
            }
        }
        for &i in &self.topo {
            if !s.need[i] {
                continue;
            }
            let node = self.nodes[i];
            if s.top[node.tree] == i {
                let belief = s.belief[node.codes()].iter_mut();
                let prior = &self.prior[node.codes()];
                for ((b, &p), &l) in belief.zip(prior).zip(&s.lambda[node.codes()]) {
                    *b = p * l;
                }
                continue;
            }
            let pi = &mut s.pi_ex[..node.kp];
            pi.copy_from_slice(&s.belief[self.nodes[node.parent].codes()]);
            if s.live[i] {
                // Where the message is 0 the parent's belief is 0 too, and
                // so is that parent code's share of this node's belief.
                for (x, &m) in pi.iter_mut().zip(&s.msg[node.message()]) {
                    *x = if m > 0.0 { *x / m } else { 0.0 };
                }
            }
            let belief = &mut s.belief[node.codes()];
            belief.fill(0.0);
            axpy_rows(belief, &self.cpt[node.cells()], &s.pi_ex[..node.kp]);
            if s.live[i] {
                for (b, &l) in belief.iter_mut().zip(&s.lambda[node.codes()]) {
                    *b *= l;
                }
            }
        }
        p_evidence
    }

    /// Propagates the evidence compiled into `s` and writes the profile:
    /// `rows = P(evidence) · fallback · nrows`, and per requested key the
    /// same mass split over its bins (NULL code dropped); a key the network
    /// does not model gets one bin holding `rows`.
    fn infer_into(
        &self,
        s: &mut PropScratch,
        fallback: f64,
        key_cols: &[&str],
        out: &mut TableProfile,
    ) {
        s.keys.clear();
        let node_of = |key: &&str| self.node_of(key).unwrap_or(NONE);
        s.keys.extend(key_cols.iter().map(node_of));
        let p_evidence = self.propagate(s);
        out.reset(key_cols.len());
        out.rows = p_evidence * fallback * self.nrows;
        for (dist, &t) in out.key_dists.iter_mut().zip(&s.keys) {
            if t == NONE {
                dist.push(out.rows);
                continue;
            }
            let node = self.nodes[t];
            let bins = node.at..node.at + node.k - 1;
            if s.top[node.tree] == NONE {
                // No evidence in the key's tree (an unfiltered alias: in
                // no tree, and the scale is exactly 1).
                let scale = p_evidence * fallback;
                dist.extend(self.prior_rows[bins].iter().map(|&r| r * scale));
            } else {
                let own = s.tree_p[node.tree];
                let others = if own > 0.0 { p_evidence / own } else { 0.0 };
                let scale = others * fallback * self.nrows;
                dist.extend(s.belief[bins].iter().map(|&b| b * scale));
            }
        }
    }
}

impl BaseTableEstimator for BayesNetEstimator {
    fn name(&self) -> &'static str {
        "bayesnet"
    }

    fn key_bins(&self, key_col: &str) -> usize {
        match self.node_of(key_col) {
            Some(i) => self.k(i) - 1, // exclude the NULL code
            None => 1,
        }
    }

    fn profile_into(&self, filter: &FilterExpr, key_cols: &[&str], out: &mut TableProfile) {
        self.with_scratch(|s| {
            let fallback = self.compile_evidence(filter, s);
            self.infer_into(s, fallback, key_cols, out);
        });
    }

    fn clone_box(&self) -> Box<dyn BaseTableEstimator> {
        Box::new(self.clone())
    }

    fn insert(&mut self, table: &Table, first_new_row: usize) {
        // The delta is encoded and counted like the fit's rows. Nodes find
        // their columns by name: the schema may have float columns the
        // fit skipped.
        let rows = first_new_row..table.nrows();
        let codes: Vec<Vec<u32>> = self
            .cols
            .iter()
            .map(|dc| {
                let ci = table.schema().index_of(&dc.name).expect("schema unchanged");
                dc.encode_rows(table.column(ci), rows.clone())
            })
            .collect();
        self.count(&codes, rows.len());
    }

    fn encode(&self, out: &mut Enc, groups: &[Arc<KeyBinMap>]) {
        out.varint(self.nrows as u64);
        out.len(self.cols.len());
        for (col, parent) in self.cols.iter().zip(&self.parent) {
            col.encode_fit(out, groups);
            out.len(parent.map_or(0, |p| p + 1));
        }
        for (marginal, joint) in self.marginal.iter().zip(&self.joint) {
            encode_counts(out, marginal);
            if let Some(joint) = joint {
                encode_counts(out, joint);
            }
        }
    }

    fn model_bytes(&self) -> usize {
        let counts: usize = self
            .marginal
            .iter()
            .map(|v| v.len() * 8)
            .chain(self.joint.iter().flatten().map(|v| v.len() * 8))
            .sum();
        let cols: usize = self.cols.iter().map(DiscreteColumn::heap_bytes).sum();
        counts + cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binmap::KeyBinMap;
    use fj_query::{CmpOp, Predicate};
    use fj_storage::{ColumnDef, DataType, TableSchema, Value};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng};
    use std::collections::HashMap;

    /// The per-cell reader `decode_counts` replaced, collecting as it goes.
    fn per_cell(d: &mut Dec<'_>, expected: usize) -> Result<Vec<f64>, DecodeError> {
        let n = d.count("cells", 1)?;
        if n != expected {
            return Err(invalid(format!(
                "cells: {n} cells, but the code counts give {expected}"
            )));
        }
        (0..n)
            .map(|_| match d.varint("cells")? {
                c if c > MAX_EXACT_COUNT => Err(invalid(format!("cells: count {c} is not exact"))),
                c => Ok(c as f64),
            })
            .collect()
    }

    /// Counts read into a slab sized once equal the collected ones, and
    /// every fault — a wrong length, an inexact count, truncation, a
    /// hostile length — is the same error.
    #[test]
    fn presized_counts_match_the_per_cell_reader() {
        let mut state = 9u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 24
        };
        for round in 0..2000 {
            let mut e = Enc::default();
            let n = (next() % 40) as usize;
            e.len(if round % 9 == 8 { n + 1 } else { n });
            for _ in 0..n {
                e.varint(match next() % 8 {
                    0 => MAX_EXACT_COUNT + next() % 2,
                    1 => next(),
                    _ => next() % 300,
                });
            }
            let mut b = e.finish();
            if round % 3 == 2 {
                b.truncate(next() as usize % (b.len() + 1));
            }
            if round % 5 == 4 {
                let at = next() as usize % b.len().max(1);
                if let Some(byte) = b.get_mut(at) {
                    *byte = [0xFF, 0x80, 0x7F][next() as usize % 3];
                }
            }
            let bits = |r: Result<Vec<f64>, DecodeError>| {
                r.map(|v| v.into_iter().map(f64::to_bits).collect::<Vec<_>>())
            };
            assert_eq!(
                bits(decode_counts(&mut Dec::new(&b), n, "cells")),
                bits(per_cell(&mut Dec::new(&b), n)),
                "round {round}"
            );
        }
    }

    /// Table with a strong key↔attribute correlation: attr = key % 4.
    fn correlated_table(n: usize) -> Table {
        let mut rng = StdRng::seed_from_u64(5);
        let schema = TableSchema::new(vec![
            ColumnDef::key("id"),
            ColumnDef::new("attr", DataType::Int),
            ColumnDef::new("noise", DataType::Int),
        ]);
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|_| {
                let key = rng.gen_range(0..40i64);
                vec![
                    Value::Int(key),
                    Value::Int(key % 4),
                    Value::Int(rng.gen_range(0..1000)),
                ]
            })
            .collect();
        Table::from_rows("t", schema, &rows).unwrap()
    }

    fn bins_mod(k: usize) -> TableBins {
        let mut tb = TableBins::new();
        let map: HashMap<i64, u32> = (0..40).map(|v| (v, (v % k as i64) as u32)).collect();
        tb.insert("id", KeyBinMap::new(k, map));
        tb
    }

    fn exact_count(t: &Table, f: &FilterExpr) -> f64 {
        fj_query::filtered_count(t, f) as f64
    }

    #[test]
    fn unfiltered_profile_matches_row_count() {
        let t = correlated_table(4000);
        let bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        let est = bn.estimate_filter(&FilterExpr::True);
        assert!((est - 4000.0).abs() < 1.0, "est {est}");
        let d = bn.profile(&FilterExpr::True, &["id"]).key_dists.remove(0);
        assert_eq!(d.len(), 8);
        let sum: f64 = d.iter().sum();
        assert!((sum - 4000.0).abs() / 4000.0 < 0.02, "sum {sum}");
    }

    #[test]
    fn equality_filter_estimates_close() {
        let t = correlated_table(4000);
        let bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        let f = FilterExpr::pred(Predicate::eq("attr", 2));
        let est = bn.estimate_filter(&f);
        let exact = exact_count(&t, &f);
        assert!(
            (est - exact).abs() / exact < 0.1,
            "est {est} vs exact {exact}"
        );
    }

    #[test]
    fn captures_key_attribute_correlation() {
        // attr = key % 4, so filtering attr = 0 keeps only keys ≡ 0 (mod 4).
        // An independence-assuming model would spread mass over all bins.
        let t = correlated_table(8000);
        let k = 8;
        // Bin i holds keys with key % 8 == i, so attr=0 ⇒ bins {0, 4} only.
        let bn = BayesNetEstimator::build(&t, &bins_mod(k), BnConfig::default());
        let f = FilterExpr::pred(Predicate::eq("attr", 0));
        let d = bn.profile(&f, &["id"]).key_dists.remove(0);
        let total: f64 = d.iter().sum();
        let in_04 = d[0] + d[4];
        assert!(in_04 / total > 0.9, "correlation not captured: {d:?}");
    }

    #[test]
    fn conditional_distribution_matches_truth() {
        let t = correlated_table(8000);
        let bn = BayesNetEstimator::build(&t, &bins_mod(4), BnConfig::default());
        let f = FilterExpr::pred(Predicate::eq("attr", 1));
        let d = bn.profile(&f, &["id"]).key_dists.remove(0);
        // Ground truth per bin.
        let id = t.column_by_name("id").unwrap().ints();
        let attr = t.column_by_name("attr").unwrap().ints();
        let mut truth = [0.0; 4];
        for i in 0..t.nrows() {
            if attr[i] == 1 {
                truth[(id[i] % 4) as usize] += 1.0;
            }
        }
        for b in 0..4 {
            assert!(
                (d[b] - truth[b]).abs() <= truth[b].max(20.0) * 0.25,
                "bin {b}: est {} vs truth {}",
                d[b],
                truth[b]
            );
        }
    }

    #[test]
    fn range_and_in_filters() {
        let t = correlated_table(4000);
        let bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        for f in [
            FilterExpr::pred(Predicate::cmp("attr", CmpOp::Ge, 2)),
            FilterExpr::pred(Predicate::in_list(
                "attr",
                vec![Value::Int(0), Value::Int(3)],
            )),
            FilterExpr::and(vec![
                FilterExpr::pred(Predicate::cmp("attr", CmpOp::Ge, 1)),
                FilterExpr::pred(Predicate::cmp("noise", CmpOp::Lt, 500)),
            ]),
        ] {
            let est = bn.estimate_filter(&f);
            let exact = exact_count(&t, &f);
            let q = (est.max(1.0) / exact.max(1.0)).max(exact.max(1.0) / est.max(1.0));
            assert!(q < 1.5, "{f}: est {est} vs exact {exact} (q={q:.2})");
        }
    }

    #[test]
    fn same_column_disjunction_is_evidence() {
        let t = correlated_table(4000);
        let bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        let f = FilterExpr::or(vec![
            FilterExpr::pred(Predicate::eq("attr", 0)),
            FilterExpr::pred(Predicate::eq("attr", 1)),
        ]);
        let est = bn.estimate_filter(&f);
        let exact = exact_count(&t, &f);
        assert!(
            (est - exact).abs() / exact < 0.1,
            "est {est} vs exact {exact}"
        );
    }

    #[test]
    fn cross_column_disjunction_falls_back() {
        let t = correlated_table(1000);
        let bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        let f = FilterExpr::or(vec![
            FilterExpr::pred(Predicate::eq("attr", 0)),
            FilterExpr::pred(Predicate::eq("noise", 7)),
        ]);
        // Fallback returns the constant-selectivity guess; it must be a
        // sane positive number, not a crash.
        let est = bn.estimate_filter(&f);
        assert!(est > 0.0 && est <= 1000.0);
    }

    #[test]
    fn insert_updates_counts() {
        let mut t = correlated_table(2000);
        let mut bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        let before = bn.estimate_filter(&FilterExpr::True);
        let f7_filter = FilterExpr::pred(Predicate::eq("noise", 7));
        let f7_before = bn.estimate_filter(&f7_filter);
        let new_rows: Vec<Vec<Value>> = (0..1000)
            .map(|i| vec![Value::Int(i % 40), Value::Int((i % 40) % 4), Value::Int(7)])
            .collect();
        t.append_rows(&new_rows).unwrap();
        bn.insert(&t, 2000);
        let after = bn.estimate_filter(&FilterExpr::True);
        assert!((after - before - 1000.0).abs() < 1.0, "after {after}");
        // The noise=7 spike grows the containing bucket's mass. Per-bucket
        // NDV metadata is frozen at build time (the paper's §4.3 "bins are
        // optimized on the previous data" caveat), so the estimate rises by
        // roughly the bucket-mass factor, not to the exact new count.
        let f7_after = bn.estimate_filter(&f7_filter);
        assert!(
            f7_after > 10.0 * f7_before.max(1.0),
            "noise=7 estimate {f7_after} (before {f7_before})"
        );
    }

    #[test]
    fn null_aware_distribution() {
        let schema = TableSchema::new(vec![
            ColumnDef::key("id"),
            ColumnDef::new("a", DataType::Int),
        ]);
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                let id = if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 10)
                };
                vec![id, Value::Int(i % 2)]
            })
            .collect();
        let t = Table::from_rows("t", schema, &rows).unwrap();
        let mut tb = TableBins::new();
        let map: HashMap<i64, u32> = (0..10).map(|v| (v, (v % 2) as u32)).collect();
        tb.insert("id", KeyBinMap::new(2, map));
        let bn = BayesNetEstimator::build(&t, &tb, BnConfig::default());
        let d = bn.profile(&FilterExpr::True, &["id"]).key_dists.remove(0);
        // 20 NULL ids excluded: distribution sums to ≈ 80.
        let sum: f64 = d.iter().sum();
        assert!((sum - 80.0).abs() < 3.0, "sum {sum}");
    }

    #[test]
    fn duplicate_key_columns_profile_identically() {
        // Requesting the same key twice must return two identical
        // distributions, each equal to the single-request one (guards the
        // belief-scaling pass against double-applying per-target factors).
        let t = correlated_table(3000);
        let bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        let f = FilterExpr::pred(Predicate::eq("attr", 1));
        let p1 = bn.profile(&f, &["id"]);
        let p2 = bn.profile(&f, &["id", "id"]);
        assert_eq!(p2.key_dists[0], p1.key_dists[0]);
        assert_eq!(p2.key_dists[1], p1.key_dists[0]);
    }

    #[test]
    fn model_bytes_nonzero_and_bounded() {
        let t = correlated_table(2000);
        let bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        let b = bn.model_bytes();
        assert!(b > 100, "too small: {b}");
        assert!(b < 4_000_000, "unexpectedly large: {b}");
    }

    /// A key column's bin map is its group's, shared with the model: the
    /// network's size does not depend on how many values the map assigns.
    #[test]
    fn model_bytes_does_not_charge_the_shared_key_map() {
        let t = correlated_table(2000);
        let small = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        let mut wide = TableBins::new();
        let map: HashMap<i64, u32> = (0..100_000).map(|v| (v, (v % 8) as u32)).collect();
        wide.insert("id", KeyBinMap::new(8, map));
        let large = BayesNetEstimator::build(&t, &wide, BnConfig::default());
        assert_eq!(small.model_bytes(), large.model_bytes());
    }

    /// The encoded network decodes to one that answers bit for bit and
    /// re-encodes to the same bytes, with the derived CPT slab and priors
    /// recomputed, after inserts as after the fit.
    #[test]
    fn encode_decode_is_bit_identical_after_inserts() {
        let mut t = correlated_table(3000);
        let bins = bins_mod(8);
        let groups: Vec<Arc<KeyBinMap>> = vec![Arc::clone(bins.get_shared("id").unwrap())];
        let mut bn = BayesNetEstimator::build(&t, &bins, BnConfig::default());
        let filters = [
            FilterExpr::True,
            FilterExpr::pred(Predicate::eq("attr", 3)),
            FilterExpr::pred(Predicate::cmp("noise", CmpOp::Ge, 40)),
        ];
        for round in 0..2 {
            let mut e = Enc::default();
            bn.encode(&mut e, &groups);
            let bytes = e.finish();
            let back = BayesNetEstimator::decode(
                &mut Dec::new(&bytes),
                t.schema(),
                &bins,
                &groups,
                BnConfig::default(),
            )
            .unwrap();
            let mut again = Enc::default();
            back.encode(&mut again, &groups);
            assert_eq!(again.finish(), bytes, "round {round}");
            assert_eq!(back.cpt, bn.cpt);
            assert_eq!(back.prior_rows, bn.prior_rows);
            for f in &filters {
                let (a, b) = (bn.profile(f, &["id"]), back.profile(f, &["id"]));
                assert_eq!(a.rows.to_bits(), b.rows.to_bits());
                assert_eq!(a.key_dists, b.key_dists);
            }
            // Decoding against other key bins than the fit's is refused.
            let other = bins_mod(8);
            let refused = BayesNetEstimator::decode(
                &mut Dec::new(&bytes),
                t.schema(),
                &other,
                &groups,
                BnConfig::default(),
            );
            assert!(refused.is_err());
            let first = t.nrows();
            let rows: Vec<Vec<Value>> = (0..t.nrows().min(500)).map(|r| t.row(r)).collect();
            t.append_rows(&rows).unwrap();
            bn.insert(&t, first);
        }
    }

    #[test]
    fn profile_consistent_with_parts() {
        let t = correlated_table(3000);
        let bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        let f = FilterExpr::pred(Predicate::eq("attr", 3));
        let p = bn.profile(&f, &["id"]);
        assert!((p.rows - bn.estimate_filter(&f)).abs() < 1e-9);
        // Asking for a second column moves the top of the propagated
        // subtree; the shared key's distribution moves by rounding only.
        let d = bn.profile(&f, &["noise", "id"]).key_dists.remove(1);
        for (a, b) in p.key_dists[0].iter().zip(&d) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    // ------------------------------------------------- exactness oracle

    /// Brute-force enumeration of the joint the network encodes: returns
    /// `P(evidence)` and, per node, `P(node = c, evidence)`, with `ev[i]`
    /// the per-code evidence weights of node i (`None`: no evidence).
    fn enumerate_joint(bn: &BayesNetEstimator, ev: &[Option<Vec<f64>>]) -> (f64, Vec<Vec<f64>>) {
        let m = bn.num_nodes();
        let mut state = vec![0usize; m];
        let mut p_evidence = 0.0;
        let mut with_evidence: Vec<Vec<f64>> = (0..m).map(|i| vec![0.0; bn.k(i)]).collect();
        loop {
            let mut p = 1.0;
            for i in 0..m {
                p *= match bn.parent[i] {
                    None => bn.root_prob(i, state[i]),
                    Some(pa) => bn.cpt_cell(i, state[i], state[pa]),
                };
                if let Some(w) = &ev[i] {
                    p *= w[state[i]];
                }
            }
            p_evidence += p;
            for i in 0..m {
                with_evidence[i][state[i]] += p;
            }
            let mut digit = 0;
            loop {
                if digit == m {
                    return (p_evidence, with_evidence);
                }
                state[digit] += 1;
                if state[digit] < bn.k(digit) {
                    break;
                }
                state[digit] = 0;
                digit += 1;
            }
        }
    }

    /// Fits the forest `parent` over int columns `c0, c1, …` holding `rows`
    /// (value 3 reads as NULL, so a column has ≤ 4 codes).
    fn forest(parent: Vec<Option<usize>>, rows: &[Vec<i64>]) -> BayesNetEstimator {
        let m = parent.len();
        let schema = TableSchema::new(
            (0..m)
                .map(|i| ColumnDef::new(&format!("c{i}"), DataType::Int))
                .collect(),
        );
        let rows: Vec<Vec<Value>> = rows
            .iter()
            .map(|r| {
                let cell = |&v: &i64| if v == 3 { Value::Null } else { Value::Int(v) };
                r[..m].iter().map(cell).collect()
            })
            .collect();
        let t = Table::from_rows("t", schema, &rows).unwrap();
        let disc = Discretizer::default();
        let cols: Vec<DiscreteColumn> =
            (0..m).map(|ci| disc.build(&t, ci, None).unwrap()).collect();
        let codes: Vec<Vec<u32>> = cols
            .iter()
            .enumerate()
            .map(|(ci, dc)| dc.encode_rows(t.column(ci), 0..t.nrows()))
            .collect();
        BayesNetEstimator::from_codes(cols, parent, &codes, BnConfig::default())
    }

    proptest! {

        /// Spanning-subtree propagation ≡ brute-force enumeration of the
        /// joint, on random forests of ≤ 5 nodes × ≤ 4 codes in 1–3 trees,
        /// with fractional evidence on any subset of nodes and any multiset
        /// of requested keys (duplicates, unmodeled names).
        #[test]
        fn propagation_matches_enumeration_of_the_joint(
            m in 1usize..6,
            links in prop::collection::vec(0usize..16, 5..6),
            rows in prop::collection::vec(prop::collection::vec(0i64..4, 5..6), 1..40),
            evidence in prop::collection::vec(
                (0u32..3, prop::collection::vec(0u32..8, 4..5)),
                5..6,
            ),
            keys in prop::collection::vec(0usize..7, 0..5),
            charged in 0u32..2,
        ) {
            // Node i > 0 hangs under an earlier node or starts a tree of
            // its own while fewer than three exist.
            let mut roots = 1;
            let parent: Vec<Option<usize>> = (0..m)
                .map(|i| {
                    let pick = links[i] % (i + 2);
                    if i == 0 || (pick >= i && roots < 3) {
                        roots += usize::from(i > 0);
                        None
                    } else {
                        Some(pick % i)
                    }
                })
                .collect();
            let bn = forest(parent, &rows);
            // A third of the nodes carry evidence: weights 0, 1 and
            // fractions in between.
            let ev: Vec<Option<Vec<f64>>> = (0..m)
                .map(|i| {
                    let (on, weights) = &evidence[i];
                    (*on == 0).then(|| {
                        let weight = |&w: &u32| match w {
                            0 => 0.0,
                            1 => 1.0,
                            w => f64::from(w) / 9.0,
                        };
                        weights[..bn.k(i)].iter().map(weight).collect()
                    })
                })
                .collect();
            let names: Vec<String> = keys.iter().map(|k| format!("c{k}")).collect();
            let key_cols: Vec<&str> = names.iter().map(String::as_str).collect();
            let fallback = if charged == 1 { 0.25 } else { 1.0 };

            let mut out = TableProfile::default();
            bn.with_scratch(|s| {
                bn.compile_evidence(&FilterExpr::True, s);
                for (i, w) in ev.iter().enumerate() {
                    if let Some(w) = w {
                        for (l, &x) in bn.evidence_slot(s, i).iter_mut().zip(w) {
                            *l *= x;
                        }
                    }
                }
                bn.infer_into(s, fallback, &key_cols, &mut out);
            });

            let (p_evidence, joint) = enumerate_joint(&bn, &ev);
            let close = |got: f64, want: f64| (got - want).abs() <= 1e-12 * want.abs() + 1e-300;
            let rows_want = p_evidence * fallback * bn.nrows;
            prop_assert!(close(out.rows, rows_want), "rows {} vs {}", out.rows, rows_want);
            prop_assert_eq!(out.key_dists.len(), keys.len());
            for (dist, &k) in out.key_dists.iter().zip(&keys) {
                if k >= m {
                    prop_assert!(dist.len() == 1 && close(dist[0], rows_want));
                    continue;
                }
                prop_assert_eq!(dist.len(), bn.k(k) - 1);
                for (c, &got) in dist.iter().enumerate() {
                    let want = joint[k][c] * fallback * bn.nrows;
                    prop_assert!(
                        close(got, want),
                        "key c{} code {}: {} vs {} ({:?}, ev {:?})", k, c, got, want, bn.parent, ev
                    );
                }
            }
        }
    }

    fn bits(p: &TableProfile) -> (u64, Vec<Vec<u64>>) {
        let dists = p.key_dists.iter();
        (
            p.rows.to_bits(),
            dists
                .map(|d| d.iter().map(|x| x.to_bits()).collect())
                .collect(),
        )
    }

    /// Filters and key lists covering every inference shape: unfiltered,
    /// one and two evidence columns, a same-column and a cross-column
    /// disjunction, keys modeled, repeated and unknown.
    fn requests() -> Vec<(FilterExpr, Vec<&'static str>)> {
        let attr = |v: i64| FilterExpr::pred(Predicate::eq("attr", v));
        let noise = FilterExpr::pred(Predicate::between("noise", 100, 700));
        vec![
            (FilterExpr::True, vec!["id"]),
            (attr(1), vec!["id"]),
            (FilterExpr::True, vec![]),
            (
                FilterExpr::and(vec![attr(2), noise.clone()]),
                vec!["id", "id"],
            ),
            (FilterExpr::or(vec![attr(0), attr(3)]), vec!["noise", "id"]),
            (
                FilterExpr::or(vec![attr(0), noise.clone()]),
                vec!["id", "nope"],
            ),
            (noise, vec![]),
        ]
    }

    #[test]
    fn results_do_not_depend_on_scratch_state() {
        let t = correlated_table(3000);
        let bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        let requests = requests();
        // Cold: a clone that has answered nothing yet.
        let cold: Vec<_> = requests
            .iter()
            .map(|(f, keys)| bits(&bn.clone().profile(f, keys)))
            .collect();
        // Warm: one estimator, one output buffer, after every other
        // request has run through both.
        let mut out = TableProfile::default();
        for (f, keys) in requests.iter().rev() {
            bn.profile_into(f, keys, &mut out);
        }
        for ((f, keys), cold) in requests.iter().zip(&cold) {
            bn.profile_into(f, keys, &mut out);
            assert_eq!(&bits(&out), cold, "warm {f}");
        }
        // Contended: another reader holds the scratch, so `try_lock` fails
        // and the request runs on fresh buffers.
        let held = bn.scratch.lock().unwrap();
        for ((f, keys), cold) in requests.iter().zip(&cold) {
            assert_eq!(&bits(&bn.profile(f, keys)), cold, "contended {f}");
        }
        drop(held);
    }

    #[test]
    fn insert_refreshes_every_cache() {
        // After an insert the estimator must answer exactly like one fitted
        // to the same counts from scratch — filtered (CPT slabs, priors of
        // the tops) and unfiltered (cached key marginals).
        let mut t = correlated_table(2000);
        let mut bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        let new_rows: Vec<Vec<Value>> = (0..700)
            .map(|i| {
                vec![
                    Value::Int(i % 37),
                    Value::Int(i % 3),
                    Value::Int(i * 7 % 900),
                ]
            })
            .collect();
        t.append_rows(&new_rows).unwrap();
        bn.insert(&t, 2000);
        let codes: Vec<Vec<u32>> = bn
            .cols
            .iter()
            .map(|dc| dc.encode_rows(t.column_by_name(&dc.name).unwrap(), 0..t.nrows()))
            .collect();
        let refit =
            BayesNetEstimator::from_codes(bn.cols.clone(), bn.parent.clone(), &codes, bn.cfg);
        for (f, keys) in requests() {
            assert_eq!(
                bits(&bn.profile(&f, &keys)),
                bits(&refit.profile(&f, &keys)),
                "{f}"
            );
        }
    }

    #[test]
    fn insert_encodes_strings_the_fit_never_saw() {
        // A small string dictionary frozen at fit: appended strings it
        // never saw land where `encode` puts them, never on the NULL code
        // or past the counts.
        let schema = TableSchema::new(vec![ColumnDef::new("s", DataType::Str)]);
        let strings = ["a", "b", "c"];
        let rows: Vec<Vec<Value>> = (0..300)
            .map(|i| vec![Value::Str(strings[i % 3].into())])
            .collect();
        let mut t = Table::from_rows("t", schema, &rows).unwrap();
        let mut bn = BayesNetEstimator::build(&t, &TableBins::new(), BnConfig::default());
        let rows_where =
            |bn: &BayesNetEstimator, p: Predicate| bn.estimate_filter(&FilterExpr::pred(p));
        let is_null = || Predicate::IsNull {
            column: "s".into(),
            negated: false,
        };
        let w = bn.cols[0].encode(&Value::Str("w".into()));
        assert!(w < 3, "an unseen string takes a string's code");
        t.append_rows(&vec![vec![Value::Str("w".into())]; 100])
            .unwrap();
        bn.insert(&t, 300);
        assert!(rows_where(&bn, is_null()) < 1.0, "no row is NULL");
        let shared = rows_where(&bn, Predicate::eq("s", strings[w]));
        assert!(
            (shared - 200.0).abs() < 1.0,
            "'w' shares {}'s code: {shared}",
            strings[w]
        );
        // A second unseen string, and a NULL.
        t.append_rows(&[vec![Value::Str("zz".into())], vec![Value::Null]])
            .unwrap();
        bn.insert(&t, 400);
        assert_eq!(bn.estimate_filter(&FilterExpr::True), 402.0);
        assert!((rows_where(&bn, is_null()) - 1.0).abs() < 0.2);
    }

    #[test]
    fn unfiltered_rows_are_exactly_the_row_count() {
        // The oracle holds exact ties on unfiltered aliases: no rounding
        // may creep into `nrows × fallback`.
        let t = correlated_table(2357);
        let bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        let p = bn.profile(&FilterExpr::True, &["id"]);
        assert_eq!(p.rows, 2357.0);
        assert_eq!(p.key_dists[0], bn.prior_rows[..8]);
    }

    #[test]
    fn unmodeled_columns_charge_the_fallback_once_each() {
        let t = correlated_table(1000);
        let bn = BayesNetEstimator::build(&t, &bins_mod(8), BnConfig::default());
        let on = |col: &str, v: i64| FilterExpr::pred(Predicate::cmp(col, CmpOp::Gt, v));
        let rows = |f: &FilterExpr| bn.estimate_filter(f);
        assert_eq!(rows(&on("x", 1)), 250.0);
        assert_eq!(rows(&FilterExpr::and(vec![on("x", 1), on("x", 5)])), 250.0);
        assert_eq!(rows(&FilterExpr::and(vec![on("x", 1), on("y", 5)])), 62.5);
        // A cross-column disjunction is charged per conjunct.
        let cross = FilterExpr::or(vec![on("attr", 1), on("noise", 5)]);
        assert_eq!(
            rows(&FilterExpr::and(vec![cross.clone(), on("x", 1), cross])),
            15.625
        );
    }
}
