//! Factors and the probabilistic-bound factor join (paper §4.1, Eq. 5).
//!
//! A [`Factor`] represents one table (or one already-joined sub-plan) in
//! the query's factor graph: an estimated row count plus, per adjacent
//! equivalent-key-group variable, the conditional binned distribution
//! `d[i] ≈ P(key ∈ binᵢ | filter) · |Q(T)|` and the offline MFV counts
//! `V*[i]`. Joining two factors on their shared variables applies the
//! probabilistic bound per bin:
//!
//! ```text
//! bound[i] = min(dₗ[i]/V*ₗ[i], dᵣ[i]/V*ᵣ[i]) · V*ₗ[i] · V*ᵣ[i]
//! ```
//!
//! (tightened by the always-valid cap `dₗ[i]·dᵣ[i]`), giving both the
//! sub-plan's cardinality bound (`Σᵢ bound[i]`) and — because the per-bin
//! bounds form an unnormalized distribution over the joined table's keys —
//! a new cached factor for progressive estimation (paper §5.2).
//!
//! ## What the join guarantees
//!
//! On one shared variable with exact inputs, each bin's Eq. 5 term bounds
//! the true join size inside that bin, so the joined `rows` is an upper
//! bound (paper §4.1). Variables the join does not eliminate — an alias's
//! other join keys — carry over rescaled by the implied fan-out (the
//! step's bound over their side's total), so each still sums to the new
//! row count, and their MFVs multiply by the other side's maximal MFV.
//! That rescale spreads the fan-out over a residual variable's bins in
//! proportion to its old distribution: it assumes the eliminated key and
//! the residual key are independent, and it is **not** a bound. When they
//! are correlated, a later join on the residual variable can
//! under-estimate; `ROADMAP.md` item 1, evidence (B), counts such
//! sub-plans, each with an alias joined on two different keys.
//!
//! ## Layout
//!
//! This is the hottest loop of online estimation (an optimizer issues
//! hundreds of sub-plan queries per query, §5.2), so the representation is
//! flat: per-variable metadata (`VarMeta`) sorted by variable id plus one
//! contiguous `f64` slab holding each variable's `(dist, mfv)` pair.
//! Shared-variable discovery is a sorted merge, fan-out rescaling is a
//! **lazy per-variable scale multiplier** applied on read (instead of the
//! former eager O(vars × bins) rewrite per elimination step), and per-var
//! totals / MFV maxima are cached so the join never re-scans a
//! distribution it does not consume. Joins write through a reusable
//! [`JoinScratch`]; cached sub-plan factors live in a [`FactorArena`] so
//! progressive estimation performs no per-sub-plan heap allocation once
//! the scratch is warm.
//!
//! The per-bin loops themselves are written for the autovectorizer: the
//! Eq. 5 bound is a branch-free min/max lattice (`bin_bound` — the clamps
//! subsume the old zero-mass test), reductions run in fixed-width chunks
//! with independent accumulators (`sum_chunked`/`max_chunked`), and the
//! residual-copy paths bulk-copy then clamp in place instead of pushing
//! element-wise. The whole join, those helpers inlined, is built twice by
//! `fj_storage::dispatch!`: for baseline x86-64 (two `f64` lanes) and for
//! AVX2 (four), chosen per CPU at each join. Neither copy uses FMA or
//! reorders an operation, so both return the same bits (a NaN's payload
//! aside). The `RefFactor`
//! BTreeMap oracle tests pin all of this to the original semantics at
//! ≤ 1e-9 relative error.

/// Maximum variable id a factor can carry (ids are dense per query — the
/// number of equivalent key groups, far below this in practice).
pub const MAX_VARS: usize = 256;

const KEEP_WORDS: usize = MAX_VARS / 64;

/// Set of variable ids that survive a join, as a flat bitmask.
///
/// Replaces the former `&dyn Fn(usize) -> bool` predicate: membership is a
/// shift-and-mask instead of a dynamic dispatch in the inner loop, and the
/// set can be built once per sub-plan from the query graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KeepVars {
    words: [u64; KEEP_WORDS],
}

impl KeepVars {
    /// The empty set (drop every variable).
    pub fn none() -> Self {
        KeepVars::default()
    }

    /// The full set (keep every variable).
    pub fn all() -> Self {
        KeepVars {
            words: [u64::MAX; KEEP_WORDS],
        }
    }

    /// Adds variable `v` to the kept set.
    pub fn insert(&mut self, v: usize) {
        assert!(v < MAX_VARS, "variable id {v} exceeds MAX_VARS={MAX_VARS}");
        self.words[v / 64] |= 1u64 << (v % 64);
    }

    /// Whether variable `v` is kept.
    #[inline]
    pub fn contains(&self, v: usize) -> bool {
        debug_assert!(v < MAX_VARS);
        self.words[v / 64] & (1u64 << (v % 64)) != 0
    }

    /// Builds the set `{v < max_var : pred(v)}` (test/adapter convenience).
    pub fn from_fn(max_var: usize, pred: impl Fn(usize) -> bool) -> Self {
        let mut kv = KeepVars::none();
        for v in 0..max_var {
            if pred(v) {
                kv.insert(v);
            }
        }
        kv
    }
}

/// Per-variable metadata of a flat factor. `off` indexes the owning slab:
/// the distribution occupies `slab[off..off+k]`, the MFV counts
/// `slab[off+k..off+2k]`. Stored values are *raw*; effective values are
/// `dist_raw · dist_scale` and `mfv_raw · mfv_scale` (lazy fan-out
/// scaling). `dist_total` and `mfv_max` cache the raw sum / max so
/// elimination steps never re-scan distributions they only normalize by.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VarMeta {
    pub(crate) var: u32,
    pub(crate) off: u32,
    pub(crate) k: u32,
    pub(crate) dist_scale: f64,
    pub(crate) dist_total: f64,
    pub(crate) mfv_scale: f64,
    pub(crate) mfv_max: f64,
}

/// A borrowed flat factor: either a standalone [`Factor`] or an entry of a
/// [`FactorArena`] (whose metas index the shared arena slab).
#[derive(Clone, Copy)]
pub(crate) struct FactorView<'a> {
    pub(crate) rows: f64,
    pub(crate) meta: &'a [VarMeta],
    pub(crate) slab: &'a [f64],
}

/// One factor-graph node: row estimate plus per-variable distributions.
#[derive(Debug, Clone)]
pub struct Factor {
    /// Estimated rows of the (joined) relation this factor describes.
    pub rows: f64,
    meta: Vec<VarMeta>,
    slab: Vec<f64>,
}

/// Grows `v` (counting the growth event) so `additional` more elements fit
/// without reallocation. The counter is how tests assert the hot path is
/// allocation-free once scratch buffers are warm.
fn reserve_counted<T>(v: &mut Vec<T>, additional: usize, events: &mut u64) {
    if v.capacity() - v.len() < additional {
        *events += 1;
        v.reserve(additional);
    }
}

impl Factor {
    /// Builds a base-table factor. Each entry is
    /// `(variable id, conditional bin distribution, offline MFV counts)`;
    /// the two vectors must have equal length. Later duplicates of a
    /// variable id overwrite earlier ones.
    pub fn base(rows: f64, entries: Vec<(usize, Vec<f64>, Vec<f64>)>) -> Self {
        let mut entries = entries;
        // Stable sort + keep the last occurrence per var id.
        entries.sort_by_key(|&(v, _, _)| v);
        let mut meta: Vec<VarMeta> = Vec::with_capacity(entries.len());
        let mut slab = Vec::new();
        for (v, d, m) in entries {
            assert_eq!(
                d.len(),
                m.len(),
                "distribution/MFV length mismatch for var {v}"
            );
            assert!(v < MAX_VARS, "variable id {v} exceeds MAX_VARS={MAX_VARS}");
            if meta.last().map(|x: &VarMeta| x.var as usize) == Some(v) {
                let prev = meta.pop().expect("just checked");
                slab.truncate(prev.off as usize);
            }
            let off = slab.len() as u32;
            let total: f64 = d.iter().sum();
            let mfv_max = m.iter().fold(0.0f64, |a, &b| a.max(b));
            let k = d.len() as u32;
            slab.extend_from_slice(&d);
            slab.extend_from_slice(&m);
            meta.push(VarMeta {
                var: v as u32,
                off,
                k,
                dist_scale: 1.0,
                dist_total: total,
                mfv_scale: 1.0,
                mfv_max,
            });
        }
        Factor {
            rows: rows.max(0.0),
            meta,
            slab,
        }
    }

    /// A factor with no variables (single-table sub-plan).
    pub fn scalar(rows: f64) -> Self {
        Factor {
            rows: rows.max(0.0),
            meta: Vec::new(),
            slab: Vec::new(),
        }
    }

    /// Builds an owned factor from the output buffers of a join.
    pub(crate) fn from_scratch(rows: f64, s: &JoinScratch) -> Self {
        Factor {
            rows: rows.max(0.0),
            meta: s.out_meta.clone(),
            slab: s.out_slab.clone(),
        }
    }

    pub(crate) fn view(&self) -> FactorView<'_> {
        FactorView {
            rows: self.rows,
            meta: &self.meta,
            slab: &self.slab,
        }
    }

    /// Variable ids this factor carries (sorted ascending).
    pub fn vars(&self) -> Vec<usize> {
        self.meta.iter().map(|m| m.var as usize).collect()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.meta.len()
    }

    fn meta_of(&self, v: usize) -> Option<&VarMeta> {
        self.meta
            .binary_search_by_key(&(v as u32), |m| m.var)
            .ok()
            .map(|i| &self.meta[i])
    }

    /// The distribution of variable `v` (fan-out scaling materialized), if
    /// present.
    pub fn dist(&self, v: usize) -> Option<Vec<f64>> {
        self.meta_of(v).map(|m| {
            let (off, k) = (m.off as usize, m.k as usize);
            self.slab[off..off + k]
                .iter()
                .map(|&x| x * m.dist_scale)
                .collect()
        })
    }

    /// The MFV counts of variable `v` (join multiplicity materialized), if
    /// present.
    pub fn mfv(&self, v: usize) -> Option<Vec<f64>> {
        self.meta_of(v).map(|m| {
            let (off, k) = (m.off as usize, m.k as usize);
            self.slab[off + k..off + 2 * k]
                .iter()
                .map(|&x| x * m.mfv_scale)
                .collect()
        })
    }

    /// Joins two factors; `keep` selects which variables survive into the
    /// result (a variable should survive iff some not-yet-joined alias
    /// still references it). Returns the joined factor, whose `rows` is the
    /// probabilistic cardinality bound of the join.
    pub fn join(&self, other: &Factor, keep: &KeepVars) -> Factor {
        let mut scratch = JoinScratch::default();
        self.join_with(other, keep, &mut scratch)
    }

    /// [`Factor::join`] through a caller-owned scratch, so repeated joins
    /// reuse buffers. The hot progressive-estimation path goes further and
    /// keeps results inside a [`FactorArena`].
    pub fn join_with(&self, other: &Factor, keep: &KeepVars, scratch: &mut JoinScratch) -> Factor {
        let rows = join_views_into(self.view(), other.view(), keep, scratch);
        Factor::from_scratch(rows, scratch)
    }

    /// Approximate heap size in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.slab.len() * 8 + self.meta.len() * std::mem::size_of::<VarMeta>()
    }
}

// ------------------------------------------------------------ join kernel

/// Reusable buffers for the factor join. `out_meta`/`out_slab` hold the
/// result after the join kernel (`join_views_into`) runs; the other
/// vectors are internals. All
/// buffers keep their capacity across joins, and every growth is counted
/// so callers can assert steady-state allocation-freedom.
#[derive(Debug, Default)]
pub struct JoinScratch {
    pub(crate) out_meta: Vec<VarMeta>,
    pub(crate) out_slab: Vec<f64>,
    shared: Vec<(u32, u32)>,
    combined: Vec<(u32, f64)>,
    grow_events: u64,
}

impl JoinScratch {
    /// Buffer-growth events since construction (0 on a warm scratch).
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    fn clear_out(&mut self) {
        self.out_meta.clear();
        self.out_slab.clear();
        self.combined.clear();
    }

    /// Appends a variable to the output being built (used by base-factor
    /// construction in the model). `dist` and `mfv` must have equal length.
    pub(crate) fn push_var(&mut self, var: usize, dist: &[f64], mfv: &[f64]) {
        debug_assert_eq!(dist.len(), mfv.len());
        assert!(var < MAX_VARS, "variable id {var} exceeds MAX_VARS");
        let k = dist.len();
        reserve_counted(&mut self.out_slab, 2 * k, &mut self.grow_events);
        reserve_counted(&mut self.out_meta, 1, &mut self.grow_events);
        let off = self.out_slab.len() as u32;
        let total: f64 = dist.iter().sum();
        let mfv_max = mfv.iter().fold(0.0f64, |a, &b| a.max(b));
        self.out_slab.extend_from_slice(dist);
        self.out_slab.extend_from_slice(mfv);
        self.out_meta.push(VarMeta {
            var: var as u32,
            off,
            k: k as u32,
            dist_scale: 1.0,
            dist_total: total,
            mfv_scale: 1.0,
            mfv_max,
        });
    }

    /// Elementwise-min combine of another (dist, mfv) pair into the output
    /// variable appended last — base factors combine multiple member
    /// columns of one alias this way (a valid bound for "all equal").
    pub(crate) fn min_combine_last(&mut self, dist: &[f64], mfv: &[f64]) {
        let m = self.out_meta.last_mut().expect("push_var came first");
        let k = (m.k as usize).min(dist.len());
        let off = m.off as usize;
        let old_k = m.k as usize;
        // Shrink to the common length, moving the MFV block down if needed.
        if k < old_k {
            for i in 0..k {
                self.out_slab[off + k + i] = self.out_slab[off + old_k + i];
            }
            self.out_slab.truncate(off + 2 * k);
            m.k = k as u32;
        }
        let mut total = 0.0;
        let mut mfv_max = 0.0f64;
        for i in 0..k {
            let d = self.out_slab[off + i].min(dist[i]);
            self.out_slab[off + i] = d;
            total += d;
            let v = self.out_slab[off + k + i].min(mfv[i]);
            self.out_slab[off + k + i] = v;
            mfv_max = mfv_max.max(v);
        }
        m.dist_total = total;
        m.mfv_max = mfv_max;
    }

    /// Starts a fresh output (used by base-factor construction).
    pub(crate) fn begin(&mut self) {
        self.clear_out();
    }

    /// Sorts the built output by variable id (metas only; slab order is
    /// irrelevant).
    pub(crate) fn finish(&mut self) {
        self.out_meta.sort_unstable_by_key(|m| m.var);
    }
}

#[inline]
fn dist_slice<'a>(slab: &'a [f64], m: &VarMeta) -> &'a [f64] {
    &slab[m.off as usize..m.off as usize + m.k as usize]
}

/// Per-bin Eq. 5 bound, branch-free: the `.max(0.0)` clamps already force
/// the min-of-products to zero whenever either side's mass is ≤ 0 (and map
/// NaN to 0), so no explicit zero test is needed and the expression
/// compiles to a straight-line min/max lattice the autovectorizer handles.
///
/// The arguments are two symmetric (dist, mfv, scale, key-scale) bundles —
/// kept as loose scalars so the caller's loop feeds the lanes straight from
/// its slices without building a struct per bin.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn bin_bound(d_a: f64, d_b: f64, m_a: f64, m_b: f64, sa: f64, sb: f64, ksa: f64, ksb: f64) -> f64 {
    let av = (d_a * sa).max(0.0);
    let bv = (d_b * sb).max(0.0);
    // MFV counts are ≥ 1 whenever the bin holds offline mass; estimated
    // mass in an offline-empty bin assumes MFV 1.
    let va = (m_a * ksa).max(1.0);
    let vb = (m_b * ksb).max(1.0);
    // Eq. 5, with the always-valid cross-product cap.
    (av * vb).min(bv * va).min(av * bv)
}

/// Sum reduction with four independent accumulators, so the lanes carry no
/// loop-carried dependency and the reduction vectorizes. Reassociation
/// shifts the result by at most a few ulp — well inside the 1e-9 relative
/// tolerance of the `RefFactor` oracle tests.
#[inline(always)]
fn sum_chunked(v: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut chunks = v.chunks_exact(4);
    for c in &mut chunks {
        acc[0] += c[0];
        acc[1] += c[1];
        acc[2] += c[2];
        acc[3] += c[3];
    }
    let tail: f64 = chunks.remainder().iter().sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Max reduction over non-negative values, chunked like [`sum_chunked`]
/// (max is associative, so this one is exact).
#[inline(always)]
fn max_chunked(v: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut chunks = v.chunks_exact(4);
    for c in &mut chunks {
        acc[0] = acc[0].max(c[0]);
        acc[1] = acc[1].max(c[1]);
        acc[2] = acc[2].max(c[2]);
        acc[3] = acc[3].max(c[3]);
    }
    let tail = chunks.remainder().iter().fold(0.0f64, |a, &b| a.max(b));
    acc[0].max(acc[1]).max(acc[2]).max(acc[3]).max(tail)
}

#[inline]
fn mfv_slice<'a>(slab: &'a [f64], m: &VarMeta) -> &'a [f64] {
    &slab[m.off as usize + m.k as usize..m.off as usize + 2 * m.k as usize]
}

/// Effective (clamped) maximal MFV of a variable, as the join multiplicity
/// inflation uses it.
#[inline]
fn eff_mfv_max(m: &VarMeta) -> f64 {
    (m.mfv_max * m.mfv_scale).max(1.0)
}

fj_storage::dispatch! {
    /// Joins two factor views into `s.out_meta` / `s.out_slab`, returning
    /// the joined row bound. Zero heap allocation once `s` has warmed up.
    pub(crate) fn join_views_into(
        a: FactorView<'_>,
        b: FactorView<'_>,
        keep: &KeepVars,
        s: &mut JoinScratch,
    ) -> f64 = join_views_generic, join_views_avx2;
}

#[inline(always)]
fn join_views_generic(
    a: FactorView<'_>,
    b: FactorView<'_>,
    keep: &KeepVars,
    s: &mut JoinScratch,
) -> f64 {
    s.clear_out();
    // Shared-variable discovery: sorted merge over the two meta arrays.
    s.shared.clear();
    reserve_counted(
        &mut s.shared,
        a.meta.len().min(b.meta.len()),
        &mut s.grow_events,
    );
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.meta.len() && j < b.meta.len() {
        match a.meta[i].var.cmp(&b.meta[j].var) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                s.shared.push((i as u32, j as u32));
                i += 1;
                j += 1;
            }
        }
    }
    if s.shared.is_empty() {
        return cross_product_into(a, b, keep, s);
    }

    // Eliminate shared variables in ascending id order. `pend_*` are the
    // lazily accumulated fan-out scales of each side; `mult_*` the MFV
    // multiplicity inflations applied to residual variables at assembly.
    let mut pend_a = 1.0f64;
    let mut pend_b = 1.0f64;
    let mut mult_a = 1.0f64;
    let mut mult_b = 1.0f64;
    let mut rows = 0.0f64;
    for si in 0..s.shared.len() {
        let (ia, ib) = s.shared[si];
        let mva = a.meta[ia as usize];
        let mvb = b.meta[ib as usize];
        let k = mva.k.min(mvb.k) as usize;
        let sa = mva.dist_scale * pend_a;
        let sb = mvb.dist_scale * pend_b;
        let kept = keep.contains(mva.var as usize);
        let (ksa, ksb) = (mva.mfv_scale, mvb.mfv_scale);
        let da = &dist_slice(a.slab, &mva)[..k];
        let db = &dist_slice(b.slab, &mvb)[..k];
        let ma = &mfv_slice(a.slab, &mva)[..k];
        let mb = &mfv_slice(b.slab, &mvb)[..k];
        let step;
        if kept && k > 0 {
            reserve_counted(&mut s.out_slab, 2 * k, &mut s.grow_events);
            reserve_counted(&mut s.out_meta, 1, &mut s.grow_events);
            reserve_counted(&mut s.combined, 1, &mut s.grow_events);
            let base = s.out_slab.len();
            s.out_slab.resize(base + 2 * k, 0.0);
            let (bounds, mfvs) = s.out_slab[base..base + 2 * k].split_at_mut(k);
            // Pass 1: per-bin bound (branch-free, see `bin_bound`), then a
            // chunked sum over the freshly written block.
            for ((((out, &d_a), &d_b), &m_a), &m_b) in
                bounds.iter_mut().zip(da).zip(db).zip(ma).zip(mb)
            {
                *out = bin_bound(d_a, d_b, m_a, m_b, sa, sb, ksa, ksb);
            }
            step = sum_chunked(bounds);
            // Pass 2: joined MFV = product of the sides' effective MFVs.
            for ((out, &m_a), &m_b) in mfvs.iter_mut().zip(ma).zip(mb) {
                *out = (m_a * ksa).max(1.0) * (m_b * ksb).max(1.0);
            }
            let mfv_max = max_chunked(mfvs);
            s.combined.push((s.out_meta.len() as u32, step));
            s.out_meta.push(VarMeta {
                var: mva.var,
                off: base as u32,
                k: k as u32,
                dist_scale: 1.0, // fixed up after the loop: rows / step
                dist_total: step,
                mfv_scale: 1.0,
                mfv_max,
            });
        } else {
            // Dropped variable: only the summed bound survives. Same
            // branch-free kernel, reduced with independent accumulators.
            let mut acc = [0.0f64; 4];
            let mut x = 0usize;
            while x + 4 <= k {
                acc[0] += bin_bound(da[x], db[x], ma[x], mb[x], sa, sb, ksa, ksb);
                acc[1] += bin_bound(da[x + 1], db[x + 1], ma[x + 1], mb[x + 1], sa, sb, ksa, ksb);
                acc[2] += bin_bound(da[x + 2], db[x + 2], ma[x + 2], mb[x + 2], sa, sb, ksa, ksb);
                acc[3] += bin_bound(da[x + 3], db[x + 3], ma[x + 3], mb[x + 3], sa, sb, ksa, ksb);
                x += 4;
            }
            let mut tail = 0.0f64;
            while x < k {
                tail += bin_bound(da[x], db[x], ma[x], mb[x], sa, sb, ksa, ksb);
                x += 1;
            }
            step = (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail;
        }
        if step <= 0.0 {
            // Bound hit zero: every later step scales to zero too.
            s.clear_out();
            return 0.0;
        }
        // Fan-out rescaling of everything not yet consumed becomes a pair
        // of scalar multiplier updates (the former per-step O(vars × bins)
        // rewrite).
        let tot_a = mva.dist_total * sa;
        let tot_b = mvb.dist_total * sb;
        pend_a *= if tot_a > 0.0 { step / tot_a } else { 0.0 };
        pend_b *= if tot_b > 0.0 { step / tot_b } else { 0.0 };
        mult_a *= eff_mfv_max(&mvb);
        mult_b *= eff_mfv_max(&mva);
        rows = step;
    }
    // Combined variables were created summing to their step's bound; bring
    // them to the final row count with one scale each.
    for ci in 0..s.combined.len() {
        let (mi, created) = s.combined[ci];
        s.out_meta[mi as usize].dist_scale = rows / created;
    }
    // Residual variables of both sides, with MFVs inflated by the other
    // side's join multiplicity.
    copy_residuals(a, Side::A, keep, pend_a, mult_a, s);
    copy_residuals(b, Side::B, keep, pend_b, mult_b, s);
    s.finish();
    rows
}

/// Which element of a `shared` pair indexes this side's meta array.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    A,
    B,
}

/// Copies the non-shared, kept variables of `src` into the output with the
/// side's accumulated fan-out scale and MFV multiplicity.
#[inline(always)]
fn copy_residuals(
    src: FactorView<'_>,
    side: Side,
    keep: &KeepVars,
    pend: f64,
    mult: f64,
    s: &mut JoinScratch,
) {
    let JoinScratch {
        out_meta,
        out_slab,
        shared,
        grow_events,
        ..
    } = s;
    // Indices of `src.meta` that were shared, ascending (the merge emits
    // them in order).
    let mut next_shared = 0usize;
    for (idx, m) in src.meta.iter().enumerate() {
        if next_shared < shared.len() {
            let pair = shared[next_shared];
            let si = match side {
                Side::A => pair.0,
                Side::B => pair.1,
            } as usize;
            if si == idx {
                next_shared += 1;
                continue;
            }
        }
        if !keep.contains(m.var as usize) {
            continue;
        }
        let k = m.k as usize;
        reserve_counted(out_slab, 2 * k, grow_events);
        reserve_counted(out_meta, 1, grow_events);
        let base = out_slab.len() as u32;
        out_slab.extend_from_slice(dist_slice(src.slab, m));
        // MFVs are written clamped (≥ 1) — idempotent for already-joined
        // inputs, and matches the former eager `x.max(1) · mult` rewrite.
        // Bulk copy first, clamp in place: both loops vectorize.
        let mstart = out_slab.len();
        out_slab.extend_from_slice(mfv_slice(src.slab, m));
        for x in &mut out_slab[mstart..] {
            *x = x.max(1.0);
        }
        out_meta.push(VarMeta {
            var: m.var,
            off: base,
            k: m.k,
            dist_scale: m.dist_scale * pend,
            dist_total: m.dist_total,
            mfv_scale: m.mfv_scale * mult,
            mfv_max: m.mfv_max.max(1.0),
        });
    }
}

/// Join of factors with disjoint variable sets: the cross-product bound.
/// Every surviving distribution scales by the other side's rows; MFVs by
/// the same factor clamped to ≥ 1.
#[inline(always)]
fn cross_product_into(
    a: FactorView<'_>,
    b: FactorView<'_>,
    keep: &KeepVars,
    s: &mut JoinScratch,
) -> f64 {
    let rows = (a.rows * b.rows).max(0.0);
    let JoinScratch {
        out_meta,
        out_slab,
        grow_events,
        ..
    } = s;
    for (src, mult) in [(a, b.rows), (b, a.rows)] {
        for m in src.meta {
            if !keep.contains(m.var as usize) {
                continue;
            }
            let k = m.k as usize;
            reserve_counted(out_slab, 2 * k, grow_events);
            reserve_counted(out_meta, 1, grow_events);
            let base = out_slab.len() as u32;
            out_slab.extend_from_slice(dist_slice(src.slab, m));
            let mstart = out_slab.len();
            out_slab.extend_from_slice(mfv_slice(src.slab, m));
            for x in &mut out_slab[mstart..] {
                *x = x.max(1.0);
            }
            out_meta.push(VarMeta {
                var: m.var,
                off: base,
                k: m.k,
                dist_scale: m.dist_scale * mult,
                dist_total: m.dist_total,
                mfv_scale: m.mfv_scale * mult.max(1.0),
                mfv_max: m.mfv_max.max(1.0),
            });
        }
    }
    s.finish();
    rows
}

// ------------------------------------------------------------ arena

/// Handle to a factor stored in a [`FactorArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FactorId(u32);

#[derive(Debug, Clone, Copy)]
struct ArenaEntry {
    rows: f64,
    meta_start: u32,
    meta_end: u32,
}

/// Append-only arena of flat factors sharing one metadata array and one
/// `f64` slab. Progressive sub-plan estimation caches every joined factor
/// here: storing a factor is a bump append (no per-factor `Vec`s), and
/// `clear` recycles the full capacity for the next query, so steady-state
/// estimation performs no heap allocation per sub-plan.
#[derive(Debug, Default)]
pub struct FactorArena {
    meta: Vec<VarMeta>,
    slab: Vec<f64>,
    factors: Vec<ArenaEntry>,
    grow_events: u64,
}

impl FactorArena {
    /// Empties the arena, keeping capacity.
    pub fn clear(&mut self) {
        self.meta.clear();
        self.slab.clear();
        self.factors.clear();
    }

    /// Number of stored factors.
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    /// Whether the arena holds no factors.
    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }

    /// Row bound of a stored factor.
    pub fn rows(&self, id: FactorId) -> f64 {
        self.factors[id.0 as usize].rows
    }

    /// Buffer-growth events since construction (0 on a warm arena).
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    pub(crate) fn view(&self, id: FactorId) -> FactorView<'_> {
        let e = self.factors[id.0 as usize];
        FactorView {
            rows: e.rows,
            meta: &self.meta[e.meta_start as usize..e.meta_end as usize],
            slab: &self.slab,
        }
    }

    /// Appends the join output sitting in `scratch`, rebasing its slab
    /// offsets onto the arena slab.
    pub fn push_scratch(&mut self, rows: f64, scratch: &JoinScratch) -> FactorId {
        reserve_counted(
            &mut self.slab,
            scratch.out_slab.len(),
            &mut self.grow_events,
        );
        reserve_counted(
            &mut self.meta,
            scratch.out_meta.len(),
            &mut self.grow_events,
        );
        reserve_counted(&mut self.factors, 1, &mut self.grow_events);
        let slab_base = self.slab.len() as u32;
        let meta_start = self.meta.len() as u32;
        self.slab.extend_from_slice(&scratch.out_slab);
        for m in &scratch.out_meta {
            let mut m = *m;
            m.off += slab_base;
            self.meta.push(m);
        }
        let id = FactorId(self.factors.len() as u32);
        self.factors.push(ArenaEntry {
            rows: rows.max(0.0),
            meta_start,
            meta_end: self.meta.len() as u32,
        });
        id
    }

    /// Materializes a stored factor as an owned [`Factor`] (cold paths and
    /// tests; the hot path only ever reads views).
    pub fn get(&self, id: FactorId) -> Factor {
        let v = self.view(id);
        let mut meta = Vec::with_capacity(v.meta.len());
        let mut slab = Vec::new();
        for m in v.meta {
            let mut m2 = *m;
            m2.off = slab.len() as u32;
            slab.extend_from_slice(dist_slice(v.slab, m));
            slab.extend_from_slice(mfv_slice(v.slab, m));
            meta.push(m2);
        }
        Factor {
            rows: v.rows,
            meta,
            slab,
        }
    }

    /// Joins two stored factors and appends the result; returns the new
    /// id and the joined row bound.
    pub fn join(
        &mut self,
        left: FactorId,
        right: FactorId,
        keep: &KeepVars,
        scratch: &mut JoinScratch,
    ) -> (FactorId, f64) {
        let rows = join_views_into(self.view(left), self.view(right), keep, scratch);
        (self.push_scratch(rows, scratch), rows)
    }
}

// ----------------------------------------------- reference implementation

/// The original `BTreeMap`-backed factor join, kept as the
/// differential-testing oracle for the flat implementation: the rewrite
/// must reproduce its `rows`, distributions, and MFVs to fp-noise
/// precision on arbitrary inputs.
#[cfg(test)]
pub(crate) mod reference {
    use super::KeepVars;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone)]
    pub struct RefFactor {
        pub rows: f64,
        pub dists: BTreeMap<usize, Vec<f64>>,
        pub mfvs: BTreeMap<usize, Vec<f64>>,
    }

    impl RefFactor {
        pub fn base(rows: f64, entries: Vec<(usize, Vec<f64>, Vec<f64>)>) -> Self {
            let mut dists = BTreeMap::new();
            let mut mfvs = BTreeMap::new();
            for (v, d, m) in entries {
                assert_eq!(d.len(), m.len());
                dists.insert(v, d);
                mfvs.insert(v, m);
            }
            RefFactor {
                rows: rows.max(0.0),
                dists,
                mfvs,
            }
        }

        pub fn scalar(rows: f64) -> Self {
            RefFactor {
                rows: rows.max(0.0),
                dists: BTreeMap::new(),
                mfvs: BTreeMap::new(),
            }
        }

        pub fn join(&self, other: &RefFactor, keep: &KeepVars) -> RefFactor {
            let shared: Vec<usize> = self
                .dists
                .keys()
                .copied()
                .filter(|v| other.dists.contains_key(v))
                .collect();
            if shared.is_empty() {
                return self.cross_product(other, keep);
            }
            let mut d1 = self.dists.clone();
            let mut d2 = other.dists.clone();
            let mut rows = 0.0;
            let mut combined: BTreeMap<usize, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
            for &v in shared.iter() {
                let da = d1.remove(&v).expect("shared var in d1");
                let db = d2.remove(&v).expect("shared var in d2");
                let ma = &self.mfvs[&v];
                let mb = &other.mfvs[&v];
                let k = da.len().min(db.len());
                let mut bound = vec![0.0; k];
                for i in 0..k {
                    let (a, b) = (da[i].max(0.0), db[i].max(0.0));
                    if a <= 0.0 || b <= 0.0 {
                        continue;
                    }
                    let (va, vb) = (
                        ma.get(i).copied().unwrap_or(1.0).max(1.0),
                        mb.get(i).copied().unwrap_or(1.0).max(1.0),
                    );
                    bound[i] = (a * vb).min(b * va).min(a * b);
                }
                let s: f64 = bound.iter().sum();
                let tot_a: f64 = da.iter().sum();
                let tot_b: f64 = db.iter().sum();
                let scale1 = if tot_a > 0.0 { s / tot_a } else { 0.0 };
                let scale2 = if tot_b > 0.0 { s / tot_b } else { 0.0 };
                for d in d1.values_mut() {
                    for x in d.iter_mut() {
                        *x *= scale1;
                    }
                }
                for d in d2.values_mut() {
                    for x in d.iter_mut() {
                        *x *= scale2;
                    }
                }
                for (d, _) in combined.values_mut() {
                    let tot: f64 = d.iter().sum();
                    let sc = if tot > 0.0 { s / tot } else { 0.0 };
                    for x in d.iter_mut() {
                        *x *= sc;
                    }
                }
                let mfv_new: Vec<f64> = (0..k)
                    .map(|i| {
                        ma.get(i).copied().unwrap_or(1.0).max(1.0)
                            * mb.get(i).copied().unwrap_or(1.0).max(1.0)
                    })
                    .collect();
                combined.insert(v, (bound, mfv_new));
                rows = s;
            }
            let mut out = RefFactor::scalar(rows);
            if rows <= 0.0 {
                return out;
            }
            for (v, (d, m)) in combined {
                if keep.contains(v) {
                    out.dists.insert(v, d);
                    out.mfvs.insert(v, m);
                }
            }
            let max_mfv = |mfv: &BTreeMap<usize, Vec<f64>>, v: usize| -> f64 {
                mfv[&v].iter().fold(1.0f64, |a, &b| a.max(b.max(1.0)))
            };
            let mult_for_1: f64 = shared.iter().map(|&v| max_mfv(&other.mfvs, v)).product();
            let mult_for_2: f64 = shared.iter().map(|&v| max_mfv(&self.mfvs, v)).product();
            for (v, d) in d1 {
                if keep.contains(v) {
                    let m = self.mfvs[&v]
                        .iter()
                        .map(|&x| x.max(1.0) * mult_for_1)
                        .collect();
                    out.dists.insert(v, d);
                    out.mfvs.insert(v, m);
                }
            }
            for (v, d) in d2 {
                if keep.contains(v) {
                    let m = other.mfvs[&v]
                        .iter()
                        .map(|&x| x.max(1.0) * mult_for_2)
                        .collect();
                    out.dists.insert(v, d);
                    out.mfvs.insert(v, m);
                }
            }
            out
        }

        fn cross_product(&self, other: &RefFactor, keep: &KeepVars) -> RefFactor {
            let mut out = RefFactor::scalar(self.rows * other.rows);
            for (src, mult) in [(self, other.rows), (other, self.rows)] {
                for (&v, d) in &src.dists {
                    if keep.contains(v) {
                        out.dists.insert(v, d.iter().map(|&x| x * mult).collect());
                        out.mfvs.insert(
                            v,
                            src.mfvs[&v]
                                .iter()
                                .map(|&x| x.max(1.0) * mult.max(1.0))
                                .collect(),
                        );
                    }
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::RefFactor;
    use super::*;
    use proptest::prelude::*;

    fn keep_only(vars: &[usize]) -> KeepVars {
        let mut kv = KeepVars::none();
        for &v in vars {
            kv.insert(v);
        }
        kv
    }

    /// Paper Figure 5: bin₁ of A.id has MFV 8, total 16; bin₁ of B.Aid has
    /// MFV 6, total 24 → bound = min(16/8, 24/6) · 8 · 6 = 96.
    #[test]
    fn figure5_single_bin_bound() {
        let a = Factor::base(16.0, vec![(0, vec![16.0], vec![8.0])]);
        let b = Factor::base(24.0, vec![(0, vec![24.0], vec![6.0])]);
        let j = a.join(&b, &KeepVars::none());
        assert_eq!(j.rows, 96.0);
        assert!(j.vars().is_empty());
    }

    /// The bound must dominate the exact per-bin join count: the Figure 2
    /// example's true cardinality is 83, bounded above by 96.
    #[test]
    fn bound_dominates_truth() {
        let a = Factor::base(16.0, vec![(0, vec![16.0], vec![8.0])]);
        let b = Factor::base(18.0, vec![(0, vec![18.0], vec![6.0])]);
        let j = a.join(&b, &KeepVars::none());
        assert!(j.rows >= 83.0, "bound {} below truth", j.rows);
    }

    #[test]
    fn multi_bin_bound_sums_bins() {
        let a = Factor::base(10.0, vec![(0, vec![6.0, 4.0], vec![3.0, 2.0])]);
        let b = Factor::base(9.0, vec![(0, vec![3.0, 6.0], vec![1.0, 3.0])]);
        let j = a.join(&b, &KeepVars::none());
        // bin0: min(6·1, 3·3, 6·3) = 6; bin1: min(4·3, 6·2, 4·6) = 12.
        assert_eq!(j.rows, 18.0);
    }

    #[test]
    fn zero_mass_bins_contribute_nothing() {
        let a = Factor::base(5.0, vec![(0, vec![5.0, 0.0], vec![2.0, 3.0])]);
        let b = Factor::base(7.0, vec![(0, vec![0.0, 7.0], vec![2.0, 4.0])]);
        let j = a.join(&b, &KeepVars::none());
        assert_eq!(j.rows, 0.0);
    }

    #[test]
    fn kept_variable_becomes_new_distribution() {
        let a = Factor::base(10.0, vec![(0, vec![6.0, 4.0], vec![2.0, 2.0])]);
        let b = Factor::base(8.0, vec![(0, vec![4.0, 4.0], vec![2.0, 2.0])]);
        let j = a.join(&b, &keep_only(&[0]));
        assert_eq!(j.vars(), vec![0]);
        let d = j.dist(0).unwrap();
        assert_eq!(d.iter().sum::<f64>(), j.rows);
        // New MFV = product of the sides' MFVs.
        assert_eq!(j.mfv(0).unwrap(), vec![4.0, 4.0]);
    }

    #[test]
    fn residual_variable_scales_with_fanout() {
        // f1 carries var 1 (not shared); joining on var 0 doubles rows.
        let f1 = Factor::base(
            4.0,
            vec![
                (0, vec![4.0], vec![1.0]),
                (1, vec![3.0, 1.0], vec![2.0, 1.0]),
            ],
        );
        let f2 = Factor::base(8.0, vec![(0, vec![8.0], vec![2.0])]);
        let j = f1.join(&f2, &keep_only(&[1]));
        // bound on var0: min(4·2, 8·1, 32) = 8 → rows 8, fanout ×2.
        assert_eq!(j.rows, 8.0);
        let d1 = j.dist(1).unwrap();
        assert_eq!(d1, vec![6.0, 2.0]);
        // Residual MFV multiplied by the other side's max MFV (2).
        assert_eq!(j.mfv(1).unwrap(), vec![4.0, 2.0]);
    }

    #[test]
    fn join_is_symmetric_in_rows() {
        let a = Factor::base(
            12.0,
            vec![
                (0, vec![5.0, 7.0], vec![3.0, 4.0]),
                (1, vec![12.0], vec![5.0]),
            ],
        );
        let b = Factor::base(6.0, vec![(0, vec![2.0, 4.0], vec![1.0, 2.0])]);
        let ab = a.join(&b, &KeepVars::all());
        let ba = b.join(&a, &KeepVars::all());
        assert!((ab.rows - ba.rows).abs() < 1e-9);
        assert_eq!(ab.vars(), ba.vars());
    }

    #[test]
    fn two_shared_vars_cyclic_case() {
        // Both factors share vars 0 and 1 (paper Appendix Case 5 shape).
        let a = Factor::base(
            10.0,
            vec![(0, vec![10.0], vec![2.0]), (1, vec![10.0], vec![5.0])],
        );
        let b = Factor::base(
            20.0,
            vec![(0, vec![20.0], vec![4.0]), (1, vec![20.0], vec![2.0])],
        );
        let j = a.join(&b, &KeepVars::none());
        // Sequential: var0 → min(10·4, 20·2, 200) = 40.
        // var1 scaled: a-side 10→40, b-side 20→40;
        //   then min(40·2, 40·5, 1600) = 80.
        assert_eq!(j.rows, 80.0);
        // The genuine single-shared-var bound: the same factors joined on
        // var 0 alone. The var-1 elimination step can inflate that bound by
        // at most min(max V*₁ₐ, max V*₁ᵦ) = min(5, 2) = 2 — the sequential
        // composition must respect that cap.
        let a0 = Factor::base(10.0, vec![(0, vec![10.0], vec![2.0])]);
        let b0 = Factor::base(20.0, vec![(0, vec![20.0], vec![4.0])]);
        let j0 = a0.join(&b0, &KeepVars::none());
        assert_eq!(j0.rows, 40.0);
        assert!(
            j.rows <= j0.rows * 2.0,
            "cyclic bound {} exceeds single-var bound {} × min max-MFV 2",
            j.rows,
            j0.rows
        );
    }

    #[test]
    fn cross_product_when_disjoint() {
        let a = Factor::base(3.0, vec![(0, vec![3.0], vec![1.0])]);
        let b = Factor::base(4.0, vec![(1, vec![4.0], vec![2.0])]);
        let j = a.join(&b, &KeepVars::all());
        assert_eq!(j.rows, 12.0);
        assert_eq!(j.dist(0).unwrap(), vec![12.0]);
        assert_eq!(j.dist(1).unwrap(), vec![12.0]);
    }

    #[test]
    fn scalar_join_scales() {
        let a = Factor::scalar(5.0);
        let b = Factor::base(4.0, vec![(0, vec![4.0], vec![2.0])]);
        let j = a.join(&b, &KeepVars::all());
        assert_eq!(j.rows, 20.0);
    }

    #[test]
    fn estimated_fractional_masses_are_fine() {
        // Estimators produce fractional per-bin masses; bounds stay sane.
        let a = Factor::base(0.9, vec![(0, vec![0.6, 0.3], vec![8.0, 2.0])]);
        let b = Factor::base(100.0, vec![(0, vec![40.0, 60.0], vec![10.0, 10.0])]);
        let j = a.join(&b, &KeepVars::none());
        // bin0 min(0.6·10, 40·8, 24) = 6; bin1 min(0.3·10, 60·2, 18) = 3.
        assert!((j.rows - 9.0).abs() < 1e-9, "rows {}", j.rows);
    }

    #[test]
    fn negative_inputs_clamped() {
        let a = Factor::base(5.0, vec![(0, vec![-1.0, 5.0], vec![1.0, 1.0])]);
        let b = Factor::base(5.0, vec![(0, vec![2.0, 3.0], vec![1.0, 1.0])]);
        let j = a.join(&b, &KeepVars::none());
        assert!(j.rows >= 0.0);
        assert!(j.rows <= 15.0);
    }

    #[test]
    fn keepvars_inserts_and_checks() {
        let mut kv = KeepVars::none();
        assert!(!kv.contains(0));
        kv.insert(0);
        kv.insert(63);
        kv.insert(64);
        kv.insert(MAX_VARS - 1);
        assert!(kv.contains(0) && kv.contains(63) && kv.contains(64));
        assert!(kv.contains(MAX_VARS - 1));
        assert!(!kv.contains(1));
        assert!(KeepVars::all().contains(MAX_VARS - 1));
        assert_eq!(KeepVars::from_fn(4, |v| v % 2 == 0), keep_only(&[0, 2]));
    }

    #[test]
    fn arena_join_matches_standalone_join() {
        let a = Factor::base(
            12.0,
            vec![
                (0, vec![5.0, 7.0], vec![3.0, 4.0]),
                (1, vec![12.0], vec![5.0]),
            ],
        );
        let b = Factor::base(6.0, vec![(0, vec![2.0, 4.0], vec![1.0, 2.0])]);
        let keep = KeepVars::all();
        let direct = a.join(&b, &keep);

        let mut arena = FactorArena::default();
        let mut scratch = JoinScratch::default();
        scratch.begin();
        let ia = {
            scratch.begin();
            scratch.push_var(0, &[5.0, 7.0], &[3.0, 4.0]);
            scratch.push_var(1, &[12.0], &[5.0]);
            scratch.finish();
            arena.push_scratch(12.0, &scratch)
        };
        let ib = {
            scratch.begin();
            scratch.push_var(0, &[2.0, 4.0], &[1.0, 2.0]);
            scratch.finish();
            arena.push_scratch(6.0, &scratch)
        };
        let (id, rows) = arena.join(ia, ib, &keep, &mut scratch);
        assert_eq!(rows, direct.rows);
        let out = arena.get(id);
        assert_eq!(out.vars(), direct.vars());
        for v in out.vars() {
            assert_eq!(out.dist(v), direct.dist(v));
            assert_eq!(out.mfv(v), direct.mfv(v));
        }
    }

    #[test]
    fn warm_scratch_and_arena_do_not_grow() {
        let a = Factor::base(
            12.0,
            vec![
                (0, vec![5.0, 7.0], vec![3.0, 4.0]),
                (1, vec![12.0], vec![5.0]),
            ],
        );
        let b = Factor::base(6.0, vec![(0, vec![2.0, 4.0], vec![1.0, 2.0])]);
        let keep = KeepVars::all();
        let mut arena = FactorArena::default();
        let mut scratch = JoinScratch::default();
        // Warm-up round.
        scratch.begin();
        scratch.push_var(0, &[5.0, 7.0], &[3.0, 4.0]);
        scratch.push_var(1, &[12.0], &[5.0]);
        scratch.finish();
        let ia = arena.push_scratch(12.0, &scratch);
        scratch.begin();
        scratch.push_var(0, &[2.0, 4.0], &[1.0, 2.0]);
        scratch.finish();
        let ib = arena.push_scratch(6.0, &scratch);
        arena.join(ia, ib, &keep, &mut scratch);
        let _ = (a, b);
        // Steady state: same shapes must not grow anything.
        let (se, ae) = (scratch.grow_events(), arena.grow_events());
        arena.clear();
        scratch.begin();
        scratch.push_var(0, &[5.0, 7.0], &[3.0, 4.0]);
        scratch.push_var(1, &[12.0], &[5.0]);
        scratch.finish();
        let ia = arena.push_scratch(12.0, &scratch);
        scratch.begin();
        scratch.push_var(0, &[2.0, 4.0], &[1.0, 2.0]);
        scratch.finish();
        let ib = arena.push_scratch(6.0, &scratch);
        arena.join(ia, ib, &keep, &mut scratch);
        assert_eq!(scratch.grow_events(), se, "scratch grew on a warm pass");
        assert_eq!(arena.grow_events(), ae, "arena grew on a warm pass");
    }

    // ------------------------------------------- differential testing

    fn flat_of(rf: &RefFactor) -> Factor {
        let entries = rf
            .dists
            .iter()
            .map(|(&v, d)| (v, d.clone(), rf.mfvs[&v].clone()))
            .collect();
        Factor::base(rf.rows, entries)
    }

    fn assert_close(a: f64, b: f64, what: &str) {
        let tol = 1e-9 * a.abs().max(b.abs()).max(1.0);
        assert!((a - b).abs() <= tol, "{what}: flat {a} vs reference {b}");
    }

    fn assert_equivalent(flat: &Factor, rf: &RefFactor) {
        assert_close(flat.rows, rf.rows, "rows");
        assert_eq!(
            flat.vars(),
            rf.dists.keys().copied().collect::<Vec<_>>(),
            "var sets"
        );
        for (&v, d_ref) in &rf.dists {
            let d = flat.dist(v).unwrap();
            assert_eq!(d.len(), d_ref.len(), "dist len of var {v}");
            for (i, (&x, &y)) in d.iter().zip(d_ref).enumerate() {
                assert_close(x, y, &format!("dist[{i}] of var {v}"));
            }
            let m = flat.mfv(v).unwrap();
            let m_ref = &rf.mfvs[&v];
            assert_eq!(m.len(), m_ref.len(), "mfv len of var {v}");
            for (i, (&x, &y)) in m.iter().zip(m_ref).enumerate() {
                assert_close(x, y, &format!("mfv[{i}] of var {v}"));
            }
        }
    }

    /// Pairs of (mass, mfv) per bin; small magnitudes get snapped to exact
    /// zero so zero-mass bins are exercised, and a slice of the range is
    /// negative to exercise clamping.
    fn bin_pairs() -> impl Strategy<Value = Vec<(f64, f64)>> {
        prop::collection::vec(
            (-2.0f64..30.0, 0.0f64..8.0).prop_map(|(d, m)| {
                let d = if d.abs() < 0.7 { 0.0 } else { d };
                let m = if m < 0.5 { 0.0 } else { m };
                (d, m)
            }),
            1..6,
        )
    }

    fn ref_factor() -> impl Strategy<Value = RefFactor> {
        (
            0.0f64..100.0,
            prop::collection::hash_map(0usize..5, bin_pairs(), 1..4),
        )
            .prop_map(|(rows, vars)| {
                let entries = vars
                    .into_iter()
                    .map(|(v, pairs)| {
                        let (d, m): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
                        (v, d, m)
                    })
                    .collect();
                RefFactor::base(rows, entries)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

        /// The flat join is numerically equivalent to the reference
        /// BTreeMap join: same rows, same surviving vars, same dists and
        /// MFVs within 1e-9 relative — for arbitrary var sets, bin counts,
        /// keep masks, and zero/negative masses.
        #[test]
        fn flat_join_matches_reference(
            ra in ref_factor(),
            rb in ref_factor(),
            keep_bits in 0u32..32,
        ) {
            let keep = KeepVars::from_fn(5, |v| keep_bits & (1 << v) != 0);
            let expected = ra.join(&rb, &keep);
            let got = flat_of(&ra).join(&flat_of(&rb), &keep);
            assert_equivalent(&got, &expected);
        }

        /// Equivalence survives chained joins, where lazy scales and MFV
        /// multiplicities accumulate across factors.
        #[test]
        fn flat_join_matches_reference_chained(
            ra in ref_factor(),
            rb in ref_factor(),
            rc in ref_factor(),
            keep1 in 0u32..32,
            keep2 in 0u32..32,
        ) {
            let k1 = KeepVars::from_fn(5, |v| keep1 & (1 << v) != 0);
            let k2 = KeepVars::from_fn(5, |v| keep2 & (1 << v) != 0);
            let expected = ra.join(&rb, &k1).join(&rc, &k2);
            let got = flat_of(&ra).join(&flat_of(&rb), &k1).join(&flat_of(&rc), &k2);
            assert_equivalent(&got, &expected);
        }

        /// The flat join preserves the upper-bound property on exact
        /// single-bin statistics (paper Eq. 5).
        #[test]
        fn flat_join_upper_bounds_exact_counts(
            left in prop::collection::vec(1u32..50, 1..20),
            right in prop::collection::vec(1u32..50, 1..20),
        ) {
            let n = left.len().min(right.len());
            let (left, right) = (&left[..n], &right[..n]);
            let truth: f64 = left.iter().zip(right).map(|(&l, &r)| l as f64 * r as f64).sum();
            let (dl, dr) = (
                left.iter().map(|&x| x as f64).sum::<f64>(),
                right.iter().map(|&x| x as f64).sum::<f64>(),
            );
            let (ml, mr) = (
                left.iter().copied().max().unwrap_or(1) as f64,
                right.iter().copied().max().unwrap_or(1) as f64,
            );
            let fa = Factor::base(dl, vec![(0, vec![dl], vec![ml])]);
            let fb = Factor::base(dr, vec![(0, vec![dr], vec![mr])]);
            let j = fa.join(&fb, &KeepVars::none());
            prop_assert!(j.rows >= truth - 1e-6, "bound {} < truth {}", j.rows, truth);
        }
    }

    // ----------------------------------- baseline and AVX2 kernel copies

    /// splitmix64: the next seeded draw from `state`.
    fn draw(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (*state ^ (*state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb)
    }

    /// A value drawn to stress rounding: NaN, ±∞, ±0, subnormals, huge and
    /// ordinary magnitudes of both signs.
    fn awkward(state: &mut u64) -> f64 {
        let r = draw(state);
        let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
        match r % 14 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => 0.0,
            5 => f64::MIN_POSITIVE * unit,
            6 => f64::MAX * unit,
            7 => -unit * 5.0,
            _ => unit * 100.0,
        }
    }

    /// Bit equality, except that every NaN equals every NaN: which NaN an
    /// operation on two of them returns is left open by IEEE 754, and the
    /// compiler may commute the operands of one copy and not the other's.
    fn bits(v: impl IntoIterator<Item = f64>) -> Vec<u64> {
        let canonical = |x: f64| if x.is_nan() { f64::NAN } else { x };
        v.into_iter().map(canonical).map(f64::to_bits).collect()
    }

    /// Everything a join leaves in its scratch, as comparable bits.
    fn output_bits(rows: f64, s: &JoinScratch) -> (Vec<u64>, Vec<(u32, u32, u32)>, Vec<u64>) {
        let metas = s.out_meta.iter().map(|m| (m.var, m.off, m.k)).collect();
        let scales = s
            .out_meta
            .iter()
            .flat_map(|m| [m.dist_scale, m.dist_total, m.mfv_scale, m.mfv_max]);
        let mut numbers = bits([rows]);
        numbers.extend(bits(scales));
        (numbers, metas, bits(s.out_slab.iter().copied()))
    }

    /// Both copies of the join — Eq. 5 lattice, reductions, residual and
    /// cross-product copies — leave the same bits, on factors full of
    /// awkward values and all-zero distributions, with bin counts that are
    /// empty or not a multiple of 4, over one- and two-step joins.
    #[test]
    fn join_copies_round_identically() {
        let mut state = 45u64;
        let factor = |state: &mut u64| {
            let mut entries = Vec::new();
            for var in 0..5 {
                if draw(state) & 1 == 0 {
                    let k = [0, 1, 3, 4, 5, 7, 9, 17][draw(state) as usize % 8];
                    let zero = draw(state).is_multiple_of(5);
                    let dist = (0..k)
                        .map(|_| if zero { 0.0 } else { awkward(state) })
                        .collect();
                    let mfv = (0..k).map(|_| awkward(state)).collect();
                    entries.push((var, dist, mfv));
                }
            }
            Factor::base(awkward(state), entries)
        };
        for round in 0..2000 {
            let (a, b, c) = (factor(&mut state), factor(&mut state), factor(&mut state));
            let keep_bits = draw(&mut state);
            let keep = KeepVars::from_fn(5, |v| (keep_bits >> v) & 1 == 1);
            let mut first = JoinScratch::default();
            let rows = join_views_generic(a.view(), b.view(), &keep, &mut first);
            let joined = Factor::from_scratch(rows, &first);
            let once = output_bits(rows, &first);
            let rows = join_views_generic(joined.view(), c.view(), &keep, &mut first);
            let want = [once, output_bits(rows, &first)];
            type Join = fn(FactorView<'_>, FactorView<'_>, &KeepVars, &mut JoinScratch) -> f64;
            let check = |what: &str, join: Join| {
                let mut s = JoinScratch::default();
                let rows = join(a.view(), b.view(), &keep, &mut s);
                assert_eq!(output_bits(rows, &s), want[0], "{what}, round {round}");
                let rows = join(joined.view(), c.view(), &keep, &mut s);
                assert_eq!(output_bits(rows, &s), want[1], "{what}, round {round}, 2nd");
            };
            check("dispatched", join_views_into);
            #[cfg(target_arch = "x86_64")]
            if fj_storage::cpu::fast_kernels() {
                check("avx2", |a, b, keep, s| {
                    // SAFETY: the CPU has the AVX2 tier (checked just above).
                    unsafe { join_views_avx2(a, b, keep, s) }
                });
            }
        }
        if !fj_storage::cpu::fast_kernels() {
            eprintln!("note: no AVX2 tier on this CPU; only the generic copy ran");
        }
    }
}
