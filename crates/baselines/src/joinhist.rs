//! Join-histogram estimator and its Table 8 variants.
//!
//! The classical JoinHist method (paper Figure 1b): histogram the join-key
//! domains, assume uniformity within each bin, estimate a two-table join as
//! `Σᵢ cntₗ[i]·cntᵣ[i]/max(ndvₗ[i], ndvᵣ[i])`, and apply base-table filters
//! as scalar selectivities (attribute independence). Paper Table 8 measures
//! how much each FactorJoin ingredient fixes:
//!
//! * `with_bound` replaces the in-bin uniformity formula with the MFV
//!   bound `min(cntₗ/V*ₗ, cntᵣ/V*ᵣ)·V*ₗ·V*ᵣ`;
//! * `with_conditional` replaces scalar-scaled unconditional histograms
//!   with *conditional* per-bin distributions from a single-table model;
//! * both together recover FactorJoin (on acyclic templates).

use crate::traits::CardEst;
use fj_query::{Query, QueryGraph};
use fj_stats::{
    BaseTableEstimator, BayesNetEstimator, BnConfig, ColumnHistogram, KeyBinMap, TableBins,
};
use fj_storage::{Catalog, KeyRef, TableSchema};
use std::collections::HashMap;
use std::time::Instant;

/// Which FactorJoin ingredients to enable (paper Table 8 rows).
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinHistConfig {
    /// Use the probabilistic MFV bound instead of in-bin uniformity.
    pub with_bound: bool,
    /// Use conditional per-bin distributions instead of scalar filter
    /// selectivity times unconditional histograms.
    pub with_conditional: bool,
    /// Number of bins per key group.
    pub bins: usize,
}

impl JoinHistConfig {
    /// Classic JoinHist with `k` equal-depth bins.
    pub fn classic(bins: usize) -> Self {
        JoinHistConfig {
            with_bound: false,
            with_conditional: false,
            bins,
        }
    }
}

struct KeyHist {
    total: Vec<f64>,
    ndv: Vec<f64>,
    mfv: Vec<f64>,
}

/// The JoinHist family of estimators.
pub struct JoinHist {
    cfg: JoinHistConfig,
    group_bins: Vec<KeyBinMap>,
    key_hists: HashMap<KeyRef, KeyHist>,
    /// Scalar-selectivity statistics (attribute independence path).
    column_stats: HashMap<(String, String), ColumnHistogram>,
    /// Conditional-distribution models (with_conditional path).
    models: HashMap<String, BayesNetEstimator>,
    rows: HashMap<String, f64>,
    schemas: HashMap<String, TableSchema>,
    train_seconds: f64,
}

impl JoinHist {
    /// Builds histograms (and, for `with_conditional`, per-table models).
    pub fn build(catalog: &Catalog, cfg: JoinHistConfig) -> Self {
        let start = Instant::now();
        let groups = catalog.equivalent_key_groups();
        let mut group_of = HashMap::new();
        let mut group_bins = Vec::new();
        let mut key_hists = HashMap::new();
        for g in &groups {
            // Equal-depth bins over the union domain (the classical choice;
            // GBSA is FactorJoin's separate contribution, ablated in
            // Table 6, so JoinHist keeps equal-depth even `with_bound`).
            let freqs: Vec<crate::joinhist::KeyFreqOwned> = g
                .keys
                .iter()
                .map(|kr| {
                    let t = catalog.table(&kr.table).expect("group keys exist");
                    let ci = t.schema().index_of(&kr.column).expect("group keys exist");
                    factorjoin::KeyFreq::count_column(t.column(ci))
                })
                .collect();
            let freq_refs: Vec<&factorjoin::KeyFreq> = freqs.iter().collect();
            let bins = factorjoin::build_group_bins(
                &freq_refs,
                cfg.bins.max(1),
                factorjoin::BinningStrategy::EqualDepth,
            );
            for (kr, f) in g.keys.iter().zip(&freqs) {
                group_of.insert(kr.clone(), g.id);
                let k = bins.k();
                let mut h = KeyHist {
                    total: vec![0.0; k],
                    ndv: vec![0.0; k],
                    mfv: vec![0.0; k],
                };
                for (v, c) in f.iter() {
                    let b = bins.bin_of(v);
                    h.total[b] += c as f64;
                    h.ndv[b] += 1.0;
                    h.mfv[b] = h.mfv[b].max(c as f64);
                }
                key_hists.insert(kr.clone(), h);
            }
            group_bins.push(bins);
        }

        let mut column_stats = HashMap::new();
        let mut models = HashMap::new();
        let mut rows = HashMap::new();
        let mut schemas = HashMap::new();
        let mut table_bins: HashMap<String, TableBins> = HashMap::new();
        for (kr, &gid) in &group_of {
            table_bins
                .entry(kr.table.clone())
                .or_default()
                .insert(&kr.column, group_bins[gid].clone());
        }
        for table in catalog.tables() {
            rows.insert(table.name().to_string(), table.nrows() as f64);
            schemas.insert(table.name().to_string(), table.schema().clone());
            if cfg.with_conditional {
                let bins = table_bins
                    .entry(table.name().to_string())
                    .or_default()
                    .clone();
                models.insert(
                    table.name().to_string(),
                    BayesNetEstimator::build(table, &bins, BnConfig::default()),
                );
            } else {
                for (ci, def) in table.schema().columns().iter().enumerate() {
                    column_stats.insert(
                        (table.name().to_string(), def.name.clone()),
                        ColumnHistogram::build(table.column(ci)),
                    );
                }
            }
        }
        JoinHist {
            cfg,
            group_bins,
            key_hists,
            column_stats,
            models,
            rows,
            schemas,
            train_seconds: start.elapsed().as_secs_f64(),
        }
    }

    fn scalar_selectivity(&self, query: &Query, alias: usize) -> f64 {
        let table = &query.tables()[alias].table;
        match fj_stats::split_per_column(query.filter(alias)) {
            Some(clauses) => clauses
                .iter()
                .map(|(col, clause)| {
                    self.column_stats
                        .get(&(table.clone(), col.clone()))
                        .map(|h| h.selectivity(clause))
                        .unwrap_or(1.0)
                })
                .product(),
            None => 0.33,
        }
    }

    /// Per-alias factor: per-var (dist, mfv, ndv) plus row estimate.
    fn alias_profile(
        &self,
        query: &Query,
        graph: &QueryGraph,
        alias: usize,
    ) -> (f64, HashMap<usize, (Vec<f64>, Vec<f64>, Vec<f64>)>) {
        let tref = &query.tables()[alias];
        let schema = &self.schemas[&tref.table];
        let keys = graph.alias_keys(alias);
        let mut out = HashMap::new();
        if self.cfg.with_conditional {
            let model = &self.models[&tref.table];
            let names: Vec<String> = keys
                .iter()
                .map(|&(c, _)| schema.column(c).name.clone())
                .collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let profile = model.profile(query.filter(alias), &refs);
            for (idx, &(_, var)) in keys.iter().enumerate() {
                let kr = KeyRef::new(&tref.table, &names[idx]);
                let (mfv, ndv) = match self.key_hists.get(&kr) {
                    Some(h) => (h.mfv.clone(), h.ndv.clone()),
                    None => {
                        let len = profile.key_dists[idx].len();
                        (vec![1.0; len], vec![1.0; len])
                    }
                };
                out.insert(var, (profile.key_dists[idx].clone(), mfv, ndv));
            }
            (profile.rows, out)
        } else {
            let sel = self.scalar_selectivity(query, alias);
            let rows = self.rows.get(&tref.table).copied().unwrap_or(1.0) * sel;
            for &(c, var) in keys {
                let kr = KeyRef::new(&tref.table, &schema.column(c).name);
                if let Some(h) = self.key_hists.get(&kr) {
                    // Unconditional histogram scaled by the scalar filter
                    // selectivity — the attribute-independence assumption.
                    let dist: Vec<f64> = h.total.iter().map(|&t| t * sel).collect();
                    out.insert(var, (dist, h.mfv.clone(), h.ndv.clone()));
                }
            }
            (rows, out)
        }
    }
}

impl CardEst for JoinHist {
    fn name(&self) -> &'static str {
        match (self.cfg.with_bound, self.cfg.with_conditional) {
            (false, false) => "joinhist",
            (true, false) => "joinhist+bound",
            (false, true) => "joinhist+conditional",
            (true, true) => "joinhist+both",
        }
    }

    fn estimate(&mut self, query: &Query) -> f64 {
        let n = query.num_tables();
        if n == 0 {
            return 0.0;
        }
        let graph = QueryGraph::analyze(query);
        if n == 1 {
            return self.alias_profile(query, &graph, 0).0.max(0.0);
        }
        // Fold aliases along the join graph, combining per-bin with either
        // the uniformity formula or the MFV bound, scaling residual vars by
        // the implied fan-out (mirrors FactorJoin's fold so the ablation
        // isolates exactly the two ingredients).
        let profiles: Vec<(f64, HashMap<usize, (Vec<f64>, Vec<f64>, Vec<f64>)>)> = (0..n)
            .map(|i| self.alias_profile(query, &graph, i))
            .collect();
        let mut joined = 1u64 << 0;
        let (mut rows, mut dists) = profiles[0].clone();
        while joined.count_ones() < n as u32 {
            let next = (0..n)
                .filter(|&i| joined & (1 << i) == 0)
                .min_by_key(|&i| {
                    let adjacent = graph.neighbor_mask(i) & joined != 0;
                    (!adjacent, i)
                })
                .expect("aliases remain");
            joined |= 1 << next;
            let (nrows, nd) = &profiles[next];
            // Shared variables.
            let shared: Vec<usize> = dists
                .keys()
                .copied()
                .filter(|v| nd.contains_key(v))
                .collect();
            if shared.is_empty() {
                rows *= nrows;
                for (_, (d, _, _)) in dists.iter_mut() {
                    for x in d.iter_mut() {
                        *x *= nrows;
                    }
                }
                for (v, (d, m, nv)) in nd {
                    let scaled = d.iter().map(|&x| x * rows / nrows.max(1.0)).collect();
                    dists.insert(*v, (scaled, m.clone(), nv.clone()));
                }
                continue;
            }
            for v in shared {
                let (dl, ml, nl) = dists.remove(&v).expect("shared var");
                let (dr, mr, nr) = nd.get(&v).expect("shared var").clone();
                let k = dl.len().min(dr.len());
                let mut combined = vec![0.0; k];
                for i in 0..k {
                    if dl[i] <= 0.0 || dr[i] <= 0.0 {
                        continue;
                    }
                    combined[i] = if self.cfg.with_bound {
                        (dl[i] * mr[i].max(1.0))
                            .min(dr[i] * ml[i].max(1.0))
                            .min(dl[i] * dr[i])
                    } else {
                        // In-bin uniformity: cntₗ·cntᵣ / max(ndv).
                        dl[i] * dr[i] / nl[i].max(nr[i]).max(1.0)
                    };
                }
                let s: f64 = combined.iter().sum();
                let (tl, tr) = (dl.iter().sum::<f64>(), dr.iter().sum::<f64>());
                let scale_old = if tl > 0.0 { s / tl } else { 0.0 };
                for (d, _, _) in dists.values_mut() {
                    for x in d.iter_mut() {
                        *x *= scale_old;
                    }
                }
                // Keep the combined var if other aliases still need it.
                let keep = graph.vars()[v]
                    .members
                    .iter()
                    .any(|cr| joined & (1 << cr.alias) == 0);
                if keep {
                    let m2: Vec<f64> = (0..k).map(|i| ml[i].max(1.0) * mr[i].max(1.0)).collect();
                    let n2: Vec<f64> = (0..k).map(|i| nl[i].min(nr[i]).max(1.0)).collect();
                    dists.insert(v, (combined.clone(), m2, n2));
                }
                // Merge the new alias's residual vars, scaled.
                let scale_new = if tr > 0.0 { s / tr } else { 0.0 };
                for (&w, (d, m, nv)) in nd {
                    if w != v && !dists.contains_key(&w) {
                        let scaled = d.iter().map(|&x| x * scale_new).collect();
                        dists.insert(w, (scaled, m.clone(), nv.clone()));
                    }
                }
                rows = s;
            }
        }
        rows.max(0.0)
    }

    fn model_bytes(&self) -> usize {
        let hists: usize = self.key_hists.values().map(|h| h.total.len() * 24).sum();
        let cols: usize = self
            .column_stats
            .values()
            .map(ColumnHistogram::heap_bytes)
            .sum();
        let models: usize = self.models.values().map(|m| m.model_bytes()).sum();
        hists
            + cols
            + models
            + self
                .group_bins
                .iter()
                .map(KeyBinMap::heap_bytes)
                .sum::<usize>()
    }

    fn train_seconds(&self) -> f64 {
        self.train_seconds
    }

    fn supports(&self, query: &Query) -> bool {
        // The classical method handles tree templates only (paper §6.1:
        // "JoinHist … do not support this benchmark" for cyclic IMDB-JOB).
        query.joins().len() < query.num_tables() || self.cfg.with_bound && self.cfg.with_conditional
    }
}

type KeyFreqOwned = factorjoin::KeyFreq;

#[cfg(test)]
mod tests {
    use super::*;
    use fj_datagen::{stats_catalog, StatsConfig};
    use fj_exec::TrueCardEngine;
    use fj_query::parse_query;

    fn catalog() -> Catalog {
        stats_catalog(&StatsConfig {
            scale: 0.05,
            ..Default::default()
        })
    }

    fn qerr(est: f64, truth: f64) -> f64 {
        (est.max(1.0) / truth.max(1.0)).max(truth.max(1.0) / est.max(1.0))
    }

    #[test]
    fn classic_estimates_unfiltered_join_closely() {
        // Without filters, join histograms capture skew well.
        let cat = catalog();
        let mut jh = JoinHist::build(&cat, JoinHistConfig::classic(64));
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id;",
        )
        .unwrap();
        let truth = TrueCardEngine::new(&cat, &q).full_cardinality();
        let est = jh.estimate(&q);
        assert!(qerr(est, truth) < 3.0, "est {est} vs truth {truth}");
    }

    #[test]
    fn bound_variant_overestimates_never_wildly_under() {
        let cat = catalog();
        let mut jh = JoinHist::build(
            &cat,
            JoinHistConfig {
                with_bound: true,
                with_conditional: false,
                bins: 64,
            },
        );
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id;",
        )
        .unwrap();
        let truth = TrueCardEngine::new(&cat, &q).full_cardinality();
        let est = jh.estimate(&q);
        assert!(est >= truth * 0.999, "bound {est} below truth {truth}");
    }

    #[test]
    fn conditional_variant_tracks_correlated_filters_better() {
        // posts.score correlates with owner_user_id; with a score filter the
        // conditional variant should beat the scalar-independence variant
        // on average over a few queries.
        let cat = catalog();
        let mut classic = JoinHist::build(&cat, JoinHistConfig::classic(64));
        let mut cond = JoinHist::build(
            &cat,
            JoinHistConfig {
                with_bound: false,
                with_conditional: true,
                bins: 64,
            },
        );
        let sqls = [
            "SELECT COUNT(*) FROM users u, posts p WHERE u.id = p.owner_user_id AND p.score >= 10;",
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id AND c.score >= 3;",
            "SELECT COUNT(*) FROM users u, badges b WHERE u.id = b.user_id AND b.class = 1;",
        ];
        let mut err_classic = 1.0f64;
        let mut err_cond = 1.0f64;
        for sql in sqls {
            let q = parse_query(&cat, sql).unwrap();
            let truth = TrueCardEngine::new(&cat, &q).full_cardinality();
            err_classic *= qerr(classic.estimate(&q), truth);
            err_cond *= qerr(cond.estimate(&q), truth);
        }
        // At this tiny scale both are decent; the conditional variant must
        // stay in the same ballpark (Table 8 quantifies the aggregate gap
        // at full workload scale, where correlation effects dominate).
        assert!(
            err_cond <= err_classic * 2.0 && err_cond < 5.0,
            "conditional {err_cond:.2} vs classic {err_classic:.2} (geometric products)"
        );
    }

    #[test]
    fn both_variant_dominates_truth_like_factorjoin() {
        let cat = catalog();
        let mut both = JoinHist::build(
            &cat,
            JoinHistConfig {
                with_bound: true,
                with_conditional: true,
                bins: 64,
            },
        );
        for sql in [
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id;",
            "SELECT COUNT(*) FROM users u, posts p, comments c \
             WHERE u.id = p.owner_user_id AND p.id = c.post_id;",
        ] {
            let q = parse_query(&cat, sql).unwrap();
            let truth = TrueCardEngine::new(&cat, &q).full_cardinality();
            let est = both.estimate(&q);
            assert!(est >= truth * 0.5, "{sql}: est {est} vs truth {truth}");
        }
    }

    #[test]
    fn names_reflect_variants() {
        let cat = catalog();
        assert_eq!(
            JoinHist::build(&cat, JoinHistConfig::classic(8)).name(),
            "joinhist"
        );
        assert_eq!(
            JoinHist::build(
                &cat,
                JoinHistConfig {
                    with_bound: true,
                    with_conditional: false,
                    bins: 8
                }
            )
            .name(),
            "joinhist+bound"
        );
        assert_eq!(
            JoinHist::build(
                &cat,
                JoinHistConfig {
                    with_bound: true,
                    with_conditional: true,
                    bins: 8
                }
            )
            .name(),
            "joinhist+both"
        );
    }

    #[test]
    fn cyclic_queries_unsupported_for_classic() {
        let cat = catalog();
        let jh = JoinHist::build(&cat, JoinHistConfig::classic(8));
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, postLinks l \
             WHERE p.id = l.post_id AND p.id = l.related_post_id;",
        )
        .unwrap();
        assert!(!jh.supports(&q));
    }
}
