//! The estimator interface FactorJoin plugs into.

use crate::binmap::KeyBinMap;
use fj_query::{FilterExpr, Selection};
use fj_storage::codec::Enc;
use fj_storage::Table;
use std::sync::Arc;

/// Everything FactorJoin needs from a table for one query: the estimated
/// filtered row count and the conditional binned distribution of each
/// requested join key (paper Eq. 1: `P(key = v | Q(A)) · |Q(A)|`).
///
/// Profiles are reusable output buffers: [`BaseTableEstimator::profile_into`]
/// refills an existing profile in place so the sub-plan estimation hot path
/// does not allocate fresh distributions per query.
#[derive(Debug, Clone, Default)]
pub struct TableProfile {
    /// Estimated `|Q(A)|` — rows satisfying the filter.
    pub rows: f64,
    /// For each requested key column: estimated rows per bin (unnormalized
    /// distribution over the key's binned domain, NULL keys excluded).
    pub key_dists: Vec<Vec<f64>>,
    /// Scratch of the scanning estimators: the rows passing the filter.
    pub(crate) selection: Selection,
    /// Distribution buffers beyond the last request's key count, kept so a
    /// later request with more keys reuses them.
    spare: Vec<Vec<f64>>,
}

impl TableProfile {
    /// Prepares the profile to receive `n` key distributions, reusing the
    /// existing vector capacities.
    pub fn reset(&mut self, n: usize) {
        self.rows = 0.0;
        while self.key_dists.len() > n {
            self.spare.extend(self.key_dists.pop());
        }
        while self.key_dists.len() < n {
            self.key_dists.push(self.spare.pop().unwrap_or_default());
        }
        for d in &mut self.key_dists {
            d.clear();
        }
    }

    /// Elements reserved across all buffers. A refill that leaves this
    /// unchanged grew nothing — how sessions count profile allocations.
    pub fn capacity(&self) -> usize {
        let dists = self.key_dists.iter().chain(&self.spare);
        self.key_dists.capacity()
            + self.spare.capacity()
            + dists.map(Vec::capacity).sum::<usize>()
            + self.selection.capacity()
    }
}

/// A single-table cardinality estimator bound to one table.
///
/// Implementations must be self-contained (no borrowed table data) so that
/// models can be sized, serialized, and updated independently of the live
/// catalog — except [`crate::ExactEstimator`], which by design scans a
/// snapshot it owns.
pub trait BaseTableEstimator: Send + Sync {
    /// Short method name ("bayesnet", "sampling", "truescan").
    fn name(&self) -> &'static str;

    /// Number of bins of `key_col` (the length of its distribution in a
    /// profile).
    fn key_bins(&self, key_col: &str) -> usize;

    /// The one question an estimator answers: the filtered row count *and*
    /// the distribution of every requested key, in one pass, refilling the
    /// caller's buffer in place — the hot path of sub-plan estimation.
    fn profile_into(&self, filter: &FilterExpr, key_cols: &[&str], out: &mut TableProfile);

    /// [`Self::profile_into`] into a fresh buffer.
    fn profile(&self, filter: &FilterExpr, key_cols: &[&str]) -> TableProfile {
        let mut out = TableProfile::default();
        self.profile_into(filter, key_cols, &mut out);
        out
    }

    /// Estimated number of rows satisfying `filter`: a profile without keys.
    fn estimate_filter(&self, filter: &FilterExpr) -> f64 {
        self.profile(filter, &[]).rows
    }

    /// Incorporates rows `first_new_row..` of the (already updated) table —
    /// the incremental-update hook of paper §4.3.
    fn insert(&mut self, table: &Table, first_new_row: usize);

    /// Deep copy behind a fresh box. The incremental-update hot-swap path
    /// clones the served (immutable, `Arc`-shared) model, applies a delta
    /// to the copy, and publishes it — which needs boxed estimators to be
    /// copyable without knowing their concrete type.
    fn clone_box(&self) -> Box<dyn BaseTableEstimator>;

    /// Writes the fitted state — what the fit and every `insert` computed
    /// from rows — for the concrete type's `decode` to read back. Whatever
    /// is derived from that state is recomputed on decode, not written. A
    /// key column's bin map is written as its index in `groups`, the
    /// model's shared maps.
    fn encode(&self, out: &mut Enc, groups: &[Arc<KeyBinMap>]);

    /// Approximate size in bytes of what the estimator owns (paper Figure 6
    /// reports model sizes). The key groups' bin maps are the model's,
    /// shared with every estimator, and not included.
    fn model_bytes(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial estimator to exercise the provided wrappers.
    struct Fixed;

    impl BaseTableEstimator for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn key_bins(&self, _k: &str) -> usize {
            2
        }
        fn profile_into(&self, _f: &FilterExpr, key_cols: &[&str], out: &mut TableProfile) {
            out.reset(key_cols.len());
            out.rows = 10.0;
            for d in &mut out.key_dists {
                d.extend([4.0, 6.0]);
            }
        }
        fn insert(&mut self, _t: &Table, _i: usize) {}
        fn clone_box(&self) -> Box<dyn BaseTableEstimator> {
            Box::new(Fixed)
        }
        fn encode(&self, _out: &mut Enc, _groups: &[Arc<KeyBinMap>]) {}
        fn model_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn default_profile_combines_calls() {
        let e = Fixed;
        let p = e.profile(&FilterExpr::True, &["a", "b"]);
        assert_eq!(p.rows, 10.0);
        assert_eq!(p.key_dists.len(), 2);
        assert_eq!(p.key_dists[0], vec![4.0, 6.0]);
        assert_eq!(e.estimate_filter(&FilterExpr::True), 10.0);
    }
}
