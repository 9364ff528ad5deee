//! The estimator interface FactorJoin plugs into.

use fj_query::{FilterExpr, Selection};
use fj_storage::Table;

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

    /// Estimated number of rows satisfying `filter`.
    fn estimate_filter(&self, filter: &FilterExpr) -> f64;

    /// Estimated rows per bin of join key `key_col`, conditioned on
    /// `filter`. Length equals the key's bin count; NULL keys excluded.
    fn key_distribution(&self, key_col: &str, filter: &FilterExpr) -> Vec<f64>;

    /// Number of bins of `key_col` (the length `key_distribution` returns).
    fn key_bins(&self, key_col: &str) -> usize;

    /// Filtered row count *and* several key distributions in one pass —
    /// the hot path of sub-plan estimation. The default calls the two
    /// methods above; implementations override to share work.
    fn profile(&self, filter: &FilterExpr, key_cols: &[&str]) -> TableProfile {
        TableProfile {
            rows: self.estimate_filter(filter),
            key_dists: key_cols
                .iter()
                .map(|k| self.key_distribution(k, filter))
                .collect(),
            ..TableProfile::default()
        }
    }

    /// [`Self::profile`] into a caller-owned buffer, reusing its
    /// allocations where possible. The default replaces the buffer with a
    /// fresh [`Self::profile`]; allocation-conscious implementations
    /// override this to refill `out` in place.
    fn profile_into(&self, filter: &FilterExpr, key_cols: &[&str], out: &mut TableProfile) {
        *out = self.profile(filter, key_cols);
    }

    /// Incorporates rows `first_new_row..` of the (already updated) table —
    /// the incremental-update hook of paper §4.3.
    fn insert(&mut self, table: &Table, first_new_row: usize);

    /// Deep copy behind a fresh box. The incremental-update hot-swap path
    /// clones the served (immutable, `Arc`-shared) model, applies a delta
    /// to the copy, and publishes it — which needs boxed estimators to be
    /// copyable without knowing their concrete type.
    fn clone_box(&self) -> Box<dyn BaseTableEstimator>;

    /// Approximate model size in bytes (paper Figure 6 reports model sizes).
    fn model_bytes(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial estimator to exercise the default `profile` impl.
    struct Fixed;

    impl BaseTableEstimator for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn estimate_filter(&self, _f: &FilterExpr) -> f64 {
            10.0
        }
        fn key_distribution(&self, _k: &str, _f: &FilterExpr) -> Vec<f64> {
            vec![4.0, 6.0]
        }
        fn key_bins(&self, _k: &str) -> usize {
            2
        }
        fn insert(&mut self, _t: &Table, _i: usize) {}
        fn clone_box(&self) -> Box<dyn BaseTableEstimator> {
            Box::new(Fixed)
        }
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
    }
}
