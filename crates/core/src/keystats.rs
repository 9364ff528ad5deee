//! Per-bin join-key statistics: total counts and most-frequent-value counts.
//!
//! The probabilistic bound (paper Eq. 5) needs, for every join key and
//! every bin `i`, the offline **MFV count** `V*_i` — the count of the most
//! frequent value inside the bin — and the bin's total count. Both are
//! maintained incrementally under inserts (paper §4.3): the frequency map
//! is updated, the bin totals adjusted, and `V*` re-maximized.

use crate::binning::KeyFreq;
use fj_stats::KeyBinMap;
use fj_storage::{Column, Table};
use serde::{Deserialize, Serialize};

/// Per-bin `(total, MFV, NDV)` vectors (see [`KeyStats::bin_vectors`]).
pub(crate) type BinVectors = (Vec<f64>, Vec<f64>, Vec<f64>);

/// Offline statistics of one join-key column under a fixed bin map.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KeyStats {
    /// Total occurrences (rows, NULLs excluded) per bin.
    pub bin_total: Vec<f64>,
    /// Most-frequent-value count per bin (`V*_i`).
    pub bin_mfv: Vec<f64>,
    /// Distinct values per bin (diagnostics; enables NDV-based baselines).
    pub bin_ndv: Vec<f64>,
    /// Value→count frequency map. Estimation never reads it: it is kept
    /// for [`Self::insert`] (incremental updates) and for re-saving the
    /// model. A loaded model holds it in its sorted form until an insert
    /// needs the slab (see [`KeyFreq`]).
    pub freq: KeyFreq,
}

impl KeyStats {
    /// Computes statistics for `column` under `bins`.
    pub fn build(column: &Column, bins: &KeyBinMap) -> Self {
        Self::from_freq(KeyFreq::count_column(column), bins)
    }

    /// Computes statistics from a pre-computed frequency map.
    pub fn from_freq(freq: KeyFreq, bins: &KeyBinMap) -> Self {
        let vectors = Self::bin_vectors(&freq, bins);
        Self::from_vectors(vectors, freq)
    }

    /// The per-bin `(total, MFV, NDV)` vectors of `freq` under `bins` —
    /// the borrow-only half of [`Self::from_freq`], so parallel training
    /// can compute vectors in worker tasks and move each frequency map
    /// into its [`KeyStats`] during serial assembly.
    pub(crate) fn bin_vectors(freq: &KeyFreq, bins: &KeyBinMap) -> BinVectors {
        let k = bins.k();
        let mut bin_total = vec![0.0; k];
        let mut bin_mfv = vec![0.0; k];
        let mut bin_ndv = vec![0.0; k];
        for (v, c) in freq.iter() {
            let b = bins.bin_of(v);
            bin_total[b] += c as f64;
            bin_ndv[b] += 1.0;
            if c as f64 > bin_mfv[b] {
                bin_mfv[b] = c as f64;
            }
        }
        (bin_total, bin_mfv, bin_ndv)
    }

    /// Assembles statistics from pre-computed bin vectors plus the
    /// frequency map they were computed from.
    pub(crate) fn from_vectors((bin_total, bin_mfv, bin_ndv): BinVectors, freq: KeyFreq) -> Self {
        KeyStats {
            bin_total,
            bin_mfv,
            bin_ndv,
            freq,
        }
    }

    /// Number of bins.
    pub fn k(&self) -> usize {
        self.bin_total.len()
    }

    /// Total non-null occurrences across bins.
    pub fn total(&self) -> f64 {
        self.bin_total.iter().sum()
    }

    /// Incorporates the new rows `first_new_row..` of `table`'s column
    /// `ci`, updating frequencies, totals, NDV, and MFV counts. `bins` is
    /// the key group's frozen map: a value it has never seen lands in its
    /// deterministic fallback bin, the same one every estimator sharing the
    /// map assigns it (paper §4.3).
    pub fn insert(&mut self, table: &Table, ci: usize, first_new_row: usize, bins: &KeyBinMap) {
        let column = table.column(ci);
        for r in first_new_row..table.nrows() {
            if let Some(v) = column.key_at(r) {
                let c = self.freq.add(v, 1);
                let b = bins.bin_of(v);
                if c == 1 {
                    self.bin_ndv[b] += 1.0;
                }
                self.bin_total[b] += 1.0;
                if c as f64 > self.bin_mfv[b] {
                    self.bin_mfv[b] = c as f64;
                }
            }
        }
    }

    /// Approximate heap size in bytes (model-size accounting). The
    /// frequency map dominates; per the paper the deployable statistics are
    /// the per-bin vectors, so both are reported separately.
    pub fn heap_bytes(&self) -> usize {
        self.bin_total.len() * 8 * 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_storage::{ColumnDef, Table, TableSchema, Value};
    use std::collections::HashMap;

    fn column(values: &[Option<i64>]) -> Table {
        let schema = TableSchema::new(vec![ColumnDef::key("id")]);
        let rows: Vec<Vec<Value>> = values
            .iter()
            .map(|v| vec![v.map(Value::Int).unwrap_or(Value::Null)])
            .collect();
        Table::from_rows("t", schema, &rows).unwrap()
    }

    fn bins2() -> KeyBinMap {
        // Values 1,2 → bin 0; 3,4 → bin 1.
        let map: HashMap<i64, u32> = [(1, 0), (2, 0), (3, 1), (4, 1)].into_iter().collect();
        KeyBinMap::new(2, map)
    }

    #[test]
    fn totals_mfv_ndv_per_bin() {
        let t = column(&[
            Some(1),
            Some(1),
            Some(1),
            Some(2),
            Some(3),
            Some(4),
            Some(4),
            None,
        ]);
        let s = KeyStats::build(t.column(0), &bins2());
        assert_eq!(s.bin_total, vec![4.0, 3.0]);
        assert_eq!(s.bin_mfv, vec![3.0, 2.0]);
        assert_eq!(s.bin_ndv, vec![2.0, 2.0]);
        assert_eq!(s.total(), 7.0, "NULLs excluded");
    }

    #[test]
    fn paper_figure5_mfv_summary() {
        // Figure 5: A.id counts a:8, b:4, c:1, f:3 in bin1 → MFV 8, total 16.
        let mut values = Vec::new();
        for (v, c) in [(1i64, 8), (2, 4), (3, 1), (4, 3)] {
            values.extend(std::iter::repeat_n(Some(v), c));
        }
        let t = column(&values);
        let map: HashMap<i64, u32> = [(1, 0), (2, 0), (3, 0), (4, 0)].into_iter().collect();
        let s = KeyStats::build(t.column(0), &KeyBinMap::new(1, map));
        assert_eq!(s.bin_total, vec![16.0]);
        assert_eq!(s.bin_mfv, vec![8.0]);
    }

    #[test]
    fn insert_updates_incrementally() {
        let mut t = column(&[Some(1), Some(2), Some(3)]);
        let bins = bins2();
        let mut s = KeyStats::build(t.column(0), &bins);
        assert_eq!(s.bin_mfv, vec![1.0, 1.0]);
        // Insert three more 1s and one new value 99.
        t.append_rows(&[
            vec![Value::Int(1)],
            vec![Value::Int(1)],
            vec![Value::Int(1)],
            vec![Value::Int(99)],
        ])
        .unwrap();
        s.insert(&t, 0, 3, &bins);
        assert_eq!(s.freq.get(1), 4);
        let b1 = bins.bin_of(1);
        assert_eq!(s.bin_mfv[b1], 4.0);
        // 99 landed in its fallback bin and was counted.
        let b99 = bins.bin_of(99);
        assert!(s.bin_total[b99] >= 1.0);
        assert_eq!(s.total(), 7.0);
    }

    #[test]
    fn incremental_equals_rebuild() {
        let mut t = column(&(0..50).map(|i| Some(i % 4 + 1)).collect::<Vec<_>>());
        let bins = bins2();
        let mut s = KeyStats::build(t.column(0), &bins);
        let new: Vec<Vec<Value>> = (0..30).map(|i| vec![Value::Int(i % 4 + 1)]).collect();
        t.append_rows(&new).unwrap();
        s.insert(&t, 0, 50, &bins);
        let rebuilt = KeyStats::build(t.column(0), &bins);
        assert_eq!(s.bin_total, rebuilt.bin_total);
        assert_eq!(s.bin_mfv, rebuilt.bin_mfv);
        assert_eq!(s.bin_ndv, rebuilt.bin_ndv);
    }

    #[test]
    fn empty_column() {
        let t = column(&[None, None]);
        let s = KeyStats::build(t.column(0), &bins2());
        assert_eq!(s.total(), 0.0);
        assert_eq!(s.bin_mfv, vec![0.0, 0.0]);
    }
}
