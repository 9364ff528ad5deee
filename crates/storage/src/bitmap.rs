//! Compact null bitmap used by every column.
//!
//! One bit per row; a set bit means the row's value is NULL. The bitmap is
//! lazily allocated: columns with no nulls (the common case for join keys)
//! carry an empty vector and answer all queries in O(1).

use serde::{Deserialize, Serialize};

/// A growable bitmap tracking NULL positions in a column.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NullBitmap {
    words: Vec<u64>,
    len: usize,
    null_count: usize,
}

impl NullBitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no rows are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.null_count
    }

    /// True when the column contains no NULLs at all.
    pub fn no_nulls(&self) -> bool {
        self.null_count == 0
    }

    /// Appends one row; `null` marks it as NULL.
    pub fn push(&mut self, null: bool) {
        if null {
            let idx = self.len;
            let word = idx / 64;
            if self.words.len() <= word {
                self.words.resize(word + 1, 0);
            }
            self.words[word] |= 1u64 << (idx % 64);
            self.null_count += 1;
        }
        self.len += 1;
    }

    /// Returns true when row `idx` is NULL.
    ///
    /// Rows beyond the allocated words are valid by construction (the bitmap
    /// only allocates up to the last NULL).
    #[inline]
    pub fn is_null(&self, idx: usize) -> bool {
        debug_assert!(
            idx < self.len,
            "bitmap index {idx} out of range {}",
            self.len
        );
        let word = idx / 64;
        match self.words.get(word) {
            Some(w) => (w >> (idx % 64)) & 1 == 1,
            None => false,
        }
    }

    /// The NULL bits of rows `64 * word .. 64 * word + 64` (bit `i` set =
    /// row `64 * word + i` is NULL) — lets bulk scans mask 64 rows at once.
    #[inline]
    pub fn word(&self, word: usize) -> u64 {
        self.words.get(word).copied().unwrap_or(0)
    }

    /// Iterator over the row indices that are NULL.
    pub fn null_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.is_null(i))
    }

    /// Approximate heap size in bytes (for model-size accounting).
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_valid_has_no_nulls() {
        let mut b = NullBitmap::new();
        (0..1000).for_each(|_| b.push(false));
        assert_eq!(b.len(), 1000);
        assert_eq!(b.null_count(), 0);
        assert!(!b.is_null(0));
        assert!(!b.is_null(999));
        assert!(b.no_nulls());
        assert_eq!(b.heap_bytes(), 0, "all-valid rows allocate no words");
    }

    #[test]
    fn push_and_query_roundtrip() {
        let mut b = NullBitmap::new();
        let pattern = [false, true, false, false, true, true, false];
        for &n in &pattern {
            b.push(n);
        }
        assert_eq!(b.len(), pattern.len());
        assert_eq!(b.null_count(), 3);
        for (i, &n) in pattern.iter().enumerate() {
            assert_eq!(b.is_null(i), n, "row {i}");
        }
    }

    #[test]
    fn crossing_word_boundary() {
        let mut b = NullBitmap::new();
        for i in 0..200 {
            b.push(i % 63 == 0);
        }
        for i in 0..200 {
            assert_eq!(b.is_null(i), i % 63 == 0, "row {i}");
        }
        assert_eq!(b.null_count(), (0..200).filter(|i| i % 63 == 0).count());
    }

    #[test]
    fn word_agrees_with_is_null() {
        let mut b = NullBitmap::new();
        for i in 0..150 {
            b.push(i % 5 == 1 && i < 70);
        }
        for i in 0..150 {
            assert_eq!(
                (b.word(i / 64) >> (i % 64)) & 1 == 1,
                b.is_null(i),
                "row {i}"
            );
        }
        // Words past the last NULL are not allocated and read as all-valid.
        assert_eq!(b.word(2), 0);
        assert_eq!(b.word(99), 0);
    }

    #[test]
    fn null_indices_matches_is_null() {
        let mut b = NullBitmap::new();
        for i in 0..130 {
            b.push(i % 7 == 3);
        }
        let idx: Vec<usize> = b.null_indices().collect();
        let expect: Vec<usize> = (0..130).filter(|i| i % 7 == 3).collect();
        assert_eq!(idx, expect);
    }

    #[test]
    fn trailing_valid_rows_need_no_allocation() {
        let mut b = NullBitmap::new();
        b.push(true);
        for _ in 0..1000 {
            b.push(false);
        }
        assert!(b.is_null(0));
        assert!(!b.is_null(1000));
        // Only one word allocated despite 1001 rows.
        assert_eq!(b.words.len(), 1);
    }
}
