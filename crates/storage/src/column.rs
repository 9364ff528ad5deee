//! Typed columnar vectors with null bitmaps and string dictionaries.
//!
//! A string column is dictionary-encoded: one `u32` code per row and one
//! [`StrDict`] per column. The dictionary keeps every distinct string in a
//! single byte arena — entries back to back, plus each entry's end offset —
//! so a predicate over the dictionary (`LIKE`, `=`, a range) reads one
//! contiguous buffer instead of one heap allocation per entry. `LIKE '%w%'`
//! is then a single substring scan over the arena
//! (`fj_query::LikePattern::match_dict`), and the dictionary costs its
//! bytes plus four per entry.

use crate::bitmap::NullBitmap;
use crate::schema::DataType;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A column of values, stored as a typed dense vector plus a null bitmap.
///
/// String columns are dictionary-encoded: the `codes` vector stores `u32`
/// indices into `dict`. The dictionary is per-column (not global), which is
/// all the estimators need — `LIKE` predicates are resolved against the
/// dictionary once per query and then evaluated as code-set membership.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Column {
    /// Integer data; NULL rows carry an arbitrary placeholder in `values`.
    Int { values: Vec<i64>, nulls: NullBitmap },
    /// Floating-point data.
    Float { values: Vec<f64>, nulls: NullBitmap },
    /// Dictionary-encoded strings.
    Str {
        codes: Vec<u32>,
        dict: StrDict,
        nulls: NullBitmap,
    },
}

/// A string dictionary as one arena: entry `c` is the text between the end
/// of entry `c - 1` (0 for the first) and `ends()[c]`.
///
/// The arena is a `String`, so [`Self::get`] slices it without re-checking
/// UTF-8 (every entry boundary is a character boundary); [`Self::bytes`]
/// hands scans the same memory as bytes. Offsets are `u32`: an arena of
/// more than `u32::MAX` bytes is refused by [`Self::push`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StrDict {
    text: String,
    ends: Vec<u32>,
}

/// [`StrDict::push`] would grow the arena past `u32::MAX` bytes or entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DictionaryFull;

impl StrDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when there is no entry.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Entry `code` (panics when out of range).
    pub fn get(&self, code: usize) -> &str {
        let start = match code {
            0 => 0,
            _ => self.ends[code - 1] as usize,
        };
        &self.text[start..self.ends[code] as usize]
    }

    /// The entries in code order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let entry = &self.text[start..end as usize];
            start = end as usize;
            entry
        })
    }

    /// The entries in code order, as bytes: [`Self::iter`] without the
    /// character-boundary checks of slicing a `str` (byte order is the
    /// order of `str`, so comparisons need nothing else).
    pub fn iter_bytes(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let entry = &self.text.as_bytes()[start..end as usize];
            start = end as usize;
            entry
        })
    }

    /// The arena: every entry's UTF-8 bytes, back to back.
    pub fn bytes(&self) -> &[u8] {
        self.text.as_bytes()
    }

    /// The end offset of each entry in [`Self::bytes`], ascending.
    pub fn ends(&self) -> &[u32] {
        &self.ends
    }

    /// Appends `s` as a new entry (no interning: a repeated string gets a
    /// second code) and returns its code.
    pub fn push(&mut self, s: &str) -> Result<u32, DictionaryFull> {
        let code = u32::try_from(self.ends.len()).map_err(|_| DictionaryFull)?;
        let end = u32::try_from(self.text.len() + s.len()).map_err(|_| DictionaryFull)?;
        self.text.push_str(s);
        self.ends.push(end);
        Ok(code)
    }

    /// A dictionary of `entries` in order, its buffers exactly full — what
    /// a finished column holds.
    pub fn from_entries<'a>(
        entries: impl IntoIterator<Item = &'a str>,
    ) -> Result<Self, DictionaryFull> {
        let mut dict = StrDict::new();
        for s in entries {
            dict.push(s)?;
        }
        dict.shrink_to_fit();
        Ok(dict)
    }

    /// Heap footprint in bytes: the arena plus four bytes per entry once
    /// the column is finished (its buffers are then exactly full).
    pub fn heap_bytes(&self) -> usize {
        self.text.capacity() + self.ends.capacity() * 4
    }

    fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
    }
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int { values, .. } => values.len(),
            Column::Float { values, .. } => values.len(),
            Column::Str { codes, .. } => codes.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's logical type.
    pub fn dtype(&self) -> DataType {
        match self {
            Column::Int { .. } => DataType::Int,
            Column::Float { .. } => DataType::Float,
            Column::Str { .. } => DataType::Str,
        }
    }

    /// Null bitmap.
    pub fn nulls(&self) -> &NullBitmap {
        match self {
            Column::Int { nulls, .. } | Column::Float { nulls, .. } | Column::Str { nulls, .. } => {
                nulls
            }
        }
    }

    /// True when row `idx` is NULL.
    #[inline]
    pub fn is_null(&self, idx: usize) -> bool {
        self.nulls().is_null(idx)
    }

    /// Integer payload vector (panics if not an Int column).
    pub fn ints(&self) -> &[i64] {
        match self {
            Column::Int { values, .. } => values,
            other => panic!("expected Int column, got {}", other.dtype().name()),
        }
    }

    /// Float payload vector (panics if not a Float column).
    pub fn floats(&self) -> &[f64] {
        match self {
            Column::Float { values, .. } => values,
            other => panic!("expected Float column, got {}", other.dtype().name()),
        }
    }

    /// Dictionary codes (panics if not a Str column).
    pub fn codes(&self) -> &[u32] {
        match self {
            Column::Str { codes, .. } => codes,
            other => panic!("expected Str column, got {}", other.dtype().name()),
        }
    }

    /// String dictionary (panics if not a Str column).
    pub fn dict(&self) -> &StrDict {
        match self {
            Column::Str { dict, .. } => dict,
            other => panic!("expected Str column, got {}", other.dtype().name()),
        }
    }

    /// Row `idx` as a [`Value`] (boundary use only — not for hot loops).
    pub fn get(&self, idx: usize) -> Value {
        if self.is_null(idx) {
            return Value::Null;
        }
        match self {
            Column::Int { values, .. } => Value::Int(values[idx]),
            Column::Float { values, .. } => Value::Float(values[idx]),
            Column::Str { codes, dict, .. } => Value::Str(dict.get(codes[idx] as usize).into()),
        }
    }

    /// The join-key value of row `idx` as `i64`, treating NULL as `None`.
    ///
    /// Join keys are Ints; for Str columns the dictionary code is used (this
    /// supports string-typed keys without special cases downstream).
    #[inline]
    pub fn key_at(&self, idx: usize) -> Option<i64> {
        if self.is_null(idx) {
            return None;
        }
        match self {
            Column::Int { values, .. } => Some(values[idx]),
            Column::Str { codes, .. } => Some(codes[idx] as i64),
            Column::Float { .. } => None,
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Column::Int { values, nulls } => values.capacity() * 8 + nulls.heap_bytes(),
            Column::Float { values, nulls } => values.capacity() * 8 + nulls.heap_bytes(),
            Column::Str { codes, dict, nulls } => {
                codes.capacity() * 4 + dict.heap_bytes() + nulls.heap_bytes()
            }
        }
    }
}

/// Incremental builder for a [`Column`], accepting [`Value`]s.
///
/// The builder interns strings into the dictionary as they arrive, so loading
/// a table is a single pass.
#[derive(Debug)]
pub struct ColumnBuilder {
    dtype: DataType,
    ints: Vec<i64>,
    floats: Vec<f64>,
    codes: Vec<u32>,
    dict: StrDict,
    intern: HashMap<String, u32>,
    nulls: NullBitmap,
}

/// Why [`ColumnBuilder::push`] refused a value (converted to a typed
/// [`crate::StorageError`] by [`crate::Table`], which knows the column name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The value has this type, which the column does not hold.
    TypeMismatch(&'static str),
    /// The string would grow the dictionary past `u32::MAX` bytes.
    DictionaryFull,
}

impl From<DictionaryFull> for PushError {
    fn from(_: DictionaryFull) -> Self {
        PushError::DictionaryFull
    }
}

impl ColumnBuilder {
    /// Creates a builder for columns of type `dtype`.
    pub fn new(dtype: DataType) -> Self {
        ColumnBuilder {
            dtype,
            ints: Vec::new(),
            floats: Vec::new(),
            codes: Vec::new(),
            dict: StrDict::new(),
            intern: HashMap::new(),
            nulls: NullBitmap::new(),
        }
    }

    /// Creates a builder with pre-reserved capacity for `n` rows.
    pub fn with_capacity(dtype: DataType, n: usize) -> Self {
        let mut b = Self::new(dtype);
        match dtype {
            DataType::Int => b.ints.reserve(n),
            DataType::Float => b.floats.reserve(n),
            DataType::Str => b.codes.reserve(n),
        }
        b
    }

    /// Appends one value, coercing `Int`→`Float` for float columns. A
    /// refused value leaves the builder unchanged.
    pub fn push(&mut self, v: &Value) -> Result<(), PushError> {
        match (self.dtype, v) {
            (_, Value::Null) => {
                self.nulls.push(true);
                match self.dtype {
                    DataType::Int => self.ints.push(0),
                    DataType::Float => self.floats.push(0.0),
                    DataType::Str => self.codes.push(0),
                }
                // The dictionary must stay non-empty if code 0 is referenced.
                if self.dtype == DataType::Str && self.dict.is_empty() {
                    self.dict.push("").expect("an empty dictionary has room");
                    self.intern.insert(String::new(), 0);
                }
                Ok(())
            }
            (DataType::Int, Value::Int(x)) => {
                self.nulls.push(false);
                self.ints.push(*x);
                Ok(())
            }
            (DataType::Float, Value::Float(x)) => {
                self.nulls.push(false);
                self.floats.push(*x);
                Ok(())
            }
            (DataType::Float, Value::Int(x)) => {
                self.nulls.push(false);
                self.floats.push(*x as f64);
                Ok(())
            }
            (DataType::Str, Value::Str(s)) => {
                let code = match self.intern.get(s.as_str()) {
                    Some(&c) => c,
                    None => {
                        let c = self.dict.push(s)?;
                        self.intern.insert(s.clone(), c);
                        c
                    }
                };
                self.nulls.push(false);
                self.codes.push(code);
                Ok(())
            }
            _ => Err(PushError::TypeMismatch(v.type_name())),
        }
    }

    /// Number of rows appended so far.
    pub fn len(&self) -> usize {
        self.nulls.len()
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finalizes the builder into an immutable [`Column`]; a string
    /// column's dictionary is shrunk to fit.
    pub fn finish(mut self) -> Column {
        match self.dtype {
            DataType::Int => Column::Int {
                values: self.ints,
                nulls: self.nulls,
            },
            DataType::Float => Column::Float {
                values: self.floats,
                nulls: self.nulls,
            },
            DataType::Str => {
                self.dict.shrink_to_fit();
                Column::Str {
                    codes: self.codes,
                    dict: self.dict,
                    nulls: self.nulls,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrip() {
        let mut b = ColumnBuilder::new(DataType::Int);
        for v in [Value::Int(1), Value::Null, Value::Int(-3)] {
            b.push(&v).unwrap();
        }
        let c = b.finish();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0).as_int(), Some(1));
        assert!(c.get(1).is_null());
        assert_eq!(c.key_at(1), None);
        assert_eq!(c.key_at(2), Some(-3));
    }

    #[test]
    fn float_coerces_ints() {
        let mut b = ColumnBuilder::new(DataType::Float);
        b.push(&Value::Int(2)).unwrap();
        b.push(&Value::Float(0.5)).unwrap();
        let c = b.finish();
        assert_eq!(c.floats(), &[2.0, 0.5]);
    }

    #[test]
    fn string_dictionary_interning() {
        let mut b = ColumnBuilder::new(DataType::Str);
        for s in ["a", "b", "a", "c", "b"] {
            b.push(&Value::Str(s.into())).unwrap();
        }
        let c = b.finish();
        assert_eq!(c.dict().iter().collect::<Vec<_>>(), ["a", "b", "c"]);
        assert_eq!(c.codes(), &[0, 1, 0, 2, 1]);
        assert_eq!(c.get(2).as_str(), Some("a"));
        // String keys surface dictionary codes.
        assert_eq!(c.key_at(3), Some(2));
    }

    #[test]
    fn string_dictionary_is_one_arena() {
        let mut b = ColumnBuilder::new(DataType::Str);
        for v in [
            Value::Null,
            "café".into(),
            "".into(),
            "ab".into(),
            "café".into(),
        ] {
            b.push(&v).unwrap();
        }
        let c = b.finish();
        let dict = c.dict();
        // The NULL placeholder and the empty string share code 0.
        assert_eq!(c.codes(), &[0, 1, 0, 2, 1]);
        assert_eq!(dict.iter().collect::<Vec<_>>(), ["", "café", "ab"]);
        assert_eq!(dict.bytes(), "caféab".as_bytes());
        assert_eq!(dict.ends(), &[0, 5, 7]);
        assert_eq!((dict.get(1), dict.get(2)), ("café", "ab"));
        assert_eq!(dict.heap_bytes(), 7 + 4 * 3);
        let mut raw = StrDict::new();
        assert_eq!(
            (raw.push("x"), raw.push("x")),
            (Ok(0), Ok(1)),
            "no interning"
        );
    }

    #[test]
    fn null_string_reserves_code_zero() {
        let mut b = ColumnBuilder::new(DataType::Str);
        b.push(&Value::Null).unwrap();
        b.push(&Value::Str("x".into())).unwrap();
        let c = b.finish();
        assert!(c.get(0).is_null());
        assert_eq!(c.get(1).as_str(), Some("x"));
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let mut b = ColumnBuilder::new(DataType::Int);
        assert!(b.push(&Value::Str("x".into())).is_err());
        assert_eq!(b.len(), 0);
    }

    #[test]
    #[should_panic(expected = "expected Int column")]
    fn wrong_accessor_panics() {
        let b = ColumnBuilder::new(DataType::Str);
        b.finish().ints();
    }

    #[test]
    fn heap_bytes_positive_for_nonempty() {
        let mut b = ColumnBuilder::new(DataType::Int);
        b.push(&Value::Int(1)).unwrap();
        assert!(b.finish().heap_bytes() > 0);
    }
}
