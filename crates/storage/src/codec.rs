//! Byte codec primitives for persisted models, and the table codec.
//!
//! [`Enc`] appends little-endian fixed-width fields, LEB128 varints and
//! zigzag-encoded signed varints to a buffer; [`Dec`] reads them back from a
//! slice with every read bounds-checked. A decoder never trusts a length
//! before checking it against the bytes actually present: [`Dec::count`]
//! bounds an element count by the remaining payload *before* the caller
//! allocates, so a field claiming 2⁶⁰ entries fails with
//! [`DecodeError::HostileLength`] instead of exhausting memory.
//!
//! A model load reads hundreds of thousands of values through [`Dec`], so
//! its reads follow one hot-path rule: pay per byte, not per call. The reads
//! are `#[inline]`, so a caller in another crate compiles them into its
//! loop. [`Dec::varint`] returns a one-byte value — most counts, deltas and
//! codes — without entering its loop, and keeps the loop, with its
//! truncation and overflow errors, out of line. Bulk readers fill their
//! consumer directly and validate as they go, with no intermediate
//! vector: [`Dec::f64s`] takes a run of `f64`s with one bounds check, and
//! [`EntryReader`] hands a sorted-entry map's pairs to the slab being
//! filled. Each rejects what a per-value reader rejects, with the same
//! error and field name, and checks a count before anything is sized.
//!
//! [`encode_table`] / [`decode_table`] persist a [`Table`] — schema, NULL
//! positions and values — as a varint stream. Decoding replays the values
//! through [`ColumnBuilder`], the way every table is built, so a decoded
//! table equals the encoded one field for field: dictionary order,
//! placeholders under NULLs and buffer sizes included.

use crate::column::ColumnBuilder;
use crate::schema::{ColumnDef, DataType, TableSchema};
use crate::table::Table;
use crate::value::Value;

/// Why a byte stream did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The bytes ended inside the named field.
    Truncated {
        /// What was being read when the bytes ran out.
        what: &'static str,
    },
    /// A count claims more elements than the remaining bytes could hold.
    HostileLength {
        /// The field whose count was hostile.
        what: &'static str,
        /// Claimed element count.
        wanted: u64,
        /// Elements the remaining bytes could actually hold.
        available: u64,
    },
    /// A field decoded but failed validation.
    Invalid {
        /// What was wrong.
        what: String,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { what } => write!(f, "truncated while reading {what}"),
            DecodeError::HostileLength {
                what,
                wanted,
                available,
            } => write!(
                f,
                "{what} claims {wanted} elements but at most {available} fit the payload"
            ),
            DecodeError::Invalid { what } => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A [`DecodeError::Invalid`] saying `what`.
pub fn invalid(what: impl Into<String>) -> DecodeError {
    DecodeError::Invalid { what: what.into() }
}

/// Byte-stream builder (see module docs).
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An `f64` as its raw little-endian bits (exact, NaN payloads kept).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// An unsigned LEB128 varint: 7 bits a byte, low bits first.
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// A `usize` as a varint.
    pub fn len(&mut self, v: usize) {
        self.varint(v as u64);
    }

    /// A signed value, zigzag-mapped (0, -1, 1, -2, … → 0, 1, 2, 3, …) so
    /// small magnitudes of either sign take few bytes.
    pub fn zigzag(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked cursor over an encoded payload. Every read names the
/// field it reads, so a truncation error says where the bytes ran out.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, at: 0 }
    }

    /// Bytes not read yet.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated { what });
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// An `f64` from its raw bits.
    #[inline]
    pub fn f64(&mut self, what: &'static str) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// `n` `f64`s, each its raw bits, into a vector sized once: one bounds
    /// check for the run, then one load a value.
    pub fn f64s(&mut self, n: usize, what: &'static str) -> Result<Vec<f64>, DecodeError> {
        let bytes = self.take(n.saturating_mul(8), what)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
            .collect())
    }

    /// An unsigned LEB128 varint; more than ten bytes, or bits beyond 64,
    /// are invalid. A value below 128 — most counts, deltas and codes — is
    /// one byte and returns without entering the loop.
    #[inline]
    pub fn varint(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        if let Some(&b) = self.buf.get(self.at) {
            if b < 0x80 {
                self.at += 1;
                return Ok(u64::from(b));
            }
        }
        self.varint_slow(what)
    }

    /// [`Self::varint`] a byte at a time: every multi-byte value, and every
    /// truncation and overflow error.
    #[inline(never)]
    fn varint_slow(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8(what)?;
            if shift == 63 && b > 1 {
                break;
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(invalid(format!("{what}: varint overflows 64 bits")))
    }

    /// A varint that must fit a `usize` (a size or an index, not a count
    /// of elements that follow — see [`Self::count`]).
    #[inline]
    pub fn usize(&mut self, what: &'static str) -> Result<usize, DecodeError> {
        let v = self.varint(what)?;
        usize::try_from(v).map_err(|_| invalid(format!("{what}: {v} does not fit a usize")))
    }

    /// A varint that must fit a `u32`.
    #[inline]
    pub fn u32_varint(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        let v = self.varint(what)?;
        u32::try_from(v).map_err(|_| invalid(format!("{what}: {v} does not fit 32 bits")))
    }

    /// A zigzag-mapped signed varint (see [`Enc::zigzag`]).
    #[inline]
    pub fn zigzag(&mut self, what: &'static str) -> Result<i64, DecodeError> {
        let v = self.varint(what)?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
    }

    /// An element count, pre-validated against the remaining payload at
    /// `min_elem_size` bytes an element **before** the caller allocates
    /// anything: the no-OOM-on-hostile-length guard.
    pub fn count(
        &mut self,
        what: &'static str,
        min_elem_size: usize,
    ) -> Result<usize, DecodeError> {
        let n = self.varint(what)?;
        let available = (self.remaining() / min_elem_size.max(1)) as u64;
        if n > available {
            return Err(DecodeError::HostileLength {
                what,
                wanted: n,
                available,
            });
        }
        Ok(n as usize)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<&'a str, DecodeError> {
        let n = self.count(what, 1)?;
        std::str::from_utf8(self.take(n, what)?)
            .map_err(|_| invalid(format!("{what} is not UTF-8")))
    }
}

/// Writes integers as the count, then each as the zigzag delta from the
/// previous one (the first from 0): sorted lists cost a byte or two each.
pub fn encode_deltas(e: &mut Enc, values: &[i64]) {
    e.len(values.len());
    let mut prev = 0i64;
    for &v in values {
        e.zigzag(v.wrapping_sub(prev));
        prev = v;
    }
}

/// Reads integers written by [`encode_deltas`]; their order is the
/// caller's to validate.
pub fn decode_deltas(d: &mut Dec<'_>, what: &'static str) -> Result<Vec<i64>, DecodeError> {
    let n = d.count(what, 1)?;
    let mut out = Vec::with_capacity(n);
    let mut prev = 0i64;
    for _ in 0..n {
        prev = prev.wrapping_add(d.zigzag(what)?);
        out.push(prev);
    }
    Ok(out)
}

/// Writes `(value, payload)` pairs sorted by value: the count, then per
/// pair the zigzag delta from the previous value and the payload varint —
/// the form of a frequency map or a bin map on disk.
pub fn encode_entries(e: &mut Enc, entries: &[(i64, u64)]) {
    e.len(entries.len());
    let mut prev = 0i64;
    for &(v, payload) in entries {
        e.zigzag(v.wrapping_sub(prev));
        e.varint(payload);
        prev = v;
    }
}

/// Reads the pairs written by [`encode_entries`] one at a time, so a map
/// fills its slab straight from the bytes instead of from a vector of
/// pairs. [`Self::new`] reads the count, bounded by the payload before the
/// caller sizes anything; the caller then calls [`Self::next_pair`] exactly
/// [`Self::count`] times and asks [`Self::unordered`] at the end. Reading
/// every pair before reporting an order fault keeps the precedence of a
/// reader that collects the pairs first: a truncated or overflowing pair
/// anywhere wins over values out of order.
#[derive(Debug)]
pub struct EntryReader {
    what: &'static str,
    count: usize,
    read: usize,
    prev: i64,
    unordered: Option<(i64, i64)>,
}

impl EntryReader {
    /// Reads the pair count; a pair is at least two bytes.
    pub fn new(d: &mut Dec<'_>, what: &'static str) -> Result<Self, DecodeError> {
        Ok(EntryReader {
            what,
            count: d.count(what, 2)?,
            read: 0,
            prev: 0,
            unordered: None,
        })
    }

    /// Number of pairs the count announced.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The next `(value, payload)` pair.
    #[inline]
    pub fn next_pair(&mut self, d: &mut Dec<'_>) -> Result<(i64, u64), DecodeError> {
        debug_assert!(self.read < self.count, "read past the announced count");
        let v = self.prev.wrapping_add(d.zigzag(self.what)?);
        let payload = d.varint(self.what)?;
        if self.read > 0 && v <= self.prev && self.unordered.is_none() {
            self.unordered = Some((self.prev, v));
        }
        self.prev = v;
        self.read += 1;
        Ok((v, payload))
    }

    /// Whether every value read so far was above the one before it: while
    /// it holds, the value just read is new to the map being filled.
    #[inline]
    pub fn in_order(&self) -> bool {
        self.unordered.is_none()
    }

    /// The first adjacent values that did not strictly increase, as the
    /// message a corrupt map is rejected with.
    pub fn unordered(&self) -> Result<(), String> {
        match self.unordered {
            Some((a, b)) => Err(format!("values not strictly increasing: {a} then {b}")),
            None => Ok(()),
        }
    }
}

fn dtype_tag(dtype: DataType) -> u8 {
    match dtype {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
    }
}

/// Writes a schema: per column its name, type and join-key flag.
pub fn encode_schema(e: &mut Enc, schema: &TableSchema) {
    e.len(schema.len());
    for def in schema.columns() {
        e.str(&def.name);
        e.u8(dtype_tag(def.dtype));
        e.u8(u8::from(def.join_key));
    }
}

/// Reads a schema written by [`encode_schema`]; a duplicate column name is
/// invalid (not a panic of [`TableSchema::new`]).
pub fn decode_schema(d: &mut Dec<'_>) -> Result<TableSchema, DecodeError> {
    // A column is at least its name's length byte, type and flag.
    let n = d.count("schema column count", 3)?;
    let mut columns: Vec<ColumnDef> = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str("column name")?;
        let dtype = match d.u8("column type")? {
            0 => DataType::Int,
            1 => DataType::Float,
            2 => DataType::Str,
            t => return Err(invalid(format!("column {name:?}: unknown type tag {t}"))),
        };
        let join_key = match d.u8("column key flag")? {
            0 => false,
            1 => true,
            f => return Err(invalid(format!("column {name:?}: key flag {f}"))),
        };
        if columns.iter().any(|c| c.name == name) {
            return Err(invalid(format!("duplicate column {name:?}")));
        }
        columns.push(ColumnDef {
            name: name.to_string(),
            dtype,
            join_key,
        });
    }
    Ok(TableSchema::new(columns))
}

/// Writes `table`: its name, schema and row count, then per column the
/// NULL rows (delta varints) and the non-NULL values — integers as zigzag
/// deltas from the previous value, floats as raw bits, strings as the
/// dictionary followed by one code varint a row.
pub fn encode_table(e: &mut Enc, table: &Table) {
    e.str(table.name());
    encode_schema(e, table.schema());
    let n = table.nrows();
    e.len(n);
    for col in table.columns() {
        let nulls = col.nulls();
        e.len(nulls.null_count());
        let mut prev = 0usize;
        for r in (0..n).filter(|&r| nulls.is_null(r)) {
            e.len(r - prev);
            prev = r + 1;
        }
        if col.dtype() == DataType::Str {
            e.len(col.dict().len());
            col.dict().iter().for_each(|s| e.str(s));
        }
        let mut prev = 0i64;
        for r in (0..n).filter(|&r| !nulls.is_null(r)) {
            match col.dtype() {
                DataType::Int => {
                    e.zigzag(col.ints()[r].wrapping_sub(prev));
                    prev = col.ints()[r];
                }
                DataType::Float => e.f64(col.floats()[r]),
                DataType::Str => e.varint(u64::from(col.codes()[r])),
            }
        }
    }
}

/// Reads a table written by [`encode_table`]. Values are replayed through
/// a [`ColumnBuilder`] sized for the row count, as every table is built.
pub fn decode_table(d: &mut Dec<'_>) -> Result<Table, DecodeError> {
    let name = d.str("table name")?.to_string();
    let schema = decode_schema(d)?;
    // Every row costs at least one byte in each column (a NULL's delta or
    // a value), which bounds the row count before any builder reserves.
    let nrows = if schema.is_empty() {
        match d.varint("table row count")? {
            0 => 0,
            n => return Err(invalid(format!("table {name:?}: {n} rows but no columns"))),
        }
    } else {
        d.count("table row count", schema.len())?
    };
    let mut columns = Vec::with_capacity(schema.len());
    for def in schema.columns() {
        let bad = |what: &str| invalid(format!("table {name:?} column {:?}: {what}", def.name));
        let null_count = d.count("NULL row count", 1)?;
        if null_count > nrows {
            return Err(bad("more NULLs than rows"));
        }
        let mut null_rows = Vec::with_capacity(null_count);
        let mut next = 0usize;
        for _ in 0..null_count {
            let delta = d.varint("NULL row delta")?;
            let r = usize::try_from(delta)
                .ok()
                .and_then(|delta| next.checked_add(delta))
                .filter(|&r| r < nrows)
                .ok_or_else(|| bad("NULL row out of range"))?;
            null_rows.push(r);
            next = r + 1;
        }
        let mut dict = Vec::new();
        if def.dtype == DataType::Str {
            let entries = d.count("dictionary size", 1)?;
            for _ in 0..entries {
                dict.push(d.str("dictionary entry")?);
            }
        }
        let mut b = ColumnBuilder::with_capacity(def.dtype, nrows);
        let mut nulls = null_rows.into_iter().peekable();
        let mut prev = 0i64;
        for r in 0..nrows {
            let v = if nulls.next_if_eq(&r).is_some() {
                Value::Null
            } else {
                match def.dtype {
                    DataType::Int => {
                        prev = prev.wrapping_add(d.zigzag("integer value")?);
                        Value::Int(prev)
                    }
                    DataType::Float => Value::Float(d.f64("float value")?),
                    DataType::Str => {
                        let code = d.varint("string code")?;
                        let s = usize::try_from(code)
                            .ok()
                            .and_then(|c| dict.get(c))
                            .ok_or_else(|| bad("string code out of range"))?;
                        Value::Str((*s).to_string())
                    }
                }
            };
            b.push(&v).map_err(|_| bad("dictionary overflow"))?;
        }
        columns.push(b.finish());
    }
    Table::from_columns(&name, schema, columns).map_err(|e| invalid(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;

    fn table() -> Table {
        let schema = TableSchema::new(vec![
            ColumnDef::key("id"),
            ColumnDef::new("x", DataType::Float),
            ColumnDef::new("s", DataType::Str),
        ]);
        let rows: Vec<Vec<Value>> = (0..300i64)
            .map(|i| {
                vec![
                    if i % 7 == 3 {
                        Value::Null
                    } else {
                        Value::Int((i * 7919) % 1000 - 500)
                    },
                    if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Float(i as f64 / 3.0)
                    },
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Str(format!("s{}", i % 13))
                    },
                ]
            })
            .collect();
        Table::from_rows("t", schema, &rows).unwrap()
    }

    #[test]
    fn varints_round_trip_at_the_edges() {
        let mut e = Enc::default();
        let unsigned = [0, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let signed = [0, -1, 1, i64::MIN, i64::MAX, -300];
        unsigned.iter().for_each(|&v| e.varint(v));
        signed.iter().for_each(|&v| e.zigzag(v));
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        for v in unsigned {
            assert_eq!(d.varint("u").unwrap(), v);
        }
        for v in signed {
            assert_eq!(d.zigzag("s").unwrap(), v);
        }
        assert_eq!(d.remaining(), 0);
        // Eleven continuation bytes overflow; a count beyond the payload is
        // hostile before anything is allocated.
        assert!(Dec::new(&[0xFF; 11]).varint("v").is_err());
        assert!(matches!(
            Dec::new(&[0xFF, 0xFF, 0xFF, 0x0F]).count("n", 8),
            Err(DecodeError::HostileLength { .. })
        ));
    }

    /// The one-byte fast path and the byte-at-a-time loop agree — value,
    /// error and cursor — on every encoding of 1 to 10 bytes: all one- and
    /// two-byte buffers, then for each longer length continuation bytes of
    /// every shape followed by terminators that fit, overflow or are
    /// overlong (a zero high group), each read whole, cut short, with bytes
    /// after it, and from the last byte of a longer buffer.
    #[test]
    fn varint_fast_path_agrees_with_the_loop() {
        let agree = |buf: &[u8], at: usize| {
            let (mut fast, mut slow) = (Dec::new(buf), Dec::new(buf));
            fast.at = at;
            slow.at = at;
            let got = (fast.varint("v"), fast.remaining());
            let want = (slow.varint_slow("v"), slow.remaining());
            assert_eq!(got, want, "{buf:02x?} from byte {at}");
        };
        let mut encodings: Vec<Vec<u8>> = (0..=255u8).map(|b| vec![b]).collect();
        for a in 0..=255u8 {
            encodings.extend((0..=255u8).map(|b| vec![a, b]));
        }
        for len in 3..=11 {
            for cont in [0x80u8, 0x81, 0xC0, 0xFE, 0xFF] {
                for last in [0x00u8, 0x01, 0x02, 0x40, 0x7E, 0x7F, 0x80, 0xFF] {
                    let mut e = vec![cont; len - 1];
                    e.push(last);
                    encodings.push(e);
                }
            }
        }
        let mut e = Enc::default();
        for v in [0, 127, 128, 1 << 35, u64::MAX >> 1, u64::MAX] {
            e.varint(v);
        }
        let canonical = e.finish();
        for enc in &encodings {
            agree(enc, 0);
            agree(&enc[..enc.len() - 1], 0);
            let mut tail = enc.clone();
            tail.extend_from_slice(&canonical);
            agree(&tail, 0);
            let mut prefixed = canonical.clone();
            prefixed.extend_from_slice(enc);
            agree(&prefixed, canonical.len());
            agree(&prefixed, prefixed.len() - 1);
            agree(&prefixed, prefixed.len());
        }
    }

    /// `f64s` reads what per-value `f64` reads read, and fails where they
    /// fail with the same error.
    #[test]
    fn bulk_f64s_match_per_value_reads() {
        let mut e = Enc::default();
        for x in [0.5, -0.0, f64::NAN, f64::INFINITY, 1e300, 3.25] {
            e.f64(x);
        }
        let bytes = e.finish();
        for cut in 0..=bytes.len() {
            for n in [0, 1, 5, 6, 7, usize::MAX / 4] {
                let mut d = Dec::new(&bytes[..cut]);
                let per_value: Result<Vec<u64>, _> = (0..n.min(8))
                    .map(|_| d.f64("x").map(f64::to_bits))
                    .collect();
                let bulk = Dec::new(&bytes[..cut])
                    .f64s(n, "x")
                    .map(|v| v.into_iter().map(f64::to_bits).collect::<Vec<_>>());
                if n <= 8 {
                    assert_eq!(bulk, per_value, "{n} values from {cut} bytes");
                } else {
                    assert_eq!(bulk, Err(DecodeError::Truncated { what: "x" }));
                }
            }
        }
    }

    /// The per-pair reader `EntryReader` replaced: collect, then check.
    fn collect_entries(d: &mut Dec<'_>) -> Result<Result<Vec<(i64, u64)>, String>, DecodeError> {
        let n = d.count("pairs", 2)?;
        let mut out = Vec::with_capacity(n);
        let mut prev = 0i64;
        for _ in 0..n {
            prev = prev.wrapping_add(d.zigzag("pairs")?);
            out.push((prev, d.varint("pairs")?));
        }
        Ok(match out.windows(2).find(|w| w[0].0 >= w[1].0) {
            Some(w) => Err(format!(
                "values not strictly increasing: {} then {}",
                w[0].0, w[1].0
            )),
            None => Ok(out),
        })
    }

    fn stream_entries(d: &mut Dec<'_>) -> Result<Result<Vec<(i64, u64)>, String>, DecodeError> {
        let mut r = EntryReader::new(d, "pairs")?;
        let out = (0..r.count())
            .map(|_| r.next_pair(d))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(r.unordered().map(|()| out))
    }

    /// Streamed pairs equal collected ones, and every fault — truncation,
    /// overflow, a hostile count, values out of order, several at once —
    /// is reported as the collecting reader reports it.
    #[test]
    fn entry_reader_matches_the_collecting_reader() {
        let bases: Vec<Vec<u8>> = [
            &[(-5, 1), (0, 300), (1, 0), (2, 2), (70, u64::MAX), (900, 1)][..],
            &[(-5, 1), (0, 300), (1, 0), (1, 2), (70, u64::MAX), (-3, 4)][..],
        ]
        .iter()
        .map(|entries| {
            let mut e = Enc::default();
            encode_entries(&mut e, entries);
            e.finish()
        })
        .collect();
        let mut state = 11u64;
        let mut cases = vec![vec![0xFF; 11], vec![0x7F]];
        cases.extend(bases.iter().cloned());
        for i in 0..4000 {
            let mut b = bases[i % 2].clone();
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = (state >> 33) as usize % b.len();
            b[at] ^= (state >> 8) as u8 | 1;
            if state.is_multiple_of(3) {
                b.truncate((state >> 40) as usize % (b.len() + 1));
            }
            cases.push(b);
        }
        for bytes in &cases {
            let (mut a, mut b) = (Dec::new(bytes), Dec::new(bytes));
            assert_eq!(
                stream_entries(&mut a),
                collect_entries(&mut b),
                "{bytes:02x?}"
            );
        }
    }

    #[test]
    fn tables_round_trip_exactly() {
        let t = table();
        let mut e = Enc::default();
        encode_table(&mut e, &t);
        let bytes = e.finish();
        let back = decode_table(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(back.name(), t.name());
        assert_eq!(back.schema(), t.schema());
        assert_eq!(back.nrows(), t.nrows());
        for r in 0..t.nrows() {
            assert_eq!(back.row(r), t.row(r), "row {r}");
        }
        for (a, b) in back.columns().iter().zip(t.columns()) {
            assert_eq!(a.nulls(), b.nulls());
            assert_eq!(a.heap_bytes(), b.heap_bytes());
        }
        assert_eq!(back.column(2).dict(), t.column(2).dict());
        assert_eq!(back.column(2).codes(), t.column(2).codes());
        // Re-encoding gives the same bytes.
        let mut again = Enc::default();
        encode_table(&mut again, &back);
        assert_eq!(again.finish(), bytes);
    }

    #[test]
    fn every_truncation_or_mutation_is_an_error_not_a_panic() {
        let mut e = Enc::default();
        encode_table(&mut e, &table());
        let bytes = e.finish();
        for cut in 0..bytes.len() {
            assert!(
                decode_table(&mut Dec::new(&bytes[..cut])).is_err(),
                "cut {cut}"
            );
        }
        let mut state = 7u64;
        for _ in 0..2000 {
            let mut b = bytes.clone();
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = (state >> 33) as usize % b.len();
            b[at] ^= (state >> 8) as u8 | 1;
            let _ = decode_table(&mut Dec::new(&b));
        }
    }
}
