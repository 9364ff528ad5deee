//! `.fjm` — the versioned, checksummed, little-endian binary model format,
//! the only one a model persists in.
//!
//! The format mirrors the **in-memory flat slabs** on disk — the
//! open-addressing `KeyFreq` (i64→u64) and `KeyBinMap` (i64→u32) tables
//! and the per-bin `f64` statistics vectors are written verbatim — so a
//! cold load is *validate + bulk copy*, not parse. Every
//! multi-byte field is little-endian and every array sits at an 8-byte
//! aligned offset, so a future mmap-based loader could reference sections
//! in place.
//!
//! ## Layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  89 46 4A 4D 0D 0A 1A 0A   ("\x89FJM\r\n\x1a\n")
//! 8       2     format major version (u16) — readers reject a mismatch
//! 10      2     format minor version (u16) — forward-compatible
//! 12      4     endian mark 0x0A0B0C0D — byte-swapped file ⇒ WrongEndian
//! 16      4     section count (≤ 64)
//! 20      4     reserved (0)
//! 24      32·n  section table: { id u32, reserved u32, offset u64,
//!                                len u64, crc32 u32, reserved u32 }
//! …       …     section payloads, each starting 8-byte aligned
//! ```
//!
//! Sections (all offsets absolute, payload lengths exact, CRC-32/IEEE over
//! the exact payload bytes):
//!
//! | id | section      | contents |
//! |---:|--------------|----------|
//! | 1  | `META`       | binning strategy, estimator kind (+ sampling rate as raw `f64` bits), seed |
//! | 2  | `GROUP_BINS` | per key group: `k`, then the raw `KeyBinMap` slabs (`keys: i64[cap]`, `bins: u32[cap]`, `len`) |
//! | 3  | `KEYS`       | sorted `table.column` names with their group ids |
//! | 4  | `KEY_STATS`  | per key: `bin_total/bin_mfv/bin_ndv: f64[k]` + raw `KeyFreq` slabs |
//!
//! The magic is PNG-style on purpose: the high bit catches 7-bit strips,
//! and the embedded `\r\n` + `\x1a` catch text-mode newline translation.
//!
//! ## Versioning policy
//!
//! * **Major** — incompatible layout change. A reader rejects any file
//!   whose major differs from its own ([`PersistError::UnsupportedMajor`]).
//! * **Minor** — forward-compatible addition: a newer writer may append
//!   new sections (unknown ids are skipped) or extend a section's payload
//!   (readers ignore trailing payload bytes). A reader therefore accepts
//!   any minor, including ones newer than itself, as long as the four
//!   required sections decode.
//! * Byte-swapped (big-endian) files and foreign files are rejected up
//!   front with [`PersistError::WrongEndian`] / [`PersistError::BadMagic`].
//!
//! ## Hostile-input discipline
//!
//! Decoding never trusts a length before checking it against the bytes
//! actually present: every array count is validated against the remaining
//! payload *before* any allocation (a section claiming 2⁶⁰ entries fails
//! with [`PersistError::HostileLength`], it does not OOM), every section's
//! `offset + len` is overflow-checked against the file, and the slab
//! rebuilders (`KeyFreq::from_raw_parts` / `KeyBinMap::from_raw_parts`)
//! re-validate the open-addressing invariants so probe loops always
//! terminate. The byte-mutation fuzz suite below holds the decoder to the
//! same contract as the wire codec: arbitrary bytes produce `Ok` or a
//! typed error — never a panic, never an unbounded allocation.

use super::SavedModel;
use crate::binning::{BinningStrategy, KeyFreq};
use crate::keystats::KeyStats;
use crate::model::BaseEstimatorKind;
use fj_stats::{BnConfig, KeyBinMap};
use std::collections::HashMap;
use std::sync::Arc;

/// First eight bytes of every `.fjm` file.
pub const MAGIC: [u8; 8] = *b"\x89FJM\r\n\x1a\n";

/// Major format version written by this build; readers reject any other.
pub const FORMAT_MAJOR: u16 = 1;

/// Minor format version written by this build; readers accept any minor
/// (see the versioning policy in the module docs).
pub const FORMAT_MINOR: u16 = 0;

/// Endianness canary: written little-endian, so a byte-swapped file is
/// detected before any other field is interpreted.
const ENDIAN_MARK: u32 = 0x0A0B_0C0D;

/// Hard cap on the section count — far above the four the format defines,
/// but low enough that a hostile header cannot make the table walk slow.
const MAX_SECTIONS: u32 = 64;

const HEADER_LEN: usize = 24;
const SECTION_ENTRY_LEN: usize = 32;

/// Section id of the model metadata (strategy / estimator / seed).
pub const SEC_META: u32 = 1;
/// Section id of the per-group `KeyBinMap` slabs.
pub const SEC_GROUP_BINS: u32 = 2;
/// Section id of the join-key name table.
pub const SEC_KEYS: u32 = 3;
/// Section id of the per-key statistics (bin vectors + `KeyFreq` slabs).
pub const SEC_KEY_STATS: u32 = 4;

const REQUIRED_SECTIONS: [u32; 4] = [SEC_META, SEC_GROUP_BINS, SEC_KEYS, SEC_KEY_STATS];

fn section_name(id: u32) -> &'static str {
    match id {
        SEC_META => "META",
        SEC_GROUP_BINS => "GROUP_BINS",
        SEC_KEYS => "KEYS",
        SEC_KEY_STATS => "KEY_STATS",
        _ => "unknown",
    }
}

// ------------------------------------------------------------------ errors

/// A structurally invalid, corrupt, torn, or foreign model file.
///
/// Every rejection path of the binary decoder is a named variant so an
/// operator can tell a wrong file (`BadMagic`), a wrong build
/// (`UnsupportedMajor`), a torn write (`Truncated`/`SectionOutOfBounds`),
/// and bit rot (`ChecksumMismatch`) apart from the error alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The file does not start with the `.fjm` magic bytes.
    BadMagic,
    /// The endianness canary is byte-swapped — the file was written by a
    /// (hypothetical) big-endian encoder.
    WrongEndian,
    /// The file's major format version differs from this build's.
    UnsupportedMajor {
        /// Major version found in the file.
        found: u16,
        /// Major version this build supports.
        supported: u16,
    },
    /// The file ended before the named structure was complete.
    Truncated {
        /// What was being read when the bytes ran out.
        what: &'static str,
    },
    /// The section table is self-inconsistent (bad count, duplicate id,
    /// overflowing extent).
    BadSectionTable {
        /// Why the table was rejected.
        reason: String,
    },
    /// A section's `offset + len` extends past the end of the file — the
    /// signature of a torn or truncated write.
    SectionOutOfBounds {
        /// Section id whose extent is out of bounds.
        id: u32,
    },
    /// A required section is absent.
    MissingSection {
        /// The absent section's id.
        id: u32,
    },
    /// A section's payload does not match its recorded CRC-32.
    ChecksumMismatch {
        /// Section id whose checksum failed.
        id: u32,
    },
    /// A length field claims more elements than the remaining payload
    /// could possibly hold — rejected before any allocation.
    HostileLength {
        /// The field whose length was hostile.
        what: &'static str,
        /// Claimed element count.
        wanted: u64,
        /// Elements the remaining payload could actually hold.
        available: u64,
    },
    /// A field decoded but failed semantic validation.
    Invalid {
        /// What was wrong.
        what: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not an .fjm model file (bad magic)"),
            PersistError::WrongEndian => {
                write!(f, "model file was written byte-swapped (wrong endianness)")
            }
            PersistError::UnsupportedMajor { found, supported } => write!(
                f,
                "unsupported model format major version {found} (this build reads {supported})"
            ),
            PersistError::Truncated { what } => {
                write!(f, "model file truncated while reading {what}")
            }
            PersistError::BadSectionTable { reason } => {
                write!(f, "bad section table: {reason}")
            }
            PersistError::SectionOutOfBounds { id } => write!(
                f,
                "section {id} ({}) extends past the end of the file (torn or truncated write)",
                section_name(*id)
            ),
            PersistError::MissingSection { id } => {
                write!(
                    f,
                    "required section {id} ({}) is missing",
                    section_name(*id)
                )
            }
            PersistError::ChecksumMismatch { id } => write!(
                f,
                "section {id} ({}) failed its CRC-32 check (corrupt payload)",
                section_name(*id)
            ),
            PersistError::HostileLength {
                what,
                wanted,
                available,
            } => write!(
                f,
                "{what} claims {wanted} elements but at most {available} fit the payload"
            ),
            PersistError::Invalid { what } => write!(f, "invalid model data: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

fn invalid(what: impl Into<String>) -> PersistError {
    PersistError::Invalid { what: what.into() }
}

// ------------------------------------------------------------------- crc32

/// CRC-32/IEEE lookup tables for slice-by-8, built at compile time.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; table `k` gives
/// the CRC contribution of a byte `k` positions earlier in the stream.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32/IEEE of `bytes` (the checksum PNG and gzip use), computed
/// slice-by-8: sections are megabytes of slab data and the checksum pass
/// must not dominate the load the format exists to make fast.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes(ch[0..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(ch[4..8].try_into().unwrap());
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ----------------------------------------------------------------- encoder

/// Little-endian section-payload builder; `align8` keeps every array start
/// 8-byte aligned relative to the (8-byte-aligned) section start.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    fn align8(&mut self) {
        while !self.buf.len().is_multiple_of(8) {
            self.buf.push(0);
        }
    }
    fn finish(self) -> Vec<u8> {
        self.buf
    }
}

fn encode_meta(saved: &SavedModel) -> Vec<u8> {
    let strategy: u8 = match saved.strategy {
        BinningStrategy::Gbsa => 0,
        BinningStrategy::EqualWidth => 1,
        BinningStrategy::EqualDepth => 2,
    };
    let (estimator, rate): (u8, f64) = match saved.estimator {
        BaseEstimatorKind::BayesNet(_) => (0, 0.0),
        BaseEstimatorKind::Sampling { rate } => (1, rate),
        BaseEstimatorKind::TrueScan => (2, 0.0),
    };
    let mut e = Enc::default();
    e.bytes(&[strategy, estimator, 0, 0, 0, 0, 0, 0]);
    e.f64(rate);
    e.u64(saved.seed);
    e.finish()
}

fn encode_group_bins(saved: &SavedModel) -> Vec<u8> {
    let mut e = Enc::default();
    e.u64(saved.group_bins.len() as u64);
    for map in &saved.group_bins {
        let (k, keys, bins, len) = map.raw_parts();
        e.u64(k as u64);
        e.u64(keys.len() as u64);
        e.u64(len as u64);
        for &v in keys {
            e.i64(v);
        }
        for &b in bins {
            e.u32(b);
        }
        e.align8();
    }
    e.finish()
}

/// Canonical key order: sorted by full `table.column` name, so the
/// `HashMap` iteration order of [`SavedModel`] never reaches the bytes.
fn sorted_keys(saved: &SavedModel) -> Vec<&String> {
    let mut names: Vec<&String> = saved.group_of.keys().collect();
    names.sort();
    names
}

fn encode_keys(saved: &SavedModel, names: &[&String]) -> Vec<u8> {
    let mut e = Enc::default();
    e.u64(names.len() as u64);
    for name in names {
        e.u64(saved.group_of[*name] as u64);
        e.u32(name.len() as u32);
        e.u32(0); // reserved / pad
        e.bytes(name.as_bytes());
        e.align8();
    }
    e.finish()
}

fn encode_key_stats(saved: &SavedModel, names: &[&String]) -> Vec<u8> {
    let present: Vec<(usize, &KeyStats)> = names
        .iter()
        .enumerate()
        .filter_map(|(i, name)| saved.key_stats.get(*name).map(|s| (i, s)))
        .collect();
    let mut e = Enc::default();
    e.u64(present.len() as u64);
    for (index, stats) in present {
        let (fkeys, fcounts, flen) = stats.freq.raw_parts();
        e.u64(index as u64);
        e.u64(stats.k() as u64);
        e.u64(fkeys.len() as u64);
        e.u64(flen as u64);
        for &x in &stats.bin_total {
            e.f64(x);
        }
        for &x in &stats.bin_mfv {
            e.f64(x);
        }
        for &x in &stats.bin_ndv {
            e.f64(x);
        }
        for &v in fkeys {
            e.i64(v);
        }
        for &c in fcounts {
            e.u64(c);
        }
    }
    e.finish()
}

/// Serializes `saved` into the `.fjm` byte layout (see module docs).
///
/// Canonical: the same statistics always produce the same bytes. Keys are
/// written in sorted order, and every slab is a deterministic function of
/// its insert sequence — `build_group_bins` inserts bin assignments in an
/// order fixed by the data, key frequencies are counted in row order, and
/// a decoded slab is the written one. So two trainings on the same data,
/// at any thread count, write identical files, and save→load→save is
/// byte-identical.
pub fn encode(saved: &SavedModel) -> Vec<u8> {
    let names = sorted_keys(saved);
    let sections: [(u32, Vec<u8>); 4] = [
        (SEC_META, encode_meta(saved)),
        (SEC_GROUP_BINS, encode_group_bins(saved)),
        (SEC_KEYS, encode_keys(saved, &names)),
        (SEC_KEY_STATS, encode_key_stats(saved, &names)),
    ];
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_MAJOR.to_le_bytes());
    out.extend_from_slice(&FORMAT_MINOR.to_le_bytes());
    out.extend_from_slice(&ENDIAN_MARK.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    debug_assert_eq!(out.len(), HEADER_LEN);
    let table_at = out.len();
    out.resize(table_at + SECTION_ENTRY_LEN * sections.len(), 0);
    for (i, (id, payload)) in sections.iter().enumerate() {
        while out.len() % 8 != 0 {
            out.push(0);
        }
        let offset = out.len() as u64;
        let crc = crc32(payload);
        out.extend_from_slice(payload);
        let e = table_at + i * SECTION_ENTRY_LEN;
        out[e..e + 4].copy_from_slice(&id.to_le_bytes());
        out[e + 8..e + 16].copy_from_slice(&offset.to_le_bytes());
        out[e + 16..e + 24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        out[e + 24..e + 28].copy_from_slice(&crc.to_le_bytes());
    }
    out
}

// ----------------------------------------------------------------- decoder

/// Bounds-checked little-endian cursor over one section payload. Every
/// read states *what* it was reading so truncation errors name the field.
struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], PersistError> {
        if n > self.remaining() {
            return Err(PersistError::Truncated { what });
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn align8(&mut self) {
        // Padding inside a section is relative to the section start, which
        // the file layout keeps 8-byte aligned; skipping past the end is
        // harmless (the next read reports truncation).
        self.at = self.buf.len().min((self.at + 7) & !7);
    }

    /// Reads an element count and pre-validates it against the remaining
    /// payload (`elem_size` bytes per element) **before** the caller
    /// allocates anything — the no-OOM-on-hostile-length guard.
    fn count(&mut self, what: &'static str, elem_size: usize) -> Result<usize, PersistError> {
        let n = self.u64(what)?;
        let available = (self.remaining() / elem_size.max(1)) as u64;
        if n > available {
            return Err(PersistError::HostileLength {
                what,
                wanted: n,
                available,
            });
        }
        Ok(n as usize)
    }

    fn f64s(&mut self, n: usize, what: &'static str) -> Result<Vec<f64>, PersistError> {
        let raw = self.take(n * 8, what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }

    fn i64s(&mut self, n: usize, what: &'static str) -> Result<Vec<i64>, PersistError> {
        let raw = self.take(n * 8, what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn u64s(&mut self, n: usize, what: &'static str) -> Result<Vec<u64>, PersistError> {
        let raw = self.take(n * 8, what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn u32s(&mut self, n: usize, what: &'static str) -> Result<Vec<u32>, PersistError> {
        let raw = self.take(n * 4, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

fn decode_meta(payload: &[u8]) -> Result<(BinningStrategy, BaseEstimatorKind, u64), PersistError> {
    let mut d = Dec::new(payload);
    let head = d.take(8, "META header")?;
    let strategy = match head[0] {
        0 => BinningStrategy::Gbsa,
        1 => BinningStrategy::EqualWidth,
        2 => BinningStrategy::EqualDepth,
        t => return Err(invalid(format!("unknown strategy tag {t}"))),
    };
    let est_tag = head[1];
    let rate = d.f64("META sampling rate")?;
    let seed = d.u64("META seed")?;
    let estimator = match est_tag {
        // The network's own `BnConfig` is not persisted.
        0 => BaseEstimatorKind::BayesNet(BnConfig::default()),
        1 => {
            if !(rate.is_finite() && rate > 0.0 && rate <= 1.0) {
                return Err(invalid(format!("sampling rate {rate} outside (0, 1]")));
            }
            BaseEstimatorKind::Sampling { rate }
        }
        2 => BaseEstimatorKind::TrueScan,
        t => return Err(invalid(format!("unknown estimator tag {t}"))),
    };
    Ok((strategy, estimator, seed))
}

fn decode_group_bins(payload: &[u8]) -> Result<Vec<Arc<KeyBinMap>>, PersistError> {
    let mut d = Dec::new(payload);
    // Each group record is at least 24 bytes (k + cap + len), which bounds
    // the count before the Vec below reserves anything.
    let n = d.count("GROUP_BINS group count", 24)?;
    let mut out = Vec::with_capacity(n);
    for gi in 0..n {
        let k = d.u64("group bin count")?;
        let cap = d.count("group slab capacity", 12)?; // 8 key + 4 bin bytes
        let len = d.u64("group assigned count")?;
        let keys = d.i64s(cap, "group slab keys")?;
        let bins = d.u32s(cap, "group slab bins")?;
        d.align8();
        let map = KeyBinMap::from_raw_parts(k as usize, keys, bins, len as usize)
            .map_err(|e| invalid(format!("group {gi} bin map: {e}")))?;
        out.push(Arc::new(map));
    }
    Ok(out)
}

fn decode_keys(payload: &[u8], num_groups: usize) -> Result<Vec<(String, usize)>, PersistError> {
    let mut d = Dec::new(payload);
    // Each key record is at least 16 bytes (gid + name length + pad).
    let n = d.count("KEYS key count", 16)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let gid = d.u64("key group id")? as usize;
        let name_len = d.u32("key name length")? as usize;
        let _reserved = d.u32("key name pad")?;
        let raw = d.take(name_len, "key name bytes")?;
        d.align8();
        let name = std::str::from_utf8(raw)
            .map_err(|_| invalid("key name is not UTF-8"))?
            .to_string();
        if gid >= num_groups {
            return Err(invalid(format!(
                "key {name:?}: group {gid} has no bin map (only {num_groups} groups)"
            )));
        }
        out.push((name, gid));
    }
    Ok(out)
}

fn decode_key_stats(
    payload: &[u8],
    keys: &[(String, usize)],
    group_bins: &[Arc<KeyBinMap>],
) -> Result<HashMap<String, KeyStats>, PersistError> {
    let mut d = Dec::new(payload);
    // Each stats record is at least 32 bytes (index + k + cap + len).
    let n = d.count("KEY_STATS record count", 32)?;
    let mut out = HashMap::with_capacity(n.min(keys.len()));
    let mut prev_index: Option<usize> = None;
    for _ in 0..n {
        let index = d.u64("stats key index")? as usize;
        if index >= keys.len() {
            return Err(invalid(format!(
                "stats record references key {index} but only {} keys exist",
                keys.len()
            )));
        }
        if prev_index.is_some_and(|p| index <= p) {
            return Err(invalid(
                "stats records out of order (duplicate or unsorted key index)",
            ));
        }
        prev_index = Some(index);
        let (name, gid) = &keys[index];
        let k = d.count("stats bin count", 24)?; // 3 × f64 per bin
        let fcap = d.count("stats freq capacity", 16)?; // 8 key + 8 count bytes
        let flen = d.u64("stats freq len")?;
        let bin_total = d.f64s(k, "stats bin totals")?;
        let bin_mfv = d.f64s(k, "stats bin MFVs")?;
        let bin_ndv = d.f64s(k, "stats bin NDVs")?;
        let fkeys = d.i64s(fcap, "stats freq keys")?;
        let fcounts = d.u64s(fcap, "stats freq counts")?;
        let freq = KeyFreq::from_raw_parts(fkeys, fcounts, flen as usize)
            .map_err(|e| invalid(format!("key {name:?} frequency slab: {e}")))?;
        // Per-bin vectors must agree with the key's group, or estimation
        // would index out of bounds later.
        let expect = group_bins[*gid].k();
        if k != expect {
            return Err(invalid(format!(
                "key {name:?}: {k} bins but group {gid} has {expect}"
            )));
        }
        out.insert(
            name.clone(),
            KeyStats {
                bin_total,
                bin_mfv,
                bin_ndv,
                freq,
            },
        );
    }
    Ok(out)
}

/// Parses `.fjm` bytes into a [`SavedModel`], validating magic, version,
/// endianness, the section table, every per-section CRC, and every length
/// field (see module docs for the exact rejection taxonomy).
pub fn decode(bytes: &[u8]) -> Result<SavedModel, PersistError> {
    if !bytes.starts_with(&MAGIC) {
        // A non-empty proper prefix of the magic is a torn `.fjm`; anything
        // else — an empty file, an old JSON export — is not `.fjm` at all.
        return Err(if !bytes.is_empty() && MAGIC.starts_with(bytes) {
            PersistError::Truncated { what: "header" }
        } else {
            PersistError::BadMagic
        });
    }
    if bytes.len() < HEADER_LEN {
        return Err(PersistError::Truncated { what: "header" });
    }
    // Endianness before version: a byte-swapped file swaps the version
    // fields too, and "wrong endian" is the more actionable diagnosis.
    let endian = &bytes[12..16];
    if endian != ENDIAN_MARK.to_le_bytes() {
        if endian == ENDIAN_MARK.to_be_bytes() {
            return Err(PersistError::WrongEndian);
        }
        return Err(invalid("endianness canary corrupt"));
    }
    let major = u16::from_le_bytes(bytes[8..10].try_into().unwrap());
    if major != FORMAT_MAJOR {
        return Err(PersistError::UnsupportedMajor {
            found: major,
            supported: FORMAT_MAJOR,
        });
    }
    // The minor version is deliberately not checked — see the policy.
    let section_count = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
    if section_count > MAX_SECTIONS {
        return Err(PersistError::BadSectionTable {
            reason: format!("{section_count} sections exceeds the {MAX_SECTIONS} cap"),
        });
    }
    let table_end = HEADER_LEN + section_count as usize * SECTION_ENTRY_LEN;
    if bytes.len() < table_end {
        return Err(PersistError::Truncated {
            what: "section table",
        });
    }
    let mut sections: HashMap<u32, &[u8]> = HashMap::new();
    for i in 0..section_count as usize {
        let e = HEADER_LEN + i * SECTION_ENTRY_LEN;
        let id = u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap());
        let offset = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[e + 16..e + 24].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[e + 24..e + 28].try_into().unwrap());
        let end = offset
            .checked_add(len)
            .ok_or_else(|| PersistError::BadSectionTable {
                reason: format!("section {id} extent overflows"),
            })?;
        if end > bytes.len() as u64 {
            return Err(PersistError::SectionOutOfBounds { id });
        }
        let payload = &bytes[offset as usize..end as usize];
        if crc32(payload) != crc {
            return Err(PersistError::ChecksumMismatch { id });
        }
        if REQUIRED_SECTIONS.contains(&id) && sections.insert(id, payload).is_some() {
            return Err(PersistError::BadSectionTable {
                reason: format!("duplicate section {id}"),
            });
        }
        // Unknown section ids are skipped: that is how a future minor
        // version stays readable by this build.
    }
    for id in REQUIRED_SECTIONS {
        if !sections.contains_key(&id) {
            return Err(PersistError::MissingSection { id });
        }
    }
    let (strategy, estimator, seed) = decode_meta(sections[&SEC_META])?;
    let group_bins = decode_group_bins(sections[&SEC_GROUP_BINS])?;
    let keys = decode_keys(sections[&SEC_KEYS], group_bins.len())?;
    let key_stats = decode_key_stats(sections[&SEC_KEY_STATS], &keys, &group_bins)?;
    Ok(SavedModel {
        strategy,
        estimator,
        seed,
        group_bins,
        group_of: keys.into_iter().collect(),
        key_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same mixer as `fj_service::fault::splitmix64` (inlined — fj-core
    /// must not depend on the service crate): keeps the fuzz sweep
    /// deterministic and replayable from a printed seed.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A small but structurally complete SavedModel: two groups, three
    /// keys, one key deliberately without stats (a grouped key need not
    /// have any, so the format must round-trip that too).
    fn sample_saved() -> SavedModel {
        let m0 = (0..40i64).map(|v| (v * 7, (v % 4) as u32));
        let m1 = (0..17i64).map(|v| (v * 3 - 5, (v % 3) as u32));
        let mut freq_a = KeyFreq::default();
        for v in 0..25i64 {
            freq_a.set(v * 7, (v as u64 % 9) + 1);
        }
        let freq_b = KeyFreq::default();
        let stats = |k: usize, freq: &KeyFreq| KeyStats {
            bin_total: (0..k).map(|i| i as f64 * 1.5 + 0.25).collect(),
            bin_mfv: (0..k).map(|i| i as f64 + 0.125).collect(),
            bin_ndv: (0..k).map(|i| (i + 1) as f64).collect(),
            freq: freq.clone(),
        };
        let mut group_of = HashMap::new();
        group_of.insert("posts.id".to_string(), 0);
        group_of.insert("comments.post_id".to_string(), 0);
        group_of.insert("users.id".to_string(), 1);
        let mut key_stats = HashMap::new();
        key_stats.insert("posts.id".to_string(), stats(4, &freq_a));
        key_stats.insert("comments.post_id".to_string(), stats(4, &freq_b));
        // "users.id" has a group but no stats on purpose.
        SavedModel {
            strategy: BinningStrategy::Gbsa,
            estimator: BaseEstimatorKind::Sampling { rate: 0.25 },
            seed: 42,
            group_bins: vec![
                Arc::new(KeyBinMap::new(4, m0)),
                Arc::new(KeyBinMap::new(3, m1)),
            ],
            group_of,
            key_stats,
        }
    }

    /// Reads a well-formed file's section table back into (id, payload)
    /// pairs, so tests can reframe files with sections added, dropped,
    /// duplicated, or corrupted.
    fn split_sections(bytes: &[u8]) -> Vec<(u32, Vec<u8>)> {
        let n = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        (0..n)
            .map(|i| {
                let e = HEADER_LEN + i * SECTION_ENTRY_LEN;
                let id = u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap());
                let off = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap()) as usize;
                let len = u64::from_le_bytes(bytes[e + 16..e + 24].try_into().unwrap()) as usize;
                (id, bytes[off..off + len].to_vec())
            })
            .collect()
    }

    /// Reassembles a file from scratch with arbitrary version fields and
    /// section list — the tool for version-skew and table-shape tests.
    fn assemble(major: u16, minor: u16, sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&major.to_le_bytes());
        out.extend_from_slice(&minor.to_le_bytes());
        out.extend_from_slice(&ENDIAN_MARK.to_le_bytes());
        out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        let table_at = out.len();
        out.resize(table_at + SECTION_ENTRY_LEN * sections.len(), 0);
        for (i, (id, payload)) in sections.iter().enumerate() {
            while out.len() % 8 != 0 {
                out.push(0);
            }
            let offset = out.len() as u64;
            let crc = crc32(payload);
            out.extend_from_slice(payload);
            let e = table_at + i * SECTION_ENTRY_LEN;
            out[e..e + 4].copy_from_slice(&id.to_le_bytes());
            out[e + 8..e + 16].copy_from_slice(&offset.to_le_bytes());
            out[e + 16..e + 24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
            out[e + 24..e + 28].copy_from_slice(&crc.to_le_bytes());
        }
        out
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn header_layout_is_as_documented() {
        let bytes = encode(&sample_saved());
        assert_eq!(&bytes[..8], &MAGIC);
        assert_eq!(
            u16::from_le_bytes(bytes[8..10].try_into().unwrap()),
            FORMAT_MAJOR
        );
        assert_eq!(
            u16::from_le_bytes(bytes[10..12].try_into().unwrap()),
            FORMAT_MINOR
        );
        assert_eq!(&bytes[12..16], &ENDIAN_MARK.to_le_bytes());
        assert_eq!(u32::from_le_bytes(bytes[16..20].try_into().unwrap()), 4);
        // Every section payload starts 8-byte aligned (mmap-friendliness).
        for i in 0..4 {
            let e = HEADER_LEN + i * SECTION_ENTRY_LEN;
            let off = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap());
            assert_eq!(off % 8, 0, "section {i} not aligned");
        }
    }

    #[test]
    fn encode_decode_reencode_is_byte_identical() {
        let saved = sample_saved();
        let bytes = encode(&saved);
        let decoded = decode(&bytes).unwrap();
        let again = encode(&decoded);
        assert_eq!(bytes, again, "save -> load -> save must be byte-identical");
        // And the decode is semantically faithful, not just re-encodable.
        assert_eq!(decoded.strategy, saved.strategy);
        assert_eq!(decoded.estimator, saved.estimator);
        assert_eq!(decoded.seed, saved.seed);
        assert_eq!(decoded.group_of, saved.group_of);
        assert_eq!(decoded.key_stats.len(), saved.key_stats.len());
        for (name, stats) in &saved.key_stats {
            let d = &decoded.key_stats[name];
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&d.bin_total), bits(&stats.bin_total));
            assert_eq!(bits(&d.bin_mfv), bits(&stats.bin_mfv));
            assert_eq!(bits(&d.bin_ndv), bits(&stats.bin_ndv));
            assert_eq!(d.freq.sorted_entries(), stats.freq.sorted_entries());
        }
        for (a, b) in decoded.group_bins.iter().zip(&saved.group_bins) {
            assert_eq!(a.k(), b.k());
            let sorted = |m: &KeyBinMap| {
                let mut v: Vec<(i64, u32)> = m.entries().collect();
                v.sort_unstable();
                v
            };
            assert_eq!(sorted(a), sorted(b));
        }
    }

    #[test]
    fn wrong_magic_is_a_named_error() {
        let mut bytes = encode(&sample_saved());
        bytes[0] ^= 0x40;
        assert_eq!(decode(&bytes).unwrap_err(), PersistError::BadMagic);
        // Neither an old JSON export nor an empty file is a torn `.fjm`.
        assert_eq!(
            decode(b"{\"version\":1}").unwrap_err(),
            PersistError::BadMagic
        );
        assert_eq!(decode(b"").unwrap_err(), PersistError::BadMagic);
        // Nor is a 7-bit-stripped copy of a real file (PNG-magic trick).
        let mut stripped = encode(&sample_saved());
        for b in &mut stripped {
            *b &= 0x7F;
        }
        assert_eq!(decode(&stripped).unwrap_err(), PersistError::BadMagic);
    }

    #[test]
    fn byte_swapped_file_is_a_named_error() {
        let mut bytes = encode(&sample_saved());
        bytes[12..16].copy_from_slice(&ENDIAN_MARK.to_be_bytes());
        assert_eq!(decode(&bytes).unwrap_err(), PersistError::WrongEndian);
    }

    #[test]
    fn future_major_is_rejected_future_minor_is_tolerated() {
        let sections = split_sections(&encode(&sample_saved()));
        // Major bump: reject by policy, naming both versions.
        let v2 = assemble(FORMAT_MAJOR + 1, 0, &sections);
        assert_eq!(
            decode(&v2).unwrap_err(),
            PersistError::UnsupportedMajor {
                found: FORMAT_MAJOR + 1,
                supported: FORMAT_MAJOR,
            }
        );
        // Minor bump with an unknown extra section and a META payload
        // extended by a hypothetical new field: still loads.
        let mut skewed = sections.clone();
        for (id, payload) in &mut skewed {
            if *id == SEC_META {
                payload.extend_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
            }
        }
        skewed.push((99, b"from the future".to_vec()));
        let future = assemble(FORMAT_MAJOR, FORMAT_MINOR + 1, &skewed);
        let decoded = decode(&future).expect("future-minor file must load");
        assert_eq!(
            decoded.estimator,
            BaseEstimatorKind::Sampling { rate: 0.25 }
        );
        assert_eq!(decoded.group_of.len(), 3);
    }

    #[test]
    fn missing_and_duplicate_sections_are_named_errors() {
        let sections = split_sections(&encode(&sample_saved()));
        let without_stats: Vec<_> = sections
            .iter()
            .filter(|(id, _)| *id != SEC_KEY_STATS)
            .cloned()
            .collect();
        assert_eq!(
            decode(&assemble(FORMAT_MAJOR, FORMAT_MINOR, &without_stats)).unwrap_err(),
            PersistError::MissingSection { id: SEC_KEY_STATS }
        );
        let mut doubled = sections.clone();
        doubled.push(sections[0].clone());
        assert!(matches!(
            decode(&assemble(FORMAT_MAJOR, FORMAT_MINOR, &doubled)),
            Err(PersistError::BadSectionTable { .. })
        ));
    }

    #[test]
    fn truncation_at_every_boundary_is_a_clear_error() {
        let bytes = encode(&sample_saved());
        // Cut points: every header byte, every table-entry edge, every
        // section start / midpoint / end-minus-one. (All prefixes would be
        // O(n^2) CRC work; boundaries are where the interesting states are,
        // and the fuzz test samples the rest.)
        let mut cuts: Vec<usize> = (0..HEADER_LEN.min(bytes.len())).collect();
        for i in 0..4 {
            let e = HEADER_LEN + i * SECTION_ENTRY_LEN;
            cuts.extend([e, e + SECTION_ENTRY_LEN]);
            let off = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[e + 16..e + 24].try_into().unwrap()) as usize;
            cuts.extend([off, off + len / 2, (off + len).saturating_sub(1)]);
        }
        cuts.push(bytes.len() - 1);
        for cut in cuts {
            let torn = &bytes[..cut.min(bytes.len())];
            let got = decode(torn);
            assert!(got.is_err(), "prefix of {cut} bytes decoded: {got:?}");
            // Torn files must be *diagnosed* as torn, not as something else.
            assert!(
                matches!(
                    got,
                    Err(PersistError::BadMagic
                        | PersistError::Truncated { .. }
                        | PersistError::SectionOutOfBounds { .. })
                ),
                "prefix of {cut} bytes gave an unexpected diagnosis: {got:?}"
            );
        }
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let bytes = encode(&sample_saved());
        let first_off = {
            let e = HEADER_LEN;
            u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap()) as usize
        };
        // Flip one bit in each section's payload region; each must be
        // caught by that section's CRC before any field is interpreted.
        for target in [first_off, bytes.len() - 1] {
            let mut corrupt = bytes.clone();
            corrupt[target] ^= 0x01;
            assert!(
                matches!(decode(&corrupt), Err(PersistError::ChecksumMismatch { .. })),
                "flipping byte {target} was not caught by CRC"
            );
        }
    }

    #[test]
    fn hostile_lengths_are_rejected_before_allocation() {
        let base = split_sections(&encode(&sample_saved()));
        let with = |id: u32, payload: Vec<u8>| {
            let swapped: Vec<_> = base
                .iter()
                .map(|(i, p)| (*i, if *i == id { payload.clone() } else { p.clone() }))
                .collect();
            assemble(FORMAT_MAJOR, FORMAT_MINOR, &swapped)
        };
        // GROUP_BINS claiming u64::MAX groups in an 8-byte payload.
        let huge_groups = with(SEC_GROUP_BINS, u64::MAX.to_le_bytes().to_vec());
        assert!(
            matches!(
                decode(&huge_groups),
                Err(PersistError::HostileLength {
                    wanted: u64::MAX,
                    ..
                })
            ),
            "hostile group count not pre-validated: {:?}",
            decode(&huge_groups)
        );
        // One group whose slab capacity claims 2^60 entries.
        let mut p = Vec::new();
        p.extend_from_slice(&1u64.to_le_bytes()); // group count
        p.extend_from_slice(&4u64.to_le_bytes()); // k
        p.extend_from_slice(&(1u64 << 60).to_le_bytes()); // capacity: hostile
        let huge_cap = with(SEC_GROUP_BINS, p);
        assert!(matches!(
            decode(&huge_cap),
            Err(PersistError::HostileLength { .. })
        ));
        // KEYS claiming a name longer than the payload.
        let mut p = Vec::new();
        p.extend_from_slice(&1u64.to_le_bytes()); // key count
        p.extend_from_slice(&0u64.to_le_bytes()); // gid
        p.extend_from_slice(&u32::MAX.to_le_bytes()); // name length: hostile
        p.extend_from_slice(&0u32.to_le_bytes()); // pad
        assert!(matches!(
            decode(&with(SEC_KEYS, p)),
            Err(PersistError::Truncated { .. })
        ));
        // KEY_STATS record with a hostile bin count.
        let mut p = Vec::new();
        p.extend_from_slice(&1u64.to_le_bytes()); // record count
        p.extend_from_slice(&0u64.to_le_bytes()); // key index
        p.extend_from_slice(&(1u64 << 59).to_le_bytes()); // k: hostile
        assert!(matches!(
            decode(&with(SEC_KEY_STATS, p)),
            Err(PersistError::HostileLength { .. })
        ));
    }

    #[test]
    fn invalid_slabs_and_tags_are_rejected() {
        let base = split_sections(&encode(&sample_saved()));
        let with = |id: u32, payload: Vec<u8>| {
            let swapped: Vec<_> = base
                .iter()
                .map(|(i, p)| (*i, if *i == id { payload.clone() } else { p.clone() }))
                .collect();
            assemble(FORMAT_MAJOR, FORMAT_MINOR, &swapped)
        };
        // META with an unknown strategy tag.
        let mut meta = vec![9u8, 0, 0, 0, 0, 0, 0, 0];
        meta.extend_from_slice(&0u64.to_le_bytes());
        meta.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            decode(&with(SEC_META, meta)),
            Err(PersistError::Invalid { .. })
        ));
        // A group slab whose len disagrees with its occupancy
        // (cap=0 but len=1): must be caught by from_raw_parts.
        let mut p = Vec::new();
        p.extend_from_slice(&1u64.to_le_bytes()); // group count
        p.extend_from_slice(&4u64.to_le_bytes()); // k
        p.extend_from_slice(&0u64.to_le_bytes()); // capacity 0
        p.extend_from_slice(&1u64.to_le_bytes()); // len 1: inconsistent
        assert!(matches!(
            decode(&with(SEC_GROUP_BINS, p)),
            Err(PersistError::Invalid { .. })
        ));
        // A KEYS entry referencing a nonexistent group.
        let mut p = Vec::new();
        p.extend_from_slice(&1u64.to_le_bytes()); // key count
        p.extend_from_slice(&77u64.to_le_bytes()); // gid out of range
        p.extend_from_slice(&4u32.to_le_bytes()); // name length
        p.extend_from_slice(&0u32.to_le_bytes()); // pad
        p.extend_from_slice(b"a.b!");
        while p.len() % 8 != 0 {
            p.push(0);
        }
        assert!(matches!(
            decode(&with(SEC_KEYS, p)),
            Err(PersistError::Invalid { .. })
        ));
    }

    /// The wire-codec discipline applied to the model file: arbitrary
    /// mutations of a valid file must decode to Ok or a typed error —
    /// never a panic (and length pre-validation means never an OOM; a
    /// hostile length would abort the test process, which counts as a
    /// failure here).
    #[test]
    fn seeded_byte_mutation_fuzz_never_panics() {
        let good = encode(&sample_saved());
        for seed in 0..64u64 {
            let mut rng = seed.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ 0x9E37;
            for round in 0..64 {
                let mut bytes = good.clone();
                // 1-8 byte flips anywhere in the file.
                let flips = (splitmix64(&mut rng) % 8 + 1) as usize;
                for _ in 0..flips {
                    let at = (splitmix64(&mut rng) as usize) % bytes.len();
                    bytes[at] ^= (splitmix64(&mut rng) % 255 + 1) as u8;
                }
                // Sometimes also truncate or extend.
                match splitmix64(&mut rng) % 4 {
                    0 => {
                        let keep = (splitmix64(&mut rng) as usize) % (bytes.len() + 1);
                        bytes.truncate(keep);
                    }
                    1 => {
                        let extra = (splitmix64(&mut rng) % 64) as usize;
                        bytes.extend(std::iter::repeat_n(0xAA, extra));
                    }
                    _ => {}
                }
                let outcome = std::panic::catch_unwind(|| decode(&bytes).map(|_| ()));
                assert!(
                    outcome.is_ok(),
                    "decode panicked on seed {seed} round {round} ({} bytes)",
                    bytes.len()
                );
            }
        }
    }
}
