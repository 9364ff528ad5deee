//! `.fjm` — the versioned, checksummed, little-endian binary model format,
//! the only one a model persists in.
//!
//! The file holds the trained model: the full training config, every key
//! group's bin map, every join key's statistics, and one section per table
//! with its single-table estimator's fitted state. Maps are written as
//! their occupied entries sorted by value — zigzag-delta values and varint
//! counts or bins — rather than as the in-memory open-addressing slabs, so
//! the bytes depend only on the model's contents and a map costs a few
//! bytes an entry instead of its slab's 12–16 bytes a slot. What an
//! estimator derives from its fitted state (a Bayesian network's CPT slab,
//! priors and topology; a sampler's per-row key bins and histograms) is
//! recomputed on load by the code the fit uses, never stored.
//!
//! ## Layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  89 46 4A 4D 0D 0A 1A 0A   ("\x89FJM\r\n\x1a\n")
//! 8       2     format major version (u16) — readers reject a mismatch
//! 10      2     format minor version (u16) — forward-compatible
//! 12      4     endian mark 0x0A0B0C0D — byte-swapped file ⇒ WrongEndian
//! 16      4     section count (≤ 4096)
//! 20      4     reserved (0)
//! 24      32·n  section table: { id u32, reserved u32, offset u64,
//!                                len u64, crc32 u32, reserved u32 }
//! …       …     section payloads, each starting 8-byte aligned
//! ```
//!
//! Sections (all offsets absolute, payload lengths exact, CRC-32/IEEE over
//! the exact payload bytes). Inside a payload, counts and integers are
//! LEB128 varints (signed ones zigzag-mapped) and `f64`s are their raw
//! little-endian bits ([`fj_storage::codec`]):
//!
//! | id | section      | contents |
//! |---:|--------------|----------|
//! | 1  | `META`       | the `FactorJoinConfig`: bin budget, strategy, estimator kind with its `BnConfig` or sampling rate, seed (not `threads`: the model is the same at every thread count) |
//! | 2  | `GROUP_BINS` | per key group: `k`, then its `(value, bin)` entries sorted by value |
//! | 3  | `KEYS`       | `table.column` names, sorted, with their group ids |
//! | 4  | `KEY_STATS`  | per key, in `KEYS` order: `bin_total/bin_mfv/bin_ndv: f64[k]`, then its `(value, count)` entries sorted by value |
//! | 5  | `TABLE`      | one per table, sorted by name: name, schema, estimator tag, then the estimator — BayesNet: rows, per node its discretizer (a key column by its group id) and Chow-Liu parent, marginal and joint counts; Sampling: rate, seed, base rows and the sample table; TrueScan: its table snapshot |
//!
//! The magic is PNG-style on purpose: the high bit catches 7-bit strips,
//! and the embedded `\r\n` + `\x1a` catch text-mode newline translation.
//!
//! ## Versioning policy
//!
//! * **Major** — incompatible layout change. A reader rejects any file
//!   whose major differs from its own ([`PersistError::UnsupportedMajor`]).
//!   Major 2 stores the estimators; a major-1 file (statistics only, whose
//!   estimators were refitted on load) is refused, not refitted.
//! * **Minor** — forward-compatible addition: a newer writer may append
//!   new sections (unknown ids are skipped) or extend a section's payload
//!   (readers ignore trailing payload bytes). A reader therefore accepts
//!   any minor, including ones newer than itself, as long as the sections
//!   it knows decode.
//! * Byte-swapped (big-endian) files and foreign files are rejected up
//!   front with [`PersistError::WrongEndian`] / [`PersistError::BadMagic`].
//!
//! Payloads are varint streams, so no section can be referenced in place
//! (mmap): a load decodes every section.
//!
//! ## Decode cost
//!
//! A load pays per byte, not per call ([`fj_storage::codec`]'s hot-path
//! rule): the group maps fill their slabs straight from the byte stream,
//! each key's frequency map keeps the sorted columns the bytes hold, the
//! key statistics' `f64` vectors and a network's counts fill slabs sized
//! once, and the CRC runs slice-by-16. On the benchmark's `lifecycle`
//! model (STATS scale 10, 827 617 bytes; 78 k group entries, 220 k
//! frequency entries) on a 2-core Xeon VM, the fastest of six alternating
//! blocks of 400 decodes, frequency slabs built at load → kept sorted:
//!
//! | step | ms |
//! |---|---:|
//! | read sections + CRC | 0.28 → 0.27 |
//! | `GROUP_BINS` | 0.64 → 0.59 |
//! | `KEY_STATS` | 2.47 → 0.90 |
//! | eight `TABLE`s | 1.27 → 1.20 |
//! | whole decode | 4.70 → 3.00 |
//!
//! The medians of the six blocks, which the VM's slow phases inflate, move
//! alike: `KEY_STATS` 3.28 → 1.30, whole decode 6.62 → 4.21 ms. (Before
//! maps were filled from the bytes, the whole decode took 8.1 ms.)
//!
//! What is left is mostly memory: a group map's slab is sized for its
//! entries and each entry lands at its hash, so filling it is one
//! scattered write an entry; and the derived network state is recomputed
//! by the code the fit uses, so a reload stays bit-identical. A frequency
//! map skips that write because estimation never reads it: the load keeps
//! its dense columns (16 bytes an entry, written in order), and the first
//! update that inserts into the key builds the slab a load used to build,
//! slot for slot. That moves ≈ 0.7–1.2 ms into the first `updated_with`
//! of a loaded model (fastest blocks of 100 runs in two sessions: 6.9 →
//! 7.6 and 6.9 → 8.1 ms), against ≈ 1.6–1.8 ms off the load (4.9 →
//! 3.1–3.3 ms); load → first update is not slower (medians of four
//! blocks of 100: 14.5 → 11.4 and 13.2 → 11.8 ms).
//!
//! ## Hostile-input discipline
//!
//! Decoding never trusts a length before checking it against the bytes
//! actually present: every count is validated against the remaining
//! payload *before* any allocation (a section claiming 2⁶⁰ entries fails
//! with [`PersistError::HostileLength`], it does not OOM), and every
//! section's `offset + len` is overflow-checked against the file. Every
//! value inference indexes with is validated before a model is built:
//! sorted entries must be strictly increasing with non-zero counts and
//! bins `< k`; a key's statistics must have its group's `k`; a Bayesian
//! network's parents must form a forest and its count tables must have
//! the sizes its code counts give; a key column must name its own group
//! with that group's `k`. The byte-mutation fuzz suite below holds the
//! decoder to the same contract as the wire codec: arbitrary bytes produce
//! `Ok` or a typed error — never a panic, never an unbounded allocation.

use super::SavedModel;
use crate::binning::{BinBudget, BinningStrategy, KeyFreq};
use crate::keystats::KeyStats;
use crate::model::{BaseEstimatorKind, FactorJoinConfig, FactorJoinModel};
use fj_stats::{
    BaseTableEstimator, BayesNetEstimator, BnConfig, ExactEstimator, KeyBinMap, SamplingEstimator,
};
use fj_storage::codec::{decode_schema, encode_entries, encode_schema, Dec, DecodeError, Enc};
use fj_storage::{KeyRef, TableSchema};
use std::collections::HashMap;
use std::sync::Arc;

/// First eight bytes of every `.fjm` file.
pub const MAGIC: [u8; 8] = *b"\x89FJM\r\n\x1a\n";

/// Major format version written by this build; readers reject any other.
pub const FORMAT_MAJOR: u16 = 2;

/// Minor format version written by this build; readers accept any minor
/// (see the versioning policy in the module docs).
pub const FORMAT_MINOR: u16 = 0;

/// Endianness canary: written little-endian, so a byte-swapped file is
/// detected before any other field is interpreted.
const ENDIAN_MARK: u32 = 0x0A0B_0C0D;

/// Hard cap on the section count — one a table plus four, far above any
/// schema here, but low enough that a hostile header cannot make the table
/// walk slow.
const MAX_SECTIONS: u32 = 4096;

const HEADER_LEN: usize = 24;
const SECTION_ENTRY_LEN: usize = 32;

/// Section id of the training configuration.
pub const SEC_META: u32 = 1;
/// Section id of the per-group bin maps.
pub const SEC_GROUP_BINS: u32 = 2;
/// Section id of the join-key name table.
pub const SEC_KEYS: u32 = 3;
/// Section id of the per-key statistics (bin vectors + frequency entries).
pub const SEC_KEY_STATS: u32 = 4;
/// Section id of a table's schema and estimator (one section a table).
pub const SEC_TABLE: u32 = 5;

const REQUIRED_SECTIONS: [u32; 4] = [SEC_META, SEC_GROUP_BINS, SEC_KEYS, SEC_KEY_STATS];

fn section_name(id: u32) -> &'static str {
    match id {
        SEC_META => "META",
        SEC_GROUP_BINS => "GROUP_BINS",
        SEC_KEYS => "KEYS",
        SEC_KEY_STATS => "KEY_STATS",
        SEC_TABLE => "TABLE",
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

/// CRC-32/IEEE lookup tables for slice-by-16, built at compile time.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; table `k` gives
/// the CRC contribution of a byte `k` positions earlier in the stream.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
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
    while k < 16 {
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
/// slice-by-16: sixteen independent table lookups a 16-byte block, so the
/// checksum pass costs a fraction of the load the format exists to make
/// fast.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let mut next = 0;
        for (i, &b) in block.iter().enumerate() {
            // The running CRC folds into the block's first four bytes.
            let b = if i < 4 { b ^ (c >> (8 * i)) as u8 } else { b };
            next ^= CRC_TABLES[15 - i][b as usize];
        }
        c = next;
    }
    for &b in blocks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ----------------------------------------------------------------- encoder

fn encode_meta(config: &FactorJoinConfig) -> Vec<u8> {
    let mut e = Enc::default();
    match &config.bin_budget {
        BinBudget::Uniform(k) => {
            e.u8(0);
            e.len(*k);
        }
        BinBudget::Workload { total, weights } => {
            e.u8(1);
            e.len(*total);
            let mut sorted: Vec<(&usize, &f64)> = weights.iter().collect();
            sorted.sort_unstable_by_key(|&(gid, _)| *gid);
            e.len(sorted.len());
            for (&gid, &w) in sorted {
                e.len(gid);
                e.f64(w);
            }
        }
    }
    e.u8(match config.strategy {
        BinningStrategy::Gbsa => 0,
        BinningStrategy::EqualWidth => 1,
        BinningStrategy::EqualDepth => 2,
    });
    match config.estimator {
        BaseEstimatorKind::BayesNet(bn) => {
            e.u8(0);
            e.len(bn.max_codes);
            e.len(bn.mi_sample_rows);
            e.f64(bn.alpha);
            e.f64(bn.fallback_selectivity);
            e.len(bn.threads);
        }
        BaseEstimatorKind::Sampling { rate } => {
            e.u8(1);
            e.f64(rate);
        }
        BaseEstimatorKind::TrueScan => e.u8(2),
    }
    // `threads` is not written: it sets how many workers the build fans
    // out to, and the model is the same bit for bit at every count.
    e.varint(config.seed);
    e.finish()
}

fn estimator_tag(kind: &BaseEstimatorKind) -> u8 {
    match kind {
        BaseEstimatorKind::BayesNet(_) => 0,
        BaseEstimatorKind::Sampling { .. } => 1,
        BaseEstimatorKind::TrueScan => 2,
    }
}

fn encode_group_bins(groups: &[Arc<KeyBinMap>]) -> Vec<u8> {
    let mut e = Enc::default();
    e.len(groups.len());
    for map in groups {
        e.len(map.k());
        let entries: Vec<(i64, u64)> = map
            .sorted_entries()
            .into_iter()
            .map(|(v, b)| (v, u64::from(b)))
            .collect();
        encode_entries(&mut e, &entries);
    }
    e.finish()
}

fn key_name(key: &KeyRef) -> String {
    format!("{}.{}", key.table, key.column)
}

fn encode_keys(keys: &[(String, usize, &KeyStats)]) -> Vec<u8> {
    let mut e = Enc::default();
    e.len(keys.len());
    for (name, gid, _) in keys {
        e.str(name);
        e.len(*gid);
    }
    e.finish()
}

fn encode_key_stats(keys: &[(String, usize, &KeyStats)]) -> Vec<u8> {
    let mut e = Enc::default();
    e.len(keys.len());
    for (_, _, stats) in keys {
        e.len(stats.k());
        for vector in [&stats.bin_total, &stats.bin_mfv, &stats.bin_ndv] {
            vector.iter().for_each(|&x| e.f64(x));
        }
        encode_entries(&mut e, &stats.freq.sorted_entries());
    }
    e.finish()
}

fn encode_table(
    config: &FactorJoinConfig,
    groups: &[Arc<KeyBinMap>],
    name: &str,
    schema: &TableSchema,
    estimator: &dyn BaseTableEstimator,
) -> Vec<u8> {
    let mut e = Enc::default();
    e.str(name);
    encode_schema(&mut e, schema);
    e.u8(estimator_tag(&config.estimator));
    estimator.encode(&mut e, groups);
    e.finish()
}

/// Serializes `model` into the `.fjm` byte layout (see module docs).
///
/// Canonical: the same model always produces the same bytes. Keys and
/// tables are written sorted by name, maps as their entries sorted by
/// value, and every estimator writes its fitted state in an order fixed by
/// the table. So two trainings on the same data, at any thread count,
/// write identical files, and save→load→save is byte-identical.
pub fn encode(model: &FactorJoinModel) -> Vec<u8> {
    let config = model.config();
    let groups = model.shared_group_bins();
    let mut keys: Vec<(String, usize, &KeyStats)> = model
        .iter_keys()
        .map(|(key, gid, stats)| (key_name(key), gid, stats))
        .collect();
    keys.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut sections = vec![
        (SEC_META, encode_meta(config)),
        (SEC_GROUP_BINS, encode_group_bins(groups)),
        (SEC_KEYS, encode_keys(&keys)),
        (SEC_KEY_STATS, encode_key_stats(&keys)),
    ];
    for (name, schema, estimator) in model.sorted_tables() {
        let payload = encode_table(config, groups, name, schema, estimator);
        sections.push((SEC_TABLE, payload));
    }
    frame(FORMAT_MAJOR, FORMAT_MINOR, &sections)
}

/// Lays `sections` out behind the header and section table.
fn frame(major: u16, minor: u16, sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let payload_bytes: usize = sections.iter().map(|(_, p)| p.len() + 7).sum();
    let mut out =
        Vec::with_capacity(HEADER_LEN + SECTION_ENTRY_LEN * sections.len() + payload_bytes);
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

// ----------------------------------------------------------------- decoder

impl From<DecodeError> for PersistError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated { what } => PersistError::Truncated { what },
            DecodeError::HostileLength {
                what,
                wanted,
                available,
            } => PersistError::HostileLength {
                what,
                wanted,
                available,
            },
            DecodeError::Invalid { what } => PersistError::Invalid { what },
        }
    }
}

impl From<String> for PersistError {
    fn from(what: String) -> Self {
        PersistError::Invalid { what }
    }
}

fn decode_meta(payload: &[u8]) -> Result<FactorJoinConfig, PersistError> {
    let mut d = Dec::new(payload);
    let bin_budget = match d.u8("META bin budget tag")? {
        0 => BinBudget::Uniform(d.usize("META uniform bins")?),
        1 => {
            let total = d.usize("META workload bins")?;
            let n = d.count("META workload weights", 9)?;
            let mut weights = HashMap::with_capacity(n);
            for _ in 0..n {
                let gid = d.usize("META weight group")?;
                if weights.insert(gid, d.f64("META weight")?).is_some() {
                    return Err(invalid(format!("group {gid} weighted twice")));
                }
            }
            BinBudget::Workload { total, weights }
        }
        t => return Err(invalid(format!("unknown bin budget tag {t}"))),
    };
    let strategy = match d.u8("META strategy")? {
        0 => BinningStrategy::Gbsa,
        1 => BinningStrategy::EqualWidth,
        2 => BinningStrategy::EqualDepth,
        t => return Err(invalid(format!("unknown strategy tag {t}"))),
    };
    let estimator = match d.u8("META estimator")? {
        0 => {
            let bn = BnConfig {
                max_codes: d.usize("META max codes")?,
                mi_sample_rows: d.usize("META MI sample rows")?,
                alpha: d.f64("META smoothing")?,
                fallback_selectivity: d.f64("META fallback selectivity")?,
                threads: d.usize("META network threads")?,
            };
            let unit = 0.0..=1.0;
            if bn.max_codes == 0
                || !(bn.alpha.is_finite() && bn.alpha >= 0.0)
                || !unit.contains(&bn.fallback_selectivity)
            {
                return Err(invalid(format!("network config out of range: {bn:?}")));
            }
            BaseEstimatorKind::BayesNet(bn)
        }
        1 => {
            let rate = d.f64("META sampling rate")?;
            if !(rate > 0.0 && rate <= 1.0) {
                return Err(invalid(format!("sampling rate {rate} outside (0, 1]")));
            }
            BaseEstimatorKind::Sampling { rate }
        }
        2 => BaseEstimatorKind::TrueScan,
        t => return Err(invalid(format!("unknown estimator tag {t}"))),
    };
    Ok(FactorJoinConfig {
        bin_budget,
        strategy,
        estimator,
        seed: d.varint("META seed")?,
        threads: 0,
    })
}

fn decode_group_bins(payload: &[u8]) -> Result<Vec<Arc<KeyBinMap>>, PersistError> {
    let mut d = Dec::new(payload);
    // A group is at least its `k` and its entry count.
    let n = d.count("GROUP_BINS group count", 2)?;
    let mut out = Vec::with_capacity(n);
    for gi in 0..n {
        let k = d.usize("group bin count")?;
        let map = KeyBinMap::from_sorted_entries(k, &mut d, "group bin entries")?
            .map_err(|e| invalid(format!("group {gi} bin map: {e}")))?;
        out.push(Arc::new(map));
    }
    Ok(out)
}

fn decode_keys(payload: &[u8], num_groups: usize) -> Result<Vec<(String, usize)>, PersistError> {
    let mut d = Dec::new(payload);
    // A key is at least its name's length and its group id.
    let n = d.count("KEYS key count", 2)?;
    let mut out: Vec<(String, usize)> = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str("key name")?.to_string();
        let gid = d.usize("key group id")?;
        if gid >= num_groups {
            return Err(invalid(format!(
                "key {name:?}: group {gid} has no bin map (only {num_groups} groups)"
            )));
        }
        if !name.contains('.') || out.last().is_some_and(|(prev, _)| *prev >= name) {
            return Err(invalid(format!(
                "key {name:?} is malformed, repeated or unsorted"
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
) -> Result<Vec<KeyStats>, PersistError> {
    let mut d = Dec::new(payload);
    // A record is at least its `k` and its entry count.
    let n = d.count("KEY_STATS record count", 2)?;
    if let Some((name, _)) = keys.get(n) {
        return Err(invalid(format!("key {name} has no statistics")));
    }
    let mut out = Vec::with_capacity(keys.len());
    for (name, gid) in keys {
        let k = d.count("stats bin count", 24)?; // 3 × f64 per bin
                                                 // Per-bin vectors must agree with the key's group, or estimation
                                                 // would index out of bounds later.
        let expect = group_bins[*gid].k();
        if k != expect {
            return Err(invalid(format!(
                "key {name:?}: {k} bins but group {gid} has {expect}"
            )));
        }
        let bin_total = d.f64s(k, "stats bin vector")?;
        let bin_mfv = d.f64s(k, "stats bin vector")?;
        let bin_ndv = d.f64s(k, "stats bin vector")?;
        let freq = KeyFreq::from_sorted_entries(&mut d, "stats frequency entries")?
            .map_err(|e| invalid(format!("key {name:?} frequencies: {e}")))?;
        out.push(KeyStats {
            bin_total,
            bin_mfv,
            bin_ndv,
            freq,
        });
    }
    Ok(out)
}

/// A `TABLE` section's name and schema, and the rest of its payload: the
/// estimator, decoded once the table's key bins are known.
fn decode_table_head<'a>(
    payload: &'a [u8],
    config: &FactorJoinConfig,
) -> Result<(String, TableSchema, Dec<'a>), PersistError> {
    let mut d = Dec::new(payload);
    let name = d.str("table name")?.to_string();
    let schema = decode_schema(&mut d)?;
    let tag = d.u8("table estimator tag")?;
    if tag != estimator_tag(&config.estimator) {
        return Err(invalid(format!(
            "table {name:?}: estimator tag {tag} differs from the config's"
        )));
    }
    Ok((name, schema, d))
}

/// Parses `.fjm` bytes into a [`SavedModel`], validating magic, version,
/// endianness, the section table, every per-section CRC, every length
/// field and every value inference indexes with (see module docs for the
/// exact rejection taxonomy). Builds the model without fitting anything.
pub fn decode(bytes: &[u8]) -> Result<SavedModel, PersistError> {
    let sections = read_sections(bytes)?;
    let section = |id| sections.iter().find(|(i, _)| *i == id).map(|&(_, p)| p);
    for id in REQUIRED_SECTIONS {
        if section(id).is_none() {
            return Err(PersistError::MissingSection { id });
        }
    }
    let config = decode_meta(section(SEC_META).unwrap())?;
    let group_bins = decode_group_bins(section(SEC_GROUP_BINS).unwrap())?;
    let keys = decode_keys(section(SEC_KEYS).unwrap(), group_bins.len())?;
    let stats = decode_key_stats(section(SEC_KEY_STATS).unwrap(), &keys, &group_bins)?;
    let mut tables: Vec<(String, TableSchema, Dec)> = Vec::new();
    for &(_, payload) in sections.iter().filter(|(id, _)| *id == SEC_TABLE) {
        let (name, schema, rest) = decode_table_head(payload, &config)?;
        if tables.last().is_some_and(|(prev, _, _)| *prev >= name) {
            return Err(invalid(format!("table {name:?} is repeated or unsorted")));
        }
        tables.push((name, schema, rest));
    }
    let keys = keys
        .into_iter()
        .zip(stats)
        .map(|((name, gid), stats)| {
            let (table, column) = name.split_once('.').expect("checked by decode_keys");
            (KeyRef::new(table, column), gid, stats)
        })
        .collect();
    let estimator = config.estimator;
    let model = FactorJoinModel::from_decoded(
        config,
        group_bins.clone(),
        keys,
        tables,
        |mut d, name, schema, bins| -> Result<Box<dyn BaseTableEstimator>, PersistError> {
            Ok(match estimator {
                BaseEstimatorKind::BayesNet(bn) => Box::new(BayesNetEstimator::decode(
                    &mut d,
                    schema,
                    bins,
                    &group_bins,
                    bn,
                )?),
                BaseEstimatorKind::Sampling { .. } => {
                    Box::new(SamplingEstimator::decode(&mut d, name, schema, bins)?)
                }
                BaseEstimatorKind::TrueScan => {
                    Box::new(ExactEstimator::decode(&mut d, name, schema, bins)?)
                }
            })
        },
    )?;
    Ok(SavedModel { model })
}

/// Checks the header and section table, and every section's extent and
/// CRC; returns each section's `(id, payload)` in file order. Required
/// sections may appear once; unknown ids are skipped.
fn read_sections(bytes: &[u8]) -> Result<Vec<(u32, &[u8])>, PersistError> {
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
    let mut sections: Vec<(u32, &[u8])> = Vec::with_capacity(section_count as usize);
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
        if REQUIRED_SECTIONS.contains(&id) && sections.iter().any(|&(seen, _)| seen == id) {
            return Err(PersistError::BadSectionTable {
                reason: format!("duplicate section {id}"),
            });
        }
        // Unknown section ids are skipped: that is how a future minor
        // version stays readable by this build.
        if REQUIRED_SECTIONS.contains(&id) || id == SEC_TABLE {
            sections.push((id, payload));
        }
    }
    Ok(sections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::BinBudget;
    use fj_query::parse_query;
    use fj_storage::{Catalog, ColumnDef, DataType, Table, Value};

    /// The `splitmix64` mixer fj-service's seeded tests use (inlined —
    /// fj-core must not depend on the service crate): keeps the fuzz sweep
    /// deterministic and replayable from a printed seed.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Two related tables, small enough to fuzz whole files: a key with
    /// NULLs, and integer, string and float attributes.
    fn tiny_catalog() -> Catalog {
        let posts = TableSchema::new(vec![
            ColumnDef::key("id"),
            ColumnDef::new("score", DataType::Int),
            ColumnDef::new("tag", DataType::Str),
            ColumnDef::new("ratio", DataType::Float),
        ]);
        let rows: Vec<Vec<Value>> = (0..120i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 5),
                    Value::Str(format!("t{}", i % 3)),
                    Value::Float(i as f64 / 7.0),
                ]
            })
            .collect();
        let comments = TableSchema::new(vec![
            ColumnDef::key("post_id"),
            ColumnDef::new("len", DataType::Int),
        ]);
        let crows: Vec<Vec<Value>> = (0..200i64)
            .map(|i| {
                let post = if i % 9 == 0 {
                    Value::Null
                } else {
                    Value::Int((i * 7) % 120)
                };
                vec![post, Value::Int(i % 11)]
            })
            .collect();
        let mut cat = Catalog::new();
        cat.add_table(Table::from_rows("posts", posts, &rows).unwrap())
            .unwrap();
        cat.add_table(Table::from_rows("comments", comments, &crows).unwrap())
            .unwrap();
        cat.relate("posts", "id", "comments", "post_id").unwrap();
        cat
    }

    const ESTIMATORS: [BaseEstimatorKind; 3] = [
        BaseEstimatorKind::BayesNet(BnConfig {
            max_codes: 64,
            mi_sample_rows: 20_000,
            alpha: 0.1,
            fallback_selectivity: 0.25,
            threads: 1,
        }),
        BaseEstimatorKind::Sampling { rate: 0.25 },
        BaseEstimatorKind::TrueScan,
    ];

    fn model(cat: &Catalog, estimator: BaseEstimatorKind) -> FactorJoinModel {
        FactorJoinModel::train(
            cat,
            FactorJoinConfig {
                bin_budget: BinBudget::Uniform(4),
                estimator,
                seed: 42,
                threads: 1,
                ..Default::default()
            },
        )
    }

    /// The `.fjm` bytes of the tiny catalog's BayesNet model.
    fn sample_bytes() -> Vec<u8> {
        encode(&model(&tiny_catalog(), ESTIMATORS[0]))
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

    /// `base` with the first section of id `id` replaced by `payload`,
    /// reframed with valid checksums.
    fn with(base: &[(u32, Vec<u8>)], id: u32, payload: Vec<u8>) -> Vec<u8> {
        let mut sections = base.to_vec();
        let at = sections.iter().position(|(i, _)| *i == id).unwrap();
        sections[at].1 = payload;
        frame(FORMAT_MAJOR, FORMAT_MINOR, &sections)
    }

    fn is_invalid(got: Result<SavedModel, PersistError>) -> bool {
        matches!(got, Err(PersistError::Invalid { .. }))
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The 16-byte blocks agree with the bit-at-a-time definition at every
    /// length around a block edge and on a section-sized buffer.
    #[test]
    fn crc32_blocks_match_the_bitwise_definition() {
        let bitwise = |bytes: &[u8]| {
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c ^= u32::from(b);
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
            }
            !c
        };
        let mut state = 1u64;
        let data: Vec<u8> = (0..100_003)
            .map(|_| (splitmix64(&mut state) >> 56) as u8)
            .collect();
        for n in (0..=70).chain([4095, 4096, 4097, data.len()]) {
            assert_eq!(crc32(&data[..n]), bitwise(&data[..n]), "{n} bytes");
        }
    }

    #[test]
    fn header_layout_is_as_documented() {
        let bytes = sample_bytes();
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
        // The four model sections, then one per table in name order.
        let ids: Vec<u32> = split_sections(&bytes).iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [1, 2, 3, 4, 5, 5]);
        // Every section payload starts 8-byte aligned.
        for i in 0..ids.len() {
            let e = HEADER_LEN + i * SECTION_ENTRY_LEN;
            let off = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap());
            assert_eq!(off % 8, 0, "section {i} not aligned");
        }
    }

    #[test]
    fn encode_decode_reencode_is_byte_identical() {
        let cat = tiny_catalog();
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id \
             AND p.score > 1 AND p.tag = 't2';",
        )
        .unwrap();
        for estimator in ESTIMATORS {
            let trained = model(&cat, estimator);
            let bytes = encode(&trained);
            let decoded = decode(&bytes).unwrap();
            let want = FactorJoinConfig {
                threads: 0,
                ..trained.config().clone()
            };
            assert_eq!(decoded.config(), &want);
            let loaded = decoded.into_model(&cat).unwrap();
            assert_eq!(encode(&loaded), bytes, "{estimator:?}: save->load->save");
            assert_eq!(loaded.model_bytes(), trained.model_bytes());
            let bits = |m: &FactorJoinModel| {
                m.estimate_subplans(&q, 1)
                    .into_iter()
                    .map(|(mask, e)| (mask, e.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&loaded), bits(&trained), "{estimator:?}");
        }
    }

    #[test]
    fn wrong_magic_is_a_named_error() {
        let mut bytes = sample_bytes();
        bytes[0] ^= 0x40;
        assert_eq!(decode(&bytes).err(), Some(PersistError::BadMagic));
        // Neither an old JSON export nor an empty file is a torn `.fjm`.
        assert_eq!(
            decode(b"{\"version\":1}").err(),
            Some(PersistError::BadMagic)
        );
        assert_eq!(decode(b"").err(), Some(PersistError::BadMagic));
        // Nor is a 7-bit-stripped copy of a real file (PNG-magic trick).
        let mut stripped = sample_bytes();
        for b in &mut stripped {
            *b &= 0x7F;
        }
        assert_eq!(decode(&stripped).err(), Some(PersistError::BadMagic));
    }

    #[test]
    fn byte_swapped_file_is_a_named_error() {
        let mut bytes = sample_bytes();
        bytes[12..16].copy_from_slice(&ENDIAN_MARK.to_be_bytes());
        assert_eq!(decode(&bytes).err(), Some(PersistError::WrongEndian));
    }

    #[test]
    fn future_major_is_rejected_future_minor_is_tolerated() {
        let sections = split_sections(&sample_bytes());
        // Major bump: reject by policy, naming both versions.
        let v3 = frame(FORMAT_MAJOR + 1, 0, &sections);
        assert_eq!(
            decode(&v3).err(),
            Some(PersistError::UnsupportedMajor {
                found: FORMAT_MAJOR + 1,
                supported: FORMAT_MAJOR,
            })
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
        let future = frame(FORMAT_MAJOR, FORMAT_MINOR + 1, &skewed);
        let decoded = decode(&future).expect("future-minor file must load");
        assert_eq!(decoded.config().estimator, ESTIMATORS[0]);
        assert!(decoded.into_model(&tiny_catalog()).is_ok());
    }

    /// A format-1 file held statistics only and had its estimators refitted
    /// on load; this build refuses it rather than refit.
    #[test]
    fn a_format_1_file_is_refused() {
        let v1 = frame(1, 0, &split_sections(&sample_bytes()));
        assert_eq!(
            decode(&v1).err(),
            Some(PersistError::UnsupportedMajor {
                found: 1,
                supported: 2
            })
        );
    }

    #[test]
    fn missing_and_duplicate_sections_are_named_errors() {
        let sections = split_sections(&sample_bytes());
        let without_stats: Vec<_> = sections
            .iter()
            .filter(|(id, _)| *id != SEC_KEY_STATS)
            .cloned()
            .collect();
        assert_eq!(
            decode(&frame(FORMAT_MAJOR, FORMAT_MINOR, &without_stats)).err(),
            Some(PersistError::MissingSection { id: SEC_KEY_STATS })
        );
        let mut doubled = sections.clone();
        doubled.push(sections[0].clone());
        assert!(matches!(
            decode(&frame(FORMAT_MAJOR, FORMAT_MINOR, &doubled)),
            Err(PersistError::BadSectionTable { .. })
        ));
        // A table twice is as wrong as a required section twice.
        let mut tables_twice = sections.clone();
        tables_twice.push(sections.last().unwrap().clone());
        assert!(is_invalid(decode(&frame(
            FORMAT_MAJOR,
            FORMAT_MINOR,
            &tables_twice
        ))));
    }

    #[test]
    fn truncation_at_every_boundary_is_a_clear_error() {
        let bytes = sample_bytes();
        let n = split_sections(&bytes).len();
        // Cut points: every header byte, every table-entry edge, every
        // section start / midpoint / end-minus-one. (All prefixes would be
        // O(n^2) CRC work; boundaries are where the interesting states are,
        // and the fuzz test samples the rest.)
        let mut cuts: Vec<usize> = (0..HEADER_LEN.min(bytes.len())).collect();
        for i in 0..n {
            let e = HEADER_LEN + i * SECTION_ENTRY_LEN;
            cuts.extend([e, e + SECTION_ENTRY_LEN]);
            let off = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[e + 16..e + 24].try_into().unwrap()) as usize;
            cuts.extend([off, off + len / 2, (off + len).saturating_sub(1)]);
        }
        cuts.push(bytes.len() - 1);
        for cut in cuts {
            let torn = &bytes[..cut.min(bytes.len())];
            let got = decode(torn).err();
            // Torn files must be *diagnosed* as torn, not as something else.
            assert!(
                matches!(
                    got,
                    Some(
                        PersistError::BadMagic
                            | PersistError::Truncated { .. }
                            | PersistError::SectionOutOfBounds { .. }
                    )
                ),
                "prefix of {cut} bytes gave an unexpected diagnosis: {got:?}"
            );
        }
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let bytes = sample_bytes();
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
        let base = split_sections(&sample_bytes());
        let hostile = |id: u32, build: &dyn Fn(&mut Enc)| {
            let mut e = Enc::default();
            build(&mut e);
            decode(&with(&base, id, e.finish())).err()
        };
        // GROUP_BINS claiming u64::MAX groups.
        assert!(matches!(
            hostile(SEC_GROUP_BINS, &|e| e.varint(u64::MAX)),
            Some(PersistError::HostileLength {
                wanted: u64::MAX,
                ..
            })
        ));
        // One group whose entry count claims 2^60 entries.
        let huge_entries = hostile(SEC_GROUP_BINS, &|e| {
            e.len(1);
            e.len(4);
            e.varint(1 << 60);
        });
        assert!(matches!(
            huge_entries,
            Some(PersistError::HostileLength { .. })
        ));
        // KEYS claiming a name longer than the payload.
        let long_name = hostile(SEC_KEYS, &|e| {
            e.len(1);
            e.varint(u32::MAX.into());
        });
        assert!(matches!(
            long_name,
            Some(PersistError::HostileLength { .. })
        ));
        // KEY_STATS record with a hostile bin count.
        let huge_k = hostile(SEC_KEY_STATS, &|e| {
            e.len(2);
            e.varint(1 << 59);
        });
        assert!(matches!(huge_k, Some(PersistError::HostileLength { .. })));
    }

    /// Every value inference indexes with is validated at decode: sorted
    /// entries, their counts and bins, group ids, `k`s and tags.
    #[test]
    fn invalid_slabs_and_tags_are_rejected() {
        let base = split_sections(&sample_bytes());
        let payload = |build: &dyn Fn(&mut Enc)| {
            let mut e = Enc::default();
            build(&mut e);
            e.finish()
        };
        // META with an unknown strategy tag.
        let meta = payload(&|e| {
            e.u8(0);
            e.len(4);
            e.u8(9);
        });
        assert!(is_invalid(decode(&with(&base, SEC_META, meta))));
        // Group entries whose values do not increase, and a bin >= k.
        for entries in [vec![(5, 0), (5, 1)], vec![(5, 0), (2, 1)], vec![(1, 4)]] {
            let groups = payload(&|e| {
                e.len(1);
                e.len(4);
                encode_entries(e, &entries);
            });
            assert!(
                is_invalid(decode(&with(&base, SEC_GROUP_BINS, groups))),
                "{entries:?}"
            );
        }
        // A KEYS entry referencing a nonexistent group.
        let keys = payload(&|e| {
            e.len(1);
            e.str("posts.id");
            e.len(77);
        });
        assert!(is_invalid(decode(&with(&base, SEC_KEYS, keys))));
        // Key statistics: a k other than the group's, a zero count, and
        // values that do not increase.
        let stats = |k: usize, entries: &[(i64, u64)]| {
            payload(&|e| {
                e.len(2);
                for _ in 0..2 {
                    e.len(k);
                    (0..3 * k).for_each(|_| e.f64(1.0));
                    encode_entries(e, entries);
                }
            })
        };
        let k = model(&tiny_catalog(), ESTIMATORS[0]).group_bins(0).k();
        assert!(decode(&with(&base, SEC_KEY_STATS, stats(k, &[(1, 2), (3, 1)]))).is_ok());
        for bad in [
            stats(k + 1, &[(1, 2)]),
            stats(k, &[(1, 2), (3, 0)]),
            stats(k, &[(3, 2), (1, 1)]),
        ] {
            assert!(is_invalid(decode(&with(&base, SEC_KEY_STATS, bad))));
        }
        // A table whose estimator tag is not the config's.
        let mut table = base
            .iter()
            .find(|(id, _)| *id == SEC_TABLE)
            .unwrap()
            .1
            .clone();
        let mut d = Dec::new(&table);
        d.str("name").unwrap();
        decode_schema(&mut d).unwrap();
        let tag_at = table.len() - d.remaining();
        table[tag_at] = 2;
        assert!(is_invalid(decode(&with(&base, SEC_TABLE, table))));
    }

    /// A `comments` network written by hand: `post_id` (the key, `gid`
    /// fitted to `k` bins) and `len` (values 1 and 2), with the parent
    /// varints `parents` and count tables of the given lengths.
    fn comments_network(gid: usize, k: usize, parents: [u64; 2], lens: [usize; 4]) -> Vec<u8> {
        let mut e = Enc::default();
        e.str("comments");
        let schema = TableSchema::new(vec![
            ColumnDef::key("post_id"),
            ColumnDef::new("len", DataType::Int),
        ]);
        encode_schema(&mut e, &schema);
        e.u8(0);
        e.varint(10);
        e.len(2);
        e.str("post_id");
        e.u8(0);
        e.len(gid);
        e.len(k);
        e.varint(parents[0]);
        e.str("len");
        e.u8(1);
        fj_storage::codec::encode_deltas(&mut e, &[1, 2]);
        e.varint(parents[1]);
        // Marginal then joint per node; a root has no joint.
        let [m0, j0, m1, j1] = lens;
        for (n, present) in [
            (m0, true),
            (j0, parents[0] != 0),
            (m1, true),
            (j1, parents[1] != 0),
        ] {
            if present {
                e.len(n);
                (0..n).for_each(|i| e.varint(i as u64 % 3));
            }
        }
        e.finish()
    }

    /// The network shapes inference would index out of bounds with, or
    /// loop on, are rejected at decode.
    #[test]
    fn malformed_networks_are_rejected() {
        let base = split_sections(&sample_bytes());
        let k = model(&tiny_catalog(), ESTIMATORS[0]).group_bins(0).k();
        let (kk, kl) = (k + 1, 3);
        // `comments` sorts before `posts`: the first TABLE section.
        let load = |payload| decode(&with(&base, SEC_TABLE, payload));
        // The hand layout is right: `len` under `post_id` decodes.
        assert!(load(comments_network(0, k, [0, 1], [kk, 0, kl, kl * kk])).is_ok());
        for (why, payload) in [
            (
                "parent out of range",
                comments_network(0, k, [0, 3], [kk, 0, kl, kl * kk]),
            ),
            (
                "own parent",
                comments_network(0, k, [0, 2], [kk, 0, kl, kl * kl]),
            ),
            (
                "cycle",
                comments_network(0, k, [2, 1], [kk, kk * kl, kl, kl * kk]),
            ),
            (
                "joint length",
                comments_network(0, k, [0, 1], [kk, 0, kl, kl * kk - 1]),
            ),
            (
                "marginal length",
                comments_network(0, k, [0, 1], [kk + 1, 0, kl, kl * kk]),
            ),
            (
                "missing group",
                comments_network(7, k, [0, 1], [kk, 0, kl, kl * kk]),
            ),
            (
                "other k",
                comments_network(0, k + 1, [0, 1], [kk + 1, 0, kl, kl * (kk + 1)]),
            ),
        ] {
            assert!(is_invalid(load(payload)), "{why} was not rejected");
        }
    }

    /// The wire-codec discipline applied to the model file: arbitrary
    /// mutations of a valid file must decode to Ok or a typed error —
    /// never a panic (and length pre-validation means never an OOM; a
    /// hostile length would abort the test process, which counts as a
    /// failure here).
    #[test]
    fn seeded_byte_mutation_fuzz_never_panics() {
        let good = sample_bytes();
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

    /// Mutations *behind* the checksums: one section's payload is flipped,
    /// truncated or extended and the file reframed with fresh CRCs, so the
    /// bytes reach the section decoders — the sorted-entry maps, the key
    /// statistics and every estimator's section. Each must decode to `Ok`
    /// or a typed error, and a model that decodes must answer a query.
    #[test]
    fn section_payload_fuzz_never_panics() {
        let cat = tiny_catalog();
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id AND p.score > 1;",
        )
        .unwrap();
        for estimator in ESTIMATORS {
            let sections = split_sections(&encode(&model(&cat, estimator)));
            for seed in 0..400u64 {
                let mut rng = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x51;
                let mut mutated = sections.clone();
                let at = (splitmix64(&mut rng) as usize) % mutated.len();
                let payload = &mut mutated[at].1;
                match splitmix64(&mut rng) % 4 {
                    0 => {
                        let keep = (splitmix64(&mut rng) as usize) % (payload.len() + 1);
                        payload.truncate(keep);
                    }
                    1 => payload.extend(std::iter::repeat_n(0xFF, 9)),
                    _ => {}
                }
                for _ in 0..(splitmix64(&mut rng) % 3 + 1) {
                    if !payload.is_empty() {
                        let i = (splitmix64(&mut rng) as usize) % payload.len();
                        payload[i] ^= (splitmix64(&mut rng) % 255 + 1) as u8;
                    }
                }
                let bytes = frame(FORMAT_MAJOR, FORMAT_MINOR, &mutated);
                let outcome = std::panic::catch_unwind(|| {
                    if let Ok(saved) = decode(&bytes) {
                        if let Ok(m) = saved.into_model(&cat) {
                            m.estimate_subplans(&q, 1);
                        }
                    }
                });
                assert!(
                    outcome.is_ok(),
                    "{estimator:?}: section {at} mutation {seed} panicked"
                );
            }
        }
    }
}
