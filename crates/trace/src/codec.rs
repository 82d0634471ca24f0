//! The on-device record wire format.
//!
//! The real tool's instrumentation callbacks write packed structs into a
//! raw GPU buffer that is later `cudaMemcpy`'d to the host; this module
//! defines that byte layout so the simulated buffer traffic corresponds
//! to real bytes. One record occupies exactly
//! [`AccessRecord::DEVICE_BYTES`] (32) bytes:
//!
//! ```text
//! offset  size  field
//!      0     4  pc
//!      4     8  addr
//!     12     8  bits
//!     20     1  size
//!     21     1  flags (bit0 store, bit1 shared, bit2 atomic)
//!     22     2  (padding, zero)
//!     24     4  block
//!     28     4  thread
//! ```

use crate::AccessRecord;
use vex_gpu::ir::{MemSpace, Pc};

/// Flags-byte bit: the access is a store.
pub const FLAG_STORE: u8 = 1 << 0;
/// Flags-byte bit: the access targets shared memory.
pub const FLAG_SHARED: u8 = 1 << 1;
/// Flags-byte bit: the access is a hardware atomic.
pub const FLAG_ATOMIC: u8 = 1 << 2;

/// A set of access-record columns, used to project a v2 columnar batch
/// decode onto the fields an analysis actually reads. Undemanded
/// columns are skipped structurally (their length prefix is honoured
/// but their contents are never bit-unpacked) and come back zero-filled
/// in [`DecodedBatch::into_records`].
///
/// The address column is delta-coded against a per-pc predictor, so
/// demanding [`ColumnSet::ADDR`] implies decoding the pc *index*
/// column; the pc dictionary values themselves are only materialized
/// under [`ColumnSet::PC`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnSet(u8);

impl ColumnSet {
    /// No columns: structural validation only.
    pub const NONE: ColumnSet = ColumnSet(0);
    /// The program counter of each access.
    pub const PC: ColumnSet = ColumnSet(1 << 0);
    /// The device address of each access.
    pub const ADDR: ColumnSet = ColumnSet(1 << 1);
    /// The raw value bits of each access.
    pub const BITS: ColumnSet = ColumnSet(1 << 2);
    /// The access width in bytes.
    pub const SIZE: ColumnSet = ColumnSet(1 << 3);
    /// The flags byte (store/shared/atomic).
    pub const FLAGS: ColumnSet = ColumnSet(1 << 4);
    /// The flat block id.
    pub const BLOCK: ColumnSet = ColumnSet(1 << 5);
    /// The in-block thread id.
    pub const THREAD: ColumnSet = ColumnSet(1 << 6);
    /// Every column — full-fidelity decode.
    pub const ALL: ColumnSet = ColumnSet(0x7F);
    /// Each single-column set, in column order (tests iterate these).
    pub const EACH: [ColumnSet; 7] = [
        ColumnSet::PC,
        ColumnSet::ADDR,
        ColumnSet::BITS,
        ColumnSet::SIZE,
        ColumnSet::FLAGS,
        ColumnSet::BLOCK,
        ColumnSet::THREAD,
    ];

    /// Whether every column of `other` is in `self`.
    pub const fn contains(self, other: ColumnSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether any column of `other` is in `self`.
    pub const fn intersects(self, other: ColumnSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Whether the set is empty.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Const union (the `|` operator, usable in const contexts).
    pub const fn union(self, other: ColumnSet) -> ColumnSet {
        ColumnSet(self.0 | other.0)
    }
}

impl std::ops::BitOr for ColumnSet {
    type Output = ColumnSet;
    fn bitor(self, rhs: ColumnSet) -> ColumnSet {
        self.union(rhs)
    }
}

impl std::ops::BitOrAssign for ColumnSet {
    fn bitor_assign(&mut self, rhs: ColumnSet) {
        *self = self.union(rhs);
    }
}

/// A structure-of-arrays view of one decoded columnar batch: the
/// demanded columns as parallel vectors, each either empty (column not
/// in [`DecodedBatch::columns`]) or exactly [`DecodedBatch::count`]
/// long. Column-at-a-time consumers (`ValueStats::record_batch`-style
/// hot paths) index the vectors directly; row-at-a-time consumers call
/// [`DecodedBatch::into_records`], which zero-fills undemanded fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecodedBatch {
    /// Records in the batch.
    pub count: usize,
    /// Which columns were materialized.
    pub columns: ColumnSet,
    /// Program counters ([`ColumnSet::PC`]).
    pub pcs: Vec<Pc>,
    /// Device addresses ([`ColumnSet::ADDR`]).
    pub addrs: Vec<u64>,
    /// Raw value bits ([`ColumnSet::BITS`]).
    pub bits: Vec<u64>,
    /// Access widths ([`ColumnSet::SIZE`]).
    pub sizes: Vec<u8>,
    /// Flags bytes ([`ColumnSet::FLAGS`]; see [`FLAG_STORE`] etc.).
    pub flags: Vec<u8>,
    /// Flat block ids ([`ColumnSet::BLOCK`]).
    pub blocks: Vec<u32>,
    /// In-block thread ids ([`ColumnSet::THREAD`]).
    pub threads: Vec<u32>,
}

impl Default for ColumnSet {
    fn default() -> Self {
        ColumnSet::ALL
    }
}

impl DecodedBatch {
    /// Builds the SoA view of an in-memory record slice (all columns).
    pub fn from_records(records: &[AccessRecord]) -> Self {
        DecodedBatch {
            count: records.len(),
            columns: ColumnSet::ALL,
            pcs: records.iter().map(|r| r.pc).collect(),
            addrs: records.iter().map(|r| r.addr).collect(),
            bits: records.iter().map(|r| r.bits).collect(),
            sizes: records.iter().map(|r| r.size).collect(),
            flags: records.iter().map(record_flags).collect(),
            blocks: records.iter().map(|r| r.block).collect(),
            threads: records.iter().map(|r| r.thread).collect(),
        }
    }

    /// Row-assembles the batch into [`AccessRecord`]s. Undemanded
    /// columns come back zero-filled (`Pc(0)`, address 0, a load of
    /// global memory, …) — consumers that declared their [`ColumnSet`]
    /// never read those fields.
    pub fn into_records(self) -> Vec<AccessRecord> {
        let count = self.count;
        if self.columns == ColumnSet::ALL {
            // Full-fidelity fast path: every column proved it holds
            // exactly `count` values, so the row assembly below runs
            // without bounds checks after re-slicing.
            let pcs = &self.pcs[..count];
            let addrs = &self.addrs[..count];
            let bits = &self.bits[..count];
            let sizes = &self.sizes[..count];
            let flags = &self.flags[..count];
            let blocks = &self.blocks[..count];
            let threads = &self.threads[..count];
            return (0..count)
                .map(|i| {
                    let f = flags[i];
                    AccessRecord {
                        pc: pcs[i],
                        addr: addrs[i],
                        bits: bits[i],
                        size: sizes[i],
                        is_store: f & FLAG_STORE != 0,
                        space: if f & FLAG_SHARED != 0 {
                            MemSpace::Shared
                        } else {
                            MemSpace::Global
                        },
                        block: blocks[i],
                        thread: threads[i],
                        is_atomic: f & FLAG_ATOMIC != 0,
                    }
                })
                .collect();
        }
        (0..count)
            .map(|i| {
                let f = self.flags.get(i).copied().unwrap_or(0);
                AccessRecord {
                    pc: self.pcs.get(i).copied().unwrap_or(Pc(0)),
                    addr: self.addrs.get(i).copied().unwrap_or(0),
                    bits: self.bits.get(i).copied().unwrap_or(0),
                    size: self.sizes.get(i).copied().unwrap_or(0),
                    is_store: f & FLAG_STORE != 0,
                    space: if f & FLAG_SHARED != 0 {
                        MemSpace::Shared
                    } else {
                        MemSpace::Global
                    },
                    block: self.blocks.get(i).copied().unwrap_or(0),
                    thread: self.threads.get(i).copied().unwrap_or(0),
                    is_atomic: f & FLAG_ATOMIC != 0,
                }
            })
            .collect()
    }
}

/// Errors decoding a device buffer or a `.vex` trace container
/// ([`crate::container`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer length is not a multiple of the record size.
    Truncated {
        /// The offending length.
        len: usize,
    },
    /// Reserved flag bits or padding were nonzero.
    Corrupt {
        /// Record index within the buffer.
        index: usize,
    },
    /// The container header's magic bytes are wrong — not a `.vex` trace.
    BadMagic,
    /// The container was written by a newer (or unknown) format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Newest version this reader understands.
        supported: u32,
    },
    /// The container ended mid-frame (cut off while recording, or file
    /// truncated in transit).
    TruncatedFrame {
        /// Byte offset where the incomplete frame starts.
        offset: u64,
    },
    /// A frame carries a kind tag this reader does not know.
    UnknownFrameKind {
        /// The unrecognized kind byte.
        kind: u8,
        /// Byte offset of the frame.
        offset: u64,
    },
    /// A frame's payload failed validation.
    BadFrame {
        /// Kind byte of the offending frame.
        kind: u8,
        /// Byte offset of the frame.
        offset: u64,
        /// What was wrong with the payload.
        what: &'static str,
    },
    /// The underlying reader or writer failed.
    Io {
        /// The I/O error's message.
        message: String,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { len } => {
                write!(f, "buffer length {len} is not a multiple of 32")
            }
            DecodeError::Corrupt { index } => write!(f, "corrupt record at index {index}"),
            DecodeError::BadMagic => {
                write!(
                    f,
                    "not a .vex trace (bad magic); expected a file written by `vex record`"
                )
            }
            DecodeError::UnsupportedVersion { found, supported } => write!(
                f,
                "trace format version {found} is not supported (this reader understands up to \
                 version {supported}); re-record the trace with this build of `vex record`"
            ),
            DecodeError::TruncatedFrame { offset } => {
                write!(f, "trace ends mid-frame at byte {offset}; the recording was cut short")
            }
            DecodeError::UnknownFrameKind { kind, offset } => {
                write!(f, "unknown frame kind {kind} at byte {offset}")
            }
            DecodeError::BadFrame { kind, offset, what } => {
                write!(f, "invalid frame (kind {kind}) at byte {offset}: {what}")
            }
            DecodeError::Io { message } => write!(f, "trace i/o failed: {message}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<std::io::Error> for DecodeError {
    fn from(e: std::io::Error) -> Self {
        DecodeError::Io { message: e.to_string() }
    }
}

// ---------------------------------------------------------------------------
// Varint / zigzag primitives (format v2 columnar batches)
// ---------------------------------------------------------------------------

/// Appends `v` as an LEB128 varint (7 value bits per byte, high bit =
/// continuation; at most 10 bytes for a full `u64`).
pub fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one LEB128 varint from `buf` at `*pos`, advancing `*pos`.
///
/// # Errors
///
/// Fails on a truncated varint and on encodings that do not fit a `u64`
/// (more than 10 bytes, or bits beyond the 64th set).
#[inline]
pub fn read_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64, &'static str> {
    // Fast path: single-byte varints dominate delta-encoded columns.
    if let Some(&b) = buf.get(*pos) {
        if b < 0x80 {
            *pos += 1;
            return Ok(b as u64);
        }
    } else {
        return Err("truncated varint");
    }
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos).ok_or("truncated varint")?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err("varint overflows u64");
        }
        value |= ((b & 0x7F) as u64) << shift;
        if b < 0x80 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err("varint longer than 10 bytes");
        }
    }
}

/// Zigzag-maps a signed delta onto an unsigned varint-friendly value
/// (0, -1, 1, -2, … → 0, 1, 2, 3, …).
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Hard ceiling on records per columnar batch. Run-length encoding
/// breaks the payload-proportional size bound fixed records have, so the
/// decoder refuses implausible counts instead of expanding them; real
/// collector flushes are orders of magnitude below this.
const MAX_BATCH_RECORDS: u64 = 1 << 24;

/// Bits needed for a fixed-width index into a `d`-entry dictionary.
fn bits_per_index(d: u64) -> u32 {
    if d <= 1 {
        0
    } else {
        64 - (d - 1).leading_zeros()
    }
}

/// Open-addressing pc → dictionary-index map used while encoding. Keeps
/// the per-record lookup to a multiply, a mask and (almost always) one
/// probe; batches rarely hold more than a few dozen distinct pcs.
struct PcIndex {
    /// Slot keys (`pc` widened to u64); [`PC_INDEX_EMPTY`] marks vacancy.
    keys: Vec<u64>,
    /// Dictionary index for the matching key.
    vals: Vec<u32>,
    len: usize,
}

/// Vacant-slot marker; no widened u32 pc can collide with it.
const PC_INDEX_EMPTY: u64 = u64::MAX;

impl PcIndex {
    fn new() -> Self {
        PcIndex { keys: vec![PC_INDEX_EMPTY; 64], vals: vec![0; 64], len: 0 }
    }

    fn hash(key: u64, mask: usize) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
    }

    /// Index assigned to `pc`, inserting it as `next` when unseen.
    fn lookup_or_insert(&mut self, pc: u32, next: u32) -> u32 {
        if self.len * 8 >= self.keys.len() * 7 {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = Self::hash(pc as u64, mask);
        loop {
            let k = self.keys[i];
            if k == pc as u64 {
                return self.vals[i];
            }
            if k == PC_INDEX_EMPTY {
                self.keys[i] = pc as u64;
                self.vals[i] = next;
                self.len += 1;
                return next;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let cap = self.keys.len() * 2;
        let keys = std::mem::replace(&mut self.keys, vec![PC_INDEX_EMPTY; cap]);
        let vals = std::mem::replace(&mut self.vals, vec![0; cap]);
        let mask = cap - 1;
        for (k, v) in keys.into_iter().zip(vals) {
            if k == PC_INDEX_EMPTY {
                continue;
            }
            let mut i = Self::hash(k, mask);
            while self.keys[i] != PC_INDEX_EMPTY {
                i = (i + 1) & mask;
            }
            self.keys[i] = k;
            self.vals[i] = v;
        }
    }
}

/// Writes `(value, run)` varint pairs covering `values` run-length wise.
fn write_rle_column(out: &mut Vec<u8>, values: impl Iterator<Item = u64>) {
    let mut run: Option<(u64, u64)> = None;
    for v in values {
        match &mut run {
            Some((value, len)) if *value == v => *len += 1,
            _ => {
                if let Some((value, len)) = run {
                    write_uvarint(out, value);
                    write_uvarint(out, len);
                }
                run = Some((v, 1));
            }
        }
    }
    if let Some((value, len)) = run {
        write_uvarint(out, value);
        write_uvarint(out, len);
    }
}

/// Appends one column: a varint byte-length prefix, then its bytes.
fn flush_column(out: &mut Vec<u8>, col: &mut Vec<u8>) {
    write_uvarint(out, col.len() as u64);
    out.extend_from_slice(col);
    col.clear();
}

/// Encodes a batch in the v2 columnar form: a varint record count, then
/// seven length-prefixed columns in this order — pc, addr, bits, size,
/// flags, block, thread.
///
/// * **pc** — a varint dictionary (distinct pcs in first-appearance
///   order) followed by fixed-width bit-packed indices, LSB first,
///   `ceil(log2(dict_len))` bits each (zero bits when a single pc);
/// * **addr** — residuals against a per-pc last-address predictor (a
///   flat array indexed by the pc's dictionary index), zigzagged and
///   run-length encoded: interleaved per-instruction streams with
///   regular strides become single runs;
/// * **bits** — XOR with the previous record's bits, run-length encoded
///   (repeated values become runs of zero);
/// * **size**, **flags** — run-length `(value, run)` pairs;
/// * **block**, **thread** — zigzagged deltas, run-length encoded.
///
/// Everything else is LEB128 varints; the length prefixes let the
/// decoder slice all columns up front and expand them in one pass.
///
/// # Panics
///
/// If the batch holds more than 2^24 records (`MAX_BATCH_RECORDS`) — far
/// beyond any collector flush; split such batches before encoding.
pub fn encode_columnar_batch(records: &[AccessRecord]) -> Vec<u8> {
    assert!(
        records.len() as u64 <= MAX_BATCH_RECORDS,
        "columnar batch exceeds the record limit"
    );
    let mut out = Vec::with_capacity(32 + records.len() * 2);
    write_uvarint(&mut out, records.len() as u64);
    if records.is_empty() {
        return out;
    }
    let mut col = Vec::with_capacity(records.len() + 8);

    // pc dictionary (first-appearance order) and per-record indices.
    let mut index = PcIndex::new();
    let mut dict: Vec<u32> = Vec::new();
    let mut indices: Vec<u32> = Vec::with_capacity(records.len());
    for r in records {
        let idx = index.lookup_or_insert(r.pc.0, dict.len() as u32);
        if idx as usize == dict.len() {
            dict.push(r.pc.0);
        }
        indices.push(idx);
    }
    write_uvarint(&mut col, dict.len() as u64);
    for &pc in &dict {
        write_uvarint(&mut col, pc as u64);
    }
    let bpi = bits_per_index(dict.len() as u64);
    if bpi > 0 {
        let mut acc = 0u64;
        let mut nbits = 0u32;
        for &idx in &indices {
            acc |= (idx as u64) << nbits;
            nbits += bpi;
            while nbits >= 8 {
                col.push(acc as u8);
                acc >>= 8;
                nbits -= 8;
            }
        }
        if nbits > 0 {
            col.push(acc as u8);
        }
    }
    flush_column(&mut out, &mut col);

    let mut pred = vec![0u64; dict.len()];
    write_rle_column(
        &mut col,
        records.iter().zip(&indices).map(|(r, &idx)| {
            let residual = r.addr.wrapping_sub(pred[idx as usize]);
            pred[idx as usize] = r.addr;
            zigzag_encode(residual as i64)
        }),
    );
    flush_column(&mut out, &mut col);

    let mut prev = 0u64;
    write_rle_column(
        &mut col,
        records.iter().map(|r| {
            let x = r.bits ^ prev;
            prev = r.bits;
            x
        }),
    );
    flush_column(&mut out, &mut col);

    write_rle_column(&mut col, records.iter().map(|r| r.size as u64));
    flush_column(&mut out, &mut col);
    write_rle_column(&mut col, records.iter().map(|r| record_flags(r) as u64));
    flush_column(&mut out, &mut col);

    let mut prev = 0i64;
    write_rle_column(
        &mut col,
        records.iter().map(|r| {
            let d = r.block as i64 - prev;
            prev = r.block as i64;
            zigzag_encode(d)
        }),
    );
    flush_column(&mut out, &mut col);

    let mut prev = 0i64;
    write_rle_column(
        &mut col,
        records.iter().map(|r| {
            let d = r.thread as i64 - prev;
            prev = r.thread as i64;
            zigzag_encode(d)
        }),
    );
    flush_column(&mut out, &mut col);
    out
}

fn record_flags(rec: &AccessRecord) -> u8 {
    let mut flags = 0u8;
    if rec.is_store {
        flags |= FLAG_STORE;
    }
    if rec.space == MemSpace::Shared {
        flags |= FLAG_SHARED;
    }
    if rec.is_atomic {
        flags |= FLAG_ATOMIC;
    }
    flags
}

/// Splits the next length-prefixed column of a nonempty batch off `buf`
/// at `*pos`. Such a column is never empty — the pc column holds its
/// dictionary and each RLE column at least one (value, run) pair — so an
/// empty one fails here, as the truncated varint decoding its contents
/// would hit, whether or not the column is demanded.
fn take_column<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8], &'static str> {
    let len = read_uvarint(buf, pos)?;
    if len == 0 {
        return Err("truncated varint");
    }
    if len > (buf.len() - *pos) as u64 {
        return Err("column length exceeds payload");
    }
    let col = &buf[*pos..*pos + len as usize];
    *pos += len as usize;
    Ok(col)
}

/// Streams the `(value, run)` pairs of one RLE column. Runs must cover
/// exactly `count` records and the column must be fully consumed.
/// Expanding run-wise keeps the common long runs at bulk-fill speed.
fn for_each_rle_run(
    col: &[u8],
    count: usize,
    mut f: impl FnMut(u64, usize) -> Result<(), &'static str>,
) -> Result<(), &'static str> {
    let mut pos = 0usize;
    let mut filled = 0usize;
    while filled < count {
        let value = read_uvarint(col, &mut pos)?;
        let run = read_uvarint(col, &mut pos)?;
        if run == 0 || run > (count - filled) as u64 {
            return Err("rle run length out of range");
        }
        f(value, run as usize)?;
        filled += run as usize;
    }
    if pos != col.len() {
        return Err("column length does not match contents");
    }
    Ok(())
}

/// Decodes one run-length zigzag-delta column of `count` u32-ranged
/// values (block/thread). Zero-delta runs expand as constant fills.
fn decode_delta_rle_u32_column(col: &[u8], count: usize) -> Result<Vec<u32>, &'static str> {
    let mut out: Vec<u32> = Vec::with_capacity(count.min(1 << 16));
    let mut prev = 0i64;
    for_each_rle_run(col, count, |value, run| {
        let delta = zigzag_decode(value);
        if delta == 0 {
            // `prev` only ever holds validated in-range values.
            out.resize(out.len() + run, prev as u32);
            return Ok(());
        }
        // A constant-delta run is monotone, so its extremes sit at the
        // endpoints: checking the last value bounds every step, and the
        // expansion itself can use wrapping u32 arithmetic.
        let last = prev as i128 + delta as i128 * run as i128;
        if !(0..=u32::MAX as i128).contains(&last) {
            return Err("delta leaves u32 column range");
        }
        let step = delta as u32;
        let mut cur = prev as u32;
        for _ in 0..run {
            cur = cur.wrapping_add(step);
            out.push(cur);
        }
        prev = last as i64;
        Ok(())
    })?;
    Ok(out)
}

/// Decodes one run-length byte column (size/flags), validating each
/// run's value with `check`.
fn decode_rle_u8_column(
    col: &[u8],
    count: usize,
    check: impl Fn(u64) -> Result<u8, &'static str>,
) -> Result<Vec<u8>, &'static str> {
    let mut out: Vec<u8> = Vec::with_capacity(count.min(1 << 16));
    for_each_rle_run(col, count, |value, run| {
        let byte = check(value)?;
        out.resize(out.len() + run, byte);
        Ok(())
    })?;
    Ok(out)
}

/// Walks a v2 columnar batch payload structurally — record count and
/// the seven column length prefixes — without decoding any column, and
/// returns the record count. This is the skip-records scan path: cost
/// is independent of the batch's record count.
///
/// # Errors
///
/// The same structural errors as [`decode_columnar_batch`] (bad count,
/// an empty column under a nonzero count, column lengths exceeding the
/// payload, trailing bytes); column *contents* are not validated.
pub fn scan_columnar_batch(buf: &[u8]) -> Result<u64, &'static str> {
    let mut pos = 0usize;
    let count = read_uvarint(buf, &mut pos)?;
    if count > MAX_BATCH_RECORDS {
        return Err("record count exceeds limit");
    }
    if count > 0 {
        for _ in 0..7 {
            take_column(buf, &mut pos)?;
        }
    }
    if pos != buf.len() {
        return Err("trailing bytes after columnar batch");
    }
    Ok(count)
}

/// Decodes a v2 columnar batch payload (as produced by
/// [`encode_columnar_batch`]). The whole buffer must be consumed.
///
/// # Errors
///
/// A static description of the first malformed column: truncated or
/// over-long varints, column lengths disagreeing with their contents,
/// dictionary entries or indices out of range, deltas escaping their
/// column's range, invalid flags, bad run lengths, or trailing bytes.
pub fn decode_columnar_batch(buf: &[u8]) -> Result<Vec<AccessRecord>, &'static str> {
    Ok(decode_columnar_batch_projected(buf, ColumnSet::ALL)?.into_records())
}

/// Decodes a v2 columnar batch payload, materializing only the columns
/// in `cols` (the full decode is the [`ColumnSet::ALL`] projection).
/// The batch is always walked structurally — record count, the seven
/// column length prefixes (none of them zero), the trailing-bytes
/// check — but the contents
/// of an undemanded column are never bit-unpacked or validated; the
/// corresponding [`DecodedBatch`] vectors come back empty.
///
/// Because addresses are delta-coded against a per-pc predictor,
/// demanding [`ColumnSet::ADDR`] decodes the pc index column too (the
/// dictionary values themselves are materialized only under
/// [`ColumnSet::PC`]).
///
/// # Errors
///
/// As [`decode_columnar_batch`] for the structural checks and for every
/// demanded column; a corruption confined to an undemanded column's
/// contents is not detected.
pub fn decode_columnar_batch_projected(
    buf: &[u8],
    cols: ColumnSet,
) -> Result<DecodedBatch, &'static str> {
    let mut pos = 0usize;
    let count = read_uvarint(buf, &mut pos)?;
    // RLE breaks the payload-proportional size bound fixed records have,
    // so a hard ceiling keeps corrupt counts from provoking huge
    // expansions; every column below still has to account for exactly
    // `count` records or the batch is rejected.
    if count > MAX_BATCH_RECORDS {
        return Err("record count exceeds limit");
    }
    let count = count as usize;
    let mut batch = DecodedBatch { count, columns: cols, ..DecodedBatch::default() };
    if count == 0 {
        if pos != buf.len() {
            return Err("trailing bytes after columnar batch");
        }
        return Ok(batch);
    }
    let pc_col = take_column(buf, &mut pos)?;
    let addr_col = take_column(buf, &mut pos)?;
    let bits_col = take_column(buf, &mut pos)?;
    let size_col = take_column(buf, &mut pos)?;
    let flags_col = take_column(buf, &mut pos)?;
    let block_col = take_column(buf, &mut pos)?;
    let thread_col = take_column(buf, &mut pos)?;
    if pos != buf.len() {
        return Err("trailing bytes after columnar batch");
    }

    // pc column: dictionary, then fixed-width bit-packed indices. The
    // indices drive the address predictor, so ADDR demands them too.
    let (dict, idxs) = if cols.intersects(ColumnSet::PC.union(ColumnSet::ADDR)) {
        let mut pc_pos = 0usize;
        let dict_len = read_uvarint(pc_col, &mut pc_pos)?;
        if dict_len == 0 || dict_len > count as u64 {
            return Err("pc dictionary size out of range");
        }
        // Capacity hints are capped: `count` and `dict_len` are attacker
        // data until the columns prove they account for every record.
        let mut dict: Vec<u32> = Vec::with_capacity((dict_len as usize).min(1 << 16));
        for _ in 0..dict_len {
            let v = read_uvarint(pc_col, &mut pc_pos)?;
            if v > u32::MAX as u64 {
                return Err("pc dictionary entry exceeds u32 range");
            }
            dict.push(v as u32);
        }
        let bpi = bits_per_index(dict_len);
        let packed = &pc_col[pc_pos..];
        if packed.len() as u64 != (count as u64 * bpi as u64).div_ceil(8) {
            return Err("column length does not match contents");
        }
        // Unpack the per-record dictionary indices, validating each one,
        // so every later use of an index is known in-range.
        let mut idxs: Vec<u32> = Vec::with_capacity(count.min(1 << 16));
        if bpi == 0 {
            idxs.resize(count, 0);
        } else {
            let mask = (1u64 << bpi) - 1;
            let (mut acc, mut nbits, mut ppos) = (0u64, 0u32, 0usize);
            for _ in 0..count {
                while nbits < bpi {
                    acc |= (packed[ppos] as u64) << nbits;
                    ppos += 1;
                    nbits += 8;
                }
                let idx = (acc & mask) as u32;
                acc >>= bpi;
                nbits -= bpi;
                if idx as u64 >= dict_len {
                    return Err("pc index out of dictionary range");
                }
                idxs.push(idx);
            }
        }
        (dict, idxs)
    } else {
        (Vec::new(), Vec::new())
    };

    if cols.contains(ColumnSet::ADDR) {
        // addr and bits span the full u64 range, so wrapping
        // reconstruction is lossless and cannot be "out of range". The
        // address predictor is a flat per-dictionary-index array of last
        // addresses.
        let mut addrs: Vec<u64> = Vec::with_capacity(count.min(1 << 16));
        let mut pred = vec![0u64; dict.len()];
        for_each_rle_run(addr_col, count, |value, run| {
            let residual = zigzag_decode(value) as u64;
            let start = addrs.len();
            for &idx in &idxs[start..start + run] {
                let addr = pred[idx as usize].wrapping_add(residual);
                pred[idx as usize] = addr;
                addrs.push(addr);
            }
            Ok(())
        })?;
        batch.addrs = addrs;
    }

    if cols.contains(ColumnSet::BITS) {
        let mut bits: Vec<u64> = Vec::with_capacity(count.min(1 << 16));
        let mut prev_bits = 0u64;
        for_each_rle_run(bits_col, count, |x, run| {
            if x == 0 {
                // Repeated values are by far the common case: constant
                // fill.
                bits.resize(bits.len() + run, prev_bits);
            } else {
                for _ in 0..run {
                    prev_bits ^= x;
                    bits.push(prev_bits);
                }
            }
            Ok(())
        })?;
        batch.bits = bits;
    }

    if cols.contains(ColumnSet::SIZE) {
        batch.sizes = decode_rle_u8_column(size_col, count, |v| {
            if v > u8::MAX as u64 {
                return Err("rle value exceeds one byte");
            }
            Ok(v as u8)
        })?;
    }
    if cols.contains(ColumnSet::FLAGS) {
        batch.flags = decode_rle_u8_column(flags_col, count, |v| {
            if v & !((FLAG_STORE | FLAG_SHARED | FLAG_ATOMIC) as u64) != 0 {
                return Err("reserved flag bits set");
            }
            Ok(v as u8)
        })?;
    }
    if cols.contains(ColumnSet::BLOCK) {
        batch.blocks = decode_delta_rle_u32_column(block_col, count)?;
    }
    if cols.contains(ColumnSet::THREAD) {
        batch.threads = decode_delta_rle_u32_column(thread_col, count)?;
    }
    if cols.contains(ColumnSet::PC) {
        // Indices were validated against `dict_len` above, so the
        // dictionary lookup cannot go out of bounds.
        batch.pcs = idxs.iter().map(|&i| Pc(dict[i as usize])).collect();
    }
    Ok(batch)
}

/// Encodes one record into its 32-byte wire form.
pub fn encode_record(rec: &AccessRecord) -> [u8; AccessRecord::DEVICE_BYTES as usize] {
    let mut out = [0u8; AccessRecord::DEVICE_BYTES as usize];
    out[0..4].copy_from_slice(&rec.pc.0.to_le_bytes());
    out[4..12].copy_from_slice(&rec.addr.to_le_bytes());
    out[12..20].copy_from_slice(&rec.bits.to_le_bytes());
    out[20] = rec.size;
    out[21] = record_flags(rec);
    out[24..28].copy_from_slice(&rec.block.to_le_bytes());
    out[28..32].copy_from_slice(&rec.thread.to_le_bytes());
    out
}

/// Decodes one 32-byte wire record.
///
/// # Errors
///
/// Returns [`DecodeError::Corrupt`] (with index 0) if reserved bits are
/// set.
pub fn decode_record(
    buf: &[u8; AccessRecord::DEVICE_BYTES as usize],
) -> Result<AccessRecord, DecodeError> {
    let flags = buf[21];
    if flags & !(FLAG_STORE | FLAG_SHARED | FLAG_ATOMIC) != 0 || buf[22] != 0 || buf[23] != 0 {
        return Err(DecodeError::Corrupt { index: 0 });
    }
    Ok(AccessRecord {
        pc: Pc(u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"))),
        addr: u64::from_le_bytes(buf[4..12].try_into().expect("8 bytes")),
        bits: u64::from_le_bytes(buf[12..20].try_into().expect("8 bytes")),
        size: buf[20],
        is_store: flags & FLAG_STORE != 0,
        space: if flags & FLAG_SHARED != 0 { MemSpace::Shared } else { MemSpace::Global },
        block: u32::from_le_bytes(buf[24..28].try_into().expect("4 bytes")),
        thread: u32::from_le_bytes(buf[28..32].try_into().expect("4 bytes")),
        is_atomic: flags & FLAG_ATOMIC != 0,
    })
}

/// Encodes a batch into one contiguous device-buffer image.
pub fn encode_batch(records: &[AccessRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * AccessRecord::DEVICE_BYTES as usize);
    for rec in records {
        out.extend_from_slice(&encode_record(rec));
    }
    out
}

/// Decodes a device-buffer image back into records.
///
/// # Errors
///
/// Returns [`DecodeError::Truncated`] for misaligned lengths and
/// [`DecodeError::Corrupt`] (with the record index) for invalid records.
pub fn decode_batch(buf: &[u8]) -> Result<Vec<AccessRecord>, DecodeError> {
    let rec_size = AccessRecord::DEVICE_BYTES as usize;
    if !buf.len().is_multiple_of(rec_size) {
        return Err(DecodeError::Truncated { len: buf.len() });
    }
    let mut out = Vec::with_capacity(buf.len() / rec_size);
    for (index, chunk) in buf.chunks_exact(rec_size).enumerate() {
        let arr: &[u8; 32] = chunk.try_into().expect("chunks_exact yields 32");
        match decode_record(arr) {
            Ok(rec) => out.push(rec),
            Err(_) => return Err(DecodeError::Corrupt { index }),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_record() -> impl Strategy<Value = AccessRecord> {
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            1u8..=8,
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            any::<u32>(),
            any::<u32>(),
        )
            .prop_map(
                |(pc, addr, bits, size, store, shared, atomic, block, thread)| AccessRecord {
                    pc: Pc(pc),
                    addr,
                    bits,
                    size,
                    is_store: store,
                    space: if shared { MemSpace::Shared } else { MemSpace::Global },
                    block,
                    thread,
                    is_atomic: atomic,
                },
            )
    }

    #[test]
    fn record_size_matches_constant() {
        let rec = AccessRecord {
            pc: Pc(1),
            addr: 2,
            bits: 3,
            size: 4,
            is_store: true,
            space: MemSpace::Global,
            block: 5,
            thread: 6,
            is_atomic: false,
        };
        assert_eq!(encode_record(&rec).len() as u64, AccessRecord::DEVICE_BYTES);
    }

    #[test]
    fn truncated_buffer_rejected() {
        assert_eq!(decode_batch(&[0u8; 33]), Err(DecodeError::Truncated { len: 33 }));
        assert_eq!(decode_batch(&[]), Ok(Vec::new()));
    }

    #[test]
    fn corrupt_flags_rejected() {
        let mut buf = [0u8; 32];
        buf[21] = 0x80; // reserved bit
        assert_eq!(decode_record(&buf), Err(DecodeError::Corrupt { index: 0 }));
        buf[21] = 0;
        buf[22] = 1; // padding
        assert_eq!(decode_record(&buf), Err(DecodeError::Corrupt { index: 0 }));
        // Error carries the right index inside a batch.
        let good = encode_record(&AccessRecord {
            pc: Pc(0),
            addr: 0,
            bits: 0,
            size: 4,
            is_store: false,
            space: MemSpace::Global,
            block: 0,
            thread: 0,
            is_atomic: false,
        });
        let mut batch = Vec::new();
        batch.extend_from_slice(&good);
        batch.extend_from_slice(&buf);
        assert_eq!(decode_batch(&batch), Err(DecodeError::Corrupt { index: 1 }));
    }

    #[test]
    fn every_error_variant_displays() {
        let cases: Vec<(DecodeError, &str)> = vec![
            (DecodeError::Truncated { len: 33 }, "not a multiple"),
            (DecodeError::Corrupt { index: 7 }, "index 7"),
            (DecodeError::BadMagic, "not a .vex trace"),
            (DecodeError::UnsupportedVersion { found: 9, supported: 1 }, "re-record"),
            (DecodeError::TruncatedFrame { offset: 40 }, "mid-frame at byte 40"),
            (DecodeError::UnknownFrameKind { kind: 200, offset: 12 }, "kind 200"),
            (DecodeError::BadFrame { kind: 3, offset: 99, what: "bad utf-8" }, "bad utf-8"),
            (DecodeError::Io { message: "disk full".into() }, "disk full"),
        ];
        for (err, needle) in cases {
            let shown = err.to_string();
            assert!(shown.contains(needle), "{shown:?} should contain {needle:?}");
        }
    }

    #[test]
    fn unsupported_version_message_is_actionable() {
        let msg = DecodeError::UnsupportedVersion { found: 2, supported: 1 }.to_string();
        assert!(msg.contains("version 2"), "{msg}");
        assert!(msg.contains("up to version 1"), "{msg}");
        assert!(msg.contains("re-record"), "{msg}");
    }

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert!(read_uvarint(&[], &mut pos).is_err());
        // Continuation bit set but stream ends.
        let mut pos = 0;
        assert!(read_uvarint(&[0x80], &mut pos).is_err());
        // 11 continuation bytes: longer than any u64 encoding.
        let mut pos = 0;
        assert!(read_uvarint(&[0x80; 11], &mut pos).is_err());
        // 10 bytes whose top byte pushes past bit 63.
        let mut buf = vec![0xFF; 9];
        buf.push(0x02);
        let mut pos = 0;
        assert!(read_uvarint(&buf, &mut pos).is_err());
    }

    #[test]
    fn zigzag_is_an_involution() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
    }

    #[test]
    fn columnar_batch_compresses_sequential_records() {
        // A typical collector batch: sequential addresses, one pc, one
        // repeated value, constant size/flags, slowly advancing threads.
        let records: Vec<AccessRecord> = (0..1000u64)
            .map(|i| AccessRecord {
                pc: Pc(2),
                addr: 4096 + i * 4,
                bits: 0x3f80_0000,
                size: 4,
                is_store: true,
                space: MemSpace::Global,
                block: (i / 32) as u32,
                thread: (i % 32) as u32,
                is_atomic: false,
            })
            .collect();
        let encoded = encode_columnar_batch(&records);
        let fixed = records.len() * AccessRecord::DEVICE_BYTES as usize;
        assert!(
            encoded.len() * 20 <= fixed,
            "columnar {} bytes vs fixed {} bytes — expected ≥20×",
            encoded.len(),
            fixed
        );
        assert_eq!(decode_columnar_batch(&encoded).unwrap(), records);
    }

    #[test]
    fn columnar_batch_collapses_interleaved_streams() {
        // Two instructions' strided streams interleave in chunks of ten
        // records; a whole-batch delta would pay the inter-stream jump on
        // every record, but the per-pc predictor sees a constant residual
        // for each stream, so the address column collapses to one run
        // pair per chunk.
        let records: Vec<AccessRecord> = (0..1000u64)
            .map(|i| {
                let (chunk, lane) = (i / 10, i % 10);
                let (pc, stride, base) =
                    if chunk % 2 == 0 { (0u32, 8, 4096) } else { (1u32, 4, 1 << 20) };
                let n = (chunk / 2) * 10 + lane;
                AccessRecord {
                    pc: Pc(pc),
                    addr: base + n * stride,
                    bits: pc as u64,
                    size: 4,
                    is_store: false,
                    space: MemSpace::Global,
                    block: 0,
                    thread: lane as u32,
                    is_atomic: false,
                }
            })
            .collect();
        let encoded = encode_columnar_batch(&records);
        let fixed = records.len() * AccessRecord::DEVICE_BYTES as usize;
        assert!(
            encoded.len() * 8 <= fixed,
            "columnar {} bytes vs fixed {} bytes — expected ≥8×",
            encoded.len(),
            fixed
        );
        assert_eq!(decode_columnar_batch(&encoded).unwrap(), records);
    }

    #[test]
    fn columnar_batch_rejects_malformed_input() {
        // A count past the hard batch ceiling.
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 1 << 40);
        assert_eq!(decode_columnar_batch(&buf), Err("record count exceeds limit"));
        // Valid batch with trailing garbage.
        let records = vec![AccessRecord {
            pc: Pc(0),
            addr: 8,
            bits: 1,
            size: 4,
            is_store: false,
            space: MemSpace::Global,
            block: 0,
            thread: 0,
            is_atomic: false,
        }];
        let mut encoded = encode_columnar_batch(&records);
        encoded.push(0);
        assert_eq!(decode_columnar_batch(&encoded), Err("trailing bytes after columnar batch"));
        // Every truncation point of a well-formed batch errors.
        let encoded = encode_columnar_batch(&records);
        for cut in 0..encoded.len() {
            assert!(decode_columnar_batch(&encoded[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// A length-prefixed column holding exactly `bytes`.
    fn raw_col(bytes: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_uvarint(&mut out, bytes.len() as u64);
        out.extend_from_slice(bytes);
        out
    }

    /// A length-prefixed RLE column from `(value, run)` pairs.
    fn rle_col(pairs: &[(u64, u64)]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for &(v, run) in pairs {
            write_uvarint(&mut bytes, v);
            write_uvarint(&mut bytes, run);
        }
        raw_col(&bytes)
    }

    /// A hand-built pc column: dictionary entries, then bit-packed
    /// per-record indices (LSB first).
    fn pc_col(dict: &[u64], indices: &[u64]) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_uvarint(&mut bytes, dict.len() as u64);
        for &pc in dict {
            write_uvarint(&mut bytes, pc);
        }
        let bpi = bits_per_index(dict.len() as u64);
        if bpi > 0 {
            let (mut acc, mut nbits) = (0u64, 0u32);
            for &idx in indices {
                acc |= idx << nbits;
                nbits += bpi;
                while nbits >= 8 {
                    bytes.push(acc as u8);
                    acc >>= 8;
                    nbits -= 8;
                }
            }
            if nbits > 0 {
                bytes.push(acc as u8);
            }
        }
        raw_col(&bytes)
    }

    /// A hand-built 2-record batch with pluggable size/flags columns.
    fn two_record_batch(size: &[(u64, u64)], flags: &[(u64, u64)]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 2);
        buf.extend_from_slice(&pc_col(&[0], &[])); // one pc, zero index bits
        buf.extend_from_slice(&rle_col(&[(0, 2)])); // addr residuals
        buf.extend_from_slice(&rle_col(&[(0, 2)])); // bits xors
        buf.extend_from_slice(&rle_col(size));
        buf.extend_from_slice(&rle_col(flags));
        buf.extend_from_slice(&rle_col(&[(0, 2)])); // block deltas
        buf.extend_from_slice(&rle_col(&[(0, 2)])); // thread deltas
        buf
    }

    #[test]
    fn columnar_batch_rejects_bad_pc_dictionary() {
        // A dictionary entry outside the u32 range. All seven columns
        // must be present and nonempty (the decoder slices them before
        // reading any contents); the others each hold one valid run.
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 1);
        buf.extend_from_slice(&pc_col(&[1 << 33], &[]));
        for _ in 0..6 {
            buf.extend_from_slice(&rle_col(&[(0, 1)]));
        }
        assert_eq!(decode_columnar_batch(&buf), Err("pc dictionary entry exceeds u32 range"));
        // An empty dictionary, and one larger than the record count.
        for dict in [&[][..], &[7, 8][..]] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, 1);
            buf.extend_from_slice(&pc_col(dict, &[0]));
            for _ in 0..6 {
                buf.extend_from_slice(&rle_col(&[(0, 1)]));
            }
            assert_eq!(decode_columnar_batch(&buf), Err("pc dictionary size out of range"));
        }
        // A packed index pointing past the dictionary end (3 entries →
        // 2-bit indices, so index 3 is encodable but invalid).
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 3);
        buf.extend_from_slice(&pc_col(&[4, 5, 6], &[3, 0, 0]));
        for col in [(0, 3), (0, 3), (4, 3), (0, 3), (0, 3), (0, 3)] {
            buf.extend_from_slice(&rle_col(&[col]));
        }
        assert_eq!(decode_columnar_batch(&buf), Err("pc index out of dictionary range"));
    }

    #[test]
    fn empty_column_under_a_nonzero_count_fails_the_structural_walk() {
        // Seven empty columns posing as 2^24 records: every nonempty
        // batch's columns hold at least one varint, so the walk fails the
        // first column whether or not it is demanded.
        let mut buf = Vec::new();
        write_uvarint(&mut buf, MAX_BATCH_RECORDS);
        buf.extend_from_slice(&[0; 7]);
        assert_eq!(scan_columnar_batch(&buf), Err("truncated varint"));
        for cols in [ColumnSet::NONE, ColumnSet::THREAD, ColumnSet::ALL] {
            let count = decode_columnar_batch_projected(&buf, cols).map(|b| b.count);
            assert_eq!(count, Err("truncated varint"), "{cols:?}");
        }
    }

    #[test]
    fn columnar_batch_rejects_out_of_range_deltas() {
        // Block deltas reconstructing outside the u32 range, in both
        // directions.
        for bad_delta in [1i64 << 33, -1] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, 1);
            buf.extend_from_slice(&pc_col(&[0], &[]));
            buf.extend_from_slice(&rle_col(&[(0, 1)])); // addr
            buf.extend_from_slice(&rle_col(&[(0, 1)])); // bits
            buf.extend_from_slice(&rle_col(&[(4, 1)])); // size
            buf.extend_from_slice(&rle_col(&[(0, 1)])); // flags
            buf.extend_from_slice(&rle_col(&[(zigzag_encode(bad_delta), 1)])); // block
            buf.extend_from_slice(&rle_col(&[(0, 1)])); // thread
            assert_eq!(decode_columnar_batch(&buf), Err("delta leaves u32 column range"));
        }
    }

    #[test]
    fn columnar_batch_rejects_bad_rle_and_flags() {
        // The well-formed baseline decodes.
        let ok = two_record_batch(&[(4, 2)], &[(1, 2)]);
        assert_eq!(decode_columnar_batch(&ok).unwrap().len(), 2);
        // Flags with a reserved bit set.
        let reserved = two_record_batch(&[(4, 2)], &[(0x80, 2)]);
        assert_eq!(decode_columnar_batch(&reserved), Err("reserved flag bits set"));
        // A size value that does not fit one byte.
        let fat = two_record_batch(&[(256, 2)], &[(1, 2)]);
        assert_eq!(decode_columnar_batch(&fat), Err("rle value exceeds one byte"));
        // A run longer than the batch, and an empty run.
        let overrun = two_record_batch(&[(4, 3)], &[(1, 2)]);
        assert_eq!(decode_columnar_batch(&overrun), Err("rle run length out of range"));
        let zero_run = two_record_batch(&[(4, 0), (4, 2)], &[(1, 2)]);
        assert_eq!(decode_columnar_batch(&zero_run), Err("rle run length out of range"));
    }

    #[test]
    fn columnar_batch_rejects_column_length_mismatch() {
        // The size column declares one more byte than its runs consume.
        let mut size_bytes = Vec::new();
        write_uvarint(&mut size_bytes, 4);
        write_uvarint(&mut size_bytes, 2);
        size_bytes.push(0);
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 2);
        buf.extend_from_slice(&pc_col(&[0], &[]));
        buf.extend_from_slice(&rle_col(&[(0, 2)]));
        buf.extend_from_slice(&rle_col(&[(0, 2)]));
        buf.extend_from_slice(&raw_col(&size_bytes));
        buf.extend_from_slice(&rle_col(&[(1, 2)]));
        buf.extend_from_slice(&rle_col(&[(0, 2)]));
        buf.extend_from_slice(&rle_col(&[(0, 2)]));
        assert_eq!(decode_columnar_batch(&buf), Err("column length does not match contents"));
        // A column length prefix that runs past the payload.
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 1);
        write_uvarint(&mut buf, 100);
        assert_eq!(decode_columnar_batch(&buf), Err("column length exceeds payload"));
    }

    proptest! {
        #[test]
        fn prop_roundtrip(records in prop::collection::vec(arb_record(), 0..50)) {
            let encoded = encode_batch(&records);
            prop_assert_eq!(
                encoded.len() as u64,
                records.len() as u64 * AccessRecord::DEVICE_BYTES
            );
            let decoded = decode_batch(&encoded).unwrap();
            prop_assert_eq!(decoded, records);
        }

        #[test]
        fn prop_columnar_roundtrip(records in prop::collection::vec(arb_record(), 0..100)) {
            let encoded = encode_columnar_batch(&records);
            let decoded = decode_columnar_batch(&encoded).unwrap();
            prop_assert_eq!(decoded, records);
        }

        #[test]
        fn prop_columnar_corruption_never_panics(
            records in prop::collection::vec(arb_record(), 1..30),
            index in 0usize..4096,
            value in any::<u8>(),
            cut in 0usize..8192,
        ) {
            let mut encoded = encode_columnar_batch(&records);
            let index = index % encoded.len();
            encoded[index] = value;
            if cut < 4096 {
                encoded.truncate(cut % (encoded.len() + 1));
            }
            // Success or a clean error, never a panic.
            let _ = decode_columnar_batch(&encoded);
        }
    }
}
