//! The `.vex` trace container: a versioned, length-framed, streamed
//! on-disk encoding of the canonical [`Event`] stream.
//!
//! Recording the collector's output makes every analysis an *offline*
//! analysis: `vex record` writes the stream once, `vex replay` drives any
//! sink ([`crate::event::EventSink`]) from the file, and the replayed
//! report is byte-identical to the live one because the stream is
//! self-contained (captures carry device bytes, batches carry records,
//! the trailer carries call-path renderings and traffic counters).
//!
//! ## Layout
//!
//! ```text
//! header:
//!   offset  size  field
//!        0     8  magic "VEXTRACE"
//!        8     4  format version (u32, currently 2)
//!       12     4  flags (bit0 coarse captures, bit1 fine records)
//!       16     …  device preset (DeviceSpec, see below)
//! frames (repeated until the Finish frame):
//!        0     1  kind
//!        1     4  payload length N (u32)
//!        5     N  payload
//! ```
//!
//! All integers are little-endian; floats are stored as `f64::to_bits`.
//! Strings are a `u32` byte length followed by UTF-8 bytes. Frame kinds:
//!
//! ```text
//! kind  payload
//!    1  Api            seq u64, context u32, stream u32, api-kind tag +
//!                      arguments, optional kernel summary, capture segments
//!    2  LaunchBegin    full LaunchInfo (incl. instruction table)
//!    3  Batch          launch id u64, record count u32, 32-byte records
//!                      (codec::encode_record) — the v1 batch encoding
//!    4  LaunchEnd      launch id u64
//!    5  SkippedLaunch  full LaunchInfo
//!    6  Contexts       count u32, then (call-path id u32, rendered string)*
//!    7  Finish         CollectorStats (6 × u64), app time (f64 bits);
//!                      must be the last frame
//!    8  BatchColumnar  launch id varint, then the columnar record block
//!                      (codec::encode_columnar_batch) — v2 files only
//! ```
//!
//! Format v2 differs from v1 only in how record batches are encoded:
//! records are transposed into per-field columns, sorted-ish columns
//! (pc, addr, block, thread) carry zigzagged signed deltas, the value
//! bits column is XORed with its predecessor, size/flags are
//! run-length encoded, and everything is an LEB128 varint (see
//! [`codec::encode_columnar_batch`] and DESIGN.md §10). Readers accept
//! both versions — the header version selects which batch kinds are
//! legal (kind 8 only in v2 files; kind 3 in either, so a tolerant
//! reader handles mixed producers) — while [`TraceWriter`] writes the
//! version chosen by its [`FormatVersion`] knob (v2 by default).
//!
//! Launch-referencing frames (`Batch`, `LaunchEnd`) name the launch by id;
//! the reader resolves it against the preceding `LaunchBegin`. Unknown
//! format versions, unknown frame kinds, and malformed payloads are
//! rejected with the [`DecodeError`] variants added for this container —
//! decoding never panics, whatever the input bytes.

use crate::codec::{self, BatchBody, ColumnSet, DecodeError, Payload};
use crate::event::{Event, EventSink, KernelSummary};
use crate::interval::Interval;
use crate::{AccessRecord, CollectorStats};
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{BufReader, Cursor, Read, Seek, SeekFrom, Write};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use vex_gpu::alloc::AllocationInfo;
use vex_gpu::callpath::CallPathId;
use vex_gpu::dim::Dim3;
use vex_gpu::hooks::{ApiEvent, ApiKind, CapturedView, DeviceView, LaunchId, LaunchInfo};
use vex_gpu::ir::{
    AccessDecl, FloatWidth, InstrTable, Instruction, IntWidth, MemSpace, Opcode, Pc, Reg,
    ScalarType,
};
use vex_gpu::memory::DevicePtr;
use vex_gpu::stream::StreamId;
use vex_gpu::timing::DeviceSpec;

/// Magic bytes opening every `.vex` trace.
pub const TRACE_MAGIC: [u8; 8] = *b"VEXTRACE";
/// Newest container format version this build reads and writes.
pub const TRACE_VERSION: u32 = 2;
/// Oldest container format version this build still reads.
pub const TRACE_VERSION_MIN: u32 = 1;

const FLAG_COARSE: u32 = 1 << 0;
const FLAG_FINE: u32 = 1 << 1;

const FRAME_API: u8 = 1;
const FRAME_LAUNCH_BEGIN: u8 = 2;
const FRAME_BATCH: u8 = 3;
const FRAME_LAUNCH_END: u8 = 4;
const FRAME_SKIPPED_LAUNCH: u8 = 5;
const FRAME_CONTEXTS: u8 = 6;
const FRAME_FINISH: u8 = 7;
const FRAME_BATCH_COLUMNAR: u8 = 8;

/// On-disk batch encoding a [`TraceWriter`] produces.
///
/// v1 stores fixed 32-byte records; v2 stores the columnar delta+varint
/// form (typically 5–10× smaller, and faster to decode). Readers accept
/// both; writing v1 remains available for tooling that compares the
/// formats or feeds older readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FormatVersion {
    /// Format v1: fixed 32-byte records in `Batch` frames.
    V1,
    /// Format v2: columnar delta+varint `BatchColumnar` frames.
    #[default]
    V2,
}

impl FormatVersion {
    /// The header version number this knob writes.
    pub fn number(self) -> u32 {
        match self {
            FormatVersion::V1 => 1,
            FormatVersion::V2 => 2,
        }
    }
}

/// Which collection passes the recording session ran — determines which
/// analyses a replay can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceFlags {
    /// Coarse pass: API events carry capture snapshots and kernel
    /// interval summaries.
    pub coarse: bool,
    /// Fine pass: the stream contains access-record batches.
    pub fine: bool,
}

impl TraceFlags {
    fn to_bits(self) -> u32 {
        (if self.coarse { FLAG_COARSE } else { 0 }) | (if self.fine { FLAG_FINE } else { 0 })
    }

    fn from_bits(bits: u32) -> Result<Self, &'static str> {
        if bits & !(FLAG_COARSE | FLAG_FINE) != 0 {
            return Err("unknown trace flag bits");
        }
        Ok(TraceFlags { coarse: bits & FLAG_COARSE != 0, fine: bits & FLAG_FINE != 0 })
    }
}

// ---------------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_intervals(out: &mut Vec<u8>, ivs: &[Interval]) {
    put_u32(out, ivs.len() as u32);
    for iv in ivs {
        put_u64(out, iv.start);
        put_u64(out, iv.end);
    }
}

fn put_alloc(out: &mut Vec<u8>, info: &AllocationInfo) {
    put_u64(out, info.id.0);
    put_u64(out, info.addr);
    put_u64(out, info.size);
    put_str(out, &info.label);
    put_u32(out, info.context.0);
    put_bool(out, info.live);
}

fn put_scalar(out: &mut Vec<u8>, t: ScalarType) {
    let tag = match t {
        ScalarType::F32 => 0,
        ScalarType::F64 => 1,
        ScalarType::S8 => 2,
        ScalarType::S16 => 3,
        ScalarType::S32 => 4,
        ScalarType::S64 => 5,
        ScalarType::U8 => 6,
        ScalarType::U16 => 7,
        ScalarType::U32 => 8,
        ScalarType::U64 => 9,
    };
    put_u8(out, tag);
}

fn put_opcode(out: &mut Vec<u8>, op: &Opcode) {
    match op {
        Opcode::Ld => put_u8(out, 1),
        Opcode::St => put_u8(out, 2),
        Opcode::FAdd(w) => {
            put_u8(out, 3);
            put_u8(out, *w as u8);
        }
        Opcode::FMul(w) => {
            put_u8(out, 4);
            put_u8(out, *w as u8);
        }
        Opcode::FFma(w) => {
            put_u8(out, 5);
            put_u8(out, *w as u8);
        }
        Opcode::IAdd(w) => {
            put_u8(out, 6);
            put_u8(out, *w as u8);
        }
        Opcode::IMad(w) => {
            put_u8(out, 7);
            put_u8(out, *w as u8);
        }
        Opcode::Lop => put_u8(out, 8),
        Opcode::Mov => put_u8(out, 9),
        Opcode::Cvt { from, to } => {
            put_u8(out, 10);
            put_scalar(out, *from);
            put_scalar(out, *to);
        }
        Opcode::Setp(t) => {
            put_u8(out, 11);
            put_scalar(out, *t);
        }
        Opcode::Bra => put_u8(out, 12),
        Opcode::Exit => put_u8(out, 13),
        // `Opcode` is #[non_exhaustive]; a new opcode needs a new format
        // version before it can be recorded.
        _ => panic!("opcode not representable in trace format v{TRACE_VERSION}"),
    }
}

fn put_launch_info(out: &mut Vec<u8>, info: &LaunchInfo) {
    put_u64(out, info.launch.0);
    put_str(out, &info.kernel_name);
    for d in [info.grid, info.block] {
        put_u32(out, d.x);
        put_u32(out, d.y);
        put_u32(out, d.z);
    }
    put_u64(out, info.shared_bytes);
    put_u32(out, info.context.0);
    put_u32(out, info.stream.0);
    put_u32(out, info.instr_table.len() as u32);
    for instr in info.instr_table.iter() {
        put_u32(out, instr.pc.0);
        put_opcode(out, &instr.op);
        match instr.dst {
            Some(r) => {
                put_bool(out, true);
                put_u16(out, r.0);
            }
            None => put_bool(out, false),
        }
        put_u32(out, instr.srcs.len() as u32);
        for r in &instr.srcs {
            put_u16(out, r.0);
        }
        match &instr.access {
            Some(a) => {
                put_bool(out, true);
                put_u8(out, a.width_bytes);
                put_u8(out, a.space as u8);
                put_bool(out, a.is_store);
                match a.ty {
                    Some(t) => {
                        put_bool(out, true);
                        put_scalar(out, t);
                    }
                    None => put_bool(out, false),
                }
                put_u8(out, a.vector);
            }
            None => put_bool(out, false),
        }
        match instr.line {
            Some(l) => {
                put_bool(out, true);
                put_u32(out, l);
            }
            None => put_bool(out, false),
        }
    }
}

fn put_spec(out: &mut Vec<u8>, spec: &DeviceSpec) {
    put_str(out, &spec.name);
    put_u32(out, spec.num_sms);
    put_f64(out, spec.mem_bandwidth_gbps);
    put_f64(out, spec.fp32_gflops);
    put_f64(out, spec.fp64_gflops);
    put_f64(out, spec.int_gops);
    put_f64(out, spec.pcie_gbps);
    put_f64(out, spec.launch_overhead_us);
    put_f64(out, spec.memop_overhead_us);
    put_u64(out, spec.memory_bytes);
    put_u32(out, spec.max_threads_per_block);
}

/// Largest capture segment the v2 word-RLE mode may describe. RLE breaks
/// the payload-proportional size bound raw segments have, so the decoder
/// refuses implausible expansions instead of allocating them; the
/// encoder stores anything larger raw.
const MAX_RLE_CAPTURE_BYTES: u64 = 1 << 31;

/// Word-run-length encodes a capture segment: `(u32-le word, varint
/// run)` pairs covering the whole 4-byte words, then the `len % 4` tail
/// bytes raw. Returns `None` when RLE would not beat storing raw.
fn capture_rle(bytes: &[u8]) -> Option<Vec<u8>> {
    if bytes.len() < 8 || bytes.len() as u64 > MAX_RLE_CAPTURE_BYTES {
        return None;
    }
    let words = bytes.len() / 4;
    let mut rle = Vec::new();
    let mut run: Option<([u8; 4], u64)> = None;
    for word in bytes[..words * 4].chunks_exact(4) {
        let word: [u8; 4] = word.try_into().expect("4 bytes");
        match &mut run {
            Some((value, len)) if *value == word => *len += 1,
            _ => {
                if let Some((value, len)) = run.take() {
                    rle.extend_from_slice(&value);
                    codec::write_uvarint(&mut rle, len);
                }
                // Bail early on incompressible data: one pending run can
                // add at most 14 more bytes.
                if rle.len() + 14 >= bytes.len() {
                    return None;
                }
                run = Some((word, 1));
            }
        }
    }
    if let Some((value, len)) = run {
        rle.extend_from_slice(&value);
        codec::write_uvarint(&mut rle, len);
    }
    rle.extend_from_slice(&bytes[words * 4..]);
    if rle.len() < bytes.len() {
        Some(rle)
    } else {
        None
    }
}

/// v2 capture segment payload: a mode byte, then either the raw bytes
/// (mode 0) or the [`capture_rle`] encoding (mode 1). Captured device
/// memory is overwhelmingly a single repeated word (memset fills,
/// uniform tensors), so mode 1 collapses megabyte segments to a few
/// bytes; anything it cannot shrink is stored raw.
fn put_capture_payload(out: &mut Vec<u8>, bytes: &[u8]) {
    match capture_rle(bytes) {
        Some(rle) => {
            put_u8(out, 1);
            out.extend_from_slice(&rle);
        }
        None => {
            put_u8(out, 0);
            out.extend_from_slice(bytes);
        }
    }
}

fn encode_event(event: &Event, version: FormatVersion) -> (u8, Vec<u8>) {
    let mut p = Vec::new();
    match event {
        Event::Api { event, kernel, captured } => {
            put_u64(&mut p, event.seq);
            put_u32(&mut p, event.context.0);
            put_u32(&mut p, event.stream.0);
            match &event.kind {
                ApiKind::Malloc { info } => {
                    put_u8(&mut p, 1);
                    put_alloc(&mut p, info);
                }
                ApiKind::Free { info } => {
                    put_u8(&mut p, 2);
                    put_alloc(&mut p, info);
                }
                ApiKind::MemcpyH2D { dst, bytes } => {
                    put_u8(&mut p, 3);
                    put_u64(&mut p, dst.addr());
                    put_u64(&mut p, *bytes);
                }
                ApiKind::MemcpyD2H { src, bytes } => {
                    put_u8(&mut p, 4);
                    put_u64(&mut p, src.addr());
                    put_u64(&mut p, *bytes);
                }
                ApiKind::MemcpyD2D { dst, src, bytes } => {
                    put_u8(&mut p, 5);
                    put_u64(&mut p, dst.addr());
                    put_u64(&mut p, src.addr());
                    put_u64(&mut p, *bytes);
                }
                ApiKind::Memset { dst, value, bytes } => {
                    put_u8(&mut p, 6);
                    put_u64(&mut p, dst.addr());
                    put_u8(&mut p, *value);
                    put_u64(&mut p, *bytes);
                }
                ApiKind::KernelLaunch { launch, name } => {
                    put_u8(&mut p, 7);
                    put_u64(&mut p, launch.0);
                    put_str(&mut p, name);
                }
                // See `put_opcode`: new API kinds need a format bump.
                _ => panic!("api kind not representable in trace format v{TRACE_VERSION}"),
            }
            match kernel {
                Some(s) => {
                    put_bool(&mut p, true);
                    put_intervals(&mut p, &s.reads);
                    put_intervals(&mut p, &s.writes);
                    put_u64(&mut p, s.raw);
                }
                None => put_bool(&mut p, false),
            }
            let segments = captured.segments();
            put_u32(&mut p, segments.len() as u32);
            for (start, bytes) in segments {
                put_u64(&mut p, *start);
                put_u64(&mut p, bytes.len() as u64);
                match version {
                    FormatVersion::V1 => p.extend_from_slice(bytes),
                    FormatVersion::V2 => put_capture_payload(&mut p, bytes),
                }
            }
            (FRAME_API, p)
        }
        Event::LaunchBegin { info } => {
            put_launch_info(&mut p, info);
            (FRAME_LAUNCH_BEGIN, p)
        }
        Event::Batch { info, records } => match version {
            FormatVersion::V1 => {
                put_u64(&mut p, info.launch.0);
                put_u32(&mut p, records.len() as u32);
                for rec in records.iter() {
                    p.extend_from_slice(&codec::encode_record(rec));
                }
                (FRAME_BATCH, p)
            }
            FormatVersion::V2 => {
                codec::write_uvarint(&mut p, info.launch.0);
                p.extend_from_slice(&codec::encode_columnar_batch(records));
                (FRAME_BATCH_COLUMNAR, p)
            }
        },
        Event::LaunchEnd { info } => {
            put_u64(&mut p, info.launch.0);
            (FRAME_LAUNCH_END, p)
        }
        Event::SkippedLaunch { info } => {
            put_launch_info(&mut p, info);
            (FRAME_SKIPPED_LAUNCH, p)
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding primitives
// ---------------------------------------------------------------------------

/// The container's field readers on the codec's payload cursor. Every
/// accessor validates the remaining length, so malformed payloads
/// surface as errors, never panics or runaway allocations.
impl Payload<'_> {
    fn u8(&mut self) -> Result<u8, &'static str> {
        Ok(self.bytes(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, &'static str> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err("boolean byte not 0 or 1"),
        }
    }

    fn u16(&mut self) -> Result<u16, &'static str> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, &'static str> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, &'static str> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, &'static str> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, &'static str> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "string is not valid utf-8")
    }

    fn intervals(&mut self) -> Result<Vec<Interval>, &'static str> {
        let count = self.u32()? as usize;
        if self.remaining() < count * 16 {
            return Err("interval list longer than payload");
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let start = self.u64()?;
            let end = self.u64()?;
            if start >= end {
                return Err("empty or inverted interval");
            }
            out.push(Interval::new(start, end));
        }
        Ok(out)
    }

    fn alloc(&mut self) -> Result<AllocationInfo, &'static str> {
        Ok(AllocationInfo {
            id: vex_gpu::alloc::AllocId(self.u64()?),
            addr: self.u64()?,
            size: self.u64()?,
            label: self.str()?,
            context: CallPathId(self.u32()?),
            live: self.bool()?,
        })
    }

    fn scalar(&mut self) -> Result<ScalarType, &'static str> {
        Ok(match self.u8()? {
            0 => ScalarType::F32,
            1 => ScalarType::F64,
            2 => ScalarType::S8,
            3 => ScalarType::S16,
            4 => ScalarType::S32,
            5 => ScalarType::S64,
            6 => ScalarType::U8,
            7 => ScalarType::U16,
            8 => ScalarType::U32,
            9 => ScalarType::U64,
            _ => return Err("unknown scalar type tag"),
        })
    }

    fn float_width(&mut self) -> Result<FloatWidth, &'static str> {
        Ok(match self.u8()? {
            0 => FloatWidth::F32,
            1 => FloatWidth::F64,
            _ => return Err("unknown float width tag"),
        })
    }

    fn int_width(&mut self) -> Result<IntWidth, &'static str> {
        Ok(match self.u8()? {
            0 => IntWidth::I8,
            1 => IntWidth::I16,
            2 => IntWidth::I32,
            3 => IntWidth::I64,
            _ => return Err("unknown int width tag"),
        })
    }

    fn opcode(&mut self) -> Result<Opcode, &'static str> {
        Ok(match self.u8()? {
            1 => Opcode::Ld,
            2 => Opcode::St,
            3 => Opcode::FAdd(self.float_width()?),
            4 => Opcode::FMul(self.float_width()?),
            5 => Opcode::FFma(self.float_width()?),
            6 => Opcode::IAdd(self.int_width()?),
            7 => Opcode::IMad(self.int_width()?),
            8 => Opcode::Lop,
            9 => Opcode::Mov,
            10 => Opcode::Cvt { from: self.scalar()?, to: self.scalar()? },
            11 => Opcode::Setp(self.scalar()?),
            12 => Opcode::Bra,
            13 => Opcode::Exit,
            _ => return Err("unknown opcode tag"),
        })
    }

    fn launch_info(&mut self) -> Result<LaunchInfo, &'static str> {
        let launch = LaunchId(self.u64()?);
        let kernel_name = self.str()?;
        let grid = Dim3 { x: self.u32()?, y: self.u32()?, z: self.u32()? };
        let block = Dim3 { x: self.u32()?, y: self.u32()?, z: self.u32()? };
        let shared_bytes = self.u64()?;
        let context = CallPathId(self.u32()?);
        let stream = StreamId(self.u32()?);
        let count = self.u32()? as usize;
        if self.remaining() < count * 2 {
            return Err("instruction table longer than payload");
        }
        let mut table = InstrTable::new();
        let mut last_pc: Option<u32> = None;
        for _ in 0..count {
            let pc = self.u32()?;
            // PC-ordered and duplicate-free, so `InstrTable::push` (which
            // panics on duplicates) is safe to call.
            if last_pc.is_some_and(|prev| prev >= pc) {
                return Err("instruction table not in strict pc order");
            }
            last_pc = Some(pc);
            let op = self.opcode()?;
            let dst = if self.bool()? { Some(Reg(self.u16()?)) } else { None };
            let src_count = self.u32()? as usize;
            if self.remaining() < src_count * 2 {
                return Err("source register list longer than payload");
            }
            let mut srcs = Vec::with_capacity(src_count);
            for _ in 0..src_count {
                srcs.push(Reg(self.u16()?));
            }
            let access = if self.bool()? {
                Some(AccessDecl {
                    width_bytes: self.u8()?,
                    space: match self.u8()? {
                        0 => MemSpace::Global,
                        1 => MemSpace::Shared,
                        _ => return Err("unknown memory space tag"),
                    },
                    is_store: self.bool()?,
                    ty: if self.bool()? { Some(self.scalar()?) } else { None },
                    vector: self.u8()?,
                })
            } else {
                None
            };
            let line = if self.bool()? { Some(self.u32()?) } else { None };
            table.push(Instruction { pc: Pc(pc), op, dst, srcs, access, line });
        }
        Ok(LaunchInfo {
            launch,
            kernel_name,
            grid,
            block,
            shared_bytes,
            context,
            stream,
            instr_table: Arc::new(table),
        })
    }

    fn finished(&self) -> Result<(), &'static str> {
        if self.remaining() != 0 {
            return Err("trailing bytes in payload");
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// The encoder thread's end of a [`TraceWriter`]: the container stream and
/// the first I/O error written to it (frames after it are dropped).
struct FrameOut<W: Write> {
    out: W,
    error: Option<String>,
}

impl<W: Write> FrameOut<W> {
    fn write_frame(&mut self, kind: u8, payload: &[u8]) {
        if self.error.is_some() {
            return;
        }
        let mut head = [0u8; 5];
        head[0] = kind;
        head[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        let result = self.out.write_all(&head).and_then(|()| self.out.write_all(payload));
        if let Err(e) = result {
            self.error = Some(e.to_string());
        }
    }
}

/// Streams the canonical event stream into a `.vex` container.
///
/// Implements [`EventSink`], so it plugs into an
/// [`crate::event::EventSource`] directly. Frames are encoded and written
/// in stream order on a private encoder thread that owns the output:
/// `on_event` hands each event over through a rendezvous channel, so the
/// collector fills its next batch while at most one is being encoded.
/// I/O errors during streaming are latched and reported by
/// [`TraceWriter::finish`]; a writer dropped without `finish` closes the
/// channel and joins the thread.
pub struct TraceWriter<W: Write + Send + 'static> {
    /// Hand-off to the encoder thread; `None` once closed.
    events: Option<SyncSender<Event>>,
    /// The encoder thread; `None` once joined.
    encoder: Option<JoinHandle<FrameOut<W>>>,
    version: FormatVersion,
}

impl<W: Write + Send + 'static> std::fmt::Debug for TraceWriter<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceWriter").field("version", &self.version).finish_non_exhaustive()
    }
}

impl<W: Write + Send + 'static> TraceWriter<W> {
    /// Writes the container header and returns the streaming writer,
    /// producing the default (newest) format version.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if writing the header fails.
    pub fn new(out: W, spec: &DeviceSpec, flags: TraceFlags) -> std::io::Result<Self> {
        Self::with_version(out, spec, flags, FormatVersion::default())
    }

    /// Like [`TraceWriter::new`], but writing the chosen format version.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if writing the header fails or the encoder
    /// thread cannot be spawned.
    pub fn with_version(
        mut out: W,
        spec: &DeviceSpec,
        flags: TraceFlags,
        version: FormatVersion,
    ) -> std::io::Result<Self> {
        let mut header = Vec::new();
        header.extend_from_slice(&TRACE_MAGIC);
        put_u32(&mut header, version.number());
        put_u32(&mut header, flags.to_bits());
        put_spec(&mut header, spec);
        out.write_all(&header)?;
        let (events, frames) = sync_channel::<Event>(0);
        let encoder =
            std::thread::Builder::new().name("vex-trace-encoder".into()).spawn(move || {
                let mut sink = FrameOut { out, error: None };
                for event in frames {
                    if sink.error.is_none() {
                        let (kind, payload) = encode_event(&event, version);
                        sink.write_frame(kind, &payload);
                    }
                }
                sink
            })?;
        Ok(TraceWriter { events: Some(events), encoder: Some(encoder), version })
    }

    /// The format version this writer produces.
    pub fn version(&self) -> FormatVersion {
        self.version
    }

    /// Closes the hand-off and waits for the encoder thread to write
    /// every event it was given. `Err` when the thread panicked.
    fn join(&mut self) -> std::thread::Result<FrameOut<W>> {
        self.events = None;
        self.encoder.take().expect("encoder thread joined once").join()
    }

    /// Writes the context table and the trailer (traffic counters and
    /// application time), flushes, and returns the underlying writer.
    ///
    /// `contexts` should cover every interned call path of the recording
    /// session (`CallPathRecorder::render` for each id), so a replay can
    /// render contexts exactly as the live session would.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Io`] if any write (including earlier
    /// streamed frames) failed, or if the encoder thread panicked.
    pub fn finish(
        mut self,
        contexts: &[(CallPathId, String)],
        stats: &CollectorStats,
        app_us: f64,
    ) -> Result<W, DecodeError> {
        let mut st = self
            .join()
            .map_err(|_| DecodeError::Io { message: "trace encoder thread panicked".into() })?;
        let mut p = Vec::new();
        put_u32(&mut p, contexts.len() as u32);
        for (id, rendered) in contexts {
            put_u32(&mut p, id.0);
            put_str(&mut p, rendered);
        }
        st.write_frame(FRAME_CONTEXTS, &p);

        let mut p = Vec::new();
        put_u64(&mut p, stats.events);
        put_u64(&mut p, stats.events_checked);
        put_u64(&mut p, stats.flushes);
        put_u64(&mut p, stats.bytes_flushed);
        put_u64(&mut p, stats.instrumented_launches);
        put_u64(&mut p, stats.skipped_launches);
        put_f64(&mut p, app_us);
        st.write_frame(FRAME_FINISH, &p);

        if st.error.is_none() {
            if let Err(e) = st.out.flush() {
                st.error = Some(e.to_string());
            }
        }
        match st.error {
            Some(message) => Err(DecodeError::Io { message }),
            None => Ok(st.out),
        }
    }
}

impl<W: Write + Send + 'static> Drop for TraceWriter<W> {
    fn drop(&mut self) {
        if self.encoder.is_some() {
            // Abandoned without `finish`: the trace is incomplete anyway,
            // so a write error or encoder panic has no one to report to.
            let _ = self.join();
        }
    }
}

impl<W: Write + Send + 'static> EventSink for TraceWriter<W> {
    fn on_event(&self, event: &Event) {
        if let Some(events) = &self.events {
            // Fails only if the encoder thread panicked; `finish` says so.
            let _ = events.send(event.clone());
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// One decoded frame, as yielded by [`TraceReader::next_frame`].
#[derive(Debug, Clone)]
pub enum TraceFrame {
    /// A stream event (API call, launch boundary, or record batch).
    Event(Event),
    /// The context table: interned call-path id → rendered string.
    Contexts(BTreeMap<CallPathId, String>),
    /// The trailer: collector traffic and application time. Always the
    /// last frame of a complete trace.
    Finish {
        /// Fine-pass traffic counters of the recording session.
        stats: CollectorStats,
        /// Application time accumulated by the recorded run, µs.
        app_us: f64,
    },
}

mod sealed {
    /// The skip primitive behind [`super::TraceInput`]; private, so the
    /// set of inputs stays closed.
    pub trait Sealed {
        /// Bytes from the current position to the end of the input.
        fn bytes_left(&mut self) -> std::io::Result<u64>;
        /// Advances past `n` bytes without reading them.
        fn skip_bytes(&mut self, n: u64) -> std::io::Result<()>;
    }
}

/// An input a [`TraceReader`] reads: a byte slice, a [`Cursor`], a
/// [`File`], or a [`BufReader`] over a seekable reader. Besides reading,
/// each can skip bytes without reading them (a slice advance or a seek)
/// and tell how many are left, which lets the reader pass over batch
/// frames whose records no consumer reads
/// ([`TraceReader::set_skip_records`]). A [`File`] that turns out not
/// to seek (a pipe or FIFO) is still read: its skipped frames are read
/// and dropped.
pub trait TraceInput: Read + sealed::Sealed {}

impl<T: Read + sealed::Sealed> TraceInput for T {}

impl sealed::Sealed for &[u8] {
    fn bytes_left(&mut self) -> std::io::Result<u64> {
        Ok(self.len() as u64)
    }

    fn skip_bytes(&mut self, n: u64) -> std::io::Result<()> {
        let n = usize::try_from(n).unwrap_or(usize::MAX).min(self.len());
        *self = &self[n..];
        Ok(())
    }
}

impl<T: AsRef<[u8]>> sealed::Sealed for Cursor<T> {
    fn bytes_left(&mut self) -> std::io::Result<u64> {
        Ok((self.get_ref().as_ref().len() as u64).saturating_sub(self.position()))
    }

    fn skip_bytes(&mut self, n: u64) -> std::io::Result<()> {
        self.set_position(self.position().saturating_add(n));
        Ok(())
    }
}

impl sealed::Sealed for File {
    fn bytes_left(&mut self) -> std::io::Result<u64> {
        seek_bytes_left(self)
    }

    fn skip_bytes(&mut self, n: u64) -> std::io::Result<()> {
        self.seek(SeekFrom::Current(seek_offset(n)?)).map(drop)
    }
}

impl<R: Read + Seek> sealed::Sealed for BufReader<R> {
    fn bytes_left(&mut self) -> std::io::Result<u64> {
        let buffered = self.buffer().len() as u64;
        Ok(seek_bytes_left(self.get_mut())? + buffered)
    }

    fn skip_bytes(&mut self, n: u64) -> std::io::Result<()> {
        self.seek_relative(seek_offset(n)?)
    }
}

/// Bytes from `input`'s position to its end, leaving the position as
/// it was.
fn seek_bytes_left<S: Seek>(input: &mut S) -> std::io::Result<u64> {
    let pos = input.stream_position()?;
    let end = input.seek(SeekFrom::End(0))?;
    if end != pos {
        input.seek(SeekFrom::Start(pos))?;
    }
    Ok(end.saturating_sub(pos))
}

fn seek_offset(n: u64) -> std::io::Result<i64> {
    i64::try_from(n).map_err(|_| std::io::Error::other("skip past the seekable range"))
}

/// A batch frame's payload left in the reader's input: the skip walk
/// reads its prefixes from the input and seeks past its column bodies.
struct SkipBody<'r, R> {
    input: &'r mut R,
    left: usize,
    kind: u8,
    offset: u64,
}

impl<R: TraceInput> BatchBody for SkipBody<'_, R> {
    type Column = ();
    type Error = DecodeError;

    fn fault(&self, what: &'static str) -> DecodeError {
        DecodeError::BadFrame { kind: self.kind, offset: self.offset, what }
    }

    fn remaining(&self) -> usize {
        self.left
    }

    fn read_into(&mut self, buf: &mut [u8]) -> Result<(), DecodeError> {
        read_exact_at(&mut *self.input, buf, self.offset)?;
        self.left -= buf.len();
        Ok(())
    }

    fn column(&mut self, len: usize) -> Result<(), DecodeError> {
        self.input.skip_bytes(len as u64)?;
        self.left -= len;
        Ok(())
    }
}

/// Streaming `.vex` reader: decodes the header eagerly and frames on
/// demand, resolving launch references against earlier `LaunchBegin` /
/// `SkippedLaunch` frames.
pub struct TraceReader<R: TraceInput> {
    input: R,
    version: u32,
    spec: DeviceSpec,
    flags: TraceFlags,
    launches: HashMap<u64, Arc<LaunchInfo>>,
    offset: u64,
    batch_bytes: u64,
    finished: bool,
    /// When set, batch frames are validated structurally but their
    /// records are not decoded; [`TraceReader::records_scanned`]
    /// accumulates the counts instead.
    skip_records: bool,
    records_scanned: u64,
    /// Columns columnar batch decode materializes; see
    /// [`TraceReader::set_columns`].
    columns: ColumnSet,
    /// Cleared when the input turns out not to seek (a pipe or FIFO
    /// opened as a [`File`]); skipped batch frames are then read and
    /// dropped; see [`TraceReader::skip_batch`].
    seekable: bool,
}

impl<R: TraceInput> std::fmt::Debug for TraceReader<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceReader")
            .field("offset", &self.offset)
            .field("flags", &self.flags)
            .finish_non_exhaustive()
    }
}

impl<R: TraceInput> TraceReader<R> {
    /// Reads and validates the container header.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadMagic`] for non-trace input,
    /// [`DecodeError::UnsupportedVersion`] for future format versions,
    /// [`DecodeError::TruncatedFrame`] / [`DecodeError::BadFrame`] for a
    /// cut-off or malformed header.
    pub fn new(mut input: R) -> Result<Self, DecodeError> {
        let mut fixed = [0u8; 16];
        read_exact_at(&mut input, &mut fixed, 0)?;
        if fixed[0..8] != TRACE_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = u32::from_le_bytes(fixed[8..12].try_into().expect("4 bytes"));
        if !(TRACE_VERSION_MIN..=TRACE_VERSION).contains(&version) {
            return Err(DecodeError::UnsupportedVersion {
                found: version,
                supported: TRACE_VERSION,
            });
        }
        let flags = TraceFlags::from_bits(u32::from_le_bytes(
            fixed[12..16].try_into().expect("4 bytes"),
        ))
        .map_err(|what| DecodeError::BadFrame { kind: 0, offset: 12, what })?;
        // The device spec is variable-length (name string); decode it
        // field-by-field from the stream.
        let mut spec_bytes = Vec::new();
        let spec = read_spec(&mut input, &mut spec_bytes)
            .map_err(|what| DecodeError::BadFrame { kind: 0, offset: 16, what })?;
        Ok(TraceReader {
            input,
            version,
            spec,
            flags,
            launches: HashMap::new(),
            offset: 16 + spec_bytes.len() as u64,
            batch_bytes: 0,
            finished: false,
            skip_records: false,
            records_scanned: 0,
            columns: ColumnSet::ALL,
            seekable: true,
        })
    }

    /// Device preset the trace was recorded against.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Which passes the recording session ran.
    pub fn flags(&self) -> TraceFlags {
        self.flags
    }

    /// The format version declared in the file's header.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Encoded payload bytes of every record-batch frame decoded so far
    /// (the on-disk footprint of the access records; compare against
    /// `records × 32` to get the v2 compression ratio).
    pub fn batch_bytes(&self) -> u64 {
        self.batch_bytes
    }

    /// Switches the reader into scan mode: batch frames are still
    /// validated structurally, but their records are not decoded —
    /// `Batch` events arrive with empty record vectors and
    /// [`TraceReader::records_scanned`] accumulates the counts.
    ///
    /// A skipped batch is never read into memory. The reader checks that
    /// the frame lies inside the input (else
    /// [`DecodeError::TruncatedFrame`] at the frame), then reads only
    /// its launch id, record count and — for v2 columnar frames — the
    /// seven column length prefixes, seeking past each column body (v1
    /// fixed-record frames: past the records). It runs the structural
    /// checks a decode would: the launch is declared, the count is
    /// within the limit and matches the payload (v1), no column is empty
    /// under a nonzero count, every column lies inside the payload, and
    /// no bytes trail. Errors are those of reading the frame whole. On
    /// an input that cannot seek, the payload is read into memory and
    /// walked there, with the same checks.
    /// Corruption inside a skipped column body, or inside a v1 record,
    /// goes undetected: nothing reads it. Scan cost tracks the number of
    /// frames, not their records or bytes, which is what makes
    /// summaries cheap.
    pub fn set_skip_records(&mut self, skip: bool) {
        self.skip_records = skip;
    }

    /// Projects columnar batch decode onto `columns`: undemanded fields
    /// of the `Batch` records come back zero-filled. Under
    /// [`ColumnSet::NONE`] columnar batches take the skip walk of
    /// [`TraceReader::set_skip_records`] instead — the structural
    /// checks, and errors, of `decode_columnar_batch_projected(_, NONE)`,
    /// with the column bodies skipped unread — and their `Batch` events
    /// carry empty record vectors, so no record is allocated.
    /// v1 fixed-record batches always decode in full.
    pub fn set_columns(&mut self, columns: ColumnSet) {
        self.columns = columns;
    }

    /// Records counted by batch frames scanned in skip mode (or under a
    /// [`ColumnSet::NONE`] projection) so far.
    pub fn records_scanned(&self) -> u64 {
        self.records_scanned
    }

    /// Byte offset of the next frame in the stream (immediately after
    /// the last frame returned by [`TraceReader::next_frame`]). Sampling
    /// this before and after each `next_frame` call yields per-frame
    /// byte extents — the basis of [`crate::index::TraceIndex`].
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Decodes the next frame; `Ok(None)` at a clean end of stream
    /// (after the `Finish` frame).
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`]; notably [`DecodeError::TruncatedFrame`] when
    /// the input ends mid-frame or before the trailer.
    pub fn next_frame(&mut self) -> Result<Option<TraceFrame>, DecodeError> {
        let frame_offset = self.offset;
        let mut head = [0u8; 5];
        let first = {
            let mut one = [0u8; 1];
            match self.input.read(&mut one) {
                Ok(0) => {
                    if self.finished {
                        return Ok(None);
                    }
                    // Clean EOF but no trailer: the recording was cut off
                    // at a frame boundary.
                    return Err(DecodeError::TruncatedFrame { offset: frame_offset });
                }
                Ok(_) => one[0],
                Err(e) => return Err(e.into()),
            }
        };
        if self.finished {
            return Err(DecodeError::BadFrame {
                kind: first,
                offset: frame_offset,
                what: "data after the Finish frame",
            });
        }
        head[0] = first;
        read_exact_at(&mut self.input, &mut head[1..5], frame_offset)?;
        let kind = head[0];
        let len = u32::from_le_bytes(head[1..5].try_into().expect("4 bytes")) as usize;
        let skip = match kind {
            FRAME_BATCH => self.skip_records,
            FRAME_BATCH_COLUMNAR => self.skip_records || self.columns.is_empty(),
            _ => false,
        };
        if skip {
            return self.skip_batch(kind, frame_offset, len).map(Some);
        }
        let payload = self.read_payload(frame_offset, len)?;
        self.offset = frame_offset + 5 + len as u64;
        let bad = |what| DecodeError::BadFrame { kind, offset: frame_offset, what };
        let mut p = Payload::new(&payload);
        let frame = match kind {
            FRAME_API => {
                let seq = p.u64().map_err(bad)?;
                let context = CallPathId(p.u32().map_err(bad)?);
                let stream = StreamId(p.u32().map_err(bad)?);
                let api_kind = match p.u8().map_err(bad)? {
                    1 => ApiKind::Malloc { info: p.alloc().map_err(bad)? },
                    2 => ApiKind::Free { info: p.alloc().map_err(bad)? },
                    3 => ApiKind::MemcpyH2D {
                        dst: DevicePtr(p.u64().map_err(bad)?),
                        bytes: p.u64().map_err(bad)?,
                    },
                    4 => ApiKind::MemcpyD2H {
                        src: DevicePtr(p.u64().map_err(bad)?),
                        bytes: p.u64().map_err(bad)?,
                    },
                    5 => ApiKind::MemcpyD2D {
                        dst: DevicePtr(p.u64().map_err(bad)?),
                        src: DevicePtr(p.u64().map_err(bad)?),
                        bytes: p.u64().map_err(bad)?,
                    },
                    6 => ApiKind::Memset {
                        dst: DevicePtr(p.u64().map_err(bad)?),
                        value: p.u8().map_err(bad)?,
                        bytes: p.u64().map_err(bad)?,
                    },
                    7 => ApiKind::KernelLaunch {
                        launch: LaunchId(p.u64().map_err(bad)?),
                        name: p.str().map_err(bad)?,
                    },
                    _ => return Err(bad("unknown api kind tag")),
                };
                let kernel = if p.bool().map_err(bad)? {
                    Some(KernelSummary {
                        reads: p.intervals().map_err(bad)?,
                        writes: p.intervals().map_err(bad)?,
                        raw: p.u64().map_err(bad)?,
                    })
                } else {
                    None
                };
                let seg_count = p.u32().map_err(bad)? as usize;
                let mut segments = Vec::new();
                for _ in 0..seg_count {
                    let start = p.u64().map_err(bad)?;
                    let len = p.u64().map_err(bad)?;
                    let data = if self.version >= 2 {
                        read_capture_payload(&mut p, len).map_err(bad)?
                    } else {
                        if (p.remaining() as u64) < len {
                            return Err(bad("capture segment longer than payload"));
                        }
                        p.bytes(len as usize).map_err(bad)?.to_vec()
                    };
                    segments.push((start, data));
                }
                p.finished().map_err(bad)?;
                let captured = CapturedView::from_segments(segments);
                // The recorder captures every allocation whole
                // (`EventSource::on_api`), and the coarse pass shadows the
                // object from that capture.
                if let ApiKind::Malloc { info } = &api_kind {
                    if self.flags.coarse && !captured.covers(info.addr, info.size) {
                        return Err(bad("allocation not covered by its capture"));
                    }
                }
                TraceFrame::Event(Event::Api {
                    event: ApiEvent { seq, kind: api_kind, context, stream },
                    kernel,
                    captured: Arc::new(captured),
                })
            }
            FRAME_LAUNCH_BEGIN | FRAME_SKIPPED_LAUNCH => {
                let info = Arc::new(p.launch_info().map_err(bad)?);
                p.finished().map_err(bad)?;
                self.launches.insert(info.launch.0, info.clone());
                if kind == FRAME_LAUNCH_BEGIN {
                    TraceFrame::Event(Event::LaunchBegin { info })
                } else {
                    TraceFrame::Event(Event::SkippedLaunch { info })
                }
            }
            FRAME_BATCH => {
                self.batch_bytes += len as u64;
                let launch = p.u64().map_err(bad)?;
                let info = self
                    .launches
                    .get(&launch)
                    .cloned()
                    .ok_or(bad("batch references an undeclared launch"))?;
                let records = decode_fixed_batch_payload(&mut p).map_err(bad)?;
                TraceFrame::Event(Event::Batch { info, records: Arc::new(records) })
            }
            FRAME_BATCH_COLUMNAR => {
                if self.version < 2 {
                    return Err(bad("columnar batch frame in a v1 trace"));
                }
                self.batch_bytes += len as u64;
                let mut pos = 0usize;
                let launch = codec::read_uvarint(&payload, &mut pos).map_err(bad)?;
                let info = self
                    .launches
                    .get(&launch)
                    .cloned()
                    .ok_or(bad("batch references an undeclared launch"))?;
                let records =
                    codec::decode_columnar_batch_projected(&payload[pos..], self.columns)
                        .map(codec::DecodedBatch::into_records)
                        .map_err(bad)?;
                TraceFrame::Event(Event::Batch { info, records: Arc::new(records) })
            }
            FRAME_LAUNCH_END => {
                let launch = p.u64().map_err(bad)?;
                p.finished().map_err(bad)?;
                let info = self
                    .launches
                    .get(&launch)
                    .cloned()
                    .ok_or(bad("launch end references an undeclared launch"))?;
                TraceFrame::Event(Event::LaunchEnd { info })
            }
            FRAME_CONTEXTS => {
                let count = p.u32().map_err(bad)? as usize;
                let mut map = BTreeMap::new();
                for _ in 0..count {
                    let id = CallPathId(p.u32().map_err(bad)?);
                    map.insert(id, p.str().map_err(bad)?);
                }
                p.finished().map_err(bad)?;
                TraceFrame::Contexts(map)
            }
            FRAME_FINISH => {
                let stats = CollectorStats {
                    events: p.u64().map_err(bad)?,
                    events_checked: p.u64().map_err(bad)?,
                    flushes: p.u64().map_err(bad)?,
                    bytes_flushed: p.u64().map_err(bad)?,
                    instrumented_launches: p.u64().map_err(bad)?,
                    skipped_launches: p.u64().map_err(bad)?,
                };
                let app_us = p.f64().map_err(bad)?;
                p.finished().map_err(bad)?;
                self.finished = true;
                TraceFrame::Finish { stats, app_us }
            }
            _ => return Err(DecodeError::UnknownFrameKind { kind, offset: frame_offset }),
        };
        Ok(Some(frame))
    }

    /// Passes over the batch frame at `frame_offset`, whose `len`-byte
    /// payload follows in the input, without reading it into memory (see
    /// [`TraceReader::set_skip_records`]). An input that cannot seek has
    /// the payload read and walked in memory instead, with the same
    /// checks and errors.
    fn skip_batch(
        &mut self,
        kind: u8,
        frame_offset: u64,
        len: usize,
    ) -> Result<TraceFrame, DecodeError> {
        let payload = if self.can_seek_past(frame_offset, len)? {
            None
        } else {
            Some(self.read_payload(frame_offset, len)?)
        };
        self.offset = frame_offset + 5 + len as u64;
        let (launches, version) = (&self.launches, self.version);
        let (info, count) = match &payload {
            None => {
                let mut body =
                    SkipBody { input: &mut self.input, left: len, kind, offset: frame_offset };
                walk_batch(&mut body, kind, version, launches, &mut self.batch_bytes)?
            }
            Some(payload) => {
                let mut body = Payload::new(payload);
                walk_batch(&mut body, kind, version, launches, &mut self.batch_bytes).map_err(
                    |what| DecodeError::BadFrame { kind, offset: frame_offset, what },
                )?
            }
        };
        self.records_scanned += count;
        Ok(TraceFrame::Event(Event::Batch { info, records: Arc::new(Vec::new()) }))
    }

    /// Whether the frame at `frame_offset`, with a `len`-byte payload
    /// next in the input, can be passed by seeking: false once the input
    /// has failed to seek (a pipe or FIFO opened as a [`File`]).
    ///
    /// # Errors
    ///
    /// [`DecodeError::TruncatedFrame`] when the frame runs past the end
    /// of a seekable input.
    fn can_seek_past(&mut self, frame_offset: u64, len: usize) -> Result<bool, DecodeError> {
        if !self.seekable {
            return Ok(false);
        }
        match self.input.bytes_left() {
            Ok(left) if left < len as u64 => {
                Err(DecodeError::TruncatedFrame { offset: frame_offset })
            }
            Ok(_) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotSeekable => {
                self.seekable = false;
                Ok(false)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Reads the `len`-byte payload of the frame at `frame_offset`.
    /// Bounded: allocates only what actually arrives, so a huge (corrupt)
    /// length on a short file fails cleanly.
    fn read_payload(&mut self, frame_offset: u64, len: usize) -> Result<Vec<u8>, DecodeError> {
        let mut payload = Vec::new();
        let got = (&mut self.input)
            .take(len as u64)
            .read_to_end(&mut payload)
            .map_err(DecodeError::from)?;
        if got < len {
            return Err(DecodeError::TruncatedFrame { offset: frame_offset });
        }
        Ok(payload)
    }

    /// Streams every remaining frame on the calling thread: each event
    /// goes to `sink` as soon as it is decoded and is dropped after, so
    /// memory stays O(one batch) however long the trace; the tail frames
    /// are returned. Events and errors arrive in stream order.
    ///
    /// # Errors
    ///
    /// The first [`DecodeError`] of the stream — the error
    /// [`read_trace_with`] reports under the same projection. Events
    /// before the bad frame have already reached `sink`.
    pub fn dispatch(mut self, sink: &dyn EventSink) -> Result<TraceTail, DecodeError> {
        let mut tail = TraceTail::default();
        while let Some(frame) = self.next_frame()? {
            match frame {
                TraceFrame::Event(event) => sink.on_event(&event),
                TraceFrame::Contexts(map) => tail.contexts = map,
                TraceFrame::Finish { stats, app_us } => {
                    tail.stats = stats;
                    tail.app_us = app_us;
                }
            }
        }
        Ok(tail)
    }
}

/// The tail frames of a trace: what a consumer of its streamed events
/// still needs once the last event is dispatched.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceTail {
    /// Rendered call paths (id → string) of the recording session.
    pub contexts: BTreeMap<CallPathId, String>,
    /// Fine-pass traffic counters of the recording session.
    pub stats: CollectorStats,
    /// Application time of the recorded run, µs.
    pub app_us: f64,
}

/// The skip walk of one batch frame's `body`: the launch id, which must
/// be declared, then the record count and layout checks of its format,
/// with every column body skipped. Returns the launch and the count.
fn walk_batch<B: BatchBody>(
    body: &mut B,
    kind: u8,
    version: u32,
    launches: &HashMap<u64, Arc<LaunchInfo>>,
    batch_bytes: &mut u64,
) -> Result<(Arc<LaunchInfo>, u64), B::Error> {
    if kind == FRAME_BATCH_COLUMNAR && version < 2 {
        return Err(body.fault("columnar batch frame in a v1 trace"));
    }
    *batch_bytes += body.remaining() as u64;
    let launch = match kind {
        FRAME_BATCH => u64::from_le_bytes(body.array()?),
        _ => body.uvarint()?,
    };
    let info = launches
        .get(&launch)
        .cloned()
        .ok_or_else(|| body.fault("batch references an undeclared launch"))?;
    let count = match kind {
        FRAME_BATCH => {
            let count = fixed_batch_count(body)?;
            body.column(body.remaining())?;
            count as u64
        }
        _ => codec::walk_columnar_batch(body)?.0,
    };
    Ok((info, count))
}

/// The structure of a v1 fixed-record batch after its launch id: a u32
/// record count, then exactly that many 32-byte records. Returns the
/// count; the records are not looked at.
fn fixed_batch_count<B: BatchBody>(body: &mut B) -> Result<usize, B::Error> {
    let count = u32::from_le_bytes(body.array()?) as usize;
    if body.remaining() != count * AccessRecord::DEVICE_BYTES as usize {
        return Err(body.fault("record count does not match payload length"));
    }
    Ok(count)
}

/// Decodes the body of a fixed-record (v1) batch frame — everything
/// after the launch id: a u32 record count, then 32-byte records.
fn decode_fixed_batch_payload(p: &mut Payload<'_>) -> Result<Vec<AccessRecord>, &'static str> {
    let count = fixed_batch_count(p)?;
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        let chunk: &[u8; 32] = p.bytes(32)?.try_into().expect("bytes(32) yields 32");
        records.push(codec::decode_record(chunk).map_err(|_| "corrupt access record")?);
    }
    Ok(records)
}

/// Reads one v2 capture segment payload of uncompressed length `len`
/// (the inverse of [`put_capture_payload`]).
fn read_capture_payload(p: &mut Payload<'_>, len: u64) -> Result<Vec<u8>, &'static str> {
    match p.u8()? {
        0 => {
            if (p.remaining() as u64) < len {
                return Err("capture segment longer than payload");
            }
            Ok(p.bytes(len as usize)?.to_vec())
        }
        1 => {
            if len > MAX_RLE_CAPTURE_BYTES {
                return Err("capture segment implausibly large");
            }
            let len = len as usize;
            let words = len / 4;
            // Capacity is only a hint capped well below `len`: a corrupt
            // length cannot force a huge up-front allocation, and growth
            // stops as soon as a run check fails.
            let mut out: Vec<u8> = Vec::with_capacity(len.min(1 << 20));
            while out.len() < words * 4 {
                let word: [u8; 4] = p.bytes(4)?.try_into().expect("4 bytes");
                let run = p.uvarint()?;
                let remaining_words = (words - out.len() / 4) as u64;
                if run == 0 || run > remaining_words {
                    return Err("capture run length out of range");
                }
                // Expand by doubling copies of what is already written.
                let n = run as usize * 4;
                let start = out.len();
                out.extend_from_slice(&word);
                while out.len() - start < n {
                    let have = out.len() - start;
                    let take = have.min(n - have);
                    out.extend_from_within(start..start + take);
                }
            }
            out.extend_from_slice(p.bytes(len - words * 4)?);
            Ok(out)
        }
        _ => Err("unknown capture segment mode"),
    }
}

fn read_exact_at<R: Read>(
    input: &mut R,
    buf: &mut [u8],
    offset: u64,
) -> Result<(), DecodeError> {
    match input.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            Err(DecodeError::TruncatedFrame { offset })
        }
        Err(e) => Err(e.into()),
    }
}

/// Reads a `DeviceSpec` directly from the stream (used for the header,
/// which is not length-framed). Appends consumed bytes to `consumed` so
/// the caller can track the offset.
fn spec_bytes<R: Read>(
    input: &mut R,
    consumed: &mut Vec<u8>,
    n: usize,
) -> Result<Vec<u8>, &'static str> {
    let mut buf = vec![0u8; n];
    input.read_exact(&mut buf).map_err(|_| "header cut short")?;
    consumed.extend_from_slice(&buf);
    Ok(buf)
}

fn spec_u32<R: Read>(input: &mut R, consumed: &mut Vec<u8>) -> Result<u32, &'static str> {
    Ok(u32::from_le_bytes(
        spec_bytes(input, consumed, 4)?.as_slice().try_into().expect("4 bytes"),
    ))
}

fn spec_u64<R: Read>(input: &mut R, consumed: &mut Vec<u8>) -> Result<u64, &'static str> {
    Ok(u64::from_le_bytes(
        spec_bytes(input, consumed, 8)?.as_slice().try_into().expect("8 bytes"),
    ))
}

fn spec_f64<R: Read>(input: &mut R, consumed: &mut Vec<u8>) -> Result<f64, &'static str> {
    Ok(f64::from_bits(spec_u64(input, consumed)?))
}

fn read_spec<R: Read>(
    input: &mut R,
    consumed: &mut Vec<u8>,
) -> Result<DeviceSpec, &'static str> {
    let name_len = spec_u32(input, consumed)? as usize;
    if name_len > 1 << 16 {
        return Err("device name implausibly long");
    }
    let name = String::from_utf8(spec_bytes(input, consumed, name_len)?)
        .map_err(|_| "device name not utf-8")?;
    Ok(DeviceSpec {
        name,
        num_sms: spec_u32(input, consumed)?,
        mem_bandwidth_gbps: spec_f64(input, consumed)?,
        fp32_gflops: spec_f64(input, consumed)?,
        fp64_gflops: spec_f64(input, consumed)?,
        int_gops: spec_f64(input, consumed)?,
        pcie_gbps: spec_f64(input, consumed)?,
        launch_overhead_us: spec_f64(input, consumed)?,
        memop_overhead_us: spec_f64(input, consumed)?,
        memory_bytes: spec_u64(input, consumed)?,
        max_threads_per_block: spec_u32(input, consumed)?,
    })
}

/// A fully decoded trace: everything a replay needs to reproduce the
/// live report.
#[derive(Debug, Clone)]
pub struct RecordedTrace {
    /// Container format version of the file the trace was decoded from.
    pub version: u32,
    /// Device preset of the recording session.
    pub spec: DeviceSpec,
    /// Which passes were recorded.
    pub flags: TraceFlags,
    /// Encoded payload bytes of the record-batch frames (on-disk record
    /// footprint; `records × 32` gives the uncompressed equivalent).
    pub batch_bytes: u64,
    /// The event stream, in collection order.
    pub events: Vec<Event>,
    /// Rendered call paths (id → string) of the recording session.
    pub contexts: BTreeMap<CallPathId, String>,
    /// Fine-pass traffic counters of the recording session.
    pub stats: CollectorStats,
    /// Application time of the recorded run, µs.
    pub app_us: f64,
}

impl RecordedTrace {
    /// Feeds every event to `sink`, in stream order.
    pub fn dispatch(&self, sink: &dyn EventSink) {
        for event in &self.events {
            sink.on_event(event);
        }
    }
}

/// Decodes a complete trace from bytes.
///
/// # Errors
///
/// Any [`DecodeError`]; a trace without its `Finish` trailer is
/// [`DecodeError::TruncatedFrame`].
pub fn read_trace(bytes: &[u8]) -> Result<RecordedTrace, DecodeError> {
    read_trace_with(bytes, &DecodeOptions::default())
}

/// Reads and decodes a trace file.
///
/// # Errors
///
/// [`DecodeError::Io`] if the file cannot be read, otherwise as
/// [`read_trace`].
pub fn read_trace_file(path: &std::path::Path) -> Result<RecordedTrace, DecodeError> {
    let bytes = std::fs::read(path)?;
    read_trace(&bytes)
}

/// Options for [`read_trace_with`]: which record columns to
/// materialize. The default ([`ColumnSet::ALL`]) is exactly
/// [`read_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeOptions {
    /// Columns to materialize from each batch; undemanded columns come
    /// back zero-filled in the [`Event::Batch`] records. Projection
    /// preserves report byte-identity for any consumer that only reads
    /// the columns it declares (`ProfilerBuilder::required_columns`,
    /// `vex_gvprof::REPLAY_COLUMNS`).
    pub columns: ColumnSet,
}

impl Default for DecodeOptions {
    fn default() -> Self {
        DecodeOptions { columns: ColumnSet::ALL }
    }
}

/// Decodes a complete trace through one [`TraceReader`], projecting its
/// columnar batch frames onto `opts.columns`.
///
/// Every materialized `Batch` carries one record per encoded record,
/// whatever the projection: under [`ColumnSet::NONE`] the reader only
/// counts a columnar batch's records, and this fills the batch with that
/// many all-zero records.
///
/// # Errors
///
/// The first [`DecodeError`] of the stream, as [`TraceReader::next_frame`]
/// reports it under the same projection.
pub fn read_trace_with(
    bytes: &[u8],
    opts: &DecodeOptions,
) -> Result<RecordedTrace, DecodeError> {
    let mut reader = TraceReader::new(bytes)?;
    reader.set_columns(opts.columns);
    let mut events = Vec::new();
    let mut contexts = BTreeMap::new();
    let mut trailer = None;
    loop {
        let scanned = reader.records_scanned();
        let Some(frame) = reader.next_frame()? else { break };
        match frame {
            TraceFrame::Event(Event::Batch { info, .. })
                if reader.records_scanned() > scanned =>
            {
                let count = (reader.records_scanned() - scanned) as usize;
                let zeros = codec::DecodedBatch {
                    count,
                    columns: ColumnSet::NONE,
                    ..Default::default()
                };
                events.push(Event::Batch { info, records: Arc::new(zeros.into_records()) });
            }
            TraceFrame::Event(e) => events.push(e),
            TraceFrame::Contexts(map) => contexts = map,
            TraceFrame::Finish { stats, app_us } => trailer = Some((stats, app_us)),
        }
    }
    let (stats, app_us) = trailer.expect("reader yields None only after Finish");
    Ok(RecordedTrace {
        version: reader.version(),
        spec: reader.spec().clone(),
        flags: reader.flags(),
        batch_bytes: reader.batch_bytes(),
        events,
        contexts,
        stats,
        app_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vex_gpu::ir::InstrTableBuilder;

    fn sample_launch_info(id: u64) -> Arc<LaunchInfo> {
        let table = InstrTableBuilder::new()
            .load(Pc(0), ScalarType::F32, MemSpace::Global)
            .store(Pc(1), ScalarType::F32, MemSpace::Global)
            .build();
        Arc::new(LaunchInfo {
            launch: LaunchId(id),
            kernel_name: format!("kernel_{id}"),
            grid: Dim3 { x: 4, y: 2, z: 1 },
            block: Dim3 { x: 32, y: 1, z: 1 },
            shared_bytes: 256,
            context: CallPathId(3),
            stream: StreamId(0),
            instr_table: Arc::new(table),
        })
    }

    fn sample_record(i: u64) -> AccessRecord {
        AccessRecord {
            pc: Pc(i as u32 % 3),
            addr: 4096 + i * 4,
            bits: i.wrapping_mul(0x9e37_79b9),
            size: 4,
            is_store: i.is_multiple_of(2),
            space: MemSpace::Global,
            block: (i / 32) as u32,
            thread: (i % 32) as u32,
            is_atomic: false,
        }
    }

    fn sample_events() -> Vec<Event> {
        let info = sample_launch_info(0);
        let alloc = AllocationInfo {
            id: vex_gpu::alloc::AllocId(1),
            addr: 4096,
            size: 1024,
            label: "buf".into(),
            context: CallPathId(1),
            live: true,
        };
        let captured = CapturedView::from_segments(vec![(4096, vec![0xAB; 64])]);
        vec![
            Event::Api {
                event: ApiEvent {
                    seq: 0,
                    kind: ApiKind::Malloc { info: alloc.clone() },
                    context: CallPathId(1),
                    stream: StreamId(0),
                },
                kernel: None,
                captured: Arc::new(CapturedView::from_segments(vec![(4096, vec![0xCD; 1024])])),
            },
            Event::Api {
                event: ApiEvent {
                    seq: 1,
                    kind: ApiKind::Memset { dst: DevicePtr(4096), value: 0, bytes: 512 },
                    context: CallPathId(1),
                    stream: StreamId(0),
                },
                kernel: None,
                captured: Arc::new(CapturedView::from_segments(vec![(4096, vec![0u8; 512])])),
            },
            Event::LaunchBegin { info: info.clone() },
            Event::Batch {
                info: info.clone(),
                records: Arc::new((0..10).map(sample_record).collect()),
            },
            Event::LaunchEnd { info: info.clone() },
            Event::Api {
                event: ApiEvent {
                    seq: 2,
                    kind: ApiKind::KernelLaunch {
                        launch: LaunchId(0),
                        name: "kernel_0".into(),
                    },
                    context: CallPathId(2),
                    stream: StreamId(0),
                },
                kernel: Some(KernelSummary {
                    reads: vec![Interval::new(4096, 4100)],
                    writes: vec![Interval::new(4096, 4136)],
                    raw: 20,
                }),
                captured: Arc::new(captured),
            },
            Event::SkippedLaunch { info: sample_launch_info(1) },
            Event::Api {
                event: ApiEvent {
                    seq: 3,
                    kind: ApiKind::Free { info: AllocationInfo { live: false, ..alloc } },
                    context: CallPathId(1),
                    stream: StreamId(0),
                },
                kernel: None,
                captured: Arc::new(CapturedView::new()),
            },
        ]
    }

    fn write_sample(events: &[Event]) -> Vec<u8> {
        write_sample_v(events, FormatVersion::default())
    }

    fn write_sample_v(events: &[Event], version: FormatVersion) -> Vec<u8> {
        let spec = DeviceSpec::test_small();
        let flags = TraceFlags { coarse: true, fine: true };
        let writer = TraceWriter::with_version(Vec::new(), &spec, flags, version).unwrap();
        for e in events {
            writer.on_event(e);
        }
        let stats = CollectorStats {
            events: 10,
            events_checked: 10,
            flushes: 1,
            bytes_flushed: 320,
            instrumented_launches: 1,
            skipped_launches: 1,
        };
        writer.finish(&[(CallPathId(0), "<root>".into())], &stats, 123.5).unwrap()
    }

    /// A sink that accepts `left` bytes, then fails every write — or
    /// panics, to kill the encoder thread.
    #[derive(Debug)]
    struct FailAfter {
        left: usize,
        panic: bool,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.left == 0 {
                assert!(!self.panic, "sink panicked");
                return Err(std::io::Error::other("disk full"));
            }
            let n = buf.len().min(self.left);
            self.left -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn failing_writer(panic: bool) -> TraceWriter<FailAfter> {
        // Room for the header, not for the sample's 1 KiB malloc capture.
        let sink = FailAfter { left: 512, panic };
        let writer = TraceWriter::new(sink, &DeviceSpec::test_small(), TraceFlags::default())
            .expect("the header fits");
        for _ in 0..3 {
            for e in &sample_events() {
                writer.on_event(e);
            }
        }
        writer
    }

    #[test]
    fn encoder_write_error_is_reported_by_finish() {
        let err = failing_writer(false)
            .finish(&[], &CollectorStats::default(), 0.0)
            .expect_err("the sink failed mid-stream");
        assert_eq!(err, DecodeError::Io { message: "disk full".into() });
    }

    #[test]
    fn encoder_panic_is_reported_by_finish() {
        let err = failing_writer(true)
            .finish(&[], &CollectorStats::default(), 0.0)
            .expect_err("the encoder thread died");
        assert_eq!(err, DecodeError::Io { message: "trace encoder thread panicked".into() });
    }

    #[test]
    fn writer_dropped_without_finish_joins_its_encoder() {
        // Neither drop may hang or panic, whatever the encoder's state.
        drop(failing_writer(false));
        drop(failing_writer(true));
        let writer =
            TraceWriter::new(Vec::new(), &DeviceSpec::test_small(), TraceFlags::default())
                .unwrap();
        writer.on_event(&sample_events()[0]);
        drop(writer);
    }

    fn assert_event_eq(a: &Event, b: &Event) {
        match (a, b) {
            (
                Event::Api { event: ea, kernel: ka, captured: ca },
                Event::Api { event: eb, kernel: kb, captured: cb },
            ) => {
                assert_eq!(ea, eb);
                assert_eq!(ka, kb);
                assert_eq!(ca.segments(), cb.segments());
            }
            (Event::LaunchBegin { info: a }, Event::LaunchBegin { info: b })
            | (Event::LaunchEnd { info: a }, Event::LaunchEnd { info: b })
            | (Event::SkippedLaunch { info: a }, Event::SkippedLaunch { info: b }) => {
                assert_launch_eq(a, b);
            }
            (
                Event::Batch { info: ia, records: ra },
                Event::Batch { info: ib, records: rb },
            ) => {
                assert_launch_eq(ia, ib);
                assert_eq!(ra, rb);
            }
            _ => panic!("event kind mismatch: {a:?} vs {b:?}"),
        }
    }

    fn assert_launch_eq(a: &LaunchInfo, b: &LaunchInfo) {
        assert_eq!(a.launch, b.launch);
        assert_eq!(a.kernel_name, b.kernel_name);
        assert_eq!(a.grid, b.grid);
        assert_eq!(a.block, b.block);
        assert_eq!(a.shared_bytes, b.shared_bytes);
        assert_eq!(a.context, b.context);
        assert_eq!(a.stream, b.stream);
        assert_eq!(*a.instr_table, *b.instr_table);
    }

    #[test]
    fn event_stream_roundtrip_is_bit_exact() {
        let events = sample_events();
        for version in [FormatVersion::V1, FormatVersion::V2] {
            let bytes = write_sample_v(&events, version);
            let trace = read_trace(&bytes).unwrap();
            assert_eq!(trace.version, version.number());
            assert_eq!(trace.spec, DeviceSpec::test_small());
            assert_eq!(trace.flags, TraceFlags { coarse: true, fine: true });
            assert_eq!(trace.events.len(), events.len());
            for (a, b) in trace.events.iter().zip(&events) {
                assert_event_eq(a, b);
            }
            assert_eq!(trace.contexts[&CallPathId(0)], "<root>");
            assert_eq!(trace.stats.events, 10);
            assert_eq!(trace.app_us, 123.5);
            assert!(trace.batch_bytes > 0);
            // Batches share the LaunchBegin's Arc, like the live source.
            let (begin, batch) = (&trace.events[2], &trace.events[3]);
            if let (Event::LaunchBegin { info: a }, Event::Batch { info: b, .. }) =
                (begin, batch)
            {
                assert!(Arc::ptr_eq(a, b));
            } else {
                panic!("unexpected event order");
            }
        }
    }

    #[test]
    fn v2_batches_are_smaller_than_v1() {
        let info = sample_launch_info(0);
        let events = vec![
            Event::LaunchBegin { info: info.clone() },
            Event::Batch {
                info: info.clone(),
                records: Arc::new((0..1000).map(sample_record).collect()),
            },
            Event::LaunchEnd { info },
        ];
        let v1 = write_sample_v(&events, FormatVersion::V1);
        let v2 = write_sample_v(&events, FormatVersion::V2);
        assert!(
            v2.len() * 2 <= v1.len(),
            "v2 ({}) should be at most half of v1 ({})",
            v2.len(),
            v1.len()
        );
        let t1 = read_trace(&v1).unwrap();
        let t2 = read_trace(&v2).unwrap();
        assert!(t2.batch_bytes < t1.batch_bytes);
        assert_eq!(t1.batch_bytes, 8 + 4 + 1000 * 32); // launch id + count + records
    }

    #[test]
    fn v1_trace_reencodes_to_v2_losslessly() {
        let events = sample_events();
        let v1_bytes = write_sample_v(&events, FormatVersion::V1);
        let v1 = read_trace(&v1_bytes).unwrap();
        assert_eq!(v1.version, 1);
        // Re-encode the decoded v1 stream as v2 and compare event-by-event.
        let spec = DeviceSpec::test_small();
        let writer =
            TraceWriter::with_version(Vec::new(), &spec, v1.flags, FormatVersion::V2).unwrap();
        for e in &v1.events {
            writer.on_event(e);
        }
        let contexts: Vec<_> = v1.contexts.iter().map(|(id, s)| (*id, s.clone())).collect();
        let v2_bytes = writer.finish(&contexts, &v1.stats, v1.app_us).unwrap();
        let v2 = read_trace(&v2_bytes).unwrap();
        assert_eq!(v2.version, 2);
        assert_eq!(v1.events.len(), v2.events.len());
        for (a, b) in v1.events.iter().zip(&v2.events) {
            assert_event_eq(a, b);
        }
        assert_eq!(v1.contexts, v2.contexts);
        assert_eq!(v1.stats, v2.stats);
        assert_eq!(v1.app_us, v2.app_us);
    }

    #[test]
    fn skip_records_scan_counts_without_decoding() {
        let events = sample_events();
        let expected: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::Batch { records, .. } => Some(records.len() as u64),
                _ => None,
            })
            .sum();
        assert!(expected > 0, "sample events must contain batch records");
        for version in [FormatVersion::V1, FormatVersion::V2] {
            let bytes = write_sample_v(&events, version);
            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            reader.set_skip_records(true);
            let mut batches = 0u64;
            while let Some(frame) = reader.next_frame().unwrap() {
                if let TraceFrame::Event(Event::Batch { records, .. }) = frame {
                    batches += 1;
                    assert!(records.is_empty(), "scan mode must not materialize records");
                }
            }
            assert!(batches > 0);
            assert_eq!(reader.records_scanned(), expected);
        }
    }

    #[test]
    fn columnar_frame_in_v1_file_is_rejected() {
        // A v2 file whose header claims v1: the columnar frame must be
        // refused rather than silently accepted. Api events are dropped
        // so their (also version-dependent) capture payloads don't trip
        // the reader before it reaches the columnar frame.
        let events: Vec<Event> =
            sample_events().into_iter().filter(|e| !matches!(e, Event::Api { .. })).collect();
        let mut bytes = write_sample(&events);
        assert_eq!(bytes[8..12], TRACE_VERSION.to_le_bytes());
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let err = read_trace(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                DecodeError::BadFrame { what: "columnar batch frame in a v1 trace", .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn coarse_malloc_capture_must_cover_the_allocation() {
        let mut events = sample_events();
        let Event::Api { captured, .. } = &mut events[0] else { panic!("malloc comes first") };
        *captured = Arc::new(CapturedView::from_segments(vec![(4096, vec![0; 1023])]));
        let err = read_trace(&write_sample(&events)).unwrap_err();
        assert_eq!(
            err,
            DecodeError::BadFrame {
                kind: FRAME_API,
                offset: 99,
                what: "allocation not covered by its capture"
            }
        );
        // A trace without the coarse pass captures nothing, and is not
        // checked.
        let flags = TraceFlags { coarse: false, fine: true };
        let writer = TraceWriter::new(Vec::new(), &DeviceSpec::test_small(), flags).unwrap();
        writer.on_event(&events[0]);
        let bytes = writer.finish(&[], &CollectorStats::default(), 1.0).unwrap();
        assert_eq!(read_trace(&bytes).unwrap().events.len(), 1);
    }

    #[test]
    fn v2_capture_segments_compress_and_roundtrip() {
        // One big uniform segment (word-RLE), one incompressible segment
        // (raw fallback), and one odd-length segment exercising the
        // non-word tail.
        let noisy: Vec<u8> =
            (0..257u32).flat_map(|i| i.wrapping_mul(2_654_435_761).to_le_bytes()).collect();
        let captured = CapturedView::from_segments(vec![
            (4096, vec![0x42u8; 1 << 16]),
            (1 << 20, noisy),
            (1 << 21, vec![7u8; 7]),
        ]);
        let events = vec![Event::Api {
            event: ApiEvent {
                seq: 0,
                kind: ApiKind::Memset { dst: DevicePtr(4096), value: 0x42, bytes: 1 << 16 },
                context: CallPathId(1),
                stream: StreamId(0),
            },
            kernel: None,
            captured: Arc::new(captured),
        }];
        let v1 = write_sample_v(&events, FormatVersion::V1);
        let v2 = write_sample_v(&events, FormatVersion::V2);
        // The uniform 64 KiB segment dominates v1 and collapses in v2.
        assert!(v2.len() * 10 <= v1.len(), "v2 {} bytes vs v1 {} bytes", v2.len(), v1.len());
        let (t1, t2) = (read_trace(&v1).unwrap(), read_trace(&v2).unwrap());
        for trace in [&t1, &t2] {
            let Event::Api { captured, .. } = &trace.events[0] else {
                panic!("expected an api event");
            };
            let Event::Api { captured: original, .. } = &events[0] else { unreachable!() };
            assert_eq!(captured.segments(), original.segments());
        }
    }

    #[test]
    fn bad_magic_and_versions_are_rejected() {
        let bytes = write_sample(&sample_events());
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(read_trace(&wrong), Err(DecodeError::BadMagic)));
        let mut future = bytes.clone();
        future[8] = 99;
        assert!(matches!(
            read_trace(&future),
            Err(DecodeError::UnsupportedVersion { found: 99, supported: TRACE_VERSION })
        ));
        let mut ancient = bytes.clone();
        ancient[8] = 0;
        assert!(matches!(
            read_trace(&ancient),
            Err(DecodeError::UnsupportedVersion { found: 0, supported: TRACE_VERSION })
        ));
    }

    #[test]
    fn every_truncation_point_errors_never_panics() {
        for version in [FormatVersion::V1, FormatVersion::V2] {
            let bytes = write_sample_v(&sample_events(), version);
            for cut in 0..bytes.len() {
                let result = read_trace(&bytes[..cut]);
                assert!(
                    result.is_err(),
                    "prefix of {cut} bytes decoded successfully (v{})",
                    version.number()
                );
            }
            assert!(read_trace(&bytes).is_ok());
        }
    }

    #[test]
    fn salvage_recovers_the_longest_valid_prefix_at_every_cut() {
        use crate::salvage::{repair_trace, salvage_trace};
        for version in [FormatVersion::V1, FormatVersion::V2] {
            let events = sample_events();
            let bytes = write_sample_v(&events, version);
            // Frame extents of the intact trace: each entry is (end
            // offset, cumulative event count up to that frame).
            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            let header = reader.offset() as usize;
            let mut extents = Vec::new();
            let mut n_events = 0usize;
            while let Some(frame) = reader.next_frame().unwrap() {
                if matches!(frame, TraceFrame::Event(_)) {
                    n_events += 1;
                }
                extents.push((reader.offset() as usize, n_events));
            }
            for cut in 0..=bytes.len() {
                if cut < header {
                    assert!(
                        salvage_trace(&bytes[..cut]).is_err(),
                        "cut {cut} inside the header salvaged (v{})",
                        version.number()
                    );
                    continue;
                }
                let s = salvage_trace(&bytes[..cut])
                    .unwrap_or_else(|e| panic!("cut {cut} unsalvageable: {e}"));
                let expect =
                    extents.iter().rev().find(|(end, _)| *end <= cut).map_or(0, |(_, n)| *n);
                assert_eq!(s.events.len(), expect, "cut {cut} (v{})", version.number());
                for (got, want) in s.events.iter().zip(events.iter()) {
                    assert_event_eq(got, want);
                }
                // The repaired container re-reads as a valid trace
                // carrying exactly the recovered prefix.
                let (repaired, report) = repair_trace(&bytes[..cut]).unwrap();
                assert_eq!(
                    report.bytes_recovered + report.bytes_discarded,
                    cut as u64,
                    "cut {cut}"
                );
                let reread = read_trace(&repaired)
                    .unwrap_or_else(|e| panic!("cut {cut} repaired trace invalid: {e}"));
                assert_eq!(reread.version, version.number());
                assert_eq!(reread.events.len(), expect, "cut {cut}");
                for (got, want) in reread.events.iter().zip(events.iter()) {
                    assert_event_eq(got, want);
                }
            }
        }
    }

    #[test]
    fn unknown_frame_kind_is_rejected_with_offset() {
        let spec = DeviceSpec::test_small();
        let writer = TraceWriter::new(Vec::new(), &spec, TraceFlags::default()).unwrap();
        let mut bytes = writer.finish(&[], &CollectorStats::default(), 0.0).unwrap();
        // Append a frame with kind 200 after the trailer would be "data
        // after Finish"; instead splice it before by rebuilding.
        let trailer_start = bytes.len();
        bytes.extend_from_slice(&[200, 0, 0, 0, 0]);
        let err = read_trace(&bytes).unwrap_err();
        assert!(
            matches!(err, DecodeError::BadFrame { kind: 200, .. })
                || matches!(err, DecodeError::UnknownFrameKind { kind: 200, .. }),
            "unexpected error {err:?} (trailer at {trailer_start})"
        );
    }

    #[test]
    fn batch_for_undeclared_launch_is_rejected() {
        let spec = DeviceSpec::test_small();
        let writer =
            TraceWriter::new(Vec::new(), &spec, TraceFlags { coarse: false, fine: true })
                .unwrap();
        let info = sample_launch_info(7);
        // Batch without a preceding LaunchBegin.
        writer.on_event(&Event::Batch { info, records: Arc::new(vec![sample_record(0)]) });
        let bytes = writer.finish(&[], &CollectorStats::default(), 0.0).unwrap();
        let err = read_trace(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                DecodeError::BadFrame { what: "batch references an undeclared launch", .. }
            ),
            "{err:?}"
        );
    }

    proptest! {
        #[test]
        fn prop_record_batches_roundtrip(
            records in prop::collection::vec(
                (any::<u32>(), any::<u64>(), any::<u64>(), 1u8..=8, any::<bool>(),
                 any::<bool>(), any::<u32>(), any::<u32>(), any::<bool>()),
                0..100,
            ),
            v2 in any::<bool>(),
        ) {
            let records: Vec<AccessRecord> = records
                .into_iter()
                .map(|(pc, addr, bits, size, store, shared, block, thread, atomic)| AccessRecord {
                    pc: Pc(pc),
                    addr,
                    bits,
                    size,
                    is_store: store,
                    space: if shared { MemSpace::Shared } else { MemSpace::Global },
                    block,
                    thread,
                    is_atomic: atomic,
                })
                .collect();
            let info = sample_launch_info(0);
            let events = vec![
                Event::LaunchBegin { info: info.clone() },
                Event::Batch { info: info.clone(), records: Arc::new(records.clone()) },
                Event::LaunchEnd { info },
            ];
            let version = if v2 { FormatVersion::V2 } else { FormatVersion::V1 };
            let bytes = write_sample_v(&events, version);
            let trace = read_trace(&bytes).unwrap();
            let Event::Batch { records: decoded, .. } = &trace.events[1] else {
                panic!("expected batch");
            };
            prop_assert_eq!(decoded.as_ref(), &records);
        }

        #[test]
        fn prop_corrupt_bytes_never_panic(
            index in 0usize..4096,
            value in any::<u8>(),
            cut in 0usize..8192,
            v2 in any::<bool>(),
        ) {
            let version = if v2 { FormatVersion::V2 } else { FormatVersion::V1 };
            let mut bytes = write_sample_v(&sample_events(), version);
            let index = index % bytes.len();
            bytes[index] = value;
            // Upper half of the range means "no cut".
            if cut < 4096 {
                bytes.truncate(cut % (bytes.len() + 1));
            }
            // Success or a clean error, never a panic.
            let _ = read_trace(&bytes);
        }
    }
}
