//! `sctf` — the binary columnar trace container (format version 1),
//! the one encoding a trace has outside memory ([`TraceLog::save`] and
//! [`TraceLog::load`] speak nothing else).
//!
//! At fft-64 scale a trace is hundreds of thousands of records, so the
//! container is shaped for the load path: one fixed little-endian
//! header, then one section per record **field** (columnar), so loading
//! is a bounded number of bounds checks followed by one decode pass
//! over the columns ([`SctfReader::to_log`]).
//!
//! Layout (all integers little-endian; see DESIGN.md §14 for the
//! on-disk diagram and the compatibility policy):
//!
//! ```text
//! header   (240 B) magic, version, net tag, flags, record count,
//!                  capture exec time, checksum, section table
//! sections (each 8-aligned, zero-padded between)
//!   src        u32 × n          dst        u32 × n
//!   bytes      u32 × n          class      bitmap (bit i = Data)
//!   t_inject   zigzag-varint deltas (record order)
//!   t_deliver  zigzag-varint deltas from the same record's t_inject
//!   deps_off   u32 × (n+1)      deps       zigzag varints of i − dep
//!                                          (byte offsets, record order)
//! ```
//!
//! Dependencies are stored once: `deps_off`/`deps` hold each record's
//! dependency list verbatim (exact round-trip, original order) as
//! relative varints — dependencies point backward to recent ids, so
//! barrier-heavy traces where edges outnumber records pay ~2 bytes per
//! edge instead of 4.
//!
//! Four section-table entries are unused and written as (0, 0): `kind`
//! and `prev` (4 and 5) and the last two (10 and 11). Older containers
//! may fill them. One that stores a protocol kind per record (`u8 × n`)
//! stores a decision-order `prev` (`u32 × n`) beside it, and one that
//! sets header flag bit 0 stores a children CSR in the last two. The
//! reader bounds-checks those sections like any other and never reads
//! them.
//!
//! The checksum is a word-strided FNV variant over the whole container
//! with the checksum field itself read as zero: little-endian u64
//! words fan out round-robin across four lanes, each lane a chain of
//! bijective `(h ^ word) * prime` steps, folded with the total length
//! at the end. Every step is a bijection of lane state, so any flipped
//! byte — header, section table, or payload — provably changes the
//! digest and surfaces as a typed [`TraceError::BadChecksum`], never a
//! silent misparse. The word stride keeps the verify walk off the
//! cold-load critical path (~8 bytes/cycle vs the byte-serial
//! classic), which keeps `SctfReader::open` cheap.

use crate::log::{Columns, TraceLog, TraceRecord};
use crate::persist::TraceError;
use sctm_engine::net::{Message, MsgClass, MsgId, NodeId};
use sctm_engine::time::SimTime;
use std::path::Path;

/// First eight bytes of every container. `\x89` keeps it out of ASCII,
/// `\r\n` catches line-ending translation, the trailing NUL catches
/// C-string truncation (the PNG trick).
pub const SCTF_MAGIC: [u8; 8] = *b"\x89SCTF\r\n\x00";

/// The one format version this build reads and writes.
pub const SCTF_VERSION: u32 = 1;

const SECTION_COUNT: usize = 12;
const HEADER_LEN: usize = 48 + SECTION_COUNT * 16;

// Section table indices.
const SEC_SRC: usize = 0;
const SEC_DST: usize = 1;
const SEC_BYTES: usize = 2;
const SEC_CLASS: usize = 3;
const SEC_KIND: usize = 4;
const SEC_PREV: usize = 5;
const SEC_TINJ: usize = 6;
const SEC_TDEL: usize = 7;
const SEC_DEPS_OFF: usize = 8;
const SEC_DEPS: usize = 9;

const SECTION_NAMES: [&str; SECTION_COUNT] = [
    "src",
    "dst",
    "bytes",
    "class",
    "kind",
    "prev",
    "t_inject",
    "t_deliver",
    "deps_off",
    "deps",
    "csr_off",
    "csr_adj",
];

/// Header flag bit 0: the last two sections hold a children CSR. Only
/// containers written before the CSR was dropped set it; no section
/// this bit names is read.
const FLAG_CSR: u8 = 1;

/// Network labels by tag byte; must stay append-only across versions.
const NET_LABELS: [&str; 6] = ["analytic", "emesh", "omesh", "oxbar", "hybrid", "unknown"];

fn net_tag(label: &str) -> u8 {
    NET_LABELS
        .iter()
        .position(|&l| l == label)
        .unwrap_or(NET_LABELS.len() - 1) as u8
}

fn net_label(tag: u8) -> &'static str {
    NET_LABELS.get(tag as usize).copied().unwrap_or("unknown")
}

// ---------------------------------------------------------------------
// varint / zigzag / checksum
// ---------------------------------------------------------------------

/// Zigzag of the wrapping difference: a bijection on `u64` pairs, so
/// *any* timestamp sequence round-trips exactly — monotone sequences
/// (the canonical case) encode in one or two bytes per record.
#[inline]
fn zz_delta(prev: u64, cur: u64) -> u64 {
    let d = cur.wrapping_sub(prev) as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

#[inline]
fn zz_apply(prev: u64, zz: u64) -> u64 {
    let d = ((zz >> 1) as i64) ^ -((zz & 1) as i64);
    prev.wrapping_add(d as u64)
}

/// Inverse of [`zz_delta`] solved for `prev`: recover the value the
/// delta was taken *from* (used by the deps stream, which encodes each
/// edge relative to its own record id).
#[inline]
fn zz_unapply(cur: u64, zz: u64) -> u64 {
    let d = ((zz >> 1) as i64) ^ -((zz & 1) as i64);
    cur.wrapping_sub(d as u64)
}

#[inline]
fn varint_push(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

#[inline]
fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// Decode one varint; `None` on truncation or a >10-byte run.
#[inline]
fn varint_read(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    for shift in 0..10 {
        let b = *buf.get(*pos)?;
        *pos += 1;
        v |= u64::from(b & 0x7f) << (7 * shift);
        if b & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Feed `seg` into the four checksum lanes as little-endian u64 words,
/// round-robin from word index `*k`; a trailing partial word is
/// zero-padded (unambiguous because the total length folds into the
/// final digest).
fn eat_words(lanes: &mut [u64; 4], k: &mut usize, seg: &[u8]) {
    let mut it = seg.chunks_exact(8);
    for w in &mut it {
        let w = u64::from_le_bytes(w.try_into().unwrap());
        lanes[*k & 3] = (lanes[*k & 3] ^ w).wrapping_mul(FNV_PRIME);
        *k += 1;
    }
    let rem = it.remainder();
    if !rem.is_empty() {
        let mut t = [0u8; 8];
        t[..rem.len()].copy_from_slice(rem);
        lanes[*k & 3] = (lanes[*k & 3] ^ u64::from_le_bytes(t)).wrapping_mul(FNV_PRIME);
        *k += 1;
    }
}

/// Container checksum: word-strided four-lane FNV over everything with
/// the checksum field (bytes 32..40) read as zero. Each lane step and
/// the final fold are bijections, so a change to any single word —
/// hence any single byte or bit — always changes the digest; the four
/// independent lanes keep the multiply latency off the critical path
/// of every open/decode.
fn container_checksum(buf: &[u8]) -> u64 {
    let mut lanes = [
        FNV_SEED,
        FNV_SEED ^ 0x9e37_79b9_7f4a_7c15,
        FNV_SEED ^ 0xc2b2_ae3d_27d4_eb4f,
        FNV_SEED ^ 0x1656_67b1_9e37_79f9,
    ];
    let mut k = 0usize;
    // Both splits sit on 8-byte boundaries, so no word ever straddles
    // the zeroed checksum field.
    eat_words(&mut lanes, &mut k, &buf[..32]);
    lanes[k & 3] = lanes[k & 3].wrapping_mul(FNV_PRIME); // (h ^ 0) * p
    k += 1;
    eat_words(&mut lanes, &mut k, &buf[40..]);
    let mut h = lanes[0];
    for l in &lanes[1..] {
        h = (h.rotate_left(17) ^ l).wrapping_mul(FNV_PRIME);
    }
    (h ^ buf.len() as u64).wrapping_mul(FNV_PRIME)
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn pad8(out: &mut Vec<u8>) {
    while !out.len().is_multiple_of(8) {
        out.push(0);
    }
}

/// Append one 8-aligned little-endian `u32` section; returns its
/// `(offset, length)` table entry.
fn push_u32_column(out: &mut Vec<u8>, values: impl Iterator<Item = u32>) -> (u64, u64) {
    pad8(out);
    let off = out.len();
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    (off as u64, (out.len() - off) as u64)
}

/// Serialise a trace into an `sctf` v1 container.
pub fn to_sctf_bytes(log: &TraceLog) -> Vec<u8> {
    let n = log.records.len();
    assert!(n < u32::MAX as usize, "trace too large for sctf (u32 ids)");
    let mut out = Vec::with_capacity(encoded_size(log));
    out.extend_from_slice(&[0u8; HEADER_LEN]);

    let mut sections = [(0u64, 0u64); SECTION_COUNT];
    let begin = |out: &mut Vec<u8>| {
        pad8(out);
        out.len() as u64
    };

    // Fixed-width u32 columns.
    let rows = log.records.iter();
    sections[SEC_SRC] = push_u32_column(&mut out, rows.clone().map(|r| r.msg.src.0));
    sections[SEC_DST] = push_u32_column(&mut out, rows.clone().map(|r| r.msg.dst.0));
    sections[SEC_BYTES] = push_u32_column(&mut out, rows.map(|r| r.msg.bytes));

    // Class bitmap (bit i set = Data).
    {
        let off = begin(&mut out);
        let mut byte = 0u8;
        for (i, r) in log.records.iter().enumerate() {
            if r.msg.class == MsgClass::Data {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                out.push(byte);
                byte = 0;
            }
        }
        if !n.is_multiple_of(8) {
            out.push(byte);
        }
        sections[SEC_CLASS] = (off, out.len() as u64 - off);
    }

    // Timestamps: t_inject as deltas in record order, t_deliver as a
    // delta from its own record's t_inject.
    {
        let off = begin(&mut out);
        let mut prev = 0u64;
        for r in log.records.iter() {
            varint_push(&mut out, zz_delta(prev, r.t_inject.as_ps()));
            prev = r.t_inject.as_ps();
        }
        sections[SEC_TINJ] = (off, out.len() as u64 - off);
        let off = begin(&mut out);
        for r in log.records.iter() {
            varint_push(&mut out, zz_delta(r.t_inject.as_ps(), r.t_deliver.as_ps()));
        }
        sections[SEC_TDEL] = (off, out.len() as u64 - off);
    }

    // Dependencies, record order (exact round-trip), as zigzag varints
    // of `i − dep` — dependencies point backward to recent ids, so most
    // edges cost one byte where barrier fan-in makes edges outnumber
    // records. The offsets are byte positions into the stream, one per
    // record plus the terminator.
    {
        let off = begin(&mut out);
        let mut acc = 0u32;
        out.extend_from_slice(&acc.to_le_bytes());
        for i in 0..n {
            for &d in log.deps(i) {
                acc += varint_len(zz_delta(d as u64, i as u64)) as u32;
            }
            out.extend_from_slice(&acc.to_le_bytes());
        }
        sections[SEC_DEPS_OFF] = (off, out.len() as u64 - off);
        let off = begin(&mut out);
        for i in 0..n {
            for &d in log.deps(i) {
                varint_push(&mut out, zz_delta(d as u64, i as u64));
            }
        }
        sections[SEC_DEPS] = (off, out.len() as u64 - off);
    }

    pad8(&mut out);

    // Header.
    out[0..8].copy_from_slice(&SCTF_MAGIC);
    out[8..12].copy_from_slice(&SCTF_VERSION.to_le_bytes());
    out[12] = net_tag(log.capture_net);
    out[16..24].copy_from_slice(&(n as u64).to_le_bytes());
    out[24..32].copy_from_slice(&log.capture_exec_time.as_ps().to_le_bytes());
    out[40..44].copy_from_slice(&(SECTION_COUNT as u32).to_le_bytes());
    for (i, (off, len)) in sections.iter().enumerate() {
        let at = 48 + i * 16;
        out[at..at + 8].copy_from_slice(&off.to_le_bytes());
        out[at + 8..at + 16].copy_from_slice(&len.to_le_bytes());
    }
    let sum = container_checksum(&out);
    out[32..40].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Exact byte size [`to_sctf_bytes`] would produce, without building
/// the buffer; the writer pre-sizes its output with it.
pub fn encoded_size(log: &TraceLog) -> usize {
    let n = log.records.len();
    let pad = |x: usize| x.div_ceil(8) * 8;
    let mut deps = 0usize;
    let mut tinj = 0usize;
    let mut tdel = 0usize;
    let mut prev = 0u64;
    for (i, r) in log.records.iter().enumerate() {
        for &d in log.deps(i) {
            deps += varint_len(zz_delta(d as u64, i as u64));
        }
        tinj += varint_len(zz_delta(prev, r.t_inject.as_ps()));
        prev = r.t_inject.as_ps();
        tdel += varint_len(zz_delta(r.t_inject.as_ps(), r.t_deliver.as_ps()));
    }
    HEADER_LEN
        + 3 * pad(4 * n)            // src, dst, bytes
        + pad(n.div_ceil(8))        // class bitmap
        + pad(tinj)
        + pad(tdel)
        + pad(4 * (n + 1))          // deps_off
        + pad(deps) // deps varint stream
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// One `sctf` container, validated: in a buffer of its own (`B`, a
/// `Vec<u8>`, from [`SctfReader::open`]) or in the caller's bytes
/// (`&[u8]`, from [`SctfReader::from_bytes`]), read in place.
///
/// Opening checks structure (magic, version, checksum, section bounds
/// and alignment, fixed-width lengths, monotone dependency offsets);
/// [`SctfReader::to_log`] then decodes every column in one pass that
/// also checks the trace's invariants.
pub struct SctfReader<B = Vec<u8>> {
    buf: B,
    n: usize,
    net: &'static str,
    exec: SimTime,
    sections: [(usize, usize); SECTION_COUNT],
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

impl<'a> SctfReader<&'a [u8]> {
    /// Validate and index a container held in memory, read in place:
    /// the reader borrows `bytes` and copies none of them.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<SctfReader<&'a [u8]>, TraceError> {
        Self::from_buf(bytes)
    }
}

impl SctfReader {
    /// Open a container file, read once into memory.
    pub fn open(path: impl AsRef<Path>) -> Result<SctfReader, TraceError> {
        Self::from_buf(std::fs::read(path).map_err(|e| TraceError::Io(e.to_string()))?)
    }
}

impl<B: AsRef<[u8]>> SctfReader<B> {
    fn from_buf(buf: B) -> Result<SctfReader<B>, TraceError> {
        let b = buf.as_ref();
        let short = |section: &'static str, need: u64| TraceError::TruncatedSection {
            section,
            need,
            have: b.len() as u64,
        };
        if !b.starts_with(&SCTF_MAGIC) {
            return Err(TraceError::BadMagic);
        }
        if b.len() < HEADER_LEN {
            return Err(short("header", HEADER_LEN as u64));
        }
        let version = read_u32(b, 8);
        if version != SCTF_VERSION {
            return Err(TraceError::VersionSkew { found: version });
        }
        let sec_count = read_u32(b, 40);
        if sec_count as usize != SECTION_COUNT {
            return Err(TraceError::VersionSkew { found: version });
        }
        let stored = read_u64(b, 32);
        let computed = container_checksum(b);
        if stored != computed {
            return Err(TraceError::BadChecksum { stored, computed });
        }
        let n64 = read_u64(b, 16);
        if n64 >= u32::MAX as u64 {
            return Err(TraceError::Invalid(format!(
                "sctf: record count {n64} exceeds the u32 id space"
            )));
        }
        let n = n64 as usize;
        let mut sections = [(0usize, 0usize); SECTION_COUNT];
        for (i, s) in sections.iter_mut().enumerate() {
            let at = 48 + i * 16;
            let off = read_u64(b, at);
            let len = read_u64(b, at + 8);
            let name = SECTION_NAMES[i];
            let end = off.checked_add(len).ok_or_else(|| short(name, u64::MAX))?;
            if end > b.len() as u64 {
                return Err(short(name, end));
            }
            if off < HEADER_LEN as u64 && len > 0 {
                return Err(TraceError::Invalid(format!(
                    "sctf: section {name} overlaps the header"
                )));
            }
            if !off.is_multiple_of(8) {
                return Err(TraceError::Misaligned {
                    section: name,
                    offset: off,
                });
            }
            *s = (off as usize, len as usize);
        }
        let flags = b[13];
        // Unknown flag bits and nonzero reserved bytes mean a future
        // writer; refuse rather than misparse (DESIGN.md §14.2). Checked
        // after the checksum so corruption still reports BadChecksum.
        if flags & !FLAG_CSR != 0 {
            return Err(TraceError::Invalid(format!(
                "sctf: unknown flag bits {:#04x}",
                flags & !FLAG_CSR
            )));
        }
        if b[14] != 0 || b[15] != 0 || read_u32(b, 44) != 0 {
            return Err(TraceError::Invalid(
                "sctf: reserved header bytes are nonzero".into(),
            ));
        }
        // Fixed-width sections must match the record count exactly.
        let expect: [(usize, u64); 5] = [
            (SEC_SRC, 4 * n64),
            (SEC_DST, 4 * n64),
            (SEC_BYTES, 4 * n64),
            (SEC_CLASS, n64.div_ceil(8)),
            (SEC_DEPS_OFF, 4 * (n64 + 1)),
        ];
        for (sec, want) in expect {
            if sections[sec].1 as u64 != want {
                return Err(TraceError::TruncatedSection {
                    section: SECTION_NAMES[sec],
                    need: want,
                    have: sections[sec].1 as u64,
                });
            }
        }
        // The unused `kind` and `prev` entries: empty, or both at the
        // lengths an older writer gave them.
        let unused = (sections[SEC_KIND].1 as u64, sections[SEC_PREV].1 as u64);
        if unused != (0, 0) && unused != (n64, 4 * n64) {
            return Err(TraceError::Invalid(format!(
                "sctf: sections kind and prev hold {} and {} bytes, not 0 and 0 or {n64} and {}",
                unused.0,
                unused.1,
                4 * n64
            )));
        }
        let r = SctfReader {
            n,
            net: net_label(b[12]),
            exec: SimTime::from_ps(read_u64(b, 24)),
            sections,
            buf,
        };
        r.check_deps_off()?;
        Ok(r)
    }

    /// The dependency offsets start at 0, never fall, and end at the
    /// stream's length, so every record's row lies inside the stream.
    fn check_deps_off(&self) -> Result<(), TraceError> {
        let off = self.section(SEC_DEPS_OFF);
        let extent = self.sections[SEC_DEPS].1 as u64;
        let mut prev = 0u32;
        for i in 0..=self.n {
            let o = read_u32(off, 4 * i);
            if o < prev {
                return Err(TraceError::Invalid(
                    "sctf: section deps_off offsets not monotone".into(),
                ));
            }
            prev = o;
        }
        if read_u32(off, 0) != 0 || prev as u64 != extent {
            return Err(TraceError::TruncatedSection {
                section: SECTION_NAMES[SEC_DEPS],
                need: prev as u64,
                have: extent,
            });
        }
        Ok(())
    }

    fn section(&self, sec: usize) -> &[u8] {
        let (off, len) = self.sections[sec];
        &self.buf.as_ref()[off..off + len]
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    pub fn capture_net(&self) -> &'static str {
        self.net
    }

    pub fn capture_exec_time(&self) -> SimTime {
        self.exec
    }

    /// Container size in bytes.
    pub fn byte_len(&self) -> usize {
        self.buf.as_ref().len()
    }

    /// Decode both timestamp streams. Exactly `n` values each, or the
    /// matching [`TraceError::TruncatedSection`].
    fn decode_times(&self) -> Result<(Vec<SimTime>, Vec<SimTime>), TraceError> {
        let mut tinj = Vec::with_capacity(self.n);
        let mut tdel = Vec::with_capacity(self.n);
        let stream = self.section(SEC_TINJ);
        let mut pos = 0usize;
        let mut prev = 0u64;
        for _ in 0..self.n {
            let zz = varint_read(stream, &mut pos).ok_or(TraceError::TruncatedSection {
                section: SECTION_NAMES[SEC_TINJ],
                need: pos as u64 + 1,
                have: stream.len() as u64,
            })?;
            prev = zz_apply(prev, zz);
            tinj.push(SimTime::from_ps(prev));
        }
        let stream = self.section(SEC_TDEL);
        let mut pos = 0usize;
        for &ti in tinj.iter() {
            let zz = varint_read(stream, &mut pos).ok_or(TraceError::TruncatedSection {
                section: SECTION_NAMES[SEC_TDEL],
                need: pos as u64 + 1,
                have: stream.len() as u64,
            })?;
            tdel.push(SimTime::from_ps(zz_apply(ti.as_ps(), zz)));
        }
        Ok((tinj, tdel))
    }

    /// Materialize a full [`TraceLog`] (rows, dependency arena, flat
    /// columns) for the engines that consume one. The result passes
    /// [`TraceLog::validate`] or the load fails typed.
    pub fn to_log(&self) -> Result<TraceLog, TraceError> {
        let n = self.n;
        let (tinj, tdel) = self.decode_times()?;
        let doff = self.section(SEC_DEPS_OFF);
        let deps = self.section(SEC_DEPS);
        let src = self.section(SEC_SRC);
        let dst = self.section(SEC_DST);
        let bytes = self.section(SEC_BYTES);
        let class = self.section(SEC_CLASS);
        let u32_at = |col: &[u8], i: usize| read_u32(col, 4 * i);
        let bad_id = |field: &'static str, i: usize| {
            TraceError::Invalid(format!("sctf: record {i} has out-of-range {field}"))
        };
        let bad = |i: usize, what: String| TraceError::Invalid(format!("sctf: record {i} {what}"));
        // Every edge takes at least one stream byte.
        let mut cols = Columns::with_capacity(n, deps.len());
        for i in 0..n {
            // Semantic invariants check inline against the columns —
            // the same predicates [`TraceLog::validate`] walks, done
            // here so the load stays a single pass.
            if tdel[i] < tinj[i] {
                return Err(bad(i, "delivered before injection".into()));
            }
            if i > 0 && tinj[i] < tinj[i - 1] {
                return Err(bad(i, format!("injected before record {}", i - 1)));
            }
            let row_start = u32_at(doff, i) as usize;
            let row = &deps[row_start..u32_at(doff, i + 1) as usize];
            let mut pos = 0usize;
            while pos < row.len() {
                let zz = varint_read(row, &mut pos).ok_or(TraceError::TruncatedSection {
                    section: SECTION_NAMES[SEC_DEPS],
                    need: (row_start + pos) as u64 + 1,
                    have: deps.len() as u64,
                })?;
                let d = zz_unapply(i as u64, zz);
                if d >= n as u64 {
                    return Err(bad_id("dep", i));
                }
                if tdel[d as usize] > tinj[i] {
                    return Err(bad(i, format!("injected before its dep {d} delivered")));
                }
                cols.dep_ids.push(d as u32);
            }
            cols.dep_off.push(cols.dep_ids.len() as u32);
            cols.records.push(TraceRecord {
                msg: Message {
                    id: MsgId(i as u64),
                    src: NodeId(u32_at(src, i)),
                    dst: NodeId(u32_at(dst, i)),
                    class: if class[i / 8] >> (i % 8) & 1 == 1 {
                        MsgClass::Data
                    } else {
                        MsgClass::Control
                    },
                    bytes: u32_at(bytes, i),
                },
                t_inject: tinj[i],
                t_deliver: tdel[i],
            });
        }
        let log = TraceLog::from_columns(cols, self.net, self.exec, None);
        // Ids are dense by construction and every validate() predicate
        // ran inline above; keep the full walk as a debug-build
        // cross-check only so release loads stay one pass.
        debug_assert!(
            log.validate().is_ok(),
            "inline checks must imply validate()"
        );
        Ok(log)
    }
}

/// Parse a container held in memory straight to a [`TraceLog`], reading
/// the caller's bytes in place.
pub fn from_sctf_bytes(bytes: &[u8]) -> Result<TraceLog, TraceError> {
    SctfReader::from_bytes(bytes)?.to_log()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::Capture;
    use sctm_cmp::protocol::{InjectRecord, TraceHook};

    fn tiny() -> TraceLog {
        let mut cap = Capture::new();
        let mk = |id: u64, src: u32, dst: u32, class: MsgClass| Message {
            id: MsgId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            class,
            bytes: if class == MsgClass::Data { 72 } else { 8 },
        };
        cap.on_inject(InjectRecord {
            msg: mk(0, 0, 3, MsgClass::Control),
            at: SimTime::from_ps(100),
            deps: &[],
        });
        cap.on_deliver(MsgId(0), SimTime::from_ps(900));
        cap.on_inject(InjectRecord {
            msg: mk(1, 3, 0, MsgClass::Data),
            at: SimTime::from_ps(1100),
            deps: &[MsgId(0)],
        });
        cap.on_deliver(MsgId(1), SimTime::from_ps(2400));
        cap.finish("analytic", SimTime::from_ps(3000))
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let log = tiny();
        let bytes = to_sctf_bytes(&log);
        let back = from_sctf_bytes(&bytes).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn encoded_size_is_exact() {
        let log = tiny();
        assert_eq!(encoded_size(&log), to_sctf_bytes(&log).len());
        assert_eq!(encoded_size(&TraceLog::default()), {
            let b = to_sctf_bytes(&TraceLog::default());
            b.len()
        });
    }

    #[test]
    fn empty_log_roundtrips() {
        let bytes = to_sctf_bytes(&TraceLog::default());
        let back = from_sctf_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 0);
    }

    #[test]
    fn the_writer_stores_no_children_csr() {
        let bytes = to_sctf_bytes(&tiny());
        assert_eq!(bytes[13] & FLAG_CSR, 0, "flag bit 0 is clear");
        for sec in [SEC_KIND, SEC_PREV, 10, 11] {
            let at = 48 + sec * 16;
            assert_eq!(read_u64(&bytes, at), 0, "{} offset", SECTION_NAMES[sec]);
            assert_eq!(read_u64(&bytes, at + 8), 0, "{} length", SECTION_NAMES[sec]);
        }
        // The deps stream is the last section: one edge, one byte (the
        // dep on the previous id zigzags to 2), then padding.
        let (off, len) = (
            read_u64(&bytes, 48 + SEC_DEPS * 16),
            read_u64(&bytes, 56 + SEC_DEPS * 16),
        );
        assert_eq!((len, bytes[off as usize]), (1, 2));
        assert_eq!(bytes.len(), (off as usize + 1).div_ceil(8) * 8);
    }

    /// `bytes` with zeroed sections of the given lengths appended and
    /// named in the table, and the checksum made good again.
    fn with_sections(bytes: &[u8], lens: &[(usize, usize)]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        for &(sec, len) in lens {
            let off = out.len();
            out.resize(off + len.div_ceil(8) * 8, 0);
            let at = 48 + sec * 16;
            out[at..at + 8].copy_from_slice(&(off as u64).to_le_bytes());
            out[at + 8..at + 16].copy_from_slice(&(len as u64).to_le_bytes());
        }
        let sum = container_checksum(&out);
        out[32..40].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// A container from before the `kind` and `prev` sections went
    /// stores them at `n` and `4n` bytes; it loads as the same trace,
    /// and any other shape of the two is a typed error.
    #[test]
    fn the_kind_and_prev_entries_are_empty_or_both_old() {
        let log = tiny();
        let bytes = to_sctf_bytes(&log);
        let n = log.len();
        let old = with_sections(&bytes, &[(SEC_KIND, n), (SEC_PREV, 4 * n)]);
        assert!(from_sctf_bytes(&old).expect("the old shape loads") == log);
        for lens in [
            &[(SEC_PREV, 4 * n)][..],
            &[(SEC_KIND, n)],
            &[(SEC_KIND, n + 1), (SEC_PREV, 4 * n)],
            &[(SEC_KIND, n), (SEC_PREV, 4 * n - 4)],
        ] {
            assert!(
                matches!(
                    SctfReader::from_bytes(&with_sections(&bytes, lens)),
                    Err(TraceError::Invalid(_))
                ),
                "{lens:?} loaded"
            );
        }
    }

    #[test]
    fn every_corruption_is_a_typed_error() {
        let bytes = to_sctf_bytes(&tiny());
        // Truncations at every length short of the full container.
        for cut in 0..bytes.len() {
            let err = SctfReader::from_bytes(&bytes[..cut]).err();
            assert!(err.is_some(), "truncation at {cut} decoded");
        }
        // Any single flipped payload bit is a checksum (or structural)
        // error — sample every 7th byte to keep the test quick.
        for at in (0..bytes.len()).step_by(7) {
            let mut b = bytes.clone();
            b[at] ^= 0x40;
            assert!(
                SctfReader::from_bytes(&b).and_then(|r| r.to_log()).is_err(),
                "flipped byte {at} decoded silently"
            );
        }
    }

    #[test]
    fn version_skew_is_typed() {
        let mut bytes = to_sctf_bytes(&tiny());
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        // Version is checked before the checksum: a future container is
        // reported as skew, not corruption.
        assert_eq!(
            SctfReader::from_bytes(&bytes).err(),
            Some(TraceError::VersionSkew { found: 2 })
        );
    }

    #[test]
    fn bad_checksum_is_typed() {
        let mut bytes = to_sctf_bytes(&tiny());
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(matches!(
            SctfReader::from_bytes(&bytes),
            Err(TraceError::BadChecksum { .. })
        ));
    }

    #[test]
    fn a_container_out_of_departure_order_is_invalid() {
        // Hand-built rows whose ids do not follow injection time: the
        // encoder writes what it is given (zigzag deltas go backwards
        // and wrap), and the decoder refuses it as a trace.
        let mk = |id: u64, inj: u64, del: u64| {
            let rec = TraceRecord {
                msg: Message {
                    id: MsgId(id),
                    src: NodeId(0),
                    dst: NodeId(1),
                    class: MsgClass::Control,
                    bytes: 8,
                },
                t_inject: SimTime::from_ps(inj),
                t_deliver: SimTime::from_ps(del),
            };
            (rec, vec![])
        };
        let log = TraceLog::from_rows(
            "unknown",
            SimTime::from_ps(9000),
            [mk(0, 5000, 6000), mk(1, 10, 20), mk(2, 7000, 7001)],
        );
        let bytes = to_sctf_bytes(&log);
        let r = SctfReader::from_bytes(&bytes).unwrap();
        let (tinj, _) = r.decode_times().unwrap();
        assert_eq!(tinj[1], SimTime::from_ps(10), "timestamps round-trip");
        assert_eq!(
            r.to_log(),
            Err(TraceError::Invalid(
                "sctf: record 1 injected before record 0".into()
            ))
        );
    }

    #[test]
    fn zigzag_delta_is_a_bijection() {
        let cases = [
            (0u64, 0u64),
            (0, u64::MAX),
            (u64::MAX, 0),
            (5, 5),
            (1 << 60, 3),
        ];
        for (a, b) in cases {
            assert_eq!(zz_apply(a, zz_delta(a, b)), b, "({a}, {b})");
        }
    }
}
