//! Structure-of-arrays trace encoding for low-bandwidth replay.
//!
//! A [`crate::inst::Inst`] is 14 bytes of payload padded to 16 in
//! `Vec<Inst>`'s array-of-structs layout, and most of those bytes are
//! zero for most instructions: ALU ops have no effective address, few
//! instructions use all three source slots, and nearly every PC is a
//! small offset from [`crate::trace::CODE_BASE`]. [`PackedTrace`]
//! splits the record into per-field streams and stores the optional
//! fields sparsely:
//!
//! * `meta` — one `u16` per instruction: op class (4 bits), the full
//!   flags byte (8 bits), plus has-ea / has-dst / source-count
//!   presence bits that say which sparse streams carry an entry;
//! * `site` — one `u16` per instruction holding the code-segment site
//!   (`(pc − CODE_BASE) / 4`), with a sentinel escaping to a full
//!   `u32` in `wide_pc` for the rare PC outside the segment;
//! * `ea` — a `u32` per instruction that has a non-zero effective
//!   address (memory ops and branches);
//! * `regs` — the destination id (if any) followed by the used source
//!   ids, one byte each.
//!
//! The encoding is lossless (see [`PackedTrace::to_trace`]) and decodes
//! strictly sequentially through cheap cursor arithmetic — no hashing,
//! no branching beyond the presence bits — which is exactly the access
//! pattern of trace-driven simulation. Typical traces shrink ~2–2.5×,
//! which matters when many simulator configurations replay the same
//! trace concurrently and share memory bandwidth.
//!
//! ## Hardened decoding
//!
//! The sequential decoder trusts its streams for speed, so a corrupted
//! buffer (bit rot, a buggy producer, deliberate fault injection) could
//! otherwise panic deep inside a replay. Every trace therefore carries
//! a checksum computed at pack time, and [`PackedTrace::check`] verifies
//! both the structural invariants (op classes decodable, register ids in
//! range, side streams consumed exactly) and the checksum, returning a
//! typed [`TraceError`] instead of panicking; after it passes, the
//! trusting decoder is guaranteed panic-free. [`PackedTrace::verify`]
//! adds the architectural invariants of [`crate::validate`] and keeps
//! its verdict, so a trace replayed by many simulator jobs (see
//! `sapa_cpu::Simulator::try_run_packed`) is verified by the first of
//! them only. [`PackedTrace::with_corrupted_byte`] is the matching
//! fault-injection hook: it flips stream bytes while keeping the stored
//! checksum, exactly what a corruption looks like, and its copy starts
//! unverified.

use std::sync::OnceLock;

use crate::inst::{Inst, OpClass};
use crate::reg::{self, Reg};
use crate::stats::TraceStats;
use crate::trace::{Trace, CODE_BASE};
use crate::validate::validate_iter;

/// `site` value escaping to the `wide_pc` stream.
const WIDE_PC: u16 = u16::MAX;

/// Default block size for [`BlockDecoder`] consumers: 256 decoded
/// `Inst`s are 4 KB — one L1-resident slab that amortizes per-block
/// bookkeeping over enough instructions to make the per-instruction
/// decode essentially straight-line.
pub const BLOCK_LEN: usize = 256;

/// Bit layout of one `meta` entry.
const OP_BITS: u16 = 0xF;
const FLAGS_SHIFT: u16 = 4;
const HAS_EA: u16 = 1 << 12;
const HAS_DST: u16 = 1 << 13;
const NSRCS_SHIFT: u16 = 14;

/// A compact, immutable, structure-of-arrays instruction trace.
///
/// ```
/// use sapa_isa::packed::PackedTrace;
/// use sapa_isa::reg;
/// use sapa_isa::trace::Tracer;
///
/// let mut t = Tracer::new();
/// t.iload(0, reg::gpr(1), 0x1000_0000, 4, &[reg::gpr(2)]);
/// t.ialu(1, reg::gpr(3), &[reg::gpr(1)]);
/// let trace = t.finish();
/// let packed = PackedTrace::from_trace(&trace);
/// assert_eq!(packed.len(), 2);
/// assert_eq!(packed.to_trace(), trace);
/// assert!(packed.heap_bytes() < trace.len() * std::mem::size_of::<sapa_isa::Inst>());
/// ```
#[derive(Clone)]
pub struct PackedTrace {
    meta: Vec<u16>,
    site: Vec<u16>,
    wide_pc: Vec<u32>,
    ea: Vec<u32>,
    regs: Vec<u8>,
    /// FNV-1a over all streams, fixed at pack time; [`PackedTrace::check`]
    /// recomputes and compares.
    checksum: u64,
    /// What [`PackedTrace::verify`] found, kept from its first call: a
    /// function of the streams, which never change once packed, so a
    /// clone may carry it. Equality and `Debug` ignore it.
    verdict: OnceLock<Result<(), TraceError>>,
}

impl PartialEq for PackedTrace {
    fn eq(&self, other: &Self) -> bool {
        self.meta == other.meta
            && self.site == other.site
            && self.wide_pc == other.wide_pc
            && self.ea == other.ea
            && self.regs == other.regs
            && self.checksum == other.checksum
    }
}

impl Eq for PackedTrace {}

impl std::fmt::Debug for PackedTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedTrace")
            .field("meta", &self.meta)
            .field("site", &self.site)
            .field("wide_pc", &self.wide_pc)
            .field("ea", &self.ea)
            .field("regs", &self.regs)
            .field("checksum", &self.checksum)
            .finish()
    }
}

impl Default for PackedTrace {
    fn default() -> Self {
        PackedTrace::from_insts(&[])
    }
}

impl PackedTrace {
    /// Packs a slice of instructions.
    pub fn from_insts(insts: &[Inst]) -> Self {
        let mut p = PackedTrace {
            meta: Vec::with_capacity(insts.len()),
            site: Vec::with_capacity(insts.len()),
            wide_pc: Vec::new(),
            ea: Vec::new(),
            regs: Vec::new(),
            checksum: 0,
            verdict: OnceLock::new(),
        };
        for inst in insts {
            // Trailing NONE sources are dropped; interior NONEs (legal
            // in hand-built records) are kept as explicit 255 bytes.
            let nsrcs = inst
                .srcs
                .iter()
                .rposition(|r| r.is_some())
                .map_or(0, |k| k + 1);
            let mut meta = (inst.op.index() as u16 & OP_BITS)
                | ((inst.flags as u16) << FLAGS_SHIFT)
                | ((nsrcs as u16) << NSRCS_SHIFT);
            if inst.ea != 0 {
                meta |= HAS_EA;
                p.ea.push(inst.ea);
            }
            if inst.dst.is_some() {
                meta |= HAS_DST;
                p.regs.push(inst.dst.id());
            }
            for src in &inst.srcs[..nsrcs] {
                p.regs.push(src.id());
            }
            p.meta.push(meta);
            let offset = inst.pc.wrapping_sub(CODE_BASE);
            if inst.pc >= CODE_BASE && offset % 4 == 0 && offset / 4 < WIDE_PC as u32 {
                p.site.push((offset / 4) as u16);
            } else {
                p.site.push(WIDE_PC);
                p.wide_pc.push(inst.pc);
            }
        }
        p.checksum = p.compute_checksum();
        p
    }

    /// Packs a [`Trace`].
    pub fn from_trace(trace: &Trace) -> Self {
        Self::from_insts(trace.insts())
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Sequentially decoding iterator over the instructions.
    pub fn iter(&self) -> PackedReader<'_> {
        PackedReader::new(self)
    }

    /// Block decoder positioned at instruction 0 — the fast replay
    /// path. See [`BlockDecoder`].
    pub fn block_decoder(&self) -> BlockDecoder<'_> {
        BlockDecoder::new(self)
    }

    /// Unpacks into the array-of-structs [`Trace`] form.
    pub fn to_trace(&self) -> Trace {
        Trace::from_insts(self.iter().collect())
    }

    /// Instruction-class breakdown, computed from the op stream without
    /// decoding full records.
    pub fn stats(&self) -> TraceStats {
        let mut counts = [0u64; OpClass::COUNT];
        for &m in &self.meta {
            counts[(m & OP_BITS) as usize] += 1;
        }
        TraceStats::from_counts(counts)
    }

    /// Bytes of stream storage (the payload an iteration touches).
    pub fn heap_bytes(&self) -> usize {
        self.meta.len() * 2
            + self.site.len() * 2
            + self.wide_pc.len() * 4
            + self.ea.len() * 4
            + self.regs.len()
    }

    /// The stream checksum stored at pack time.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// FNV-1a over every stream, with each stream's length mixed in
    /// first so bytes cannot silently migrate across stream boundaries.
    /// xor-then-multiply-by-an-odd-prime is a bijection on `u64`, so any
    /// single corrupted byte is guaranteed to change the digest.
    fn compute_checksum(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn eat(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h = (*h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        }
        let mut h = OFFSET;
        eat(&mut h, &(self.meta.len() as u64).to_le_bytes());
        for &m in &self.meta {
            eat(&mut h, &m.to_le_bytes());
        }
        eat(&mut h, &(self.site.len() as u64).to_le_bytes());
        for &s in &self.site {
            eat(&mut h, &s.to_le_bytes());
        }
        eat(&mut h, &(self.wide_pc.len() as u64).to_le_bytes());
        for &w in &self.wide_pc {
            eat(&mut h, &w.to_le_bytes());
        }
        eat(&mut h, &(self.ea.len() as u64).to_le_bytes());
        for &e in &self.ea {
            eat(&mut h, &e.to_le_bytes());
        }
        eat(&mut h, &(self.regs.len() as u64).to_le_bytes());
        eat(&mut h, &self.regs);
        h
    }

    /// Validates the trace against decode-safety invariants and the
    /// stored checksum, returning the first problem found.
    ///
    /// A trace that passes is guaranteed to decode through
    /// [`BlockDecoder`] (and so [`PackedTrace::iter`]) without
    /// panicking: every op nibble maps to an [`OpClass`], every register
    /// byte is a legal id, and the sparse side streams are consumed
    /// exactly. Structural
    /// problems are reported in preference to the (catch-all) checksum
    /// mismatch so the error pinpoints the corrupted record when it can.
    pub fn check(&self) -> Result<(), TraceError> {
        if self.site.len() != self.meta.len() {
            return Err(TraceError::StreamMismatch {
                stream: "site",
                have: self.site.len(),
                want: self.meta.len(),
            });
        }
        let (mut wide, mut ea, mut regs) = (0usize, 0usize, 0usize);
        for (index, &m) in self.meta.iter().enumerate() {
            let op = (m & OP_BITS) as usize;
            if OpClass::from_index(op).is_none() {
                return Err(TraceError::BadOpClass {
                    index,
                    op: op as u8,
                });
            }
            if self.site[index] == WIDE_PC {
                if wide == self.wide_pc.len() {
                    return Err(TraceError::StreamOverrun {
                        index,
                        stream: "wide_pc",
                    });
                }
                wide += 1;
            }
            if m & HAS_EA != 0 {
                if ea == self.ea.len() {
                    return Err(TraceError::StreamOverrun {
                        index,
                        stream: "ea",
                    });
                }
                ea += 1;
            }
            let need = usize::from(m & HAS_DST != 0) + (m >> NSRCS_SHIFT) as usize;
            for _ in 0..need {
                match self.regs.get(regs) {
                    None => {
                        return Err(TraceError::StreamOverrun {
                            index,
                            stream: "regs",
                        })
                    }
                    Some(&id) if id != Reg::NONE.id() && usize::from(id) >= Reg::COUNT => {
                        return Err(TraceError::BadRegister { index, id });
                    }
                    Some(_) => regs += 1,
                }
            }
        }
        if wide != self.wide_pc.len() {
            return Err(TraceError::StreamMismatch {
                stream: "wide_pc",
                have: self.wide_pc.len(),
                want: wide,
            });
        }
        if ea != self.ea.len() {
            return Err(TraceError::StreamMismatch {
                stream: "ea",
                have: self.ea.len(),
                want: ea,
            });
        }
        if regs != self.regs.len() {
            return Err(TraceError::StreamMismatch {
                stream: "regs",
                have: self.regs.len(),
                want: regs,
            });
        }
        let computed = self.compute_checksum();
        if computed != self.checksum {
            return Err(TraceError::ChecksumMismatch {
                stored: self.checksum,
                computed,
            });
        }
        Ok(())
    }

    /// [`PackedTrace::check`], then every invariant of [`crate::validate`]
    /// over the decoded instructions: the gate untrusted bytes pass
    /// before any instruction may enter a pipeline. The first call keeps
    /// its outcome and every later call, from any thread, returns it.
    /// That first call costs ~45 ns per instruction, so packing never
    /// pays it.
    ///
    /// # Errors
    ///
    /// What `check()` reports, else [`TraceError::Invariant`] with the
    /// first violation and the count, which stops growing at 8.
    pub fn verify(&self) -> Result<(), TraceError> {
        self.verdict
            .get_or_init(|| {
                self.check()?;
                let violations = validate_iter(self.iter(), 8);
                match violations.first() {
                    None => Ok(()),
                    Some(first) => Err(TraceError::Invariant {
                        first: first.to_string(),
                        violations: violations.len(),
                    }),
                }
            })
            .clone()
    }

    /// A copy with one stream byte xored by `xor` — the fault-injection
    /// primitive behind the chaos suite and the corruption fuzz loop.
    ///
    /// `offset` indexes the concatenation of the streams in declaration
    /// order (`meta`, `site`, `wide_pc`, `ea`, `regs`, little-endian
    /// within each element) and wraps modulo [`PackedTrace::heap_bytes`].
    /// The stored checksum is deliberately left at its pack-time value,
    /// exactly as real bit rot would, so [`PackedTrace::check`] on the
    /// result fails whenever `xor != 0`. The copy is unverified, whatever
    /// `self` has been verified to be.
    pub fn with_corrupted_byte(&self, offset: usize, xor: u8) -> PackedTrace {
        let mut t = self.clone();
        t.verdict = OnceLock::new();
        let total = t.heap_bytes();
        if total == 0 {
            return t;
        }
        let mut o = offset % total;
        fn flip16(v: &mut [u16], o: usize, xor: u8) {
            let mut b = v[o / 2].to_le_bytes();
            b[o % 2] ^= xor;
            v[o / 2] = u16::from_le_bytes(b);
        }
        fn flip32(v: &mut [u32], o: usize, xor: u8) {
            let mut b = v[o / 4].to_le_bytes();
            b[o % 4] ^= xor;
            v[o / 4] = u32::from_le_bytes(b);
        }
        if o < t.meta.len() * 2 {
            flip16(&mut t.meta, o, xor);
            return t;
        }
        o -= t.meta.len() * 2;
        if o < t.site.len() * 2 {
            flip16(&mut t.site, o, xor);
            return t;
        }
        o -= t.site.len() * 2;
        if o < t.wide_pc.len() * 4 {
            flip32(&mut t.wide_pc, o, xor);
            return t;
        }
        o -= t.wide_pc.len() * 4;
        if o < t.ea.len() * 4 {
            flip32(&mut t.ea, o, xor);
            return t;
        }
        o -= t.ea.len() * 4;
        t.regs[o] ^= xor;
        t
    }
}

/// Why a [`PackedTrace`] failed [`PackedTrace::check`] or
/// [`PackedTrace::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// The recomputed stream digest disagrees with the stored one.
    ChecksumMismatch {
        /// Digest recorded at pack time.
        stored: u64,
        /// Digest of the streams as they are now.
        computed: u64,
    },
    /// An op nibble does not map to any [`OpClass`].
    BadOpClass {
        /// Instruction index.
        index: usize,
        /// The undecodable op value (12..=15).
        op: u8,
    },
    /// A register byte is outside the architected id space.
    BadRegister {
        /// Instruction index.
        index: usize,
        /// The out-of-range register id.
        id: u8,
    },
    /// A record's presence bits ask for more side-stream entries than
    /// the stream holds.
    StreamOverrun {
        /// Instruction index at which the stream ran dry.
        index: usize,
        /// Which stream (`"wide_pc"`, `"ea"`, `"regs"`).
        stream: &'static str,
    },
    /// A stream's length disagrees with what the meta stream implies.
    StreamMismatch {
        /// Which stream.
        stream: &'static str,
        /// Actual element count.
        have: usize,
        /// Count implied by the meta stream.
        want: usize,
    },
    /// The decoded instructions violate architectural invariants
    /// (`sapa_isa::validate`).
    Invariant {
        /// The first violation, rendered.
        first: String,
        /// Total violations found (up to the validator's cap).
        violations: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::ChecksumMismatch { stored, computed } => write!(
                f,
                "trace checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            TraceError::BadOpClass { index, op } => {
                write!(f, "inst {index}: op nibble {op} has no OpClass")
            }
            TraceError::BadRegister { index, id } => {
                write!(f, "inst {index}: register id {id} out of range")
            }
            TraceError::StreamOverrun { index, stream } => {
                write!(f, "inst {index}: {stream} stream exhausted")
            }
            TraceError::StreamMismatch { stream, have, want } => {
                write!(
                    f,
                    "{stream} stream holds {have} entries, meta implies {want}"
                )
            }
            TraceError::Invariant { first, violations } => {
                write!(f, "{violations} invariant violation(s), first: {first}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl<'a> IntoIterator for &'a PackedTrace {
    type Item = Inst;
    type IntoIter = PackedReader<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Branch-free op-class dispatch: every nibble maps to a class, with
/// the undecodable values 12..=15 folded to `Other` exactly as
/// [`OpClass::from_index`]`.unwrap_or(Other)` would.
const OP_LUT: [OpClass; 16] = {
    let mut t = [OpClass::Other; 16];
    let mut i = 0;
    while i < OpClass::COUNT {
        t[i] = OpClass::ALL[i];
        i += 1;
    }
    t
};

/// Branch-free register decode: the whole `u8` id space. Id 255 is
/// NONE; the unarchitected hole 128..=254 never occurs in a checked
/// trace (`check()` reports it as `BadRegister`) and also decodes as
/// NONE, so a caller that skipped `check` gets no panic from it.
const REG_LUT: [Reg; 256] = {
    let mut t = [Reg::NONE; 256];
    let mut i = 0usize;
    while i < 128 {
        let id = i as u8;
        t[i] = match id {
            0..=31 => reg::gpr(id),
            32..=63 => reg::fpr(id - 32),
            _ => reg::vr(id - 64),
        };
        i += 1;
    }
    t
};

/// Sequential iterator over a [`PackedTrace`]: a [`BlockDecoder`]
/// refilling a [`BLOCK_LEN`]-instruction buffer, handed out one
/// instruction at a time.
///
/// The sparse side-streams make random access impossible without an
/// index; replay does not need one. [`PackedReader::get`] additionally
/// allows re-reading the most recent index, which is the exact access
/// pattern of an instruction-fetch stage that can stall on an I-cache
/// miss and retry the same slot next cycle.
#[derive(Debug, Clone)]
pub struct PackedReader<'a> {
    decoder: BlockDecoder<'a>,
    block: Vec<Inst>,
    /// Index into `block` of the next instruction to hand out; once
    /// anything was handed out, `block[pos - 1]` is the latest.
    pos: usize,
    /// Decoded instructions in `block`.
    len: usize,
}

impl<'a> PackedReader<'a> {
    /// A reader positioned at instruction 0.
    pub fn new(trace: &'a PackedTrace) -> Self {
        PackedReader {
            decoder: trace.block_decoder(),
            block: vec![Inst::default(); BLOCK_LEN],
            pos: 0,
            len: 0,
        }
    }

    /// Index of the instruction the next `next()` yields.
    fn cursor(&self) -> usize {
        self.decoder.position() - self.len + self.pos
    }

    /// The instruction at `idx`, which must be the index of the last
    /// decoded instruction (a re-read) or the one after it.
    ///
    /// # Panics
    ///
    /// Panics if `idx` violates the sequential-access contract or is out
    /// of bounds.
    #[inline]
    pub fn get(&mut self, idx: usize) -> Inst {
        let cursor = self.cursor();
        if idx + 1 == cursor {
            return self.block[self.pos - 1];
        }
        assert_eq!(
            idx, cursor,
            "PackedReader is sequential: asked for {idx}, cursor at {cursor}"
        );
        self.next()
            .unwrap_or_else(|| panic!("PackedReader: index {idx} out of bounds"))
    }
}

/// Batch decoder over a [`PackedTrace`] — the fast path for replay.
///
/// `BlockDecoder::fill` decodes a caller-sized chunk in one tight
/// loop, rather than paying cursor updates through `&mut self` fields
/// and a call boundary per instruction: the four
/// stream cursors live in registers for the whole block, op classes and
/// register ids go through branch-free lookup tables (`OP_LUT`,
/// `REG_LUT`), and the structural guard (do the sparse side streams
/// cover this block?) runs once per block instead of once per pull.
/// Decoding into a small reusable buffer keeps the decoded `Inst`s
/// L1-resident while the compact streams — roughly half the bytes of
/// the `Vec<Inst>` form — stream through the cache exactly once.
///
/// Decoding is strictly sequential; interleaving two decoders over the
/// same trace is fine (each carries its own cursors).
///
/// ```
/// use sapa_isa::packed::{PackedTrace, BLOCK_LEN};
/// use sapa_isa::reg;
/// use sapa_isa::trace::Tracer;
///
/// let mut t = Tracer::new();
/// for i in 0..600 {
///     t.ialu(i % 32, reg::gpr(1), &[reg::gpr(2)]);
/// }
/// let packed = PackedTrace::from_trace(&t.finish());
/// let mut decoder = packed.block_decoder();
/// let mut buf = vec![Default::default(); BLOCK_LEN];
/// let mut total = 0;
/// loop {
///     let n = decoder.fill(&mut buf);
///     if n == 0 {
///         break;
///     }
///     total += n;
/// }
/// assert_eq!(total, packed.len());
/// ```
#[derive(Debug, Clone)]
pub struct BlockDecoder<'a> {
    trace: &'a PackedTrace,
    /// Index of the next instruction `fill` will produce.
    next: usize,
    wide_pos: usize,
    ea_pos: usize,
    regs_pos: usize,
}

impl<'a> BlockDecoder<'a> {
    /// A decoder positioned at instruction 0.
    pub fn new(trace: &'a PackedTrace) -> Self {
        BlockDecoder {
            trace,
            next: 0,
            wide_pos: 0,
            ea_pos: 0,
            regs_pos: 0,
        }
    }

    /// Index of the next instruction `fill` will produce.
    pub fn position(&self) -> usize {
        self.next
    }

    /// Instructions not yet decoded.
    pub fn remaining(&self) -> usize {
        self.trace.len() - self.next
    }

    /// Decodes up to `buf.len()` instructions into the front of `buf`
    /// and returns how many were written (0 once the trace is
    /// exhausted).
    ///
    /// # Panics
    ///
    /// Panics if a corrupted trace's presence bits ask for more
    /// side-stream entries than exist — the same streams-exhausted
    /// condition [`PackedTrace::check`] reports as a typed error.
    /// Callers facing untrusted bytes must `check()` first, after which
    /// `fill` is guaranteed panic-free.
    pub fn fill(&mut self, buf: &mut [Inst]) -> usize {
        let t = self.trace;
        let n = (t.meta.len() - self.next).min(buf.len());
        if n == 0 {
            return 0;
        }
        let metas = &t.meta[self.next..self.next + n];
        let sites = &t.site[self.next..self.next + n];
        let (wide, eas, regs) = (&t.wide_pc[..], &t.ea[..], &t.regs[..]);
        let (mut wp, mut ep, mut rp) = (self.wide_pos, self.ea_pos, self.regs_pos);
        for (i, out) in buf[..n].iter_mut().enumerate() {
            let m = metas[i];
            let site = sites[i];
            // Wide PCs are rare escapes, so this branch predicts ~always.
            let pc = if site == WIDE_PC {
                let pc = wide.get(wp).copied().unwrap_or(0);
                wp += 1;
                pc
            } else {
                CODE_BASE + 4 * site as u32
            };
            // The sparse side streams are read branch-free: load the
            // next entry unconditionally (the `get` clamp only fails at
            // the very end of a stream, so it predicts essentially
            // perfectly), select with a mask derived from the presence
            // bit, and advance the cursor by that bit. The presence
            // bits themselves are data-dependent and unpredictable —
            // branching on them is what made the per-instruction reader
            // slow. Register absence costs nothing: id 255 indexes
            // [`REG_LUT`] straight to NONE, so `id | (present - 1)`
            // folds the select into the lookup.
            let has_ea = (m & HAS_EA != 0) as u32;
            let ea = eas.get(ep).copied().unwrap_or(0) & has_ea.wrapping_neg();
            ep += has_ea as usize;

            let has_dst = (m & HAS_DST != 0) as u8;
            let dst_id = regs.get(rp).copied().unwrap_or(0) | has_dst.wrapping_sub(1);
            rp += has_dst as usize;

            let nsrcs = (m >> NSRCS_SHIFT) as u8;
            let s0 = regs.get(rp).copied().unwrap_or(0) | ((nsrcs > 0) as u8).wrapping_sub(1);
            let s1 = regs.get(rp + 1).copied().unwrap_or(0) | ((nsrcs > 1) as u8).wrapping_sub(1);
            let s2 = regs.get(rp + 2).copied().unwrap_or(0) | ((nsrcs > 2) as u8).wrapping_sub(1);
            rp += nsrcs as usize;

            *out = Inst {
                pc,
                ea,
                op: OP_LUT[(m & OP_BITS) as usize],
                dst: REG_LUT[dst_id as usize],
                srcs: [
                    REG_LUT[s0 as usize],
                    REG_LUT[s1 as usize],
                    REG_LUT[s2 as usize],
                ],
                flags: (m >> FLAGS_SHIFT) as u8,
            };
        }

        // Structural validation, hoisted to block granularity: a
        // corrupted trace whose presence bits demand more side-stream
        // entries than exist drives a cursor past its stream. The
        // clamped loads above keep every access in-bounds regardless,
        // so the overrun is caught here — before any decoded
        // instruction escapes this call — instead of panicking deep in
        // the loop. A trace that passed [`PackedTrace::check`] can
        // never trip this.
        assert!(
            wp <= wide.len() && ep <= eas.len() && rp <= regs.len(),
            "packed trace side streams exhausted in block {}..{}: corrupted \
             trace (PackedTrace::check would have caught this)",
            self.next,
            self.next + n
        );
        self.next += n;
        self.wide_pos = wp;
        self.ea_pos = ep;
        self.regs_pos = rp;
        n
    }
}

impl Iterator for PackedReader<'_> {
    type Item = Inst;

    #[inline]
    fn next(&mut self) -> Option<Inst> {
        if self.pos == self.len {
            // An exhausted decoder leaves the last block in place, so a
            // re-read of the final instruction still finds it.
            let n = self.decoder.fill(&mut self.block);
            if n == 0 {
                return None;
            }
            self.len = n;
            self.pos = 0;
        }
        self.pos += 1;
        Some(self.block[self.pos - 1])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.decoder.remaining() + self.len - self.pos;
        (left, Some(left))
    }
}

impl ExactSizeIterator for PackedReader<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::flags;
    use crate::trace::Tracer;

    fn sample_trace() -> Trace {
        let mut t = Tracer::new();
        t.iload(0, reg::gpr(1), 0x1000_0040, 4, &[reg::gpr(2)]);
        t.ialu(1, reg::gpr(3), &[reg::gpr(1), reg::gpr(3)]);
        t.branch(2, false, 0, &[reg::gpr(3)]);
        t.vload(3, reg::vr(0), 0x1000_0100, 16, &[reg::gpr(2)]);
        t.vsimple(4, reg::vr(1), &[reg::vr(0), reg::vr(1)]);
        t.vperm(5, reg::vr(2), &[reg::vr(1)]);
        t.istore(6, 0x1000_0200, 4, &[reg::gpr(3), reg::gpr(2)]);
        t.fpu(7, reg::fpr(5), &[reg::fpr(1), reg::fpr(2), reg::fpr(3)]);
        t.jump(8, 0);
        t.finish()
    }

    #[test]
    fn round_trips_a_mixed_trace() {
        let tr = sample_trace();
        let packed = PackedTrace::from_trace(&tr);
        assert_eq!(packed.len(), tr.len());
        assert_eq!(packed.to_trace(), tr);
    }

    #[test]
    fn empty_trace_round_trips() {
        let tr = Tracer::new().finish();
        let packed = PackedTrace::from_trace(&tr);
        assert!(packed.is_empty());
        assert_eq!(packed.to_trace(), tr);
    }

    #[test]
    fn stats_match_unpacked() {
        let tr = sample_trace();
        assert_eq!(PackedTrace::from_trace(&tr).stats(), tr.stats());
    }

    #[test]
    fn is_smaller_than_aos_layout() {
        // A realistic mix: the SoA streams must beat Vec<Inst>'s padded
        // records by at least 2x.
        let mut t = Tracer::new();
        for i in 0..10_000u32 {
            // Sites loop over a small static footprint, like real code.
            let s = 8 * (i % 1024);
            t.iload(s, reg::gpr(1), 0x1000_0000 + i, 4, &[reg::gpr(2)]);
            t.ialu(s + 1, reg::gpr(3), &[reg::gpr(1), reg::gpr(3)]);
            t.ialu(s + 2, reg::gpr(4), &[reg::gpr(3)]);
            t.vsimple(s + 3, reg::vr(1), &[reg::vr(0), reg::vr(1)]);
            t.branch(s + 4, i % 3 == 0, s, &[reg::gpr(4)]);
        }
        let tr = t.finish();
        let packed = PackedTrace::from_trace(&tr);
        let aos = tr.len() * std::mem::size_of::<Inst>();
        assert!(
            packed.heap_bytes() * 2 <= aos,
            "packed {} vs AoS {aos}",
            packed.heap_bytes()
        );
        assert_eq!(packed.to_trace(), tr);
    }

    #[test]
    fn interior_none_sources_survive() {
        // Tracer pads at the end, but hand-built records may have a
        // NONE between real sources; the count encoding must keep it.
        let inst = Inst {
            pc: CODE_BASE + 8,
            ea: 0,
            op: OpClass::IAlu,
            dst: reg::gpr(1),
            srcs: [reg::gpr(2), Reg::NONE, reg::gpr(3)],
            flags: 0,
        };
        let packed = PackedTrace::from_insts(&[inst]);
        assert_eq!(packed.to_trace().insts(), &[inst]);
    }

    #[test]
    fn out_of_segment_and_unaligned_pcs_take_the_wide_path() {
        let far_site = Inst {
            pc: CODE_BASE + 4 * (WIDE_PC as u32 + 7), // site too big for u16
            ea: 0,
            op: OpClass::Other,
            dst: Reg::NONE,
            srcs: [Reg::NONE; 3],
            flags: 0,
        };
        let below = Inst {
            pc: CODE_BASE - 4,
            ..far_site
        };
        let unaligned = Inst {
            pc: CODE_BASE + 2,
            ..far_site
        };
        let boundary = Inst {
            pc: CODE_BASE + 4 * (WIDE_PC as u32), // site == sentinel value
            ..far_site
        };
        let insts = [far_site, below, unaligned, boundary];
        let packed = PackedTrace::from_insts(&insts);
        assert_eq!(packed.to_trace().insts(), &insts);
    }

    #[test]
    fn arbitrary_flags_bytes_are_preserved() {
        // Trace::read_from accepts any flags byte; packing must too.
        let mut insts = Vec::new();
        for raw in [0u8, 1, 3, 0x55, 0xAA, 0xFF, 4 << flags::WIDTH_SHIFT] {
            insts.push(Inst {
                pc: CODE_BASE,
                ea: 0x2000_0000,
                op: OpClass::ILoad,
                dst: reg::gpr(7),
                srcs: [reg::gpr(1), Reg::NONE, Reg::NONE],
                flags: raw,
            });
        }
        let packed = PackedTrace::from_insts(&insts);
        assert_eq!(packed.to_trace().insts(), &insts[..]);
    }

    #[test]
    fn reader_allows_re_reading_the_current_slot() {
        let tr = sample_trace();
        let packed = PackedTrace::from_trace(&tr);
        let mut r = packed.iter();
        assert_eq!(r.get(0), tr.insts()[0]);
        assert_eq!(r.get(0), tr.insts()[0]); // stalled fetch retries
        assert_eq!(r.get(1), tr.insts()[1]);
        assert_eq!(r.get(1), tr.insts()[1]);
        assert_eq!(r.get(2), tr.insts()[2]);
    }

    #[test]
    #[should_panic(expected = "sequential")]
    fn reader_rejects_random_access() {
        let packed = PackedTrace::from_trace(&sample_trace());
        let mut r = packed.iter();
        let _ = r.get(3);
    }

    #[test]
    fn check_accepts_freshly_packed_traces() {
        assert_eq!(PackedTrace::from_trace(&sample_trace()).check(), Ok(()));
        assert_eq!(PackedTrace::default().check(), Ok(()));
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let packed = PackedTrace::from_trace(&sample_trace());
        for offset in 0..packed.heap_bytes() {
            let bad = packed.with_corrupted_byte(offset, 0x80);
            assert!(bad.check().is_err(), "corruption at byte {offset} missed");
        }
    }

    #[test]
    fn zero_xor_corruption_is_a_no_op() {
        let packed = PackedTrace::from_trace(&sample_trace());
        assert_eq!(packed.with_corrupted_byte(5, 0), packed);
        assert_eq!(
            PackedTrace::default().with_corrupted_byte(9, 0xFF).check(),
            Ok(())
        );
    }

    #[test]
    fn verify_keeps_its_verdict_and_corrupted_copies_start_unverified() {
        let packed = PackedTrace::from_trace(&sample_trace());
        assert_eq!(packed.verdict.get(), None, "packing must not verify");
        assert_eq!(packed.verify(), Ok(()));
        assert_eq!(packed.verdict.get(), Some(&Ok(())), "verdict not kept");
        assert_eq!(packed.clone().verdict.get(), Some(&Ok(())));
        for offset in (0..packed.heap_bytes()).step_by(3) {
            let bad = packed.with_corrupted_byte(offset, 0x80);
            let err = bad.check().expect_err("corruption must fail check()");
            assert_eq!(bad.verify(), Err(err.clone()), "byte {offset}");
            assert_eq!(bad.verify(), Err(err), "byte {offset}, kept verdict");
        }
        assert_eq!(packed.verify(), Ok(()), "the original keeps its verdict");
    }

    #[test]
    fn threads_racing_to_verify_share_one_verdict() {
        let clean = PackedTrace::from_trace(&sample_trace());
        let bad = clean.with_corrupted_byte(1, 0x40);
        let start = std::sync::Barrier::new(4);
        let verdicts: Vec<_> = std::thread::scope(|s| {
            let racers: Vec<_> = [&clean, &bad, &clean, &bad]
                .map(|t| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        t.verify()
                    })
                })
                .into_iter()
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let want_bad = bad.check();
        assert!(want_bad.is_err());
        assert_eq!(verdicts, [Ok(()), want_bad.clone(), Ok(()), want_bad]);
    }

    #[test]
    fn a_verified_trace_equals_and_prints_like_a_fresh_one() {
        let tr = sample_trace();
        let verified = PackedTrace::from_trace(&tr);
        let text = format!("{verified:?}");
        assert_eq!(verified.verify(), Ok(()));
        assert_eq!(verified, PackedTrace::from_trace(&tr));
        assert_eq!(format!("{verified:?}"), text);
        assert!(!text.contains("verdict"), "{text}");
    }

    #[test]
    fn verify_reports_invariants_that_check_passes() {
        // A load below the data segment decodes fine: `check()` passes
        // and only the invariant pass can see it.
        let mut t = Tracer::new();
        t.iload(0, reg::gpr(1), 0x10, 4, &[]);
        t.iload(1, reg::gpr(1), 0x20, 4, &[]);
        let packed = PackedTrace::from_trace(&t.finish());
        assert_eq!(packed.check(), Ok(()));
        let err = packed.verify().expect_err("invariant violation missed");
        assert!(
            matches!(err, TraceError::Invariant { violations: 2, .. }),
            "{err}"
        );
        assert_eq!(packed.verify(), Err(err));
    }

    #[test]
    fn bad_op_nibble_is_pinpointed() {
        let packed = PackedTrace::from_trace(&sample_trace());
        // Force instruction 3's op nibble to 15 (OpClass::COUNT is 12, so
        // 15 is undecodable) by xoring the low byte of meta[3].
        let xor = (packed.meta[3] & OP_BITS) as u8 ^ 0x0F;
        let bad = packed.with_corrupted_byte(3 * 2, xor);
        assert_eq!(
            bad.check(),
            Err(TraceError::BadOpClass { index: 3, op: 15 })
        );
    }

    #[test]
    fn bad_register_id_is_pinpointed() {
        let packed = PackedTrace::from_trace(&sample_trace());
        // First regs byte is instruction 0's destination (gpr 1); id 200
        // falls in the unarchitected 128..=254 hole.
        let reg_off = packed.meta.len() * 2
            + packed.site.len() * 2
            + packed.wide_pc.len() * 4
            + packed.ea.len() * 4;
        let bad = packed.with_corrupted_byte(reg_off, 1 ^ 200);
        assert_eq!(
            bad.check(),
            Err(TraceError::BadRegister { index: 0, id: 200 })
        );
    }

    #[test]
    fn checksum_is_stable_across_clone_and_reorderings() {
        let a = PackedTrace::from_trace(&sample_trace());
        assert_eq!(a.clone().checksum(), a.checksum());
        // Same instructions repacked must produce the same digest.
        assert_eq!(
            PackedTrace::from_trace(&sample_trace()).checksum(),
            a.checksum()
        );
    }

    #[test]
    fn trace_error_displays_mention_the_stream() {
        let e = TraceError::StreamOverrun {
            index: 4,
            stream: "ea",
        };
        assert!(e.to_string().contains("ea stream"));
        let e = TraceError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn iterator_yields_every_instruction_in_order() {
        let tr = sample_trace();
        let packed = PackedTrace::from_trace(&tr);
        let unpacked: Vec<Inst> = packed.iter().collect();
        assert_eq!(unpacked, tr.insts());
        assert_eq!(packed.iter().len(), tr.len());
    }

    /// Drains a decoder with a fixed per-call buffer size.
    fn drain_blocks(packed: &PackedTrace, block: usize) -> Vec<Inst> {
        let mut d = packed.block_decoder();
        let mut buf = vec![Inst::default(); block];
        let mut out = Vec::new();
        loop {
            let n = d.fill(&mut buf);
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        assert_eq!(d.position(), packed.len());
        assert_eq!(d.remaining(), 0);
        out
    }

    #[test]
    fn block_decode_matches_per_inst_reader_at_every_block_size() {
        let tr = sample_trace();
        let packed = PackedTrace::from_trace(&tr);
        for block in [1, 2, 3, tr.len() - 1, tr.len(), tr.len() + 1, BLOCK_LEN] {
            assert_eq!(
                drain_blocks(&packed, block),
                tr.insts(),
                "block size {block} diverged"
            );
        }
    }

    #[test]
    fn block_decode_handles_wide_pcs_and_sparse_streams() {
        // Mix wide-PC escapes with dense/sparse ea and reg usage so
        // every side-stream cursor advances at a different rate.
        let mut insts = Vec::new();
        for i in 0..700u32 {
            insts.push(Inst {
                pc: if i % 5 == 0 {
                    CODE_BASE + 2 + i // unaligned: wide path
                } else {
                    CODE_BASE + 4 * (i % 100)
                },
                ea: if i % 3 == 0 { 0x2000_0000 + i } else { 0 },
                op: OpClass::ALL[(i as usize) % OpClass::COUNT],
                dst: if i % 2 == 0 {
                    reg::gpr(i as u8 % 32)
                } else {
                    Reg::NONE
                },
                srcs: match i % 4 {
                    0 => [Reg::NONE; 3],
                    1 => [reg::fpr(1), Reg::NONE, Reg::NONE],
                    2 => [reg::vr(2), reg::vr(3), Reg::NONE],
                    _ => [reg::gpr(4), reg::gpr(5), reg::gpr(6)],
                },
                flags: (i % 251) as u8,
            });
        }
        // from_insts normalises trailing-NONE handling the same way
        // to_trace will return it, so compare against the round trip.
        let packed = PackedTrace::from_insts(&insts);
        let expect = packed.to_trace();
        for block in [1, 7, 255, 256, 257, 699, 700, 701] {
            assert_eq!(
                drain_blocks(&packed, block),
                expect.insts(),
                "block size {block} diverged"
            );
        }
    }

    #[test]
    fn block_decoder_on_empty_trace_returns_zero() {
        let packed = PackedTrace::default();
        let mut d = packed.block_decoder();
        let mut buf = [Inst::default(); 4];
        assert_eq!(d.fill(&mut buf), 0);
        assert_eq!(d.fill(&mut buf), 0);
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn block_decoder_with_empty_buffer_makes_no_progress() {
        let packed = PackedTrace::from_trace(&sample_trace());
        let mut d = packed.block_decoder();
        assert_eq!(d.fill(&mut []), 0);
        assert_eq!(d.position(), 0);
    }

    #[test]
    #[should_panic(expected = "side streams exhausted")]
    fn block_decoder_panics_on_stream_overrun() {
        let packed = PackedTrace::from_trace(&sample_trace());
        // Inflate the last instruction's source count: xor the high
        // meta byte so nsrcs claims entries the regs stream lacks.
        let last = packed.meta.len() - 1;
        let bad = packed.with_corrupted_byte(last * 2 + 1, 0xC0);
        assert!(bad.check().is_err(), "corruption should be detectable");
        let mut buf = [Inst::default(); BLOCK_LEN];
        let mut d = bad.block_decoder();
        while d.fill(&mut buf) != 0 {}
    }
}
