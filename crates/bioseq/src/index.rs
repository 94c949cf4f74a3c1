//! Preprocessed on-disk sequence database with a k-mer seed index.
//!
//! The paper's database-search applications (BLAST, FASTA) owe their
//! speed to work they *avoid*: the database is preprocessed once, and a
//! cheap exact-match filter prunes most subjects before any dynamic
//! programming runs. This module gives the suite the same two-stage
//! shape at the storage layer:
//!
//! * **Packed residues** — sequences are stored 5 bits per residue
//!   (the 24-symbol alphabet fits with room to spare), ~37% smaller
//!   than index bytes and far smaller than FASTA text;
//! * **Length-sorted shards** — sequences are sorted by length and cut
//!   into shards of roughly [`IndexBuilder::shard_residues`] residues,
//!   so a striped SIMD batch working through one shard sees uniform
//!   subject lengths (minimal per-batch padding/rescale variance), and
//!   a scan's working set is one shard, not the database;
//! * **Per-shard background statistics** — each shard directory entry
//!   carries its residue composition and length range, the inputs
//!   Karlin-Altschul E-value machinery needs, so significance can be
//!   computed from the header without touching sequence data;
//! * **A k-mer seed index** — every overlapping word of
//!   [`IndexBuilder::word_len`] standard residues is indexed as
//!   `(sequence, position)` postings sorted by word hash. At search
//!   time, [`SeedIndex::candidates`] turns a query into the subject
//!   set sharing at least `min_diag_seeds` words on one diagonal — the
//!   BLAST-like prefilter that lets rescoring skip most of the
//!   database (`sapa_align::indexed` builds the full pipeline on top).
//!
//! Opening a database with [`IndexReader`] loads only metadata
//! (lengths, ids, shard directory, seed index). A shard's packed blob is
//! read and checksum-verified the first time a read needs it, and the
//! reader keeps the verified bytes, so later reads of that shard decode
//! from memory with no second read or checksum. Kept blobs cost 0.625
//! bytes per residue, a twentieth of the ~13 bytes per residue the
//! resident seed index already takes. A read decodes a whole shard
//! ([`IndexReader::read_shard`]) or only the listed sequences of one
//! shard ([`IndexReader::read_sequences`]) into a caller-owned reusable
//! [`ShardBuf`], so decoded residues never exceed one shard.
//!
//! ```
//! use sapa_bioseq::db::DatabaseBuilder;
//! use sapa_bioseq::index::{IndexBuilder, IndexReader, ShardBuf};
//!
//! # fn main() -> sapa_bioseq::Result<()> {
//! let db = DatabaseBuilder::new().seed(11).sequences(40).build();
//! let mut file = Vec::new();
//! IndexBuilder::new().write(db.sequences(), &mut file)?;
//!
//! let mut reader = IndexReader::from_reader(std::io::Cursor::new(file))?;
//! assert_eq!(reader.seq_count(), 40);
//! let mut buf = ShardBuf::new();
//! reader.read_shard(0, &mut buf)?;          // reads and verifies shard 0
//! assert!(buf.seq_count() > 0);
//! let first = buf.sequence(0).to_vec();
//! reader.read_sequences(0, [0], &mut buf)?;  // decodes from the kept blob
//! assert_eq!(buf.sequence(0), &first[..]);
//! # Ok(())
//! # }
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::alphabet::AminoAcid;
use crate::seq::Sequence;
use crate::{Error, Result};

/// File magic: identifies a SAPA database, version-stamped separately.
pub const MAGIC: [u8; 8] = *b"SAPADB1\0";

/// Current on-disk format version.
pub const FORMAT_VERSION: u32 = 1;

/// Default seed-word length (protein alphabet). Five residues is the
/// shortest word that prunes effectively on SwissProt-like composition
/// (expected random word sharing per subject well below one) while
/// still being found in homologs of moderate identity.
pub const DEFAULT_WORD_LEN: usize = 5;

/// Default shard size in residues.
pub const DEFAULT_SHARD_RESIDUES: usize = 64 * 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn corrupt(reason: impl Into<String>) -> Error {
    Error::InvalidIndex {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------------
// Residue packing: 5 bits per residue, LSB-first, per-sequence byte aligned.
// ---------------------------------------------------------------------------

/// Bytes needed to pack `len` residues at 5 bits each.
pub fn packed_len(len: usize) -> usize {
    (5 * len).div_ceil(8)
}

fn pack_into(out: &mut Vec<u8>, residues: &[AminoAcid]) {
    let mut acc: u32 = 0;
    let mut bits = 0u32;
    for &aa in residues {
        acc |= (aa.index() as u32) << bits;
        bits += 5;
        while bits >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            bits -= 8;
        }
    }
    if bits > 0 {
        out.push(acc as u8);
    }
}

fn unpack_into(out: &mut Vec<AminoAcid>, bytes: &[u8], len: usize) -> Result<()> {
    let mut acc: u32 = 0;
    let mut bits = 0u32;
    let mut it = bytes.iter();
    for _ in 0..len {
        while bits < 5 {
            let b = *it
                .next()
                .ok_or_else(|| corrupt("packed sequence data ends early"))?;
            acc |= (b as u32) << bits;
            bits += 8;
        }
        let idx = (acc & 0x1f) as usize;
        acc >>= 5;
        bits -= 5;
        out.push(
            AminoAcid::from_index(idx)
                .ok_or_else(|| corrupt(format!("invalid packed residue code {idx}")))?,
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Little-endian write/read helpers.
// ---------------------------------------------------------------------------

fn w16<W: Write>(w: &mut W, v: u16) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}
fn w32<W: Write>(w: &mut W, v: u32) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}
fn w64<W: Write>(w: &mut W, v: u64) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}
fn r16<R: Read>(r: &mut R) -> Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}
fn r32<R: Read>(r: &mut R) -> Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}
fn r64<R: Read>(r: &mut R) -> Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

// ---------------------------------------------------------------------------
// Seed index.
// ---------------------------------------------------------------------------

/// Base-20 hash of a window of standard residues; `None` if the window
/// contains an ambiguity code (`B`/`Z`/`X`/`*`), which is not indexed —
/// the NCBI convention for seed words.
pub fn word_hash(window: &[AminoAcid]) -> Option<u32> {
    debug_assert!(window.len() <= 7, "word hash overflows u32 beyond k=7");
    let mut h: u32 = 0;
    for &aa in window {
        if !aa.is_standard() {
            return None;
        }
        h = h * 20 + aa.index() as u32;
    }
    Some(h)
}

/// One subject that survived seeding: its best seed diagonal and a
/// representative seed on it (for downstream X-drop extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedCandidate {
    /// Global sequence index (length-sorted database order).
    pub seq: u32,
    /// Word matches on the best diagonal.
    pub seeds: u32,
    /// Query offset of the first seed on the best diagonal.
    pub qpos: u32,
    /// Subject offset of the first seed on the best diagonal.
    pub spos: u32,
}

/// The outcome of one query's seed lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedScan {
    /// Surviving subjects, ascending by sequence index.
    pub candidates: Vec<SeedCandidate>,
    /// Indexable words in the query (windows of standard residues).
    pub query_words: usize,
}

/// Exact-match k-mer index over a database: `(word hash) → (sequence,
/// position)` postings, the structure behind the seed-and-extend
/// prefilter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedIndex {
    word_len: usize,
    /// `(hash, postings_start)` sorted by hash; end = next entry's
    /// start (or `postings.len()` for the last).
    keys: Vec<(u32, u32)>,
    /// `(sequence, position)` pairs, grouped by word hash, each group
    /// ascending by `(sequence, position)`.
    postings: Vec<(u32, u32)>,
    /// Prefix-bucket table over `keys`: the keys whose hash divided by
    /// `bucket_div` is `b` (the words sharing their first
    /// `min(word_len, 3)` residues) are `keys[buckets[b]..buckets[b +
    /// 1]]`. Derived from `keys`, never stored on disk.
    buckets: Vec<u32>,
    bucket_div: u32,
}

/// Leading residues of a word that pick its bucket: 20³ = 8,000
/// buckets, a 32 KB table, leave ~130 keys per bucket on the 1 M-key
/// index of a 1.7 M-residue database.
const BUCKET_RESIDUES: usize = 3;

impl SeedIndex {
    /// Indexes every word of `word_len` standard residues in
    /// `sequences` (global index = position in the slice).
    ///
    /// # Panics
    ///
    /// Panics if `word_len` is outside `1..=7`.
    pub fn build<'a, I>(sequences: I, word_len: usize) -> SeedIndex
    where
        I: IntoIterator<Item = &'a [AminoAcid]>,
    {
        assert!((1..=7).contains(&word_len), "word length must be 1..=7");
        let mut raw: Vec<(u32, u32, u32)> = Vec::new();
        for (seq, residues) in sequences.into_iter().enumerate() {
            for (pos, window) in residues.windows(word_len).enumerate() {
                if let Some(h) = word_hash(window) {
                    raw.push((h, seq as u32, pos as u32));
                }
            }
        }
        raw.sort_unstable();
        let mut keys = Vec::new();
        let mut postings = Vec::with_capacity(raw.len());
        for (h, seq, pos) in raw {
            if keys.last().map(|&(kh, _)| kh) != Some(h) {
                keys.push((h, postings.len() as u32));
            }
            postings.push((seq, pos));
        }
        SeedIndex::with_buckets(word_len, keys, postings)
    }

    /// Assembles an index from sorted keys (every hash below 20^k) and
    /// their postings, deriving the bucket table.
    fn with_buckets(word_len: usize, keys: Vec<(u32, u32)>, postings: Vec<(u32, u32)>) -> Self {
        let prefix = word_len.min(BUCKET_RESIDUES);
        let bucket_div = 20u32.pow((word_len - prefix) as u32);
        // Bucket b starts at the first key at or above its smallest word.
        let buckets = (0..=20u32.pow(prefix as u32))
            .map(|b| keys.partition_point(|&(h, _)| h < b * bucket_div) as u32)
            .collect();
        SeedIndex {
            word_len,
            keys,
            postings,
            buckets,
            bucket_div,
        }
    }

    /// The indexed word length.
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// Number of distinct word hashes present.
    pub fn unique_words(&self) -> usize {
        self.keys.len()
    }

    /// Total `(sequence, position)` postings.
    pub fn posting_count(&self) -> usize {
        self.postings.len()
    }

    /// The postings for one word hash (possibly empty): a bucket-table
    /// lookup, then a binary search over that bucket's keys only.
    pub fn postings(&self, hash: u32) -> &[(u32, u32)] {
        let b = (hash / self.bucket_div) as usize;
        let Some(&[lo, hi]) = self.buckets.get(b..b + 2) else {
            return &[]; // not a hash of `word_len` standard residues
        };
        let bucket = &self.keys[lo as usize..hi as usize];
        match bucket.binary_search_by_key(&hash, |&(h, _)| h) {
            Ok(i) => {
                let i = lo as usize + i;
                let start = self.keys[i].1 as usize;
                let end = self
                    .keys
                    .get(i + 1)
                    .map_or(self.postings.len(), |&(_, s)| s as usize);
                &self.postings[start..end]
            }
            Err(_) => &[],
        }
    }

    /// Runs the seed stage of a search: every subject sharing at least
    /// `min_diag_seeds` exact words with `query` *on one diagonal*
    /// survives, with the first seed of its best diagonal recorded for
    /// extension. Deterministic: output depends only on the data.
    ///
    /// A diagonal's first seed is its earliest hit in query order; the
    /// best diagonal has the most seeds, the lower diagonal id winning
    /// a tie; candidates ascend by sequence index.
    ///
    /// Subjects shorter than the word length can never be seeded and
    /// are **not** returned here — admission policy for them belongs to
    /// the caller (the alignment-layer prefilter admits them
    /// unconditionally).
    pub fn candidates(&self, query: &[AminoAcid], min_diag_seeds: u32) -> SeedScan {
        let qlen = query.len() as u32;
        let mut query_words = 0usize;
        // One `[seq, diagonal, qpos, spos]` per word hit, in query order.
        // The diagonal id is offset by the query length to keep it
        // non-negative: spos - qpos + |q|.
        let mut hits: Vec<[u32; 4]> = Vec::new();
        for (qpos, window) in query.windows(self.word_len).enumerate() {
            let Some(h) = word_hash(window) else {
                continue;
            };
            query_words += 1;
            let qpos = qpos as u32;
            hits.extend(
                self.postings(h)
                    .iter()
                    .map(|&(seq, spos)| [seq, spos + qlen - qpos, qpos, spos]),
            );
        }
        // A stable sort keeps each (seq, diagonal) run in query order,
        // so a run's first element is that diagonal's first seed.
        hits.sort_by_key(|&[seq, diag, _, _]| (u64::from(seq) << 32) | u64::from(diag));
        let mut candidates = Vec::new();
        for seq_run in hits.chunk_by(|a, b| a[0] == b[0]) {
            // Diagonals ascend within the run, so a strict `>` keeps the
            // lower diagonal on a tie.
            let mut best = (0u32, seq_run[0]);
            for diag_run in seq_run.chunk_by(|a, b| a[1] == b[1]) {
                let seeds = diag_run.len() as u32;
                if seeds > best.0 {
                    best = (seeds, diag_run[0]);
                }
            }
            let (seeds, [seq, _, qpos, spos]) = best;
            if seeds >= min_diag_seeds {
                candidates.push(SeedCandidate {
                    seq,
                    seeds,
                    qpos,
                    spos,
                });
            }
        }
        SeedScan {
            candidates,
            query_words,
        }
    }

    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        w64(w, self.keys.len() as u64)?;
        for &(h, start) in &self.keys {
            w32(w, h)?;
            w32(w, start)?;
        }
        w64(w, self.postings.len() as u64)?;
        for &(seq, pos) in &self.postings {
            w32(w, seq)?;
            w32(w, pos)?;
        }
        Ok(())
    }

    fn byte_len(&self) -> u64 {
        16 + 8 * (self.keys.len() as u64 + self.postings.len() as u64)
    }

    /// Reads the seed-index section and checks it against the length
    /// table: hashes strictly ascending and below 20^k, every key owning
    /// at least one posting, each key's postings strictly ascending by
    /// `(sequence, position)` (the order [`SeedIndex::build`] writes, so
    /// no posting counts twice), and every posting's word inside its
    /// sequence. The section has no checksum, so a posting whose
    /// sequence is flipped to another valid one that is long enough
    /// still goes undetected.
    fn read_from<R: Read>(r: &mut R, word_len: usize, lengths: &[u32]) -> Result<SeedIndex> {
        let words = 20u32.pow(word_len as u32);
        let n_keys = r64(r)? as usize;
        let mut keys: Vec<(u32, u32)> = Vec::with_capacity(n_keys.min(1 << 24));
        for _ in 0..n_keys {
            let h = r32(r)?;
            let start = r32(r)?;
            if h >= words {
                return Err(corrupt("seed-index hash is not a word hash"));
            }
            match keys.last() {
                None if start != 0 => {
                    return Err(corrupt("seed-index postings do not start at the first key"))
                }
                Some(&(ph, ps)) if ph >= h || ps >= start => {
                    return Err(corrupt("seed-index keys not strictly ascending"))
                }
                _ => {}
            }
            keys.push((h, start));
        }
        let n_postings = r64(r)? as usize;
        if keys
            .last()
            .map_or(n_postings != 0, |&(_, s)| s as usize >= n_postings)
        {
            return Err(corrupt("seed-index keys and postings disagree"));
        }
        let mut postings: Vec<(u32, u32)> = Vec::with_capacity(n_postings.min(1 << 26));
        // Key boundaries fall irregularly, so the two checks below
        // accumulate without branching: a branch taken at each key's
        // first posting mispredicts, and cost more than the reads.
        let (mut next_key, mut prev, mut outside, mut unordered) = (0, 0u64, false, false);
        for i in 0..n_postings {
            let seq = r32(r)?;
            let pos = r32(r)?;
            let Some(&len) = lengths.get(seq as usize) else {
                return Err(corrupt("seed-index posting references unknown sequence"));
            };
            outside |= u64::from(pos) + word_len as u64 > u64::from(len);
            // `(seq, pos)` as one number: within a key each posting
            // must be above the one before it.
            let here = (u64::from(seq) << 32) | u64::from(pos);
            let first_of_key = keys.get(next_key).is_some_and(|&(_, s)| s as usize == i);
            next_key += usize::from(first_of_key);
            unordered |= !first_of_key & (here <= prev);
            prev = here;
            postings.push((seq, pos));
        }
        if outside {
            return Err(corrupt("seed-index posting lies outside its sequence"));
        }
        if unordered {
            return Err(corrupt("seed-index postings not strictly ascending"));
        }
        Ok(SeedIndex::with_buckets(word_len, keys, postings))
    }
}

// ---------------------------------------------------------------------------
// Builder.
// ---------------------------------------------------------------------------

/// Directory entry for one shard (a contiguous run of length-sorted
/// sequences whose packed residues live together on disk).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInfo {
    /// Absolute file offset of the shard's packed residue data.
    pub data_offset: u64,
    /// Packed data length in bytes.
    pub data_len: u64,
    /// FNV-1a checksum of the packed data.
    pub checksum: u64,
    /// Global index of the shard's first sequence.
    pub seq_start: usize,
    /// Number of sequences in the shard.
    pub seq_count: usize,
    /// Shortest sequence length in the shard.
    pub min_len: u32,
    /// Longest sequence length in the shard.
    pub max_len: u32,
    /// Total residues in the shard.
    pub residues: u64,
    /// Per-residue counts — the Karlin-Altschul background
    /// composition of this shard.
    pub composition: [u64; AminoAcid::COUNT],
}

/// Summary returned by a successful [`IndexBuilder::write`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildReport {
    /// Total bytes written.
    pub bytes_written: u64,
    /// Sequences indexed.
    pub seq_count: usize,
    /// Total residues indexed.
    pub total_residues: u64,
    /// Shards created.
    pub shard_count: usize,
    /// Distinct seed words.
    pub unique_words: usize,
    /// Seed postings (≈ indexable residue positions).
    pub postings: usize,
}

/// Builds the on-disk database: length-sorts the input, cuts shards,
/// packs residues, and writes the seed index.
///
/// The byte output is fully deterministic in the input sequences and
/// builder parameters.
#[derive(Debug, Clone)]
pub struct IndexBuilder {
    word_len: usize,
    shard_residues: usize,
}

impl IndexBuilder {
    /// A builder with [`DEFAULT_WORD_LEN`] / [`DEFAULT_SHARD_RESIDUES`].
    pub fn new() -> Self {
        IndexBuilder {
            word_len: DEFAULT_WORD_LEN,
            shard_residues: DEFAULT_SHARD_RESIDUES,
        }
    }

    /// Sets the seed-word length (protein alphabet, `1..=7`).
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside `1..=7`.
    pub fn word_len(mut self, k: usize) -> Self {
        assert!((1..=7).contains(&k), "word length must be 1..=7");
        self.word_len = k;
        self
    }

    /// Sets the target shard size in residues (each shard holds at
    /// least one sequence regardless).
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    pub fn shard_residues(mut self, n: usize) -> Self {
        assert!(n > 0, "shard size must be positive");
        self.shard_residues = n;
        self
    }

    /// Length-sorts `sequences` the way the builder will store them:
    /// ascending length, ties in input order. The returned indices map
    /// database order → input order.
    pub fn sorted_order(sequences: &[Sequence]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..sequences.len()).collect();
        order.sort_by_key(|&i| sequences[i].len());
        order
    }

    /// Writes the complete database to `w`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidIndex`] if a sequence id or description exceeds
    /// 65,535 bytes or the input has ≥ 2³² sequences; [`Error::Io`] on
    /// write failure.
    pub fn write<W: Write>(&self, sequences: &[Sequence], w: W) -> Result<BuildReport> {
        if sequences.len() >= u32::MAX as usize {
            return Err(corrupt("too many sequences for the index format"));
        }
        let order = Self::sorted_order(sequences);
        let sorted: Vec<&Sequence> = order.iter().map(|&i| &sequences[i]).collect();
        let total_residues: u64 = sorted.iter().map(|s| s.len() as u64).sum();

        // Cut shards over the sorted run.
        let mut shards: Vec<ShardInfo> = Vec::new();
        {
            let mut start = 0usize;
            while start < sorted.len() {
                let mut end = start;
                let mut residues = 0u64;
                let mut composition = [0u64; AminoAcid::COUNT];
                let mut min_len = u32::MAX;
                let mut max_len = 0u32;
                while end < sorted.len()
                    && (end == start || (residues as usize) < self.shard_residues)
                {
                    let s = sorted[end];
                    residues += s.len() as u64;
                    for aa in s.iter() {
                        composition[aa.index()] += 1;
                    }
                    min_len = min_len.min(s.len() as u32);
                    max_len = max_len.max(s.len() as u32);
                    end += 1;
                }
                let data_len: u64 = sorted[start..end]
                    .iter()
                    .map(|s| packed_len(s.len()) as u64)
                    .sum();
                shards.push(ShardInfo {
                    data_offset: 0, // fixed up below
                    data_len,
                    checksum: 0, // computed while packing
                    seq_start: start,
                    seq_count: end - start,
                    min_len: if min_len == u32::MAX { 0 } else { min_len },
                    max_len,
                    residues,
                    composition,
                });
                start = end;
            }
        }

        let seed = SeedIndex::build(sorted.iter().map(|s| s.residues()), self.word_len);

        // Metadata sizes, so shard data offsets are known up front.
        let header_len = 40u64;
        let lengths_len = 4 * sorted.len() as u64;
        let mut ids_len = 0u64;
        for s in &sorted {
            if s.id().len() > u16::MAX as usize || s.description().len() > u16::MAX as usize {
                return Err(corrupt(format!(
                    "sequence id/description too long: {}",
                    s.id()
                )));
            }
            ids_len += 4 + s.id().len() as u64 + s.description().len() as u64;
        }
        let dir_len = shards.len() as u64 * SHARD_DIR_ENTRY_LEN;
        let seed_len = seed.byte_len();
        let mut data_offset = header_len + lengths_len + ids_len + dir_len + seed_len;
        for shard in &mut shards {
            shard.data_offset = data_offset;
            data_offset += shard.data_len;
        }
        let bytes_written = data_offset;

        // Pack shard data (and checksums) before writing the directory.
        let mut packed: Vec<Vec<u8>> = Vec::with_capacity(shards.len());
        for shard in &mut shards {
            let mut blob = Vec::with_capacity(shard.data_len as usize);
            for s in &sorted[shard.seq_start..shard.seq_start + shard.seq_count] {
                pack_into(&mut blob, s.residues());
            }
            debug_assert_eq!(blob.len() as u64, shard.data_len);
            shard.checksum = fnv1a(&blob, FNV_OFFSET);
            packed.push(blob);
        }

        let mut w = BufWriter::new(w);
        w.write_all(&MAGIC)?;
        w32(&mut w, FORMAT_VERSION)?;
        w32(&mut w, self.word_len as u32)?;
        w32(&mut w, shards.len() as u32)?;
        w32(&mut w, 0)?; // reserved
        w64(&mut w, sorted.len() as u64)?;
        w64(&mut w, total_residues)?;
        for s in &sorted {
            w32(&mut w, s.len() as u32)?;
        }
        for s in &sorted {
            w16(&mut w, s.id().len() as u16)?;
            w.write_all(s.id().as_bytes())?;
            w16(&mut w, s.description().len() as u16)?;
            w.write_all(s.description().as_bytes())?;
        }
        for shard in &shards {
            w64(&mut w, shard.data_offset)?;
            w64(&mut w, shard.data_len)?;
            w64(&mut w, shard.checksum)?;
            w64(&mut w, shard.residues)?;
            w32(&mut w, shard.seq_start as u32)?;
            w32(&mut w, shard.seq_count as u32)?;
            w32(&mut w, shard.min_len)?;
            w32(&mut w, shard.max_len)?;
            for &c in &shard.composition {
                w64(&mut w, c)?;
            }
        }
        seed.write_to(&mut w)?;
        for blob in &packed {
            w.write_all(blob)?;
        }
        w.flush()?;

        Ok(BuildReport {
            bytes_written,
            seq_count: sorted.len(),
            total_residues,
            shard_count: shards.len(),
            unique_words: seed.unique_words(),
            postings: seed.posting_count(),
        })
    }

    /// [`IndexBuilder::write`] to a file path.
    pub fn write_file(
        &self,
        sequences: &[Sequence],
        path: impl AsRef<Path>,
    ) -> Result<BuildReport> {
        let file = File::create(path)?;
        self.write(sequences, file)
    }
}

impl Default for IndexBuilder {
    fn default() -> Self {
        IndexBuilder::new()
    }
}

/// Bytes per shard-directory entry: 4×u64 + 4×u32 + 24×u64 composition.
const SHARD_DIR_ENTRY_LEN: u64 = 8 * 4 + 4 * 4 + 8 * (AminoAcid::COUNT as u64);

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

/// Reusable decode buffer for the sequences of one read: residues plus
/// per-sequence boundaries. Reusing one `ShardBuf` across
/// [`IndexReader::read_shard`] and [`IndexReader::read_sequences`]
/// calls makes a database scan allocation-free after the largest read.
#[derive(Debug, Clone, Default)]
pub struct ShardBuf {
    residues: Vec<AminoAcid>,
    bounds: Vec<usize>,
}

impl ShardBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        ShardBuf::default()
    }

    /// Sequences currently decoded.
    pub fn seq_count(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// The residues of the `local`-th decoded sequence: the shard's
    /// `local`-th sequence after [`IndexReader::read_shard`], the
    /// `local`-th listed one after [`IndexReader::read_sequences`].
    ///
    /// # Panics
    ///
    /// Panics if `local >= seq_count()`.
    pub fn sequence(&self, local: usize) -> &[AminoAcid] {
        &self.residues[self.bounds[local]..self.bounds[local + 1]]
    }

    fn clear(&mut self) {
        self.residues.clear();
        self.bounds.clear();
        self.bounds.push(0);
    }
}

/// Reader over an on-disk database. Opening it loads the metadata
/// (lengths, ids, shard directory, seed index). Each shard's packed
/// blob is read and checksum-verified the first time a read needs it
/// and kept from then on, so every later read of that shard decodes
/// from memory. Reads decode into a caller-owned [`ShardBuf`]: a whole
/// shard ([`IndexReader::read_shard`]) or only the listed sequences of
/// one ([`IndexReader::read_sequences`]).
#[derive(Debug)]
pub struct IndexReader<R> {
    src: R,
    word_len: usize,
    seq_count: usize,
    total_residues: u64,
    lengths: Vec<u32>,
    /// Byte offset of each sequence's packed residues inside its
    /// shard's blob (every sequence starts on a byte boundary).
    packed_at: Vec<usize>,
    names: Vec<(String, String)>,
    shards: Vec<ShardInfo>,
    /// Each shard's packed blob, kept once its checksum has passed.
    blobs: Vec<Option<Box<[u8]>>>,
    seed: SeedIndex,
}

impl IndexReader<BufReader<File>> {
    /// Opens a database file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::from_reader(BufReader::new(File::open(path)?))
    }
}

impl<R: Read + Seek> IndexReader<R> {
    /// Parses the metadata sections of `src` and validates their
    /// structure. Sequence data is *not* read: a shard's blob is read
    /// and checksummed by the first read that needs it.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidIndex`] on bad magic, version, or any structural
    /// inconsistency; [`Error::Io`] on read failure.
    pub fn from_reader(mut src: R) -> Result<Self> {
        let mut magic = [0u8; 8];
        src.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(corrupt("not a SAPA database (bad magic)"));
        }
        let version = r32(&mut src)?;
        if version != FORMAT_VERSION {
            return Err(corrupt(format!(
                "unsupported format version {version} (expected {FORMAT_VERSION})"
            )));
        }
        let word_len = r32(&mut src)? as usize;
        if !(1..=7).contains(&word_len) {
            return Err(corrupt(format!("invalid word length {word_len}")));
        }
        let shard_count = r32(&mut src)? as usize;
        let _reserved = r32(&mut src)?;
        let seq_count = r64(&mut src)? as usize;
        let total_residues = r64(&mut src)?;
        if seq_count == 0 && shard_count != 0 {
            return Err(corrupt("shards present but no sequences"));
        }

        let mut lengths = Vec::with_capacity(seq_count.min(1 << 24));
        for _ in 0..seq_count {
            lengths.push(r32(&mut src)?);
        }
        if lengths.iter().map(|&l| l as u64).sum::<u64>() != total_residues {
            return Err(corrupt("length table does not sum to total residues"));
        }
        if lengths.windows(2).any(|w| w[0] > w[1]) {
            return Err(corrupt("sequences are not length-sorted"));
        }

        let mut names = Vec::with_capacity(seq_count.min(1 << 24));
        for _ in 0..seq_count {
            let id_len = r16(&mut src)? as usize;
            let mut id = vec![0u8; id_len];
            src.read_exact(&mut id)?;
            let desc_len = r16(&mut src)? as usize;
            let mut desc = vec![0u8; desc_len];
            src.read_exact(&mut desc)?;
            let id = String::from_utf8(id).map_err(|_| corrupt("sequence id is not UTF-8"))?;
            let desc = String::from_utf8(desc).map_err(|_| corrupt("description is not UTF-8"))?;
            names.push((id, desc));
        }

        let mut shards = Vec::with_capacity(shard_count);
        let mut packed_at = Vec::with_capacity(lengths.len());
        let mut expect_start = 0usize;
        for _ in 0..shard_count {
            let data_offset = r64(&mut src)?;
            let data_len = r64(&mut src)?;
            let checksum = r64(&mut src)?;
            let residues = r64(&mut src)?;
            let seq_start = r32(&mut src)? as usize;
            let shard_seqs = r32(&mut src)? as usize;
            let min_len = r32(&mut src)?;
            let max_len = r32(&mut src)?;
            let mut composition = [0u64; AminoAcid::COUNT];
            for c in composition.iter_mut() {
                *c = r64(&mut src)?;
            }
            if seq_start != expect_start || shard_seqs == 0 {
                return Err(corrupt("shard directory does not tile the database"));
            }
            expect_start += shard_seqs;
            if expect_start > seq_count {
                return Err(corrupt("shard directory exceeds the sequence count"));
            }
            let span = &lengths[seq_start..seq_start + shard_seqs];
            if span.iter().map(|&l| l as u64).sum::<u64>() != residues
                || composition.iter().sum::<u64>() != residues
                || span
                    .iter()
                    .map(|&l| packed_len(l as usize) as u64)
                    .sum::<u64>()
                    != data_len
            {
                return Err(corrupt("shard directory entry is inconsistent"));
            }
            let mut at = 0usize;
            for &len in span {
                packed_at.push(at);
                at += packed_len(len as usize);
            }
            shards.push(ShardInfo {
                data_offset,
                data_len,
                checksum,
                seq_start,
                seq_count: shard_seqs,
                min_len,
                max_len,
                residues,
                composition,
            });
        }
        if expect_start != seq_count {
            return Err(corrupt("shard directory does not cover every sequence"));
        }

        let seed = SeedIndex::read_from(&mut src, word_len, &lengths)?;

        Ok(IndexReader {
            src,
            word_len,
            seq_count,
            total_residues,
            lengths,
            packed_at,
            names,
            blobs: vec![None; shards.len()],
            shards,
            seed,
        })
    }

    /// The indexed seed-word length.
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// Number of sequences in the database.
    pub fn seq_count(&self) -> usize {
        self.seq_count
    }

    /// Total residues in the database — the Karlin-Altschul search
    /// space, available without touching sequence data.
    pub fn total_residues(&self) -> u64 {
        self.total_residues
    }

    /// Per-sequence lengths in database (length-sorted) order.
    pub fn lengths(&self) -> &[u32] {
        &self.lengths
    }

    /// The id of sequence `seq`.
    pub fn id(&self, seq: usize) -> &str {
        &self.names[seq].0
    }

    /// The description of sequence `seq`.
    pub fn description(&self, seq: usize) -> &str {
        &self.names[seq].1
    }

    /// The shard directory.
    pub fn shards(&self) -> &[ShardInfo] {
        &self.shards
    }

    /// The shard holding sequence `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of bounds.
    pub fn shard_of(&self, seq: usize) -> usize {
        assert!(seq < self.seq_count, "sequence index out of bounds");
        match self.shards.binary_search_by_key(&seq, |s| s.seq_start) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// The seed index.
    pub fn seed_index(&self) -> &SeedIndex {
        &self.seed
    }

    /// Database-wide background residue frequencies (summed over
    /// shards), for Karlin-Altschul parameter estimation.
    pub fn background_frequencies(&self) -> [f64; AminoAcid::COUNT] {
        let mut counts = [0u64; AminoAcid::COUNT];
        for shard in &self.shards {
            for (acc, &c) in counts.iter_mut().zip(&shard.composition) {
                *acc += c;
            }
        }
        let total: u64 = counts.iter().sum();
        let mut freqs = [0.0; AminoAcid::COUNT];
        if total > 0 {
            for (f, &c) in freqs.iter_mut().zip(&counts) {
                *f = c as f64 / total as f64;
            }
        }
        freqs
    }

    /// Decodes shard `shard` into `buf`, replacing its contents:
    /// `buf.sequence(local)` is the shard's `local`-th sequence. This is
    /// [`IndexReader::read_sequences`] over every sequence of the shard,
    /// so the blob is checksum-verified before its first decode and a
    /// corrupted file yields [`Error::InvalidIndex`], never garbage
    /// residues or a panic.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of bounds.
    pub fn read_shard(&mut self, shard: usize, buf: &mut ShardBuf) -> Result<()> {
        let info = &self.shards[shard];
        let seqs = info.seq_start..info.seq_start + info.seq_count;
        self.read_sequences(shard, seqs, buf)
    }

    /// Decodes the listed sequences of shard `shard` into `buf`,
    /// replacing its contents: `buf.sequence(i)` is the `i`-th listed
    /// sequence. `seqs` are global (database-order) indices; listing
    /// them ascending keeps the decode a forward walk over the blob.
    ///
    /// The first read of a shard seeks to its blob, reads it and checks
    /// its FNV-1a checksum; the reader keeps the blob only once the
    /// check has passed, and decodes every later read of that shard from
    /// memory. A failed check is not remembered: every read of a
    /// corrupted shard re-reads it and fails again, and other shards are
    /// unaffected. On any error `buf` is left empty.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidIndex`] on a checksum mismatch or an invalid
    /// residue code; [`Error::Io`] on read failure.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of bounds or a listed sequence is not in
    /// it.
    pub fn read_sequences<I>(&mut self, shard: usize, seqs: I, buf: &mut ShardBuf) -> Result<()>
    where
        I: IntoIterator<Item = usize>,
    {
        buf.clear();
        self.verify(shard)?;
        let info = &self.shards[shard];
        let range = info.seq_start..info.seq_start + info.seq_count;
        let blob = self.blobs[shard].as_deref().expect("verified above");
        for seq in seqs {
            assert!(
                range.contains(&seq),
                "sequence {seq} is not in shard {shard}"
            );
            let len = self.lengths[seq] as usize;
            let at = self.packed_at[seq];
            if let Err(e) = unpack_into(&mut buf.residues, &blob[at..at + packed_len(len)], len) {
                buf.clear();
                return Err(e);
            }
            buf.bounds.push(buf.residues.len());
        }
        Ok(())
    }

    /// Reads shard `shard`'s blob and checks its checksum, unless an
    /// earlier read already kept it.
    fn verify(&mut self, shard: usize) -> Result<()> {
        if self.blobs[shard].is_some() {
            return Ok(());
        }
        let info = &self.shards[shard];
        let mut blob = vec![0u8; info.data_len as usize].into_boxed_slice();
        self.src.seek(SeekFrom::Start(info.data_offset))?;
        self.src.read_exact(&mut blob)?;
        if fnv1a(&blob, FNV_OFFSET) != info.checksum {
            return Err(corrupt(format!("shard {shard} checksum mismatch")));
        }
        self.blobs[shard] = Some(blob);
        Ok(())
    }

    /// Decodes the whole database back into owned [`Sequence`]s, in
    /// database (length-sorted) order. Convenience for tests, tools,
    /// and exhaustive-scan baselines — holds every residue decoded at
    /// once, on purpose.
    pub fn read_all(&mut self) -> Result<Vec<Sequence>> {
        let mut out = Vec::with_capacity(self.seq_count);
        let mut buf = ShardBuf::new();
        for shard in 0..self.shards.len() {
            self.read_shard(shard, &mut buf)?;
            let start = self.shards[shard].seq_start;
            for local in 0..buf.seq_count() {
                let (id, desc) = &self.names[start + local];
                out.push(Sequence::new(
                    id.clone(),
                    desc.clone(),
                    buf.sequence(local).to_vec(),
                ));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DatabaseBuilder;
    use crate::queries::QuerySet;
    use crate::rng::Xoshiro256;
    use std::collections::HashMap;
    use std::io::Cursor;

    fn build_bytes(seqs: &[Sequence], builder: &IndexBuilder) -> (Vec<u8>, BuildReport) {
        let mut out = Vec::new();
        let report = builder.write(seqs, &mut out).unwrap();
        (out, report)
    }

    #[test]
    fn packing_round_trips_every_symbol() {
        for len in [0usize, 1, 2, 7, 8, 9, 24, 100] {
            let residues: Vec<AminoAcid> = (0..len)
                .map(|i| AminoAcid::from_index(i % AminoAcid::COUNT).unwrap())
                .collect();
            let mut packed = Vec::new();
            pack_into(&mut packed, &residues);
            assert_eq!(packed.len(), packed_len(len));
            let mut back = Vec::new();
            unpack_into(&mut back, &packed, len).unwrap();
            assert_eq!(back, residues);
        }
    }

    #[test]
    fn unpack_rejects_truncated_and_invalid_codes() {
        let residues = vec![AminoAcid::Trp; 10];
        let mut packed = Vec::new();
        pack_into(&mut packed, &residues);
        let mut out = Vec::new();
        assert!(unpack_into(&mut out, &packed[..packed.len() - 1], 10).is_err());
        // Code 31 (0b11111) is not a residue.
        let bad = vec![0xff; 5];
        out.clear();
        assert!(unpack_into(&mut out, &bad, 8).is_err());
    }

    #[test]
    fn round_trip_through_the_format() {
        let db = DatabaseBuilder::new().seed(21).sequences(60).build();
        let (bytes, report) = build_bytes(db.sequences(), &IndexBuilder::new());
        assert_eq!(report.bytes_written as usize, bytes.len());
        assert_eq!(report.seq_count, 60);

        let mut reader = IndexReader::from_reader(Cursor::new(bytes)).unwrap();
        assert_eq!(reader.seq_count(), 60);
        assert_eq!(reader.total_residues(), db.total_residues() as u64);
        assert_eq!(reader.word_len(), DEFAULT_WORD_LEN);

        // Decoded contents equal the length-sorted input, ids included.
        let order = IndexBuilder::sorted_order(db.sequences());
        let sorted: Vec<Sequence> = order.iter().map(|&i| db.sequences()[i].clone()).collect();
        let back = reader.read_all().unwrap();
        assert_eq!(back, sorted);
    }

    #[test]
    fn shards_are_length_sorted_and_tile_the_database() {
        let db = DatabaseBuilder::new().seed(3).sequences(120).build();
        let builder = IndexBuilder::new().shard_residues(8 * 1024);
        let (bytes, report) = build_bytes(db.sequences(), &builder);
        assert!(report.shard_count > 1, "want multiple shards");

        let reader = IndexReader::from_reader(Cursor::new(bytes)).unwrap();
        let shards = reader.shards();
        let mut at = 0usize;
        let mut prev_max = 0u32;
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.seq_start, at, "shard {i}");
            assert!(s.min_len <= s.max_len);
            assert!(s.min_len >= prev_max.min(s.min_len));
            assert!(prev_max <= s.max_len, "length sorting broken at shard {i}");
            prev_max = s.max_len;
            at += s.seq_count;
            assert_eq!(
                s.composition.iter().sum::<u64>(),
                s.residues,
                "shard {i} composition"
            );
        }
        assert_eq!(at, reader.seq_count());
        // shard_of agrees with the directory.
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(reader.shard_of(s.seq_start), i);
            assert_eq!(reader.shard_of(s.seq_start + s.seq_count - 1), i);
        }
    }

    #[test]
    fn builder_output_is_deterministic() {
        let db = DatabaseBuilder::new().seed(9).sequences(40).build();
        let (a, _) = build_bytes(db.sequences(), &IndexBuilder::new());
        let (b, _) = build_bytes(db.sequences(), &IndexBuilder::new());
        assert_eq!(a, b);
    }

    #[test]
    fn empty_database_round_trips() {
        let (bytes, report) = build_bytes(&[], &IndexBuilder::new());
        assert_eq!(report.seq_count, 0);
        assert_eq!(report.shard_count, 0);
        let mut reader = IndexReader::from_reader(Cursor::new(bytes)).unwrap();
        assert_eq!(reader.seq_count(), 0);
        assert!(reader.read_all().unwrap().is_empty());
    }

    #[test]
    fn corrupted_bytes_error_instead_of_panicking() {
        let db = DatabaseBuilder::new().seed(5).sequences(25).build();
        let (bytes, _) = build_bytes(db.sequences(), &IndexBuilder::new());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(IndexReader::from_reader(Cursor::new(bad)).is_err());
        // Bad version.
        let mut bad = bytes.clone();
        bad[8] = 99;
        assert!(IndexReader::from_reader(Cursor::new(bad)).is_err());
        // Flip one bit in every byte position in the metadata region
        // and demand an error or a consistent reader — never a panic.
        for at in (0..bytes.len().min(2000)).step_by(37) {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            match IndexReader::from_reader(Cursor::new(bad)) {
                Ok(mut r) => {
                    // Metadata happened to stay structurally valid (or
                    // the flip hit sequence data); shard reads must
                    // still either succeed or error cleanly.
                    let mut buf = ShardBuf::new();
                    for s in 0..r.shards().len() {
                        let _ = r.read_shard(s, &mut buf);
                    }
                }
                Err(Error::InvalidIndex { .. }) | Err(Error::Io(_)) => {}
                Err(e) => panic!("unexpected error class: {e}"),
            }
        }
    }

    #[test]
    fn shard_data_corruption_is_caught_by_checksum() {
        let db = DatabaseBuilder::new().seed(6).sequences(20).build();
        let (bytes, _) = build_bytes(db.sequences(), &IndexBuilder::new());
        let reader = IndexReader::from_reader(Cursor::new(bytes.clone())).unwrap();
        let off = reader.shards()[0].data_offset as usize;
        let mut bad = bytes;
        bad[off + 3] ^= 0x40;
        let mut reader = IndexReader::from_reader(Cursor::new(bad)).unwrap();
        let mut buf = ShardBuf::new();
        let err = reader.read_shard(0, &mut buf).unwrap_err();
        assert!(matches!(err, Error::InvalidIndex { .. }), "{err}");
    }

    #[test]
    fn seed_index_finds_exact_words() {
        let seqs = [
            Sequence::from_str("a", "MKWVTFISLL").unwrap(),
            Sequence::from_str("b", "AAAAMKWVTAAAA").unwrap(),
            Sequence::from_str("c", "CCCCCCCC").unwrap(),
        ];
        let idx = SeedIndex::build(seqs.iter().map(|s| s.residues()), 5);
        let h = word_hash(&seqs[0].residues()[..5]).unwrap();
        let hits = idx.postings(h);
        // "MKWVT" occurs in a at 0 and b at 4.
        assert_eq!(hits, &[(0, 0), (1, 4)]);
        assert!(idx.unique_words() > 0);
    }

    #[test]
    fn ambiguity_codes_are_not_indexed() {
        let seqs = [Sequence::from_str("x", "MKXVTMKWVT").unwrap()];
        let idx = SeedIndex::build(seqs.iter().map(|s| s.residues()), 5);
        // Windows containing X (positions 0..=2 cover it) are skipped:
        // only MKWVT (pos 5) and the windows before it without X.
        for (h, _) in idx.keys.iter() {
            for &(_, pos) in idx.postings(*h) {
                let w = &seqs[0].residues()[pos as usize..pos as usize + 5];
                assert!(w.iter().all(|aa| aa.is_standard()));
            }
        }
    }

    #[test]
    fn candidates_require_a_shared_diagonal_word() {
        let query = QuerySet::paper().default_query().clone();
        let db = DatabaseBuilder::new()
            .seed(31)
            .sequences(80)
            .homolog_template(query.clone())
            .homolog_fraction(0.2)
            .build();
        let idx = SeedIndex::build(db.iter().map(|s| s.residues()), 5);
        let scan = idx.candidates(query.residues(), 1);
        assert!(scan.query_words > 0);
        assert!(!scan.candidates.is_empty());
        assert!(scan.candidates.len() < db.len(), "prefilter must prune");
        // Every planted homolog must survive seeding.
        let survivors: Vec<u32> = scan.candidates.iter().map(|c| c.seq).collect();
        for (i, s) in db.iter().enumerate() {
            if s.description().contains("homolog") {
                assert!(survivors.contains(&(i as u32)), "homolog {i} pruned");
            }
        }
        // Candidates are sorted and their seeds verifiable.
        assert!(survivors.windows(2).all(|w| w[0] < w[1]));
        for c in &scan.candidates {
            let subj = db.sequences()[c.seq as usize].residues();
            let q = &query.residues()[c.qpos as usize..c.qpos as usize + 5];
            let s = &subj[c.spos as usize..c.spos as usize + 5];
            assert_eq!(q, s, "recorded seed is not an exact match");
            assert!(c.seeds >= 1);
        }
    }

    #[test]
    fn two_hit_seeding_is_stricter() {
        let query = QuerySet::paper().default_query().clone();
        let db = DatabaseBuilder::new()
            .seed(33)
            .sequences(120)
            .homolog_template(query.clone())
            .homolog_fraction(0.1)
            .build();
        let idx = SeedIndex::build(db.iter().map(|s| s.residues()), 4);
        let one = idx.candidates(query.residues(), 1);
        let two = idx.candidates(query.residues(), 2);
        assert!(two.candidates.len() <= one.candidates.len());
        let one_set: Vec<u32> = one.candidates.iter().map(|c| c.seq).collect();
        for c in &two.candidates {
            assert!(one_set.contains(&c.seq));
            assert!(c.seeds >= 2);
        }
    }

    #[test]
    fn short_query_yields_no_words() {
        let idx = SeedIndex::build(
            [Sequence::from_str("a", "MKWVTFISLL").unwrap().residues()],
            5,
        );
        let scan = idx.candidates(&[AminoAcid::Met, AminoAcid::Lys], 1);
        assert_eq!(scan.query_words, 0);
        assert!(scan.candidates.is_empty());
    }

    #[test]
    fn seed_index_survives_serialization() {
        let db = DatabaseBuilder::new().seed(13).sequences(30).build();
        let (bytes, _) = build_bytes(db.sequences(), &IndexBuilder::new().word_len(4));
        let reader = IndexReader::from_reader(Cursor::new(bytes)).unwrap();
        let order = IndexBuilder::sorted_order(db.sequences());
        let sorted: Vec<&[AminoAcid]> = order
            .iter()
            .map(|&i| db.sequences()[i].residues())
            .collect();
        let rebuilt = SeedIndex::build(sorted.iter().copied(), 4);
        assert_eq!(reader.seed_index(), &rebuilt);
    }

    #[test]
    fn background_frequencies_sum_to_one() {
        let db = DatabaseBuilder::new().seed(17).sequences(50).build();
        let (bytes, _) = build_bytes(db.sequences(), &IndexBuilder::new());
        let reader = IndexReader::from_reader(Cursor::new(bytes)).unwrap();
        let freqs = reader.background_frequencies();
        let sum: f64 = freqs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        // Leucine is the most common residue in SwissProt-like data.
        assert!(freqs[AminoAcid::Leu.index()] > freqs[AminoAcid::Trp.index()]);
    }

    #[test]
    fn file_round_trip() {
        let db = DatabaseBuilder::new().seed(23).sequences(35).build();
        let dir = std::env::temp_dir().join("sapa_index_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.sapadb");
        let report = IndexBuilder::new()
            .write_file(db.sequences(), &path)
            .unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            report.bytes_written
        );
        let mut reader = IndexReader::open(&path).unwrap();
        assert_eq!(reader.seq_count(), 35);
        assert_eq!(reader.read_all().unwrap().len(), 35);
        std::fs::remove_file(&path).ok();
    }

    /// The full binary search over every key that the bucket table
    /// replaced.
    fn postings_oracle(idx: &SeedIndex, hash: u32) -> &[(u32, u32)] {
        match idx.keys.binary_search_by_key(&hash, |&(h, _)| h) {
            Ok(i) => {
                let start = idx.keys[i].1 as usize;
                let end = idx
                    .keys
                    .get(i + 1)
                    .map_or(idx.postings.len(), |&(_, s)| s as usize);
                &idx.postings[start..end]
            }
            Err(_) => &[],
        }
    }

    /// The two-`HashMap` seed scan that the sort-based
    /// [`SeedIndex::candidates`] replaced: its output must stay equal
    /// to this bit for bit.
    fn candidates_oracle(idx: &SeedIndex, query: &[AminoAcid], min_diag_seeds: u32) -> SeedScan {
        let k = idx.word_len();
        let mut query_words = 0usize;
        // (seq, diagonal) → (count, qpos, spos of first seed).
        let mut diags: HashMap<(u32, u32), (u32, u32, u32)> = HashMap::new();
        if query.len() >= k {
            for qpos in 0..=(query.len() - k) {
                let Some(h) = word_hash(&query[qpos..qpos + k]) else {
                    continue;
                };
                query_words += 1;
                for &(seq, spos) in postings_oracle(idx, h) {
                    let diag = spos + query.len() as u32 - qpos as u32;
                    let entry = diags.entry((seq, diag)).or_insert((0, qpos as u32, spos));
                    entry.0 += 1;
                }
            }
        }
        // Best diagonal per sequence: more seeds, then lower diagonal.
        let mut best: HashMap<u32, (u32, u32, u32, u32)> = HashMap::new();
        for (&(seq, diag), &(count, qpos, spos)) in &diags {
            let cand = (count, diag, qpos, spos);
            match best.get_mut(&seq) {
                None => {
                    best.insert(seq, cand);
                }
                Some(cur) => {
                    if count > cur.0 || (count == cur.0 && diag < cur.1) {
                        *cur = cand;
                    }
                }
            }
        }
        let mut candidates: Vec<SeedCandidate> = best
            .into_iter()
            .filter(|&(_, (count, _, _, _))| count >= min_diag_seeds)
            .map(|(seq, (seeds, _, qpos, spos))| SeedCandidate {
                seq,
                seeds,
                qpos,
                spos,
            })
            .collect();
        candidates.sort_unstable_by_key(|c| c.seq);
        SeedScan {
            candidates,
            query_words,
        }
    }

    /// Residues from a narrow alphabet, so words repeat and diagonals
    /// collect several seeds; one residue in `ambiguous` is `X`.
    fn narrow_residues(
        rng: &mut Xoshiro256,
        len: usize,
        symbols: u64,
        ambiguous: u64,
    ) -> Vec<AminoAcid> {
        (0..len)
            .map(|_| {
                if ambiguous > 0 && rng.next_below(ambiguous) == 0 {
                    AminoAcid::Xaa
                } else {
                    AminoAcid::from_index(rng.next_below(symbols) as usize).unwrap()
                }
            })
            .collect()
    }

    #[test]
    fn candidates_equal_the_hashmap_oracle() {
        let mut rng = Xoshiro256::new(0x5EED_CA7D);
        let mut scans = 0;
        for word_len in 1..=7 {
            for corpus in 0..6 {
                // Narrow alphabets give long seed runs, wide ones sparse hits.
                let symbols = [2, 3, 4, 6, 20, 20][corpus];
                let seqs: Vec<Vec<AminoAcid>> = (0..24)
                    .map(|_| {
                        let len = rng.next_below(70) as usize;
                        narrow_residues(&mut rng, len, symbols, 25)
                    })
                    .collect();
                let idx = SeedIndex::build(seqs.iter().map(|s| &s[..]), word_len);
                for q in 0..8 {
                    let query = match q {
                        // Shorter than the word, then exactly one word.
                        0 => narrow_residues(&mut rng, word_len - 1, symbols, 0),
                        1 => narrow_residues(&mut rng, word_len, symbols, 0),
                        // A repeated word.
                        2 => seqs[0]
                            .iter()
                            .take(word_len)
                            .copied()
                            .cycle()
                            .take(40)
                            .collect(),
                        // A database sequence itself, ambiguity codes included.
                        3 => seqs[rng.next_below(24) as usize].clone(),
                        _ => {
                            let len = rng.next_below(60) as usize;
                            narrow_residues(&mut rng, len, symbols, 8)
                        }
                    };
                    for min_diag_seeds in 1..=3 {
                        assert_eq!(
                            idx.candidates(&query, min_diag_seeds),
                            candidates_oracle(&idx, &query, min_diag_seeds),
                            "k={word_len} corpus={corpus} query={q} min={min_diag_seeds}"
                        );
                        scans += 1;
                    }
                }
            }
        }
        assert_eq!(scans, 7 * 6 * 8 * 3);
    }

    #[test]
    fn candidates_equal_the_oracle_on_a_realistic_corpus() {
        let query = QuerySet::paper().default_query().clone();
        let db = DatabaseBuilder::new()
            .seed(37)
            .sequences(300)
            .homolog_template(query.clone())
            .build();
        let idx = SeedIndex::build(db.iter().map(|s| s.residues()), DEFAULT_WORD_LEN);
        for q in QuerySet::paper().queries() {
            for min_diag_seeds in 1..=3 {
                assert_eq!(
                    idx.candidates(q.residues(), min_diag_seeds),
                    candidates_oracle(&idx, q.residues(), min_diag_seeds),
                    "{} min={min_diag_seeds}",
                    q.id()
                );
            }
        }
    }

    #[test]
    fn bucket_lookup_equals_a_full_binary_search() {
        let mut rng = Xoshiro256::new(77);
        for word_len in 1..=7 {
            let seqs: Vec<Vec<AminoAcid>> = (0..20)
                .map(|_| narrow_residues(&mut rng, 80, 20, 30))
                .collect();
            let idx = SeedIndex::build(seqs.iter().map(|s| &s[..]), word_len);
            let words = 20u32.pow(word_len as u32);
            // Every present hash, a sample of absent ones, the range ends
            // and hashes no word can have.
            let probes = idx
                .keys
                .iter()
                .map(|&(h, _)| h)
                .chain((0..500).map(|_| rng.next_below(u64::from(words)) as u32))
                .chain([0, words - 1, words, words + 1, u32::MAX]);
            for h in probes {
                assert_eq!(
                    idx.postings(h),
                    postings_oracle(&idx, h),
                    "k={word_len} h={h}"
                );
            }
            assert_eq!(idx.buckets.last().copied(), Some(idx.keys.len() as u32));
        }
    }

    #[test]
    fn read_sequences_decodes_the_same_residues_as_read_shard() {
        let db = DatabaseBuilder::new().seed(19).sequences(90).build();
        let builder = IndexBuilder::new().shard_residues(6 * 1024);
        let (bytes, report) = build_bytes(db.sequences(), &builder);
        assert!(report.shard_count > 2, "want several shards");
        let mut reader = IndexReader::from_reader(Cursor::new(bytes)).unwrap();
        let mut rng = Xoshiro256::new(5);
        let (mut whole, mut part) = (ShardBuf::new(), ShardBuf::new());
        for shard in 0..reader.shards().len() {
            reader.read_shard(shard, &mut whole).unwrap();
            let (start, n) = (reader.shards()[shard].seq_start, whole.seq_count());
            assert_eq!(n, reader.shards()[shard].seq_count);
            let mut lists: Vec<Vec<usize>> = vec![vec![], vec![0], vec![n - 1], (0..n).collect()];
            for _ in 0..6 {
                lists.push((0..n).filter(|_| rng.next_below(3) == 0).collect());
            }
            for locals in lists {
                reader
                    .read_sequences(shard, locals.iter().map(|&l| start + l), &mut part)
                    .unwrap();
                assert_eq!(part.seq_count(), locals.len());
                for (i, &l) in locals.iter().enumerate() {
                    assert_eq!(part.sequence(i), whole.sequence(l), "shard {shard} seq {l}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "is not in shard")]
    fn read_sequences_rejects_a_sequence_of_another_shard() {
        let db = DatabaseBuilder::new().seed(19).sequences(90).build();
        let builder = IndexBuilder::new().shard_residues(6 * 1024);
        let (bytes, _) = build_bytes(db.sequences(), &builder);
        let mut reader = IndexReader::from_reader(Cursor::new(bytes)).unwrap();
        let outside = reader.shards()[1].seq_start;
        let _ = reader.read_sequences(0, [outside], &mut ShardBuf::new());
    }

    #[test]
    fn seed_index_structure_is_checked_at_open() {
        let db = DatabaseBuilder::new().seed(29).sequences(30).build();
        let (bytes, _) = build_bytes(db.sequences(), &IndexBuilder::new());
        let reader = IndexReader::from_reader(Cursor::new(bytes.clone())).unwrap();
        let idx = reader.seed_index();
        let (n, n_keys) = (idx.posting_count(), idx.unique_words());
        // The section is the key count, the `(hash, start)` keys, the
        // posting count and the `(seq, pos)` postings, right before the
        // first shard blob.
        let at = reader.shards()[0].data_offset as usize - 8 * n;
        let keys_at = at - 8 - 8 * n_keys;
        let word = |b: &[u8], i: usize| u32::from_le_bytes(b[i..i + 4].try_into().unwrap());
        let set = |b: &mut Vec<u8>, i: usize, v: u32| b[i..i + 4].copy_from_slice(&v.to_le_bytes());
        let rejects = |bad: Vec<u8>, what: &str| match IndexReader::from_reader(Cursor::new(bad)) {
            Err(Error::InvalidIndex { .. }) => {}
            Err(e) => panic!("{what}: wrong error class {e}"),
            Ok(_) => panic!("{what}: opened a corrupted seed index"),
        };

        // A word running past the end of its sequence.
        let mut bad = bytes.clone();
        let len = reader.lengths()[word(&bytes, at) as usize];
        set(&mut bad, at + 4, len + 1 - DEFAULT_WORD_LEN as u32);
        rejects(bad, "posting past its sequence");

        // Two postings of one key swapped, then one duplicated.
        let key = (0..n_keys)
            .find(|&i| {
                let end = idx.keys.get(i + 1).map_or(n, |&(_, s)| s as usize);
                end - idx.keys[i].1 as usize >= 2
            })
            .expect("some word occurs twice");
        let p = at + 8 * idx.keys[key].1 as usize;
        let mut bad = bytes.clone();
        bad[p..p + 8].copy_from_slice(&bytes[p + 8..p + 16]);
        bad[p + 8..p + 16].copy_from_slice(&bytes[p..p + 8]);
        rejects(bad, "postings out of order");
        let mut bad = bytes.clone();
        bad.copy_within(p..p + 8, p + 8);
        rejects(bad, "duplicate posting");

        // Key starts out of order, and a hash no word can have.
        let mut bad = bytes.clone();
        set(&mut bad, keys_at + 4, 1);
        rejects(bad, "first key not at posting 0");
        let mut bad = bytes.clone();
        let last_key = keys_at + 8 * (n_keys - 1);
        set(&mut bad, last_key, 20u32.pow(DEFAULT_WORD_LEN as u32));
        rejects(bad, "hash out of range");

        // The untouched bytes still open.
        assert!(IndexReader::from_reader(Cursor::new(bytes)).is_ok());
    }
}
