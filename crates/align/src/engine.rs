//! The unified alignment-engine layer: one search API over every
//! aligner in the crate.
//!
//! The paper's whole point is running the *same* database search
//! through very different implementations — scalar Smith-Waterman
//! (SSEARCH), anti-diagonal SIMD SW, FASTA, BLAST — and comparing how
//! they stress the machine. This module gives that comparison a single
//! programmable surface, the way SSW wraps SIMD Smith-Waterman in a
//! reusable library API:
//!
//! * [`AlignmentEngine`] — the backend trait: a name, a per-worker
//!   reusable workspace, and `score_one(workspace, subject)`. The
//!   engine itself holds the query-side context (query slice, striped
//!   profile, BLAST neighborhood index, FASTA k-tuple table), so it is
//!   built once per search and shared read-only across workers.
//! * [`SearchRequest`] / [`SearchResponse`] — the request/response
//!   types: query + matrix + gaps + `top_k`/`min_score` in, ranked
//!   [`RankedHit`]s (with Karlin-Altschul bit scores and E-values from
//!   [`crate::stats`]) plus [`RunStats`] out.
//! * [`Engine`] — the registry: all seven backends (`sw`, `sw-lazy`,
//!   `striped`, `vmx128`, `vmx256`, `fasta`, `blast`), selectable by
//!   name, mirroring `workloads::registry::Workload`.
//!
//! Exact engines (everything but `fasta`/`blast`) return bit-identical
//! scores to [`crate::sw::score`]; the heuristics return their own
//! reported scores (FASTA's `max(opt, initn)`, BLAST's best gapped /
//! ungapped extension). All engines run through the same chunked
//! parallel pipeline ([`crate::parallel::engine_search`]), so ranked
//! output is identical at any thread count.
//!
//! ```
//! use sapa_align::engine::{Engine, Prefilter, SearchRequest};
//! use sapa_bioseq::matrix::GapPenalties;
//! use sapa_bioseq::{Sequence, SubstitutionMatrix};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let query = Sequence::from_str("q", "MKWVTFISLLFLFSSAYSRGVFRRDAHKSE")?;
//! let subj = Sequence::from_str("s", "MKWVTFISLLFLFSSAYSRGVFRRDAHKSE")?;
//! let matrix = SubstitutionMatrix::blosum62();
//! let req = SearchRequest {
//!     query: query.residues(),
//!     matrix: &matrix,
//!     gaps: GapPenalties::paper(),
//!     top_k: 10,
//!     min_score: 25,
//!     deadline: None,
//!     report_alignments: false,
//!     prefilter: Prefilter::Off,
//! };
//! let subjects = [subj.residues()];
//! let engine = Engine::from_name("striped").unwrap();
//! let resp = engine.search(&req, &subjects, 1);
//! assert_eq!(resp.hits[0].seq_index, 0);
//! assert!(resp.hits[0].evalue < 1e-3);
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::sync::Arc;

use sapa_bioseq::matrix::GapPenalties;
use sapa_bioseq::profile::QueryProfile;
use sapa_bioseq::{AminoAcid, SubstitutionMatrix};

use crate::result::Alignment;
use crate::striped::{ByteWorkspace, Workspace as WordWorkspace};
use crate::{blast, fasta, parallel, simd_sw, stats, striped, sw};

/// A database-search backend: query-side context plus a scoring kernel.
///
/// Implementations hold everything derived from the query (the query
/// slice itself, a striped [`QueryProfile`], a BLAST [`blast::WordIndex`],
/// …) and are shared read-only across worker threads. Mutable
/// per-worker scratch lives in the associated [`Workspace`]: the
/// parallel pipeline builds one per worker via
/// [`workspace`](AlignmentEngine::workspace) and reuses it for every
/// subject that worker scores.
///
/// [`Workspace`]: AlignmentEngine::Workspace
pub trait AlignmentEngine: Sync {
    /// Per-worker reusable scratch state (row buffers, counters).
    type Workspace: Send;

    /// Stable engine name (`"sw"`, `"striped"`, …), matching
    /// [`Engine::name`] for registry engines.
    fn name(&self) -> &'static str;

    /// Builds one fresh per-worker workspace.
    fn workspace(&self) -> Self::Workspace;

    /// Scores one database subject against the engine's query context.
    fn score_one(&self, ws: &mut Self::Workspace, subject: &[AminoAcid]) -> i32;

    /// Subjects this workspace re-scored on a higher-precision fallback
    /// path (the striped engine's 8-bit overflow recovery); 0 for
    /// engines without such a path.
    fn rescored(&self, _ws: &Self::Workspace) -> usize {
        0
    }

    /// Deterministic work estimate for scoring a subject of
    /// `subject_len` residues, in DP cells (or an equivalent unit),
    /// used to resolve a [`Deadline::Cells`] budget into an admitted
    /// subject prefix. Taking only the length (not the residues) lets
    /// the indexed search path budget a scan from the on-disk length
    /// table without decoding any sequence data. Full-matrix engines
    /// override this with `query_len × subject_len`; the default is
    /// the subject length, the right scale for heuristics whose cost
    /// is dominated by the subject scan.
    fn cost_len(&self, subject_len: usize) -> u64 {
        subject_len.max(1) as u64
    }

    /// [`cost_len`](AlignmentEngine::cost_len) of a materialized
    /// subject.
    fn cost(&self, subject: &[AminoAcid]) -> u64 {
        self.cost_len(subject.len())
    }
}

/// A shared reference to an engine is itself an engine, so callers
/// holding one concrete engine (e.g. a server worker borrowing from a
/// registry) can wrap it in decorators like `FaultyEngine` that take
/// their inner engine by value.
impl<E: AlignmentEngine + ?Sized> AlignmentEngine for &E {
    type Workspace = E::Workspace;

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn workspace(&self) -> Self::Workspace {
        (**self).workspace()
    }

    fn score_one(&self, ws: &mut Self::Workspace, subject: &[AminoAcid]) -> i32 {
        (**self).score_one(ws, subject)
    }

    fn rescored(&self, ws: &Self::Workspace) -> usize {
        (**self).rescored(ws)
    }

    fn cost_len(&self, subject_len: usize) -> u64 {
        (**self).cost_len(subject_len)
    }

    fn cost(&self, subject: &[AminoAcid]) -> u64 {
        (**self).cost(subject)
    }
}

/// A latency bound for one ranked scan (see
/// [`crate::parallel::engine_search_bounded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deadline {
    /// Deterministic budget in engine cost units
    /// ([`AlignmentEngine::cost`], ≈ DP cells): the scan admits the
    /// longest subject prefix whose cumulative cost fits and scores
    /// exactly those subjects — identical output at any thread count.
    Cells(u64),
    /// Best-effort wall-clock cutoff: workers stop claiming subjects
    /// once the duration elapses. This bound is checked *between*
    /// subjects, never mid-kernel, so an expensive subject claimed just
    /// before the cutoff still runs to completion and the scan can
    /// overshoot the duration by up to one subject's scoring time.
    /// Coverage depends on scheduling, so two runs of the same request
    /// may cover different prefixes — results are *not* reproducible;
    /// prefer [`Deadline::Cells`] anywhere determinism matters. The
    /// response says which kind fired via
    /// [`SearchResponse::truncated_by`].
    Wall(std::time::Duration),
}

/// Which [`Deadline`] kind actually truncated a bounded scan.
///
/// Reported in [`SearchResponse::truncated_by`] so a partial response
/// can say *why* it is partial: a `Cells` truncation is deterministic
/// and will recur on every identical request, while a `Wall` truncation
/// is best-effort and may cover a different prefix on a retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeadlineKind {
    /// The deterministic [`Deadline::Cells`] budget was exhausted.
    Cells,
    /// The best-effort [`Deadline::Wall`] cutoff passed mid-scan.
    Wall,
}

impl DeadlineKind {
    /// Stable lowercase name (`"cells"` / `"wall"`), the spelling used
    /// by wire protocols and reports.
    pub fn name(self) -> &'static str {
        match self {
            DeadlineKind::Cells => "cells",
            DeadlineKind::Wall => "wall",
        }
    }
}

impl fmt::Display for DeadlineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Scalar Smith-Waterman (Gotoh affine gaps) — the rigorous reference.
pub struct SwEngine<'a> {
    query: &'a [AminoAcid],
    matrix: &'a SubstitutionMatrix,
    gaps: GapPenalties,
}

impl<'a> SwEngine<'a> {
    /// An engine scoring `query` against subjects under `matrix`/`gaps`.
    pub fn new(query: &'a [AminoAcid], matrix: &'a SubstitutionMatrix, gaps: GapPenalties) -> Self {
        SwEngine {
            query,
            matrix,
            gaps,
        }
    }
}

impl AlignmentEngine for SwEngine<'_> {
    type Workspace = ();

    fn name(&self) -> &'static str {
        "sw"
    }

    fn workspace(&self) -> Self::Workspace {}

    fn score_one(&self, _ws: &mut Self::Workspace, subject: &[AminoAcid]) -> i32 {
        sw::score(self.query, subject, self.matrix, self.gaps)
    }

    fn cost_len(&self, subject_len: usize) -> u64 {
        dp_cells(self.query.len(), subject_len)
    }
}

/// Full-matrix DP cost: `query_len × subject_len` cells (floored at 1
/// so empty sequences still make progress against a budget).
fn dp_cells(query_len: usize, subject_len: usize) -> u64 {
    (query_len.max(1) as u64) * (subject_len.max(1) as u64)
}

/// Scalar Smith-Waterman in the SSEARCH *lazy-F* formulation — same
/// scores as [`SwEngine`], different (branchier) inner loop.
pub struct SwLazyEngine<'a> {
    query: &'a [AminoAcid],
    matrix: &'a SubstitutionMatrix,
    gaps: GapPenalties,
}

impl<'a> SwLazyEngine<'a> {
    /// An engine scoring `query` against subjects under `matrix`/`gaps`.
    pub fn new(query: &'a [AminoAcid], matrix: &'a SubstitutionMatrix, gaps: GapPenalties) -> Self {
        SwLazyEngine {
            query,
            matrix,
            gaps,
        }
    }
}

impl AlignmentEngine for SwLazyEngine<'_> {
    type Workspace = ();

    fn name(&self) -> &'static str {
        "sw-lazy"
    }

    fn workspace(&self) -> Self::Workspace {}

    fn score_one(&self, _ws: &mut Self::Workspace, subject: &[AminoAcid]) -> i32 {
        sw::score_lazy_f(self.query, subject, self.matrix, self.gaps)
    }

    fn cost_len(&self, subject_len: usize) -> u64 {
        dp_cells(self.query.len(), subject_len)
    }
}

/// Wozniak-style anti-diagonal SIMD Smith-Waterman over `L` emulated
/// 16-bit lanes: `L = 8` models 128-bit Altivec (`vmx128`), `L = 16`
/// the paper's 256-bit extension (`vmx256`).
pub struct AntiDiagonalEngine<'a, const L: usize> {
    query: &'a [AminoAcid],
    matrix: &'a SubstitutionMatrix,
    gaps: GapPenalties,
}

impl<'a, const L: usize> AntiDiagonalEngine<'a, L> {
    /// An engine scoring `query` against subjects under `matrix`/`gaps`.
    pub fn new(query: &'a [AminoAcid], matrix: &'a SubstitutionMatrix, gaps: GapPenalties) -> Self {
        AntiDiagonalEngine {
            query,
            matrix,
            gaps,
        }
    }
}

impl<const L: usize> AlignmentEngine for AntiDiagonalEngine<'_, L> {
    type Workspace = ();

    fn name(&self) -> &'static str {
        match L {
            8 => "vmx128",
            16 => "vmx256",
            _ => "vmx",
        }
    }

    fn workspace(&self) -> Self::Workspace {}

    fn score_one(&self, _ws: &mut Self::Workspace, subject: &[AminoAcid]) -> i32 {
        simd_sw::score::<L>(self.query, subject, self.matrix, self.gaps)
    }

    fn cost_len(&self, subject_len: usize) -> u64 {
        dp_cells(self.query.len(), subject_len)
    }
}

/// Per-worker scratch for [`StripedEngine`]: reusable 8-bit and 16-bit
/// row buffers plus the worker's byte-overflow rescore counter.
#[derive(Debug, Clone, Default)]
pub struct StripedScratch<const LB: usize, const LW: usize> {
    bytes: ByteWorkspace<LB>,
    words: WordWorkspace<LW>,
    rescored: usize,
}

/// Farrar striped SIMD Smith-Waterman with the adaptive 8-bit-first /
/// 16-bit-rescore strategy. `LB`/`LW` are the byte/word lane counts of
/// one register width: `<16, 8>` for the 128-bit Altivec model, which
/// runs on SSE2 lanes on x86_64, `<32, 16>` for the paper's 256-bit
/// extension, on emulated lanes (see [`crate::striped`]).
pub struct StripedEngine<const LB: usize, const LW: usize> {
    profile: Arc<QueryProfile>,
    gaps: GapPenalties,
}

impl<const LB: usize, const LW: usize> StripedEngine<LB, LW> {
    /// Builds the query profile internally and wraps it in an engine.
    pub fn from_query(
        query: &[AminoAcid],
        matrix: &SubstitutionMatrix,
        gaps: GapPenalties,
    ) -> Self {
        Self::with_profile(QueryProfile::build_shared(query, matrix, LW), gaps)
    }

    /// Wraps an existing shared profile (e.g. from a
    /// [`sapa_bioseq::profile::ProfileCache`]) so repeated scans
    /// amortize the profile build.
    ///
    /// # Panics
    ///
    /// Panics if the profile's word lane count is not `LW`.
    pub fn with_profile(profile: Arc<QueryProfile>, gaps: GapPenalties) -> Self {
        assert_eq!(
            profile.word_lanes(),
            LW,
            "profile lane count does not match engine width"
        );
        StripedEngine { profile, gaps }
    }

    /// The shared query profile.
    pub fn profile(&self) -> &Arc<QueryProfile> {
        &self.profile
    }
}

impl<const LB: usize, const LW: usize> AlignmentEngine for StripedEngine<LB, LW> {
    type Workspace = StripedScratch<LB, LW>;

    fn name(&self) -> &'static str {
        match LB {
            16 => "striped",
            32 => "striped256",
            _ => "striped-wide",
        }
    }

    fn workspace(&self) -> Self::Workspace {
        StripedScratch::default()
    }

    fn score_one(&self, ws: &mut Self::Workspace, subject: &[AminoAcid]) -> i32 {
        match striped::score_bytes_with_profile::<LB>(
            &self.profile,
            subject,
            self.gaps,
            &mut ws.bytes,
        ) {
            Some(s) => s,
            None => {
                ws.rescored += 1;
                striped::score_with_profile::<LW>(&self.profile, subject, self.gaps, &mut ws.words)
            }
        }
    }

    fn rescored(&self, ws: &Self::Workspace) -> usize {
        ws.rescored
    }

    fn cost_len(&self, subject_len: usize) -> u64 {
        dp_cells(self.profile.query_len(), subject_len)
    }
}

/// FASTA heuristic (k-tuple diagonals, region joining, banded `opt`);
/// reports `max(opt, initn)` per subject, FASTA's ranking score.
pub struct FastaEngine<'a> {
    index: fasta::KtupIndex,
    matrix: &'a SubstitutionMatrix,
    gaps: GapPenalties,
    params: fasta::FastaParams,
}

impl<'a> FastaEngine<'a> {
    /// Builds the query k-tuple index with `params.ktup`.
    pub fn new(
        query: &[AminoAcid],
        matrix: &'a SubstitutionMatrix,
        gaps: GapPenalties,
        params: fasta::FastaParams,
    ) -> Self {
        FastaEngine {
            index: fasta::KtupIndex::build(query, params.ktup),
            matrix,
            gaps,
            params,
        }
    }

    /// The search parameters in effect.
    pub fn params(&self) -> &fasta::FastaParams {
        &self.params
    }
}

impl AlignmentEngine for FastaEngine<'_> {
    type Workspace = ();

    fn name(&self) -> &'static str {
        "fasta"
    }

    fn workspace(&self) -> Self::Workspace {}

    fn score_one(&self, _ws: &mut Self::Workspace, subject: &[AminoAcid]) -> i32 {
        let s = fasta::score_subject(&self.index, subject, self.matrix, self.gaps, &self.params);
        s.opt.max(s.initn)
    }
}

/// BLASTP heuristic (neighborhood index, two-hit seeding, X-drop
/// extension, banded gapped rescore).
pub struct BlastEngine<'a> {
    index: blast::WordIndex,
    matrix: &'a SubstitutionMatrix,
    gaps: GapPenalties,
    params: blast::BlastParams,
}

impl<'a> BlastEngine<'a> {
    /// Builds the neighborhood word index with `params.threshold`.
    pub fn new(
        query: &[AminoAcid],
        matrix: &'a SubstitutionMatrix,
        gaps: GapPenalties,
        params: blast::BlastParams,
    ) -> Self {
        BlastEngine {
            index: blast::WordIndex::build(query, matrix, params.threshold),
            matrix,
            gaps,
            params,
        }
    }

    /// The search parameters in effect.
    pub fn params(&self) -> &blast::BlastParams {
        &self.params
    }
}

impl AlignmentEngine for BlastEngine<'_> {
    type Workspace = ();

    fn name(&self) -> &'static str {
        "blast"
    }

    fn workspace(&self) -> Self::Workspace {}

    fn score_one(&self, _ws: &mut Self::Workspace, subject: &[AminoAcid]) -> i32 {
        blast::score_subject(&self.index, subject, self.matrix, self.gaps, &self.params)
    }
}

/// The candidate-pruning stage of an indexed search (see
/// [`Engine::search_indexed`] and [`crate::indexed`]).
///
/// Prefiltering applies only to searches over a prebuilt
/// [`sapa_bioseq::index`] database, whose on-disk k-mer seed index
/// makes candidate generation cheap; in-memory [`Engine::search`]
/// scans are always exhaustive and ignore this knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Prefilter {
    /// Score every subject — exhaustive scan, identical to the
    /// in-memory path over the same (length-sorted) database.
    #[default]
    Off,
    /// Seed-only pruning: a subject survives iff it shares at least
    /// `min_diag_seeds` exact seed words with the query on one
    /// diagonal. Subjects shorter than the indexed word length are
    /// admitted unconditionally (they can never be seeded), so with
    /// `min_diag_seeds == 1` every subject containing an exact query
    /// word survives — the filter is *exact* for any hit that shares
    /// one word, and the equivalence tests demand zero ranking misses
    /// at the default word size.
    Seed {
        /// Minimum same-diagonal seed words to survive (≥ 1; BLAST's
        /// two-hit heuristic is `2`).
        min_diag_seeds: u32,
    },
    /// Seed pruning plus a gapped X-drop extension gate
    /// ([`crate::xdrop::extend_seed`]) around each survivor's best
    /// seed. The extension score is a *lower bound* on the full
    /// Smith-Waterman score (it anchors the alignment through the
    /// seed), so gating on it is an explicitly **heuristic** mode: a
    /// subject whose true optimum avoids every seeded diagonal can be
    /// missed. Use it for BLAST-like throughput; use [`Prefilter::Seed`]
    /// when ranked output must match the exhaustive scan.
    SeedExtend {
        /// Minimum same-diagonal seed words to reach extension.
        min_diag_seeds: u32,
        /// X-drop parameter for the extension DP.
        x: i32,
        /// Minimum extension score to survive.
        min_extended: i32,
    },
}

impl Prefilter {
    /// The default *on* setting: single-seed pruning, exact for
    /// word-sharing hits.
    pub const DEFAULT_SEED: Prefilter = Prefilter::Seed { min_diag_seeds: 1 };
}

/// One database search, independent of the backend that runs it.
#[derive(Debug, Clone, Copy)]
pub struct SearchRequest<'a> {
    /// The query sequence.
    pub query: &'a [AminoAcid],
    /// Substitution matrix (the paper uses BLOSUM62).
    pub matrix: &'a SubstitutionMatrix,
    /// Affine gap penalties.
    pub gaps: GapPenalties,
    /// Number of ranked hits to keep (the paper's runs use `-b 500`).
    pub top_k: usize,
    /// Minimum raw score for a subject to be reported.
    pub min_score: i32,
    /// Optional latency bound. `None` scans the whole database; with a
    /// deadline the response may be partial (`completed == false`),
    /// covering a ranked prefix of the database.
    pub deadline: Option<Deadline>,
    /// Reconstruct full alignments (coordinates + CIGAR) for the
    /// reported hits via the three-pass striped traceback
    /// ([`crate::traceback`]). Score-only searches (`false`, the
    /// common case) pay nothing. Heuristic engines report approximate
    /// scores that no exact path can replay, so their hits keep
    /// `alignment: None` regardless of this flag.
    pub report_alignments: bool,
    /// Candidate pruning for indexed searches
    /// ([`Engine::search_indexed`]); ignored by in-memory
    /// [`Engine::search`], which is always exhaustive.
    pub prefilter: Prefilter,
}

/// One ranked hit with its significance statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedHit {
    /// Index of the subject in the searched database.
    pub seq_index: usize,
    /// Raw alignment score (matrix units).
    pub score: i32,
    /// Karlin-Altschul normalized bit score.
    pub bits: f64,
    /// Expected number of chance hits this good in the search space.
    pub evalue: f64,
    /// Full alignment (coordinates + CIGAR), present only when the
    /// request set [`SearchRequest::report_alignments`] and the engine
    /// is exact; `None` otherwise (and for hits whose traceback was
    /// quarantined by a panic).
    pub alignment: Option<Alignment>,
}

/// One subject removed from a scan because scoring it panicked.
///
/// Quarantine decisions are a function of the data alone, so the same
/// database and fault produce the same report at any thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// Index of the subject in the searched database.
    pub index: usize,
    /// The panic payload, rendered.
    pub cause: String,
}

/// Counters from one engine run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Subjects attempted (scored or quarantined). Equals the database
    /// size unless a [`Deadline`] cut the scan short.
    pub subjects: usize,
    /// Subjects re-scored on a higher-precision fallback path (striped
    /// engine's byte-overflow recovery; 0 for other engines).
    pub rescored: usize,
    /// Worker threads requested.
    pub threads: usize,
    /// Subjects whose scoring panicked, with causes, ascending by
    /// index; empty on a healthy run.
    pub quarantined: Vec<Quarantined>,
    /// Subjects skipped by an indexed search's [`Prefilter`] before
    /// any scoring ran; 0 for exhaustive scans.
    pub pruned: usize,
}

/// The ranked outcome of a [`SearchRequest`] run through one engine.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResponse {
    /// Which registry engine produced this response.
    pub engine: Engine,
    /// Ranked hits: descending score, ties by ascending subject index.
    pub hits: Vec<RankedHit>,
    /// Scan statistics.
    pub stats: RunStats,
    /// Whether the whole database was attempted; `false` means a
    /// [`Deadline`] cut the scan short and `hits` rank only the
    /// covered prefix.
    pub completed: bool,
    /// Which deadline kind truncated the scan — `Some` exactly when
    /// `completed` is `false`, distinguishing a deterministic
    /// [`DeadlineKind::Cells`] budget exhaustion from a best-effort
    /// [`DeadlineKind::Wall`] cutoff whose coverage is not
    /// reproducible.
    pub truncated_by: Option<DeadlineKind>,
    /// Subjects attempted (scored or quarantined) — the denominator
    /// for interpreting a partial response.
    pub coverage: usize,
}

impl SearchResponse {
    /// The best raw score, if any subject was reported.
    pub fn best_score(&self) -> Option<i32> {
        self.hits.first().map(|h| h.score)
    }
}

/// The engine registry: every backend selectable by name, mirroring
/// `workloads::registry::Workload`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Scalar Smith-Waterman (textbook Gotoh recurrence).
    Sw,
    /// Scalar Smith-Waterman, SSEARCH lazy-F formulation.
    SwLazy,
    /// Farrar striped SIMD, adaptive 8/16-bit, 128-bit width: SSE2
    /// lanes on x86_64, emulated lanes on other targets.
    Striped,
    /// Wozniak anti-diagonal SIMD, 128-bit (8 × 16-bit lanes).
    Vmx128,
    /// Wozniak anti-diagonal SIMD, 256-bit (16 × 16-bit lanes).
    Vmx256,
    /// FASTA heuristic (ktup 2).
    Fasta,
    /// BLASTP heuristic (two-hit, T = 11).
    Blast,
}

impl Engine {
    /// Every registered engine, in presentation order.
    pub const ALL: [Engine; 7] = [
        Engine::Sw,
        Engine::SwLazy,
        Engine::Striped,
        Engine::Vmx128,
        Engine::Vmx256,
        Engine::Fasta,
        Engine::Blast,
    ];

    /// The engine's registry name (what `--engine` accepts).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Sw => "sw",
            Engine::SwLazy => "sw-lazy",
            Engine::Striped => "striped",
            Engine::Vmx128 => "vmx128",
            Engine::Vmx256 => "vmx256",
            Engine::Fasta => "fasta",
            Engine::Blast => "blast",
        }
    }

    /// Looks an engine up by its registry name (ASCII case-insensitive).
    pub fn from_name(name: &str) -> Option<Engine> {
        Engine::ALL
            .into_iter()
            .find(|e| e.name().eq_ignore_ascii_case(name))
    }

    /// One-line description for help output.
    pub fn description(self) -> &'static str {
        match self {
            Engine::Sw => "scalar Smith-Waterman (Gotoh affine gaps)",
            Engine::SwLazy => "scalar Smith-Waterman, SSEARCH lazy-F loop",
            Engine::Striped => "Farrar striped SIMD SW, adaptive 8/16-bit, 128-bit, SSE2 on x86_64",
            Engine::Vmx128 => "anti-diagonal SIMD SW, 128-bit Altivec model",
            Engine::Vmx256 => "anti-diagonal SIMD SW, 256-bit extension",
            Engine::Fasta => "FASTA heuristic: ktup diagonals + banded opt",
            Engine::Blast => "BLASTP heuristic: two-hit seeding + X-drop",
        }
    }

    /// Whether the engine returns exact Smith-Waterman scores (the
    /// heuristics `fasta`/`blast` do not).
    pub fn is_exact(self) -> bool {
        !matches!(self, Engine::Fasta | Engine::Blast)
    }

    /// The registry-level mirror of [`AlignmentEngine::cost_len`]:
    /// the deterministic work estimate for scoring one `subject_len`
    /// subject with a `query_len` query, without building the engine.
    ///
    /// Exact engines pay the full DP matrix (`query_len × subject_len`
    /// cells); the heuristics are subject-scan dominated. Admission
    /// control prices whole requests from lengths alone with this, so
    /// a test pins it to the concrete engines' own `cost_len`.
    pub fn cost_len(self, query_len: usize, subject_len: usize) -> u64 {
        if self.is_exact() {
            dp_cells(query_len, subject_len)
        } else {
            subject_len.max(1) as u64
        }
    }

    /// Total [`Engine::cost_len`] of one ranked scan of a database
    /// whose subject lengths are `subject_lens` — the price an
    /// admission controller charges against its in-flight cell budget
    /// before the request runs. Saturates instead of overflowing.
    pub fn scan_cost(self, query_len: usize, subject_lens: impl IntoIterator<Item = usize>) -> u64 {
        subject_lens.into_iter().fold(0u64, |acc, l| {
            acc.saturating_add(self.cost_len(query_len, l))
        })
    }

    /// Builds this registry entry's concrete engine from `req`'s query
    /// context and hands it to `visitor` — the one place the
    /// enum-to-concrete-type dispatch lives, shared by every search
    /// front end ([`Engine::search`], [`Engine::search_indexed`]).
    pub fn dispatch<V: EngineVisitor>(self, req: &SearchRequest<'_>, visitor: V) -> V::Out {
        match self {
            Engine::Sw => visitor.visit(self, &SwEngine::new(req.query, req.matrix, req.gaps)),
            Engine::SwLazy => {
                visitor.visit(self, &SwLazyEngine::new(req.query, req.matrix, req.gaps))
            }
            Engine::Striped => visitor.visit(
                self,
                &StripedEngine::<16, 8>::from_query(req.query, req.matrix, req.gaps),
            ),
            Engine::Vmx128 => visitor.visit(
                self,
                &AntiDiagonalEngine::<8>::new(req.query, req.matrix, req.gaps),
            ),
            Engine::Vmx256 => visitor.visit(
                self,
                &AntiDiagonalEngine::<16>::new(req.query, req.matrix, req.gaps),
            ),
            Engine::Fasta => visitor.visit(
                self,
                &FastaEngine::new(
                    req.query,
                    req.matrix,
                    req.gaps,
                    fasta::FastaParams::default(),
                ),
            ),
            Engine::Blast => visitor.visit(
                self,
                &BlastEngine::new(
                    req.query,
                    req.matrix,
                    req.gaps,
                    blast::BlastParams::default(),
                ),
            ),
        }
    }

    /// Runs `req` against `subjects` on `threads` worker threads and
    /// returns the ranked, statistics-annotated response.
    ///
    /// Results are bit-identical for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `req.top_k` is 0.
    pub fn search(
        self,
        req: &SearchRequest<'_>,
        subjects: &[&[AminoAcid]],
        threads: usize,
    ) -> SearchResponse {
        struct Run<'r> {
            req: &'r SearchRequest<'r>,
            subjects: &'r [&'r [AminoAcid]],
            threads: usize,
        }
        impl EngineVisitor for Run<'_> {
            type Out = SearchResponse;
            fn visit<E: AlignmentEngine>(self, id: Engine, engine: &E) -> SearchResponse {
                search_with(id, engine, self.req, self.subjects, self.threads)
            }
        }
        self.dispatch(
            req,
            Run {
                req,
                subjects,
                threads,
            },
        )
    }

    /// Runs `req` against a prebuilt on-disk database
    /// ([`sapa_bioseq::index::IndexReader`]), applying
    /// [`SearchRequest::prefilter`] first and decoding only the subjects
    /// it keeps, one shard group at a time — see [`crate::indexed`] for
    /// the pipeline and its guarantees.
    ///
    /// Ranked hit indices refer to the database's (length-sorted)
    /// sequence order. This path is score-only:
    /// [`SearchRequest::report_alignments`] is ignored and hits carry
    /// `alignment: None` (the subjects are not resident once their
    /// shard group's buffer is reused).
    ///
    /// # Errors
    ///
    /// Propagates I/O and corruption errors from the reader.
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `req.top_k` is 0.
    pub fn search_indexed<R: std::io::Read + std::io::Seek>(
        self,
        req: &SearchRequest<'_>,
        db: &mut sapa_bioseq::index::IndexReader<R>,
        threads: usize,
    ) -> sapa_bioseq::Result<SearchResponse> {
        struct Run<'r, R> {
            req: &'r SearchRequest<'r>,
            db: &'r mut sapa_bioseq::index::IndexReader<R>,
            threads: usize,
        }
        impl<R: std::io::Read + std::io::Seek> EngineVisitor for Run<'_, R> {
            type Out = sapa_bioseq::Result<SearchResponse>;
            fn visit<E: AlignmentEngine>(self, id: Engine, engine: &E) -> Self::Out {
                crate::indexed::search_reader(id, engine, self.req, self.db, self.threads)
            }
        }
        self.dispatch(req, Run { req, db, threads })
    }
}

/// One generic visit over the concrete engine a registry entry names —
/// how [`Engine::dispatch`] lets front ends stay generic over
/// [`AlignmentEngine`] without repeating the seven-arm match.
pub trait EngineVisitor {
    /// What the visit produces.
    type Out;
    /// Called exactly once with the concrete engine for the entry.
    fn visit<E: AlignmentEngine>(self, id: Engine, engine: &E) -> Self::Out;
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs a *prepared* engine through the parallel pipeline and
/// annotates the ranked hits with Karlin-Altschul statistics — the
/// body behind [`Engine::search`], public so callers that build their
/// own engine value can reuse the whole response path: a server
/// handing a [`StripedEngine`] a cached profile, or a chaos harness
/// wrapping any registry engine in a fault-injecting decorator
/// (decorators preserve the inner engine's scores, so `id` still names
/// the backend the response came from).
///
/// # Panics
///
/// Panics if `threads` or `req.top_k` is 0.
pub fn search_with<E: AlignmentEngine>(
    id: Engine,
    engine: &E,
    req: &SearchRequest<'_>,
    subjects: &[&[AminoAcid]],
    threads: usize,
) -> SearchResponse {
    let scan = parallel::engine_search_bounded(
        engine,
        subjects,
        threads,
        req.top_k,
        req.min_score,
        req.deadline,
    );
    let ka = stats::KarlinAltschul::for_gaps(req.gaps);
    let db_residues: usize = subjects.iter().map(|s| s.len()).sum();
    // Heuristic engines report approximate scores no exact traceback
    // can replay, so alignments are reconstructed only for exact ones.
    let alignments = if req.report_alignments && id.is_exact() {
        parallel::align_hits::<8>(
            req.query,
            req.matrix,
            req.gaps,
            subjects,
            scan.results.hits(),
            threads,
        )
    } else {
        vec![None; scan.results.hits().len()]
    };
    let hits = annotate_hits(
        scan.results.hits(),
        alignments,
        &ka,
        req.query.len(),
        db_residues,
        subjects.len(),
    );
    let coverage = scan.stats.subjects;
    SearchResponse {
        engine: id,
        hits,
        stats: scan.stats,
        completed: scan.completed,
        truncated_by: scan.truncated_by,
        coverage,
    }
}

/// Decorates ranked raw-score hits with Karlin-Altschul bit scores and
/// E-values against a `db_residues` × `db_seqs` search space — shared
/// by the in-memory ([`respond`]) and indexed ([`crate::indexed`])
/// response paths so both report identical statistics.
pub(crate) fn annotate_hits(
    hits: &[crate::result::Hit],
    alignments: Vec<Option<Alignment>>,
    ka: &stats::KarlinAltschul,
    query_len: usize,
    db_residues: usize,
    db_seqs: usize,
) -> Vec<RankedHit> {
    hits.iter()
        .zip(alignments)
        .map(|(h, alignment)| RankedHit {
            seq_index: h.seq_index,
            score: h.score,
            bits: ka.bit_score(h.score),
            evalue: ka.evalue(h.score, query_len, db_residues, db_seqs),
            alignment,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapa_bioseq::db::DatabaseBuilder;
    use sapa_bioseq::queries::QuerySet;
    use sapa_bioseq::Sequence;

    fn small_setup() -> (Sequence, Vec<Sequence>) {
        let queries = QuerySet::paper();
        let query = queries.by_accession("P02232").unwrap().clone();
        let db = DatabaseBuilder::new()
            .seed(29)
            .sequences(20)
            .median_length(90.0)
            .homolog_template(query.clone())
            .homolog_fraction(0.2)
            .build();
        (query, db.sequences().to_vec())
    }

    #[test]
    fn registry_names_round_trip() {
        for e in Engine::ALL {
            assert_eq!(Engine::from_name(e.name()), Some(e));
            assert_eq!(Engine::from_name(&e.name().to_uppercase()), Some(e));
            assert_eq!(format!("{e}"), e.name());
            assert!(!e.description().is_empty());
        }
        assert_eq!(Engine::from_name("no-such-engine"), None);
    }

    #[test]
    fn engine_names_match_registry_names() {
        let q = QuerySet::paper().default_query().clone();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        assert_eq!(SwEngine::new(q.residues(), &m, g).name(), "sw");
        assert_eq!(SwLazyEngine::new(q.residues(), &m, g).name(), "sw-lazy");
        assert_eq!(
            StripedEngine::<16, 8>::from_query(q.residues(), &m, g).name(),
            "striped"
        );
        assert_eq!(
            AntiDiagonalEngine::<8>::new(q.residues(), &m, g).name(),
            "vmx128"
        );
        assert_eq!(
            AntiDiagonalEngine::<16>::new(q.residues(), &m, g).name(),
            "vmx256"
        );
        assert_eq!(
            FastaEngine::new(q.residues(), &m, g, fasta::FastaParams::default()).name(),
            "fasta"
        );
        assert_eq!(
            BlastEngine::new(q.residues(), &m, g, blast::BlastParams::default()).name(),
            "blast"
        );
    }

    #[test]
    fn exact_engines_match_scalar_reference() {
        let (query, db) = small_setup();
        let m = SubstitutionMatrix::blosum62();
        let req = SearchRequest {
            query: query.residues(),
            matrix: &m,
            gaps: GapPenalties::paper(),
            top_k: db.len(),
            min_score: 1,
            deadline: None,
            report_alignments: false,
            prefilter: Prefilter::Off,
        };
        let subjects: Vec<&[AminoAcid]> = db.iter().map(|s| s.residues()).collect();
        let reference = Engine::Sw.search(&req, &subjects, 1);
        for e in Engine::ALL.into_iter().filter(|e| e.is_exact()) {
            let resp = e.search(&req, &subjects, 1);
            assert_eq!(resp.hits, reference.hits, "engine {e}");
            assert_eq!(resp.engine, e);
        }
    }

    #[test]
    fn report_alignments_attaches_replayable_cigars() {
        let (query, db) = small_setup();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let subjects: Vec<&[AminoAcid]> = db.iter().map(|s| s.residues()).collect();
        let req = SearchRequest {
            query: query.residues(),
            matrix: &m,
            gaps: g,
            top_k: 5,
            min_score: 1,
            deadline: None,
            report_alignments: true,
            prefilter: Prefilter::Off,
        };
        for e in Engine::ALL {
            let resp = e.search(&req, &subjects, 2);
            for hit in &resp.hits {
                if e.is_exact() {
                    let al = hit
                        .alignment
                        .as_ref()
                        .unwrap_or_else(|| panic!("{e}: hit {} missing alignment", hit.seq_index));
                    assert_eq!(
                        al.replay_score(query.residues(), subjects[hit.seq_index], &m, g),
                        Some(hit.score),
                        "{e}: hit {}",
                        hit.seq_index
                    );
                } else {
                    // Heuristic scores are approximate — no CIGAR.
                    assert!(hit.alignment.is_none(), "{e}");
                }
            }
        }
        // Score-only searches attach nothing.
        let quiet_req = SearchRequest {
            report_alignments: false,
            prefilter: Prefilter::Off,
            ..req
        };
        let quiet = Engine::Striped.search(&quiet_req, &subjects, 1);
        assert!(!quiet.hits.is_empty());
        assert!(quiet.hits.iter().all(|h| h.alignment.is_none()));
    }

    #[test]
    fn evalues_decrease_with_score() {
        let (query, db) = small_setup();
        let m = SubstitutionMatrix::blosum62();
        let req = SearchRequest {
            query: query.residues(),
            matrix: &m,
            gaps: GapPenalties::paper(),
            top_k: 10,
            min_score: 1,
            deadline: None,
            report_alignments: false,
            prefilter: Prefilter::Off,
        };
        let subjects: Vec<&[AminoAcid]> = db.iter().map(|s| s.residues()).collect();
        let resp = Engine::Striped.search(&req, &subjects, 2);
        assert!(!resp.hits.is_empty());
        for pair in resp.hits.windows(2) {
            assert!(pair[0].score >= pair[1].score);
            assert!(pair[0].evalue <= pair[1].evalue);
            assert!(pair[0].bits >= pair[1].bits);
        }
        // A planted homolog must look significant in this search space.
        assert!(resp.hits[0].evalue < 1e-6, "E = {}", resp.hits[0].evalue);
        assert_eq!(resp.stats.subjects, subjects.len());
        assert_eq!(resp.stats.threads, 2);
    }

    #[test]
    fn min_score_filters_and_top_k_bounds() {
        let (query, db) = small_setup();
        let m = SubstitutionMatrix::blosum62();
        let subjects: Vec<&[AminoAcid]> = db.iter().map(|s| s.residues()).collect();
        let req = SearchRequest {
            query: query.residues(),
            matrix: &m,
            gaps: GapPenalties::paper(),
            top_k: 3,
            min_score: 60,
            deadline: None,
            report_alignments: false,
            prefilter: Prefilter::Off,
        };
        let resp = Engine::Sw.search(&req, &subjects, 1);
        assert!(resp.hits.len() <= 3);
        assert!(resp.hits.iter().all(|h| h.score >= 60));
    }

    #[test]
    fn full_scans_report_completion() {
        let (query, db) = small_setup();
        let m = SubstitutionMatrix::blosum62();
        let subjects: Vec<&[AminoAcid]> = db.iter().map(|s| s.residues()).collect();
        let req = SearchRequest {
            query: query.residues(),
            matrix: &m,
            gaps: GapPenalties::paper(),
            top_k: 10,
            min_score: 1,
            deadline: None,
            report_alignments: false,
            prefilter: Prefilter::Off,
        };
        let resp = Engine::Striped.search(&req, &subjects, 2);
        assert!(resp.completed);
        assert_eq!(resp.truncated_by, None);
        assert_eq!(resp.coverage, subjects.len());
        assert!(resp.stats.quarantined.is_empty());
    }

    #[test]
    fn registry_cost_len_matches_concrete_engines() {
        let (query, _) = small_setup();
        let m = SubstitutionMatrix::blosum62();
        struct Probe {
            subject_len: usize,
        }
        impl EngineVisitor for Probe {
            type Out = u64;
            fn visit<E: AlignmentEngine>(self, _id: Engine, engine: &E) -> u64 {
                engine.cost_len(self.subject_len)
            }
        }
        let req = SearchRequest {
            query: query.residues(),
            matrix: &m,
            gaps: GapPenalties::paper(),
            top_k: 1,
            min_score: 1,
            deadline: None,
            report_alignments: false,
            prefilter: Prefilter::Off,
        };
        for e in Engine::ALL {
            for subject_len in [0usize, 1, 17, 250] {
                assert_eq!(
                    e.cost_len(query.residues().len(), subject_len),
                    e.dispatch(&req, Probe { subject_len }),
                    "engine {e} subject_len {subject_len}"
                );
            }
            // scan_cost is the sum over a length table.
            let lens = [3usize, 40, 90];
            let total: u64 = lens
                .iter()
                .map(|&l| e.cost_len(query.residues().len(), l))
                .sum();
            assert_eq!(e.scan_cost(query.residues().len(), lens), total);
        }
    }

    #[test]
    fn cell_budget_yields_deterministic_partial_response() {
        let (query, db) = small_setup();
        let m = SubstitutionMatrix::blosum62();
        let subjects: Vec<&[AminoAcid]> = db.iter().map(|s| s.residues()).collect();
        // Admit roughly half the database by cumulative DP cost.
        let total: u64 = subjects
            .iter()
            .map(|s| (query.residues().len() * s.len()) as u64)
            .sum();
        let req = SearchRequest {
            query: query.residues(),
            matrix: &m,
            gaps: GapPenalties::paper(),
            top_k: db.len(),
            min_score: 1,
            deadline: Some(Deadline::Cells(total / 2)),
            report_alignments: false,
            prefilter: Prefilter::Off,
        };
        let one = Engine::Sw.search(&req, &subjects, 1);
        assert!(!one.completed);
        assert_eq!(one.truncated_by, Some(DeadlineKind::Cells));
        assert!(one.coverage > 0 && one.coverage < subjects.len());
        // Hits rank exactly the admitted prefix.
        assert!(one.hits.iter().all(|h| h.seq_index < one.coverage));
        for threads in [2, 4] {
            let mut resp = Engine::Sw.search(&req, &subjects, threads);
            resp.stats.threads = one.stats.threads;
            assert_eq!(resp, one, "threads={threads}");
        }
    }

    #[test]
    fn zero_budget_yields_empty_incomplete_response() {
        let (query, db) = small_setup();
        let m = SubstitutionMatrix::blosum62();
        let subjects: Vec<&[AminoAcid]> = db.iter().map(|s| s.residues()).collect();
        let req = SearchRequest {
            query: query.residues(),
            matrix: &m,
            gaps: GapPenalties::paper(),
            top_k: 5,
            min_score: 1,
            deadline: Some(Deadline::Cells(0)),
            report_alignments: false,
            prefilter: Prefilter::Off,
        };
        let resp = Engine::Sw.search(&req, &subjects, 2);
        assert!(!resp.completed);
        assert_eq!(resp.coverage, 0);
        assert!(resp.hits.is_empty());
    }

    #[test]
    fn wall_deadline_in_the_past_still_returns() {
        let (query, db) = small_setup();
        let m = SubstitutionMatrix::blosum62();
        let subjects: Vec<&[AminoAcid]> = db.iter().map(|s| s.residues()).collect();
        let req = SearchRequest {
            query: query.residues(),
            matrix: &m,
            gaps: GapPenalties::paper(),
            top_k: 5,
            min_score: 1,
            deadline: Some(Deadline::Wall(std::time::Duration::ZERO)),
            report_alignments: false,
            prefilter: Prefilter::Off,
        };
        let resp = Engine::Sw.search(&req, &subjects, 2);
        // An already-expired cutoff must degrade, not hang or panic.
        assert!(resp.coverage <= subjects.len());
        assert_eq!(resp.completed, resp.coverage == subjects.len());
        // The response names the wall deadline as the (only possible)
        // truncation cause exactly when coverage fell short.
        match resp.truncated_by {
            Some(DeadlineKind::Wall) => assert!(!resp.completed),
            None => assert!(resp.completed),
            Some(DeadlineKind::Cells) => panic!("no cell budget was set"),
        }
    }

    #[test]
    fn dp_engines_report_dp_costs() {
        let (query, _) = small_setup();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let subject = query.residues();
        let cells = (query.residues().len() * subject.len()) as u64;
        assert_eq!(SwEngine::new(query.residues(), &m, g).cost(subject), cells);
        assert_eq!(
            StripedEngine::<16, 8>::from_query(query.residues(), &m, g).cost(subject),
            cells
        );
        // Heuristics default to subject-linear cost.
        assert_eq!(
            BlastEngine::new(query.residues(), &m, g, blast::BlastParams::default()).cost(subject),
            subject.len() as u64
        );
    }
}
