//! Reference sequence-alignment algorithms.
//!
//! This crate implements, from scratch, every alignment method the paper
//! evaluates:
//!
//! * [`sw`] — Smith-Waterman local alignment with affine gaps (Gotoh),
//!   in three flavours: the textbook recurrence, a traceback-producing
//!   variant, and the SSEARCH-style *lazy-F* / computation-avoidance
//!   formulation whose data-dependent `if-then-else` chains are the
//!   source of SSEARCH34's branch-predictor pain in the paper;
//! * [`nw`] — Needleman-Wunsch global alignment (Gotoh affine gaps);
//! * [`banded`] — banded Smith-Waterman around a seed diagonal, the
//!   rescoring step of the FASTA and BLAST heuristics;
//! * [`simd_sw`] — the Wozniak-style anti-diagonal vectorized
//!   Smith-Waterman over emulated Altivec registers (128- or 256-bit),
//!   exactly score-equivalent to the scalar algorithm;
//! * [`blast`] — a BLASTP-like heuristic: neighborhood word index,
//!   two-hit seeding, X-drop ungapped extension, banded gapped
//!   rescoring;
//! * [`blastn`] — a blastn-like nucleotide search over 2-bit packed
//!   databases (the paper's Listing 1 hot loop);
//! * [`fasta`] — a FASTA-like heuristic: k-tuple lookup, diagonal
//!   scoring (`init1`/`initn`), banded optimization (`opt`);
//! * [`stats`] — Karlin-Altschul bit scores and E-values, the
//!   significance statistics real BLAST/SSEARCH report;
//! * [`engine`] — the unified [`engine::AlignmentEngine`] layer: one
//!   [`engine::SearchRequest`]/[`engine::SearchResponse`] API over all
//!   seven backends, selectable by name from the [`engine::Engine`]
//!   registry and driven by the engine-agnostic [`parallel`] pipeline.
//!
//! All scoring uses [`sapa_bioseq::SubstitutionMatrix`] (BLOSUM62 by
//! default) and positive-cost affine [`sapa_bioseq::matrix::GapPenalties`].
//!
//! ```
//! use sapa_align::sw;
//! use sapa_bioseq::{Sequence, SubstitutionMatrix};
//! use sapa_bioseq::matrix::GapPenalties;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let a = Sequence::from_str("a", "HEAGAWGHEE")?;
//! let b = Sequence::from_str("b", "PAWHEAE")?;
//! let score = sw::score(
//!     a.residues(),
//!     b.residues(),
//!     &SubstitutionMatrix::blosum62(),
//!     GapPenalties::paper(),
//! );
//! assert!(score > 0);
//! # Ok(())
//! # }
//! ```

pub mod banded;
pub mod blast;
pub mod blastn;
pub mod engine;
pub mod fasta;
pub mod indexed;
pub mod nw;
pub mod parallel;
pub mod result;
pub mod simd_sw;
pub mod stats;
pub mod striped;
pub mod sw;
pub mod traceback;
mod words;
pub mod xdrop;

pub use engine::{
    AlignmentEngine, Deadline, Engine, Prefilter, Quarantined, RankedHit, RunStats, SearchRequest,
    SearchResponse,
};
pub use result::{Alignment, Cigar, CigarOp, Hit, SearchResults, TopK};
