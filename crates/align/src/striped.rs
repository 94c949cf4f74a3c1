//! Farrar striped SIMD Smith-Waterman — the database-search fast path.
//!
//! The paper's `SW_vmx128`/`SW_vmx256` workloads use the Wozniak
//! anti-diagonal formulation ([`crate::simd_sw`]), which pays two taxes
//! every cell: a per-diagonal lane shuffle (`vperm`, the dominant trauma
//! in the paper's Fig. 9) and a scalar gather of substitution scores.
//! Farrar's *striped* layout (Bioinformatics 2007), as productionized by
//! the SSW library (Zhao et al.) and refined by Snytsar's lazy-F
//! analysis, removes both:
//!
//! * the query is pre-laid-out in a [`QueryProfile`] so the inner loop
//!   loads a whole vector of substitution scores with one load, and
//! * vertical-gap (`F`) propagation across lane boundaries is deferred
//!   to a rare *lazy-F* correction that usually costs one predicate.
//!
//! The lazy-F correction here is *deconstructed* following Snytsar
//! (arXiv:1909.00899): the common no-correction column is a single
//! three-op early-exit test (shift, subtract, compare — no wrap
//! iteration, no stores), and only when that predicate fires does the
//! bounded wrap repair run, visiting each segment at most once per
//! wrap under Farrar's termination test. Snytsar's further step — a
//! `log2(L)`-step max-plus prefix scan folding all wraps into one
//! pass — was implemented and measured slower on the emulated vectors,
//! before the SSE2 lanes existed; see `word_column`'s comment. The
//! pre-deconstruction Farrar loop lives on as the bit-identity oracle
//! in `tests/properties.rs`.
//!
//! [`score_ends_with_profile`] additionally reports the *end cell* of
//! the best local alignment (SSW-style minimal endpoint: first column
//! attaining the best score, smallest query offset within it) — the
//! first pass of the three-pass traceback in [`crate::traceback`].
//!
//! Two precisions share the machinery:
//!
//! * [`score_with_profile`] — 16-bit signed lanes, exact for every
//!   score below `i16::MAX`;
//! * [`score_bytes_with_profile`] — biased 8-bit unsigned lanes (twice
//!   the lanes per register) with saturation detection;
//!   [`score_adaptive_with_profile`] runs bytes first and rescores the
//!   rare overflowing subject in 16-bit — the SSW overflow-recovery
//!   scheme.
//!
//! Each kernel is written once, generic over a [`Lanes`] register type
//! (`*_with_lanes`). The const-generic entry points pick the type from
//! the lane count: at the 128-bit width (8 word / 16 byte lanes) on
//! x86_64 they run the SSE2 registers of [`sapa_vsimd::sse2`], the
//! layout of SSW's SSE2 kernel; every other width and target runs the
//! emulated [`Vector`]/[`ByteVector`]. SSE2 is part of the x86_64
//! baseline, so the choice is made at compile time with nothing to
//! detect or configure.
//!
//! Every variant is score-identical to the scalar Gotoh oracle
//! ([`crate::sw::score`]), and the SSE2 lanes are bit-identical to the
//! emulated ones, `None` (saturation) decisions included; the property
//! suite in `tests/properties.rs` enforces both at both lane widths,
//! both precisions, and across the overflow boundary.
//!
//! ```
//! use sapa_align::striped;
//! use sapa_bioseq::{Sequence, SubstitutionMatrix};
//! use sapa_bioseq::matrix::GapPenalties;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let a = Sequence::from_str("a", "HEAGAWGHEE")?;
//! let b = Sequence::from_str("b", "PAWHEAE")?;
//! let m = SubstitutionMatrix::blosum62();
//! let g = GapPenalties::paper();
//! assert_eq!(striped::score::<8>(a.residues(), b.residues(), &m, g), 17);
//! assert_eq!(striped::score_adaptive::<16, 8>(a.residues(), b.residues(), &m, g), 17);
//! # Ok(())
//! # }
//! ```

use sapa_bioseq::matrix::GapPenalties;
use sapa_bioseq::profile::{QueryProfile, WORD_PAD};
use sapa_bioseq::{AminoAcid, SubstitutionMatrix};
#[cfg(target_arch = "x86_64")]
use sapa_vsimd::sse2::{I16x8, U8x16};
use sapa_vsimd::{ByteVector, Lanes, Vector};

/// Per-subject row state of a striped kernel: H of the current and the
/// previous column and E, each `segments × lanes` elements laid out
/// like a profile row.
#[derive(Debug, Clone, Default)]
struct Rows<T> {
    h_store: Vec<T>,
    h_load: Vec<T>,
    e: Vec<T>,
}

impl<T: Copy> Rows<T> {
    /// Sizes the rows for `len` elements — H starts at `zero`, E at
    /// `dead` — and lends them out as `(h_store, h_load, e)` slices of
    /// exactly `len` elements. A kernel swaps the two H slices between
    /// columns in registers, and the columns' loops over equal-length
    /// slices need no per-column length bookkeeping.
    fn reset(&mut self, len: usize, zero: T, dead: T) -> (&mut [T], &mut [T], &mut [T]) {
        for (row, fill) in [
            (&mut self.h_store, zero),
            (&mut self.h_load, zero),
            (&mut self.e, dead),
        ] {
            row.clear();
            row.resize(len, fill);
        }
        (
            &mut self.h_store[..len],
            &mut self.h_load[..len],
            &mut self.e[..len],
        )
    }
}

/// Reusable 16-bit row state for the striped kernel: three arrays of
/// `segments` vectors of `L` lanes (H current, H previous, E). A
/// database-search worker allocates one workspace and reuses it for
/// every subject — the buffers are sized by the *query*, which is
/// fixed for the scan.
#[derive(Debug, Clone, Default)]
pub struct Workspace<const L: usize> {
    rows: Rows<i16>,
}

impl<const L: usize> Workspace<L> {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Reusable 8-bit row state, the byte-precision sibling of
/// [`Workspace`].
#[derive(Debug, Clone, Default)]
pub struct ByteWorkspace<const L: usize> {
    rows: Rows<u8>,
}

impl<const L: usize> ByteWorkspace<L> {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Checks that lane type `V`, workspace width `L` and the profile's
/// word layout agree.
fn check_word_lanes<V: Lanes, const L: usize>(profile: &QueryProfile) {
    assert_eq!(V::LANES, L, "lane type does not match workspace width");
    assert_eq!(
        profile.word_lanes(),
        L,
        "profile built for {} word lanes, kernel instantiated for {L}",
        profile.word_lanes()
    );
}

/// Striped Smith-Waterman in 16-bit lanes against a prebuilt profile.
///
/// Exact as long as the true score stays below `i16::MAX` (the same
/// contract as [`crate::simd_sw::score`]). `ws` is per-subject scratch
/// that callers reuse across a database scan. At `L = 8` on x86_64 this
/// runs on SSE2 registers ([`I16x8`]); every other width and target
/// runs the emulated [`Vector<L>`] through [`score_with_lanes`].
///
/// # Panics
///
/// Panics if the profile was built for a different word lane count.
pub fn score_with_profile<const L: usize>(
    profile: &QueryProfile,
    b: &[AminoAcid],
    gaps: GapPenalties,
    ws: &mut Workspace<L>,
) -> i32 {
    #[cfg(target_arch = "x86_64")]
    if L == I16x8::LANES {
        return score_with_lanes::<I16x8, L>(profile, b, gaps, ws);
    }
    score_with_lanes::<Vector<L>, L>(profile, b, gaps, ws)
}

/// [`score_with_profile`] on an explicit lane type `V` with `L` lanes —
/// the one 16-bit kernel body, exposed so tests and benchmarks can run
/// the SSE2 and the emulated lanes side by side.
///
/// # Panics
///
/// Panics if `V` does not have `L` lanes or the profile was built for a
/// different word lane count.
pub fn score_with_lanes<V: Lanes<Elem = i16>, const L: usize>(
    profile: &QueryProfile,
    b: &[AminoAcid],
    gaps: GapPenalties,
    ws: &mut Workspace<L>,
) -> i32 {
    check_word_lanes::<V, L>(profile);
    if profile.query_len() == 0 || b.is_empty() {
        return 0;
    }
    let consts = WordConsts::new(gaps);
    let (mut h, mut h_prev, e) = ws.rows.reset(profile.word_segments() * L, 0, WORD_PAD);
    let mut vmax = consts.zero;
    for &bj in b {
        std::mem::swap(&mut h, &mut h_prev);
        vmax = word_column::<V, L>(profile.word_row(bj), h, h_prev, e, &consts, vmax);
    }
    i32::from(vmax.horizontal_max()).max(0)
}

/// The splatted gap penalties and floors of the 16-bit kernels.
struct WordConsts<V> {
    open_ext: V,
    ext: V,
    zero: V,
    dead: V,
}

impl<V: Lanes<Elem = i16>> WordConsts<V> {
    fn new(gaps: GapPenalties) -> Self {
        WordConsts {
            open_ext: V::splat((gaps.open + gaps.extend) as i16),
            ext: V::splat(gaps.extend as i16),
            zero: V::splat(0),
            dead: V::splat(WORD_PAD),
        }
    }
}

/// One subject column of the 16-bit kernels against profile `row`:
/// the striped recurrence over every segment, then the lazy-F repair.
/// Reads the previous column's H from `h_prev`, leaves this column's
/// in `h`, and returns `vmax` raised by every H it computed.
#[inline(always)]
fn word_column<V: Lanes<Elem = i16>, const L: usize>(
    row: &[i16],
    h: &mut [i16],
    h_prev: &[i16],
    e: &mut [i16],
    k: &WordConsts<V>,
    mut vmax: V,
) -> V {
    // F starts dead: within-column chains that cross a lane boundary
    // are repaired by the lazy-F loop below.
    let mut vf = k.dead;
    // The diagonal input of segment 0 is the previous column's last
    // segment shifted one lane up; lane 0 gets the H[0][j-1] = 0
    // local-alignment boundary.
    let mut diag = V::load(&h_prev[h_prev.len() - L..]).shift_in_first(0);
    // Sliced once to the rows' length, so the four rows zip evenly.
    let row = &row[..h.len()];

    for (((p, h_out), h_in), e_row) in row
        .chunks_exact(L)
        .zip(h.chunks_exact_mut(L))
        .zip(h_prev.chunks_exact(L))
        .zip(e.chunks_exact_mut(L))
    {
        // Take this segment's diagonal input and load the next one,
        // this segment's H of the previous column, before it is needed:
        // loaded last, the emulated lanes compiled to byte-wise loads.
        let vh = std::mem::replace(&mut diag, V::load(h_in));
        // One load replaces the anti-diagonal kernel's per-cell score
        // gather.
        let e = V::load(e_row);
        let vh = vh.adds(V::load(p)).max(e).max(vf).max(k.zero);
        vmax = vmax.max(vh);
        vh.store(h_out);

        let h_open = vh.subs(k.open_ext);
        e.subs(k.ext).max(h_open).store(e_row);
        vf = vf.subs(k.ext).max(h_open);
    }

    lazy_f::<V, L>(h, e, vf, k.open_ext, k.ext, WORD_PAD, vmax)
}

/// The deconstructed lazy-F correction (Snytsar) closing a column of
/// either precision, over the column's H row `h` and the E row `e`:
/// `vf` is the column's last F, `dead` the lane value of a dead F.
/// Returns `vmax` raised by every H it raised.
///
/// The common no-correction column is one predicate — shift, subtract,
/// compare — with no wrap iteration and no stores. Only when it fires
/// does the bounded wrap repair run, visiting each segment at most once
/// per wrap under Farrar's termination test (at most L wraps). On the
/// emulated lanes, a log2(L)-step max-plus prefix scan folding all
/// wraps into one pass (Snytsar's formulation) benched slower: the
/// folded F stays live across more segments than any single wrap, and
/// emulated vectors have no branch cost for the scan to amortize. That
/// measurement predates the SSE2 lanes and was not repeated on them.
#[inline(always)]
fn lazy_f<V: Lanes, const L: usize>(
    h: &mut [V::Elem],
    e: &mut [V::Elem],
    vf: V,
    open_ext: V,
    ext: V,
    dead: V::Elem,
    mut vmax: V,
) -> V {
    let mut vf = vf.shift_in_first(dead);
    if vf.any_gt(V::load(h).subs(open_ext)) {
        'lazy: for _ in 0..L {
            for (h_row, e_row) in h.chunks_exact_mut(L).zip(e.chunks_exact_mut(L)) {
                let h = V::load(h_row).max(vf);
                h.store(h_row);
                vmax = vmax.max(h);
                let h_open = h.subs(open_ext);
                // A raised H can also feed next column's E.
                V::load(e_row).max(h_open).store(e_row);
                vf = vf.subs(ext);
                if !vf.any_gt(h_open) {
                    break 'lazy;
                }
            }
            vf = vf.shift_in_first(dead);
        }
    }
    vmax
}

/// Byte-precision striped Smith-Waterman against a prebuilt profile:
/// twice the lanes of the word kernel, `None` on (potential) overflow.
///
/// Scores are biased by `profile.bias()` during the profile add, and the
/// kernel bails out as soon as any cell comes within one matrix-maximum
/// of the `u8` ceiling — a `Some` result is always exact. At `L = 16`
/// on x86_64 this runs on SSE2 registers ([`U8x16`]); every other width
/// and target runs the emulated [`ByteVector<L>`] through
/// [`score_bytes_with_lanes`].
///
/// # Panics
///
/// Panics if the profile was built for a different byte lane count.
pub fn score_bytes_with_profile<const L: usize>(
    profile: &QueryProfile,
    b: &[AminoAcid],
    gaps: GapPenalties,
    ws: &mut ByteWorkspace<L>,
) -> Option<i32> {
    #[cfg(target_arch = "x86_64")]
    if L == U8x16::LANES {
        return score_bytes_with_lanes::<U8x16, L>(profile, b, gaps, ws);
    }
    score_bytes_with_lanes::<ByteVector<L>, L>(profile, b, gaps, ws)
}

/// [`score_bytes_with_profile`] on an explicit lane type `V` with `L`
/// lanes — the one byte kernel body, exposed so tests and benchmarks
/// can run the SSE2 and the emulated lanes side by side.
///
/// # Panics
///
/// Panics if `V` does not have `L` lanes or the profile was built for a
/// different byte lane count.
pub fn score_bytes_with_lanes<V: Lanes<Elem = u8>, const L: usize>(
    profile: &QueryProfile,
    b: &[AminoAcid],
    gaps: GapPenalties,
    ws: &mut ByteWorkspace<L>,
) -> Option<i32> {
    assert_eq!(V::LANES, L, "lane type does not match workspace width");
    assert_eq!(
        profile.byte_lanes(),
        L,
        "profile built for {} byte lanes, kernel instantiated for {L}",
        profile.byte_lanes()
    );
    if profile.query_len() == 0 || b.is_empty() {
        return Some(0);
    }
    if !profile.has_bytes() {
        return None; // matrix range too wide for biased u8
    }
    // Saturation guard: while every H stays below this, no saturating
    // add in the next column can clip (H + bias + max_score < 255).
    let guard = 255 - profile.bias() - profile.max_score();
    if guard <= 0 {
        return None;
    }
    // Any lane above this has reached the guard.
    let over = V::splat((guard - 1).min(255) as u8);
    let segs = profile.byte_segments();
    let bias_v = V::splat(profile.bias() as u8);
    let open_ext = V::splat((gaps.open + gaps.extend).min(255) as u8);
    let ext = V::splat(gaps.extend.min(255) as u8);
    // Unsigned saturating subtraction floors at 0 — exactly the
    // local-alignment zero floor, so F/E start dead at 0.
    let zero = V::splat(0);
    let (mut h, mut h_prev, e) = ws.rows.reset(segs * L, 0, 0);
    let mut vmax = zero;

    for &bj in b {
        // Sliced once to the rows' length, so the four rows zip evenly.
        let row = &profile.byte_row(bj).expect("byte layout checked above")[..h.len()];
        std::mem::swap(&mut h, &mut h_prev);
        let mut vf = zero;
        let mut diag = V::load(&h_prev[h_prev.len() - L..]).shift_in_first(0);

        for (((p, h_out), h_in), e_row) in row
            .chunks_exact(L)
            .zip(h.chunks_exact_mut(L))
            .zip(h_prev.chunks_exact(L))
            .zip(e.chunks_exact_mut(L))
        {
            // The next diagonal input is loaded first, as in `word_column`.
            let vh = std::mem::replace(&mut diag, V::load(h_in));
            let e = V::load(e_row);
            let vh = vh.adds(V::load(p)).subs(bias_v).max(e).max(vf);
            vmax = vmax.max(vh);
            vh.store(h_out);

            let h_open = vh.subs(open_ext);
            e.subs(ext).max(h_open).store(e_row);
            vf = vf.subs(ext).max(h_open);
        }

        // Dead is 0 here (the unsigned floor), and the correction fires
        // far more rarely than in 16-bit, because a positive F has to
        // survive the zero floor.
        vmax = lazy_f::<V, L>(h, e, vf, open_ext, ext, 0, vmax);

        // The guard check is one lane compare: some lane is above
        // `over` exactly when the best score so far has reached the
        // guard.
        if vmax.any_gt(over) {
            return None; // next column could clip — rescore in 16-bit
        }
    }

    Some(i32::from(vmax.horizontal_max()))
}

/// Adaptive-precision striped search step: byte pass first (double the
/// lanes), exact 16-bit rescore on overflow. `LB` is the byte lane
/// count and `LW` the word lane count of the same register width
/// (16/8 for the 128-bit model, 32/16 for the 256-bit extension).
pub fn score_adaptive_with_profile<const LB: usize, const LW: usize>(
    profile: &QueryProfile,
    b: &[AminoAcid],
    gaps: GapPenalties,
    bws: &mut ByteWorkspace<LB>,
    ws: &mut Workspace<LW>,
) -> i32 {
    match score_bytes_with_profile::<LB>(profile, b, gaps, bws) {
        Some(s) => s,
        None => score_with_profile::<LW>(profile, b, gaps, ws),
    }
}

/// Best local score plus the *inclusive* coordinates of the cell it is
/// attained in, as reported by [`score_ends_with_profile`].
///
/// When `score == 0` there is no positive-scoring alignment and the
/// end coordinates are meaningless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoreEnds {
    /// Best local-alignment score (0 if nothing scores positive).
    pub score: i32,
    /// Query index (0-based, inclusive) of the best cell.
    pub query_end: usize,
    /// Subject index (0-based, inclusive) of the best cell.
    pub subject_end: usize,
}

/// 16-bit striped pass that also tracks *where* the best score is
/// attained — the first pass of the SSW-style three-pass traceback.
///
/// End selection is deterministic and minimal: the reported cell lies
/// in the **first** subject column whose maximum strictly exceeds every
/// earlier column's, and within that column at the **smallest** query
/// index attaining the column maximum. Running the same rule on the
/// reversed prefixes (second pass) is what pins the start coordinates;
/// see [`crate::traceback::align_hit`].
///
/// Scores are identical to [`score_with_profile`]; the extra cost is a
/// per-column max-fold over the segments, which is why the engines use
/// the plain kernel for scanning and this one only for reported hits.
///
/// # Panics
///
/// Panics if the profile was built for a different word lane count.
pub fn score_ends_with_profile<const L: usize>(
    profile: &QueryProfile,
    b: &[AminoAcid],
    gaps: GapPenalties,
    ws: &mut Workspace<L>,
) -> ScoreEnds {
    #[cfg(target_arch = "x86_64")]
    if L == I16x8::LANES {
        return score_ends_with_lanes::<I16x8, L>(profile, b, gaps, ws);
    }
    score_ends_with_lanes::<Vector<L>, L>(profile, b, gaps, ws)
}

/// [`score_ends_with_profile`] on an explicit lane type `V` with `L`
/// lanes, exposed so tests can run the SSE2 and the emulated lanes
/// side by side.
///
/// # Panics
///
/// Panics if `V` does not have `L` lanes or the profile was built for a
/// different word lane count.
pub fn score_ends_with_lanes<V: Lanes<Elem = i16>, const L: usize>(
    profile: &QueryProfile,
    b: &[AminoAcid],
    gaps: GapPenalties,
    ws: &mut Workspace<L>,
) -> ScoreEnds {
    check_word_lanes::<V, L>(profile);
    let mut ends = ScoreEnds {
        score: 0,
        query_end: 0,
        subject_end: 0,
    };
    if profile.query_len() == 0 || b.is_empty() {
        return ends;
    }
    let m = profile.query_len();
    let segs = profile.word_segments();
    let consts = WordConsts::new(gaps);
    let (mut h, mut h_prev, e) = ws.rows.reset(segs * L, 0, WORD_PAD);
    let mut vmax = consts.zero;
    let mut best_v = consts.zero;

    for (j, &bj) in b.iter().enumerate() {
        std::mem::swap(&mut h, &mut h_prev);
        vmax = word_column::<V, L>(profile.word_row(bj), h, h_prev, e, &consts, vmax);

        // Endpoint tracking: a strict improvement pins this column;
        // the lane-outer / segment-inner sweep visits cells in
        // increasing query order, so the first match is the minimal
        // query index. Padding cells can never attain a new best —
        // their H descends (gap-penalised) from a real cell already
        // folded into the running best.
        let colv = h
            .chunks_exact(L)
            .fold(consts.zero, |acc, h| acc.max(V::load(h)));
        if colv.any_gt(best_v) {
            let col_best = colv.horizontal_max();
            best_v = V::splat(col_best);
            'find: for k in 0..L {
                for s in 0..segs {
                    if h[s * L + k] == col_best {
                        let q = k * segs + s;
                        if q < m {
                            ends.query_end = q;
                            ends.subject_end = j;
                            break 'find;
                        }
                    }
                }
            }
        }
    }

    ends.score = i32::from(vmax.horizontal_max()).max(0);
    ends
}

/// One-shot 16-bit striped score: builds the profile and workspace
/// internally. For database scans, build a [`QueryProfile`] once and
/// use [`score_with_profile`] (or the batched driver in
/// [`crate::parallel`]) instead.
pub fn score<const L: usize>(
    a: &[AminoAcid],
    b: &[AminoAcid],
    matrix: &SubstitutionMatrix,
    gaps: GapPenalties,
) -> i32 {
    let profile = QueryProfile::build(a, matrix, L);
    let mut ws = Workspace::<L>::new();
    score_with_profile::<L>(&profile, b, gaps, &mut ws)
}

/// One-shot byte-precision striped score (`None` on overflow).
///
/// `L` is the byte lane count; the profile is built for `L / 2` word
/// lanes, matching [`score_adaptive`].
///
/// # Panics
///
/// Panics if `L` is odd.
pub fn score_bytes<const L: usize>(
    a: &[AminoAcid],
    b: &[AminoAcid],
    matrix: &SubstitutionMatrix,
    gaps: GapPenalties,
) -> Option<i32> {
    assert!(L.is_multiple_of(2), "byte lane count must be even");
    let profile = QueryProfile::build(a, matrix, L / 2);
    let mut ws = ByteWorkspace::<L>::new();
    score_bytes_with_profile::<L>(&profile, b, gaps, &mut ws)
}

/// One-shot adaptive striped score (byte pass + 16-bit rescore).
pub fn score_adaptive<const LB: usize, const LW: usize>(
    a: &[AminoAcid],
    b: &[AminoAcid],
    matrix: &SubstitutionMatrix,
    gaps: GapPenalties,
) -> i32 {
    let profile = QueryProfile::build(a, matrix, LW);
    let mut bws = ByteWorkspace::<LB>::new();
    let mut ws = Workspace::<LW>::new();
    score_adaptive_with_profile::<LB, LW>(&profile, b, gaps, &mut bws, &mut ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sw;
    use sapa_bioseq::Sequence;

    fn seq(s: &str) -> Vec<AminoAcid> {
        Sequence::from_str("t", s).unwrap().residues().to_vec()
    }

    fn bl62() -> SubstitutionMatrix {
        SubstitutionMatrix::blosum62()
    }

    #[test]
    fn matches_scalar_on_small_cases() {
        let m = bl62();
        let g = GapPenalties::paper();
        let cases = [
            ("A", "A"),
            ("A", "W"),
            ("HEAGAWGHEE", "PAWHEAE"),
            ("MKVLAA", "MKVLAA"),
            ("ACDEFGHIKLMNPQRSTVWY", "YWVTSRQPNMLKIHGFEDCA"),
            ("MKWVTFISLLFLFSSAYS", "MKWVTFISLL"),
            ("WW", "WWWWWWWWWWWWWWWWWWWWWWWW"),
        ];
        for (x, y) in cases {
            let a = seq(x);
            let b = seq(y);
            let expect = sw::score(&a, &b, &m, g);
            assert_eq!(score::<8>(&a, &b, &m, g), expect, "striped-128 {x} vs {y}");
            assert_eq!(score::<16>(&a, &b, &m, g), expect, "striped-256 {x} vs {y}");
        }
    }

    #[test]
    fn lane_boundary_gaps_need_lazy_f() {
        // A deletion spanning several query rows forces F chains across
        // lane boundaries — the exact case the lazy-F loop repairs.
        let m = bl62();
        let g = GapPenalties::new(2, 1);
        let a = seq("ACDEFGHIKLMNPQRSTVWYACDEFGHIKL");
        let b = seq("ACDEFGPQRSTVWYACDEFGHIKL");
        let expect = sw::score(&a, &b, &m, g);
        assert_eq!(score::<8>(&a, &b, &m, g), expect);
        assert_eq!(score::<16>(&a, &b, &m, g), expect);
    }

    #[test]
    fn query_shorter_than_one_stripe() {
        let m = bl62();
        let g = GapPenalties::paper();
        let a = seq("AW");
        let b = seq("HEAGAWGHEE");
        let expect = sw::score(&a, &b, &m, g);
        assert_eq!(score::<8>(&a, &b, &m, g), expect);
        assert_eq!(score::<16>(&a, &b, &m, g), expect);
        assert_eq!(score_bytes::<16>(&a, &b, &m, g), Some(expect));
    }

    #[test]
    fn empty_inputs_score_zero() {
        let m = bl62();
        let g = GapPenalties::paper();
        assert_eq!(score::<8>(&[], &seq("AC"), &m, g), 0);
        assert_eq!(score::<8>(&seq("AC"), &[], &m, g), 0);
        assert_eq!(score_bytes::<16>(&[], &seq("AC"), &m, g), Some(0));
        assert_eq!(score_adaptive::<16, 8>(&seq("AC"), &[], &m, g), 0);
    }

    #[test]
    fn byte_pass_overflow_recovers_exactly() {
        let m = bl62();
        let g = GapPenalties::paper();
        let a = seq(&"MKWVTFISLL".repeat(8));
        assert_eq!(score_bytes::<16>(&a, &a, &m, g), None);
        let expect = sw::score(&a, &a, &m, g);
        assert_eq!(score_adaptive::<16, 8>(&a, &a, &m, g), expect);
        assert_eq!(score_adaptive::<32, 16>(&a, &a, &m, g), expect);
    }

    #[test]
    fn workspace_reuse_is_clean_across_subjects() {
        // Scoring a high-scoring subject then a dissimilar one must not
        // leak state through the reused buffers.
        let m = bl62();
        let g = GapPenalties::paper();
        let q = seq("MKWVTFISLLFLFSSAYSRGVFRR");
        let profile = QueryProfile::build(&q, &m, 8);
        let mut ws = Workspace::<8>::new();
        let hot = seq("MKWVTFISLLFLFSSAYSRGVFRR");
        let cold = seq("GGGGG");
        let s1 = score_with_profile::<8>(&profile, &hot, g, &mut ws);
        let s2 = score_with_profile::<8>(&profile, &cold, g, &mut ws);
        let s3 = score_with_profile::<8>(&profile, &hot, g, &mut ws);
        assert_eq!(s1, sw::score(&q, &hot, &m, g));
        assert_eq!(s2, sw::score(&q, &cold, &m, g));
        assert_eq!(s1, s3);
    }

    #[test]
    #[should_panic(expected = "word lanes")]
    fn wrong_lane_width_is_rejected() {
        let m = bl62();
        let profile = QueryProfile::build(&seq("ACD"), &m, 8);
        let mut ws = Workspace::<16>::new();
        let _ = score_with_profile::<16>(&profile, &seq("ACD"), GapPenalties::paper(), &mut ws);
    }

    #[test]
    fn deconstructed_matches_reference_kernel() {
        // The emulated lanes are the reference for the production
        // lanes (SSE2 on x86_64); cheap gaps force real cross-lane
        // corrections.
        let m = bl62();
        let g = GapPenalties::new(2, 1);
        let a = seq("ACDEFGHIKLMNPQRSTVWYACDEFGHIKL");
        let b = seq("ACDEFGPQRSTVWYACDEFGHIKL");
        let profile = QueryProfile::build(&a, &m, 8);
        let mut ws = Workspace::<8>::new();
        let mut ws_ref = Workspace::<8>::new();
        assert_eq!(
            score_with_profile::<8>(&profile, &b, g, &mut ws),
            score_with_lanes::<Vector<8>, 8>(&profile, &b, g, &mut ws_ref),
        );
        assert_eq!(
            score_ends_with_profile::<8>(&profile, &b, g, &mut ws),
            score_ends_with_lanes::<Vector<8>, 8>(&profile, &b, g, &mut ws_ref),
        );
        let mut bws = ByteWorkspace::<16>::new();
        let mut bws_ref = ByteWorkspace::<16>::new();
        assert_eq!(
            score_bytes_with_profile::<16>(&profile, &b, g, &mut bws),
            score_bytes_with_lanes::<ByteVector<16>, 16>(&profile, &b, g, &mut bws_ref),
        );
    }

    #[test]
    fn score_ends_locates_best_cell() {
        let m = bl62();
        let g = GapPenalties::paper();
        // Query = subject: the best cell is the last residue of both.
        let q = seq("MKWVTFISLLFLFSSAYSRGVFRR");
        let profile = QueryProfile::build(&q, &m, 8);
        let mut ws = Workspace::<8>::new();
        let ends = score_ends_with_profile::<8>(&profile, &q, g, &mut ws);
        assert_eq!(ends.score, sw::score(&q, &q, &m, g));
        assert_eq!(ends.query_end, q.len() - 1);
        assert_eq!(ends.subject_end, q.len() - 1);

        // An embedded match: query sits inside a longer subject.
        let subj = seq("GGGGGMKWVTFISLLFLFSSAYSRGVFRRGGGGG");
        let ends = score_ends_with_profile::<8>(&profile, &subj, g, &mut ws);
        assert_eq!(ends.score, sw::score(&q, &subj, &m, g));
        assert_eq!(ends.query_end, q.len() - 1);
        assert_eq!(ends.subject_end, 5 + q.len() - 1);

        // No positive score: empty inputs report zero.
        let empty = score_ends_with_profile::<8>(&profile, &[], g, &mut ws);
        assert_eq!(empty.score, 0);
    }

    #[test]
    fn wide_matrix_falls_back_to_words() {
        // uniform(120, -120) cannot be biased into u8; adaptive must
        // still return the exact word-precision score.
        let m = SubstitutionMatrix::uniform(120, -120);
        let g = GapPenalties::paper();
        let a = seq("ACDEFG");
        let b = seq("ACDEFG");
        assert_eq!(score_bytes::<16>(&a, &b, &m, g), None);
        let expect = sw::score(&a, &b, &m, g);
        assert_eq!(score_adaptive::<16, 8>(&a, &b, &m, g), expect);
    }
}
