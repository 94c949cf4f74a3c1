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
//! the lane count, in three backends:
//!
//! * 16 byte / 8 word lanes on x86_64 run the SSE2 registers of
//!   [`sapa_vsimd::sse2`], the layout of SSW's SSE2 kernel. SSE2 is part
//!   of the x86_64 baseline, so this choice is made at compile time;
//! * 32 byte / 16 word lanes on an x86_64 CPU that has AVX2 run 256-bit
//!   AVX2 registers. AVX2 is not in the baseline, so this is the one
//!   width detected at run time (`is_x86_feature_detected!`); the
//!   register types are private to this module and exist only inside
//!   `#[target_feature(enable = "avx2")]` functions that run after the
//!   check;
//! * every other width, target and CPU runs the emulated
//!   [`Vector`]/[`ByteVector`].
//!
//! Wider registers pay off only on long queries: per-column work that
//! does not grow with the query, and a lane shift that has to cross the
//! two 128-bit halves, make 256 bits slower than SSE2 below a few
//! stripes; see [`WIDE_MIN_STRIPES`] for the measured crossover.
//! Shorter queries run best with the width across subjects instead:
//! [`lanes`] keeps one subject in each byte lane of an SSE2 register
//! (emulated lanes off x86_64), with the same byte pass, guard and
//! 16-bit rescore, so its scores and `None` decisions equal the striped
//! byte kernel's. [`kernel`] is the one rule that picks lanes, 128-bit
//! or 256-bit striped for `Engine::Striped` and the daemon's striped
//! path, from the query length, the CPU and the number of subjects.
//!
//! Every variant is score-identical to the scalar Gotoh oracle
//! ([`crate::sw::score`]), and the SSE2 and AVX2 lanes are bit-identical
//! to the emulated ones, `None` (saturation) decisions included; the
//! property suite in `tests/properties.rs` enforces both at both lane
//! widths, both precisions, and across the overflow boundary.
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

#[cfg(target_arch = "x86_64")]
mod avx2;
pub mod lanes;

/// The shortest query, in stripes of 32 residues (one byte segment of
/// the 256-bit layout), that [`use_256_bit`] sends to the AVX2 kernels.
///
/// Chosen from the measured SSE2/AVX2 time ratio of the adaptive scan
/// (same process, alternating, 400 subjects, two runs; DESIGN §5.9):
/// 256 bits lose 2–17% up to 96 residues, break even at 128–144, and
/// win from 160 residues on (1.07×), up to 1.44× at 567.
pub const WIDE_MIN_STRIPES: usize = 5;

/// Whether a striped search of a `query_len`-residue query runs on
/// 256-bit AVX2 lanes (`StripedEngine::<32, 16>`, a profile of 16 word
/// lanes) rather than 128-bit SSE2 (`<16, 8>`, 8 word lanes): only
/// when `avx2` — pass [`avx2_detected`] — and the query fills at least
/// [`WIDE_MIN_STRIPES`] stripes of 32 residues.
///
/// The width changes no score, end cell or byte-pass decision, only
/// the time a scan takes.
///
/// ```
/// use sapa_align::striped::use_256_bit;
///
/// assert!(use_256_bit(567, true));
/// assert!(!use_256_bit(40, true)); // short queries stay on SSE2
/// assert!(!use_256_bit(567, false)); // and so does a CPU without AVX2
/// ```
pub fn use_256_bit(query_len: usize, avx2: bool) -> bool {
    avx2 && query_len >= WIDE_MIN_STRIPES * 32
}

/// The fewest subjects one worker must score before [`kernel`] sends a
/// short query to the lane kernel.
///
/// A lane scan pays for all 16 lanes whether they are busy or not, and
/// they drain while the last subjects finish, so a worker with too few
/// subjects to keep a register filled runs faster striped. Measured against the
/// 128-bit striped kernel on subjects drawn from the daemon's corpus
/// (DESIGN §5.9), lanes break even at 48–64 subjects and win 1.3× at
/// 128; at 32 they still lose 10–20%.
pub const LANES_MIN_SUBJECTS: usize = 64;

/// The kernel a striped search runs on (see [`kernel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Inter-sequence byte lanes ([`lanes`]): one subject per lane of
    /// an SSE2 register, 16-bit striped rescore on overflow.
    Lanes,
    /// Striped, 128 bits: `StripedEngine::<16, 8>`.
    Striped128,
    /// Striped, 256 bits on AVX2: `StripedEngine::<32, 16>`.
    Striped256,
}

/// The one rule that picks a striped search's kernel from the query
/// length, the CPU (`avx2`, pass [`avx2_detected`]) and the number of
/// subjects one worker scores (the parallel pipeline's share per
/// worker, since each worker's lanes fill and drain on their own):
///
/// * queries of [`WIDE_MIN_STRIPES`] 32-residue stripes or more run
///   striped, on 256 bits when [`use_256_bit`] says so;
/// * shorter queries run on the lane kernel when the worker has at
///   least [`LANES_MIN_SUBJECTS`] subjects, and striped on 128 bits
///   when it has fewer.
///
/// The kernel changes no score, byte-pass decision or rescore count,
/// only the time a scan takes.
///
/// ```
/// use sapa_align::striped::{kernel, Kernel};
///
/// assert_eq!(kernel(40, true, 400), Kernel::Lanes);
/// assert_eq!(kernel(40, true, 3), Kernel::Striped128); // too few subjects
/// assert_eq!(kernel(567, true, 400), Kernel::Striped256);
/// assert_eq!(kernel(567, false, 400), Kernel::Striped128);
/// ```
pub fn kernel(query_len: usize, avx2: bool, subjects: usize) -> Kernel {
    // The lane kernel reads the sequential byte layout, which profiles
    // carry for exactly the query lengths this rule sends to lanes.
    const _: () = assert!(WIDE_MIN_STRIPES * 32 == sapa_bioseq::profile::SEQ_BYTES_MAX_QUERY);
    if use_256_bit(query_len, avx2) {
        Kernel::Striped256
    } else if query_len < WIDE_MIN_STRIPES * 32 && subjects >= LANES_MIN_SUBJECTS {
        Kernel::Lanes
    } else {
        Kernel::Striped128
    }
}

/// Whether this CPU runs AVX2, detected once per process by the
/// standard library; always `false` off x86_64.
pub fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

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
    /// slices need no per-column length bookkeeping — as long as the
    /// kernel sees that, so it is always inlined.
    #[inline(always)]
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
#[inline(always)]
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
/// runs on SSE2 registers ([`I16x8`]), at `L = 16` on AVX2 registers
/// when the CPU has them; every other width, target and CPU runs the
/// emulated [`Vector<L>`] through [`score_with_lanes`].
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
    {
        if L == I16x8::LANES {
            return score_with_lanes::<I16x8, L>(profile, b, gaps, ws);
        }
        if L == 16 && avx2_detected() {
            // SAFETY: `avx2_detected()` just confirmed this CPU runs AVX2.
            return unsafe { avx2::score_words(profile, b, gaps, ws) };
        }
    }
    score_with_lanes::<Vector<L>, L>(profile, b, gaps, ws)
}

/// [`score_with_profile`] on an explicit lane type `V` with `L` lanes —
/// the one 16-bit kernel body, exposed so tests and benchmarks can run
/// the production and the emulated lanes side by side. Always inlined,
/// so the AVX2 entry point compiles it with AVX2 enabled.
///
/// # Panics
///
/// Panics if `V` does not have `L` lanes or the profile was built for a
/// different word lane count.
#[inline(always)]
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
    #[inline(always)]
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
/// on x86_64 this runs on SSE2 registers ([`U8x16`]), at `L = 32` on
/// AVX2 registers when the CPU has them; every other width, target and
/// CPU runs the emulated [`ByteVector<L>`] through
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
    {
        if L == U8x16::LANES {
            return score_bytes_with_lanes::<U8x16, L>(profile, b, gaps, ws);
        }
        if L == 32 && avx2_detected() {
            // SAFETY: `avx2_detected()` just confirmed this CPU runs AVX2.
            return unsafe { avx2::score_bytes(profile, b, gaps, ws) };
        }
    }
    score_bytes_with_lanes::<ByteVector<L>, L>(profile, b, gaps, ws)
}

/// [`score_bytes_with_profile`] on an explicit lane type `V` with `L`
/// lanes — the one byte kernel body, exposed so tests and benchmarks
/// can run the production and the emulated lanes side by side. Always
/// inlined, like [`score_with_lanes`].
///
/// # Panics
///
/// Panics if `V` does not have `L` lanes or the profile was built for a
/// different byte lane count.
#[inline(always)]
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
    let guard = byte_guard(profile)?;
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

/// The byte pass's saturation guard: while every H stays below it, no
/// saturating add in the next column can clip (H + bias + max_score <
/// 255). `None` when the byte pass cannot run — the matrix range is too
/// wide for biased `u8`, or leaves no room below the ceiling — and every
/// non-empty subject goes to the 16-bit kernel.
///
/// Keep the early return: written branch-free, as `(has_bytes && guard
/// > 0).then_some(guard)`, it changes how LLVM compiles the byte
/// kernels' segment loops (the AVX2 one then counts a byte offset up
/// instead of a segment count down).
#[inline(always)]
pub(crate) fn byte_guard(profile: &QueryProfile) -> Option<i32> {
    if !profile.has_bytes() {
        return None;
    }
    let guard = 255 - profile.bias() - profile.max_score();
    (guard > 0).then_some(guard)
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
    {
        if L == I16x8::LANES {
            return score_ends_with_lanes::<I16x8, L>(profile, b, gaps, ws);
        }
        if L == 16 && avx2_detected() {
            // SAFETY: `avx2_detected()` just confirmed this CPU runs AVX2.
            return unsafe { avx2::score_ends(profile, b, gaps, ws) };
        }
    }
    score_ends_with_lanes::<Vector<L>, L>(profile, b, gaps, ws)
}

/// [`score_ends_with_profile`] on an explicit lane type `V` with `L`
/// lanes, exposed so tests can run the production and the emulated
/// lanes side by side. Always inlined, like [`score_with_lanes`].
///
/// # Panics
///
/// Panics if `V` does not have `L` lanes or the profile was built for a
/// different word lane count.
#[inline(always)]
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
    fn width_rule_needs_avx2_and_a_long_query() {
        let threshold = WIDE_MIN_STRIPES * 32;
        for avx2 in [false, true] {
            // The daemon's 20–60-residue traffic stays on 128 bits.
            for short in [0, 1, 20, 40, 60, threshold - 1] {
                assert!(!use_256_bit(short, avx2), "{short} residues");
            }
            for long in [threshold, 222, 567, 4096] {
                assert_eq!(use_256_bit(long, avx2), avx2, "{long} residues");
            }
        }
    }

    #[test]
    fn kernel_rule_sends_big_scans_of_short_queries_to_lanes() {
        let short = WIDE_MIN_STRIPES * 32 - 1;
        for avx2 in [false, true] {
            for q in [0, 1, 20, 60, short] {
                assert_eq!(kernel(q, avx2, LANES_MIN_SUBJECTS), Kernel::Lanes, "{q}");
                assert_eq!(kernel(q, avx2, 400), Kernel::Lanes, "{q}");
                let few = kernel(q, avx2, LANES_MIN_SUBJECTS - 1);
                assert_eq!(few, Kernel::Striped128, "{q}");
            }
            let wide = if avx2 {
                Kernel::Striped256
            } else {
                Kernel::Striped128
            };
            for q in [short + 1, 567] {
                for n in [1, 400] {
                    assert_eq!(kernel(q, avx2, n), wide, "{q} residues, {n} subjects");
                }
            }
        }
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
