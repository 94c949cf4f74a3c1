//! AVX2 registers behind the [`Lanes`] operations: thirty-two `u8`
//! lanes ([`U8x32`]) and sixteen `i16` lanes ([`I16x16`]) of one
//! `__m256i`, and the three kernel entry points that run on them.
//!
//! AVX2 is not part of the x86_64 baseline, and [`Lanes::splat`] and
//! [`Lanes::load`] are safe constructors, so public AVX2 lane types
//! would let safe code execute AVX2 instructions on a CPU without them.
//! This module keeps one invariant instead: **a value of either lane
//! type is created only inside this module's `#[target_feature(enable
//! = "avx2")]` functions, and those run only after
//! [`avx2_detected`](super::avx2_detected) returned `true`.** The types
//! are private to this module, so nothing outside it can construct one;
//! the kernel entry points in [`super`] call the wrappers only behind
//! that check. Every `unsafe` block in the lane methods relies on this
//! invariant.
//!
//! The lane methods and the `*_with_lanes` kernel bodies are
//! `#[inline(always)]`, so each wrapper compiles to one function whose
//! loop runs on `ymm` registers with no intrinsic called out of line.
//!
//! Lane `i` is the element at slice index `i`, exactly as in the
//! emulated `ByteVector<32>`/`Vector<16>` these types are tested
//! against. AVX2 byte shifts and `alignr` act on each 128-bit half on
//! its own, so [`Lanes::shift_in_first`] first moves the low half into
//! the high half (`permute2x128`) for `alignr` to carry the element that
//! crosses the halves, and [`Lanes::horizontal_max`] folds the two
//! halves together before the SSE2 fold.

use std::arch::x86_64::*;

use sapa_bioseq::matrix::GapPenalties;
use sapa_bioseq::profile::QueryProfile;
use sapa_bioseq::AminoAcid;
use sapa_vsimd::Lanes;

use super::{
    score_bytes_with_lanes, score_ends_with_lanes, score_with_lanes, ByteWorkspace, ScoreEnds,
    Workspace,
};

/// Sixteen signed 16-bit lanes in one AVX2 register.
#[derive(Clone, Copy)]
struct I16x16(__m256i);

/// Thirty-two unsigned 8-bit lanes in one AVX2 register.
#[derive(Clone, Copy)]
struct U8x32(__m256i);

/// [`super::score_bytes_with_profile`] on [`U8x32`]; called only after
/// [`avx2_detected`](super::avx2_detected) returned `true`.
#[target_feature(enable = "avx2")]
pub(super) fn score_bytes<const L: usize>(
    profile: &QueryProfile,
    b: &[AminoAcid],
    gaps: GapPenalties,
    ws: &mut ByteWorkspace<L>,
) -> Option<i32> {
    score_bytes_with_lanes::<U8x32, L>(profile, b, gaps, ws)
}

/// [`super::score_with_profile`] on [`I16x16`]; called only after
/// [`avx2_detected`](super::avx2_detected) returned `true`.
#[target_feature(enable = "avx2")]
pub(super) fn score_words<const L: usize>(
    profile: &QueryProfile,
    b: &[AminoAcid],
    gaps: GapPenalties,
    ws: &mut Workspace<L>,
) -> i32 {
    score_with_lanes::<I16x16, L>(profile, b, gaps, ws)
}

/// [`super::score_ends_with_profile`] on [`I16x16`]; called only after
/// [`avx2_detected`](super::avx2_detected) returned `true`.
#[target_feature(enable = "avx2")]
pub(super) fn score_ends<const L: usize>(
    profile: &QueryProfile,
    b: &[AminoAcid],
    gaps: GapPenalties,
    ws: &mut Workspace<L>,
) -> ScoreEnds {
    score_ends_with_lanes::<I16x16, L>(profile, b, gaps, ws)
}

impl Lanes for I16x16 {
    type Elem = i16;
    const LANES: usize = 16;

    #[inline(always)]
    fn splat(value: i16) -> Self {
        // SAFETY: AVX2 was detected (module invariant).
        I16x16(unsafe { _mm256_set1_epi16(value) })
    }

    #[inline(always)]
    fn load(src: &[i16]) -> Self {
        assert!(src.len() >= 16, "load needs 16 lanes, got {}", src.len());
        // SAFETY: AVX2 was detected (module invariant); `src` holds the
        // 32 bytes read (checked above), and `loadu` needs no alignment.
        I16x16(unsafe { _mm256_loadu_si256(src.as_ptr().cast()) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [i16]) {
        assert!(dst.len() >= 16, "store needs 16 lanes, got {}", dst.len());
        // SAFETY: AVX2 was detected (module invariant); `dst` holds the
        // 32 bytes written (checked above), and `storeu` needs no
        // alignment.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), self.0) }
    }

    #[inline(always)]
    fn adds(self, rhs: Self) -> Self {
        // SAFETY: AVX2 was detected (module invariant).
        I16x16(unsafe { _mm256_adds_epi16(self.0, rhs.0) })
    }

    #[inline(always)]
    fn subs(self, rhs: Self) -> Self {
        // SAFETY: AVX2 was detected (module invariant).
        I16x16(unsafe { _mm256_subs_epi16(self.0, rhs.0) })
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        // SAFETY: AVX2 was detected (module invariant).
        I16x16(unsafe { _mm256_max_epi16(self.0, rhs.0) })
    }

    #[inline(always)]
    fn any_gt(self, rhs: Self) -> bool {
        // SAFETY: AVX2 was detected (module invariant).
        unsafe { _mm256_movemask_epi8(_mm256_cmpgt_epi16(self.0, rhs.0)) != 0 }
    }

    #[inline(always)]
    fn shift_in_first(self, first: i16) -> Self {
        // `carry` holds the low half in its high half and zeros below,
        // so `alignr` pulls lane 7 across the halves into lane 8 and a
        // zero into lane 0, which the insert then overwrites.
        // SAFETY: AVX2 was detected (module invariant).
        I16x16(unsafe {
            let carry = _mm256_permute2x128_si256::<0x08>(self.0, self.0);
            _mm256_insert_epi16::<0>(_mm256_alignr_epi8::<14>(self.0, carry), first)
        })
    }

    #[inline(always)]
    fn horizontal_max(self) -> i16 {
        // Fold the high half onto the low, then the SSE2 fold.
        // SAFETY: AVX2 was detected (module invariant).
        unsafe {
            let m = _mm_max_epi16(
                _mm256_castsi256_si128(self.0),
                _mm256_extracti128_si256::<1>(self.0),
            );
            let m = _mm_max_epi16(m, _mm_srli_si128::<8>(m));
            let m = _mm_max_epi16(m, _mm_srli_si128::<4>(m));
            let m = _mm_max_epi16(m, _mm_srli_si128::<2>(m));
            _mm_cvtsi128_si32(m) as i16
        }
    }
}

impl Lanes for U8x32 {
    type Elem = u8;
    const LANES: usize = 32;

    #[inline(always)]
    fn splat(value: u8) -> Self {
        // SAFETY: AVX2 was detected (module invariant).
        U8x32(unsafe { _mm256_set1_epi8(value as i8) })
    }

    #[inline(always)]
    fn load(src: &[u8]) -> Self {
        assert!(src.len() >= 32, "load needs 32 lanes, got {}", src.len());
        // SAFETY: AVX2 was detected (module invariant); `src` holds the
        // 32 bytes read (checked above), and `loadu` needs no alignment.
        U8x32(unsafe { _mm256_loadu_si256(src.as_ptr().cast()) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [u8]) {
        assert!(dst.len() >= 32, "store needs 32 lanes, got {}", dst.len());
        // SAFETY: AVX2 was detected (module invariant); `dst` holds the
        // 32 bytes written (checked above), and `storeu` needs no
        // alignment.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), self.0) }
    }

    #[inline(always)]
    fn adds(self, rhs: Self) -> Self {
        // SAFETY: AVX2 was detected (module invariant).
        U8x32(unsafe { _mm256_adds_epu8(self.0, rhs.0) })
    }

    #[inline(always)]
    fn subs(self, rhs: Self) -> Self {
        // SAFETY: AVX2 was detected (module invariant).
        U8x32(unsafe { _mm256_subs_epu8(self.0, rhs.0) })
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        // SAFETY: AVX2 was detected (module invariant).
        U8x32(unsafe { _mm256_max_epu8(self.0, rhs.0) })
    }

    #[inline(always)]
    fn any_gt(self, rhs: Self) -> bool {
        // AVX2 compares bytes as signed only; unsigned a > b is exactly
        // "a - b saturates to non-zero".
        // SAFETY: AVX2 was detected (module invariant).
        unsafe {
            let le = _mm256_cmpeq_epi8(_mm256_subs_epu8(self.0, rhs.0), _mm256_setzero_si256());
            _mm256_movemask_epi8(le) != -1
        }
    }

    #[inline(always)]
    fn shift_in_first(self, first: u8) -> Self {
        // As for the word lanes: `alignr` on the halves with the low
        // half carried up moves lane 15 into lane 16.
        // SAFETY: AVX2 was detected (module invariant).
        U8x32(unsafe {
            let carry = _mm256_permute2x128_si256::<0x08>(self.0, self.0);
            _mm256_insert_epi8::<0>(_mm256_alignr_epi8::<15>(self.0, carry), first as i8)
        })
    }

    #[inline(always)]
    fn horizontal_max(self) -> u8 {
        // SAFETY: AVX2 was detected (module invariant).
        unsafe {
            let m = _mm_max_epu8(
                _mm256_castsi256_si128(self.0),
                _mm256_extracti128_si256::<1>(self.0),
            );
            let m = _mm_max_epu8(m, _mm_srli_si128::<8>(m));
            let m = _mm_max_epu8(m, _mm_srli_si128::<4>(m));
            let m = _mm_max_epu8(m, _mm_srli_si128::<2>(m));
            let m = _mm_max_epu8(m, _mm_srli_si128::<1>(m));
            _mm_cvtsi128_si32(m) as u8
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::striped::avx2_detected;
    use sapa_bioseq::profile::WORD_PAD;
    use sapa_bioseq::rng::Xoshiro256;
    use sapa_vsimd::{ByteVector, Vector};

    /// Every operation of both lane types agrees bit for bit with its
    /// emulated twin, on random lanes mixed with the edge values the
    /// kernels feed them: `WORD_PAD`, the `i16` extremes, and bytes
    /// above 127, where a signed compare answers wrongly.
    #[test]
    fn avx2_lane_ops_match_emulated_twins() {
        if !avx2_detected() {
            eprintln!("note: this CPU has no AVX2; the AVX2 lane checks are skipped");
            return;
        }
        // SAFETY: `avx2_detected()` just confirmed this CPU runs AVX2.
        unsafe { check_lane_ops() }
    }

    fn words<V: Lanes<Elem = i16>>(v: V) -> [i16; 16] {
        let mut out = [0; 16];
        v.store(&mut out);
        out
    }

    fn bytes<V: Lanes<Elem = u8>>(v: V) -> [u8; 32] {
        let mut out = [0; 32];
        v.store(&mut out);
        out
    }

    /// Half the picks from `edges`, half uniform over the type.
    fn pick<T: Copy>(rng: &mut Xoshiro256, edges: &[T], uniform: impl Fn(u64) -> T) -> T {
        if rng.next_below(2) == 0 {
            edges[rng.next_below(edges.len() as u64) as usize]
        } else {
            uniform(rng.next_u64())
        }
    }

    #[target_feature(enable = "avx2")]
    fn check_lane_ops() {
        let mut rng = Xoshiro256::new(0xA2F2);
        let word_edges = [
            i16::MIN,
            i16::MIN + 1,
            WORD_PAD,
            -1,
            0,
            1,
            i16::MAX - 1,
            i16::MAX,
        ];
        let byte_edges = [0u8, 1, 126, 127, 128, 129, 200, 254, 255];
        for case in 0..512 {
            let a: [i16; 16] =
                std::array::from_fn(|_| pick(&mut rng, &word_edges, |x| x as u16 as i16));
            let b: [i16; 16] =
                std::array::from_fn(|_| pick(&mut rng, &word_edges, |x| x as u16 as i16));
            let fill = if case % 2 == 0 { WORD_PAD } else { a[0] };
            let (sa, sb) = (I16x16::load(&a), I16x16::load(&b));
            let (ea, eb) = (Vector::<16>::from_array(a), Vector::<16>::from_array(b));
            assert_eq!(words(sa), a, "load/store case {case}");
            assert_eq!(
                words(I16x16::splat(fill)),
                Vector::<16>::splat(fill).to_array()
            );
            assert_eq!(words(sa.adds(sb)), ea.adds(eb).to_array(), "adds {case}");
            assert_eq!(words(sa.subs(sb)), ea.subs(eb).to_array(), "subs {case}");
            assert_eq!(words(sa.max(sb)), ea.max(eb).to_array(), "max {case}");
            assert_eq!(sa.any_gt(sb), ea.any_gt(eb), "any_gt {case}");
            assert!(!sa.any_gt(sa), "any_gt self {case}");
            assert_eq!(
                words(sa.shift_in_first(fill)),
                ea.shift_in_first(fill).to_array(),
                "shift_in_first {case}"
            );
            assert_eq!(sa.horizontal_max(), ea.horizontal_max(), "hmax {case}");

            let a: [u8; 32] = std::array::from_fn(|_| pick(&mut rng, &byte_edges, |x| x as u8));
            let b: [u8; 32] = std::array::from_fn(|_| pick(&mut rng, &byte_edges, |x| x as u8));
            let fill = if case % 2 == 0 { 0 } else { a[0] };
            let (sa, sb) = (U8x32::load(&a), U8x32::load(&b));
            let (ea, eb) = (
                ByteVector::<32>::from_array(a),
                ByteVector::<32>::from_array(b),
            );
            assert_eq!(bytes(sa), a, "load/store case {case}");
            assert_eq!(
                bytes(U8x32::splat(a[1])),
                ByteVector::<32>::splat(a[1]).to_array()
            );
            assert_eq!(bytes(sa.adds(sb)), ea.adds(eb).to_array(), "adds {case}");
            assert_eq!(bytes(sa.subs(sb)), ea.subs(eb).to_array(), "subs {case}");
            assert_eq!(bytes(sa.max(sb)), ea.max(eb).to_array(), "max {case}");
            assert_eq!(sa.any_gt(sb), ea.any_gt(eb), "any_gt {case}");
            assert_eq!(
                bytes(sa.shift_in_first(fill)),
                ea.shift_in_first(fill).to_array(),
                "shift_in_first {case}"
            );
            assert_eq!(sa.horizontal_max(), ea.horizontal_max(), "hmax {case}");
        }
        // One lane above 127 against 127 everywhere: only an unsigned
        // compare sees it. The lane sits in the high half, which a
        // per-half or low-half-only mistake would miss.
        let mut hi = [127u8; 32];
        hi[25] = 200;
        assert!(U8x32::load(&hi).any_gt(U8x32::splat(127)));
        assert!(!U8x32::splat(127).any_gt(U8x32::load(&hi)));
        // The element that crosses the halves: lane 15 into lane 16
        // (bytes), lane 7 into lane 8 (words).
        let ramp: [u8; 32] = std::array::from_fn(|i| i as u8 + 1);
        assert_eq!(bytes(U8x32::load(&ramp).shift_in_first(0))[16], 16);
        let ramp: [i16; 16] = std::array::from_fn(|i| i as i16 + 1);
        assert_eq!(words(I16x16::load(&ramp).shift_in_first(0))[8], 8);
    }
}
