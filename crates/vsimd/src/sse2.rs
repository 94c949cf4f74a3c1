//! SSE2 registers behind the [`Lanes`] operations: eight `i16` lanes
//! ([`I16x8`]) and sixteen `u8` lanes ([`U8x16`]) of one `__m128i`.
//!
//! These are the 128-bit register types the striped Smith-Waterman
//! kernels run on. SSE2 is part of the x86_64 baseline, so every
//! intrinsic here is always available: there is no runtime CPU
//! detection and no fallback.
//!
//! Lane `i` is the element at slice index `i`, exactly as in the
//! emulated [`Vector`](crate::Vector) and
//! [`ByteVector`](crate::ByteVector) these types are tested against.
//!
//! ```
//! use sapa_vsimd::sse2::U8x16;
//! use sapa_vsimd::Lanes;
//!
//! let v = U8x16::splat(200).adds(U8x16::splat(100)); // saturates at 255
//! assert_eq!(v.horizontal_max(), 255);
//! assert!(v.any_gt(U8x16::splat(128))); // compares unsigned
//! ```

use std::arch::x86_64::*;

use crate::{Lanes, Transpose16};

/// Eight signed 16-bit lanes in one SSE2 register.
#[derive(Debug, Clone, Copy)]
pub struct I16x8(__m128i);

/// Sixteen unsigned 8-bit lanes in one SSE2 register.
#[derive(Debug, Clone, Copy)]
pub struct U8x16(__m128i);

impl Lanes for I16x8 {
    type Elem = i16;
    const LANES: usize = 8;

    #[inline]
    fn splat(value: i16) -> Self {
        // SAFETY: SSE2 is in the x86_64 baseline.
        I16x8(unsafe { _mm_set1_epi16(value) })
    }

    #[inline]
    fn load(src: &[i16]) -> Self {
        assert!(src.len() >= 8, "load needs 8 lanes, got {}", src.len());
        // SAFETY: SSE2 is in the x86_64 baseline; `src` holds the 16
        // bytes read (checked above), and `loadu` needs no alignment.
        I16x8(unsafe { _mm_loadu_si128(src.as_ptr().cast()) })
    }

    #[inline]
    fn store(self, dst: &mut [i16]) {
        assert!(dst.len() >= 8, "store needs 8 lanes, got {}", dst.len());
        // SAFETY: SSE2 is in the x86_64 baseline; `dst` holds the 16
        // bytes written (checked above), and `storeu` needs no alignment.
        unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), self.0) }
    }

    #[inline]
    fn adds(self, rhs: Self) -> Self {
        // SAFETY: SSE2 is in the x86_64 baseline.
        I16x8(unsafe { _mm_adds_epi16(self.0, rhs.0) })
    }

    #[inline]
    fn subs(self, rhs: Self) -> Self {
        // SAFETY: SSE2 is in the x86_64 baseline.
        I16x8(unsafe { _mm_subs_epi16(self.0, rhs.0) })
    }

    #[inline]
    fn max(self, rhs: Self) -> Self {
        // SAFETY: SSE2 is in the x86_64 baseline.
        I16x8(unsafe { _mm_max_epi16(self.0, rhs.0) })
    }

    #[inline]
    fn any_gt(self, rhs: Self) -> bool {
        // SAFETY: SSE2 is in the x86_64 baseline.
        unsafe { _mm_movemask_epi8(_mm_cmpgt_epi16(self.0, rhs.0)) != 0 }
    }

    #[inline]
    fn shift_in_first(self, first: i16) -> Self {
        // Byte shift toward higher lanes, then write lane 0.
        // SAFETY: SSE2 is in the x86_64 baseline.
        I16x8(unsafe { _mm_insert_epi16::<0>(_mm_slli_si128::<2>(self.0), i32::from(first)) })
    }

    #[inline]
    fn horizontal_max(self) -> i16 {
        // Fold halves into lane 0; the zeros the shifts bring in only
        // ever reach lanes the fold no longer reads.
        // SAFETY: SSE2 is in the x86_64 baseline.
        unsafe {
            let m = _mm_max_epi16(self.0, _mm_srli_si128::<8>(self.0));
            let m = _mm_max_epi16(m, _mm_srli_si128::<4>(m));
            let m = _mm_max_epi16(m, _mm_srli_si128::<2>(m));
            _mm_cvtsi128_si32(m) as i16
        }
    }
}

impl Lanes for U8x16 {
    type Elem = u8;
    const LANES: usize = 16;

    #[inline]
    fn splat(value: u8) -> Self {
        // SAFETY: SSE2 is in the x86_64 baseline.
        U8x16(unsafe { _mm_set1_epi8(value as i8) })
    }

    #[inline]
    fn load(src: &[u8]) -> Self {
        assert!(src.len() >= 16, "load needs 16 lanes, got {}", src.len());
        // SAFETY: SSE2 is in the x86_64 baseline; `src` holds the 16
        // bytes read (checked above), and `loadu` needs no alignment.
        U8x16(unsafe { _mm_loadu_si128(src.as_ptr().cast()) })
    }

    #[inline]
    fn store(self, dst: &mut [u8]) {
        assert!(dst.len() >= 16, "store needs 16 lanes, got {}", dst.len());
        // SAFETY: SSE2 is in the x86_64 baseline; `dst` holds the 16
        // bytes written (checked above), and `storeu` needs no alignment.
        unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), self.0) }
    }

    #[inline]
    fn adds(self, rhs: Self) -> Self {
        // SAFETY: SSE2 is in the x86_64 baseline.
        U8x16(unsafe { _mm_adds_epu8(self.0, rhs.0) })
    }

    #[inline]
    fn subs(self, rhs: Self) -> Self {
        // SAFETY: SSE2 is in the x86_64 baseline.
        U8x16(unsafe { _mm_subs_epu8(self.0, rhs.0) })
    }

    #[inline]
    fn max(self, rhs: Self) -> Self {
        // SAFETY: SSE2 is in the x86_64 baseline.
        U8x16(unsafe { _mm_max_epu8(self.0, rhs.0) })
    }

    #[inline]
    fn any_gt(self, rhs: Self) -> bool {
        // SSE2 compares bytes as signed only; unsigned a > b is
        // exactly "a - b saturates to non-zero".
        // SAFETY: SSE2 is in the x86_64 baseline.
        unsafe {
            let le = _mm_cmpeq_epi8(_mm_subs_epu8(self.0, rhs.0), _mm_setzero_si128());
            _mm_movemask_epi8(le) != 0xFFFF
        }
    }

    #[inline]
    fn shift_in_first(self, first: u8) -> Self {
        // The byte shift zeroes lane 0; OR the new value into it.
        // SAFETY: SSE2 is in the x86_64 baseline.
        U8x16(unsafe {
            _mm_or_si128(
                _mm_slli_si128::<1>(self.0),
                _mm_cvtsi32_si128(i32::from(first)),
            )
        })
    }

    #[inline]
    fn horizontal_max(self) -> u8 {
        // SAFETY: SSE2 is in the x86_64 baseline.
        unsafe {
            let m = _mm_max_epu8(self.0, _mm_srli_si128::<8>(self.0));
            let m = _mm_max_epu8(m, _mm_srli_si128::<4>(m));
            let m = _mm_max_epu8(m, _mm_srli_si128::<2>(m));
            let m = _mm_max_epu8(m, _mm_srli_si128::<1>(m));
            _mm_cvtsi128_si32(m) as u8
        }
    }
}

impl Transpose16 for U8x16 {
    #[inline]
    fn transpose16(tile: [Self; 16]) -> [Self; 16] {
        // One round interleaves rows `i` and `i + 8` byte by byte into
        // rows `2i` and `2i + 1`. Read a byte's place as eight bits, row
        // then lane: a round rotates them left by one, so four rounds
        // swap row and lane.
        #[inline(always)]
        fn round(t: [U8x16; 16]) -> [U8x16; 16] {
            // SAFETY: SSE2 is in the x86_64 baseline.
            let lo = |i: usize| U8x16(unsafe { _mm_unpacklo_epi8(t[i].0, t[i + 8].0) });
            // SAFETY: SSE2 is in the x86_64 baseline.
            let hi = |i: usize| U8x16(unsafe { _mm_unpackhi_epi8(t[i].0, t[i + 8].0) });
            [
                lo(0),
                hi(0),
                lo(1),
                hi(1),
                lo(2),
                hi(2),
                lo(3),
                hi(3),
                lo(4),
                hi(4),
                lo(5),
                hi(5),
                lo(6),
                hi(6),
                lo(7),
                hi(7),
            ]
        }
        round(round(round(round(tile))))
    }
}
