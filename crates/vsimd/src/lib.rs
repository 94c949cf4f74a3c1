//! Altivec-style SIMD vectors: emulated lanes, plus real SSE2 registers
//! on x86_64.
//!
//! The paper's `SW_vmx128` workload uses the real Altivec extension
//! (128-bit registers, eight 16-bit lanes for Smith-Waterman scores);
//! `SW_vmx256` uses a "futuristic" 256-bit extension the authors added
//! to GCC and Turandot. This crate emulates both: a const-generic
//! [`Vector`] of `i16` lanes with the saturating-arithmetic, max/min,
//! compare, and element-rotation operations the vectorized
//! Smith-Waterman kernels need.
//!
//! The emulation computes real values — the SIMD Smith-Waterman built on
//! it is checked lane-for-lane against the scalar algorithm — while the
//! instrumented workloads separately emit the corresponding `vsimple`/
//! `vperm` trace instructions.
//!
//! [`Lanes`] names the operations the striped Smith-Waterman kernels
//! use. The emulated [`Vector`]/[`ByteVector`] implement it, and so do
//! the `__m128i`-backed [`sse2`] types on x86_64, which the striped
//! kernels run on at the 128-bit width; the emulated types stay the
//! oracle they are tested against. The 256-bit AVX2 lanes are not
//! here: AVX2 needs run-time detection, and the safe [`Lanes::splat`]
//! and [`Lanes::load`] would make a public AVX2 type unsound, so
//! `sapa-align` keeps them private to its striped kernels.
//!
//! ```
//! use sapa_vsimd::V128;
//!
//! let a = V128::splat(1000);
//! let b = V128::splat(32000);
//! let c = a.adds(b);                // saturates at i16::MAX
//! assert_eq!(c.extract(0), i16::MAX);
//! ```

#[cfg(target_arch = "x86_64")]
pub mod sse2;

/// The lane operations the striped Smith-Waterman kernels are written
/// against, so one kernel body runs on any register type.
///
/// Lane 0 is the element at the lowest slice index. Every
/// implementation must agree lane for lane with the emulated
/// [`Vector`] (`Elem = i16`) or [`ByteVector`] (`Elem = u8`) of the
/// same lane count.
pub trait Lanes: Copy {
    /// Lane element: `i16` for word lanes, `u8` for byte lanes.
    type Elem: Copy;

    /// Number of lanes.
    const LANES: usize;

    /// Every lane equal to `value`.
    fn splat(value: Self::Elem) -> Self;

    /// Loads the first `LANES` elements of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() < LANES`.
    fn load(src: &[Self::Elem]) -> Self;

    /// Stores the lanes into the first `LANES` elements of `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() < LANES`.
    fn store(self, dst: &mut [Self::Elem]);

    /// Lane-wise saturating addition.
    fn adds(self, rhs: Self) -> Self;

    /// Lane-wise saturating subtraction.
    fn subs(self, rhs: Self) -> Self;

    /// Lane-wise maximum.
    fn max(self, rhs: Self) -> Self;

    /// Whether any lane of `self` exceeds the same lane of `rhs`.
    fn any_gt(self, rhs: Self) -> bool;

    /// Shifts every lane one position toward higher indices and puts
    /// `first` in lane 0.
    fn shift_in_first(self, first: Self::Elem) -> Self;

    /// The largest lane value.
    fn horizontal_max(self) -> Self::Elem;
}

/// Sixteen byte lanes whose 16 × 16 tiles transpose: the score gather
/// of an inter-sequence kernel, which loads one profile row per subject
/// and needs the tile as one register per query position.
pub trait Transpose16: Lanes<Elem = u8> {
    /// Transposes a 16 × 16 byte tile: lane `k` of output `t` is lane
    /// `t` of input `k`.
    fn transpose16(tile: [Self; 16]) -> [Self; 16];
}

impl Transpose16 for ByteVector<16> {
    #[inline]
    fn transpose16(tile: [Self; 16]) -> [Self; 16] {
        std::array::from_fn(|t| ByteVector {
            lanes: std::array::from_fn(|k| tile[k].lanes[t]),
        })
    }
}

/// Implements [`Lanes`] for an emulated vector by delegating to its
/// inherent methods.
macro_rules! emulated_lanes {
    ($vector:ident, $elem:ty) => {
        impl<const L: usize> Lanes for $vector<L> {
            type Elem = $elem;
            const LANES: usize = L;

            #[inline]
            fn splat(value: $elem) -> Self {
                $vector::splat(value)
            }

            #[inline]
            fn load(src: &[$elem]) -> Self {
                $vector::from_slice(src)
            }

            #[inline]
            fn store(self, dst: &mut [$elem]) {
                dst[..L].copy_from_slice(&self.lanes);
            }

            #[inline]
            fn adds(self, rhs: Self) -> Self {
                $vector::adds(self, rhs)
            }

            #[inline]
            fn subs(self, rhs: Self) -> Self {
                $vector::subs(self, rhs)
            }

            #[inline]
            fn max(self, rhs: Self) -> Self {
                $vector::max(self, rhs)
            }

            #[inline]
            fn any_gt(self, rhs: Self) -> bool {
                $vector::any_gt(self, rhs)
            }

            #[inline]
            fn shift_in_first(self, first: $elem) -> Self {
                $vector::shift_in_first(self, first)
            }

            #[inline]
            fn horizontal_max(self) -> $elem {
                $vector::horizontal_max(self)
            }
        }
    };
}

emulated_lanes!(Vector, i16);
emulated_lanes!(ByteVector, u8);

/// A vector of `L` signed 16-bit lanes.
///
/// `L = 8` models an Altivec 128-bit register ([`V128`]); `L = 16`
/// models the paper's 256-bit extension ([`V256`]). Lane 0 is the
/// "leftmost" element, matching the shift direction of
/// [`Vector::shift_in_first`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Vector<const L: usize> {
    lanes: [i16; L],
}

/// 128-bit Altivec vector: eight 16-bit lanes.
pub type V128 = Vector<8>;

/// Futuristic 256-bit vector: sixteen 16-bit lanes.
pub type V256 = Vector<16>;

impl<const L: usize> Vector<L> {
    /// Number of lanes.
    pub const LANES: usize = L;

    /// Register width in bytes.
    pub const WIDTH_BYTES: u32 = (L * 2) as u32;

    /// A vector with every lane equal to `value` (Altivec `vspltish`).
    #[inline]
    pub const fn splat(value: i16) -> Self {
        Vector { lanes: [value; L] }
    }

    /// The all-zero vector.
    #[inline]
    pub const fn zero() -> Self {
        Self::splat(0)
    }

    /// Builds a vector from exactly `L` lane values.
    #[inline]
    pub const fn from_array(lanes: [i16; L]) -> Self {
        Vector { lanes }
    }

    /// Loads `L` lanes from the front of `slice` (Altivec `lvx`).
    ///
    /// # Panics
    ///
    /// Panics if `slice.len() < L`.
    #[inline]
    pub fn from_slice(slice: &[i16]) -> Self {
        let mut lanes = [0i16; L];
        lanes.copy_from_slice(&slice[..L]);
        Vector { lanes }
    }

    /// The lane values.
    #[inline]
    pub const fn to_array(self) -> [i16; L] {
        self.lanes
    }

    /// Value of lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= L`.
    #[inline]
    pub const fn extract(self, i: usize) -> i16 {
        self.lanes[i]
    }

    /// Returns a copy with lane `i` replaced by `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= L`.
    #[inline]
    pub fn insert(mut self, i: usize, value: i16) -> Self {
        self.lanes[i] = value;
        self
    }

    /// Lane-wise saturating addition (Altivec `vaddshs`).
    #[inline]
    pub fn adds(self, rhs: Self) -> Self {
        self.zip(rhs, i16::saturating_add)
    }

    /// Lane-wise saturating subtraction (Altivec `vsubshs`).
    #[inline]
    pub fn subs(self, rhs: Self) -> Self {
        self.zip(rhs, i16::saturating_sub)
    }

    /// Lane-wise maximum (Altivec `vmaxsh`).
    #[inline]
    pub fn max(self, rhs: Self) -> Self {
        self.zip(rhs, std::cmp::max)
    }

    /// Lane-wise minimum (Altivec `vminsh`).
    #[inline]
    pub fn min(self, rhs: Self) -> Self {
        self.zip(rhs, std::cmp::min)
    }

    /// Whether any lane of `self` exceeds the corresponding lane of
    /// `rhs` (Altivec `vcmpgtsh.` with the CR6 "any" predicate).
    #[inline]
    pub fn any_gt(self, rhs: Self) -> bool {
        self.lanes.iter().zip(rhs.lanes.iter()).any(|(a, b)| a > b)
    }

    /// Lane-wise select: where `mask` lane is non-zero take `self`'s
    /// lane, otherwise `other`'s (Altivec `vsel`).
    #[inline]
    pub fn select(self, other: Self, mask: Self) -> Self {
        let mut lanes = [0i16; L];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = if mask.lanes[i] != 0 {
                self.lanes[i]
            } else {
                other.lanes[i]
            };
        }
        Vector { lanes }
    }

    /// Shifts every lane one position toward higher indices and inserts
    /// `first` into lane 0 — the `vsldoi`+`vperm` idiom the
    /// anti-diagonal Smith-Waterman uses to feed one strip's boundary
    /// into the next diagonal step.
    #[inline]
    pub fn shift_in_first(self, first: i16) -> Self {
        let mut lanes = [0i16; L];
        lanes[0] = first;
        lanes[1..L].copy_from_slice(&self.lanes[..L - 1]);
        Vector { lanes }
    }

    /// The last lane — the value that exits the register when
    /// [`Vector::shift_in_first`] is applied.
    #[inline]
    pub const fn last(self) -> i16 {
        self.lanes[L - 1]
    }

    /// Maximum lane value (Altivec max-across idiom: log2(L) `vperm` +
    /// `vmaxsh` pairs).
    #[inline]
    pub fn horizontal_max(self) -> i16 {
        let mut m = i16::MIN;
        let mut i = 0;
        while i < L {
            if self.lanes[i] > m {
                m = self.lanes[i];
            }
            i += 1;
        }
        m
    }

    #[inline]
    fn zip(self, rhs: Self, f: impl Fn(i16, i16) -> i16) -> Self {
        let mut lanes = [0i16; L];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = f(self.lanes[i], rhs.lanes[i]);
        }
        Vector { lanes }
    }
}

impl<const L: usize> Default for Vector<L> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<const L: usize> std::fmt::Display for Vector<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<")?;
        for (i, v) in self.lanes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_and_extract() {
        let v = V128::splat(7);
        for i in 0..V128::LANES {
            assert_eq!(v.extract(i), 7);
        }
        assert_eq!(V256::LANES, 16);
        assert_eq!(V128::WIDTH_BYTES, 16);
        assert_eq!(V256::WIDTH_BYTES, 32);
    }

    #[test]
    fn saturating_add_and_sub() {
        let big = V128::splat(i16::MAX - 10);
        assert_eq!(big.adds(V128::splat(100)).extract(0), i16::MAX);
        let small = V128::splat(i16::MIN + 10);
        assert_eq!(small.subs(V128::splat(100)).extract(3), i16::MIN);
        assert_eq!(V128::splat(5).adds(V128::splat(6)).extract(1), 11);
    }

    #[test]
    fn max_min_select() {
        let a = V128::from_array([1, 2, 3, 4, 5, 6, 7, 8]);
        let b = V128::splat(4);
        assert_eq!(a.max(b).to_array(), [4, 4, 4, 4, 5, 6, 7, 8]);
        assert_eq!(a.min(b).to_array(), [1, 2, 3, 4, 4, 4, 4, 4]);
        let mask = V128::from_array([0, 0, 0, 0, -1, -1, -1, -1]);
        let sel = a.select(b, mask);
        assert_eq!(sel.to_array(), [4, 4, 4, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn any_gt() {
        let a = V128::from_array([0, 0, 0, 0, 0, 0, 0, 1]);
        assert!(a.any_gt(V128::zero()));
        assert!(!V128::zero().any_gt(V128::zero()));
    }

    #[test]
    fn shift_in_first_rotates() {
        let a = V128::from_array([1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(a.last(), 8);
        let b = a.shift_in_first(99);
        assert_eq!(b.to_array(), [99, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn horizontal_max() {
        let a = V256::from_array([-5, 3, 17, 2, 9, -20, 0, 4, 1, 1, 1, 16, 15, 14, 13, 12]);
        assert_eq!(a.horizontal_max(), 17);
        assert_eq!(V128::splat(-3).horizontal_max(), -3);
    }

    #[test]
    fn from_slice_takes_prefix() {
        let data: Vec<i16> = (0..20).collect();
        let v = V128::from_slice(&data);
        assert_eq!(v.to_array(), [0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    #[should_panic]
    fn from_slice_too_short_panics() {
        let _ = V128::from_slice(&[1, 2, 3]);
    }

    #[test]
    fn insert_replaces_one_lane() {
        let v = V128::zero().insert(5, 42);
        assert_eq!(v.extract(5), 42);
        assert_eq!(v.extract(4), 0);
    }

    #[test]
    fn display_format() {
        let v = Vector::<2>::from_array([1, -2]);
        assert_eq!(v.to_string(), "<1, -2>");
    }
}

/// A vector of `L` unsigned 8-bit lanes — the byte-precision register
/// layout real SIMD Smith-Waterman implementations use for their fast
/// first pass (16 lanes per 128-bit Altivec register instead of 8).
///
/// Local-alignment scores are naturally non-negative, so unsigned
/// saturating arithmetic gives the zero floor for free; overflow is
/// detected by lanes reaching [`u8::MAX`] and handled by the caller
/// re-running in 16-bit precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ByteVector<const L: usize> {
    lanes: [u8; L],
}

/// 128-bit byte vector: sixteen u8 lanes.
pub type B128 = ByteVector<16>;

/// 256-bit byte vector: thirty-two u8 lanes.
pub type B256 = ByteVector<32>;

impl<const L: usize> ByteVector<L> {
    /// Number of lanes.
    pub const LANES: usize = L;

    /// A vector with every lane equal to `value` (Altivec `vspltb`).
    #[inline]
    pub const fn splat(value: u8) -> Self {
        ByteVector { lanes: [value; L] }
    }

    /// The all-zero vector.
    #[inline]
    pub const fn zero() -> Self {
        Self::splat(0)
    }

    /// Builds a vector from exactly `L` lane values.
    #[inline]
    pub const fn from_array(lanes: [u8; L]) -> Self {
        ByteVector { lanes }
    }

    /// Loads `L` lanes from the front of `slice` (Altivec `lvx`).
    ///
    /// # Panics
    ///
    /// Panics if `slice.len() < L`.
    #[inline]
    pub fn from_slice(slice: &[u8]) -> Self {
        let mut lanes = [0u8; L];
        lanes.copy_from_slice(&slice[..L]);
        ByteVector { lanes }
    }

    /// The lane values.
    #[inline]
    pub const fn to_array(self) -> [u8; L] {
        self.lanes
    }

    /// Value of lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= L`.
    #[inline]
    pub const fn extract(self, i: usize) -> u8 {
        self.lanes[i]
    }

    /// Returns a copy with lane `i` replaced by `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= L`.
    #[inline]
    pub fn insert(mut self, i: usize, value: u8) -> Self {
        self.lanes[i] = value;
        self
    }

    /// Lane-wise saturating addition (Altivec `vaddubs`).
    #[inline]
    pub fn adds(self, rhs: Self) -> Self {
        self.zip(rhs, u8::saturating_add)
    }

    /// Lane-wise saturating subtraction — clamps at 0, which is
    /// exactly the local-alignment floor (Altivec `vsububs`).
    #[inline]
    pub fn subs(self, rhs: Self) -> Self {
        self.zip(rhs, u8::saturating_sub)
    }

    /// Lane-wise maximum (Altivec `vmaxub`).
    #[inline]
    pub fn max(self, rhs: Self) -> Self {
        self.zip(rhs, std::cmp::max)
    }

    /// Whether any lane of `self` exceeds the corresponding lane of
    /// `rhs` (Altivec `vcmpgtub.` with the CR6 "any" predicate) — the
    /// striped kernel's lazy-F loop exit test.
    #[inline]
    pub fn any_gt(self, rhs: Self) -> bool {
        self.lanes.iter().zip(rhs.lanes.iter()).any(|(a, b)| a > b)
    }

    /// Shifts every lane one position toward higher indices and
    /// inserts `first` into lane 0.
    #[inline]
    pub fn shift_in_first(self, first: u8) -> Self {
        let mut lanes = [0u8; L];
        lanes[0] = first;
        lanes[1..L].copy_from_slice(&self.lanes[..L - 1]);
        ByteVector { lanes }
    }

    /// Maximum lane value.
    #[inline]
    pub fn horizontal_max(self) -> u8 {
        let mut m = 0u8;
        let mut i = 0;
        while i < L {
            if self.lanes[i] > m {
                m = self.lanes[i];
            }
            i += 1;
        }
        m
    }

    #[inline]
    fn zip(self, rhs: Self, f: impl Fn(u8, u8) -> u8) -> Self {
        let mut lanes = [0u8; L];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = f(self.lanes[i], rhs.lanes[i]);
        }
        ByteVector { lanes }
    }
}

impl<const L: usize> Default for ByteVector<L> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<const L: usize> std::fmt::Display for ByteVector<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<")?;
        for (i, v) in self.lanes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod byte_tests {
    use super::*;

    #[test]
    fn saturating_byte_math() {
        let a = B128::splat(250);
        assert_eq!(a.adds(B128::splat(10)).extract(0), 255);
        assert_eq!(B128::splat(3).subs(B128::splat(10)).extract(5), 0);
    }

    #[test]
    fn byte_shift_and_max() {
        let mut arr = [0u8; 16];
        for (i, v) in arr.iter_mut().enumerate() {
            *v = i as u8;
        }
        let v = B128::from_array(arr);
        assert_eq!(v.horizontal_max(), 15);
        let s = v.shift_in_first(99);
        assert_eq!(s.extract(0), 99);
        assert_eq!(s.extract(1), 0);
        assert_eq!(s.extract(15), 14);
    }

    #[test]
    fn byte_from_slice_and_any_gt() {
        let data: Vec<u8> = (10..40).collect();
        let v = B128::from_slice(&data);
        assert_eq!(v.extract(0), 10);
        assert_eq!(v.extract(15), 25);
        assert!(v.any_gt(B128::splat(24)));
        assert!(!v.any_gt(B128::splat(25)));
    }

    #[test]
    fn transpose16_swaps_rows_and_lanes() {
        let tile: [B128; 16] =
            std::array::from_fn(|k| B128::from_array(std::array::from_fn(|t| (16 * k + t) as u8)));
        let out = B128::transpose16(tile);
        for (t, row) in out.iter().enumerate() {
            for k in 0..16 {
                assert_eq!(row.extract(k), (16 * k + t) as u8, "row {t} lane {k}");
            }
        }
        assert_eq!(B128::transpose16(out), tile);
    }

    #[test]
    fn byte_insert_and_display() {
        let v = ByteVector::<2>::zero().insert(1, 7);
        assert_eq!(v.to_string(), "<0, 7>");
        assert_eq!(B256::LANES, 32);
    }
}
