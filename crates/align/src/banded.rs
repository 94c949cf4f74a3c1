//! Banded alignment around a seed diagonal.
//!
//! Both heuristics rescore promising regions with dynamic programming
//! restricted to a diagonal band: FASTA's `opt` score and our stand-in
//! for BLAST's gapped extension. Restricting columns `j` to
//! `i + diag - width ..= i + diag + width` makes the cost
//! `O(len(a) · (2·width+1))` instead of `O(len(a) · len(b))`.
//!
//! [`global_align`] is the traceback sibling: a banded *global*
//! (Needleman-Wunsch) pass with full path recovery, used as the third
//! pass of the striped traceback ([`crate::traceback`]) to emit a
//! CIGAR over the bounded window the two striped passes pinned down.

use sapa_bioseq::matrix::GapPenalties;
use sapa_bioseq::{AminoAcid, SubstitutionMatrix};

use crate::sw::{AlignOp, NEG};

/// Computes the best local alignment score restricted to the band of
/// half-width `width` around `diag`, where a cell `(i, j)` (0-based
/// residue indices) lies on diagonal `j - i`.
///
/// The result is a lower bound on the unrestricted [`crate::sw::score`]
/// and equals it when the band covers the whole matrix.
///
/// # Panics
///
/// Panics if `width` is zero (an empty band is almost certainly a bug
/// at the call site).
pub fn score(
    a: &[AminoAcid],
    b: &[AminoAcid],
    matrix: &SubstitutionMatrix,
    gaps: GapPenalties,
    diag: isize,
    width: usize,
) -> i32 {
    assert!(width > 0, "band width must be positive");
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let open_ext = gaps.open + gaps.extend;
    let ext = gaps.extend;
    let n = b.len() as isize;
    let w = width as isize;

    // Band-local storage indexed by offset = j - (i + diag) + width,
    // so offsets 0..=2*width. h/f hold the previous row, new_h/new_f
    // the row being computed; the pairs swap after every row.
    let band = 2 * width + 1;
    let mut h = vec![0i32; band];
    let mut f = vec![NEG; band];
    let mut new_h = vec![NEG; band];
    let mut new_f = vec![NEG; band];
    let mut best = 0;

    for (i, &ai) in a.iter().enumerate() {
        let i = i as isize;
        // Row i of the band covers columns j in [i+diag-w, i+diag+w].
        // Relative to row i-1 the window shifts right by one: the
        // previous row's offset for column j is (offset + 1).
        let mut h_left = 0i32; // H[i][j-1]: left neighbour, NEG outside band
        let mut e_left = NEG;
        for off in 0..band as isize {
            let j = i + diag - w + off;
            if j < 0 || j >= n {
                new_h[off as usize] = NEG;
                new_f[off as usize] = NEG;
                h_left = NEG;
                e_left = NEG;
                continue;
            }
            // Previous row, same column: offset+1 in the old arrays.
            let (h_up, f_up) = if (off + 1) < band as isize {
                (h[(off + 1) as usize], f[(off + 1) as usize])
            } else {
                (NEG, NEG)
            };
            // Previous row, previous column: same offset in old arrays.
            let h_diag_val = if i == 0 || j == 0 {
                0 // matrix boundary: alignments may start fresh
            } else {
                h[off as usize]
            };
            let h_up = if i == 0 { 0 } else { h_up };
            let h_left_eff = if j == 0 { 0 } else { h_left };

            let e_ij = (e_left - ext).max(h_left_eff - open_ext);
            let f_ij = (f_up - ext).max(h_up - open_ext);
            let diag_score = h_diag_val + matrix.score(ai, b[j as usize]);
            let h_ij = 0.max(diag_score).max(e_ij).max(f_ij);

            new_h[off as usize] = h_ij;
            new_f[off as usize] = f_ij;
            h_left = h_ij;
            e_left = e_ij;
            if h_ij > best {
                best = h_ij;
            }
        }
        std::mem::swap(&mut h, &mut new_h);
        std::mem::swap(&mut f, &mut new_f);
    }
    best
}

/// Banded *global* alignment (Needleman-Wunsch, affine gaps) with
/// traceback: returns the optimal end-to-end score restricted to the
/// band and the operations from `(0, 0)` to `(len(a), len(b))`.
///
/// The band covers diagonals `j - i` in
/// `min(0, n - m) - width ..= max(0, n - m) + width`, which always
/// contains both corners, so the result is a lower bound on the
/// unrestricted [`crate::nw::score`] and equals it once the band covers
/// every diagonal an optimal path uses — the caller (the three-pass
/// traceback) doubles `width` until the score stops being band-limited.
///
/// Memory is `O(len(a) · band)`; this runs over the small window the
/// striped end/start passes identified, not over whole subjects.
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn global_align(
    a: &[AminoAcid],
    b: &[AminoAcid],
    matrix: &SubstitutionMatrix,
    gaps: GapPenalties,
    width: usize,
) -> (i32, Vec<AlignOp>) {
    assert!(width > 0, "band width must be positive");
    let m = a.len();
    let n = b.len();
    let open_ext = gaps.open + gaps.extend;
    let ext = gaps.extend;

    // Diagonal range; offset od = (j - i) - lo indexes a row's band.
    let lo = 0isize.min(n as isize - m as isize) - width as isize;
    let hi = 0isize.max(n as isize - m as isize) + width as isize;
    let band = (hi - lo + 1) as usize;

    let idx = |i: usize, od: usize| i * band + od;
    let mut h = vec![NEG; (m + 1) * band];
    let mut e = vec![NEG; (m + 1) * band];
    let mut f = vec![NEG; (m + 1) * band];

    // Boundaries: row 0 is one open horizontal gap, column 0 one open
    // vertical gap — charged end-to-end, no local zero floor.
    h[idx(0, (-lo) as usize)] = 0;
    for j in 1..=n.min(hi as usize) {
        let od = (j as isize - lo) as usize;
        h[idx(0, od)] = -(open_ext + (j as i32 - 1) * ext);
        e[idx(0, od)] = h[idx(0, od)];
    }
    for i in 1..=m.min((-lo) as usize) {
        let od = (-(i as isize) - lo) as usize;
        h[idx(i, od)] = -(open_ext + (i as i32 - 1) * ext);
        f[idx(i, od)] = h[idx(i, od)];
    }

    for i in 1..=m {
        let j_min = 1.max(i as isize + lo) as usize;
        let j_max = n.min((i as isize + hi) as usize);
        for j in j_min..=j_max {
            let od = (j as isize - i as isize - lo) as usize;
            // Left neighbour (i, j-1) sits at od-1; above (i-1, j) at
            // od+1; the diagonal (i-1, j-1) at the same offset.
            let (h_left, e_left) = if od > 0 {
                (h[idx(i, od - 1)], e[idx(i, od - 1)])
            } else {
                (NEG, NEG)
            };
            let (h_up, f_up) = if od + 1 < band {
                (h[idx(i - 1, od + 1)], f[idx(i - 1, od + 1)])
            } else {
                (NEG, NEG)
            };
            let e_ij = (e_left - ext).max(h_left - open_ext);
            let f_ij = (f_up - ext).max(h_up - open_ext);
            let diag = h[idx(i - 1, od)] + matrix.score(a[i - 1], b[j - 1]);
            e[idx(i, od)] = e_ij;
            f[idx(i, od)] = f_ij;
            h[idx(i, od)] = diag.max(e_ij).max(f_ij);
        }
    }

    // Traceback from (m, n) to (0, 0), same H/E/F state machine as
    // `sw::align` but without the zero-floor stop.
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        H,
        E,
        F,
    }
    let od_of = |i: usize, j: usize| (j as isize - i as isize - lo) as usize;
    let mut ops = Vec::new();
    let (mut i, mut j) = (m, n);
    let mut state = State::H;
    while i > 0 || j > 0 {
        match state {
            State::H => {
                if i == 0 {
                    ops.push(AlignOp::Insert);
                    j -= 1;
                } else if j == 0 {
                    ops.push(AlignOp::Delete);
                    i -= 1;
                } else {
                    let od = od_of(i, j);
                    let v = h[idx(i, od)];
                    if v == h[idx(i - 1, od)] + matrix.score(a[i - 1], b[j - 1]) {
                        ops.push(AlignOp::Subst);
                        i -= 1;
                        j -= 1;
                    } else if v == e[idx(i, od)] {
                        state = State::E;
                    } else {
                        debug_assert_eq!(v, f[idx(i, od)]);
                        state = State::F;
                    }
                }
            }
            State::E => {
                let od = od_of(i, j);
                ops.push(AlignOp::Insert);
                let closes = od == 0 || e[idx(i, od)] == h[idx(i, od - 1)] - open_ext;
                if closes {
                    state = State::H;
                }
                j -= 1;
            }
            State::F => {
                let od = od_of(i, j);
                ops.push(AlignOp::Delete);
                let closes = od + 1 >= band || f[idx(i, od)] == h[idx(i - 1, od + 1)] - open_ext;
                if closes {
                    state = State::H;
                }
                i -= 1;
            }
        }
    }
    ops.reverse();
    (h[idx(m, (n as isize - m as isize - lo) as usize)], ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapa_bioseq::Sequence;

    fn seq(s: &str) -> Vec<AminoAcid> {
        Sequence::from_str("t", s).unwrap().residues().to_vec()
    }

    fn bl62() -> SubstitutionMatrix {
        SubstitutionMatrix::blosum62()
    }

    #[test]
    fn full_band_equals_unrestricted() {
        let m = bl62();
        let g = GapPenalties::paper();
        let a = seq("HEAGAWGHEE");
        let b = seq("PAWHEAE");
        let full = crate::sw::score(&a, &b, &m, g);
        let banded = score(&a, &b, &m, g, 0, a.len() + b.len());
        assert_eq!(banded, full);
    }

    #[test]
    fn band_is_lower_bound() {
        let m = bl62();
        let g = GapPenalties::paper();
        let a = seq("MKVLAAGWWYHEMKVL");
        let b = seq("AAGWMKVLWYHE");
        let full = crate::sw::score(&a, &b, &m, g);
        for diag in -3isize..=3 {
            for width in [1usize, 2, 4, 8] {
                assert!(score(&a, &b, &m, g, diag, width) <= full);
            }
        }
    }

    #[test]
    fn identity_on_diagonal_zero() {
        let m = bl62();
        let g = GapPenalties::paper();
        let a = seq("MKWVTFISLL");
        let expected: i32 = a.iter().map(|&x| m.score(x, x)).sum();
        assert_eq!(score(&a, &a, &m, g, 0, 2), expected);
    }

    #[test]
    fn shifted_match_needs_matching_diag() {
        let m = bl62();
        let g = GapPenalties::paper();
        // b = 5 junk + a: the true alignment lies on diagonal +5.
        let a = seq("MKWVTFWWYHE");
        let b = seq("PGPGP MKWVTFWWYHE".replace(' ', "").as_str());
        let expected: i32 = a.iter().map(|&x| m.score(x, x)).sum();
        assert_eq!(score(&a, &b, &m, g, 5, 2), expected);
        assert!(score(&a, &b, &m, g, 0, 1) < expected);
    }

    #[test]
    fn empty_inputs() {
        let m = bl62();
        let g = GapPenalties::paper();
        assert_eq!(score(&[], &seq("AA"), &m, g, 0, 2), 0);
        assert_eq!(score(&seq("AA"), &[], &m, g, 0, 2), 0);
    }

    #[test]
    #[should_panic(expected = "band width")]
    fn zero_width_rejected() {
        let m = bl62();
        let _ = score(&seq("A"), &seq("A"), &m, GapPenalties::paper(), 0, 0);
    }

    fn replay_global(a: &[AminoAcid], b: &[AminoAcid], ops: &[AlignOp], g: GapPenalties) -> i32 {
        let m = bl62();
        let (mut i, mut j) = (0usize, 0usize);
        let mut total = 0;
        let mut gap: Option<AlignOp> = None;
        for &op in ops {
            match op {
                AlignOp::Subst => {
                    total += m.score(a[i], b[j]);
                    i += 1;
                    j += 1;
                    gap = None;
                }
                AlignOp::Delete => {
                    total -= if gap == Some(AlignOp::Delete) {
                        g.extend
                    } else {
                        g.open + g.extend
                    };
                    i += 1;
                    gap = Some(AlignOp::Delete);
                }
                AlignOp::Insert => {
                    total -= if gap == Some(AlignOp::Insert) {
                        g.extend
                    } else {
                        g.open + g.extend
                    };
                    j += 1;
                    gap = Some(AlignOp::Insert);
                }
            }
        }
        assert_eq!(
            (i, j),
            (a.len(), b.len()),
            "ops must consume both sequences"
        );
        total
    }

    #[test]
    fn global_wide_band_matches_nw_oracle() {
        let m = bl62();
        let g = GapPenalties::paper();
        let pairs = [
            ("HEAGAWGHEE", "PAWHEAE"),
            ("MKVLAA", "MKVLAA"),
            ("ACDEFGHIKLMNPQRSTVWY", "ACDEFGPQRSTVWY"),
            ("AW", "HEAGAWGHEE"),
        ];
        for (x, y) in pairs {
            let a = seq(x);
            let b = seq(y);
            let expect = crate::nw::score(&a, &b, &m, g);
            let (s, ops) = global_align(&a, &b, &m, g, a.len() + b.len());
            assert_eq!(s, expect, "{x} vs {y}");
            assert_eq!(replay_global(&a, &b, &ops, g), s, "{x} vs {y}");
        }
    }

    #[test]
    fn global_narrow_band_is_lower_bound_and_consistent() {
        let m = bl62();
        let g = GapPenalties::new(2, 1);
        let a = seq("MKVLAAGWWYHEMKVL");
        let b = seq("AAGWMKVLWYHE");
        let full = crate::nw::score(&a, &b, &m, g);
        for width in [1usize, 2, 4, 8, 64] {
            let (s, ops) = global_align(&a, &b, &m, g, width);
            assert!(s <= full, "width {width}");
            assert_eq!(replay_global(&a, &b, &ops, g), s, "width {width}");
        }
        let (s, _) = global_align(&a, &b, &m, g, 64);
        assert_eq!(s, full);
    }

    #[test]
    fn global_empty_inputs_are_pure_gaps() {
        let m = bl62();
        let g = GapPenalties::paper();
        let a = seq("ACDE");
        let (s, ops) = global_align(&a, &[], &m, g, 2);
        assert_eq!(s, -g.gap_cost(4));
        assert_eq!(ops, vec![AlignOp::Delete; 4]);
        let (s, ops) = global_align(&[], &a, &m, g, 2);
        assert_eq!(s, -g.gap_cost(4));
        assert_eq!(ops, vec![AlignOp::Insert; 4]);
        let (s, ops) = global_align(&[], &[], &m, g, 2);
        assert_eq!(s, 0);
        assert!(ops.is_empty());
    }
}
