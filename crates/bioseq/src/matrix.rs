//! Amino-acid substitution scoring matrices.
//!
//! The paper runs every search with BLOSUM62 (`-s BL62`), gap open 10 and
//! gap extension 1; [`SubstitutionMatrix::blosum62`] embeds the canonical
//! NCBI table. Parametric matrices are provided for ablation studies.

use crate::alphabet::AminoAcid;

const N: usize = AminoAcid::COUNT;

/// A 24×24 integer scoring matrix over the protein alphabet.
///
/// ```
/// use sapa_bioseq::{AminoAcid, SubstitutionMatrix};
/// let m = SubstitutionMatrix::blosum62();
/// assert_eq!(m.score(AminoAcid::Trp, AminoAcid::Trp), 11);
/// assert_eq!(m.score(AminoAcid::Ala, AminoAcid::Arg), -1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubstitutionMatrix {
    name: &'static str,
    scores: [[i8; N]; N],
}

/// The canonical NCBI BLOSUM62 table, row/column order
/// `A R N D C Q E G H I L K M F P S T W Y V B Z X *`.
#[rustfmt::skip]
const BLOSUM62: [[i8; N]; N] = [
    // A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V   B   Z   X   *
    [  4, -1, -2, -2,  0, -1, -1,  0, -2, -1, -1, -1, -1, -2, -1,  1,  0, -3, -2,  0, -2, -1,  0, -4], // A
    [ -1,  5,  0, -2, -3,  1,  0, -2,  0, -3, -2,  2, -1, -3, -2, -1, -1, -3, -2, -3, -1,  0, -1, -4], // R
    [ -2,  0,  6,  1, -3,  0,  0,  0,  1, -3, -3,  0, -2, -3, -2,  1,  0, -4, -2, -3,  3,  0, -1, -4], // N
    [ -2, -2,  1,  6, -3,  0,  2, -1, -1, -3, -4, -1, -3, -3, -1,  0, -1, -4, -3, -3,  4,  1, -1, -4], // D
    [  0, -3, -3, -3,  9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1, -3, -3, -2, -4], // C
    [ -1,  1,  0,  0, -3,  5,  2, -2,  0, -3, -2,  1,  0, -3, -1,  0, -1, -2, -1, -2,  0,  3, -1, -4], // Q
    [ -1,  0,  0,  2, -4,  2,  5, -2,  0, -3, -3,  1, -2, -3, -1,  0, -1, -3, -2, -2,  1,  4, -1, -4], // E
    [  0, -2,  0, -1, -3, -2, -2,  6, -2, -4, -4, -2, -3, -3, -2,  0, -2, -2, -3, -3, -1, -2, -1, -4], // G
    [ -2,  0,  1, -1, -3,  0,  0, -2,  8, -3, -3, -1, -2, -1, -2, -1, -2, -2,  2, -3,  0,  0, -1, -4], // H
    [ -1, -3, -3, -3, -1, -3, -3, -4, -3,  4,  2, -3,  1,  0, -3, -2, -1, -3, -1,  3, -3, -3, -1, -4], // I
    [ -1, -2, -3, -4, -1, -2, -3, -4, -3,  2,  4, -2,  2,  0, -3, -2, -1, -2, -1,  1, -4, -3, -1, -4], // L
    [ -1,  2,  0, -1, -3,  1,  1, -2, -1, -3, -2,  5, -1, -3, -1,  0, -1, -3, -2, -2,  0,  1, -1, -4], // K
    [ -1, -1, -2, -3, -1,  0, -2, -3, -2,  1,  2, -1,  5,  0, -2, -1, -1, -1, -1,  1, -3, -1, -1, -4], // M
    [ -2, -3, -3, -3, -2, -3, -3, -3, -1,  0,  0, -3,  0,  6, -4, -2, -2,  1,  3, -1, -3, -3, -1, -4], // F
    [ -1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4,  7, -1, -1, -4, -3, -2, -2, -1, -2, -4], // P
    [  1, -1,  1,  0, -1,  0,  0,  0, -1, -2, -2,  0, -1, -2, -1,  4,  1, -3, -2, -2,  0,  0,  0, -4], // S
    [  0, -1,  0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1,  1,  5, -2, -2,  0, -1, -1,  0, -4], // T
    [ -3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1,  1, -4, -3, -2, 11,  2, -3, -4, -3, -2, -4], // W
    [ -2, -2, -2, -3, -2, -1, -2, -3,  2, -1, -1, -2, -1,  3, -3, -2, -2,  2,  7, -1, -3, -2, -1, -4], // Y
    [  0, -3, -3, -3, -1, -2, -2, -3, -3,  3,  1, -2,  1, -1, -2, -2,  0, -3, -1,  4, -3, -2, -1, -4], // V
    [ -2, -1,  3,  4, -3,  0,  1, -1,  0, -3, -4,  0, -3, -3, -2,  0, -1, -4, -3, -3,  4,  1, -1, -4], // B
    [ -1,  0,  0,  1, -3,  3,  4, -2,  0, -3, -3,  1, -1, -3, -1,  0, -1, -3, -2, -2,  1,  4, -1, -4], // Z
    [  0, -1, -1, -1, -2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -2,  0,  0, -2, -1, -1, -1, -1, -1, -4], // X
    [ -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4,  1], // *
];

impl SubstitutionMatrix {
    /// The canonical BLOSUM62 matrix used by the paper's `-s BL62` runs.
    pub fn blosum62() -> Self {
        SubstitutionMatrix {
            name: "BLOSUM62",
            scores: BLOSUM62,
        }
    }

    /// A parametric match/mismatch matrix over the standard residues.
    ///
    /// Ambiguity codes score `mismatch` against everything; `X`/`*`
    /// likewise. Useful for ablations and for nucleotide-style scoring.
    ///
    /// # Panics
    ///
    /// Panics if `match_score <= mismatch_score`.
    pub fn uniform(match_score: i8, mismatch_score: i8) -> Self {
        assert!(
            match_score > mismatch_score,
            "match score must exceed mismatch score"
        );
        let mut scores = [[mismatch_score; N]; N];
        for aa in AminoAcid::STANDARD {
            scores[aa.index()][aa.index()] = match_score;
        }
        SubstitutionMatrix {
            name: "uniform",
            scores,
        }
    }

    /// A BLOSUM62 variant rescaled by `num/den` (rounded to nearest),
    /// used by the ablation benches to explore matrix "sharpness"
    /// without fabricating new biological data.
    pub fn blosum62_scaled(num: i32, den: i32) -> Self {
        assert!(den > 0 && num > 0, "scale must be positive");
        let mut scores = BLOSUM62;
        for row in scores.iter_mut() {
            for s in row.iter_mut() {
                let v = (*s as i32 * num + if *s >= 0 { den / 2 } else { -den / 2 }) / den;
                *s = v.clamp(i8::MIN as i32, i8::MAX as i32) as i8;
            }
        }
        SubstitutionMatrix {
            name: "BLOSUM62-scaled",
            scores,
        }
    }

    /// Human-readable matrix name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The score table, indexed `[a.index()][b.index()]` — what two
    /// matrices must share to score alike, whatever their names.
    pub fn table(&self) -> &[[i8; N]; N] {
        &self.scores
    }

    /// Score for aligning residues `a` and `b`.
    #[inline]
    pub fn score(&self, a: AminoAcid, b: AminoAcid) -> i32 {
        self.scores[a.index()][b.index()] as i32
    }

    /// Score by raw alphabet indices.
    ///
    /// # Panics
    ///
    /// Panics if either index is `>= AminoAcid::COUNT`.
    #[inline]
    pub fn score_by_index(&self, a: usize, b: usize) -> i32 {
        self.scores[a][b] as i32
    }

    /// The largest score in the matrix (e.g. 11 for BLOSUM62's W/W).
    pub fn max_score(&self) -> i32 {
        self.scores.iter().flatten().copied().max().unwrap_or(0) as i32
    }

    /// The smallest score in the matrix.
    pub fn min_score(&self) -> i32 {
        self.scores.iter().flatten().copied().min().unwrap_or(0) as i32
    }

    /// Builds the position-specific query profile used by SSEARCH-style
    /// inner loops: `profile[pos * 24 + residue_index]` is the score of
    /// aligning query position `pos` against `residue_index`.
    ///
    /// Laying the profile out query-major matches the memory layout the
    /// real SSEARCH `pwaa` pointer walks, which the instrumented
    /// workloads rely on for realistic addresses.
    pub fn query_profile(&self, query: &[AminoAcid]) -> Vec<i8> {
        let mut profile = vec![0i8; query.len() * N];
        for (pos, &q) in query.iter().enumerate() {
            for aa in AminoAcid::ALL {
                profile[pos * N + aa.index()] = self.scores[q.index()][aa.index()];
            }
        }
        profile
    }
}

impl Default for SubstitutionMatrix {
    /// Defaults to [`SubstitutionMatrix::blosum62`], the paper's matrix.
    fn default() -> Self {
        SubstitutionMatrix::blosum62()
    }
}

/// Affine gap penalties, expressed as positive costs.
///
/// The paper uses gap open 10, gap extension 1 (`-f 11 -g 1` in FASTA's
/// convention charges open+extend = 11 for the first gap residue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GapPenalties {
    /// Cost of opening a gap (charged once per gap, in addition to the
    /// first residue's extension cost).
    pub open: i32,
    /// Cost of each gapped residue.
    pub extend: i32,
}

impl GapPenalties {
    /// Creates a penalty pair.
    ///
    /// # Panics
    ///
    /// Panics if either cost is negative.
    pub fn new(open: i32, extend: i32) -> Self {
        assert!(open >= 0 && extend >= 0, "gap penalties are positive costs");
        GapPenalties { open, extend }
    }

    /// The paper's configuration: open 10, extend 1.
    pub const fn paper() -> Self {
        GapPenalties {
            open: 10,
            extend: 1,
        }
    }

    /// Total cost of a gap of `len` residues.
    pub fn gap_cost(&self, len: u32) -> i32 {
        if len == 0 {
            0
        } else {
            self.open + self.extend * len as i32
        }
    }
}

impl Default for GapPenalties {
    fn default() -> Self {
        GapPenalties::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blosum62_is_symmetric() {
        let m = SubstitutionMatrix::blosum62();
        for a in AminoAcid::ALL {
            for b in AminoAcid::ALL {
                assert_eq!(m.score(a, b), m.score(b, a), "{a}/{b}");
            }
        }
    }

    #[test]
    fn blosum62_diagonal_dominates_row() {
        let m = SubstitutionMatrix::blosum62();
        for a in AminoAcid::STANDARD {
            for b in AminoAcid::STANDARD {
                if a != b {
                    assert!(m.score(a, a) > m.score(a, b), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn blosum62_spot_values() {
        let m = SubstitutionMatrix::blosum62();
        use AminoAcid::*;
        assert_eq!(m.score(Trp, Trp), 11);
        assert_eq!(m.score(Cys, Cys), 9);
        assert_eq!(m.score(Ile, Leu), 2);
        assert_eq!(m.score(Glu, Asp), 2);
        assert_eq!(m.score(Gly, Trp), -2);
        assert_eq!(m.score(Stop, Stop), 1);
        assert_eq!(m.score(Ala, Stop), -4);
        assert_eq!(m.max_score(), 11);
        assert_eq!(m.min_score(), -4);
    }

    #[test]
    fn uniform_matrix() {
        let m = SubstitutionMatrix::uniform(5, -4);
        use AminoAcid::*;
        assert_eq!(m.score(Ala, Ala), 5);
        assert_eq!(m.score(Ala, Arg), -4);
        assert_eq!(m.score(Xaa, Xaa), -4);
    }

    #[test]
    #[should_panic(expected = "match score must exceed")]
    fn uniform_rejects_inverted_scores() {
        let _ = SubstitutionMatrix::uniform(-1, 1);
    }

    #[test]
    fn scaled_matrix_preserves_sign() {
        let m = SubstitutionMatrix::blosum62_scaled(2, 1);
        let base = SubstitutionMatrix::blosum62();
        for a in AminoAcid::ALL {
            for b in AminoAcid::ALL {
                assert_eq!(m.score(a, b), base.score(a, b) * 2);
            }
        }
    }

    #[test]
    fn profile_layout() {
        let m = SubstitutionMatrix::blosum62();
        let q = [AminoAcid::Trp, AminoAcid::Ala];
        let p = m.query_profile(&q);
        assert_eq!(p.len(), 2 * AminoAcid::COUNT);
        assert_eq!(p[AminoAcid::Trp.index()], 11);
        assert_eq!(p[AminoAcid::COUNT + AminoAcid::Ala.index()], 4);
    }

    #[test]
    fn gap_costs() {
        let g = GapPenalties::paper();
        assert_eq!(g.gap_cost(0), 0);
        assert_eq!(g.gap_cost(1), 11);
        assert_eq!(g.gap_cost(3), 13);
    }

    #[test]
    #[should_panic(expected = "positive costs")]
    fn negative_gap_penalty_rejected() {
        let _ = GapPenalties::new(-1, 0);
    }
}
