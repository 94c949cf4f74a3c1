//! Karlin-Altschul statistics: bit scores and expectation values.
//!
//! Every real member of the workload family (NCBI BLAST, FASTA's
//! SSEARCH) converts raw alignment scores into *bit scores* and
//! *E-values* via Karlin-Altschul theory: for a scoring system with
//! parameters `λ` and `K`, a raw score `S` in a search of a query of
//! length `m` against a database of `n` total residues has
//!
//! ```text
//! S' (bits) = (λ·S − ln K) / ln 2
//! E         = m·n · 2^(−S')
//! ```
//!
//! The (λ, K) pairs below are the published NCBI values for the
//! scoring systems this suite ships. They make hit lists comparable
//! across engines and databases — the `-b 500` style cutoffs of the
//! paper's command lines become statistically meaningful thresholds.

use sapa_bioseq::matrix::GapPenalties;

/// Karlin-Altschul parameters of one scoring system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KarlinAltschul {
    /// The scale parameter λ (nats per raw-score unit).
    pub lambda: f64,
    /// The search-space constant K.
    pub k: f64,
    /// Relative entropy H of the scoring system (nats/position); used
    /// for effective-length corrections.
    pub h: f64,
}

impl KarlinAltschul {
    /// Ungapped BLOSUM62 (NCBI's published values).
    pub const BLOSUM62_UNGAPPED: KarlinAltschul = KarlinAltschul {
        lambda: 0.3176,
        k: 0.134,
        h: 0.40,
    };

    /// Gapped BLOSUM62 with open 10 / extend 1 — the paper's scoring
    /// system (NCBI's published values for 11/1 in its open+first
    /// convention).
    pub const BLOSUM62_GAP_10_1: KarlinAltschul = KarlinAltschul {
        lambda: 0.267,
        k: 0.041,
        h: 0.14,
    };

    /// Parameters for the suite's scoring systems.
    ///
    /// Returns the gapped BLOSUM62 10/1 values for the paper's exact
    /// penalties, the ungapped values when gaps are prohibitively
    /// expensive (open ≥ 20), and a conservative interpolation
    /// otherwise.
    pub fn for_gaps(gaps: GapPenalties) -> KarlinAltschul {
        if gaps.open >= 20 {
            Self::BLOSUM62_UNGAPPED
        } else if gaps.open >= 10 {
            Self::BLOSUM62_GAP_10_1
        } else {
            // Cheaper gaps reduce λ; scale conservatively.
            KarlinAltschul {
                lambda: 0.244,
                k: 0.030,
                h: 0.12,
            }
        }
    }

    /// Converts a raw score to a bit score.
    pub fn bit_score(&self, raw: i32) -> f64 {
        (self.lambda * raw as f64 - self.k.ln()) / std::f64::consts::LN_2
    }

    /// Expectation value of a raw score in an `m × n` search space.
    ///
    /// Uses the effective-length correction `m' = max(m − l, 1)`,
    /// `n' = max(n − N·l, N)` with `l = ln(K·m·n)/H` (NCBI's standard
    /// edge correction), where `N` is the number of database
    /// sequences.
    pub fn evalue(&self, raw: i32, query_len: usize, db_residues: usize, db_seqs: usize) -> f64 {
        let m = query_len.max(1) as f64;
        let n = db_residues.max(1) as f64;
        let nseq = db_seqs.max(1) as f64;
        let l = ((self.k * m * n).ln() / self.h).max(0.0);
        let m_eff = (m - l).max(1.0);
        let n_eff = (n - nseq * l).max(nseq);
        let s_bits = self.bit_score(raw);
        m_eff * n_eff * (-s_bits).exp2()
    }

    /// The raw score needed for an E-value of `e` in an `m × n` space
    /// (inverse of [`KarlinAltschul::evalue`], without edge
    /// correction; used for report thresholds).
    pub fn score_for_evalue(&self, e: f64, query_len: usize, db_residues: usize) -> i32 {
        let m = query_len.max(1) as f64;
        let n = db_residues.max(1) as f64;
        assert!(e > 0.0, "E-value threshold must be positive");
        // E = K·m·n·exp(−λS)  ⇒  S = ln(K·m·n / E) / λ
        ((self.k * m * n / e).ln() / self.lambda).ceil() as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_scores_increase_with_raw() {
        let ka = KarlinAltschul::BLOSUM62_GAP_10_1;
        assert!(ka.bit_score(100) > ka.bit_score(50));
        // Raw 100 with gapped BLOSUM62 is about 43 bits (NCBI tables).
        let bits = ka.bit_score(100);
        assert!((40.0..46.0).contains(&bits), "bits {bits}");
    }

    #[test]
    fn evalue_decreases_with_score_and_increases_with_space() {
        let ka = KarlinAltschul::BLOSUM62_GAP_10_1;
        let e_small = ka.evalue(80, 222, 60_000, 200);
        let e_big = ka.evalue(60, 222, 60_000, 200);
        assert!(e_small < e_big);
        let e_wide = ka.evalue(80, 222, 60_000_000, 172_000);
        assert!(e_wide > e_small);
    }

    #[test]
    fn self_match_is_overwhelmingly_significant() {
        // A 222-residue self-match scores ≈1200 raw — E must be ~0.
        let ka = KarlinAltschul::BLOSUM62_GAP_10_1;
        let e = ka.evalue(1200, 222, 62_000_000, 172_000);
        assert!(e < 1e-100, "E {e}");
    }

    #[test]
    fn random_level_scores_are_insignificant() {
        // ~30 raw in a SwissProt-size space: E ≫ 1.
        let ka = KarlinAltschul::BLOSUM62_GAP_10_1;
        let e = ka.evalue(30, 222, 62_000_000, 172_000);
        assert!(e > 10.0, "E {e}");
    }

    #[test]
    fn threshold_inverts_evalue() {
        let ka = KarlinAltschul::BLOSUM62_GAP_10_1;
        let s = ka.score_for_evalue(0.001, 222, 160_000);
        // Check the threshold actually achieves E ≤ 0.001 (without the
        // edge correction the direct formula applies).
        let m = 222f64;
        let n = 160_000f64;
        let e = ka.k * m * n * (-ka.lambda * s as f64).exp();
        assert!(e <= 0.001, "E {e}");
        // And one point less does not.
        let e1 = ka.k * m * n * (-ka.lambda * (s - 1) as f64).exp();
        assert!(e1 > 0.0009, "E {e1}");
    }

    #[test]
    fn for_gaps_selects_sensible_regimes() {
        use sapa_bioseq::matrix::GapPenalties;
        assert_eq!(
            KarlinAltschul::for_gaps(GapPenalties::paper()),
            KarlinAltschul::BLOSUM62_GAP_10_1
        );
        assert_eq!(
            KarlinAltschul::for_gaps(GapPenalties::new(25, 2)),
            KarlinAltschul::BLOSUM62_UNGAPPED
        );
        let cheap = KarlinAltschul::for_gaps(GapPenalties::new(5, 1));
        assert!(cheap.lambda < KarlinAltschul::BLOSUM62_GAP_10_1.lambda);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_evalue_threshold_rejected() {
        let _ = KarlinAltschul::BLOSUM62_GAP_10_1.score_for_evalue(0.0, 10, 10);
    }
}
