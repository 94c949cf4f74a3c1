//! A FASTA-like heuristic database search.
//!
//! Follows the classic FASTA pipeline (Pearson & Lipman 1988) that the
//! paper's `fasta34` workload implements:
//!
//! 1. **k-tuple lookup** — a table of query positions for every length-
//!    `ktup` word; each identical word match in the subject marks a
//!    diagonal.
//! 2. **Diagonal scoring (`init1`)** — per-diagonal accumulation finds
//!    the best run of word matches; the ten best regions are rescored
//!    with the substitution matrix.
//! 3. **Region joining (`initn`)** — compatible regions on nearby
//!    diagonals are chained with a gap-join penalty.
//! 4. **Banded optimization (`opt`)** — a banded Smith-Waterman around
//!    the best region's diagonal produces the reported score.
//!
//! The pipeline's branchy bookkeeping (per-diagonal run tracking, region
//! selection) is what gives FASTA its branch-predictor-limited profile
//! in the paper.
//!
//! The per-diagonal state and the region lists live in a [`Workspace`]
//! that a caller reuses across subjects; it grows to the longest subject
//! seen and is reset at the start of each subject.

use sapa_bioseq::matrix::GapPenalties;
use sapa_bioseq::{AminoAcid, SubstitutionMatrix};

use crate::banded;
use crate::result::{Hit, SearchResults, TopK};
use crate::words::{word_table, Words};

/// Tunable parameters; defaults follow `fasta34 -p` conventions for
/// protein search (ktup 2, banded opt of half-width 16).
#[derive(Debug, Clone, PartialEq)]
pub struct FastaParams {
    /// Word length; protein FASTA uses 1 or 2.
    pub ktup: usize,
    /// Number of top regions rescored per subject (FASTA keeps 10).
    pub max_regions: usize,
    /// Penalty for joining regions on different diagonals (`initn`).
    pub join_penalty: i32,
    /// Half-width of the banded `opt` rescoring.
    pub band_width: usize,
    /// `initn` value required before `opt` rescoring happens.
    pub opt_threshold: i32,
    /// Minimum reported score.
    pub min_report_score: i32,
}

impl Default for FastaParams {
    fn default() -> Self {
        FastaParams {
            ktup: 2,
            max_regions: 10,
            join_penalty: 20,
            band_width: 16,
            opt_threshold: 24,
            min_report_score: 25,
        }
    }
}

/// Query k-tuple lookup table: `positions(word)` lists the query offsets
/// where `word` occurs.
#[derive(Debug, Clone)]
pub struct KtupIndex {
    ktup: usize,
    starts: Vec<u32>,
    positions: Vec<u32>,
    query: Vec<AminoAcid>,
}

impl KtupIndex {
    /// Builds the lookup table for `query`.
    ///
    /// # Panics
    ///
    /// Panics if `ktup` is 0 or greater than 3 (table size 20^ktup).
    pub fn build(query: &[AminoAcid], ktup: usize) -> Self {
        assert!((1..=3).contains(&ktup), "ktup must be 1..=3");
        let entries: Vec<(u32, u32)> = Words::new(query, ktup)
            .map(|(i, word)| (word as u32, i as u32))
            .collect();
        let (starts, positions) = word_table(20usize.pow(ktup as u32), &entries);
        KtupIndex {
            ktup,
            starts,
            positions,
            query: query.to_vec(),
        }
    }

    /// Word length of the table.
    pub fn ktup(&self) -> usize {
        self.ktup
    }

    /// Query offsets at which `word` occurs.
    #[inline]
    pub fn lookup(&self, word: usize) -> &[u32] {
        let lo = self.starts[word] as usize;
        let hi = self.starts[word + 1] as usize;
        &self.positions[lo..hi]
    }

    /// The indexed query.
    pub fn query(&self) -> &[AminoAcid] {
        &self.query
    }
}

/// Packs a standard-residue word of length `ktup` starting at `s[i]`.
#[inline]
pub fn pack(s: &[AminoAcid], i: usize, ktup: usize) -> Option<usize> {
    if i + ktup > s.len() {
        return None;
    }
    let mut word = 0usize;
    for k in 0..ktup {
        let aa = s[i + k];
        if !aa.is_standard() {
            return None;
        }
        word = word * 20 + aa.index();
    }
    Some(word)
}

/// One scored diagonal region (an `init1` candidate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Diagonal `j - i` of the region.
    pub diag: isize,
    /// Matrix-rescored segment score.
    pub score: i32,
    /// Subject start of the region.
    pub start: usize,
    /// Subject end (inclusive) of the region.
    pub end: usize,
}

/// Heuristic scores of one subject, mirroring FASTA's reported triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FastaScores {
    /// Best single-region score.
    pub init1: i32,
    /// Best joined-region score.
    pub initn: i32,
    /// Banded-optimization score (0 when below the `opt` threshold).
    pub opt: i32,
}

/// Per-worker scratch of the FASTA scan ([`score_subject`]): the run
/// state of every diagonal, the candidate regions and the `initn`
/// chain. It grows to the largest subject seen and is reset at the
/// start of each subject, so a scan that reuses one workspace allocates
/// only when a subject needs more room than every one before it.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    diags: Vec<Diagonal>,
    regions: Vec<Region>,
    by_start: Vec<Region>,
    chain: Vec<i32>,
}

/// Word-match run state of one diagonal.
#[derive(Debug, Clone, Copy)]
struct Diagonal {
    /// Running score of the current run.
    run: i32,
    /// Subject end (exclusive) of the last word match.
    last_end: i32,
    /// Subject start of the current run.
    start: u32,
}

impl Diagonal {
    const FRESH: Diagonal = Diagonal {
        run: 0,
        last_end: -1,
        start: 0,
    };
}

/// Scores one subject against the indexed query.
///
/// `ws` is scratch reused across subjects; its contents never affect
/// the result.
pub fn score_subject(
    index: &KtupIndex,
    subject: &[AminoAcid],
    matrix: &SubstitutionMatrix,
    gaps: GapPenalties,
    params: &FastaParams,
    ws: &mut Workspace,
) -> FastaScores {
    let query = index.query();
    let m = query.len();
    let n = subject.len();
    let ktup = index.ktup();
    if m < ktup || n < ktup {
        return FastaScores::default();
    }
    let Workspace {
        diags,
        regions,
        by_start,
        chain,
    } = ws;

    // Phase 1+2: diagonal run accumulation. For each diagonal, track a
    // running score of word matches with decay for gaps between them,
    // FASTA's "dot on diagonal" scan.
    diags.clear();
    diags.resize(m + n, Diagonal::FRESH);
    regions.clear();
    const WORD_BONUS: i32 = 4; // score per matched word in the scan phase
    const GAP_DECAY: i32 = 1; // per-residue decay between matches

    for (j, word) in Words::new(subject, ktup) {
        for &qi in index.lookup(word) {
            let i = qi as usize;
            let d = &mut diags[j + m - i];
            let jj = j as i32;
            let gap = jj - d.last_end;
            let decayed = d.run - gap.max(0) * GAP_DECAY;
            if decayed <= 0 {
                d.run = WORD_BONUS;
                d.start = j as u32;
            } else {
                d.run = decayed + WORD_BONUS;
            }
            d.last_end = jj + ktup as i32;
            // Track candidate regions as they peak.
            if d.run >= WORD_BONUS * 2 {
                regions.push(Region {
                    diag: j as isize - i as isize,
                    score: d.run,
                    start: d.start as usize,
                    end: j + ktup - 1,
                });
            }
        }
    }
    if regions.is_empty() {
        return FastaScores::default();
    }

    // Keep the best region per diagonal, then the overall top
    // `max_regions` — FASTA's "savemax" bookkeeping. Every order below
    // is total (a diagonal is hit at most once per subject offset, so
    // `(diag, end)` is unique, and `diag` is unique after the dedup),
    // so the unstable sorts, which need no scratch buffer, give the
    // one possible result; the first sort's final `end` key stands for
    // the push order a stable sort would keep.
    regions.sort_unstable_by(|a, b| {
        a.diag
            .cmp(&b.diag)
            .then(b.score.cmp(&a.score))
            .then(a.start.cmp(&b.start))
            .then(a.end.cmp(&b.end))
    });
    regions.dedup_by_key(|r| r.diag);
    regions.sort_unstable_by(|a, b| b.score.cmp(&a.score).then(a.diag.cmp(&b.diag)));
    regions.truncate(params.max_regions);

    // Rescore each region with the matrix over its subject span.
    for r in regions.iter_mut() {
        let mut score = 0i32;
        let mut best = 0i32;
        #[allow(clippy::needless_range_loop)] // index pairs with the diagonal offset
        for j in r.start..=r.end {
            let i = j as isize - r.diag;
            if i < 0 || i as usize >= m {
                continue;
            }
            score = (score + matrix.score(query[i as usize], subject[j])).max(0);
            if score > best {
                best = score;
            }
        }
        r.score = best;
    }
    regions.sort_unstable_by(|a, b| b.score.cmp(&a.score).then(a.diag.cmp(&b.diag)));

    let init1 = regions.first().map_or(0, |r| r.score);

    // Phase 3 (`initn`): chain compatible regions (increasing subject
    // coordinates) paying the join penalty per chained pair.
    let mut initn = init1;
    by_start.clear();
    by_start.extend_from_slice(regions);
    by_start.sort_unstable_by(|a, b| a.start.cmp(&b.start).then(a.diag.cmp(&b.diag)));
    // O(k^2) chain over at most max_regions regions.
    let k = by_start.len();
    chain.clear();
    chain.resize(k, 0);
    for x in 0..k {
        chain[x] = by_start[x].score;
        for y in 0..x {
            if by_start[y].end < by_start[x].start && by_start[y].diag != by_start[x].diag {
                let cand = chain[y] + by_start[x].score - params.join_penalty;
                if cand > chain[x] {
                    chain[x] = cand;
                }
            }
        }
        if chain[x] > initn {
            initn = chain[x];
        }
    }

    // Phase 4 (`opt`): banded SW around the best region's diagonal.
    let opt = if initn >= params.opt_threshold {
        banded::score(
            query,
            subject,
            matrix,
            gaps,
            regions[0].diag,
            params.band_width,
        )
    } else {
        0
    };

    FastaScores { init1, initn, opt }
}

/// A full FASTA-style search of `db`.
///
/// Subjects are ranked by `opt` when available, otherwise by `initn`.
pub fn search<'a, I>(
    index: &KtupIndex,
    db: I,
    matrix: &SubstitutionMatrix,
    gaps: GapPenalties,
    params: &FastaParams,
    keep: usize,
) -> SearchResults
where
    I: IntoIterator<Item = &'a [AminoAcid]>,
{
    let mut results = TopK::new(keep);
    let mut ws = Workspace::default();
    for (seq_index, subject) in db.into_iter().enumerate() {
        let s = score_subject(index, subject, matrix, gaps, params, &mut ws);
        let reported = s.opt.max(s.initn);
        if reported >= params.min_report_score {
            results.push(Hit {
                seq_index,
                score: reported,
            });
        }
    }
    results.finish()
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
    fn pack_rejects_nonstandard() {
        let s = seq("AXA");
        assert_eq!(pack(&s, 0, 2), None);
        assert_eq!(pack(&s, 1, 2), None);
        let t = seq("AR");
        assert_eq!(pack(&t, 0, 2), Some(1));
    }

    #[test]
    fn index_lists_all_occurrences() {
        let q = seq("ARARAR");
        let idx = KtupIndex::build(&q, 2);
        let ar = pack(&q, 0, 2).unwrap();
        assert_eq!(idx.lookup(ar), &[0, 2, 4]);
        let ra = pack(&q, 1, 2).unwrap();
        assert_eq!(idx.lookup(ra), &[1, 3]);
    }

    #[test]
    #[should_panic(expected = "ktup")]
    fn bad_ktup_rejected() {
        let _ = KtupIndex::build(&[], 0);
    }

    #[test]
    fn identical_sequences_score_high() {
        let q = seq("MKWVTFISLLFLFSSAYSRGVFRRDAHKSE");
        let idx = KtupIndex::build(&q, 2);
        let m = bl62();
        let s = score_subject(
            &idx,
            &q,
            &m,
            GapPenalties::paper(),
            &FastaParams::default(),
            &mut Workspace::default(),
        );
        assert!(s.init1 > 0);
        assert!(s.initn >= s.init1);
        let self_score: i32 = q.iter().map(|&x| m.score(x, x)).sum();
        // Banded opt on diagonal 0 recovers the full self score.
        assert_eq!(s.opt, self_score);
    }

    #[test]
    fn dissimilar_sequences_score_zero() {
        let q = seq("MKWVTFISLLFLFSSAYSRGVFRR");
        let idx = KtupIndex::build(&q, 2);
        let junk = seq("GGGGGGGGGGGGGGGGGGGGGG");
        let s = score_subject(
            &idx,
            &junk,
            &bl62(),
            GapPenalties::paper(),
            &FastaParams::default(),
            &mut Workspace::default(),
        );
        assert_eq!(s, FastaScores::default());
    }

    #[test]
    fn search_ranks_homolog_first() {
        let q = seq("MKWVTFISLLFLFSSAYSRGVFRRDAHKSEVAHRFK");
        let idx = KtupIndex::build(&q, 2);
        let m = bl62();
        let hom = q.clone();
        let junk1 = seq("PGPGPGPGPGPGPGPGPGPGPGPGPG");
        let junk2 = seq("NDNDNDNDNDNDNDNDNDNDNDNDND");
        let db: Vec<&[AminoAcid]> = vec![&junk1, &hom, &junk2];
        let res = search(
            &idx,
            db,
            &m,
            GapPenalties::paper(),
            &FastaParams::default(),
            10,
        );
        let hits = res.hits();
        assert!(!hits.is_empty());
        assert_eq!(hits[0].seq_index, 1);
    }

    #[test]
    fn opt_below_threshold_is_zero() {
        let q = seq("MKWVTFISLL");
        let idx = KtupIndex::build(&q, 2);
        // One common word only: initn stays below the default threshold.
        let subj = seq("GGGGMKGGGG");
        let s = score_subject(
            &idx,
            &subj,
            &bl62(),
            GapPenalties::paper(),
            &FastaParams::default(),
            &mut Workspace::default(),
        );
        assert_eq!(s.opt, 0);
    }

    #[test]
    fn short_inputs_are_safe() {
        let q = seq("M");
        let idx = KtupIndex::build(&q, 2);
        let s = score_subject(
            &idx,
            &seq("MK"),
            &bl62(),
            GapPenalties::paper(),
            &FastaParams::default(),
            &mut Workspace::default(),
        );
        assert_eq!(s, FastaScores::default());
    }
}
