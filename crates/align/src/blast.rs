//! A BLASTP-like heuristic database search.
//!
//! Implements the pipeline of the NCBI `blastp` program the paper
//! profiles (its `BlastNtWordFinder`-equivalent stage dominates
//! execution time):
//!
//! 1. **Neighborhood word index** — for every length-`w` word of the
//!    query, all words scoring ≥ `T` against it under the substitution
//!    matrix are inserted into a direct-mapped word table
//!    (`20^w` entries → query positions). This table is BLAST's large,
//!    randomly-accessed working set; the paper finds it is what makes
//!    BLAST memory-bound.
//! 2. **Scan + two-hit** — each database word is looked up; a hit on a
//!    diagonal within `two_hit_window` of a previous non-overlapping hit
//!    on the same diagonal triggers extension (Altschul 1997 two-hit
//!    strategy). The per-diagonal last-hit array is the second big data
//!    structure.
//! 3. **Ungapped X-drop extension** along the diagonal.
//! 4. **Gapped rescoring** with banded Smith-Waterman when the ungapped
//!    score reaches `gapped_trigger` (our stand-in for BLAST's X-drop
//!    gapped extension; see DESIGN.md). Each (subject, diagonal) band is
//!    computed once: the band closes its diagonal to later hits, which
//!    could only repeat or undercut its score (see [`score_subject`]).
//!
//! The scan keeps its per-diagonal state in a [`Workspace`] that a
//! caller reuses across subjects; it grows to the longest subject seen
//! and is reset at the start of each subject.

use sapa_bioseq::matrix::GapPenalties;
use sapa_bioseq::{AminoAcid, SubstitutionMatrix};

use crate::banded;
use crate::result::{Hit, SearchResults, TopK};
use crate::words::{word_table, Words};

/// Word length (`w`); BLASTP uses 3.
pub const WORD_LEN: usize = 3;

/// Number of distinct standard-residue words of length [`WORD_LEN`].
pub const WORD_TABLE_SIZE: usize = 20 * 20 * 20;

/// Tunable parameters of the BLASTP pipeline; defaults follow NCBI
/// blastp conventions (BLOSUM62, `T = 11`, two-hit window 40).
#[derive(Debug, Clone, PartialEq)]
pub struct BlastParams {
    /// Neighborhood threshold `T`: a word enters the index if it scores
    /// at least this against a query word.
    pub threshold: i32,
    /// Two-hit window `A`: max diagonal distance between paired hits.
    pub two_hit_window: usize,
    /// X-drop for the ungapped extension (raw score units).
    pub xdrop_ungapped: i32,
    /// Ungapped score that triggers gapped rescoring.
    pub gapped_trigger: i32,
    /// Half-width of the banded gapped rescoring.
    pub band_width: usize,
    /// Minimum reported score.
    pub min_report_score: i32,
    /// Use the one-hit seeding strategy instead of two-hit (NCBI's
    /// `-P 1`): every non-overlapping word hit triggers extension.
    /// Slower but slightly more sensitive.
    pub one_hit: bool,
}

impl Default for BlastParams {
    fn default() -> Self {
        BlastParams {
            threshold: 11,
            two_hit_window: 40,
            xdrop_ungapped: 16,
            gapped_trigger: 38,
            band_width: 24,
            min_report_score: 25,
            one_hit: false,
        }
    }
}

/// The query word index (step 1).
///
/// `slots[word]` is a range into `positions`: the query offsets whose
/// neighborhood contains `word`.
#[derive(Debug, Clone)]
pub struct WordIndex {
    starts: Vec<u32>,
    positions: Vec<u32>,
    query: Vec<AminoAcid>,
}

impl WordIndex {
    /// Builds the neighborhood index of `query`.
    ///
    /// Complexity `O(len(query) · 20^w)` in the worst case, but the
    /// candidate enumeration prunes by best-remaining score, as real
    /// BLAST's DFA construction does.
    pub fn build(query: &[AminoAcid], matrix: &SubstitutionMatrix, threshold: i32) -> Self {
        // (word, query position) pairs, in ascending position order.
        let mut entries: Vec<(u32, u32)> = Vec::new();
        // Per-position max score rows, for pruning.
        let row_max: Vec<i32> = (0..AminoAcid::STANDARD_COUNT)
            .map(|q| {
                (0..AminoAcid::STANDARD_COUNT)
                    .map(|c| matrix.score_by_index(q, c))
                    .max()
                    .expect("non-empty row")
            })
            .collect();
        for (i, _) in Words::new(query, WORD_LEN) {
            let qi: [usize; WORD_LEN] =
                [query[i].index(), query[i + 1].index(), query[i + 2].index()];
            let best_tail2 = row_max[qi[1]] + row_max[qi[2]];
            let best_tail1 = row_max[qi[2]];
            // Enumerate candidate words with score-based pruning.
            for c0 in 0..AminoAcid::STANDARD_COUNT {
                let s0 = matrix.score_by_index(qi[0], c0);
                if s0 + best_tail2 < threshold {
                    continue;
                }
                for c1 in 0..AminoAcid::STANDARD_COUNT {
                    let s01 = s0 + matrix.score_by_index(qi[1], c1);
                    if s01 + best_tail1 < threshold {
                        continue;
                    }
                    for c2 in 0..AminoAcid::STANDARD_COUNT {
                        let s = s01 + matrix.score_by_index(qi[2], c2);
                        if s >= threshold {
                            let word = (c0 * 20 + c1) * 20 + c2;
                            entries.push((word as u32, i as u32));
                        }
                    }
                }
            }
        }
        // Compressed (`starts` + `positions`) for compact,
        // cache-realistic storage.
        let (starts, positions) = word_table(WORD_TABLE_SIZE, &entries);
        WordIndex {
            starts,
            positions,
            query: query.to_vec(),
        }
    }

    /// Query positions whose neighborhood contains `word`.
    #[inline]
    pub fn lookup(&self, word: usize) -> &[u32] {
        let lo = self.starts[word] as usize;
        let hi = self.starts[word + 1] as usize;
        &self.positions[lo..hi]
    }

    /// Total number of (word → position) entries.
    pub fn entry_count(&self) -> usize {
        self.positions.len()
    }

    /// The indexed query.
    pub fn query(&self) -> &[AminoAcid] {
        &self.query
    }
}

/// Packs a standard-residue word starting at `s[i]`; `None` if any of
/// the `w` residues is non-standard.
#[inline]
pub fn pack_word(s: &[AminoAcid], i: usize) -> Option<usize> {
    if i + WORD_LEN > s.len() {
        return None;
    }
    let mut word = 0usize;
    for k in 0..WORD_LEN {
        let aa = s[i + k];
        if !aa.is_standard() {
            return None;
        }
        word = word * 20 + aa.index();
    }
    Some(word)
}

/// Ungapped X-drop extension of a seed word match at query offset `qi`,
/// subject offset `sj` (both word starts). Returns the best segment
/// score.
pub fn ungapped_extend(
    query: &[AminoAcid],
    subject: &[AminoAcid],
    matrix: &SubstitutionMatrix,
    qi: usize,
    sj: usize,
    xdrop: i32,
) -> i32 {
    // Seed score.
    let mut score: i32 = (0..WORD_LEN)
        .map(|k| matrix.score(query[qi + k], subject[sj + k]))
        .sum();

    // Extend right.
    let mut best = score;
    let (mut i, mut j) = (qi + WORD_LEN, sj + WORD_LEN);
    while i < query.len() && j < subject.len() {
        score += matrix.score(query[i], subject[j]);
        if score > best {
            best = score;
        } else if best - score > xdrop {
            break;
        }
        i += 1;
        j += 1;
    }

    // Extend left.
    let mut score = best;
    let (mut i, mut j) = (qi, sj);
    while i > 0 && j > 0 {
        i -= 1;
        j -= 1;
        score += matrix.score(query[i], subject[j]);
        if score > best {
            best = score;
        } else if best - score > xdrop {
            break;
        }
    }
    best
}

/// Per-worker scratch of the BLAST scan ([`score_subject`]): the
/// two-hit state of every diagonal. It grows to the longest subject
/// seen and is reset at the start of each subject, so a scan that
/// reuses one workspace allocates only when a subject is longer than
/// every one before it.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    diags: Vec<Diagonal>,
}

/// Two-hit bookkeeping of one diagonal.
#[derive(Debug, Clone, Copy)]
struct Diagonal {
    /// Subject offset of the last hit that advanced the two-hit state.
    last_hit: i32,
    /// Hits at or before this subject offset are not extended again.
    ext_end: i32,
}

impl Diagonal {
    const FRESH: Diagonal = Diagonal {
        last_hit: i32::MIN / 2,
        ext_end: i32::MIN / 2,
    };
}

/// Scores one subject against a prebuilt [`WordIndex`]: the scan /
/// two-hit / extension / gapped-rescore pipeline of [`search`] for a
/// single database entry. Returns the best alignment score found (0 if
/// no seed survived the pipeline).
///
/// `ws` is scratch reused across subjects; its contents never affect
/// the result. Each (subject, diagonal) band is computed at most once:
/// the first gapped rescore on a diagonal closes it to later hits.
pub fn score_subject(
    index: &WordIndex,
    subject: &[AminoAcid],
    matrix: &SubstitutionMatrix,
    gaps: GapPenalties,
    params: &BlastParams,
    ws: &mut Workspace,
) -> i32 {
    let query = index.query();
    let m = query.len();
    let n = subject.len();
    if n < WORD_LEN || m < WORD_LEN {
        return 0;
    }
    // Per-diagonal bookkeeping, diag = j - i + m in [0, m+n).
    let diags = &mut ws.diags;
    diags.clear();
    diags.resize(m + n, Diagonal::FRESH);

    let mut best_score = 0i32;

    for (j, word) in Words::new(subject, WORD_LEN) {
        for &qi in index.lookup(word) {
            let i = qi as usize;
            let diag = &mut diags[j + m - i];
            let jj = j as i32;

            // Skip hits inside an already-extended region.
            if jj <= diag.ext_end {
                continue;
            }
            let prev = diag.last_hit;
            // Hits overlapping the previous one are ignored and do
            // not advance the stored hit (NCBI behaviour) — this is
            // what lets a run of consecutive word hits eventually
            // form a two-hit pair.
            if jj - prev < WORD_LEN as i32 {
                continue;
            }
            diag.last_hit = jj;
            // Two-hit rule: the pair must fall within the window
            // (skipped entirely in one-hit mode).
            if !params.one_hit && jj - prev > params.two_hit_window as i32 {
                continue;
            }

            let ungapped = ungapped_extend(query, subject, matrix, i, j, params.xdrop_ungapped);
            let score = if ungapped >= params.gapped_trigger {
                // The band closes its diagonal. Its score depends only
                // on the query, the subject, the diagonal and the
                // width, so a later band here would repeat it; and the
                // diagonal is the band's centre line, so its local
                // score is at least that of every gapless segment on
                // the diagonal, which bounds every later ungapped
                // extension here. No later hit on this diagonal can
                // raise `best_score`, and a diagonal's state touches
                // no other diagonal, so skipping them all is exact.
                diag.ext_end = i32::MAX;
                banded::score(
                    query,
                    subject,
                    matrix,
                    gaps,
                    j as isize - i as isize,
                    params.band_width,
                )
            } else {
                diag.ext_end = jj + WORD_LEN as i32; // coarse: block re-seeding here
                ungapped
            };
            if score > best_score {
                best_score = score;
            }
        }
    }
    best_score
}

/// A full BLASTP-style search of `db` with a prebuilt [`WordIndex`].
///
/// Returns the ranked hit list (best `keep` hits).
pub fn search<'a, I>(
    index: &WordIndex,
    db: I,
    matrix: &SubstitutionMatrix,
    gaps: GapPenalties,
    params: &BlastParams,
    keep: usize,
) -> SearchResults
where
    I: IntoIterator<Item = &'a [AminoAcid]>,
{
    let mut results = TopK::new(keep);
    let mut ws = Workspace::default();
    for (seq_index, subject) in db.into_iter().enumerate() {
        let best_score = score_subject(index, subject, matrix, gaps, params, &mut ws);
        if best_score >= params.min_report_score {
            results.push(Hit {
                seq_index,
                score: best_score,
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

    #[test]
    fn one_hit_finds_at_least_what_two_hit_finds() {
        let q = seq("MKWVTFISLLFLFSSAYSRGVFRRDAHKSE");
        let m = bl62();
        let idx = WordIndex::build(&q, &m, 11);
        let subj = seq("AAAAMKWVTFISLLAAAA"); // one seed region only
        let db: Vec<&[AminoAcid]> = vec![&subj];
        let two = {
            let r = search(
                &idx,
                db.clone(),
                &m,
                GapPenalties::paper(),
                &BlastParams::default(),
                10,
            );
            r.best_score()
        };
        let one = {
            let p = BlastParams {
                one_hit: true,
                ..BlastParams::default()
            };
            let r = search(&idx, db, &m, GapPenalties::paper(), &p, 10);
            r.best_score()
        };
        assert!(one.unwrap_or(0) >= two.unwrap_or(0));
    }

    fn bl62() -> SubstitutionMatrix {
        SubstitutionMatrix::blosum62()
    }

    #[test]
    #[allow(clippy::erasing_op, clippy::identity_op)] // spelled-out base-20 packing
    fn pack_word_basics() {
        let s = seq("ARN");
        assert_eq!(pack_word(&s, 0), Some((0 * 20 + 1) * 20 + 2));
        let with_x = seq("AXA");
        assert_eq!(pack_word(&with_x, 0), None);
        assert_eq!(pack_word(&s, 1), None); // out of range
    }

    #[test]
    fn index_contains_exact_words() {
        // Every standard word of the query scores matrix-self ≥ T for
        // reasonable T, so exact words must be in their own bucket.
        let q = seq("MKWVTFISLL");
        let idx = WordIndex::build(&q, &bl62(), 11);
        for i in 0..=(q.len() - WORD_LEN) {
            let w = pack_word(&q, i).unwrap();
            assert!(
                idx.lookup(w).contains(&(i as u32)),
                "own word missing at {i}"
            );
        }
    }

    #[test]
    fn higher_threshold_shrinks_index() {
        let q = seq("MKWVTFISLLFLFSSAYSRGVFRR");
        let low = WordIndex::build(&q, &bl62(), 10);
        let high = WordIndex::build(&q, &bl62(), 13);
        assert!(high.entry_count() < low.entry_count());
        assert!(high.entry_count() > 0);
    }

    #[test]
    fn neighborhood_membership_is_exact() {
        // Brute-force check on a tiny query: every (word, pos) entry
        // must score ≥ T and every scoring pair must be present.
        let q = seq("WWH");
        let t = 11;
        let m = bl62();
        let idx = WordIndex::build(&q, &m, t);
        for word in 0..WORD_TABLE_SIZE {
            let c0 = word / 400;
            let c1 = (word / 20) % 20;
            let c2 = word % 20;
            let score = m.score_by_index(q[0].index(), c0)
                + m.score_by_index(q[1].index(), c1)
                + m.score_by_index(q[2].index(), c2);
            let present = idx.lookup(word).contains(&0u32);
            assert_eq!(present, score >= t, "word {word} score {score}");
        }
    }

    #[test]
    fn ungapped_extension_finds_planted_match() {
        let q = seq("AAAAMKWVTFISLLAAAA");
        let s = seq("GGGGMKWVTFISLLGGGG");
        let m = bl62();
        // Seed at the start of the common block.
        let score = ungapped_extend(&q, &s, &m, 4, 4, 16);
        let block = seq("MKWVTFISLL");
        let self_score: i32 = block.iter().map(|&x| m.score(x, x)).sum();
        assert!(score >= self_score, "{score} < {self_score}");
    }

    #[test]
    fn search_finds_planted_homolog() {
        let q = seq("MKWVTFISLLFLFSSAYSRGVFRRDAHKSE");
        let hom = seq("MKWVTFISLLFLFSSAYSRGVFRRDAHKSE");
        let junk1 = seq("PGPGPGPGPGPGPGPGPGPGPGPGPGPG");
        let junk2 = seq("NDNDNDNDNDNDNDNDNDNDNDNDNDND");
        let m = bl62();
        let idx = WordIndex::build(&q, &m, 11);
        let db: Vec<&[AminoAcid]> = vec![&junk1, &hom, &junk2];
        let res = search(
            &idx,
            db,
            &m,
            GapPenalties::paper(),
            &BlastParams::default(),
            10,
        );
        let hits = res.hits();
        assert!(!hits.is_empty(), "homolog not found");
        assert_eq!(hits[0].seq_index, 1);
    }

    #[test]
    fn search_ignores_everything_dissimilar() {
        let q = seq("MKWVTFISLLFLFSSAYSRGVFRR");
        let m = bl62();
        let idx = WordIndex::build(&q, &m, 11);
        let junk = seq("GGGGGGGGGGGGGGGGGGGGGGGGGG");
        let db: Vec<&[AminoAcid]> = vec![&junk];
        let res = search(
            &idx,
            db,
            &m,
            GapPenalties::paper(),
            &BlastParams::default(),
            10,
        );
        assert!(res.hits().is_empty());
    }

    #[test]
    fn empty_query_builds_empty_index() {
        let idx = WordIndex::build(&[], &bl62(), 11);
        assert_eq!(idx.entry_count(), 0);
    }
}
