//! `BLAST` (blastp): the traced heuristic word search.
//!
//! The instrumented pipeline follows NCBI blastp's hot path (the
//! `BlastWordFinder` stage the paper profiles at ~75% of runtime):
//! a streaming scan of the database computes a packed 3-mer per
//! position and looks it up in the query's neighborhood word index —
//! a CSR structure (`starts[]` + `positions[]`) of tens to hundreds of
//! kilobytes whose effectively random indexing is what makes BLAST
//! memory-bound in the paper. Two-hit detection walks per-diagonal
//! arrays; seeds grow through ungapped X-drop extension, and strong
//! seeds are rescored with banded Smith-Waterman.
//!
//! Scores equal [`sapa_align::blast::search`]'s — the same scores, not
//! the same code paths. This program packs every subject word afresh
//! and runs one traced banded pass per triggering hit (outside its
//! ±width suppression window): that is the instruction stream
//! `results/` pins. The library rolls its word codes and computes each
//! (subject, diagonal) band once, which is exact because a band's score
//! depends only on the query, subject, diagonal and width, and bounds
//! every later hit on its diagonal. Kept per hit, this program is the
//! independent oracle for that shortcut (`tests/cross_engine.rs`).

use sapa_align::banded;
use sapa_align::blast::{pack_word, BlastParams, WordIndex, WORD_LEN};
use sapa_align::result::{Hit, TopK};
use sapa_bioseq::matrix::GapPenalties;
use sapa_bioseq::{AminoAcid, Sequence, SubstitutionMatrix};
use sapa_isa::mem::AddressSpace;
use sapa_isa::reg::{self, Reg};
use sapa_isa::trace::{Trace, Tracer};

use crate::layout::DbImage;

/// Result of a traced BLAST run.
#[derive(Debug, Clone)]
pub struct BlastRun {
    /// The instruction trace of the whole search.
    pub trace: Trace,
    /// Reported score per subject (0 when below the report threshold).
    pub scores: Vec<i32>,
    /// Ranked hit list.
    pub hits: Vec<Hit>,
}

mod site {
    pub const LD_DB: u32 = 0; // next database residue
    pub const WORD_SHIFT: u32 = 1; // word = word*20 + res (mul/add)
    pub const WORD_MOD: u32 = 2; // keep word in range
    pub const CMP_STD: u32 = 3;
    pub const B_STD: u32 = 4; // non-standard residue?
    pub const LD_START: u32 = 5; // starts[word] — the big random access
    pub const LD_END: u32 = 6; // starts[word+1]
    pub const CMP_EMPTY: u32 = 7;
    pub const B_EMPTY: u32 = 8; // empty bucket?
    pub const LD_POS: u32 = 9; // positions[k] — random access
    pub const DIAG: u32 = 10; // diag = j - i + m
    pub const LD_LASTHIT: u32 = 11; // last_hit[diag]
    pub const CMP_OVL: u32 = 12;
    pub const B_OVL: u32 = 13; // overlapping hit?
    pub const ST_LASTHIT: u32 = 14;
    pub const CMP_WIN: u32 = 15;
    pub const B_WIN: u32 = 16; // within two-hit window?
    pub const LD_EXTEND_Q: u32 = 17; // extension: query residue
    pub const LD_EXTEND_S: u32 = 18; // extension: subject residue
    pub const EXT_ADD: u32 = 19;
    pub const EXT_MAX: u32 = 20;
    pub const CMP_XDROP: u32 = 21;
    pub const B_XDROP: u32 = 22;
    pub const LD_EXTEND_SC: u32 = 23; // matrix score load
    pub const ST_EXTEND: u32 = 25;
    pub const GAP_LD_P: u32 = 26; // banded rescoring profile load
    pub const GAP_LD_SS: u32 = 27;
    pub const GAP_ADD: u32 = 28;
    pub const GAP_MAX1: u32 = 29;
    pub const GAP_MAX2: u32 = 30;
    pub const GAP_CMP: u32 = 31;
    pub const GAP_B: u32 = 32;
    pub const GAP_ST: u32 = 33;
    pub const GAP_LOOP: u32 = 34;
    pub const INC: u32 = 35;
    pub const B_SCAN: u32 = 36; // scan-loop backedge
    pub const ADDR_A: u32 = 37; // scan address arithmetic
    pub const ADDR_B: u32 = 38;
    pub const BOUND: u32 = 39;
    pub const TOP: u32 = 0;
}

const R_DB: Reg = reg::gpr(3);
const R_WORD: Reg = reg::gpr(4);
const R_START: Reg = reg::gpr(5);
const R_END: Reg = reg::gpr(6);
const R_POS: Reg = reg::gpr(7);
const R_DIAG: Reg = reg::gpr(8);
const R_LAST: Reg = reg::gpr(9);
const R_SCORE: Reg = reg::gpr(10);
const R_BESTX: Reg = reg::gpr(11);
const R_CMP: Reg = reg::gpr(12);
const R_PTR: Reg = reg::gpr(13);
const R_Q: Reg = reg::gpr(14);
const R_S: Reg = reg::gpr(15);

/// Runs the traced BLAST search of `query` against `db`.
pub fn run(
    query: &[AminoAcid],
    db: &[Sequence],
    matrix: &SubstitutionMatrix,
    gaps: GapPenalties,
    params: &BlastParams,
    keep: usize,
) -> BlastRun {
    let m = query.len();
    let index = WordIndex::build(query, matrix, params.threshold);

    let mut space = AddressSpace::new();
    let img = DbImage::build(&mut space, db);
    // The lookup table models NCBI's thick-backbone layout: an
    // 8-byte slot per word (~64 KB) — the randomly-indexed structure
    // that makes BLAST memory-bound — plus the CSR positions overflow.
    let starts_region = space
        .alloc("word_backbone", 8 * (8000 + 1), 128)
        .expect("backbone fits");
    let pos_region = space
        .alloc("word_positions", 4 * index.entry_count().max(1) as u64, 128)
        .expect("positions fit");
    // Per-diagonal arrays, reused across subjects (sized for the worst).
    let max_n: usize = db.iter().map(Sequence::len).max().unwrap_or(0);
    let diag_region = space
        .alloc("diag_last_hit", 4 * (m + max_n).max(1) as u64, 128)
        .expect("diag arrays fit");
    // Query residues + banded-DP row, for the rescoring loops.
    let band_region = space
        .alloc(
            "band_rows",
            8 * (2 * params.band_width + 1).max(1) as u64,
            128,
        )
        .expect("band rows fit");
    // Query residues and the substitution matrix, read by the
    // extension loops.
    let query_region = space
        .alloc("query_residues", m.max(1) as u64, 128)
        .expect("query fits");
    let matrix_region = space.alloc("matrix", 24 * 24, 128).expect("matrix fits");

    let mut t = Tracer::with_capacity(1024);
    let mut scores = Vec::with_capacity(db.len());
    let mut results = TopK::new(keep.max(1));

    for si in 0..img.len() {
        let subject = img.subject(si);
        let n = subject.len();
        if n < WORD_LEN || m < WORD_LEN {
            scores.push(0);
            continue;
        }
        let ndiag = m + n;
        let mut last_hit = vec![i32::MIN / 2; ndiag];
        let mut ext_end = vec![i32::MIN / 2; ndiag];
        let mut best_score = 0i32;
        // Diagonals already covered by a gapped (banded) extension;
        // real BLAST suppresses re-extension of the same region.
        let mut gapped_diags: Vec<usize> = Vec::new();

        let mut pos_cursor = 0u32; // rolling pseudo-offset into positions[]

        for j in 0..=(n - WORD_LEN) {
            // --- Scan: incremental word computation.
            t.ialu(site::ADDR_A, R_PTR, &[R_PTR]);
            t.iload(
                site::LD_DB,
                R_DB,
                img.residue_addr(si, j + WORD_LEN - 1),
                1,
                &[R_PTR],
            );
            t.ialu(site::WORD_SHIFT, R_WORD, &[R_WORD, R_DB]);
            t.ialu(site::WORD_MOD, R_WORD, &[R_WORD]);
            t.ialu(site::ADDR_B, R_CMP, &[R_WORD]);
            t.ialu(site::BOUND, R_CMP, &[R_CMP, R_WORD]);
            let word = pack_word(subject, j);
            t.ialu(site::CMP_STD, R_CMP, &[R_DB]);
            t.branch(site::B_STD, word.is_none(), site::TOP, &[R_CMP]);
            let Some(word) = word else {
                t.ialu(site::INC, R_PTR, &[R_PTR]);
                t.branch(site::B_SCAN, j + WORD_LEN < n, site::TOP, &[R_PTR]);
                continue;
            };

            // --- Index lookup: the randomly-indexed big structure.
            t.iload(
                site::LD_START,
                R_START,
                starts_region.addr(8 * word as u32),
                4,
                &[R_WORD],
            );
            t.iload(
                site::LD_END,
                R_END,
                starts_region.addr(8 * word as u32 + 4),
                4,
                &[R_WORD],
            );
            let bucket = index.lookup(word);
            t.ialu(site::CMP_EMPTY, R_CMP, &[R_START, R_END]);
            t.branch(site::B_EMPTY, bucket.is_empty(), site::TOP, &[R_CMP]);

            for (k, &qi) in bucket.iter().enumerate() {
                let i = qi as usize;
                let diag = j + m - i;
                let jj = j as i32;

                t.iload(
                    site::LD_POS,
                    R_POS,
                    pos_region.addr((pos_cursor + k as u32) % pos_region.size().max(1)),
                    4,
                    &[R_START],
                );
                t.ialu(site::DIAG, R_DIAG, &[R_POS]);
                t.iload(
                    site::LD_LASTHIT,
                    R_LAST,
                    diag_region.addr(4 * diag as u32),
                    4,
                    &[R_DIAG],
                );

                let skip_extended = jj <= ext_end[diag];
                let prev = last_hit[diag];
                t.ialu(site::CMP_OVL, R_CMP, &[R_LAST, R_POS]);
                t.branch(
                    site::B_OVL,
                    skip_extended || jj - prev < WORD_LEN as i32,
                    site::TOP,
                    &[R_CMP],
                );
                if skip_extended {
                    continue;
                }
                if jj - prev < WORD_LEN as i32 {
                    continue;
                }
                last_hit[diag] = jj;
                t.istore(
                    site::ST_LASTHIT,
                    diag_region.addr(4 * diag as u32),
                    4,
                    &[R_POS, R_DIAG],
                );

                let in_window = params.one_hit || jj - prev <= params.two_hit_window as i32;
                t.ialu(site::CMP_WIN, R_CMP, &[R_LAST]);
                t.branch(site::B_WIN, in_window, site::TOP, &[R_CMP]);
                if !in_window {
                    continue;
                }

                // --- Ungapped X-drop extension (traced per residue).
                let ungapped = traced_ungapped_extend(
                    &mut t,
                    &img,
                    (&query_region, &matrix_region),
                    si,
                    query,
                    subject,
                    matrix,
                    i,
                    j,
                    params.xdrop_ungapped,
                );
                ext_end[diag] = jj + WORD_LEN as i32;

                let near_gapped = gapped_diags
                    .iter()
                    .any(|&g| g.abs_diff(diag) <= params.band_width);
                let score = if ungapped >= params.gapped_trigger && !near_gapped {
                    gapped_diags.push(diag);
                    traced_banded(
                        &mut t,
                        &band_region,
                        &matrix_region,
                        query,
                        subject,
                        matrix,
                        gaps,
                        j as isize - i as isize,
                        params.band_width,
                    )
                } else {
                    ungapped
                };
                if score > best_score {
                    best_score = score;
                }
            }
            pos_cursor = pos_cursor.wrapping_add(bucket.len() as u32 * 4);

            t.ialu(site::INC, R_PTR, &[R_PTR]);
            t.branch(site::B_SCAN, j + WORD_LEN < n, site::TOP, &[R_PTR]);
        }

        scores.push(if best_score >= params.min_report_score {
            best_score
        } else {
            0
        });
        if best_score >= params.min_report_score {
            results.push(Hit {
                seq_index: si,
                score: best_score,
            });
        }
    }

    let hits = results.finish().into_hits();
    BlastRun {
        trace: t.finish(),
        scores,
        hits,
    }
}

/// Ungapped X-drop extension with instruction emission; the math is a
/// re-run of [`sapa_align::blast::ungapped_extend`] with per-residue
/// loads/compares traced.
#[allow(clippy::too_many_arguments)]
fn traced_ungapped_extend(
    t: &mut Tracer,
    img: &DbImage,
    regions: (&sapa_isa::mem::Region, &sapa_isa::mem::Region),
    si: usize,
    query: &[AminoAcid],
    subject: &[AminoAcid],
    matrix: &SubstitutionMatrix,
    qi: usize,
    sj: usize,
    xdrop: i32,
) -> i32 {
    // Emit the per-residue loop instructions by simulating the same
    // walk the reference implementation makes.
    let mut score: i32 = (0..WORD_LEN)
        .map(|k| matrix.score(query[qi + k], subject[sj + k]))
        .sum();
    let mut best = score;

    let (query_region, matrix_region) = regions;
    let emit_step = |t: &mut Tracer, i: usize, j: usize, stop: bool| {
        t.iload(
            site::LD_EXTEND_Q,
            R_Q,
            query_region.addr(i as u32),
            1,
            &[R_PTR],
        );
        t.iload(site::LD_EXTEND_S, R_S, img.residue_addr(si, j), 1, &[R_PTR]);
        t.iload(
            site::LD_EXTEND_SC,
            R_SCORE,
            matrix_region.addr(((i * 24 + j) % 576) as u32),
            1,
            &[R_Q, R_S],
        );
        t.ialu(site::EXT_ADD, R_SCORE, &[R_SCORE, R_BESTX]);
        t.ialu(site::EXT_MAX, R_BESTX, &[R_BESTX, R_SCORE]);
        t.ialu(site::CMP_XDROP, R_CMP, &[R_BESTX, R_SCORE]);
        t.branch(site::B_XDROP, stop, site::TOP, &[R_CMP]);
    };

    let (mut i, mut j) = (qi + WORD_LEN, sj + WORD_LEN);
    while i < query.len() && j < subject.len() {
        score += matrix.score(query[i], subject[j]);
        if score > best {
            best = score;
        }
        let stop = best - score > xdrop;
        emit_step(t, i, j, stop);
        if stop {
            break;
        }
        i += 1;
        j += 1;
    }
    let mut score = best;
    let (mut i, mut j) = (qi, sj);
    while i > 0 && j > 0 {
        i -= 1;
        j -= 1;
        score += matrix.score(query[i], subject[j]);
        if score > best {
            best = score;
        }
        let stop = best - score > xdrop;
        emit_step(t, i, j, stop);
        if stop {
            break;
        }
    }
    t.istore(site::ST_EXTEND, query_region.addr(0), 4, &[R_BESTX]);
    best
}

/// Banded gapped rescoring with instruction emission (one compact DP
/// step per band cell), delegating the arithmetic to
/// [`sapa_align::banded::score`].
#[allow(clippy::too_many_arguments)]
fn traced_banded(
    t: &mut Tracer,
    band_region: &sapa_isa::mem::Region,
    matrix_region: &sapa_isa::mem::Region,
    query: &[AminoAcid],
    subject: &[AminoAcid],
    matrix: &SubstitutionMatrix,
    gaps: GapPenalties,
    diag: isize,
    width: usize,
) -> i32 {
    let band = 2 * width + 1;
    for i in 0..query.len() {
        for off in 0..band {
            let j = i as isize + diag - width as isize + off as isize;
            if j < 0 || j >= subject.len() as isize {
                continue;
            }
            let cell = band_region.addr((8 * off as u32) % band_region.size().max(8));
            t.iload(site::GAP_LD_SS, R_S, cell, 8, &[R_PTR]);
            t.iload(
                site::GAP_LD_P,
                R_SCORE,
                matrix_region.addr(((i * 24) % 576) as u32),
                1,
                &[R_PTR],
            );
            t.ialu(site::GAP_ADD, R_Q, &[R_S, R_SCORE]);
            t.ialu(site::GAP_MAX1, R_Q, &[R_Q, R_S]);
            t.ialu(site::GAP_MAX2, R_Q, &[R_Q, R_CMP]);
            // Data-dependent path selection of the DP max, a real
            // branch in the scalar rescoring loop.
            let positive = matrix.score(query[i], subject[j as usize]) > 0;
            t.branch(site::GAP_B, positive, site::GAP_LD_SS, &[R_Q]);
            t.istore(site::GAP_ST, cell, 8, &[R_Q]);
        }
        t.ialu(site::GAP_CMP, R_CMP, &[R_Q]);
        t.branch(
            site::GAP_LOOP,
            i + 1 < query.len(),
            site::GAP_LD_SS,
            &[R_CMP],
        );
    }
    banded::score(query, subject, matrix, gaps, diag, width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapa_align::blast as ref_blast;
    use sapa_isa::OpClass;

    fn seq(id: &str, s: &str) -> Sequence {
        Sequence::from_str(id, s).unwrap()
    }

    fn inputs() -> (Vec<AminoAcid>, Vec<Sequence>) {
        let q = seq("q", "MKWVTFISLLFLFSSAYSRGVFRRDAHKSEVAHRFK")
            .residues()
            .to_vec();
        let db = vec![
            seq("s0", "GGPGGNDNDNPPGGAAGGPGGNDNDNPPGGAA"),
            seq("s1", "MKWVTFISLLFLFSSAYSRGVFRRDAHKSEVAHRFK"),
            seq("s2", "AAWWYYHHEEKKRRDDAAWWYYHHEEKKRRDD"),
        ];
        (q, db)
    }

    #[test]
    fn hits_match_reference_blast() {
        let (q, db) = inputs();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let p = BlastParams::default();
        let run = run(&q, &db, &m, g, &p, 10);

        let idx = ref_blast::WordIndex::build(&q, &m, p.threshold);
        let slices: Vec<&[AminoAcid]> = db.iter().map(|s| s.residues()).collect();
        let expect = ref_blast::search(&idx, slices, &m, g, &p, 10);
        assert_eq!(run.hits, expect.hits().to_vec());
    }

    #[test]
    fn instruction_mix_matches_figure_1_shape() {
        let (q, db) = inputs();
        let m = SubstitutionMatrix::blosum62();
        let run = run(
            &q,
            &db,
            &m,
            GapPenalties::paper(),
            &BlastParams::default(),
            10,
        );
        let stats = run.trace.stats();
        let ialu = stats.fraction(OpClass::IAlu);
        let iload = stats.fraction(OpClass::ILoad);
        let ctrl = stats.fraction(OpClass::Branch);
        // Paper Fig. 1 BLAST: ~54% ialu, ~21% iload, ~16% ctrl.
        assert!((0.40..0.65).contains(&ialu), "ialu {ialu}");
        assert!((0.14..0.32).contains(&iload), "iload {iload}");
        assert!((0.08..0.26).contains(&ctrl), "ctrl {ctrl}");
        assert_eq!(stats.vector_ops(), 0);
    }

    #[test]
    fn trace_is_much_smaller_than_ssearch() {
        let (q, db) = inputs();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let blast = run(&q, &db, &m, g, &BlastParams::default(), 10);
        let ss = crate::ssearch::run(&q, &db, &m, g, 10);
        assert!(
            ss.trace.len() > 3 * blast.trace.len(),
            "ssearch {} vs blast {}",
            ss.trace.len(),
            blast.trace.len()
        );
    }

    #[test]
    fn short_subjects_are_skipped() {
        let q = seq("q", "MKWVTFISLL").residues().to_vec();
        let m = SubstitutionMatrix::blosum62();
        let run = run(
            &q,
            &[seq("s", "MK")],
            &m,
            GapPenalties::paper(),
            &BlastParams::default(),
            5,
        );
        assert_eq!(run.scores, vec![0]);
    }
}
