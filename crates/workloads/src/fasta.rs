//! `FASTA34`: the traced k-tuple heuristic search.
//!
//! The instrumented pipeline mirrors fasta34's protein search: a
//! streaming scan packs a 2-mer per subject position and looks it up in
//! the query's k-tuple table (small — about 1.6 KB of starts, so FASTA
//! is *not* memory-bound, unlike BLAST); each word match updates
//! per-diagonal run-scoring state with data-dependent branches (the
//! source of FASTA's branch-predictor-bound profile in the paper);
//! surviving regions are rescored and the best region is optimized with
//! banded Smith-Waterman (`opt`).
//!
//! Scores equal [`sapa_align::fasta::score_subject`]'s.

use sapa_align::fasta::{pack, FastaParams, FastaScores, KtupIndex, Workspace};
use sapa_align::result::{Hit, TopK};
use sapa_bioseq::matrix::GapPenalties;
use sapa_bioseq::{AminoAcid, Sequence, SubstitutionMatrix};
use sapa_isa::mem::AddressSpace;
use sapa_isa::reg::{self, Reg};
use sapa_isa::trace::{Trace, Tracer};

use crate::layout::DbImage;

/// Result of a traced FASTA run.
#[derive(Debug, Clone)]
pub struct FastaRun {
    /// The instruction trace of the whole search.
    pub trace: Trace,
    /// FASTA's (init1, initn, opt) triple per subject.
    pub scores: Vec<FastaScores>,
    /// Ranked hit list (by `max(opt, initn)`).
    pub hits: Vec<Hit>,
}

mod site {
    pub const LD_DB: u32 = 0;
    pub const WORD_SHIFT: u32 = 1;
    pub const CMP_STD: u32 = 2;
    pub const B_STD: u32 = 3;
    pub const LD_START: u32 = 4;
    pub const LD_END: u32 = 5;
    pub const CMP_EMPTY: u32 = 6;
    pub const B_EMPTY: u32 = 7;
    pub const LD_POS: u32 = 8;
    pub const DIAG: u32 = 9;
    pub const LD_RUN: u32 = 10; // run_score[diag]
    pub const LD_LASTEND: u32 = 11; // last_end[diag]
    pub const DECAY_SUB: u32 = 12;
    pub const CMP_DEAD: u32 = 13;
    pub const B_DEAD: u32 = 14; // run died?
    pub const RUN_ADD: u32 = 15;
    pub const ST_RUN: u32 = 16;
    pub const ST_LASTEND: u32 = 17;
    pub const CMP_PEAK: u32 = 18;
    pub const B_PEAK: u32 = 19; // region candidate?
    pub const SAVE_CMP: u32 = 20;
    pub const SAVE_B: u32 = 21;
    pub const SAVE_ST: u32 = 22;
    pub const RESC_LD: u32 = 24; // region rescoring loads
    pub const RESC_ADD: u32 = 25;
    pub const RESC_MAX: u32 = 26;
    pub const RESC_CMP: u32 = 27;
    pub const RESC_B: u32 = 28;
    pub const OPT_LD_SS: u32 = 29; // banded opt DP
    pub const OPT_LD_P: u32 = 30;
    pub const OPT_ADD: u32 = 31;
    pub const OPT_MAX1: u32 = 32;
    pub const OPT_MAX2: u32 = 33;
    pub const OPT_ST: u32 = 34;
    pub const OPT_CMP: u32 = 35;
    pub const OPT_B: u32 = 36;
    pub const INC: u32 = 37;
    pub const B_SCAN: u32 = 38;
    pub const TOP: u32 = 0;
}

const R_DB: Reg = reg::gpr(3);
const R_WORD: Reg = reg::gpr(4);
const R_START: Reg = reg::gpr(5);
const R_END: Reg = reg::gpr(6);
const R_POS: Reg = reg::gpr(7);
const R_DIAG: Reg = reg::gpr(8);
const R_RUN: Reg = reg::gpr(9);
const R_LASTE: Reg = reg::gpr(10);
const R_CMP: Reg = reg::gpr(12);
const R_PTR: Reg = reg::gpr(13);
const R_SC: Reg = reg::gpr(14);
const R_ACC: Reg = reg::gpr(15);

/// Runs the traced FASTA search of `query` against `db`.
pub fn run(
    query: &[AminoAcid],
    db: &[Sequence],
    matrix: &SubstitutionMatrix,
    gaps: GapPenalties,
    params: &FastaParams,
    keep: usize,
) -> FastaRun {
    let m = query.len();
    let index = KtupIndex::build(query, params.ktup);
    let table = 20usize.pow(params.ktup as u32);

    let mut space = AddressSpace::new();
    let img = DbImage::build(&mut space, db);
    let starts_region = space
        .alloc("ktup_starts", 4 * (table + 1) as u64, 128)
        .expect("starts fit");
    let pos_region = space
        .alloc("ktup_positions", 4 * m.max(1) as u64, 128)
        .expect("positions fit");
    let max_n: usize = db.iter().map(Sequence::len).max().unwrap_or(0);
    let diag_region = space
        .alloc("diag_state", 12 * (m + max_n).max(1) as u64, 128)
        .expect("diag state fits");
    let band_region = space
        .alloc(
            "opt_band",
            8 * (2 * params.band_width + 1).max(1) as u64,
            128,
        )
        .expect("band fits");
    let matrix_region = space.alloc("matrix", 24 * 24, 128).expect("matrix fits");

    let mut t = Tracer::with_capacity(1024);
    let mut all_scores = Vec::with_capacity(db.len());
    let mut results = TopK::new(keep.max(1));
    // The library's scan scratch, reused across subjects like a search
    // worker's.
    let mut ws = Workspace::default();

    for si in 0..img.len() {
        let subject = img.subject(si);
        let n = subject.len();
        let ktup = params.ktup;
        if n < ktup || m < ktup {
            all_scores.push(FastaScores::default());
            continue;
        }

        // --- Phase 1: traced scan & diagonal accumulation. The state
        // transitions reproduce sapa_align::fasta's scan exactly; the
        // final scores are delegated to the reference for the phases
        // whose bookkeeping we also emit below.
        let ndiag = m + n;
        let mut run_score = vec![0i32; ndiag];
        let mut last_end = vec![-1i32; ndiag];
        const WORD_BONUS: i32 = 4;
        const GAP_DECAY: i32 = 1;

        for j in 0..=(n - ktup) {
            t.iload(
                site::LD_DB,
                R_DB,
                img.residue_addr(si, j + ktup - 1),
                1,
                &[R_PTR],
            );
            t.ialu(site::WORD_SHIFT, R_WORD, &[R_WORD, R_DB]);
            let word = pack(subject, j, ktup);
            t.ialu(site::CMP_STD, R_CMP, &[R_DB]);
            t.branch(site::B_STD, word.is_none(), site::TOP, &[R_CMP]);
            if let Some(word) = word {
                t.iload(
                    site::LD_START,
                    R_START,
                    starts_region.addr(4 * word as u32),
                    4,
                    &[R_WORD],
                );
                t.iload(
                    site::LD_END,
                    R_END,
                    starts_region.addr(4 * (word as u32 + 1)),
                    4,
                    &[R_WORD],
                );
                let bucket = index.lookup(word);
                t.ialu(site::CMP_EMPTY, R_CMP, &[R_START, R_END]);
                t.branch(site::B_EMPTY, bucket.is_empty(), site::TOP, &[R_CMP]);

                for (k, &qi) in bucket.iter().enumerate() {
                    let i = qi as usize;
                    let d = j + m - i;
                    let jj = j as i32;

                    t.iload(
                        site::LD_POS,
                        R_POS,
                        pos_region.addr((4 * k as u32) % pos_region.size().max(4)),
                        4,
                        &[R_START],
                    );
                    t.ialu(site::DIAG, R_DIAG, &[R_POS]);
                    t.iload(
                        site::LD_RUN,
                        R_RUN,
                        diag_region.addr((12 * d as u32) % diag_region.size().max(12)),
                        4,
                        &[R_DIAG],
                    );
                    t.iload(
                        site::LD_LASTEND,
                        R_LASTE,
                        diag_region.addr((12 * d as u32 + 4) % diag_region.size().max(12)),
                        4,
                        &[R_DIAG],
                    );

                    let gap = jj - last_end[d];
                    let decayed = run_score[d] - gap.max(0) * GAP_DECAY;
                    t.ialu(site::DECAY_SUB, R_RUN, &[R_RUN, R_LASTE]);
                    t.ialu(site::CMP_DEAD, R_CMP, &[R_RUN]);
                    t.branch(site::B_DEAD, decayed <= 0, site::TOP, &[R_CMP]);
                    if decayed <= 0 {
                        run_score[d] = WORD_BONUS;
                    } else {
                        run_score[d] = decayed + WORD_BONUS;
                    }
                    last_end[d] = jj + ktup as i32;
                    t.ialu(site::RUN_ADD, R_RUN, &[R_RUN]);
                    t.istore(
                        site::ST_RUN,
                        diag_region.addr((12 * d as u32) % diag_region.size().max(12)),
                        4,
                        &[R_RUN, R_DIAG],
                    );
                    t.istore(
                        site::ST_LASTEND,
                        diag_region.addr((12 * d as u32 + 4) % diag_region.size().max(12)),
                        4,
                        &[R_POS, R_DIAG],
                    );

                    let peak = run_score[d] >= WORD_BONUS * 2;
                    t.ialu(site::CMP_PEAK, R_CMP, &[R_RUN]);
                    t.branch(site::B_PEAK, peak, site::TOP, &[R_CMP]);
                    if peak {
                        // savemax bookkeeping.
                        t.ialu(site::SAVE_CMP, R_CMP, &[R_RUN, R_ACC]);
                        t.branch(site::SAVE_B, run_score[d] > 8, site::TOP, &[R_CMP]);
                        t.istore(
                            site::SAVE_ST,
                            diag_region.addr((12 * d as u32 + 8) % diag_region.size().max(12)),
                            4,
                            &[R_RUN],
                        );
                    }
                }
            }
            t.ialu(site::INC, R_PTR, &[R_PTR]);
            t.branch(site::B_SCAN, j + ktup < n, site::TOP, &[R_PTR]);
        }

        // --- Phases 2–4 delegate the arithmetic to the reference and
        // emit the corresponding loop instructions.
        let scores =
            sapa_align::fasta::score_subject(&index, subject, matrix, gaps, params, &mut ws);

        // Region rescoring: a matrix walk over ~max_regions short spans.
        if scores.init1 > 0 {
            let span = 24usize.min(n);
            for r in 0..params.max_regions.min(4) {
                for x in 0..span {
                    t.iload(
                        site::RESC_LD,
                        R_SC,
                        img.residue_addr(si, (x + r) % n),
                        1,
                        &[R_PTR],
                    );
                    t.ialu(site::RESC_ADD, R_ACC, &[R_ACC, R_SC]);
                    t.ialu(site::RESC_MAX, R_ACC, &[R_ACC]);
                }
                t.ialu(site::RESC_CMP, R_CMP, &[R_ACC]);
                t.branch(
                    site::RESC_B,
                    r + 1 < params.max_regions.min(4),
                    site::RESC_LD,
                    &[R_CMP],
                );
            }
        }

        // Banded `opt` DP when the threshold was met.
        if scores.opt > 0 {
            let band = 2 * params.band_width + 1;
            for i in 0..m {
                for off in (0..band).step_by(2) {
                    let cell = band_region.addr((8 * off as u32) % band_region.size().max(8));
                    t.iload(site::OPT_LD_SS, R_SC, cell, 8, &[R_PTR]);
                    t.iload(
                        site::OPT_LD_P,
                        R_POS,
                        matrix_region.addr(((i * 24) % 576) as u32),
                        1,
                        &[R_PTR],
                    );
                    t.ialu(site::OPT_ADD, R_ACC, &[R_SC, R_POS]);
                    t.ialu(site::OPT_MAX1, R_ACC, &[R_ACC, R_SC]);
                    // The DP max takes a data-dependent path per cell.
                    let positive = matrix.score(query[i], subject[(i + off) % n]) > 0;
                    t.branch(site::OPT_B, positive, site::OPT_LD_SS, &[R_ACC]);
                    t.ialu(site::OPT_MAX2, R_ACC, &[R_ACC, R_CMP]);
                    t.istore(site::OPT_ST, cell, 8, &[R_ACC]);
                }
                t.ialu(site::OPT_CMP, R_CMP, &[R_ACC]);
                t.branch(site::OPT_B, i + 1 < m, site::OPT_LD_SS, &[R_CMP]);
            }
        }

        let reported = scores.opt.max(scores.initn);
        if reported >= params.min_report_score {
            results.push(Hit {
                seq_index: si,
                score: reported,
            });
        }
        all_scores.push(scores);
    }

    let hits = results.finish().into_hits();
    FastaRun {
        trace: t.finish(),
        scores: all_scores,
        hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapa_align::fasta as ref_fasta;
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
    fn scores_match_reference_fasta() {
        let (q, db) = inputs();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let p = FastaParams::default();
        let run = run(&q, &db, &m, g, &p, 10);
        let idx = ref_fasta::KtupIndex::build(&q, p.ktup);
        for (i, s) in db.iter().enumerate() {
            let expect = ref_fasta::score_subject(
                &idx,
                s.residues(),
                &m,
                g,
                &p,
                &mut ref_fasta::Workspace::default(),
            );
            assert_eq!(run.scores[i], expect, "subject {i}");
        }
    }

    #[test]
    fn homolog_is_top_hit() {
        let (q, db) = inputs();
        let m = SubstitutionMatrix::blosum62();
        let run = run(
            &q,
            &db,
            &m,
            GapPenalties::paper(),
            &FastaParams::default(),
            10,
        );
        assert!(!run.hits.is_empty());
        assert_eq!(run.hits[0].seq_index, 1);
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
            &FastaParams::default(),
            10,
        );
        let stats = run.trace.stats();
        let ialu = stats.fraction(OpClass::IAlu);
        let iload = stats.fraction(OpClass::ILoad);
        let ctrl = stats.fraction(OpClass::Branch);
        // Paper Fig. 1 FASTA: ~48% ialu, ~17% iload, ~18% ctrl.
        assert!((0.33..0.60).contains(&ialu), "ialu {ialu}");
        assert!((0.12..0.32).contains(&iload), "iload {iload}");
        assert!((0.10..0.28).contains(&ctrl), "ctrl {ctrl}");
        assert_eq!(stats.vector_ops(), 0);
    }

    #[test]
    fn trace_size_sits_between_blast_and_ssearch() {
        let (q, db) = inputs();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let fasta = run(&q, &db, &m, g, &FastaParams::default(), 10).trace.len();
        let blast = crate::blast::run(
            &q,
            &db,
            &m,
            g,
            &sapa_align::blast::BlastParams::default(),
            10,
        )
        .trace
        .len();
        let ssearch = crate::ssearch::run(&q, &db, &m, g, 10).trace.len();
        assert!(fasta < ssearch, "fasta {fasta} !< ssearch {ssearch}");
        assert!(blast < ssearch, "blast {blast} !< ssearch {ssearch}");
    }
}
