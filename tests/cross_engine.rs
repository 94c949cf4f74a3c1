//! Cross-engine consistency: the traced workloads must report exactly
//! the same biology as the reference algorithms, across a spread of
//! synthetic databases — and every registry [`Engine`] must agree with
//! scalar Smith-Waterman through the unified search API.

use sapa_core::align::engine::{Engine, Prefilter, SearchRequest};
use sapa_core::align::{blast as ref_blast, fasta as ref_fasta, sw as ref_sw};
use sapa_core::bioseq::db::DatabaseBuilder;
use sapa_core::bioseq::matrix::GapPenalties;
use sapa_core::bioseq::queries::QuerySet;
use sapa_core::bioseq::{AminoAcid, SubstitutionMatrix};
use sapa_core::workloads::{blast, fasta, ssearch, sw_simd};

fn setup(seed: u64, n: usize) -> (Vec<AminoAcid>, Vec<sapa_core::bioseq::Sequence>) {
    let queries = QuerySet::paper();
    let query = queries.by_accession("P02232").unwrap(); // Globin, 143 aa
    let db = DatabaseBuilder::new()
        .seed(seed)
        .sequences(n)
        .median_length(120.0)
        .homolog_template(query.clone())
        .homolog_fraction(0.1)
        .build();
    (query.residues().to_vec(), db.sequences().to_vec())
}

#[test]
fn traced_ssearch_equals_reference_sw_on_every_subject() {
    let (q, db) = setup(11, 25);
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let run = ssearch::run(&q, &db, &m, g, 500);
    for (i, s) in db.iter().enumerate() {
        assert_eq!(
            run.scores[i],
            ref_sw::score(&q, s.residues(), &m, g),
            "subject {i}"
        );
    }
}

#[test]
fn traced_simd_sw_equals_reference_at_both_widths() {
    let (q, db) = setup(12, 15);
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let r128 = sw_simd::run::<8>(&q, &db, &m, g, 500);
    let r256 = sw_simd::run::<16>(&q, &db, &m, g, 500);
    for (i, s) in db.iter().enumerate() {
        let expect = ref_sw::score(&q, s.residues(), &m, g);
        assert_eq!(r128.scores[i], expect, "vmx128 subject {i}");
        assert_eq!(r256.scores[i], expect, "vmx256 subject {i}");
    }
}

/// The daemon's corpus shape (`ServiceConfig::default()`: seed 42,
/// median length 110, 10% GST homologs), cut to its first 100
/// subjects — the generator draws subjects in order, so these are the
/// daemon's own first 100, about ten of them GST homologs.
fn daemon_slice() -> Vec<sapa_core::bioseq::Sequence> {
    let db = DatabaseBuilder::new()
        .seed(42)
        .sequences(100)
        .median_length(110.0)
        .homolog_template(QuerySet::paper().default_query().clone())
        .homolog_fraction(0.1)
        .build();
    db.sequences().to_vec()
}

/// Daemon-shaped query windows (accession, start, length): 20–60
/// residues, half of them GST windows, whose homologs give BLAST its
/// most gapped extensions per subject.
const WINDOWS: [(&str, usize, usize); 6] = [
    ("P14942", 0, 56),
    ("P14942", 120, 47),
    ("P14942", 170, 33),
    ("P02232", 60, 20),
    ("P01111", 100, 60),
    ("P10318", 200, 41),
];

fn window(accession: &str, start: usize, len: usize) -> Vec<AminoAcid> {
    let queries = QuerySet::paper();
    let q = queries.by_accession(accession).unwrap();
    q.residues()[start..start + len].to_vec()
}

/// Subjects holding two copies of `q` on diagonals further apart than
/// BLAST's band: a short prefix first, then, past `filler`, the whole
/// query. Only a band on the second diagonal finds the full score, so a
/// band score reused across diagonals of one subject cannot pass.
fn two_region_subjects(q: &[AminoAcid], filler: &[AminoAcid]) -> Vec<sapa_core::bioseq::Sequence> {
    [12, 16, 20]
        .into_iter()
        .enumerate()
        .map(|(k, prefix)| {
            let mut residues = q[..prefix].to_vec();
            residues.extend_from_slice(&filler[..40 + 10 * k]);
            residues.extend_from_slice(q);
            sapa_core::bioseq::Sequence::new(format!("TWO{k}"), "two regions", residues)
        })
        .collect()
}

/// Every (query, database) pair the heuristic equivalence tests run:
/// the Globin query against 40 planted-homolog subjects, each window
/// against the daemon slice, and a GST window against two-region
/// subjects.
fn heuristic_cases(
    globin_seed: u64,
) -> Vec<(String, Vec<AminoAcid>, Vec<sapa_core::bioseq::Sequence>)> {
    let (q, db) = setup(globin_seed, 40);
    let mut cases = vec![("P02232 vs globin db".to_string(), q, db)];
    let slice = daemon_slice();
    for (acc, start, len) in WINDOWS {
        cases.push((
            format!("{acc}[{start}..+{len}] vs daemon slice"),
            window(acc, start, len),
            slice.clone(),
        ));
    }
    let gst = window("P14942", 0, 56);
    let filler = slice.iter().find(|s| s.len() >= 60).unwrap().residues();
    let two = two_region_subjects(&gst, filler);
    cases.push(("P14942[0..+56] vs two-region subjects".into(), gst, two));
    cases
}

#[test]
fn traced_blast_equals_reference_search() {
    // The traced program runs one banded pass per triggering hit; the
    // library computes each (subject, diagonal) band once. Every
    // subject's score must agree, with two-hit and one-hit seeding.
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    for one_hit in [false, true] {
        let p = ref_blast::BlastParams {
            one_hit,
            ..ref_blast::BlastParams::default()
        };
        for (name, q, db) in heuristic_cases(13) {
            let traced = blast::run(&q, &db, &m, g, &p, 500);
            let idx = ref_blast::WordIndex::build(&q, &m, p.threshold);
            let slices: Vec<&[AminoAcid]> = db.iter().map(|s| s.residues()).collect();
            let reference = ref_blast::search(&idx, slices.iter().copied(), &m, g, &p, 500);
            assert_eq!(
                traced.hits,
                reference.hits().to_vec(),
                "{name}, one_hit {one_hit}"
            );
            for (i, s) in slices.iter().enumerate() {
                let fresh = &mut ref_blast::Workspace::default();
                let score = ref_blast::score_subject(&idx, s, &m, g, &p, fresh);
                let reported = if score >= p.min_report_score {
                    score
                } else {
                    0
                };
                assert_eq!(
                    traced.scores[i], reported,
                    "{name}, one_hit {one_hit}, subject {i}"
                );
            }
        }
    }
}

#[test]
fn traced_fasta_equals_reference_scores() {
    // Whole (init1, initn, opt) triples, at ktup 2 and 1; the traced
    // program reuses one workspace across its subject loop, the
    // reference side starts each subject from a fresh one.
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    for ktup in [2, 1] {
        let p = ref_fasta::FastaParams {
            ktup,
            ..ref_fasta::FastaParams::default()
        };
        for (name, q, db) in heuristic_cases(14) {
            let traced = fasta::run(&q, &db, &m, g, &p, 500);
            let idx = ref_fasta::KtupIndex::build(&q, p.ktup);
            for (i, s) in db.iter().enumerate() {
                let fresh = &mut ref_fasta::Workspace::default();
                let expect = ref_fasta::score_subject(&idx, s.residues(), &m, g, &p, fresh);
                assert_eq!(traced.scores[i], expect, "{name}, ktup {ktup}, subject {i}");
            }
        }
    }
}

#[test]
fn heuristics_rank_strong_homologs_like_full_sw() {
    // On high-identity homologs, all three searches must agree on the
    // top hit (the sensitivity differences the paper discusses appear
    // at low identity, not at 90%).
    let queries = QuerySet::paper();
    let query = queries.by_accession("P01111").unwrap();
    let db = DatabaseBuilder::new()
        .seed(15)
        .sequences(60)
        .homolog_template(query.clone())
        .homolog_fraction(0.05)
        .homolog_identity(0.9)
        .build();
    let q = query.residues().to_vec();
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();

    let ss = ssearch::run(&q, db.sequences(), &m, g, 10);
    let bl = blast::run(
        &q,
        db.sequences(),
        &m,
        g,
        &ref_blast::BlastParams::default(),
        10,
    );
    let fa = fasta::run(
        &q,
        db.sequences(),
        &m,
        g,
        &ref_fasta::FastaParams::default(),
        10,
    );

    let top_ss = ss.hits.first().map(|h| h.seq_index);
    assert!(top_ss.is_some(), "SW found nothing");
    assert_eq!(
        bl.hits.first().map(|h| h.seq_index),
        top_ss,
        "BLAST top hit"
    );
    assert_eq!(
        fa.hits.first().map(|h| h.seq_index),
        top_ss,
        "FASTA top hit"
    );
}

/// One shared request over the standard small inputs for the registry
/// sweep tests below.
fn registry_fixture() -> (sapa_core::workloads::StandardInputs, Vec<AminoAcid>) {
    let inputs = sapa_core::workloads::StandardInputs::small();
    let q = inputs.query.residues().to_vec();
    (inputs, q)
}

#[test]
fn every_engine_agrees_with_scalar_sw() {
    // The equivalence matrix: all four exact engines report identical
    // ranked hits; the heuristics may miss hits (that is their design)
    // but every hit they do report must rescore to its claimed value
    // under the engine's own scorer.
    let (inputs, q) = registry_fixture();
    let subjects: Vec<&[AminoAcid]> = inputs.db.iter().map(|s| s.residues()).collect();
    let req = SearchRequest {
        query: &q,
        matrix: &inputs.matrix,
        gaps: inputs.gaps,
        top_k: inputs.keep,
        min_score: 1,
        deadline: None,
        report_alignments: false,
        prefilter: Prefilter::Off,
    };
    let reference = Engine::Sw.search(&req, &subjects, 1);
    assert!(!reference.hits.is_empty(), "SW found nothing");

    for engine in Engine::ALL {
        let resp = engine.search(&req, &subjects, 1);
        if engine.is_exact() {
            assert_eq!(resp.hits, reference.hits, "{engine} differs from sw");
        } else {
            for h in &resp.hits {
                let subject = subjects[h.seq_index];
                let rescored = match engine {
                    Engine::Fasta => {
                        let idx =
                            ref_fasta::KtupIndex::build(&q, ref_fasta::FastaParams::default().ktup);
                        let s = ref_fasta::score_subject(
                            &idx,
                            subject,
                            &inputs.matrix,
                            inputs.gaps,
                            &ref_fasta::FastaParams::default(),
                            &mut ref_fasta::Workspace::default(),
                        );
                        s.opt.max(s.initn)
                    }
                    Engine::Blast => {
                        let p = ref_blast::BlastParams::default();
                        let idx = ref_blast::WordIndex::build(&q, &inputs.matrix, p.threshold);
                        ref_blast::score_subject(
                            &idx,
                            subject,
                            &inputs.matrix,
                            inputs.gaps,
                            &p,
                            &mut ref_blast::Workspace::default(),
                        )
                    }
                    _ => unreachable!(),
                };
                assert_eq!(
                    h.score, rescored,
                    "{engine} hit on subject {} does not rescore",
                    h.seq_index
                );
            }
        }
    }
}

#[test]
fn ranked_results_are_thread_count_invariant() {
    // The full SearchResponse — hit order, scores, E-values, stats —
    // must be identical whether the scan ran on 1, 2, or 4 workers.
    let (inputs, q) = registry_fixture();
    let subjects: Vec<&[AminoAcid]> = inputs.db.iter().map(|s| s.residues()).collect();
    let req = SearchRequest {
        query: &q,
        matrix: &inputs.matrix,
        gaps: inputs.gaps,
        top_k: inputs.keep,
        min_score: 1,
        deadline: None,
        report_alignments: false,
        prefilter: Prefilter::Off,
    };
    for engine in Engine::ALL {
        let serial = engine.search(&req, &subjects, 1);
        for threads in [2usize, 4] {
            let mut parallel = engine.search(&req, &subjects, threads);
            assert_eq!(parallel.stats.threads, threads);
            parallel.stats.threads = serial.stats.threads;
            assert_eq!(parallel, serial, "{engine} differs at {threads} threads");
        }
    }
}
