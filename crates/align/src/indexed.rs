//! Database search over a prebuilt on-disk index: the BLAST-shaped
//! two-stage pipeline (seed prefilter → full rescore) running against
//! [`sapa_bioseq::index`] databases, decoding only the subjects it
//! scores.
//!
//! The pipeline per request:
//!
//! 1. **Candidate generation** — [`Prefilter::Seed`] /
//!    [`Prefilter::SeedExtend`] run the query through the database's
//!    resident k-mer seed index: only subjects sharing a qualifying
//!    seed diagonal survive, plus every subject too short to carry a
//!    seed word (admitted unconditionally, so short-subject edge cases
//!    can never be silently lost). [`Prefilter::Off`] admits everyone —
//!    an exhaustive scan bit-identical in ranking to the in-memory
//!    path over the same (length-sorted) sequences.
//! 2. **Deadline resolution** — a [`Deadline::Cells`] budget is
//!    resolved *serially over the candidate list* using
//!    [`AlignmentEngine::cost_len`] on the on-disk length table, so
//!    partial responses stay deterministic at any thread count and no
//!    sequence data is decoded for subjects the budget rejects.
//! 3. **Shard-grouped rescore** — candidates are grouped by shard
//!    (contiguous in the length-sorted order, so every batch the
//!    striped kernels see has near-uniform subject lengths). Only each
//!    group's candidates are decoded, into one reusable buffer, from
//!    the shard's packed blob, which the reader checksum-verifies on
//!    its first read and keeps from then on
//!    ([`IndexReader::read_sequences`]). The group is then optionally
//!    gated through the X-drop extension and scored by the engine
//!    through the same chunked work-claiming loop
//!    ([`crate::parallel::engine_scores`]) as in-memory scans —
//!    panic-quarantine included. Decoded residues never exceed one
//!    shard; the reader's kept blobs grow to 0.625 bytes per residue
//!    of the shards searched so far.
//!
//! Determinism: with [`Prefilter::Off`] or [`Prefilter::Seed`] and no
//! wall-clock deadline, the response (hits, stats, coverage) is a pure
//! function of the database bytes and the request — identical at any
//! thread count, and its ranked hits equal the exhaustive scan's for
//! every subject that shares at least one seed word with the query.
//! [`Prefilter::SeedExtend`] is a documented heuristic: its extension
//! gate can drop true hits whose optimal alignment avoids every seeded
//! diagonal.

use std::io::{Read, Seek};
use std::time::Instant;

use sapa_bioseq::index::{IndexReader, ShardBuf};
use sapa_bioseq::AminoAcid;

use crate::engine::{
    annotate_hits, AlignmentEngine, Deadline, DeadlineKind, Engine, Prefilter, Quarantined,
    RunStats, SearchRequest, SearchResponse,
};
use crate::parallel::{self, QUARANTINED_SCORE};
use crate::result::{Hit, TopK};
use crate::{stats, xdrop};

/// One subject admitted past the seed stage: its global (database
/// order) index and, when it was seeded, the first seed of its best
/// diagonal for the optional extension gate.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    seq: usize,
    seed: Option<(u32, u32)>,
}

/// Runs `req` through `engine` against the on-disk database behind
/// `db`. This is the generic worker behind [`Engine::search_indexed`];
/// call it directly to search with a non-registry
/// [`AlignmentEngine`].
///
/// Hit indices are database (length-sorted) sequence indices. The
/// response is score-only (`alignment: None`);
/// [`SearchRequest::report_alignments`] is ignored because subjects are
/// not resident once their shard buffer is reused.
///
/// # Errors
///
/// Propagates I/O errors and checksum/structure failures from the
/// reader.
///
/// # Panics
///
/// Panics if `threads` or `req.top_k` is 0.
pub fn search_reader<R: Read + Seek, E: AlignmentEngine>(
    id: Engine,
    engine: &E,
    req: &SearchRequest<'_>,
    db: &mut IndexReader<R>,
    threads: usize,
) -> sapa_bioseq::Result<SearchResponse> {
    assert!(threads > 0, "need at least one thread");
    let word_len = db.word_len();
    let seq_count = db.seq_count();

    // Stage 1: candidate generation. A query shorter than the indexed
    // word length has no seed words at all; pruning on their absence
    // would discard the whole database, so the prefilter disables
    // itself and the scan is exhaustive.
    let effective = match req.prefilter {
        Prefilter::Off => Prefilter::Off,
        p if req.query.len() < word_len => {
            debug_assert!(!matches!(p, Prefilter::Off));
            Prefilter::Off
        }
        p => p,
    };
    let mut candidates: Vec<Candidate> = match effective {
        Prefilter::Off => (0..seq_count)
            .map(|seq| Candidate { seq, seed: None })
            .collect(),
        Prefilter::Seed { min_diag_seeds } | Prefilter::SeedExtend { min_diag_seeds, .. } => {
            let scan = db.seed_index().candidates(req.query, min_diag_seeds);
            // Sequences shorter than the word length can never be
            // seeded; the length table is sorted ascending, so they
            // are exactly the database prefix below `word_len` — and
            // every seeded candidate's index lands past them, keeping
            // the concatenation sorted.
            let unseedable = db
                .lengths()
                .iter()
                .take_while(|&&l| (l as usize) < word_len)
                .count();
            let mut list: Vec<Candidate> = (0..unseedable)
                .map(|seq| Candidate { seq, seed: None })
                .collect();
            list.extend(scan.candidates.iter().map(|c| Candidate {
                seq: c.seq as usize,
                seed: Some((c.qpos, c.spos)),
            }));
            debug_assert!(list.windows(2).all(|w| w[0].seq < w[1].seq));
            list
        }
    };
    let pruned_seed = seq_count - candidates.len();

    // Stage 2: deadline resolution over the candidate list, from the
    // resident length table alone.
    let mut truncated_by: Option<DeadlineKind> = None;
    let wall = match req.deadline {
        None => None,
        Some(Deadline::Cells(budget)) => {
            let mut spent = 0u64;
            let mut admitted = 0usize;
            for c in &candidates {
                spent = spent.saturating_add(engine.cost_len(db.lengths()[c.seq] as usize));
                if spent > budget {
                    break;
                }
                admitted += 1;
            }
            if admitted < candidates.len() {
                truncated_by = Some(DeadlineKind::Cells);
                candidates.truncate(admitted);
            }
            None
        }
        Some(Deadline::Wall(d)) => Some(Instant::now() + d),
    };

    // Group candidates by shard; both sides are sorted, so one forward
    // walk tiles the list into contiguous per-shard runs.
    let mut groups: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
    {
        let shards = db.shards();
        let mut at = 0usize;
        for (shard_idx, info) in shards.iter().enumerate() {
            let end_seq = info.seq_start + info.seq_count;
            let start = at;
            while at < candidates.len() && candidates[at].seq < end_seq {
                at += 1;
            }
            if at > start {
                groups.push((shard_idx, start..at));
            }
        }
        debug_assert_eq!(at, candidates.len());
    }

    // Stage 3: per shard group, decode, gate, rescore.
    let mut results = TopK::new(req.top_k);
    let mut quarantined: Vec<Quarantined> = Vec::new();
    let mut attempted = 0usize;
    let mut rescored = 0usize;
    let mut pruned_ext = 0usize;
    let mut buf = ShardBuf::new();
    for (shard_idx, range) in groups {
        // The wall-clock cutoff is checked between shards only: it is
        // best-effort (and explicitly non-deterministic) in the
        // in-memory path too, and a shard is the unit of I/O here.
        if wall.is_some_and(|w| Instant::now() >= w) {
            truncated_by = Some(DeadlineKind::Wall);
            break;
        }
        // Decode only this group's candidates; the extension gate
        // below needs their residues.
        let group = &candidates[range.clone()];
        db.read_sequences(shard_idx, group.iter().map(|c| c.seq), &mut buf)?;

        // Optional extension gate, then the surviving slice batch.
        let mut survivors: Vec<usize> = Vec::with_capacity(range.len());
        let mut slices: Vec<&[AminoAcid]> = Vec::with_capacity(range.len());
        for (pos, cand) in group.iter().enumerate() {
            let subject = buf.sequence(pos);
            if let Prefilter::SeedExtend {
                x, min_extended, ..
            } = effective
            {
                // Unseeded candidates are the too-short-to-seed
                // admissions; they bypass the gate by construction.
                if let Some((qpos, spos)) = cand.seed {
                    let ext = xdrop::extend_seed(
                        req.query,
                        subject,
                        req.matrix,
                        req.gaps,
                        qpos as usize,
                        spos as usize,
                        word_len,
                        x.max(0),
                    );
                    if ext < min_extended {
                        pruned_ext += 1;
                        continue;
                    }
                }
            }
            survivors.push(range.start + pos);
            slices.push(subject);
        }
        if slices.is_empty() {
            continue;
        }

        let (scores, shard_stats) = parallel::engine_scores(engine, &slices, threads);
        attempted += slices.len();
        rescored += shard_stats.rescored;
        for q in shard_stats.quarantined {
            quarantined.push(Quarantined {
                index: candidates[survivors[q.index]].seq,
                cause: q.cause,
            });
        }
        for (local, score) in scores.into_iter().enumerate() {
            if score == QUARANTINED_SCORE {
                continue;
            }
            if score >= req.min_score {
                results.push(Hit {
                    seq_index: candidates[survivors[local]].seq,
                    score,
                });
            }
        }
    }
    quarantined.sort_by_key(|q| q.index);

    let ka = stats::KarlinAltschul::for_gaps(req.gaps);
    let ranked = results.finish();
    let hits = annotate_hits(
        ranked.hits(),
        vec![None; ranked.hits().len()],
        &ka,
        req.query.len(),
        db.total_residues() as usize,
        seq_count,
    );
    let pruned = pruned_seed + pruned_ext;
    Ok(SearchResponse {
        engine: id,
        hits,
        stats: RunStats {
            subjects: attempted,
            rescored,
            threads,
            quarantined,
            pruned,
        },
        // A full prefiltered pass is a *complete* search under its
        // strategy: pruning is accounted in `stats.pruned`, not as
        // missing coverage. Only a deadline leaves the scan incomplete.
        completed: truncated_by.is_none(),
        truncated_by,
        coverage: attempted + pruned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StripedEngine;
    use sapa_bioseq::db::DatabaseBuilder;
    use sapa_bioseq::index::IndexBuilder;
    use sapa_bioseq::matrix::GapPenalties;
    use sapa_bioseq::queries::QuerySet;
    use sapa_bioseq::{Sequence, SubstitutionMatrix};
    use std::io::Cursor;

    fn test_db(seed: u64, n: usize, homologs: f64) -> Vec<Sequence> {
        let query = QuerySet::paper().default_query().clone();
        DatabaseBuilder::new()
            .seed(seed)
            .sequences(n)
            .homolog_template(query)
            .homolog_fraction(homologs)
            .build()
            .sequences()
            .to_vec()
    }

    fn reader_for(seqs: &[Sequence]) -> IndexReader<Cursor<Vec<u8>>> {
        let mut bytes = Vec::new();
        IndexBuilder::new()
            .shard_residues(8 * 1024)
            .write(seqs, &mut bytes)
            .unwrap();
        IndexReader::from_reader(Cursor::new(bytes)).unwrap()
    }

    fn request<'a>(
        query: &'a [AminoAcid],
        matrix: &'a SubstitutionMatrix,
        prefilter: Prefilter,
    ) -> SearchRequest<'a> {
        SearchRequest {
            query,
            matrix,
            gaps: GapPenalties::paper(),
            top_k: 50,
            // A significance-level cutoff: statistically insignificant
            // chance alignments (scores in the ~40s on this search
            // space) need not share any exact 5-mer with the query, so
            // ranking equivalence between the seed prefilter and the
            // exhaustive scan is asserted above that noise floor — the
            // regime every real report operates in.
            min_score: 60,
            deadline: None,
            report_alignments: false,
            prefilter,
        }
    }

    #[test]
    fn exhaustive_indexed_scan_matches_in_memory_search() {
        let seqs = test_db(41, 120, 0.05);
        let query = QuerySet::paper().default_query().clone();
        let m = SubstitutionMatrix::blosum62();
        let mut db = reader_for(&seqs);

        let req = request(query.residues(), &m, Prefilter::Off);
        let indexed = Engine::Striped.search_indexed(&req, &mut db, 2).unwrap();

        // In-memory reference over the same (length-sorted) order.
        let sorted = db.read_all().unwrap();
        let slices: Vec<&[AminoAcid]> = sorted.iter().map(|s| s.residues()).collect();
        let reference = Engine::Striped.search(&req, &slices, 2);

        assert_eq!(indexed.hits, reference.hits);
        assert_eq!(indexed.stats.subjects, seqs.len());
        assert_eq!(indexed.stats.pruned, 0);
        assert!(indexed.completed);
        assert_eq!(indexed.coverage, seqs.len());
    }

    #[test]
    fn seed_prefilter_prunes_without_losing_ranked_hits() {
        let seqs = test_db(43, 200, 0.04);
        let query = QuerySet::paper().default_query().clone();
        let m = SubstitutionMatrix::blosum62();
        let mut db = reader_for(&seqs);

        let off = request(query.residues(), &m, Prefilter::Off);
        let exhaustive = Engine::Striped.search_indexed(&off, &mut db, 1).unwrap();
        let seeded_req = request(query.residues(), &m, Prefilter::DEFAULT_SEED);
        let seeded = Engine::Striped
            .search_indexed(&seeded_req, &mut db, 1)
            .unwrap();

        assert!(seeded.stats.pruned > 0, "prefilter must prune something");
        assert_eq!(
            seeded.stats.subjects + seeded.stats.pruned,
            seqs.len(),
            "every subject is scored or pruned"
        );
        assert_eq!(
            seeded.hits, exhaustive.hits,
            "default seed prefilter must keep the exhaustive ranking"
        );
    }

    #[test]
    fn indexed_search_is_thread_count_invariant() {
        let seqs = test_db(47, 90, 0.1);
        let query = QuerySet::paper().default_query().clone();
        let m = SubstitutionMatrix::blosum62();
        let mut db = reader_for(&seqs);
        let req = request(query.residues(), &m, Prefilter::DEFAULT_SEED);

        let one = Engine::Striped.search_indexed(&req, &mut db, 1).unwrap();
        for threads in [2, 4] {
            let mut resp = Engine::Striped
                .search_indexed(&req, &mut db, threads)
                .unwrap();
            assert_eq!(resp.stats.threads, threads);
            resp.stats.threads = one.stats.threads;
            assert_eq!(resp, one, "threads={threads}");
        }
    }

    #[test]
    fn short_query_disables_the_prefilter() {
        let seqs = test_db(53, 40, 0.0);
        let m = SubstitutionMatrix::blosum62();
        let mut db = reader_for(&seqs);
        let short = Sequence::from_str("q", "MKW").unwrap(); // < word_len
        let req = request(short.residues(), &m, Prefilter::DEFAULT_SEED);
        let resp = Engine::Sw.search_indexed(&req, &mut db, 1).unwrap();
        assert_eq!(resp.stats.pruned, 0);
        assert_eq!(resp.stats.subjects, seqs.len());
    }

    #[test]
    fn cell_budget_is_deterministic_over_candidates() {
        let seqs = test_db(59, 60, 0.1);
        let query = QuerySet::paper().default_query().clone();
        let m = SubstitutionMatrix::blosum62();
        let mut db = reader_for(&seqs);

        // Exhaustive candidates so a quarter of the database cost is
        // guaranteed to cut the scan short.
        let full_req = request(query.residues(), &m, Prefilter::Off);
        let full = Engine::Sw.search_indexed(&full_req, &mut db, 1).unwrap();
        let total: u64 = db
            .lengths()
            .iter()
            .map(|&l| (query.len() * l as usize).max(1) as u64)
            .sum();
        let mut req = full_req;
        req.deadline = Some(Deadline::Cells(total / 4));
        let one = Engine::Sw.search_indexed(&req, &mut db, 1).unwrap();
        assert!(!one.completed);
        assert!(one.stats.subjects < full.stats.subjects);
        for threads in [2, 3] {
            let mut resp = Engine::Sw.search_indexed(&req, &mut db, threads).unwrap();
            resp.stats.threads = one.stats.threads;
            assert_eq!(resp, one, "threads={threads}");
        }
    }

    #[test]
    fn seed_extend_is_a_subset_of_the_exhaustive_ranking() {
        let seqs = test_db(61, 150, 0.06);
        let query = QuerySet::paper().default_query().clone();
        let m = SubstitutionMatrix::blosum62();
        let mut db = reader_for(&seqs);

        let off = request(query.residues(), &m, Prefilter::Off);
        let exhaustive = Engine::Striped.search_indexed(&off, &mut db, 1).unwrap();
        let ext_req = request(
            query.residues(),
            &m,
            Prefilter::SeedExtend {
                min_diag_seeds: 1,
                x: 20,
                min_extended: 25,
            },
        );
        let gated = Engine::Striped
            .search_indexed(&ext_req, &mut db, 1)
            .unwrap();

        assert!(gated.stats.pruned >= exhaustive.stats.pruned);
        let all: Vec<(usize, i32)> = exhaustive
            .hits
            .iter()
            .map(|h| (h.seq_index, h.score))
            .collect();
        for h in &gated.hits {
            assert!(
                all.contains(&(h.seq_index, h.score)),
                "SeedExtend produced a hit the exhaustive scan lacks"
            );
        }
        // Strong homologs must survive a loose gate.
        assert_eq!(gated.hits[0], exhaustive.hits[0]);
    }

    #[test]
    fn short_subjects_are_admitted_unconditionally() {
        let query = QuerySet::paper().default_query().clone();
        // A db with subjects shorter than the seed word length.
        let mut seqs = test_db(67, 30, 0.0);
        seqs.push(Sequence::from_str("tiny1", "MK").unwrap());
        seqs.push(Sequence::from_str("tiny2", "WYNA").unwrap());
        let m = SubstitutionMatrix::blosum62();
        let mut db = reader_for(&seqs);

        let mut req = request(query.residues(), &m, Prefilter::DEFAULT_SEED);
        req.min_score = 1;
        let resp = Engine::Sw.search_indexed(&req, &mut db, 1).unwrap();
        // The two tiny subjects sort first and must have been scored.
        assert!(resp.stats.subjects >= 2);
        assert_eq!(resp.stats.subjects + resp.stats.pruned, seqs.len());
    }

    #[test]
    fn direct_engine_search_reader_works_without_the_registry() {
        let seqs = test_db(71, 40, 0.1);
        let query = QuerySet::paper().default_query().clone();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let mut db = reader_for(&seqs);
        let engine = StripedEngine::<16, 8>::from_query(query.residues(), &m, g);
        let req = request(query.residues(), &m, Prefilter::DEFAULT_SEED);
        let resp = search_reader(Engine::Striped, &engine, &req, &mut db, 2).unwrap();
        assert!(!resp.hits.is_empty());
        assert_eq!(resp.engine, Engine::Striped);
    }
}
