//! Multi-threaded database scoring, generic over any alignment engine.
//!
//! Database search is embarrassingly parallel across subjects — the
//! paper's related-work section notes that most prior art studies
//! exactly this axis (cluster/SMP scaling) while the paper itself
//! studies the single processor. [`engine_scores`] / [`engine_search`]
//! drive any [`AlignmentEngine`] over a subject list: one shared engine
//! (query index / profile) threaded through all workers, one reusable
//! [`AlignmentEngine::Workspace`] per worker (the striped, FASTA and
//! BLAST engines keep their scan buffers there, so once it has grown
//! they allocate nothing per subject but the heuristics' four
//! banded-rescore rows), **chunked** work claiming (workers grab
//! batches of subjects per atomic `fetch_add` instead of one, cutting
//! cursor contention on short subjects), per-engine statistics harvested from
//! the workspaces, and deterministic, thread-count-independent results.
//!
//! Every front end shares one chunked work-claiming loop; determinism
//! is enforced by tests that compare thread counts {1, 2, 8}. When only
//! one worker would run, the loop runs on the calling thread: a scoped
//! spawn and join cost ~200 us (2-CPU x86_64 container), while a
//! one-subject `engine_scores` call takes ~3 us, and indexed search
//! calls [`engine_scores`] once per shard.
//!
//! ## Graceful degradation
//!
//! The loop is hardened against two failure modes a production scan
//! must survive:
//!
//! * **Poisoned subjects** — every `score_one` call runs under
//!   [`std::panic::catch_unwind`]. A panicking subject is *quarantined*
//!   (its index and panic cause recorded in [`RunStats::quarantined`]),
//!   the worker discards its possibly-inconsistent workspace and builds
//!   a fresh one, and the batch completes with every non-faulted
//!   subject's score bit-identical to a fault-free run. Quarantine
//!   decisions depend only on the data, so reports are identical at any
//!   thread count.
//! * **Unbounded latency** — [`engine_search_bounded`] accepts a
//!   [`Deadline`]: a deterministic cell budget (resolved serially to an
//!   admitted subject prefix, so partial results are thread-count
//!   independent) or a best-effort wall-clock cutoff. Partial scans
//!   return ranked hits over the subjects actually scored plus an
//!   explicit `completed = false`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use sapa_bioseq::matrix::GapPenalties;
use sapa_bioseq::profile::QueryProfile;
use sapa_bioseq::{AminoAcid, SubstitutionMatrix};

use crate::engine::{AlignmentEngine, Deadline, DeadlineKind, Quarantined, RunStats};
use crate::result::{Alignment, Hit, SearchResults, TopK};
use crate::striped::Workspace;
use crate::traceback;

/// Subjects claimed per `fetch_add` when the caller does not choose:
/// large enough that the shared cursor is touched ~1/16th as often,
/// small enough that tail imbalance stays negligible for real database
/// sizes.
pub const DEFAULT_CHUNK: usize = 16;

/// Picks a claim-chunk size: [`DEFAULT_CHUNK`], shrunk so that every
/// thread still gets several claims (keeps small inputs balanced).
fn auto_chunk(subject_count: usize, threads: usize) -> usize {
    let fair = (subject_count / (threads * 4)).max(1);
    fair.min(DEFAULT_CHUNK)
}

/// What the merged loop hands back to the engine front ends.
struct ChunkedOutcome<W> {
    /// Per-subject scores; `None` = quarantined or never attempted
    /// (wall-clock deadline hit before the subject was claimed).
    scores: Vec<Option<i32>>,
    /// Panicking subjects with causes, ascending by index.
    quarantined: Vec<(usize, String)>,
    /// Every workspace any worker used.
    workspaces: Vec<W>,
}

fn panic_cause(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `workers` copies of `work` and returns their results: on the
/// calling thread when there is one, sparing a thread spawn and join,
/// otherwise on scoped threads.
fn run_workers<T: Send>(workers: usize, work: impl Fn() -> T + Sync) -> Vec<T> {
    if workers == 1 {
        return vec![work()];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(&work)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

/// One worker's share of a scan: it claims `chunk` consecutive subjects
/// per `fetch_add` on the shared cursor, hands them out one at a time
/// as an [`Iterator`], and records the scores reported through
/// [`Claims::done`] — so an engine that keeps several subjects in
/// flight ([`AlignmentEngine::score_batch`]) takes the next subject
/// across claim boundaries instead of draining at each one.
pub struct Claims<'c, 's> {
    subjects: &'c [&'s [AminoAcid]],
    cursor: &'c AtomicUsize,
    chunk: usize,
    /// Best-effort cutoff: no new claim once it passes.
    wall: Option<Instant>,
    /// The unclaimed rest of the current claim, `next..end`.
    next: usize,
    end: usize,
    /// Handed out and not yet reported, so a panicking batch's subjects
    /// can be scored again.
    in_flight: Vec<usize>,
    scored: Vec<(usize, i32)>,
    quarantined: Vec<(usize, String)>,
}

impl<'c, 's> Claims<'c, 's> {
    fn new(
        subjects: &'c [&'s [AminoAcid]],
        cursor: &'c AtomicUsize,
        chunk: usize,
        wall: Option<Instant>,
    ) -> Self {
        Claims {
            subjects,
            cursor,
            chunk,
            wall,
            next: 0,
            end: 0,
            in_flight: Vec::new(),
            scored: Vec::new(),
            quarantined: Vec::new(),
        }
    }

    /// Records the score of subject `index`, which [`Claims::next`]
    /// handed out.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not in flight.
    pub fn done(&mut self, index: usize, score: i32) {
        self.land(index);
        self.scored.push((index, score));
    }

    /// Takes `index` out of the in-flight set.
    fn land(&mut self, index: usize) {
        let at = self
            .in_flight
            .iter()
            .position(|&i| i == index)
            .unwrap_or_else(|| panic!("subject {index} reported but not in flight"));
        self.in_flight.swap_remove(at);
    }
}

/// Hands out the worker's subjects with their indices.
impl<'s> Iterator for Claims<'_, 's> {
    type Item = (usize, &'s [AminoAcid]);

    /// The next subject to score and its index, claiming a new chunk
    /// when the current one is used up; `None` when every subject is
    /// claimed or the wall deadline has passed, and again on every
    /// later call.
    fn next(&mut self) -> Option<(usize, &'s [AminoAcid])> {
        if self.next == self.end {
            if self.wall.is_some_and(|w| Instant::now() >= w) {
                return None;
            }
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.subjects.len() {
                return None;
            }
            self.next = start;
            self.end = (start + self.chunk).min(self.subjects.len());
        }
        let i = self.next;
        self.next += 1;
        self.in_flight.push(i);
        Some((i, self.subjects[i]))
    }
}

/// The one chunked work-claiming loop behind every parallel front end.
///
/// Runs up to `threads` workers (see [`run_workers`]); each builds one
/// workspace and scores the subjects its [`Claims`] hand out, through
/// [`AlignmentEngine::score_batch`] when the engine
/// [`batches`](AlignmentEngine::batches) a worker's share of the scan
/// (its subjects over its workers, rounded up) and one
/// [`AlignmentEngine::score_one`] call at a time otherwise. The merge
/// restores subject order — output is identical no matter how chunks
/// interleave — and the workspaces are returned so callers can harvest
/// per-worker statistics.
///
/// Every `score_one` call runs under `catch_unwind`: a panicking subject
/// is recorded in `quarantined` and its worker replaces the workspace
/// (the panic may have left it mid-update) while keeping the old one
/// for counter harvesting. A panicking batch retires its workspace the
/// same way, and its worker scores the rest of its share one subject at
/// a time, the batch's in-flight subjects first — so each faulting
/// subject is quarantined exactly as on the per-subject path and no
/// subject is counted twice. With `wall` set, workers stop claiming new
/// chunks once the instant passes — a best-effort, non-deterministic
/// cutoff used only by [`Deadline::Wall`]; subjects already claimed, in
/// lanes or not, still finish.
fn chunked_scores<E: AlignmentEngine>(
    engine: &E,
    subjects: &[&[AminoAcid]],
    threads: usize,
    chunk: usize,
    wall: Option<Instant>,
) -> ChunkedOutcome<E::Workspace> {
    assert!(threads > 0, "need at least one thread");
    assert!(chunk > 0, "need a positive chunk size");
    let subject_count = subjects.len();
    let scores: Vec<Option<i32>> = vec![None; subject_count];
    if subject_count == 0 {
        return ChunkedOutcome {
            scores,
            quarantined: Vec::new(),
            workspaces: Vec::new(),
        };
    }
    let threads = threads.min(subject_count.div_ceil(chunk));
    let cursor = AtomicUsize::new(0);
    // Each worker's batch fills and drains on its own, so the engine
    // decides from one worker's share of the scan.
    let batch = engine.batches(subject_count.div_ceil(threads));

    let partials = run_workers(threads, || {
        let mut claims = Claims::new(subjects, &cursor, chunk, wall);
        // Reused across every subject this worker scores.
        let mut ws = engine.workspace();
        let mut retired = Vec::new();
        if batch
            && catch_unwind(AssertUnwindSafe(|| {
                engine.score_batch(&mut ws, &mut claims)
            }))
            .is_err()
        {
            // The batch may have left its workspace mid-update; retire
            // it (counters intact) and go on one subject at a time.
            retired.push(std::mem::replace(&mut ws, engine.workspace()));
        }
        // In-flight subjects of a panicked batch first, then the rest.
        while let Some((i, subject)) = claims
            .in_flight
            .last()
            .map(|&i| (i, subjects[i]))
            .or_else(|| claims.next())
        {
            match catch_unwind(AssertUnwindSafe(|| engine.score_one(&mut ws, subject))) {
                Ok(s) => claims.done(i, s),
                Err(payload) => {
                    claims.land(i);
                    claims.quarantined.push((i, panic_cause(payload)));
                    // The unwound workspace may be mid-update; retire it
                    // (counters intact) and continue on a fresh one.
                    retired.push(std::mem::replace(&mut ws, engine.workspace()));
                }
            }
        }
        retired.push(ws);
        (claims.scored, claims.quarantined, retired)
    });
    let mut out = ChunkedOutcome {
        scores,
        quarantined: Vec::new(),
        workspaces: Vec::new(),
    };
    for (scored, quarantined, workspaces) in partials {
        for (i, s) in scored {
            out.scores[i] = Some(s);
        }
        out.quarantined.extend(quarantined);
        out.workspaces.extend(workspaces);
    }
    out.quarantined.sort_by_key(|&(i, _)| i);
    out
}

/// Sentinel stored in an [`engine_scores`] slot whose subject was
/// quarantined (its engine call panicked). The matching index/cause
/// pair is in [`RunStats::quarantined`].
pub const QUARANTINED_SCORE: i32 = i32::MIN;

/// Scores every subject through `engine` on `threads` worker threads.
///
/// This is the database-search hot path for every backend: workers
/// claim subjects in chunks and keep one reusable
/// [`AlignmentEngine::Workspace`] each. The striped engine's buffers
/// depend only on the query; the FASTA and BLAST workspaces grow to the
/// longest subject a worker meets and are reset per subject; the
/// scalar and anti-diagonal Smith-Waterman engines, with `()`
/// workspaces, still allocate their rows per subject. Scores come back in
/// subject order regardless of thread count; per-worker counters (e.g.
/// the striped engine's byte-overflow rescores) are summed into the
/// returned [`RunStats`].
///
/// A subject whose engine call panics does not abort the batch: its
/// slot holds [`QUARANTINED_SCORE`] and [`RunStats::quarantined`]
/// records the index and cause. All surviving scores are bit-identical
/// to a run without the faulting subjects.
///
/// # Panics
///
/// Panics if `threads` is 0.
pub fn engine_scores<E: AlignmentEngine>(
    engine: &E,
    subjects: &[&[AminoAcid]],
    threads: usize,
) -> (Vec<i32>, RunStats) {
    let chunk = auto_chunk(subjects.len(), threads.max(1));
    let out = chunked_scores(engine, subjects, threads, chunk, None);
    let rescored = out.workspaces.iter().map(|ws| engine.rescored(ws)).sum();
    let stats = RunStats {
        subjects: subjects.len(),
        rescored,
        threads,
        quarantined: quarantine_report(out.quarantined),
        pruned: 0,
    };
    let scores = out
        .scores
        .into_iter()
        .map(|s| s.unwrap_or(QUARANTINED_SCORE))
        .collect();
    (scores, stats)
}

fn quarantine_report(pairs: Vec<(usize, String)>) -> Vec<Quarantined> {
    pairs
        .into_iter()
        .map(|(index, cause)| Quarantined { index, cause })
        .collect()
}

/// Ranked parallel search through any [`AlignmentEngine`]: the best
/// `keep` hits with scores of at least `min_score`, plus scan
/// statistics.
///
/// Hit ordering is deterministic and thread-count independent:
/// descending score, ties broken by ascending subject index.
/// Quarantined subjects (see [`engine_scores`]) never appear among the
/// hits.
///
/// # Panics
///
/// Panics if `threads` or `keep` is 0.
pub fn engine_search<E: AlignmentEngine>(
    engine: &E,
    subjects: &[&[AminoAcid]],
    threads: usize,
    keep: usize,
    min_score: i32,
) -> (SearchResults, RunStats) {
    let scan = engine_search_bounded(engine, subjects, threads, keep, min_score, None);
    (scan.results, scan.stats)
}

/// The outcome of a (possibly deadline-bounded) ranked scan.
#[derive(Debug, Clone)]
pub struct BoundedScan {
    /// Ranked hits over the subjects actually scored.
    pub results: SearchResults,
    /// Scan statistics; `stats.subjects` counts subjects *attempted*
    /// (scored or quarantined), not the database size.
    pub stats: RunStats,
    /// Whether every subject in the database was attempted.
    pub completed: bool,
    /// Which deadline kind cut the scan short — `Some` exactly when
    /// `completed` is `false`.
    pub truncated_by: Option<DeadlineKind>,
}

/// [`engine_search`] with graceful degradation under a [`Deadline`].
///
/// * `Deadline::Cells(budget)` — deterministic: the admitted subject
///   prefix is resolved serially up front (cumulative
///   [`AlignmentEngine::cost`] ≤ budget), so hits, coverage and the
///   `completed` flag are identical at any thread count.
/// * `Deadline::Wall(d)` — best-effort: workers stop claiming work once
///   the cutoff passes, but a subject claimed just before it still runs
///   to completion, so the scan may overshoot `d` by one subject's
///   scoring time. Coverage then depends on scheduling — two identical
///   requests may cover different prefixes — so only use this when
///   latency matters more than reproducibility.
///
/// Ranked hits cover exactly the attempted, non-quarantined subjects,
/// and [`BoundedScan::truncated_by`] reports which deadline kind (if
/// any) cut the scan short.
///
/// # Panics
///
/// Panics if `threads` or `keep` is 0.
pub fn engine_search_bounded<E: AlignmentEngine>(
    engine: &E,
    subjects: &[&[AminoAcid]],
    threads: usize,
    keep: usize,
    min_score: i32,
    deadline: Option<Deadline>,
) -> BoundedScan {
    let (admitted, wall) = match deadline {
        None => (subjects.len(), None),
        Some(Deadline::Cells(budget)) => {
            let mut spent = 0u64;
            let mut k = 0;
            for s in subjects {
                spent = spent.saturating_add(engine.cost(s));
                if spent > budget {
                    break;
                }
                k += 1;
            }
            (k, None)
        }
        Some(Deadline::Wall(d)) => (subjects.len(), Some(Instant::now() + d)),
    };

    let chunk = auto_chunk(admitted, threads.max(1));
    let out = chunked_scores(engine, &subjects[..admitted], threads, chunk, wall);

    let mut results = TopK::new(keep);
    let mut scored = 0usize;
    for (seq_index, slot) in out.scores.iter().enumerate() {
        if let Some(score) = *slot {
            scored += 1;
            if score >= min_score {
                results.push(Hit { seq_index, score });
            }
        }
    }
    let attempted = scored + out.quarantined.len();
    let stats = RunStats {
        subjects: attempted,
        rescored: out.workspaces.iter().map(|ws| engine.rescored(ws)).sum(),
        threads,
        quarantined: quarantine_report(out.quarantined),
        pruned: 0,
    };
    let completed = attempted == subjects.len();
    let truncated_by = match deadline {
        _ if completed => None,
        Some(Deadline::Cells(_)) => Some(DeadlineKind::Cells),
        Some(Deadline::Wall(_)) => Some(DeadlineKind::Wall),
        // Unreachable: without a deadline every subject is attempted.
        None => None,
    };
    BoundedScan {
        results: results.finish(),
        stats,
        completed,
        truncated_by,
    }
}

/// Reconstructs full alignments for a batch of ranked hits in
/// parallel, one [`traceback::align_hit`] call per hit.
///
/// Hits are few (top-k) but individually heavy (three extra passes per
/// hit), so workers claim one hit at a time. One query profile is built
/// and shared; each worker keeps a reusable striped workspace. A hit
/// whose traceback panics yields `None` in its slot (mirroring the
/// scan-side quarantine policy) and the worker's workspace is
/// discarded. The output is indexed like `hits` — deterministic and
/// thread-count independent.
///
/// # Panics
///
/// Panics if `threads` is 0 or a hit's `seq_index` is out of bounds
/// for `subjects`.
pub fn align_hits<const L: usize>(
    query: &[AminoAcid],
    matrix: &SubstitutionMatrix,
    gaps: GapPenalties,
    subjects: &[&[AminoAcid]],
    hits: &[Hit],
    threads: usize,
) -> Vec<Option<Alignment>> {
    assert!(threads > 0, "align_hits requires at least one thread");
    if hits.is_empty() {
        return Vec::new();
    }
    let profile = QueryProfile::build(query, matrix, L);
    let n = hits.len();
    let workers = threads.min(n);
    let cursor = AtomicUsize::new(0);

    let partials = run_workers(workers, || {
        let mut ws = Workspace::<L>::new();
        let mut local = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let hit = hits[i];
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                traceback::align_hit::<L>(
                    query,
                    matrix,
                    gaps,
                    &profile,
                    subjects[hit.seq_index],
                    hit.score,
                    &mut ws,
                )
            }));
            match outcome {
                Ok(alignment) => local.push((i, alignment)),
                Err(_) => {
                    ws = Workspace::new();
                    local.push((i, None));
                }
            }
        }
        local
    });

    let mut out = vec![None; n];
    for partial in partials {
        for (i, alignment) in partial {
            out[i] = alignment;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{LaneEngine, LaneScratch, StripedEngine, SwEngine};
    use crate::sw;
    use sapa_bioseq::db::DatabaseBuilder;
    use sapa_bioseq::matrix::GapPenalties;
    use sapa_bioseq::profile::{ProfileCache, QueryProfile};
    use sapa_bioseq::queries::QuerySet;
    use sapa_bioseq::{Sequence, SubstitutionMatrix};

    #[test]
    fn scores_are_deterministic_across_thread_counts() {
        let queries = QuerySet::paper();
        let query = queries.by_accession("P02232").unwrap().clone();
        let db = DatabaseBuilder::new()
            .seed(3)
            .sequences(30)
            .median_length(80.0)
            .homolog_template(query.clone())
            .build();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = db.iter().map(|s| s.residues()).collect();
        let engine = SwEngine::new(query.residues(), &m, g);

        let run = |threads: usize| engine_scores(&engine, &slices, threads).0;
        let one = run(1);
        let four = run(4);
        let nine = run(9);
        assert_eq!(one, four);
        assert_eq!(one, nine);
        // And they equal the serial computation.
        for (i, s) in db.iter().enumerate() {
            assert_eq!(one[i], sw::score(query.residues(), s.residues(), &m, g));
        }
    }

    #[test]
    fn align_hits_replays_and_is_thread_count_invariant() {
        let queries = QuerySet::paper();
        let query = queries.by_accession("P02232").unwrap().clone();
        let db = DatabaseBuilder::new()
            .seed(11)
            .sequences(24)
            .median_length(90.0)
            .homolog_template(query.clone())
            .build();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = db.iter().map(|s| s.residues()).collect();

        // Rank hits with the scalar oracle, then trace them back.
        let hits: Vec<Hit> = slices
            .iter()
            .enumerate()
            .map(|(seq_index, s)| Hit {
                seq_index,
                score: sw::score(query.residues(), s, &m, g),
            })
            .filter(|h| h.score > 0)
            .collect();
        assert!(!hits.is_empty());

        let one = align_hits::<8>(query.residues(), &m, g, &slices, &hits, 1);
        let four = align_hits::<8>(query.residues(), &m, g, &slices, &hits, 4);
        assert_eq!(one, four);
        assert_eq!(one.len(), hits.len());
        for (hit, al) in hits.iter().zip(&one) {
            let al = al.as_ref().expect("positive-score hit must align");
            assert_eq!(
                al.replay_score(query.residues(), slices[hit.seq_index], &m, g),
                Some(hit.score),
                "subject {}",
                hit.seq_index
            );
        }
    }

    #[test]
    fn chunked_claiming_is_thread_count_invariant() {
        // The satellite regression: chunked claiming must return
        // identical results for threads ∈ {1, 2, 8}, at several chunk
        // sizes including ones that don't divide the subject count.
        let n = 103usize;
        let expect: Vec<i32> = (0..n).map(|i| (1 + i * i % 97) as i32).collect();
        let lens: Vec<usize> = expect.iter().map(|&s| s as usize).collect();
        let owned = subjects_of_lengths(&lens);
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = owned.iter().map(|s| &s[..]).collect();
        let engine = FlakyEngine { stride: usize::MAX };
        for chunk in [1usize, 3, 16, 64, 200] {
            for threads in [1usize, 2, 8] {
                let out = chunked_scores(&engine, &slices, threads, chunk, None);
                let got: Vec<i32> = out.scores.into_iter().map(Option::unwrap).collect();
                assert_eq!(got, expect, "chunk {chunk} threads {threads}");
            }
        }
        // The front end picks its own chunk size per thread count.
        for threads in [1usize, 2, 8] {
            let (got, _) = engine_scores(&engine, &slices, threads);
            assert_eq!(got, expect, "engine_scores threads {threads}");
        }
    }

    #[test]
    fn ranked_search_matches_serial_filtering() {
        let owned = subjects_of_lengths(&[5, 40, 12, 40, 3, 99]);
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = owned.iter().map(|s| &s[..]).collect();
        let engine = FlakyEngine { stride: usize::MAX };
        let (r, _) = engine_search(&engine, &slices, 3, 4, 10);
        let hits = r.hits();
        assert_eq!(hits[0].score, 99);
        assert_eq!(hits[1].score, 40);
        assert_eq!(hits[1].seq_index, 1); // tie broken by index
        assert_eq!(hits[2].seq_index, 3);
        assert_eq!(hits[3].score, 12);
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn empty_database_is_fine() {
        assert!(engine_scores(&FlakyEngine { stride: 1 }, &[], 4)
            .0
            .is_empty());
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let engine = StripedEngine::<16, 8>::from_query(&[], &m, g);
        let (scores, stats) = engine_scores(&engine, &[], 4);
        assert!(scores.is_empty());
        assert_eq!(stats.subjects, 0);
        assert_eq!(stats.rescored, 0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let owned = subjects_of_lengths(&[1, 2, 3]);
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = owned.iter().map(|s| &s[..]).collect();
        let _ = engine_scores(&FlakyEngine { stride: usize::MAX }, &slices, 0);
    }

    #[test]
    #[should_panic(expected = "positive chunk")]
    fn zero_chunk_rejected() {
        // Only the shared loop takes a chunk size; the front ends pick
        // a positive one.
        let owned = subjects_of_lengths(&[1, 2, 3]);
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = owned.iter().map(|s| &s[..]).collect();
        let _ = chunked_scores(&FlakyEngine { stride: usize::MAX }, &slices, 1, 0, None);
    }

    #[test]
    fn more_threads_than_subjects_is_fine() {
        let owned = subjects_of_lengths(&[1, 2]);
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = owned.iter().map(|s| &s[..]).collect();
        let (v, _) = engine_scores(&FlakyEngine { stride: usize::MAX }, &slices, 16);
        assert_eq!(v, vec![1, 2]);
    }

    #[test]
    fn single_worker_runs_on_the_calling_thread() {
        // Records the thread every subject is scored on.
        struct ThreadProbe(std::sync::Mutex<Vec<std::thread::ThreadId>>);

        impl AlignmentEngine for ThreadProbe {
            type Workspace = ();

            fn name(&self) -> &'static str {
                "probe"
            }

            fn workspace(&self) {}

            fn score_one(&self, _ws: &mut (), subject: &[sapa_bioseq::AminoAcid]) -> i32 {
                self.0.lock().unwrap().push(std::thread::current().id());
                subject.len() as i32
            }
        }

        let owned = subjects_of_lengths(&[3, 1, 4, 1, 5]);
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = owned.iter().map(|s| &s[..]).collect();
        let me = std::thread::current().id();
        // One thread, and more threads than claimable chunks of one
        // subject: either way a single worker runs.
        for (subjects, threads) in [(&slices[..], 1), (&slices[..1], 4)] {
            let probe = ThreadProbe(Default::default());
            let (scores, _) = engine_scores(&probe, subjects, threads);
            assert_eq!(scores.len(), subjects.len());
            let seen = probe.0.into_inner().unwrap();
            assert_eq!(seen.len(), subjects.len());
            assert!(seen.iter().all(|&id| id == me), "threads={threads}");
        }
    }

    #[test]
    fn striped_engine_scores_match_scalar_oracle() {
        let queries = QuerySet::paper();
        let query = queries.by_accession("P02232").unwrap().clone();
        let db = DatabaseBuilder::new()
            .seed(11)
            .sequences(40)
            .median_length(90.0)
            .homolog_template(query.clone())
            .homolog_fraction(0.2) // high-identity subjects overflow u8
            .build();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = db.iter().map(|s| s.residues()).collect();

        let engine = StripedEngine::<16, 8>::from_query(query.residues(), &m, g);
        let (scores, stats) = engine_scores(&engine, &slices, 4);
        assert_eq!(stats.subjects, db.len());
        for (i, s) in db.iter().enumerate() {
            assert_eq!(
                scores[i],
                sw::score(query.residues(), s.residues(), &m, g),
                "subject {i}"
            );
        }
    }

    #[test]
    fn striped_engine_is_thread_count_invariant() {
        let queries = QuerySet::paper();
        let query = queries.by_accession("P02232").unwrap().clone();
        let db = DatabaseBuilder::new()
            .seed(5)
            .sequences(25)
            .median_length(70.0)
            .homolog_template(query.clone())
            .build();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = db.iter().map(|s| s.residues()).collect();
        let engine = StripedEngine::<16, 8>::from_query(query.residues(), &m, g);

        let (one, s1) = engine_scores(&engine, &slices, 1);
        let (two, s2) = engine_scores(&engine, &slices, 2);
        let (eight, s8) = engine_scores(&engine, &slices, 8);
        assert_eq!(one, two);
        assert_eq!(one, eight);
        // The rescore count is a property of the data, not the threads.
        assert_eq!(s1.rescored, s2.rescored);
        assert_eq!(s1.rescored, s8.rescored);
    }

    #[test]
    fn striped_search_finds_planted_homolog_and_counts_rescores() {
        let queries = QuerySet::paper();
        let query = queries.by_accession("P02232").unwrap().clone();
        let db = DatabaseBuilder::new()
            .seed(9)
            .sequences(50)
            .median_length(100.0)
            .homolog_template(query.clone())
            .homolog_fraction(0.1)
            .build();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = db.iter().map(|s| s.residues()).collect();

        // A self-match subject guarantees at least one byte overflow.
        let mut with_self = slices.clone();
        with_self.push(query.residues());

        let engine = StripedEngine::<16, 8>::from_query(query.residues(), &m, g);
        let (results, stats) = engine_search(&engine, &with_self, 4, 10, 50);
        assert!(
            stats.rescored >= 1,
            "self-match must overflow the byte pass"
        );
        let best = results.hits()[0];
        assert_eq!(
            best.seq_index,
            with_self.len() - 1,
            "self-match ranks first"
        );
        assert_eq!(
            best.score,
            sw::score(query.residues(), query.residues(), &m, g)
        );
    }

    #[test]
    fn both_register_widths_agree() {
        let queries = QuerySet::paper();
        let query = queries.by_accession("P02232").unwrap().clone();
        let db = DatabaseBuilder::new()
            .seed(13)
            .sequences(20)
            .homolog_template(query.clone())
            .build();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = db.iter().map(|s| s.residues()).collect();

        let e128 = StripedEngine::<16, 8>::from_query(query.residues(), &m, g);
        let e256 = StripedEngine::<32, 16>::from_query(query.residues(), &m, g);
        let (a, _) = engine_scores(&e128, &slices, 3);
        let (b, _) = engine_scores(&e256, &slices, 3);
        assert_eq!(a, b);
    }

    /// Panics on any subject whose length is a multiple of `stride`;
    /// otherwise scores the subject's length. The workspace counts
    /// successful scores so counter-harvesting survives quarantine.
    struct FlakyEngine {
        stride: usize,
    }

    impl AlignmentEngine for FlakyEngine {
        type Workspace = usize;

        fn name(&self) -> &'static str {
            "flaky"
        }

        fn workspace(&self) -> usize {
            0
        }

        fn score_one(&self, ws: &mut usize, subject: &[sapa_bioseq::AminoAcid]) -> i32 {
            assert!(
                !subject.len().is_multiple_of(self.stride),
                "injected fault: subject len {}",
                subject.len()
            );
            *ws += 1;
            subject.len() as i32
        }

        fn rescored(&self, ws: &usize) -> usize {
            *ws
        }
    }

    /// `FlakyEngine` that also scores in batches, the way a lane engine
    /// does: it takes up to `width` subjects from its claims, then
    /// reports them last to first, panicking inside the batch at a
    /// faulting subject with the rest still in flight. The workspace
    /// counts reported subjects and the most it held at once.
    struct BatchedFlaky {
        stride: usize,
        width: usize,
    }

    impl AlignmentEngine for BatchedFlaky {
        type Workspace = (usize, usize);

        fn name(&self) -> &'static str {
            "batched-flaky"
        }

        fn workspace(&self) -> (usize, usize) {
            (0, 0)
        }

        fn score_one(&self, ws: &mut (usize, usize), subject: &[sapa_bioseq::AminoAcid]) -> i32 {
            FlakyEngine {
                stride: self.stride,
            }
            .score_one(&mut ws.0, subject)
        }

        fn rescored(&self, ws: &(usize, usize)) -> usize {
            ws.0
        }

        fn batches(&self, _subject_count: usize) -> bool {
            true
        }

        fn score_batch<'s>(&self, ws: &mut (usize, usize), claims: &mut Claims<'_, 's>) {
            loop {
                let held: Vec<_> = claims.by_ref().take(self.width).collect();
                if held.is_empty() {
                    return;
                }
                ws.1 = ws.1.max(held.len());
                for &(i, subject) in held.iter().rev() {
                    assert!(
                        !subject.len().is_multiple_of(self.stride),
                        "injected fault inside a batch"
                    );
                    ws.0 += 1;
                    claims.done(i, subject.len() as i32);
                }
            }
        }
    }

    #[test]
    fn batched_scans_quarantine_and_count_like_per_subject_scans() {
        let lens: Vec<usize> = (1..=150).collect();
        let owned = subjects_of_lengths(&lens);
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = owned.iter().map(|s| &s[..]).collect();
        let (want, mut want_stats) = engine_scores(&FlakyEngine { stride: 7 }, &slices, 1);
        want_stats.threads = 0;
        assert_eq!(want_stats.quarantined.len(), 150 / 7);
        for width in [1, 5, 40] {
            for threads in [1, 2, 8] {
                let engine = BatchedFlaky { stride: 7, width };
                let (got, mut stats) = engine_scores(&engine, &slices, threads);
                stats.threads = 0;
                assert_eq!(got, want, "width {width} threads {threads}");
                // Same quarantine list and causes, and every reported
                // subject counted once: the retired workspaces hold the
                // subjects their batch reported, the fresh ones the rest.
                assert_eq!(stats, want_stats, "width {width} threads {threads}");
            }
        }
    }

    #[test]
    fn batches_take_subjects_across_claim_boundaries() {
        // One worker claims 16 subjects at a time; a batch of 40 holds
        // subjects from three claims at once.
        let owned = subjects_of_lengths(&(1..=100).collect::<Vec<_>>());
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = owned.iter().map(|s| &s[..]).collect();
        let engine = BatchedFlaky {
            stride: usize::MAX,
            width: 40,
        };
        let out = chunked_scores(&engine, &slices, 1, 16, None);
        assert_eq!(out.workspaces.len(), 1);
        assert_eq!(out.workspaces[0], (100, 40));
        let scores: Vec<i32> = out.scores.into_iter().map(Option::unwrap).collect();
        assert_eq!(scores, (1..=100).collect::<Vec<i32>>());
    }

    /// `LaneEngine` with its rule, noting in the workspace whether a
    /// worker ran its share through the lanes.
    struct WatchedLanes(LaneEngine);

    impl AlignmentEngine for WatchedLanes {
        type Workspace = (LaneScratch, bool);

        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn workspace(&self) -> Self::Workspace {
            (self.0.workspace(), false)
        }

        fn score_one(&self, ws: &mut Self::Workspace, subject: &[sapa_bioseq::AminoAcid]) -> i32 {
            self.0.score_one(&mut ws.0, subject)
        }

        fn batches(&self, subject_count: usize) -> bool {
            self.0.batches(subject_count)
        }

        fn score_batch<'s>(&self, ws: &mut Self::Workspace, claims: &mut Claims<'_, 's>) {
            ws.1 = true;
            self.0.score_batch(&mut ws.0, claims)
        }
    }

    #[test]
    fn lanes_are_chosen_from_one_workers_share() {
        // Each worker's lanes fill and drain on their own: 64 subjects
        // over two workers are two 32-subject shares, too few to fill
        // a register, so they run striped; 128 over two run in lanes.
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let queries = QuerySet::paper();
        let query = queries.by_accession("P02232").unwrap().residues();
        let db = DatabaseBuilder::new().seed(5).sequences(128).build();
        let engine = WatchedLanes(LaneEngine::from_query(query, &m, g));
        let striped = StripedEngine::<16, 8>::from_query(query, &m, g);
        for (n, threads, lanes) in [
            (64, 1, true),
            (64, 2, false),
            (64, 8, false),
            (128, 2, true),
            (128, 8, false),
        ] {
            let slices: Vec<&[sapa_bioseq::AminoAcid]> =
                db.iter().take(n).map(|s| s.residues()).collect();
            let chunk = auto_chunk(n, threads);
            let out = chunked_scores(&engine, &slices, threads, chunk, None);
            let batched = out.workspaces.iter().any(|ws| ws.1);
            assert_eq!(batched, lanes, "{n} subjects, {threads} threads");
            let want = engine_scores(&striped, &slices, 1).0;
            let got: Vec<i32> = out.scores.into_iter().map(Option::unwrap).collect();
            assert_eq!(got, want, "{n} subjects, {threads} threads");
        }
    }

    fn subjects_of_lengths(lens: &[usize]) -> Vec<Vec<sapa_bioseq::AminoAcid>> {
        let aa = sapa_bioseq::AminoAcid::ALL[0];
        lens.iter().map(|&n| vec![aa; n]).collect()
    }

    #[test]
    fn panicking_subjects_are_quarantined_not_fatal() {
        let owned = subjects_of_lengths(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = owned.iter().map(|s| &s[..]).collect();
        let engine = FlakyEngine { stride: 4 };

        let (scores, stats) = engine_scores(&engine, &slices, 2);
        assert_eq!(stats.subjects, slices.len());
        // Lengths 4, 8, 12 (indices 3, 7, 11) fault.
        let faulted: Vec<usize> = stats.quarantined.iter().map(|q| q.index).collect();
        assert_eq!(faulted, vec![3, 7, 11]);
        for q in &stats.quarantined {
            assert!(q.cause.contains("injected fault"), "cause: {}", q.cause);
        }
        for (i, &s) in scores.iter().enumerate() {
            if faulted.contains(&i) {
                assert_eq!(s, QUARANTINED_SCORE);
            } else {
                assert_eq!(s, slices[i].len() as i32);
            }
        }
        // Successful-score counters survive workspace replacement.
        assert_eq!(stats.rescored, slices.len() - faulted.len());
    }

    #[test]
    fn quarantine_reports_are_thread_count_invariant() {
        let lens: Vec<usize> = (1..=60).collect();
        let owned = subjects_of_lengths(&lens);
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = owned.iter().map(|s| &s[..]).collect();
        let engine = FlakyEngine { stride: 7 };

        let (scores1, mut stats1) = engine_scores(&engine, &slices, 1);
        for threads in [2, 4] {
            let (scores, mut stats) = engine_scores(&engine, &slices, threads);
            assert_eq!(scores, scores1, "threads={threads}");
            stats.threads = 0;
            stats1.threads = 0;
            assert_eq!(stats, stats1, "threads={threads}");
        }
    }

    #[test]
    fn quarantined_subjects_never_rank() {
        let owned = subjects_of_lengths(&[5, 10, 15]);
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = owned.iter().map(|s| &s[..]).collect();
        let engine = FlakyEngine { stride: 10 };
        // min_score of i32::MIN would admit the sentinel if the filter
        // relied on score comparison alone.
        let (results, stats) = engine_search(&engine, &slices, 2, 3, i32::MIN);
        assert_eq!(stats.quarantined.len(), 1);
        assert_eq!(stats.quarantined[0].index, 1);
        let ranked: Vec<usize> = results.hits().iter().map(|h| h.seq_index).collect();
        assert_eq!(ranked, vec![2, 0]);
    }

    #[test]
    fn cell_budget_prefix_is_serial_and_exact() {
        let owned = subjects_of_lengths(&[10, 20, 30, 40]);
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = owned.iter().map(|s| &s[..]).collect();
        let engine = FlakyEngine { stride: usize::MAX };
        // Default engine cost = subject length: 10+20+30 = 60 fits, 100 doesn't.
        let scan = engine_search_bounded(&engine, &slices, 2, 10, 0, Some(Deadline::Cells(60)));
        assert!(!scan.completed);
        assert_eq!(scan.stats.subjects, 3);
        assert_eq!(scan.results.hits().len(), 3);
        // Exactly at the total admits everything.
        let scan = engine_search_bounded(&engine, &slices, 2, 10, 0, Some(Deadline::Cells(100)));
        assert!(scan.completed);
        assert_eq!(scan.stats.subjects, 4);
    }

    #[test]
    fn cached_profile_is_shared_not_rebuilt() {
        // `with_profile` must accept an externally cached Arc profile.
        let queries = QuerySet::paper();
        let query = queries.by_accession("P02232").unwrap().clone();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let profile = QueryProfile::build_shared(query.residues(), &m, 8);
        let db = DatabaseBuilder::new()
            .seed(17)
            .sequences(12)
            .homolog_template(query.clone())
            .build();
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = db.iter().map(|s| s.residues()).collect();

        let cached = StripedEngine::<16, 8>::with_profile(profile.clone(), g);
        let fresh = StripedEngine::<16, 8>::from_query(query.residues(), &m, g);
        assert_eq!(
            engine_scores(&cached, &slices, 2).0,
            engine_scores(&fresh, &slices, 2).0
        );
        // The engine holds the same allocation the cache handed out.
        assert_eq!(std::sync::Arc::strong_count(&profile), 2);
    }

    #[test]
    fn cached_profiles_of_same_named_matrices_score_apart() {
        // Both matrices are named "uniform"; keyed on the name, the
        // cache would hand this search the (5, -4) profile, scoring 50.
        let q = Sequence::from_str("q", "MKWVTFISLLFLFSSAYS").unwrap();
        let s = Sequence::from_str("s", "MKWVTFISLL").unwrap();
        let g = GapPenalties::paper();
        let mut cache = ProfileCache::new();
        let _ = cache.get_or_build(q.residues(), &SubstitutionMatrix::uniform(5, -4), 8);
        let mild = SubstitutionMatrix::uniform(2, -1);
        let engine =
            StripedEngine::<16, 8>::with_profile(cache.get_or_build(q.residues(), &mild, 8), g);
        let (scores, _) = engine_scores(&engine, &[s.residues()], 1);
        assert_eq!(
            scores,
            vec![sw::score(q.residues(), s.residues(), &mild, g)]
        );
        assert_eq!(scores, vec![20]);
    }
}
