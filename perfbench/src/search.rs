//! `search_seeded`: the database-search path — one client on one
//! thread sending queries through `Engine::Striped.search_indexed`
//! with the default seed prefilter over an on-disk index.
//!
//! Set-up generates the 4000-sequence planted-homolog corpus (ten times
//! the paper-scale database), writes it with `IndexBuilder`, opens it
//! and warms up, so a change that speeds reads by slowing builds shows
//! in `setup_s`. Per query most time is the striped kernel; every shard
//! is read although the prefilter keeps about a tenth of the subjects.

use std::collections::HashSet;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sapa_core::align::engine::{Engine, Prefilter, SearchRequest, StripedEngine};
use sapa_core::align::parallel::{self, QUARANTINED_SCORE};
use sapa_core::align::{Hit, TopK};
use sapa_core::bioseq::db::DatabaseBuilder;
use sapa_core::bioseq::index::{IndexBuilder, IndexReader, ShardBuf};
use sapa_core::bioseq::matrix::GapPenalties;
use sapa_core::bioseq::queries::QuerySet;
use sapa_core::bioseq::{AminoAcid, Sequence, SubstitutionMatrix};

use crate::stats::hits_digest;
use crate::trace::{self, Tracer};
use crate::{Args, Measured, Sample, Traced};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Seed of the fixed query order.
const ORDER_SEED: u64 = 0x5EED_0002;
/// Corpus size: `BENCH_db.json`'s full-mode corpus.
const CORPUS_SEQS: usize = 4000;
/// Generated pool queries (besides the 11 Table II queries): lengths
/// spread evenly over the Table II range, a tenth of them homologs of
/// the GST query.
const POOL_RANDOM: usize = 80;
const POOL_HOMOLOGS: usize = 9;
const POOL_MIN_LEN: usize = 143;
const POOL_MAX_LEN: usize = 567;
/// Ranked hits per query and the significance cutoff above which the
/// prefiltered ranking must equal the exhaustive one.
const TOP_K: usize = 50;
const MIN_SCORE: i32 = 100;
/// `tail_ms` percentile over the 100 pool queries' median latencies: p90
/// keeps ten beyond it.
const TAIL_PERMILLE: u32 = 900;
/// Queries searched once during set-up.
const WARMUP_QUERIES: usize = 3;

type Reader = IndexReader<BufReader<File>>;

/// The query pool: Table II queries, GST homologs, and random proteins
/// of evenly spaced lengths, all but the first from `seed`.
fn pool(seed: u64) -> Vec<(String, Sequence)> {
    let paper = QuerySet::paper();
    let gst = paper.default_query().clone();
    let mut out: Vec<(String, Sequence)> = paper
        .queries()
        .iter()
        .map(|q| (format!("paper/{}", q.id()), q.clone()))
        .collect();
    let homologs = DatabaseBuilder::new()
        .seed(seed ^ 0x9057)
        .sequences(POOL_HOMOLOGS)
        .homolog_template(gst)
        .homolog_fraction(1.0)
        .build();
    for (i, s) in homologs.sequences().iter().enumerate() {
        out.push((format!("gst-homolog/{i}"), s.clone()));
    }
    for j in 0..POOL_RANDOM {
        let len = POOL_MIN_LEN + (POOL_MAX_LEN - POOL_MIN_LEN) * j / (POOL_RANDOM - 1);
        let db = DatabaseBuilder::new()
            .seed(seed.wrapping_mul(1_000_003).wrapping_add(j as u64))
            .sequences(1)
            .length_bounds(len, len)
            .homolog_fraction(0.0)
            .build();
        out.push((format!("random/{len}aa#{j}"), db.sequences()[0].clone()));
    }
    out
}

fn index_path(seed: u64) -> PathBuf {
    crate::out_dir().join(format!("search-seed{seed}.sapadb"))
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
        top_k: TOP_K,
        min_score: MIN_SCORE,
        deadline: None,
        report_alignments: false,
        prefilter,
    }
}

/// What one prefiltered query returned.
struct Found {
    /// Ranked `(subject, score)` list.
    hits: Vec<(usize, i32)>,
    /// Subjects re-scored on the 16-bit path.
    rescored: usize,
    /// Subjects scored.
    subjects: usize,
}

/// One prefiltered query through `Engine::Striped.search_indexed`.
fn search(
    db: &mut Reader,
    query: &[AminoAcid],
    matrix: &SubstitutionMatrix,
) -> Result<Found, String> {
    let resp = Engine::Striped
        .search_indexed(&request(query, matrix, Prefilter::DEFAULT_SEED), db, 1)
        .map_err(|e| e.to_string())?;
    Ok(Found {
        hits: resp.hits.iter().map(|h| (h.seq_index, h.score)).collect(),
        rescored: resp.stats.rescored,
        subjects: resp.stats.subjects,
    })
}

/// Set-up: corpus, index file, open, warm-up.
fn setup(
    seed: u64,
    path: &Path,
    queries: &[(String, Sequence)],
    matrix: &SubstitutionMatrix,
    t: &mut Tracer,
) -> Result<Reader, String> {
    let gst = QuerySet::paper().default_query().clone();
    let corpus = t.span("bioseq.db.generate", |_| {
        DatabaseBuilder::new()
            .seed(seed)
            .sequences(CORPUS_SEQS)
            .homolog_template(gst)
            .build()
    });
    t.span("bioseq.index.build", |_| {
        IndexBuilder::new().write_file(corpus.sequences(), path)
    })
    .map_err(|e| format!("index build: {e}"))?;
    drop(corpus);
    let mut db = t
        .span("bioseq.index.open", |_| IndexReader::open(path))
        .map_err(|e| format!("index open: {e}"))?;
    for (_, q) in queries.iter().take(WARMUP_QUERIES) {
        search(&mut db, q.residues(), matrix)?;
    }
    Ok(db)
}

/// Subjects the seed prefilter keeps for `query`, ascending: the seed
/// candidates (the seed-index lookup is timed as `bioseq.seed`) plus
/// every subject too short to carry a seed word, or the whole database
/// for a query too short to have one.
fn seeded_subjects(db: &Reader, query: &[AminoAcid], t: &mut Tracer) -> Vec<usize> {
    let word_len = db.word_len();
    if query.len() < word_len {
        return (0..db.seq_count()).collect();
    }
    let unseedable = db
        .lengths()
        .iter()
        .take_while(|&&l| (l as usize) < word_len)
        .count();
    let scan = t.span("bioseq.seed", |_| db.seed_index().candidates(query, 1));
    (0..unseedable)
        .chain(scan.candidates.iter().map(|c| c.seq as usize))
        .collect()
}

/// Checks each query's ranked hits against a scan outside the indexed
/// pipeline: every subject the prefilter keeps, scored in memory with
/// no prefilter, ranked above `MIN_SCORE` and cut to `TOP_K`. This is
/// the `Prefilter::Off` ranking over the subjects that share a seed
/// word with the query, the set on which the seed prefilter is
/// documented to be exact. At the reference seed the committed digest
/// of that list stands in for the scan. Returns whether each query
/// passed.
fn check_hits(
    seed: u64,
    db: &mut Reader,
    matrix: &SubstitutionMatrix,
    queries: &[(String, Sequence)],
    lists: &[Option<Vec<(usize, i32)>>],
    errors: &mut Vec<String>,
) -> Vec<bool> {
    let committed = crate::committed_digests("search_seeded");
    let reference = seed == crate::REFERENCE_SEED;
    let corpus = if reference {
        Vec::new()
    } else {
        match db.read_all() {
            Ok(c) => c,
            Err(e) => {
                errors.push(format!("reading the corpus back: {e}"));
                return vec![false; queries.len()];
            }
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    queries
        .iter()
        .zip(lists)
        .map(|((name, q), list)| {
            let Some(list) = list else { return true };
            let got = hits_digest(list);
            let want = if reference {
                committed.iter().find(|(k, _)| k == name).map(|(_, d)| *d)
            } else {
                let keep = seeded_subjects(db, q.residues(), &mut Tracer::new());
                let slices: Vec<&[AminoAcid]> =
                    keep.iter().map(|&i| corpus[i].residues()).collect();
                let resp = Engine::Striped.search(
                    &request(q.residues(), matrix, Prefilter::Off),
                    &slices,
                    threads,
                );
                let hits: Vec<(usize, i32)> = resp
                    .hits
                    .iter()
                    .map(|h| (keep[h.seq_index], h.score))
                    .collect();
                Some(hits_digest(&hits))
            };
            let ok = want == Some(got);
            if !ok {
                errors.push(format!(
                    "{name}: prefiltered hits {got:016x} != reference {want:016x?}"
                ));
            }
            ok
        })
        .collect()
}

/// How many of the exhaustive (`Prefilter::Off`) top hits of `query`
/// share no seed word with it: significant hits the prefilter drops by
/// design.
fn unseeded_top_hits(
    db: &mut Reader,
    query: &[AminoAcid],
    matrix: &SubstitutionMatrix,
) -> Result<usize, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let all = Engine::Striped
        .search_indexed(&request(query, matrix, Prefilter::Off), db, threads)
        .map_err(|e| e.to_string())?;
    let keep: HashSet<usize> = seeded_subjects(db, query, &mut Tracer::new())
        .into_iter()
        .collect();
    Ok(all
        .hits
        .iter()
        .filter(|h| !keep.contains(&h.seq_index))
        .count())
}

/// The end-to-end run.
pub fn measure(args: &Args) -> Measured {
    let mut m = Measured::default();
    let matrix = SubstitutionMatrix::blosum62();
    let queries = pool(args.seed);
    let path = index_path(args.seed);
    let mut db = None;
    for _ in 0..SETUP_REPEATS {
        drop(db.take());
        let start = Instant::now();
        match setup(args.seed, &path, &queries, &matrix, &mut Tracer::new()) {
            Ok(d) => db = Some(d),
            Err(e) => {
                m.errors.push(e);
                return m;
            }
        }
        m.setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut db = db.expect("set-up ran");

    let order = crate::permutation(queries.len(), ORDER_SEED);
    let mut digests = Vec::new();
    let mut first: Vec<Option<Vec<(usize, i32)>>> = vec![None; queries.len()];
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let c = order[m.samples.len() % order.len()];
        let t = Instant::now();
        let out = search(&mut db, queries[c].1.residues(), &matrix);
        let secs = t.elapsed().as_secs_f64();
        m.samples.push(Sample {
            at: t.duration_since(start).as_secs_f64(),
            secs,
            class: c,
            ok: out.is_ok(),
        });
        match out {
            Ok(found) => {
                digests.push(hits_digest(&found.hits));
                first[c].get_or_insert(found.hits);
            }
            Err(e) => {
                digests.push(0);
                m.errors.push(format!("{}: {e}", queries[c].0));
            }
        }
    }
    m.wall_s = start.elapsed().as_secs_f64();
    m.tail_permille = TAIL_PERMILLE;
    m.tail_windows = 1;
    m.basis = crate::Basis::ClassMedian;

    m.peak_rss_mb = crate::host::peak_rss_mb();
    let good = check_hits(args.seed, &mut db, &matrix, &queries, &first, &mut m.errors);
    for (i, s) in m.samples.iter().enumerate() {
        let repeat_ok = first[s.class]
            .as_ref()
            .is_some_and(|f| hits_digest(f) == digests[i]);
        if s.ok && !(repeat_ok && good[s.class]) {
            m.mismatched.push(i);
        }
    }
    m.digests = queries
        .iter()
        .zip(&first)
        .zip(&good)
        .filter_map(|(((name, _), list), &ok)| {
            Some((name.clone(), hits_digest(list.as_ref()?))).filter(|_| ok)
        })
        .collect();
    m.classes = queries.iter().map(|(n, _)| n.clone()).collect();
    m.meta
        .push(("corpus_seqs".into(), db.seq_count().to_string()));
    m.meta
        .push(("corpus_residues".into(), db.total_residues().to_string()));
    m.meta
        .push(("shards".into(), db.shards().len().to_string()));
    drop(db);
    let _ = std::fs::remove_file(&path);
    m
}

/// Per-query layer counts gathered by the traced replay.
#[derive(Default)]
struct Counts {
    candidates: usize,
    decoded_residues: u64,
    scored_residues: u64,
    cells: u64,
}

/// Replays one prefiltered search stage by stage, with a span around
/// each layer call: profile build, seed scan, shard reads, kernel, and
/// ranking. Returns the ranked `(subject, score)` list.
fn replay(
    t: &mut Tracer,
    db: &mut Reader,
    query: &[AminoAcid],
    matrix: &SubstitutionMatrix,
    buf: &mut ShardBuf,
    counts: &mut Counts,
) -> Result<Vec<(usize, i32)>, String> {
    t.span("op", |t| {
        let gaps = GapPenalties::paper();
        let engine = t.span("align.profile", |_| {
            StripedEngine::<16, 8>::from_query(query, matrix, gaps)
        });
        let candidates = seeded_subjects(db, query, t);
        counts.candidates += candidates.len();
        let mut top = TopK::new(TOP_K);
        let mut at = 0;
        for shard in 0..db.shards().len() {
            let (seq_start, end, residues) = {
                let s = &db.shards()[shard];
                (s.seq_start, s.seq_start + s.seq_count, s.residues)
            };
            let from = at;
            while at < candidates.len() && candidates[at] < end {
                at += 1;
            }
            if at == from {
                continue;
            }
            t.span("bioseq.index.read", |_| db.read_shard(shard, buf))
                .map_err(|e| e.to_string())?;
            counts.decoded_residues += residues;
            let slices: Vec<&[AminoAcid]> = candidates[from..at]
                .iter()
                .map(|&c| buf.sequence(c - seq_start))
                .collect();
            for s in &slices {
                counts.scored_residues += s.len() as u64;
                counts.cells += (s.len() * query.len()) as u64;
            }
            let (scores, _) = t.span("align.kernel", |_| {
                parallel::engine_scores(&engine, &slices, 1)
            });
            t.span("align.topk", |_| {
                for (k, &score) in scores.iter().enumerate() {
                    if score != QUARANTINED_SCORE && score >= MIN_SCORE {
                        top.push(Hit {
                            seq_index: candidates[from + k],
                            score,
                        });
                    }
                }
            });
        }
        let ranked = t.span("align.topk", |_| top.finish());
        Ok(ranked
            .hits()
            .iter()
            .map(|h| (h.seq_index, h.score))
            .collect())
    })
}

/// The traced run: one traced set-up, then every pool query once
/// untraced and once replayed with spans.
pub fn traced(args: &Args) -> Traced {
    let mut out = Traced::default();
    let matrix = SubstitutionMatrix::blosum62();
    let queries = pool(args.seed);
    let path = index_path(args.seed);
    let mut tracer = Tracer::new();
    let mut db = match setup(args.seed, &path, &queries, &matrix, &mut tracer) {
        Ok(d) => d,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let spans = tracer.spans();
    out.layers.push((
        "bioseq.index.build_s",
        trace::total(spans, "bioseq.index.build"),
    ));
    out.layers.push((
        "bioseq.index.open_s",
        trace::total(spans, "bioseq.index.open"),
    ));

    let order = crate::permutation(queries.len(), ORDER_SEED);
    let mut buf = ShardBuf::new();
    let mut counts = Counts::default();
    let (mut rescored, mut subjects) = (0usize, 0usize);
    let mut untraced = Vec::new();
    let mut lists: Vec<Option<Vec<(usize, i32)>>> = vec![None; queries.len()];
    for (k, &c) in order.iter().enumerate() {
        let q = queries[c].1.residues();
        let start = Instant::now();
        let plain = search(&mut db, q, &matrix);
        untraced.push(start.elapsed().as_secs_f64());
        tracer.set_op(k as u64 + 1);
        let replayed = replay(&mut tracer, &mut db, q, &matrix, &mut buf, &mut counts);
        out.attempted += 1;
        match (plain, replayed) {
            (Ok(found), Ok(b)) if found.hits == b => {
                rescored += found.rescored;
                subjects += found.subjects;
                lists[c] = Some(b);
            }
            (Ok(_), Ok(_)) => {
                out.failed += 1;
                out.errors.push(format!("{}: replay differs", queries[c].0));
            }
            (Err(e), _) | (_, Err(e)) => {
                out.failed += 1;
                out.errors.push(format!("{}: {e}", queries[c].0));
            }
        }
    }
    let good = check_hits(
        args.seed,
        &mut db,
        &matrix,
        &queries,
        &lists,
        &mut out.errors,
    );
    let mut missed = 0;
    for (_, q) in &queries {
        match unseeded_top_hits(&mut db, q.residues(), &matrix) {
            Ok(n) => missed += n,
            Err(e) => out.errors.push(e),
        }
    }
    out.meta
        .push(("unseeded_top_hits".into(), missed.to_string()));
    out.failed += good.iter().filter(|&&g| !g).count() as u64;

    let spans = tracer.spans();
    let ops = trace::op_layers(spans, "op");
    let n = ops.len().max(1) as f64;
    let per_op_ms = |name: &str| trace::total(spans, name) / n * 1e3;
    out.layers
        .push(("bioseq.seed.scan_ms", per_op_ms("bioseq.seed")));
    out.layers.push((
        "bioseq.seed.survival",
        counts.candidates as f64 / (n * db.seq_count() as f64),
    ));
    out.layers
        .push(("bioseq.index.read_ms", per_op_ms("bioseq.index.read")));
    out.layers.push((
        "bioseq.index.useful_share",
        counts.scored_residues as f64 / counts.decoded_residues as f64,
    ));
    out.layers
        .push(("align.profile_ms", per_op_ms("align.profile")));
    out.layers
        .push(("align.kernel_ms", per_op_ms("align.kernel")));
    out.layers.push((
        "align.gcups",
        counts.cells as f64 / trace::total(spans, "align.kernel") / 1e9,
    ));
    out.layers.push((
        "align.rescore_share",
        rescored as f64 / subjects.max(1) as f64,
    ));
    let walls: Vec<f64> = ops.values().map(|o| o.wall).collect();
    crate::coverage_and_overhead(&mut out, &ops, &walls, &untraced, args);
    out.meta
        .push(("topk_ms".into(), format!("{:.4}", per_op_ms("align.topk"))));
    if let Err(e) = tracer
        .write_tsv(&crate::out_dir().join(format!("{}-seed{}.spans.tsv", args.workload, args.seed)))
    {
        out.errors.push(format!("writing spans: {e}"));
    }
    drop(db);
    let _ = std::fs::remove_file(&path);
    out
}
