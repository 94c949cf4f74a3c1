//! A realistic protein database search — the workload the paper's
//! introduction motivates: find everything in a (synthetic SwissProt-
//! like) database related to one query, comparing the sensitivity/speed
//! trade-off of every backend behind the unified engine layer.
//!
//! ```text
//! cargo run --release --example protein_search              # all engines
//! cargo run --release --example protein_search -- --engine striped
//! cargo run --release --example protein_search -- --engine blast --threads 2
//! cargo run --release --example protein_search -- --engine striped --cigar
//! cargo run --release --example protein_search -- --db big.sapadb --prefilter
//! ```
//!
//! `--cigar` turns on the three-pass striped traceback: each reported
//! hit carries alignment coordinates and a CIGAR string, verified here
//! by replaying it to the reported score.
//!
//! `--db <path>` searches a prebuilt on-disk index (see the `dbbuild`
//! example) via the shard reader instead of the in-memory database;
//! `--prefilter` additionally turns on k-mer seed prefiltering so
//! subjects sharing no word with the query are skipped before any
//! dynamic programming. The indexed path is score-only, so `--cigar`
//! is rejected alongside `--db`.

use std::time::Instant;

use sapa_core::align::engine::{Engine, Prefilter, SearchRequest, SearchResponse};
use sapa_core::bioseq::db::DatabaseBuilder;
use sapa_core::bioseq::index::IndexReader;
use sapa_core::bioseq::matrix::GapPenalties;
use sapa_core::bioseq::queries::QuerySet;
use sapa_core::bioseq::{AminoAcid, SubstitutionMatrix};

struct Args {
    engine: Option<Engine>,
    threads: usize,
    cigar: bool,
    db: Option<String>,
    prefilter: bool,
}

fn parse_args() -> Args {
    let default_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut args = Args {
        engine: None,
        threads: default_threads,
        cigar: false,
        db: None,
        prefilter: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--engine" => {
                let name = it.next().unwrap_or_else(|| usage("--engine needs a name"));
                args.engine = Some(Engine::from_name(&name).unwrap_or_else(|| {
                    usage(&format!("unknown engine '{name}'"));
                }));
            }
            "--threads" => {
                let n = it
                    .next()
                    .unwrap_or_else(|| usage("--threads needs a number"));
                args.threads = n
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| usage(&format!("bad thread count '{n}'")));
            }
            "--cigar" => args.cigar = true,
            "--db" => args.db = Some(it.next().unwrap_or_else(|| usage("--db needs a path"))),
            "--prefilter" => args.prefilter = true,
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    if args.cigar && args.db.is_some() {
        usage("--cigar is unavailable with --db (indexed search is score-only)");
    }
    if args.prefilter && args.db.is_none() {
        usage("--prefilter requires --db (the in-memory path is always exhaustive)");
    }
    args
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}\n");
    eprintln!(
        "usage: protein_search [--engine <name>] [--threads <n>] [--cigar] \
         [--db <path> [--prefilter]]\n"
    );
    eprintln!("engines:");
    for e in Engine::ALL {
        eprintln!("  {:<8} {}", e.name(), e.description());
    }
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let matrix = SubstitutionMatrix::blosum62();
    let gaps = GapPenalties::paper();

    // The paper's reporting query: Glutathione S-transferase, 222 aa.
    let queries = QuerySet::paper();
    let query = queries.default_query();

    if let Some(path) = &args.db {
        run_indexed(path, &args, query.residues(), &matrix, gaps);
        return;
    }

    // A database with planted homologs of the query at ~55% identity,
    // so the sensitivity comparison is meaningful.
    let db = DatabaseBuilder::new()
        .seed(7)
        .sequences(600)
        .homolog_fraction(0.03)
        .homolog_template(query.clone())
        .build();
    let truth: Vec<usize> = db
        .iter()
        .enumerate()
        .filter(|(_, s)| s.description().contains("homolog"))
        .map(|(i, _)| i)
        .collect();
    println!(
        "database: {} sequences, {} residues, {} planted homologs",
        db.len(),
        db.total_residues(),
        truth.len()
    );

    let slices: Vec<&[AminoAcid]> = db.iter().map(|s| s.residues()).collect();
    let req = SearchRequest {
        query: query.residues(),
        matrix: &matrix,
        gaps,
        top_k: 500,
        min_score: 50,
        deadline: None,
        report_alignments: args.cigar,
        prefilter: Prefilter::Off,
    };

    match args.engine {
        Some(engine) => run_one(engine, &req, &slices, args.threads, &db),
        None => run_all(&req, &slices, args.threads, &truth),
    }
}

/// Single-engine mode: ranked hits with significance statistics.
fn run_one(
    engine: Engine,
    req: &SearchRequest<'_>,
    slices: &[&[AminoAcid]],
    threads: usize,
    db: &sapa_core::bioseq::db::Database,
) {
    println!("engine: {} ({})\n", engine.name(), engine.description());
    let t0 = Instant::now();
    let resp = engine.search(req, slices, threads);
    let elapsed = t0.elapsed();

    println!(
        "{} hits in {:.1?} on {} threads ({} subjects, {} rescored)\n",
        resp.hits.len(),
        elapsed,
        resp.stats.threads,
        resp.stats.subjects,
        resp.stats.rescored
    );
    println!("rank  sequence           score   bits    E-value");
    println!("------------------------------------------------");
    for (rank, h) in resp.hits.iter().take(10).enumerate() {
        println!(
            "{:<4}  {:<18} {:<7} {:<7.1} {:.2e}",
            rank + 1,
            db.sequences()[h.seq_index].id(),
            h.score,
            h.bits,
            h.evalue
        );
        if let Some(al) = &h.alignment {
            // Replay the CIGAR against the sequences: the traceback
            // contract is that it scores exactly what was reported.
            let replayed = al.replay_score(
                req.query,
                db.sequences()[h.seq_index].residues(),
                req.matrix,
                req.gaps,
            );
            assert_eq!(replayed, Some(h.score), "CIGAR replay mismatch");
            println!(
                "      q[{}..{}] s[{}..{}]  {}",
                al.query_start, al.query_end, al.subject_start, al.subject_end, al.cigar
            );
        }
    }
}

/// `--db` mode: stream a prebuilt on-disk index through
/// `Engine::search_indexed`, optionally with the k-mer seed prefilter.
fn run_indexed(
    path: &str,
    args: &Args,
    query: &[AminoAcid],
    matrix: &SubstitutionMatrix,
    gaps: GapPenalties,
) {
    let mut reader = IndexReader::open(path).unwrap_or_else(|e| {
        eprintln!("error: opening {path}: {e}");
        std::process::exit(1);
    });
    println!(
        "database: {path} ({} sequences, {} residues, word length {})",
        reader.seq_count(),
        reader.total_residues(),
        reader.word_len()
    );
    let req = SearchRequest {
        query,
        matrix,
        gaps,
        top_k: 500,
        min_score: 50,
        deadline: None,
        report_alignments: false,
        prefilter: if args.prefilter {
            Prefilter::DEFAULT_SEED
        } else {
            Prefilter::Off
        },
    };
    let engines: Vec<Engine> = match args.engine {
        Some(e) => vec![e],
        None => Engine::ALL.to_vec(),
    };

    println!(
        "threads: {}, prefilter: {}\n",
        args.threads,
        if args.prefilter { "seed" } else { "off" }
    );
    println!("engine    time        hits   rescored  pruned");
    println!("----------------------------------------------");
    let mut last: Option<SearchResponse> = None;
    for engine in &engines {
        let t0 = Instant::now();
        let resp = engine
            .search_indexed(&req, &mut reader, args.threads)
            .unwrap_or_else(|e| {
                eprintln!("error: searching {path}: {e}");
                std::process::exit(1);
            });
        let elapsed = t0.elapsed();
        println!(
            "{:<8}  {:<10.1?}  {:<5}  {:<8}  {}",
            engine.name(),
            elapsed,
            resp.hits.len(),
            resp.stats.rescored,
            resp.stats.pruned
        );
        last = Some(resp);
    }

    let last = last.expect("at least one engine ran");
    println!("\ntop hits ({}):", engines.last().unwrap().name());
    for h in last.hits.iter().take(10) {
        println!(
            "  {:<18} score {:<4} ({:.1} bits, E = {:.2e})",
            reader.id(h.seq_index),
            h.score,
            h.bits,
            h.evalue
        );
    }
}

/// Default mode: the paper's comparison — every engine, same request.
fn run_all(req: &SearchRequest<'_>, slices: &[&[AminoAcid]], threads: usize, truth: &[usize]) {
    let recall = |resp: &SearchResponse| {
        let found: Vec<usize> = resp.hits.iter().map(|h| h.seq_index).collect();
        let n = truth.iter().filter(|t| found.contains(t)).count();
        format!("{n}/{}", truth.len())
    };

    println!("threads: {threads}\n");
    println!("engine    time        hits   homolog recall");
    println!("--------------------------------------------");
    let mut reference: Option<SearchResponse> = None;
    for engine in Engine::ALL {
        let t0 = Instant::now();
        let resp = engine.search(req, slices, threads);
        let elapsed = t0.elapsed();
        println!(
            "{:<8}  {:<10.1?}  {:<5}  {}",
            engine.name(),
            elapsed,
            resp.hits.len(),
            recall(&resp)
        );
        // Every exact engine must reproduce scalar SW bit-for-bit.
        match (&reference, engine.is_exact()) {
            (None, true) => reference = Some(resp),
            (Some(r), true) => assert_eq!(resp.hits, r.hits, "{} differs from sw", engine.name()),
            _ => {}
        }
    }

    let reference = reference.expect("sw engine ran");
    println!("\ntop Smith-Waterman hits:");
    for h in reference.hits.iter().take(5) {
        println!(
            "  subject {:<4} score {:<4} ({:.1} bits, E = {:.2e})",
            h.seq_index, h.score, h.bits, h.evalue
        );
    }
}
