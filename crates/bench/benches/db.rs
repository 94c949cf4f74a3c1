//! The preprocessed-database pipeline: index construction cost and the
//! end-to-end payoff of the k-mer seed prefilter over the exhaustive
//! striped scan.
//!
//! Groups:
//!
//! * `db_build` — serializing the corpus into the on-disk format
//!   (packing, length-sorted sharding, seed-index construction) and
//!   the metadata-only open of the result;
//! * `db_search` — one full query against the indexed database through
//!   `Engine::search_indexed`: the exhaustive streaming scan, the
//!   default single-seed prefilter, and the x-drop `SeedExtend` gate,
//!   all on the adaptive striped engine.
//!
//! Before any timing the run *asserts* ranking equivalence: at the
//! significance-level `min_score` the default seed prefilter must
//! reproduce the exhaustive hit list bit for bit, so the speedup below
//! is never bought with lost hits.
//!
//! Outside `--test` mode the run writes `BENCH_db.json` at the
//! repository root: per-bench medians plus the index size, the
//! prefilter survival rate, and `prefilter_end_to_end_speedup`
//! (exhaustive median / prefiltered median — the number the CI gate
//! checks). The full corpus is 4000 sequences, ten times the suite's
//! standard 400-sequence evaluation database; `--smoke` cuts it to 800
//! sequences and writes `BENCH_db_smoke.json` (gitignored) for CI.

use std::io::Cursor;

use sapa_bench::harness::{Criterion, Throughput};
use sapa_bench::{bench_db, bench_query};
use sapa_core::align::engine::{Engine, Prefilter, SearchRequest};
use sapa_core::bioseq::index::{IndexBuilder, IndexReader};
use sapa_core::bioseq::matrix::GapPenalties;
use sapa_core::bioseq::{Sequence, SubstitutionMatrix};

const SEED_EXTEND: Prefilter = Prefilter::SeedExtend {
    min_diag_seeds: 1,
    x: 20,
    min_extended: 15,
};

fn request<'a>(
    query: &'a [sapa_core::bioseq::AminoAcid],
    matrix: &'a SubstitutionMatrix,
    prefilter: Prefilter,
) -> SearchRequest<'a> {
    SearchRequest {
        query,
        matrix,
        gaps: GapPenalties::paper(),
        top_k: 50,
        // Deep-significance cutoff: prefilter/exhaustive equivalence
        // holds above the chance-alignment noise floor (see
        // `sapa_align::indexed`). On this corpus the strongest
        // measured word-free chance hit scored 69 (E ~ 1e-2), so 100
        // leaves a wide margin while every planted homolog (400+)
        // clears it.
        min_score: 100,
        deadline: None,
        report_alignments: false,
        prefilter,
    }
}

fn build(c: &mut Criterion, db: &[Sequence], residues: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    IndexBuilder::new().write(db, &mut bytes).unwrap();
    let index_bytes = bytes.len();

    let mut group = c.benchmark_group("db_build");
    group.throughput(Throughput::Elements(residues));
    group.bench_function("pack_shard_index", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(index_bytes);
            IndexBuilder::new().write(db, &mut out).unwrap();
            out.len()
        })
    });
    group.bench_function("open_metadata_only", |b| {
        b.iter(|| {
            IndexReader::from_reader(Cursor::new(bytes.as_slice()))
                .unwrap()
                .seq_count()
        })
    });
    group.finish();
    bytes
}

/// The prefilter survival rate on this corpus: scored / database size.
fn search(c: &mut Criterion, bytes: Vec<u8>, residues: u64) -> f64 {
    let matrix = SubstitutionMatrix::blosum62();
    let query = bench_query();
    let mut db = IndexReader::from_reader(Cursor::new(bytes)).unwrap();
    let seq_count = db.seq_count();

    let off = request(query.residues(), &matrix, Prefilter::Off);
    let seeded = request(query.residues(), &matrix, Prefilter::DEFAULT_SEED);
    let extended = request(query.residues(), &matrix, SEED_EXTEND);

    // Equivalence first: the speedup below must not be bought with
    // lost hits.
    let exhaustive = Engine::Striped.search_indexed(&off, &mut db, 1).unwrap();
    let filtered = Engine::Striped.search_indexed(&seeded, &mut db, 1).unwrap();
    assert!(
        !exhaustive.hits.is_empty(),
        "bench corpus must contain significant hits"
    );
    assert_eq!(
        filtered.hits, exhaustive.hits,
        "seed prefilter lost ranked hits — the speedup would be meaningless"
    );
    let survival =
        filtered.stats.subjects as f64 / (filtered.stats.subjects + filtered.stats.pruned) as f64;
    println!(
        "corpus: {seq_count} sequences, {residues} residues; prefilter keeps \
         {}/{seq_count} subjects ({:.1}%)",
        filtered.stats.subjects,
        100.0 * survival
    );

    let mut group = c.benchmark_group("db_search");
    group.throughput(Throughput::Elements(residues));
    group.bench_function("exhaustive_striped", |b| {
        b.iter(|| {
            Engine::Striped
                .search_indexed(&off, &mut db, 1)
                .unwrap()
                .hits
                .len()
        })
    });
    group.bench_function("prefilter_seed_striped", |b| {
        b.iter(|| {
            Engine::Striped
                .search_indexed(&seeded, &mut db, 1)
                .unwrap()
                .hits
                .len()
        })
    });
    group.bench_function("prefilter_seed_extend_striped", |b| {
        b.iter(|| {
            Engine::Striped
                .search_indexed(&extended, &mut db, 1)
                .unwrap()
                .hits
                .len()
        })
    });
    group.finish();
    survival
}

fn write_json(
    c: &Criterion,
    path: &str,
    seqs: usize,
    residues: u64,
    index_bytes: usize,
    survival: f64,
) {
    let mut entries = String::new();
    for (i, r) in c.results().iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        let rate = r
            .elements_per_sec
            .map_or("null".to_string(), |v| format!("{v:.1}"));
        entries.push_str(&format!(
            "    {{\"group\": \"{}\", \"name\": \"{}\", \"median_ns_per_iter\": {:.1}, \"elements_per_sec\": {}}}",
            r.group, r.name, r.median_ns, rate
        ));
    }
    let ratio = |fast: &str, slow: &str| -> String {
        match (c.result("db_search", slow), c.result("db_search", fast)) {
            (Some(s), Some(f)) if f.median_ns > 0.0 => {
                format!("{:.3}", s.median_ns / f.median_ns)
            }
            _ => "null".to_string(),
        }
    };
    let build_ms = c
        .result("db_build", "pack_shard_index")
        .map_or("null".to_string(), |r| format!("{:.2}", r.median_ns / 1e6));
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"db\",\n  \"query\": \"GST-222aa\",\n  \"host_cpus\": {cpus},\n  \"db_seqs\": {seqs},\n  \"db_residues\": {residues},\n  \"index_bytes\": {index_bytes},\n  \"results\": [\n{entries}\n  ],\n  \"derived\": {{\n    \"build_ms\": {build_ms},\n    \"index_bytes_per_residue\": {:.3},\n    \"prefilter_survival_rate\": {survival:.4},\n    \"prefilter_end_to_end_speedup\": {},\n    \"seed_extend_end_to_end_speedup\": {}\n  }}\n}}\n",
        index_bytes as f64 / residues.max(1) as f64,
        ratio("prefilter_seed_striped", "exhaustive_striped"),
        ratio("prefilter_seed_extend_striped", "exhaustive_striped"),
    );
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut c = Criterion::from_args().sample_size(if smoke { 5 } else { 15 });
    // Full mode uses 4000 sequences — 10x the suite's standard
    // 400-sequence evaluation database.
    let db = bench_db(if smoke { 800 } else { 4000 });
    let residues: u64 = db.iter().map(|s| s.len() as u64).sum();

    let bytes = build(&mut c, &db, residues);
    let index_bytes = bytes.len();
    let survival = search(&mut c, bytes, residues);

    if !c.is_test_mode() {
        let path = if smoke {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_db_smoke.json")
        } else {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_db.json")
        };
        write_json(&c, path, db.len(), residues, index_bytes, survival);
    }
}
