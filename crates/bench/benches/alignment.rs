//! Alignment-kernel throughput plus the unified engine sweep.
//!
//! Groups:
//!
//! * `smith_waterman` / `other_kernels` — single-pair throughput of the
//!   four Smith-Waterman machines plus global and banded alignment,
//!   complementing Table III (relative work per aligned cell);
//! * `engine_scan_200seqs` — every registry engine scanning the same
//!   200-sequence database through the unified
//!   [`AlignmentEngine`](sapa_core::align::engine::AlignmentEngine) +
//!   `parallel::engine_scores` pipeline, the apples-to-apples
//!   comparison the paper makes across its five applications.
//!
//! Outside `--test` mode the run writes `BENCH_engines.json` at the
//! repository root (same shape as `BENCH_striped.json`) with per-engine
//! cells-per-second and derived cross-engine speedups.

use sapa_bench::harness::{BenchmarkGroup, BenchmarkId, Criterion, Throughput};
use sapa_bench::{bench_db, bench_query, slices};
use sapa_core::align::engine::{AlignmentEngine, Engine, EngineVisitor, Prefilter, SearchRequest};
use sapa_core::align::{banded, nw, parallel, simd_sw, sw};
use sapa_core::bioseq::matrix::GapPenalties;
use sapa_core::bioseq::{AminoAcid, SubstitutionMatrix};

fn sw_variants(c: &mut Criterion) {
    let matrix = SubstitutionMatrix::blosum62();
    let gaps = GapPenalties::paper();
    let query = bench_query();
    let db = bench_db(4);
    let subject = db[0].residues();
    let cells = (query.len() * subject.len()) as u64;

    let mut group = c.benchmark_group("smith_waterman");
    group.throughput(Throughput::Elements(cells));
    group.bench_function("scalar_gotoh", |b| {
        b.iter(|| sw::score(query.residues(), subject, &matrix, gaps))
    });
    group.bench_function("lazy_f_ssearch", |b| {
        b.iter(|| sw::score_lazy_f(query.residues(), subject, &matrix, gaps))
    });
    group.bench_function("simd_vmx128", |b| {
        b.iter(|| simd_sw::score::<8>(query.residues(), subject, &matrix, gaps))
    });
    group.bench_function("simd_vmx256", |b| {
        b.iter(|| simd_sw::score::<16>(query.residues(), subject, &matrix, gaps))
    });
    group.finish();
}

fn other_kernels(c: &mut Criterion) {
    let matrix = SubstitutionMatrix::blosum62();
    let gaps = GapPenalties::paper();
    let query = bench_query();
    let db = bench_db(4);
    let subject = db[0].residues();

    let mut group = c.benchmark_group("other_kernels");
    group.bench_function("needleman_wunsch", |b| {
        b.iter(|| nw::score(query.residues(), subject, &matrix, gaps))
    });
    for width in [8usize, 16, 32] {
        group.bench_with_input(BenchmarkId::new("banded_sw", width), &width, |b, &w| {
            b.iter(|| banded::score(query.residues(), subject, &matrix, gaps, 0, w))
        });
    }
    group.bench_function("traceback_alignment", |b| {
        b.iter(|| {
            sw::align(
                &query.residues()[..64],
                &subject[..64.min(subject.len())],
                &matrix,
                gaps,
            )
        })
    });
    group.finish();
}

/// The engine sweep: every registry backend runs the identical scan
/// through `parallel::engine_scores`, serially, with its query context
/// (profile / word index / k-tuple table) built once up front — the
/// amortized serving configuration. Each engine is the one
/// [`Engine::dispatch`] builds, so the `striped` row runs on the kernel
/// `striped::kernel` picks for the 222-residue query: striped on 256-bit
/// AVX2 lanes on a CPU that has them.
fn engines(c: &mut Criterion) {
    let matrix = SubstitutionMatrix::blosum62();
    let query = bench_query();
    let db = bench_db(200);
    let subjects = slices(&db);
    let residues: u64 = db.iter().map(|s| s.len() as u64).sum();
    let cells = query.len() as u64 * residues;

    struct Bench<'g, 'c, 's> {
        group: &'g mut BenchmarkGroup<'c>,
        subjects: &'s [&'s [AminoAcid]],
    }
    impl EngineVisitor for Bench<'_, '_, '_> {
        type Out = ();
        fn visit<E: AlignmentEngine>(self, id: Engine, engine: &E) {
            let subjects = self.subjects;
            self.group.bench_function(id.name(), |b| {
                b.iter(|| parallel::engine_scores(engine, subjects, 1))
            });
        }
    }

    let mut group = c.benchmark_group("engine_scan_200seqs");
    group.throughput(Throughput::Elements(cells));
    let req = SearchRequest {
        query: query.residues(),
        matrix: &matrix,
        gaps: GapPenalties::paper(),
        top_k: 10,
        min_score: 1,
        deadline: None,
        report_alignments: false,
        prefilter: Prefilter::Off,
    };
    for engine in Engine::ALL {
        engine.dispatch(
            &req,
            Bench {
                group: &mut group,
                subjects: &subjects,
            },
        );
    }
    group.finish();
}

fn write_json(c: &Criterion, query_len: usize, residues: u64) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engines.json");
    let mut entries = String::new();
    for (i, r) in c
        .results()
        .iter()
        .filter(|r| r.group == "engine_scan_200seqs")
        .enumerate()
    {
        if i > 0 {
            entries.push_str(",\n");
        }
        let rate = r
            .elements_per_sec
            .map_or("null".to_string(), |v| format!("{v:.1}"));
        entries.push_str(&format!(
            "    {{\"group\": \"{}\", \"name\": \"{}\", \"median_ns_per_iter\": {:.1}, \"cells_per_sec\": {}}}",
            r.group, r.name, r.median_ns, rate
        ));
    }
    let speedup = |fast: &str, slow: &str| -> String {
        match (
            c.result("engine_scan_200seqs", slow),
            c.result("engine_scan_200seqs", fast),
        ) {
            (Some(s), Some(f)) if f.median_ns > 0.0 => {
                format!("{:.3}", s.median_ns / f.median_ns)
            }
            _ => "null".to_string(),
        }
    };
    // Residues/s of the striped scan, directly comparable to
    // BENCH_striped.json's striped_cached_profile_serial entry.
    let striped_res_per_sec = c
        .result("engine_scan_200seqs", "striped")
        .map_or("null".to_string(), |r| {
            format!("{:.1}", residues as f64 / r.median_ns * 1e9)
        });
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let host = sapa_bench::host_json();
    let json = format!(
        "{{\n  \"bench\": \"engines\",\n  \"query\": \"GST-222aa\",\n  \"query_len\": {query_len},\n  \"db_residues\": {residues},\n  \"host_cpus\": {cpus},\n  \"host\": {host},\n  \"results\": [\n{entries}\n  ],\n  \"derived\": {{\n    \"striped_residues_per_sec\": {striped_res_per_sec},\n    \"speedup_striped_vs_sw\": {},\n    \"speedup_striped_vs_vmx128\": {},\n    \"speedup_vmx256_vs_vmx128\": {},\n    \"speedup_sw_vs_sw_lazy\": {}\n  }}\n}}\n",
        speedup("striped", "sw"),
        speedup("striped", "vmx128"),
        speedup("vmx256", "vmx128"),
        speedup("sw", "sw-lazy"),
    );
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let mut c = Criterion::from_args().sample_size(15);
    sw_variants(&mut c);
    other_kernels(&mut c);
    engines(&mut c);
    if !c.is_test_mode() {
        let query = bench_query();
        let db = bench_db(200);
        let residues: u64 = db.iter().map(|s| s.len() as u64).sum();
        write_json(&c, query.len(), residues);
    }
}
