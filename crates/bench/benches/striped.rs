//! Striped vs anti-diagonal Smith-Waterman, plus the batched parallel
//! database scan — the headline comparison for the striped-kernel PRs.
//!
//! Groups:
//!
//! * `striped_kernels` — single-pair throughput of every SW machine at
//!   both register widths: scalar Gotoh, lazy-F SSEARCH, anti-diagonal
//!   `simd_sw`, striped 16-bit words, and the adaptive 8-bit byte pass
//!   with 16-bit rescore. At the 128-bit width the production kernels
//!   run on SSE2 lanes on x86_64; the `_emulated` rows run the same
//!   kernel bodies on the emulated vectors in the same process, for the
//!   word and the byte kernel. The `_cheapgap` row reruns the word
//!   kernel under `open=2, extend=1`, where lazy-F corrections fire;
//! * `striped_long_query` — the byte kernel on the longest Table II
//!   query (P03435, 567 residues), where the width rule picks 256 bits:
//!   the production 256-bit kernel (AVX2 lanes on a CPU that has them),
//!   the same kernel body on emulated 32-lane vectors, and the 128-bit
//!   SSE2 kernel, all in one run;
//! * `striped_traceback` — what full alignment output costs on top of
//!   the score-only scan: `score_only` vs the end-tracking pass vs the
//!   complete three-pass traceback (ends + reversed pass + banded
//!   CIGAR);
//! * `striped_scan_200seqs` — a 200-sequence database scan: per-subject
//!   profile rebuild vs one cached profile, serial vs the chunked
//!   parallel pipeline (driven through the unified [`StripedEngine`] +
//!   `parallel::engine_scores` API);
//! * `striped_short_query` — the daemon's short-query scan: a 40-residue
//!   window over the daemon's 400-subject corpus, on the inter-sequence
//!   lane kernel ([`LaneEngine`], the engine `Engine::Striped` runs for
//!   it) and on `StripedEngine::<16, 8>`, in the same run.
//!
//! Outside `--test` mode the run writes `BENCH_striped.json` at the
//! repository root with the host fingerprint, every median, and derived
//! ratios, including `sse2_vs_emulated_bytes`/`sse2_vs_emulated_words`
//! (emulated median over SSE2 median, same run),
//! `avx2_vs_emulated_bytes` and `avx2_vs_sse2_bytes` (the long-query
//! trio; `null` on a CPU without AVX2, where the 256-bit row runs
//! emulated lanes), `lanes_vs_striped_short` (striped median over lane
//! median, same run) and `traceback_overhead` (full three-pass
//! alignment vs score-only).
//!
//! `--smoke` runs a cut-down variant for CI: fewer samples, no scan
//! group, output to `BENCH_striped_smoke.json` (gitignored) — enough
//! for the CI gates on the same-run SSE2/emulated, AVX2/emulated and
//! lanes/striped ratios without minutes of benchmarking.

use sapa_bench::harness::{Criterion, Throughput};
use sapa_bench::{bench_db, bench_query, slices};
use sapa_core::align::engine::{LaneEngine, StripedEngine};
use sapa_core::align::striped::{self, ByteWorkspace, Workspace};
use sapa_core::align::{parallel, simd_sw, sw, traceback};
use sapa_core::bioseq::db::DatabaseBuilder;
use sapa_core::bioseq::matrix::GapPenalties;
use sapa_core::bioseq::queries::QuerySet;
use sapa_core::bioseq::{QueryProfile, SubstitutionMatrix};
use sapa_core::vsimd::{ByteVector, Vector};

fn kernels(c: &mut Criterion) {
    let matrix = SubstitutionMatrix::blosum62();
    let gaps = GapPenalties::paper();
    let cheap = GapPenalties::new(2, 1);
    let query = bench_query();
    let db = bench_db(4);
    let subject = db[0].residues();
    let cells = (query.len() * subject.len()) as u64;

    let p128 = QueryProfile::build(query.residues(), &matrix, 8);
    let p256 = QueryProfile::build(query.residues(), &matrix, 16);

    let mut group = c.benchmark_group("striped_kernels");
    group.throughput(Throughput::Elements(cells));
    group.bench_function("scalar_gotoh", |b| {
        b.iter(|| sw::score(query.residues(), subject, &matrix, gaps))
    });
    group.bench_function("lazy_f_ssearch", |b| {
        b.iter(|| sw::score_lazy_f(query.residues(), subject, &matrix, gaps))
    });
    group.bench_function("anti_diagonal_vmx128", |b| {
        b.iter(|| simd_sw::score::<8>(query.residues(), subject, &matrix, gaps))
    });
    group.bench_function("anti_diagonal_vmx256", |b| {
        b.iter(|| simd_sw::score::<16>(query.residues(), subject, &matrix, gaps))
    });
    // Striped kernels reuse a workspace across iterations, exactly like
    // the database-scan pipeline does across subjects.
    let mut ws8 = Workspace::<8>::new();
    group.bench_function("striped_w16_vmx128", |b| {
        b.iter(|| striped::score_with_profile::<8>(&p128, subject, gaps, &mut ws8))
    });
    group.bench_function("striped_w16_vmx128_emulated", |b| {
        b.iter(|| striped::score_with_lanes::<Vector<8>, 8>(&p128, subject, gaps, &mut ws8))
    });
    let mut ws16 = Workspace::<16>::new();
    group.bench_function("striped_w16_vmx256", |b| {
        b.iter(|| striped::score_with_profile::<16>(&p256, subject, gaps, &mut ws16))
    });
    // Cheap gaps make lazy-F corrections frequent instead of rare.
    group.bench_function("striped_w16_vmx128_cheapgap", |b| {
        b.iter(|| striped::score_with_profile::<8>(&p128, subject, cheap, &mut ws8))
    });
    // Direct byte-kernel pair: the engines' production scan path.
    let mut bws16d = ByteWorkspace::<16>::new();
    group.bench_function("striped_b8_vmx128", |b| {
        b.iter(|| striped::score_bytes_with_profile::<16>(&p128, subject, gaps, &mut bws16d))
    });
    group.bench_function("striped_b8_vmx128_emulated", |b| {
        b.iter(|| {
            striped::score_bytes_with_lanes::<ByteVector<16>, 16>(&p128, subject, gaps, &mut bws16d)
        })
    });
    let mut bws16 = ByteWorkspace::<16>::new();
    let mut ws8b = Workspace::<8>::new();
    group.bench_function("striped_b8_adaptive_vmx128", |b| {
        b.iter(|| {
            striped::score_adaptive_with_profile::<16, 8>(
                &p128, subject, gaps, &mut bws16, &mut ws8b,
            )
        })
    });
    let mut bws32 = ByteWorkspace::<32>::new();
    let mut ws16b = Workspace::<16>::new();
    group.bench_function("striped_b8_adaptive_vmx256", |b| {
        b.iter(|| {
            striped::score_adaptive_with_profile::<32, 16>(
                &p256, subject, gaps, &mut bws32, &mut ws16b,
            )
        })
    });
    group.finish();
}

/// The byte kernel at both widths on a query long enough for 256 bits
/// to pay off.
fn long_query(c: &mut Criterion) {
    let matrix = SubstitutionMatrix::blosum62();
    let gaps = GapPenalties::paper();
    let queries = QuerySet::paper();
    let query = queries.by_accession("P03435").expect("Table II query");
    let db = bench_db(4);
    let subject = db[0].residues();
    let p128 = QueryProfile::build(query.residues(), &matrix, 8);
    let p256 = QueryProfile::build(query.residues(), &matrix, 16);

    let mut group = c.benchmark_group("striped_long_query");
    group.throughput(Throughput::Elements((query.len() * subject.len()) as u64));
    let mut bws32 = ByteWorkspace::<32>::new();
    group.bench_function("striped_b8_vmx256", |b| {
        b.iter(|| striped::score_bytes_with_profile::<32>(&p256, subject, gaps, &mut bws32))
    });
    group.bench_function("striped_b8_vmx256_emulated", |b| {
        b.iter(|| {
            striped::score_bytes_with_lanes::<ByteVector<32>, 32>(&p256, subject, gaps, &mut bws32)
        })
    });
    let mut bws16 = ByteWorkspace::<16>::new();
    group.bench_function("striped_b8_vmx128", |b| {
        b.iter(|| striped::score_bytes_with_profile::<16>(&p128, subject, gaps, &mut bws16))
    });
    group.finish();
}

fn traceback_cost(c: &mut Criterion) {
    let matrix = SubstitutionMatrix::blosum62();
    let gaps = GapPenalties::paper();
    let query = bench_query();
    let db = bench_db(4);
    // A homologous subject so there is a real alignment to trace.
    let subject = db
        .iter()
        .map(|s| s.residues())
        .max_by_key(|s| sw::score(query.residues(), s, &matrix, gaps))
        .unwrap();
    let cells = (query.len() * subject.len()) as u64;

    let p128 = QueryProfile::build(query.residues(), &matrix, 8);
    let expected = sw::score(query.residues(), subject, &matrix, gaps);
    let mut ws = Workspace::<8>::new();

    let mut group = c.benchmark_group("striped_traceback");
    group.throughput(Throughput::Elements(cells));
    group.bench_function("score_only", |b| {
        b.iter(|| striped::score_with_profile::<8>(&p128, subject, gaps, &mut ws))
    });
    group.bench_function("score_ends", |b| {
        b.iter(|| striped::score_ends_with_profile::<8>(&p128, subject, gaps, &mut ws))
    });
    group.bench_function("full_align", |b| {
        b.iter(|| {
            traceback::align_hit::<8>(
                query.residues(),
                &matrix,
                gaps,
                &p128,
                subject,
                expected,
                &mut ws,
            )
        })
    });
    group.finish();
}

fn scan(c: &mut Criterion) {
    let matrix = SubstitutionMatrix::blosum62();
    let gaps = GapPenalties::paper();
    let query = bench_query();
    let db = bench_db(200);
    let subjects = slices(&db);
    let residues: u64 = db.iter().map(|s| s.len() as u64).sum();

    let mut group = c.benchmark_group("striped_scan_200seqs");
    group.throughput(Throughput::Elements(residues));
    group.bench_function("anti_diagonal_serial", |b| {
        b.iter(|| {
            subjects
                .iter()
                .map(|s| simd_sw::score::<8>(query.residues(), s, &matrix, gaps))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("striped_profile_per_subject", |b| {
        // The naive integration: rebuild the profile for every subject,
        // showing what the cached profile amortizes away.
        b.iter(|| {
            subjects
                .iter()
                .map(|s| striped::score_adaptive::<16, 8>(query.residues(), s, &matrix, gaps))
                .collect::<Vec<_>>()
        })
    });
    let profile = QueryProfile::build_shared(query.residues(), &matrix, 8);
    let engine = StripedEngine::<16, 8>::with_profile(profile, gaps);
    group.bench_function("striped_cached_profile_serial", |b| {
        b.iter(|| parallel::engine_scores(&engine, &subjects, 1))
    });
    for threads in [2usize, 4] {
        group.bench_function(format!("striped_cached_profile_t{threads}"), |b| {
            b.iter(|| parallel::engine_scores(&engine, &subjects, threads))
        });
    }
    group.finish();
}

/// A 40-residue window of the default query scanning the daemon's
/// default corpus, on the lane kernel and on the 128-bit striped kernel,
/// both through `parallel::engine_scores` with a cached profile.
fn short_query(c: &mut Criterion) {
    let matrix = SubstitutionMatrix::blosum62();
    let gaps = GapPenalties::paper();
    let cfg = sapa_service::ServiceConfig::default();
    let template = bench_query();
    let corpus = DatabaseBuilder::new()
        .seed(cfg.db_seed)
        .sequences(cfg.db_seqs)
        .median_length(cfg.db_median_len)
        .homolog_template(template.clone())
        .homolog_fraction(cfg.db_homolog_fraction)
        .build();
    let subjects: Vec<_> = corpus.iter().map(|s| s.residues()).collect();
    let window = &template.residues()[90..130];
    let residues: u64 = subjects.iter().map(|s| s.len() as u64).sum();
    let profile = QueryProfile::build_shared(window, &matrix, 8);
    let lanes = LaneEngine::with_profile(profile.clone(), gaps);
    let striped = StripedEngine::<16, 8>::with_profile(profile, gaps);

    let mut group = c.benchmark_group("striped_short_query");
    group.throughput(Throughput::Elements(window.len() as u64 * residues));
    group.bench_function("lanes", |b| {
        b.iter(|| parallel::engine_scores(&lanes, &subjects, 1))
    });
    group.bench_function("striped_sse2", |b| {
        b.iter(|| parallel::engine_scores(&striped, &subjects, 1))
    });
    group.finish();
}

fn write_json(c: &Criterion, path: &str) {
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
    // slow-median / fast-median within one group, "null" when either
    // side did not run (smoke mode skips groups).
    let ratio = |group: &str, fast: &str, slow: &str| -> String {
        match (c.result(group, slow), c.result(group, fast)) {
            (Some(s), Some(f)) if f.median_ns > 0.0 => {
                format!("{:.3}", s.median_ns / f.median_ns)
            }
            _ => "null".to_string(),
        }
    };
    let speedup = |fast: &str, slow: &str| ratio("striped_kernels", fast, slow);
    // Without AVX2 the 256-bit row runs emulated lanes: no AVX2 ratio.
    let avx2 = |slow: &str| {
        if striped::avx2_detected() {
            ratio("striped_long_query", "striped_b8_vmx256", slow)
        } else {
            "null".to_string()
        }
    };
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let host = sapa_bench::host_json();
    let json = format!(
        "{{\n  \"bench\": \"striped\",\n  \"query\": \"GST-222aa\",\n  \"host_cpus\": {cpus},\n  \"host\": {host},\n  \"results\": [\n{entries}\n  ],\n  \"derived\": {{\n    \"speedup_striped_w16_vs_anti_diagonal_vmx128\": {},\n    \"speedup_striped_w16_vs_anti_diagonal_vmx256\": {},\n    \"speedup_striped_adaptive_vs_anti_diagonal_vmx128\": {},\n    \"speedup_striped_w16_vs_scalar_vmx128\": {},\n    \"sse2_vs_emulated_bytes\": {},\n    \"sse2_vs_emulated_words\": {},\n    \"avx2_vs_emulated_bytes\": {},\n    \"avx2_vs_sse2_bytes\": {},\n    \"lanes_vs_striped_short\": {},\n    \"traceback_overhead\": {}\n  }}\n}}\n",
        speedup("striped_w16_vmx128", "anti_diagonal_vmx128"),
        speedup("striped_w16_vmx256", "anti_diagonal_vmx256"),
        speedup("striped_b8_adaptive_vmx128", "anti_diagonal_vmx128"),
        speedup("striped_w16_vmx128", "scalar_gotoh"),
        speedup("striped_b8_vmx128", "striped_b8_vmx128_emulated"),
        speedup("striped_w16_vmx128", "striped_w16_vmx128_emulated"),
        avx2("striped_b8_vmx256_emulated"),
        avx2("striped_b8_vmx128"),
        ratio("striped_short_query", "lanes", "striped_sse2"),
        ratio("striped_traceback", "score_only", "full_align"),
    );
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    // `--smoke` is ours; the harness ignores flags it does not know.
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut c = Criterion::from_args().sample_size(if smoke { 5 } else { 15 });
    kernels(&mut c);
    long_query(&mut c);
    traceback_cost(&mut c);
    short_query(&mut c);
    if !smoke {
        scan(&mut c);
    }
    if !c.is_test_mode() {
        let path = if smoke {
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../BENCH_striped_smoke.json"
            )
        } else {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_striped.json")
        };
        write_json(&c, path);
    }
}
