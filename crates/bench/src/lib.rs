//! Shared fixtures and harness for the SAPA benchmark suite.
//!
//! The actual benchmarks live in `benches/`; this library provides the
//! deterministic inputs they share so every bench measures the same
//! data, plus [`harness`] — a dependency-free Criterion-shaped timing
//! harness (the container the suite builds in has no crates.io access).

pub mod harness;

use sapa_core::bioseq::db::DatabaseBuilder;
use sapa_core::bioseq::queries::QuerySet;
use sapa_core::bioseq::{AminoAcid, Sequence};

/// The default benchmark query (Glutathione S-transferase stand-in,
/// 222 residues — the paper's reporting query).
pub fn bench_query() -> Sequence {
    QuerySet::paper().default_query().clone()
}

/// A deterministic benchmark database of `n` sequences with planted
/// homologs of the benchmark query.
pub fn bench_db(n: usize) -> Vec<Sequence> {
    let query = bench_query();
    DatabaseBuilder::new()
        .seed(0xBE7C)
        .sequences(n)
        .homolog_template(query)
        .build()
        .sequences()
        .to_vec()
}

/// The host fingerprint as a JSON object — CPU model, the SIMD
/// extensions it reports, `nproc`, the target features compiled in and
/// whether the build has debug assertions — for the `"host"` field of
/// every `BENCH_*.json`.
pub fn host_json() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map_or("", |(_, v)| v.trim())
    };
    let flags = field("flags");
    let simd: Vec<&str> = ["sse4_1", "sse4_2", "avx", "avx2", "avx512f", "avx512bw"]
        .into_iter()
        .filter(|f| flags.split_whitespace().any(|x| x == *f))
        .collect();
    let compiled: Vec<&str> = [
        ("sse4.1", cfg!(target_feature = "sse4.1")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("avx512bw", cfg!(target_feature = "avx512bw")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let build = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let pairs = [
        ("cpu_model", field("model name")),
        ("simd_flags", &simd.join(" ")),
        ("nproc", &nproc.to_string()),
        ("compiled_target_features", &compiled.join(" ")),
        ("build_profile", build),
    ]
    .map(|(k, v)| {
        format!(
            "\"{k}\": \"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        )
    });
    format!("{{{}}}", pairs.join(", "))
}

/// Residue slices of a database (the form the search APIs take).
pub fn slices(db: &[Sequence]) -> Vec<&[AminoAcid]> {
    db.iter().map(|s| s.residues()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_fingerprint_is_a_json_object() {
        let host = host_json();
        assert!(host.starts_with("{\"cpu_model\": "), "{host}");
        assert!(host.contains("\"nproc\": \""), "{host}");
    }

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(bench_query().len(), 222);
        assert_eq!(bench_db(5), bench_db(5));
    }
}
