//! Host fingerprint and process memory, recorded with every result.

/// `key=value` pairs naming the CPU, its SIMD support, the worker
/// count and the build that produced the numbers.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map_or(String::new(), |(_, v)| v.trim().to_string())
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
    vec![
        ("cpu_model", field("model name")),
        ("simd_flags", simd.join(" ")),
        ("nproc", nproc.to_string()),
        ("compiled_target_features", compiled.join(" ")),
        ("rustflags", env!("PERFBENCH_RUSTFLAGS").to_string()),
        (
            "build_profile",
            format!(
                "{} opt-level={}",
                env!("PERFBENCH_PROFILE"),
                env!("PERFBENCH_OPT_LEVEL")
            ),
        ),
    ]
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
