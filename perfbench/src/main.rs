//! The repository benchmark: three seeded workloads over the SAPA
//! reproduction, indexed-search and daemon paths.
//!
//! ```text
//! perfbench --workload <repro_sweep|search_seeded|service_short|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the five end-to-end metrics with
//! tracing off; with `--trace 1` it replays the workload's ops through
//! spans around each layer's public calls and reports the per-layer
//! metrics instead. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. `all` runs
//! each workload in a process of its own and prints every metric.

pub mod host;
mod repro;
mod search;
mod service;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["repro_sweep", "search_seeded", "service_short"];

/// The seed whose op outputs have committed digests (see `digests.txt`).
pub const REFERENCE_SEED: u64 = 2006;

/// Every per-layer metric, `(name, unit)`. A traced run reports all of
/// them; a layer that does no work on a workload reports 0 there.
const LAYER_METRICS: [(&str, &str); 32] = [
    ("workloads.trace_s", "s"),
    ("isa.pack_s", "s"),
    ("isa.bytes_per_inst", "B/inst"),
    ("isa.decode_minst_per_s", "Minst/s"),
    ("cpu.ns_per_inst", "ns"),
    ("cpu.ns_per_cycle.me1", "ns"),
    ("cpu.ns_per_cycle.meinf", "ns"),
    ("cpu.sim_insts", "count"),
    ("cpu.sim_cycles", "count"),
    ("bioseq.index.build_s", "s"),
    ("bioseq.index.open_s", "s"),
    ("bioseq.seed.scan_ms", "ms"),
    ("bioseq.seed.survival", "ratio"),
    ("bioseq.index.read_ms", "ms"),
    ("bioseq.index.useful_share", "ratio"),
    ("align.profile_ms", "ms"),
    ("align.kernel_ms", "ms"),
    ("align.gcups", "Gcell/s"),
    ("align.rescore_share", "ratio"),
    ("service.parse_us", "us"),
    ("service.price_us", "us"),
    ("service.render_us", "us"),
    ("service.search_ms.striped", "ms"),
    ("service.search_ms.blast", "ms"),
    ("service.search_ms.fasta", "ms"),
    ("service.residual_us", "us"),
    ("service.rejected", "count"),
    ("service.quarantined", "count"),
    ("trace.coverage_min", "ratio"),
    ("trace.coverage_max", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.ops", "count"),
];

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, or `all`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase (s).
    pub seconds: f64,
    /// Traced run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: REFERENCE_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// One timed op of the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the op started, in seconds since the measured phase began.
    pub at: f64,
    /// Op latency (s).
    pub secs: f64,
    /// Index into the workload's op classes.
    pub class: usize,
    /// Whether the op returned an output (not an error or failed job);
    /// outputs are checked outside the op's timing.
    pub ok: bool,
}

/// What an end-to-end run of one workload produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall time of each repeated set-up (s).
    pub setup_s: Vec<f64>,
    /// Every op of the measured phase, in order.
    pub samples: Vec<Sample>,
    /// Wall time of the measured phase (s).
    pub wall_s: f64,
    /// Peak resident set (MB) when the measured phase ended, before any
    /// output check allocated.
    pub peak_rss_mb: f64,
    /// The percentile `tail_ms` reports (per-mille): the highest step
    /// with at least ten samples beyond it in each tail window at the
    /// run length in `BENCHMARK.json`, fixed per workload so a faster
    /// program cannot move it.
    pub tail_permille: u32,
    /// Equal stretches of the measured phase whose tails `tail_ms` takes
    /// the median of (1: the whole run).
    pub tail_windows: usize,
    /// What `p50_ms`, `tail_ms` and `ops_per_s` are taken over.
    pub basis: Basis,
    /// Name of each op class.
    pub classes: Vec<String>,
    /// Ops whose output failed a check, counted once each.
    pub mismatched: Vec<usize>,
    /// Run-level check failures (not tied to one op).
    pub errors: Vec<String>,
    /// Workload-specific metadata.
    pub meta: Vec<(String, String)>,
    /// Digest of each op class's checked output, in `digests.txt` form.
    pub digests: Vec<(String, u64)>,
}

/// What a traced run of one workload produced.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-layer metric values by name.
    pub layers: Vec<(&'static str, f64)>,
    /// Ops replayed.
    pub attempted: u64,
    /// Ops whose replay or output failed.
    pub failed: u64,
    /// Check failures.
    pub errors: Vec<String>,
    /// Workload-specific metadata.
    pub meta: Vec<(String, String)>,
}

/// Directory for run artefacts (spans, metadata, scratch index files).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).expect("create the benchmark's output directory");
    dir
}

/// Committed digest lines for `workload` at [`REFERENCE_SEED`]:
/// `(key, digest)`.
pub fn committed_digests(workload: &str) -> Vec<(String, u64)> {
    include_str!("../digests.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (w, key, hex) = (f.next()?, f.next()?, f.next()?);
            let digest = u64::from_str_radix(hex, 16).ok()?;
            (w == workload).then(|| (key.to_string(), digest))
        })
        .collect()
}

/// A seeded permutation of `0..n` (Fisher-Yates over the suite's PRNG).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = sapa_core::bioseq::rng::Xoshiro256::new(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

/// Adds `trace.*` metrics: per-op layer coverage (which must stay
/// within 5% of the op's wall time) and tracing overhead, the median of
/// the `traced` op latencies against that of the `untraced` ones.
pub fn coverage_and_overhead(
    out: &mut Traced,
    ops: &std::collections::BTreeMap<u64, trace::OpLayers>,
    traced: &[f64],
    untraced: &[f64],
    args: &Args,
) {
    let cov: Vec<f64> = ops.values().map(trace::OpLayers::coverage).collect();
    let lo = cov.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = cov.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !(0.95..=1.05).contains(&lo) || !(0.95..=1.05).contains(&hi) {
        out.errors.push(format!(
            "{}: layer coverage {lo:.4}..{hi:.4} is outside 5% of op wall time",
            args.workload
        ));
    }
    let traced_p50 = stats::median(&stats::sorted(traced.iter().copied()));
    let untraced_p50 = stats::median(&stats::sorted(untraced.iter().copied()));
    out.layers.push(("trace.coverage_min", lo));
    out.layers.push(("trace.coverage_max", hi));
    out.layers
        .push(("trace.overhead", traced_p50 / untraced_p50 - 1.0));
    out.layers.push(("trace.ops", ops.len() as f64));
    out.meta
        .push(("traced_p50_ms".into(), format!("{:.4}", traced_p50 * 1e3)));
    out.meta.push((
        "untraced_p50_ms".into(),
        format!("{:.4}", untraced_p50 * 1e3),
    ));
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn meta_line(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// What the latency metrics of a workload are taken over.
///
/// Host contention on a shared machine only ever slows an op, and comes
/// in stretches of seconds to minutes. A workload whose ops repeat the
/// same deterministic work class by class, each class many times over
/// the run, can summarise each class by one latency that such a stretch
/// moves less than it moves the ops themselves.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum Basis {
    /// Every op's latency.
    #[default]
    EveryOp,
    /// Each op class's best latency.
    ClassBest,
    /// Each op class's median latency.
    ClassMedian,
}

impl Basis {
    fn describe(self) -> &'static str {
        match self {
            Basis::EveryOp => "every op",
            Basis::ClassBest => "best time of each op class",
            Basis::ClassMedian => "median time of each op class",
        }
    }
}

/// One latency per op class — the best or the median (`basis`) of its
/// ops that passed their checks — in class order; each point keeps the
/// start of its class's first op.
pub fn per_class(samples: &[Sample], bad: &[bool], basis: Basis) -> Vec<Sample> {
    let mut classes: std::collections::BTreeMap<usize, (Sample, Vec<f64>)> = Default::default();
    for (s, _) in samples.iter().zip(bad).filter(|(_, &b)| !b) {
        classes.entry(s.class).or_insert((*s, Vec::new())).1.push(s.secs);
    }
    classes
        .into_values()
        .map(|(first, secs)| {
            let secs = stats::sorted(secs);
            Sample {
                secs: match basis {
                    Basis::ClassMedian => stats::median(&secs),
                    _ => secs[0],
                },
                ..first
            }
        })
        .collect()
}

/// Reduces an end-to-end run to its metrics, metadata and verdict.
fn report_measured(args: &Args, m: Measured) -> (bool, u64, u64, Vec<(String, f64, &'static str)>) {
    let attempted = m.samples.len() as u64;
    let mut bad: Vec<bool> = m.samples.iter().map(|s| !s.ok).collect();
    for &i in &m.mismatched {
        bad[i] = true;
    }
    let failed = bad.iter().filter(|&&b| b).count() as u64;
    let completed = attempted - failed;
    write_samples(args, &m, &bad);
    write_digests(args, &m.digests);

    // The latencies the percentiles are taken over: every op, or one per
    // class; ops per second follows the same basis.
    let whole_run_ops_per_s = completed as f64 / m.wall_s;
    let (points, ops_per_s) = if m.basis == Basis::EveryOp {
        (m.samples.clone(), whole_run_ops_per_s)
    } else {
        let points = per_class(&m.samples, &bad, m.basis);
        let busy: f64 = points.iter().map(|s| s.secs).sum();
        let done_share = completed as f64 / attempted.max(1) as f64;
        let rate = points.len() as f64 / busy * done_share;
        (points, rate)
    };
    // Latency order, keeping each point's class for the metadata.
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| points[a].secs.total_cmp(&points[b].secs));
    let lat: Vec<f64> = order.iter().map(|&i| points[i].secs).collect();
    let n = lat.len();
    let p50 = stats::median(&lat);
    let tail_pm = m.tail_permille;
    let tail_idx = stats::rank_index(n, tail_pm);
    let windows = m.tail_windows.max(1);
    let window_tails: Vec<(f64, usize)> = (0..windows)
        .map(|k| {
            let (from, to) = (k as f64, k as f64 + 1.0);
            let span = m.wall_s / windows as f64;
            let lat = stats::sorted(
                points
                    .iter()
                    .filter(|s| s.at >= from * span && (s.at < to * span || k + 1 == windows))
                    .map(|s| s.secs),
            );
            let idx = stats::rank_index(lat.len(), tail_pm);
            (
                lat.get(idx).copied().unwrap_or(f64::NAN),
                lat.len().saturating_sub(idx + 1),
            )
        })
        .collect();
    let tail = stats::median(&stats::sorted(window_tails.iter().map(|w| w.0)));
    let setup = stats::median(&stats::sorted(m.setup_s.iter().copied()));

    let mut meta: Vec<(String, String)> = vec![
        ("workload".into(), args.workload.clone()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
    ];
    for (k, v) in host::fingerprint() {
        meta.push((k.into(), v));
    }
    meta.push(("ops".into(), attempted.to_string()));
    meta.push(("latency_basis".into(), m.basis.describe().into()));
    meta.push(("samples".into(), n.to_string()));
    meta.push((
        "whole_run_ops_per_s".into(),
        format!("{whole_run_ops_per_s:.4}"),
    ));
    meta.push((
        "whole_run_p50_ms".into(),
        format!(
            "{:.4}",
            stats::median(&stats::sorted(m.samples.iter().map(|s| s.secs))) * 1e3
        ),
    ));
    meta.push((
        "tail_percentile".into(),
        format!("p{}", f64::from(tail_pm) / 10.0),
    ));
    meta.push(("tail_windows".into(), windows.to_string()));
    meta.push((
        "tail_samples_beyond".into(),
        window_tails
            .iter()
            .map(|w| w.1)
            .min()
            .unwrap_or(0)
            .to_string(),
    ));
    meta.push((
        "tail_window_values_ms".into(),
        window_tails
            .iter()
            .map(|w| format!("{:.4}", w.0 * 1e3))
            .collect::<Vec<_>>()
            .join(" "),
    ));
    meta.push((
        "tail_whole_run_ms".into(),
        format!(
            "{:.4}",
            lat.get(tail_idx).copied().unwrap_or(f64::NAN) * 1e3
        ),
    ));
    meta.push((
        "highest_tail_with_10_beyond".into(),
        stats::tail_rank(n).map_or("-".into(), |(p, _)| format!("p{}", f64::from(p) / 10.0)),
    ));
    meta.push((
        "setup_runs_s".into(),
        m.setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" "),
    ));
    // Op-class shares, and the classes the p50 and tail samples and
    // the samples beyond the tail fall in.
    let mut counts = vec![0usize; m.classes.len()];
    for s in &m.samples {
        counts[s.class] += 1;
    }
    let (max_class, max_count) = counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, c)| *c)
        .map_or((0, 0), |(i, c)| (i, *c));
    meta.push(("op_classes".into(), m.classes.len().to_string()));
    meta.push((
        "op_classes_seen".into(),
        counts.iter().filter(|&&c| c > 0).count().to_string(),
    ));
    meta.push((
        "largest_class_share".into(),
        format!(
            "{:.4} ({})",
            max_count as f64 / attempted.max(1) as f64,
            m.classes.get(max_class).map_or("-", String::as_str)
        ),
    ));
    let class_of = |rank: usize| {
        order
            .get(rank)
            .map_or("-".to_string(), |&i| m.classes[points[i].class].clone())
    };
    meta.push(("p50_class".into(), class_of(n / 2)));
    meta.push(("tail_class".into(), class_of(tail_idx)));
    // Class names read `<group>/...`: the workload, the engine, or the
    // kind of query.
    let group = |c: usize| {
        let class = &m.classes[c];
        class.split('/').next().unwrap_or(class).to_string()
    };
    let tally = |classes: &mut dyn Iterator<Item = usize>, key: &dyn Fn(usize) -> String| {
        let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
        for c in classes {
            *counts.entry(key(c)).or_default() += 1;
        }
        let mut counts: Vec<(String, usize)> = counts.into_iter().collect();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        counts
            .iter()
            .map(|(c, k)| format!("{c}:{k}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let class = |c: usize| m.classes[c].clone();
    let beyond = || order.iter().skip(tail_idx + 1).map(|&i| points[i].class);
    meta.push((
        "ops_per_group".into(),
        tally(&mut m.samples.iter().map(|s| s.class), &group),
    ));
    meta.push(("groups_beyond_tail".into(), tally(&mut beyond(), &group)));
    meta.push(("classes_beyond_tail".into(), tally(&mut beyond(), &class)));
    meta.extend(m.meta);
    meta.push(("failed_ops".into(), failed.to_string()));
    meta.push(("check_errors".into(), m.errors.join("; ")));

    for e in &m.errors {
        eprintln!("check failed: {e}");
    }
    let correct = failed == 0 && m.errors.is_empty();
    let metrics = vec![
        ("setup_s".to_string(), setup, "s"),
        ("ops_per_s".to_string(), ops_per_s, "1/s"),
        ("p50_ms".to_string(), p50 * 1e3, "ms"),
        ("tail_ms".to_string(), tail * 1e3, "ms"),
        ("peak_rss_mb".to_string(), m.peak_rss_mb, "MB"),
    ];
    write_meta(args, &meta);
    (correct, attempted, failed, metrics)
}

fn report_traced(args: &Args, t: Traced) -> (bool, u64, u64, Vec<(String, f64, &'static str)>) {
    let mut meta: Vec<(String, String)> = vec![
        ("workload".into(), args.workload.clone()),
        ("seed".into(), args.seed.to_string()),
        ("traced".into(), "1".into()),
    ];
    for (k, v) in host::fingerprint() {
        meta.push((k.into(), v));
    }
    meta.extend(t.meta);
    meta.push(("check_errors".into(), t.errors.join("; ")));
    for e in &t.errors {
        eprintln!("check failed: {e}");
    }
    let metrics = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let v = t
                .layers
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            (name.to_string(), v, unit)
        })
        .collect();
    write_meta(args, &meta);
    (
        t.failed == 0 && t.errors.is_empty(),
        t.attempted,
        t.failed,
        metrics,
    )
}

/// Prints the metadata line and keeps a copy beside the spans.
fn write_meta(args: &Args, meta: &[(String, String)]) {
    let line = meta_line(meta);
    println!("meta {line}");
    let path = out_dir().join(format!(
        "{}-seed{}-trace{}.meta.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, line + "\n") {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// Keeps the digest of every checked op output, in the format of the
/// committed `digests.txt`, so a reference seed's digests can be
/// regenerated from a verified run.
fn write_digests(args: &Args, digests: &[(String, u64)]) {
    if digests.is_empty() {
        return;
    }
    let path = out_dir().join(format!("{}-seed{}.digests.txt", args.workload, args.seed));
    let text: String = digests
        .iter()
        .map(|(class, d)| format!("{} {class} {d:016x}\n", args.workload))
        .collect();
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// Keeps every op of the measured phase (order, class, latency, verdict)
/// beside the metadata, so a tail or a host phase can be traced to its
/// ops.
fn write_samples(args: &Args, m: &Measured, bad: &[bool]) {
    let path = out_dir().join(format!("{}-seed{}.samples.tsv", args.workload, args.seed));
    let mut text = String::from("op\tclass\tstart_s\tlatency_ms\tok\n");
    for (i, s) in m.samples.iter().enumerate() {
        let class = m.classes.get(s.class).map_or("-", String::as_str);
        text.push_str(&format!(
            "{i}\t{class}\t{:.4}\t{:.4}\t{}\n",
            s.at,
            s.secs * 1e3,
            !bad[i]
        ));
    }
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn print_metrics(workload: &str, metrics: &[(String, f64, &str)]) {
    for (name, value, unit) in metrics {
        println!("{workload:>14}  {name:<28} {value:>16.6} {unit}");
    }
}

fn run_one(args: &Args) -> (bool, u64, u64, Vec<(String, f64, &'static str)>) {
    if args.trace {
        let t = match args.workload.as_str() {
            "repro_sweep" => repro::traced(args),
            "search_seeded" => search::traced(args),
            _ => service::traced(args),
        };
        report_traced(args, t)
    } else {
        let m = match args.workload.as_str() {
            "repro_sweep" => repro::measure(args),
            "search_seeded" => search::measure(args),
            _ => service::measure(args),
        };
        report_measured(args, m)
    }
}

/// Runs every workload in a child process of its own, so each peak
/// resident set belongs to one workload alone.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics: Vec<String> = Vec::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("run a workload process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let Some(last) = stdout.lines().last().filter(|_| out.status.success()) else {
            eprintln!("{w}: exited with {}", out.status);
            return ExitCode::FAILURE;
        };
        for line in stdout.lines() {
            if !line.starts_with('{') {
                println!("{line}");
            }
        }
        let v = sapa_service::json::parse(last).expect("workload result is JSON");
        use sapa_service::json::Json;
        all_correct &= v.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += v.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += v.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Obj(pairs)) = v.get("metrics") {
            for (name, m) in pairs {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                metrics.push(format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&format!("{w}.{name}")),
                    json_num(value),
                    json_str(unit)
                ));
            }
        }
    }
    println!(
        "{{\"correct\": {all_correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let (correct, attempted, failed, metrics) = run_one(&args);
    if attempted == 0 {
        eprintln!("perfbench: {}: no op ran", args.workload);
        return ExitCode::FAILURE;
    }
    print_metrics(&args.workload, &metrics);
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_shuffle() {
        let p = permutation(100, 7);
        let mut s = p.clone();
        s.sort_unstable();
        assert_eq!(s, (0..100).collect::<Vec<_>>());
        assert_eq!(p, permutation(100, 7));
        assert_ne!(p, permutation(100, 8));
    }

    #[test]
    fn per_class_keeps_each_class_best_or_median_passing_op() {
        let op = |class, secs, ok| Sample {
            at: 0.0,
            secs,
            class,
            ok,
        };
        let samples = [
            op(1, 0.30, true),
            op(0, 0.20, true),
            op(1, 0.25, true),
            op(0, 0.10, true),
            op(1, 0.05, true),
            op(2, 0.01, false),
            op(0, 0.40, true),
        ];
        // The 0.05 op of class 1 failed its output check.
        let bad = [false, false, false, false, true, true, false];
        let got = |basis| {
            per_class(&samples, &bad, basis)
                .iter()
                .map(|s| (s.class, s.secs))
                .collect::<Vec<_>>()
        };
        assert_eq!(got(Basis::ClassBest), [(0, 0.10), (1, 0.25)]);
        assert_eq!(got(Basis::ClassMedian), [(0, 0.20), (1, 0.275)]);
    }

    #[test]
    fn result_line_has_exactly_the_four_result_keys() {
        let line = result_line(true, 3, 0, &[("p50_ms".into(), 1.25, "ms")]);
        let v = sapa_service::json::parse(&line).unwrap();
        let sapa_service::json::Json::Obj(pairs) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("p50_ms"))
                .and_then(|m| m.get("value"))
                .and_then(sapa_service::json::Json::as_f64),
            Some(1.25)
        );
    }
}
