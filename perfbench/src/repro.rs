//! `repro_sweep`: the reproduction path — trace generation, packing,
//! and serial simulator jobs over a fixed grid of configurations.
//!
//! Set-up builds the evaluation inputs from the seed and packs the five
//! workload traces. Each op is one [`SweepJob::try_run_with`] on a
//! fresh simulator (no memo), so an op does the same work in every run.
//! The grid mixes memory-bound points (BLAST at `me1`) with
//! compute-bound ones (SIMD SW at `meinf`), so a change that speeds one
//! kind at the other's cost shows.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sapa_core::bioseq::db::DatabaseBuilder;
use sapa_core::cpu::config::{BranchConfig, CpuConfig, IssueModel, MemConfig};
use sapa_core::cpu::{DecodeBuf, SimConfig, SimReport, SweepJob};
use sapa_core::isa::{BlockDecoder, Inst, PackedTrace, BLOCK_LEN};
use sapa_core::workloads::{StandardInputs, Workload};

use crate::stats::Digest;
use crate::trace::{self, Tracer};
use crate::{Args, Measured, Sample, Traced};

/// Set-ups per end-to-end run; `setup_s` is their median. The first
/// feeds the measured phase; the others run after it.
const SETUP_REPEATS: usize = 15;
/// `tail_ms` percentile over the 54 grid points' best job times: p80
/// keeps ten beyond it.
const TAIL_PERMILLE: u32 = 800;
/// Database size: small enough that a pass over the grid takes ~1.6 s on
/// a quiet host, so that the host's quiet stretches of a second or two
/// reach every grid point (see `Basis::ClassBest`).
const DB_SEQUENCES: usize = 12;
/// Share of planted homologs of the query in the database (one of the
/// 12 sequences at the generator's seed).
const DB_HOMOLOG_FRACTION: f64 = 0.15;
/// Database sequences the SW workloads (and SSEARCH34) process.
const SW_SUBSET: usize = 1;

/// One grid point: a workload's trace under one configuration.
struct Point {
    workload: usize,
    name: String,
    mem: &'static str,
    config: SimConfig,
}

/// A machine shape: width, memory preset, perfect prediction, issue
/// model.
type Shape = (u32, &'static str, bool, IssueModel);

/// Shapes simulated for every trace, memory-bound and compute-bound
/// ones alternating; SSEARCH34, whose trace is the longest, runs the
/// first [`SSEARCH_SHAPES`] only.
const SHAPES: [Shape; 12] = [
    (4, "me1", false, IssueModel::OutOfOrder),
    (16, "meinf", false, IssueModel::OutOfOrder),
    (4, "me3", false, IssueModel::OutOfOrder),
    (8, "me1", false, IssueModel::OutOfOrder),
    (16, "meinf", true, IssueModel::Scoreboard),
    (4, "me1", true, IssueModel::OutOfOrder),
    (8, "meinf", false, IssueModel::OutOfOrder),
    (4, "me4", false, IssueModel::OutOfOrder),
    (16, "me1", false, IssueModel::OutOfOrder),
    (4, "me1", false, IssueModel::Scoreboard),
    (8, "me2", false, IssueModel::OutOfOrder),
    (16, "me3", true, IssueModel::Scoreboard),
];
const SSEARCH_SHAPES: usize = 6;

fn point(workload: usize, (width, mem, perfect, model): Shape) -> Point {
    let mut cpu = match width {
        4 => CpuConfig::four_way(),
        8 => CpuConfig::eight_way(),
        _ => CpuConfig::sixteen_way(),
    };
    cpu.issue_model = model;
    let config = SimConfig {
        cpu,
        mem: match mem {
            "me1" => MemConfig::me1(),
            "me2" => MemConfig::me2(),
            "me3" => MemConfig::me3(),
            "me4" => MemConfig::me4(),
            _ => MemConfig::meinf(),
        },
        branch: if perfect {
            BranchConfig::perfect()
        } else {
            BranchConfig::table_vi()
        },
    };
    let name = format!(
        "{}/{width}w/{mem}/{}/{}",
        Workload::ALL[workload].label(),
        if perfect { "perfect" } else { "real" },
        if model == IssueModel::OutOfOrder {
            "ooo"
        } else {
            "scoreboard"
        }
    );
    Point {
        workload,
        name,
        mem,
        config,
    }
}

/// The 54-point grid (widths 4/8/16, `me1`–`meinf`, real and perfect
/// prediction, OOO and scoreboard issue; each point 1/54 of the ops),
/// in the order every pass visits it: the workloads take turns at each
/// shape.
fn grid() -> Vec<Point> {
    let mut points = Vec::new();
    for (k, &shape) in SHAPES.iter().enumerate() {
        for (w, workload) in Workload::ALL.iter().enumerate() {
            if k < SSEARCH_SHAPES || !matches!(workload, Workload::Ssearch34) {
                points.push(point(w, shape));
            }
        }
    }
    points
}

/// The evaluation inputs: the GST query against a 12-sequence database
/// from the suite's generator at its standard seed (2006), with planted
/// homologs, whose sequences after the SW subset `seed` permutes.
///
/// The seed moves every database sequence but the first — and with it
/// the heuristics' hit order and every address the traces touch — but
/// no residue, so the work per op is the same at every seed. Residues
/// drawn afresh from the seed instead moved the FASTA34 and BLAST trace
/// lengths by ±12% from seed to seed, more than the spread the host
/// leaves.
fn inputs(seed: u64) -> StandardInputs {
    let mut inputs = StandardInputs::with_db_size(0, SW_SUBSET);
    let mut db = DatabaseBuilder::new()
        .seed(2006)
        .sequences(DB_SEQUENCES)
        .homolog_template(inputs.query.clone())
        .homolog_fraction(DB_HOMOLOG_FRACTION)
        .build()
        .sequences()
        .to_vec();
    let order = crate::permutation(DB_SEQUENCES - SW_SUBSET, seed);
    let tail: Vec<_> = order.iter().map(|&i| db[SW_SUBSET + i].clone()).collect();
    db.truncate(SW_SUBSET);
    db.extend(tail);
    inputs.db = db;
    inputs
}

/// Set-up: inputs, then each workload's trace, packed.
fn setup(seed: u64, tracer: Option<&mut Tracer>) -> Vec<Arc<PackedTrace>> {
    let inputs = inputs(seed);
    let mut spare = Tracer::new();
    let t = tracer.unwrap_or(&mut spare);
    Workload::ALL
        .iter()
        .map(|w| {
            let bundle = t.span("workloads.trace", |_| w.trace(&inputs));
            Arc::new(t.span("isa.pack", |_| PackedTrace::from_trace(&bundle.trace)))
        })
        .collect()
}

/// Digest of every simulated statistic a speed-only change must keep.
fn report_digest(r: &SimReport) -> u64 {
    let mut d = Digest::default().u64(r.cycles).u64(r.instructions);
    for (_, cycles) in r.traumas.rows() {
        d = d.u64(cycles);
    }
    for c in [&r.dl1, &r.il1, &r.l2, &r.dtlb, &r.itlb] {
        d = d.u64(c.accesses).u64(c.misses);
    }
    d = d
        .u64(r.store_forwards)
        .u64(r.bp_predictions)
        .u64(r.bp_mispredictions);
    for &u in &r.unit_issued {
        d = d.u64(u);
    }
    let s = &r.structures;
    for v in [
        s.rename_stalls,
        s.rs_full_stalls,
        s.rob_full_stalls,
        s.lq_full_stalls,
        s.sq_full_stalls,
        s.replays,
        s.replay_wait_cycles,
    ] {
        d = d.u64(v);
    }
    d.finish()
}

/// Output checks shared by both runs: the job retired its whole trace,
/// repeats of a point are identical, and at the reference seed the
/// report matches the committed digest.
struct Checker {
    first: BTreeMap<usize, SimReport>,
    committed: BTreeMap<String, u64>,
    reference: bool,
    errors: Vec<String>,
}

impl Checker {
    fn new(seed: u64) -> Self {
        Checker {
            first: BTreeMap::new(),
            committed: crate::committed_digests("repro_sweep")
                .into_iter()
                .collect(),
            reference: seed == crate::REFERENCE_SEED,
            errors: Vec::new(),
        }
    }

    /// Whether `report` is a correct output of grid point `p`.
    fn check(&mut self, p: usize, point: &Point, trace: &PackedTrace, report: &SimReport) -> bool {
        if report.instructions != trace.len() as u64 {
            self.errors.push(format!(
                "{}: retired {} of {} instructions",
                point.name,
                report.instructions,
                trace.len()
            ));
            return false;
        }
        if let Some(first) = self.first.get(&p) {
            if first != report {
                self.errors
                    .push(format!("{}: repeated job differs", point.name));
                return false;
            }
        } else {
            self.first.insert(p, report.clone());
        }
        if self.reference {
            let got = report_digest(report);
            match self.committed.get(&point.name) {
                Some(&want) if want == got => {}
                want => {
                    self.errors.push(format!(
                        "{}: digest {got:016x}, committed {want:016x?}",
                        point.name
                    ));
                    return false;
                }
            }
        }
        true
    }
}

/// The end-to-end run.
pub fn measure(args: &Args) -> Measured {
    let mut m = Measured::default();
    let start = Instant::now();
    let traces = setup(args.seed, None);
    m.setup_s.push(start.elapsed().as_secs_f64());
    let checksums: Vec<u64> = traces.iter().map(|t| t.checksum()).collect();

    let points = grid();
    let n = points.len();
    let mut buf = DecodeBuf::new();
    let mut checker = Checker::new(args.seed);
    let mut insts = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let p = m.samples.len() % n;
        let job = SweepJob::new(
            Arc::clone(&traces[points[p].workload]),
            points[p].config.clone(),
        );
        let t = Instant::now();
        let outcome = job.try_run_with(&mut buf);
        m.samples.push(Sample {
            at: t.duration_since(start).as_secs_f64(),
            secs: t.elapsed().as_secs_f64(),
            class: p,
            ok: outcome.is_ok(),
        });
        // Checked between jobs, outside every job's timing, so that the
        // run keeps one report per grid point: a report per job would
        // grow the resident set with the number of jobs completed, and
        // a faster simulator would read as a memory regression.
        match outcome {
            Ok(r) => {
                insts += r.instructions;
                if !checker.check(p, &points[p], &traces[points[p].workload], &r) {
                    m.mismatched.push(m.samples.len() - 1);
                }
            }
            Err(e) => checker.errors.push(format!("{}: {e}", points[p].name)),
        }
        // The peak over set-up and the first pass of the grid — the work
        // `repro all` does, each configuration once. Later passes repeat
        // it, yet heap fragmentation let the resident set creep by up to
        // 8 MB over them, by an amount that followed how many jobs the
        // host let a run complete.
        if m.samples.len() == n {
            m.peak_rss_mb = crate::host::peak_rss_mb();
        }
    }
    m.wall_s = start.elapsed().as_secs_f64();
    if m.samples.len() < n {
        m.peak_rss_mb = crate::host::peak_rss_mb();
    }
    m.tail_permille = TAIL_PERMILLE;
    m.tail_windows = 1;
    m.basis = crate::Basis::ClassBest;

    m.digests = checker
        .first
        .iter()
        .map(|(&p, r)| (points[p].name.clone(), report_digest(r)))
        .collect();
    m.errors.extend(checker.errors);
    m.classes = points.iter().map(|p| p.name.clone()).collect();
    m.meta.push((
        "trace_lengths".into(),
        traces
            .iter()
            .zip(Workload::ALL)
            .map(|(t, w)| format!("{}:{}", w.label(), t.len()))
            .collect::<Vec<_>>()
            .join(" "),
    ));
    m.meta.push((
        "sim_minst_per_s".into(),
        format!("{:.3}", insts as f64 / m.wall_s / 1e6),
    ));
    m.meta.push((
        "grid_passes".into(),
        format!("{:.2}", m.samples.len() as f64 / points.len() as f64),
    ));

    // The other set-ups `setup_s` takes the median of run after the
    // resident set is read: set-up after set-up fragments the heap, and
    // grew the resident set by 2–8 MB more, by an amount that changed
    // from seed to seed, than the one set-up a run of the reproduction
    // does.
    drop(traces);
    for _ in 1..SETUP_REPEATS {
        let start = Instant::now();
        let again = setup(args.seed, None);
        m.setup_s.push(start.elapsed().as_secs_f64());
        if again.iter().map(|t| t.checksum()).ne(checksums.iter().copied()) {
            m.errors.push("set-up is not deterministic".into());
        }
    }
    m
}

/// Decodes every trace through [`BlockDecoder::fill`] alone; returns
/// million instructions per second.
fn decode_rate(traces: &[Arc<PackedTrace>]) -> f64 {
    let mut buf: Vec<Inst> = vec![Default::default(); BLOCK_LEN];
    let (mut insts, mut secs) = (0usize, 0.0);
    for _ in 0..3 {
        for t in traces {
            let start = Instant::now();
            let mut d = BlockDecoder::new(t);
            loop {
                let n = d.fill(&mut buf);
                if n == 0 {
                    break;
                }
                insts += n;
                std::hint::black_box(&buf[..n]);
            }
            secs += start.elapsed().as_secs_f64();
        }
    }
    insts as f64 / secs / 1e6
}

/// The traced run: one traced set-up, decode alone, then every grid
/// point once untraced and once traced.
pub fn traced(args: &Args) -> Traced {
    let mut out = Traced::default();
    let mut tracer = Tracer::new();
    let traces = setup(args.seed, Some(&mut tracer));
    let spans = tracer.spans();
    let (heap, len) = traces.iter().fold((0usize, 0usize), |(h, l), t| {
        (h + t.heap_bytes(), l + t.len())
    });
    out.layers
        .push(("workloads.trace_s", trace::total(spans, "workloads.trace")));
    out.layers
        .push(("isa.pack_s", trace::total(spans, "isa.pack")));
    out.layers
        .push(("isa.bytes_per_inst", heap as f64 / len as f64));
    out.layers
        .push(("isa.decode_minst_per_s", decode_rate(&traces)));

    let points = grid();
    let mut checker = Checker::new(args.seed);
    let mut buf = DecodeBuf::new();
    let mut untraced = Vec::new();
    let (mut insts, mut cycles) = (0u64, 0u64);
    let mut per_mem: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    for (p, point) in points.iter().enumerate() {
        let trace = &traces[point.workload];
        let job = SweepJob::new(Arc::clone(trace), point.config.clone());
        let start = Instant::now();
        let plain = job.try_run_with(&mut buf);
        untraced.push(start.elapsed().as_secs_f64());

        tracer.set_op(p as u64 + 1);
        let replay = tracer.span("op", |t| {
            let job = SweepJob::new(Arc::clone(trace), point.config.clone());
            t.span("cpu.sim", |_| job.try_run_with(&mut buf))
        });
        out.attempted += 1;
        let ok = match (&plain, &replay) {
            (Ok(a), Ok(b)) if a == b => {
                insts += b.instructions;
                cycles += b.cycles;
                let wall = tracer.spans().last().map_or(0.0, |s| s.end - s.start);
                let e = per_mem.entry(point.mem).or_default();
                e.0 += wall;
                e.1 += b.cycles;
                checker.check(p, point, trace, b)
            }
            (Ok(_), Ok(_)) => {
                checker
                    .errors
                    .push(format!("{}: traced replay differs", point.name));
                false
            }
            (Err(e), _) | (_, Err(e)) => {
                checker.errors.push(format!("{}: {e}", point.name));
                false
            }
        };
        out.failed += u64::from(!ok);
    }
    out.errors.extend(checker.errors);

    let spans = tracer.spans();
    let ops = trace::op_layers(spans, "op");
    let sim_s = trace::total(spans, "cpu.sim");
    out.layers
        .push(("cpu.ns_per_inst", sim_s / insts as f64 * 1e9));
    for (mem, name) in [
        ("me1", "cpu.ns_per_cycle.me1"),
        ("meinf", "cpu.ns_per_cycle.meinf"),
    ] {
        let (wall, cyc) = per_mem.get(mem).copied().unwrap_or_default();
        out.layers.push((name, wall / cyc as f64 * 1e9));
    }
    out.layers.push(("cpu.sim_insts", insts as f64));
    out.layers.push(("cpu.sim_cycles", cycles as f64));
    let walls: Vec<f64> = ops.values().map(|o| o.wall).collect();
    crate::coverage_and_overhead(&mut out, &ops, &walls, &untraced, args);
    if let Err(e) = tracer
        .write_tsv(&crate::out_dir().join(format!("{}-seed{}.spans.tsv", args.workload, args.seed)))
    {
        out.errors.push(format!("writing spans: {e}"));
    }
    out
}
