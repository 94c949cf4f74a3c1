//! Simulator replay and sweep throughput — the headline measurements
//! for the parallel-sweep PR.
//!
//! Groups:
//!
//! * `sim_replay` — one BLAST trace through the 4-way baseline, as an
//!   array-of-structs `Trace` vs the compact `PackedTrace`, reported in
//!   simulated instructions per second, plus the packed trace under the
//!   scoreboard issue model so the staged backend's bookkeeping cost is
//!   measured (`derived.ooo_vs_scoreboard_replay_speed`; the CI gate
//!   holds the out-of-order model to ≥ 0.9× scoreboard throughput);
//! * `trace_decode` — decode cost alone, no simulation: AoS slice
//!   iteration vs the packed trace's iterator (one instruction per
//!   `next()` out of a block-decoded buffer) vs the packed block
//!   decoder alone, so decode throughput is separable from sim
//!   throughput;
//! * `sim_sweep` — a 12-point grid (3 widths × 2 memories × 2
//!   predictors) over one shared packed trace, serial vs 2 and 4 sweep
//!   threads.
//!
//! Outside `--test` mode the run writes `BENCH_sim.json` at the
//! repository root: per-bench medians, simulated-instructions-per-
//! second rates, the packed-vs-AoS trace footprint, and the measured
//! sweep speedups (bounded by `host_cpus` — on a single-core host the
//! threaded points measure scheduling overhead, not speedup).
//!
//! `--smoke` runs a cut-down variant for CI: smaller trace, fewer
//! samples, no sweep group, output to `BENCH_sim_smoke.json` — just
//! enough signal to gate on `derived.packed_vs_aos_replay_speed`.

use std::sync::Arc;

use sapa_bench::harness::{Criterion, Throughput};
use sapa_core::cpu::config::{BranchConfig, CpuConfig, IssueModel, MemConfig, SimConfig};
use sapa_core::cpu::sweep::{run_jobs, SweepJob};
use sapa_core::cpu::Simulator;
use sapa_core::isa::{Inst, PackedTrace, Trace, BLOCK_LEN};
use sapa_core::workloads::{StandardInputs, Workload};

fn bench_trace(smoke: bool) -> Trace {
    // BLAST at a reduced database: a few hundred thousand instructions,
    // large enough to dwarf per-run setup, small enough to iterate. The
    // smoke trace is smaller again so CI pays seconds, not minutes.
    let inputs = if smoke {
        StandardInputs::with_db_size(20, 1)
    } else {
        StandardInputs::with_db_size(60, 2)
    };
    Workload::Blast.trace(&inputs).trace
}

fn sweep_grid() -> Vec<SimConfig> {
    let mut grid = Vec::new();
    for cpu in [
        CpuConfig::four_way(),
        CpuConfig::eight_way(),
        CpuConfig::sixteen_way(),
    ] {
        for mem in [MemConfig::me1(), MemConfig::meinf()] {
            for branch in [BranchConfig::table_vi(), BranchConfig::perfect()] {
                grid.push(SimConfig {
                    cpu: cpu.clone(),
                    mem: mem.clone(),
                    branch,
                });
            }
        }
    }
    grid
}

fn replay(c: &mut Criterion, trace: &Trace, packed: &Arc<PackedTrace>) {
    let sim = Simulator::new(SimConfig::four_way());
    let mut sb_cfg = SimConfig::four_way();
    sb_cfg.cpu.issue_model = IssueModel::Scoreboard;
    let scoreboard = Simulator::new(sb_cfg);
    let mut group = c.benchmark_group("sim_replay");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("aos_trace", |b| b.iter(|| sim.run(trace)));
    group.bench_function("packed_trace", |b| b.iter(|| sim.run_packed(packed)));
    group.bench_function("packed_trace_scoreboard", |b| {
        b.iter(|| scoreboard.run_packed(packed))
    });
    group.finish();
}

/// Decode cost in isolation: each variant streams every instruction
/// through a cheap fold so the decoded values are actually consumed but
/// nothing microarchitectural runs.
fn decode(c: &mut Criterion, trace: &Trace, packed: &Arc<PackedTrace>) {
    #[inline]
    fn fold(acc: u64, inst: &Inst) -> u64 {
        acc.wrapping_add(inst.pc as u64) ^ inst.ea as u64 ^ inst.flags as u64
    }
    let mut group = c.benchmark_group("trace_decode");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("aos_iterate", |b| {
        b.iter(|| std::hint::black_box(trace.insts().iter().fold(0u64, fold)))
    });
    group.bench_function("packed_iter", |b| {
        b.iter(|| std::hint::black_box(packed.iter().fold(0u64, |a, i| fold(a, &i))))
    });
    group.bench_function("packed_block", |b| {
        let mut buf = vec![Inst::default(); BLOCK_LEN];
        b.iter(|| {
            let mut d = packed.block_decoder();
            let mut acc = 0u64;
            loop {
                let n = d.fill(&mut buf);
                if n == 0 {
                    break;
                }
                acc = buf[..n].iter().fold(acc, fold);
            }
            std::hint::black_box(acc)
        })
    });
    group.finish();
}

fn sweep(c: &mut Criterion, packed: &Arc<PackedTrace>) {
    let jobs: Vec<SweepJob> = sweep_grid()
        .into_iter()
        .map(|cfg| SweepJob::new(Arc::clone(packed), cfg))
        .collect();
    let insts = packed.len() as u64 * jobs.len() as u64;
    let mut group = c.benchmark_group("sim_sweep_12pt");
    group.throughput(Throughput::Elements(insts));
    group.bench_function("serial", |b| b.iter(|| run_jobs(&jobs, 1)));
    for threads in [2usize, 4] {
        group.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| run_jobs(&jobs, threads))
        });
    }
    group.finish();
}

fn write_json(c: &Criterion, trace: &Trace, packed: &PackedTrace, path: &str) {
    let mut entries = String::new();
    for (i, r) in c.results().iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        let rate = r
            .elements_per_sec
            .map_or("null".to_string(), |v| format!("{v:.1}"));
        entries.push_str(&format!(
            "    {{\"group\": \"{}\", \"name\": \"{}\", \"median_ns_per_iter\": {:.1}, \"sim_insts_per_sec\": {}}}",
            r.group, r.name, r.median_ns, rate
        ));
    }
    let ratio = |fast: &str, slow: &str| -> String {
        match (
            c.result("sim_sweep_12pt", slow),
            c.result("sim_sweep_12pt", fast),
        ) {
            (Some(s), Some(f)) if f.median_ns > 0.0 => {
                format!("{:.3}", s.median_ns / f.median_ns)
            }
            _ => "null".to_string(),
        }
    };
    // Speed of `fast` relative to `slow` within one group (>1 = faster).
    let speed = |group: &str, slow: &str, fast: &str| -> String {
        match (c.result(group, slow), c.result(group, fast)) {
            (Some(s), Some(f)) if f.median_ns > 0.0 => {
                format!("{:.3}", s.median_ns / f.median_ns)
            }
            _ => "null".to_string(),
        }
    };
    let replay_ratio = speed("sim_replay", "aos_trace", "packed_trace");
    let model_ratio = speed("sim_replay", "packed_trace_scoreboard", "packed_trace");
    let decode_ratio = speed("trace_decode", "packed_iter", "packed_block");
    let aos_bytes = trace.len() * std::mem::size_of::<sapa_core::isa::Inst>();
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    // One reference run of the baseline (out-of-order) model, so the
    // report carries the per-structure pressure behind the timings.
    let report = Simulator::new(SimConfig::four_way()).run_packed(packed);
    let s = &report.structures;
    let structures = format!(
        "  \"structures\": {{\n    \"rename_stalls\": {},\n    \"rs_full_stalls\": {},\n    \"rob_full_stalls\": {},\n    \"lq_full_stalls\": {},\n    \"sq_full_stalls\": {},\n    \"replays\": {},\n    \"replay_wait_cycles\": {},\n    \"mean_rob_occupancy\": {:.2},\n    \"mean_lq_occupancy\": {:.2},\n    \"mean_sq_occupancy\": {:.2}\n  }},\n",
        s.rename_stalls,
        s.rs_full_stalls,
        s.rob_full_stalls,
        s.lq_full_stalls,
        s.sq_full_stalls,
        s.replays,
        s.replay_wait_cycles,
        report.retireq_occupancy.mean(),
        report.lq_occupancy.mean(),
        report.sq_occupancy.mean(),
    );
    let json = format!(
        "{{\n  \"bench\": \"sim\",\n  \"workload\": \"BLAST\",\n  \"trace_insts\": {},\n  \"host_cpus\": {cpus},\n  \"trace_bytes_aos\": {aos_bytes},\n  \"trace_bytes_packed\": {},\n{structures}  \"results\": [\n{entries}\n  ],\n  \"derived\": {{\n    \"packed_vs_aos_replay_speed\": {replay_ratio},\n    \"ooo_vs_scoreboard_replay_speed\": {model_ratio},\n    \"block_vs_iter_decode_speed\": {decode_ratio},\n    \"trace_compression\": {:.3},\n    \"sweep_speedup_t2_vs_serial\": {},\n    \"sweep_speedup_t4_vs_serial\": {}\n  }}\n}}\n",
        trace.len(),
        packed.heap_bytes(),
        aos_bytes as f64 / packed.heap_bytes() as f64,
        ratio("threads_2", "serial"),
        ratio("threads_4", "serial"),
    );
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    // `--smoke` is ours; the harness ignores flags it does not know.
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut c = Criterion::from_args().sample_size(if smoke { 5 } else { 10 });
    let trace = bench_trace(smoke);
    let packed = Arc::new(PackedTrace::from_trace(&trace));
    replay(&mut c, &trace, &packed);
    decode(&mut c, &trace, &packed);
    if !smoke {
        sweep(&mut c, &packed);
    }
    if !c.is_test_mode() {
        let path = if smoke {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim_smoke.json")
        } else {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json")
        };
        write_json(&c, &trace, &packed, path);
    }
}
