//! The cycle-driven out-of-order pipeline model.
//!
//! Stage order within a cycle is retire → issue → dispatch → fetch, so
//! an instruction needs at least one cycle per stage (no same-cycle
//! pass-through), matching the multi-stage pipes of the machines the
//! paper models.
//!
//! ## Staged backend
//!
//! The backend is split into the classical out-of-order structures,
//! one module each:
//!
//! * `rename` — the register alias table and physical-register
//!   free-list accounting (dispatch resource, true-dependence source);
//! * `rs` — per-unit-class reservation stations feeding the
//!   limited-window oldest-first issue scan;
//! * `rob` — the retirement-ordered reorder buffer owning all
//!   in-flight instruction state;
//! * `lsq` — the load–store queue and its memory-disambiguation
//!   policy (speculative load bypass with store-resolve replay);
//! * `engine` — the cycle loop tying the stages together.
//!
//! [`crate::config::IssueModel`] selects between the speculative
//! disambiguation policy (`OutOfOrder`, the default) and the original
//! conservative dispatch-time policy (`Scoreboard`), which is kept as
//! a comparison oracle: both models retire the same instructions with
//! identical trace-derived statistics and differ only in timing.
//!
//! ## Trauma attribution
//!
//! On every cycle in which no instruction retires, one cycle is charged
//! to the stall reason of the oldest in-flight instruction — or, when
//! the window is empty, to the reason instruction fetch is not
//! delivering (branch-misprediction recovery, I-cache miss, NFA
//! redirect, …). This is the Moreno et al. accounting that produces the
//! paper's Figure 2 histograms. On top of it, the staged backend
//! reports per-structure pressure ([`crate::stats::StructStalls`]):
//! which structure blocked dispatch, how many loads the LSQ squashed,
//! and how long the window head waited on replays.

mod engine;
mod lsq;
mod rename;
mod rob;
mod rs;

use sapa_isa::inst::{Inst, OpClass};
use sapa_isa::packed::{BlockDecoder, PackedTrace, TraceError, BLOCK_LEN};
use sapa_isa::trace::Trace;

use crate::cache::ServedBy;
use crate::config::{SimConfig, UnitClass};
use crate::stats::SimReport;
use crate::trauma::Trauma;

use engine::Engine;

/// Maps an instruction class to the functional-unit class that executes
/// it (Table IV's unit mix).
#[inline]
pub fn unit_for(op: OpClass) -> UnitClass {
    match op {
        OpClass::IAlu | OpClass::Other => UnitClass::Fix,
        OpClass::ILoad | OpClass::IStore | OpClass::VLoad | OpClass::VStore => UnitClass::Mem,
        OpClass::Branch => UnitClass::Br,
        OpClass::Fpu => UnitClass::Fpu,
        OpClass::VSimple => UnitClass::Vi,
        OpClass::VPerm => UnitClass::Vper,
        OpClass::VCmplx => UnitClass::Vcmplx,
        OpClass::VFpu => UnitClass::Vfpu,
    }
}

/// The trace-driven simulator.
///
/// Construct once per configuration; [`Simulator::run`] may be called
/// repeatedly (each run uses fresh microarchitectural state).
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: SimConfig,
}

impl Simulator {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    pub fn new(cfg: SimConfig) -> Self {
        if let Err(msg) = cfg.validate() {
            panic!("invalid simulator configuration: {msg}");
        }
        Simulator { cfg }
    }

    /// The configuration this simulator models.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Simulates `trace` to completion and returns the measurements.
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds an internal watchdog of
    /// `1000 × len + 10^6` cycles, which would indicate a scheduling
    /// deadlock (an internal bug, not a configuration problem).
    pub fn run(&self, trace: &Trace) -> SimReport {
        self.run_with(trace, &mut DecodeBuf::new())
    }

    /// [`Simulator::run`] with a caller-owned [`DecodeBuf`], so repeated
    /// runs (sweeps) reuse one block buffer instead of allocating per
    /// replay.
    pub fn run_with(&self, trace: &Trace, buf: &mut DecodeBuf) -> SimReport {
        let insts = trace.insts();
        let mut src = SliceSource { insts, pos: 0 };
        Engine::new(&self.cfg, insts.len(), &mut src, buf).run()
    }

    /// Simulates a [`PackedTrace`] without unpacking it: the replay
    /// block-decodes the compact structure-of-arrays streams into a
    /// small reusable buffer ([`BlockDecoder`]), so each instruction is
    /// decoded exactly once and the decoded form stays L1-resident.
    /// Produces exactly the same report as [`Simulator::run`] on the
    /// equivalent [`Trace`].
    ///
    /// # Panics
    ///
    /// Same watchdog as [`Simulator::run`].
    pub fn run_packed(&self, trace: &PackedTrace) -> SimReport {
        self.run_packed_with(trace, &mut DecodeBuf::new())
    }

    /// [`Simulator::run_packed`] with a caller-owned [`DecodeBuf`]; the
    /// sweep engine gives each worker thread one buffer for its whole
    /// job stream.
    pub fn run_packed_with(&self, trace: &PackedTrace, buf: &mut DecodeBuf) -> SimReport {
        let mut src = trace.block_decoder();
        Engine::new(&self.cfg, trace.len(), &mut src, buf).run()
    }

    /// [`Simulator::run_packed`] hardened against corrupted or malformed
    /// traces, so untrusted bytes yield a typed [`TraceError`] instead of
    /// a panic deep inside the decode or replay loop.
    ///
    /// Before the replay, [`PackedTrace::verify`] checks the stream
    /// structure, the checksum and the architectural invariants of
    /// [`sapa_isa::validate`]; a trace that fails never reaches the
    /// pipeline. The trace keeps that verdict, so only the first replay
    /// of a trace pays for it (~45 ns per instruction), and every later
    /// one — from any thread — decodes unchecked, exactly as
    /// [`Simulator::run_packed`] does.
    ///
    /// # Errors
    ///
    /// [`TraceError`] describing the first structural problem, checksum
    /// mismatch, or invariant violation.
    pub fn try_run_packed(&self, trace: &PackedTrace) -> Result<SimReport, TraceError> {
        self.try_run_packed_with(trace, &mut DecodeBuf::new())
    }

    /// [`Simulator::try_run_packed`] with a caller-owned [`DecodeBuf`].
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::try_run_packed`].
    pub fn try_run_packed_with(
        &self,
        trace: &PackedTrace,
        buf: &mut DecodeBuf,
    ) -> Result<SimReport, TraceError> {
        trace.verify()?;
        Ok(self.run_packed_with(trace, buf))
    }
}

/// Reusable block-decode scratch: [`BLOCK_LEN`] decoded instructions
/// (4 KB — comfortably L1-resident). The engine fills it from its
/// instruction source one block at a time and the fetch stage reads decoded
/// `Inst`s straight out of it, so per-instruction decode state never
/// crosses the source boundary. Allocate once per thread and pass to
/// [`Simulator::run_packed_with`] to amortize the allocation across a
/// whole sweep.
#[derive(Debug, Clone)]
pub struct DecodeBuf {
    buf: Vec<Inst>,
}

impl DecodeBuf {
    /// A fresh buffer of [`BLOCK_LEN`] slots.
    pub fn new() -> Self {
        DecodeBuf {
            buf: vec![Inst::default(); BLOCK_LEN],
        }
    }
}

impl Default for DecodeBuf {
    fn default() -> Self {
        DecodeBuf::new()
    }
}

/// Where the engine pulls instructions from, a block at a time:
/// `fill_block` decodes up to `buf.len()` instructions into the front
/// of `buf` and returns how many it wrote (0 once the trace is
/// exhausted). Successive calls continue where the last one stopped.
/// A source trusts its trace: the checked replay verified it first.
trait InstSource {
    fn fill_block(&mut self, buf: &mut [Inst]) -> usize;
}

/// Array-of-structs source: blocks are plain `memcpy`s out of the
/// slice, so the batched front end costs the AoS path almost nothing.
struct SliceSource<'a> {
    insts: &'a [Inst],
    pos: usize,
}

impl InstSource for SliceSource<'_> {
    #[inline]
    fn fill_block(&mut self, buf: &mut [Inst]) -> usize {
        let n = (self.insts.len() - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.insts[self.pos..self.pos + n]);
        self.pos += n;
        n
    }
}

/// Compact source: blocks come from [`BlockDecoder::fill`], the
/// batch-decode fast path over the structure-of-arrays streams.
impl InstSource for BlockDecoder<'_> {
    #[inline]
    fn fill_block(&mut self, buf: &mut [Inst]) -> usize {
        self.fill(buf)
    }
}

/// Register-dependency trauma for a producer of class `op`.
fn rg_trauma_for(op: OpClass, served: Option<ServedBy>) -> Trauma {
    match op {
        OpClass::IAlu | OpClass::Other => Trauma::RgFix,
        OpClass::ILoad | OpClass::VLoad => match served {
            Some(ServedBy::L2) => Trauma::MmDl1,
            Some(ServedBy::Memory) => Trauma::MmDl2,
            _ => Trauma::RgMem,
        },
        OpClass::IStore | OpClass::VStore => Trauma::StData,
        OpClass::Branch => Trauma::RgBr,
        OpClass::Fpu => Trauma::RgFpu,
        OpClass::VSimple => Trauma::RgVi,
        OpClass::VPerm => Trauma::RgVper,
        OpClass::VCmplx => Trauma::RgVcmplx,
        OpClass::VFpu => Trauma::RgVfpu,
    }
}

fn ful_trauma(class: UnitClass) -> Trauma {
    match class {
        UnitClass::Mem => Trauma::FulMem,
        UnitClass::Fix => Trauma::FulFix,
        UnitClass::Fpu => Trauma::FulFpu,
        UnitClass::Br => Trauma::FulBr,
        UnitClass::Vi => Trauma::FulVi,
        UnitClass::Vper => Trauma::FulVper,
        UnitClass::Vcmplx => Trauma::FulVcmplx,
        UnitClass::Vfpu => Trauma::FulVfpu,
    }
}

fn diq_trauma(class: UnitClass) -> Trauma {
    match class {
        UnitClass::Mem => Trauma::DiqMem,
        UnitClass::Fix => Trauma::DiqFix,
        UnitClass::Fpu => Trauma::DiqFpu,
        UnitClass::Br => Trauma::DiqBr,
        UnitClass::Vi => Trauma::DiqVi,
        UnitClass::Vper => Trauma::DiqVper,
        UnitClass::Vcmplx => Trauma::DiqVcmplx,
        UnitClass::Vfpu => Trauma::DiqVfpu,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapa_isa::reg;
    use sapa_isa::trace::Tracer;

    fn run(cfg: SimConfig, build: impl FnOnce(&mut Tracer)) -> SimReport {
        let mut t = Tracer::new();
        build(&mut t);
        Simulator::new(cfg).run(&t.finish())
    }

    #[test]
    fn empty_trace_finishes_instantly() {
        let r = run(SimConfig::four_way(), |_| {});
        assert_eq!(r.instructions, 0);
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn independent_alu_ops_reach_high_ipc() {
        let r = run(SimConfig::four_way(), |t| {
            for i in 0..20_000u32 {
                // Rotate destination registers so ops are independent.
                t.ialu(i % 8, reg::gpr((i % 16) as u8), &[]);
            }
        });
        assert_eq!(r.instructions, 20_000);
        // 3 FX units on the 4-way core bound throughput at 3/cycle.
        assert!(r.ipc() > 2.5, "ipc {}", r.ipc());
        assert!(r.ipc() <= 3.1, "ipc {}", r.ipc());
    }

    #[test]
    fn serial_chain_is_one_per_cycle_at_best() {
        let r = run(SimConfig::four_way(), |t| {
            for i in 0..5_000u32 {
                t.ialu(i % 8, reg::gpr(1), &[reg::gpr(1)]);
            }
        });
        assert!(r.ipc() <= 1.01, "ipc {}", r.ipc());
    }

    #[test]
    fn slow_integer_chain_blames_rg_fix() {
        // With 3-cycle FX latency a serial chain leaves two zero-retire
        // cycles per instruction, all charged to the integer dependency.
        let mut cfg = SimConfig::four_way();
        cfg.cpu.unit_latency[UnitClass::Fix.index()] = 3;
        let r = run(cfg, |t| {
            for i in 0..5_000u32 {
                t.ialu(i % 8, reg::gpr(1), &[reg::gpr(1)]);
            }
        });
        assert!(r.ipc() < 0.45, "ipc {}", r.ipc());
        let top = r.traumas.top(1);
        assert_eq!(top[0].0, Trauma::RgFix);
    }

    #[test]
    fn vector_chain_blames_vi() {
        let r = run(SimConfig::four_way(), |t| {
            for i in 0..5_000u32 {
                t.vsimple(i % 4, reg::vr(1), &[reg::vr(1)]);
            }
        });
        let top = r.traumas.top(1);
        assert_eq!(top[0].0, Trauma::RgVi);
        // 2-cycle VI latency on a serial chain: IPC ≈ 0.5.
        assert!(r.ipc() < 0.6, "ipc {}", r.ipc());
    }

    #[test]
    fn cold_misses_show_up_in_dl1_stats() {
        let r = run(SimConfig::four_way(), |t| {
            for i in 0..1_000u32 {
                // Stride of a line: every access is a cold miss.
                t.iload(0, reg::gpr(1), 0x2000_0000 + i * 128, 4, &[]);
                t.ialu(1, reg::gpr(2), &[reg::gpr(1)]);
            }
        });
        assert!(r.dl1.misses >= 999, "misses {}", r.dl1.misses);
        // Cold misses go all the way to memory; blame lands on the
        // memory-subsystem traumas.
        assert!(r.traumas.get(Trauma::MmDl1) + r.traumas.get(Trauma::MmDl2) > 0);
    }

    #[test]
    fn mispredicted_branches_charge_if_pred() {
        let r = run(SimConfig::four_way(), |t| {
            let mut x = 0x9E3779B9u32;
            for i in 0..4_000u32 {
                t.ialu(0, reg::gpr(1), &[]);
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                t.branch(1 + (i % 3), (x >> 17) & 1 == 1, 0, &[reg::gpr(1)]);
            }
        });
        assert!(r.bp_predictions >= 4_000);
        assert!(r.bp_accuracy() < 0.75, "accuracy {}", r.bp_accuracy());
        assert!(
            r.traumas.get(Trauma::IfPred) > r.cycles / 10,
            "if_pred {} of {}",
            r.traumas.get(Trauma::IfPred),
            r.cycles
        );
    }

    #[test]
    fn perfect_bp_removes_if_pred() {
        let mut cfg = SimConfig::four_way();
        cfg.branch = crate::config::BranchConfig::perfect();
        let r = run(cfg, |t| {
            let mut x = 1u32;
            for i in 0..2_000u32 {
                x = x.wrapping_mul(48271);
                t.ialu(0, reg::gpr(1), &[]);
                t.branch(1 + (i % 3), x & 1 == 1, 0, &[reg::gpr(1)]);
            }
        });
        assert_eq!(r.bp_mispredictions, 0);
        assert_eq!(r.traumas.get(Trauma::IfPred), 0);
    }

    #[test]
    fn wider_core_helps_parallel_code() {
        let build = |t: &mut Tracer| {
            for i in 0..10_000u32 {
                t.ialu(i % 8, reg::gpr((i % 24) as u8), &[]);
            }
        };
        let r4 = run(SimConfig::four_way(), build);
        let r16 = run(SimConfig::sixteen_way(), build);
        assert!(
            r16.cycles < r4.cycles,
            "16-way {} !< 4-way {}",
            r16.cycles,
            r4.cycles
        );
    }

    #[test]
    fn memory_latency_dominates_pointer_chase() {
        // A dependent-load chain touching a new line each time on a
        // 300-cycle-memory hierarchy: IPC must collapse.
        let r = run(SimConfig::four_way(), |t| {
            for i in 0..500u32 {
                t.iload(
                    0,
                    reg::gpr(1),
                    0x3000_0000 + (i * 40_037) % 0x0400_0000,
                    4,
                    &[reg::gpr(1)],
                );
            }
        });
        assert!(r.ipc() < 0.05, "ipc {}", r.ipc());
        assert!(r.traumas.get(Trauma::MmDl2) > 0);
    }

    #[test]
    fn determinism() {
        let build = |t: &mut Tracer| {
            let mut x = 7u32;
            for _ in 0..3_000u32 {
                x = x.wrapping_mul(48271).wrapping_add(11);
                t.iload(0, reg::gpr(1), 0x2000_0000 + (x % 65536), 4, &[]);
                t.ialu(1, reg::gpr(2), &[reg::gpr(1), reg::gpr(2)]);
                t.branch(2, x & 3 == 0, 0, &[reg::gpr(2)]);
            }
        };
        let a = run(SimConfig::four_way(), build);
        let b = run(SimConfig::four_way(), build);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
    }

    #[test]
    fn every_retired_instruction_issued_on_exactly_one_unit() {
        let r = run(SimConfig::four_way(), |t| {
            let mut x = 7u32;
            for i in 0..3_000u32 {
                x = x.wrapping_mul(48271).wrapping_add(11);
                t.iload(0, reg::gpr(1), 0x2000_0000 + (x % 65536), 4, &[]);
                t.vsimple(1, reg::vr(1), &[reg::vr(1)]);
                t.fpu(2, reg::fpr(1), &[reg::fpr(1)]);
                t.branch(3 + (i % 3), x & 3 == 0, 0, &[reg::gpr(1)]);
            }
        });
        assert_eq!(r.unit_issued.iter().sum::<u64>(), r.instructions);
        // Slots bound issues: no class can be more than 100% busy.
        for &class in &UnitClass::ALL {
            assert!(
                r.unit_issued[class.index()] <= r.unit_slots[class.index()],
                "{class:?} issued more than its slots"
            );
        }
        // The mix above touches mem, vi, fpu and br every iteration.
        for class in [UnitClass::Mem, UnitClass::Vi, UnitClass::Fpu, UnitClass::Br] {
            assert!(r.eu_utilisation(class) > 0.0, "{class:?} never issued");
        }
        assert!(r.issue_slot_utilisation() > 0.0);
        assert!(r.busiest_eu().is_some());
    }

    #[test]
    fn block_boundaries_are_invisible_to_replay() {
        // A trace much longer than BLOCK_LEN with fetch stalls landing
        // on arbitrary offsets: packed block decode, AoS block copy and
        // a shared reusable buffer must all agree bit-for-bit.
        let mut t = Tracer::new();
        let mut x = 1u32;
        for i in 0..(3 * sapa_isa::BLOCK_LEN as u32 + 17) {
            x = x.wrapping_mul(48271).wrapping_add(7);
            t.iload(i % 200, reg::gpr(1), 0x2000_0000 + (x % 32768), 4, &[]);
            t.branch(200 + (i % 5), x & 1 == 0, 0, &[reg::gpr(1)]);
        }
        let trace = t.finish();
        let packed = sapa_isa::PackedTrace::from_trace(&trace);
        let sim = Simulator::new(SimConfig::four_way());
        let aos = sim.run(&trace);
        let mut buf = DecodeBuf::new();
        assert_eq!(aos, sim.run_packed_with(&packed, &mut buf));
        // Same buffer reused for a second replay: no state leaks.
        assert_eq!(aos, sim.run_packed_with(&packed, &mut buf));
        assert_eq!(aos, sim.run_with(&trace, &mut buf));
    }

    #[test]
    fn occupancy_histograms_cover_all_cycles() {
        let r = run(SimConfig::four_way(), |t| {
            for i in 0..1_000u32 {
                t.ialu(i % 4, reg::gpr(1), &[reg::gpr(1)]);
            }
        });
        let total: u64 = r.inflight_occupancy.as_slice().iter().sum();
        assert_eq!(total, r.cycles);
        let fixq: u64 = r.queue(UnitClass::Fix).as_slice().iter().sum();
        assert_eq!(fixq, r.cycles);
        let lq: u64 = r.lq_occupancy.as_slice().iter().sum();
        assert_eq!(lq, r.cycles);
        let sq: u64 = r.sq_occupancy.as_slice().iter().sum();
        assert_eq!(sq, r.cycles);
    }
}

#[cfg(test)]
mod stall_tests {
    use super::*;
    use crate::config::UnitClass;
    use sapa_isa::reg;
    use sapa_isa::trace::Tracer;

    fn run(cfg: SimConfig, build: impl FnOnce(&mut Tracer)) -> SimReport {
        let mut t = Tracer::new();
        build(&mut t);
        Simulator::new(cfg).run(&t.finish())
    }

    #[test]
    fn mshr_limit_throttles_independent_misses() {
        // Independent cold-missing loads: more MSHRs = more overlap.
        let build = |t: &mut Tracer| {
            for i in 0..2_000u32 {
                t.iload(
                    i % 4,
                    reg::gpr((i % 8) as u8),
                    0x2000_0000 + i * 128,
                    4,
                    &[],
                );
            }
        };
        let mut few = SimConfig::four_way();
        few.cpu.max_outstanding_misses = 1;
        let mut many = SimConfig::four_way();
        many.cpu.max_outstanding_misses = 16;
        let r_few = run(few, build);
        let r_many = run(many, build);
        assert!(
            (r_many.cycles as f64) * 1.5 < r_few.cycles as f64,
            "16 MSHRs {} vs 1 MSHR {}",
            r_many.cycles,
            r_few.cycles
        );
    }

    #[test]
    fn rename_stall_with_tiny_register_file() {
        // Barely more physical than architectural registers: long
        // dependence-free bursts stall on renaming.
        let mut cfg = SimConfig::four_way();
        cfg.cpu.gpr = 34; // 2 spare rename registers
        let build = |t: &mut Tracer| {
            // A load at the head keeps the window from draining while
            // younger ALU ops request new registers.
            for i in 0..500u32 {
                t.iload(0, reg::gpr(1), 0x2000_0000 + i * 128, 4, &[]);
                for k in 0..6u32 {
                    t.ialu(1 + k, reg::gpr((2 + k % 6) as u8), &[]);
                }
            }
        };
        let r_tiny = run(cfg, build);
        let r_full = run(SimConfig::four_way(), build);
        // The rename bottleneck slows the whole run: fewer ALU ops can
        // slip past the in-flight loads.
        assert!(
            r_tiny.cycles > r_full.cycles * 11 / 10,
            "tiny {} vs full {}",
            r_tiny.cycles,
            r_full.cycles
        );
        // The staged accounting names the structure directly.
        assert!(r_tiny.structures.rename_stalls > 0, "no rename stalls");
    }

    #[test]
    fn issue_queue_full_charges_diq() {
        // One VI unit, tiny VI station, long independent VI burst: the
        // station fills and dispatch blocks.
        let mut cfg = SimConfig::four_way();
        cfg.cpu.issue_queue[UnitClass::Vi.index()] = 2;
        cfg.cpu.rs_entries[UnitClass::Vi.index()] = 2;
        let r = run(cfg, |t| {
            t.iload(0, reg::gpr(1), 0x2000_0000, 4, &[]);
            for i in 0..2_000u32 {
                // All depend on the initial slow load, so they pile up
                // in the VI queue.
                t.vsimple(1 + (i % 4), reg::vr((i % 16) as u8), &[reg::gpr(1)]);
            }
        });
        // The 2-entry queue runs pinned at capacity while the load is
        // outstanding and the VI unit drains it afterwards.
        let hist = r.queue(UnitClass::Vi);
        assert!(
            hist.cycles_at(2) > r.cycles / 4,
            "queue never filled: {:?} of {}",
            hist.as_slice(),
            r.cycles
        );
        assert!(r.structures.rs_full_stalls > 0, "no RS-full stalls");
    }

    #[test]
    fn retire_queue_full_charges_roqf() {
        let mut cfg = SimConfig::four_way();
        cfg.cpu.retire_queue = 8;
        cfg.cpu.inflight = 16;
        let build = |t: &mut Tracer| {
            // Slow head (memory) + many fast followers.
            for i in 0..300u32 {
                t.iload(0, reg::gpr(1), 0x2000_0000 + i * 128, 4, &[]);
                for k in 0..12u32 {
                    t.ialu(1 + k, reg::gpr(2), &[]);
                }
            }
        };
        let r_small = run(cfg, build);
        let r_big = run(SimConfig::four_way(), build);
        // A tiny window cannot overlap the independent misses: memory-
        // level parallelism collapses and the run slows dramatically.
        assert!(
            r_small.cycles > r_big.cycles * 2,
            "small window {} vs big {}",
            r_small.cycles,
            r_big.cycles
        );
        // The window sits pinned at its 8-entry capacity.
        assert!(r_small.retireq_occupancy.cycles_at(8) > r_small.cycles / 2);
        assert!(r_small.structures.rob_full_stalls > 0, "no ROB-full stalls");
    }

    #[test]
    fn store_forward_counts_are_reported() {
        let r = run(SimConfig::four_way(), |t| {
            for i in 0..100u32 {
                let a = 0x2000_0000 + (i % 4) * 16;
                t.istore(0, a, 4, &[reg::gpr(1)]);
                t.iload(1, reg::gpr(2), a, 4, &[]);
                t.ialu(2, reg::gpr(1), &[reg::gpr(2)]);
            }
        });
        assert!(r.store_forwards > 50, "forwards {}", r.store_forwards);
    }

    #[test]
    fn nfa_misses_charge_if_nfa_on_first_encounters() {
        // Many distinct taken-branch sites: each first encounter is an
        // NFA miss with a redirect bubble.
        let r = run(SimConfig::four_way(), |t| {
            for i in 0..2_000u32 {
                t.ialu(4 * i, reg::gpr(1), &[]);
                t.jump(4 * i + 1, 4 * i + 2);
            }
        });
        assert!(r.traumas.get(Trauma::IfNfa) > 0, "no if_nfa recorded");
    }

    #[test]
    fn icache_misses_charge_if_l_traumas() {
        // Walk a huge code footprint: every line crossing misses.
        let r = run(SimConfig::four_way(), |t| {
            for i in 0..30_000u32 {
                t.ialu(i, reg::gpr(1), &[]);
            }
        });
        assert!(r.il1.misses > 100, "il1 misses {}", r.il1.misses);
        let if_cycles = r.traumas.get(Trauma::IfL1) + r.traumas.get(Trauma::IfL2);
        assert!(if_cycles > 0, "no fetch-miss stall cycles");
    }
}

#[cfg(test)]
mod ooo_tests {
    use super::*;
    use crate::config::IssueModel;
    use sapa_isa::reg;
    use sapa_isa::trace::{Trace, Tracer};

    fn build_mixed(n: u32) -> Trace {
        let mut t = Tracer::new();
        let mut x = 7u32;
        for i in 0..n {
            x = x.wrapping_mul(48271).wrapping_add(11);
            t.istore(0, 0x2000_0000 + (x % 4096), 4, &[reg::gpr(1)]);
            t.iload(1, reg::gpr(2), 0x2000_0000 + (x % 4096), 4, &[]);
            t.ialu(2, reg::gpr(1), &[reg::gpr(2)]);
            t.branch(3 + (i % 3), x & 3 == 0, 0, &[reg::gpr(1)]);
        }
        t.finish()
    }

    fn with_model(model: IssueModel) -> SimConfig {
        let mut cfg = SimConfig::four_way();
        cfg.cpu.issue_model = model;
        cfg
    }

    #[test]
    fn scoreboard_oracle_agrees_on_trace_derived_stats() {
        // The two issue models are timing policies over the same trace:
        // everything derived from the trace alone — retired count,
        // cache accesses, branch predictions — must be identical.
        let trace = build_mixed(2_000);
        let sb = Simulator::new(with_model(IssueModel::Scoreboard)).run(&trace);
        let ooo = Simulator::new(with_model(IssueModel::OutOfOrder)).run(&trace);
        assert_eq!(sb.instructions, ooo.instructions);
        assert_eq!(sb.dl1.accesses, ooo.dl1.accesses);
        assert_eq!(sb.bp_predictions, ooo.bp_predictions);
        assert_eq!(sb.bp_mispredictions, ooo.bp_mispredictions);
        assert_eq!(
            sb.unit_issued.iter().sum::<u64>(),
            ooo.unit_issued.iter().sum::<u64>()
        );
    }

    #[test]
    fn scoreboard_never_replays() {
        let trace = build_mixed(2_000);
        let sb = Simulator::new(with_model(IssueModel::Scoreboard)).run(&trace);
        assert_eq!(sb.structures.replays, 0);
        assert_eq!(sb.structures.replay_wait_cycles, 0);
        // No load queue in the scoreboard model: occupancy pinned at 0.
        assert_eq!(sb.lq_occupancy.cycles_at(0), sb.cycles);
    }

    #[test]
    fn resolving_store_replays_bypassing_load() {
        // The store's data hangs off a cold-missing load, so it sits
        // unresolved for hundreds of cycles; the younger load to the
        // same address has no register inputs and issues right past it.
        // When the store finally resolves, the load must replay.
        let mut t = Tracer::new();
        for i in 0..200u32 {
            t.iload(0, reg::gpr(1), 0x3000_0000 + i * 128, 4, &[]);
            t.istore(1, 0x2000_0000, 4, &[reg::gpr(1)]);
            t.iload(2, reg::gpr(2), 0x2000_0000, 4, &[]);
            t.ialu(3, reg::gpr(3), &[reg::gpr(2)]);
        }
        let trace = t.finish();
        let r = Simulator::new(with_model(IssueModel::OutOfOrder)).run(&trace);
        assert!(
            r.structures.replays > 50,
            "replays {}",
            r.structures.replays
        );
        // Replayed loads re-deliver through the store queue.
        assert!(r.store_forwards > 50, "forwards {}", r.store_forwards);
        // Every instruction still retires exactly once, counted on one
        // unit, despite the squash-and-reissue churn.
        assert_eq!(r.instructions, trace.insts().len() as u64);
        assert_eq!(r.unit_issued.iter().sum::<u64>(), r.instructions);
        // And the cache saw each memory op exactly once.
        assert_eq!(r.dl1.accesses, 3 * 200);
    }

    #[test]
    fn full_load_queue_stalls_dispatch() {
        let mut cfg = with_model(IssueModel::OutOfOrder);
        cfg.cpu.lsq_loads = 2;
        let mut t = Tracer::new();
        for i in 0..1_000u32 {
            // Independent cold misses: loads pile up in the window.
            t.iload(
                i % 4,
                reg::gpr((i % 8) as u8),
                0x2000_0000 + i * 128,
                4,
                &[],
            );
        }
        let r = Simulator::new(cfg).run(&t.finish());
        assert!(
            r.structures.lq_full_stalls > 0,
            "no LQ-full stalls in {:?}",
            r.structures
        );
        assert!(r.lq_occupancy.cycles_at(2) > 0, "LQ never filled");
    }

    #[test]
    fn full_store_queue_stalls_dispatch() {
        let mut cfg = with_model(IssueModel::OutOfOrder);
        cfg.cpu.lsq_stores = 2;
        let mut t = Tracer::new();
        for i in 0..300u32 {
            // A slow head load keeps retirement (and thus store-queue
            // draining) blocked while stores pour in behind it.
            t.iload(0, reg::gpr(1), 0x3000_0000 + i * 128, 4, &[]);
            for k in 0..6u32 {
                t.istore(1 + k, 0x2000_0000 + k * 64, 4, &[]);
            }
        }
        let r = Simulator::new(cfg).run(&t.finish());
        assert!(
            r.structures.sq_full_stalls > 0,
            "no SQ-full stalls in {:?}",
            r.structures
        );
    }

    #[test]
    fn speculative_bypass_is_at_least_as_fast() {
        // Stores with slow data but distinct addresses: the scoreboard
        // serializes same-granule load/store pairs it cannot tell apart
        // only when granules collide; with disjoint addresses both
        // models should let the loads run free — and the speculative
        // model must never be slower than the conservative one here,
        // because nothing ever replays.
        let mut t = Tracer::new();
        for i in 0..500u32 {
            t.iload(0, reg::gpr(1), 0x3000_0000 + i * 128, 4, &[]);
            t.istore(1, 0x2000_0000 + (i % 64) * 16, 4, &[reg::gpr(1)]);
            t.iload(2, reg::gpr(2), 0x2800_0000 + (i % 64) * 16, 4, &[]);
            t.ialu(3, reg::gpr(3), &[reg::gpr(2)]);
        }
        let trace = t.finish();
        let sb = Simulator::new(with_model(IssueModel::Scoreboard)).run(&trace);
        let ooo = Simulator::new(with_model(IssueModel::OutOfOrder)).run(&trace);
        assert_eq!(ooo.structures.replays, 0, "disjoint addresses replayed");
        assert!(
            ooo.cycles <= sb.cycles,
            "speculative {} slower than conservative {}",
            ooo.cycles,
            sb.cycles
        );
    }

    #[test]
    fn packed_replay_matches_under_both_models() {
        let trace = build_mixed(1_500);
        let packed = sapa_isa::PackedTrace::from_trace(&trace);
        for model in [IssueModel::Scoreboard, IssueModel::OutOfOrder] {
            let sim = Simulator::new(with_model(model));
            assert_eq!(sim.run(&trace), sim.run_packed(&packed), "{model:?}");
        }
    }
}

#[cfg(test)]
mod checked_replay_tests {
    use super::*;
    use sapa_isa::inst::flags;
    use sapa_isa::mem::DATA_BASE;
    use sapa_isa::reg::{self, Reg};
    use sapa_isa::trace::{Tracer, CODE_BASE};
    use sapa_isa::validate::validate_iter;

    /// A valid trace spanning several decode blocks, with a tail block
    /// shorter than [`BLOCK_LEN`].
    fn clean(n: u32) -> Vec<Inst> {
        let mut t = Tracer::new();
        for i in 0..n / 4 {
            t.iload(i % 32, reg::gpr(1), DATA_BASE + (i % 512) * 64, 4, &[]);
            t.ialu(32 + i % 8, reg::gpr(2), &[reg::gpr(1)]);
            t.istore(40, DATA_BASE + 0x8000 + (i % 16) * 16, 4, &[reg::gpr(2)]);
            t.branch(41, i % 3 == 0, 0, &[reg::gpr(2)]);
        }
        t.finish().insts().to_vec()
    }

    /// One instruction per invariant, each breaking exactly that one.
    fn breakers() -> Vec<(&'static str, Inst)> {
        let load = Inst {
            pc: CODE_BASE + 8,
            ea: DATA_BASE + 64,
            op: OpClass::ILoad,
            dst: reg::gpr(3),
            srcs: [Reg::NONE; 3],
            flags: 2 << flags::WIDTH_SHIFT,
        };
        let alu = Inst {
            ea: 0,
            op: OpClass::IAlu,
            flags: 0,
            ..load
        };
        vec![
            (
                "pc out of range",
                Inst {
                    pc: DATA_BASE + 4,
                    ..alu
                },
            ),
            (
                "pc misaligned",
                Inst {
                    pc: CODE_BASE + 6,
                    ..alu
                },
            ),
            (
                "address below data",
                Inst {
                    ea: CODE_BASE,
                    ..load
                },
            ),
            (
                "target outside code",
                Inst {
                    ea: DATA_BASE,
                    op: OpClass::Branch,
                    dst: Reg::NONE,
                    flags: flags::TAKEN,
                    ..alu
                },
            ),
            (
                "width on an ALU op",
                Inst {
                    flags: 3 << flags::WIDTH_SHIFT,
                    ..alu
                },
            ),
            (
                "load without dst",
                Inst {
                    dst: Reg::NONE,
                    ..load
                },
            ),
            (
                "store with dst",
                Inst {
                    op: OpClass::IStore,
                    ..load
                },
            ),
        ]
    }

    /// `try_run_packed` must report exactly what `validate_iter` says
    /// about the trace — first violation and count — for a trace that
    /// passes the structural check.
    fn assert_rejected_like_validate(insts: &[Inst], what: &str) {
        let packed = PackedTrace::from_insts(insts);
        assert_eq!(packed.check(), Ok(()), "{what}: must pass check()");
        let violations = validate_iter(insts.iter().copied(), 8);
        assert!(!violations.is_empty(), "{what}: no violation built");
        assert_eq!(validate_iter(packed.iter(), 8), violations, "{what}");
        let want = TraceError::Invariant {
            first: violations[0].to_string(),
            violations: violations.len(),
        };
        for model in [
            crate::config::IssueModel::OutOfOrder,
            crate::config::IssueModel::Scoreboard,
        ] {
            let mut cfg = SimConfig::four_way();
            cfg.cpu.issue_model = model;
            let sim = Simulator::new(cfg);
            // The first call verifies the trace; later ones, here and
            // under the next model, read the verdict it kept.
            for call in 0..2 {
                assert_eq!(
                    sim.try_run_packed(&packed),
                    Err(want.clone()),
                    "{what} ({model:?}, call {call})"
                );
            }
        }
    }

    #[test]
    fn every_violation_kind_is_reported_exactly_as_validate_describes_it() {
        let base = clean(3 * BLOCK_LEN as u32 + 40);
        let last = base.len() - 1;
        for (what, bad) in breakers() {
            for at in [0, BLOCK_LEN + 17, last] {
                let mut insts = base.clone();
                insts[at] = bad;
                assert_rejected_like_validate(&insts, &format!("{what} at {at}"));
            }
        }
    }

    #[test]
    fn violation_count_matches_validate_beyond_the_limit() {
        let base = clean(2 * BLOCK_LEN as u32);
        let kinds = breakers();
        // Ten single violations: the count stops at the limit of 8.
        let mut insts = base.clone();
        for k in 0..10 {
            insts[30 + 40 * k] = kinds[k % kinds.len()].1;
        }
        assert_rejected_like_validate(&insts, "ten violations");
        // Instructions breaking two invariants each: the limit is
        // checked between instructions, so the count reaches 9.
        let two = Inst {
            pc: DATA_BASE + 2,
            ..kinds[0].1
        };
        let mut insts = base;
        insts[5] = kinds[2].1;
        for k in 0..6 {
            insts[100 + 50 * k] = two;
        }
        let violations = validate_iter(insts.iter().copied(), 8).len();
        assert_eq!(violations, 9);
        assert_rejected_like_validate(&insts, "paired violations");
    }

    #[test]
    fn valid_traces_replay_exactly_as_the_unchecked_path() {
        let packed = PackedTrace::from_insts(&clean(3 * BLOCK_LEN as u32 + 40));
        let sim = Simulator::new(SimConfig::four_way());
        assert_eq!(sim.try_run_packed(&packed), Ok(sim.run_packed(&packed)));
        assert_eq!(sim.try_run_packed(&packed), Ok(sim.run_packed(&packed)));
        let empty = PackedTrace::default();
        assert_eq!(sim.try_run_packed(&empty), Ok(sim.run_packed(&empty)));
    }
}
