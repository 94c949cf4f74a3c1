//! Golden timing-model digests: synthetic traces aimed at the
//! simulator's corner cases, replayed over a grid of machines, each
//! report reduced to one 64-bit digest of every `SimReport` field and
//! compared with a recorded constant.
//!
//! The traces stress what the engine's quiescent-cycle fast-forward
//! must get exactly right: long memory stalls (dependent cold misses),
//! MSHR exhaustion, store→load replays whose squashed loads keep their
//! MSHR, misprediction recovery, I-cache/ITLB misses and NFA redirects,
//! and tiny ROB/RS/rename/LSQ configurations that stall dispatch. Each
//! runs under 4/8/16-way × `me1`/`meinf` × real/perfect prediction ×
//! out-of-order/scoreboard issue, through both the array-of-structs
//! replay and the checked packed replay, which must agree.
//!
//! Any change to the timing model changes these digests. Such a change
//! must update `GOLDEN` in the same commit: on a mismatch the test
//! prints the complete table as it now stands, ready to paste.

use sapa_core::cpu::config::{BranchConfig, CpuConfig, IssueModel, MemConfig, SimConfig};
use sapa_core::cpu::{SimReport, Simulator};
use sapa_core::isa::reg::{self, Reg};
use sapa_core::isa::trace::{Trace, Tracer};
use sapa_core::isa::PackedTrace;

/// 64-bit FNV-1a over a sequence of `u64`s.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn all(&mut self, vs: &[u64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v);
        }
    }
}

/// Every field of the report, histograms bucket by bucket.
fn digest(r: &SimReport) -> u64 {
    let mut d = Digest::new();
    d.u64(r.cycles);
    d.u64(r.instructions);
    for (_, cycles) in r.traumas.rows() {
        d.u64(cycles);
    }
    let s = &r.structures;
    d.all(&[
        s.rename_stalls,
        s.rs_full_stalls,
        s.rob_full_stalls,
        s.lq_full_stalls,
        s.sq_full_stalls,
        s.replays,
        s.replay_wait_cycles,
    ]);
    for c in [&r.dl1, &r.il1, &r.l2, &r.dtlb, &r.itlb] {
        d.u64(c.accesses);
        d.u64(c.misses);
    }
    d.u64(r.store_forwards);
    d.all(&r.unit_issued);
    d.all(&r.unit_slots);
    d.u64(r.bp_predictions);
    d.u64(r.bp_mispredictions);
    for h in r.queue_occupancy.iter().chain([
        &r.inflight_occupancy,
        &r.retireq_occupancy,
        &r.lq_occupancy,
        &r.sq_occupancy,
    ]) {
        d.all(h.as_slice());
    }
    d.0
}

/// Pointer chase: each load's address depends on the previous load and
/// touches a new line and page, so the window sits for hundreds of
/// cycles with nothing to retire, issue, dispatch or fetch.
fn cold_miss_chain() -> Trace {
    let mut t = Tracer::new();
    for i in 0..120u32 {
        let addr = 0x3000_0000 + i * 4096 + (i % 7) * 128;
        t.iload(0, reg::gpr(1), addr, 4, &[reg::gpr(1)]);
        t.ialu(1, reg::gpr(2), &[reg::gpr(1), reg::gpr(2)]);
        t.vsimple(2, reg::vr(1), &[reg::vr(1)]);
        t.fpu(3, reg::fpr(1), &[reg::fpr(1)]);
        t.branch(4, i % 5 != 4, 0, &[reg::gpr(2)]);
    }
    t.finish()
}

/// Cold misses to fresh lines, far more than any MSHR file holds.
/// Every fourth load's address comes through an ALU op from an older
/// miss, so it turns ready a cycle after that miss frees its MSHR —
/// which a younger independent load has already taken: the window head
/// waits on a full MSHR file.
fn mshr_exhaustion() -> Trace {
    let mut t = Tracer::new();
    for i in 0..160u32 {
        let base = 0x2000_0000 + i * 512;
        t.ialu(0, reg::gpr(9), &[reg::gpr(1)]);
        t.iload(1, reg::gpr(2), base, 4, &[reg::gpr(9)]);
        t.iload(2, reg::gpr(1), base + 128, 4, &[]);
        t.iload(3, reg::gpr(3), base + 256, 4, &[]);
        t.iload(4, reg::gpr(4), base + 384, 4, &[]);
        t.ialu(5, reg::gpr(5), &[reg::gpr(2), reg::gpr(5)]);
    }
    t.finish()
}

/// Store→load conflicts. The first half hangs each store's data off a
/// cold miss, so younger loads to its granule bypass it and replay
/// when it resolves. In the second half each store resolves a cycle
/// after its younger load issued and missed to a fresh line: the
/// squashed load re-issues as a forward and retires while its MSHR
/// stays busy. Four such pairs fill the 4-way machine's MSHRs, so the
/// independent miss after them waits at the window head for an MSHR
/// that no in-flight instruction's completion frees.
fn store_load_replays() -> Trace {
    let mut t = Tracer::new();
    for i in 0..100u32 {
        t.iload(0, reg::gpr(1), 0x3000_0000 + i * 128, 4, &[]);
        t.istore(1, 0x2000_0000 + (i % 3) * 16, 4, &[reg::gpr(1)]);
        t.iload(2, reg::gpr(2), 0x2000_0000 + (i % 3) * 16, 4, &[]);
        t.ialu(3, reg::gpr(3), &[reg::gpr(2)]);
        t.vstore(4, 0x2800_0000 + (i % 8) * 32, 32, &[reg::vr(1)]);
        t.vload(5, reg::vr(2), 0x2800_0000 + (i % 8) * 32, 32, &[]);
    }
    for i in 0..40u32 {
        for k in 0..4u32 {
            let line = 0x2400_0000 + (5 * i + k) * 128;
            t.ialu(8, reg::gpr(5), &[reg::gpr(5)]);
            t.istore(9, line, 4, &[reg::gpr(5)]);
            t.iload(10, reg::gpr(6), line, 4, &[]);
        }
        t.iload(11, reg::gpr(7), 0x2400_0000 + (5 * i + 4) * 128, 4, &[]);
        t.ialu(12, reg::gpr(8), &[reg::gpr(7), reg::gpr(6)]);
    }
    t.finish()
}

/// Data-dependent branches, some waiting on loads, so mispredictions
/// block fetch until the branch resolves and then for the recovery.
fn mispredict_recovery() -> Trace {
    let mut t = Tracer::new();
    let mut x = 0x9E37_79B9u32;
    for i in 0..600u32 {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let addr = (0x2000_0000 + x % (1 << 20)) & !3;
        t.iload(0, reg::gpr(1), addr, 4, &[]);
        t.ialu(1, reg::gpr(2), &[reg::gpr(1)]);
        t.branch(2 + i % 3, (x >> 13) & 1 == 1, 0, &[reg::gpr(2)]);
        t.fpu(5, reg::fpr(1), &[reg::fpr(1)]);
        t.branch(6, x & 3 != 0, 9, &[]);
    }
    t.finish()
}

/// Short basic blocks ending in taken jumps scattered over a code
/// footprint far beyond the IL1 and the ITLB's reach: I-cache and
/// ITLB misses stall fetch, and every first visit to a jump misses
/// the NFA and pays its redirect bubble.
fn frontend_misses() -> Trace {
    let mut t = Tracer::new();
    let mut site = 0u32;
    for i in 0..600u32 {
        t.ialu(site, reg::gpr(1), &[]);
        t.ialu(site + 1, reg::gpr(2), &[reg::gpr(1)]);
        t.branch(site + 2, i % 4 == 0, site + 5, &[reg::gpr(2)]);
        // A loop over 120 blocks a page apart (revisited: NFA hits)
        // interleaved with far one-off blocks (cold everywhere).
        let next = if i % 3 == 0 {
            ((i * 7_919) % 400_000) & !3
        } else {
            (i % 120) * 1_024
        };
        let from = if i % 4 == 0 { site + 5 } else { site + 3 };
        t.jump(from, next);
        site = next;
    }
    t.finish()
}

/// Bursts for the tiny-structure machines: a cold miss holds the
/// window head while the burst behind it runs into one structure's
/// limit — the ROB, a reservation station, the load queue, the store
/// queue or the rename registers, in turn.
fn structure_pressure() -> Trace {
    let mut t = Tracer::new();
    for i in 0..200u32 {
        t.iload(0, reg::gpr(1), 0x2000_0000 + i * 192, 4, &[]);
        for k in 0..14u32 {
            match i % 5 {
                0 => t.other(1 + k, Reg::NONE, &[]),
                1 => t.other(1 + k, Reg::NONE, &[reg::gpr(1)]),
                2 if k < 4 => t.iload(1 + k, reg::gpr(2 + k as u8), 0x2100_0000 + k * 16, 4, &[]),
                3 if k < 4 => t.istore(1 + k, 0x2100_0000 + k * 16, 4, &[reg::gpr(2)]),
                4 if k < 6 => t.ialu(1 + k, reg::gpr(2 + k as u8), &[]),
                _ => {}
            }
        }
        t.branch(20, i % 7 == 0, 0, &[reg::gpr(2)]);
    }
    t.finish()
}

/// Shrinks every dispatch-side structure to a handful of entries.
fn tiny(cpu: &mut CpuConfig) {
    cpu.retire_queue = 12;
    cpu.inflight = 24;
    cpu.ibuffer = 6;
    cpu.rs_entries = [3; 8];
    cpu.issue_queue = [3; 8];
    cpu.gpr = 36;
    cpu.fpr = 34;
    cpu.vpr = 66;
    cpu.lsq_loads = 3;
    cpu.lsq_stores = 2;
    cpu.max_outstanding_misses = 2;
}

/// The 24 machines: width × memory × predictor × issue model.
fn machines(shrink: bool) -> Vec<(String, SimConfig)> {
    let mut out = Vec::new();
    for (w, cpu) in [
        (4, CpuConfig::four_way()),
        (8, CpuConfig::eight_way()),
        (16, CpuConfig::sixteen_way()),
    ] {
        for mem in [MemConfig::me1(), MemConfig::meinf()] {
            for (bp, branch) in [
                ("real", BranchConfig::table_vi()),
                ("perfect", BranchConfig::perfect()),
            ] {
                for (m, model) in [
                    ("ooo", IssueModel::OutOfOrder),
                    ("sb", IssueModel::Scoreboard),
                ] {
                    let mut cpu = cpu.clone();
                    cpu.issue_model = model;
                    if shrink {
                        tiny(&mut cpu);
                    }
                    let name = format!("{w}w/{}/{bp}/{m}", mem.name);
                    out.push((
                        name,
                        SimConfig {
                            cpu,
                            mem: mem.clone(),
                            branch: branch.clone(),
                        },
                    ));
                }
            }
        }
    }
    out
}

/// Digest of every (trace, machine) point, in a fixed order.
fn digests() -> Vec<(String, u64)> {
    let traces: [(&str, Trace, bool); 6] = [
        ("cold_miss_chain", cold_miss_chain(), false),
        ("mshr_exhaustion", mshr_exhaustion(), false),
        ("store_load_replays", store_load_replays(), false),
        ("mispredict_recovery", mispredict_recovery(), false),
        ("frontend_misses", frontend_misses(), false),
        ("structure_pressure", structure_pressure(), true),
    ];
    let mut out = Vec::new();
    for (tname, trace, shrink) in &traces {
        let packed = PackedTrace::from_trace(trace);
        for (mname, cfg) in machines(*shrink) {
            let sim = Simulator::new(cfg);
            let aos = sim.run(trace);
            let checked = sim
                .try_run_packed(&packed)
                .unwrap_or_else(|e| panic!("{tname}/{mname}: {e}"));
            assert_eq!(
                aos, checked,
                "{tname}/{mname}: AoS and packed replay differ"
            );
            assert_eq!(aos.instructions, trace.len() as u64, "{tname}/{mname}");
            out.push((format!("{tname}/{mname}"), digest(&aos)));
        }
    }
    out
}

/// Recorded from the timing model as of the quiescent-cycle
/// fast-forward's introduction, which left every report unchanged.
const GOLDEN: &[(&str, u64)] = &[
    ("cold_miss_chain/4w/me1/real/ooo", 0xd3913a714ec5b86c),
    ("cold_miss_chain/4w/me1/real/sb", 0x7612f86ca0e1da9b),
    ("cold_miss_chain/4w/me1/perfect/ooo", 0x63e2102feb68fec1),
    ("cold_miss_chain/4w/me1/perfect/sb", 0x41d0821cac728af6),
    ("cold_miss_chain/4w/meinf/real/ooo", 0x51a8f12e9d98f791),
    ("cold_miss_chain/4w/meinf/real/sb", 0x6f83f7e2f7292da2),
    ("cold_miss_chain/4w/meinf/perfect/ooo", 0xeeac1b86f66c4838),
    ("cold_miss_chain/4w/meinf/perfect/sb", 0xc0aa9c76104f3d2c),
    ("cold_miss_chain/8w/me1/real/ooo", 0xe1ba5b2254fb433a),
    ("cold_miss_chain/8w/me1/real/sb", 0xcc5581bbf26a70ae),
    ("cold_miss_chain/8w/me1/perfect/ooo", 0x2ce7126127e65b2b),
    ("cold_miss_chain/8w/me1/perfect/sb", 0xfc5c4bf90f98c1a0),
    ("cold_miss_chain/8w/meinf/real/ooo", 0xe6a74950443f8a4d),
    ("cold_miss_chain/8w/meinf/real/sb", 0x09007c1566c2b2ae),
    ("cold_miss_chain/8w/meinf/perfect/ooo", 0x39e8e75080260d5d),
    ("cold_miss_chain/8w/meinf/perfect/sb", 0xf906700179937e61),
    ("cold_miss_chain/16w/me1/real/ooo", 0xd5096b23c45367bb),
    ("cold_miss_chain/16w/me1/real/sb", 0xb872efc029a6f435),
    ("cold_miss_chain/16w/me1/perfect/ooo", 0x501e9ad8a7d48e9c),
    ("cold_miss_chain/16w/me1/perfect/sb", 0xb96a92f29a687125),
    ("cold_miss_chain/16w/meinf/real/ooo", 0x6fb826222a3812e5),
    ("cold_miss_chain/16w/meinf/real/sb", 0x8d11de4731f70510),
    ("cold_miss_chain/16w/meinf/perfect/ooo", 0x973ddf0190ee5093),
    ("cold_miss_chain/16w/meinf/perfect/sb", 0x2d3c3191a84e1499),
    ("mshr_exhaustion/4w/me1/real/ooo", 0xb780515f06ed23c5),
    ("mshr_exhaustion/4w/me1/real/sb", 0x67a2321ef9e69b2c),
    ("mshr_exhaustion/4w/me1/perfect/ooo", 0xb780515f06ed23c5),
    ("mshr_exhaustion/4w/me1/perfect/sb", 0x67a2321ef9e69b2c),
    ("mshr_exhaustion/4w/meinf/real/ooo", 0x8a6cdc6b5970064c),
    ("mshr_exhaustion/4w/meinf/real/sb", 0xba24017ca967489f),
    ("mshr_exhaustion/4w/meinf/perfect/ooo", 0x8a6cdc6b5970064c),
    ("mshr_exhaustion/4w/meinf/perfect/sb", 0xba24017ca967489f),
    ("mshr_exhaustion/8w/me1/real/ooo", 0x94dcfd8c46f9e273),
    ("mshr_exhaustion/8w/me1/real/sb", 0x71e1946d877aea9b),
    ("mshr_exhaustion/8w/me1/perfect/ooo", 0x94dcfd8c46f9e273),
    ("mshr_exhaustion/8w/me1/perfect/sb", 0x71e1946d877aea9b),
    ("mshr_exhaustion/8w/meinf/real/ooo", 0xc84df04cd7d29cb7),
    ("mshr_exhaustion/8w/meinf/real/sb", 0x51efb69d6c778ac4),
    ("mshr_exhaustion/8w/meinf/perfect/ooo", 0xc84df04cd7d29cb7),
    ("mshr_exhaustion/8w/meinf/perfect/sb", 0x51efb69d6c778ac4),
    ("mshr_exhaustion/16w/me1/real/ooo", 0xe5bb83622d708500),
    ("mshr_exhaustion/16w/me1/real/sb", 0x2de5d750159d105e),
    ("mshr_exhaustion/16w/me1/perfect/ooo", 0xe5bb83622d708500),
    ("mshr_exhaustion/16w/me1/perfect/sb", 0x2de5d750159d105e),
    ("mshr_exhaustion/16w/meinf/real/ooo", 0x8f1b286b6556bc13),
    ("mshr_exhaustion/16w/meinf/real/sb", 0x5675c81a0395b606),
    ("mshr_exhaustion/16w/meinf/perfect/ooo", 0x8f1b286b6556bc13),
    ("mshr_exhaustion/16w/meinf/perfect/sb", 0x5675c81a0395b606),
    ("store_load_replays/4w/me1/real/ooo", 0x25c75eea50932e39),
    ("store_load_replays/4w/me1/real/sb", 0x2222ef491980cc86),
    ("store_load_replays/4w/me1/perfect/ooo", 0x25c75eea50932e39),
    ("store_load_replays/4w/me1/perfect/sb", 0x2222ef491980cc86),
    ("store_load_replays/4w/meinf/real/ooo", 0xc4a91781df52063e),
    ("store_load_replays/4w/meinf/real/sb", 0x1458ed5d9bfd2b8f),
    (
        "store_load_replays/4w/meinf/perfect/ooo",
        0xc4a91781df52063e,
    ),
    ("store_load_replays/4w/meinf/perfect/sb", 0x1458ed5d9bfd2b8f),
    ("store_load_replays/8w/me1/real/ooo", 0x7c9ee8c6b7b31c3e),
    ("store_load_replays/8w/me1/real/sb", 0xc168072a9fb35581),
    ("store_load_replays/8w/me1/perfect/ooo", 0x7c9ee8c6b7b31c3e),
    ("store_load_replays/8w/me1/perfect/sb", 0xc168072a9fb35581),
    ("store_load_replays/8w/meinf/real/ooo", 0xdcd53a138f7dd9fb),
    ("store_load_replays/8w/meinf/real/sb", 0xf1b1b0d5bf973a41),
    (
        "store_load_replays/8w/meinf/perfect/ooo",
        0xdcd53a138f7dd9fb,
    ),
    ("store_load_replays/8w/meinf/perfect/sb", 0xf1b1b0d5bf973a41),
    ("store_load_replays/16w/me1/real/ooo", 0xca90f342916457ea),
    ("store_load_replays/16w/me1/real/sb", 0x7a09fe7e4a57a41b),
    ("store_load_replays/16w/me1/perfect/ooo", 0xca90f342916457ea),
    ("store_load_replays/16w/me1/perfect/sb", 0x7a09fe7e4a57a41b),
    ("store_load_replays/16w/meinf/real/ooo", 0x16fdfd55b280e46e),
    ("store_load_replays/16w/meinf/real/sb", 0x313c8964f44ee169),
    (
        "store_load_replays/16w/meinf/perfect/ooo",
        0x16fdfd55b280e46e,
    ),
    (
        "store_load_replays/16w/meinf/perfect/sb",
        0x313c8964f44ee169,
    ),
    ("mispredict_recovery/4w/me1/real/ooo", 0x5d790fe49fcd0cb7),
    ("mispredict_recovery/4w/me1/real/sb", 0xc1e5d610cf5f6138),
    ("mispredict_recovery/4w/me1/perfect/ooo", 0x879f8e01fac15dec),
    ("mispredict_recovery/4w/me1/perfect/sb", 0xde2edace1100810d),
    ("mispredict_recovery/4w/meinf/real/ooo", 0x36997662e9be5602),
    ("mispredict_recovery/4w/meinf/real/sb", 0x4939acfb759567e9),
    (
        "mispredict_recovery/4w/meinf/perfect/ooo",
        0xff26d031bc820eb7,
    ),
    (
        "mispredict_recovery/4w/meinf/perfect/sb",
        0x30384feaed6ca61f,
    ),
    ("mispredict_recovery/8w/me1/real/ooo", 0x272a3f07732c48a1),
    ("mispredict_recovery/8w/me1/real/sb", 0x905601a4e05406fa),
    ("mispredict_recovery/8w/me1/perfect/ooo", 0x7a1699c0ab72c6cb),
    ("mispredict_recovery/8w/me1/perfect/sb", 0xe0daa31cf02664bd),
    ("mispredict_recovery/8w/meinf/real/ooo", 0x1c21a86fe0a4b74f),
    ("mispredict_recovery/8w/meinf/real/sb", 0x56a30fe2a2d64e16),
    (
        "mispredict_recovery/8w/meinf/perfect/ooo",
        0x687597c53601a421,
    ),
    (
        "mispredict_recovery/8w/meinf/perfect/sb",
        0x799920f361c82d36,
    ),
    ("mispredict_recovery/16w/me1/real/ooo", 0x69dff49d39d05ce3),
    ("mispredict_recovery/16w/me1/real/sb", 0x61ba39e8f6b0a7fc),
    (
        "mispredict_recovery/16w/me1/perfect/ooo",
        0x62cc9ff6dfe8c321,
    ),
    ("mispredict_recovery/16w/me1/perfect/sb", 0x43a0c68d628af14b),
    ("mispredict_recovery/16w/meinf/real/ooo", 0xe6ee8ea5df54ea0a),
    ("mispredict_recovery/16w/meinf/real/sb", 0x58b5648189a0eccf),
    (
        "mispredict_recovery/16w/meinf/perfect/ooo",
        0x799224a8d26b5652,
    ),
    (
        "mispredict_recovery/16w/meinf/perfect/sb",
        0x8c666f33dcf91689,
    ),
    ("frontend_misses/4w/me1/real/ooo", 0x0121de9ec4fe3502),
    ("frontend_misses/4w/me1/real/sb", 0x0121de9ec4fe3502),
    ("frontend_misses/4w/me1/perfect/ooo", 0x0498b6738ffdf6f3),
    ("frontend_misses/4w/me1/perfect/sb", 0x0498b6738ffdf6f3),
    ("frontend_misses/4w/meinf/real/ooo", 0x709abc848929c65c),
    ("frontend_misses/4w/meinf/real/sb", 0x709abc848929c65c),
    ("frontend_misses/4w/meinf/perfect/ooo", 0x209f15fcc43eb2a6),
    ("frontend_misses/4w/meinf/perfect/sb", 0x209f15fcc43eb2a6),
    ("frontend_misses/8w/me1/real/ooo", 0x17be78aa12a9e642),
    ("frontend_misses/8w/me1/real/sb", 0x17be78aa12a9e642),
    ("frontend_misses/8w/me1/perfect/ooo", 0x42ad246343b8d730),
    ("frontend_misses/8w/me1/perfect/sb", 0x42ad246343b8d730),
    ("frontend_misses/8w/meinf/real/ooo", 0xc835d8be6f2205bc),
    ("frontend_misses/8w/meinf/real/sb", 0xc835d8be6f2205bc),
    ("frontend_misses/8w/meinf/perfect/ooo", 0x25dafcc1ee7b43a0),
    ("frontend_misses/8w/meinf/perfect/sb", 0x25dafcc1ee7b43a0),
    ("frontend_misses/16w/me1/real/ooo", 0xf0c5c43b9485d6fa),
    ("frontend_misses/16w/me1/real/sb", 0xf0c5c43b9485d6fa),
    ("frontend_misses/16w/me1/perfect/ooo", 0xdd0996a499efada7),
    ("frontend_misses/16w/me1/perfect/sb", 0xdd0996a499efada7),
    ("frontend_misses/16w/meinf/real/ooo", 0xf3d61a49204a5de1),
    ("frontend_misses/16w/meinf/real/sb", 0xf3d61a49204a5de1),
    ("frontend_misses/16w/meinf/perfect/ooo", 0xbf38848ab344d568),
    ("frontend_misses/16w/meinf/perfect/sb", 0xbf38848ab344d568),
    ("structure_pressure/4w/me1/real/ooo", 0x8c3a903ca68f18ef),
    ("structure_pressure/4w/me1/real/sb", 0x227fad41d5e68aad),
    ("structure_pressure/4w/me1/perfect/ooo", 0x1f5b1e11873c98a2),
    ("structure_pressure/4w/me1/perfect/sb", 0x4e02e62285422c3e),
    ("structure_pressure/4w/meinf/real/ooo", 0xa63028f4fb1f5356),
    ("structure_pressure/4w/meinf/real/sb", 0x3cf40b84559b5349),
    (
        "structure_pressure/4w/meinf/perfect/ooo",
        0xcad94611a53573cf,
    ),
    ("structure_pressure/4w/meinf/perfect/sb", 0x7c2ea6f414d9a12a),
    ("structure_pressure/8w/me1/real/ooo", 0x19c354230a69ba79),
    ("structure_pressure/8w/me1/real/sb", 0x08c63616d05a4e5c),
    ("structure_pressure/8w/me1/perfect/ooo", 0xcb47bdc66ae89c3a),
    ("structure_pressure/8w/me1/perfect/sb", 0x7bd3fee9fa3d431d),
    ("structure_pressure/8w/meinf/real/ooo", 0x3af41b8242416147),
    ("structure_pressure/8w/meinf/real/sb", 0x5c54d3346091dd78),
    (
        "structure_pressure/8w/meinf/perfect/ooo",
        0x18700f9a7492b87e,
    ),
    ("structure_pressure/8w/meinf/perfect/sb", 0xc9b72f9ea56de0a9),
    ("structure_pressure/16w/me1/real/ooo", 0x772e5a556c2c4faf),
    ("structure_pressure/16w/me1/real/sb", 0xdc5787f1162ebc01),
    ("structure_pressure/16w/me1/perfect/ooo", 0x97238bff6b3152cc),
    ("structure_pressure/16w/me1/perfect/sb", 0x720dfd63c015e37e),
    ("structure_pressure/16w/meinf/real/ooo", 0xb643267184700198),
    ("structure_pressure/16w/meinf/real/sb", 0xcfc773f9c5dbe6c1),
    (
        "structure_pressure/16w/meinf/perfect/ooo",
        0xa2cfac26ee520a93,
    ),
    (
        "structure_pressure/16w/meinf/perfect/sb",
        0xec0a36824e6eca99,
    ),
];

#[test]
fn timing_model_matches_golden_digests() {
    let got = digests();
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    if got != want {
        let mut table = String::from("const GOLDEN: &[(&str, u64)] = &[\n");
        for (name, d) in &got {
            table.push_str(&format!("    (\"{name}\", {d:#018x}),\n"));
        }
        table.push_str("];\n");
        let diverged: Vec<&str> = got
            .iter()
            .filter(|(n, d)| !want.iter().any(|(wn, wd)| wn == n && wd == d))
            .map(|(n, _)| n.as_str())
            .collect();
        panic!(
            "{} of {} points diverged from the golden digests: {:?}\n\
             if the timing model changed on purpose, replace GOLDEN with:\n{table}",
            diverged.len(),
            got.len(),
            diverged
        );
    }
}

/// The traces reach the corners they are named for, on at least one
/// machine, so a digest match is not vacuous.
#[test]
fn golden_traces_exercise_their_corners() {
    let four = |model: IssueModel| {
        let mut c = SimConfig::four_way();
        c.cpu.issue_model = model;
        Simulator::new(c)
    };
    let ooo = four(IssueModel::OutOfOrder);
    use sapa_core::cpu::Trauma;

    let r = ooo.run(&cold_miss_chain());
    assert!(r.traumas.get(Trauma::MmDl2) > r.cycles / 2, "{r}");

    let r = ooo.run(&mshr_exhaustion());
    assert!(r.traumas.get(Trauma::MmDmqf) > 0, "{r}");

    let r = ooo.run(&store_load_replays());
    assert!(r.structures.replays > 100, "{r}");

    let r = ooo.run(&mispredict_recovery());
    assert!(r.traumas.get(Trauma::IfPred) > 0, "{r}");

    let r = ooo.run(&frontend_misses());
    assert!(r.il1.misses > 100 && r.itlb.misses > 100, "{r}");
    assert!(r.traumas.get(Trauma::IfNfa) > 0, "{r}");

    let mut small = SimConfig::four_way();
    tiny(&mut small.cpu);
    let r = Simulator::new(small).run(&structure_pressure());
    let s = &r.structures;
    for (what, n) in [
        ("rename", s.rename_stalls),
        ("rs", s.rs_full_stalls),
        ("rob", s.rob_full_stalls),
        ("lq", s.lq_full_stalls),
        ("sq", s.sq_full_stalls),
    ] {
        assert!(n > 0, "no {what} stalls: {s:?}");
    }
}
