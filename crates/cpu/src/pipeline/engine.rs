//! The cycle-driven engine: retire → issue → dispatch → fetch over the
//! staged backend structures (RAT, reservation stations, ROB, LSQ).
//!
//! One engine runs both issue models. The cycle skeleton, frontend,
//! rename accounting and issue scan are shared; the
//! [`IssueModel`] selector changes only how loads order against
//! stores:
//!
//! * **Scoreboard** (the original logic, kept as the comparison
//!   oracle): a load takes a dispatch-time dependence on the youngest
//!   in-flight store to its granule — conservative, never replays.
//! * **OutOfOrder** (default): loads bypass older stores with
//!   unresolved or non-conflicting addresses; a store that resolves to
//!   a granule a younger load already read squashes that load back to
//!   its reservation station with a dependence on the store
//!   (see [`super::lsq`]).
//!
//! ## Quiescent-cycle fast-forward
//!
//! A cycle is *quiescent* when nothing retired, issued (or re-issued
//! after a replay) or dispatched, and fetch neither fetched nor touched
//! the I-cache, TLB, predictor or NFA. Such a cycle's only writes are
//! idempotent — an entry's `mshr_blocked` flag, the `IfFull`/`IfBrch`
//! fetch-stall reason, `dispatch_stall` — and branch resolutions or
//! MSHRs it expired at its top are not due again. Every decision the
//! loop makes reads state that only a retire, issue, dispatch or fetch
//! changes, or compares the clock with one of five deadlines: an
//! executing entry's `done_at`, a pending branch resolution, an MSHR
//! completion, the cycle the ibuffer head clears the frontend depth,
//! and `fetch_stall_until`. So every cycle before the earliest of them
//! repeats the quiescent one exactly, and [`Engine::run`] charges that
//! stretch in one step — the blamed trauma, each occupancy histogram
//! and the dispatch-structure stall counter, `k` cycles at once —
//! without ever stepping past the watchdog's cycle.

use std::collections::VecDeque;

use sapa_isa::inst::Inst;

use crate::branch::{NfaTable, Predictor};
use crate::cache::{MemoryHierarchy, ServedBy};
use crate::config::{IssueModel, SimConfig, UnitClass};
use crate::stats::{OccupancyHistogram, SimReport, StructStalls};
use crate::trauma::{Trauma, TraumaCounts};

use super::lsq::Lsq;
use super::rename::Rat;
use super::rob::{Rob, RobEntry, WAITING};
use super::rs::Stations;
use super::{diq_trauma, ful_trauma, rg_trauma_for, unit_for, DecodeBuf, InstSource};

const FETCH_FREE: u64 = 0;

pub(super) struct Engine<'a, S> {
    cfg: &'a SimConfig,
    model: IssueModel,
    src: &'a mut S,
    n_insts: usize,
    cycle: u64,

    // Block-buffered decode window over the source: instructions
    // `block_start .. block_start + block_len` sit decoded in `block`.
    block: &'a mut [Inst],
    block_start: usize,
    block_len: usize,

    // Frontend.
    next_fetch: usize,
    fetch_stall_until: u64,
    fetch_stall_reason: Trauma,
    /// Sequence number of a fetched mispredicted branch that has not
    /// yet scheduled its recovery; fetch is blocked while this is set.
    mispredict_blocker: Option<u64>,
    ibuffer: VecDeque<(Inst, u64)>, // (decoded instruction, fetch cycle)
    cur_fetch_line: u64,
    pending_branches: u32,
    branch_resolutions: Vec<u64>,

    // Backend structures.
    rob: Rob,
    rat: Rat,
    stations: Stations,
    lsq: Lsq,
    mshr: Vec<u64>, // completion cycles of outstanding DL1 misses
    hierarchy: MemoryHierarchy,
    predictor: Predictor,
    nfa: NfaTable,

    // Dispatch-stall bookkeeping for trauma attribution.
    dispatch_stall: Option<Trauma>,

    // Statistics.
    traumas: TraumaCounts,
    structures: StructStalls,
    store_forwards: u64,
    retired: u64,
    unit_issued: [u64; UnitClass::COUNT],
    queue_occ: Vec<OccupancyHistogram>,
    inflight_occ: OccupancyHistogram,
    retireq_occ: OccupancyHistogram,
    lq_occ: OccupancyHistogram,
    sq_occ: OccupancyHistogram,
}

impl<'a, S: InstSource> Engine<'a, S> {
    pub(super) fn new(
        cfg: &'a SimConfig,
        n_insts: usize,
        src: &'a mut S,
        buf: &'a mut DecodeBuf,
    ) -> Self {
        let model = cfg.cpu.issue_model;
        // The scoreboard model predates the RS split and sizes its
        // stations from the issue queues; the staged model has its own
        // knob.
        let station_caps = match model {
            IssueModel::Scoreboard => cfg.cpu.issue_queue,
            IssueModel::OutOfOrder => cfg.cpu.rs_entries,
        };
        let queue_occ = UnitClass::ALL
            .iter()
            .map(|&c| OccupancyHistogram::new(station_caps[c.index()] as usize))
            .collect();
        Engine {
            cfg,
            model,
            src,
            n_insts,
            cycle: 0,
            block: &mut buf.buf,
            block_start: 0,
            block_len: 0,
            next_fetch: 0,
            fetch_stall_until: FETCH_FREE,
            fetch_stall_reason: Trauma::Other,
            mispredict_blocker: None,
            ibuffer: VecDeque::with_capacity(cfg.cpu.ibuffer as usize),
            cur_fetch_line: u64::MAX,
            pending_branches: 0,
            branch_resolutions: Vec::with_capacity(cfg.branch.max_pred_branches as usize),
            rob: Rob::new(cfg.cpu.retire_queue as usize),
            rat: Rat::new(&cfg.cpu),
            stations: Stations::new(station_caps),
            lsq: Lsq::new(cfg.cpu.lsq_loads as usize, cfg.cpu.lsq_stores as usize),
            mshr: Vec::with_capacity(cfg.cpu.max_outstanding_misses as usize),
            hierarchy: MemoryHierarchy::new(&cfg.mem),
            predictor: Predictor::from_config(&cfg.branch),
            nfa: NfaTable::new(cfg.branch.nfa_size, cfg.branch.nfa_assoc),
            dispatch_stall: None,
            traumas: TraumaCounts::new(),
            structures: StructStalls::new(),
            store_forwards: 0,
            retired: 0,
            unit_issued: [0; UnitClass::COUNT],
            queue_occ,
            inflight_occ: OccupancyHistogram::new(cfg.cpu.inflight as usize),
            retireq_occ: OccupancyHistogram::new(cfg.cpu.retire_queue as usize),
            lq_occ: OccupancyHistogram::new(cfg.cpu.lsq_loads as usize),
            sq_occ: OccupancyHistogram::new(cfg.cpu.lsq_stores as usize),
        }
    }

    pub(super) fn run(mut self) -> SimReport {
        let watchdog = self.n_insts as u64 * 1000 + 1_000_000;
        while self.next_fetch < self.n_insts || !self.ibuffer.is_empty() || !self.rob.is_empty() {
            self.cycle += 1;
            assert!(
                self.cycle < watchdog,
                "simulator watchdog tripped at cycle {} ({} of {} instructions retired): \
                 scheduling deadlock",
                self.cycle,
                self.retired,
                self.n_insts
            );

            self.expire_resolutions();
            let retired = self.retire();
            let issued = self.issue();
            self.dispatch_stall = None;
            let dispatched = self.dispatch();
            let fetched = self.fetch();
            // Moreno-style accounting: any cycle that retires fewer
            // instructions than the machine width is charged to the
            // stall reason of the oldest non-retiring operation.
            let blame = (retired < self.cfg.cpu.retire_width).then(|| self.blame());
            self.account(blame, 1);

            if retired == 0 && issued == 0 && dispatched == 0 && !fetched {
                // Quiescent: the cycles before the next event repeat
                // this one (module docs), up to the watchdog's cycle.
                let last = self.next_event().min(watchdog) - 1;
                let repeats = last - self.cycle;
                if repeats > 0 {
                    self.cycle = last;
                    self.account(blame, repeats);
                }
            }
        }

        // Issue slots offered per class: every simulated cycle each
        // unit of the class could have started one instruction.
        let mut unit_slots = [0u64; UnitClass::COUNT];
        for &class in &UnitClass::ALL {
            unit_slots[class.index()] = self.cycle * self.cfg.cpu.units[class.index()] as u64;
        }

        SimReport {
            cycles: self.cycle,
            instructions: self.retired,
            traumas: self.traumas,
            structures: self.structures,
            store_forwards: self.store_forwards,
            unit_issued: self.unit_issued,
            unit_slots,
            dl1: self.hierarchy.dl1_stats(),
            il1: self.hierarchy.il1_stats(),
            l2: self.hierarchy.l2_stats(),
            dtlb: self.hierarchy.dtlb_stats(),
            itlb: self.hierarchy.itlb_stats(),
            bp_predictions: self.predictor.predictions(),
            bp_mispredictions: self.predictor.mispredictions(),
            queue_occupancy: self.queue_occ,
            inflight_occupancy: self.inflight_occ,
            retireq_occupancy: self.retireq_occ,
            lq_occupancy: self.lq_occ,
            sq_occupancy: self.sq_occ,
        }
    }

    /// Charges `cycles` identical cycles: the dispatch-structure stall,
    /// every occupancy histogram at its current level and, on a cycle
    /// that retired below the machine width, the blamed trauma.
    fn account(&mut self, blame: Option<Trauma>, cycles: u64) {
        // Per-structure stall attribution: a dispatch stage blocked by
        // a full or exhausted backend structure charges that structure,
        // independent of which trauma the cycle is blamed on.
        if let Some(t) = self.dispatch_stall {
            self.structures.charge_dispatch(t, cycles);
        }
        for &class in &UnitClass::ALL {
            let len = self.stations.len(class);
            self.queue_occ[class.index()].record(len, cycles);
        }
        self.inflight_occ
            .record(self.rob.len() + self.ibuffer.len(), cycles);
        self.retireq_occ.record(self.rob.len(), cycles);
        self.lq_occ.record(self.lsq.loads_len(), cycles);
        self.sq_occ.record(self.lsq.stores_len(), cycles);
        if let Some(blame) = blame {
            self.traumas.charge(blame, cycles);
            if blame == Trauma::MmStqc {
                self.structures.replay_wait_cycles += cycles;
            }
        }
    }

    /// The earliest cycle after the current one at which a timed event
    /// can change what the cycle loop does (module docs), or `u64::MAX`
    /// if none is pending. Expired resolutions and MSHRs were removed at
    /// the top of the cycle, so every remaining one lies ahead. A branch
    /// resolution falls on its executing branch's `done_at` and so never
    /// comes first today; it stays in the minimum so that exactness does
    /// not rest on that coincidence. An MSHR can outlive its load, which
    /// a replay sends back to Waiting.
    fn next_event(&self) -> u64 {
        let now = self.cycle;
        let mut next = self.rob.next_completion(now);
        for &t in self.branch_resolutions.iter().chain(&self.mshr) {
            next = next.min(t);
        }
        if let Some(&(_, fetched)) = self.ibuffer.front() {
            let decoded = fetched + self.cfg.cpu.frontend_depth as u64;
            if decoded > now {
                next = next.min(decoded);
            }
        }
        if self.fetch_stall_until > now {
            next = next.min(self.fetch_stall_until);
        }
        next
    }

    /// Decoded instruction `idx` (below `n_insts`) out of the block
    /// buffer, refilling from the source when fetch steps past the
    /// buffered block.
    ///
    /// Fetch is sequential — `idx` is either the last index served (a
    /// stalled fetch retrying) or the one after it — so the offset into
    /// the current block is always in `0..=block_len`, and a refill is
    /// needed exactly when it equals `block_len`.
    #[inline]
    fn inst_at(&mut self, idx: usize) -> Inst {
        let off = idx - self.block_start;
        if off == self.block_len {
            let n = self.src.fill_block(self.block);
            debug_assert!(n > 0, "source ran dry at {idx} of {}", self.n_insts);
            self.block_start = idx;
            self.block_len = n;
            return self.block[0];
        }
        self.block[off]
    }

    fn expire_resolutions(&mut self) {
        let now = self.cycle;
        let before = self.branch_resolutions.len();
        self.branch_resolutions.retain(|&t| t > now);
        self.pending_branches -= (before - self.branch_resolutions.len()) as u32;
        self.mshr.retain(|&t| t > now);
    }

    fn retire(&mut self) -> u32 {
        let mut n = 0;
        while n < self.cfg.cpu.retire_width {
            let Some(head) = self.rob.front() else { break };
            if head.done_at > self.cycle {
                break;
            }
            let inst = head.inst;
            let seq = self.rob.head_seq();
            self.rob.pop_front();
            if inst.op.is_store() {
                self.lsq.retire_store(seq);
            } else if inst.op.is_load() && self.model == IssueModel::OutOfOrder {
                self.lsq.retire_load(seq);
            }
            self.rat.release(&inst);
            self.retired += 1;
            n += 1;
        }
        n
    }

    /// Runs the issue scan; returns how many instructions issued.
    fn issue(&mut self) -> u32 {
        let mut total = 0;
        for &class in &UnitClass::ALL {
            let units = self.cfg.cpu.units[class.index()];
            let mut issued = 0;
            let mut examined = 0;
            let mut qi = 0;
            // Limited-window oldest-first select, like real issue logic.
            while issued < units && qi < self.stations.len(class) && examined < 24 {
                examined += 1;
                let seq = self.stations.get(class, qi);
                if !self.try_issue(seq) {
                    qi += 1;
                    continue;
                }
                self.stations.remove(class, qi);
                issued += 1;
            }
            total += issued;
        }
        total
    }

    /// Attempts to issue the instruction `seq`; returns `true` on
    /// success.
    fn try_issue(&mut self, seq: u64) -> bool {
        let now = self.cycle;
        let Some(e) = self.rob.entry(seq) else {
            return false;
        };
        if e.done_at != WAITING {
            return false;
        }
        for k in 0..e.ndeps as usize {
            if !self.rob.dep_ready(e.deps[k], now) {
                return false;
            }
        }
        let inst = e.inst;
        let class = e.queue;
        let probed = e.probed;
        let prior_served = e.served;
        let prior_tlb = e.tlb_miss;
        let base_lat = self.cfg.cpu.unit_latency[class.index()];

        let (done_at, served, tlb_miss, mshr_used) = if inst.op.is_mem() {
            let addr = inst.ea as u64;
            let granule = inst.ea >> 4;
            let forward_from =
                if self.model == IssueModel::OutOfOrder && inst.op.is_load() && !probed {
                    self.lsq.forward_source(seq, granule)
                } else {
                    None
                };
            // The store-forwarding network runs at the L1 pipeline's
            // load-to-use latency: forwarded data is no faster than a
            // hit, it just never waits on the miss path.
            let fwd_lat = self.cfg.mem.dl1.latency.max(base_lat) as u64;
            if probed {
                // A replayed load re-issuing: its cache access already
                // happened on the first issue, and the data now comes
                // from the conflicting store's queue entry — a store
                // forward delivered the hard way.
                self.store_forwards += 1;
                (now + fwd_lat, prior_served, prior_tlb, false)
            } else if forward_from.is_some() {
                // Store-to-load forwarding: data arrives from the store
                // queue, bypassing the miss path. The cache is still
                // accessed so DL1 statistics stay a pure function of
                // the trace.
                let access = self.hierarchy.data_access(addr);
                self.store_forwards += 1;
                (now + fwd_lat, Some(ServedBy::L1), access.tlb_miss, false)
            } else {
                // Memory operation: consult the hierarchy.
                let will_hit = self.hierarchy.probe_dl1(addr);
                if !will_hit
                    && inst.op.is_load()
                    && self.mshr.len() >= self.cfg.cpu.max_outstanding_misses as usize
                {
                    // No MSHR for a new miss: mark and retry later.
                    if let Some(em) = self.rob.entry_mut(seq) {
                        em.mshr_blocked = true;
                    }
                    return false;
                }
                let access = self.hierarchy.data_access(addr);
                let mut lat = access.latency;
                if inst.width() > 16 {
                    lat += self.cfg.cpu.wide_load_extra_latency;
                }
                if inst.op.is_store() {
                    // Stores drain through the store queue off the
                    // critical path; completion is immediate for
                    // dependents.
                    (
                        now + base_lat as u64,
                        Some(access.served_by),
                        access.tlb_miss,
                        false,
                    )
                } else {
                    (
                        now + lat.max(base_lat) as u64,
                        Some(access.served_by),
                        access.tlb_miss,
                        access.served_by != ServedBy::L1,
                    )
                }
            }
        } else {
            (now + base_lat as u64, None, false, false)
        };

        if mshr_used {
            self.mshr.push(done_at);
        }

        // Replays re-occupy an issue slot but are not new work: each
        // retired instruction is counted on exactly one unit, once.
        if !probed {
            self.unit_issued[class.index()] += 1;
        }
        let is_cond = {
            let e = self.rob.entry_mut(seq).expect("entry exists");
            e.done_at = done_at;
            e.served = served;
            e.tlb_miss = tlb_miss;
            e.mshr_blocked = false;
            e.probed = true;
            e.is_cond_branch
        };

        if self.model == IssueModel::OutOfOrder && inst.op.is_mem() {
            let granule = inst.ea >> 4;
            if inst.op.is_load() {
                self.lsq.set_load_issued(seq, true);
            } else if inst.op.is_store() {
                // The store's address just resolved: younger loads that
                // issued past it to the same granule mis-speculated.
                for lseq in self.lsq.resolve_store(seq, granule) {
                    self.replay_load(lseq, seq);
                }
            }
        }

        if is_cond {
            self.branch_resolutions.push(done_at);
            // A mispredicted branch schedules the fetch restart.
            let mispredicted = self.rob.entry(seq).map(|e| e.mispredicted).unwrap_or(false);
            if mispredicted && self.mispredict_blocker == Some(seq) {
                self.mispredict_blocker = None;
                self.fetch_stall_until = done_at + self.cfg.branch.mispredict_recovery as u64;
                self.fetch_stall_reason = Trauma::IfPred;
            }
        }
        true
    }

    /// Squashes a mis-speculated load back to its reservation station
    /// with a single dependence on the store it conflicted with. Its
    /// original register dependences were satisfied when it first
    /// issued, so only the store ordering remains. Forward progress is
    /// guaranteed: the store is older, already executing, and completes
    /// at a fixed cycle, after which the load re-issues and forwards.
    ///
    /// Consumers that already issued with the load's speculative value
    /// are *not* re-simulated — the model charges the replayed load's
    /// latency but not a full dependent-tree squash, matching
    /// Turandot's low-cost recovery approximation.
    fn replay_load(&mut self, lseq: u64, store_seq: u64) {
        let Some(e) = self.rob.entry_mut(lseq) else {
            return;
        };
        debug_assert!(e.probed, "replaying a load that never issued");
        e.done_at = WAITING;
        e.deps[0] = store_seq;
        e.ndeps = 1;
        e.replayed = true;
        e.mshr_blocked = false;
        self.lsq.set_load_issued(lseq, false);
        self.stations.insert_sorted(UnitClass::Mem, lseq);
        self.structures.replays += 1;
    }

    /// Dispatches from the ibuffer; returns how many instructions left it.
    fn dispatch(&mut self) -> u32 {
        let mut n = 0;
        while n < self.cfg.cpu.dispatch_width {
            let Some(&(inst, fetch_cycle)) = self.ibuffer.front() else {
                break;
            };
            // Frontend pipeline depth: decode/rename take a few cycles.
            if fetch_cycle + self.cfg.cpu.frontend_depth as u64 > self.cycle {
                self.dispatch_stall = Some(Trauma::Decode);
                break;
            }
            if self.rob.len() >= self.cfg.cpu.retire_queue as usize {
                self.dispatch_stall = Some(Trauma::MmRoqf);
                break;
            }
            let class = unit_for(inst.op);
            if self.stations.is_full(class) {
                self.dispatch_stall = Some(diq_trauma(class));
                break;
            }
            if self.model == IssueModel::OutOfOrder {
                if inst.op.is_load() && self.lsq.loads_full() {
                    self.dispatch_stall = Some(Trauma::MmDcqf);
                    break;
                }
                if inst.op.is_store() && self.lsq.stores_full() {
                    self.dispatch_stall = Some(Trauma::MmStqf);
                    break;
                }
            }
            if !self.rat.can_rename(&inst) {
                self.dispatch_stall = Some(Trauma::Rename);
                break;
            }

            // Record dependencies on in-flight producers.
            let mut deps = [0u64; 4];
            let mut ndeps = self.rat.collect_deps(&inst, self.rob.head_seq(), &mut deps);
            let seq = self.rob.next_seq();
            let granule = inst.ea >> 4;
            match self.model {
                IssueModel::Scoreboard => {
                    // Conservative disambiguation decided at dispatch: a
                    // load after an in-flight store to the same granule
                    // waits for that store (store-queue forwarding, no
                    // speculative bypass).
                    if inst.op.is_load() {
                        if let Some(sseq) = self.lsq.youngest_store_to(granule) {
                            deps[ndeps as usize] = sseq;
                            ndeps += 1;
                            self.store_forwards += 1;
                        }
                    } else if inst.op.is_store() {
                        self.lsq.push_store(seq, granule, true);
                    }
                }
                IssueModel::OutOfOrder => {
                    // Loads carry no store ordering at dispatch — they
                    // bypass speculatively and the LSQ catches
                    // conflicts at store-resolve time.
                    if inst.op.is_load() {
                        self.lsq.push_load(seq, granule);
                    } else if inst.op.is_store() {
                        self.lsq.push_store(seq, granule, false);
                    }
                }
            }
            self.rat.rename(&inst, seq);

            let is_cond = inst.is_cond_branch();
            let mispredicted = is_cond && {
                // Prediction already happened at fetch; the outcome was
                // recorded in the ibuffer companion entry via the
                // blocker mechanism. Recompute from the blocker seq.
                self.mispredict_blocker == Some(seq)
            };

            self.rob.push(RobEntry {
                mispredicted,
                is_cond_branch: is_cond,
                ..RobEntry::new(inst, class, deps, ndeps)
            });
            self.stations.push(class, seq);
            self.ibuffer.pop_front();
            n += 1;
        }
        n
    }

    /// Runs the fetch stage; returns whether it read the trace — and
    /// with it fetched an instruction or touched the I-cache, TLB,
    /// predictor or NFA.
    fn fetch(&mut self) -> bool {
        if self.cycle < self.fetch_stall_until {
            return false;
        }
        // While a mispredicted branch is unresolved, the frontend only
        // holds correct-path instructions that were already buffered;
        // no new fetch happens.
        if self.mispredict_blocker.is_some() {
            return false;
        }
        // The last disruption reason stays sticky so that refill
        // (decode-depth) cycles after a redirect are charged to the
        // redirect's cause, as the paper's accounting does.

        let line_mask = !(self.cfg.mem.il1.line as u64 - 1);
        let mut active = false;
        let mut n = 0;
        while n < self.cfg.cpu.fetch_width {
            if self.next_fetch >= self.n_insts {
                break;
            }
            if self.ibuffer.len() >= self.cfg.cpu.ibuffer as usize
                || self.rob.len() + self.ibuffer.len() >= self.cfg.cpu.inflight as usize
            {
                // Instruction buffer full, or the machine-wide in-flight
                // limit reached: fetch must wait for retirement.
                self.fetch_stall_reason = Trauma::IfFull;
                break;
            }
            if self.pending_branches >= self.cfg.branch.max_pred_branches {
                self.fetch_stall_reason = Trauma::IfBrch;
                break;
            }
            // A stalled fetch re-reads the same index next cycle; that
            // repeat stays inside the decoded block buffer.
            let inst = self.inst_at(self.next_fetch);
            active = true;

            // I-cache: accessing a new line may miss.
            let line = inst.pc as u64 & line_mask;
            if line != self.cur_fetch_line {
                let access = self.hierarchy.inst_access(line);
                self.cur_fetch_line = line;
                if access.served_by != ServedBy::L1 || access.tlb_miss {
                    self.fetch_stall_until = self.cycle + access.latency as u64;
                    self.fetch_stall_reason = if access.tlb_miss && access.served_by == ServedBy::L1
                    {
                        Trauma::IfTlb1
                    } else {
                        match access.served_by {
                            ServedBy::L2 => Trauma::IfL1,
                            _ => Trauma::IfL2,
                        }
                    };
                    break;
                }
            }

            let seq_if_dispatched =
                self.rob.head_seq() + (self.rob.len() + self.ibuffer.len()) as u64;
            self.ibuffer.push_back((inst, self.cycle));
            self.next_fetch += 1;
            n += 1;

            if inst.op.is_branch() {
                if inst.is_cond_branch() {
                    self.pending_branches += 1;
                    let correct = self.predictor.predict_and_update(inst.pc, inst.taken());
                    if !correct {
                        // Fetch stops until this branch resolves.
                        self.mispredict_blocker = Some(seq_if_dispatched);
                        break;
                    }
                }
                if inst.taken() {
                    // Redirect through the NFA/BTB.
                    if !self.nfa.lookup_insert(inst.pc) {
                        self.fetch_stall_until =
                            self.cycle + self.cfg.branch.nfa_miss_penalty as u64;
                        self.fetch_stall_reason = Trauma::IfNfa;
                    }
                    break; // taken branches end the fetch group
                }
            }
        }
        active
    }

    /// Stall-reason attribution for a zero-retire cycle.
    fn blame(&self) -> Trauma {
        if let Some(head) = self.rob.front() {
            if head.done_at != WAITING {
                // Multi-cycle execution at the head: charge the
                // resource it occupies.
                if head.tlb_miss && head.served == Some(ServedBy::L1) {
                    // The page walk, not the cache, is the delay.
                    Trauma::MmTlb1
                } else {
                    match head.served {
                        Some(ServedBy::L2) => Trauma::MmDl1,
                        Some(ServedBy::Memory) => Trauma::MmDl2,
                        _ => rg_trauma_for(head.inst.op, head.served),
                    }
                }
            } else if head.mshr_blocked {
                Trauma::MmDmqf
            } else if head.replayed {
                // Memory-disambiguation replay: the head load was
                // squashed by a conflicting store and waits to re-issue
                // — a store-queue conflict.
                Trauma::MmStqc
            } else {
                // First unready dependency decides the blame.
                for k in 0..head.ndeps as usize {
                    let dep = head.deps[k];
                    if !self.rob.dep_ready(dep, self.cycle) {
                        if let Some(p) = self.rob.entry(dep) {
                            return rg_trauma_for(p.inst.op, p.served);
                        }
                    }
                }
                // Ready but not issued: all units busy.
                ful_trauma(head.queue)
            }
        } else if self.mispredict_blocker.is_some() || self.fetch_stall_reason == Trauma::IfPred {
            Trauma::IfPred
        } else if self.cycle < self.fetch_stall_until {
            self.fetch_stall_reason
        } else if self.dispatch_stall == Some(Trauma::Decode)
            && matches!(
                self.fetch_stall_reason,
                Trauma::IfPred | Trauma::IfNfa | Trauma::IfL1 | Trauma::IfL2
            )
        {
            // Pipeline-refill cycles after a frontend disruption belong
            // to the disruption, not to "decode".
            self.fetch_stall_reason
        } else if let Some(t) = self.dispatch_stall {
            t
        } else if self.next_fetch >= self.n_insts {
            Trauma::Other
        } else {
            Trauma::Decode
        }
    }
}
