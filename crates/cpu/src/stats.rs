//! Simulation statistics and the report returned by a run.

use crate::cache::CacheStats;
use crate::config::UnitClass;
use crate::trauma::{Trauma, TraumaCounts};

/// Cycles spent at each occupancy level of a queue: `hist[k]` is the
/// number of cycles the queue held exactly `k` entries (paper Fig. 10).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OccupancyHistogram {
    hist: Vec<u64>,
}

impl OccupancyHistogram {
    /// Creates a histogram for occupancies `0..=capacity`.
    pub fn new(capacity: usize) -> Self {
        OccupancyHistogram {
            hist: vec![0; capacity + 1],
        }
    }

    /// Records `cycles` cycles at `occupancy` (clamped to capacity).
    #[inline]
    pub fn record(&mut self, occupancy: usize, cycles: u64) {
        let i = occupancy.min(self.hist.len() - 1);
        self.hist[i] += cycles;
    }

    /// Cycles spent at exactly `occupancy` entries.
    pub fn cycles_at(&self, occupancy: usize) -> u64 {
        self.hist.get(occupancy).copied().unwrap_or(0)
    }

    /// The raw histogram (`len = capacity + 1`).
    pub fn as_slice(&self) -> &[u64] {
        &self.hist
    }

    /// Mean occupancy over all recorded cycles (0 if none).
    pub fn mean(&self) -> f64 {
        let cycles: u64 = self.hist.iter().sum();
        if cycles == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .hist
            .iter()
            .enumerate()
            .map(|(k, &c)| k as u64 * c)
            .sum();
        weighted as f64 / cycles as f64
    }
}

/// Per-structure stall attribution — the staged-backend view of the
/// trauma histogram. Dispatch-blocked cycles are broken down by which
/// backend structure was exhausted (rename registers, a reservation
/// station, the ROB, the load queue, the store queue), and the memory-
/// disambiguation machinery reports how many loads it squashed and how
/// many head-of-window cycles were spent waiting on replays.
///
/// A cycle can charge at most one dispatch structure (the first one the
/// in-order dispatch stage hit), so the five `*_stalls` counters are
/// disjoint and each is bounded by the run's cycle count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StructStalls {
    /// Cycles dispatch stalled with no free rename register.
    pub rename_stalls: u64,
    /// Cycles dispatch stalled on a full reservation station (any class).
    pub rs_full_stalls: u64,
    /// Cycles dispatch stalled on a full reorder buffer.
    pub rob_full_stalls: u64,
    /// Cycles dispatch stalled on a full load queue.
    pub lq_full_stalls: u64,
    /// Cycles dispatch stalled on a full store queue.
    pub sq_full_stalls: u64,
    /// Loads squashed by memory disambiguation (an older store resolved
    /// to a granule the load had already speculatively read).
    pub replays: u64,
    /// Zero-retire cycles charged to a replayed load at the window head
    /// waiting to re-issue ([`Trauma::MmStqc`]).
    pub replay_wait_cycles: u64,
}

impl StructStalls {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total dispatch-blocked cycles across the five structures.
    pub fn total_dispatch_stalls(&self) -> u64 {
        self.rename_stalls
            + self.rs_full_stalls
            + self.rob_full_stalls
            + self.lq_full_stalls
            + self.sq_full_stalls
    }

    /// Charges `cycles` dispatch-stall cycles to the structure behind
    /// the given dispatch-stage trauma (no-op for non-structural reasons
    /// such as decode depth).
    pub(crate) fn charge_dispatch(&mut self, t: Trauma, cycles: u64) {
        match t {
            Trauma::Rename => self.rename_stalls += cycles,
            Trauma::MmRoqf => self.rob_full_stalls += cycles,
            Trauma::MmDcqf => self.lq_full_stalls += cycles,
            Trauma::MmStqf => self.sq_full_stalls += cycles,
            Trauma::DiqVfpu
            | Trauma::DiqVcmplx
            | Trauma::DiqVper
            | Trauma::DiqVi
            | Trauma::DiqCmplx
            | Trauma::DiqLog
            | Trauma::DiqBr
            | Trauma::DiqMem
            | Trauma::DiqFpu
            | Trauma::DiqFix => self.rs_full_stalls += cycles,
            _ => {}
        }
    }
}

/// Everything a simulation run measured.
///
/// Equality compares every counter and histogram, so two reports are
/// `==` exactly when the runs were microarchitecturally identical —
/// the property the parallel sweep engine's determinism tests assert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Stall-cycle attribution (paper Fig. 2).
    pub traumas: TraumaCounts,
    /// Per-structure stall attribution (rename/RS/ROB/LSQ pressure and
    /// disambiguation replays).
    pub structures: StructStalls,
    /// L1 data-cache counters.
    pub dl1: CacheStats,
    /// L1 instruction-cache counters.
    pub il1: CacheStats,
    /// Unified L2 counters.
    pub l2: CacheStats,
    /// Data-TLB counters (zero when translation is perfect).
    pub dtlb: CacheStats,
    /// Instruction-TLB counters.
    pub itlb: CacheStats,
    /// Loads that took a store-queue dependency on an in-flight store.
    pub store_forwards: u64,
    /// Instructions issued per functional-unit class (indexed by
    /// [`UnitClass::index`]).
    pub unit_issued: [u64; UnitClass::COUNT],
    /// Issue slots offered per class over the run (`cycles × units` of
    /// the class); `unit_issued[c] / unit_slots[c]` is the class's busy
    /// fraction. Stored as raw counters so reports stay `Eq`.
    pub unit_slots: [u64; UnitClass::COUNT],
    /// Conditional branches predicted.
    pub bp_predictions: u64,
    /// Conditional branches mispredicted.
    pub bp_mispredictions: u64,
    /// Per-class issue-queue occupancy (paper Fig. 10a/b).
    pub queue_occupancy: Vec<OccupancyHistogram>,
    /// In-flight instruction count per cycle (paper Fig. 10c/d).
    pub inflight_occupancy: OccupancyHistogram,
    /// Retire-queue (ROB) occupancy per cycle.
    pub retireq_occupancy: OccupancyHistogram,
    /// Load-queue occupancy per cycle (all-zero under the scoreboard
    /// model, which has no load queue).
    pub lq_occupancy: OccupancyHistogram,
    /// Store-queue occupancy per cycle.
    pub sq_occupancy: OccupancyHistogram,
}

impl SimReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Branch prediction accuracy in `[0, 1]` (1.0 with no branches).
    pub fn bp_accuracy(&self) -> f64 {
        if self.bp_predictions == 0 {
            1.0
        } else {
            1.0 - self.bp_mispredictions as f64 / self.bp_predictions as f64
        }
    }

    /// Occupancy histogram of one issue queue.
    pub fn queue(&self, class: UnitClass) -> &OccupancyHistogram {
        &self.queue_occupancy[class.index()]
    }

    /// Busy fraction of one functional-unit class in `[0, 1]`: issued
    /// instructions over offered issue slots (0.0 for absent units).
    pub fn eu_utilisation(&self, class: UnitClass) -> f64 {
        let slots = self.unit_slots[class.index()];
        if slots == 0 {
            0.0
        } else {
            self.unit_issued[class.index()] as f64 / slots as f64
        }
    }

    /// Fraction of *all* issue slots the run used — the machine-wide
    /// issue-bandwidth utilisation (riscv-sim style).
    pub fn issue_slot_utilisation(&self) -> f64 {
        let slots: u64 = self.unit_slots.iter().sum();
        if slots == 0 {
            0.0
        } else {
            self.unit_issued.iter().sum::<u64>() as f64 / slots as f64
        }
    }

    /// The busiest functional-unit class and its busy fraction — the
    /// quickest compute-bound vs memory-bound attribution a sweep row
    /// can carry. `None` for a zero-cycle run.
    pub fn busiest_eu(&self) -> Option<(UnitClass, f64)> {
        UnitClass::ALL
            .iter()
            .map(|&c| (c, self.eu_utilisation(c)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .filter(|_| self.cycles > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_and_clamps() {
        let mut h = OccupancyHistogram::new(4);
        h.record(0, 1);
        h.record(2, 1);
        h.record(2, 3);
        h.record(99, 1); // clamped to 4
        assert_eq!(h.cycles_at(0), 1);
        assert_eq!(h.cycles_at(2), 4);
        assert_eq!(h.cycles_at(4), 1);
        assert_eq!(h.cycles_at(10), 0);
    }

    #[test]
    fn histogram_mean() {
        let mut h = OccupancyHistogram::new(10);
        h.record(2, 1);
        h.record(4, 1);
        assert!((h.mean() - 3.0).abs() < 1e-12);
        assert_eq!(OccupancyHistogram::new(3).mean(), 0.0);
    }
}

impl std::fmt::Display for SimReport {
    /// One-paragraph human summary (the `repro simulate` output shape).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "instructions {}  cycles {}  IPC {:.2}",
            self.instructions,
            self.cycles,
            self.ipc()
        )?;
        writeln!(
            f,
            "dl1 {:.2}% miss ({} / {})  il1 {:.2}%  l2 {:.2}%",
            self.dl1.miss_rate() * 100.0,
            self.dl1.misses,
            self.dl1.accesses,
            self.il1.miss_rate() * 100.0,
            self.l2.miss_rate() * 100.0
        )?;
        writeln!(
            f,
            "branches {} predicted, {:.1}% accuracy",
            self.bp_predictions,
            self.bp_accuracy() * 100.0
        )?;
        write!(f, "EU busy:")?;
        for &class in &UnitClass::ALL {
            if self.unit_slots[class.index()] > 0 {
                write!(
                    f,
                    " {}={:.0}%",
                    class.label(),
                    self.eu_utilisation(class) * 100.0
                )?;
            }
        }
        writeln!(
            f,
            "  (issue slots {:.0}%)",
            self.issue_slot_utilisation() * 100.0
        )?;
        write!(f, "top stalls:")?;
        for (t, c) in self.traumas.top(5) {
            if c > 0 {
                write!(f, " {}={}", t.label(), c)?;
            }
        }
        writeln!(f)?;
        write!(
            f,
            "structures: rename={} rs_full={} rob_full={} lq_full={} sq_full={} \
             replays={} replay_wait={}",
            self.structures.rename_stalls,
            self.structures.rs_full_stalls,
            self.structures.rob_full_stalls,
            self.structures.lq_full_stalls,
            self.structures.sq_full_stalls,
            self.structures.replays,
            self.structures.replay_wait_cycles
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod display_tests {
    use crate::config::SimConfig;
    use crate::Simulator;
    use sapa_isa::reg;
    use sapa_isa::trace::Tracer;

    #[test]
    fn report_display_is_informative() {
        let mut t = Tracer::new();
        for i in 0..200u32 {
            t.ialu(i % 5, reg::gpr(1), &[reg::gpr(1)]);
            t.branch(5 + (i % 3), i % 2 == 0, 0, &[reg::gpr(1)]);
        }
        let r = Simulator::new(SimConfig::four_way()).run(&t.finish());
        let text = r.to_string();
        assert!(text.contains("instructions 400"));
        assert!(text.contains("IPC"));
        assert!(text.contains("accuracy"));
        assert!(!text.trim().is_empty());
    }
}
