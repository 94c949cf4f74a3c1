//! Per-unit-class reservation stations.
//!
//! Each functional-unit class has one station holding the sequence
//! numbers of dispatched-but-unissued instructions, kept in age order
//! so the issue stage's limited-window scan selects oldest-first. The
//! capacity check happens only at dispatch; a disambiguation replay
//! re-enters its station unconditionally (the squashed load's slot was
//! freed when it issued, so transient overflow is bounded by the
//! replay count in one cycle and resolves as the scan drains).

use crate::config::UnitClass;

/// The stations, one age-ordered vector per unit class. A station holds
/// about its capacity (20–80 entries in Table IV's machines; replayed
/// loads may briefly overfill it), so removing or inserting shifts a
/// few dozen sequence numbers at most, and a lookup is one index.
#[derive(Debug)]
pub(crate) struct Stations {
    queues: [Vec<u64>; UnitClass::COUNT],
    caps: [u32; UnitClass::COUNT],
}

impl Stations {
    pub fn new(caps: [u32; UnitClass::COUNT]) -> Self {
        Stations {
            queues: std::array::from_fn(|c| Vec::with_capacity(caps[c] as usize)),
            caps,
        }
    }

    /// Whether dispatch into `class` must stall.
    #[inline]
    pub fn is_full(&self, class: UnitClass) -> bool {
        self.queues[class.index()].len() >= self.caps[class.index()] as usize
    }

    #[inline]
    pub fn len(&self, class: UnitClass) -> usize {
        self.queues[class.index()].len()
    }

    #[inline]
    pub fn get(&self, class: UnitClass, idx: usize) -> u64 {
        self.queues[class.index()][idx]
    }

    /// Appends `seq` at dispatch (dispatch order is age order).
    #[inline]
    pub fn push(&mut self, class: UnitClass, seq: u64) {
        self.queues[class.index()].push(seq);
    }

    /// Removes the entry at `idx` (it issued).
    #[inline]
    pub fn remove(&mut self, class: UnitClass, idx: usize) {
        self.queues[class.index()].remove(idx);
    }

    /// Re-inserts a replayed instruction, preserving age order so the
    /// oldest-first scan stays correct.
    pub fn insert_sorted(&mut self, class: UnitClass, seq: u64) {
        let q = &mut self.queues[class.index()];
        let pos = q.partition_point(|&s| s < seq);
        q.insert(pos, seq);
    }
}
