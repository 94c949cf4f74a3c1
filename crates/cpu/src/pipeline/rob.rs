//! The reorder buffer: retirement-ordered owner of all in-flight
//! instruction state.
//!
//! Entries are indexed by *sequence number* — the position of the
//! instruction in the dynamic trace. The ROB is a contiguous window
//! `head_seq .. head_seq + len` kept in a power-of-two ring at slot
//! `seq & mask`, so a lookup is one range check plus one index, and
//! numbers below `head_seq` are known-retired without a lookup. The
//! ring is at least as large as the configured retire queue, which
//! dispatch never overfills, so live entries never share a slot.
//!
//! An entry is *waiting* in its reservation station — dispatched, or
//! sent back by a replay — while its `done_at` is [`WAITING`], a cycle
//! no clock reaches; issue sets `done_at` to the cycle its result is
//! available, and from then until it retires the entry is complete at
//! every cycle `>= done_at`. So "is this result ready?" is one compare.

use sapa_isa::inst::Inst;

use crate::cache::ServedBy;
use crate::config::UnitClass;

/// `done_at` of an entry that has not issued since its dispatch or
/// replay.
pub(crate) const WAITING: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub(crate) struct RobEntry {
    pub inst: Inst,
    pub queue: UnitClass,
    /// The cycle the result is available from, or [`WAITING`].
    pub done_at: u64,
    pub deps: [u64; 4],
    pub ndeps: u8,
    pub served: Option<ServedBy>,
    pub tlb_miss: bool,
    pub mispredicted: bool,
    pub is_cond_branch: bool,
    /// Set when the only thing stopping issue was a full MSHR file.
    pub mshr_blocked: bool,
    /// The instruction has issued at least once: its cache access (for
    /// memory ops) and its issue-slot count have already happened, so a
    /// disambiguation replay must not repeat them.
    pub probed: bool,
    /// A load squashed by memory disambiguation: an older store
    /// resolved to the same granule after the load issued, and the load
    /// is waiting to re-issue with the store's data.
    pub replayed: bool,
}

impl RobEntry {
    /// A freshly dispatched entry.
    pub fn new(inst: Inst, queue: UnitClass, deps: [u64; 4], ndeps: u8) -> Self {
        RobEntry {
            inst,
            queue,
            done_at: WAITING,
            deps,
            ndeps,
            served: None,
            tlb_miss: false,
            mispredicted: false,
            is_cond_branch: false,
            mshr_blocked: false,
            probed: false,
            replayed: false,
        }
    }
}

/// The retirement-ordered window.
#[derive(Debug)]
pub(crate) struct Rob {
    ring: Vec<RobEntry>,
    mask: u64,
    head_seq: u64,
    len: usize,
}

impl Rob {
    pub fn new(capacity: usize) -> Self {
        let slots = capacity.max(1).next_power_of_two();
        let vacant = RobEntry::new(Inst::default(), UnitClass::Fix, [0; 4], 0);
        Rob {
            ring: vec![vacant; slots],
            mask: slots as u64 - 1,
            head_seq: 0,
            len: 0,
        }
    }

    /// Sequence number of the oldest in-flight instruction (equals the
    /// number of retired instructions).
    #[inline]
    pub fn head_seq(&self) -> u64 {
        self.head_seq
    }

    /// Sequence number the next dispatched instruction will get.
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.head_seq + self.len as u64
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn front(&self) -> Option<&RobEntry> {
        self.entry(self.head_seq)
    }

    /// Ring slot of in-flight `seq`. A number below the head wraps to a
    /// huge offset, so retired and not-yet-dispatched both miss.
    #[inline]
    fn slot(&self, seq: u64) -> Option<usize> {
        (seq.wrapping_sub(self.head_seq) < self.len as u64).then_some((seq & self.mask) as usize)
    }

    #[inline]
    pub fn entry(&self, seq: u64) -> Option<&RobEntry> {
        self.slot(seq).map(|i| &self.ring[i])
    }

    #[inline]
    pub fn entry_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        self.slot(seq).map(|i| &mut self.ring[i])
    }

    /// A dependency is satisfied when its producer has left the window
    /// or has completed execution. A producer always precedes its
    /// consumer, so `seq` was dispatched and needs no upper bound check.
    #[inline]
    pub fn dep_ready(&self, seq: u64, cycle: u64) -> bool {
        debug_assert!(seq < self.next_seq(), "dependence on undispatched {seq}");
        seq < self.head_seq || self.ring[(seq & self.mask) as usize].done_at <= cycle
    }

    /// Appends a dispatched entry at [`Rob::next_seq`].
    #[inline]
    pub fn push(&mut self, entry: RobEntry) {
        debug_assert!(self.len < self.ring.len(), "ROB ring overfilled");
        let slot = (self.next_seq() & self.mask) as usize;
        self.ring[slot] = entry;
        self.len += 1;
    }

    /// Retires the head entry (which the caller has read in place).
    #[inline]
    pub fn pop_front(&mut self) {
        debug_assert!(self.len > 0, "retiring from an empty ROB");
        self.head_seq += 1;
        self.len -= 1;
    }

    /// The earliest `done_at` after `cycle` among executing entries —
    /// the next cycle at which an in-flight result becomes available —
    /// or `u64::MAX` if nothing is still executing. A waiting entry's
    /// [`WAITING`] is that same `u64::MAX`, so it never lowers the
    /// minimum.
    pub fn next_completion(&self, cycle: u64) -> u64 {
        let mut next = u64::MAX;
        for seq in self.head_seq..self.next_seq() {
            let done_at = self.ring[(seq & self.mask) as usize].done_at;
            if done_at > cycle {
                next = next.min(done_at);
            }
        }
        next
    }
}
