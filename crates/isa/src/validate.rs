//! Structural validation of instruction traces.
//!
//! The simulator tolerates any well-formed trace, but a trace generator
//! bug (wrong region, missing width, branch to nowhere) would silently
//! skew every downstream measurement. [`validate`] checks the
//! invariants every trace emitted by this suite must satisfy; the
//! workload test suites run it over full traces.

use crate::inst::{Inst, OpClass};
use crate::mem::DATA_BASE;
use crate::trace::{Trace, CODE_BASE};

/// A violated trace invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// An instruction PC lies outside the code segment.
    PcOutOfRange {
        /// Index of the offending instruction.
        index: usize,
        /// Its PC.
        pc: u32,
    },
    /// A PC is not 4-byte aligned.
    PcMisaligned {
        /// Index of the offending instruction.
        index: usize,
        /// Its PC.
        pc: u32,
    },
    /// A memory instruction's effective address lies below the data
    /// segment (i.e. inside code or unmapped low memory).
    AddressOutOfRange {
        /// Index of the offending instruction.
        index: usize,
        /// Its effective address.
        ea: u32,
    },
    /// A taken branch's target lies outside the code segment.
    TargetOutOfRange {
        /// Index of the offending instruction.
        index: usize,
        /// Its target.
        target: u32,
    },
    /// A non-memory instruction carries a memory-width encoding.
    UnexpectedWidth {
        /// Index of the offending instruction.
        index: usize,
    },
    /// A load has no destination register.
    LoadWithoutDestination {
        /// Index of the offending instruction.
        index: usize,
    },
    /// A store has a destination register.
    StoreWithDestination {
        /// Index of the offending instruction.
        index: usize,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::PcOutOfRange { index, pc } => {
                write!(
                    f,
                    "instruction {index}: pc {pc:#x} outside the code segment"
                )
            }
            Violation::PcMisaligned { index, pc } => {
                write!(f, "instruction {index}: pc {pc:#x} not 4-byte aligned")
            }
            Violation::AddressOutOfRange { index, ea } => {
                write!(
                    f,
                    "instruction {index}: address {ea:#x} below the data segment"
                )
            }
            Violation::TargetOutOfRange { index, target } => {
                write!(
                    f,
                    "instruction {index}: branch target {target:#x} outside code"
                )
            }
            Violation::UnexpectedWidth { index } => {
                write!(
                    f,
                    "instruction {index}: non-memory op encodes an access width"
                )
            }
            Violation::LoadWithoutDestination { index } => {
                write!(
                    f,
                    "instruction {index}: load without a destination register"
                )
            }
            Violation::StoreWithDestination { index } => {
                write!(f, "instruction {index}: store with a destination register")
            }
        }
    }
}

/// Checks every structural invariant; returns all violations found
/// (bounded at `limit` to keep pathological traces cheap to report).
pub fn validate(trace: &Trace, limit: usize) -> Vec<Violation> {
    validate_iter(trace.insts().iter().copied(), limit)
}

/// [`validate`] over any instruction stream — lets a
/// [`crate::packed::PackedTrace`] be validated straight off its
/// sequential decoder without materializing an array-of-structs trace.
pub fn validate_iter<I: IntoIterator<Item = Inst>>(insts: I, limit: usize) -> Vec<Violation> {
    let mut out = Vec::new();
    for (index, inst) in insts.into_iter().enumerate() {
        if out.len() >= limit {
            break;
        }
        check_inst(index, &inst, |v| out.push(v));
    }
    out
}

/// Whether every instruction of `block` satisfies every invariant —
/// the per-block check a replay runs on freshly decoded instructions
/// before they may enter the pipeline. [`validate_iter`] then says
/// which invariants a failing trace breaks.
pub fn block_is_valid(block: &[Inst]) -> bool {
    let mut valid = true;
    for (index, inst) in block.iter().enumerate() {
        check_inst(index, inst, |_| valid = false);
    }
    valid
}

/// The invariants, checked on one instruction; `report` receives each
/// violation in a fixed order.
#[inline]
fn check_inst(index: usize, inst: &Inst, mut report: impl FnMut(Violation)) {
    if inst.pc < CODE_BASE || inst.pc >= DATA_BASE {
        report(Violation::PcOutOfRange { index, pc: inst.pc });
    }
    if !inst.pc.is_multiple_of(4) {
        report(Violation::PcMisaligned { index, pc: inst.pc });
    }
    match inst.op {
        op if op.is_mem() => {
            if inst.ea < DATA_BASE {
                report(Violation::AddressOutOfRange { index, ea: inst.ea });
            }
            if op.is_load() && !inst.dst.is_some() {
                report(Violation::LoadWithoutDestination { index });
            }
            if op.is_store() && inst.dst.is_some() {
                report(Violation::StoreWithDestination { index });
            }
        }
        OpClass::Branch => {
            if inst.taken() && (inst.ea < CODE_BASE || inst.ea >= DATA_BASE) {
                report(Violation::TargetOutOfRange {
                    index,
                    target: inst.ea,
                });
            }
        }
        _ => {
            if inst.flags >> crate::inst::flags::WIDTH_SHIFT != 0 {
                report(Violation::UnexpectedWidth { index });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{self, Reg};
    use crate::trace::Tracer;

    #[test]
    fn clean_trace_validates() {
        let mut t = Tracer::new();
        t.iload(0, reg::gpr(1), DATA_BASE + 4, 4, &[reg::gpr(2)]);
        t.ialu(1, reg::gpr(3), &[reg::gpr(1)]);
        t.branch(2, true, 0, &[reg::gpr(3)]);
        t.istore(3, DATA_BASE + 8, 4, &[reg::gpr(3)]);
        assert!(validate(&t.finish(), 10).is_empty());
    }

    #[test]
    fn bad_address_is_caught() {
        let mut t = Tracer::new();
        t.iload(0, reg::gpr(1), 0x10, 4, &[]); // below DATA_BASE
        let v = validate(&t.finish(), 10);
        assert!(matches!(v[0], Violation::AddressOutOfRange { .. }));
        assert!(v[0].to_string().contains("below the data segment"));
    }

    #[test]
    fn store_with_destination_is_caught() {
        use crate::inst::{flags, Inst, OpClass};
        let bad = Inst {
            pc: CODE_BASE,
            ea: DATA_BASE,
            op: OpClass::IStore,
            dst: reg::gpr(1), // stores must not write a register
            srcs: [Reg::NONE; 3],
            flags: 2 << flags::WIDTH_SHIFT,
        };
        let trace = Trace::from_insts(vec![bad]);
        let v = validate(&trace, 10);
        assert!(matches!(v[0], Violation::StoreWithDestination { .. }));
    }

    #[test]
    fn violation_limit_bounds_output() {
        let mut t = Tracer::new();
        for _ in 0..100 {
            t.iload(0, reg::gpr(1), 0x10, 4, &[]);
        }
        assert_eq!(validate(&t.finish(), 5).len(), 5);
    }
}
