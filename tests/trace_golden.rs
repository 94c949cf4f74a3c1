//! Golden instruction streams: each of the five traced workloads is
//! packed with `PackedTrace::from_trace` and its stream checksum
//! compared with a recorded constant, at `StandardInputs::small()` and
//! at the 100-sequence database of `repro --scale small`.
//!
//! The traced programs call into `sapa-align` (the word and k-tuple
//! index builders, `pack`, `pack_word`, `banded::score`,
//! `fasta::score_subject`), so an engine change that moves a traced
//! score or a bucket order moves a checksum here before it moves
//! `results/`. A change that means to move the traces must update
//! `GOLDEN` in the same commit: on a mismatch the test prints the
//! complete table as it now stands, ready to paste.

use sapa_core::isa::PackedTrace;
use sapa_core::workloads::{StandardInputs, Workload};

/// Checksums at `StandardInputs::small()` (12 sequences) and at the
/// 100-sequence database of `repro --scale small`, in `Workload::ALL`
/// order.
const GOLDEN: [[u64; 5]; 2] = [
    [
        0x1da5e47a4f11d54a,
        0x248d7c22c68916d3,
        0x66a0a8e3533e0af4,
        0x3f2b6a50326ddf8e,
        0xd7c0ae74bb631d85,
    ],
    [
        0x1da5e47a4f11d54a,
        0x248d7c22c68916d3,
        0x66a0a8e3533e0af4,
        0xac896b565b39c8ce,
        0x10fd2919c87a0d35,
    ],
];

#[test]
fn traced_workloads_pack_to_the_recorded_checksums() {
    let scales = [
        StandardInputs::small(),
        StandardInputs::with_db_size(100, 2),
    ];
    let got: Vec<[u64; 5]> = scales
        .iter()
        .map(|inputs| {
            let mut row = [0u64; 5];
            for (slot, w) in row.iter_mut().zip(Workload::ALL) {
                *slot = PackedTrace::from_trace(&w.trace(inputs).trace).checksum();
            }
            row
        })
        .collect();
    if got != GOLDEN {
        let mut table = String::new();
        for row in &got {
            let cells: Vec<String> = row.iter().map(|c| format!("{c:#018x}")).collect();
            table.push_str(&format!("    [{}],\n", cells.join(", ")));
        }
        panic!("traced workload checksums changed; the table now reads:\n{table}");
    }
}
