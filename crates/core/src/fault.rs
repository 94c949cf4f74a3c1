//! Deterministic fault injection for chaos-testing the suite.
//!
//! Robustness claims are only as good as the failures they were tested
//! against, so this module makes failure a first-class, *reproducible*
//! input: a [`FaultPlan`] names which fault sites are armed, at what
//! rate, and under which seed, and every trigger decision is a pure
//! function of `(seed, site, key)`. The `key` is derived from the
//! *content* being processed ([`subject_key`] hashes the subject's
//! residues), never from a worker index or arrival order — so the same
//! plan faults the same subjects at 1, 2, or 4 threads, and a chaos
//! test can assert byte-identical quarantine reports across thread
//! counts.
//!
//! Six sites cover the suite's failure surface:
//!
//! * [`FaultSite::WorkerPanic`] — [`FaultyEngine`] panics inside
//!   `score_one`, exercising the search pipeline's `catch_unwind`
//!   quarantine ([`crate::align::parallel::engine_scores`]).
//! * [`FaultSite::RescoreStorm`] — [`FaultyEngine`] scores the subject
//!   twice and reports the extra pass through `rescored`, stressing the
//!   fallback-accounting path without changing any score.
//! * [`FaultSite::TraceCorrupt`] — [`corrupt_packed`] flips seeded
//!   bytes in a [`PackedTrace`] heap, exercising
//!   [`PackedTrace::check`]'s structural/checksum detection and the
//!   simulator's `try_run_packed` gate.
//! * [`FaultSite::FastaTruncate`] — [`truncate_fasta`] cuts a FASTA
//!   byte stream short, exercising parser error paths.
//! * [`FaultSite::FrameGarble`] — [`garble_frame`] mutates one service
//!   protocol frame (truncation, byte flips, garbage), exercising the
//!   alignment daemon's typed-error protocol handling.
//! * [`FaultSite::ClientAbort`] — a service client (the load
//!   generator's abuse mode) drops its connection mid-exchange,
//!   exercising the daemon's half-closed-socket and write-error paths.
//!
//! A disabled plan ([`FaultPlan::DISABLED`], or any plan with
//! `rate <= 0`) costs one branch per decision point and allocates
//! nothing, so production code can thread a plan through
//! unconditionally.

use sapa_align::engine::AlignmentEngine;
use sapa_bioseq::rng::SplitMix64;
use sapa_bioseq::AminoAcid;
use sapa_isa::PackedTrace;

/// A named place where a [`FaultPlan`] may inject a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Panic inside an engine's `score_one` (worker isolation).
    WorkerPanic,
    /// Redundant extra scoring pass counted as a rescore (accounting).
    RescoreStorm,
    /// Byte flips in a packed trace heap (decode hardening).
    TraceCorrupt,
    /// Truncation of a FASTA byte stream (parser hardening).
    FastaTruncate,
    /// Corruption of one service protocol frame before it is sent —
    /// the abusive-client simulation driven by [`garble_frame`]
    /// (daemon protocol hardening).
    FrameGarble,
    /// A service client dropping its connection mid-exchange, after
    /// submitting a request but before (fully) reading the response
    /// (daemon connection hardening).
    ClientAbort,
}

impl FaultSite {
    /// Every site, in declaration order.
    pub const ALL: [FaultSite; 6] = [
        FaultSite::WorkerPanic,
        FaultSite::RescoreStorm,
        FaultSite::TraceCorrupt,
        FaultSite::FastaTruncate,
        FaultSite::FrameGarble,
        FaultSite::ClientAbort,
    ];

    fn bit(self) -> u8 {
        1 << (self as u8)
    }

    /// Per-site salt so the same key triggers independently per site.
    fn salt(self) -> u64 {
        // Arbitrary odd constants, fixed forever for reproducibility.
        match self {
            FaultSite::WorkerPanic => 0x9E37_79B9_7F4A_7C15,
            FaultSite::RescoreStorm => 0xC2B2_AE3D_27D4_EB4F,
            FaultSite::TraceCorrupt => 0x1656_67B1_9E37_79F9,
            FaultSite::FastaTruncate => 0x27D4_EB2F_1656_67C5,
            FaultSite::FrameGarble => 0xA076_1D64_78BD_642F,
            FaultSite::ClientAbort => 0xE703_7ED1_A0B4_28DB,
        }
    }
}

/// A seeded, rate-limited set of armed fault sites.
///
/// `Copy` and three words wide, so it is cheap to thread through every
/// layer. Triggering is deterministic: see [`FaultPlan::triggers`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every trigger decision.
    pub seed: u64,
    /// Per-decision trigger probability in `[0, 1]`. Non-positive
    /// rates disable the plan outright.
    pub rate: f64,
    sites: u8,
}

impl FaultPlan {
    /// The plan that never fires (the production default).
    pub const DISABLED: FaultPlan = FaultPlan {
        seed: 0,
        rate: 0.0,
        sites: 0,
    };

    /// A plan with **all** sites armed at `rate` under `seed`.
    pub fn new(seed: u64, rate: f64) -> Self {
        let mut sites = 0;
        for s in FaultSite::ALL {
            sites |= s.bit();
        }
        FaultPlan { seed, rate, sites }
    }

    /// A plan arming exactly one `site`.
    pub fn only(seed: u64, rate: f64, site: FaultSite) -> Self {
        FaultPlan {
            seed,
            rate,
            sites: site.bit(),
        }
    }

    /// Whether `site` is armed (ignores rate).
    pub fn armed(&self, site: FaultSite) -> bool {
        self.sites & site.bit() != 0
    }

    /// Whether this plan can ever fire.
    pub fn is_disabled(&self) -> bool {
        self.sites == 0 || self.rate <= 0.0
    }

    /// Decides whether the fault at `site` fires for work item `key`.
    ///
    /// Pure in `(self, site, key)`: no global state, no thread or
    /// ordering dependence. The decision hashes `seed`, the site's
    /// salt, and `key` through SplitMix64 and compares the top 53 bits
    /// against `rate`, so over many keys the empirical rate converges
    /// to the requested one.
    pub fn triggers(&self, site: FaultSite, key: u64) -> bool {
        if self.is_disabled() || !self.armed(site) {
            return false;
        }
        let mixed = SplitMix64::new(self.seed ^ site.salt() ^ key).next_u64();
        let u = (mixed >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < self.rate
    }
}

/// Content hash of a subject sequence (FNV-1a over residue bytes).
///
/// Used as the trigger key for per-subject fault sites so decisions
/// follow the *data*, not its position in the database or which worker
/// happened to claim it.
pub fn subject_key(subject: &[AminoAcid]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &aa in subject {
        h ^= u64::from(aa as u8);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-worker scratch for a [`FaultyEngine`]: the inner engine's
/// workspace plus a count of injected rescore storms.
pub struct FaultyScratch<W> {
    /// The wrapped engine's own workspace.
    pub inner: W,
    /// Extra scoring passes injected by [`FaultSite::RescoreStorm`].
    pub storms: usize,
}

/// An [`AlignmentEngine`] decorator that injects faults per subject.
///
/// Scores are never altered: a rescore storm runs the inner kernel a
/// second time (and asserts the result matches), and a worker panic
/// aborts the subject before any score exists. Subjects the plan does
/// not fault are scored bit-identically to the bare inner engine.
pub struct FaultyEngine<E> {
    inner: E,
    plan: FaultPlan,
}

impl<E> FaultyEngine<E> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: E, plan: FaultPlan) -> Self {
        FaultyEngine { inner, plan }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: AlignmentEngine> AlignmentEngine for FaultyEngine<E> {
    type Workspace = FaultyScratch<E::Workspace>;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn workspace(&self) -> Self::Workspace {
        FaultyScratch {
            inner: self.inner.workspace(),
            storms: 0,
        }
    }

    fn score_one(&self, ws: &mut Self::Workspace, subject: &[AminoAcid]) -> i32 {
        let key = subject_key(subject);
        if self.plan.triggers(FaultSite::WorkerPanic, key) {
            panic!(
                "injected fault: worker panic on {}-residue subject (key {key:#018x})",
                subject.len()
            );
        }
        let score = self.inner.score_one(&mut ws.inner, subject);
        if self.plan.triggers(FaultSite::RescoreStorm, key) {
            ws.storms += 1;
            let again = self.inner.score_one(&mut ws.inner, subject);
            assert_eq!(
                again, score,
                "injected rescore disagreed with original score"
            );
        }
        score
    }

    fn rescored(&self, ws: &Self::Workspace) -> usize {
        self.inner.rescored(&ws.inner) + ws.storms
    }

    fn cost_len(&self, subject_len: usize) -> u64 {
        self.inner.cost_len(subject_len)
    }
}

/// Returns a copy of `trace` with seeded byte corruption applied.
///
/// Flips `ceil(rate × heap_bytes)` bytes (at least one, when the site
/// is armed and the heap is non-empty) at SplitMix64-chosen offsets
/// with guaranteed-nonzero XOR masks. The stored checksum is *not*
/// refreshed, so [`PackedTrace::check`] is guaranteed to reject the
/// result, and the result is unverified even if `trace` was verified
/// ([`PackedTrace::verify`]). Returns an unmodified clone when the plan
/// is disabled or [`FaultSite::TraceCorrupt`] is unarmed.
pub fn corrupt_packed(trace: &PackedTrace, plan: &FaultPlan) -> PackedTrace {
    let bytes = trace.heap_bytes();
    if plan.is_disabled() || !plan.armed(FaultSite::TraceCorrupt) || bytes == 0 {
        return trace.clone();
    }
    let flips = ((bytes as f64 * plan.rate).ceil() as usize).clamp(1, bytes);
    let mut rng = SplitMix64::new(plan.seed ^ FaultSite::TraceCorrupt.salt());
    let mut out = trace.clone();
    for _ in 0..flips {
        let r = rng.next_u64();
        let offset = (r % bytes as u64) as usize;
        let xor = ((r >> 32) as u8) | 1; // never a no-op flip
        out = out.with_corrupted_byte(offset, xor);
    }
    out
}

/// Returns `bytes` truncated at a seeded cut point, simulating a FASTA
/// file whose tail was lost mid-write.
///
/// The cut keeps at least one byte (and at most `len - 1`, so the
/// result is always a strict prefix of non-empty input). Returns the
/// input unchanged when the plan is disabled or
/// [`FaultSite::FastaTruncate`] is unarmed.
pub fn truncate_fasta(bytes: &[u8], plan: &FaultPlan) -> Vec<u8> {
    if plan.is_disabled() || !plan.armed(FaultSite::FastaTruncate) || bytes.len() < 2 {
        return bytes.to_vec();
    }
    let mut rng = SplitMix64::new(plan.seed ^ FaultSite::FastaTruncate.salt());
    let cut = 1 + (rng.next_u64() % (bytes.len() as u64 - 1)) as usize;
    bytes[..cut].to_vec()
}

/// Deterministically mutates one service protocol frame, simulating an
/// abusive or broken client, when [`FaultSite::FrameGarble`] fires for
/// `key` (callers use the request id, so the same traffic schedule
/// garbles the same frames on every run).
///
/// Returns `None` when the site does not fire — send the frame as-is —
/// or `Some(mutated)` with one seeded mutation applied: a truncation, a
/// burst of byte flips, an insertion of garbage bytes, or a wholesale
/// replacement with junk. The mutated frame never contains `\n` or
/// `\r`, so it still parses as exactly one line of a line-delimited
/// protocol and the receiver must answer it with exactly one typed
/// error (the accounting chaos tests depend on that one-to-one-ness).
pub fn garble_frame(frame: &[u8], plan: &FaultPlan, key: u64) -> Option<Vec<u8>> {
    if !plan.triggers(FaultSite::FrameGarble, key) {
        return None;
    }
    let mut rng = SplitMix64::new(plan.seed ^ FaultSite::FrameGarble.salt() ^ key);
    // Maps any byte into printable non-newline space.
    fn junk(b: u8) -> u8 {
        b' ' + (b % 94)
    }
    let mut out = frame.to_vec();
    match rng.next_u64() % 4 {
        0 => {
            // Truncate: anywhere from an empty frame to all-but-one byte.
            let cut = (rng.next_u64() % out.len().max(1) as u64) as usize;
            out.truncate(cut);
        }
        1 => {
            // Flip 1–4 bytes in place.
            for _ in 0..1 + rng.next_u64() % 4 {
                if out.is_empty() {
                    break;
                }
                let r = rng.next_u64();
                let at = (r % out.len() as u64) as usize;
                out[at] = junk((r >> 32) as u8);
            }
        }
        2 => {
            // Insert a short run of garbage at a seeded offset.
            let r = rng.next_u64();
            let at = (r % (out.len() as u64 + 1)) as usize;
            let run: Vec<u8> = (0..2 + (r >> 32) % 7)
                .map(|i| junk((r >> i) as u8))
                .collect();
            out.splice(at..at, run);
        }
        _ => {
            // Replace the whole frame with printable junk.
            let len = 1 + (rng.next_u64() % 40) as usize;
            out = (0..len).map(|_| junk(rng.next_u64() as u8)).collect();
        }
    }
    debug_assert!(!out.contains(&b'\n') && !out.contains(&b'\r'));
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapa_align::engine::SwEngine;
    use sapa_bioseq::matrix::GapPenalties;
    use sapa_bioseq::{Sequence, SubstitutionMatrix};

    fn residues(s: &str) -> Vec<AminoAcid> {
        Sequence::from_str("t", s).unwrap().residues().to_vec()
    }

    fn score_once<E: AlignmentEngine>(engine: &E, subject: &[AminoAcid]) -> i32 {
        let mut ws = engine.workspace();
        engine.score_one(&mut ws, subject)
    }

    #[test]
    fn disabled_plan_never_triggers() {
        let plan = FaultPlan::DISABLED;
        for site in FaultSite::ALL {
            for key in 0..1000 {
                assert!(!plan.triggers(site, key));
            }
        }
        assert!(plan.is_disabled());
    }

    #[test]
    fn trigger_rate_is_approximately_honoured() {
        let plan = FaultPlan::new(42, 0.05);
        let n = 20_000;
        let hits = (0..n)
            .filter(|&k| plan.triggers(FaultSite::WorkerPanic, k))
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "empirical rate {rate}");
    }

    #[test]
    fn sites_trigger_independently() {
        let plan = FaultPlan::new(7, 0.5);
        let panic_set: Vec<u64> = (0..64)
            .filter(|&k| plan.triggers(FaultSite::WorkerPanic, k))
            .collect();
        let storm_set: Vec<u64> = (0..64)
            .filter(|&k| plan.triggers(FaultSite::RescoreStorm, k))
            .collect();
        assert_ne!(panic_set, storm_set);
    }

    #[test]
    fn only_arms_exactly_one_site() {
        let plan = FaultPlan::only(1, 1.0, FaultSite::TraceCorrupt);
        assert!(plan.armed(FaultSite::TraceCorrupt));
        assert!(!plan.armed(FaultSite::WorkerPanic));
        assert!(plan.triggers(FaultSite::TraceCorrupt, 9));
        assert!(!plan.triggers(FaultSite::WorkerPanic, 9));
    }

    #[test]
    fn subject_key_is_content_not_position() {
        let a = residues("MKWVTFISLL");
        let b = residues("MKWVTFISLL");
        let c = residues("MKWVTFISLK");
        assert_eq!(subject_key(&a), subject_key(&b));
        assert_ne!(subject_key(&a), subject_key(&c));
    }

    #[test]
    fn faulty_engine_scores_match_inner_when_disabled() {
        let query = residues("HEAGAWGHEE");
        let subject = residues("PAWHEAE");
        let matrix = SubstitutionMatrix::blosum62();
        let inner = SwEngine::new(&query, &matrix, GapPenalties::paper());
        let bare = score_once(&inner, &subject);
        let faulty = FaultyEngine::new(
            SwEngine::new(&query, &matrix, GapPenalties::paper()),
            FaultPlan::DISABLED,
        );
        let mut ws = faulty.workspace();
        assert_eq!(faulty.score_one(&mut ws, &subject), bare);
        assert_eq!(faulty.rescored(&ws), 0);
    }

    #[test]
    fn rescore_storm_preserves_score_and_counts() {
        let query = residues("HEAGAWGHEE");
        let subject = residues("PAWHEAE");
        let matrix = SubstitutionMatrix::blosum62();
        let bare = score_once(
            &SwEngine::new(&query, &matrix, GapPenalties::paper()),
            &subject,
        );
        let faulty = FaultyEngine::new(
            SwEngine::new(&query, &matrix, GapPenalties::paper()),
            FaultPlan::only(3, 1.0, FaultSite::RescoreStorm),
        );
        let mut ws = faulty.workspace();
        assert_eq!(faulty.score_one(&mut ws, &subject), bare);
        assert_eq!(faulty.rescored(&ws), 1);
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn armed_worker_panic_fires() {
        let query = residues("HEAGAWGHEE");
        let subject = residues("PAWHEAE");
        let matrix = SubstitutionMatrix::blosum62();
        let faulty = FaultyEngine::new(
            SwEngine::new(&query, &matrix, GapPenalties::paper()),
            FaultPlan::only(5, 1.0, FaultSite::WorkerPanic),
        );
        let mut ws = faulty.workspace();
        faulty.score_one(&mut ws, &subject);
    }

    fn sample_packed(len: usize) -> PackedTrace {
        use sapa_isa::{reg, Tracer};
        let mut t = Tracer::new();
        for i in 0..len {
            match i % 3 {
                0 => t.ialu(i as u32, reg::gpr(1), &[reg::gpr(2)]),
                1 => t.iload(i as u32, reg::gpr(3), 0x1000_0040, 4, &[reg::gpr(1)]),
                _ => t.branch(i as u32, i % 2 == 0, 0, &[reg::gpr(3)]),
            }
        }
        PackedTrace::from_trace(&t.finish())
    }

    #[test]
    fn corrupt_packed_is_deterministic_and_detected() {
        let trace = sample_packed(64);
        let plan = FaultPlan::new(11, 0.02);
        let a = corrupt_packed(&trace, &plan);
        let b = corrupt_packed(&trace, &plan);
        assert_eq!(a, b, "corruption must be reproducible");
        assert!(a.check().is_err(), "corruption must be detected");
        assert!(trace.check().is_ok(), "original untouched");
    }

    #[test]
    fn corrupt_packed_disabled_is_identity() {
        let trace = sample_packed(6);
        let out = corrupt_packed(&trace, &FaultPlan::DISABLED);
        assert_eq!(out, trace);
        assert!(out.check().is_ok());
    }

    #[test]
    fn garble_frame_is_deterministic_single_line_and_rate_gated() {
        let frame = br#"{"op":"search","id":7,"tenant":"t0","query":"HEAGAWGHEE"}"#;
        let armed = FaultPlan::only(21, 1.0, FaultSite::FrameGarble);
        for key in 0..64u64 {
            let a = garble_frame(frame, &armed, key).expect("rate 1.0 must fire");
            let b = garble_frame(frame, &armed, key).expect("rate 1.0 must fire");
            assert_eq!(a, b, "key {key}: garbling must be reproducible");
            assert!(
                !a.contains(&b'\n') && !a.contains(&b'\r'),
                "key {key}: a garbled frame must stay one line"
            );
        }
        // Different keys produce different mutations (not all identical).
        let distinct: std::collections::HashSet<Vec<u8>> = (0..64u64)
            .filter_map(|k| garble_frame(frame, &armed, k))
            .collect();
        assert!(
            distinct.len() > 8,
            "only {} distinct mutations",
            distinct.len()
        );
        // Disabled or unarmed plans never mutate.
        assert_eq!(garble_frame(frame, &FaultPlan::DISABLED, 3), None);
        let other = FaultPlan::only(21, 1.0, FaultSite::ClientAbort);
        assert_eq!(garble_frame(frame, &other, 3), None);
    }

    #[test]
    fn service_sites_are_registered_and_independent() {
        assert_eq!(FaultSite::ALL.len(), 6);
        let plan = FaultPlan::new(17, 0.5);
        assert!(plan.armed(FaultSite::FrameGarble));
        assert!(plan.armed(FaultSite::ClientAbort));
        let garbles: Vec<u64> = (0..128)
            .filter(|&k| plan.triggers(FaultSite::FrameGarble, k))
            .collect();
        let aborts: Vec<u64> = (0..128)
            .filter(|&k| plan.triggers(FaultSite::ClientAbort, k))
            .collect();
        assert_ne!(garbles, aborts, "sites must trigger independently");
        assert!(!garbles.is_empty() && !aborts.is_empty());
    }

    #[test]
    fn truncate_fasta_yields_strict_prefix() {
        let fasta = b">q test\nMKWVTFISLLFLFSSAYS\nRGVFRRDAHKSE\n";
        let plan = FaultPlan::only(13, 1.0, FaultSite::FastaTruncate);
        let cut = truncate_fasta(fasta, &plan);
        assert!(!cut.is_empty() && cut.len() < fasta.len());
        assert_eq!(&fasta[..cut.len()], &cut[..]);
        assert_eq!(cut, truncate_fasta(fasta, &plan), "deterministic");
        assert_eq!(truncate_fasta(fasta, &FaultPlan::DISABLED), fasta.to_vec());
    }
}
