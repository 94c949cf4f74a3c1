//! Property-based tests for the alignment algorithms.
//!
//! The single most important invariant of the whole reproduction is that
//! the Smith-Waterman implementations (textbook Gotoh, SSEARCH-style
//! lazy-F, anti-diagonal SIMD, striped SIMD, at both lane widths and
//! both precisions) compute the same score on arbitrary inputs — the
//! paper's workloads are different *machines* running the same *math*.
//!
//! The random cases are generated with the repo's own deterministic
//! xoshiro generator (the container has no registry access, so external
//! property-test frameworks are unavailable); every run tests the same
//! corpus, and a failing case prints its case index for replay.

use sapa_align::engine::{Engine, Prefilter, SearchRequest};
use sapa_align::{banded, blast, fasta, nw, simd_sw, striped, sw, xdrop};
use sapa_bioseq::matrix::GapPenalties;
use sapa_bioseq::profile::{QueryProfile, WORD_PAD};
use sapa_bioseq::rng::Xoshiro256;
use sapa_bioseq::{AminoAcid, SubstitutionMatrix};
use sapa_vsimd::{ByteVector, Vector};

const CASES: usize = 96;

/// Uniformly random standard residue (ambiguity codes are exercised by
/// unit tests; heuristics skip them by design).
fn residue(rng: &mut Xoshiro256) -> AminoAcid {
    let i = rng.next_below(AminoAcid::STANDARD_COUNT as u64) as usize;
    AminoAcid::from_index(i).unwrap()
}

/// Random protein of length `0..max_len`.
fn protein(rng: &mut Xoshiro256, max_len: usize) -> Vec<AminoAcid> {
    let len = rng.next_below(max_len as u64) as usize;
    (0..len).map(|_| residue(rng)).collect()
}

/// Gap-heavy protein: long runs of one residue interleaved with noise,
/// which makes optimal alignments open and extend gaps aggressively.
fn gappy_protein(rng: &mut Xoshiro256, max_len: usize) -> Vec<AminoAcid> {
    let len = rng.next_below(max_len as u64) as usize;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let run = 1 + rng.next_below(6) as usize;
        let r = residue(rng);
        for _ in 0..run.min(len - out.len()) {
            out.push(r);
        }
        if rng.next_below(3) == 0 && out.len() < len {
            out.push(residue(rng));
        }
    }
    out
}

fn gap_penalties(rng: &mut Xoshiro256) -> GapPenalties {
    GapPenalties::new(1 + rng.next_below(14) as i32, 1 + rng.next_below(4) as i32)
}

#[test]
fn simd_sw_matches_scalar() {
    let m = SubstitutionMatrix::blosum62();
    let mut rng = Xoshiro256::new(0x51AD);
    for case in 0..CASES {
        let a = protein(&mut rng, 48);
        let b = protein(&mut rng, 48);
        let g = gap_penalties(&mut rng);
        let expect = sw::score(&a, &b, &m, g);
        assert_eq!(simd_sw::score::<8>(&a, &b, &m, g), expect, "case {case}");
        assert_eq!(simd_sw::score::<16>(&a, &b, &m, g), expect, "case {case}");
    }
}

#[test]
fn byte_precision_simd_matches_scalar() {
    let m = SubstitutionMatrix::blosum62();
    let mut rng = Xoshiro256::new(0xB17E);
    for case in 0..CASES {
        let a = protein(&mut rng, 40);
        let b = protein(&mut rng, 40);
        let g = gap_penalties(&mut rng);
        let expect = sw::score(&a, &b, &m, g);
        // The byte pass either agrees exactly or reports overflow.
        if let Some(s) = simd_sw::score_bytes::<16>(&a, &b, &m, g) {
            assert_eq!(s, expect, "case {case}");
        }
        // The adaptive wrapper always agrees.
        assert_eq!(
            simd_sw::score_adaptive::<16, 8>(&a, &b, &m, g),
            expect,
            "case {case}"
        );
        assert_eq!(
            simd_sw::score_adaptive::<32, 16>(&a, &b, &m, g),
            expect,
            "case {case}"
        );
    }
}

/// The tentpole invariant: the Farrar striped kernel is score-identical
/// to the scalar Gotoh oracle at both lane widths and both precisions,
/// across random, gap-heavy, and all-identical inputs.
#[test]
fn striped_matches_scalar() {
    let m = SubstitutionMatrix::blosum62();
    let mut rng = Xoshiro256::new(0x57A1);
    for case in 0..CASES {
        let a = protein(&mut rng, 64);
        let b = protein(&mut rng, 64);
        let g = gap_penalties(&mut rng);
        let expect = sw::score(&a, &b, &m, g);
        assert_eq!(
            striped::score::<8>(&a, &b, &m, g),
            expect,
            "L=8 case {case}"
        );
        assert_eq!(
            striped::score::<16>(&a, &b, &m, g),
            expect,
            "L=16 case {case}"
        );
        assert_eq!(
            striped::score_adaptive::<16, 8>(&a, &b, &m, g),
            expect,
            "adaptive 128-bit case {case}"
        );
        assert_eq!(
            striped::score_adaptive::<32, 16>(&a, &b, &m, g),
            expect,
            "adaptive 256-bit case {case}"
        );
    }
}

#[test]
fn striped_matches_scalar_on_gap_heavy_inputs() {
    let m = SubstitutionMatrix::blosum62();
    let mut rng = Xoshiro256::new(0x6A99);
    for case in 0..CASES {
        let a = gappy_protein(&mut rng, 72);
        let b = gappy_protein(&mut rng, 72);
        // Cheap gaps so optimal alignments actually use them.
        let g = GapPenalties::new(1 + rng.next_below(4) as i32, 1);
        let expect = sw::score(&a, &b, &m, g);
        assert_eq!(
            striped::score::<8>(&a, &b, &m, g),
            expect,
            "L=8 case {case}"
        );
        assert_eq!(
            striped::score::<16>(&a, &b, &m, g),
            expect,
            "L=16 case {case}"
        );
        assert_eq!(
            striped::score_adaptive::<16, 8>(&a, &b, &m, g),
            expect,
            "adaptive case {case}"
        );
    }
}

#[test]
fn striped_matches_scalar_on_all_identical_inputs() {
    // All-identical sequences maximize score growth per cell — the
    // worst case for the lazy-F early exit and for byte saturation.
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    for len in [1usize, 7, 8, 9, 16, 17, 33, 64, 120] {
        let a = vec![AminoAcid::Trp; len];
        let expect = sw::score(&a, &a, &m, g);
        assert_eq!(striped::score::<8>(&a, &a, &m, g), expect, "len {len}");
        assert_eq!(striped::score::<16>(&a, &a, &m, g), expect, "len {len}");
        assert_eq!(
            striped::score_adaptive::<16, 8>(&a, &a, &m, g),
            expect,
            "adaptive len {len}"
        );
    }
}

#[test]
fn striped_byte_pass_agrees_or_overflows() {
    let m = SubstitutionMatrix::blosum62();
    let mut rng = Xoshiro256::new(0xB0B5);
    for case in 0..CASES {
        let a = protein(&mut rng, 48);
        let b = protein(&mut rng, 48);
        let g = gap_penalties(&mut rng);
        let expect = sw::score(&a, &b, &m, g);
        if let Some(s) = striped::score_bytes::<16>(&a, &b, &m, g) {
            assert_eq!(s, expect, "LB=16 case {case}");
        }
        if let Some(s) = striped::score_bytes::<32>(&a, &b, &m, g) {
            assert_eq!(s, expect, "LB=32 case {case}");
        }
    }
}

/// An overflow-forcing case: a long near-identical pair whose true score
/// exceeds the byte kernel's headroom must take the 8→16-bit rescore
/// path and still produce the exact score.
#[test]
fn striped_overflow_forces_word_rescore() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let a = vec![AminoAcid::Trp; 64]; // self-score 64 × 11 = 704 >> u8 range
    assert_eq!(striped::score_bytes::<16>(&a, &a, &m, g), None);
    assert_eq!(striped::score_bytes::<32>(&a, &a, &m, g), None);
    let expect = sw::score(&a, &a, &m, g);
    assert_eq!(striped::score_adaptive::<16, 8>(&a, &a, &m, g), expect);
    assert_eq!(striped::score_adaptive::<32, 16>(&a, &a, &m, g), expect);
}

/// Profile reuse across subjects must be score-equivalent to building
/// the profile per pair (what the batched search driver relies on).
#[test]
fn striped_profile_reuse_is_pure() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0xCAFE);
    let query = protein(&mut rng, 80);
    let profile = QueryProfile::build(&query, &m, 8);
    let mut ws = striped::Workspace::<8>::new();
    let mut bws = striped::ByteWorkspace::<16>::new();
    for case in 0..CASES {
        let b = protein(&mut rng, 64);
        let expect = sw::score(&query, &b, &m, g);
        assert_eq!(
            striped::score_with_profile::<8>(&profile, &b, g, &mut ws),
            expect,
            "word case {case}"
        );
        assert_eq!(
            striped::score_adaptive_with_profile::<16, 8>(&profile, &b, g, &mut bws, &mut ws),
            expect,
            "adaptive case {case}"
        );
    }
}

#[test]
fn lazy_f_matches_scalar() {
    let m = SubstitutionMatrix::blosum62();
    let mut rng = Xoshiro256::new(0x1A2F);
    for case in 0..CASES {
        let a = protein(&mut rng, 48);
        let b = protein(&mut rng, 48);
        let g = gap_penalties(&mut rng);
        assert_eq!(
            sw::score_lazy_f(&a, &b, &m, g),
            sw::score(&a, &b, &m, g),
            "case {case}"
        );
    }
}

#[test]
fn sw_score_is_symmetric() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0x5E33);
    for case in 0..CASES {
        let a = protein(&mut rng, 32);
        let b = protein(&mut rng, 32);
        assert_eq!(
            sw::score(&a, &b, &m, g),
            sw::score(&b, &a, &m, g),
            "case {case}"
        );
    }
}

#[test]
fn sw_score_nonnegative_and_bounded() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0xB0BD);
    for case in 0..CASES {
        let a = protein(&mut rng, 32);
        let b = protein(&mut rng, 32);
        let s = sw::score(&a, &b, &m, g);
        assert!(s >= 0, "case {case}");
        // Upper bound: the shorter sequence matched perfectly at the
        // matrix maximum.
        let bound = (a.len().min(b.len()) as i32) * m.max_score();
        assert!(s <= bound, "case {case}: {s} > {bound}");
    }
}

#[test]
fn sw_self_score_is_diagonal_sum() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0xD1A6);
    for case in 0..CASES {
        let a = protein(&mut rng, 32);
        let expected: i32 = a.iter().map(|&x| m.score(x, x)).sum();
        assert_eq!(sw::score(&a, &a, &m, g), expected.max(0), "case {case}");
    }
}

#[test]
fn banded_never_exceeds_full() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0xBA4D);
    for case in 0..CASES {
        let a = protein(&mut rng, 32);
        let b = protein(&mut rng, 32);
        let diag = rng.next_below(16) as isize - 8;
        let width = 1 + rng.next_below(5) as usize;
        assert!(
            banded::score(&a, &b, &m, g, diag, width) <= sw::score(&a, &b, &m, g),
            "case {case}"
        );
    }
}

#[test]
fn banded_full_width_equals_full() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0xF0F0);
    for case in 0..CASES {
        let a = protein(&mut rng, 24);
        let b = protein(&mut rng, 24);
        if a.is_empty() || b.is_empty() {
            continue;
        }
        assert_eq!(
            banded::score(&a, &b, &m, g, 0, a.len() + b.len()),
            sw::score(&a, &b, &m, g),
            "case {case}"
        );
    }
}

#[test]
fn global_at_most_local() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0x6B0A);
    for case in 0..CASES {
        let a = protein(&mut rng, 24);
        let b = protein(&mut rng, 24);
        assert!(
            nw::score(&a, &b, &m, g) <= sw::score(&a, &b, &m, g),
            "case {case}"
        );
    }
}

#[test]
fn alignment_hierarchy_global_semiglobal_local() {
    // global ≤ semi-global ≤ local: each relaxes more constraints.
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0x41E2);
    for case in 0..CASES {
        let a = protein(&mut rng, 24);
        let b = protein(&mut rng, 24);
        let global = nw::score(&a, &b, &m, g);
        let semi = nw::semiglobal_score(&a, &b, &m, g);
        let local = sw::score(&a, &b, &m, g);
        assert!(global <= semi, "case {case}: global {global} > semi {semi}");
        assert!(semi <= local, "case {case}: semi {semi} > local {local}");
    }
}

#[test]
fn global_traceback_matches_score() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0x67B4);
    for case in 0..CASES {
        let a = protein(&mut rng, 16);
        let b = protein(&mut rng, 16);
        let al = nw::align(&a, &b, &m, g);
        assert_eq!(al.score, nw::score(&a, &b, &m, g), "case {case}");
    }
}

#[test]
fn traceback_score_matches() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0x7ACE);
    for case in 0..CASES {
        let a = protein(&mut rng, 20);
        let b = protein(&mut rng, 20);
        let al = sw::align(&a, &b, &m, g);
        assert_eq!(al.score, sw::score(&a, &b, &m, g), "case {case}");
    }
}

#[test]
fn heuristic_scores_never_exceed_sw() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0x43A7);
    for case in 0..CASES {
        let a = protein(&mut rng, 40);
        let b = protein(&mut rng, 40);
        if a.len() < 3 || b.len() < 3 {
            continue;
        }
        let full = sw::score(&a, &b, &m, g);

        // FASTA's opt is a banded SW — a lower bound on full SW.
        let idx = fasta::KtupIndex::build(&a, 2);
        let fs = fasta::score_subject(
            &idx,
            &b,
            &m,
            g,
            &fasta::FastaParams::default(),
            &mut fasta::Workspace::default(),
        );
        assert!(fs.opt <= full, "case {case}: opt {} > sw {full}", fs.opt);

        // BLAST's reported score (banded or ungapped) is also ≤ full SW.
        let widx = blast::WordIndex::build(&a, &m, 11);
        let db: Vec<&[AminoAcid]> = vec![&b];
        let res = blast::search(&widx, db, &m, g, &blast::BlastParams::default(), 5);
        if let Some(best) = res.best_score() {
            assert!(best <= full, "case {case}: blast {best} > sw {full}");
        }
    }
}

#[test]
fn xdrop_monotone_in_x_and_bounded_by_local() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0xD409);
    for case in 0..CASES {
        let a = protein(&mut rng, 24);
        let b = protein(&mut rng, 24);
        let x_small = 2 + rng.next_below(6) as i32;
        let tight = xdrop::extend_right(&a, &b, &m, g, x_small);
        let loose = xdrop::extend_right(&a, &b, &m, g, 10_000);
        assert!(tight <= loose, "case {case}: tight {tight} > loose {loose}");
        // An origin-anchored extension can never beat the free local
        // alignment.
        assert!(loose <= sw::score(&a, &b, &m, g).max(0), "case {case}");
        assert!(loose >= 0, "case {case}");
    }
}

/// Pre-deconstruction 16-bit striped kernel: Farrar's original
/// wrap-until-break lazy-F loop over emulated lanes, the bit-identity
/// oracle for the deconstructed `striped::score_with_profile`.
fn score_with_profile_ref<const L: usize>(
    profile: &QueryProfile,
    b: &[AminoAcid],
    gaps: GapPenalties,
) -> i32 {
    assert_eq!(profile.word_lanes(), L);
    if profile.query_len() == 0 || b.is_empty() {
        return 0;
    }
    let segs = profile.word_segments();
    let open_ext = Vector::<L>::splat((gaps.open + gaps.extend) as i16);
    let ext = Vector::<L>::splat(gaps.extend as i16);
    let zero = Vector::<L>::zero();
    let neg = Vector::<L>::splat(WORD_PAD);
    let mut h_store = vec![zero; segs];
    let mut h_load = vec![zero; segs];
    let mut e = vec![neg; segs];
    let mut vmax = zero;

    for &bj in b {
        let row = profile.word_row(bj);
        let mut vf = neg;
        let mut vh = h_store[segs - 1].shift_in_first(0);
        std::mem::swap(&mut h_store, &mut h_load);

        for s in 0..segs {
            let p = Vector::<L>::from_slice(&row[s * L..]);
            vh = vh.adds(p);
            vh = vh.max(e[s]).max(vf).max(zero);
            vmax = vmax.max(vh);
            h_store[s] = vh;

            let h_open = vh.subs(open_ext);
            e[s] = e[s].subs(ext).max(h_open);
            vf = vf.subs(ext).max(h_open);

            vh = h_load[s];
        }

        // Lazy-F: propagate the column's F across lane boundaries until
        // it can no longer raise any H (Farrar's termination test). At
        // most L wraps — each shift advances the chain one lane.
        'lazy: for _ in 0..L {
            vf = vf.shift_in_first(WORD_PAD);
            for s in 0..segs {
                let h = h_store[s].max(vf);
                h_store[s] = h;
                vmax = vmax.max(h);
                let h_open = h.subs(open_ext);
                e[s] = e[s].max(h_open);
                vf = vf.subs(ext);
                if !vf.any_gt(h_open) {
                    break 'lazy;
                }
            }
        }
    }

    i32::from(vmax.horizontal_max()).max(0)
}

/// Pre-deconstruction byte kernel over emulated lanes — the
/// bit-identity oracle for `striped::score_bytes_with_profile`,
/// including identical `None` (saturation) decisions.
fn score_bytes_with_profile_ref<const L: usize>(
    profile: &QueryProfile,
    b: &[AminoAcid],
    gaps: GapPenalties,
) -> Option<i32> {
    assert_eq!(profile.byte_lanes(), L);
    if profile.query_len() == 0 || b.is_empty() {
        return Some(0);
    }
    if !profile.has_bytes() {
        return None;
    }
    let guard = 255 - profile.bias() - profile.max_score();
    if guard <= 0 {
        return None;
    }
    let segs = profile.byte_segments();
    let bias_v = ByteVector::<L>::splat(profile.bias() as u8);
    let open_ext = ByteVector::<L>::splat((gaps.open + gaps.extend).min(255) as u8);
    let ext = ByteVector::<L>::splat(gaps.extend.min(255) as u8);
    let zero = ByteVector::<L>::zero();
    let mut h_store = vec![zero; segs];
    let mut h_load = vec![zero; segs];
    let mut e = vec![zero; segs];
    let mut best = 0u8;

    for &bj in b {
        let row = profile.byte_row(bj).expect("byte layout checked above");
        let mut vf = zero;
        let mut vh = h_store[segs - 1].shift_in_first(0);
        std::mem::swap(&mut h_store, &mut h_load);
        let mut colmax = zero;

        for s in 0..segs {
            let p = ByteVector::<L>::from_slice(&row[s * L..]);
            vh = vh.adds(p).subs(bias_v);
            vh = vh.max(e[s]).max(vf);
            colmax = colmax.max(vh);
            h_store[s] = vh;

            let h_open = vh.subs(open_ext);
            e[s] = e[s].subs(ext).max(h_open);
            vf = vf.subs(ext).max(h_open);

            vh = h_load[s];
        }

        'lazy: for _ in 0..L {
            vf = vf.shift_in_first(0);
            for s in 0..segs {
                let h = h_store[s].max(vf);
                h_store[s] = h;
                colmax = colmax.max(h);
                let h_open = h.subs(open_ext);
                e[s] = e[s].max(h_open);
                vf = vf.subs(ext);
                if !vf.any_gt(h_open) {
                    break 'lazy;
                }
            }
        }

        best = best.max(colmax.horizontal_max());
        if i32::from(best) >= guard {
            return None;
        }
    }

    Some(i32::from(best))
}

/// The deconstructed lazy-F kernels (early-exit correction) must be
/// *bit-identical* to the pre-rework reference kernels above — same
/// scores as scalar SW for the word pass, and the exact same `Option`
/// (including the overflow `None` decisions) for the byte pass.
#[test]
fn deconstructed_lazy_f_is_bit_identical_to_reference() {
    let m = SubstitutionMatrix::blosum62();
    let mut rng = Xoshiro256::new(0xDEC0);
    let mut ws8 = striped::Workspace::<8>::new();
    let mut ws16 = striped::Workspace::<16>::new();
    let mut bws16 = striped::ByteWorkspace::<16>::new();
    let mut bws32 = striped::ByteWorkspace::<32>::new();
    for case in 0..CASES {
        // Alternate random and gap-heavy inputs; cheap gaps every
        // third case keep the correction path hot.
        let (a, b) = if case % 2 == 0 {
            (protein(&mut rng, 90), protein(&mut rng, 90))
        } else {
            (gappy_protein(&mut rng, 90), gappy_protein(&mut rng, 90))
        };
        let g = if case % 3 == 0 {
            GapPenalties::new(1 + rng.next_below(3) as i32, 1)
        } else {
            gap_penalties(&mut rng)
        };
        let expect = sw::score(&a, &b, &m, g);

        let p128 = QueryProfile::build(&a, &m, 8);
        let p256 = QueryProfile::build(&a, &m, 16);

        let new = striped::score_with_profile::<8>(&p128, &b, g, &mut ws8);
        let old = score_with_profile_ref::<8>(&p128, &b, g);
        assert_eq!(new, old, "word L=8 case {case}");
        assert_eq!(new, expect, "word L=8 vs scalar case {case}");

        let new = striped::score_with_profile::<16>(&p256, &b, g, &mut ws16);
        let old = score_with_profile_ref::<16>(&p256, &b, g);
        assert_eq!(new, old, "word L=16 case {case}");
        assert_eq!(new, expect, "word L=16 vs scalar case {case}");

        // Byte pass: Option equality — both kernels must make the same
        // overflow call, and agree with scalar when they answer.
        let new = striped::score_bytes_with_profile::<16>(&p128, &b, g, &mut bws16);
        let old = score_bytes_with_profile_ref::<16>(&p128, &b, g);
        assert_eq!(new, old, "byte LB=16 case {case}");
        if let Some(s) = new {
            assert_eq!(s, expect, "byte LB=16 vs scalar case {case}");
        }

        let new = striped::score_bytes_with_profile::<32>(&p256, &b, g, &mut bws32);
        let old = score_bytes_with_profile_ref::<32>(&p256, &b, g);
        assert_eq!(new, old, "byte LB=32 case {case}");
        if let Some(s) = new {
            assert_eq!(s, expect, "byte LB=32 vs scalar case {case}");
        }
    }
}

/// End-to-end traceback contract: every hit an exact engine reports
/// with `report_alignments` carries coordinates and a CIGAR that
/// replay to exactly the reported score — including hits that took the
/// byte-saturation → word rescore path.
#[test]
fn traceback_cigars_replay_to_reported_score() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0xC16A);

    // ~120-residue query; the database plants a near-identical copy
    // (few point edits), whose score far exceeds byte headroom and
    // forces the adaptive engines through the word rescore, plus
    // random/gappy decoys and a truncated fragment.
    let query: Vec<AminoAcid> = (0..120)
        .map(|_| {
            let i = rng.next_below(20) as usize;
            AminoAcid::from_index(i).unwrap()
        })
        .collect();
    let mut near = query.clone();
    for _ in 0..4 {
        let at = rng.next_below(near.len() as u64) as usize;
        let i = rng.next_below(20) as usize;
        near[at] = AminoAcid::from_index(i).unwrap();
    }
    let mut subjects: Vec<Vec<AminoAcid>> = vec![near, query[20..100].to_vec()];
    for _ in 0..12 {
        subjects.push(protein(&mut rng, 110));
        subjects.push(gappy_protein(&mut rng, 110));
    }
    let slices: Vec<&[AminoAcid]> = subjects.iter().map(|s| s.as_slice()).collect();

    let req = SearchRequest {
        query: &query,
        matrix: &m,
        gaps: g,
        top_k: slices.len(),
        min_score: 1,
        deadline: None,
        report_alignments: true,
        prefilter: Prefilter::Off,
    };
    for engine in Engine::ALL.into_iter().filter(|e| e.is_exact()) {
        let resp = engine.search(&req, &slices, 2);
        assert!(!resp.hits.is_empty(), "{engine}");
        // The planted near-copy must rank first with a score beyond
        // byte range, proving the rescore path is in play.
        assert_eq!(resp.hits[0].seq_index, 0, "{engine}");
        assert!(resp.hits[0].score > 255, "{engine}: {}", resp.hits[0].score);
        for hit in &resp.hits {
            let al = hit
                .alignment
                .as_ref()
                .unwrap_or_else(|| panic!("{engine}: hit {} missing alignment", hit.seq_index));
            assert_eq!(
                al.replay_score(&query, slices[hit.seq_index], &m, g),
                Some(hit.score),
                "{engine}: hit {} CIGAR {}",
                hit.seq_index,
                al.cigar
            );
        }
    }
}

#[test]
fn word_index_entries_meet_threshold() {
    let m = SubstitutionMatrix::blosum62();
    let mut rng = Xoshiro256::new(0x3070);
    for case in 0..CASES {
        let a = protein(&mut rng, 24);
        if a.len() < 3 {
            continue;
        }
        let t = 8 + rng.next_below(6) as i32;
        let idx = blast::WordIndex::build(&a, &m, t);
        for word in 0..blast::WORD_TABLE_SIZE {
            for &qi in idx.lookup(word) {
                let q = &a[qi as usize..qi as usize + 3];
                let c = [word / 400, (word / 20) % 20, word % 20];
                let score: i32 = (0..3).map(|k| m.score_by_index(q[k].index(), c[k])).sum();
                assert!(score >= t, "case {case}");
            }
        }
    }
}

/// The SSE2 lanes the 128-bit kernels run on must agree bit for bit
/// with their emulated twins, op by op: random lanes plus the edge
/// values the kernels feed them (`WORD_PAD`, saturation bounds, bytes
/// above 127, where a signed compare would answer wrongly).
#[cfg(target_arch = "x86_64")]
#[test]
fn sse2_lane_ops_match_emulated_twins() {
    use sapa_vsimd::sse2::{I16x8, U8x16};
    use sapa_vsimd::Lanes;

    fn words<V: Lanes<Elem = i16>>(v: V) -> [i16; 8] {
        let mut out = [0; 8];
        v.store(&mut out);
        out
    }
    fn bytes<V: Lanes<Elem = u8>>(v: V) -> [u8; 16] {
        let mut out = [0; 16];
        v.store(&mut out);
        out
    }

    let mut rng = Xoshiro256::new(0x55E2);
    let word_edges = [
        i16::MIN,
        i16::MIN + 1,
        WORD_PAD,
        -1,
        0,
        1,
        i16::MAX - 1,
        i16::MAX,
    ];
    let byte_edges = [0u8, 1, 126, 127, 128, 129, 200, 254, 255];
    for case in 0..CASES * 8 {
        // Half the lanes random, half edge values.
        let pick_word = |rng: &mut Xoshiro256| {
            if rng.next_below(2) == 0 {
                word_edges[rng.next_below(word_edges.len() as u64) as usize]
            } else {
                rng.next_below(1 << 16) as u16 as i16
            }
        };
        let a: [i16; 8] = std::array::from_fn(|_| pick_word(&mut rng));
        let b: [i16; 8] = std::array::from_fn(|_| pick_word(&mut rng));
        let fill = if case % 2 == 0 { WORD_PAD } else { a[0] };
        let (sa, sb) = (I16x8::load(&a), I16x8::load(&b));
        let (ea, eb) = (Vector::<8>::from_array(a), Vector::<8>::from_array(b));
        assert_eq!(words(sa), a, "load/store case {case}");
        assert_eq!(words(I16x8::splat(fill)), words(Vector::<8>::splat(fill)));
        assert_eq!(
            words(sa.adds(sb)),
            ea.adds(eb).to_array(),
            "adds case {case}"
        );
        assert_eq!(
            words(sa.subs(sb)),
            ea.subs(eb).to_array(),
            "subs case {case}"
        );
        assert_eq!(words(sa.max(sb)), ea.max(eb).to_array(), "max case {case}");
        assert_eq!(sa.any_gt(sb), ea.any_gt(eb), "any_gt case {case}");
        assert!(!sa.any_gt(sa), "any_gt self case {case}");
        assert_eq!(
            words(sa.shift_in_first(fill)),
            ea.shift_in_first(fill).to_array(),
            "shift_in_first case {case}"
        );
        assert_eq!(sa.horizontal_max(), ea.horizontal_max(), "hmax case {case}");

        let pick_byte = |rng: &mut Xoshiro256| {
            if rng.next_below(2) == 0 {
                byte_edges[rng.next_below(byte_edges.len() as u64) as usize]
            } else {
                rng.next_below(256) as u8
            }
        };
        let a: [u8; 16] = std::array::from_fn(|_| pick_byte(&mut rng));
        let b: [u8; 16] = std::array::from_fn(|_| pick_byte(&mut rng));
        let fill = if case % 2 == 0 { 0 } else { a[0] };
        let (sa, sb) = (U8x16::load(&a), U8x16::load(&b));
        let (ea, eb) = (
            ByteVector::<16>::from_array(a),
            ByteVector::<16>::from_array(b),
        );
        assert_eq!(bytes(sa), a, "load/store case {case}");
        assert_eq!(
            bytes(U8x16::splat(a[1])),
            bytes(ByteVector::<16>::splat(a[1]))
        );
        assert_eq!(
            bytes(sa.adds(sb)),
            ea.adds(eb).to_array(),
            "adds case {case}"
        );
        assert_eq!(
            bytes(sa.subs(sb)),
            ea.subs(eb).to_array(),
            "subs case {case}"
        );
        assert_eq!(bytes(sa.max(sb)), ea.max(eb).to_array(), "max case {case}");
        assert_eq!(sa.any_gt(sb), ea.any_gt(eb), "any_gt case {case}");
        assert_eq!(
            bytes(sa.shift_in_first(fill)),
            ea.shift_in_first(fill).to_array(),
            "shift_in_first case {case}"
        );
        assert_eq!(sa.horizontal_max(), ea.horizontal_max(), "hmax case {case}");
    }
    // One lane above 127 against 127 everywhere: only an unsigned
    // compare sees it.
    let mut hi = [127u8; 16];
    hi[9] = 200;
    assert!(U8x16::load(&hi).any_gt(U8x16::splat(127)));
    assert!(!U8x16::splat(127).any_gt(U8x16::load(&hi)));
}

/// The production kernels (SSE2 lanes on x86_64) and the same kernel
/// bodies on emulated lanes return identical scores, end cells and
/// byte-pass `None` decisions: paper and cheap gaps (cheap gaps make
/// lazy-F fire), queries from one residue to several segments, subjects
/// on both sides of the byte saturation guard, one workspace per
/// backend reused across every subject.
#[test]
fn sse2_kernels_are_bit_identical_to_emulated_lanes() {
    // 1 residue up to 8 word segments (64 residues) and beyond.
    let lens: Vec<usize> = (0..CASES).map(|case| 1 + case * 80 / CASES).collect();
    let (overflowed, answered) = kernels_match_emulated_lanes::<16, 8>(0x5E2E, &lens);
    // Both sides of the saturation guard were exercised.
    assert!(
        overflowed > 20 && answered > 100,
        "{overflowed} / {answered}"
    );
}

/// The 256-bit twin of `sse2_kernels_are_bit_identical_to_emulated_lanes`:
/// on a CPU with AVX2 the production kernels run AVX2 lanes, against
/// `ByteVector<32>`/`Vector<16>`, with queries of up to 400 residues
/// (13 byte stripes), on and next to stripe boundaries.
#[test]
fn avx2_kernels_are_bit_identical_to_emulated_lanes() {
    if !striped::avx2_detected() {
        eprintln!("note: this CPU has no AVX2; both sides run the emulated 256-bit lanes");
    }
    let lens = [
        1, 2, 16, 31, 32, 33, 64, 65, 100, 159, 160, 161, 255, 320, 400,
    ];
    let (overflowed, answered) = kernels_match_emulated_lanes::<32, 16>(0xA2F2, &lens);
    assert!(
        overflowed > 10 && answered > 25,
        "{overflowed} / {answered}"
    );
}

/// Runs the production striped kernels at `LB` byte / `LW` word lanes
/// and the same kernel bodies on emulated lanes over one query of about
/// each length in `lens` (even cases random under paper gaps, odd ones
/// gappy under cheap gaps), asserting identical results and agreement
/// with the scalar oracle. Returns how many byte passes gave up
/// (`None`) and how many answered.
fn kernels_match_emulated_lanes<const LB: usize, const LW: usize>(
    seed: u64,
    lens: &[usize],
) -> (usize, usize) {
    let m = SubstitutionMatrix::blosum62();
    let mut rng = Xoshiro256::new(seed);
    let mut ws = striped::Workspace::<LW>::new();
    let mut ws_emu = striped::Workspace::<LW>::new();
    let mut bws = striped::ByteWorkspace::<LB>::new();
    let mut bws_emu = striped::ByteWorkspace::<LB>::new();
    let (mut overflowed, mut answered) = (0, 0);
    for (case, &qlen) in lens.iter().enumerate() {
        let query: Vec<AminoAcid> = if case % 2 == 0 {
            (0..qlen).map(|_| residue(&mut rng)).collect()
        } else {
            let mut q = gappy_protein(&mut rng, 2 * qlen);
            q.push(residue(&mut rng));
            q
        };
        let g = if case % 2 == 0 {
            GapPenalties::paper()
        } else {
            GapPenalties::new(2, 1)
        };
        let profile = QueryProfile::build(&query, &m, LW);
        // Random decoys, gappy subjects, and copies of the query —
        // a long self-match crosses the byte guard, a short one not.
        let mut near = query.clone();
        if !near.is_empty() {
            let at = rng.next_below(near.len() as u64) as usize;
            near[at] = residue(&mut rng);
        }
        let subjects = [
            protein(&mut rng, 90),
            gappy_protein(&mut rng, 90),
            query.clone(),
            near,
            [query.clone(), protein(&mut rng, 20), query.clone()].concat(),
        ];
        for (k, b) in subjects.iter().enumerate() {
            let expect = sw::score(&query, b, &m, g);
            let word = striped::score_with_profile::<LW>(&profile, b, g, &mut ws);
            let word_emu = striped::score_with_lanes::<Vector<LW>, LW>(&profile, b, g, &mut ws_emu);
            assert_eq!(word, word_emu, "word case {case} subject {k}");
            assert_eq!(word, expect, "word vs scalar case {case} subject {k}");

            let ends = striped::score_ends_with_profile::<LW>(&profile, b, g, &mut ws);
            let ends_emu =
                striped::score_ends_with_lanes::<Vector<LW>, LW>(&profile, b, g, &mut ws_emu);
            assert_eq!(ends, ends_emu, "ends case {case} subject {k}");

            let byte = striped::score_bytes_with_profile::<LB>(&profile, b, g, &mut bws);
            let byte_emu =
                striped::score_bytes_with_lanes::<ByteVector<LB>, LB>(&profile, b, g, &mut bws_emu);
            assert_eq!(byte, byte_emu, "byte case {case} subject {k}");
            match byte {
                Some(s) => {
                    assert_eq!(s, expect, "byte vs scalar case {case} subject {k}");
                    answered += 1;
                }
                None => overflowed += 1,
            }
        }
    }
    (overflowed, answered)
}

/// `Engine::Striped` returns the same ranked hits, statistics and
/// rescore count as `StripedEngine::<16, 8>` on emulated lanes. The
/// width rule sends the 143-residue query to SSE2 and, on a CPU with
/// AVX2, the 222- and 464-residue queries to 256-bit AVX2 lanes, so this
/// also checks the two widths against each other.
#[test]
fn striped_engine_matches_an_emulated_lanes_engine() {
    use sapa_align::engine::{search_with, AlignmentEngine};
    use sapa_bioseq::db::DatabaseBuilder;
    use sapa_bioseq::queries::QuerySet;

    /// `StripedEngine::<16, 8>`'s scoring, on emulated lanes.
    struct EmulatedStriped {
        profile: QueryProfile,
        gaps: GapPenalties,
    }

    #[derive(Default)]
    struct Scratch {
        bytes: striped::ByteWorkspace<16>,
        words: striped::Workspace<8>,
        rescored: usize,
    }

    impl AlignmentEngine for EmulatedStriped {
        type Workspace = Scratch;

        fn name(&self) -> &'static str {
            "striped"
        }

        fn workspace(&self) -> Scratch {
            Scratch::default()
        }

        fn score_one(&self, ws: &mut Scratch, subject: &[AminoAcid]) -> i32 {
            let (p, g) = (&self.profile, self.gaps);
            striped::score_bytes_with_lanes::<ByteVector<16>, 16>(p, subject, g, &mut ws.bytes)
                .unwrap_or_else(|| {
                    ws.rescored += 1;
                    striped::score_with_lanes::<Vector<8>, 8>(p, subject, g, &mut ws.words)
                })
        }

        fn rescored(&self, ws: &Scratch) -> usize {
            ws.rescored
        }
    }

    let m = SubstitutionMatrix::blosum62();
    let queries = QuerySet::paper();
    // The long query gets a smaller corpus, to keep the debug build quick.
    for (accession, seed, seqs) in [("P02232", 31, 60), ("P14942", 32, 60), ("P01008", 33, 16)] {
        let query = queries.by_accession(accession).unwrap();
        let db = DatabaseBuilder::new()
            .seed(seed)
            .sequences(seqs)
            .median_length(120.0)
            .homolog_template(query.clone())
            .homolog_fraction(0.25)
            .build();
        let slices: Vec<&[AminoAcid]> = db.iter().map(|s| s.residues()).collect();
        for gaps in [GapPenalties::paper(), GapPenalties::new(2, 1)] {
            let req = SearchRequest {
                query: query.residues(),
                matrix: &m,
                gaps,
                top_k: 25,
                min_score: 1,
                deadline: None,
                report_alignments: false,
                prefilter: Prefilter::Off,
            };
            let emulated = EmulatedStriped {
                profile: QueryProfile::build(query.residues(), &m, 8),
                gaps,
            };
            for threads in [1, 3] {
                let production = Engine::Striped.search(&req, &slices, threads);
                let emu = search_with(Engine::Striped, &emulated, &req, &slices, threads);
                assert!(
                    production.stats.rescored > 0,
                    "{accession}: no subject overflowed"
                );
                assert_eq!(production.stats.rescored, emu.stats.rescored, "{accession}");
                assert_eq!(production, emu, "{accession} threads {threads}");
            }
        }
    }
}

/// Hands out `subjects` in order to a lane scan and records every
/// report, asserting that each subject is reported exactly once.
struct ListFeed<'s> {
    subjects: &'s [Vec<AminoAcid>],
    next: usize,
    reports: Vec<Option<Option<i32>>>,
}

impl<'s> ListFeed<'s> {
    fn new(subjects: &'s [Vec<AminoAcid>]) -> Self {
        ListFeed {
            subjects,
            next: 0,
            reports: vec![None; subjects.len()],
        }
    }

    /// Every subject's byte-pass result, in subject order.
    fn results(self) -> Vec<Option<i32>> {
        self.reports
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| panic!("subject {i} never reported")))
            .collect()
    }
}

impl<'s> striped::lanes::LaneFeed<'s> for ListFeed<'s> {
    fn next(&mut self) -> Option<(usize, &'s [AminoAcid])> {
        let i = self.next;
        let s = self.subjects.get(i)?;
        self.next += 1;
        Some((i, s))
    }

    fn done(&mut self, index: usize, subject: &'s [AminoAcid], score: Option<i32>) {
        assert_eq!(subject, &self.subjects[index][..], "subject {index}");
        assert!(self.reports[index].is_none(), "subject {index} twice");
        self.reports[index] = Some(score);
    }
}

/// The lane kernel on the production registers and on the emulated
/// `ByteVector<16>`, checked against each other, the striped byte pass
/// and the scalar oracle. Returns every subject's result and how many
/// subjects the drained scan handed back to the striped kernel.
fn lane_results(
    profile: &QueryProfile,
    query: &[AminoAcid],
    subjects: &[Vec<AminoAcid>],
    m: &SubstitutionMatrix,
    g: GapPenalties,
    label: &str,
) -> (Vec<Option<i32>>, usize) {
    let mut ws = striped::lanes::LaneWorkspace::new();
    let mut bws = striped::ByteWorkspace::<16>::new();
    let mut feed = ListFeed::new(subjects);
    let tail = striped::lanes::score_lanes(profile, g, &mut ws, &mut feed);
    let handed_back = tail.len();
    assert!(handed_back <= striped::lanes::LANES, "{label}");
    // The subjects a drained scan hands back go to the striped byte
    // pass, as `LaneEngine` sends them.
    for (i, b) in tail {
        let byte = striped::score_bytes_with_profile::<16>(profile, b, g, &mut bws);
        striped::lanes::LaneFeed::done(&mut feed, i, b, byte);
    }
    let got = feed.results();
    let mut feed = ListFeed::new(subjects);
    let tail_emu =
        striped::lanes::score_lanes_with::<ByteVector<16>>(profile, g, &mut ws, &mut feed);
    for (i, b) in tail_emu {
        let byte = striped::score_bytes_with_profile::<16>(profile, b, g, &mut bws);
        striped::lanes::LaneFeed::done(&mut feed, i, b, byte);
    }
    assert_eq!(got, feed.results(), "{label}: emulated twin");
    for (i, (b, &lane)) in subjects.iter().zip(&got).enumerate() {
        let byte = striped::score_bytes_with_profile::<16>(profile, b, g, &mut bws);
        assert_eq!(
            lane, byte,
            "{label}: subject {i} against the striped byte pass"
        );
        if let Some(s) = lane {
            assert_eq!(
                s,
                sw::score(query, b, m, g),
                "{label}: subject {i} against scalar"
            );
        }
    }
    (got, handed_back)
}

/// The lane kernel gives every subject the striped byte pass's result
/// — the exact score, or `None` exactly where the striped kernel gives
/// up — for queries of 0–159 residues on and beside the 16-position
/// block boundaries, batches of 1–40 subjects (partial registers, lane
/// refill), empty, one-residue and mixed-length subjects, and both the
/// paper's and cheap gaps.
#[test]
fn lane_kernel_matches_striped_byte_pass_and_scalar() {
    let m = SubstitutionMatrix::blosum62();
    let mut rng = Xoshiro256::new(0x1A4E);
    let qlens = [
        0, 1, 2, 15, 16, 17, 31, 32, 33, 40, 47, 48, 49, 63, 64, 65, 95, 96, 97, 127, 128, 129,
        143, 144, 145, 158, 159,
    ];
    let batches = [1usize, 2, 15, 16, 17, 31, 32, 33, 40];
    let (mut overflowed, mut answered, mut handed_back) = (0, 0, 0);
    for (case, &qlen) in qlens.iter().enumerate() {
        let query: Vec<AminoAcid> = (0..qlen).map(|_| residue(&mut rng)).collect();
        let profile = QueryProfile::build(&query, &m, 8);
        let batch = batches[case % batches.len()];
        let mut subjects: Vec<Vec<AminoAcid>> = (0..batch)
            .map(|k| match k % 5 {
                0 => Vec::new(),
                1 => vec![residue(&mut rng)],
                2 => gappy_protein(&mut rng, 120),
                _ => protein(&mut rng, 200),
            })
            .collect();
        // A copy of the query beside the decoys: from ~45 residues on
        // its self-score reaches the guard.
        subjects.push(query.clone());
        for g in [GapPenalties::paper(), GapPenalties::new(2, 1)] {
            let (got, back) =
                lane_results(&profile, &query, &subjects, &m, g, &format!("case {case}"));
            overflowed += got.iter().filter(|s| s.is_none()).count();
            answered += got.iter().filter(|s| s.is_some()).count();
            handed_back += back;
        }
    }
    assert!(
        overflowed > 10 && answered > 400,
        "{overflowed} / {answered}"
    );
    // Most subjects ran in the lanes, not in the drained tail.
    assert!(
        handed_back * 3 < overflowed + answered,
        "{handed_back} handed back"
    );
}

/// One lane saturating while its neighbours keep going: the saturating
/// subject is reported `None` as soon as it reaches the guard, its lane
/// takes the next subject, and the subjects beside and after it keep
/// their exact scores.
#[test]
fn a_saturating_lane_leaves_its_neighbours_exact() {
    let m = SubstitutionMatrix::blosum62();
    let mut rng = Xoshiro256::new(0x5A7E);
    let query: Vec<AminoAcid> = (0..60).map(|_| residue(&mut rng)).collect();
    let profile = QueryProfile::build(&query, &m, 8);
    let g = GapPenalties::paper();
    let mut subjects: Vec<Vec<AminoAcid>> = (0..37).map(|_| protein(&mut rng, 150)).collect();
    // Long subjects around the hot one keep its neighbours busy after
    // it saturates.
    subjects[3] = [query.clone(), query.clone()].concat();
    subjects[2] = (0..400).map(|_| residue(&mut rng)).collect();
    let (got, _) = lane_results(&profile, &query, &subjects, &m, g, "saturating lane");
    assert_eq!(got[3], None);
    assert_eq!(got.iter().filter(|s| s.is_none()).count(), 1);
}

/// Through the parallel pipeline, `LaneEngine` gives the scores and
/// rescore counts of `StripedEngine::<16, 8>` at any thread count, on
/// either side of the subject count the kernel rule needs; a matrix
/// without a byte layout keeps the striped path, where every non-empty
/// subject is rescored.
#[test]
fn lane_engine_matches_striped_engine_through_the_pipeline() {
    use sapa_align::engine::{AlignmentEngine, LaneEngine, StripedEngine};
    use sapa_align::parallel::engine_scores;

    let mut rng = Xoshiro256::new(0x1A4F);
    for (case, (matrix, qlen, n)) in [
        (SubstitutionMatrix::blosum62(), 60, 200),
        (
            SubstitutionMatrix::blosum62(),
            150,
            striped::LANES_MIN_SUBJECTS,
        ),
        (
            SubstitutionMatrix::blosum62(),
            64,
            striped::LANES_MIN_SUBJECTS - 1,
        ),
        (SubstitutionMatrix::uniform(120, -120), 30, 64),
    ]
    .into_iter()
    .enumerate()
    {
        let query: Vec<AminoAcid> = (0..qlen).map(|_| residue(&mut rng)).collect();
        let mut owned: Vec<Vec<AminoAcid>> = (0..n).map(|_| protein(&mut rng, 250)).collect();
        owned[n / 2] = query.clone();
        owned[1] = Vec::new();
        let subjects: Vec<&[AminoAcid]> = owned.iter().map(|s| &s[..]).collect();
        let g = GapPenalties::paper();
        let lanes = LaneEngine::from_query(&query, &matrix, g);
        let striped = StripedEngine::<16, 8>::from_query(&query, &matrix, g);
        let expect_batch = case < 2;
        assert_eq!(lanes.batches(n), expect_batch, "case {case}");
        let (want, want_stats) = engine_scores(&striped, &subjects, 1);
        assert!(want_stats.rescored > 0, "case {case}: nothing overflowed");
        for threads in [1, 2, 8] {
            let (got, stats) = engine_scores(&lanes, &subjects, threads);
            assert_eq!(got, want, "case {case} threads {threads}");
            assert_eq!(
                stats.rescored, want_stats.rescored,
                "case {case} threads {threads}"
            );
        }
    }
}
