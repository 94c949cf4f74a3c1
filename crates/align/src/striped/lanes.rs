//! Inter-sequence byte lanes: sixteen subjects at once, one in each
//! `u8` lane of an SSE2 register (T. Rognes, "Faster Smith-Waterman
//! database searches with inter-sequence SIMD parallelisation", BMC
//! Bioinformatics 12:221, 2011).
//!
//! The striped kernel spreads one query over the lanes, so every
//! subject column pays a lane shift, the lazy-F test and the
//! per-subject setup however short the query is. Here a lane holds a
//! whole subject and the registers run down the query one position at a
//! time, so F never crosses a lane and there is nothing to repair: a
//! column is `query_len` register steps and nothing else. A column's
//! substitution scores come from the profile's sequential byte layout
//! ([`QueryProfile::seq_bytes`]): each lane's residue selects one row,
//! and a 16 × 16 byte transpose ([`Transpose16`]) turns 16 rows of 16
//! query positions into 16 registers of one position each.
//!
//! Lanes advance one subject residue per column. When a lane's subject
//! ends, its score is reported and the lane takes the next subject from
//! the [`LaneFeed`] at once, so lanes drain only when the feed runs dry.
//!
//! **Exactness and the guard.** Each lane runs the striped byte
//! kernel's recurrence in the same biased, saturating `u8` arithmetic
//! (see [`super::score_bytes_with_profile`]) on one subject, and checks
//! the same guard (`255 − bias − max_score`) after every column. While
//! a subject's best score stays below the guard no add can clip, so its
//! score is exact; the column in which its best score first reaches the
//! guard is still computed exactly, because every input to it is below
//! the guard. So the byte pass gives up on a subject exactly when its
//! true score reaches the guard, in either layout: the lane kernel
//! reports `None` for precisely the subjects for which the striped byte
//! kernel returns `None`, and the same score for every other one.
//! Padding and idle lanes read the all-zero row (a score of `−bias`,
//! the matrix minimum or below), which keeps their cells at zero.

use sapa_bioseq::matrix::GapPenalties;
use sapa_bioseq::profile::QueryProfile;
use sapa_bioseq::AminoAcid;
#[cfg(target_arch = "x86_64")]
use sapa_vsimd::sse2::U8x16;
#[cfg(not(target_arch = "x86_64"))]
use sapa_vsimd::ByteVector;
use sapa_vsimd::Transpose16;

/// Subjects one register scores at once.
pub const LANES: usize = 16;

/// About what one lane column costs in columns of the 128-bit striped
/// byte kernel with the same query: 16 lanes' cells at the lane
/// kernel's cell rate. Measured at 8.5–13 for 20–159-residue queries;
/// the low end, so the lanes keep a tail unless striped clearly wins.
const LANE_COLUMN_COST: usize = 8;

/// Where a lane scan takes its subjects from and where it reports them.
pub trait LaneFeed<'s> {
    /// The next subject to score and its index, or `None` when there
    /// are no more. Called again after `None`, it must answer `None`.
    fn next(&mut self) -> Option<(usize, &'s [AminoAcid])>;

    /// Reports the byte pass of subject `index`: its exact score, or
    /// `None` when its best score reached the guard and the subject
    /// needs the 16-bit kernel — the result
    /// [`super::score_bytes_with_profile`] gives for it.
    fn done(&mut self, index: usize, subject: &'s [AminoAcid], score: Option<i32>);
}

/// Reusable row state of the lane kernel: H and E of the previous
/// column for every query position, 16 lanes each. Sized by the query,
/// so a worker reuses one across a whole scan.
#[derive(Debug, Clone, Default)]
pub struct LaneWorkspace {
    /// Per query position, 16 H bytes then 16 E bytes.
    he: Vec<u8>,
}

impl LaneWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The subject a lane holds, and its index.
#[derive(Clone, Copy)]
struct Lane<'s> {
    index: usize,
    subject: &'s [AminoAcid],
}

/// The splatted scoring constants of a lane scan.
struct Consts<V> {
    bias: V,
    open_ext: V,
    ext: V,
    /// Any lane above this has reached the guard.
    over: V,
}

/// Scores every subject `feed` hands out, [`LANES`] at a time, on SSE2
/// registers on x86_64 and on the emulated
/// [`ByteVector`](sapa_vsimd::ByteVector)s elsewhere.
///
/// Once the feed runs dry, lanes go idle one by one while the last
/// subjects finish. When finishing them in their lanes would cost more
/// than scoring them again from the start on the striped kernel, the
/// scan stops and returns them, unreported, for the caller to score one
/// at a time; otherwise it returns nothing.
///
/// # Panics
///
/// Panics if the profile has no sequential byte layout (see
/// [`QueryProfile::seq_bytes`]) or its guard leaves no room below the
/// `u8` ceiling — when the striped byte pass gives up on every subject.
pub fn score_lanes<'s>(
    profile: &QueryProfile,
    gaps: GapPenalties,
    ws: &mut LaneWorkspace,
    feed: &mut impl LaneFeed<'s>,
) -> Vec<(usize, &'s [AminoAcid])> {
    #[cfg(target_arch = "x86_64")]
    return score_lanes_with::<U8x16>(profile, gaps, ws, feed);
    #[cfg(not(target_arch = "x86_64"))]
    score_lanes_with::<ByteVector<16>>(profile, gaps, ws, feed)
}

/// [`score_lanes`] on an explicit register type `V` — the one kernel
/// body, exposed so tests can run the SSE2 and the emulated lanes side
/// by side.
///
/// # Panics
///
/// As [`score_lanes`].
#[inline(always)]
pub fn score_lanes_with<'s, V: Transpose16>(
    profile: &QueryProfile,
    gaps: GapPenalties,
    ws: &mut LaneWorkspace,
    feed: &mut impl LaneFeed<'s>,
) -> Vec<(usize, &'s [AminoAcid])> {
    let m = profile.query_len();
    if m == 0 {
        // An empty query scores 0 against everything, as in the
        // striped byte kernel.
        while let Some((i, s)) = feed.next() {
            feed.done(i, s, Some(0));
        }
        return Vec::new();
    }
    let (Some(seq), Some(guard)) = (profile.seq_bytes(), super::byte_guard(profile)) else {
        panic!("lane kernel needs the sequential byte layout with room below the guard");
    };
    // Rows in whole 16-byte blocks, so a tile load needs one index.
    let (seq, _) = seq.as_chunks::<LANES>();
    let stride = profile.seq_stride() / LANES;
    let idle_row = AminoAcid::COUNT * stride;
    let over = (guard - 1).min(255) as u8;
    let k = Consts {
        bias: V::splat(profile.bias() as u8),
        open_ext: V::splat((gaps.open + gaps.extend).min(255) as u8),
        ext: V::splat(gaps.extend.min(255) as u8),
        over: V::splat(over),
    };
    ws.he.clear();
    ws.he.resize(m * 2 * LANES, 0);
    let he = &mut ws.he[..];

    let mut dry = false;
    let mut lanes: [Option<Lane<'s>>; LANES] = std::array::from_fn(|_| refill(feed, &mut dry));
    // The residues each lane has left; an idle lane's is empty.
    let mut rests: [std::slice::Iter<'s, AminoAcid>; LANES] =
        std::array::from_fn(|l| lanes[l].map_or([].iter(), |lane| lane.subject.iter()));
    let mut vmax = V::splat(0);
    let mut rows = [idle_row; LANES];
    // Columns left until the next lane's subject ends.
    let mut until_end = columns_to_end(&rests, &lanes);
    while until_end > 0 {
        for (row, rest) in rows.iter_mut().zip(&mut rests) {
            *row = rest.next().map_or(idle_row, |r| r.index() * stride);
        }
        vmax = column(seq, &rows, he, &k, vmax);
        until_end -= 1;
        if until_end > 0 && !vmax.any_gt(k.over) {
            continue;
        }

        // A subject ended or reached the guard: report it and give its
        // lane the next subject, with its H, E and best score at zero.
        let mut best = [0u8; LANES];
        vmax.store(&mut best);
        for (lane_no, (lane, rest)) in lanes.iter_mut().zip(&mut rests).enumerate() {
            let Some(l) = *lane else { continue };
            let score = if best[lane_no] > over {
                None
            } else if rest.len() == 0 {
                Some(i32::from(best[lane_no]))
            } else {
                continue;
            };
            feed.done(l.index, l.subject, score);
            best[lane_no] = 0;
            for cell in he.chunks_exact_mut(LANES) {
                cell[lane_no] = 0;
            }
            *lane = refill(feed, &mut dry);
            *rest = lane.map_or([].iter(), |l| l.subject.iter());
        }
        vmax = V::load(&best);
        until_end = columns_to_end(&rests, &lanes);
        if dry && striped_finishes_sooner(&rests, &lanes) {
            return lanes
                .iter()
                .flatten()
                .map(|l| (l.index, l.subject))
                .collect();
        }
    }
    Vec::new()
}

/// Whether the busy lanes' subjects, scored again from the start on the
/// striped kernel, cost less than the lane columns left until the last
/// of them ends.
fn striped_finishes_sooner(
    rests: &[std::slice::Iter<'_, AminoAcid>; LANES],
    lanes: &[Option<Lane<'_>>; LANES],
) -> bool {
    let (mut left, mut restart) = (0, 0);
    for (rest, lane) in rests.iter().zip(lanes) {
        if let Some(l) = lane {
            left = left.max(rest.len());
            restart += l.subject.len();
        }
    }
    left * LANE_COLUMN_COST > restart
}

/// The next non-empty subject from `feed` for a free lane, reporting
/// empty ones (score 0) on the way; `None` once the feed is dry.
fn refill<'s>(feed: &mut impl LaneFeed<'s>, dry: &mut bool) -> Option<Lane<'s>> {
    while !*dry {
        match feed.next() {
            Some((i, s)) if s.is_empty() => feed.done(i, s, Some(0)),
            Some((index, subject)) => return Some(Lane { index, subject }),
            None => *dry = true,
        }
    }
    None
}

/// Columns until the first busy lane's subject ends; 0 when every lane
/// is idle.
fn columns_to_end(
    rests: &[std::slice::Iter<'_, AminoAcid>; LANES],
    lanes: &[Option<Lane<'_>>; LANES],
) -> usize {
    rests
        .iter()
        .zip(lanes)
        .filter(|(_, lane)| lane.is_some())
        .map(|(rest, _)| rest.len())
        .min()
        .unwrap_or(0)
}

/// One subject column in every lane: lane `l` scores the residue whose
/// sequential profile row starts at block `rows[l]`. Reads the previous
/// column's H and E from `he`, leaves this column's there, and returns
/// `vmax` raised by every H it computed.
#[inline(always)]
fn column<V: Transpose16>(
    seq: &[[u8; LANES]],
    rows: &[usize; LANES],
    he: &mut [u8],
    k: &Consts<V>,
    mut vmax: V,
) -> V {
    // H above the first query position is the local-alignment zero, and
    // F starts dead at the unsigned floor.
    let mut diag = V::splat(0);
    let mut f = V::splat(0);
    for (block, cells) in he.chunks_mut(LANES * 2 * LANES).enumerate() {
        // Row `l` of the tile is lane `l`'s scores at 16 query
        // positions; transposed, register `t` holds position `t`'s score
        // in every lane.
        let scores = V::transpose16(std::array::from_fn(|l| V::load(&seq[rows[l] + block])));
        for (s, cell) in scores.iter().zip(cells.chunks_exact_mut(2 * LANES)) {
            let (h_row, e_row) = cell.split_at_mut(LANES);
            let h_left = V::load(h_row);
            let e = V::load(e_row);
            let h = diag.adds(*s).subs(k.bias).max(e).max(f);
            vmax = vmax.max(h);
            h.store(h_row);
            diag = h_left;
            let h_open = h.subs(k.open_ext);
            e.subs(k.ext).max(h_open).store(e_row);
            f = f.subs(k.ext).max(h_open);
        }
    }
    vmax
}
