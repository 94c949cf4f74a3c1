//! Striped query profiles for Farrar-style SIMD Smith-Waterman.
//!
//! The anti-diagonal kernels gather one substitution score per cell per
//! diagonal — the per-cell `vperm` traffic the paper's trauma histograms
//! measure. Farrar's striped layout removes that cost entirely: the
//! substitution scores for the whole query are laid out **once** per
//! (query, matrix, lane-width) so that the inner loop loads a whole
//! vector of scores with a single aligned load per segment.
//!
//! Layout: for a query of length `m` processed with `L` lanes, the query
//! is split into `segs = ceil(m / L)` *segments*; lane `k` of segment
//! `s` covers query position `k * segs + s`. For each database residue
//! `c` the profile stores `segs` contiguous `L`-lane groups:
//!
//! ```text
//! row(c) = [ P[c][0][0..L] , P[c][1][0..L] , … , P[c][segs-1][0..L] ]
//! P[c][s][k] = score(query[k * segs + s], c)      (padding for k·segs+s ≥ m)
//! ```
//!
//! A [`QueryProfile`] carries two parallel layouts: 16-bit *word* lanes
//! (exact for every realistic score) and biased 8-bit *byte* lanes with
//! double the lane count (the fast first pass; the kernel detects
//! saturation and falls back to words). The byte layout is `None` when
//! the matrix's dynamic range cannot fit the biased-u8 scheme.
//!
//! A third layout serves the inter-sequence kernel, which puts one
//! *subject* in each lane instead of one query stripe: the same biased
//! bytes in query order, one row of [`QueryProfile::seq_stride`] bytes
//! per residue, then one all-zero row for lanes that hold no subject
//! (see [`QueryProfile::seq_bytes`]). Only 8-word-lane profiles of
//! queries shorter than [`SEQ_BYTES_MAX_QUERY`] carry it, the only ones
//! that kernel runs:
//!
//! ```text
//! seq(c) = [ S[c][0], S[c][1], … , S[c][m-1], 0 … ]     S = score + bias
//! ```
//!
//! Profiles are immutable and `Sync`; a database search builds one and
//! shares it across every worker thread, amortizing construction over
//! the whole scan. [`ProfileCache`] additionally memoizes profiles
//! across searches (multi-query servers hit the same (query, matrix)
//! pair repeatedly).

use std::collections::HashMap;
use std::sync::Arc;

use crate::alphabet::AminoAcid;
use crate::matrix::SubstitutionMatrix;

/// Padding value for word lanes covering positions past the query end:
/// deep enough that a padded lane can never influence a real score, yet
/// far from `i16::MIN` so repeated saturating subtraction stays sane.
pub const WORD_PAD: i16 = -25000;

/// A precomputed striped substitution-score layout for one
/// (query, matrix, lane-width) triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryProfile {
    query_len: usize,
    matrix_name: &'static str,
    max_score: i32,
    word_lanes: usize,
    word_segments: usize,
    /// `[residue][segment][lane]`, row stride `word_segments * word_lanes`.
    words: Vec<i16>,
    byte_lanes: usize,
    byte_segments: usize,
    /// Biased byte layout, same indexing; `None` if the matrix's range
    /// does not fit the u8 scheme.
    bytes: Option<Vec<u8>>,
    /// The same biased bytes in query order, `[residue][position]` with
    /// row stride `seq_stride`, plus one all-zero row; `None` with
    /// `bytes` and where the inter-sequence kernel does not run.
    seq_bytes: Option<Vec<u8>>,
    bias: i32,
}

/// Queries this long or longer get no sequential byte layout
/// ([`QueryProfile::seq_bytes`]), and neither do profiles of other than
/// 8 word lanes: the inter-sequence kernel that reads it runs on SSE2
/// registers for queries below five 32-residue stripes, and longer
/// queries are searched striped.
pub const SEQ_BYTES_MAX_QUERY: usize = 160;

/// Rounds a sequential row up to whole 16-byte loads, at least one.
fn seq_stride(query_len: usize) -> usize {
    query_len.div_ceil(16).max(1) * 16
}

impl QueryProfile {
    /// Builds the striped profile for `query` under `matrix`.
    ///
    /// `word_lanes` is the 16-bit lane count of the target register
    /// (8 for the 128-bit Altivec model, 16 for the 256-bit extension);
    /// the byte layout uses `2 * word_lanes` lanes of the same register.
    ///
    /// # Panics
    ///
    /// Panics if `word_lanes` is zero.
    pub fn build(query: &[AminoAcid], matrix: &SubstitutionMatrix, word_lanes: usize) -> Self {
        assert!(word_lanes > 0, "need at least one lane");
        let m = query.len();
        let n_res = AminoAcid::COUNT;
        let byte_lanes = word_lanes * 2;
        let word_segments = m.div_ceil(word_lanes).max(1);
        let byte_segments = m.div_ceil(byte_lanes).max(1);
        let bias = (-matrix.min_score()).max(0);
        let max_score = matrix.max_score();

        let mut words = vec![WORD_PAD; n_res * word_segments * word_lanes];
        for c in AminoAcid::ALL.iter() {
            let row = c.index() * word_segments * word_lanes;
            for s in 0..word_segments {
                for k in 0..word_lanes {
                    let q = k * word_segments + s;
                    if q < m {
                        words[row + s * word_lanes + k] = matrix.score(query[q], *c) as i16;
                    }
                }
            }
        }

        // Byte layout is feasible when every biased score fits u8 with
        // enough headroom left for the kernel's saturation guard.
        let byte_ok = bias + max_score < 200 && bias <= 127;
        let bytes = byte_ok.then(|| {
            let mut bytes = vec![0u8; n_res * byte_segments * byte_lanes];
            for c in AminoAcid::ALL.iter() {
                let row = c.index() * byte_segments * byte_lanes;
                for s in 0..byte_segments {
                    for k in 0..byte_lanes {
                        let q = k * byte_segments + s;
                        if q < m {
                            bytes[row + s * byte_lanes + k] =
                                (matrix.score(query[q], *c) + bias) as u8;
                        }
                        // Padding stays 0 = true score −bias: at or
                        // below the matrix minimum, so padded lanes
                        // decay and never affect real cells.
                    }
                }
            }
            bytes
        });
        let stride = seq_stride(m);
        let sequential = byte_ok && word_lanes == 8 && m < SEQ_BYTES_MAX_QUERY;
        let seq_bytes = sequential.then(|| {
            let mut seq = vec![0u8; (n_res + 1) * stride];
            for c in AminoAcid::ALL.iter() {
                let row = &mut seq[c.index() * stride..][..m];
                for (cell, &q) in row.iter_mut().zip(query) {
                    *cell = (matrix.score(q, *c) + bias) as u8;
                }
            }
            seq
        });

        QueryProfile {
            query_len: m,
            matrix_name: matrix.name(),
            max_score,
            word_lanes,
            word_segments,
            words,
            byte_lanes,
            byte_segments,
            bytes,
            seq_bytes,
            bias,
        }
    }

    /// [`build`](Self::build), wrapped in an [`Arc`] — the form the
    /// engine layer and multi-threaded scans share across workers.
    pub fn build_shared(
        query: &[AminoAcid],
        matrix: &SubstitutionMatrix,
        word_lanes: usize,
    ) -> Arc<Self> {
        Arc::new(Self::build(query, matrix, word_lanes))
    }

    /// Length of the profiled query.
    #[inline]
    pub fn query_len(&self) -> usize {
        self.query_len
    }

    /// Name of the matrix the profile was built from.
    pub fn matrix_name(&self) -> &'static str {
        self.matrix_name
    }

    /// Largest substitution score in the source matrix.
    #[inline]
    pub fn max_score(&self) -> i32 {
        self.max_score
    }

    /// 16-bit lane count the word layout targets.
    #[inline]
    pub fn word_lanes(&self) -> usize {
        self.word_lanes
    }

    /// Segment count of the word layout (`ceil(len / word_lanes)`).
    #[inline]
    pub fn word_segments(&self) -> usize {
        self.word_segments
    }

    /// The word-layout row for database residue `c`:
    /// `word_segments * word_lanes` scores, segment-major.
    #[inline]
    pub fn word_row(&self, c: AminoAcid) -> &[i16] {
        let stride = self.word_segments * self.word_lanes;
        let start = c.index() * stride;
        &self.words[start..start + stride]
    }

    /// 8-bit lane count the byte layout targets (`2 * word_lanes`).
    #[inline]
    pub fn byte_lanes(&self) -> usize {
        self.byte_lanes
    }

    /// Segment count of the byte layout (`ceil(len / byte_lanes)`).
    #[inline]
    pub fn byte_segments(&self) -> usize {
        self.byte_segments
    }

    /// Whether the byte layout exists (matrix range fits biased u8).
    #[inline]
    pub fn has_bytes(&self) -> bool {
        self.bytes.is_some()
    }

    /// Bytes of score layout the profile holds on the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<i16>()
            + self.bytes.as_ref().map_or(0, Vec::len)
            + self.seq_bytes.as_ref().map_or(0, Vec::len)
    }

    /// The score bias added to every byte-layout entry.
    #[inline]
    pub fn bias(&self) -> i32 {
        self.bias
    }

    /// The byte-layout row for database residue `c`, or `None` when the
    /// byte layout is infeasible for this matrix.
    #[inline]
    pub fn byte_row(&self, c: AminoAcid) -> Option<&[u8]> {
        let bytes = self.bytes.as_ref()?;
        let stride = self.byte_segments * self.byte_lanes;
        let start = c.index() * stride;
        Some(&bytes[start..start + stride])
    }

    /// Bytes per row of the sequential byte layout: the query length
    /// rounded up to a multiple of 16, at least 16.
    #[inline]
    pub fn seq_stride(&self) -> usize {
        seq_stride(self.query_len)
    }

    /// The sequential biased byte layout, or `None` when the byte
    /// layout is infeasible for this matrix, the profile has other than
    /// 8 word lanes or the query has [`SEQ_BYTES_MAX_QUERY`] residues or
    /// more: the row of residue `c`
    /// starts at `c.index() * seq_stride()` and holds `score(query[i],
    /// c) + bias` at position `i`, zero past the query end. One
    /// all-zero row follows the last residue's, at
    /// `AminoAcid::COUNT * seq_stride()`.
    #[inline]
    pub fn seq_bytes(&self) -> Option<&[u8]> {
        self.seq_bytes.as_deref()
    }
}

/// (query residue indices, matrix score table, word lane count).
type ProfileKey = (Vec<u8>, [[i8; AminoAcid::COUNT]; AminoAcid::COUNT], usize);

/// Bytes of profiles, keys included, that a [`ProfileCache`] keeps
/// before it evicts the least recently used: 16 MiB, about 50 profiles
/// of a 4,096-residue query (~300 KB each) or thousands of 20–60-residue
/// ones (a few KB each).
pub const PROFILE_CACHE_BYTES: usize = 16 << 20;

/// Memoizes [`QueryProfile`]s across searches.
///
/// Keyed by (query residues, matrix score table, word lane count) —
/// the table, not the name, because distinct matrices share names
/// (every [`SubstitutionMatrix::uniform`] is `"uniform"`). Returns
/// shared [`Arc`]s so concurrent searches can hold the same profile.
/// The search driver keeps one of these so repeated searches with the
/// same query (the common server pattern) skip profile construction
/// entirely.
///
/// The cache holds at most [`PROFILE_CACHE_BYTES`]: past it, the least
/// recently used profiles are evicted, so a server that meets many
/// distinct queries does not grow without bound. A profile larger than
/// the whole budget is built and returned but not kept.
#[derive(Debug, Default)]
pub struct ProfileCache {
    map: HashMap<ProfileKey, CachedProfile>,
    /// Sum of the entries' `bytes`.
    bytes: usize,
    /// Lookups so far; an entry's `used` is the lookup that last hit it.
    clock: u64,
}

#[derive(Debug)]
struct CachedProfile {
    profile: Arc<QueryProfile>,
    /// Profile heap bytes plus the key's.
    bytes: usize,
    used: u64,
}

impl ProfileCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached profile for (query, matrix, lane-width),
    /// building and storing it on first use.
    pub fn get_or_build(
        &mut self,
        query: &[AminoAcid],
        matrix: &SubstitutionMatrix,
        word_lanes: usize,
    ) -> Arc<QueryProfile> {
        let key = (
            query.iter().map(|a| a.index() as u8).collect::<Vec<u8>>(),
            *matrix.table(),
            word_lanes,
        );
        self.clock += 1;
        if let Some(hit) = self.map.get_mut(&key) {
            hit.used = self.clock;
            return Arc::clone(&hit.profile);
        }
        let profile = Arc::new(QueryProfile::build(query, matrix, word_lanes));
        let bytes = profile.heap_bytes() + key.0.len() + std::mem::size_of::<ProfileKey>();
        if bytes > PROFILE_CACHE_BYTES {
            return profile;
        }
        // Each lookup has its own tick, so the least recently used entry
        // is unique whatever order the map iterates in.
        while self.bytes + bytes > PROFILE_CACHE_BYTES {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.used)
                .map(|(k, _)| k.clone())
                .expect("a cache over budget holds an entry");
            let evicted = self.map.remove(&oldest).expect("oldest key is cached");
            self.bytes -= evicted.bytes;
        }
        self.bytes += bytes;
        self.map.insert(
            key,
            CachedProfile {
                profile: Arc::clone(&profile),
                bytes,
                used: self.clock,
            },
        );
        profile
    }

    /// Number of distinct profiles currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::Sequence;

    fn seq(s: &str) -> Vec<AminoAcid> {
        Sequence::from_str("t", s).unwrap().residues().to_vec()
    }

    #[test]
    fn word_layout_matches_matrix() {
        let m = SubstitutionMatrix::blosum62();
        let q = seq("HEAGAWGHEE");
        let p = QueryProfile::build(&q, &m, 8);
        assert_eq!(p.query_len(), 10);
        assert_eq!(p.word_lanes(), 8);
        assert_eq!(p.word_segments(), 2); // ceil(10 / 8)
        for c in AminoAcid::ALL {
            let row = p.word_row(c);
            assert_eq!(row.len(), 16);
            for s in 0..2 {
                for k in 0..8 {
                    let qpos = k * 2 + s;
                    let expect = if qpos < q.len() {
                        m.score(q[qpos], c) as i16
                    } else {
                        WORD_PAD
                    };
                    assert_eq!(row[s * 8 + k], expect, "{c} s{s} k{k}");
                }
            }
        }
    }

    #[test]
    fn byte_layout_is_biased_and_padded() {
        let m = SubstitutionMatrix::blosum62();
        let q = seq("WWAC");
        let p = QueryProfile::build(&q, &m, 8);
        assert!(p.has_bytes());
        assert_eq!(p.bias(), 4); // −min(BLOSUM62)
        assert_eq!(p.byte_lanes(), 16);
        assert_eq!(p.byte_segments(), 1);
        let row = p.byte_row(AminoAcid::Trp).unwrap();
        // Lane k covers query position k (segs = 1).
        assert_eq!(row[0], (11 + 4) as u8); // W vs W
        assert_eq!(row[4], 0); // padding
    }

    #[test]
    fn sequential_layout_is_biased_in_query_order() {
        let m = SubstitutionMatrix::blosum62();
        let q = seq("HEAGAWGHEEPAWHEAE");
        let p = QueryProfile::build(&q, &m, 8);
        assert_eq!(p.seq_stride(), 32);
        let seq = p.seq_bytes().unwrap();
        assert_eq!(seq.len(), (AminoAcid::COUNT + 1) * 32);
        for c in AminoAcid::ALL {
            let row = &seq[c.index() * 32..][..32];
            for (i, &cell) in row.iter().enumerate() {
                let expect = q.get(i).map_or(0, |&a| (m.score(a, c) + p.bias()) as u8);
                assert_eq!(cell, expect, "{c} at {i}");
            }
        }
        assert!(seq[AminoAcid::COUNT * 32..].iter().all(|&b| b == 0));
        assert_eq!(QueryProfile::build(&[], &m, 8).seq_stride(), 16);
    }

    #[test]
    fn sequential_layout_only_where_the_lane_kernel_runs() {
        let m = SubstitutionMatrix::blosum62();
        let q = random_queries(1, SEQ_BYTES_MAX_QUERY, 3).remove(0);
        let short = &q[..SEQ_BYTES_MAX_QUERY - 1];
        assert!(QueryProfile::build(short, &m, 8).seq_bytes().is_some());
        assert!(QueryProfile::build(&[], &m, 8).seq_bytes().is_some());
        // Long queries and 256-bit profiles stay striped.
        assert!(QueryProfile::build(&q, &m, 8).seq_bytes().is_none());
        assert!(QueryProfile::build(short, &m, 16).seq_bytes().is_none());
        assert!(QueryProfile::build(short, &m, 16).has_bytes());
    }

    #[test]
    fn wide_matrix_disables_byte_layout() {
        // A huge dynamic range cannot fit the biased-u8 scheme.
        let m = SubstitutionMatrix::uniform(120, -120);
        let q = seq("ACDE");
        let p = QueryProfile::build(&q, &m, 8);
        assert!(!p.has_bytes());
        assert!(p.byte_row(AminoAcid::Ala).is_none());
        assert!(p.seq_bytes().is_none());
    }

    #[test]
    fn empty_query_has_one_padded_segment() {
        let m = SubstitutionMatrix::blosum62();
        let p = QueryProfile::build(&[], &m, 8);
        assert_eq!(p.query_len(), 0);
        assert_eq!(p.word_segments(), 1);
        assert!(p.word_row(AminoAcid::Ala).iter().all(|&v| v == WORD_PAD));
    }

    #[test]
    fn cache_returns_shared_profiles() {
        let m = SubstitutionMatrix::blosum62();
        let q = seq("HEAGAWGHEE");
        let mut cache = ProfileCache::new();
        let a = cache.get_or_build(&q, &m, 8);
        let b = cache.get_or_build(&q, &m, 8);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        // Different lane width is a different entry.
        let c = cache.get_or_build(&q, &m, 16);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        // Different matrix (name) is a different entry.
        let u = SubstitutionMatrix::uniform(5, -4);
        let d = cache.get_or_build(&q, &u, 8);
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(cache.len(), 3);
    }

    /// `n` distinct random queries of `len` residues.
    fn random_queries(n: usize, len: usize, seed: u64) -> Vec<Vec<AminoAcid>> {
        let mut rng = crate::rng::Xoshiro256::new(seed);
        (0..n)
            .map(|_| {
                (0..len)
                    .map(|_| AminoAcid::from_index(rng.next_below(20) as usize).unwrap())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn cache_stays_within_its_budget_and_evicts_least_recently_used() {
        // Queries at the daemon's 4,096-residue limit: ~300 KB each, so
        // 60 of them overfill the budget.
        let m = SubstitutionMatrix::blosum62();
        let queries = random_queries(60, 4096, 7);
        let mut cache = ProfileCache::new();
        let mut handed_out = vec![cache.get_or_build(&queries[0], &m, 8)];
        for (i, q) in queries.iter().enumerate().skip(1) {
            // Keep the first query hot: it must survive every eviction.
            assert!(Arc::ptr_eq(
                &handed_out[0],
                &cache.get_or_build(&queries[0], &m, 8)
            ));
            let p = cache.get_or_build(q, &m, 8);
            assert_eq!(*p, QueryProfile::build(q, &m, 8), "query {i}");
            assert!(cache.bytes <= PROFILE_CACHE_BYTES, "query {i}");
            handed_out.push(p);
        }
        assert!(cache.len() < queries.len(), "nothing was evicted");
        let cached = |cache: &mut ProfileCache, i: usize| {
            Arc::ptr_eq(&handed_out[i], &cache.get_or_build(&queries[i], &m, 8))
        };
        // The newest entry is still there; the second query, the least
        // recently used when the budget first ran out, is not, and comes
        // back as a fresh build equal to the first.
        assert!(cached(&mut cache, 59));
        assert!(!cached(&mut cache, 1));
        assert_eq!(*cache.get_or_build(&queries[1], &m, 8), *handed_out[1]);
        // Every query still gets a profile equal to a fresh build.
        for q in &queries {
            assert_eq!(*cache.get_or_build(q, &m, 8), QueryProfile::build(q, &m, 8));
            assert!(cache.bytes <= PROFILE_CACHE_BYTES);
        }
    }

    #[test]
    fn a_profile_larger_than_the_budget_is_built_but_not_kept() {
        // 24 symbols × 3 bytes per residue: this query's profile alone
        // exceeds the budget.
        let m = SubstitutionMatrix::blosum62();
        let huge = random_queries(1, PROFILE_CACHE_BYTES / 72 + 1, 9).remove(0);
        let small = seq("HEAGAWGHEE");
        let mut cache = ProfileCache::new();
        let kept = cache.get_or_build(&small, &m, 8);
        let p = cache.get_or_build(&huge, &m, 8);
        assert_eq!(p.query_len(), huge.len());
        assert_eq!(cache.len(), 1);
        assert!(Arc::ptr_eq(&kept, &cache.get_or_build(&small, &m, 8)));
    }

    #[test]
    fn a_hundred_short_queries_never_evict() {
        // A daemon's working set of 100 distinct 20–60-residue windows
        // (perfbench `service_short`) fits with room to spare.
        let m = SubstitutionMatrix::blosum62();
        let queries = random_queries(100, 60, 8);
        let mut cache = ProfileCache::new();
        let profiles: Vec<_> = queries
            .iter()
            .map(|q| cache.get_or_build(q, &m, 8))
            .collect();
        assert_eq!(cache.len(), 100);
        assert!(cache.bytes < PROFILE_CACHE_BYTES / 16);
        for (q, p) in queries.iter().zip(&profiles) {
            assert!(Arc::ptr_eq(p, &cache.get_or_build(q, &m, 8)));
        }
    }

    #[test]
    fn cache_keys_on_scores_not_matrix_names() {
        // Both matrices are named "uniform"; each must get a profile of
        // its own scores.
        let q = seq("MKWVTFISLLFLFSSAYS");
        let mut cache = ProfileCache::new();
        let strict = SubstitutionMatrix::uniform(5, -4);
        let mild = SubstitutionMatrix::uniform(2, -1);
        assert_eq!(strict.name(), mild.name());
        let a = cache.get_or_build(&q, &strict, 8);
        let b = cache.get_or_build(&q, &mild, 8);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
        assert_eq!(*b, QueryProfile::build(&q, &mild, 8));
        assert!(Arc::ptr_eq(&a, &cache.get_or_build(&q, &strict, 8)));
    }
}
