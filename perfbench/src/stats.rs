//! Order statistics and output digests shared by every workload.

/// Percentiles `tail_ms` may report, in per-mille, highest first.
const TAIL_LADDER: [u32; 9] = [999, 995, 990, 980, 950, 900, 800, 750, 500];

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of the `permille` percentile among `n`
/// sorted samples.
pub fn rank_index(n: usize, permille: u32) -> usize {
    let rank = (n * permille as usize).div_ceil(1000).max(1);
    rank - 1
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] of `n`
/// samples strictly above its nearest rank, as `(per-mille, index)`;
/// `None` when even the median has fewer than that beyond it.
pub fn tail_rank(n: usize) -> Option<(u32, usize)> {
    TAIL_LADDER.into_iter().find_map(|p| {
        let idx = rank_index(n, p);
        (n - idx > MIN_BEYOND).then_some((p, idx))
    })
}

/// Median of ascending `sorted` (mean of the middle pair for even
/// lengths); `NaN` when empty.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Ascending copy of `values`.
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// 64-bit FNV-1a, the digest the benchmark records for every op output
/// and commits for its reference seed.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes raw bytes in.
    pub fn bytes(mut self, data: &[u8]) -> Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes one integer in (little-endian bytes).
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a ranked `(subject index, score)` list.
pub fn hits_digest(hits: &[(usize, i32)]) -> u64 {
    hits.iter()
        .fold(Digest::default().u64(hits.len() as u64), |d, &(i, s)| {
            d.u64(i as u64).u64(s as u32 as u64)
        })
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        for n in 20..5_000 {
            let (p, idx) = tail_rank(n).expect("n >= 20 always has a median tail");
            assert!(n - idx > MIN_BEYOND, "n={n} p={p}");
            // No higher ladder step would also qualify.
            if let Some(&higher) = TAIL_LADDER.iter().rev().find(|&&q| q > p) {
                assert!(n - rank_index(n, higher) <= MIN_BEYOND, "n={n}");
            }
        }
        assert_eq!(tail_rank(19), None);
        assert_eq!(tail_rank(100), Some((900, 89)));
        assert_eq!(tail_rank(400), Some((950, 379)));
        assert_eq!(tail_rank(20_000), Some((999, 19_979)));
        assert_eq!(tail_rank(5_000), Some((995, 4_974)));
    }

    #[test]
    fn median_handles_both_parities() {
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&sorted([4.0, 1.0, 3.0])), 3.0);
        assert_eq!(median(&sorted([4.0, 1.0, 3.0, 2.0])), 2.5);
    }

    #[test]
    fn digest_is_fnv1a_and_order_sensitive() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Digest::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(
            Digest::default().bytes(b"a").finish(),
            0xaf63_dc4c_8601_ec8c
        );
        assert_eq!(
            Digest::default().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
        let a = hits_digest(&[(1, 50), (2, 40)]);
        assert_eq!(a, hits_digest(&[(1, 50), (2, 40)]));
        assert_ne!(a, hits_digest(&[(2, 40), (1, 50)]));
        assert_ne!(a, hits_digest(&[(1, 50)]));
        assert_ne!(hits_digest(&[]), hits_digest(&[(0, 0)]));
    }
}
