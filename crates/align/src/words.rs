//! Word codes and word → position tables, shared by the [`crate::blast`]
//! and [`crate::fasta`] scans.

use sapa_bioseq::AminoAcid;

/// The standard-residue words of length `k` in a sequence, as
/// `(start, code)` pairs in ascending start order, where `code` is the
/// base-20 packing of [`crate::fasta::pack`] (and, at `k = 3`, of
/// [`crate::blast::pack_word`]).
///
/// The code rolls one residue at a time: drop the leading residue, then
/// one multiply-add for the new one. A non-standard residue restarts
/// the word after it.
pub(crate) struct Words<'a> {
    residues: &'a [AminoAcid],
    k: usize,
    /// `20^(k-1)`, the weight of a word's leading residue.
    lead: usize,
    /// Next residue to read.
    pos: usize,
    /// Standard residues in a row ending before `pos`, capped at `k`.
    run: usize,
    /// Code of the last `run` residues.
    code: usize,
}

impl<'a> Words<'a> {
    /// The length-`k` words of `residues`; `k` is at least 1.
    pub(crate) fn new(residues: &'a [AminoAcid], k: usize) -> Self {
        Words {
            residues,
            k,
            lead: 20usize.pow(k as u32 - 1),
            pos: 0,
            run: 0,
            code: 0,
        }
    }
}

impl Iterator for Words<'_> {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        while let Some(&aa) = self.residues.get(self.pos) {
            self.pos += 1;
            if !aa.is_standard() {
                self.run = 0;
                self.code = 0;
                continue;
            }
            if self.run == self.k {
                // The leading residue, `k` back, is standard.
                self.code -= self.residues[self.pos - 1 - self.k].index() * self.lead;
            } else {
                self.run += 1;
            }
            self.code = self.code * 20 + aa.index();
            if self.run == self.k {
                return Some((self.pos - self.k, self.code));
            }
        }
        None
    }
}

/// The compressed word → positions table over `table` words: the
/// positions of word `w` are `positions[starts[w]..starts[w + 1]]`.
///
/// `entries` holds `(word, position)` pairs in ascending position
/// order. The table is built in place: count, prefix-sum, then fill
/// from the back, which keeps each word's positions ascending.
pub(crate) fn word_table(table: usize, entries: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    let mut starts = vec![0u32; table + 1];
    for &(word, _) in entries {
        starts[word as usize] += 1;
    }
    // Inclusive prefix sums: `starts[w]` is where word `w` ends.
    let mut end = 0u32;
    for s in &mut starts[..table] {
        end += *s;
        *s = end;
    }
    starts[table] = end;
    // Filling back to front steps each `starts[w]` down to where word
    // `w` begins.
    let mut positions = vec![0u32; entries.len()];
    for &(word, pos) in entries.iter().rev() {
        let slot = &mut starts[word as usize];
        *slot -= 1;
        positions[*slot as usize] = pos;
    }
    (starts, positions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapa_bioseq::Sequence;

    fn seq(s: &str) -> Vec<AminoAcid> {
        Sequence::from_str("t", s).unwrap().residues().to_vec()
    }

    #[test]
    fn rolled_codes_equal_packed_words() {
        // Non-standard residues at the start, the end, in a row and
        // between single standard residues.
        let s = seq("XARNDXCQXXEGHILKXMXFPSTWYVBZAR");
        for k in 1..=3 {
            let rolled: Vec<(usize, usize)> = Words::new(&s, k).collect();
            let packed: Vec<(usize, usize)> = (0..s.len())
                .filter_map(|i| crate::fasta::pack(&s, i, k).map(|w| (i, w)))
                .collect();
            assert_eq!(rolled, packed, "k = {k}");
        }
        assert_eq!(Words::new(&s[..2], 3).count(), 0);
    }

    #[test]
    fn word_table_keeps_positions_ascending() {
        let entries = [(2u32, 0u32), (0, 1), (2, 1), (2, 4), (0, 7)];
        let (starts, positions) = word_table(4, &entries);
        assert_eq!(starts, [0, 2, 2, 5, 5]);
        assert_eq!(positions, [1, 7, 0, 1, 4]);
        assert_eq!(word_table(3, &[]), (vec![0; 4], Vec::new()));
    }
}
