//! Chained hash index over one column of a BAT.
//!
//! The `hash-table` heap of Figure 2, built per call: hash join and hash
//! semijoin build one over the right head, multiplex and group alignment
//! over the head they align to. Oid-keyed operators never get here — they
//! address a compact domain by `oid - base` first.

use crate::column::Column;
use crate::typed::TypedVals;

const EMPTY: u32 = u32::MAX;

/// Bucket-chained hash index: `buckets[h & mask]` holds the first position
/// of the chain, `next[pos]` the following one. Collisions are resolved by
/// the caller re-checking value equality (hashes of equal values are equal;
/// distinct values may share a bucket). Chains run in ascending position,
/// so the first match a probe finds is the value's first row.
#[derive(Debug)]
pub struct HashIndex {
    mask: u64,
    buckets: Vec<u32>,
    next: Vec<u32>,
}

impl HashIndex {
    /// Build over all values of the column window. One typed dispatch, then
    /// a monomorphic hash-and-chain loop, last row first: each insert goes
    /// to the chain's front, so the chains come out ascending.
    pub fn build(col: &Column) -> HashIndex {
        let n = col.len();
        let nbuckets = (n.max(1) * 2).next_power_of_two();
        let mask = (nbuckets - 1) as u64;
        let mut buckets = vec![EMPTY; nbuckets];
        let mut next = vec![EMPTY; n];
        crate::for_each_typed!(col, |t| {
            for i in (0..n).rev() {
                let b = (t.hash_one(t.value(i)) & mask) as usize;
                next[i] = buckets[b];
                buckets[b] = i as u32;
            }
        });
        HashIndex { mask, buckets, next }
    }

    /// Iterate candidate positions whose values hash into the same bucket
    /// as `hash`, in ascending position.
    pub fn candidates(&self, hash: u64) -> Candidates<'_> {
        Candidates { next: &self.next, cur: self.buckets[(hash & self.mask) as usize] }
    }

    /// Approximate memory footprint in bytes (for accounting).
    pub fn bytes(&self) -> usize {
        (self.buckets.len() + self.next.len()) * std::mem::size_of::<u32>()
    }
}

/// Iterator over one hash chain.
pub struct Candidates<'a> {
    next: &'a [u32],
    cur: u32,
}

impl Iterator for Candidates<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.cur == EMPTY {
            return None;
        }
        let pos = self.cur as usize;
        self.cur = self.next[pos];
        Some(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hash of row `i`, through the typed view.
    fn hash_of(col: &Column, i: usize) -> u64 {
        crate::for_each_typed!(col, |t| t.hash_one(t.value(i)))
    }

    #[test]
    fn finds_all_duplicates() {
        let col = Column::from_ints(vec![5, 7, 5, 9, 5]);
        let idx = HashIndex::build(&col);
        let h = hash_of(&col, 0);
        let hits: Vec<usize> = idx.candidates(h).filter(|&p| col.int_at(p) == 5).collect();
        assert_eq!(hits, vec![0, 2, 4]);
    }

    #[test]
    fn absent_value_yields_no_verified_hits() {
        let col = Column::from_ints(vec![1, 2, 3]);
        let idx = HashIndex::build(&col);
        let probe = Column::from_ints(vec![42]);
        let hits: Vec<usize> =
            idx.candidates(hash_of(&probe, 0)).filter(|&p| col.get(p) == probe.get(0)).collect();
        assert!(hits.is_empty());
    }

    #[test]
    fn works_on_strings() {
        let col = Column::from_strs(["x", "y", "x", "z"]);
        let idx = HashIndex::build(&col);
        let probe = Column::from_strs(["x"]);
        let hits: Vec<usize> =
            idx.candidates(hash_of(&probe, 0)).filter(|&p| col.get(p) == probe.get(0)).collect();
        assert_eq!(hits, vec![0, 2]);
    }

    #[test]
    fn empty_column() {
        let col = Column::from_ints(vec![]);
        let idx = HashIndex::build(&col);
        assert_eq!(idx.candidates(12345).count(), 0);
    }
}
