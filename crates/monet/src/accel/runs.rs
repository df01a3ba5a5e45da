//! The run index over a sorted oid column.
//!
//! The load reorders every attribute BAT on its tail (Section 6), so a
//! reference attribute — `Item_order`, `Order_cust`, a set index — has a
//! sorted oid tail: the rows holding one referenced oid form one run. The
//! run index addresses those runs by value, as a dense head addresses its
//! rows by position: `first[v - base]` is the first row of value `v`, and
//! `first[v - base + 1]` the row after its run, so the rows of `v` are one
//! slice and finding them is one load, never a search.
//!
//! It describes a *column*, not an orientation: the BAT that carries it
//! keeps it through `mirror` (where the column becomes the head), and an
//! operator arm checks [`RunIndex::describes`] against the column it would
//! address before trusting it. It is built once, where the catalog attaches
//! its accelerators (the loader and `store` open, which rebuilds it from
//! the mapped column; it is not part of the store format).

use std::ops::Range;

use crate::column::{Column, ColumnIdentity};
use crate::typed::OidDomain;

/// `first[v - base]` for every value of a sorted oid column's span, plus
/// one past the last.
#[derive(Debug)]
pub struct RunIndex {
    column: ColumnIdentity,
    base: u64,
    first: Vec<u32>,
}

impl RunIndex {
    /// Index a sorted oid column: one pass over the column and the span.
    /// `None` when the column holds no materialized oids, is empty, is
    /// not ascending after all, has more rows than a `u32` position
    /// addresses, or spans more than
    /// [`crate::costmodel::domain_is_compact`] allows for its rows.
    pub fn build(col: &Column) -> Option<RunIndex> {
        let oids = col.as_oid_slice()?;
        let (&lo, &hi) = (oids.first()?, oids.last()?);
        let span = usize::try_from(hi.checked_sub(lo)?).ok()?.checked_add(1)?;
        if u32::try_from(oids.len()).is_err()
            || !crate::costmodel::domain_is_compact(span, 0, oids.len())
        {
            return None;
        }
        let mut first = Vec::with_capacity(span + 1);
        let mut prev = lo;
        first.push(0);
        for (i, &v) in oids.iter().enumerate() {
            // A value past the last means the column is not ascending after
            // all; bounding it by `hi` keeps the index at `span + 1` slots.
            if v < prev || v > hi {
                return None;
            }
            // Values `prev + 1 ..= v` start here (those in between are empty
            // runs).
            first.resize(first.len() + (v - prev) as usize, i as u32);
            prev = v;
        }
        first.push(oids.len() as u32);
        Some(RunIndex { column: col.identity(), base: lo, first })
    }

    /// Whether this index describes `col` (the same column view).
    pub fn describes(&self, col: &Column) -> bool {
        col.identity() == self.column
    }

    /// The indexed values: `slot(v)` is the run number of value `v`.
    pub fn domain(&self) -> OidDomain {
        OidDomain { base: self.base, span: self.first.len() - 1 }
    }

    /// The rows of the value in slot `k` of [`RunIndex::domain`]: empty
    /// when the column lacks it.
    #[inline(always)]
    pub fn run(&self, k: usize) -> Range<usize> {
        self.first[k] as usize..self.first[k + 1] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(idx: &RunIndex) -> Vec<(u64, Range<usize>)> {
        let dom = idx.domain();
        (0..dom.span).map(|k| (dom.base + k as u64, idx.run(k))).collect()
    }

    #[test]
    fn runs_cover_repeated_empty_and_single_values() {
        let col = Column::from_oids(vec![3, 3, 3, 5, 6, 6, 9]);
        let idx = RunIndex::build(&col).unwrap();
        assert_eq!(
            runs(&idx),
            [(3, 0..3), (4, 3..3), (5, 3..4), (6, 4..6), (7, 6..6), (8, 6..6), (9, 6..7)]
        );
        assert!(idx.describes(&col));
        assert!(!idx.describes(&col.slice(1, 6)));
        assert!(!idx.describes(&Column::from_oids(vec![3, 3, 3, 5, 6, 6, 9])));
    }

    #[test]
    fn only_materialized_ascending_compact_oids_are_indexed() {
        assert!(RunIndex::build(&Column::from_oids(vec![])).is_none());
        assert!(RunIndex::build(&Column::from_oids(vec![4, 2])).is_none());
        assert!(RunIndex::build(&Column::from_oids(vec![0, 1 << 40, 3])).is_none());
        assert!(RunIndex::build(&Column::void(0, 10)).is_none());
        assert!(RunIndex::build(&Column::from_ints(vec![1, 2])).is_none());
        assert!(RunIndex::build(&Column::from_oids(vec![0, 1 << 40])).is_none());
        let one = RunIndex::build(&Column::from_oids(vec![7])).unwrap();
        assert_eq!(runs(&one), [(7, 0..1)]);
    }
}
