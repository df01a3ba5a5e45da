//! Inverted-list indexes for the n-ary baseline.
//!
//! The cost model's `E_rel` first term assumes "an inverted list,
//! implemented as an array of [value, tuple-pointer] records" — `C_inv =
//! B/2w` entries per page. We store a value-sorted permutation of row ids;
//! lookups binary-search it (touching log pages) and then scan the
//! qualifying range (touching `sX/C_inv` pages).

use monet::atom::AtomValue;
use monet::column::{Column, ColumnId};
use monet::pager::{HeapKind, Pager};

use crate::exec::cmp_row;
use crate::table::Table;

/// Inverted list over one column of a table.
pub struct InvertedList {
    /// Row ids in ascending value order.
    perm: Vec<u32>,
    /// Heap identity of the [value, rowid] entry array.
    heap: ColumnId,
    /// Bytes per entry (value + pointer — the model's `2w`).
    entry_width: usize,
}

impl InvertedList {
    pub fn build(col: &Column) -> InvertedList {
        InvertedList {
            perm: col.sort_perm(),
            heap: Column::void(0, 0).storage_id(),
            entry_width: col.atom_type().width().max(4) + 4,
        }
    }

    pub fn len(&self) -> usize {
        self.perm.len()
    }

    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    pub fn bytes(&self) -> usize {
        self.perm.len() * self.entry_width
    }

    fn touch_probe(&self, pager: &Pager) {
        let (mut lo, mut hi) = (0usize, self.perm.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            pager.touch_byte(self.heap, HeapKind::Fixed, (mid * self.entry_width) as u64);
            hi = mid;
            let _ = &mut lo;
        }
    }

    fn touch_range(&self, pager: &Pager, start: usize, len: usize) {
        if len > 0 {
            pager.touch_range(
                self.heap,
                HeapKind::Fixed,
                (start * self.entry_width) as u64,
                (len * self.entry_width) as u64,
            );
        }
    }

    /// Row ids whose value is within `[lo, hi]` (inclusive bounds given as
    /// options), in value order. Touches probe + qualifying-range pages.
    pub fn lookup_range(
        &self,
        table: &Table,
        col: usize,
        lo: Option<&AtomValue>,
        hi: Option<&AtomValue>,
        inc_lo: bool,
        inc_hi: bool,
        pager: Option<&Pager>,
    ) -> Vec<u32> {
        let c = table.col(col);
        let cmp_pos = |i: usize, v: &AtomValue| cmp_row(c, self.perm[i] as usize, v);
        let lower = |v: &AtomValue, strict_after: bool| -> usize {
            let (mut l, mut h) = (0usize, self.perm.len());
            while l < h {
                let m = (l + h) / 2;
                let ord = cmp_pos(m, v);
                let go_right = if strict_after { ord.is_le() } else { ord.is_lt() };
                if go_right {
                    l = m + 1;
                } else {
                    h = m;
                }
            }
            l
        };
        if let Some(p) = pager {
            self.touch_probe(p);
        }
        let start = match lo {
            Some(v) => lower(v, !inc_lo),
            None => 0,
        };
        let end = match hi {
            Some(v) => lower(v, inc_hi),
            None => self.perm.len(),
        };
        if start >= end {
            return Vec::new();
        }
        if let Some(p) = pager {
            self.touch_range(p, start, end - start);
        }
        self.perm[start..end].to_vec()
    }

    /// Point lookup.
    pub fn lookup_eq(
        &self,
        table: &Table,
        col: usize,
        v: &AtomValue,
        pager: Option<&Pager>,
    ) -> Vec<u32> {
        self.lookup_range(table, col, Some(v), Some(v), true, true, pager)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                ("k".into(), Column::from_ints(vec![5, 1, 3, 5, 2])),
                ("v".into(), Column::from_strs(["a", "b", "c", "d", "e"])),
            ],
        )
    }

    #[test]
    fn eq_lookup() {
        let t = table();
        let idx = InvertedList::build(t.col(0));
        let rows = idx.lookup_eq(&t, 0, &AtomValue::Int(5), None);
        assert_eq!(rows, vec![0, 3]);
        assert!(idx.lookup_eq(&t, 0, &AtomValue::Int(9), None).is_empty());
    }

    #[test]
    fn range_lookup() {
        let t = table();
        let idx = InvertedList::build(t.col(0));
        let rows = idx.lookup_range(
            &t,
            0,
            Some(&AtomValue::Int(2)),
            Some(&AtomValue::Int(5)),
            true,
            false,
            None,
        );
        assert_eq!(rows, vec![4, 2]);
        let all = idx.lookup_range(&t, 0, None, None, true, true, None);
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn faults_scale_with_selectivity() {
        let big = Table::new("big", vec![("k".into(), Column::from_ints((0..100_000).collect()))]);
        let idx = InvertedList::build(big.col(0));
        let pager = Pager::new(4096);
        let few = idx.lookup_eq(&big, 0, &AtomValue::Int(5), Some(&pager));
        assert_eq!(few.len(), 1);
        let probe_faults = pager.faults();
        pager.reset();
        let many = idx.lookup_range(
            &big,
            0,
            Some(&AtomValue::Int(0)),
            Some(&AtomValue::Int(49_999)),
            true,
            true,
            Some(&pager),
        );
        assert_eq!(many.len(), 50_000);
        assert!(pager.faults() > probe_faults * 5);
    }
}
