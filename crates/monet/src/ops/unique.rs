//! Duplicate elimination: `AB.unique = {ab | ab ∈ AB}` as a *set* — the
//! first occurrence of every distinct BUN pair is kept, in operand order.
//!
//! Variants, in dispatch order: `noop` (a key column: all pairs distinct),
//! `merge` (head sorted: duplicates only inside runs), `packed` (both
//! columns integer-coded with a compact product span —
//! [`super::group::packed_domains`]: one slot-table load per row), `hash`.
//! All run under nested typed dispatch: the (head, tail) type pair is
//! resolved once and the per-row work is fully monomorphic.

use crate::bat::Bat;
use crate::ctx::ExecCtx;
use crate::error::Result;
use crate::pager;
use crate::props::{ColProps, Props};
use crate::typed::{CodedVals, GroupTable, SlotTable, TypedVals};

/// Remove duplicate BUNs.
pub fn unique(ctx: &ExecCtx, ab: &Bat) -> Result<Bat> {
    ctx.probe("op/unique")?;
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, ab.head());
        pager::touch_scan(p, ab.tail());
    }
    let (result, algo) = if ab.props().head.key || ab.props().tail.key {
        // Either column being duplicate-free means all pairs are distinct.
        (ab.clone(), "noop")
    } else if ab.props().head.sorted {
        (unique_grouped(ab), "merge")
    } else {
        let (idx, algo) = unique_hash(ctx, ab);
        (build_unique(ab, &idx), algo)
    };
    ctx.record("unique", algo, &[ab], &result)?;
    Ok(result)
}

/// Head sorted: duplicates can only occur inside runs of equal heads. Keep
/// a per-run list of distinct tails (runs have few distinct values in the
/// nest/group plans this op serves).
fn unique_grouped(ab: &Bat) -> Bat {
    let idx: Vec<u32> = crate::for_each_typed!(ab.head(), |h| {
        crate::for_each_typed!(ab.tail(), |t| {
            let mut idx: Vec<u32> = Vec::with_capacity(ab.len());
            let mut kept_in_run: Vec<u32> = Vec::new();
            for i in 0..h.len() {
                if i > 0 && !h.eq_one(h.value(i), h.value(i - 1)) {
                    kept_in_run.clear();
                }
                let tv = t.value(i);
                if !kept_in_run.iter().any(|&k| t.eq_one(t.value(k as usize), tv)) {
                    kept_in_run.push(i as u32);
                    idx.push(i as u32);
                }
            }
            idx
        })
    });
    build_unique(ab, &idx)
}

/// Positions of the first occurrence of every distinct pair, ascending.
fn unique_hash(ctx: &ExecCtx, ab: &Bat) -> (Vec<u32>, &'static str) {
    let tail_sorted = ab.props().tail.sorted;
    let packed = super::group::packed_domains(ctx, (ab.head(), false), (ab.tail(), tail_sorted));
    if let Some((hdom, tdom)) = packed {
        let idx = crate::for_each_coded!(ab.head(), |hc| {
            crate::for_each_coded!(ab.tail(), |tc| {
                let mut table = SlotTable::pooled(hdom.span * tdom.span);
                let mut idx: Vec<u32> = Vec::new();
                for i in 0..ab.len() {
                    let h = (hc.code(i) - hdom.base) as usize;
                    let t = (tc.code(i) - tdom.base) as usize;
                    if table.find_or_insert(h * tdom.span + t).1 {
                        idx.push(i as u32);
                    }
                }
                table.recycle();
                idx
            })
        })
        .flatten()
        .expect("covering domains imply integer codes");
        return (idx, "packed");
    }
    let idx = crate::for_each_typed!(ab.head(), |h| {
        crate::for_each_typed!(ab.tail(), |t| {
            // Pair-hash chains; equality only on full-hash matches.
            let mut table = GroupTable::with_capacity(ab.len());
            let mut idx: Vec<u32> = Vec::with_capacity(ab.len());
            for i in 0..h.len() {
                let hv = h.value(i);
                let tv = t.value(i);
                let key = h.hash_one(hv).rotate_left(17) ^ t.hash_one(tv);
                let (_, inserted) = table.find_or_insert(key, i as u32, |rep| {
                    let k = rep as usize;
                    h.eq_one(h.value(k), hv) && t.eq_one(t.value(k), tv)
                });
                if inserted {
                    idx.push(i as u32);
                }
            }
            idx
        })
    });
    (idx, "hash")
}

fn build_unique(ab: &Bat, idx: &[u32]) -> Bat {
    let p = ab.props();
    let props = Props::new(
        ColProps { sorted: p.head.sorted, key: p.head.key, dense: false, ..ColProps::NONE },
        ColProps { sorted: p.tail.sorted, key: p.tail.key, dense: false, ..ColProps::NONE },
    );
    Bat::with_props(ab.head().gather(idx), ab.tail().gather(idx), props)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    #[test]
    fn removes_duplicate_pairs_keeps_distinct_tails() {
        let ctx = ExecCtx::new();
        let b = Bat::new(
            Column::from_oids(vec![1, 1, 1, 2, 2]),
            Column::from_ints(vec![5, 5, 6, 5, 5]),
        );
        let r = unique(&ctx, &b).unwrap();
        let pairs: Vec<(u64, i32)> =
            (0..r.len()).map(|i| (r.head().oid_at(i), r.tail().int_at(i))).collect();
        assert_eq!(pairs, vec![(1, 5), (1, 6), (2, 5)]);
    }

    #[test]
    fn merge_variant_on_sorted_head() {
        let ctx = ExecCtx::new();
        let b = Bat::with_props(
            Column::from_oids(vec![1, 1, 2, 3, 3, 3]),
            Column::from_ints(vec![9, 9, 9, 7, 8, 7]),
            Props::new(ColProps::SORTED, ColProps::NONE),
        );
        let r = unique(&ctx, &b).unwrap();
        assert_eq!(ctx.take_algo(), "merge");
        let pairs: Vec<(u64, i32)> =
            (0..r.len()).map(|i| (r.head().oid_at(i), r.tail().int_at(i))).collect();
        assert_eq!(pairs, vec![(1, 9), (2, 9), (3, 7), (3, 8)]);
        assert!(r.validate().is_ok());
    }

    #[test]
    fn key_column_short_circuits() {
        let ctx = ExecCtx::new();
        let b = Bat::with_inferred_props(
            Column::from_oids(vec![1, 2, 3]),
            Column::from_ints(vec![5, 5, 5]),
        );
        let r = unique(&ctx, &b).unwrap();
        assert_eq!(ctx.take_algo(), "noop");
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn empty() {
        let ctx = ExecCtx::new();
        let b = Bat::new(Column::from_oids(vec![]), Column::from_ints(vec![]));
        assert_eq!(unique(&ctx, &b).unwrap().len(), 0);
    }

    #[test]
    fn string_pairs() {
        let ctx = ExecCtx::new();
        let b = Bat::new(Column::from_strs(["x", "x", "y"]), Column::from_strs(["1", "1", "1"]));
        let r = unique(&ctx, &b).unwrap();
        assert_eq!(r.len(), 2);
    }
}
