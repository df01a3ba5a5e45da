//! Duplicate elimination: `AB.unique = {ab | ab ∈ AB}` as a *set* — the
//! first occurrence of every distinct BUN pair is kept, in operand order.
//!
//! Variants, in dispatch order: `noop` (a key column: all pairs distinct);
//! `memo` — the head is a `group` result whose memoized grouping
//! determines the tail (a nest key: `join(class.mirror, k).unique`), so
//! every group holds one pair and the kept BUNs are the gather at the
//! grouping's representatives, the rows and order the pair numbering
//! would keep; then the pair numbering of
//! [`super::group::number_pairs`] — `packed` (both columns integer-coded
//! with a compact product span: one slot-table load per row) or `hash` —
//! whose first row per group is the kept BUN.

use std::sync::Arc;

use crate::bat::Bat;
use crate::ctx::{ExecCtx, MemoKey, Memoized};
use crate::error::Result;
use crate::pager;
use crate::props::{ColProps, Props};

/// Remove duplicate BUNs.
pub fn unique(ctx: &ExecCtx, ab: &Bat) -> Result<Bat> {
    ctx.probe("op/unique")?;
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, ab.head());
        pager::touch_scan(p, ab.tail());
    }
    let p = ab.props();
    let (result, algo) = if p.head.key || p.tail.key {
        // Either column being duplicate-free means all pairs are distinct.
        (ab.clone(), "noop")
    } else if let Some(reps) = determined_reps(ctx, ab) {
        (build_unique(ab, &reps), "memo")
    } else {
        let (firsts, packed) = super::group::number_pairs(
            ctx,
            (ab.head(), p.head.sorted),
            (ab.tail(), p.tail.sorted),
            |i| i,
            |_| {},
        );
        (build_unique(ab, &firsts), if packed { "packed" } else { "hash" })
    };
    ctx.record("unique", algo, &[ab], &result)?;
    Ok(result)
}

/// The representatives of the memoized grouping of `ab`'s head, when that
/// grouping determines `ab`'s tail.
fn determined_reps(ctx: &ExecCtx, ab: &Bat) -> Option<Arc<Vec<u32>>> {
    match ctx.memo_get(MemoKey::Grouping(ab.head().identity()))? {
        Memoized::Grouping(g) if g.keys.contains(&ab.tail().identity()) => Some(g.reps),
        _ => None,
    }
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
