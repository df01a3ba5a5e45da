//! Ordering operators: `sort` (on head or tail), `topn`, and `mark`.
//!
//! Sorting is how the load pipeline of Section 6 prepares attribute BATs
//! ("we then reordered all tables on tail values") and how datavectors come
//! to be (Figure 7: project, then sort on tail). `topn` serves the TPC-D
//! top-k reports (Q3's top-10 orders, Q10's top-20 customers); `mark`
//! assigns fresh dense oids to a result set.

use std::time::Instant;

use crate::atom::Oid;
use crate::bat::Bat;
use crate::column::Column;
use crate::ctx::ExecCtx;
use crate::error::Result;
use crate::pager;
use crate::props::{ColProps, Props};

/// Reorder the BAT ascending on tail values (stable).
pub fn sort_tail(ctx: &ExecCtx, ab: &Bat) -> Result<Bat> {
    ctx.probe("op/sort")?;
    let started = Instant::now();
    let faults0 = ctx.faults();
    if ab.props().tail.sorted {
        let r = ab.clone();
        ctx.record("sort", "noop", started, faults0, &[ab], &r)?;
        return Ok(r);
    }
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, ab.head());
        pager::touch_scan(p, ab.tail());
    }
    // Typed direct sort: the (value, position) pairs are sorted on the
    // primitive slice and already yield the sorted tail — only the head
    // needs a gather.
    let (tail, perm) = ab.tail().sort_direct();
    let p = ab.props();
    let result = Bat::with_props(
        ab.head().gather(&perm),
        tail,
        Props::new(
            ColProps { sorted: false, key: p.head.key, dense: false, ..ColProps::NONE },
            ColProps { sorted: true, key: p.tail.key, dense: false, ..ColProps::NONE },
        ),
    );
    ctx.record("sort", "tail", started, faults0, &[ab], &result)?;
    Ok(result)
}

/// Reorder the BAT ascending on head values (stable).
pub fn sort_head(ctx: &ExecCtx, ab: &Bat) -> Result<Bat> {
    Ok(sort_tail(ctx, &ab.mirror())?.mirror())
}

/// Positions of the `n` extreme tails, already in output order. The rank
/// order — value ascending or descending, then operand position ascending —
/// is a *strict* total order, so selection is deterministic and ties come
/// out in operand order either direction (the old `sort_perm` +
/// `perm.reverse()` path reversed equal-value runs). O(len log n) via a
/// bounded heap rooted at the worst kept row; a later equal value never
/// outranks a kept one, so stability falls out of the scan order.
fn topn_perm<V: crate::typed::TypedVals>(t: V, n: usize, descending: bool) -> Vec<u32> {
    use std::cmp::Ordering::{Greater, Less};
    let len = t.len();
    // `outranks(a, b)`: row `a` precedes row `b` in the output.
    let outranks = |a: u32, b: u32| -> bool {
        let c = t.cmp_one(t.value(a as usize), t.value(b as usize));
        match if descending { c.reverse() } else { c } {
            Less => true,
            Greater => false,
            _ => a < b,
        }
    };
    let rank = |&a: &u32, &b: &u32| if outranks(a, b) { Less } else { Greater };
    if n == 0 {
        return Vec::new();
    }
    if n >= len {
        let mut idx: Vec<u32> = (0..len as u32).collect();
        idx.sort_unstable_by(rank);
        return idx;
    }
    let worse = |a: u32, b: u32| outranks(b, a);
    // `heap[0]` is the worst row currently kept.
    let mut heap: Vec<u32> = Vec::with_capacity(n);
    for i in 0..len as u32 {
        if heap.len() < n {
            heap.push(i);
            let mut c = heap.len() - 1;
            while c > 0 && worse(heap[c], heap[(c - 1) / 2]) {
                heap.swap(c, (c - 1) / 2);
                c = (c - 1) / 2;
            }
        } else if outranks(i, heap[0]) {
            heap[0] = i;
            let mut p = 0usize;
            loop {
                let (l, r) = (2 * p + 1, 2 * p + 2);
                let mut m = p;
                if l < n && worse(heap[l], heap[m]) {
                    m = l;
                }
                if r < n && worse(heap[r], heap[m]) {
                    m = r;
                }
                if m == p {
                    break;
                }
                heap.swap(p, m);
                p = m;
            }
        }
    }
    heap.sort_unstable_by(rank);
    heap
}

/// The `n` BUNs with the largest (`descending`) or smallest tails, in that
/// order. Ties broken by operand position (stable).
pub fn topn(ctx: &ExecCtx, ab: &Bat, n: usize, descending: bool) -> Result<Bat> {
    ctx.probe("op/topn")?;
    let started = Instant::now();
    let faults0 = ctx.faults();
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, ab.tail());
    }
    let perm = crate::for_each_typed!(ab.tail(), |t| topn_perm(t, n, descending));
    if let Some(p) = ctx.pager.as_deref() {
        // The result gathers *both* columns at the kept positions; fetch
        // accounting must cover the tail too (as `sort_tail` scans both).
        for &i in &perm {
            pager::touch_fetch(p, ab.head(), i as usize);
            pager::touch_fetch(p, ab.tail(), i as usize);
        }
    }
    let p = ab.props();
    let result = Bat::with_props(
        ab.head().gather(&perm),
        ab.tail().gather(&perm),
        Props::new(
            ColProps { sorted: false, key: p.head.key, dense: false, ..ColProps::NONE },
            ColProps { sorted: !descending, key: p.tail.key, dense: false, ..ColProps::NONE },
        ),
    );
    ctx.record("topn", if descending { "desc" } else { "asc" }, started, faults0, &[ab], &result)?;
    Ok(result)
}

/// `mark`: replace the tail with a fresh dense oid sequence, one per BUN.
/// The head column is shared, so the result is synced with the operand.
pub fn mark(ctx: &ExecCtx, ab: &Bat, base: Option<Oid>) -> Result<Bat> {
    ctx.probe("op/mark")?;
    let started = Instant::now();
    let faults0 = ctx.faults();
    let seq = base.unwrap_or_else(|| ctx.fresh_oids(ab.len()));
    let result = Bat::with_props(
        ab.head().clone(),
        Column::void(seq, ab.len()),
        Props::new(ab.props().head, ColProps::DENSE),
    );
    ctx.record("mark", "void", started, faults0, &[ab], &result)?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unsorted() -> Bat {
        Bat::new(Column::from_oids(vec![1, 2, 3, 4]), Column::from_ints(vec![30, 10, 40, 20]))
    }

    #[test]
    fn sort_tail_orders_and_flags() {
        let ctx = ExecCtx::new();
        let r = sort_tail(&ctx, &unsorted()).unwrap();
        assert_eq!(r.tail().as_int_slice().unwrap(), &[10, 20, 30, 40]);
        assert_eq!(r.head().as_oid_slice().unwrap(), &[2, 4, 1, 3]);
        assert!(r.props().tail.sorted);
        assert!(r.validate().is_ok());
    }

    #[test]
    fn sort_noop_when_already_sorted() {
        let ctx = ExecCtx::new().with_trace();
        let b =
            Bat::with_inferred_props(Column::from_oids(vec![1, 2]), Column::from_ints(vec![1, 2]));
        let _ = sort_tail(&ctx, &b).unwrap();
        assert_eq!(ctx.take_trace()[0].algo, "noop");
    }

    #[test]
    fn sort_head_via_mirror() {
        let ctx = ExecCtx::new();
        let b = Bat::new(Column::from_oids(vec![3, 1, 2]), Column::from_ints(vec![30, 10, 20]));
        let r = sort_head(&ctx, &b).unwrap();
        assert_eq!(r.head().as_oid_slice().unwrap(), &[1, 2, 3]);
        assert_eq!(r.tail().as_int_slice().unwrap(), &[10, 20, 30]);
        assert!(r.props().head.sorted);
    }

    #[test]
    fn topn_desc() {
        let ctx = ExecCtx::new();
        let r = topn(&ctx, &unsorted(), 2, true).unwrap();
        assert_eq!(r.tail().as_int_slice().unwrap(), &[40, 30]);
        assert_eq!(r.head().as_oid_slice().unwrap(), &[3, 1]);
    }

    #[test]
    fn topn_desc_ties_keep_operand_order() {
        // Regression: the old `sort_perm()` + `perm.reverse()` path also
        // reversed equal-value runs, emitting Q3/Q10-style top-k ties in
        // reverse operand order. Duplicate tails must keep head order.
        let ctx = ExecCtx::new();
        let b = Bat::new(
            Column::from_oids(vec![1, 2, 3, 4, 5, 6]),
            Column::from_ints(vec![40, 70, 40, 70, 70, 10]),
        );
        let r = topn(&ctx, &b, 4, true).unwrap();
        assert_eq!(r.tail().as_int_slice().unwrap(), &[70, 70, 70, 40]);
        // Ties at 70: operand positions 2, 4, 5 → heads 2, 4, 5 in order.
        assert_eq!(r.head().as_oid_slice().unwrap(), &[2, 4, 5, 1]);
        // The tie on the cut boundary keeps the earlier operand too.
        let r = topn(&ctx, &b, 2, true).unwrap();
        assert_eq!(r.head().as_oid_slice().unwrap(), &[2, 4]);
        // Ascending ties likewise stay in operand order.
        let r = topn(&ctx, &b, 3, false).unwrap();
        assert_eq!(r.tail().as_int_slice().unwrap(), &[10, 40, 40]);
        assert_eq!(r.head().as_oid_slice().unwrap(), &[6, 1, 3]);
    }

    #[test]
    fn topn_accounts_fetches_of_both_columns() {
        // Regression: the pager trace only counted head fetches, though the
        // result gathers the tail at the same positions.
        use crate::pager::Pager;
        let ctx = ExecCtx::new().with_pager(std::sync::Arc::new(Pager::new(8)));
        let b =
            Bat::new(Column::from_oids(vec![1, 2, 3, 4]), Column::from_ints(vec![30, 10, 40, 20]));
        let p = ctx.pager.as_deref().unwrap();
        topn(&ctx, &b, 2, true).unwrap();
        // 8-byte pages: the tail scan touches all 4 int pages (2 ints each
        // = 2 pages), the kept fetches touch head pages (8B oids, 1/page)
        // *and* re-touch resident tail pages.
        let head_pages = 2; // kept rows 2 (oid 3) and 0 (oid 1) on distinct pages
        let tail_scan_pages = 2;
        assert_eq!(p.faults(), head_pages + tail_scan_pages);
        // Touches prove the tail fetches are recorded: scan 2 + 2 per kept
        // row (head + tail).
        assert_eq!(p.touches(), tail_scan_pages + 2 * 2);
    }

    #[test]
    fn topn_asc_and_overlong() {
        let ctx = ExecCtx::new();
        let r = topn(&ctx, &unsorted(), 99, false).unwrap();
        assert_eq!(r.len(), 4);
        assert!(r.props().tail.sorted);
    }

    #[test]
    fn mark_is_synced_and_dense() {
        let ctx = ExecCtx::new();
        let b = unsorted();
        let r = mark(&ctx, &b, None).unwrap();
        assert!(r.synced(&b));
        assert!(r.props().tail.dense);
        assert_eq!(r.tail().oid_at(1), r.tail().oid_at(0) + 1);
        let r2 = mark(&ctx, &b, Some(500)).unwrap();
        assert_eq!(r2.tail().oid_at(0), 500);
    }
}
