//! Duplicate elimination: `AB.unique = {ab | ab ∈ AB}` as a *set* — the
//! first occurrence of every distinct BUN pair is kept, in operand order.
//!
//! Variants, in dispatch order: `noop` (a key column: all pairs distinct),
//! `merge` (head sorted: duplicates only inside runs), `packed` (serial,
//! both columns integer-coded with a compact product span —
//! [`super::group::packed_domains`]: one slot-table load per row), `hash` /
//! `par-hash`. All run under nested typed dispatch: the (head, tail) type
//! pair is resolved once and the per-row work is fully monomorphic.

use std::time::Instant;

use crate::bat::Bat;
use crate::ctx::ExecCtx;
use crate::error::Result;
use crate::pager;
use crate::props::{ColProps, Props};
use crate::typed::{CodedVals, GroupTable, SlotTable, TypedVals};

/// Remove duplicate BUNs.
pub fn unique(ctx: &ExecCtx, ab: &Bat) -> Result<Bat> {
    ctx.probe("op/unique")?;
    let started = Instant::now();
    let faults0 = ctx.faults();
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
        let (idx, algo) = unique_hash(ctx, ab, super::par_threads(ctx, ab.len()))?;
        (build_unique(ab, &idx), algo)
    };
    ctx.record("unique", algo, started, faults0, &[ab], &result)?;
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
fn unique_hash(ctx: &ExecCtx, ab: &Bat, threads: usize) -> Result<(Vec<u32>, &'static str)> {
    if threads <= 1 {
        let tail_sorted = ab.props().tail.sorted;
        let packed =
            super::group::packed_domains(ctx, (ab.head(), false), (ab.tail(), tail_sorted));
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
            return Ok((idx, "packed"));
        }
    }
    let idx: Vec<u32> = if threads > 1 {
        // Morsel-parallel dedup: every global first occurrence is also a
        // first occurrence within its own morsel, so per-worker tables
        // (scratch-pool backed) shrink each morsel to its local survivors;
        // a serial merge pass re-checks only those against the global
        // table **in morsel order**, which reproduces the serial keep-set
        // and its ascending position order exactly.
        let hc = ab.head().clone();
        let tc = ab.tail().clone();
        let parts: Vec<Vec<u32>> =
            crate::par::try_for_each_morsel(ctx, ab.len(), threads, move |r| {
                crate::for_each_typed!(&hc, |h| {
                    crate::for_each_typed!(&tc, |t| {
                        let mut table = GroupTable::pooled(r.len());
                        let mut kept: Vec<u32> = Vec::new();
                        for i in r.clone() {
                            let hv = h.value(i);
                            let tv = t.value(i);
                            let key = h.hash_one(hv).rotate_left(17) ^ t.hash_one(tv);
                            let (_, inserted) = table.find_or_insert(key, i as u32, |rep| {
                                let k = rep as usize;
                                h.eq_one(h.value(k), hv) && t.eq_one(t.value(k), tv)
                            });
                            if inserted {
                                kept.push(i as u32);
                            }
                        }
                        table.recycle();
                        kept
                    })
                })
            })?;
        crate::for_each_typed!(ab.head(), |h| {
            crate::for_each_typed!(ab.tail(), |t| {
                let candidates: usize = parts.iter().map(Vec::len).sum();
                let mut table = GroupTable::with_capacity(candidates);
                let mut idx: Vec<u32> = Vec::with_capacity(candidates);
                for kept in &parts {
                    for &i in kept {
                        let hv = h.value(i as usize);
                        let tv = t.value(i as usize);
                        let key = h.hash_one(hv).rotate_left(17) ^ t.hash_one(tv);
                        let (_, inserted) = table.find_or_insert(key, i, |rep| {
                            let k = rep as usize;
                            h.eq_one(h.value(k), hv) && t.eq_one(t.value(k), tv)
                        });
                        if inserted {
                            idx.push(i);
                        }
                    }
                }
                idx
            })
        })
    } else {
        crate::for_each_typed!(ab.head(), |h| {
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
        })
    };
    Ok((idx, if threads > 1 { "par-hash" } else { "hash" }))
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
        let ctx = ExecCtx::new().with_trace();
        let b = Bat::with_props(
            Column::from_oids(vec![1, 1, 2, 3, 3, 3]),
            Column::from_ints(vec![9, 9, 9, 7, 8, 7]),
            Props::new(ColProps::SORTED, ColProps::NONE),
        );
        let r = unique(&ctx, &b).unwrap();
        assert_eq!(ctx.take_trace()[0].algo, "merge");
        let pairs: Vec<(u64, i32)> =
            (0..r.len()).map(|i| (r.head().oid_at(i), r.tail().int_at(i))).collect();
        assert_eq!(pairs, vec![(1, 9), (2, 9), (3, 7), (3, 8)]);
        assert!(r.validate().is_ok());
    }

    #[test]
    fn key_column_short_circuits() {
        let ctx = ExecCtx::new().with_trace();
        let b = Bat::with_inferred_props(
            Column::from_oids(vec![1, 2, 3]),
            Column::from_ints(vec![5, 5, 5]),
        );
        let r = unique(&ctx, &b).unwrap();
        assert_eq!(ctx.take_trace()[0].algo, "noop");
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
