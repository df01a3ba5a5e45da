//! Grouping: `AB.group` and `AB.group(CD)` of Figure 4.
//!
//! The `group` operation introduces new oids for uniquely occurring values
//! in a BAT column: `{a·o_b | ab ∈ AB ∧ o_b = unique_oid(b)}`. Groupings on
//! one attribute use the unary version; multi-attribute groupings follow up
//! with binary `group` invocations until all attributes are processed —
//! this is how SQL `GROUP BY` and MOA `nest` are implemented.
//!
//! Group ids are dense and assigned in order of first appearance by every
//! variant, so all are bit-identical to [`super::reference`]. Unary
//! grouping ([`group1`], and the `{g}` head grouping of
//! [`super::set_aggregate`], which shares [`hash_group_column`]) picks, in
//! this order:
//!
//! * `direct` — an integer-coded column (oid, `chr`, int, date,
//!   dictionary codes) whose key span is compact
//!   ([`crate::costmodel::group_prefers_direct`]): a pooled
//!   [`SlotTable`] addressed by `code - base`, one load per row — no hash,
//!   no chain, no value compare;
//! * `spill` — the hash table would not fit the budget headroom, or
//!   `spill_force` is configured: the rows are hash-partitioned into a
//!   spill file through the spilling join's partition pass
//!   ([`crate::spill::Partitions`]) and grouped one cluster at a time;
//! * `hash` — the presized bucket-chained [`GroupTable`] inside a
//!   monomorphized typed loop.
//!
//! Binary grouping ([`group2`]) first aligns the operands (`sync` when
//! they share their head column, `hash-align` otherwise) and then numbers
//! the `(b, d)` pairs with [`number_pairs`], which [`super::unique`]
//! shares: `packed` / `packed-align` when both tails are integer-coded and
//! the *product* of their spans is compact ([`packed_domains`]: one slot
//! per `slot_b * span_d + slot_d`), the pair-hashed [`GroupTable`]
//! otherwise.

use crate::atom::Oid;
use crate::bat::Bat;
use crate::column::Column;
use crate::ctx::ExecCtx;
use crate::error::{MonetError, Result};
use crate::pager;
use crate::props::{ColProps, Props};
use crate::typed::{CodedVals, GroupTable, OidDomain, SlotTable, TypedVals};
use std::sync::Arc;

/// A first-occurrence grouping of one column: the group of every row and
/// one representative row per group. Shared, because the per-execution
/// memo hands one grouping to every `{g}` over the same head column.
#[derive(Debug, Clone)]
pub(crate) struct Grouping {
    pub gid_of: Arc<Vec<u32>>,
    pub reps: Arc<Vec<u32>>,
}

/// First-occurrence grouping of one column: `(gid per row, one
/// representative row per group)`, gids dense in order of first
/// appearance. This is the shared core of `group1` and of
/// `set_aggregate`'s head grouping; see the module docs for the variants.
/// `sorted` is the column's property: it bounds the key domain in O(1).
pub(crate) fn hash_group_column(
    ctx: &ExecCtx,
    col: &Column,
    sorted: bool,
) -> Result<(Vec<u32>, Vec<u32>, &'static str)> {
    let n = col.len();
    let dom = OidDomain::covering(col, sorted)
        .filter(|d| crate::costmodel::group_prefers_direct(ctx, d.span, n));
    if let Some(dom) = dom {
        let (gid_of, reps) = direct_group_column(col, dom);
        return Ok((gid_of, reps, "direct"));
    }
    if crate::costmodel::group_prefers_spill(ctx, n) {
        // Out-of-core partition-then-process shape (see the function
        // docs): resource decision only, the numbering is identical.
        return spill_group_column(ctx, col);
    }
    Ok(crate::for_each_typed!(col, |t| {
        let mut table = GroupTable::with_capacity(n);
        let mut gid_of: Vec<u32> = Vec::with_capacity(n);
        for i in 0..n {
            let v = t.value(i);
            let h = t.hash_one(v);
            let (g, _) =
                table.find_or_insert(h, i as u32, |rep| t.eq_one(t.value(rep as usize), v));
            gid_of.push(g);
        }
        (gid_of, table.reps().to_vec(), "hash")
    }))
}

/// Out-of-core first-occurrence grouping: one partition pass
/// hash-clusters the rows into a spill file
/// ([`crate::spill::Partitions`], the radix join's sink), each cluster is
/// read back and grouped alone with a cluster-sized [`GroupTable`], and
/// the per-cluster provisional gids are renumbered globally. Only one
/// cluster's table is ever resident, so the transient working set is
/// bounded by the largest cluster.
///
/// The renumbering reproduces the serial first-occurrence numbering
/// exactly: all rows of a value hash to the same cluster, so groups are
/// disjoint across clusters and each provisional representative (the
/// first row of its value within the cluster, in ascending row order
/// preserved by the stable clustering) is the value's globally first
/// row. Sorting the representatives by row position therefore ranks the
/// groups in order of first appearance.
fn spill_group_column(ctx: &ExecCtx, col: &Column) -> Result<(Vec<u32>, Vec<u32>, &'static str)> {
    let n = col.len();
    let bits = crate::typed::radix_bits(n);
    let mut gid_of: Vec<u32> = vec![0; n];
    // Representative row per provisional (cluster-local, then offset)
    // group id, appended cluster by cluster.
    let mut prov_reps: Vec<u32> = Vec::new();
    let r: Result<()> = crate::for_each_typed!(col, |t| {
        let parts = crate::spill::Partitions::build(ctx, t, bits, |_| true)?;
        let mut buf: Vec<u64> = Vec::new();
        for c in 0..parts.num_clusters() {
            if parts.cluster_len(c) == 0 {
                continue;
            }
            let pairs = parts.cluster(&ctx.gov, c, &mut buf)?;
            let base = prov_reps.len() as u32;
            let mut table = GroupTable::pooled(pairs.len());
            for &p in pairs {
                let i = crate::typed::pair_pos(p) as usize;
                let v = t.value(i);
                let h = t.hash_one(v);
                let (g, _) =
                    table.find_or_insert(h, i as u32, |rep| t.eq_one(t.value(rep as usize), v));
                gid_of[i] = base + g;
            }
            prov_reps.extend_from_slice(table.reps());
            table.recycle();
        }
        Ok(())
    });
    r?;
    let mut order: Vec<u32> = (0..prov_reps.len() as u32).collect();
    order.sort_unstable_by_key(|&g| prov_reps[g as usize]);
    let mut new_gid: Vec<u32> = vec![0; order.len()];
    let mut reps: Vec<u32> = Vec::with_capacity(order.len());
    for (rank, &g) in order.iter().enumerate() {
        new_gid[g as usize] = rank as u32;
        reps.push(prov_reps[g as usize]);
    }
    for g in gid_of.iter_mut() {
        *g = new_gid[*g as usize];
    }
    Ok((gid_of, reps, "spill"))
}

/// First-occurrence grouping by direct addressing: every code of `col`
/// lies in `dom`, so `code - base` indexes a [`SlotTable`] of group ids.
/// The table comes from the scratch pool; there is no abort point between
/// checkout and return.
fn direct_group_column(col: &Column, dom: OidDomain) -> (Vec<u32>, Vec<u32>) {
    let mut table = SlotTable::pooled(dom.span);
    let mut reps: Vec<u32> = Vec::new();
    let gid_of: Vec<u32> = crate::for_each_coded!(col, |c| {
        (0..col.len())
            .map(|i| {
                let (g, inserted) = table.find_or_insert((c.code(i) - dom.base) as usize);
                if inserted {
                    reps.push(i as u32);
                }
                g
            })
            .collect()
    })
    .expect("a covering domain implies integer codes");
    table.recycle();
    (gid_of, reps)
}

/// The compact domains of a key *pair*, when the `packed` arm of
/// [`number_pairs`] applies: both columns integer-coded and the product of
/// their spans accepted by [`crate::costmodel::group_prefers_packed`] for
/// `a.len()` rows. The pair `(x, y)` then lives in slot
/// `slot_a(x) * span_b + slot_b(y)`.
fn packed_domains(
    ctx: &ExecCtx,
    (a, a_sorted): (&Column, bool),
    (b, b_sorted): (&Column, bool),
) -> Option<(OidDomain, OidDomain)> {
    let fits = |span: usize| crate::costmodel::group_prefers_packed(ctx, span, a.len());
    // A first span that is too wide on its own saves the second pass.
    let da = OidDomain::covering(a, a_sorted).filter(|d| fits(d.span))?;
    let db = OidDomain::covering(b, b_sorted)?;
    fits(da.span.checked_mul(db.span)?).then_some((da, db))
}

/// First-occurrence numbering of the pairs `(a[i], b[at(i)])` over the
/// rows `i` of `a`: `group_of` receives the group of every row, in row
/// order, and the result is the first row of every group (ascending, since
/// groups are numbered as they appear) and whether the `packed` arm ran —
/// a pooled [`SlotTable`] over the product domain of [`packed_domains`];
/// the pair-hashed [`GroupTable`] otherwise. The one pair numbering behind
/// pair grouping ([`group2`]) and pair dedup ([`super::unique`]); the
/// `sorted` flags bound the domains in O(1).
pub(crate) fn number_pairs(
    ctx: &ExecCtx,
    (a, a_sorted): (&Column, bool),
    (b, b_sorted): (&Column, bool),
    at: impl Fn(usize) -> usize,
    mut group_of: impl FnMut(u32),
) -> (Vec<u32>, bool) {
    let n = a.len();
    let mut firsts: Vec<u32> = Vec::new();
    if let Some((da, db)) = packed_domains(ctx, (a, a_sorted), (b, b_sorted)) {
        crate::for_each_coded!(a, |ac| {
            crate::for_each_coded!(b, |bc| {
                let mut table = SlotTable::pooled(da.span * db.span);
                for i in 0..n {
                    let x = (ac.code(i) - da.base) as usize;
                    let y = (bc.code(at(i)) - db.base) as usize;
                    let (g, inserted) = table.find_or_insert(x * db.span + y);
                    if inserted {
                        firsts.push(i as u32);
                    }
                    group_of(g);
                }
                table.recycle();
            })
        })
        .flatten()
        .expect("covering domains imply integer codes");
        return (firsts, true);
    }
    // Nested typed dispatch monomorphizes the loop for every type pair.
    crate::for_each_typed!(a, |ta| {
        crate::for_each_typed!(b, |tb| {
            let mut table = GroupTable::with_capacity(n);
            for i in 0..n {
                let av = ta.value(i);
                let bv = tb.value(at(i));
                let h = ta.hash_one(av).rotate_left(23) ^ tb.hash_one(bv);
                let (g, _) = table.find_or_insert(h, i as u32, |rep| {
                    let k = rep as usize;
                    ta.eq_one(ta.value(k), av) && tb.eq_one(tb.value(at(k)), bv)
                });
                group_of(g);
            }
            firsts.extend_from_slice(table.reps());
        })
    });
    (firsts, false)
}

/// Unary group: one new oid per distinct tail value. Group oids are dense,
/// assigned in order of first appearance (value order, when the tail is
/// sorted). The result head *shares* the operand's head column, so it is
/// synced with the operand.
pub fn group1(ctx: &ExecCtx, ab: &Bat) -> Result<Bat> {
    ctx.probe("op/group")?;
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, ab.tail());
    }
    let sorted = ab.props().tail.sorted;
    let (gid_of, reps, algo) = hash_group_column(ctx, ab.tail(), sorted)?;
    let base = ctx.fresh_oids(reps.len());
    let gids: Vec<Oid> = gid_of.iter().map(|&g| base + g as Oid).collect();
    let result = Bat::with_props(
        ab.head().clone(),
        Column::from_oids(gids),
        Props::new(
            ab.props().head,
            ColProps { sorted, key: false, dense: false, ..ColProps::NONE },
        ),
    );
    ctx.record("group", algo, &[ab], &result)?;
    Ok(result)
}

/// Binary (refining) group: `{a·o_bd | ab ∈ AB ∧ cd ∈ CD ∧ a = c ∧
/// o_bd = unique_oid(b, d)}`. `AB` is typically the group BAT of a previous
/// `group` and `CD` the next grouping attribute. The fast path requires the
/// operands to be synced; otherwise `CD` must have a key head and is
/// aligned by hash.
pub fn group2(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Result<Bat> {
    ctx.probe("op/group")?;
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, ab.tail());
        pager::touch_scan(p, cd.tail());
    }
    // Align: position i of AB corresponds to position `at(i)` of CD — i
    // itself when the operands are synced.
    let align: Option<Vec<u32>> = if ab.synced(cd) { None } else { Some(hash_align(ab, cd)?) };
    let mut gids: Vec<Oid> = Vec::with_capacity(ab.len());
    let (firsts, packed) = number_pairs(
        ctx,
        (ab.tail(), ab.props().tail.sorted),
        (cd.tail(), cd.props().tail.sorted),
        |i| align.as_ref().map_or(i, |a| a[i] as usize),
        |g| gids.push(g as Oid),
    );
    let base = ctx.fresh_oids(firsts.len());
    for g in &mut gids {
        *g += base;
    }
    let algo = match (packed, align.is_some()) {
        (true, false) => "packed",
        (true, true) => "packed-align",
        (false, false) => "sync",
        (false, true) => "hash-align",
    };
    let result = Bat::with_props(
        ab.head().clone(),
        Column::from_oids(gids),
        Props::new(ab.props().head, ColProps::NONE),
    );
    ctx.record("group", algo, &[ab, cd], &result)?;
    Ok(result)
}

/// For every head of `ab`, the position of its first counterpart in `cd`
/// (whose head must hold each of them), by hash.
fn hash_align(ab: &Bat, cd: &Bat) -> Result<Vec<u32>> {
    let idx = crate::accel::hash::HashIndex::build(cd.head());
    let align: std::result::Result<Vec<u32>, usize> =
        crate::for_each_typed2!(ab.head(), cd.head(), |ah, ch| {
            'align: {
                let mut align = Vec::with_capacity(ab.len());
                for i in 0..ah.len() {
                    let v = ah.value(i);
                    let h = ah.hash_one(v);
                    match idx.candidates(h).find(|&p| ch.eq_one(ch.value(p), v)) {
                        Some(p) => align.push(p as u32),
                        None => break 'align Err(i),
                    }
                }
                Ok(align)
            }
        });
    align.map_err(|i| MonetError::Malformed {
        op: "group",
        detail: format!(
            "binary group: head value at position {i} of the group \
             BAT has no counterpart in the attribute BAT"
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_group_assigns_one_oid_per_value() {
        let ctx = ExecCtx::new();
        let years = Bat::new(
            Column::from_oids(vec![1, 2, 3, 4, 5]),
            Column::from_ints(vec![1995, 1996, 1995, 1997, 1996]),
        );
        let class = group1(&ctx, &years).unwrap();
        assert_eq!(class.len(), 5);
        assert!(class.synced(&years));
        let g = class.tail();
        assert_eq!(g.oid_at(0), g.oid_at(2)); // both 1995
        assert_eq!(g.oid_at(1), g.oid_at(4)); // both 1996
        assert_ne!(g.oid_at(0), g.oid_at(1));
        assert_ne!(g.oid_at(3), g.oid_at(0));
        // dense fresh oids: 3 distinct
        let mut distinct: Vec<Oid> = (0..5).map(|i| g.oid_at(i)).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 3);
        assert_eq!(distinct[2] - distinct[0], 2);
    }

    #[test]
    fn merge_group_on_sorted_tail() {
        let ctx = ExecCtx::new();
        let b = Bat::with_props(
            Column::from_oids(vec![9, 8, 7]),
            Column::from_ints(vec![1, 1, 2]),
            Props::new(ColProps::NONE, ColProps::SORTED),
        );
        let r = group1(&ctx, &b).unwrap();
        assert!(r.props().tail.sorted);
        assert_eq!(r.tail().oid_at(0), r.tail().oid_at(1));
        assert_eq!(r.tail().oid_at(2), r.tail().oid_at(0) + 1);
    }

    #[test]
    fn binary_group_refines_synced() {
        let ctx = ExecCtx::new();
        // group by (flag, status): Q1-style two-attribute grouping
        let head = Column::from_oids(vec![1, 2, 3, 4]);
        let flag = Bat::new(head.clone(), Column::from_chrs(vec![b'A', b'A', b'R', b'A']));
        let status = Bat::new(head, Column::from_chrs(vec![b'F', b'O', b'F', b'F']));
        let g1 = group1(&ctx, &flag).unwrap();
        let g2 = group2(&ctx, &g1, &status).unwrap();
        let g = g2.tail();
        // (A,F) at 0 and 3; (A,O) at 1; (R,F) at 2
        assert_eq!(g.oid_at(0), g.oid_at(3));
        assert_ne!(g.oid_at(0), g.oid_at(1));
        assert_ne!(g.oid_at(0), g.oid_at(2));
        assert_ne!(g.oid_at(1), g.oid_at(2));
    }

    #[test]
    fn binary_group_hash_align() {
        let ctx = ExecCtx::new();
        let g1 = Bat::new(Column::from_oids(vec![4, 2, 3]), Column::from_oids(vec![100, 100, 101]));
        let attr = Bat::new(Column::from_oids(vec![2, 3, 4]), Column::from_ints(vec![7, 7, 8]));
        let r = group2(&ctx, &g1, &attr).unwrap();
        let g = r.tail();
        // rows: (100,8)@4, (100,7)@2, (101,7)@3 => all distinct
        assert_ne!(g.oid_at(0), g.oid_at(1));
        assert_ne!(g.oid_at(1), g.oid_at(2));
    }

    #[test]
    fn binary_group_missing_head_errors() {
        let ctx = ExecCtx::new();
        let g1 = Bat::new(Column::from_oids(vec![1]), Column::from_oids(vec![100]));
        let attr = Bat::new(Column::from_oids(vec![2]), Column::from_ints(vec![7]));
        assert!(group2(&ctx, &g1, &attr).is_err());
    }

    #[test]
    fn group_on_strings() {
        let ctx = ExecCtx::new();
        let b = Bat::new(
            Column::from_oids(vec![1, 2, 3]),
            Column::from_strs(["EUROPE", "ASIA", "EUROPE"]),
        );
        let r = group1(&ctx, &b).unwrap();
        assert_eq!(r.tail().oid_at(0), r.tail().oid_at(2));
        assert_ne!(r.tail().oid_at(0), r.tail().oid_at(1));
    }

    #[test]
    fn spill_grouping_matches_in_memory_numbering() {
        let ctx = ExecCtx::new();
        // Values spread across many clusters with skewed repetition; also
        // an encoded (dict) string column, which in-memory grouping sends
        // through the direct arm (its codes are a compact domain).
        let ints = Column::from_ints((0..5000).map(|i| ((i * 31) % 613) as i32).collect());
        let strs = Column::from_strs((0..3000).map(|i| format!("g{}", i % 97)).collect::<Vec<_>>());
        let dict = strs.encode();
        assert_eq!(dict.encoding(), crate::props::Enc::Dict);
        for col in [&ints, &strs, &dict] {
            let (gid_mem, reps_mem, _) = hash_group_column(&ctx, col, false).unwrap();
            let (gid_sp, reps_sp, algo) = spill_group_column(&ctx, col).unwrap();
            assert_eq!(algo, "spill");
            assert_eq!(gid_mem, gid_sp, "gids diverge on {}", col.atom_type());
            assert_eq!(reps_mem, reps_sp, "reps diverge on {}", col.atom_type());
        }
        // Empty input.
        let (gid, reps, _) = spill_group_column(&ctx, &Column::from_ints(vec![])).unwrap();
        assert!(gid.is_empty() && reps.is_empty());
    }

    #[test]
    fn group_dispatches_to_spill_under_budget_pressure() {
        let ctx = ExecCtx::new();
        // 800 values a thousand apart: no compact domain, so the choice is
        // between the hash table and the disk.
        let b = Bat::new(
            Column::from_oids((0..4000).collect()),
            Column::from_ints((0..4000).map(|i| (i % 800) * 1000).collect()),
        );
        let a = group1(&ctx, &b).unwrap();
        assert_eq!(ctx.take_algo(), "hash");
        // Budget below the GroupTable estimate but above the result
        // charge (the gid column is the output either way).
        ctx.mem.begin();
        ctx.mem.set_budget(Some(crate::costmodel::group_inmem_bytes(b.len()) - 1));
        let s = group1(&ctx, &b).unwrap();
        assert_eq!(ctx.take_algo(), "spill");
        // Same grouping structure: gids are fresh oids per call, so
        // compare the induced partition, not the raw oids.
        let rel = |g: &Bat, i: usize| g.tail().oid_at(i) - g.tail().oid_at(0);
        for i in 0..b.len() {
            assert_eq!(rel(&a, i), rel(&s, i), "partition diverges at {i}");
        }
    }

    #[test]
    fn empty_group() {
        let ctx = ExecCtx::new();
        let b = Bat::new(Column::from_oids(vec![]), Column::from_ints(vec![]));
        assert_eq!(group1(&ctx, &b).unwrap().len(), 0);
    }
}
