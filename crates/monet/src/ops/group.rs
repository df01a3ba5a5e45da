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
//!
//! Every arm leaves the grouping it built in the execution's memo, keyed
//! by its result tail: the oids are `base + gid`, numbered by first
//! occurrence, so the tail *is* its own first-occurrence grouping and the
//! entry holds only the representatives (no second row-length array) and
//! the key columns the grouping determines. Every later `{g}` over the
//! group ids ([`super::set_aggregate`]) and every nest key's dedup
//! ([`super::unique`]) reads it as `memo` instead of grouping again
//! (Figure 10 lines 8–9).

use crate::atom::Oid;
use crate::bat::Bat;
use crate::column::{Column, ColumnIdentity};
use crate::ctx::{ExecCtx, MemoKey, Memoized};
use crate::error::{MonetError, Result};
use crate::pager;
use crate::props::{ColProps, Props};
use crate::typed::{CodedVals, GroupTable, OidDomain, SlotTable, TypedVals};
use std::sync::{Arc, OnceLock};

/// A first-occurrence grouping of one column: the group of every row, one
/// representative row per group, and the columns the grouping determines.
/// Shared, because the per-execution memo hands one grouping to every
/// `{g}` and `unique` over the same column.
#[derive(Debug, Clone)]
pub(crate) struct Grouping {
    pub gids: Gids,
    pub reps: Arc<Vec<u32>>,
    /// Columns whose value at row `i` is a function of row `i`'s group
    /// (row `i` of each is row `i` of the grouped column): a `group`
    /// result's keys, none for a grouping `{g}` derived.
    pub keys: Arc<[ColumnIdentity]>,
    /// The grouped column at `reps`, gathered by the first `{g}` that
    /// needs it and shared by every later one, so their results are
    /// synced.
    pub head: Arc<OnceLock<Column>>,
}

/// Where a [`Grouping`] reads the group of a row.
#[derive(Debug, Clone)]
pub(crate) enum Gids {
    /// An array of its own (a grouping `{g}` derived).
    Rows(Arc<Vec<u32>>),
    /// The grouped column itself: a `group` result's tail, whose oid at
    /// row `i` is `base` plus the group of row `i`.
    Oids(Oid),
}

impl Grouping {
    /// Bytes of its own arrays (the shared head is a column, charged by
    /// the `record` of the result that carries it).
    pub fn bytes(&self) -> u64 {
        let rows = match &self.gids {
            Gids::Rows(g) => g.len(),
            Gids::Oids(_) => 0,
        };
        4 * (rows + self.reps.len()) as u64
    }
}

/// Memoize the grouping a `group` result's tail already is: its oids are
/// `base` plus the first-occurrence group of every row, and `reps` the
/// first row of every group, so a `{g}` over it and a `unique` over it and
/// one of `keys` need not derive it again ([`super::set_aggregate`],
/// [`super::unique`]).
fn seed(ctx: &ExecCtx, result: &Bat, base: Oid, reps: Vec<u32>, keys: Vec<ColumnIdentity>) {
    let g = Grouping {
        gids: Gids::Oids(base),
        reps: Arc::new(reps),
        keys: keys.into(),
        head: Arc::default(),
    };
    let tail = result.tail();
    ctx.memo_insert(MemoKey::Grouping(tail.identity()), tail, Memoized::Grouping(g));
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
    seed(ctx, &result, base, reps, vec![ab.tail().identity()]);
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
    let align = (!ab.synced(cd)).then(|| hash_align(ab.head(), cd.head()));
    if let Some(i) = align.as_ref().and_then(|a| a.iter().position(|&p| p == UNALIGNED)) {
        return Err(MonetError::Malformed {
            op: "group",
            detail: format!(
                "binary group: head value at position {i} of the group \
                 BAT has no counterpart in the attribute BAT"
            ),
        });
    }
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
    // A refined group determines both halves of its pair, and what the
    // group it refines determines; a hash-aligned `cd` is not row for row
    // with the result, and its grouping records none.
    let keys = match align {
        Some(_) => Vec::new(),
        None => {
            let mut keys = vec![ab.tail().identity(), cd.tail().identity()];
            if let Some(Memoized::Grouping(g)) =
                ctx.memo_get(MemoKey::Grouping(ab.tail().identity()))
            {
                keys.extend_from_slice(&g.keys);
            }
            keys
        }
    };
    seed(ctx, &result, base, firsts, keys);
    ctx.record("group", algo, &[ab, cd], &result)?;
    Ok(result)
}

/// Marks a value [`hash_align`] found no counterpart for.
pub(crate) const UNALIGNED: u32 = u32::MAX;

/// For every value of `keys`, the position of its first occurrence in
/// `heads`, by hash; [`UNALIGNED`] where `heads` does not hold it. Binary
/// grouping and aligned multiplex share it: the first fails on a missing
/// counterpart, the second drops that row.
pub(crate) fn hash_align(keys: &Column, heads: &Column) -> Vec<u32> {
    let idx = crate::accel::hash::HashIndex::build(heads);
    crate::for_each_typed2!(keys, heads, |k, h| {
        (0..k.len())
            .map(|i| {
                let v = k.value(i);
                let mut hits = idx.candidates(k.hash_one(v));
                hits.find(|&p| h.eq_one(h.value(p), v)).map_or(UNALIGNED, |p| p as u32)
            })
            .collect()
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
    fn group_seeds_the_memo_with_the_grouping_of_its_tail() {
        // The seeded entry reads each row's group off the result's oids and
        // equals the first-occurrence grouping a `{g}` would derive from
        // them; it records the keys it determines, and none for a
        // hash-aligned refinement.
        let seeded = |ctx: &ExecCtx, class: &Bat| -> Grouping {
            match ctx.memo_get(MemoKey::Grouping(class.tail().identity())) {
                Some(Memoized::Grouping(g)) => g,
                _ => panic!("group did not seed the memo"),
            }
        };
        let check = |ctx: &ExecCtx, class: &Bat, keys: &[&Column]| {
            let g = seeded(ctx, class);
            let Gids::Oids(base) = g.gids else { panic!("a seed reads the oids") };
            let oids = class.tail().as_oid_slice().unwrap();
            let (gid_of, reps, _) = hash_group_column(ctx, class.tail(), false).unwrap();
            assert_eq!(oids.iter().map(|&o| (o - base) as u32).collect::<Vec<_>>(), gid_of);
            assert_eq!(*g.reps, reps);
            let want: Vec<ColumnIdentity> = keys.iter().map(|c| c.identity()).collect();
            assert_eq!(&*g.keys, &want[..]);
            assert_eq!(g.bytes(), 4 * reps.len() as u64, "no row-length array");
        };
        let ctx = ExecCtx::new();
        let n = 3000;
        let head = Column::from_oids((0..n as u64).map(|i| 40 + i).collect());
        let narrow = Bat::new(head.clone(), Column::from_ints((0..n).map(|i| i % 7).collect()));
        let wide =
            Bat::new(head.clone(), Column::from_ints((0..n).map(|i| i % 97 * 10_000).collect()));
        let names = Column::from_strs((0..n).map(|i| format!("n{}", i % 13)).collect::<Vec<_>>());
        let dict = Bat::new(head.clone(), names.encode());
        let budget = crate::costmodel::group_inmem_bytes(n as usize) - 1;
        for (b, algo) in [(&narrow, "direct"), (&wide, "hash"), (&dict, "direct"), (&wide, "spill")]
        {
            let ctx = ExecCtx::new();
            if algo == "spill" {
                ctx.mem.set_budget(Some(budget));
            }
            let class = group1(&ctx, b).unwrap();
            assert_eq!(ctx.take_algo(), algo);
            check(&ctx, &class, &[b.tail()]);
        }
        let class = group1(&ctx, &narrow).unwrap();
        for (cd, algo) in [(&narrow, "packed"), (&wide, "sync")] {
            let refined = group2(&ctx, &class, cd).unwrap();
            assert_eq!(ctx.take_algo(), algo);
            check(&ctx, &refined, &[class.tail(), cd.tail(), narrow.tail()]);
        }
        let shuffled = Bat::new(
            Column::from_oids((0..n as u64).rev().map(|i| 40 + i).collect()),
            wide.tail().clone(),
        );
        let aligned = group2(&ctx, &class, &shuffled).unwrap();
        assert_eq!(ctx.take_algo(), "hash-align");
        check(&ctx, &aligned, &[]);
    }

    #[test]
    fn empty_group() {
        let ctx = ExecCtx::new();
        let b = Bat::new(Column::from_oids(vec![]), Column::from_ints(vec![]));
        assert_eq!(group1(&ctx, &b).unwrap().len(), 0);
    }
}
