//! Set operations on BATs viewed as sets of BUN pairs: union, difference,
//! intersection. MOA's set operations on identified value sets translate to
//! these plus the head-based `semijoin`/`antijoin` of [`super::semijoin`].

use crate::bat::Bat;
use crate::column::Column;
use crate::ctx::ExecCtx;
use crate::error::Result;
use crate::pager;
use crate::typed::{hash_column, GroupTable};

use super::check_comparable;

fn check_both(op: &'static str, ab: &Bat, cd: &Bat) -> Result<()> {
    check_comparable(op, ab.head().atom_type(), cd.head().atom_type())?;
    check_comparable(op, ab.tail().atom_type(), cd.tail().atom_type())
}

/// Per-row (head, tail) pair hashes of a BAT, computed in two bulk typed
/// passes — no per-row type dispatch.
fn pair_hashes(b: &Bat) -> Vec<u64> {
    let hh = hash_column(b.head());
    let th = hash_column(b.tail());
    hh.iter().zip(&th).map(|(&h, &t)| h.rotate_left(17) ^ t).collect()
}

/// Pair-set membership structure over a BAT: a [`GroupTable`] keyed on the
/// full 64-bit pair hash (duplicate pairs collapse — membership is all
/// that's asked); value equality is only re-checked on true hash matches,
/// so the generic compare runs once per *matching* row, not per probe.
struct PairSet<'a> {
    bat: &'a Bat,
    table: GroupTable,
}

impl<'a> PairSet<'a> {
    fn build(bat: &'a Bat) -> PairSet<'a> {
        let hashes = pair_hashes(bat);
        let mut table = GroupTable::with_capacity(bat.len());
        for (i, &h) in hashes.iter().enumerate() {
            table.find_or_insert(h, i as u32, |rep| {
                let p = rep as usize;
                bat.head().eq_at(p, bat.head(), i) && bat.tail().eq_at(p, bat.tail(), i)
            });
        }
        PairSet { bat, table }
    }

    fn contains(&self, other: &Bat, i: usize, key: u64) -> bool {
        self.table
            .find(key, |rep| {
                let p = rep as usize;
                self.bat.head().eq_at(p, other.head(), i)
                    && self.bat.tail().eq_at(p, other.tail(), i)
            })
            .is_some()
    }
}

fn touch_both(ctx: &ExecCtx, ab: &Bat, cd: &Bat) {
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, ab.head());
        pager::touch_scan(p, ab.tail());
        pager::touch_scan(p, cd.head());
        pager::touch_scan(p, cd.tail());
    }
}

/// Set union of the BUN pairs of both operands (duplicates eliminated,
/// left-operand order first).
pub fn union_pairs(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Result<Bat> {
    ctx.probe("op/union")?;
    check_both("union", ab, cd)?;
    touch_both(ctx, ab, cd);
    // Dedup across the concatenation: one [`GroupTable`] over the pair
    // hashes of both operands (ab rows at entry i, cd rows at entry
    // ab.len() + i), generic equality only on full-hash matches.
    let (na, nc) = (ab.len(), cd.len());
    let mut hashes = pair_hashes(ab);
    hashes.extend(pair_hashes(cd));
    let mut keep_a: Vec<u32> = Vec::with_capacity(na);
    let mut keep_c: Vec<u32> = Vec::with_capacity(nc);
    let row_of = |e: usize| -> (&Bat, usize) {
        if e < na {
            (ab, e)
        } else {
            (cd, e - na)
        }
    };
    let mut table = GroupTable::with_capacity(na + nc);
    for e in 0..na + nc {
        let (src, i) = row_of(e);
        let (_, inserted) = table.find_or_insert(hashes[e], e as u32, |rep| {
            let (kb, kj) = row_of(rep as usize);
            kb.head().eq_at(kj, src.head(), i) && kb.tail().eq_at(kj, src.tail(), i)
        });
        if inserted {
            if e < na {
                keep_a.push(i as u32);
            } else {
                keep_c.push(i as u32);
            }
        }
    }
    let head = Column::concat_all(&[ab.head().gather(&keep_a), cd.head().gather(&keep_c)]);
    let tail = Column::concat_all(&[ab.tail().gather(&keep_a), cd.tail().gather(&keep_c)]);
    let result = Bat::new(head, tail);
    ctx.record("union", "hash", &[ab, cd], &result)?;
    Ok(result)
}

/// Pairs of `AB` that do not occur in `CD` (set difference).
pub fn diff_pairs(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Result<Bat> {
    ctx.probe("op/difference")?;
    check_both("difference", ab, cd)?;
    touch_both(ctx, ab, cd);
    let set = PairSet::build(cd);
    let keys = pair_hashes(ab);
    let idx: Vec<u32> =
        (0..ab.len()).filter(|&i| !set.contains(ab, i, keys[i])).map(|i| i as u32).collect();
    let result = subset(ab, &idx);
    ctx.record("difference", "hash", &[ab, cd], &result)?;
    Ok(result)
}

/// Concatenate the BUNs of two BATs (bag semantics, left first). Column
/// types must match; `void` and `oid` combine into a materialized `oid`
/// column.
pub fn concat_bats(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Result<Bat> {
    ctx.probe("op/concat")?;
    check_both("concat", ab, cd)?;
    touch_both(ctx, ab, cd);
    let head = Column::concat_all(&[ab.head().clone(), cd.head().clone()]);
    let tail = Column::concat_all(&[ab.tail().clone(), cd.tail().clone()]);
    let result = Bat::new(head, tail);
    ctx.record("concat", "copy", &[ab, cd], &result)?;
    Ok(result)
}

/// Positional combination of two *synced* BATs: `{b_i · d_i}` — the tails
/// of `AB` become the heads, the tails of `CD` the tails, pairing by
/// position. The synced property guarantees the heads correspond, making
/// this a zero-lookup join.
pub fn zip(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Result<Bat> {
    ctx.probe("op/zip")?;
    if !ab.synced(cd) {
        return Err(crate::error::MonetError::Malformed {
            op: "zip",
            detail: "operands must be synced (identical head columns)".into(),
        });
    }
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, ab.tail());
        pager::touch_scan(p, cd.tail());
    }
    use crate::props::{ColProps, Props};
    let pa = ab.props();
    let pc = cd.props();
    let result = Bat::with_props(
        ab.tail().clone(),
        cd.tail().clone(),
        Props::new(
            ColProps {
                sorted: pa.tail.sorted,
                key: pa.tail.key,
                dense: pa.tail.dense,
                ..ColProps::NONE
            },
            ColProps {
                sorted: pc.tail.sorted,
                key: pc.tail.key,
                dense: pc.tail.dense,
                ..ColProps::NONE
            },
        ),
    );
    ctx.record("zip", "sync", &[ab, cd], &result)?;
    Ok(result)
}

/// Pairs of `AB` that also occur in `CD` (set intersection, left order).
pub fn intersect_pairs(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Result<Bat> {
    ctx.probe("op/intersect")?;
    check_both("intersect", ab, cd)?;
    touch_both(ctx, ab, cd);
    let set = PairSet::build(cd);
    let keys = pair_hashes(ab);
    let idx: Vec<u32> =
        (0..ab.len()).filter(|&i| set.contains(ab, i, keys[i])).map(|i| i as u32).collect();
    let result = subset(ab, &idx);
    ctx.record("intersect", "hash", &[ab, cd], &result)?;
    Ok(result)
}

fn subset(ab: &Bat, idx: &[u32]) -> Bat {
    use crate::props::{ColProps, Props};
    let p = ab.props();
    Bat::with_props(
        ab.head().gather(idx),
        ab.tail().gather(idx),
        Props::new(
            ColProps { sorted: p.head.sorted, key: p.head.key, dense: false, ..ColProps::NONE },
            ColProps { sorted: p.tail.sorted, key: p.tail.key, dense: false, ..ColProps::NONE },
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bat(pairs: &[(u64, i32)]) -> Bat {
        Bat::new(
            Column::from_oids(pairs.iter().map(|p| p.0).collect()),
            Column::from_ints(pairs.iter().map(|p| p.1).collect()),
        )
    }

    fn pairs(b: &Bat) -> Vec<(u64, i32)> {
        let mut v: Vec<(u64, i32)> =
            (0..b.len()).map(|i| (b.head().oid_at(i), b.tail().int_at(i))).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn union_dedups() {
        let ctx = ExecCtx::new();
        let a = bat(&[(1, 10), (2, 20), (2, 20)]);
        let b = bat(&[(2, 20), (3, 30)]);
        let r = union_pairs(&ctx, &a, &b).unwrap();
        assert_eq!(pairs(&r), vec![(1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn difference() {
        let ctx = ExecCtx::new();
        let a = bat(&[(1, 10), (2, 20), (3, 30)]);
        let b = bat(&[(2, 20), (3, 99)]);
        let r = diff_pairs(&ctx, &a, &b).unwrap();
        // (3,30) stays: the *pair* (3,30) is not in b
        assert_eq!(pairs(&r), vec![(1, 10), (3, 30)]);
    }

    #[test]
    fn intersection() {
        let ctx = ExecCtx::new();
        let a = bat(&[(1, 10), (2, 20), (3, 30)]);
        let b = bat(&[(3, 30), (1, 10), (4, 40)]);
        let r = intersect_pairs(&ctx, &a, &b).unwrap();
        assert_eq!(pairs(&r), vec![(1, 10), (3, 30)]);
    }

    #[test]
    fn algebraic_identities() {
        let ctx = ExecCtx::new();
        let a = bat(&[(1, 1), (2, 2), (5, 5)]);
        let b = bat(&[(2, 2), (7, 7)]);
        let u = union_pairs(&ctx, &a, &b).unwrap();
        let i = intersect_pairs(&ctx, &a, &b).unwrap();
        let da = diff_pairs(&ctx, &a, &b).unwrap();
        let db = diff_pairs(&ctx, &b, &a).unwrap();
        // |A ∪ B| = |A \ B| + |B \ A| + |A ∩ B|
        assert_eq!(u.len(), da.len() + db.len() + i.len());
    }

    #[test]
    fn concat_appends() {
        let ctx = ExecCtx::new();
        let a = bat(&[(1, 10), (2, 20)]);
        let b = bat(&[(2, 20), (3, 30)]);
        let r = concat_bats(&ctx, &a, &b).unwrap();
        assert_eq!(r.len(), 4); // bag semantics: no dedup
        assert_eq!(pairs(&r), vec![(1, 10), (2, 20), (2, 20), (3, 30)]);
    }

    #[test]
    fn concat_void_materializes() {
        let ctx = ExecCtx::new();
        let a = Bat::new(Column::from_oids(vec![5]), Column::void(9, 1));
        let b = Bat::new(Column::from_oids(vec![6]), Column::void(3, 1));
        let r = concat_bats(&ctx, &a, &b).unwrap();
        assert_eq!(r.tail().as_oid_slice().unwrap(), &[9, 3]);
    }

    #[test]
    fn zip_requires_synced() {
        let ctx = ExecCtx::new();
        let head = Column::from_oids(vec![1, 2]);
        let a = Bat::new(head.clone(), Column::from_ints(vec![10, 20]));
        let b = Bat::new(head, Column::from_strs(["x", "y"]));
        let z = zip(&ctx, &a, &b).unwrap();
        assert_eq!(z.head().as_int_slice().unwrap(), &[10, 20]);
        assert_eq!(z.tail().str_at(1), "y");
        let c = Bat::new(Column::from_oids(vec![1, 2]), Column::from_ints(vec![0, 0]));
        assert!(zip(&ctx, &a, &c).is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let ctx = ExecCtx::new();
        let a = bat(&[(1, 1)]);
        let b = Bat::new(Column::from_oids(vec![1]), Column::from_dbls(vec![1.0]));
        assert!(union_pairs(&ctx, &a, &b).is_err());
    }

    #[test]
    fn empty_operands() {
        let ctx = ExecCtx::new();
        let a = bat(&[(1, 1)]);
        let e = bat(&[]);
        assert_eq!(pairs(&union_pairs(&ctx, &a, &e).unwrap()), vec![(1, 1)]);
        assert_eq!(pairs(&diff_pairs(&ctx, &a, &e).unwrap()), vec![(1, 1)]);
        assert_eq!(intersect_pairs(&ctx, &a, &e).unwrap().len(), 0);
        assert_eq!(intersect_pairs(&ctx, &e, &a).unwrap().len(), 0);
    }
}
