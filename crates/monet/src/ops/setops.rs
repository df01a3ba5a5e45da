//! Bag operations on whole BATs: `concat` and the positional `zip`. MOA's
//! set operations on identified sets translate to the head-based
//! `semijoin`/`antijoin` of [`super::semijoin`] (union as
//! `concat(a, antijoin(b, a))`), so no operator here compares BUN pairs.

use crate::bat::Bat;
use crate::column::Column;
use crate::ctx::ExecCtx;
use crate::error::Result;
use crate::pager;

use super::check_comparable;

fn check_both(op: &'static str, ab: &Bat, cd: &Bat) -> Result<()> {
    check_comparable(op, ab.head().atom_type(), cd.head().atom_type())?;
    check_comparable(op, ab.tail().atom_type(), cd.tail().atom_type())
}

fn touch_both(ctx: &ExecCtx, ab: &Bat, cd: &Bat) {
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, ab.head());
        pager::touch_scan(p, ab.tail());
        pager::touch_scan(p, cd.head());
        pager::touch_scan(p, cd.tail());
    }
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
        assert!(concat_bats(&ctx, &a, &b).is_err());
    }

    #[test]
    fn empty_operands() {
        let ctx = ExecCtx::new();
        let a = bat(&[(1, 1)]);
        let e = bat(&[]);
        assert_eq!(pairs(&concat_bats(&ctx, &a, &e).unwrap()), vec![(1, 1)]);
        assert_eq!(pairs(&concat_bats(&ctx, &e, &a).unwrap()), vec![(1, 1)]);
        assert_eq!(concat_bats(&ctx, &e, &e).unwrap().len(), 0);
    }
}
