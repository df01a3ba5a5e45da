//! Aggregation: whole-BAT aggregates and the set-aggregate constructor
//! `{g}` of Figure 4.
//!
//! `{g}(AB) = {a·g(S_a) | a ∈ A ∧ S_a = {b | ab ∈ AB}}`: group over the
//! head of the BAT and compute an aggregate of each group's tail values.
//! "With this construct we can execute nested aggregates in one go, rather
//! than having to do iterative calls on nested collections" — this is what
//! makes the flattened execution of MOA's nested `sum`s fast.
//!
//! A flattened `nest` + aggregates applies one `{g}` per aggregate to BATs
//! that all carry the *same* head column (the grouping's oids). That
//! column is a `group` result, which memoized its own grouping on the
//! context by column identity ([`super::group`]), so every `{g}` over it
//! reports `memo` and reads each row's group off the oids; over any other
//! head the first `{g}` derives the grouping (`direct`, `hash`, `spill`)
//! and memoizes it for the rest. One `{g}` gathers the head at the
//! representatives and the others share that column, so their results
//! are synced. `avg` over `dbl` reaches this kernel as `{sum}/{count}`
//! (the translator's rewrite; `{avg}` fills the same float partials and
//! divides by the count, so the bits agree); integer `{avg}`s sum in `dbl`
//! here.

use crate::atom::{AtomType, AtomValue, Oid};
use crate::bat::Bat;
use crate::column::Column;
use crate::ctx::{ExecCtx, MemoKey, Memoized};
use crate::error::{MonetError, Result};
use crate::pager;
use crate::props::{ColProps, Props};
use crate::typed::TypedVals;
use std::ops::Range;
use std::sync::Arc;

use super::group::{Gids, Grouping};

/// Aggregate functions, usable both as whole-BAT scalars and per-group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// Whole-BAT aggregate over the tail column.
///
/// `sum` over int/lng tails yields `lng` (wide accumulator), over dbl
/// yields `dbl`; `count` yields `lng`; `avg` yields `dbl`; `min`/`max`
/// keep the tail type. `min`/`max`/`avg` over an empty BAT are errors.
///
/// One [`aggr_window`] partial per [`super::MORSEL_ROWS`] window
/// (`ops::for_each_morsel`), combined in morsel order by
/// [`merge_partials`]. The morsel grid is a property of the operand, so it
/// fixes the floating-point association — and with it the result bits.
pub fn aggr_scalar(ctx: &ExecCtx, ab: &Bat, f: AggFunc) -> Result<AtomValue> {
    ctx.probe("op/aggr")?;
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, ab.tail());
    }
    let n = ab.len();
    let parts =
        super::for_each_morsel(ctx, n, |r| aggr_window(&ab.tail().slice(r.start, r.len()), f))?;
    merge_partials(f, n, parts.into_iter().collect::<Result<_>>()?)
}

/// Aggregate partial of one window. Exact integer accumulators regroup
/// freely; float sums are only bit-stable on a fixed morsel grid, which is
/// why the grid is a constant; min/max carry the window's first-winner
/// value.
enum Partial {
    /// The count itself is the number of rows reaching the aggregate.
    Count,
    SumI(i64),
    SumF(f64),
    Best(Option<AtomValue>),
}

/// The aggregate window kernel — the only scalar sum/avg/min/max loops.
fn aggr_window(w: &Column, f: AggFunc) -> Result<Partial> {
    match f {
        AggFunc::Count => Ok(Partial::Count),
        AggFunc::Sum | AggFunc::Avg => {
            let ty = w.atom_type();
            if !matches!(ty, AtomType::Int | AtomType::Lng | AtomType::Dbl) {
                return Err(MonetError::Unsupported { op: f.name(), ty });
            }
            Ok(match (f, ty) {
                (AggFunc::Sum, AtomType::Int) => Partial::SumI(
                    w.as_int_slice().expect("int tail").iter().map(|&x| x as i64).sum(),
                ),
                (AggFunc::Sum, AtomType::Lng) => {
                    Partial::SumI(w.as_lng_slice().expect("lng tail").iter().sum())
                }
                (_, AtomType::Int) => Partial::SumF(
                    w.as_int_slice().expect("int tail").iter().map(|&x| x as f64).sum(),
                ),
                (_, AtomType::Lng) => Partial::SumF(
                    w.as_lng_slice().expect("lng tail").iter().map(|&x| x as f64).sum(),
                ),
                _ => Partial::SumF(w.as_dbl_slice().expect("dbl tail").iter().sum()),
            })
        }
        AggFunc::Min | AggFunc::Max => {
            if w.is_empty() {
                return Ok(Partial::Best(None));
            }
            let minimize = f == AggFunc::Min;
            let best = crate::for_each_typed!(w, |t| {
                let mut best = 0usize;
                for i in 1..t.len() {
                    let c = t.cmp_one(t.value(i), t.value(best));
                    if if minimize { c.is_lt() } else { c.is_gt() } {
                        best = i;
                    }
                }
                best
            });
            Ok(Partial::Best(Some(w.get(best))))
        }
    }
}

/// Combine the window partials of the `n` rows that reached the aggregate,
/// in morsel order.
fn merge_partials(f: AggFunc, n: usize, parts: Vec<Partial>) -> Result<AtomValue> {
    match f {
        AggFunc::Count => Ok(AtomValue::Lng(n as i64)),
        AggFunc::Sum | AggFunc::Avg => {
            if f == AggFunc::Avg && n == 0 {
                return Err(MonetError::Malformed {
                    op: "avg",
                    detail: "average of empty BAT".into(),
                });
            }
            let float = parts.iter().any(|p| matches!(p, Partial::SumF(_)));
            let si: i64 = parts.iter().map(|p| if let Partial::SumI(x) = p { *x } else { 0 }).sum();
            let sf: f64 = parts
                .iter()
                .filter_map(|p| if let Partial::SumF(x) = p { Some(*x) } else { None })
                .sum();
            Ok(match f {
                AggFunc::Avg => AtomValue::Dbl(sf / n as f64),
                _ if float => AtomValue::Dbl(sf),
                _ => AtomValue::Lng(si),
            })
        }
        AggFunc::Min | AggFunc::Max => {
            let minimize = f == AggFunc::Min;
            let mut best: Option<AtomValue> = None;
            for p in parts {
                let Partial::Best(Some(cand)) = p else { continue };
                best = Some(match best.take() {
                    None => cand,
                    Some(b) => {
                        let c = cand.cmp_same_type(&b);
                        // Strict improvement keeps the earliest row holding
                        // the extreme — the first-winner rule.
                        if if minimize { c.is_lt() } else { c.is_gt() } {
                            cand
                        } else {
                            b
                        }
                    }
                });
            }
            best.ok_or_else(|| MonetError::Malformed {
                op: f.name(),
                detail: "min/max of empty BAT".into(),
            })
        }
    }
}

/// Per-group float accumulators, combined **in morsel order**: one
/// `ngroups`-wide partial per [`super::MORSEL_ROWS`] window, filled by
/// `fill` and folded into the result by `merge`, so the grid fixes the
/// association and with it the result bits. Past ~4M partial slots
/// (`ngroups x morsels`, ≈ 32 MB of f64) the group cardinality approaches
/// the row count and the partials would dwarf the operand, so the rows
/// stream into the result in one pass instead. The bound depends only on
/// the operand, so a given operand always sums the same way. (Exact
/// accumulators — counts, integer sums, first-winner min/max — regroup
/// freely and always take one pass.)
fn float_partials<A: Clone>(
    n: usize,
    ngroups: usize,
    init: A,
    fill: impl Fn(std::ops::Range<usize>, &mut [A]),
    merge: impl Fn(&mut [A], &[A]),
) -> Vec<A> {
    let mut total = vec![init.clone(); ngroups];
    if ngroups.saturating_mul(super::morsels(n).count()) > (1 << 22) {
        fill(0..n, &mut total);
        return total;
    }
    let mut buf = vec![init.clone(); ngroups];
    for (k, m) in super::morsels(n).enumerate() {
        if k > 0 {
            buf.fill(init.clone());
        }
        fill(m, &mut buf);
        merge(&mut total, &buf);
    }
    total
}

/// The group of every row of a grouped column, read a row range at a
/// time: the kernel loops of [`set_aggregate`] are monomorphized over the
/// two places a [`Grouping`] keeps it ([`Gids`]).
trait GroupOf: Copy {
    fn groups(self, r: Range<usize>) -> impl Iterator<Item = usize>;
}

impl GroupOf for &[u32] {
    fn groups(self, r: Range<usize>) -> impl Iterator<Item = usize> {
        self[r].iter().map(|&g| g as usize)
    }
}

/// A `group` result's oids and their `base`.
#[derive(Clone, Copy)]
struct OidGroups<'a>(&'a [Oid], Oid);

impl GroupOf for OidGroups<'_> {
    fn groups(self, r: Range<usize>) -> impl Iterator<Item = usize> {
        let base = self.1;
        self.0[r].iter().map(move |&o| (o - base) as usize)
    }
}

/// The set-aggregate constructor `{g}(AB)`: one result BUN per distinct
/// head value, in first-occurrence order. The head grouping comes from the
/// execution's memo when a `group` built the head or an earlier `{g}`
/// derived its grouping (`memo`), and from
/// [`super::group::hash_group_column`] otherwise. The result head is the
/// grouping's shared gather, so every `{g}` over one head returns synced
/// results.
pub fn set_aggregate(ctx: &ExecCtx, f: AggFunc, ab: &Bat) -> Result<Bat> {
    ctx.probe("op/set-aggregate")?;
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, ab.tail());
    }
    let tail_ty = ab.tail().atom_type();
    if !matches!(f, AggFunc::Count | AggFunc::Min | AggFunc::Max)
        && !matches!(tail_ty, AtomType::Int | AtomType::Lng | AtomType::Dbl)
    {
        return Err(MonetError::Unsupported { op: "set-aggregate", ty: tail_ty });
    }

    // Assign each BUN to a group; remember one representative position per
    // group for building the result head (and for min/max gathering). One
    // derivation per head column per execution: the memo is keyed by the
    // head's identity.
    let h = ab.head();
    let key = MemoKey::Grouping(h.identity());
    let (g, algo) = match ctx.memo_get(key) {
        Some(Memoized::Grouping(g)) => (g, "memo"),
        _ => {
            if let Some(p) = ctx.pager.as_deref() {
                pager::touch_scan(p, h);
            }
            let (gid_of, rep, algo) =
                super::group::hash_group_column(ctx, h, ab.props().head.sorted)?;
            let g = Grouping {
                gids: Gids::Rows(Arc::new(gid_of)),
                reps: Arc::new(rep),
                keys: Arc::new([]),
                head: Arc::default(),
            };
            ctx.memo_insert(key, h, Memoized::Grouping(g.clone()));
            (g, algo)
        }
    };

    let ngroups = g.reps.len();
    let tail = match &g.gids {
        Gids::Rows(gid) => aggregate_groups(f, ab.tail(), ngroups, &gid[..]),
        Gids::Oids(base) => {
            let oids = h.as_oid_slice().expect("a `group` tail is oids");
            aggregate_groups(f, ab.tail(), ngroups, OidGroups(oids, *base))
        }
    };
    let head = g.head.get_or_init(|| h.gather(&g.reps)).clone();
    let props = Props::new(
        ColProps {
            sorted: ab.props().head.sorted,
            key: true, // one BUN per distinct head by construction
            dense: false,
            ..ColProps::NONE
        },
        ColProps::NONE,
    );
    let result = Bat::with_props(head, tail, props);
    ctx.record("set-aggregate", algo, &[ab], &result)?;
    Ok(result)
}

/// Aggregate each group's tail values: exact accumulators in one pass,
/// float ones through `float_partials` (see there for the determinism
/// argument).
fn aggregate_groups(f: AggFunc, t: &Column, ngroups: usize, gid: impl GroupOf) -> Column {
    let n = t.len();
    let tail_ty = t.atom_type();
    match f {
        AggFunc::Count => {
            let mut counts = vec![0i64; ngroups];
            for g in gid.groups(0..n) {
                counts[g] += 1;
            }
            Column::from_lngs(counts)
        }
        AggFunc::Sum => match tail_ty {
            AtomType::Int | AtomType::Lng => {
                let mut sums = vec![0i64; ngroups];
                if tail_ty == AtomType::Lng {
                    let slice = t.as_lng_slice().expect("lng tail");
                    for (g, &x) in gid.groups(0..n).zip(slice) {
                        sums[g] += x;
                    }
                } else {
                    let slice = t.as_int_slice().expect("int tail");
                    for (g, &x) in gid.groups(0..n).zip(slice) {
                        sums[g] += x as i64;
                    }
                }
                Column::from_lngs(sums)
            }
            _ => {
                let slice = t.as_dbl_slice().expect("dbl tail");
                Column::from_dbls(float_partials(
                    n,
                    ngroups,
                    0f64,
                    |r, buf| {
                        for (g, &x) in gid.groups(r.clone()).zip(&slice[r]) {
                            buf[g] += x;
                        }
                    },
                    |total, part| {
                        for (tg, &p) in total.iter_mut().zip(part) {
                            *tg += p;
                        }
                    },
                ))
            }
        },
        AggFunc::Avg => {
            let acc = float_partials(
                n,
                ngroups,
                (0f64, 0u64),
                |r, buf| match tail_ty {
                    AtomType::Int => {
                        let slice = t.as_int_slice().expect("int tail");
                        for (g, &x) in gid.groups(r.clone()).zip(&slice[r]) {
                            let b = &mut buf[g];
                            b.0 += x as f64;
                            b.1 += 1;
                        }
                    }
                    AtomType::Lng => {
                        let slice = t.as_lng_slice().expect("lng tail");
                        for (g, &x) in gid.groups(r.clone()).zip(&slice[r]) {
                            let b = &mut buf[g];
                            b.0 += x as f64;
                            b.1 += 1;
                        }
                    }
                    _ => {
                        let slice = t.as_dbl_slice().expect("dbl tail");
                        for (g, &x) in gid.groups(r.clone()).zip(&slice[r]) {
                            let b = &mut buf[g];
                            b.0 += x;
                            b.1 += 1;
                        }
                    }
                },
                |total, part| {
                    for (tg, p) in total.iter_mut().zip(part) {
                        tg.0 += p.0;
                        tg.1 += p.1;
                    }
                },
            );
            Column::from_dbls(acc.iter().map(|(s, c)| s / *c as f64).collect())
        }
        AggFunc::Min | AggFunc::Max => {
            // First-winner rows per group: only a strict improvement
            // replaces the incumbent, so each group's winner is its
            // earliest extreme row.
            let minimize = f == AggFunc::Min;
            let mut best = vec![u32::MAX; ngroups];
            crate::for_each_typed!(t, |tv| {
                for (i, g) in gid.groups(0..n).enumerate() {
                    let b = &mut best[g];
                    if *b == u32::MAX {
                        *b = i as u32;
                        continue;
                    }
                    let c = tv.cmp_one(tv.value(i), tv.value(*b as usize));
                    if if minimize { c.is_lt() } else { c.is_gt() } {
                        *b = i as u32;
                    }
                }
            });
            t.gather(&best)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn losses() -> Bat {
        // [class_oid, revenue] as in Q13's final {sum}
        Bat::new(
            Column::from_oids(vec![70, 71, 70, 72, 71, 70]),
            Column::from_dbls(vec![10.0, 5.0, 20.0, 1.0, 2.5, 30.0]),
        )
    }

    #[test]
    fn sum_groups() {
        let ctx = ExecCtx::new();
        let r = set_aggregate(&ctx, AggFunc::Sum, &losses()).unwrap();
        assert_eq!(r.len(), 3);
        let mut pairs: Vec<(u64, f64)> =
            (0..3).map(|i| (r.head().oid_at(i), r.tail().dbl_at(i))).collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(pairs[0], (70, 60.0));
        assert_eq!(pairs[1], (71, 7.5));
        assert_eq!(pairs[2], (72, 1.0));
        assert!(r.props().head.key);
    }

    #[test]
    fn merge_variant_on_sorted_head() {
        let ctx = ExecCtx::new();
        let b = Bat::with_props(
            Column::from_oids(vec![1, 1, 2, 3, 3]),
            Column::from_ints(vec![4, 6, 10, 1, 1]),
            Props::new(ColProps::SORTED, ColProps::NONE),
        );
        let r = set_aggregate(&ctx, AggFunc::Sum, &b).unwrap();
        assert_eq!(r.head().as_oid_slice().unwrap(), &[1, 2, 3]);
        assert_eq!(r.tail().as_lng_slice().unwrap(), &[10, 10, 2]);
        assert!(r.props().head.sorted);
        assert!(r.validate().is_ok());
    }

    #[test]
    fn count_min_max_avg() {
        let ctx = ExecCtx::new();
        let b = losses();
        let c = set_aggregate(&ctx, AggFunc::Count, &b).unwrap();
        let mn = set_aggregate(&ctx, AggFunc::Min, &b).unwrap();
        let mx = set_aggregate(&ctx, AggFunc::Max, &b).unwrap();
        let av = set_aggregate(&ctx, AggFunc::Avg, &b).unwrap();
        let find = |bat: &Bat, oid: u64| -> AtomValue {
            (0..bat.len())
                .find(|&i| bat.head().oid_at(i) == oid)
                .map(|i| bat.tail().get(i))
                .unwrap()
        };
        assert_eq!(find(&c, 70), AtomValue::Lng(3));
        assert_eq!(find(&mn, 70), AtomValue::Dbl(10.0));
        assert_eq!(find(&mx, 70), AtomValue::Dbl(30.0));
        assert_eq!(find(&av, 70), AtomValue::Dbl(20.0));
    }

    #[test]
    fn min_max_on_strings_per_group() {
        let ctx = ExecCtx::new();
        let b =
            Bat::new(Column::from_oids(vec![1, 1, 2]), Column::from_strs(["pear", "apple", "fig"]));
        let mn = set_aggregate(&ctx, AggFunc::Min, &b).unwrap();
        let v: Vec<(u64, String)> =
            (0..mn.len()).map(|i| (mn.head().oid_at(i), mn.tail().str_at(i).to_string())).collect();
        assert!(v.contains(&(1, "apple".to_string())));
        assert!(v.contains(&(2, "fig".to_string())));
        // sum over strings is an error
        assert!(set_aggregate(&ctx, AggFunc::Sum, &b).is_err());
    }

    #[test]
    fn scalar_aggregates() {
        let ctx = ExecCtx::new();
        let b = Bat::new(Column::from_oids(vec![1, 2, 3]), Column::from_ints(vec![5, 9, 2]));
        assert_eq!(aggr_scalar(&ctx, &b, AggFunc::Sum).unwrap(), AtomValue::Lng(16));
        assert_eq!(aggr_scalar(&ctx, &b, AggFunc::Count).unwrap(), AtomValue::Lng(3));
        assert_eq!(aggr_scalar(&ctx, &b, AggFunc::Min).unwrap(), AtomValue::Int(2));
        assert_eq!(aggr_scalar(&ctx, &b, AggFunc::Max).unwrap(), AtomValue::Int(9));
        let avg = aggr_scalar(&ctx, &b, AggFunc::Avg).unwrap();
        assert!(matches!(avg, AtomValue::Dbl(v) if (v - 16.0/3.0).abs() < 1e-12));
    }

    #[test]
    fn empty_scalar_aggregates() {
        let ctx = ExecCtx::new();
        let b = Bat::new(Column::from_oids(vec![]), Column::from_ints(vec![]));
        assert_eq!(aggr_scalar(&ctx, &b, AggFunc::Sum).unwrap(), AtomValue::Lng(0));
        assert_eq!(aggr_scalar(&ctx, &b, AggFunc::Count).unwrap(), AtomValue::Lng(0));
        assert!(aggr_scalar(&ctx, &b, AggFunc::Min).is_err());
        assert!(aggr_scalar(&ctx, &b, AggFunc::Avg).is_err());
        assert_eq!(set_aggregate(&ctx, AggFunc::Sum, &b).unwrap().len(), 0);
    }
}
