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
//! that all carry the *same* head column (the grouping's oids), so the
//! head grouping is derived once per execution and memoized on the context
//! by column identity — every later `{g}` over that head reports `memo`.

use std::sync::Arc;
use std::time::Instant;

use crate::atom::{AtomType, AtomValue};
use crate::bat::Bat;
use crate::column::Column;
use crate::ctx::{ExecCtx, MemoKey, Memoized};
use crate::error::{MonetError, Result};
use crate::pager;
use crate::props::{ColProps, Props};
use crate::typed::TypedVals;

use super::group::Grouping;

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
/// A one-stage pipeline on the morsel driver
/// ([`super::fused::run_stages`]): one [`aggr_window`] partial per
/// configured `morsel_rows` window, combined in morsel order by
/// [`merge_partials`]. The morsel grid is a property of the operand, never
/// of the thread count, so the floating-point association — and with it
/// the result bits — is identical whether the partials are computed
/// serially or on the worker pool ([`crate::costmodel::par_threads`]
/// decides).
pub fn aggr_scalar(ctx: &ExecCtx, ab: &Bat, f: AggFunc) -> Result<AtomValue> {
    ctx.probe("op/aggr")?;
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, ab.tail());
    }
    let out = super::fused::run_stages(ctx, ab.tail(), &[super::fused::Stage::Aggr(f)], false)?;
    Ok(out.scalar.expect("an aggregate stage yields a scalar"))
}

/// Aggregate partial of one window. Exact integer accumulators regroup
/// freely; float sums are only bit-stable on a fixed morsel grid (the fuse
/// pass never admits them behind a selection); min/max carry the window's
/// first-winner value.
pub(crate) enum Partial {
    /// The count itself is the number of rows reaching the aggregate.
    Count,
    SumI(i64),
    SumF(f64),
    Best(Option<AtomValue>),
}

/// The aggregate window kernel — the only scalar sum/avg/min/max loops.
pub(crate) fn aggr_window(w: &Column, f: AggFunc) -> Result<Partial> {
    match f {
        AggFunc::Count => Ok(Partial::Count),
        AggFunc::Sum | AggFunc::Avg => {
            let ty = w.atom_type();
            if !matches!(ty, AtomType::Int | AtomType::Lng | AtomType::Dbl) {
                return Err(MonetError::Unsupported { op: f.name(), ty });
            }
            let d = w.decoded();
            Ok(match (f, ty) {
                (AggFunc::Sum, AtomType::Int) => Partial::SumI(
                    d.as_int_slice().expect("int tail").iter().map(|&x| x as i64).sum(),
                ),
                (AggFunc::Sum, AtomType::Lng) => {
                    Partial::SumI(d.as_lng_slice().expect("lng tail").iter().sum())
                }
                (_, AtomType::Int) => Partial::SumF(
                    d.as_int_slice().expect("int tail").iter().map(|&x| x as f64).sum(),
                ),
                (_, AtomType::Lng) => Partial::SumF(
                    d.as_lng_slice().expect("lng tail").iter().map(|&x| x as f64).sum(),
                ),
                _ => Partial::SumF(d.as_dbl_slice().expect("dbl tail").iter().sum()),
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
pub(crate) fn merge_partials(f: AggFunc, n: usize, parts: Vec<Partial>) -> Result<AtomValue> {
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

/// Combine-in-morsel-order runner for per-group partial accumulators: one
/// `ngroups`-wide buffer per fixed morsel, filled by `fill` and folded
/// into the result by `merge`, **in morsel order**.
///
/// `exact` marks aggregates whose combine is associative and
/// order-insensitive bit-for-bit (count, integer sums, first-winner
/// min/max): for those the serial path is one streaming `fill` over the
/// whole operand — no per-morsel buffers — because any morsel regrouping
/// provably yields the same bits. Only inexact (float) merges pay the
/// morsel-streamed serial pass, which reproduces the parallel combine
/// sequence exactly, so result bits match at every thread count.
///
/// The parallel fan-out is additionally footprint-bounded: past ~4M
/// partial slots (`ngroups x morsels`, ≈ 32 MB of f64 at the default
/// morsel size) the group cardinality approaches the row count and
/// per-morsel buffers would dwarf the operand, so the kernel streams
/// serially instead. The bound depends only on the operand and the
/// morsel grid — never the thread count — so thread-count invariance
/// holds on both sides of it (above it, *every* thread count streams).
fn group_partials<A, F, M>(
    ctx: &ExecCtx,
    n: usize,
    threads: usize,
    ngroups: usize,
    init: A,
    exact: bool,
    fill: F,
    mut merge: M,
) -> Result<Vec<A>>
where
    A: Clone + Send + Sync + 'static,
    F: Fn(std::ops::Range<usize>, &mut [A]) + Send + Sync + 'static,
    M: FnMut(&mut [A], &[A]),
{
    let ms = crate::par::morsels(n, ctx.config().morsel_rows);
    let mut total = vec![init.clone(); ngroups];
    let fits = ngroups.saturating_mul(ms.len()) <= (1 << 22);
    if threads > 1 && fits {
        let ms2 = ms.clone();
        let parts = crate::par::try_run_tasks(
            &ctx.gov,
            crate::gov::site::PAR_MORSEL,
            ms.len(),
            threads,
            move |k| {
                let mut buf = vec![init.clone(); ngroups];
                fill(ms2[k].clone(), &mut buf);
                buf
            },
        )?;
        for p in &parts {
            merge(&mut total, p);
        }
    } else if exact || !fits {
        // One streaming pass. Exact merges are association-free; inexact
        // merges only reach here when the footprint bound disables the
        // parallel path for this operand at *every* thread count.
        fill(0..n, &mut total);
    } else {
        // Inexact serial under the footprint bound: stream the same
        // morsel partials the parallel path would compute, in order.
        let mut buf = vec![init.clone(); ngroups];
        for (k, m) in ms.into_iter().enumerate() {
            if k > 0 {
                for b in buf.iter_mut() {
                    *b = init.clone();
                }
            }
            fill(m, &mut buf);
            merge(&mut total, &buf);
        }
    }
    Ok(total)
}

/// The set-aggregate constructor `{g}(AB)`: one result BUN per distinct
/// head value, in first-occurrence order. The head grouping comes from the
/// execution's memo when an earlier `{g}` already derived it (`memo`), from
/// streaming runs when the head is sorted (`merge`), and from
/// [`super::group::hash_group_column`] otherwise.
pub fn set_aggregate(ctx: &ExecCtx, f: AggFunc, ab: &Bat) -> Result<Bat> {
    ctx.probe("op/set-aggregate")?;
    let started = Instant::now();
    let faults0 = ctx.faults();
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
    let n = ab.len();
    let key = MemoKey::Grouping(h.identity());
    let (Grouping { gid_of: gid, reps: rep }, algo) = match ctx.memo_get(key) {
        Some(Memoized::Grouping(g)) => (g, "memo"),
        _ => {
            if let Some(p) = ctx.pager.as_deref() {
                pager::touch_scan(p, h);
            }
            let (gid_of, rep, algo) = if ab.props().head.sorted {
                crate::for_each_typed!(h, |hv| {
                    let mut gid_of: Vec<u32> = Vec::with_capacity(n);
                    let mut rep: Vec<u32> = Vec::new();
                    let mut g: u32 = 0;
                    for i in 0..n {
                        if i > 0 && !hv.eq_one(hv.value(i), hv.value(i - 1)) {
                            g += 1;
                        }
                        if rep.len() == g as usize {
                            rep.push(i as u32);
                        }
                        gid_of.push(g);
                    }
                    (gid_of, rep, "merge")
                })
            } else {
                super::group::hash_group_column(ctx, h, super::par_threads(ctx, n))?
            };
            let g = Grouping { gid_of: Arc::new(gid_of), reps: Arc::new(rep) };
            ctx.memo_insert(key, Memoized::Grouping(g.clone()));
            (g, algo)
        }
    };

    // Aggregate each group's tail values through per-morsel partial
    // accumulators combined in morsel order (see `group_partials` for the
    // determinism argument); the gid vector is shared read-only with the
    // workers.
    let ngroups = rep.len();
    let t = ab.tail();
    let threads = super::par_threads(ctx, n);
    let tail: Column = match f {
        AggFunc::Count => {
            let g = Arc::clone(&gid);
            let counts = group_partials(
                ctx,
                n,
                threads,
                ngroups,
                0i64,
                true,
                move |r, buf| {
                    for i in r {
                        buf[g[i] as usize] += 1;
                    }
                },
                |total, part| {
                    for (tg, &p) in total.iter_mut().zip(part) {
                        *tg += p;
                    }
                },
            )?;
            Column::from_lngs(counts)
        }
        AggFunc::Sum => match tail_ty {
            AtomType::Int | AtomType::Lng => {
                let g = Arc::clone(&gid);
                let col = t.decoded();
                let wide = tail_ty == AtomType::Lng;
                let sums = group_partials(
                    ctx,
                    n,
                    threads,
                    ngroups,
                    0i64,
                    true,
                    move |r, buf| {
                        if wide {
                            let slice = col.as_lng_slice().expect("lng tail");
                            for i in r {
                                buf[g[i] as usize] += slice[i];
                            }
                        } else {
                            let slice = col.as_int_slice().expect("int tail");
                            for i in r {
                                buf[g[i] as usize] += slice[i] as i64;
                            }
                        }
                    },
                    |total, part| {
                        for (tg, &p) in total.iter_mut().zip(part) {
                            *tg += p;
                        }
                    },
                )?;
                Column::from_lngs(sums)
            }
            _ => {
                let g = Arc::clone(&gid);
                let col = t.decoded();
                let sums = group_partials(
                    ctx,
                    n,
                    threads,
                    ngroups,
                    0f64,
                    false,
                    move |r, buf| {
                        let slice = col.as_dbl_slice().expect("dbl tail");
                        for i in r {
                            buf[g[i] as usize] += slice[i];
                        }
                    },
                    |total, part| {
                        for (tg, &p) in total.iter_mut().zip(part) {
                            *tg += p;
                        }
                    },
                )?;
                Column::from_dbls(sums)
            }
        },
        AggFunc::Avg => {
            let g = Arc::clone(&gid);
            let col = t.decoded();
            let acc = group_partials(
                ctx,
                n,
                threads,
                ngroups,
                (0f64, 0u64),
                false,
                move |r, buf| match col.atom_type() {
                    AtomType::Int => {
                        let slice = col.as_int_slice().expect("int tail");
                        for i in r {
                            let b = &mut buf[g[i] as usize];
                            b.0 += slice[i] as f64;
                            b.1 += 1;
                        }
                    }
                    AtomType::Lng => {
                        let slice = col.as_lng_slice().expect("lng tail");
                        for i in r {
                            let b = &mut buf[g[i] as usize];
                            b.0 += slice[i] as f64;
                            b.1 += 1;
                        }
                    }
                    _ => {
                        let slice = col.as_dbl_slice().expect("dbl tail");
                        for i in r {
                            let b = &mut buf[g[i] as usize];
                            b.0 += slice[i];
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
            )?;
            Column::from_dbls(acc.iter().map(|(s, c)| s / *c as f64).collect())
        }
        AggFunc::Min | AggFunc::Max => {
            // Per-morsel first-winner rows per group; merged in morsel
            // order with the same strict-improvement rule, so each group's
            // winner is its earliest extreme row — identical to the serial
            // scan seeded with the group representatives.
            let g = Arc::clone(&gid);
            let col = t.clone();
            let minimize = f == AggFunc::Min;
            let best = group_partials(
                ctx,
                n,
                threads,
                ngroups,
                u32::MAX,
                true,
                move |r, buf| {
                    crate::for_each_typed!(&col, |tv| {
                        for i in r.clone() {
                            let b = &mut buf[g[i] as usize];
                            if *b == u32::MAX {
                                *b = i as u32;
                                continue;
                            }
                            let c = tv.cmp_one(tv.value(i), tv.value(*b as usize));
                            if if minimize { c.is_lt() } else { c.is_gt() } {
                                *b = i as u32;
                            }
                        }
                    })
                },
                |total, part| {
                    crate::for_each_typed!(t, |tv| {
                        for (tg, &p) in total.iter_mut().zip(part) {
                            if p == u32::MAX {
                                continue;
                            }
                            if *tg == u32::MAX {
                                *tg = p;
                                continue;
                            }
                            let c = tv.cmp_one(tv.value(p as usize), tv.value(*tg as usize));
                            if if minimize { c.is_lt() } else { c.is_gt() } {
                                *tg = p;
                            }
                        }
                    })
                },
            )?;
            t.gather(&best)
        }
    };

    let head = h.gather(&rep);
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
    ctx.record("set-aggregate", algo, started, faults0, &[ab], &result)?;
    Ok(result)
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
        let ctx = ExecCtx::new().with_trace();
        let b = Bat::with_props(
            Column::from_oids(vec![1, 1, 2, 3, 3]),
            Column::from_ints(vec![4, 6, 10, 1, 1]),
            Props::new(ColProps::SORTED, ColProps::NONE),
        );
        let r = set_aggregate(&ctx, AggFunc::Sum, &b).unwrap();
        assert_eq!(ctx.take_trace()[0].algo, "merge");
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
