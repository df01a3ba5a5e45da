//! Selection: `AB.select(T)` and `AB.select(Tl,Th)` of Figure 4.
//!
//! `select` returns the BUNs whose *tail* matches the predicate. When the
//! tail is stored in ascending order — the load pipeline of Section 6 keeps
//! every attribute BAT sorted on tail exactly for this — the operator uses
//! probe-based binary search and returns a zero-copy slice of the operand;
//! otherwise it scans.

use crate::atom::AtomValue;
use crate::bat::Bat;
use crate::column::Column;
use crate::ctx::ExecCtx;
use crate::error::Result;
use crate::pager;
use crate::props::{ColProps, Enc, Props};
use crate::typed::{lower_bound_by, upper_bound_by, TypedVals};

use super::check_comparable;

/// Point selection: `{ab | ab ∈ AB ∧ b = v}`.
pub fn select_eq(ctx: &ExecCtx, ab: &Bat, v: &AtomValue) -> Result<Bat> {
    select(ctx, ab, Some(v), Some(v), true, true, true)
}

/// Range selection: `{ab | ab ∈ AB ∧ lo ≤ b ≤ hi}` with configurable bound
/// inclusivity; `None` leaves that side unbounded.
pub fn select_range(
    ctx: &ExecCtx,
    ab: &Bat,
    lo: Option<&AtomValue>,
    hi: Option<&AtomValue>,
    inc_lo: bool,
    inc_hi: bool,
) -> Result<Bat> {
    select(ctx, ab, lo, hi, inc_lo, inc_hi, false)
}

/// The one select dispatch; `point` marks an equality predicate (both
/// bounds one inclusive constant), whose result tail is constant.
fn select(
    ctx: &ExecCtx,
    ab: &Bat,
    lo: Option<&AtomValue>,
    hi: Option<&AtomValue>,
    inc_lo: bool,
    inc_hi: bool,
    point: bool,
) -> Result<Bat> {
    ctx.probe("op/select")?;
    for v in [lo, hi].into_iter().flatten() {
        check_comparable("select", ab.tail().atom_type(), v.atom_type())?;
    }
    // The dict check comes before sorted: the code-range path subsumes the
    // sorted one on dict tails (a sorted dict tail binary-searches its
    // codes and returns the same zero-copy slice).
    let (result, algo) = if ab.tail().encoding() == Enc::Dict {
        (select_dict(ctx, ab, lo, hi, inc_lo, inc_hi, point)?, "dict-code")
    } else if ab.props().tail.sorted {
        (select_sorted(ctx, ab, lo, hi, inc_lo, inc_hi), "binary-search")
    } else {
        (select_scan(ctx, ab, lo, hi, inc_lo, inc_hi, point)?, "scan")
    };
    ctx.record("select", algo, &[ab], &result)?;
    Ok(result)
}

/// Binary-search selection on a tail-sorted BAT: zero-copy slice.
fn select_sorted(
    ctx: &ExecCtx,
    ab: &Bat,
    lo: Option<&AtomValue>,
    hi: Option<&AtomValue>,
    inc_lo: bool,
    inc_hi: bool,
) -> Bat {
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_binary_search(p, ab.tail());
    }
    let (start, end) =
        crate::for_each_typed!(ab.tail(), |t| bound_range(t, lo, hi, inc_lo, inc_hi));
    let (start, end) = (start.min(ab.len()), end.min(ab.len()));
    let result = if start >= end { ab.slice(0, 0) } else { ab.slice(start, end - start) };
    if let Some(p) = ctx.pager.as_deref() {
        // Reading the qualifying range of the inverted list touches both
        // columns of the matching BUNs (the sX/C_inv term of the cost
        // model in Section 5.2.2).
        pager::touch_scan(p, result.head());
        pager::touch_scan(p, result.tail());
    }
    result
}

/// Scan selection: each morsel ([`super::for_each_morsel`]) runs
/// [`select_window`] and the matching global positions are concatenated in
/// morsel (= row) order.
fn select_scan(
    ctx: &ExecCtx,
    ab: &Bat,
    lo: Option<&AtomValue>,
    hi: Option<&AtomValue>,
    inc_lo: bool,
    inc_hi: bool,
    point: bool,
) -> Result<Bat> {
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, ab.tail());
    }
    let parts = super::for_each_morsel(ctx, ab.len(), |r| {
        let w = ab.tail().slice(r.start, r.len());
        let mut idx = select_window(&w, lo, hi, inc_lo, inc_hi);
        for i in &mut idx {
            *i += r.start as u32;
        }
        idx
    })?;
    let idx = parts.concat();
    if let Some(p) = ctx.pager.as_deref() {
        for &i in &idx {
            pager::touch_fetch(p, ab.head(), i as usize);
        }
    }
    Ok(build_selected(ab, &idx, point))
}

/// The select window kernel — the only range-predicate row loop: the
/// window-local indices of the rows matching the bounds, in row order. A
/// dict-encoded window compares plain codes against the half-open code
/// range the bounds resolve to; every other layout runs one monomorphized
/// typed loop (an equality loop when the bounds are one point).
fn select_window(
    w: &Column,
    lo: Option<&AtomValue>,
    hi: Option<&AtomValue>,
    inc_lo: bool,
    inc_hi: bool,
) -> Vec<u32> {
    let mut idx: Vec<u32> = Vec::new();
    if w.encoding() == Enc::Dict {
        let d = dict_vals(w);
        let (code_lo, code_hi) = dict_code_range(&d, lo, hi, inc_lo, inc_hi);
        let codes = d.codes();
        for i in 0..codes.len() {
            let c = codes.get(i);
            if c >= code_lo && c < code_hi {
                idx.push(i as u32);
            }
        }
        return idx;
    }
    // A point predicate (both bounds one constant, inclusive) is a single
    // equality test per row. Run through the two-sided loop it costs a
    // coin-flip branch per row on unordered data — every value at or above
    // the constant passes the first test to fail the second — 6.3 ns/row
    // where this loop scans at 1 ns/row.
    let point = match (lo, hi) {
        (Some(l), Some(h)) if inc_lo && inc_hi && l == h => Some(l),
        _ => None,
    };
    crate::for_each_typed!(w, |t| {
        if let Some(v) = point {
            for i in 0..t.len() {
                if t.cmp_atom(t.value(i), v).is_eq() {
                    idx.push(i as u32);
                }
            }
        } else {
            'row: for i in 0..t.len() {
                let x = t.value(i);
                if let Some(v) = lo {
                    let c = t.cmp_atom(x, v);
                    if c.is_lt() || (!inc_lo && c.is_eq()) {
                        continue 'row;
                    }
                }
                if let Some(v) = hi {
                    let c = t.cmp_atom(x, v);
                    if c.is_gt() || (!inc_hi && c.is_eq()) {
                        continue 'row;
                    }
                }
                idx.push(i as u32);
            }
        }
    });
    idx
}

fn dict_vals(c: &Column) -> crate::typed::DictStrVals<'_> {
    match c.typed() {
        crate::typed::TypedSlice::DictStr(d) => d,
        _ => unreachable!("dict-code select dispatched on a non-dict tail"),
    }
}

/// Resolve string bounds to a half-open code range: the dictionary is
/// sorted, so string order equals code order and two binary searches over
/// the (small) dictionary replace every per-row string comparison.
fn dict_code_range(
    d: &crate::typed::DictStrVals<'_>,
    lo: Option<&AtomValue>,
    hi: Option<&AtomValue>,
    inc_lo: bool,
    inc_hi: bool,
) -> (u64, u64) {
    let (start, end) = bound_range(d.dict(), lo, hi, inc_lo, inc_hi);
    (start as u64, end as u64)
}

/// The rows `[start, end)` of an ascending window that lie within the
/// bounds: two binary searches.
fn bound_range<V: TypedVals>(
    t: V,
    lo: Option<&AtomValue>,
    hi: Option<&AtomValue>,
    inc_lo: bool,
    inc_hi: bool,
) -> (usize, usize) {
    let start = match lo {
        Some(v) if inc_lo => lower_bound_by(t, |x| t.cmp_atom(x, v)),
        Some(v) => upper_bound_by(t, |x| t.cmp_atom(x, v)),
        None => 0,
    };
    let end = match hi {
        Some(v) if inc_hi => upper_bound_by(t, |x| t.cmp_atom(x, v)),
        Some(v) => lower_bound_by(t, |x| t.cmp_atom(x, v)),
        None => t.len(),
    };
    (start, end)
}

/// Dict-code selection: the predicate becomes a code range
/// ([`dict_code_range`]). A tail-sorted operand binary-searches the codes
/// and returns a zero-copy slice (exactly the result of the raw
/// binary-search path); an unsorted one takes the scan, whose window
/// kernel compares codes.
fn select_dict(
    ctx: &ExecCtx,
    ab: &Bat,
    lo: Option<&AtomValue>,
    hi: Option<&AtomValue>,
    inc_lo: bool,
    inc_hi: bool,
    point: bool,
) -> Result<Bat> {
    if !ab.props().tail.sorted {
        return select_scan(ctx, ab, lo, hi, inc_lo, inc_hi, point);
    }
    // Codes ascend with the strings, so binary-search the code window and
    // slice; positionally identical to the raw binary-search path.
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_binary_search(p, ab.tail());
    }
    let (start, end) = {
        let d = dict_vals(ab.tail());
        let (code_lo, code_hi) = dict_code_range(&d, lo, hi, inc_lo, inc_hi);
        let codes = d.codes();
        (codes.partition_point(|c| c < code_lo), codes.partition_point(|c| c < code_hi))
    };
    let result = if start >= end { ab.slice(0, 0) } else { ab.slice(start, end - start) };
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, result.head());
        pager::touch_scan(p, result.tail());
    }
    Ok(result)
}

/// The `select` propagation rule (Section 5.1), shared by every
/// implementation and reused by the plan optimizer's static property
/// inference: subsequences preserve `sorted`/`key` of both columns but not
/// density; a point selection additionally makes the tail constant, hence
/// sorted. Holds for the zero-copy binary-search slice too (which at run
/// time may claim *more*, e.g. a still-dense head).
pub fn propagated_props(src: Props, point: bool) -> Props {
    Props::new(
        ColProps { sorted: src.head.sorted, key: src.head.key, dense: false, ..ColProps::NONE },
        ColProps {
            sorted: src.tail.sorted || point,
            key: src.tail.key,
            dense: false,
            ..ColProps::NONE
        },
    )
}

/// Materialize a selection given matching positions in ascending order.
fn build_selected(ab: &Bat, idx: &[u32], point: bool) -> Bat {
    let head = ab.head().gather(idx);
    let tail = ab.tail().gather(idx);
    let mut props = propagated_props(ab.props(), point);
    // Runtime-only strengthening the static rule cannot claim: a point
    // selection with at most one hit is trivially duplicate-free.
    props.tail.key = props.tail.key || (point && idx.len() <= 1);
    Bat::with_props(head, tail, props)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomType;
    use crate::column::Column;

    fn clerk_bat() -> Bat {
        // Tail-sorted, like a loaded attribute BAT.
        Bat::with_inferred_props(
            Column::from_oids(vec![4, 2, 7, 1, 5]),
            Column::from_strs(["a", "b", "b", "c", "d"]),
        )
    }

    #[test]
    fn point_select_on_sorted_is_slice() {
        let ctx = ExecCtx::new();
        let b = clerk_bat();
        assert!(b.props().tail.sorted);
        let r = select_eq(&ctx, &b, &AtomValue::str("b")).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.bun(0), (AtomValue::Oid(2), AtomValue::str("b")));
        assert_eq!(r.bun(1), (AtomValue::Oid(7), AtomValue::str("b")));
        // zero copy: same storage identity as the operand
        assert_eq!(r.head().storage_id(), b.head().storage_id());
    }

    #[test]
    fn point_select_miss_is_empty() {
        let ctx = ExecCtx::new();
        let b = clerk_bat();
        let r = select_eq(&ctx, &b, &AtomValue::str("zz")).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn scan_select_unsorted() {
        let ctx = ExecCtx::new();
        let b = Bat::new(Column::from_oids(vec![1, 2, 3, 4]), Column::from_ints(vec![9, 5, 9, 1]));
        let r = select_eq(&ctx, &b, &AtomValue::Int(9)).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.head().as_oid_slice().unwrap(), &[1, 3]);
        assert!(r.props().tail.sorted); // constant tail
        assert!(r.validate().is_ok());
    }

    #[test]
    fn range_select_sorted_and_unsorted_agree() {
        let ctx = ExecCtx::new();
        let vals = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let unsorted =
            Bat::new(Column::from_oids((0..8).collect()), Column::from_ints(vals.clone()));
        let perm = unsorted.tail().sort_perm();
        let sorted =
            Bat::with_inferred_props(unsorted.head().gather(&perm), unsorted.tail().gather(&perm));
        for (lo, hi, il, ih) in [(2, 5, true, true), (2, 5, false, true), (1, 9, true, false)] {
            let a = select_range(
                &ctx,
                &unsorted,
                Some(&AtomValue::Int(lo)),
                Some(&AtomValue::Int(hi)),
                il,
                ih,
            )
            .unwrap();
            let b = select_range(
                &ctx,
                &sorted,
                Some(&AtomValue::Int(lo)),
                Some(&AtomValue::Int(hi)),
                il,
                ih,
            )
            .unwrap();
            let mut av: Vec<_> = a.iter().collect();
            let mut bv: Vec<_> = b.iter().collect();
            av.sort_by(|x, y| x.0.cmp_same_type(&y.0));
            bv.sort_by(|x, y| x.0.cmp_same_type(&y.0));
            assert_eq!(av, bv, "range [{lo},{hi}] il={il} ih={ih}");
        }
    }

    #[test]
    fn half_open_ranges() {
        let ctx = ExecCtx::new();
        let b = Bat::with_inferred_props(
            Column::from_oids(vec![1, 2, 3]),
            Column::from_ints(vec![10, 20, 30]),
        );
        let r = select_range(&ctx, &b, Some(&AtomValue::Int(20)), None, true, true).unwrap();
        assert_eq!(r.len(), 2);
        let r = select_range(&ctx, &b, None, Some(&AtomValue::Int(20)), true, false).unwrap();
        assert_eq!(r.len(), 1);
    }

    // Long values so dictionary encoding passes its size gate.
    fn w(s: &str) -> String {
        format!("Clerk#00000000{s}")
    }

    fn dict_bat(sorted_tail: bool) -> Bat {
        let strs: Vec<String> = if sorted_tail {
            ["a", "b", "b", "c", "d", "d"].map(|s| w(s)).to_vec()
        } else {
            ["d", "b", "a", "b", "d", "c"].map(|s| w(s)).to_vec()
        };
        let tail = Column::from_strs(strs).encode();
        assert_eq!(tail.encoding(), crate::props::Enc::Dict);
        Bat::with_inferred_props(Column::from_oids((0..6).collect()), tail)
    }

    #[test]
    fn dict_select_eq_matches_decoded() {
        let ctx = ExecCtx::new();
        for sorted in [true, false] {
            let b = dict_bat(sorted);
            let raw = Bat::with_inferred_props(b.head().clone(), b.tail().decoded());
            for probe in [w("a"), w("b"), w("d"), w("zz"), String::new()] {
                let e = select_eq(&ctx, &b, &AtomValue::str(&*probe)).unwrap();
                assert_eq!(ctx.take_algo(), "dict-code", "sorted={sorted}");
                let r = select_eq(&ctx, &raw, &AtomValue::str(&*probe)).unwrap();
                let ev: Vec<_> = e.iter().collect();
                let rv: Vec<_> = r.iter().collect();
                assert_eq!(ev, rv, "probe {probe} sorted={sorted}");
            }
        }
    }

    #[test]
    fn dict_select_range_matches_decoded() {
        let ctx = ExecCtx::new();
        for sorted in [true, false] {
            let b = dict_bat(sorted);
            let raw = Bat::with_inferred_props(b.head().clone(), b.tail().decoded());
            for (lo, hi, il, ih) in [
                (Some("a"), Some("c"), true, true),
                (Some("a"), Some("c"), false, false),
                (Some("b"), None, true, true),
                (None, Some("b"), true, false),
                (None, None, true, true),
                (Some("bb"), Some("cz"), true, true),
            ] {
                let lo = lo.map(|s| AtomValue::str(w(s)));
                let hi = hi.map(|s| AtomValue::str(w(s)));
                let e = select_range(&ctx, &b, lo.as_ref(), hi.as_ref(), il, ih).unwrap();
                let r = select_range(&ctx, &raw, lo.as_ref(), hi.as_ref(), il, ih).unwrap();
                let ev: Vec<_> = e.iter().collect();
                let rv: Vec<_> = r.iter().collect();
                assert_eq!(ev, rv, "[{lo:?},{hi:?}] il={il} ih={ih} sorted={sorted}");
            }
        }
    }

    #[test]
    fn dict_select_on_sorted_tail_is_zero_copy_slice() {
        let ctx = ExecCtx::new();
        let b = dict_bat(true);
        let r = select_eq(&ctx, &b, &AtomValue::str(w("b"))).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.head().storage_id(), b.head().storage_id());
        // The slice of a dict column is still dict-encoded.
        assert_eq!(r.tail().encoding(), crate::props::Enc::Dict);
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let ctx = ExecCtx::new();
        let b = clerk_bat();
        assert!(select_eq(&ctx, &b, &AtomValue::Int(1)).is_err());
        let _ = AtomType::Int;
    }

    #[test]
    fn empty_bat_select() {
        let ctx = ExecCtx::new();
        let b = Bat::with_inferred_props(Column::from_oids(vec![]), Column::from_ints(vec![]));
        let r = select_eq(&ctx, &b, &AtomValue::Int(5)).unwrap();
        assert!(r.is_empty());
    }
}
