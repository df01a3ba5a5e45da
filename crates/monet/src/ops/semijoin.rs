//! Semijoin: `AB.semijoin(CD) = {ab | ab ∈ AB ∧ ∃cd ∈ CD: a = c}`.
//!
//! "The semijoin operation is important, since it is heavily used for
//! re-assembling vertically partitioned fragments" (Section 4.2). The
//! kernel contains multiple implementations and chooses at run time
//! (Section 5.1/5.2.1), in this order:
//!
//! * `sync` — the join columns are exactly equal: return a copy of the
//!   left operand;
//! * `positional` — the left head is `dense` and the right head sorted: a
//!   dense head is addressed, never merged — the matches sit at
//!   `oid − base`, found in one pass over the *right* head alone, and a
//!   right head that survives whole (duplicate-free, inside the left
//!   domain) **is** the result head, so every sibling
//!   `semijoin(attr, selected)` is synced by construction;
//! * `merge` — both heads sorted, the left one not dense: linear
//!   two-pointer pass;
//! * `datavector` — the left operand carries a datavector and the right
//!   head is a (duplicate-free) oid selection: positional fetch through the
//!   memoized LOOKUP array (the one variant emitting in *right* order);
//! * `bitmap` — oid heads and a right head whose min/max span is compact
//!   ([`crate::costmodel::semijoin_prefers_bitmap`]): one bit per oid of
//!   the span from the scratch pool, tested once per left BUN — or, over a
//!   `dense` left head, enumerated: the set bits *are* the positions;
//! * `hash` — the general fallback.
//!
//! The antijoin has the `sync`, `bitmap` and `hash` variants; `bitmap` and
//! `hash` are one function each for both operators (`keep` flips the
//! membership test).

use crate::bat::Bat;
use crate::column::Column;
use crate::ctx::ExecCtx;
use crate::error::Result;
use crate::pager;
use crate::props::{ColProps, Props};
use crate::typed::{OidDomain, TypedVals};

use super::check_comparable;

/// Dynamic-dispatch semijoin.
pub fn semijoin(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Result<Bat> {
    ctx.probe("op/semijoin")?;
    check_comparable("semijoin", ab.head().atom_type(), cd.head().atom_type())?;
    let (result, algo) = if ab.synced(cd) {
        (semijoin_sync(ab), "sync")
    } else if ab.props().head.dense && cd.props().head.sorted {
        (semijoin_positional(ctx, ab, cd), "positional")
    } else if ab.props().head.sorted && cd.props().head.sorted {
        (semijoin_merge(ctx, ab, cd), "merge")
    } else if ab.accel().datavector.is_some() && cd.head().is_oidlike() && cd.props().head.key {
        let dv = ab.accel().datavector.clone().unwrap();
        (semijoin_datavector(ctx, &dv, cd), "datavector")
    } else {
        subset(ctx, ab, cd, true)
    };
    ctx.record("semijoin", algo, &[ab, cd], &result)?;
    Ok(result)
}

/// Anti-semijoin (`kdiff`): `{ab | ab ∈ AB ∧ ¬∃cd ∈ CD: a = c}` — the
/// building block for MOA `difference` on identified sets.
pub fn antijoin(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Result<Bat> {
    ctx.probe("op/antijoin")?;
    check_comparable("antijoin", ab.head().atom_type(), cd.head().atom_type())?;
    let (result, algo) =
        if ab.synced(cd) { (ab.slice(0, 0), "sync") } else { subset(ctx, ab, cd, false) };
    ctx.record("antijoin", algo, &[ab, cd], &result)?;
    Ok(result)
}

/// The left-order membership filter behind both operators: AB's BUNs whose
/// head is (`keep`) or is not (`!keep`) among CD's heads, by bitmap when
/// the right head is a compact oid domain, by hash otherwise.
fn subset(ctx: &ExecCtx, ab: &Bat, cd: &Bat, keep: bool) -> (Bat, &'static str) {
    match bitmap_domain(ctx, ab, cd) {
        Some(dom) => (subset_bitmap(ctx, ab, cd, dom, keep), "bitmap"),
        None => (subset_hash(ctx, ab, cd, keep), "hash"),
    }
}

/// The compact domain of the right head, when the `bitmap` arm applies:
/// oid heads and a span the cost model accepts.
fn bitmap_domain(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Option<OidDomain> {
    if !(ab.head().is_oidlike() && cd.head().is_oidlike()) {
        return None;
    }
    let dom = OidDomain::covering(cd.head(), cd.props().head.sorted)?;
    crate::costmodel::semijoin_prefers_bitmap(ctx, dom.span, ab.len(), cd.len()).then_some(dom)
}

/// `syncsemijoin`: join columns exactly equal — a copy of the left operand.
fn semijoin_sync(ab: &Bat) -> Bat {
    ab.clone()
}

/// Positional semijoin under a dense left head: one pass over the sorted
/// right head, each oid inside the left domain a match at `oid - base`
/// (adjacent duplicates once) — the left head is never read.
fn semijoin_positional(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Bat {
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, cd.head());
    }
    let dom = OidDomain::of_dense(ab.head());
    let idx = crate::for_each_oidlike!(cd.head(), |ch| {
        let mut idx = crate::typed::take_u32(ch.len().min(ab.len()));
        let mut last = None;
        for j in 0..ch.len() {
            if let Some(k) = dom.slot(ch.value(j)) {
                if last != Some(k) {
                    idx.push(k as u32);
                    last = Some(k);
                }
            }
        }
        idx
    });
    build_subset(ctx, ab, idx, Some(cd.head()))
}

/// Merge semijoin over two head-sorted operands; emits left BUNs in order.
fn semijoin_merge(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Bat {
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, ab.head());
        pager::touch_scan(p, cd.head());
    }
    let idx = crate::for_each_typed2!(ab.head(), cd.head(), |ah, ch| {
        let mut idx = crate::typed::take_u32(ab.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < ah.len() && j < ch.len() {
            match ah.cmp_one(ah.value(i), ch.value(j)) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    idx.push(i as u32);
                    i += 1;
                    // j stays: further equal a's match the same c.
                }
            }
        }
        idx
    });
    build_subset(ctx, ab, idx, None)
}

/// Datavector semijoin (pseudo code of Section 5.2.1): fetch head/tail
/// positionally through the (memoized) LOOKUP array; result is in
/// right-operand order and its head column is *shared* across semijoins
/// with the same selection, making those results synced.
fn semijoin_datavector(ctx: &ExecCtx, dv: &crate::accel::datavector::Datavector, cd: &Bat) -> Bat {
    let cp = cd.props();
    // Positions follow right-operand order; the extent is ascending, so the
    // result head is sorted/key exactly when the right head is.
    let props = Props::new(
        ColProps { sorted: cp.head.sorted, key: cp.head.key, dense: false, ..ColProps::NONE },
        ColProps::NONE,
    );
    if cd.head().identity() == dv.extent().oids().identity() {
        // The right operand is the class extent itself: every object
        // matches at its own position, so the result is the extent next to
        // the value vector — no LOOKUP, nothing to gather, and (sharing the
        // extent column) synced with every sibling attribute's result.
        if let Some(p) = ctx.pager.as_deref() {
            pager::touch_scan(p, dv.vector());
        }
        return Bat::with_props(cd.head().clone(), dv.vector().clone(), props);
    }
    let lookup = dv.lookup(ctx, cd.head());
    if let Some(p) = ctx.pager.as_deref() {
        for &pos in lookup.positions.iter() {
            pager::touch_fetch(p, dv.vector(), pos as usize);
        }
    }
    let tail = dv.vector().gather(&lookup.positions);
    Bat::with_props(lookup.head.clone(), tail, props)
}

/// Bitmap semijoin/antijoin: set one bit per right head oid over its
/// compact domain, then test each left head in order — or, keeping the
/// matches of a `dense` left head, enumerate the set bits: bit `k` is oid
/// `dom.base + k`, which sits at that oid's slot of the left domain.
fn subset_bitmap(ctx: &ExecCtx, ab: &Bat, cd: &Bat, dom: OidDomain, keep: bool) -> Bat {
    let enumerate = keep && ab.props().head.dense;
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, cd.head());
        if !enumerate {
            pager::touch_scan(p, ab.head());
        }
    }
    let mut bits = crate::typed::take_u64_zeroed(dom.span.div_ceil(64));
    crate::for_each_oidlike!(cd.head(), |ch| {
        for j in 0..ch.len() {
            let k = (ch.value(j) - dom.base) as usize;
            bits[k / 64] |= 1 << (k % 64);
        }
    });
    let idx = if enumerate {
        let left = OidDomain::of_dense(ab.head());
        let mut idx = crate::typed::take_u32(cd.len().min(ab.len()));
        for (w, &word) in bits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let k = w * 64 + word.trailing_zeros() as usize;
                if let Some(pos) = left.slot(dom.base + k as u64) {
                    idx.push(pos as u32);
                }
                word &= word - 1;
            }
        }
        idx
    } else {
        crate::for_each_oidlike!(ab.head(), |ah| {
            let mut idx = crate::typed::take_u32(ah.len());
            for i in 0..ah.len() {
                let hit = dom.slot(ah.value(i)).is_some_and(|k| bits[k / 64] >> (k % 64) & 1 == 1);
                if hit == keep {
                    idx.push(i as u32);
                }
            }
            idx
        })
    };
    crate::typed::put_u64(bits);
    build_subset(ctx, ab, idx, None)
}

/// Hash semijoin/antijoin: hash the right heads, scan the left operand in
/// order.
fn subset_hash(ctx: &ExecCtx, ab: &Bat, cd: &Bat, keep: bool) -> Bat {
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, cd.head());
        pager::touch_scan(p, ab.head());
    }
    let rindex = crate::accel::hash::HashIndex::build(cd.head());
    let idx = crate::for_each_typed2!(ab.head(), cd.head(), |ah, ch| {
        let mut idx = crate::typed::take_u32(ab.len());
        for i in 0..ah.len() {
            let v = ah.value(i);
            let h = ah.hash_one(v);
            if rindex.candidates(h).any(|p| ch.eq_one(ch.value(p), v)) == keep {
                idx.push(i as u32);
            }
        }
        idx
    });
    build_subset(ctx, ab, idx, None)
}

/// The subset propagation rule (Section 5.1): "a semijoin will propagate
/// the key properties on both head and tail of its left operand onto the
/// result" — and order survives subsequences too. Shared by `semijoin`,
/// `antijoin` and the pair-set `diff`/`intersect`, and reused by the plan
/// optimizer's static property inference. Note the rule covers only the
/// left-order implementations; the datavector variant emits in *right*
/// operand order, so the optimizer weakens its prediction when a
/// datavector may be in play.
pub fn propagated_props(ab: Props) -> Props {
    Props::new(
        ColProps { sorted: ab.head.sorted, key: ab.head.key, dense: false, ..ColProps::NONE },
        ColProps { sorted: ab.tail.sorted, key: ab.tail.key, dense: false, ..ColProps::NONE },
    )
}

/// A subset of AB's BUNs in AB order, from a pooled position vector
/// (returned to the pool here). A subset that kept every BUN shares AB's
/// columns, so it stays synced with AB and its siblings. `sel_head` is a
/// selection whose oids, in order, the positions were derived from: when
/// none of them was dropped it *is* the subset's head and is shared
/// instead of gathered, so subsets by one selection are synced too.
fn build_subset(ctx: &ExecCtx, ab: &Bat, idx: Vec<u32>, sel_head: Option<&Column>) -> Bat {
    if let Some(p) = ctx.pager.as_deref() {
        for &i in &idx {
            pager::touch_fetch(p, ab.tail(), i as usize);
        }
    }
    let (head, tail) = if idx.len() == ab.len() {
        (ab.head().clone(), ab.tail().clone())
    } else {
        let head = match sel_head {
            Some(h) if h.len() == idx.len() => h.clone(),
            _ => ab.head().gather(&idx),
        };
        (head, ab.tail().gather(&idx))
    };
    crate::typed::put_u32(idx);
    Bat::with_props(head, tail, propagated_props(ab.props()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::datavector::Datavector;
    use crate::atom::AtomValue;
    use crate::column::Column;

    fn attr_bat() -> Bat {
        Bat::new(
            Column::from_oids(vec![10, 11, 12, 13, 14]),
            Column::from_ints(vec![5, 3, 9, 3, 7]),
        )
    }

    fn selection(oids: Vec<u64>) -> Bat {
        Bat::with_inferred_props(Column::from_oids(oids), Column::void(0, 0).slice(0, 0))
    }

    fn sel(oids: Vec<u64>) -> Bat {
        let n = oids.len();
        Bat::with_inferred_props(Column::from_oids(oids), Column::void(0, n))
    }

    #[test]
    fn hash_semijoin_filters_in_left_order() {
        let ctx = ExecCtx::new();
        let ab = attr_bat();
        let cd = sel(vec![13, 10, 99]);
        let r = semijoin(&ctx, &ab, &cd).unwrap();
        assert_eq!(r.head().as_oid_slice().unwrap(), &[10, 13]);
        assert_eq!(r.tail().as_int_slice().unwrap(), &[5, 3]);
    }

    #[test]
    fn merge_semijoin_when_both_sorted() {
        let ctx = ExecCtx::new();
        let ab = Bat::with_inferred_props(
            Column::from_oids(vec![1, 2, 2, 5, 8]),
            Column::from_ints(vec![10, 20, 21, 50, 80]),
        );
        let cd = sel(vec![2, 5, 9]);
        let r = semijoin(&ctx, &ab, &cd).unwrap();
        assert_eq!(r.head().as_oid_slice().unwrap(), &[2, 2, 5]);
        assert_eq!(ctx.take_algo(), "merge");
        assert!(r.validate().is_ok());
    }

    #[test]
    fn positional_semijoin_reads_only_the_selection_and_the_fetched_tail() {
        // 64 Ki materialized dense oids on the left: merging would scan all
        // 128 head pages; addressing reads the three selected oids and
        // fetches three tail values.
        let n = 1 << 16;
        let ab = Bat::with_inferred_props(
            Column::from_oids((100..100 + n).collect()),
            Column::from_lngs((0..n as i64).collect()),
        );
        let cd = sel(vec![100, 40_000, 100 + n - 1]);
        let pager = std::sync::Arc::new(crate::pager::Pager::new(4096));
        let ctx = ExecCtx::new().with_pager(pager);
        let faults0 = ctx.faults();
        let r = semijoin(&ctx, &ab, &cd).unwrap();
        let faults = ctx.faults() - faults0;
        assert_eq!(
            (ctx.take_algo(), faults),
            ("positional", 4),
            "one head page + three tail pages"
        );
        assert_eq!(r.tail().as_lng_slice().unwrap(), &[0, 39_900, n as i64 - 1]);
        assert_eq!(r.head().identity(), cd.head().identity());
        assert!(r.validate().is_ok());
    }

    #[test]
    fn sync_semijoin_returns_copy() {
        let ctx = ExecCtx::new();
        let head = Column::from_oids(vec![3, 1, 2]);
        let ab = Bat::new(head.clone(), Column::from_ints(vec![30, 10, 20]));
        let cd = Bat::new(head, Column::from_dbls(vec![0.3, 0.1, 0.2]));
        let r = semijoin(&ctx, &ab, &cd).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(ctx.take_algo(), "sync");
        assert!(r.synced(&ab));
    }

    #[test]
    fn datavector_semijoin_and_synced_results() {
        let ctx = ExecCtx::new();
        // Two attributes of the same class, both tail-unsorted w.r.t. oid,
        // each with a datavector over the *shared* class extent (as after
        // the Section 6 load).
        let extent = crate::accel::datavector::Extent::new(crate::column::Column::from_oids(vec![
            10, 11, 12, 13,
        ]));
        let dv_price = Datavector::new(
            std::sync::Arc::clone(&extent),
            crate::column::Column::from_dbls(vec![1.0, 2.0, 3.0, 4.0]),
        );
        let dv_disc = Datavector::new(
            std::sync::Arc::clone(&extent),
            crate::column::Column::from_dbls(vec![0.1, 0.2, 0.3, 0.4]),
        );
        let mut price = Bat::new(
            Column::from_oids(vec![12, 10, 13, 11]),
            Column::from_dbls(vec![3.0, 1.0, 4.0, 2.0]),
        );
        price.set_datavector(std::sync::Arc::new(dv_price));
        let mut disc = Bat::new(
            Column::from_oids(vec![11, 13, 10, 12]),
            Column::from_dbls(vec![0.2, 0.4, 0.1, 0.3]),
        );
        disc.set_datavector(std::sync::Arc::new(dv_disc));

        let critems = sel(vec![11, 13]);
        let prices = semijoin(&ctx, &price, &critems).unwrap();
        assert_eq!(ctx.take_algo(), "datavector");
        let discounts = semijoin(&ctx, &disc, &critems).unwrap();
        assert_eq!(ctx.take_algo(), "datavector");
        assert_eq!(prices.head().as_oid_slice().unwrap(), &[11, 13]);
        assert_eq!(prices.tail().as_dbl_slice().unwrap(), &[2.0, 4.0]);
        assert_eq!(discounts.tail().as_dbl_slice().unwrap(), &[0.2, 0.4]);
        // The key effect of Section 6.2.1: results of successive datavector
        // semijoins with the same selection are synced.
        assert!(prices.synced(&discounts));

        // The class extent itself as the selection: nothing to look up —
        // the results are the extent next to the value vectors, zero-copy,
        // and synced through the shared extent column.
        let all = Bat::with_inferred_props(extent.oids().clone(), Column::void(0, 4));
        let prices = semijoin(&ctx, &price, &all).unwrap();
        assert_eq!(ctx.take_algo(), "datavector");
        let discounts = semijoin(&ctx, &disc, &all).unwrap();
        assert_eq!(ctx.take_algo(), "datavector");
        assert!(!extent.lookup_cached(&ctx, all.head()));
        assert_eq!(prices.head().identity(), extent.oids().identity());
        assert_eq!(prices.tail().as_dbl_slice().unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(discounts.tail().as_dbl_slice().unwrap(), &[0.1, 0.2, 0.3, 0.4]);
        assert!(prices.synced(&discounts));
        assert!(prices.validate().is_ok());
    }

    #[test]
    fn all_variants_agree() {
        let ctx = ExecCtx::new();
        let ab = attr_bat();
        let cd = sel(vec![14, 10, 12]);
        let hash = subset_hash(&ctx, &ab, &cd, true);

        // merge variant needs both sorted
        let perm = ab.head().sort_perm();
        let ab_sorted = Bat::with_inferred_props(ab.head().gather(&perm), ab.tail().gather(&perm));
        let cperm = cd.head().sort_perm();
        let cd_sorted =
            Bat::with_inferred_props(cd.head().gather(&cperm), cd.tail().gather(&cperm));
        let merge = semijoin_merge(&ctx, &ab_sorted, &cd_sorted);

        // datavector variant
        let mut ab_dv = ab.clone();
        ab_dv.set_datavector(std::sync::Arc::new(Datavector::from_unordered(&ab)));
        let dvres = semijoin_datavector(&ctx, &ab_dv.accel().datavector.clone().unwrap(), &cd);

        let norm = |b: &Bat| {
            let mut v: Vec<(u64, i32)> =
                (0..b.len()).map(|i| (b.head().oid_at(i), b.tail().int_at(i))).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(norm(&hash), norm(&merge));
        assert_eq!(norm(&hash), norm(&dvres));
    }

    #[test]
    fn antijoin_complements_semijoin() {
        let ctx = ExecCtx::new();
        let ab = attr_bat();
        let cd = sel(vec![11, 13]);
        let sj = semijoin(&ctx, &ab, &cd).unwrap();
        let aj = antijoin(&ctx, &ab, &cd).unwrap();
        assert_eq!(sj.len() + aj.len(), ab.len());
        assert_eq!(aj.head().as_oid_slice().unwrap(), &[10, 12, 14]);
    }

    #[test]
    fn empty_operands() {
        let ctx = ExecCtx::new();
        let ab = attr_bat();
        let empty = selection(vec![]);
        assert_eq!(semijoin(&ctx, &ab, &empty).unwrap().len(), 0);
        assert_eq!(antijoin(&ctx, &ab, &empty).unwrap().len(), ab.len());
        assert_eq!(semijoin(&ctx, &empty, &ab).unwrap().len(), 0);
        let _ = AtomValue::Int(0);
    }
}
