//! Property tests of the kernel invariants:
//!
//! * every operator's claimed descriptor properties actually hold
//!   (`Bat::validate` — the "actively guarded" properties of Section 5.1);
//! * the alternative implementations every operator dispatches between
//!   agree with each other;
//! * mirror/slice algebra.

use moa::prelude::*;
use moa::testkit::assert_commutes;
use monet::atom::AtomValue;
use monet::bat::Bat;
use monet::column::Column;
use monet::ctx::ExecCtx;
use monet::ops;
use monet::props::{ColProps, Props};
use proptest::prelude::*;

fn small_bat() -> impl Strategy<Value = Bat> {
    proptest::collection::vec((0u64..40, -20i32..20), 0..40).prop_map(|pairs| {
        Bat::new(
            Column::from_oids(pairs.iter().map(|p| p.0).collect()),
            Column::from_ints(pairs.iter().map(|p| p.1).collect()),
        )
    })
}

fn oid_selection() -> impl Strategy<Value = Bat> {
    proptest::collection::btree_set(0u64..40, 0..20).prop_map(|set| {
        let oids: Vec<u64> = set.into_iter().collect();
        let n = oids.len();
        Bat::with_inferred_props(Column::from_oids(oids), Column::void(0, n))
    })
}

fn sorted_pairs(b: &Bat) -> Vec<(u64, i32)> {
    let mut v: Vec<(u64, i32)> =
        (0..b.len()).map(|i| (b.head().oid_at(i), b.tail().int_at(i))).collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn select_variants_agree_and_validate(b in small_bat(), v in -20i32..20) {
        let ctx = ExecCtx::new();
        // scan on the raw bat
        let scan = ops::select_eq(&ctx, &b, &AtomValue::Int(v)).unwrap();
        prop_assert!(scan.validate().is_ok());
        // binary search on the tail-sorted version
        let sorted = ops::sort_tail(&ctx, &b).unwrap();
        prop_assert!(sorted.validate().is_ok());
        let bs = ops::select_eq(&ctx, &sorted, &AtomValue::Int(v)).unwrap();
        prop_assert!(bs.validate().is_ok());
        prop_assert_eq!(sorted_pairs(&scan), sorted_pairs(&bs));
    }

    #[test]
    fn semijoin_variants_agree(b in small_bat(), sel in oid_selection()) {
        let ctx = ExecCtx::new();
        let hash = ops::semijoin(&ctx, &b, &sel).unwrap();
        prop_assert!(hash.validate().is_ok());
        // a head-sorted left operand
        let hsorted = ops::sort_head(&ctx, &b).unwrap();
        let sorted = ops::semijoin(&ctx, &hsorted, &sel).unwrap();
        prop_assert_eq!(sorted_pairs(&hash), sorted_pairs(&sorted));
        // datavector variant — only defined for attribute BATs with
        // unique oids (the extent is duplicate-free by construction)
        if b.head().check_key() {
            let mut with_dv = b.clone();
            with_dv.set_datavector(std::sync::Arc::new(
                monet::accel::datavector::Datavector::from_unordered(&b),
            ));
            let dv = ops::semijoin(&ctx, &with_dv, &sel).unwrap();
            prop_assert_eq!(sorted_pairs(&hash), sorted_pairs(&dv));
        }
        // semijoin + antijoin partition the left operand
        let anti = ops::antijoin(&ctx, &b, &sel).unwrap();
        prop_assert_eq!(hash.len() + anti.len(), b.len());
    }

    #[test]
    fn join_variants_agree(b in small_bat(), r in small_bat()) {
        let ctx = ExecCtx::new();
        // join on oid tail vs oid head: use mirror of r as [int, oid] — we
        // need comparable columns, so join b.mirror [int, oid] with r [oid, int].
        let left = b.mirror();
        let hash = ops::join(&ctx, &left, &r).unwrap();
        prop_assert!(hash.validate().is_ok());
        let lsorted = ops::sort_tail(&ctx, &left).unwrap();
        let rsorted = ops::sort_head(&ctx, &r).unwrap();
        let sorted = ops::join(&ctx, &lsorted, &rsorted).unwrap();
        let norm = |x: &Bat| {
            let mut v: Vec<(i32, i32)> =
                (0..x.len()).map(|i| (x.head().int_at(i), x.tail().int_at(i))).collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(norm(&hash), norm(&sorted));
    }

    #[test]
    fn group_then_aggregate_counts(b in small_bat()) {
        let ctx = ExecCtx::new();
        let g = ops::group1(&ctx, &b).unwrap();
        prop_assert!(g.synced(&b));
        // number of groups == distinct tail values
        let mut distinct: Vec<i32> = (0..b.len()).map(|i| b.tail().int_at(i)).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let counts = ops::set_aggregate(&ctx, ops::AggFunc::Count, &g.mirror()).unwrap();
        prop_assert_eq!(counts.len(), distinct.len());
        // total of counts == |b|
        let total: i64 = (0..counts.len()).map(|i| counts.tail().lng_at(i)).sum();
        prop_assert_eq!(total as usize, b.len());
    }

    #[test]
    fn mirror_involution_and_slice(b in small_bat(), start in 0usize..10, len in 0usize..10) {
        let m = b.mirror().mirror();
        prop_assert_eq!(sorted_pairs(&b), sorted_pairs(&m));
        if start + len <= b.len() {
            let s = b.slice(start, len);
            prop_assert!(s.validate().is_ok());
            prop_assert_eq!(s.len(), len);
            for i in 0..len {
                prop_assert_eq!(s.head().oid_at(i), b.head().oid_at(start + i));
            }
        }
    }

    #[test]
    fn unique_is_idempotent_set(b in small_bat()) {
        let ctx = ExecCtx::new();
        let u1 = ops::unique(&ctx, &b).unwrap();
        let u2 = ops::unique(&ctx, &u1).unwrap();
        prop_assert_eq!(sorted_pairs(&u1), sorted_pairs(&u2));
        let mut expect = sorted_pairs(&b);
        expect.dedup();
        prop_assert_eq!(sorted_pairs(&u1), expect);
    }

    #[test]
    fn setops_algebra(lo in 0u32..5, hi in 0u32..5) {
        // |A ∪ B| = |A \ B| + |B \ A| + |A ∩ B| and `or` is `union`, over
        // two overlapping selections of one extent: each side runs through
        // the engine and agrees with the reference evaluator.
        let cat = moa::testkit::mini_catalog();
        let price = |f, x: u32| cmp(f, attr("extendedprice"), lit_d(100.0 * x as f64));
        let (from, to) = (price(ops::ScalarFunc::Ge, lo), price(ops::ScalarFunc::Le, hi));
        let a = SetExpr::extent("Item").select(from.clone());
        let b = SetExpr::extent("Item").select(to.clone());
        let either = SetExpr::extent("Item").select(or(from, to));
        let len = |q: &SetExpr| {
            assert_commutes(&cat, q);
            let t = translate(&cat, q).unwrap();
            t.run(&ExecCtx::new(), cat.db()).unwrap().0.len()
        };
        let u = len(&a.clone().union(b.clone()));
        prop_assert_eq!(
            u,
            len(&a.clone().diff(b.clone())) + len(&b.clone().diff(a.clone())) + len(&a.intersect(b))
        );
        prop_assert_eq!(len(&either), u);
    }

    #[test]
    fn topn_returns_extremes(b in small_bat(), n in 1usize..10) {
        let ctx = ExecCtx::new();
        let top = ops::topn(&ctx, &b, n, true).unwrap();
        prop_assert_eq!(top.len(), n.min(b.len()));
        if !top.is_empty() {
            let max_all = (0..b.len()).map(|i| b.tail().int_at(i)).max().unwrap();
            prop_assert_eq!(top.tail().int_at(0), max_all);
        }
    }

    #[test]
    fn props_claims_always_sound(b in small_bat()) {
        // Randomized pipeline: each step must keep validate() green.
        let ctx = ExecCtx::new();
        let s = ops::sort_tail(&ctx, &b).unwrap();
        prop_assert!(s.validate().is_ok());
        let sel = ops::select_range(
            &ctx, &s, Some(&AtomValue::Int(-10)), Some(&AtomValue::Int(10)), true, true,
        ).unwrap();
        prop_assert!(sel.validate().is_ok());
        let g = ops::group1(&ctx, &sel).unwrap();
        prop_assert!(g.validate().is_ok());
        let m = ops::mark(&ctx, &g, None).unwrap();
        prop_assert!(m.validate().is_ok());
        prop_assert!(m.props().tail.dense);
    }
}

#[test]
fn zip_and_concat_roundtrip() {
    let ctx = ExecCtx::new();
    let head = Column::from_oids(vec![1, 2, 3]);
    let a = Bat::new(head.clone(), Column::from_ints(vec![10, 20, 30]));
    let b = Bat::new(head, Column::from_strs(["x", "y", "z"]));
    let z = ops::zip(&ctx, &a, &b).unwrap();
    assert_eq!(z.head().as_int_slice().unwrap(), &[10, 20, 30]);
    let c = ops::concat_bats(&ctx, &a, &a).unwrap();
    assert_eq!(c.len(), 6);
}

#[test]
fn pager_cold_vs_warm() {
    let pager = std::sync::Arc::new(monet::pager::Pager::new(4096));
    let ctx = ExecCtx::new().with_pager(std::sync::Arc::clone(&pager));
    let b = Bat::with_props(
        Column::from_oids((0..50_000).collect()),
        Column::from_ints((0..50_000).map(|i| i as i32).collect()),
        Props::new(ColProps::DENSE, ColProps::SORTED_KEY),
    );
    let _ = ops::select_eq(&ctx, &b, &AtomValue::Int(777)).unwrap();
    let cold = pager.faults();
    assert!(cold > 0);
    let _ = ops::select_eq(&ctx, &b, &AtomValue::Int(777)).unwrap();
    assert_eq!(pager.faults(), cold, "warm re-run must not fault");
}
