//! Randomized property tests of the kernel operators against naive
//! reference implementations on plain `Vec<(oid, int)>` pairs.
//!
//! Deterministic by construction: every test draws from a `StdRng` with a
//! fixed seed, so failures reproduce exactly and the suite never flakes.
//! Complements `tests/kernel_properties.rs` (which checks that the
//! *alternative implementations* of each operator agree with each other):
//! here each operator is checked against an independent model.
//!
//! The second half of the file is the **specialized-vs-generic** suite: the
//! monomorphized typed kernels (`monet::typed`) are compared against the
//! row-wise generic reference implementations (`monet::ops::reference`) on
//! random inputs across *every* atom type — including `void`, `str`, and
//! sliced/offset column windows.

use std::collections::{HashMap, HashSet};

use monet::atom::AtomValue;
use monet::bat::Bat;
use monet::column::Column;
use monet::config::EngineConfig;
use monet::ctx::ExecCtx;
use monet::error::MonetError;
use monet::ops;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 40;
const SEED: u64 = 0x1CDE_1998;

/// Random association list: oids drawn with duplicates, small int alphabet
/// so selections and joins hit plenty of matches.
fn random_pairs(rng: &mut StdRng, max_len: usize) -> Vec<(u64, i32)> {
    let n = rng.gen_range(0..=max_len);
    (0..n).map(|_| (rng.gen_range(0..60u64), rng.gen_range(-25..25i32))).collect()
}

fn bat_of(pairs: &[(u64, i32)]) -> Bat {
    Bat::new(
        Column::from_oids(pairs.iter().map(|p| p.0).collect()),
        Column::from_ints(pairs.iter().map(|p| p.1).collect()),
    )
}

/// The (head, tail) multiset of an `[oid, int]` BAT, in canonical order.
fn pairs_of(b: &Bat) -> Vec<(u64, i32)> {
    let mut v: Vec<(u64, i32)> =
        (0..b.len()).map(|i| (b.head().oid_at(i), b.tail().int_at(i))).collect();
    v.sort_unstable();
    v
}

fn canon(mut pairs: Vec<(u64, i32)>) -> Vec<(u64, i32)> {
    pairs.sort_unstable();
    pairs
}

#[test]
fn select_eq_matches_reference_and_partitions() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let ctx = ExecCtx::new();
    for case in 0..CASES {
        let pairs = random_pairs(&mut rng, 80);
        let b = bat_of(&pairs);
        // Reference agreement for an arbitrary probe value.
        let v = rng.gen_range(-25..25i32);
        let got = ops::select_eq(&ctx, &b, &AtomValue::Int(v)).unwrap();
        let expect: Vec<(u64, i32)> = canon(pairs.iter().copied().filter(|p| p.1 == v).collect());
        assert_eq!(pairs_of(&got), expect, "case {case}: select_eq({v})");
        assert!(got.validate().is_ok(), "case {case}: claimed props unsound");
        // Round-trip: selecting every distinct value partitions the BAT.
        let mut distinct: Vec<i32> = pairs.iter().map(|p| p.1).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let mut reassembled = Vec::new();
        for v in distinct {
            let part = ops::select_eq(&ctx, &b, &AtomValue::Int(v)).unwrap();
            reassembled.extend(pairs_of(&part));
        }
        assert_eq!(canon(reassembled), canon(pairs), "case {case}: partition");
    }
}

#[test]
fn select_range_matches_reference() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    let ctx = ExecCtx::new();
    for case in 0..CASES {
        let pairs = random_pairs(&mut rng, 80);
        let b = bat_of(&pairs);
        let lo = rng.gen_range(-30..30i32);
        let hi = rng.gen_range(lo..=30i32);
        let (lo_in, hi_in) = (rng.gen_bool(0.5), rng.gen_bool(0.5));
        let got = ops::select_range(
            &ctx,
            &b,
            Some(&AtomValue::Int(lo)),
            Some(&AtomValue::Int(hi)),
            lo_in,
            hi_in,
        )
        .unwrap();
        let keep = |t: i32| {
            (if lo_in { t >= lo } else { t > lo }) && (if hi_in { t <= hi } else { t < hi })
        };
        let expect: Vec<(u64, i32)> = canon(pairs.iter().copied().filter(|p| keep(p.1)).collect());
        assert_eq!(
            pairs_of(&got),
            expect,
            "case {case}: select_range({lo}{}..{hi}{})",
            if lo_in { "=" } else { "" },
            if hi_in { "=" } else { "" },
        );
        // One-sided ranges degenerate to the same model.
        let ge = ops::select_range(&ctx, &b, Some(&AtomValue::Int(lo)), None, true, true).unwrap();
        let expect_ge: Vec<(u64, i32)> =
            canon(pairs.iter().copied().filter(|p| p.1 >= lo).collect());
        assert_eq!(pairs_of(&ge), expect_ge, "case {case}: select_range({lo}=..)");
    }
}

#[test]
fn join_matches_nested_loop_reference() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 2);
    let ctx = ExecCtx::new();
    for case in 0..CASES {
        // left: [oid, oid] referencing right's head domain; right: [oid, int].
        let left_pairs: Vec<(u64, u64)> = (0..rng.gen_range(0..60usize))
            .map(|_| (rng.gen_range(0..40u64), rng.gen_range(0..40u64)))
            .collect();
        let right_pairs = random_pairs(&mut rng, 60);
        let left = Bat::new(
            Column::from_oids(left_pairs.iter().map(|p| p.0).collect()),
            Column::from_oids(left_pairs.iter().map(|p| p.1).collect()),
        );
        let right = bat_of(&right_pairs);
        let got = ops::join(&ctx, &left, &right).unwrap();
        // Nested-loop model: match left tail against right head.
        let mut expect: Vec<(u64, i32)> = Vec::new();
        for &(h, t) in &left_pairs {
            for &(h2, t2) in &right_pairs {
                if t == h2 {
                    expect.push((h, t2));
                }
            }
        }
        assert_eq!(pairs_of(&got), canon(expect), "case {case}: join");
        assert!(got.validate().is_ok(), "case {case}: claimed props unsound");
    }
}

#[test]
fn semijoin_antijoin_match_reference_and_partition() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 3);
    let ctx = ExecCtx::new();
    for case in 0..CASES {
        let pairs = random_pairs(&mut rng, 80);
        let b = bat_of(&pairs);
        // Selection BAT: unique oids with void tail, as produced by selects.
        let mut sel_oids: Vec<u64> =
            (0..rng.gen_range(0..30usize)).map(|_| rng.gen_range(0..60u64)).collect();
        sel_oids.sort_unstable();
        sel_oids.dedup();
        let n = sel_oids.len();
        let sel = Bat::with_inferred_props(Column::from_oids(sel_oids.clone()), Column::void(0, n));
        let keep: HashSet<u64> = sel_oids.into_iter().collect();
        let semi = ops::semijoin(&ctx, &b, &sel).unwrap();
        let anti = ops::antijoin(&ctx, &b, &sel).unwrap();
        let expect_semi: Vec<(u64, i32)> =
            canon(pairs.iter().copied().filter(|p| keep.contains(&p.0)).collect());
        let expect_anti: Vec<(u64, i32)> =
            canon(pairs.iter().copied().filter(|p| !keep.contains(&p.0)).collect());
        assert_eq!(pairs_of(&semi), expect_semi, "case {case}: semijoin");
        assert_eq!(pairs_of(&anti), expect_anti, "case {case}: antijoin");
        // Round-trip: the two halves reassemble the operand exactly.
        let mut whole = pairs_of(&semi);
        whole.extend(pairs_of(&anti));
        assert_eq!(canon(whole), canon(pairs), "case {case}: partition");
    }
}

#[test]
fn unique_matches_reference_and_is_idempotent() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 4);
    let ctx = ExecCtx::new();
    for case in 0..CASES {
        // Small alphabets force plenty of duplicate (head, tail) pairs.
        let n = rng.gen_range(0..80usize);
        let pairs: Vec<(u64, i32)> =
            (0..n).map(|_| (rng.gen_range(0..10u64), rng.gen_range(-4..4i32))).collect();
        let b = bat_of(&pairs);
        let u = ops::unique(&ctx, &b).unwrap();
        let mut expect = canon(pairs.clone());
        expect.dedup();
        assert_eq!(pairs_of(&u), expect, "case {case}: unique");
        let uu = ops::unique(&ctx, &u).unwrap();
        assert_eq!(pairs_of(&uu), pairs_of(&u), "case {case}: idempotence");
        assert!(u.validate().is_ok(), "case {case}: claimed props unsound");
    }
}

#[test]
fn group_assignment_and_counts_match_reference() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 5);
    let ctx = ExecCtx::new();
    for case in 0..CASES {
        let pairs = random_pairs(&mut rng, 80);
        let b = bat_of(&pairs);
        let g = ops::group1(&ctx, &b).unwrap();
        assert!(g.synced(&b), "case {case}: group result must stay synced");
        // Two rows share a group oid iff they share a tail value.
        let mut group_value: HashMap<u64, i32> = HashMap::new();
        let mut value_group: HashMap<i32, u64> = HashMap::new();
        for i in 0..b.len() {
            let gid = g.tail().oid_at(i);
            let val = b.tail().int_at(i);
            assert_eq!(
                *group_value.entry(gid).or_insert(val),
                val,
                "case {case}: group {gid} spans values"
            );
            assert_eq!(
                *value_group.entry(val).or_insert(gid),
                gid,
                "case {case}: value {val} split across groups"
            );
        }
        // Per-group counts match the value histogram.
        let mut histogram: HashMap<i32, i64> = HashMap::new();
        for &(_, v) in &pairs {
            *histogram.entry(v).or_insert(0) += 1;
        }
        let counts = ops::set_aggregate(&ctx, ops::AggFunc::Count, &g.mirror()).unwrap();
        assert_eq!(counts.len(), histogram.len(), "case {case}: group count");
        for i in 0..counts.len() {
            let gid = counts.head().oid_at(i);
            let cnt = counts.tail().lng_at(i);
            let val = group_value[&gid];
            assert_eq!(cnt, histogram[&val], "case {case}: count of value {val}");
        }
    }
}

#[test]
fn sort_tail_is_an_ordered_permutation() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 6);
    let ctx = ExecCtx::new();
    for case in 0..CASES {
        let pairs = random_pairs(&mut rng, 80);
        let b = bat_of(&pairs);
        let s = ops::sort_tail(&ctx, &b).unwrap();
        assert_eq!(pairs_of(&s), canon(pairs), "case {case}: sort permutes");
        for i in 1..s.len() {
            assert!(
                s.tail().int_at(i - 1) <= s.tail().int_at(i),
                "case {case}: tail not ordered at {i}"
            );
        }
        assert!(s.validate().is_ok(), "case {case}: claimed props unsound");
    }
}

// ======================================================================
// Specialized-vs-generic suite: typed kernels against `ops::reference`.
// ======================================================================

use monet::atom::{AtomType, Date};
use monet::ops::reference;

const ALL_TYPES: &[AtomType] = &[
    AtomType::Void,
    AtomType::Oid,
    AtomType::Bool,
    AtomType::Chr,
    AtomType::Int,
    AtomType::Lng,
    AtomType::Dbl,
    AtomType::Str,
    AtomType::Date,
];

/// A random scalar of `ty` from a small alphabet (so selections and joins
/// hit plenty of matches and duplicates).
fn random_value(rng: &mut StdRng, ty: AtomType) -> AtomValue {
    match ty {
        AtomType::Void | AtomType::Oid => AtomValue::Oid(rng.gen_range(0..24u64)),
        AtomType::Bool => AtomValue::Bool(rng.gen_bool(0.5)),
        AtomType::Chr => AtomValue::Chr(rng.gen_range(b'a'..=b'e')),
        AtomType::Int => AtomValue::Int(rng.gen_range(-8..8i32)),
        AtomType::Lng => AtomValue::Lng(rng.gen_range(-9..9i64)),
        AtomType::Dbl => {
            let vals = [-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.25, 7.5];
            AtomValue::Dbl(vals[rng.gen_range(0..vals.len())])
        }
        AtomType::Str => {
            let vocab = ["", "a", "ab", "b", "ba", "zz", "EUROPE", "ASIA"];
            AtomValue::str(vocab[rng.gen_range(0..vocab.len())])
        }
        AtomType::Date => AtomValue::Date(Date(rng.gen_range(8000..8020i32))),
    }
}

/// A random column of `ty`, optionally presented as an offset window into a
/// larger allocation (exercising `off != 0` in every typed kernel).
fn random_column(rng: &mut StdRng, ty: AtomType, n: usize) -> Column {
    let windowed = rng.gen_bool(0.5);
    let (pre, post) =
        if windowed { (rng.gen_range(0..4usize), rng.gen_range(0..4usize)) } else { (0, 0) };
    let total = n + pre + post;
    let col = if ty == AtomType::Void {
        Column::void(rng.gen_range(0..30u64), total)
    } else {
        Column::from_atoms(ty, (0..total).map(|_| random_value(rng, ty)))
    };
    col.slice(pre, n)
}

/// Exact (head, tail) value sequence — order matters.
fn rows_of(b: &Bat) -> Vec<(AtomValue, AtomValue)> {
    b.iter().collect()
}

/// Canonical first-appearance relabeling of group ids.
fn canon_ids(gids: &[u64]) -> Vec<u64> {
    let mut map: HashMap<u64, u64> = HashMap::new();
    gids.iter()
        .map(|&g| {
            let next = map.len() as u64;
            *map.entry(g).or_insert(next)
        })
        .collect()
}

/// [`canon_ids`] of a group-id column.
fn canon_gids(tail: &Column) -> Vec<u64> {
    canon_ids(&(0..tail.len()).map(|i| tail.oid_at(i)).collect::<Vec<_>>())
}

/// The scan-shaped operators (select scan, synced multiplex, scalar
/// aggregates) each drive their window kernel over the morsel driver. The
/// operands of these suites fit one morsel; the root `tests/morsel_grid.rs`
/// runs the same operators over several, against the same reference.
fn one_morsel(f: impl FnOnce(ExecCtx, &str)) {
    f(ExecCtx::with_config(std::sync::Arc::new(EngineConfig::default())), "one morsel")
}

/// Every bound shape of a range selection: each side unbounded, inclusive
/// or exclusive.
fn bound_shapes<'a>(
    lo: &'a AtomValue,
    hi: &'a AtomValue,
) -> Vec<(Option<&'a AtomValue>, Option<&'a AtomValue>, bool, bool)> {
    let mut out = Vec::new();
    for (l, il) in [(None, true), (Some(lo), true), (Some(lo), false)] {
        for (h, ih) in [(None, true), (Some(hi), true), (Some(hi), false)] {
            out.push((l, h, il, ih));
        }
    }
    out
}

#[test]
fn typed_select_matches_generic_across_types() {
    one_morsel(|ctx, grid| {
        let mut rng = StdRng::seed_from_u64(SEED ^ 0x10);
        for &ty in ALL_TYPES {
            for case in 0..10 {
                let n = rng.gen_range(0..50usize);
                let head = random_column(&mut rng, AtomType::Oid, n);
                let tail = random_column(&mut rng, ty, n);
                let b = Bat::new(head, tail);
                let v = random_value(&mut rng, ty);
                let got = ops::select_eq(&ctx, &b, &v).unwrap();
                assert_eq!(
                    rows_of(&got),
                    rows_of(&reference::select_eq(&b, &v)),
                    "{ty} case {case} {grid}: select_eq"
                );
                let (a, c) = (random_value(&mut rng, ty), random_value(&mut rng, ty));
                let (lo, hi) = if a.cmp_same_type(&c).is_le() { (a, c) } else { (c, a) };
                let (il, ih) = (rng.gen_bool(0.5), rng.gen_bool(0.5));
                let got = ops::select_range(&ctx, &b, Some(&lo), Some(&hi), il, ih).unwrap();
                let expect = reference::select_range(&b, Some(&lo), Some(&hi), il, ih);
                assert_eq!(rows_of(&got), rows_of(&expect), "{ty} case {case}: select_range");
                for (l, h, il, ih) in bound_shapes(&lo, &hi) {
                    let got = ops::select_range(&ctx, &b, l, h, il, ih).unwrap();
                    let expect = reference::select_range(&b, l, h, il, ih);
                    assert_eq!(
                        rows_of(&got),
                        rows_of(&expect),
                        "{ty} case {case} {grid}: select_range({l:?}, {h:?}, {il}, {ih})"
                    );
                    assert!(got.validate().is_ok(), "{ty} case {case} {grid}: props unsound");
                }
                // Sorted operand takes the binary-search path; same window.
                let perm = b.tail().sort_perm();
                let sorted =
                    Bat::with_inferred_props(b.head().gather(&perm), b.tail().gather(&perm));
                let got = ops::select_eq(&ctx, &sorted, &v).unwrap();
                assert_eq!(
                    rows_of(&got),
                    rows_of(&reference::select_eq(&sorted, &v)),
                    "{ty} case {case}: select_eq sorted"
                );
            }
        }
    });
}

#[test]
fn typed_join_matches_generic_across_types() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x11);
    let ctx = ExecCtx::new();
    for &ty in ALL_TYPES {
        for case in 0..8 {
            let n = rng.gen_range(0..40usize);
            let m = rng.gen_range(0..40usize);
            let left =
                Bat::new(random_column(&mut rng, AtomType::Oid, n), random_column(&mut rng, ty, n));
            let right =
                Bat::new(random_column(&mut rng, ty, m), random_column(&mut rng, AtomType::Int, m));
            // Hash path (no props claimed).
            let got = ops::join(&ctx, &left, &right).unwrap();
            assert_eq!(
                rows_of(&got),
                rows_of(&reference::join(&left, &right)),
                "{ty} case {case}: join hash"
            );
            // Sorted operands: left tail and right head.
            let lp = left.tail().sort_perm();
            let ls = Bat::with_inferred_props(left.head().gather(&lp), left.tail().gather(&lp));
            let rp = right.head().sort_perm();
            let rs = Bat::with_inferred_props(right.head().gather(&rp), right.tail().gather(&rp));
            let got = ops::join(&ctx, &ls, &rs).unwrap();
            assert_eq!(
                rows_of(&got),
                rows_of(&reference::join(&ls, &rs)),
                "{ty} case {case}: join sorted"
            );
        }
    }
    // Fetch path: dense (void) right head.
    for case in 0..8 {
        let n = rng.gen_range(0..40usize);
        let m = rng.gen_range(1..20usize);
        let left = Bat::new(
            random_column(&mut rng, AtomType::Oid, n),
            random_column(&mut rng, AtomType::Oid, n),
        );
        let right = Bat::new(Column::void(5, m), random_column(&mut rng, AtomType::Dbl, m));
        let got = ops::join(&ctx, &left, &right).unwrap();
        assert_eq!(
            rows_of(&got),
            rows_of(&reference::join(&left, &right)),
            "case {case}: join fetch"
        );
    }
}

#[test]
fn typed_semijoin_matches_generic_across_types() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x12);
    let ctx = ExecCtx::new();
    for &ty in ALL_TYPES {
        for case in 0..8 {
            let n = rng.gen_range(0..50usize);
            let m = rng.gen_range(0..20usize);
            let ab =
                Bat::new(random_column(&mut rng, ty, n), random_column(&mut rng, AtomType::Int, n));
            let cd =
                Bat::new(random_column(&mut rng, ty, m), random_column(&mut rng, AtomType::Oid, m));
            let semi = ops::semijoin(&ctx, &ab, &cd).unwrap();
            let anti = ops::antijoin(&ctx, &ab, &cd).unwrap();
            assert_eq!(
                rows_of(&semi),
                rows_of(&reference::semijoin(&ab, &cd)),
                "{ty} case {case}: semijoin"
            );
            assert_eq!(
                rows_of(&anti),
                rows_of(&reference::antijoin(&ab, &cd)),
                "{ty} case {case}: antijoin"
            );
            // Sorted operands: both heads.
            let ap = ab.head().sort_perm();
            let abs = Bat::with_inferred_props(ab.head().gather(&ap), ab.tail().gather(&ap));
            let cp = cd.head().sort_perm();
            let cds = Bat::with_inferred_props(cd.head().gather(&cp), cd.tail().gather(&cp));
            let semi = ops::semijoin(&ctx, &abs, &cds).unwrap();
            assert_eq!(
                rows_of(&semi),
                rows_of(&reference::semijoin(&abs, &cds)),
                "{ty} case {case}: semijoin sorted"
            );
        }
    }
}

#[test]
fn typed_group_matches_generic_across_types() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x13);
    let ctx = ExecCtx::new();
    for &ty in ALL_TYPES {
        for case in 0..8 {
            let n = rng.gen_range(0..50usize);
            let b =
                Bat::new(random_column(&mut rng, AtomType::Oid, n), random_column(&mut rng, ty, n));
            let g = ops::group1(&ctx, &b).unwrap();
            assert_eq!(
                canon_gids(g.tail()),
                reference::group1_gids(&b),
                "{ty} case {case}: group1 hash"
            );
            // Sorted operand: a sorted tail.
            let perm = b.tail().sort_perm();
            let bs = Bat::with_inferred_props(b.head().gather(&perm), b.tail().gather(&perm));
            let gs = ops::group1(&ctx, &bs).unwrap();
            assert_eq!(
                canon_gids(gs.tail()),
                reference::group1_gids(&bs),
                "{ty} case {case}: group1 sorted"
            );
        }
    }
    // group2: every tail-type pair, synced heads (key head in cd).
    for &t1 in ALL_TYPES {
        for &t2 in ALL_TYPES {
            let n = rng.gen_range(1..30usize);
            let head = random_column(&mut rng, AtomType::Void, n);
            let ab = Bat::new(head.clone(), random_column(&mut rng, t1, n));
            let cd = Bat::new(head, random_column(&mut rng, t2, n));
            let g = ops::group2(&ctx, &ab, &cd).unwrap();
            let expect = reference::group2_gids(&ab, &cd).unwrap();
            assert_eq!(canon_gids(g.tail()), canon_ids(&expect), "group2 ({t1}, {t2})");
        }
    }
    // group2 over a cd whose head repeats: a row aligns to its head's
    // *first* counterpart, as in the reference.
    let ab = Bat::new(Column::from_oids(vec![0, 1]), Column::from_strs(["x", "x"]));
    let cd = Bat::new(Column::from_oids(vec![0, 0, 1]), Column::from_ints(vec![5, 6, 5]));
    let g = ops::group2(&ctx, &ab, &cd).unwrap();
    let expect = reference::group2_gids(&ab, &cd).unwrap();
    assert_eq!(expect, vec![0, 0]);
    assert_eq!(canon_gids(g.tail()), expect, "group2 over a non-key cd head");
}

#[test]
fn typed_unique_matches_generic_across_type_pairs() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x14);
    let ctx = ExecCtx::new();
    for &t1 in ALL_TYPES {
        for &t2 in ALL_TYPES {
            let n = rng.gen_range(0..40usize);
            let b = Bat::new(random_column(&mut rng, t1, n), random_column(&mut rng, t2, n));
            let u = ops::unique(&ctx, &b).unwrap();
            assert_eq!(rows_of(&u), rows_of(&reference::unique(&b)), "unique ({t1}, {t2}) hash");
            // Sorted operand: a sorted head.
            let perm = b.head().sort_perm();
            let bs = Bat::with_inferred_props(b.head().gather(&perm), b.tail().gather(&perm));
            let us = ops::unique(&ctx, &bs).unwrap();
            assert_eq!(
                rows_of(&us),
                rows_of(&reference::unique(&bs)),
                "unique ({t1}, {t2}) sorted"
            );
        }
    }
}

#[test]
fn typed_sort_matches_generic_across_types() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x15);
    let ctx = ExecCtx::new();
    for &ty in ALL_TYPES {
        for case in 0..8 {
            let n = rng.gen_range(0..50usize);
            let b =
                Bat::new(random_column(&mut rng, AtomType::Oid, n), random_column(&mut rng, ty, n));
            let s = ops::sort_tail(&ctx, &b).unwrap();
            assert_eq!(
                rows_of(&s),
                rows_of(&reference::sort_tail(&b)),
                "{ty} case {case}: sort_tail"
            );
        }
        // Explicit sliced/offset window: the typed direct sort must respect
        // the view, not the backing allocation.
        let n = 24;
        let head = random_column(&mut rng, AtomType::Oid, n);
        let tail = random_column(&mut rng, ty, n + 9).slice(6, n);
        let b = Bat::new(head, tail);
        let s = ops::sort_tail(&ctx, &b).unwrap();
        assert_eq!(rows_of(&s), rows_of(&reference::sort_tail(&b)), "{ty}: sort_tail windowed");
    }
}

#[test]
fn typed_topn_matches_reference_across_types() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x1A);
    let ctx = ExecCtx::new();
    for &ty in ALL_TYPES {
        for case in 0..8 {
            let n = rng.gen_range(0..50usize);
            let b =
                Bat::new(random_column(&mut rng, AtomType::Oid, n), random_column(&mut rng, ty, n));
            // Small alphabets guarantee duplicate tails: the stability of
            // ties (operand order, both directions) is what's under test.
            for descending in [false, true] {
                let k = rng.gen_range(0..n + 3);
                let got = ops::topn(&ctx, &b, k, descending).unwrap();
                assert_eq!(
                    rows_of(&got),
                    rows_of(&reference::topn(&b, k, descending)),
                    "{ty} case {case}: topn({k}, desc={descending})"
                );
            }
        }
    }
}

#[test]
fn typed_aggregate_matches_generic_across_types() {
    one_morsel(|ctx, grid| {
        let mut rng = StdRng::seed_from_u64(SEED ^ 0x16);
        let aggs = [
            ops::AggFunc::Count,
            ops::AggFunc::Sum,
            ops::AggFunc::Min,
            ops::AggFunc::Max,
            ops::AggFunc::Avg,
        ];
        for &ty in ALL_TYPES {
            for case in 0..6 {
                let n = rng.gen_range(0..40usize);
                let b = Bat::new(
                    random_column(&mut rng, AtomType::Oid, n),
                    random_column(&mut rng, ty, n),
                );
                for f in aggs {
                    let got = ops::set_aggregate(&ctx, f, &b);
                    let expect = reference::set_aggregate(f, &b);
                    match (got, expect) {
                        (Ok(g), Ok(e)) => {
                            assert_eq!(
                                rows_of(&g),
                                rows_of(&e),
                                "{ty} case {case}: {{{}}}",
                                f.name()
                            )
                        }
                        (Err(_), Err(_)) => {}
                        (g, e) => panic!(
                            "{ty} case {case}: {{{}}} disagree on error: {g:?} vs {e:?}",
                            f.name()
                        ),
                    }
                    let got = ops::aggr_scalar(&ctx, &b, f);
                    let expect = reference::aggr_scalar(&b, f);
                    match (got, expect) {
                        (Ok(g), Ok(e)) => {
                            assert_eq!(g, e, "{ty} case {case} {grid}: scalar {}", f.name())
                        }
                        (Err(_), Err(_)) => {}
                        (g, e) => panic!(
                            "{ty} case {case}: scalar {} disagree on error: {g:?} vs {e:?}",
                            f.name()
                        ),
                    }
                }
                // Sorted operand: a sorted head.
                let perm = b.head().sort_perm();
                let bs = Bat::with_inferred_props(b.head().gather(&perm), b.tail().gather(&perm));
                for f in aggs {
                    match (ops::set_aggregate(&ctx, f, &bs), reference::set_aggregate(f, &bs)) {
                        (Ok(g), Ok(e)) => assert_eq!(
                            rows_of(&g),
                            rows_of(&e),
                            "{ty} case {case}: sorted {{{}}}",
                            f.name()
                        ),
                        (Err(_), Err(_)) => {}
                        (g, e) => {
                            panic!("{ty} case {case}: sorted {{{}}}: {g:?} vs {e:?}", f.name())
                        }
                    }
                }
            }
            // Min/max ties: the extreme value sits at rows 6, 7 and 23; the
            // value is the reference's first-winner. (Ties across morsel
            // boundaries: `tests/morsel_grid.rs`.)
            let mut vals: Vec<AtomValue> = (0..24).map(|_| random_value(&mut rng, ty)).collect();
            for f in [ops::AggFunc::Min, ops::AggFunc::Max] {
                let ext = vals
                    .iter()
                    .cloned()
                    .reduce(|a, b| {
                        let c = b.cmp_same_type(&a);
                        if if f == ops::AggFunc::Min { c.is_lt() } else { c.is_gt() } {
                            b
                        } else {
                            a
                        }
                    })
                    .unwrap();
                for i in [6, 7, 23] {
                    vals[i] = ext.clone();
                }
                let tail = if ty == AtomType::Void {
                    Column::void(3, 24)
                } else {
                    Column::from_atoms(ty, vals.iter().cloned())
                };
                let b = Bat::new(Column::void(0, 24), tail);
                assert_eq!(
                    ops::aggr_scalar(&ctx, &b, f).unwrap(),
                    reference::aggr_scalar(&b, f).unwrap(),
                    "{ty} {grid}: {} with ties",
                    f.name()
                );
            }
            // Empty operands: the exact errors, type errors before emptiness.
            let empty = Bat::new(Column::void(0, 0), random_column(&mut rng, ty, 0));
            let summable = matches!(ty, AtomType::Int | AtomType::Lng | AtomType::Dbl);
            assert_eq!(
                ops::aggr_scalar(&ctx, &empty, ops::AggFunc::Avg).unwrap_err(),
                if summable {
                    MonetError::Malformed { op: "avg", detail: "average of empty BAT".into() }
                } else {
                    MonetError::Unsupported { op: "avg", ty: empty.tail().atom_type() }
                },
                "{ty} {grid}: avg of empty"
            );
            for f in [ops::AggFunc::Min, ops::AggFunc::Max] {
                assert_eq!(
                    ops::aggr_scalar(&ctx, &empty, f).unwrap_err(),
                    MonetError::Malformed { op: f.name(), detail: "min/max of empty BAT".into() },
                    "{ty} {grid}: {} of empty",
                    f.name()
                );
            }
            match ops::aggr_scalar(&ctx, &empty, ops::AggFunc::Sum) {
                Ok(v) => assert_eq!(
                    v,
                    reference::aggr_scalar(&empty, ops::AggFunc::Sum).unwrap(),
                    "{ty} {grid}: sum of empty"
                ),
                Err(e) => assert_eq!(
                    e,
                    MonetError::Unsupported { op: "sum", ty: empty.tail().atom_type() },
                    "{ty} {grid}: sum of empty"
                ),
            }
            assert_eq!(
                ops::aggr_scalar(&ctx, &empty, ops::AggFunc::Count).unwrap(),
                AtomValue::Lng(0),
                "{ty} {grid}: count of empty"
            );
        }
    });
}

#[test]
fn typed_multiplex_matches_generic() {
    one_morsel(|ctx, grid| {
        let mut rng = StdRng::seed_from_u64(SEED ^ 0x17);
        use ops::{MultArg, ScalarFunc as F};
        let value_types = [
            AtomType::Int,
            AtomType::Lng,
            AtomType::Dbl,
            AtomType::Date,
            AtomType::Chr,
            AtomType::Bool,
            AtomType::Str,
        ];
        for case in 0..30 {
            let n = rng.gen_range(0..40usize);
            let head = random_column(&mut rng, AtomType::Oid, n);
            for &ty in &value_types {
                let x = Bat::new(head.clone(), random_column(&mut rng, ty, n));
                let arg2 = if rng.gen_bool(0.4) {
                    MultArg::Const(random_value(&mut rng, ty))
                } else {
                    MultArg::Bat(Bat::new(head.clone(), random_column(&mut rng, ty, n)))
                };
                let funcs: Vec<F> = match ty {
                    AtomType::Int | AtomType::Lng | AtomType::Dbl => {
                        vec![F::Add, F::Sub, F::Mul, F::Div, F::Eq, F::Lt, F::Ge, F::Ne]
                    }
                    AtomType::Date | AtomType::Chr => {
                        vec![F::Eq, F::Ne, F::Lt, F::Le, F::Gt, F::Ge]
                    }
                    AtomType::Bool => vec![F::And, F::Or, F::Eq, F::Ne],
                    _ => vec![F::Eq, F::Ne, F::Lt, F::Gt],
                };
                for f in funcs {
                    let args = [MultArg::Bat(x.clone()), arg2.clone()];
                    let got = ops::multiplex(&ctx, f, &args);
                    let expect = reference::multiplex_synced(f, &args);
                    match (got, expect) {
                        (Ok(g), Ok(e)) => {
                            assert_eq!(
                                rows_of(&g),
                                rows_of(&e),
                                "case {case} {grid}: [{f:?}] over {ty}"
                            );
                            assert_eq!(
                                g.tail().atom_type(),
                                e.tail().atom_type(),
                                "case {case} {grid}: [{f:?}] over {ty}: result type"
                            );
                        }
                        (Err(_), Err(_)) => {}
                        (g, e) => {
                            panic!(
                                "case {case}: [{f:?}] over {ty} disagree on error: {g:?} vs {e:?}"
                            )
                        }
                    }
                }
            }
            // Unary shapes.
            let dates = Bat::new(head.clone(), random_column(&mut rng, AtomType::Date, n));
            for f in [F::Year, F::Month] {
                let args = [MultArg::Bat(dates.clone())];
                let g = ops::multiplex(&ctx, f, &args).unwrap();
                let e = reference::multiplex_synced(f, &args).unwrap();
                assert_eq!(rows_of(&g), rows_of(&e), "case {case}: [{f:?}]");
            }
            let bools = Bat::new(head.clone(), random_column(&mut rng, AtomType::Bool, n));
            let args = [MultArg::Bat(bools)];
            assert_eq!(
                rows_of(&ops::multiplex(&ctx, F::Not, &args).unwrap()),
                rows_of(&reference::multiplex_synced(F::Not, &args).unwrap()),
                "case {case}: [not]"
            );
            for ty in [AtomType::Int, AtomType::Lng, AtomType::Dbl] {
                let xs = Bat::new(head.clone(), random_column(&mut rng, ty, n));
                let args = [MultArg::Bat(xs)];
                assert_eq!(
                    rows_of(&ops::multiplex(&ctx, F::Neg, &args).unwrap()),
                    rows_of(&reference::multiplex_synced(F::Neg, &args).unwrap()),
                    "case {case}: [neg] {ty}"
                );
            }
            // Constant-pattern string predicates.
            let strs = Bat::new(head.clone(), random_column(&mut rng, AtomType::Str, n));
            for f in [F::StrPrefix, F::StrContains] {
                let args = [
                    MultArg::Bat(strs.clone()),
                    MultArg::Const(random_value(&mut rng, AtomType::Str)),
                ];
                assert_eq!(
                    rows_of(&ops::multiplex(&ctx, f, &args).unwrap()),
                    rows_of(&reference::multiplex_synced(f, &args).unwrap()),
                    "case {case}: [{f:?}]"
                );
            }
            // Mixed shapes fall back to the generic path; results must agree.
            let ints = Bat::new(head.clone(), random_column(&mut rng, AtomType::Int, n));
            let args = [MultArg::Bat(ints), MultArg::Const(AtomValue::Dbl(2.5))];
            assert_eq!(
                rows_of(&ops::multiplex(&ctx, F::Mul, &args).unwrap()),
                rows_of(&reference::multiplex_synced(F::Mul, &args).unwrap()),
                "case {case}: mixed [*]"
            );
        }
        // All-empty-window maps: with zero rows no value can type the
        // output, so the static hint does — through the typed fast path, the
        // generic path (mixed int x dbl), and the fixed-result functions.
        let none = Column::void(0, 0);
        for (f, tail, k, want) in [
            (F::Mul, AtomType::Dbl, AtomValue::Dbl(2.0), AtomType::Dbl),
            (F::Mul, AtomType::Int, AtomValue::Dbl(2.5), AtomType::Int),
            (F::Add, AtomType::Lng, AtomValue::Lng(1), AtomType::Lng),
            (F::Lt, AtomType::Str, AtomValue::str("b"), AtomType::Bool),
            (F::Ge, AtomType::Date, AtomValue::Int(3), AtomType::Bool),
            (F::StrPrefix, AtomType::Str, AtomValue::str("a"), AtomType::Bool),
        ] {
            let args = [
                MultArg::Bat(Bat::new(none.clone(), random_column(&mut rng, tail, 0))),
                MultArg::Const(k),
            ];
            let g = ops::multiplex(&ctx, f, &args).unwrap();
            let e = reference::multiplex_synced(f, &args).unwrap();
            assert_eq!(
                (g.len(), g.tail().atom_type()),
                (0, want),
                "{grid}: empty [{f:?}] over {tail}"
            );
            assert_eq!(
                g.tail().atom_type(),
                e.tail().atom_type(),
                "{grid}: empty [{f:?}] vs reference"
            );
        }
        let dates =
            [MultArg::Bat(Bat::new(none.clone(), random_column(&mut rng, AtomType::Date, 0)))];
        let g = ops::multiplex(&ctx, F::Year, &dates).unwrap();
        assert_eq!((g.len(), g.tail().atom_type()), (0, AtomType::Int), "{grid}: empty [year]");
    });
}

#[test]
fn typed_setops_match_generic() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x18);
    let ctx = ExecCtx::new();
    for &(t1, t2) in &[
        (AtomType::Oid, AtomType::Int),
        (AtomType::Str, AtomType::Str),
        (AtomType::Dbl, AtomType::Chr),
        (AtomType::Date, AtomType::Bool),
    ] {
        for case in 0..10 {
            let n = rng.gen_range(0..30usize);
            let m = rng.gen_range(0..30usize);
            let a = Bat::new(random_column(&mut rng, t1, n), random_column(&mut rng, t2, n));
            let b = Bat::new(random_column(&mut rng, t1, m), random_column(&mut rng, t2, m));
            let c = ops::concat_bats(&ctx, &a, &b).unwrap();
            assert_eq!(
                rows_of(&c),
                rows_of(&reference::concat_bats(&a, &b)),
                "({t1},{t2}) case {case}: concat"
            );
        }
    }
}

// ======================================================================
// Encoded-vs-decoded suite: dict tails through every kernel.
// ======================================================================

use monet::props::Enc;

/// Random string from the alphabet used by [`encoded_pair`]: long
/// duplicated strings so dictionary encoding's size gate engages (the raw
/// heap is not deduplicated).
fn encodable_value(rng: &mut StdRng) -> AtomValue {
    AtomValue::str(format!("Clerk#00000000000000000{}", rng.gen_range(0..5)))
}

/// A dict-encoded random string column plus its raw twin exposing the
/// same values over the same window — possibly an offset slice into a
/// larger allocation, so every typed kernel sees `off != 0` encoded views
/// too. Panics if the fixture fails to encode: the alphabet is sized so
/// the encoder's size gate always passes, and a silently-raw twin would
/// turn the whole suite into a vacuous raw-vs-raw comparison.
fn encoded_pair(rng: &mut StdRng, n: usize) -> (Column, Column) {
    let (pre, post) = if rng.gen_bool(0.5) {
        (rng.gen_range(0..4usize), rng.gen_range(0..4usize))
    } else {
        (0, 0)
    };
    let total = n + pre + post;
    let vals: Vec<AtomValue> = (0..total).map(|_| encodable_value(rng)).collect();
    let raw = Column::from_atoms(AtomType::Str, vals);
    let enc = raw.encode();
    assert_eq!(enc.encoding(), Enc::Dict, "fixture must actually encode");
    (enc.slice(pre, n), raw.slice(pre, n))
}

#[test]
fn encoded_tail_matches_raw_across_kernels() {
    one_morsel(|ctx, grid| {
        let mut rng = StdRng::seed_from_u64(SEED ^ 0x20);
        for case in 0..8 {
            let n = rng.gen_range(24..64usize);
            let head = random_column(&mut rng, AtomType::Oid, n);
            let (et, rt) = encoded_pair(&mut rng, n);
            let eb = Bat::new(head.clone(), et.clone());
            let rb = Bat::new(head.clone(), rt.clone());
            let tag = format!("case {case} {grid}");

            // Selections: point and range, member and non-member probes.
            let v = encodable_value(&mut rng);
            let g = ops::select_eq(&ctx, &eb, &v).unwrap();
            let e = ops::select_eq(&ctx, &rb, &v).unwrap();
            assert_eq!(rows_of(&g), rows_of(&e), "{tag}: select_eq");
            assert!(g.validate().is_ok(), "{tag}: select_eq props unsound");
            let (a, c) = (encodable_value(&mut rng), encodable_value(&mut rng));
            let (lo, hi) = if a.cmp_same_type(&c).is_le() { (a, c) } else { (c, a) };
            let (il, ih) = (rng.gen_bool(0.5), rng.gen_bool(0.5));
            let g = ops::select_range(&ctx, &eb, Some(&lo), Some(&hi), il, ih).unwrap();
            let e = ops::select_range(&ctx, &rb, Some(&lo), Some(&hi), il, ih).unwrap();
            assert_eq!(rows_of(&g), rows_of(&e), "{tag}: select_range");
            let g = ops::select_range(&ctx, &eb, Some(&lo), None, il, true).unwrap();
            let e = ops::select_range(&ctx, &rb, Some(&lo), None, il, true).unwrap();
            assert_eq!(rows_of(&g), rows_of(&e), "{tag}: select_range one-sided");
            for (l, h, il, ih) in bound_shapes(&lo, &hi) {
                let g = ops::select_range(&ctx, &eb, l, h, il, ih).unwrap();
                let e = reference::select_range(&rb, l, h, il, ih);
                assert_eq!(
                    rows_of(&g),
                    rows_of(&e),
                    "{tag}: select_range({l:?}, {h:?}, {il}, {ih})"
                );
            }

            // Grouping, uniqueness, ordering.
            let g = ops::group1(&ctx, &eb).unwrap();
            let e = ops::group1(&ctx, &rb).unwrap();
            assert_eq!(canon_gids(g.tail()), canon_gids(e.tail()), "{tag}: group1");
            let g = ops::unique(&ctx, &eb).unwrap();
            let e = ops::unique(&ctx, &rb).unwrap();
            assert_eq!(rows_of(&g), rows_of(&e), "{tag}: unique");
            let g = ops::sort_tail(&ctx, &eb).unwrap();
            let e = ops::sort_tail(&ctx, &rb).unwrap();
            assert_eq!(rows_of(&g), rows_of(&e), "{tag}: sort_tail");
            let k = rng.gen_range(0..n + 2);
            for desc in [false, true] {
                let g = ops::topn(&ctx, &eb, k, desc).unwrap();
                let e = ops::topn(&ctx, &rb, k, desc).unwrap();
                assert_eq!(rows_of(&g), rows_of(&e), "{tag}: topn({k}, desc={desc})");
            }

            // Joins: encoded left tail against an encoded right head, raw
            // twin against the raw twin; pair order must match exactly.
            let m = (n / 2).max(1);
            let rtail = random_column(&mut rng, AtomType::Int, m);
            let g = ops::join(&ctx, &eb, &Bat::new(et.slice(0, m), rtail.clone())).unwrap();
            let e = ops::join(&ctx, &rb, &Bat::new(rt.slice(0, m), rtail.clone())).unwrap();
            assert_eq!(rows_of(&g), rows_of(&e), "{tag}: join");
            let g = ops::semijoin(
                &ctx,
                &Bat::new(et.clone(), head.clone()),
                &Bat::new(et.slice(0, m), rtail.clone()),
            )
            .unwrap();
            let e = ops::semijoin(
                &ctx,
                &Bat::new(rt.clone(), head.clone()),
                &Bat::new(rt.slice(0, m), rtail.clone()),
            )
            .unwrap();
            assert_eq!(rows_of(&g), rows_of(&e), "{tag}: semijoin encoded heads");

            // Aggregates: both shapes must agree value-for-value, including
            // on which inputs are type errors.
            for f in [ops::AggFunc::Count, ops::AggFunc::Sum, ops::AggFunc::Min, ops::AggFunc::Avg]
            {
                match (ops::set_aggregate(&ctx, f, &eb), ops::set_aggregate(&ctx, f, &rb)) {
                    (Ok(g), Ok(e)) => {
                        assert_eq!(rows_of(&g), rows_of(&e), "{tag}: {{{}}}", f.name())
                    }
                    (Err(_), Err(_)) => {}
                    (g, e) => {
                        panic!("{tag}: {{{}}} disagree on error: {g:?} vs {e:?}", f.name())
                    }
                }
                match (ops::aggr_scalar(&ctx, &eb, f), ops::aggr_scalar(&ctx, &rb, f)) {
                    (Ok(g), Ok(e)) => assert_eq!(g, e, "{tag}: scalar {}", f.name()),
                    (Err(_), Err(_)) => {}
                    (g, e) => {
                        panic!("{tag}: scalar {} disagree on error: {g:?} vs {e:?}", f.name())
                    }
                }
            }
        }
    });
}

#[test]
fn encoded_multiplex_matches_raw() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x21);
    let ctx = ExecCtx::new();
    use ops::{MultArg, ScalarFunc as F};
    for case in 0..12 {
        let n = rng.gen_range(24..64usize);
        let head = random_column(&mut rng, AtomType::Oid, n);
        // Dict strings through the per-dictionary-entry predicate path.
        let (et, rt) = encoded_pair(&mut rng, n);
        for (f, pat) in
            [(F::StrPrefix, "Clerk#"), (F::StrContains, "0000002"), (F::StrPrefix, "zz")]
        {
            let p = MultArg::Const(AtomValue::str(pat));
            let g = ops::multiplex(
                &ctx,
                f,
                &[MultArg::Bat(Bat::new(head.clone(), et.clone())), p.clone()],
            );
            let e = ops::multiplex(
                &ctx,
                f,
                &[MultArg::Bat(Bat::new(head.clone(), rt.clone())), p.clone()],
            );
            assert_eq!(
                rows_of(&g.unwrap()),
                rows_of(&e.unwrap()),
                "case {case}: [{f:?}({pat})] over dict str"
            );
        }
    }
}

#[test]
fn typed_hashindex_finds_all_positions() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x19);
    for &ty in ALL_TYPES {
        for _ in 0..6 {
            let n = rng.gen_range(0..40usize);
            let col = random_column(&mut rng, ty, n);
            let idx = monet::accel::hash::HashIndex::build(&col);
            for probe in 0..n {
                // Chains run in ascending position: the first hit is the
                // value's first row.
                let hits: Vec<usize> = idx
                    .candidates(col.hash_at(probe))
                    .filter(|&p| col.eq_at(p, &col, probe))
                    .collect();
                let expect: Vec<usize> = (0..n).filter(|&p| col.eq_at(p, &col, probe)).collect();
                assert_eq!(hits, expect, "{ty}: hash index probe {probe}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Compact oid domains: direct join, datavector join, bitmap semi/antijoin and
// the dense-extent LOOKUP vs `ops::reference`, with the dispatched algorithm
// asserted through `take_algo` — a silent dispatch regression fails here.
// ---------------------------------------------------------------------------

use monet::accel::datavector::{Datavector, Extent};

/// The algorithm the last operator call recorded.
fn last_algo(ctx: &ExecCtx) -> &'static str {
    let algo = ctx.take_algo();
    assert!(!algo.is_empty(), "no operator call recorded");
    algo
}

/// `k` distinct oids out of `[lo, lo + span)`, shuffled and never ascending
/// (so no sorted-operand or sorted-domain shortcut can apply by accident).
fn shuffled_oids(rng: &mut StdRng, lo: u64, span: u64, k: usize) -> Vec<u64> {
    let mut all: Vec<u64> = (lo..lo + span).collect();
    for i in (1..all.len()).rev() {
        all.swap(i, rng.gen_range(0..=i));
    }
    all.truncate(k);
    if all.len() >= 2 && all.windows(2).all(|w| w[0] < w[1]) {
        all.reverse();
    }
    all
}

/// An oid-like probe column over `[lo - 3, lo + span + 3)`: a `void` run or
/// random materialized oids, so some probes fall below and above the domain.
fn probe_oids(rng: &mut StdRng, lo: u64, span: u64, n: usize, void: bool) -> Column {
    if void {
        Column::void(lo - 3, n)
    } else {
        Column::from_oids((0..n).map(|_| rng.gen_range(lo - 3..lo + span + 3)).collect())
    }
}

#[test]
fn direct_join_matches_reference_and_falls_back_when_it_must() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x31);
    let ctx = ExecCtx::new();
    for case in 0..40 {
        let (lo, span) = (rng.gen_range(3..50u64), rng.gen_range(2..40u64));
        // Enough right rows that the span passes the cost model's gate
        // (`span <= 8 * (probe + build)`) even against an empty left.
        let m = rng.gen_range((span as usize / 4 + 2).min(span as usize)..=span as usize);
        let right = Bat::with_inferred_props(
            Column::from_oids(shuffled_oids(&mut rng, lo, span, m)),
            random_column(&mut rng, ALL_TYPES[case % ALL_TYPES.len()], m),
        );
        assert!(right.props().head.key && !right.props().head.sorted);
        // Partial match, probes outside [lo, hi] included, void and
        // materialized left tails.
        let n = rng.gen_range(0..60usize);
        let left = Bat::new(
            random_column(&mut rng, AtomType::Int, n),
            probe_oids(&mut rng, lo, span, n, case % 2 == 0),
        );
        let got = ops::join(&ctx, &left, &right).unwrap();
        assert_eq!(last_algo(&ctx), "direct", "case {case}");
        assert_eq!(rows_of(&got), rows_of(&reference::join(&left, &right)), "case {case}: partial");
        // Full match: every left tail is one of the right heads, so the
        // result shares the left head column.
        let picks: Vec<u64> =
            (0..n.max(1)).map(|_| right.head().oid_at(rng.gen_range(0..m))).collect();
        let full =
            Bat::new(random_column(&mut rng, AtomType::Int, picks.len()), Column::from_oids(picks));
        let got = ops::join(&ctx, &full, &right).unwrap();
        assert_eq!(last_algo(&ctx), "direct", "case {case}");
        assert_eq!(rows_of(&got), rows_of(&reference::join(&full, &right)), "case {case}: full");
        assert!(got.synced(&full), "case {case}: a full match shares the left head");

        // Duplicate right heads: one oid has several positions, which a
        // position table cannot hold — hash, same rows.
        let mut dup_heads = right.head().as_oid_slice().unwrap().to_vec();
        dup_heads.push(dup_heads[0]);
        let dups = Bat::with_inferred_props(
            Column::from_oids(dup_heads),
            random_column(&mut rng, AtomType::Int, m + 1),
        );
        let got = ops::join(&ctx, &left, &dups).unwrap();
        assert_eq!(last_algo(&ctx), "hash", "case {case}: duplicate right heads");
        assert_eq!(rows_of(&got), rows_of(&reference::join(&left, &dups)), "case {case}: dups");
    }
    // A sparse span (two oids five million apart) is no compact domain.
    let sparse = Bat::with_inferred_props(
        Column::from_oids(vec![5_000_000, 5]),
        Column::from_ints(vec![1, 2]),
    );
    let left = Bat::new(Column::from_ints(vec![7, 8, 9]), Column::from_oids(vec![5, 6, 5_000_000]));
    let got = ops::join(&ctx, &left, &sparse).unwrap();
    assert_eq!(last_algo(&ctx), "hash");
    assert_eq!(rows_of(&got), rows_of(&reference::join(&left, &sparse)));
    // Empty operands on either side.
    let none = Bat::with_inferred_props(Column::from_oids(vec![]), Column::from_ints(vec![]));
    assert_eq!(ops::join(&ctx, &left, &none).unwrap().len(), 0);
    let right =
        Bat::with_inferred_props(Column::from_oids(vec![9, 4]), Column::from_ints(vec![1, 2]));
    let empty_left = Bat::new(Column::from_ints(vec![]), Column::from_oids(vec![]));
    assert_eq!(ops::join(&ctx, &empty_left, &right).unwrap().len(), 0);
}

/// An attribute BAT `[oid, T]` in shuffled order carrying a datavector over
/// `extent` (which must hold exactly the oids `lo..lo + n`, or a sparse
/// superset order of them — `extent[i]` owns `values[i]`).
fn attribute_with_datavector(rng: &mut StdRng, extent: Column, values: Column) -> Bat {
    let n = extent.len();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    if n >= 2 && perm.windows(2).all(|w| w[0] < w[1]) {
        perm.reverse();
    }
    let mut bat = Bat::with_inferred_props(extent.gather(&perm), values.gather(&perm));
    bat.set_datavector(std::sync::Arc::new(Datavector::new(Extent::new(extent), values)));
    bat
}

#[test]
fn datavector_join_matches_reference_over_void_and_materialized_extents() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x32);
    let ctx = ExecCtx::new();
    for case in 0..40 {
        let (lo, n) = (rng.gen_range(3..50u64), rng.gen_range(2..40usize));
        let ty = ALL_TYPES[case % ALL_TYPES.len()];
        let values = if ty == AtomType::Void {
            random_column(&mut rng, AtomType::Dbl, n)
        } else {
            random_column(&mut rng, ty, n)
        };
        // The same class extent, virtual and materialized: both are dense.
        let extent = if case % 2 == 0 {
            Column::void(lo, n)
        } else {
            Column::from_oids((lo..lo + n as u64).collect())
        };
        let right = attribute_with_datavector(&mut rng, extent, values);
        let k = rng.gen_range(0..60usize);
        let left = Bat::new(
            random_column(&mut rng, AtomType::Int, k),
            probe_oids(&mut rng, lo, n as u64, k, case % 4 < 2),
        );
        let got = ops::join(&ctx, &left, &right).unwrap();
        assert_eq!(last_algo(&ctx), "datavector", "case {case}");
        assert_eq!(rows_of(&got), rows_of(&reference::join(&left, &right)), "case {case}");
        // Two attribute dereferences off one left operand, both 100%
        // matches, come back synced — with each other and with the operand —
        // whichever arm served them.
        let inside = Bat::new(
            random_column(&mut rng, AtomType::Int, k.max(1)),
            Column::from_oids((0..k.max(1)).map(|_| rng.gen_range(lo..lo + n as u64)).collect()),
        );
        let a = ops::join(&ctx, &inside, &right).unwrap();
        assert_eq!(last_algo(&ctx), "datavector", "case {case}");
        let plain = Bat::with_inferred_props(right.head().clone(), right.tail().clone());
        let b = ops::join(&ctx, &inside, &plain).unwrap();
        assert_eq!(last_algo(&ctx), "direct", "case {case}: no datavector, compact key head");
        assert_eq!(rows_of(&a), rows_of(&b), "case {case}: datavector vs direct");
        assert!(a.synced(&b) && a.synced(&inside), "case {case}: full matches are synced");
    }
    // A sparse extent has no `oid - base` addressing: the datavector arm
    // steps aside and the rows stay right.
    let extent = Column::from_oids(vec![10, 12, 13, 20]);
    let right = attribute_with_datavector(&mut rng, extent, Column::from_ints(vec![1, 2, 3, 4]));
    let left = Bat::new(Column::from_ints(vec![0, 1, 2]), Column::from_oids(vec![13, 11, 20]));
    let got = ops::join(&ctx, &left, &right).unwrap();
    assert_ne!(last_algo(&ctx), "datavector");
    assert_eq!(rows_of(&got), rows_of(&reference::join(&left, &right)));
}

#[test]
fn bitmap_semijoin_antijoin_match_reference_and_fall_back_when_sparse() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x33);
    let ctx = ExecCtx::new();
    for case in 0..40 {
        let (lo, span) = (rng.gen_range(3..50u64), rng.gen_range(2..40u64));
        // Right heads: unsorted, duplicates welcome (membership only); at
        // least six, so the span passes the cost model's gate by itself.
        let m = rng.gen_range(6..40usize);
        let mut heads: Vec<u64> = (0..m).map(|_| rng.gen_range(lo..lo + span)).collect();
        if heads.windows(2).all(|w| w[0] <= w[1]) {
            heads.reverse();
            heads[0] = heads[0].max(heads[m - 1] + 1);
        }
        let cd = Bat::with_inferred_props(Column::from_oids(heads), Column::void(0, m));
        let n = rng.gen_range(0..60usize);
        let ab = Bat::new(
            probe_oids(&mut rng, lo, span + 1, n, case % 2 == 0),
            random_column(&mut rng, ALL_TYPES[case % ALL_TYPES.len()], n),
        );
        let semi = ops::semijoin(&ctx, &ab, &cd).unwrap();
        assert_eq!(last_algo(&ctx), "bitmap", "case {case}");
        assert_eq!(rows_of(&semi), rows_of(&reference::semijoin(&ab, &cd)), "case {case}: semi");
        let anti = ops::antijoin(&ctx, &ab, &cd).unwrap();
        assert_eq!(last_algo(&ctx), "bitmap", "case {case}");
        assert_eq!(rows_of(&anti), rows_of(&reference::antijoin(&ab, &cd)), "case {case}: anti");
        assert_eq!(semi.len() + anti.len(), ab.len(), "case {case}: the two partition AB");
        // A subset that kept everything shares AB's columns.
        let all = Bat::new(Column::from_oids(vec![lo + 1000]), Column::void(0, 1));
        let kept = ops::antijoin(&ctx, &ab, &all).unwrap();
        if !ab.is_empty() {
            assert!(kept.synced(&ab), "case {case}: a full subset stays synced with AB");
        }
    }
    let ab = Bat::new(Column::from_oids(vec![5, 7, 5_000_000]), Column::from_ints(vec![1, 2, 3]));
    let sparse = Bat::new(Column::from_oids(vec![5_000_000, 5]), Column::void(0, 2));
    let semi = ops::semijoin(&ctx, &ab, &sparse).unwrap();
    assert_eq!(last_algo(&ctx), "hash");
    assert_eq!(rows_of(&semi), rows_of(&reference::semijoin(&ab, &sparse)));
    let anti = ops::antijoin(&ctx, &ab, &sparse).unwrap();
    assert_eq!(last_algo(&ctx), "hash");
    assert_eq!(rows_of(&anti), rows_of(&reference::antijoin(&ab, &sparse)));
    // Empty operands: nothing selected, everything kept.
    let none = Bat::new(Column::from_oids(vec![]), Column::void(0, 0));
    assert_eq!(ops::semijoin(&ctx, &ab, &none).unwrap().len(), 0);
    assert_eq!(rows_of(&ops::antijoin(&ctx, &ab, &none).unwrap()), rows_of(&ab));
    assert_eq!(ops::semijoin(&ctx, &none, &ab).unwrap().len(), 0);
}

/// A dense-headed left operand over `[lo, lo + n)`: a `void` head or
/// materialized consecutive oids, whole or as the middle window of a
/// larger BAT (so `off != 0` and the base is not the allocation's first oid).
fn dense_left(rng: &mut StdRng, lo: u64, n: usize, tail_ty: AtomType, case: usize) -> Bat {
    let (pre, post) =
        if case % 4 < 2 { (0, 0) } else { (rng.gen_range(1..5), rng.gen_range(0..4)) };
    let total = pre + n + post;
    let first = lo - pre as u64;
    let head = if case % 2 == 0 {
        Column::void(first, total)
    } else {
        Column::from_oids((first..first + total as u64).collect())
    };
    let whole = Bat::with_inferred_props(head, random_column(rng, tail_ty, total));
    assert!(whole.props().head.dense);
    whole.slice(pre, n)
}

/// A selection (`[oid, void]`) with inferred properties.
fn selection_of(oids: Vec<u64>) -> Bat {
    let n = oids.len();
    Bat::with_inferred_props(Column::from_oids(oids), Column::void(0, n))
}

#[test]
fn positional_semijoin_addresses_a_dense_head_and_hands_the_selection_head_on() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x35);
    let ctx = ExecCtx::new();
    for case in 0..72 {
        let (lo, n) = (rng.gen_range(10..60u64), rng.gen_range(8..70usize));
        let ty = ALL_TYPES[case % ALL_TYPES.len()];
        let ab = dense_left(&mut rng, lo, n, ty, case);
        let sibling = Bat::with_props(
            ab.head().clone(),
            random_column(&mut rng, AtomType::Lng, n),
            monet::props::Props::new(ab.props().head, monet::props::ColProps::NONE),
        );
        let check = |cd: &Bat, algo: &str, what: &str| -> Bat {
            let got = ops::semijoin(&ctx, &ab, cd).unwrap();
            assert_eq!(last_algo(&ctx), algo, "case {case} {what}");
            assert_eq!(rows_of(&got), rows_of(&reference::semijoin(&ab, cd)), "case {case} {what}");
            assert!(got.validate().is_ok(), "case {case} {what}: props unsound");
            got
        };

        // A sorted key subset inside the domain survives whole: it *is* the
        // result head, so sibling attributes come out synced.
        let k = rng.gen_range(1..n);
        let mut inside = shuffled_oids(&mut rng, lo, n as u64, k);
        inside.sort_unstable();
        let sel = selection_of(inside.clone());
        let got = check(&sel, "positional", "key subset");
        assert_eq!(got.head().identity(), sel.head().identity(), "case {case}: head handed on");
        let other = ops::semijoin(&ctx, &sibling, &sel).unwrap();
        assert_eq!(last_algo(&ctx), "positional", "case {case} sibling");
        assert!(got.synced(&other), "case {case}: siblings by one selection are synced");
        // ... as a void run inside the domain too.
        let run = Bat::new(Column::void(lo + 1, k.min(n - 1)), Column::void(0, k.min(n - 1)));
        let got = check(&run, "positional", "void run");
        assert_eq!(
            got.head().identity(),
            run.head().identity(),
            "case {case}: void head handed on"
        );

        // Adjacent duplicates match once; the head is gathered, not shared.
        let mut dups = inside.clone();
        dups.extend_from_slice(&inside[..k.div_ceil(2)]);
        dups.sort_unstable();
        let got = check(&selection_of(dups), "positional", "duplicates");
        assert_eq!(got.len(), k, "case {case}: duplicates");

        // Partly and wholly outside the domain.
        let mut partly = inside.clone();
        partly.insert(0, lo - 2);
        partly.push(lo + n as u64);
        partly.push(lo + n as u64 + 7);
        let cd = selection_of(partly);
        let got = check(&cd, "positional", "partly outside");
        assert_ne!(got.head().identity(), cd.head().identity(), "case {case}: partly outside");
        let below = selection_of((lo - 9..lo).collect());
        assert_eq!(check(&below, "positional", "below").len(), 0);
        let above = selection_of(vec![lo + n as u64, lo + n as u64 + 3]);
        assert_eq!(check(&above, "positional", "above").len(), 0);
        assert_eq!(check(&selection_of(vec![]), "positional", "empty").len(), 0);

        // The whole domain (and more): a full match keeps sharing the
        // *left* columns, whatever column the selection is.
        let all = selection_of((lo - 1..lo + n as u64 + 1).collect());
        let got = check(&all, "positional", "whole domain");
        assert!(got.synced(&ab), "case {case}: a full subset stays synced with AB");
        assert_eq!(got.tail().identity(), ab.tail().identity(), "case {case}: full match tail");

        // Unsorted right head: the bitmap arm, its set bits enumerated.
        let mut unsorted = shuffled_oids(&mut rng, lo - 2, n as u64 + 4, (k + 5).min(n));
        unsorted.push(unsorted[0]);
        check(&selection_of(unsorted), "bitmap", "unsorted");
        // ... and a span the cost model refuses: hash.
        check(&selection_of(vec![lo + 5_000_000, lo + 1]), "hash", "sparse");
    }

    // Dictionary-encoded tails gather by the same positions as their raw
    // twins.
    for case in 0..6 {
        let n = rng.gen_range(24..64usize);
        let (et, rt) = encoded_pair(&mut rng, n);
        let head = Column::void(100, n);
        let (eb, rb) = (Bat::new(head.clone(), et), Bat::new(head, rt));
        let mut oids = shuffled_oids(&mut rng, 98, n as u64 + 4, n / 2);
        oids.sort_unstable();
        let sel = selection_of(oids);
        let got = ops::semijoin(&ctx, &eb, &sel).unwrap();
        assert_eq!(last_algo(&ctx), "positional", "case {case}");
        let want = ops::semijoin(&ctx, &rb, &sel).unwrap();
        assert_eq!(rows_of(&got), rows_of(&want), "case {case}");
        assert_eq!(rows_of(&got), rows_of(&reference::semijoin(&rb, &sel)));
        assert!(got.validate().is_ok(), "case {case}: props unsound");
    }
}

#[test]
fn lookup_against_a_materialized_dense_extent_equals_the_void_extent() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x34);
    for case in 0..40 {
        let (lo, n) = (rng.gen_range(3..50u64), rng.gen_range(1..40usize));
        let void = Extent::new(Column::void(lo, n));
        let dense = Extent::new(Column::from_oids((lo..lo + n as u64).collect()));
        assert_eq!(void.dense(), dense.dense(), "case {case}: both prove the same base");
        let k = rng.gen_range(0..60usize);
        let probe = probe_oids(&mut rng, lo, n as u64, k, case % 3 == 0);
        // Fresh contexts: the LOOKUP memo is per execution.
        let (a, b) = (void.lookup(&ExecCtx::new(), &probe), dense.lookup(&ExecCtx::new(), &probe));
        assert_eq!(a.positions, b.positions, "case {case}");
        let heads = |c: &Column| (0..c.len()).map(|i| c.oid_at(i)).collect::<Vec<_>>();
        assert_eq!(heads(&a.head), heads(&b.head), "case {case}");
        // ... and a sparse extent (one oid knocked out) still finds the
        // rest by binary search.
        if n >= 3 {
            let mut oids: Vec<u64> = (lo..lo + n as u64).collect();
            let gone = oids.remove(1);
            let sparse = Extent::new(Column::from_oids(oids.clone()));
            assert_eq!(sparse.dense(), None);
            let c = sparse.lookup(&ExecCtx::new(), &probe);
            let expect: Vec<u64> =
                heads(&probe).into_iter().filter(|o| *o != gone && oids.contains(o)).collect();
            assert_eq!(heads(&c.head), expect, "case {case}: sparse extent");
        }
    }
    // The precondition is a typed error in every build, not a debug assert.
    for bad in [vec![3u64, 2, 4], vec![2, 2, 3]] {
        match Extent::try_new(Column::from_oids(bad)) {
            Err(MonetError::InvalidProperties(d)) => assert!(d.contains("sorted"), "{d}"),
            other => panic!("unsorted/duplicate extent must be rejected, got {other:?}"),
        }
    }
    assert!(Extent::try_new(Column::from_ints(vec![1, 2])).is_err());
}

// ---------------------------------------------------------------------------
// The nest + aggregate tail: sync join, direct/packed grouping, the
// per-execution grouping memo.
// ---------------------------------------------------------------------------

/// The semantic descriptor of both columns (the encoding fact follows the
/// storage, not the algorithm).
fn semantic_props(b: &Bat) -> [(bool, bool, bool); 2] {
    let p = b.props();
    [(p.head.sorted, p.head.key, p.head.dense), (p.tail.sorted, p.tail.key, p.tail.dense)]
}

/// A duplicate-free column of `ty` with `n` rows (n <= 2 for bool).
fn key_column(rng: &mut StdRng, ty: AtomType, n: usize, sorted: bool) -> Column {
    if ty == AtomType::Void {
        return Column::void(rng.gen_range(0..30u64), n);
    }
    let mut vals: Vec<AtomValue> = (0..n as i32)
        .map(|i| match ty {
            AtomType::Oid => AtomValue::Oid(40 + i as u64),
            AtomType::Bool => AtomValue::Bool(i == 1),
            AtomType::Chr => AtomValue::Chr(b'a' + i as u8),
            AtomType::Int => AtomValue::Int(i * 3 - 20),
            AtomType::Lng => AtomValue::Lng(i as i64 * 1_000_003 - 9),
            AtomType::Dbl => AtomValue::Dbl(i as f64 * 0.5 - 3.0),
            AtomType::Str => AtomValue::str(format!("k{i:03}")),
            AtomType::Date => AtomValue::Date(Date(8000 + i * 2)),
            AtomType::Void => unreachable!(),
        })
        .collect();
    if !sorted {
        for i in (1..vals.len()).rev() {
            vals.swap(i, rng.gen_range(0..=i));
        }
    }
    Column::from_atoms(ty, vals)
}

#[test]
fn sync_join_matches_reference_and_fires_only_on_one_key_column() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x41);
    let ctx = ExecCtx::new();
    for &ty in ALL_TYPES {
        for case in 0..6 {
            let n = if ty == AtomType::Bool { 2 } else { rng.gen_range(2..40usize) };
            let sorted = case % 2 == 0;
            let k = key_column(&mut rng, ty, n, sorted);
            let ab = Bat::with_inferred_props(random_column(&mut rng, AtomType::Int, n), k.clone());
            let cd = Bat::with_inferred_props(
                k.clone(),
                random_column(&mut rng, ALL_TYPES[case % ALL_TYPES.len()], n),
            );
            assert!(cd.props().head.key);
            let got = ops::join(&ctx, &ab, &cd).unwrap();
            assert_eq!(last_algo(&ctx), "sync", "{ty} case {case}");
            assert_eq!(rows_of(&got), rows_of(&reference::join(&ab, &cd)), "{ty} case {case}");
            // Zero copy: both result columns *are* operand columns.
            assert_eq!(got.head().identity(), ab.head().identity(), "{ty} case {case}");
            assert_eq!(got.tail().identity(), cd.tail().identity(), "{ty} case {case}");
            // The same values under another identity take another arm and
            // must claim exactly the same properties.
            let all: Vec<u32> = (0..n as u32).collect();
            let twin = Bat::with_inferred_props(k.gather(&all), cd.tail().clone());
            let other = ops::join(&ctx, &ab, &twin).unwrap();
            assert_ne!(last_algo(&ctx), "sync", "{ty} case {case}: equal values, other column");
            assert_eq!(rows_of(&got), rows_of(&other), "{ty} case {case}: vs other arm");
            assert_eq!(semantic_props(&got), semantic_props(&other), "{ty} case {case}: props");
            assert!(other.synced(&ab) && got.synced(&ab), "{ty} case {case}: full match");
            // Windows of one storage: equal length, different offset — not
            // the same column, whatever the storage id says.
            if n >= 3 {
                let l = Bat::with_inferred_props(ab.head().slice(0, n - 1), k.slice(0, n - 1));
                let r = Bat::with_inferred_props(k.slice(1, n - 1), cd.tail().slice(1, n - 1));
                assert_eq!(l.tail().storage_id(), r.head().storage_id());
                let shifted = ops::join(&ctx, &l, &r).unwrap();
                assert_ne!(last_algo(&ctx), "sync", "{ty} case {case}: shifted windows");
                assert_eq!(rows_of(&shifted), rows_of(&reference::join(&l, &r)));
            }
        }
        // A shared join column with duplicates matches more than position
        // to position; its descriptor says so (`key` is false).
        if ty != AtomType::Void {
            let n = rng.gen_range(4..30usize);
            let d = random_column(&mut rng, ty, n);
            let ab = Bat::with_inferred_props(random_column(&mut rng, AtomType::Int, n), d.clone());
            let cd = Bat::with_inferred_props(d, random_column(&mut rng, AtomType::Int, n));
            if !cd.props().head.key {
                let got = ops::join(&ctx, &ab, &cd).unwrap();
                assert_ne!(last_algo(&ctx), "sync", "{ty}: non-key shared column");
                assert_eq!(rows_of(&got), rows_of(&reference::join(&ab, &cd)), "{ty}: non-key");
            }
        }
        // Empty operands over one (empty) column.
        let e = key_column(&mut rng, ty, 0, true);
        let ab = Bat::with_inferred_props(Column::from_ints(vec![]), e.clone());
        let cd = Bat::with_inferred_props(e, Column::from_ints(vec![]));
        assert_eq!(ops::join(&ctx, &ab, &cd).unwrap().len(), 0, "{ty}: empty");
        assert_eq!(last_algo(&ctx), "sync", "{ty}: empty");
    }
}

/// Integer-coded fixtures for the direct/packed grouping arms: every
/// fixed-width integer type with negative values where it has them, plus
/// a dictionary-encoded tail. `wide`
/// spreads two of the values far apart, so the span misses the
/// compact-domain gate.
fn coded_column(rng: &mut StdRng, kind: usize, n: usize, wide: bool) -> Column {
    let far = |i: usize| if wide && i % 7 == 3 { 1_000_000 } else { 0 };
    let pick = |rng: &mut StdRng| rng.gen_range(0..6usize);
    match kind {
        0 => Column::from_oids((0..n).map(|i| 30 + (pick(rng) + far(i)) as u64).collect()),
        1 => Column::from_bools((0..n).map(|_| rng.gen_bool(0.5)).collect()),
        2 => Column::from_chrs((0..n).map(|_| b'A' + pick(rng) as u8 * 3).collect()),
        3 => Column::from_ints((0..n).map(|i| pick(rng) as i32 * 5 - 12 - far(i) as i32).collect()),
        4 => Column::from_lngs((0..n).map(|i| pick(rng) as i64 - 3 - far(i) as i64 * 9).collect()),
        5 => Column::from_dates(
            (0..n).map(|i| Date(pick(rng) as i32 * 30 - 60 - far(i) as i32)).collect(),
        ),
        6 => {
            // Long duplicated strings: the dictionary's size gate engages.
            let c = Column::from_strs(
                (0..n).map(|_| format!("Clerk#00000000000000000{}", pick(rng))).collect::<Vec<_>>(),
            )
            .encode();
            assert_eq!(c.encoding(), Enc::Dict);
            c
        }
        _ => unreachable!(),
    }
}

const CODED_KINDS: usize = 7;

/// Key span of an (unsorted) integer-coded column, as the kernels see it.
fn span_of(col: &Column) -> usize {
    monet::typed::OidDomain::covering(col, false).expect("integer-coded fixture").span
}

#[test]
fn direct_group1_matches_reference_on_both_sides_of_the_gate() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x42);
    let ctx = ExecCtx::new();
    let mut seen: HashSet<&str> = HashSet::new();
    for kind in 0..CODED_KINDS {
        for case in 0..8 {
            // >= 64 rows: even the one-byte types' 256-slot bound passes
            // the gate (8 slots per row).
            let n = rng.gen_range(64..200usize);
            let b = Bat::new(Column::void(0, n), coded_column(&mut rng, kind, n, case % 2 == 1));
            let compact = monet::costmodel::domain_is_compact(span_of(b.tail()), n, 0);
            let expect = if compact { "direct" } else { "hash" };
            let g = ops::group1(&ctx, &b).unwrap();
            assert_eq!(last_algo(&ctx), expect, "kind {kind} case {case}");
            seen.insert(expect);
            assert_eq!(
                canon_gids(g.tail()),
                reference::group1_gids(&b),
                "kind {kind} case {case}: group1 {expect}"
            );
            // The `{g}` head grouping shares the kernel; the second
            // aggregate over the same head is a memo hit with the same
            // rows.
            let m = b.mirror();
            for (f, algo) in [(ops::AggFunc::Count, expect), (ops::AggFunc::Max, "memo")] {
                let got = ops::set_aggregate(&ctx, f, &m).unwrap();
                assert_eq!(last_algo(&ctx), algo, "kind {kind} case {case}: {{{}}}", f.name());
                assert_eq!(
                    rows_of(&got),
                    rows_of(&reference::set_aggregate(f, &m).unwrap()),
                    "kind {kind} case {case}: {{{}}}",
                    f.name()
                );
            }
        }
    }
    assert_eq!(seen.len(), 2, "the sweep must land on both sides of the gate");
    // One group, and as many groups as rows.
    let one = Bat::new(Column::void(0, 100), Column::from_ints(vec![-7; 100]));
    let g = ops::group1(&ctx, &one).unwrap();
    assert_eq!(last_algo(&ctx), "direct");
    assert_eq!(canon_gids(g.tail()), vec![0; 100]);
    let mut distinct: Vec<i32> = (0..100).map(|i| i * 3 - 150).collect();
    distinct.swap(0, 99);
    let all = Bat::new(Column::void(0, 100), Column::from_ints(distinct));
    let g = ops::group1(&ctx, &all).unwrap();
    assert_eq!(last_algo(&ctx), "direct");
    assert_eq!(canon_gids(g.tail()), (0..100).collect::<Vec<u64>>());
    // A table that would not fit what is left of the budget is not taken
    // (and neither is the 1.5 KB hash table): same numbering from disk.
    let tight = ExecCtx::new();
    tight.mem.set_budget(Some(1000));
    let b =
        Bat::new(Column::void(0, 64), Column::from_chrs((0..64).map(|i| b'a' + i % 3).collect()));
    let g = ops::group1(&tight, &b).unwrap();
    assert_eq!(last_algo(&tight), "spill", "256 slots x 4 bytes miss a 1000-byte headroom");
    assert_eq!(canon_gids(g.tail()), reference::group1_gids(&b));
}

#[test]
fn packed_group2_and_unique_match_reference_over_every_coded_pair() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x43);
    let ctx = ExecCtx::new();
    let mut seen: HashSet<&str> = HashSet::new();
    for k1 in 0..CODED_KINDS {
        for k2 in 0..CODED_KINDS {
            for wide in [false, true] {
                let n = rng.gen_range(300..400usize);
                let head = Column::void(7, n);
                let ab = Bat::new(head.clone(), coded_column(&mut rng, k1, n, false));
                let cd = Bat::new(head, coded_column(&mut rng, k2, n, wide));
                let slots = span_of(ab.tail()) * span_of(cd.tail());
                let packed = monet::costmodel::domain_is_compact(slots, n, 0);
                let tag = format!("({k1}, {k2}) wide={wide}");
                let g = ops::group2(&ctx, &ab, &cd).unwrap();
                let algo = last_algo(&ctx);
                assert_eq!(algo, if packed { "packed" } else { "sync" }, "{tag}");
                let expect = reference::group2_gids(&ab, &cd).unwrap();
                assert_eq!(canon_gids(g.tail()), canon_ids(&expect), "{tag}: group2 {algo}");
                // Hash-aligned: the attribute BAT in another row order.
                let mut perm: Vec<u32> = (0..n as u32).collect();
                for i in (1..n).rev() {
                    perm.swap(i, rng.gen_range(0..=i));
                }
                let shuffled =
                    Bat::with_inferred_props(cd.head().gather(&perm), cd.tail().gather(&perm));
                let g2 = ops::group2(&ctx, &ab, &shuffled).unwrap();
                let algo2 = last_algo(&ctx);
                assert_eq!(algo2, if packed { "packed-align" } else { "hash-align" }, "{tag}");
                assert_eq!(canon_gids(g2.tail()), canon_ids(&expect), "{tag}: group2 {algo2}");
                // Pair dedup over the same two columns.
                let pairs = Bat::new(ab.tail().clone(), cd.tail().clone());
                let u = ops::unique(&ctx, &pairs).unwrap();
                let ualgo = last_algo(&ctx);
                assert_eq!(ualgo, if packed { "packed" } else { "hash" }, "{tag}: unique");
                assert_eq!(rows_of(&u), rows_of(&reference::unique(&pairs)), "{tag}: {ualgo}");
                seen.extend([algo, algo2, ualgo]);
            }
        }
    }
    assert_eq!(seen.len(), 5, "both sides of the gate, synced and aligned: {seen:?}");
    // One group / every pair distinct / no rows.
    let n = 300usize;
    let head = Column::void(0, n);
    let a = Bat::new(head.clone(), Column::from_oids(vec![1 << 40; n]));
    let b = Bat::new(head.clone(), Column::from_chrs(vec![b'N'; n]));
    let g = ops::group2(&ctx, &a, &b).unwrap();
    assert_eq!(last_algo(&ctx), "packed");
    assert_eq!(canon_gids(g.tail()), vec![0; n]);
    let a = Bat::new(head.clone(), Column::from_ints((0..n as i32).map(|i| i / 20 - 7).collect()));
    let b = Bat::new(head, Column::from_ints((0..n as i32).map(|i| -(i % 20)).collect()));
    let g = ops::group2(&ctx, &a, &b).unwrap();
    assert_eq!(last_algo(&ctx), "packed");
    assert_eq!(canon_gids(g.tail()), (0..n as u64).collect::<Vec<_>>());
    let pairs = Bat::new(a.tail().clone(), b.tail().clone());
    assert_eq!(ops::unique(&ctx, &pairs).unwrap().len(), n);
    assert_eq!(last_algo(&ctx), "packed");
    let none = Bat::new(Column::from_oids(vec![]), Column::from_chrs(vec![]));
    assert_eq!(ops::group2(&ctx, &none, &none).unwrap().len(), 0);
    assert_eq!(ops::unique(&ctx, &none).unwrap().len(), 0);
}

// ---------------------------------------------------------------------------
// The out-of-core radix join and grouping over the partition sink
// (`monet::spill`): the filtered spill join and the spill grouping vs
// `ops::reference` at eps 0.0, with the dispatched algorithm asserted
// through `take_algo` and the filter's work read off `spilled_bytes`.
// ---------------------------------------------------------------------------

/// Every eligible join and group through the spill file.
fn spill_ctx() -> ExecCtx {
    let cfg = EngineConfig { spill_force: true, ..EngineConfig::default() };
    ExecCtx::with_config(std::sync::Arc::new(cfg))
}

/// Key kinds of the spill sweeps: oid, int, dbl, str, and str again with
/// the probe side dictionary-encoded.
const KEY_KINDS: usize = 5;

/// The column of kind `kind` holding key number `k` for every `k` of `keys`.
fn key_column_of(kind: usize, keys: &[u64]) -> Column {
    match kind {
        0 => Column::from_oids(keys.iter().map(|&k| 1000 + 7 * k).collect()),
        1 => Column::from_ints(keys.iter().map(|&k| 13 * k as i32 - 5000).collect()),
        2 => Column::from_dbls(keys.iter().map(|&k| k as f64 * 0.5 - 3.0).collect()),
        _ => Column::from_strs(keys.iter().map(|&k| format!("key-{k}")).collect::<Vec<_>>()),
    }
}

/// `ops::join` of `[oid, key]` with `[key, int]` under forced spill: the
/// `spill` arm must take it and reproduce `reference::join` exactly.
/// Returns the bytes the join wrote to its spill files.
fn check_spill_join(kind: usize, left: &[u64], right: &[u64], infer: bool, tag: &str) -> u64 {
    let ctx = spill_ctx();
    let mut tail = key_column_of(kind, left);
    if kind == 4 {
        tail = tail.encode();
    }
    let ab = Bat::new(Column::from_oids((0..left.len() as u64).map(|i| 9 * i + 1).collect()), tail);
    let (head, vals) =
        (key_column_of(kind, right), Column::from_ints((0..right.len() as i32).collect()));
    let cd = if infer { Bat::with_inferred_props(head, vals) } else { Bat::new(head, vals) };
    let got = ops::join(&ctx, &ab, &cd).unwrap();
    assert_eq!(last_algo(&ctx), "spill", "{tag} kind {kind}");
    assert_eq!(rows_of(&got), rows_of(&reference::join(&ab, &cd)), "{tag} kind {kind}");
    ctx.mem.spilled_bytes()
}

/// `n` draws from `lo..hi`, in random order with repetition.
fn draws(rng: &mut StdRng, n: usize, lo: u64, hi: u64) -> Vec<u64> {
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

#[test]
fn filtered_spill_join_matches_reference_over_every_key_kind_and_shape() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x51);
    let pair_bytes = |rows: usize| rows as u64 * 8;
    for kind in 0..KEY_KINDS {
        // 1500 build rows: two clusters. Probe keys 0..3000 hit half the
        // time. A `key` right head (inferred) takes the sort-free finish,
        // an undeclared or duplicated one the sort.
        let build = shuffled_oids(&mut rng, 0, 1500, 1500);
        let probe = draws(&mut rng, 2500, 0, 3000);
        let hits = probe.iter().filter(|&&k| k < 1500).count();
        let encoded = key_column_of(4, &probe).encode().encoding();
        assert_eq!(encoded, monet::props::Enc::Dict, "kind 4 must probe with dictionary codes");
        for infer in [true, false] {
            let spilled = check_spill_join(kind, &probe, &build, infer, "half match");
            assert!(spilled >= pair_bytes(1500 + hits), "build side whole + probe survivors");
            assert!(
                spilled < pair_bytes(1500 + hits + (2500 - hits) / 4),
                "filter dropped the rest"
            );
        }
        let dup_build = draws(&mut rng, 1500, 0, 400);
        check_spill_join(kind, &probe, &dup_build, true, "duplicate right heads");
        // No probe key occurs on the build side: (next to) nothing of the
        // probe side reaches its file, and nothing comes out.
        let apart = draws(&mut rng, 2500, 5000, 9000);
        let spilled = check_spill_join(kind, &apart, &build, true, "no match");
        assert!(spilled < pair_bytes(1500 + 2500 / 4), "an all-miss probe side stays off the file");
        // Every probe row finds its one partner.
        let all_hit = draws(&mut rng, 2500, 0, 1500);
        let spilled = check_spill_join(kind, &all_hit, &build, true, "full match");
        assert_eq!(spilled, pair_bytes(1500 + 2500), "a full match drops nothing");
        // One cluster (bits 0), and one value carrying most of a build
        // side whose other clusters stay small.
        check_spill_join(
            kind,
            &draws(&mut rng, 300, 0, 120),
            &shuffled_oids(&mut rng, 0, 100, 100),
            true,
            "bits 0",
        );
        let mut skewed = vec![7u64; 3000];
        skewed.extend(shuffled_oids(&mut rng, 0, 1200, 1200));
        let mut few = draws(&mut rng, 400, 0, 1300);
        few[9] = 7;
        few[300] = 7;
        check_spill_join(kind, &few, &skewed, false, "skewed cluster");
        // Empty operands, either side and both: the build side still goes
        // through the file, and no probe row survives an empty filter.
        for (l, r) in [(&[][..], &build[..]), (&probe[..], &[][..]), (&[][..], &[][..])] {
            let spilled = check_spill_join(kind, l, r, false, "empty operand");
            assert_eq!(spilled, pair_bytes(r.len()));
        }
    }
}

#[test]
fn spill_join_without_its_filter_is_the_same_join() {
    // 2048 build rows want a 2 KiB filter; under a 1500-byte budget (enough
    // for the handful of result rows) it is refused, every probe row goes
    // through the file, and the result does not change.
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x52);
    let build = shuffled_oids(&mut rng, 0, 2048, 2048);
    let mut probe = draws(&mut rng, 3000, 4000, 9000);
    for (i, k) in [(17usize, 5u64), (900, 2047), (2999, 5)] {
        probe[i] = k;
    }
    let ab = Bat::new(Column::void(0, probe.len()), key_column_of(1, &probe));
    let cd = Bat::with_inferred_props(key_column_of(1, &build), Column::void(0, build.len()));
    let expect = rows_of(&reference::join(&ab, &cd));
    assert_eq!(expect.len(), 3);
    let tight = ExecCtx::new();
    tight.mem.set_budget(Some(1500));
    let got = ops::join(&tight, &ab, &cd).unwrap();
    assert_eq!(last_algo(&tight), "spill", "the budget forces the join out of core");
    assert_eq!(rows_of(&got), expect);
    assert_eq!(tight.mem.spilled_bytes(), (2048 + 3000) * 8, "no filter: both sides whole");
    let roomy = spill_ctx();
    let got = ops::join(&roomy, &ab, &cd).unwrap();
    assert_eq!(rows_of(&got), expect);
    assert!(
        roomy.mem.spilled_bytes() < (2048 + 3000 / 4) * 8,
        "with it, the misses stay off the file"
    );
}

#[test]
fn spill_grouping_numbers_like_hash_grouping_over_every_key_kind() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x53);
    for kind in 0..KEY_KINDS {
        // 300 rows: one cluster; 5000 rows: several, 40 of the keys heavy.
        for (n, distinct) in [(300usize, 50u64), (5000, 1700), (0, 1)] {
            let mut keys = draws(&mut rng, n, 0, distinct);
            keys.iter_mut().step_by(3).for_each(|k| *k %= 40);
            let mut tail = key_column_of(kind, &keys);
            if kind == 4 {
                tail = tail.encode();
            }
            let b = Bat::new(Column::void(0, n), tail);
            let tag = format!("kind {kind}, {n} rows");
            let mem = ExecCtx::with_config(std::sync::Arc::new(EngineConfig::default()));
            let in_memory = ops::group1(&mem, &b).unwrap();
            assert!(matches!(last_algo(&mem), "hash" | "direct"), "{tag}");
            let ctx = spill_ctx();
            let spilled = ops::group1(&ctx, &b).unwrap();
            assert_eq!(last_algo(&ctx), "spill", "{tag}");
            assert_eq!(ctx.mem.spilled_bytes(), n as u64 * 8, "{tag}: every row through the file");
            assert_eq!(canon_gids(spilled.tail()), canon_gids(in_memory.tail()), "{tag}");
            assert_eq!(canon_gids(spilled.tail()), reference::group1_gids(&b), "{tag}");
            // The `{g}` head grouping shares the kernel and the sink.
            let m = b.mirror();
            let got = ops::set_aggregate(&ctx, ops::AggFunc::Count, &m).unwrap();
            assert_eq!(last_algo(&ctx), "spill", "{tag}: {{count}}");
            let expect = reference::set_aggregate(ops::AggFunc::Count, &m).unwrap();
            assert_eq!(rows_of(&got), rows_of(&expect), "{tag}: {{count}}");
        }
    }
}

// ---------------------------------------------------------------------------
// The grouping `group` seeds: every `{g}` over a `group` result's tail and
// the nest keys' dedup read it (`memo`), equal to `ops::reference` at eps
// 0.0, and a dedup the grouping does not determine takes the pair numbering.
// ---------------------------------------------------------------------------

/// A `group` result's seeded grouping, read through `{g}`: `{count}` over
/// the group ids and `{min}` / `{sum}` over `[gid, row position]` are
/// `memo` hits equal to the reference's own first-occurrence grouping, so
/// every row lands in its group and every group's first row is its
/// representative.
fn check_seeded(ctx: &ExecCtx, class: &Bat, tag: &str) {
    let by_class = class.mirror();
    let n = class.len() as i32;
    let positions =
        Bat::with_inferred_props(class.head().clone(), Column::from_ints((0..n).collect()));
    let rows = ops::join(ctx, &by_class, &positions).unwrap();
    assert!(rows.head().identity() == class.tail().identity(), "{tag}: a sync join");
    let cases =
        [(ops::AggFunc::Count, &by_class), (ops::AggFunc::Min, &rows), (ops::AggFunc::Sum, &rows)];
    for (f, b) in cases {
        let got = ops::set_aggregate(ctx, f, b).unwrap();
        assert_eq!(last_algo(ctx), "memo", "{tag}: {{{}}}", f.name());
        let want = reference::set_aggregate(f, b).unwrap();
        assert_eq!(rows_of(&got), rows_of(&want), "{tag}: {{{}}}", f.name());
    }
}

#[test]
fn group_seeds_the_grouping_of_its_tail_on_every_arm() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x61);
    let mut seen: HashSet<&str> = HashSet::new();
    for kind in 0..CODED_KINDS {
        for (wide, sorted, spill) in
            [(false, false, false), (true, false, false), (false, true, false), (true, true, true)]
        {
            let tag = format!("kind {kind} wide={wide} sorted={sorted} spill={spill}");
            let ctx = if spill { spill_ctx() } else { ExecCtx::new() };
            let n = rng.gen_range(300..400usize);
            let mut b =
                Bat::with_inferred_props(Column::void(5, n), coded_column(&mut rng, kind, n, wide));
            if sorted {
                b = ops::sort_tail(&ctx, &b).unwrap();
                assert!(b.props().tail.sorted, "{tag}");
            }
            let class1 = ops::group1(&ctx, &b).unwrap();
            seen.insert(last_algo(&ctx));
            check_seeded(&ctx, &class1, &format!("{tag}: group1"));
            // Refined by a second coded attribute, synced with the first.
            let cd = Bat::new(b.head().clone(), coded_column(&mut rng, (kind + 3) % 6, n, wide));
            let class2 = ops::group2(&ctx, &class1, &cd).unwrap();
            seen.insert(last_algo(&ctx));
            check_seeded(&ctx, &class2, &format!("{tag}: group2"));
        }
    }
    let mut seen: Vec<_> = seen.into_iter().collect();
    seen.sort_unstable();
    assert_eq!(seen, ["direct", "hash", "packed", "spill", "sync"]);
}

#[test]
fn a_nest_key_dedup_reads_the_grouping_or_numbers_the_pairs() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x62);
    let mut seen: HashSet<&str> = HashSet::new();
    for (k1, k2) in [(2, 5), (6, 3), (0, 6), (4, 1)] {
        for wide in [false, true] {
            let tag = format!("({k1}, {k2}) wide={wide}");
            let ctx = ExecCtx::new();
            let n = rng.gen_range(300..400usize);
            let head = Column::void(7, n);
            let ab = Bat::with_inferred_props(head.clone(), coded_column(&mut rng, k1, n, wide));
            let cd = Bat::with_inferred_props(head, coded_column(&mut rng, k2, n, wide));
            let class1 = ops::group1(&ctx, &ab).unwrap();
            let class = ops::group2(&ctx, &class1, &cd).unwrap();
            // KEY := join(class.mirror, k).unique, for both keys of the
            // refined group and the one of the group it refines.
            for (class, key) in [(&class, &ab), (&class, &cd), (&class1, &ab)] {
                let keys = ops::join(&ctx, &class.mirror(), key).unwrap();
                let got = ops::unique(&ctx, &keys).unwrap();
                assert_eq!(last_algo(&ctx), "memo", "{tag}");
                let fresh = ExecCtx::new();
                let numbered = ops::unique(&fresh, &keys).unwrap();
                seen.insert(last_algo(&fresh));
                assert_eq!(rows_of(&got), rows_of(&numbered), "{tag}: memo vs pair numbering");
                assert_eq!(rows_of(&got), rows_of(&reference::unique(&keys)), "{tag}");
            }
            // Not determined: the group ids next to the row positions, and
            // next to the attribute of a hash-aligned refinement (which
            // records no key: its rows are not the grouped column's).
            let mut perm: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                perm.swap(i, rng.gen_range(0..=i));
            }
            let shuffled =
                Bat::with_inferred_props(cd.head().gather(&perm), cd.tail().gather(&perm));
            let aligned = ops::group2(&ctx, &class1, &shuffled).unwrap();
            assert!(last_algo(&ctx).ends_with("-align"), "{tag}");
            let positions = Column::from_ints((0..n as i32).collect());
            for pairs in [
                Bat::new(class.tail().clone(), positions),
                Bat::new(aligned.tail().clone(), shuffled.tail().clone()),
                Bat::new(aligned.tail().clone(), ab.tail().clone()),
            ] {
                let got = ops::unique(&ctx, &pairs).unwrap();
                let algo = last_algo(&ctx);
                assert!(matches!(algo, "packed" | "hash"), "{tag}: {algo}");
                assert_eq!(rows_of(&got), rows_of(&reference::unique(&pairs)), "{tag}: {algo}");
            }
        }
    }
    assert!(seen.contains("packed") && seen.contains("hash"), "{seen:?}");
}
