//! The morsel grid, checked where it shows: on operands spanning two full
//! [`MORSEL_ROWS`] morsels plus an odd remainder. The scan-shaped
//! operators — select scan, synced multiplex, `aggr_scalar` — and the
//! float partials of `{g}` walk that grid, so a window boundary must be
//! invisible in their results: they equal the row-at-a-time generic
//! `ops::reference`, across all 9 atom types and sliced column windows,
//! and encoded operands equal their raw twins.
//!
//! A float sum is *defined* by the grid: it is the morsel-order sum of its
//! per-morsel row-order partials, bit for bit ([`grid_sum`] spells it
//! out). Integral doubles make every other sum here association-free, so
//! those compare exactly against the reference's row-order fold.
//!
//! The per-operator suites on one-morsel operands are
//! `crates/monet/tests/ops_props.rs`.

use std::collections::HashMap;
use std::sync::Arc;

use monet::atom::{AtomType, AtomValue, Date};
use monet::bat::Bat;
use monet::column::Column;
use monet::config::EngineConfig;
use monet::ctx::ExecCtx;
use monet::ops::{self, reference, AggFunc, MultArg, ScalarFunc as F, MORSEL_ROWS};
use monet::props::Enc;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x9A12_1998;

/// A fresh context at the default configuration.
fn ctx() -> ExecCtx {
    ExecCtx::with_config(Arc::new(EngineConfig::default()))
}

/// Rows of an operand spanning two full morsels and an odd remainder.
fn grid_rows(rng: &mut StdRng) -> usize {
    2 * MORSEL_ROWS + 2 * rng.gen_range(0..MORSEL_ROWS / 2) + 1
}

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

fn random_value(rng: &mut StdRng, ty: AtomType) -> AtomValue {
    match ty {
        AtomType::Void | AtomType::Oid => AtomValue::Oid(rng.gen_range(0..24u64)),
        AtomType::Bool => AtomValue::Bool(rng.gen_bool(0.5)),
        AtomType::Chr => AtomValue::Chr(rng.gen_range(b'a'..=b'e')),
        AtomType::Int => AtomValue::Int(rng.gen_range(-8..8i32)),
        AtomType::Lng => AtomValue::Lng(rng.gen_range(-9..9i64)),
        // Integral doubles: IEEE addition over them is exact (well within
        // 2^53), so even order-sensitive float sums equal the row-order
        // reference fold. Non-integral sums are `dbl_sums_follow_the_grid`.
        AtomType::Dbl => AtomValue::Dbl(rng.gen_range(-40..40i32) as f64),
        AtomType::Str => {
            let vocab = ["", "a", "ab", "b", "ba", "zz", "EUROPE", "ASIA"];
            AtomValue::str(vocab[rng.gen_range(0..vocab.len())])
        }
        AtomType::Date => AtomValue::Date(Date(rng.gen_range(8000..8020i32))),
    }
}

/// A random column of `ty`, often presented as an offset window into a
/// larger allocation (so the morsel windows start at `off != 0`).
fn random_column(rng: &mut StdRng, ty: AtomType, n: usize) -> Column {
    let windowed = rng.gen_bool(0.5);
    let (pre, post) =
        if windowed { (rng.gen_range(0..7usize), rng.gen_range(0..7usize)) } else { (0, 0) };
    let total = n + pre + post;
    let col = if ty == AtomType::Void {
        Column::void(rng.gen_range(0..30u64), total)
    } else {
        Column::from_atoms(ty, (0..total).map(|_| random_value(rng, ty)))
    };
    col.slice(pre, n)
}

/// Exact (head, tail) value sequence — order matters, bits matter (Dbl
/// compares via the IEEE-total-order `AtomValue` equality).
fn rows_of(b: &Bat) -> Vec<(AtomValue, AtomValue)> {
    b.iter().collect()
}

/// Canonical first-appearance relabeling of a group-id column.
fn canon_gids(tail: &Column) -> Vec<u64> {
    let mut map = HashMap::new();
    (0..tail.len())
        .map(|i| {
            let next = map.len() as u64;
            *map.entry(tail.oid_at(i)).or_insert(next)
        })
        .collect()
}

/// The morsel ranges of a `len`-row operand.
fn morsels(len: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..len).step_by(MORSEL_ROWS).map(move |s| s..(s + MORSEL_ROWS).min(len))
}

/// The grid's definition of a float sum: the morsel-order sum of the
/// per-morsel row-order partials.
fn grid_sum(vals: &[f64]) -> f64 {
    morsels(vals.len()).map(|m| vals[m].iter().sum::<f64>()).sum()
}

/// The grid's definition of per-group float sums over dense group ids:
/// one partial per morsel, folded into the totals in morsel order.
fn grid_group_sums(gid: &[usize], vals: &[f64], ngroups: usize) -> Vec<f64> {
    let mut total = vec![0f64; ngroups];
    for m in morsels(vals.len()) {
        let mut part = vec![0f64; ngroups];
        for i in m {
            part[gid[i]] += vals[i];
        }
        for (t, p) in total.iter_mut().zip(&part) {
            *t += p;
        }
    }
    total
}

/// The dbl tail values of a BAT, in order.
fn dbls(b: &Bat) -> Vec<f64> {
    (0..b.len()).map(|i| b.tail().dbl_at(i)).collect()
}

// ---------------------------------------------------------------------------
// select scan
// ---------------------------------------------------------------------------

#[test]
fn select_scan_matches_reference_across_morsels() {
    let mut rng = StdRng::seed_from_u64(SEED);
    for &ty in ALL_TYPES {
        let n = grid_rows(&mut rng);
        let b = Bat::new(random_column(&mut rng, AtomType::Oid, n), random_column(&mut rng, ty, n));
        let v = random_value(&mut rng, ty);
        let (a2, c2) = (random_value(&mut rng, ty), random_value(&mut rng, ty));
        let (lo, hi) = if a2.cmp_same_type(&c2).is_le() { (a2, c2) } else { (c2, a2) };
        let (il, ih) = (rng.gen_bool(0.5), rng.gen_bool(0.5));
        let ctx = ctx();
        let got = ops::select_eq(&ctx, &b, &v).unwrap();
        assert_eq!(rows_of(&got), rows_of(&reference::select_eq(&b, &v)), "{ty} n={n}: eq");
        let got = ops::select_range(&ctx, &b, Some(&lo), Some(&hi), il, ih).unwrap();
        let want = reference::select_range(&b, Some(&lo), Some(&hi), il, ih);
        assert_eq!(rows_of(&got), rows_of(&want), "{ty} n={n}: range");
    }
}

// ---------------------------------------------------------------------------
// synced multiplex
// ---------------------------------------------------------------------------

#[test]
fn synced_multiplex_matches_reference_across_morsels() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    let value_types = [
        AtomType::Int,
        AtomType::Lng,
        AtomType::Dbl,
        AtomType::Date,
        AtomType::Chr,
        AtomType::Bool,
        AtomType::Str,
    ];
    for &ty in &value_types {
        let n = grid_rows(&mut rng);
        let head = random_column(&mut rng, AtomType::Oid, n);
        let x = Bat::new(head.clone(), random_column(&mut rng, ty, n));
        let arg2 = if rng.gen_bool(0.4) {
            MultArg::Const(random_value(&mut rng, ty))
        } else {
            MultArg::Bat(Bat::new(head.clone(), random_column(&mut rng, ty, n)))
        };
        let funcs: Vec<F> = match ty {
            AtomType::Int | AtomType::Lng | AtomType::Dbl => vec![F::Add, F::Mul, F::Div, F::Lt],
            AtomType::Date | AtomType::Chr => vec![F::Eq, F::Ge],
            AtomType::Bool => vec![F::And, F::Not],
            _ => vec![F::Ne, F::StrPrefix, F::StrContains],
        };
        for f in funcs {
            let args: Vec<MultArg> = match f {
                F::Not => vec![MultArg::Bat(x.clone())],
                F::StrPrefix | F::StrContains => vec![
                    MultArg::Bat(x.clone()),
                    MultArg::Const(random_value(&mut rng, AtomType::Str)),
                ],
                _ => vec![MultArg::Bat(x.clone()), arg2.clone()],
            };
            let expect = reference::multiplex_synced(f, &args);
            match (ops::multiplex(&ctx(), f, &args), expect) {
                (Ok(g), Ok(e)) => assert_eq!(rows_of(&g), rows_of(&e), "[{f:?}] {ty} n={n}"),
                (Err(_), Err(_)) => {}
                (got, expect) => panic!(
                    "[{f:?}] {ty} n={n}: outcome disagreement: got ok={} ref ok={}",
                    got.is_ok(),
                    expect.is_ok()
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// scalar aggregates and the set-aggregate constructor {g}
// ---------------------------------------------------------------------------

#[test]
fn aggregates_match_reference_across_morsels() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 6);
    let aggs = [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg];
    for &ty in ALL_TYPES {
        let n = grid_rows(&mut rng);
        let b = Bat::new(
            Column::from_oids((0..n as u64).map(|i| i % 23).collect()),
            random_column(&mut rng, ty, n),
        );
        for f in aggs {
            match (ops::aggr_scalar(&ctx(), &b, f), reference::aggr_scalar(&b, f)) {
                (Ok(g), Ok(e)) => assert_eq!(g, e, "{ty}: scalar {}", f.name()),
                (Err(_), Err(_)) => {}
                _ => panic!("{ty}: scalar {} outcome disagreement", f.name()),
            }
            // A fresh context: each `{g}` derives its own grouping.
            match (ops::set_aggregate(&ctx(), f, &b), reference::set_aggregate(f, &b)) {
                (Ok(g), Ok(e)) => assert_eq!(rows_of(&g), rows_of(&e), "{ty}: {{{}}}", f.name()),
                (Err(_), Err(_)) => {}
                _ => panic!("{ty}: {{{}}} outcome disagreement", f.name()),
            }
        }
    }
}

#[test]
fn dbl_sums_follow_the_grid() {
    // Non-integral doubles: IEEE addition is order-sensitive, so the
    // result bits pin the association the grid defines.
    let mut rng = StdRng::seed_from_u64(SEED ^ 7);
    let n = grid_rows(&mut rng);
    let vals: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0) * 1e-3 + 0.1).collect();
    let b = Bat::new(
        Column::from_oids((0..n as u64).map(|i| i % 7).collect()),
        Column::from_dbls(vals.clone()),
    );
    let sum = ops::aggr_scalar(&ctx(), &b, AggFunc::Sum).unwrap();
    assert_eq!(sum, AtomValue::Dbl(grid_sum(&vals)), "sum");
    let avg = ops::aggr_scalar(&ctx(), &b, AggFunc::Avg).unwrap();
    assert_eq!(avg, AtomValue::Dbl(grid_sum(&vals) / n as f64), "avg");
    let gid: Vec<usize> = (0..n).map(|i| i % 7).collect();
    let got = ops::set_aggregate(&ctx(), AggFunc::Sum, &b).unwrap();
    assert_eq!(dbls(&got), grid_group_sums(&gid, &vals, 7), "per-group sums");
}

// ---------------------------------------------------------------------------
// The nest + aggregate tail: slot-table grouping, pair grouping and dedup,
// the sync join and the grouping memo, then float `{g}` on the grid.
// ---------------------------------------------------------------------------

#[test]
fn nest_aggregate_tail_takes_its_arms_and_sums_on_the_grid() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 17);
    let n = grid_rows(&mut rng);
    let objects = Column::from_oids((0..n as u64).map(|i| 500 + i).collect());
    let flag = Bat::with_inferred_props(
        objects.clone(),
        Column::from_chrs((0..n).map(|_| b"ANR"[rng.gen_range(0..3usize)]).collect()),
    );
    let status = Bat::with_inferred_props(
        objects.clone(),
        Column::from_dates((0..n).map(|_| Date(rng.gen_range(-3..3i32))).collect()),
    );
    let price = Bat::with_inferred_props(
        objects,
        Column::from_dbls((0..n).map(|_| rng.gen_range(-1.0..1.0) * 1e-3 + 0.1).collect()),
    );
    let ctx = ctx();
    let mut algos = Vec::new();
    // One kernel call's result, after noting the label it recorded.
    let mut run = |r: monet::error::Result<Bat>| {
        algos.push(ctx.take_algo());
        r.unwrap()
    };
    let class = run(ops::group1(&ctx, &flag));
    let class = run(ops::group2(&ctx, &class, &status));
    let by_class = class.mirror();
    let flags = run(ops::join(&ctx, &by_class, &flag));
    let prices = run(ops::join(&ctx, &by_class, &price));
    let uniq = run(ops::unique(&ctx, &flags));
    let count = run(ops::set_aggregate(&ctx, AggFunc::Count, &by_class));
    let sum = run(ops::set_aggregate(&ctx, AggFunc::Sum, &prices));
    let avg = run(ops::set_aggregate(&ctx, AggFunc::Avg, &prices));
    assert_eq!(algos, ["direct", "packed", "sync", "sync", "packed", "direct", "memo", "memo"]);

    assert_eq!(rows_of(&uniq), rows_of(&reference::unique(&flags)), "unique");
    let want = reference::set_aggregate(AggFunc::Count, &by_class).unwrap();
    assert_eq!(rows_of(&count), rows_of(&want), "count");
    // The float sums: heads as the reference's, tails the grid's bits.
    let gid: Vec<usize> = canon_gids(prices.head()).iter().map(|&g| g as usize).collect();
    let vals = dbls(&prices);
    let sums = grid_group_sums(&gid, &vals, count.len());
    let counts: Vec<i64> = (0..count.len()).map(|i| count.tail().lng_at(i)).collect();
    let avgs: Vec<f64> = sums.iter().zip(&counts).map(|(s, &c)| s / c as f64).collect();
    for (got, f, want) in [(&sum, AggFunc::Sum, sums), (&avg, AggFunc::Avg, avgs)] {
        let heads = |b: &Bat| rows_of(b).into_iter().map(|r| r.0).collect::<Vec<_>>();
        let reference = reference::set_aggregate(f, &prices).unwrap();
        assert_eq!(heads(got), heads(&reference), "{{{}}} heads", f.name());
        assert_eq!(dbls(got), want, "{{{}}} bits", f.name());
    }
}

// ---------------------------------------------------------------------------
// encoded operands: dict tails equal their raw twins — the morsel windows
// cut narrow dict codes exactly like raw ones.
// ---------------------------------------------------------------------------

/// Long, heavily duplicated strings: the dict size gate must pass even
/// though `from_atoms` does not deduplicate its heap.
fn encodable_value(rng: &mut StdRng) -> AtomValue {
    AtomValue::str(format!("Clerk#00000000000000000{}", rng.gen_range(0..5)))
}

/// A dict-encoded random string column plus its raw twin exposing the
/// same values over the same window, often as an `off != 0` slice. Panics
/// if the fixture fails to encode — a silently-raw twin would make the
/// sweep a vacuous raw-vs-raw comparison.
fn encoded_pair(rng: &mut StdRng, n: usize) -> (Column, Column) {
    let (pre, post) = if rng.gen_bool(0.5) {
        (rng.gen_range(0..7usize), rng.gen_range(0..7usize))
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
fn encoded_kernels_match_raw_across_morsels() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 9);
    let n = grid_rows(&mut rng);
    let (enc, raw) = encoded_pair(&mut rng, n);
    let head = Column::from_oids((0..n as u64).collect());
    let eb = Bat::new(head.clone(), enc);
    let rb = Bat::new(head, raw);
    let tag = format!("str n={n}");

    // Probes drawn from the fixture alphabet (plus one miss value).
    let v = encodable_value(&mut rng);
    let (a2, c2) = (encodable_value(&mut rng), encodable_value(&mut rng));
    let (lo, hi) = if a2.cmp_same_type(&c2).is_le() { (a2, c2) } else { (c2, a2) };

    // The generic reference over the RAW twin is the ground truth.
    let ctx = ctx();
    let got = ops::select_eq(&ctx, &eb, &v).unwrap();
    assert_eq!(rows_of(&got), rows_of(&reference::select_eq(&rb, &v)), "{tag}: eq");
    let got = ops::select_range(&ctx, &eb, Some(&lo), Some(&hi), true, false).unwrap();
    let want = reference::select_range(&rb, Some(&lo), Some(&hi), true, false);
    assert_eq!(rows_of(&got), rows_of(&want), "{tag}: range");
    let got = ops::select_range(&ctx, &eb, Some(&v), None, false, true).unwrap();
    let want = reference::select_range(&rb, Some(&v), None, false, true);
    assert_eq!(rows_of(&got), rows_of(&want), "{tag}: open range");
    // (The reference dedup is quadratic in distinct pairs; the raw
    // kernel stands in for it at this size.)
    let got = ops::unique(&ctx, &eb).unwrap();
    assert_eq!(rows_of(&got), rows_of(&ops::unique(&ctx, &rb).unwrap()), "{tag}: unique");
    let got = ops::group1(&ctx, &eb).unwrap();
    assert_eq!(canon_gids(got.tail()), reference::group1_gids(&rb), "{tag}: group1");

    // Dict-specific broadcast: StrPrefix evaluates once per dictionary
    // entry, then fans out through the narrow codes.
    let prefix = MultArg::Const(AtomValue::str("Clerk#000"));
    let args = vec![MultArg::Bat(eb.clone()), prefix.clone()];
    let raw_args = vec![MultArg::Bat(rb.clone()), prefix];
    let got = ops::multiplex(&ctx, F::StrPrefix, &args).unwrap();
    let want = reference::multiplex_synced(F::StrPrefix, &raw_args).unwrap();
    assert_eq!(rows_of(&got), rows_of(&want), "{tag}: prefix");
}

// ---------------------------------------------------------------------------
// scan chains: select -> map -> (aggr) through the operators, one statement
// at a time, the way the interpreter runs them; every intermediate crosses
// the morsel driver of its own kernel, empty operands included.
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum Arg {
    Chain,
    Side(Bat),
    Const(AtomValue),
}

#[derive(Clone)]
enum Step {
    Eq(AtomValue),
    Range(AtomValue, AtomValue),
    Map(F, Vec<Arg>),
    Aggr(AggFunc),
}

#[derive(Debug, PartialEq)]
enum Outcome {
    Rows(Vec<(AtomValue, AtomValue)>),
    Scalar(AtomValue),
    /// Both sides refuse; their messages may differ.
    Fail,
}

/// Run `steps` over `src` through the kernels (`ctx`) or, without one,
/// through `ops::reference`.
fn run_chain(ctx: Option<&ExecCtx>, src: &Bat, steps: &[Step]) -> Outcome {
    let mut cur = src.clone();
    for step in steps {
        let next = match step {
            Step::Eq(v) => match ctx {
                Some(ctx) => ops::select_eq(ctx, &cur, v),
                None => Ok(reference::select_eq(&cur, v)),
            },
            Step::Range(lo, hi) => match ctx {
                Some(ctx) => ops::select_range(ctx, &cur, Some(lo), Some(hi), true, false),
                None => Ok(reference::select_range(&cur, Some(lo), Some(hi), true, false)),
            },
            Step::Map(f, args) => {
                let margs: Vec<MultArg> = args
                    .iter()
                    .map(|a| match a {
                        Arg::Chain => MultArg::Bat(cur.clone()),
                        Arg::Side(b) => MultArg::Bat(b.clone()),
                        Arg::Const(v) => MultArg::Const(v.clone()),
                    })
                    .collect();
                match ctx {
                    Some(ctx) => ops::multiplex(ctx, *f, &margs),
                    None => reference::multiplex_synced(*f, &margs),
                }
            }
            Step::Aggr(f) => {
                let r = match ctx {
                    Some(ctx) => ops::aggr_scalar(ctx, &cur, *f),
                    None => reference::aggr_scalar(&cur, *f),
                };
                return r.map_or(Outcome::Fail, Outcome::Scalar);
            }
        };
        match next {
            Ok(b) => cur = b,
            Err(_) => return Outcome::Fail,
        }
    }
    Outcome::Rows(rows_of(&cur))
}

#[test]
fn scan_chains_match_reference_across_morsels() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 10);
    for &ty in &[AtomType::Int, AtomType::Lng, AtomType::Dbl] {
        for n in [0, grid_rows(&mut rng)] {
            let src =
                Bat::new(random_column(&mut rng, AtomType::Oid, n), random_column(&mut rng, ty, n));
            let v = random_value(&mut rng, ty);
            let (a2, c2) = (random_value(&mut rng, ty), random_value(&mut rng, ty));
            let (lo, hi) = if a2.cmp_same_type(&c2).is_le() { (a2, c2) } else { (c2, a2) };
            let range = Step::Range(lo, hi);
            let mul = Step::Map(F::Mul, vec![Arg::Chain, Arg::Const(v.clone())]);
            let sub_side = Step::Map(F::Sub, vec![Arg::Chain, Arg::Side(src.clone())]);
            let chains: Vec<Vec<Step>> = vec![
                vec![range.clone(), mul.clone()],
                // a synced side operand, then a float-association-sensitive sum
                vec![mul.clone(), sub_side.clone(), Step::Aggr(AggFunc::Sum)],
                vec![mul.clone(), Step::Aggr(AggFunc::Avg)],
                vec![Step::Eq(v.clone()), Step::Aggr(AggFunc::Count)],
                vec![range.clone(), Step::Aggr(AggFunc::Min)],
                vec![range.clone(), Step::Aggr(AggFunc::Max)],
                vec![range.clone(), Step::Aggr(AggFunc::Sum)],
            ];
            for (ci, steps) in chains.iter().enumerate() {
                let got = run_chain(Some(&ctx()), &src, steps);
                let want = run_chain(None, &src, steps);
                assert_eq!(got, want, "{ty} n={n} chain {ci}: vs reference");
            }
        }
    }
}
