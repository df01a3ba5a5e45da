//! Parallel-vs-serial oracle harness: every parallelized kernel must be
//! **bit-identical** to the generic reference implementation *and* to its
//! own serial path, across all 9 atom types, sliced/offset column windows,
//! and thread counts {1, 2, 4, 7} (the odd count catches remainder-morsel
//! bugs; 1 is the forced-serial `FLATALG_THREADS=1` path).
//!
//! The thread count, row threshold and morsel size are the fields of the
//! `EngineConfig` each run's context is built from, so the suite sweeps
//! configurations from concurrent test threads without sharing anything.
//! Morsel sizes are deliberately small and odd (the operands
//! here are hundreds of rows, not hundreds of thousands), which exercises
//! many-morsel schedules and ragged final morsels.
//!
//! ROADMAP rule: parallel kernels ship with a parallel-vs-serial oracle
//! test — new parallel kernels get their cases added HERE.

use monet::atom::{AtomType, AtomValue, Date};
use monet::bat::Bat;
use monet::column::Column;
use monet::config::EngineConfig;
use monet::ctx::ExecCtx;
use monet::ops::{self, reference};
use monet::props::Enc;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x9A12_1998;

/// Thread counts every kernel is swept over. 7 is deliberately odd and
/// larger than the morsel count of some operands (excess threads must
/// idle harmlessly).
const THREADS: [usize; 4] = [1, 2, 4, 7];

/// Small odd morsel size: a few hundred-row operand becomes many morsels
/// with a ragged tail.
const MORSEL: usize = 53;

/// A fresh context forced onto the parallel path: `threads` workers, every
/// operand above the row threshold, `morsel_rows` rows per morsel.
fn par_ctx(threads: usize, morsel_rows: usize) -> ExecCtx {
    let cfg = EngineConfig { threads, par_min_rows: 1, morsel_rows, ..EngineConfig::default() };
    ExecCtx::with_config(std::sync::Arc::new(cfg))
}

/// Run `f` on a fresh forced-parallel context with tiny odd morsels.
fn parallel<R>(threads: usize, f: impl FnOnce(&ExecCtx) -> R) -> R {
    f(&par_ctx(threads, MORSEL))
}

/// The kernel's own serial path under the *same* morsel grid (morsel
/// decomposition is part of the kernel definition for float reductions,
/// so the serial oracle must share it).
fn serial<R>(f: impl FnOnce(&ExecCtx) -> R) -> R {
    parallel(1, f)
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
        AtomType::Dbl => {
            // Integral doubles: IEEE addition over them is exact (well
            // within 2^53), so even order-sensitive float sums are
            // bit-identical to the row-order reference fold. The
            // non-integral association case is covered separately in
            // `dbl_sum_bit_identical_across_thread_counts`.
            AtomValue::Dbl(rng.gen_range(-40..40i32) as f64)
        }
        AtomType::Str => {
            let vocab = ["", "a", "ab", "b", "ba", "zz", "EUROPE", "ASIA"];
            AtomValue::str(vocab[rng.gen_range(0..vocab.len())])
        }
        AtomType::Date => AtomValue::Date(Date(rng.gen_range(8000..8020i32))),
    }
}

/// A random column of `ty`, often presented as an offset window into a
/// larger allocation (so every parallel kernel sees `off != 0` slices).
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

// ---------------------------------------------------------------------------
// select scan / range scan
// ---------------------------------------------------------------------------

#[test]
fn par_select_bit_identical() {
    let mut rng = StdRng::seed_from_u64(SEED);
    for &ty in ALL_TYPES {
        for case in 0..4 {
            let n = rng.gen_range(0..400usize);
            let b =
                Bat::new(random_column(&mut rng, AtomType::Oid, n), random_column(&mut rng, ty, n));
            let v = random_value(&mut rng, ty);
            let (a2, c2) = (random_value(&mut rng, ty), random_value(&mut rng, ty));
            let (lo, hi) = if a2.cmp_same_type(&c2).is_le() { (a2, c2) } else { (c2, a2) };
            let (il, ih) = (rng.gen_bool(0.5), rng.gen_bool(0.5));
            let ref_eq = reference::select_eq(&b, &v);
            let ref_rng = reference::select_range(&b, Some(&lo), Some(&hi), il, ih);
            let ser_eq = serial(|ctx| ops::select_eq(ctx, &b, &v).unwrap());
            let ser_rng =
                serial(|ctx| ops::select_range(ctx, &b, Some(&lo), Some(&hi), il, ih).unwrap());
            for t in THREADS {
                let got = parallel(t, |ctx| ops::select_eq(ctx, &b, &v).unwrap());
                assert_eq!(rows_of(&got), rows_of(&ref_eq), "{ty} case {case} t={t}: eq vs ref");
                assert_eq!(rows_of(&got), rows_of(&ser_eq), "{ty} case {case} t={t}: eq vs serial");
                let got = parallel(t, |ctx| {
                    ops::select_range(ctx, &b, Some(&lo), Some(&hi), il, ih).unwrap()
                });
                assert_eq!(rows_of(&got), rows_of(&ref_rng), "{ty} case {case} t={t}: rng vs ref");
                assert_eq!(
                    rows_of(&got),
                    rows_of(&ser_rng),
                    "{ty} case {case} t={t}: rng vs serial"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// multiplex synced fast paths
// ---------------------------------------------------------------------------

#[test]
fn par_multiplex_bit_identical() {
    use ops::{MultArg, ScalarFunc as F};
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
    for case in 0..6 {
        let n = rng.gen_range(0..350usize);
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
                AtomType::Date | AtomType::Chr => vec![F::Eq, F::Ne, F::Lt, F::Ge],
                AtomType::Bool => vec![F::And, F::Or, F::Not, F::Eq],
                _ => vec![F::Eq, F::Ne, F::Lt, F::Gt, F::StrPrefix, F::StrContains],
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
                let ser = serial(|ctx| ops::multiplex(ctx, f, &args));
                for t in THREADS {
                    let got = parallel(t, |ctx| ops::multiplex(ctx, f, &args));
                    match (&got, &expect, &ser) {
                        (Ok(g), Ok(e), Ok(s)) => {
                            assert_eq!(
                                rows_of(g),
                                rows_of(e),
                                "[{f:?}] {ty} case {case} t={t} vs ref"
                            );
                            assert_eq!(
                                rows_of(g),
                                rows_of(s),
                                "[{f:?}] {ty} case {case} t={t} vs serial"
                            );
                        }
                        (Err(_), Err(_), Err(_)) => {}
                        _ => panic!(
                            "[{f:?}] {ty} case {case} t={t}: outcome disagreement \
                             got={got:?} ref-err={} serial-err={}",
                            expect.is_err(),
                            ser.is_err()
                        ),
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// partitioned join (build + probe per cluster)
// ---------------------------------------------------------------------------

#[test]
fn par_join_partitioned_bit_identical_small_vs_reference() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 2);
    for &ty in ALL_TYPES {
        for case in 0..4 {
            let n = rng.gen_range(0..60usize);
            let m = rng.gen_range(0..60usize);
            let left =
                Bat::new(random_column(&mut rng, AtomType::Oid, n), random_column(&mut rng, ty, n));
            let right =
                Bat::new(random_column(&mut rng, ty, m), random_column(&mut rng, AtomType::Int, m));
            let expect = reference::join(&left, &right);
            let ser = serial(|ctx| ops::join_partitioned(ctx, &left, &right).unwrap());
            for t in THREADS {
                let got = parallel(t, |ctx| ops::join_partitioned(ctx, &left, &right).unwrap());
                assert_eq!(rows_of(&got), rows_of(&expect), "{ty} case {case} t={t}: vs ref");
                assert_eq!(rows_of(&got), rows_of(&ser), "{ty} case {case} t={t}: vs serial");
            }
        }
    }
}

#[test]
fn par_join_partitioned_bit_identical_large_vs_hash() {
    // Big enough that radix_bits > 0: many real clusters per task, the
    // epoch-tagged table reused across clusters within each worker. The
    // monolithic hash join (bit-identical to the reference per PR 3's
    // suite) is the fast oracle at this scale.
    let mut rng = StdRng::seed_from_u64(SEED ^ 3);
    let ctx = ExecCtx::new();
    let n = 20_000usize;
    let m = 6_000usize;
    let left = Bat::new(
        Column::from_oids((0..n as u64).collect()),
        Column::from_ints((0..n).map(|_| rng.gen_range(0..4_000i32)).collect()),
    );
    let right = Bat::new(
        Column::from_ints((0..m).map(|_| rng.gen_range(0..4_000i32)).collect()),
        Column::from_oids((0..m as u64).map(|i| 50_000 + i).collect()),
    );
    let oracle = ops::join::join_hash(&ctx, &left, &right);
    let default_grid = |t| par_ctx(t, monet::par::MORSEL_ROWS);
    let ser = ops::join_partitioned(&default_grid(1), &left, &right).unwrap();
    assert_eq!(rows_of(&ser), rows_of(&oracle), "serial partitioned vs hash oracle");
    for t in THREADS {
        // Default morsel grid; the join parallelizes over cluster ranges,
        // not morsels, so only the thread count matters here.
        let got = ops::join_partitioned(&default_grid(t), &left, &right).unwrap();
        assert_eq!(rows_of(&got), rows_of(&oracle), "t={t}: partitioned vs hash oracle");
    }
}

// ---------------------------------------------------------------------------
// group1 / unique (per-worker GroupTables, ordered merge)
// ---------------------------------------------------------------------------

#[test]
fn par_group1_bit_identical() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 4);
    for &ty in ALL_TYPES {
        for case in 0..4 {
            let n = rng.gen_range(0..400usize);
            let b =
                Bat::new(random_column(&mut rng, AtomType::Oid, n), random_column(&mut rng, ty, n));
            // Fresh contexts per run: group oids restart at the same base,
            // so the comparison is exact (ids, not just partitions).
            let expect = reference::group1_gids(&b);
            let ser = serial(|ctx| ops::group1(ctx, &b).unwrap());
            for t in THREADS {
                let got = parallel(t, |ctx| ops::group1(ctx, &b).unwrap());
                assert_eq!(rows_of(&got), rows_of(&ser), "{ty} case {case} t={t}: vs serial");
                // Reference numbering is canonical 0-based first-occurrence;
                // kernel ids are the same order-isomorphic sequence shifted
                // by the fresh-oid base — relabel and compare exactly.
                let got_canon: Vec<u64> = {
                    let mut map = std::collections::HashMap::new();
                    (0..got.len())
                        .map(|i| {
                            let g = got.tail().oid_at(i);
                            let next = map.len() as u64;
                            *map.entry(g).or_insert(next)
                        })
                        .collect()
                };
                assert_eq!(got_canon, expect, "{ty} case {case} t={t}: vs reference");
            }
        }
    }
}

#[test]
fn par_unique_bit_identical() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 5);
    for &t1 in ALL_TYPES {
        for &t2 in ALL_TYPES {
            // Small alphabets: plenty of duplicate pairs across morsels.
            let n = rng.gen_range(0..250usize);
            let b = Bat::new(random_column(&mut rng, t1, n), random_column(&mut rng, t2, n));
            let expect = reference::unique(&b);
            let ser = serial(|ctx| ops::unique(ctx, &b).unwrap());
            for t in THREADS {
                let got = parallel(t, |ctx| ops::unique(ctx, &b).unwrap());
                assert_eq!(rows_of(&got), rows_of(&expect), "({t1},{t2}) t={t}: vs ref");
                assert_eq!(rows_of(&got), rows_of(&ser), "({t1},{t2}) t={t}: vs serial");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// scalar aggregates and the set-aggregate constructor {g}
// ---------------------------------------------------------------------------

#[test]
fn par_aggregates_bit_identical() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 6);
    // `{g}` runs on fresh contexts: a context memoizes the grouping of a
    // head column, and every run here must derive its own.
    let aggs = [
        ops::AggFunc::Count,
        ops::AggFunc::Sum,
        ops::AggFunc::Min,
        ops::AggFunc::Max,
        ops::AggFunc::Avg,
    ];
    for &ty in ALL_TYPES {
        for case in 0..4 {
            let n = rng.gen_range(0..400usize);
            let b = Bat::new(
                Column::from_oids((0..n as u64).map(|i| i % 23).collect()),
                random_column(&mut rng, ty, n),
            );
            for f in aggs {
                let ref_scalar = reference::aggr_scalar(&b, f);
                let ref_set = reference::set_aggregate(f, &b);
                let ser_scalar = serial(|ctx| ops::aggr_scalar(ctx, &b, f));
                let ser_set = serial(|ctx| ops::set_aggregate(ctx, f, &b));
                for t in THREADS {
                    let got = parallel(t, |ctx| ops::aggr_scalar(ctx, &b, f));
                    match (&got, &ref_scalar, &ser_scalar) {
                        (Ok(g), Ok(e), Ok(s)) => {
                            assert_eq!(g, e, "{ty} case {case} t={t}: scalar {} vs ref", f.name());
                            assert_eq!(
                                g,
                                s,
                                "{ty} case {case} t={t}: scalar {} vs serial",
                                f.name()
                            );
                        }
                        (Err(_), Err(_), Err(_)) => {}
                        _ => panic!(
                            "{ty} case {case} t={t}: scalar {} outcome disagreement",
                            f.name()
                        ),
                    }
                    let got = parallel(t, |ctx| ops::set_aggregate(ctx, f, &b));
                    match (&got, &ref_set, &ser_set) {
                        (Ok(g), Ok(e), Ok(s)) => {
                            assert_eq!(
                                rows_of(g),
                                rows_of(e),
                                "{ty} case {case} t={t}: {{{}}} vs ref",
                                f.name()
                            );
                            assert_eq!(
                                rows_of(g),
                                rows_of(s),
                                "{ty} case {case} t={t}: {{{}}} vs serial",
                                f.name()
                            );
                        }
                        (Err(_), Err(_), Err(_)) => {}
                        _ => {
                            panic!("{ty} case {case} t={t}: {{{}}} outcome disagreement", f.name())
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn dbl_sum_bit_identical_across_thread_counts() {
    // Non-integral doubles: IEEE addition is order-sensitive, so this is
    // the case that breaks any executor that reduces in completion order
    // or cuts morsels by thread count. The kernel's contract: the morsel
    // grid is fixed, partials are combined in morsel order, so every
    // thread count gives the same bits as the serial path.
    let mut rng = StdRng::seed_from_u64(SEED ^ 7);
    let n = 3_001usize; // deliberately not a multiple of the morsel size
    let vals: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0) * 1e-3 + 0.1).collect();
    let b = Bat::new(
        Column::from_oids((0..n as u64).map(|i| i % 7).collect()),
        Column::from_dbls(vals),
    );
    let ser_scalar = serial(|ctx| ops::aggr_scalar(ctx, &b, ops::AggFunc::Sum).unwrap());
    let ser_avg = serial(|ctx| ops::aggr_scalar(ctx, &b, ops::AggFunc::Avg).unwrap());
    let ser_set = serial(|ctx| ops::set_aggregate(ctx, ops::AggFunc::Sum, &b).unwrap());
    for t in THREADS {
        let got = parallel(t, |ctx| ops::aggr_scalar(ctx, &b, ops::AggFunc::Sum).unwrap());
        assert_eq!(got, ser_scalar, "t={t}: {{sum}} bits");
        let got = parallel(t, |ctx| ops::aggr_scalar(ctx, &b, ops::AggFunc::Avg).unwrap());
        assert_eq!(got, ser_avg, "t={t}: avg bits");
        let got = parallel(t, |ctx| ops::set_aggregate(ctx, ops::AggFunc::Sum, &b).unwrap());
        assert_eq!(rows_of(&got), rows_of(&ser_set), "t={t}: per-group sum bits");
    }
}

// ---------------------------------------------------------------------------
// The nest + aggregate tail: slot-table grouping and pair grouping/dedup
// are serial arms (threads > 1 keep the per-morsel hash tables), the sync
// join and the grouping memo do not depend on the thread count at all —
// so the whole tail must come out bit-identical at every count, whichever
// arms each count dispatches.
// ---------------------------------------------------------------------------

#[test]
fn nest_aggregate_tail_bit_identical_across_arms_and_thread_counts() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 17);
    let n = 2_003usize;
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
    // (rows of every result, dispatched algorithms), on one fresh context.
    let tail = |ctx: &ExecCtx| {
        let mut algos = Vec::new();
        // One kernel call's result, after noting the label it recorded.
        let mut run = |r: monet::error::Result<Bat>| {
            algos.push(ctx.take_algo());
            r.unwrap()
        };
        let class = run(ops::group1(ctx, &flag));
        let class = run(ops::group2(ctx, &class, &status));
        let by_class = class.mirror();
        let flags = run(ops::join(ctx, &by_class, &flag));
        let prices = run(ops::join(ctx, &by_class, &price));
        let out = [
            run(ops::unique(ctx, &flags)),
            run(ops::set_aggregate(ctx, ops::AggFunc::Count, &by_class)),
            run(ops::set_aggregate(ctx, ops::AggFunc::Sum, &prices)),
            run(ops::set_aggregate(ctx, ops::AggFunc::Avg, &prices)),
        ];
        // Reference on the same operands (the group oids are this run's).
        assert_eq!(rows_of(&out[0]), rows_of(&reference::unique(&flags)));
        for (got, f) in out[2..].iter().zip([ops::AggFunc::Sum, ops::AggFunc::Avg]) {
            let expect = reference::set_aggregate(f, &prices).unwrap();
            let (got, expect) = (rows_of(got), rows_of(&expect));
            assert_eq!(got.len(), expect.len());
            for (g, e) in got.iter().zip(&expect) {
                // Heads exactly; the float tails only up to association
                // (the kernel sums on the morsel grid, the reference in
                // row order) — their *bits* are compared across runs below.
                assert_eq!(g.0, e.0);
                let (AtomValue::Dbl(x), AtomValue::Dbl(y)) = (&g.1, &e.1) else { panic!() };
                assert!((x - y).abs() < 1e-9, "{{{}}}: {x} vs {y}", f.name());
            }
        }
        (out.map(|b| rows_of(&b)), class.tail().clone(), algos)
    };
    let (ser_rows, ser_class, ser_algos) = serial(tail);
    assert_eq!(
        ser_algos,
        ["direct", "packed", "sync", "sync", "packed", "direct", "memo", "memo"],
        "serial dispatch"
    );
    for t in THREADS {
        let (rows, class, algos) = parallel(t, tail);
        if t > 1 {
            assert_eq!(
                algos,
                ["par-hash", "packed", "sync", "sync", "par-hash", "par-hash", "memo", "memo"],
                "t={t} dispatch"
            );
        }
        assert_eq!(rows, ser_rows, "t={t}: rows, float bits included");
        let ids = |c: &Column| (0..c.len()).map(|i| c.oid_at(i)).collect::<Vec<_>>();
        assert_eq!(ids(&class), ids(&ser_class), "t={t}: group oids");
    }
}

// ---------------------------------------------------------------------------
// Larger mixed sweep on the default morsel grid (remainder morsels at the
// real size, threads > morsels for the smaller operands).
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// encoded operands: dict / FOR / RLE tails must be bit-identical to their
// raw twins under every thread count — the morsel scheduler cuts encoded
// windows (narrow dict codes, FOR deltas, run boundaries) exactly like raw
// ones, and the merge order is part of the kernel contract either way.
// ---------------------------------------------------------------------------

fn encodable_value(rng: &mut StdRng, ty: AtomType) -> AtomValue {
    match ty {
        // Long, heavily duplicated strings: the dict size gate must pass
        // even though `from_atoms` does not deduplicate its heap.
        AtomType::Str => AtomValue::str(format!("Clerk#00000000000000000{}", rng.gen_range(0..5))),
        _ => random_value(rng, ty),
    }
}

/// An encoded random column of `ty` plus its raw twin exposing the same
/// values over the same window, often as an `off != 0` slice. Panics if
/// the fixture fails to encode — a silently-raw twin would make the sweep
/// a vacuous raw-vs-raw comparison.
fn encoded_pair(rng: &mut StdRng, ty: AtomType, n: usize, sorted: bool) -> (Column, Column) {
    let (pre, post) = if rng.gen_bool(0.5) {
        (rng.gen_range(0..7usize), rng.gen_range(0..7usize))
    } else {
        (0, 0)
    };
    let total = n + pre + post;
    // Sorted fixtures use a 4-value alphabet: at most 4 runs, so the RLE
    // run-count gate (`runs * 4 <= rows`) passes for every n >= 16.
    let mut vals: Vec<AtomValue> = if sorted {
        (0..total)
            .map(|_| {
                let i = rng.gen_range(0..4i32);
                match ty {
                    AtomType::Str => AtomValue::str(format!("Clerk#00000000000000000{i}")),
                    AtomType::Int => AtomValue::Int(i),
                    AtomType::Date => AtomValue::Date(Date(8000 + i)),
                    _ => unreachable!("no RLE fixture for {ty}"),
                }
            })
            .collect()
    } else {
        (0..total).map(|_| encodable_value(rng, ty)).collect()
    };
    if sorted {
        vals.sort_by(|a, b| a.cmp_same_type(b));
    }
    let raw = Column::from_atoms(ty, vals.into_iter());
    let enc = raw.encode(sorted);
    let want = if sorted {
        Enc::Rle
    } else if ty == AtomType::Str {
        Enc::Dict
    } else {
        Enc::For
    };
    assert_eq!(enc.encoding(), want, "{ty} sorted={sorted}: fixture must actually encode");
    (enc.slice(pre, n), raw.slice(pre, n))
}

#[test]
fn par_encoded_kernels_bit_identical() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 9);
    // (type, sorted): dict strings, FOR ints/dates, RLE runs.
    let legs: &[(AtomType, bool)] = &[
        (AtomType::Str, false),
        (AtomType::Int, false),
        (AtomType::Date, false),
        (AtomType::Str, true),
        (AtomType::Int, true),
    ];
    for &(ty, sorted) in legs {
        for case in 0..3 {
            let n = rng.gen_range(150..400usize);
            let (enc, raw) = encoded_pair(&mut rng, ty, n, sorted);
            let head = Column::from_oids((0..n as u64).collect());
            let eb = Bat::new(head.clone(), enc);
            let rb = Bat::new(head, raw);
            let tag = format!("{ty} sorted={sorted} case {case}");

            // Probes drawn from the fixture alphabet (plus one miss value).
            let v = encodable_value(&mut rng, ty);
            let (a2, c2) = (encodable_value(&mut rng, ty), encodable_value(&mut rng, ty));
            let (lo, hi) = if a2.cmp_same_type(&c2).is_le() { (a2, c2) } else { (c2, a2) };

            // The generic reference over the RAW twin is the ground truth;
            // the encoded serial path must match it, and every parallel
            // schedule must match both.
            let ref_eq = reference::select_eq(&rb, &v);
            let ref_rng = reference::select_range(&rb, Some(&lo), Some(&hi), true, false);
            let ref_open = reference::select_range(&rb, Some(&v), None, false, true);
            let ref_uni = reference::unique(&rb);
            let ref_gid = reference::group1_gids(&rb);
            let ser_eq = serial(|ctx| ops::select_eq(ctx, &eb, &v).unwrap());
            let ser_rng = serial(|ctx| {
                ops::select_range(ctx, &eb, Some(&lo), Some(&hi), true, false).unwrap()
            });
            let ser_uni = serial(|ctx| ops::unique(ctx, &eb).unwrap());
            let ser_g = serial(|ctx| ops::group1(ctx, &eb).unwrap());
            assert_eq!(rows_of(&ser_eq), rows_of(&ref_eq), "{tag}: serial eq vs raw ref");
            let ser_open = serial(|ctx| ops::select_range(ctx, &eb, Some(&v), None, false, true));
            assert_eq!(rows_of(&ser_rng), rows_of(&ref_rng), "{tag}: serial range vs raw ref");
            assert_eq!(rows_of(&ser_open.unwrap()), rows_of(&ref_open), "{tag}: serial open range");
            assert_eq!(rows_of(&ser_uni), rows_of(&ref_uni), "{tag}: serial unique vs raw ref");
            for t in THREADS {
                let got = parallel(t, |ctx| ops::select_eq(ctx, &eb, &v).unwrap());
                assert_eq!(rows_of(&got), rows_of(&ser_eq), "{tag} t={t}: eq");
                let got = parallel(t, |ctx| {
                    ops::select_range(ctx, &eb, Some(&lo), Some(&hi), true, false).unwrap()
                });
                assert_eq!(rows_of(&got), rows_of(&ser_rng), "{tag} t={t}: range");
                let got = parallel(t, |ctx| {
                    ops::select_range(ctx, &eb, Some(&v), None, false, true).unwrap()
                });
                assert_eq!(rows_of(&got), rows_of(&ref_open), "{tag} t={t}: open range");
                let got = parallel(t, |ctx| ops::unique(ctx, &eb).unwrap());
                assert_eq!(rows_of(&got), rows_of(&ser_uni), "{tag} t={t}: unique");
                let got = parallel(t, |ctx| ops::group1(ctx, &eb).unwrap());
                assert_eq!(rows_of(&got), rows_of(&ser_g), "{tag} t={t}: group1 vs serial");
                let got_canon: Vec<u64> = {
                    let mut map = std::collections::HashMap::new();
                    (0..got.len())
                        .map(|i| {
                            let g = got.tail().oid_at(i);
                            let next = map.len() as u64;
                            *map.entry(g).or_insert(next)
                        })
                        .collect()
                };
                assert_eq!(got_canon, ref_gid, "{tag} t={t}: group1 vs raw reference");
            }

            // Dict-specific broadcast: StrPrefix evaluates once per
            // dictionary entry, then fans out through the narrow codes.
            if ty == AtomType::Str && !sorted {
                use ops::{MultArg, ScalarFunc as F};
                let args =
                    vec![MultArg::Bat(eb.clone()), MultArg::Const(AtomValue::str("Clerk#000"))];
                let raw_args =
                    vec![MultArg::Bat(rb.clone()), MultArg::Const(AtomValue::str("Clerk#000"))];
                let expect = reference::multiplex_synced(F::StrPrefix, &raw_args).unwrap();
                let ser = serial(|ctx| ops::multiplex(ctx, F::StrPrefix, &args).unwrap());
                assert_eq!(rows_of(&ser), rows_of(&expect), "{tag}: serial prefix vs raw ref");
                for t in THREADS {
                    let got = parallel(t, |ctx| ops::multiplex(ctx, F::StrPrefix, &args).unwrap());
                    assert_eq!(rows_of(&got), rows_of(&ser), "{tag} t={t}: prefix");
                }
            }
        }
    }
}

#[test]
fn par_kernels_bit_identical_on_default_morsel_grid() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 8);
    let n = 30_000usize;
    let b = Bat::new(
        Column::from_oids((0..n as u64).collect()),
        Column::from_ints((0..n).map(|_| rng.gen_range(0..500i32)).collect()),
    );
    let grid = |t| par_ctx(t, 4099); // odd morsel, many morsels
    let ser_sel = ops::select_eq(&grid(1), &b, &AtomValue::Int(250)).unwrap();
    let ser_g = ops::group1(&grid(1), &b).unwrap();
    let ser_u = ops::unique(&grid(1), &b).unwrap();
    for t in [2usize, 4, 7] {
        let got = ops::select_eq(&grid(t), &b, &AtomValue::Int(250)).unwrap();
        assert_eq!(rows_of(&got), rows_of(&ser_sel), "t={t}: select");
        let got = ops::group1(&grid(t), &b).unwrap();
        assert_eq!(rows_of(&got), rows_of(&ser_g), "t={t}: group1");
        let got = ops::unique(&grid(t), &b).unwrap();
        assert_eq!(rows_of(&got), rows_of(&ser_u), "t={t}: unique");
    }
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
    Map(ops::ScalarFunc, Vec<Arg>),
    Aggr(ops::AggFunc),
}

#[derive(Debug, PartialEq)]
enum Outcome {
    Rows(Vec<(AtomValue, AtomValue)>),
    Scalar(AtomValue),
    Fail(String),
}

fn run_chain(ctx: &ExecCtx, src: &Bat, steps: &[Step]) -> Outcome {
    let mut cur = src.clone();
    for step in steps {
        let next = match step {
            Step::Eq(v) => ops::select_eq(ctx, &cur, v),
            Step::Range(lo, hi) => ops::select_range(ctx, &cur, Some(lo), Some(hi), true, false),
            Step::Map(f, args) => {
                let margs: Vec<ops::MultArg> = args
                    .iter()
                    .map(|a| match a {
                        Arg::Chain => ops::MultArg::Bat(cur.clone()),
                        Arg::Side(b) => ops::MultArg::Bat(b.clone()),
                        Arg::Const(v) => ops::MultArg::Const(v.clone()),
                    })
                    .collect();
                ops::multiplex(ctx, *f, &margs)
            }
            Step::Aggr(f) => {
                return match ops::aggr_scalar(ctx, &cur, *f) {
                    Ok(v) => Outcome::Scalar(v),
                    Err(e) => Outcome::Fail(e.to_string()),
                };
            }
        };
        match next {
            Ok(b) => cur = b,
            Err(e) => return Outcome::Fail(e.to_string()),
        }
    }
    Outcome::Rows(rows_of(&cur))
}

#[test]
fn par_scan_chains_bit_identical() {
    use ops::{AggFunc, ScalarFunc as F};
    let mut rng = StdRng::seed_from_u64(SEED ^ 10);
    for &ty in &[AtomType::Int, AtomType::Lng, AtomType::Dbl] {
        for case in 0..4 {
            let n = rng.gen_range(0..400usize);
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
                let ser = serial(|ctx| run_chain(ctx, &src, steps));
                for t in THREADS {
                    let got = parallel(t, |ctx| run_chain(ctx, &src, steps));
                    assert_eq!(got, ser, "{ty} case {case} chain {ci} t={t}: vs serial");
                }
            }
        }
    }
}
