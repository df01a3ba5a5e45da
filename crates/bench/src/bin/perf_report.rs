//! Machine-readable kernel performance report.
//!
//! Runs the core kernels of the four Criterion bench groups (`primitives`,
//! `semijoin`, `group_aggregate`, `q13`) with a plain `Instant` harness and
//! writes `BENCH_kernels.json` — op name → ns/row and rows/s — so successive
//! PRs have a perf trajectory to compare against. The JSON format is
//! documented in the repository README under "Performance tracking".
//!
//! Scale comes from `FLATALG_SF` (default 0.01): synthetic kernel inputs are
//! sized like the scale factor's lineitem table, and the `q13` entry runs
//! the full query against the memoized `bench::World`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::{sf_from_env, world};
use monet::accel::datavector::{Datavector, Extent};
use monet::accel::hash::HashIndex;
use monet::atom::{AtomValue, Date};
use monet::bat::Bat;
use monet::column::Column;
use monet::config::EngineConfig;
use monet::ctx::ExecCtx;
use monet::mil::opt::OptLevel;
use monet::ops;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One measured kernel.
struct Rec {
    name: &'static str,
    rows: usize,
    ns_per_row: f64,
    rows_per_sec: f64,
}

/// The checked-in perf trajectory: kernel name → baseline ns/row, parsed
/// from a previous `BENCH_kernels.json` (the repo root holds a committed
/// SF 0.01 baseline). Hand-rolled scan of the format this binary writes —
/// no JSON dependency in the container.
struct Baseline {
    sf: f64,
    ns_per_row: std::collections::HashMap<String, f64>,
}

fn read_baseline(path: &str) -> Option<Baseline> {
    let text = std::fs::read_to_string(path).ok()?;
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\":"))?;
        let rest = line[at..].split_once(':')?.1;
        let rest = rest.trim_start();
        Some(if let Some(s) = rest.strip_prefix('"') {
            s.split_once('"')?.0.to_string()
        } else {
            rest.split(|c: char| c == ',' || c == '}' || c.is_whitespace()).next()?.to_string()
        })
    };
    let mut sf = 0.0f64;
    let mut ns_per_row = std::collections::HashMap::new();
    for line in text.lines() {
        if let Some(v) = field(line, "sf") {
            sf = v.parse().unwrap_or(0.0);
        }
        if let (Some(name), Some(ns)) = (field(line, "name"), field(line, "ns_per_row")) {
            if let Ok(ns) = ns.parse::<f64>() {
                ns_per_row.insert(name, ns);
            }
        }
    }
    if ns_per_row.is_empty() {
        return None;
    }
    Some(Baseline { sf, ns_per_row })
}

/// Time `f` with one warm-up call, then as many individually-timed
/// repetitions as fit in the measurement window (at least 3), and report
/// the **median** repetition. The mean of a single continuous loop — the
/// old harness — let one page-fault or scheduler stall poison a line;
/// the median over >= 3 inner reps is what the committed trajectory
/// records, so re-baselines and delta columns compare like with like.
/// Prints a delta-vs-baseline column when the kernel exists in the
/// checked-in baseline.
fn measure(base: Option<&Baseline>, name: &'static str, rows: usize, mut f: impl FnMut()) -> Rec {
    f(); // warm-up
    let window = Duration::from_millis(240);
    let started = Instant::now();
    let mut samples: Vec<f64> = Vec::new();
    while samples.len() < 3 || started.elapsed() < window {
        let rep = Instant::now();
        f();
        samples.push(rep.elapsed().as_nanos() as f64);
        if samples.len() >= 10_000 {
            break; // cap repetitions for very fast kernels
        }
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("rep times are finite"));
    let ns = samples[samples.len() / 2];
    let ns_per_row = ns / rows.max(1) as f64;
    let rows_per_sec = rows.max(1) as f64 / (ns / 1e9);
    let delta = match base.and_then(|b| b.ns_per_row.get(name)) {
        Some(&was) if was > 0.0 => format!("  {:>+7.1}% vs base", (ns_per_row / was - 1.0) * 100.0),
        _ => String::new(),
    };
    eprintln!(
        "{name:<32} {rows:>9} rows  {ns_per_row:>9.2} ns/row  {rows_per_sec:>14.0} rows/s{delta}"
    );
    Rec { name, rows, ns_per_row, rows_per_sec }
}

fn main() {
    let sf = sf_from_env("FLATALG_SF", 0.01);
    let env = EngineConfig::from_env();
    // Delta column against the committed trajectory baseline (read before
    // the default output path overwrites it). A baseline recorded at a
    // different scale factor is *refused* — a delta column against
    // incomparable numbers is worse than none.
    let base_path =
        std::env::var("FLATALG_BENCH_BASELINE").unwrap_or_else(|_| "BENCH_kernels.json".into());
    let base = match read_baseline(&base_path) {
        Some(b) if (b.sf - sf).abs() > f64::EPSILON => {
            eprintln!(
                "refusing to compare: baseline {base_path} was recorded at sf {} but this \
                 run is at sf {sf}; delta column suppressed",
                b.sf
            );
            None
        }
        Some(b) => {
            eprintln!("deltas vs baseline {base_path} (sf {})", b.sf);
            Some(b)
        }
        None => {
            eprintln!("no baseline at {base_path}; delta column suppressed");
            None
        }
    };
    // Synthetic inputs sized like the scale factor's lineitem table.
    let n: usize = ((sf * 6_000_000.0) as usize).max(10_000);
    let mut r = StdRng::seed_from_u64(42);
    let ctx = ExecCtx::new();
    // The environment's configuration with one field changed.
    let ctx_with = |edit: &dyn Fn(&mut EngineConfig)| {
        let mut cfg = EngineConfig::clone(&env);
        edit(&mut cfg);
        ExecCtx::with_config(Arc::new(cfg))
    };

    // --- primitives group inputs -----------------------------------------
    let unsorted = Bat::new(
        Column::from_oids((0..n as u64).map(|i| 1000 + i).collect()),
        Column::from_ints((0..n).map(|_| r.gen_range(0..10_000)).collect()),
    );
    let sorted = {
        let perm = unsorted.tail().sort_perm();
        Bat::with_inferred_props(unsorted.head().gather(&perm), unsorted.tail().gather(&perm))
    };
    let sel = {
        let mut oids: Vec<u64> = (0..n / 20).map(|_| 1000 + r.gen_range(0..n as u64)).collect();
        oids.sort_unstable();
        oids.dedup();
        let k = oids.len();
        Bat::with_inferred_props(Column::from_oids(oids), Column::void(0, k))
    };
    let join_right = Bat::new(
        Column::from_ints((0..10_000).collect()),
        Column::from_oids((0..10_000).collect()),
    );
    // Partitioned-join regime: probe 16n rows into a build side of 4n rows
    // whose chain table overflows L2 (960k x 240k at SF 0.01), with a ~6%
    // match rate (an FK probe after a selective filter). Both the
    // partitioned kernel and the monolithic kernel are measured on this
    // same input so the trajectory records the comparison.
    let part_build_n = 4 * n;
    let part_probe_n = 16 * n;
    // Probe domain 16x the build keys (~6% match); clamp in i64 so huge
    // scale factors do not overflow the i32 key space (the match rate just
    // rises instead).
    let part_domain = (16i64 * part_build_n as i64).min(i32::MAX as i64) as i32;
    let part_left = Bat::new(
        Column::from_oids((0..part_probe_n as u64).collect()),
        Column::from_ints((0..part_probe_n).map(|_| r.gen_range(0..part_domain)).collect()),
    );
    let part_right = Bat::new(
        Column::from_ints((0..part_build_n as i32).collect()),
        Column::from_oids((0..part_build_n as u64).collect()),
    );
    let fetch_right = Bat::new(Column::void(0, 10_000), Column::from_dbls(vec![1.0; 10_000]));
    let fetch_left = Bat::new(
        Column::from_oids((0..n as u64).collect()),
        Column::from_oids((0..n as u64).map(|i| i % 10_000).collect()),
    );
    // The oid-keyed twin of `join/hash-probe`: the same 10k-row build side,
    // but a key oid head (shuffled, so not dense) — the `direct` arm.
    let direct_right = Bat::with_inferred_props(
        Column::from_oids((0..10_000u64).map(|i| i * 7919 % 10_000).collect()),
        Column::from_dbls(vec![1.0; 10_000]),
    );
    // The sparsest key set `direct` still takes: that build side spread
    // over `DOMAIN_SLOTS_PER_ROW` slots per operand row, every probe a hit
    // somewhere else in the span. `join/hash-at-cut` is the hash join over
    // the same operands — the pair the cut is calibrated on.
    let cut_stride = (monet::costmodel::DOMAIN_SLOTS_PER_ROW * (n + 10_000) / 10_000) as u64;
    let cut_right = Bat::with_inferred_props(
        Column::from_oids((0..10_000u64).map(|i| i * 7919 % 10_000 * cut_stride).collect()),
        Column::from_dbls(vec![1.0; 10_000]),
    );
    let cut_left = Bat::new(
        Column::from_oids((0..n as u64).collect()),
        Column::from_oids((0..n as u64).map(|i| i * 6007 % 10_000 * cut_stride).collect()),
    );
    // `semijoin/hash` keeps measuring the hash fallback: one far-away oid
    // makes the selection's span sparse, so no bitmap is built over it.
    let sel_sparse = {
        let mut oids = sel.head().as_oid_slice().expect("materialized selection").to_vec();
        oids.push(1 << 40);
        let k = oids.len();
        Bat::with_inferred_props(Column::from_oids(oids), Column::void(0, k))
    };
    let dup = Bat::new(
        Column::from_oids((0..n as u64).map(|i| i % 1000).collect()),
        Column::from_ints((0..n).map(|i| (i % 17) as i32).collect()),
    );
    // The `*/hash` grouping lines keep measuring the hash tables: the same
    // rows with their keys `SPARSE` apart, so no key span passes the
    // compact-domain gate (8 slots per row). The lines next to them
    // (`group/direct`, `group2/packed`, `unique/packed`) run the compact
    // originals through the slot-table arms.
    const SPARSE: u64 = 1 << 16;
    let sparse_oids = |c: &Column| {
        Column::from_oids(c.as_oid_slice().expect("oids").iter().map(|o| o * SPARSE).collect())
    };
    let sparse_ints = |c: &Column| {
        Column::from_ints(
            c.as_int_slice().expect("ints").iter().map(|v| v * SPARSE as i32).collect(),
        )
    };
    let dup_sparse = Bat::new(sparse_oids(dup.head()), dup.tail().clone());
    let unsorted_sparse = Bat::new(unsorted.head().clone(), sparse_ints(unsorted.tail()));
    let head = Column::from_oids((0..n as u64).collect());
    let dbl_x = Bat::new(head.clone(), Column::from_dbls((0..n).map(|i| i as f64 * 0.5).collect()));
    let dbl_y = Bat::new(head.clone(), Column::from_dbls(vec![3.0; n]));
    let int_x = Bat::new(head.clone(), Column::from_ints((0..n).map(|i| i as i32 % 997).collect()));
    let dates = Bat::new(
        head.clone(),
        Column::from_dates(
            (0..n).map(|i| Date::from_ymd(1992, 1, 1).add_days((i % 2400) as i32)).collect(),
        ),
    );
    let grouped_vals = Bat::new(
        Column::from_oids((0..n as u64).map(|i| i % 500).collect()),
        Column::from_dbls((0..n).map(|i| i as f64).collect()),
    );
    let grouped_sparse = Bat::new(sparse_oids(grouped_vals.head()), grouped_vals.tail().clone());
    let strs = Bat::new(
        head.clone(),
        Column::from_strs((0..n).map(|i| format!("Clerk#{:09}", i % 1000)).collect::<Vec<_>>()),
    );

    // --- semijoin group inputs (datavector path) -------------------------
    let extent = Extent::new(Column::from_oids((0..n as u64).map(|i| 1000 + i).collect()));
    let dv_vals = Column::from_dbls((0..n).map(|_| r.gen_range(0.0..1000.0)).collect());
    let dv = Datavector::new(Arc::clone(&extent), dv_vals.clone());
    let mut with_dv = {
        let perm = dv_vals.sort_perm();
        Bat::new(extent.oids().gather(&perm), dv_vals.gather(&perm))
    };
    with_dv.set_datavector(Arc::new(dv));
    // An attribute dereference: n references into the class, in no order.
    let dv_refs = Bat::new(
        head.clone(),
        Column::from_oids((0..n as u64).map(|i| 1000 + i * 7919 % n as u64).collect()),
    );

    // The other side of an oid comparison (Q9's supplier-of-item =
    // supplier-of-supply): every third reference agrees.
    let oid_y = Bat::new(
        head.clone(),
        Column::from_oids((0..n as u64).map(|i| 1000 + (i * 7919 + i % 3) % n as u64).collect()),
    );

    // --- group_aggregate group inputs ------------------------------------
    let unsorted_keys = Bat::new(
        head.clone(),
        Column::from_oids((0..n).map(|_| r.gen_range(0..1000u64)).collect()),
    );
    let second = Bat::new(
        head.clone(),
        Column::from_chrs((0..n).map(|_| r.gen_range(b'A'..=b'E')).collect()),
    );
    let g1 = ops::group1(&ctx, &unsorted_keys).unwrap();
    let second_synced = Bat::new(g1.head().clone(), second.tail().clone());
    // Five values again, but 2^16 apart: times the 1000 group oids no
    // compact product span.
    let second_sparse = Bat::new(
        g1.head().clone(),
        Column::from_ints(
            second
                .tail()
                .as_chr_slice()
                .expect("chrs")
                .iter()
                .map(|&c| c as i32 * SPARSE as i32)
                .collect(),
        ),
    );
    // The nest + aggregate tail's join: the grouping mirrored against an
    // attribute over the same (key) head column.
    let sync_left = g1.mirror();
    let sync_right = Bat::with_inferred_props(g1.head().clone(), second.tail().clone());

    let mut recs: Vec<Rec> = Vec::new();

    // primitives
    recs.push(measure(base.as_ref(), "select/scan", n, || {
        ops::select_eq(&ctx, &unsorted, &AtomValue::Int(5000)).unwrap();
    }));
    recs.push(measure(base.as_ref(), "select/range-scan", n, || {
        ops::select_range(
            &ctx,
            &unsorted,
            Some(&AtomValue::Int(1000)),
            Some(&AtomValue::Int(2000)),
            true,
            false,
        )
        .unwrap();
    }));
    recs.push(measure(base.as_ref(), "select/binary-search", n, || {
        ops::select_eq(&ctx, &sorted, &AtomValue::Int(5000)).unwrap();
    }));
    recs.push(measure(base.as_ref(), "join/hash-probe", n, || {
        ops::join(&ctx, &unsorted, &join_right).unwrap();
    }));
    recs.push(measure(base.as_ref(), "join/direct-probe", n, || {
        ops::join(&ctx, &fetch_left, &direct_right).unwrap();
    }));
    recs.push(measure(base.as_ref(), "join/direct-at-cut", n, || {
        ops::join(&ctx, &cut_left, &cut_right).unwrap();
    }));
    recs.push(measure(base.as_ref(), "join/hash-at-cut", n, || {
        ops::join::join_hash(&ctx, &cut_left, &cut_right);
    }));
    recs.push(measure(base.as_ref(), "join/sync", n, || {
        ops::join(&ctx, &sync_left, &sync_right).unwrap();
    }));
    recs.push(measure(base.as_ref(), "join/fetch-dense", n, || {
        ops::join(&ctx, &fetch_left, &fetch_right).unwrap();
    }));
    recs.push(measure(base.as_ref(), "join/datavector-fetch", n, || {
        ops::join(&ctx, &dv_refs, &with_dv).unwrap();
    }));
    recs.push(measure(base.as_ref(), "join/partitioned-probe", part_probe_n, || {
        ops::join_partitioned(&ctx, &part_left, &part_right).unwrap();
    }));
    recs.push(measure(base.as_ref(), "join/monolithic-probe-big", part_probe_n, || {
        ops::join::join_hash(&ctx, &part_left, &part_right);
    }));
    recs.push(measure(base.as_ref(), "semijoin/hash", n, || {
        ops::semijoin(&ctx, &unsorted, &sel_sparse).unwrap();
    }));
    recs.push(measure(base.as_ref(), "semijoin/bitmap", n, || {
        ops::semijoin(&ctx, &unsorted, &sel).unwrap();
    }));
    // A selection re-assembling one attribute of a 600 k-object class: the
    // head is dense, so the cost is per *selected* row, whatever the class
    // size (a merge pays per class row too).
    let class_n = 600_000usize;
    let class_attr = Bat::new(
        Column::void(1000, class_n),
        Column::from_dbls((0..class_n).map(|i| i as f64).collect()),
    );
    for (name, step) in
        [("semijoin/dense-sorted-sel-1pct", 100), ("semijoin/dense-sorted-sel-50pct", 2)]
    {
        let oids: Vec<u64> = (0..class_n as u64).step_by(step).map(|i| 1000 + i).collect();
        let picked_n = oids.len();
        let picked = Bat::with_inferred_props(Column::from_oids(oids), Column::void(0, picked_n));
        recs.push(measure(base.as_ref(), name, picked_n, || {
            ops::semijoin(&ctx, &class_attr, &picked).unwrap();
        }));
    }
    recs.push(measure(base.as_ref(), "unique/hash", n, || {
        ops::unique(&ctx, &dup_sparse).unwrap();
    }));
    recs.push(measure(base.as_ref(), "unique/packed", n, || {
        ops::unique(&ctx, &dup).unwrap();
    }));
    recs.push(measure(base.as_ref(), "group1/hash", n, || {
        ops::group1(&ctx, &unsorted_sparse).unwrap();
    }));
    recs.push(measure(base.as_ref(), "group/direct", n, || {
        ops::group1(&ctx, &unsorted).unwrap();
    }));
    recs.push(measure(base.as_ref(), "multiplex/mul-dbl", n, || {
        ops::multiplex(
            &ctx,
            ops::ScalarFunc::Mul,
            &[ops::MultArg::Bat(dbl_x.clone()), ops::MultArg::Bat(dbl_y.clone())],
        )
        .unwrap();
    }));
    recs.push(measure(base.as_ref(), "multiplex/sub-int-const", n, || {
        ops::multiplex(
            &ctx,
            ops::ScalarFunc::Sub,
            &[ops::MultArg::Const(AtomValue::Int(100)), ops::MultArg::Bat(int_x.clone())],
        )
        .unwrap();
    }));
    recs.push(measure(base.as_ref(), "multiplex/year-date", n, || {
        ops::multiplex(&ctx, ops::ScalarFunc::Year, &[ops::MultArg::Bat(dates.clone())]).unwrap();
    }));
    recs.push(measure(base.as_ref(), "multiplex/ge-dbl-const", n, || {
        ops::multiplex(
            &ctx,
            ops::ScalarFunc::Ge,
            &[ops::MultArg::Bat(dbl_x.clone()), ops::MultArg::Const(AtomValue::Dbl(1000.0))],
        )
        .unwrap();
    }));
    recs.push(measure(base.as_ref(), "multiplex/oid-eq", n, || {
        ops::multiplex(
            &ctx,
            ops::ScalarFunc::Eq,
            &[ops::MultArg::Bat(dv_refs.clone()), ops::MultArg::Bat(oid_y.clone())],
        )
        .unwrap();
    }));
    recs.push(measure(base.as_ref(), "multiplex/str-prefix-const", n, || {
        ops::multiplex(
            &ctx,
            ops::ScalarFunc::StrPrefix,
            &[ops::MultArg::Bat(strs.clone()), ops::MultArg::Const(AtomValue::str("Clerk#00000"))],
        )
        .unwrap();
    }));
    // A context memoizes the grouping of a `{g}` head: the first line
    // derives it (by hash) on a fresh context every time, the second
    // finds it on `ctx`.
    recs.push(measure(base.as_ref(), "set-aggregate/sum-dbl", n, || {
        ops::set_aggregate(&ExecCtx::new(), ops::AggFunc::Sum, &grouped_sparse).unwrap();
    }));
    recs.push(measure(base.as_ref(), "aggregate/memo-hit", n, || {
        ops::set_aggregate(&ctx, ops::AggFunc::Sum, &grouped_vals).unwrap();
    }));
    recs.push(measure(base.as_ref(), "sort/tail-int", n, || {
        ops::sort_tail(&ctx, &unsorted).unwrap();
    }));
    recs.push(measure(base.as_ref(), "topn/desc-100", n, || {
        ops::topn(&ctx, &unsorted, 100, true).unwrap();
    }));
    recs.push(measure(base.as_ref(), "hashindex/build-oid", n, || {
        HashIndex::build(unsorted_keys.tail());
    }));

    // semijoin group: warm datavector path (LOOKUP memoized once)
    recs.push(measure(base.as_ref(), "semijoin/datavector-warm", sel.len(), || {
        ops::semijoin(&ctx, &with_dv, &sel).unwrap();
    }));

    // group_aggregate group
    recs.push(measure(base.as_ref(), "group2/refine-synced", n, || {
        ops::group2(&ctx, &g1, &second_sparse).unwrap();
    }));
    recs.push(measure(base.as_ref(), "group2/packed", n, || {
        ops::group2(&ctx, &g1, &second_synced).unwrap();
    }));

    // Encoded layouts: the same operand measured raw and encoded, so the
    // trajectory records what running directly on codes buys. The dict
    // operand re-encodes `strs` (1000 distinct Clerk#-style strings →
    // u16 codes); the FOR operand re-encodes `int_x` (values 0..997 →
    // u16 deltas). Raw twins run the exact same probes so each pair's
    // gap is the encoding, nothing else.
    let dict_strs = Bat::new(head.clone(), strs.tail().encode(false));
    assert_eq!(dict_strs.tail().encoding(), monet::props::Enc::Dict, "dict fixture must encode");
    let for_ints = Bat::new(head.clone(), int_x.tail().encode(false));
    assert_eq!(for_ints.tail().encoding(), monet::props::Enc::For, "FOR fixture must encode");
    let probe_str = AtomValue::str("Clerk#000000500");
    recs.push(measure(base.as_ref(), "enc/select-str-raw", n, || {
        ops::select_eq(&ctx, &strs, &probe_str).unwrap();
    }));
    recs.push(measure(base.as_ref(), "enc/select-dict-code", n, || {
        ops::select_eq(&ctx, &dict_strs, &probe_str).unwrap();
    }));
    recs.push(measure(base.as_ref(), "enc/group-str-raw", n, || {
        ops::group1(&ctx, &strs).unwrap();
    }));
    recs.push(measure(base.as_ref(), "enc/group-dict-code", n, || {
        ops::group1(&ctx, &dict_strs).unwrap();
    }));
    recs.push(measure(base.as_ref(), "enc/range-int-raw", n, || {
        ops::select_range(
            &ctx,
            &int_x,
            Some(&AtomValue::Int(100)),
            Some(&AtomValue::Int(300)),
            true,
            false,
        )
        .unwrap();
    }));
    recs.push(measure(base.as_ref(), "enc/range-for-scan", n, || {
        ops::select_range(
            &ctx,
            &for_ints,
            Some(&AtomValue::Int(100)),
            Some(&AtomValue::Int(300)),
            true,
            false,
        )
        .unwrap();
    }));

    // q13 end to end over the memoized world
    let w = world();
    let q13_rows = w.data.items.len();
    recs.push(measure(base.as_ref(), "q13/moa-execute", q13_rows, || {
        tpcd_queries::q11_15::q13_run(&w.cat, &ctx, &w.params).unwrap();
    }));

    // Plan-level optimizer trajectory: end-to-end query time executing the
    // translator's raw emission (`-raw`, the `opt: Off` oracle) vs the
    // optimized MIL program (`-opt`).
    let raw = ctx_with(&|c| c.opt = OptLevel::Off);
    let opt = ctx_with(&|c| c.opt = OptLevel::Full);
    recs.push(measure(base.as_ref(), "plan/q1-raw", q13_rows, || {
        tpcd_queries::q01_05::q1_run(&w.cat, &raw, &w.params).unwrap();
    }));
    recs.push(measure(base.as_ref(), "plan/q1-opt", q13_rows, || {
        tpcd_queries::q01_05::q1_run(&w.cat, &opt, &w.params).unwrap();
    }));
    recs.push(measure(base.as_ref(), "plan/q13-raw", q13_rows, || {
        tpcd_queries::q11_15::q13_run(&w.cat, &raw, &w.params).unwrap();
    }));
    recs.push(measure(base.as_ref(), "plan/q13-opt", q13_rows, || {
        tpcd_queries::q11_15::q13_run(&w.cat, &opt, &w.params).unwrap();
    }));

    // Governor overhead: the same optimized Q1/Q13 with enforcement armed —
    // a byte budget and a far-off deadline, so every tracked allocation is
    // charged against a limit and every probe takes its deadline branch —
    // against the `plan/*-opt` lines above, where the governor idles (two
    // relaxed loads per probe). The pair tracks the enforcement cost in
    // the trajectory; target ≤ 2%.
    let gov_ctx = ctx_with(&|c| c.opt = OptLevel::Full);
    gov_ctx.mem.set_budget(Some(1 << 40));
    recs.push(measure(base.as_ref(), "gov/q1-governed", q13_rows, || {
        gov_ctx.gov.set_deadline(Some(std::time::Duration::from_secs(3600)));
        tpcd_queries::q01_05::q1_run(&w.cat, &gov_ctx, &w.params).unwrap();
    }));
    recs.push(measure(base.as_ref(), "gov/q13-governed", q13_rows, || {
        gov_ctx.gov.set_deadline(Some(std::time::Duration::from_secs(3600)));
        tpcd_queries::q11_15::q13_run(&w.cat, &gov_ctx, &w.params).unwrap();
    }));
    gov_ctx.gov.set_deadline(None);

    // Query-service throughput: the mixed Q1–Q15 workload through
    // prepared-statement sessions sharing one plan cache and admission
    // gate. `rows` counts queries per pass, so the rows/s column reads
    // directly as qps. The warm-up call inside `measure` populates the
    // cache, so the measured passes are pure cache hits — the trajectory
    // line records throughput with plan cost fully amortized.
    {
        use flatalg_server::{Server, ServerConfig};
        let queries = tpcd_queries::all_queries();
        let server = Server::with_config(
            &w.cat,
            ServerConfig { plan_cache: Some(64), ..ServerConfig::default() },
        );
        {
            let session = server.session();
            recs.push(measure(base.as_ref(), "serve/qps-mixed-1client", queries.len(), || {
                for q in &queries {
                    session.run_query(q, &w.params).unwrap();
                }
            }));
            // Prepared Q13 on a warm cache, same row accounting as
            // q13/moa-execute: the gap between the two lines is the
            // amortized translate+optimize cost (should be ~0).
            let stmt = session.prepare(tpcd_queries::q11_15::q13_moa(&w.params)).unwrap();
            recs.push(measure(base.as_ref(), "serve/q13-prepared-hit", q13_rows, || {
                session.execute(&stmt).unwrap();
            }));
        }
        let clients = 4usize;
        recs.push(measure(
            base.as_ref(),
            "serve/qps-mixed-4client",
            clients * queries.len(),
            || {
                std::thread::scope(|s| {
                    for c in 0..clients {
                        let (server, queries) = (&server, &queries);
                        s.spawn(move || {
                            let session = server.session();
                            for i in 0..queries.len() {
                                let q = &queries[(i + c * 5) % queries.len()];
                                session.run_query(q, &w.params).unwrap();
                            }
                        });
                    }
                });
            },
        ));
        let stats = server.stats();
        if let Some(c) = stats.cache {
            eprintln!(
                "serve: executed={} waited={} cache hits={} misses={} bypasses={}",
                stats.executed, stats.waited, c.hits, c.misses, c.bypasses
            );
        }
    }

    // Persistent store: the O(1) mmap open against regenerating the same
    // world, on a store written from the memoized catalog. The paired
    // eprintln gives the generate+load wall-clock the open replaces.
    {
        let store_dir =
            std::env::temp_dir().join(format!("flatalg-perf-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        monet::store::write_dir(&store_dir, w.cat.db(), sf).expect("write perf store");
        let total_rows = w.data.total_rows();
        recs.push(measure(base.as_ref(), "store/open-vs-generate", total_rows, || {
            let o = monet::store::open_dir(&store_dir, None, &monet::store::OpenOptions::default())
                .unwrap();
            std::hint::black_box(o.mapped_bytes);
        }));
        let t = Instant::now();
        let data = tpcd::generate(sf, bench::SEED);
        let (cat2, _) = tpcd::load_bats(&data);
        eprintln!(
            "store/open-vs-generate           generate+load of the same world: {:.1} ms \
             ({} BATs)",
            t.elapsed().as_secs_f64() * 1e3,
            cat2.db().len()
        );
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    // Out-of-core join: the same partitioned-join operands through the
    // in-memory dispatch and through the spill path (a byte budget at half
    // the cost model's in-memory estimate forces the partition-to-disk
    // plan; the result BAT stays far below it, so the run completes). The
    // pair records what going out-of-core costs on this trajectory.
    {
        let spill_ctx = ExecCtx::new();
        let est = monet::costmodel::join_inmem_bytes(part_probe_n, part_build_n);
        spill_ctx.mem.set_budget(Some(est / 2));
        recs.push(measure(base.as_ref(), "spill/join-inmem", part_probe_n, || {
            ctx.mem.reset();
            ops::join(&ctx, &part_left, &part_right).unwrap();
        }));
        recs.push(measure(base.as_ref(), "spill/join-spill", part_probe_n, || {
            spill_ctx.mem.reset();
            ops::join(&spill_ctx, &part_left, &part_right).unwrap();
        }));
        assert!(
            spill_ctx.mem.spilled_bytes() > 0,
            "spill/join-spill must actually take the out-of-core path"
        );
        spill_ctx.mem.set_budget(None);
        // The partition pass alone: with an empty probe side the spilling
        // join hashes, filters in, stages and writes its build side and
        // reads nothing back — ns per build row of one partition write.
        let forced = ctx_with(&|c| c.spill_force = true);
        let none = Bat::new(Column::from_oids(vec![]), Column::from_ints(vec![]));
        recs.push(measure(base.as_ref(), "spill/partition-write", part_build_n, || {
            ops::join(&forced, &none, &part_right).unwrap();
        }));
        // The shape the build-side filter and the sort-free finish are
        // for: one probe row in ten has a partner, under a `key` right
        // head (an FK probe into a filtered dimension).
        let mut r = StdRng::seed_from_u64(43);
        let selective_left = Bat::new(
            part_left.head().clone(),
            Column::from_ints(
                (0..part_probe_n).map(|_| r.gen_range(0..10 * part_build_n as i32)).collect(),
            ),
        );
        let key_right =
            Bat::with_inferred_props(part_right.head().clone(), part_right.tail().clone());
        recs.push(measure(base.as_ref(), "spill/join-spill-selective", part_probe_n, || {
            ops::join(&forced, &selective_left, &key_right).unwrap();
        }));
    }

    // Per-table compression of the loaded world: physical (encoded) tail
    // bytes vs decoded bytes, grouped by TPC-D table, plus a string-column
    // total — the acceptance floor for the encoded layouts is >= 1.5x on
    // the string columns. Unencoded tails contribute 1:1, so a table's
    // ratio reads directly as "what the encoders bought here".
    let mut comp: std::collections::BTreeMap<&str, (usize, usize)> = Default::default();
    let (mut str_enc, mut str_raw) = (0usize, 0usize);
    for (name, bat) in w.cat.db().iter() {
        let t = bat.tail();
        let table = name.split('_').next().unwrap_or(name);
        let e = comp.entry(table).or_default();
        e.0 += t.bytes();
        e.1 += t.decoded().bytes();
        if t.atom_type() == monet::atom::AtomType::Str {
            str_enc += t.bytes();
            str_raw += t.decoded().bytes();
        }
    }
    let ratio = |enc: usize, raw: usize| raw as f64 / enc.max(1) as f64;
    for (table, &(enc, raw)) in &comp {
        eprintln!("compress/{table:<26} {enc:>9} bytes  ({:>5.2}x vs {raw} raw)", ratio(enc, raw));
    }
    eprintln!(
        "compress/strings (all tables)    {str_enc:>9} bytes  ({:>5.2}x vs {str_raw} raw)",
        ratio(str_enc, str_raw)
    );

    // --- write BENCH_kernels.json (format documented in README) ----------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"sf\": {sf},\n"));
    json.push_str(&format!("  \"rows\": {n},\n"));
    json.push_str("  \"kernels\": [\n");
    for (i, rec) in recs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"rows\": {}, \"ns_per_row\": {:.3}, \"rows_per_sec\": {:.0}}}{}\n",
            rec.name,
            rec.rows,
            rec.ns_per_row,
            rec.rows_per_sec,
            if i + 1 < recs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    // Compression rows carry "table" (not "name"), so baseline parsing —
    // which keys kernel lines off "name"/"ns_per_row" — skips them.
    json.push_str("  \"compression\": [\n");
    for (table, &(enc, raw)) in &comp {
        json.push_str(&format!(
            "    {{\"table\": \"{table}\", \"enc_bytes\": {enc}, \"raw_bytes\": {raw}, \
             \"ratio\": {:.3}}},\n",
            ratio(enc, raw)
        ));
    }
    json.push_str(&format!(
        "    {{\"table\": \"strings\", \"enc_bytes\": {str_enc}, \"raw_bytes\": {str_raw}, \
         \"ratio\": {:.3}}}\n",
        ratio(str_enc, str_raw)
    ));
    json.push_str("  ]\n}\n");
    // Default output is deliberately NOT the committed baseline path: a
    // casual local run must not clobber BENCH_kernels.json (and thereby
    // make the next run's delta column compare against itself). Point
    // FLATALG_BENCH_OUT at BENCH_kernels.json explicitly to re-baseline.
    let path =
        std::env::var("FLATALG_BENCH_OUT").unwrap_or_else(|_| "BENCH_kernels.local.json".into());
    std::fs::write(&path, &json).expect("write kernel perf report");
    eprintln!("wrote {path}");

    // --- SF 1 out-of-core leg (only when the big store exists) -----------
    // `FLATALG_SF1_STORE` names a store directory built with
    // `flatalg-store build --sf 1`. When present, every query runs once
    // from the opened store — single-shot, not median-of-reps: at SF 1 a
    // query is seconds of work and the numbers are honest wall-clock —
    // and BENCH_sf1.json records per-query ms, result rows and spill
    // volume.
    let sf1_dir = std::env::var("FLATALG_SF1_STORE").unwrap_or_else(|_| "store-sf1".into());
    if std::path::Path::new(&sf1_dir).join("store.sb").exists() {
        let t0 = Instant::now();
        let sw =
            bench::StoreWorld::open(std::path::Path::new(&sf1_dir)).expect("open the SF 1 store");
        let open_ms = t0.elapsed().as_secs_f64() * 1e3;
        // `FLATALG_SF1_BUDGET` budgets *only* the SF 1 queries (applied
        // per-context below), so the kernel section above is free to run
        // unbudgeted; `FLATALG_MEM_BUDGET` is reported too if that is the
        // only knob set.
        let budget_bytes = match std::env::var("FLATALG_SF1_BUDGET") {
            Ok(v) => {
                EngineConfig::from_vars([("FLATALG_MEM_BUDGET", &v)])
                    .unwrap_or_else(|e| panic!("FLATALG_SF1_BUDGET: {e}"))
                    .mem_budget
            }
            Err(_) => env.mem_budget,
        };
        let budget =
            if budget_bytes > 0 { budget_bytes.to_string() } else { "unlimited".to_string() };
        eprintln!(
            "\nSF {} store: opened {:.1} MB in {open_ms:.1} ms (mmap: {}), budget {budget}",
            sw.sf,
            bench::mb(sw.mapped_bytes),
            sw.mmap
        );
        let mut qjson = String::new();
        qjson.push_str("{\n");
        qjson.push_str(&format!("  \"sf\": {},\n", sw.sf));
        qjson.push_str(&format!("  \"budget\": \"{budget}\",\n"));
        let spill_mode = if env.spill_force { "force" } else { "auto" };
        qjson.push_str(&format!("  \"spill\": \"{spill_mode}\",\n"));
        qjson.push_str(&format!("  \"open_ms\": {open_ms:.1},\n"));
        qjson.push_str(&format!("  \"mapped_bytes\": {},\n", sw.mapped_bytes));
        qjson.push_str("  \"queries\": [\n");
        let queries = tpcd_queries::all_queries();
        for (i, q) in queries.iter().enumerate() {
            let qctx = ExecCtx::new();
            if budget_bytes > 0 {
                qctx.mem.set_budget(Some(budget_bytes));
            }
            let t = Instant::now();
            let rows = (q.run_moa)(&sw.cat, &qctx, &sw.params)
                .unwrap_or_else(|e| panic!("SF {} store Q{}: {e}", sw.sf, q.id));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let spilled = qctx.mem.spilled_bytes();
            eprintln!(
                "sf1/q{:<2} {:>10.1} ms  {:>8} rows  {:>10.1} MB spilled",
                q.id,
                ms,
                rows.len(),
                bench::mb(spilled)
            );
            qjson.push_str(&format!(
                "    {{\"q\": {}, \"ms\": {ms:.1}, \"rows\": {}, \"spilled_bytes\": \
                 {spilled}}}{}\n",
                q.id,
                rows.len(),
                if i + 1 < queries.len() { "," } else { "" }
            ));
        }
        qjson.push_str("  ]\n}\n");
        let sf1_path =
            std::env::var("FLATALG_BENCH_SF1_OUT").unwrap_or_else(|_| "BENCH_sf1.json".into());
        std::fs::write(&sf1_path, &qjson).expect("write SF 1 report");
        eprintln!("wrote {sf1_path}");
    }
}
