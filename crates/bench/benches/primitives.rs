//! Microbenchmarks of the BAT-algebra primitives (Figure 4): one benchmark
//! per MIL command, on synthetic BATs sized like a TPC-D attribute.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use monet::atom::AtomValue;
use monet::bat::Bat;
use monet::column::Column;
use monet::ctx::ExecCtx;
use monet::ops;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 100_000;

fn rng() -> StdRng {
    StdRng::seed_from_u64(42)
}

fn attr_bat_sorted_tail() -> Bat {
    let mut r = rng();
    let mut tails: Vec<i32> = (0..N).map(|_| r.gen_range(0..10_000)).collect();
    tails.sort_unstable();
    Bat::with_inferred_props(
        Column::from_oids((0..N as u64).map(|i| 1000 + i).collect()),
        Column::from_ints(tails),
    )
}

fn attr_bat_unsorted() -> Bat {
    let mut r = rng();
    Bat::new(
        Column::from_oids((0..N as u64).map(|i| 1000 + i).collect()),
        Column::from_ints((0..N).map(|_| r.gen_range(0..10_000)).collect()),
    )
}

fn selection(frac: f64) -> Bat {
    let mut r = rng();
    let k = ((N as f64) * frac) as usize;
    let mut oids: Vec<u64> = (0..k).map(|_| 1000 + r.gen_range(0..N as u64)).collect();
    oids.sort_unstable();
    oids.dedup();
    let n = oids.len();
    Bat::with_inferred_props(Column::from_oids(oids), Column::void(0, n))
}

fn bench_primitives(c: &mut Criterion) {
    let ctx = ExecCtx::new();
    let sorted = attr_bat_sorted_tail();
    let unsorted = attr_bat_unsorted();
    let sel = selection(0.05);

    let mut g = c.benchmark_group("fig4-primitives");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_millis(1200));
    g.warm_up_time(std::time::Duration::from_millis(300));

    g.bench_function("mirror", |b| b.iter(|| black_box(unsorted.mirror())));
    g.bench_function("select/binary-search", |b| {
        b.iter(|| ops::select_eq(&ctx, &sorted, &AtomValue::Int(5000)).unwrap())
    });
    g.bench_function("select/scan", |b| {
        b.iter(|| ops::select_eq(&ctx, &unsorted, &AtomValue::Int(5000)).unwrap())
    });
    g.bench_function("select/range", |b| {
        b.iter(|| {
            ops::select_range(
                &ctx,
                &sorted,
                Some(&AtomValue::Int(1000)),
                Some(&AtomValue::Int(2000)),
                true,
                false,
            )
            .unwrap()
        })
    });
    g.bench_function("semijoin/hash", |b| b.iter(|| ops::semijoin(&ctx, &unsorted, &sel).unwrap()));
    g.bench_function("join/hash", |b| {
        let right = Bat::new(
            Column::from_ints((0..10_000).collect()),
            Column::from_oids((0..10_000).collect()),
        );
        b.iter(|| ops::join(&ctx, &unsorted, &right).unwrap())
    });
    g.bench_function("join/fetch-dense", |b| {
        let right = Bat::new(Column::void(0, 10_000), Column::from_dbls(vec![1.0; 10_000]));
        let left = Bat::new(
            Column::from_oids((0..N as u64).collect()),
            Column::from_oids((0..N as u64).map(|i| i % 10_000).collect()),
        );
        b.iter(|| ops::join(&ctx, &left, &right).unwrap())
    });
    // The sparsest key set the cost model still gives to `direct`: a 10k-row
    // key build side strided to `DOMAIN_SLOTS_PER_ROW` slots per operand
    // row, every probe a hit. The same operands through `join_hash` are the
    // other half of the pair the cut is calibrated on.
    let stride = (monet::costmodel::DOMAIN_SLOTS_PER_ROW * (N + 10_000) / 10_000) as u64;
    let cut_right = Bat::with_inferred_props(
        Column::from_oids((0..10_000u64).map(|i| i * 7919 % 10_000 * stride).collect()),
        Column::from_dbls(vec![1.0; 10_000]),
    );
    let cut_left = Bat::new(
        Column::from_oids((0..N as u64).collect()),
        Column::from_oids((0..N as u64).map(|i| i * 6007 % 10_000 * stride).collect()),
    );
    g.bench_function("join/direct-at-cut", |b| {
        b.iter(|| ops::join(&ctx, &cut_left, &cut_right).unwrap())
    });
    g.bench_function("join/hash-at-cut", |b| {
        b.iter(|| ops::join::join_hash(&ctx, &cut_left, &cut_right, None))
    });
    g.bench_function("unique", |b| {
        let dup = Bat::new(
            Column::from_oids((0..N as u64).map(|i| i % 1000).collect()),
            Column::from_ints((0..N).map(|i| (i % 17) as i32).collect()),
        );
        b.iter(|| ops::unique(&ctx, &dup).unwrap())
    });
    g.bench_function("group/direct", |b| b.iter(|| ops::group1(&ctx, &unsorted).unwrap()));
    g.bench_function("multiplex/[*]-synced", |b| {
        let head = Column::from_oids((0..N as u64).collect());
        let x = Bat::new(head.clone(), Column::from_dbls(vec![2.0; N]));
        let y = Bat::new(head, Column::from_dbls(vec![3.0; N]));
        b.iter(|| {
            ops::multiplex(
                &ctx,
                ops::ScalarFunc::Mul,
                &[ops::MultArg::Bat(x.clone()), ops::MultArg::Bat(y.clone())],
            )
            .unwrap()
        })
    });
    g.bench_function("set-aggregate/{sum}", |b| {
        let grouped = Bat::new(
            Column::from_oids((0..N as u64).map(|i| i % 500).collect()),
            Column::from_dbls((0..N).map(|i| i as f64).collect()),
        );
        // A fresh context derives the head grouping every iteration.
        b.iter(|| ops::set_aggregate(&ExecCtx::new(), ops::AggFunc::Sum, &grouped).unwrap())
    });
    g.bench_function("sort-tail", |b| b.iter(|| ops::sort_tail(&ctx, &unsorted).unwrap()));
    g.finish();
}

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
