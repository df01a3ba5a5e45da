//! Grouping and set-aggregation: the nest/groupby machinery (direct vs.
//! memoized head groupings, unary vs. refining binary group, `{sum}` vs
//! `{avg}`).

use criterion::{criterion_group, criterion_main, Criterion};
use monet::bat::Bat;
use monet::column::Column;
use monet::ctx::ExecCtx;
use monet::ops;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 200_000;
const GROUPS: u64 = 1_000;

fn bench_group(c: &mut Criterion) {
    let ctx = ExecCtx::new();
    let mut r = StdRng::seed_from_u64(3);
    let head = Column::from_oids((0..N as u64).collect());
    let unsorted_keys =
        Bat::new(head.clone(), Column::from_oids((0..N).map(|_| r.gen_range(0..GROUPS)).collect()));
    let second = Bat::new(
        head.clone(),
        Column::from_chrs((0..N).map(|_| r.gen_range(b'A'..=b'E')).collect()),
    );
    let grouped_vals = Bat::new(
        Column::from_oids((0..N as u64).map(|i| i % GROUPS).collect()),
        Column::from_dbls((0..N).map(|i| i as f64).collect()),
    );

    let mut g = c.benchmark_group("group-aggregate");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_millis(1500));
    g.warm_up_time(std::time::Duration::from_millis(300));

    // Compact oid keys: the slot-table arm.
    g.bench_function("group1/direct", |b| b.iter(|| ops::group1(&ctx, &unsorted_keys).unwrap()));
    g.bench_function("group2/refine (synced)", |b| {
        let g1 = ops::group1(&ctx, &unsorted_keys).unwrap();
        let second_synced = Bat::new(g1.head().clone(), second.tail().clone());
        b.iter(|| ops::group2(&ctx, &g1, &second_synced).unwrap())
    });
    // Fresh contexts: a context memoizes the grouping of a `{g}` head, and
    // these lines time deriving it.
    g.bench_function("{sum}/direct-heads", |b| {
        b.iter(|| ops::set_aggregate(&ExecCtx::new(), ops::AggFunc::Sum, &grouped_vals).unwrap())
    });
    g.bench_function("{avg}/direct-heads", |b| {
        b.iter(|| ops::set_aggregate(&ExecCtx::new(), ops::AggFunc::Avg, &grouped_vals).unwrap())
    });
    g.bench_function("{sum}/memo-heads", |b| {
        b.iter(|| ops::set_aggregate(&ctx, ops::AggFunc::Sum, &grouped_vals).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_group);
criterion_main!(benches);
