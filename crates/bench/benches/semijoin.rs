//! The Section 5.2 ablation: datavector semijoin vs. hash, and
//! the memoized-LOOKUP effect — the first datavector semijoin "blazes the
//! trail", subsequent ones fetch positionally ("it reduces the cost of
//! multiple semijoins by more than half", Section 6.2.1).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use monet::accel::datavector::{Datavector, Extent};
use monet::bat::Bat;
use monet::column::Column;
use monet::ctx::ExecCtx;
use monet::ops;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 200_000;
const SEL: usize = 4_000; // 2% selection

fn setup() -> (Bat, Bat, Bat) {
    let mut r = StdRng::seed_from_u64(7);
    // Tail-sorted attribute BAT with a datavector over the class extent —
    // exactly what the loader produces.
    let extent = Extent::new(Column::from_oids((0..N as u64).map(|i| 1000 + i).collect()));
    let values = Column::from_dbls((0..N).map(|_| r.gen_range(0.0..1000.0)).collect());
    let dv = Datavector::new(Arc::clone(&extent), values.clone());
    let perm = values.sort_perm();
    let mut tail_sorted = Bat::new(extent.oids().gather(&perm), values.gather(&perm));
    tail_sorted.set_datavector(Arc::new(dv));

    // The same data without accelerators (hash fallback).
    let plain = Bat::new(tail_sorted.head().clone(), tail_sorted.tail().clone());

    // A sorted oid selection, as produced by a previous join.
    let mut oids: Vec<u64> = (0..SEL).map(|_| 1000 + r.gen_range(0..N as u64)).collect();
    oids.sort_unstable();
    oids.dedup();
    let n = oids.len();
    let sel = Bat::with_inferred_props(Column::from_oids(oids), Column::void(0, n));
    (tail_sorted, plain, sel)
}

fn bench_semijoin(c: &mut Criterion) {
    let ctx = ExecCtx::new();
    let (with_dv, plain, sel) = setup();

    let mut g = c.benchmark_group("sec5.2-semijoin");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_millis(1500));
    g.warm_up_time(std::time::Duration::from_millis(300));

    g.bench_function("hash (no accelerator)", |b| {
        b.iter(|| ops::semijoin(&ctx, &plain, &sel).unwrap())
    });
    g.bench_function("datavector cold (lookup + fetch)", |b| {
        // The LOOKUP memo lives on the context: a fresh one is cold.
        b.iter(|| ops::semijoin(&ExecCtx::new(), &with_dv, &sel).unwrap())
    });
    g.bench_function("datavector warm (memoized LOOKUP)", |b| {
        // Prime the memo once; every iteration reuses it — the "trail has
        // been blazed" case of Figure 10 lines 10-11.
        let _ = ops::semijoin(&ctx, &with_dv, &sel).unwrap();
        b.iter(|| ops::semijoin(&ctx, &with_dv, &sel).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_semijoin);
criterion_main!(benches);
