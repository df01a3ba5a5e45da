//! Stress the shared-state corners of the kernels' scratch: the bounded
//! thread-local scratch pool under concurrent checkout/return, pooled
//! slot and group tables reused across calls (stale-state leaks), the
//! checkout balance after governor aborts, and cancellation of one session
//! while others run the same query.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bench::World;
use flatalg_server::{Server, ServerConfig};
use moa::error::MoaError;
use monet::bat::Bat;
use monet::column::Column;
use monet::config::EngineConfig;
use monet::ctx::ExecCtx;
use monet::error::MonetError;
use monet::ops::{self, reference};
use monet::typed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tpcd_queries::all_queries;

/// A fresh context, everything at its default.
fn default_ctx() -> ExecCtx {
    ExecCtx::with_config(Arc::new(EngineConfig::default()))
}

/// A fresh context that sends every eligible join and group through spill
/// files (in the system temp directory).
fn spill_ctx() -> ExecCtx {
    let cfg = EngineConfig { spill_force: true, ..EngineConfig::default() };
    ExecCtx::with_config(Arc::new(cfg))
}

/// `r`, the result of one kernel call on `ctx`, after appending the label
/// that call recorded to `algos`.
fn noted<T>(
    ctx: &ExecCtx,
    algos: &mut Vec<&'static str>,
    r: monet::error::Result<T>,
) -> monet::error::Result<T> {
    algos.push(ctx.take_algo());
    r
}

/// Concurrent checkout/return: every live buffer must be exclusively
/// owned. The pools are thread-local, so the claim under test is that a
/// buffer is never handed out twice *while still checked out* — on the
/// same thread (double-take must yield distinct backing stores) and that
/// interleaved writes from many threads never bleed into each other's
/// buffers.
#[test]
fn scratch_pool_concurrent_checkout_return() {
    let live: Arc<Mutex<std::collections::HashSet<usize>>> =
        Arc::new(Mutex::new(Default::default()));
    let iters = 200usize;
    let workers = 8usize;
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let live = Arc::clone(&live);
            std::thread::spawn(move || {
                for it in 0..iters {
                    // Take several buffers at once (forces the pool past its
                    // bounded capacity and through fresh allocations).
                    let mut u32s: Vec<Vec<u32>> =
                        (0..3).map(|k| typed::take_u32(64 + 32 * k)).collect();
                    let mut u64s: Vec<Vec<u64>> = (0..2).map(|k| typed::take_u64(96 + k)).collect();
                    // Every live buffer pointer must be unique process-wide.
                    {
                        let mut set = live.lock().unwrap();
                        for v in &u32s {
                            assert!(
                                set.insert(v.as_ptr() as usize),
                                "u32 buffer aliased while live"
                            );
                        }
                        for v in &u64s {
                            assert!(
                                set.insert(v.as_ptr() as usize),
                                "u64 buffer aliased while live"
                            );
                        }
                    }
                    // Distinct fill patterns; verify after a yield so other
                    // threads interleave.
                    let tag = (w * 1_000 + it) as u64;
                    for (k, v) in u32s.iter_mut().enumerate() {
                        assert!(v.is_empty(), "pool must hand out cleared buffers");
                        v.extend((0..40u32).map(|x| x + (tag as u32) * 7 + k as u32));
                    }
                    for (k, v) in u64s.iter_mut().enumerate() {
                        v.extend((0..40u64).map(|x| x * 3 + tag + k as u64));
                    }
                    std::thread::yield_now();
                    for (k, v) in u32s.iter().enumerate() {
                        for (x, &got) in v.iter().enumerate() {
                            assert_eq!(
                                got,
                                x as u32 + (tag as u32) * 7 + k as u32,
                                "u32 corrupted"
                            );
                        }
                    }
                    for (k, v) in u64s.iter().enumerate() {
                        for (x, &got) in v.iter().enumerate() {
                            assert_eq!(got, x as u64 * 3 + tag + k as u64, "u64 corrupted");
                        }
                    }
                    {
                        let mut set = live.lock().unwrap();
                        for v in &u32s {
                            set.remove(&(v.as_ptr() as usize));
                        }
                        for v in &u64s {
                            set.remove(&(v.as_ptr() as usize));
                        }
                    }
                    for v in u32s {
                        typed::put_u32(v);
                    }
                    for v in u64s {
                        typed::put_u64(v);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// Pooled tables are recycled between calls on the same thread; a stale
/// slot, bucket or chain entry surviving `pooled()` re-initialization
/// would assign wrong group ids. Hammer group1/unique through the pooled
/// arms — the slot tables of `direct` and `packed` on the narrow key span,
/// the per-cluster `GroupTable`s of the spilled grouping on the wide one —
/// with changing data and verify against the reference every round.
#[test]
fn pooled_group_tables_carry_no_stale_state_across_rounds() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for round in 0..30 {
        let n = rng.gen_range(64..700usize);
        // Alternate wildly different key distributions so a stale entry
        // from the previous round would be a plausible (wrong) match.
        let span = if round % 2 == 0 { 3u64 } else { 1 << 40 };
        let b = Bat::new(
            Column::from_oids((0..n as u64).collect()),
            Column::from_oids((0..n as u64).map(|i| i * 37 % span).collect()),
        );
        for ctx in [default_ctx(), spill_ctx()] {
            let g = ops::group1(&ctx, &b).unwrap();
            let canon: Vec<u64> = {
                let mut map = std::collections::HashMap::new();
                (0..g.len())
                    .map(|i| {
                        let gid = g.tail().oid_at(i);
                        let next = map.len() as u64;
                        *map.entry(gid).or_insert(next)
                    })
                    .collect()
            };
            assert_eq!(canon, reference::group1_gids(&b), "round {round}: group1");
            let u = ops::unique(&ctx, &b).unwrap();
            let expect = reference::unique(&b);
            assert_eq!(
                u.iter().collect::<Vec<_>>(),
                expect.iter().collect::<Vec<_>>(),
                "round {round}: unique"
            );
        }
    }
}

/// Build the (left, right) operand pair the governor rounds use: a value
/// range dense enough to produce plenty of matches.
fn join_operands(seed: u64, n: usize, m: usize) -> (Bat, Bat) {
    let mut rng = StdRng::seed_from_u64(seed);
    let left = Bat::new(
        Column::from_oids((0..n as u64).collect()),
        Column::from_ints((0..n).map(|_| rng.gen_range(0..2_000i32)).collect()),
    );
    let right = Bat::new(
        Column::from_ints((0..m).map(|_| rng.gen_range(0..2_000i32)).collect()),
        Column::from_oids((0..m as u64).collect()),
    );
    (left, right)
}

/// Cooperative cancellation under concurrent sessions: one session's query
/// is cancelled — before it starts in even rounds, by a racing thread in
/// odd ones, so it lands mid-query when it lands at all — while bystander
/// sessions of the same server run the same query to completion
/// bit-identically. The victim is revived with `CancelToken::clear` and
/// must then reproduce the oracle exactly.
#[test]
fn cancellation_mid_query_leaves_other_sessions_bit_identical() {
    let rounds = 10usize;
    let w = World::build(0.002);
    let server = Server::with_engine(
        &w.cat,
        ServerConfig { max_concurrent: 3, plan_cache: Some(64), ..ServerConfig::default() },
        Arc::new(EngineConfig::default()),
    );
    // Q5: six classes joined, dozens of statements to land between.
    let q = &all_queries()[4];
    let oracle = server.session().run_query(q, &w.params).unwrap();
    let cancelled = AtomicUsize::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            let session = server.session();
            let token = session.cancel_handle();
            for round in 0..rounds {
                let racer = (round % 2 == 1).then(|| {
                    let token = token.clone();
                    std::thread::spawn(move || token.cancel())
                });
                if round % 2 == 0 {
                    token.cancel();
                }
                match session.run_query(q, &w.params) {
                    Err(MoaError::Kernel(MonetError::Cancelled)) => {
                        cancelled.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => panic!("victim round {round}: unexpected error {e}"),
                    Ok(rows) => {
                        assert_eq!(rows, oracle, "victim round {round}: uncancelled run diverged")
                    }
                }
                if let Some(h) = racer {
                    h.join().unwrap();
                }
                // Revive the session; the retry must match the oracle.
                token.clear();
                let rows = session.run_query(q, &w.params).unwrap();
                assert_eq!(rows, oracle, "victim round {round}: post-clear retry diverged");
            }
        });
        // Bystanders: same server, same plan, never cancelled.
        for d in 0..2 {
            let (server, w, oracle) = (&server, &w, &oracle);
            s.spawn(move || {
                let session = server.session();
                for round in 0..rounds {
                    let rows = session.run_query(q, &w.params).unwrap();
                    assert_eq!(&rows, oracle, "bystander {d} round {round} diverged");
                }
            });
        }
    });
    // The pre-cancelled rounds guarantee at least rounds/2 observed aborts.
    assert!(cancelled.load(Ordering::Relaxed) >= rounds / 2, "cancellation was never observed");
}

/// Scratch-pool leak accounting across governor aborts: injected faults
/// and cancellations at arbitrary points of the join, group, and aggregate
/// kernels must return every checked-out scratch buffer — the
/// process-wide checkout balance settles back to its pre-round baseline.
/// A single abort path that drops a buffer instead of putting it back
/// shows up as a monotonically climbing balance.
#[test]
fn governor_aborts_return_all_scratch_to_the_pool() {
    let (left, right) = join_operands(0xFA17, 24_000, 8_000);
    let groups = Bat::new(
        Column::from_oids((0..20_000u64).collect()),
        Column::from_oids((0..20_000u64).map(|i| i * 31 % 997).collect()),
    );
    // The compact-domain arms take a position array / bitmap and their
    // index vectors from the same pool: an attribute BAT with a datavector
    // (datavector join), its plain twin (direct join), and their heads as
    // selections (bitmap semijoin and antijoin).
    let heads: Vec<u64> = (0..9_000u64).map(|i| 100 + i * 7 % 9_000).collect();
    let mut attr = Bat::with_inferred_props(
        Column::from_oids(heads.clone()),
        Column::from_ints(heads.iter().map(|&o| o as i32).collect()),
    );
    let plain = attr.clone();
    attr.set_datavector(Arc::new(monet::accel::datavector::Datavector::from_unordered(&attr)));
    let refs = Bat::new(
        Column::from_oids((0..20_000u64).collect()),
        Column::from_oids((0..20_000u64).map(|i| 50 + i * 13 % 9_200).collect()),
    );
    let few = plain.slice(0, 100);
    // The same references sorted and carrying their run index, as the
    // loader leaves a reference attribute (run-addressed join and
    // semijoin: the position array and bitmap, and the index vectors).
    let mut sorted_refs = Bat::with_inferred_props(
        Column::from_oids((0..20_000u64).collect()),
        Column::from_oids((0..20_000u64).map(|i| 50 + i * 9_200 / 20_000).collect()),
    );
    sorted_refs.index_runs();
    let oid_keyed = |ctx: &ExecCtx| -> monet::error::Result<Vec<&'static str>> {
        let mut algos = Vec::new();
        noted(ctx, &mut algos, ops::join(ctx, &refs, &plain))?;
        noted(ctx, &mut algos, ops::join(ctx, &refs, &attr))?;
        noted(ctx, &mut algos, ops::semijoin(ctx, &refs.mirror(), &plain))?;
        noted(ctx, &mut algos, ops::antijoin(ctx, &refs.mirror(), &few))?;
        noted(ctx, &mut algos, ops::join(ctx, &sorted_refs, &plain))?;
        noted(ctx, &mut algos, ops::semijoin(ctx, &sorted_refs.mirror(), &plain))?;
        Ok(algos)
    };
    {
        let algos = oid_keyed(&ExecCtx::new()).unwrap();
        assert_eq!(algos, ["direct", "datavector", "bitmap", "bitmap", "runs", "runs"]);
    }
    // The nest + aggregate tail: slot-table grouping (`direct`), pair
    // grouping (`packed`), the zero-copy `sync` join, the key's dedup and
    // two `{g}` over the group ids (`memo` hits on the grouping `group`
    // seeded); then pair dedup (`packed`) and a slot-table `{g}`
    // (`direct`) over a head no `group` built.
    let objects = Column::from_oids((0..20_000u64).collect());
    let chrs =
        |m: u64| Column::from_chrs((0..20_000u64).map(|i| b'A' + (i * 7 % m) as u8).collect());
    let flag = Bat::with_inferred_props(objects.clone(), chrs(3));
    let status = Bat::with_inferred_props(objects, chrs(2));
    let nest_tail = |ctx: &ExecCtx| -> monet::error::Result<Vec<&'static str>> {
        let mut algos = Vec::new();
        let class = noted(ctx, &mut algos, ops::group1(ctx, &flag))?;
        let by_class = noted(ctx, &mut algos, ops::group2(ctx, &class, &status))?.mirror();
        let flags = noted(ctx, &mut algos, ops::join(ctx, &by_class, &flag))?;
        noted(ctx, &mut algos, ops::unique(ctx, &flags))?;
        noted(ctx, &mut algos, ops::set_aggregate(ctx, ops::AggFunc::Count, &flags))?;
        noted(ctx, &mut algos, ops::set_aggregate(ctx, ops::AggFunc::Max, &flags))?;
        noted(ctx, &mut algos, ops::unique(ctx, &flags.mirror()))?;
        noted(ctx, &mut algos, ops::set_aggregate(ctx, ops::AggFunc::Count, &flag.mirror()))?;
        Ok(algos)
    };
    {
        let algos = nest_tail(&default_ctx()).unwrap();
        assert_eq!(algos, ["direct", "packed", "sync", "memo", "memo", "memo", "packed", "direct"]);
    }
    let baseline = typed::scratch_checked_out();
    let oracle = {
        let ctx = ExecCtx::new();
        ops::join::join_hash(&ctx, &left, &right, None).iter().collect::<Vec<_>>()
    };
    let mut aborts = 0usize;
    for &k in &[1u64, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144] {
        let ctx = default_ctx();
        ctx.gov.arm_fault("*", k);
        let r = ops::join(&ctx, &left, &right)
            .and_then(|_| ops::group1(&ctx, &groups))
            .and_then(|_| ops::aggr_scalar(&ctx, &left, ops::AggFunc::Sum))
            .and_then(|_| oid_keyed(&ctx).map(|_| ()));
        match r {
            Err(MonetError::Injected { .. }) => aborts += 1,
            Err(e) => panic!("k={k}: unexpected error {e}"),
            Ok(()) => {} // k past the chain's last probe: ran clean
        }
        // Whatever happened, the context is reusable and correct.
        let j = ops::join(&ctx, &left, &right).unwrap();
        assert_eq!(j.iter().collect::<Vec<_>>(), oracle, "k={k}: retry diverged");
        // The same fault through the nest + aggregate tail.
        let ctx = default_ctx();
        ctx.gov.arm_fault("*", k);
        match nest_tail(&ctx) {
            Err(MonetError::Injected { .. }) => aborts += 1,
            Err(e) => panic!("k={k}: unexpected error {e}"),
            Ok(_) => {}
        }
        // And through the out-of-core join and grouping, whose probes sit
        // between taking the hash filter, the staging windows, the match
        // buffer and the chain table and giving them back.
        let ctx = spill_ctx();
        ctx.gov.arm_fault("*", k);
        match ops::join(&ctx, &left, &right).and_then(|_| ops::group1(&ctx, &groups)) {
            Err(MonetError::Injected { .. }) => aborts += 1,
            Err(e) => panic!("k={k}: unexpected error {e}"),
            Ok(_) => {}
        }
        ctx.gov.disarm_fault(); // k past the chain's last probe
        let j = ops::join(&ctx, &left, &right).unwrap();
        assert_eq!(ctx.take_algo(), "spill");
        assert_eq!(j.iter().collect::<Vec<_>>(), oracle, "k={k}: spill retry diverged");
        // A cancellation abort in the same round: fires at the first probe.
        let ctx = default_ctx();
        ctx.cancel_token().cancel();
        match ops::join(&ctx, &left, &right) {
            Err(MonetError::Cancelled) => {}
            other => panic!("k={k}: pre-cancelled join must abort, got {other:?}"),
        }
    }
    assert!(aborts >= 8, "fault schedule barely exercised the kernels ({aborts} aborts)");
    // The compact-domain arms have no probe between taking their scratch
    // and returning it; their one abort past the entry probe is the budget
    // check on the finished result, by which time the pool must be whole.
    // 64 KiB admits the 36 KiB position array and the bitmaps, but none of
    // the 230+ KiB results (a fresh context each: a failed charge sticks).
    // The grouping arms likewise (a slot table of 3 KiB, or 40 KiB for the
    // 10 000 distinct pairs, then a 90+ KiB result); and the first `{g}`
    // over a head aborts on the 80 KiB grouping it memoizes — its own
    // result is a handful of rows.
    let class = ops::group1(&ExecCtx::new(), &flag).unwrap();
    let by_class = ops::group2(&ExecCtx::new(), &class, &status).unwrap().mirror();
    let pairs = Bat::new(
        Column::from_oids((0..20_000u64).map(|i| i / 4).collect()),
        Column::from_bools((0..20_000u64).map(|i| i % 2 == 1).collect()),
    );
    type Run<'a> = &'a dyn Fn(&ExecCtx) -> monet::error::Result<Bat>;
    let runs: [(Run, &str); 10] = [
        (&|ctx| ops::join(ctx, &refs, &plain), "direct"),
        (&|ctx| ops::join(ctx, &sorted_refs, &plain), "runs"),
        (&|ctx| ops::semijoin(ctx, &sorted_refs.mirror(), &plain), "runs"),
        (&|ctx| ops::join(ctx, &refs, &attr), "datavector"),
        (&|ctx| ops::semijoin(ctx, &refs.mirror(), &plain), "bitmap"),
        (&|ctx| ops::antijoin(ctx, &refs.mirror(), &few), "bitmap"),
        (&|ctx| ops::group1(ctx, &flag), "direct"),
        (&|ctx| ops::group2(ctx, &class, &status), "packed"),
        (&|ctx| ops::unique(ctx, &pairs), "packed"),
        (&|ctx| ops::set_aggregate(ctx, ops::AggFunc::Count, &by_class), "direct"),
    ];
    for (run, algo) in runs {
        let ctx = default_ctx();
        ctx.mem.set_budget(Some(64 * 1024));
        match run(&ctx) {
            Err(MonetError::BudgetExceeded { .. }) => {}
            other => panic!("{algo}: a 64 KiB budget must abort, got {other:?}"),
        }
        assert_eq!(ctx.take_algo(), algo, "the abort must come out of the new arm");
    }
    // The `sync` join takes no scratch and allocates nothing: its result
    // is its operands' head and tail, which the ledger does not charge
    // again, so it completes under the same budget.
    let ctx = default_ctx();
    ctx.mem.set_budget(Some(64 * 1024));
    let synced = ops::join(&ctx, &by_class, &flag).unwrap();
    assert_eq!((ctx.take_algo(), synced.len()), ("sync", 20_000));
    assert_eq!(ctx.mem.charged_bytes(), 0, "a sync join charges nothing");
    // Other tests in this binary run concurrently and hold checkouts
    // transiently; poll for quiescence instead of demanding an instant
    // match. A real abort-path leak never settles back.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let now = typed::scratch_checked_out();
        if now <= baseline {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "scratch checkouts leaked across aborts: baseline {baseline}, now {now}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}
