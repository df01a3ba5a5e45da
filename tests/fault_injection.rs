//! Deterministic fault-injection sweep over the Q1–Q15 workload.
//!
//! Every governed point of a query — operator entries, the interpreter's
//! per-statement probe, and the morsel boundaries of the scan-shaped
//! operators — must fail *cleanly* when a fault fires there: the query
//! returns a typed error, concurrent sessions are unaffected, the
//! admission gate and scratch pool stay usable, the plan cache serves no
//! partially-built entry, and an immediate retry on the same session is
//! bit-identical to the uninjected oracle.
//!
//! The sweep leans on two determinism guarantees: a query's probe *count*
//! is a pure function of data and configuration (morsel boundaries are
//! properties of the operand), and the injector fires at exactly the n-th
//! probe arrival. So: run each
//! query once uninjected on a fresh governor to enumerate its N governed
//! points, then inject at successive points and assert clean failure plus
//! bit-identical recovery at each.

use std::sync::{Arc, OnceLock};

use bench::World;
use flatalg_server::{Server, ServerConfig};
use moa::error::MoaError;
use monet::config::EngineConfig;
use monet::error::MonetError;
use tpcd_queries::{all_queries, Query, QueryResult};

/// Small fixed-SF world: big enough that every query runs its operators,
/// small enough that a several-hundred-point sweep stays fast.
fn world() -> &'static World {
    static W: OnceLock<World> = OnceLock::new();
    W.get_or_init(|| World::build(0.002))
}

/// The configuration of every run in this harness: the environment's,
/// like the world the harness loads.
fn governed() -> Arc<EngineConfig> {
    EngineConfig::from_env()
}

fn server(w: &World) -> Server<'_> {
    Server::with_engine(
        &w.cat,
        ServerConfig { max_concurrent: 4, plan_cache: Some(64), ..ServerConfig::default() },
        governed(),
    )
}

/// Injection points to test for a query with `n` governed points: the
/// full sweep when `full`, else a prefix (every early site: translate
/// boundary, first operator entries) plus a geometric spread and the very
/// last probe.
fn sweep_points(n: u64, full: bool) -> Vec<u64> {
    if full {
        return (1..=n).collect();
    }
    let mut ks: Vec<u64> = (1..=n.min(12)).collect();
    let mut k = 18u64;
    while k < n {
        ks.push(k);
        k = k * 3 / 2;
    }
    ks.push(n);
    ks.sort_unstable();
    ks.dedup();
    ks
}

/// The tentpole sweep: for every query, inject at successive governed
/// points (every point for aggregation-heavy Q1 and join-heavy Q5, a
/// dense-prefix-plus-spread sample for the rest) and require a typed
/// `Injected` error plus a bit-identical retry. The shared plan cache
/// must come through the whole sweep without a single re-miss: a failed
/// execution must neither evict nor poison a cached plan.
#[test]
fn fault_sweep_over_query_mix() {
    let w = world();
    // The world loads with encoded layouts on (the default), so this sweep
    // governs the encoded-path probe sites too: dict-code selects and code
    // groupings sit behind the same `op/*` probes the injector counts. With `FLATALG_ENC=0` in the environment the same
    // sweep covers the raw paths instead.
    if EngineConfig::from_env().enc {
        assert_eq!(
            w.cat.db().get("Order_clerk").unwrap().tail().encoding(),
            monet::props::Enc::Dict,
            "encoded-layout sweep world must actually hold encoded columns",
        );
    }
    let queries = all_queries();
    let server = server(w);
    {
        let session = server.session();
        for q in &queries {
            session.run_query(q, &w.params).unwrap();
        }
    };
    let warm = server.stats().cache.unwrap();

    for q in &queries {
        // Uninjected oracle on a fresh governor, twice: the result and the
        // governed-point count must both be deterministic.
        let (n1, oracle) = oracle_run(&server, q);
        let (n2, again) = oracle_run(&server, q);
        assert_eq!(n1, n2, "q{}: probe count must be deterministic", q.id);
        assert_eq!(oracle, again, "q{}: uninjected runs must be bit-identical", q.id);
        assert!(n1 > 0, "q{}: no governed points — the sweep would prove nothing", q.id);

        for k in sweep_points(n1, q.id == 1 || q.id == 5) {
            let session = server.session();
            session.ctx().gov.arm_fault("*", k);
            match session.run_query(q, &w.params) {
                Err(MoaError::Kernel(MonetError::Injected { hit, .. })) => {
                    assert_eq!(hit, k, "q{}: fault fired at the wrong probe", q.id)
                }
                Err(e) => panic!("q{} k={k}/{n1}: expected injected fault, got: {e}", q.id),
                Ok(_) => panic!("q{} k={k}/{n1}: injected fault did not surface", q.id),
            }
            // The abort released everything the execution had charged.
            assert_eq!(
                session.ctx().mem.charged_bytes(),
                0,
                "q{} k={k}/{n1}: bytes left charged",
                q.id
            );
            // One-shot injector: the immediate retry on the same session
            // runs clean and must reproduce the oracle bit-for-bit.
            let retry = session
                .run_query(q, &w.params)
                .unwrap_or_else(|e| panic!("q{} k={k}/{n1}: retry failed: {e}", q.id));
            assert_eq!(retry, oracle, "q{} k={k}/{n1}: retry diverged from oracle", q.id);
        }
    }

    let end = server.stats().cache.unwrap();
    assert_eq!(
        (end.misses, end.len),
        (warm.misses, warm.len),
        "injected failures must not evict, poison, or partially populate cached plans"
    );
    assert_eq!(server.stats().waited, 0, "single-driver sweep must never queue");
}

fn oracle_run<'a>(server: &Server<'a>, q: &Query) -> (u64, QueryResult) {
    let w = world();
    let session = server.session();
    let r = session.run_query(q, &w.params).unwrap();
    (session.ctx().gov.probes(), r)
}

/// Faults are per-session: a victim session absorbing injected faults in
/// a tight loop must not perturb bystander sessions sharing the admission
/// gate, scratch pool, and plan cache — and afterwards the victim's
/// session, the gate, and the pool must all still work.
#[test]
fn injected_faults_leave_bystanders_gate_and_pool_unaffected() {
    let w = world();
    let queries = all_queries();
    let server = server(w);
    let (q1, q3, q5) = (&queries[0], &queries[2], &queries[4]);
    let [oracle1, oracle3, oracle5] = [q1, q3, q5].map(|q| {
        let s = server.session();
        s.run_query(q, &w.params).unwrap()
    });

    let rounds = 8usize;
    std::thread::scope(|s| {
        let (server, w) = (&server, &w);
        let (oracle1, oracle3, oracle5) = (&oracle1, &oracle3, &oracle5);
        s.spawn(move || {
            for round in 0..rounds {
                let session = server.session();
                session.ctx().gov.arm_fault("*", 3 + 7 * round as u64);
                match session.run_query(q5, &w.params) {
                    Err(MoaError::Kernel(MonetError::Injected { .. })) => {}
                    other => panic!("victim round {round}: expected injected fault, got {other:?}"),
                }
                let retry = session.run_query(q5, &w.params).unwrap();
                assert_eq!(&retry, oracle5, "victim retry diverged in round {round}");
            }
        });
        for (q, oracle) in [(q1, oracle1), (q3, oracle3)] {
            s.spawn(move || {
                let session = server.session();
                for round in 0..rounds {
                    let got = session.run_query(q, &w.params).unwrap();
                    assert_eq!(&got, oracle, "bystander q{} diverged in round {round}", q.id);
                }
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.failed as usize, rounds, "exactly the injected statements must fail");
    assert_eq!(stats.shed, 0, "no statement may be shed by a neighbor's faults");
    // The gate and pool survived the faults: a fresh session still runs
    // the whole mix.
    let session = server.session();
    for q in &queries {
        session.run_query(q, &w.params).unwrap();
    }
}

/// Encoded-path governance: kernels that run directly on dictionary codes
/// (dict-code select, code grouping, unique over encoded tails) probe at
/// entry and must return every scratch buffer on every abort path. Faults
/// injected at successive probes of a kernel chain over a *dict-encoded*
/// column abort cleanly, retry bit-identically on the same context, and
/// leave the process-wide scratch checkout balance at its baseline.
#[test]
fn injected_faults_on_encoded_kernels_abort_cleanly_and_return_scratch() {
    use std::time::{Duration, Instant};

    use monet::ctx::ExecCtx;
    use monet::ops;
    use monet::typed;

    // The fixture is dict-encoded *explicitly* (not via the loader), so
    // this sweep covers the encoded paths under every CI leg — including
    // `FLATALG_ENC=0`, which only disables load-time encoding.
    let n = 4000usize;
    let clerk = &monet::bat::Bat::new(
        monet::column::Column::from_oids((0..n as u64).collect()),
        monet::column::Column::from_strs(
            (0..n).map(|i| format!("Clerk#{:018}", i % 7)).collect::<Vec<_>>(),
        )
        .encode(),
    );
    assert_eq!(
        clerk.tail().encoding(),
        monet::props::Enc::Dict,
        "fixture must be dict-encoded — otherwise this sweeps the raw paths",
    );
    let probe = clerk.iter().next().unwrap().1;
    let baseline = typed::scratch_checked_out();
    // Uninjected chain on a fresh governor: records the oracle results and
    // enumerates the chain's N governed points, so the sweep below can
    // inject at every one of them (and only them — the injector is armed
    // per-context, so a k past the last probe would leak into the retry).
    let (oracle, n) = {
        let ctx = ExecCtx::with_config(governed());
        let r = {
            let sel = ops::select_eq(&ctx, clerk, &probe).unwrap();
            let grp = ops::group1(&ctx, clerk).unwrap();
            let uni = ops::unique(&ctx, clerk).unwrap();
            (sel.iter().collect::<Vec<_>>(), grp.len(), uni.iter().collect::<Vec<_>>())
        };
        (r, ctx.gov.probes())
    };
    assert!(n >= 3, "chain must pass at least its three operator-entry probes (got {n})");
    let mut aborts = 0usize;
    for k in 1u64..=n {
        let ctx = ExecCtx::with_config(governed());
        ctx.gov.arm_fault("*", k);
        {
            let r = ops::select_eq(&ctx, clerk, &probe)
                .and_then(|_| ops::group1(&ctx, clerk))
                .and_then(|_| ops::unique(&ctx, clerk).map(|_| ()));
            match r {
                Err(MonetError::Injected { hit, .. }) => {
                    assert_eq!(hit, k, "fault fired at the wrong probe");
                    aborts += 1;
                }
                Err(e) => panic!("k={k}: unexpected error {e}"),
                Ok(()) => panic!("k={k}/{n}: injected fault did not surface"),
            }
            // The context stays usable and the clean rerun matches the
            // group-id-modulo-base oracle exactly where ids are stable.
            let sel = ops::select_eq(&ctx, clerk, &probe).unwrap();
            assert_eq!(sel.iter().collect::<Vec<_>>(), oracle.0, "k={k}: select retry diverged");
            let grp = ops::group1(&ctx, clerk).unwrap();
            assert_eq!(grp.len(), oracle.1, "k={k}: group retry diverged");
            let uni = ops::unique(&ctx, clerk).unwrap();
            assert_eq!(uni.iter().collect::<Vec<_>>(), oracle.2, "k={k}: unique retry diverged");
        };
    }
    assert_eq!(aborts as u64, n, "every governed point of the encoded chain must abort once");
    // Other tests in this binary run concurrently and hold checkouts
    // transiently; poll for quiescence. A real abort-path leak never
    // settles back to the baseline.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let now = typed::scratch_checked_out();
        if now <= baseline {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "encoded-path aborts leaked scratch: baseline {baseline}, now {now}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The memory governor aborts exactly the over-budget query: a session
/// with a tiny byte budget gets a typed `BudgetExceeded` while concurrent
/// unbudgeted sessions complete bit-identically, and lifting the budget
/// on the *same* session recovers it without a restart.
#[test]
fn memory_budget_aborts_that_query_only_and_lifting_recovers() {
    let w = world();
    let queries = all_queries();
    let server = server(w);
    let q1 = &queries[0];
    let oracle = {
        let s = server.session();
        s.run_query(q1, &w.params).unwrap()
    };

    std::thread::scope(|s| {
        let (server, w, oracle) = (&server, &w, &oracle);
        s.spawn(move || {
            let session = server.session();
            session.ctx().mem.set_budget(Some(64 * 1024));
            for _ in 0..4 {
                match session.run_query(q1, &w.params) {
                    Err(MoaError::Kernel(MonetError::BudgetExceeded { budget_bytes, .. })) => {
                        assert_eq!(budget_bytes, 64 * 1024)
                    }
                    other => panic!("expected budget abort, got {other:?}"),
                }
            }
            // Lifting the budget revives the session in place.
            session.ctx().mem.set_budget(None);
            let got = session.run_query(q1, &w.params).unwrap();
            assert_eq!(&got, oracle, "lifted-budget run diverged");
        });
        s.spawn(move || {
            let session = server.session();
            for round in 0..4 {
                let got = session.run_query(q1, &w.params).unwrap();
                assert_eq!(&got, oracle, "unbudgeted bystander diverged in round {round}");
            }
        });
    });
}

/// Scan-kernel governance: the select scan, the synced multiplex and the
/// scalar aggregate each drive their window kernel through the morsel
/// driver, which probes `scan/morsel` before every morsel. The operands
/// span two full morsels and an odd remainder. A fault armed at any
/// morsel of each kernel must surface as `Injected` at that site, the same
/// context must retry bit-identically, every governed point of the chains
/// below must abort cleanly, and no abort may keep scratch (the scans
/// borrow from the process-wide pool).
#[test]
fn injected_morsel_faults_in_scan_kernels_abort_cleanly_and_return_scratch() {
    use std::time::{Duration, Instant};

    use monet::atom::AtomValue;
    use monet::bat::Bat;
    use monet::ctx::ExecCtx;
    use monet::gov::site;
    use monet::ops::{self, AggFunc, MultArg, ScalarFunc};
    use monet::typed;

    let n = 2 * ops::MORSEL_ROWS + 509;
    // A raw dbl ramp: map and aggregate windows run per morsel and must
    // not leak scratch on any abort.
    let dbl = monet::column::Column::from_dbls((0..n).map(|i| (i / 8000) as f64).collect());
    let dbls = Bat::new(monet::column::Column::from_oids((0..n as u64).collect()), dbl);
    let ints = Bat::new(
        monet::column::Column::from_oids((0..n as u64).collect()),
        monet::column::Column::from_ints((0..n).map(|i| (i as i32) % 97 - 48).collect()),
    );
    let select = |ctx: &ExecCtx| {
        let (lo, hi) = (AtomValue::Int(-10), AtomValue::Int(30));
        ops::select_range(ctx, &ints, Some(&lo), Some(&hi), true, false)
    };
    let map = |ctx: &ExecCtx, b: &Bat, f: ScalarFunc, k: AtomValue| {
        ops::multiplex(ctx, f, &[MultArg::Bat(b.clone()), MultArg::Const(k)])
    };
    // Float sum of a map over the dbl source; integer select -> map -> max.
    let run = |ctx: &ExecCtx| -> monet::error::Result<(AtomValue, AtomValue)> {
        let doubled = map(ctx, &dbls, ScalarFunc::Mul, AtomValue::Dbl(2.0))?;
        let shifted = map(ctx, &select(ctx)?, ScalarFunc::Add, AtomValue::Int(7))?;
        Ok((
            ops::aggr_scalar(ctx, &doubled, AggFunc::Sum)?,
            ops::aggr_scalar(ctx, &shifted, AggFunc::Max)?,
        ))
    };

    let baseline = typed::scratch_checked_out();
    let (oracle, n_probes) = {
        let ctx = ExecCtx::with_config(governed());
        let r = run(&ctx).unwrap();
        (r, ctx.gov.probes())
    };
    assert!(n_probes > 0, "scan chains exposed no governed points");

    // Every `scan/morsel` probe of a context that runs one kernel is
    // inside that kernel's morsel driver: three morsels, three probes.
    let rows = |b: Bat| format!("{:?}", b.iter().collect::<Vec<_>>());
    type Kernel<'a> = Box<dyn Fn(&ExecCtx) -> monet::error::Result<String> + 'a>;
    let kernels: [(&str, Kernel); 3] = [
        ("select scan", Box::new(|ctx| select(ctx).map(rows))),
        (
            "synced multiplex",
            Box::new(|ctx| map(ctx, &dbls, ScalarFunc::Mul, AtomValue::Dbl(2.0)).map(rows)),
        ),
        (
            "aggr_scalar",
            Box::new(|ctx| Ok(format!("{:?}", ops::aggr_scalar(ctx, &dbls, AggFunc::Sum)?))),
        ),
    ];
    for (name, kernel) in &kernels {
        let want = kernel(&ExecCtx::with_config(governed())).unwrap();
        for nth in 1..=3 {
            let ctx = ExecCtx::with_config(governed());
            ctx.gov.arm_fault(site::SCAN_MORSEL, nth);
            match kernel(&ctx) {
                Err(MonetError::Injected { site: s, .. }) => {
                    assert_eq!(s, site::SCAN_MORSEL, "{name}: fault fired at the wrong site")
                }
                other => panic!("{name} morsel {nth}: expected injected fault, got {other:?}"),
            }
            assert_eq!(kernel(&ctx).unwrap(), want, "{name} morsel {nth}: retry diverged");
        }
    }

    // Wildcard sweep over every governed point of both chains.
    for k in 1..=n_probes {
        let ctx = ExecCtx::with_config(governed());
        ctx.gov.arm_fault("*", k);
        match run(&ctx) {
            Err(MonetError::Injected { hit, .. }) => {
                assert_eq!(hit, k, "fault fired at the wrong probe")
            }
            other => panic!("k={k}/{n_probes}: expected injected fault, got {other:?}"),
        }
        let retry = run(&ctx).unwrap();
        assert_eq!(retry, oracle, "k={k}/{n_probes}: retry diverged from oracle");
    }

    // Concurrent tests hold checkouts transiently; poll for quiescence. A
    // real abort-path leak never settles back to the baseline.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let now = typed::scratch_checked_out();
        if now <= baseline {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "scan-kernel aborts leaked scratch: baseline {baseline}, now {now}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// A scratch directory of this test binary, recreated empty.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("flatalg-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Every eligible join and group through spill files in `dir`.
fn forced_spill(dir: &std::path::Path) -> monet::ctx::ExecCtx {
    monet::ctx::ExecCtx::with_config(Arc::new(EngineConfig {
        spill_force: true,
        spill_dir: Some(dir.to_path_buf()),
        ..EngineConfig::default()
    }))
}

/// A join and a grouping whose heavy value overflows its cluster's staging
/// window several times, so both write more than one chunk per file, and
/// whose probe side is part filtered, part matched.
fn spill_operands() -> (monet::bat::Bat, monet::bat::Bat, monet::bat::Bat) {
    use monet::bat::Bat;
    use monet::column::Column;
    let left = Bat::new(
        Column::from_oids((0..8000u64).collect()),
        Column::from_ints(
            (0..8000).map(|i| if i % 2500 == 0 { 7 } else { i * 31 % 1500 }).collect(),
        ),
    );
    let right = Bat::new(
        Column::from_ints((0..5000).map(|i| if i < 2000 { i % 1200 } else { 7 }).collect()),
        Column::from_oids((0..5000u64).collect()),
    );
    let groups = Bat::new(
        Column::from_oids((0..20_000u64).collect()),
        Column::from_ints((0..20_000).map(|i| if i % 3 == 0 { -1 } else { i * 7 % 997 }).collect()),
    );
    (left, right, groups)
}

/// Out-of-core governance: a fault at *every* `spill/write` and
/// `spill/read` probe of a forced-spill join and of a forced-spill
/// grouping aborts typed, leaves no file in `spill_dir`, retries
/// bit-identically on the same context, and returns every pooled buffer
/// the operator held at that point — the hash filter, the staging windows,
/// the `right_of` / match buffer, the read-back clusters' chain table.
#[test]
fn injected_faults_at_every_spill_probe_leave_no_file_and_return_scratch() {
    use std::time::{Duration, Instant};

    use monet::gov::site;
    use monet::{ops, typed};

    let dir = scratch_dir("spill-sweep");
    let (left, right, groups) = spill_operands();
    let keyed = monet::bat::Bat::with_inferred_props(
        monet::column::Column::from_ints((0..1500).map(|i| i * 7 % 1500).collect()),
        monet::column::Column::from_oids((0..1500u64).collect()),
    );
    assert!(keyed.props().head.key, "the second join must take the sort-free finish");
    type Rows = Vec<(monet::atom::AtomValue, monet::atom::AtomValue)>;
    // The three results, and the label each kernel call recorded.
    type Out = (Rows, Rows, usize, [&'static str; 3]);
    let run = |ctx: &monet::ctx::ExecCtx| -> monet::error::Result<Out> {
        let sorted = ops::join(ctx, &left, &right)?;
        let a = ctx.take_algo();
        let sort_free = ops::join(ctx, &left, &keyed)?;
        let b = ctx.take_algo();
        let grouped = ops::group1(ctx, &groups)?;
        let algos = [a, b, ctx.take_algo()];
        Ok((sorted.iter().collect(), sort_free.iter().collect(), grouped.len(), algos))
    };
    let baseline = typed::scratch_checked_out();
    let oracle = run(&forced_spill(&dir)).unwrap();
    assert_eq!(oracle.3, ["spill", "spill", "spill"]);
    let in_memory = run(&monet::ctx::ExecCtx::new()).unwrap();
    assert_eq!((&oracle.0, &oracle.1), (&in_memory.0, &in_memory.1), "spill vs in-memory join");
    for (what, min_points) in [(site::SPILL_WRITE, 8u64), (site::SPILL_READ, 30)] {
        let mut k = 0u64;
        loop {
            k += 1;
            let ctx = forced_spill(&dir);
            ctx.gov.arm_fault(what, k);
            match run(&ctx) {
                Err(MonetError::Injected { site: s, .. }) => assert_eq!(s, what),
                Err(e) => panic!("{what} #{k}: unexpected error {e}"),
                // Past the chain's last probe of this site: the sweep is
                // complete (the armed fault dies with the context).
                Ok(r) => {
                    assert_eq!(r, oracle);
                    break;
                }
            }
            let left_behind = std::fs::read_dir(&dir).unwrap().count();
            assert_eq!(left_behind, 0, "{what} #{k}: aborted operator left its spill file");
            assert_eq!(run(&ctx).unwrap(), oracle, "{what} #{k}: retry diverged");
        }
        assert!(k > min_points, "{what}: only {k} points — the operands no longer span chunks");
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
    // Concurrent tests hold checkouts transiently; poll for quiescence. A
    // real abort-path leak never settles back to the baseline.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let now = typed::scratch_checked_out();
        if now <= baseline {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "spill aborts leaked scratch: baseline {baseline}, now {now}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// A `spill_dir` that cannot hold files — a regular file, a directory
/// without write permission — fails the first spilling operator with a
/// typed store error naming the file it tried to create, and creates
/// nothing.
#[test]
fn an_unusable_spill_dir_is_a_typed_store_error_and_creates_nothing() {
    use std::os::unix::fs::PermissionsExt;

    use monet::ops;

    let (left, right, groups) = spill_operands();
    let root = scratch_dir("spill-unusable");
    let file = root.join("not-a-directory");
    std::fs::write(&file, b"occupied").unwrap();
    let locked = root.join("read-only");
    std::fs::create_dir(&locked).unwrap();
    std::fs::set_permissions(&locked, std::fs::Permissions::from_mode(0o555)).unwrap();
    // A privileged user (the CI container's root) writes through the mode
    // bits; that leg then has nothing to observe.
    let enforced = std::fs::write(locked.join("probe"), b"").is_err();
    let _ = std::fs::remove_file(locked.join("probe"));
    for (dir, checked) in [(&file, true), (&locked, enforced)] {
        if !checked {
            continue;
        }
        for spilling in ["join", "group"] {
            let ctx = forced_spill(dir);
            let r = match spilling {
                "join" => ops::join(&ctx, &left, &right),
                _ => ops::group1(&ctx, &groups),
            };
            match r {
                Err(MonetError::Store { op: "spill/write", path, .. }) => {
                    assert!(path.starts_with(dir.to_str().unwrap()), "{spilling}: {path}")
                }
                other => panic!(
                    "{spilling} into {}: expected a store error, got {other:?}",
                    dir.display()
                ),
            }
            assert_eq!(ctx.mem.spilled_bytes(), 0, "{spilling}: nothing was written");
        }
    }
    assert_eq!(std::fs::read(&file).unwrap(), b"occupied");
    assert_eq!(std::fs::read_dir(&locked).unwrap().count(), 0);
    assert_eq!(std::fs::read_dir(&root).unwrap().count(), 2, "nothing created next to them");
    std::fs::set_permissions(&locked, std::fs::Permissions::from_mode(0o755)).unwrap();
    std::fs::remove_dir_all(&root).unwrap();
}
