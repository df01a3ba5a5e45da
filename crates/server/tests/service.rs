//! End-to-end tests of the query service: concurrent prepared-statement
//! sessions over one shared `Db` must be bit-identical to single-shot
//! uncached execution, the plan cache must count hits/misses/evictions
//! faithfully, a statement must never be served a plan cached under a
//! different planner configuration, and a panicking statement must not
//! wedge the admission gate.

use std::sync::Arc;
use std::time::Duration;

use flatalg_server::{Failures, Server, ServerConfig};
use moa::error::MoaError;
use monet::atom::{AtomValue, Date};
use monet::config::EngineConfig;
use monet::ctx::ExecCtx;
use monet::error::MonetError;
use monet::mil::opt::{self, OptLevel};
use monet::mil::BoundProgram;
use tpcd_queries::q11_15::q13_moa;
use tpcd_queries::{all_queries, Params, QueryResult};

fn cfg(admit: usize, cache: usize) -> ServerConfig {
    ServerConfig { max_concurrent: admit, plan_cache: Some(cache), ..ServerConfig::default() }
}

/// N sessions running the mixed Q1–Q15 workload concurrently (rotated
/// start points, shared plan cache) must reproduce the single-shot
/// uncached oracles bit-for-bit.
#[test]
fn concurrent_sessions_match_single_shot_oracles() {
    let w = bench::world();
    let queries = all_queries();
    // Single-shot oracles: no server, no cache.
    let ctx = ExecCtx::new();
    let oracles: Vec<QueryResult> =
        queries.iter().map(|q| (q.run_moa)(&w.cat, &ctx, &w.params).unwrap()).collect();
    let server = Server::with_engine(&w.cat, cfg(3, 64), EngineConfig::from_env());
    let drivers = 3usize;
    std::thread::scope(|s| {
        for d in 0..drivers {
            let (server, queries, oracles) = (&server, &queries, &oracles);
            s.spawn(move || {
                let session = server.session();
                for i in 0..queries.len() {
                    let i = (i + d * 5) % queries.len();
                    let got = session.run_query(&queries[i], &w.params).unwrap();
                    assert_eq!(got, oracles[i], "query {} diverged", queries[i].id);
                }
            });
        }
    });
    let cache = server.stats().cache.unwrap();
    assert_eq!(cache.bypasses, 0, "every workload plan must be cacheable");
    assert!(cache.hits > 0, "concurrent drivers must share plans");
}

/// Prepared statements: the first execution misses and pays translation,
/// repeats hit, and a hit performs zero translate/optimize work. Fresh
/// parameter values re-bind the cached plan and still match the uncached
/// oracle.
#[test]
fn prepared_statements_hit_rebind_and_skip_the_optimizer() {
    let w = bench::world();
    let server = Server::with_config(&w.cat, cfg(2, 16));
    let session = server.session();
    let stmt = session.prepare(q13_moa(&w.params)).unwrap();
    let s = server.stats().cache.unwrap();
    assert_eq!((s.hits, s.misses), (0, 1));
    let r1 = session.execute(&stmt).unwrap();
    let s = server.stats().cache.unwrap();
    assert_eq!((s.hits, s.misses), (1, 1));
    // A cache hit runs no optimizer passes at all.
    opt::reset_cumulative();
    let r2 = session.execute(&stmt).unwrap();
    assert_eq!(opt::cumulative(), (0, 0), "hits must skip translate+optimize");
    assert_eq!(r1, r2);
    // Re-bind: same shape, different clerk. Still a hit, still correct.
    let mut p2 = w.params.clone();
    p2.q13_clerk = tpcd::text::clerk_name(1);
    let rebound = session.execute_expr(&q13_moa(&p2)).unwrap();
    let s = server.stats().cache.unwrap();
    assert_eq!((s.hits, s.misses), (3, 1));
    let oracle = {
        let ctx = ExecCtx::new();
        tpcd_queries::run_moa_rows(&w.cat, &ctx, &q13_moa(&p2)).unwrap()
    };
    assert_eq!(rebound, oracle, "re-bound plan diverged from uncached oracle");
}

/// A second pass over the full mixed workload translates nothing: every
/// plan (including the multi-statement drivers' phases) is served from
/// the cache with zero optimizer work.
#[test]
fn second_round_of_the_full_workload_is_all_cache_hits() {
    let w = bench::world();
    let server = Server::with_config(&w.cat, cfg(2, 64));
    let session = server.session();
    let queries = all_queries();
    for q in &queries {
        session.run_query(q, &w.params).unwrap();
    }
    let s1 = server.stats().cache.unwrap();
    assert_eq!(s1.bypasses, 0, "every workload plan must be cacheable");
    opt::reset_cumulative();
    for q in &queries {
        session.run_query(q, &w.params).unwrap();
    }
    assert_eq!(opt::cumulative(), (0, 0), "round 2 must run zero translate/optimize");
    let s2 = server.stats().cache.unwrap();
    assert_eq!(s2.misses, s1.misses, "round 2 must not translate");
    // Round 2 repeats round 1's translate calls exactly, all as hits.
    assert_eq!(s2.hits - s1.hits, s1.misses + s1.hits);
}

/// The LRU bound is enforced: with capacity 2, a third shape evicts and
/// the evicted shape misses again on return.
#[test]
fn small_cache_evicts_least_recently_used_plans() {
    let w = bench::world();
    let server = Server::with_config(&w.cat, cfg(2, 2));
    let session = server.session();
    let a = q13_moa(&w.params);
    let b = tpcd_queries::q11_15::q15_moa(&w.params);
    let c = tpcd_queries::q01_05::q4_moa(&w.params);
    session.execute_expr(&a).unwrap();
    session.execute_expr(&b).unwrap();
    session.execute_expr(&c).unwrap(); // evicts a
    let s = server.stats().cache.unwrap();
    assert_eq!(s.evictions, 1);
    assert_eq!(s.len, 2);
    session.execute_expr(&a).unwrap(); // miss again
    let s = server.stats().cache.unwrap();
    assert_eq!((s.hits, s.misses), (0, 4));
}

/// One shared cache, statements under different configurations: a flip of
/// anything the planner consults must never be served another
/// configuration's plan, a flip of something no plan depends on (forced
/// spilling) reuses it, and returning to an earlier configuration
/// still hits its plan.
#[test]
fn plan_config_flips_never_reuse_wrong_plans() {
    let w = bench::world();
    let server = Server::with_config(&w.cat, cfg(2, 16));
    let session = server.session();
    let q = q13_moa(&w.params);
    // Every field that matters pinned explicitly, so the test holds
    // whatever the environment says.
    let run = |opt: OptLevel, spill_force: bool| {
        let base = EngineConfig::clone(&EngineConfig::from_env());
        let ctx = ExecCtx::with_config(Arc::new(EngineConfig { opt, spill_force, ..base }));
        session.scoped(|| tpcd_queries::run_moa_rows(&w.cat, &ctx, &q)).unwrap()
    };
    let counts = || {
        let s = server.stats().cache.unwrap();
        (s.hits, s.misses)
    };
    let full = run(OptLevel::Full, false);
    let off = run(OptLevel::Off, false);
    assert_eq!(full, off, "optimizer must preserve results");
    assert_eq!(counts(), (0, 2), "OptLevel flip must key a distinct plan");
    assert_eq!(run(OptLevel::Full, true), full);
    assert_eq!(counts(), (1, 2), "no plan depends on forced spilling");
    // Back at the original configs, the cached plans hit.
    run(OptLevel::Full, false);
    run(OptLevel::Off, false);
    assert_eq!(counts(), (3, 2));
}

/// Satellite: re-encoding a catalog column through `Db::reencode_tail`
/// bumps the mutation epoch, so plans cached against the raw layout miss
/// afterwards (fresh translate keyed on the new epoch) instead of being
/// served stale — and the re-encoded catalog still produces bit-identical
/// results. Uses a private raw-layout world: the server borrows its
/// catalog immutably, so the mutation goes through an owned `Catalog`
/// against a standalone `PlanCache` (the same cache type every server
/// installs).
#[test]
fn reencoding_a_column_bumps_the_epoch_and_invalidates_plans() {
    use monet::props::Enc;
    // Loader encoding off: `reencode_tail` below performs a real change.
    let mut w = bench::World::build_with(0.002, false);
    let q = q13_moa(&w.params);
    let oracle = {
        let ctx = ExecCtx::new();
        tpcd_queries::run_moa_rows(&w.cat, &ctx, &q).unwrap()
    };
    let cache = moa::plancache::PlanCache::with_capacity(8);
    let plan = EngineConfig::from_env().plan();
    cache.translate(&w.cat, &q, &plan).unwrap();
    cache.translate(&w.cat, &q, &plan).unwrap();
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (1, 1));
    let clerk = w.cat.db().get("Order_clerk").unwrap();
    assert_eq!(clerk.tail().encoding(), Enc::None, "raw-layout world expected");
    let epoch = w.cat.db().epoch();
    assert!(
        w.cat.db_mut().reencode_tail("Order_clerk", false).unwrap(),
        "dict encoding must pay off on the clerk column"
    );
    assert!(w.cat.db().epoch() > epoch, "re-encode must bump the epoch");
    assert_eq!(w.cat.db().get("Order_clerk").unwrap().tail().encoding(), Enc::Dict);
    // Same shape, new epoch: a fresh translate, never a stale hit.
    cache.translate(&w.cat, &q, &plan).unwrap();
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (1, 2), "post-re-encode lookup must miss");
    // A no-op re-encode (dbl tails never encode) must not bump the epoch.
    let epoch = w.cat.db().epoch();
    assert!(!w.cat.db_mut().reencode_tail("Order_totalprice", false).unwrap());
    assert_eq!(w.cat.db().epoch(), epoch, "no-op re-encode must keep the epoch");
    // And the encoded catalog computes the bit-identical result.
    let ctx = ExecCtx::new();
    assert_eq!(tpcd_queries::run_moa_rows(&w.cat, &ctx, &q).unwrap(), oracle);
}

/// A panicking statement releases its admission permit (the gate has a
/// single slot here — a leak would deadlock) and leaves the service fully
/// usable.
#[test]
fn panicking_statement_does_not_wedge_the_service() {
    let w = bench::world();
    let server = Server::with_engine(&w.cat, cfg(1, 8), EngineConfig::from_env());
    let session = server.session();
    let oracle = session.execute_expr(&q13_moa(&w.params)).unwrap();
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        session.scoped::<()>(|| panic!("client bug"))
    }));
    assert!(r.is_err());
    // The single admission slot is free again and execution still
    // produces the bit-identical result.
    let got = server.session().execute_expr(&q13_moa(&w.params)).unwrap();
    assert_eq!(got, oracle);
}

/// An *erroring* (not panicking) statement must release its admission
/// permit just like the unwind path: the gate has a single slot, so a leak
/// on the `Err` return path would deadlock every later statement. The
/// failure is counted, the session stays usable, and a retry is
/// bit-identical.
#[test]
fn erroring_statement_releases_its_permit_and_keeps_fifo_order() {
    let w = bench::world();
    let server = Server::with_config(&w.cat, cfg(1, 8));
    let session = server.session();
    let oracle = session.execute_expr(&q13_moa(&w.params)).unwrap();
    // A real governed failure: the next probe in this session's context
    // fires an injected fault.
    session.ctx().gov.arm_fault("*", 1);
    let err = session.execute_expr(&q13_moa(&w.params)).unwrap_err();
    assert!(
        matches!(err, MoaError::Kernel(MonetError::Injected { .. })),
        "expected the injected fault, got {err}"
    );
    assert_eq!(server.stats().failed, 1);
    // The single slot is free again (this would hang on a permit leak) and
    // FIFO admission still serves a burst of waiters to completion.
    std::thread::scope(|s| {
        for _ in 0..4 {
            let (server, oracle) = (&server, &oracle);
            s.spawn(move || {
                let got = server.session().execute_expr(&q13_moa(&w.params)).unwrap();
                assert_eq!(&got, oracle);
            });
        }
    });
    assert_eq!(session.execute_expr(&q13_moa(&w.params)).unwrap(), oracle);
}

/// Per-statement deadlines: a server configured with a microscopic
/// deadline aborts each statement with `DeadlineExceeded` at a governor
/// probe, cleanly and repeatedly, while a deadline-free server on the same
/// catalog is unaffected.
#[test]
fn per_statement_deadline_aborts_cleanly() {
    let w = bench::world();
    let strict = Server::with_config(
        &w.cat,
        ServerConfig { deadline: Some(Duration::from_micros(1)), ..cfg(2, 8) },
    );
    let session = strict.session();
    for _ in 0..2 {
        let err = session.execute_expr(&q13_moa(&w.params)).unwrap_err();
        assert!(
            matches!(err, MoaError::Kernel(MonetError::DeadlineExceeded { .. })),
            "expected a deadline abort, got {err}"
        );
    }
    assert_eq!(strict.stats().failed, 2);
    // Same catalog, no deadline: untouched.
    let lax = Server::with_config(&w.cat, cfg(2, 8));
    lax.session().execute_expr(&q13_moa(&w.params)).unwrap();
}

/// Load shedding: with a single slot held and a tiny admission timeout, a
/// second statement is shed with `AdmissionTimeout` without ever being
/// admitted — and the gate serves later statements normally.
#[test]
fn admission_timeout_sheds_instead_of_queueing_forever() {
    let w = bench::world();
    let server = Server::with_config(
        &w.cat,
        ServerConfig { admit_timeout: Some(Duration::from_millis(20)), ..cfg(1, 8) },
    );
    let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|s| {
        let server = &server;
        s.spawn(move || {
            let session = server.session();
            session
                .scoped(|| {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok(())
                })
                .unwrap();
        });
        started_rx.recv().unwrap();
        // The slot is held: this statement must be shed, not queued.
        let err = server.session().execute_expr(&q13_moa(&w.params)).unwrap_err();
        assert!(
            matches!(err, MoaError::Kernel(MonetError::AdmissionTimeout { .. })),
            "expected load shedding, got {err}"
        );
        release_tx.send(()).unwrap();
    });
    let stats = server.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.executed, 1, "a shed statement is never admitted");
    // The abandoned ticket does not wedge the gate.
    server.session().execute_expr(&q13_moa(&w.params)).unwrap();
}

/// Cooperative cancellation through the session handle: the cancelled
/// session's statement aborts with `Cancelled`, concurrent sessions are
/// unaffected, and after `clear` the session produces the bit-identical
/// result.
#[test]
fn cancelled_session_aborts_without_disturbing_others() {
    let w = bench::world();
    let server = Server::with_config(&w.cat, cfg(2, 8));
    let victim = server.session();
    let bystander = server.session();
    let oracle = bystander.execute_expr(&q13_moa(&w.params)).unwrap();
    let handle = victim.cancel_handle();
    handle.cancel();
    let err = victim.execute_expr(&q13_moa(&w.params)).unwrap_err();
    assert!(
        matches!(err, MoaError::Kernel(MonetError::Cancelled)),
        "expected cancellation, got {err}"
    );
    // The bystander's session shares the server, gate and plan cache but
    // not the governor: it keeps executing normally.
    assert_eq!(bystander.execute_expr(&q13_moa(&w.params)).unwrap(), oracle);
    handle.clear();
    assert_eq!(victim.execute_expr(&q13_moa(&w.params)).unwrap(), oracle);
}

/// Re-binding never touches the shared plan: two sessions alternate two
/// parameter sets over the same shapes (Q1, Q3, Q5, Q6, Q8, Q10, Q12, Q14
/// — three of them multi-statement drivers, four of them selecting
/// conjuncts grouped under a shared reference), every result is
/// bit-identical to an uncached execution of its set, and afterwards the
/// cache holds the very programs the first executions inserted, with the
/// constants those bound.
#[test]
fn alternating_parameter_sets_rebind_without_touching_the_shared_plans() {
    let w = bench::World::build(0.002);
    let a = w.params.clone();
    let b = Params {
        q1_cutoff: a.q1_cutoff.add_days(-120),
        q3_segment: "MACHINERY".into(),
        q3_date: Date::from_ymd(1995, 6, 1),
        q5_region: "AMERICA".into(),
        q5_date: Date::from_ymd(1996, 1, 1),
        q6_date: Date::from_ymd(1995, 1, 1),
        q6_disc_lo: 0.02,
        q6_disc_hi: 0.04,
        q6_qty: 30,
        q8_region: "EUROPE".into(),
        q8_nation: "FRANCE".into(),
        q8_type_contains: "BRASS".into(),
        q10_date: Date::from_ymd(1994, 4, 1),
        q12_mode1: "AIR".into(),
        q12_mode2: "RAIL".into(),
        q12_date: Date::from_ymd(1996, 1, 1),
        q14_date: Date::from_ymd(1996, 3, 1),
        ..a.clone()
    };
    let queries: Vec<_> =
        all_queries().into_iter().filter(|q| [1, 3, 5, 6, 8, 10, 12, 14].contains(&q.id)).collect();
    let uncached = |p: &Params| -> Vec<QueryResult> {
        let ctx = ExecCtx::new();
        queries.iter().map(|q| (q.run_moa)(&w.cat, &ctx, p).unwrap()).collect()
    };
    let sets = [(&a, uncached(&a)), (&b, uncached(&b))];
    for (qi, q) in queries.iter().enumerate() {
        assert_ne!(sets[0].1[qi], sets[1].1[qi], "Q{}: the sets must differ", q.id);
    }

    let server = Server::with_config(&w.cat, cfg(2, 16));
    let first = server.session();
    for q in &queries {
        first.run_query(q, &a).unwrap();
    }
    let cache = first.scoped(|| Ok(moa::plancache::ambient_plan_cache())).unwrap().unwrap();
    let inserted: Vec<(BoundProgram, Vec<(u32, AtomValue)>)> = cache
        .resident_programs()
        .into_iter()
        .map(|p| {
            let constants = p.param_bindings();
            (p, constants)
        })
        .collect();
    let misses = cache.stats().misses;

    std::thread::scope(|s| {
        for offset in 0..2 {
            let (server, queries, sets) = (&server, &queries, &sets);
            s.spawn(move || {
                let session = server.session();
                for turn in 0..100 {
                    let (params, want) = &sets[(turn + offset) % 2];
                    for (q, want) in queries.iter().zip(want) {
                        let got = session.run_query(q, params).unwrap();
                        assert_eq!(&got, want, "Q{} diverged on turn {turn}", q.id);
                    }
                }
            });
        }
    });

    assert_eq!(cache.stats().misses, misses, "every alternation must hit");
    let resident = cache.resident_programs();
    assert_eq!(resident.len(), inserted.len());
    for (prog, constants) in &inserted {
        let now = resident.iter().find(|r| r.shares_program_with(prog));
        let now = now.expect("the inserted program is still the one served");
        assert_eq!(&now.param_bindings(), constants, "a re-bind wrote into the shared plan");
    }
}

/// Every failure counts under its cause (a shed statement under
/// `admission_timeout`), every executed statement lands in the latency
/// histogram, and the gauges show what runs and what waits.
#[test]
fn failures_are_counted_by_cause_and_every_statement_is_timed() {
    let w = bench::world();
    let q = q13_moa(&w.params);
    let server = Server::with_config(
        &w.cat,
        ServerConfig { admit_timeout: Some(Duration::from_millis(20)), ..cfg(1, 8) },
    );
    let session = server.session();
    session.execute_expr(&q).unwrap();
    session.ctx().gov.arm_fault("*", 1);
    assert!(session.execute_expr(&q).is_err());
    session.ctx().mem.set_budget(Some(1));
    assert!(session.execute_expr(&q).is_err());
    session.ctx().mem.set_budget(None);
    let handle = session.cancel_handle();
    handle.cancel();
    assert!(session.execute_expr(&q).is_err());
    handle.clear();
    assert!(session.scoped::<()>(|| Err(MoaError::Type("not a query".into()))).is_err());
    // Shed: the single slot is held while another statement asks for it.
    let (held_tx, held_rx) = std::sync::mpsc::channel::<()>();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|s| {
        let server = &server;
        s.spawn(move || {
            server
                .session()
                .scoped(|| {
                    held_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok(())
                })
                .unwrap();
        });
        held_rx.recv().unwrap();
        assert_eq!(server.stats().in_flight, 1);
        assert!(server.session().execute_expr(&q).is_err());
        release_tx.send(()).unwrap();
    });
    let stats = server.stats();
    let want = Failures {
        budget: 1,
        cancelled: 1,
        injected: 1,
        admission_timeout: 1,
        other: 1,
        deadline: 0,
    };
    assert_eq!(stats.failures, want);
    assert_eq!((stats.executed, stats.failed, stats.shed), (6, 4, 1));
    assert_eq!(stats.latency.total(), stats.executed);
    assert!(stats.latency.quantile(0.5) <= stats.latency.quantile(1.0));
    assert_eq!((stats.in_flight, stats.queued), (0, 0));

    let strict = Server::with_config(
        &w.cat,
        ServerConfig { deadline: Some(Duration::from_micros(1)), ..cfg(2, 8) },
    );
    assert!(strict.session().execute_expr(&q).is_err());
    let stats = strict.stats();
    assert_eq!(stats.failures, Failures { deadline: 1, ..Failures::default() });
    assert_eq!(stats.latency.total(), stats.executed);

    // A waiter with no admission timeout shows in the queue gauge.
    let patient = Server::with_config(&w.cat, cfg(1, 8));
    let (held_tx, held_rx) = std::sync::mpsc::channel::<()>();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|s| {
        let patient = &patient;
        s.spawn(move || {
            patient
                .session()
                .scoped(|| {
                    held_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok(())
                })
                .unwrap();
        });
        held_rx.recv().unwrap();
        let waiter = s.spawn(|| patient.session().execute_expr(&q).unwrap());
        let started = std::time::Instant::now();
        while patient.stats().queued == 0 {
            assert!(started.elapsed() < Duration::from_secs(10), "the waiter never queued");
            std::thread::yield_now();
        }
        assert_eq!((patient.stats().in_flight, patient.stats().queued), (1, 1));
        release_tx.send(()).unwrap();
        waiter.join().unwrap();
    });
    let stats = patient.stats();
    assert_eq!((stats.in_flight, stats.queued, stats.waited), (0, 0, 1));
    assert_eq!(stats.latency.total(), 2);
}
