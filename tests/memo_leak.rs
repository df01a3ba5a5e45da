//! Leak regression: repeated execution must not grow the heap.
//!
//! The datavector LOOKUP memo used to live on the catalog's shared class
//! extent, keyed by the identity of each query's *selection* — an
//! intermediate whose identity is fresh every run — so every execution
//! left one positions vector plus one gathered oid column per selection
//! behind, forever (≈70 KB per Q1 run and ≈44 KB per Q13 run at SF 0.001).
//! The memo is per-execution state now (`ExecCtx`, dropped by
//! `mil::execute`), and it also holds the `{g}` head groupings Q1's nine
//! aggregates share; this binary counts live heap bytes around a few
//! hundred executions — completed and aborted — to keep it that way.
//!
//! Its own test binary because the counter is a `#[global_allocator]`,
//! and holding one test so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use bench::World;
use flatalg_server::{Server, ServerConfig};
use monet::config::EngineConfig;
use tpcd_queries::all_queries;

/// Live heap bytes: allocated minus freed, over every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the allocator's; the counter is
// a statistic and publishes no other data (`Relaxed`). `realloc` keeps the
// default implementation, which goes through `alloc` and `dealloc` here.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `p` came from `alloc` above, i.e. from `System.alloc`
        // with this same `layout`.
        unsafe { System.dealloc(p, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn repeated_executions_do_not_grow_the_heap() {
    let w = World::build(0.001);
    let server = Server::with_engine(
        &w.cat,
        ServerConfig { max_concurrent: 1, plan_cache: Some(64), ..ServerConfig::default() },
        EngineConfig::from_env(),
    );
    let session = server.session();
    let queries = all_queries();
    let leaky: Vec<_> = queries.iter().filter(|q| q.id == 1 || q.id == 13).collect();
    assert_eq!(leaky.len(), 2);
    let run = |n: usize| {
        for _ in 0..n {
            for q in &leaky {
                session.run_query(q, &w.params).unwrap();
            }
        }
    };
    // Warm-up fills the plan cache, the scratch pools and every lazily
    // decoded column; after it the live heap must be flat.
    run(50);
    let warm = LIVE.load(Ordering::Relaxed);
    run(300);
    let grown = LIVE.load(Ordering::Relaxed) - warm;
    assert!(
        grown < 64 * 1024,
        "live heap grew by {grown} bytes over 300 executions of Q1 and Q13 (warm: {warm})"
    );
    // Aborted executions drop their memo too: injected faults walking
    // through every stretch of both plans (Q1's first grouping is memoized
    // two thirds in, its LOOKUP at the start) must leave nothing behind.
    let mut aborted = 0;
    for round in 0..300u64 {
        for q in &leaky {
            session.ctx().gov.arm_fault("*", 1 + round % 75);
            match session.run_query(q, &w.params) {
                Err(e) => {
                    assert!(e.to_string().contains("injected"), "round {round}: {e}");
                    aborted += 1;
                }
                Ok(_) => session.ctx().gov.disarm_fault(),
            }
        }
    }
    assert!(aborted >= 300, "the fault schedule barely aborted anything ({aborted})");
    run(1);
    let grown = LIVE.load(Ordering::Relaxed) - warm;
    assert!(
        grown < 64 * 1024,
        "live heap grew by {grown} bytes over {aborted} aborted executions (warm: {warm})"
    );
}
