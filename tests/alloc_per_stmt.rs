//! Allocation budget of a warm statement.
//!
//! A cache hit shares its plan and the interpreter keeps a numeric record
//! per statement, so a warm execution allocates for its kernels' results
//! and its result rows — not per statement for bookkeeping. This binary
//! counts the allocations of one warm cache-hit execution of Q1 and of Q9
//! at SF 0.001 and pins them.
//!
//! Its own test binary because the counter is a `#[global_allocator]`,
//! and holding one test so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bench::World;
use flatalg_server::{Server, ServerConfig};
use monet::config::EngineConfig;
use tpcd_queries::{q01_05, q06_10};

/// Allocations (`alloc` and `realloc` calls) over every thread.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the allocator's; the counter is
// a statistic and publishes no other data (`Relaxed`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's arguments, passed through as is: `p` came
        // from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.realloc(p, layout, new_size) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `alloc` or `realloc` above, i.e. from
        // `System`, with this same `layout`.
        unsafe { System.dealloc(p, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations of one warm cache-hit execution — translate, execute,
/// assemble and flatten the result — when this test was written: one
/// thread, the default configuration, SF 0.001.
const MEASURED: [(usize, u64); 2] = [(1, 183), (9, 562)];

#[test]
fn a_warm_statement_allocates_for_kernels_and_rows_only() {
    let w = World::build_with(0.001, true);
    // One thread (the worker pool and its thread-local scratch stay out of
    // the count) and nothing from the environment: the plan is pinned.
    let engine = EngineConfig { threads: 1, ..EngineConfig::default() };
    let server = Server::with_engine(
        &w.cat,
        ServerConfig { max_concurrent: 1, plan_cache: Some(64), ..ServerConfig::default() },
        Arc::new(engine),
    );
    let session = server.session();
    for (id, measured) in MEASURED {
        let expr = match id {
            1 => q01_05::q1_moa(&w.params),
            _ => q06_10::q9_moa(&w.params),
        };
        // Warm-up: the miss, then hits until the scratch pools and lazily
        // decoded columns are filled.
        for _ in 0..5 {
            session.execute_expr(&expr).unwrap();
        }
        let before = ALLOCS.load(Ordering::Relaxed);
        session.execute_expr(&expr).unwrap();
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        // 20 % headroom: less than Q1's 43 statements, so one `String`
        // per statement coming back fails here.
        let bound = measured * 6 / 5;
        assert!(allocs <= bound, "Q{id}: {allocs} allocations, pinned at {measured} (+20 %)");
    }
    assert_eq!(server.stats().cache.unwrap().misses, 2, "every counted execution was a hit");
}
