//! # flatalg-server — an in-process query service over the flattened algebra
//!
//! One shared [`Catalog`] (schema + BATs) and the process-wide `monet::par`
//! worker pool serve many concurrent client sessions. There is no wire
//! protocol: a [`Server`] is embedded in the host process and clients are
//! threads holding a [`Session`] each.
//!
//! The service adds two things over calling the translator directly:
//!
//! * **Prepared statements.** Every translation a session performs goes
//!   through the server's shared [`PlanCache`]: the first execution of a
//!   query shape translates and optimizes the MIL program, subsequent
//!   executions re-bind the `prm(id, value)` parameter slots of the cached
//!   plan without re-running the translator or the optimizer. Catalog
//!   changes invalidate silently (the `Db` epoch is part of the cache key),
//!   and so is the planner's configuration.
//! * **Admission control.** Statements are admitted through a FIFO ticket
//!   gate bounding how many run at once, so a burst of sessions cannot
//!   oversubscribe the shared worker pool; waiting statements are served
//!   strictly in arrival order (no starvation). The permit is released on
//!   unwind, so a panicking query cannot wedge the gate or the pool.
//!
//! ```
//! use flatalg_server::{Server, ServerConfig};
//! use tpcd_queries::{all_queries, Params};
//!
//! let data = tpcd::generate(0.001, 42);
//! let (cat, _report) = tpcd::load_bats(&data);
//! let params = Params::for_data(&data);
//! let server = Server::with_config(&cat, ServerConfig::default());
//! let session = server.session();
//! for q in all_queries() {
//!     session.run_query(&q, &params).unwrap();
//! }
//! // Second round: every plan comes from the cache.
//! let before = server.stats();
//! for q in all_queries() {
//!     session.run_query(&q, &params).unwrap();
//! }
//! let after = server.stats();
//! assert_eq!(after.cache.unwrap().misses, before.cache.unwrap().misses);
//! ```

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use moa::catalog::Catalog;
use moa::error::{MoaError, Result};
use moa::plancache::{with_plan_cache, PlanCache, PlanCacheStats};
use moa::prelude::SetExpr;
use monet::config::{EngineConfig, DEFAULT_PLAN_CACHE};
use monet::ctx::ExecCtx;
use monet::error::MonetError;
use monet::gov::CancelToken;
use tpcd_queries::runner::{run_moa_rows, QueryResult};
use tpcd_queries::{Params, Query};

// ---------------------------------------------------------------------------
// Admission gate
// ---------------------------------------------------------------------------

struct GateState {
    next_ticket: u64,
    now_serving: u64,
    running: usize,
    /// Tickets whose waiters gave up (admission timeout). `now_serving`
    /// skips over them so the FIFO order of the remaining waiters is
    /// undisturbed.
    abandoned: HashSet<u64>,
}

/// FIFO ticket gate: at most `limit` statements run at once and waiting
/// statements are admitted strictly in arrival order.
struct Gate {
    limit: usize,
    state: Mutex<GateState>,
    cv: Condvar,
    waited: AtomicU64,
}

/// RAII admission permit; dropping it (including on unwind) frees a slot.
struct Permit<'g> {
    gate: &'g Gate,
}

impl Gate {
    fn new(limit: usize) -> Gate {
        Gate {
            limit: limit.max(1),
            state: Mutex::new(GateState {
                next_ticket: 0,
                now_serving: 0,
                running: 0,
                abandoned: HashSet::new(),
            }),
            cv: Condvar::new(),
            waited: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        // A panic inside an admitted statement happens outside this mutex,
        // but survive poisoning anyway: the state transitions below are
        // all panic-free.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[cfg(test)]
    fn acquire(&self) -> Permit<'_> {
        self.acquire_timeout(None).expect("untimed acquire cannot time out")
    }

    /// Acquire a permit, giving up after `timeout` (None waits forever).
    /// A timed-out ticket is marked abandoned and skipped by `now_serving`,
    /// so the waiters behind it keep their FIFO positions. On timeout the
    /// milliseconds actually waited are returned.
    fn acquire_timeout(&self, timeout: Option<Duration>) -> std::result::Result<Permit<'_>, u64> {
        let started = Instant::now();
        let mut st = self.lock();
        let me = st.next_ticket;
        st.next_ticket += 1;
        let admissible = |st: &mut GateState| {
            while st.abandoned.remove(&st.now_serving) {
                st.now_serving += 1;
            }
            st.now_serving == me && st.running < self.limit
        };
        if !admissible(&mut st) {
            self.waited.fetch_add(1, Ordering::Relaxed);
        }
        while !admissible(&mut st) {
            match timeout {
                None => st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner),
                Some(t) => {
                    let left = t.saturating_sub(started.elapsed());
                    if left.is_zero() {
                        st.abandoned.insert(me);
                        drop(st);
                        // The ticket behind us may now be at the front.
                        self.cv.notify_all();
                        return Err(started.elapsed().as_millis() as u64);
                    }
                    let (g, _) =
                        self.cv.wait_timeout(st, left).unwrap_or_else(PoisonError::into_inner);
                    st = g;
                }
            }
        }
        st.now_serving += 1;
        st.running += 1;
        drop(st);
        // The next ticket may be admissible right away (free slots left).
        self.cv.notify_all();
        Ok(Permit { gate: self })
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.gate.lock();
        st.running -= 1;
        drop(st);
        self.gate.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Service configuration. What a statement *executes* under (threads,
/// budget, optimizer, ...) is the server's [`EngineConfig`]; this is only
/// how statements are admitted.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum statements executing concurrently (minimum 1). Defaults to
    /// the configured worker-thread count — admitting more would only
    /// oversubscribe the shared pool.
    pub max_concurrent: usize,
    /// Plan-cache capacity; `None` disables caching (every execution
    /// translates and optimizes from scratch — the oracle configuration).
    pub plan_cache: Option<usize>,
    /// Per-statement wall-clock deadline; an admitted statement exceeding
    /// it aborts with [`MonetError::DeadlineExceeded`] at the next
    /// governor probe. `None` runs without a deadline.
    pub deadline: Option<Duration>,
    /// How long a statement may wait at the admission gate before being
    /// shed with [`MonetError::AdmissionTimeout`]. `None` waits forever.
    pub admit_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_concurrent: EngineConfig::from_env().threads,
            plan_cache: Some(DEFAULT_PLAN_CACHE),
            deadline: None,
            admit_timeout: None,
        }
    }
}

impl ServerConfig {
    /// The service values of an engine configuration: `admit` (default:
    /// its thread count), `plan_cache`, `deadline_ms`, `admit_timeout_ms`.
    pub fn of(engine: &EngineConfig) -> ServerConfig {
        ServerConfig {
            max_concurrent: engine.admit.unwrap_or(engine.threads),
            plan_cache: engine.plan_cache,
            deadline: engine.deadline_ms.map(Duration::from_millis),
            admit_timeout: engine.admit_timeout_ms.map(Duration::from_millis),
        }
    }
}

/// Aggregate service counters and gauges.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Statements admitted and executed (including failed ones).
    pub executed: u64,
    /// Statements that had to wait at the admission gate.
    pub waited: u64,
    /// Admitted statements that returned an error (budget, deadline,
    /// cancellation, malformed input, injected fault, ...).
    pub failed: u64,
    /// Statements shed at the admission gate (queue timeout) — never
    /// admitted, so not counted in `executed`.
    pub shed: u64,
    /// Statements executing now (holding an admission permit).
    pub in_flight: u64,
    /// Statements waiting at the admission gate now.
    pub queued: u64,
    /// Failed and shed statements by cause.
    pub failures: Failures,
    /// Latency of every executed statement that has completed, admission
    /// to completion.
    pub latency: LatencyHistogram,
    /// Plan-cache counters, when caching is enabled.
    pub cache: Option<PlanCacheStats>,
}

/// Why statements failed: each failed statement counts under one cause,
/// each shed statement under `admission_timeout`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    pub budget: u64,
    pub deadline: u64,
    pub cancelled: u64,
    pub injected: u64,
    pub admission_timeout: u64,
    /// Everything else: malformed input, type errors, ...
    pub other: u64,
}

impl Failures {
    /// The cause's slot in [`Failures::from_counts`]' order.
    fn slot(e: &MoaError) -> usize {
        match e {
            MoaError::Kernel(MonetError::BudgetExceeded { .. }) => 0,
            MoaError::Kernel(MonetError::DeadlineExceeded { .. }) => 1,
            MoaError::Kernel(MonetError::Cancelled) => 2,
            MoaError::Kernel(MonetError::Injected { .. }) => 3,
            MoaError::Kernel(MonetError::AdmissionTimeout { .. }) => 4,
            _ => 5,
        }
    }

    fn from_counts(
        [budget, deadline, cancelled, injected, admission_timeout, other]: [u64; 6],
    ) -> Failures {
        Failures { budget, deadline, cancelled, injected, admission_timeout, other }
    }
}

/// Buckets of a [`LatencyHistogram`]: bucket `i` counts latencies in
/// `[2^i, 2^(i+1))` µs (bucket 0 also counts 0 and 1 µs; the last one
/// everything from about 36 minutes up).
pub const LATENCY_BUCKETS: usize = 32;

/// A fixed-bucket latency histogram, log2 microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    fn bucket(us: u64) -> usize {
        (us.max(1).ilog2() as usize).min(LATENCY_BUCKETS - 1)
    }

    /// Statements counted.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `p`-quantile (`0.0..=1.0`) as the upper bound of its bucket —
    /// within a factor of two of the true value; zero when empty.
    pub fn quantile(&self, p: f64) -> Duration {
        let rank = ((p.clamp(0.0, 1.0) * self.total() as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Duration::from_micros(1 << (i + 1));
            }
        }
        Duration::ZERO
    }
}

/// The in-process query service: one shared catalog, one plan cache, one
/// admission gate. Create one per database; hand out [`Session`]s to
/// client threads (`Server` is `Sync`, sessions are cheap).
pub struct Server<'db> {
    cat: &'db Catalog,
    /// What every session's context is built from.
    engine: Arc<EngineConfig>,
    cache: Option<Arc<PlanCache>>,
    gate: Gate,
    deadline: Option<Duration>,
    admit_timeout: Option<Duration>,
    executed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    in_flight: AtomicU64,
    queued: AtomicU64,
    /// By [`Failures::slot`].
    failures: [AtomicU64; 6],
    latency: [AtomicU64; LATENCY_BUCKETS],
}

impl<'db> Server<'db> {
    /// A server configured from the environment, service values
    /// ([`ServerConfig::of`]) and engine alike.
    pub fn new(cat: &'db Catalog) -> Server<'db> {
        let engine = EngineConfig::from_env();
        Server::with_engine(cat, ServerConfig::of(&engine), engine)
    }

    /// A server whose sessions execute under the process environment's
    /// engine configuration.
    pub fn with_config(cat: &'db Catalog, config: ServerConfig) -> Server<'db> {
        Server::with_engine(cat, config, EngineConfig::from_env())
    }

    /// A server whose sessions execute under `engine`. (`config` alone
    /// decides admission and caching; `engine`'s service values only
    /// matter to whoever derives a [`ServerConfig::of`] them.)
    pub fn with_engine(
        cat: &'db Catalog,
        config: ServerConfig,
        engine: Arc<EngineConfig>,
    ) -> Server<'db> {
        Server {
            cat,
            engine,
            cache: config.plan_cache.map(PlanCache::with_capacity),
            gate: Gate::new(config.max_concurrent),
            deadline: config.deadline,
            admit_timeout: config.admit_timeout,
            executed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            failures: Default::default(),
            latency: [const { AtomicU64::new(0) }; LATENCY_BUCKETS],
        }
    }

    /// Open a client session. Each session owns its execution context;
    /// any number may run concurrently.
    pub fn session(&self) -> Session<'_, 'db> {
        Session { server: self, ctx: ExecCtx::with_config(Arc::clone(&self.engine)) }
    }

    /// The shared catalog this server serves.
    pub fn catalog(&self) -> &'db Catalog {
        self.cat
    }

    pub fn stats(&self) -> ServerStats {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ServerStats {
            executed: load(&self.executed),
            waited: load(&self.gate.waited),
            failed: load(&self.failed),
            shed: load(&self.shed),
            in_flight: load(&self.in_flight),
            queued: load(&self.queued),
            failures: Failures::from_counts(self.failures.each_ref().map(load)),
            latency: LatencyHistogram { buckets: self.latency.each_ref().map(load) },
            cache: self.cache.as_ref().map(|c| c.stats()),
        }
    }

    fn count_failure(&self, e: &MoaError) {
        self.failures[Failures::slot(e)].fetch_add(1, Ordering::Relaxed);
    }

    /// Drop every cached plan (e.g. after mutating the catalog through an
    /// external handle). Plans cached before a `Db` epoch bump are already
    /// unreachable — this reclaims their memory.
    pub fn invalidate_plans(&self) {
        if let Some(c) = &self.cache {
            c.clear();
        }
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// A prepared statement: the query shape has been translated and
/// optimized, and the plan is resident in the server's cache. Executing
/// it — or any expression of the same shape with different `prm` values —
/// only re-binds the parameter slots.
pub struct Prepared {
    expr: SetExpr,
}

impl Prepared {
    /// The expression this statement was prepared from.
    pub fn expr(&self) -> &SetExpr {
        &self.expr
    }
}

/// One client's handle on the service. Sessions are single-threaded (one
/// statement at a time per session); concurrency comes from many sessions.
pub struct Session<'srv, 'db> {
    server: &'srv Server<'db>,
    ctx: ExecCtx,
}

impl<'srv, 'db> Session<'srv, 'db> {
    /// Run a closure as one admitted statement: it holds an admission
    /// permit, runs under the server's per-statement deadline (when one is
    /// configured), and sees the server's plan cache as the ambient cache,
    /// so every `translate` inside it is served from / recorded into the
    /// cache. The permit is released and the deadline disarmed whether the
    /// closure returns `Ok`, returns `Err`, or panics; a statement that
    /// cannot be admitted within the configured queue timeout is shed with
    /// [`MonetError::AdmissionTimeout`] without ever holding a permit.
    pub fn scoped<R>(&self, f: impl FnOnce() -> Result<R>) -> Result<R> {
        let server = self.server;
        server.queued.fetch_add(1, Ordering::Relaxed);
        let admitted = server.gate.acquire_timeout(server.admit_timeout);
        server.queued.fetch_sub(1, Ordering::Relaxed);
        let _permit = match admitted {
            Ok(p) => p,
            Err(waited_ms) => {
                server.shed.fetch_add(1, Ordering::Relaxed);
                let e = MoaError::Kernel(MonetError::AdmissionTimeout { waited_ms });
                server.count_failure(&e);
                return Err(e);
            }
        };
        server.executed.fetch_add(1, Ordering::Relaxed);
        // RAII: the statement leaves the in-flight gauge and enters the
        // latency histogram on every exit path, unwind included.
        struct Running<'a, 'db>(&'a Server<'db>, Instant);
        impl Drop for Running<'_, '_> {
            fn drop(&mut self) {
                let us = self.1.elapsed().as_micros() as u64;
                self.0.latency[LatencyHistogram::bucket(us)].fetch_add(1, Ordering::Relaxed);
                self.0.in_flight.fetch_sub(1, Ordering::Relaxed);
            }
        }
        server.in_flight.fetch_add(1, Ordering::Relaxed);
        let _running = Running(server, Instant::now());
        // RAII deadline: armed for exactly this statement, disarmed on any
        // exit path (a leaked deadline would fail the session's next
        // statement spuriously).
        struct Disarm<'a>(&'a ExecCtx);
        impl Drop for Disarm<'_> {
            fn drop(&mut self) {
                self.0.gov.set_deadline(None);
            }
        }
        let _deadline = server.deadline.map(|d| {
            self.ctx.gov.set_deadline(Some(d));
            Disarm(&self.ctx)
        });
        let out = match &server.cache {
            Some(c) => with_plan_cache(Arc::clone(c), f),
            None => f(),
        };
        if let Err(e) = &out {
            server.failed.fetch_add(1, Ordering::Relaxed);
            server.count_failure(e);
        }
        out
    }

    /// A handle that cancels whatever statement this session is running
    /// (or the next one admitted): the statement aborts with
    /// [`MonetError::Cancelled`] at the next governor probe. Call
    /// [`CancelToken::clear`] before reusing the session.
    pub fn cancel_handle(&self) -> CancelToken {
        self.ctx.cancel_token()
    }

    /// The session's execution context (per-session governor and memory
    /// budget live here).
    pub fn ctx(&self) -> &ExecCtx {
        &self.ctx
    }

    /// Translate and optimize `expr` now, so later executions of this
    /// shape are pure cache hits (parameter re-binding only).
    pub fn prepare(&self, expr: SetExpr) -> Result<Prepared> {
        self.scoped(|| {
            moa::translate::translate_in(self.server.cat, &expr, self.ctx.config()).map(|_| ())
        })?;
        Ok(Prepared { expr })
    }

    /// Execute a prepared statement with the parameter values it was
    /// prepared with.
    pub fn execute(&self, stmt: &Prepared) -> Result<QueryResult> {
        self.execute_expr(&stmt.expr)
    }

    /// Execute a set expression. To re-bind a prepared statement with new
    /// parameter values, pass a freshly built expression of the same shape
    /// (same `prm` ids, new values): the cached plan is re-bound, not
    /// re-translated.
    pub fn execute_expr(&self, expr: &SetExpr) -> Result<QueryResult> {
        self.scoped(|| run_moa_rows(self.server.cat, &self.ctx, expr))
    }

    /// Run one of the TPC-D workload queries. Multi-statement drivers
    /// (Q8, Q11, Q14) run all their programs under a single admission
    /// permit, like a client transaction would.
    pub fn run_query(&self, q: &Query, params: &Params) -> Result<QueryResult> {
        self.scoped(|| (q.run_moa)(self.server.cat, &self.ctx, params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn gate_is_fifo_and_bounded() {
        let gate = Arc::new(Gate::new(2));
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let running = Arc::clone(&running);
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let _p = gate.acquire();
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        running.fetch_sub(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "admission limit exceeded");
    }

    #[test]
    fn timed_out_ticket_is_abandoned_not_blocking() {
        let gate = Arc::new(Gate::new(1));
        let held = gate.acquire();
        // A waiter with a tiny timeout is shed while the slot is taken...
        let g2 = Arc::clone(&gate);
        let shed =
            std::thread::spawn(move || g2.acquire_timeout(Some(Duration::from_millis(5))).is_err())
                .join()
                .unwrap();
        assert!(shed, "waiter should have timed out");
        // ...and its abandoned ticket must not block later arrivals.
        drop(held);
        assert!(gate.acquire_timeout(Some(Duration::from_secs(5))).is_ok());
    }

    #[test]
    fn abandoned_ticket_preserves_fifo_for_later_waiters() {
        let gate = Arc::new(Gate::new(1));
        let held = gate.acquire();
        // Two waiters: the first times out, the second waits patiently.
        let g1 = Arc::clone(&gate);
        let t1 =
            std::thread::spawn(move || g1.acquire_timeout(Some(Duration::from_millis(5))).is_err());
        assert!(t1.join().unwrap());
        let g2 = Arc::clone(&gate);
        let t2 =
            std::thread::spawn(move || g2.acquire_timeout(Some(Duration::from_secs(5))).is_ok());
        // Releasing the held permit must admit the patient waiter even
        // though an earlier (abandoned) ticket sits in front of it.
        std::thread::sleep(Duration::from_millis(10));
        drop(held);
        assert!(t2.join().unwrap(), "patient waiter starved behind an abandoned ticket");
    }

    #[test]
    fn latency_quantiles_are_bucket_upper_bounds() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), Duration::ZERO, "empty");
        for us in [0, 1, 3, 900, 1000, 5_000_000] {
            h.buckets[LatencyHistogram::bucket(us)] += 1;
        }
        assert_eq!(h.buckets[0], 2, "0 and 1 µs share the first bucket");
        assert_eq!(h.buckets[9], 2, "900 and 1000 µs lie in [512, 1024)");
        assert_eq!(h.total(), 6);
        assert_eq!(h.quantile(0.0), Duration::from_micros(2));
        assert_eq!(h.quantile(0.5), Duration::from_micros(4));
        assert_eq!(h.quantile(0.6), Duration::from_micros(1024));
        assert_eq!(h.quantile(0.99), Duration::from_micros(1 << 23));
        assert_eq!(LatencyHistogram::bucket(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn permit_released_on_panic() {
        let gate = Arc::new(Gate::new(1));
        let g2 = Arc::clone(&gate);
        let r = std::thread::spawn(move || {
            let _p = g2.acquire();
            panic!("statement died");
        })
        .join();
        assert!(r.is_err());
        // The slot must be free again: this would deadlock otherwise.
        let _p = gate.acquire();
    }
}
