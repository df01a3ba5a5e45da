//! Intra-query parallelism: a morsel executor over the typed-kernel layer
//! (Section 2: "parallel iteration and parallel block execution").
//!
//! Monet's execution model exploits vertically fragmented BATs for
//! coarse-grained data parallelism: once layout is factored into dense
//! regions, a scan-shaped operator splits into independent **morsels**
//! (fixed-size contiguous row ranges) and the radix-partitioned join into
//! independent per-cluster tasks. This module provides the worker pool and
//! the task plumbing; the operators in [`crate::ops`] decide *whether* to
//! parallelize through [`crate::costmodel::par_threads`].
//!
//! # Determinism contract
//!
//! Every parallel kernel must be **bit-identical** to its serial form:
//!
//! * tasks are indexed, and their results are concatenated (or reduced) in
//!   task order — never in completion order — so operand order and tie
//!   rules survive any scheduling;
//! * morsel boundaries are a property of the *operand* (the configured
//!   `morsel_rows`), never of the thread count, so order-sensitive
//!   reductions (floating-point sums) give the same bits at every
//!   thread count — including `1`, because the serial path walks the same
//!   morsels in the same order.
//!
//! The cross-crate harness `tests/par_determinism.rs` asserts this for
//! every parallelized kernel against both `ops::reference` and the
//! kernel's own serial path; new parallel kernels must be added there
//! (ROADMAP rule: *parallel kernels ship with a parallel-vs-serial oracle
//! test*).
//!
//! # The pool
//!
//! Workers are **persistent** `std::thread`s (no rayon; the build container
//! is vendor-only), spawned lazily up to the configured thread count and
//! parked on a channel between queries. Persistence matters beyond spawn
//! cost: the bounded thread-local scratch pool (`typed::take_u32`/`take_u64`)
//! lives per worker, so per-task hash tables and cluster buffers reuse
//! committed pages across operator calls instead of faulting fresh mmaps.
//!
//! The thread count, the serial/parallel row threshold and the morsel
//! size come from the [`crate::config::EngineConfig`] the calling
//! [`ExecCtx`] carries; nothing here is ambient.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, OnceLock};

use crate::ctx::ExecCtx;
use crate::error::{MonetError, Result};
use crate::gov::Governor;

/// Default rows per morsel for scan-shaped operators: big enough that one
/// task amortizes dispatch (a channel send + an atomic increment), small
/// enough that 4-8 workers stay balanced on the ~100k-1M row operands where
/// parallelism first pays. Never derived from the thread count, so
/// morsel-decomposed reductions are bit-identical at every thread count
/// (tests configure tiny odd sizes to exercise remainder morsels).
pub const MORSEL_ROWS: usize = 64 * 1024;

/// Hard cap on pool size; a configured thread count beyond this is clamped.
pub const MAX_THREADS: usize = 32;

// ---------------------------------------------------------------------------
// The worker pool.
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Lazily grown set of persistent workers, each parked on its own channel.
/// Senders are handed out round-robin per dispatch; a worker executes one
/// job at a time in arrival order.
struct Pool {
    senders: Mutex<Vec<Sender<Job>>>,
    /// Rotates the starting worker between dispatches so short bursts do
    /// not always load worker 0.
    rr: AtomicUsize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// True on pool worker threads. A `run_tasks` issued *from* a worker
    /// (a nested parallel kernel inside a task) must run inline: its
    /// helper jobs would queue behind the very job that is waiting for
    /// them — a deadlock. Inline execution is always correct (results are
    /// combined in task order either way).
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool { senders: Mutex::new(Vec::new()), rr: AtomicUsize::new(0) })
}

/// Number of persistent workers the process-wide pool has spawned so far.
/// The pool grows lazily up to [`MAX_THREADS`] and is shared by every
/// caller in the process — a query service reports this to show that
/// concurrent sessions share one pool instead of spawning per-session
/// threads.
pub fn pool_workers() -> usize {
    POOL.get().map_or(0, |p| p.senders.lock().expect("worker pool poisoned").len())
}

/// Ensure at least `n` workers exist and dispatch one copy of `make_job`'s
/// product to each of `n` distinct workers. Returns the number dispatched
/// (always `n`; growth is infallible short of thread-spawn failure, which
/// panics — the kernel cannot degrade safely mid-operator).
fn dispatch_to_workers(n: usize, make_job: impl Fn() -> Job) {
    let p = pool();
    let mut senders = p.senders.lock().expect("worker pool poisoned");
    while senders.len() < n.min(MAX_THREADS) {
        let (tx, rx) = channel::<Job>();
        let id = senders.len();
        std::thread::Builder::new()
            .name(format!("monet-par-{id}"))
            .spawn(move || {
                IS_POOL_WORKER.with(|w| w.set(true));
                // Park between jobs; exit when the pool itself is dropped
                // (process end). A panicking job must not take the worker
                // down with it — the caller rethrows the payload.
                while let Ok(job) = rx.recv() {
                    let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
                }
            })
            .expect("spawn parallel worker");
        senders.push(tx);
    }
    let start = p.rr.fetch_add(1, Ordering::Relaxed);
    for k in 0..n {
        let w = (start + k) % senders.len();
        senders[w].send(make_job()).expect("worker channel closed");
    }
}

/// Execute `ntasks` indexed tasks on `threads` threads (the caller
/// participates as one of them) and return the results **in task order**.
///
/// Scheduling is work-stealing over a shared atomic cursor, so skewed task
/// costs balance; determinism is unaffected because results are placed by
/// task index. With `threads <= 1` (or one task) the tasks run inline on
/// the caller, in order — the serial path of every parallel kernel.
///
/// A panicking task is re-thrown on the caller after all in-flight tasks
/// finish (workers survive; see the pool loop).
pub fn run_tasks<R, F>(ntasks: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    if ntasks == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(ntasks);
    // Inline serial execution when only one thread is wanted — and always
    // on pool worker threads, where dispatching helper jobs could queue
    // them behind the currently-executing job (deadlock; see
    // IS_POOL_WORKER).
    if threads == 1 || IS_POOL_WORKER.with(|w| w.get()) {
        return (0..ntasks).map(f).collect();
    }
    type TaskResult<R> = (usize, std::thread::Result<R>);
    let f = Arc::new(f);
    let cursor = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = channel::<TaskResult<R>>();
    dispatch_to_workers(threads - 1, || {
        let f = Arc::clone(&f);
        let cursor = Arc::clone(&cursor);
        let tx = tx.clone();
        Box::new(move || loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= ntasks {
                break;
            }
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| f(i)));
            let failed = r.is_err();
            if tx.send((i, r)).is_err() || failed {
                break;
            }
        })
    });
    drop(tx); // workers hold the remaining senders
    let mut out: Vec<Option<R>> = (0..ntasks).map(|_| None).collect();
    let mut collected = 0usize;
    let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= ntasks {
            break;
        }
        match std::panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
            Ok(r) => {
                out[i] = Some(r);
                collected += 1;
            }
            Err(p) => {
                panic_payload.get_or_insert(p);
                break;
            }
        }
    }
    // Collect worker results until every task is accounted for. Stopping
    // at `ntasks` (rather than at channel close) matters when several
    // drivers share the pool: this batch's helper jobs may still sit
    // queued behind another driver's — once all results are in, they
    // have nothing left to do, and waiting for them to reach the front of
    // the queue would couple this driver's latency to unrelated batches.
    // Every worker sends its result *before* checking for exit, so a
    // receive error (all senders dropped) with tasks missing can only
    // follow a panic.
    while collected < ntasks && panic_payload.is_none() {
        match rx.recv() {
            Ok((i, Ok(r))) => {
                out[i] = Some(r);
                collected += 1;
            }
            Ok((_, Err(p))) => {
                panic_payload.get_or_insert(p);
            }
            Err(_) => break,
        }
    }
    if let Some(p) = panic_payload {
        std::panic::resume_unwind(p);
    }
    out.into_iter().map(|r| r.expect("parallel task dropped without panicking")).collect()
}

/// Governed [`run_tasks`]: before each task, check a shared stop flag and
/// probe the governor at `site` — a cancellation, deadline, or injected
/// fault makes the remaining tasks no-ops (workers abandon their morsels),
/// and the first-by-index error is returned after the batch drains.
///
/// The drain is total: every task index still settles (completed tasks
/// keep their results, abandoned ones are skipped), so the pool's
/// accounting is untouched and it stays reusable — an aborted query never
/// wedges concurrent drivers sharing the pool. `f` itself stays
/// infallible; partial results are dropped here, and kernels that hold
/// pooled scratch across the batch wrap it in recycle-on-drop guards so an
/// abort returns it (`tests/par_stress.rs` asserts the checkout balance).
pub fn try_run_tasks<R, F>(
    gov: &Arc<Governor>,
    site: &'static str,
    ntasks: usize,
    threads: usize,
    f: F,
) -> Result<Vec<R>>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    let stop = Arc::new(AtomicBool::new(false));
    let first_err: Arc<Mutex<Option<(usize, MonetError)>>> = Arc::new(Mutex::new(None));
    let results = {
        let gov = Arc::clone(gov);
        let stop = Arc::clone(&stop);
        let first_err = Arc::clone(&first_err);
        run_tasks(ntasks, threads, move |i| {
            if stop.load(Ordering::Relaxed) {
                return None;
            }
            match gov.probe(site) {
                Ok(()) => Some(f(i)),
                Err(e) => {
                    stop.store(true, Ordering::Relaxed);
                    let mut slot =
                        first_err.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    // Keep the lowest task index: deterministic choice when
                    // several workers trip (e.g. all observing Cancelled).
                    if slot.as_ref().map_or(true, |(j, _)| i < *j) {
                        *slot = Some((i, e));
                    }
                    None
                }
            }
        })
    };
    let taken = first_err.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();
    if let Some((_, e)) = taken {
        return Err(e);
    }
    Ok(results.into_iter().map(|r| r.expect("no error recorded but a task was skipped")).collect())
}

/// Map `f` over the morsels of a `len`-row operand on `threads` threads,
/// probing the context's governor at every morsel boundary
/// ([`crate::gov::site::PAR_MORSEL`]; see [`try_run_tasks`]). This is the
/// scan-shaped entry point: `f` receives the global row range and returns
/// that range's partial result (matching positions, a partial accumulator,
/// an output column slice, ...), and the caller concatenates or reduces
/// the parts **in morsel order** — the determinism contract.
pub fn try_for_each_morsel<R, F>(ctx: &ExecCtx, len: usize, threads: usize, f: F) -> Result<Vec<R>>
where
    R: Send + 'static,
    F: Fn(std::ops::Range<usize>) -> R + Send + Sync + 'static,
{
    let ms = morsels(len, ctx.config().morsel_rows);
    try_run_tasks(&ctx.gov, crate::gov::site::PAR_MORSEL, ms.len(), threads, move |i| {
        f(ms[i].clone())
    })
}

/// The morsel ranges of a `len`-row operand: `ceil(len / morsel_rows)`
/// contiguous windows in operand order, all but the last exactly
/// `morsel_rows` long.
pub fn morsels(len: usize, morsel_rows: usize) -> Vec<std::ops::Range<usize>> {
    let m = morsel_rows.max(1);
    let mut out = Vec::with_capacity(len.div_ceil(m).max(1));
    let mut at = 0;
    while at < len {
        let end = (at + m).min(len);
        out.push(at..end);
        at = end;
    }
    if out.is_empty() {
        out.push(0..0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsels_cover_exactly_in_order() {
        for len in [0usize, 1, 6, 7, 8, 20, 21] {
            let ms = morsels(len, 7);
            let mut at = 0;
            for m in &ms {
                assert_eq!(m.start, at, "len={len}");
                assert!(m.len() <= 7 && (!m.is_empty() || len == 0), "len={len}");
                at = m.end;
            }
            assert_eq!(at, len, "len={len}");
        }
    }

    #[test]
    fn run_tasks_returns_in_task_order_any_thread_count() {
        for threads in [1usize, 2, 4, 7] {
            let got = run_tasks(23, threads, |i| i * i);
            let expect: Vec<usize> = (0..23).map(|i| i * i).collect();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn run_tasks_balances_skewed_tasks() {
        // Tasks of wildly different cost still land in index order.
        let got = run_tasks(12, 4, |i| {
            if i % 3 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(got, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn nested_run_tasks_never_deadlocks() {
        // A task that itself fans out: on pool workers the inner batch
        // must run inline (its helper jobs would queue behind the very
        // job awaiting them); on the caller the inner batch completes as
        // soon as its results are in, even while the outer batch still
        // occupies the workers.
        let got = run_tasks(4, 4, |i| run_tasks(3, 4, move |j| i * 10 + j).iter().sum::<usize>());
        assert_eq!(got, (0..4).map(|i| 30 * i + 3).collect::<Vec<_>>());
    }

    #[test]
    fn pool_survives_a_panicking_task() {
        let r = std::panic::catch_unwind(|| {
            run_tasks(8, 4, |i| {
                if i == 3 {
                    panic!("task 3 exploded");
                }
                i
            })
        });
        assert!(r.is_err());
        // The pool still executes subsequent batches correctly.
        let got = run_tasks(8, 4, |i| i + 1);
        assert_eq!(got, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn try_run_tasks_matches_run_tasks_when_ungoverned() {
        let gov = Arc::new(Governor::new(None));
        for threads in [1usize, 4] {
            let got = try_run_tasks(&gov, "par/task", 23, threads, |i| i * i).unwrap();
            let expect: Vec<usize> = (0..23).map(|i| i * i).collect();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn cancelled_batch_aborts_and_pool_stays_reusable() {
        let gov = Arc::new(Governor::new(None));
        gov.cancel_token().cancel();
        for threads in [1usize, 4] {
            let ran = Arc::new(AtomicUsize::new(0));
            let r = {
                let ran = Arc::clone(&ran);
                try_run_tasks(&gov, "par/task", 100, threads, move |_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            };
            assert_eq!(r.unwrap_err(), MonetError::Cancelled, "threads={threads}");
            assert_eq!(ran.load(Ordering::Relaxed), 0, "pre-cancelled: no task body runs");
        }
        // The pool (and an un-cancelled governor) still works afterwards.
        gov.cancel_token().clear();
        let got = try_run_tasks(&gov, "par/task", 8, 4, |i| i + 1).unwrap();
        assert_eq!(got, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn injected_fault_mid_batch_drains_cleanly() {
        let gov = Arc::new(Governor::new(None));
        for threads in [1usize, 4] {
            gov.arm_fault("par/task", 5);
            let err = try_run_tasks(&gov, "par/task", 64, threads, |i| i).unwrap_err();
            assert!(
                matches!(err, MonetError::Injected { site: "par/task", .. }),
                "threads={threads}: {err:?}"
            );
            // Injector is one-shot: the retried batch completes.
            let got = try_run_tasks(&gov, "par/task", 64, threads, |i| i).unwrap();
            assert_eq!(got, (0..64).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn try_for_each_morsel_covers_in_order() {
        let cfg = crate::config::EngineConfig { morsel_rows: 7, ..Default::default() };
        let ctx = ExecCtx::with_config(Arc::new(cfg));
        let got = try_for_each_morsel(&ctx, 20, 4, |r| (r.start, r.end)).unwrap();
        assert_eq!(got, vec![(0, 7), (7, 14), (14, 20)]);
    }

    #[test]
    fn worker_thread_locals_persist_across_batches() {
        // The scratch pool is per worker thread; a warm buffer taken and
        // returned inside one batch must be reusable in the next. We can't
        // observe buffer identity across threads directly, so assert the
        // weaker, load-bearing property: take/put on worker threads never
        // corrupts data under repeated batches.
        for round in 0..3u64 {
            let ok = run_tasks(8, 4, move |i| {
                let mut v = crate::typed::take_u64(1024);
                v.extend((0..1024u64).map(|x| x * (i as u64 + 1) + round));
                let good =
                    v.iter().enumerate().all(|(x, &got)| got == x as u64 * (i as u64 + 1) + round);
                crate::typed::put_u64(v);
                good
            });
            assert!(ok.iter().all(|&b| b), "round {round}");
        }
    }
}
