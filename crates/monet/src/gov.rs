//! Resource governor: cooperative cancellation, deadlines, and the
//! deterministic fault injector.
//!
//! Every [`crate::ctx::ExecCtx`] carries one [`Governor`] (shared by
//! clones of the context, i.e. per query/session). The kernel calls
//! [`Governor::probe`] at its governed points — operator entry, between
//! MIL statements, and at every morsel/task boundary of the parallel
//! executor — and each probe is simultaneously:
//!
//! * a **cancellation point**: a [`CancelToken`] set from any thread makes
//!   the next probe return [`MonetError::Cancelled`], so workers abandon
//!   their remaining morsels and the query aborts between statements;
//! * a **deadline check**: a per-statement deadline set by the query
//!   service turns into [`MonetError::DeadlineExceeded`] at the first
//!   probe past it;
//! * a **fault-injection site**: a seeded injector (the configuration's
//!   `fault`, or [`Governor::arm_fault`]) fires [`MonetError::Injected`] at exactly the n-th matching
//!   probe — deterministically, so a test sweep can enumerate every
//!   governed point of a query and prove each one fails cleanly.
//!
//! The memory budget lives next door in [`crate::ctx::MemTracker`]: the
//! budget check happens at every tracked allocation (`ctx.record`), not at
//! probes, because that is where the bytes appear.
//!
//! Idle cost is two relaxed atomic loads per probe (no armed fault, no
//! deadline) — see the `gov/*` lines of `BENCH_kernels.json` for the
//! measured end-to-end overhead.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::error::{MonetError, Result};

/// Well-known probe site names. Free-form `&'static str`s are accepted
/// everywhere; these constants exist so the interpreter, the parallel
/// executor, and the fault-sweep harness agree on spelling.
pub mod site {
    /// Between MIL statements (the interpreter's per-statement probe).
    pub const MIL_STMT: &str = "mil/stmt";
    /// Before each morsel of a morsel-decomposed kernel.
    pub const PAR_MORSEL: &str = "par/morsel";
    /// Before each task of a task-decomposed kernel (per-cluster join
    /// ranges, per-morsel group partials).
    pub const PAR_TASK: &str = "par/task";
    /// Before each morsel of a fused select stage.
    pub const FUSE_SELECT: &str = "fuse/select";
    /// Before each morsel of a fused multiplex stage.
    pub const FUSE_MULTIPLEX: &str = "fuse/multiplex";
    /// Before each morsel of a fused aggregate stage.
    pub const FUSE_AGGR: &str = "fuse/aggr";
    /// While opening a persistent store (superblock / per-column files).
    pub const STORE_OPEN: &str = "store/open";
    /// Before each partition flush an out-of-core operator writes.
    pub const SPILL_WRITE: &str = "spill/write";
    /// Before each spilled partition an out-of-core operator reads back.
    pub const SPILL_READ: &str = "spill/read";
}

/// Microseconds since the process-wide monotonic anchor. Deadlines are
/// stored as one `AtomicU64` in this timebase (0 = none), so the probe's
/// deadline check is a single relaxed load when no deadline is set.
fn now_us() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    // +1 so a deadline computed at the anchor instant is never 0 (= none).
    ANCHOR.get_or_init(Instant::now).elapsed().as_micros() as u64 + 1
}

/// An armed fault: fire [`MonetError::Injected`] at the `nth` matching
/// probe (1-based). Plain fields — mutated under the governor's mutex.
struct FaultPlan {
    /// Probe site to match; `"*"` matches every site.
    site: String,
    /// Fire at this matching probe (1-based).
    nth: u64,
    /// Matching probes seen so far.
    seen: u64,
}

/// Cloneable cancellation handle for one governor (= one query context).
/// Setting it makes every subsequent [`Governor::probe`] on that context
/// return [`MonetError::Cancelled`] until [`CancelToken::clear`].
#[derive(Clone)]
pub struct CancelToken(Arc<Governor>);

impl CancelToken {
    /// Request cooperative cancellation; observed at the next probe.
    pub fn cancel(&self) {
        self.0.cancelled.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.cancelled.load(Ordering::Relaxed)
    }

    /// Clear a previous cancellation so the context is usable again (a
    /// cancelled session stays dead until its owner explicitly revives it).
    pub fn clear(&self) {
        self.0.cancelled.store(false, Ordering::Relaxed);
    }
}

/// Cancellation, deadline, and fault-injection state of one execution
/// context. See the module docs for the probe semantics.
pub struct Governor {
    cancelled: AtomicBool,
    /// Deadline in [`now_us`] microseconds; 0 = none.
    deadline_us: AtomicU64,
    /// Fast-path flag: probes skip the fault mutex entirely unless armed.
    fault_armed: AtomicBool,
    fault: Mutex<Option<FaultPlan>>,
    /// Total probes observed (all sites). The fault-sweep harness reads
    /// this after an uninjected run to enumerate a query's governed points.
    probes: AtomicU64,
}

impl Default for Governor {
    fn default() -> Governor {
        Governor::new(None)
    }
}

impl Governor {
    /// A fresh governor: no cancellation, no deadline; `fault = (site, n)`
    /// (a configuration's `fault`) arms the injector for the `n`-th probe
    /// of `site`, so every context built from that configuration hits the
    /// same deterministic point.
    pub fn new(fault: Option<&(String, u64)>) -> Governor {
        let g = Governor {
            cancelled: AtomicBool::new(false),
            deadline_us: AtomicU64::new(0),
            fault_armed: AtomicBool::new(false),
            fault: Mutex::new(None),
            probes: AtomicU64::new(0),
        };
        if let Some((site, count)) = fault {
            g.arm_fault(site, *count);
        }
        g
    }

    fn fault_slot(&self) -> std::sync::MutexGuard<'_, Option<FaultPlan>> {
        self.fault.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arm the deterministic injector: the `nth` (1-based) subsequent
    /// probe matching `site` (`"*"` = any site) returns
    /// [`MonetError::Injected`]. One-shot: firing disarms, so a retried
    /// query runs clean. Re-arming replaces any previous plan.
    pub fn arm_fault(&self, site: &str, nth: u64) {
        *self.fault_slot() = Some(FaultPlan { site: site.to_string(), nth: nth.max(1), seen: 0 });
        self.fault_armed.store(true, Ordering::Release);
    }

    /// Disarm the injector without firing.
    pub fn disarm_fault(&self) {
        *self.fault_slot() = None;
        self.fault_armed.store(false, Ordering::Release);
    }

    /// Set (or clear) the deadline `d` from now. Observed cooperatively at
    /// probes; there is no preemption.
    pub fn set_deadline(&self, d: Option<Duration>) {
        let at =
            d.map_or(0, |d| now_us().saturating_add(d.as_micros().min(u64::MAX as u128) as u64));
        self.deadline_us.store(at, Ordering::Relaxed);
    }

    /// Total probes observed on this governor (all sites).
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// One governed point: count it, then fail if an armed fault fires
    /// here, the context is cancelled, or the deadline has passed. The
    /// idle path (nothing armed) is two relaxed loads and one relaxed
    /// increment.
    pub fn probe(&self, site: &'static str) -> Result<()> {
        self.probes.fetch_add(1, Ordering::Relaxed);
        if self.fault_armed.load(Ordering::Acquire) {
            let mut slot = self.fault_slot();
            if let Some(plan) = slot.as_mut() {
                if plan.site == "*" || plan.site == site {
                    plan.seen += 1;
                    if plan.seen >= plan.nth {
                        let hit = plan.seen;
                        *slot = None;
                        self.fault_armed.store(false, Ordering::Release);
                        return Err(MonetError::Injected { site, hit });
                    }
                }
            }
        }
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(MonetError::Cancelled);
        }
        let deadline = self.deadline_us.load(Ordering::Relaxed);
        if deadline != 0 && now_us() > deadline {
            return Err(MonetError::DeadlineExceeded { site });
        }
        Ok(())
    }

    /// A cancellation handle for this governor.
    pub fn cancel_token(self: &Arc<Governor>) -> CancelToken {
        CancelToken(Arc::clone(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_probe_is_ok_and_counts() {
        let g = Governor::new(None);
        assert_eq!(g.probes(), 0);
        assert!(g.probe("op/test").is_ok());
        assert!(g.probe(site::MIL_STMT).is_ok());
        assert_eq!(g.probes(), 2);
    }

    #[test]
    fn cancel_is_observed_and_clearable() {
        let g = Arc::new(Governor::new(None));
        let token = g.cancel_token();
        assert!(g.probe("x").is_ok());
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(g.probe("x"), Err(MonetError::Cancelled));
        assert_eq!(g.probe("y"), Err(MonetError::Cancelled), "cancel is sticky");
        token.clear();
        assert!(g.probe("x").is_ok());
    }

    #[test]
    fn deadline_trips_after_elapsing() {
        let g = Governor::new(None);
        g.set_deadline(Some(Duration::from_secs(3600)));
        assert!(g.probe("x").is_ok());
        g.set_deadline(Some(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(1));
        assert!(matches!(g.probe("x"), Err(MonetError::DeadlineExceeded { site: "x" })));
        g.set_deadline(None);
        assert!(g.probe("x").is_ok());
    }

    #[test]
    fn fault_fires_exactly_once_at_the_nth_matching_probe() {
        let g = Governor::new(None);
        g.arm_fault("op/join", 2);
        assert!(g.probe("op/select").is_ok(), "non-matching site");
        assert!(g.probe("op/join").is_ok(), "first match, nth=2");
        assert_eq!(g.probe("op/join"), Err(MonetError::Injected { site: "op/join", hit: 2 }));
        assert!(g.probe("op/join").is_ok(), "one-shot: disarmed after firing");
    }

    #[test]
    fn wildcard_fault_matches_any_site() {
        let g = Governor::new(None);
        g.arm_fault("*", 3);
        assert!(g.probe("a").is_ok());
        assert!(g.probe("b").is_ok());
        assert_eq!(g.probe("c"), Err(MonetError::Injected { site: "c", hit: 3 }));
    }

    #[test]
    fn disarm_prevents_firing() {
        let g = Governor::new(None);
        g.arm_fault("*", 1);
        g.disarm_fault();
        assert!(g.probe("x").is_ok());
    }
}
