//! Execution context: pager, memory accounting, oid generation, and the
//! resource governor.
//!
//! Every BAT-algebra operator takes an [`ExecCtx`]. The default context is
//! entirely passive (no pager, no budget) and adds no measurable overhead;
//! the benchmark harnesses install a pager to produce the page-fault
//! columns of Figures 8–10 (the per-statement rows are the interpreter's
//! `mil::StmtTrace`, filled on every context), and the query service arms
//! per-statement deadlines and memory budgets on the same context.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::sync::Mutex;

use crate::accel::datavector::Lookup;
use crate::atom::Oid;
use crate::bat::Bat;
use crate::column::ColumnIdentity;
use crate::config::EngineConfig;
use crate::error::{MonetError, Result};
use crate::gov::{CancelToken, Governor};
use crate::ops::group::Grouping;
use crate::pager::Pager;

/// Kernel labels (`record`'s `algo`) interned process-wide, so that one
/// atomic word on the context carries the last one lock-free. A label's
/// code is its slot plus one; 0 is "no label" (and what a full table,
/// which 256 slots for a few dozen literals never is, degrades to).
mod label {
    use super::OnceLock;

    const SLOTS: usize = 256;
    static TABLE: [OnceLock<&'static str>; SLOTS] = [const { OnceLock::new() }; SLOTS];

    pub(super) fn code(label: &'static str) -> usize {
        let start = crate::column::fnv1a(label.as_bytes()) as usize % SLOTS;
        (0..SLOTS)
            .map(|k| (start + k) % SLOTS)
            .find(|&i| *TABLE[i].get_or_init(|| label) == label)
            .map_or(0, |i| i + 1)
    }

    pub(super) fn of(code: usize) -> &'static str {
        code.checked_sub(1).and_then(|i| TABLE[i].get()).copied().unwrap_or("")
    }
}

/// Memory accounting and enforcement.
///
/// Two roles: (1) the observational "total / max (MB)" columns of Figure 9
/// (`total_bytes`; `max_live_bytes`, the MIL interpreter's high-water mark
/// of the live *intermediates* — catalog BATs a program loads and mirrors
/// of live values count nothing), and (2) the **governor's byte budget** — every
/// tracked allocation goes through [`MemTracker::charge`], which fails with
/// [`MonetError::BudgetExceeded`] once the charged live set passes the
/// budget. The interpreter releases a value's charge when liveness frees
/// it, so the budget bounds the *live* intermediate set, not the total.
#[derive(Debug, Default)]
pub struct MemTracker {
    /// Sum of all intermediate-result bytes materialized so far.
    total_bytes: AtomicU64,
    /// High-water mark of the live intermediates, maintained by the MIL
    /// interpreter (counted as the budget charges them).
    max_live_bytes: AtomicU64,
    /// Charged-but-not-released bytes (the governor's live set).
    charged: AtomicU64,
    /// High-water mark of `charged` since the last [`MemTracker::begin`].
    charged_peak: AtomicU64,
    /// Enforced budget in bytes; 0 = unlimited.
    budget_bytes: AtomicU64,
    /// Cumulative bytes written to out-of-core spill files
    /// ([`crate::spill`]). Observational, like `total_bytes`: spilled
    /// pairs are on disk precisely so they do *not* count against the
    /// in-memory budget.
    spilled_bytes: AtomicU64,
}

impl MemTracker {
    pub fn add_total(&self, bytes: u64) {
        self.total_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn observe_live(&self, bytes: u64) {
        self.max_live_bytes.fetch_max(bytes, Ordering::Relaxed);
    }

    pub fn total_bytes(&self) -> u64 {
        self.total_bytes.load(Ordering::Relaxed)
    }

    pub fn max_live_bytes(&self) -> u64 {
        self.max_live_bytes.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.total_bytes.store(0, Ordering::Relaxed);
        self.max_live_bytes.store(0, Ordering::Relaxed);
        self.charged.store(0, Ordering::Relaxed);
        self.charged_peak.store(0, Ordering::Relaxed);
        self.spilled_bytes.store(0, Ordering::Relaxed);
    }

    /// Account bytes written to an out-of-core spill file.
    pub fn add_spilled(&self, bytes: u64) {
        self.spilled_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Cumulative spill-file bytes written through this tracker.
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes.load(Ordering::Relaxed)
    }

    /// Set (or lift, with `None`/0) the per-query byte budget. Sessions use
    /// this to override their configuration's `mem_budget`.
    pub fn set_budget(&self, bytes: Option<u64>) {
        self.budget_bytes.store(bytes.unwrap_or(0), Ordering::Relaxed);
    }

    /// Enforced budget in bytes; 0 = unlimited.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes.load(Ordering::Relaxed)
    }

    /// Start a fresh charge window (one MIL program): the live charge and
    /// its peak restart at zero.
    pub fn begin(&self) {
        self.charged.store(0, Ordering::Relaxed);
        self.charged_peak.store(0, Ordering::Relaxed);
    }

    /// Charge `bytes` against the budget on behalf of `op`. The charge
    /// sticks even on failure (the allocation already happened); the
    /// interpreter's liveness frees release it either way.
    pub fn charge(&self, op: &'static str, bytes: u64) -> Result<()> {
        let live = self.charged.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.charged_peak.fetch_max(live, Ordering::Relaxed);
        let budget = self.budget_bytes.load(Ordering::Relaxed);
        if budget != 0 && live > budget {
            return Err(MonetError::BudgetExceeded { op, live_bytes: live, budget_bytes: budget });
        }
        Ok(())
    }

    /// Return a previous charge (the value was freed).
    pub fn release(&self, bytes: u64) {
        // Saturating: an unmatched release must not wrap the live counter.
        let _ = self
            .charged
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(bytes)));
    }

    /// Currently charged (live) bytes.
    pub fn charged_bytes(&self) -> u64 {
        self.charged.load(Ordering::Relaxed)
    }

    /// High-water mark of the charged live set since [`MemTracker::begin`].
    pub fn charged_peak(&self) -> u64 {
        self.charged_peak.load(Ordering::Relaxed)
    }
}

/// What a memo entry was derived from — always column *identities*, which
/// never recur with different contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum MemoKey {
    /// LOOKUP of a right operand's head (second) in a class extent (first).
    Lookup(ColumnIdentity, ColumnIdentity),
    /// First-occurrence grouping of a column.
    Grouping(ColumnIdentity),
}

/// A derived structure worth keeping for the rest of the execution.
#[derive(Debug, Clone)]
pub(crate) enum Memoized {
    Lookup(Lookup),
    Grouping(Grouping),
}

impl Memoized {
    /// Bytes the entry keeps alive beyond what results already hold (a
    /// LOOKUP's gathered head is the head column of its semijoin results).
    fn bytes(&self) -> u64 {
        4 * match self {
            Memoized::Lookup(l) => l.positions.len(),
            Memoized::Grouping(g) => g.gid_of.len() + g.reps.len(),
        } as u64
    }
}

/// Shared execution context.
#[derive(Clone)]
pub struct ExecCtx {
    /// The configuration every kernel, cost-model rule and planner call
    /// made on behalf of this context reads its knobs from.
    cfg: Arc<EngineConfig>,
    /// Simulated pager; `None` disables fault accounting.
    pub pager: Option<Arc<Pager>>,
    /// The label of the last kernel `record`ed, as a `label` code; the
    /// interpreter takes it after every statement.
    algo: Arc<AtomicUsize>,
    /// Memory accounting and budget enforcement (always on).
    pub mem: Arc<MemTracker>,
    /// Resource governor: cancellation, deadline, fault injection.
    pub gov: Arc<Governor>,
    /// Generator for fresh oids (`unique_oid(..)` of the `group` operator).
    oid_gen: Arc<AtomicU64>,
    /// The per-execution memo: structures several statements of one
    /// program derive from the *same* column — the LOOKUP array of a
    /// selection ([`crate::accel::datavector`]), the grouping of a `{g}`
    /// head ([`crate::ops::set_aggregate`]). The statements differ
    /// syntactically, so CSE cannot merge them; the column identity can.
    /// `mil::execute` empties it on every exit path.
    memo: Arc<Mutex<HashMap<MemoKey, Memoized>>>,
}

impl Default for ExecCtx {
    fn default() -> ExecCtx {
        ExecCtx::new()
    }
}

/// Fresh oids start far above any base-data oid so that generated group
/// identifiers never collide with stored object identifiers.
const FRESH_OID_BASE: Oid = 1 << 40;

impl ExecCtx {
    /// A passive context (no pager) under the process
    /// environment's configuration ([`EngineConfig::from_env`]).
    pub fn new() -> ExecCtx {
        ExecCtx::with_config(EngineConfig::from_env())
    }

    /// A passive context under `cfg`: its `mem_budget` seeds the memory
    /// budget and its `fault` arms the governor's injector.
    pub fn with_config(cfg: Arc<EngineConfig>) -> ExecCtx {
        let mem = MemTracker::default();
        mem.set_budget(Some(cfg.mem_budget));
        ExecCtx {
            pager: None,
            algo: Arc::default(),
            mem: Arc::new(mem),
            gov: Arc::new(Governor::new(cfg.fault.as_ref())),
            oid_gen: Arc::new(AtomicU64::new(FRESH_OID_BASE)),
            memo: Arc::default(),
            cfg,
        }
    }

    /// The configuration this context runs under.
    pub fn config(&self) -> &Arc<EngineConfig> {
        &self.cfg
    }

    /// The memoized structure under `key`, if this execution derived it.
    pub(crate) fn memo_get(&self, key: MemoKey) -> Option<Memoized> {
        self.memo.lock().get(&key).cloned()
    }

    /// Keep `value` for the rest of the execution. Its bytes are charged to
    /// the budget like any live intermediate; the charge sticks when it
    /// passes the budget, so the inserting operator's own `record` is what
    /// reports `BudgetExceeded`.
    pub(crate) fn memo_insert(&self, key: MemoKey, value: Memoized) {
        let bytes = value.bytes();
        if self.memo.lock().insert(key, value).is_none() {
            let _ = self.mem.charge("memo", bytes);
        }
    }

    /// Drop every memo entry and release its charge (`mil::execute` calls
    /// this on entry and on every exit path).
    pub(crate) fn memo_clear(&self) {
        let bytes = self.memo.lock().drain().map(|(_, v)| v.bytes()).sum();
        self.mem.release(bytes);
    }

    /// One governor probe (cancellation / deadline / fault-injection
    /// point). See [`Governor::probe`].
    #[inline]
    pub fn probe(&self, site: &'static str) -> Result<()> {
        self.gov.probe(site)
    }

    /// A cancellation handle for this context; usable from any thread.
    pub fn cancel_token(&self) -> CancelToken {
        self.gov.cancel_token()
    }

    /// Attach a pager.
    pub fn with_pager(mut self, pager: Arc<Pager>) -> ExecCtx {
        self.pager = Some(pager);
        self
    }

    /// No-op: every context reports each kernel's label
    /// ([`ExecCtx::take_algo`]) and each statement's profile
    /// (`mil::StmtTrace`). Kept because the acceptance benchmark
    /// (`benchmark/src/run.rs`) calls it.
    pub fn with_trace(self) -> ExecCtx {
        self
    }

    /// No-op counterpart of [`ExecCtx::with_trace`], kept for the same
    /// caller; read [`ExecCtx::take_algo`] after each kernel call instead.
    pub fn take_trace(&self) {}

    /// The algorithm label of the last kernel [`record`](ExecCtx::record)ed
    /// since the previous call (`""` if none), clearing it. The label is
    /// published before the budget charge, so after a kernel fails with
    /// [`MonetError::BudgetExceeded`] it names the arm that aborted.
    pub fn take_algo(&self) -> &'static str {
        label::of(self.algo.swap(0, Ordering::Relaxed))
    }

    /// Reserve `n` fresh consecutive oids, returning the first.
    pub fn fresh_oids(&self, n: usize) -> Oid {
        self.oid_gen.fetch_add(n as u64, Ordering::Relaxed)
    }

    /// Current fault count (0 without a pager).
    pub fn faults(&self) -> u64 {
        self.pager.as_ref().map_or(0, |p| p.faults())
    }

    /// Record a completed operation: publish its algorithm label (the
    /// running statement's `StmtTrace.algo`, [`ExecCtx::take_algo`] for a
    /// kernel called directly), account its memory and charge the
    /// governor's budget. Fails with [`MonetError::BudgetExceeded`] when
    /// the charge passes the budget; the label is published first, so an
    /// aborted kernel still says which arm it ran.
    ///
    /// The budget is charged the result's whole size (the interpreter
    /// releases the same amount when the value dies); the observational
    /// total counts what the kernel *allocated*: a result column that is
    /// one of the `operands`' columns — a shared head, a zero-copy tail —
    /// adds nothing to it.
    pub fn record(
        &self,
        op: &'static str,
        algo: &'static str,
        operands: &[&Bat],
        result: &Bat,
    ) -> Result<()> {
        let allocated: usize = [result.head(), result.tail()]
            .into_iter()
            .filter(|col| {
                let id = col.identity();
                !operands.iter().any(|o| o.head().identity() == id || o.tail().identity() == id)
            })
            .map(|col| col.bytes())
            .sum();
        self.mem.add_total(allocated as u64);
        self.algo.store(label::code(algo), Ordering::Relaxed);
        self.mem.charge(op, result.bytes() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    #[test]
    fn fresh_oids_are_disjoint() {
        let ctx = ExecCtx::new();
        let a = ctx.fresh_oids(10);
        let b = ctx.fresh_oids(5);
        assert!(b >= a + 10);
        assert!(a >= FRESH_OID_BASE);
    }

    #[test]
    fn record_accumulates_total_and_trace() {
        let ctx = ExecCtx::new();
        let bat = Bat::new(Column::void(0, 8), Column::from_ints(vec![1; 8]));
        ctx.record("test", "unit", &[], &bat).unwrap();
        assert_eq!(ctx.mem.total_bytes(), bat.bytes() as u64);
        assert_eq!(ctx.mem.charged_bytes(), bat.bytes() as u64);
        assert_eq!(ctx.take_algo(), "unit");
    }

    #[test]
    fn record_totals_only_the_columns_the_kernel_allocated() {
        // A semijoin-shaped result: the head is the operand's column, the
        // tail is fresh. The total counts the tail alone; the budget charge
        // still sees the whole result.
        let ctx = ExecCtx::new();
        let sel = Bat::new(Column::from_oids(vec![3, 5, 8]), Column::void(0, 3));
        let result = Bat::new(sel.head().clone(), Column::from_lngs(vec![30, 50, 80]));
        ctx.mem.begin();
        ctx.record("semijoin", "positional", &[&sel], &result).unwrap();
        assert_eq!(ctx.mem.total_bytes(), result.tail().bytes() as u64);
        assert_eq!(ctx.mem.charged_bytes(), result.bytes() as u64);
        // A mirrored share counts as shared too; equal *contents* do not.
        let copy = Bat::new(Column::from_oids(vec![3, 5, 8]), sel.head().clone());
        let before = ctx.mem.total_bytes();
        ctx.record("test", "unit", &[&sel], &copy).unwrap();
        assert_eq!(ctx.mem.total_bytes() - before, copy.head().bytes() as u64);
    }

    #[test]
    fn record_charges_physical_dict_bytes() {
        // Regression: `record` must charge the *physical* (encoded) size of
        // a dictionary column — u32 codes plus the deduplicated dictionary —
        // not the decoded string footprint.
        let ctx = ExecCtx::new();
        let s = "Clerk#000000000000000042";
        let raw = Column::from_strs(vec![s; 64]);
        let dict = raw.encode(false);
        assert_eq!(dict.encoding(), crate::props::Enc::Dict);
        // One u8 code per row (a single-entry dictionary fits 1-byte codes)
        // + one 4-byte dictionary offset + the single 24-byte entry. Pinned
        // so a layout change shows up here.
        assert_eq!(dict.bytes(), 64 + 4 + s.len());
        assert!(dict.bytes() < raw.bytes(), "encoding must shrink the column");
        let bat = Bat::new(Column::void(0, 64), dict);
        ctx.mem.begin();
        ctx.record("select", "dict-code", &[], &bat).unwrap();
        assert_eq!(ctx.mem.charged_bytes(), bat.bytes() as u64);
        // The raw twin would have charged the full duplicated heap.
        assert!(ctx.mem.charged_bytes() < raw.bytes() as u64);
    }

    #[test]
    fn record_publishes_its_label_without_a_trace_sink() {
        let ctx = ExecCtx::new();
        assert_eq!(ctx.take_algo(), "");
        let bat = Bat::new(Column::void(0, 2), Column::from_ints(vec![1, 2]));
        for algo in ["merge", "hash", "merge"] {
            ctx.record("test", algo, &[], &bat).unwrap();
            assert_eq!(ctx.take_algo(), algo);
            assert_eq!(ctx.take_algo(), "", "taking clears it");
        }
        // A label is found by its text, whichever literal carries it.
        let owned: &'static str = String::from("merge").leak();
        assert_eq!(label::code(owned), label::code("merge"));
        assert_ne!(label::code("hash"), label::code("merge"));
    }

    #[test]
    fn mem_tracker_high_water() {
        let m = MemTracker::default();
        m.observe_live(100);
        m.observe_live(50);
        m.observe_live(200);
        assert_eq!(m.max_live_bytes(), 200);
    }

    #[test]
    fn charge_enforces_the_budget_and_release_frees_headroom() {
        let m = MemTracker::default();
        assert!(m.charge("a", 1 << 30).is_ok(), "no budget: unlimited");
        m.begin();
        m.set_budget(Some(100));
        assert!(m.charge("a", 60).is_ok());
        assert!(m.charge("b", 40).is_ok(), "exactly at budget is fine");
        let err = m.charge("c", 1).unwrap_err();
        assert_eq!(err, MonetError::BudgetExceeded { op: "c", live_bytes: 101, budget_bytes: 100 });
        assert_eq!(m.charged_peak(), 101, "failed charge still counted (alloc happened)");
        // Liveness frees return headroom; the query-local peak survives.
        m.release(101);
        assert_eq!(m.charged_bytes(), 0);
        assert!(m.charge("d", 100).is_ok());
        // Lifting the budget makes the same charge pattern succeed.
        m.begin();
        m.set_budget(None);
        assert!(m.charge("e", 1 << 40).is_ok());
    }

    #[test]
    fn release_saturates_instead_of_wrapping() {
        let m = MemTracker::default();
        m.charge("a", 10).unwrap();
        m.release(1000);
        assert_eq!(m.charged_bytes(), 0);
    }

    #[test]
    fn begin_resets_the_charge_window() {
        let m = MemTracker::default();
        m.set_budget(Some(100));
        m.charge("a", 90).unwrap();
        m.begin();
        assert_eq!(m.charged_bytes(), 0);
        assert_eq!(m.charged_peak(), 0);
        assert!(m.charge("b", 90).is_ok(), "fresh window, fresh headroom");
        assert_eq!(m.budget_bytes(), 100, "begin() keeps the budget");
    }
}
