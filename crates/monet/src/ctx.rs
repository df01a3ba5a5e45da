//! Execution context: pager, memory ledger, oid generation, and the
//! resource governor.
//!
//! Every BAT-algebra operator takes an [`ExecCtx`]. The default context is
//! entirely passive (no pager, no budget) and adds no measurable overhead;
//! the figure binaries `fig8_cost_model`, `fig9_tpcd` and
//! `fig10_q13_trace` install a pager to produce the page-fault columns of
//! Figures 8–10 (the per-statement rows are the interpreter's
//! `mil::StmtTrace`, filled on every context), and the query service arms
//! per-statement deadlines and memory budgets on the same context.
//! Its memory ledger ([`MemTracker`]) charges an intermediate allocation
//! once and releases it when its `Arc` has no holder left.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use crate::sync::Mutex;

use crate::accel::datavector::Lookup;
use crate::atom::Oid;
use crate::bat::Bat;
use crate::column::{Column, ColumnId, ColumnIdentity, WordHasher};
use crate::config::EngineConfig;
use crate::error::{MonetError, Result};
use crate::gov::{CancelToken, Governor};
use crate::ops::group::Grouping;
use crate::pager::Pager;
use crate::props::Enc;

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

/// A ledger key: a column allocation — its storage id and layout (a
/// [`Column::decoded`] twin keeps its source's id, not its bytes; every
/// view of one allocation, a zero-copy slice included, has its key) — or
/// a raw string column's byte heap, which its gathers share, by address
/// (which no other heap takes while the ledger's weak handle on it lives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LedgerKey {
    Column(ColumnId, Enc),
    Heap(usize),
}

fn key(col: &Column) -> LedgerKey {
    LedgerKey::Column(col.storage_id(), col.encoding())
}

fn heap_key(heap: &Arc<crate::buf::Buf<u8>>) -> LedgerKey {
    LedgerKey::Heap(Arc::as_ptr(heap) as usize)
}

/// A weak handle on a column's storage (see [`Column::storage`]).
type Storage = Weak<dyn Send + Sync>;

/// The one account of intermediate bytes (see [`MemTracker`]): each
/// charged allocation's bytes and storage, whether one was charged since
/// the last sweep, the live bytes (`cols` plus the memo's arrays) with
/// their peaks since `begin` and since `reset`, and the total charged
/// since `reset`.
#[derive(Debug, Default)]
struct Ledger {
    cols: HashMap<LedgerKey, (u64, Storage), BuildHasherDefault<WordHasher>>,
    fresh: bool,
    live: u64,
    peak: u64,
    max_live: u64,
    total: u64,
}

impl Ledger {
    fn raise(&mut self, bytes: u64) -> u64 {
        self.live += bytes;
        self.peak = self.peak.max(self.live);
        self.max_live = self.max_live.max(self.live);
        self.live
    }
}

/// Memory accounting and enforcement: one **ledger** of the intermediate
/// columns, keyed by allocation. [`ExecCtx::record`] charges a result
/// column's allocation once — unless the ledger knows it or an operand
/// (or an operand's datavector) carries it, so a zero-copy view charges
/// nothing — to the live set the **budget** bounds. The allocation's `Arc`
/// is its holder count: [`MemTracker::sweep`] releases every entry whose
/// storage nothing references any more. `charged_bytes`, `charged_peak`
/// (since `begin`), `max_live_bytes` (since `reset`; Figure 9's "max
/// (MB)") and `total_bytes` read it.
#[derive(Debug, Default)]
pub struct MemTracker {
    ledger: Mutex<Ledger>,
    /// Enforced budget in bytes; 0 = unlimited.
    budget_bytes: AtomicU64,
    /// Cumulative bytes written to out-of-core spill files
    /// ([`crate::spill`]). Observational, like `total_bytes`: spilled
    /// pairs are on disk precisely so they do *not* count against the
    /// in-memory budget.
    spilled_bytes: AtomicU64,
}

impl MemTracker {
    /// Bytes of every intermediate column charged since the last reset.
    pub fn total_bytes(&self) -> u64 {
        self.ledger.lock().total
    }

    /// High-water mark of the charged live set since the last reset.
    pub fn max_live_bytes(&self) -> u64 {
        self.ledger.lock().max_live
    }

    pub fn reset(&self) {
        *self.ledger.lock() = Ledger::default();
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

    /// Start one MIL program's account: the ledger empties and its peak
    /// restarts at zero.
    pub fn begin(&self) {
        let mut l = self.ledger.lock();
        l.cols.clear();
        (l.live, l.peak) = (0, 0);
    }

    /// Release every allocation nothing references any more. Skipped when
    /// nothing was charged since the last sweep and the caller `dropped`
    /// no reference. Not part of any read: the cost model reads
    /// `charged_bytes` at every dispatch.
    pub(crate) fn sweep(&self, dropped: bool) {
        let mut guard = self.ledger.lock();
        let l = &mut *guard;
        if !(dropped || l.fresh) {
            return;
        }
        let mut freed = 0;
        l.cols.retain(|_, (bytes, storage)| {
            let live = storage.strong_count() > 0;
            freed += if live { 0 } else { *bytes };
            live
        });
        l.live = l.live.saturating_sub(freed);
        l.fresh = false;
    }

    /// Charge `bytes` of no column (the memo's arrays) on behalf of `op`.
    /// The charge sticks even on failure (the allocation happened).
    pub fn charge(&self, op: &'static str, bytes: u64) -> Result<()> {
        let live = self.ledger.lock().raise(bytes);
        self.check(op, live)
    }

    /// Fail on behalf of `op` when `live` passes the budget.
    fn check(&self, op: &'static str, live: u64) -> Result<()> {
        let budget = self.budget_bytes.load(Ordering::Relaxed);
        if budget != 0 && live > budget {
            return Err(MonetError::BudgetExceeded { op, live_bytes: live, budget_bytes: budget });
        }
        Ok(())
    }

    /// Return a previous [`MemTracker::charge`].
    pub fn release(&self, bytes: u64) {
        // Saturating: an unmatched release must not wrap the live counter.
        let mut l = self.ledger.lock();
        l.live = l.live.saturating_sub(bytes);
    }

    /// Currently charged (live) bytes.
    pub fn charged_bytes(&self) -> u64 {
        self.ledger.lock().live
    }

    /// High-water mark of the charged live set since [`MemTracker::begin`].
    pub fn charged_peak(&self) -> u64 {
        self.ledger.lock().peak
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

/// A derived structure worth keeping while its key column lives.
#[derive(Debug, Clone)]
pub(crate) enum Memoized {
    Lookup(Lookup),
    Grouping(Grouping),
}

impl Memoized {
    /// Bytes of the entry's arrays (a LOOKUP's head is a ledger column).
    fn bytes(&self) -> u64 {
        match self {
            Memoized::Lookup(l) => 4 * l.positions.len() as u64,
            Memoized::Grouping(g) => g.bytes(),
        }
    }
}

/// The memo's entries, each with its key column's storage.
type Memo = HashMap<MemoKey, (Memoized, Option<Storage>)>;

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
    /// selection ([`crate::accel::datavector`]), the grouping of a `group`
    /// result or of a `{g}` head ([`crate::ops::group`],
    /// [`crate::ops::set_aggregate`], read by [`crate::ops::unique`] too).
    /// The statements differ syntactically, so CSE cannot merge them; the
    /// column identity can.
    /// Each entry keeps its key column's storage; `mil::execute` drops the
    /// entry when that dies ([`ExecCtx::memo_drop`]) and empties the memo on
    /// every exit path.
    memo: Arc<Mutex<Memo>>,
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
        self.memo.lock().get(&key).map(|(value, _)| value.clone())
    }

    /// Keep `value` while its key column `of` lives: its arrays are
    /// charged (a LOOKUP's head is a column, charged by the `record` of the
    /// result that carries it). A charge past the budget sticks, and the
    /// inserting operator's own `record` reports `BudgetExceeded`.
    pub(crate) fn memo_insert(&self, key: MemoKey, of: &Column, value: Memoized) {
        if let Entry::Vacant(e) = self.memo.lock().entry(key) {
            let _ = self.mem.charge("memo", value.bytes());
            e.insert((value, of.storage()));
        }
    }

    /// Drop the memo entries whose key column died (no later statement can
    /// name it; a LOOKUP head that *is* the probe is no reference to its own
    /// key) — or, with `every`, all of them — and return their arrays' charge.
    pub(crate) fn memo_drop(&self, every: bool) {
        let mut bytes = 0;
        self.memo.lock().retain(|key, (value, of)| {
            let own = matches!((key, &*value), (MemoKey::Lookup(_, probe), Memoized::Lookup(l))
                if l.head.storage_id() == probe.id);
            let keep = !every && of.as_ref().is_none_or(|w| w.strong_count() > usize::from(own));
            bytes += if keep { 0 } else { value.bytes() };
            keep
        });
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
    /// kernel called directly), then charge the allocations of the
    /// result's columns to the ledger (see [`MemTracker`]): one the ledger
    /// already knows, or one an operand carries — a shared head, a
    /// zero-copy slice, an operand's datavector vector — charges nothing.
    /// Fails with [`MonetError::BudgetExceeded`] when the live set passes
    /// the budget; the label is published first, so an aborted kernel
    /// still says which arm it ran.
    pub fn record(
        &self,
        op: &'static str,
        algo: &'static str,
        operands: &[&Bat],
        result: &Bat,
    ) -> Result<()> {
        self.algo.store(label::code(algo), Ordering::Relaxed);
        let carries = |c: &Column, k| match k {
            LedgerKey::Column(..) => key(c) == k,
            LedgerKey::Heap(_) => c.str_heap().is_some_and(|h| heap_key(h) == k),
        };
        let borrowed = |k| {
            operands.iter().any(|o| {
                carries(o.head(), k)
                    || carries(o.tail(), k)
                    || o.accel().datavector.as_ref().is_some_and(|dv| carries(dv.vector(), k))
            })
        };
        let mut l = self.mem.ledger.lock();
        let mut charge = |k, bytes: u64, storage: Option<Storage>| {
            if bytes == 0 || borrowed(k) {
                return;
            }
            // An allocation of bytes is never `void`, so it has storage.
            if let (Entry::Vacant(e), Some(storage)) = (l.cols.entry(k), storage) {
                e.insert((bytes, storage));
                l.raise(bytes);
                l.total += bytes;
                l.fresh = true;
            }
        };
        for col in [result.head(), result.tail()] {
            let heap = col.str_heap();
            let heap_bytes = heap.map_or(0, |h| h.len() as u64);
            charge(key(col), col.bytes() as u64 - heap_bytes, col.storage());
            if let Some(h) = heap {
                let storage: Arc<dyn Send + Sync> = h.clone();
                charge(heap_key(h), heap_bytes, Some(Arc::downgrade(&storage)));
            }
        }
        let live = l.live;
        drop(l);
        self.mem.check(op, live)
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
        // tail is fresh. The total and the budget both count the tail
        // alone: the head is borrowed.
        let ctx = ExecCtx::new();
        let sel = Bat::new(Column::from_oids(vec![3, 5, 8]), Column::void(0, 3));
        let result = Bat::new(sel.head().clone(), Column::from_lngs(vec![30, 50, 80]));
        ctx.mem.begin();
        ctx.record("semijoin", "positional", &[&sel], &result).unwrap();
        assert_eq!(ctx.mem.total_bytes(), result.tail().bytes() as u64);
        assert_eq!(ctx.mem.charged_bytes(), result.tail().bytes() as u64);
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
        let dict = raw.encode();
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
        m.charge("a", 100).unwrap();
        m.release(50);
        m.charge("b", 150).unwrap();
        m.release(200);
        m.charge("c", 20).unwrap();
        assert_eq!(m.max_live_bytes(), 200);
        // A new program's window restarts its own peak, not the reset's.
        m.begin();
        assert_eq!((m.charged_peak(), m.max_live_bytes()), (0, 200));
        m.reset();
        assert_eq!(m.max_live_bytes(), 0);
    }

    #[test]
    fn a_column_held_by_k_bats_is_charged_once_and_released_on_its_last_holder() {
        let ctx = ExecCtx::new();
        let shared = Column::from_oids(vec![3, 5, 8]);
        let col = shared.bytes() as u64;
        // The kernel that allocated it reports it once; k BATs share it.
        ctx.mem.begin();
        let first = Bat::new(shared, Column::void(0, 3));
        ctx.record("select", "unit", &[], &first).unwrap();
        let mut bats: Vec<Bat> =
            (0..3).map(|i| Bat::new(first.head().clone(), Column::void(i, 3))).collect();
        for b in &bats {
            // A sibling sharing the head charges nothing, with or without
            // the first as its operand.
            ctx.record("semijoin", "unit", &[], b).unwrap();
        }
        assert_eq!(ctx.mem.charged_bytes(), col);
        assert_eq!(ctx.mem.total_bytes(), col);
        drop(first);
        ctx.mem.sweep(true);
        assert_eq!(ctx.mem.charged_bytes(), col, "held: the sweep keeps it");
        for i in 0..3 {
            assert_eq!(ctx.mem.charged_bytes(), col, "holder {i} of 3 still live");
            bats.pop();
            ctx.mem.sweep(true);
        }
        assert_eq!(ctx.mem.charged_bytes(), 0, "released with its last holder");
        assert_eq!((ctx.mem.charged_peak(), ctx.mem.max_live_bytes()), (col, col));
        // Nothing holds it: the next sweep releases a fresh charge, even
        // when the caller dropped nothing.
        ctx.record(
            "select",
            "unit",
            &[],
            &Bat::new(Column::from_ints(vec![1; 4]), Column::void(0, 4)),
        )
        .unwrap();
        ctx.mem.sweep(false);
        assert_eq!(ctx.mem.charged_bytes(), 0);
    }

    #[test]
    fn a_zero_copy_view_charges_nothing() {
        use crate::accel::datavector::{Datavector, Extent};
        use crate::atom::AtomValue;
        use crate::props::{ColProps, Props};

        // A binary-search range select over a tail-sorted catalog BAT is a
        // slice of its operand: it allocated nothing, so it charges nothing.
        let ctx = ExecCtx::new();
        ctx.mem.begin();
        let sorted = Bat::with_inferred_props(
            Column::from_oids(vec![7, 3, 9, 1, 4]),
            Column::from_ints(vec![10, 20, 30, 40, 50]),
        );
        let lo = AtomValue::Int(20);
        let hi = AtomValue::Int(40);
        let range = crate::ops::select_range(&ctx, &sorted, Some(&lo), Some(&hi), true, true);
        assert_eq!(ctx.take_algo(), "binary-search");
        assert_eq!(range.unwrap().len(), 3);
        assert_eq!((ctx.mem.charged_bytes(), ctx.mem.total_bytes()), (0, 0));

        // A datavector semijoin with the class extent returns the
        // operand's value vector whole — a catalog column that is neither
        // of the operands' own columns.
        let extent = Extent::new(Column::from_oids(vec![10, 11, 12, 13]));
        let mut price = Bat::new(
            Column::from_oids(vec![13, 11, 12, 10]),
            Column::from_dbls(vec![4.0, 2.0, 3.0, 1.0]),
        );
        price.set_datavector(Arc::new(Datavector::new(
            Arc::clone(&extent),
            Column::from_dbls(vec![1.0, 2.0, 3.0, 4.0]),
        )));
        let key = ColProps { sorted: true, key: true, ..ColProps::NONE };
        let all = Bat::with_props(
            extent.oids().clone(),
            Column::void(0, 4),
            Props::new(key, ColProps::NONE),
        );
        let prices = crate::ops::semijoin(&ctx, &price, &all).unwrap();
        assert_eq!(ctx.take_algo(), "datavector");
        assert_eq!(prices.tail().as_dbl_slice().unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((ctx.mem.charged_bytes(), ctx.mem.total_bytes()), (0, 0));
    }

    #[test]
    fn a_decoded_twin_is_charged_apart_from_its_source() {
        // `Column::decoded` keeps its source's identity but holds the raw
        // bytes: a result built that way is new, not borrowed.
        let ctx = ExecCtx::new();
        let dict = Column::from_strs(vec!["Clerk#000000042"; 64]).encode();
        assert_eq!(dict.encoding(), crate::props::Enc::Dict);
        let raw = dict.decoded();
        assert_eq!(raw.identity(), dict.identity());
        let src = Bat::new(Column::void(0, 64), dict.clone());
        ctx.record("select", "dict-code", &[], &src).unwrap();
        let out = Bat::new(Column::void(0, 64), raw.clone());
        ctx.record("decode", "unit", &[&src], &out).unwrap();
        let both = (dict.bytes() + raw.bytes()) as u64;
        assert_eq!((ctx.mem.charged_bytes(), ctx.mem.total_bytes()), (both, both));
    }

    #[test]
    fn a_gathered_string_column_charges_its_arrays_not_the_shared_heap() {
        // A gather of a string column rebuilds its offset and length
        // arrays and shares the byte heap: the heap is charged once, by its
        // own identity, and every gather after it charges its arrays alone.
        let ctx = ExecCtx::new();
        ctx.mem.begin();
        let names = Column::from_strs((0..100).map(|i| format!("Customer#{i:09}")));
        let heap = names.str_heap().unwrap().len() as u64;
        let arrays = |c: &Column| (c.bytes() as u64) - heap;
        let catalog = Bat::new(Column::void(0, 100), names);
        let picked = Bat::new(Column::void(0, 3), catalog.tail().gather(&[7, 3, 9]));
        // An operand carries the heap: the result allocated its arrays only.
        ctx.record("join", "unit", &[&catalog], &picked).unwrap();
        assert_eq!(ctx.mem.total_bytes(), arrays(picked.tail()));
        // No operand carries it and the ledger does not know it: charged
        // once, with the first result that carries it ...
        let ctx = ExecCtx::new();
        ctx.mem.begin();
        ctx.record("join", "unit", &[], &picked).unwrap();
        assert_eq!(ctx.mem.total_bytes(), arrays(picked.tail()) + heap);
        // ... and never again, whichever gather carries it next.
        let again = Bat::new(Column::void(0, 2), picked.tail().gather(&[0, 2]));
        ctx.record("semijoin", "unit", &[], &again).unwrap();
        let all = arrays(picked.tail()) + arrays(again.tail()) + heap;
        assert_eq!((ctx.mem.total_bytes(), ctx.mem.charged_bytes()), (all, all));
        // The heap is released with its last holder, the arrays with theirs.
        drop((catalog, picked));
        ctx.mem.sweep(true);
        assert_eq!(ctx.mem.charged_bytes(), arrays(again.tail()) + heap);
        drop(again);
        ctx.mem.sweep(true);
        assert_eq!(ctx.mem.charged_bytes(), 0);
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
