//! A bounded LRU cache of translated + optimized MIL plans, keyed by
//! query *shape* and the planner's configuration.
//!
//! Every `run_moa` entry point re-translates and re-optimizes its MOA
//! expression (~tens of µs per program). A query service executing the
//! same fifteen prepared statements thousands of times wants that cost
//! paid once. The cache closes the gap without touching any driver code:
//! [`with_plan_cache`] installs a cache on the current thread and
//! [`crate::translate::translate_in`] consults it transparently. (The
//! ambient handle is a *resource* — the server's shared cache — not an
//! option: whether and how large a cache exists is the configuration's
//! `plan_cache`, read by whoever creates one.)
//!
//! **Shape, not text.** Two expressions share a cache entry exactly when
//! they differ only in the *values* of their [`Scalar::Param`] parameters
//! (`prm(id, v)`). Plain literals are part of the shape — a query with a
//! different hard-coded literal is a different plan. On a hit the cached
//! program is cloned and the new parameter values are spliced into the
//! recorded [`monet::mil::ParamLoc`] slots; no translation or optimizer
//! pass runs (the per-thread `opt::cumulative` counters stay flat).
//!
//! **Configuration in the key.** The key holds the [`PlanConfig`] the
//! translation ran under, whole — the planner is handed nothing else, so
//! whatever can shape a plan is keyed by construction and a plan is never
//! served under a different planner configuration. It also includes
//! the catalog's process-unique id and mutation epoch
//! ([`monet::db::Db::id`]/[`epoch`](monet::db::Db::epoch)): any catalog
//! change silently invalidates every plan compiled against the old state.
//!
//! **Safety valves.** Expressions that bind the same parameter id to two
//! different values, and plans where translation folded a parameter into
//! a derived constant ([`Translated::cacheable`] = false), bypass the
//! cache entirely — counted, never cached wrong.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use monet::atom::AtomValue;
use monet::config::PlanConfig;

use crate::algebra::{Expr, Pred, ProjItem, Scalar, SetExpr, SetValued};
use crate::catalog::Catalog;
use crate::error::Result;
use crate::translate::{translate_uncached, Translated};

// ---------------------------------------------------------------------------
// Ambient (thread-scoped) cache installation.
// ---------------------------------------------------------------------------

thread_local! {
    static AMBIENT: RefCell<Option<Arc<PlanCache>>> = const { RefCell::new(None) };
}

/// Run `f` with `cache` installed as this thread's plan cache: every
/// [`crate::translate::translate_in`] call inside `f` goes through it.
/// Restores the previous installation on exit — panic-safe.
pub fn with_plan_cache<R>(cache: Arc<PlanCache>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<PlanCache>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            AMBIENT.with(|c| *c.borrow_mut() = prev);
        }
    }
    let prev = AMBIENT.with(|c| c.replace(Some(cache)));
    let _restore = Restore(prev);
    f()
}

/// The plan cache installed on this thread, if any.
pub fn ambient_plan_cache() -> Option<Arc<PlanCache>> {
    AMBIENT.with(|c| c.borrow().clone())
}

// ---------------------------------------------------------------------------
// The cache.
// ---------------------------------------------------------------------------

/// Cache key: shape text + catalog state + the planner's configuration.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Key {
    /// Canonical shape rendering of the expression (parameters appear as
    /// `?id:type`, literals with their exact values).
    shape: String,
    /// Catalog identity and mutation epoch.
    db_id: u64,
    db_epoch: u64,
    /// Everything the translation could consult besides the two above.
    plan: PlanConfig,
}

struct Entry {
    plan: Arc<Translated>,
    /// Parameter bindings the cached program currently holds.
    bindings: Vec<(u32, AtomValue)>,
    last_used: u64,
}

struct Inner {
    map: HashMap<Key, Entry>,
    tick: u64,
}

/// Counter snapshot (all since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache (zero translate/optimize work).
    pub hits: u64,
    /// Lookups that translated and inserted.
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Translations that skipped the cache (conflicting parameter
    /// bindings, non-cacheable plans, poisoned lock).
    pub bypasses: u64,
    /// Entries currently resident.
    pub len: usize,
}

/// A bounded, thread-safe LRU plan cache. Shared across sessions via
/// `Arc`; installed per-thread with [`with_plan_cache`].
pub struct PlanCache {
    cap: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bypasses: AtomicU64,
}

impl PlanCache {
    /// A cache bounded to `cap` plans (minimum 1).
    pub fn with_capacity(cap: usize) -> Arc<PlanCache> {
        Arc::new(PlanCache {
            cap: cap.max(1),
            inner: Mutex::new(Inner { map: HashMap::new(), tick: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
        })
    }

    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            len: self.inner.lock().map(|g| g.map.len()).unwrap_or(0),
        }
    }

    /// Drop every cached plan (catalog-change invalidation hook; epoch
    /// keying already prevents stale hits, this reclaims the memory).
    pub fn clear(&self) {
        if let Ok(mut g) = self.inner.lock() {
            g.map.clear();
        }
    }

    /// Drop the cached plans compiled against catalog `db_id`.
    pub fn invalidate_db(&self, db_id: u64) {
        if let Ok(mut g) = self.inner.lock() {
            g.map.retain(|k, _| k.db_id != db_id);
        }
    }

    /// Translate `expr` through the cache (the
    /// [`crate::translate::translate_in`] fast path). Hits clone the cached
    /// optimized program and splice the expression's parameter values into
    /// its recorded slots; misses translate under `plan` and insert.
    pub fn translate(
        &self,
        cat: &Catalog,
        expr: &SetExpr,
        plan: &PlanConfig,
    ) -> Result<Translated> {
        let Some(bindings) = collect_bindings(expr) else {
            // One id bound to two different values: re-binding a cached
            // plan could splice either value into either slot. Bypass.
            self.bypasses.fetch_add(1, Ordering::Relaxed);
            return translate_uncached(cat, expr, plan);
        };
        let key = Key {
            shape: shape_of(expr),
            db_id: cat.db().id(),
            db_epoch: cat.db().epoch(),
            plan: *plan,
        };
        if let Some((hit, cached)) = self.lookup(&key) {
            let mut t: Translated = (*hit).clone();
            if !bindings_identical(&cached, &bindings) && !t.prog.splice_params(&bindings) {
                // Slot metadata went stale (would be a translator bug);
                // degrade to a fresh translation rather than run a
                // wrongly-bound plan.
                debug_assert!(false, "cached plan rejected a parameter splice");
                self.bypasses.fetch_add(1, Ordering::Relaxed);
                return translate_uncached(cat, expr, plan);
            }
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(t);
        }
        let t = translate_uncached(cat, expr, plan)?;
        if t.cacheable {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.insert(key, Arc::new(t.clone()), bindings);
        } else {
            self.bypasses.fetch_add(1, Ordering::Relaxed);
        }
        Ok(t)
    }

    fn lookup(&self, key: &Key) -> Option<(Arc<Translated>, Vec<(u32, AtomValue)>)> {
        let mut g = self.inner.lock().ok()?;
        g.tick += 1;
        let tick = g.tick;
        let e = g.map.get_mut(key)?;
        e.last_used = tick;
        Some((e.plan.clone(), e.bindings.clone()))
    }

    fn insert(&self, key: Key, plan: Arc<Translated>, bindings: Vec<(u32, AtomValue)>) {
        let Ok(mut g) = self.inner.lock() else { return };
        g.tick += 1;
        let tick = g.tick;
        if g.map.len() >= self.cap && !g.map.contains_key(&key) {
            // Evict the least-recently-used entry (linear scan: caches are
            // small — tens of plans — and insertions are misses, which
            // already paid a full translate+optimize).
            if let Some(victim) =
                g.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                g.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        g.map.insert(key, Entry { plan, bindings, last_used: tick });
    }
}

// ---------------------------------------------------------------------------
// Shape rendering and parameter binding collection.
// ---------------------------------------------------------------------------

/// Bit-exact atom identity (same contract as the optimizer's CSE:
/// distinguishes -0.0 from 0.0 and NaN payloads — a re-bound value that
/// differs only in float sign still gets spliced).
fn atoms_identical(a: &AtomValue, b: &AtomValue) -> bool {
    use AtomValue as V;
    match (a, b) {
        (V::Void(x), V::Void(y)) | (V::Oid(x), V::Oid(y)) => x == y,
        (V::Bool(x), V::Bool(y)) => x == y,
        (V::Chr(x), V::Chr(y)) => x == y,
        (V::Int(x), V::Int(y)) => x == y,
        (V::Lng(x), V::Lng(y)) => x == y,
        (V::Dbl(x), V::Dbl(y)) => x.to_bits() == y.to_bits(),
        (V::Str(x), V::Str(y)) => x == y,
        (V::Date(x), V::Date(y)) => x == y,
        _ => false,
    }
}

fn bindings_identical(a: &[(u32, AtomValue)], b: &[(u32, AtomValue)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ia, va), (ib, vb))| ia == ib && atoms_identical(va, vb))
}

/// Collect `(id, value)` for every parameter in the expression, first
/// occurrence per id. `None` when one id is bound to two non-identical
/// values (the expression is then not safely re-bindable).
pub fn collect_bindings(expr: &SetExpr) -> Option<Vec<(u32, AtomValue)>> {
    let mut out: Vec<(u32, AtomValue)> = Vec::new();
    let mut ok = true;
    walk_set(expr, &mut |s| {
        if let Scalar::Param { id, value } = s {
            match out.iter().find(|(i, _)| i == id) {
                Some((_, prev)) if !atoms_identical(prev, value) => ok = false,
                Some(_) => {}
                None => out.push((*id, value.clone())),
            }
        }
    });
    ok.then_some(out)
}

/// Apply `f` to every `Scalar` in the expression tree.
fn walk_set(e: &SetExpr, f: &mut impl FnMut(&Scalar)) {
    match e {
        SetExpr::Extent(_) => {}
        SetExpr::Select { input, pred } => {
            walk_set(input, f);
            walk_pred(pred, f);
        }
        SetExpr::Project { input, items } | SetExpr::Nest { input, keys: items } => {
            walk_set(input, f);
            for it in items {
                walk_expr(&it.expr, f);
            }
        }
        SetExpr::Union(a, b) | SetExpr::Diff(a, b) | SetExpr::Intersect(a, b) => {
            walk_set(a, f);
            walk_set(b, f);
        }
        SetExpr::Top { input, by, .. } => {
            walk_set(input, f);
            walk_scalar(by, f);
        }
        SetExpr::JoinEq { left, right, lkey, rkey, .. }
        | SetExpr::SemijoinEq { left, right, lkey, rkey } => {
            walk_set(left, f);
            walk_set(right, f);
            walk_scalar(lkey, f);
            walk_scalar(rkey, f);
        }
        SetExpr::Unnest { input, attr, .. } => {
            walk_set(input, f);
            walk_setv(attr, f);
        }
    }
}

fn walk_pred(p: &Pred, f: &mut impl FnMut(&Scalar)) {
    match p {
        Pred::Cmp(_, l, r) => {
            walk_scalar(l, f);
            walk_scalar(r, f);
        }
        Pred::And(a, b) | Pred::Or(a, b) => {
            walk_pred(a, f);
            walk_pred(b, f);
        }
        Pred::Not(x) => walk_pred(x, f),
    }
}

fn walk_scalar(s: &Scalar, f: &mut impl FnMut(&Scalar)) {
    f(s);
    match s {
        Scalar::Bin(_, l, r) => {
            walk_scalar(l, f);
            walk_scalar(r, f);
        }
        Scalar::Un(_, x) => walk_scalar(x, f),
        Scalar::Agg(_, sv) => walk_setv(sv, f),
        Scalar::Attr(_) | Scalar::This | Scalar::Lit(_) | Scalar::Param { .. } => {}
    }
}

fn walk_setv(sv: &SetValued, f: &mut impl FnMut(&Scalar)) {
    match sv {
        SetValued::Attr(_) => {}
        SetValued::SelectIn(inner, pred) => {
            walk_setv(inner, f);
            walk_pred(pred, f);
        }
        SetValued::ProjectIn(inner, item) => {
            walk_setv(inner, f);
            walk_scalar(item, f);
        }
    }
}

fn walk_expr(e: &Expr, f: &mut impl FnMut(&Scalar)) {
    match e {
        Expr::Scalar(s) => walk_scalar(s, f),
        Expr::SetV(sv) => walk_setv(sv, f),
    }
}

/// Canonical shape rendering: a string that is equal for two expressions
/// exactly when one can be obtained from the other by changing parameter
/// *values* (ids and value types stay part of the shape; plain literals
/// render with their exact values and so stay plan-distinguishing).
pub fn shape_of(e: &SetExpr) -> String {
    let mut s = String::with_capacity(256);
    fmt_set(e, &mut s);
    s
}

fn fmt_set(e: &SetExpr, s: &mut String) {
    match e {
        SetExpr::Extent(c) => {
            let _ = write!(s, "ext({c:?})");
        }
        SetExpr::Select { input, pred } => {
            s.push_str("sel(");
            fmt_set(input, s);
            s.push(';');
            fmt_pred(pred, s);
            s.push(')');
        }
        SetExpr::Project { input, items } => {
            s.push_str("proj(");
            fmt_set(input, s);
            fmt_items(items, s);
            s.push(')');
        }
        SetExpr::Nest { input, keys } => {
            s.push_str("nest(");
            fmt_set(input, s);
            fmt_items(keys, s);
            s.push(')');
        }
        SetExpr::Union(a, b) => fmt_pair("uni", a, b, s),
        SetExpr::Diff(a, b) => fmt_pair("dif", a, b, s),
        SetExpr::Intersect(a, b) => fmt_pair("int", a, b, s),
        SetExpr::Top { input, by, n, desc } => {
            let _ = write!(s, "top[{n},{desc}](");
            fmt_set(input, s);
            s.push(';');
            fmt_scalar(by, s);
            s.push(')');
        }
        SetExpr::JoinEq { left, right, lkey, rkey, lname, rname } => {
            let _ = write!(s, "jeq[{lname:?},{rname:?}](");
            fmt_set(left, s);
            s.push(',');
            fmt_set(right, s);
            s.push(';');
            fmt_scalar(lkey, s);
            s.push(';');
            fmt_scalar(rkey, s);
            s.push(')');
        }
        SetExpr::SemijoinEq { left, right, lkey, rkey } => {
            s.push_str("sjeq(");
            fmt_set(left, s);
            s.push(',');
            fmt_set(right, s);
            s.push(';');
            fmt_scalar(lkey, s);
            s.push(';');
            fmt_scalar(rkey, s);
            s.push(')');
        }
        SetExpr::Unnest { input, attr, oname, mname } => {
            let _ = write!(s, "unn[{oname:?},{mname:?}](");
            fmt_set(input, s);
            s.push(';');
            fmt_setv(attr, s);
            s.push(')');
        }
    }
}

fn fmt_pair(tag: &str, a: &SetExpr, b: &SetExpr, s: &mut String) {
    s.push_str(tag);
    s.push('(');
    fmt_set(a, s);
    s.push(',');
    fmt_set(b, s);
    s.push(')');
}

fn fmt_items(items: &[ProjItem], s: &mut String) {
    for it in items {
        let _ = write!(s, ";{:?}:", it.name);
        match &it.expr {
            Expr::Scalar(sc) => fmt_scalar(sc, s),
            Expr::SetV(sv) => fmt_setv(sv, s),
        }
    }
}

fn fmt_scalar(sc: &Scalar, s: &mut String) {
    match sc {
        Scalar::Attr(path) => {
            let _ = write!(s, "a{path:?}");
        }
        Scalar::This => s.push_str("this"),
        // `{:?}` on AtomValue is value-exact (f64 Debug round-trips) and
        // type-tagged, so literals distinguish plans.
        Scalar::Lit(v) => {
            let _ = write!(s, "lit({v:?})");
        }
        // Parameters: id and value *type* only — the value is rebindable.
        Scalar::Param { id, value } => {
            let _ = write!(s, "prm({id}:{:?})", value.atom_type());
        }
        Scalar::Bin(op, l, r) => {
            let _ = write!(s, "bin[{op:?}](");
            fmt_scalar(l, s);
            s.push(',');
            fmt_scalar(r, s);
            s.push(')');
        }
        Scalar::Un(op, x) => {
            let _ = write!(s, "un[{op:?}](");
            fmt_scalar(x, s);
            s.push(')');
        }
        Scalar::Agg(f, sv) => {
            let _ = write!(s, "agg[{f:?}](");
            fmt_setv(sv, s);
            s.push(')');
        }
    }
}

fn fmt_pred(p: &Pred, s: &mut String) {
    match p {
        Pred::Cmp(op, l, r) => {
            let _ = write!(s, "cmp[{op:?}](");
            fmt_scalar(l, s);
            s.push(',');
            fmt_scalar(r, s);
            s.push(')');
        }
        Pred::And(a, b) => {
            s.push_str("and(");
            fmt_pred(a, s);
            s.push(',');
            fmt_pred(b, s);
            s.push(')');
        }
        Pred::Or(a, b) => {
            s.push_str("or(");
            fmt_pred(a, s);
            s.push(',');
            fmt_pred(b, s);
            s.push(')');
        }
        Pred::Not(x) => {
            s.push_str("not(");
            fmt_pred(x, s);
            s.push(')');
        }
    }
}

fn fmt_setv(sv: &SetValued, s: &mut String) {
    match sv {
        SetValued::Attr(path) => {
            let _ = write!(s, "s{path:?}");
        }
        SetValued::SelectIn(inner, pred) => {
            s.push_str("selin(");
            fmt_setv(inner, s);
            s.push(';');
            fmt_pred(pred, s);
            s.push(')');
        }
        SetValued::ProjectIn(inner, item) => {
            s.push_str("projin(");
            fmt_setv(inner, s);
            s.push(';');
            fmt_scalar(item, s);
            s.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{and, attr, cmp, eq, lit_d, prm};
    use crate::testkit::mini_catalog;
    use monet::atom::AtomValue;
    use monet::mil::opt::OptLevel;
    use monet::ops::ScalarFunc;

    fn q(cut: f64) -> SetExpr {
        SetExpr::extent("Item").select(and(
            eq(attr("returnflag"), prm(1, AtomValue::Chr(b'R'))),
            cmp(ScalarFunc::Le, attr("extendedprice"), prm(2, AtomValue::Dbl(cut))),
        ))
    }

    #[test]
    fn shape_ignores_param_values_but_not_literals() {
        assert_eq!(shape_of(&q(5.0)), shape_of(&q(9.0)));
        let a = SetExpr::extent("Item").select(eq(attr("extendedprice"), lit_d(5.0)));
        let b = SetExpr::extent("Item").select(eq(attr("extendedprice"), lit_d(9.0)));
        assert_ne!(shape_of(&a), shape_of(&b));
        // Param type changes the shape.
        let c =
            SetExpr::extent("Item").select(eq(attr("extendedprice"), prm(2, AtomValue::Lng(5))));
        let d =
            SetExpr::extent("Item").select(eq(attr("extendedprice"), prm(2, AtomValue::Int(5))));
        assert_ne!(shape_of(&c), shape_of(&d));
    }

    #[test]
    fn bindings_collect_and_conflict() {
        let b = collect_bindings(&q(7.0)).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b[1], (2, AtomValue::Dbl(7.0)));
        // Same id, two values: not re-bindable.
        let bad = SetExpr::extent("Item").select(and(
            eq(attr("discount"), prm(1, AtomValue::Dbl(1.0))),
            eq(attr("extendedprice"), prm(1, AtomValue::Dbl(2.0))),
        ));
        assert!(collect_bindings(&bad).is_none());
    }

    #[test]
    fn hit_rebinds_parameters() {
        let cat = mini_catalog();
        let cache = PlanCache::with_capacity(8);
        let t1 = cache.translate(&cat, &q(100.0), &PlanConfig::default()).unwrap();
        let t2 = cache.translate(&cat, &q(200.0), &PlanConfig::default()).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        // The re-bound program differs only in the spliced constant.
        assert_eq!(t1.prog.len(), t2.prog.len());
        let b1 = t1.prog.param_bindings();
        let b2 = t2.prog.param_bindings();
        assert!(b1.iter().any(|(id, v)| *id == 2 && *v == AtomValue::Dbl(100.0)));
        assert!(b2.iter().any(|(id, v)| *id == 2 && *v == AtomValue::Dbl(200.0)));
    }

    #[test]
    fn every_plan_config_field_and_the_catalog_are_part_of_the_key() {
        let cat = mini_catalog();
        let cache = PlanCache::with_capacity(16);
        let _ = cache.translate(&cat, &q(1.0), &PlanConfig::default()).unwrap();
        // Destructured without `..`: a new `PlanConfig` field fails to
        // compile here until a flip of it is added below.
        let full = PlanConfig::default();
        let PlanConfig { opt, explain, fuse } = full;
        assert_eq!(opt, OptLevel::Full);
        let flips = [
            PlanConfig { opt: OptLevel::Off, ..full },
            PlanConfig { explain: !explain, ..full },
            PlanConfig { fuse: !fuse, ..full },
        ];
        for (i, flipped) in flips.iter().enumerate() {
            // Each field alone: a distinct entry (miss), never a wrong hit.
            let _ = cache.translate(&cat, &q(1.0), flipped).unwrap();
            let s = cache.stats();
            assert_eq!((s.hits, s.misses), (0, 2 + i as u64), "{flipped:?}");
        }
        // A different catalog (fresh `Db` id) is a miss too; the original
        // key still hits.
        let _ = cache.translate(&mini_catalog(), &q(1.0), &PlanConfig::default()).unwrap();
        let _ = cache.translate(&cat, &q(1.0), &PlanConfig::default()).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 5));
    }

    #[test]
    fn failed_translation_leaves_no_partial_entry() {
        let cat = mini_catalog();
        let cache = PlanCache::with_capacity(8);
        let bad = SetExpr::extent("Item").select(eq(attr("no_such_attr"), lit_d(1.0)));
        assert!(cache.translate(&cat, &bad, &PlanConfig::default()).is_err());
        let s = cache.stats();
        assert_eq!((s.len, s.misses, s.hits), (0, 0, 0), "a failed translate must insert nothing");
        // The cache still works, and the failing shape keeps failing
        // deterministically — it never turns into a bogus hit.
        let _ = cache.translate(&cat, &q(1.0), &PlanConfig::default()).unwrap();
        assert!(cache.translate(&cat, &bad, &PlanConfig::default()).is_err());
        let s = cache.stats();
        assert_eq!((s.len, s.misses, s.hits), (1, 1, 0));
    }

    #[test]
    fn lru_evicts_at_capacity() {
        let cat = mini_catalog();
        let cache = PlanCache::with_capacity(1);
        let _ = cache.translate(&cat, &q(1.0), &PlanConfig::default()).unwrap();
        let other = SetExpr::extent("Item").select(eq(attr("extendedprice"), lit_d(5.0)));
        let _ = cache.translate(&cat, &other, &PlanConfig::default()).unwrap();
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.len, 1);
        // The first shape was evicted: translating it again is a miss.
        let _ = cache.translate(&cat, &q(1.0), &PlanConfig::default()).unwrap();
        assert_eq!(cache.stats().misses, 3);
    }
}
