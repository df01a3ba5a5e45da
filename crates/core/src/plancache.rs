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
//! different hard-coded literal is a different plan. One walk over the
//! expression yields its structural hash (the key) and its parameter
//! bindings; a hit is confirmed by walking it again against the entry's
//! [`Shape`], so two shapes whose hashes collide are told apart, never
//! served each other's plan.
//!
//! **A hit never copies a plan.** The cache holds one optimized program
//! per shape, shared through an `Arc`; a hit hands it out with the
//! expression's parameter values beside it, as the overlay of a
//! [`monet::mil::BoundProgram`] that the interpreter applies to the
//! parameter-slotted statements ([`monet::mil::ParamLoc`]) as it runs
//! them. No translation or optimizer pass runs (the per-thread
//! `opt::cumulative` counters stay flat) and the shared program's
//! constants stay those of the expression that inserted it.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use monet::atom::AtomValue;
use monet::config::PlanConfig;
use monet::mil::BoundProgram;

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

/// Cache key: the shape's structural hash + catalog state + the planner's
/// configuration. Shapes whose hashes collide share the key's bucket and
/// are told apart there by [`Shape::matches`].
#[derive(Clone, PartialEq, Eq, Hash)]
struct Key {
    shape_hash: u64,
    /// Catalog identity and mutation epoch.
    db_id: u64,
    db_epoch: u64,
    /// Everything the translation could consult besides the two above.
    plan: PlanConfig,
}

struct Entry {
    /// What a hit is confirmed against.
    shape: Shape,
    /// The translation, bound to the constants of the expression that
    /// inserted it — the one program every hit on this shape shares.
    plan: Translated,
    /// Those constants, as [`collect_bindings`] gives them.
    bindings: Vec<(u32, AtomValue)>,
    last_used: u64,
}

struct Inner {
    map: HashMap<Key, Vec<Entry>>,
    /// Entries over all buckets.
    len: usize,
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
    /// Turns a shape's structural hash into the key's: the identity, but
    /// for the test that forces every shape into one bucket.
    key_hash: fn(u64) -> u64,
}

impl PlanCache {
    /// A cache bounded to `cap` plans (minimum 1).
    pub fn with_capacity(cap: usize) -> Arc<PlanCache> {
        PlanCache::build(cap, |h| h)
    }

    fn build(cap: usize, key_hash: fn(u64) -> u64) -> Arc<PlanCache> {
        Arc::new(PlanCache {
            cap: cap.max(1),
            inner: Mutex::new(Inner { map: HashMap::new(), len: 0, tick: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            key_hash,
        })
    }

    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            len: self.inner.lock().map(|g| g.len).unwrap_or(0),
        }
    }

    /// The shared program of every resident plan, bound to the constants
    /// of the expression that inserted it.
    pub fn resident_programs(&self) -> Vec<BoundProgram> {
        self.inner.lock().map_or_else(
            |_| Vec::new(),
            |g| g.map.values().flatten().map(|e| e.plan.prog.clone()).collect(),
        )
    }

    /// Drop every cached plan (catalog-change invalidation hook; epoch
    /// keying already prevents stale hits, this reclaims the memory).
    pub fn clear(&self) {
        if let Ok(mut g) = self.inner.lock() {
            g.map.clear();
            g.len = 0;
        }
    }

    /// Drop the cached plans compiled against catalog `db_id`.
    pub fn invalidate_db(&self, db_id: u64) {
        if let Ok(mut g) = self.inner.lock() {
            g.map.retain(|k, _| k.db_id != db_id);
            g.len = g.map.values().map(Vec::len).sum();
        }
    }

    /// Translate `expr` through the cache (the
    /// [`crate::translate::translate_in`] fast path). A hit shares the
    /// cached program, re-bound to the expression's parameter values; a
    /// miss translates under `plan` and inserts.
    pub fn translate(
        &self,
        cat: &Catalog,
        expr: &SetExpr,
        plan: &PlanConfig,
    ) -> Result<Translated> {
        let mut walk = Keyed::default();
        walk_set(expr, &mut walk);
        let Keyed { hash, bindings, conflict } = walk;
        if conflict {
            // One id bound to two different values: re-binding a cached
            // plan could put either value into either slot. Bypass.
            self.bypasses.fetch_add(1, Ordering::Relaxed);
            return translate_uncached(cat, expr, plan);
        }
        let key = Key {
            shape_hash: (self.key_hash)(hash),
            db_id: cat.db().id(),
            db_epoch: cat.db().epoch(),
            plan: *plan,
        };
        if let Some((mut t, same_values)) = self.lookup(&key, expr, &bindings) {
            if !same_values {
                t.prog = t.prog.rebind(bindings);
            }
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(t);
        }
        let t = translate_uncached(cat, expr, plan)?;
        if t.cacheable {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let entry = Entry { shape: shape_of(expr), plan: t.clone(), bindings, last_used: 0 };
            self.insert(key, entry);
        } else {
            self.bypasses.fetch_add(1, Ordering::Relaxed);
        }
        Ok(t)
    }

    /// The resident plan of `expr`'s shape, bound to its inserter's
    /// constants, and whether those equal `bindings`.
    fn lookup(
        &self,
        key: &Key,
        expr: &SetExpr,
        bindings: &[(u32, AtomValue)],
    ) -> Option<(Translated, bool)> {
        let mut g = self.inner.lock().ok()?;
        g.tick += 1;
        let tick = g.tick;
        let e = g.map.get_mut(key)?.iter_mut().find(|e| e.shape.matches(expr))?;
        e.last_used = tick;
        Some((e.plan.clone(), bindings_identical(&e.bindings, bindings)))
    }

    fn insert(&self, key: Key, mut entry: Entry) {
        let Ok(mut g) = self.inner.lock() else { return };
        g.tick += 1;
        entry.last_used = g.tick;
        let Inner { map, len, .. } = &mut *g;
        if map.get(&key).is_some_and(|b| b.iter().any(|e| e.shape == entry.shape)) {
            // A concurrent miss on the same shape inserted first: its
            // program stays the one every hit shares.
            return;
        }
        if *len >= self.cap {
            // Evict the least-recently-used entry (linear scan: caches are
            // small — tens of plans — and insertions are misses, which
            // already paid a full translate+optimize).
            let victim = map
                .iter()
                .flat_map(|(k, b)| b.iter().enumerate().map(move |(i, e)| (e.last_used, k, i)))
                .min_by_key(|(used, ..)| *used)
                .map(|(_, k, i)| (k.clone(), i));
            if let Some((k, i)) = victim {
                let emptied = map.get_mut(&k).is_some_and(|b| {
                    b.swap_remove(i);
                    b.is_empty()
                });
                if emptied {
                    map.remove(&k);
                }
                *len -= 1;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.entry(key).or_default().push(entry);
        *len += 1;
    }
}

// ---------------------------------------------------------------------------
// The shape walk: structure as tokens, parameters beside it.
// ---------------------------------------------------------------------------

/// Bit-exact atom identity (same contract as the optimizer's CSE:
/// distinguishes -0.0 from 0.0 and NaN payloads — a re-bound value that
/// differs only in float sign still gets bound).
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
    let mut walk = Keyed::default();
    walk_set(expr, &mut walk);
    (!walk.conflict).then_some(walk.bindings)
}

/// An expression's shape, as the token stream of its structure: equal for
/// two expressions exactly when one can be obtained from the other by
/// changing parameter *values* (ids and value types stay part of the
/// shape; plain literals count with their exact bits and so stay
/// plan-distinguishing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape(Vec<u64>);

impl Shape {
    /// Whether `expr` has this shape — a streaming comparison that
    /// allocates nothing.
    pub fn matches(&self, expr: &SetExpr) -> bool {
        let mut walk = Matches { want: &self.0, at: 0, ok: true };
        walk_set(expr, &mut walk);
        walk.ok && walk.at == self.0.len()
    }
}

/// The shape of `e`.
pub fn shape_of(e: &SetExpr) -> Shape {
    let mut tokens = Vec::with_capacity(64);
    walk_set(e, &mut tokens);
    Shape(tokens)
}

/// What a walk over an expression feeds: its structure as a token stream
/// that parses back unambiguously (every node kind has its own tag and
/// every variable-length part its length), and its parameters.
trait Sink {
    fn token(&mut self, t: u64);
    fn param(&mut self, _id: u32, _value: &AtomValue) {}
}

impl Sink for Vec<u64> {
    fn token(&mut self, t: u64) {
        self.push(t);
    }
}

/// Compares the stream against a recorded one.
struct Matches<'a> {
    want: &'a [u64],
    at: usize,
    ok: bool,
}

impl Sink for Matches<'_> {
    fn token(&mut self, t: u64) {
        self.ok &= self.want.get(self.at) == Some(&t);
        self.at += 1;
    }
}

/// The cache's walk: a hash of the stream and the bindings, first
/// occurrence per id, with a note of any id bound to two values.
#[derive(Default)]
struct Keyed {
    hash: u64,
    bindings: Vec<(u32, AtomValue)>,
    conflict: bool,
}

impl Sink for Keyed {
    fn token(&mut self, t: u64) {
        self.hash = (self.hash.rotate_left(5) ^ t).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn param(&mut self, id: u32, value: &AtomValue) {
        match self.bindings.iter().find(|(i, _)| *i == id) {
            Some((_, prev)) => self.conflict |= !atoms_identical(prev, value),
            None => self.bindings.push((id, value.clone())),
        }
    }
}

fn walk_set(e: &SetExpr, s: &mut impl Sink) {
    match e {
        SetExpr::Extent(c) => {
            s.token(1);
            text(c, s);
        }
        SetExpr::Select { input, pred } => {
            s.token(2);
            walk_set(input, s);
            walk_pred(pred, s);
        }
        SetExpr::Project { input, items } => {
            s.token(3);
            walk_set(input, s);
            walk_items(items, s);
        }
        SetExpr::Nest { input, keys } => {
            s.token(4);
            walk_set(input, s);
            walk_items(keys, s);
        }
        SetExpr::Union(a, b) | SetExpr::Diff(a, b) | SetExpr::Intersect(a, b) => {
            s.token(match e {
                SetExpr::Union(..) => 5,
                SetExpr::Diff(..) => 6,
                _ => 7,
            });
            walk_set(a, s);
            walk_set(b, s);
        }
        SetExpr::Top { input, by, n, desc } => {
            s.token(8);
            s.token(*n as u64);
            s.token(*desc as u64);
            walk_set(input, s);
            walk_scalar(by, s);
        }
        SetExpr::JoinEq { left, right, lkey, rkey, lname, rname } => {
            s.token(9);
            text(lname, s);
            text(rname, s);
            walk_set(left, s);
            walk_set(right, s);
            walk_scalar(lkey, s);
            walk_scalar(rkey, s);
        }
        SetExpr::SemijoinEq { left, right, lkey, rkey } => {
            s.token(10);
            walk_set(left, s);
            walk_set(right, s);
            walk_scalar(lkey, s);
            walk_scalar(rkey, s);
        }
        SetExpr::Unnest { input, attr, oname, mname } => {
            s.token(11);
            text(oname, s);
            text(mname, s);
            walk_set(input, s);
            walk_setv(attr, s);
        }
    }
}

fn walk_items(items: &[ProjItem], s: &mut impl Sink) {
    s.token(items.len() as u64);
    for it in items {
        text(&it.name, s);
        match &it.expr {
            Expr::Scalar(sc) => {
                s.token(20);
                walk_scalar(sc, s);
            }
            Expr::SetV(sv) => {
                s.token(21);
                walk_setv(sv, s);
            }
        }
    }
}

fn walk_pred(p: &Pred, s: &mut impl Sink) {
    match p {
        Pred::Cmp(op, l, r) => {
            s.token(30);
            s.token(*op as u64);
            walk_scalar(l, s);
            walk_scalar(r, s);
        }
        Pred::And(a, b) | Pred::Or(a, b) => {
            s.token(if matches!(p, Pred::And(..)) { 31 } else { 32 });
            walk_pred(a, s);
            walk_pred(b, s);
        }
        Pred::Not(x) => {
            s.token(33);
            walk_pred(x, s);
        }
    }
}

fn walk_scalar(sc: &Scalar, s: &mut impl Sink) {
    match sc {
        Scalar::Attr(path) => {
            s.token(40);
            walk_path(path, s);
        }
        Scalar::This => s.token(41),
        Scalar::Lit(v) => {
            s.token(42);
            atom(v, s);
        }
        // Parameters: id and value *type* only — the value is rebindable.
        Scalar::Param { id, value } => {
            s.token(43);
            s.token(*id as u64);
            s.token(value.atom_type() as u64);
            s.param(*id, value);
        }
        Scalar::Bin(op, l, r) => {
            s.token(44);
            s.token(*op as u64);
            walk_scalar(l, s);
            walk_scalar(r, s);
        }
        Scalar::Un(op, x) => {
            s.token(45);
            s.token(*op as u64);
            walk_scalar(x, s);
        }
        Scalar::Agg(f, sv) => {
            s.token(46);
            s.token(*f as u64);
            walk_setv(sv, s);
        }
    }
}

fn walk_setv(sv: &SetValued, s: &mut impl Sink) {
    match sv {
        SetValued::Attr(path) => {
            s.token(50);
            walk_path(path, s);
        }
        SetValued::SelectIn(inner, pred) => {
            s.token(51);
            walk_setv(inner, s);
            walk_pred(pred, s);
        }
        SetValued::ProjectIn(inner, item) => {
            s.token(52);
            walk_setv(inner, s);
            walk_scalar(item, s);
        }
    }
}

fn walk_path(path: &[String], s: &mut impl Sink) {
    s.token(path.len() as u64);
    for seg in path {
        text(seg, s);
    }
}

/// A string, exactly: its length, then its bytes eight to a token.
fn text(t: &str, s: &mut impl Sink) {
    s.token(t.len() as u64);
    for chunk in t.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        s.token(u64::from_le_bytes(word));
    }
}

/// A literal, exactly: its type, then its bits.
fn atom(v: &AtomValue, s: &mut impl Sink) {
    s.token(v.atom_type() as u64);
    match v {
        AtomValue::Void(o) | AtomValue::Oid(o) => s.token(*o),
        AtomValue::Bool(b) => s.token(*b as u64),
        AtomValue::Chr(c) => s.token(*c as u64),
        AtomValue::Int(i) => s.token(*i as u64),
        AtomValue::Lng(l) => s.token(*l as u64),
        AtomValue::Dbl(d) => s.token(d.to_bits()),
        AtomValue::Str(t) => text(t, s),
        AtomValue::Date(d) => s.token(d.0 as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{and, attr, cmp, eq, lit_d, prm};
    use crate::testkit::mini_catalog;
    use monet::atom::AtomValue;
    use monet::mil::opt::OptLevel;
    use monet::mil::Executable;
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
        let PlanConfig { opt, explain } = full;
        assert_eq!(opt, OptLevel::Full);
        let flips =
            [PlanConfig { opt: OptLevel::Off, ..full }, PlanConfig { explain: !explain, ..full }];
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
        assert_eq!((s.hits, s.misses), (1, 4));
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
    fn a_hit_shares_the_program_and_binds_beside_it() {
        let cat = mini_catalog();
        let cache = PlanCache::with_capacity(8);
        let t1 = cache.translate(&cat, &q(100.0), &PlanConfig::default()).unwrap();
        let t2 = cache.translate(&cat, &q(200.0), &PlanConfig::default()).unwrap();
        let t3 = cache.translate(&cat, &q(100.0), &PlanConfig::default()).unwrap();
        assert!(t2.prog.shares_program_with(&t1.prog) && t3.prog.shares_program_with(&t1.prog));
        assert!(Arc::ptr_eq(&t1.spec, &t2.spec) && Arc::ptr_eq(&t1.keep, &t2.keep));
        // The shared constants stay the inserter's; the hit's own print
        // shows its values, exactly as a fresh translation of it would.
        let fresh = translate_uncached(&cat, &q(200.0), &PlanConfig::default()).unwrap();
        assert_eq!(t2.prog.to_string(), fresh.prog.to_string());
        assert_eq!(t2.prog.program().to_string(), t1.prog.to_string());
        assert_eq!(cache.resident_programs().len(), 1);
    }

    #[test]
    fn a_hash_collision_is_told_apart_by_structure_never_served() {
        let cat = mini_catalog();
        let plan = PlanConfig::default();
        // Every shape hashes to one key: only the structural comparison
        // separates the two plans.
        let cache = PlanCache::build(8, |_| 0);
        let other = SetExpr::extent("Item").select(eq(attr("extendedprice"), lit_d(5.0)));
        let fresh = |e: &SetExpr| translate_uncached(&cat, e, &plan).unwrap().prog.to_string();
        for round in 0..3 {
            for e in [&q(1.0), &other, &q(2.0)] {
                let t = cache.translate(&cat, e, &plan).unwrap();
                assert_eq!(t.prog.to_string(), fresh(e), "round {round}: served another plan");
            }
        }
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.len), (2, 7, 2));
        assert_eq!(cache.inner.lock().unwrap().map.len(), 1, "both shapes share one bucket");
        // The shape comparison itself: equal up to parameter values only.
        assert!(shape_of(&q(1.0)).matches(&q(3.0)));
        assert!(!shape_of(&q(1.0)).matches(&other));
        assert!(!shape_of(&other).matches(&q(1.0)));
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
