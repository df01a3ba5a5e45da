//! The datavector accelerator (Section 5.2, Figure 7).
//!
//! OLAP queries first *select* on selection-attributes, then *compute* on
//! value-attributes of the selected objects. Selections want attribute BATs
//! sorted on tail (an inverted list per attribute); the oid→value path then
//! needs semijoins against the selection. The datavector resolves these
//! conflicting clustering requirements: next to each tail-sorted attribute
//! BAT, keep a fully vectorized representation — the class's sorted
//! **extent** of oids plus a per-attribute **value vector** in oid order,
//! positionally synced with the extent.
//!
//! The datavector semijoin (Section 5.2.1) looks every right-operand oid up
//! in the extent — by `oid - base` arithmetic when the extent is a
//! consecutive range (proven once, in [`Extent::try_new`], for `void` and
//! materialized columns alike), by probe-based binary search otherwise —
//! memoizes the found positions in a `LOOKUP` array keyed by the (extent,
//! right operand) identities, and then fetches head/tail values
//! positionally. The same dense domain lets `ops::join` dereference an
//! attribute through its datavector without any LOOKUP. The extent
//! is **shared by all datavectors of a class** ("the MOA mapping of objects
//! already gave us the unary vector of oids, as the extent BAT"), so
//! subsequent semijoins of *any* attribute with the same selection skip the
//! lookup: "the previous datavector-semijoin has already blazed the trail
//! into the extent".
//!
//! The memo is **per-execution state** and lives on the [`ExecCtx`] (its
//! identity-keyed memo, next to the `{g}` groupings), not on the extent: a
//! selection is an intermediate (or a parameter-dependent slice of a
//! sorted attribute) whose identity means nothing to the next program, so
//! `mil::execute` drops the memo on every exit path and the catalog's
//! extents stay immutable — no lock shared between sessions, nothing that
//! grows with the number of queries run.
//! The one right operand every program shares, the class extent itself,
//! needs no LOOKUP at all (see `ops::semijoin`).

use std::sync::Arc;

use crate::atom::AtomType;
use crate::bat::Bat;
use crate::column::Column;
use crate::ctx::{ExecCtx, MemoKey, Memoized};
use crate::error::{MonetError, Result};
use crate::pager;
use crate::typed::OidDomain;

/// Memoized result of a LOOKUP pass: the extent positions of the right
/// operand's oids, plus the *gathered head column*. Sharing the head column
/// across semijoins with the same selection is what makes their results
/// `synced` — "both stem from a semijoin with a 100% match with the small
/// relation, so they again are synced" (Section 6.2.1).
#[derive(Debug, Clone)]
pub struct Lookup {
    /// Positions into the extent (and every synced vector), in
    /// right-operand order.
    pub positions: Arc<Vec<u32>>,
    /// `extent.gather(positions)`: the matched oids, shared by identity.
    pub head: Column,
}

/// The sorted oid extent of a class, shared by all of its datavectors.
#[derive(Debug)]
pub struct Extent {
    oids: Column,
    /// `Some` when the extent is a consecutive oid range — proven once at
    /// construction, whether the column is `void` or materialized — so an
    /// oid's position is `oid - base`. `None` keeps the binary search.
    dense: Option<OidDomain>,
}

impl Extent {
    /// Wrap a sorted, duplicate-free oid column (`extent[oid,void]` heads).
    /// Panics when the column is not one; use [`Extent::try_new`] for
    /// columns that come from outside the program.
    pub fn new(oids: Column) -> Arc<Extent> {
        Extent::try_new(oids).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Extent::new`] with the precondition as a typed error: one O(n)
    /// pass (O(1) for `void`) proves the column strictly ascending, and
    /// records the dense base when first/last/len say it is consecutive.
    pub fn try_new(oids: Column) -> Result<Arc<Extent>> {
        if !oids.is_oidlike() {
            return Err(MonetError::InvalidProperties("extent must hold oids".into()));
        }
        if let Some(s) = oids.as_oid_slice() {
            if let Some(w) = s.windows(2).find(|w| w[0] >= w[1]) {
                return Err(MonetError::InvalidProperties(format!(
                    "extent must be sorted and duplicate-free: oid {} follows {}",
                    w[1], w[0]
                )));
            }
        }
        let dense = OidDomain::covering(&oids, true).filter(|d| d.span == oids.len());
        Ok(Arc::new(Extent { oids, dense }))
    }

    /// The extent column.
    pub fn oids(&self) -> &Column {
        &self.oids
    }

    /// The extent as a compact oid domain, when it is a consecutive range:
    /// `oids()[oid - base] == oid` for every oid inside.
    pub fn dense(&self) -> Option<OidDomain> {
        self.dense
    }

    pub fn len(&self) -> usize {
        self.oids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.oids.is_empty()
    }

    /// True when `ctx` holds a memoized LOOKUP for this operand — the
    /// "trail has been blazed" fast path is available.
    pub fn lookup_cached(&self, ctx: &ExecCtx, right_head: &Column) -> bool {
        ctx.memo_get(self.memo_key(right_head)).is_some()
    }

    fn memo_key(&self, right_head: &Column) -> MemoKey {
        MemoKey::Lookup(self.oids.identity(), right_head.identity())
    }

    /// Positions in the extent of every right-operand head oid that exists
    /// there, in right-operand order (lines 07-15 of the pseudo code).
    /// Memoized on `ctx` per right-operand identity, so "subsequent
    /// semijoins with B do not re-do the lookup effort".
    pub fn lookup(&self, ctx: &ExecCtx, right_head: &Column) -> Lookup {
        let key = self.memo_key(right_head);
        if let Some(Memoized::Lookup(hit)) = ctx.memo_get(key) {
            return hit;
        }
        let pgr = ctx.pager.as_deref();
        // `None` for a void extent, which is always dense.
        let sparse = self.oids.as_oid_slice();
        // One typed dispatch over the probe column; a dense extent finds
        // each position by arithmetic, a sparse one by binary search.
        let out: Vec<u32> = crate::for_each_oidlike!(right_head, |rh| {
            use crate::typed::TypedVals;
            let mut out = Vec::with_capacity(rh.len());
            for i in 0..rh.len() {
                if let Some(p) = pgr {
                    pager::touch_fetch(p, right_head, i);
                }
                let o = rh.value(i);
                let pos = match self.dense {
                    Some(d) => d.slot(o),
                    None => {
                        if let Some(p) = pgr {
                            pager::touch_binary_search(p, &self.oids);
                        }
                        sparse.expect("sparse extents are materialized").binary_search(&o).ok()
                    }
                };
                if let Some(pos) = pos {
                    out.push(pos as u32);
                }
            }
            out
        });
        // A dense extent that finds every probe oid holds exactly the probe
        // values at those positions: share the probe column, gather nothing.
        let head = if self.dense.is_some()
            && out.len() == right_head.len()
            && right_head.atom_type() == AtomType::Oid
        {
            right_head.clone()
        } else {
            self.oids.gather(&out)
        };
        let result = Lookup { positions: Arc::new(out), head };
        ctx.memo_insert(key, right_head, Memoized::Lookup(result.clone()));
        result
    }
}

/// A datavector: the class extent plus one attribute's value vector in oid
/// order (`vector[i]` is the attribute value of object `extent[i]`).
#[derive(Debug)]
pub struct Datavector {
    extent: Arc<Extent>,
    vector: Column,
}

impl Datavector {
    /// Pair a shared class extent with a value vector (must be positionally
    /// aligned: `vector[i]` belongs to `extent.oids()[i]`).
    pub fn new(extent: Arc<Extent>, vector: Column) -> Datavector {
        assert_eq!(extent.len(), vector.len(), "vector must align with extent");
        Datavector { extent, vector }
    }

    /// Create from an oid-ordered attribute BAT `[oid, T]` (head sorted),
    /// building a private extent. This is the cheap creation path of
    /// Section 6: freshly loaded BATs are oid-ordered, so the datavector is
    /// just a projection (Figure 7 step 1). Loaders that decompose a whole
    /// class should build one [`Extent`] and use [`Datavector::new`] so the
    /// attributes share their LOOKUPs.
    pub fn from_oid_ordered(bat: &Bat) -> Datavector {
        Datavector::new(Extent::new(bat.head().clone()), bat.tail().clone())
    }

    /// Create by explicitly sorting an arbitrary `[oid, T]` BAT on head.
    pub fn from_unordered(bat: &Bat) -> Datavector {
        assert!(bat.head().is_oidlike());
        let perm = bat.head().sort_perm();
        Datavector::new(Extent::new(bat.head().gather(&perm)), bat.tail().gather(&perm))
    }

    /// The shared class extent.
    pub fn extent(&self) -> &Arc<Extent> {
        &self.extent
    }

    /// The value vector, positionally synced with the extent.
    pub fn vector(&self) -> &Column {
        &self.vector
    }

    pub fn len(&self) -> usize {
        self.vector.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vector.is_empty()
    }

    /// Heap bytes of the value vector (Figure 9 counts datavector space
    /// separately from base data; the shared extent is counted once by the
    /// loader).
    pub fn bytes(&self) -> usize {
        self.vector.bytes()
    }

    /// Memoized LOOKUP through the shared extent (see [`Extent::lookup`]).
    pub fn lookup(&self, ctx: &ExecCtx, right_head: &Column) -> Lookup {
        self.extent.lookup(ctx, right_head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomValue;

    fn customer_name_dv() -> (Bat, Datavector) {
        // Figure 7: Customer_name with oids 101..106.
        let oid_ordered = Bat::with_inferred_props(
            Column::from_oids(vec![101, 102, 103, 104, 105, 106]),
            Column::from_strs(["Annita", "Martin", "Peter", "Annita", "Peter", "Martin"]),
        );
        let dv = Datavector::from_oid_ordered(&oid_ordered);
        (oid_ordered, dv)
    }

    #[test]
    fn figure7_creation() {
        let (bat, dv) = customer_name_dv();
        assert_eq!(dv.len(), 6);
        assert_eq!(dv.extent().oids().oid_at(0), 101);
        assert_eq!(dv.vector().str_at(2), "Peter");
        assert!(dv.bytes() > 0);
        assert_eq!(dv.vector().str_at(5), bat.tail().str_at(5));
    }

    #[test]
    fn lookup_finds_positions_and_memoizes() {
        let (_, dv) = customer_name_dv();
        let ctx = ExecCtx::new();
        let probe = Column::from_oids(vec![103, 101, 999, 106]);
        assert!(!dv.extent().lookup_cached(&ctx, &probe));
        let l1 = dv.lookup(&ctx, &probe);
        assert_eq!(&*l1.positions, &vec![2, 0, 5]); // 999 misses
        assert_eq!(l1.head.as_oid_slice().unwrap(), &[103, 101, 106]);
        assert!(dv.extent().lookup_cached(&ctx, &probe));
        let l2 = dv.lookup(&ctx, &probe);
        assert!(Arc::ptr_eq(&l1.positions, &l2.positions), "must reuse the memo");
        // Shared head identity is what makes successive semijoin results synced.
        assert_eq!(l1.head.identity(), l2.head.identity());
    }

    #[test]
    fn extent_shared_across_attributes() {
        let ctx = ExecCtx::new();
        let extent = Extent::new(Column::from_oids(vec![10, 11, 12, 13]));
        let price =
            Datavector::new(Arc::clone(&extent), Column::from_dbls(vec![1.0, 2.0, 3.0, 4.0]));
        let disc =
            Datavector::new(Arc::clone(&extent), Column::from_dbls(vec![0.1, 0.2, 0.3, 0.4]));
        let probe = Column::from_oids(vec![11, 13]);
        let l1 = price.lookup(&ctx, &probe);
        // The second attribute's lookup hits the shared memo — on this
        // context only.
        assert!(disc.extent().lookup_cached(&ctx, &probe));
        assert!(!disc.extent().lookup_cached(&ExecCtx::new(), &probe));
        let l2 = disc.lookup(&ctx, &probe);
        assert!(Arc::ptr_eq(&l1.positions, &l2.positions));
        assert_eq!(l1.head.identity(), l2.head.identity());
    }

    #[test]
    fn dense_extent_positional_lookup() {
        let bat = Bat::new(Column::void(50, 10), Column::from_ints((0..10).collect()));
        let dv = Datavector::from_oid_ordered(&bat);
        let ctx = ExecCtx::new();
        let probe = Column::from_oids(vec![50, 59, 60, 49]);
        let l = dv.lookup(&ctx, &probe);
        assert_eq!(&*l.positions, &vec![0, 9]);
    }

    #[test]
    fn from_unordered_sorts() {
        let bat = Bat::new(Column::from_oids(vec![5, 3, 4]), Column::from_ints(vec![50, 30, 40]));
        let dv = Datavector::from_unordered(&bat);
        assert_eq!(dv.extent().oids().as_oid_slice().unwrap(), &[3, 4, 5]);
        assert_eq!(dv.vector().as_int_slice().unwrap(), &[30, 40, 50]);
        let _ = AtomValue::Int(0);
    }
}
