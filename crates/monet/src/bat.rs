//! The Binary Association Table (Figure 2).
//!
//! All data in Monet is stored in BATs: two-column tables whose left column
//! is the *head* and right column the *tail*. Due to the design of its data
//! structure, any BAT can be viewed from two perspectives: its normal form
//! `bat[X,Y]` and the mirror `bat[Y,X]` with head and tail swapped — an
//! operation free of cost (here: two `Arc` clones).

use std::fmt;
use std::sync::Arc;

use crate::atom::{AtomType, AtomValue};
use crate::column::Column;
use crate::error::{MonetError, Result};
use crate::props::{ColProps, Props};

/// Search accelerators attached to a BAT (Figure 2 shows them as extra
/// heaps). Intermediate results carry none; tail-sorted persistent
/// attribute BATs carry a datavector, and those whose tail is a sorted oid
/// column a run index over it.
#[derive(Debug, Clone, Default)]
pub struct Accel {
    /// Datavector accelerator (Section 5.2); meaningful for `[oid,T]` BATs.
    pub datavector: Option<Arc<crate::accel::datavector::Datavector>>,
    /// Run index over one of the BAT's columns — the tail it was built on,
    /// or the head of the mirror ([`RunIndex::describes`] says which).
    ///
    /// [`RunIndex::describes`]: crate::accel::runs::RunIndex::describes
    pub runs: Option<Arc<crate::accel::runs::RunIndex>>,
}

impl Accel {
    /// The run index, if it describes `col`.
    pub fn runs_of(&self, col: &Column) -> Option<&crate::accel::runs::RunIndex> {
        self.runs.as_deref().filter(|r| r.describes(col))
    }
}

/// A Binary Association Table.
#[derive(Clone)]
pub struct Bat {
    head: Column,
    tail: Column,
    props: Props,
    accel: Accel,
}

impl Bat {
    /// Construct with no known properties. Panics if the columns disagree
    /// on length (a BUN is always a *pair*).
    pub fn new(head: Column, tail: Column) -> Bat {
        assert_eq!(
            head.len(),
            tail.len(),
            "BAT columns must have equal length ({} vs {})",
            head.len(),
            tail.len()
        );
        let mut props = Props::NONE;
        // Void columns are dense by construction; claim it for free.
        if head.atom_type() == AtomType::Void {
            props.head = ColProps::DENSE;
        }
        if tail.atom_type() == AtomType::Void {
            props.tail = ColProps::DENSE;
        }
        // The encoding fact is ground truth read off the storage (O(1)),
        // never a caller claim — see [`Column::encoding`].
        props.head.enc = head.encoding();
        props.tail.enc = tail.encoding();
        Bat { head, tail, props, accel: Accel::default() }
    }

    /// Construct with caller-supplied properties. The claims are trusted
    /// (operators derive them from propagation rules); `debug_assertions`
    /// builds verify them, mirroring how the kernel "actively guards"
    /// properties (Section 5.1).
    pub fn with_props(head: Column, tail: Column, props: Props) -> Bat {
        let mut b = Bat::new(head, tail);
        // Claims are trusted for the semantic properties, but the encoding
        // fact is overridden with the storage truth: operators don't have
        // to (and must not) reason about which layout their output columns
        // ended up with.
        b.props = Props::new(
            props.head.with_encoding(b.head.encoding()),
            props.tail.with_encoding(b.tail.encoding()),
        );
        debug_assert!(
            b.validate().is_ok(),
            "property claim violated: {:?}",
            b.validate().unwrap_err()
        );
        b
    }

    /// Construct and *infer* properties by scanning (O(n log n)); used by
    /// loaders and tests, not by operators.
    pub fn with_inferred_props(head: Column, tail: Column) -> Bat {
        let mut b = Bat::new(head, tail);
        b.props = Props::new(
            ColProps {
                sorted: b.head.check_sorted(),
                key: b.head.check_key(),
                dense: b.head.check_dense(),
                enc: b.head.encoding(),
            },
            ColProps {
                sorted: b.tail.check_sorted(),
                key: b.tail.check_key(),
                dense: b.tail.check_dense(),
                enc: b.tail.encoding(),
            },
        );
        b
    }

    /// Build a small BAT from atom pairs (test/helper convenience).
    pub fn from_pairs(
        head_ty: AtomType,
        tail_ty: AtomType,
        pairs: &[(AtomValue, AtomValue)],
    ) -> Bat {
        let head = Column::from_atoms(head_ty, pairs.iter().map(|(h, _)| h.clone()));
        let tail = Column::from_atoms(tail_ty, pairs.iter().map(|(_, t)| t.clone()));
        Bat::with_inferred_props(head, tail)
    }

    pub fn head(&self) -> &Column {
        &self.head
    }

    pub fn tail(&self) -> &Column {
        &self.tail
    }

    pub fn props(&self) -> Props {
        self.props
    }

    pub fn accel(&self) -> &Accel {
        &self.accel
    }

    /// Attach a datavector accelerator.
    pub fn set_datavector(&mut self, dv: Arc<crate::accel::datavector::Datavector>) {
        self.accel.datavector = Some(dv);
    }

    /// Attach a run index over the tail when the tail is a sorted oid
    /// column that is not dense (a dense column addresses its runs of one
    /// by `oid - base` already) and [`RunIndex::build`] accepts it; the
    /// catalog's loaders call this once per persistent BAT.
    ///
    /// [`RunIndex::build`]: crate::accel::runs::RunIndex::build
    pub fn index_runs(&mut self) {
        let tail = self.props.tail;
        if tail.sorted && !tail.dense {
            self.accel.runs = crate::accel::runs::RunIndex::build(&self.tail).map(Arc::new);
        }
    }

    /// Number of BUNs.
    pub fn len(&self) -> usize {
        self.head.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The mirror view `bat[Y,X]` — free of cost.
    pub fn mirror(&self) -> Bat {
        Bat {
            head: self.tail.clone(),
            tail: self.head.clone(),
            props: self.props.mirrored(),
            // A datavector accelerates oid->value fetches of the normal
            // orientation; it does not transfer to the mirror. A run index
            // describes a column, which is now the head.
            accel: Accel { datavector: None, runs: self.accel.runs.clone() },
        }
    }

    /// Zero-copy sub-range view; order/key/dense properties survive
    /// windowing, accelerators do not (their positions would be stale).
    pub fn slice(&self, start: usize, len: usize) -> Bat {
        Bat {
            head: self.head.slice(start, len),
            tail: self.tail.slice(start, len),
            props: self.props,
            accel: Accel::default(),
        }
    }

    /// BUN at position `i` as a generic pair.
    pub fn bun(&self, i: usize) -> (AtomValue, AtomValue) {
        (self.head.get(i), self.tail.get(i))
    }

    /// Iterate all BUNs generically (test/debug path).
    pub fn iter(&self) -> impl Iterator<Item = (AtomValue, AtomValue)> + '_ {
        (0..self.len()).map(move |i| self.bun(i))
    }

    /// Two BATs are `synced` when their BUNs correspond by position; the
    /// most common case is that their head columns are exactly identical
    /// (Section 5.1) — which is what shared column identity certifies.
    pub fn synced(&self, other: &Bat) -> bool {
        self.len() == other.len() && self.head.identity() == other.head.identity()
    }

    /// Total heap bytes of both columns.
    pub fn bytes(&self) -> usize {
        self.head.bytes() + self.tail.bytes()
    }

    /// Head/tail atom types as a pair, e.g. `(oid, str)`.
    pub fn signature(&self) -> (AtomType, AtomType) {
        (self.head.atom_type(), self.tail.atom_type())
    }

    /// Verify that every claimed descriptor property actually holds.
    pub fn validate(&self) -> Result<()> {
        let check = |col: &Column, p: ColProps, side: &str| -> Result<()> {
            if p.sorted && !col.check_sorted() {
                return Err(MonetError::InvalidProperties(format!(
                    "{side} claims sorted but is not"
                )));
            }
            if p.key && !col.check_key() {
                return Err(MonetError::InvalidProperties(format!(
                    "{side} claims key but has duplicates"
                )));
            }
            if p.dense && !col.check_dense() {
                return Err(MonetError::InvalidProperties(format!(
                    "{side} claims dense but is not consecutive"
                )));
            }
            if p.enc != crate::props::Enc::None && p.enc != col.encoding() {
                return Err(MonetError::InvalidProperties(format!(
                    "{side} claims encoding {:?} but storage is {:?}",
                    p.enc,
                    col.encoding()
                )));
            }
            Ok(())
        };
        check(&self.head, self.props.head, "head")?;
        check(&self.tail, self.props.tail, "tail")?;
        Ok(())
    }

    /// Render the first `limit` BUNs as a small table (debugging aid,
    /// in the spirit of Figure 2's example BAT).
    pub fn dump(&self, limit: usize) -> String {
        let mut s = format!(
            "BAT[{},{}] {} BUNs (hs:{} hk:{} hd:{} | ts:{} tk:{} td:{})\n",
            self.head.atom_type(),
            self.tail.atom_type(),
            self.len(),
            self.props.head.sorted as u8,
            self.props.head.key as u8,
            self.props.head.dense as u8,
            self.props.tail.sorted as u8,
            self.props.tail.key as u8,
            self.props.tail.dense as u8,
        );
        for i in 0..self.len().min(limit) {
            let (h, t) = self.bun(i);
            s.push_str(&format!("  [ {h}, {t} ]\n"));
        }
        if self.len() > limit {
            s.push_str(&format!("  ... {} more\n", self.len() - limit));
        }
        s
    }
}

impl fmt::Debug for Bat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.dump(8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Oid;

    fn name_bat() -> Bat {
        // The Customer_name example of Figure 2.
        let head = Column::from_oids(vec![101, 102, 103, 104]);
        let tail = Column::from_strs(["Annita", "Martin", "Peter", "Annita"]);
        Bat::with_inferred_props(head, tail)
    }

    #[test]
    fn figure2_example() {
        let b = name_bat();
        assert_eq!(b.len(), 4);
        assert_eq!(b.signature(), (AtomType::Oid, AtomType::Str));
        assert!(b.props().head.sorted && b.props().head.key && b.props().head.dense);
        assert!(!b.props().tail.key); // "Annita" occurs twice
        assert_eq!(b.bun(2), (AtomValue::Oid(103), AtomValue::str("Peter")));
    }

    #[test]
    fn mirror_swaps_columns_and_props() {
        let b = name_bat();
        let m = b.mirror();
        assert_eq!(m.signature(), (AtomType::Str, AtomType::Oid));
        assert_eq!(m.bun(0), (AtomValue::str("Annita"), AtomValue::Oid(101)));
        assert!(m.props().tail.dense);
        // mirror of mirror is the original
        let mm = m.mirror();
        assert_eq!(mm.bun(3), b.bun(3));
        assert_eq!(mm.props(), b.props());
    }

    #[test]
    fn synced_by_shared_head() {
        let head = Column::from_oids(vec![1, 2, 3]);
        let a = Bat::new(head.clone(), Column::from_ints(vec![10, 20, 30]));
        let b = Bat::new(head, Column::from_dbls(vec![0.1, 0.2, 0.3]));
        assert!(a.synced(&b));
        let c = Bat::new(Column::from_oids(vec![1, 2, 3]), Column::from_ints(vec![1, 2, 3]));
        assert!(!a.synced(&c)); // equal values, different allocation
    }

    #[test]
    fn slice_preserves_props() {
        let b = name_bat();
        let s = b.slice(1, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.bun(0).0, AtomValue::Oid(102));
        assert!(s.props().head.dense);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bogus_claims() {
        let head = Column::from_oids(vec![3, 1, 2]);
        let tail = Column::from_ints(vec![1, 1, 2]);
        let mut b = Bat::new(head, tail);
        b.props = Props::new(ColProps::SORTED, ColProps::NONE);
        assert!(b.validate().is_err());
        b.props = Props::new(ColProps::NONE, ColProps { key: true, ..ColProps::NONE });
        assert!(b.validate().is_err());
        b.props = Props::NONE;
        assert!(b.validate().is_ok());
    }

    #[test]
    fn void_tail_extent() {
        // The extent[oid,void] of Section 6.
        let ext = Bat::new(Column::from_oids(vec![7, 8, 9]), Column::void(0, 3));
        assert!(ext.props().tail.dense);
        assert_eq!(ext.bun(1), (AtomValue::Oid(8), AtomValue::Oid(1)));
        assert_eq!(ext.tail().bytes(), 0);
    }

    #[test]
    fn from_pairs_helper() {
        let b = Bat::from_pairs(
            AtomType::Oid,
            AtomType::Int,
            &[(AtomValue::Oid(1), AtomValue::Int(5)), (AtomValue::Oid(2), AtomValue::Int(3))],
        );
        assert_eq!(b.len(), 2);
        assert!(b.props().head.key);
        assert!(!b.props().tail.sorted);
        let _ = b.len() as Oid;
    }
}
