//! Typed, immutable, `Arc`-shared column arrays.
//!
//! A BAT (Figure 2) stores its BUNs in dense array-like heaps. This module
//! provides the per-type heap representation. Columns are immutable and
//! cheaply cloneable; `mirror` and zero-copy slicing are what make the MIL
//! commands `mirror` and sorted-range selection "operations free of cost".
//!
//! Every distinct column allocation carries a [`ColumnId`]; two BATs are
//! *synced* (Section 5.1) when their head columns have the same identity —
//! the kernel can then use positional algorithms.

use std::cmp::Ordering;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock, Weak};

use crate::atom::{AtomType, AtomValue, Date, Oid};
use crate::buf::Buf;
use crate::props::Enc;
use crate::strheap::{StrHeapBuilder, StrVec};
use crate::typed::CodeSlice;

/// Unique identity of a column allocation, used for `synced` detection and
/// as the pager's heap identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnId(pub u64);

static NEXT_COLUMN_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_column_id() -> ColumnId {
    ColumnId(NEXT_COLUMN_ID.fetch_add(1, AtomicOrdering::Relaxed))
}

/// The typed storage of a column.
#[derive(Debug, Clone)]
pub enum ColumnVals {
    /// Virtual dense sequence starting at `seq`: value at position `i` is
    /// `seq + i`. Occupies zero bytes (the paper's `void` type).
    Void {
        seq: Oid,
    },
    Oid(Arc<Buf<Oid>>),
    Bool(Arc<Buf<bool>>),
    Chr(Arc<Buf<u8>>),
    Int(Arc<Buf<i32>>),
    Lng(Arc<Buf<i64>>),
    Dbl(Arc<Buf<f64>>),
    Str(StrVec),
    Date(Arc<Buf<i32>>),
    /// Order-preserving dictionary codes over a sorted, duplicate-free
    /// string dictionary: code order equals string order.
    DictStr(Arc<DictStrData>),
}

/// Per-row dictionary codes at the narrowest width the dictionary size
/// allows. The width reduction is what makes dict encoding pay on columns
/// whose raw heap is already deduplicated (the loader's): u32 codes would
/// merely mirror the raw offset array, u8/u16 codes shrink it 4x/2x.
#[derive(Debug)]
pub(crate) enum DictCodes {
    W8(Buf<u8>),
    W16(Buf<u16>),
    W32(Buf<u32>),
}

impl DictCodes {
    fn len(&self) -> usize {
        match self {
            DictCodes::W8(v) => v.len(),
            DictCodes::W16(v) => v.len(),
            DictCodes::W32(v) => v.len(),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> usize {
        match self {
            DictCodes::W8(v) => v[i] as usize,
            DictCodes::W16(v) => v[i] as usize,
            DictCodes::W32(v) => v[i] as usize,
        }
    }

    /// The codes of `[off, off + len)`, borrowed at their physical width.
    fn window(&self, off: usize, len: usize) -> CodeSlice<'_> {
        match self {
            DictCodes::W8(v) => CodeSlice::W8(&v[off..off + len]),
            DictCodes::W16(v) => CodeSlice::W16(&v[off..off + len]),
            DictCodes::W32(v) => CodeSlice::W32(&v[off..off + len]),
        }
    }

    /// Physical bytes per code.
    fn width(&self) -> usize {
        match self {
            DictCodes::W8(_) => 1,
            DictCodes::W16(_) => 2,
            DictCodes::W32(_) => 4,
        }
    }

    /// Narrowest width able to hold codes `0..dict_len`.
    pub(crate) fn width_for(dict_len: usize) -> usize {
        if dict_len <= 1 << 8 {
            1
        } else if dict_len <= 1 << 16 {
            2
        } else {
            4
        }
    }
}

/// Dictionary-encoded string storage. The dictionary is a sorted,
/// duplicate-free [`StrVec`]; per-row narrow codes index into it, so the
/// encoding is *order-preserving*: comparing codes compares strings.
#[derive(Debug)]
pub struct DictStrData {
    codes: DictCodes,
    dict: StrVec,
    /// Lazy raw decode (`dict.gather(codes)`); shares the dictionary's
    /// byte heap, so the cache costs only the rebuilt offset arrays.
    decoded: OnceLock<StrVec>,
}

impl DictStrData {
    /// Assemble from pre-built parts (the store's open path).
    pub(crate) fn from_parts(codes: DictCodes, dict: StrVec) -> DictStrData {
        DictStrData { codes, dict, decoded: OnceLock::new() }
    }

    #[inline]
    fn code(&self, i: usize) -> usize {
        self.codes.get(i)
    }

    fn decoded(&self) -> &StrVec {
        self.decoded.get_or_init(|| {
            let wide: Vec<u32> = (0..self.codes.len()).map(|i| self.code(i) as u32).collect();
            self.dict.gather(&wide)
        })
    }
}

/// An immutable column: shared storage plus a `[off, off+len)` view window.
///
/// Slicing produces a new `Column` sharing the same storage; the identity
/// triple `(id, off, len)` distinguishes views for synced-ness.
#[derive(Debug, Clone)]
pub struct Column {
    vals: ColumnVals,
    id: ColumnId,
    off: usize,
    len: usize,
}

/// Identity of a column *view*: storage id plus window. Two synced columns
/// expose identical values at identical positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnIdentity {
    pub id: ColumnId,
    pub off: usize,
    pub len: usize,
}

impl Column {
    pub(crate) fn new(vals: ColumnVals, len: usize) -> Column {
        Column { vals, id: fresh_column_id(), off: 0, len }
    }

    /// Dense void column (`[void]`), the zero-space tail of extent BATs.
    pub fn void(seq: Oid, len: usize) -> Column {
        Column::new(ColumnVals::Void { seq }, len)
    }

    pub fn from_oids(v: Vec<Oid>) -> Column {
        let len = v.len();
        Column::new(ColumnVals::Oid(Arc::new(v.into())), len)
    }

    pub fn from_bools(v: Vec<bool>) -> Column {
        let len = v.len();
        Column::new(ColumnVals::Bool(Arc::new(v.into())), len)
    }

    pub fn from_chrs(v: Vec<u8>) -> Column {
        let len = v.len();
        Column::new(ColumnVals::Chr(Arc::new(v.into())), len)
    }

    pub fn from_ints(v: Vec<i32>) -> Column {
        let len = v.len();
        Column::new(ColumnVals::Int(Arc::new(v.into())), len)
    }

    pub fn from_lngs(v: Vec<i64>) -> Column {
        let len = v.len();
        Column::new(ColumnVals::Lng(Arc::new(v.into())), len)
    }

    pub fn from_dbls(v: Vec<f64>) -> Column {
        let len = v.len();
        Column::new(ColumnVals::Dbl(Arc::new(v.into())), len)
    }

    pub fn from_dates(v: Vec<Date>) -> Column {
        let len = v.len();
        Column::new(ColumnVals::Date(Arc::new(v.into_iter().map(|d| d.0).collect())), len)
    }

    pub fn from_date_days(v: Vec<i32>) -> Column {
        let len = v.len();
        Column::new(ColumnVals::Date(Arc::new(v.into())), len)
    }

    pub fn from_strvec(v: StrVec) -> Column {
        let len = v.len();
        Column::new(ColumnVals::Str(v), len)
    }

    pub fn from_strs<S: AsRef<str>>(items: impl IntoIterator<Item = S>) -> Column {
        let mut b = StrHeapBuilder::new();
        for s in items {
            b.push(s.as_ref());
        }
        Column::from_strvec(b.finish())
    }

    /// Build a column of the given type from generic atom values. Values
    /// must all match `ty` (void accepts oids and becomes a materialized oid
    /// column when non-dense).
    pub fn from_atoms(ty: AtomType, items: impl IntoIterator<Item = AtomValue>) -> Column {
        match ty {
            AtomType::Void | AtomType::Oid => Column::from_oids(
                items.into_iter().map(|v| v.as_oid().expect("oid-typed atom")).collect(),
            ),
            AtomType::Bool => Column::from_bools(
                items
                    .into_iter()
                    .map(|v| match v {
                        AtomValue::Bool(b) => b,
                        other => panic!("expected bool, got {other:?}"),
                    })
                    .collect(),
            ),
            AtomType::Chr => Column::from_chrs(
                items
                    .into_iter()
                    .map(|v| match v {
                        AtomValue::Chr(c) => c,
                        other => panic!("expected chr, got {other:?}"),
                    })
                    .collect(),
            ),
            AtomType::Int => Column::from_ints(
                items
                    .into_iter()
                    .map(|v| match v {
                        AtomValue::Int(i) => i,
                        other => panic!("expected int, got {other:?}"),
                    })
                    .collect(),
            ),
            AtomType::Lng => Column::from_lngs(
                items
                    .into_iter()
                    .map(|v| match v {
                        AtomValue::Lng(i) => i,
                        other => panic!("expected lng, got {other:?}"),
                    })
                    .collect(),
            ),
            AtomType::Dbl => Column::from_dbls(
                items
                    .into_iter()
                    .map(|v| match v {
                        AtomValue::Dbl(d) => d,
                        other => panic!("expected dbl, got {other:?}"),
                    })
                    .collect(),
            ),
            AtomType::Date => Column::from_date_days(
                items
                    .into_iter()
                    .map(|v| match v {
                        AtomValue::Date(d) => d.0,
                        other => panic!("expected date, got {other:?}"),
                    })
                    .collect(),
            ),
            AtomType::Str => {
                let mut b = StrHeapBuilder::new();
                for v in items {
                    match v {
                        AtomValue::Str(s) => b.push(&s),
                        other => panic!("expected str, got {other:?}"),
                    }
                }
                Column::from_strvec(b.finish())
            }
        }
    }

    /// The atom type stored in this column.
    pub fn atom_type(&self) -> AtomType {
        match &self.vals {
            ColumnVals::Void { .. } => AtomType::Void,
            ColumnVals::Oid(_) => AtomType::Oid,
            ColumnVals::Bool(_) => AtomType::Bool,
            ColumnVals::Chr(_) => AtomType::Chr,
            ColumnVals::Int(_) => AtomType::Int,
            ColumnVals::Lng(_) => AtomType::Lng,
            ColumnVals::Dbl(_) => AtomType::Dbl,
            ColumnVals::Str(_) => AtomType::Str,
            ColumnVals::Date(_) => AtomType::Date,
            ColumnVals::DictStr(_) => AtomType::Str,
        }
    }

    /// The physical encoding of this column's storage (`Enc::None` for the
    /// raw layouts). An O(1) storage fact, not a semantic claim — which is
    /// why [`crate::bat::Bat`] derives the `enc` property from it instead
    /// of trusting callers.
    pub fn encoding(&self) -> Enc {
        match &self.vals {
            ColumnVals::DictStr(_) => Enc::Dict,
            _ => Enc::None,
        }
    }

    /// Oid-compatible view: both `oid` and `void` columns yield oids.
    pub fn is_oidlike(&self) -> bool {
        matches!(self.atom_type(), AtomType::Oid | AtomType::Void)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Identity of this view (storage + window); equal identities imply
    /// positionally identical values, the basis of the `synced` property.
    pub fn identity(&self) -> ColumnIdentity {
        ColumnIdentity { id: self.id, off: self.off, len: self.len }
    }

    /// Storage identity, ignoring the view window (pager heap id).
    pub fn storage_id(&self) -> ColumnId {
        self.id
    }

    /// A weak handle on the storage, dead once no view of it is left;
    /// `None` for `void`, which allocates nothing. A string column's own
    /// allocation is its offset array (a gather shares the byte heap).
    pub(crate) fn storage(&self) -> Option<Weak<dyn Send + Sync>> {
        let strong: Arc<dyn Send + Sync> = match &self.vals {
            ColumnVals::Void { .. } => return None,
            ColumnVals::Oid(a) => a.clone(),
            ColumnVals::Bool(a) => a.clone(),
            ColumnVals::Chr(a) => a.clone(),
            ColumnVals::Int(a) | ColumnVals::Date(a) => a.clone(),
            ColumnVals::Lng(a) => a.clone(),
            ColumnVals::Dbl(a) => a.clone(),
            ColumnVals::Str(s) => s.offsets().clone(),
            ColumnVals::DictStr(d) => d.clone(),
        };
        Some(Arc::downgrade(&strong))
    }

    /// A raw string column's byte heap, which its gathers and slices share
    /// (the allocation [`Column::storage`] names is its offset array);
    /// `None` for every other column.
    pub(crate) fn str_heap(&self) -> Option<&Arc<Buf<u8>>> {
        match &self.vals {
            ColumnVals::Str(s) => Some(s.heap()),
            _ => None,
        }
    }

    /// Window `(offset, length)` into the shared storage, used by the pager
    /// to compute byte addresses.
    pub(crate) fn window(&self) -> (usize, usize) {
        (self.off, self.len)
    }

    /// Zero-copy sub-window view: shares the storage (`ColumnVals` clones
    /// are `Arc` bumps) and keeps the storage id, so slices of synced
    /// columns remain comparable — the window tells them apart.
    pub fn slice(&self, start: usize, len: usize) -> Column {
        assert!(start + len <= self.len, "slice out of bounds");
        Column { vals: self.vals.clone(), id: self.id, off: self.off + start, len }
    }

    /// Generic accessor. Allocates for strings; bulk code should prefer the
    /// typed slice accessors.
    pub fn get(&self, i: usize) -> AtomValue {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let j = self.off + i;
        match &self.vals {
            ColumnVals::Void { seq } => AtomValue::Oid(seq + j as Oid),
            ColumnVals::Oid(v) => AtomValue::Oid(v[j]),
            ColumnVals::Bool(v) => AtomValue::Bool(v[j]),
            ColumnVals::Chr(v) => AtomValue::Chr(v[j]),
            ColumnVals::Int(v) => AtomValue::Int(v[j]),
            ColumnVals::Lng(v) => AtomValue::Lng(v[j]),
            ColumnVals::Dbl(v) => AtomValue::Dbl(v[j]),
            ColumnVals::Str(v) => AtomValue::Str(v.get(j).into()),
            ColumnVals::Date(v) => AtomValue::Date(Date(v[j])),
            ColumnVals::DictStr(d) => AtomValue::Str(d.dict.get(d.code(j)).into()),
        }
    }

    /// Oid at position `i`; works for both `oid` and `void` columns.
    pub fn oid_at(&self, i: usize) -> Oid {
        debug_assert!(i < self.len);
        let j = self.off + i;
        match &self.vals {
            ColumnVals::Void { seq } => seq + j as Oid,
            ColumnVals::Oid(v) => v[j],
            _ => panic!("oid_at on {:?} column", self.atom_type()),
        }
    }

    pub fn int_at(&self, i: usize) -> i32 {
        match &self.vals {
            ColumnVals::Int(v) => v[self.off + i],
            _ => panic!("int_at on {:?} column", self.atom_type()),
        }
    }

    pub fn lng_at(&self, i: usize) -> i64 {
        match &self.vals {
            ColumnVals::Lng(v) => v[self.off + i],
            _ => panic!("lng_at on {:?} column", self.atom_type()),
        }
    }

    pub fn dbl_at(&self, i: usize) -> f64 {
        match &self.vals {
            ColumnVals::Dbl(v) => v[self.off + i],
            _ => panic!("dbl_at on {:?} column", self.atom_type()),
        }
    }

    pub fn chr_at(&self, i: usize) -> u8 {
        match &self.vals {
            ColumnVals::Chr(v) => v[self.off + i],
            _ => panic!("chr_at on {:?} column", self.atom_type()),
        }
    }

    pub fn bool_at(&self, i: usize) -> bool {
        match &self.vals {
            ColumnVals::Bool(v) => v[self.off + i],
            _ => panic!("bool_at on {:?} column", self.atom_type()),
        }
    }

    pub fn date_at(&self, i: usize) -> Date {
        match &self.vals {
            ColumnVals::Date(v) => Date(v[self.off + i]),
            _ => panic!("date_at on {:?} column", self.atom_type()),
        }
    }

    pub fn str_at(&self, i: usize) -> &str {
        match &self.vals {
            ColumnVals::Str(v) => v.get(self.off + i),
            ColumnVals::DictStr(d) => d.dict.get(d.code(self.off + i)),
            _ => panic!("str_at on {:?} column", self.atom_type()),
        }
    }

    /// Resolve this window to a [`crate::typed::TypedSlice`] **once** — the
    /// entry point of the dispatch-once kernel layer (see [`crate::typed`]
    /// and the `for_each_typed!` family of macros). Bulk code must prefer
    /// this over the per-element `get`/`cmp_at`/`hash_at` accessors.
    pub fn typed(&self) -> crate::typed::TypedSlice<'_> {
        typed_vals(&self.vals, self.off, self.len)
    }

    /// Typed whole-window slice for fixed-width types (None for void/str).
    pub fn as_oid_slice(&self) -> Option<&[Oid]> {
        match &self.vals {
            ColumnVals::Oid(v) => Some(&v[self.off..self.off + self.len]),
            _ => None,
        }
    }

    pub fn as_int_slice(&self) -> Option<&[i32]> {
        match &self.vals {
            ColumnVals::Int(v) => Some(&v[self.off..self.off + self.len]),
            _ => None,
        }
    }

    pub fn as_lng_slice(&self) -> Option<&[i64]> {
        match &self.vals {
            ColumnVals::Lng(v) => Some(&v[self.off..self.off + self.len]),
            _ => None,
        }
    }

    pub fn as_dbl_slice(&self) -> Option<&[f64]> {
        match &self.vals {
            ColumnVals::Dbl(v) => Some(&v[self.off..self.off + self.len]),
            _ => None,
        }
    }

    pub fn as_chr_slice(&self) -> Option<&[u8]> {
        match &self.vals {
            ColumnVals::Chr(v) => Some(&v[self.off..self.off + self.len]),
            _ => None,
        }
    }

    pub fn as_bool_slice(&self) -> Option<&[bool]> {
        match &self.vals {
            ColumnVals::Bool(v) => Some(&v[self.off..self.off + self.len]),
            _ => None,
        }
    }

    pub fn as_date_slice(&self) -> Option<&[i32]> {
        match &self.vals {
            ColumnVals::Date(v) => Some(&v[self.off..self.off + self.len]),
            _ => None,
        }
    }

    /// String storage view, if this is a string column.
    pub fn as_strvec(&self) -> Option<StrVecView<'_>> {
        match &self.vals {
            ColumnVals::Str(v) => Some(StrVecView { sv: v, off: self.off, len: self.len }),
            _ => None,
        }
    }

    /// The dense start for void columns.
    pub fn void_seq(&self) -> Option<Oid> {
        match &self.vals {
            ColumnVals::Void { seq } => Some(seq + self.off as Oid),
            _ => None,
        }
    }

    /// Compare values at positions `i` (self) and `j` (other). Columns must
    /// hold the same atom type (oid/void interoperate).
    pub fn cmp_at(&self, i: usize, other: &Column, j: usize) -> Ordering {
        use ColumnVals::*;
        if self.encoding() != Enc::None || other.encoding() != Enc::None {
            // Generic comparisons route through the cached decode; bulk
            // code reaches encoded layouts through the typed kernels.
            return self.decoded().cmp_at(i, &other.decoded(), j);
        }
        match (&self.vals, &other.vals) {
            (Int(a), Int(b)) => a[self.off + i].cmp(&b[other.off + j]),
            (Lng(a), Lng(b)) => a[self.off + i].cmp(&b[other.off + j]),
            (Dbl(a), Dbl(b)) => a[self.off + i].total_cmp(&b[other.off + j]),
            (Chr(a), Chr(b)) => a[self.off + i].cmp(&b[other.off + j]),
            (Bool(a), Bool(b)) => a[self.off + i].cmp(&b[other.off + j]),
            (Date(a), Date(b)) => a[self.off + i].cmp(&b[other.off + j]),
            (Str(a), Str(b)) => a.get(self.off + i).cmp(b.get(other.off + j)),
            _ if self.is_oidlike() && other.is_oidlike() => self.oid_at(i).cmp(&other.oid_at(j)),
            _ => {
                panic!("cmp_at on mixed column types {} vs {}", self.atom_type(), other.atom_type())
            }
        }
    }

    /// Compare the value at position `i` against a scalar of the same type.
    pub fn cmp_val(&self, i: usize, v: &AtomValue) -> Ordering {
        use ColumnVals::*;
        if self.encoding() != Enc::None {
            return self.decoded().cmp_val(i, v);
        }
        match (&self.vals, v) {
            (Int(a), AtomValue::Int(b)) => a[self.off + i].cmp(b),
            (Lng(a), AtomValue::Lng(b)) => a[self.off + i].cmp(b),
            (Dbl(a), AtomValue::Dbl(b)) => a[self.off + i].total_cmp(b),
            (Chr(a), AtomValue::Chr(b)) => a[self.off + i].cmp(b),
            (Bool(a), AtomValue::Bool(b)) => a[self.off + i].cmp(b),
            (Date(a), AtomValue::Date(b)) => crate::atom::Date(a[self.off + i]).cmp(b),
            (Str(a), AtomValue::Str(b)) => a.get(self.off + i).cmp(&**b),
            _ if self.is_oidlike() && v.as_oid().is_some() => {
                self.oid_at(i).cmp(&v.as_oid().unwrap())
            }
            _ => panic!("cmp_val on mixed types {} vs {}", self.atom_type(), v.atom_type()),
        }
    }

    /// Equality of values at positions `i` (self) and `j` (other).
    pub fn eq_at(&self, i: usize, other: &Column, j: usize) -> bool {
        self.cmp_at(i, other, j) == Ordering::Equal
    }

    /// 64-bit hash of the value at `i`, suitable for hash joins. Equal
    /// values (per `cmp_at == Equal`) hash equally, including oid vs void.
    pub fn hash_at(&self, i: usize) -> u64 {
        use ColumnVals::*;
        let j = self.off + i;
        match &self.vals {
            Void { seq } => fxhash64(seq + j as u64),
            Oid(v) => fxhash64(v[j]),
            Bool(v) => fxhash64(v[j] as u64),
            Chr(v) => fxhash64(v[j] as u64),
            Int(v) => fxhash64(v[j] as u64),
            Lng(v) => fxhash64(v[j] as u64),
            Dbl(v) => fxhash64(v[j].to_bits()),
            Date(v) => fxhash64(v[j] as u64),
            Str(v) => fnv1a(v.get(j).as_bytes()),
            DictStr(d) => fnv1a(d.dict.get(d.code(j)).as_bytes()),
        }
    }

    /// Materialize the values selected by `idx` (in order) into a fresh
    /// column. Void columns materialize into oid columns.
    pub fn gather(&self, idx: &[u32]) -> Column {
        use ColumnVals::*;
        match &self.vals {
            Void { seq } => Column::from_oids(
                idx.iter().map(|&i| seq + (self.off + i as usize) as u64).collect(),
            ),
            Oid(v) => Column::from_oids(idx.iter().map(|&i| v[self.off + i as usize]).collect()),
            Bool(v) => Column::from_bools(idx.iter().map(|&i| v[self.off + i as usize]).collect()),
            Chr(v) => Column::from_chrs(idx.iter().map(|&i| v[self.off + i as usize]).collect()),
            Int(v) => Column::from_ints(idx.iter().map(|&i| v[self.off + i as usize]).collect()),
            Lng(v) => Column::from_lngs(idx.iter().map(|&i| v[self.off + i as usize]).collect()),
            Dbl(v) => Column::from_dbls(idx.iter().map(|&i| v[self.off + i as usize]).collect()),
            Date(v) => {
                Column::from_date_days(idx.iter().map(|&i| v[self.off + i as usize]).collect())
            }
            Str(v) => {
                let adjusted: Vec<u32> =
                    idx.iter().map(|&i| (self.off + i as usize) as u32).collect();
                Column::from_strvec(v.gather(&adjusted))
            }
            DictStr(d) => {
                // Gather the codes at their width; the dictionary is shared
                // untouched, so the result stays dict-encoded (and
                // order-preserving).
                let codes = match &d.codes {
                    DictCodes::W8(v) => {
                        DictCodes::W8(idx.iter().map(|&i| v[self.off + i as usize]).collect())
                    }
                    DictCodes::W16(v) => {
                        DictCodes::W16(idx.iter().map(|&i| v[self.off + i as usize]).collect())
                    }
                    DictCodes::W32(v) => {
                        DictCodes::W32(idx.iter().map(|&i| v[self.off + i as usize]).collect())
                    }
                };
                let len = codes.len();
                Column::new(
                    ColumnVals::DictStr(Arc::new(DictStrData {
                        codes,
                        dict: d.dict.clone(),
                        decoded: OnceLock::new(),
                    })),
                    len,
                )
            }
        }
    }

    /// Concatenate many same-typed columns in order with a single output
    /// allocation. `void` and `oid` parts combine into a materialized oid
    /// column; genuinely mixed types panic (operators type-check first).
    /// This is how the scan-shaped operators stitch their per-morsel output
    /// columns back together, in morsel order, and how `union` and
    /// `concat` join their two operands.
    pub fn concat_all(parts: &[Column]) -> Column {
        use ColumnVals::*;
        let total: usize = parts.iter().map(Column::len).sum();
        let first = parts.first().expect("concat_all of zero columns");
        if parts.iter().any(|p| p.encoding() != Enc::None) {
            // Morsel outputs of a dict-coded scan all share the source
            // dictionary: splice their codes and keep the encoding. Any
            // other encoded mix routes through the raw decode — values are
            // identical either way.
            if let Some(c) = dict_splice(parts, total) {
                return c;
            }
            let decoded: Vec<Column> = parts.iter().map(Column::decoded).collect();
            return Column::concat_all(&decoded);
        }
        macro_rules! splice_fixed {
            ($variant:ident, $ty:ty, $build:path) => {{
                let mut out: Vec<$ty> = Vec::with_capacity(total);
                for p in parts {
                    match &p.vals {
                        $variant(v) => out.extend_from_slice(&v[p.off..p.off + p.len]),
                        _ => panic!(
                            "concat_all on mixed column types {} vs {}",
                            first.atom_type(),
                            p.atom_type()
                        ),
                    }
                }
                $build(out)
            }};
        }
        match &first.vals {
            Bool(_) => splice_fixed!(Bool, bool, Column::from_bools),
            Chr(_) => splice_fixed!(Chr, u8, Column::from_chrs),
            Int(_) => splice_fixed!(Int, i32, Column::from_ints),
            Lng(_) => splice_fixed!(Lng, i64, Column::from_lngs),
            Dbl(_) => splice_fixed!(Dbl, f64, Column::from_dbls),
            Date(_) => splice_fixed!(Date, i32, Column::from_date_days),
            Str(_) => {
                let bytes: usize =
                    parts.iter().filter_map(|p| p.as_strvec()).map(|v| v.heap_bytes()).sum();
                let mut builder = StrHeapBuilder::with_capacity(total, bytes / total.max(1));
                for p in parts {
                    let v = p.as_strvec().unwrap_or_else(|| {
                        panic!(
                            "concat_all on mixed column types {} vs {}",
                            first.atom_type(),
                            p.atom_type()
                        )
                    });
                    for i in 0..p.len {
                        builder.push(v.get(i));
                    }
                }
                Column::from_strvec(builder.finish())
            }
            Void { .. } | Oid(_) => {
                let mut out: Vec<crate::atom::Oid> = Vec::with_capacity(total);
                for p in parts {
                    assert!(p.is_oidlike(), "concat_all on mixed column types");
                    for i in 0..p.len {
                        out.push(p.oid_at(i));
                    }
                }
                Column::from_oids(out)
            }
            DictStr(_) => {
                unreachable!("encoded parts routed through the decode prelude above")
            }
        }
    }

    /// Stable argsort of the window: returns positions in ascending value
    /// order. Used for datavector creation ("Sort on Tail", Figure 7) and
    /// the load-phase reordering of Section 6. Typed **direct** sort: the
    /// fixed-width types map to order-preserving `u64` keys sorted by an
    /// adaptive counting/LSD-radix pass (O(n), no comparisons) directly on
    /// the primitive slice — no per-compare indirection through the
    /// permutation.
    pub fn sort_perm(&self) -> Vec<u32> {
        self.sort_typed(false).1
    }

    /// Typed direct sort of the window: the stable ascending permutation
    /// *and* the sorted column in one pass — `sort_tail` consumes both,
    /// skipping the tail re-gather of the old argsort+gather path. The
    /// sorted values fall out of the key sort itself (un-mapped from the
    /// order-preserving keys), so the tail column is built sequentially.
    pub fn sort_direct(&self) -> (Column, Vec<u32>) {
        let (col, perm) = self.sort_typed(true);
        (col.expect("sort_typed(true) returns the sorted column"), perm)
    }

    fn sort_typed(&self, want_column: bool) -> (Option<Column>, Vec<u32>) {
        let n = self.len;
        let col_of = |perm: &[u32]| if want_column { Some(self.gather(perm)) } else { None };
        match &self.vals {
            ColumnVals::Void { .. } => {
                let perm: Vec<u32> = (0..n as u32).collect(); // already sorted
                (want_column.then(|| self.clone()), perm)
            }
            ColumnVals::Oid(v) => {
                let w = &v[self.off..self.off + n];
                let (keys, perm) = radix_sort_keys(w.to_vec());
                (want_column.then(|| Column::from_oids(keys)), perm)
            }
            ColumnVals::Int(v) => {
                let w = &v[self.off..self.off + n];
                let (keys, perm) = radix_sort_keys(w.iter().map(|&x| i32_key(x)).collect());
                let col = want_column
                    .then(|| Column::from_ints(keys.into_iter().map(i32_from_key).collect()));
                (col, perm)
            }
            ColumnVals::Lng(v) => {
                let w = &v[self.off..self.off + n];
                let (keys, perm) = radix_sort_keys(w.iter().map(|&x| i64_key(x)).collect());
                let col = want_column
                    .then(|| Column::from_lngs(keys.into_iter().map(i64_from_key).collect()));
                (col, perm)
            }
            ColumnVals::Dbl(v) => {
                // Order-preserving bit transform: integer order of the keys
                // is exactly IEEE total order, matching `cmp_at`. The
                // un-map is bit-exact, so NaN payloads survive the round
                // trip.
                let w = &v[self.off..self.off + n];
                let (keys, perm) = radix_sort_keys(w.iter().map(|&x| f64_total_key(x)).collect());
                let col = want_column
                    .then(|| Column::from_dbls(keys.into_iter().map(f64_from_total_key).collect()));
                (col, perm)
            }
            ColumnVals::Chr(v) => {
                let w = &v[self.off..self.off + n];
                let perm = counting_sort_perm(w.iter().map(|&c| c as usize), n, 1 << 8);
                (col_of(&perm), perm)
            }
            ColumnVals::Bool(v) => {
                let w = &v[self.off..self.off + n];
                let perm = counting_sort_perm(w.iter().map(|&b| b as usize), n, 2);
                (col_of(&perm), perm)
            }
            ColumnVals::Date(v) => {
                let w = &v[self.off..self.off + n];
                let (keys, perm) = radix_sort_keys(w.iter().map(|&x| i32_key(x)).collect());
                let col = want_column
                    .then(|| Column::from_date_days(keys.into_iter().map(i32_from_key).collect()));
                (col, perm)
            }
            ColumnVals::Str(sv) => {
                let mut pairs: Vec<(&str, u32)> =
                    (0..n).map(|i| (sv.get(self.off + i), i as u32)).collect();
                pairs.sort_unstable();
                let perm: Vec<u32> = pairs.iter().map(|p| p.1).collect();
                (col_of(&perm), perm)
            }
            ColumnVals::DictStr(d) => {
                // Codes are order-preserving, so a stable counting sort over
                // the code domain reproduces the raw string sort exactly —
                // without touching a single byte of string data.
                let perm = counting_sort_perm(
                    (0..n).map(|i| d.code(self.off + i)),
                    n,
                    d.dict.len().max(1),
                );
                (col_of(&perm), perm)
            }
        }
    }

    /// O(n) check: ascending (non-strict) order.
    pub fn check_sorted(&self) -> bool {
        use crate::typed::TypedVals;
        if matches!(self.vals, ColumnVals::Void { .. }) {
            return true;
        }
        crate::for_each_typed!(self, |t| {
            (1..t.len()).all(|i| !t.cmp_one(t.value(i - 1), t.value(i)).is_gt())
        })
    }

    /// Check that all values are distinct (key property).
    pub fn check_key(&self) -> bool {
        use crate::typed::TypedVals;
        if matches!(self.vals, ColumnVals::Void { .. }) {
            return true;
        }
        if self.check_sorted() {
            return crate::for_each_typed!(self, |t| {
                (1..t.len()).all(|i| t.cmp_one(t.value(i - 1), t.value(i)).is_lt())
            });
        }
        let mut seen = std::collections::HashSet::with_capacity(self.len);
        (0..self.len).all(|i| seen.insert(OwnedKey::of(self, i)))
    }

    /// Check that the column is the dense sequence `start..start+len`.
    pub fn check_dense(&self) -> bool {
        match &self.vals {
            ColumnVals::Void { .. } => true,
            ColumnVals::Oid(v) => {
                let w = &v[self.off..self.off + self.len];
                w.windows(2).all(|p| p[1] == p[0] + 1)
            }
            _ => false,
        }
    }

    /// First position whose value is `>= v` (requires ascending order).
    pub fn lower_bound(&self, v: &AtomValue) -> usize {
        use crate::typed::TypedVals;
        crate::for_each_typed!(self, |t| {
            let (mut lo, mut hi) = (0usize, t.len());
            while lo < hi {
                let mid = (lo + hi) / 2;
                if t.cmp_atom(t.value(mid), v).is_lt() {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        })
    }

    /// First position whose value is `> v` (requires ascending order).
    pub fn upper_bound(&self, v: &AtomValue) -> usize {
        use crate::typed::TypedVals;
        crate::for_each_typed!(self, |t| {
            let (mut lo, mut hi) = (0usize, t.len());
            while lo < hi {
                let mid = (lo + hi) / 2;
                if t.cmp_atom(t.value(mid), v).is_gt() {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        })
    }

    /// Bytes of heap storage attributable to this window: fixed part plus,
    /// for strings, the shared variable heap (counted in full — consistent
    /// with how Monet accounts a BAT's heaps). Encoded layouts report their
    /// *physical* size — codes and dictionary, not the logical decode — which
    /// is what `ctx.record` and the MemTracker budget charge.
    pub fn bytes(&self) -> usize {
        match &self.vals {
            ColumnVals::Str(v) => self.atom_type().width() * self.len + v.heap_bytes(),
            ColumnVals::DictStr(d) => {
                // Narrow codes + the dictionary's own entries and byte heap.
                d.codes.width() * self.len
                    + AtomType::Str.width() * d.dict.len()
                    + d.dict.heap_bytes()
            }
            _ => self.atom_type().width() * self.len,
        }
    }

    /// A raw-layout column holding the same values at the same positions.
    /// The result keeps this view's identity triple `(id, off, len)` —
    /// decoding is positionally exact, so synced-ness survives it. Raw
    /// columns return themselves (an `Arc` bump).
    pub fn decoded(&self) -> Column {
        let vals = match &self.vals {
            ColumnVals::DictStr(d) => ColumnVals::Str(d.decoded().clone()),
            _ => return self.clone(),
        };
        Column { vals, id: self.id, off: self.off, len: self.len }
    }

    /// Re-encode a string window into dictionary codes when that pays off;
    /// returns a clone unchanged otherwise (already encoded, not a string
    /// column, or no size win). Every other type stays raw. Encoded results
    /// carry the same values — verified by the `ops_props` equivalence
    /// suite — but a fresh storage identity (re-encoding a base column must
    /// bump the Db epoch).
    pub fn encode(&self) -> Column {
        if self.encoding() != Enc::None || self.len == 0 {
            return self.clone();
        }
        self.encode_dict().unwrap_or_else(|| self.clone())
    }

    /// Order-preserving dictionary encoding for string columns: sorted
    /// duplicate-free dictionary + codes at the narrowest width the
    /// dictionary size allows. `None` when the encoded form would not be
    /// smaller than the raw layout (e.g. mostly-unique values, where even
    /// u8 codes cannot pay for the extra dictionary offsets).
    fn encode_dict(&self) -> Option<Column> {
        let sv = self.as_strvec()?;
        let n = self.len;
        let mut uniq: Vec<&str> = (0..n).map(|i| sv.get(i)).collect();
        uniq.sort_unstable();
        uniq.dedup();
        let u = uniq.len();
        let dict_heap: usize = uniq.iter().map(|s| s.len()).sum();
        let enc_bytes = DictCodes::width_for(u) * n + AtomType::Str.width() * u + dict_heap;
        if enc_bytes >= self.bytes() {
            return None;
        }
        let code_of: std::collections::HashMap<&str, u32> =
            uniq.iter().enumerate().map(|(c, &s)| (s, c as u32)).collect();
        let mut b = StrHeapBuilder::with_capacity(u, dict_heap / u.max(1));
        for s in &uniq {
            b.push(s);
        }
        let dict = b.finish();
        let wide = (0..n).map(|i| code_of[sv.get(i)]);
        let codes = match DictCodes::width_for(u) {
            1 => DictCodes::W8(wide.map(|c| c as u8).collect()),
            2 => DictCodes::W16(wide.map(|c| c as u16).collect()),
            _ => DictCodes::W32(wide.collect()),
        };
        Some(Column::new(
            ColumnVals::DictStr(Arc::new(DictStrData { codes, dict, decoded: OnceLock::new() })),
            n,
        ))
    }

    /// Iterate generically over the window.
    pub fn iter(&self) -> impl Iterator<Item = AtomValue> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Whether this view covers its entire backing storage — the
    /// precondition of [`Column::storage_repr`]. The store writer compacts
    /// partial windows (via an identity gather) before serializing.
    pub(crate) fn is_full_window(&self) -> bool {
        if self.off != 0 {
            return false;
        }
        let storage_len = match &self.vals {
            ColumnVals::Void { .. } => return true,
            ColumnVals::Oid(v) => v.len(),
            ColumnVals::Bool(v) => v.len(),
            ColumnVals::Chr(v) => v.len(),
            ColumnVals::Int(v) => v.len(),
            ColumnVals::Lng(v) => v.len(),
            ColumnVals::Dbl(v) => v.len(),
            ColumnVals::Date(v) => v.len(),
            ColumnVals::Str(v) => v.len(),
            ColumnVals::DictStr(d) => d.codes.len(),
        };
        self.len == storage_len
    }

    /// Borrow the full physical storage for the store writer. Panics when
    /// the view is a partial window (callers compact first, see
    /// [`Column::is_full_window`]).
    pub(crate) fn storage_repr(&self) -> StorageRepr<'_> {
        assert!(self.is_full_window(), "storage_repr on a partial window");
        match &self.vals {
            ColumnVals::Void { seq } => StorageRepr::Void { seq: *seq },
            ColumnVals::Oid(v) => StorageRepr::Oid(v),
            ColumnVals::Bool(v) => StorageRepr::Bool(v),
            ColumnVals::Chr(v) => StorageRepr::Chr(v),
            ColumnVals::Int(v) => StorageRepr::Int(v),
            ColumnVals::Lng(v) => StorageRepr::Lng(v),
            ColumnVals::Dbl(v) => StorageRepr::Dbl(v),
            ColumnVals::Date(v) => StorageRepr::Date(v),
            ColumnVals::Str(v) => StorageRepr::Str(v),
            ColumnVals::DictStr(d) => {
                StorageRepr::DictStr { codes: d.codes.window(0, self.len), dict: &d.dict }
            }
        }
    }
}

/// The full physical storage of a column, borrowed for serialization.
pub(crate) enum StorageRepr<'a> {
    Void { seq: Oid },
    Oid(&'a [Oid]),
    Bool(&'a [bool]),
    Chr(&'a [u8]),
    Int(&'a [i32]),
    Lng(&'a [i64]),
    Dbl(&'a [f64]),
    Date(&'a [i32]),
    Str(&'a StrVec),
    DictStr { codes: CodeSlice<'a>, dict: &'a StrVec },
}

/// Borrowed view over the string storage of a column window.
pub struct StrVecView<'a> {
    sv: &'a StrVec,
    off: usize,
    len: usize,
}

impl<'a> StrVecView<'a> {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn get(&self, i: usize) -> &'a str {
        assert!(i < self.len);
        self.sv.get(self.off + i)
    }

    /// (heap offset, byte length) of value `i`, for pager accounting.
    pub fn heap_offset(&self, i: usize) -> (u64, u64) {
        self.sv.heap_offset(self.off + i)
    }

    pub fn heap_bytes(&self) -> usize {
        self.sv.heap_bytes()
    }
}

/// Map an `f64` to a `u64` whose unsigned integer order equals IEEE total
/// order (the order of [`f64::total_cmp`]): flip all bits of negatives, the
/// sign bit of non-negatives.
#[inline]
fn f64_total_key(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Exact inverse of [`f64_total_key`] (bit-identical round trip).
#[inline]
fn f64_from_total_key(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// Order-preserving `i32 → u64` key (sign-bit flip) and its inverse.
#[inline]
fn i32_key(v: i32) -> u64 {
    (v as u32 ^ 0x8000_0000) as u64
}

#[inline]
fn i32_from_key(k: u64) -> i32 {
    (k as u32 ^ 0x8000_0000) as i32
}

/// Order-preserving `i64 → u64` key (sign-bit flip) and its inverse.
#[inline]
fn i64_key(v: i64) -> u64 {
    v as u64 ^ (1 << 63)
}

#[inline]
fn i64_from_key(k: u64) -> i64 {
    (k ^ (1 << 63)) as i64
}

/// Stable ascending sort of order-preserving `u64` keys without a single
/// comparison: a counting sort over `key - min` when the range is narrow
/// (at most `max(4n, 2^16)` distinct buckets), else LSD byte-radix passes
/// where a one-scan histogram detects constant bytes so only significant
/// bytes pay a scatter. Returns the sorted keys (the input buffer, reused)
/// and the stable permutation.
fn radix_sort_keys(mut keys: Vec<u64>) -> (Vec<u64>, Vec<u32>) {
    let n = keys.len();
    if n <= 1 {
        return (keys, (0..n as u32).collect());
    }
    let (mut min, mut max) = (u64::MAX, 0u64);
    for &k in &keys {
        min = min.min(k);
        max = max.max(k);
    }
    let range = max - min;
    if range < (4 * n as u64).max(1 << 16) {
        // Counting sort: one histogram, one perm scatter, then the sorted
        // keys are rebuilt by sequential run expansion — no value gather.
        let domain = range as usize + 1;
        let mut offs = vec![0u32; domain];
        for &k in &keys {
            offs[(k - min) as usize] += 1;
        }
        let mut sum = 0u32;
        for o in offs.iter_mut() {
            let c = *o;
            *o = sum;
            sum += c;
        }
        let mut perm = vec![0u32; n];
        for (i, &k) in keys.iter().enumerate() {
            let dst = &mut offs[(k - min) as usize];
            perm[*dst as usize] = i as u32;
            *dst += 1;
        }
        // Post-scatter, `offs[d]` is the end offset of bucket `d`.
        let mut at = 0usize;
        for (d, &end) in offs.iter().enumerate() {
            keys[at..end as usize].fill(min + d as u64);
            at = end as usize;
        }
        return (keys, perm);
    }
    // LSD radix over the bytes of `key - min`; bytes above the range's
    // width are zero for every key and never even histogrammed.
    let passes = ((64 - range.leading_zeros() as usize) + 7) / 8;
    let mut hist = vec![[0u32; 256]; passes];
    for &k in &keys {
        let b = k - min;
        for (p, h) in hist.iter_mut().enumerate() {
            h[((b >> (8 * p)) & 255) as usize] += 1;
        }
    }
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut keys2 = vec![0u64; n];
    let mut perm2 = vec![0u32; n];
    for (p, h) in hist.iter_mut().enumerate() {
        if h.iter().any(|&c| c as usize == n) {
            continue; // every key agrees on this byte
        }
        let mut sum = 0u32;
        for c in h.iter_mut() {
            let x = *c;
            *c = sum;
            sum += x;
        }
        for i in 0..n {
            let k = keys[i];
            let dst = &mut h[(((k - min) >> (8 * p)) & 255) as usize];
            keys2[*dst as usize] = k;
            perm2[*dst as usize] = perm[i];
            *dst += 1;
        }
        std::mem::swap(&mut keys, &mut keys2);
        std::mem::swap(&mut perm, &mut perm2);
    }
    (keys, perm)
}

/// Stable counting sort for keys from a small domain (`chr`, `bool`,
/// dictionary codes): O(n + domain) with no comparisons at all.
fn counting_sort_perm(
    keys: impl Iterator<Item = usize> + Clone,
    n: usize,
    domain: usize,
) -> Vec<u32> {
    let mut starts = vec![0u32; domain + 1];
    for k in keys.clone() {
        starts[k + 1] += 1;
    }
    for d in 0..domain {
        starts[d + 1] += starts[d];
    }
    let mut perm = vec![0u32; n];
    for (i, k) in keys.enumerate() {
        let dst = &mut starts[k];
        perm[*dst as usize] = i as u32;
        *dst += 1;
    }
    perm
}

/// Concatenate dict-encoded parts that all share one dictionary allocation
/// by splicing their code windows — the common shape when morsel outputs of
/// a dict-coded scan are stitched back together. `None` when any part
/// breaks the pattern (caller falls back to the decoding concat).
fn dict_splice(parts: &[Column], total: usize) -> Option<Column> {
    let first = match &parts.first()?.vals {
        ColumnVals::DictStr(d) => d,
        _ => return None,
    };
    // One shared dictionary implies one encode call, hence one code width;
    // a mismatch would be a different encoding generation — bail to the
    // decoding fallback rather than widen silently.
    macro_rules! splice {
        ($variant:ident) => {{
            let mut codes = Vec::with_capacity(total);
            for p in parts {
                match &p.vals {
                    ColumnVals::DictStr(d) if d.dict.same_storage(&first.dict) => match &d.codes {
                        DictCodes::$variant(v) => codes.extend_from_slice(&v[p.off..p.off + p.len]),
                        _ => return None,
                    },
                    _ => return None,
                }
            }
            codes.into()
        }};
    }
    let codes = match &first.codes {
        DictCodes::W8(_) => DictCodes::W8(splice!(W8)),
        DictCodes::W16(_) => DictCodes::W16(splice!(W16)),
        DictCodes::W32(_) => DictCodes::W32(splice!(W32)),
    };
    Some(Column::new(
        ColumnVals::DictStr(Arc::new(DictStrData {
            codes,
            dict: first.dict.clone(),
            decoded: OnceLock::new(),
        })),
        total,
    ))
}

/// Resolve a storage window to a [`crate::typed::TypedSlice`].
fn typed_vals(vals: &ColumnVals, off: usize, len: usize) -> crate::typed::TypedSlice<'_> {
    use crate::typed::{DictStrVals, StrVals, TypedSlice, VoidVals};
    match vals {
        ColumnVals::Void { seq } => TypedSlice::Void(VoidVals { seq: seq + off as Oid, len }),
        ColumnVals::Oid(v) => TypedSlice::Oid(&v[off..off + len]),
        ColumnVals::Bool(v) => TypedSlice::Bool(&v[off..off + len]),
        ColumnVals::Chr(v) => TypedSlice::Chr(&v[off..off + len]),
        ColumnVals::Int(v) => TypedSlice::Int(&v[off..off + len]),
        ColumnVals::Lng(v) => TypedSlice::Lng(&v[off..off + len]),
        ColumnVals::Dbl(v) => TypedSlice::Dbl(&v[off..off + len]),
        ColumnVals::Date(v) => TypedSlice::Date(&v[off..off + len]),
        ColumnVals::Str(v) => {
            let (offsets, lens, heap) = v.parts(off, len);
            TypedSlice::Str(StrVals::new(offsets, lens, heap))
        }
        ColumnVals::DictStr(d) => {
            let (offsets, lens, heap) = d.dict.parts(0, d.dict.len());
            let dict = StrVals::new(offsets, lens, heap);
            TypedSlice::DictStr(DictStrVals::new(d.codes.window(off, len), dict))
        }
    }
}

/// Owned hashable key for deduplication across all atom types.
#[derive(PartialEq, Eq, Hash)]
enum OwnedKey {
    U64(u64),
    I64(i64),
    Bits(u64),
    Str(Box<str>),
}

impl OwnedKey {
    fn of(c: &Column, i: usize) -> OwnedKey {
        match c.get(i) {
            AtomValue::Void(o) | AtomValue::Oid(o) => OwnedKey::U64(o),
            AtomValue::Bool(b) => OwnedKey::U64(b as u64),
            AtomValue::Chr(v) => OwnedKey::U64(v as u64),
            AtomValue::Int(v) => OwnedKey::I64(v as i64),
            AtomValue::Lng(v) => OwnedKey::I64(v),
            AtomValue::Date(d) => OwnedKey::I64(d.0 as i64),
            AtomValue::Dbl(v) => OwnedKey::Bits(v.to_bits()),
            AtomValue::Str(s) => OwnedKey::Str(s),
        }
    }
}

/// Fast multiplicative hash for 64-bit keys (FxHash-style).
#[inline]
pub fn fxhash64(x: u64) -> u64 {
    // Two rounds of the splitmix64 finalizer: cheap and well distributed.
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Multiplicative word hasher (the `FxHasher` recipe) for small structural
/// keys — CSE's statement shapes, the memory ledger's column identities —
/// where SipHash's flooding resistance buys little: keys crafted to
/// collide cost at most probes quadratic in the size of the one table
/// (per program, per execution) that holds them.
#[derive(Default)]
pub(crate) struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.add(x as u64);
    }

    fn write_u32(&mut self, x: u32) {
        self.add(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }

    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a over bytes, for string hashing.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn void_column_values() {
        let c = Column::void(100, 4);
        assert_eq!(c.len(), 4);
        assert_eq!(c.oid_at(0), 100);
        assert_eq!(c.oid_at(3), 103);
        assert_eq!(c.get(2), AtomValue::Oid(102));
        assert_eq!(c.bytes(), 0);
        assert!(c.check_sorted() && c.check_key() && c.check_dense());
    }

    #[test]
    fn slice_is_zero_copy_and_keeps_identity() {
        let c = Column::from_ints(vec![1, 2, 3, 4, 5]);
        let s = c.slice(1, 3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.int_at(0), 2);
        assert_eq!(s.int_at(2), 4);
        assert_eq!(s.storage_id(), c.storage_id());
        assert_ne!(s.identity(), c.identity());
        let s2 = c.slice(1, 3);
        assert_eq!(s.identity(), s2.identity()); // same window, same identity
    }

    #[test]
    fn void_slice_shifts_seq() {
        let c = Column::void(10, 6);
        let s = c.slice(2, 3);
        assert_eq!(s.void_seq(), Some(12));
        assert_eq!(s.oid_at(0), 12);
    }

    #[test]
    fn gather_all_types() {
        let idx = vec![2u32, 0];
        assert_eq!(
            Column::from_ints(vec![10, 20, 30]).gather(&idx).as_int_slice().unwrap(),
            &[30, 10]
        );
        let sc = Column::from_strs(["x", "y", "z"]).gather(&idx);
        assert_eq!(sc.str_at(0), "z");
        assert_eq!(sc.str_at(1), "x");
        let vc = Column::void(5, 3).gather(&idx);
        assert_eq!(vc.as_oid_slice().unwrap(), &[7, 5]);
    }

    #[test]
    fn concat_all_dict_parts_share_dictionary_or_fall_back() {
        // Two dict columns from *different* encode calls carry different
        // dictionaries (here even different vocabularies): splicing their
        // codes would rebind them through the wrong dictionary, so
        // `dict_splice` must refuse and `concat_all` must route through
        // the decoding fallback with the values intact.
        let a_vals: Vec<String> = (0..64).map(|i| format!("Clerk#{:012}", i % 3)).collect();
        let b_vals: Vec<String> = (0..64).map(|i| format!("Broker#{:012}", i % 5)).collect();
        let a = Column::from_strs(&a_vals).encode();
        let b = Column::from_strs(&b_vals).encode();
        assert_eq!(a.encoding(), Enc::Dict);
        assert_eq!(b.encoding(), Enc::Dict);
        let c = Column::concat_all(&[a.clone(), b.clone()]);
        assert_eq!(c.len(), 128);
        for i in 0..64 {
            assert_eq!(c.str_at(i), a_vals[i], "row {i}: first part corrupted");
            assert_eq!(c.str_at(64 + i), b_vals[i], "row {}: second part corrupted", 64 + i);
        }
        // Two parts in the other order take the same guard.
        let c2 = Column::concat_all(&[b.clone(), a.clone()]);
        assert_eq!(c2.len(), 128);
        assert_eq!(c2.str_at(0), b_vals[0]);
        assert_eq!(c2.str_at(127), a_vals[63]);

        // Windows of ONE encode call share storage: the splice fast path
        // applies and the result stays dict-encoded.
        let parts = [a.slice(0, 20), a.slice(20, 30), a.slice(50, 14)];
        let spliced = Column::concat_all(&parts);
        assert_eq!(spliced.encoding(), Enc::Dict, "shared-dict parts must splice");
        for i in 0..64 {
            assert_eq!(spliced.str_at(i), a_vals[i], "row {i}: spliced part corrupted");
        }
    }

    #[test]
    fn sort_perm_stable() {
        let c = Column::from_ints(vec![3, 1, 3, 2]);
        assert_eq!(c.sort_perm(), vec![1, 3, 0, 2]);
        let s = Column::from_strs(["b", "a", "b"]);
        assert_eq!(s.sort_perm(), vec![1, 0, 2]);
    }

    #[test]
    fn bounds_on_sorted() {
        let c = Column::from_ints(vec![1, 3, 3, 3, 7, 9]);
        assert_eq!(c.lower_bound(&AtomValue::Int(3)), 1);
        assert_eq!(c.upper_bound(&AtomValue::Int(3)), 4);
        assert_eq!(c.lower_bound(&AtomValue::Int(0)), 0);
        assert_eq!(c.upper_bound(&AtomValue::Int(99)), 6);
        assert_eq!(c.lower_bound(&AtomValue::Int(8)), 5);
    }

    #[test]
    fn cmp_and_hash_consistency() {
        let a = Column::from_strs(["alpha", "beta"]);
        let b = Column::from_strs(["beta", "alpha"]);
        assert!(a.eq_at(0, &b, 1));
        assert!(!a.eq_at(0, &b, 0));
        assert_eq!(a.hash_at(1), b.hash_at(0));
        // oid/void interop
        let o = Column::from_oids(vec![5, 6]);
        let v = Column::void(5, 2);
        assert!(o.eq_at(0, &v, 0));
        assert_eq!(o.hash_at(1), v.hash_at(1));
    }

    #[test]
    fn checks_detect_violations() {
        assert!(Column::from_ints(vec![1, 2, 2, 3]).check_sorted());
        assert!(!Column::from_ints(vec![1, 2, 2, 3]).check_key());
        assert!(!Column::from_ints(vec![2, 1]).check_sorted());
        assert!(Column::from_oids(vec![4, 5, 6]).check_dense());
        assert!(!Column::from_oids(vec![4, 6]).check_dense());
        assert!(Column::from_strs(["a", "b", "c"]).check_key());
    }

    #[test]
    fn from_atoms_roundtrip() {
        let vals = vec![AtomValue::Dbl(1.0), AtomValue::Dbl(2.5)];
        let c = Column::from_atoms(AtomType::Dbl, vals.clone());
        assert_eq!(c.iter().collect::<Vec<_>>(), vals);
    }

    #[test]
    fn dbl_total_order_sort() {
        let c = Column::from_dbls(vec![2.0, -1.0, 0.5]);
        assert_eq!(c.sort_perm(), vec![1, 2, 0]);
    }
}
