//! Typed column views: dispatch **once per operator call**, not once per row.
//!
//! The paper's central performance claim is that bulk BAT primitives beat
//! tuple-at-a-time interpretation because every MIL operator runs a
//! type-expanded tight loop over dense arrays (Sections 4.2, 5.1). The
//! generic accessors on [`Column`] (`get`, `cmp_at`, `hash_at`, ...) decide
//! the column type again for *every element* — exactly the per-row
//! interpretation overhead the flattened algebra exists to avoid.
//!
//! This module is the kernel's answer: a [`TypedSlice`] is resolved from a
//! column *once*, and the [`for_each_typed!`]/[`for_each_typed2!`] macros
//! monomorphize an operator body over the concrete element type, so the
//! per-row work is a plain slice index plus an inlined compare/hash with no
//! enum dispatch. Every new operator must go through these macros — the
//! generic row-wise forms survive only in [`crate::ops::reference`], as the
//! oracle that property tests compare the specialized kernels against.
//!
//! # The dispatch-once contract, by example
//!
//! A selection scan written against the generic layer pays one
//! `ColumnVals` match (and for strings a UTF-8 revalidation) per row:
//!
//! ```ignore
//! let idx: Vec<u32> =
//!     (0..ab.len()).filter(|&i| tail.cmp_val(i, v).is_eq()).map(|i| i as u32).collect();
//! ```
//!
//! The typed form resolves the tail type a single time; the nine
//! monomorphized loop bodies compile down to branch-free scans over `&[T]`:
//!
//! ```
//! use monet::atom::AtomValue;
//! use monet::column::Column;
//! use monet::for_each_typed;
//! use monet::typed::TypedVals;
//!
//! let tail = Column::from_ints(vec![3, 7, 3, 9]);
//! let v = AtomValue::Int(3);
//! let idx: Vec<u32> = for_each_typed!(&tail, |t| {
//!     let mut idx = Vec::with_capacity(t.len());
//!     for i in 0..t.len() {
//!         if t.cmp_atom(t.value(i), &v).is_eq() {
//!             idx.push(i as u32);
//!         }
//!     }
//!     idx
//! });
//! assert_eq!(idx, vec![0, 2]);
//! ```
//!
//! `t` is bound to a different concrete [`TypedVals`] implementor in each
//! macro arm — `&[i32]` here — so `t.value(i)` is a slice index and
//! `t.cmp_atom` an integer compare, both inlined.

use std::cmp::Ordering;

use crate::atom::{AtomValue, Oid};
use crate::column::{fnv1a, fxhash64, Column};

/// Uniform element-level interface of one typed column window. Implementors
/// are `Copy` views (slices or tiny structs), so operator bodies can pass
/// them around freely; all methods are trivially inlinable.
///
/// Hashing and comparison agree exactly with the generic
/// [`Column::hash_at`]/[`Column::cmp_at`], so typed and generic code can
/// cooperate on the same hash tables.
pub trait TypedVals: Copy {
    /// Element type of the window (`i32`, `&str`, ...). `Copy` so values can
    /// be hoisted out of probe loops.
    type Elem: Copy;

    /// Number of elements in the window.
    fn len(&self) -> usize;

    /// True when the window is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element at position `i` (a slice index; no type dispatch).
    fn value(&self, i: usize) -> Self::Elem;

    /// Hash of one element, consistent with [`Column::hash_at`].
    fn hash_one(&self, v: Self::Elem) -> u64;

    /// Total-order comparison of two elements, consistent with
    /// [`Column::cmp_at`] (doubles use IEEE total ordering).
    fn cmp_one(&self, a: Self::Elem, b: Self::Elem) -> Ordering;

    /// Equality of two elements.
    #[inline]
    fn eq_one(&self, a: Self::Elem, b: Self::Elem) -> bool {
        self.cmp_one(a, b).is_eq()
    }

    /// Compare one element against a scalar constant, consistent with
    /// [`Column::cmp_val`]. Panics on incomparable types — operators have
    /// already type-checked their arguments.
    fn cmp_atom(&self, v: Self::Elem, atom: &AtomValue) -> Ordering;
}

/// The virtual dense sequence (`void` columns): value at `i` is `seq + i`.
#[derive(Debug, Clone, Copy)]
pub struct VoidVals {
    pub seq: Oid,
    pub len: usize,
}

impl TypedVals for VoidVals {
    type Elem = Oid;

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn value(&self, i: usize) -> Oid {
        debug_assert!(i < self.len);
        self.seq + i as Oid
    }

    #[inline]
    fn hash_one(&self, v: Oid) -> u64 {
        fxhash64(v)
    }

    #[inline]
    fn cmp_one(&self, a: Oid, b: Oid) -> Ordering {
        a.cmp(&b)
    }

    #[inline]
    fn cmp_atom(&self, v: Oid, atom: &AtomValue) -> Ordering {
        match atom.as_oid() {
            Some(o) => v.cmp(&o),
            None => panic!("cmp_atom: oid column vs {} constant", atom.atom_type()),
        }
    }
}

macro_rules! impl_fixed_vals {
    ($ty:ty, |$v:ident| $hash:expr, |$a:ident, $b:ident| $cmp:expr,
     |$x:ident, $atom:ident| $cmp_atom:expr) => {
        impl<'a> TypedVals for &'a [$ty] {
            type Elem = $ty;

            #[inline]
            fn len(&self) -> usize {
                <[$ty]>::len(self)
            }

            #[inline]
            fn value(&self, i: usize) -> $ty {
                self[i]
            }

            #[inline]
            fn hash_one(&self, $v: $ty) -> u64 {
                $hash
            }

            #[inline]
            fn cmp_one(&self, $a: $ty, $b: $ty) -> Ordering {
                $cmp
            }

            #[inline]
            fn cmp_atom(&self, $x: $ty, $atom: &AtomValue) -> Ordering {
                $cmp_atom
            }
        }
    };
}

impl_fixed_vals!(Oid, |v| fxhash64(v), |a, b| a.cmp(&b), |x, atom| match atom.as_oid() {
    Some(o) => x.cmp(&o),
    None => panic!("cmp_atom: oid column vs {} constant", atom.atom_type()),
});

impl_fixed_vals!(bool, |v| fxhash64(v as u64), |a, b| a.cmp(&b), |x, atom| match atom {
    AtomValue::Bool(b) => x.cmp(b),
    other => panic!("cmp_atom: bool column vs {} constant", other.atom_type()),
});

impl_fixed_vals!(u8, |v| fxhash64(v as u64), |a, b| a.cmp(&b), |x, atom| match atom {
    AtomValue::Chr(c) => x.cmp(c),
    other => panic!("cmp_atom: chr column vs {} constant", other.atom_type()),
});

// `&[i32]` backs both `int` and `date` columns (dates are day counts); the
// scalar compare accepts either constant kind, the operator layer has
// already rejected genuinely mixed comparisons.
impl_fixed_vals!(i32, |v| fxhash64(v as u64), |a, b| a.cmp(&b), |x, atom| match atom {
    AtomValue::Int(b) => x.cmp(b),
    AtomValue::Date(d) => x.cmp(&d.0),
    other => panic!("cmp_atom: int/date column vs {} constant", other.atom_type()),
});

impl_fixed_vals!(i64, |v| fxhash64(v as u64), |a, b| a.cmp(&b), |x, atom| match atom {
    AtomValue::Lng(b) => x.cmp(b),
    other => panic!("cmp_atom: lng column vs {} constant", other.atom_type()),
});

impl_fixed_vals!(f64, |v| fxhash64(v.to_bits()), |a, b| a.total_cmp(&b), |x, atom| match atom {
    AtomValue::Dbl(b) => x.total_cmp(b),
    other => panic!("cmp_atom: dbl column vs {} constant", other.atom_type()),
});

/// Borrowed view of a string column window: per-value byte windows into the
/// shared heap. `value(i)` skips the UTF-8 revalidation of the generic path
/// (the heap invariant guarantees validity — see [`crate::strheap`]).
#[derive(Debug, Clone, Copy)]
pub struct StrVals<'a> {
    offsets: &'a [u32],
    lens: &'a [u32],
    heap: &'a [u8],
}

impl<'a> StrVals<'a> {
    pub(crate) fn new(offsets: &'a [u32], lens: &'a [u32], heap: &'a [u8]) -> StrVals<'a> {
        debug_assert_eq!(offsets.len(), lens.len());
        StrVals { offsets, lens, heap }
    }
}

impl<'a> TypedVals for StrVals<'a> {
    type Elem = &'a str;

    #[inline]
    fn len(&self) -> usize {
        self.offsets.len()
    }

    #[inline]
    fn value(&self, i: usize) -> &'a str {
        let off = self.offsets[i] as usize;
        let bytes = &self.heap[off..off + self.lens[i] as usize];
        debug_assert!(std::str::from_utf8(bytes).is_ok(), "string window is not UTF-8");
        // SAFETY: the heap is only ever written by `StrHeapBuilder`, which
        // copies whole `&str` values and records their exact byte windows in
        // (offsets, lens), and a store-opened heap is validated at open — so
        // every addressed window is valid UTF-8 (checked above in debug
        // builds).
        unsafe { std::str::from_utf8_unchecked(bytes) }
    }

    #[inline]
    fn hash_one(&self, v: &'a str) -> u64 {
        fnv1a(v.as_bytes())
    }

    #[inline]
    fn cmp_one(&self, a: &'a str, b: &'a str) -> Ordering {
        a.cmp(b)
    }

    #[inline]
    fn cmp_atom(&self, x: &'a str, atom: &AtomValue) -> Ordering {
        match atom {
            AtomValue::Str(s) => x.cmp(&&**s),
            other => panic!("cmp_atom: str column vs {} constant", other.atom_type()),
        }
    }
}

/// Window over the narrow unsigned deltas of a frame-of-reference column,
/// shared by [`ForIntVals`] and [`ForLngVals`]. The width branch sits
/// inside each access; it predicts perfectly (one width per column), so
/// the per-row cost stays a load + add without tripling the macro arms.
#[derive(Debug, Clone, Copy)]
pub enum ForDeltaSlice<'a> {
    W8(&'a [u8]),
    W16(&'a [u16]),
    W32(&'a [u32]),
}

impl ForDeltaSlice<'_> {
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ForDeltaSlice::W8(v) => v.len(),
            ForDeltaSlice::W16(v) => v.len(),
            ForDeltaSlice::W32(v) => v.len(),
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        match self {
            ForDeltaSlice::W8(v) => v[i] as u64,
            ForDeltaSlice::W16(v) => v[i] as u64,
            ForDeltaSlice::W32(v) => v[i] as u64,
        }
    }

    /// `slice::partition_point` over the widened values; used by the
    /// dict-code binary-search select on sorted code windows.
    #[inline]
    pub fn partition_point(&self, mut pred: impl FnMut(u64) -> bool) -> usize {
        match self {
            ForDeltaSlice::W8(v) => v.partition_point(|&x| pred(x as u64)),
            ForDeltaSlice::W16(v) => v.partition_point(|&x| pred(x as u64)),
            ForDeltaSlice::W32(v) => v.partition_point(|&x| pred(x as u64)),
        }
    }
}

/// Window over a dictionary-encoded string column: per-row narrow codes
/// (u8/u16/u32, chosen by dictionary size — the bit-width reduction that
/// makes dict pay even against a deduplicated raw heap) plus the (sorted,
/// duplicate-free) dictionary as a [`StrVals`]. `Elem` is the decoded
/// `&str`, so every generic kernel body — hash, compare, equality —
/// behaves exactly like the raw string window; specialized paths reach the
/// codes through [`DictStrVals::codes`] and exploit order preservation.
#[derive(Debug, Clone, Copy)]
pub struct DictStrVals<'a> {
    codes: ForDeltaSlice<'a>,
    dict: StrVals<'a>,
}

impl<'a> DictStrVals<'a> {
    pub(crate) fn new(codes: ForDeltaSlice<'a>, dict: StrVals<'a>) -> DictStrVals<'a> {
        DictStrVals { codes, dict }
    }

    /// The per-row dictionary codes (order-preserving: code order is
    /// string order), at their physical width.
    #[inline]
    pub fn codes(&self) -> ForDeltaSlice<'a> {
        self.codes
    }

    /// The widened code of row `i`.
    #[inline]
    pub fn code_at(&self, i: usize) -> usize {
        self.codes.get(i) as usize
    }

    /// The dictionary window (sorted, duplicate-free strings).
    #[inline]
    pub fn dict(&self) -> StrVals<'a> {
        self.dict
    }

    /// Number of dictionary entries (the code domain).
    #[inline]
    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }
}

impl<'a> TypedVals for DictStrVals<'a> {
    type Elem = &'a str;

    #[inline]
    fn len(&self) -> usize {
        self.codes.len()
    }

    #[inline]
    fn value(&self, i: usize) -> &'a str {
        self.dict.value(self.codes.get(i) as usize)
    }

    #[inline]
    fn hash_one(&self, v: &'a str) -> u64 {
        fnv1a(v.as_bytes())
    }

    #[inline]
    fn cmp_one(&self, a: &'a str, b: &'a str) -> Ordering {
        a.cmp(b)
    }

    #[inline]
    fn cmp_atom(&self, x: &'a str, atom: &AtomValue) -> Ordering {
        match atom {
            AtomValue::Str(s) => x.cmp(&&**s),
            other => panic!("cmp_atom: str column vs {} constant", other.atom_type()),
        }
    }
}

/// Window over a frame-of-reference `int`/`date` column: `base + delta`.
/// `Elem` is the decoded `i32`, so hashing and comparison agree with the
/// raw window bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub struct ForIntVals<'a> {
    base: i32,
    deltas: ForDeltaSlice<'a>,
    date: bool,
}

impl<'a> ForIntVals<'a> {
    pub(crate) fn new(base: i32, deltas: ForDeltaSlice<'a>, date: bool) -> ForIntVals<'a> {
        ForIntVals { base, deltas, date }
    }

    /// True when the logical type is `date` (day counts share the `i32`
    /// representation).
    #[inline]
    pub fn is_date(&self) -> bool {
        self.date
    }

    /// The stored narrow deltas (value = base + delta).
    #[inline]
    pub fn deltas(&self) -> ForDeltaSlice<'a> {
        self.deltas
    }
}

impl<'a> TypedVals for ForIntVals<'a> {
    type Elem = i32;

    #[inline]
    fn len(&self) -> usize {
        self.deltas.len()
    }

    #[inline]
    fn value(&self, i: usize) -> i32 {
        self.base.wrapping_add(self.deltas.get(i) as i32)
    }

    #[inline]
    fn hash_one(&self, v: i32) -> u64 {
        fxhash64(v as u64)
    }

    #[inline]
    fn cmp_one(&self, a: i32, b: i32) -> Ordering {
        a.cmp(&b)
    }

    #[inline]
    fn cmp_atom(&self, x: i32, atom: &AtomValue) -> Ordering {
        match atom {
            AtomValue::Int(b) => x.cmp(b),
            AtomValue::Date(d) => x.cmp(&d.0),
            other => panic!("cmp_atom: int/date column vs {} constant", other.atom_type()),
        }
    }
}

/// Window over a frame-of-reference `lng` column: `base + delta`.
#[derive(Debug, Clone, Copy)]
pub struct ForLngVals<'a> {
    base: i64,
    deltas: ForDeltaSlice<'a>,
}

impl<'a> ForLngVals<'a> {
    pub(crate) fn new(base: i64, deltas: ForDeltaSlice<'a>) -> ForLngVals<'a> {
        ForLngVals { base, deltas }
    }

    /// The stored narrow deltas (value = base + delta).
    #[inline]
    pub fn deltas(&self) -> ForDeltaSlice<'a> {
        self.deltas
    }
}

impl<'a> TypedVals for ForLngVals<'a> {
    type Elem = i64;

    #[inline]
    fn len(&self) -> usize {
        self.deltas.len()
    }

    #[inline]
    fn value(&self, i: usize) -> i64 {
        self.base.wrapping_add(self.deltas.get(i) as i64)
    }

    #[inline]
    fn hash_one(&self, v: i64) -> u64 {
        fxhash64(v as u64)
    }

    #[inline]
    fn cmp_one(&self, a: i64, b: i64) -> Ordering {
        a.cmp(&b)
    }

    #[inline]
    fn cmp_atom(&self, x: i64, atom: &AtomValue) -> Ordering {
        match atom {
            AtomValue::Lng(b) => x.cmp(b),
            other => panic!("cmp_atom: lng column vs {} constant", other.atom_type()),
        }
    }
}

/// A column window resolved to its concrete element type — the input of the
/// dispatch macros. Obtained via [`Column::typed`] (or [`TypedSlice::of`]).
///
/// The encoded variants (`DictStr`, `ForInt`, `ForLng`) expose the same
/// `Elem` as their raw counterparts, so every kernel compiled through the
/// dispatch macros runs on encoded data without decompression; RLE storage
/// has no variant here — it resolves through its cached decode inside
/// [`Column::typed`], the transparent fallback.
#[derive(Debug, Clone, Copy)]
pub enum TypedSlice<'a> {
    Void(VoidVals),
    Oid(&'a [Oid]),
    Bool(&'a [bool]),
    Chr(&'a [u8]),
    Int(&'a [i32]),
    Lng(&'a [i64]),
    Dbl(&'a [f64]),
    Date(&'a [i32]),
    Str(StrVals<'a>),
    DictStr(DictStrVals<'a>),
    ForInt(ForIntVals<'a>),
    ForLng(ForLngVals<'a>),
}

impl<'a> TypedSlice<'a> {
    /// Resolve a column window once.
    pub fn of(col: &'a Column) -> TypedSlice<'a> {
        col.typed()
    }

    /// The atom type of the window (for error messages).
    pub fn atom_type(&self) -> crate::atom::AtomType {
        use crate::atom::AtomType as T;
        match self {
            TypedSlice::Void(_) => T::Void,
            TypedSlice::Oid(_) => T::Oid,
            TypedSlice::Bool(_) => T::Bool,
            TypedSlice::Chr(_) => T::Chr,
            TypedSlice::Int(_) => T::Int,
            TypedSlice::Lng(_) => T::Lng,
            TypedSlice::Dbl(_) => T::Dbl,
            TypedSlice::Date(_) => T::Date,
            TypedSlice::Str(_) => T::Str,
            TypedSlice::DictStr(_) => T::Str,
            TypedSlice::ForInt(v) => {
                if v.is_date() {
                    T::Date
                } else {
                    T::Int
                }
            }
            TypedSlice::ForLng(_) => T::Lng,
        }
    }
}

/// Monomorphize `$body` over the element type of one column.
///
/// `$col` is a `&Column`; `$v` is bound to a [`TypedVals`] implementor in
/// each arm, so the body is compiled once per atom type with all element
/// accesses fully inlined. All arms must yield the same result type.
#[macro_export]
macro_rules! for_each_typed {
    ($col:expr, |$v:ident| $body:expr) => {{
        match $crate::typed::TypedSlice::of($col) {
            $crate::typed::TypedSlice::Void($v) => $body,
            $crate::typed::TypedSlice::Oid($v) => $body,
            $crate::typed::TypedSlice::Bool($v) => $body,
            $crate::typed::TypedSlice::Chr($v) => $body,
            $crate::typed::TypedSlice::Int($v) => $body,
            $crate::typed::TypedSlice::Lng($v) => $body,
            $crate::typed::TypedSlice::Dbl($v) => $body,
            $crate::typed::TypedSlice::Date($v) => $body,
            $crate::typed::TypedSlice::Str($v) => $body,
            $crate::typed::TypedSlice::DictStr($v) => $body,
            $crate::typed::TypedSlice::ForInt($v) => $body,
            $crate::typed::TypedSlice::ForLng($v) => $body,
        }
    }};
}

/// Monomorphize `$body` over a *pair* of columns holding the same atom type
/// (`oid` and `void` interoperate, as in joins). The two bindings may be
/// different [`TypedVals`] implementors but always share `Elem`, so values
/// flow freely between them (`a.eq_one(a.value(i), b.value(j))`).
///
/// Panics on genuinely mixed types — operators type-check first via
/// `check_comparable`.
#[macro_export]
macro_rules! for_each_typed2 {
    ($ca:expr, $cb:expr, |$a:ident, $b:ident| $body:expr) => {{
        use $crate::typed::TypedSlice as TS;
        match (TS::of($ca), TS::of($cb)) {
            (TS::Void($a), TS::Void($b)) => $body,
            (TS::Void($a), TS::Oid($b)) => $body,
            (TS::Oid($a), TS::Void($b)) => $body,
            (TS::Oid($a), TS::Oid($b)) => $body,
            (TS::Bool($a), TS::Bool($b)) => $body,
            (TS::Chr($a), TS::Chr($b)) => $body,
            (TS::Int($a), TS::Int($b)) => $body,
            (TS::Lng($a), TS::Lng($b)) => $body,
            (TS::Dbl($a), TS::Dbl($b)) => $body,
            (TS::Date($a), TS::Date($b)) => $body,
            (TS::Str($a), TS::Str($b)) => $body,
            (TS::Str($a), TS::DictStr($b)) => $body,
            (TS::DictStr($a), TS::Str($b)) => $body,
            (TS::DictStr($a), TS::DictStr($b)) => $body,
            (TS::Int($a), TS::ForInt($b)) => $body,
            (TS::ForInt($a), TS::Int($b)) => $body,
            (TS::Date($a), TS::ForInt($b)) => $body,
            (TS::ForInt($a), TS::Date($b)) => $body,
            (TS::ForInt($a), TS::ForInt($b)) => $body,
            (TS::Lng($a), TS::ForLng($b)) => $body,
            (TS::ForLng($a), TS::Lng($b)) => $body,
            (TS::ForLng($a), TS::ForLng($b)) => $body,
            (a, b) => {
                panic!(
                    "typed dispatch on mixed column types {} vs {}",
                    a.atom_type(),
                    b.atom_type()
                )
            }
        }
    }};
}

/// Monomorphize `$body` over an oid-like column (`oid` or `void`); the
/// binding always has `Elem = Oid`. Used by positional fetch paths.
#[macro_export]
macro_rules! for_each_oidlike {
    ($col:expr, |$v:ident| $body:expr) => {{
        match $crate::typed::TypedSlice::of($col) {
            $crate::typed::TypedSlice::Void($v) => $body,
            $crate::typed::TypedSlice::Oid($v) => $body,
            other => panic!("expected oid-like column, got {}", other.atom_type()),
        }
    }};
}

/// First position in the (ascending) window whose value is `>= x`.
#[inline]
pub fn lower_bound_by<V: TypedVals>(vals: V, x: V::Elem) -> usize {
    let (mut lo, mut hi) = (0usize, vals.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if vals.cmp_one(vals.value(mid), x).is_lt() {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// First position in the (ascending) window whose value is `> x`.
#[inline]
pub fn upper_bound_by<V: TypedVals>(vals: V, x: V::Elem) -> usize {
    let (mut lo, mut hi) = (0usize, vals.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if vals.cmp_one(vals.value(mid), x).is_gt() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Bulk-hash a whole column window in one typed pass (consistent with
/// [`Column::hash_at`]). Used by pair-keyed operators (set ops) to get the
/// per-row dispatch out of their probe loops.
pub fn hash_column(col: &Column) -> Vec<u64> {
    for_each_typed!(col, |v| (0..v.len()).map(|i| v.hash_one(v.value(i))).collect())
}

const EMPTY: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Compact key domains: an oid — any small integer key — is a position.
// ---------------------------------------------------------------------------

/// A column window whose values are fixed-width integers: every value has
/// a `u64` *code*, injective and order-preserving within the column, so
/// code equality is value equality and a compact code range can index an
/// array. Oids are their own code; `chr`/`bool` widen; signed integers and
/// dates flip the sign bit; dictionary and frame-of-reference columns use
/// their stored narrow codes (the dictionary is duplicate-free and sorted,
/// the frame adds a constant). `dbl` and raw `str` columns have no code —
/// [`for_each_coded!`] yields `None` for them.
pub trait CodedVals: Copy {
    /// Code of row `i`.
    fn code(&self, i: usize) -> u64;

    /// Inclusive bounds every code of the window lies within, when the
    /// representation gives them for free (a void sequence, a one-byte
    /// type, a dictionary's size).
    #[inline]
    fn code_bounds(&self) -> Option<(u64, u64)> {
        None
    }
}

/// Order-preserving `i64 -> u64`: flip the sign bit.
const SIGN_FLIP: u64 = 1 << 63;

impl CodedVals for VoidVals {
    #[inline]
    fn code(&self, i: usize) -> u64 {
        self.seq + i as Oid
    }

    #[inline]
    fn code_bounds(&self) -> Option<(u64, u64)> {
        Some((self.seq, self.seq + self.len.saturating_sub(1) as Oid))
    }
}

impl CodedVals for &[Oid] {
    #[inline]
    fn code(&self, i: usize) -> u64 {
        self[i]
    }
}

impl CodedVals for &[bool] {
    #[inline]
    fn code(&self, i: usize) -> u64 {
        self[i] as u64
    }

    #[inline]
    fn code_bounds(&self) -> Option<(u64, u64)> {
        Some((0, 1))
    }
}

impl CodedVals for &[u8] {
    #[inline]
    fn code(&self, i: usize) -> u64 {
        self[i] as u64
    }

    #[inline]
    fn code_bounds(&self) -> Option<(u64, u64)> {
        Some((0, u8::MAX as u64))
    }
}

impl CodedVals for &[i32] {
    #[inline]
    fn code(&self, i: usize) -> u64 {
        (self[i] as i64 as u64) ^ SIGN_FLIP
    }
}

impl CodedVals for &[i64] {
    #[inline]
    fn code(&self, i: usize) -> u64 {
        (self[i] as u64) ^ SIGN_FLIP
    }
}

impl CodedVals for ForDeltaSlice<'_> {
    #[inline]
    fn code(&self, i: usize) -> u64 {
        self.get(i)
    }

    #[inline]
    fn code_bounds(&self) -> Option<(u64, u64)> {
        matches!(self, ForDeltaSlice::W8(_)).then_some((0, u8::MAX as u64))
    }
}

impl CodedVals for DictStrVals<'_> {
    #[inline]
    fn code(&self, i: usize) -> u64 {
        self.codes.get(i)
    }

    #[inline]
    fn code_bounds(&self) -> Option<(u64, u64)> {
        Some((0, self.dict_len().saturating_sub(1) as u64))
    }
}

/// Monomorphize `$body` over the integer codes of one column: `$v` is
/// bound to a [`CodedVals`] implementor and the result is `Some(body)`;
/// `None` for `dbl` and raw `str` columns, which have no integer code.
#[macro_export]
macro_rules! for_each_coded {
    ($col:expr, |$v:ident| $body:expr) => {{
        use $crate::typed::TypedSlice as TS;
        match TS::of($col) {
            TS::Void($v) => Some($body),
            TS::Oid($v) => Some($body),
            TS::Bool($v) => Some($body),
            TS::Chr($v) => Some($body),
            TS::Int($v) | TS::Date($v) => Some($body),
            TS::Lng($v) => Some($body),
            TS::DictStr($v) => Some($body),
            TS::ForInt(f) => {
                let $v = f.deltas();
                Some($body)
            }
            TS::ForLng(f) => {
                let $v = f.deltas();
                Some($body)
            }
            TS::Dbl(_) | TS::Str(_) => None,
        }
    }};
}

/// The key range `[base, base + span)`, addressed by `code - base`
/// (Section 5.2: an oid is a *position* in its class extent — and so is
/// any other small integer key: a `chr` flag, a date, a dictionary code,
/// a group id). Wherever an operator would hash or binary-search such
/// keys, a domain whose span is compact
/// ([`crate::costmodel::domain_is_compact`]) lets it index an array
/// instead: the extent's value vectors directly (LOOKUP, fetch and
/// datavector join), a pooled position array / bitmap filled from the key
/// column (`direct` join, `bitmap` semijoin), or a pooled [`SlotTable`] of
/// group ids (`direct` grouping, `packed` pair grouping and dedup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OidDomain {
    pub base: Oid,
    pub span: usize,
}

impl OidDomain {
    /// The domain covering the [`CodedVals`] codes of a column: O(1) for
    /// `sorted` columns (first/last) and where the representation bounds
    /// its codes (void, one-byte types, dictionaries), one min/max pass
    /// otherwise — tightest in every case but the representation bounds.
    /// An empty column has the empty domain; `None` when the column has no
    /// integer code or the span overflows `usize`.
    pub fn covering(col: &Column, sorted: bool) -> Option<OidDomain> {
        if col.is_empty() {
            return for_each_coded!(col, |_c| OidDomain { base: 0, span: 0 });
        }
        let n = col.len();
        let (lo, hi) = for_each_coded!(col, |c| {
            if sorted {
                (c.code(0), c.code(n - 1))
            } else if let Some(bounds) = c.code_bounds() {
                bounds
            } else {
                (0..n).map(|i| c.code(i)).fold((u64::MAX, 0), |(lo, hi), k| (lo.min(k), hi.max(k)))
            }
        })?;
        let span = usize::try_from(hi - lo).ok()?.checked_add(1)?;
        Some(OidDomain { base: lo, span })
    }

    /// The domain of a `dense` oid column: its oids sit at `oid - base`.
    pub fn of_dense(col: &Column) -> OidDomain {
        let base = if col.is_empty() { 0 } else { col.oid_at(0) };
        OidDomain { base, span: col.len() }
    }

    /// Slot of `oid` (any key code) in the domain, if it lies inside.
    #[inline(always)]
    pub fn slot(&self, oid: Oid) -> Option<usize> {
        let k = oid.wrapping_sub(self.base);
        (k < self.span as u64).then_some(k as usize)
    }
}

/// Direct-addressed grouping table over a compact key domain: one pooled
/// `u32` slot per key of the span, holding the id of the group that key
/// opened — the flat twin of [`GroupTable`] (entry id == group id,
/// first-occurrence numbering) with the hash, the chain walk and the
/// equality check replaced by one indexed load.
pub struct SlotTable {
    slots: Vec<u32>,
    groups: u32,
}

impl SlotTable {
    /// A table over `span` keys, drawn from the scratch pool; return it
    /// with [`SlotTable::recycle`].
    pub fn pooled(span: usize) -> SlotTable {
        let mut slots = take_u32(span);
        slots.resize(span, EMPTY);
        SlotTable { slots, groups: 0 }
    }

    /// The group of key slot `k`, opening a new one when `k` is first seen.
    /// Returns `(group id, inserted)`.
    #[inline(always)]
    pub fn find_or_insert(&mut self, k: usize) -> (u32, bool) {
        let s = &mut self.slots[k];
        if *s != EMPTY {
            return (*s, false);
        }
        *s = self.groups;
        self.groups += 1;
        (*s, true)
    }

    /// Number of groups opened so far.
    pub fn len(&self) -> usize {
        self.groups as usize
    }

    /// True when no group has been opened.
    pub fn is_empty(&self) -> bool {
        self.groups == 0
    }

    /// Return the slot buffer to the scratch pool.
    pub fn recycle(self) {
        put_u32(self.slots);
    }
}

// ---------------------------------------------------------------------------
// Thread-local scratch pool: the presized-buffer discipline for kernels.
// ---------------------------------------------------------------------------

thread_local! {
    static SCRATCH_U64: std::cell::RefCell<Vec<Vec<u64>>> =
        const { std::cell::RefCell::new(Vec::new()) };
    static SCRATCH_U32: std::cell::RefCell<Vec<Vec<u32>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Buffers kept per pool; excess returns are dropped so scratch memory
/// stays bounded by a few working sets.
const SCRATCH_POOL_CAP: usize = 4;

/// Net `take` minus `put` balance across every thread's scratch pools.
/// Every checkout must be returned — including on the governor's abort
/// paths (budget, cancel, deadline, injected fault) — so this settles back
/// to its baseline whenever no kernel is in flight; the stress and
/// fault-injection harnesses assert exactly that.
static SCRATCH_CHECKED_OUT: std::sync::atomic::AtomicI64 = std::sync::atomic::AtomicI64::new(0);

/// Current process-wide scratch checkout balance (see
/// [`SCRATCH_CHECKED_OUT`]). Quiescent baseline is stable but not
/// necessarily zero: compare against a reading taken before the work
/// under test.
pub fn scratch_checked_out() -> i64 {
    SCRATCH_CHECKED_OUT.load(std::sync::atomic::Ordering::Relaxed)
}

macro_rules! scratch_pool {
    ($take:ident, $take_zeroed:ident, $put:ident, $pool:ident, $ty:ty) => {
        /// Take an empty scratch vector with at least `cap` capacity from
        /// the thread-local pool. Freshly-mapped pages fault on first touch,
        /// which costs more than the kernel work writing them — pooling
        /// keeps the pages committed across calls. Return with the matching
        /// `put` once done.
        pub fn $take(cap: usize) -> Vec<$ty> {
            SCRATCH_CHECKED_OUT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let mut v = $pool
                .with(|p| {
                    let pool = &mut *p.borrow_mut();
                    let best = (0..pool.len()).max_by_key(|&i| pool[i].capacity())?;
                    Some(pool.swap_remove(best))
                })
                .unwrap_or_default();
            v.clear();
            v.reserve(cap);
            v
        }

        /// [`$take`], but zero-filled to length `n` (scatter targets).
        pub fn $take_zeroed(n: usize) -> Vec<$ty> {
            let mut v = $take(n);
            v.resize(n, 0 as $ty);
            v
        }

        /// Return a scratch vector to the thread-local pool.
        pub fn $put(v: Vec<$ty>) {
            SCRATCH_CHECKED_OUT.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
            if v.capacity() == 0 {
                return;
            }
            $pool.with(|p| {
                let pool = &mut *p.borrow_mut();
                if pool.len() < SCRATCH_POOL_CAP {
                    pool.push(v);
                } else if let Some(min) = (0..pool.len()).min_by_key(|&i| pool[i].capacity()) {
                    if pool[min].capacity() < v.capacity() {
                        pool[min] = v;
                    }
                }
            });
        }
    };
}

scratch_pool!(take_u64, take_u64_zeroed, put_u64, SCRATCH_U64, u64);
scratch_pool!(take_u32, take_u32_zeroed, put_u32, SCRATCH_U32, u32);

// ---------------------------------------------------------------------------
// Radix clustering: the partition kernel of the partitioned hash join.
// ---------------------------------------------------------------------------

/// Rows per cluster the partitioner aims for: small enough that a
/// bucket-chained table over one cluster (buckets + chain links + the pair
/// window, ~20 bytes/row) stays L1-resident during the build+probe of that
/// cluster.
pub const RADIX_TARGET_CLUSTER_ROWS: usize = 1024;

/// Number of cluster bits for a build side of `rows`, so that the expected
/// cluster size is at most [`RADIX_TARGET_CLUSTER_ROWS`]. Capped at the
/// counting-free fan-out limit: past ~1M rows clusters grow beyond the
/// target (gently degrading the probe toward L2) rather than paying a
/// second scatter pass, which measures worse up to the tens of millions.
pub fn radix_bits(rows: usize) -> u32 {
    let mut bits = 0u32;
    while bits < COUNTING_FREE_MAX_BITS && (rows >> bits) > RADIX_TARGET_CLUSTER_ROWS {
        bits += 1;
    }
    bits
}

/// `(hash, position)` pairs clustered on the **top** `bits` of the hash and
/// packed into one `u64` per row (high hash half | pos): one scatter
/// stream during clustering, one sequential stream during the probe.
///
/// The retained half is the hash's *high* 32 bits, so the cluster id (top
/// `bits ≤ 16`) stays inside the packed word — multi-pass clustering and
/// cluster-id checks never need the original hash again. In-cluster bucket
/// masks use the *low* bits of the retained half; for typical cluster
/// sizes these stay below the cluster-id bits (an extreme-skew cluster can
/// push the mask into them, wasting bucket slots on constant bits — an
/// occupancy cost, never a correctness one). A false bucket match on the
/// retained half still fails value equality, so the 32-bit truncation is a
/// perf trade only. Clustering is stable: within a cluster, positions
/// ascend.
pub struct RadixClusters {
    /// Packed `(hash >> 32) << 32 | pos`, cluster-windowed. Windows may be
    /// padded apart (the counting-free scatter leaves headroom per
    /// cluster); always address through [`RadixClusters::cluster`].
    pub pairs: Vec<u64>,
    /// Start offset of each cluster's window in `pairs`.
    starts: Vec<usize>,
    /// End offset (exclusive) of each cluster's window in `pairs`.
    ends: Vec<usize>,
    bits: u32,
}

/// The retained (high) 32 hash bits of a packed cluster pair.
#[inline]
pub fn pair_hash(p: u64) -> u32 {
    (p >> 32) as u32
}

/// The original row position of a packed cluster pair.
#[inline]
pub fn pair_pos(p: u64) -> u32 {
    p as u32
}

/// Pack a full hash and a row position into one cluster pair (keeps hash
/// bits 32..64). Public for the out-of-core clustering in
/// [`crate::spill`], which must write bit-identical pairs to disk.
#[inline]
pub fn pack_pair(h: u64, pos: usize) -> u64 {
    (h & 0xFFFF_FFFF_0000_0000) | pos as u64
}

impl RadixClusters {
    /// The window of cluster `c` into `pairs`.
    #[inline]
    pub fn cluster(&self, c: usize) -> std::ops::Range<usize> {
        self.starts[c]..self.ends[c]
    }

    /// Number of clusters (`2^bits`).
    pub fn num_clusters(&self) -> usize {
        self.starts.len()
    }

    /// The cluster a full 64-bit hash belongs to.
    #[inline]
    pub fn cluster_of(&self, h: u64) -> usize {
        cluster_of(h, self.bits)
    }
}

/// The pair buffer goes back to the scratch pool with the clusters,
/// whichever thread or exit path lets go of them last.
impl Drop for RadixClusters {
    fn drop(&mut self) {
        put_u64(std::mem::take(&mut self.pairs));
    }
}

/// Cluster id of a full hash: its top `bits ≤ 32` (0 when `bits == 0`;
/// the constant shift first keeps it to one variable shift per row).
#[inline]
fn cluster_of(h: u64, bits: u32) -> usize {
    ((h >> 32) >> (32 - bits)) as usize
}

/// Cluster bits up to which [`radix_bits`] fans out (`2^10` write streams
/// stay within TLB/cache reach of one scatter pass).
const COUNTING_FREE_MAX_BITS: u32 = 10;

/// Where the pairs of a [`partition_pass`] go. Where a cluster lives is
/// layout — a padded window of one pooled buffer ([`RadixClusters`]) or
/// append-only chunks of a spill file ([`crate::spill`]); the pass that
/// hashes the rows and routes them exists once.
pub trait PartitionSink {
    /// Why a pass over this sink ends early (a failed or aborted spill
    /// write; memory sinks never stop).
    type Stop;

    /// Append `pair` to `cluster` if `kept`. Calls arrive in ascending row
    /// order, so appending keeps every cluster stable. A refused pair still
    /// comes by so that a sink can store it where the next one goes and
    /// advance by `kept as usize`: a filter's verdict is a coin flip per
    /// row, and a branch on it mispredicts (measured on a 600k x 150k row
    /// spilling join at a 70 % match rate: 16.0 ms branching, 12.6 ms not).
    fn push(&mut self, cluster: usize, pair: u64, kept: bool) -> Result<(), Self::Stop>;
}

/// The one streaming radix-partition pass: hash every row of `t` on the
/// fly (a few ALU ops beat materializing — and re-reading — a full-width
/// hash array), ask `keep` about the hash, and hand the packed `(hash,
/// pos)` pair with the verdict to the sink's cluster for the hash's top
/// `bits`. `keep` sees every row's hash exactly once per pass, in row
/// order; it must answer the same hash the same way every time, because
/// [`radix_cluster_filtered`] runs a second pass on skewed input.
#[inline]
pub fn partition_pass<V: TypedVals, S: PartitionSink>(
    t: V,
    bits: u32,
    mut keep: impl FnMut(u64) -> bool,
    sink: &mut S,
) -> Result<(), S::Stop> {
    assert!(bits <= 16, "radix partition: {bits} cluster bits (max 16)");
    for i in 0..t.len() {
        let h = t.hash_one(t.value(i));
        sink.push(cluster_of(h, bits), pack_pair(h, i), keep(h))?;
    }
    Ok(())
}

/// Memory sink of the first, counting-free pass: cluster `c` owns the
/// window `c * cap ..` of one buffer. A window that fills up stops taking
/// pairs but keeps counting, so a skewed pass ends with the exact lengths
/// the second pass lays out. (Borrowed slices, not owned vectors: the
/// pass then keeps the base pointers in registers across its stores —
/// 3.2 vs 2.6 ns/row over 960k rows.)
struct PaddedSink<'a> {
    pairs: &'a mut [u64],
    cap: usize,
    lens: &'a mut [usize],
}

impl PartitionSink for PaddedSink<'_> {
    type Stop = std::convert::Infallible;

    #[inline]
    fn push(&mut self, c: usize, pair: u64, kept: bool) -> Result<(), Self::Stop> {
        let len = self.lens[c];
        if len < self.cap {
            self.pairs[c * self.cap + len] = pair;
        }
        self.lens[c] = len + kept as usize;
        Ok(())
    }
}

/// Memory sink of the second pass over skewed input: exact windows, one
/// write cursor per cluster.
struct ExactSink {
    pairs: Vec<u64>,
    cursor: Vec<usize>,
}

impl PartitionSink for ExactSink {
    type Stop = std::convert::Infallible;

    #[inline]
    fn push(&mut self, c: usize, pair: u64, kept: bool) -> Result<(), Self::Stop> {
        if kept {
            self.pairs[self.cursor[c]] = pair;
            self.cursor[c] += 1;
        }
        Ok(())
    }
}

/// Rows a cluster's window is padded to so that, `rows` rows hashed over
/// `2^bits` clusters, essentially none overflows: 1.5x the mean plus slack
/// (cluster sizes concentrate tightly around the mean).
pub(crate) fn padded_cluster_rows(rows: usize, bits: u32) -> usize {
    let mean = rows >> bits;
    if bits == 0 {
        mean
    } else {
        mean + mean / 2 + 16
    }
}

/// Cluster the rows of `t` whose hash `keep` accepts on the top `bits` of
/// their hash ([`partition_pass`] into memory).
///
/// The first pass is **counting-free**: one scatter into padded
/// per-cluster windows ([`padded_cluster_rows`]), no histogram.
/// Hash-distributed inputs essentially never overflow the padding; skewed
/// ones (a handful of distinct values) do, and pay a second pass into
/// exact windows sized by the first one's counts — one wasted scatter,
/// never correctness.
pub fn radix_cluster_filtered<V: TypedVals>(
    t: V,
    bits: u32,
    mut keep: impl FnMut(u64) -> bool,
) -> RadixClusters {
    let nclusters = 1usize << bits;
    let cap = padded_cluster_rows(t.len(), bits);
    let mut pairs = take_u64_zeroed(nclusters * cap);
    let mut lens = vec![0usize; nclusters];
    let mut padded = PaddedSink { pairs: &mut pairs, cap, lens: &mut lens };
    let Ok(()) = partition_pass(t, bits, &mut keep, &mut padded);
    if lens.iter().all(|&l| l <= cap) {
        let starts: Vec<usize> = (0..nclusters).map(|c| c * cap).collect();
        let ends = starts.iter().zip(&lens).map(|(s, l)| s + l).collect();
        return RadixClusters { pairs, starts, ends, bits };
    }
    put_u64(pairs);
    let mut ends = lens;
    let mut total = 0usize;
    for e in ends.iter_mut() {
        total += *e;
        *e = total;
    }
    let starts: Vec<usize> =
        std::iter::once(0).chain(ends.iter().copied()).take(nclusters).collect();
    let mut exact = ExactSink { pairs: take_u64_zeroed(total), cursor: starts.clone() };
    let Ok(()) = partition_pass(t, bits, keep, &mut exact);
    RadixClusters { pairs: exact.pairs, starts, ends, bits }
}

/// [`radix_cluster_filtered`] over a precomputed hash slice, keeping every
/// row (kept as the kernel-level entry point for callers that already hold
/// bulk hashes).
pub fn radix_cluster(hashes: &[u64], bits: u32) -> RadixClusters {
    radix_cluster_filtered(HashSliceVals(hashes), bits, |_| true)
}

/// Adapter treating a `&[u64]` of precomputed hashes as a [`TypedVals`]
/// whose elements hash to themselves.
#[derive(Clone, Copy)]
struct HashSliceVals<'a>(&'a [u64]);

impl TypedVals for HashSliceVals<'_> {
    type Elem = u64;

    fn len(&self) -> usize {
        self.0.len()
    }

    #[inline]
    fn value(&self, i: usize) -> u64 {
        self.0[i]
    }

    #[inline]
    fn hash_one(&self, v: u64) -> u64 {
        v
    }

    fn cmp_one(&self, a: u64, b: u64) -> Ordering {
        a.cmp(&b)
    }

    fn cmp_atom(&self, _v: u64, _atom: &AtomValue) -> Ordering {
        unreachable!("hash-slice adapter has no atom comparisons")
    }
}

/// Stable ascending sort of packed `u64` pairs by their **high 32 bits**:
/// LSD byte-radix passes with constant bytes detected from a one-scan
/// histogram and skipped. The partitioned join uses this to restore
/// left-BUN order over `(left << 32) | right` match pairs with streaming
/// scatters (256 write runs) instead of one random scatter per match.
pub fn sort_pairs_by_hi(mut pairs: Vec<u64>) -> Vec<u64> {
    let n = pairs.len();
    if n <= 1 {
        return pairs;
    }
    let mut hist = [[0u32; 256]; 4];
    for &p in &pairs {
        for (b, h) in hist.iter_mut().enumerate() {
            h[((p >> (32 + 8 * b)) & 255) as usize] += 1;
        }
    }
    let mut out = take_u64_zeroed(n);
    for (b, h) in hist.iter_mut().enumerate() {
        if h.iter().any(|&c| c as usize == n) {
            continue; // every pair agrees on this byte
        }
        let mut sum = 0u32;
        for c in h.iter_mut() {
            let x = *c;
            *c = sum;
            sum += x;
        }
        for i in 0..n {
            let p = pairs[i];
            let dst = &mut h[((p >> (32 + 8 * b)) & 255) as usize];
            out[*dst as usize] = p;
            *dst += 1;
        }
        std::mem::swap(&mut pairs, &mut out);
    }
    put_u64(out);
    pairs
}

/// Bucket-chained grouping table, the same presized layout as
/// [`crate::accel::hash::HashIndex`] but with incremental insertion: one
/// entry per distinct key, entry id == group id. No per-bucket allocations;
/// chains store the full 64-bit hash so the caller-supplied equality check
/// only runs on true hash matches.
pub struct GroupTable {
    mask: u64,
    buckets: Vec<u32>,
    /// `next[gid]`: next entry in the same bucket chain.
    next: Vec<u32>,
    /// `rows[gid]`: representative row of the group.
    rows: Vec<u32>,
    /// `hashes[gid]`: full hash of the representative.
    hashes: Vec<u64>,
}

impl GroupTable {
    /// Presize for `n` input rows (buckets at 2x rows, like `HashIndex`).
    pub fn with_capacity(n: usize) -> GroupTable {
        let nbuckets = (n.max(1) * 2).next_power_of_two();
        let est = (n / 8).max(16);
        GroupTable {
            mask: (nbuckets - 1) as u64,
            buckets: vec![EMPTY; nbuckets],
            next: Vec::with_capacity(est),
            rows: Vec::with_capacity(est),
            hashes: Vec::with_capacity(est),
        }
    }

    /// [`GroupTable::with_capacity`], but drawing every backing buffer from
    /// the bounded thread-local scratch pool. This is the constructor the
    /// spilled grouping's per-cluster tables use: pooling keeps the bucket
    /// pages committed across clusters and calls instead of faulting a
    /// fresh allocation each time. Return the buffers with
    /// [`GroupTable::recycle`] when done.
    pub fn pooled(n: usize) -> GroupTable {
        let nbuckets = (n.max(1) * 2).next_power_of_two();
        let mut buckets = take_u32(nbuckets);
        buckets.resize(nbuckets, EMPTY);
        let est = (n / 8).max(16);
        let mut next = take_u32(est);
        let mut rows = take_u32(est);
        let mut hashes = take_u64(est);
        next.clear();
        rows.clear();
        hashes.clear();
        GroupTable { mask: (nbuckets - 1) as u64, buckets, next, rows, hashes }
    }

    /// Return a [`GroupTable::pooled`] table's buffers to the scratch pool.
    pub fn recycle(self) {
        put_u32(self.buckets);
        put_u32(self.next);
        put_u32(self.rows);
        put_u64(self.hashes);
    }

    /// Find the group whose representative row satisfies `eq` (called only
    /// on entries whose full hash equals `h`) without inserting.
    #[inline]
    pub fn find(&self, h: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut cur = self.buckets[(h & self.mask) as usize];
        while cur != EMPTY {
            let g = cur as usize;
            if self.hashes[g] == h && eq(self.rows[g]) {
                return Some(cur);
            }
            cur = self.next[g];
        }
        None
    }

    /// Find the group whose representative row satisfies `eq`, or insert
    /// `row` as a new group. Returns `(group id, inserted)`.
    #[inline]
    pub fn find_or_insert(&mut self, h: u64, row: u32, eq: impl FnMut(u32) -> bool) -> (u32, bool) {
        if let Some(g) = self.find(h, eq) {
            return (g, false);
        }
        let b = (h & self.mask) as usize;
        let gid = self.rows.len() as u32;
        self.rows.push(row);
        self.hashes.push(h);
        self.next.push(self.buckets[b]);
        self.buckets[b] = gid;
        (gid, true)
    }

    /// Number of groups discovered so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no group has been inserted.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Representative row per group, in group-id order.
    pub fn reps(&self) -> &[u32] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Date;

    #[test]
    fn typed_matches_generic_accessors() {
        let cols = [
            Column::from_ints(vec![3, -1, 7]),
            Column::from_dbls(vec![1.5, -0.0, 2.0]),
            Column::from_strs(["b", "a", "b"]),
            Column::from_oids(vec![9, 2, 5]),
            Column::void(40, 3),
            Column::from_dates(vec![Date::from_ymd(1994, 1, 1), Date(0), Date(77)]),
            Column::from_bools(vec![true, false, true]),
            Column::from_chrs(vec![b'x', b'a', b'x']),
            Column::from_lngs(vec![5, -9, 5]),
        ];
        for col in &cols {
            for i in 0..col.len() {
                let h = for_each_typed!(col, |t| t.hash_one(t.value(i)));
                assert_eq!(h, col.hash_at(i), "hash mismatch on {}", col.atom_type());
                for j in 0..col.len() {
                    let c = for_each_typed!(col, |t| t.cmp_one(t.value(i), t.value(j)));
                    assert_eq!(c, col.cmp_at(i, col, j), "cmp mismatch on {}", col.atom_type());
                }
                let atom = col.get(i);
                let c = for_each_typed!(col, |t| t.cmp_atom(t.value(i), &atom));
                assert!(c.is_eq(), "cmp_atom self mismatch on {}", col.atom_type());
            }
        }
    }

    #[test]
    fn typed_respects_windows() {
        let col = Column::from_ints(vec![10, 20, 30, 40, 50]).slice(1, 3);
        let n = for_each_typed!(&col, |t| t.len());
        assert_eq!(n, 3);
        let direct: Vec<u64> = (0..3).map(|i| col.hash_at(i)).collect();
        assert_eq!(direct, hash_column(&col));
        let sc = Column::from_strs(["aa", "bb", "cc", "dd"]).slice(1, 2);
        let first = for_each_typed!(&sc, |t| t.hash_one(t.value(0)));
        assert_eq!(first, sc.hash_at(0));
        let void = Column::void(100, 6).slice(2, 2);
        assert_eq!(hash_column(&void), vec![fxhash64(102), fxhash64(103)]);
    }

    #[test]
    fn typed2_interoperates_oid_and_void() {
        let o = Column::from_oids(vec![7, 8, 9]);
        let v = Column::void(7, 3);
        let all_eq = for_each_typed2!(&o, &v, |a, b| {
            (0..a.len()).all(|i| a.eq_one(a.value(i), b.value(i)))
        });
        assert!(all_eq);
    }

    #[test]
    #[should_panic(expected = "mixed column types")]
    fn typed2_rejects_mixed() {
        let a = Column::from_ints(vec![1]);
        let b = Column::from_dbls(vec![1.0]);
        for_each_typed2!(&a, &b, |x, y| {
            let _ = (x.len(), y.len());
        });
    }

    #[test]
    fn bounds_match_column_bounds() {
        let col = Column::from_ints(vec![1, 3, 3, 3, 7, 9]);
        for probe in [-1, 1, 3, 5, 9, 12] {
            let atom = AtomValue::Int(probe);
            let (lo, hi) = for_each_typed!(&col, |t| {
                // resolve the probe to an element via a binary-searchable pair
                let lo =
                    (0..t.len()).take_while(|&i| t.cmp_atom(t.value(i), &atom).is_lt()).count();
                let hi =
                    (0..t.len()).take_while(|&i| !t.cmp_atom(t.value(i), &atom).is_gt()).count();
                (lo, hi)
            });
            assert_eq!(lo, col.lower_bound(&atom), "lower_bound({probe})");
            assert_eq!(hi, col.upper_bound(&atom), "upper_bound({probe})");
        }
        let s = Column::from_ints(vec![2, 4, 6, 8]);
        let ts = TypedSlice::of(&s);
        if let TypedSlice::Int(v) = ts {
            assert_eq!(lower_bound_by(v, 5), 2);
            assert_eq!(upper_bound_by(v, 6), 3);
        } else {
            unreachable!()
        }
    }

    #[test]
    fn radix_cluster_is_a_stable_partition() {
        // Hashes chosen so several values share a cluster; five distinct
        // values overflow the padded windows, so the last setting takes
        // the exact second pass.
        for (distinct, bits) in [(97u64, 0u32), (97, 3), (97, 10), (5, 6)] {
            let hashes: Vec<u64> = (0..500u64).map(|i| fxhash64(i % distinct)).collect();
            let rc = radix_cluster(&hashes, bits);
            assert_eq!(rc.num_clusters(), 1 << bits);
            // Windows cover every row exactly once (the padded layout may
            // hold more backing slots than rows).
            let total: usize = (0..rc.num_clusters()).map(|c| rc.cluster(c).len()).sum();
            assert_eq!(total, hashes.len());
            let mut seen = vec![false; hashes.len()];
            for c in 0..rc.num_clusters() {
                let range = rc.cluster(c);
                let mut prev: Option<u32> = None;
                for k in range {
                    let p = pair_pos(rc.pairs[k]) as usize;
                    assert!(!seen[p], "bits {bits}: position {p} clustered twice");
                    seen[p] = true;
                    assert_eq!(
                        pair_hash(rc.pairs[k]),
                        (hashes[p] >> 32) as u32,
                        "bits {bits}: retained hash half not parallel"
                    );
                    assert_eq!(rc.cluster_of(hashes[p]), c, "bits {bits}: wrong cluster");
                    // Stability: positions ascend within a cluster.
                    if let Some(q) = prev {
                        assert!(q < pair_pos(rc.pairs[k]), "bits {bits}: cluster {c} not stable");
                    }
                    prev = Some(pair_pos(rc.pairs[k]));
                }
            }
            assert!(seen.iter().all(|&s| s), "bits {bits}: rows lost");
        }
    }

    #[test]
    fn filtered_clustering_drops_exactly_the_refused_hashes() {
        // Padded and exact (skewed) layouts alike; `keep` is consulted in
        // both passes of the latter and must not double-count.
        for (distinct, bits) in [(97u64, 3u32), (5, 6)] {
            let hashes: Vec<u64> = (0..500u64).map(|i| fxhash64(i % distinct)).collect();
            let keep = |h: u64| h & 1 == 0;
            let rc = radix_cluster_filtered(HashSliceVals(&hashes), bits, keep);
            let kept: Vec<u32> = (0..rc.num_clusters())
                .flat_map(|c| rc.pairs[rc.cluster(c)].iter().map(|&p| pair_pos(p)))
                .collect();
            let mut sorted = kept.clone();
            sorted.sort_unstable();
            let want: Vec<u32> = (0..500u32).filter(|&i| keep(hashes[i as usize])).collect();
            assert_eq!(sorted, want, "bits {bits}");
        }
    }

    #[test]
    fn sort_pairs_by_hi_is_stable_on_low_bits() {
        // Same high key → low halves keep insertion order (they ride along
        // untouched); distinct high keys sort ascending.
        let pairs: Vec<u64> = vec![
            (7 << 32) | 3,
            (2 << 32) | 9,
            (7 << 32) | 1,
            (2 << 32) | 2,
            (0x01_0000 << 32) | 5, // exercises a second byte pass
            (2 << 32) | 7,
        ];
        let sorted = sort_pairs_by_hi(pairs);
        let key_lo: Vec<(u64, u64)> = sorted.iter().map(|&p| (p >> 32, p & 0xffff_ffff)).collect();
        assert_eq!(key_lo, vec![(2, 9), (2, 2), (2, 7), (7, 3), (7, 1), (0x01_0000, 5)]);
    }

    #[test]
    fn radix_bits_targets_cluster_size() {
        assert_eq!(radix_bits(0), 0);
        assert_eq!(radix_bits(RADIX_TARGET_CLUSTER_ROWS), 0);
        assert_eq!(radix_bits(RADIX_TARGET_CLUSTER_ROWS + 1), 1);
        let bits = radix_bits(1 << 20);
        assert!((1 << 20 >> bits) <= RADIX_TARGET_CLUSTER_ROWS);
        // Capped at the counting-free fan-out even for absurd inputs.
        assert_eq!(radix_bits(usize::MAX), COUNTING_FREE_MAX_BITS);
    }

    #[test]
    fn group_table_groups_by_key() {
        let keys = [5u64, 9, 5, 5, 9, 1];
        let mut t = GroupTable::with_capacity(keys.len());
        let gids: Vec<u32> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| t.find_or_insert(fxhash64(k), i as u32, |r| keys[r as usize] == k).0)
            .collect();
        assert_eq!(gids, vec![0, 1, 0, 0, 1, 2]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.reps(), &[0, 1, 5]);
    }
}
