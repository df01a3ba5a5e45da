//! Typed column views: dispatch **once per operator call**, not once per row.
//!
//! The paper's central performance claim is that bulk BAT primitives beat
//! tuple-at-a-time interpretation because every MIL operator runs a
//! type-expanded tight loop over dense arrays (Sections 4.2, 5.1). A
//! generic accessor such as [`Column::get`] decides the column type again
//! for *every element* — exactly the per-row interpretation overhead the
//! flattened algebra exists to avoid.
//!
//! This module is the kernel's answer, and the one place kernel code finds
//! a value's order, equality and hash: a [`TypedSlice`] is resolved from a
//! column *once*, and the [`for_each_typed!`]/[`for_each_typed2!`] macros
//! monomorphize an operator body over the concrete element type, so the
//! per-row work is a plain slice index plus an inlined compare/hash with no
//! enum dispatch. [`Column`] holds storage and builds columns; it has no
//! compare or hash of its own. The row-wise oracle,
//! [`crate::ops::reference`], compares [`AtomValue`]s instead
//! ([`AtomValue::cmp_same_type`], `Eq`, `Hash`), so the two definitions are
//! independent and the property tests compare one against the other.
//!
//! # The dispatch-once contract, by example
//!
//! A selection scan written against the generic layer pays one type match
//! and, for strings, an allocation per row:
//!
//! ```ignore
//! let idx: Vec<u32> =
//!     (0..ab.len()).filter(|&i| tail.get(i) == *v).map(|i| i as u32).collect();
//! ```
//!
//! The typed form resolves the tail type a single time; the ten
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
use crate::column::Column;

/// Fast multiplicative hash for 64-bit keys (FxHash-style).
#[inline]
pub fn fxhash64(x: u64) -> u64 {
    // Two rounds of the splitmix64 finalizer: cheap and well distributed.
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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

/// Uniform element-level interface of one typed column window. Implementors
/// are `Copy` views (slices or tiny structs), so operator bodies can pass
/// them around freely; all methods are trivially inlinable.
///
/// The kernels' one definition of a value's order, equality and hash.
/// Order agrees with [`AtomValue::cmp_same_type`] over [`Column::get`];
/// equal values hash equally across layouts (`oid`/`void`, raw/dictionary
/// strings), so one hash table serves both sides of a join.
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

    /// Hash of one element; equal elements hash equally.
    fn hash_one(&self, v: Self::Elem) -> u64;

    /// Total-order comparison of two elements (doubles use IEEE total
    /// ordering).
    fn cmp_one(&self, a: Self::Elem, b: Self::Elem) -> Ordering;

    /// Equality of two elements.
    #[inline]
    fn eq_one(&self, a: Self::Elem, b: Self::Elem) -> bool {
        self.cmp_one(a, b).is_eq()
    }

    /// Compare one element against a scalar constant. Panics on
    /// incomparable types — operators have already type-checked their
    /// arguments.
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

    /// Heap offset of each value of the window.
    #[inline]
    pub(crate) fn offsets(&self) -> &'a [u32] {
        self.offsets
    }

    /// Byte length of each value of the window.
    #[inline]
    pub(crate) fn lens(&self) -> &'a [u32] {
        self.lens
    }

    /// The whole byte heap the window addresses (shared with every gather
    /// and slice of its column).
    #[inline]
    pub(crate) fn heap(&self) -> &'a [u8] {
        self.heap
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

/// The codes of a dictionary column ([`DictStrVals`]), borrowed at their
/// physical width (u8/u16/u32) — what the kernels scan and what the store
/// writer serializes. The width branch sits inside each access; it
/// predicts perfectly (one width per column), so the per-row cost stays a
/// load without tripling the macro arms.
#[derive(Debug, Clone, Copy)]
pub enum CodeSlice<'a> {
    W8(&'a [u8]),
    W16(&'a [u16]),
    W32(&'a [u32]),
}

impl CodeSlice<'_> {
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            CodeSlice::W8(v) => v.len(),
            CodeSlice::W16(v) => v.len(),
            CodeSlice::W32(v) => v.len(),
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        match self {
            CodeSlice::W8(v) => v[i] as u64,
            CodeSlice::W16(v) => v[i] as u64,
            CodeSlice::W32(v) => v[i] as u64,
        }
    }

    /// `slice::partition_point` over the widened values; used by the
    /// dict-code binary-search select on sorted code windows.
    #[inline]
    pub fn partition_point(&self, mut pred: impl FnMut(u64) -> bool) -> usize {
        match self {
            CodeSlice::W8(v) => v.partition_point(|&x| pred(x as u64)),
            CodeSlice::W16(v) => v.partition_point(|&x| pred(x as u64)),
            CodeSlice::W32(v) => v.partition_point(|&x| pred(x as u64)),
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
    codes: CodeSlice<'a>,
    dict: StrVals<'a>,
}

impl<'a> DictStrVals<'a> {
    pub(crate) fn new(codes: CodeSlice<'a>, dict: StrVals<'a>) -> DictStrVals<'a> {
        DictStrVals { codes, dict }
    }

    /// The per-row dictionary codes (order-preserving: code order is
    /// string order), at their physical width.
    #[inline]
    pub fn codes(&self) -> CodeSlice<'a> {
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

/// A column window resolved to its concrete element type — the input of the
/// dispatch macros. Obtained via [`Column::typed`] (or [`TypedSlice::of`]).
///
/// Nine raw layouts plus the one encoded layout, `DictStr`. It exposes the
/// same `Elem` as the raw `Str` window, so every kernel compiled through
/// the dispatch macros runs on dictionary codes without decompression.
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

/// First position in the (ascending) window whose value is not below the
/// probe; `cmp(v)` orders element `v` against the probe.
#[inline]
pub fn lower_bound_by<V: TypedVals>(vals: V, cmp: impl Fn(V::Elem) -> Ordering) -> usize {
    let (mut lo, mut hi) = (0usize, vals.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if cmp(vals.value(mid)).is_lt() {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// First position in the (ascending) window whose value is above the
/// probe; `cmp(v)` orders element `v` against the probe.
#[inline]
pub fn upper_bound_by<V: TypedVals>(vals: V, cmp: impl Fn(V::Elem) -> Ordering) -> usize {
    let (mut lo, mut hi) = (0usize, vals.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if cmp(vals.value(mid)).is_gt() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

const EMPTY: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Compact key domains: an oid — any small integer key — is a position.
// ---------------------------------------------------------------------------

/// A column window whose values are fixed-width integers: every value has
/// a `u64` *code*, injective and order-preserving within the column, so
/// code equality is value equality and a compact code range can index an
/// array. Oids are their own code; `chr`/`bool` widen; signed integers and
/// dates flip the sign bit; dictionary columns use their stored narrow
/// codes (the dictionary is duplicate-free and sorted). `dbl` and raw
/// `str` columns have no code — [`for_each_coded!`] yields `None` for
/// them.
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

    /// The oids both domains hold, if any.
    pub fn intersect(&self, other: OidDomain) -> Option<OidDomain> {
        let base = self.base.max(other.base);
        let end = self.base.saturating_add(self.span as u64);
        let end = end.min(other.base.saturating_add(other.span as u64));
        (base < end).then(|| OidDomain { base, span: (end - base) as usize })
    }
}

/// Call `f(k)` for every set bit `k` of a bitmap (bit `k` is bit `k % 64`
/// of word `k / 64`), in ascending order: one `trailing_zeros` per set bit
/// and one load per word.
#[inline]
pub fn for_each_bit(bits: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            f(w * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
        }
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
// Radix clustering: the pair layout of the spilling join and grouping.
// ---------------------------------------------------------------------------

/// Rows per cluster the partitioner aims for: small enough that a
/// bucket-chained table over one cluster (buckets + chain links + the pair
/// window, ~20 bytes/row) stays L1-resident during the build+probe of that
/// cluster.
pub const RADIX_TARGET_CLUSTER_ROWS: usize = 1024;

/// Number of cluster bits for a build side of `rows`, so that the expected
/// cluster size is at most [`RADIX_TARGET_CLUSTER_ROWS`]. Capped at
/// [`MAX_RADIX_BITS`]: past ~1M rows clusters grow beyond the target
/// (gently degrading the probe toward L2) rather than fanning out to more
/// write streams than one scatter pass keeps within reach.
pub fn radix_bits(rows: usize) -> u32 {
    let mut bits = 0u32;
    while bits < MAX_RADIX_BITS && (rows >> bits) > RADIX_TARGET_CLUSTER_ROWS {
        bits += 1;
    }
    bits
}

// `(hash, position)` pairs are clustered on the **top** `bits` of the hash
// and packed into one `u64` per row (high hash half | pos): one scatter
// stream during clustering, one sequential stream during the probe
// ([`crate::spill::Partitions`]).
//
// The retained half is the hash's *high* 32 bits, so the cluster id (top
// `bits ≤ 16`) stays inside the packed word. In-cluster bucket masks use
// the *low* bits of the retained half; for typical cluster sizes these
// stay below the cluster-id bits (an extreme-skew cluster can push the
// mask into them, wasting bucket slots on constant bits — an occupancy
// cost, never a correctness one). A false bucket match on the retained
// half still fails value equality, so the 32-bit truncation is a perf
// trade only.

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
/// bits 32..64).
#[inline]
pub fn pack_pair(h: u64, pos: usize) -> u64 {
    (h & 0xFFFF_FFFF_0000_0000) | pos as u64
}

/// Cluster id of a full hash: its top `bits ≤ 32` (0 when `bits == 0`;
/// the constant shift first keeps it to one variable shift per row).
#[inline]
pub(crate) fn cluster_of(h: u64, bits: u32) -> usize {
    ((h >> 32) >> (32 - bits)) as usize
}

/// Cluster bits up to which [`radix_bits`] fans out (`2^10` write streams
/// stay within TLB/cache reach of one scatter pass).
const MAX_RADIX_BITS: u32 = 10;

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

/// Stable ascending sort of packed `u64` pairs by their **high 32 bits**:
/// LSD byte-radix passes with constant bytes detected from a one-scan
/// histogram and skipped. The spilling join uses this to restore
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

    /// Representative row per group, in group-id order.
    pub fn reps(&self) -> &[u32] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Date;

    /// The kernels' definition (`TypedVals`) and the oracle's
    /// (`AtomValue`) agree on order over every layout.
    #[test]
    fn typed_matches_generic_accessors() {
        let strs = ["b", "a", "b", "", "ab"];
        let cols = [
            Column::from_ints(vec![3, -1, 7]),
            Column::from_dbls(vec![1.5, -0.0, 0.0, 2.0]),
            Column::from_strs(strs),
            Column::from_strs(strs.iter().cycle().take(64)).encode(),
            Column::from_oids(vec![9, 2, 5]),
            Column::void(40, 3),
            Column::from_dates(vec![Date::from_ymd(1994, 1, 1), Date(0), Date(77)]),
            Column::from_bools(vec![true, false, true]),
            Column::from_chrs(vec![b'x', b'a', b'x']),
            Column::from_lngs(vec![5, -9, 5]),
        ];
        assert_eq!(cols[3].encoding(), crate::props::Enc::Dict);
        for col in &cols {
            for i in 0..col.len() {
                for j in 0..col.len() {
                    let c = for_each_typed!(col, |t| t.cmp_one(t.value(i), t.value(j)));
                    let want = col.get(i).cmp_same_type(&col.get(j));
                    assert_eq!(c, want, "cmp mismatch on {} ({i}, {j})", col.atom_type());
                    let h =
                        for_each_typed!(col, |t| (t.hash_one(t.value(i)), t.hash_one(t.value(j))));
                    if c.is_eq() {
                        assert_eq!(h.0, h.1, "equal values hash apart on {}", col.atom_type());
                    }
                    let atom = col.get(j);
                    let c = for_each_typed!(col, |t| t.cmp_atom(t.value(i), &atom));
                    assert_eq!(c, want, "cmp_atom mismatch on {} ({i}, {j})", col.atom_type());
                }
            }
        }
        // Equal values hash equally across layouts: the `HashIndex`
        // contract, which lets one index serve both operands of a join.
        let hashes = |col: &Column| -> Vec<u64> {
            for_each_typed!(col, |t| (0..t.len()).map(|i| t.hash_one(t.value(i))).collect())
        };
        assert_eq!(hashes(&Column::from_oids(vec![40, 41, 42])), hashes(&Column::void(40, 3)));
        let raw = Column::from_strs(strs.iter().cycle().take(64));
        let dict = raw.encode();
        assert_eq!(dict.encoding(), crate::props::Enc::Dict);
        assert_eq!(hashes(&raw), hashes(&dict));
        let pairs_eq = for_each_typed2!(&raw, &dict, |a, b| {
            (0..a.len()).all(|i| a.eq_one(a.value(i), b.value(i)))
        });
        assert!(pairs_eq, "raw and dictionary strings compare equal row for row");
    }

    #[test]
    fn typed_respects_windows() {
        let hashes = |col: &Column| -> Vec<u64> {
            for_each_typed!(col, |t| (0..t.len()).map(|i| t.hash_one(t.value(i))).collect())
        };
        let col = Column::from_ints(vec![10, 20, 30, 40, 50]).slice(1, 3);
        let n = for_each_typed!(&col, |t| t.len());
        assert_eq!(n, 3);
        assert_eq!(hashes(&col), hashes(&Column::from_ints(vec![20, 30, 40])));
        let sc = Column::from_strs(["aa", "bb", "cc", "dd"]).slice(1, 2);
        let first = for_each_typed!(&sc, |t| t.value(0).to_string());
        assert_eq!(first, "bb");
        assert_eq!(hashes(&sc), hashes(&Column::from_strs(["bb", "cc"])));
        let void = Column::void(100, 6).slice(2, 2);
        assert_eq!(hashes(&void), vec![fxhash64(102), fxhash64(103)]);
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

    /// The binary-search pair agrees with the column's bounds taken by a
    /// linear scan.
    #[test]
    fn bounds_match_column_bounds() {
        let col = Column::from_ints(vec![1, 3, 3, 3, 7, 9]);
        for probe in [-1, 0, 1, 3, 5, 8, 9, 12, 99] {
            let atom = AtomValue::Int(probe);
            let (lo, hi, lo_scan, hi_scan) = for_each_typed!(&col, |t| {
                let cmp = |v| t.cmp_atom(v, &atom);
                let lo_scan = (0..t.len()).take_while(|&i| cmp(t.value(i)).is_lt()).count();
                let hi_scan = (0..t.len()).take_while(|&i| !cmp(t.value(i)).is_gt()).count();
                (lower_bound_by(t, cmp), upper_bound_by(t, cmp), lo_scan, hi_scan)
            });
            assert_eq!(lo, lo_scan, "lower_bound_by({probe})");
            assert_eq!(hi, hi_scan, "upper_bound_by({probe})");
        }
        let s = Column::from_ints(vec![2, 4, 6, 8]);
        if let TypedSlice::Int(v) = TypedSlice::of(&s) {
            assert_eq!(lower_bound_by(v, |x| x.cmp(&5)), 2);
            assert_eq!(upper_bound_by(v, |x| x.cmp(&6)), 3);
            assert_eq!(lower_bound_by(v, |x| x.cmp(&3)), 1);
            assert_eq!(upper_bound_by(v, |x| x.cmp(&99)), 4);
        } else {
            unreachable!()
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
        assert_eq!(radix_bits(usize::MAX), MAX_RADIX_BITS);
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
        assert_eq!(t.reps(), &[0, 1, 5]);
    }
}
