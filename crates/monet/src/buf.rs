//! Owned-or-mapped column storage.
//!
//! Every fixed-width array a [`crate::column::Column`] holds lives in a
//! [`Buf<T>`]: either a plain owned `Vec<T>` (columns built at load/query
//! time) or a typed window into a [`crate::pager::Mapping`] of a store
//! file (columns opened from `monet::store`). `Buf` dereferences to
//! `&[T]`, so the typed kernel layer — which only ever sees slices — runs
//! on both representations unchanged; nothing downstream of the column
//! constructors can tell a mapped column from an owned one.
//!
//! Mapped buffers are **read-only** by construction (the mapping is
//! `PROT_READ`; there is no `&mut` accessor), which is the store's
//! binding rule: a BAT opened from disk can be sliced, gathered, and
//! re-encoded — all of which allocate fresh owned buffers — but never
//! mutated in place.

use std::ops::Deref;
use std::sync::Arc;

use crate::pager::Mapping;

/// An immutable element buffer: owned vector or typed mapping window.
pub struct Buf<T> {
    repr: Repr<T>,
}

enum Repr<T> {
    Owned(Vec<T>),
    /// A `[T]` window into a file mapping. The `Arc` keeps the mapping
    /// (and with it the pointed-to bytes) alive for the buffer's
    /// lifetime; `ptr` is derived from it at construction.
    Mapped {
        _map: Arc<Mapping>,
        ptr: *const T,
        len: usize,
    },
}

// SAFETY: a mapped buffer is an immutable view of a private, read-only
// file mapping; the owned variant is a Vec. Either way `Buf` is a plain
// shared-read container, so it is Send/Sync whenever its elements are.
unsafe impl<T: Send> Send for Buf<T> {}
unsafe impl<T: Sync> Sync for Buf<T> {}

impl<T> Buf<T> {
    /// View a `[byte_off, byte_off + len * size_of::<T>())` window of the
    /// mapping as `&[T]`.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the window lies inside the mapping, is
    /// aligned for `T`, and holds `len` valid values of `T` — i.e. `T` is
    /// plain old data (any bit pattern valid), or the bytes were
    /// validated first (the store validates `bool` segments and string
    /// heaps at open). The store's segment table is the single place
    /// that establishes these invariants.
    pub(crate) unsafe fn from_mapping(map: Arc<Mapping>, byte_off: usize, len: usize) -> Buf<T> {
        let bytes = map.bytes();
        let end = len.checked_mul(std::mem::size_of::<T>()).and_then(|n| n.checked_add(byte_off));
        debug_assert!(end.is_some_and(|end| end <= bytes.len()), "mapped window out of bounds");
        // SAFETY: the caller guarantees the window lies inside the mapping
        // (checked above in debug builds), so the offset stays in bounds.
        let ptr = unsafe { bytes.as_ptr().add(byte_off) } as *const T;
        debug_assert_eq!(ptr as usize % std::mem::align_of::<T>(), 0, "misaligned mapped buffer");
        Buf { repr: Repr::Mapped { _map: map, ptr, len } }
    }

    /// True when this buffer is a file-mapping window (perf reporting).
    pub fn is_mapped(&self) -> bool {
        matches!(self.repr, Repr::Mapped { .. })
    }
}

impl<T> From<Vec<T>> for Buf<T> {
    fn from(v: Vec<T>) -> Buf<T> {
        Buf { repr: Repr::Owned(v) }
    }
}

impl<T> FromIterator<T> for Buf<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Buf<T> {
        Vec::from_iter(iter).into()
    }
}

impl<T> Deref for Buf<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v,
            Repr::Mapped { ptr, len, .. } => {
                // SAFETY: `from_mapping`'s caller established that the
                // window is in bounds, aligned and holds `len` valid `T`s;
                // `_map` keeps the mapping alive as long as `self`.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Buf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Mirror Vec's Debug (the pre-Buf representation) so derived
        // Column/ColumnVals output is unchanged.
        std::fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_buf_derefs_like_vec() {
        let b: Buf<i32> = vec![1, 2, 3].into();
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_mapped());
        assert_eq!(format!("{b:?}"), "[1, 2, 3]");
    }
}
