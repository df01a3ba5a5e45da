//! Variable-size atom heap for strings (Figure 2).
//!
//! For atoms of variable size — such as `string` — the BUN heap contains
//! integer byte-indices into an extra heap holding the actual bytes. This
//! module implements that layout: a flat byte heap plus a per-BUN offset
//! array. Identical strings may share heap space when built through
//! [`StrHeapBuilder::push_dedup`], mimicking Monet's double-elimination in
//! string heaps.

use std::collections::HashMap;
use std::sync::Arc;

use crate::buf::Buf;

/// Immutable string column: `offsets[i]..offsets[i]+lens[i]` addresses the
/// bytes of value *i* inside the shared byte heap.
///
/// All three heaps live in [`Buf`]s, so a `StrVec` is either built in
/// memory or a zero-copy view of mapped store segments (the store
/// validates offsets, lengths, and UTF-8 at open).
#[derive(Debug, Clone)]
pub struct StrVec {
    offsets: Arc<Buf<u32>>,
    lens: Arc<Buf<u32>>,
    heap: Arc<Buf<u8>>,
}

impl StrVec {
    /// Number of values.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Borrow value `i`.
    pub fn get(&self, i: usize) -> &str {
        let off = self.offsets[i] as usize;
        let len = self.lens[i] as usize;
        // Heap contents are only ever written through the builder, which
        // copies from `&str`, so the bytes are valid UTF-8.
        std::str::from_utf8(&self.heap[off..off + len]).expect("heap holds valid UTF-8")
    }

    /// Iterate over all values in BUN order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Size of the variable-part heap in bytes (for the pager and the
    /// memory accounting of Figure 9).
    pub fn heap_bytes(&self) -> usize {
        self.heap.len()
    }

    /// Byte offset of value `i` inside the heap; used by the pager to place
    /// random accesses on the right heap page.
    pub fn heap_offset(&self, i: usize) -> (u64, u64) {
        (self.offsets[i] as u64, self.lens[i] as u64)
    }

    /// Build a new column containing `idx`-selected values. The byte heap is
    /// shared (values are not copied), only the offset arrays are rebuilt —
    /// this is what makes "projection" of a string BAT cheap.
    pub fn gather(&self, idx: &[u32]) -> StrVec {
        let mut offsets = Vec::with_capacity(idx.len());
        let mut lens = Vec::with_capacity(idx.len());
        for &i in idx {
            offsets.push(self.offsets[i as usize]);
            lens.push(self.lens[i as usize]);
        }
        StrVec {
            offsets: Arc::new(offsets.into()),
            lens: Arc::new(lens.into()),
            heap: Arc::clone(&self.heap),
        }
    }

    /// The offset array, which a gather rebuilds (it shares the byte heap).
    pub(crate) fn offsets(&self) -> &Arc<Buf<u32>> {
        &self.offsets
    }

    /// The byte heap, which every gather and slice of this column shares.
    pub(crate) fn heap(&self) -> &Arc<Buf<u8>> {
        &self.heap
    }

    /// Windowed raw parts `(offsets, lens, heap)` for the typed kernel
    /// layer ([`crate::typed::StrVals`]).
    pub(crate) fn parts(&self, off: usize, len: usize) -> (&[u32], &[u32], &[u8]) {
        (&self.offsets[off..off + len], &self.lens[off..off + len], &self.heap)
    }

    /// Assemble a column from pre-built heaps — the store's open path
    /// (mapped segments). The caller vouches that `offsets[i] + lens[i]`
    /// stays inside the heap and the addressed bytes are valid UTF-8; the
    /// store checks both before constructing.
    pub(crate) fn from_heaps(
        offsets: Arc<Buf<u32>>,
        lens: Arc<Buf<u32>>,
        heap: Arc<Buf<u8>>,
    ) -> StrVec {
        assert_eq!(offsets.len(), lens.len());
        StrVec { offsets, lens, heap }
    }

    /// True when both columns are views of the *same* allocation (all three
    /// heaps pointer-equal). Dictionary code splicing keys on this: equal
    /// storage means equal code assignments.
    pub(crate) fn same_storage(&self, other: &StrVec) -> bool {
        Arc::ptr_eq(&self.offsets, &other.offsets)
            && Arc::ptr_eq(&self.lens, &other.lens)
            && Arc::ptr_eq(&self.heap, &other.heap)
    }

    /// Zero-copy sub-range view (shares all three heaps).
    pub fn slice(&self, start: usize, len: usize) -> StrVec {
        let offsets = self.offsets[start..start + len].to_vec();
        let lens = self.lens[start..start + len].to_vec();
        StrVec {
            offsets: Arc::new(offsets.into()),
            lens: Arc::new(lens.into()),
            heap: Arc::clone(&self.heap),
        }
    }
}

impl FromIterator<String> for StrVec {
    fn from_iter<T: IntoIterator<Item = String>>(iter: T) -> Self {
        let mut b = StrHeapBuilder::new();
        for s in iter {
            b.push(&s);
        }
        b.finish()
    }
}

impl<'a> FromIterator<&'a str> for StrVec {
    fn from_iter<T: IntoIterator<Item = &'a str>>(iter: T) -> Self {
        let mut b = StrHeapBuilder::new();
        for s in iter {
            b.push(s);
        }
        b.finish()
    }
}

/// Incremental builder for [`StrVec`].
#[derive(Debug, Default)]
pub struct StrHeapBuilder {
    offsets: Vec<u32>,
    lens: Vec<u32>,
    heap: Vec<u8>,
    dedup: HashMap<Box<str>, (u32, u32)>,
}

impl StrHeapBuilder {
    /// Fresh empty builder.
    pub fn new() -> StrHeapBuilder {
        StrHeapBuilder::default()
    }

    /// Builder with pre-reserved capacity for `n` values of average length
    /// `avg_len` bytes.
    pub fn with_capacity(n: usize, avg_len: usize) -> StrHeapBuilder {
        StrHeapBuilder {
            offsets: Vec::with_capacity(n),
            lens: Vec::with_capacity(n),
            heap: Vec::with_capacity(n * avg_len),
            dedup: HashMap::new(),
        }
    }

    /// Append a value, always writing fresh heap bytes.
    pub fn push(&mut self, s: &str) {
        let off = self.heap.len() as u32;
        self.heap.extend_from_slice(s.as_bytes());
        self.offsets.push(off);
        self.lens.push(s.len() as u32);
    }

    /// Append a value, reusing heap bytes when the same string was pushed
    /// before (double elimination).
    pub fn push_dedup(&mut self, s: &str) {
        if let Some(&(off, len)) = self.dedup.get(s) {
            self.offsets.push(off);
            self.lens.push(len);
            return;
        }
        let off = self.heap.len() as u32;
        self.heap.extend_from_slice(s.as_bytes());
        self.offsets.push(off);
        self.lens.push(s.len() as u32);
        self.dedup.insert(s.into(), (off, s.len() as u32));
    }

    /// Number of values pushed so far.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Freeze into an immutable column.
    pub fn finish(self) -> StrVec {
        StrVec {
            offsets: Arc::new(self.offsets.into()),
            lens: Arc::new(self.lens.into()),
            heap: Arc::new(self.heap.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_read() {
        let v: StrVec = ["Annita", "Martin", "Peter", ""].into_iter().collect();
        assert_eq!(v.len(), 4);
        assert_eq!(v.get(0), "Annita");
        assert_eq!(v.get(2), "Peter");
        assert_eq!(v.get(3), "");
        assert_eq!(v.iter().collect::<Vec<_>>(), vec!["Annita", "Martin", "Peter", ""]);
    }

    #[test]
    fn dedup_shares_heap_bytes() {
        let mut b = StrHeapBuilder::new();
        for _ in 0..100 {
            b.push_dedup("Clerk#000000088");
        }
        let v = b.finish();
        assert_eq!(v.len(), 100);
        assert_eq!(v.heap_bytes(), "Clerk#000000088".len());
        assert!(v.iter().all(|s| s == "Clerk#000000088"));
    }

    #[test]
    fn gather_shares_heap() {
        let v: StrVec = ["a", "bb", "ccc", "dddd"].into_iter().collect();
        let g = v.gather(&[3, 1]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.get(0), "dddd");
        assert_eq!(g.get(1), "bb");
        assert_eq!(g.heap_bytes(), v.heap_bytes()); // shared, not copied
    }

    #[test]
    fn slice_view() {
        let v: StrVec = ["a", "bb", "ccc", "dddd"].into_iter().collect();
        let s = v.slice(1, 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec!["bb", "ccc"]);
    }

    #[test]
    fn unicode_safe() {
        let v: StrVec = ["héllo", "wörld"].into_iter().collect();
        assert_eq!(v.get(0), "héllo");
        assert_eq!(v.get(1), "wörld");
    }
}
