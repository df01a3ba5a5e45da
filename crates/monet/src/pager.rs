//! Simulated virtual-memory pager.
//!
//! Monet relies on memory-mapped files and lets the hardware MMU do buffer
//! management (Section 2). Our substitution (DESIGN.md §5.3) models every
//! column heap as a range of `B`-byte pages; operators declare their access
//! patterns and the pager counts *page faults*: first touches of pages not
//! currently resident. An optional resident-set capacity with FIFO
//! second-chance eviction models the 128 MB memory bound of the paper's
//! experiments (the Q1 hot-set overflow of Section 6.2).

use std::collections::{HashMap, VecDeque};

use crate::sync::Mutex;

use crate::column::{Column, ColumnId};
use crate::typed::TypedSlice;

/// Which heap of a column a page belongs to (Figure 2 shows a BAT owning a
/// BUN heap plus optional variable-size tail heaps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeapKind {
    /// The fixed-width BUN part.
    Fixed,
    /// The variable-size (string) heap.
    Var,
}

/// A page address: (column storage, heap, page number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageAddr {
    pub col: ColumnId,
    pub heap: HeapKind,
    pub page: u64,
}

#[derive(Default)]
struct PagerInner {
    resident: HashMap<PageAddr, bool>, // value = referenced bit (second chance)
    fifo: VecDeque<PageAddr>,
    faults: u64,
    touches: u64,
}

/// The simulated pager.
///
/// `capacity_pages = None` models the unbounded ("everything stays mapped")
/// case used for fault *counting*; `Some(n)` bounds the resident set and
/// triggers eviction, reproducing IO-bound behaviour.
pub struct Pager {
    page_size: usize,
    capacity_pages: Option<usize>,
    inner: Mutex<PagerInner>,
}

impl Pager {
    /// Default page size used throughout the paper's cost model: 4096 bytes.
    pub const DEFAULT_PAGE_SIZE: usize = 4096;

    pub fn new(page_size: usize) -> Pager {
        assert!(page_size > 0);
        Pager { page_size, capacity_pages: None, inner: Mutex::new(PagerInner::default()) }
    }

    /// Pager with a bounded resident set (in pages).
    pub fn with_capacity(page_size: usize, capacity_pages: usize) -> Pager {
        Pager {
            page_size,
            capacity_pages: Some(capacity_pages.max(1)),
            inner: Mutex::new(PagerInner::default()),
        }
    }

    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Total page faults since construction or the last [`Pager::reset`].
    pub fn faults(&self) -> u64 {
        self.inner.lock().faults
    }

    /// Total page touches (faulting or not).
    pub fn touches(&self) -> u64 {
        self.inner.lock().touches
    }

    /// Number of currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.inner.lock().resident.len()
    }

    /// Forget all residency and zero the counters (cold start).
    pub fn reset(&self) {
        let mut g = self.inner.lock();
        g.resident.clear();
        g.fifo.clear();
        g.faults = 0;
        g.touches = 0;
    }

    /// Zero the fault/touch counters but keep residency (measure a warm run).
    pub fn reset_counters(&self) {
        let mut g = self.inner.lock();
        g.faults = 0;
        g.touches = 0;
    }

    fn touch_addr(g: &mut PagerInner, cap: Option<usize>, addr: PageAddr) {
        g.touches += 1;
        if let Some(refbit) = g.resident.get_mut(&addr) {
            *refbit = true;
            return;
        }
        g.faults += 1;
        if let Some(cap) = cap {
            // FIFO second-chance eviction.
            while g.resident.len() >= cap {
                let Some(victim) = g.fifo.pop_front() else { break };
                match g.resident.get_mut(&victim) {
                    Some(refbit) if *refbit => {
                        *refbit = false;
                        g.fifo.push_back(victim);
                    }
                    Some(_) => {
                        g.resident.remove(&victim);
                    }
                    None => {}
                }
            }
        }
        g.resident.insert(addr, false);
        g.fifo.push_back(addr);
    }

    /// Touch every page overlapping `[byte_off, byte_off + byte_len)` of the
    /// given heap.
    pub fn touch_range(&self, col: ColumnId, heap: HeapKind, byte_off: u64, byte_len: u64) {
        if byte_len == 0 {
            return;
        }
        let ps = self.page_size as u64;
        let first = byte_off / ps;
        let last = (byte_off + byte_len - 1) / ps;
        let mut g = self.inner.lock();
        for page in first..=last {
            Self::touch_addr(&mut g, self.capacity_pages, PageAddr { col, heap, page });
        }
    }

    /// Touch the single page containing `byte_off`.
    pub fn touch_byte(&self, col: ColumnId, heap: HeapKind, byte_off: u64) {
        let page = byte_off / self.page_size as u64;
        let mut g = self.inner.lock();
        Self::touch_addr(&mut g, self.capacity_pages, PageAddr { col, heap, page });
    }
}

impl Default for Pager {
    fn default() -> Pager {
        Pager::new(Pager::DEFAULT_PAGE_SIZE)
    }
}

// ---------------------------------------------------------------------------
// Access-pattern helpers on columns.
// ---------------------------------------------------------------------------

/// Sequentially scan the whole window of a column: touches the fixed heap
/// range and, for strings, the full variable heap (a scan dereferences
/// every offset).
pub fn touch_scan(pager: &Pager, col: &Column) {
    let (off, len) = col.window();
    let w = col.atom_type().width() as u64;
    if w > 0 && len > 0 {
        pager.touch_range(col.storage_id(), HeapKind::Fixed, off as u64 * w, len as u64 * w);
    }
    if let TypedSlice::Str(sv) = col.typed() {
        if !sv.heap().is_empty() {
            pager.touch_range(col.storage_id(), HeapKind::Var, 0, sv.heap().len() as u64);
        }
    }
}

/// Random (unclustered) fetch of BUN `i`: one fixed-heap page, plus the
/// variable-heap page holding the string bytes.
pub fn touch_fetch(pager: &Pager, col: &Column, i: usize) {
    let (off, _) = col.window();
    let w = col.atom_type().width() as u64;
    if w > 0 {
        pager.touch_byte(col.storage_id(), HeapKind::Fixed, (off + i) as u64 * w);
    }
    if let TypedSlice::Str(sv) = col.typed() {
        pager.touch_byte(col.storage_id(), HeapKind::Var, sv.offsets()[i] as u64);
    }
}

/// Probe-based binary search over a sorted column: touches the page of each
/// probe position. Early probes land on few distinct pages that stay
/// resident, so repeated searches are nearly free — exactly the effect the
/// datavector semijoin exploits.
pub fn touch_binary_search(pager: &Pager, col: &Column) {
    let (off, len) = col.window();
    let w = col.atom_type().width() as u64;
    if w == 0 || len == 0 {
        return;
    }
    let (lo, mut hi) = (0usize, len);
    while lo < hi {
        let mid = (lo + hi) / 2;
        pager.touch_byte(col.storage_id(), HeapKind::Fixed, (off + mid) as u64 * w);
        // Direction is irrelevant for page accounting; descend left.
        hi = mid;
    }
}

// ---------------------------------------------------------------------------
// The real pager: read-only file mappings for store-backed columns.
//
// The simulated `Pager` above models fault behaviour for anonymous
// in-memory worlds. Columns opened from `monet::store` do not need the
// model — they live in actual `mmap`ed files, so the operating system's
// MMU is the pager and the process fault counters are the oracle. The two
// coexist: simulated worlds keep their touch accounting, store-backed
// worlds report through [`process_faults`].
// ---------------------------------------------------------------------------

/// A read-only mapping of one store file. `mmap` on unix (private,
/// `PROT_READ`); a heap copy everywhere else (and on empty files, which
/// cannot be mapped). Dropping unmaps.
pub struct Mapping {
    repr: MapRepr,
}

enum MapRepr {
    #[cfg(unix)]
    Mmap { ptr: *mut u8, len: usize },
    /// Heap fallback: the file read into an 8-byte-aligned buffer, so the
    /// page-aligned segment offsets of the store format stay aligned for
    /// every fixed-width element type.
    Heap(Vec<u64>, usize),
}

// SAFETY: the mapping is private and read-only for its whole lifetime.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

#[cfg(unix)]
mod mmap_sys {
    // Minimal libc surface, declared locally: the container builds with no
    // external crates, and std already links the platform libc.
    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    extern "C" {
        pub fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        pub fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }
}

impl Mapping {
    /// Map `file` read-only in O(1); fall back to reading it into memory
    /// when mapping is unavailable.
    pub fn map(file: &std::fs::File) -> std::io::Result<Mapping> {
        let len = file.metadata()?.len() as usize;
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            if len > 0 {
                // SAFETY: a null address hint, a non-zero length, a
                // read-only private mapping of an open descriptor: the call
                // either fails (checked below) or returns a fresh mapping of
                // `len` bytes that nothing else aliases or writes.
                let ptr = unsafe {
                    mmap_sys::mmap(
                        std::ptr::null_mut(),
                        len,
                        mmap_sys::PROT_READ,
                        mmap_sys::MAP_PRIVATE,
                        file.as_raw_fd(),
                        0,
                    )
                };
                if ptr as isize != -1 && !ptr.is_null() {
                    return Ok(Mapping { repr: MapRepr::Mmap { ptr: ptr as *mut u8, len } });
                }
            }
        }
        Mapping::read_fallback(file, len)
    }

    fn read_fallback(file: &std::fs::File, len: usize) -> std::io::Result<Mapping> {
        use std::io::Read;
        let words = len.div_ceil(8);
        let mut buf: Vec<u64> = vec![0; words];
        // SAFETY: `buf` is `words` initialized u64s, i.e. `words * 8`
        // initialized bytes; `u8` needs no alignment; `bytes` is the only
        // access to `buf` while it lives.
        let bytes =
            unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, words * 8) };
        let mut f = file;
        let mut at = 0usize;
        while at < len {
            let n = f.read(&mut bytes[at..len])?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "file shrank while reading",
                ));
            }
            at += n;
        }
        Ok(Mapping { repr: MapRepr::Heap(buf, len) })
    }

    /// The mapped bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        match &self.repr {
            #[cfg(unix)]
            MapRepr::Mmap { ptr, len } => {
                // SAFETY: ptr/len come from a successful read-only mmap
                // that is unmapped only on drop, after this borrow ends.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            MapRepr::Heap(buf, len) => {
                debug_assert!(*len <= buf.len() * 8);
                // SAFETY: `buf` holds `len.div_ceil(8)` initialized u64s,
                // so its first `len` bytes are initialized; `u8` needs no
                // alignment; the slice borrows `self`.
                unsafe { std::slice::from_raw_parts(buf.as_ptr() as *const u8, *len) }
            }
        }
    }

    /// True when this is a real `mmap` (not the heap fallback).
    pub fn is_mmap(&self) -> bool {
        #[cfg(unix)]
        {
            matches!(self.repr, MapRepr::Mmap { .. })
        }
        #[cfg(not(unix))]
        {
            false
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let MapRepr::Mmap { ptr, len } = self.repr {
            // SAFETY: ptr/len are exactly what mmap returned for this
            // mapping, and every view of it borrows `self` or holds an
            // `Arc<Mapping>`, so nothing reads the range after this.
            unsafe { mmap_sys::munmap(ptr as *mut core::ffi::c_void, len) };
        }
    }
}

/// Process-wide `(minor, major)` page-fault counts — the real pager's
/// fault oracle for store-backed (mmap) columns, read from
/// `/proc/self/stat` on Linux; `(0, 0)` where unavailable. Diff two
/// readings around an operation to attribute faults to it (single-threaded
/// harnesses only; the counters are process-global).
pub fn process_faults() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0, 0);
    };
    // Fields after the parenthesized comm (which may contain spaces):
    // minflt is field 10, majflt field 12 (1-based over the whole line).
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return (0, 0);
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let g = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    // rest starts at field 3 ("state"), so minflt (field 10) is index 7
    // and majflt (field 12) is index 9.
    (g(7), g(9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_scan_faults_once_per_page() {
        let pager = Pager::new(4096);
        let col = Column::from_ints((0..4096).collect()); // 16 KiB = 4 pages
        touch_scan(&pager, &col);
        assert_eq!(pager.faults(), 4);
        touch_scan(&pager, &col); // warm: no new faults
        assert_eq!(pager.faults(), 4);
        assert_eq!(pager.touches(), 8);
    }

    #[test]
    fn void_columns_never_fault() {
        let pager = Pager::default();
        let col = Column::void(0, 1_000_000);
        touch_scan(&pager, &col);
        assert_eq!(pager.faults(), 0);
    }

    #[test]
    fn string_scan_touches_var_heap() {
        let pager = Pager::new(64);
        let col = Column::from_strs(std::iter::repeat("abcdefgh").take(64));
        touch_scan(&pager, &col);
        // 64 offsets * 4B = 256B = 4 pages fixed; 512B heap = 8 pages var.
        assert_eq!(pager.faults(), 12);
    }

    #[test]
    fn random_fetch_counts_distinct_pages() {
        let pager = Pager::new(4096);
        let col = Column::from_ints((0..10240).collect()); // 10 pages
        touch_fetch(&pager, &col, 0);
        touch_fetch(&pager, &col, 1); // same page
        touch_fetch(&pager, &col, 2048); // page 2
        assert_eq!(pager.faults(), 2);
    }

    #[test]
    fn capacity_evicts() {
        let pager = Pager::with_capacity(4096, 2);
        let col = Column::from_ints((0..4096).collect()); // 4 pages
        touch_scan(&pager, &col);
        assert_eq!(pager.faults(), 4);
        assert!(pager.resident_pages() <= 2);
        // Re-scan: the early pages were evicted, so they fault again.
        touch_scan(&pager, &col);
        assert!(pager.faults() > 4);
    }

    #[test]
    fn binary_search_touch_is_logarithmic() {
        let pager = Pager::new(4096);
        let col = Column::from_ints((0..1 << 20).collect()); // 1M ints, 1024 pages
        touch_binary_search(&pager, &col);
        let first = pager.faults();
        assert!(first <= 21, "expected <= log2(1M) touches, got {first}");
        // Second search: top probe pages are resident.
        touch_binary_search(&pager, &col);
        assert_eq!(pager.faults(), first);
    }

    #[test]
    fn reset_clears() {
        let pager = Pager::default();
        let col = Column::from_ints((0..10000).collect());
        touch_scan(&pager, &col);
        assert!(pager.faults() > 0);
        pager.reset();
        assert_eq!(pager.faults(), 0);
        assert_eq!(pager.resident_pages(), 0);
    }
}
