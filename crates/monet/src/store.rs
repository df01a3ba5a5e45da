//! Persistent columnar BAT store: one page-aligned file per column plus a
//! versioned superblock, opened in O(1) via [`crate::pager::Mapping`].
//!
//! The paper's BATs live in anonymous RAM and are regenerated per process;
//! this module gives the same physical layouts — raw arrays, string heaps
//! and dictionary-coded strings — an on-disk form. A written store is a
//! directory:
//!
//! | file          | contents                                             |
//! |---------------|------------------------------------------------------|
//! | `store.sb`    | superblock: column table, BAT table (names, props,   |
//! |               | datavector wiring), trailing xxhash64                |
//! | `col-N.bat`   | one column: 4 KiB header (atom, layout descriptor,   |
//! |               | rows, per-segment xxhash64) + page-aligned segments  |
//!
//! Opening maps each column file once and wraps its segments in
//! [`crate::buf::Buf`] windows — the typed kernels run on mapped columns
//! unchanged, and columns shared between BATs at write time come back as
//! *one* column (same fresh [`crate::column::ColumnId`]), so the `synced`
//! property survives the round trip. Mapped columns are **read-only** by
//! construction; every mutation path in the kernel allocates fresh owned
//! buffers. Run indexes ([`crate::accel::runs`]) are not part of the
//! format: open rebuilds each one from its mapped sorted oid tail.
//!
//! Validation is layered. The default open checks magic/version, header and
//! superblock checksums, segment bounds (truncation), descriptor
//! consistency (the wrong-`Enc` class of corruption), and the invariants
//! the kernel's `unsafe` relies on: string windows are in-bounds valid
//! UTF-8, bool bytes are 0/1, dict codes address the dictionary. A layout
//! tag this reader does not know — the retired FOR tag 3, the RLE tag 4
//! no writer ever produced — is a descriptor mismatch. Full data
//! checksums are O(data) and opt-in ([`OpenOptions::verify_data`],
//! [`verify_dir`]) — that is what the corruption sweep and
//! `flatalg-store verify` run.

use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::accel::datavector::{Datavector, Extent};
use crate::atom::AtomType;
use crate::bat::Bat;
use crate::buf::Buf;
use crate::column::{Column, ColumnIdentity, ColumnVals, DictCodes, DictStrData};
use crate::db::Db;
use crate::error::{MonetError, Result};
use crate::gov::{site, Governor};
use crate::pager::Mapping;
use crate::props::{ColProps, Enc, Props};
use crate::strheap::StrVec;
use crate::typed::{CodeSlice, StrVals, TypedSlice};

/// File-format version; bumped on any incompatible layout change. Version
/// 2 dropped the frame-of-reference layout (tag 3) that version 1 wrote
/// for `int`/`date` columns.
pub const VERSION: u32 = 2;
/// Segment alignment: every segment starts on a page boundary, so mapped
/// windows are aligned for any element type.
pub const PAGE: usize = 4096;

const SB_MAGIC: u64 = u64::from_le_bytes(*b"FLATSB\x01\0");
const COL_MAGIC: u64 = u64::from_le_bytes(*b"FLATBAT\x01");
const SB_NAME: &str = "store.sb";

// Column-file layout descriptors.
const LAYOUT_RAW: u8 = 0;
const LAYOUT_STR: u8 = 1;
const LAYOUT_DICT: u8 = 2;

// Segment kinds.
const SEG_DATA: u32 = 0; // raw values / dict codes
const SEG_STR_OFFSETS: u32 = 1;
const SEG_STR_LENS: u32 = 2;
const SEG_STR_HEAP: u32 = 3;
const SEG_DICT_OFFSETS: u32 = 4;
const SEG_DICT_LENS: u32 = 5;
const SEG_DICT_HEAP: u32 = 6;

/// xxHash64 (XXH64), the per-segment and superblock checksum. Public so
/// tests can re-stamp a header after targeted corruption.
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    #[inline]
    fn read64(b: &[u8]) -> u64 {
        u64::from_le_bytes(b[..8].try_into().unwrap())
    }
    #[inline]
    fn round(acc: u64, input: u64) -> u64 {
        acc.wrapping_add(input.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
    }
    let len = data.len();
    let mut rest = data;
    let mut h = if len >= 32 {
        let (mut v1, mut v2) = (seed.wrapping_add(P1).wrapping_add(P2), seed.wrapping_add(P2));
        let (mut v3, mut v4) = (seed, seed.wrapping_sub(P1));
        while rest.len() >= 32 {
            v1 = round(v1, read64(rest));
            v2 = round(v2, read64(&rest[8..]));
            v3 = round(v3, read64(&rest[16..]));
            v4 = round(v4, read64(&rest[24..]));
            rest = &rest[32..];
        }
        let mut h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        for v in [v1, v2, v3, v4] {
            h = (h ^ round(0, v)).wrapping_mul(P1).wrapping_add(P4);
        }
        h
    } else {
        seed.wrapping_add(P5)
    };
    h = h.wrapping_add(len as u64);
    while rest.len() >= 8 {
        h = (h ^ round(0, read64(rest))).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        let v = u32::from_le_bytes(rest[..4].try_into().unwrap()) as u64;
        h = (h ^ v.wrapping_mul(P1)).rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ (b as u64).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

fn serr(op: &'static str, path: &Path, detail: impl Into<String>) -> MonetError {
    MonetError::Store { op, path: path.display().to_string(), detail: detail.into() }
}

fn io_err(op: &'static str, path: &Path, e: std::io::Error) -> MonetError {
    serr(op, path, e.to_string())
}

/// The element types the store writes: the raw layouts' primitives, the
/// dictionary code widths and the string offsets/lengths. Each is a
/// primitive without padding bytes, so every byte of it is initialized.
/// Private, so no other type can be viewed as bytes.
trait Plain: Copy {}

impl Plain for bool {}
impl Plain for u8 {}
impl Plain for u16 {}
impl Plain for u32 {}
impl Plain for u64 {}
impl Plain for i32 {}
impl Plain for i64 {}
impl Plain for f64 {}

/// View fixed-width elements as raw bytes for writing/hashing (`bool` is a
/// single byte of 0/1 by language guarantee).
fn as_bytes<T: Plain>(v: &[T]) -> &[u8] {
    // SAFETY: `Plain` types are padding-free primitives; any byte of them
    // may be read.
    unsafe { std::slice::from_raw_parts(v.as_ptr() as *const u8, std::mem::size_of_val(v)) }
}

/// Options for [`open_dir`].
#[derive(Debug, Clone, Default)]
pub struct OpenOptions {
    /// Also verify the xxhash64 of every data segment (O(data); the
    /// default open verifies headers, bounds, descriptors, and the
    /// kernel-safety invariants only).
    pub verify_data: bool,
}

/// What [`open_dir`] returns: the rebuilt catalog plus open statistics.
pub struct OpenedStore {
    pub db: Db,
    /// Scale factor recorded at build time.
    pub sf: f64,
    /// Total bytes of column files mapped.
    pub mapped_bytes: u64,
    /// Number of column files mapped.
    pub files: usize,
    /// True when every file is a real `mmap` (false = heap fallback).
    pub mmap: bool,
}

/// Statistics from [`write_dir`].
pub struct WriteStats {
    /// Files written (column files + superblock).
    pub files: usize,
    /// Total bytes written.
    pub bytes: u64,
}

// ---------------------------------------------------------------- writing

struct ColRecord {
    header_xxh: u64,
    /// `Some((seq, len))` for inline void columns (no file).
    void: Option<(u64, u64)>,
    rows: u64,
}

/// Serialize every BAT of `db` (plus datavector extents/vectors) into
/// `dir`. Existing store files in `dir` are overwritten. Columns shared by
/// identity across BATs are written once and wired by index, so `synced`
/// relationships survive the round trip; partial windows are compacted
/// first (identity gather, encoding preserved).
pub fn write_dir(dir: &Path, db: &Db, sf: f64) -> Result<WriteStats> {
    fs::create_dir_all(dir).map_err(|e| io_err("store/write", dir, e))?;
    let mut col_ids: HashMap<ColumnIdentity, u32> = HashMap::new();
    let mut cols: Vec<ColRecord> = Vec::new();
    let mut bytes = 0u64;
    let mut intern = |c: &Column, cols: &mut Vec<ColRecord>, bytes: &mut u64| -> Result<u32> {
        if let Some(&idx) = col_ids.get(&c.identity()) {
            return Ok(idx);
        }
        let idx = cols.len() as u32;
        if let Some(seq) = c.void_seq() {
            cols.push(ColRecord {
                header_xxh: 0,
                void: Some((seq, c.len() as u64)),
                rows: c.len() as u64,
            });
        } else {
            let full = if c.is_full_window() { c.clone() } else { compact(c) };
            let path = dir.join(format!("col-{idx}.bat"));
            let (hdr_xxh, written) = write_column_file(&path, &full)?;
            *bytes += written;
            cols.push(ColRecord { header_xxh: hdr_xxh, void: None, rows: c.len() as u64 });
        }
        col_ids.insert(c.identity(), idx);
        Ok(idx)
    };

    // (name, head, tail, prop bits, datavector (extent, vector) wiring)
    let mut bat_rows: Vec<(String, u32, u32, u16, Option<(u32, u32)>)> = Vec::new();
    for (name, bat) in db.iter() {
        let head = intern(bat.head(), &mut cols, &mut bytes)?;
        let tail = intern(bat.tail(), &mut cols, &mut bytes)?;
        let dv = match &bat.accel().datavector {
            Some(dv) => {
                let ext = intern(dv.extent().oids(), &mut cols, &mut bytes)?;
                let vec = intern(dv.vector(), &mut cols, &mut bytes)?;
                Some((ext, vec))
            }
            None => None,
        };
        bat_rows.push((name.to_string(), head, tail, prop_bits(bat.props()), dv));
    }

    let mut sb: Vec<u8> = Vec::new();
    sb.extend_from_slice(&SB_MAGIC.to_le_bytes());
    sb.extend_from_slice(&VERSION.to_le_bytes());
    sb.extend_from_slice(&0u32.to_le_bytes());
    sb.extend_from_slice(&sf.to_bits().to_le_bytes());
    sb.extend_from_slice(&(cols.len() as u64).to_le_bytes());
    sb.extend_from_slice(&(bat_rows.len() as u64).to_le_bytes());
    for c in &cols {
        match c.void {
            Some((seq, len)) => {
                sb.push(1);
                sb.extend_from_slice(&seq.to_le_bytes());
                sb.extend_from_slice(&len.to_le_bytes());
            }
            None => {
                sb.push(0);
                sb.extend_from_slice(&c.rows.to_le_bytes());
                sb.extend_from_slice(&c.header_xxh.to_le_bytes());
            }
        }
    }
    for (name, head, tail, props, dv) in &bat_rows {
        let nb = name.as_bytes();
        sb.extend_from_slice(&(nb.len() as u16).to_le_bytes());
        sb.extend_from_slice(nb);
        sb.extend_from_slice(&head.to_le_bytes());
        sb.extend_from_slice(&tail.to_le_bytes());
        sb.extend_from_slice(&props.to_le_bytes());
        match dv {
            Some((ext, vec)) => {
                sb.push(1);
                sb.extend_from_slice(&ext.to_le_bytes());
                sb.extend_from_slice(&vec.to_le_bytes());
            }
            None => sb.push(0),
        }
    }
    let sum = xxh64(&sb, 0);
    sb.extend_from_slice(&sum.to_le_bytes());
    let sb_path = dir.join(SB_NAME);
    fs::write(&sb_path, &sb).map_err(|e| io_err("store/write", &sb_path, e))?;
    bytes += sb.len() as u64;
    Ok(WriteStats { files: cols.iter().filter(|c| c.void.is_none()).count() + 1, bytes })
}

/// Compact a partial window into full-window storage of the same layout
/// (gather of the identity permutation keeps the encoding).
fn compact(c: &Column) -> Column {
    let idx: Vec<u32> = (0..c.len() as u32).collect();
    c.gather(&idx)
}

fn prop_bits(p: Props) -> u16 {
    let b = |c: ColProps, shift: u16| {
        ((c.sorted as u16) | ((c.key as u16) << 1) | ((c.dense as u16) << 2)) << shift
    };
    b(p.head, 0) | b(p.tail, 3)
}

fn props_from_bits(bits: u16) -> Props {
    let c = |shift: u16| ColProps {
        sorted: (bits >> shift) & 1 != 0,
        key: (bits >> shift) & 2 != 0,
        dense: (bits >> shift) & 4 != 0,
        enc: Enc::None, // re-derived from storage by Bat::with_props
    };
    Props::new(c(0), c(3))
}

fn atom_code(t: AtomType) -> u8 {
    match t {
        AtomType::Void => 0,
        AtomType::Oid => 1,
        AtomType::Bool => 2,
        AtomType::Chr => 3,
        AtomType::Int => 4,
        AtomType::Lng => 5,
        AtomType::Dbl => 6,
        AtomType::Str => 7,
        AtomType::Date => 8,
    }
}

fn atom_from_code(c: u8) -> Option<AtomType> {
    Some(match c {
        0 => AtomType::Void,
        1 => AtomType::Oid,
        2 => AtomType::Bool,
        3 => AtomType::Chr,
        4 => AtomType::Int,
        5 => AtomType::Lng,
        6 => AtomType::Dbl,
        7 => AtomType::Str,
        8 => AtomType::Date,
        _ => return None,
    })
}

fn code_slice_bytes<'a>(c: &CodeSlice<'a>) -> (&'a [u8], u8) {
    match c {
        CodeSlice::W8(v) => (as_bytes(v), 1),
        CodeSlice::W16(v) => (as_bytes(v), 2),
        CodeSlice::W32(v) => (as_bytes(v), 4),
    }
}

/// The offset, length and byte-heap segments of a string window.
fn str_segs(v: StrVals<'_>) -> [&[u8]; 3] {
    [as_bytes(v.offsets()), as_bytes(v.lens()), v.heap()]
}

/// Write one full-window column into `path`. Returns the header checksum
/// (recorded in the superblock as a cross-check against file swaps) and
/// the bytes written.
fn write_column_file(path: &Path, col: &Column) -> Result<(u64, u64)> {
    let rows = col.len() as u64;
    let atom = atom_code(col.atom_type());
    assert!(col.is_full_window(), "store writer given a partial window");
    // (layout, width, aux, segments)
    let (layout, width, aux, segs): (u8, u8, u64, Vec<(u32, &[u8])>) = match col.typed() {
        TypedSlice::Void(v) => {
            unreachable!("void column (seq {}) must be inlined in the superblock", v.seq)
        }
        TypedSlice::Oid(v) => (LAYOUT_RAW, 8, 0, vec![(SEG_DATA, as_bytes(v))]),
        TypedSlice::Bool(v) => (LAYOUT_RAW, 1, 0, vec![(SEG_DATA, as_bytes(v))]),
        TypedSlice::Chr(v) => (LAYOUT_RAW, 1, 0, vec![(SEG_DATA, as_bytes(v))]),
        TypedSlice::Int(v) => (LAYOUT_RAW, 4, 0, vec![(SEG_DATA, as_bytes(v))]),
        TypedSlice::Lng(v) => (LAYOUT_RAW, 8, 0, vec![(SEG_DATA, as_bytes(v))]),
        TypedSlice::Dbl(v) => (LAYOUT_RAW, 8, 0, vec![(SEG_DATA, as_bytes(v))]),
        TypedSlice::Date(v) => (LAYOUT_RAW, 4, 0, vec![(SEG_DATA, as_bytes(v))]),
        TypedSlice::Str(v) => {
            let [offsets, lens, heap] = str_segs(v);
            (
                LAYOUT_STR,
                4,
                0,
                vec![(SEG_STR_OFFSETS, offsets), (SEG_STR_LENS, lens), (SEG_STR_HEAP, heap)],
            )
        }
        TypedSlice::DictStr(d) => {
            let (code_bytes, w) = code_slice_bytes(&d.codes());
            let [offsets, lens, heap] = str_segs(d.dict());
            (
                LAYOUT_DICT,
                w,
                d.dict_len() as u64,
                vec![
                    (SEG_DATA, code_bytes),
                    (SEG_DICT_OFFSETS, offsets),
                    (SEG_DICT_LENS, lens),
                    (SEG_DICT_HEAP, heap),
                ],
            )
        }
    };

    // Lay out segments on page boundaries after the header page.
    let mut off = PAGE as u64;
    let mut table: Vec<(u32, u64, u64, u64)> = Vec::with_capacity(segs.len());
    for (kind, data) in &segs {
        table.push((*kind, off, data.len() as u64, xxh64(data, 0)));
        off += (data.len() as u64).div_ceil(PAGE as u64) * PAGE as u64;
    }

    let mut header = vec![0u8; PAGE];
    header[0..8].copy_from_slice(&COL_MAGIC.to_le_bytes());
    header[8..12].copy_from_slice(&VERSION.to_le_bytes());
    header[12] = atom;
    header[13] = layout;
    header[14] = width;
    header[16..24].copy_from_slice(&rows.to_le_bytes());
    // 24..32 is reserved (zero): version 1 kept the FOR base there.
    header[32..40].copy_from_slice(&aux.to_le_bytes());
    header[40..44].copy_from_slice(&(segs.len() as u32).to_le_bytes());
    for (i, (kind, off, nbytes, sum)) in table.iter().enumerate() {
        let at = 56 + i * 32;
        header[at..at + 4].copy_from_slice(&kind.to_le_bytes());
        header[at + 8..at + 16].copy_from_slice(&off.to_le_bytes());
        header[at + 16..at + 24].copy_from_slice(&nbytes.to_le_bytes());
        header[at + 24..at + 32].copy_from_slice(&sum.to_le_bytes());
    }
    let hdr_xxh = xxh64(&header, 0);
    header[48..56].copy_from_slice(&hdr_xxh.to_le_bytes());

    let mut f = fs::File::create(path).map_err(|e| io_err("store/write", path, e))?;
    f.write_all(&header).map_err(|e| io_err("store/write", path, e))?;
    let mut written = PAGE as u64;
    for (i, (_, data)) in segs.iter().enumerate() {
        debug_assert_eq!(written, table[i].1);
        f.write_all(data).map_err(|e| io_err("store/write", path, e))?;
        written += data.len() as u64;
        let pad = (PAGE as u64 - written % PAGE as u64) % PAGE as u64;
        if pad > 0 {
            f.write_all(&vec![0u8; pad as usize]).map_err(|e| io_err("store/write", path, e))?;
            written += pad;
        }
    }
    f.flush().map_err(|e| io_err("store/write", path, e))?;
    Ok((hdr_xxh, written))
}

// ---------------------------------------------------------------- reading

struct Seg {
    kind: u32,
    off: u64,
    bytes: u64,
    xxh: u64,
}

struct ColHeader {
    atom: AtomType,
    layout: u8,
    width: u8,
    rows: u64,
    aux: u64,
    segs: Vec<Seg>,
}

fn parse_col_header(path: &Path, bytes: &[u8]) -> Result<ColHeader> {
    let e = |detail: &str| serr("store/open", path, detail);
    if bytes.len() < PAGE {
        return Err(e("file shorter than the header page (truncated)"));
    }
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    if u64_at(0) != COL_MAGIC {
        return Err(e("bad magic (not a flatalg column file)"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(serr(
            "store/open",
            path,
            format!("version mismatch: file v{version}, kernel v{VERSION}"),
        ));
    }
    let mut header = bytes[..PAGE].to_vec();
    header[48..56].fill(0);
    if xxh64(&header, 0) != u64_at(48) {
        return Err(e("header checksum mismatch (corrupted header)"));
    }
    let atom = atom_from_code(bytes[12]).ok_or_else(|| e("invalid atom code"))?;
    let nsegs = u32::from_le_bytes(bytes[40..44].try_into().unwrap()) as usize;
    if nsegs > (PAGE - 56) / 32 {
        return Err(e("segment table overruns the header page"));
    }
    let mut segs = Vec::with_capacity(nsegs);
    for i in 0..nsegs {
        let at = 56 + i * 32;
        let seg = Seg {
            kind: u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()),
            off: u64_at(at + 8),
            bytes: u64_at(at + 16),
            xxh: u64_at(at + 24),
        };
        if seg.off % PAGE as u64 != 0 {
            return Err(e("segment offset not page-aligned"));
        }
        if seg.off.checked_add(seg.bytes).map(|end| end > bytes.len() as u64).unwrap_or(true) {
            return Err(e("segment extends past end of file (truncated)"));
        }
        segs.push(seg);
    }
    Ok(ColHeader {
        atom,
        layout: bytes[13],
        width: bytes[14],
        rows: u64_at(16),
        aux: u64_at(32),
        segs,
    })
}

/// One opened (mapped, header-validated) column file.
struct OpenCol {
    map: Arc<Mapping>,
    hdr: ColHeader,
    path: PathBuf,
}

impl OpenCol {
    fn seg(&self, kind: u32) -> Result<&Seg> {
        self.hdr
            .segs
            .iter()
            .find(|s| s.kind == kind)
            .ok_or_else(|| serr("store/open", &self.path, format!("missing segment kind {kind}")))
    }

    fn seg_bytes(&self, s: &Seg) -> &[u8] {
        &self.map.bytes()[s.off as usize..(s.off + s.bytes) as usize]
    }

    /// Map a segment as `elems` elements of `T`, checking the byte size
    /// against the descriptor.
    fn buf<T>(&self, kind: u32, elems: u64) -> Result<Buf<T>> {
        let s = self.seg(kind)?;
        let want = elems.checked_mul(std::mem::size_of::<T>() as u64);
        if want != Some(s.bytes) {
            return Err(serr(
                "store/open",
                &self.path,
                format!("segment kind {kind} holds {} bytes, descriptor implies {want:?}", s.bytes),
            ));
        }
        // SAFETY: bounds were checked at header parse and offsets are
        // page-aligned; element validity holds for any bit pattern of the
        // fixed-width types, and is established by the explicit validation
        // below for `bool` and string segments.
        Ok(unsafe { Buf::from_mapping(Arc::clone(&self.map), s.off as usize, elems as usize) })
    }

    fn strvec(&self, kinds: (u32, u32, u32), n: u64) -> Result<StrVec> {
        let offsets: Buf<u32> = self.buf(kinds.0, n)?;
        let lens: Buf<u32> = self.buf(kinds.1, n)?;
        let heap_seg = self.seg(kinds.2)?;
        let heap: Buf<u8> = self.buf(kinds.2, heap_seg.bytes)?;
        // The kernel reads string windows with `from_utf8_unchecked`
        // (see `crate::typed`), so every window must be proven in-bounds
        // valid UTF-8 here, once, at open.
        let hb: &[u8] = &heap;
        for i in 0..n as usize {
            let (off, len) = (offsets[i] as usize, lens[i] as usize);
            let window = off
                .checked_add(len)
                .and_then(|end| hb.get(off..end))
                .ok_or_else(|| serr("store/open", &self.path, "string window out of bounds"))?;
            if std::str::from_utf8(window).is_err() {
                return Err(serr("store/open", &self.path, "string window is not valid UTF-8"));
            }
        }
        Ok(StrVec::from_heaps(Arc::new(offsets), Arc::new(lens), Arc::new(heap)))
    }

    fn verify_data(&self, op: &'static str) -> Result<()> {
        for s in &self.hdr.segs {
            if xxh64(self.seg_bytes(s), 0) != s.xxh {
                return Err(serr(
                    op,
                    &self.path,
                    format!("segment kind {} checksum mismatch (corrupted data)", s.kind),
                ));
            }
        }
        Ok(())
    }

    /// Reconstruct the column (fresh [`crate::column::ColumnId`]).
    fn column(&self) -> Result<Column> {
        let e = |detail: String| serr("store/open", &self.path, detail);
        let h = &self.hdr;
        let n = h.rows;
        let vals = match (h.layout, h.atom) {
            (LAYOUT_RAW, AtomType::Oid) => ColumnVals::Oid(Arc::new(self.buf(SEG_DATA, n)?)),
            (LAYOUT_RAW, AtomType::Bool) => {
                let raw: Buf<u8> = self.buf(SEG_DATA, n)?;
                if raw.iter().any(|&b| b > 1) {
                    return Err(e("bool segment holds a byte that is neither 0 nor 1".into()));
                }
                // Re-map as bool, valid now that every byte is proven 0/1.
                ColumnVals::Bool(Arc::new(self.buf(SEG_DATA, n)?))
            }
            (LAYOUT_RAW, AtomType::Chr) => ColumnVals::Chr(Arc::new(self.buf(SEG_DATA, n)?)),
            (LAYOUT_RAW, AtomType::Int) => ColumnVals::Int(Arc::new(self.buf(SEG_DATA, n)?)),
            (LAYOUT_RAW, AtomType::Lng) => ColumnVals::Lng(Arc::new(self.buf(SEG_DATA, n)?)),
            (LAYOUT_RAW, AtomType::Dbl) => ColumnVals::Dbl(Arc::new(self.buf(SEG_DATA, n)?)),
            (LAYOUT_RAW, AtomType::Date) => ColumnVals::Date(Arc::new(self.buf(SEG_DATA, n)?)),
            (LAYOUT_STR, AtomType::Str) => {
                ColumnVals::Str(self.strvec((SEG_STR_OFFSETS, SEG_STR_LENS, SEG_STR_HEAP), n)?)
            }
            (LAYOUT_DICT, AtomType::Str) => {
                let dict = self.strvec((SEG_DICT_OFFSETS, SEG_DICT_LENS, SEG_DICT_HEAP), h.aux)?;
                let dlen = dict.len();
                let codes = match h.width {
                    1 => {
                        let c: Buf<u8> = self.buf(SEG_DATA, n)?;
                        validate_codes(c.iter().map(|&x| x as usize), dlen)
                            .map_err(|d| e(d.into()))?;
                        DictCodes::W8(c)
                    }
                    2 => {
                        let c: Buf<u16> = self.buf(SEG_DATA, n)?;
                        validate_codes(c.iter().map(|&x| x as usize), dlen)
                            .map_err(|d| e(d.into()))?;
                        DictCodes::W16(c)
                    }
                    4 => {
                        let c: Buf<u32> = self.buf(SEG_DATA, n)?;
                        validate_codes(c.iter().map(|&x| x as usize), dlen)
                            .map_err(|d| e(d.into()))?;
                        DictCodes::W32(c)
                    }
                    w => return Err(e(format!("invalid dict code width {w}"))),
                };
                ColumnVals::DictStr(Arc::new(DictStrData::from_parts(codes, dict)))
            }
            (layout, atom) => {
                return Err(e(format!(
                    "descriptor mismatch: layout {layout} is invalid for atom {atom}"
                )))
            }
        };
        Ok(Column::new(vals, n as usize))
    }
}

fn validate_codes(
    codes: impl Iterator<Item = usize>,
    dict_len: usize,
) -> std::result::Result<(), &'static str> {
    for c in codes {
        if c >= dict_len {
            return Err("dict code addresses past the dictionary");
        }
    }
    Ok(())
}

struct SbColumn {
    /// `Some((seq, len))` = inline void column, no file.
    void: Option<(u64, u64)>,
    rows: u64,
    header_xxh: u64,
}

struct SbBat {
    name: String,
    head: u32,
    tail: u32,
    props: Props,
    dv: Option<(u32, u32)>,
}

struct Superblock {
    sf: f64,
    cols: Vec<SbColumn>,
    bats: Vec<SbBat>,
}

fn parse_superblock(path: &Path, raw: &[u8]) -> Result<Superblock> {
    let e = |detail: &str| serr("store/open", path, detail);
    if raw.len() < 48 {
        return Err(e("superblock truncated"));
    }
    let u64_at = |at: usize| u64::from_le_bytes(raw[at..at + 8].try_into().unwrap());
    if u64_at(0) != SB_MAGIC {
        return Err(e("bad magic (not a flatalg store superblock)"));
    }
    let version = u32::from_le_bytes(raw[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(serr(
            "store/open",
            path,
            format!("version mismatch: superblock v{version}, kernel v{VERSION}"),
        ));
    }
    let (body, tail) = raw.split_at(raw.len() - 8);
    if xxh64(body, 0) != u64::from_le_bytes(tail.try_into().unwrap()) {
        return Err(e("superblock checksum mismatch (corrupted superblock)"));
    }
    let sf = f64::from_bits(u64_at(16));
    let ncols = u64_at(24) as usize;
    let nbats = u64_at(32) as usize;
    let mut at = 40usize;
    let need = |n: usize, at: usize| -> Result<()> {
        if at + n > body.len() {
            Err(e("superblock table truncated"))
        } else {
            Ok(())
        }
    };
    let mut cols = Vec::with_capacity(ncols.min(1 << 20));
    for _ in 0..ncols {
        need(17, at)?;
        let kind = body[at];
        let a = u64::from_le_bytes(body[at + 1..at + 9].try_into().unwrap());
        let b = u64::from_le_bytes(body[at + 9..at + 17].try_into().unwrap());
        at += 17;
        cols.push(match kind {
            1 => SbColumn { void: Some((a, b)), rows: b, header_xxh: 0 },
            0 => SbColumn { void: None, rows: a, header_xxh: b },
            _ => return Err(e("invalid column kind in superblock")),
        });
    }
    let mut bats = Vec::with_capacity(nbats.min(1 << 20));
    for _ in 0..nbats {
        need(2, at)?;
        let nlen = u16::from_le_bytes(body[at..at + 2].try_into().unwrap()) as usize;
        at += 2;
        need(nlen + 11, at)?;
        let name = std::str::from_utf8(&body[at..at + nlen])
            .map_err(|_| e("BAT name is not valid UTF-8"))?
            .to_string();
        at += nlen;
        let head = u32::from_le_bytes(body[at..at + 4].try_into().unwrap());
        let tail = u32::from_le_bytes(body[at + 4..at + 8].try_into().unwrap());
        let props = props_from_bits(u16::from_le_bytes(body[at + 8..at + 10].try_into().unwrap()));
        let has_dv = body[at + 10];
        at += 11;
        let dv = match has_dv {
            1 => {
                need(8, at)?;
                let ext = u32::from_le_bytes(body[at..at + 4].try_into().unwrap());
                let vec = u32::from_le_bytes(body[at + 4..at + 8].try_into().unwrap());
                at += 8;
                Some((ext, vec))
            }
            0 => None,
            _ => return Err(e("invalid datavector flag in superblock")),
        };
        bats.push(SbBat { name, head, tail, props, dv });
    }
    Ok(Superblock { sf, cols, bats })
}

/// Open a store directory written by [`write_dir`]: map every column file,
/// validate (see the module docs for the layering), and rebuild the
/// catalog. The returned [`Db`] is freshly minted — its id/epoch can never
/// collide with a same-named in-memory world, so plan caches keyed on
/// `(db_id, epoch)` are safe by construction.
///
/// `gov` probes fire at [`site::STORE_OPEN`] once per file, so
/// cancellation, deadlines, and the fault-injection sweep govern the open
/// path like any kernel loop.
pub fn open_dir(dir: &Path, gov: Option<&Governor>, opts: &OpenOptions) -> Result<OpenedStore> {
    let sb_path = dir.join(SB_NAME);
    if let Some(g) = gov {
        g.probe(site::STORE_OPEN)?;
    }
    let raw = fs::read(&sb_path).map_err(|e| io_err("store/open", &sb_path, e))?;
    let sb = parse_superblock(&sb_path, &raw)?;

    let mut mapped_bytes = 0u64;
    let mut files = 0usize;
    let mut mmap = true;
    let mut columns: Vec<Column> = Vec::with_capacity(sb.cols.len());
    for (idx, c) in sb.cols.iter().enumerate() {
        if let Some((seq, len)) = c.void {
            columns.push(Column::void(seq, len as usize));
            continue;
        }
        if let Some(g) = gov {
            g.probe(site::STORE_OPEN)?;
        }
        let path = dir.join(format!("col-{idx}.bat"));
        let file = fs::File::open(&path).map_err(|e| io_err("store/open", &path, e))?;
        let map = Arc::new(Mapping::map(&file).map_err(|e| io_err("store/open", &path, e))?);
        let hdr = parse_col_header(&path, map.bytes())?;
        if hdr.rows != c.rows {
            return Err(serr("store/open", &path, "row count disagrees with the superblock"));
        }
        let stamped = u64::from_le_bytes(map.bytes()[48..56].try_into().unwrap());
        if stamped != c.header_xxh {
            return Err(serr(
                "store/open",
                &path,
                "header checksum disagrees with the superblock (file swapped?)",
            ));
        }
        mapped_bytes += map.bytes().len() as u64;
        files += 1;
        mmap &= map.is_mmap();
        let open = OpenCol { map, hdr, path };
        if opts.verify_data {
            open.verify_data("store/open")?;
        }
        columns.push(open.column()?);
    }

    let mut db = Db::new();
    let mut extents: HashMap<u32, Arc<Extent>> = HashMap::new();
    let col = |i: u32| -> Result<&Column> {
        columns
            .get(i as usize)
            .ok_or_else(|| serr("store/open", &sb_path, "BAT references a missing column"))
    };
    for b in &sb.bats {
        let head = col(b.head)?.clone();
        let tail = col(b.tail)?.clone();
        if head.len() != tail.len() {
            return Err(serr(
                "store/open",
                &sb_path,
                format!("BAT {}: head and tail lengths disagree", b.name),
            ));
        }
        let mut bat = Bat::with_props(head, tail, b.props);
        if let Some((ext_idx, vec_idx)) = b.dv {
            let vector = col(vec_idx)?.clone();
            let extent = match extents.get(&ext_idx) {
                Some(e) => Arc::clone(e),
                None => {
                    // A stored extent is proven oid-typed, sorted and
                    // duplicate-free here: LOOKUP and the positional join
                    // arms index by `oid - base` on the strength of it.
                    let ext = Extent::try_new(col(ext_idx)?.clone()).map_err(|e| {
                        serr("store/open", &sb_path, format!("BAT {}: {e}", b.name))
                    })?;
                    extents.insert(ext_idx, Arc::clone(&ext));
                    ext
                }
            };
            if extent.len() != vector.len() {
                return Err(serr(
                    "store/open",
                    &sb_path,
                    format!("BAT {}: datavector vector does not align with its extent", b.name),
                ));
            }
            bat.set_datavector(Arc::new(Datavector::new(extent, vector)));
        }
        // Run indexes are not stored: rebuilt from the mapped tail, as the
        // loader builds them.
        bat.index_runs();
        db.register(&b.name, bat);
    }
    Ok(OpenedStore { db, sf: sb.sf, mapped_bytes, files, mmap })
}

/// Full-checksum verification of a store directory: superblock plus every
/// segment of every column file. Returns `(files, bytes)` checked.
pub fn verify_dir(dir: &Path) -> Result<(usize, u64)> {
    let sb_path = dir.join(SB_NAME);
    let raw = fs::read(&sb_path).map_err(|e| io_err("store/verify", &sb_path, e))?;
    let sb = parse_superblock(&sb_path, &raw)?;
    let mut files = 1usize;
    let mut bytes = raw.len() as u64;
    for (idx, c) in sb.cols.iter().enumerate() {
        if c.void.is_some() {
            continue;
        }
        let path = dir.join(format!("col-{idx}.bat"));
        let file = fs::File::open(&path).map_err(|e| io_err("store/verify", &path, e))?;
        let map = Arc::new(Mapping::map(&file).map_err(|e| io_err("store/verify", &path, e))?);
        let hdr = parse_col_header(&path, map.bytes())?;
        let open = OpenCol { map, hdr, path };
        open.verify_data("store/verify")?;
        files += 1;
        bytes += open.map.bytes().len() as u64;
    }
    Ok((files, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomValue;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("flatalg-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn byte_image_is_the_native_encoding() {
        fn check<T: Plain, const N: usize>(vals: &[T], ne: impl Fn(T) -> [u8; N]) {
            let want: Vec<u8> = vals.iter().flat_map(|&v| ne(v)).collect();
            assert_eq!(as_bytes(vals), want.as_slice());
        }
        check(&[false, true], |b| [b as u8]);
        check(&[0u8, 7, 255], u8::to_ne_bytes);
        check(&[0u16, 0x1234, u16::MAX], u16::to_ne_bytes);
        check(&[0u32, 0x0102_0304, u32::MAX], u32::to_ne_bytes);
        check(&[0u64, 0x0102_0304_0506_0708, u64::MAX], u64::to_ne_bytes);
        check(&[0i32, -1, i32::MIN], i32::to_ne_bytes);
        check(&[0i64, -2, i64::MAX], i64::to_ne_bytes);
        check(&[0.0f64, -1.5, f64::MAX], f64::to_ne_bytes);
        check::<u64, 8>(&[], u64::to_ne_bytes);
    }

    /// Reference vectors from the xxHash specification (XXH64).
    #[test]
    fn xxh64_reference_vectors() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        assert_eq!(xxh64(b"Nobody inspects the spammish repetition", 0), 0xFBCE_A83C_8A37_8BF1);
    }

    #[test]
    fn roundtrip_all_layouts() {
        let dir = tmpdir("roundtrip");
        let mut db = Db::new();
        db.register(
            "ints",
            Bat::with_inferred_props(Column::void(100, 5), Column::from_ints(vec![5, 1, 4, 1, 3])),
        );
        db.register(
            "strs",
            Bat::with_inferred_props(
                Column::from_oids(vec![7, 8, 9]),
                Column::from_strs(["alpha", "", "héllo"]),
            ),
        );
        db.register(
            "bools",
            Bat::with_inferred_props(
                Column::void(0, 4),
                Column::from_bools(vec![true, false, false, true]),
            ),
        );
        let dict: Vec<String> = (0..300).map(|i| format!("c{}", i % 7)).collect();
        let dict_col = Column::from_strs(&dict).encode();
        assert_eq!(dict_col.encoding(), Enc::Dict);
        db.register("dict", Bat::with_inferred_props(Column::void(0, 300), dict_col));
        let dates = Column::from_date_days((0..300).map(|i| 9000 + (i % 50)).collect()).encode();
        assert_eq!(dates.encoding(), Enc::None, "int/date columns stay raw");
        db.register("dates", Bat::with_inferred_props(Column::void(0, 300), dates));
        db.register(
            "dbls",
            Bat::with_inferred_props(
                Column::void(0, 3),
                Column::from_dbls(vec![1.5, -0.0, f64::NAN]),
            ),
        );

        write_dir(&dir, &db, 0.5).unwrap();
        let opened = open_dir(&dir, None, &OpenOptions { verify_data: true }).unwrap();
        assert_eq!(opened.sf, 0.5);
        assert_eq!(opened.db.len(), db.len());
        for (name, want) in db.iter() {
            let got = opened.db.get(name).unwrap();
            assert_eq!(got.len(), want.len(), "{name}: row count");
            assert_eq!(got.props(), want.props(), "{name}: props");
            assert_eq!(got.tail().encoding(), want.tail().encoding(), "{name}: enc");
            for i in 0..want.len() {
                let (gh, gt) = got.bun(i);
                let (wh, wt) = want.bun(i);
                match (&gt, &wt) {
                    (AtomValue::Dbl(a), AtomValue::Dbl(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits(), "{name}[{i}]")
                    }
                    _ => assert_eq!(gt, wt, "{name}[{i}]"),
                }
                assert_eq!(gh, wh, "{name}[{i}] head");
            }
        }
        // A store-backed catalog is a fresh Db identity (plan-cache safety).
        assert_ne!(opened.db.id(), db.id());
        verify_dir(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shared_columns_stay_synced() {
        let dir = tmpdir("sync");
        let shared = Column::from_oids(vec![3, 1, 2]);
        let mut db = Db::new();
        db.register(
            "a",
            Bat::with_inferred_props(shared.clone(), Column::from_ints(vec![30, 10, 20])),
        );
        db.register("b", Bat::with_inferred_props(shared, Column::from_strs(["x", "y", "z"])));
        write_dir(&dir, &db, 0.0).unwrap();
        let opened = open_dir(&dir, None, &OpenOptions::default()).unwrap();
        let (a, b) = (opened.db.get("a").unwrap(), opened.db.get("b").unwrap());
        assert!(a.synced(b), "head sharing must survive the round trip");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_window_is_compacted() {
        let dir = tmpdir("compact");
        let base = Column::from_ints(vec![9, 8, 7, 6, 5]);
        let win = base.slice(1, 3);
        let mut db = Db::new();
        db.register("w", Bat::with_inferred_props(Column::void(0, 3), win));
        write_dir(&dir, &db, 0.0).unwrap();
        let opened = open_dir(&dir, None, &OpenOptions { verify_data: true }).unwrap();
        let got = opened.db.get("w").unwrap();
        let tails: Vec<AtomValue> = (0..3).map(|i| got.bun(i).1).collect();
        assert_eq!(tails, vec![AtomValue::Int(8), AtomValue::Int(7), AtomValue::Int(6)]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
