//! The persistent store end to end: a saved world re-opens into a catalog
//! whose fifteen query results are *bit-identical* (eps 0.0) to the
//! generated in-memory world — under whatever thread-count / encoding leg
//! the process runs — and every corruption mode (flipped data byte,
//! truncated tail file, version-mismatched header, mangled layout
//! descriptor, unsorted datavector extent) surfaces a typed error with
//! nothing partially registered.

use monet::ctx::ExecCtx;
use monet::error::MonetError;
use monet::store::{xxh64, OpenOptions};
use tpcd::TpcdError;
use tpcd_queries::all_queries;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("flatalg-storetest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A saved copy of the shared bench world (SF 0.01), one per process.
fn saved_world() -> (&'static bench::World, &'static std::path::Path) {
    static SAVED: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();
    let w = bench::world();
    let dir = SAVED.get_or_init(|| {
        let d = tmpdir("world");
        w.save_store(&d).expect("save");
        d
    });
    (w, dir)
}

#[test]
fn opened_store_queries_are_bit_identical_to_the_generated_world() {
    let (w, dir) = saved_world();
    let sw = bench::StoreWorld::open_with(&dir, &OpenOptions { verify_data: true })
        .expect("open with full verification");
    assert!(sw.files > 0 && sw.mapped_bytes > 0);
    // Satellite of the plan-cache satellite: a store-backed catalog must
    // never share a Db identity with the in-memory world it was saved from.
    assert_ne!(sw.cat.db().id(), w.cat.db().id());
    for q in all_queries() {
        let mem = (q.run_moa)(&w.cat, &ExecCtx::new(), &w.params).expect("in-memory");
        let opened = (q.run_moa)(&sw.cat, &ExecCtx::new(), &sw.params).expect("opened");
        assert!(
            opened.approx_eq(&mem, 0.0),
            "Q{}: opened-store result differs from the in-memory world\nopened:\n{}in-mem:\n{}",
            q.id,
            opened.preview(5),
            mem.preview(5)
        );
    }
}

#[test]
fn opened_store_carries_the_generated_run_indexes_and_takes_the_same_arms() {
    // Run indexes are not stored: open rebuilds them from the mapped tails,
    // so every BAT must come back with the index the loader built — same
    // domain, same runs — and every statement must take the same arm.
    use tpcd_queries::{q01_05, q06_10, q11_15};
    let (w, dir) = saved_world();
    let sw = bench::StoreWorld::open(dir).expect("open");
    let mut indexed = 0;
    for (name, bat) in w.cat.db().iter() {
        let opened = sw.cat.db().get(name).expect("every BAT opens");
        let (built, rebuilt) = (bat.accel().runs.as_deref(), opened.accel().runs.as_deref());
        assert_eq!(built.is_some(), rebuilt.is_some(), "{name}: run index presence");
        let (Some(built), Some(rebuilt)) = (built, rebuilt) else { continue };
        assert!(rebuilt.describes(opened.tail()), "{name}: the index describes the mapped tail");
        assert_eq!(built.domain(), rebuilt.domain(), "{name}");
        assert!((0..built.domain().span).all(|k| built.run(k) == rebuilt.run(k)), "{name}");
        indexed += 1;
    }
    for name in ["Item_order", "Item_part", "Item_supplier", "Order_cust", "Order_items"] {
        assert!(w.cat.db().get(name).unwrap().accel().runs.is_some(), "{name} is indexed");
    }
    assert!(indexed >= 5, "{indexed} indexed BATs");
    let p = &w.params;
    let programs = [
        ("Q3", q01_05::q3_moa(p)),
        ("Q4", q01_05::q4_moa(p)),
        ("Q5", q01_05::q5_moa(p)),
        ("Q7", q06_10::q7_moa(p)),
        ("Q8", q06_10::q8_nation_moa(p)),
        ("Q9", q06_10::q9_moa(p)),
        ("Q10", q06_10::q10_moa(p)),
        ("Q13", q11_15::q13_moa(p)),
    ];
    let algos = |cat: &moa::catalog::Catalog, q: &moa::algebra::SetExpr| {
        let t = moa::translate::translate(cat, q).expect("translate");
        let env = monet::mil::execute(&ExecCtx::new(), cat.db(), &t.prog, &t.keep).expect("run");
        env.trace().iter().map(|s| s.algo).collect::<Vec<_>>()
    };
    for (label, q) in &programs {
        let mem = algos(&w.cat, q);
        assert_eq!(algos(&sw.cat, q), mem, "{label}: opened-store arms differ");
        assert!(mem.contains(&"runs"), "{label}: no run-addressed statement in {mem:?}");
    }
}

/// Copy the saved store into a fresh directory the test may corrupt.
fn corruptible_copy(tag: &str) -> std::path::PathBuf {
    let (_, src) = saved_world();
    let dst = tmpdir(tag);
    std::fs::create_dir_all(&dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let p = entry.unwrap().path();
        std::fs::copy(&p, dst.join(p.file_name().unwrap())).unwrap();
    }
    dst
}

fn column_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut cols: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("col-"))
        .collect();
    cols.sort();
    cols
}

fn a_column_file(dir: &std::path::Path) -> std::path::PathBuf {
    column_files(dir).into_iter().next().expect("store has column files")
}

/// The first column file of an `int` or `date` column (header atom byte 4
/// or 8).
fn an_int_or_date_column_file(dir: &std::path::Path) -> std::path::PathBuf {
    column_files(dir)
        .into_iter()
        .find(|p| matches!(std::fs::read(p).unwrap()[12], 4 | 8))
        .expect("store has an int or date column")
}

fn open_err(dir: &std::path::Path, verify_data: bool) -> MonetError {
    match tpcd::open_catalog(dir, None, &OpenOptions { verify_data }) {
        Err(TpcdError::Store(e)) => e,
        Err(other) => panic!("expected a store error, got {other}"),
        Ok(_) => panic!("corrupted store must not open"),
    }
}

#[test]
fn flipped_data_byte_fails_checksum_verification() {
    let dir = corruptible_copy("bitflip");
    let col = a_column_file(&dir);
    let mut bytes = std::fs::read(&col).unwrap();
    assert!(bytes.len() > 4096, "need a data page to corrupt");
    bytes[4096] ^= 0xFF; // first byte of the first data segment
    std::fs::write(&col, &bytes).unwrap();
    let e = open_err(&dir, true);
    match &e {
        MonetError::Store { op, detail, .. } => {
            assert_eq!(*op, "store/open");
            assert!(detail.contains("checksum"), "detail: {detail}");
        }
        other => panic!("expected Store, got {other}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn flipped_header_byte_fails_the_default_open() {
    let dir = corruptible_copy("hdrflip");
    let col = a_column_file(&dir);
    let mut bytes = std::fs::read(&col).unwrap();
    bytes[16] ^= 0xFF; // row count — header checksum must catch it
    std::fs::write(&col, &bytes).unwrap();
    let e = open_err(&dir, false);
    assert!(matches!(e, MonetError::Store { .. }), "got {e}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_tail_file_is_rejected() {
    let dir = corruptible_copy("trunc");
    let col = a_column_file(&dir);
    let bytes = std::fs::read(&col).unwrap();
    assert!(bytes.len() > 4096);
    std::fs::write(&col, &bytes[..4096]).unwrap(); // keep only the header
    let e = open_err(&dir, false);
    match &e {
        MonetError::Store { detail, .. } => {
            assert!(detail.contains("truncated") || detail.contains("past end"), "{detail}");
        }
        other => panic!("expected Store, got {other}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn version_mismatch_is_rejected_before_anything_else() {
    let dir = corruptible_copy("version");
    let col = a_column_file(&dir);
    let mut bytes = std::fs::read(&col).unwrap();
    bytes[8..12].copy_from_slice(&(monet::store::VERSION + 1).to_le_bytes());
    std::fs::write(&col, &bytes).unwrap();
    let e = open_err(&dir, false);
    match &e {
        MonetError::Store { detail, .. } => {
            assert!(detail.contains("version mismatch"), "{detail}");
        }
        other => panic!("expected Store, got {other}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mangled_layout_descriptor_is_rejected_even_with_a_valid_checksum() {
    // An attacker-grade corruption: change the layout byte *and* restamp
    // the header checksum, so only the descriptor-consistency validation
    // can catch it. 99 was never a layout; 4 is the RLE tag, which no
    // writer ever produced; 3 is the frame-of-reference tag that version 1
    // wrote for int/date columns and version 2 retired — set on an int or
    // date column, it is the descriptor a version-1 writer produced.
    for layout in [99u8, 4, 3] {
        let dir = corruptible_copy(&format!("layout-{layout}"));
        let col = if layout == 3 { an_int_or_date_column_file(&dir) } else { a_column_file(&dir) };
        let mut bytes = std::fs::read(&col).unwrap();
        bytes[13] = layout;
        bytes[48..56].fill(0);
        let sum = xxh64(&bytes[..4096], 0);
        bytes[48..56].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&col, &bytes).unwrap();
        let e = open_err(&dir, false);
        assert!(matches!(e, MonetError::Store { .. }), "layout {layout}: got {e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn missing_column_file_means_no_catalog_at_all() {
    let dir = corruptible_copy("missing");
    std::fs::remove_file(a_column_file(&dir)).unwrap();
    // All-or-nothing: the open fails as a unit; there is no partially
    // registered catalog to observe, only the typed error.
    let e = open_err(&dir, false);
    assert!(matches!(e, MonetError::Store { .. }), "got {e}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn permuted_extent_is_rejected_even_with_every_checksum_restamped() {
    // The datavector arms address an extent by `oid - base` on the strength
    // of its being sorted and duplicate-free, so a stored extent that is
    // not must never open — and here *every* checksum vouches for it
    // (segment, header, superblock all restamped), so only the extent proof
    // at open can catch it. A typed error, not a panic, and no catalog.
    use monet::accel::datavector::{Datavector, Extent};
    use monet::prelude::{Bat, Column, Db};
    use std::sync::Arc;

    let dir = tmpdir("extent");
    let mut db = Db::new();
    let dv = Datavector::new(
        Extent::new(Column::from_oids(vec![10, 11, 12, 13])),
        Column::from_ints(vec![1, 2, 3, 4]),
    );
    let mut attr =
        Bat::new(Column::from_oids(vec![12, 10, 13, 11]), Column::from_ints(vec![3, 1, 4, 2]));
    attr.set_datavector(Arc::new(dv));
    db.register("attr", attr);
    monet::store::write_dir(&dir, &db, 0.0).expect("write");
    monet::store::open_dir(&dir, None, &OpenOptions { verify_data: true })
        .expect("intact store opens");

    // The extent's column file: the one whose data segment is 10..=13.
    let le = |oids: [u64; 4]| oids.iter().flat_map(|o| o.to_le_bytes()).collect::<Vec<u8>>();
    let col = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            let b = std::fs::read(p).unwrap();
            b.len() >= 4096 + 32 && b[4096..4096 + 32] == le([10, 11, 12, 13])[..]
        })
        .expect("extent column file");
    let mut bytes = std::fs::read(&col).unwrap();
    let old_header_sum = bytes[48..56].to_vec();
    bytes[4096..4096 + 32].copy_from_slice(&le([10, 12, 11, 13]));
    // Restamp the segment checksum (first entry of the table at 56, sum at
    // +24), then the header checksum over the page with its own field zeroed.
    let seg_sum = xxh64(&bytes[4096..4096 + 32], 0);
    bytes[56 + 24..56 + 32].copy_from_slice(&seg_sum.to_le_bytes());
    bytes[48..56].fill(0);
    let header_sum = xxh64(&bytes[..4096], 0).to_le_bytes();
    bytes[48..56].copy_from_slice(&header_sum);
    std::fs::write(&col, &bytes).unwrap();
    // The superblock records each column's header checksum and ends in its
    // own: swap in the new one and restamp.
    let sb_path = dir.join("store.sb");
    let mut sb = std::fs::read(&sb_path).unwrap();
    let at = sb.windows(8).position(|w| w == old_header_sum).expect("recorded header checksum");
    sb[at..at + 8].copy_from_slice(&header_sum);
    let body = sb.len() - 8;
    let sb_sum = xxh64(&sb[..body], 0);
    sb[body..].copy_from_slice(&sb_sum.to_le_bytes());
    std::fs::write(&sb_path, &sb).unwrap();

    match monet::store::open_dir(&dir, None, &OpenOptions { verify_data: true }) {
        Err(MonetError::Store { op, detail, .. }) => {
            assert_eq!(op, "store/open");
            assert!(detail.contains("extent must be sorted"), "detail: {detail}");
        }
        Err(other) => panic!("expected Store, got {other}"),
        Ok(_) => panic!("a store with an unsorted extent must not open"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
