//! Shared helpers for the n-ary reference plans.

use monet::atom::{AtomValue, Oid};
use monet::column::{WordHashMap, WordHashSet};
use monet::pager::Pager;
use relstore::RelDb;

/// `oid -> row` map of a dimension table.
pub fn oid_map(db: &RelDb, table: &str) -> WordHashMap<Oid, u32> {
    let t = db.table(table);
    let c = t.col_index("oid").expect("oid column");
    (0..t.rows() as u32).map(|r| (t.oid_v(c, r as usize), r)).collect()
}

/// Oid of the nation with the given name.
pub fn nation_oid(db: &RelDb, name: &str) -> Oid {
    let t = db.table("nation");
    let (cn, co) = (t.col_index("name").unwrap(), t.col_index("oid").unwrap());
    (0..t.rows())
        .find(|&r| t.str_v(cn, r) == name)
        .map(|r| t.oid_v(co, r))
        .unwrap_or_else(|| panic!("no nation {name}"))
}

/// Oid of the region with the given name.
pub fn region_oid(db: &RelDb, name: &str) -> Oid {
    let t = db.table("region");
    let (cn, co) = (t.col_index("name").unwrap(), t.col_index("oid").unwrap());
    (0..t.rows())
        .find(|&r| t.str_v(cn, r) == name)
        .map(|r| t.oid_v(co, r))
        .unwrap_or_else(|| panic!("no region {name}"))
}

/// Set of nation oids belonging to a region.
pub fn nations_of_region(db: &RelDb, region: &str) -> WordHashSet<Oid> {
    let rid = region_oid(db, region);
    let t = db.table("nation");
    let (co, cr) = (t.col_index("oid").unwrap(), t.col_index("region").unwrap());
    (0..t.rows()).filter(|&r| t.oid_v(cr, r) == rid).map(|r| t.oid_v(co, r)).collect()
}

/// `nation oid -> name` map.
pub fn nation_names(db: &RelDb) -> WordHashMap<Oid, String> {
    let t = db.table("nation");
    let (co, cn) = (t.col_index("oid").unwrap(), t.col_index("name").unwrap());
    (0..t.rows()).map(|r| (t.oid_v(co, r), t.str_v(cn, r).to_string())).collect()
}

/// Touch a dimension row if fault accounting is on.
pub fn touch(db: &RelDb, table: &str, row: u32, pager: Option<&Pager>) {
    if let Some(p) = pager {
        db.table(table).touch_row(p, row as usize);
    }
}

/// Wrap an f64 sum as the kernel's `sum` over doubles would type it.
pub fn dbl(v: f64) -> AtomValue {
    AtomValue::Dbl(v)
}

pub fn lng(v: i64) -> AtomValue {
    AtomValue::Lng(v)
}
