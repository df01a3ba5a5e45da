//! Row-at-a-time execution primitives for the n-ary baseline.
//!
//! Deliberately a conventional executor: index or scan selection producing
//! row-id lists, unclustered row fetches (paged per row), hash joins and
//! hash aggregation over accessor closures. The TPC-D reference plans in
//! `tpcd-queries` are built from these.

use monet::atom::AtomValue;
use monet::column::{Column, WordHashMap};
use monet::pager::Pager;
use monet::typed::TypedVals;

use crate::db::RelDb;
use crate::table::Table;

/// Compare row `i` of `col` with a constant through the typed view — one
/// type dispatch per row, as a conventional executor's tuple accessor.
pub(crate) fn cmp_row(col: &Column, i: usize, v: &AtomValue) -> std::cmp::Ordering {
    monet::for_each_typed!(col, |t| t.cmp_atom(t.value(i), v))
}

/// Selection predicate over one column.
pub enum ColPred<'a> {
    Eq(&'a AtomValue),
    Range { lo: Option<&'a AtomValue>, hi: Option<&'a AtomValue>, inc_lo: bool, inc_hi: bool },
}

/// Select row ids of `table` matching `pred` on `col`, using an inverted
/// list when available. Fault accounting covers the index probe/range (or
/// a full scan) — *not* the row fetches; apply [`fetch`] for those.
pub fn select_rows(
    db: &RelDb,
    table: &str,
    col: &str,
    pred: &ColPred<'_>,
    pager: Option<&Pager>,
) -> Vec<u32> {
    let t = db.table(table);
    let ci = t.col_index(col).unwrap_or_else(|| panic!("no column {col}"));
    if let Some(idx) = db.index(table, col) {
        return match pred {
            ColPred::Eq(v) => idx.lookup_eq(t, ci, v, pager),
            ColPred::Range { lo, hi, inc_lo, inc_hi } => {
                idx.lookup_range(t, ci, *lo, *hi, *inc_lo, *inc_hi, pager)
            }
        };
    }
    if let Some(p) = pager {
        t.touch_scan(p);
    }
    let c = t.col(ci);
    (0..t.rows() as u32)
        .filter(|&r| {
            let i = r as usize;
            match pred {
                ColPred::Eq(v) => cmp_row(c, i, v).is_eq(),
                ColPred::Range { lo, hi, inc_lo, inc_hi } => {
                    let lo_ok = match lo {
                        Some(v) => {
                            let o = cmp_row(c, i, v);
                            o.is_gt() || (*inc_lo && o.is_eq())
                        }
                        None => true,
                    };
                    let hi_ok = match hi {
                        Some(v) => {
                            let o = cmp_row(c, i, v);
                            o.is_lt() || (*inc_hi && o.is_eq())
                        }
                        None => true,
                    };
                    lo_ok && hi_ok
                }
            }
        })
        .collect()
}

/// Refine an existing row-id list with a further predicate (row fetches:
/// each surviving candidate pages in its row).
pub fn refine_rows(
    db: &RelDb,
    table: &str,
    rows: &[u32],
    pager: Option<&Pager>,
    keep: impl Fn(&Table, usize) -> bool,
) -> Vec<u32> {
    let t = db.table(table);
    rows.iter()
        .copied()
        .filter(|&r| {
            if let Some(p) = pager {
                t.touch_row(p, r as usize);
            }
            keep(t, r as usize)
        })
        .collect()
}

/// Unclustered fetch: page in each row (the `E_rel` second term) and map
/// it through `f`.
pub fn fetch<T>(
    db: &RelDb,
    table: &str,
    rows: &[u32],
    pager: Option<&Pager>,
    f: impl Fn(&Table, usize) -> T,
) -> Vec<T> {
    let t = db.table(table);
    rows.iter()
        .map(|&r| {
            if let Some(p) = pager {
                t.touch_row(p, r as usize);
            }
            f(t, r as usize)
        })
        .collect()
}

/// All row ids of a table (full scan).
pub fn scan(db: &RelDb, table: &str, pager: Option<&Pager>) -> Vec<u32> {
    let t = db.table(table);
    if let Some(p) = pager {
        t.touch_scan(p);
    }
    (0..t.rows() as u32).collect()
}

/// Hash join: build on `build_key(row)` over `build_rows` of
/// `build_table`, probe with `probe_key`; emits (probe_row, build_row).
#[allow(clippy::too_many_arguments)]
pub fn hash_join(
    db: &RelDb,
    build_table: &str,
    build_rows: &[u32],
    build_key: impl Fn(&Table, usize) -> AtomValue,
    probe_table: &str,
    probe_rows: &[u32],
    probe_key: impl Fn(&Table, usize) -> AtomValue,
    pager: Option<&Pager>,
) -> Vec<(u32, u32)> {
    let bt = db.table(build_table);
    let pt = db.table(probe_table);
    let mut ht: WordHashMap<AtomValue, Vec<u32>> =
        WordHashMap::with_capacity_and_hasher(build_rows.len(), Default::default());
    for &r in build_rows {
        if let Some(p) = pager {
            bt.touch_row(p, r as usize);
        }
        ht.entry(build_key(bt, r as usize)).or_default().push(r);
    }
    let mut out = Vec::new();
    for &r in probe_rows {
        if let Some(p) = pager {
            pt.touch_row(p, r as usize);
        }
        if let Some(matches) = ht.get(&probe_key(pt, r as usize)) {
            for &b in matches {
                out.push((r, b));
            }
        }
    }
    out
}

/// Hash aggregation: group `rows` by `key` and fold each group with
/// `init`/`step`. Returns (key, accumulator) pairs in first-seen order.
pub fn group_fold<K, A>(
    db: &RelDb,
    table: &str,
    rows: &[u32],
    pager: Option<&Pager>,
    key: impl Fn(&Table, usize) -> K,
    init: impl Fn() -> A,
    step: impl Fn(&mut A, &Table, usize),
) -> Vec<(K, A)>
where
    K: std::hash::Hash + Eq + Clone,
{
    let t = db.table(table);
    let mut order: Vec<K> = Vec::new();
    let mut groups: WordHashMap<K, A> = WordHashMap::default();
    for &r in rows {
        if let Some(p) = pager {
            t.touch_row(p, r as usize);
        }
        let k = key(t, r as usize);
        let acc = groups.entry(k.clone()).or_insert_with(|| {
            order.push(k.clone());
            init()
        });
        step(acc, t, r as usize);
    }
    order
        .into_iter()
        .map(|k| {
            let a = groups.remove(&k).expect("group exists");
            (k, a)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use monet::column::Column;

    fn db() -> RelDb {
        let mut db = RelDb::new();
        db.add_table(Table::new(
            "item",
            vec![
                ("order".into(), Column::from_oids(vec![1, 1, 2, 2, 3])),
                ("price".into(), Column::from_dbls(vec![10.0, 20.0, 30.0, 40.0, 50.0])),
                ("flag".into(), Column::from_chrs(vec![b'R', b'N', b'R', b'R', b'N'])),
            ],
        ));
        db.build_index("item", "flag");
        db.add_table(Table::new(
            "ord",
            vec![
                ("oid".into(), Column::from_oids(vec![1, 2, 3])),
                ("clerk".into(), Column::from_strs(["a", "b", "a"])),
            ],
        ));
        db
    }

    #[test]
    fn select_with_and_without_index() {
        let db = db();
        let via_index = select_rows(&db, "item", "flag", &ColPred::Eq(&AtomValue::Chr(b'R')), None);
        let mut vi = via_index.clone();
        vi.sort_unstable();
        assert_eq!(vi, vec![0, 2, 3]);
        let via_scan = select_rows(
            &db,
            "item",
            "price",
            &ColPred::Range {
                lo: Some(&AtomValue::Dbl(20.0)),
                hi: None,
                inc_lo: false,
                inc_hi: true,
            },
            None,
        );
        assert_eq!(via_scan, vec![2, 3, 4]);
    }

    #[test]
    fn join_and_group() {
        let db = db();
        let items = scan(&db, "item", None);
        let orders = scan(&db, "ord", None);
        let pairs = hash_join(
            &db,
            "ord",
            &orders,
            |t, r| t.value(0, r),
            "item",
            &items,
            |t, r| t.value(0, r),
            None,
        );
        assert_eq!(pairs.len(), 5);
        let groups = group_fold(
            &db,
            "item",
            &items,
            None,
            |t, r| t.oid_v(0, r),
            || 0.0f64,
            |acc, t, r| *acc += t.dbl_v(1, r),
        );
        let m: WordHashMap<u64, f64> = groups.into_iter().collect();
        assert_eq!(m[&1], 30.0);
        assert_eq!(m[&2], 70.0);
        assert_eq!(m[&3], 50.0);
    }

    #[test]
    fn refine_filters() {
        let db = db();
        let all = scan(&db, "item", None);
        let r = refine_rows(&db, "item", &all, None, |t, i| t.chr_v(2, i) == b'N');
        assert_eq!(r, vec![1, 4]);
    }
}
