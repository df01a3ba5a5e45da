//! The load pipeline of Section 6.
//!
//! "We loaded these into Monet using its bulk load utility, which
//! correctly sets the properties key, ordered and synced for each
//! generated BAT. For each class, an extent[oid,void] was created…
//! Initially all tables were sorted on oid, so it was cheap to create
//! datavectors… we then reordered all tables on tail values."
//!
//! Phase 1 — build the columns of every stored class that
//! [`crate::schema`] declares, oid-ordered, and check them ([`validate`]);
//! a class's BATs share its one dense head column, so they are mutually
//! *synced*, and are named by [`Catalog`]'s naming of Figure 3;
//! Phase 2 — extents + one shared [`Extent`] accelerator per class, and a
//! datavector per attribute (projection of the oid-ordered tail);
//! Phase 3 — re-sort every attribute BAT on tail and attach the
//! datavector; then each set-valued attribute's index BAT, on its own
//! copies of the members' oids and owner references. Every BAT of the two
//! whose tail is a sorted oid column — a reference attribute, an
//! owner-sorted set index — gets a run index over it ([`Bat::index_runs`]).
//!
//! The n-ary baseline is built from the same Phase 1 columns: one table
//! per stored class, the oid column first.

use std::sync::Arc;
use std::time::Instant;

use moa::catalog::Catalog;
use moa::types::MoaType;
use monet::accel::datavector::{Datavector, Extent};
use monet::bat::Bat;
use monet::column::Column;
use monet::db::Db;
use monet::props::{ColProps, Props};
use relstore::{RelDb, Table};

use crate::error::TpcdError;
use crate::gen::TpcdData;
use crate::schema::{stored_classes, tpcd_schema, Built, Stored};

/// Timing and size report of the three load phases (the `load` row of
/// Figure 9).
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    pub bulk_ms: f64,
    pub accel_ms: f64,
    pub reorder_ms: f64,
    /// Base-data bytes after load (Figure 9: "1.3 GB as base data").
    pub base_bytes: usize,
    /// Datavector bytes (Figure 9: "300 MB in data vectors").
    pub dv_bytes: usize,
    pub bat_count: usize,
}

impl LoadReport {
    pub fn total_ms(&self) -> f64 {
        self.bulk_ms + self.accel_ms + self.reorder_ms
    }
}

fn tail_props(tail: &Column) -> ColProps {
    // One typed pass finds both. Key detection is only cheap on sorted
    // columns; claim nothing otherwise (claims must be sound, not
    // complete).
    let (sorted, key) = tail.check_order();
    ColProps { sorted, key, dense: false, ..ColProps::NONE }
}

fn oids(col: &Column) -> &[monet::atom::Oid] {
    col.as_oid_slice().expect("an oid column")
}

/// Phase 1 of both loaders: every stored class's columns.
fn build(data: &TpcdData) -> Vec<Built> {
    stored_classes().iter().map(|c| c.build(data)).collect()
}

/// The loaders bake structural claims into the catalog — dense head
/// columns, per-class [`Extent`] accelerators, owner-sorted set indexes.
/// A world violating them (hand-built, truncated, or corrupted) must be
/// rejected up front: loading it would not panic here but would produce a
/// catalog whose property claims are lies, corrupting every query that
/// trusts them.
pub fn validate(data: &TpcdData) -> crate::error::Result<()> {
    check(&build(data))
}

fn check(world: &[Built]) -> crate::error::Result<()> {
    let malformed = |b: &Built, detail| Err(TpcdError::Malformed { table: b.class.bat(), detail });
    // Each stored class's oids must be a non-empty dense ascending range
    // (`ColProps::DENSE` heads, `Extent::new`, and the oid arithmetic of
    // the set indexes all depend on it).
    let mut extents = Vec::with_capacity(world.len());
    for b in world {
        let o = oids(&b.oids);
        let (Some(&first), Some(&last)) = (o.first(), o.last()) else {
            return malformed(b, "table is empty".into());
        };
        if let Some(w) = o.windows(2).find(|w| w[1] != w[0] + 1) {
            return malformed(b, format!("extent not dense: oid {} follows {}", w[1], w[0]));
        }
        extents.push((first, last));
    }

    // Referential integrity: every object reference must land inside its
    // target extent (dangling references make join results silently drop
    // or fabricate rows).
    for b in world {
        for (f, col) in &b.cols {
            let Stored::Column(MoaType::Object(target), _) = &f.stored else { continue };
            let t = world.iter().position(|t| t.class.set.is_none() && t.class.class == target);
            let (lo, hi) = extents[t.expect("a declared class")];
            if let Some(o) = oids(col).iter().find(|&&o| o < lo || o > hi) {
                return malformed(b, format!("{} references oid {o} outside {lo}..={hi}", f.name));
            }
        }
    }

    // Set tuples load owner-sorted (grouped by owner).
    for b in world.iter().filter(|b| b.class.set.is_some()) {
        let (owner, col) = b.owner(b.class.class);
        if let Some(w) = oids(col).windows(2).find(|w| w[0] > w[1]) {
            let (name, a, z) = (owner.name, w[0], w[1]);
            return malformed(b, format!("set index not owner-sorted: {name} {z} follows {a}"));
        }
    }
    Ok(())
}

/// Load the generated data into the decomposed BAT representation,
/// returning the MOA catalog and the load report. Column layouts follow
/// the process environment's configuration (`enc`).
///
/// Panics on a malformed world; use [`try_load_bats`] when the data does
/// not come straight from [`crate::gen::generate`].
pub fn load_bats(data: &TpcdData) -> (Catalog, LoadReport) {
    try_load_bats(data).unwrap_or_else(|e| panic!("{e}"))
}

/// Validate the world (see [`validate`]) and load it; a malformed or
/// truncated world is rejected with a typed error instead of producing a
/// catalog with false property claims.
pub fn try_load_bats(data: &TpcdData) -> crate::error::Result<(Catalog, LoadReport)> {
    load_bats_with(data, monet::config::EngineConfig::from_env().enc)
}

/// [`try_load_bats`] with the layout decision explicit: `enc`
/// dictionary-codes the string columns it shrinks (every other column
/// stays raw), `!enc` keeps the raw bulk-loaded columns byte for byte.
pub fn load_bats_with(data: &TpcdData, enc: bool) -> crate::error::Result<(Catalog, LoadReport)> {
    // ---- Phase 1: bulk load (decomposition, oid-ordered) -----------------
    let t0 = Instant::now();
    let world = build(data);
    let bulk_ms = t0.elapsed().as_secs_f64() * 1e3;
    check(&world)?;
    let mut report = LoadReport { bulk_ms, ..LoadReport::default() };

    // ---- Phase 2: extents and datavectors --------------------------------
    let t1 = Instant::now();
    let mut db = Db::new();
    let mut prepared: Vec<(String, Bat, Arc<Datavector>)> = Vec::new();
    for b in &world {
        let head = &b.oids;
        let extent_accel = Extent::new(head.clone());
        // extent[oid, void] — registered under the class name. Set tuples
        // have no extent: their set index reaches them.
        if b.class.set.is_none() {
            let extent_bat = Bat::with_props(
                head.clone(),
                Column::void(0, head.len()),
                Props::new(ColProps::DENSE, ColProps::DENSE),
            );
            db.register(&b.class.bat(), extent_bat);
        }
        for (f, tail) in &b.cols {
            if b.class.set.is_some() && f.refers_to(b.class.class) {
                continue; // the set index holds a tuple's owner
            }
            // Encoded layouts are a load-time decision (`!enc` keeps the
            // raw Phase-1 columns byte for byte — the encodings-off
            // oracle). `encode()` dictionary-codes a string column only
            // where that shrinks it, and leaves int/date columns raw; the
            // Phase-3 reorder gathers codes, so the sorted attribute BATs
            // stay encoded.
            let tail = if enc { tail.encode() } else { tail.clone() };
            report.dv_bytes += tail.bytes();
            let dv = Arc::new(Datavector::new(Arc::clone(&extent_accel), tail.clone()));
            let props = Props::new(ColProps::DENSE, tail_props(&tail));
            prepared.push((
                b.class.field_bat(f.name),
                Bat::with_props(head.clone(), tail, props),
                dv,
            ));
        }
    }
    report.accel_ms = t1.elapsed().as_secs_f64() * 1e3;

    // ---- Phase 3: reorder on tail, attach accelerators -------------------
    let t2 = Instant::now();
    for (name, bat, dv) in prepared {
        let mut bat = if bat.props().tail.sorted {
            bat
        } else {
            let perm = bat.tail().sort_perm();
            let head = bat.head().gather(&perm);
            let tail = bat.tail().gather(&perm);
            let (_, strict) = tail.check_order();
            Bat::with_props(
                head,
                tail,
                Props::new(
                    ColProps { sorted: false, key: true, dense: false, ..ColProps::NONE },
                    ColProps { sorted: true, key: strict, dense: false, ..ColProps::NONE },
                ),
            )
        };
        bat.set_datavector(dv);
        bat.index_runs();
        db.register(&name, bat);
    }

    // Set-valued attribute plumbing: the index BAT [member, owner] on its
    // own columns (no attribute BAT is synced with it), and for a set of
    // objects the self-reference `ref` [member, member].
    for b in &world {
        for f in &b.class.fields {
            let Some(members) = f.members() else { continue };
            let m = world.iter().find(|m| std::ptr::eq(m.class, members)).expect("built");
            let head = Column::from_oids(oids(&m.oids).to_vec());
            // A tuple's owner reference is in no other BAT, so the index
            // takes its column; an object's is an attribute BAT's tail.
            let owner = &m.owner(b.class.class).1;
            let tail = match members.set {
                Some(_) => owner.clone(),
                None => Column::from_oids(oids(owner).to_vec()),
            };
            let props = Props::new(ColProps::DENSE, tail_props(&tail));
            if members.set.is_none() {
                let props = Props::new(ColProps::DENSE, ColProps::DENSE);
                let name = Catalog::member_name(b.class.class, f.name, "ref");
                db.register(&name, Bat::with_props(head.clone(), head.clone(), props));
            }
            let mut index = Bat::with_props(head, tail, props);
            index.index_runs();
            db.register(&Catalog::attr_name(b.class.class, f.name), index);
        }
    }
    report.reorder_ms = t2.elapsed().as_secs_f64() * 1e3;
    report.base_bytes = db.bytes();
    report.bat_count = db.len();

    Ok((Catalog::new(tpcd_schema(), db), report))
}

/// Stored fields the n-ary baseline leaves out: no reference plan reads
/// them.
const NOT_IN_ROWSTORE: [(&str, &str); 1] = [("Region", "comment")];

/// Load the generated data into the n-ary baseline store, with inverted
/// lists on the selection attributes the TPC-D queries use.
///
/// Panics on a malformed world; use [`try_load_rowstore`] when the data
/// does not come straight from [`crate::gen::generate`].
pub fn load_rowstore(data: &TpcdData) -> RelDb {
    try_load_rowstore(data).unwrap_or_else(|e| panic!("{e}"))
}

/// Validate the world (see [`validate`]) and load the n-ary baseline: one
/// table per stored class, its oid column first.
pub fn try_load_rowstore(data: &TpcdData) -> crate::error::Result<RelDb> {
    let world = build(data);
    check(&world)?;
    let mut db = RelDb::new();
    for b in world {
        let class = b.class.class;
        let mut cols = vec![("oid".to_string(), b.oids)];
        for (f, col) in b.cols {
            if !NOT_IN_ROWSTORE.contains(&(class, f.name)) {
                cols.push((f.name.to_string(), col));
            }
        }
        db.add_table(Table::new(b.class.table, cols));
    }

    // Inverted lists on the benchmark's selection attributes.
    for (t, c) in [
        ("lineitem", "shipdate"),
        ("lineitem", "returnflag"),
        ("lineitem", "order"),
        ("orders", "orderdate"),
        ("orders", "clerk"),
        ("orders", "oid"),
        ("customer", "mktsegment"),
        ("customer", "oid"),
        ("part", "type"),
        ("part", "size"),
        ("part", "oid"),
        ("supplier", "oid"),
        ("nation", "name"),
        ("nation", "oid"),
        ("region", "name"),
        ("partsupp", "part"),
    ] {
        db.build_index(t, c);
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use monet::atom::AtomValue;
    use monet::ctx::ExecCtx;

    fn small() -> TpcdData {
        generate(0.001, 42)
    }

    #[test]
    fn malformed_scale_factor_is_a_typed_error() {
        for sf in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = crate::gen::try_generate(sf, 42).unwrap_err();
            assert!(matches!(err, TpcdError::InvalidScaleFactor { .. }), "sf {sf}: got {err}");
        }
    }

    #[test]
    fn truncated_world_is_rejected_not_loaded() {
        // Dropping the tail of `customers` leaves orders referencing
        // missing objects: the loader must refuse with a typed error
        // naming the offending table, not build a catalog of lies.
        let mut data = small();
        data.customers.truncate(data.customers.len() / 2);
        let err = try_load_bats(&data).err().expect("load must fail");
        assert!(
            matches!(err, TpcdError::Malformed { ref table, .. } if table == "Order"),
            "expected a dangling Order.cust, got {err}"
        );
        assert!(try_load_rowstore(&data).is_err());
    }

    #[test]
    fn non_dense_extent_is_rejected() {
        let mut data = small();
        data.items.remove(3); // punch a hole in the Item extent
        let err = try_load_bats(&data).err().expect("load must fail");
        assert!(
            matches!(err, TpcdError::Malformed { ref table, .. } if table == "Item"),
            "expected a dense-extent violation, got {err}"
        );
    }

    #[test]
    fn owner_unsorted_set_index_is_rejected() {
        let mut data = small();
        let last = data.supplies.len() - 1;
        // Swap the *owners* (keeping element oids dense) so only the
        // owner-sort invariant breaks.
        let (a, b) = (data.supplies[0].supplier, data.supplies[last].supplier);
        assert_ne!(a, b, "seed must spread owners for this test");
        data.supplies[0].supplier = b;
        data.supplies[last].supplier = a;
        let err = try_load_bats(&data).err().expect("load must fail");
        assert!(
            matches!(err, TpcdError::Malformed { ref table, .. }
                if *table == Catalog::attr_name("Supplier", "supplies")),
            "expected an owner-sort violation, got {err}"
        );
    }

    #[test]
    fn empty_world_is_rejected() {
        let mut data = small();
        data.orders.clear();
        let err = try_load_bats(&data).err().expect("load must fail");
        assert!(
            matches!(err, TpcdError::Malformed { ref table, .. } if table == "Order"),
            "got {err}"
        );
    }

    #[test]
    fn valid_world_passes_validation() {
        assert_eq!(validate(&small()), Ok(()));
    }

    #[test]
    fn loads_all_bats() {
        let data = small();
        let (cat, report) = load_bats(&data);
        assert!(report.bat_count > 45, "only {} BATs", report.bat_count);
        assert!(report.base_bytes > 0);
        assert!(report.dv_bytes > 0);
        // Every schema attribute resolves.
        for class in ["Region", "Nation", "Part", "Supplier", "Customer", "Order", "Item"] {
            assert!(cat.extent(class).is_ok(), "extent {class}");
        }
        assert_eq!(cat.extent("Item").unwrap().len(), data.items.len());
        assert!(cat.member_field("Supplier", "supplies", "cost").is_ok());
        assert!(cat.member_field("Customer", "orders", "ref").is_ok());
        assert!(cat.member_field("Order", "items", "ref").is_ok());
    }

    #[test]
    fn attribute_bats_are_tail_sorted_with_datavectors() {
        let data = small();
        let (cat, _) = load_bats(&data);
        for name in ["Item_shipdate", "Order_clerk", "Item_extendedprice", "Part_size"] {
            let bat = cat.db().get(name).unwrap();
            assert!(bat.props().tail.sorted, "{name} not tail-sorted");
            assert!(bat.accel().datavector.is_some(), "{name} has no datavector");
            assert!(bat.validate().is_ok(), "{name} props invalid");
        }
    }

    #[test]
    fn datavectors_share_class_extent() {
        let data = small();
        let (cat, _) = load_bats(&data);
        let a = cat.db().get("Item_extendedprice").unwrap();
        let b = cat.db().get("Item_discount").unwrap();
        let (da, db_) =
            (a.accel().datavector.as_ref().unwrap(), b.accel().datavector.as_ref().unwrap());
        assert!(Arc::ptr_eq(da.extent(), db_.extent()), "extents must be shared");
    }

    #[test]
    fn figure3_structure_builds_and_materializes() {
        let data = small();
        let (cat, _) = load_bats(&data);
        let s = cat.class_structure("Supplier").unwrap();
        let rendered = s.inner.render();
        assert!(rendered.contains("OBJECT[Supplier]"));
        assert!(rendered.contains("SET(index, TUPLE(part:ref[Part]"));
        let vals = s.materialize().unwrap();
        assert_eq!(vals.len(), data.suppliers.len());
    }

    #[test]
    fn clerk_selection_matches_generator() {
        let data = small();
        let (cat, _) = load_bats(&data);
        let clerk = data.orders[0].clerk.clone();
        let expected = data.orders.iter().filter(|o| o.clerk == clerk).count();
        let ctx = ExecCtx::new();
        let bat = cat.db().get("Order_clerk").unwrap();
        let sel = monet::ops::select_eq(&ctx, bat, &AtomValue::str(clerk.as_str())).unwrap();
        assert_eq!(sel.len(), expected);
        assert!(expected > 0);
    }

    #[test]
    fn dangling_reference_in_each_object_field_is_rejected() {
        const NOWHERE: monet::atom::Oid = 1 << 40;
        let supplies = Catalog::attr_name("Supplier", "supplies");
        type Dangle = fn(&mut TpcdData);
        let cases: [(String, &str, Dangle); 8] = [
            ("Nation".into(), "region", |d| d.nations[1].region = NOWHERE),
            ("Supplier".into(), "nation", |d| d.suppliers[1].nation = NOWHERE),
            (supplies, "part", |d| d.supplies[1].part = NOWHERE),
            ("Customer".into(), "nation", |d| d.customers[1].nation = NOWHERE),
            ("Order".into(), "cust", |d| d.orders[1].cust = NOWHERE),
            ("Item".into(), "part", |d| d.items[1].part = NOWHERE),
            ("Item".into(), "supplier", |d| d.items[1].supplier = NOWHERE),
            ("Item".into(), "order", |d| d.items[1].order = NOWHERE),
        ];
        for (table, field, dangle) in cases {
            let mut data = small();
            dangle(&mut data);
            match try_load_bats(&data).err().expect("load must fail") {
                TpcdError::Malformed { table: t, detail } => {
                    assert_eq!(t, table);
                    let named = format!("{field} references oid {NOWHERE} outside");
                    assert!(detail.starts_with(&named), "{table}.{field}: {detail}");
                }
                other => panic!("{table}.{field}: got {other}"),
            }
            assert!(try_load_rowstore(&data).is_err(), "{table}.{field}");
        }
    }

    #[test]
    fn bat_names_are_the_catalog_naming_of_the_schema() {
        let (cat, report) = load_bats(&small());
        let mut want = Vec::new();
        for class in tpcd_schema().classes() {
            let c = class.name.as_str();
            want.push(Catalog::extent_name(c));
            for f in &class.fields {
                want.push(Catalog::attr_name(c, &f.name));
                match &f.ty {
                    MoaType::Set(inner) => match &**inner {
                        MoaType::Tuple(members) => want.extend(
                            members.iter().map(|m| Catalog::member_name(c, &f.name, &m.name)),
                        ),
                        MoaType::Object(_) => want.push(Catalog::member_name(c, &f.name, "ref")),
                        other => panic!("{c}.{}: set of {other}", f.name),
                    },
                    MoaType::Base(_) | MoaType::Object(_) => {}
                    MoaType::Tuple(_) => panic!("{c}.{}: a tuple field", f.name),
                }
            }
        }
        want.sort();
        let got: Vec<String> = cat.db().iter().map(|(name, _)| name.to_string()).collect();
        assert_eq!(got, want);
        assert_eq!(report.bat_count, want.len());
    }

    #[test]
    fn rowstore_tables_keep_their_layout() {
        let rel = load_rowstore(&small());
        let tables: Vec<String> = rel
            .tables()
            .map(|t| {
                let cols: Vec<&str> = t.columns().collect();
                format!("{}({}) {}", t.name(), cols.join(", "), t.row_width())
            })
            .collect();
        assert_eq!(
            tables,
            [
                "customer(oid, name, address, phone, acctbal, nation, mktsegment) 48",
                "lineitem(oid, part, supplier, order, quantity, returnflag, linestatus, \
                 extendedprice, discount, tax, shipdate, commitdate, receiptdate, shipmode, \
                 shipinstruct) 90",
                "nation(oid, name, region) 28",
                "orders(oid, cust, status, totalprice, orderdate, orderpriority, clerk, \
                 shippriority) 49",
                "part(oid, name, manufacturer, brand, type, size, container, retailprice) 48",
                "partsupp(oid, supplier, part, cost, available) 44",
                "region(oid, name) 20",
                "supplier(oid, name, address, phone, acctbal, nation) 44",
            ]
        );
    }

    #[test]
    fn rowstore_lists_its_tables_in_one_order() {
        let names = || load_rowstore(&small()).tables().map(|t| t.name().to_string()).collect();
        let first: Vec<String> = names();
        assert_eq!(first, names());
        assert!(first.windows(2).all(|w| w[0] < w[1]), "by name: {first:?}");
    }

    #[test]
    fn rowstore_matches_cardinalities() {
        let data = small();
        let rel = load_rowstore(&data);
        assert_eq!(rel.table("lineitem").rows(), data.items.len());
        assert_eq!(rel.table("orders").rows(), data.orders.len());
        assert_eq!(rel.table("partsupp").rows(), data.supplies.len());
        assert!(rel.index("lineitem", "shipdate").is_some());
        assert!(rel.bytes() > 0);
    }

    #[test]
    fn set_indexes_consistent() {
        let data = small();
        let (cat, _) = load_bats(&data);
        let idx = cat.set_index("Supplier", "supplies").unwrap();
        assert_eq!(idx.len(), data.supplies.len());
        assert!(idx.props().tail.sorted, "owner-sorted supplies index");
        let oi = cat.set_index("Order", "items").unwrap();
        assert_eq!(oi.len(), data.items.len());
    }
}
