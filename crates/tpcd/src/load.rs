//! The load pipeline of Section 6.
//!
//! "We loaded these into Monet using its bulk load utility, which
//! correctly sets the properties key, ordered and synced for each
//! generated BAT. For each class, an extent[oid,void] was created…
//! Initially all tables were sorted on oid, so it was cheap to create
//! datavectors… we then reordered all tables on tail values."
//!
//! Phase 1 — decompose into oid-ordered BATs (head dense, shared head
//! columns per class so attribute BATs are mutually *synced*);
//! Phase 2 — extents + one shared [`Extent`] accelerator per class, and a
//! datavector per attribute (projection of the oid-ordered tail);
//! Phase 3 — re-sort every attribute BAT on tail and attach the
//! datavector.

use std::sync::Arc;
use std::time::Instant;

use moa::catalog::Catalog;
use monet::accel::datavector::{Datavector, Extent};
use monet::atom::{Date, Oid};
use monet::bat::Bat;
use monet::column::Column;
use monet::db::Db;
use monet::props::{ColProps, Props};
use monet::strheap::StrHeapBuilder;
use relstore::{RelDb, Table};

use crate::error::TpcdError;
use crate::gen::TpcdData;
use crate::schema::tpcd_schema;

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

/// A class being decomposed: shared dense head column plus the attribute
/// tails, accumulated before the phases run.
struct ClassBats {
    class: String,
    head: Column,
    /// (attr name, tail column, attach datavector + reorder?)
    attrs: Vec<(String, Column, bool)>,
}

fn str_col<'b>(items: impl Iterator<Item = &'b str>, dedup: bool) -> Column {
    let mut b = StrHeapBuilder::new();
    for s in items {
        if dedup {
            b.push_dedup(s);
        } else {
            b.push(s);
        }
    }
    Column::from_strvec(b.finish())
}

fn tail_props(tail: &Column) -> ColProps {
    // One typed pass finds both. Key detection is only cheap on sorted
    // columns; claim nothing otherwise (claims must be sound, not
    // complete).
    let (sorted, key) = tail.check_order();
    ColProps { sorted, key, dense: false, ..ColProps::NONE }
}

/// The loaders bake structural claims into the catalog — dense head
/// columns, per-class [`Extent`] accelerators, owner-sorted set indexes.
/// A world violating them (hand-built, truncated, or corrupted) must be
/// rejected up front: loading it would not panic here but would produce a
/// catalog whose property claims are lies, corrupting every query that
/// trusts them.
pub fn validate(data: &TpcdData) -> crate::error::Result<()> {
    // Each class extent must be a non-empty dense ascending oid range
    // (`ColProps::DENSE` heads, `Extent::new`, and the oid arithmetic of
    // the set indexes all depend on it).
    fn extent(
        table: &'static str,
        mut oids: impl Iterator<Item = Oid>,
    ) -> crate::error::Result<(Oid, Oid)> {
        let first =
            oids.next().ok_or(TpcdError::Malformed { table, detail: "table is empty".into() })?;
        let mut prev = first;
        for o in oids {
            if o != prev + 1 {
                return Err(TpcdError::Malformed {
                    table,
                    detail: format!("extent not dense: oid {o} follows {prev}"),
                });
            }
            prev = o;
        }
        Ok((first, prev))
    }
    let regions = extent("Region", data.regions.iter().map(|r| r.oid))?;
    let nations = extent("Nation", data.nations.iter().map(|n| n.oid))?;
    let parts = extent("Part", data.parts.iter().map(|p| p.oid))?;
    let suppliers = extent("Supplier", data.suppliers.iter().map(|s| s.oid))?;
    extent("Supplier_supplies", data.supplies.iter().map(|s| s.oid))?;
    let customers = extent("Customer", data.customers.iter().map(|c| c.oid))?;
    let orders = extent("Order", data.orders.iter().map(|o| o.oid))?;
    extent("Item", data.items.iter().map(|i| i.oid))?;

    // Referential integrity: every object reference must land inside its
    // target extent (dangling references make join results silently drop
    // or fabricate rows).
    fn refs(
        table: &'static str,
        attr: &str,
        target: (Oid, Oid),
        mut vals: impl Iterator<Item = Oid>,
    ) -> crate::error::Result<()> {
        match vals.find(|&o| o < target.0 || o > target.1) {
            None => Ok(()),
            Some(o) => Err(TpcdError::Malformed {
                table,
                detail: format!("{attr} references oid {o} outside {}..={}", target.0, target.1),
            }),
        }
    }
    refs("Nation", "region", regions, data.nations.iter().map(|n| n.region))?;
    refs("Supplier", "nation", nations, data.suppliers.iter().map(|s| s.nation))?;
    refs("Supplier_supplies", "part", parts, data.supplies.iter().map(|s| s.part))?;
    refs("Customer", "nation", nations, data.customers.iter().map(|c| c.nation))?;
    refs("Order", "cust", customers, data.orders.iter().map(|o| o.cust))?;
    refs("Item", "part", parts, data.items.iter().map(|i| i.part))?;
    refs("Item", "supplier", suppliers, data.items.iter().map(|i| i.supplier))?;
    refs("Item", "order", orders, data.items.iter().map(|i| i.order))?;

    // The supply set index loads owner-sorted (grouped by supplier).
    if let Some(w) = data.supplies.windows(2).find(|w| w[0].supplier > w[1].supplier) {
        return Err(TpcdError::Malformed {
            table: "Supplier_supplies",
            detail: format!(
                "set index not owner-sorted: supplier {} follows {}",
                w[1].supplier, w[0].supplier
            ),
        });
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
    validate(data)?;
    Ok(load_bats_unchecked(data, enc))
}

fn load_bats_unchecked(data: &TpcdData, enc: bool) -> (Catalog, LoadReport) {
    let mut report = LoadReport::default();

    // ---- Phase 1: bulk load (decomposition, oid-ordered) -----------------
    let t0 = Instant::now();
    let mut classes: Vec<ClassBats> = Vec::new();

    {
        let head = Column::from_oids(data.regions.iter().map(|r| r.oid).collect());
        classes.push(ClassBats {
            class: "Region".into(),
            head,
            attrs: vec![
                ("name".into(), str_col(data.regions.iter().map(|r| r.name.as_str()), false), true),
                (
                    "comment".into(),
                    str_col(data.regions.iter().map(|r| r.comment.as_str()), false),
                    true,
                ),
            ],
        });
    }
    {
        let head = Column::from_oids(data.nations.iter().map(|n| n.oid).collect());
        classes.push(ClassBats {
            class: "Nation".into(),
            head,
            attrs: vec![
                ("name".into(), str_col(data.nations.iter().map(|n| n.name.as_str()), false), true),
                (
                    "region".into(),
                    Column::from_oids(data.nations.iter().map(|n| n.region).collect()),
                    true,
                ),
            ],
        });
    }
    {
        let head = Column::from_oids(data.parts.iter().map(|p| p.oid).collect());
        classes.push(ClassBats {
            class: "Part".into(),
            head,
            attrs: vec![
                ("name".into(), str_col(data.parts.iter().map(|p| p.name.as_str()), true), true),
                (
                    "manufacturer".into(),
                    str_col(data.parts.iter().map(|p| p.manufacturer.as_str()), true),
                    true,
                ),
                ("brand".into(), str_col(data.parts.iter().map(|p| p.brand.as_str()), true), true),
                ("type".into(), str_col(data.parts.iter().map(|p| p.typ.as_str()), true), true),
                (
                    "size".into(),
                    Column::from_ints(data.parts.iter().map(|p| p.size).collect()),
                    true,
                ),
                (
                    "container".into(),
                    str_col(data.parts.iter().map(|p| p.container.as_str()), true),
                    true,
                ),
                (
                    "retailprice".into(),
                    Column::from_dbls(data.parts.iter().map(|p| p.retailprice).collect()),
                    true,
                ),
            ],
        });
    }
    {
        let head = Column::from_oids(data.suppliers.iter().map(|s| s.oid).collect());
        classes.push(ClassBats {
            class: "Supplier".into(),
            head,
            attrs: vec![
                (
                    "name".into(),
                    str_col(data.suppliers.iter().map(|s| s.name.as_str()), false),
                    true,
                ),
                (
                    "address".into(),
                    str_col(data.suppliers.iter().map(|s| s.address.as_str()), false),
                    true,
                ),
                (
                    "phone".into(),
                    str_col(data.suppliers.iter().map(|s| s.phone.as_str()), false),
                    true,
                ),
                (
                    "acctbal".into(),
                    Column::from_dbls(data.suppliers.iter().map(|s| s.acctbal).collect()),
                    true,
                ),
                (
                    "nation".into(),
                    Column::from_oids(data.suppliers.iter().map(|s| s.nation).collect()),
                    true,
                ),
            ],
        });
    }
    {
        // The supply tuples are the elements of Supplier.supplies; their
        // member BATs behave exactly like class attributes.
        let head = Column::from_oids(data.supplies.iter().map(|s| s.oid).collect());
        classes.push(ClassBats {
            class: "Supplier_supplies".into(),
            head,
            attrs: vec![
                (
                    "part".into(),
                    Column::from_oids(data.supplies.iter().map(|s| s.part).collect()),
                    true,
                ),
                (
                    "cost".into(),
                    Column::from_dbls(data.supplies.iter().map(|s| s.cost).collect()),
                    true,
                ),
                (
                    "available".into(),
                    Column::from_ints(data.supplies.iter().map(|s| s.available).collect()),
                    true,
                ),
            ],
        });
    }
    {
        let head = Column::from_oids(data.customers.iter().map(|c| c.oid).collect());
        classes.push(ClassBats {
            class: "Customer".into(),
            head,
            attrs: vec![
                (
                    "name".into(),
                    str_col(data.customers.iter().map(|c| c.name.as_str()), false),
                    true,
                ),
                (
                    "address".into(),
                    str_col(data.customers.iter().map(|c| c.address.as_str()), false),
                    true,
                ),
                (
                    "phone".into(),
                    str_col(data.customers.iter().map(|c| c.phone.as_str()), false),
                    true,
                ),
                (
                    "acctbal".into(),
                    Column::from_dbls(data.customers.iter().map(|c| c.acctbal).collect()),
                    true,
                ),
                (
                    "nation".into(),
                    Column::from_oids(data.customers.iter().map(|c| c.nation).collect()),
                    true,
                ),
                (
                    "mktsegment".into(),
                    str_col(data.customers.iter().map(|c| c.mktsegment.as_str()), true),
                    true,
                ),
            ],
        });
    }
    {
        let head = Column::from_oids(data.orders.iter().map(|o| o.oid).collect());
        classes.push(ClassBats {
            class: "Order".into(),
            head,
            attrs: vec![
                (
                    "cust".into(),
                    Column::from_oids(data.orders.iter().map(|o| o.cust).collect()),
                    true,
                ),
                (
                    "status".into(),
                    Column::from_chrs(data.orders.iter().map(|o| o.status).collect()),
                    true,
                ),
                (
                    "totalprice".into(),
                    Column::from_dbls(data.orders.iter().map(|o| o.totalprice).collect()),
                    true,
                ),
                (
                    "orderdate".into(),
                    Column::from_dates(data.orders.iter().map(|o| o.orderdate).collect()),
                    true,
                ),
                (
                    "orderpriority".into(),
                    str_col(data.orders.iter().map(|o| o.orderpriority.as_str()), true),
                    true,
                ),
                ("clerk".into(), str_col(data.orders.iter().map(|o| o.clerk.as_str()), true), true),
                (
                    "shippriority".into(),
                    str_col(data.orders.iter().map(|o| o.shippriority.as_str()), true),
                    true,
                ),
            ],
        });
    }
    {
        let head = Column::from_oids(data.items.iter().map(|i| i.oid).collect());
        let dates = |f: fn(&crate::gen::ItemRow) -> Date| -> Column {
            Column::from_dates(data.items.iter().map(f).collect())
        };
        classes.push(ClassBats {
            class: "Item".into(),
            head,
            attrs: vec![
                (
                    "part".into(),
                    Column::from_oids(data.items.iter().map(|i| i.part).collect()),
                    true,
                ),
                (
                    "supplier".into(),
                    Column::from_oids(data.items.iter().map(|i| i.supplier).collect()),
                    true,
                ),
                (
                    "order".into(),
                    Column::from_oids(data.items.iter().map(|i| i.order).collect()),
                    true,
                ),
                (
                    "quantity".into(),
                    Column::from_ints(data.items.iter().map(|i| i.quantity).collect()),
                    true,
                ),
                (
                    "returnflag".into(),
                    Column::from_chrs(data.items.iter().map(|i| i.returnflag).collect()),
                    true,
                ),
                (
                    "linestatus".into(),
                    Column::from_chrs(data.items.iter().map(|i| i.linestatus).collect()),
                    true,
                ),
                (
                    "extendedprice".into(),
                    Column::from_dbls(data.items.iter().map(|i| i.extendedprice).collect()),
                    true,
                ),
                (
                    "discount".into(),
                    Column::from_dbls(data.items.iter().map(|i| i.discount).collect()),
                    true,
                ),
                ("tax".into(), Column::from_dbls(data.items.iter().map(|i| i.tax).collect()), true),
                ("shipdate".into(), dates(|i| i.shipdate), true),
                ("commitdate".into(), dates(|i| i.commitdate), true),
                ("receiptdate".into(), dates(|i| i.receiptdate), true),
                (
                    "shipmode".into(),
                    str_col(data.items.iter().map(|i| i.shipmode.as_str()), true),
                    true,
                ),
                (
                    "shipinstruct".into(),
                    str_col(data.items.iter().map(|i| i.shipinstruct.as_str()), true),
                    true,
                ),
            ],
        });
    }
    report.bulk_ms = t0.elapsed().as_secs_f64() * 1e3;

    // ---- Phase 2: extents and datavectors --------------------------------
    let t1 = Instant::now();
    let mut db = Db::new();
    struct Prepared {
        name: String,
        bat: Bat,
        dv: Option<Arc<Datavector>>,
    }
    let mut prepared: Vec<Prepared> = Vec::new();
    for cb in &classes {
        let extent_accel = Extent::new(cb.head.clone());
        // extent[oid, void] — registered under the class name. The supply
        // pseudo-class has no extent in the catalog naming scheme; skip it.
        if cb.class != "Supplier_supplies" {
            let extent_bat = Bat::with_props(
                cb.head.clone(),
                Column::void(0, cb.head.len()),
                Props::new(ColProps::DENSE, ColProps::DENSE),
            );
            db.register(&cb.class, extent_bat);
        }
        for (attr, tail, accel) in &cb.attrs {
            // Encoded layouts are a load-time decision (`!enc` keeps the
            // raw Phase-1 columns byte for byte — the encodings-off
            // oracle). `encode()` dictionary-codes a string column only
            // where that shrinks it, and leaves int/date columns raw; the
            // Phase-3 reorder gathers codes, so the sorted attribute BATs
            // stay encoded.
            let tail = if enc { tail.encode() } else { tail.clone() };
            let dv = if *accel {
                report.dv_bytes += tail.bytes();
                Some(Arc::new(Datavector::new(Arc::clone(&extent_accel), tail.clone())))
            } else {
                None
            };
            prepared.push(Prepared {
                name: format!("{}_{}", cb.class, attr),
                bat: Bat::with_props(
                    cb.head.clone(),
                    tail.clone(),
                    Props::new(ColProps::DENSE, tail_props(&tail)),
                ),
                dv,
            });
        }
    }
    report.accel_ms = t1.elapsed().as_secs_f64() * 1e3;

    // ---- Phase 3: reorder on tail, attach accelerators -------------------
    let t2 = Instant::now();
    for p in prepared {
        let mut bat = if p.bat.props().tail.sorted {
            p.bat
        } else {
            let perm = p.bat.tail().sort_perm();
            let head = p.bat.head().gather(&perm);
            let tail = p.bat.tail().gather(&perm);
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
        if let Some(dv) = p.dv {
            bat.set_datavector(dv);
        }
        db.register(&p.name, bat);
    }

    // Set-valued attribute plumbing:
    // Supplier_supplies is both the member prefix (registered above) and
    // the index BAT [supply_id, supplier_oid].
    {
        let head = Column::from_oids(data.supplies.iter().map(|s| s.oid).collect());
        let tail = Column::from_oids(data.supplies.iter().map(|s| s.supplier).collect());
        let props = Props::new(ColProps::DENSE, tail_props(&tail));
        db.register("Supplier_supplies", Bat::with_props(head, tail, props));
    }
    // Customer.orders: index [order_oid, customer_oid] + self-reference.
    {
        let head = Column::from_oids(data.orders.iter().map(|o| o.oid).collect());
        let tail = Column::from_oids(data.orders.iter().map(|o| o.cust).collect());
        let props = Props::new(ColProps::DENSE, tail_props(&tail));
        db.register("Customer_orders", Bat::with_props(head.clone(), tail, props));
        db.register(
            "Customer_orders_ref",
            Bat::with_props(head.clone(), head, Props::new(ColProps::DENSE, ColProps::DENSE)),
        );
    }
    // Order.items: index [item_oid, order_oid] + self-reference.
    {
        let head = Column::from_oids(data.items.iter().map(|i| i.oid).collect());
        let tail = Column::from_oids(data.items.iter().map(|i| i.order).collect());
        let props = Props::new(ColProps::DENSE, tail_props(&tail));
        db.register("Order_items", Bat::with_props(head.clone(), tail, props));
        db.register(
            "Order_items_ref",
            Bat::with_props(head.clone(), head, Props::new(ColProps::DENSE, ColProps::DENSE)),
        );
    }
    report.reorder_ms = t2.elapsed().as_secs_f64() * 1e3;
    report.base_bytes = db.bytes();
    report.bat_count = db.len();

    (Catalog::new(tpcd_schema(), db), report)
}

/// Load the generated data into the n-ary baseline store, with inverted
/// lists on the selection attributes the TPC-D queries use.
///
/// Panics on a malformed world; use [`try_load_rowstore`] when the data
/// does not come straight from [`crate::gen::generate`].
pub fn load_rowstore(data: &TpcdData) -> RelDb {
    try_load_rowstore(data).unwrap_or_else(|e| panic!("{e}"))
}

/// Validate the world (see [`validate`]) and load the n-ary baseline.
pub fn try_load_rowstore(data: &TpcdData) -> crate::error::Result<RelDb> {
    validate(data)?;
    Ok(load_rowstore_unchecked(data))
}

fn load_rowstore_unchecked(data: &TpcdData) -> RelDb {
    let mut db = RelDb::new();

    db.add_table(Table::new(
        "region",
        vec![
            ("oid".into(), Column::from_oids(data.regions.iter().map(|r| r.oid).collect())),
            ("name".into(), str_col(data.regions.iter().map(|r| r.name.as_str()), false)),
        ],
    ));
    db.add_table(Table::new(
        "nation",
        vec![
            ("oid".into(), Column::from_oids(data.nations.iter().map(|n| n.oid).collect())),
            ("name".into(), str_col(data.nations.iter().map(|n| n.name.as_str()), false)),
            ("region".into(), Column::from_oids(data.nations.iter().map(|n| n.region).collect())),
        ],
    ));
    db.add_table(Table::new(
        "part",
        vec![
            ("oid".into(), Column::from_oids(data.parts.iter().map(|p| p.oid).collect())),
            ("name".into(), str_col(data.parts.iter().map(|p| p.name.as_str()), true)),
            (
                "manufacturer".into(),
                str_col(data.parts.iter().map(|p| p.manufacturer.as_str()), true),
            ),
            ("brand".into(), str_col(data.parts.iter().map(|p| p.brand.as_str()), true)),
            ("type".into(), str_col(data.parts.iter().map(|p| p.typ.as_str()), true)),
            ("size".into(), Column::from_ints(data.parts.iter().map(|p| p.size).collect())),
            ("container".into(), str_col(data.parts.iter().map(|p| p.container.as_str()), true)),
            (
                "retailprice".into(),
                Column::from_dbls(data.parts.iter().map(|p| p.retailprice).collect()),
            ),
        ],
    ));
    db.add_table(Table::new(
        "supplier",
        vec![
            ("oid".into(), Column::from_oids(data.suppliers.iter().map(|s| s.oid).collect())),
            ("name".into(), str_col(data.suppliers.iter().map(|s| s.name.as_str()), false)),
            ("address".into(), str_col(data.suppliers.iter().map(|s| s.address.as_str()), false)),
            ("phone".into(), str_col(data.suppliers.iter().map(|s| s.phone.as_str()), false)),
            (
                "acctbal".into(),
                Column::from_dbls(data.suppliers.iter().map(|s| s.acctbal).collect()),
            ),
            ("nation".into(), Column::from_oids(data.suppliers.iter().map(|s| s.nation).collect())),
        ],
    ));
    db.add_table(Table::new(
        "partsupp",
        vec![
            ("oid".into(), Column::from_oids(data.supplies.iter().map(|s| s.oid).collect())),
            (
                "supplier".into(),
                Column::from_oids(data.supplies.iter().map(|s| s.supplier).collect()),
            ),
            ("part".into(), Column::from_oids(data.supplies.iter().map(|s| s.part).collect())),
            ("cost".into(), Column::from_dbls(data.supplies.iter().map(|s| s.cost).collect())),
            (
                "available".into(),
                Column::from_ints(data.supplies.iter().map(|s| s.available).collect()),
            ),
        ],
    ));
    db.add_table(Table::new(
        "customer",
        vec![
            ("oid".into(), Column::from_oids(data.customers.iter().map(|c| c.oid).collect())),
            ("name".into(), str_col(data.customers.iter().map(|c| c.name.as_str()), false)),
            ("address".into(), str_col(data.customers.iter().map(|c| c.address.as_str()), false)),
            ("phone".into(), str_col(data.customers.iter().map(|c| c.phone.as_str()), false)),
            (
                "acctbal".into(),
                Column::from_dbls(data.customers.iter().map(|c| c.acctbal).collect()),
            ),
            ("nation".into(), Column::from_oids(data.customers.iter().map(|c| c.nation).collect())),
            (
                "mktsegment".into(),
                str_col(data.customers.iter().map(|c| c.mktsegment.as_str()), true),
            ),
        ],
    ));
    db.add_table(Table::new(
        "orders",
        vec![
            ("oid".into(), Column::from_oids(data.orders.iter().map(|o| o.oid).collect())),
            ("cust".into(), Column::from_oids(data.orders.iter().map(|o| o.cust).collect())),
            ("status".into(), Column::from_chrs(data.orders.iter().map(|o| o.status).collect())),
            (
                "totalprice".into(),
                Column::from_dbls(data.orders.iter().map(|o| o.totalprice).collect()),
            ),
            (
                "orderdate".into(),
                Column::from_dates(data.orders.iter().map(|o| o.orderdate).collect()),
            ),
            (
                "orderpriority".into(),
                str_col(data.orders.iter().map(|o| o.orderpriority.as_str()), true),
            ),
            ("clerk".into(), str_col(data.orders.iter().map(|o| o.clerk.as_str()), true)),
            (
                "shippriority".into(),
                str_col(data.orders.iter().map(|o| o.shippriority.as_str()), true),
            ),
        ],
    ));
    db.add_table(Table::new(
        "lineitem",
        vec![
            ("oid".into(), Column::from_oids(data.items.iter().map(|i| i.oid).collect())),
            ("part".into(), Column::from_oids(data.items.iter().map(|i| i.part).collect())),
            ("supplier".into(), Column::from_oids(data.items.iter().map(|i| i.supplier).collect())),
            ("order".into(), Column::from_oids(data.items.iter().map(|i| i.order).collect())),
            ("quantity".into(), Column::from_ints(data.items.iter().map(|i| i.quantity).collect())),
            (
                "returnflag".into(),
                Column::from_chrs(data.items.iter().map(|i| i.returnflag).collect()),
            ),
            (
                "linestatus".into(),
                Column::from_chrs(data.items.iter().map(|i| i.linestatus).collect()),
            ),
            (
                "extendedprice".into(),
                Column::from_dbls(data.items.iter().map(|i| i.extendedprice).collect()),
            ),
            ("discount".into(), Column::from_dbls(data.items.iter().map(|i| i.discount).collect())),
            ("tax".into(), Column::from_dbls(data.items.iter().map(|i| i.tax).collect())),
            (
                "shipdate".into(),
                Column::from_dates(data.items.iter().map(|i| i.shipdate).collect()),
            ),
            (
                "commitdate".into(),
                Column::from_dates(data.items.iter().map(|i| i.commitdate).collect()),
            ),
            (
                "receiptdate".into(),
                Column::from_dates(data.items.iter().map(|i| i.receiptdate).collect()),
            ),
            ("shipmode".into(), str_col(data.items.iter().map(|i| i.shipmode.as_str()), true)),
            (
                "shipinstruct".into(),
                str_col(data.items.iter().map(|i| i.shipinstruct.as_str()), true),
            ),
        ],
    ));

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
    db
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
            matches!(err, TpcdError::Malformed { table: "Order", .. }),
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
            matches!(err, TpcdError::Malformed { table: "Item", .. }),
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
            matches!(err, TpcdError::Malformed { table: "Supplier_supplies", .. }),
            "expected an owner-sort violation, got {err}"
        );
    }

    #[test]
    fn empty_world_is_rejected() {
        let mut data = small();
        data.orders.clear();
        let err = try_load_bats(&data).err().expect("load must fail");
        assert!(matches!(err, TpcdError::Malformed { table: "Order", .. }), "got {err}");
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
