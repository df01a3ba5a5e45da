//! Small hand-built databases for tests, examples and benchmarks.
//!
//! The fixture is a miniature of the TPC-D shape (Figure 1): `Item`
//! navigates to `Order`, `Supplier` owns a nested `supplies` set of
//! tuples referencing `Part`.

use monet::atom::{AtomType, Date};
use monet::bat::Bat;
use monet::column::Column;
use monet::db::Db;

use crate::catalog::Catalog;
use crate::types::{ClassDef, Field, MoaType, Schema};

/// Build the mini catalog:
///
/// * 2 orders (oids 1, 2) with clerks `c1`, `c2` and dates in 1995/1996;
/// * 4 items (oids 10–13) referencing them, with prices, discounts, flags;
/// * 2 suppliers (oids 20, 21); supplier 20 supplies parts 30, 31 (one out
///   of stock), supplier 21 supplies nothing;
/// * 2 parts (oids 30, 31).
pub fn mini_catalog() -> Catalog {
    let mut schema = Schema::new();
    schema.add_class(ClassDef::new(
        "Order",
        vec![
            Field::new("clerk", MoaType::Base(AtomType::Str)),
            Field::new("orderdate", MoaType::Base(AtomType::Date)),
        ],
    ));
    schema.add_class(ClassDef::new(
        "Item",
        vec![
            Field::new("order", MoaType::Object("Order".into())),
            Field::new("extendedprice", MoaType::Base(AtomType::Dbl)),
            Field::new("discount", MoaType::Base(AtomType::Dbl)),
            Field::new("returnflag", MoaType::Base(AtomType::Chr)),
        ],
    ));
    schema.add_class(ClassDef::new("Part", vec![Field::new("name", MoaType::Base(AtomType::Str))]));
    schema.add_class(ClassDef::new(
        "Supplier",
        vec![
            Field::new("name", MoaType::Base(AtomType::Str)),
            Field::new(
                "supplies",
                MoaType::set_of(MoaType::Tuple(vec![
                    Field::new("part", MoaType::Object("Part".into())),
                    Field::new("cost", MoaType::Base(AtomType::Dbl)),
                    Field::new("available", MoaType::Base(AtomType::Int)),
                ])),
            ),
        ],
    ));

    let mut db = Db::new();
    let reg = |db: &mut Db, name: &str, head: Vec<u64>, tail: Column| {
        let h = Column::from_oids(head);
        db.register(name, Bat::with_inferred_props(h, tail));
    };

    db.register(
        "Order",
        Bat::with_inferred_props(Column::from_oids(vec![1, 2]), Column::void(0, 2)),
    );
    reg(&mut db, "Order_clerk", vec![1, 2], Column::from_strs(["c1", "c2"]));
    reg(
        &mut db,
        "Order_orderdate",
        vec![1, 2],
        Column::from_dates(vec![Date::from_ymd(1995, 3, 5), Date::from_ymd(1996, 7, 9)]),
    );

    db.register(
        "Item",
        Bat::with_inferred_props(Column::from_oids(vec![10, 11, 12, 13]), Column::void(0, 4)),
    );
    reg(&mut db, "Item_order", vec![10, 11, 12, 13], Column::from_oids(vec![1, 1, 2, 2]));
    reg(
        &mut db,
        "Item_extendedprice",
        vec![10, 11, 12, 13],
        Column::from_dbls(vec![100.0, 200.0, 300.0, 400.0]),
    );
    reg(
        &mut db,
        "Item_discount",
        vec![10, 11, 12, 13],
        Column::from_dbls(vec![0.1, 0.0, 0.05, 0.2]),
    );
    reg(
        &mut db,
        "Item_returnflag",
        vec![10, 11, 12, 13],
        Column::from_chrs(vec![b'R', b'N', b'R', b'R']),
    );

    db.register(
        "Part",
        Bat::with_inferred_props(Column::from_oids(vec![30, 31]), Column::void(0, 2)),
    );
    reg(&mut db, "Part_name", vec![30, 31], Column::from_strs(["bolt", "nut"]));

    db.register(
        "Supplier",
        Bat::with_inferred_props(Column::from_oids(vec![20, 21]), Column::void(0, 2)),
    );
    reg(&mut db, "Supplier_name", vec![20, 21], Column::from_strs(["S20", "S21"]));
    // supplies index: [supply_id, supplier_oid]
    reg(&mut db, "Supplier_supplies", vec![100, 101], Column::from_oids(vec![20, 20]));
    reg(&mut db, "Supplier_supplies_part", vec![100, 101], Column::from_oids(vec![30, 31]));
    reg(&mut db, "Supplier_supplies_cost", vec![100, 101], Column::from_dbls(vec![1.5, 2.5]));
    reg(&mut db, "Supplier_supplies_available", vec![100, 101], Column::from_ints(vec![0, 9]));

    Catalog::new(schema, db)
}

/// Build a catalog whose references chain three deep, for selections whose
/// conjuncts navigate through shared reference prefixes:
///
/// * 2 regions (oids 40, 41) and 3 nations (50–52) in them;
/// * 4 customers (60–63) with a segment, a balance and a nation;
/// * 6 orders (1–6) with a date, a priority, a customer and a ship-to
///   nation — two references out of `Order`;
/// * 12 items (10–21) referencing the orders, with prices and flags. The
///   `Item` extent lists them out of oid order, so a selection's result
///   order is the extent's, not the attribute BATs'.
pub fn nav_catalog() -> Catalog {
    let mut schema = Schema::new();
    schema
        .add_class(ClassDef::new("Region", vec![Field::new("name", MoaType::Base(AtomType::Str))]));
    schema.add_class(ClassDef::new(
        "Nation",
        vec![
            Field::new("name", MoaType::Base(AtomType::Str)),
            Field::new("region", MoaType::Object("Region".into())),
        ],
    ));
    schema.add_class(ClassDef::new(
        "Customer",
        vec![
            Field::new("segment", MoaType::Base(AtomType::Str)),
            Field::new("acctbal", MoaType::Base(AtomType::Dbl)),
            Field::new("nation", MoaType::Object("Nation".into())),
        ],
    ));
    schema.add_class(ClassDef::new(
        "Order",
        vec![
            Field::new("orderdate", MoaType::Base(AtomType::Date)),
            Field::new("priority", MoaType::Base(AtomType::Int)),
            Field::new("cust", MoaType::Object("Customer".into())),
            Field::new("ship", MoaType::Object("Nation".into())),
        ],
    ));
    schema.add_class(ClassDef::new(
        "Item",
        vec![
            Field::new("order", MoaType::Object("Order".into())),
            Field::new("price", MoaType::Base(AtomType::Dbl)),
            Field::new("flag", MoaType::Base(AtomType::Chr)),
        ],
    ));

    let mut db = Db::new();
    let reg = |db: &mut Db, name: &str, head: Vec<u64>, tail: Column| {
        db.register(name, Bat::with_inferred_props(Column::from_oids(head), tail));
    };
    let extent = |db: &mut Db, name: &str, oids: Vec<u64>| {
        let n = oids.len();
        db.register(name, Bat::with_inferred_props(Column::from_oids(oids), Column::void(0, n)));
    };

    extent(&mut db, "Region", vec![40, 41]);
    reg(&mut db, "Region_name", vec![40, 41], Column::from_strs(["EAST", "WEST"]));

    let nations = vec![50, 51, 52];
    extent(&mut db, "Nation", nations.clone());
    reg(&mut db, "Nation_name", nations.clone(), Column::from_strs(["N0", "N1", "N2"]));
    reg(&mut db, "Nation_region", nations, Column::from_oids(vec![40, 40, 41]));

    let custs = vec![60, 61, 62, 63];
    extent(&mut db, "Customer", custs.clone());
    reg(&mut db, "Customer_segment", custs.clone(), Column::from_strs(["B", "M", "B", "A"]));
    reg(
        &mut db,
        "Customer_acctbal",
        custs.clone(),
        Column::from_dbls(vec![50.0, 150.0, 250.0, 350.0]),
    );
    reg(&mut db, "Customer_nation", custs, Column::from_oids(vec![50, 51, 52, 50]));

    let orders = vec![1, 2, 3, 4, 5, 6];
    extent(&mut db, "Order", orders.clone());
    let dates =
        [(1994, 1, 10), (1994, 6, 1), (1995, 2, 2), (1995, 8, 8), (1996, 3, 3), (1996, 11, 11)];
    let dates = dates.into_iter().map(|(y, m, d)| Date::from_ymd(y, m, d)).collect();
    reg(&mut db, "Order_orderdate", orders.clone(), Column::from_dates(dates));
    reg(&mut db, "Order_priority", orders.clone(), Column::from_ints(vec![1, 2, 3, 1, 2, 3]));
    reg(&mut db, "Order_cust", orders.clone(), Column::from_oids(vec![60, 61, 62, 63, 60, 62]));
    reg(&mut db, "Order_ship", orders, Column::from_oids(vec![50, 51, 52, 52, 51, 50]));

    extent(&mut db, "Item", vec![13, 10, 21, 12, 11, 15, 14, 20, 16, 19, 17, 18]);
    let items: Vec<u64> = (10..22).collect();
    let order = vec![1, 1, 2, 3, 3, 3, 4, 5, 5, 6, 6, 2];
    reg(&mut db, "Item_order", items.clone(), Column::from_oids(order));
    let prices = (1..=12).map(|i| 100.0 * i as f64).collect();
    reg(&mut db, "Item_price", items.clone(), Column::from_dbls(prices));
    let flags = b"RNRARNRRNRAR".to_vec();
    reg(&mut db, "Item_flag", items, Column::from_chrs(flags));

    Catalog::new(schema, db)
}

/// Compare the reference-evaluated and translated+executed results of a
/// MOA expression on the given catalog as order-insensitive value sets.
/// Panics with a readable message on mismatch.
pub fn assert_commutes(cat: &Catalog, q: &crate::algebra::SetExpr) {
    use crate::value::Value;
    let reference = crate::eval::Evaluator::new(cat)
        .eval_values(q)
        .unwrap_or_else(|e| panic!("reference eval failed for {}: {e}", q.render()));
    let translated = crate::translate::translate(cat, q)
        .unwrap_or_else(|e| panic!("translation failed for {}: {e}", q.render()));
    let ctx = monet::ctx::ExecCtx::new();
    let (set, _env) = translated
        .run(&ctx, cat.db())
        .unwrap_or_else(|e| panic!("execution failed for {}: {e}", q.render()));
    let got = set
        .materialize()
        .unwrap_or_else(|e| panic!("materialization failed for {}: {e}", q.render()));
    let lhs = Value::Set(reference);
    let rhs = Value::Set(got);
    assert!(
        lhs.approx_eq(&rhs, 1e-9),
        "commutativity violated for {}:\n  reference: {lhs}\n  translated: {rhs}\nMIL:\n{}",
        q.render(),
        translated.prog
    );
}
