//! Figure 6, machine-checked with property testing: for randomly
//! generated databases and a family of MOA expressions, the translated
//! MIL program plus result structure function must produce exactly the
//! value sets the denotational reference evaluator produces —
//! `S_Y(mil(X_1…X_n)) = moa(X)`.

use moa::prelude::*;
use moa::testkit::assert_commutes;
use monet::atom::AtomType;
use monet::bat::Bat;
use monet::column::Column;
use monet::db::Db;
use monet::ops::{AggFunc, ScalarFunc};
use proptest::prelude::*;

/// A random two-class database: orders with clerks/flags, items
/// referencing them with prices.
#[derive(Debug, Clone)]
struct RandomDb {
    clerks: Vec<u8>,     // clerk tag per order (small alphabet)
    item_order: Vec<u8>, // order index per item
    prices: Vec<i32>,    // price per item
    flags: Vec<bool>,    // flag per item
}

fn random_db() -> impl Strategy<Value = RandomDb> {
    (1usize..6, 0usize..24).prop_flat_map(|(n_orders, n_items)| {
        (
            proptest::collection::vec(0u8..4, n_orders),
            proptest::collection::vec(0u8..(n_orders as u8), n_items),
            proptest::collection::vec(-50i32..50, n_items),
            proptest::collection::vec(any::<bool>(), n_items),
        )
            .prop_map(|(clerks, item_order, prices, flags)| RandomDb {
                clerks,
                item_order,
                prices,
                flags,
            })
    })
}

fn build_catalog(r: &RandomDb) -> Catalog {
    let mut schema = Schema::new();
    schema
        .add_class(ClassDef::new("Order", vec![Field::new("clerk", MoaType::Base(AtomType::Str))]));
    schema.add_class(ClassDef::new(
        "Item",
        vec![
            Field::new("order", MoaType::Object("Order".into())),
            Field::new("price", MoaType::Base(AtomType::Int)),
            Field::new("flag", MoaType::Base(AtomType::Bool)),
        ],
    ));
    let order_base = 100u64;
    let item_base = 1000u64;
    let mut db = Db::new();
    db.register(
        "Order",
        Bat::with_inferred_props(
            Column::from_oids((0..r.clerks.len() as u64).map(|i| order_base + i).collect()),
            Column::void(0, r.clerks.len()),
        ),
    );
    db.register(
        "Order_clerk",
        Bat::with_inferred_props(
            Column::from_oids((0..r.clerks.len() as u64).map(|i| order_base + i).collect()),
            Column::from_strs(r.clerks.iter().map(|c| format!("clerk{c}")).collect::<Vec<_>>()),
        ),
    );
    db.register(
        "Item",
        Bat::with_inferred_props(
            Column::from_oids((0..r.item_order.len() as u64).map(|i| item_base + i).collect()),
            Column::void(0, r.item_order.len()),
        ),
    );
    let heads: Vec<u64> = (0..r.item_order.len() as u64).map(|i| item_base + i).collect();
    db.register(
        "Item_order",
        Bat::with_inferred_props(
            Column::from_oids(heads.clone()),
            Column::from_oids(r.item_order.iter().map(|&o| order_base + o as u64).collect()),
        ),
    );
    db.register(
        "Item_price",
        Bat::with_inferred_props(
            Column::from_oids(heads.clone()),
            Column::from_ints(r.prices.clone()),
        ),
    );
    db.register(
        "Item_flag",
        Bat::with_inferred_props(Column::from_oids(heads), Column::from_bools(r.flags.clone())),
    );
    Catalog::new(schema, db)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn select_commutes(r in random_db(), threshold in -50i32..50, clerk in 0u8..4) {
        let cat = build_catalog(&r);
        let q = SetExpr::extent("Item").select(and(
            cmp(ScalarFunc::Ge, attr("price"), lit_i(threshold)),
            eq(attr("order.clerk"), lit_s(&format!("clerk{clerk}"))),
        ));
        assert_commutes(&cat, &q);
    }

    #[test]
    fn project_commutes(r in random_db(), k in -10i32..10) {
        let cat = build_catalog(&r);
        let q = SetExpr::extent("Item").project(vec![
            ProjItem::new("clerk", attr("order.clerk")),
            ProjItem::new("scaled", bin(ScalarFunc::Mul, attr("price"), lit_i(k))),
            ProjItem::new("flag", attr("flag")),
        ]);
        assert_commutes(&cat, &q);
    }

    #[test]
    fn nest_aggregate_commutes(r in random_db()) {
        let cat = build_catalog(&r);
        let q = SetExpr::extent("Item")
            .project(vec![
                ProjItem::new("clerk", attr("order.clerk")),
                ProjItem::new("price", attr("price")),
            ])
            .nest(vec![ProjItem::new("clerk", attr("clerk"))])
            .project(vec![
                ProjItem::new("clerk", attr("clerk")),
                ProjItem::new("total", agg_over(AggFunc::Sum, sattr(NEST_REST), attr("price"))),
                ProjItem::new("n", agg(AggFunc::Count, sattr(NEST_REST))),
            ]);
        assert_commutes(&cat, &q);
    }

    #[test]
    fn setops_commute(r in random_db(), t1 in -50i32..50, t2 in -50i32..50) {
        let cat = build_catalog(&r);
        let a = SetExpr::extent("Item").select(cmp(ScalarFunc::Ge, attr("price"), lit_i(t1)));
        let b = SetExpr::extent("Item").select(cmp(ScalarFunc::Lt, attr("price"), lit_i(t2)));
        assert_commutes(&cat, &a.clone().union(b.clone()));
        assert_commutes(&cat, &a.clone().diff(b.clone()));
        assert_commutes(&cat, &a.intersect(b));
    }

    #[test]
    fn top_commutes(r in random_db(), n in 1usize..8) {
        // Ties in prices make top-k ambiguous; deduplicate by filtering to
        // a strict subset via distinct prices is overkill — instead only
        // check cardinality-stable behaviour through commutativity when
        // prices are distinct.
        let mut seen = std::collections::HashSet::new();
        if !r.prices.iter().all(|p| seen.insert(*p)) {
            return Ok(());
        }
        let cat = build_catalog(&r);
        assert_commutes(&cat, &SetExpr::extent("Item").top(attr("price"), n, true));
        assert_commutes(&cat, &SetExpr::extent("Item").top(attr("price"), n, false));
    }

    #[test]
    fn boolean_predicates_commute(r in random_db(), t in -50i32..50) {
        let cat = build_catalog(&r);
        let q = SetExpr::extent("Item").select(or(
            and(
                eq(attr("flag"), lit(monet::atom::AtomValue::Bool(true))),
                cmp(ScalarFunc::Lt, attr("price"), lit_i(t)),
            ),
            not(eq(attr("flag"), lit(monet::atom::AtomValue::Bool(true)))),
        ));
        assert_commutes(&cat, &q);
    }

    #[test]
    fn range_conjunctions_commute(
        r in random_db(),
        lo in -50i32..50,
        hi in -50i32..50,
        inclusive in 0u8..4,
        clerk in 0u8..4,
    ) {
        let cat = build_catalog(&r);
        let (lo_op, hi_op) = match inclusive {
            0 => (ScalarFunc::Ge, ScalarFunc::Lt),
            1 => (ScalarFunc::Gt, ScalarFunc::Le),
            2 => (ScalarFunc::Ge, ScalarFunc::Le),
            _ => (ScalarFunc::Gt, ScalarFunc::Lt),
        };
        let lower = || cmp(lo_op, attr("price"), lit_i(lo));
        let upper = || cmp(hi_op, attr("price"), lit_i(hi));
        // One select per range: lower bound first or second, alone or over
        // an earlier conjunct's candidates, empty when `lo > hi`.
        for pred in [
            and(lower(), upper()),
            and(upper(), lower()),
            and(eq(attr("order.clerk"), lit_s(&format!("clerk{clerk}"))), and(lower(), upper())),
        ] {
            assert_commutes(&cat, &SetExpr::extent("Item").select(pred));
        }
    }

    #[test]
    fn same_attribute_ors_commute(r in random_db(), a in -50i32..50, b in -50i32..50) {
        let cat = build_catalog(&r);
        let price = || attr("price");
        // One semijoin of the index over the `concat` of both selects,
        // overlapping or not, alone or under a conjunct.
        for pred in [
            or(cmp(ScalarFunc::Lt, price(), lit_i(a)), cmp(ScalarFunc::Ge, price(), lit_i(b))),
            or(eq(price(), lit_i(a)), cmp(ScalarFunc::Le, lit_i(b), price())),
            and(
                eq(attr("flag"), lit(monet::atom::AtomValue::Bool(true))),
                or(eq(price(), lit_i(a)), eq(price(), lit_i(b))),
            ),
        ] {
            assert_commutes(&cat, &SetExpr::extent("Item").select(pred));
        }
    }

    #[test]
    fn join_semijoin_commute(r in random_db(), clerk in 0u8..4, t in -50i32..50) {
        let cat = build_catalog(&r);
        let q = SetExpr::extent("Order").semijoin_eq(
            SetExpr::extent("Item"),
            this(),
            attr("order"),
        );
        assert_commutes(&cat, &q);
        // A selected left and a selected right: the right's predicate runs
        // over the left's partners only (the semijoin reduction), including
        // orders without items and selections that keep nothing.
        let q = SetExpr::extent("Order")
            .select(eq(attr("clerk"), lit_s(&format!("clerk{clerk}"))))
            .semijoin_eq(
                SetExpr::extent("Item").select(and(
                    eq(attr("flag"), lit(monet::atom::AtomValue::Bool(true))),
                    cmp(ScalarFunc::Ge, attr("price"), lit_i(t)),
                )),
                this(),
                attr("order"),
            );
        assert_commutes(&cat, &q);
        let j = SetExpr::extent("Item")
            .project(vec![ProjItem::new("clerk", attr("order.clerk"))])
            .join_eq(
                SetExpr::extent("Order").project(vec![ProjItem::new("clerk", attr("clerk"))]),
                attr("clerk"),
                attr("clerk"),
                "l",
                "r",
            );
        assert_commutes(&cat, &j);
    }
}

/// An `or` whose branches test different attributes has qualifiers of
/// different tail types (`bit` and `int`), which one `concat` of the two
/// selects would reject: it keeps a semijoin of the index per branch.
#[test]
fn an_or_over_two_attributes_keeps_its_emission() {
    let r = RandomDb {
        clerks: vec![0, 1, 2],
        item_order: vec![0, 1, 2, 0, 1],
        prices: vec![5, 20, -3, 11, 10],
        flags: vec![true, false, true, false, false],
    };
    let cat = build_catalog(&r);
    let q = SetExpr::extent("Item").select(or(
        eq(attr("flag"), lit(monet::atom::AtomValue::Bool(true))),
        cmp(ScalarFunc::Lt, attr("price"), lit_i(11)),
    ));
    assert_commutes(&cat, &q);
    let raw = translate_with(&cat, &q, OptLevel::Off).unwrap().prog.to_string();
    assert_eq!(
        raw,
        "Item := load(\"Item\")
Item_flag := load(\"Item_flag\")
tmp2 := select(Item_flag, true)
Item_price := load(\"Item_price\")
tmp4 := select(Item_price, [-inf, 11))
tmp5 := semijoin(Item, tmp2)
tmp6 := semijoin(Item, tmp4)
tmp7 := concat(tmp5, tmp6)
tmp8 := semijoin(Item, tmp7)
selected := semijoin(Item, tmp8)
tmp10 := selected.mirror
tmp11 := zip(tmp10, tmp10)
"
    );
}
