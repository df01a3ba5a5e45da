//! Translator correctness: for every MOA operation, the translated MIL
//! program plus result structure function must agree with the reference
//! evaluator — the Figure 6 commutativity, checked operation by operation
//! on the mini fixture.

use moa::prelude::*;
use moa::testkit::{assert_commutes, mini_catalog, nav_catalog};
use monet::atom::AtomValue;
use monet::ctx::ExecCtx;
use monet::ops::{AggFunc, ScalarFunc};

#[test]
fn extent() {
    let cat = mini_catalog();
    assert_commutes(&cat, &SetExpr::extent("Item"));
    assert_commutes(&cat, &SetExpr::extent("Supplier"));
}

#[test]
fn select_point_on_attribute() {
    let cat = mini_catalog();
    let q = SetExpr::extent("Item").select(eq(attr("returnflag"), lit_c('R')));
    assert_commutes(&cat, &q);
}

#[test]
fn select_range() {
    let cat = mini_catalog();
    let q =
        SetExpr::extent("Item").select(cmp(ScalarFunc::Ge, attr("extendedprice"), lit_d(200.0)));
    assert_commutes(&cat, &q);
    let q2 =
        SetExpr::extent("Item").select(cmp(ScalarFunc::Lt, attr("extendedprice"), lit_d(200.0)));
    assert_commutes(&cat, &q2);
}

#[test]
fn select_through_navigation() {
    let cat = mini_catalog();
    let q = SetExpr::extent("Item").select(eq(attr("order.clerk"), lit_s("c2")));
    assert_commutes(&cat, &q);
}

#[test]
fn select_conjunction_chains_semijoins() {
    let cat = mini_catalog();
    let q = SetExpr::extent("Item")
        .select(and(eq(attr("order.clerk"), lit_s("c1")), eq(attr("returnflag"), lit_c('R'))));
    assert_commutes(&cat, &q);
    // The raw emission shows the Figure-10 shape: select on the clerk
    // BAT, join back through Item_order, then a semijoin before the flag
    // select.
    let t = translate_with(&cat, &q, OptLevel::Off).unwrap();
    let text = t.prog.to_string();
    assert!(text.contains("select(Order_clerk"), "got:\n{text}");
    assert!(text.contains("join(Item_order"), "got:\n{text}");
    assert!(text.contains("semijoin(Item_returnflag"), "got:\n{text}");
    // The plan optimizer keeps that shape: it has no select-pushdown rule.
    let t = translate_with(&cat, &q, OptLevel::Full).unwrap();
    let text = t.prog.to_string();
    assert!(text.contains("semijoin(Item_returnflag"), "got:\n{text}");
}

/// Figure 10, lines 3–4: the single-hop conjunct `returnflag = 'R'` after
/// the clerk conjunct restricts the attribute BAT to the candidates and
/// selects on the result. With a datavector on `Item_returnflag` (as the
/// TPC-D loader attaches one) the optimized plan keeps
/// `select(semijoin(attr, cand))`, and the semijoin takes the datavector
/// arm — whose right-operand output order is why no rule may move the
/// select below it.
#[test]
fn figure10_single_hop_conjunct_keeps_the_datavector_semijoin() {
    use monet::accel::datavector::Datavector;
    use monet::bat::Bat;
    use monet::column::Column;
    use monet::mil::MilOp;
    // The flags reordered on tail, as the TPC-D loader stores attributes.
    let mut flags = Bat::with_inferred_props(
        Column::from_oids(vec![11, 10, 12, 13]),
        Column::from_chrs(vec![b'N', b'R', b'R', b'R']),
    );
    flags.set_datavector(std::sync::Arc::new(Datavector::from_unordered(&flags)));
    let mut cat = mini_catalog();
    cat.db_mut().register("Item_returnflag", flags);
    let q = SetExpr::extent("Item")
        .select(and(eq(attr("order.clerk"), lit_s("c1")), eq(attr("returnflag"), lit_c('R'))));
    assert_commutes(&cat, &q);
    let t = translate_with(&cat, &q, OptLevel::Full).unwrap();
    let prog = &t.prog;
    let flags =
        prog.stmts.iter().position(|s| matches!(&s.op, MilOp::Load(n) if n == "Item_returnflag"));
    let sj = prog
        .stmts
        .iter()
        .position(|s| matches!(s.op, MilOp::Semijoin(a, _) if Some(a) == flags))
        .unwrap_or_else(|| panic!("no semijoin(Item_returnflag, cand):\n{}", prog));
    assert!(
        prog.stmts.iter().any(|s| matches!(s.op, MilOp::SelectEq(v, _) if v == sj)),
        "the flag select must read the semijoin:\n{}",
        prog
    );
    let (_, env) = t.run(&ExecCtx::new(), cat.db()).unwrap();
    assert_eq!(env.trace()[sj].algo, "datavector", "got:\n{}", prog);
}

#[test]
fn select_disjunction_and_negation() {
    let cat = mini_catalog();
    let q = SetExpr::extent("Item").select(or(
        eq(attr("returnflag"), lit_c('N')),
        cmp(ScalarFunc::Gt, attr("extendedprice"), lit_d(350.0)),
    ));
    assert_commutes(&cat, &q);
    let q2 = SetExpr::extent("Item").select(not(eq(attr("returnflag"), lit_c('R'))));
    assert_commutes(&cat, &q2);
}

#[test]
fn select_general_expression_predicate() {
    let cat = mini_catalog();
    // price * (1 - discount) > 250 — no pushdown possible, multiplexed.
    let q = SetExpr::extent("Item").select(cmp(
        ScalarFunc::Gt,
        bin(
            ScalarFunc::Mul,
            attr("extendedprice"),
            bin(ScalarFunc::Sub, lit_d(1.0), attr("discount")),
        ),
        lit_d(250.0),
    ));
    assert_commutes(&cat, &q);
}

#[test]
fn project_scalars_refs_and_arith() {
    let cat = mini_catalog();
    let q = SetExpr::extent("Item").project(vec![
        ProjItem::new("price", attr("extendedprice")),
        ProjItem::new("ord", attr("order")),
        ProjItem::new("clerk", attr("order.clerk")),
        ProjItem::new(
            "revenue",
            bin(
                ScalarFunc::Mul,
                attr("extendedprice"),
                bin(ScalarFunc::Sub, lit_d(1.0), attr("discount")),
            ),
        ),
    ]);
    assert_commutes(&cat, &q);
}

#[test]
fn project_year_multiplex() {
    let cat = mini_catalog();
    let q = SetExpr::extent("Item")
        .project(vec![ProjItem::new("year", un(ScalarFunc::Year, attr("order.orderdate")))]);
    assert_commutes(&cat, &q);
}

#[test]
fn nest_single_key() {
    let cat = mini_catalog();
    let q = SetExpr::extent("Item")
        .project(vec![
            ProjItem::new("clerk", attr("order.clerk")),
            ProjItem::new("price", attr("extendedprice")),
        ])
        .nest(vec![ProjItem::new("clerk", attr("clerk"))]);
    assert_commutes(&cat, &q);
}

#[test]
fn nest_multi_key() {
    let cat = mini_catalog();
    let q = SetExpr::extent("Item")
        .project(vec![
            ProjItem::new("clerk", attr("order.clerk")),
            ProjItem::new("flag", attr("returnflag")),
            ProjItem::new("price", attr("extendedprice")),
        ])
        .nest(vec![ProjItem::new("clerk", attr("clerk")), ProjItem::new("flag", attr("flag"))]);
    assert_commutes(&cat, &q);
}

#[test]
fn nest_then_aggregate() {
    let cat = mini_catalog();
    let q = SetExpr::extent("Item")
        .project(vec![
            ProjItem::new("clerk", attr("order.clerk")),
            ProjItem::new("price", attr("extendedprice")),
        ])
        .nest(vec![ProjItem::new("clerk", attr("clerk"))])
        .project(vec![
            ProjItem::new("clerk", attr("clerk")),
            ProjItem::new("total", agg_over(AggFunc::Sum, sattr(NEST_REST), attr("price"))),
            ProjItem::new("n", agg(AggFunc::Count, sattr(NEST_REST))),
            ProjItem::new("hi", agg_over(AggFunc::Max, sattr(NEST_REST), attr("price"))),
            ProjItem::new("lo", agg_over(AggFunc::Min, sattr(NEST_REST), attr("price"))),
            ProjItem::new("avg", agg_over(AggFunc::Avg, sattr(NEST_REST), attr("price"))),
        ]);
    assert_commutes(&cat, &q);
}

/// The paper's Q13 on the mini database, end to end.
#[test]
fn q13_shape() {
    let cat = mini_catalog();
    let q = SetExpr::extent("Item")
        .select(and(eq(attr("order.clerk"), lit_s("c1")), eq(attr("returnflag"), lit_c('R'))))
        .project(vec![
            ProjItem::new("date", un(ScalarFunc::Year, attr("order.orderdate"))),
            ProjItem::new(
                "revenue",
                bin(
                    ScalarFunc::Mul,
                    attr("extendedprice"),
                    bin(ScalarFunc::Sub, lit_d(1.0), attr("discount")),
                ),
            ),
        ])
        .nest(vec![ProjItem::new("date", attr("date"))])
        .project(vec![
            ProjItem::new("date", attr("date")),
            ProjItem::new("loss", agg_over(AggFunc::Sum, sattr(NEST_REST), attr("revenue"))),
        ]);
    assert_commutes(&cat, &q);
    // Check the actual numbers: clerk c1 has items 10 ('R', 100, 0.1) and
    // 11 ('N'), so the loss in 1995 is 90.
    let t = translate(&cat, &q).unwrap();
    let (set, _) = t.run(&ExecCtx::new(), cat.db()).unwrap();
    let vals = set.materialize().unwrap();
    assert_eq!(vals.len(), 1);
    assert!(vals[0].approx_eq(
        &Value::Tuple(vec![Value::Atom(AtomValue::Int(1995)), Value::Atom(AtomValue::Dbl(90.0)),]),
        1e-9,
    ));
}

/// §4.3.2: selection over a nested set, executed flat.
#[test]
fn nested_set_selection_out_of_stock() {
    let cat = mini_catalog();
    let q = SetExpr::extent("Supplier").project(vec![
        ProjItem::new("name", attr("name")),
        ProjItem::new(
            "out_of_stock",
            Expr::SetV(SetValued::SelectIn(
                Box::new(sattr("supplies")),
                Box::new(eq(attr("available"), lit_i(0))),
            )),
        ),
    ]);
    assert_commutes(&cat, &q);
    // S20 has one out-of-stock supply; S21 has none (empty set).
    let t = translate(&cat, &q).unwrap();
    let (set, _) = t.run(&ExecCtx::new(), cat.db()).unwrap();
    let vals = set.materialize().unwrap();
    assert_eq!(vals.len(), 2);
}

#[test]
fn nested_set_projection_and_aggregate() {
    let cat = mini_catalog();
    let q = SetExpr::extent("Supplier").project(vec![
        ProjItem::new("name", attr("name")),
        ProjItem::new("total_cost", agg_over(AggFunc::Sum, sattr("supplies"), attr("cost"))),
    ]);
    // Caveat (documented in translate.rs): suppliers with no supplies get
    // no aggregate BUN, so the tuple is not representable for them. Select
    // the suppliers that do supply first.
    let q = match q {
        SetExpr::Project { input, items } => SetExpr::Project {
            input: Box::new(input.select(cmp(
                ScalarFunc::Gt,
                agg(AggFunc::Count, sattr("supplies")),
                lit(AtomValue::Lng(0)),
            ))),
            items,
        },
        _ => unreachable!(),
    };
    assert_commutes(&cat, &q);
}

#[test]
fn union_diff_intersect() {
    let cat = mini_catalog();
    let flagged = SetExpr::extent("Item").select(eq(attr("returnflag"), lit_c('R')));
    let pricey =
        SetExpr::extent("Item").select(cmp(ScalarFunc::Ge, attr("extendedprice"), lit_d(300.0)));
    assert_commutes(&cat, &flagged.clone().union(pricey.clone()));
    assert_commutes(&cat, &flagged.clone().diff(pricey.clone()));
    assert_commutes(&cat, &flagged.clone().intersect(pricey.clone()));
    // difference/intersection with self
    assert_commutes(&cat, &flagged.clone().diff(flagged.clone()));
    assert_commutes(&cat, &flagged.clone().intersect(flagged));
}

#[test]
fn top_k() {
    let cat = mini_catalog();
    let q = SetExpr::extent("Item").top(attr("extendedprice"), 2, true);
    assert_commutes(&cat, &q);
    let q2 = SetExpr::extent("Item").top(attr("extendedprice"), 2, false);
    assert_commutes(&cat, &q2);
    // top more than there are
    let q3 = SetExpr::extent("Item").top(attr("extendedprice"), 99, true);
    assert_commutes(&cat, &q3);
}

#[test]
fn join_eq() {
    let cat = mini_catalog();
    // Join items with orders on the order reference = order identity is
    // implicit; join on clerk strings instead to exercise value joins.
    let q = SetExpr::extent("Item")
        .project(vec![
            ProjItem::new("clerk", attr("order.clerk")),
            ProjItem::new("price", attr("extendedprice")),
        ])
        .join_eq(
            SetExpr::extent("Order").project(vec![
                ProjItem::new("clerk", attr("clerk")),
                ProjItem::new("year", un(ScalarFunc::Year, attr("orderdate"))),
            ]),
            attr("clerk"),
            attr("clerk"),
            "i",
            "o",
        );
    assert_commutes(&cat, &q);
}

#[test]
fn semijoin_eq() {
    let cat = mini_catalog();
    let q = SetExpr::extent("Order").semijoin_eq(
        SetExpr::extent("Item").select(eq(attr("returnflag"), lit_c('N'))),
        attr("clerk"),
        attr("order.clerk"),
    );
    assert_commutes(&cat, &q);
}

#[test]
fn unnest_supplies() {
    let cat = mini_catalog();
    let q = SetExpr::extent("Supplier").unnest(sattr("supplies"), "sup", "sp");
    assert_commutes(&cat, &q);
    // Navigate into both sides after unnesting.
    let q2 = SetExpr::extent("Supplier").unnest(sattr("supplies"), "sup", "sp").project(vec![
        ProjItem::new("sname", attr("sup.name")),
        ProjItem::new("pname", attr("sp.part.name")),
        ProjItem::new("cost", attr("sp.cost")),
    ]);
    assert_commutes(&cat, &q2);
}

/// A nest keyed by an object reference keeps the key a reference (Q11
/// nests supplies by `sp.part` this way).
#[test]
fn nest_keyed_by_an_object_reference() {
    let cat = mini_catalog();
    let q = SetExpr::extent("Supplier")
        .unnest(sattr("supplies"), "sup", "sp")
        .nest(vec![ProjItem::new("part", attr("sp.part"))])
        .project(vec![
            ProjItem::new("part", attr("part")),
            ProjItem::new("cost", agg_over(AggFunc::Sum, sattr(NEST_REST), attr("sp.cost"))),
        ]);
    assert_commutes(&cat, &q);
}

#[test]
fn empty_results_are_fine() {
    let cat = mini_catalog();
    let q = SetExpr::extent("Item").select(eq(attr("returnflag"), lit_c('X')));
    assert_commutes(&cat, &q);
    let q2 = SetExpr::extent("Item")
        .select(eq(attr("returnflag"), lit_c('X')))
        .project(vec![ProjItem::new("p", attr("extendedprice"))]);
    assert_commutes(&cat, &q2);
}

#[test]
fn rendered_program_is_printable() {
    let cat = mini_catalog();
    let q = SetExpr::extent("Item").select(eq(attr("order.clerk"), lit_s("c1")));
    let t = translate(&cat, &q).unwrap();
    let text = t.prog.to_string();
    assert!(text.lines().count() >= 3);
    assert!(text.contains(":="));
}

// -- conjuncts that share a reference prefix -----------------------------------

/// `select[pred](Item)`, projected to each item's price and order, must give
/// the reference evaluator's rows in its order both as the raw emission and
/// as the optimized plan; the raw emission joins `Item_order` back
/// `joins_back` times.
fn assert_grouped_selection(pred: Pred, joins_back: usize) -> Translated {
    let cat = nav_catalog();
    let q = SetExpr::extent("Item")
        .select(pred)
        .project(vec![ProjItem::new("price", attr("price")), ProjItem::new("ord", attr("order"))]);
    let want = Evaluator::new(&cat).eval_values(&q).unwrap();
    assert!(!want.is_empty(), "vacuous case {}", q.render());
    let mut raw = None;
    for level in [OptLevel::Off, OptLevel::Full] {
        let t = translate_with(&cat, &q, level).unwrap();
        let (set, _) = t.run(&ExecCtx::new(), cat.db()).unwrap();
        assert_eq!(set.materialize().unwrap(), want, "{} at {level:?}:\n{}", q.render(), t.prog);
        raw.get_or_insert(t);
    }
    let raw = raw.unwrap();
    let text = raw.prog.to_string();
    assert_eq!(text.matches(":= join(Item_order,").count(), joins_back, "{}:\n{text}", q.render());
    raw
}

#[test]
fn conjuncts_under_one_reference_join_back_once() {
    let from = cmp(ScalarFunc::Ge, attr("order.orderdate"), lit_date(1994, 6, 1));
    let to = cmp(ScalarFunc::Lt, attr("order.orderdate"), lit_date(1996, 1, 1));
    assert_grouped_selection(and(from, to), 1);
    assert_grouped_selection(
        and_all(vec![
            cmp(ScalarFunc::Ge, attr("order.priority"), lit_i(2)),
            cmp(ScalarFunc::Gt, attr("order.orderdate"), lit_date(1995, 1, 1)),
            eq(attr("order.cust.segment"), lit_s("B")),
        ]),
        1,
    );
    // One conjunct per reference keeps the per-conjunct walk back.
    assert_grouped_selection(
        and(eq(attr("order.priority"), lit_i(1)), eq(attr("flag"), lit_c('R'))),
        1,
    );
}

#[test]
fn nested_prefixes_regroup_at_the_referenced_class() {
    // a.b.x ∧ a.c.y ∧ a.b.z: `order` groups all three; at `Order`, `cust`
    // groups the first and the third, `ship` stays a single conjunct.
    let t = assert_grouped_selection(
        and_all(vec![
            eq(attr("order.cust.segment"), lit_s("B")),
            eq(attr("order.ship.region.name"), lit_s("EAST")),
            cmp(ScalarFunc::Lt, attr("order.cust.acctbal"), lit_d(200.0)),
        ]),
        1,
    );
    assert_eq!(t.prog.to_string().matches(":= join(Order_cust,").count(), 1, "{}", t.prog);
    assert_grouped_selection(
        and_all(vec![
            eq(attr("order.cust.nation.region.name"), lit_s("EAST")),
            cmp(ScalarFunc::Le, attr("order.orderdate"), lit_date(1996, 6, 30)),
            eq(attr("order.cust.segment"), lit_s("B")),
            cmp(ScalarFunc::Ge, attr("order.cust.nation.region.name"), lit_s("EAST")),
        ]),
        1,
    );
}

#[test]
fn literal_on_the_left_and_parameters_keep_their_slots() {
    let t = assert_grouped_selection(
        and_all(vec![
            cmp(ScalarFunc::Lt, lit_date(1994, 3, 1), attr("order.orderdate")),
            cmp(ScalarFunc::Ge, prm(7, AtomValue::Int(2)), attr("order.priority")),
            eq(prm(8, AtomValue::str("B")), attr("order.cust.segment")),
            cmp(ScalarFunc::Gt, attr("order.cust.acctbal"), prm(9, AtomValue::Dbl(10.0))),
        ]),
        1,
    );
    assert!(t.cacheable);
    let bound: Vec<u32> = t.prog.param_bindings().into_iter().map(|(id, _)| id).collect();
    for id in [7, 8, 9] {
        assert!(bound.contains(&id), "parameter {id} lost its slot: {bound:?}\n{}", t.prog);
    }
}

#[test]
fn single_hop_conjunct_between_grouped_ones() {
    assert_grouped_selection(
        and_all(vec![
            cmp(ScalarFunc::Ge, attr("order.orderdate"), lit_date(1994, 6, 1)),
            eq(attr("flag"), lit_c('R')),
            cmp(ScalarFunc::Lt, attr("order.priority"), lit_i(3)),
            cmp(ScalarFunc::Gt, attr("price"), lit_d(250.0)),
        ]),
        1,
    );
    // Before the group: the group's walk back is restricted to it.
    assert_grouped_selection(
        and_all(vec![
            eq(attr("flag"), lit_c('R')),
            cmp(ScalarFunc::Ge, attr("order.priority"), lit_i(2)),
            cmp(ScalarFunc::Lt, attr("order.orderdate"), lit_date(1996, 1, 1)),
        ]),
        1,
    );
}

#[test]
fn or_and_not_around_and_inside_a_group() {
    let early = || cmp(ScalarFunc::Lt, attr("order.orderdate"), lit_date(1995, 1, 1));
    let prio = |p| eq(attr("order.priority"), lit_i(p));
    // Around: the group is the whole operand of `not` / one side of `or`.
    assert_grouped_selection(not(and(prio(1), early())), 1);
    assert_grouped_selection(
        or(and(prio(2), eq(attr("order.cust.segment"), lit_s("B"))), eq(attr("flag"), lit_c('A'))),
        1,
    );
    assert_grouped_selection(
        and(
            eq(attr("flag"), lit_c('R')),
            or(and(prio(3), early()), cmp(ScalarFunc::Lt, attr("price"), lit_d(300.0))),
        ),
        1,
    );
    // Inside: an `or` / a `not` sits between two grouped conjuncts and
    // stays a conjunct of its own.
    assert_grouped_selection(
        and_all(vec![
            cmp(ScalarFunc::Ge, attr("order.orderdate"), lit_date(1994, 6, 1)),
            or(prio(1), eq(attr("flag"), lit_c('N'))),
            cmp(ScalarFunc::Lt, attr("order.cust.acctbal"), lit_d(300.0)),
        ]),
        2,
    );
    assert_grouped_selection(
        and_all(vec![
            cmp(ScalarFunc::Gt, attr("order.priority"), lit_i(1)),
            not(eq(attr("order.ship.name"), lit_s("N1"))),
            cmp(ScalarFunc::Lt, attr("order.orderdate"), lit_date(1996, 6, 1)),
        ]),
        2,
    );
}

/// The reference evaluator's rows, order-insensitively, for the optimized
/// plan (`assert_commutes`), and the optimized plan's rows in the raw
/// emission's order.
fn assert_commutes_raw_too(cat: &Catalog, q: &SetExpr) {
    assert_commutes(cat, q);
    let rows = |level| {
        let t = translate_with(cat, q, level).unwrap();
        t.run(&ExecCtx::new(), cat.db()).unwrap().0.materialize().unwrap()
    };
    assert_eq!(rows(OptLevel::Off), rows(OptLevel::Full), "{}", q.render());
}

#[test]
fn or_is_one_semijoin_of_the_index_over_both_pullbacks() {
    let cat = mini_catalog();
    let flagged = || eq(attr("returnflag"), lit_c('R'));
    let pricey = || cmp(ScalarFunc::Ge, attr("extendedprice"), lit_d(300.0));
    // Overlapping disjuncts (items 12 and 13 satisfy both), and two equal
    // ones: each element is selected once, in index order.
    for pred in [or(flagged(), pricey()), or(flagged(), flagged())] {
        let q = SetExpr::extent("Item").select(pred);
        assert_commutes_raw_too(&cat, &q);
        let t = translate_with(&cat, &q, OptLevel::Off).unwrap();
        let text = t.prog.to_string();
        assert!(text.contains(":= concat("), "{text}");
        assert!(text.contains(":= semijoin(Item, tmp"), "{text}");
    }
    // Under a chained candidate: the `or` is the second conjunct.
    let q = SetExpr::extent("Item").select(and(
        cmp(ScalarFunc::Le, attr("extendedprice"), lit_d(350.0)),
        or(flagged(), pricey()),
    ));
    assert_commutes_raw_too(&cat, &q);
    let q = SetExpr::extent("Item").select(and_all(vec![
        eq(attr("order.clerk"), lit_s("c2")),
        or(flagged(), flagged()),
        cmp(ScalarFunc::Gt, attr("discount"), lit_d(0.0)),
    ]));
    assert_commutes_raw_too(&cat, &q);
}

#[test]
fn or_between_grouped_conjuncts_keeps_the_group() {
    let prio = |p| eq(attr("order.priority"), lit_i(p));
    let flag = |f| eq(attr("flag"), lit_c(f));
    // Overlapping and equal disjuncts between two conjuncts that join back
    // through `order` once; a disjunct that navigates walks back itself.
    for (disj, joins_back) in [(or(prio(1), flag('R')), 2), (or(flag('N'), flag('N')), 1)] {
        assert_grouped_selection(
            and_all(vec![
                cmp(ScalarFunc::Ge, attr("order.orderdate"), lit_date(1994, 6, 1)),
                disj,
                cmp(ScalarFunc::Lt, attr("order.cust.acctbal"), lit_d(300.0)),
            ]),
            joins_back,
        );
    }
}

/// Items paired with the orders of their clerk: a value join whose left
/// side carries a reference field.
fn item_order_join() -> SetExpr {
    SetExpr::extent("Item")
        .project(vec![
            ProjItem::new("clerk", attr("order.clerk")),
            ProjItem::new("price", attr("extendedprice")),
            ProjItem::new("ord", attr("order")),
        ])
        .join_eq(
            SetExpr::extent("Order").project(vec![
                ProjItem::new("clerk", attr("clerk")),
                ProjItem::new("year", un(ScalarFunc::Year, attr("orderdate"))),
            ]),
            attr("clerk"),
            attr("clerk"),
            "i",
            "o",
        )
}

#[test]
fn select_over_a_join_rescopes_every_field() {
    let cat = mini_catalog();
    let pricey = || cmp(ScalarFunc::Ge, attr("i.price"), lit_d(200.0));
    let late = || eq(attr("o.year"), lit_i(1996));
    for pred in [pricey(), or(pricey(), late()), or(late(), late())] {
        let sel = item_order_join().select(pred);
        assert_commutes_raw_too(&cat, &sel);
        let q = sel.project(vec![
            ProjItem::new("clerk", attr("i.clerk")),
            ProjItem::new("date", attr("i.ord.orderdate")),
            ProjItem::new("year", attr("o.year")),
        ]);
        assert_commutes_raw_too(&cat, &q);
    }
    // The projection reads the re-scoped fields: in the raw emission no
    // statement after the selection reads the pair maps, and each field is
    // restricted to the selection once (the five fields of `i` and `o`).
    let q = item_order_join().select(pricey()).project(vec![
        ProjItem::new("clerk", attr("i.clerk")),
        ProjItem::new("date", attr("i.ord.orderdate")),
    ]);
    let t = translate_with(&cat, &q, OptLevel::Off).unwrap();
    let text = t.prog.to_string();
    let sel = text.rfind("selected := ").unwrap();
    let after = &text[sel + text[sel..].find('\n').unwrap()..];
    assert!(!after.contains("lmap") && !after.contains("rmap"), "{text}");
    assert_eq!(after.matches(", selected)").count(), 5, "{text}");
}

#[test]
fn select_over_an_unnest_rescopes_every_field() {
    let cat = mini_catalog();
    let unnested = || SetExpr::extent("Supplier").unnest(sattr("supplies"), "sup", "sp");
    let cheap = || cmp(ScalarFunc::Lt, attr("sp.cost"), lit_d(2.0));
    let stocked = || cmp(ScalarFunc::Gt, attr("sp.available"), lit_i(0));
    for pred in [cheap(), or(cheap(), stocked()), or(stocked(), stocked())] {
        let sel = unnested().select(pred);
        assert_commutes_raw_too(&cat, &sel);
        let q = sel.project(vec![
            ProjItem::new("sname", attr("sup.name")),
            ProjItem::new("pname", attr("sp.part.name")),
            ProjItem::new("cost", attr("sp.cost")),
        ]);
        assert_commutes_raw_too(&cat, &q);
    }
}

#[test]
fn select_keeps_a_nested_field_and_restricts_it_on_use() {
    let cat = mini_catalog();
    // A projected set-valued field next to scalars.
    let q = SetExpr::extent("Supplier")
        .project(vec![
            ProjItem::new("name", attr("name")),
            ProjItem::new(
                "parts",
                SetValued::ProjectIn(Box::new(sattr("supplies")), Box::new(attr("part"))),
            ),
        ])
        .select(eq(attr("name"), lit_s("S20")));
    assert_commutes_raw_too(&cat, &q);
    assert_commutes_raw_too(
        &cat,
        &q.project(vec![
            ProjItem::new("name", attr("name")),
            ProjItem::new("n", agg(AggFunc::Count, sattr("parts"))),
        ]),
    );
    // A nest's `rest` field, selected on its key.
    let q = SetExpr::extent("Item")
        .nest(vec![ProjItem::new("flag", attr("returnflag"))])
        .select(or(eq(attr("flag"), lit_c('R')), eq(attr("flag"), lit_c('R'))))
        .project(vec![
            ProjItem::new("flag", attr("flag")),
            ProjItem::new("n", agg(AggFunc::Count, sattr(NEST_REST))),
            ProjItem::new("total", agg_over(AggFunc::Sum, sattr(NEST_REST), attr("extendedprice"))),
        ]);
    assert_commutes_raw_too(&cat, &q);
}

/// A nest's `avg` is the `(sum, count)` module's quotient: over a `dbl`
/// member it is emitted as `[/]({sum}, {count})`, which CSE shares with
/// the plan's own `{sum}` and INDEX; over an integer member (whose `{avg}`
/// sums in `dbl`) it stays `{avg}`. Either way it commutes.
#[test]
fn nest_avg_over_dbl_is_sum_over_count() {
    let cat = mini_catalog();
    let q = SetExpr::extent("Supplier")
        .unnest(sattr("supplies"), "sup", "sp")
        .nest(vec![ProjItem::new("name", attr("sup.name"))])
        .project(vec![
            ProjItem::new("name", attr("name")),
            ProjItem::new("cost", agg_over(AggFunc::Sum, sattr(NEST_REST), attr("sp.cost"))),
            ProjItem::new("avg_cost", agg_over(AggFunc::Avg, sattr(NEST_REST), attr("sp.cost"))),
            ProjItem::new(
                "avg_avail",
                agg_over(AggFunc::Avg, sattr(NEST_REST), attr("sp.available")),
            ),
        ]);
    assert_commutes(&cat, &q);
    let full = monet::mil::opt::OptLevel::Full;
    let prog = moa::translate::translate_with(&cat, &q, full).unwrap().prog.to_string();
    let count = |op: &str| prog.matches(op).count();
    assert_eq!((count("{avg}"), count("{sum}"), count("[/]")), (1, 1, 1), "{prog}");
}

/// A comparison of a reference path with a constant is the pullback along
/// the reference of the same comparison at the referenced class: with no
/// earlier conjunct, `order.clerk contains "2"` is tested once per order
/// and joined back, not gathered per item. After an order conjunct the
/// candidates are fewer than the items, and the gather stays.
#[test]
fn a_path_predicate_is_tested_at_the_referenced_class_unless_candidates_are_fewer() {
    let cat = mini_catalog();
    let contains = || cmp(ScalarFunc::StrContains, attr("order.clerk"), lit_s("2"));
    let raw = |q: &SetExpr| translate_with(&cat, q, OptLevel::Off).unwrap().prog.to_string();

    let q = SetExpr::extent("Item").select(contains());
    assert_commutes_raw_too(&cat, &q);
    let text = raw(&q);
    assert!(text.contains(":= [str_contains](Order_clerk, \"2\")"), "{text}");
    assert!(text.contains(":= join(Item_order, tmp"), "{text}");
    assert!(!text.contains(", Order_clerk)"), "no per-item gather of the clerk:\n{text}");
    // Under a negation, too: no candidates reach it.
    assert_commutes_raw_too(&cat, &SetExpr::extent("Item").select(not(contains())));

    let q = SetExpr::extent("Item")
        .select(and(cmp(ScalarFunc::Ge, attr("extendedprice"), lit_d(200.0)), contains()));
    assert_commutes_raw_too(&cat, &q);
    let text = raw(&q);
    assert!(text.contains(", Order_clerk)"), "the candidates gather the clerk:\n{text}");
    assert!(!text.contains("[str_contains](Order_clerk"), "{text}");
}

/// `select(join_eq(L, R, lk, rk), l.f = r.g)` is one two-key join on
/// `(lk, f) = (rk, g)`; the other conjuncts select over its result.
#[test]
fn a_select_equating_both_sides_of_a_join_is_one_two_key_join() {
    let cat = mini_catalog();
    let items = |disc: Scalar| {
        SetExpr::extent("Item").project(vec![
            ProjItem::new("clerk", attr("order.clerk")),
            ProjItem::new("disc", disc),
            ProjItem::new("price", attr("extendedprice")),
        ])
    };
    // The clerk repeats on both sides (two items each); the `dbl` second
    // key pairs items 10 with 11 and 11 with 10 (0.1 - d), and 12 with
    // itself.
    let joined = || {
        items(attr("discount")).join_eq(
            items(bin(ScalarFunc::Sub, lit_d(0.1), attr("discount"))),
            attr("clerk"),
            attr("clerk"),
            "i",
            "j",
        )
    };
    let same_disc = || eq(attr("i.disc"), attr("j.disc"));
    let cheap = || cmp(ScalarFunc::Lt, attr("j.price"), lit_d(300.0));
    let project = |q: SetExpr| {
        q.project(vec![
            ProjItem::new("left", attr("i.price")),
            ProjItem::new("right", attr("j.price")),
        ])
    };
    for pred in [same_disc(), and(cheap(), same_disc()), eq(attr("j.disc"), attr("i.disc"))] {
        let q = project(joined().select(pred));
        assert_commutes_raw_too(&cat, &q);
        let text = translate_with(&cat, &q, OptLevel::Off).unwrap().prog.to_string();
        let join = text.lines().find(|l| l.contains("pairs := join(")).unwrap();
        assert_eq!(join.matches(", ").count(), 3, "two keys a side:\n{text}");
        assert!(!text.contains(":= [=]("), "no residual comparison:\n{text}");
    }
    let rows = Evaluator::new(&cat).eval_values(&project(joined().select(same_disc()))).unwrap();
    assert_eq!(rows.len(), 3, "{rows:?}");

    // Q2's shape: the right side is a nest whose second key is a `dbl`
    // aggregate, not row for row with its key.
    let cheapest = SetExpr::extent("Supplier")
        .unnest(sattr("supplies"), "sup", "sp")
        .nest(vec![ProjItem::new("name", attr("sup.name"))])
        .project(vec![
            ProjItem::new("name", attr("name")),
            ProjItem::new("low", agg_over(AggFunc::Min, sattr(NEST_REST), attr("sp.cost"))),
        ]);
    let q = SetExpr::extent("Supplier")
        .unnest(sattr("supplies"), "sup", "sp")
        .join_eq(cheapest, attr("sup.name"), attr("name"), "x", "m")
        .select(and(eq(attr("x.sp.cost"), attr("m.low")), eq(attr("m.name"), lit_s("S20"))))
        .project(vec![
            ProjItem::new("part", attr("x.sp.part")),
            ProjItem::new("cost", attr("m.low")),
        ]);
    assert_commutes_raw_too(&cat, &q);
    let text = translate_with(&cat, &q, OptLevel::Off).unwrap().prog.to_string();
    assert!(!text.contains(":= [=]("), "{text}");
}

/// The items with flag `R` whose price exceeds a thousand times their
/// discount: a literal pushdown and a comparison of two attributes.
fn flagged_and_pricey() -> SetExpr {
    SetExpr::extent("Item").select(and(
        eq(attr("returnflag"), lit_c('R')),
        cmp(
            ScalarFunc::Gt,
            attr("extendedprice"),
            bin(ScalarFunc::Mul, attr("discount"), lit_d(1000.0)),
        ),
    ))
}

/// The semijoin reduction `L ⋉ σp(R) = L ⋉ σp(R ⋉ L)`: a selected left
/// semijoined on `this` with a selection over the items' `order` restricts
/// the items to the left's partners before any item attribute is read.
/// A left that keeps nothing has no partners.
#[test]
fn a_semijoin_selects_its_right_operand_over_the_lefts_partners_only() {
    let cat = mini_catalog();
    for left in [
        cmp(ScalarFunc::Ge, attr("orderdate"), lit_date(1995, 1, 1)),
        eq(attr("clerk"), lit_s("c1")),
        eq(attr("clerk"), lit_s("c2")),
        eq(attr("clerk"), lit_s("c3")),
    ] {
        let q = SetExpr::extent("Order").select(left).semijoin_eq(
            flagged_and_pricey(),
            this(),
            attr("order"),
        );
        assert_commutes_raw_too(&cat, &q);
        let text = translate_with(&cat, &q, OptLevel::Off).unwrap().prog.to_string();
        let lines: Vec<&str> = text.lines().collect();
        let partners = lines.iter().position(|l| l.starts_with("partners := ")).expect(&text);
        let gathers: Vec<usize> =
            (0..lines.len()).filter(|&i| lines[i].contains("(Item_")).collect();
        assert!(gathers.len() >= 3, "{text}");
        assert!(gathers.iter().all(|&i| i > partners), "a gather before the restriction:\n{text}");
        assert!(text.contains(":= semijoin(Item_returnflag, partners)"), "{text}");
    }
}

/// Every other semijoin shape keeps the emission it had before the
/// reduction: a bare-extent left (every item is a partner), value keys,
/// a path key, and a right that is not a select over an extent.
#[test]
fn other_semijoin_shapes_keep_their_emission() {
    let c2 = || SetExpr::extent("Order").select(eq(attr("clerk"), lit_s("c2")));
    let cases = [
        (
            mini_catalog(),
            SetExpr::extent("Order").semijoin_eq(flagged_and_pricey(), this(), attr("order")),
            BARE_EXTENT_LEFT,
        ),
        (
            mini_catalog(),
            SetExpr::extent("Order").semijoin_eq(
                SetExpr::extent("Item").select(eq(attr("returnflag"), lit_c('N'))),
                attr("clerk"),
                attr("order.clerk"),
            ),
            VALUE_KEYS,
        ),
        (
            nav_catalog(),
            SetExpr::extent("Customer").select(eq(attr("segment"), lit_s("B"))).semijoin_eq(
                SetExpr::extent("Item").select(eq(attr("flag"), lit_c('R'))),
                this(),
                attr("order.cust"),
            ),
            PATH_KEY,
        ),
        (
            mini_catalog(),
            c2().semijoin_eq(
                SetExpr::extent("Item").select(eq(attr("returnflag"), lit_c('R'))).select(cmp(
                    ScalarFunc::Gt,
                    attr("extendedprice"),
                    lit_d(250.0),
                )),
                this(),
                attr("order"),
            ),
            SELECT_OVER_A_SELECT,
        ),
        (
            mini_catalog(),
            c2().semijoin_eq(SetExpr::extent("Item"), this(), attr("order")),
            BARE_EXTENT_RIGHT,
        ),
    ];
    for (cat, q, want) in cases {
        assert_commutes_raw_too(&cat, &q);
        let text = translate_with(&cat, &q, OptLevel::Off).unwrap().prog.to_string();
        assert_eq!(text.trim_end(), want.trim(), "{}", q.render());
    }
}

const BARE_EXTENT_LEFT: &str = r#"
Order := load("Order")
Item := load("Item")
Item_returnflag := load("Item_returnflag")
tmp3 := select(Item_returnflag, 'R')
Item_extendedprice := load("Item_extendedprice")
tmp5 := semijoin(Item_extendedprice, tmp3)
Item_discount := load("Item_discount")
tmp7 := semijoin(Item_discount, tmp3)
tmp8 := [*](tmp7, 1000)
tmp9 := [>](tmp5, tmp8)
tmp10 := select(tmp9, true)
tmp11 := semijoin(tmp10, tmp3)
selected := semijoin(Item, tmp11)
tmp13 := Order.mirror
tmp14 := zip(tmp13, tmp13)
Item_order := load("Item_order")
tmp16 := semijoin(Item_order, selected)
tmp17 := tmp14.mirror
tmp18 := tmp16.mirror
tmp19 := semijoin(tmp17, tmp18)
tmp20 := tmp19.mirror
semijoined := semijoin(Order, tmp20)
tmp22 := semijoined.mirror
tmp23 := zip(tmp22, tmp22)
"#;

const VALUE_KEYS: &str = r#"
Order := load("Order")
Item := load("Item")
Item_returnflag := load("Item_returnflag")
tmp3 := select(Item_returnflag, 'N')
selected := semijoin(Item, tmp3)
Order_clerk := load("Order_clerk")
tmp6 := semijoin(Order_clerk, Order)
Item_order := load("Item_order")
tmp8 := semijoin(Item_order, selected)
tmp9 := join(tmp8, Order_clerk)
tmp10 := tmp6.mirror
tmp11 := tmp9.mirror
tmp12 := semijoin(tmp10, tmp11)
tmp13 := tmp12.mirror
semijoined := semijoin(Order, tmp13)
tmp15 := semijoined.mirror
tmp16 := zip(tmp15, tmp15)
"#;

const PATH_KEY: &str = r#"
Customer := load("Customer")
Customer_segment := load("Customer_segment")
tmp2 := select(Customer_segment, "B")
selected := semijoin(Customer, tmp2)
Item := load("Item")
Item_flag := load("Item_flag")
tmp6 := select(Item_flag, 'R')
selected := semijoin(Item, tmp6)
tmp8 := selected.mirror
tmp9 := zip(tmp8, tmp8)
Item_order := load("Item_order")
tmp11 := semijoin(Item_order, selected)
Order_cust := load("Order_cust")
tmp13 := join(tmp11, Order_cust)
tmp14 := tmp9.mirror
tmp15 := tmp13.mirror
tmp16 := semijoin(tmp14, tmp15)
tmp17 := tmp16.mirror
semijoined := semijoin(selected, tmp17)
tmp19 := semijoined.mirror
tmp20 := zip(tmp19, tmp19)
"#;

const SELECT_OVER_A_SELECT: &str = r#"
Order := load("Order")
Order_clerk := load("Order_clerk")
tmp2 := select(Order_clerk, "c2")
selected := semijoin(Order, tmp2)
Item := load("Item")
Item_returnflag := load("Item_returnflag")
tmp6 := select(Item_returnflag, 'R')
selected := semijoin(Item, tmp6)
Item_extendedprice := load("Item_extendedprice")
tmp9 := select(Item_extendedprice, (250, +inf])
selected := semijoin(selected, tmp9)
tmp11 := selected.mirror
tmp12 := zip(tmp11, tmp11)
Item_order := load("Item_order")
tmp14 := semijoin(Item_order, selected)
tmp15 := tmp12.mirror
tmp16 := tmp14.mirror
tmp17 := semijoin(tmp15, tmp16)
tmp18 := tmp17.mirror
semijoined := semijoin(selected, tmp18)
tmp20 := semijoined.mirror
tmp21 := zip(tmp20, tmp20)
"#;

const BARE_EXTENT_RIGHT: &str = r#"
Order := load("Order")
Order_clerk := load("Order_clerk")
tmp2 := select(Order_clerk, "c2")
selected := semijoin(Order, tmp2)
Item := load("Item")
tmp5 := selected.mirror
tmp6 := zip(tmp5, tmp5)
Item_order := load("Item_order")
tmp8 := semijoin(Item_order, Item)
tmp9 := tmp6.mirror
tmp10 := tmp8.mirror
tmp11 := semijoin(tmp9, tmp10)
tmp12 := tmp11.mirror
semijoined := semijoin(selected, tmp12)
tmp14 := semijoined.mirror
tmp15 := zip(tmp14, tmp14)
"#;
