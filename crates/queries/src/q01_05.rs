//! TPC-D queries 1–5: pricing summary, minimum-cost supplier, shipping
//! priority, order-priority checking, local supplier volume.

use moa::catalog::Catalog;
use moa::prelude::*;
use monet::atom::{AtomValue, Oid};
use monet::column::{WordHashMap, WordHashSet};
use monet::ctx::ExecCtx;
use monet::ops::{AggFunc, ScalarFunc};
use monet::pager::Pager;
use relstore::{fetch, group_fold, select_rows, ColPred, RelDb};

use crate::params::{pid, Params};
use crate::refutil::*;
use crate::runner::{run_moa_rows, QueryResult};
use crate::RefOutput;

/// The discounted-price expression `extendedprice * (1 - discount)`.
pub fn revenue_expr() -> Scalar {
    bin(ScalarFunc::Mul, attr("extendedprice"), bin(ScalarFunc::Sub, lit_d(1.0), attr("discount")))
}

fn charge_expr() -> Scalar {
    bin(ScalarFunc::Mul, revenue_expr(), bin(ScalarFunc::Add, lit_d(1.0), attr("tax")))
}

// ---------------------------------------------------------------------------
// Q1 — billing aggregates over the big table (98% selectivity).
// ---------------------------------------------------------------------------

pub fn q1_moa(p: &Params) -> SetExpr {
    SetExpr::extent("Item")
        .select(cmp(
            ScalarFunc::Le,
            attr("shipdate"),
            prm(pid::Q1_CUTOFF, AtomValue::Date(p.q1_cutoff)),
        ))
        .project(vec![
            ProjItem::new("flag", attr("returnflag")),
            ProjItem::new("status", attr("linestatus")),
            ProjItem::new("qty", attr("quantity")),
            ProjItem::new("base", attr("extendedprice")),
            ProjItem::new("disc_price", revenue_expr()),
            ProjItem::new("charge", charge_expr()),
            ProjItem::new("discount", attr("discount")),
        ])
        .nest(vec![ProjItem::new("flag", attr("flag")), ProjItem::new("status", attr("status"))])
        .project(vec![
            ProjItem::new("flag", attr("flag")),
            ProjItem::new("status", attr("status")),
            ProjItem::new("sum_qty", agg_over(AggFunc::Sum, sattr(NEST_REST), attr("qty"))),
            ProjItem::new("sum_base", agg_over(AggFunc::Sum, sattr(NEST_REST), attr("base"))),
            ProjItem::new(
                "sum_disc_price",
                agg_over(AggFunc::Sum, sattr(NEST_REST), attr("disc_price")),
            ),
            ProjItem::new("sum_charge", agg_over(AggFunc::Sum, sattr(NEST_REST), attr("charge"))),
            ProjItem::new("avg_qty", agg_over(AggFunc::Avg, sattr(NEST_REST), attr("qty"))),
            ProjItem::new("avg_price", agg_over(AggFunc::Avg, sattr(NEST_REST), attr("base"))),
            ProjItem::new("avg_disc", agg_over(AggFunc::Avg, sattr(NEST_REST), attr("discount"))),
            ProjItem::new("count", agg(AggFunc::Count, sattr(NEST_REST))),
        ])
}

pub fn q1_ref(db: &RelDb, p: &Params, pager: Option<&Pager>) -> RefOutput {
    let rows = select_rows(
        db,
        "lineitem",
        "shipdate",
        &ColPred::Range {
            lo: None,
            hi: Some(&AtomValue::Date(p.q1_cutoff)),
            inc_lo: true,
            inc_hi: true,
        },
        pager,
    );
    #[derive(Default, Clone)]
    struct Acc {
        qty: i64,
        base: f64,
        disc_price: f64,
        charge: f64,
        disc: f64,
        n: i64,
    }
    let li = db.table("lineitem");
    let (cq, ce, cd, ct, cf, cs) = (
        li.col_index("quantity").unwrap(),
        li.col_index("extendedprice").unwrap(),
        li.col_index("discount").unwrap(),
        li.col_index("tax").unwrap(),
        li.col_index("returnflag").unwrap(),
        li.col_index("linestatus").unwrap(),
    );
    let groups = group_fold(
        db,
        "lineitem",
        &rows,
        pager,
        |t, r| (t.chr_v(cf, r), t.chr_v(cs, r)),
        Acc::default,
        |a, t, r| {
            let (e, d, tx) = (t.dbl_v(ce, r), t.dbl_v(cd, r), t.dbl_v(ct, r));
            a.qty += t.int_v(cq, r) as i64;
            a.base += e;
            a.disc_price += e * (1.0 - d);
            a.charge += e * (1.0 - d) * (1.0 + tx);
            a.disc += d;
            a.n += 1;
        },
    );
    let out = groups
        .into_iter()
        .map(|((f, s), a)| {
            vec![
                AtomValue::Chr(f),
                AtomValue::Chr(s),
                lng(a.qty),
                dbl(a.base),
                dbl(a.disc_price),
                dbl(a.charge),
                dbl(a.qty as f64 / a.n as f64),
                dbl(a.base / a.n as f64),
                dbl(a.disc / a.n as f64),
                lng(a.n),
            ]
        })
        .collect();
    RefOutput { rows: QueryResult(out), item_rows: rows.len() }
}

// ---------------------------------------------------------------------------
// Q2 — cheapest part supplier for a region.
// ---------------------------------------------------------------------------

pub fn q2_moa(p: &Params) -> SetExpr {
    let candidates =
        SetExpr::extent("Supplier").unnest(sattr("supplies"), "sup", "sp").select(and_all(vec![
            eq(
                attr("sup.nation.region.name"),
                prm(pid::Q2_REGION, AtomValue::str(p.q2_region.as_str())),
            ),
            eq(attr("sp.part.size"), prm(pid::Q2_SIZE, AtomValue::Int(p.q2_size))),
            cmp(
                ScalarFunc::StrContains,
                attr("sp.part.type"),
                prm(pid::Q2_TYPE, AtomValue::str(p.q2_type_contains.as_str())),
            ),
        ]));
    let min_per_part =
        candidates.clone().nest(vec![ProjItem::new("part", attr("sp.part"))]).project(vec![
            ProjItem::new("part", attr("part")),
            ProjItem::new("mincost", agg_over(AggFunc::Min, sattr(NEST_REST), attr("sp.cost"))),
        ]);
    candidates
        .join_eq(min_per_part, attr("sp.part"), attr("part"), "x", "m")
        .select(eq(attr("x.sp.cost"), attr("m.mincost")))
        .project(vec![
            ProjItem::new("part", attr("m.part")),
            ProjItem::new("sname", attr("x.sup.name")),
            ProjItem::new("cost", attr("x.sp.cost")),
        ])
}

pub fn q2_ref(db: &RelDb, p: &Params, pager: Option<&Pager>) -> RefOutput {
    let nations = nations_of_region(db, &p.q2_region);
    let sup = db.table("supplier");
    let (so, sn, snm) = (
        sup.col_index("oid").unwrap(),
        sup.col_index("nation").unwrap(),
        sup.col_index("name").unwrap(),
    );
    let sup_rows: WordHashMap<Oid, u32> = oid_map(db, "supplier");
    let good_sup: WordHashMap<Oid, String> = (0..sup.rows())
        .filter(|&r| nations.contains(&sup.oid_v(sn, r)))
        .map(|r| (sup.oid_v(so, r), sup.str_v(snm, r).to_string()))
        .collect();
    let part = db.table("part");
    let (psize, ptype) = (part.col_index("size").unwrap(), part.col_index("type").unwrap());
    let part_rows = oid_map(db, "part");
    let ps = db.table("partsupp");
    let (pp, psup, pc) = (
        ps.col_index("part").unwrap(),
        ps.col_index("supplier").unwrap(),
        ps.col_index("cost").unwrap(),
    );
    // qualifying partsupp entries
    let mut per_part: WordHashMap<Oid, Vec<(f64, Oid)>> = WordHashMap::default();
    for r in 0..ps.rows() {
        if let Some(p2) = pager {
            ps.touch_row(p2, r);
        }
        let s = ps.oid_v(psup, r);
        if !good_sup.contains_key(&s) {
            continue;
        }
        let poid = ps.oid_v(pp, r);
        let prow = part_rows[&poid] as usize;
        touch(db, "part", prow as u32, pager);
        if part.int_v(psize, prow) != p.q2_size
            || !part.str_v(ptype, prow).contains(&p.q2_type_contains)
        {
            continue;
        }
        per_part.entry(poid).or_default().push((ps.dbl_v(pc, r), s));
    }
    let mut out = Vec::new();
    for (poid, entries) in per_part {
        let min = entries.iter().map(|(c, _)| *c).fold(f64::INFINITY, f64::min);
        for (c, s) in entries {
            if c == min {
                touch(db, "supplier", sup_rows[&s], pager);
                out.push(vec![AtomValue::Oid(poid), AtomValue::str(good_sup[&s].as_str()), dbl(c)]);
            }
        }
    }
    RefOutput { rows: QueryResult(out), item_rows: 0 }
}

// ---------------------------------------------------------------------------
// Q3 — the ten most valuable unshipped orders.
// ---------------------------------------------------------------------------

pub fn q3_moa(p: &Params) -> SetExpr {
    SetExpr::extent("Item")
        .select(and_all(vec![
            eq(
                attr("order.cust.mktsegment"),
                prm(pid::Q3_SEGMENT, AtomValue::str(p.q3_segment.as_str())),
            ),
            cmp(
                ScalarFunc::Lt,
                attr("order.orderdate"),
                prm(pid::Q3_DATE_ORDER, AtomValue::Date(p.q3_date)),
            ),
            cmp(
                ScalarFunc::Gt,
                attr("shipdate"),
                prm(pid::Q3_DATE_SHIP, AtomValue::Date(p.q3_date)),
            ),
        ]))
        .project(vec![
            ProjItem::new("ord", attr("order")),
            ProjItem::new("revenue", revenue_expr()),
        ])
        .nest(vec![ProjItem::new("ord", attr("ord"))])
        .project(vec![
            ProjItem::new("ord", attr("ord")),
            ProjItem::new("revenue", agg_over(AggFunc::Sum, sattr(NEST_REST), attr("revenue"))),
            ProjItem::new("orderdate", attr("ord.orderdate")),
            ProjItem::new("shippriority", attr("ord.shippriority")),
        ])
        .top(attr("revenue"), 10, true)
}

pub fn q3_ref(db: &RelDb, p: &Params, pager: Option<&Pager>) -> RefOutput {
    let cust = db.table("customer");
    let cseg = cust.col_index("mktsegment").unwrap();
    let building: WordHashSet<Oid> = select_rows(
        db,
        "customer",
        "mktsegment",
        &ColPred::Eq(&AtomValue::str(p.q3_segment.as_str())),
        pager,
    )
    .into_iter()
    .map(|r| db.table("customer").oid_v(cust.col_index("oid").unwrap(), r as usize))
    .collect();
    let _ = cseg;
    let orders = db.table("orders");
    let (oo, oc, od, osp) = (
        orders.col_index("oid").unwrap(),
        orders.col_index("cust").unwrap(),
        orders.col_index("orderdate").unwrap(),
        orders.col_index("shippriority").unwrap(),
    );
    let mut qualifying: WordHashMap<Oid, (monet::atom::Date, String)> = WordHashMap::default();
    let early = select_rows(
        db,
        "orders",
        "orderdate",
        &ColPred::Range {
            lo: None,
            hi: Some(&AtomValue::Date(p.q3_date)),
            inc_lo: true,
            inc_hi: false,
        },
        pager,
    );
    for r in early {
        touch(db, "orders", r, pager);
        let r = r as usize;
        if building.contains(&orders.oid_v(oc, r)) {
            qualifying.insert(
                orders.oid_v(oo, r),
                (orders.date_v(od, r), orders.str_v(osp, r).to_string()),
            );
        }
    }
    let li = db.table("lineitem");
    let (lo, ls, le, ld) = (
        li.col_index("order").unwrap(),
        li.col_index("shipdate").unwrap(),
        li.col_index("extendedprice").unwrap(),
        li.col_index("discount").unwrap(),
    );
    let late = select_rows(
        db,
        "lineitem",
        "shipdate",
        &ColPred::Range {
            lo: Some(&AtomValue::Date(p.q3_date)),
            hi: None,
            inc_lo: false,
            inc_hi: true,
        },
        pager,
    );
    let _ = ls;
    let mut rev: WordHashMap<Oid, f64> = WordHashMap::default();
    let mut item_rows = 0usize;
    for r in &late {
        touch(db, "lineitem", *r, pager);
        let r = *r as usize;
        let ord = li.oid_v(lo, r);
        if qualifying.contains_key(&ord) {
            item_rows += 1;
            *rev.entry(ord).or_insert(0.0) += li.dbl_v(le, r) * (1.0 - li.dbl_v(ld, r));
        }
    }
    let mut rows: Vec<(Oid, f64)> = rev.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    rows.truncate(10);
    let out = rows
        .into_iter()
        .map(|(ord, revenue)| {
            let (date, sp) = &qualifying[&ord];
            vec![
                AtomValue::Oid(ord),
                dbl(revenue),
                AtomValue::Date(*date),
                AtomValue::str(sp.as_str()),
            ]
        })
        .collect();
    RefOutput { rows: QueryResult(out), item_rows }
}

// ---------------------------------------------------------------------------
// Q4 — order priority checking (EXISTS a late item).
// ---------------------------------------------------------------------------

pub fn q4_moa(p: &Params) -> SetExpr {
    let late_items = SetExpr::extent("Item").select(cmp(
        ScalarFunc::Lt,
        attr("commitdate"),
        attr("receiptdate"),
    ));
    SetExpr::extent("Order")
        .select(and(
            cmp(
                ScalarFunc::Ge,
                attr("orderdate"),
                prm(pid::Q4_DATE_LO, AtomValue::Date(p.q4_date)),
            ),
            cmp(
                ScalarFunc::Lt,
                attr("orderdate"),
                prm(pid::Q4_DATE_HI, AtomValue::Date(p.q4_date.add_months(3))),
            ),
        ))
        .semijoin_eq(late_items, this(), attr("order"))
        .nest(vec![ProjItem::new("priority", attr("orderpriority"))])
        .project(vec![
            ProjItem::new("priority", attr("priority")),
            ProjItem::new("count", agg(AggFunc::Count, sattr(NEST_REST))),
        ])
}

pub fn q4_ref(db: &RelDb, p: &Params, pager: Option<&Pager>) -> RefOutput {
    let hi = p.q4_date.add_months(3);
    let orows = select_rows(
        db,
        "orders",
        "orderdate",
        &ColPred::Range {
            lo: Some(&AtomValue::Date(p.q4_date)),
            hi: Some(&AtomValue::Date(hi)),
            inc_lo: true,
            inc_hi: false,
        },
        pager,
    );
    let li = db.table("lineitem");
    let (lo, lc, lr) = (
        li.col_index("order").unwrap(),
        li.col_index("commitdate").unwrap(),
        li.col_index("receiptdate").unwrap(),
    );
    let mut late_orders: WordHashSet<Oid> = WordHashSet::default();
    let mut item_rows = 0usize;
    for r in 0..li.rows() {
        if let Some(pg) = pager {
            li.touch_row(pg, r);
        }
        if li.date_v(lc, r) < li.date_v(lr, r) {
            item_rows += 1;
            late_orders.insert(li.oid_v(lo, r));
        }
    }
    let orders = db.table("orders");
    let (oo, op) = (orders.col_index("oid").unwrap(), orders.col_index("orderpriority").unwrap());
    let mut counts: WordHashMap<String, i64> = WordHashMap::default();
    for r in orows {
        touch(db, "orders", r, pager);
        let r = r as usize;
        if late_orders.contains(&orders.oid_v(oo, r)) {
            *counts.entry(orders.str_v(op, r).to_string()).or_insert(0) += 1;
        }
    }
    let out = counts.into_iter().map(|(k, v)| vec![AtomValue::str(k.as_str()), lng(v)]).collect();
    RefOutput { rows: QueryResult(out), item_rows }
}

// ---------------------------------------------------------------------------
// Q5 — revenue per local supplier (customer and supplier in same nation,
// nation in a region, orders of one year).
// ---------------------------------------------------------------------------

pub fn q5_moa(p: &Params) -> SetExpr {
    SetExpr::extent("Item")
        .select(and_all(vec![
            eq(
                attr("supplier.nation.region.name"),
                prm(pid::Q5_REGION, AtomValue::str(p.q5_region.as_str())),
            ),
            cmp(
                ScalarFunc::Ge,
                attr("order.orderdate"),
                prm(pid::Q5_DATE_LO, AtomValue::Date(p.q5_date)),
            ),
            cmp(
                ScalarFunc::Lt,
                attr("order.orderdate"),
                prm(pid::Q5_DATE_HI, AtomValue::Date(p.q5_date.add_months(12))),
            ),
            eq(attr("order.cust.nation"), attr("supplier.nation")),
        ]))
        .project(vec![
            ProjItem::new("nation", attr("supplier.nation.name")),
            ProjItem::new("revenue", revenue_expr()),
        ])
        .nest(vec![ProjItem::new("nation", attr("nation"))])
        .project(vec![
            ProjItem::new("nation", attr("nation")),
            ProjItem::new("revenue", agg_over(AggFunc::Sum, sattr(NEST_REST), attr("revenue"))),
        ])
}

pub fn q5_ref(db: &RelDb, p: &Params, pager: Option<&Pager>) -> RefOutput {
    let nations = nations_of_region(db, &p.q5_region);
    let names = nation_names(db);
    let sup_nation: WordHashMap<Oid, Oid> = {
        let t = db.table("supplier");
        let (co, cn) = (t.col_index("oid").unwrap(), t.col_index("nation").unwrap());
        (0..t.rows()).map(|r| (t.oid_v(co, r), t.oid_v(cn, r))).collect()
    };
    let cust_nation: WordHashMap<Oid, Oid> = {
        let t = db.table("customer");
        let (co, cn) = (t.col_index("oid").unwrap(), t.col_index("nation").unwrap());
        (0..t.rows()).map(|r| (t.oid_v(co, r), t.oid_v(cn, r))).collect()
    };
    let hi = p.q5_date.add_months(12);
    let orows = select_rows(
        db,
        "orders",
        "orderdate",
        &ColPred::Range {
            lo: Some(&AtomValue::Date(p.q5_date)),
            hi: Some(&AtomValue::Date(hi)),
            inc_lo: true,
            inc_hi: false,
        },
        pager,
    );
    let orders = db.table("orders");
    let (oo, oc) = (orders.col_index("oid").unwrap(), orders.col_index("cust").unwrap());
    let order_cust: WordHashMap<Oid, Oid> =
        fetch(db, "orders", &orows, pager, |t, r| (t.oid_v(oo, r), t.oid_v(oc, r)))
            .into_iter()
            .collect();
    let li = db.table("lineitem");
    let (lo, lsup, le, ld) = (
        li.col_index("order").unwrap(),
        li.col_index("supplier").unwrap(),
        li.col_index("extendedprice").unwrap(),
        li.col_index("discount").unwrap(),
    );
    let mut rev: WordHashMap<Oid, f64> = WordHashMap::default();
    let mut item_rows = 0usize;
    for r in 0..li.rows() {
        if let Some(pg) = pager {
            li.touch_row(pg, r);
        }
        let Some(&cust) = order_cust.get(&li.oid_v(lo, r)) else { continue };
        let snat = sup_nation[&li.oid_v(lsup, r)];
        if !nations.contains(&snat) || cust_nation[&cust] != snat {
            continue;
        }
        item_rows += 1;
        *rev.entry(snat).or_insert(0.0) += li.dbl_v(le, r) * (1.0 - li.dbl_v(ld, r));
    }
    let out =
        rev.into_iter().map(|(n, v)| vec![AtomValue::str(names[&n].as_str()), dbl(v)]).collect();
    RefOutput { rows: QueryResult(out), item_rows }
}

/// Run Q1..Q5's MOA side.
pub fn q1_run(cat: &Catalog, ctx: &ExecCtx, p: &Params) -> moa::error::Result<QueryResult> {
    run_moa_rows(cat, ctx, &q1_moa(p))
}

pub fn q2_run(cat: &Catalog, ctx: &ExecCtx, p: &Params) -> moa::error::Result<QueryResult> {
    run_moa_rows(cat, ctx, &q2_moa(p))
}

pub fn q3_run(cat: &Catalog, ctx: &ExecCtx, p: &Params) -> moa::error::Result<QueryResult> {
    run_moa_rows(cat, ctx, &q3_moa(p))
}

pub fn q4_run(cat: &Catalog, ctx: &ExecCtx, p: &Params) -> moa::error::Result<QueryResult> {
    run_moa_rows(cat, ctx, &q4_moa(p))
}

pub fn q5_run(cat: &Catalog, ctx: &ExecCtx, p: &Params) -> moa::error::Result<QueryResult> {
    run_moa_rows(cat, ctx, &q5_moa(p))
}
