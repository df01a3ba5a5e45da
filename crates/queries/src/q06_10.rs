//! TPC-D queries 6–10: forecast revenue change, volume shipping, market
//! share, product-type profit, returned-item reporting.

use std::collections::HashMap;

use moa::catalog::Catalog;
use moa::prelude::*;
use monet::atom::{AtomValue, Oid};
use monet::ctx::ExecCtx;
use monet::ops::{AggFunc, ScalarFunc};
use monet::pager::Pager;
use relstore::{select_rows, ColPred, RelDb};

use crate::params::{pid, Params};
use crate::q01_05::revenue_expr;
use crate::refutil::*;
use crate::runner::{run_moa_rows, run_moa_scalar, scalar_input, QueryResult};
use crate::RefOutput;

// ---------------------------------------------------------------------------
// Q6 — benefits if discounts were abolished (scalar aggregate).
// ---------------------------------------------------------------------------

fn q6_selection(p: &Params) -> SetExpr {
    SetExpr::extent("Item").select(and_all(vec![
        cmp(ScalarFunc::Ge, attr("shipdate"), prm(pid::Q6_DATE_LO, AtomValue::Date(p.q6_date))),
        cmp(
            ScalarFunc::Lt,
            attr("shipdate"),
            prm(pid::Q6_DATE_HI, AtomValue::Date(p.q6_date.add_months(12))),
        ),
        cmp(
            ScalarFunc::Ge,
            attr("discount"),
            prm(pid::Q6_DISC_LO, AtomValue::Dbl(p.q6_disc_lo - 0.001)),
        ),
        cmp(
            ScalarFunc::Le,
            attr("discount"),
            prm(pid::Q6_DISC_HI, AtomValue::Dbl(p.q6_disc_hi + 0.001)),
        ),
        cmp(ScalarFunc::Lt, attr("quantity"), prm(pid::Q6_QTY, AtomValue::Int(p.q6_qty))),
    ]))
}

/// Q6's program: the selected items' `extendedprice * discount`, which
/// [`q6_run`] sums.
pub fn q6_moa(p: &Params) -> SetExpr {
    scalar_input(q6_selection(p), bin(ScalarFunc::Mul, attr("extendedprice"), attr("discount")))
}

pub fn q6_run(cat: &Catalog, ctx: &ExecCtx, p: &Params) -> moa::error::Result<QueryResult> {
    let total = run_moa_scalar(cat, ctx, &q6_moa(p), AggFunc::Sum)?;
    Ok(QueryResult(vec![vec![total]]))
}

pub fn q6_ref(db: &RelDb, p: &Params, pager: Option<&Pager>) -> RefOutput {
    let hi = p.q6_date.add_months(12);
    let rows = select_rows(
        db,
        "lineitem",
        "shipdate",
        &ColPred::Range {
            lo: Some(&AtomValue::Date(p.q6_date)),
            hi: Some(&AtomValue::Date(hi)),
            inc_lo: true,
            inc_hi: false,
        },
        pager,
    );
    let li = db.table("lineitem");
    let (ld, lq, le) = (
        li.col_index("discount").unwrap(),
        li.col_index("quantity").unwrap(),
        li.col_index("extendedprice").unwrap(),
    );
    let mut total = 0.0;
    let mut item_rows = 0usize;
    for r in rows {
        touch(db, "lineitem", r, pager);
        let r = r as usize;
        let d = li.dbl_v(ld, r);
        if d >= p.q6_disc_lo - 0.001 && d <= p.q6_disc_hi + 0.001 && li.int_v(lq, r) < p.q6_qty {
            item_rows += 1;
            total += li.dbl_v(le, r) * d;
        }
    }
    RefOutput { rows: QueryResult(vec![vec![dbl(total)]]), item_rows }
}

// ---------------------------------------------------------------------------
// Q7 — value of shipped goods between two nations, per year.
// ---------------------------------------------------------------------------

pub fn q7_moa(p: &Params) -> SetExpr {
    let pair = |aid: u32, a: &str, bid: u32, b: &str| {
        and(
            eq(attr("supplier.nation.name"), prm(aid, AtomValue::str(a))),
            eq(attr("order.cust.nation.name"), prm(bid, AtomValue::str(b))),
        )
    };
    SetExpr::extent("Item")
        .select(and_all(vec![
            cmp(
                ScalarFunc::Ge,
                attr("shipdate"),
                prm(pid::Q7_DATE_LO, AtomValue::Date(monet::atom::Date::from_ymd(1995, 1, 1))),
            ),
            cmp(
                ScalarFunc::Le,
                attr("shipdate"),
                prm(pid::Q7_DATE_HI, AtomValue::Date(monet::atom::Date::from_ymd(1996, 12, 31))),
            ),
            or(
                pair(pid::Q7_NATION1, &p.q7_nation1, pid::Q7_NATION2, &p.q7_nation2),
                pair(pid::Q7_NATION2, &p.q7_nation2, pid::Q7_NATION1, &p.q7_nation1),
            ),
        ]))
        .project(vec![
            ProjItem::new("supp_nation", attr("supplier.nation.name")),
            ProjItem::new("cust_nation", attr("order.cust.nation.name")),
            ProjItem::new("year", un(ScalarFunc::Year, attr("shipdate"))),
            ProjItem::new("revenue", revenue_expr()),
        ])
        .nest(vec![
            ProjItem::new("supp_nation", attr("supp_nation")),
            ProjItem::new("cust_nation", attr("cust_nation")),
            ProjItem::new("year", attr("year")),
        ])
        .project(vec![
            ProjItem::new("supp_nation", attr("supp_nation")),
            ProjItem::new("cust_nation", attr("cust_nation")),
            ProjItem::new("year", attr("year")),
            ProjItem::new("revenue", agg_over(AggFunc::Sum, sattr(NEST_REST), attr("revenue"))),
        ])
}

pub fn q7_run(cat: &Catalog, ctx: &ExecCtx, p: &Params) -> moa::error::Result<QueryResult> {
    run_moa_rows(cat, ctx, &q7_moa(p))
}

pub fn q7_ref(db: &RelDb, p: &Params, pager: Option<&Pager>) -> RefOutput {
    let n1 = nation_oid(db, &p.q7_nation1);
    let n2 = nation_oid(db, &p.q7_nation2);
    let names = nation_names(db);
    let sup_nation: HashMap<Oid, Oid> = {
        let t = db.table("supplier");
        let (co, cn) = (t.col_index("oid").unwrap(), t.col_index("nation").unwrap());
        (0..t.rows()).map(|r| (t.oid_v(co, r), t.oid_v(cn, r))).collect()
    };
    let cust_nation: HashMap<Oid, Oid> = {
        let t = db.table("customer");
        let (co, cn) = (t.col_index("oid").unwrap(), t.col_index("nation").unwrap());
        (0..t.rows()).map(|r| (t.oid_v(co, r), t.oid_v(cn, r))).collect()
    };
    let order_cust: HashMap<Oid, Oid> = {
        let t = db.table("orders");
        let (co, cc) = (t.col_index("oid").unwrap(), t.col_index("cust").unwrap());
        (0..t.rows()).map(|r| (t.oid_v(co, r), t.oid_v(cc, r))).collect()
    };
    let rows = select_rows(
        db,
        "lineitem",
        "shipdate",
        &ColPred::Range {
            lo: Some(&AtomValue::Date(monet::atom::Date::from_ymd(1995, 1, 1))),
            hi: Some(&AtomValue::Date(monet::atom::Date::from_ymd(1996, 12, 31))),
            inc_lo: true,
            inc_hi: true,
        },
        pager,
    );
    let li = db.table("lineitem");
    let (lo, lsup, le, ld, ls) = (
        li.col_index("order").unwrap(),
        li.col_index("supplier").unwrap(),
        li.col_index("extendedprice").unwrap(),
        li.col_index("discount").unwrap(),
        li.col_index("shipdate").unwrap(),
    );
    let mut rev: HashMap<(Oid, Oid, i32), f64> = HashMap::new();
    let mut item_rows = 0usize;
    for r in rows {
        touch(db, "lineitem", r, pager);
        let r = r as usize;
        let sn = sup_nation[&li.oid_v(lsup, r)];
        let cn = cust_nation[&order_cust[&li.oid_v(lo, r)]];
        let ok = (sn == n1 && cn == n2) || (sn == n2 && cn == n1);
        if !ok {
            continue;
        }
        item_rows += 1;
        let year = li.date_v(ls, r).year();
        *rev.entry((sn, cn, year)).or_insert(0.0) += li.dbl_v(le, r) * (1.0 - li.dbl_v(ld, r));
    }
    let out = rev
        .into_iter()
        .map(|((sn, cn, y), v)| {
            vec![
                AtomValue::str(names[&sn].as_str()),
                AtomValue::str(names[&cn].as_str()),
                AtomValue::Int(y),
                dbl(v),
            ]
        })
        .collect();
    RefOutput { rows: QueryResult(out), item_rows }
}

// ---------------------------------------------------------------------------
// Q8 — national market share within a region, per year.
// ---------------------------------------------------------------------------

fn q8_base(p: &Params) -> SetExpr {
    SetExpr::extent("Item").select(and_all(vec![
        eq(
            attr("order.cust.nation.region.name"),
            prm(pid::Q8_REGION, AtomValue::str(p.q8_region.as_str())),
        ),
        cmp(
            ScalarFunc::Ge,
            attr("order.orderdate"),
            prm(pid::Q8_DATE_LO, AtomValue::Date(monet::atom::Date::from_ymd(1995, 1, 1))),
        ),
        cmp(
            ScalarFunc::Le,
            attr("order.orderdate"),
            prm(pid::Q8_DATE_HI, AtomValue::Date(monet::atom::Date::from_ymd(1996, 12, 31))),
        ),
        cmp(
            ScalarFunc::StrContains,
            attr("part.type"),
            prm(pid::Q8_TYPE, AtomValue::str(p.q8_type_contains.as_str())),
        ),
    ]))
}

fn yearly_revenue(input: SetExpr) -> SetExpr {
    input
        .project(vec![
            ProjItem::new("year", un(ScalarFunc::Year, attr("order.orderdate"))),
            ProjItem::new("revenue", revenue_expr()),
        ])
        .nest(vec![ProjItem::new("year", attr("year"))])
        .project(vec![
            ProjItem::new("year", attr("year")),
            ProjItem::new("revenue", agg_over(AggFunc::Sum, sattr(NEST_REST), attr("revenue"))),
        ])
}

/// Q8's first statement: revenue per year of the region's qualifying items.
pub fn q8_total_moa(p: &Params) -> SetExpr {
    yearly_revenue(q8_base(p))
}

/// Q8's second statement: the same, for the items one nation supplied.
pub fn q8_nation_moa(p: &Params) -> SetExpr {
    yearly_revenue(q8_base(p).select(eq(
        attr("supplier.nation.name"),
        prm(pid::Q8_NATION, AtomValue::str(p.q8_nation.as_str())),
    )))
}

pub fn q8_run(cat: &Catalog, ctx: &ExecCtx, p: &Params) -> moa::error::Result<QueryResult> {
    let total = run_moa_rows(cat, ctx, &q8_total_moa(p))?;
    let nat = run_moa_rows(cat, ctx, &q8_nation_moa(p))?;
    // share(year) = nation revenue / total revenue (0 when absent).
    let nat_by_year: HashMap<i32, f64> = nat
        .0
        .iter()
        .map(|row| match (&row[0], &row[1]) {
            (AtomValue::Int(y), AtomValue::Dbl(v)) => (*y, *v),
            other => panic!("unexpected q8 row {other:?}"),
        })
        .collect();
    let mut out = Vec::new();
    for row in total.0 {
        let (AtomValue::Int(y), AtomValue::Dbl(t)) = (&row[0], &row[1]) else {
            panic!("unexpected q8 row");
        };
        let share = nat_by_year.get(y).copied().unwrap_or(0.0) / t;
        out.push(vec![AtomValue::Int(*y), dbl(share)]);
    }
    Ok(QueryResult(out))
}

pub fn q8_ref(db: &RelDb, p: &Params, pager: Option<&Pager>) -> RefOutput {
    let region_nations = nations_of_region(db, &p.q8_region);
    let brazil = nation_oid(db, &p.q8_nation);
    let sup_nation: HashMap<Oid, Oid> = {
        let t = db.table("supplier");
        let (co, cn) = (t.col_index("oid").unwrap(), t.col_index("nation").unwrap());
        (0..t.rows()).map(|r| (t.oid_v(co, r), t.oid_v(cn, r))).collect()
    };
    let cust_nation: HashMap<Oid, Oid> = {
        let t = db.table("customer");
        let (co, cn) = (t.col_index("oid").unwrap(), t.col_index("nation").unwrap());
        (0..t.rows()).map(|r| (t.oid_v(co, r), t.oid_v(cn, r))).collect()
    };
    let part_ok: std::collections::HashSet<Oid> = {
        let t = db.table("part");
        let (co, ct) = (t.col_index("oid").unwrap(), t.col_index("type").unwrap());
        (0..t.rows())
            .filter(|&r| t.str_v(ct, r).contains(&p.q8_type_contains))
            .map(|r| t.oid_v(co, r))
            .collect()
    };
    let orders = db.table("orders");
    let (oo, oc, od) = (
        orders.col_index("oid").unwrap(),
        orders.col_index("cust").unwrap(),
        orders.col_index("orderdate").unwrap(),
    );
    let orows = select_rows(
        db,
        "orders",
        "orderdate",
        &ColPred::Range {
            lo: Some(&AtomValue::Date(monet::atom::Date::from_ymd(1995, 1, 1))),
            hi: Some(&AtomValue::Date(monet::atom::Date::from_ymd(1996, 12, 31))),
            inc_lo: true,
            inc_hi: true,
        },
        pager,
    );
    let mut order_year: HashMap<Oid, i32> = HashMap::new();
    for r in orows {
        touch(db, "orders", r, pager);
        let r = r as usize;
        if region_nations.contains(&cust_nation[&orders.oid_v(oc, r)]) {
            order_year.insert(orders.oid_v(oo, r), orders.date_v(od, r).year());
        }
    }
    let li = db.table("lineitem");
    let (lo, lp, lsup, le, ld) = (
        li.col_index("order").unwrap(),
        li.col_index("part").unwrap(),
        li.col_index("supplier").unwrap(),
        li.col_index("extendedprice").unwrap(),
        li.col_index("discount").unwrap(),
    );
    let mut total: HashMap<i32, f64> = HashMap::new();
    let mut nat: HashMap<i32, f64> = HashMap::new();
    let mut item_rows = 0usize;
    for r in 0..li.rows() {
        if let Some(pg) = pager {
            li.touch_row(pg, r);
        }
        let Some(&year) = order_year.get(&li.oid_v(lo, r)) else { continue };
        if !part_ok.contains(&li.oid_v(lp, r)) {
            continue;
        }
        item_rows += 1;
        let v = li.dbl_v(le, r) * (1.0 - li.dbl_v(ld, r));
        *total.entry(year).or_insert(0.0) += v;
        if sup_nation[&li.oid_v(lsup, r)] == brazil {
            *nat.entry(year).or_insert(0.0) += v;
        }
    }
    let out = total
        .into_iter()
        .map(|(y, t)| vec![AtomValue::Int(y), dbl(nat.get(&y).copied().unwrap_or(0.0) / t)])
        .collect();
    RefOutput { rows: QueryResult(out), item_rows }
}

// ---------------------------------------------------------------------------
// Q9 — product-type profit, by nation and year.
// ---------------------------------------------------------------------------

pub fn q9_moa(p: &Params) -> SetExpr {
    let items = SetExpr::extent("Item").select(cmp(
        ScalarFunc::StrContains,
        attr("part.name"),
        prm(pid::Q9_COLOR, AtomValue::str(p.q9_color.as_str())),
    ));
    let supplies = SetExpr::extent("Supplier").unnest(sattr("supplies"), "sup", "sp");
    items
        .join_eq(supplies, attr("part"), attr("sp.part"), "i", "x")
        .select(eq(attr("i.supplier"), attr("x.sup")))
        .project(vec![
            ProjItem::new("nation", attr("i.supplier.nation.name")),
            ProjItem::new("year", un(ScalarFunc::Year, attr("i.order.orderdate"))),
            ProjItem::new(
                "profit",
                bin(
                    ScalarFunc::Sub,
                    bin(
                        ScalarFunc::Mul,
                        attr("i.extendedprice"),
                        bin(ScalarFunc::Sub, lit_d(1.0), attr("i.discount")),
                    ),
                    bin(ScalarFunc::Mul, attr("x.sp.cost"), attr("i.quantity")),
                ),
            ),
        ])
        .nest(vec![ProjItem::new("nation", attr("nation")), ProjItem::new("year", attr("year"))])
        .project(vec![
            ProjItem::new("nation", attr("nation")),
            ProjItem::new("year", attr("year")),
            ProjItem::new("profit", agg_over(AggFunc::Sum, sattr(NEST_REST), attr("profit"))),
        ])
}

pub fn q9_run(cat: &Catalog, ctx: &ExecCtx, p: &Params) -> moa::error::Result<QueryResult> {
    run_moa_rows(cat, ctx, &q9_moa(p))
}

pub fn q9_ref(db: &RelDb, p: &Params, pager: Option<&Pager>) -> RefOutput {
    let names = nation_names(db);
    let part_ok: std::collections::HashSet<Oid> = {
        let t = db.table("part");
        let (co, cn) = (t.col_index("oid").unwrap(), t.col_index("name").unwrap());
        (0..t.rows())
            .filter(|&r| t.str_v(cn, r).contains(&p.q9_color))
            .map(|r| t.oid_v(co, r))
            .collect()
    };
    let sup_nation: HashMap<Oid, Oid> = {
        let t = db.table("supplier");
        let (co, cn) = (t.col_index("oid").unwrap(), t.col_index("nation").unwrap());
        (0..t.rows()).map(|r| (t.oid_v(co, r), t.oid_v(cn, r))).collect()
    };
    let supply_cost: HashMap<(Oid, Oid), f64> = {
        let t = db.table("partsupp");
        let (cs, cp, cc) = (
            t.col_index("supplier").unwrap(),
            t.col_index("part").unwrap(),
            t.col_index("cost").unwrap(),
        );
        (0..t.rows()).map(|r| ((t.oid_v(cp, r), t.oid_v(cs, r)), t.dbl_v(cc, r))).collect()
    };
    let order_year: HashMap<Oid, i32> = {
        let t = db.table("orders");
        let (co, cd) = (t.col_index("oid").unwrap(), t.col_index("orderdate").unwrap());
        (0..t.rows()).map(|r| (t.oid_v(co, r), t.date_v(cd, r).year())).collect()
    };
    let li = db.table("lineitem");
    let (lo, lp, lsup, le, ld, lq) = (
        li.col_index("order").unwrap(),
        li.col_index("part").unwrap(),
        li.col_index("supplier").unwrap(),
        li.col_index("extendedprice").unwrap(),
        li.col_index("discount").unwrap(),
        li.col_index("quantity").unwrap(),
    );
    let mut profit: HashMap<(Oid, i32), f64> = HashMap::new();
    let mut item_rows = 0usize;
    for r in 0..li.rows() {
        if let Some(pg) = pager {
            li.touch_row(pg, r);
        }
        let part = li.oid_v(lp, r);
        if !part_ok.contains(&part) {
            continue;
        }
        let sup = li.oid_v(lsup, r);
        // Items reference (part, supplier) pairs that may not exist in
        // partsupp (independent generation); both engines join, so both
        // drop those items.
        let Some(&cost) = supply_cost.get(&(part, sup)) else { continue };
        item_rows += 1;
        let year = order_year[&li.oid_v(lo, r)];
        let v = li.dbl_v(le, r) * (1.0 - li.dbl_v(ld, r)) - cost * li.int_v(lq, r) as f64;
        *profit.entry((sup_nation[&sup], year)).or_insert(0.0) += v;
    }
    let out = profit
        .into_iter()
        .map(|((n, y), v)| vec![AtomValue::str(names[&n].as_str()), AtomValue::Int(y), dbl(v)])
        .collect();
    RefOutput { rows: QueryResult(out), item_rows }
}

// ---------------------------------------------------------------------------
// Q10 — top 20 customers with problematic (returned) parts.
// ---------------------------------------------------------------------------

pub fn q10_moa(p: &Params) -> SetExpr {
    SetExpr::extent("Item")
        .select(and_all(vec![
            eq(attr("returnflag"), lit_c('R')),
            cmp(
                ScalarFunc::Ge,
                attr("order.orderdate"),
                prm(pid::Q10_DATE_LO, AtomValue::Date(p.q10_date)),
            ),
            cmp(
                ScalarFunc::Lt,
                attr("order.orderdate"),
                prm(pid::Q10_DATE_HI, AtomValue::Date(p.q10_date.add_months(3))),
            ),
        ]))
        .project(vec![
            ProjItem::new("cust", attr("order.cust")),
            ProjItem::new("revenue", revenue_expr()),
        ])
        .nest(vec![ProjItem::new("cust", attr("cust"))])
        .project(vec![
            ProjItem::new("cust", attr("cust")),
            ProjItem::new("name", attr("cust.name")),
            ProjItem::new("acctbal", attr("cust.acctbal")),
            ProjItem::new("revenue", agg_over(AggFunc::Sum, sattr(NEST_REST), attr("revenue"))),
        ])
        .top(attr("revenue"), 20, true)
}

pub fn q10_run(cat: &Catalog, ctx: &ExecCtx, p: &Params) -> moa::error::Result<QueryResult> {
    run_moa_rows(cat, ctx, &q10_moa(p))
}

pub fn q10_ref(db: &RelDb, p: &Params, pager: Option<&Pager>) -> RefOutput {
    let hi = p.q10_date.add_months(3);
    let orows = select_rows(
        db,
        "orders",
        "orderdate",
        &ColPred::Range {
            lo: Some(&AtomValue::Date(p.q10_date)),
            hi: Some(&AtomValue::Date(hi)),
            inc_lo: true,
            inc_hi: false,
        },
        pager,
    );
    let orders = db.table("orders");
    let (oo, oc) = (orders.col_index("oid").unwrap(), orders.col_index("cust").unwrap());
    let order_cust: HashMap<Oid, Oid> = orows
        .iter()
        .map(|&r| {
            touch(db, "orders", r, pager);
            (orders.oid_v(oo, r as usize), orders.oid_v(oc, r as usize))
        })
        .collect();
    let rrows =
        select_rows(db, "lineitem", "returnflag", &ColPred::Eq(&AtomValue::Chr(b'R')), pager);
    let li = db.table("lineitem");
    let (lo, le, ld) = (
        li.col_index("order").unwrap(),
        li.col_index("extendedprice").unwrap(),
        li.col_index("discount").unwrap(),
    );
    let mut rev: HashMap<Oid, f64> = HashMap::new();
    let mut item_rows = 0usize;
    for r in rrows {
        touch(db, "lineitem", r, pager);
        let r = r as usize;
        let Some(&cust) = order_cust.get(&li.oid_v(lo, r)) else { continue };
        item_rows += 1;
        *rev.entry(cust).or_insert(0.0) += li.dbl_v(le, r) * (1.0 - li.dbl_v(ld, r));
    }
    let cust = db.table("customer");
    let cmap = oid_map(db, "customer");
    let (cn, cb) = (cust.col_index("name").unwrap(), cust.col_index("acctbal").unwrap());
    let mut entries: Vec<(Oid, f64)> = rev.into_iter().collect();
    entries.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    entries.truncate(20);
    let out = entries
        .into_iter()
        .map(|(c, v)| {
            let row = cmap[&c];
            touch(db, "customer", row, pager);
            vec![
                AtomValue::Oid(c),
                AtomValue::str(cust.str_v(cn, row as usize)),
                dbl(cust.dbl_v(cb, row as usize)),
                dbl(v),
            ]
        })
        .collect();
    RefOutput { rows: QueryResult(out), item_rows }
}
