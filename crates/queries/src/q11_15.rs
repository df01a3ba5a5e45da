//! TPC-D queries 11–15: important stock, shipping modes, the paper's Q13,
//! promotion effect, top supplier.

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
// Q11 — significant stock per nation (value > fraction of the total).
// ---------------------------------------------------------------------------

fn q11_base(p: &Params) -> SetExpr {
    SetExpr::extent("Supplier")
        .select(eq(
            attr("nation.name"),
            prm(pid::Q11_NATION, AtomValue::str(p.q11_nation.as_str())),
        ))
        .unnest(sattr("supplies"), "sup", "sp")
}

fn q11_value() -> Scalar {
    bin(ScalarFunc::Mul, attr("sp.cost"), attr("sp.available"))
}

/// Q11's first program: the stock value of every supply of the nation,
/// which [`q11_threshold`] sums.
pub fn q11_total_moa(p: &Params) -> SetExpr {
    scalar_input(q11_base(p), q11_value())
}

/// Q11's threshold: a fraction of the nation's total stock value.
pub fn q11_threshold(cat: &Catalog, ctx: &ExecCtx, p: &Params) -> moa::error::Result<f64> {
    let total = run_moa_scalar(cat, ctx, &q11_total_moa(p), AggFunc::Sum)?;
    let AtomValue::Dbl(total) = total else {
        return Err(moa::error::MoaError::Type("q11 total must be dbl".into()));
    };
    Ok(total * p.q11_fraction)
}

/// Q11's second program: the per-part values above `threshold`.
pub fn q11_parts_moa(p: &Params, threshold: f64) -> SetExpr {
    q11_base(p)
        .nest(vec![ProjItem::new("part", attr("sp.part"))])
        .project(vec![
            ProjItem::new("part", attr("part")),
            ProjItem::new(
                "value",
                agg_over(
                    AggFunc::Sum,
                    sattr(NEST_REST),
                    bin(ScalarFunc::Mul, attr("sp.cost"), attr("sp.available")),
                ),
            ),
        ])
        .select(cmp(
            ScalarFunc::Gt,
            attr("value"),
            prm(pid::Q11_THRESHOLD, AtomValue::Dbl(threshold)),
        ))
}

pub fn q11_run(cat: &Catalog, ctx: &ExecCtx, p: &Params) -> moa::error::Result<QueryResult> {
    let threshold = q11_threshold(cat, ctx, p)?;
    run_moa_rows(cat, ctx, &q11_parts_moa(p, threshold))
}

pub fn q11_ref(db: &RelDb, p: &Params, pager: Option<&Pager>) -> RefOutput {
    let nation = nation_oid(db, &p.q11_nation);
    let german_sup: std::collections::HashSet<Oid> = {
        let t = db.table("supplier");
        let (co, cn) = (t.col_index("oid").unwrap(), t.col_index("nation").unwrap());
        (0..t.rows()).filter(|&r| t.oid_v(cn, r) == nation).map(|r| t.oid_v(co, r)).collect()
    };
    let ps = db.table("partsupp");
    let (cs, cp, cc, ca) = (
        ps.col_index("supplier").unwrap(),
        ps.col_index("part").unwrap(),
        ps.col_index("cost").unwrap(),
        ps.col_index("available").unwrap(),
    );
    let mut per_part: HashMap<Oid, f64> = HashMap::new();
    let mut total = 0.0;
    for r in 0..ps.rows() {
        if let Some(pg) = pager {
            ps.touch_row(pg, r);
        }
        if !german_sup.contains(&ps.oid_v(cs, r)) {
            continue;
        }
        let v = ps.dbl_v(cc, r) * ps.int_v(ca, r) as f64;
        total += v;
        *per_part.entry(ps.oid_v(cp, r)).or_insert(0.0) += v;
    }
    let threshold = total * p.q11_fraction;
    let out = per_part
        .into_iter()
        .filter(|(_, v)| *v > threshold)
        .map(|(part, v)| vec![AtomValue::Oid(part), dbl(v)])
        .collect();
    RefOutput { rows: QueryResult(out), item_rows: 0 }
}

// ---------------------------------------------------------------------------
// Q12 — cheap shipping modes vs. critical orders.
// ---------------------------------------------------------------------------

pub fn q12_moa(p: &Params) -> SetExpr {
    SetExpr::extent("Item")
        .select(and_all(vec![
            or(
                eq(attr("shipmode"), prm(pid::Q12_MODE1, AtomValue::str(p.q12_mode1.as_str()))),
                eq(attr("shipmode"), prm(pid::Q12_MODE2, AtomValue::str(p.q12_mode2.as_str()))),
            ),
            cmp(
                ScalarFunc::Ge,
                attr("receiptdate"),
                prm(pid::Q12_DATE_LO, AtomValue::Date(p.q12_date)),
            ),
            cmp(
                ScalarFunc::Lt,
                attr("receiptdate"),
                prm(pid::Q12_DATE_HI, AtomValue::Date(p.q12_date.add_months(12))),
            ),
            cmp(ScalarFunc::Lt, attr("commitdate"), attr("receiptdate")),
            cmp(ScalarFunc::Lt, attr("shipdate"), attr("commitdate")),
        ]))
        .project(vec![
            ProjItem::new("mode", attr("shipmode")),
            ProjItem::new("priority", attr("order.orderpriority")),
        ])
        .nest(vec![
            ProjItem::new("mode", attr("mode")),
            ProjItem::new("priority", attr("priority")),
        ])
        .project(vec![
            ProjItem::new("mode", attr("mode")),
            ProjItem::new("priority", attr("priority")),
            ProjItem::new("count", agg(AggFunc::Count, sattr(NEST_REST))),
        ])
}

pub fn q12_run(cat: &Catalog, ctx: &ExecCtx, p: &Params) -> moa::error::Result<QueryResult> {
    run_moa_rows(cat, ctx, &q12_moa(p))
}

pub fn q12_ref(db: &RelDb, p: &Params, pager: Option<&Pager>) -> RefOutput {
    let order_prio: HashMap<Oid, String> = {
        let t = db.table("orders");
        let (co, cp) = (t.col_index("oid").unwrap(), t.col_index("orderpriority").unwrap());
        (0..t.rows()).map(|r| (t.oid_v(co, r), t.str_v(cp, r).to_string())).collect()
    };
    let li = db.table("lineitem");
    let (lo, lm, lr, lc, ls) = (
        li.col_index("order").unwrap(),
        li.col_index("shipmode").unwrap(),
        li.col_index("receiptdate").unwrap(),
        li.col_index("commitdate").unwrap(),
        li.col_index("shipdate").unwrap(),
    );
    let hi = p.q12_date.add_months(12);
    let mut counts: HashMap<(String, String), i64> = HashMap::new();
    let mut item_rows = 0usize;
    for r in 0..li.rows() {
        if let Some(pg) = pager {
            li.touch_row(pg, r);
        }
        let mode = li.str_v(lm, r);
        if mode != p.q12_mode1 && mode != p.q12_mode2 {
            continue;
        }
        let receipt = li.date_v(lr, r);
        if receipt < p.q12_date || receipt >= hi {
            continue;
        }
        if !(li.date_v(lc, r) < receipt && li.date_v(ls, r) < li.date_v(lc, r)) {
            continue;
        }
        item_rows += 1;
        let prio = order_prio[&li.oid_v(lo, r)].clone();
        *counts.entry((mode.to_string(), prio)).or_insert(0) += 1;
    }
    let out = counts
        .into_iter()
        .map(|((m, pr), c)| vec![AtomValue::str(m.as_str()), AtomValue::str(pr.as_str()), lng(c)])
        .collect();
    RefOutput { rows: QueryResult(out), item_rows }
}

// ---------------------------------------------------------------------------
// Q13 — the paper's running example: loss due to returned orders of one
// clerk, per year (Section 4.1, Figures 5 and 10).
// ---------------------------------------------------------------------------

pub fn q13_moa(p: &Params) -> SetExpr {
    SetExpr::extent("Item")
        .select(and(
            eq(attr("order.clerk"), prm(pid::Q13_CLERK, AtomValue::str(p.q13_clerk.as_str()))),
            eq(attr("returnflag"), lit_c('R')),
        ))
        .project(vec![
            ProjItem::new("date", un(ScalarFunc::Year, attr("order.orderdate"))),
            ProjItem::new("revenue", revenue_expr()),
        ])
        .nest(vec![ProjItem::new("date", attr("date"))])
        .project(vec![
            ProjItem::new("date", attr("date")),
            ProjItem::new("loss", agg_over(AggFunc::Sum, sattr(NEST_REST), attr("revenue"))),
        ])
}

pub fn q13_run(cat: &Catalog, ctx: &ExecCtx, p: &Params) -> moa::error::Result<QueryResult> {
    run_moa_rows(cat, ctx, &q13_moa(p))
}

pub fn q13_ref(db: &RelDb, p: &Params, pager: Option<&Pager>) -> RefOutput {
    let orows = select_rows(
        db,
        "orders",
        "clerk",
        &ColPred::Eq(&AtomValue::str(p.q13_clerk.as_str())),
        pager,
    );
    let orders = db.table("orders");
    let (oo, od) = (orders.col_index("oid").unwrap(), orders.col_index("orderdate").unwrap());
    let order_year: HashMap<Oid, i32> = orows
        .iter()
        .map(|&r| {
            touch(db, "orders", r, pager);
            (orders.oid_v(oo, r as usize), orders.date_v(od, r as usize).year())
        })
        .collect();
    let li = db.table("lineitem");
    let (lo, lf, le, ld) = (
        li.col_index("order").unwrap(),
        li.col_index("returnflag").unwrap(),
        li.col_index("extendedprice").unwrap(),
        li.col_index("discount").unwrap(),
    );
    let mut loss: HashMap<i32, f64> = HashMap::new();
    let mut item_rows = 0usize;
    for r in 0..li.rows() {
        if let Some(pg) = pager {
            li.touch_row(pg, r);
        }
        let Some(&year) = order_year.get(&li.oid_v(lo, r)) else { continue };
        if li.chr_v(lf, r) != b'R' {
            continue;
        }
        item_rows += 1;
        *loss.entry(year).or_insert(0.0) += li.dbl_v(le, r) * (1.0 - li.dbl_v(ld, r));
    }
    let out = loss.into_iter().map(|(y, v)| vec![AtomValue::Int(y), dbl(v)]).collect();
    RefOutput { rows: QueryResult(out), item_rows }
}

// ---------------------------------------------------------------------------
// Q14 — promotion effect (share of promo-part revenue in one month).
// ---------------------------------------------------------------------------

fn q14_month(p: &Params) -> Pred {
    and(
        cmp(ScalarFunc::Ge, attr("shipdate"), prm(pid::Q14_DATE_LO, AtomValue::Date(p.q14_date))),
        cmp(
            ScalarFunc::Lt,
            attr("shipdate"),
            prm(pid::Q14_DATE_HI, AtomValue::Date(p.q14_date.add_months(1))),
        ),
    )
}

/// Q14's first program: the revenue of the month's items.
pub fn q14_total_moa(p: &Params) -> SetExpr {
    scalar_input(SetExpr::extent("Item").select(q14_month(p)), revenue_expr())
}

/// Q14's second program: the revenue of the month's promotion items.
pub fn q14_promo_moa(p: &Params) -> SetExpr {
    scalar_input(
        SetExpr::extent("Item").select(and(
            q14_month(p),
            cmp(ScalarFunc::StrPrefix, attr("part.type"), lit_s("PROMO")),
        )),
        revenue_expr(),
    )
}

pub fn q14_run(cat: &Catalog, ctx: &ExecCtx, p: &Params) -> moa::error::Result<QueryResult> {
    let total = run_moa_scalar(cat, ctx, &q14_total_moa(p), AggFunc::Sum)?;
    let promo = run_moa_scalar(cat, ctx, &q14_promo_moa(p), AggFunc::Sum)?;
    let (AtomValue::Dbl(t), AtomValue::Dbl(pr)) = (total, promo) else {
        return Err(moa::error::MoaError::Type("q14 sums must be dbl".into()));
    };
    Ok(QueryResult(vec![vec![dbl(100.0 * pr / t)]]))
}

pub fn q14_ref(db: &RelDb, p: &Params, pager: Option<&Pager>) -> RefOutput {
    let promo_parts: std::collections::HashSet<Oid> = {
        let t = db.table("part");
        let (co, ct) = (t.col_index("oid").unwrap(), t.col_index("type").unwrap());
        (0..t.rows())
            .filter(|&r| t.str_v(ct, r).starts_with("PROMO"))
            .map(|r| t.oid_v(co, r))
            .collect()
    };
    let hi = p.q14_date.add_months(1);
    let rows = select_rows(
        db,
        "lineitem",
        "shipdate",
        &ColPred::Range {
            lo: Some(&AtomValue::Date(p.q14_date)),
            hi: Some(&AtomValue::Date(hi)),
            inc_lo: true,
            inc_hi: false,
        },
        pager,
    );
    let li = db.table("lineitem");
    let (lp, le, ld) = (
        li.col_index("part").unwrap(),
        li.col_index("extendedprice").unwrap(),
        li.col_index("discount").unwrap(),
    );
    let mut total = 0.0;
    let mut promo = 0.0;
    for r in &rows {
        touch(db, "lineitem", *r, pager);
        let r = *r as usize;
        let v = li.dbl_v(le, r) * (1.0 - li.dbl_v(ld, r));
        total += v;
        if promo_parts.contains(&li.oid_v(lp, r)) {
            promo += v;
        }
    }
    RefOutput { rows: QueryResult(vec![vec![dbl(100.0 * promo / total)]]), item_rows: rows.len() }
}

// ---------------------------------------------------------------------------
// Q15 — identify the top supplier of a quarter.
// ---------------------------------------------------------------------------

pub fn q15_moa(p: &Params) -> SetExpr {
    SetExpr::extent("Item")
        .select(and(
            cmp(
                ScalarFunc::Ge,
                attr("shipdate"),
                prm(pid::Q15_DATE_LO, AtomValue::Date(p.q15_date)),
            ),
            cmp(
                ScalarFunc::Lt,
                attr("shipdate"),
                prm(pid::Q15_DATE_HI, AtomValue::Date(p.q15_date.add_months(3))),
            ),
        ))
        .project(vec![
            ProjItem::new("sup", attr("supplier")),
            ProjItem::new("revenue", revenue_expr()),
        ])
        .nest(vec![ProjItem::new("sup", attr("sup"))])
        .project(vec![
            ProjItem::new("name", attr("sup.name")),
            ProjItem::new("total", agg_over(AggFunc::Sum, sattr(NEST_REST), attr("revenue"))),
        ])
        .top(attr("total"), 1, true)
}

pub fn q15_run(cat: &Catalog, ctx: &ExecCtx, p: &Params) -> moa::error::Result<QueryResult> {
    run_moa_rows(cat, ctx, &q15_moa(p))
}

pub fn q15_ref(db: &RelDb, p: &Params, pager: Option<&Pager>) -> RefOutput {
    let hi = p.q15_date.add_months(3);
    let rows = select_rows(
        db,
        "lineitem",
        "shipdate",
        &ColPred::Range {
            lo: Some(&AtomValue::Date(p.q15_date)),
            hi: Some(&AtomValue::Date(hi)),
            inc_lo: true,
            inc_hi: false,
        },
        pager,
    );
    let li = db.table("lineitem");
    let (lsup, le, ld) = (
        li.col_index("supplier").unwrap(),
        li.col_index("extendedprice").unwrap(),
        li.col_index("discount").unwrap(),
    );
    let mut rev: HashMap<Oid, f64> = HashMap::new();
    for r in &rows {
        touch(db, "lineitem", *r, pager);
        let r = *r as usize;
        *rev.entry(li.oid_v(lsup, r)).or_insert(0.0) += li.dbl_v(le, r) * (1.0 - li.dbl_v(ld, r));
    }
    let best = rev.iter().max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(a.0)));
    let out = match best {
        Some((&sup, &total)) => {
            let cmap = oid_map(db, "supplier");
            let t = db.table("supplier");
            let cn = t.col_index("name").unwrap();
            let row = cmap[&sup];
            touch(db, "supplier", row, pager);
            vec![vec![AtomValue::str(t.str_v(cn, row as usize)), dbl(total)]]
        }
        None => Vec::new(),
    };
    RefOutput { rows: QueryResult(out), item_rows: rows.len() }
}
