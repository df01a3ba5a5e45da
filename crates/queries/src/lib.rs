//! # tpcd-queries — the evaluation workload of Figure 9
//!
//! The fifteen TPC-D decision-support queries, each in two forms:
//!
//! * **MOA**: built with the [`moa::algebra`] constructors, translated to
//!   MIL by the term rewriter and executed on the [`monet`] kernel — the
//!   paper's execution path;
//! * **reference**: a conventional row-at-a-time plan on the
//!   [`relstore`] n-ary baseline — standing in for the DB2 column of
//!   Figure 9 and doubling as the correctness oracle.
//!
//! Multi-statement queries (Q8's market share, Q11's threshold, Q14's
//! ratio) run several MIL programs and combine the scalars in the driver,
//! exactly as a client application would; Q8's two statements are exported
//! as `q8_total_moa` / `q8_nation_moa`.

pub mod params;
pub mod q01_05;
pub mod q06_10;
pub mod q11_15;
pub mod refutil;
pub mod runner;

use moa::catalog::Catalog;
use monet::ctx::ExecCtx;
use monet::pager::Pager;
use relstore::RelDb;

pub use params::Params;
pub use runner::{run_moa_rows, run_moa_scalar, QueryResult};

/// Output of a reference plan: the rows plus the number of `Item` rows the
/// query's item-level predicates selected (the "Item select%" column of
/// Figure 9; 0 marks the paper's "n.a.").
pub struct RefOutput {
    pub rows: QueryResult,
    pub item_rows: usize,
}

/// One benchmark query: id, Figure 9 comment, and both execution paths.
pub struct Query {
    pub id: usize,
    pub comment: &'static str,
    pub run_moa: fn(&Catalog, &ExecCtx, &Params) -> moa::error::Result<QueryResult>,
    pub run_ref: fn(&RelDb, &Params, Option<&Pager>) -> RefOutput,
}

/// All fifteen queries in benchmark order, with the comments of Figure 9.
pub fn all_queries() -> Vec<Query> {
    vec![
        Query {
            id: 1,
            comment: "billing aggregates over the big table",
            run_moa: q01_05::q1_run,
            run_ref: q01_05::q1_ref,
        },
        Query {
            id: 2,
            comment: "cheapest part supplier for a region",
            run_moa: q01_05::q2_run,
            run_ref: q01_05::q2_ref,
        },
        Query {
            id: 3,
            comment: "find top-10 valuable orders",
            run_moa: q01_05::q3_run,
            run_ref: q01_05::q3_ref,
        },
        Query {
            id: 4,
            comment: "priority assessment, customer satisfaction",
            run_moa: q01_05::q4_run,
            run_ref: q01_05::q4_ref,
        },
        Query {
            id: 5,
            comment: "revenue per local supplier",
            run_moa: q01_05::q5_run,
            run_ref: q01_05::q5_ref,
        },
        Query {
            id: 6,
            comment: "benefits if discounts abolished",
            run_moa: q06_10::q6_run,
            run_ref: q06_10::q6_ref,
        },
        Query {
            id: 7,
            comment: "value of shipped goods between 2 nations",
            run_moa: q06_10::q7_run,
            run_ref: q06_10::q7_ref,
        },
        Query {
            id: 8,
            comment: "part market share change for a region",
            run_moa: q06_10::q8_run,
            run_ref: q06_10::q8_ref,
        },
        Query {
            id: 9,
            comment: "line of parts profit for year and nation",
            run_moa: q06_10::q9_run,
            run_ref: q06_10::q9_ref,
        },
        Query {
            id: 10,
            comment: "top-20 customers with problematic parts",
            run_moa: q06_10::q10_run,
            run_ref: q06_10::q10_ref,
        },
        Query {
            id: 11,
            comment: "significant stock per nation",
            run_moa: q11_15::q11_run,
            run_ref: q11_15::q11_ref,
        },
        Query {
            id: 12,
            comment: "cheap shipping affecting critical orders",
            run_moa: q11_15::q12_run,
            run_ref: q11_15::q12_ref,
        },
        Query {
            id: 13,
            comment: "loss due to returned orders of a clerk",
            run_moa: q11_15::q13_run,
            run_ref: q11_15::q13_ref,
        },
        Query {
            id: 14,
            comment: "market change after a campaign date",
            run_moa: q11_15::q14_run,
            run_ref: q11_15::q14_ref,
        },
        Query {
            id: 15,
            comment: "identify the top supplier",
            run_moa: q11_15::q15_run,
            run_ref: q11_15::q15_ref,
        },
    ]
}
