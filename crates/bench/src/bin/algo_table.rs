//! Where a TPC-D pass spends its time, by `(operator, algorithm)`.
//!
//! Runs the MIL programs of all fifteen queries (eighteen programs: Q8,
//! Q11 and Q14 run two each, and the scalar drivers of Q6, Q11 and Q14
//! reduce their program's result outside MIL), takes the per-statement
//! median of `RUNS` executions' statement profiles, and prints (1) every
//! statement at or above 1 ms per program, with its result's rows and
//! bytes (ms over rows is what exposes a row-at-a-time statement), and
//! (2) the share of the summed statement time each `(op, algo)` pair
//! carries — the attribution table ROADMAP item 1 orders its work by.
//!
//! Each program's line also prints the process's minor page faults per
//! execution (median, [`monet::pager::process_faults`]). Its milliseconds
//! include the first-touch faults of the buffers it allocates, which a
//! long-running process that reuses its heap mostly does not pay: compare
//! two builds at equal fault counts, and read the benchmark's
//! `pager.minflt` for the steady state.
//!
//! Usage: `FLATALG_SF=0.1 cargo run --release -p bench --bin algo_table
//! [-- --query N | --all]` — `--query N` runs query N alone and prints
//! every one of its statements, `--all` lifts the 1 ms cut for every
//! program (the free `semijoin/sync` and `join/sync` lines are what
//! explain why a plan's later statements are cheap).

use std::collections::BTreeMap;

use bench::{positive_from_env, World};
use moa::algebra::SetExpr;
use monet::ctx::ExecCtx;
use monet::mil::MilOp;
use tpcd_queries::{q01_05, q06_10, q11_15};

const RUNS: usize = 5;

type Builder = fn(&World) -> SetExpr;

/// (query id, program label, builder)
const QUERIES: [(usize, &str, Builder); 18] = [
    (1, "Q1", |w| q01_05::q1_moa(&w.params)),
    (2, "Q2", |w| q01_05::q2_moa(&w.params)),
    (3, "Q3", |w| q01_05::q3_moa(&w.params)),
    (4, "Q4", |w| q01_05::q4_moa(&w.params)),
    (5, "Q5", |w| q01_05::q5_moa(&w.params)),
    (6, "Q6", |w| q06_10::q6_moa(&w.params)),
    (7, "Q7", |w| q06_10::q7_moa(&w.params)),
    (8, "Q8 total", |w| q06_10::q8_total_moa(&w.params)),
    (8, "Q8 nation", |w| q06_10::q8_nation_moa(&w.params)),
    (9, "Q9", |w| q06_10::q9_moa(&w.params)),
    (10, "Q10", |w| q06_10::q10_moa(&w.params)),
    (11, "Q11 total", |w| q11_15::q11_total_moa(&w.params)),
    (11, "Q11 parts", |w| {
        let threshold = q11_15::q11_threshold(&w.cat, &ExecCtx::new(), &w.params);
        q11_15::q11_parts_moa(&w.params, threshold.expect("Q11 threshold"))
    }),
    (12, "Q12", |w| q11_15::q12_moa(&w.params)),
    (13, "Q13", |w| q11_15::q13_moa(&w.params)),
    (14, "Q14 total", |w| q11_15::q14_total_moa(&w.params)),
    (14, "Q14 promo", |w| q11_15::q14_promo_moa(&w.params)),
    (15, "Q15", |w| q11_15::q15_moa(&w.params)),
];

fn op_name(op: &MilOp) -> &'static str {
    match op {
        MilOp::SelectEq(..) | MilOp::SelectRange { .. } => "select",
        MilOp::Join(..) => "join",
        MilOp::Semijoin(..) | MilOp::Antijoin(..) => "semijoin",
        MilOp::Group1(..) | MilOp::Group2(..) | MilOp::Unique(..) => "group",
        MilOp::SetAgg { .. } | MilOp::AggrScalar { .. } => "aggregate",
        MilOp::Multiplex { .. } => "multiplex",
        MilOp::SortTail(..) | MilOp::SortHead(..) | MilOp::TopN { .. } => "sort",
        _ => "other",
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn usage() -> ! {
    eprintln!("usage: algo_table [--query <N> | --all]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // (only this query, print every statement)
    let (only, every): (Option<usize>, bool) =
        match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
            [] => (None, false),
            ["--all"] => (None, true),
            ["--query", n] => match n.parse() {
                Ok(id) if QUERIES.iter().any(|(q, ..)| *q == id) => (Some(id), true),
                _ => usage(),
            },
            _ => usage(),
        };
    let sf = positive_from_env("FLATALG_SF", 0.1);
    let w = World::build(sf);
    println!("# (op, algo) attribution of the TPC-D programs (SF={sf}, median of {RUNS})\n");

    let mut shares: BTreeMap<(&'static str, &'static str), f64> = BTreeMap::new();
    let mut total = 0.0;
    for (_, label, build) in QUERIES.into_iter().filter(|(id, ..)| only.is_none_or(|q| q == *id)) {
        let t = moa::translate::translate(&w.cat, &build(&w)).expect("translate");
        // ms[statement][run]
        let mut ms: Vec<Vec<f64>> = vec![Vec::with_capacity(RUNS); t.prog.len()];
        let mut faults = Vec::with_capacity(RUNS);
        let mut last = Vec::new();
        for _ in 0..RUNS {
            let ctx = ExecCtx::new();
            let (minflt, _) = monet::pager::process_faults();
            let env = monet::mil::execute(&ctx, w.cat.db(), &t.prog, &t.keep).expect("execute");
            faults.push((monet::pager::process_faults().0 - minflt) as f64);
            for (slot, s) in ms.iter_mut().zip(env.trace()) {
                slot.push(s.ms);
            }
            last = env.trace().to_vec();
        }
        let mids: Vec<f64> = ms.iter_mut().map(|runs| median(runs)).collect();
        let query_ms: f64 = mids.iter().sum();
        total += query_ms;
        println!(
            "{label}: {query_ms:.1} ms over {} statements, {} minor faults",
            mids.len(),
            median(&mut faults)
        );
        for ((stmt, s), &m) in t.prog.stmts.iter().zip(&last).zip(&mids) {
            let op = op_name(&stmt.op);
            *shares.entry((op, s.algo)).or_default() += m;
            if every || m >= 1.0 {
                println!(
                    "  {m:>8.1} ms {:>9} rows {:>10} B  {op:>9}/{:<16} {}",
                    s.result_len,
                    s.result_bytes,
                    s.algo,
                    s.render(&t.prog)
                );
            }
        }
    }

    println!("\n{:>9} {:<16} {:>9} {:>7}", "op", "algo", "ms", "share");
    let mut rows: Vec<_> = shares.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for ((op, algo), m) in rows {
        if m > 0.0 {
            println!("{op:>9} {algo:<16} {m:>9.1} {:>6.1}%", 100.0 * m / total);
        }
    }
    println!("{:>9} {:<16} {total:>9.1} {:>6.1}%", "total", "", 100.0);
}
