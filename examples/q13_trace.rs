//! The paper's running example: TPC-D Q13 ("loss due to returned orders
//! of a clerk") translated to MIL and traced statement by statement, like
//! Figure 10 — showing the dynamically chosen implementations, including
//! the datavector semijoins and the synced multiplexes.
//!
//! Run: `cargo run --release --example q13_trace`

use std::sync::Arc;

use monet::ctx::ExecCtx;
use monet::pager::Pager;
use tpcd_queries::{q11_15::q13_moa, Params};

fn main() {
    let data = tpcd::generate(0.01, 19980223);
    let (cat, _) = tpcd::load_bats(&data);
    let params = Params::for_data(&data);

    let q = q13_moa(&params);
    println!("MOA (Section 4.1):\n  {}\n", q.render());

    let t = moa::translate::translate(&cat, &q).expect("translate");
    println!("MIL:");
    for line in t.prog.to_string().lines() {
        println!("  {line}");
    }

    let pager = Arc::new(Pager::new(4096));
    let ctx = ExecCtx::new().with_pager(Arc::clone(&pager)).with_trace();
    let env = monet::mil::execute(&ctx, cat.db(), &t.prog, &t.keep).expect("execute");

    println!("\n{:>9} {:>8} {:>8} {:>12}  statement", "ms", "faults", "result", "algorithm");
    for s in env.trace() {
        println!(
            "{:>9.3} {:>8} {:>8} {:>12}  {}",
            s.ms,
            s.faults,
            s.result_len,
            s.algo,
            s.render(&t.prog)
        );
    }

    let set = t.build(&env).expect("structure");
    println!("\nresult — SET(INDEX, {}):", set.inner.render());
    for v in set.materialize().expect("materialize") {
        println!("  {v}");
    }
}
