//! Figure 10: the detailed Monet execution trace of Q13.
//!
//! Prints the translated MIL program and then a per-statement execution
//! table — elapsed ms, page faults, result size and the dynamically chosen
//! implementation (showing the datavector semijoins and synced
//! multiplexes the paper walks through in Section 6.2.1).
//!
//! Usage: `FLATALG_SF=0.02 cargo run --release -p bench --bin fig10_q13_trace`

use std::sync::Arc;

use bench::{positive_from_env, World};
use monet::ctx::ExecCtx;
use monet::pager::Pager;
use tpcd_queries::q11_15::q13_moa;

fn main() {
    let sf = positive_from_env("FLATALG_SF", 0.02);
    let w = World::build(sf);
    let q = q13_moa(&w.params);
    println!("# Figure 10 — Q13 detailed execution (SF={sf})\n");
    println!("MOA:\n  {}\n", q.render());

    let t = moa::translate::translate(&w.cat, &q).expect("translate");
    println!("MIL ({} statements):", t.prog.len());
    for line in t.prog.to_string().lines() {
        println!("  {line}");
    }

    let pager = Arc::new(Pager::new(4096));
    let ctx = ExecCtx::new().with_pager(Arc::clone(&pager));
    let env = monet::mil::execute(&ctx, w.cat.db(), &t.prog, &t.keep).expect("execute");

    println!("\n{:>9} {:>8} {:>9} {:>12}  statement", "ms", "faults", "result", "algorithm");
    for s in env.trace() {
        println!(
            "{:>9.3} {:>8} {:>9} {:>12}  {}",
            s.ms,
            s.faults,
            s.result_len,
            s.algo,
            s.render(&t.prog)
        );
    }

    let set = t.build(&env).expect("structure");
    println!("\nresult structure: SET(INDEX, {})", set.inner.render());
    println!("result ({} groups):", set.len());
    for v in set.materialize().expect("materialize") {
        println!("  {v}");
    }
    println!("\ntotal faults: {}", pager.faults());
}
