//! Every TPC-D query's MOA-on-Monet result must equal the n-ary reference
//! result — the end-to-end correctness gate of the reproduction.
//!
//! The oracle runs twice: once per query at the benchmark scale (SF 0.01,
//! the `bench` harness seed, one shared world), and once as a sweep over a
//! second, smaller database so agreement is not an artifact of one dataset.
//! Agreement *between engine configurations* (optimizer,
//! encodings, spilling, plan cache, store) is `tests/config_matrix.rs`.

use std::sync::OnceLock;

use bench::{World, SEED};
use monet::ctx::ExecCtx;
use tpcd_queries::{all_queries, Params};

/// The benchmark-scale world, shared by the per-query oracle tests below.
fn bench_world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::build(0.01))
}

/// MOA-on-Monet vs the n-ary reference for one query id (1-based).
fn check_query_agrees(id: usize) {
    let w = bench_world();
    let q = &all_queries()[id - 1];
    assert_eq!(q.id, id);
    let ctx = ExecCtx::new();
    let moa_rows =
        (q.run_moa)(&w.cat, &ctx, &w.params).unwrap_or_else(|e| panic!("Q{id} MOA failed: {e}"));
    let ref_out = (q.run_ref)(&w.rel, &w.params, None);
    assert!(
        moa_rows.approx_eq(&ref_out.rows, 1e-6),
        "Q{id} disagrees at SF 0.01 / seed {SEED} ({}):\nMOA ({} rows):\n{}\nreference ({} rows):\n{}",
        q.comment,
        moa_rows.len(),
        moa_rows.clone().sorted().preview(12),
        ref_out.rows.len(),
        ref_out.rows.clone().sorted().preview(12),
    );
}

macro_rules! oracle_tests {
    ($($name:ident => $id:expr),+ $(,)?) => {$(
        #[test]
        fn $name() {
            check_query_agrees($id);
        }
    )+};
}

oracle_tests! {
    q1_agrees => 1,
    q2_agrees => 2,
    q3_agrees => 3,
    q4_agrees => 4,
    q5_agrees => 5,
    q6_agrees => 6,
    q7_agrees => 7,
    q8_agrees => 8,
    q9_agrees => 9,
    q10_agrees => 10,
    q11_agrees => 11,
    q12_agrees => 12,
    q13_agrees => 13,
    q14_agrees => 14,
    q15_agrees => 15,
}

#[test]
fn optimizer_cuts_executed_statements_by_at_least_15_percent() {
    // The plan-level acceptance number: across all fifteen queries the
    // optimizer's EXPLAIN counters must report >= 15% fewer executed MIL
    // statements than the raw translator emission (straight-line programs
    // execute every statement exactly once).
    use monet::config::EngineConfig;
    let w = bench_world();
    // Optimizer pinned on: the test holds with `FLATALG_OPT=0` set too.
    let ctx = ExecCtx::with_config(std::sync::Arc::new(EngineConfig {
        opt: monet::mil::opt::OptLevel::Full,
        ..EngineConfig::clone(&EngineConfig::from_env())
    }));
    monet::mil::opt::reset_cumulative();
    for q in all_queries() {
        (q.run_moa)(&w.cat, &ctx, &w.params).unwrap_or_else(|e| panic!("Q{} failed: {e}", q.id));
    }
    let (raw, optimized) = monet::mil::opt::cumulative();
    assert!(raw > 0, "no programs were optimized");
    let reduction = 1.0 - optimized as f64 / raw as f64;
    assert!(
        reduction >= 0.15,
        "optimizer cut executed MIL statements by only {:.1}% ({raw} -> {optimized}) \
         across Q1-Q15; the plan-level acceptance floor is 15%",
        reduction * 100.0,
    );
}

/// Pushed-down conjuncts that navigate through the same reference are
/// selected at the referenced class and joined back once: Q3, Q5, both Q8
/// programs and Q10 each join `Item_order` back exactly once, in the raw
/// emission and after optimization — and the plans of the other eleven
/// queries keep their optimized statement counts.
#[test]
fn shared_reference_conjuncts_join_back_once_and_other_plans_stay_put() {
    use moa::algebra::SetExpr;
    use monet::config::EngineConfig;
    use monet::mil::opt::{self, OptLevel};
    use monet::mil::{MilOp, MilProgram, MilStmt};
    use tpcd_queries::{q01_05, q06_10};
    let w = bench_world();
    let joins_back = |prog: &MilProgram| {
        let is_item_order =
            |v: usize| matches!(&prog.stmts[v].op, MilOp::Load(n) if n == "Item_order");
        prog.stmts.iter().filter(|s| matches!(s.op, MilOp::Join(l, _) if is_item_order(l))).count()
    };
    let grouped = [
        ("Q3", q01_05::q3_moa(&w.params)),
        ("Q5", q01_05::q5_moa(&w.params)),
        ("Q8 total", q06_10::q8_total_moa(&w.params)),
        ("Q8 nation", q06_10::q8_nation_moa(&w.params)),
        ("Q10", q06_10::q10_moa(&w.params)),
    ];
    for (name, expr) in &grouped {
        for level in [OptLevel::Off, OptLevel::Full] {
            let t = moa::translate::translate_with(&w.cat, expr, level).unwrap();
            assert_eq!(joins_back(&t.prog), 1, "{name} at {level:?}:\n{}", t.prog);
        }
    }

    let ctx = ExecCtx::with_config(std::sync::Arc::new(EngineConfig {
        opt: OptLevel::Full,
        ..EngineConfig::clone(&EngineConfig::from_env())
    }));
    let unchanged: [(usize, u64); 4] = [(6, 17), (13, 27), (14, 28), (15, 25)];
    // Rewritten on purpose: Q2 and Q9 select over a join of an unnest with
    // a predicate equating a left field with a right one, one two-key join
    // (Q9 also tests `part.name` at the 20 000 parts), and Q11 over a
    // nest, tuples whose fields the selection re-scopes to the survivors;
    // Q7 and Q12 select with an `or`, one semijoin of the index over both
    // pullbacks. Q1's two `dbl` `{avg}`s are `{sum}/{count}`: one division
    // shares the price sum and INDEX, the other adds one. Q4 restricts the
    // items to the selected orders' items before testing them (the semijoin
    // reduction): three statements more, `mirror(semijoin(mirror(..), ..))`.
    let rewritten: [(usize, u64); 7] =
        [(1, 46), (2, 44), (4, 32), (7, 59), (9, 56), (11, 43), (12, 37)];
    for (id, stmts) in unchanged.into_iter().chain(rewritten) {
        let q = &all_queries()[id - 1];
        opt::reset_cumulative();
        (q.run_moa)(&w.cat, &ctx, &w.params).unwrap_or_else(|e| panic!("Q{id} failed: {e}"));
        assert_eq!(opt::cumulative().1, stmts, "Q{id}'s optimized plan changed");
    }

    // Q9 and Q4 compute only what they keep: past Q9's two-key join, and
    // past Q4's restriction of the items to the selected orders' partners,
    // no statement has more rows than that statement's result (the catalog
    // BATs loaded aside, which compute nothing).
    let bounded_after = |name: &str, expr: &SetExpr, level, at: &dyn Fn(&MilStmt) -> bool| {
        let t = moa::translate::translate_with(&w.cat, expr, level).unwrap();
        let every: Vec<usize> = (0..t.prog.len()).collect();
        let env = monet::mil::execute(&ctx, w.cat.db(), &t.prog, &every).unwrap();
        let pos = t.prog.stmts.iter().position(at).unwrap_or_else(|| panic!("{name}:\n{}", t.prog));
        let kept = env.bat(pos).unwrap().len();
        for (stmt, s) in t.prog.stmts.iter().zip(env.trace()).skip(pos + 1) {
            if !matches!(stmt.op, MilOp::Load(_)) {
                let (line, prog) = (s.render(&t.prog), &t.prog);
                assert!(s.result_len <= kept, "{name} at {level:?}: {line} > {kept} rows:\n{prog}");
            }
        }
    };
    let q9 = q06_10::q9_moa(&w.params);
    bounded_after("Q9", &q9, OptLevel::Full, &|s| matches!(s.op, MilOp::Join2(..)));
    let q4 = q01_05::q4_moa(&w.params);
    for level in [OptLevel::Off, OptLevel::Full] {
        bounded_after("Q4", &q4, level, &|s| s.name == "partners");
    }
}

/// One optimizer sweep is a fixpoint on every program Q1–Q15 run: Q8's two
/// programs and the Q6/Q11/Q14 scalar drivers included, eighteen in all,
/// each re-optimizes with zero rewrites to the same listing.
#[test]
fn every_optimized_plan_is_a_fixpoint_of_one_sweep() {
    use monet::config::{EngineConfig, PlanConfig};
    use monet::mil::opt::{optimize, OptLevel};
    use monet::mil::MilProgram;
    let w = bench_world();
    let ctx = ExecCtx::with_config(std::sync::Arc::new(EngineConfig {
        opt: OptLevel::Full,
        ..EngineConfig::clone(&EngineConfig::from_env())
    }));
    // The plan cache keeps every program the queries translate.
    let cache = moa::plancache::PlanCache::with_capacity(64);
    moa::plancache::with_plan_cache(cache.clone(), || {
        for q in all_queries() {
            (q.run_moa)(&w.cat, &ctx, &w.params)
                .unwrap_or_else(|e| panic!("Q{} failed: {e}", q.id));
        }
    });
    let programs = cache.resident_programs();
    assert_eq!(programs.len(), 18, "{:?}", cache.stats());
    for bound in programs {
        let prog = MilProgram::clone(&bound);
        // Roots: the statements nothing reads, which keep all of them live.
        let mut read = vec![false; prog.len()];
        for stmt in &prog.stmts {
            stmt.op.for_each_operand(|v| read[v] = true);
        }
        let roots: Vec<usize> = (0..prog.len()).filter(|&v| !read[v]).collect();
        let again = optimize(prog.clone(), &roots, w.cat.db(), &PlanConfig::default());
        assert_eq!(again.report.rewrites(), 0, "a second sweep still rewrites:\n{prog}");
        assert_eq!(again.prog.to_string(), prog.to_string());
    }
}

#[test]
fn all_fifteen_queries_agree_on_a_second_database() {
    let data = tpcd::generate(0.002, 20260610);
    let (cat, _report) = tpcd::load_bats(&data);
    let rel = tpcd::load_rowstore(&data);
    let params = Params::for_data(&data);
    let ctx = ExecCtx::new();
    let mut checked = 0;
    for q in all_queries() {
        let moa_rows = (q.run_moa)(&cat, &ctx, &params)
            .unwrap_or_else(|e| panic!("Q{} MOA failed: {e}", q.id));
        let ref_out = (q.run_ref)(&rel, &params, None);
        assert!(
            moa_rows.approx_eq(&ref_out.rows, 1e-6),
            "Q{} disagrees ({}):\nMOA ({} rows):\n{}\nreference ({} rows):\n{}",
            q.id,
            q.comment,
            moa_rows.len(),
            moa_rows.clone().sorted().preview(12),
            ref_out.rows.len(),
            ref_out.rows.clone().sorted().preview(12),
        );
        checked += 1;
    }
    assert_eq!(checked, 15);
}

#[test]
fn q13_returns_per_year_losses() {
    let data = tpcd::generate(0.002, 7);
    let (cat, _) = tpcd::load_bats(&data);
    let params = Params::for_data(&data);
    let ctx = ExecCtx::new();
    let rows = (all_queries()[12].run_moa)(&cat, &ctx, &params).unwrap();
    // The clerk's returned orders span a handful of years; all losses > 0.
    assert!(!rows.is_empty());
    for row in &rows.0 {
        assert_eq!(row.len(), 2);
        match (&row[0], &row[1]) {
            (monet::atom::AtomValue::Int(y), monet::atom::AtomValue::Dbl(l)) => {
                assert!((1992..=1998).contains(y));
                assert!(*l > 0.0);
            }
            other => panic!("unexpected Q13 row {other:?}"),
        }
    }
}

#[test]
fn queries_stable_across_runs() {
    let data = tpcd::generate(0.001, 5);
    let (cat, _) = tpcd::load_bats(&data);
    let params = Params::for_data(&data);
    let ctx = ExecCtx::new();
    let q3 = &all_queries()[2];
    let a = (q3.run_moa)(&cat, &ctx, &params).unwrap();
    let b = (q3.run_moa)(&cat, &ctx, &params).unwrap();
    assert!(a.approx_eq(&b, 0.0));
}

/// The n-ary reference plans emit their rows in one order: their hash
/// tables carry no per-process seed, so two runs list the rows alike, as
/// printed and before any sort.
#[test]
fn reference_rows_come_out_in_one_order() {
    let w = bench_world();
    for q in all_queries() {
        let a = (q.run_ref)(&w.rel, &w.params, None).rows;
        let b = (q.run_ref)(&w.rel, &w.params, None).rows;
        assert_eq!(format!("{:?}", a.0), format!("{:?}", b.0), "Q{} rows reordered", q.id);
    }
}

/// A nest reads its grouping once. Q1's optimized program sums each summed
/// operand once and keeps `{avg}` only over its integer operand (the two
/// `dbl` averages are `{sum}/{count}` over the plan's own sums and INDEX),
/// and the statements after `class := group(..)` of Q1 and Q9 read the
/// grouping `group` seeded: INDEX, and the nest keys, which are gathered at
/// the groups' first rows instead of deduplicated.
#[test]
fn a_nest_reads_its_grouping_once() {
    use monet::atom::AtomType;
    use monet::config::EngineConfig;
    use monet::mil::opt::OptLevel;
    use monet::mil::{MilArg, MilOp};
    use monet::ops::{AggFunc, ScalarFunc};
    use tpcd_queries::{q01_05, q06_10};
    let w = bench_world();
    let ctx = ExecCtx::with_config(std::sync::Arc::new(EngineConfig {
        opt: OptLevel::Full,
        ..EngineConfig::clone(&EngineConfig::from_env())
    }));
    let q1 = q01_05::q1_moa(&w.params);
    let q9 = q06_10::q9_moa(&w.params);
    for (expr, names) in [(&q1, ["INDEX", "FLAG", "STATUS"]), (&q9, ["INDEX", "NATION", "YEAR"])] {
        let t = moa::translate::translate_in(&w.cat, expr, ctx.config()).unwrap();
        let every: Vec<usize> = (0..t.prog.len()).collect();
        let env = monet::mil::execute(&ctx, w.cat.db(), &t.prog, &every).unwrap();
        let algo = |name: &str| {
            let s = env.trace().iter().find(|s| s.name(&t.prog) == name);
            s.unwrap_or_else(|| panic!("no statement {name}:\n{}", *t.prog)).algo
        };
        for name in names {
            assert_eq!(algo(name), "memo", "{name}:\n{}", *t.prog);
        }
        if !std::ptr::eq(expr, &q1) {
            continue;
        }
        let stmts = &t.prog.stmts;
        let aggs = |f: AggFunc| -> Vec<usize> {
            stmts
                .iter()
                .filter_map(|s| match s.op {
                    MilOp::SetAgg { f: g, src } if g == f => Some(src),
                    _ => None,
                })
                .collect()
        };
        let mut sums = aggs(AggFunc::Sum);
        let summed = sums.len();
        sums.sort_unstable();
        sums.dedup();
        assert_eq!((summed, sums.len()), (5, 5), "one {{sum}} per operand:\n{}", *t.prog);
        let tail_of = |v: usize| env.bat(v).unwrap().tail().atom_type();
        let avgs = aggs(AggFunc::Avg);
        assert_eq!(avgs.iter().map(|&v| tail_of(v)).collect::<Vec<_>>(), [AtomType::Int]);
        let sum_stmts: Vec<usize> = (0..stmts.len())
            .filter(|&v| matches!(stmts[v].op, MilOp::SetAgg { f: AggFunc::Sum, .. }))
            .collect();
        let index = stmts.iter().position(|s| s.name == "INDEX").unwrap();
        let quotients: Vec<_> = stmts
            .iter()
            .filter_map(|s| match &s.op {
                MilOp::Multiplex { f: ScalarFunc::Div, args } => Some(args.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(quotients.len(), 2, "{}", *t.prog);
        for args in quotients {
            let [MilArg::Var(sum), MilArg::Var(count)] = args[..] else { panic!("{args:?}") };
            assert!(sum_stmts.contains(&sum) && count == index, "{}", *t.prog);
        }
    }
}
