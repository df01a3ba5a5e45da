//! Cross-crate integration: the full TPC-D pipeline — generate, load
//! (decompose + extents + datavectors + reorder), decomposition invariants
//! (Figure 3), query execution, and pager behaviour end to end.

use std::sync::Arc;

use moa::prelude::*;
use monet::column::Column;
use monet::ctx::ExecCtx;
use monet::mil::MilOp;
use monet::pager::Pager;
use tpcd_queries::{all_queries, Params};

fn world() -> (tpcd::TpcdData, Catalog, relstore::RelDb, Params) {
    let data = tpcd::generate(0.003, 4242);
    let (cat, _) = tpcd::load_bats(&data);
    let rel = tpcd::load_rowstore(&data);
    let params = Params::for_data(&data);
    (data, cat, rel, params)
}

#[test]
fn figure3_decomposition_roundtrip() {
    let (data, cat, _, _) = world();
    // The structure expression of Supplier reassembles the objects.
    let s = cat.class_structure("Supplier").unwrap();
    assert_eq!(s.len(), data.suppliers.len());
    let vals = s.materialize().unwrap();
    // Cross-check one supplier's nested supplies against the rows.
    let first_oid = data.suppliers[0].oid;
    let expected: usize = data.supplies.iter().filter(|x| x.supplier == first_oid).count();
    match &vals[0] {
        Value::Tuple(fields) => {
            // field order follows the schema: name, address, phone,
            // acctbal, nation, supplies
            match &fields[5] {
                Value::Set(ms) => assert_eq!(ms.len(), expected),
                other => panic!("supplies should be a set, got {other}"),
            }
        }
        other => panic!("supplier should be a tuple, got {other}"),
    }
}

#[test]
fn translated_q13_equals_reference_and_evaluator() {
    let (_, cat, rel, params) = world();
    let ctx = ExecCtx::new();
    let q = tpcd_queries::q11_15::q13_moa(&params);
    // Three independent executions of the same query:
    let translated = tpcd_queries::run_moa_rows(&cat, &ctx, &q).unwrap();
    let reference = tpcd_queries::q11_15::q13_ref(&rel, &params, None);
    assert!(translated.approx_eq(&reference.rows, 1e-6));
    // ... and the denotational evaluator agrees as well.
    let eval_vals = Evaluator::new(&cat).eval_values(&q).unwrap();
    assert_eq!(eval_vals.len(), translated.len());
}

#[test]
fn query_page_faults_reasonable() {
    let (data, cat, _, params) = world();
    // Q13 (tiny selectivity) must touch far fewer pages than Q1 (98%).
    //
    // A full-match join returns its left operand's head column itself, not
    // a gathered copy, and a `sync` join its right operand's tail column as
    // well, so the pager sees one column however many results hold it.
    // `run` reports the faults the pager counted and, next to them, the
    // query's footprint with each such result tail, and then each such
    // result head too, counted as a column of its own — what consumers of
    // private copies would fault in. Each ratio stays on the footprint it
    // was calibrated on (`fetch` results excepted: every footprint counts
    // their heads shared).
    let run = |q: &SetExpr| -> [u64; 3] {
        let pager = Arc::new(Pager::new(4096));
        let ctx = ExecCtx::new().with_pager(Arc::clone(&pager));
        let t = translate(&cat, q).unwrap();
        let all: Vec<usize> = (0..t.prog.len()).collect();
        let env = monet::mil::execute(&ctx, cat.db(), &t.prog, &all).unwrap();
        // Pages of a result column that *is* an operand's column.
        let pages = |own: &Column, operand: &Column| {
            let shared = own.identity() == operand.identity();
            let bytes = if shared { own.len() * own.atom_type().width() } else { 0 };
            bytes.div_ceil(4096) as u64
        };
        let (mut heads, mut tails) = (0, 0);
        for (s, tr) in t.prog.stmts.iter().zip(env.trace()) {
            if let MilOp::Join(left, right) = s.op {
                if tr.algo != "fetch" {
                    let b = env.bat(s.var).unwrap();
                    heads += pages(b.head(), env.bat(left).unwrap().head());
                    tails += pages(b.tail(), env.bat(right).unwrap().tail());
                }
            }
        }
        [pager.faults(), pager.faults() + tails, pager.faults() + tails + heads]
    };
    let [f1, tails1, own1] = run(&tpcd_queries::q01_05::q1_moa(&params));
    let [_, tails13, own13] = run(&tpcd_queries::q11_15::q13_moa(&params));
    assert!(
        own13 * 4 < own1,
        "Q13 ({own13} pages) should touch far fewer pages than Q1 ({own1}); items={}",
        data.items.len()
    );
    // Sharing is where Q1's faults go: each per-aggregate join over the
    // grouping hands its consumer the two columns already resident.
    assert!(f1 + 100 < own1, "Q1's full-match joins must share their columns ({f1} of {own1})");
    assert!(
        tails13 * 3 < tails1,
        "Q13 ({tails13} pages) against the head-sharing Q1 ({tails1}), tails private"
    );
}

#[test]
fn mil_programs_print_and_replay() {
    let (_, cat, _, params) = world();
    let q = tpcd_queries::q11_15::q13_moa(&params);
    let t = translate(&cat, &q).unwrap();
    let text = t.prog.to_string();
    // The canonical Figure 5/10 plan pieces must be present.
    assert!(text.contains("select(Order_clerk"));
    assert!(text.contains("join(Item_order"));
    assert!(text.contains("semijoin(Item_extendedprice"));
    assert!(text.contains("[year]"));
    assert!(text.contains("{sum}"));
    assert!(text.contains("group("));
    // Executing twice yields identical results (operators never mutate
    // their operands).
    let ctx = ExecCtx::new();
    let (a, _) = t.run(&ctx, cat.db()).unwrap();
    let (b, _) = t.run(&ctx, cat.db()).unwrap();
    let (mut va, mut vb) =
        (Value::Set(a.materialize().unwrap()), Value::Set(b.materialize().unwrap()));
    va.canonicalize();
    vb.canonicalize();
    assert!(va.approx_eq(&vb, 0.0));
}

#[test]
fn q9_addresses_dense_heads_and_needs_no_alignment() {
    // Q9 re-assembles eight attributes over one selection of a dense-headed
    // pair list. A dense head is addressed, no operator merges, and the
    // semijoin results all carry the selection's head, so nothing
    // downstream has to re-align them by hashing.
    let data = tpcd::generate(0.01, 4242);
    let (cat, _) = tpcd::load_bats(&data);
    let t = translate(&cat, &tpcd_queries::q06_10::q9_moa(&Params::for_data(&data))).unwrap();
    let ctx = ExecCtx::new();
    let every: Vec<_> = (0..t.prog.len()).collect();
    let env = monet::mil::execute(&ctx, cat.db(), &t.prog, &every).unwrap();
    let mut positional = 0;
    for (stmt, s) in t.prog.stmts.iter().zip(env.trace()) {
        assert!(
            !matches!(s.algo, "hash-align" | "packed-align" | "merge")
                && !s.algo.ends_with("-rowwise"),
            "{}: {}",
            s.render(&t.prog),
            s.algo
        );
        positional += (matches!(stmt.op, MilOp::Semijoin(..)) && s.algo == "positional") as usize;
    }
    assert!(positional >= 8, "the eight re-assembly semijoins are positional ({positional})");
}

#[test]
fn memory_accounting_tracks_intermediates() {
    let (_, cat, _, params) = world();
    let ctx = ExecCtx::new();
    ctx.mem.reset();
    let q = tpcd_queries::q11_15::q13_moa(&params);
    let _ = tpcd_queries::run_moa_rows(&cat, &ctx, &q).unwrap();
    assert!(ctx.mem.total_bytes() > 0, "intermediates must be accounted");
    assert!(ctx.mem.max_live_bytes() > 0);
}

#[test]
fn bounded_resident_set_still_correct() {
    // The Q1 hot-set experiment: a tiny resident set changes fault counts,
    // never results.
    let (_, cat, rel, params) = world();
    let q1 = &all_queries()[0];
    let reference = (q1.run_ref)(&rel, &params, None);

    let unbounded = Arc::new(Pager::new(4096));
    let ctx1 = ExecCtx::new().with_pager(Arc::clone(&unbounded));
    let r1 = (q1.run_moa)(&cat, &ctx1, &params).unwrap();

    // An eighth of the pages the query touches, so the hot set overflows
    // however compact the plan's intermediates are (under 135 pages for
    // the optimized and the raw plan alike).
    let bounded = Arc::new(Pager::with_capacity(4096, unbounded.faults() as usize / 8));
    let ctx2 = ExecCtx::new().with_pager(Arc::clone(&bounded));
    let r2 = (q1.run_moa)(&cat, &ctx2, &params).unwrap();

    assert!(r1.approx_eq(&reference.rows, 1e-6));
    assert!(r2.approx_eq(&reference.rows, 1e-6));
    assert!(
        bounded.faults() > unbounded.faults(),
        "thrashing resident set must fault more ({} vs {})",
        bounded.faults(),
        unbounded.faults()
    );
}

#[test]
fn load_report_phases_accounted() {
    let data = tpcd::generate(0.002, 99);
    let (_, report) = tpcd::load_bats(&data);
    assert!(report.bulk_ms >= 0.0);
    assert!(report.base_bytes > 0);
    assert!(report.dv_bytes > 0);
    assert!(report.bat_count > 40);
    assert!(report.total_ms() >= report.reorder_ms);
}

/// Dictionary encoding pays at load: the loaded world's string columns
/// take at most 1/1.5 of their raw bytes. The raw side is a second load
/// with encodings off, so no decode cache is filled to measure it.
#[test]
fn dict_encoding_shrinks_string_bytes() {
    let data = tpcd::generate(0.001, 19980223);
    let str_bytes = |enc: bool| -> usize {
        let (cat, _) = tpcd::load_bats_with(&data, enc).unwrap();
        cat.db()
            .iter()
            .map(|(_, bat)| bat.tail())
            .filter(|t| t.atom_type() == monet::atom::AtomType::Str)
            .map(|t| t.bytes())
            .sum()
    };
    let (encoded, raw) = (str_bytes(true), str_bytes(false));
    assert!(
        raw as f64 >= 1.5 * encoded as f64,
        "string bytes {encoded} encoded vs {raw} raw ({:.2}x), want >= 1.5x",
        raw as f64 / encoded as f64
    );
}
