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
    // Q9's select over its join is one two-key join, on (part, supplier):
    // every Item attribute is gathered over its pairs only, and the supply
    // fields off the pair map are joined over them too. The second keys are
    // row for row with their sides, a dense head is addressed, no operator
    // merges, every multiplex combines synced operands, and nothing
    // re-aligns by hashing.
    let data = tpcd::generate(0.01, 4242);
    let (cat, _) = tpcd::load_bats(&data);
    let t = translate(&cat, &tpcd_queries::q06_10::q9_moa(&Params::for_data(&data))).unwrap();
    let ctx = ExecCtx::new();
    let every: Vec<_> = (0..t.prog.len()).collect();
    let env = monet::mil::execute(&ctx, cat.db(), &t.prog, &every).unwrap();
    let stmts = &t.prog.stmts;
    let named = |n: &str| (0..stmts.len()).rfind(|&v| stmts[v].name == n).unwrap();
    let (pairs, lmap, rmap) = (named("pairs"), named("lmap"), named("rmap"));
    let MilOp::Join2(lk, rk, lf, rg) = stmts[pairs].op else {
        panic!("Q9 joins once, on both keys:\n{}", t.prog)
    };
    let bat = |v| env.bat(v).unwrap();
    assert!(bat(lf).synced(bat(lk)), "the item's supplier is row for row with its part");
    assert_eq!(bat(rg).head().identity(), bat(rk).tail().identity(), "and the supply's too");
    let survivors = bat(pairs).len();
    let part_pairs = monet::ops::join(&ctx, bat(lk), bat(rk)).unwrap().len();
    assert!(survivors < part_pairs, "the supplier must drop pairs");
    let mut gathers = 0;
    for (stmt, s) in stmts.iter().zip(env.trace()) {
        assert!(
            !matches!(s.algo, "hash-align" | "packed-align" | "merge")
                && !s.algo.ends_with("-rowwise"),
            "{}: {}",
            s.render(&t.prog),
            s.algo
        );
        match stmt.op {
            MilOp::Multiplex { f, .. } => {
                assert_ne!(f, monet::ops::ScalarFunc::Eq, "no residual: {}", t.prog);
                assert_eq!(s.algo, "sync", "{}", s.render(&t.prog));
            }
            MilOp::Join(l, r) if l == lmap && stmts[r].name.starts_with("Item_") => {
                gathers += 1;
                assert_eq!(s.result_len, survivors, "{}", s.render(&t.prog));
            }
            // The supply's fields, re-keyed to the pairs (the raw emission
            // re-keys all of them; DCE keeps the cost).
            MilOp::Join(l, _) if l == rmap => {
                assert_eq!(s.result_len, survivors, "{}", s.render(&t.prog));
            }
            _ => {}
        }
    }
    // The nation's supplier, order, extendedprice, discount and quantity.
    assert_eq!(gathers, 5, "{}", t.prog);
}

#[test]
fn q12_or_is_one_semijoin_of_the_item_extent() {
    // `shipmode = m1 or shipmode = m2` restricts the Item extent once to
    // the concatenation of both pullbacks: no pair-set union, and the
    // result is the extent's subset in extent order, so the next conjunct
    // restricts its attribute by the datavector.
    let (_, cat, _, params) = world();
    let t = translate(&cat, &tpcd_queries::q11_15::q12_moa(&params)).unwrap();
    let text = t.prog.to_string();
    assert!(!text.contains("union("), "{text}");
    let ctx = ExecCtx::new();
    let every: Vec<_> = (0..t.prog.len()).collect();
    let env = monet::mil::execute(&ctx, cat.db(), &t.prog, &every).unwrap();
    let concat = t.prog.stmts.iter().position(|s| matches!(s.op, MilOp::Concat(..))).unwrap();
    let or = t.prog.stmts.iter().position(|s| matches!(s.op, MilOp::Semijoin(_, c) if c == concat));
    let or = or.expect("the `or` semijoins the extent with the concatenation");
    let next = t.prog.stmts.iter().position(|s| matches!(s.op, MilOp::Semijoin(_, c) if c == or));
    assert_eq!(env.trace()[next.unwrap()].algo, "datavector", "{text}");
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

/// The loader's property claims do not depend on the layout it chose, and
/// every claim holds: with encodings on and off, every catalog BAT carries
/// the same `sorted`/`key`/`dense` bits, and a `sorted` or `key` claim is
/// confirmed by a check of that column.
#[test]
fn loader_props_are_sound_and_layout_blind() {
    use std::collections::BTreeMap;
    let data = tpcd::generate(0.01, 20260101);
    let bits = |c: monet::props::ColProps| (c.sorted, c.key, c.dense);
    let props_of = |enc: bool| {
        let (cat, _) = tpcd::load_bats_with(&data, enc).unwrap();
        cat.db()
            .iter()
            .map(|(name, bat)| {
                let p = bat.props();
                for (side, col, claim) in
                    [("head", bat.head(), p.head), ("tail", bat.tail(), p.tail)]
                {
                    if claim.sorted {
                        assert!(col.check_sorted(), "{name} {side}: sorted claim is false");
                    }
                    if claim.key {
                        assert!(col.check_key(), "{name} {side}: key claim is false");
                    }
                }
                (name.to_string(), (bits(p.head), bits(p.tail)))
            })
            .collect::<BTreeMap<_, _>>()
    };
    let (encoded, raw) = (props_of(true), props_of(false));
    assert!(encoded.len() > 40);
    assert_eq!(encoded, raw, "encoded and raw loads disagree on a BAT's properties");
}
