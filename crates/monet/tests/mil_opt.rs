//! Plan-optimizer pass semantics: each rewrite preserves the executed
//! value stream bit for bit, the passes fire on the shapes the translator
//! actually emits, and the interpreter's trace/liveness accounting refers
//! to the *rewritten* program.

use monet::atom::AtomValue;
use monet::bat::Bat;
use monet::column::Column;
use monet::config::PlanConfig;
use monet::ctx::ExecCtx;
use monet::db::Db;
use monet::mil::opt::optimize;
use monet::mil::{execute, MilArg, MilOp, MilProgram, MilValue, Pin, Var};
use monet::ops::ScalarFunc;

fn db() -> Db {
    let mut db = Db::new();
    // Attribute-like BAT: unsorted keyed oid head, sorted int tail.
    db.register(
        "attr",
        Bat::with_inferred_props(
            Column::from_oids(vec![14, 11, 13, 10, 12]),
            Column::from_ints(vec![1, 2, 2, 3, 5]),
        ),
    );
    // Reference BAT [oid, oid] (an attribute hop).
    db.register(
        "hop",
        Bat::with_inferred_props(
            Column::from_oids(vec![20, 21, 22, 23]),
            Column::from_oids(vec![11, 13, 13, 99]),
        ),
    );
    // Dense-head value BAT (fetch-join target).
    db.register(
        "dense",
        Bat::with_inferred_props(Column::void(10, 5), Column::from_strs(["a", "b", "c", "d", "e"])),
    );
    // Attribute BAT carrying a datavector (order-changing semijoin path).
    let mut dv_bat = Bat::with_inferred_props(
        Column::from_oids(vec![10, 11, 12, 13, 14]),
        Column::from_dbls(vec![0.1, 0.2, 0.3, 0.4, 0.5]),
    );
    dv_bat.set_datavector(std::sync::Arc::new(
        monet::accel::datavector::Datavector::from_unordered(&dv_bat),
    ));
    db.register("dv_attr", dv_bat);
    db
}

fn rows(b: &Bat) -> Vec<(AtomValue, AtomValue)> {
    b.iter().collect()
}

/// Execute raw and optimized forms of `prog`, asserting the kept roots are
/// bit-identical; returns the optimized program for shape assertions.
fn assert_equivalent(db: &Db, prog: &MilProgram, roots: &[Var]) -> MilProgram {
    // Separate contexts: fresh-oid sequences restart per context, so
    // group/mark oids come out identical for structurally equal plans.
    let raw_env = execute(&ExecCtx::new(), db, prog, roots).expect("raw execution");
    let out = optimize(prog.clone(), roots, db, &PlanConfig::default());
    let opt_env = execute(
        &ExecCtx::new(),
        db,
        &out.prog,
        &roots.iter().map(|&r| out.var(r)).collect::<Vec<_>>(),
    )
    .expect("optimized execution");
    for &r in roots {
        let a = raw_env.bat(r).expect("raw root");
        let b = opt_env.bat(out.var(r)).expect("optimized root");
        assert_eq!(rows(a), rows(b), "root {r} differs after optimization");
    }
    out.prog
}

#[test]
fn cse_merges_identical_chains_and_dce_sweeps() {
    let db = db();
    let mut p = MilProgram::new();
    let hop = p.emit("hop", MilOp::Load("hop".into()));
    let attr = p.emit("attr", MilOp::Load("attr".into()));
    // The same hop join emitted twice (predicate + projection walk).
    let j1 = p.emit("j1", MilOp::Join(hop, attr));
    let j2 = p.emit("j2", MilOp::Join(hop, attr));
    let m1 = p.emit("m1", MilOp::Mirror(j1));
    let m2 = p.emit("m2", MilOp::Mirror(j2));
    let opt = assert_equivalent(&db, &p, &[m1, m2]);
    // j2/m2 merged into j1/m1, duplicates removed.
    assert_eq!(opt.len(), 4, "expected load,load,join,mirror; got:\n{opt}");
}

#[test]
fn cse_never_merges_fresh_oid_ops() {
    let db = db();
    let mut p = MilProgram::new();
    let attr = p.emit("attr", MilOp::Load("attr".into()));
    let g1 = p.emit("g1", MilOp::Group1(attr));
    let g2 = p.emit("g2", MilOp::Group1(attr));
    let z = p.emit("z", MilOp::Zip(g1, g2));
    let opt = assert_equivalent(&db, &p, &[z]);
    let groups = opt.stmts.iter().filter(|s| matches!(s.op, MilOp::Group1(_))).count();
    assert_eq!(groups, 2, "group draws fresh oids and must not be hash-consed:\n{opt}");
}

#[test]
fn dce_removes_dead_code_and_renumbers() {
    let db = db();
    let mut p = MilProgram::new();
    let attr = p.emit("attr", MilOp::Load("attr".into()));
    let _dead = p.emit("dead", MilOp::Mirror(attr));
    let _dead2 = p.emit("dead2", MilOp::Group1(attr)); // dead fresh-oid op goes too
    let sel = p.emit("sel", MilOp::SelectEq(attr, AtomValue::Int(2)));
    let opt = assert_equivalent(&db, &p, &[sel]);
    assert_eq!(opt.len(), 2, "got:\n{opt}");
    // Renumbered: statement i defines variable i.
    for (i, stmt) in opt.stmts.iter().enumerate() {
        assert_eq!(stmt.var, i);
        for v in stmt.op.operands() {
            assert!(v < i);
        }
    }
}

#[test]
fn pushdown_moves_select_below_join() {
    let db = db();
    let mut p = MilProgram::new();
    let hop = p.emit("hop", MilOp::Load("hop".into()));
    let attr = p.emit("attr", MilOp::Load("attr".into()));
    let j = p.emit("j", MilOp::Join(hop, attr));
    let sel = p.emit("sel", MilOp::SelectEq(j, AtomValue::Int(2)));
    let opt = assert_equivalent(&db, &p, &[sel]);
    // The final statement is now the join; the select runs on `attr`.
    let last = opt.stmts.last().unwrap();
    assert!(matches!(last.op, MilOp::Join(..)), "got:\n{opt}");
    let selects: Vec<_> =
        opt.stmts.iter().filter(|s| matches!(s.op, MilOp::SelectEq(..))).collect();
    assert_eq!(selects.len(), 1);
    assert!(
        matches!(opt.stmts[selects[0].var].op, MilOp::SelectEq(v, _) if v == attr),
        "select should read the attribute BAT directly:\n{opt}"
    );
}

#[test]
fn pushdown_crosses_semijoin_but_respects_datavectors() {
    let db = db();
    // Plain left operand: select commutes below the semijoin.
    let mut p = MilProgram::new();
    let attr = p.emit("attr", MilOp::Load("attr".into()));
    let hop = p.emit("hop", MilOp::Load("hop".into()));
    let hm = p.emit("hm", MilOp::Mirror(hop));
    let sj = p.emit("sj", MilOp::Semijoin(attr, hm));
    let sel = p.emit("sel", MilOp::SelectEq(sj, AtomValue::Int(2)));
    let opt = assert_equivalent(&db, &p, &[sel]);
    assert!(
        matches!(opt.stmts.last().unwrap().op, MilOp::Semijoin(..)),
        "select should have moved below the semijoin:\n{opt}"
    );

    // Datavector-carrying left operand: the rewrite could flip the
    // semijoin onto the right-order datavector path — must not fire.
    let mut p = MilProgram::new();
    let dv = p.emit("dv_attr", MilOp::Load("dv_attr".into()));
    let hop = p.emit("hop", MilOp::Load("hop".into()));
    let hm = p.emit("hm", MilOp::Mirror(hop));
    let sj = p.emit("sj", MilOp::Semijoin(dv, hm));
    let sel = p.emit(
        "sel",
        MilOp::SelectRange {
            src: sj,
            lo: Some(AtomValue::Dbl(0.15)),
            hi: None,
            inc_lo: true,
            inc_hi: true,
        },
    );
    let _ = sel;
    let opt = assert_equivalent(&db, &p, &[sel]);
    assert!(
        matches!(opt.stmts.last().unwrap().op, MilOp::SelectRange { .. }),
        "select must stay above a datavector semijoin:\n{opt}"
    );
}

#[test]
fn saturated_semijoin_folds_to_the_selection() {
    // semijoin(X, select(X, ..)) on a key-headed X is the selection.
    let db = db();
    let mut p = MilProgram::new();
    let attr = p.emit("attr", MilOp::Load("attr".into()));
    let sel = p.emit("sel", MilOp::SelectEq(attr, AtomValue::Int(2)));
    let sj = p.emit("sj", MilOp::Semijoin(attr, sel));
    let opt = assert_equivalent(&db, &p, &[sj]);
    assert!(
        !opt.stmts.iter().any(|s| matches!(s.op, MilOp::Semijoin(..))),
        "fragment re-assembly against its own selection should fold:\n{opt}"
    );
}

#[test]
fn redundant_semijoin_against_setagg_folds() {
    // The nest shape: semijoin(class.mirror, {count}(class.mirror)) keeps
    // every BUN — {g} has one BUN per distinct head of its operand.
    let db = db();
    let mut p = MilProgram::new();
    let attr = p.emit("attr", MilOp::Load("attr".into()));
    let class = p.emit("class", MilOp::Group1(attr));
    let cm = p.emit("cm", MilOp::Mirror(class));
    let index = p.emit("INDEX", MilOp::SetAgg { f: monet::ops::AggFunc::Count, src: cm });
    let sj = p.emit("sj", MilOp::Semijoin(cm, index));
    let z = p.emit("z", MilOp::Zip(sj, sj));
    let opt = assert_equivalent(&db, &p, &[z, index]);
    assert!(
        !opt.stmts.iter().any(|s| matches!(s.op, MilOp::Semijoin(..))),
        "the INDEX re-restriction should fold away:\n{opt}"
    );
}

#[test]
fn constants_fold_into_multiplexes() {
    // Scalar constants referenced by a multiplex become immediate
    // arguments, and the dead `const` definitions are swept.
    let db = db();
    let mut p = MilProgram::new();
    let attr = p.emit("attr", MilOp::Load("attr".into()));
    let one = p.emit("one", MilOp::ConstScalar(AtomValue::Int(1)));
    let m = p.emit(
        "m",
        MilOp::Multiplex { f: ScalarFunc::Mul, args: vec![MilArg::Var(attr), MilArg::Var(one)] },
    );
    let opt = assert_equivalent(&db, &p, &[m]);
    assert_eq!(opt.len(), 2, "got:\n{opt}");
    let MilOp::Multiplex { args, .. } = &opt.stmts[1].op else { panic!("got:\n{opt}") };
    assert!(matches!(args[1], MilArg::Const(AtomValue::Int(1))), "got:\n{opt}");

    // An all-constant multiplex is evaluated at plan time with the same
    // scalar semantics the kernel lifts (the raw form would not even
    // execute — multiplex needs a BAT argument — so this is structural).
    let mut p = MilProgram::new();
    let one = p.emit("one", MilOp::ConstScalar(AtomValue::Int(1)));
    let two = p.emit("two", MilOp::ConstScalar(AtomValue::Int(2)));
    let c = p.emit(
        "c",
        MilOp::Multiplex { f: ScalarFunc::Sub, args: vec![MilArg::Var(one), MilArg::Var(two)] },
    );
    let out = optimize(p, &[c], &db, &PlanConfig::default());
    assert_eq!(out.prog.len(), 1, "got:\n{}", out.prog);
    assert!(
        matches!(out.prog.stmts[out.var(c)].op, MilOp::ConstScalar(AtomValue::Int(-1))),
        "got:\n{}",
        out.prog
    );
}

#[test]
fn double_mirror_dissolves() {
    let db = db();
    let mut p = MilProgram::new();
    let attr = p.emit("attr", MilOp::Load("attr".into()));
    let m = p.emit("m", MilOp::Mirror(attr));
    let mm = p.emit("mm", MilOp::Mirror(m));
    let sel = p.emit("sel", MilOp::SelectEq(mm, AtomValue::Int(2)));
    let opt = assert_equivalent(&db, &p, &[sel]);
    assert!(!opt.stmts.iter().any(|s| matches!(s.op, MilOp::Mirror(_))), "got:\n{opt}");
}

#[test]
fn pins_match_dynamic_dispatch_choices() {
    let db = db();
    let mut p = MilProgram::new();
    let attr = p.emit("attr", MilOp::Load("attr".into())); // sorted int tail
    let sel = p.emit("sel", MilOp::SelectEq(attr, AtomValue::Int(2)));
    let hop = p.emit("hop", MilOp::Load("hop".into())); // oid tail
    let dense = p.emit("dense", MilOp::Load("dense".into())); // void head
    let j = p.emit("j", MilOp::Join(hop, dense));
    let _ = (sel, j);
    let out = optimize(p.clone(), &[sel, j], &db, &PlanConfig::default());
    let pin_of = |v: Var| out.prog.stmts[out.var(v)].pin;
    assert_eq!(pin_of(sel), Some(Pin::SelectSorted), "got:\n{}", out.prog);
    assert_eq!(pin_of(j), Some(Pin::JoinFetch), "got:\n{}", out.prog);
    // Pinned execution reports the same algorithm the dynamic dispatcher
    // picks, flagged as pinned in the statement trace.
    let ctx = ExecCtx::new().with_trace();
    let roots: Vec<Var> = vec![out.var(sel), out.var(j)];
    let env = execute(&ctx, &db, &out.prog, &roots).unwrap();
    let raw_env = execute(&ctx, &db, &p, &[sel, j]).unwrap();
    let algo_of = |env: &monet::mil::Env, prog: &MilProgram, name: &str| {
        env.trace().iter().find(|t| t.name(prog) == name).map(|t| (t.algo, t.pinned))
    };
    assert_eq!(algo_of(&env, &out.prog, "sel"), Some(("binary-search", true)));
    assert_eq!(algo_of(&env, &out.prog, "j"), Some(("fetch", true)));
    assert_eq!(algo_of(&raw_env, &p, "sel"), Some(("binary-search", false)));
    assert_eq!(algo_of(&raw_env, &p, "j"), Some(("fetch", false)));
    // Merge pin needs sorted operands.
    let mut p2 = MilProgram::new();
    let attr2 = p2.emit("attr", MilOp::Load("attr".into()));
    let am = p2.emit("am", MilOp::Mirror(attr2)); // [int-sorted-head ...]
    let hopm = p2.emit("hopm", MilOp::SortTail(p2.stmts[0].var));
    let jm = p2.emit("jm", MilOp::Join(hopm, am));
    let out2 = optimize(p2, &[jm], &db, &PlanConfig::default());
    assert_eq!(out2.prog.stmts[out2.var(jm)].pin, Some(Pin::JoinMerge), "got:\n{}", out2.prog);
    // Oid join columns pin too. Should such a right head turn out dense at
    // run time, dynamic dispatch takes fetch where the pin runs merge — same
    // matches, one shared result assembly (the `ops::join` unit test
    // `pinned_merge_equals_fetch_on_a_dense_right_head` holds that half).
    let mut p3 = MilProgram::new();
    let hop3 = p3.emit("hop", MilOp::Load("hop".into())); // sorted oid tail
    let attr3 = p3.emit("attr", MilOp::Load("attr".into()));
    let sorted = p3.emit("sorted", MilOp::SortHead(attr3)); // oid heads 10..=14
    let j3 = p3.emit("j3", MilOp::Join(hop3, sorted));
    let out3 = optimize(p3.clone(), &[j3], &db, &PlanConfig::default());
    assert_eq!(out3.prog.stmts[out3.var(j3)].pin, Some(Pin::JoinMerge), "got:\n{}", out3.prog);
    let env3 = execute(&ctx, &db, &out3.prog, &[out3.var(j3)]).unwrap();
    let raw3 = execute(&ctx, &db, &p3, &[j3]).unwrap();
    assert_eq!(algo_of(&env3, &out3.prog, "j3"), Some(("merge", true)));
    let (pinned, dynamic) = (env3.get(out3.var(j3)).unwrap(), raw3.get(j3).unwrap());
    let (MilValue::Bat(pinned), MilValue::Bat(dynamic)) = (pinned, dynamic) else {
        panic!("join results are BATs")
    };
    assert_eq!(rows(pinned), rows(dynamic));
    assert_eq!(pinned.props(), dynamic.props());
}

#[test]
fn dict_tail_pins_select_to_code_path() {
    // A statically dict-encoded tail wins over the sorted pin: selects on
    // it are pinned to the code-comparison path, EXPLAIN shows the pin,
    // and both pinned and dynamic execution report the "dict-code"
    // algorithm with matching results.
    let mut db = Db::new();
    let strs: Vec<String> =
        ["b", "d", "a", "b", "d", "c"].map(|s| format!("Clerk#00000000{s}")).to_vec();
    let tail = Column::from_strs(strs).encode(false);
    assert_eq!(tail.encoding(), monet::props::Enc::Dict);
    db.register("clerk", Bat::with_inferred_props(Column::from_oids((0..6).collect()), tail));

    let mut p = MilProgram::new();
    let clerk = p.emit("clerk", MilOp::Load("clerk".into()));
    let sel = p.emit("sel", MilOp::SelectEq(clerk, AtomValue::str("Clerk#00000000d")));
    let rng = p.emit(
        "rng",
        MilOp::SelectRange {
            src: clerk,
            lo: Some(AtomValue::str("Clerk#00000000a")),
            hi: Some(AtomValue::str("Clerk#00000000c")),
            inc_lo: true,
            inc_hi: true,
        },
    );
    let out = optimize(p.clone(), &[sel, rng], &db, &PlanConfig::default());
    for v in [sel, rng] {
        let stmt = &out.prog.stmts[out.var(v)];
        assert_eq!(stmt.pin, Some(Pin::SelectDictCode), "got:\n{}", out.prog);
        assert!(
            monet::mil::render_stmt(&out.prog, stmt).contains("#! dict-code"),
            "EXPLAIN must annotate the pin: {}",
            monet::mil::render_stmt(&out.prog, stmt)
        );
    }
    let ctx = ExecCtx::new().with_trace();
    let roots: Vec<Var> = vec![out.var(sel), out.var(rng)];
    let env = execute(&ctx, &db, &out.prog, &roots).unwrap();
    let raw_env = execute(&ctx, &db, &p, &[sel, rng]).unwrap();
    for (v, name, want_rows) in [(sel, "sel", 2), (rng, "rng", 4)] {
        let pinned = env.bat(out.var(v)).unwrap();
        let raw = raw_env.bat(v).unwrap();
        assert_eq!(rows(pinned), rows(raw), "{name} differs pinned vs dynamic");
        assert_eq!(pinned.len(), want_rows, "{name}");
        let algo = |e: &monet::mil::Env, prog: &MilProgram| {
            e.trace().iter().find(|t| t.name(prog) == name).map(|t| (t.algo, t.pinned))
        };
        assert_eq!(algo(&env, &out.prog), Some(("dict-code", true)), "{name}");
        assert_eq!(algo(&raw_env, &p), Some(("dict-code", false)), "{name}");
    }
}

#[test]
fn trace_and_live_set_follow_the_rewritten_program() {
    // Satellite regression: after rewrites reorder/remove statements, the
    // StmtTrace rows must describe post-optimization statements and the
    // live-set high-water mark must be recomputed from the *rewritten*
    // last-use table.
    let db = db();
    let mut p = MilProgram::new();
    let hop = p.emit("hop", MilOp::Load("hop".into()));
    let attr = p.emit("attr", MilOp::Load("attr".into()));
    let j1 = p.emit("j1", MilOp::Join(hop, attr));
    let _dup = p.emit("dup", MilOp::Join(hop, attr)); // CSE + DCE fodder
    let sel = p.emit("sel", MilOp::SelectEq(j1, AtomValue::Int(2))); // pushdown reorders
    let out = optimize(p, &[sel], &db, &PlanConfig::default());
    let root = out.var(sel);
    let ctx = ExecCtx::new();
    let env = execute(&ctx, &db, &out.prog, &[root]).unwrap();

    // One trace row per *rewritten* statement, in order, var == index,
    // rendered against the rewritten operand names.
    assert_eq!(env.trace().len(), out.prog.len());
    for (i, row) in env.trace().iter().enumerate() {
        assert_eq!(row.var, i);
        assert_eq!(row.name(&out.prog), out.prog.stmts[i].name);
        assert_eq!(row.render(&out.prog), monet::mil::render_stmt(&out.prog, &out.prog.stmts[i]));
    }

    // Replay the interpreter's liveness accounting against the rewritten
    // last-use table; the recorded peak must match exactly. The live set
    // is the intermediates': a load is the catalog's BAT and a mirror its
    // operand's columns, so both count nothing (as the budget charges them).
    let frees = out.prog.last_uses();
    let sizes: Vec<u64> = env
        .trace()
        .iter()
        .zip(&out.prog.stmts)
        .map(|(t, s)| match s.op {
            MilOp::Load(_) | MilOp::ConstScalar(_) | MilOp::Mirror(_) => 0,
            _ => t.result_bytes as u64,
        })
        .collect();
    assert!(
        env.trace().iter().any(|t| t.result_bytes > 0 && sizes[t.var] == 0),
        "the plan loads catalog bytes the live set must not count"
    );
    let mut live = 0;
    let mut peak = 0;
    let mut held: Vec<Option<u64>> = vec![None; out.prog.len()];
    let last = out.prog.len() - 1;
    for i in 0..out.prog.len() {
        live += sizes[i];
        held[i] = Some(sizes[i]);
        peak = peak.max(live);
        for &v in &frees[i] {
            if v == root || v == last {
                continue;
            }
            if let Some(b) = held[v].take() {
                live -= b;
            }
        }
    }
    assert_eq!(ctx.mem.max_live_bytes(), peak, "live-set peak must follow the rewritten plan");
}

#[test]
fn explain_report_renders_per_pass_deltas() {
    let db = db();
    let mut p = MilProgram::new();
    let hop = p.emit("hop", MilOp::Load("hop".into()));
    let attr = p.emit("attr", MilOp::Load("attr".into()));
    let j1 = p.emit("j1", MilOp::Join(hop, attr));
    let _j2 = p.emit("j2", MilOp::Join(hop, attr));
    let m = p.emit("m", MilOp::Mirror(j1));
    let before = p.to_string();
    let out = optimize(p, &[m], &db, &PlanConfig::default());
    assert!(out.report.reduction() > 0.0);
    let text = out.report.render(&before, &out.prog.to_string());
    assert!(text.contains("plan optimizer: 5 -> 4 statements"), "got:\n{text}");
    assert!(text.contains("cse"), "got:\n{text}");
    assert!(text.contains("dce"), "got:\n{text}");
    assert!(text.contains("before:"), "got:\n{text}");
    assert!(text.contains("after:"), "got:\n{text}");
}

#[test]
fn cumulative_counters_accumulate_per_thread() {
    let db = db();
    monet::mil::opt::reset_cumulative();
    let mut p = MilProgram::new();
    let hop = p.emit("hop", MilOp::Load("hop".into()));
    let attr = p.emit("attr", MilOp::Load("attr".into()));
    let j1 = p.emit("j1", MilOp::Join(hop, attr));
    let _j2 = p.emit("j2", MilOp::Join(hop, attr));
    let m = p.emit("m", MilOp::Mirror(j1));
    let _ = optimize(p.clone(), &[m], &db, &PlanConfig::default());
    let _ = optimize(p, &[m], &db, &PlanConfig::default());
    let (raw, opt) = monet::mil::opt::cumulative();
    assert_eq!(raw, 10);
    assert_eq!(opt, 8);
}

/// Unsorted-tail measure BAT for fusion tests (a sorted tail would pin
/// its selects to the binary-search path, which never fuses).
fn fuse_db() -> Db {
    let mut db = db();
    db.register(
        "meas",
        Bat::with_inferred_props(
            Column::from_oids(vec![30, 31, 32, 33, 34, 35]),
            Column::from_ints(vec![3, 1, 2, 5, 4, 2]),
        ),
    );
    db
}

#[test]
fn fuse_collapses_map_chain_with_synced_side() {
    let db = fuse_db();
    let mut p = MilProgram::new();
    let meas = p.emit("meas", MilOp::Load("meas".into()));
    // [-](10, meas) -> [*](_, meas): the second map reads the source as a
    // positionally-synced side, the Q13 revenue shape.
    let m1 = p.emit(
        "m1",
        MilOp::Multiplex {
            f: ScalarFunc::Sub,
            args: vec![MilArg::Const(AtomValue::Int(10)), MilArg::Var(meas)],
        },
    );
    let m2 = p.emit(
        "m2",
        MilOp::Multiplex { f: ScalarFunc::Mul, args: vec![MilArg::Var(m1), MilArg::Var(meas)] },
    );
    let opt = assert_equivalent(&db, &p, &[m2]);
    let fused: Vec<_> = opt.stmts.iter().filter(|s| matches!(s.op, MilOp::Fused { .. })).collect();
    assert_eq!(fused.len(), 1, "expected one fused statement:\n{opt}");
    let MilOp::Fused { ref stages, .. } = fused[0].op else { unreachable!() };
    assert_eq!(stages.len(), 2, "got:\n{opt}");
    assert!(
        monet::mil::render_stmt(&opt, fused[0]).contains("#! fused[2]"),
        "EXPLAIN must annotate fusion: {}",
        monet::mil::render_stmt(&opt, fused[0])
    );
}

#[test]
fn fuse_select_map_aggr_terminal_is_scalar_identical() {
    let db = fuse_db();
    let build = || {
        let mut p = MilProgram::new();
        let meas = p.emit("meas", MilOp::Load("meas".into()));
        let sel = p.emit(
            "sel",
            MilOp::SelectRange {
                src: meas,
                lo: Some(AtomValue::Int(2)),
                hi: None,
                inc_lo: true,
                inc_hi: true,
            },
        );
        let m = p.emit(
            "m",
            MilOp::Multiplex {
                f: ScalarFunc::Mul,
                args: vec![MilArg::Var(sel), MilArg::Const(AtomValue::Int(3))],
            },
        );
        let agg = p.emit("agg", MilOp::AggrScalar { f: monet::ops::AggFunc::Max, src: m });
        (p, agg)
    };
    let (p, agg) = build();
    let raw_env = execute(&ExecCtx::new(), &db, &p, &[agg]).expect("raw execution");
    let out = optimize(p, &[agg], &db, &PlanConfig::default());
    assert!(
        out.prog
            .stmts
            .iter()
            .any(|s| matches!(&s.op, MilOp::Fused { stages, .. } if stages.len() == 3)),
        "select+map+max should fuse into one statement:\n{}",
        out.prog
    );
    let env = execute(&ExecCtx::new(), &db, &out.prog, &[out.var(agg)]).expect("fused execution");
    assert_eq!(env.scalar(out.var(agg)).unwrap(), raw_env.scalar(agg).unwrap());
}

#[test]
fn fuse_respects_roots_and_reuse() {
    // A chain member that is itself a root (or read twice) must stay
    // materialized; fusion may only swallow single-use interior values.
    let db = fuse_db();
    let mut p = MilProgram::new();
    let meas = p.emit("meas", MilOp::Load("meas".into()));
    let m1 = p.emit(
        "m1",
        MilOp::Multiplex {
            f: ScalarFunc::Sub,
            args: vec![MilArg::Const(AtomValue::Int(10)), MilArg::Var(meas)],
        },
    );
    let m2 = p.emit(
        "m2",
        MilOp::Multiplex { f: ScalarFunc::Mul, args: vec![MilArg::Var(m1), MilArg::Var(meas)] },
    );
    let opt = assert_equivalent(&db, &p, &[m1, m2]);
    assert!(
        !opt.stmts.iter().any(|s| matches!(s.op, MilOp::Fused { .. })),
        "a chain through a kept root must not fuse:\n{opt}"
    );
}

#[test]
fn fuse_skips_sorted_pinned_selects() {
    // `attr` has a sorted int tail: its select pins to binary-search and
    // the chain must not start there.
    let db = fuse_db();
    let mut p = MilProgram::new();
    let attr = p.emit("attr", MilOp::Load("attr".into()));
    let sel = p.emit("sel", MilOp::SelectEq(attr, AtomValue::Int(2)));
    let m = p.emit(
        "m",
        MilOp::Multiplex {
            f: ScalarFunc::Mul,
            args: vec![MilArg::Var(sel), MilArg::Const(AtomValue::Int(3))],
        },
    );
    let opt = assert_equivalent(&db, &p, &[m]);
    assert!(
        !opt.stmts.iter().any(|s| matches!(s.op, MilOp::Fused { .. })),
        "binary-search selects must stay staged:\n{opt}"
    );
}

#[test]
fn fuse_off_reproduces_unfused_emission() {
    let db = fuse_db();
    let mut p = MilProgram::new();
    let meas = p.emit("meas", MilOp::Load("meas".into()));
    let sel = p.emit("sel", MilOp::SelectEq(meas, AtomValue::Int(2)));
    let cnt = p.emit("cnt", MilOp::AggrScalar { f: monet::ops::AggFunc::Count, src: sel });
    let fused = optimize(p.clone(), &[cnt], &db, &PlanConfig::default());
    let unfused =
        optimize(p.clone(), &[cnt], &db, &PlanConfig { fuse: false, ..PlanConfig::default() });
    assert!(
        fused.prog.stmts.iter().any(|s| matches!(s.op, MilOp::Fused { .. })),
        "got:\n{}",
        fused.prog
    );
    assert!(
        !unfused.prog.stmts.iter().any(|s| matches!(s.op, MilOp::Fused { .. })),
        "`fuse: false` must reproduce the unfused emission:\n{}",
        unfused.prog
    );
    let a = execute(&ExecCtx::new(), &db, &fused.prog, &[fused.var(cnt)]).unwrap();
    let b = execute(&ExecCtx::new(), &db, &unfused.prog, &[unfused.var(cnt)]).unwrap();
    assert_eq!(
        a.scalar(fused.var(cnt)).unwrap(),
        b.scalar(unfused.var(cnt)).unwrap(),
        "fused and unfused legs disagree"
    );
}
