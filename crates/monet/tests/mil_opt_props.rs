//! The plan optimizer's props oracle: every `ColProps` the static shape
//! inference ([`monet::mil::opt::infer_shapes`]) predicts for a MIL
//! operation's result must actually hold on the computed column, for
//! every atom type — otherwise a rewrite could rest on a fact that fails
//! at run time.
//!
//! Each case builds a small program over seeded BATs, asks the optimizer
//! for its predictions, executes the raw program, and checks the claimed
//! `sorted`/`key`/`dense` flags against `check_sorted`/`check_key`/
//! `check_dense` scans of the materialized columns (reality, not the
//! run-time descriptor — which may legitimately claim more). Every such
//! program also checks that one optimizer sweep is a fixpoint.

use monet::atom::{AtomType, AtomValue, Date};
use monet::bat::Bat;
use monet::column::Column;
use monet::config::PlanConfig;
use monet::ctx::ExecCtx;
use monet::db::Db;
use monet::mil::opt::{infer_shapes, optimize};
use monet::mil::{execute, MilArg, MilOp, MilProgram, Var};
use monet::ops::{AggFunc, ScalarFunc};

/// All nine atom types.
const TYPES: [AtomType; 9] = [
    AtomType::Void,
    AtomType::Oid,
    AtomType::Bool,
    AtomType::Chr,
    AtomType::Int,
    AtomType::Lng,
    AtomType::Dbl,
    AtomType::Str,
    AtomType::Date,
];

/// A deterministic, duplicate-carrying, unsorted value of type `ty` for
/// seed index `i` (void columns are inherently dense — handled apart).
fn value(ty: AtomType, i: u64) -> AtomValue {
    let v = (i * 7 + 3) % 11; // duplicates over 32 rows, unsorted
    match ty {
        AtomType::Void | AtomType::Oid => AtomValue::Oid(100 + v),
        AtomType::Bool => AtomValue::Bool(v % 2 == 0),
        AtomType::Chr => AtomValue::Chr(b'a' + v as u8),
        AtomType::Int => AtomValue::Int(v as i32 * 3),
        AtomType::Lng => AtomValue::Lng(v as i64 * 1_000_000_007),
        AtomType::Dbl => AtomValue::Dbl(v as f64 * 0.75 - 2.0),
        AtomType::Str => AtomValue::str(format!("s{v:02}")),
        AtomType::Date => AtomValue::Date(Date::from_ymd(1994, 1, 1).add_days(v as i32 * 17)),
    }
}

fn col(ty: AtomType, n: usize) -> Column {
    if ty == AtomType::Void {
        return Column::void(50, n);
    }
    Column::from_atoms(ty, (0..n as u64).map(|i| value(ty, i)))
}

fn sorted_col(ty: AtomType, n: usize) -> Column {
    if ty == AtomType::Void {
        return Column::void(50, n);
    }
    let mut vals: Vec<AtomValue> = (0..n as u64).map(|i| value(ty, i)).collect();
    vals.sort_by(|a, b| a.cmp_same_type(b));
    Column::from_atoms(ty, vals)
}

/// Seeded catalog: per tail type, an unsorted attribute-like BAT, a
/// tail-sorted one, a second operand, and a shared-head sibling (synced).
fn db() -> Db {
    let n = 32;
    let mut db = Db::new();
    let shuffled_head = || {
        // Unsorted keyed oid head.
        Column::from_oids((0..n as u64).map(|i| 200 + (i * 13) % n as u64).collect())
    };
    for ty in TYPES {
        let head = shuffled_head();
        db.register(&format!("a_{ty}"), Bat::with_inferred_props(head.clone(), col(ty, n)));
        db.register(
            &format!("sorted_{ty}"),
            Bat::with_inferred_props(Column::from_oids((0..n as u64).collect()), sorted_col(ty, n)),
        );
        db.register(
            &format!("b_{ty}"),
            Bat::with_inferred_props(
                Column::from_oids((0..n as u64).map(|i| 200 + (i * 5) % 40).collect()),
                col(ty, n),
            ),
        );
        // Same head *column* as a_{ty}: runtime-synced with it.
        db.register(&format!("sib_{ty}"), Bat::with_inferred_props(head, col(ty, n)));
        // Duplicate-head grouping input [oid-with-dups, ty].
        db.register(
            &format!("dup_{ty}"),
            Bat::with_inferred_props(
                Column::from_oids((0..n as u64).map(|i| 300 + i % 5).collect()),
                col(ty, n),
            ),
        );
    }
    db
}

/// Variables no later statement reads: as roots they keep every statement
/// of an optimized program alive.
fn sinks(prog: &MilProgram) -> Vec<Var> {
    let mut read = vec![false; prog.len()];
    for stmt in &prog.stmts {
        stmt.op.for_each_operand(|v| read[v] = true);
    }
    (0..prog.len()).filter(|&v| !read[v]).collect()
}

/// One sweep is a fixpoint: optimizing `prog` twice applies no rewrite the
/// second time and leaves the listing as the first sweep made it.
fn assert_fixpoint(db: &Db, prog: &MilProgram, what: &str) {
    let once = optimize(prog.clone(), &sinks(prog), db, &PlanConfig::default()).prog;
    let twice = optimize(once.clone(), &sinks(&once), db, &PlanConfig::default());
    assert_eq!(twice.report.rewrites(), 0, "{what}: a second sweep still rewrites:\n{once}");
    assert_eq!(twice.prog.to_string(), once.to_string(), "{what}");
}

/// Execute `prog` and assert that every statically predicted shape holds
/// on the actually computed BAT.
fn check(db: &Db, prog: &MilProgram, what: &str) {
    assert_fixpoint(db, prog, what);
    let shapes = infer_shapes(prog, db);
    let keep: Vec<Var> = (0..prog.len()).collect();
    let ctx = ExecCtx::new();
    let env = execute(&ctx, db, prog, &keep).unwrap_or_else(|e| panic!("{what}: exec failed: {e}"));
    for (v, shape) in shapes.iter().enumerate() {
        let Some(s) = shape else { continue };
        let bat = env.bat(v).unwrap_or_else(|_| panic!("{what}: var {v} should be a BAT"));
        for (side, col, p) in
            [("head", bat.head(), s.props.head), ("tail", bat.tail(), s.props.tail)]
        {
            // The ground truth from full scans of the materialized column;
            // the static claim must sit below it in the soundness order.
            let actual = monet::props::ColProps {
                sorted: col.check_sorted(),
                key: col.check_key(),
                dense: col.check_dense(),
                enc: col.encoding(),
            };
            assert!(
                p.implies(actual),
                "{what}: var {v} {side} predicted {p:?} but the data is {actual:?}"
            );
        }
    }
}

fn load(p: &mut MilProgram, name: &str) -> Var {
    p.emit(name, MilOp::Load(name.to_string()))
}

#[test]
fn unary_op_predictions_hold_for_all_types() {
    let db = db();
    for ty in TYPES {
        for src_name in [format!("a_{ty}"), format!("sorted_{ty}"), format!("dup_{ty}")] {
            let mut p = MilProgram::new();
            let a = load(&mut p, &src_name);
            let m = p.emit("m", MilOp::Mirror(a));
            let _mm = p.emit("mm", MilOp::Mirror(m));
            let _sel = p.emit("sel", MilOp::SelectEq(a, value(ty, 3)));
            let _rng = p.emit(
                "rng",
                MilOp::SelectRange {
                    src: a,
                    lo: Some(value(ty, 1)),
                    hi: None,
                    inc_lo: true,
                    inc_hi: true,
                },
            );
            let _u = p.emit("u", MilOp::Unique(a));
            let _g1 = p.emit("g1", MilOp::Group1(a));
            let _st = p.emit("st", MilOp::SortTail(a));
            let _sh = p.emit("sh", MilOp::SortHead(a));
            let _tn = p.emit("tn", MilOp::TopN { src: a, n: 5, desc: true });
            let _ta = p.emit("ta", MilOp::TopN { src: a, n: 5, desc: false });
            let _mk = p.emit("mk", MilOp::Mark(a));
            let _agg = p.emit("agg", MilOp::SetAgg { f: AggFunc::Count, src: a });
            check(&db, &p, &format!("unary over {src_name}"));
        }
    }
}

#[test]
fn binary_op_predictions_hold_for_all_types() {
    let db = db();
    for ty in TYPES {
        let mut p = MilProgram::new();
        let a = load(&mut p, &format!("a_{ty}"));
        let b = load(&mut p, &format!("b_{ty}"));
        let srt = load(&mut p, &format!("sorted_{ty}"));
        let bm = p.emit("bm", MilOp::Mirror(b));
        // join on tail type `ty` (a's tail against mirrored b's head).
        let _j = p.emit("j", MilOp::Join(a, bm));
        // join with a sorted right head.
        let srtm = p.emit("srtm", MilOp::Mirror(srt));
        let am = p.emit("am", MilOp::Mirror(a));
        let _jm = p.emit("jm", MilOp::Join(am, srt));
        // semijoin/antijoin on heads of type `ty` (mirrored operands).
        let _sj = p.emit("sj", MilOp::Semijoin(am, bm));
        let _aj = p.emit("aj", MilOp::Antijoin(am, bm));
        let _sj2 = p.emit("sj2", MilOp::Semijoin(srtm, bm));
        // bag concatenation on equal signatures.
        let _cc = p.emit("cc", MilOp::Concat(a, b));
        // group refinement over duplicate heads.
        let d = load(&mut p, &format!("dup_{ty}"));
        let g1 = p.emit("g1", MilOp::Group1(d));
        let _g2 = p.emit("g2", MilOp::Group2(g1, d));
        check(&db, &p, &format!("binary over {ty}"));
    }
}

#[test]
fn zip_and_multiplex_predictions_hold() {
    let db = db();
    for ty in TYPES {
        let mut p = MilProgram::new();
        let a = load(&mut p, &format!("a_{ty}"));
        let sib = load(&mut p, &format!("sib_{ty}"));
        // sib shares a's head column: synced at run time.
        let _z = p.emit("z", MilOp::Zip(a, sib));
        let _eq = p.emit(
            "eq",
            MilOp::Multiplex { f: ScalarFunc::Eq, args: vec![MilArg::Var(a), MilArg::Var(sib)] },
        );
        let _eqc = p.emit(
            "eqc",
            MilOp::Multiplex {
                f: ScalarFunc::Eq,
                args: vec![MilArg::Var(a), MilArg::Const(value(ty, 3))],
            },
        );
        check(&db, &p, &format!("zip/multiplex over {ty}"));
    }
    // Numeric multiplex chains (the Q13 revenue shape).
    for ty in [AtomType::Int, AtomType::Lng, AtomType::Dbl] {
        let mut p = MilProgram::new();
        let a = load(&mut p, &format!("a_{ty}"));
        let sib = load(&mut p, &format!("sib_{ty}"));
        let s = p.emit(
            "s",
            MilOp::Multiplex {
                f: ScalarFunc::Sub,
                args: vec![MilArg::Const(value(ty, 9)), MilArg::Var(a)],
            },
        );
        let _m = p.emit(
            "m",
            MilOp::Multiplex { f: ScalarFunc::Mul, args: vec![MilArg::Var(sib), MilArg::Var(s)] },
        );
        check(&db, &p, &format!("numeric multiplex over {ty}"));
    }
}

#[test]
fn predictions_hold_on_optimized_programs_too() {
    // Later rules read facts of already rewritten statements through the
    // same inference; rerun the oracle on post-optimizer output for a
    // chain mixing selects, joins and grouping.
    let db = db();
    for ty in TYPES {
        let mut p = MilProgram::new();
        let srt = load(&mut p, &format!("sorted_{ty}"));
        let sel = p.emit(
            "sel",
            MilOp::SelectRange {
                src: srt,
                lo: Some(value(ty, 1)),
                hi: None,
                inc_lo: true,
                inc_hi: true,
            },
        );
        let b = load(&mut p, &format!("b_{ty}"));
        let selm = p.emit("selm", MilOp::Mirror(sel));
        let j = p.emit("j", MilOp::Join(b, selm));
        let g = p.emit("g", MilOp::Group1(j));
        let gm = p.emit("gm", MilOp::Mirror(g));
        let cnt = p.emit("cnt", MilOp::SetAgg { f: AggFunc::Count, src: gm });
        let out = optimize(p, &[cnt, j], &db, &PlanConfig::default());
        check(&db, &out.prog, &format!("optimized chain over {ty}"));
    }
}

#[test]
fn sync_join_claims_exactly_what_the_arm_it_replaces_claims() {
    // Whether a join's two join columns are one and the same column is a
    // run-time fact: the static inference sees the same shapes either way.
    // So the `sync` arm must satisfy every prediction the oracle checks,
    // and claim exactly the descriptor of the arm that joins an
    // equal-valued *copy* of the column — raw program or optimized.
    let n = 32u64;
    let heads: [(&str, Vec<u64>); 3] = [
        ("shuffled (direct)", (0..n).map(|i| 200 + (i * 13) % n).collect()),
        ("sorted (merge)", (0..n).map(|i| 200 + 2 * i).collect()),
        ("dense (fetch)", (0..n).map(|i| 200 + i).collect()),
    ];
    for ty in TYPES {
        for (what, oids) in &heads {
            let shared = Column::from_oids(oids.clone());
            let mut db = Db::new();
            db.register(
                "refs",
                Bat::with_inferred_props(col(AtomType::Int, n as usize), shared.clone()),
            );
            db.register("same", Bat::with_inferred_props(shared, col(ty, n as usize)));
            db.register(
                "twin",
                Bat::with_inferred_props(Column::from_oids(oids.clone()), col(ty, n as usize)),
            );
            let mut p = MilProgram::new();
            let refs = load(&mut p, "refs");
            let same = load(&mut p, "same");
            let twin = load(&mut p, "twin");
            let js = p.emit("js", MilOp::Join(refs, same));
            let jt = p.emit("jt", MilOp::Join(refs, twin));
            let optimized = optimize(p.clone(), &[js, jt], &db, &PlanConfig::default());
            for (prog, tag) in [(&p, "raw"), (&optimized.prog, "optimized")] {
                let what = format!("{tag} {what} join over {ty}");
                check(&db, prog, &what);
                let ctx = ExecCtx::new();
                let keep: Vec<Var> = (0..prog.len()).collect();
                let env = execute(&ctx, &db, prog, &keep).unwrap();
                let algo = |name: &str| {
                    let t =
                        env.trace().iter().find(|t| t.name(prog) == name).expect("join statement");
                    (t.algo, env.bat(t.var).unwrap())
                };
                let ((sync, s), (other, t)) = (algo("js"), algo("jt"));
                assert_eq!(sync, "sync", "{what}");
                assert_ne!(other, "sync", "{what}");
                assert_eq!(s.iter().collect::<Vec<_>>(), t.iter().collect::<Vec<_>>(), "{what}");
                let semantic = |b: &Bat| {
                    let p = b.props();
                    [p.head, p.tail].map(|c| (c.sorted, c.key, c.dense))
                };
                assert_eq!(semantic(s), semantic(t), "{what}: sync vs {other} descriptor");
            }
        }
    }
}
