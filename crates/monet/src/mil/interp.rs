//! MIL interpreter.
//!
//! Executes a straight-line MIL program against a catalog of persistent
//! BATs. Each statement's elapsed time, page faults and dynamically chosen
//! algorithm are captured as a [`StmtTrace`] — the raw material of the
//! paper's Figure 10. Intermediates are freed at their last use: the
//! interpreter drops a dead value, and the context's memory ledger
//! ([`crate::ctx::MemTracker`]), which charged each allocation once
//! however many values share it, releases it at the statement's sweep
//! once nothing references it — so the budget, the "max (MB)" column of
//! Figure 9 and the allocation total read one account.

use std::sync::Arc;
use std::time::Instant;

use crate::atom::AtomValue;
use crate::bat::Bat;
use crate::ctx::{ExecCtx, MemTracker};
use crate::db::Db;
use crate::error::{MonetError, Result};
use crate::ops;

use super::ast::{MilArg, MilOp, Var};
use super::bound::{bind_op, Executable};

/// A MIL variable's value: a BAT or a scalar.
#[derive(Debug, Clone)]
pub enum MilValue {
    Bat(Bat),
    Scalar(AtomValue),
}

impl MilValue {
    pub fn as_bat(&self) -> Result<&Bat> {
        match self {
            MilValue::Bat(b) => Ok(b),
            MilValue::Scalar(v) => Err(MonetError::KindMismatch {
                op: "mil",
                detail: format!("expected a BAT, found scalar {v}"),
            }),
        }
    }

    pub fn as_scalar(&self) -> Result<&AtomValue> {
        match self {
            MilValue::Scalar(v) => Ok(v),
            MilValue::Bat(_) => Err(MonetError::KindMismatch {
                op: "mil",
                detail: "expected a scalar, found a BAT".into(),
            }),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            MilValue::Bat(b) => b.bytes(),
            MilValue::Scalar(_) => 0,
        }
    }
}

/// Per-statement execution record (one row of Figure 10): numbers only,
/// filled for every statement of every execution. Rows describe the
/// program the interpreter actually ran — after plan optimization, `var`
/// indexes the *rewritten* statements — and the statement's name and MIL
/// text are rendered from that program on demand ([`StmtTrace::name`],
/// [`StmtTrace::render`]).
#[derive(Debug, Clone, Copy)]
pub struct StmtTrace {
    /// Variable the statement defines (its index in the executed program).
    pub var: Var,
    pub ms: f64,
    pub faults: u64,
    /// The implementation the statement's kernel chose (`""` for `load`,
    /// `mirror`, constants and scalar aggregates).
    pub algo: &'static str,
    pub result_len: usize,
    pub result_bytes: usize,
}

impl StmtTrace {
    /// Name of the variable the statement defines, in `prog` — the program
    /// this record's execution ran.
    pub fn name<'p, P: Executable + ?Sized>(&self, prog: &'p P) -> &'p str {
        prog.program().name_of(self.var)
    }

    /// The statement as MIL text, with the parameter values it ran with.
    pub fn render<P: Executable + ?Sized>(&self, prog: &P) -> String {
        prog.render_stmt(self.var)
    }
}

/// The interpreter environment after execution. Its values stay charged
/// in the ledger until it is dropped.
pub struct Env {
    values: Vec<Option<MilValue>>,
    trace: Vec<StmtTrace>,
    /// The ledger the values were charged to, swept when they go.
    mem: Arc<MemTracker>,
}

impl Drop for Env {
    fn drop(&mut self) {
        self.values.clear();
        self.mem.sweep(true);
    }
}

impl Env {
    /// Value of a variable; freed intermediates are not retrievable, so
    /// callers keep the variables of interest alive by referencing them in
    /// later statements or reading them right after execution (the
    /// interpreter never frees the final statement's result or any result
    /// variable listed in `keep`).
    pub fn get(&self, v: Var) -> Result<&MilValue> {
        self.values
            .get(v)
            .and_then(|x| x.as_ref())
            .ok_or_else(|| MonetError::UnknownName(format!("mil var {v} (freed or unset)")))
    }

    pub fn bat(&self, v: Var) -> Result<&Bat> {
        self.get(v)?.as_bat()
    }

    pub fn scalar(&self, v: Var) -> Result<&AtomValue> {
        self.get(v)?.as_scalar()
    }

    /// Per-statement trace, in program order.
    pub fn trace(&self) -> &[StmtTrace] {
        &self.trace
    }
}

/// Execute `prog` against `db`: a [`super::MilProgram`] with its own constants,
/// or a [`super::BoundProgram`] — a shared program with this execution's
/// parameter values. Variables in `keep` (typically the result BATs of
/// the query's structure expression) survive liveness-based freeing.
pub fn execute<P: Executable + ?Sized>(
    ctx: &ExecCtx,
    db: &Db,
    prog: &P,
    keep: &[Var],
) -> Result<Env> {
    // Per-execution state starts empty and dies with the execution, abort
    // included: the memo (datavector LOOKUPs, `{g}` groupings) is keyed by
    // intermediates of *this* program, and on abort the values drop before
    // the scope does, so its sweep leaves nothing of theirs charged.
    struct Scope<'a>(&'a ExecCtx);
    impl Drop for Scope<'_> {
        fn drop(&mut self) {
            self.0.memo_drop(true);
            self.0.mem.sweep(true);
        }
    }
    ctx.memo_drop(true);
    // The byte budget covers the intermediates of *this* program, not
    // whatever ran before on the ctx.
    ctx.mem.begin();
    let _scope = Scope(ctx);
    let (stmts, overlay, frees) = (&prog.program().stmts, prog.overlay(), prog.frees());
    let mut values: Vec<Option<MilValue>> = vec![None; stmts.len()];
    let mut trace: Vec<StmtTrace> = Vec::with_capacity(stmts.len());
    let last = stmts.len().saturating_sub(1);
    // A label left by a kernel called outside any program is not ours.
    ctx.take_algo();

    for (i, stmt) in stmts.iter().enumerate() {
        ctx.probe(crate::gov::site::MIL_STMT)?;
        let op = bind_op(stmt, overlay)?;
        let started = Instant::now();
        let faults0 = ctx.faults();
        let value = eval_op(ctx, db, &values, &op)?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let faults = ctx.faults().saturating_sub(faults0);
        // The label the statement's kernel published through
        // `ExecCtx::record` (none for load/mirror/const).
        let algo = ctx.take_algo();
        trace.push(StmtTrace {
            var: stmt.var,
            ms,
            faults,
            algo,
            result_len: match &value {
                MilValue::Bat(b) => b.len(),
                MilValue::Scalar(_) => 1,
            },
            result_bytes: value.bytes(),
        });
        values[stmt.var] = Some(value);
        // Free dead intermediates ("algebraic buffer management"). Then the
        // memo lets go of the entries whose key died, and the ledger of
        // what no live value references any more.
        let mut dropped = false;
        for &v in &frees[i] {
            if !keep.contains(&v) && v != last {
                dropped |= matches!(values[v].take(), Some(MilValue::Bat(_)));
            }
        }
        if dropped {
            ctx.memo_drop(false);
        }
        ctx.mem.sweep(dropped);
    }
    Ok(Env { values, trace, mem: Arc::clone(&ctx.mem) })
}

/// Execute one statement through its operator, whose own dispatch picks
/// the implementation from the operands' descriptors.
fn eval_op(ctx: &ExecCtx, db: &Db, env: &[Option<MilValue>], op: &MilOp) -> Result<MilValue> {
    let bat = |v: Var| -> Result<&Bat> {
        env.get(v)
            .and_then(|x| x.as_ref())
            .ok_or_else(|| MonetError::UnknownName(format!("mil var {v}")))?
            .as_bat()
    };
    Ok(match op {
        MilOp::Load(name) => MilValue::Bat(db.get(name)?.clone()),
        MilOp::ConstScalar(v) => MilValue::Scalar(v.clone()),
        MilOp::Mirror(v) => MilValue::Bat(bat(*v)?.mirror()),
        MilOp::SelectEq(v, val) => MilValue::Bat(ops::select_eq(ctx, bat(*v)?, val)?),
        MilOp::SelectRange { src, lo, hi, inc_lo, inc_hi } => MilValue::Bat(ops::select_range(
            ctx,
            bat(*src)?,
            lo.as_ref(),
            hi.as_ref(),
            *inc_lo,
            *inc_hi,
        )?),
        MilOp::Join(a, b) => MilValue::Bat(ops::join(ctx, bat(*a)?, bat(*b)?)?),
        MilOp::Join2(a, b, a2, b2) => {
            MilValue::Bat(ops::join2(ctx, bat(*a)?, bat(*b)?, bat(*a2)?, bat(*b2)?)?)
        }
        MilOp::Semijoin(a, b) => MilValue::Bat(ops::semijoin(ctx, bat(*a)?, bat(*b)?)?),
        MilOp::Antijoin(a, b) => MilValue::Bat(ops::antijoin(ctx, bat(*a)?, bat(*b)?)?),
        MilOp::Unique(v) => MilValue::Bat(ops::unique(ctx, bat(*v)?)?),
        MilOp::Group1(v) => MilValue::Bat(ops::group1(ctx, bat(*v)?)?),
        MilOp::Group2(a, b) => MilValue::Bat(ops::group2(ctx, bat(*a)?, bat(*b)?)?),
        MilOp::Multiplex { f, args } => {
            let mut margs = Vec::with_capacity(args.len());
            for a in args {
                margs.push(match a {
                    MilArg::Var(v) => match env
                        .get(*v)
                        .and_then(|x| x.as_ref())
                        .ok_or_else(|| MonetError::UnknownName(format!("mil var {v}")))?
                    {
                        MilValue::Bat(b) => ops::MultArg::Bat(b.clone()),
                        MilValue::Scalar(s) => ops::MultArg::Const(s.clone()),
                    },
                    MilArg::Const(v) => ops::MultArg::Const(v.clone()),
                });
            }
            MilValue::Bat(ops::multiplex(ctx, *f, &margs)?)
        }
        MilOp::Fused => {
            return Err(MonetError::Malformed {
                op: "fused",
                detail: "statements run one operator at a time; nothing emits `fused`".into(),
            })
        }
        MilOp::SetAgg { f, src } => MilValue::Bat(ops::set_aggregate(ctx, *f, bat(*src)?)?),
        MilOp::AggrScalar { f, src } => MilValue::Scalar(ops::aggr_scalar(ctx, bat(*src)?, *f)?),
        MilOp::Concat(a, b) => MilValue::Bat(ops::concat_bats(ctx, bat(*a)?, bat(*b)?)?),
        MilOp::Zip(a, b) => MilValue::Bat(ops::zip(ctx, bat(*a)?, bat(*b)?)?),
        MilOp::SortTail(v) => MilValue::Bat(ops::sort_tail(ctx, bat(*v)?)?),
        MilOp::SortHead(v) => MilValue::Bat(ops::sort_head(ctx, bat(*v)?)?),
        MilOp::TopN { src, n, desc } => MilValue::Bat(ops::topn(ctx, bat(*src)?, *n, *desc)?),
        MilOp::Mark(v) => MilValue::Bat(ops::mark(ctx, bat(*v)?, None)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::mil::MilProgram;

    fn db() -> Db {
        let mut db = Db::new();
        db.register(
            "Order_clerk",
            Bat::with_inferred_props(
                Column::from_oids(vec![4, 2, 7, 1]),
                Column::from_strs(["a", "b", "b", "c"]),
            ),
        );
        db.register(
            "Item_order",
            Bat::new(Column::from_oids(vec![100, 101, 102]), Column::from_oids(vec![2, 7, 1])),
        );
        // Unsorted: a selection scans and allocates its result.
        db.register(
            "Order_status",
            Bat::with_inferred_props(
                Column::from_oids(vec![4, 2, 7, 1]),
                Column::from_strs(["c", "b", "b", "a"]),
            ),
        );
        db
    }

    #[test]
    fn runs_a_small_pipeline() {
        let ctx = ExecCtx::new();
        let db = db();
        let mut p = MilProgram::new();
        let clerk = p.emit("clerk", MilOp::Load("Order_clerk".into()));
        let orders = p.emit("orders", MilOp::SelectEq(clerk, AtomValue::str("b")));
        let io = p.emit("io", MilOp::Load("Item_order".into()));
        let items = p.emit("items", MilOp::Join(io, orders));
        let env = execute(&ctx, &db, &p, &[items]).unwrap();
        let result = env.bat(items).unwrap();
        assert_eq!(result.len(), 2);
        let mut heads: Vec<u64> = (0..2).map(|i| result.head().oid_at(i)).collect();
        heads.sort_unstable();
        assert_eq!(heads, vec![100, 101]);
    }

    #[test]
    fn freed_intermediates_are_unavailable() {
        let ctx = ExecCtx::new();
        let db = db();
        let mut p = MilProgram::new();
        let clerk = p.emit("clerk", MilOp::Load("Order_clerk".into()));
        let m = p.emit("m", MilOp::Mirror(clerk));
        let u = p.emit("u", MilOp::Unique(m));
        let env = execute(&ctx, &db, &p, &[u]).unwrap();
        assert!(env.bat(u).is_ok());
        assert!(env.bat(clerk).is_err()); // freed after its last use
    }

    #[test]
    fn keep_protects_variables() {
        let ctx = ExecCtx::new();
        let db = db();
        let mut p = MilProgram::new();
        let clerk = p.emit("clerk", MilOp::Load("Order_clerk".into()));
        let m = p.emit("m", MilOp::Mirror(clerk));
        let _u = p.emit("u", MilOp::Unique(m));
        let env = execute(&ctx, &db, &p, &[clerk, m]).unwrap();
        assert!(env.bat(clerk).is_ok());
        assert!(env.bat(m).is_ok());
    }

    #[test]
    fn scalar_aggregate_statement() {
        let ctx = ExecCtx::new();
        let mut db = Db::new();
        db.register("nums", Bat::new(Column::from_oids(vec![1, 2]), Column::from_ints(vec![4, 6])));
        let mut p = MilProgram::new();
        let v = p.emit("nums", MilOp::Load("nums".into()));
        let s = p.emit("total", MilOp::AggrScalar { f: ops::AggFunc::Sum, src: v });
        let env = execute(&ctx, &db, &p, &[s]).unwrap();
        assert_eq!(env.scalar(s).unwrap(), &AtomValue::Lng(10));
    }

    /// Bytes of the distinct columns of `bats` that are not `db`'s: what
    /// the ledger charges for them (one column, one charge; the catalog's
    /// columns are borrowed).
    fn charged_once<'a>(db: &Db, bats: impl IntoIterator<Item = &'a Bat>) -> u64 {
        let key = |c: &Column| (c.identity(), c.encoding());
        let catalog: Vec<_> = db.iter().flat_map(|(_, b)| [key(b.head()), key(b.tail())]).collect();
        let mut cols = std::collections::HashMap::new();
        for c in bats.into_iter().flat_map(|b| [b.head(), b.tail()]) {
            if !catalog.contains(&key(c)) {
                cols.insert(key(c), c.bytes() as u64);
            }
        }
        cols.values().sum()
    }

    #[test]
    fn the_memo_is_shared_within_an_execution_and_dropped_after_it() {
        use crate::accel::datavector::{Datavector, Extent};
        use crate::ctx::MemoKey;
        use std::sync::Arc;

        // Two attributes of one class, tail-sorted with datavectors over
        // the shared class extent, and a selection of two of its objects.
        let extent = Extent::new(Column::from_oids(vec![10, 11, 12, 13]));
        let attr = |oids: Vec<u64>, vals: Vec<f64>, by_oid: Vec<f64>| {
            let mut b = Bat::new(Column::from_oids(oids), Column::from_dbls(vals));
            b.set_datavector(Arc::new(Datavector::new(
                Arc::clone(&extent),
                Column::from_dbls(by_oid),
            )));
            b
        };
        let mut db = Db::new();
        db.register(
            "price",
            attr(vec![10, 11, 12, 13], vec![1.0, 2.0, 3.0, 4.0], vec![1.0, 2.0, 3.0, 4.0]),
        );
        db.register(
            "disc",
            attr(vec![13, 12, 11, 10], vec![0.1, 0.2, 0.3, 0.4], vec![0.4, 0.3, 0.2, 0.1]),
        );
        let sel = Bat::with_inferred_props(Column::from_oids(vec![13, 11]), Column::void(0, 2));
        db.register("sel", sel.clone());
        // Two value BATs over one grouping column: the `{g}` tail of a nest.
        let classes = Column::from_oids(vec![7, 8, 7, 9]);
        db.register("qty", Bat::new(classes.clone(), Column::from_ints(vec![1, 2, 3, 4])));
        db.register("amt", Bat::new(classes.clone(), Column::from_dbls(vec![0.5, 1.5, 2.5, 3.5])));

        let mut p = MilProgram::new();
        let s = p.emit("sel", MilOp::Load("sel".into()));
        let price = p.emit("price", MilOp::Load("price".into()));
        let disc = p.emit("disc", MilOp::Load("disc".into()));
        let prices = p.emit("prices", MilOp::Semijoin(price, s));
        let discs = p.emit("discs", MilOp::Semijoin(disc, s));
        let qty = p.emit("qty", MilOp::Load("qty".into()));
        let amt = p.emit("amt", MilOp::Load("amt".into()));
        let n = p.emit("n", MilOp::SetAgg { f: ops::AggFunc::Count, src: qty });
        let total = p.emit("total", MilOp::SetAgg { f: ops::AggFunc::Sum, src: amt });

        let ctx = ExecCtx::new();
        let keys = [
            MemoKey::Lookup(extent.oids().identity(), sel.head().identity()),
            MemoKey::Grouping(classes.identity()),
        ];
        let memo_is_empty = |ctx: &ExecCtx| keys.iter().all(|k| ctx.memo_get(*k).is_none());
        for run in 0..2 {
            let keep = [prices, discs, n, total];
            let env = execute(&ctx, &db, &p, &keep).unwrap();
            let algos: Vec<_> =
                env.trace().iter().map(|t| t.algo).filter(|a| !a.is_empty()).collect();
            // Within one execution the second semijoin reuses the first's
            // LOOKUP and the second `{g}` the first's grouping.
            assert_eq!(algos, ["datavector", "datavector", "direct", "memo"], "run {run}");
            // The shared LOOKUP's gathered head makes the results synced.
            let (a, b) = (env.bat(prices).unwrap(), env.bat(discs).unwrap());
            assert!(a.synced(b), "run {run}: sibling semijoins must share their head");
            assert_eq!(a.tail().as_dbl_slice().unwrap(), &[4.0, 2.0]);
            assert_eq!(b.tail().as_dbl_slice().unwrap(), &[0.1, 0.3]);
            assert_eq!(env.bat(n).unwrap().tail().as_lng_slice().unwrap(), &[2, 1, 1]);
            assert_eq!(env.bat(total).unwrap().tail().as_dbl_slice().unwrap(), &[3.0, 1.5, 3.5]);
            // ... and the memo dies with the execution, so the next one
            // starts cold even though `sel` is the same catalog BAT — its
            // bytes returned to the budget: only the kept results stay
            // charged, each column once.
            assert!(memo_is_empty(&ctx), "run {run}: memo outlived its execution");
            let kept = charged_once(&db, keep.iter().map(|v| env.bat(*v).unwrap()));
            assert_eq!(ctx.mem.charged_bytes(), kept, "run {run}: memo charge leaked");
            assert!(ctx.mem.charged_peak() > kept, "run {run}: memo was never charged");
        }

        // An aborted execution drops its memo too: after the LOOKUP, and
        // after the grouping.
        for (site, nth) in [("op/semijoin", 2), ("op/set-aggregate", 2)] {
            ctx.gov.arm_fault(site, nth);
            assert!(matches!(execute(&ctx, &db, &p, &[]), Err(MonetError::Injected { .. })));
            assert!(memo_is_empty(&ctx), "abort at {site} leaked the memo");
        }
    }

    #[test]
    fn sibling_semijoins_and_the_memo_charge_their_shared_head_once() {
        use crate::accel::datavector::{Datavector, Extent};
        use std::sync::Arc;

        // Two attributes over one extent, and a selection with an oid the
        // extent lacks: the LOOKUP gathers a fresh head, which the memo
        // and both kept semijoin results share.
        let extent = Extent::new(Column::from_oids(vec![10, 11, 12, 13]));
        let mut db = Db::new();
        for (name, vals) in
            [("price", vec![1.0, 2.0, 3.0, 4.0]), ("disc", vec![0.4, 0.3, 0.2, 0.1])]
        {
            let mut b =
                Bat::new(Column::from_oids(vec![10, 11, 12, 13]), Column::from_dbls(vals.clone()));
            b.set_datavector(Arc::new(Datavector::new(
                Arc::clone(&extent),
                Column::from_dbls(vals),
            )));
            db.register(name, b);
        }
        db.register(
            "sel",
            Bat::with_inferred_props(Column::from_oids(vec![13, 99, 11]), Column::void(0, 3)),
        );
        let mut p = MilProgram::new();
        let s = p.emit("sel", MilOp::Load("sel".into()));
        let price = p.emit("price", MilOp::Load("price".into()));
        let disc = p.emit("disc", MilOp::Load("disc".into()));
        let prices = p.emit("prices", MilOp::Semijoin(price, s));
        let discs = p.emit("discs", MilOp::Semijoin(disc, s));

        let ctx = ExecCtx::new();
        let env = execute(&ctx, &db, &p, &[prices, discs]).unwrap();
        let algos: Vec<_> = env.trace().iter().map(|t| t.algo).filter(|a| !a.is_empty()).collect();
        assert_eq!(algos, ["datavector", "datavector"]);
        let (a, b) = (env.bat(prices).unwrap(), env.bat(discs).unwrap());
        assert!(a.synced(b), "sibling semijoins must share their head");
        assert_eq!(a.tail().as_dbl_slice().unwrap(), &[4.0, 2.0]);
        let head = a.head().bytes() as u64;
        let tails = (a.tail().bytes() + b.tail().bytes()) as u64;
        assert!(head > 0 && db.iter().all(|(_, c)| c.head().identity() != a.head().identity()));
        // One head, charged once: while the memo and both results hold it,
        // and after the memo let go of it.
        assert_eq!(ctx.mem.charged_bytes(), head + tails);
        assert_eq!(ctx.mem.total_bytes(), head + tails, "allocated once, counted once");
        // The peak adds the LOOKUP's two positions, nothing for the head.
        assert_eq!(ctx.mem.charged_peak(), head + tails + 4 * 2);
    }

    #[test]
    fn a_memo_entry_dies_with_its_key_column() {
        use crate::accel::datavector::{Datavector, Extent};
        use std::sync::Arc;

        // Two attributes over one 40-object extent; two probes: the
        // catalog selection `sel` (live all program) and `a`, an
        // intermediate selection that dies halfway. Both hold an oid the
        // extent lacks, so each LOOKUP gathers a fresh head.
        let oids: Vec<u64> = (10..50).collect();
        let extent = Extent::new(Column::from_oids(oids.clone()));
        let mut db = Db::new();
        for name in ["price", "disc"] {
            let vals: Vec<f64> = (0..40).map(f64::from).collect();
            let mut b = Bat::new(Column::from_oids(oids.clone()), Column::from_dbls(vals.clone()));
            b.set_datavector(Arc::new(Datavector::new(
                Arc::clone(&extent),
                Column::from_dbls(vals),
            )));
            db.register(name, b);
        }
        let sel: Vec<u64> = (10..46).chain([999]).collect();
        db.register("sel", Bat::with_inferred_props(Column::from_oids(sel), Column::void(0, 37)));
        db.register(
            "src",
            Bat::with_inferred_props(
                Column::from_oids(vec![13, 50, 99, 11]),
                Column::from_ints(vec![1, 2, 1, 1]),
            ),
        );
        let mut p = MilProgram::new();
        let b = p.emit("sel", MilOp::Load("sel".into()));
        let price = p.emit("price", MilOp::Load("price".into()));
        let pb = p.emit("pb", MilOp::Semijoin(price, b));
        let src = p.emit("src", MilOp::Load("src".into()));
        let a = p.emit("a", MilOp::SelectEq(src, AtomValue::Int(1)));
        let pa = p.emit("pa", MilOp::Semijoin(price, a));
        let sa = p.emit("sa", MilOp::AggrScalar { f: ops::AggFunc::Sum, src: pa });
        let disc = p.emit("disc", MilOp::Load("disc".into()));
        let db_ = p.emit("db", MilOp::Semijoin(disc, b));

        let ctx = ExecCtx::new();
        let keep = [pb, sa, db_];
        let env = execute(&ctx, &db, &p, &keep).unwrap();
        let algos: Vec<_> = env.trace().iter().map(|t| t.algo).filter(|a| !a.is_empty()).collect();
        assert_eq!(algos, ["datavector", "scan", "datavector", "datavector"]);
        // The live key still hits: the last semijoin shares the first's head.
        let (hb, hd) = (env.bat(pb).unwrap(), env.bat(db_).unwrap());
        assert!(hb.synced(hd), "the memo entry of a live key must survive");
        assert_eq!(hb.len(), 36);
        // `a` dies with `pa`'s statement; its LOOKUP's positions go at that
        // sweep, its gathered head with `pa`. So the peak, reached when the
        // last semijoin is recorded, holds the kept results and `sel`'s
        // positions only.
        let kept = charged_once(&db, [pb, db_].iter().map(|v| env.bat(*v).unwrap()));
        assert_eq!(ctx.mem.charged_peak(), kept + 4 * 36);
        assert_eq!(ctx.mem.charged_bytes(), kept);
    }

    #[test]
    fn unknown_catalog_name_errors() {
        let ctx = ExecCtx::new();
        let db = Db::new();
        let mut p = MilProgram::new();
        let _ = p.emit("x", MilOp::Load("nope".into()));
        assert!(execute(&ctx, &db, &p, &[]).is_err());
    }

    #[test]
    fn a_fused_statement_is_refused() {
        let mut p = MilProgram::new();
        let _ = p.emit("f", MilOp::Fused);
        assert!(matches!(
            execute(&ExecCtx::new(), &db(), &p, &[]),
            Err(MonetError::Malformed { op: "fused", .. })
        ));
    }

    #[test]
    fn budget_abort_is_typed_and_a_lifted_budget_recovers() {
        let ctx = ExecCtx::new();
        let db = db();
        let mut p = MilProgram::new();
        let clerk = p.emit("clerk", MilOp::Load("Order_clerk".into()));
        let orders = p.emit("orders", MilOp::SelectEq(clerk, AtomValue::str("b")));
        let io = p.emit("io", MilOp::Load("Item_order".into()));
        let items = p.emit("items", MilOp::Join(io, orders));
        ctx.mem.set_budget(Some(1));
        let err = match execute(&ctx, &db, &p, &[items]) {
            Err(e) => e,
            Ok(_) => panic!("over-budget program completed"),
        };
        assert!(matches!(err, MonetError::BudgetExceeded { .. }), "got {err:?}");
        // The budget aborts the query, not the context: lift it and retry.
        ctx.mem.set_budget(None);
        assert_eq!(execute(&ctx, &db, &p, &[items]).unwrap().bat(items).unwrap().len(), 2);
    }

    #[test]
    fn cancellation_aborts_between_statements() {
        let ctx = ExecCtx::new();
        let db = db();
        let mut p = MilProgram::new();
        let _ = p.emit("clerk", MilOp::Load("Order_clerk".into()));
        let token = ctx.cancel_token();
        token.cancel();
        let err = match execute(&ctx, &db, &p, &[]) {
            Err(e) => e,
            Ok(_) => panic!("cancelled program completed"),
        };
        assert_eq!(err, MonetError::Cancelled);
        token.clear();
        assert!(execute(&ctx, &db, &p, &[]).is_ok());
    }

    #[test]
    fn liveness_frees_release_governor_charge() {
        let ctx = ExecCtx::new();
        let db = db();
        let mut p = MilProgram::new();
        let status = p.emit("status", MilOp::Load("Order_status".into()));
        let orders = p.emit("orders", MilOp::SelectEq(status, AtomValue::str("b")));
        let io = p.emit("io", MilOp::Load("Item_order".into()));
        let items = p.emit("items", MilOp::Join(io, orders));
        let env = execute(&ctx, &db, &p, &[items]).unwrap();
        // `orders` was charged by the select's record and released at its
        // liveness free; only the kept join result stays charged: its
        // offset and length arrays, not the catalog's byte heap it shares.
        let bat = env.bat(items).unwrap();
        let kept = (bat.bytes() - bat.tail().str_heap().unwrap().len()) as u64;
        assert_eq!(ctx.mem.charged_bytes(), kept);
        assert!(ctx.mem.charged_peak() > kept);
    }

    #[test]
    fn trace_captures_statements() {
        let ctx = ExecCtx::new();
        let db = db();
        let mut p = MilProgram::new();
        let clerk = p.emit("clerk", MilOp::Load("Order_clerk".into()));
        let _sel = p.emit("orders", MilOp::SelectEq(clerk, AtomValue::str("b")));
        let env = execute(&ctx, &db, &p, &[]).unwrap();
        assert_eq!(env.trace().len(), 2);
        assert_eq!(env.trace()[1].name(&p), "orders");
        assert_eq!(env.trace()[1].render(&p), "orders := select(clerk, \"b\")");
        assert_eq!(env.trace()[1].algo, "binary-search");
        assert_eq!(env.trace()[1].result_len, 2);
        assert_eq!(env.trace()[0].algo, "", "a load runs no kernel");
    }

    #[test]
    fn an_aborted_statement_leaves_its_arm_readable() {
        // The selection's result passes the budget: the abort comes out of
        // its `record`, after the label was published.
        let ctx = ExecCtx::new();
        let db = db();
        let mut p = MilProgram::new();
        let status = p.emit("status", MilOp::Load("Order_status".into()));
        let orders = p.emit("orders", MilOp::SelectEq(status, AtomValue::str("b")));
        ctx.mem.set_budget(Some(1));
        let err = execute(&ctx, &db, &p, &[orders]).err().expect("over-budget program completed");
        assert!(matches!(err, MonetError::BudgetExceeded { op: "select", .. }), "got {err:?}");
        assert_eq!(ctx.take_algo(), "scan");
    }
}
