//! MIL program representation.

use crate::atom::AtomValue;
use crate::ops::{AggFunc, ScalarFunc};

/// A MIL variable, indexing the interpreter environment.
pub type Var = usize;

/// An argument of a multiplexed operation: a variable or a constant
/// (constants broadcast, as in `[-](1.0, discount)`).
#[derive(Debug, Clone)]
pub enum MilArg {
    Var(Var),
    Const(AtomValue),
}

/// One BAT-algebra command (Figure 4), plus the ordering/marking utilities
/// the TPC-D plans need.
#[derive(Debug, Clone)]
pub enum MilOp {
    /// Fetch a persistent BAT from the catalog.
    Load(String),
    /// Bind a scalar constant.
    ConstScalar(AtomValue),
    /// `v.mirror` — swap head and tail, free of cost.
    Mirror(Var),
    /// `v.select(T)` — point selection on the tail.
    SelectEq(Var, AtomValue),
    /// `v.select(Tl,Th)` — range selection on the tail; `None` = unbounded.
    SelectRange {
        src: Var,
        lo: Option<AtomValue>,
        hi: Option<AtomValue>,
        inc_lo: bool,
        inc_hi: bool,
    },
    /// `a.join(b)`.
    Join(Var, Var),
    /// `join(a, b, a2, b2)` — the two-key join: the pairs of `a.join(b)`
    /// whose second keys agree, `a2` keyed by `a`'s heads and `b2` by `b`'s
    /// tails ([`crate::ops::join2`]). Safe for CSE and DCE as `join` is: a
    /// pure function of its operands that draws no fresh oids.
    Join2(Var, Var, Var, Var),
    /// `a.semijoin(b)`.
    Semijoin(Var, Var),
    /// `a.antijoin(b)` — BUNs of `a` whose head does *not* occur in `b`.
    Antijoin(Var, Var),
    /// `v.unique`.
    Unique(Var),
    /// `v.group` — unary grouping.
    Group1(Var),
    /// `a.group(b)` — refining (binary) grouping.
    Group2(Var, Var),
    /// `[f](args…)` — multiplexed scalar function.
    Multiplex { f: ScalarFunc, args: Vec<MilArg> },
    /// `{g}(v)` — set-aggregate over the head groups.
    SetAgg { f: AggFunc, src: Var },
    /// Whole-BAT scalar aggregate of the tail, producing a scalar variable.
    AggrScalar { f: AggFunc, src: Var },
    /// Bag concatenation.
    Concat(Var, Var),
    /// Positional tail combination of two synced BATs.
    Zip(Var, Var),
    /// Reorder ascending on tail.
    SortTail(Var),
    /// Reorder ascending on head.
    SortHead(Var),
    /// Largest/smallest `n` BUNs by tail.
    TopN { src: Var, n: usize, desc: bool },
    /// Fresh dense oid tail, synced with the operand.
    Mark(Var),
    /// Nothing constructs this: statements run one operator at a time, and
    /// the interpreter refuses it with
    /// [`crate::error::MonetError::Malformed`]. Kept because the acceptance
    /// benchmark (`benchmark/src/run.rs`) names it in `op_bucket`.
    Fused,
}

/// Which constant inside a [`MilOp`] a prepared-statement parameter feeds.
///
/// A parameter slot records *where* in the statement a bound query
/// parameter ended up, so a cached plan can be re-bound to new values
/// without re-translating. Slots are attached by the MOA translator and
/// must survive every optimizer pass (the optimizer may move a statement
/// or alias it away, but it never changes a parameterized constant's
/// value, so a slot stays valid wherever its statement lands).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamLoc {
    /// The value of a `SelectEq`.
    EqVal,
    /// The lower bound of a `SelectRange`.
    RangeLo,
    /// The upper bound of a `SelectRange`.
    RangeHi,
    /// The `i`-th argument of a `Multiplex` (must be `MilArg::Const`).
    Arg(u32),
}

impl MilOp {
    /// Call `f` on every variable this operation reads, in operand order
    /// (liveness analysis; no allocation).
    pub fn for_each_operand(&self, mut f: impl FnMut(Var)) {
        match self {
            MilOp::Load(_) | MilOp::ConstScalar(_) | MilOp::Fused => {}
            MilOp::Mirror(v)
            | MilOp::SelectEq(v, _)
            | MilOp::Unique(v)
            | MilOp::Group1(v)
            | MilOp::SortTail(v)
            | MilOp::SortHead(v)
            | MilOp::Mark(v) => f(*v),
            MilOp::SelectRange { src, .. }
            | MilOp::SetAgg { src, .. }
            | MilOp::AggrScalar { src, .. }
            | MilOp::TopN { src, .. } => f(*src),
            MilOp::Join(a, b)
            | MilOp::Semijoin(a, b)
            | MilOp::Antijoin(a, b)
            | MilOp::Group2(a, b)
            | MilOp::Concat(a, b)
            | MilOp::Zip(a, b) => {
                f(*a);
                f(*b);
            }
            MilOp::Join2(a, b, a2, b2) => {
                f(*a);
                f(*b);
                f(*a2);
                f(*b2);
            }
            MilOp::Multiplex { args, .. } => {
                for a in args {
                    if let MilArg::Var(v) = a {
                        f(*v);
                    }
                }
            }
        }
    }

    /// Apply `f` to every operand variable in place (the optimizer's
    /// rewrite primitive: canonicalization, DCE renumbering).
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Var)) {
        match self {
            MilOp::Load(_) | MilOp::ConstScalar(_) | MilOp::Fused => {}
            MilOp::Mirror(v)
            | MilOp::SelectEq(v, _)
            | MilOp::Unique(v)
            | MilOp::Group1(v)
            | MilOp::SortTail(v)
            | MilOp::SortHead(v)
            | MilOp::Mark(v) => f(v),
            MilOp::SelectRange { src, .. }
            | MilOp::SetAgg { src, .. }
            | MilOp::AggrScalar { src, .. }
            | MilOp::TopN { src, .. } => f(src),
            MilOp::Join(a, b)
            | MilOp::Semijoin(a, b)
            | MilOp::Antijoin(a, b)
            | MilOp::Group2(a, b)
            | MilOp::Concat(a, b)
            | MilOp::Zip(a, b) => {
                f(a);
                f(b);
            }
            MilOp::Join2(a, b, a2, b2) => {
                f(a);
                f(b);
                f(a2);
                f(b2);
            }
            MilOp::Multiplex { args, .. } => {
                for a in args {
                    if let MilArg::Var(v) = a {
                        f(v);
                    }
                }
            }
        }
    }

    /// Whether the operation draws fresh oids from the execution context
    /// (`group`'s `unique_oid`, `mark`'s dense sequence). Two textually
    /// identical fresh-oid statements produce *different* oid ranges, so
    /// the optimizer must never merge them.
    pub fn draws_fresh_oids(&self) -> bool {
        matches!(self, MilOp::Group1(_) | MilOp::Group2(..) | MilOp::Mark(_))
    }

    /// Operator name as it appears in printed programs.
    pub fn name(&self) -> String {
        match self {
            MilOp::Load(n) => format!("load(\"{n}\")"),
            MilOp::ConstScalar(_) => "const".into(),
            MilOp::Mirror(_) => "mirror".into(),
            MilOp::SelectEq(..) | MilOp::SelectRange { .. } => "select".into(),
            MilOp::Join(..) | MilOp::Join2(..) => "join".into(),
            MilOp::Semijoin(..) => "semijoin".into(),
            MilOp::Antijoin(..) => "antijoin".into(),
            MilOp::Unique(_) => "unique".into(),
            MilOp::Group1(_) | MilOp::Group2(..) => "group".into(),
            MilOp::Multiplex { f, .. } => format!("[{}]", f.mil_name()),
            MilOp::SetAgg { f, .. } => format!("{{{}}}", f.name()),
            MilOp::AggrScalar { f, .. } => f.name().into(),
            MilOp::Concat(..) => "concat".into(),
            MilOp::Zip(..) => "zip".into(),
            MilOp::SortTail(_) => "sort".into(),
            MilOp::SortHead(_) => "sort_head".into(),
            MilOp::TopN { .. } => "topn".into(),
            MilOp::Mark(_) => "mark".into(),
            MilOp::Fused => "fused".into(),
        }
    }
}

/// One statement: `name := op(...)`, with the parameter slots of any
/// prepared-statement constants baked into the operation. Which
/// implementation runs it is the operator's own run-time choice (Section
/// 5.1: the descriptor properties let each command "make a run-time choice
/// between alternative implementations"); a plan never fixes it.
#[derive(Debug, Clone)]
pub struct MilStmt {
    pub var: Var,
    pub name: String,
    pub op: MilOp,
    /// `(param id, location)` for each query parameter whose current value
    /// is embedded in `op`. Empty for non-parameterized statements.
    pub params: Vec<(u32, ParamLoc)>,
}

impl MilStmt {
    /// Read the constant currently stored at a parameter slot.
    pub fn param_value(&self, loc: ParamLoc) -> Option<&AtomValue> {
        match (loc, &self.op) {
            (ParamLoc::EqVal, MilOp::SelectEq(_, v)) => Some(v),
            (ParamLoc::RangeLo, MilOp::SelectRange { lo, .. }) => lo.as_ref(),
            (ParamLoc::RangeHi, MilOp::SelectRange { hi, .. }) => hi.as_ref(),
            (ParamLoc::Arg(i), MilOp::Multiplex { args, .. }) => match args.get(i as usize) {
                Some(MilArg::Const(v)) => Some(v),
                _ => None,
            },
            _ => None,
        }
    }
}

impl MilOp {
    /// Overwrite the constant at a parameter slot with a new binding.
    /// Returns false if the slot does not address a constant in the
    /// operation (which would mean the slot metadata went stale — a bug).
    pub fn splice_param(&mut self, loc: ParamLoc, value: &AtomValue) -> bool {
        match (loc, self) {
            (ParamLoc::EqVal, MilOp::SelectEq(_, v)) => {
                *v = value.clone();
                true
            }
            (ParamLoc::RangeLo, MilOp::SelectRange { lo: Some(v), .. })
            | (ParamLoc::RangeHi, MilOp::SelectRange { hi: Some(v), .. }) => {
                *v = value.clone();
                true
            }
            (ParamLoc::Arg(i), MilOp::Multiplex { args, .. }) => match args.get_mut(i as usize) {
                Some(MilArg::Const(v)) => {
                    *v = value.clone();
                    true
                }
                _ => false,
            },
            _ => false,
        }
    }
}

/// A straight-line MIL program.
#[derive(Debug, Clone, Default)]
pub struct MilProgram {
    pub stmts: Vec<MilStmt>,
}

impl MilProgram {
    pub fn new() -> MilProgram {
        MilProgram::default()
    }

    /// Append a statement, returning its variable. `name` is only used for
    /// printing; unnamed intermediates can pass `""` and get `tmpN`.
    pub fn emit(&mut self, name: &str, op: MilOp) -> Var {
        let var = self.stmts.len();
        let name = if name.is_empty() { format!("tmp{var}") } else { name.to_string() };
        self.stmts.push(MilStmt { var, name, op, params: Vec::new() });
        var
    }

    /// Record that statement `var` holds the current value of parameter
    /// `pid` at `loc` (translator hook for prepared statements).
    pub fn note_param(&mut self, var: Var, pid: u32, loc: ParamLoc) {
        debug_assert!(self.stmts[var].param_value(loc).is_some(), "param slot addresses no const");
        self.stmts[var].params.push((pid, loc));
    }

    /// All parameter bindings currently baked into the program, as
    /// `(param id, value)` pairs in statement order. A parameter feeding
    /// several statements appears once per slot — callers that need the
    /// canonical binding can take the first occurrence (slots of one id
    /// always carry equal values).
    pub fn param_bindings(&self) -> Vec<(u32, AtomValue)> {
        let mut out = Vec::new();
        for stmt in &self.stmts {
            for (pid, loc) in &stmt.params {
                if let Some(v) = stmt.param_value(*loc) {
                    out.push((*pid, v.clone()));
                }
            }
        }
        out
    }

    /// Name of a variable (for printing).
    pub fn name_of(&self, v: Var) -> &str {
        &self.stmts[v].name
    }

    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// For each statement index, the set of variables whose *last* use is
    /// that statement — the interpreter frees them afterwards ("algebraic
    /// buffer management": materialized intermediates are released as soon
    /// as no later statement needs them).
    pub fn last_uses(&self) -> Vec<Vec<Var>> {
        let mut last_use: Vec<Option<usize>> = vec![None; self.stmts.len()];
        for (i, stmt) in self.stmts.iter().enumerate() {
            stmt.op.for_each_operand(|v| last_use[v] = Some(i));
        }
        let mut frees: Vec<Vec<Var>> = vec![Vec::new(); self.stmts.len()];
        for (v, lu) in last_use.iter().enumerate() {
            if let Some(i) = lu {
                frees[*i].push(v);
            }
        }
        frees
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_and_names() {
        let mut p = MilProgram::new();
        let a = p.emit("orders", MilOp::Load("Order_clerk".into()));
        let b = p.emit("", MilOp::Mirror(a));
        assert_eq!(p.name_of(a), "orders");
        assert_eq!(p.name_of(b), "tmp1");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn operand_extraction() {
        let op = MilOp::Multiplex {
            f: ScalarFunc::Mul,
            args: vec![MilArg::Var(3), MilArg::Const(AtomValue::Dbl(1.0)), MilArg::Var(7)],
        };
        let mut operands = Vec::new();
        op.for_each_operand(|v| operands.push(v));
        assert_eq!(operands, vec![3, 7]);
    }

    #[test]
    fn last_uses_frees_dead_vars() {
        let mut p = MilProgram::new();
        let a = p.emit("a", MilOp::Load("x".into())); // used by b only
        let b = p.emit("b", MilOp::Mirror(a)); // used by c
        let _c = p.emit("c", MilOp::Unique(b));
        let frees = p.last_uses();
        assert_eq!(frees[1], vec![a]);
        assert_eq!(frees[2], vec![b]);
        assert!(frees[0].is_empty());
    }
}
