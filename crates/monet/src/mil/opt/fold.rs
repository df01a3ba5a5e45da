//! Constant folding and algebraic identities, as per-statement rules.
//!
//! * **Constant inlining** — a multiplex argument referencing a
//!   `const`-scalar statement becomes an immediate `MilArg::Const`; the
//!   scalar definition goes dead.
//! * **Constant evaluation** — a multiplex whose arguments are all
//!   constants is evaluated at plan time with the same
//!   [`crate::ops::apply_scalar`] the kernel lifts, and replaced by a
//!   `const` statement.
//! * **Double mirror** — `mirror(mirror(x))` is `x` (mirroring is an
//!   involution on columns and properties). Fenced on `x` being provably
//!   datavector-free: the double mirror *drops* a datavector while `x`
//!   keeps it, and aliasing them could flip a downstream semijoin onto
//!   the right-order datavector path.
//! * **Redundant semijoin** — `semijoin(x, c)` is `x` whenever every head
//!   of `x` provably occurs in `c`: the membership filter keeps all of
//!   `x`, in `x` order. Provenance comes from the head-superset rows of
//!   [`Facts`]: selections, semijoins, joins and multiplexes emit head
//!   *subsets* of their operands, while `group`, `{g}`, `mark`, `sort` and
//!   `unique` preserve the head value *set* ([`head_source`] walks back
//!   through those). This catches both the translator's re-applied
//!   candidate restrictions along conjunct chains and the
//!   `semijoin(class.mirror, {count}(class.mirror))` shape every nest plan
//!   emits. Fenced on `x` being datavector-free like the mirror rule (the
//!   datavector semijoin emits in right order).
//! * **Saturated semijoin** — dually, `semijoin(x, c)` is `c` whenever
//!   `c` is an *order-preserving row-subset* of `x` (the pair-subset rows
//!   of [`Facts`]: select/semijoin/antijoin/unique chains,
//!   which emit subsequences of their left operand) and `x` has a key
//!   head: each of `c`'s heads finds exactly its own row, in `c`'s order.
//!   This is the translator's fragment re-assembly against a selection of
//!   the same attribute BAT (`semijoin(X, select(X, ..))`, Figure 10 line
//!   3/4). No datavector fence needed: the datavector path emits
//!   right-operand (= `c`) order and fetches the same canonical tail
//!   values, so every implementation returns exactly `c`'s BUNs in `c`'s
//!   order.
//!
//! The aliasing rules redirect uses like CSE does and leave the orphan
//! to DCE. All of them only ever *increase* column-identity sharing,
//! which is safe (sync fast paths are bit-identical to the general forms).

use crate::db::Db;

use super::super::ast::{MilArg, MilOp, MilProgram, Var};
use super::infer::{shape_of, Shape};
use super::Rule;

/// A per-variable bitset over program variables (word-packed: a fact row
/// unions whole operand rows, so this is `|=` over a few words instead of
/// hash-set churn).
struct VarSets {
    words: Vec<u64>,
    stride: usize,
}

impl VarSets {
    fn new(n: usize) -> VarSets {
        let stride = n.div_ceil(64);
        VarSets { words: vec![0; n * stride], stride }
    }

    fn insert(&mut self, set: usize, v: Var) {
        self.words[set * self.stride + v / 64] |= 1 << (v % 64);
    }

    fn contains(&self, set: usize, v: Var) -> bool {
        self.words[set * self.stride + v / 64] & (1 << (v % 64)) != 0
    }

    /// `set |= other` (both are row indices).
    fn union_into(&mut self, set: usize, other: usize) {
        let (a, b) = (set * self.stride, other * self.stride);
        for k in 0..self.stride {
            let w = self.words[b + k];
            self.words[a + k] |= w;
        }
    }
}

/// What the rules know about each statement the sweep kept as its own
/// representative, recorded in statement order from canonical operands:
///
/// * `shapes` — the static [`Shape`] (`None` for scalars);
/// * `sup` — the variables whose head-value set provably contains this
///   variable's (always itself; only BAT-valued operands contribute);
/// * `psup` — the variables this one is an *order-preserving row-subset*
///   of (always itself): selections and the subset-shaped binary ops emit
///   subsequences of their left operand — same BUNs, ascending operand
///   positions. `topn`/`sort` are excluded (they reorder), as is
///   everything that rewrites values.
///
/// Rows of statements aliased away stay empty: no canonical operand ever
/// names them.
pub(super) struct Facts {
    shapes: Vec<Option<Shape>>,
    sup: VarSets,
    psup: VarSets,
}

impl Facts {
    pub fn new(n: usize) -> Facts {
        Facts { shapes: vec![None; n], sup: VarSets::new(n), psup: VarSets::new(n) }
    }

    /// Whether `v` may carry a datavector (unknown shapes may).
    fn may_dv(&self, v: Var) -> bool {
        self.shapes[v].is_none_or(|s| s.may_dv)
    }

    /// Record statement `i`, whose operands are canonical.
    pub fn record(&mut self, i: Var, op: &MilOp, db: &Db) {
        self.shapes[i] = shape_of(op, &self.shapes, db);
        self.sup.insert(i, i);
        let mut inherit = |v: Var| {
            if self.shapes[v].is_some() {
                self.sup.union_into(i, v);
            }
        };
        match op {
            // Head subsets of an operand.
            MilOp::SelectEq(v, _)
            | MilOp::Unique(v)
            | MilOp::SortTail(v)
            | MilOp::SortHead(v)
            | MilOp::Group1(v)
            | MilOp::Mark(v) => inherit(*v),
            MilOp::SelectRange { src, .. }
            | MilOp::TopN { src, .. }
            | MilOp::SetAgg { src, .. } => inherit(*src),
            MilOp::Join(a, _)
            | MilOp::Join2(a, ..)
            | MilOp::Antijoin(a, _)
            | MilOp::Group2(a, _) => inherit(*a),
            // A semijoin result's heads occur in *both* operands.
            MilOp::Semijoin(a, c) => {
                inherit(*a);
                inherit(*c);
            }
            // Multiplex heads survive the natural join on heads, so they
            // occur in every BAT argument.
            MilOp::Multiplex { args, .. } => {
                for a in args {
                    if let MilArg::Var(v) = a {
                        inherit(*v);
                    }
                }
            }
            // Mirror swaps the column roles; concat/zip build new head
            // sets: no facts beyond self.
            MilOp::Load(_)
            | MilOp::ConstScalar(_)
            | MilOp::AggrScalar { .. }
            | MilOp::Fused
            | MilOp::Mirror(_)
            | MilOp::Concat(..)
            | MilOp::Zip(..) => {}
        }

        self.psup.insert(i, i);
        match op {
            MilOp::SelectEq(v, _) | MilOp::Unique(v) => self.psup.union_into(i, *v),
            MilOp::SelectRange { src, .. } => self.psup.union_into(i, *src),
            // A semijoin only inherits its left operand's rows when its own
            // output order is provably the left order: either the left
            // operand is datavector-free (every remaining implementation
            // emits ascending left positions), or the *right* operand is
            // itself an order-preserving row-subset of the left (then even
            // the datavector path — which emits right-operand order —
            // coincides with left order).
            MilOp::Semijoin(a, c) if !self.may_dv(*a) || self.psup.contains(*c, *a) => {
                self.psup.union_into(i, *a)
            }
            MilOp::Antijoin(a, _) => self.psup.union_into(i, *a),
            _ => {}
        }
    }
}

/// Walk `v` back through operations that preserve the head value *set*
/// (`{g}` emits one BUN per distinct head; `group`/`mark` share the head
/// column; `sort` permutes; `unique` keeps every distinct value).
fn head_source(prog: &MilProgram, mut v: Var) -> Var {
    loop {
        v = match prog.stmts[v].op {
            MilOp::SetAgg { src, .. } => src,
            MilOp::Group1(s) => s,
            MilOp::Group2(a, _) => a,
            MilOp::Mark(m) => m,
            MilOp::SortTail(s) | MilOp::SortHead(s) => s,
            MilOp::Unique(u) => u,
            _ => return v,
        };
    }
}

/// The aliasing rules on statement `i` (operands canonical): the rule that
/// fires and the earlier variable `i` equals, if any.
pub(super) fn alias(prog: &MilProgram, i: Var, facts: &Facts) -> Option<(Rule, Var)> {
    match prog.stmts[i].op {
        MilOp::Mirror(m) => match prog.stmts[m].op {
            MilOp::Mirror(x) if !facts.may_dv(x) => Some((Rule::FoldMirror, x)),
            _ => None,
        },
        MilOp::Semijoin(x, c) => {
            let x_key_head = facts.shapes[x].is_some_and(|s| s.props.head.key);
            if !facts.may_dv(x)
                && (facts.sup.contains(x, c) || facts.sup.contains(x, head_source(prog, c)))
            {
                // Redundant filter: heads(x) ⊆ heads(c).
                Some((Rule::FoldRedundant, x))
            } else if x_key_head && facts.psup.contains(c, x) {
                // Saturated filter: c is a row-subset of keyed x.
                Some((Rule::FoldSaturated, c))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The constant rules on statement `i` (operands canonical), applied in
/// place; returns the number of rewrites (inlined arguments, plus one for
/// an evaluation).
pub(super) fn constants(prog: &mut MilProgram, i: Var) -> usize {
    let MilOp::Multiplex { f, args } = &prog.stmts[i].op else { return 0 };
    let is_const = |v: &Var| matches!(prog.stmts[*v].op, MilOp::ConstScalar(_));
    let inlinable = |a: &MilArg| matches!(a, MilArg::Var(v) if is_const(v));
    if !args.iter().any(inlinable) && args.iter().any(|a| matches!(a, MilArg::Var(_))) {
        return 0; // a BAT argument stays: nothing to inline or evaluate
    }
    let (f, mut args) = (*f, args.clone());
    let mut inlined = 0;
    for a in args.iter_mut() {
        if let MilArg::Var(v) = a {
            if let MilOp::ConstScalar(c) = &prog.stmts[*v].op {
                *a = MilArg::Const(c.clone());
                inlined += 1;
            }
        }
    }
    // A statement holding prepared-statement parameter slots must never be
    // evaluated away: collapsing it to a `const` would bake the *current*
    // binding into the plan and lose the slot. Inlining into its args is
    // fine (arg indices are stable), but the op itself stays.
    let consts: Option<Vec<_>> = if prog.stmts[i].params.is_empty() {
        args.iter()
            .map(|a| match a {
                MilArg::Const(c) => Some(c.clone()),
                MilArg::Var(_) => None,
            })
            .collect()
    } else {
        None
    };
    if let Some(v) = consts.and_then(|cs| crate::ops::apply_scalar(f, &cs).ok()) {
        prog.stmts[i].op = MilOp::ConstScalar(v);
        inlined + 1
    } else {
        if inlined > 0 {
            prog.stmts[i].op = MilOp::Multiplex { f, args };
        }
        inlined
    }
}
