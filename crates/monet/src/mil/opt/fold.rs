//! Constant folding and algebraic identities.
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
//!   `x`, in `x` order. Provenance comes from a forward head-subset
//!   analysis ([`head_supersets`]): selections, semijoins, joins and
//!   multiplexes emit head *subsets* of their operands, while `group`,
//!   `{g}`, `mark`, `sort` and `unique` preserve the head value *set*
//!   ([`head_source`] walks back through those). This catches both the
//!   translator's re-applied candidate restrictions along conjunct chains
//!   and the `semijoin(class.mirror, {count}(class.mirror))` shape every
//!   nest plan emits. Fenced on `x` being datavector-free like the mirror
//!   rule (the datavector semijoin emits in right order).
//! * **Saturated semijoin** — dually, `semijoin(x, c)` is `c` whenever
//!   `c` is an *order-preserving row-subset* of `x` ([`pair_subsets`]:
//!   select/semijoin/antijoin/diff/intersect/unique chains, which emit
//!   subsequences of their left operand) and `x` has a key head: each of
//!   `c`'s heads finds exactly its own row, in `c`'s order. This is the
//!   translator's fragment re-assembly against a selection of the same
//!   attribute BAT (`semijoin(X, select(X, ..))`, Figure 10 line 3/4).
//!   No datavector fence needed: the datavector path emits right-operand
//!   (= `c`) order and fetches the same canonical tail values, so every
//!   implementation returns exactly `c`'s BUNs in `c`'s order.
//!
//! The aliasing rewrites redirect uses like CSE does and leave the orphan
//! to DCE. All of them only ever *increase* column-identity sharing,
//! which is safe (sync fast paths are bit-identical to the general forms).

use super::super::ast::{MilArg, MilOp, MilProgram, Var};
use super::{infer, Pass, PassCtx, PassEffect};

pub(crate) struct Fold;

/// A per-variable bitset over program variables (word-packed: the subset
/// analyses union whole ancestor sets per statement, and the optimizer
/// runs on every translated query, so this is `|=` over a few words
/// instead of hash-set churn).
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

/// For each variable, the set of variables whose head-value set provably
/// contains this variable's (always includes itself). Only BAT-valued
/// variables carry facts.
fn head_supersets(prog: &MilProgram, bat_valued: &[bool]) -> VarSets {
    let mut sup = VarSets::new(prog.len());
    for (i, stmt) in prog.stmts.iter().enumerate() {
        sup.insert(i, i);
        {
            let mut inherit = |v: Var| {
                if bat_valued[v] {
                    sup.union_into(i, v);
                }
            };
            match &stmt.op {
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
                | MilOp::Antijoin(a, _)
                | MilOp::Diff(a, _)
                | MilOp::Intersect(a, _)
                | MilOp::Group2(a, _) => inherit(*a),
                // A semijoin result's heads occur in *both* operands.
                MilOp::Semijoin(a, c) => {
                    inherit(*a);
                    inherit(*c);
                }
                // Multiplex heads survive the natural join on heads, so
                // they occur in every BAT argument.
                MilOp::Multiplex { args, .. } => {
                    for a in args {
                        if let MilArg::Var(v) = a {
                            inherit(*v);
                        }
                    }
                }
                // Mirror swaps the column roles; union/concat/zip build
                // new head sets: no facts beyond self.
                MilOp::Load(_)
                | MilOp::ConstScalar(_)
                | MilOp::AggrScalar { .. }
                | MilOp::Fused
                | MilOp::Mirror(_)
                | MilOp::Union(..)
                | MilOp::Concat(..)
                | MilOp::Zip(..) => {}
            }
        }
    }
    sup
}

/// For each variable, the set of variables it is an *order-preserving
/// row-subset* of (always includes itself): selections and the
/// subset-shaped binary ops emit subsequences of their left operand —
/// same BUNs, ascending operand positions. `topn`/`sort` are excluded
/// (they reorder), as is everything that rewrites values.
///
/// A semijoin only inherits its left operand's facts when its own output
/// order is provably the left order: either the left operand is
/// datavector-free (every remaining implementation emits ascending left
/// positions), or the *right* operand is itself an order-preserving
/// row-subset of the left (then even the datavector path — which emits
/// right-operand order — coincides with left order).
fn pair_subsets(prog: &MilProgram, shapes: &[Option<infer::Shape>]) -> VarSets {
    let mut psup = VarSets::new(prog.len());
    for (i, stmt) in prog.stmts.iter().enumerate() {
        psup.insert(i, i);
        match &stmt.op {
            MilOp::SelectEq(v, _) | MilOp::Unique(v) => psup.union_into(i, *v),
            MilOp::SelectRange { src, .. } => psup.union_into(i, *src),
            MilOp::Semijoin(a, c) => {
                let a_may_dv = shapes[*a].map_or(true, |s| s.may_dv);
                if !a_may_dv || psup.contains(*c, *a) {
                    psup.union_into(i, *a);
                }
            }
            MilOp::Antijoin(a, _) | MilOp::Diff(a, _) | MilOp::Intersect(a, _) => {
                psup.union_into(i, *a)
            }
            _ => {}
        }
    }
    psup
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

impl Pass for Fold {
    fn name(&self) -> &'static str {
        "fold"
    }

    fn run(&self, prog: &mut MilProgram, cx: &PassCtx) -> PassEffect {
        let n = prog.len();
        let shapes = infer::infer_shapes(prog, cx.db);
        let bat_valued: Vec<bool> = shapes.iter().map(Option::is_some).collect();
        let sup = head_supersets(prog, &bat_valued);
        let psup = pair_subsets(prog, &shapes);
        let mut alias: Vec<Var> = (0..n).collect();
        let mut applied = 0;
        for i in 0..n {
            prog.stmts[i].op.for_each_operand_mut(|v| *v = alias[*v]);
            match prog.stmts[i].op.clone() {
                MilOp::Mirror(m) => {
                    if let MilOp::Mirror(x) = prog.stmts[m].op {
                        let x_may_dv = shapes[x].map_or(true, |s| s.may_dv);
                        if !x_may_dv {
                            alias[i] = x;
                            applied += 1;
                        }
                    }
                }
                MilOp::Semijoin(x, c) => {
                    let x_may_dv = shapes[x].map_or(true, |s| s.may_dv);
                    let x_key_head = shapes[x].map_or(false, |s| s.props.head.key);
                    let src = head_source(prog, c);
                    if !x_may_dv && (sup.contains(x, c) || sup.contains(x, src)) {
                        // Redundant filter: heads(x) ⊆ heads(c).
                        alias[i] = x;
                        applied += 1;
                    } else if x_key_head && psup.contains(c, x) {
                        // Saturated filter: c is a row-subset of keyed x.
                        alias[i] = c;
                        applied += 1;
                    }
                }
                MilOp::Multiplex { f, mut args } => {
                    let mut inlined = 0;
                    for a in args.iter_mut() {
                        if let MilArg::Var(v) = a {
                            if let MilOp::ConstScalar(c) = &prog.stmts[*v].op {
                                *a = MilArg::Const(c.clone());
                                inlined += 1;
                            }
                        }
                    }
                    // A statement holding prepared-statement parameter slots
                    // must never be evaluated away: collapsing it to a
                    // `const` would bake the *current* binding into the plan
                    // and lose the slot. Inlining into its args is fine (arg
                    // indices are stable), but the op itself stays.
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
                        applied += inlined + 1;
                    } else if inlined > 0 {
                        prog.stmts[i].op = MilOp::Multiplex { f, args };
                        applied += inlined;
                    }
                }
                _ => {}
            }
        }
        if alias.iter().enumerate().all(|(i, &a)| i == a) {
            return PassEffect { applied, remap: None };
        }
        PassEffect { applied, remap: Some(alias.into_iter().map(Some).collect()) }
    }
}
