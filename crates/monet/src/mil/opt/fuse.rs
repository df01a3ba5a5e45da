//! Pipeline fusion: collapse provably-fusable producer/consumer statement
//! chains into one [`MilOp::Fused`] statement the interpreter executes
//! morsel-at-a-time — one pass over the source, no intermediate BATs.
//!
//! A chain is `src → select/map → … → (aggr)`: each interior statement's
//! value is consumed by exactly one later chain member and by nothing
//! else, so eliminating the materialization is invisible to the rest of
//! the program. Fusion changes *when* rows flow, never *what* they are:
//! every admitted shape is bit-identical to the staged execution —
//!
//! * selections and maps are element-wise, so applying them per source
//!   morsel yields exactly the staged rows in the staged order;
//! * a terminal aggregate is admitted only when its partial combine is
//!   invariant under the morsel regrouping a prior selection causes:
//!   `count` (exact), integer `sum` (two's-complement addition is
//!   associative), `min`/`max` (first-winner under a total order).
//!   Float reductions (`sum`/`avg` over `dbl`, or unknown map result
//!   types) fuse only when no selection precedes them — then the fused
//!   morsel grid *is* the staged grid and the float association is
//!   unchanged (the PR 6 determinism contract);
//! * a selection whose operand tail is statically sorted stays unfused:
//!   the staged kernel answers it with a zero-copy slice that keeps the
//!   operand's descriptor verbatim — cheaper than any pipeline, and with
//!   stronger runtime props than the propagation rules can claim.
//!
//! The pass runs *after* the fixpoint pipeline (unless `PlanConfig::fuse`
//! is off, which reproduces the unfused emission as the oracle leg), so it
//! sees final use counts and shapes. Parameterized statements
//! (`params` non-empty) never fuse — their constant slots must stay
//! addressable for plan-cache re-binding.

use crate::atom::AtomType;

use super::super::ast::{FuseArg, FuseStage, MilArg, MilOp, MilProgram, Var};
use super::infer::{self, Shape};
use super::{Pass, PassCtx, PassEffect};

pub(crate) struct Fuse;

/// Chain state threaded through the greedy scan.
struct ChainState {
    /// Variable currently carrying the chain value.
    var: Var,
    /// Statement indices of the members so far (in program order).
    members: Vec<usize>,
    stages: Vec<FuseStage>,
    /// A selection stage is already in the chain: later map stages may not
    /// read side BATs (their rows would no longer align with the chain),
    /// and float-summing terminals are inadmissible (the staged morsel
    /// grid over the filtered rows differs from the fused source grid).
    has_select: bool,
    /// Statically known tail type of the chain value (selections preserve
    /// it, maps forget it) — gates `sum` after a selection.
    tail_ty: Option<AtomType>,
}

impl Pass for Fuse {
    fn name(&self) -> &'static str {
        "fuse"
    }

    fn run(&self, prog: &mut MilProgram, cx: &PassCtx) -> PassEffect {
        let shapes = infer::infer_shapes(prog, cx.db);
        let uses = prog.use_counts();
        let mut is_root = vec![false; prog.len()];
        for &r in &cx.roots {
            is_root[r] = true;
        }
        // Single consumer of each once-used variable.
        let mut consumer: Vec<Option<usize>> = vec![None; prog.len()];
        for (i, stmt) in prog.stmts.iter().enumerate() {
            for v in stmt.op.operands() {
                if uses[v] == 1 {
                    consumer[v] = Some(i);
                }
            }
        }

        // Greedy forward scan: start a chain at the earliest fusable
        // statement, extend through sole consumers while admissible.
        let mut member_of: Vec<Option<usize>> = vec![None; prog.len()]; // -> chain id
        let mut chains: Vec<(Var, Vec<usize>, Vec<FuseStage>)> = Vec::new();
        for start in 0..prog.len() {
            if member_of[start].is_some() {
                continue;
            }
            let Some((src, stage, terminal)) = start_stage(prog, start, &shapes) else {
                continue;
            };
            let mut st = ChainState {
                var: start,
                members: vec![start],
                stages: vec![stage],
                has_select: matches!(
                    prog.stmts[start].op,
                    MilOp::SelectEq(..) | MilOp::SelectRange { .. }
                ),
                tail_ty: match &prog.stmts[start].op {
                    MilOp::Multiplex { .. } => None,
                    _ => shapes[src].as_ref().and_then(|s| s.tail),
                },
            };
            if !terminal {
                loop {
                    // The chain value must die into exactly one later
                    // statement the caller never reads.
                    if uses[st.var] != 1 || is_root[st.var] {
                        break;
                    }
                    let Some(next) = consumer[st.var] else { break };
                    if member_of[next].is_some() {
                        break;
                    }
                    let Some((stage, terminal)) = continue_stage(prog, next, &st, &shapes) else {
                        break;
                    };
                    match &stage {
                        FuseStage::SelectEq(_) | FuseStage::SelectRange { .. } => {
                            st.has_select = true
                        }
                        FuseStage::Map { .. } => st.tail_ty = None,
                        FuseStage::Aggr(_) => {}
                    }
                    st.var = next;
                    st.members.push(next);
                    st.stages.push(stage);
                    if terminal {
                        break;
                    }
                }
            }
            if st.stages.len() < 2 {
                continue; // a one-stage "chain" is just the original statement
            }
            let id = chains.len();
            for &m in &st.members {
                member_of[m] = Some(id);
            }
            chains.push((src, st.members, st.stages));
        }
        if chains.is_empty() {
            return PassEffect::unchanged();
        }

        // Rewrite: the terminal statement becomes the fused pipeline (same
        // variable, same name — downstream readers are untouched); interior
        // statements disappear. Then renumber, DCE-style.
        let applied = chains.len();
        let mut removed = vec![false; prog.len()];
        for (src, members, stages) in chains {
            let (&terminal, interior) = members.split_last().expect("chain has >= 2 members");
            for &m in interior {
                removed[m] = true;
            }
            prog.stmts[terminal].op = MilOp::Fused { src, stages };
        }
        let mut remap: Vec<Option<Var>> = vec![None; prog.len()];
        let mut kept = Vec::with_capacity(prog.len());
        for mut stmt in prog.stmts.drain(..) {
            if removed[stmt.var] {
                continue;
            }
            let new = kept.len();
            remap[stmt.var] = Some(new);
            stmt.var = new;
            stmt.op.for_each_operand_mut(|v| {
                *v = remap[*v].expect("fused chain operand was removed");
            });
            kept.push(stmt);
        }
        prog.stmts = kept;
        PassEffect { applied, remap: Some(remap) }
    }
}

/// Can `prog.stmts[i]` open a chain? Returns the chain's source variable,
/// the first stage, and whether the stage already terminates the chain.
fn start_stage(
    prog: &MilProgram,
    i: usize,
    shapes: &[Option<Shape>],
) -> Option<(Var, FuseStage, bool)> {
    let stmt = &prog.stmts[i];
    if !stmt.params.is_empty() {
        return None; // keep prepared-statement slots addressable
    }
    match &stmt.op {
        MilOp::SelectEq(v, val) if selectable(*v, shapes) => {
            Some((*v, FuseStage::SelectEq(val.clone()), false))
        }
        MilOp::SelectRange { src, lo, hi, inc_lo, inc_hi } if selectable(*src, shapes) => {
            let stage = FuseStage::SelectRange {
                lo: lo.clone(),
                hi: hi.clone(),
                inc_lo: *inc_lo,
                inc_hi: *inc_hi,
            };
            Some((*src, stage, false))
        }
        MilOp::Multiplex { f, args } => {
            // The chain rides the first statically BAT-shaped argument (the
            // kernel's head/props donor); its other occurrences refer to
            // the same rows and flow through the pipeline with it.
            let src = args.iter().find_map(|a| match a {
                MilArg::Var(v) if shapes[*v].is_some() => Some(*v),
                _ => None,
            })?;
            let fargs = args
                .iter()
                .map(|a| match a {
                    MilArg::Var(v) if *v == src => FuseArg::Chain,
                    MilArg::Var(v) => FuseArg::Var(*v),
                    MilArg::Const(c) => FuseArg::Const(c.clone()),
                })
                .collect();
            Some((src, FuseStage::Map { f: *f, args: fargs }, false))
        }
        _ => None,
    }
}

/// Can `prog.stmts[i]` extend a chain whose value is `st.var`? Returns the
/// stage and whether it terminates the chain.
fn continue_stage(
    prog: &MilProgram,
    i: usize,
    st: &ChainState,
    shapes: &[Option<Shape>],
) -> Option<(FuseStage, bool)> {
    let stmt = &prog.stmts[i];
    if !stmt.params.is_empty() {
        return None;
    }
    match &stmt.op {
        MilOp::SelectEq(v, val) if *v == st.var && !statically_sorted(*v, shapes) => {
            Some((FuseStage::SelectEq(val.clone()), false))
        }
        MilOp::SelectRange { src, lo, hi, inc_lo, inc_hi }
            if *src == st.var && !statically_sorted(*src, shapes) =>
        {
            let stage = FuseStage::SelectRange {
                lo: lo.clone(),
                hi: hi.clone(),
                inc_lo: *inc_lo,
                inc_hi: *inc_hi,
            };
            Some((stage, false))
        }
        MilOp::Multiplex { f, args } => {
            // After a selection, the chain rows are a subset of the source
            // rows: a side BAT could no longer be consumed positionally, so
            // only the chain value and broadcast constants may flow in.
            let chain_or_const = |a: &MilArg| match a {
                MilArg::Const(_) => true,
                MilArg::Var(v) => *v == st.var,
            };
            if st.has_select && !args.iter().all(chain_or_const) {
                return None;
            }
            let fargs = args
                .iter()
                .map(|a| match a {
                    MilArg::Var(v) if *v == st.var => FuseArg::Chain,
                    MilArg::Var(v) => FuseArg::Var(*v),
                    MilArg::Const(c) => FuseArg::Const(c.clone()),
                })
                .collect();
            Some((FuseStage::Map { f: *f, args: fargs }, false))
        }
        MilOp::AggrScalar { f, src } if *src == st.var => {
            use crate::ops::AggFunc;
            let ok = match f {
                // Exact at any morsel regrouping.
                AggFunc::Count | AggFunc::Min | AggFunc::Max => true,
                // Integer sums regroup exactly; float sums only keep their
                // bits when no selection changed the morsel grid — and a
                // post-selection sum must be *provably* integer, which a
                // map-produced tail never is.
                AggFunc::Sum => {
                    !st.has_select || matches!(st.tail_ty, Some(AtomType::Int | AtomType::Lng))
                }
                // Always a float reduction.
                AggFunc::Avg => !st.has_select,
            };
            if ok {
                Some((FuseStage::Aggr(*f), true))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// A selection opens a chain only when its operand's shape is known (the
/// executor needs the source BAT's descriptor to replay property
/// propagation) and its tail is not statically sorted.
fn selectable(src: Var, shapes: &[Option<Shape>]) -> bool {
    shapes[src].is_some() && !statically_sorted(src, shapes)
}

/// The operand's tail is sorted whatever the data: the select kernel
/// answers with a zero-copy slice, strictly better than any pipeline.
fn statically_sorted(src: Var, shapes: &[Option<Shape>]) -> bool {
    shapes[src].is_some_and(|s| s.props.tail.sorted)
}
