//! Select pushdown: evaluate tail selections *before* the join or
//! semijoin that feeds them, where head/tail provenance proves the
//! rewrite bit-identical.
//!
//! Two patterns, both applied only when the intermediate has exactly one
//! use (so the statement slot can be repurposed in place, keeping the
//! straight-line numbering intact):
//!
//! * `w := select(join(a, b))` → `v := select(b); w := join(a, v)`.
//!   The equi-join's result tail comes entirely from `b`'s tail, every
//!   join implementation emits left-major/right-ascending order, and
//!   every select implementation emits ascending operand positions — so
//!   filtering `b` first yields the same BUNs in the same order, while
//!   the join processes fewer build rows.
//!
//! * `w := select(semijoin(a, c))` → `v := select(a); w := semijoin(v, c)`.
//!   The semijoin result is a subset of `a` in `a`-order and its tail is
//!   `a`'s tail, so the filters commute — **except** on the datavector
//!   path, which emits in right-operand order; the rewrite is fenced on
//!   `a` being provably datavector-free ([`Shape::may_dv`]). `mirror`
//!   participates via that provenance: it drops datavectors, so selects
//!   push freely across semijoins of mirrored intermediates.
//!
//! The moved select lands on an earlier intermediate — often a loaded,
//! tail-sorted attribute BAT, where it becomes a zero-copy binary-search
//! slice and a CSE candidate shared across conjuncts.

use super::super::ast::{MilOp, MilProgram};
use super::{infer, Pass, PassCtx, PassEffect};

pub(crate) struct Pushdown;

/// Rebuild the select op in `stmt` with a new source variable.
fn retarget_select(op: &MilOp, new_src: usize) -> Option<MilOp> {
    Some(match op {
        MilOp::SelectEq(_, v) => MilOp::SelectEq(new_src, v.clone()),
        MilOp::SelectRange { lo, hi, inc_lo, inc_hi, .. } => MilOp::SelectRange {
            src: new_src,
            lo: lo.clone(),
            hi: hi.clone(),
            inc_lo: *inc_lo,
            inc_hi: *inc_hi,
        },
        _ => return None,
    })
}

impl Pass for Pushdown {
    fn name(&self) -> &'static str {
        "pushdown"
    }

    fn run(&self, prog: &mut MilProgram, cx: &PassCtx) -> PassEffect {
        let mut applied = 0;
        loop {
            let uses = prog.use_counts();
            let shapes = infer::infer_shapes(prog, cx.db);
            let mut changed = false;
            for i in 0..prog.len() {
                let src = match &prog.stmts[i].op {
                    MilOp::SelectEq(v, _) => *v,
                    MilOp::SelectRange { src, .. } => *src,
                    _ => continue,
                };
                // The feeding statement is repurposed in place: only legal
                // when this select is its sole consumer and the caller
                // never reads it.
                if uses[src] != 1 || cx.roots.contains(&src) {
                    continue;
                }
                match prog.stmts[src].op.clone() {
                    MilOp::Join(a, b) => {
                        let sel = retarget_select(&prog.stmts[i].op, b).expect("select stmt");
                        prog.stmts[src].op = sel;
                        // The select's parameter slots travel with its
                        // values into the repurposed slot (the join carries
                        // no constants, so the swap cannot clobber any).
                        debug_assert!(prog.stmts[src].params.is_empty());
                        prog.stmts[src].params = std::mem::take(&mut prog.stmts[i].params);
                        prog.stmts[i].op = MilOp::Join(a, src);
                        applied += 1;
                        changed = true;
                    }
                    MilOp::Semijoin(a, c) => {
                        let a_may_dv = shapes[a].map_or(true, |s| s.may_dv);
                        if a_may_dv {
                            continue;
                        }
                        let sel = retarget_select(&prog.stmts[i].op, a).expect("select stmt");
                        prog.stmts[src].op = sel;
                        debug_assert!(prog.stmts[src].params.is_empty());
                        prog.stmts[src].params = std::mem::take(&mut prog.stmts[i].params);
                        prog.stmts[i].op = MilOp::Semijoin(src, c);
                        applied += 1;
                        changed = true;
                    }
                    _ => {}
                }
                if changed {
                    // Use counts and shapes are stale after a rewrite;
                    // restart the sweep (programs are small).
                    break;
                }
            }
            if !changed {
                break;
            }
        }
        PassEffect { applied, remap: None }
    }
}
