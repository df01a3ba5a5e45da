//! Dead-code elimination with variable renumbering.
//!
//! A statement is live when a root (the caller's result/structure
//! variables) transitively depends on it; everything else — chiefly the
//! orphans CSE and folding leave behind — is removed. Variables are
//! renumbered so the straight-line invariant (`stmt.var == index`) holds
//! again, which is what makes the interpreter's free-at-last-use table
//! and live-set high-water mark *recompute* correctly against the
//! rewritten program: `last_uses` is derived from the program the
//! interpreter is actually handed, never from the raw emission.

use super::super::ast::{MilProgram, Var};

/// Remove every statement no root depends on and renumber the rest.
/// Returns the number removed and `remap[old] = Some(new)` (`None` marks
/// a removed variable).
pub(super) fn dce(
    prog: &mut MilProgram,
    roots: impl Iterator<Item = Var>,
) -> (usize, Vec<Option<Var>>) {
    let n = prog.len();
    let mut live = vec![false; n];
    for r in roots {
        live[r] = true;
    }
    for i in (0..n).rev() {
        if live[i] {
            prog.stmts[i].op.for_each_operand(|v| live[v] = true);
        }
    }
    let mut remap: Vec<Option<Var>> = vec![None; n];
    let (mut next, mut kept) = (0, 0);
    prog.stmts.retain_mut(|stmt| {
        let i = next;
        next += 1;
        if !live[i] {
            return false;
        }
        remap[i] = Some(kept);
        stmt.var = kept;
        stmt.op.for_each_operand_mut(|v| *v = remap[*v].expect("operand of a live stmt is live"));
        kept += 1;
        true
    });
    (n - kept, remap)
}
