//! A program as the interpreter runs it: statements, the parameter values
//! bound to their slots for this execution, and the free-at-last-use table.
//!
//! A plan cache keeps one optimized program per query shape and serves it
//! to every execution of that shape. Re-binding must not copy it: a
//! [`BoundProgram`] is the shared program behind an `Arc` plus this
//! execution's `(param id, value)` bindings — the *overlay* — which the
//! interpreter applies to the parameter-slotted statements only, as it
//! reaches them. The liveness table is computed once, when the program is
//! frozen, not on every execution.

use std::borrow::Cow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::atom::AtomValue;
use crate::error::{MonetError, Result};

use super::ast::{MilOp, MilProgram, MilStmt, Var};

/// What [`execute`](super::execute) runs. A bare [`MilProgram`] runs with
/// its own constants and derives its liveness table per call; a
/// [`BoundProgram`] carries both.
pub trait Executable {
    /// The statements (with whatever constants the program was built with).
    fn program(&self) -> &MilProgram;

    /// This execution's parameter values, `(param id, value)`; empty when
    /// the program's own constants are the bound ones.
    fn overlay(&self) -> &[(u32, AtomValue)];

    /// For each statement, the variables whose last use it is.
    fn frees(&self) -> Cow<'_, [Vec<Var>]>;

    /// Statement `i` as MIL text, with this execution's parameter values.
    fn render_stmt(&self, i: usize) -> String {
        let prog = self.program();
        let stmt = &prog.stmts[i];
        match bind_op(stmt, self.overlay()) {
            Ok(op) => super::print::render_op(prog, stmt, &op),
            Err(_) => super::print::render_stmt(prog, stmt),
        }
    }
}

impl Executable for MilProgram {
    fn program(&self) -> &MilProgram {
        self
    }

    fn overlay(&self) -> &[(u32, AtomValue)] {
        &[]
    }

    fn frees(&self) -> Cow<'_, [Vec<Var>]> {
        Cow::Owned(self.last_uses())
    }
}

/// `stmt`'s operation with the overlay's values in its parameter slots.
/// Borrowed — no copy — unless the statement has a slot the overlay binds.
pub(super) fn bind_op<'a>(
    stmt: &'a MilStmt,
    overlay: &[(u32, AtomValue)],
) -> Result<Cow<'a, MilOp>> {
    if overlay.is_empty() || stmt.params.is_empty() {
        return Ok(Cow::Borrowed(&stmt.op));
    }
    let mut op = stmt.op.clone();
    for (pid, loc) in &stmt.params {
        if let Some((_, v)) = overlay.iter().find(|(id, _)| id == pid) {
            if !op.splice_param(*loc, v) {
                return Err(MonetError::Malformed {
                    op: "mil",
                    detail: format!("parameter {pid} has a stale slot in {}", stmt.name),
                });
            }
        }
    }
    Ok(Cow::Owned(op))
}

/// A frozen program and its liveness table.
#[derive(Debug)]
struct Frozen {
    prog: MilProgram,
    frees: Vec<Vec<Var>>,
}

/// One shared, immutable program plus the parameter values bound for one
/// execution. Cloning shares the program; [`BoundProgram::rebind`] gives
/// the same program other values without touching it.
///
/// Derefs to the shared [`MilProgram`] for inspection (`stmts`, `len`).
/// Run it as itself — `execute(ctx, db, &bound, keep)` — never as
/// `&*bound`, which would run the shared program's own constants.
#[derive(Debug, Clone)]
pub struct BoundProgram {
    frozen: Arc<Frozen>,
    overlay: Vec<(u32, AtomValue)>,
}

impl BoundProgram {
    /// Freeze `prog`, bound to its own constants.
    pub fn new(prog: MilProgram) -> BoundProgram {
        let frees = prog.last_uses();
        BoundProgram { frozen: Arc::new(Frozen { prog, frees }), overlay: Vec::new() }
    }

    /// The same shared program bound to `bindings` (`(param id, value)`;
    /// slots whose id is missing keep the program's constant).
    pub fn rebind(&self, bindings: Vec<(u32, AtomValue)>) -> BoundProgram {
        BoundProgram { frozen: Arc::clone(&self.frozen), overlay: bindings }
    }

    /// Whether both run one shared program (whatever their bindings).
    pub fn shares_program_with(&self, other: &BoundProgram) -> bool {
        Arc::ptr_eq(&self.frozen, &other.frozen)
    }

    /// The parameter values this execution runs with, `(param id, value)`
    /// per slot in statement order — the overlay's where it binds one.
    pub fn param_bindings(&self) -> Vec<(u32, AtomValue)> {
        let mut out = self.frozen.prog.param_bindings();
        for (pid, v) in &mut out {
            if let Some((_, bound)) = self.overlay.iter().find(|(id, _)| id == pid) {
                *v = bound.clone();
            }
        }
        out
    }
}

impl Executable for BoundProgram {
    fn program(&self) -> &MilProgram {
        &self.frozen.prog
    }

    fn overlay(&self) -> &[(u32, AtomValue)] {
        &self.overlay
    }

    fn frees(&self) -> Cow<'_, [Vec<Var>]> {
        Cow::Borrowed(&self.frozen.frees)
    }
}

impl Deref for BoundProgram {
    type Target = MilProgram;

    fn deref(&self) -> &MilProgram {
        &self.frozen.prog
    }
}

/// The program as this execution runs it, one statement per line.
impl fmt::Display for BoundProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len() {
            writeln!(f, "{}", self.render_stmt(i))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog() -> MilProgram {
        let mut p = MilProgram::new();
        let x = p.emit("x", MilOp::Load("x".into()));
        let s = p.emit("s", MilOp::SelectEq(x, AtomValue::Int(1)));
        p.note_param(s, 7, super::super::ParamLoc::EqVal);
        p
    }

    #[test]
    fn rebinding_shares_the_program_and_leaves_its_constants() {
        let a = BoundProgram::new(prog());
        let b = a.rebind(vec![(7, AtomValue::Int(2))]);
        assert!(a.shares_program_with(&b));
        assert_eq!(a.param_bindings(), vec![(7, AtomValue::Int(1))]);
        assert_eq!(b.param_bindings(), vec![(7, AtomValue::Int(2))]);
        assert_eq!(b.program().param_bindings(), vec![(7, AtomValue::Int(1))]);
        assert_eq!(b.to_string(), "x := load(\"x\")\ns := select(x, 2)\n");
        assert_eq!(a.to_string(), a.program().to_string());
        // Unslotted statements are never copied.
        assert!(matches!(bind_op(&b.stmts[0], b.overlay()), Ok(Cow::Borrowed(_))));
        assert!(matches!(bind_op(&b.stmts[1], b.overlay()), Ok(Cow::Owned(_))));
    }

    #[test]
    fn a_stale_slot_is_an_error_not_a_wrong_constant() {
        let mut p = prog();
        p.stmts[1].params[0].1 = super::super::ParamLoc::RangeLo;
        let b = BoundProgram::new(p).rebind(vec![(7, AtomValue::Int(2))]);
        assert!(matches!(bind_op(&b.stmts[1], b.overlay()), Err(MonetError::Malformed { .. })));
    }
}
