//! MIL — the Monet Interpreter Language (Section 4.2).
//!
//! MIL consists of the BAT algebra plus control structures; here a MIL
//! *program* is a straight-line sequence of BAT-algebra statements (the
//! form the MOA translator emits, cf. the listing of Figure 10). Programs
//! are first-class values: they can be pretty-printed, interpreted against
//! a [`crate::db::Db`], and traced statement by statement.

mod ast;
mod bound;
mod interp;
pub mod opt;
mod print;

pub use ast::{MilArg, MilOp, MilProgram, MilStmt, ParamLoc, Pin, Var};
pub use bound::{BoundProgram, Executable};
pub use interp::{execute, Env, MilValue, StmtTrace};
pub use print::{render_program, render_stmt};
