//! Property-driven algorithm pinning (the plan-time half of Section 5.1's
//! dynamic optimization).
//!
//! After the rewrite fixpoint, propagate properties and types through the
//! final program ([`infer`]) and annotate every statement whose
//! implementation choice is already decided. A pin is attached **only when
//! dynamic dispatch would provably pick the same implementation**, so a
//! pinned program is bit-identical to an unpinned one — the pin just lets
//! the interpreter skip the per-operator property re-derivation (and makes
//! the planned algorithm visible in EXPLAIN output):
//!
//! * `select` on a statically dictionary-encoded tail → code-range select.
//!   The encoding claim only ever flows from the stored column's actual
//!   layout (a `Load` seeds it from catalog ground truth, guarded by the
//!   Db epoch), and dynamic dispatch checks the dict layout first.
//! * `select` on a statically sorted tail → binary search. Sortedness only
//!   gains facts at run time, so dispatch would take the same branch —
//!   and if the tail also turns out dictionary-encoded at run time, the
//!   dict-code path returns the *identical* zero-copy slice (order
//!   preservation makes the code range and the string range coincide).
//! * `join` with a statically dense oid-like right head and oid-like left
//!   tail → positional fetch — dispatch's first branch.
//! * `join` with statically sorted operands → merge. A right head that
//!   turns out dense at run time would make dispatch prefer fetch, but the
//!   two find the same matches in the same order and share one result
//!   assembly (`build_join`: gather, full-match head sharing, properties),
//!   so the pinned merge is bit-identical to it.

use crate::db::Db;

use super::super::ast::{MilOp, MilProgram, Pin};
use super::infer::{self, known_oidlike};

/// Annotate `prog`; returns the number of pinned statements.
pub(crate) fn run(prog: &mut MilProgram, db: &Db) -> usize {
    let shapes = infer::infer_shapes(prog, db);
    let mut pins = 0;
    for i in 0..prog.len() {
        let pin = match &prog.stmts[i].op {
            MilOp::SelectEq(v, _) | MilOp::SelectRange { src: v, .. } => shapes[*v].and_then(|s| {
                if s.props.tail.enc == crate::props::Enc::Dict {
                    Some(Pin::SelectDictCode)
                } else if s.props.tail.sorted {
                    Some(Pin::SelectSorted)
                } else {
                    None
                }
            }),
            MilOp::Join(a, b) => match (shapes[*a], shapes[*b]) {
                (Some(sa), Some(sb)) => {
                    if sb.props.head.dense && known_oidlike(sb.head) && known_oidlike(sa.tail) {
                        Some(Pin::JoinFetch)
                    } else if sa.props.tail.sorted && sb.props.head.sorted {
                        Some(Pin::JoinMerge)
                    } else {
                        None
                    }
                }
                _ => None,
            },
            _ => None,
        };
        prog.stmts[i].pin = pin;
        pins += pin.is_some() as usize;
    }
    pins
}
