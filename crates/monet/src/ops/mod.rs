//! The BAT algebra (Figure 4): the execution primitives MIL programs are
//! composed of. BAT-algebra operations materialize their result and never
//! change their operands.
//!
//! Every operator performs the *dynamic optimization* step of Section 2:
//! just before execution it inspects the descriptor properties and
//! accelerators of its operands and picks the cheapest implementation —
//! e.g. `semijoin` chooses between `sync`, `merge`, `datavector` and `hash`
//! variants. The chosen algorithm is recorded in the trace so that the
//! detailed execution breakdowns of Figure 10 can show it.
//!
//! Hot loops are **monomorphized** through the typed-kernel layer
//! ([`crate::typed`]): the column type is resolved once per operator call
//! (`for_each_typed!`), never per row. New operators must follow the same
//! rule; the per-row generic forms live on only in [`reference`], the
//! oracle of the specialized-vs-generic property suite.

pub mod aggregate;
pub mod group;
pub mod join;
pub mod multiplex;
pub mod reference;
pub mod select;
pub mod semijoin;
pub mod setops;
pub mod sort;
pub mod unique;

pub use aggregate::{aggr_scalar, set_aggregate, AggFunc};
pub use group::{group1, group2};
pub use join::{join, join_partitioned, join_theta};
pub use multiplex::{apply_scalar, multiplex, MultArg, ScalarFunc};
pub use select::{select_eq, select_range};
pub use semijoin::{antijoin, semijoin};
pub use setops::{concat_bats, diff_pairs, intersect_pairs, union_pairs, zip};
pub use sort::{mark, sort_head, sort_tail, topn};
pub use unique::unique;

use crate::atom::AtomType;
use crate::column::Column;
use crate::ctx::ExecCtx;
use crate::error::{MonetError, Result};
use crate::props::Enc;

/// Threads an operator over a `rows`-row operand should fan out to —
/// [`crate::costmodel::par_threads`] gated on the context: with a pager
/// installed the kernels stay serial, because the simulated fault trace is
/// defined by sequential access order.
pub(crate) fn par_threads(ctx: &ExecCtx, rows: usize) -> usize {
    if ctx.pager.is_some() {
        1
    } else {
        crate::costmodel::par_threads(ctx.config(), rows)
    }
}

/// One morsel of a column, as the scan-shaped operators' window kernels
/// read it. RLE-encoded dbl tails decode run-aware into a fresh buffer —
/// `decoded()` on a window would materialize (and cache) the *full*
/// column. Other encodings window zero-copy; the window kernels handle
/// them.
pub(crate) fn window_of(tail: &Column, start: usize, len: usize) -> Column {
    if tail.encoding() == Enc::Rle && tail.atom_type() == AtomType::Dbl {
        let mut buf = Vec::with_capacity(len);
        if tail.rle_dbl_window_into(start, len, &mut buf) {
            return Column::from_dbls(buf);
        }
    }
    tail.slice(start, len)
}

/// Check that two columns can be compared for a join (same type; oid and
/// void interoperate).
pub(crate) fn check_comparable(op: &'static str, left: AtomType, right: AtomType) -> Result<()> {
    let ok = left == right
        || matches!(
            (left, right),
            (AtomType::Oid, AtomType::Void) | (AtomType::Void, AtomType::Oid)
        );
    if ok {
        Ok(())
    } else {
        Err(MonetError::IncompatibleColumns { op, left, right })
    }
}
