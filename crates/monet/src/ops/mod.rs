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
use std::ops::Range;

/// Rows per morsel of the scan-shaped operators (select scan, synced
/// multiplex, `aggr_scalar`, the float `{g}` partials). The grid is a
/// property of the operand and part of a float reduction's definition: a
/// sum is the morsel-order sum of its per-morsel partials.
pub const MORSEL_ROWS: usize = 64 * 1024;

/// The [`MORSEL_ROWS`] windows of a `len`-row operand, in row order; an
/// empty operand is one empty morsel.
pub(crate) fn morsels(len: usize) -> impl Iterator<Item = Range<usize>> {
    (0..len.div_ceil(MORSEL_ROWS).max(1))
        .map(move |k| k * MORSEL_ROWS..((k + 1) * MORSEL_ROWS).min(len))
}

/// Map `f` over the morsels of a `len`-row operand, in row order, probing
/// the governor before each ([`crate::gov::site::SCAN_MORSEL`]). `f`
/// returns its window's partial result; the caller concatenates or reduces
/// the parts in morsel order.
pub(crate) fn for_each_morsel<R>(
    ctx: &ExecCtx,
    len: usize,
    mut f: impl FnMut(Range<usize>) -> R,
) -> Result<Vec<R>> {
    morsels(len)
        .map(|r| {
            ctx.probe(crate::gov::site::SCAN_MORSEL)?;
            Ok(f(r))
        })
        .collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gov::site;

    #[test]
    fn morsels_cover_exactly_in_order() {
        let m = MORSEL_ROWS;
        for len in [0, 1, m - 1, m, m + 1, 2 * m + 509] {
            let ms: Vec<_> = morsels(len).collect();
            assert_eq!(ms.len(), len.div_ceil(m).max(1), "len={len}");
            let mut at = 0;
            for r in &ms {
                assert_eq!(r.start, at, "len={len}");
                assert!(r.len() <= m && (!r.is_empty() || len == 0), "len={len}");
                at = r.end;
            }
            assert_eq!(at, len, "len={len}");
        }
    }

    #[test]
    fn for_each_morsel_covers_in_order() {
        let ctx = ExecCtx::new();
        let len = 2 * MORSEL_ROWS + 509;
        let got = for_each_morsel(&ctx, len, |r| (r.start, r.end)).unwrap();
        let m = MORSEL_ROWS;
        assert_eq!(got, [(0, m), (m, 2 * m), (2 * m, len)]);
        assert_eq!(ctx.gov.probes(), 3, "one probe before every morsel");
    }

    #[test]
    fn injected_fault_mid_scan_stops_at_the_probe() {
        let ctx = ExecCtx::new();
        let len = 2 * MORSEL_ROWS + 509;
        // A fault at the second morsel stops the scan before it runs.
        ctx.gov.arm_fault(site::SCAN_MORSEL, 2);
        let mut ran = 0;
        let err = for_each_morsel(&ctx, len, |_| ran += 1).unwrap_err();
        assert!(matches!(err, MonetError::Injected { site: site::SCAN_MORSEL, .. }), "{err:?}");
        assert_eq!(ran, 1);
        // The injector is one-shot: the retried scan completes.
        let got = for_each_morsel(&ctx, len, |r| r.start).unwrap();
        assert_eq!(got, [0, MORSEL_ROWS, 2 * MORSEL_ROWS]);
    }

    #[test]
    fn cancelled_scan_runs_no_morsel_and_ctx_stays_reusable() {
        let ctx = ExecCtx::new();
        let len = 2 * MORSEL_ROWS + 509;
        ctx.cancel_token().cancel();
        let mut ran = 0;
        let r = for_each_morsel(&ctx, len, |_| ran += 1);
        assert_eq!(r.unwrap_err(), MonetError::Cancelled);
        assert_eq!(ran, 0, "pre-cancelled: no morsel runs");
        // Once the token is cleared the same context scans again.
        ctx.cancel_token().clear();
        let got = for_each_morsel(&ctx, len, |r| r.len()).unwrap();
        assert_eq!(got.iter().sum::<usize>(), len);
    }
}
