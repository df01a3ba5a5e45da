//! Stage pipelines: run a `select/map/…/(aggr)` chain in one pass over the
//! source tail, morsel-at-a-time, with no intermediate BATs.
//!
//! [`run_stages`] is the one morsel driver for every scan-shaped operator.
//! Each stage kind has exactly one window kernel, owned by its operator
//! module — [`super::select::select_window`],
//! [`super::multiplex::eval_tail_window`],
//! [`super::aggregate::aggr_window`] — and the unfused operators
//! (`select_*`'s scan branch, the synced `multiplex`, `aggr_scalar`) are
//! one-stage pipelines over it, so fused and unfused execution agree by
//! construction.
//!
//! [`run_fused`] executes a planner-fused chain. The fuse pass
//! ([`crate::mil::opt`]) only admits chains whose morsel-wise evaluation is
//! bit-identical to the statement-wise one; conditions it cannot see
//! statically (a runtime-sorted tail, an unsynced side BAT) switch to a
//! *different algorithm* through [`run_staged`], which calls the public
//! operators stage by stage. Each fused stage probes its own `fuse/<op>`
//! governor site per morsel, so cancellation and fault injection reach
//! every fused stage.

use crate::atom::{AtomType, AtomValue};
use crate::bat::Bat;
use crate::column::Column;
use crate::ctx::ExecCtx;
use crate::error::Result;
use crate::gov::{site, Governor};
use crate::pager;
use crate::props::{ColProps, Enc, Props};
use std::sync::Arc;

use super::aggregate::{aggr_window, merge_partials, AggFunc, Partial};
use super::multiplex::{eval_tail_window, TailArg};
use super::select::{propagated_props, select_window};
use super::{MultArg, ScalarFunc};

/// One argument of a fused map stage. `Chain` is the value flowing through
/// the pipeline; `Side` is another BAT read positionally alongside the
/// source; `Const` broadcasts.
#[derive(Clone)]
pub enum FArg {
    Chain,
    Side(Bat),
    Const(AtomValue),
}

/// One stage of a fused pipeline, in execution order. An `Aggr` stage is
/// always last.
#[derive(Clone)]
pub enum Stage {
    SelectEq(AtomValue),
    SelectRange { lo: Option<AtomValue>, hi: Option<AtomValue>, inc_lo: bool, inc_hi: bool },
    Map { f: ScalarFunc, args: Vec<FArg> },
    Aggr(AggFunc),
}

impl Stage {
    fn site(&self) -> &'static str {
        match self {
            Stage::SelectEq(_) | Stage::SelectRange { .. } => site::FUSE_SELECT,
            Stage::Map { .. } => site::FUSE_MULTIPLEX,
            Stage::Aggr(_) => site::FUSE_AGGR,
        }
    }
}

/// A fused chain ends in either a BAT (select/map terminal) or a scalar
/// (aggregate terminal).
pub enum FusedOut {
    Bat(Bat),
    Scalar(AtomValue),
}

/// Per-morsel result: the chain length after every stage, the global
/// source positions of the surviving rows (present once any selection
/// ran), the mapped chain window (present once any map ran, absent after a
/// terminal aggregate), the aggregate partial, and whether any map stage
/// took the row-at-a-time loop.
struct MorselOut {
    counts: Vec<usize>,
    positions: Option<Vec<u32>>,
    window: Option<Column>,
    partial: Option<Partial>,
    rowwise: bool,
}

/// What a pipeline produced, morsel parts combined in morsel order. Which
/// fields are present follows from the stage kinds alone.
pub(crate) struct Piped {
    /// Chain length after every stage.
    pub counts: Vec<usize>,
    /// Source positions of the surviving rows, once any selection ran.
    pub positions: Option<Vec<u32>>,
    /// The chain's values once any map ran (until then the chain is still
    /// the source tail at `positions`); absent after a terminal aggregate.
    pub tail: Option<Column>,
    /// The terminal aggregate's value.
    pub scalar: Option<AtomValue>,
    /// A map stage fell back to the row-at-a-time loop
    /// ([`eval_tail_window`]): the trace label gets its `-rowwise` suffix.
    pub rowwise: bool,
}

/// The morsel driver: evaluate `stages` over every fixed morsel of
/// `src_tail` — on the worker pool when [`super::par_threads`] says so,
/// else on the caller over the same operand-defined grid — and combine the
/// parts in morsel order. `fuse_sites` makes every stage probe its
/// `fuse/<op>` governor site per morsel (planner-fused chains); the
/// driver's own `par/morsel` probe fires either way.
pub(crate) fn run_stages(
    ctx: &ExecCtx,
    src_tail: &Column,
    stages: &[Stage],
    fuse_sites: bool,
) -> Result<Piped> {
    let n = src_tail.len();
    let threads = super::par_threads(ctx, n);
    let gov = Arc::clone(&ctx.gov);
    let tail = src_tail.clone();
    let stages_arc: Arc<Vec<Stage>> = Arc::new(stages.to_vec());
    let parts = crate::par::try_for_each_morsel(ctx, n, threads, move |r| {
        eval_morsel(fuse_sites.then_some(&*gov), &tail, &stages_arc, r)
    })?;
    // Surface the first error in morsel order (the earliest failing row's
    // morsel, whatever the schedule).
    let parts: Vec<MorselOut> = parts.into_iter().collect::<Result<_>>()?;

    let mut counts = vec![0usize; stages.len()];
    for p in &parts {
        for (total, &c) in counts.iter_mut().zip(&p.counts) {
            *total += c;
        }
    }
    let n_out = counts.last().copied().unwrap_or(n);
    let mut positions = parts[0].positions.is_some().then(|| Vec::with_capacity(n_out));
    let mut windows: Vec<Column> = Vec::new();
    let mut partials: Vec<Partial> = Vec::new();
    let rowwise = parts.iter().any(|p| p.rowwise);
    for p in parts {
        if let (Some(all), Some(part)) = (positions.as_mut(), p.positions) {
            all.extend_from_slice(&part);
        }
        windows.extend(p.window);
        partials.extend(p.partial);
    }
    let scalar = match stages.last() {
        // An aggregate leaves the chain as it found it, so the last count
        // is the number of rows that reached it.
        Some(Stage::Aggr(f)) => Some(merge_partials(*f, n_out, partials)?),
        _ => None,
    };
    // Empty windows are dropped before concatenation: a zero-row map
    // window types its output by static hint, which can disagree with the
    // value-derived type of non-empty windows. When *all* windows are
    // empty the first one's hint-typed column stands.
    if windows.iter().any(|w| !w.is_empty()) {
        windows.retain(|w| !w.is_empty());
    } else {
        windows.truncate(1);
    }
    let tail = (!windows.is_empty()).then(|| Column::concat_all(&windows));
    Ok(Piped { counts, positions, tail, scalar, rowwise })
}

/// Execute a fused chain over `src`. Bit-identical to running the stages
/// as separate statements: same window kernels, plus the admission rules
/// and the runtime switches below.
pub fn run_fused(ctx: &ExecCtx, src: &Bat, stages: &[Stage]) -> Result<FusedOut> {
    // Runtime conditions the fuse pass cannot prove switch algorithm: a
    // sorted-tail selection is a zero-copy binary-search slice (cheaper,
    // and with runtime props the static propagation rules cannot claim),
    // and a side BAT is only windowable when it is positionally synced
    // with the source and no selection has disturbed the row alignment.
    if src.len() == 0 {
        return run_staged(ctx, src, stages);
    }
    let mut cur = src.props();
    let mut filtered = false;
    for stage in stages {
        match stage {
            Stage::SelectEq(_) | Stage::SelectRange { .. } => {
                if cur.tail.sorted {
                    return run_staged(ctx, src, stages);
                }
                cur = propagated_props(cur, matches!(stage, Stage::SelectEq(_)));
                filtered = true;
            }
            Stage::Map { args, .. } => {
                for a in args {
                    if let FArg::Side(b) = a {
                        if filtered || !src.synced(b) {
                            return run_staged(ctx, src, stages);
                        }
                    }
                }
                cur = Props::new(map_head_props(&cur, args), ColProps::NONE);
            }
            Stage::Aggr(_) => {}
        }
    }

    // Every BAT the pipeline reads: the source, then the map stages' sides.
    let mut operands = vec![src];
    for stage in stages {
        if let Stage::Map { args, .. } = stage {
            operands.extend(args.iter().filter_map(|a| match a {
                FArg::Side(b) => Some(b),
                _ => None,
            }));
        }
    }
    if let Some(p) = ctx.pager.as_deref() {
        // One scan of every column the pipeline reads. This is the
        // statement-wise cost minus the intermediate materializations — an
        // approximation (the select paths may touch-fetch instead),
        // acceptable because the pager is a cost-model instrument, not a
        // correctness surface.
        for b in &operands {
            pager::touch_scan(p, b.tail());
        }
    }
    let out = run_stages(ctx, src.tail(), stages, true)?;
    if let Some(v) = out.scalar {
        return Ok(FusedOut::Scalar(v));
    }
    // BAT terminal: gather the head donor (and, in a map-free chain, the
    // source tail) by the surviving positions, and replay the property
    // propagation the separate statements would have done.
    let head = head_donor(src, stages);
    let (head, tail) = match (&out.positions, out.tail) {
        (Some(p), Some(tail)) => (head.gather(p), tail),
        (Some(p), None) => (head.gather(p), src.tail().gather(p)),
        (None, tail) => (head, tail.unwrap_or_else(|| src.tail().clone())),
    };
    let bat = Bat::with_props(head, tail, replay_props(src, stages, &out.counts));
    let algo = if out.rowwise { "pipeline-rowwise" } else { "pipeline" };
    ctx.record("fused", algo, &operands, &bat)?;
    Ok(FusedOut::Bat(bat))
}

/// Statement-wise replay: the chain through the public operators, stage by
/// stage, for operands whose best algorithm is not a scan. This *is* the
/// unfused execution — same dispatch, same records — except that each
/// intermediate's memory charge is released when the next stage supersedes
/// it (the interpreter only releases the fused statement's single result).
fn run_staged(ctx: &ExecCtx, src: &Bat, stages: &[Stage]) -> Result<FusedOut> {
    let mut cur = src.clone();
    let mut charged = 0u64;
    for stage in stages {
        let next = match stage {
            Stage::SelectEq(v) => super::select::select_eq(ctx, &cur, v)?,
            Stage::SelectRange { lo, hi, inc_lo, inc_hi } => {
                super::select::select_range(ctx, &cur, lo.as_ref(), hi.as_ref(), *inc_lo, *inc_hi)?
            }
            Stage::Map { f, args } => {
                let margs: Vec<MultArg> = args
                    .iter()
                    .map(|a| match a {
                        FArg::Chain => MultArg::Bat(cur.clone()),
                        FArg::Side(b) => MultArg::Bat(b.clone()),
                        FArg::Const(v) => MultArg::Const(v.clone()),
                    })
                    .collect();
                super::multiplex::multiplex(ctx, *f, &margs)?
            }
            Stage::Aggr(f) => {
                let v = super::aggregate::aggr_scalar(ctx, &cur, *f)?;
                ctx.mem.release(charged);
                return Ok(FusedOut::Scalar(v));
            }
        };
        ctx.mem.release(charged);
        charged = next.bytes() as u64;
        cur = next;
    }
    // The final stage's charge stays: the interpreter releases the fused
    // statement's value when it dies, exactly balancing it.
    Ok(FusedOut::Bat(cur))
}

/// Evaluate the whole chain over one source morsel; `fuse_gov` carries
/// the governor when the stages probe their `fuse/<op>` sites.
fn eval_morsel(
    fuse_gov: Option<&Governor>,
    src_tail: &Column,
    stages: &[Stage],
    r: std::ops::Range<usize>,
) -> Result<MorselOut> {
    let mut chain = window_of(src_tail, r.start, r.len());
    let mut rows = r.len();
    let mut positions: Option<Vec<u32>> = None;
    let mut counts = Vec::with_capacity(stages.len());
    let mut mapped = false;
    let mut rowwise = false;
    let mut partial = None;
    for (si, stage) in stages.iter().enumerate() {
        if let Some(gov) = fuse_gov {
            gov.probe(stage.site())?;
        }
        let (lo, hi, inc_lo, inc_hi) = match stage {
            Stage::SelectEq(v) => (Some(v), Some(v), true, true),
            Stage::SelectRange { lo, hi, inc_lo, inc_hi } => {
                (lo.as_ref(), hi.as_ref(), *inc_lo, *inc_hi)
            }
            Stage::Map { f, args } => {
                let wargs: Vec<TailArg> = args
                    .iter()
                    .map(|a| match a {
                        FArg::Chain => TailArg::Col(chain.clone()),
                        // Sides only occur before any selection (checked
                        // by run_fused; trivially true of a lone map), so
                        // the chain still spans the full morsel and the
                        // side window aligns positionally.
                        FArg::Side(b) => TailArg::Col(b.tail().slice(r.start, r.len())),
                        FArg::Const(v) => TailArg::Const(v.clone()),
                    })
                    .collect();
                let by_row;
                (chain, by_row) = eval_tail_window(*f, &wargs, rows)?;
                rowwise |= by_row;
                mapped = true;
                counts.push(rows);
                continue;
            }
            Stage::Aggr(f) => {
                partial = Some(aggr_window(&chain, *f)?);
                counts.push(rows);
                continue;
            }
        };
        for v in [lo, hi].into_iter().flatten() {
            super::check_comparable("select", chain.atom_type(), v.atom_type())?;
        }
        let idx = select_window(&chain, lo, hi, inc_lo, inc_hi);
        positions = Some(match positions.take() {
            None => idx.iter().map(|&i| (r.start + i as usize) as u32).collect(),
            Some(p) => idx.iter().map(|&i| p[i as usize]).collect(),
        });
        // A map-free chain ending in this selection is the source tail at
        // `positions`: the caller gathers it once, globally.
        if mapped || si + 1 < stages.len() {
            chain = chain.gather(&idx);
        }
        rows = idx.len();
        counts.push(rows);
    }
    let window = (mapped && partial.is_none()).then_some(chain);
    Ok(MorselOut { counts, positions, window, partial, rowwise })
}

/// The chain's view of one source morsel. RLE-encoded dbl tails decode
/// run-aware into a fresh buffer — `decoded()` on a window would
/// materialize (and cache) the *full* column, defeating the pipeline's
/// memory goal. Other encodings window zero-copy; the window kernels
/// handle them.
fn window_of(tail: &Column, start: usize, len: usize) -> Column {
    if tail.encoding() == Enc::Rle && tail.atom_type() == AtomType::Dbl {
        let mut buf = Vec::with_capacity(len);
        if tail.rle_dbl_window_into(start, len, &mut buf) {
            return Column::from_dbls(buf);
        }
    }
    tail.slice(start, len)
}

/// The column whose rows (gathered by the surviving positions) form the
/// result head: the source head until a map whose first BAT argument is a
/// side — then that side's head, the multiplex first-BAT donor rule.
fn head_donor(src: &Bat, stages: &[Stage]) -> Column {
    let mut donor = src.head().clone();
    for stage in stages {
        if let Stage::Map { args, .. } = stage {
            let first = args.iter().find_map(|a| match a {
                FArg::Chain => Some(None),
                FArg::Side(b) => Some(Some(b)),
                FArg::Const(_) => None,
            });
            if let Some(Some(b)) = first {
                donor = b.head().clone();
            }
        }
    }
    donor
}

/// Head-property donor for a map stage: the first BAT argument (the chain
/// itself, or a side).
fn map_head_props(cur: &Props, args: &[FArg]) -> ColProps {
    args.iter()
        .find_map(|a| match a {
            FArg::Chain => Some(cur.head),
            FArg::Side(b) => Some(b.props().head),
            FArg::Const(_) => None,
        })
        .unwrap_or(cur.head)
}

/// Replay the statement-wise property propagation over the whole chain,
/// with the runtime strengthening the operators apply (`build_selected`
/// marks a point selection's tail `key` when at most one row survives).
fn replay_props(src: &Bat, stages: &[Stage], counts_total: &[usize]) -> Props {
    let mut cur = src.props();
    for (si, stage) in stages.iter().enumerate() {
        match stage {
            Stage::SelectEq(_) => {
                cur = propagated_props(cur, true);
                cur.tail.key = cur.tail.key || counts_total[si] <= 1;
            }
            Stage::SelectRange { .. } => cur = propagated_props(cur, false),
            Stage::Map { args, .. } => cur = Props::new(map_head_props(&cur, args), ColProps::NONE),
            Stage::Aggr(_) => {}
        }
    }
    cur
}
