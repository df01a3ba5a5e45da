//! Static shape inference: propagate column types and descriptor
//! properties ([`ColProps`]) through a MIL program at *plan* time.
//!
//! The property rules are the ones the kernels apply at run time —
//! [`crate::ops::select::propagated_props`],
//! [`crate::ops::join::propagated_props`],
//! [`crate::ops::semijoin::propagated_props`] are literally shared, and
//! the remaining ops mirror their kernel's `Bat::with_props` call — made
//! *conservative* wherever the kernel can learn more from the data (a
//! binary-search select keeps a dense head at run time; the static rule
//! drops it). The invariant the props-oracle suite guards: **every
//! statically claimed property holds on the actually computed column**,
//! so the pin pass can never commit to an algorithm whose precondition
//! fails at run time.
//!
//! Types are exact where known (`None` = unknown, e.g. a multiplex result)
//! — they gate the fetch-join pin, which needs oid-like join columns.
//!
//! `may_dv` tracks whether a variable can carry a **datavector**
//! accelerator at run time: datavectors ride on persistent BATs and
//! survive only the clone-returning paths (`semijoin`'s `sync`, `sort`'s
//! no-op, `unique`'s no-op); a mirror or any materializing kernel drops
//! them. The flag matters because the datavector semijoin emits in
//! *right-operand* order while every other semijoin emits in left order —
//! rewrites that could flip that choice are fenced on `may_dv`.

use crate::atom::AtomType;
use crate::db::Db;
use crate::ops;
use crate::props::{ColProps, Props};

use super::super::ast::{FuseArg, FuseStage, MilArg, MilOp, MilProgram, Var};

/// Statically known facts about one BAT-valued variable.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Head column type, when derivable.
    pub head: Option<AtomType>,
    /// Tail column type, when derivable.
    pub tail: Option<AtomType>,
    /// Properties guaranteed to hold on the computed result (a sound
    /// under-approximation of the run-time descriptor).
    pub props: Props,
    /// Whether the value may carry a datavector accelerator.
    pub may_dv: bool,
}

/// Known and definitely oid-like (unknown types return false).
pub(crate) fn known_oidlike(t: Option<AtomType>) -> bool {
    matches!(t, Some(AtomType::Oid | AtomType::Void))
}

/// `void` and `oid` columns combine into a materialized `oid` column
/// (`Column::concat`); other type pairs must match exactly.
fn concat_ty(a: Option<AtomType>, b: Option<AtomType>) -> Option<AtomType> {
    match (a?, b?) {
        (x, y) if x == y => Some(x),
        (AtomType::Void, AtomType::Oid) | (AtomType::Oid, AtomType::Void) => Some(AtomType::Oid),
        _ => None,
    }
}

/// Infer the shape of every variable of `prog`. Scalar-valued variables
/// (`const`, whole-BAT aggregates) get `None`.
pub fn infer_shapes(prog: &MilProgram, db: &Db) -> Vec<Option<Shape>> {
    let mut shapes: Vec<Option<Shape>> = Vec::with_capacity(prog.len());
    for stmt in &prog.stmts {
        let s = shape_of(&stmt.op, &shapes, db);
        shapes.push(s);
    }
    shapes
}

fn shape_of(op: &MilOp, shapes: &[Option<Shape>], db: &Db) -> Option<Shape> {
    let sh = |v: Var| -> Option<Shape> { shapes.get(v).copied().flatten() };
    Some(match op {
        MilOp::Load(name) => {
            let bat = db.get(name).ok()?;
            let (h, t) = bat.signature();
            Shape {
                head: Some(h),
                tail: Some(t),
                props: bat.props(),
                may_dv: bat.accel().datavector.is_some(),
            }
        }
        MilOp::ConstScalar(_) | MilOp::AggrScalar { .. } => return None,
        MilOp::Mirror(v) => {
            let s = sh(*v)?;
            // mirror swaps the column roles and drops the datavector (it
            // accelerates only the normal orientation).
            Shape { head: s.tail, tail: s.head, props: s.props.mirrored(), may_dv: false }
        }
        MilOp::SelectEq(v, _) => {
            let s = sh(*v)?;
            Shape { props: ops::select::propagated_props(s.props, true), may_dv: false, ..s }
        }
        MilOp::SelectRange { src, .. } => {
            let s = sh(*src)?;
            Shape { props: ops::select::propagated_props(s.props, false), may_dv: false, ..s }
        }
        MilOp::Join(a, b) => {
            let (sa, sb) = (sh(*a)?, sh(*b)?);
            Shape {
                head: sa.head,
                tail: sb.tail,
                props: ops::join::propagated_props(sa.props, sb.props),
                may_dv: false,
            }
        }
        MilOp::Semijoin(a, b) => {
            let (sa, sb) = (sh(*a)?, sh(*b)?);
            let props = if sa.may_dv {
                // The datavector variant emits one BUN per right head, in
                // right order with a freshly fetched tail; only claims
                // that hold for *both* it and the left-order subset paths
                // survive.
                Props::new(
                    ColProps {
                        sorted: sa.props.head.sorted && sb.props.head.sorted,
                        key: sa.props.head.key && sb.props.head.key,
                        dense: false,
                        ..ColProps::NONE
                    },
                    ColProps::NONE,
                )
            } else {
                ops::semijoin::propagated_props(sa.props)
            };
            // The sync variant returns a clone, accelerators included.
            Shape { head: sa.head, tail: sa.tail, props, may_dv: sa.may_dv }
        }
        MilOp::Antijoin(a, _) => {
            let sa = sh(*a)?;
            // Both variants (empty sync slice, hash subset) emit a subset
            // of the left operand in left order, without accelerators.
            Shape { props: ops::semijoin::propagated_props(sa.props), may_dv: false, ..sa }
        }
        MilOp::Unique(v) => {
            let s = sh(*v)?;
            if s.props.head.key || s.props.tail.key {
                // Provably duplicate-free: the kernel no-ops with a clone.
                s
            } else {
                Shape { props: ops::semijoin::propagated_props(s.props), may_dv: false, ..s }
            }
        }
        MilOp::Group1(v) => {
            let s = sh(*v)?;
            Shape {
                head: s.head,
                tail: Some(AtomType::Oid),
                props: Props::new(
                    s.props.head,
                    ColProps {
                        sorted: s.props.tail.sorted,
                        key: false,
                        dense: false,
                        ..ColProps::NONE
                    },
                ),
                may_dv: false,
            }
        }
        MilOp::Group2(a, _) => {
            let sa = sh(*a)?;
            Shape {
                head: sa.head,
                tail: Some(AtomType::Oid),
                props: Props::new(sa.props.head, ColProps::NONE),
                may_dv: false,
            }
        }
        MilOp::Multiplex { args, .. } => {
            // The kernel's result rides on the first BAT argument's head;
            // the aligned path weakens density away, so claim that form.
            let first = args.iter().find_map(|a| match a {
                MilArg::Var(v) => sh(*v),
                MilArg::Const(_) => None,
            })?;
            Shape {
                head: first.head,
                tail: None,
                props: Props::new(
                    ColProps {
                        sorted: first.props.head.sorted,
                        key: first.props.head.key,
                        dense: false,
                        ..ColProps::NONE
                    },
                    ColProps::NONE,
                ),
                may_dv: false,
            }
        }
        MilOp::SetAgg { src, .. } => {
            let s = sh(*src)?;
            Shape {
                head: s.head,
                tail: None,
                props: Props::new(
                    ColProps {
                        sorted: s.props.head.sorted,
                        key: true,
                        dense: false,
                        ..ColProps::NONE
                    },
                    ColProps::NONE,
                ),
                may_dv: false,
            }
        }
        MilOp::Union(a, b) | MilOp::Concat(a, b) => {
            let (sa, sb) = (sh(*a)?, sh(*b)?);
            Shape {
                head: concat_ty(sa.head, sb.head),
                tail: concat_ty(sa.tail, sb.tail),
                props: Props::NONE,
                may_dv: false,
            }
        }
        MilOp::Diff(a, _) | MilOp::Intersect(a, _) => {
            let sa = sh(*a)?;
            Shape { props: ops::semijoin::propagated_props(sa.props), may_dv: false, ..sa }
        }
        MilOp::Zip(a, b) => {
            let (sa, sb) = (sh(*a)?, sh(*b)?);
            Shape {
                head: sa.tail,
                tail: sb.tail,
                props: Props::new(sa.props.tail, sb.props.tail),
                may_dv: false,
            }
        }
        MilOp::SortTail(v) => {
            let s = sh(*v)?;
            if s.props.tail.sorted {
                s // no-op clone, accelerators included
            } else {
                Shape {
                    props: Props::new(
                        ColProps {
                            sorted: false,
                            key: s.props.head.key,
                            dense: false,
                            ..ColProps::NONE
                        },
                        ColProps {
                            sorted: true,
                            key: s.props.tail.key,
                            dense: false,
                            ..ColProps::NONE
                        },
                    ),
                    may_dv: false,
                    ..s
                }
            }
        }
        MilOp::SortHead(v) => {
            let s = sh(*v)?;
            // sort_head = sort_tail(mirror).mirror — even the no-op path
            // passes through two mirrors, which drop the datavector.
            let props = if s.props.head.sorted {
                s.props
            } else {
                Props::new(
                    ColProps {
                        sorted: true,
                        key: s.props.head.key,
                        dense: false,
                        ..ColProps::NONE
                    },
                    ColProps {
                        sorted: false,
                        key: s.props.tail.key,
                        dense: false,
                        ..ColProps::NONE
                    },
                )
            };
            Shape { props, may_dv: false, ..s }
        }
        MilOp::TopN { src, desc, .. } => {
            let s = sh(*src)?;
            Shape {
                props: Props::new(
                    ColProps {
                        sorted: false,
                        key: s.props.head.key,
                        dense: false,
                        ..ColProps::NONE
                    },
                    ColProps {
                        sorted: !desc,
                        key: s.props.tail.key,
                        dense: false,
                        ..ColProps::NONE
                    },
                ),
                may_dv: false,
                ..s
            }
        }
        MilOp::Mark(v) => {
            let s = sh(*v)?;
            Shape {
                head: s.head,
                tail: Some(AtomType::Void),
                props: Props::new(s.props.head, ColProps::DENSE),
                may_dv: false,
            }
        }
        MilOp::Fused { src, stages } => {
            // Replay the per-stage rules the unfused statements would have
            // received, so a fused chain claims exactly what its staged
            // equivalent would (the fuse pass builds chains *from* already
            // inferred statements, so this only re-derives).
            let mut cur = sh(*src)?;
            for stage in stages {
                cur = match stage {
                    FuseStage::SelectEq(_) => Shape {
                        props: ops::select::propagated_props(cur.props, true),
                        may_dv: false,
                        ..cur
                    },
                    FuseStage::SelectRange { .. } => Shape {
                        props: ops::select::propagated_props(cur.props, false),
                        may_dv: false,
                        ..cur
                    },
                    FuseStage::Map { args, .. } => {
                        let first = args.iter().find_map(|a| match a {
                            FuseArg::Chain => Some(cur),
                            FuseArg::Var(v) => sh(*v),
                            FuseArg::Const(_) => None,
                        })?;
                        Shape {
                            head: first.head,
                            tail: None,
                            props: Props::new(
                                ColProps {
                                    sorted: first.props.head.sorted,
                                    key: first.props.head.key,
                                    dense: false,
                                    ..ColProps::NONE
                                },
                                ColProps::NONE,
                            ),
                            may_dv: false,
                        }
                    }
                    // Terminal scalar aggregate: the fused variable is
                    // scalar-valued, like `AggrScalar`.
                    FuseStage::Aggr(_) => return None,
                };
            }
            cur
        }
    })
}
