//! Static shape inference: propagate descriptor properties
//! ([`ColProps`]) through a MIL program at *plan* time.
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
//! so no rewrite decision rests on a fact that fails at run time.
//!
//! `may_dv` tracks whether a variable can carry a **datavector**
//! accelerator at run time: datavectors ride on persistent BATs and
//! survive only the clone-returning paths (`semijoin`'s `sync`, `sort`'s
//! no-op, `unique`'s no-op); a mirror or any materializing kernel drops
//! them. The flag matters because the datavector semijoin emits in
//! *right-operand* order while every other semijoin emits in left order —
//! rewrites that could flip that choice are fenced on `may_dv`.

use crate::db::Db;
use crate::ops;
use crate::props::{ColProps, Props};

use super::super::ast::{MilArg, MilOp, MilProgram, Var};

/// Statically known facts about one BAT-valued variable.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Properties guaranteed to hold on the computed result (a sound
    /// under-approximation of the run-time descriptor).
    pub props: Props,
    /// Whether the value may carry a datavector accelerator.
    pub may_dv: bool,
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
            Shape { props: bat.props(), may_dv: bat.accel().datavector.is_some() }
        }
        MilOp::ConstScalar(_) | MilOp::AggrScalar { .. } => return None,
        MilOp::Mirror(v) => {
            let s = sh(*v)?;
            // mirror swaps the column roles and drops the datavector (it
            // accelerates only the normal orientation).
            Shape { props: s.props.mirrored(), may_dv: false }
        }
        MilOp::SelectEq(v, _) => {
            let s = sh(*v)?;
            Shape { props: ops::select::propagated_props(s.props, true), may_dv: false }
        }
        MilOp::SelectRange { src, .. } => {
            let s = sh(*src)?;
            Shape { props: ops::select::propagated_props(s.props, false), may_dv: false }
        }
        MilOp::Join(a, b) => {
            let (sa, sb) = (sh(*a)?, sh(*b)?);
            Shape { props: ops::join::propagated_props(sa.props, sb.props), may_dv: false }
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
            Shape { props, may_dv: sa.may_dv }
        }
        MilOp::Antijoin(a, _) => {
            let sa = sh(*a)?;
            // Both variants (empty sync slice, hash subset) emit a subset
            // of the left operand in left order, without accelerators.
            Shape { props: ops::semijoin::propagated_props(sa.props), may_dv: false }
        }
        MilOp::Unique(v) => {
            let s = sh(*v)?;
            if s.props.head.key || s.props.tail.key {
                // Provably duplicate-free: the kernel no-ops with a clone.
                s
            } else {
                Shape { props: ops::semijoin::propagated_props(s.props), may_dv: false }
            }
        }
        MilOp::Group1(v) => {
            let s = sh(*v)?;
            Shape {
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
            Shape { props: Props::new(sa.props.head, ColProps::NONE), may_dv: false }
        }
        MilOp::Multiplex { args, .. } => {
            // The kernel's result rides on the first BAT argument's head;
            // the aligned path weakens density away, so claim that form.
            let first = args.iter().find_map(|a| match a {
                MilArg::Var(v) => sh(*v),
                MilArg::Const(_) => None,
            })?;
            Shape {
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
            // Both operands must be known BATs; the result claims nothing.
            sh(*a).and(sh(*b))?;
            Shape { props: Props::NONE, may_dv: false }
        }
        MilOp::Diff(a, _) | MilOp::Intersect(a, _) => {
            let sa = sh(*a)?;
            Shape { props: ops::semijoin::propagated_props(sa.props), may_dv: false }
        }
        MilOp::Zip(a, b) => {
            let (sa, sb) = (sh(*a)?, sh(*b)?);
            Shape { props: Props::new(sa.props.tail, sb.props.tail), may_dv: false }
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
            Shape { props, may_dv: false }
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
            }
        }
        MilOp::Mark(v) => {
            let s = sh(*v)?;
            Shape { props: Props::new(s.props.head, ColProps::DENSE), may_dv: false }
        }
        MilOp::Fused => return None,
    })
}
