//! Pretty-printing of MIL programs, in the style of the listings of
//! Figures 5 and 10: `items := join(Item_order, orders)`.

use std::fmt::Write as _;

use super::ast::{MilArg, MilOp, MilProgram, MilStmt};

/// Render one statement as `name := op(args)`.
pub fn render_stmt(prog: &MilProgram, stmt: &MilStmt) -> String {
    render_op(prog, stmt, &stmt.op)
}

/// Render `stmt` with `op` — its operation as one execution bound it — in
/// place of the operation the program holds.
pub(super) fn render_op(prog: &MilProgram, stmt: &MilStmt, op: &MilOp) -> String {
    let n = |v: usize| prog.name_of(v).to_string();
    let body = match op {
        MilOp::Load(name) => format!("load(\"{name}\")"),
        MilOp::ConstScalar(v) => format!("{v}"),
        MilOp::Mirror(v) => format!("{}.mirror", n(*v)),
        MilOp::SelectEq(v, val) => format!("select({}, {val})", n(*v)),
        MilOp::SelectRange { src, lo, hi, inc_lo, inc_hi } => {
            let lo = lo.as_ref().map_or("-inf".to_string(), |v| v.to_string());
            let hi = hi.as_ref().map_or("+inf".to_string(), |v| v.to_string());
            let lb = if *inc_lo { '[' } else { '(' };
            let rb = if *inc_hi { ']' } else { ')' };
            format!("select({}, {lb}{lo}, {hi}{rb})", n(*src))
        }
        MilOp::Join(a, b) => format!("join({}, {})", n(*a), n(*b)),
        MilOp::Semijoin(a, b) => format!("semijoin({}, {})", n(*a), n(*b)),
        MilOp::Antijoin(a, b) => format!("antijoin({}, {})", n(*a), n(*b)),
        MilOp::Unique(v) => format!("{}.unique", n(*v)),
        MilOp::Group1(v) => format!("group({})", n(*v)),
        MilOp::Group2(a, b) => format!("group({}, {})", n(*a), n(*b)),
        MilOp::Multiplex { f, args } => {
            let mut s = format!("[{}](", f.mil_name());
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                match a {
                    MilArg::Var(v) => s.push_str(&n(*v)),
                    MilArg::Const(c) => {
                        let _ = write!(s, "{c}");
                    }
                }
            }
            s.push(')');
            s
        }
        MilOp::SetAgg { f, src } => format!("{{{}}}({})", f.name(), n(*src)),
        MilOp::AggrScalar { f, src } => format!("{}({})", f.name(), n(*src)),
        MilOp::Union(a, b) => format!("union({}, {})", n(*a), n(*b)),
        MilOp::Diff(a, b) => format!("diff({}, {})", n(*a), n(*b)),
        MilOp::Intersect(a, b) => format!("intersect({}, {})", n(*a), n(*b)),
        MilOp::Concat(a, b) => format!("concat({}, {})", n(*a), n(*b)),
        MilOp::Zip(a, b) => format!("zip({}, {})", n(*a), n(*b)),
        MilOp::SortTail(v) => format!("sort({})", n(*v)),
        MilOp::SortHead(v) => format!("sort_head({})", n(*v)),
        MilOp::TopN { src, n: k, desc } => {
            format!("topn({}, {k}, {})", n(*src), if *desc { "desc" } else { "asc" })
        }
        MilOp::Mark(v) => format!("mark({})", n(*v)),
        MilOp::Fused => "fused()".to_string(),
    };
    format!("{} := {body}", stmt.name)
}

/// Render the whole program, one statement per line.
pub fn render_program(prog: &MilProgram) -> String {
    let mut out = String::new();
    for stmt in &prog.stmts {
        out.push_str(&render_stmt(prog, stmt));
        out.push('\n');
    }
    out
}

impl std::fmt::Display for MilProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&render_program(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomValue;
    use crate::ops::{AggFunc, ScalarFunc};

    #[test]
    fn renders_like_figure10() {
        let mut p = MilProgram::new();
        let clerk = p.emit("Order_clerk", MilOp::Load("Order_clerk".into()));
        let orders = p.emit("orders", MilOp::SelectEq(clerk, AtomValue::str("Clerk#000000088")));
        let io = p.emit("Item_order", MilOp::Load("Item_order".into()));
        let items = p.emit("items", MilOp::Join(io, orders));
        let disc = p.emit("discount", MilOp::Mirror(items));
        let factor = p.emit(
            "factor",
            MilOp::Multiplex {
                f: ScalarFunc::Sub,
                args: vec![MilArg::Const(AtomValue::Dbl(1.0)), MilArg::Var(disc)],
            },
        );
        let _loss = p.emit("LOSS", MilOp::SetAgg { f: AggFunc::Sum, src: factor });
        let text = render_program(&p);
        assert!(text.contains("orders := select(Order_clerk, \"Clerk#000000088\")"));
        assert!(text.contains("items := join(Item_order, orders)"));
        assert!(text.contains("factor := [-](1, discount)"));
        assert!(text.contains("LOSS := {sum}(factor)"));
    }
}
