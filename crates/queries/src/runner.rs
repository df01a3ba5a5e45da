//! Execution helpers: run MOA plans on the kernel, flatten structured
//! results to rows, compare row sets.

use moa::catalog::Catalog;
use moa::error::{MoaError, Result};
use moa::prelude::{ProjItem, Scalar, SetExpr};
use moa::translate::{translate_in, StructSpec};
use moa::value::Value;
use monet::atom::AtomValue;
use monet::ctx::ExecCtx;
use monet::ops::AggFunc;

/// A query result: bag of rows of atoms.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult(pub Vec<Vec<AtomValue>>);

impl QueryResult {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sort rows canonically (for order-insensitive comparison).
    pub fn sorted(mut self) -> QueryResult {
        self.0.sort_by(|a, b| cmp_rows(a, b));
        self
    }

    /// Order-insensitive comparison with relative float tolerance.
    ///
    /// Rows are paired through sorted index vectors — the rows themselves
    /// are never cloned. When the positional pairing after a full-order
    /// sort fails, the failure may be an artifact of the sort itself: two
    /// rows whose float cells differ only within `eps` can land at
    /// different positions on each side. The fallback re-pairs rows
    /// tolerance-aware — grouped by their non-float cells, floats matched
    /// greedily within each group — so comparison never depends on how
    /// eps-close floats happened to order.
    pub fn approx_eq(&self, other: &QueryResult, eps: f64) -> bool {
        if self.0.len() != other.0.len() {
            return false;
        }
        let mut ia: Vec<usize> = (0..self.0.len()).collect();
        let mut ib: Vec<usize> = (0..other.0.len()).collect();
        ia.sort_by(|&x, &y| cmp_rows(&self.0[x], &self.0[y]));
        ib.sort_by(|&x, &y| cmp_rows(&other.0[x], &other.0[y]));
        if ia.iter().zip(&ib).all(|(&x, &y)| row_approx_eq(&self.0[x], &other.0[y], eps)) {
            return true;
        }
        let mut groups: std::collections::HashMap<String, (Vec<usize>, Vec<usize>)> =
            std::collections::HashMap::new();
        for (i, row) in self.0.iter().enumerate() {
            groups.entry(non_float_key(row)).or_default().0.push(i);
        }
        for (i, row) in other.0.iter().enumerate() {
            groups.entry(non_float_key(row)).or_default().1.push(i);
        }
        groups.values().all(|(ga, gb)| {
            if ga.len() != gb.len() {
                return false;
            }
            let mut used = vec![false; gb.len()];
            ga.iter().all(|&x| {
                let found = gb
                    .iter()
                    .enumerate()
                    .find(|&(j, &y)| !used[j] && row_approx_eq(&self.0[x], &other.0[y], eps));
                match found {
                    Some((j, _)) => {
                        used[j] = true;
                        true
                    }
                    None => false,
                }
            })
        })
    }

    /// Render the first rows as a small text table.
    pub fn preview(&self, limit: usize) -> String {
        let mut s = String::new();
        for row in self.0.iter().take(limit) {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            s.push_str(&cells.join(" | "));
            s.push('\n');
        }
        if self.0.len() > limit {
            s.push_str(&format!("... {} more rows\n", self.0.len() - limit));
        }
        s
    }
}

fn cmp_atoms(a: &AtomValue, b: &AtomValue) -> std::cmp::Ordering {
    if a.atom_type() == b.atom_type() {
        a.cmp_same_type(b)
    } else {
        format!("{:?}", a.atom_type()).cmp(&format!("{:?}", b.atom_type()))
    }
}

fn cmp_rows(a: &[AtomValue], b: &[AtomValue]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let o = cmp_atoms(x, y);
        if o != std::cmp::Ordering::Equal {
            return o;
        }
    }
    a.len().cmp(&b.len())
}

fn atom_approx_eq(a: &AtomValue, b: &AtomValue, eps: f64) -> bool {
    match (a, b) {
        // Same relative tolerance as `Value::approx_eq`.
        (AtomValue::Dbl(x), AtomValue::Dbl(y)) => {
            (x - y).abs() <= eps * (1.0 + x.abs().max(y.abs()))
        }
        _ => a == b,
    }
}

fn row_approx_eq(a: &[AtomValue], b: &[AtomValue], eps: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| atom_approx_eq(x, y, eps))
}

/// Grouping key for tolerance-aware pairing: the row with every float
/// cell erased (position-preserving), so two rows that can only differ
/// by float noise land in the same group.
fn non_float_key(row: &[AtomValue]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for (i, v) in row.iter().enumerate() {
        match v {
            AtomValue::Dbl(_) => {
                let _ = write!(s, "{i}:f|");
            }
            other => {
                let _ = write!(s, "{i}:{other:?}|");
            }
        }
    }
    s
}

fn value_to_row(v: Value) -> Result<Vec<AtomValue>> {
    match v {
        Value::Tuple(fields) => fields
            .into_iter()
            .map(|f| match f {
                Value::Atom(a) => Ok(a),
                Value::Ref(o) => Ok(AtomValue::Oid(o)),
                other => {
                    Err(MoaError::Type(format!("cannot flatten nested value {other} into a row")))
                }
            })
            .collect(),
        Value::Atom(a) => Ok(vec![a]),
        Value::Ref(o) => Ok(vec![AtomValue::Oid(o)]),
        other => Err(MoaError::Type(format!("cannot flatten {other} into a row"))),
    }
}

/// Translate + execute a MOA set expression under the context's
/// configuration and flatten the structured result into rows.
pub fn run_moa_rows(cat: &Catalog, ctx: &ExecCtx, q: &SetExpr) -> Result<QueryResult> {
    let t = translate_in(cat, q, ctx.config())?;
    let (set, _env) = t.run(ctx, cat.db())?;
    let vals = set.materialize()?;
    let rows: Result<Vec<Vec<AtomValue>>> = vals.into_iter().map(value_to_row).collect();
    Ok(QueryResult(rows?))
}

/// Translate and execute `q`, a projection of one atomic item
/// (`project[<v : item>](input)`, see [`scalar_input`]), then reduce the
/// projected value BAT with the whole-BAT scalar aggregate kernel — one
/// bulk operator call, not a per-row loop in the driver. The plan is the
/// shared cached one, so nothing is appended to it.
pub fn run_moa_scalar(cat: &Catalog, ctx: &ExecCtx, q: &SetExpr, f: AggFunc) -> Result<AtomValue> {
    let t = translate_in(cat, q, ctx.config())?;
    let StructSpec::Tuple(fields) = &*t.spec else {
        return Err(MoaError::Type("scalar aggregate needs a projected input".into()));
    };
    let (StructSpec::Atom(var) | StructSpec::Ref { bat: var, .. }) = &fields[0].1 else {
        return Err(MoaError::Type("scalar aggregate needs an atomic item".into()));
    };
    let env = monet::mil::execute(ctx, cat.db(), &t.prog, &t.keep)?;
    Ok(monet::ops::aggr_scalar(ctx, env.bat(*var)?, f)?)
}

/// `project[<v : item>](input)`: the program [`run_moa_scalar`] runs.
pub fn scalar_input(input: SetExpr, item: Scalar) -> SetExpr {
    input.project(vec![ProjItem::new("v", item)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa::prelude::*;
    use moa::testkit::mini_catalog;

    #[test]
    fn rows_roundtrip() {
        let cat = mini_catalog();
        let ctx = ExecCtx::new();
        let q = SetExpr::extent("Item").project(vec![
            ProjItem::new("o", attr("order")),
            ProjItem::new("p", attr("extendedprice")),
        ]);
        let rows = run_moa_rows(&cat, &ctx, &q).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows.0[0].len(), 2);
    }

    #[test]
    fn scalar_aggregate_in_mil() {
        let cat = mini_catalog();
        let ctx = ExecCtx::new();
        let total = run_moa_scalar(
            &cat,
            &ctx,
            &scalar_input(SetExpr::extent("Item"), attr("extendedprice")),
            AggFunc::Sum,
        )
        .unwrap();
        assert_eq!(total, AtomValue::Dbl(1000.0));
        let count = run_moa_scalar(
            &cat,
            &ctx,
            &scalar_input(
                SetExpr::extent("Item").select(eq(attr("returnflag"), lit_c('R'))),
                attr("extendedprice"),
            ),
            AggFunc::Count,
        )
        .unwrap();
        assert_eq!(count, AtomValue::Lng(3));
    }

    #[test]
    fn result_comparison() {
        let a = QueryResult(vec![
            vec![AtomValue::Int(1), AtomValue::Dbl(2.0)],
            vec![AtomValue::Int(2), AtomValue::Dbl(3.0)],
        ]);
        let b = QueryResult(vec![
            vec![AtomValue::Int(2), AtomValue::Dbl(3.0 + 1e-12)],
            vec![AtomValue::Int(1), AtomValue::Dbl(2.0)],
        ]);
        assert!(a.approx_eq(&b, 1e-9));
        let c = QueryResult(vec![vec![AtomValue::Int(1), AtomValue::Dbl(2.0)]]);
        assert!(!a.approx_eq(&c, 1e-9));
        assert!(!a.preview(1).is_empty());
    }

    #[test]
    fn approx_eq_pairs_eps_close_floats_by_nonfloat_columns() {
        // The leading float cells differ only within eps, so the two rows
        // sort to opposite positions on each side; positional pairing after
        // the sort would compare Int(1) against Int(2). The tolerance-aware
        // fallback must re-pair them by the non-float column.
        let a = QueryResult(vec![
            vec![AtomValue::Dbl(1.0), AtomValue::Int(1)],
            vec![AtomValue::Dbl(1.0 + 1e-12), AtomValue::Int(2)],
        ]);
        let b = QueryResult(vec![
            vec![AtomValue::Dbl(1.0), AtomValue::Int(2)],
            vec![AtomValue::Dbl(1.0 + 1e-12), AtomValue::Int(1)],
        ]);
        assert!(a.approx_eq(&b, 1e-9));
        assert!(b.approx_eq(&a, 1e-9));
        // A genuinely different float is still a mismatch.
        let c = QueryResult(vec![
            vec![AtomValue::Dbl(1.0), AtomValue::Int(1)],
            vec![AtomValue::Dbl(2.0), AtomValue::Int(2)],
        ]);
        assert!(!a.approx_eq(&c, 1e-9));
    }
}
