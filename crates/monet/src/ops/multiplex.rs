//! The multiplex constructor `[f]` (Figure 4): bulk application of any
//! scalar operation on all tail values of a BAT.
//!
//! `[f](AB, …, XY) = {a·f(b,…,y) | ab ∈ AB, …, xy ∈ XY ∧ a = … = x}` —
//! multiple BAT parameters combine over the natural join on head values.
//! This vectorizes expression computation and method invocation: the
//! `(1-discount)*extendedprice` of Q13 becomes successive `[-]` and `[*]`
//! multiplexes (Figure 5). Constant arguments broadcast, as in
//! `[-](1.0, discount)`.
//!
//! When all BAT arguments are synced the kernel uses the positional fast
//! path ("the two multiplex operations can be executed very efficiently,
//! since the kernel knows that the BATs are synced" — Section 6.2.1). The
//! synced numeric/date/bool/string shapes used by the TPC-D plans (Q1-Q15)
//! run as monomorphized slice loops — e.g. both halves of the
//! `(1-discount)*extendedprice` revenue expression compile to straight-line
//! `f64` kernels, and every same-type comparison goes through the typed
//! dispatch; only mixed-type comparisons, ill-typed calls and unsynced
//! argument shapes fall back to the generic row-at-a-time `AtomValue`
//! path, and a synced multiplex that does records `sync-rowwise`.

use crate::atom::{AtomType, AtomValue};
use crate::bat::Bat;
use crate::column::Column;
use crate::ctx::ExecCtx;
use crate::error::{MonetError, Result};
use crate::pager;
use crate::props::{ColProps, Props};

/// A scalar function liftable over BATs with `[f]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    Add,
    Sub,
    Mul,
    Div,
    /// Extract the calendar year of a date.
    Year,
    /// Extract the month (1-12) of a date.
    Month,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Not,
    /// `starts_with(string, prefix)`.
    StrPrefix,
    /// `contains(string, needle)`.
    StrContains,
    /// Arithmetic negation.
    Neg,
}

impl ScalarFunc {
    /// MIL spelling, for pretty-printing programs (`[*]`, `[year]`, ...).
    pub fn mil_name(self) -> &'static str {
        match self {
            ScalarFunc::Add => "+",
            ScalarFunc::Sub => "-",
            ScalarFunc::Mul => "*",
            ScalarFunc::Div => "/",
            ScalarFunc::Year => "year",
            ScalarFunc::Month => "month",
            ScalarFunc::Eq => "=",
            ScalarFunc::Ne => "!=",
            ScalarFunc::Lt => "<",
            ScalarFunc::Le => "<=",
            ScalarFunc::Gt => ">",
            ScalarFunc::Ge => ">=",
            ScalarFunc::And => "and",
            ScalarFunc::Or => "or",
            ScalarFunc::Not => "not",
            ScalarFunc::StrPrefix => "str_prefix",
            ScalarFunc::StrContains => "str_contains",
            ScalarFunc::Neg => "neg",
        }
    }

    /// Number of arguments this function expects.
    pub fn arity(self) -> usize {
        match self {
            ScalarFunc::Not | ScalarFunc::Neg | ScalarFunc::Year | ScalarFunc::Month => 1,
            _ => 2,
        }
    }
}

/// One argument of a multiplex: a BAT (per-object values) or a broadcast
/// constant.
#[derive(Debug, Clone)]
pub enum MultArg {
    Bat(Bat),
    Const(AtomValue),
}

/// Apply a scalar function to concrete values — the single-value semantics
/// that `[f]` lifts. Also used by the MOA reference evaluator, so the
/// commutativity check of Figure 6 exercises one shared definition.
pub fn apply_scalar(f: ScalarFunc, args: &[AtomValue]) -> Result<AtomValue> {
    use AtomValue as V;
    if args.len() != f.arity() {
        return Err(MonetError::Malformed {
            op: "multiplex",
            detail: format!("{} expects {} args, got {}", f.mil_name(), f.arity(), args.len()),
        });
    }
    let numeric_pair = |a: &V, b: &V| -> Option<(f64, f64)> { Some((a.as_f64()?, b.as_f64()?)) };
    match f {
        ScalarFunc::Add | ScalarFunc::Sub | ScalarFunc::Mul | ScalarFunc::Div => {
            let (a, b) = (&args[0], &args[1]);
            match (a, b) {
                (V::Int(x), V::Int(y)) => Ok(match f {
                    ScalarFunc::Add => V::Int(x.wrapping_add(*y)),
                    ScalarFunc::Sub => V::Int(x.wrapping_sub(*y)),
                    ScalarFunc::Mul => V::Int(x.wrapping_mul(*y)),
                    ScalarFunc::Div => {
                        if *y == 0 {
                            return Err(MonetError::Arithmetic("division by zero"));
                        }
                        V::Int(x.wrapping_div(*y))
                    }
                    _ => unreachable!(),
                }),
                (V::Lng(x), V::Lng(y)) => Ok(match f {
                    ScalarFunc::Add => V::Lng(x.wrapping_add(*y)),
                    ScalarFunc::Sub => V::Lng(x.wrapping_sub(*y)),
                    ScalarFunc::Mul => V::Lng(x.wrapping_mul(*y)),
                    ScalarFunc::Div => {
                        if *y == 0 {
                            return Err(MonetError::Arithmetic("division by zero"));
                        }
                        V::Lng(x.wrapping_div(*y))
                    }
                    _ => unreachable!(),
                }),
                _ => {
                    let (x, y) = numeric_pair(a, b)
                        .ok_or(MonetError::Unsupported { op: "arith", ty: a.atom_type() })?;
                    Ok(V::Dbl(match f {
                        ScalarFunc::Add => x + y,
                        ScalarFunc::Sub => x - y,
                        ScalarFunc::Mul => x * y,
                        ScalarFunc::Div => x / y,
                        _ => unreachable!(),
                    }))
                }
            }
        }
        ScalarFunc::Neg => match &args[0] {
            V::Int(x) => Ok(V::Int(-x)),
            V::Lng(x) => Ok(V::Lng(-x)),
            V::Dbl(x) => Ok(V::Dbl(-x)),
            other => Err(MonetError::Unsupported { op: "neg", ty: other.atom_type() }),
        },
        ScalarFunc::Year => match &args[0] {
            V::Date(d) => Ok(V::Int(d.year())),
            other => Err(MonetError::Unsupported { op: "year", ty: other.atom_type() }),
        },
        ScalarFunc::Month => match &args[0] {
            V::Date(d) => Ok(V::Int(d.month() as i32)),
            other => Err(MonetError::Unsupported { op: "month", ty: other.atom_type() }),
        },
        ScalarFunc::Eq
        | ScalarFunc::Ne
        | ScalarFunc::Lt
        | ScalarFunc::Le
        | ScalarFunc::Gt
        | ScalarFunc::Ge => {
            let (a, b) = (&args[0], &args[1]);
            let ord = if a.atom_type() == b.atom_type() {
                a.cmp_same_type(b)
            } else if let Some((x, y)) = numeric_pair(a, b) {
                x.total_cmp(&y)
            } else {
                return Err(MonetError::IncompatibleColumns {
                    op: "compare",
                    left: a.atom_type(),
                    right: b.atom_type(),
                });
            };
            Ok(V::Bool(match f {
                ScalarFunc::Eq => ord.is_eq(),
                ScalarFunc::Ne => !ord.is_eq(),
                ScalarFunc::Lt => ord.is_lt(),
                ScalarFunc::Le => ord.is_le(),
                ScalarFunc::Gt => ord.is_gt(),
                ScalarFunc::Ge => ord.is_ge(),
                _ => unreachable!(),
            }))
        }
        ScalarFunc::And | ScalarFunc::Or => match (&args[0], &args[1]) {
            (V::Bool(x), V::Bool(y)) => {
                Ok(V::Bool(if f == ScalarFunc::And { *x && *y } else { *x || *y }))
            }
            (a, _) => Err(MonetError::Unsupported { op: "bool", ty: a.atom_type() }),
        },
        ScalarFunc::Not => match &args[0] {
            V::Bool(x) => Ok(V::Bool(!x)),
            other => Err(MonetError::Unsupported { op: "not", ty: other.atom_type() }),
        },
        ScalarFunc::StrPrefix | ScalarFunc::StrContains => match (&args[0], &args[1]) {
            (V::Str(s), V::Str(p)) => Ok(V::Bool(if f == ScalarFunc::StrPrefix {
                s.starts_with(&**p)
            } else {
                s.contains(&**p)
            })),
            (a, _) => Err(MonetError::Unsupported { op: "str", ty: a.atom_type() }),
        },
    }
}

/// The multiplex operator `[f](arg, ...)`.
pub fn multiplex(ctx: &ExecCtx, f: ScalarFunc, args: &[MultArg]) -> Result<Bat> {
    ctx.probe("op/multiplex")?;
    let bats: Vec<&Bat> = args
        .iter()
        .filter_map(|a| match a {
            MultArg::Bat(b) => Some(b),
            MultArg::Const(_) => None,
        })
        .collect();
    if bats.is_empty() {
        return Err(MonetError::Malformed {
            op: "multiplex",
            detail: "at least one BAT argument required".into(),
        });
    }
    if let Some(p) = ctx.pager.as_deref() {
        for b in &bats {
            pager::touch_scan(p, b.tail());
        }
    }
    let first = bats[0];
    let all_synced = bats.iter().all(|b| first.synced(b));
    let (result, algo) = if all_synced {
        mux_synced(ctx, f, first, args)?
    } else {
        (mux_aligned(ctx, f, first, args)?, "hash-align")
    };
    ctx.record("multiplex", algo, &bats, &result)?;
    Ok(result)
}

/// One map-window argument: a tail column window (owned, cheaply
/// `Arc`-cloned) or a broadcast constant.
#[derive(Clone)]
enum TailArg {
    Col(Column),
    Const(AtomValue),
}

/// Positional fast path: all BAT args share the first BAT's head, so every
/// morsel ([`super::for_each_morsel`]) runs [`eval_tail_window`] over the
/// same window of each argument, and the output windows are concatenated
/// in morsel order.
fn mux_synced(
    ctx: &ExecCtx,
    f: ScalarFunc,
    first: &Bat,
    args: &[MultArg],
) -> Result<(Bat, &'static str)> {
    let n = first.len();
    let parts = super::for_each_morsel(ctx, n, |r| {
        let w: Vec<TailArg> = args
            .iter()
            .map(|a| match a {
                MultArg::Bat(b) => TailArg::Col(super::window_of(b.tail(), r.start, r.len())),
                MultArg::Const(v) => TailArg::Const(v.clone()),
            })
            .collect();
        eval_tail_window(f, &w, r.len())
    })?;
    // Surface the first error in morsel order (the earliest failing row's
    // morsel).
    let parts: Vec<(Column, bool)> = parts.into_iter().collect::<Result<_>>()?;
    let rowwise = parts.iter().any(|(_, by_row)| *by_row);
    // Empty windows are dropped before concatenation: a zero-row window
    // types its output by static hint, which can disagree with the
    // value-derived type of non-empty windows. When *all* windows are empty
    // the first one's hint-typed column stands.
    let mut windows: Vec<Column> = parts.into_iter().map(|(w, _)| w).collect();
    if windows.iter().any(|w| !w.is_empty()) {
        windows.retain(|w| !w.is_empty());
    } else {
        windows.truncate(1);
    }
    let bat = Bat::with_props(
        first.head().clone(),
        Column::concat_all(&windows),
        Props::new(first.props().head, ColProps::NONE),
    );
    Ok((bat, if rowwise { "sync-rowwise" } else { "sync" }))
}

/// General path: natural join on heads. Every non-driver BAT must have a
/// key head; driver BUNs with no counterpart in some argument are dropped
/// (inner-join semantics).
fn mux_aligned(_ctx: &ExecCtx, f: ScalarFunc, first: &Bat, args: &[MultArg]) -> Result<Bat> {
    // Build a lookup per non-first BAT argument.
    struct Aligned {
        index: crate::accel::hash::HashIndex,
    }
    let mut lookups: Vec<Option<Aligned>> = Vec::with_capacity(args.len());
    for a in args {
        match a {
            MultArg::Bat(b) if !first.synced(b) => lookups
                .push(Some(Aligned { index: crate::accel::hash::HashIndex::build(b.head()) })),
            _ => lookups.push(None),
        }
    }
    let mut keep: Vec<u32> = Vec::with_capacity(first.len());
    let mut out: Vec<AtomValue> = Vec::with_capacity(first.len());
    let mut scratch: Vec<AtomValue> = Vec::with_capacity(args.len());
    let fh = first.head();
    'row: for i in 0..first.len() {
        scratch.clear();
        for (a, l) in args.iter().zip(&lookups) {
            match (a, l) {
                (MultArg::Const(v), _) => scratch.push(v.clone()),
                (MultArg::Bat(b), None) => scratch.push(b.tail().get(i)),
                (MultArg::Bat(b), Some(al)) => {
                    let h = fh.hash_at(i);
                    match al.index.candidates(h).find(|&p| b.head().eq_at(p, fh, i)) {
                        Some(p) => scratch.push(b.tail().get(p)),
                        None => continue 'row,
                    }
                }
            }
        }
        keep.push(i as u32);
        out.push(apply_scalar(f, &scratch)?);
    }
    let ty = out
        .first()
        .map(AtomValue::atom_type)
        .unwrap_or_else(|| result_type_hint(f, args.first().map(MultArg::atom_type)));
    let head = fh.gather(&keep);
    let p = first.props();
    Ok(Bat::with_props(
        head,
        Column::from_atoms(ty, out),
        Props::new(
            ColProps { sorted: p.head.sorted, key: p.head.key, dense: false, ..ColProps::NONE },
            ColProps::NONE,
        ),
    ))
}

/// Result type when the output is empty (so empty BATs still carry a
/// sensible column type), given the type of the first argument.
pub(crate) fn result_type_hint(f: ScalarFunc, first_arg: Option<AtomType>) -> AtomType {
    match f {
        ScalarFunc::Eq
        | ScalarFunc::Ne
        | ScalarFunc::Lt
        | ScalarFunc::Le
        | ScalarFunc::Gt
        | ScalarFunc::Ge
        | ScalarFunc::And
        | ScalarFunc::Or
        | ScalarFunc::Not
        | ScalarFunc::StrPrefix
        | ScalarFunc::StrContains => AtomType::Bool,
        ScalarFunc::Year | ScalarFunc::Month => AtomType::Int,
        _ => first_arg.unwrap_or(AtomType::Dbl),
    }
}

impl MultArg {
    pub(crate) fn atom_type(&self) -> AtomType {
        match self {
            MultArg::Bat(b) => b.tail().atom_type(),
            MultArg::Const(v) => v.atom_type(),
        }
    }
}

impl TailArg {
    fn atom_type(&self) -> AtomType {
        match self {
            TailArg::Col(c) => c.atom_type(),
            TailArg::Const(v) => v.atom_type(),
        }
    }

    /// The type [`apply_scalar`] sees this argument's values as: a `void`
    /// column reads as its oids.
    fn value_type(&self) -> AtomType {
        match self {
            TailArg::Col(c) if c.atom_type() == AtomType::Void => AtomType::Oid,
            _ => self.atom_type(),
        }
    }
}

/// The map window kernel — the only synced multiplex evaluation: one
/// window of every argument to the window's output tail, through the typed
/// fast path when the shape qualifies, otherwise the generic row-at-a-time
/// loop. The flag says the row loop ran (`rowwise`), which the callers put
/// into their trace label: a typed shape never takes it.
fn eval_tail_window(f: ScalarFunc, args: &[TailArg], n: usize) -> Result<(Column, bool)> {
    if let Some(col) = typed_fast_path(f, args, n)? {
        return Ok((col, false));
    }
    let mut out: Vec<AtomValue> = Vec::with_capacity(n);
    let mut scratch: Vec<AtomValue> = Vec::with_capacity(args.len());
    for i in 0..n {
        scratch.clear();
        for a in args {
            scratch.push(match a {
                TailArg::Col(c) => c.get(i),
                TailArg::Const(v) => v.clone(),
            });
        }
        out.push(apply_scalar(f, &scratch)?);
    }
    let ty = out
        .first()
        .map(AtomValue::atom_type)
        .unwrap_or_else(|| result_type_hint(f, args.first().map(TailArg::atom_type)));
    Ok((Column::from_atoms(ty, out), true))
}

/// One side of a specialized binary loop: a typed column window or a
/// broadcast constant. The `Src` trait monomorphizes the loop for every
/// shape — no per-row branch on window-vs-const.
trait Src<T: Copy>: Copy {
    fn at(&self, i: usize) -> T;
}

impl<V: crate::typed::TypedVals> Src<V::Elem> for V {
    #[inline(always)]
    fn at(&self, i: usize) -> V::Elem {
        self.value(i)
    }
}

/// Broadcast constant source.
#[derive(Clone, Copy)]
struct Cst<T: Copy>(T);

impl<T: Copy> Src<T> for Cst<T> {
    #[inline(always)]
    fn at(&self, _i: usize) -> T {
        self.0
    }
}

#[inline]
fn map2<T: Copy, R, A: Src<T>, B: Src<T>>(n: usize, a: A, b: B, f: impl Fn(T, T) -> R) -> Vec<R> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(f(a.at(i), b.at(i)));
    }
    out
}

/// Slice-or-constant view of one multiplex argument.
enum SC<'a, T: Copy> {
    S(&'a [T]),
    C(T),
}

/// Instantiate `$e` for the four slice/const shape combinations of a binary
/// argument pair — each arm binds monomorphic [`Src`] values.
macro_rules! with_src2 {
    ($a:expr, $b:expr, |$x:ident, $y:ident| $e:expr) => {
        match ($a, $b) {
            (SC::S($x), SC::S($y)) => $e,
            (SC::S($x), SC::C(c)) => {
                let $y = Cst(c);
                $e
            }
            (SC::C(c), SC::S($y)) => {
                let $x = Cst(c);
                $e
            }
            (SC::C(ca), SC::C(cb)) => {
                let $x = Cst(ca);
                let $y = Cst(cb);
                $e
            }
        }
    };
}

/// An integer window read as `dbl` (mixed-type arithmetic).
#[derive(Clone, Copy)]
struct Widen<'a, T>(&'a [T]);

impl Src<f64> for Widen<'_, i32> {
    #[inline(always)]
    fn at(&self, i: usize) -> f64 {
        self.0[i] as f64
    }
}

impl Src<f64> for Widen<'_, i64> {
    #[inline(always)]
    fn at(&self, i: usize) -> f64 {
        self.0[i] as f64
    }
}

/// Instantiate `$e` with `$x` bound to the `dbl` view of one numeric
/// argument (an int/lng/dbl window or constant); `None` for anything else.
macro_rules! with_f64_src {
    ($a:expr, |$x:ident| $e:expr) => {
        match $a {
            TailArg::Col(c) => {
                if let Some($x) = c.as_dbl_slice() {
                    $e
                } else if let Some(v) = c.as_int_slice() {
                    let $x = Widen(v);
                    $e
                } else if let Some(v) = c.as_lng_slice() {
                    let $x = Widen(v);
                    $e
                } else {
                    None
                }
            }
            TailArg::Const(v) => match v.as_f64() {
                Some(k) => {
                    let $x = Cst(k);
                    $e
                }
                None => None,
            },
        }
    };
}

fn int_sc(a: &TailArg) -> Option<SC<'_, i32>> {
    match a {
        TailArg::Col(c) => c.as_int_slice().map(SC::S),
        TailArg::Const(AtomValue::Int(v)) => Some(SC::C(*v)),
        _ => None,
    }
}

fn lng_sc(a: &TailArg) -> Option<SC<'_, i64>> {
    match a {
        TailArg::Col(c) => c.as_lng_slice().map(SC::S),
        TailArg::Const(AtomValue::Lng(v)) => Some(SC::C(*v)),
        _ => None,
    }
}

fn bool_sc(a: &TailArg) -> Option<SC<'_, bool>> {
    match a {
        TailArg::Col(c) => c.as_bool_slice().map(SC::S),
        TailArg::Const(AtomValue::Bool(v)) => Some(SC::C(*v)),
        _ => None,
    }
}

/// Boolean column from a monomorphic comparison loop.
fn cmp_col<T: Copy, A: Src<T>, B: Src<T>>(
    f: ScalarFunc,
    n: usize,
    a: A,
    b: B,
    cmp: impl Fn(T, T) -> std::cmp::Ordering,
) -> Column {
    use ScalarFunc as F;
    Column::from_bools(match f {
        F::Eq => map2(n, a, b, |x, y| cmp(x, y).is_eq()),
        F::Ne => map2(n, a, b, |x, y| !cmp(x, y).is_eq()),
        F::Lt => map2(n, a, b, |x, y| cmp(x, y).is_lt()),
        F::Le => map2(n, a, b, |x, y| cmp(x, y).is_le()),
        F::Gt => map2(n, a, b, |x, y| cmp(x, y).is_gt()),
        F::Ge => map2(n, a, b, |x, y| cmp(x, y).is_ge()),
        _ => unreachable!(),
    })
}

/// A comparison of two arguments of one type, through the typed dispatch:
/// every atom type and every encoded layout the dispatch macros know runs
/// as one monomorphic loop, so no comparable pair reaches the row loop. A
/// constant is a one-row column of its type; `const ⋄ col` runs as the
/// mirrored `col ⋄ const`. `None` for mixed types (numeric promotion and
/// the type error are the row loop's).
fn typed_compare(f: ScalarFunc, a: &TailArg, b: &TailArg, n: usize) -> Option<Column> {
    use crate::typed::TypedVals;
    use ScalarFunc as F;
    if a.value_type() != b.value_type() {
        return None;
    }
    let one = |v: &AtomValue| Column::from_atoms(v.atom_type(), [v.clone()]);
    match (a, b) {
        (TailArg::Col(x), TailArg::Col(y)) => Some(crate::for_each_typed2!(x, y, |p, q| {
            cmp_col(f, n, p, q, |u, v| p.cmp_one(u, v))
        })),
        (TailArg::Col(x), TailArg::Const(c)) => {
            let c = one(c);
            Some(crate::for_each_typed2!(x, &c, |p, q| {
                cmp_col(f, n, p, Cst(q.value(0)), |u, v| p.cmp_one(u, v))
            }))
        }
        (TailArg::Const(_), TailArg::Col(_)) => {
            let mirrored = match f {
                F::Lt => F::Gt,
                F::Le => F::Ge,
                F::Gt => F::Lt,
                F::Ge => F::Le,
                eq_ne => eq_ne,
            };
            typed_compare(mirrored, b, a, n)
        }
        (TailArg::Const(_), TailArg::Const(_)) => None,
    }
}

/// Monomorphized loops for the synced argument shapes the TPC-D plans use:
/// same-type numeric arithmetic, every same-type comparison
/// ([`typed_compare`]), boolean connectives, `not`/`neg`,
/// `year`/`month`, and constant-pattern string predicates. Returns
/// `Ok(None)` for every other shape — the generic row-wise path handles
/// those. Whether a shape qualifies depends only on the argument *types*,
/// so the decision is identical for every morsel window of an operand.
fn typed_fast_path(f: ScalarFunc, args: &[TailArg], n: usize) -> Result<Option<Column>> {
    use crate::typed::TypedSlice;
    use ScalarFunc as F;
    // FOR/RLE-encoded numeric arguments decode once up front (an `Arc` bump
    // after the first call — the decode is cached inside the column data)
    // so the slice fast paths below still qualify. Dictionary-encoded
    // strings keep their codes: the string predicates evaluate on the
    // dictionary directly. A window's encoding equals the full column's,
    // so this normalization — like every other shape decision here — is
    // identical for every morsel window of an operand.
    let needs_decode = |a: &TailArg| {
        matches!(a, TailArg::Col(c)
            if c.encoding() != crate::props::Enc::None && c.atom_type() != AtomType::Str)
    };
    let decoded: Vec<TailArg>;
    let args: &[TailArg] = if args.iter().any(needs_decode) {
        decoded = args
            .iter()
            .map(|a| match a {
                TailArg::Col(c) if needs_decode(a) => TailArg::Col(c.decoded()),
                other => other.clone(),
            })
            .collect();
        &decoded
    } else {
        args
    };
    match f {
        F::Add | F::Sub | F::Mul | F::Div => {
            if args.len() != 2 {
                return Ok(None);
            }
            if let (Some(a), Some(b)) = (int_sc(&args[0]), int_sc(&args[1])) {
                return with_src2!(a, b, |x, y| {
                    Ok(Some(Column::from_ints(match f {
                        F::Add => map2(n, x, y, |p, q| p.wrapping_add(q)),
                        F::Sub => map2(n, x, y, |p, q| p.wrapping_sub(q)),
                        F::Mul => map2(n, x, y, |p, q| p.wrapping_mul(q)),
                        F::Div => {
                            let mut out = Vec::with_capacity(n);
                            for i in 0..n {
                                let q = y.at(i);
                                if q == 0 {
                                    return Err(MonetError::Arithmetic("division by zero"));
                                }
                                out.push(x.at(i).wrapping_div(q));
                            }
                            out
                        }
                        _ => unreachable!(),
                    })))
                });
            }
            if let (Some(a), Some(b)) = (lng_sc(&args[0]), lng_sc(&args[1])) {
                return with_src2!(a, b, |x, y| {
                    Ok(Some(Column::from_lngs(match f {
                        F::Add => map2(n, x, y, |p, q| p.wrapping_add(q)),
                        F::Sub => map2(n, x, y, |p, q| p.wrapping_sub(q)),
                        F::Mul => map2(n, x, y, |p, q| p.wrapping_mul(q)),
                        F::Div => {
                            let mut out = Vec::with_capacity(n);
                            for i in 0..n {
                                let q = y.at(i);
                                if q == 0 {
                                    return Err(MonetError::Arithmetic("division by zero"));
                                }
                                out.push(x.at(i).wrapping_div(q));
                            }
                            out
                        }
                        _ => unreachable!(),
                    })))
                });
            }
            // Every other numeric pair computes in `dbl`, its integers
            // widened per row — `apply_scalar`'s promotion. No value types
            // an empty window, so the static hint does, as in the row loop.
            let dbls = with_f64_src!(&args[0], |x| with_f64_src!(&args[1], |y| {
                Some(match f {
                    F::Add => map2(n, x, y, |p, q| p + q),
                    F::Sub => map2(n, x, y, |p, q| p - q),
                    F::Mul => map2(n, x, y, |p, q| p * q),
                    F::Div => map2(n, x, y, |p, q| p / q),
                    _ => unreachable!(),
                })
            }));
            Ok(dbls.map(|v| match n {
                0 => Column::from_atoms(result_type_hint(f, Some(args[0].atom_type())), []),
                _ => Column::from_dbls(v),
            }))
        }
        F::Eq | F::Ne | F::Lt | F::Le | F::Gt | F::Ge => Ok(match args {
            [a, b] => typed_compare(f, a, b, n),
            _ => None,
        }),
        F::And | F::Or => {
            if args.len() != 2 {
                return Ok(None);
            }
            if let (Some(a), Some(b)) = (bool_sc(&args[0]), bool_sc(&args[1])) {
                return with_src2!(a, b, |x, y| {
                    Ok(Some(Column::from_bools(if f == F::And {
                        map2(n, x, y, |p, q| p && q)
                    } else {
                        map2(n, x, y, |p, q| p || q)
                    })))
                });
            }
            Ok(None)
        }
        // Unary functions: over-supplied arguments must fall through to the
        // generic path, which rejects them with the arity error.
        F::Not if args.len() == 1 => match bool_sc(&args[0]) {
            Some(SC::S(v)) => Ok(Some(Column::from_bools(v.iter().map(|&b| !b).collect()))),
            _ => Ok(None),
        },
        F::Not => Ok(None),
        F::Neg if args.len() == 1 => match &args[0] {
            TailArg::Col(b) => {
                if let Some(v) = b.as_int_slice() {
                    Ok(Some(Column::from_ints(v.iter().map(|&x| -x).collect())))
                } else if let Some(v) = b.as_lng_slice() {
                    Ok(Some(Column::from_lngs(v.iter().map(|&x| -x).collect())))
                } else if let Some(v) = b.as_dbl_slice() {
                    Ok(Some(Column::from_dbls(v.iter().map(|&x| -x).collect())))
                } else {
                    Ok(None)
                }
            }
            _ => Ok(None),
        },
        F::Neg => Ok(None),
        F::Year | F::Month if args.len() == 1 => match &args[0] {
            TailArg::Col(b) => match b.as_date_slice() {
                Some(v) if f == F::Year => Ok(Some(Column::from_ints(
                    v.iter().map(|&d| crate::atom::Date(d).year()).collect(),
                ))),
                Some(v) => Ok(Some(Column::from_ints(
                    v.iter().map(|&d| crate::atom::Date(d).month() as i32).collect(),
                ))),
                None => Ok(None),
            },
            _ => Ok(None),
        },
        F::Year | F::Month => Ok(None),
        F::StrPrefix | F::StrContains => {
            if args.len() != 2 {
                return Ok(None);
            }
            if let (TailArg::Col(b), TailArg::Const(AtomValue::Str(pat))) = (&args[0], &args[1]) {
                if let TypedSlice::Str(sv) = b.typed() {
                    use crate::typed::TypedVals;
                    let mut out = Vec::with_capacity(n);
                    for i in 0..n {
                        let s = sv.value(i);
                        out.push(if f == F::StrPrefix {
                            s.starts_with(&**pat)
                        } else {
                            s.contains(&**pat)
                        });
                    }
                    return Ok(Some(Column::from_bools(out)));
                }
                if let TypedSlice::DictStr(dv) = b.typed() {
                    // Evaluate the predicate once per *dictionary entry*,
                    // then broadcast through the codes — the win scales
                    // with the duplication the dictionary removed.
                    use crate::typed::TypedVals;
                    let dict = dv.dict();
                    let hit: Vec<bool> = (0..dict.len())
                        .map(|c| {
                            let s = dict.value(c);
                            if f == F::StrPrefix {
                                s.starts_with(&**pat)
                            } else {
                                s.contains(&**pat)
                            }
                        })
                        .collect();
                    return Ok(Some(Column::from_bools(
                        (0..dv.codes().len()).map(|i| hit[dv.code_at(i)]).collect(),
                    )));
                }
            }
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Date;

    fn synced_pair() -> (Bat, Bat) {
        let head = Column::from_oids(vec![1, 2, 3]);
        let price = Bat::new(head.clone(), Column::from_dbls(vec![100.0, 200.0, 300.0]));
        let disc = Bat::new(head, Column::from_dbls(vec![0.1, 0.2, 0.3]));
        (price, disc)
    }

    #[test]
    fn q13_revenue_expression() {
        // [*](price, [-](1.0, discount))
        let ctx = ExecCtx::new();
        let (price, disc) = synced_pair();
        let factor = multiplex(
            &ctx,
            ScalarFunc::Sub,
            &[MultArg::Const(AtomValue::Dbl(1.0)), MultArg::Bat(disc)],
        )
        .unwrap();
        assert_eq!(ctx.take_algo(), "sync");
        let revenue = multiplex(
            &ctx,
            ScalarFunc::Mul,
            &[MultArg::Bat(price.clone()), MultArg::Bat(factor.clone())],
        )
        .unwrap();
        assert_eq!(ctx.take_algo(), "sync");
        assert!(factor.synced(&price));
        assert!(revenue.synced(&price));
        let r = revenue.tail().as_dbl_slice().unwrap();
        assert!((r[0] - 90.0).abs() < 1e-9);
        assert!((r[1] - 160.0).abs() < 1e-9);
        assert!((r[2] - 210.0).abs() < 1e-9);
    }

    #[test]
    fn year_multiplex() {
        let ctx = ExecCtx::new();
        let dates = Bat::new(
            Column::from_oids(vec![1, 2]),
            Column::from_dates(vec![Date::from_ymd(1994, 3, 1), Date::from_ymd(1996, 7, 4)]),
        );
        let years = multiplex(&ctx, ScalarFunc::Year, &[MultArg::Bat(dates)]).unwrap();
        assert_eq!(years.tail().as_int_slice().unwrap(), &[1994, 1996]);
    }

    #[test]
    fn unsynced_aligns_by_head() {
        let ctx = ExecCtx::new();
        let a = Bat::new(Column::from_oids(vec![1, 2, 3]), Column::from_ints(vec![10, 20, 30]));
        let b = Bat::new(Column::from_oids(vec![3, 1, 2]), Column::from_ints(vec![3, 1, 2]));
        let r = multiplex(&ctx, ScalarFunc::Add, &[MultArg::Bat(a), MultArg::Bat(b)]).unwrap();
        assert_eq!(ctx.take_algo(), "hash-align");
        assert_eq!(r.tail().as_int_slice().unwrap(), &[11, 22, 33]);
    }

    #[test]
    fn alignment_drops_missing_heads() {
        let ctx = ExecCtx::new();
        let a = Bat::new(Column::from_oids(vec![1, 2, 3]), Column::from_ints(vec![10, 20, 30]));
        let b = Bat::new(Column::from_oids(vec![3]), Column::from_ints(vec![3]));
        let r = multiplex(&ctx, ScalarFunc::Add, &[MultArg::Bat(a), MultArg::Bat(b)]).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.head().oid_at(0), 3);
        assert_eq!(r.tail().int_at(0), 33);
    }

    #[test]
    fn comparisons_produce_bools() {
        let ctx = ExecCtx::new();
        let a = Bat::new(Column::from_oids(vec![1, 2]), Column::from_ints(vec![5, 10]));
        let r =
            multiplex(&ctx, ScalarFunc::Ge, &[MultArg::Bat(a), MultArg::Const(AtomValue::Int(7))])
                .unwrap();
        assert_eq!(r.tail().as_chr_slice(), None);
        assert!(!r.tail().bool_at(0));
        assert!(r.tail().bool_at(1));
    }

    #[test]
    fn string_prefix() {
        let v = apply_scalar(
            ScalarFunc::StrPrefix,
            &[AtomValue::str("PROMO BURNISHED"), AtomValue::str("PROMO")],
        )
        .unwrap();
        assert_eq!(v, AtomValue::Bool(true));
    }

    #[test]
    fn scalar_errors() {
        assert!(apply_scalar(ScalarFunc::Div, &[AtomValue::Int(1), AtomValue::Int(0)]).is_err());
        assert!(apply_scalar(ScalarFunc::Year, &[AtomValue::Int(1)]).is_err());
        assert!(apply_scalar(ScalarFunc::Add, &[AtomValue::Int(1)]).is_err());
        assert!(apply_scalar(ScalarFunc::And, &[AtomValue::Int(1), AtomValue::Bool(true)]).is_err());
    }

    #[test]
    fn unary_over_supplied_args_are_rejected() {
        // The typed fast path must not swallow extra arguments the generic
        // path rejects with an arity error.
        let ctx = ExecCtx::new();
        let head = Column::from_oids(vec![1, 2]);
        let bools = Bat::new(head.clone(), Column::from_bools(vec![true, false]));
        let extra = Bat::new(head.clone(), Column::from_bools(vec![false, true]));
        assert!(multiplex(
            &ctx,
            ScalarFunc::Not,
            &[MultArg::Bat(bools), MultArg::Bat(extra.clone())]
        )
        .is_err());
        let ints = Bat::new(head.clone(), Column::from_ints(vec![1, 2]));
        assert!(
            multiplex(&ctx, ScalarFunc::Neg, &[MultArg::Bat(ints), MultArg::Bat(extra)]).is_err()
        );
        let dates = Bat::new(head, Column::from_date_days(vec![100, 200]));
        assert!(multiplex(
            &ctx,
            ScalarFunc::Year,
            &[MultArg::Bat(dates), MultArg::Const(AtomValue::Int(1))]
        )
        .is_err());
    }

    #[test]
    fn every_same_type_comparison_takes_the_typed_path() {
        // The typed-kernel rule for comparisons: whatever the atom type or
        // the encoded layout, a same-type comparison is one monomorphic
        // loop — it must never reach `Column::get` per row — and it agrees
        // with the row loop's `apply_scalar` value for value.
        use ScalarFunc as F;
        let strs = ["Clerk#000000000000000007", "Clerk#000000000000000003"];
        let dict = Column::from_strs((0..64).map(|i| strs[i % 2])).encode(false);
        let for_int = Column::from_ints((0..64).map(|i| 1000 + i % 7).collect()).encode(false);
        let for_date =
            Column::from_date_days((0..64).map(|i| 9000 + i % 5).collect()).encode(false);
        let for_lng =
            Column::from_lngs((0..64).map(|i| (1 << 40) | (i % 9)).collect()).encode(false);
        let rle = Column::from_dbls((0..64).map(|i| (i / 16) as f64).collect()).encode(true);
        use crate::props::Enc;
        assert_eq!(
            [&dict, &for_int, &for_date, &for_lng, &rle].map(Column::encoding),
            [Enc::Dict, Enc::For, Enc::For, Enc::For, Enc::Rle],
            "the fixtures must actually encode"
        );
        let cols = [
            Column::void(5, 64),
            Column::from_oids((0..64).map(|i| 70 - i).collect()),
            Column::from_bools((0..64).map(|i| i % 3 == 0).collect()),
            Column::from_chrs((0..64).map(|i| b'a' + i % 5).collect()),
            Column::from_ints((0..64).map(|i| i % 11 - 5).collect()),
            Column::from_lngs((0..64).map(|i| i % 13 - 6).collect()),
            Column::from_dbls((0..64).map(|i| (i % 7) as f64 - 0.5).collect()),
            Column::from_date_days((0..64).map(|i| 9000 + i % 5).collect()),
            Column::from_strs((0..64).map(|i| strs[i % 2])),
            dict,
            for_int,
            for_date,
            for_lng,
            rle,
        ];
        for col in &cols {
            // The partner: the same values rotated, so both outcomes of
            // every comparison occur; the constant: one of the values.
            let n = col.len();
            let other = Column::from_atoms(col.atom_type(), (0..n).map(|i| col.get((i + 1) % n)));
            let (a, b, k) = (TailArg::Col(col.clone()), TailArg::Col(other), col.get(n / 2));
            let shapes =
                [[a.clone(), b], [a.clone(), TailArg::Const(k.clone())], [TailArg::Const(k), a]];
            for f in [F::Eq, F::Ne, F::Lt, F::Le, F::Gt, F::Ge] {
                for args in &shapes {
                    let typed = typed_fast_path(f, args, n).unwrap().unwrap_or_else(|| {
                        panic!("[{f:?}] over {} fell to the row loop", col.atom_type())
                    });
                    for i in 0..n {
                        let row: Vec<AtomValue> = args
                            .iter()
                            .map(|a| match a {
                                TailArg::Col(c) => c.get(i),
                                TailArg::Const(v) => v.clone(),
                            })
                            .collect();
                        assert_eq!(
                            AtomValue::Bool(typed.bool_at(i)),
                            apply_scalar(f, &row).unwrap(),
                            "[{f:?}] over {} row {i}",
                            col.atom_type()
                        );
                    }
                }
            }
        }
        // Mixed types and arity errors stay the row loop's.
        let ints = TailArg::Col(Column::from_ints(vec![1, 2]));
        let dbl = TailArg::Const(AtomValue::Dbl(1.5));
        assert!(typed_fast_path(F::Lt, &[ints.clone(), dbl], 2).unwrap().is_none());
        assert!(typed_fast_path(F::Eq, &[ints], 2).unwrap().is_none());
    }

    #[test]
    fn a_row_loop_fallback_shows_in_the_label() {
        let ctx = ExecCtx::new();
        let head = Column::from_oids(vec![1, 2]);
        let ints = Bat::new(head.clone(), Column::from_ints(vec![1, 2]));
        let dbls = Bat::new(head, Column::from_dbls(vec![1.5, 1.5]));
        // int < dbl promotes per row: no typed loop for it.
        multiplex(&ctx, ScalarFunc::Lt, &[MultArg::Bat(ints.clone()), MultArg::Bat(dbls.clone())])
            .unwrap();
        assert_eq!(ctx.take_algo(), "sync-rowwise");
        // int * dbl is the widened arithmetic loop.
        multiplex(&ctx, ScalarFunc::Mul, &[MultArg::Bat(ints), MultArg::Bat(dbls)]).unwrap();
        assert_eq!(ctx.take_algo(), "sync");
    }

    #[test]
    fn no_bat_argument_is_error() {
        let ctx = ExecCtx::new();
        assert!(multiplex(&ctx, ScalarFunc::Add, &[MultArg::Const(AtomValue::Int(1))]).is_err());
    }

    #[test]
    fn empty_bats() {
        let ctx = ExecCtx::new();
        let a = Bat::new(Column::from_oids(vec![]), Column::from_dbls(vec![]));
        let r = multiplex(
            &ctx,
            ScalarFunc::Mul,
            &[MultArg::Bat(a), MultArg::Const(AtomValue::Dbl(2.0))],
        )
        .unwrap();
        assert_eq!(r.len(), 0);
        assert_eq!(r.tail().atom_type(), AtomType::Dbl);
    }
}
