//! Common-subexpression elimination by hash-consing.
//!
//! The translator re-emits identical `mirror`/`join`/`semijoin` chains for
//! every attribute hop and every mention of an attribute path — e.g. a
//! query that filters on `order.customer.nation` and also projects it
//! walks the same reference joins twice. Two statements with the same
//! operation and (canonicalized) operands compute the same value, so all
//! later uses are redirected to the first occurrence; the orphaned
//! duplicates fall to DCE.
//!
//! Exempt: operations drawing fresh oids (`group`, `mark`) — textually
//! identical instances produce different oid ranges, and merging them
//! could make oids from originally *distinct* ranges compare equal
//! downstream. Everything else in the algebra is a pure function of its
//! operand values.
//!
//! Merging only ever *increases* column-identity sharing (`synced`-ness),
//! which is safe: sync fast paths are bit-identical to their general
//! forms, and a datavector can only reach a use site through operands
//! that were structurally identical anyway.
//!
//! Keys are structural 64-bit hashes with a full structural-equality
//! check on the bucket (no string rendering — the optimizer runs on every
//! translated query, so its constant cost matters). Atom constants
//! compare *bit-exactly*: `0.0`/`-0.0` and NaN payloads must not merge.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::atom::AtomValue;

use super::super::ast::{MilArg, MilOp, MilProgram, Var};
use super::{Pass, PassCtx, PassEffect};

pub(crate) struct Cse;

/// Bit-exact atom identity (stricter than `==` on floats: distinguishes
/// -0.0 from 0.0 and any two NaN payloads).
fn atoms_identical(a: &AtomValue, b: &AtomValue) -> bool {
    use AtomValue as V;
    match (a, b) {
        (V::Void(x), V::Void(y)) | (V::Oid(x), V::Oid(y)) => x == y,
        (V::Bool(x), V::Bool(y)) => x == y,
        (V::Chr(x), V::Chr(y)) => x == y,
        (V::Int(x), V::Int(y)) => x == y,
        (V::Lng(x), V::Lng(y)) => x == y,
        (V::Dbl(x), V::Dbl(y)) => x.to_bits() == y.to_bits(),
        (V::Str(x), V::Str(y)) => x == y,
        (V::Date(x), V::Date(y)) => x == y,
        _ => false,
    }
}

fn hash_atom<H: Hasher>(v: &AtomValue, h: &mut H) {
    use AtomValue as V;
    std::mem::discriminant(v).hash(h);
    match v {
        V::Void(x) | V::Oid(x) => x.hash(h),
        V::Bool(x) => x.hash(h),
        V::Chr(x) => x.hash(h),
        V::Int(x) => x.hash(h),
        V::Lng(x) => x.hash(h),
        V::Dbl(x) => x.to_bits().hash(h),
        V::Str(x) => x.hash(h),
        V::Date(x) => x.0.hash(h),
    }
}

fn hash_arg<H: Hasher>(a: &MilArg, h: &mut H) {
    match a {
        MilArg::Var(v) => {
            0u8.hash(h);
            v.hash(h);
        }
        MilArg::Const(c) => {
            1u8.hash(h);
            hash_atom(c, h);
        }
    }
}

fn args_identical(a: &MilArg, b: &MilArg) -> bool {
    match (a, b) {
        (MilArg::Var(x), MilArg::Var(y)) => x == y,
        (MilArg::Const(x), MilArg::Const(y)) => atoms_identical(x, y),
        _ => false,
    }
}

fn hash_op(op: &MilOp) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::mem::discriminant(op).hash(&mut h);
    match op {
        MilOp::Load(n) => n.hash(&mut h),
        MilOp::ConstScalar(v) => hash_atom(v, &mut h),
        MilOp::Mirror(v)
        | MilOp::Unique(v)
        | MilOp::Group1(v)
        | MilOp::SortTail(v)
        | MilOp::SortHead(v)
        | MilOp::Mark(v) => v.hash(&mut h),
        MilOp::SelectEq(v, val) => {
            v.hash(&mut h);
            hash_atom(val, &mut h);
        }
        MilOp::SelectRange { src, lo, hi, inc_lo, inc_hi } => {
            src.hash(&mut h);
            for b in [lo, hi] {
                match b {
                    Some(v) => hash_atom(v, &mut h),
                    None => 2u8.hash(&mut h),
                }
            }
            (inc_lo, inc_hi).hash(&mut h);
        }
        MilOp::Join(a, b)
        | MilOp::Semijoin(a, b)
        | MilOp::Antijoin(a, b)
        | MilOp::Group2(a, b)
        | MilOp::Union(a, b)
        | MilOp::Diff(a, b)
        | MilOp::Intersect(a, b)
        | MilOp::Concat(a, b)
        | MilOp::Zip(a, b) => (a, b).hash(&mut h),
        MilOp::Multiplex { f, args } => {
            std::mem::discriminant(f).hash(&mut h);
            for a in args {
                hash_arg(a, &mut h);
            }
        }
        MilOp::SetAgg { f, src } | MilOp::AggrScalar { f, src } => {
            std::mem::discriminant(f).hash(&mut h);
            src.hash(&mut h);
        }
        MilOp::TopN { src, n, desc } => (src, n, desc).hash(&mut h),
        MilOp::Fused => {}
    }
    h.finish()
}

/// Structural equality with bit-exact constants; operand variables are
/// already canonical when this runs.
fn ops_identical(a: &MilOp, b: &MilOp) -> bool {
    use MilOp as O;
    match (a, b) {
        (O::Load(x), O::Load(y)) => x == y,
        (O::ConstScalar(x), O::ConstScalar(y)) => atoms_identical(x, y),
        (O::Mirror(x), O::Mirror(y))
        | (O::Unique(x), O::Unique(y))
        | (O::SortTail(x), O::SortTail(y))
        | (O::SortHead(x), O::SortHead(y))
        | (O::Mark(x), O::Mark(y)) => x == y,
        (O::SelectEq(x, xv), O::SelectEq(y, yv)) => x == y && atoms_identical(xv, yv),
        (
            O::SelectRange { src: xs, lo: xl, hi: xh, inc_lo: xil, inc_hi: xih },
            O::SelectRange { src: ys, lo: yl, hi: yh, inc_lo: yil, inc_hi: yih },
        ) => {
            let bound = |a: &Option<AtomValue>, b: &Option<AtomValue>| match (a, b) {
                (Some(x), Some(y)) => atoms_identical(x, y),
                (None, None) => true,
                _ => false,
            };
            xs == ys && bound(xl, yl) && bound(xh, yh) && xil == yil && xih == yih
        }
        (O::Join(xa, xb), O::Join(ya, yb))
        | (O::Semijoin(xa, xb), O::Semijoin(ya, yb))
        | (O::Antijoin(xa, xb), O::Antijoin(ya, yb))
        | (O::Union(xa, xb), O::Union(ya, yb))
        | (O::Diff(xa, xb), O::Diff(ya, yb))
        | (O::Intersect(xa, xb), O::Intersect(ya, yb))
        | (O::Concat(xa, xb), O::Concat(ya, yb))
        | (O::Zip(xa, xb), O::Zip(ya, yb)) => xa == ya && xb == yb,
        (O::Multiplex { f: xf, args: xa }, O::Multiplex { f: yf, args: ya }) => {
            xf == yf && xa.len() == ya.len() && xa.iter().zip(ya).all(|(a, b)| args_identical(a, b))
        }
        (O::SetAgg { f: xf, src: xs }, O::SetAgg { f: yf, src: ys })
        | (O::AggrScalar { f: xf, src: xs }, O::AggrScalar { f: yf, src: ys }) => {
            xf == yf && xs == ys
        }
        (O::TopN { src: xs, n: xn, desc: xd }, O::TopN { src: ys, n: yn, desc: yd }) => {
            xs == ys && xn == yn && xd == yd
        }
        _ => false,
    }
}

impl Pass for Cse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, prog: &mut MilProgram, _cx: &PassCtx) -> PassEffect {
        let n = prog.len();
        // canon[v] = representative variable computing the same value.
        let mut canon: Vec<usize> = (0..n).collect();
        let mut seen: HashMap<u64, Vec<Var>> = HashMap::with_capacity(n);
        let mut applied = 0;
        'stmt: for i in 0..n {
            // Canonicalize operands first so structural keys match across
            // chains of merged statements.
            prog.stmts[i].op.for_each_operand_mut(|v| *v = canon[*v]);
            let op = &prog.stmts[i].op;
            if op.draws_fresh_oids() {
                continue;
            }
            // Parameter slots are part of a statement's identity: merging a
            // parameterized statement with a plain one holding the same
            // *current* value would make a later re-binding corrupt the
            // non-parameterized use (and vice versa). Only statements with
            // identical slot lists may merge.
            let mut key = hash_op(op);
            if !prog.stmts[i].params.is_empty() {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                key.hash(&mut h);
                prog.stmts[i].params.hash(&mut h);
                key = h.finish();
            }
            let bucket = seen.entry(key).or_default();
            for &rep in bucket.iter() {
                if ops_identical(&prog.stmts[rep].op, op)
                    && prog.stmts[rep].params == prog.stmts[i].params
                {
                    canon[i] = rep;
                    applied += 1;
                    continue 'stmt;
                }
            }
            bucket.push(i);
        }
        if applied == 0 {
            return PassEffect::unchanged();
        }
        PassEffect { applied, remap: Some(canon.into_iter().map(Some).collect()) }
    }
}
