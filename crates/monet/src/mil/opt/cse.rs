//! Common-subexpression elimination by hash-consing.
//!
//! The translator re-emits identical `mirror`/`join`/`semijoin` chains for
//! every attribute hop and every mention of an attribute path — e.g. a
//! query that filters on `order.customer.nation` and also projects it
//! walks the same reference joins twice. Two statements with the same
//! operation and (canonical) operands compute the same value, so all
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
//! Keys are structural 64-bit hashes, confirmed by a full structural
//! equality check (no string rendering — the optimizer runs on every
//! translated query, so its constant cost matters). Atom constants
//! compare *bit-exactly*: `0.0`/`-0.0` and NaN payloads must not merge.

use std::hash::{Hash, Hasher};

use crate::atom::AtomValue;
use crate::column::WordHasher;

use super::super::ast::{MilArg, MilOp, MilProgram, MilStmt, Var};

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

/// Structural hash of a statement: its operation and its parameter slots.
fn hash_stmt(stmt: &MilStmt) -> u64 {
    let mut h = WordHasher::default();
    let op = &stmt.op;
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
        | MilOp::Concat(a, b)
        | MilOp::Zip(a, b) => (a, b).hash(&mut h),
        MilOp::Join2(a, b, a2, b2) => (a, b, a2, b2).hash(&mut h),
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
    // Parameter slots are part of a statement's identity: merging a
    // parameterized statement with a plain one holding the same *current*
    // value would make a later re-binding corrupt the non-parameterized use
    // (and vice versa). Only statements with identical slot lists merge.
    stmt.params.hash(&mut h);
    h.finish()
}

/// Structural equality with bit-exact constants and equal parameter slots;
/// operand variables are already canonical when this runs.
fn stmts_identical(a: &MilStmt, b: &MilStmt) -> bool {
    use MilOp as O;
    let ops = match (&a.op, &b.op) {
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
        | (O::Concat(xa, xb), O::Concat(ya, yb))
        | (O::Zip(xa, xb), O::Zip(ya, yb)) => xa == ya && xb == yb,
        (O::Join2(xa, xb, xa2, xb2), O::Join2(ya, yb, ya2, yb2)) => {
            (xa, xb, xa2, xb2) == (ya, yb, ya2, yb2)
        }
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
    };
    ops && a.params == b.params
}

/// Open-addressing table of the representatives seen so far: `(hash,
/// var)` slots, linear probing, sized once for the whole program.
pub(super) struct HashCons {
    slots: Vec<(u64, Var)>,
    /// `64 - log2(slots.len())`: the slot index is the hash's top bits.
    shift: u32,
}

const EMPTY: Var = Var::MAX;

impl HashCons {
    /// A table for a program of `n` statements (load factor ≤ 1/2).
    pub fn new(n: usize) -> HashCons {
        let cap = (2 * n).next_power_of_two().max(8);
        HashCons { slots: vec![(0, EMPTY); cap], shift: 64 - cap.trailing_zeros() }
    }

    /// The earlier representative statement `i` (operands canonical)
    /// duplicates, if any; otherwise `i` becomes the representative of its
    /// structure. Fresh-oid statements neither merge nor represent.
    pub fn merge(&mut self, prog: &MilProgram, i: Var) -> Option<Var> {
        let stmt = &prog.stmts[i];
        if stmt.op.draws_fresh_oids() {
            return None;
        }
        let key = hash_stmt(stmt);
        let mask = self.slots.len() - 1;
        let mut at = (key >> self.shift) as usize;
        loop {
            let (h, rep) = self.slots[at];
            if rep == EMPTY {
                self.slots[at] = (key, i);
                return None;
            }
            if h == key && stmts_identical(&prog.stmts[rep], stmt) {
                return Some(rep);
            }
            at = (at + 1) & mask;
        }
    }
}
