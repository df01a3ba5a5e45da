//! Generic row-wise **reference implementations** of the BAT operators.
//!
//! These are the pre-typed-kernel forms of each operator: every element is
//! read as an [`AtomValue`] through [`Column::get`], and ordered, compared
//! and hashed by `AtomValue`'s own definitions (`cmp_same_type`, `Eq`,
//! `Hash`) — not by the typed layer's [`crate::typed::TypedVals`], so the
//! oracle does not share the code it checks. They are kept alive —
//! deliberately slow and obviously correct — as the oracle that the
//! `specialized-vs-generic` property suite (`tests/ops_props.rs`) compares
//! the monomorphized kernels in the sibling modules against, on random
//! inputs across every atom type.
//!
//! Output *order* mirrors the specialized operators exactly (left-operand
//! order, ascending positions, first-occurrence grouping), so tests can
//! compare results pair-for-pair instead of as multisets. Reference ops
//! take no `ExecCtx` and claim no properties.

use std::collections::{HashMap, HashSet};

use crate::atom::{AtomType, AtomValue, Oid};
use crate::bat::Bat;
use crate::column::Column;
use crate::error::{MonetError, Result};
use crate::ops::multiplex::{apply_scalar, MultArg};
use crate::ops::{AggFunc, ScalarFunc};

fn gather_pair(ab: &Bat, idx: &[u32]) -> Bat {
    Bat::new(ab.head().gather(idx), ab.tail().gather(idx))
}

/// Point selection by scanning with per-row `cmp_same_type`.
pub fn select_eq(ab: &Bat, v: &AtomValue) -> Bat {
    let tail = ab.tail();
    let idx: Vec<u32> =
        (0..ab.len()).filter(|&i| tail.get(i).cmp_same_type(v).is_eq()).map(|i| i as u32).collect();
    gather_pair(ab, &idx)
}

/// Range selection by scanning with per-row `cmp_same_type`.
pub fn select_range(
    ab: &Bat,
    lo: Option<&AtomValue>,
    hi: Option<&AtomValue>,
    inc_lo: bool,
    inc_hi: bool,
) -> Bat {
    let tail = ab.tail();
    let keep = |i: usize| -> bool {
        let x = tail.get(i);
        if let Some(v) = lo {
            let c = x.cmp_same_type(v);
            if c.is_lt() || (!inc_lo && c.is_eq()) {
                return false;
            }
        }
        if let Some(v) = hi {
            let c = x.cmp_same_type(v);
            if c.is_gt() || (!inc_hi && c.is_eq()) {
                return false;
            }
        }
        true
    };
    let idx: Vec<u32> = (0..ab.len()).filter(|&i| keep(i)).map(|i| i as u32).collect();
    gather_pair(ab, &idx)
}

/// Nested-loop equi-join (left order, right positions ascending).
pub fn join(ab: &Bat, cd: &Bat) -> Bat {
    let heads: Vec<AtomValue> = cd.head().iter().collect();
    let mut li = Vec::new();
    let mut ri = Vec::new();
    for (i, b) in ab.tail().iter().enumerate() {
        for (j, c) in heads.iter().enumerate() {
            if b == *c {
                li.push(i as u32);
                ri.push(j as u32);
            }
        }
    }
    Bat::new(ab.head().gather(&li), cd.tail().gather(&ri))
}

/// Scan semijoin: keep left BUNs whose head occurs in the right heads.
pub fn semijoin(ab: &Bat, cd: &Bat) -> Bat {
    let heads: Vec<AtomValue> = cd.head().iter().collect();
    let idx: Vec<u32> =
        (0..ab.len()).filter(|&i| heads.contains(&ab.head().get(i))).map(|i| i as u32).collect();
    gather_pair(ab, &idx)
}

/// Scan anti-semijoin.
pub fn antijoin(ab: &Bat, cd: &Bat) -> Bat {
    let heads: Vec<AtomValue> = cd.head().iter().collect();
    let idx: Vec<u32> =
        (0..ab.len()).filter(|&i| !heads.contains(&ab.head().get(i))).map(|i| i as u32).collect();
    gather_pair(ab, &idx)
}

/// Unary group ids in canonical (first-appearance, 0-based) numbering.
pub fn group1_gids(ab: &Bat) -> Vec<Oid> {
    let mut seen: HashMap<AtomValue, Oid> = HashMap::new();
    ab.tail()
        .iter()
        .map(|v| {
            let next = seen.len() as Oid;
            *seen.entry(v).or_insert(next)
        })
        .collect()
}

/// Binary (refining) group ids in canonical numbering; `Err` when a head of
/// `ab` has no counterpart in `cd`.
pub fn group2_gids(ab: &Bat, cd: &Bat) -> Result<Vec<Oid>> {
    let heads: Vec<AtomValue> = cd.head().iter().collect();
    let mut align = Vec::with_capacity(ab.len());
    for (i, a) in ab.head().iter().enumerate() {
        match heads.iter().position(|c| *c == a) {
            Some(j) => align.push(j),
            None => {
                return Err(MonetError::Malformed {
                    op: "group",
                    detail: format!("reference group2: no counterpart for row {i}"),
                })
            }
        }
    }
    let (bt, dt) = (ab.tail(), cd.tail());
    let mut key_of: Vec<(AtomValue, AtomValue)> = Vec::new();
    let mut gids = Vec::with_capacity(ab.len());
    for i in 0..ab.len() {
        let key = (bt.get(i), dt.get(align[i]));
        let g = match key_of.iter().position(|k| *k == key) {
            Some(g) => g,
            None => {
                key_of.push(key);
                key_of.len() - 1
            }
        };
        gids.push(g as Oid);
    }
    Ok(gids)
}

/// First occurrence of every distinct BUN pair, in operand order.
pub fn unique(ab: &Bat) -> Bat {
    let mut seen: HashSet<(AtomValue, AtomValue)> = HashSet::new();
    let idx: Vec<u32> = (0..ab.len())
        .filter(|&i| seen.insert((ab.head().get(i), ab.tail().get(i))))
        .map(|i| i as u32)
        .collect();
    gather_pair(ab, &idx)
}

/// Stable reorder ascending on tail values.
pub fn sort_tail(ab: &Bat) -> Bat {
    let vals: Vec<AtomValue> = ab.tail().iter().collect();
    let mut idx: Vec<u32> = (0..ab.len() as u32).collect();
    idx.sort_by(|&a, &b| vals[a as usize].cmp_same_type(&vals[b as usize]));
    gather_pair(ab, &idx)
}

/// The `n` extreme-tail BUNs: full stable sort by (tail value in the
/// requested direction, then operand position), truncate to `n`.
pub fn topn(ab: &Bat, n: usize, descending: bool) -> Bat {
    let vals: Vec<AtomValue> = ab.tail().iter().collect();
    let mut idx: Vec<u32> = (0..ab.len() as u32).collect();
    idx.sort_by(|&a, &b| {
        let c = vals[a as usize].cmp_same_type(&vals[b as usize]);
        let c = if descending { c.reverse() } else { c };
        c.then(a.cmp(&b))
    });
    idx.truncate(n);
    gather_pair(ab, &idx)
}

/// Whole-BAT aggregate over the tail, row order, generic accessors.
pub fn aggr_scalar(ab: &Bat, f: AggFunc) -> Result<AtomValue> {
    let t = ab.tail();
    let n = ab.len();
    match f {
        AggFunc::Count => Ok(AtomValue::Lng(n as i64)),
        AggFunc::Sum => match t.atom_type() {
            AtomType::Int => Ok(AtomValue::Lng((0..n).map(|i| t.int_at(i) as i64).sum())),
            AtomType::Lng => Ok(AtomValue::Lng((0..n).map(|i| t.lng_at(i)).sum())),
            AtomType::Dbl => Ok(AtomValue::Dbl((0..n).map(|i| t.dbl_at(i)).sum())),
            ty => Err(MonetError::Unsupported { op: "sum", ty }),
        },
        AggFunc::Avg => {
            if n == 0 {
                return Err(MonetError::Malformed { op: "avg", detail: "empty".into() });
            }
            let mut s = 0.0;
            for i in 0..n {
                s += t
                    .get(i)
                    .as_f64()
                    .ok_or(MonetError::Unsupported { op: "avg", ty: t.atom_type() })?;
            }
            Ok(AtomValue::Dbl(s / n as f64))
        }
        AggFunc::Min | AggFunc::Max => {
            if n == 0 {
                return Err(MonetError::Malformed { op: f.name(), detail: "empty".into() });
            }
            let mut best = t.get(0);
            for v in t.iter().skip(1) {
                let c = v.cmp_same_type(&best);
                if if f == AggFunc::Min { c.is_lt() } else { c.is_gt() } {
                    best = v;
                }
            }
            Ok(best)
        }
    }
}

/// Set-aggregate `{g}`: group over heads in first-occurrence order, then
/// aggregate each group's tail values in row order.
pub fn set_aggregate(f: AggFunc, ab: &Bat) -> Result<Bat> {
    let tail_ty = ab.tail().atom_type();
    if !matches!(f, AggFunc::Count | AggFunc::Min | AggFunc::Max)
        && !matches!(tail_ty, AtomType::Int | AtomType::Lng | AtomType::Dbl)
    {
        return Err(MonetError::Unsupported { op: "set-aggregate", ty: tail_ty });
    }
    let h = ab.head();
    let mut rep: Vec<u32> = Vec::new();
    let mut seen: HashMap<AtomValue, u32> = HashMap::new();
    let mut gid_of: Vec<u32> = Vec::with_capacity(ab.len());
    for (i, v) in h.iter().enumerate() {
        let g = *seen.entry(v).or_insert_with(|| {
            rep.push(i as u32);
            rep.len() as u32 - 1
        });
        gid_of.push(g);
    }
    let ngroups = rep.len();
    let t = ab.tail();
    let tail: Column = match f {
        AggFunc::Count => {
            let mut counts = vec![0i64; ngroups];
            for &g in &gid_of {
                counts[g as usize] += 1;
            }
            Column::from_lngs(counts)
        }
        AggFunc::Sum => match tail_ty {
            AtomType::Int | AtomType::Lng => {
                let mut sums = vec![0i64; ngroups];
                for (i, &g) in gid_of.iter().enumerate() {
                    sums[g as usize] +=
                        if tail_ty == AtomType::Int { t.int_at(i) as i64 } else { t.lng_at(i) };
                }
                Column::from_lngs(sums)
            }
            _ => {
                let mut sums = vec![0f64; ngroups];
                for (i, &g) in gid_of.iter().enumerate() {
                    sums[g as usize] += t.dbl_at(i);
                }
                Column::from_dbls(sums)
            }
        },
        AggFunc::Avg => {
            let mut sums = vec![0f64; ngroups];
            let mut counts = vec![0u64; ngroups];
            for (i, &g) in gid_of.iter().enumerate() {
                sums[g as usize] += t.get(i).as_f64().expect("numeric tail");
                counts[g as usize] += 1;
            }
            Column::from_dbls(sums.iter().zip(&counts).map(|(s, &c)| s / c as f64).collect())
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Vec<u32> = rep.clone();
            for (i, &g) in gid_of.iter().enumerate() {
                let b = &mut best[g as usize];
                let c = t.get(i).cmp_same_type(&t.get(*b as usize));
                if if f == AggFunc::Min { c.is_lt() } else { c.is_gt() } {
                    *b = i as u32;
                }
            }
            t.gather(&best)
        }
    };
    Ok(Bat::new(h.gather(&rep), tail))
}

/// Row-at-a-time synced multiplex: the original generic loop — a boxed
/// `AtomValue` scratch vector and `apply_scalar` per row.
pub fn multiplex_synced(f: ScalarFunc, args: &[MultArg]) -> Result<Bat> {
    let first = args
        .iter()
        .find_map(|a| match a {
            MultArg::Bat(b) => Some(b),
            MultArg::Const(_) => None,
        })
        .ok_or_else(|| MonetError::Malformed {
            op: "multiplex",
            detail: "at least one BAT argument required".into(),
        })?;
    let n = first.len();
    let mut out: Vec<AtomValue> = Vec::with_capacity(n);
    let mut scratch: Vec<AtomValue> = Vec::with_capacity(args.len());
    for i in 0..n {
        scratch.clear();
        for a in args {
            scratch.push(match a {
                MultArg::Bat(b) => b.tail().get(i),
                MultArg::Const(v) => v.clone(),
            });
        }
        out.push(apply_scalar(f, &scratch)?);
    }
    let ty = out.first().map(AtomValue::atom_type).unwrap_or_else(|| {
        crate::ops::multiplex::result_type_hint(f, args.first().map(MultArg::atom_type))
    });
    Ok(Bat::new(first.head().clone(), Column::from_atoms(ty, out)))
}

/// Row-wise concatenation via generic atom values.
pub fn concat_bats(ab: &Bat, cd: &Bat) -> Bat {
    let pick = |t: AtomType| if t == AtomType::Void { AtomType::Oid } else { t };
    let devoid = |v: AtomValue| match v {
        AtomValue::Void(o) => AtomValue::Oid(o),
        other => other,
    };
    let head = Column::from_atoms(
        pick(ab.head().atom_type()),
        ab.head().iter().chain(cd.head().iter()).map(devoid),
    );
    let tail = Column::from_atoms(
        pick(ab.tail().atom_type()),
        ab.tail().iter().chain(cd.tail().iter()).map(devoid),
    );
    Bat::new(head, tail)
}
