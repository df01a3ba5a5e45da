//! Structure functions: the formal physical-to-logical mapping (§3.3).
//!
//! The combination of BATs storing values and a *structure function* on
//! those BATs forms the representation of a structured value. Because all
//! structure functions take identified value sets (IVS) to identified value
//! sets, they compose to arbitrary nesting, and any MOA type is
//! representable as a set of BATs plus a composition of structure
//! functions.
//!
//! **Orientation note.** The paper writes `SET(A, S)` with `A` serving as
//! "an index into value set S". We fix the orientation of the index BAT as
//! `[element_id, owner_id]` — heads are element ids — because that is the
//! orientation the selection transformation rule needs:
//! `select[f](SET(A,X)) → SET(semijoin(A, T(f(X))), X)` matches the
//! qualifying element ids of `T(f(X))` against `A`'s *head*. A top-level
//! set (class extent, query result) is a [`StructuredSet`]: its elements
//! are the index heads and the owner column is immaterial.

use std::collections::HashMap;

use monet::atom::Oid;
use monet::bat::Bat;
use monet::column::{Column, WordHashMap, WordHashSet};

use crate::error::{MoaError, Result};
use crate::value::{Ivs, Value};

/// A composition of structure functions over concrete BATs.
#[derive(Debug, Clone)]
pub enum Structure {
    /// A head-unique `BAT[oid, τ]` representing an IVS of base values.
    AtomBat(Bat),
    /// A head-unique `BAT[oid, oid]` whose tail values refer to database
    /// objects of the named class: `{<id_i, X_i> | oid_i = oid(X_i)}`.
    RefBat { bat: Bat, class: String },
    /// `TUPLE(S_1, …, S_n)` over mutually synchronous IVSes:
    /// `{<id_i, <v_i1, …, v_in>>}`. Field names are carried for attribute
    /// access; the formal semantics ignores them.
    Tuple(Vec<(String, Structure)>),
    /// `OBJECT(…)` — identical to `TUPLE`, but the identifiers are the
    /// object identifiers of the named class.
    Object { class: String, fields: Vec<(String, Structure)> },
    /// `SET(A, S)`: `A = [element_id, owner_id]`, `S` an IVS keyed by
    /// element id. Defines `{<owner, {S[e] | <e, owner> ∈ A}>}`.
    Set { index: Bat, inner: Box<Structure> },
    /// `SET(A)`: the optimization for simple element values — `A` holds
    /// `[owner_id, value]` directly, saving the indirection.
    SetSimple { bat: Bat },
}

impl Structure {
    /// Pretty-print the composition, e.g.
    /// `SET(Supplier, OBJECT(Supplier_name, …))` (Figure 3). BAT arguments
    /// print as their signature since BATs carry no names here.
    pub fn render(&self) -> String {
        match self {
            Structure::AtomBat(b) => format!("bat[oid,{}]", b.tail().atom_type()),
            Structure::RefBat { class, .. } => format!("ref[{class}]"),
            Structure::Tuple(fields) => {
                let inner: Vec<String> =
                    fields.iter().map(|(n, s)| format!("{n}:{}", s.render())).collect();
                format!("TUPLE({})", inner.join(", "))
            }
            Structure::Object { class, fields } => {
                let inner: Vec<String> =
                    fields.iter().map(|(n, s)| format!("{n}:{}", s.render())).collect();
                format!("OBJECT[{class}]({})", inner.join(", "))
            }
            Structure::Set { inner, .. } => format!("SET(index, {})", inner.render()),
            Structure::SetSimple { bat } => {
                format!("SET(bat[oid,{}])", bat.tail().atom_type())
            }
        }
    }

    /// Materialize into a map `id → value` (the IVS as a lookup table): the
    /// values at every id the IVS defines ([`Structure::values_at`]).
    pub fn materialize_map(&self) -> Result<HashMap<Oid, Value>> {
        let ids = self.ids()?;
        let vals = self.values_at(&ids)?;
        Ok(ids.into_iter().zip(vals).filter_map(|(id, v)| Some((id, v?))).collect())
    }

    /// Materialize as an IVS in id order (test convenience).
    pub fn materialize_ivs(&self) -> Result<Ivs> {
        let map = self.materialize_map()?;
        let mut out: Ivs = map.into_iter().collect();
        out.sort_by_key(|(id, _)| *id);
        Ok(out)
    }

    /// The ids this IVS defines, in storage order: an IVS BAT's heads, the
    /// first non-set field's ids for a tuple, a set's owners.
    fn ids(&self) -> Result<Vec<Oid>> {
        Ok(match self {
            Structure::AtomBat(bat) | Structure::RefBat { bat, .. } => oids(bat.head()),
            Structure::Tuple(fields) | Structure::Object { fields, .. } => {
                base_field(fields)?.ids()?
            }
            Structure::Set { index, .. } => distinct(oids(index.tail())),
            Structure::SetSimple { bat } => distinct(oids(bat.head())),
        })
    }

    /// The values of this IVS at `ids`, `None` where it has none. Each BAT
    /// is read once, column by column, at the rows of `ids` only, and the
    /// representation invariants of Section 3.3 are checked over the whole
    /// IVS, not only at `ids`: IVS BATs are head-unique (unless their props
    /// already say `key`), the non-set operands of `TUPLE`/`OBJECT` are
    /// synchronous, and every element of a nested set is in its inner IVS.
    /// A set-valued field defaults to the empty set for owners without
    /// members (vertical fragmentation stores "0 or more BUNs per set", so
    /// absence encodes the empty set).
    fn values_at(&self, ids: &[Oid]) -> Result<Vec<Option<Value>>> {
        match self {
            Structure::AtomBat(bat) | Structure::RefBat { bat, .. } => {
                let (tail, refs) = (bat.tail(), matches!(self, Structure::RefBat { .. }));
                let value =
                    |i| if refs { Value::Ref(tail.oid_at(i)) } else { Value::Atom(tail.get(i)) };
                Ok(rows_at(bat, ids)?.into_iter().map(|r| r.map(value)).collect())
            }
            Structure::Tuple(fields) | Structure::Object { fields, .. } => {
                check_synchronous(fields)?;
                let mut cols = Vec::with_capacity(fields.len());
                for (_, s) in fields {
                    cols.push((is_set(s), s.values_at(ids)?.into_iter()));
                }
                // The non-set fields share their ids, so they agree on which
                // of `ids` the tuple has.
                let mut out = Vec::with_capacity(ids.len());
                for _ in ids {
                    let mut vals = Vec::with_capacity(cols.len());
                    let mut absent = false;
                    for (set, col) in &mut cols {
                        match (col.next().flatten(), *set) {
                            (Some(v), _) => vals.push(v),
                            (None, true) => vals.push(Value::Set(Vec::new())),
                            (None, false) => absent = true,
                        }
                    }
                    out.push((!absent).then_some(Value::Tuple(vals)));
                }
                Ok(out)
            }
            Structure::Set { index, inner } => {
                // Every element is looked up, whichever owner it has.
                let elems = oids(index.head());
                let members = inner.values_at(&elems)?;
                let want = Slots::new(ids);
                let mut sets: Vec<Option<Vec<Value>>> = vec![None; ids.len()];
                for (i, (m, elem)) in members.into_iter().zip(elems).enumerate() {
                    let m = m.ok_or_else(|| {
                        MoaError::Structure(format!(
                            "set index references id {elem} missing from the inner IVS"
                        ))
                    })?;
                    if let Some(k) = want.slot(index.tail().oid_at(i)) {
                        sets[k].get_or_insert_with(Vec::new).push(m);
                    }
                }
                Ok(want.spread(sets).into_iter().map(|s| s.map(Value::Set)).collect())
            }
            Structure::SetSimple { bat } => {
                let want = Slots::new(ids);
                let mut sets: Vec<Option<Vec<Value>>> = vec![None; ids.len()];
                for i in 0..bat.len() {
                    if let Some(k) = want.slot(bat.head().oid_at(i)) {
                        sets[k].get_or_insert_with(Vec::new).push(Value::Atom(bat.tail().get(i)));
                    }
                }
                Ok(want.spread(sets).into_iter().map(|s| s.map(Value::Set)).collect())
            }
        }
    }
}

fn is_set(s: &Structure) -> bool {
    matches!(s, Structure::Set { .. } | Structure::SetSimple { .. })
}

/// The field whose ids identify a tuple: its first non-set field.
fn base_field(fields: &[(String, Structure)]) -> Result<&Structure> {
    fields.iter().map(|(_, s)| s).find(|s| !is_set(s)).ok_or_else(|| {
        MoaError::Structure("TUPLE of only set-valued fields is not identifiable".into())
    })
}

/// The non-set fields of a tuple define the same ids: as many as the
/// first, and (unless they list them in the same order) every one of its.
fn check_synchronous(fields: &[(String, Structure)]) -> Result<()> {
    let base = base_field(fields)?.ids()?;
    for (_, s) in fields.iter().filter(|(_, s)| !is_set(s)).skip(1) {
        let ids = s.ids()?;
        if ids.len() != base.len() {
            return Err(MoaError::Structure(format!(
                "TUPLE operands are not synchronous: {} vs {} ids",
                ids.len(),
                base.len()
            )));
        }
        if ids != base {
            let have: WordHashSet<Oid> = ids.iter().copied().collect();
            if let Some(id) = base.iter().find(|id| !have.contains(id)) {
                return Err(MoaError::Structure(format!(
                    "TUPLE operands are not synchronous: id {id} missing"
                )));
            }
        }
    }
    Ok(())
}

/// The rows of an IVS BAT at `ids` (`None` where its heads lack the id),
/// after checking that its heads are unique. Heads that list exactly
/// `ids` are the rows themselves.
fn rows_at(bat: &Bat, ids: &[Oid]) -> Result<Vec<Option<usize>>> {
    let head = bat.head();
    if !bat.props().head.key && !head.check_key() {
        let mut seen = WordHashSet::default();
        if let Some(id) = (0..head.len()).map(|i| head.oid_at(i)).find(|&id| !seen.insert(id)) {
            return Err(MoaError::Structure(format!(
                "IVS BAT is not head-unique: duplicate id {id}"
            )));
        }
    }
    if head.len() == ids.len() && ids.iter().enumerate().all(|(i, &id)| head.oid_at(i) == id) {
        return Ok((0..ids.len()).map(Some).collect());
    }
    let want = Slots::new(ids);
    let mut rows = vec![None; ids.len()];
    for i in 0..head.len() {
        if let Some(k) = want.slot(head.oid_at(i)) {
            rows[k] = Some(i);
        }
    }
    Ok(want.spread(rows))
}

/// Where each of a list of wanted ids goes: the first position of every
/// distinct id, and for each position the first position of its id.
struct Slots {
    first: WordHashMap<Oid, usize>,
    of: Vec<usize>,
}

impl Slots {
    fn new(ids: &[Oid]) -> Slots {
        let mut first = WordHashMap::with_capacity_and_hasher(ids.len(), Default::default());
        let of = ids.iter().enumerate().map(|(k, &id)| *first.entry(id).or_insert(k)).collect();
        Slots { first, of }
    }

    /// The first position of `id`, if it is wanted.
    fn slot(&self, id: Oid) -> Option<usize> {
        self.first.get(&id).copied()
    }

    /// Copy what was filled in at each id's first position to its others.
    fn spread<T: Clone>(&self, mut v: Vec<T>) -> Vec<T> {
        for (k, &f) in self.of.iter().enumerate() {
            if f != k {
                v[k] = v[f].clone();
            }
        }
        v
    }
}

/// A column of oids as a vector.
fn oids(c: &Column) -> Vec<Oid> {
    (0..c.len()).map(|i| c.oid_at(i)).collect()
}

/// The distinct values of `v`, in first-occurrence order.
fn distinct(v: Vec<Oid>) -> Vec<Oid> {
    let mut seen = WordHashSet::default();
    v.into_iter().filter(|&id| seen.insert(id)).collect()
}

/// A top-level flattened set: the representation of a class extent or of a
/// query result — "the query result BATs, which in turn are operands of
/// another structure expression that represents the result" (Figure 6).
#[derive(Debug, Clone)]
pub struct StructuredSet {
    /// `[element_id, _]`: the elements are the heads; the tail is only
    /// meaningful for nested sets.
    pub index: Bat,
    /// Element values, keyed by element id.
    pub inner: Structure,
}

impl StructuredSet {
    pub fn new(index: Bat, inner: Structure) -> StructuredSet {
        StructuredSet { index, inner }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Materialize the set's members (in index order).
    pub fn materialize(&self) -> Result<Vec<Value>> {
        Ok(self.materialize_ivs()?.into_iter().map(|(_, v)| v).collect())
    }

    /// Materialize as `(element_id, value)` pairs: the inner IVS's values
    /// at the index's ids, in index order.
    pub fn materialize_ivs(&self) -> Result<Ivs> {
        let ids = oids(self.index.head());
        let vals = self.inner.values_at(&ids)?;
        ids.into_iter()
            .zip(vals)
            .map(|(id, v)| {
                let v = v.ok_or_else(|| {
                    MoaError::Structure(format!(
                        "set index references id {id} missing from the inner IVS"
                    ))
                })?;
                Ok((id, v))
            })
            .collect()
    }

    /// The whole set as a single [`Value::Set`].
    pub fn as_value(&self) -> Result<Value> {
        Ok(Value::Set(self.materialize()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monet::atom::AtomValue;
    use monet::column::Column;

    #[test]
    fn atom_bat_ivs() {
        let s = Structure::AtomBat(Bat::new(
            Column::from_oids(vec![1, 2]),
            Column::from_strs(["a", "b"]),
        ));
        let ivs = s.materialize_ivs().unwrap();
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs[0], (1, Value::Atom(AtomValue::str("a"))));
    }

    #[test]
    fn head_uniqueness_enforced() {
        let s = Structure::AtomBat(Bat::new(
            Column::from_oids(vec![1, 1]),
            Column::from_ints(vec![5, 6]),
        ));
        assert!(s.materialize_map().is_err());
    }

    #[test]
    fn tuple_requires_synchronous() {
        let a = Structure::AtomBat(Bat::new(
            Column::from_oids(vec![1, 2]),
            Column::from_ints(vec![10, 20]),
        ));
        let b_ok = Structure::AtomBat(Bat::new(
            Column::from_oids(vec![2, 1]),
            Column::from_strs(["y", "x"]),
        ));
        let t = Structure::Tuple(vec![("n".into(), a.clone()), ("s".into(), b_ok)]);
        let map = t.materialize_map().unwrap();
        assert_eq!(
            map[&1],
            Value::Tuple(vec![Value::Atom(AtomValue::Int(10)), Value::Atom(AtomValue::str("x"))])
        );
        let b_bad =
            Structure::AtomBat(Bat::new(Column::from_oids(vec![3]), Column::from_strs(["z"])));
        let t_bad = Structure::Tuple(vec![("n".into(), a), ("s".into(), b_bad)]);
        assert!(t_bad.materialize_map().is_err());
    }

    #[test]
    fn figure3_supplier_shape() {
        // SET(Supplier, OBJECT(name, SET(supplies, TUPLE(part, cost)))).
        let name = Structure::AtomBat(Bat::new(
            Column::from_oids(vec![1, 2]),
            Column::from_strs(["S1", "S2"]),
        ));
        let part = Structure::RefBat {
            bat: Bat::new(Column::from_oids(vec![100, 101, 102]), Column::from_oids(vec![7, 8, 9])),
            class: "Part".into(),
        };
        let cost = Structure::AtomBat(Bat::new(
            Column::from_oids(vec![100, 101, 102]),
            Column::from_dbls(vec![1.0, 2.0, 3.0]),
        ));
        // supplies index: supplier 1 has supplies {100, 101}, supplier 2 {102}
        let index =
            Bat::new(Column::from_oids(vec![100, 101, 102]), Column::from_oids(vec![1, 1, 2]));
        let supplies = Structure::Set {
            index,
            inner: Box::new(Structure::Tuple(vec![("part".into(), part), ("cost".into(), cost)])),
        };
        let obj = Structure::Object {
            class: "Supplier".into(),
            fields: vec![("name".into(), name), ("supplies".into(), supplies)],
        };
        let extent = Bat::new(Column::from_oids(vec![1, 2]), Column::void(0, 2));
        let set = StructuredSet::new(extent, obj);
        assert!(set.render_contains("OBJECT"));
        let vals = set.materialize().unwrap();
        assert_eq!(vals.len(), 2);
        match &vals[0] {
            Value::Tuple(fs) => {
                assert_eq!(fs[0], Value::Atom(AtomValue::str("S1")));
                match &fs[1] {
                    Value::Set(ms) => assert_eq!(ms.len(), 2),
                    other => panic!("expected set, got {other}"),
                }
            }
            other => panic!("expected tuple, got {other}"),
        }
    }

    impl StructuredSet {
        fn render_contains(&self, s: &str) -> bool {
            self.inner.render().contains(s)
        }
    }

    #[test]
    fn empty_nested_sets_default() {
        // Supplier 2 has no supplies: the set field defaults to {}.
        let name = Structure::AtomBat(Bat::new(
            Column::from_oids(vec![1, 2]),
            Column::from_strs(["S1", "S2"]),
        ));
        let avail =
            Structure::AtomBat(Bat::new(Column::from_oids(vec![100]), Column::from_ints(vec![0])));
        let index = Bat::new(Column::from_oids(vec![100]), Column::from_oids(vec![1]));
        let supplies = Structure::Set { index, inner: Box::new(avail) };
        let obj = Structure::Object {
            class: "Supplier".into(),
            fields: vec![("name".into(), name), ("supplies".into(), supplies)],
        };
        let map = obj.materialize_map().unwrap();
        match &map[&2] {
            Value::Tuple(fs) => assert_eq!(fs[1], Value::Set(vec![])),
            other => panic!("expected tuple, got {other}"),
        }
    }

    /// `SET` over `ids` of a structure (a top-level index's heads).
    fn index_of(ids: Vec<Oid>) -> Bat {
        let n = ids.len();
        Bat::new(Column::from_oids(ids), Column::void(0, n))
    }

    fn ints(heads: Vec<Oid>, vals: Vec<i32>) -> Structure {
        Structure::AtomBat(Bat::new(Column::from_oids(heads), Column::from_ints(vals)))
    }

    #[test]
    fn fields_longer_than_the_index_give_the_index_rows() {
        // The top-k shape (Q3, Q10, Q15): every group's fields, two kept,
        // in the index's order, and the fields in orders of their own.
        let total = ints(vec![5, 6, 7, 8], vec![50, 60, 70, 80]);
        let name = Structure::AtomBat(Bat::new(
            Column::from_oids(vec![8, 7, 6, 5]),
            Column::from_strs(["h", "g", "f", "e"]),
        ));
        let t = Structure::Tuple(vec![("total".into(), total), ("name".into(), name)]);
        let set = StructuredSet::new(index_of(vec![7, 5]), t);
        let row = |n, s| {
            Value::Tuple(vec![Value::Atom(AtomValue::Int(n)), Value::Atom(AtomValue::str(s))])
        };
        assert_eq!(set.materialize().unwrap(), vec![row(70, "g"), row(50, "e")]);
        assert_eq!(set.materialize_ivs().unwrap(), vec![(7, row(70, "g")), (5, row(50, "e"))]);
        // An index id no field has is an error.
        let t = set.inner.clone();
        assert!(StructuredSet::new(index_of(vec![7, 9]), t).materialize().is_err());
    }

    #[test]
    fn nested_sets_whose_owners_the_index_restricts() {
        // Owners 1–3; the index keeps 3 and 1, and 2 has no members.
        let name = ints(vec![1, 2, 3], vec![10, 20, 30]);
        let members = ints(vec![100, 101, 102], vec![7, 8, 9]);
        let index =
            Bat::new(Column::from_oids(vec![100, 101, 102]), Column::from_oids(vec![3, 1, 3]));
        let set = Structure::Set { index, inner: Box::new(members.clone()) };
        let simple = Structure::SetSimple {
            bat: Bat::new(Column::from_oids(vec![2, 3, 3]), Column::from_ints(vec![4, 5, 6])),
        };
        let t = Structure::Tuple(vec![
            ("name".into(), name.clone()),
            ("set".into(), set),
            ("simple".into(), simple),
        ]);
        let atoms =
            |v: &[i32]| Value::Set(v.iter().map(|&x| Value::Atom(AtomValue::Int(x))).collect());
        let got = StructuredSet::new(index_of(vec![3, 1]), t).materialize().unwrap();
        assert_eq!(
            got,
            vec![
                Value::Tuple(vec![Value::Atom(AtomValue::Int(30)), atoms(&[7, 9]), atoms(&[5, 6])]),
                Value::Tuple(vec![Value::Atom(AtomValue::Int(10)), atoms(&[8]), atoms(&[])]),
            ]
        );
        // Every element of a nested set is in its inner IVS, also one whose
        // owner the index does not keep (102 belongs to owner 2 here).
        let index = Bat::new(Column::from_oids(vec![100, 103]), Column::from_oids(vec![1, 2]));
        let set = Structure::Set { index, inner: Box::new(members) };
        let t = Structure::Tuple(vec![("name".into(), name), ("set".into(), set)]);
        assert!(StructuredSet::new(index_of(vec![1]), t).materialize().is_err());
    }

    #[test]
    fn structure_errors_outside_the_index_still_fire() {
        // A duplicate id the index does not ask for.
        let dup = ints(vec![1, 2, 2], vec![5, 6, 7]);
        assert!(dup.materialize_map().is_err());
        let set = StructuredSet::new(index_of(vec![1]), dup.clone());
        assert!(set.materialize().is_err());
        let t = Structure::Tuple(vec![
            ("n".into(), ints(vec![1, 2, 3], vec![0; 3])),
            ("d".into(), dup),
        ]);
        assert!(StructuredSet::new(index_of(vec![1]), t).materialize().is_err());
        // Fields of equal length whose ids differ off the index.
        let t = Structure::Tuple(vec![
            ("a".into(), ints(vec![1, 2], vec![0, 0])),
            ("b".into(), ints(vec![1, 3], vec![0, 0])),
        ]);
        assert!(StructuredSet::new(index_of(vec![1]), t).materialize().is_err());
    }

    #[test]
    fn set_simple() {
        let s = Structure::SetSimple {
            bat: Bat::new(Column::from_oids(vec![1, 1, 2]), Column::from_ints(vec![10, 11, 20])),
        };
        let map = s.materialize_map().unwrap();
        match &map[&1] {
            Value::Set(ms) => assert_eq!(ms.len(), 2),
            other => panic!("expected set, got {other}"),
        }
    }
}
