//! The TPC-D database of Figure 1, declared once.
//!
//! [`stored_classes`] lists every stored class — the seven classes of
//! Figure 1 and the tuples of `Supplier.supplies` — with each field's
//! name, MOA type and the column the generated rows give it. Everything
//! else is read off that list: [`tpcd_schema`], the BAT loader and the
//! n-ary loader of [`crate::load`], and the world checks of
//! [`crate::load::validate`].

use std::sync::OnceLock;

use moa::catalog::Catalog;
use moa::types::{ClassDef, Field, MoaType, Schema};
use monet::atom::{AtomType, Date, Oid};
use monet::column::Column;
use monet::strheap::StrHeapBuilder;

use crate::gen::TpcdData;

/// How a field of a stored class reads its value off one generated row.
enum Get<R> {
    /// A reference to an object of the named class.
    Ref(&'static str, fn(&R) -> Oid),
    Int(fn(&R) -> i32),
    Dbl(fn(&R) -> f64),
    Chr(fn(&R) -> u8),
    Date(fn(&R) -> Date),
    /// A string; `true` stores each distinct value once in the heap (the
    /// few-valued fields).
    Str(fn(&R) -> &str, bool),
    /// A set of the rows of the named stored class: a class's objects, or
    /// (`Class.set`) the tuples declared as this field's members.
    Set(&'static str),
}

type Build = Box<dyn Fn(&TpcdData) -> Column + Send + Sync>;

/// How one field of a stored class is held.
pub(crate) enum Stored {
    /// A base-typed or reference field: its type and its column, in oid
    /// order.
    Column(MoaType, Build),
    /// A set of the rows of the named stored class.
    Set(&'static str),
}

pub(crate) struct StoredField {
    pub name: &'static str,
    pub stored: Stored,
}

impl StoredField {
    /// Whether this is a reference to an object of class `class` — for a
    /// set member, the reference to its owner.
    pub fn refers_to(&self, class: &str) -> bool {
        matches!(&self.stored, Stored::Column(MoaType::Object(c), _) if c == class)
    }

    /// For a set, the stored class whose rows are its members.
    pub fn members(&self) -> Option<&'static StoredClass> {
        let Stored::Set(of) = self.stored else { return None };
        Some(stored_classes().iter().find(|c| c.name == of).expect("a declared class"))
    }
}

/// A class extent, or the tuples of a set-of-tuples field. Each member of
/// a set — an object or a tuple — holds one reference to its owner, and
/// the set index is read off it.
pub(crate) struct StoredClass {
    /// `Class`, or `Class.set` for set tuples.
    name: &'static str,
    pub class: &'static str,
    /// For set tuples, the field of `class` they are the members of.
    pub set: Option<&'static str>,
    /// The n-ary baseline's table.
    pub table: &'static str,
    pub fields: Vec<StoredField>,
    oids: Build,
}

impl StoredClass {
    /// The class's extent BAT, or for set tuples the set index.
    pub fn bat(&self) -> String {
        match self.set {
            None => Catalog::extent_name(self.class),
            Some(set) => Catalog::attr_name(self.class, set),
        }
    }

    /// The BAT of one of the class's fields, or of one member field.
    pub fn field_bat(&self, field: &str) -> String {
        match self.set {
            None => Catalog::attr_name(self.class, field),
            Some(set) => Catalog::member_name(self.class, set, field),
        }
    }

    /// Build the oid column and every base and reference field's column
    /// from the generated rows (Phase 1 of both loaders).
    pub fn build(&'static self, data: &TpcdData) -> Built {
        let oids = (self.oids)(data);
        let cols = self
            .fields
            .iter()
            .filter_map(|f| match &f.stored {
                Stored::Column(_, build) => Some((f, build(data))),
                _ => None,
            })
            .collect();
        Built { class: self, oids, cols }
    }

    fn moa_type(&self, field: &StoredField) -> MoaType {
        match &field.stored {
            Stored::Column(ty, _) => ty.clone(),
            Stored::Set(_) => {
                let members = field.members().expect("a set");
                if members.set.is_none() {
                    return MoaType::set_of(MoaType::Object(members.class.into()));
                }
                let fields = members.fields.iter().filter(|f| !f.refers_to(self.class));
                MoaType::set_of(MoaType::Tuple(
                    fields.map(|f| Field::new(f.name, members.moa_type(f))).collect(),
                ))
            }
        }
    }
}

/// A stored class's columns, in oid order.
pub(crate) struct Built {
    pub class: &'static StoredClass,
    pub oids: Column,
    /// The base and reference fields, in declaration order.
    pub cols: Vec<(&'static StoredField, Column)>,
}

impl Built {
    /// A set member's reference to its owner, of class `owner`, and its
    /// column.
    pub fn owner(&self, owner: &str) -> &(&'static StoredField, Column) {
        let found = self.cols.iter().find(|(f, _)| f.refers_to(owner));
        found.expect("a set member references its owner")
    }
}

fn str_col<'b>(items: impl Iterator<Item = &'b str>, dedup: bool) -> Column {
    let push = if dedup { StrHeapBuilder::push_dedup } else { StrHeapBuilder::push };
    let mut b = StrHeapBuilder::new();
    items.for_each(|s| push(&mut b, s));
    Column::from_strvec(b.finish())
}

/// A stored class being declared: its names and its generated rows.
struct Rows<R> {
    class: &'static str,
    table: &'static str,
    rows: fn(&TpcdData) -> &Vec<R>,
    oid: fn(&R) -> Oid,
}

/// Declare the stored class `class` (`Class.set` for the tuples of a set),
/// stored in the n-ary `table`, whose objects are `rows`.
fn class<R>(
    class: &'static str,
    table: &'static str,
    rows: fn(&TpcdData) -> &Vec<R>,
    oid: fn(&R) -> Oid,
) -> Rows<R> {
    Rows { class, table, rows, oid }
}

/// The column of one field of `rows`, in oid order.
fn column<R: 'static, T: 'static>(
    rows: fn(&TpcdData) -> &Vec<R>,
    get: fn(&R) -> T,
    make: fn(Vec<T>) -> Column,
) -> Build {
    Box::new(move |d| make(rows(d).iter().map(get).collect()))
}

impl<R: 'static> Rows<R> {
    fn fields(self, fields: Vec<(&'static str, Get<R>)>) -> StoredClass {
        let Rows { class, table, rows, oid } = self;
        let base = |ty, build| Stored::Column(MoaType::Base(ty), build);
        let fields = fields.into_iter().map(|(name, get)| {
            let stored = match get {
                Get::Ref(of, f) => {
                    Stored::Column(MoaType::Object(of.into()), column(rows, f, Column::from_oids))
                }
                Get::Int(f) => base(AtomType::Int, column(rows, f, Column::from_ints)),
                Get::Dbl(f) => base(AtomType::Dbl, column(rows, f, Column::from_dbls)),
                Get::Chr(f) => base(AtomType::Chr, column(rows, f, Column::from_chrs)),
                Get::Date(f) => base(AtomType::Date, column(rows, f, Column::from_dates)),
                Get::Str(f, dedup) => {
                    base(AtomType::Str, Box::new(move |d| str_col(rows(d).iter().map(f), dedup)))
                }
                Get::Set(of) => Stored::Set(of),
            };
            StoredField { name, stored }
        });
        let (name, fields) = (class, fields.collect());
        let (class, set) = match name.split_once('.') {
            Some((class, set)) => (class, Some(set)),
            None => (name, None),
        };
        StoredClass { name, class, set, table, fields, oids: column(rows, oid, Column::from_oids) }
    }
}

/// Every stored class of the TPC-D database, in load order, with the
/// n-ary baseline's table names.
pub(crate) fn stored_classes() -> &'static [StoredClass] {
    static CLASSES: OnceLock<Vec<StoredClass>> = OnceLock::new();
    CLASSES.get_or_init(|| {
        use Get::*;
        vec![
            class("Region", "region", |d| &d.regions, |r| r.oid).fields(vec![
                ("name", Str(|r| &r.name, false)),
                ("comment", Str(|r| &r.comment, false)),
            ]),
            class("Nation", "nation", |d| &d.nations, |n| n.oid).fields(vec![
                ("name", Str(|n| &n.name, false)),
                ("region", Ref("Region", |n| n.region)),
            ]),
            class("Part", "part", |d| &d.parts, |p| p.oid).fields(vec![
                ("name", Str(|p| &p.name, true)),
                ("manufacturer", Str(|p| &p.manufacturer, true)),
                ("brand", Str(|p| &p.brand, true)),
                ("type", Str(|p| &p.typ, true)),
                ("size", Int(|p| p.size)),
                ("container", Str(|p| &p.container, true)),
                ("retailprice", Dbl(|p| p.retailprice)),
            ]),
            class("Supplier", "supplier", |d| &d.suppliers, |s| s.oid).fields(vec![
                ("name", Str(|s| &s.name, false)),
                ("address", Str(|s| &s.address, false)),
                ("phone", Str(|s| &s.phone, false)),
                ("acctbal", Dbl(|s| s.acctbal)),
                ("nation", Ref("Nation", |s| s.nation)),
                ("supplies", Set("Supplier.supplies")),
            ]),
            class("Supplier.supplies", "partsupp", |d| &d.supplies, |s| s.oid).fields(vec![
                ("supplier", Ref("Supplier", |s| s.supplier)),
                ("part", Ref("Part", |s| s.part)),
                ("cost", Dbl(|s| s.cost)),
                ("available", Int(|s| s.available)),
            ]),
            class("Customer", "customer", |d| &d.customers, |c| c.oid).fields(vec![
                ("name", Str(|c| &c.name, false)),
                ("address", Str(|c| &c.address, false)),
                ("phone", Str(|c| &c.phone, false)),
                ("acctbal", Dbl(|c| c.acctbal)),
                ("nation", Ref("Nation", |c| c.nation)),
                ("mktsegment", Str(|c| &c.mktsegment, true)),
                ("orders", Set("Order")),
            ]),
            class("Order", "orders", |d| &d.orders, |o| o.oid).fields(vec![
                ("cust", Ref("Customer", |o| o.cust)),
                ("items", Set("Item")),
                ("status", Chr(|o| o.status)),
                ("totalprice", Dbl(|o| o.totalprice)),
                ("orderdate", Date(|o| o.orderdate)),
                ("orderpriority", Str(|o| &o.orderpriority, true)),
                ("clerk", Str(|o| &o.clerk, true)),
                ("shippriority", Str(|o| &o.shippriority, true)),
            ]),
            class("Item", "lineitem", |d| &d.items, |i| i.oid).fields(vec![
                ("part", Ref("Part", |i| i.part)),
                ("supplier", Ref("Supplier", |i| i.supplier)),
                ("order", Ref("Order", |i| i.order)),
                ("quantity", Int(|i| i.quantity)),
                ("returnflag", Chr(|i| i.returnflag)),
                ("linestatus", Chr(|i| i.linestatus)),
                ("extendedprice", Dbl(|i| i.extendedprice)),
                ("discount", Dbl(|i| i.discount)),
                ("tax", Dbl(|i| i.tax)),
                ("shipdate", Date(|i| i.shipdate)),
                ("commitdate", Date(|i| i.commitdate)),
                ("receiptdate", Date(|i| i.receiptdate)),
                ("shipmode", Str(|i| &i.shipmode, true)),
                ("shipinstruct", Str(|i| &i.shipinstruct, true)),
            ]),
        ]
    })
}

/// Build the schema of Figure 1. The `groupby` SQL statement maps to the
/// OO concepts of nesting and aggregation; the set-valued attributes
/// (`Customer.orders`, `Order.items`, `Supplier.supplies`) carry the
/// nesting.
pub fn tpcd_schema() -> Schema {
    let mut s = Schema::new();
    for c in stored_classes().iter().filter(|c| c.set.is_none()) {
        let fields = c.fields.iter().map(|f| Field::new(f.name, c.moa_type(f))).collect();
        s.add_class(ClassDef::new(c.class, fields));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_classes() {
        let s = tpcd_schema();
        assert_eq!(s.len(), 7);
        for c in ["Region", "Nation", "Part", "Supplier", "Customer", "Order", "Item"] {
            assert!(s.class(c).is_ok(), "missing {c}");
        }
    }

    #[test]
    fn navigation_paths_resolve() {
        let s = tpcd_schema();
        assert!(s.resolve_path("Item", &["order".into(), "clerk".into()]).is_ok());
        assert!(s
            .resolve_path(
                "Item",
                &["supplier".into(), "nation".into(), "region".into(), "name".into()]
            )
            .is_ok());
        assert!(s.resolve_path("Customer", &["nation".into(), "name".into()]).is_ok());
    }

    #[test]
    fn nested_attributes_have_set_types() {
        let s = tpcd_schema();
        let sup = s.class("Supplier").unwrap();
        assert!(matches!(sup.field("supplies").unwrap().ty, MoaType::Set(_)));
        let ord = s.class("Order").unwrap();
        assert!(matches!(ord.field("items").unwrap().ty, MoaType::Set(_)));
    }

    #[test]
    fn figure1_renders() {
        let s = tpcd_schema();
        let printed = s.class("Supplier").unwrap().to_string();
        assert!(printed.contains("supplies"));
        assert!(printed.contains("{<part : Part, cost : dbl, available : int>}"));
    }
}
