//! The persistent BAT catalog.
//!
//! A loaded database is a set of named BATs (the vertical decomposition of
//! the MOA classes, Figure 3) plus their accelerators. The catalog is what
//! MIL `load` statements resolve against.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::bat::Bat;
use crate::error::{MonetError, Result};

static NEXT_DB_ID: AtomicU64 = AtomicU64::new(1);

/// Named collection of persistent BATs.
///
/// Every catalog carries a process-unique `id` and a monotonically
/// increasing `epoch` that bumps on any mutation reachable through the
/// catalog (`register`, and `get_mut` — which hands out the hook used to
/// attach accelerators). Plan caches key on `(id, epoch)`, so a catalog
/// change silently invalidates every plan compiled against the old state:
/// the optimizer's fold and pushdown passes read the catalog's
/// properties, types and accelerators, and a plan's rewrites are only
/// valid for the state they were read from.
pub struct Db {
    bats: BTreeMap<String, Bat>,
    id: u64,
    epoch: u64,
}

impl Default for Db {
    fn default() -> Db {
        Db::new()
    }
}

impl Db {
    pub fn new() -> Db {
        Db { bats: BTreeMap::new(), id: NEXT_DB_ID.fetch_add(1, Ordering::Relaxed), epoch: 0 }
    }

    /// Process-unique identity of this catalog (plan-cache key part).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Mutation counter: bumps whenever the catalog's contents may have
    /// changed (plan-cache key part).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Register (or replace) a persistent BAT under `name`.
    pub fn register(&mut self, name: &str, bat: Bat) {
        self.epoch += 1;
        self.bats.insert(name.to_string(), bat);
    }

    /// Look up a BAT by name.
    pub fn get(&self, name: &str) -> Result<&Bat> {
        self.bats.get(name).ok_or_else(|| MonetError::UnknownName(name.to_string()))
    }

    /// Mutable access, for attaching accelerators after load.
    ///
    /// Accelerators feed the optimizer's property inference (e.g.
    /// datavector provenance), so handing out mutable access counts as a
    /// potential catalog change and bumps the epoch.
    pub fn get_mut(&mut self, name: &str) -> Result<&mut Bat> {
        self.epoch += 1;
        self.bats.get_mut(name).ok_or_else(|| MonetError::UnknownName(name.to_string()))
    }

    /// Re-encode the tail of a registered BAT into a compressed layout
    /// (see [`crate::column::Column::encode`]); `sorted` unlocks RLE when
    /// the caller knows the tail ascends. No-op (and no epoch bump) when no
    /// encoding pays off. A successful re-encode replaces the stored BAT
    /// and goes through [`register`](Db::register), so the epoch bumps and
    /// every plan compiled against the raw layout is silently invalidated.
    pub fn reencode_tail(&mut self, name: &str, sorted: bool) -> Result<bool> {
        let bat = self.get(name)?;
        let enc = bat.tail().encode(sorted);
        if enc.encoding() == crate::props::Enc::None {
            return Ok(false);
        }
        let props = bat.props();
        let replacement = Bat::with_props(bat.head().clone(), enc, props);
        self.register(name, replacement);
        Ok(true)
    }

    pub fn contains(&self, name: &str) -> bool {
        self.bats.contains_key(name)
    }

    /// Iterate all (name, BAT) pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Bat)> {
        self.bats.iter().map(|(n, b)| (n.as_str(), b))
    }

    pub fn len(&self) -> usize {
        self.bats.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bats.is_empty()
    }

    /// Total base-data bytes (column heaps, without accelerators).
    pub fn bytes(&self) -> usize {
        self.bats.values().map(Bat::bytes).sum()
    }

    /// Total datavector bytes (Figure 9 reports them separately: "300MB in
    /// data vectors, 1.3GB as base data").
    pub fn datavector_bytes(&self) -> usize {
        self.bats.values().filter_map(|b| b.accel().datavector.as_ref()).map(|dv| dv.bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    #[test]
    fn register_and_lookup() {
        let mut db = Db::new();
        db.register(
            "Supplier_name",
            Bat::new(Column::from_oids(vec![1]), Column::from_strs(["Acme"])),
        );
        assert!(db.contains("Supplier_name"));
        assert_eq!(db.get("Supplier_name").unwrap().len(), 1);
        assert!(db.get("Supplier_phone").is_err());
        assert_eq!(db.len(), 1);
        assert!(db.bytes() > 0);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut db = Db::new();
        for name in ["b", "a", "c"] {
            db.register(name, Bat::new(Column::void(0, 0), Column::void(0, 0)));
        }
        let names: Vec<&str> = db.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}
