//! The baseline database: named tables plus their inverted-list indexes.

use std::collections::BTreeMap;

use crate::index::InvertedList;
use crate::table::Table;

/// A collection of n-ary tables with optional per-column inverted lists,
/// kept by name so that every listing is in one order.
#[derive(Default)]
pub struct RelDb {
    tables: BTreeMap<String, Table>,
    indexes: BTreeMap<(String, String), InvertedList>,
}

impl RelDb {
    pub fn new() -> RelDb {
        RelDb::default()
    }

    pub fn add_table(&mut self, table: Table) {
        self.tables.insert(table.name().to_string(), table);
    }

    /// Panics on unknown table names (schema bugs, not data errors).
    pub fn table(&self, name: &str) -> &Table {
        self.tables.get(name).unwrap_or_else(|| panic!("no table named {name}"))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Build (or rebuild) an inverted list on a column.
    pub fn build_index(&mut self, table: &str, col: &str) {
        let t = self.table(table);
        let ci = t.col_index(col).unwrap_or_else(|| panic!("table {table} has no column {col}"));
        let idx = InvertedList::build(t.col(ci));
        self.indexes.insert((table.to_string(), col.to_string()), idx);
    }

    pub fn index(&self, table: &str, col: &str) -> Option<&InvertedList> {
        self.indexes.get(&(table.to_string(), col.to_string()))
    }

    /// Total simulated table bytes.
    pub fn bytes(&self) -> usize {
        self.tables.values().map(Table::bytes).sum()
    }

    /// Total index bytes.
    pub fn index_bytes(&self) -> usize {
        self.indexes.values().map(InvertedList::bytes).sum()
    }

    /// The tables, by name.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monet::column::Column;

    #[test]
    fn tables_and_indexes() {
        let mut db = RelDb::new();
        db.add_table(Table::new("t", vec![("k".into(), Column::from_ints(vec![3, 1, 2]))]));
        assert!(db.has_table("t"));
        assert!(db.index("t", "k").is_none());
        db.build_index("t", "k");
        assert!(db.index("t", "k").is_some());
        assert!(db.bytes() > 0);
        assert!(db.index_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "no table named")]
    fn unknown_table_panics() {
        RelDb::new().table("nope");
    }
}
