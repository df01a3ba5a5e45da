//! # tpcd — DBGEN-equivalent generator and load pipeline
//!
//! The paper evaluates on the 1 GB TPC-D benchmark; this crate supplies
//! the substitute for the DBGEN tool (DESIGN.md §5.1) and the three-phase
//! load pipeline of Section 6:
//!
//! 1. **bulk load** — decompose the generated rows into oid-ordered
//!    attribute BATs with the `key`/`ordered`/`synced` properties set,
//!    one per field that [`schema`] declares;
//! 2. **extents + datavectors** — project out the per-class extents and
//!    create the datavector for every attribute (cheap while oid-ordered);
//! 3. **reorder** — re-sort every attribute BAT on tail values so that
//!    selections and value joins run on sorted columns.
//!
//! [`load::load_bats`] returns the MOA [`moa::catalog::Catalog`];
//! [`load::load_rowstore`] builds the n-ary baseline database.

pub mod error;
pub mod gen;
pub mod load;
pub mod schema;
pub mod store;
pub mod text;

pub use error::TpcdError;
pub use gen::{generate, try_generate, TpcdData};
pub use load::{
    load_bats, load_bats_with, load_rowstore, try_load_bats, try_load_rowstore, LoadReport,
};
pub use schema::tpcd_schema;
pub use store::{open_catalog, save_catalog, OpenedCatalog};
