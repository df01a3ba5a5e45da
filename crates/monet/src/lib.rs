//! # monet — a binary-relational database kernel
//!
//! A from-scratch Rust implementation of the Monet database kernel as
//! described in *Boncz, Wilschut, Kersten: "Flattening an Object Algebra to
//! Provide Performance" (ICDE 1998)*, Section 2/4.2/5. Monet stores all
//! data in **Binary Association Tables** ([`Bat`], Figure 2) — two-column
//! tables of atomic values — and executes queries with a small algebra of
//! bulk operators ([`ops`], Figure 4) driven by **property management** and
//! **dynamic optimization**: every command inspects the `ordered`/`key`/
//! `synced` properties and the accelerators of its operands just before
//! execution and picks the cheapest implementation.
//!
//! The pieces:
//!
//! * [`atom`] — the extensible base types (`int`, `dbl`, `str`, `oid`,
//!   `date`, the virtual `void`, …);
//! * [`column`], [`strheap`] — dense array heaps, string heaps, zero-copy
//!   slicing and mirroring;
//! * [`bat`], [`props`] — the BAT descriptor and its guarded properties;
//! * [`ops`] — the BAT algebra: select, join, semijoin, unique, group,
//!   multiplex `[f]`, set-aggregate `{g}`, set ops, sort/topn/mark;
//! * [`typed`] — the typed-kernel layer: resolve a column's element type
//!   **once per operator call** and monomorphize the loop body
//!   (`for_each_typed!`), so hot loops run over plain `&[T]` slices;
//! * [`accel`] — search accelerators: hash tables and the **datavector**
//!   (Section 5.2) with its memoized positional LOOKUP;
//! * [`mil`] — MIL programs: the straight-line execution language emitted
//!   by the MOA translator, with interpreter and Figure-10-style tracing;
//! * [`db`] — the persistent BAT catalog;
//! * [`pager`] — the simulated virtual-memory pager counting page faults;
//! * [`costmodel`] — the analytic IO cost model of Section 5.2.2 (Fig 8),
//!   plus the main-memory dispatch thresholds (compact domains,
//!   spilling);
//! * [`gov`] — the resource governor: per-query memory budgets,
//!   cooperative cancellation and deadlines, and the deterministic fault
//!   injector whose probe points double as the cancellation points;
//! * [`config`] — the one [`config::EngineConfig`] every `FLATALG_*` knob
//!   is parsed into and every layer above reads.
//!
//! ```
//! use monet::prelude::*;
//!
//! // Build the Customer_name BAT of Figure 2 and select a value.
//! let bat = Bat::with_inferred_props(
//!     Column::from_oids(vec![101, 102, 103, 104]),
//!     Column::from_strs(["Annita", "Martin", "Peter", "Annita"]),
//! );
//! let ctx = ExecCtx::new();
//! let martins = ops::select_eq(&ctx, &bat.mirror().mirror(), &AtomValue::str("Martin")).unwrap();
//! assert_eq!(martins.len(), 1);
//! assert_eq!(martins.head().oid_at(0), 102);
//! ```

pub mod accel;
pub mod atom;
pub mod bat;
pub mod buf;
pub mod column;
pub mod config;
pub mod costmodel;
pub mod ctx;
pub mod db;
pub mod error;
pub mod gov;
pub mod mil;
pub mod ops;
pub mod pager;
pub mod props;
pub mod spill;
pub mod store;
pub mod strheap;
pub(crate) mod sync;
pub mod typed;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::atom::{AtomType, AtomValue, Date, Oid};
    pub use crate::bat::Bat;
    pub use crate::column::Column;
    pub use crate::config::EngineConfig;
    pub use crate::ctx::ExecCtx;
    pub use crate::db::Db;
    pub use crate::error::{MonetError, Result};
    pub use crate::mil::{MilArg, MilOp, MilProgram, Var};
    pub use crate::ops;
    pub use crate::ops::{AggFunc, MultArg, ScalarFunc};
    pub use crate::pager::Pager;
    pub use crate::props::{ColProps, Enc, Props};
}
