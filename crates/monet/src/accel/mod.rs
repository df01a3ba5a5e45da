//! Search accelerators (Figure 2 shows them as extra heaps of a BAT).
//!
//! Monet is run-time extensible with new accelerator structures; the two
//! the TPC-D experiments rely on are the hash table and the *datavector*
//! of Section 5.2. The *run index* addresses the runs of a sorted oid
//! column by value, the layout the load's reorder on tail leaves every
//! reference attribute in.

pub mod datavector;
pub mod hash;
pub mod runs;
