//! Typed errors for the generator and the load pipeline.
//!
//! A malformed or truncated world (bad scale factor, dangling references,
//! non-dense extents, mis-sorted set indexes) must degrade into a typed
//! error the caller can report, never a panic inside the loader or a
//! silently corrupt catalog whose `dense`/`sorted` property claims are
//! wrong.

use std::fmt;

/// Errors raised while generating or loading a TPC-D world.
#[derive(Debug, Clone, PartialEq)]
pub enum TpcdError {
    /// Scale factor is not a finite positive number.
    InvalidScaleFactor { sf: f64 },
    /// The world data violates an invariant the loader depends on.
    Malformed { table: String, detail: String },
    /// A persistent store directory failed to write, or failed validation
    /// on open (bad magic/version, checksum mismatch, truncation,
    /// descriptor inconsistency). Carries the kernel's typed store error;
    /// nothing is registered into a catalog when this is raised.
    Store(monet::error::MonetError),
}

impl fmt::Display for TpcdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TpcdError::InvalidScaleFactor { sf } => {
                write!(f, "scale factor must be a finite positive number, got {sf}")
            }
            TpcdError::Malformed { table, detail } => {
                write!(f, "malformed world: table {table}: {detail}")
            }
            TpcdError::Store(e) => write!(f, "persistent store: {e}"),
        }
    }
}

impl std::error::Error for TpcdError {}

impl From<monet::error::MonetError> for TpcdError {
    fn from(e: monet::error::MonetError) -> TpcdError {
        TpcdError::Store(e)
    }
}

/// Result alias for the tpcd crate.
pub type Result<T> = std::result::Result<T, TpcdError>;
