//! Error type for the Monet kernel.

use std::fmt;

use crate::atom::AtomType;

/// Errors raised by kernel operations.
///
/// BAT-algebra operations have fixed expectations about the types found in
/// the columns of their parameters (Section 4.2 of the paper); violating
/// those expectations yields a [`MonetError`] rather than a panic, so a
/// failed query aborts cleanly. The error names the operator (`op`), not
/// the MIL statement that ran it.
#[derive(Debug, Clone, PartialEq)]
pub enum MonetError {
    /// An operation received a column of the wrong atom type.
    TypeMismatch { op: &'static str, expected: AtomType, found: AtomType },
    /// Two columns that must have equal types differ.
    IncompatibleColumns { op: &'static str, left: AtomType, right: AtomType },
    /// An operation is undefined for the given atom type.
    Unsupported { op: &'static str, ty: AtomType },
    /// A BAT failed its descriptor-property validation.
    InvalidProperties(String),
    /// A MIL program referenced an unknown variable or catalog name.
    UnknownName(String),
    /// A MIL variable held a scalar where a BAT was required (or vice versa).
    KindMismatch { op: &'static str, detail: String },
    /// Arithmetic error (division by zero, overflow in checked contexts).
    Arithmetic(&'static str),
    /// Malformed operand (e.g. aggregate over empty BAT with no identity).
    Malformed { op: &'static str, detail: String },
    /// The query's tracked allocations exceeded its memory budget
    /// (the configuration's `mem_budget` / [`crate::ctx::MemTracker::set_budget`]).
    /// Aborts that query only; the context stays usable.
    BudgetExceeded { op: &'static str, live_bytes: u64, budget_bytes: u64 },
    /// The query's cancellation token was triggered
    /// ([`crate::gov::CancelToken::cancel`]); observed cooperatively at the
    /// next governor probe (statement or morsel boundary).
    Cancelled,
    /// The query ran past its deadline ([`crate::gov::Governor`]); observed
    /// cooperatively at the next governor probe.
    DeadlineExceeded { site: &'static str },
    /// A deterministic injected fault (the configuration's `fault` or
    /// [`crate::gov::Governor::arm_fault`]) fired at a
    /// governor probe point.
    Injected { site: &'static str, hit: u64 },
    /// A statement waited at the service admission gate past the configured
    /// timeout and was shed instead of queueing unboundedly.
    AdmissionTimeout { waited_ms: u64 },
    /// A persistent-store file failed validation (bad magic/version,
    /// checksum mismatch, truncation, descriptor inconsistency) or an
    /// out-of-core spill file could not be written/read. `path` names the
    /// offending file where one exists.
    Store { op: &'static str, path: String, detail: String },
}

impl fmt::Display for MonetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonetError::TypeMismatch { op, expected, found } => {
                write!(f, "{op}: expected column of type {expected}, found {found}")
            }
            MonetError::IncompatibleColumns { op, left, right } => {
                write!(f, "{op}: incompatible column types {left} vs {right}")
            }
            MonetError::Unsupported { op, ty } => {
                write!(f, "{op}: unsupported for atom type {ty}")
            }
            MonetError::InvalidProperties(s) => write!(f, "invalid BAT properties: {s}"),
            MonetError::UnknownName(s) => write!(f, "unknown name: {s}"),
            MonetError::KindMismatch { op, detail } => write!(f, "{op}: {detail}"),
            MonetError::Arithmetic(s) => write!(f, "arithmetic error: {s}"),
            MonetError::Malformed { op, detail } => write!(f, "{op}: {detail}"),
            MonetError::BudgetExceeded { op, live_bytes, budget_bytes } => write!(
                f,
                "{op}: memory budget exceeded ({live_bytes} live bytes > {budget_bytes} budget)"
            ),
            MonetError::Cancelled => write!(f, "query cancelled"),
            MonetError::DeadlineExceeded { site } => {
                write!(f, "deadline exceeded (observed at {site})")
            }
            MonetError::Injected { site, hit } => {
                write!(f, "injected fault at {site} (probe hit {hit})")
            }
            MonetError::AdmissionTimeout { waited_ms } => {
                write!(f, "admission timed out after {waited_ms} ms; statement shed")
            }
            MonetError::Store { op, path, detail } => {
                if path.is_empty() {
                    write!(f, "{op}: {detail}")
                } else {
                    write!(f, "{op}: {path}: {detail}")
                }
            }
        }
    }
}

impl std::error::Error for MonetError {}

impl MonetError {
    /// True for errors raised by the resource governor (budget, deadline,
    /// cancellation, admission shedding, injected faults) as opposed to
    /// malformed programs or operands. Governor errors abort one query and
    /// leave every shared structure (gate, pool, caches) reusable.
    pub fn is_governor(&self) -> bool {
        matches!(
            self,
            MonetError::BudgetExceeded { .. }
                | MonetError::Cancelled
                | MonetError::DeadlineExceeded { .. }
                | MonetError::Injected { .. }
                | MonetError::AdmissionTimeout { .. }
        )
    }
}

/// The fallible-execution error type threaded through the MIL interpreter
/// and the hot operator entry points. Alias of [`MonetError`]: the governor
/// variants (budget / cancel / deadline / injected / shed) extend the
/// original operand-shape errors rather than forming a second hierarchy.
pub type ExecError = MonetError;

/// Convenience result alias used throughout the kernel.
pub type Result<T> = std::result::Result<T, MonetError>;
