//! The MIL plan optimizer: rewrite translated programs before they run.
//!
//! The paper's performance story is two-layered: fast BAT kernels *and*
//! MIL programs that exploit descriptor properties (Section 5.1) to take
//! cheaper algebraic forms. The MOA translator emits naive straight-line
//! programs — it re-emits the same `load`/`mirror`/`join` chains per
//! attribute hop and evaluates selections wherever the rewrite rule put
//! them. This module closes the gap with a small pass pipeline over
//! [`MilProgram`]s, run to a fixpoint:
//!
//! * [`fold`] — constant folding: inline scalar constants into multiplex
//!   arguments, evaluate all-constant multiplexes at plan time, dissolve
//!   `mirror(mirror(x))` chains and idempotent re-semijoins;
//! * [`cse`] — common-subexpression elimination: hash-cons structurally
//!   identical statements (fresh-oid drawing ops are exempt — two
//!   identical `group`s produce different oid ranges);
//! * [`pushdown`] — move tail selections below `join`/`semijoin` where
//!   head/tail provenance keeps the result bit-identical;
//! * [`dce`] — dead-code elimination with variable renumbering, so the
//!   interpreter's free-at-last-use accounting is recomputed against the
//!   rewritten program;
//! * [`pin`] — property-driven algorithm pinning (after the fixpoint):
//!   propagate `ColProps` and column types through the program with the
//!   *same rules the kernels use at run time* ([`infer`]) and annotate
//!   statements whose implementation choice is already decided — e.g.
//!   dense-head fetch joins and merge joins on sorted operands — so the
//!   interpreter skips the per-operator re-derivation.
//!
//! Every pass is **order-preserving and bit-identity-preserving**: an
//! optimized program produces exactly the value stream of the raw program
//! (floating-point aggregation orders included). What the optimizer may
//! consult is the [`PlanConfig`] it is handed: `opt: Off` makes callers
//! skip it entirely and run the translator's raw emission, `explain`
//! prints before/after plans with per-pass statement deltas to stderr,
//! and `fuse: false` stops short of the fusion pass.

mod cse;
mod dce;
mod fold;
mod fuse;
mod infer;
mod pin;
mod pushdown;

pub use infer::{infer_shapes, Shape};

use crate::config::PlanConfig;
use crate::db::Db;

use super::ast::{MilProgram, Var};
use super::print::render_program;

/// How hard the optimizer works. `Off` reproduces the raw translator
/// emission byte for byte; `Full` runs the whole pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptLevel {
    Off,
    Full,
}

impl OptLevel {
    pub fn enabled(self) -> bool {
        matches!(self, OptLevel::Full)
    }
}

thread_local! {
    /// Cumulative (raw, optimized) statement counts of every `optimize`
    /// call on this thread — the EXPLAIN counters the plan-level
    /// acceptance tests aggregate over a query batch.
    static CUMULATIVE: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// Reset this thread's cumulative EXPLAIN counters.
pub fn reset_cumulative() {
    CUMULATIVE.with(|c| c.set((0, 0)));
}

/// This thread's cumulative `(raw, optimized)` executed-statement counts
/// across all `optimize` calls since the last [`reset_cumulative`].
pub fn cumulative() -> (u64, u64) {
    CUMULATIVE.with(|c| c.get())
}

/// One pass execution record (a line of the EXPLAIN output).
#[derive(Debug, Clone)]
pub struct PassDelta {
    pub pass: &'static str,
    pub round: usize,
    /// Rewrites the pass applied (0 = no change).
    pub applied: usize,
    /// Program length after the pass ran.
    pub stmts_after: usize,
}

/// What the optimizer did to one program.
#[derive(Debug, Clone, Default)]
pub struct OptReport {
    pub stmts_before: usize,
    pub stmts_after: usize,
    pub rounds: usize,
    /// Statements carrying an algorithm pin after the pin pass.
    pub pins: usize,
    pub deltas: Vec<PassDelta>,
}

impl OptReport {
    /// Fraction of statements eliminated (0.0 when nothing changed).
    pub fn reduction(&self) -> f64 {
        if self.stmts_before == 0 {
            return 0.0;
        }
        1.0 - self.stmts_after as f64 / self.stmts_before as f64
    }

    /// Render the EXPLAIN text: header with statement-count delta, one
    /// line per pass per round, then the before/after listings.
    pub fn render(&self, before: &str, after: &str) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "plan optimizer: {} -> {} statements ({:+.1}%), {} rounds, {} pins",
            self.stmts_before,
            self.stmts_after,
            -100.0 * self.reduction(),
            self.rounds,
            self.pins,
        );
        for d in &self.deltas {
            let _ = writeln!(
                s,
                "  round {} {:<10} applied {:>3}  -> {} stmts",
                d.round, d.pass, d.applied, d.stmts_after
            );
        }
        s.push_str("before:\n");
        for line in before.lines() {
            let _ = writeln!(s, "  {line}");
        }
        s.push_str("after:\n");
        for line in after.lines() {
            let _ = writeln!(s, "  {line}");
        }
        s
    }
}

/// Context handed to every pass.
pub(crate) struct PassCtx<'a> {
    /// Catalog the program's `load`s resolve against — the source of
    /// static properties and column types.
    pub db: &'a Db,
    /// Variables the caller reads after execution (result index, structure
    /// BATs): never removed, never repurposed.
    pub roots: Vec<Var>,
}

/// What one pass did: rewrite count, plus a variable remapping when the
/// pass aliased or renumbered variables (`remap[old] = Some(new)`; `None`
/// marks a removed variable).
pub(crate) struct PassEffect {
    pub applied: usize,
    pub remap: Option<Vec<Option<Var>>>,
}

impl PassEffect {
    pub fn unchanged() -> PassEffect {
        PassEffect { applied: 0, remap: None }
    }
}

/// A rewrite pass over a well-formed straight-line program (statement
/// `i` defines variable `i`; operands reference earlier statements).
/// Passes must preserve that invariant and the program's value stream.
pub(crate) trait Pass {
    fn name(&self) -> &'static str;
    fn run(&self, prog: &mut MilProgram, cx: &PassCtx) -> PassEffect;
}

/// The optimized program plus the variable remapping the caller needs to
/// re-point its result/structure variables.
pub struct OptOutcome {
    pub prog: MilProgram,
    remap: Vec<Option<Var>>,
    pub report: OptReport,
}

impl OptOutcome {
    /// Where an original-program variable lives in the optimized program.
    /// Panics if the variable was eliminated — callers pass everything
    /// they will read as `roots`, and roots always survive.
    pub fn var(&self, original: Var) -> Var {
        self.remap[original].unwrap_or_else(|| panic!("mil var {original} was optimized away"))
    }
}

/// Fixpoint guard: each round must shrink or stop; translated TPC-D
/// programs settle in 2-3 rounds.
const MAX_ROUNDS: usize = 8;

/// Optimize `prog` (callers skip this call at `cfg.opt == Off`). `roots`
/// are the variables the caller will read after execution (they survive
/// every pass); `db` is the catalog `load`s resolve against. Also
/// accumulates the per-thread EXPLAIN counters and, when `cfg.explain` is
/// on, prints the report to stderr.
pub fn optimize(prog: MilProgram, roots: &[Var], db: &Db, cfg: &PlanConfig) -> OptOutcome {
    let explain = cfg.explain;
    let before_listing = if explain { render_program(&prog) } else { String::new() };
    let mut prog = prog;
    let mut report =
        OptReport { stmts_before: prog.len(), stmts_after: prog.len(), ..OptReport::default() };
    let mut remap: Vec<Option<Var>> = (0..prog.len()).map(Some).collect();
    let mut roots: Vec<Var> = roots.to_vec();
    let passes: [&dyn Pass; 4] = [&fold::Fold, &cse::Cse, &pushdown::Pushdown, &dce::Dce];
    for round in 1..=MAX_ROUNDS {
        report.rounds = round;
        let mut round_applied = 0;
        for pass in passes {
            let cx = PassCtx { db, roots: roots.clone() };
            let eff = pass.run(&mut prog, &cx);
            if let Some(m) = &eff.remap {
                for slot in remap.iter_mut() {
                    *slot = slot.and_then(|v| m[v]);
                }
                for r in roots.iter_mut() {
                    *r = m[*r].expect("optimizer pass eliminated a root variable");
                }
            }
            round_applied += eff.applied;
            report.deltas.push(PassDelta {
                pass: pass.name(),
                round,
                applied: eff.applied,
                stmts_after: prog.len(),
            });
        }
        if round_applied == 0 {
            break;
        }
    }
    report.pins = pin::run(&mut prog, db);
    // Pipeline fusion runs last (unless configured off for an oracle run):
    // it consumes the final statement shapes *and* the pins — a
    // binary-search-pinned select stays staged, and pins on fused-away
    // statements dissolve with them.
    if cfg.fuse {
        let cx = PassCtx { db, roots: roots.clone() };
        let pass = fuse::Fuse;
        let eff = pass.run(&mut prog, &cx);
        if let Some(m) = &eff.remap {
            for slot in remap.iter_mut() {
                *slot = slot.and_then(|v| m[v]);
            }
            for r in roots.iter_mut() {
                *r = m[*r].expect("fuse pass eliminated a root variable");
            }
        }
        if eff.applied > 0 {
            report.deltas.push(PassDelta {
                pass: pass.name(),
                round: report.rounds,
                applied: eff.applied,
                stmts_after: prog.len(),
            });
        }
    }
    report.stmts_after = prog.len();
    CUMULATIVE.with(|c| {
        let (b, a) = c.get();
        c.set((b + report.stmts_before as u64, a + report.stmts_after as u64));
    });
    if explain {
        eprintln!("{}", report.render(&before_listing, &render_program(&prog)));
    }
    OptOutcome { prog, remap, report }
}
