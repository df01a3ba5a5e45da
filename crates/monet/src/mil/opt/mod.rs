//! The MIL plan optimizer: rewrite translated programs before they run.
//!
//! The paper's performance story is two-layered: fast BAT kernels *and*
//! MIL programs that exploit descriptor properties (Section 5.1) to take
//! cheaper algebraic forms. The MOA translator emits naive straight-line
//! programs — it re-emits the same `load`/`mirror`/`join` chains per
//! attribute hop and re-applies candidate restrictions along conjunct
//! chains. This module restores the plan shape in **one forward sweep
//! followed by one DCE**. For each statement in order:
//!
//! 1. its operands are rewritten through one `canon[]` map to the earlier
//!    statement that computes their value;
//! 2. the [`fold`] rules run on it — constant inlining/evaluation in
//!    place, then the aliasing rules (`mirror(mirror(x))`, redundant and
//!    saturated semijoins), which map it to an earlier variable;
//! 3. otherwise [`cse`] hash-conses it against the statements kept so far
//!    (fresh-oid drawing ops are exempt — two identical `group`s produce
//!    different oid ranges);
//! 4. a statement that stays its own representative gets its facts
//!    recorded — static [`Shape`] by [`infer`]'s per-statement rule,
//!    head-superset and pair-subset rows — from its canonical operands.
//!
//! [`dce`] then drops the orphans and renumbers, so the interpreter's
//! free-at-last-use accounting is recomputed against the rewritten
//! program. Every rule reads only earlier, already-canonical statements,
//! so the sweep's output is a fixpoint: optimizing it again rewrites
//! nothing. A new rule plugs in the same way — a per-statement rule over
//! earlier statements and their facts.
//!
//! There is no select-pushdown rule: the translator already selects on
//! the attribute BAT, and the one `select(semijoin(attr, cand))` it emits
//! (Figure 10, lines 3–4) must stay, because `attr` carries a datavector
//! whose semijoin emits right-operand order.
//!
//! The optimizer rewrites statements; it never chooses their algorithm.
//! Which implementation runs a statement is its operator's run-time
//! decision from the operands' descriptors (Section 5.1); the rules read
//! the same properties, propagated statically by the kernels' own rules
//! ([`infer`]), only to decide which rewrites are safe.
//!
//! Every rule is **order-preserving and bit-identity-preserving**: an
//! optimized program produces exactly the value stream of the raw program
//! (floating-point aggregation orders included). What the optimizer may
//! consult is the [`PlanConfig`] it is handed: `opt: Off` makes callers
//! skip it entirely and run the translator's raw emission, and `explain`
//! prints before/after plans with per-rule rewrite counts to stderr.

mod cse;
mod dce;
mod fold;
mod infer;

pub use infer::{infer_shapes, Shape};

use crate::config::PlanConfig;
use crate::db::Db;

use super::ast::{MilProgram, Var};
use super::print::render_program;

/// How hard the optimizer works. `Off` reproduces the raw translator
/// emission byte for byte; `Full` runs the sweep.
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

/// A rewrite rule of the sweep (a line of the EXPLAIN output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Constant inlining and plan-time evaluation of multiplexes.
    FoldConst,
    /// `mirror(mirror(x))` is `x`.
    FoldMirror,
    /// `semijoin(x, c)` is `x` when `heads(x) ⊆ heads(c)`.
    FoldRedundant,
    /// `semijoin(x, c)` is `c` when `c` is a row-subset of key-headed `x`.
    FoldSaturated,
    /// A statement merged into an identical earlier one.
    Cse,
    /// A statement no root depends on, removed.
    Dce,
}

impl Rule {
    pub const ALL: [Rule; 6] = [
        Rule::FoldConst,
        Rule::FoldMirror,
        Rule::FoldRedundant,
        Rule::FoldSaturated,
        Rule::Cse,
        Rule::Dce,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Rule::FoldConst => "fold.const",
            Rule::FoldMirror => "fold.mirror",
            Rule::FoldRedundant => "fold.redundant",
            Rule::FoldSaturated => "fold.saturated",
            Rule::Cse => "cse",
            Rule::Dce => "dce",
        }
    }
}

/// What the optimizer did to one program.
#[derive(Debug, Clone, Default)]
pub struct OptReport {
    pub stmts_before: usize,
    pub stmts_after: usize,
    /// Rewrites applied per rule, indexed by `Rule as usize`.
    applied: [usize; Rule::ALL.len()],
}

impl OptReport {
    /// Rewrites `rule` applied (0 = it never fired).
    pub fn applied(&self, rule: Rule) -> usize {
        self.applied[rule as usize]
    }

    /// Rewrites applied by all rules together.
    pub fn rewrites(&self) -> usize {
        self.applied.iter().sum()
    }

    /// Fraction of statements eliminated (0.0 when nothing changed).
    pub fn reduction(&self) -> f64 {
        if self.stmts_before == 0 {
            return 0.0;
        }
        1.0 - self.stmts_after as f64 / self.stmts_before as f64
    }

    /// Render the EXPLAIN text: header with statement-count delta, one
    /// line per rule with its rewrite count, then the before/after
    /// listings.
    pub fn render(&self, before: &str, after: &str) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "plan optimizer: {} -> {} statements ({:+.1}%)",
            self.stmts_before,
            self.stmts_after,
            -100.0 * self.reduction(),
        );
        for rule in Rule::ALL {
            let _ = writeln!(s, "  {:<14} applied {:>3}", rule.name(), self.applied(rule));
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

/// Optimize `prog` (callers skip this call at `cfg.opt == Off`). `roots`
/// are the variables the caller will read after execution (they survive
/// every rule); `db` is the catalog `load`s resolve against. Also
/// accumulates the per-thread EXPLAIN counters and, when `cfg.explain` is
/// on, prints the report to stderr.
pub fn optimize(prog: MilProgram, roots: &[Var], db: &Db, cfg: &PlanConfig) -> OptOutcome {
    let before_listing = if cfg.explain { render_program(&prog) } else { String::new() };
    let mut prog = prog;
    let n = prog.len();
    let mut report = OptReport { stmts_before: n, ..OptReport::default() };
    // canon[v] = the earlier (or same) variable computing v's value.
    let mut canon: Vec<Var> = (0..n).collect();
    let mut facts = fold::Facts::new(n);
    let mut table = cse::HashCons::new(n);
    for i in 0..n {
        prog.stmts[i].op.for_each_operand_mut(|v| *v = canon[*v]);
        report.applied[Rule::FoldConst as usize] += fold::constants(&mut prog, i);
        let merged = fold::alias(&prog, i, &facts)
            .or_else(|| table.merge(&prog, i).map(|rep| (Rule::Cse, rep)));
        match merged {
            Some((rule, rep)) => {
                canon[i] = rep;
                report.applied[rule as usize] += 1;
            }
            None => facts.record(i, &prog.stmts[i].op, db),
        }
    }
    let (removed, renumber) = dce::dce(&mut prog, roots.iter().map(|&r| canon[r]));
    report.applied[Rule::Dce as usize] = removed;
    report.stmts_after = prog.len();
    let remap = canon.iter().map(|&c| renumber[c]).collect();
    CUMULATIVE.with(|c| {
        let (b, a) = c.get();
        c.set((b + report.stmts_before as u64, a + report.stmts_after as u64));
    });
    if cfg.explain {
        eprintln!("{}", report.render(&before_listing, &render_program(&prog)));
    }
    OptOutcome { prog, remap, report }
}
