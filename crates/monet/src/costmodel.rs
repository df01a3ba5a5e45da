//! The analytic IO cost model of Section 5.2.2.
//!
//! Expected number of `B`-byte disk pages retrieved (virtual-memory page
//! faults) for a selection with selectivity `s` followed by a projection to
//! `p` attributes of an `n`-ary table with `X` rows of uniform value width
//! `w`:
//!
//! ```text
//! E_rel(s) = ceil(sX / C_inv) + ceil(X / C_rel) * (1 - (1-s)^C_rel)
//! E_dv(s)  = ceil(sX / C_bat) + (p+1) * ceil(X / C_dv) * (1 - (1-s)^C_dv)
//! C_inv = floor(B / 2w)   C_rel = floor(B / (n+1)w)
//! C_bat = floor(B / 2w)   C_dv  = floor(B / w)
//! ```
//!
//! The first term of `E_rel` is the inverted-list scan discovering the
//! qualifying tuples; the second is unclustered retrieval of the qualifying
//! rows. For the Monet/datavector strategy the first term is the selection
//! on the tail-sorted BAT and the second is `p` datavector semijoins plus
//! one extent lookup. Figure 8 plots both for the 1 GB TPC-D Item table
//! (`X = 6,000,000, n = 16, w = 4, B = 4096`).

use crate::ctx::ExecCtx;

/// Parameters of the cost model.
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Number of rows in the n-ary table (`X`).
    pub rows: u64,
    /// Number of attributes (`n`).
    pub n_attrs: u32,
    /// Uniform byte width of one value (`w`).
    pub width: u32,
    /// Page size in bytes (`B`).
    pub page_size: u32,
}

impl CostParams {
    /// The Figure 8 configuration: the 1 GB TPC-D Item table.
    pub fn figure8() -> CostParams {
        CostParams { rows: 6_000_000, n_attrs: 16, width: 4, page_size: 4096 }
    }

    /// Inverted-list entries per page: `C_inv = floor(B / 2w)`.
    pub fn c_inv(&self) -> u64 {
        (self.page_size / (2 * self.width)) as u64
    }

    /// Rows per page of the n-ary table: `C_rel = floor(B / (n+1)w)`.
    pub fn c_rel(&self) -> u64 {
        (self.page_size / ((self.n_attrs + 1) * self.width)) as u64
    }

    /// BUNs per BAT page: `C_bat = floor(B / 2w)`.
    pub fn c_bat(&self) -> u64 {
        (self.page_size / (2 * self.width)) as u64
    }

    /// Datavector values per page: `C_dv = floor(B / w)`.
    pub fn c_dv(&self) -> u64 {
        (self.page_size / self.width) as u64
    }
}

// ---------------------------------------------------------------------------
// Compact key domains: when to address a table by `key - base`.
// ---------------------------------------------------------------------------

/// Slots of a direct-addressed table one operand row may pay for. A table
/// over the key column's min/max span costs one fill pass over the span
/// plus one load per probe, so its cost per operand row grows with the
/// slots per row while the hash join's does not. Measured on one thread
/// (ns per probe + build row, `direct` / `join_hash`, all-hit shuffled
/// keys): 60k x 10k rows 2.8 / 6.1 at 1 slot per row, 3.9 / 6.4 at 8,
/// 5.3 / 6.2 at 16, 8.6 / 6.5 at 32; 600k x 600k rows 5.6 / 16.4, 10.3 /
/// 16.5, 14.8 / 16.3, 25.1 / 17.1 — `direct` leads through 16 and trails
/// from 32 on every shape tried, so the cut sits a factor of two inside
/// the crossover. `perf_report` tracks the pair at the cut
/// (`join/direct-at-cut`, `join/hash-at-cut`).
pub const DOMAIN_SLOTS_PER_ROW: usize = 8;

/// True when a key column's span ([`crate::typed::OidDomain`]) is compact
/// enough to index an array by `key - base` instead of hashing the keys.
pub fn domain_is_compact(span: usize, probe_rows: usize, build_rows: usize) -> bool {
    span <= DOMAIN_SLOTS_PER_ROW.saturating_mul(probe_rows.saturating_add(build_rows))
}

/// Take the `direct` join arm (a `u32` position per slot of the right
/// head's span): the span is compact and the table fits the budget
/// headroom. Under `spill_force` every table-building join goes to the
/// spill path instead, so the out-of-core leg keeps its coverage.
pub fn join_prefers_direct(
    ctx: &ExecCtx,
    span: usize,
    probe_rows: usize,
    build_rows: usize,
) -> bool {
    !ctx.config().spill_force
        && domain_is_compact(span, probe_rows, build_rows)
        && !overflows_headroom(&ctx.mem, 4 * span as u64)
}

/// Take the `bitmap` semijoin/antijoin arm (one bit per slot of the right
/// head's span) — same rule as [`join_prefers_direct`]; there is no
/// spilling semijoin to defer to.
pub fn semijoin_prefers_bitmap(
    ctx: &ExecCtx,
    span: usize,
    probe_rows: usize,
    build_rows: usize,
) -> bool {
    domain_is_compact(span, probe_rows, build_rows)
        && !overflows_headroom(&ctx.mem, span as u64 / 8)
}

/// Take the `direct` grouping arm (a `u32` group id per slot of the key
/// column's span, [`crate::typed::SlotTable`]) — the rule of
/// [`join_prefers_direct`], with the rows grouped as the only operand:
/// the span is compact, the table fits the budget headroom, and
/// `spill_force` keeps sending single-column grouping to its spill path.
/// Under budget *pressure* the order is the other way round — a slot
/// table over a compact span is the smallest working set grouping has, so
/// it is tried before [`group_prefers_spill`].
pub fn group_prefers_direct(ctx: &ExecCtx, span: usize, rows: usize) -> bool {
    !ctx.config().spill_force && group_prefers_packed(ctx, span, rows)
}

/// Take the `packed` arm of pair grouping and pair dedup (`group2`,
/// `unique`): one slot per key of the *product* span, addressed by
/// `slot_a * span_b + slot_b`. Same rule as [`group_prefers_direct`];
/// there is no spilling pair grouping to defer to.
pub fn group_prefers_packed(ctx: &ExecCtx, span: usize, rows: usize) -> bool {
    domain_is_compact(span, rows, 0) && !overflows_headroom(&ctx.mem, 4 * span as u64)
}

// ---------------------------------------------------------------------------
// Out-of-core strategy: when to spill the radix partitions to disk.
// ---------------------------------------------------------------------------

/// Transient working-set estimate of an in-memory join, the headroom test
/// of [`join_prefers_spill`]: 12 bytes/row on each side plus 8 bytes/row
/// of matches presized to the probe side (sized on the radix join's
/// clusters held in memory: 8-byte pairs with 1.5x padding).
pub fn join_inmem_bytes(probe_rows: usize, build_rows: usize) -> u64 {
    12 * (probe_rows as u64 + build_rows as u64) + 8 * probe_rows as u64
}

/// Transient working-set estimate of the in-memory hash grouping: the
/// [`crate::typed::GroupTable`] bucket array (2x rows of u32) plus chain
/// link, representative, and hash per group (worst case one group per
/// row: 8 + 16 bytes/row).
pub fn group_inmem_bytes(rows: usize) -> u64 {
    24 * rows as u64
}

/// True when the working-set `estimate` does not fit the budget headroom
/// the tracker has left. No budget (0) means unlimited memory: never
/// spill on the auto path.
fn overflows_headroom(mem: &crate::ctx::MemTracker, estimate: u64) -> bool {
    let budget = mem.budget_bytes();
    budget != 0 && estimate > budget.saturating_sub(mem.charged_bytes())
}

/// Spill the radix join's partitions to disk when its in-memory working
/// set ([`join_inmem_bytes`]) won't fit what is left of the query's byte
/// budget, or always under `spill_force`. The spilling join is
/// bit-identical to the in-memory paths, so this is purely a resource
/// decision.
pub fn join_prefers_spill(ctx: &ExecCtx, probe_rows: usize, build_rows: usize) -> bool {
    ctx.config().spill_force
        || overflows_headroom(&ctx.mem, join_inmem_bytes(probe_rows, build_rows))
}

/// Give the spilling join its build-side hash filter (a byte per build
/// row, rounded up to a power of two) when the filter fits the budget
/// headroom. A probe row the filter drops saves a staged pair, a spill
/// write and a read-back. The join is correct without it, so under memory
/// pressure it is the first thing to go.
pub fn join_prefers_filter(ctx: &ExecCtx, build_rows: usize) -> bool {
    !overflows_headroom(&ctx.mem, build_rows.next_power_of_two() as u64)
}

/// Spill hash grouping's partitions to disk (same contract as
/// [`join_prefers_spill`]: resource decision only, identical results).
pub fn group_prefers_spill(ctx: &ExecCtx, rows: usize) -> bool {
    ctx.config().spill_force || overflows_headroom(&ctx.mem, group_inmem_bytes(rows))
}

fn ceil_div_f(x: f64, c: u64) -> f64 {
    (x / c as f64).ceil()
}

/// Probability-weighted unclustered page count:
/// `ceil(X/C) * (1 - (1-s)^C)`.
fn unclustered(rows: u64, per_page: u64, s: f64) -> f64 {
    ceil_div_f(rows as f64, per_page) * (1.0 - (1.0 - s).powi(per_page as i32))
}

/// Expected page faults of the relational (non-decomposed) strategy.
pub fn e_rel(p: &CostParams, s: f64) -> f64 {
    ceil_div_f(s * p.rows as f64, p.c_inv()) + unclustered(p.rows, p.c_rel(), s)
}

/// Expected page faults of the Monet datavector strategy projecting to
/// `proj` attributes.
pub fn e_dv(p: &CostParams, s: f64, proj: u32) -> f64 {
    ceil_div_f(s * p.rows as f64, p.c_bat()) + (proj + 1) as f64 * unclustered(p.rows, p.c_dv(), s)
}

/// Find (by bisection) the selectivity below which the relational strategy
/// is cheaper — the crossover point discussed in Section 5.2.2 ("the
/// crossover point for n=16, p=3 is at s ≈ 0.004").
pub fn crossover(p: &CostParams, proj: u32) -> Option<f64> {
    let f = |s: f64| e_dv(p, s, proj) - e_rel(p, s);
    // Scan for a sign change on (0, 0.5].
    let mut prev_s = 1e-6;
    let mut prev = f(prev_s);
    let mut bracket = None;
    for i in 1..=5000 {
        let s = 1e-6 + i as f64 * 1e-4;
        let cur = f(s);
        if prev.signum() != cur.signum() {
            bracket = Some((prev_s, s));
            break;
        }
        prev_s = s;
        prev = cur;
    }
    let (mut lo, mut hi) = bracket?;
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if f(lo).signum() == f(mid).signum() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;

    #[test]
    fn per_page_counts() {
        let p = CostParams::figure8();
        assert_eq!(p.c_inv(), 512);
        assert_eq!(p.c_rel(), 60); // 4096 / (17*4) = 60.2
        assert_eq!(p.c_bat(), 512);
        assert_eq!(p.c_dv(), 1024);
    }

    #[test]
    fn zero_selectivity_costs_nothing_unclustered() {
        let p = CostParams::figure8();
        assert_eq!(e_rel(&p, 0.0), 0.0);
        assert_eq!(e_dv(&p, 0.0, 3), 0.0);
    }

    #[test]
    fn full_selectivity_reads_everything() {
        let p = CostParams::figure8();
        // At s=1 the relational strategy reads the inverted list plus every
        // data page once.
        let expect = (6_000_000f64 / 512.0).ceil() + (6_000_000f64 / 60.0).ceil();
        assert!((e_rel(&p, 1.0) - expect).abs() < 1.0);
    }

    #[test]
    fn datavector_wins_at_moderate_selectivity() {
        // The headline claim of Figure 8: Monet's strategy is generally
        // more efficient apart from very low selectivities.
        let p = CostParams::figure8();
        for s in [0.01, 0.02, 0.03] {
            assert!(e_dv(&p, s, 3) < e_rel(&p, s), "datavector should win at s={s}");
        }
    }

    #[test]
    fn relational_wins_at_tiny_selectivity() {
        let p = CostParams::figure8();
        assert!(e_dv(&p, 0.0005, 3) > e_rel(&p, 0.0005));
    }

    #[test]
    fn crossover_near_paper_value() {
        // Paper: crossover for n=16, p=3 at s ≈ 0.004.
        let p = CostParams::figure8();
        let s = crossover(&p, 3).expect("crossover exists");
        assert!((0.001..0.01).contains(&s), "crossover {s} should be near 0.004");
    }

    #[test]
    fn compact_domain_gate_exact_cut_points() {
        // Eight slots per operand row, probe and build counted alike.
        let rows = 1000usize;
        for (probe, build) in [(rows, 0), (0, rows), (rows / 2, rows / 2)] {
            assert!(domain_is_compact(DOMAIN_SLOTS_PER_ROW * rows, probe, build));
            assert!(!domain_is_compact(DOMAIN_SLOTS_PER_ROW * rows + 1, probe, build));
        }
        assert!(domain_is_compact(0, 0, 0), "empty operands have the empty domain");
        assert!(!domain_is_compact(1, 0, 0));
        assert!(domain_is_compact(usize::MAX, usize::MAX, usize::MAX), "no overflow");
        // The table must also fit what is left of the budget: 4 bytes per
        // slot for the join's position array, one bit for the bitmap.
        let ctx = ExecCtx::with_config(Default::default());
        let m = &ctx.mem;
        assert!(semijoin_prefers_bitmap(&ctx, 8000, rows, 0));
        m.set_budget(Some(4000));
        assert!(semijoin_prefers_bitmap(&ctx, 8000, rows, 0), "1000 bytes of bitmap fit");
        assert!(!overflows_headroom(m, 4 * 1000) && overflows_headroom(m, 4 * 1001));
        m.charge("x", 3001).unwrap();
        assert!(!semijoin_prefers_bitmap(&ctx, 8000, rows, 0), "999 bytes of headroom do not");
        m.release(3001);
    }

    #[test]
    fn spill_headroom_rule() {
        let m = crate::ctx::MemTracker::default();
        // No budget: unlimited memory, the auto path never spills.
        assert!(!overflows_headroom(&m, u64::MAX));
        m.set_budget(Some(1000));
        assert!(!overflows_headroom(&m, 1000), "exactly fitting the headroom stays in memory");
        assert!(overflows_headroom(&m, 1001));
        // Live charges shrink the headroom; releases restore it.
        m.charge("x", 400).unwrap();
        assert!(overflows_headroom(&m, 601));
        assert!(!overflows_headroom(&m, 600));
        m.release(400);
        assert!(!overflows_headroom(&m, 1000));
        // Charged past the budget: zero headroom, anything spills.
        m.set_budget(Some(10));
        m.charge("y", 50).ok();
        assert!(overflows_headroom(&m, 1));
        m.release(50);
    }

    #[test]
    fn spill_estimates_scale_with_rows() {
        assert_eq!(join_inmem_bytes(0, 0), 0);
        assert_eq!(join_inmem_bytes(1000, 500), 12 * 1500 + 8 * 1000);
        assert_eq!(group_inmem_bytes(1000), 24_000);
    }

    #[test]
    fn spill_force_overrides_the_headroom_rule() {
        let auto = ExecCtx::with_config(Default::default());
        let forced = ExecCtx::with_config(std::sync::Arc::new(EngineConfig {
            spill_force: true,
            ..EngineConfig::default()
        }));
        // Unlimited memory: only the override spills.
        assert!(!join_prefers_spill(&auto, 1000, 1000) && !group_prefers_spill(&auto, 1000));
        assert!(join_prefers_spill(&forced, 1000, 1000) && group_prefers_spill(&forced, 1000));
        // ...and it keeps table-building joins and unary grouping off their
        // compact-domain arms; pair grouping has no spill path to defer to.
        assert!(join_prefers_direct(&auto, 100, 50, 50) && group_prefers_direct(&auto, 100, 50));
        assert!(!join_prefers_direct(&forced, 100, 50, 50));
        assert!(!group_prefers_direct(&forced, 100, 50) && group_prefers_packed(&forced, 100, 50));
    }

    #[test]
    fn more_projected_attributes_cost_more() {
        let p = CostParams::figure8();
        let s = 0.01;
        assert!(e_dv(&p, s, 1) < e_dv(&p, s, 3));
        assert!(e_dv(&p, s, 3) < e_dv(&p, s, 12));
    }
}
