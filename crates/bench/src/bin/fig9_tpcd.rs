//! Figure 9: the TPC-D results table.
//!
//! Runs every query on the Monet/MOA path and on the n-ary baseline
//! (standing in for the DB2 column), printing elapsed time, intermediate-
//! result and peak memory, Item selectivity and page faults, plus the load
//! report and the geometric-mean rates. One run of each side under a
//! simulated pager counts the faults (and warms the caches); the times are
//! the median of five further warm runs with no pager, so they measure
//! the engines, not the simulator.
//!
//! Usage: `FLATALG_SF=0.05 cargo run --release -p bench --bin fig9_tpcd`
//! Optional: `FLATALG_Q1_BOUNDED=1` additionally runs Q1 with a bounded
//! resident set (the paper's 128 MB hot-set overflow experiment).

use std::sync::Arc;
use std::time::Instant;

use bench::{mb, positive_from_env, World};
use monet::ctx::ExecCtx;
use monet::pager::Pager;
use tpcd_queries::all_queries;

/// Median wall-clock milliseconds of five runs of `f`.
fn median_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut ms = [0.0; 5];
    for m in &mut ms {
        let t = Instant::now();
        std::hint::black_box(f());
        *m = t.elapsed().as_secs_f64() * 1e3;
    }
    ms.sort_by(f64::total_cmp);
    ms[2]
}

fn main() {
    let sf = positive_from_env("FLATALG_SF", 0.02);
    println!("# Figure 9 — TPC-D results, SF={sf} (paper: SF=1.0)\n");
    let t0 = Instant::now();
    let w = World::build(sf);
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "load: generate+decompose {:.0} ms total ({:.0} bulk / {:.0} accel / {:.0} reorder); \
         base data {:.1} MB, datavectors {:.1} MB, {} BATs, {} rows",
        load_ms,
        w.report.bulk_ms,
        w.report.accel_ms,
        w.report.reorder_ms,
        mb(w.report.base_bytes as u64),
        mb(w.report.dv_bytes as u64),
        w.report.bat_count,
        w.data.total_rows(),
    );
    let item_total = w.data.items.len();
    println!(
        "\n{:>3} {:>10} {:>10} {:>9} {:>8} {:>9} {:>10} {:>10} {:>7}  {}",
        "Qx",
        "ref(ms)",
        "monet(ms)",
        "total MB",
        "max MB",
        "Item sel%",
        "ref-faults",
        "mnt-faults",
        "rows",
        "comment"
    );

    let mut ratios: Vec<f64> = Vec::new();
    let mut fault_ratios: Vec<f64> = Vec::new();
    for q in all_queries() {
        // One counted run per side, each with its own pager; the Monet
        // one also gives the memory columns.
        let ref_pager = Pager::new(4096);
        let ref_out = (q.run_ref)(&w.rel, &w.params, Some(&ref_pager));
        let pager = Arc::new(Pager::new(4096));
        let ctx = ExecCtx::new().with_pager(Arc::clone(&pager));
        let rows = (q.run_moa)(&w.cat, &ctx, &w.params).expect("query failed");

        // Warm, bare runs for the times.
        let ref_ms = median_ms(|| (q.run_ref)(&w.rel, &w.params, None));
        let bare = ExecCtx::new();
        let monet_ms = median_ms(|| (q.run_moa)(&w.cat, &bare, &w.params).expect("query failed"));

        assert!(
            rows.approx_eq(&ref_out.rows, 1e-6),
            "Q{} results diverge from the reference!",
            q.id
        );
        let selpct = if ref_out.item_rows == 0 {
            "n.a.".to_string()
        } else {
            format!("{:.1}%", 100.0 * ref_out.item_rows as f64 / item_total as f64)
        };
        println!(
            "{:>3} {:>10.1} {:>10.1} {:>9.1} {:>8.1} {:>9} {:>10} {:>10} {:>7}  {}",
            q.id,
            ref_ms,
            monet_ms,
            mb(ctx.mem.total_bytes()),
            mb(ctx.mem.max_live_bytes()),
            selpct,
            ref_pager.faults(),
            pager.faults(),
            rows.len(),
            q.comment,
        );
        ratios.push((ref_ms.max(0.01)) / (monet_ms.max(0.01)));
        fault_ratios.push((ref_pager.faults().max(1) as f64) / (pager.faults().max(1) as f64));
    }
    let geo = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
    let geo_f = fault_ratios.iter().map(|r| r.ln()).sum::<f64>() / fault_ratios.len() as f64;
    println!(
        "\ngeometric means — wall-clock ref/monet: {:.2}x; page-fault ref/monet: {:.2}x \
         (paper compares elapsed seconds on IO-bound hardware; our baseline runs in \
         memory, so the fault ratio is the IO-comparable figure)",
        geo.exp(),
        geo_f.exp()
    );

    if std::env::var("FLATALG_Q1_BOUNDED").is_ok() {
        println!("\n# Q1 with bounded resident set (the 128MB hot-set experiment)");
        for cap_pages in [usize::MAX, 8192, 2048] {
            let pager = if cap_pages == usize::MAX {
                Arc::new(Pager::new(4096))
            } else {
                Arc::new(Pager::with_capacity(4096, cap_pages))
            };
            let ctx = ExecCtx::new().with_pager(Arc::clone(&pager));
            let q1 = &all_queries()[0];
            let t = Instant::now();
            let _ = (q1.run_moa)(&w.cat, &ctx, &w.params).unwrap();
            println!(
                "resident-set {:>10} pages: {:>8.1} ms, {:>9} faults",
                if cap_pages == usize::MAX { "unbounded".into() } else { cap_pages.to_string() },
                t.elapsed().as_secs_f64() * 1e3,
                pager.faults()
            );
        }
    }
}
