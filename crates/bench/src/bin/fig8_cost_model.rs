//! Figure 8: select-project IO cost according to selectivity, relational
//! vs. datavector strategy.
//!
//! Prints the analytic series `E_rel(n=16)` and `E_dv(p ∈ {1,3,6,9,12})`
//! with the paper's parameters (X=6M, w=4, B=4096), the crossover points,
//! and — as validation — an *empirical* page-fault measurement of both
//! strategies on a generated table using the simulated pager.
//!
//! Usage: `cargo run --release -p bench --bin fig8_cost_model`
//! (env `FLATALG_FIG8_ROWS` overrides the empirical table size).

use monet::atom::AtomValue;
use monet::costmodel::{crossover, e_dv, e_rel, CostParams};
use monet::ctx::ExecCtx;
use monet::ops;
use monet::pager::Pager;
use std::sync::Arc;

fn analytic() {
    let p = CostParams::figure8();
    println!(
        "# Figure 8 (analytic) — X={} n={} w={} B={}",
        p.rows, p.n_attrs, p.width, p.page_size
    );
    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "selectivity", "E_rel", "E_dv(p=1)", "E_dv(p=3)", "E_dv(p=6)", "E_dv(p=9)", "E_dv(p=12)"
    );
    let mut s = 0.0;
    while s <= 0.0301 {
        println!(
            "{:>12.4} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>12.0}",
            s,
            e_rel(&p, s),
            e_dv(&p, s, 1),
            e_dv(&p, s, 3),
            e_dv(&p, s, 6),
            e_dv(&p, s, 9),
            e_dv(&p, s, 12),
        );
        s += 0.0025;
    }
    println!();
    for proj in [1u32, 3, 6, 9, 12] {
        match crossover(&p, proj) {
            Some(x) => println!("crossover p={proj:<2}: s ≈ {x:.4}"),
            None => println!("crossover p={proj:<2}: none in (0, 0.5]"),
        }
    }
    println!("(paper: crossover for n=16, p=3 at s ≈ 0.004)\n");
}

/// Empirical validation: cold page faults of both strategies on a real
/// generated table, measured through the simulated pager.
fn empirical() {
    use monet::column::Column;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let rows: usize =
        std::env::var("FLATALG_FIG8_ROWS").ok().and_then(|v| v.parse().ok()).unwrap_or(600_000);
    let n_attrs = 16usize;
    let mut rng = StdRng::seed_from_u64(bench::SEED);

    // n-ary table with int attributes (w=4) + inverted list on attr 0.
    let cols: Vec<(String, Column)> = (0..n_attrs)
        .map(|i| {
            (
                format!("a{i}"),
                Column::from_ints((0..rows).map(|_| rng.gen_range(0..1_000_000)).collect()),
            )
        })
        .collect();
    let mut rel = relstore::RelDb::new();
    rel.add_table(relstore::Table::new("t", cols.clone()));
    rel.build_index("t", "a0");

    // Decomposed: tail-sorted selection BAT + datavectors for 3 attrs.
    let extent = monet::accel::datavector::Extent::new(Column::from_oids(
        (0..rows as u64).map(|i| 1000 + i).collect(),
    ));
    let sel_vals = &cols[0].1;
    let perm = sel_vals.sort_perm();
    let mut sel_bat = monet::bat::Bat::with_props(
        extent.oids().gather(&perm),
        sel_vals.gather(&perm),
        monet::props::Props::new(monet::props::ColProps::KEY, monet::props::ColProps::SORTED),
    );
    sel_bat.set_datavector(Arc::new(monet::accel::datavector::Datavector::new(
        Arc::clone(&extent),
        sel_vals.clone(),
    )));
    let value_bats: Vec<monet::bat::Bat> = (1..=3)
        .map(|i| {
            let mut b = monet::bat::Bat::new(extent.oids().clone(), cols[i].1.clone());
            b.set_datavector(Arc::new(monet::accel::datavector::Datavector::new(
                Arc::clone(&extent),
                cols[i].1.clone(),
            )));
            b
        })
        .collect();

    println!("# Figure 8 (empirical, X={rows}, n={n_attrs}, p=3, B=4096)");
    println!("{:>12} {:>14} {:>14}", "selectivity", "faults_rel", "faults_dv");
    for s in [0.001, 0.002, 0.004, 0.008, 0.015, 0.03] {
        let hi = (1_000_000.0 * s) as i32;

        // Relational: inverted-list range + unclustered row fetches.
        let pager = Pager::new(4096);
        let rows_sel = relstore::select_rows(
            &rel,
            "t",
            "a0",
            &relstore::ColPred::Range {
                lo: Some(&AtomValue::Int(0)),
                hi: Some(&AtomValue::Int(hi)),
                inc_lo: true,
                inc_hi: false,
            },
            Some(&pager),
        );
        let _vals = relstore::fetch(&rel, "t", &rows_sel, Some(&pager), |t, r| t.int_v(1, r));
        let faults_rel = pager.faults();

        // Decomposed: binary-search select + 3 datavector semijoins.
        let pager = Arc::new(Pager::new(4096));
        // A fresh context per selectivity: its LOOKUP memo starts cold.
        let ctx = ExecCtx::new().with_pager(Arc::clone(&pager));
        let sel = ops::select_range(
            &ctx,
            &sel_bat,
            Some(&AtomValue::Int(0)),
            Some(&AtomValue::Int(hi)),
            true,
            false,
        )
        .unwrap();
        let sel_sorted = ops::sort_head(&ctx, &sel).unwrap();
        for vb in &value_bats {
            let _ = ops::semijoin(&ctx, vb, &sel_sorted).unwrap();
        }
        println!("{s:>12.4} {faults_rel:>14} {:>14}", pager.faults());
    }
    println!("\n(shape check: E_dv wins at moderate selectivities, E_rel at tiny ones)");
}

fn main() {
    analytic();
    empirical();
}
