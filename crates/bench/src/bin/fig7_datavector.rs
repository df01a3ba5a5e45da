//! Figure 7: datavector creation through project and sort, on the actual
//! TPC-D Customer_name BAT — prints the before/after layouts and the
//! creation/reorder timings for every Item attribute.

use std::time::Instant;

use bench::{positive_from_env, World};
use monet::accel::datavector::Datavector;
use monet::ctx::ExecCtx;
use monet::ops;

fn main() {
    let sf = positive_from_env("FLATALG_SF", 0.01);
    let w = World::build(sf);
    println!("# Figure 7 — datavector creation (SF={sf})\n");

    let name = w.cat.db().get("Customer_name").expect("Customer_name");
    println!("Customer_name after load (tail-sorted inverted list):");
    print!("{}", name.dump(4));
    let dv = name.accel().datavector.as_ref().expect("datavector");
    println!("\nEXTENT (sorted oids) ++ VECTOR (values in oid order), synced:");
    for i in 0..4.min(dv.len()) {
        println!("  [ {} ]  [ {} ]", dv.extent().oids().get(i), dv.vector().get(i));
    }

    println!("\nper-attribute timings on Item ({} BUNs):", w.data.items.len());
    let ctx = ExecCtx::new();
    for attr in ["quantity", "extendedprice", "discount", "shipdate", "shipmode"] {
        let bat = w.cat.db().get(&format!("Item_{attr}")).unwrap();
        // Step 1 (Figure 7): create the datavector = projection while
        // oid-ordered. Reconstruct the oid order first to measure it.
        let t0 = Instant::now();
        let oid_ordered = ops::sort_head(&ctx, bat).unwrap();
        let resort_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let _dv = Datavector::from_oid_ordered(&oid_ordered);
        let create_ms = t1.elapsed().as_secs_f64() * 1e3;
        // Step 2: sort on tail (the load already did; measure it fresh).
        let t2 = Instant::now();
        let _sorted = ops::sort_tail(&ctx, &oid_ordered).unwrap();
        let sort_ms = t2.elapsed().as_secs_f64() * 1e3;
        println!(
            "  Item_{attr:<14} create-dv {create_ms:>8.2} ms   sort-on-tail {sort_ms:>8.2} ms   (oid-resort {resort_ms:>8.2} ms)"
        );
    }
}
