//! `flatalg-store` — build, verify, open and check persistent TPC-D stores.
//!
//! ```text
//! flatalg-store build --sf 1 /data/sf1      # generate + load + serialize
//! flatalg-store verify /data/sf1            # full checksum verification
//! flatalg-store open-bench /data/sf1        # O(1) open vs regenerate
//! flatalg-store check /data/sf1             # all 15 queries vs the oracle
//! ```
//!
//! `check` opens the store, rebuilds the n-ary oracle at the recorded
//! scale factor, and runs every query on both paths. The engine
//! configuration is parsed from the environment up front (a value that
//! does not parse ends the run with exit status 2) and every query gets a
//! fresh `ExecCtx` under it, so `FLATALG_MEM_BUDGET` / `FLATALG_SPILL`
//! turn the run into the out-of-core acceptance leg: the report shows how
//! many bytes each query spilled.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bench::{mb, StoreWorld, World, SEED};
use monet::config::EngineConfig;
use monet::ctx::ExecCtx;
use tpcd_queries::all_queries;

fn usage() -> ! {
    eprintln!(
        "usage: flatalg-store <build --sf <sf> | verify | open-bench | check [--eps <e>]> <dir>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let engine = match EngineConfig::from_vars(std::env::vars()) {
        Ok(engine) => Arc::new(engine),
        Err(e) => {
            eprintln!("flatalg-store: {e}");
            std::process::exit(2);
        }
    };
    let code = match cmd.as_str() {
        "build" => build(&args[1..], &engine),
        "verify" => verify(&args[1..]),
        "open-bench" => open_bench(&args[1..], &engine),
        "check" => check(&args[1..], &engine),
        _ => usage(),
    };
    std::process::exit(code);
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

/// The number given as `--name <x>`, or `default` when the flag is absent.
/// A value that does not parse or that `valid` rejects is a usage error
/// (exit status 2), never a silent default.
fn number_flag(args: &[String], name: &str, default: Option<f64>, valid: fn(f64) -> bool) -> f64 {
    let Some(text) = flag(args, name) else {
        return default.unwrap_or_else(|| usage());
    };
    match text.parse::<f64>() {
        Ok(x) if valid(x) => x,
        _ => {
            eprintln!("flatalg-store: {name} {text:?} is not a valid value");
            usage()
        }
    }
}

fn dir_arg(args: &[String]) -> PathBuf {
    // Positionals are what remains after skipping each `--flag value` pair.
    let mut positional = None;
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += 2;
        } else {
            positional = Some(args[i].clone());
            i += 1;
        }
    }
    match positional {
        Some(d) => PathBuf::from(d),
        None => usage(),
    }
}

fn build(args: &[String], engine: &EngineConfig) -> i32 {
    let sf = number_flag(args, "--sf", None, |sf| sf.is_finite() && sf > 0.0);
    let dir = dir_arg(args);
    println!("# flatalg-store build — SF {sf} -> {}", dir.display());
    let t0 = Instant::now();
    let w = World::build_with(sf, engine.enc);
    let gen_s = t0.elapsed().as_secs_f64();
    println!(
        "generated + loaded in {gen_s:.1} s ({} BATs, {:.1} MB base data)",
        w.report.bat_count,
        mb(w.report.base_bytes as u64)
    );
    let t1 = Instant::now();
    match w.save_store(&dir) {
        Ok(stats) => {
            println!(
                "wrote {} files, {:.1} MB in {:.1} s",
                stats.files,
                mb(stats.bytes),
                t1.elapsed().as_secs_f64()
            );
            0
        }
        Err(e) => {
            eprintln!("build failed: {e}");
            1
        }
    }
}

fn verify(args: &[String]) -> i32 {
    let dir = dir_arg(args);
    let t0 = Instant::now();
    match monet::store::verify_dir(&dir) {
        Ok((files, bytes)) => {
            println!(
                "ok: {} files, {:.1} MB verified in {:.2} s",
                files,
                mb(bytes),
                t0.elapsed().as_secs_f64()
            );
            0
        }
        Err(e) => {
            eprintln!("verification failed: {e}");
            1
        }
    }
}

fn open_store(dir: &Path) -> Result<(StoreWorld, f64), i32> {
    let t0 = Instant::now();
    match StoreWorld::open(dir) {
        Ok(sw) => Ok((sw, t0.elapsed().as_secs_f64())),
        Err(e) => {
            eprintln!("open failed: {e}");
            Err(1)
        }
    }
}

fn open_bench(args: &[String], engine: &EngineConfig) -> i32 {
    let dir = dir_arg(args);
    let (sw, open_s) = match open_store(&dir) {
        Ok(v) => v,
        Err(c) => return c,
    };
    println!(
        "open: {:.3} s — SF {}, {} files, {:.1} MB mapped (mmap: {})",
        open_s,
        sw.sf,
        sw.files,
        mb(sw.mapped_bytes),
        sw.mmap
    );
    let t1 = Instant::now();
    let data = tpcd::generate(sw.sf, SEED);
    let (cat, _) = tpcd::load_bats_with(&data, engine.enc).unwrap_or_else(|e| panic!("{e}"));
    let gen_s = t1.elapsed().as_secs_f64();
    println!(
        "generate+load: {:.3} s ({} BATs) — open is {:.0}x faster",
        gen_s,
        cat.db().len(),
        gen_s / open_s.max(1e-9)
    );
    0
}

fn check(args: &[String], engine: &Arc<EngineConfig>) -> i32 {
    let eps = number_flag(args, "--eps", Some(1e-6), |eps| eps.is_finite() && eps >= 0.0);
    let dir = dir_arg(args);
    let (sw, open_s) = match open_store(&dir) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let budget = match engine.mem_budget {
        0 => "unlimited".to_string(),
        bytes => format!("{bytes} bytes"),
    };
    println!("# flatalg-store check — SF {}, opened in {:.3} s, budget {}", sw.sf, open_s, budget);
    let t1 = Instant::now();
    let data = tpcd::generate(sw.sf, SEED);
    let rel = tpcd::load_rowstore(&data);
    println!("oracle rowstore rebuilt in {:.1} s", t1.elapsed().as_secs_f64());

    let mut failed = 0;
    let mut total_spilled = 0u64;
    println!(
        "\n{:>3} {:>10} {:>8} {:>9} {:>12} {:>7}",
        "Qx", "monet(ms)", "rows", "peak MB", "spilled MB", "match"
    );
    for q in all_queries() {
        let ref_out = (q.run_ref)(&rel, &sw.params, None);
        let ctx = ExecCtx::with_config(Arc::clone(engine));
        let t = Instant::now();
        let res = (q.run_moa)(&sw.cat, &ctx, &sw.params);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let spilled = ctx.mem.spilled_bytes();
        // The ledger's peak over the whole query (every program of it), the
        // "max (MB)" column of fig9_tpcd.
        let peak = ctx.mem.max_live_bytes();
        total_spilled += spilled;
        match res {
            Ok(rows) => {
                let ok = rows.approx_eq(&ref_out.rows, eps);
                if !ok {
                    failed += 1;
                    eprintln!(
                        "Q{}: MISMATCH ({} rows vs {} oracle rows)\nmonet:\n{}oracle:\n{}",
                        q.id,
                        rows.len(),
                        ref_out.rows.len(),
                        rows.preview(5),
                        ref_out.rows.preview(5)
                    );
                }
                println!(
                    "{:>3} {:>10.1} {:>8} {:>9.1} {:>12.1} {:>7}",
                    format!("Q{}", q.id),
                    ms,
                    rows.len(),
                    mb(peak),
                    mb(spilled),
                    if ok { "ok" } else { "FAIL" }
                );
            }
            Err(e) => {
                failed += 1;
                println!(
                    "{:>3} {:>10.1} {:>8} {:>9.1} {:>12.1} {:>7}  {e}",
                    format!("Q{}", q.id),
                    ms,
                    "-",
                    mb(peak),
                    mb(spilled),
                    "ERROR"
                );
            }
        }
    }
    println!(
        "\n{} spilled {:.1} MB total across the run",
        if total_spilled > 0 { "out-of-core:" } else { "in-memory:" },
        mb(total_spilled)
    );
    if failed > 0 {
        eprintln!("{failed} queries failed");
        1
    } else {
        println!("all 15 queries match the oracle (eps {eps})");
        0
    }
}
