//! Drive the in-process query service with M concurrent client threads
//! running the mixed Q1–Q15 workload, and report throughput plus plan-cache
//! amortization.
//!
//! ```text
//! FLATALG_SF=0.01 FLATALG_CLIENTS=4 FLATALG_REPS=5 flatalg_serve
//! ```
//!
//! Harness inputs (this binary's own arguments):
//! * `FLATALG_SF`        — scale factor (default 0.01)
//! * `FLATALG_CLIENTS`   — concurrent client threads (default 4)
//! * `FLATALG_REPS`      — mixed-workload passes per client (default 5)
//!
//! Everything else is the engine configuration
//! ([`monet::config::EngineConfig`]: `FLATALG_ADMIT`, `FLATALG_PLAN_CACHE`,
//! `FLATALG_THREADS`, ...); a value that does not parse ends the run with
//! exit status 2.

use std::sync::Arc;
use std::time::Instant;

use flatalg_server::{Server, ServerConfig};
use monet::config::EngineConfig;
use tpcd_queries::{all_queries, Params};

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn env_f64(var: &str, default: f64) -> f64 {
    std::env::var(var)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|&v| v > 0.0)
        .unwrap_or(default)
}

fn main() {
    let sf = env_f64("FLATALG_SF", 0.01);
    let clients = env_usize("FLATALG_CLIENTS", 4);
    let reps = env_usize("FLATALG_REPS", 5);
    let engine = match EngineConfig::from_vars(std::env::vars()) {
        Ok(engine) => Arc::new(engine),
        Err(e) => {
            eprintln!("flatalg_serve: {e}");
            std::process::exit(2);
        }
    };
    let config = ServerConfig::of(&engine);

    let t0 = Instant::now();
    let data = match tpcd::try_generate(sf, 19980223) {
        Ok(data) => data,
        Err(e) => {
            eprintln!("flatalg_serve: cannot generate world: {e}");
            std::process::exit(1);
        }
    };
    let (cat, report) = match tpcd::load_bats_with(&data, engine.enc) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("flatalg_serve: cannot load world: {e}");
            std::process::exit(1);
        }
    };
    let params = Params::for_data(&data);
    println!(
        "flatalg_serve: sf={sf} ({} BATs, {} items) loaded in {:.2}s",
        report.bat_count,
        data.items.len(),
        t0.elapsed().as_secs_f64()
    );
    println!(
        "config: clients={clients} reps={reps} admit={} plan_cache={:?} threads={}",
        config.max_concurrent, config.plan_cache, engine.threads
    );

    let admit = config.max_concurrent;
    let server = Server::with_engine(&cat, config, engine);
    let queries = all_queries();

    // Warm pass: one session prepares every workload shape.
    let warm = Instant::now();
    {
        let session = server.session();
        for q in &queries {
            if let Err(e) = session.run_query(q, &params) {
                eprintln!("q{} failed during warmup: {e}", q.id);
                std::process::exit(1);
            }
        }
    }
    println!("warmup: mixed workload prepared in {:.3}s", warm.elapsed().as_secs_f64());

    // Measured phase: M clients, each running `reps` mixed passes with a
    // rotated start so different queries collide at the gate.
    let t1 = Instant::now();
    let failures = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for c in 0..clients {
            let (server, queries, params, failures) = (&server, &queries, &params, &failures);
            s.spawn(move || {
                let session = server.session();
                for rep in 0..reps {
                    for i in 0..queries.len() {
                        let q = &queries[(i + c * 5 + rep) % queries.len()];
                        if session.run_query(q, params).is_err() {
                            failures.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let wall = t1.elapsed().as_secs_f64();
    let served = clients * reps * queries.len();
    let stats = server.stats();
    println!(
        "served {served} queries from {clients} clients in {wall:.3}s — {:.1} qps",
        served as f64 / wall
    );
    println!("admission: executed={} waited={} (limit {admit})", stats.executed, stats.waited);
    let q = |p: f64| stats.latency.quantile(p).as_micros();
    println!(
        "statement latency (log2 buckets, upper bounds): p50<={}us p95<={}us p99<={}us",
        q(0.5),
        q(0.95),
        q(0.99)
    );
    let f = stats.failures;
    println!(
        "failures: budget={} deadline={} cancelled={} injected={} admission_timeout={} other={}",
        f.budget, f.deadline, f.cancelled, f.injected, f.admission_timeout, f.other
    );
    if let Some(c) = stats.cache {
        println!(
            "plan cache: hits={} misses={} evictions={} bypasses={} resident={}",
            c.hits, c.misses, c.evictions, c.bypasses, c.len
        );
    } else {
        println!("plan cache: disabled");
    }
    let fails = failures.load(std::sync::atomic::Ordering::Relaxed);
    if fails > 0 {
        eprintln!("{fails} queries failed");
        std::process::exit(1);
    }
}
