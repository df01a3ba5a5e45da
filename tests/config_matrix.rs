//! The configuration lattice, in one process: all fifteen TPC-D queries at
//! SF 0.01 under a table of named [`EngineConfig`]s, every pair of engine
//! configurations required to agree **bit for bit** (eps 0.0) and each to
//! agree with the n-ary `relstore` reference (eps 1e-6).
//!
//! The dimensions are the ones results must not depend on: the plan that
//! runs (optimized, raw translator emission),
//! the column layouts (encoded, raw, encoded and reopened from an mmap
//! store), forced spilling, and the plan cache (none, a miss, a re-bound
//! hit through a `Session`). The full product is 36 passes; [`MATRIX`] is
//! a pairwise-covering subset of 9 ([`matrix_covers_every_pair`] proves
//! it), which already contains combinations no per-knob rerun of the suite
//! could reach — raw layouts × raw plan × forced spill is one.
//!
//! The named cases below the matrix are the configurations whose *point*
//! is a different outcome: a budget that aborts, a budget that makes the
//! cost model spill, an armed fault, a forced spill's footprint.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use bench::World;
use flatalg_server::{Server, ServerConfig};
use moa::catalog::Catalog;
use moa::error::MoaError;
use monet::config::EngineConfig;
use monet::ctx::ExecCtx;
use monet::error::MonetError;
use monet::mil::opt::OptLevel;
use monet::mil::MilOp;
use tpcd_queries::{all_queries, QueryResult};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Plan {
    Optimized,
    /// `opt: Off` — the translator's emission as is.
    Raw,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Layout {
    Encoded,
    Raw,
    /// The encoded world saved with `tpcd::save_catalog` and reopened.
    Store,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Cache {
    Off,
    Miss,
    Hit,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Case {
    plan: Plan,
    layout: Layout,
    cache: Cache,
    spill_force: bool,
}

const fn case(plan: Plan, layout: Layout, cache: Cache, spill_force: bool) -> Case {
    Case { plan, layout, cache, spill_force }
}

/// Row 0 is the default configuration, the one every other row is diffed
/// against.
const MATRIX: [Case; 9] = [
    case(Plan::Optimized, Layout::Encoded, Cache::Off, false),
    case(Plan::Optimized, Layout::Encoded, Cache::Miss, true),
    case(Plan::Raw, Layout::Encoded, Cache::Hit, false),
    case(Plan::Raw, Layout::Raw, Cache::Miss, false),
    case(Plan::Optimized, Layout::Raw, Cache::Hit, false),
    case(Plan::Raw, Layout::Raw, Cache::Off, true),
    case(Plan::Optimized, Layout::Store, Cache::Hit, true),
    case(Plan::Raw, Layout::Store, Cache::Off, false),
    case(Plan::Optimized, Layout::Store, Cache::Miss, false),
];

impl Case {
    /// The case as an engine configuration. Nothing comes from the
    /// environment: the matrix means the same under any CI leg.
    fn engine(&self) -> EngineConfig {
        EngineConfig {
            opt: if self.plan == Plan::Raw { OptLevel::Off } else { OptLevel::Full },
            spill_force: self.spill_force,
            ..EngineConfig::default()
        }
    }
}

/// The three layouts of one generated world, and what it should compute.
struct Worlds {
    encoded: World,
    raw: World,
    store: Catalog,
    reference: Vec<QueryResult>,
}

fn scratch_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("flatalg-matrix-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn worlds() -> &'static Worlds {
    static WORLDS: OnceLock<Worlds> = OnceLock::new();
    WORLDS.get_or_init(|| {
        let encoded = World::build_with(0.01, true);
        let raw = World::build_with(0.01, false);
        use monet::props::Enc;
        let clerk = |w: &World| w.cat.db().get("Order_clerk").unwrap().tail().encoding();
        assert_eq!((clerk(&encoded), clerk(&raw)), (Enc::Dict, Enc::None), "two distinct layouts");
        let dir = scratch_dir("store");
        encoded.save_store(&dir).expect("save the encoded world");
        let store = tpcd::open_catalog(&dir, None, &Default::default()).expect("reopen it");
        // The maps outlive the directory entry.
        std::fs::remove_dir_all(&dir).expect("remove the store directory");
        let reference = all_queries()
            .iter()
            .map(|q| (q.run_ref)(&encoded.rel, &encoded.params, None).rows)
            .collect();
        Worlds { reference, store: store.catalog, encoded, raw }
    })
}

fn server<'a>(cat: &'a Catalog, engine: EngineConfig) -> Server<'a> {
    let config = ServerConfig {
        max_concurrent: 2,
        plan_cache: Some(64),
        deadline: None,
        admit_timeout: None,
    };
    Server::with_engine(cat, config, Arc::new(engine))
}

/// Q1..Q15 under `case`, in order.
fn run(case: &Case) -> Vec<QueryResult> {
    let w = worlds();
    let cat = match case.layout {
        Layout::Encoded => &w.encoded.cat,
        Layout::Raw => &w.raw.cat,
        Layout::Store => &w.store,
    };
    let queries = all_queries();
    let ok = |q: &tpcd_queries::Query, r: moa::error::Result<QueryResult>| {
        r.unwrap_or_else(|e| panic!("Q{} under {case:?}: {e}", q.id))
    };
    if case.cache == Cache::Off {
        let ctx = ExecCtx::with_config(Arc::new(case.engine()));
        return queries.iter().map(|q| ok(q, (q.run_moa)(cat, &ctx, &w.encoded.params))).collect();
    }
    let server = server(cat, case.engine());
    let session = server.session();
    let pass = || -> Vec<QueryResult> {
        queries.iter().map(|q| ok(q, session.run_query(q, &w.encoded.params))).collect()
    };
    let first = pass();
    let cold = server.stats().cache.expect("the server has a cache");
    assert!(cold.misses > 0 && cold.bypasses == 0, "{case:?}: every plan is cacheable");
    if case.cache == Cache::Miss {
        return first;
    }
    let second = pass();
    let warm = server.stats().cache.expect("the server has a cache");
    assert_eq!(warm.misses, cold.misses, "{case:?}: the second pass must translate nothing");
    assert!(warm.hits > cold.hits, "{case:?}: the second pass must be served from the cache");
    second
}

#[test]
fn matrix_covers_every_pair() {
    let levels = |c: &Case| -> [String; 4] {
        [
            format!("{:?}", c.plan),
            format!("{:?}", c.layout),
            format!("{:?}", c.cache),
            c.spill_force.to_string(),
        ]
    };
    let rows: Vec<[String; 4]> = MATRIX.iter().map(levels).collect();
    let distinct = |i: usize| rows.iter().map(|r| &r[i]).collect::<HashSet<_>>().len();
    assert_eq!([0, 1, 2, 3].map(distinct), [2, 3, 3, 2], "every level of every dimension");
    for i in 0..4 {
        for j in i + 1..4 {
            let seen: HashSet<_> = rows.iter().map(|r| (&r[i], &r[j])).collect();
            assert_eq!(seen.len(), distinct(i) * distinct(j), "dimensions {i} x {j}");
        }
    }
    // The combination the per-knob reruns of the suite never reached.
    assert!(MATRIX.iter().any(|c| c.plan == Plan::Raw && c.layout == Layout::Raw && c.spill_force));
}

#[test]
fn every_engine_configuration_agrees_bit_for_bit() {
    let w = worlds();
    let queries = all_queries();
    let baseline = run(&MATRIX[0]);
    for case in &MATRIX {
        let rows = if *case == MATRIX[0] { baseline.clone() } else { run(case) };
        for (i, q) in queries.iter().enumerate() {
            assert!(
                rows[i].approx_eq(&w.reference[i], 1e-6),
                "Q{} under {case:?} disagrees with the reference ({}):\ngot:\n{}reference:\n{}",
                q.id,
                q.comment,
                rows[i].clone().sorted().preview(12),
                w.reference[i].clone().sorted().preview(12),
            );
            assert!(
                rows[i].approx_eq(&baseline[i], 0.0),
                "Q{} under {case:?} is not bit-identical to {:?}:\ngot:\n{}baseline:\n{}",
                q.id,
                MATRIX[0],
                rows[i].clone().sorted().preview(12),
                baseline[i].clone().sorted().preview(12),
            );
        }
    }
}

/// A budget far below most queries' charged peaks: every failure is the
/// typed budget error carrying the configured budget, the server counts
/// exactly those, and a session that lifts its own budget re-runs the mix
/// green — two lifted sessions bit for bit alike. Swept from 8k to 128k
/// at 8k steps: 8k and 16k abort all fifteen queries and every budget up
/// to 64k at least 11; at 64k only Q2, Q10, Q11 and Q14 (ledger peaks
/// 21–59 KB, since a zero-copy view charges nothing and a gathered string
/// column charges its arrays, not its source's byte heap) complete, and at
/// 128k nine do.
#[test]
fn budget_64k_aborts_typed_then_recovers_once_lifted() {
    let w = worlds();
    let queries = all_queries();
    let server =
        server(&w.encoded.cat, EngineConfig { mem_budget: 64 << 10, ..EngineConfig::default() });
    let session = server.session();
    let mut aborts = 0;
    for q in &queries {
        match session.run_query(q, &w.encoded.params) {
            Err(MoaError::Kernel(MonetError::BudgetExceeded { budget_bytes, .. })) => {
                assert_eq!(budget_bytes, 64 << 10, "the budget must be the configured one");
                aborts += 1;
            }
            Err(e) => panic!("Q{}: expected BudgetExceeded, got: {e}", q.id),
            Ok(_) => {}
        }
    }
    assert!(aborts > 0, "a 64 KiB budget must abort at least one query");
    assert_eq!(server.stats().failed, aborts);
    session.ctx().mem.set_budget(None);
    let fresh = server.session();
    fresh.ctx().mem.set_budget(None);
    for (q, want) in queries.iter().zip(&w.reference) {
        let a = session.run_query(q, &w.encoded.params).expect("lifted budget");
        let b = fresh.run_query(q, &w.encoded.params).expect("lifted budget");
        assert_eq!(a, b, "Q{}: lifted-budget sessions diverged", q.id);
        assert!(a.approx_eq(want, 1e-6), "Q{}: lifted-budget run is wrong", q.id);
    }
}

/// No override: under budget *pressure* the cost model must choose to
/// spill on its own, and every query either still matches the reference or
/// aborts with the typed budget error from an operator that cannot spill.
/// 224k at SF 0.05: oid-keyed joins need no hash table, so pressure only
/// arises once a `direct` join's position array (4 bytes per oid of the
/// right head's span) misses the headroom. Since conjuncts that share a
/// reference join back once, Q5/Q8/Q10 no longer have such a join under
/// any budget they complete at. Swept at 2k steps: some query completes
/// by spilling between 96k and 372k — Q13, whose `join(Item_order, ·)`
/// back from the clerk's orders spills 148 KB, from 96k to 292k; Q2 (a
/// 20 KB spill) from 110k to 134k; Q7 (368 KB, 192 KB from 362k) from
/// 222k to 372k; and Q10 (182 KB) from 268k to 292k. Re-swept when Q2's
/// and Q9's selects over a join became two-key joins: the same windows and
/// spill bytes, Q2's being its `join(Supplier_supplies_part, ·)` back from
/// the sized parts, not the two-key join. Re-swept when Q4's semijoin came
/// to restrict the items to the selected orders' partners first: the same
/// windows and spill bytes, and Q4's peak fell from 4 490 KiB to 354 KiB,
/// so from 356k on it completes too, without spilling. Re-swept when a
/// range on one attribute became one select and an `or` over one
/// attribute one semijoin of the index: the same windows and spill bytes
/// (Q13 96k–292k, Q2 110k–134k, Q7 222k–372k, Q10 268k–292k), and Q4
/// from 356k, Q11 from 122k and Q14 from 170k complete without spilling;
/// Q6's peak fell from 925 to 733 KiB and Q12's from 2 676 to 2 090 KiB.
/// Re-swept (80k–400k, 2k steps) when a sorted reference tail came to be
/// addressed through its run index (`join/runs`, `semijoin/runs`, which
/// keep the `direct` and `bitmap` gates): the same windows, spill bytes
/// and peaks. Re-sweep that window when memory accounting or the
/// translator's joins change.
#[test]
fn budget_224k_lets_a_query_complete_by_spilling_a_join() {
    let w = World::build_with(0.05, true);
    let engine = Arc::new(EngineConfig { mem_budget: 224 << 10, ..EngineConfig::default() });
    let (mut passed, mut spilled, mut passed_spilling) = (0, 0, 0);
    for q in all_queries() {
        let ctx = ExecCtx::with_config(Arc::clone(&engine));
        match (q.run_moa)(&w.cat, &ctx, &w.params) {
            Ok(rows) => {
                let want = (q.run_ref)(&w.rel, &w.params, None).rows;
                assert!(rows.approx_eq(&want, 1e-6), "Q{}: diverged under the budget", q.id);
                passed += 1;
                passed_spilling += usize::from(ctx.mem.spilled_bytes() > 0);
            }
            Err(MoaError::Kernel(MonetError::BudgetExceeded { .. })) => {}
            Err(e) => panic!("Q{}: expected success or BudgetExceeded, got: {e}", q.id),
        }
        spilled += ctx.mem.spilled_bytes();
    }
    assert!(spilled > 0, "no operator spilled");
    assert!(passed > 0, "at least one query must complete under the budget");
    assert!(passed_spilling > 0, "no query completed by spilling");
}

/// `fault = mil/stmt:2`: every context built from the configuration arms
/// the same countdown, so each fresh session's first statement hits the
/// injected fault — and, the injector being one-shot per governor, the
/// immediate retry on the same session runs clean, bit for bit.
#[test]
fn configured_fault_fires_on_every_fresh_session_then_retries_clean() {
    let w = worlds();
    let q1 = &all_queries()[0];
    let fault = Some(("mil/stmt".to_string(), 2));
    let server = server(&w.encoded.cat, EngineConfig { fault, ..EngineConfig::default() });
    let mut retries = Vec::new();
    for _ in 0..2 {
        let session = server.session();
        match session.run_query(q1, &w.encoded.params) {
            Err(MoaError::Kernel(MonetError::Injected { site: "mil/stmt", hit: 2 })) => {}
            other => panic!("a fresh session must hit the configured fault, got {other:?}"),
        }
        retries.push(session.run_query(q1, &w.encoded.params).expect("clean retry"));
    }
    assert_eq!(retries[0], retries[1], "post-fault retries must be bit-identical");
    assert!(retries[0].approx_eq(&w.reference[0], 1e-6));
    assert_eq!(server.stats().failed, 2);
}

/// `spill_force`: operators really take the disk path (bytes on the
/// tracker), their files land in `spill_dir` and none outlives its
/// operator.
#[test]
fn forced_spill_writes_to_spill_dir_and_leaves_nothing_behind() {
    let w = worlds();
    let dir = scratch_dir("spill");
    let forced = |spill_dir: &PathBuf| {
        let spill_dir = Some(spill_dir.clone());
        Arc::new(EngineConfig { spill_force: true, spill_dir, ..EngineConfig::default() })
    };
    // The directory does not exist yet: the first spilling operator fails
    // with a typed store error naming it — `spill_dir` is where files go.
    let q1 = &all_queries()[0];
    match (q1.run_moa)(&w.encoded.cat, &ExecCtx::with_config(forced(&dir)), &w.encoded.params) {
        Err(MoaError::Kernel(MonetError::Store { op: "spill/write", path, .. })) => {
            assert!(path.starts_with(dir.to_str().unwrap()), "{path}")
        }
        other => panic!("spilling into a missing directory must fail typed, got {other:?}"),
    }
    std::fs::create_dir_all(&dir).unwrap();
    let mut spilled = 0;
    for (q, want) in all_queries().iter().zip(&w.reference) {
        let ctx = ExecCtx::with_config(forced(&dir));
        let rows = (q.run_moa)(&w.encoded.cat, &ctx, &w.encoded.params)
            .unwrap_or_else(|e| panic!("Q{}: forced spill must complete: {e}", q.id));
        assert!(rows.approx_eq(want, 1e-6), "Q{}: forced spill diverged", q.id);
        spilled += ctx.mem.spilled_bytes();
    }
    assert!(spilled > 0, "nothing spilled");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "spill files must be deleted");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `spill_force` takes Q9's two-key join out of core too: the statement
/// that finds its (part, supplier) pairs reports `spill`, and the rows are
/// the in-memory ones bit for bit.
#[test]
fn forced_spill_takes_q9s_two_key_join_and_keeps_its_rows() {
    let w = worlds();
    let (cat, params) = (&w.encoded.cat, &w.encoded.params);
    let q9 = &all_queries()[8];
    let forced = || {
        ExecCtx::with_config(Arc::new(EngineConfig {
            spill_force: true,
            ..EngineConfig::default()
        }))
    };
    let t = moa::translate::translate(cat, &tpcd_queries::q06_10::q9_moa(params)).unwrap();
    let every: Vec<usize> = (0..t.prog.len()).collect();
    let env = monet::mil::execute(&forced(), cat.db(), &t.prog, &every).unwrap();
    let join = t.prog.stmts.iter().position(|s| matches!(s.op, MilOp::Join2(..))).unwrap();
    assert_eq!(env.trace()[join].algo, "spill", "{}", env.trace()[join].render(&t.prog));
    let ctx = forced();
    let spilled = (q9.run_moa)(cat, &ctx, params).unwrap();
    assert!(ctx.mem.spilled_bytes() > 0);
    let in_memory = ExecCtx::with_config(Arc::new(EngineConfig::default()));
    assert!(spilled.approx_eq(&(q9.run_moa)(cat, &in_memory, params).unwrap(), 0.0));
}

/// README's knob table is checked, not trusted: its rows are exactly the
/// variables `EngineConfig::from_vars` recognizes.
#[test]
fn readme_knob_table_lists_exactly_the_recognized_variables() {
    let readme = include_str!("../README.md");
    let section = readme.split("\n## Configuration\n").nth(1).expect("README has the section");
    let section = section.split("\n## ").next().unwrap();
    let rows: Vec<&str> = section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split('`').next())
        .collect();
    assert_eq!(rows, EngineConfig::VARS, "README's knob table vs `EngineConfig::VARS`");
}
