//! One run of one workload: set up the world, run timed passes for
//! `--seconds`, check every result, repeat the set-up for its own median,
//! and hand back the metrics `BENCHMARK.json` names.
//!
//! A run is either untraced (`--trace 0`, the end-to-end metrics, every
//! statement through `Session::run_query`) or traced (`--trace 1`, the
//! per-layer metrics). A traced run alternates an untraced and a traced
//! pass on the same parameter set, so the cost of tracing is the ratio of
//! two medians taken over the same seconds.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::Instant;

use flatalg_server::{Server, ServerStats, Session};
use moa::catalog::Catalog;
use moa::prelude::{OptLevel, SetExpr};
use moa::value::Value;
use monet::atom::AtomValue;
use monet::ctx::ExecCtx;
use monet::mil::MilOp;
use tpcd_queries::{all_queries, q01_05, q06_10, q11_15, Params, Query, QueryResult};

use crate::calib::Reference;
use crate::manifest::Manifest;
use crate::metrics::{Measured, MetricSet, AGG, JOIN, LOOKUP};
use crate::params::{ring, RING};
use crate::stats::{geomean, iqr_ratio, median, quantile, ring_median};
use crate::trace::Tracer;
use crate::workload::{Workload, SMOKE_PASSES, SMOKE_REFERENCE, SMOKE_SF, SMOKE_WARMUP};

const QUERIES: usize = 15;
type QueryMs = [f64; QUERIES];

pub struct RunArgs<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Directory for the store (the spill files go there too, through
    /// `FLATALG_SPILL_DIR`); the caller creates it and deletes it afterwards.
    pub scratch: PathBuf,
    /// Where the trace of a traced run goes.
    pub trace_file: PathBuf,
}

pub struct Report<'m> {
    pub attempted: u64,
    pub failed: u64,
    pub complaints: Vec<String>,
    pub metrics: Vec<Measured<'m>>,
    /// Passes of the timed phase, plain and traced, and how many were plain.
    pub passes: usize,
    pub plain_passes: usize,
    pub measured_s: f64,
    /// Median latency of each query over the plain passes, as measured.
    pub query_ms: Vec<f64>,
    pub pass_iqr_ratio: f64,
    /// Median reference-kernel time over the timed phase, over nominal.
    pub slowdown: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

#[derive(Default, Clone, Copy)]
struct SetupTimes {
    gen_s: f64,
    load_s: f64,
    write_s: f64,
    open_ms: f64,
    mapped_mb: f64,
}

/// Generate → load (→ write the store → drop → reopen it mapped).
fn build_world(sf: f64, seed: u64, store: Option<&Path>) -> Result<(Catalog, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let data = tpcd::generate(sf, seed);
    times.gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (cat, _) = tpcd::load_bats(&data);
    drop(data);
    times.load_s = t.elapsed().as_secs_f64();
    let Some(dir) = store else {
        return Ok((cat, times));
    };
    let t = Instant::now();
    let _ = std::fs::remove_dir_all(dir);
    tpcd::save_catalog(dir, &cat, sf).map_err(|e| format!("store write: {e}"))?;
    drop(cat);
    times.write_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let opened = tpcd::open_catalog(dir, None, &Default::default())
        .map_err(|e| format!("store open: {e}"))?;
    times.open_ms = ms_since(t);
    times.mapped_mb = opened.mapped_bytes as f64 / 1e6;
    if !opened.mmap {
        return Err(
            "store open fell back to heap reads: the out-of-core workload needs mmap".into()
        );
    }
    Ok((opened.catalog, times))
}

fn vm_hwm_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

// ---------------------------------------------------------------------------
// Result checking (never inside a timed interval)
// ---------------------------------------------------------------------------

fn hash_rows(rows: &QueryResult) -> u64 {
    let mut h = DefaultHasher::new();
    for row in &rows.0 {
        row.len().hash(&mut h);
        for cell in row {
            std::mem::discriminant(cell).hash(&mut h);
            match cell {
                AtomValue::Void(o) | AtomValue::Oid(o) => o.hash(&mut h),
                AtomValue::Bool(b) => b.hash(&mut h),
                AtomValue::Chr(c) => c.hash(&mut h),
                AtomValue::Int(i) => i.hash(&mut h),
                AtomValue::Lng(l) => l.hash(&mut h),
                AtomValue::Dbl(d) => d.to_bits().hash(&mut h),
                AtomValue::Str(s) => s.hash(&mut h),
                AtomValue::Date(d) => d.hash(&mut h),
            }
        }
    }
    h.finish()
}

/// Parameter sets whose results are also compared with the row-store
/// oracle: the pinned set and the first drawn one.
const ORACLE_SETS: usize = 2;

struct Check {
    attempted: u64,
    failed: u64,
    complaints: Vec<String>,
    /// Hash of each (set, query) result at first use: the engine is
    /// bit-reproducible, so every later use must hash the same.
    first: [[Option<u64>; QUERIES]; RING],
    kept: [[Option<QueryResult>; QUERIES]; ORACLE_SETS],
}

impl Check {
    fn new() -> Check {
        Check {
            attempted: 0,
            failed: 0,
            complaints: Vec::new(),
            first: [[None; QUERIES]; RING],
            kept: Default::default(),
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.complaints.len() < 10 {
            self.complaints.push(what);
        }
    }

    /// Account for one executed statement; returns its row count.
    fn statement(&mut self, set: usize, qi: usize, r: moa::error::Result<QueryResult>) -> usize {
        self.attempted += 1;
        let rows = match r {
            Ok(rows) => rows,
            Err(e) => {
                self.fail(format!("Q{} on set {set}: {e}", qi + 1));
                return 0;
            }
        };
        let (hash, n) = (hash_rows(&rows), rows.len());
        match self.first[set][qi] {
            None => {
                self.first[set][qi] = Some(hash);
                if set < ORACLE_SETS {
                    self.kept[set][qi] = Some(rows);
                }
            }
            Some(h) if h != hash => {
                self.fail(format!("Q{} on set {set}: result differs from its first run", qi + 1))
            }
            Some(_) => {}
        }
        n
    }

    /// Compare the kept results with `relstore` plans over the same data,
    /// regenerated from the seed so the timed phase never held it.
    fn against_oracle(&mut self, queries: &[Query], sets: &[Params], sf: f64, seed: u64) {
        let rel = tpcd::load_rowstore(&tpcd::generate(sf, seed));
        for (set, params) in sets.iter().enumerate().take(ORACLE_SETS) {
            for (qi, q) in queries.iter().enumerate() {
                self.attempted += 1;
                let want = (q.run_ref)(&rel, params, None).rows;
                match &self.kept[set][qi] {
                    Some(got) if got.approx_eq(&want, 1e-9) => {}
                    Some(got) => self.fail(format!(
                        "Q{} on set {set}: {} rows, the oracle has {}, or values differ",
                        q.id,
                        got.len(),
                        want.len()
                    )),
                    None => self.fail(format!("Q{} on set {set} never ran", q.id)),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

/// The reference kernel runs after every this-many-th statement of a timed
/// pass: three samples per pass, spread through it.
const REFERENCE_EVERY: usize = 5;

/// What every pass of a run runs against.
struct Target<'a> {
    session: &'a Session<'a, 'a>,
    cat: &'a Catalog,
    queries: &'a [Query],
}

/// The untraced pass: what a client does. Warm-up passes have no
/// `reference`: they are inside the timed set-up.
fn plain_pass(
    target: &Target,
    params: &Params,
    set: usize,
    check: &mut Check,
    mut reference: Option<&mut Reference>,
) -> QueryMs {
    let mut q_ms = [0.0; QUERIES];
    for (qi, q) in target.queries.iter().enumerate() {
        let t = Instant::now();
        let r = target.session.run_query(q, params);
        q_ms[qi] = ms_since(t);
        check.statement(set, qi, r);
        if let Some(reference) = reference.as_deref_mut() {
            if (qi + 1) % REFERENCE_EVERY == 0 {
                reference.sample();
            }
        }
    }
    q_ms
}

/// The MOA expression of a query whose builder `tpcd_queries` exports;
/// these eleven are run stage by stage in a traced pass. Q6, Q8, Q11 and
/// Q14 are private multi-statement drivers and stay whole.
fn exported_expr(id: usize, p: &Params) -> Option<SetExpr> {
    Some(match id {
        1 => q01_05::q1_moa(p),
        2 => q01_05::q2_moa(p),
        3 => q01_05::q3_moa(p),
        4 => q01_05::q4_moa(p),
        5 => q01_05::q5_moa(p),
        7 => q06_10::q7_moa(p),
        9 => q06_10::q9_moa(p),
        10 => q06_10::q10_moa(p),
        12 => q11_15::q12_moa(p),
        13 => q11_15::q13_moa(p),
        15 => q11_15::q15_moa(p),
        _ => return None,
    })
}

const OPS: [&str; 9] =
    ["select", "join", "semijoin", "group", "aggregate", "multiplex", "sort", "fused", "other"];

fn op_bucket(op: &MilOp) -> usize {
    match op {
        MilOp::SelectEq(..) | MilOp::SelectRange { .. } => 0,
        MilOp::Join(..) => 1,
        MilOp::Semijoin(..) | MilOp::Antijoin(..) => 2,
        MilOp::Group1(..) | MilOp::Group2(..) | MilOp::Unique(..) => 3,
        MilOp::SetAgg { .. } | MilOp::AggrScalar { .. } => 4,
        MilOp::Multiplex { .. } => 5,
        MilOp::SortTail(..) | MilOp::SortHead(..) | MilOp::TopN { .. } => 6,
        MilOp::Fused { .. } => 7,
        _ => 8,
    }
}

/// `tpcd_queries::run_moa_rows`'s flattening of a materialized result.
fn flatten(values: Vec<Value>) -> moa::error::Result<QueryResult> {
    let cell = |v: Value| match v {
        Value::Atom(a) => Ok(a),
        Value::Ref(o) => Ok(AtomValue::Oid(o)),
        other => Err(moa::error::MoaError::Type(format!("cannot flatten {other} into a row"))),
    };
    let rows = values.into_iter().map(|v| match v {
        Value::Tuple(fields) => fields.into_iter().map(cell).collect(),
        single => Ok(vec![cell(single)?]),
    });
    Ok(QueryResult(rows.collect::<moa::error::Result<_>>()?))
}

/// Everything a traced pass counts that is not a span: per-pass sums over
/// the eleven staged queries, keyed by the name the samples are kept under.
#[derive(Default)]
struct Counts {
    kernel_ms: f64,
    spill_stmt_ms: f64,
    ops_ms: [f64; OPS.len()],
    stmts: usize,
    rows: usize,
    /// Summed latency of the staged queries, the base of the coverage line.
    staged_ms: f64,
}

struct Traced {
    /// Whether the server has a plan cache; without one a traced pass also
    /// times the raw (unoptimized) translation to split translate from
    /// optimize.
    cached: bool,
    /// The traced passes' own context: tracing on, so `StmtTrace.algo`
    /// names the kernel variant (`spill`) that ran.
    ctx: ExecCtx,
    tracer: Tracer,
    /// Per-pass samples by name.
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Traced {
    fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// One staged statement: translate → execute → build, each a span
    /// inside the server's admission span.
    fn staged(
        &mut self,
        session: &Session,
        cat: &Catalog,
        expr: &SetExpr,
        request: u32,
        counts: &mut Counts,
    ) -> moa::error::Result<QueryResult> {
        let Traced { cached, ctx, tracer, .. } = self;
        let server = tracer.enter("server", request);
        let out = session.scoped(|| {
            if !*cached {
                let span = tracer.enter("translate.raw", request);
                std::hint::black_box(moa::translate::translate_with(cat, expr, OptLevel::Off)?);
                tracer.exit(span);
            }
            let span = tracer.enter("translate", request);
            let plan = moa::translate::translate(cat, expr)?;
            tracer.exit(span);

            let span = tracer.enter("execute", request);
            let env = monet::mil::execute(ctx, cat.db(), &plan.prog, &plan.keep)?;
            tracer.exit(span);
            for (done, stmt) in env.trace().iter().zip(&plan.prog.stmts) {
                counts.kernel_ms += done.ms;
                counts.ops_ms[op_bucket(&stmt.op)] += done.ms;
                if done.algo == "spill" {
                    counts.spill_stmt_ms += done.ms;
                }
            }
            counts.stmts += env.trace().len();

            let span = tracer.enter("build", request);
            let rows = flatten(plan.build(&env)?.materialize()?)?;
            tracer.exit(span);
            Ok(rows)
        });
        tracer.exit(server);
        out
    }

    fn pass(
        &mut self,
        target: &Target,
        params: &Params,
        set: usize,
        pass_no: usize,
        check: &mut Check,
        reference: &mut Reference,
    ) -> QueryMs {
        let mut q_ms = [0.0; QUERIES];
        let mut counts = Counts::default();
        let first_span = self.tracer.spans.len();
        let mem = self.ctx.mem.clone();
        let (alloc0, spilled0) = (mem.total_bytes(), mem.spilled_bytes());
        let probes0 = self.ctx.gov.probes();
        let (minflt0, majflt0) = monet::pager::process_faults();
        let Target { session, cat, queries } = *target;

        for (qi, q) in queries.iter().enumerate() {
            let request = (pass_no * 16 + q.id) as u32;
            let t = Instant::now();
            let span = self.tracer.enter("query", request);
            let expr = exported_expr(q.id, params);
            let r = match &expr {
                Some(expr) => self.staged(session, cat, expr, request, &mut counts),
                None => {
                    let Traced { ctx, tracer, .. } = self;
                    let server = tracer.enter("server", request);
                    let r = session.scoped(|| {
                        let span = tracer.enter("driver", request);
                        let r = (q.run_moa)(cat, ctx, params);
                        tracer.exit(span);
                        r
                    });
                    tracer.exit(server);
                    r
                }
            };
            self.tracer.exit(span);
            q_ms[qi] = ms_since(t);
            if expr.is_some() {
                counts.staged_ms += q_ms[qi];
            }
            self.ctx.take_trace();
            counts.rows += check.statement(set, qi, r);
            if (qi + 1) % REFERENCE_EVERY == 0 {
                reference.sample();
            }
        }

        let (minflt, majflt) = monet::pager::process_faults();
        self.sample("ctx.alloc_mb", (mem.total_bytes() - alloc0) as f64 / 1e6);
        self.sample("spill.mb", (mem.spilled_bytes() - spilled0) as f64 / 1e6);
        self.sample("ctx.probes", (self.ctx.gov.probes() - probes0) as f64);
        self.sample("pager.minflt", (minflt - minflt0) as f64);
        self.sample("pager.majflt", (majflt - majflt0) as f64);
        self.sample("interp.kernel_ms", counts.kernel_ms);
        self.sample("spill.stmt_ms", counts.spill_stmt_ms);
        self.sample("interp.stmts", counts.stmts as f64);
        self.sample("result.rows", counts.rows as f64);
        for (name, ms) in OPS.iter().zip(counts.ops_ms) {
            self.sample(name, ms);
        }

        self.sample("staged_ms", counts.staged_ms);

        // Self time of this pass's spans in microseconds, summed by name.
        let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, ns) in self.tracer.self_ns(first_span) {
            *by_name.entry(name).or_default() += ns as f64 / 1e3;
        }
        for name in ["query", "server", "translate.raw", "translate", "execute", "build", "driver"]
        {
            self.sample(name, by_name.get(name).copied().unwrap_or(0.0));
        }
        q_ms
    }
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

fn class_sum(q_ms: &QueryMs, ids: &[usize]) -> f64 {
    ids.iter().map(|id| q_ms[id - 1]).sum()
}

fn per_pass(passes: &[QueryMs], f: impl Fn(&QueryMs) -> f64) -> Vec<f64> {
    passes.iter().map(f).collect()
}

/// Translate the staged queries once at each optimizer level and count
/// statements: the plan shapes do not depend on the parameter values.
fn plan_sizes(cat: &Catalog, params: &Params) -> Result<(usize, usize), String> {
    let (mut raw, mut opt) = (0, 0);
    for id in 1..=QUERIES {
        let Some(expr) = exported_expr(id, params) else { continue };
        for (level, total) in [(OptLevel::Off, &mut raw), (OptLevel::Full, &mut opt)] {
            let plan = moa::translate::translate_with(cat, &expr, level)
                .map_err(|e| format!("translate Q{id}: {e}"))?;
            *total += plan.prog.stmts.len();
        }
    }
    Ok((raw, opt))
}

/// What the timed phase hands back.
struct Timed {
    plain: Vec<QueryMs>,
    /// Each plain pass's own slowdown, from the reference samples inside it.
    plain_slowdown: Vec<f64>,
    staged: Vec<QueryMs>,
    traced: Option<Traced>,
    peak_rss_mb: f64,
    measured_s: f64,
    /// Slowdown over the whole phase, and how many samples say so.
    slowdown: (f64, usize),
    /// Server counters after the warm-up and after the phase.
    stats: (ServerStats, ServerStats),
    /// Raw and optimized statement counts of the staged plans.
    plan_sizes: (usize, usize),
}

/// Everything that defines a run's world and how it is set up.
struct Setup<'a> {
    workload: &'a Workload,
    sf: f64,
    seed: u64,
    warmup: usize,
    store: Option<PathBuf>,
    /// Table size (log2 words) and nominal time of the reference kernel.
    reference: (u32, f64),
    queries: Vec<Query>,
    sets: Vec<Params>,
}

impl Setup<'_> {
    /// One whole set-up — generate, load (store, reopen), start the server,
    /// run the warm-up passes — then `body` against the warm server.
    /// Returns the set-up's seconds and parts with `body`'s value. The
    /// seconds are at reference speed: the set-up is bracketed by reference
    /// samples, five before and five after.
    fn run<R>(
        &self,
        check: &mut Check,
        body: impl FnOnce(&Target, &Server, &mut Check) -> Result<R, String>,
    ) -> Result<(f64, SetupTimes, R), String> {
        let mut reference = self.reference();
        (0..5).for_each(|_| reference.sample());
        let t = Instant::now();
        let (cat, times) = build_world(self.sf, self.seed, self.store.as_deref())?;
        let server = Server::with_config(&cat, self.workload.server_config());
        let session = server.session();
        let target = Target { session: &session, cat: &cat, queries: &self.queries };
        for i in 0..self.warmup {
            plain_pass(&target, &self.sets[i % RING], i % RING, check, None);
        }
        let secs = t.elapsed().as_secs_f64();
        (0..5).for_each(|_| reference.sample());
        let slowdown = reference.slowdown(0);
        drop(reference);
        Ok((secs / slowdown, times, body(&target, &server, check)?))
    }

    fn reference(&self) -> Reference {
        let (log2_words, nominal_ms) = self.reference;
        Reference::new(log2_words, nominal_ms)
    }
}

/// Passes for `args.seconds`: plain ones, each followed by a traced one on
/// the same parameter set in a traced run.
fn timed_phase(
    args: &RunArgs,
    setup: &Setup,
    target: &Target,
    server: &Server,
    check: &mut Check,
) -> Result<Timed, String> {
    let w = args.workload;
    let warm = server.stats();
    let mut reference = setup.reference();
    let mut traced = args.traced.then(|| Traced {
        cached: w.plan_cache.is_some(),
        ctx: ExecCtx::new().with_trace(),
        tracer: Tracer::new(),
        samples: BTreeMap::new(),
    });
    let (mut plain, mut plain_slowdown, mut staged) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss_mb = None;
    let started = Instant::now();
    loop {
        let i = plain.len();
        let done = if args.smoke {
            i + staged.len() >= SMOKE_PASSES
        } else {
            i >= w.rss_passes && started.elapsed().as_secs_f64() >= args.seconds
        };
        if done {
            break;
        }
        let (set, first_sample) = (i % RING, reference.samples_ms.len());
        plain.push(plain_pass(target, &setup.sets[set], set, check, Some(&mut reference)));
        plain_slowdown.push(reference.slowdown(first_sample));
        if let Some(t) = traced.as_mut() {
            staged.push(t.pass(target, &setup.sets[set], set, i, check, &mut reference));
        }
        if plain.len() == w.rss_passes && !args.smoke {
            peak_rss_mb = Some(vm_hwm_mb()?);
        }
    }
    let measured_s = started.elapsed().as_secs_f64();
    let peak_rss_mb = match peak_rss_mb {
        Some(mb) => mb,
        None => vm_hwm_mb()?,
    };
    let stats = server.stats();

    // Checks and one-off counts, outside every timed interval.
    check.against_oracle(&setup.queries, &setup.sets, setup.sf, setup.seed);
    if stats.failed + stats.shed > 0 {
        check.fail(format!("server counted {} failed, {} shed", stats.failed, stats.shed));
    }
    Ok(Timed {
        plain,
        plain_slowdown,
        staged,
        traced,
        peak_rss_mb,
        measured_s,
        slowdown: (reference.slowdown(0), reference.samples_ms.len()),
        stats: (warm, stats),
        plan_sizes: plan_sizes(target.cat, &setup.sets[0])?,
    })
}

pub fn run<'m>(args: &RunArgs, manifest: &'m Manifest) -> Result<Report<'m>, String> {
    let w = args.workload;
    let (sf, warmup) = if args.smoke { (SMOKE_SF, SMOKE_WARMUP) } else { (w.sf, w.warmup) };
    let setup = Setup {
        workload: w,
        sf,
        seed: args.seed,
        warmup,
        store: w.out_of_core.then(|| args.scratch.join("store")),
        reference: if args.smoke { SMOKE_REFERENCE } else { w.reference },
        queries: all_queries(),
        sets: ring(args.seed, sf),
    };
    let mut check = Check::new();

    // The first set-up's world is the one measured.
    let (secs, times, timed) = setup.run(&mut check, |target, server, check| {
        timed_phase(args, &setup, target, server, check)
    })?;
    let (mut setups, mut parts) = (vec![secs], vec![times]);
    // Set-up again, for its median: at least three in all and at least two
    // seconds of them, because one SF 0.001 set-up is too short to repeat
    // within a tenth on its own. A fresh world must also give the results
    // the first one gave, so `check` carries over.
    let min_setups = if args.smoke { 1 } else { 3 };
    while setups.len() < min_setups || (!args.smoke && setups.iter().sum::<f64>() < 2.0) {
        let (secs, times, ()) = setup.run(&mut check, |_, _, _| Ok(()))?;
        setups.push(secs);
        parts.push(times);
    }
    let Timed { plain, plain_slowdown, staged, traced, peak_rss_mb, measured_s, .. } = timed;
    let (slowdown, slowdown_samples) = timed.slowdown;
    let (warm, stats) = timed.stats;

    // Metrics.
    let pass_ms = per_pass(&plain, |q| q.iter().sum());
    let query_ms: Vec<f64> =
        (0..QUERIES).map(|qi| ring_median(&per_pass(&plain, |q| q[qi]))).collect();
    let pass_iqr_ratio = iqr_ratio(&pass_ms);
    let n = plain.len();
    let metrics = match traced {
        None => {
            // Every gated timing is at reference speed (see `calib`): each
            // pass against the reference samples taken inside it.
            let at_ref: Vec<QueryMs> =
                plain.iter().zip(&plain_slowdown).map(|(q, s)| q.map(|ms| ms / s)).collect();
            let mid = |f: &dyn Fn(&QueryMs) -> f64| ring_median(&per_pass(&at_ref, f));
            let by_query: Vec<f64> = (0..QUERIES).map(|qi| mid(&|q| q[qi])).collect();
            let mut m = MetricSet::new(&manifest.end_to_end);
            m.put("setup_s", median(&setups), setups.len());
            m.put("pass_p50_ms", mid(&|q| q.iter().sum()), n);
            m.put("geomean_ms", geomean(&by_query), n);
            m.put("agg_p50_ms", mid(&|q| class_sum(q, &AGG)), n);
            m.put("join_p50_ms", mid(&|q| class_sum(q, &JOIN)), n);
            m.put("lookup_p50_ms", mid(&|q| class_sum(q, &LOOKUP)), n);
            m.put("peak_rss_mb", peak_rss_mb, 1);
            m.finish()?
        }
        Some(t) => {
            t.tracer
                .write_json(
                    &args.trace_file,
                    &format!(
                        "\"workload\": \"{}\", \"seed\": {}, \"passes\": {}",
                        w.name,
                        args.seed,
                        staged.len()
                    ),
                )
                .map_err(|e| format!("{}: {e}", args.trace_file.display()))?;
            let n = staged.len();
            let mid = |name: &str| ring_median(&t.samples[name]);
            let mut m = MetricSet::new(&manifest.per_layer);
            for qi in 0..QUERIES {
                let ms = ring_median(&per_pass(&staged, |q| q[qi]));
                m.put(&format!("queries.q{:02}_ms", qi + 1), ms, n);
            }
            let part = |f: fn(&SetupTimes) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
            m.put("tpcd.gen_s", part(|p| p.gen_s), parts.len());
            m.put("tpcd.load_s", part(|p| p.load_s), parts.len());
            m.put("store.write_s", part(|p| p.write_s), parts.len());
            m.put("store.open_ms", part(|p| p.open_ms), parts.len());
            m.put("store.mapped_mb", part(|p| p.mapped_mb), parts.len());

            m.put("server.overhead_us", mid("server"), n);
            m.put("server.waited", (stats.waited - warm.waited) as f64, 1);
            m.put("server.shed", (stats.shed - warm.shed) as f64, 1);
            m.put("server.failed", (stats.failed - warm.failed) as f64, 1);

            // Cache counters per pass of either kind: every pass does the
            // same lookups, so these are whole numbers when nothing misses.
            let both = (plain.len() + staged.len()) as f64;
            let (c1, c0) = (stats.cache.unwrap_or_default(), warm.cache.unwrap_or_default());
            m.put("plancache.hits", (c1.hits - c0.hits) as f64 / both, 1);
            m.put("plancache.misses", (c1.misses - c0.misses) as f64 / both, 1);
            m.put("plancache.bypasses", (c1.bypasses - c0.bypasses) as f64 / both, 1);
            let (raw_us, translate_us) = (mid("translate.raw"), mid("translate"));
            if t.cached {
                m.put("plancache.hit_us", translate_us, n);
                m.put("translate.raw_us", 0.0, n);
                m.put("opt.us", 0.0, n);
            } else {
                m.put("plancache.hit_us", 0.0, n);
                m.put("translate.raw_us", raw_us, n);
                m.put("opt.us", translate_us - raw_us, n);
            }
            let (raw_stmts, opt_stmts) = timed.plan_sizes;
            m.put("translate.stmts", raw_stmts as f64, 1);
            m.put("opt.stmts_out", opt_stmts as f64, 1);
            m.put("opt.reduction", 1.0 - opt_stmts as f64 / raw_stmts as f64, 1);

            let exec_ms = mid("execute") / 1e3;
            m.put("interp.exec_ms", exec_ms, n);
            m.put("interp.kernel_ms", mid("interp.kernel_ms"), n);
            m.put("interp.overhead_us", (exec_ms - mid("interp.kernel_ms")) * 1e3, n);
            m.put("interp.stmts", mid("interp.stmts"), n);
            for op in OPS {
                m.put(&format!("ops.{op}_ms"), mid(op), n);
            }
            m.put("ctx.alloc_mb", mid("ctx.alloc_mb"), n);
            m.put("ctx.peak_live_mb", t.ctx.mem.max_live_bytes() as f64 / 1e6, 1);
            m.put("ctx.probes", mid("ctx.probes"), n);
            m.put("spill.mb", mid("spill.mb"), n);
            m.put("spill.stmt_ms", mid("spill.stmt_ms"), n);
            m.put("pager.minflt", mid("pager.minflt"), n);
            m.put("pager.majflt", mid("pager.majflt"), n);
            m.put("result.build_us", mid("build"), n);
            m.put("result.rows", mid("result.rows"), n);

            let staged_pass_ms = per_pass(&staged, |q| q.iter().sum());
            m.put("harness.pass_p90_ms", quantile(&pass_ms, 0.9), plain.len());
            m.put("harness.pass_iqr_ratio", pass_iqr_ratio, plain.len());
            m.put("harness.slowdown", slowdown, slowdown_samples);
            m.put("trace.overhead_ratio", ring_median(&staged_pass_ms) / ring_median(&pass_ms), n);

            // How much of the staged queries' time the layer spans explain.
            let layers_us: f64 =
                ["server", "translate.raw", "translate", "execute", "build"].map(mid).iter().sum();
            eprintln!(
                "trace: layer self times cover {:.1} % of the staged queries' {:.3} ms per pass",
                layers_us / 10.0 / mid("staged_ms"),
                mid("staged_ms"),
            );
            m.finish()?
        }
    };

    Ok(Report {
        attempted: check.attempted,
        failed: check.failed,
        complaints: check.complaints,
        metrics,
        passes: plain.len() + staged.len(),
        plain_passes: plain.len(),
        measured_s,
        query_ms,
        pass_iqr_ratio,
        slowdown,
    })
}
