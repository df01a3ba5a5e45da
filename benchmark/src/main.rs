//! The repository's acceptance benchmark. Run from the root of a checkout:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace 0|1] [--smoke]
//! ```
//!
//! Without `--workload` every workload runs, untraced then traced. Each
//! run happens in a child process of its own — fresh heap, its own
//! `VmHWM`, the process-wide `FLATALG_*` settings given explicitly — and
//! prints a table of its metrics, then one JSON object on the last line.
//! `--check-manifest` only validates `BENCHMARK.json`.

mod calib;
mod json;
mod manifest;
mod metrics;
mod params;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use manifest::Manifest;
use workload::{Workload, WORKLOADS};

/// Working files (store, spill files, traces), ignored by git.
const OUT_DIR: &str = "benchmark/out";

struct Cli {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    check_manifest: bool,
    /// Set by the parent on the processes it spawns: the run's scratch
    /// directory.
    child: Option<PathBuf>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        check_manifest: false,
        child: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                cli.workload = Some(
                    workload::by_name(&name)
                        .ok_or_else(|| format!("unknown workload {name}; known: {known:?}"))?,
                );
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is not a run length"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: must be 0 or 1")),
                })
            }
            "--smoke" => cli.smoke = true,
            "--check-manifest" => cli.check_manifest = true,
            "--child" => cli.child = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// The highest CPU this process may run on, for `taskset -c`.
fn last_allowed_cpu() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let last = list.trim().rsplit([',', '-']).next()?;
    last.parse::<u32>().is_ok().then(|| last.to_string())
}

/// Run one (workload, trace) pair in a child process and return whether it
/// succeeded. The child inherits stdout, so its last line is ours.
fn spawn_run(cli: &Cli, w: &Workload, traced: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let scratch = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    let own_args = |cmd: &mut Command| {
        cmd.arg("--child").arg(&scratch).arg("--workload").arg(w.name);
        cmd.arg("--seed").arg(cli.seed.to_string());
        cmd.arg("--trace").arg(if traced { "1" } else { "0" });
        if let Some(s) = cli.seconds {
            cmd.arg("--seconds").arg(s.to_string());
        }
        if cli.smoke {
            cmd.arg("--smoke");
        }
        // Every FLATALG_* variable is parsed once per process: none may
        // leak in from the caller, and the ones a workload needs are set
        // here, before the child's first engine call.
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("FLATALG_") {
                cmd.env_remove(key);
            }
        }
        cmd.env("FLATALG_THREADS", "1");
        if w.out_of_core {
            cmd.env("FLATALG_SPILL", "force").env("FLATALG_SPILL_DIR", &scratch);
        }
    };

    // One core, when the tool to ask for it exists and works here: no
    // migrations between the cores of a shared box.
    let pin = last_allowed_cpu().filter(|cpu| {
        let probe = Command::new("taskset").args(["-c", cpu, "true"]).output();
        probe.is_ok_and(|o| o.status.success())
    });
    let mut cmd = match pin {
        Some(cpu) => {
            let mut cmd = Command::new("taskset");
            cmd.arg("-c").arg(cpu).arg(&exe);
            cmd
        }
        None => Command::new(&exe),
    };
    own_args(&mut cmd);
    let status = cmd.status().map_err(|e| format!("{}: {e}", exe.display()));
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(status?.success())
}

fn child_main(cli: &Cli, manifest: &Manifest, scratch: PathBuf) -> Result<bool, String> {
    let w = cli.workload.ok_or("--child needs --workload")?;
    let traced = cli.trace.unwrap_or(false);
    let args = run::RunArgs {
        workload: w,
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(manifest.run_seconds as f64),
        traced,
        smoke: cli.smoke,
        trace_file: Path::new(OUT_DIR).join(format!("trace-{}.json", w.name)),
        scratch,
    };
    let report = run::run(&args, manifest)?;

    println!(
        "# {} seed {} trace {}: {} passes in {:.1} s; {} operations attempted, {} failed",
        w.name,
        cli.seed,
        traced as u8,
        report.passes,
        report.measured_s,
        report.attempted,
        report.failed
    );
    for complaint in &report.complaints {
        println!("# FAILED {complaint}");
    }
    println!("# {:<26} {:>14} {:<6} {:>7}", "metric", "value", "unit", "samples");
    for m in &report.metrics {
        println!("# {:<26} {:>14.4} {:<6} {:>7}", m.spec.name, m.value, m.spec.unit, m.n);
    }
    for (i, ms) in report.query_ms.iter().enumerate() {
        println!("# untraced Q{:<17} {:>14.4} {:<6} {:>7}", i + 1, ms, "ms", report.plain_passes);
    }
    let noisy = report.pass_iqr_ratio > 0.10;
    println!(
        "# pass-time IQR / median {:.4}; noisy: {noisy}; machine slowdown {:.4}",
        report.pass_iqr_ratio, report.slowdown
    );

    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&m.spec.name),
                m.value,
                json::quote(&m.spec.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    Ok(report.failed == 0)
}

fn real_main() -> Result<bool, String> {
    let cli = parse_cli()?;
    let manifest = manifest::check()?;
    if cli.check_manifest {
        println!(
            "{}: valid; {} end-to-end and {} per-layer metrics, {} workloads, {} s runs",
            manifest::FILE,
            manifest.end_to_end.len(),
            manifest.per_layer.len(),
            WORKLOADS.len(),
            manifest.run_seconds
        );
        return Ok(true);
    }
    if let Some(scratch) = cli.child.clone() {
        return child_main(&cli, &manifest, scratch);
    }
    let mut ok = true;
    for w in WORKLOADS.iter().filter(|w| cli.workload.is_none_or(|only| only.name == w.name)) {
        for traced in [false, true] {
            if cli.trace.is_none_or(|only| only == traced) {
                ok &= spawn_run(&cli, w, traced)?;
            }
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("flatalg-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
