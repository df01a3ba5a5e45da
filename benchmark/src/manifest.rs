//! `BENCHMARK.json`: read it and check it field by field against the
//! contract the driver enforces, and against the workloads this harness
//! runs. Runs at the start of every invocation — a manifest the driver
//! would refuse must never get as far as a measurement. The metric lists
//! it returns are the harness's only table of metric names and units
//! (see `metrics::MetricSet`).

use std::collections::HashSet;

use crate::json::{self, Json};
use crate::metrics::MetricSpec;
use crate::workload::WORKLOADS;

pub const FILE: &str = "BENCHMARK.json";
/// The directory this package lives in, relative to the checkout root.
pub const OWN_DIR: &str = "benchmark";

pub struct Manifest {
    pub run_seconds: u64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn name_ok(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn keys_exactly(v: &Json, want: &[&str], what: &str) -> Result<(), String> {
    let obj = v.as_obj().ok_or_else(|| format!("{what}: not an object"))?;
    let got: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
    let mut a = got.clone();
    let mut b = want.to_vec();
    a.sort_unstable();
    b.sort_unstable();
    if a != b {
        return Err(format!("{what}: keys are {got:?}, must be exactly {want:?}"));
    }
    Ok(())
}

fn str_field<'a>(v: &'a Json, key: &str, what: &str) -> Result<&'a str, String> {
    v.get(key).and_then(Json::as_str).ok_or_else(|| format!("{what}: \"{key}\" must be a string"))
}

fn arr_field<'a>(v: &'a Json, key: &str, min: usize, max: usize) -> Result<&'a [Json], String> {
    let a = v.get(key).and_then(Json::as_arr).ok_or_else(|| format!("\"{key}\" must be a list"))?;
    if a.len() < min || a.len() > max {
        return Err(format!("\"{key}\" has {} entries, must have {min} to {max}", a.len()));
    }
    Ok(a)
}

/// Read `BENCHMARK.json` from the current directory (the checkout root)
/// and validate it.
pub fn check() -> Result<Manifest, String> {
    let text = std::fs::read_to_string(FILE)
        .map_err(|e| format!("{FILE}: {e} (run from the root of the checkout)"))?;
    check_text(&text, true)
}

pub fn check_text(text: &str, check_dirs: bool) -> Result<Manifest, String> {
    if text.len() > 64 * 1024 {
        return Err(format!("{FILE} is {} bytes, over 64 KiB", text.len()));
    }
    let root = json::parse(text).map_err(|e| format!("{FILE}: {e}"))?;
    keys_exactly(
        &root,
        &["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"],
        FILE,
    )?;

    let mut paths = Vec::new();
    for p in arr_field(&root, "paths", 1, 16)? {
        let p = p.as_str().ok_or("paths: entries must be strings")?;
        let chars_ok =
            p.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/'));
        if p.is_empty()
            || p.len() > 200
            || !chars_ok
            || p.starts_with('/')
            || p.split('/').any(|c| c == "..")
        {
            return Err(format!("paths: {p:?} is not a plain relative directory path"));
        }
        if check_dirs && !std::path::Path::new(p).is_dir() {
            return Err(format!("paths: directory {p} does not exist"));
        }
        paths.push(p.trim_end_matches('/').to_string());
    }
    if !paths.iter().any(|p| p == OWN_DIR) {
        return Err(format!("paths must list {OWN_DIR:?}, the directory of this package"));
    }

    for a in arr_field(&root, "command", 1, 32)? {
        let a = a.as_str().ok_or("command: entries must be strings")?;
        if a.len() > 200 || a.starts_with('/') || a.split('/').any(|c| c == "..") {
            return Err(format!("command: {a:?} is too long, absolute, or leaves the repo"));
        }
        // An argument with a slash is a path into the repo: it must stay
        // inside the benchmark's own directories.
        if a.contains('/') && !paths.iter().any(|p| a.starts_with(&format!("{p}/"))) {
            return Err(format!("command: {a:?} names a path outside {paths:?}"));
        }
    }

    let secs = root.get("run_seconds").and_then(Json::as_num).ok_or("run_seconds: not a number")?;
    if secs.fract() != 0.0 || !(1.0..=60.0).contains(&secs) {
        return Err(format!("run_seconds is {secs}, must be a whole number from 1 to 60"));
    }

    let mut seen = HashSet::new();
    let mut unique = |name: &str| -> Result<(), String> {
        if !name_ok(name) {
            return Err(format!("name {name:?} must match [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"));
        }
        if !seen.insert(name.to_string()) {
            return Err(format!("name {name:?} is used twice"));
        }
        Ok(())
    };

    let mut workloads = Vec::new();
    for w in arr_field(&root, "workloads", 2, 8)? {
        keys_exactly(w, &["name", "why"], "workload")?;
        let name = str_field(w, "name", "workload")?;
        unique(name)?;
        let why = str_field(w, "why", name)?;
        if why.is_empty() || why.chars().count() > 200 || why.contains('\n') {
            return Err(format!("workload {name}: \"why\" must be one line of at most 200 chars"));
        }
        workloads.push(name);
    }
    let own: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if workloads != own {
        return Err(format!("workloads are {workloads:?}, the harness runs {own:?}"));
    }

    let mut metric = |m: &Json, kind: &str, bounded: bool| -> Result<MetricSpec, String> {
        let keys: &[&str] = if bounded {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        keys_exactly(m, keys, kind)?;
        let name = str_field(m, "name", kind)?;
        unique(name)?;
        let unit = str_field(m, "unit", name)?;
        let better = str_field(m, "better", name)?;
        if !unit_ok(unit) {
            return Err(format!("{name}: unit {unit:?} is not a unit"));
        }
        if better != "lower" && better != "higher" {
            return Err(format!("{name}: \"better\" is {better:?}, must be lower or higher"));
        }
        if name == "setup_s" && (unit != "s" || better != "lower" || !bounded) {
            return Err("setup_s must be an end_to_end metric with unit s and better lower".into());
        }
        if bounded {
            let bound = m.get("bound").and_then(Json::as_num).ok_or(format!("{name}: no bound"))?;
            if !(bound > 0.0 && bound <= 0.25) {
                return Err(format!("{name}: bound {bound} must be in (0, 0.25]"));
            }
        }
        Ok(MetricSpec { name: name.to_string(), unit: unit.to_string() })
    };

    let mut end_to_end = Vec::new();
    for m in arr_field(&root, "end_to_end", 1, 16)? {
        end_to_end.push(metric(m, "end_to_end metric", true)?);
    }
    let mut per_layer = Vec::new();
    for m in arr_field(&root, "per_layer", 1, 128)? {
        per_layer.push(metric(m, "per_layer metric", false)?);
    }
    if !end_to_end.iter().any(|s| s.name == "setup_s") {
        return Err("end_to_end must include setup_s".into());
    }

    Ok(Manifest { run_seconds: secs as u64, end_to_end, per_layer })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed manifest, mutated by plain text replacement.
    fn committed() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap()
    }

    #[test]
    fn committed_manifest_is_valid() {
        let m = check_text(&committed(), false).unwrap();
        assert!(m.end_to_end.iter().any(|s| s.name == "setup_s"));
    }

    #[test]
    fn rejects_what_the_driver_rejects() {
        let ok = committed();
        for (from, to, why) in [
            ("\"pass_p50_ms\"", "\"pass p50\"", "bad name"),
            ("\"queries.q01_ms\"", "\"queries.q02_ms\"", "duplicate name"),
            ("\"unit\": \"s\"", "\"unit\": \"sec onds\"", "bad unit"),
            ("\"run_seconds\": ", "\"run_seconds\": 6", "run_seconds over 60"),
            ("\"benchmark/Cargo.toml\"", "\"crates/bench/Cargo.toml\"", "path outside paths"),
            ("\"better\": \"lower\", \"bound\": ", "\"better\": \"lower\", \"bound\": 1", "bound"),
            ("\"tiny_hot\"", "\"tiny_warm\"", "workload the harness does not run"),
        ] {
            let bad = ok.replacen(from, to, 1);
            assert_ne!(bad, ok, "mutation {why:?} did not apply");
            assert!(check_text(&bad, false).is_err(), "accepted a manifest with {why}");
        }
    }
}
