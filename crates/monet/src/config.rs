//! The engine configuration: every `FLATALG_*` knob, stated once.
//!
//! The paper's engine is not tuned by switches — dynamic optimization
//! (Section 5.1) picks every implementation from properties the kernel
//! observes — so what is configurable here is the *environment* a query
//! runs in (memory, disk, faults to inject, admission) and the oracle
//! switches the test suite diffs against (optimizer, encodings, plan
//! cache). All of it lives in one immutable [`EngineConfig`] value:
//!
//! * [`EngineConfig::from_vars`] is the one parser. It is pure — a config
//!   is a function of the `(name, value)` pairs handed to it — and strict:
//!   a value it cannot parse is a [`ConfigError`], never a silent default.
//!   An empty value counts as unset.
//! * [`EngineConfig::from_env`] applies it to the process environment
//!   **once** and memoizes the result; it is the only function in the
//!   engine that reads the environment. Knobs sit on every operator's
//!   dispatch path, and an `env::var` per call would take the process
//!   environment lock and allocate; parsing once also means a process has
//!   exactly one environment-derived configuration for its whole life.
//! * Every consumer takes its values from a config it was *handed*: an
//!   [`crate::ctx::ExecCtx`] carries an `Arc<EngineConfig>`
//!   (`ExecCtx::new()` = `ExecCtx::with_config(EngineConfig::from_env())`)
//!   and kernels, cost model, governor, optimizer and translator read that.
//!   Tests and harnesses that sweep configurations build the values they
//!   want (`EngineConfig { enc: false, ..EngineConfig::default() }`) and
//!   never touch the environment, so sweeps run concurrently without races.
//! * The planner — translation and the MIL optimizer — is handed only the
//!   [`PlanConfig`] sub-struct ([`EngineConfig::plan`]), and the plan cache
//!   hashes that struct whole into its key: whatever can shape a plan is
//!   keyed by construction.
//!
//! | variable | field | accepted values (unset = default) |
//! |---|---|---|
//! | `FLATALG_ENC` | `enc` | `0` raw layouts, `1` encoded (default) |
//! | `FLATALG_OPT` | `opt` | `0` raw translator emission, `1` optimized (default) |
//! | `FLATALG_EXPLAIN` | `explain` | `1` prints per-rule rewrite counts, `0` (default) |
//! | `FLATALG_SPILL` | `spill_force` | `1`/`force`/`always`, or `auto` (default) |
//! | `FLATALG_SPILL_DIR` | `spill_dir` | directory; default: the system temp dir |
//! | `FLATALG_MEM_BUDGET` | `mem_budget` | bytes, optional `k`/`m`/`g` suffix; `0` = unlimited (default) |
//! | `FLATALG_FAULT` | `fault` | `site:count` (`*` = any site, count ≥ 1) |
//! | `FLATALG_PLAN_CACHE` | `plan_cache` | capacity in plans, `0` disables; default 64 |
//! | `FLATALG_ADMIT` | `admit` | integer ≥ 1; default: available parallelism |
//! | `FLATALG_DEADLINE_MS` | `deadline_ms` | milliseconds, `0` = none (default) |
//! | `FLATALG_ADMIT_TIMEOUT_MS` | `admit_timeout_ms` | milliseconds, `0` = none (default) |
//!
//! A query runs on the thread that executes it; there is no thread-count
//! knob. `FLATALG_THREADS`, which `benchmark/` still sets, is not one of
//! ours and is ignored like any other unlisted name.

use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use crate::mil::opt::OptLevel;

/// Default plan-cache capacity: generous for the TPC-D workload (15
/// queries × a few programs each) while still bounded.
pub const DEFAULT_PLAN_CACHE: usize = 64;

/// What the planner may consult — translation and the MIL optimizer are
/// handed this and nothing else, and the plan cache keys on it whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanConfig {
    /// `Off` reproduces the translator's raw emission byte for byte.
    pub opt: OptLevel,
    /// Print each optimized program's per-rule rewrite counts to stderr.
    pub explain: bool,
}

impl Default for PlanConfig {
    fn default() -> PlanConfig {
        PlanConfig { opt: OptLevel::Full, explain: false }
    }
}

/// One immutable engine configuration (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Whether loaders dictionary-code string columns (every other
    /// column is raw either way).
    pub enc: bool,
    pub opt: OptLevel,
    pub explain: bool,
    /// Send every spill-capable operator to its disk path, whatever the
    /// budget headroom says (the out-of-core oracle).
    pub spill_force: bool,
    /// Where spill files are created; `None` = the system temp dir.
    pub spill_dir: Option<PathBuf>,
    /// Per-query byte budget of every new context; 0 = unlimited.
    pub mem_budget: u64,
    /// `(site, n)`: every new governor fires an injected fault at the
    /// `n`-th probe of `site` (`*` = any site).
    pub fault: Option<(String, u64)>,
    /// Plan-cache capacity; `None` disables caching.
    pub plan_cache: Option<usize>,
    /// Service admission limit; `None` = the available parallelism.
    pub admit: Option<usize>,
    /// Service per-statement deadline.
    pub deadline_ms: Option<u64>,
    /// Service admission-queue timeout.
    pub admit_timeout_ms: Option<u64>,
}

/// A `FLATALG_*` variable whose value [`EngineConfig::from_vars`] cannot
/// parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    pub var: &'static str,
    pub value: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={:?} is not a valid setting", self.var, self.value)
    }
}

impl std::error::Error for ConfigError {}

impl Default for EngineConfig {
    /// The documented defaults: what [`EngineConfig::from_vars`] returns
    /// for an empty environment.
    fn default() -> EngineConfig {
        let PlanConfig { opt, explain } = PlanConfig::default();
        EngineConfig {
            enc: true,
            opt,
            explain,
            spill_force: false,
            spill_dir: None,
            mem_budget: 0,
            fault: None,
            plan_cache: Some(DEFAULT_PLAN_CACHE),
            admit: None,
            deadline_ms: None,
            admit_timeout_ms: None,
        }
    }
}

/// Store a parsed value; false when there is none.
fn set<T>(slot: &mut T, parsed: Option<T>) -> bool {
    parsed.map(|v| *slot = v).is_some()
}

/// A byte count: plain, or with a `k`/`m`/`g` suffix (powers of 1024).
fn parse_bytes(s: &str) -> Option<u64> {
    let (digits, shift) = match s.as_bytes().last()?.to_ascii_lowercase() {
        b'k' => (&s[..s.len() - 1], 10),
        b'm' => (&s[..s.len() - 1], 20),
        b'g' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    digits.parse::<u64>().ok()?.checked_mul(1 << shift)
}

fn parse_fault(s: &str) -> Option<(String, u64)> {
    let (site, count) = s.rsplit_once(':')?;
    let count: u64 = count.trim().parse().ok()?;
    (!site.is_empty() && count > 0).then(|| (site.to_string(), count))
}

impl EngineConfig {
    /// The variables [`EngineConfig::from_vars`] recognizes.
    pub const VARS: [&'static str; 11] = [
        "FLATALG_ENC",
        "FLATALG_OPT",
        "FLATALG_EXPLAIN",
        "FLATALG_SPILL",
        "FLATALG_SPILL_DIR",
        "FLATALG_MEM_BUDGET",
        "FLATALG_FAULT",
        "FLATALG_PLAN_CACHE",
        "FLATALG_ADMIT",
        "FLATALG_DEADLINE_MS",
        "FLATALG_ADMIT_TIMEOUT_MS",
    ];

    /// Build a configuration from `(name, value)` pairs. Names outside
    /// [`EngineConfig::VARS`] are ignored (the harness binaries read their
    /// own `FLATALG_SF`-style inputs); an empty value counts as unset; the
    /// first value that does not parse is returned as the error.
    pub fn from_vars<K, V>(
        vars: impl IntoIterator<Item = (K, V)>,
    ) -> Result<EngineConfig, ConfigError>
    where
        K: AsRef<str>,
        V: AsRef<str>,
    {
        let mut cfg = EngineConfig::default();
        for (name, value) in vars {
            let Some(&var) = Self::VARS.iter().find(|v| **v == name.as_ref()) else { continue };
            let s = value.as_ref().trim();
            if s.is_empty() {
                continue;
            }
            let flag = match s {
                "0" => Some(false),
                "1" => Some(true),
                _ => None,
            };
            let count = s.parse::<usize>().ok();
            // Milliseconds; 0 = none.
            let ms = s.parse::<u64>().ok().map(|ms| (ms > 0).then_some(ms));
            let parsed = match var {
                "FLATALG_ENC" => set(&mut cfg.enc, flag),
                "FLATALG_OPT" => set(
                    &mut cfg.opt,
                    flag.map(|on| if on { OptLevel::Full } else { OptLevel::Off }),
                ),
                "FLATALG_EXPLAIN" => set(&mut cfg.explain, flag),
                "FLATALG_SPILL" => set(
                    &mut cfg.spill_force,
                    match s.to_ascii_lowercase().as_str() {
                        "1" | "force" | "always" => Some(true),
                        "auto" => Some(false),
                        _ => None,
                    },
                ),
                "FLATALG_SPILL_DIR" => set(&mut cfg.spill_dir, Some(Some(PathBuf::from(s)))),
                "FLATALG_MEM_BUDGET" => set(&mut cfg.mem_budget, parse_bytes(s)),
                "FLATALG_FAULT" => set(&mut cfg.fault, parse_fault(s).map(Some)),
                "FLATALG_PLAN_CACHE" => {
                    set(&mut cfg.plan_cache, count.map(|n| (n > 0).then_some(n)))
                }
                "FLATALG_ADMIT" => set(&mut cfg.admit, count.filter(|&n| n > 0).map(Some)),
                "FLATALG_DEADLINE_MS" => set(&mut cfg.deadline_ms, ms),
                "FLATALG_ADMIT_TIMEOUT_MS" => set(&mut cfg.admit_timeout_ms, ms),
                _ => unreachable!("{var} is listed in VARS but not parsed"),
            };
            if !parsed {
                return Err(ConfigError { var, value: value.as_ref().to_string() });
            }
        }
        Ok(cfg)
    }

    /// The configuration of the process environment, parsed on first use
    /// and shared from then on. This is what the default constructors
    /// (`ExecCtx::new`, `translate`, `load_bats`, `Server::with_config`)
    /// resolve to. They cannot fail, so a variable that does not parse is
    /// reported on stderr — once — and keeps its documented default; the
    /// binaries call [`EngineConfig::from_vars`] first and refuse to start.
    pub fn from_env() -> Arc<EngineConfig> {
        static ENV: OnceLock<Arc<EngineConfig>> = OnceLock::new();
        Arc::clone(ENV.get_or_init(|| {
            // Only our variables are converted: a non-UTF-8 value elsewhere
            // in the environment is none of this function's business.
            let mut vars: Vec<(String, String)> = std::env::vars_os()
                .filter(|(k, _)| k.to_str().is_some_and(|k| Self::VARS.contains(&k)))
                .map(|(k, v)| (k.to_string_lossy().into_owned(), v.to_string_lossy().into_owned()))
                .collect();
            loop {
                match EngineConfig::from_vars(vars.iter().map(|(k, v)| (k, v))) {
                    Ok(cfg) => return Arc::new(cfg),
                    Err(e) => {
                        eprintln!("flatalg: {e}; keeping the default");
                        vars.retain(|(k, _)| k != e.var);
                    }
                }
            }
        }))
    }

    /// The planner-visible part of this configuration.
    pub fn plan(&self) -> PlanConfig {
        PlanConfig { opt: self.opt, explain: self.explain }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(var: &str, value: &str) -> Result<EngineConfig, ConfigError> {
        EngineConfig::from_vars([(var, value)])
    }

    /// `value` must be refused, and the error must name it.
    fn rejected(var: &'static str, value: &str) {
        assert_eq!(one(var, value), Err(ConfigError { var, value: value.to_string() }));
    }

    #[test]
    fn unset_and_empty_mean_the_defaults() {
        let none: [(&str, &str); 0] = [];
        let d = EngineConfig::default();
        assert_eq!(EngineConfig::from_vars(none).unwrap(), d);
        for var in EngineConfig::VARS {
            assert_eq!(one(var, "").unwrap(), d, "{var} empty");
            assert_eq!(one(var, "  ").unwrap(), d, "{var} blank");
        }
        // Harness inputs and unrelated variables are not ours to judge.
        assert_eq!(one("FLATALG_SF", "huge").unwrap(), d);
        assert_eq!(one("FLATALG_PAR_MIN_ROWS", "x").unwrap(), d);
        assert_eq!(d.plan(), PlanConfig::default());
        assert_eq!((d.opt, d.explain), (OptLevel::Full, false));
    }

    #[test]
    fn threads() {
        // The acceptance benchmark's child process still sets it.
        assert!(!EngineConfig::VARS.contains(&"FLATALG_THREADS"));
        for v in ["1", "4"] {
            assert_eq!(one("FLATALG_THREADS", v).unwrap(), EngineConfig::default(), "{v}");
        }
    }

    #[test]
    fn flags() {
        assert!(!one("FLATALG_ENC", "0").unwrap().enc);
        assert!(one("FLATALG_ENC", "1").unwrap().enc);
        rejected("FLATALG_ENC", "off");
        assert_eq!(one("FLATALG_OPT", "0").unwrap().opt, OptLevel::Off);
        assert_eq!(one("FLATALG_OPT", "1").unwrap().opt, OptLevel::Full);
        rejected("FLATALG_OPT", "full");
        assert!(one("FLATALG_EXPLAIN", "1").unwrap().explain);
        assert!(!one("FLATALG_EXPLAIN", "0").unwrap().explain);
        rejected("FLATALG_EXPLAIN", "yes");
    }

    #[test]
    fn spill() {
        for v in ["1", "force", "Always"] {
            assert!(one("FLATALG_SPILL", v).unwrap().spill_force, "{v}");
        }
        assert!(!one("FLATALG_SPILL", "auto").unwrap().spill_force);
        // There is no "never spill" mode to select.
        rejected("FLATALG_SPILL", "never");
        rejected("FLATALG_SPILL", "0");
        let dir = one("FLATALG_SPILL_DIR", "/var/tmp/spill").unwrap().spill_dir;
        assert_eq!(dir, Some(PathBuf::from("/var/tmp/spill")));
    }

    #[test]
    fn mem_budget() {
        assert_eq!(one("FLATALG_MEM_BUDGET", "4096").unwrap().mem_budget, 4096);
        assert_eq!(one("FLATALG_MEM_BUDGET", "64k").unwrap().mem_budget, 64 << 10);
        assert_eq!(one("FLATALG_MEM_BUDGET", "3M").unwrap().mem_budget, 3 << 20);
        assert_eq!(one("FLATALG_MEM_BUDGET", "2g").unwrap().mem_budget, 2 << 30);
        assert_eq!(one("FLATALG_MEM_BUDGET", "0").unwrap().mem_budget, 0);
        rejected("FLATALG_MEM_BUDGET", "64kb"); // used to parse as 0 = unlimited
        rejected("FLATALG_MEM_BUDGET", "lots");
        rejected("FLATALG_MEM_BUDGET", "k");
        rejected("FLATALG_MEM_BUDGET", "99999999999g"); // overflows u64
    }

    #[test]
    fn fault() {
        assert_eq!(one("FLATALG_FAULT", "mil/stmt:2").unwrap().fault, Some(("mil/stmt".into(), 2)));
        assert_eq!(one("FLATALG_FAULT", "*:1").unwrap().fault, Some(("*".into(), 1)));
        rejected("FLATALG_FAULT", "mil/stmt"); // used to mean disarmed
        rejected("FLATALG_FAULT", "mil/stmt:0");
        rejected("FLATALG_FAULT", ":3");
        rejected("FLATALG_FAULT", "mil/stmt:soon");
    }

    #[test]
    fn service_values() {
        assert_eq!(one("FLATALG_PLAN_CACHE", "0").unwrap().plan_cache, None);
        assert_eq!(one("FLATALG_PLAN_CACHE", "8").unwrap().plan_cache, Some(8));
        rejected("FLATALG_PLAN_CACHE", "off"); // used to mean the default capacity
        assert_eq!(one("FLATALG_ADMIT", "3").unwrap().admit, Some(3));
        rejected("FLATALG_ADMIT", "0");
        rejected("FLATALG_ADMIT", "all");
        assert_eq!(one("FLATALG_DEADLINE_MS", "250").unwrap().deadline_ms, Some(250));
        assert_eq!(one("FLATALG_DEADLINE_MS", "0").unwrap().deadline_ms, None);
        rejected("FLATALG_DEADLINE_MS", "1s");
        assert_eq!(one("FLATALG_ADMIT_TIMEOUT_MS", "250").unwrap().admit_timeout_ms, Some(250));
        assert_eq!(one("FLATALG_ADMIT_TIMEOUT_MS", "0").unwrap().admit_timeout_ms, None);
        rejected("FLATALG_ADMIT_TIMEOUT_MS", "-5");
    }

    #[test]
    fn the_first_bad_value_is_the_error_and_good_ones_combine() {
        let cfg = EngineConfig::from_vars([
            ("FLATALG_SPILL", "force"),
            ("FLATALG_OPT", "0"),
            ("FLATALG_ENC", "0"),
            ("FLATALG_PLAN_CACHE", "0"),
        ])
        .unwrap();
        let want = EngineConfig {
            spill_force: true,
            opt: OptLevel::Off,
            enc: false,
            plan_cache: None,
            ..EngineConfig::default()
        };
        assert_eq!(cfg, want);
        let err = EngineConfig::from_vars([("FLATALG_SPILL", "force"), ("FLATALG_OPT", "no")]);
        assert_eq!(err.unwrap_err().to_string(), "FLATALG_OPT=\"no\" is not a valid setting");
    }
}
