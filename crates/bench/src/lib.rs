//! Shared setup for the benchmark harness: one memoized TPC-D database per
//! process, scale factor taken from `FLATALG_SF` (default 0.01 for
//! Criterion micro benches; the figure binaries pick their own defaults).

use std::str::FromStr;
use std::sync::OnceLock;

use moa::catalog::Catalog;
use relstore::RelDb;
use tpcd::{generate, load_bats_with, load_rowstore, LoadReport, TpcdData, TpcdError};
use tpcd_queries::Params;

/// The seed used by every harness, so numbers are reproducible.
pub const SEED: u64 = 19980223; // ICDE 1998

/// Parse a positive harness input (`FLATALG_SF`, `FLATALG_FIG8_ROWS`):
/// `None` when unset or empty, an error naming the variable when the
/// value does not parse or is not above zero.
pub fn parse_positive<T: FromStr + PartialOrd + Default>(
    var: &str,
    raw: Option<&str>,
) -> Result<Option<T>, String> {
    let Some(s) = raw.map(str::trim).filter(|s| !s.is_empty()) else {
        return Ok(None);
    };
    match s.parse::<T>() {
        Ok(v) if v > T::default() => Ok(Some(v)),
        _ => Err(format!("{var}={s:?} is not a positive number")),
    }
}

/// A positive harness input from the environment, `default` when unset.
/// A value [`parse_positive`] refuses ends the process with exit status 2,
/// so a run never prints numbers for a scale it was not asked for.
pub fn positive_from_env<T: FromStr + PartialOrd + Default>(var: &str, default: T) -> T {
    match parse_positive(var, std::env::var(var).ok().as_deref()) {
        Ok(v) => v.unwrap_or(default),
        Err(e) => {
            eprintln!("flatalg: {e}");
            std::process::exit(2);
        }
    }
}

/// A fully loaded benchmark world.
pub struct World {
    pub data: TpcdData,
    pub cat: Catalog,
    pub rel: RelDb,
    pub params: Params,
    pub report: LoadReport,
}

impl World {
    /// The world at `sf`, column layouts as the environment's
    /// configuration says.
    pub fn build(sf: f64) -> World {
        World::build_with(sf, monet::config::EngineConfig::from_env().enc)
    }

    /// The world at `sf` with encoded (`enc`) or raw column layouts.
    pub fn build_with(sf: f64, enc: bool) -> World {
        let data = generate(sf, SEED);
        let (cat, report) = load_bats_with(&data, enc).unwrap_or_else(|e| panic!("{e}"));
        let rel = load_rowstore(&data);
        let params = Params::for_data(&data);
        World { data, cat, rel, params, report }
    }

    /// Persist this world's catalog into a store directory
    /// (see [`tpcd::save_catalog`]).
    pub fn save_store(&self, dir: &std::path::Path) -> Result<monet::store::WriteStats, TpcdError> {
        tpcd::save_catalog(dir, &self.cat, self.data.sf)
    }
}

/// A benchmark world opened from a persistent store directory: the mmapped
/// catalog plus the parameter set rebuilt from the recorded scale factor.
/// No generated rows and no rowstore oracle — build a [`World`] at the
/// same scale factor when an oracle is needed.
pub struct StoreWorld {
    pub cat: Catalog,
    pub params: Params,
    pub sf: f64,
    pub mapped_bytes: u64,
    pub files: usize,
    pub mmap: bool,
}

impl StoreWorld {
    pub fn open(dir: &std::path::Path) -> Result<StoreWorld, TpcdError> {
        StoreWorld::open_with(dir, &monet::store::OpenOptions::default())
    }

    pub fn open_with(
        dir: &std::path::Path,
        opts: &monet::store::OpenOptions,
    ) -> Result<StoreWorld, TpcdError> {
        let o = tpcd::open_catalog(dir, None, opts)?;
        Ok(StoreWorld {
            params: Params::for_sf(o.sf),
            cat: o.catalog,
            sf: o.sf,
            mapped_bytes: o.mapped_bytes,
            files: o.files,
            mmap: o.mmap,
        })
    }
}

static WORLD: OnceLock<World> = OnceLock::new();

/// The process-wide world at `FLATALG_SF` (default 0.01).
pub fn world() -> &'static World {
    WORLD.get_or_init(|| World::build(positive_from_env("FLATALG_SF", 0.01)))
}

/// Format a byte count as MB with one decimal.
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::parse_positive;

    #[test]
    fn harness_inputs_refuse_what_they_cannot_use() {
        assert_eq!(parse_positive::<f64>("FLATALG_SF", None), Ok(None));
        assert_eq!(parse_positive::<f64>("FLATALG_SF", Some(" ")), Ok(None));
        assert_eq!(parse_positive::<f64>("FLATALG_SF", Some("0.001")), Ok(Some(0.001)));
        assert_eq!(parse_positive::<usize>("FLATALG_FIG8_ROWS", Some("600")), Ok(Some(600)));
        for bad in ["nope", "-1", "0", "NaN"] {
            let e = parse_positive::<f64>("FLATALG_SF", Some(bad)).unwrap_err();
            assert!(e.contains("FLATALG_SF") && e.contains(bad), "{e}");
        }
        assert!(parse_positive::<usize>("FLATALG_FIG8_ROWS", Some("-5")).is_err());
        assert!(parse_positive::<usize>("FLATALG_FIG8_ROWS", Some("0")).is_err());
    }
}
