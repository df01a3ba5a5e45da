//! The four workloads. Each is a closed loop of one client running
//! *passes* — Q1..Q15 once each, in order — against one world; they differ
//! in the size of the world, whether plans are cached, and whether the
//! data and the join/group intermediates live in memory or on disk.

use flatalg_server::ServerConfig;

pub struct Workload {
    pub name: &'static str,
    /// TPC-D scale factor of the generated world.
    pub sf: f64,
    /// `ServerConfig.plan_cache`: `None` translates and optimizes every
    /// statement from scratch.
    pub plan_cache: Option<usize>,
    /// Write the world with `tpcd::save_catalog`, reopen it (mmap) and
    /// run with `FLATALG_SPILL=force`.
    pub out_of_core: bool,
    /// Untimed passes that end the set-up (the first builds the plans; the
    /// rest fault in the columns and fill the kernel scratch pools).
    pub warmup: usize,
    /// The timed phase runs at least this many passes whatever `--seconds`
    /// says, and `peak_rss_mb` is read right after them, not at exit:
    /// memory after fixed work, so a faster build that fits more passes
    /// into the same seconds is not charged for them.
    pub rss_passes: usize,
    /// The reference kernel (see `calib`): log2 of its table size in
    /// 8-byte words, and its median time in ms on this box when quiet. The
    /// table is as large as the data the workload's statements touch.
    pub reference: (u32, f64),
}

/// 1 MiB: an SF 0.001 world and its intermediates live in the L2 cache.
const SMALL_TABLE: (u32, f64) = (17, 0.214);
/// 32 MiB: an SF 0.1 pass streams hundreds of MB through memory.
const LARGE_TABLE: (u32, f64) = (22, 25.5);

impl Workload {
    /// One client, no deadline, no admission timeout: a closed loop.
    pub fn server_config(&self) -> ServerConfig {
        ServerConfig {
            max_concurrent: 1,
            plan_cache: self.plan_cache,
            deadline: None,
            admit_timeout: None,
        }
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dss_sf01",
        sf: 0.1,
        plan_cache: Some(64),
        out_of_core: false,
        warmup: 2,
        rss_passes: 8,
        reference: LARGE_TABLE,
    },
    Workload {
        name: "tiny_hot",
        sf: 0.001,
        plan_cache: Some(64),
        out_of_core: false,
        warmup: 8,
        rss_passes: 800,
        reference: SMALL_TABLE,
    },
    Workload {
        name: "tiny_adhoc",
        sf: 0.001,
        plan_cache: None,
        out_of_core: false,
        warmup: 8,
        rss_passes: 800,
        reference: SMALL_TABLE,
    },
    Workload {
        name: "ooc_sf01",
        sf: 0.1,
        plan_cache: Some(64),
        out_of_core: true,
        warmup: 2,
        rss_passes: 8,
        reference: LARGE_TABLE,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `--smoke`: every workload on the SF 0.001 world for a fixed 20 passes,
/// so all code paths (store write/open, forced spill, the traced pipeline,
/// the checks) run in seconds.
pub const SMOKE_SF: f64 = 0.001;
pub const SMOKE_PASSES: usize = 20;
pub const SMOKE_WARMUP: usize = 2;
pub const SMOKE_REFERENCE: (u32, f64) = SMALL_TABLE;
