//! Out-of-core spill partitions for the radix operators.
//!
//! When [`crate::ctx::MemTracker`] says an operator's in-memory working
//! set will not fit the query's byte budget, the radix join and hash
//! grouping switch to a partition-then-process shape: both passes of
//! [`crate::typed::radix_cluster_typed`] are replayed against a spill
//! file — count, then scatter packed `(hash, pos)` pairs into per-cluster
//! file regions — and each cluster is read back and processed alone, so
//! only one cluster's build table is ever resident. The pair format, the
//! cluster assignment (top hash bits), and the stable within-cluster row
//! order are identical to the in-memory clustering, which is what lets
//! the spilling operators reproduce the in-memory result bit for bit.
//!
//! Spill files live in the configuration's `spill_dir` (default: the
//! system temp directory), are deleted on drop, and route through the
//! governor
//! ([`crate::gov::site::SPILL_WRITE`] / [`crate::gov::site::SPILL_READ`]
//! probes before every partition flush and read-back — each one a
//! cancellation/deadline/fault point) and the memory tracker
//! ([`crate::ctx::MemTracker::add_spilled`]).
//!
//! The configuration's `spill_force` sends every eligible operator here
//! (the bit-identity test legs); otherwise dispatch follows the
//! [`crate::costmodel`] headroom estimates.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::ctx::ExecCtx;
use crate::error::{MonetError, Result};
use crate::gov::site;
use crate::typed::TypedVals;

fn io_err(op: &'static str, path: &Path, e: std::io::Error) -> MonetError {
    MonetError::Store { op, path: path.display().to_string(), detail: e.to_string() }
}

/// Create a fresh spill file in `dir` (default: the system temp dir).
fn create_spill_file(dir: Option<&Path>) -> Result<(File, PathBuf)> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = dir.map_or_else(std::env::temp_dir, Path::to_path_buf);
    let pid = std::process::id();
    for _ in 0..64 {
        let path =
            dir.join(format!("flatalg-spill-{pid}-{}.tmp", SEQ.fetch_add(1, Ordering::Relaxed)));
        match std::fs::OpenOptions::new().read(true).write(true).create_new(true).open(&path) {
            Ok(f) => return Ok((f, path)),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(io_err("spill/write", &path, e)),
        }
    }
    Err(MonetError::Store {
        op: "spill/write",
        path: dir.display().to_string(),
        detail: "could not create a unique spill file".into(),
    })
}

/// Pairs staged per cluster before a positioned flush; bounds the staging
/// buffer at `clusters * 256 * 8` bytes (2 MiB at the radix fan-out cap).
const STAGE_PAIRS: usize = 256;

/// One column's packed `(hash, pos)` pairs, hash-clustered on the top
/// `bits` like [`crate::typed::radix_cluster_typed`] but scattered into
/// per-cluster regions of a spill file instead of memory. Within a
/// cluster, positions ascend (rows are appended in scan order), exactly
/// as in the in-memory clustering. The file is deleted on drop.
pub(crate) struct SpilledClusters {
    file: File,
    path: PathBuf,
    /// Element (pair) offset of each cluster's region in the file.
    starts: Vec<u64>,
    /// Pairs in each cluster.
    lens: Vec<u32>,
}

impl SpilledClusters {
    /// Two streaming passes over `t`: count pairs per cluster, then
    /// scatter them (staged, [`STAGE_PAIRS`] per cluster) into the
    /// cluster regions. Probes [`site::SPILL_WRITE`] before every flush.
    pub(crate) fn build<V: TypedVals>(ctx: &ExecCtx, t: V, bits: u32) -> Result<SpilledClusters> {
        assert!(bits <= 16, "spill cluster: {bits} cluster bits (max 16)");
        let n = t.len();
        let nclusters = 1usize << bits;
        let cluster_of = |h: u64| if bits == 0 { 0 } else { (h >> (64 - bits)) as usize };
        let mut lens = vec![0u32; nclusters];
        for i in 0..n {
            lens[cluster_of(t.hash_one(t.value(i)))] += 1;
        }
        let mut starts = vec![0u64; nclusters];
        let mut acc = 0u64;
        for (s, &l) in starts.iter_mut().zip(&lens) {
            *s = acc;
            acc += l as u64;
        }
        let (file, path) = create_spill_file(ctx.config().spill_dir.as_deref())?;
        let sc = SpilledClusters { file, path, starts, lens };
        // Per-cluster staging plus a write cursor per cluster region.
        let mut stage = vec![0u64; nclusters * STAGE_PAIRS];
        let mut fill = vec![0u32; nclusters];
        let mut cursor = sc.starts.clone();
        for i in 0..n {
            let h = t.hash_one(t.value(i));
            let c = cluster_of(h);
            let f = fill[c] as usize;
            stage[c * STAGE_PAIRS + f] = crate::typed::pack_pair(h, i);
            if f + 1 == STAGE_PAIRS {
                sc.flush(ctx, &stage[c * STAGE_PAIRS..(c + 1) * STAGE_PAIRS], cursor[c])?;
                cursor[c] += STAGE_PAIRS as u64;
                fill[c] = 0;
            } else {
                fill[c] = f as u32 + 1;
            }
        }
        for c in 0..nclusters {
            let f = fill[c] as usize;
            if f > 0 {
                sc.flush(ctx, &stage[c * STAGE_PAIRS..c * STAGE_PAIRS + f], cursor[c])?;
            }
        }
        ctx.mem.add_spilled(n as u64 * 8);
        Ok(sc)
    }

    /// Positioned write of `pairs` at element offset `at` (serial writer:
    /// the seek+write pair is not thread-safe, and does not need to be).
    fn flush(&self, ctx: &ExecCtx, pairs: &[u64], at: u64) -> Result<()> {
        ctx.probe(site::SPILL_WRITE)?;
        // SAFETY: u64 -> bytes reinterpretation of an initialized slice.
        let bytes =
            unsafe { std::slice::from_raw_parts(pairs.as_ptr() as *const u8, pairs.len() * 8) };
        (&self.file)
            .seek(SeekFrom::Start(at * 8))
            .and_then(|_| (&self.file).write_all(bytes))
            .map_err(|e| io_err("spill/write", &self.path, e))
    }

    pub(crate) fn num_clusters(&self) -> usize {
        self.starts.len()
    }

    pub(crate) fn cluster_len(&self, c: usize) -> usize {
        self.lens[c] as usize
    }

    /// Total pairs across all clusters.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// Read cluster `c` back into `buf` (cleared first). Probes
    /// [`site::SPILL_READ`] before the read.
    pub(crate) fn read_cluster(&self, ctx: &ExecCtx, c: usize, buf: &mut Vec<u64>) -> Result<()> {
        ctx.probe(site::SPILL_READ)?;
        let n = self.lens[c] as usize;
        buf.clear();
        buf.resize(n, 0);
        // SAFETY: any byte pattern is a valid u64; the slice covers
        // exactly the vector's n initialized elements.
        let bytes = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, n * 8) };
        (&self.file)
            .seek(SeekFrom::Start(self.starts[c] * 8))
            .and_then(|_| (&self.file).read_exact(bytes))
            .map_err(|e| io_err("spill/read", &self.path, e))
    }
}

impl Drop for SpilledClusters {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    #[test]
    fn spilled_clusters_match_in_memory_clustering() {
        let ctx = ExecCtx::new();
        // Enough rows to fill several staging chunks per cluster, with
        // string values so the hash path is non-trivial.
        let vals: Vec<String> = (0..5000).map(|i| format!("v{}", i % 700)).collect();
        let col = Column::from_strs(vals.iter().map(|s| s.as_str()));
        for bits in [0u32, 3] {
            let sc = crate::for_each_typed!(&col, |t| SpilledClusters::build(&ctx, t, bits))
                .expect("spill build");
            let rc = crate::for_each_typed!(&col, |t| crate::typed::radix_cluster_typed(t, bits));
            assert_eq!(sc.num_clusters(), rc.num_clusters());
            assert_eq!(sc.rows(), col.len());
            let mut buf = Vec::new();
            for c in 0..sc.num_clusters() {
                sc.read_cluster(&ctx, c, &mut buf).expect("spill read");
                assert_eq!(&buf[..], &rc.pairs[rc.cluster(c)], "cluster {c} (bits {bits})");
            }
            let path = sc.path.clone();
            assert!(path.exists());
            drop(sc);
            assert!(!path.exists(), "spill file must be deleted on drop");
            rc.recycle();
        }
        // One spill file per bits setting, 8 bytes per pair.
        assert_eq!(ctx.mem.spilled_bytes(), 2 * 5000 * 8);
    }

    #[test]
    fn spill_probes_are_governed_fault_points() {
        let ctx = ExecCtx::new();
        let col = Column::from_ints((0..100).collect());
        ctx.gov.arm_fault(site::SPILL_WRITE, 1);
        let r = crate::for_each_typed!(&col, |t| SpilledClusters::build(&ctx, t, 2));
        assert!(matches!(r, Err(MonetError::Injected { site: s, .. }) if s == site::SPILL_WRITE));
        let sc = crate::for_each_typed!(&col, |t| SpilledClusters::build(&ctx, t, 2)).unwrap();
        ctx.gov.arm_fault(site::SPILL_READ, 1);
        let mut buf = Vec::new();
        let r = sc.read_cluster(&ctx, 0, &mut buf);
        assert!(matches!(r, Err(MonetError::Injected { site: s, .. }) if s == site::SPILL_READ));
        assert!(sc.read_cluster(&ctx, 0, &mut buf).is_ok(), "one-shot fault: retry clean");
    }
}
