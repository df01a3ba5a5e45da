//! Equi-join: `AB.join(CD) = {ad | ab ∈ AB ∧ cd ∈ CD ∧ b = c}`.
//!
//! The equi-join projects out the join columns to keep the operation closed
//! in the binary model (Section 4.2). Implementations, picked dynamically
//! in this order:
//!
//! * `sync` — the left tail and the right head are the *same column* (one
//!   [`Column::identity`]) and the right head is `key`: BUN `i` matches BUN
//!   `i` and nothing else, so the result is the left head next to the right
//!   tail — zero copy, no page touched. This is the join of the flattened
//!   `nest` + aggregate tail, `join(class.mirror, semijoin(vals, class))`,
//!   and it comes first in the pinned entry points too;
//! * `fetch` — the right head is a dense (void) sequence: pure positional
//!   array lookup, `cd.tail[b - seq]`;
//! * `merge` — left tail and right head sorted: linear merge with
//!   duplicate-group cross products;
//! * `datavector` — oid join columns and a right operand carrying a
//!   datavector over a dense extent: the same positional loop as `fetch`,
//!   reading `dv.vector[b - base]` (an attribute dereference never hashes
//!   the class extent);
//! * `direct` — oid join columns, a `key` right head whose min/max span
//!   is compact ([`crate::costmodel::join_prefers_direct`]): fill a pooled
//!   position array over the span, probe it with one load;
//! * `spill` / `partition` / `hash` — the general fallbacks, building a
//!   hash table on the right head.
//!
//! Every implementation emits in left-BUN order, so all are bit-identical
//! to [`super::reference::join`], and a full match against a `key` right
//! head shares the left operand's head column ([`build_join`]).

use std::time::Instant;

use crate::accel::datavector::Datavector;
use crate::bat::Bat;
use crate::column::Column;
use crate::ctx::ExecCtx;
use crate::error::Result;
use crate::pager;
use crate::props::{ColProps, Props};
use crate::typed::{put_u32, take_u32, OidDomain, TypedVals};

use super::check_comparable;

/// Dynamic-dispatch equi-join.
pub fn join(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Result<Bat> {
    ctx.probe("op/join")?;
    check_comparable("join", ab.tail().atom_type(), cd.head().atom_type())?;
    let started = Instant::now();
    let faults0 = ctx.faults();
    let oid_keyed = ab.tail().is_oidlike() && cd.head().is_oidlike();
    let (result, algo) = if let Some(synced) = join_sync(ab, cd) {
        (synced, "sync")
    } else if oid_keyed && cd.props().head.dense {
        (join_fetch(ctx, ab, cd), "fetch")
    } else if ab.props().tail.sorted && cd.props().head.sorted {
        (join_merge(ctx, ab, cd), "merge")
    } else if let Some((dv, dom)) = datavector_domain(cd).filter(|_| oid_keyed) {
        (join_positional(ctx, ab, cd.props(), dom, dv.vector()), "datavector")
    } else if let Some(dom) = direct_domain(ctx, ab, cd) {
        (join_direct(ctx, ab, cd, dom), "direct")
    } else if crate::costmodel::join_prefers_spill(ctx, ab.len(), cd.len()) {
        // The in-memory working set won't fit the budget headroom (or
        // `spill_force` is configured): radix-partition both sides
        // into spill files and build+probe one cluster at a time.
        (join_spill(ctx, ab, cd)?, "spill")
    } else if crate::costmodel::join_prefers_partitioned(ab.len(), cd.len()) {
        // The build side overflows the cache: radix-partition so each
        // build+probe is cache-resident.
        (join_partitioned(ctx, ab, cd)?, "partition")
    } else {
        (join_hash(ctx, ab, cd), "hash")
    };
    ctx.record("join", algo, started, faults0, &result)?;
    Ok(result)
}

/// Theta-join: `{ad | ab ∈ AB ∧ cd ∈ CD ∧ b θ c}` for an order predicate
/// θ ∈ {<, ≤, >, ≥, ≠}. Part of MIL ("the theta-join … omitted for
/// brevity", Section 4.2). Sort-based when the right head is sorted
/// (emitting prefix/suffix ranges), nested-loop otherwise.
pub fn join_theta(ctx: &ExecCtx, ab: &Bat, cd: &Bat, theta: crate::ops::ScalarFunc) -> Result<Bat> {
    use crate::ops::ScalarFunc as F;
    ctx.probe("op/theta-join")?;
    check_comparable("theta-join", ab.tail().atom_type(), cd.head().atom_type())?;
    if !matches!(theta, F::Lt | F::Le | F::Gt | F::Ge | F::Ne) {
        return Err(crate::error::MonetError::Malformed {
            op: "theta-join",
            detail: format!("unsupported theta operator {:?}", theta),
        });
    }
    let started = Instant::now();
    let faults0 = ctx.faults();
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, ab.tail());
        pager::touch_scan(p, cd.head());
    }
    let keep = |o: std::cmp::Ordering| match theta {
        F::Lt => o.is_lt(),
        F::Le => o.is_le(),
        F::Gt => o.is_gt(),
        F::Ge => o.is_ge(),
        F::Ne => !o.is_eq(),
        _ => unreachable!(),
    };
    let sorted_range = cd.props().head.sorted && !matches!(theta, F::Ne);
    let algo = if sorted_range { "sorted-range" } else { "nested-loop" };
    let (left_idx, right_idx) = crate::for_each_typed2!(ab.tail(), cd.head(), |bt, ch| {
        let mut left_idx: Vec<u32> = Vec::with_capacity(ab.len());
        let mut right_idx: Vec<u32> = Vec::with_capacity(ab.len());
        if sorted_range {
            // Binary-search the boundary per left BUN, emit the matching
            // prefix or suffix of CD.
            for i in 0..bt.len() {
                let v = bt.value(i);
                let (start, end) = match theta {
                    F::Lt => (crate::typed::upper_bound_by(ch, v), ch.len()),
                    F::Le => (crate::typed::lower_bound_by(ch, v), ch.len()),
                    F::Gt => (0, crate::typed::lower_bound_by(ch, v)),
                    F::Ge => (0, crate::typed::upper_bound_by(ch, v)),
                    _ => unreachable!(),
                };
                for j in start..end {
                    left_idx.push(i as u32);
                    right_idx.push(j as u32);
                }
            }
        } else {
            for i in 0..bt.len() {
                let v = bt.value(i);
                for j in 0..ch.len() {
                    if keep(bt.cmp_one(v, ch.value(j))) {
                        left_idx.push(i as u32);
                        right_idx.push(j as u32);
                    }
                }
            }
        }
        (left_idx, right_idx)
    });
    if let Some(p) = ctx.pager.as_deref() {
        for &r in &right_idx {
            pager::touch_fetch(p, cd.tail(), r as usize);
        }
    }
    // One left BUN can match many rights, so only order survives (left
    // positions emitted ascending).
    let result = Bat::with_props(
        ab.head().gather(&left_idx),
        cd.tail().gather(&right_idx),
        Props::new(
            ColProps { sorted: ab.props().head.sorted, key: false, dense: false, ..ColProps::NONE },
            ColProps::NONE,
        ),
    );
    ctx.record("theta-join", algo, started, faults0, &result)?;
    Ok(result)
}

/// Sync join: when the join columns are one and the same duplicate-free
/// column, every left BUN matches exactly the right BUN at its own
/// position — the full match [`build_join`] would assemble from the
/// identity permutation, without the probe and without the gathers.
fn join_sync(ab: &Bat, cd: &Bat) -> Option<Bat> {
    let cp = cd.props();
    if !(cp.head.key && ab.tail().identity() == cd.head().identity()) {
        return None;
    }
    Some(Bat::with_props(ab.head().clone(), cd.tail().clone(), full_match_props(ab.props(), cp)))
}

/// [`propagated_props`] of a join in which every left BUN found its one
/// partner: the result head *is* the left head, so a dense head stays
/// dense.
fn full_match_props(ab: Props, cd: Props) -> Props {
    let mut props = propagated_props(ab, cd);
    props.head.dense = ab.head.dense;
    props
}

/// A right position no probe can return: marks an oid absent from a
/// position table.
const ABSENT: u32 = u32::MAX;

/// Probe every left tail oid into `dom`: `at(oid - base)` is the matching
/// right position or [`ABSENT`]. Returns pooled `(left, right)` positions
/// in left-BUN order — the one probe loop of the compact-domain arms.
fn probe_domain(tail: &Column, dom: OidDomain, at: impl Fn(usize) -> u32) -> (Vec<u32>, Vec<u32>) {
    crate::for_each_oidlike!(tail, |bt| {
        let mut left_idx = take_u32(bt.len());
        let mut right_idx = take_u32(bt.len());
        for i in 0..bt.len() {
            if let Some(k) = dom.slot(bt.value(i)) {
                let r = at(k);
                if r != ABSENT {
                    left_idx.push(i as u32);
                    right_idx.push(r);
                }
            }
        }
        (left_idx, right_idx)
    })
}

/// Positional join: every oid of `dom` sits at `oid - base` in `values`
/// (the tail under a dense right head, or a datavector's value vector).
fn join_positional(ctx: &ExecCtx, ab: &Bat, cd: Props, dom: OidDomain, values: &Column) -> Bat {
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, ab.tail());
    }
    let (left_idx, right_idx) = probe_domain(ab.tail(), dom, |k| k as u32);
    build_join(ctx, ab, cd, values, left_idx, right_idx)
}

/// Positional fetch join against a dense right head.
fn join_fetch(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Bat {
    let base = if cd.is_empty() { 0 } else { cd.head().oid_at(0) };
    join_positional(ctx, ab, cd.props(), OidDomain { base, span: cd.len() }, cd.tail())
}

/// The right operand's datavector and the dense domain of its extent, when
/// it has both: `vector[oid - base]` is then the tail of head `oid`.
fn datavector_domain(cd: &Bat) -> Option<(&Datavector, OidDomain)> {
    let dv = cd.accel().datavector.as_deref()?;
    Some((dv, dv.extent().dense()?))
}

/// The compact domain of the right head, when the `direct` arm applies:
/// oid join columns, a `key` head (one right position per oid), and a span
/// the cost model accepts.
fn direct_domain(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Option<OidDomain> {
    let head = cd.props().head;
    if !(head.key && ab.tail().is_oidlike() && cd.head().is_oidlike()) {
        return None;
    }
    let dom = OidDomain::covering(cd.head(), head.sorted)?;
    crate::costmodel::join_prefers_direct(ctx, dom.span, ab.len(), cd.len()).then_some(dom)
}

/// Direct-addressed join: scatter the right positions into a pooled array
/// over the head's compact domain, then probe it with one load per left
/// BUN — no hashing, no chains, no value compare.
fn join_direct(ctx: &ExecCtx, ab: &Bat, cd: &Bat, dom: OidDomain) -> Bat {
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, cd.head());
        pager::touch_scan(p, ab.tail());
    }
    let mut pos = take_u32(dom.span);
    pos.resize(dom.span, ABSENT);
    crate::for_each_oidlike!(cd.head(), |ch| {
        for j in 0..ch.len() {
            pos[(ch.value(j) - dom.base) as usize] = j as u32;
        }
    });
    let (left_idx, right_idx) = probe_domain(ab.tail(), dom, |k| pos[k]);
    put_u32(pos);
    build_join(ctx, ab, cd.props(), cd.tail(), left_idx, right_idx)
}

/// Merge join: left sorted on tail, right sorted on head.
fn join_merge(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Bat {
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, ab.tail());
        pager::touch_scan(p, cd.head());
    }
    let (left_idx, right_idx) = crate::for_each_typed2!(ab.tail(), cd.head(), |bt, ch| {
        let mut left_idx = take_u32(ab.len());
        let mut right_idx = take_u32(ab.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < bt.len() && j < ch.len() {
            let v = bt.value(i);
            match bt.cmp_one(v, ch.value(j)) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    // Cross product of the equal groups.
                    let mut j2 = j;
                    while j2 < ch.len() && bt.cmp_one(v, ch.value(j2)).is_eq() {
                        left_idx.push(i as u32);
                        right_idx.push(j2 as u32);
                        j2 += 1;
                    }
                    i += 1;
                    // j stays at group start: the next equal b rescans it.
                }
            }
        }
        (left_idx, right_idx)
    });
    build_join(ctx, ab, cd.props(), cd.tail(), left_idx, right_idx)
}

/// Hash join: build on right head, probe left tails in order.
pub fn join_hash(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Bat {
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, cd.head());
        pager::touch_scan(p, ab.tail());
    }
    let rindex = crate::accel::hash::HashIndex::build(cd.head());
    let (left_idx, right_idx) = crate::for_each_typed2!(ab.tail(), cd.head(), |bt, ch| {
        let mut left_idx = take_u32(ab.len());
        let mut right_idx = take_u32(ab.len());
        for i in 0..bt.len() {
            let v = bt.value(i);
            let h = bt.hash_one(v);
            // Chains iterate newest-first; collect then reverse for stable
            // order.
            let start = right_idx.len();
            for p in rindex.candidates(h) {
                if ch.eq_one(ch.value(p), v) {
                    left_idx.push(i as u32);
                    right_idx.push(p as u32);
                }
            }
            right_idx[start..].reverse();
        }
        (left_idx, right_idx)
    });
    build_join(ctx, ab, cd.props(), cd.tail(), left_idx, right_idx)
}

/// Radix-partitioned hash join: cluster both inputs on the same high hash
/// bits so that every per-cluster build table stays cache-resident
/// ([`crate::typed::radix_cluster`]), then build+probe cluster by cluster.
/// The probe walks packed `(hash, pos)` pairs sequentially and compares 32
/// retained hash bits first, touching actual column values only on a hash
/// match — so the monolithic path's per-candidate random value reads are
/// replaced by streaming access over cache-sized windows.
///
/// The output is re-emitted in left-BUN order (left positions ascending,
/// right positions ascending per left BUN), bit-identical to [`join_hash`]
/// and [`super::reference::join`]: each left BUN lands in exactly one
/// cluster with its matches contiguous and right-ascending, so a stable
/// radix sort of packed `(left, right)` pairs on the left half
/// ([`crate::typed::sort_pairs_by_hi`]) restores the global order with
/// streaming passes.
pub fn join_partitioned(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Result<Bat> {
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, cd.head());
        pager::touch_scan(p, ab.tail());
    }
    // Cluster count is sized to the *build* side: its per-cluster table is
    // what must stay cache-resident. The probe side only streams through
    // its clusters, whatever their size.
    let bits = crate::typed::radix_bits(cd.len());
    let threads = super::par_threads(ctx, ab.len().max(cd.len()));
    // Matches as packed `left << 32 | right`, in cluster order.
    let mut matches: Vec<u64> = crate::typed::take_u64(ab.len());
    let lc = crate::for_each_typed!(ab.tail(), |bt| crate::typed::radix_cluster_typed(bt, bits));
    let rc = crate::for_each_typed!(cd.head(), |ch| crate::typed::radix_cluster_typed(ch, bits));
    let max_build = rc.max_cluster_rows();
    if max_build <= SLOT_MASK as usize {
        if threads > 1 && lc.num_clusters() > 1 {
            // Clusters are independent: build+probe them in parallel, one
            // task per contiguous cluster range (balanced by rows, so a
            // heavy cluster does not serialize the batch). Each task emits
            // its matches locally; concatenating the parts in range (=
            // cluster) order reproduces the serial match sequence exactly,
            // and the final left-radix sort below is the same stable pass
            // either way.
            let ranges = cluster_task_ranges(&lc, &rc, threads * 4);
            let ntasks = ranges.len();
            // RAII recycling: the dispatched job closures hold `Arc`
            // clones that can outlive `run_tasks` (a queued job behind
            // another driver's batch drops its clone only when the worker
            // dequeues it), so the pair buffers go back to the scratch
            // pool of whichever thread drops the *last* reference —
            // promptly in every schedule, instead of leaking to the
            // allocator whenever a `try_unwrap` lost that race.
            let lc2 = std::sync::Arc::new(RecycleOnDrop(Some(lc)));
            let rc2 = std::sync::Arc::new(RecycleOnDrop(Some(rc)));
            let ltail = ab.tail().clone();
            let rhead = cd.head().clone();
            let parts = crate::par::try_run_tasks(
                &ctx.gov,
                crate::gov::site::PAR_TASK,
                ntasks,
                threads,
                move |k| {
                    crate::for_each_typed2!(&ltail, &rhead, |bt, ch| {
                        let mut local: Vec<u64> = Vec::new();
                        probe_cluster_range(bt, ch, &lc2, &rc2, ranges[k].clone(), &mut local);
                        local
                    })
                },
            );
            // An aborted batch (cancel/deadline/injected fault) must still
            // return the match buffer to the scratch pool; the cluster
            // buffers come back via the RecycleOnDrop Arcs either way.
            let parts: Vec<Vec<u64>> = match parts {
                Ok(parts) => parts,
                Err(e) => {
                    crate::typed::put_u64(matches);
                    return Err(e);
                }
            };
            for p in &parts {
                matches.extend_from_slice(p);
            }
        } else {
            crate::for_each_typed2!(ab.tail(), cd.head(), |bt, ch| {
                probe_cluster_range(bt, ch, &lc, &rc, 0..lc.num_clusters(), &mut matches)
            });
            lc.recycle();
            rc.recycle();
        }
        return Ok(finish_partitioned(ctx, ab, cd, matches));
    }
    // Pathological skew: one cluster exceeds the 2^21 rows the slot field
    // of an epoch-tagged entry can address (duplicate-heavy build sides
    // hash-collapse into one cluster). Same algorithm with the full-width
    // per-cluster table — correct for any cluster size, just without the
    // no-reset trick (and kept serial: this regime is a degenerate join,
    // not a hot path).
    crate::for_each_typed2!(ab.tail(), cd.head(), |bt, ch| {
        for c in 0..lc.num_clusters() {
            let (lp, rp) = (&lc.pairs[lc.cluster(c)], &rc.pairs[rc.cluster(c)]);
            probe_cluster_full(bt, ch, lp, rp, &mut matches);
        }
    });
    lc.recycle();
    rc.recycle();
    Ok(finish_partitioned(ctx, ab, cd, matches))
}

/// Out-of-core radix join: the same partition/build/probe algorithm as
/// [`join_partitioned`], but both sides' `(hash, pos)` pairs are
/// scattered into per-cluster regions of spill files
/// ([`crate::spill::SpilledClusters`]) instead of memory, and each
/// cluster is read back and joined alone — only one cluster's pairs and
/// build table are ever resident, so the transient working set is
/// bounded by the largest cluster, not the operand.
///
/// Bit-identical to the in-memory paths: the spilled clustering preserves
/// the stable within-cluster row order, the per-cluster build inserts
/// newest-first in reverse so chains ascend in right position, the probe
/// walks left pairs in order ([`probe_cluster_full`]), and
/// [`finish_partitioned`] restores global left-BUN order with the same
/// stable sort.
pub(crate) fn join_spill(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Result<Bat> {
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, cd.head());
        pager::touch_scan(p, ab.tail());
    }
    let bits = crate::typed::radix_bits(cd.len());
    let mut matches: Vec<u64> = crate::typed::take_u64(ab.len());
    // Immediately-invoked so an abort (spill IO error, injected fault,
    // cancellation at a spill probe) still recycles the match buffer.
    let r = (|| -> Result<()> {
        let ls = crate::for_each_typed!(ab.tail(), |bt| {
            crate::spill::SpilledClusters::build(ctx, bt, bits)
        })?;
        let rs = crate::for_each_typed!(cd.head(), |ch| {
            crate::spill::SpilledClusters::build(ctx, ch, bits)
        })?;
        crate::for_each_typed2!(ab.tail(), cd.head(), |bt, ch| {
            let mut lbuf: Vec<u64> = Vec::new();
            let mut rbuf: Vec<u64> = Vec::new();
            for c in 0..ls.num_clusters() {
                if ls.cluster_len(c) == 0 || rs.cluster_len(c) == 0 {
                    continue;
                }
                rs.read_cluster(ctx, c, &mut rbuf)?;
                ls.read_cluster(ctx, c, &mut lbuf)?;
                probe_cluster_full(bt, ch, &lbuf, &rbuf, &mut matches);
            }
            Ok(())
        })
    })();
    if let Err(e) = r {
        crate::typed::put_u64(matches);
        return Err(e);
    }
    Ok(finish_partitioned(ctx, ab, cd, matches))
}

/// Bits of an epoch-tagged bucket entry addressing the build slot within
/// one cluster; the remaining high bits carry the cluster id (the epoch),
/// so stale entries from other clusters are self-invalidating.
const SLOT_BITS: u32 = 21;
const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;

/// Shares [`RadixClusters`] across parallel probe tasks and returns the
/// pair buffer to the scratch pool when the last `Arc` holder — caller or
/// worker, whichever drops later — lets go.
struct RecycleOnDrop(Option<crate::typed::RadixClusters>);

impl std::ops::Deref for RecycleOnDrop {
    type Target = crate::typed::RadixClusters;

    fn deref(&self) -> &crate::typed::RadixClusters {
        self.0.as_ref().expect("clusters live until drop")
    }
}

impl Drop for RecycleOnDrop {
    fn drop(&mut self) {
        if let Some(c) = self.0.take() {
            c.recycle();
        }
    }
}

/// Build+probe one cluster given as `(hash, pos)` pair slices, appending
/// packed `left << 32 | right` matches in left-pair order (right positions
/// ascending per left BUN). The full-width twin of [`probe_cluster_range`]:
/// a chain table sized to this cluster alone with plain slot entries, so it
/// is correct for any cluster size and wherever the pairs live — the skew
/// fallback of [`join_partitioned`] and every cluster [`join_spill`] reads
/// back share it. (The bucket count differs from the epoch-tagged table's,
/// which cannot affect emission order: a match's chain position depends
/// only on its slot, and non-matching chain members emit nothing.)
fn probe_cluster_full<VL, VR>(
    bt: VL,
    ch: VR,
    lpairs: &[u64],
    rpairs: &[u64],
    matches: &mut Vec<u64>,
) where
    VL: TypedVals,
    VR: TypedVals<Elem = VL::Elem>,
{
    const EMPTY: u32 = u32::MAX;
    if lpairs.is_empty() || rpairs.is_empty() {
        return;
    }
    let nbuckets = (rpairs.len() * 4).next_power_of_two();
    let mask = (nbuckets - 1) as u32;
    let mut buckets: Vec<u32> = crate::typed::take_u32(nbuckets);
    buckets.resize(nbuckets, EMPTY);
    let mut next: Vec<u32> = crate::typed::take_u32(rpairs.len());
    next.resize(rpairs.len(), EMPTY);
    // Newest-first chains built in reverse iterate in ascending right
    // position.
    for (slot, &rp) in rpairs.iter().enumerate().rev() {
        let b = (crate::typed::pair_hash(rp) & mask) as usize;
        next[slot] = buckets[b];
        buckets[b] = slot as u32;
    }
    for &lp in lpairs {
        let h = crate::typed::pair_hash(lp);
        let mut cur = buckets[(h & mask) as usize];
        while cur != EMPTY {
            let rp = rpairs[cur as usize];
            if crate::typed::pair_hash(rp) == h {
                let li = crate::typed::pair_pos(lp);
                let ri = crate::typed::pair_pos(rp);
                if ch.eq_one(ch.value(ri as usize), bt.value(li as usize)) {
                    matches.push(((li as u64) << 32) | ri as u64);
                }
            }
            cur = next[cur as usize];
        }
    }
    crate::typed::put_u32(buckets);
    crate::typed::put_u32(next);
}

/// Build+probe the clusters in `crange`, appending packed
/// `left << 32 | right` matches to `matches` in cluster order (left
/// positions ascending within a cluster, right positions ascending per
/// left BUN). One epoch-tagged chain table — presized for the range's
/// largest build cluster, buffers from the caller thread's scratch pool —
/// serves every cluster of the range without per-cluster resets: bucket
/// entries carry the (global) cluster id in their top bits, so entries
/// left by a previous cluster are self-invalidating, and `next` needs no
/// reset because a chain only references slots the current cluster's
/// build just wrote. The serial join passes the full cluster range; the
/// parallel join hands disjoint ranges to the worker pool, where each
/// worker's thread-local pool keeps the table pages warm across tasks.
///
/// Caller guarantees every build cluster in range fits [`SLOT_MASK`]
/// slots (the dispatcher falls back to the full-width reset variant on
/// pathological skew).
fn probe_cluster_range<VL, VR>(
    bt: VL,
    ch: VR,
    lc: &crate::typed::RadixClusters,
    rc: &crate::typed::RadixClusters,
    crange: std::ops::Range<usize>,
    matches: &mut Vec<u64>,
) where
    VL: TypedVals,
    VR: TypedVals<Elem = VL::Elem>,
{
    const EMPTY: u32 = u32::MAX;
    let max_build = crange.clone().map(|c| rc.cluster(c).len()).max().unwrap_or(0);
    if max_build == 0 {
        return;
    }
    debug_assert!(max_build <= SLOT_MASK as usize);
    // 4x buckets: ~25% occupancy keeps the chain-entry branch predictably
    // not-taken (at 2x it is a coin flip, and the mispredicts cost more
    // than the extra — still L1-resident — rows).
    let nbuckets = (max_build * 4).next_power_of_two();
    let mask = (nbuckets - 1) as u32;
    let mut buckets: Vec<u32> = crate::typed::take_u32(nbuckets);
    buckets.resize(nbuckets, u32::MAX); // a tag no cluster id can match
    let mut next: Vec<u32> = crate::typed::take_u32(max_build);
    next.resize(max_build, EMPTY);
    for c in crange {
        let (lr, rr) = (lc.cluster(c), rc.cluster(c));
        if lr.is_empty() || rr.is_empty() {
            continue;
        }
        let tag = (c as u32) << SLOT_BITS;
        let rpairs = &rc.pairs[rr.clone()];
        // Build on the right cluster, newest-first chains: inserting in
        // reverse makes each chain iterate in ascending right position.
        for (slot, &rp) in rpairs.iter().enumerate().rev() {
            let b = (crate::typed::pair_hash(rp) & mask) as usize;
            let head = buckets[b];
            next[slot] = if head >> SLOT_BITS == c as u32 { head & SLOT_MASK } else { EMPTY };
            buckets[b] = tag | slot as u32;
        }
        // Probe the left cluster in (stable, ascending-position) order:
        // sequential pair reads, cache-resident chain walks, and value
        // fetches only on a 32-bit hash match.
        for &lp in &lc.pairs[lr] {
            let h = crate::typed::pair_hash(lp);
            let head = buckets[(h & mask) as usize];
            let mut cur = if head >> SLOT_BITS == c as u32 { head & SLOT_MASK } else { EMPTY };
            while cur != EMPTY {
                let rp = rpairs[cur as usize];
                if crate::typed::pair_hash(rp) == h {
                    let li = crate::typed::pair_pos(lp);
                    let ri = crate::typed::pair_pos(rp);
                    if ch.eq_one(ch.value(ri as usize), bt.value(li as usize)) {
                        matches.push(((li as u64) << 32) | ri as u64);
                    }
                }
                cur = next[cur as usize];
            }
        }
    }
    crate::typed::put_u32(buckets);
    crate::typed::put_u32(next);
}

/// Cut `[0, nclusters)` into at most `target_tasks` contiguous ranges of
/// roughly equal combined (probe + build) row count, so one heavy cluster
/// does not serialize the parallel batch.
fn cluster_task_ranges(
    lc: &crate::typed::RadixClusters,
    rc: &crate::typed::RadixClusters,
    target_tasks: usize,
) -> Vec<std::ops::Range<usize>> {
    let n = lc.num_clusters();
    let total: usize = (0..n).map(|c| lc.cluster(c).len() + rc.cluster(c).len()).sum();
    let per_task = (total / target_tasks.max(1)).max(1);
    let mut ranges: Vec<std::ops::Range<usize>> = Vec::with_capacity(target_tasks);
    let (mut start, mut acc) = (0usize, 0usize);
    for c in 0..n {
        acc += lc.cluster(c).len() + rc.cluster(c).len();
        if acc >= per_task {
            ranges.push(start..c + 1);
            start = c + 1;
            acc = 0;
        }
    }
    if start < n {
        ranges.push(start..n);
    }
    if ranges.is_empty() {
        ranges.push(0..n);
    }
    ranges
}

/// Shared tail of the partitioned join: restore global left-BUN order
/// (stable streaming sort on the left half; equal left positions keep
/// their right-ascending probe order) and materialize the result.
fn finish_partitioned(ctx: &ExecCtx, ab: &Bat, cd: &Bat, matches: Vec<u64>) -> Bat {
    let matches = crate::typed::sort_pairs_by_hi(matches);
    let mut left_idx = take_u32(matches.len());
    let mut right_idx = take_u32(matches.len());
    left_idx.extend(matches.iter().map(|&m| (m >> 32) as u32));
    right_idx.extend(matches.iter().map(|&m| m as u32));
    crate::typed::put_u64(matches);
    build_join(ctx, ab, cd.props(), cd.tail(), left_idx, right_idx)
}

/// The equi-join propagation rule (Section 5.1), shared by every
/// implementation and reused by the plan optimizer's static property
/// inference. All implementations emit left positions in ascending order,
/// so a sorted left head stays sorted (duplicates may appear when the
/// right head has duplicates — non-strict order survives that); the head
/// is key when both operand heads are; each right BUN is used at most once
/// iff the left tail is key, so the result tail preserves key when both
/// tails are key (not order — emission follows the left operand).
pub fn propagated_props(ab: Props, cd: Props) -> Props {
    Props::new(
        ColProps {
            sorted: ab.head.sorted,
            key: ab.head.key && cd.head.key,
            dense: false,
            ..ColProps::NONE
        },
        ColProps { sorted: false, key: cd.tail.key && ab.tail.key, dense: false, ..ColProps::NONE },
    )
}

/// Pinned positional fetch join: the plan optimizer proved the right head
/// dense and both join columns oid-like from propagated descriptors, so
/// dynamic dispatch would necessarily pick `fetch` — the interpreter skips
/// the re-derivation. Column identity is a run-time fact the optimizer
/// cannot see, so the `sync` arm is still tried first, as in [`join`].
pub fn join_fetch_pinned(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Result<Bat> {
    ctx.probe("op/join")?;
    check_comparable("join", ab.tail().atom_type(), cd.head().atom_type())?;
    debug_assert!(
        cd.props().head.dense && cd.head().is_oidlike() && ab.tail().is_oidlike(),
        "pinned fetch join preconditions violated"
    );
    let started = Instant::now();
    let faults0 = ctx.faults();
    let (result, algo) = match join_sync(ab, cd) {
        Some(synced) => (synced, "sync"),
        None => (join_fetch(ctx, ab, cd), "fetch"),
    };
    ctx.record("join", algo, started, faults0, &result)?;
    Ok(result)
}

/// Pinned merge join: the plan optimizer proved the left tail and right
/// head sorted. Dynamic dispatch would pick `merge` too — or `fetch`,
/// should the right head turn out dense, which finds the same matches in
/// the same order and assembles them in the same [`build_join`].
pub fn join_merge_pinned(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Result<Bat> {
    ctx.probe("op/join")?;
    check_comparable("join", ab.tail().atom_type(), cd.head().atom_type())?;
    debug_assert!(
        ab.props().tail.sorted && cd.props().head.sorted,
        "pinned merge join preconditions violated"
    );
    let started = Instant::now();
    let faults0 = ctx.faults();
    let (result, algo) = match join_sync(ab, cd) {
        Some(synced) => (synced, "sync"),
        None => (join_merge(ctx, ab, cd), "merge"),
    };
    ctx.record("join", algo, started, faults0, &result)?;
    Ok(result)
}

/// Materialize `[ab.head[li], values[ri]]` from pooled position vectors
/// (returned to the pool here) — the shared tail of every implementation.
/// A 100% match against a `key` right head uses each left BUN exactly
/// once, in order: the head column is then *shared* with the left operand,
/// keeping the result synced with AB and with every other full-match join
/// off it, whichever algorithm produced them.
fn build_join(
    ctx: &ExecCtx,
    ab: &Bat,
    cd: Props,
    values: &Column,
    li: Vec<u32>,
    ri: Vec<u32>,
) -> Bat {
    if let Some(p) = ctx.pager.as_deref() {
        for &r in &ri {
            pager::touch_fetch(p, values, r as usize);
        }
    }
    let full = cd.head.key && li.len() == ab.len();
    let head = if full { ab.head().clone() } else { ab.head().gather(&li) };
    let tail = values.gather(&ri);
    put_u32(li);
    put_u32(ri);
    let props =
        if full { full_match_props(ab.props(), cd) } else { propagated_props(ab.props(), cd) };
    Bat::with_props(head, tail, props)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomValue;
    use crate::column::Column;

    fn item_order() -> Bat {
        // [item_oid, order_oid]
        Bat::new(Column::from_oids(vec![100, 101, 102, 103]), Column::from_oids(vec![7, 5, 7, 6]))
    }

    #[test]
    fn hash_join_basic() {
        let ctx = ExecCtx::new();
        let orders = Bat::new(Column::from_oids(vec![5, 6, 7]), Column::from_strs(["a", "b", "c"]));
        let r = join(&ctx, &item_order(), &orders).unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r.head().as_oid_slice().unwrap(), &[100, 101, 102, 103]);
        let tails: Vec<&str> = (0..4).map(|i| r.tail().str_at(i)).collect();
        assert_eq!(tails, vec!["c", "a", "c", "b"]);
    }

    #[test]
    fn fetch_join_on_dense_head() {
        let ctx = ExecCtx::new().with_trace();
        let io = item_order();
        let dense = Bat::new(Column::void(5, 3), Column::from_ints(vec![50, 60, 70]));
        let r = join(&ctx, &io, &dense).unwrap();
        assert_eq!(ctx.take_trace()[0].algo, "fetch");
        assert_eq!(r.len(), 4);
        assert_eq!(r.tail().as_int_slice().unwrap(), &[70, 50, 70, 60]);
        // 100% match keeps the head column shared: result synced with left.
        assert!(r.synced(&io));
    }

    #[test]
    fn fetch_join_partial_match() {
        let ctx = ExecCtx::new();
        let io = item_order(); // order oids 5..=7
        let dense = Bat::new(Column::void(6, 2), Column::from_ints(vec![60, 70]));
        let r = join(&ctx, &io, &dense).unwrap();
        assert_eq!(r.len(), 3); // order 5 misses
        assert_eq!(r.head().as_oid_slice().unwrap(), &[100, 102, 103]);
        assert_eq!(r.tail().as_int_slice().unwrap(), &[70, 70, 60]);
        assert!(!r.synced(&io));
    }

    #[test]
    fn pinned_merge_equals_fetch_on_a_dense_right_head() {
        // The plan optimizer pins merge on statically sorted operands even
        // when a dense right head would send dynamic dispatch to fetch:
        // both must produce the same BAT — rows, properties, and the
        // full-match head sharing.
        let ctx = ExecCtx::new().with_trace();
        let dense = Bat::new(Column::void(5, 3), Column::from_ints(vec![50, 60, 70]));
        for tails in [vec![5, 5, 6, 7], vec![4, 5, 7, 9]] {
            let left = Bat::with_inferred_props(
                Column::from_oids(vec![100, 101, 102, 103]),
                Column::from_oids(tails),
            );
            let fetch = join(&ctx, &left, &dense).unwrap();
            let merge = join_merge_pinned(&ctx, &left, &dense).unwrap();
            let algos: Vec<_> = ctx.take_trace().iter().map(|e| e.algo).collect();
            assert_eq!(algos, ["fetch", "merge"]);
            assert_eq!(fetch.iter().collect::<Vec<_>>(), merge.iter().collect::<Vec<_>>());
            assert_eq!(fetch.props(), merge.props());
            assert_eq!(fetch.synced(&left), merge.synced(&left));
        }
    }

    #[test]
    fn merge_join_with_duplicate_groups() {
        let ctx = ExecCtx::new().with_trace();
        let left = Bat::with_inferred_props(
            Column::from_oids(vec![1, 2, 3]),
            Column::from_ints(vec![10, 10, 20]),
        );
        let right = Bat::with_inferred_props(
            Column::from_ints(vec![10, 10, 20, 30]),
            Column::from_chrs(vec![b'a', b'b', b'c', b'd']),
        );
        let r = join(&ctx, &left, &right).unwrap();
        assert_eq!(ctx.take_trace()[0].algo, "merge");
        // 2 left tens x 2 right tens + 1 twenty = 5
        assert_eq!(r.len(), 5);
        let pairs: Vec<(u64, u8)> =
            (0..r.len()).map(|i| (r.head().oid_at(i), r.tail().chr_at(i))).collect();
        assert_eq!(pairs, vec![(1, b'a'), (1, b'b'), (2, b'a'), (2, b'b'), (3, b'c')]);
    }

    #[test]
    fn merge_and_hash_agree() {
        let ctx = ExecCtx::new();
        let left = Bat::with_inferred_props(
            Column::from_oids(vec![1, 2, 3, 4]),
            Column::from_ints(vec![5, 5, 7, 9]),
        );
        let right = Bat::with_inferred_props(
            Column::from_ints(vec![5, 6, 7, 7]),
            Column::from_oids(vec![50, 60, 70, 71]),
        );
        let m = join_merge(&ctx, &left, &right);
        let h = join_hash(&ctx, &left, &right);
        let norm = |b: &Bat| {
            let mut v: Vec<(u64, u64)> =
                (0..b.len()).map(|i| (b.head().oid_at(i), b.tail().oid_at(i))).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(norm(&m), norm(&h));
        assert_eq!(m.len(), 4); // (1,50),(2,50),(3,70),(3,71)
    }

    #[test]
    fn partitioned_join_agrees_with_hash_and_dispatches_above_threshold() {
        let ctx = ExecCtx::new().with_trace();
        // Build side large enough that its chain table overflows the cache
        // budget (costmodel::join_prefers_partitioned) and duplicates exist
        // on both sides.
        let m = crate::costmodel::JOIN_CACHE_BYTES / crate::costmodel::JOIN_BUILD_BYTES_PER_ROW + 1;
        let n = m + 1000;
        let left = Bat::new(
            Column::from_oids((0..n as u64).collect()),
            Column::from_ints((0..n).map(|i| ((i * 7) % (m + 500)) as i32).collect()),
        );
        let right = Bat::new(
            Column::from_ints((0..m).map(|i| (i % (m - 100)) as i32).collect()),
            Column::from_oids((0..m as u64).map(|i| 10_000 + i).collect()),
        );
        let p = join_partitioned(&ctx, &left, &right).unwrap();
        let h = join_hash(&ctx, &left, &right);
        assert_eq!(p.len(), h.len());
        for i in 0..p.len() {
            assert_eq!(p.head().oid_at(i), h.head().oid_at(i), "head order differs at {i}");
            assert_eq!(p.tail().oid_at(i), h.tail().oid_at(i), "tail order differs at {i}");
        }
        // The dynamic dispatch picks the partitioned path at this size.
        let _ = ctx.take_trace();
        let _ = join(&ctx, &left, &right).unwrap();
        assert_eq!(ctx.take_trace()[0].algo, "partition");
    }

    #[test]
    fn spill_join_is_bit_identical_to_hash_and_partitioned() {
        let ctx = ExecCtx::new();
        // Enough rows for several clusters, duplicates on both sides, and
        // misses in both directions.
        let n = 6000usize;
        let m = 4000usize;
        let left = Bat::new(
            Column::from_oids((0..n as u64).collect()),
            Column::from_ints((0..n).map(|i| ((i * 13) % (m + 700)) as i32).collect()),
        );
        let right = Bat::new(
            Column::from_ints((0..m).map(|i| (i % (m - 300)) as i32).collect()),
            Column::from_oids((0..m as u64).map(|i| 50_000 + i).collect()),
        );
        let s = join_spill(&ctx, &left, &right).unwrap();
        let h = join_hash(&ctx, &left, &right);
        let p = join_partitioned(&ctx, &left, &right).unwrap();
        assert_eq!(s.len(), h.len());
        for i in 0..s.len() {
            assert_eq!(s.head().oid_at(i), h.head().oid_at(i), "head vs hash at {i}");
            assert_eq!(s.tail().oid_at(i), h.tail().oid_at(i), "tail vs hash at {i}");
            assert_eq!(s.head().oid_at(i), p.head().oid_at(i), "head vs partition at {i}");
            assert_eq!(s.tail().oid_at(i), p.tail().oid_at(i), "tail vs partition at {i}");
        }
        assert!(ctx.mem.spilled_bytes() >= ((n + m) * 8) as u64, "both sides hit the spill file");
    }

    #[test]
    fn spill_join_empty_and_string_operands() {
        let ctx = ExecCtx::new();
        let l = Bat::new(Column::from_oids(vec![]), Column::from_ints(vec![]));
        let r = Bat::new(Column::from_ints(vec![1, 2]), Column::from_oids(vec![5, 6]));
        assert_eq!(join_spill(&ctx, &l, &r).unwrap().len(), 0);
        assert_eq!(join_spill(&ctx, &r.mirror(), &l.mirror()).unwrap().len(), 0);
        let names: Vec<String> = (0..900).map(|i| format!("n{}", i % 320)).collect();
        let left = Bat::new(
            Column::from_oids((0..900).collect()),
            Column::from_strs(names.iter().map(|s| s.as_str())),
        );
        let right = Bat::new(
            Column::from_strs((0..400).map(|i| format!("n{i}")).collect::<Vec<_>>()),
            Column::from_oids((1000..1400).collect()),
        );
        let s = join_spill(&ctx, &left, &right).unwrap();
        let h = join_hash(&ctx, &left, &right);
        assert_eq!(s.len(), h.len());
        for i in 0..s.len() {
            assert_eq!(s.head().oid_at(i), h.head().oid_at(i));
            assert_eq!(s.tail().oid_at(i), h.tail().oid_at(i));
        }
    }

    #[test]
    fn join_dispatches_to_spill_under_budget_pressure() {
        let ctx = ExecCtx::new().with_trace();
        let n = 3000usize;
        let left = Bat::new(
            Column::from_oids((0..n as u64).collect()),
            Column::from_ints((0..n).map(|i| (i % 1700) as i32).collect()),
        );
        let right = Bat::new(
            Column::from_ints((0..n).map(|i| (i % 2100) as i32).collect()),
            Column::from_oids((0..n as u64).collect()),
        );
        // Unlimited budget: the in-memory dispatch is unchanged.
        let a = join(&ctx, &left, &right).unwrap();
        assert_ne!(ctx.take_trace()[0].algo, "spill");
        // A budget below the partitioned working set (costmodel::
        // join_inmem_bytes = 96 KiB here) but above the result charge
        // routes through the spilling join — same bits.
        ctx.mem.begin();
        ctx.mem.set_budget(Some(crate::costmodel::join_inmem_bytes(n, n) - 1));
        let b = join(&ctx, &left, &right).unwrap();
        assert_eq!(ctx.take_trace()[0].algo, "spill");
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.head().oid_at(i), b.head().oid_at(i));
            assert_eq!(a.tail().oid_at(i), b.tail().oid_at(i));
        }
    }

    #[test]
    fn partitioned_join_empty_operands() {
        let ctx = ExecCtx::new();
        let l = Bat::new(Column::from_oids(vec![]), Column::from_ints(vec![]));
        let r = Bat::new(Column::from_ints(vec![1, 2]), Column::from_oids(vec![5, 6]));
        assert_eq!(join_partitioned(&ctx, &l, &r).unwrap().len(), 0);
        assert_eq!(join_partitioned(&ctx, &r.mirror(), &l.mirror()).unwrap().len(), 0);
    }

    #[test]
    fn join_projects_out_join_columns() {
        // result is [a, d] — heads from left, tails from right
        let ctx = ExecCtx::new();
        let l = Bat::new(Column::from_strs(["x"]), Column::from_oids(vec![1]));
        let r = Bat::new(Column::from_oids(vec![1]), Column::from_dbls(vec![2.5]));
        let j = join(&ctx, &l, &r).unwrap();
        assert_eq!(j.bun(0), (AtomValue::str("x"), AtomValue::Dbl(2.5)));
    }

    #[test]
    fn theta_join_lt_sorted_and_nested_agree() {
        let ctx = ExecCtx::new();
        let left = Bat::new(Column::from_oids(vec![1, 2]), Column::from_ints(vec![5, 20]));
        let right_sorted = Bat::with_inferred_props(
            Column::from_ints(vec![1, 10, 30]),
            Column::from_chrs(vec![b'a', b'b', b'c']),
        );
        let right_plain =
            Bat::new(Column::from_ints(vec![30, 1, 10]), Column::from_chrs(vec![b'c', b'a', b'b']));
        for op in [
            crate::ops::ScalarFunc::Lt,
            crate::ops::ScalarFunc::Le,
            crate::ops::ScalarFunc::Gt,
            crate::ops::ScalarFunc::Ge,
        ] {
            let a = join_theta(&ctx, &left, &right_sorted, op).unwrap();
            let b = join_theta(&ctx, &left, &right_plain, op).unwrap();
            let norm = |x: &Bat| {
                let mut v: Vec<(u64, u8)> =
                    (0..x.len()).map(|i| (x.head().oid_at(i), x.tail().chr_at(i))).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(norm(&a), norm(&b), "theta {op:?}");
            assert!(a.validate().is_ok());
        }
        // b=5: rights > 5 are {10, 30} → Lt gives 2 pairs for left oid 1.
        let lt = join_theta(&ctx, &left, &right_sorted, crate::ops::ScalarFunc::Lt).unwrap();
        assert_eq!(lt.len(), 2 + 1); // oid1 matches 10,30; oid2 matches 30
                                     // Ne is nested-loop only
        let ne = join_theta(&ctx, &left, &right_plain, crate::ops::ScalarFunc::Ne).unwrap();
        assert_eq!(ne.len(), 6);
        // Eq is rejected (that's the equi-join's job)
        assert!(join_theta(&ctx, &left, &right_plain, crate::ops::ScalarFunc::Eq).is_err());
    }

    #[test]
    fn empty_and_mismatched() {
        let ctx = ExecCtx::new();
        let l = Bat::new(Column::from_oids(vec![]), Column::from_oids(vec![]));
        let r = Bat::new(Column::from_oids(vec![1]), Column::from_ints(vec![5]));
        assert_eq!(join(&ctx, &l, &r).unwrap().len(), 0);
        let bad = Bat::new(Column::from_oids(vec![1]), Column::from_strs(["s"]));
        assert!(join(&ctx, &bad, &r).is_err());
    }
}
