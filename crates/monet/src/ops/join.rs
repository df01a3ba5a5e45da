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
//!   and, costing nothing, it is tried first;
//! * `fetch` — the right head is a dense (void) sequence: pure positional
//!   array lookup, `cd.tail[b - seq]`;
//! * `datavector` — oid join columns and a right operand carrying a
//!   datavector over a dense extent: the same positional loop as `fetch`,
//!   reading `dv.vector[b - base]` (an attribute dereference never hashes
//!   the class extent);
//! * `runs` — the `direct` gate, and a left tail that carries its run
//!   index ([`RunIndex`], a sorted reference attribute of the catalog):
//!   walk the right keys in ascending oid order and emit each key's left
//!   run `first[k]..first[k + 1]` — the left tail is never read, and the
//!   work is O(|right| + span/64 + |result|), not O(|left|);
//! * `direct` — oid join columns, a `key` right head whose min/max span
//!   is compact ([`crate::costmodel::join_prefers_direct`]): fill a pooled
//!   position array over the span, probe it with one load;
//! * `spill` / `hash` — the general fallbacks, building a hash table on
//!   the right head. `spill` is the radix join ([`join_radix`]) over
//!   [`crate::spill::Partitions`] — one partition pass per side into a
//!   spill file, one per-cluster build+probe ([`ClusterTable`]), one
//!   finish — taken when the in-memory working set would not fit the
//!   budget headroom. It partitions the build side first and filters the
//!   probe side by its hashes ([`HashFilter`]) before anything is staged;
//!   a `key` right head finishes without a sort ([`Matches::RightOf`]).
//!
//! Every implementation emits in left-BUN order, so all are bit-identical
//! to [`super::reference::join`], and a full match against a `key` right
//! head shares the left operand's head column ([`build_join`]).
//!
//! [`join2`] is the two-key join, `select(join(AB, CD), a2 = c2)` in one
//! operator: the same arms find the pairs that agree on the first key, and
//! [`build_join`], where every arm's `(left, right)` row pairs meet, keeps
//! those whose second keys ([`SecondKey`]) agree before anything is
//! gathered. The result is the subset of the one-key join's rows, in its
//! (left) order; only `sync`, which gathers nothing, is not taken.

use crate::accel::datavector::Datavector;
use crate::accel::runs::RunIndex;
use crate::atom::AtomType;
use crate::bat::Bat;
use crate::column::Column;
use crate::ctx::ExecCtx;
use crate::error::Result;
use crate::pager;
use crate::props::{ColProps, Props};
use crate::spill::Partitions;
use crate::typed::{put_u32, take_u32, OidDomain, TypedVals};

use super::check_comparable;
use super::group::{hash_align, UNALIGNED};

/// Dynamic-dispatch equi-join.
pub fn join(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Result<Bat> {
    join_on(ctx, ab, cd, None)
}

/// Two-key equi-join: `{ad | ab ∈ AB ∧ cd ∈ CD ∧ b = c ∧ a2(a) = c2(d)}`,
/// where `a2` is `[a, second key]` over the left heads and `c2` is `[d,
/// second key]` over the right tails. A row whose element has no second
/// key matches nothing. The rows are those of `join(AB, CD)` followed by
/// `[=]` and `select(·, true)` on the second keys, in the same order.
///
/// A pure function of its operands that draws no fresh oids, like `join`.
pub fn join2(ctx: &ExecCtx, ab: &Bat, cd: &Bat, a2: &Bat, c2: &Bat) -> Result<Bat> {
    let key2 = SecondKey::align(ab, cd, a2, c2)?;
    join_on(ctx, ab, cd, Some(&key2))
}

/// The arm dispatch of [`join`] and [`join2`].
fn join_on(ctx: &ExecCtx, ab: &Bat, cd: &Bat, key2: Option<&SecondKey>) -> Result<Bat> {
    ctx.probe("op/join")?;
    check_comparable("join", ab.tail().atom_type(), cd.head().atom_type())?;
    let oid_keyed = ab.tail().is_oidlike() && cd.head().is_oidlike();
    let (result, algo) = if let Some(synced) = join_sync(ab, cd).filter(|_| key2.is_none()) {
        (synced, "sync")
    } else if oid_keyed && cd.props().head.dense {
        (join_fetch(ctx, ab, cd, key2), "fetch")
    } else if let Some((dv, dom)) = datavector_domain(cd).filter(|_| oid_keyed) {
        (join_positional(ctx, ab, cd.props(), dom, dv.vector(), key2), "datavector")
    } else if let Some(dom) = direct_domain(ctx, ab, cd) {
        match ab.accel().runs_of(ab.tail()) {
            Some(runs) => (join_runs(ctx, ab, cd, dom, runs, key2), "runs"),
            None => (join_direct(ctx, ab, cd, dom, key2), "direct"),
        }
    } else if crate::costmodel::join_prefers_spill(ctx, ab.len(), cd.len()) {
        // The in-memory working set won't fit the budget headroom (or
        // `spill_force` is configured): radix-partition both sides
        // into spill files and build+probe one cluster at a time.
        (join_radix(ctx, ab, cd, key2)?, "spill")
    } else {
        (join_hash(ctx, ab, cd, key2), "hash")
    };
    ctx.record("join", algo, &[ab, cd], &result)?;
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
fn join_positional(
    ctx: &ExecCtx,
    ab: &Bat,
    cd: Props,
    dom: OidDomain,
    values: &Column,
    key2: Option<&SecondKey>,
) -> Bat {
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, ab.tail());
    }
    let (left_idx, right_idx) = probe_domain(ab.tail(), dom, |k| k as u32);
    build_join(ctx, ab, cd, values, left_idx, right_idx, key2)
}

/// Positional fetch join against a dense right head.
fn join_fetch(ctx: &ExecCtx, ab: &Bat, cd: &Bat, key2: Option<&SecondKey>) -> Bat {
    join_positional(ctx, ab, cd.props(), OidDomain::of_dense(cd.head()), cd.tail(), key2)
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
fn join_direct(ctx: &ExecCtx, ab: &Bat, cd: &Bat, dom: OidDomain, key2: Option<&SecondKey>) -> Bat {
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
    build_join(ctx, ab, cd.props(), cd.tail(), left_idx, right_idx, key2)
}

/// Run-addressed join: the left tail is sorted and `runs` indexes it, so
/// the left rows matching right key `k` are the run `first[k]..first[k+1]`
/// and the right keys, visited in ascending oid order, emit their runs in
/// left order. The right keys inside the run index's domain are scattered
/// into a pooled bitmap, whose set bits enumerate them in order, and a
/// pooled position array, which names each one's right row. The left tail
/// is never read — under the pager the arm touches the right head and the
/// left head's rows it gathers.
fn join_runs(
    ctx: &ExecCtx,
    ab: &Bat,
    cd: &Bat,
    dom: OidDomain,
    runs: &RunIndex,
    key2: Option<&SecondKey>,
) -> Bat {
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, cd.head());
    }
    let left = runs.domain();
    let mut left_idx = take_u32(ab.len());
    let mut right_idx = take_u32(ab.len());
    let mut emit = |k: usize, j: u32| {
        let run = runs.run(k);
        right_idx.resize(right_idx.len() + run.len(), j);
        left_idx.extend(run.start as u32..run.end as u32);
    };
    if let Some(both) = left.intersect(dom) {
        let mut pos = take_u32(both.span);
        pos.resize(both.span, ABSENT);
        let mut bits = crate::typed::take_u64_zeroed(both.span.div_ceil(64));
        crate::for_each_oidlike!(cd.head(), |ch| {
            for j in 0..ch.len() {
                if let Some(k) = both.slot(ch.value(j)) {
                    pos[k] = j as u32;
                    bits[k / 64] |= 1 << (k % 64);
                }
            }
        });
        let skip = (both.base - left.base) as usize;
        crate::typed::for_each_bit(&bits, |k| emit(skip + k, pos[k]));
        crate::typed::put_u64(bits);
        put_u32(pos);
    }
    if let Some(p) = ctx.pager.as_deref() {
        for &i in &left_idx {
            pager::touch_fetch(p, ab.head(), i as usize);
        }
    }
    build_join(ctx, ab, cd.props(), cd.tail(), left_idx, right_idx, key2)
}

/// Hash join: build on right head, probe left tails in order.
pub fn join_hash(ctx: &ExecCtx, ab: &Bat, cd: &Bat, key2: Option<&SecondKey>) -> Bat {
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
            // Chains run in ascending right position: matches come out in
            // order.
            for p in rindex.candidates(bt.hash_one(v)) {
                if ch.eq_one(ch.value(p), v) {
                    left_idx.push(i as u32);
                    right_idx.push(p as u32);
                }
            }
        }
        (left_idx, right_idx)
    });
    build_join(ctx, ab, cd.props(), cd.tail(), left_idx, right_idx, key2)
}

/// The spilling radix join: both sides' `(hash, pos)` pairs are
/// clustered on the same high hash bits into spill files
/// ([`Partitions`]), so that only one cluster's pairs and build table are
/// ever resident and the transient working set is bounded by the largest
/// cluster, not the operand. The probe walks packed pairs sequentially and
/// compares 32 retained hash bits first, touching column values only on a
/// hash match.
///
/// The build side is partitioned first and its hashes fill a
/// [`HashFilter`] when [`crate::costmodel::join_prefers_filter`] (the
/// filter fits the budget headroom); the probe-side pass tests it, so a
/// left BUN whose hash no right BUN shares is dropped before it costs a
/// staged pair, a spill write, a read-back and a probe. Dropped BUNs match
/// nothing, and the survivors keep their clusters and their order, so the
/// result is the unfiltered one.
///
/// The output is re-emitted in left-BUN order (left positions ascending,
/// right positions ascending per left BUN), bit-identical to [`join_hash`]
/// and [`super::reference::join`]: each left BUN lands in exactly one
/// cluster with its matches contiguous and right-ascending, and
/// [`finish_radix`] restores the global order.
fn join_radix(ctx: &ExecCtx, ab: &Bat, cd: &Bat, key2: Option<&SecondKey>) -> Result<Bat> {
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, cd.head());
        pager::touch_scan(p, ab.tail());
    }
    // Cluster count is sized to the *build* side: its per-cluster table is
    // what must stay cache-resident. The probe side only streams through
    // its clusters, whatever their size.
    let bits = crate::typed::radix_bits(cd.len());
    let mut filter =
        crate::costmodel::join_prefers_filter(ctx, cd.len()).then(|| HashFilter::pooled(cd.len()));
    let rc = crate::for_each_typed!(cd.head(), |ch| {
        Partitions::build(ctx, ch, bits, |h| {
            if let Some(f) = &mut filter {
                f.insert(h);
            }
            true
        })
    })?;
    let lc = crate::for_each_typed!(ab.tail(), |bt| {
        Partitions::build(ctx, bt, bits, |h| filter.as_ref().is_none_or(|f| f.contains(h)))
    })?;
    drop(filter);
    let mut matches = Matches::pooled(cd.props().head.key, ab.len());
    crate::for_each_typed2!(ab.tail(), cd.head(), |bt, ch| {
        probe_clusters(bt, ch, &ctx.gov, &lc, &rc, &mut matches)
    })?;
    Ok(finish_radix(ctx, ab, cd, matches, key2))
}

/// A blocked Bloom filter over the build side's hashes: two bits of one
/// 64-bit word per key, at 8-16 bits per build row (one probe row in
/// twenty to forty that cannot match passes). Works on hashes, so one filter
/// serves every key type. The words come from the scratch pool and return
/// on drop.
struct HashFilter {
    words: Vec<u64>,
    /// `32 - log2(words.len())`: the word index is the top bits of the
    /// remixed hash.
    shift: u32,
}

impl HashFilter {
    fn pooled(build_rows: usize) -> HashFilter {
        let nwords = (build_rows / 8).next_power_of_two();
        let words = crate::typed::take_u64_zeroed(nwords);
        HashFilter { words, shift: 32 - nwords.trailing_zeros() }
    }

    /// Word index and two-bit mask of hash `h`. The cluster id and the
    /// in-cluster bucket already consume the hash's high half as it is, so
    /// the filter remixes it (one multiply) and draws fresh bits.
    #[inline]
    fn slot(&self, h: u64) -> (usize, u64) {
        let g = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let word = ((g >> 32) >> self.shift) as usize;
        (word, 1 << ((g >> 32) & 63) | 1 << ((g >> 38) & 63))
    }

    #[inline]
    fn insert(&mut self, h: u64) {
        let (word, mask) = self.slot(h);
        self.words[word] |= mask;
    }

    #[inline]
    fn contains(&self, h: u64) -> bool {
        let (word, mask) = self.slot(h);
        self.words[word] & mask == mask
    }
}

impl Drop for HashFilter {
    fn drop(&mut self) {
        crate::typed::put_u64(std::mem::take(&mut self.words));
    }
}

/// Matches of the radix join, emitted in cluster order. Pooled; the
/// buffer returns to the scratch pool on drop.
enum Matches {
    /// Packed `left << 32 | right`, one per match.
    Pairs(Vec<u64>),
    /// `key` right head: a left BUN has at most one partner, so the match
    /// is a slot — `right_of[left]`, [`ABSENT`] when none — and left order
    /// is the array order.
    RightOf(Vec<u32>),
}

impl Matches {
    fn pooled(key: bool, probe_rows: usize) -> Matches {
        if key {
            let mut right_of = take_u32(probe_rows);
            right_of.resize(probe_rows, ABSENT);
            Matches::RightOf(right_of)
        } else {
            Matches::Pairs(crate::typed::take_u64(probe_rows))
        }
    }
}

impl Drop for Matches {
    fn drop(&mut self) {
        match self {
            Matches::Pairs(pairs) => crate::typed::put_u64(std::mem::take(pairs)),
            Matches::RightOf(right_of) => put_u32(std::mem::take(right_of)),
        }
    }
}

/// Bits of an epoch-tagged bucket entry addressing the build slot within
/// one cluster; the remaining high bits carry the cluster id (the epoch),
/// so stale entries from other clusters are self-invalidating.
const SLOT_BITS: u32 = 21;
const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;

/// The chain table of the per-cluster build+probe, serving a run of
/// clusters without per-cluster resets: bucket entries carry the cluster
/// id in their top bits, so entries left by a previous cluster are
/// self-invalidating, and `next` needs no reset because a chain only
/// references slots the current cluster's build just wrote. Buffers come
/// from the scratch pool, which keeps the table pages warm across joins,
/// and return on drop.
struct ClusterTable {
    buckets: Vec<u32>,
    next: Vec<u32>,
}

impl ClusterTable {
    /// A table for clusters of up to `max_build` build rows. 4x buckets:
    /// ~25% occupancy keeps the chain-entry branch predictably not-taken
    /// (at 2x it is a coin flip, and the mispredicts cost more than the
    /// extra — still L1-resident — rows).
    fn pooled(max_build: usize) -> ClusterTable {
        let nbuckets = (max_build * 4).next_power_of_two();
        let mut buckets = take_u32(nbuckets);
        buckets.resize(nbuckets, ABSENT); // a tag no cluster id matches
        let mut next = take_u32(max_build);
        next.resize(max_build, ABSENT);
        ClusterTable { buckets, next }
    }

    /// Build on `rpairs`, probe with `lpairs` (both the pairs of cluster
    /// `c`), emitting `(left, right)` matches in left-pair order, right
    /// positions ascending per left BUN.
    ///
    /// A cluster too large for the slot field of a tagged entry — more
    /// than 2^21 rows: a duplicate-heavy build side hash-collapsed into
    /// one cluster — or whose id does not fit the tag is *wide*: it clears
    /// the buckets, stores plain slots, and clears again so that no later
    /// cluster reads them as tags. Correct for any cluster size; that
    /// regime is a degenerate join, not a hot path.
    fn probe<VL, VR>(
        &mut self,
        bt: VL,
        ch: VR,
        c: usize,
        lpairs: &[u64],
        rpairs: &[u64],
        emit: impl FnMut(u32, u32),
    ) where
        VL: TypedVals,
        VR: TypedVals<Elem = VL::Elem>,
    {
        if lpairs.is_empty() || rpairs.is_empty() {
            return;
        }
        if rpairs.len() > SLOT_MASK as usize || c >= (ABSENT >> SLOT_BITS) as usize {
            self.buckets.fill(ABSENT);
            self.build_probe::<true, _, _>(bt, ch, 0, lpairs, rpairs, emit);
            self.buckets.fill(ABSENT);
        } else {
            self.build_probe::<false, _, _>(bt, ch, (c as u32) << SLOT_BITS, lpairs, rpairs, emit);
        }
    }

    /// [`ClusterTable::probe`] with the entry format fixed at compile time
    /// (a run-time flag in the chain walk measured 13 % on the probe).
    fn build_probe<const WIDE: bool, VL, VR>(
        &mut self,
        bt: VL,
        ch: VR,
        tag: u32,
        lpairs: &[u64],
        rpairs: &[u64],
        mut emit: impl FnMut(u32, u32),
    ) where
        VL: TypedVals,
        VR: TypedVals<Elem = VL::Elem>,
    {
        let mask = (self.buckets.len() - 1) as u32;
        // The build slot a bucket entry names, if the entry is this
        // cluster's.
        let live = |entry: u32| {
            if WIDE {
                entry
            } else if entry & !SLOT_MASK == tag {
                entry & SLOT_MASK
            } else {
                ABSENT
            }
        };
        let (buckets, next) = (&mut self.buckets[..], &mut self.next[..rpairs.len()]);
        // Newest-first chains built in reverse iterate in ascending right
        // position.
        for (slot, &rp) in rpairs.iter().enumerate().rev() {
            let b = (crate::typed::pair_hash(rp) & mask) as usize;
            next[slot] = live(buckets[b]);
            buckets[b] = tag | slot as u32;
        }
        // Probe in (stable, ascending-position) order: sequential pair
        // reads, cache-resident chain walks, and value fetches only on a
        // 32-bit hash match.
        for &lp in lpairs {
            let h = crate::typed::pair_hash(lp);
            let mut cur = live(buckets[(h & mask) as usize]);
            while cur != ABSENT {
                let rp = rpairs[cur as usize];
                if crate::typed::pair_hash(rp) == h {
                    let li = crate::typed::pair_pos(lp);
                    let ri = crate::typed::pair_pos(rp);
                    if ch.eq_one(ch.value(ri as usize), bt.value(li as usize)) {
                        emit(li, ri);
                    }
                }
                cur = next[cur as usize];
            }
        }
    }
}

impl Drop for ClusterTable {
    fn drop(&mut self) {
        put_u32(std::mem::take(&mut self.buckets));
        put_u32(std::mem::take(&mut self.next));
    }
}

/// Build+probe every cluster with one [`ClusterTable`], pushing matches
/// in cluster order — the one per-cluster consumer of the radix join,
/// wherever the clusters live.
fn probe_clusters<VL, VR>(
    bt: VL,
    ch: VR,
    gov: &crate::gov::Governor,
    lc: &Partitions,
    rc: &Partitions,
    matches: &mut Matches,
) -> Result<()>
where
    VL: TypedVals,
    VR: TypedVals<Elem = VL::Elem>,
{
    let max_build = (0..rc.num_clusters()).map(|c| rc.cluster_len(c)).max().unwrap_or(0);
    let mut table = ClusterTable::pooled(max_build);
    let (mut lbuf, mut rbuf) = (Vec::new(), Vec::new());
    for c in 0..lc.num_clusters() {
        if lc.cluster_len(c) == 0 || rc.cluster_len(c) == 0 {
            continue;
        }
        let rpairs = rc.cluster(gov, c, &mut rbuf)?;
        let lpairs = lc.cluster(gov, c, &mut lbuf)?;
        // One dispatch per cluster, none per match.
        match matches {
            Matches::Pairs(pairs) => table.probe(bt, ch, c, lpairs, rpairs, |left, right| {
                pairs.push((left as u64) << 32 | right as u64)
            }),
            Matches::RightOf(right_of) => table
                .probe(bt, ch, c, lpairs, rpairs, |left, right| right_of[left as usize] = right),
        }
    }
    Ok(())
}

/// Tail of the radix join: restore global left-BUN order and
/// materialize the result. Packed pairs take a stable streaming sort on
/// the left half ([`crate::typed::sort_pairs_by_hi`]; equal left positions
/// keep their right-ascending probe order). A `right_of` array is in left
/// order already: one linear, branch-free compaction of its occupied
/// slots.
fn finish_radix(
    ctx: &ExecCtx,
    ab: &Bat,
    cd: &Bat,
    mut matches: Matches,
    key2: Option<&SecondKey>,
) -> Bat {
    let (left_idx, right_idx) = match &mut matches {
        Matches::Pairs(pairs) => {
            let sorted = crate::typed::sort_pairs_by_hi(std::mem::take(pairs));
            let mut left_idx = take_u32(sorted.len());
            let mut right_idx = take_u32(sorted.len());
            left_idx.extend(sorted.iter().map(|&m| (m >> 32) as u32));
            right_idx.extend(sorted.iter().map(|&m| m as u32));
            *pairs = sorted;
            (left_idx, right_idx)
        }
        Matches::RightOf(right_of) => {
            let mut left_idx = crate::typed::take_u32_zeroed(right_of.len());
            let mut right_idx = crate::typed::take_u32_zeroed(right_of.len());
            let mut found = 0usize;
            for (left, &right) in right_of.iter().enumerate() {
                left_idx[found] = left as u32;
                right_idx[found] = right;
                found += (right != ABSENT) as usize;
            }
            left_idx.truncate(found);
            right_idx.truncate(found);
            (left_idx, right_idx)
        }
    };
    drop(matches);
    build_join(ctx, ab, cd.props(), cd.tail(), left_idx, right_idx, key2)
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

/// Materialize `[ab.head[li], values[ri]]` from pooled position vectors
/// (returned to the pool here) — the shared tail of every implementation.
/// A two-key join's pairs are cut to those whose second keys agree first,
/// so nothing is gathered for a pair the second key rejects.
/// A 100% match against a `key` right head uses each left BUN exactly
/// once, in order: the head column is then *shared* with the left operand,
/// keeping the result synced with AB and with every other full-match join
/// off it, whichever algorithm produced them.
fn build_join(
    ctx: &ExecCtx,
    ab: &Bat,
    cd: Props,
    values: &Column,
    mut li: Vec<u32>,
    mut ri: Vec<u32>,
    key2: Option<&SecondKey>,
) -> Bat {
    if let Some(key2) = key2 {
        key2.retain(ctx, &mut li, &mut ri);
    }
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

/// The second key of a two-key join, read per join row: left row `i`'s
/// value is `left[i]` (or `left[lpos[i]]`), right row `j`'s is `right[j]`
/// (or `right[rpos[j]]`). A position vector is there only when the key BAT
/// is not row for row with its side; it aligns by head value, as `group2`
/// and multiplex do, and [`UNALIGNED`] marks a row without a key.
pub struct SecondKey {
    left: Column,
    lpos: Option<Vec<u32>>,
    right: Column,
    rpos: Option<Vec<u32>>,
}

impl SecondKey {
    /// Align `a2` with the left rows of `ab` (by head) and `c2` with the
    /// right rows of `cd` (by tail). The keys compare as `[=]` compares:
    /// one type, or two numeric types widened to `dbl`.
    fn align(ab: &Bat, cd: &Bat, a2: &Bat, c2: &Bat) -> Result<SecondKey> {
        let numeric = |t| matches!(t, AtomType::Int | AtomType::Lng | AtomType::Dbl);
        let (lt, rt) = (a2.tail().atom_type(), c2.tail().atom_type());
        if !(numeric(lt) && numeric(rt)) {
            check_comparable("join", lt, rt)?;
        }
        let lpos = (!a2.synced(ab)).then(|| hash_align(ab.head(), a2.head()));
        let right_synced = c2.head().identity() == cd.tail().identity();
        let rpos = (!right_synced).then(|| hash_align(cd.tail(), c2.head()));
        Ok(SecondKey { left: a2.tail().clone(), lpos, right: c2.tail().clone(), rpos })
    }

    /// The positions of left row `i`'s and right row `j`'s keys, if both
    /// have one.
    #[inline]
    fn rows(&self, i: u32, j: u32) -> Option<(usize, usize)> {
        let at = |pos: &Option<Vec<u32>>, row: u32| pos.as_ref().map_or(row, |p| p[row as usize]);
        let (a, b) = (at(&self.lpos, i), at(&self.rpos, j));
        (a != UNALIGNED && b != UNALIGNED).then_some((a as usize, b as usize))
    }

    /// Keep the pairs `(li[k], ri[k])` whose second keys agree, in order.
    fn retain(&self, ctx: &ExecCtx, li: &mut Vec<u32>, ri: &mut Vec<u32>) {
        if let Some(p) = ctx.pager.as_deref() {
            for (&i, &j) in li.iter().zip(ri.iter()) {
                if let Some((a, b)) = self.rows(i, j) {
                    pager::touch_fetch(p, &self.left, a);
                    pager::touch_fetch(p, &self.right, b);
                }
            }
        }
        if self.left.atom_type() == self.right.atom_type()
            || self.left.is_oidlike() && self.right.is_oidlike()
        {
            crate::for_each_typed2!(&self.left, &self.right, |l, r| {
                retain_pairs(li, ri, |i, j| {
                    self.rows(i, j).is_some_and(|(a, b)| r.eq_one(r.value(b), l.value(a)))
                })
            })
        } else {
            // Mixed numeric types: `[=]`'s widening, row at a time.
            retain_pairs(li, ri, |i, j| {
                self.rows(i, j).is_some_and(|(a, b)| {
                    let (x, y) = (self.left.get(a).as_f64(), self.right.get(b).as_f64());
                    x.zip(y).is_some_and(|(x, y)| x.total_cmp(&y).is_eq())
                })
            })
        }
    }
}

/// Compact the pairs `(li[k], ri[k])` to those `keep` accepts, in order.
fn retain_pairs(li: &mut Vec<u32>, ri: &mut Vec<u32>, keep: impl Fn(u32, u32) -> bool) {
    let mut kept = 0;
    for k in 0..li.len() {
        let (i, j) = (li[k], ri[k]);
        li[kept] = i;
        ri[kept] = j;
        kept += keep(i, j) as usize;
    }
    li.truncate(kept);
    ri.truncate(kept);
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
        let ctx = ExecCtx::new();
        let io = item_order();
        let dense = Bat::new(Column::void(5, 3), Column::from_ints(vec![50, 60, 70]));
        let r = join(&ctx, &io, &dense).unwrap();
        assert_eq!(ctx.take_algo(), "fetch");
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
    fn runs_join_reads_the_right_operand_and_the_emitted_runs() {
        // 64 Ki items in runs of four per order: probing every left tail
        // would read all 128 tail pages; the run index reads none of them.
        // Three orders, enumerated through the bitmap, read one right-head
        // page, the three left-head pages under their runs
        // and one right-tail page.
        let n = 1 << 16;
        let mut items = Bat::with_inferred_props(
            Column::from_oids((0..n as u64).collect()),
            Column::from_oids((0..n as u64).map(|i| 100 + i / 4).collect()),
        );
        items.index_runs();
        let last = 100 + n as u64 / 4 - 1;
        let orders = Bat::with_inferred_props(
            Column::from_oids(vec![10_100, last, 100]),
            Column::from_ints(vec![2, 3, 1]),
        );
        let pager = std::sync::Arc::new(crate::pager::Pager::new(4096));
        let ctx = ExecCtx::new().with_pager(pager);
        let faults0 = ctx.faults();
        let r = join(&ctx, &items, &orders).unwrap();
        let faults = ctx.faults() - faults0;
        assert_eq!((ctx.take_algo(), faults), ("runs", 5));
        let n = n as u64;
        let heads = [0, 1, 2, 3, 40_000, 40_001, 40_002, 40_003, n - 4, n - 3, n - 2, n - 1];
        assert_eq!(r.head().as_oid_slice().unwrap(), &heads);
        assert_eq!(r.tail().as_int_slice().unwrap(), &[1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]);
        let rows = |b: &Bat| (0..b.len()).map(|i| b.bun(i)).collect::<Vec<_>>();
        assert_eq!(rows(&r), rows(&crate::ops::reference::join(&items, &orders)));
    }

    #[test]
    fn merge_join_with_duplicate_groups() {
        let ctx = ExecCtx::new();
        // Sorted join columns with duplicates on both sides.
        let left = Bat::with_inferred_props(
            Column::from_oids(vec![1, 2, 3]),
            Column::from_ints(vec![10, 10, 20]),
        );
        let right = Bat::with_inferred_props(
            Column::from_ints(vec![10, 10, 20, 30]),
            Column::from_chrs(vec![b'a', b'b', b'c', b'd']),
        );
        let r = join(&ctx, &left, &right).unwrap();
        // 2 left tens x 2 right tens + 1 twenty = 5, in left order.
        assert_eq!(r.len(), 5);
        let rows = |b: &Bat| (0..b.len()).map(|i| b.bun(i)).collect::<Vec<_>>();
        assert_eq!(rows(&r), rows(&crate::ops::reference::join(&left, &right)));
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
        let s = join_radix(&ctx, &left, &right, None).unwrap();
        let h = join_hash(&ctx, &left, &right, None);
        assert_eq!(s.len(), h.len());
        for i in 0..s.len() {
            assert_eq!(s.head().oid_at(i), h.head().oid_at(i), "head vs hash at {i}");
            assert_eq!(s.tail().oid_at(i), h.tail().oid_at(i), "tail vs hash at {i}");
        }
        // The build side goes through the file whole, and so does every
        // probe row that has a partner; most of the rest (tails past the
        // right head's values) is dropped by the filter before it.
        let survivors = (0..n).filter(|i| (i * 13) % (m + 700) < m - 300).count();
        let spilled = ctx.mem.spilled_bytes();
        assert!(spilled >= ((m + survivors) * 8) as u64, "build side whole + probe survivors");
        assert!(spilled < ((n + m) * 8) as u64, "the filter kept unmatched rows off the file");
    }

    #[test]
    fn spill_join_empty_and_string_operands() {
        let ctx = ExecCtx::new();
        let l = Bat::new(Column::from_oids(vec![]), Column::from_ints(vec![]));
        let r = Bat::new(Column::from_ints(vec![1, 2]), Column::from_oids(vec![5, 6]));
        assert_eq!(join_radix(&ctx, &l, &r, None).unwrap().len(), 0);
        assert_eq!(join_radix(&ctx, &r.mirror(), &l.mirror(), None).unwrap().len(), 0);
        let names: Vec<String> = (0..900).map(|i| format!("n{}", i % 320)).collect();
        let left = Bat::new(
            Column::from_oids((0..900).collect()),
            Column::from_strs(names.iter().map(|s| s.as_str())),
        );
        let right = Bat::new(
            Column::from_strs((0..400).map(|i| format!("n{i}")).collect::<Vec<_>>()),
            Column::from_oids((1000..1400).collect()),
        );
        let s = join_radix(&ctx, &left, &right, None).unwrap();
        let h = join_hash(&ctx, &left, &right, None);
        assert_eq!(s.len(), h.len());
        for i in 0..s.len() {
            assert_eq!(s.head().oid_at(i), h.head().oid_at(i));
            assert_eq!(s.tail().oid_at(i), h.tail().oid_at(i));
        }
    }

    #[test]
    fn join_dispatches_to_spill_under_budget_pressure() {
        let ctx = ExecCtx::new();
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
        assert_ne!(ctx.take_algo(), "spill");
        // A budget below the radix join's working set (costmodel::
        // join_inmem_bytes = 96 KiB here) but above the result charge
        // routes through the spilling join — same bits.
        ctx.mem.begin();
        ctx.mem.set_budget(Some(crate::costmodel::join_inmem_bytes(n, n) - 1));
        let b = join(&ctx, &left, &right).unwrap();
        assert_eq!(ctx.take_algo(), "spill");
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.head().oid_at(i), b.head().oid_at(i));
            assert_eq!(a.tail().oid_at(i), b.tail().oid_at(i));
        }
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
    fn empty_and_mismatched() {
        let ctx = ExecCtx::new();
        let l = Bat::new(Column::from_oids(vec![]), Column::from_oids(vec![]));
        let r = Bat::new(Column::from_oids(vec![1]), Column::from_ints(vec![5]));
        assert_eq!(join(&ctx, &l, &r).unwrap().len(), 0);
        let bad = Bat::new(Column::from_oids(vec![1]), Column::from_strs(["s"]));
        assert!(join(&ctx, &bad, &r).is_err());
    }
}
