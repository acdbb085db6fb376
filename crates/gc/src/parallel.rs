//! Packet-graph collection: the Cheney planner and collection
//! application expressed as scheduler buckets.
//!
//! # Determinism
//!
//! The parallel planner must reproduce the sequential planner's survivor
//! order *byte for byte* — survivor order is copy order, copy order is
//! compaction layout, and layout feeds every downstream page count. The
//! construction that guarantees this is a level-synchronized BFS:
//!
//! 1. **Trace buckets are read-only.** A `TracePacket` walks its chunk
//!    of the current frontier through [`StoreView`], *reading* visit
//!    marks but never writing them (marks were last written before the
//!    bucket opened, so concurrent packets observe a frozen snapshot).
//!    Each packet appends candidate children to its own buffer in
//!    (parent, slot) order.
//! 2. **The reduction is sequential and canonical.** After the bucket
//!    drains, the coordinator concatenates the candidate buffers in
//!    packet-index order — which is frontier order — and `try_mark`s
//!    each candidate. The concatenation equals exactly the child stream
//!    the sequential planner would have emitted for this BFS level, and
//!    `try_mark` keeps the first occurrence of every duplicate, which is
//!    the position the sequential planner would have marked it at.
//!
//! By induction over levels the two planners mark the same objects in
//! the same order, at any worker count and under any steal schedule.
//!
//! Mutation (sweep, remset update) runs in [`PacketMut`] buckets, which
//! the scheduler executes sequentially on the coordinator — canonical
//! order by construction.
//!
//! # Batched collection
//!
//! [`collect_partitions`] collects a *set* of partitions from one
//! snapshot: per-partition plan packets run a whole BFS each (using a
//! packet-local visited bitmap indexed by byte offset, so no shared
//! marks and no hashing), then sweeps and finalizes apply sequentially
//! in input order. Note the snapshot semantics: every plan is computed
//! against the pre-collection state, so a remembered reference from an
//! object another plan dooms still counts as a root — exactly the
//! conservatism a sequential collector exhibits for references from
//! not-yet-collected partitions. The result is deterministic in the
//! input order and independent of the worker count; it is *not* the same
//! as interleaving plan/apply per partition (which sees each prior
//! collection's effects).

use std::collections::VecDeque;

use odbgc_sched::{Packet, PacketMut, SchedStats, Scheduler};
use odbgc_store::{CollectionApplied, ObjectId, PartitionId, PendingSweep, Store, StoreView};

/// Frontier entries per trace packet. Frontiers at or below this size
/// produce a single packet, which the scheduler runs inline — so small
/// collections never pay for thread spawns.
const TRACE_CHUNK: usize = 64;

/// Shared context of the root-scan and trace buckets.
struct TraceCtx<'a> {
    view: StoreView<'a>,
    p: PartitionId,
    epoch: u32,
}

/// Collects the partition's collection roots (sorted, deduped).
struct RootScanPacket {
    roots: Vec<ObjectId>,
}

impl Packet<TraceCtx<'_>> for RootScanPacket {
    fn run(&mut self, ctx: &TraceCtx<'_>) {
        ctx.view.partition_roots_into(ctx.p, &mut self.roots);
    }
}

/// Traces one chunk of the current BFS frontier, emitting candidate
/// children (unmarked, in-partition) in (parent, slot) order.
struct TracePacket<'f> {
    parents: &'f [ObjectId],
    found: Vec<ObjectId>,
}

impl Packet<TraceCtx<'_>> for TracePacket<'_> {
    fn run(&mut self, ctx: &TraceCtx<'_>) {
        for &parent in self.parents {
            ctx.view
                .for_each_unmarked_child_in(parent, ctx.p, ctx.epoch, |t| self.found.push(t));
        }
    }
}

/// Sweeps one partition against its planned survivor list.
struct SweepPacket<'s> {
    p: PartitionId,
    survivors: &'s [ObjectId],
    pending: Option<PendingSweep>,
}

impl PacketMut<Store> for SweepPacket<'_> {
    fn run(&mut self, store: &mut Store) {
        self.pending = Some(store.sweep_partition(self.p, self.survivors));
    }
}

/// Finalizes one pending sweep: remset pruning, collector I/O charges,
/// buffer invalidation, allocator refresh.
struct RemsetUpdatePacket {
    pending: PendingSweep,
    applied: Option<CollectionApplied>,
}

impl PacketMut<Store> for RemsetUpdatePacket {
    fn run(&mut self, store: &mut Store) {
        self.applied = Some(store.finish_collection(self.pending));
    }
}

/// Packet-graph equivalent of
/// [`plan_survivors_into`](crate::plan_survivors_into): fills
/// `survivors` (cleared first) with `p`'s surviving objects in Cheney
/// copy order, running the trace as scheduler buckets. Bucket execution
/// records append to `stats`.
///
/// The survivor list is byte-identical to the sequential planner's at
/// any worker count (see the module docs for the argument).
pub fn plan_survivors_parallel(
    store: &mut Store,
    p: PartitionId,
    sched: &Scheduler,
    survivors: &mut Vec<ObjectId>,
    stats: &mut SchedStats,
) {
    survivors.clear();
    let epoch = store.begin_visit_epoch();

    // Root-scan bucket (one packet; runs inline).
    let mut root_scan = [RootScanPacket { roots: Vec::new() }];
    let bucket = {
        let ctx = TraceCtx {
            view: store.view(),
            p,
            epoch,
        };
        sched.run_bucket("root_scan", &ctx, &mut root_scan)
    };
    stats.push(bucket);
    let [RootScanPacket { roots }] = root_scan;

    // Reduce the roots: mark in canonical (sorted) order.
    let mut frontier: Vec<ObjectId> = Vec::with_capacity(roots.len());
    for &r in &roots {
        if store.try_mark(r, epoch) {
            survivors.push(r);
            frontier.push(r);
        }
    }

    // Level-synchronized trace: one bucket per BFS level.
    let mut next: Vec<ObjectId> = Vec::new();
    while !frontier.is_empty() {
        next.clear();
        {
            let mut packets: Vec<TracePacket<'_>> = frontier
                .chunks(TRACE_CHUNK)
                .map(|parents| TracePacket {
                    parents,
                    found: Vec::new(),
                })
                .collect();
            let bucket = {
                let ctx = TraceCtx {
                    view: store.view(),
                    p,
                    epoch,
                };
                sched.run_bucket("trace", &ctx, &mut packets)
            };
            stats.push(bucket);
            // Canonical reduction: packet-index order is frontier order,
            // so this is the sequential planner's child stream.
            for pkt in &packets {
                for &t in &pkt.found {
                    if store.try_mark(t, epoch) {
                        survivors.push(t);
                        next.push(t);
                    }
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
    }
}

/// Applies a planned survivor list as the two mutable buckets (sweep,
/// remset-update). Store effects are identical to
/// [`Store::apply_collection`] — the split composes to it exactly.
pub fn apply_planned(
    store: &mut Store,
    p: PartitionId,
    survivors: &[ObjectId],
    sched: &Scheduler,
    stats: &mut SchedStats,
) -> CollectionApplied {
    let mut sweep = [SweepPacket {
        p,
        survivors,
        pending: None,
    }];
    stats.push(sched.run_bucket_mut("sweep", store, &mut sweep));
    let pending = sweep[0].pending.expect("sweep packet ran");

    let mut finalize = [RemsetUpdatePacket {
        pending,
        applied: None,
    }];
    stats.push(sched.run_bucket_mut("remset_update", store, &mut finalize));
    finalize[0].applied.expect("remset-update packet ran")
}

/// Collects one partition through the packet graph: root-scan and trace
/// buckets plan the survivors, mutable sweep and remset-update buckets
/// apply them. Store effects are byte-identical to
/// [`collect_partition`](crate::collect_partition) at any worker count.
pub fn collect_partition_with(
    store: &mut Store,
    p: PartitionId,
    sched: &Scheduler,
) -> (CollectionApplied, SchedStats) {
    let mut stats = SchedStats::new(sched.workers());
    let mut survivors = Vec::new();
    plan_survivors_parallel(store, p, sched, &mut survivors, &mut stats);
    let applied = apply_planned(store, p, &survivors, sched, &mut stats);
    (applied, stats)
}

/// Plans a whole partition from scratch: roots, then a full BFS with a
/// packet-local visited bitmap indexed by byte offset (offsets are
/// unique per resident and below the partition capacity, so the bitmap
/// replaces both the shared epoch marks and any hashing).
struct PlanPacket {
    p: PartitionId,
    survivors: Vec<ObjectId>,
}

impl Packet<StoreView<'_>> for PlanPacket {
    fn run(&mut self, view: &StoreView<'_>) {
        let p = self.p;
        let mut visited = vec![false; view.partition_capacity(p) as usize];
        let mut roots = Vec::new();
        view.partition_roots_into(p, &mut roots);
        let mut queue: VecDeque<ObjectId> = VecDeque::new();
        let survivors = &mut self.survivors;
        for &r in &roots {
            let off = view.offset_of(r) as usize;
            if !visited[off] {
                visited[off] = true;
                survivors.push(r);
                queue.push_back(r);
            }
        }
        while let Some(cur) = queue.pop_front() {
            view.for_each_child_in(cur, p, |t| {
                let off = view.offset_of(t) as usize;
                if !visited[off] {
                    visited[off] = true;
                    survivors.push(t);
                    queue.push_back(t);
                }
            });
        }
    }
}

/// Collects a batch of partitions from one snapshot: per-partition plan
/// packets trace concurrently, then sweeps and remset updates apply
/// sequentially in the input order. See the module docs for the
/// snapshot semantics; results are deterministic in `parts` and the
/// store state, never in the worker count.
///
/// Panics if `parts` contains duplicates (the second sweep of a
/// partition would run against a stale plan).
pub fn collect_partitions(
    store: &mut Store,
    parts: &[PartitionId],
    sched: &Scheduler,
) -> (Vec<CollectionApplied>, SchedStats) {
    let mut stats = SchedStats::new(sched.workers());
    for (i, a) in parts.iter().enumerate() {
        assert!(
            !parts[..i].contains(a),
            "collect_partitions: duplicate partition {a}"
        );
    }

    let mut plans: Vec<PlanPacket> = parts
        .iter()
        .map(|&p| PlanPacket {
            p,
            survivors: Vec::new(),
        })
        .collect();
    let bucket = {
        let view = store.view();
        sched.run_bucket("plan", &view, &mut plans)
    };
    stats.push(bucket);

    let mut sweeps: Vec<SweepPacket<'_>> = plans
        .iter()
        .map(|plan| SweepPacket {
            p: plan.p,
            survivors: &plan.survivors,
            pending: None,
        })
        .collect();
    stats.push(sched.run_bucket_mut("sweep", store, &mut sweeps));

    let mut finalizes: Vec<RemsetUpdatePacket> = sweeps
        .iter()
        .map(|s| RemsetUpdatePacket {
            pending: s.pending.expect("sweep packet ran"),
            applied: None,
        })
        .collect();
    stats.push(sched.run_bucket_mut("remset_update", store, &mut finalizes));

    let applied = finalizes
        .into_iter()
        .map(|f| f.applied.expect("remset-update packet ran"))
        .collect();
    (applied, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cheney::plan_survivors;
    use odbgc_store::StoreConfig;
    use odbgc_trace::{SlotIdx, TraceBuilder};

    fn replay(store: &mut Store, trace: &odbgc_trace::Trace) {
        for ev in trace.iter() {
            store.apply(ev).expect("replay");
        }
    }

    /// Observable store state for equality comparisons across paths.
    fn observables(s: &Store) -> (u64, u64, u64, u64, u64, usize) {
        (
            s.live_bytes(),
            s.garbage_bytes(),
            s.occupied_bytes(),
            s.io().app_total(),
            s.io().gc_total(),
            s.remset_entries(),
        )
    }

    /// A store with a root-reachable chain, some floating garbage, and a
    /// cross-partition reference.
    fn seeded_store() -> Store {
        let mut s = Store::new(StoreConfig::tiny());
        let mut b = TraceBuilder::new();
        let root = b.create_unlinked(16, 3);
        b.root_add(root);
        let mut prev = root;
        for _ in 0..6 {
            let o = b.create_unlinked(24, 1);
            b.slot_write(prev, SlotIdx::new(0), Some(o));
            prev = o;
        }
        for i in 0..4u32 {
            let dead = b.create_unlinked(20, 0);
            b.slot_write(root, SlotIdx::new(1), Some(dead));
            let _ = i;
        }
        b.slot_clear(root, SlotIdx::new(1));
        replay(&mut s, &b.finish());
        s
    }

    #[test]
    fn parallel_plan_matches_sequential_at_every_worker_count() {
        for workers in [1usize, 2, 4, 8] {
            let mut s = seeded_store();
            let sched = Scheduler::new(workers);
            for pi in 0..s.partition_count() {
                let p = PartitionId::new(pi as u32);
                let expected = plan_survivors(&mut s, p);
                let mut got = Vec::new();
                let mut stats = SchedStats::new(workers);
                plan_survivors_parallel(&mut s, p, &sched, &mut got, &mut stats);
                assert_eq!(expected, got, "workers={workers} partition={pi}");
                assert!(stats.packets() >= 1);
            }
        }
    }

    #[test]
    fn packet_collection_matches_fused_apply() {
        let mut a = seeded_store();
        let mut b = seeded_store();
        let p = PartitionId::new(0);
        let sched = Scheduler::new(4);
        let fused = crate::collect_partition(&mut a, p);
        let (split, stats) = collect_partition_with(&mut b, p, &sched);
        assert_eq!(fused, split);
        assert_eq!(observables(&a), observables(&b));
        assert!(stats
            .buckets
            .iter()
            .any(|bk| bk.label == "sweep" || bk.label == "remset_update"));
        b.assert_consistent();
        b.assert_garbage_exact();
    }

    #[test]
    fn batch_collection_is_worker_count_invariant() {
        let parts: Vec<PartitionId> = {
            let s = seeded_store();
            (0..s.partition_count() as u32)
                .map(PartitionId::new)
                .collect()
        };
        let mut reference: Option<(Vec<CollectionApplied>, _)> = None;
        for workers in [1usize, 2, 8] {
            let mut s = seeded_store();
            let sched = Scheduler::new(workers);
            let (applied, _) = collect_partitions(&mut s, &parts, &sched);
            s.assert_consistent();
            match &reference {
                None => reference = Some((applied, observables(&s))),
                Some((ra, rc)) => {
                    assert_eq!(ra, &applied, "workers={workers}");
                    assert_eq!(rc, &observables(&s), "workers={workers}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate partition")]
    fn batch_collection_rejects_duplicates() {
        let mut s = seeded_store();
        let p = PartitionId::new(0);
        let sched = Scheduler::new(1);
        let _ = collect_partitions(&mut s, &[p, p], &sched);
    }
}
