//! Store hot-path micro-benchmarks: event application through the buffer
//! pool, end-to-end OO7 trace replay throughput, and the exact-garbage
//! reconcile against the heap-wide reachability it replaces.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::cell::RefCell;
use std::hint::black_box;

use odbgc_oo7::schema::composite_part_slot;
use odbgc_oo7::{Oo7App, Oo7Params};
use odbgc_store::{Event, Store, StoreConfig};
use odbgc_trace::{ObjectId, SlotIdx, TraceBuilder};

fn bench_store(c: &mut Criterion) {
    // Single-event costs on a pre-populated store.
    let mut setup = TraceBuilder::new();
    let root = setup.create_unlinked(16, 64);
    setup.root_add(root);
    let mut ids = Vec::new();
    for i in 0..64u32 {
        let id = setup.create_unlinked(128, 2);
        setup.slot_write(root, SlotIdx::new(i), Some(id));
        ids.push(id);
    }
    let setup_trace = setup.finish();
    let make_store = || {
        let mut s = Store::new(StoreConfig::default());
        for ev in setup_trace.iter() {
            s.apply(ev).expect("setup replays");
        }
        s
    };

    let mut group = c.benchmark_group("event_apply");
    group.bench_function("access_hot", |b| {
        let mut store = make_store();
        b.iter(|| black_box(store.apply(&Event::Access { id: ids[0] })))
    });
    group.bench_function("access_scan", |b| {
        // Rotating accesses defeat the buffer: every touch may miss.
        let mut store = make_store();
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % ids.len();
            black_box(store.apply(&Event::Access { id: ids[i] }))
        })
    });
    group.bench_function("slot_relink", |b| {
        let mut store = make_store();
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % ids.len();
            black_box(store.apply(&Event::SlotWrite {
                src: ids[i],
                slot: SlotIdx::new(0),
                new: Some(ids[(i + 1) % ids.len()]),
            }))
        })
    });
    group.bench_function("create", |b| {
        let mut store = make_store();
        let mut next = 10_000u64;
        b.iter(|| {
            next += 1;
            black_box(store.apply(&Event::Create {
                id: ObjectId::new(next),
                size: 128,
                slots: Box::new([Some(ids[0])]),
            }))
        })
    });
    group.finish();

    // End-to-end replay throughput on the real workload.
    let (trace, _) = Oo7App::standard(Oo7Params::small_prime(3), 1).generate();
    let mut group = c.benchmark_group("oo7_replay");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(10);
    group.bench_function("small_prime_conn3", |b| {
        b.iter(|| {
            let mut store = Store::new(StoreConfig::default());
            for ev in trace.iter() {
                store.apply(ev).expect("replay");
            }
            black_box(store.live_bytes())
        })
    });
    group.finish();
}

/// The exact-garbage reconcile on an OO7 Small store after GenDB. Its
/// cost should follow the suspects, not the heap: `heap_reach` is the
/// heap-wide reachability a reconcile used to pay on every collection.
fn bench_oracle_reconcile(c: &mut Criterion) {
    let mut db = odbgc_oo7::builder::build(Oo7Params::small(3), 1);
    let trace = std::mem::take(&mut db.trace).finish();
    let composites = &db.module.composites;
    let make_store = || {
        let mut s = Store::new(StoreConfig::default());
        for ev in trace.iter() {
            s.apply(ev).expect("GenDB replays");
        }
        // Drain the suspects GenDB itself buffered.
        s.recompute_garbage_exact();
        s
    };

    let mut group = c.benchmark_group("oracle_reconcile");
    group.bench_function("few_suspects", |b| {
        // Rewriting a part slot with its own value leaves the part a
        // suspect; the reconcile walks that composite's part graph.
        let mut store = make_store();
        let comp = &composites[0];
        let slot = SlotIdx::new(composite_part_slot(0));
        let part = comp.parts[0].as_ref().expect("GenDB fills every slot").id;
        b.iter(|| {
            store
                .apply(&Event::SlotWrite {
                    src: comp.id,
                    slot,
                    new: Some(part),
                })
                .expect("relink");
            black_box(store.recompute_garbage_exact())
        })
    });
    group.bench_function("dead_composite", |b| {
        // Clearing a composite's parts set leaves its atomic parts and
        // connections a dead cycle. Each iteration cuts the next
        // composite; a fresh store is built (untimed) when they run out.
        let pool = RefCell::new((make_store(), 0usize));
        b.iter_batched(
            || {
                let mut pool = pool.borrow_mut();
                if pool.1 == composites.len() {
                    *pool = (make_store(), 0);
                }
                pool.1 += 1;
                pool.1 - 1
            },
            |ci| {
                let store = &mut pool.borrow_mut().0;
                let comp = &composites[ci];
                for pi in 0..comp.parts.len() as u32 {
                    store
                        .apply(&Event::SlotWrite {
                            src: comp.id,
                            slot: SlotIdx::new(composite_part_slot(pi)),
                            new: None,
                        })
                        .expect("cut");
                }
                store.recompute_garbage_exact()
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("heap_reach", |b| {
        let store = make_store();
        b.iter(|| black_box(store.compute_reachable().len()))
    });
    group.finish();
}

criterion_group!(benches, bench_store, bench_oracle_reconcile);
criterion_main!(benches);
