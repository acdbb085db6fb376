//! Differential test of the suspect-scoped exact-garbage reconcile.
//!
//! Replays churn traces, which kill cycles the refcount cascade cannot
//! see, and at random events reconciles, collects a partition, or both.
//! After every reconcile the tracker must match full reachability, every
//! refcount must match a from-scratch count, and the returned `ActGarb`
//! must equal the bytes of present objects full reachability misses.
//! Collections between reconciles carry buffered suspects across them,
//! and some of those suspects are destroyed before the next reconcile.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use odbgc_gc::{Collector, SelectorKind};
use odbgc_store::{PartitionId, Store, StoreConfig};
use odbgc_trace::synthetic::{churn, ChurnConfig};

fn arb_config() -> impl Strategy<Value = ChurnConfig> {
    (1usize..5, 1usize..4, 50usize..1500, 1u32..6).prop_map(
        |(anchors, slots, steps, clear_weight)| ChurnConfig {
            anchors,
            slots_per_object: slots,
            steps,
            size_range: (8, 96),
            weights: (4, 4, clear_weight, 1),
        },
    )
}

/// `ActGarb` from first principles: the bytes of present objects that
/// are not reachable from the roots and birth pins.
fn unreachable_present_bytes(store: &Store) -> u64 {
    let reachable = store.compute_reachable();
    (0..store.partition_count() as u32)
        .flat_map(|p| store.residents_of(PartitionId::new(p)))
        .filter(|&&id| !reachable.contains(id))
        .map(|&id| u64::from(store.size_of(id).expect("resident")))
        .sum()
}

fn reconcile_and_check(store: &mut Store) {
    let garbage = store.recompute_garbage_exact();
    store.assert_garbage_exact();
    store.assert_consistent();
    assert_eq!(garbage, store.garbage_bytes());
    assert_eq!(garbage, unreachable_present_bytes(store));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reconcile_at_random_events_matches_full_reachability(
        cfg in arb_config(),
        seed in any::<u64>(),
        every in 2u32..40,
    ) {
        let trace = churn(&cfg, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut store = Store::new(StoreConfig::tiny());
        let mut collector = Collector::new(SelectorKind::Random.build(seed));
        for ev in trace.iter() {
            store.apply(ev).expect("churn replays");
            if rng.random_range(0..every) != 0 {
                continue;
            }
            match rng.random_range(0..3u32) {
                // Reconcile alone.
                0 => reconcile_and_check(&mut store),
                // Reconcile, then collect: the engine's order.
                1 => {
                    reconcile_and_check(&mut store);
                    collector.collect_once(&mut store);
                    store.assert_consistent();
                    store.assert_garbage_exact();
                }
                // Collect with suspects still buffered.
                _ => {
                    collector.collect_once(&mut store);
                    store.assert_consistent();
                }
            }
        }
        reconcile_and_check(&mut store);
    }
}
