//! Property tests: store accounting invariants hold under arbitrary
//! (valid) workloads.

use proptest::prelude::*;

use odbgc_store::{Store, StoreConfig};
use odbgc_trace::synthetic::{churn, ChurnConfig};

fn arb_config() -> impl Strategy<Value = ChurnConfig> {
    (1usize..6, 1usize..5, 10usize..400, (8u32..64, 64u32..512)).prop_map(
        |(anchors, slots, steps, (lo, hi))| ChurnConfig {
            anchors,
            slots_per_object: slots,
            steps,
            size_range: (lo, hi),
            weights: (4, 3, 2, 2),
        },
    )
}

/// Checks every cheaply-verifiable global invariant of a store.
fn check_invariants(store: &Store) {
    // Conservation of garbage.
    assert_eq!(
        store.total_garbage_generated(),
        store.total_garbage_collected() + store.garbage_bytes()
    );
    // Storage is partitioned into live, garbage, and free.
    assert_eq!(
        store.occupied_bytes(),
        store.live_bytes() + store.garbage_bytes()
    );
    // Allocated storage bounds occupancy.
    assert!(store.db_size_bytes() >= store.occupied_bytes());
    // Per-partition residents cover exactly the occupied bytes.
    let mut resident_bytes = 0u64;
    for snap in store.partition_snapshots() {
        for &id in store.residents_of(snap.id) {
            assert!(store.is_present(id), "resident {id} must be present");
            assert_eq!(store.partition_of(id).unwrap(), snap.id);
            resident_bytes += u64::from(store.size_of(id).unwrap());
        }
        assert_eq!(
            snap.live_bytes + snap.garbage_bytes,
            u64::from(snap.occupied_bytes)
        );
    }
    assert_eq!(resident_bytes, store.occupied_bytes());
    // Maintained O(1) counters agree with fresh scans.
    store.assert_counters_match();
    let scanned_po: u64 = store
        .partition_snapshots()
        .iter()
        .map(|s| s.overwrites)
        .sum();
    assert_eq!(scanned_po, store.total_outstanding_overwrites());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn churn_replay_upholds_invariants(cfg in arb_config(), seed in any::<u64>()) {
        let trace = churn(&cfg, seed);
        let mut store = Store::new(StoreConfig::tiny());
        for ev in trace.iter() {
            store.apply(ev).expect("synthetic traces are valid");
            // Counter == fresh-scan equivalence after *every* event.
            store.assert_counters_match();
        }
        check_invariants(&store);
        store.assert_consistent();
        // After the reconcile (churn can kill cycles the cascade cannot
        // see), the tracker is exact.
        store.recompute_garbage_exact();
        store.assert_garbage_exact();
        store.assert_consistent();
        check_invariants(&store);
    }

    #[test]
    fn tracker_is_sound_before_reconciliation(cfg in arb_config(), seed in any::<u64>()) {
        // The cascade may *miss* cyclic garbage but must never mark a
        // reachable object as garbage.
        let trace = churn(&cfg, seed);
        let mut store = Store::new(StoreConfig::tiny());
        for ev in trace.iter() {
            store.apply(ev).expect("valid");
        }
        let reachable = store.compute_reachable();
        for id in reachable.iter() {
            assert!(store.is_live(id), "reachable {id} must be tracked live");
        }
    }

    #[test]
    fn io_charges_are_monotone(cfg in arb_config(), seed in any::<u64>()) {
        let trace = churn(&cfg, seed);
        let mut store = Store::new(StoreConfig::tiny());
        let mut last_total = 0;
        for ev in trace.iter() {
            store.apply(ev).expect("valid");
            let total = store.io().total();
            assert!(total >= last_total);
            last_total = total;
        }
        // Phase-mark-free synthetic traces: every storage-touching event
        // either hits the buffer or paid I/O; the totals never exceed
        // a sane bound (every event touches at most a handful of pages).
        assert!(store.io().total() <= 8 * trace.len() as u64 + 64);
    }

    #[test]
    fn buffer_capacity_is_respected(cfg in arb_config(), seed in any::<u64>()) {
        let trace = churn(&cfg, seed);
        let config = StoreConfig { buffer_pages: 2, ..StoreConfig::tiny() };
        let mut store = Store::new(config);
        for ev in trace.iter() {
            store.apply(ev).expect("valid");
        }
        check_invariants(&store);
    }
}
