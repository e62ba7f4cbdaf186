//! Integration tests for the batch diff engine: the memoised, parallel
//! `DiffService` must produce exactly the distances of a fresh, unmemoised
//! `WorkflowDiff` per pair, under concurrent store traffic.

use pdiffview::prelude::*;
use pdiffview::workloads::generator::{random_specification, SpecGenConfig};
use pdiffview::workloads::runs::{generate_run, RunGenConfig};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wfdiff_core::{CacheStats, DeletionEntry, DeletionKey, PairKey};
use wfdiff_sptree::{Run, Specification};

/// A small Fig. 12/14-style workload: one random specification and a handful
/// of random runs.
fn workload(spec_seed: u64, runs: usize, forks: usize, loops: usize) -> (Specification, Vec<Run>) {
    let mut rng = ChaCha8Rng::seed_from_u64(spec_seed);
    let spec = random_specification(
        &format!("batch-prop-{spec_seed}"),
        &SpecGenConfig { target_edges: 30, series_parallel_ratio: 1.0, forks, loops },
        &mut rng,
    );
    let cfg = RunGenConfig { prob_p: 0.8, max_f: 2, prob_f: 0.7, max_l: 2, prob_l: 0.7 };
    let runs = (0..runs).map(|_| generate_run(&spec, &cfg, &mut rng)).collect();
    (spec, runs)
}

fn service_over(spec: &Specification, runs: &[Run], threads: usize) -> (DiffService, String) {
    let name = spec.name().to_string();
    let store = Arc::new(WorkflowStore::new());
    store.insert_spec(spec.clone()).expect("fresh store");
    for (i, run) in runs.iter().enumerate() {
        store.insert_run(&format!("run{i:02}"), run.clone()).expect("spec stored");
    }
    (DiffService::builder(store).threads(threads).build(), name)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Memoised batch distances equal fresh single-pair distances on random
    /// Fig. 12-style (branch-choice) and Fig. 14-style (fork/loop) workloads,
    /// cold and warm, single- and multi-threaded.
    #[test]
    fn memoized_batch_distances_equal_fresh_single_pair_distances(
        spec_seed in 0u64..10_000,
        run_count in 3usize..6,
        threads in 1usize..4,
        fork_loops in 0usize..3,
    ) {
        let (spec, runs) = workload(spec_seed, run_count, fork_loops, fork_loops);
        let (service, name) = service_over(&spec, &runs, threads);
        let cold = service.diff_all_pairs(&name).expect("all pairs");
        let warm = service.diff_all_pairs(&name).expect("all pairs warm");
        prop_assert_eq!(&warm, &cold);
        let engine = WorkflowDiff::new(&spec, &UnitCost);
        for i in 0..runs.len() {
            for j in 0..runs.len() {
                // A fresh engine with no cache is the ground truth.
                let fresh = engine.distance(&runs[i], &runs[j]).expect("valid runs");
                prop_assert_eq!(cold.matrix[i][j], fresh, "pair ({}, {})", i, j);
            }
        }
    }
}

#[test]
fn batch_and_single_pair_agree_through_every_api() {
    let (spec, runs) = workload(77, 5, 2, 1);
    let (service, name) = service_over(&spec, &runs, 4);
    let all = service.diff_all_pairs(&name).expect("all pairs");
    // diff() and diff_batch() agree with the matrix.
    let pairs: Vec<(String, String)> = (0..runs.len())
        .flat_map(|i| (0..runs.len()).map(move |j| (format!("run{i:02}"), format!("run{j:02}"))))
        .collect();
    let batch = service.diff_batch(&name, &pairs).expect("batch");
    for ((a, b), got) in pairs.iter().zip(&batch) {
        let expected = all.distance(a, b).expect("in matrix");
        assert_eq!(got.distance, expected, "{a} vs {b}");
        let single = service.diff(&name, a, b).expect("single").distance;
        assert_eq!(single, expected);
    }
    // Sessions agree too (full mapping + script path).
    let session = service.session(&name, "run00", "run01").expect("session");
    assert_eq!(session.distance(), all.distance("run00", "run01").expect("in matrix"));
}

#[test]
fn concurrent_service_traffic_keeps_distances_stable() {
    let (spec, runs) = workload(123, 4, 1, 1);
    let (service, name) = service_over(&spec, &runs, 2);
    let service = Arc::new(service);
    let expected = service.diff_all_pairs(&name).expect("baseline");
    let after_warmup = service.cache_stats();
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let service = Arc::clone(&service);
            let name = name.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                for _ in 0..5 {
                    let got = service.diff_all_pairs(&name).expect("all pairs");
                    assert_eq!(got, expected);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("no worker panics");
    }
    let final_stats = service.cache_stats();
    assert_eq!(
        final_stats.misses, after_warmup.misses,
        "warm concurrent traffic must be answered entirely from the cache"
    );
    assert!(final_stats.hits > after_warmup.hits);
}

/// A [`DiffCache`] that counts Algorithm 3 lookups on the way through.
#[derive(Default)]
struct DeletionLookupCounter {
    inner: ShardedDiffCache,
    deletion_gets: AtomicU64,
}

impl DiffCache for DeletionLookupCounter {
    fn get_deletion(&self, key: &DeletionKey) -> Option<Arc<DeletionEntry>> {
        self.deletion_gets.fetch_add(1, Ordering::Relaxed);
        self.inner.get_deletion(key)
    }

    fn put_deletion(&self, key: DeletionKey, entry: Arc<DeletionEntry>) {
        self.inner.put_deletion(key, entry)
    }

    fn get_pair(&self, key: &PairKey) -> Option<f64> {
        self.inner.get_pair(key)
    }

    fn put_pair(&self, key: PairKey, cost: f64) {
        self.inner.put_pair(key, cost)
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

#[test]
fn warm_started_runs_are_not_prepared_again_per_request() {
    let (spec, runs) = workload(41, 5, 2, 1);
    let name = spec.name().to_string();
    let store = Arc::new(WorkflowStore::new());
    store.insert_spec(spec.clone()).expect("fresh store");
    for (i, run) in runs.iter().enumerate() {
        store.insert_run(&format!("run{i:02}"), run.clone()).expect("spec stored");
    }
    let counter = Arc::new(DeletionLookupCounter::default());
    let service =
        DiffService::builder(store).cache(Arc::clone(&counter) as Arc<dyn DiffCache>).build();
    service.warm_start().expect("warm start");
    assert!(counter.deletion_gets.load(Ordering::Relaxed) > 0, "warm start builds the tables");

    let before = counter.deletion_gets.load(Ordering::Relaxed);
    let pairs: Vec<(String, String)> = (0..runs.len())
        .flat_map(|i| (0..runs.len()).map(move |j| (format!("run{i:02}"), format!("run{j:02}"))))
        .collect();
    let batch = service.diff_batch(&name, &pairs).expect("batch");
    service.diff(&name, "run00", "run01").expect("single");
    service.diff_all_pairs(&name).expect("all pairs");
    service.nearest_runs(&name, "run02", 2).expect("nearest");
    assert_eq!(
        counter.deletion_gets.load(Ordering::Relaxed),
        before,
        "stored runs keep their warm-start preparation"
    );
    let engine = WorkflowDiff::new(&spec, &UnitCost);
    for ((a, b), got) in pairs.iter().zip(&batch) {
        let i: usize = a[3..].parse().expect("run index");
        let j: usize = b[3..].parse().expect("run index");
        let fresh = engine.distance(&runs[i], &runs[j]).expect("valid runs");
        assert_eq!(got.distance.to_bits(), fresh.to_bits(), "{a} vs {b}");
    }
}
