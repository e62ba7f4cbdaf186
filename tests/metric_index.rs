//! Integration tests for the vantage-point metric index behind pruned
//! `GET /similar`: across random stores, streamed insertions and removals,
//! the pruned top-k must equal the exact O(n) sweep bit for bit (same
//! distances, same tie-break ordering), and a restarted service, which
//! holds no tree until its first pruned query, must answer exactly as the
//! live one did.

use pdiffview::pdiffview::{DiffService, PairDistance, WorkflowStore};
use pdiffview::workloads::generator::{random_specification, SpecGenConfig};
use pdiffview::workloads::runs::{generate_run, RunGenConfig};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wfdiff_sptree::{Run, Specification};

/// A random small workload: one specification, `runs` generated runs.
fn random_workload(spec_seed: u64, runs: usize) -> (Specification, Vec<(String, Run)>) {
    let mut rng = ChaCha8Rng::seed_from_u64(spec_seed);
    let spec = random_specification(
        "metric",
        &SpecGenConfig { target_edges: 20, series_parallel_ratio: 0.9, forks: 2, loops: 1 },
        &mut rng,
    );
    let config = RunGenConfig { prob_p: 0.7, max_f: 2, prob_f: 0.6, max_l: 2, prob_l: 0.6 };
    let named =
        (0..runs).map(|r| (format!("run{r:03}"), generate_run(&spec, &config, &mut rng))).collect();
    (spec, named)
}

fn store_with(spec: &Specification, runs: &[(String, Run)]) -> Arc<WorkflowStore> {
    let store = Arc::new(WorkflowStore::new());
    store.insert_spec(spec.clone()).unwrap();
    for (name, run) in runs {
        store.insert_run(name, run.clone()).unwrap();
    }
    store
}

/// The certified contract: identical neighbour lists, distances and order.
fn assert_lists_equal(exact: &[PairDistance], pruned: &[PairDistance], context: &str) {
    assert_eq!(exact.len(), pruned.len(), "{context}: length");
    for (i, (e, p)) in exact.iter().zip(pruned).enumerate() {
        assert_eq!(e.target, p.target, "{context}: rank {i} target");
        assert_eq!(e.distance, p.distance, "{context}: rank {i} distance");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Pruned == exact over random stores, then again after streamed
    /// insertions and removals maintained through the notification path.
    #[test]
    fn pruned_top_k_equals_the_exact_sweep(
        spec_seed in 0u64..400,
        runs in 8usize..24,
        k in 1usize..8,
    ) {
        let (spec, named) = random_workload(spec_seed, runs);
        // Boot with all but the last three runs; stream those in later.
        let boot = &named[..runs - 3];
        let store = store_with(&spec, boot);
        let service = DiffService::new(Arc::clone(&store));

        for (query, _) in boot.iter().step_by(3) {
            let exact = service.nearest_runs("metric", query, k).unwrap();
            let (pruned, stats) =
                service.nearest_runs_pruned("metric", query, k, 0.0).unwrap();
            assert_lists_equal(&exact, &pruned, &format!("boot query {query}"));
            prop_assert!(
                stats.distance_evals < boot.len(),
                "pruned mode never evaluates more than the sweep"
            );
        }

        // Stream the held-back runs in through the server's path.
        for (name, run) in &named[runs - 3..] {
            store.insert_run(name, run.clone()).unwrap();
            service.notify_run_inserted("metric", name);
        }
        // Remove two boot runs (one may be a vantage pivot, forcing the
        // index to drop and rebuild that spec).
        for (gone, _) in &boot[..2] {
            prop_assert!(store.remove_run("metric", gone));
            service.notify_run_removed("metric", gone);
        }

        let survivors: Vec<&String> = named[2..].iter().map(|(n, _)| n).collect();
        for query in survivors.iter().step_by(4) {
            let exact = service.nearest_runs("metric", query, k).unwrap();
            let (pruned, _) = service.nearest_runs_pruned("metric", query, k, 0.0).unwrap();
            assert_lists_equal(&exact, &pruned, &format!("streamed query {query}"));
        }
    }
}

/// A scratch directory that cleans up after itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("wfdiff-metricindex-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn a_restarted_service_rebuilds_the_tree_and_answers_as_before() {
    let (spec, named) = random_workload(0x4E57, 17);
    let dir = TempDir::new("restart");
    let (boot, streamed) = named.split_at(14);
    store_with(&spec, boot).save_to_dir(dir.path()).unwrap();

    // Serve path: load the directory, build the tree with one pruned
    // query, then stream three durable inserts through the notification
    // path, so the live tree is shaped by its history, not by a build.
    let live_store = Arc::new(WorkflowStore::load_from_dir(dir.path()).unwrap());
    let live = DiffService::new(Arc::clone(&live_store));
    live.nearest_runs_pruned("metric", "run000", 5, 0.0).unwrap();
    for (name, run) in streamed {
        let run = live_store.insert_run(name, run.clone()).unwrap();
        live_store.append_run_to_dir(dir.path(), name, &run).unwrap();
        live.notify_run_inserted("metric", name);
    }
    assert_eq!(live.metric_index().member_count("metric"), 17);
    live_store.save_to_dir(dir.path()).unwrap();

    // Restart: the fresh service holds no tree; the first pruned query
    // builds one, and every answer, first or later, equals both the exact
    // sweep and what the live service answered before the restart.
    let restarted = DiffService::new(Arc::new(WorkflowStore::load_from_dir(dir.path()).unwrap()));
    assert_eq!(restarted.metric_index().member_count("metric"), 0);
    for (query, _) in &named {
        let exact = restarted.nearest_runs("metric", query, 5).unwrap();
        let (before, _) = live.nearest_runs_pruned("metric", query, 5, 0.0).unwrap();
        for pass in ["first", "later"] {
            let (pruned, _) = restarted.nearest_runs_pruned("metric", query, 5, 0.0).unwrap();
            assert_lists_equal(&exact, &pruned, &format!("{pass} query {query} vs exact"));
            assert_lists_equal(&before, &pruned, &format!("{pass} query {query} vs live"));
        }
    }
    assert_eq!(restarted.metric_index().member_count("metric"), 17);
    assert!(!dir.path().join("metric_index.json").exists(), "the tree is never written");
}

#[test]
fn approx_mode_distances_stay_within_the_reported_bound() {
    let (spec, named) = random_workload(0xA44C, 20);
    let service = DiffService::new(store_with(&spec, &named));
    let epsilon = 0.5;
    for query in ["run000", "run007", "run013"] {
        let exact = service.nearest_runs("metric", query, 6).unwrap();
        let (approx, stats) = service.nearest_runs_pruned("metric", query, 6, epsilon).unwrap();
        assert_eq!(stats.approx_epsilon, epsilon);
        let true_kth = exact.last().map(|p| p.distance).unwrap_or(0.0);
        for p in &approx {
            assert!(
                p.distance <= (1.0 + epsilon) * true_kth + 1e-9,
                "{query}: approx distance {} exceeds (1+ε)·{true_kth}",
                p.distance
            );
        }
    }
}
