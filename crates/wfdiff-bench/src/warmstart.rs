//! The `warm_start` experiment: persistence round-trip timing and the
//! first-query latency of a cold-loaded vs warm-started [`DiffService`].
//!
//! The scenario is a process restart of a persistent provenance database:
//! the store is on disk, a fresh process loads it and a user asks for the
//! difference of two runs.  On a cold-loaded service that first `diff` pays
//! for the Algorithm-3 preparation of both runs; after
//! [`DiffService::warm_start`] (which prepares every persisted run once,
//! e.g. in the background before traffic arrives, and memoises the result
//! on the run) the same query only pays for the pair DP.  Timings reported
//! per workload:
//!
//! * **save** — `WorkflowStore::save_to_dir` of the generated store,
//! * **load** — `WorkflowStore::load_from_dir` (full validation),
//! * **cold first diffs** — a burst of `runs/2` single-pair `diff` calls
//!   over *disjoint* pairs straight after a load: every run appears in
//!   exactly one pair, so each call pays fresh preparation, exactly like
//!   the first query ever to touch those runs,
//! * **warm start** — the `warm_start` pass itself on a fresh load,
//! * **warm first diffs** — the same burst after the warm start
//!   (preparation already memoised; only the pair DP remains).
//!
//! Both loaded services then compute the full `diff_all_pairs` matrix,
//! which is compared entry-by-entry against the pre-save in-memory store;
//! [`WarmStartRow::distances_match`] must be `true`.

use crate::batch::{generate_workload, BatchConfig};
use crate::time_ms;
use std::path::Path;
use std::sync::Arc;
use wfdiff_pdiffview::{DiffService, WorkflowStore};

/// One measured workload.
#[derive(Debug, Clone)]
pub struct WarmStartRow {
    /// Workload label.
    pub label: String,
    /// Number of runs in the collection.
    pub runs: usize,
    /// `save_to_dir` wall time (milliseconds).
    pub save_ms: f64,
    /// `load_from_dir` wall time (milliseconds).
    pub load_ms: f64,
    /// Number of disjoint pairs in the first-query burst.
    pub pairs: usize,
    /// The first-query burst on a cold-loaded service (milliseconds).
    pub cold_diff_ms: f64,
    /// `warm_start` wall time on a freshly loaded service (milliseconds).
    pub warm_start_ms: f64,
    /// The same burst after the warm start (milliseconds).
    pub warm_diff_ms: f64,
    /// Cache hits observed during the warm burst (subtree pairs the burst's
    /// DPs share through the cache).
    pub warm_diff_hits: u64,
    /// Whether both loaded services reproduced the in-memory distances over
    /// the full all-pairs matrix.
    pub distances_match: bool,
}

impl WarmStartRow {
    /// First-query speedup of the warm-started service over the cold load
    /// (1.0 for degenerate workloads with no measurable burst).
    pub fn first_query_speedup(&self) -> f64 {
        if self.pairs == 0 || self.warm_diff_ms <= 0.0 {
            return 1.0;
        }
        self.cold_diff_ms / self.warm_diff_ms
    }
}

/// Runs one persistence + warm-start experiment in `dir` (the directory is
/// created, reused and left in place for inspection).
pub fn run(config: &BatchConfig, dir: &Path) -> WarmStartRow {
    let (spec, runs) = generate_workload(config);
    let spec_name = spec.name().to_string();
    let store = Arc::new(WorkflowStore::new());
    let spec_arc = store.insert_spec(spec).expect("fresh store has no conflict");
    for (i, run) in runs.iter().enumerate() {
        store.insert_run(&format!("run{i:03}"), run.clone()).expect("spec is stored");
    }
    drop(spec_arc);
    let reference =
        DiffService::new(Arc::clone(&store)).diff_all_pairs(&spec_name).expect("valid store");

    let (_, save_ms) = time_ms(|| store.save_to_dir(dir).expect("save succeeds"));

    // Disjoint pairs: every run appears exactly once, so each cold diff
    // must prepare both of its runs from scratch.
    let disjoint_pairs: Vec<(String, String)> = (0..runs.len() / 2)
        .map(|i| (format!("run{:03}", 2 * i), format!("run{:03}", 2 * i + 1)))
        .collect();
    let burst = |service: &DiffService| {
        for (a, b) in &disjoint_pairs {
            service.diff(&spec_name, a, b).expect("diff succeeds");
        }
    };

    // Each restart flavour is measured over several independent loads (a
    // fresh service — and thus a fresh cache — every time); the minimum is
    // reported, the standard way to suppress scheduler noise on
    // single-digit-millisecond measurements.
    const RESTARTS: usize = 5;

    // Honor the workload's worker-pool size (first configured entry) so the
    // experiment does not silently vary with the host's core count.
    let threads = config.threads.first().copied().unwrap_or(1);

    // Cold restarts: load, then the first queries pay for preparation.
    let mut load_ms = f64::INFINITY;
    let mut cold_diff_ms = f64::INFINITY;
    let mut cold_service = None;
    for _ in 0..RESTARTS {
        let (cold_store, one_load) =
            time_ms(|| WorkflowStore::load_from_dir(dir).expect("load succeeds"));
        let service = DiffService::builder(Arc::new(cold_store)).threads(threads).build();
        let (_, one_burst) = time_ms(|| burst(&service));
        load_ms = load_ms.min(one_load);
        cold_diff_ms = cold_diff_ms.min(one_burst);
        cold_service = Some(service);
    }
    let cold_service = cold_service.expect("at least one restart ran");

    // Warm restarts: load, prepare every run, then the same queries only
    // pay for the pair DP.
    let mut warm_start_ms = f64::INFINITY;
    let mut warm_diff_ms = f64::INFINITY;
    let mut warm_diff_hits = 0;
    let mut warm_service = None;
    for _ in 0..RESTARTS {
        let store = Arc::new(WorkflowStore::load_from_dir(dir).expect("load succeeds"));
        let service = DiffService::builder(store).threads(threads).build();
        let (_, one_warm) = time_ms(|| service.warm_start().expect("warm start succeeds"));
        let before = service.cache_stats();
        let (_, one_burst) = time_ms(|| burst(&service));
        warm_start_ms = warm_start_ms.min(one_warm);
        warm_diff_ms = warm_diff_ms.min(one_burst);
        warm_diff_hits = service.cache_stats().hits - before.hits;
        warm_service = Some(service);
    }
    let warm_service = warm_service.expect("at least one restart ran");

    // Correctness: both loaded services must reproduce the pre-save matrix.
    let cold_result = cold_service.diff_all_pairs(&spec_name).expect("all-pairs diff succeeds");
    let warm_result = warm_service.diff_all_pairs(&spec_name).expect("all-pairs diff succeeds");
    let mut distances_match = true;
    for matrix in [&cold_result.matrix, &warm_result.matrix] {
        if matrix.len() != reference.matrix.len() {
            distances_match = false;
            continue;
        }
        for (row, ref_row) in matrix.iter().zip(&reference.matrix) {
            for (d, ref_d) in row.iter().zip(ref_row) {
                if (d - ref_d).abs() > 1e-9 {
                    distances_match = false;
                }
            }
        }
    }

    WarmStartRow {
        label: config.label.clone(),
        runs: runs.len(),
        pairs: disjoint_pairs.len(),
        save_ms,
        load_ms,
        cold_diff_ms,
        warm_start_ms,
        warm_diff_ms,
        warm_diff_hits,
        distances_match,
    }
}

/// Renders a row as an aligned text block.
pub fn render(row: &WarmStartRow) -> String {
    format!(
        "warm_start — {} ({} runs)\n\
         save {:>10.2} ms   load {:>10.2} ms   warm_start {:>10.2} ms\n\
         first {} disjoint diffs   cold {:>10.3} ms   warm {:>10.3} ms   ({:.2}x, {} cache hit(s))\n\
         distances identical to the pre-save store: {}\n",
        row.label,
        row.runs,
        row.save_ms,
        row.load_ms,
        row.warm_start_ms,
        row.pairs,
        row.cold_diff_ms,
        row.warm_diff_ms,
        row.first_query_speedup(),
        row.warm_diff_hits,
        if row.distances_match { "yes" } else { "NO — BUG" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_start_experiment_roundtrips_and_matches() {
        let mut config = BatchConfig::fig14(30, 6);
        config.threads = vec![1];
        let dir = std::env::temp_dir().join(format!("wfdiff-warmstart-{}", std::process::id()));
        let row = run(&config, &dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(row.runs, 6);
        assert!(row.distances_match, "persisted distances must equal the in-memory store");
        assert!(row.save_ms > 0.0 && row.load_ms > 0.0);
        assert!(row.cold_diff_ms > 0.0 && row.warm_diff_ms > 0.0);
        assert!(row.warm_diff_hits > 0, "the warm burst's pair DPs must share subtree pairs");
        let text = render(&row);
        assert!(text.contains("warm_start"));
        assert!(text.contains("yes"));
    }
}
