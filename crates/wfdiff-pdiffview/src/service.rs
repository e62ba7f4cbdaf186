//! The batch diff engine: a [`DiffService`] wraps a [`WorkflowStore`] and a
//! shared fingerprint-keyed [`DiffCache`], and differences run pairs singly
//! (`diff`), in explicit batches (`diff_batch`) or all-pairs
//! (`diff_all_pairs`) across a scoped worker pool of plain `std` threads.
//!
//! The all-pairs workload is the paper's clustering scenario: PDiffView
//! browses whole collections of runs of one specification, which needs the
//! full distance matrix.  Three levers make that fast here:
//!
//! 1. every stored run is **prepared once for its lifetime** (fingerprints
//!    and Algorithm 3 tables, memoised on the immutable `Arc<Run>` and
//!    shared across runs through the cache while they are built),
//! 2. subtree-pair DP values are **memoised across pairs and across calls**
//!    by canonical fingerprint, so a warm cache answers repeated or
//!    overlapping queries at the root, and
//! 3. independent pairs are **differenced in parallel** on `threads` workers
//!    pulling from an atomic work queue.
//!
//! Distances are bit-identical to the unmemoised [`WorkflowDiff`] path — the
//! cache only short-circuits subproblems that are provably equal.

use crate::cluster::incremental::{ClusterSnapshot, DistanceOracle, IncrementalClusterIndex};
use crate::cluster::persist::{
    load as load_cluster_cache, save_wal as save_cluster_cache, ClusterCacheReport,
};
use crate::lockrank::{LockRank, RankedRwLock};
use crate::metricindex::{IncrementalMetricIndex, MedoidPivots, PruneStats};
use crate::persist::PersistError;
use crate::session::DiffSession;
use crate::store::WorkflowStore;
use crate::stream::{PartialRun, StreamError, StreamEvent};
use crate::wal;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use wfdiff_core::{
    CacheStats, CostModel, DiffCache, DiffError, PreparedRun, ShardedDiffCache, UnitCost,
    WorkflowDiff,
};
use wfdiff_sptree::{Run, Specification};

/// Errors raised by the batch diff service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The named specification is not in the store.
    UnknownSpec(String),
    /// The named run is not stored for the specification.
    UnknownRun {
        /// The specification name.
        spec: String,
        /// The missing run name.
        run: String,
    },
    /// A query parameter was structurally invalid (e.g. a cluster count of
    /// zero); the message names the offending parameter.
    InvalidQuery(String),
    /// The underlying differencing failed.
    Diff(DiffError),
    /// A stream event (or a stream finalisation) was rejected by the
    /// [`PartialRun`] builder; [`StreamError::is_conflict`] separates state
    /// conflicts (409) from structurally invalid events (400).
    Stream(StreamError),
    /// The named in-flight stream does not exist.
    UnknownStream {
        /// The specification name.
        spec: String,
        /// The missing stream name.
        stream: String,
    },
    /// Two event batches raced on the same stream: the stream advanced
    /// between this batch's validation and its commit.  The batch was not
    /// applied; the client should refetch the stream position and retry.
    StreamRace {
        /// The specification name.
        spec: String,
        /// The contended stream name.
        stream: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownSpec(name) => write!(f, "unknown specification {name:?}"),
            ServiceError::UnknownRun { spec, run } => {
                write!(f, "unknown run {run:?} for specification {spec:?}")
            }
            ServiceError::InvalidQuery(message) => write!(f, "invalid query: {message}"),
            ServiceError::Diff(e) => write!(f, "diff failed: {e}"),
            ServiceError::Stream(e) => write!(f, "stream event rejected: {e}"),
            ServiceError::UnknownStream { spec, stream } => {
                write!(f, "unknown stream {stream:?} for specification {spec:?}")
            }
            ServiceError::StreamRace { spec, stream } => {
                write!(f, "concurrent writers raced on stream {stream:?} of {spec:?}; retry")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Diff(e) => Some(e),
            ServiceError::Stream(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DiffError> for ServiceError {
    fn from(value: DiffError) -> Self {
        ServiceError::Diff(value)
    }
}

impl From<StreamError> for ServiceError {
    fn from(value: StreamError) -> Self {
        ServiceError::Stream(value)
    }
}

/// What a [`DiffService::warm_start`] pass prepared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmStartReport {
    /// Number of specifications whose runs were prepared.
    pub specs: usize,
    /// Number of runs replayed through `prepare`.
    pub runs: usize,
}

/// One distance of a batch request.
#[derive(Debug, Clone, PartialEq)]
pub struct PairDistance {
    /// Source run name.
    pub source: String,
    /// Target run name.
    pub target: String,
    /// The edit distance.
    pub distance: f64,
}

/// The full distance matrix of a specification's stored runs.
#[derive(Debug, Clone, PartialEq)]
pub struct AllPairsResult {
    /// Run names in matrix order (the store's sorted order).
    pub runs: Vec<String>,
    /// Symmetric distance matrix; `matrix[i][j]` is the edit distance between
    /// `runs[i]` and `runs[j]` (diagonal is zero).
    pub matrix: Vec<Vec<f64>>,
}

impl AllPairsResult {
    /// The distance between two named runs, if both are in the matrix.
    pub fn distance(&self, a: &str, b: &str) -> Option<f64> {
        let i = self.runs.iter().position(|r| r == a)?;
        let j = self.runs.iter().position(|r| r == b)?;
        Some(self.matrix[i][j])
    }

    /// Iterates over the strict upper triangle as (source, target, distance).
    pub fn pairs(&self) -> impl Iterator<Item = (&str, &str, f64)> + '_ {
        self.runs.iter().enumerate().flat_map(move |(i, a)| {
            self.runs[i + 1..]
                .iter()
                .enumerate()
                .map(move |(k, b)| (a.as_str(), b.as_str(), self.matrix[i][i + 1 + k]))
        })
    }
}

/// Acknowledgement of one accepted event batch on a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamAck {
    /// The stream's event count before the batch (the sequence number the
    /// batch was validated against, and the `base_seq` its WAL records
    /// carry).
    pub base_seq: u64,
    /// The stream's event count after the batch.
    pub seq: u64,
    /// Node instances declared so far.
    pub nodes: usize,
    /// Completed leaves in the live prefix profile.
    pub completed_leaves: u64,
    /// `true` once every declared instance has completed — the stream may
    /// finalize.
    pub complete: bool,
}

/// The result of [`DiffService::stream_events`]: the acknowledgement plus
/// the undo state [`DiffService::undo_stream_batch`] needs if making the
/// batch durable fails.
#[derive(Debug, Clone)]
pub struct StreamBatchOutcome {
    /// The acknowledgement of the committed batch.
    pub ack: StreamAck,
    /// The stream's builder before the batch (`None` when the batch opened
    /// the stream).
    prior: Option<PartialRun>,
}

/// One cluster's verdict inside a [`DriftReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct DriftClusterStatus {
    /// The cluster's medoid run.
    pub medoid: String,
    /// Member count (including the medoid).
    pub size: usize,
    /// The cluster radius: the largest exact distance from the medoid to a
    /// member.
    pub radius: f64,
    /// The certified lower bound on the distance between any completion of
    /// the stream and the medoid
    /// ([`WorkflowDiff::prefix_distance`]).
    pub lower_bound: f64,
    /// `lower_bound > radius`: no completion of this stream can land inside
    /// the cluster.
    pub exceeds: bool,
}

/// The drift verdict for one in-flight stream — the payload of
/// `GET /runs/{spec}/{stream}/drift`.
///
/// The stream **drifts** when the certified lower bound to *every* cluster
/// medoid exceeds that cluster's radius: whatever the run goes on to do, it
/// cannot end up inside any known cluster.  Because the bound is monotone in
/// the event stream, a drift verdict is permanent for the stream (it can
/// only be reset by re-clustering with the finished run folded in).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// The specification name.
    pub spec: String,
    /// The stream name.
    pub stream: String,
    /// Events applied to the stream so far.
    pub events: u64,
    /// Node instances declared so far.
    pub nodes: usize,
    /// Completed leaves in the prefix profile.
    pub completed_leaves: u64,
    /// Per-cluster radii and bounds (empty when no clustering has been built
    /// for the specification yet).
    pub clusters: Vec<DriftClusterStatus>,
    /// `true` iff `clusters` is non-empty and every entry `exceeds`.
    pub drifted: bool,
}

/// What [`DiffService::load_streams`] rebuilt from the write-ahead log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamLoadReport {
    /// Streams rebuilt into the in-flight registry.
    pub loaded: usize,
    /// Streams dropped as already finalised (a closure marker, or a stored
    /// run of the same name).
    pub closed: usize,
    /// Streams dropped as stale or invalid (replaced specification version,
    /// missing specification, or an event sequence that no longer applies).
    pub skipped: usize,
}

/// Builder-style configuration for [`DiffService`].
pub struct DiffServiceBuilder {
    store: Arc<WorkflowStore>,
    cost: Arc<dyn CostModel>,
    cache: Arc<dyn DiffCache>,
    threads: usize,
}

impl DiffServiceBuilder {
    /// Sets the cost model (default: [`UnitCost`]).
    pub fn cost(mut self, cost: Arc<dyn CostModel>) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the shared diff cache (default: a [`ShardedDiffCache`]).
    pub fn cache(mut self, cache: Arc<dyn DiffCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the worker-pool size for batch operations (default: the number of
    /// available CPUs).  Clamped to at least 1.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Finishes the build.
    pub fn build(self) -> DiffService {
        DiffService {
            store: self.store,
            cost: self.cost,
            cache: self.cache,
            threads: self.threads,
            clusters: IncrementalClusterIndex::new(),
            metric: IncrementalMetricIndex::new(),
            streams: RankedRwLock::new(LockRank::Streams, BTreeMap::new()),
        }
    }
}

/// The batch diff engine; see the [module docs](self).
pub struct DiffService {
    store: Arc<WorkflowStore>,
    cost: Arc<dyn CostModel>,
    cache: Arc<dyn DiffCache>,
    threads: usize,
    clusters: IncrementalClusterIndex,
    metric: IncrementalMetricIndex,
    /// In-flight streamed runs keyed by `(spec, stream)`.  The innermost
    /// lock of the whole system ([`LockRank::Streams`]): builders are cloned
    /// *out* under it, mutated and persisted with no lock held, and
    /// committed back with an optimistic sequence check — so no store or
    /// WAL call ever happens under it.
    streams: RankedRwLock<BTreeMap<(String, String), PartialRun>>,
}

impl DiffService {
    /// Creates a service over `store` with the default configuration
    /// (unit cost, fresh sharded cache, one worker per available CPU).
    pub fn new(store: Arc<WorkflowStore>) -> Self {
        DiffService::builder(store).build()
    }

    /// Starts configuring a service over `store`.
    pub fn builder(store: Arc<WorkflowStore>) -> DiffServiceBuilder {
        DiffServiceBuilder {
            store,
            cost: Arc::new(UnitCost),
            cache: Arc::new(ShardedDiffCache::default()),
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<WorkflowStore> {
        &self.store
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &dyn CostModel {
        self.cost.as_ref()
    }

    /// The worker-pool size used by batch operations.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A snapshot of the shared cache's effectiveness counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn lookup(
        &self,
        spec_name: &str,
        run_names: &[&str],
    ) -> Result<(Arc<Specification>, Vec<Arc<Run>>), ServiceError> {
        // One consistent critical section; only the named runs are touched,
        // so single-pair queries stay O(k log n) however many runs the
        // specification has accumulated.
        let (spec, resolved) = self
            .store
            .lookup_runs(spec_name, run_names)
            .ok_or_else(|| ServiceError::UnknownSpec(spec_name.to_string()))?;
        let runs = run_names
            .iter()
            .zip(resolved)
            .map(|(&name, run)| {
                run.ok_or_else(|| ServiceError::UnknownRun {
                    spec: spec_name.to_string(),
                    run: name.to_string(),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((spec, runs))
    }

    /// Prepares every stored run up front: each run of every specification
    /// goes through the engine's `prepare` on the worker pool, which
    /// memoises its fingerprints and Algorithm 3 tables on the stored run
    /// itself (and fills the cache's per-subtree deletion entries while
    /// building them).
    ///
    /// This is the companion of [`WorkflowStore::load_from_dir`]: after a
    /// process restart, `load` + `warm_start` moves the per-run preparation
    /// cost out of the first `diff`/`diff_all_pairs` call, and out of every
    /// later one: queries borrow the memoised preparation and only pay for
    /// the pair DP.  Calling it on a store that is already warm is harmless;
    /// each `prepare` is then a lookup.
    ///
    /// [`WorkflowStore::load_from_dir`]: crate::store::WorkflowStore::load_from_dir
    pub fn warm_start(&self) -> Result<WarmStartReport, ServiceError> {
        let snapshot = self.store.snapshot_all();
        let mut report = WarmStartReport { specs: 0, runs: 0 };
        for (_, (spec, named_runs)) in &snapshot {
            report.specs += 1;
            let engine = WorkflowDiff::new(spec, self.cost.as_ref());
            let cache = self.cache.as_ref();
            let runs: Vec<&Arc<Run>> = named_runs.iter().map(|(_, r)| r).collect();
            self.run_jobs(&runs, |r| engine.prepare(r, Some(cache)).map(|_| ()))?;
            report.runs += runs.len();
        }
        Ok(report)
    }

    /// Computes the edit distance between two stored runs, sharing and
    /// warming the service cache.
    pub fn diff(&self, spec: &str, r1: &str, r2: &str) -> Result<PairDistance, ServiceError> {
        let (spec_arc, runs) = self.lookup(spec, &[r1, r2])?;
        let engine = WorkflowDiff::new(&spec_arc, self.cost.as_ref());
        let cache = Some(self.cache.as_ref());
        let p1 = engine.prepare(&runs[0], cache).map_err(ServiceError::from)?;
        let p2 = engine.prepare(&runs[1], cache).map_err(ServiceError::from)?;
        let distance = engine.distance_prepared(&p1, &p2, cache)?;
        Ok(PairDistance { source: r1.to_string(), target: r2.to_string(), distance })
    }

    /// Opens a full differencing session (mapping + edit script) between two
    /// stored runs, reusing the service's cost model and cache.
    pub fn session(&self, spec: &str, r1: &str, r2: &str) -> Result<DiffSession, ServiceError> {
        let (spec_arc, mut runs) = self.lookup(spec, &[r1, r2])?;
        let target = runs.pop().expect("two runs resolved");
        let source = runs.pop().expect("two runs resolved");
        DiffSession::from_arcs(
            spec_arc,
            self.cost.as_ref(),
            source,
            target,
            Some(self.cache.as_ref()),
        )
        .map_err(ServiceError::from)
    }

    /// Differences an explicit list of run-name pairs on the worker pool.
    ///
    /// The result vector is index-aligned with `pairs`.
    pub fn diff_batch(
        &self,
        spec: &str,
        pairs: &[(String, String)],
    ) -> Result<Vec<PairDistance>, ServiceError> {
        // Deduplicate run names so each distinct run is resolved and its
        // preparation looked up once, however often it repeats across pairs.
        let mut names: Vec<&str> =
            pairs.iter().flat_map(|(a, b)| [a.as_str(), b.as_str()]).collect();
        names.sort_unstable();
        names.dedup();
        let index_of = |name: &str| {
            names.binary_search(&name).expect("every pair name is in the deduplicated list")
        };
        let (spec_arc, runs) = self.lookup(spec, &names)?;
        let engine = WorkflowDiff::new(&spec_arc, self.cost.as_ref());
        let cache = self.cache.as_ref();
        // Preparation is memoised on each run; runs never prepared before
        // (no warm start, or just inserted) are prepared in parallel.
        let run_refs: Vec<&Arc<Run>> = runs.iter().collect();
        let prepared = self.run_jobs(&run_refs, |r| engine.prepare(r, Some(cache)))?;
        let jobs: Vec<(usize, usize)> =
            pairs.iter().map(|(a, b)| (index_of(a), index_of(b))).collect();
        let distances = self.run_jobs(&jobs, |&(i, j)| {
            engine.distance_prepared(&prepared[i], &prepared[j], Some(cache))
        })?;
        Ok(pairs
            .iter()
            .zip(distances)
            .map(|((a, b), distance)| PairDistance {
                source: a.clone(),
                target: b.clone(),
                distance,
            })
            .collect())
    }

    /// Computes the full distance matrix over every run stored for `spec`.
    pub fn diff_all_pairs(&self, spec: &str) -> Result<AllPairsResult, ServiceError> {
        let (spec_arc, named_runs) =
            self.store.snapshot(spec).ok_or_else(|| ServiceError::UnknownSpec(spec.to_string()))?;
        let run_names: Vec<String> = named_runs.iter().map(|(n, _)| n.clone()).collect();
        let engine = WorkflowDiff::new(&spec_arc, self.cost.as_ref());
        let cache = self.cache.as_ref();
        // Fingerprint + Algorithm 3 preparation parallelises per run.
        let runs_only: Vec<&Arc<Run>> = named_runs.iter().map(|(_, r)| r).collect();
        let prepared = self.run_jobs(&runs_only, |r| engine.prepare(r, Some(cache)))?;
        let n = prepared.len();
        let jobs: Vec<(usize, usize)> =
            (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))).collect();
        let distances = self.run_jobs(&jobs, |&(i, j)| {
            engine.distance_prepared(&prepared[i], &prepared[j], Some(cache))
        })?;
        let mut matrix = vec![vec![0.0; n]; n];
        for (&(i, j), d) in jobs.iter().zip(distances) {
            matrix[i][j] = d;
            matrix[j][i] = d;
        }
        Ok(AllPairsResult { runs: run_names, matrix })
    }

    /// The exact `k` nearest stored runs to `run` ("which past run is this
    /// one closest to?") — the query behind `GET /similar`.
    ///
    /// Distances are computed against **every** other stored run of the
    /// specification (prepared in parallel, each pair riding the shared
    /// cache), so the answer is always identical to a from-scratch
    /// recompute — no approximation through the cluster index.  Results are
    /// sorted by distance, ties broken by run name; `k` is clamped to the
    /// number of other runs and must be at least 1.
    pub fn nearest_runs(
        &self,
        spec: &str,
        run: &str,
        k: usize,
    ) -> Result<Vec<PairDistance>, ServiceError> {
        if k == 0 {
            return Err(ServiceError::InvalidQuery("k must be at least 1".to_string()));
        }
        let (spec_arc, named_runs) =
            self.store.snapshot(spec).ok_or_else(|| ServiceError::UnknownSpec(spec.to_string()))?;
        let query = named_runs.iter().position(|(n, _)| n == run).ok_or_else(|| {
            ServiceError::UnknownRun { spec: spec.to_string(), run: run.to_string() }
        })?;
        let engine = WorkflowDiff::new(&spec_arc, self.cost.as_ref());
        let cache = self.cache.as_ref();
        let run_refs: Vec<&Arc<Run>> = named_runs.iter().map(|(_, r)| r).collect();
        let prepared = self.run_jobs(&run_refs, |r| engine.prepare(r, Some(cache)))?;
        let mut names = Vec::with_capacity(prepared.len().saturating_sub(1));
        let mut targets: Vec<&PreparedRun<'_>> = Vec::with_capacity(names.capacity());
        for (i, p) in prepared.iter().enumerate() {
            if i != query {
                names.push(named_runs[i].0.as_str());
                targets.push(p);
            }
        }
        let row = engine.distance_row_prepared(&prepared[query], &targets, Some(cache))?;
        let mut neighbors: Vec<PairDistance> = names
            .into_iter()
            .zip(row)
            .map(|(name, distance)| PairDistance {
                source: run.to_string(),
                target: name.to_string(),
                distance,
            })
            .collect();
        neighbors.sort_by(|a, b| {
            a.distance.total_cmp(&b.distance).then_with(|| a.target.cmp(&b.target))
        });
        neighbors.truncate(k);
        Ok(neighbors)
    }

    /// The `k` nearest stored runs to `run` through the metric index —
    /// `GET /similar?pruned=1` — with triangle-inequality pruning instead
    /// of the O(n) sweep.
    ///
    /// With `epsilon == 0` (the default) the result is **certified**
    /// identical to [`DiffService::nearest_runs`], ordering and tie-breaks
    /// included: a subtree or candidate is skipped only when a
    /// triangle-inequality bound proves it cannot enter the top-`k`.
    /// `epsilon > 0` opts into approximate answers where every reported
    /// distance is at most `(1 + ε)` times the true `k`-th distance (the
    /// bound echoed in [`PruneStats::approx_epsilon`]).  Candidate
    /// screening additionally reuses medoid distances the cluster index
    /// already memoized, at zero extra evaluations.  Like the exact path,
    /// `k` is clamped to the number of other runs and must be at least 1.
    pub fn nearest_runs_pruned(
        &self,
        spec: &str,
        run: &str,
        k: usize,
        epsilon: f64,
    ) -> Result<(Vec<PairDistance>, PruneStats), ServiceError> {
        if k == 0 {
            return Err(ServiceError::InvalidQuery("k must be at least 1".to_string()));
        }
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(ServiceError::InvalidQuery(
                "approx must be a finite non-negative epsilon".to_string(),
            ));
        }
        let (spec_arc, named_runs) =
            self.store.snapshot(spec).ok_or_else(|| ServiceError::UnknownSpec(spec.to_string()))?;
        if !named_runs.iter().any(|(n, _)| n == run) {
            return Err(ServiceError::UnknownRun { spec: spec.to_string(), run: run.to_string() });
        }
        let names: Vec<String> = named_runs.iter().map(|(n, _)| n.clone()).collect();
        let oracle = ServiceOracle { service: self, spec };
        let pivots = self.clusters.medoid_distance_rows(spec).map(MedoidPivots::new);
        let (neighbors, stats) = self.metric.nearest(
            spec,
            spec_arc.fingerprint(),
            &names,
            run,
            k,
            epsilon,
            pivots.as_ref(),
            &oracle,
        )?;
        let neighbors = neighbors
            .into_iter()
            .map(|(target, distance)| PairDistance { source: run.to_string(), target, distance })
            .collect();
        Ok((neighbors, stats))
    }

    /// The k-medoids clustering of every run stored for `spec`, maintained
    /// incrementally by the service's [`IncrementalClusterIndex`].
    ///
    /// The first call (or a call after the stored run set, `k`, `seed` or
    /// the specification version changed in a way the index did not track)
    /// builds the clustering; subsequent calls and streamed
    /// [`DiffService::notify_run_inserted`] updates serve and maintain it
    /// incrementally.  `k` must be at least 1 (it is clamped to the run
    /// count); an empty collection yields an empty snapshot.
    pub fn cluster_medoids(
        &self,
        spec: &str,
        k: usize,
        seed: u64,
    ) -> Result<ClusterSnapshot, ServiceError> {
        if k == 0 {
            return Err(ServiceError::InvalidQuery("k must be at least 1".to_string()));
        }
        let (spec_arc, named_runs) =
            self.store.snapshot(spec).ok_or_else(|| ServiceError::UnknownSpec(spec.to_string()))?;
        let names: Vec<String> = named_runs.iter().map(|(n, _)| n.clone()).collect();
        let oracle = ServiceOracle { service: self, spec };
        self.clusters.ensure(spec, spec_arc.fingerprint(), &names, k, seed, &oracle)
    }

    /// Folds a just-stored run into the cluster index (a no-op when the
    /// index holds no state for the specification yet).
    ///
    /// The index is a cache of derived state, so this never fails the
    /// caller: any error while fetching the O(k + cluster) fresh distances
    /// drops the specification's state instead, and the next
    /// [`DiffService::cluster_medoids`] rebuilds it.
    pub fn notify_run_inserted(&self, spec: &str, run: &str) {
        let Some(spec_arc) = self.store.spec(spec) else {
            self.clusters.invalidate(spec);
            self.metric.invalidate(spec);
            return;
        };
        let oracle = ServiceOracle { service: self, spec };
        if self.clusters.insert_run(spec, spec_arc.fingerprint(), run, &oracle).is_err() {
            self.clusters.invalidate(spec);
        }
        if self.metric.insert_run(spec, spec_arc.fingerprint(), run, &oracle).is_err() {
            self.metric.invalidate(spec);
        }
    }

    /// Removes a run from the cluster index (the mirror of
    /// [`DiffService::notify_run_inserted`]; same never-fails contract).
    pub fn notify_run_removed(&self, spec: &str, run: &str) {
        let oracle = ServiceOracle { service: self, spec };
        if self.clusters.remove_run(spec, run, &oracle).is_err() {
            self.clusters.invalidate(spec);
        }
        self.metric.remove_run(spec, run);
    }

    /// The service's incremental run-cluster index.
    pub fn cluster_index(&self) -> &IncrementalClusterIndex {
        &self.clusters
    }

    /// The service's incremental metric (vantage-point tree) index.
    pub fn metric_index(&self) -> &IncrementalMetricIndex {
        &self.metric
    }

    /// Checkpoints the cluster index by appending one delta record per
    /// changed spec to the store directory's write-ahead log (see
    /// [`crate::cluster::persist`] and [`crate::wal`]) — O(changed specs),
    /// not a whole `cluster_cache.json` rewrite, and each record carries
    /// only the memo entries added since the spec's last checkpoint; the
    /// next full save folds the deltas into the file.  Returns the number of tracked specs.
    /// When nothing changed since the last successful checkpoint the append
    /// is skipped entirely, so calling this after every query is cheap.
    pub fn save_cluster_state(&self, dir: impl AsRef<Path>) -> Result<usize, PersistError> {
        save_cluster_cache(&self.clusters, &self.store, self.cost.cache_key(), dir.as_ref())
    }

    /// Write-ahead-log counters of the underlying store (appends, bytes,
    /// replayed records, checkpoint folds) — the `/metrics` numbers.
    pub fn wal_stats(&self) -> crate::wal::WalStatsSnapshot {
        self.store.wal_stats()
    }

    /// Restores a cluster-index checkpoint from `dir`, validating every
    /// entry against the live store (stale or corrupt entries are skipped
    /// and rebuilt on demand — this never fails the boot).
    pub fn load_cluster_state(&self, dir: impl AsRef<Path>) -> ClusterCacheReport {
        load_cluster_cache(&self.clusters, &self.store, self.cost.cache_key(), dir.as_ref())
    }

    /// A no-op kept for the repository benchmark's call sites: the metric
    /// index is never checkpointed.
    #[doc(hidden)]
    pub fn save_metric_state(&self, _dir: impl AsRef<Path>) -> Result<(), PersistError> {
        Ok(())
    }

    /// A no-op kept for the repository benchmark's call sites: a restarted
    /// service builds each tree on its specification's first pruned query.
    #[doc(hidden)]
    pub fn load_metric_state(&self, _dir: impl AsRef<Path>) {}

    /// Validates and commits one batch of node-lifecycle events on an
    /// in-flight stream, creating the stream if it does not exist yet — the
    /// in-memory half of `POST /runs/stream`.
    ///
    /// The batch is atomic: every event is applied to a *clone* of the
    /// stream's builder, and the clone replaces the original only if all of
    /// them are accepted **and** the stream has not advanced in the meantime
    /// (otherwise [`ServiceError::StreamRace`], and nothing changed).  The
    /// returned [`StreamBatchOutcome`] carries the prior state so a caller
    /// whose durability step fails can [`DiffService::undo_stream_batch`].
    pub fn stream_events(
        &self,
        spec: &str,
        stream: &str,
        events: &[StreamEvent],
    ) -> Result<StreamBatchOutcome, ServiceError> {
        let spec_arc =
            self.store.spec(spec).ok_or_else(|| ServiceError::UnknownSpec(spec.to_string()))?;
        let run_exists = self.store.run(spec, stream).is_some();
        let key = (spec.to_string(), stream.to_string());
        let prior = self.streams.read().get(&key).cloned();
        let mut next = match &prior {
            Some(p) => {
                if p.spec().fingerprint() != spec_arc.fingerprint() {
                    return Err(ServiceError::InvalidQuery(format!(
                        "stream {stream:?} was opened against a replaced version of \
                         specification {spec:?}; remove it and start over"
                    )));
                }
                p.clone()
            }
            None => {
                if run_exists {
                    return Err(ServiceError::InvalidQuery(format!(
                        "stream name {stream:?} already names a stored run of \
                         specification {spec:?}"
                    )));
                }
                PartialRun::new(Arc::clone(&spec_arc))
            }
        };
        let base_seq = next.applied();
        for event in events {
            next.apply(event).map_err(ServiceError::Stream)?;
        }
        let ack = StreamAck {
            base_seq,
            seq: next.applied(),
            nodes: next.node_count(),
            completed_leaves: next.profile().completed_leaves(),
            complete: next.is_complete(),
        };
        {
            let mut streams = self.streams.write();
            let current = streams.get(&key).map(|p| p.applied()).unwrap_or(0);
            if current != base_seq {
                return Err(ServiceError::StreamRace {
                    spec: spec.to_string(),
                    stream: stream.to_string(),
                });
            }
            streams.insert(key, next);
        }
        Ok(StreamBatchOutcome { ack, prior })
    }

    /// Rolls the registry back to the state before a
    /// [`DiffService::stream_events`] batch — used when appending the batch
    /// to the write-ahead log failed, so memory never runs ahead of disk.
    /// A no-op if the stream has advanced past the batch in the meantime.
    pub fn undo_stream_batch(&self, spec: &str, stream: &str, outcome: StreamBatchOutcome) {
        let key = (spec.to_string(), stream.to_string());
        let mut streams = self.streams.write();
        if streams.get(&key).map(|p| p.applied()) != Some(outcome.ack.seq) {
            return;
        }
        match outcome.prior {
            Some(p) => {
                streams.insert(key, p);
            }
            None => {
                streams.remove(&key);
            }
        }
    }

    /// Materialises a completed in-flight stream as a fully validated run
    /// (without touching the store or the registry), returning the run and
    /// the stream's event count.  [`ServiceError::Stream`] with
    /// [`StreamError::Incomplete`] while instances are active or failed.
    pub fn finalize_stream(&self, spec: &str, stream: &str) -> Result<(Run, u64), ServiceError> {
        let key = (spec.to_string(), stream.to_string());
        let partial = self.streams.read().get(&key).cloned().ok_or_else(|| {
            ServiceError::UnknownStream { spec: spec.to_string(), stream: stream.to_string() }
        })?;
        let run = partial.finalize().map_err(ServiceError::Stream)?;
        Ok((run, partial.applied()))
    }

    /// Drops an in-flight stream from the registry (the final step of
    /// finalisation, and the operator remedy for stuck streams).  Returns
    /// `true` if the stream existed.
    pub fn remove_stream(&self, spec: &str, stream: &str) -> bool {
        self.streams.write().remove(&(spec.to_string(), stream.to_string())).is_some()
    }

    /// Names of the in-flight streams of one specification, sorted.
    pub fn stream_names(&self, spec: &str) -> Vec<String> {
        self.streams
            .read()
            .keys()
            .filter(|(s, _)| s == spec)
            .map(|(_, stream)| stream.clone())
            .collect()
    }

    /// The event count of an in-flight stream, if it exists.
    pub fn stream_seq(&self, spec: &str, stream: &str) -> Option<u64> {
        self.streams.read().get(&(spec.to_string(), stream.to_string())).map(|p| p.applied())
    }

    /// The service's drift monitor over its in-flight streams.
    pub fn drift_monitor(&self) -> DriftMonitor<'_> {
        DriftMonitor { service: self }
    }

    /// Shorthand for [`DriftMonitor::report`].
    pub fn drift_report(&self, spec: &str, stream: &str) -> Result<DriftReport, ServiceError> {
        self.drift_monitor().report(spec, stream)
    }

    /// Rebuilds the in-flight stream registry from `dir`'s write-ahead log —
    /// the streaming companion of
    /// [`WorkflowStore::load_from_dir`](crate::store::WorkflowStore::load_from_dir),
    /// called once at boot after the store itself is loaded.
    ///
    /// Kind-5 records are grouped per `(spec, stream)` in append order.  A
    /// closure marker drops its group; so does a stored run of the stream's
    /// name (the crash window between a finalised run's insert record and
    /// its closure marker).  A group whose specification is gone, whose
    /// recorded version is not the directory's current version, or whose
    /// events no longer apply cleanly is skipped — never an error.
    pub fn load_streams(&self, dir: impl AsRef<Path>) -> Result<StreamLoadReport, PersistError> {
        let dir = dir.as_ref();
        let mut report = StreamLoadReport::default();
        let mut rebuilt: Vec<((String, String), PartialRun)> = Vec::new();
        {
            let _guard = self.store.save_lock.lock();
            let scan = wal::scan(dir)?;
            let mut groups: Vec<((String, String), Vec<wal::StreamEventRecord>)> = Vec::new();
            for record in scan.records {
                let wal::WalRecord::StreamEvent(r) = record else { continue };
                let key = (r.spec.clone(), r.stream.clone());
                if r.event.is_none() {
                    let before = groups.len();
                    groups.retain(|(k, _)| *k != key);
                    report.closed += before - groups.len();
                } else if let Some((_, group)) = groups.iter_mut().find(|(k, _)| *k == key) {
                    group.push(r);
                } else {
                    groups.push((key, vec![r]));
                }
            }
            for ((spec_name, stream_name), records) in groups {
                let Some(spec_arc) = self.store.spec(&spec_name) else {
                    report.skipped += 1;
                    continue;
                };
                let Ok(fp_hex) = self.store.persistent_fp_for_append(dir, &spec_arc) else {
                    report.skipped += 1;
                    continue;
                };
                if records.iter().any(|r| r.spec_fingerprint != fp_hex) {
                    report.skipped += 1;
                    continue;
                }
                if self.store.run(&spec_name, &stream_name).is_some() {
                    report.closed += 1;
                    continue;
                }
                let mut partial = PartialRun::new(Arc::clone(&spec_arc));
                let replays_cleanly = records.iter().all(|r| {
                    r.seq == partial.applied()
                        && r.event.as_ref().is_some_and(|event| partial.apply(event).is_ok())
                });
                if replays_cleanly {
                    rebuilt.push(((spec_name, stream_name), partial));
                    report.loaded += 1;
                } else {
                    report.skipped += 1;
                }
            }
        }
        if !rebuilt.is_empty() {
            let mut streams = self.streams.write();
            for (key, partial) in rebuilt {
                streams.insert(key, partial);
            }
        }
        Ok(report)
    }

    /// Runs `work` over `jobs` on the scoped worker pool, preserving job
    /// order in the result.  The first differencing error wins.
    fn run_jobs<J: Sync, T: Send>(
        &self,
        jobs: &[J],
        work: impl Fn(&J) -> Result<T, DiffError> + Sync,
    ) -> Result<Vec<T>, ServiceError> {
        let workers = self.threads.min(jobs.len()).max(1);
        if workers == 1 {
            return jobs.iter().map(|j| work(j).map_err(ServiceError::from)).collect();
        }
        let next = AtomicUsize::new(0);
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out: Vec<(usize, Result<T, DiffError>)> = Vec::new();
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            if k >= jobs.len() {
                                break;
                            }
                            out.push((k, work(&jobs[k])));
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("diff workers do not panic")).collect()
        });
        let mut ordered: Vec<Option<T>> = (0..jobs.len()).map(|_| None).collect();
        for (k, result) in results {
            ordered[k] = Some(result.map_err(ServiceError::from)?);
        }
        Ok(ordered
            .into_iter()
            .map(|d| d.expect("every job index was claimed exactly once"))
            .collect())
    }
}

/// The [`DistanceOracle`] the cluster index runs on: one consistent store
/// lookup per batch, parallel cache-backed preparation, and a
/// [`WorkflowDiff::distance_row_prepared`] row — so a clustering fetch is
/// exactly as warm as regular diff traffic.
struct ServiceOracle<'a> {
    service: &'a DiffService,
    spec: &'a str,
}

/// Live drift detection over the service's in-flight streams.
///
/// For each cluster of the specification's maintained k-medoids clustering,
/// the monitor compares the cluster's **radius** (largest exact distance
/// from the medoid to a member, computed through the same cache-backed
/// oracle the cluster index uses) against the **certified lower bound**
/// [`WorkflowDiff::prefix_distance`] gives on the distance between any
/// completion of the stream and the medoid.  When the bound exceeds the
/// radius for *every* cluster, no completion of the run can land inside any
/// known cluster — the run has drifted, provably, while still executing.
///
/// The monitor never triggers a re-clustering itself: with no snapshot for
/// the specification the report carries zero clusters and `drifted: false`
/// (call [`DiffService::cluster_medoids`] first to build one).
pub struct DriftMonitor<'a> {
    service: &'a DiffService,
}

impl DriftMonitor<'_> {
    /// The drift verdict for one in-flight stream.
    pub fn report(&self, spec: &str, stream: &str) -> Result<DriftReport, ServiceError> {
        let service = self.service;
        let key = (spec.to_string(), stream.to_string());
        let partial = service.streams.read().get(&key).cloned().ok_or_else(|| {
            ServiceError::UnknownStream { spec: spec.to_string(), stream: stream.to_string() }
        })?;
        let spec_arc =
            service.store.spec(spec).ok_or_else(|| ServiceError::UnknownSpec(spec.to_string()))?;
        let mut report = DriftReport {
            spec: spec.to_string(),
            stream: stream.to_string(),
            events: partial.applied(),
            nodes: partial.node_count(),
            completed_leaves: partial.profile().completed_leaves(),
            clusters: Vec::new(),
            drifted: false,
        };
        let Some(snapshot) = service.clusters.snapshot(spec) else {
            return Ok(report);
        };
        let engine = WorkflowDiff::new(&spec_arc, service.cost.as_ref());
        let cache = service.cache.as_ref();
        let oracle = ServiceOracle { service, spec };
        for cluster in &snapshot.clusters {
            let members: Vec<&str> =
                cluster.runs.iter().filter(|r| **r != cluster.medoid).map(|r| r.as_str()).collect();
            let radius = if members.is_empty() {
                0.0
            } else {
                oracle.distances(&cluster.medoid, &members)?.into_iter().fold(0.0, f64::max)
            };
            let medoid_run = service.store.run(spec, &cluster.medoid).ok_or_else(|| {
                ServiceError::UnknownRun { spec: spec.to_string(), run: cluster.medoid.clone() }
            })?;
            let prepared = engine.prepare(&medoid_run, Some(cache))?;
            let lower_bound =
                engine.prefix_distance(partial.profile(), None, &prepared, Some(cache))?;
            report.clusters.push(DriftClusterStatus {
                medoid: cluster.medoid.clone(),
                size: cluster.runs.len(),
                radius,
                lower_bound,
                exceeds: lower_bound > radius,
            });
        }
        report.drifted = !report.clusters.is_empty() && report.clusters.iter().all(|c| c.exceeds);
        Ok(report)
    }
}

impl DistanceOracle for ServiceOracle<'_> {
    type Error = ServiceError;

    fn distances(&self, source: &str, targets: &[&str]) -> Result<Vec<f64>, ServiceError> {
        let mut names: Vec<&str> = Vec::with_capacity(targets.len() + 1);
        names.push(source);
        names.extend_from_slice(targets);
        let (spec_arc, runs) = self.service.lookup(self.spec, &names)?;
        let engine = WorkflowDiff::new(&spec_arc, self.service.cost.as_ref());
        let cache = self.service.cache.as_ref();
        let run_refs: Vec<&Arc<Run>> = runs.iter().collect();
        let prepared = self.service.run_jobs(&run_refs, |r| engine.prepare(r, Some(cache)))?;
        let target_refs: Vec<&PreparedRun<'_>> = prepared[1..].iter().collect();
        engine
            .distance_row_prepared(&prepared[0], &target_refs, Some(cache))
            .map_err(ServiceError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::DEFAULT_CLUSTER_SEED;
    use wfdiff_core::LengthCost;
    use wfdiff_sptree::SpecificationBuilder;
    use wfdiff_workloads::figures::{fig2_run1, fig2_run2, fig2_run3, fig2_specification};

    fn seeded_store() -> Arc<WorkflowStore> {
        let store = Arc::new(WorkflowStore::new());
        let spec = store.insert_spec(fig2_specification()).unwrap();
        store.insert_run("r1", fig2_run1(&spec)).unwrap();
        store.insert_run("r2", fig2_run2(&spec)).unwrap();
        store.insert_run("r3", fig2_run3(&spec)).unwrap();
        store
    }

    #[test]
    fn single_diff_matches_the_plain_engine() {
        let store = seeded_store();
        let service = DiffService::new(Arc::clone(&store));
        let got = service.diff("fig2", "r1", "r2").unwrap();
        assert_eq!(got.distance, 4.0);
        let err = service.diff("fig2", "r1", "nope").unwrap_err();
        assert!(matches!(err, ServiceError::UnknownRun { .. }));
        let err = service.diff("nope", "r1", "r2").unwrap_err();
        assert!(matches!(err, ServiceError::UnknownSpec(_)));
    }

    #[test]
    fn all_pairs_matches_pairwise_fresh_engines_and_hits_cache_when_warm() {
        let store = seeded_store();
        let service = DiffService::builder(Arc::clone(&store)).threads(4).build();
        let cold = service.diff_all_pairs("fig2").unwrap();
        assert_eq!(cold.runs, vec!["r1", "r2", "r3"]);
        // Distances are identical to the unmemoised engine.
        let spec = store.spec("fig2").unwrap();
        let engine = WorkflowDiff::new(&spec, &UnitCost);
        for (a, b, d) in cold.pairs() {
            let r1 = store.run("fig2", a).unwrap();
            let r2 = store.run("fig2", b).unwrap();
            assert_eq!(d, engine.distance(&r1, &r2).unwrap(), "{a} vs {b}");
        }
        // Matrix is symmetric with a zero diagonal.
        for i in 0..3 {
            assert_eq!(cold.matrix[i][i], 0.0);
            for j in 0..3 {
                assert_eq!(cold.matrix[i][j], cold.matrix[j][i]);
            }
        }
        // A warm repeat answers every pair from the cache: hits grow, misses
        // do not.
        let after_cold = service.cache_stats();
        let warm = service.diff_all_pairs("fig2").unwrap();
        let after_warm = service.cache_stats();
        assert_eq!(warm, cold);
        assert_eq!(after_warm.misses, after_cold.misses);
        assert!(after_warm.hits > after_cold.hits);
    }

    #[test]
    fn warm_start_primes_the_cache_for_the_first_query() {
        let store = seeded_store();
        // Cold reference service for the expected distances.
        let cold = DiffService::new(Arc::clone(&store)).diff_all_pairs("fig2").unwrap();

        let service = DiffService::builder(Arc::clone(&store)).threads(2).build();
        let report = service.warm_start().unwrap();
        assert_eq!(report, WarmStartReport { specs: 1, runs: 3 });
        let after_warm = service.cache_stats();

        // The first query after a warm start prepares nothing new: every
        // per-subtree deletion table is already resident, so cache misses do
        // not grow during preparation (only the pair DP may add entries).
        let first = service.diff_all_pairs("fig2").unwrap();
        assert_eq!(first.matrix, cold.matrix);
        assert!(service.cache_stats().hits > after_warm.hits);

        // Warming an already-warm service is a no-op that only adds hits.
        let again = service.warm_start().unwrap();
        assert_eq!(again, report);
    }

    #[test]
    fn diff_batch_is_index_aligned_and_parallel_safe() {
        let store = seeded_store();
        let service = DiffService::builder(Arc::clone(&store)).threads(3).build();
        let pairs = vec![
            ("r1".to_string(), "r2".to_string()),
            ("r2".to_string(), "r1".to_string()),
            ("r1".to_string(), "r1".to_string()),
            ("r2".to_string(), "r3".to_string()),
        ];
        let out = service.diff_batch("fig2", &pairs).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].distance, 4.0);
        assert_eq!(out[1].distance, 4.0, "distance is symmetric");
        assert_eq!(out[2].distance, 0.0);
        assert_eq!(out[0].source, "r1");
        assert_eq!(out[3].target, "r3");
    }

    #[test]
    fn sessions_and_custom_cost_models_work_through_the_service() {
        let store = seeded_store();
        let service =
            DiffService::builder(Arc::clone(&store)).cost(Arc::new(LengthCost)).threads(2).build();
        let mut session = service.session("fig2", "r1", "r2").unwrap();
        assert!(session.distance() > 0.0);
        let total_steps = session.total_steps();
        let mut seen = 0;
        while session.step().is_some() {
            seen += 1;
        }
        assert_eq!(seen, total_steps);
        // The session distance agrees with the service's cost-only path.
        let d = service.diff("fig2", "r1", "r2").unwrap().distance;
        assert_eq!(session.distance(), d);
    }

    #[test]
    fn nearest_runs_are_exact_and_sorted() {
        let store = seeded_store();
        let service = DiffService::builder(Arc::clone(&store)).threads(2).build();
        let nearest = service.nearest_runs("fig2", "r1", 10).unwrap();
        assert_eq!(nearest.len(), 2, "k clamps to the other stored runs");
        assert!(nearest[0].distance <= nearest[1].distance);
        // Every reported distance is identical to the unmemoised engine.
        let spec = store.spec("fig2").unwrap();
        let engine = WorkflowDiff::new(&spec, &UnitCost);
        let query = store.run("fig2", "r1").unwrap();
        for p in &nearest {
            let expected = engine.distance(&query, &store.run("fig2", &p.target).unwrap()).unwrap();
            assert_eq!(p.distance, expected, "r1 vs {}", p.target);
        }
        assert!(matches!(
            service.nearest_runs("fig2", "r1", 0),
            Err(ServiceError::InvalidQuery(_))
        ));
        assert!(matches!(
            service.nearest_runs("fig2", "zz", 1),
            Err(ServiceError::UnknownRun { .. })
        ));
        assert!(matches!(service.nearest_runs("zz", "r1", 1), Err(ServiceError::UnknownSpec(_))));
    }

    #[test]
    fn cluster_index_follows_store_mutations() {
        let store = seeded_store();
        let service = DiffService::builder(Arc::clone(&store)).threads(2).build();
        let initial = service.cluster_medoids("fig2", 2, 1).unwrap();
        assert_eq!(initial.clusters.len(), 2);

        // Stream a duplicate of r1 in and a run out; the maintained state
        // must equal what a fresh service computes from scratch.
        let spec = store.spec("fig2").unwrap();
        store.insert_run("r4", fig2_run1(&spec)).unwrap();
        service.notify_run_inserted("fig2", "r4");
        store.remove_run("fig2", "r2");
        service.notify_run_removed("fig2", "r2");

        let maintained = service.cluster_index().snapshot("fig2").unwrap();
        let members: usize = maintained.clusters.iter().map(|c| c.runs.len()).sum();
        assert_eq!(members, 3);
        assert!(maintained.cluster_of("r2").is_none());
        let scratch = DiffService::new(Arc::clone(&store)).cluster_medoids("fig2", 2, 1).unwrap();
        assert_eq!(maintained.partition(), scratch.partition());
        // r4 is a copy of r1: they always share a cluster.
        assert_eq!(maintained.cluster_of("r4"), maintained.cluster_of("r1"));

        assert!(matches!(
            service.cluster_medoids("fig2", 0, 1),
            Err(ServiceError::InvalidQuery(_))
        ));
        assert!(matches!(service.cluster_medoids("zz", 2, 1), Err(ServiceError::UnknownSpec(_))));
    }

    #[test]
    fn concurrent_diffs_inserts_and_removals_are_safe_and_unstale() {
        // Two specifications under distinct names; one is repeatedly
        // replaced (runs invalidated) while diff traffic runs against the
        // other.  No stale runs may survive a replace, and diffs must keep
        // returning the same distances throughout.
        let store = Arc::new(WorkflowStore::new());
        let stable = store.insert_spec(fig2_specification()).unwrap();
        store.insert_run("r1", fig2_run1(&stable)).unwrap();
        store.insert_run("r2", fig2_run2(&stable)).unwrap();
        let service = Arc::new(DiffService::builder(Arc::clone(&store)).threads(2).build());

        let churn_spec = || {
            let mut b = SpecificationBuilder::new("churn");
            b.path(&["a", "b", "c"]);
            b.build().unwrap()
        };
        let churn_spec_v2 = || {
            let mut b = SpecificationBuilder::new("churn");
            b.path(&["a", "b", "c", "d"]);
            b.build().unwrap()
        };

        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..100 {
                    let spec = if i % 2 == 0 { churn_spec() } else { churn_spec_v2() };
                    let (arc, _invalidated) = store.replace_spec(spec);
                    // Runs inserted now belong to the current version.
                    let run = arc.execute(&mut wfdiff_sptree::FullDecider).unwrap();
                    store.insert_run("only", run).unwrap();
                }
                store.remove_spec("churn");
            })
        };
        let differs: Vec<_> = (0..3)
            .map(|_| {
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    for _ in 0..30 {
                        let d = service.diff("fig2", "r1", "r2").unwrap().distance;
                        assert_eq!(d, 4.0);
                        // The churn spec may or may not exist; when a snapshot
                        // resolves, every run in it must belong to the exact
                        // stored version (origins in range), which
                        // diff_all_pairs exercises end to end.
                        match service.diff_all_pairs("churn") {
                            Ok(result) => {
                                for (_, _, d) in result.pairs() {
                                    assert!(d >= 0.0);
                                }
                            }
                            Err(ServiceError::UnknownSpec(_)) => {}
                            Err(ServiceError::UnknownRun { .. }) => {}
                            Err(ServiceError::InvalidQuery(_)) => {}
                            Err(ServiceError::Diff(e)) => {
                                panic!("stale spec/run pairing reached the engine: {e}")
                            }
                            Err(
                                e @ (ServiceError::Stream(_)
                                | ServiceError::UnknownStream { .. }
                                | ServiceError::StreamRace { .. }),
                            ) => {
                                panic!("streaming error from a non-streaming query: {e}")
                            }
                        }
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for d in differs {
            d.join().unwrap();
        }
    }

    /// Events for fig2's single-branch run `1 -> 2 -> branch -> 6 -> 7`.
    fn branch_events(branch: &str) -> Vec<StreamEvent> {
        let labels = ["1", "2", branch, "6", "7"];
        let mut events = Vec::new();
        for (i, label) in labels.iter().enumerate() {
            let preds = if i == 0 { vec![] } else { vec![i - 1] };
            events.push(StreamEvent::started(i, *label, preds));
            events.push(StreamEvent::completed(i));
        }
        events
    }

    #[test]
    fn streamed_finalize_equals_a_whole_insert() {
        let store = seeded_store();
        let service = DiffService::new(Arc::clone(&store));
        let events = branch_events("3");
        // Two batches, acknowledged with contiguous sequence numbers.
        let first = service.stream_events("fig2", "s1", &events[..5]).unwrap();
        assert_eq!((first.ack.base_seq, first.ack.seq), (0, 5));
        assert!(!first.ack.complete);
        let second = service.stream_events("fig2", "s1", &events[5..]).unwrap();
        assert_eq!((second.ack.base_seq, second.ack.seq), (5, 10));
        assert!(second.ack.complete);
        let (run, seq) = service.finalize_stream("fig2", "s1").unwrap();
        assert_eq!(seq, 10);
        store.insert_run_new("s1", run).unwrap();
        assert!(service.remove_stream("fig2", "s1"));
        // The materialised run is indistinguishable from the same run built
        // whole: distance zero to an identical direct construction.
        let mut p = PartialRun::new(store.spec("fig2").unwrap());
        for e in &events {
            p.apply(e).unwrap();
        }
        let direct = p.finalize().unwrap();
        let stored = store.run("fig2", "s1").unwrap();
        let spec = store.spec("fig2").unwrap();
        let engine = WorkflowDiff::new(&spec, &UnitCost);
        assert_eq!(engine.distance(&stored, &direct).unwrap(), 0.0);
    }

    #[test]
    fn drift_report_flags_streams_outside_every_cluster_radius() {
        // A store holding only r1, clustered with k=1: the single cluster's
        // radius is 0, so any stream with a certain surplus leaf drifts.
        let store = Arc::new(WorkflowStore::new());
        let spec = store.insert_spec(fig2_specification()).unwrap();
        store.insert_run("r1", fig2_run1(&spec)).unwrap();
        let service = DiffService::new(Arc::clone(&store));
        service.cluster_medoids("fig2", 1, DEFAULT_CLUSTER_SEED).unwrap();

        // Before any clustering-relevant events: a branch-3 stream stays
        // within r1 (its leaf exists in the medoid), so the bound is 0.
        service.stream_events("fig2", "near", &branch_events("3")).unwrap();
        let near = service.drift_report("fig2", "near").unwrap();
        assert_eq!(near.clusters.len(), 1);
        assert_eq!(near.clusters[0].radius, 0.0, "singleton cluster");
        assert_eq!(near.clusters[0].lower_bound, 0.0);
        assert!(!near.drifted);

        // A branch-5 stream holds a leaf r1 does not: the certified bound
        // is positive, exceeds the zero radius, and the stream drifts.
        service.stream_events("fig2", "far", &branch_events("5")).unwrap();
        let far = service.drift_report("fig2", "far").unwrap();
        assert!(far.clusters[0].lower_bound > 0.0);
        assert!(far.clusters[0].exceeds);
        assert!(far.drifted);
        // The bound never overshoots the exact distance of the completion.
        let (run, _) = service.finalize_stream("fig2", "far").unwrap();
        let exact = {
            let engine = WorkflowDiff::new(&spec, &UnitCost);
            let r1 = store.run("fig2", "r1").unwrap();
            engine.distance(&run, &r1).unwrap()
        };
        assert!(far.clusters[0].lower_bound <= exact);
    }

    #[test]
    fn drift_report_is_empty_without_clustering_state() {
        let store = seeded_store();
        let service = DiffService::new(Arc::clone(&store));
        service.stream_events("fig2", "s1", &branch_events("3")[..2]).unwrap();
        let report = service.drift_report("fig2", "s1").unwrap();
        assert!(report.clusters.is_empty());
        assert!(!report.drifted, "no clusters means no drift verdict");
        assert_eq!(report.events, 2);
    }

    #[test]
    fn stream_batches_are_atomic_and_undo_restores_the_prior_state() {
        let store = seeded_store();
        let service = DiffService::new(Arc::clone(&store));
        let events = branch_events("3");
        // A batch with a bad tail leaves no trace — not even the stream.
        let mut bad = events[..2].to_vec();
        bad.push(StreamEvent::completed(9));
        let err = service.stream_events("fig2", "s1", &bad).unwrap_err();
        assert!(matches!(err, ServiceError::Stream(StreamError::UnknownNode { .. })));
        assert!(service.stream_seq("fig2", "s1").is_none());

        // Undoing a committed batch restores exactly the prior state.
        let first = service.stream_events("fig2", "s1", &events[..2]).unwrap();
        service.undo_stream_batch("fig2", "s1", first);
        assert!(service.stream_seq("fig2", "s1").is_none(), "prior state was absent");
        let first = service.stream_events("fig2", "s1", &events[..2]).unwrap();
        let second = service.stream_events("fig2", "s1", &events[2..4]).unwrap();
        service.undo_stream_batch("fig2", "s1", second);
        assert_eq!(service.stream_seq("fig2", "s1"), Some(2));
        // A stale undo (the stream advanced past the batch) is a no-op.
        let stale = first;
        service.stream_events("fig2", "s1", &events[2..4]).unwrap();
        service.undo_stream_batch("fig2", "s1", stale);
        assert_eq!(service.stream_seq("fig2", "s1"), Some(4));
    }

    #[test]
    fn stream_registry_guards_names_versions_and_unknown_streams() {
        let store = seeded_store();
        let service = DiffService::new(Arc::clone(&store));
        // A stream may not shadow a stored run.
        let err = service.stream_events("fig2", "r1", &[]).unwrap_err();
        assert!(matches!(err, ServiceError::InvalidQuery(_)));
        // Unknown streams are typed errors, not panics.
        assert!(matches!(
            service.finalize_stream("fig2", "nope").unwrap_err(),
            ServiceError::UnknownStream { .. }
        ));
        assert!(matches!(
            service.drift_report("fig2", "nope").unwrap_err(),
            ServiceError::UnknownStream { .. }
        ));
        assert!(!service.remove_stream("fig2", "nope"));
        // Unknown specs fail before the registry is touched.
        assert!(matches!(
            service.stream_events("zz", "s1", &[]).unwrap_err(),
            ServiceError::UnknownSpec(_)
        ));
        // stream_names lists only the spec's own streams, sorted.
        service.stream_events("fig2", "b", &[]).unwrap();
        service.stream_events("fig2", "a", &[]).unwrap();
        assert_eq!(service.stream_names("fig2"), vec!["a", "b"]);
        assert!(service.stream_names("other").is_empty());
        // A replaced spec invalidates its streams.
        let (new_spec, _) = store.replace_spec(fig2_specification());
        assert_eq!(new_spec.fingerprint(), store.spec("fig2").unwrap().fingerprint());
        let mut b = SpecificationBuilder::new("fig2");
        b.path(&["1", "2", "3"]);
        store.replace_spec(b.build().unwrap());
        let err = service.stream_events("fig2", "a", &[]).unwrap_err();
        assert!(matches!(err, ServiceError::InvalidQuery(_)), "version mismatch is typed");
    }
}
