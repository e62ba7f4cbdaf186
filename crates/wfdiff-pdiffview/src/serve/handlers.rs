//! Endpoint implementations: routing a parsed [`Request`] onto the sharded
//! [`DiffService`]/[`WorkflowStore`](crate::store::WorkflowStore) stack and
//! rendering responses.
//!
//! Handlers never panic on client input: every failure is an [`ApiError`]
//! carrying the HTTP status, and [`dispatch`] converts both outcomes into a
//! [`Response`] for the worker to render.  Endpoints that address one
//! specification resolve their shard through the [`ShardRouter`];
//! `/healthz` and `/specs` aggregate across every shard, and `/metrics`
//! renders the server's [`ServeMetrics`] registry as Prometheus text.

use super::api::*;
use super::http::Request;
use super::metrics::ServeMetrics;
use super::shard::{ShardEntry, ShardRouter};
use crate::cluster::{ClusterDiff, Clustering, DEFAULT_CLUSTER_SEED};
use crate::service::{DiffService, DriftReport};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Ceiling on the number of pairs a single `POST /diff/batch` may request;
/// larger batches are rejected with `400` so one request cannot monopolise
/// the worker pool.
pub const MAX_BATCH_PAIRS: usize = 4096;

/// Default neighbour count of `GET /similar` when `k` is omitted.
pub const DEFAULT_SIMILAR_K: usize = 5;

/// The `Content-Type` of `GET /metrics` responses.
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Everything a handler needs: the shard router (each shard owns a diff
/// service, and through it a store, plus optionally a durable directory)
/// and the metrics registry.
pub struct AppState {
    router: ShardRouter,
    metrics: Arc<ServeMetrics>,
}

impl AppState {
    /// Builds the state over a shard router, creating a metrics registry
    /// sized to it.
    pub fn new(router: ShardRouter) -> Self {
        let metrics = Arc::new(ServeMetrics::new(router.len()));
        AppState { router, metrics }
    }

    /// Single-shard state — the unsharded server.
    pub fn single(service: Arc<DiffService>, store_dir: Option<PathBuf>) -> Self {
        AppState::new(ShardRouter::single(service, store_dir))
    }

    /// The shard router.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// Resolves the shard for a spec name, counting the routing decision.
    fn shard(&self, spec: &str) -> &ShardEntry {
        let i = self.router.shard_index(spec);
        self.metrics.observe_shard_request(i);
        &self.router.shards()[i]
    }
}

/// A rendered handler outcome: status, content type and body bytes-to-be.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// The response body.
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response { status, content_type: "application/json", body }
    }
}

/// Top-level dispatch: `GET /metrics` renders Prometheus text, everything
/// else goes through the JSON [`route`] table.
pub fn dispatch(state: &AppState, req: &Request) -> Response {
    let segments: Vec<&str> = req.segments.iter().map(String::as_str).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["metrics"]) => Response {
            status: 200,
            content_type: METRICS_CONTENT_TYPE,
            body: state.metrics.render(&state.router),
        },
        (_, ["metrics"]) => {
            let e = ApiError::method_not_allowed(&req.method, &req.raw_path);
            Response::json(e.status, e.body())
        }
        _ => {
            let (status, body) = route(state, req);
            Response::json(status, body)
        }
    }
}

/// Dispatches a request to its JSON handler and renders the outcome as
/// `(status, JSON body)`.  Unknown paths get `404`, known paths with the
/// wrong method get `405`.
pub fn route(state: &AppState, req: &Request) -> (u16, String) {
    let segments: Vec<&str> = req.segments.iter().map(String::as_str).collect();
    let result = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => healthz(state),
        ("GET", ["specs"]) => specs(state),
        ("GET", ["specs", name, "runs"]) => spec_runs(state, name),
        ("POST", ["runs"]) => insert_run(state, req),
        ("POST", ["runs", "stream"]) => stream_events(state, req),
        ("GET", ["runs", spec, stream, "drift"]) => drift(state, req, spec, stream),
        ("DELETE", ["runs", spec, stream, "stream"]) => close_stream(state, spec, stream),
        ("GET", ["diff"]) => diff(state, req),
        ("POST", ["diff", "batch"]) => diff_batch(state, req),
        ("GET", ["cluster"]) => cluster(state, req),
        ("GET", ["similar"]) => similar(state, req),
        // Known endpoints hit with the wrong method.
        (_, ["healthz" | "specs" | "diff" | "cluster" | "similar"])
        | (_, ["specs", _, "runs"])
        | (_, ["runs"])
        | (_, ["runs", "stream"])
        | (_, ["runs", _, _, "drift" | "stream"])
        | (_, ["diff", "batch"]) => Err(ApiError::method_not_allowed(&req.method, &req.raw_path)),
        _ => Err(ApiError::not_found(format!("no endpoint at {:?}", req.raw_path))),
    };
    match result {
        Ok((status, body)) => (status, body),
        Err(e) => (e.status, e.body()),
    }
}

fn json<T: serde::Serialize>(status: u16, value: &T) -> Result<(u16, String), ApiError> {
    serde_json::to_string(value)
        .map(|body| (status, body))
        .map_err(|e| ApiError::new(500, "serialisation_failed", e.to_string()))
}

/// `GET /healthz`: totals aggregated across every shard, plus the per-shard
/// breakdown.
fn healthz(state: &AppState) -> Result<(u16, String), ApiError> {
    let mut shards = Vec::with_capacity(state.router.len());
    let mut threads = 0;
    for (i, shard) in state.router.shards().iter().enumerate() {
        let store = shard.service().store();
        threads += shard.service().threads();
        shards.push(ShardHealth {
            shard: i,
            specs: store.spec_names().len(),
            runs: store.run_count(),
        });
    }
    json(
        200,
        &HealthResponse {
            status: "ok".to_string(),
            specs: shards.iter().map(|s| s.specs).sum(),
            runs: shards.iter().map(|s| s.runs).sum(),
            threads,
            shards,
        },
    )
}

/// `GET /specs`: the listings of every shard merged and sorted by name, so
/// clients see one store regardless of the shard count.
fn specs(state: &AppState) -> Result<(u16, String), ApiError> {
    let mut specs: Vec<SpecEntry> = Vec::new();
    for shard in state.router.shards() {
        let snapshot = shard.service().store().snapshot_all();
        specs.extend(snapshot.iter().map(|(name, (spec, runs))| SpecEntry {
            name: name.clone(),
            fingerprint: spec.fingerprint().to_string(),
            runs: runs.len(),
        }));
    }
    specs.sort_by(|a, b| a.name.cmp(&b.name));
    json(200, &SpecsResponse { specs })
}

fn spec_runs(state: &AppState, name: &str) -> Result<(u16, String), ApiError> {
    let (_, runs) = state.shard(name).service().store().snapshot(name).ok_or_else(|| {
        ApiError::new(404, "unknown_spec", format!("unknown specification {name:?}"))
    })?;
    json(
        200,
        &RunsResponse { spec: name.to_string(), runs: runs.into_iter().map(|(n, _)| n).collect() },
    )
}

/// `POST /runs`: validate the descriptor against the stored specification,
/// publish the run in its shard's store and (when that shard owns a store
/// directory) append it durably.
///
/// A name that is already stored is refused with `409` (the insert is
/// **create-only** — atomically, via [`WorkflowStore::insert_run_new`], so
/// concurrent same-name posts cannot clobber each other).  The store insert
/// happens first — it is the authoritative version check — and a failed
/// durable append rolls back exactly the run this request created, so a
/// `500` response never leaves the run half-committed and never destroys
/// previously committed state.
///
/// [`WorkflowStore::insert_run_new`]: crate::store::WorkflowStore::insert_run_new
fn insert_run(state: &AppState, req: &Request) -> Result<(u16, String), ApiError> {
    let body: InsertRunRequest = parse_body(&req.body)?;
    let spec_name = body.run.spec.clone();
    let shard = state.shard(&spec_name);
    let service = shard.service();
    let store = Arc::clone(service.store());
    let spec = store.spec(&spec_name).ok_or_else(|| {
        ApiError::new(404, "unknown_spec", format!("unknown specification {spec_name:?}"))
    })?;
    if !body.spec_fingerprint.is_empty() && body.spec_fingerprint != spec.fingerprint().to_string()
    {
        return Err(ApiError::new(
            409,
            "spec_version_mismatch",
            format!(
                "request asserts specification version {}, but the stored version is {}",
                body.spec_fingerprint,
                spec.fingerprint()
            ),
        ));
    }
    let run = body.run.to_run(&spec)?;
    let run_arc = store.insert_run_new(&body.name, run)?;
    let mut persisted = false;
    if let Some(dir) = shard.dir() {
        if let Err(e) = store.append_run_to_dir(dir, &body.name, &run_arc) {
            store.remove_run(&spec_name, &body.name);
            return Err(e.into());
        }
        persisted = true;
    }
    // Fold the new run into the incremental cluster index and the metric
    // index (each a cheap no-op until a query builds state for this spec;
    // never fails the insert).  The cluster-update histogram times both.
    let started = Instant::now();
    service.notify_run_inserted(&spec_name, &body.name);
    state.metrics.observe_cluster_update(started.elapsed());
    json(201, &InsertRunResponse { spec: spec_name, name: body.name, persisted })
}

fn drift_body(report: DriftReport) -> DriftResponse {
    DriftResponse {
        spec: report.spec,
        stream: report.stream,
        events: report.events,
        nodes: report.nodes,
        completed_leaves: report.completed_leaves,
        clusters: report
            .clusters
            .into_iter()
            .map(|c| DriftClusterEntry {
                medoid: c.medoid,
                size: c.size,
                radius: c.radius,
                lower_bound: c.lower_bound,
                exceeds: c.exceeds,
            })
            .collect(),
        drifted: report.drifted,
    }
}

/// `POST /runs/stream`: append one ordered batch of node-lifecycle events
/// to an in-flight stream (opening it on first use), durably when the shard
/// persists, and report the live drift verdict.
///
/// The batch commits in memory first; if the write-ahead-log append then
/// fails, [`DiffService::undo_stream_batch`] rolls the registry back so
/// memory never runs ahead of disk, and the client sees a clean `500` with
/// nothing half-applied.  With `finalize: true` the completed stream is
/// validated end-to-end and stored as run `stream` through the same
/// create-only insert (and rollback) path as `POST /runs`, then a closure
/// marker retires the stream's WAL records.
fn stream_events(state: &AppState, req: &Request) -> Result<(u16, String), ApiError> {
    let body: StreamEventsRequest = parse_body(&req.body)?;
    let shard = state.shard(&body.spec);
    let service = shard.service();
    let store = Arc::clone(service.store());
    let outcome = service.stream_events(&body.spec, &body.stream, &body.events)?;
    let ack = outcome.ack;
    let mut persisted = false;
    if let Some(dir) = shard.dir() {
        if let Err(e) = store.append_stream_events_to_dir(
            dir,
            &body.spec,
            &body.stream,
            ack.base_seq,
            &body.events,
        ) {
            service.undo_stream_batch(&body.spec, &body.stream, outcome);
            return Err(e.into());
        }
        persisted = true;
    }
    state.metrics.stream_events().add(body.events.len() as u64);
    let mut response = StreamEventsResponse {
        spec: body.spec.clone(),
        stream: body.stream.clone(),
        base_seq: ack.base_seq,
        seq: ack.seq,
        nodes: ack.nodes,
        completed_leaves: ack.completed_leaves,
        complete: ack.complete,
        finalized: false,
        drift: None,
        persisted,
    };
    if body.finalize {
        let (run, seq) = service.finalize_stream(&body.spec, &body.stream)?;
        let run_arc = store.insert_run_new(&body.stream, run)?;
        if let Some(dir) = shard.dir() {
            if let Err(e) = store.append_run_to_dir(dir, &body.stream, &run_arc) {
                store.remove_run(&body.spec, &body.stream);
                return Err(e.into());
            }
            // Best effort: if the closure marker is lost, the boot replay
            // sees the stored run of the same name and drops the group.
            let _ = store.append_stream_close_to_dir(dir, &body.spec, &body.stream, seq);
        }
        service.remove_stream(&body.spec, &body.stream);
        // Same index update, and same histogram, as a whole insert.
        let started = Instant::now();
        service.notify_run_inserted(&body.spec, &body.stream);
        state.metrics.observe_cluster_update(started.elapsed());
        response.finalized = true;
        return json(201, &response);
    }
    let report = service.drift_report(&body.spec, &body.stream)?;
    if report.drifted {
        state.metrics.drift_flags().inc();
    }
    response.drift = Some(drift_body(report));
    json(200, &response)
}

/// `GET /runs/{spec}/{stream}/drift[?k=…[&seed=…]]`: the drift verdict of
/// an in-flight stream against the spec's current clustering.  Passing `k`
/// (and optionally `seed`) refreshes the k-medoids clustering first, so a
/// cold server can be queried in one round trip; without it the verdict
/// uses whatever clustering the incremental index already holds (no
/// clusters → `drifted: false` with an empty verdict list).
fn drift(
    state: &AppState,
    req: &Request,
    spec: &str,
    stream: &str,
) -> Result<(u16, String), ApiError> {
    let k = parse_int_param::<usize>(req, "k")?;
    let seed = parse_int_param::<u64>(req, "seed")?.unwrap_or(DEFAULT_CLUSTER_SEED);
    let service = state.shard(spec).service();
    if let Some(k) = k {
        service.cluster_medoids(spec, k, seed)?;
    }
    let report = service.drift_report(spec, stream)?;
    if report.drifted {
        state.metrics.drift_flags().inc();
    }
    json(200, &drift_body(report))
}

/// `DELETE /runs/{spec}/{stream}/stream`: drop a stuck in-flight stream.
/// The registry entry is removed and, when the shard persists, a closure
/// marker is appended (best effort) so the stream stays gone across
/// restarts.  The operator runbook's remedy for streams whose producer
/// died mid-run.
fn close_stream(state: &AppState, spec: &str, stream: &str) -> Result<(u16, String), ApiError> {
    let shard = state.shard(spec);
    let service = shard.service();
    let seq = service.stream_seq(spec, stream).ok_or_else(|| {
        ApiError::new(
            404,
            "unknown_stream",
            format!("no in-flight stream {stream:?} for specification {spec:?}"),
        )
    })?;
    service.remove_stream(spec, stream);
    let persisted = match shard.dir() {
        Some(dir) => service.store().append_stream_close_to_dir(dir, spec, stream, seq).is_ok(),
        None => false,
    };
    json(
        200,
        &StreamCloseResponse { spec: spec.to_string(), stream: stream.to_string(), seq, persisted },
    )
}

/// `GET /similar?spec=…&run=…&k=…[&pruned=1][&approx=ε]`: the `k` stored
/// runs nearest to `run` by exact edit distance, nearest first.
///
/// `pruned=1` routes the query through the per-spec vantage-point metric
/// index with certified triangle-inequality pruning — same answer as the
/// exact sweep, ordering and tie-breaks included, usually far fewer
/// distance evaluations (reported in the response and the
/// `wfdiff_similar_*` counters).  `approx=ε` (implies `pruned`) relaxes the
/// bound: every reported distance is at most `(1+ε)` times the true `k`-th.
fn similar(state: &AppState, req: &Request) -> Result<(u16, String), ApiError> {
    let spec = req.query_param("spec").ok_or_else(|| ApiError::missing_param("spec"))?;
    let run = req.query_param("run").ok_or_else(|| ApiError::missing_param("run"))?;
    let k = parse_int_param::<usize>(req, "k")?.unwrap_or(DEFAULT_SIMILAR_K);
    let epsilon = match req.query_param("approx") {
        None => None,
        Some(raw) => match raw.parse::<f64>() {
            Ok(e) if e.is_finite() && e >= 0.0 => Some(e),
            _ => {
                return Err(ApiError::bad_request(
                    "invalid_parameter",
                    format!(
                        "query parameter \"approx\" must be a finite non-negative number, got {raw:?}"
                    ),
                ));
            }
        },
    };
    let pruned = epsilon.is_some()
        || match req.query_param("pruned") {
            None | Some("0") => false,
            Some("1") => true,
            Some(raw) => {
                return Err(ApiError::bad_request(
                    "invalid_parameter",
                    format!("query parameter \"pruned\" must be 0 or 1, got {raw:?}"),
                ));
            }
        };
    let service = state.shard(spec).service();
    let mut response = SimilarResponse {
        spec: spec.to_string(),
        run: run.to_string(),
        k,
        neighbors: Vec::new(),
        pruned,
        approx_epsilon: epsilon.unwrap_or(0.0),
        distance_evals: 0,
        subtrees_pruned: 0,
        members_pruned: 0,
    };
    let neighbors = if pruned {
        let (neighbors, stats) =
            service.nearest_runs_pruned(spec, run, k, epsilon.unwrap_or(0.0))?;
        response.distance_evals = stats.distance_evals as u64;
        response.subtrees_pruned = stats.subtrees_pruned as u64;
        response.members_pruned = stats.members_pruned as u64;
        state.metrics.similar_pruned().inc();
        neighbors
    } else {
        let neighbors = service.nearest_runs(spec, run, k)?;
        // The exact sweep evaluates the query against every other run.
        response.distance_evals = service.store().run_names(spec).len().saturating_sub(1) as u64;
        neighbors
    };
    state.metrics.similar_distance_evals().add(response.distance_evals);
    response.neighbors = neighbors
        .into_iter()
        .map(|p| SimilarEntry { run: p.target, distance: p.distance })
        .collect();
    json(200, &response)
}

/// Parses an optional non-negative integer query parameter.
fn parse_int_param<T: std::str::FromStr>(
    req: &Request,
    name: &'static str,
) -> Result<Option<T>, ApiError> {
    match req.query_param(name) {
        None => Ok(None),
        Some(raw) => raw.parse::<T>().map(Some).map_err(|_| {
            ApiError::bad_request(
                "invalid_parameter",
                format!("query parameter {name:?} must be a non-negative integer, got {raw:?}"),
            )
        }),
    }
}

fn diff(state: &AppState, req: &Request) -> Result<(u16, String), ApiError> {
    let spec = req.query_param("spec").ok_or_else(|| ApiError::missing_param("spec"))?;
    let a = req.query_param("a").ok_or_else(|| ApiError::missing_param("a"))?;
    let b = req.query_param("b").ok_or_else(|| ApiError::missing_param("b"))?;
    let pair = state.shard(spec).service().diff(spec, a, b)?;
    json(
        200,
        &DiffResponse {
            spec: spec.to_string(),
            source: pair.source,
            target: pair.target,
            distance: pair.distance,
        },
    )
}

fn diff_batch(state: &AppState, req: &Request) -> Result<(u16, String), ApiError> {
    let body: BatchDiffRequest = parse_body(&req.body)?;
    if body.pairs.len() > MAX_BATCH_PAIRS {
        return Err(ApiError::bad_request(
            "batch_too_large",
            format!("{} pairs exceed the limit of {MAX_BATCH_PAIRS} per request", body.pairs.len()),
        ));
    }
    let distances = state.shard(&body.spec).service().diff_batch(&body.spec, &body.pairs)?;
    json(
        200,
        &BatchDiffResponse {
            spec: body.spec.clone(),
            distances: distances
                .into_iter()
                .map(|p| DiffResponse {
                    spec: body.spec.clone(),
                    source: p.source,
                    target: p.target,
                    distance: p.distance,
                })
                .collect(),
        },
    )
}

/// `GET /cluster`: dispatches on `algo` — the composite-module prefix
/// summary of two runs (default, the paper's "zoom") or the k-medoids
/// clustering of the whole run collection.
fn cluster(state: &AppState, req: &Request) -> Result<(u16, String), ApiError> {
    match req.query_param("algo") {
        None | Some("prefix") => cluster_prefix(state, req),
        Some("kmedoids") => cluster_kmedoids(state, req),
        Some(other) => Err(ApiError::bad_request(
            "invalid_parameter",
            format!("unknown clustering algorithm {other:?} (expected \"prefix\" or \"kmedoids\")"),
        )),
    }
}

/// `GET /cluster?algo=kmedoids&k=…[&seed=…]`: the incremental k-medoids
/// clustering of every stored run; checkpointed to the shard's store
/// directory (best effort) when the shard persists.
fn cluster_kmedoids(state: &AppState, req: &Request) -> Result<(u16, String), ApiError> {
    let spec = req.query_param("spec").ok_or_else(|| ApiError::missing_param("spec"))?;
    let k = parse_int_param::<usize>(req, "k")?.ok_or_else(|| ApiError::missing_param("k"))?;
    let seed = parse_int_param::<u64>(req, "seed")?.unwrap_or(DEFAULT_CLUSTER_SEED);
    let shard = state.shard(spec);
    let snapshot = shard.service().cluster_medoids(spec, k, seed)?;
    // Checkpoint the refreshed clustering next to the shard's store (a
    // no-op when nothing changed since the last checkpoint).  Best effort:
    // the artifact is a cache and a failed write must not fail the query
    // (the next load simply rebuilds).
    let persisted = match shard.dir() {
        Some(dir) => shard.service().save_cluster_state(dir).is_ok(),
        None => false,
    };
    json(
        200,
        &KMedoidsResponse {
            spec: spec.to_string(),
            algo: "kmedoids".to_string(),
            k: snapshot.k,
            seed: snapshot.seed,
            silhouette: snapshot.silhouette,
            cost: snapshot.cost,
            clusters: snapshot
                .clusters
                .into_iter()
                .map(|c| RunClusterEntry { medoid: c.medoid, size: c.runs.len(), runs: c.runs })
                .collect(),
            persisted,
        },
    )
}

fn cluster_prefix(state: &AppState, req: &Request) -> Result<(u16, String), ApiError> {
    let spec_name = req.query_param("spec").ok_or_else(|| ApiError::missing_param("spec"))?;
    let a = req.query_param("a").ok_or_else(|| ApiError::missing_param("a"))?;
    let b = req.query_param("b").ok_or_else(|| ApiError::missing_param("b"))?;
    let separator = req.query_param("separator").unwrap_or("_");
    let mut chars = separator.chars();
    let sep = match (chars.next(), chars.next()) {
        (Some(c), None) => c,
        _ => {
            return Err(ApiError::bad_request(
                "invalid_separator",
                format!("separator must be a single character, got {separator:?}"),
            ))
        }
    };
    let service = state.shard(spec_name).service();
    let spec = service.store().spec(spec_name).ok_or_else(|| {
        ApiError::new(404, "unknown_spec", format!("unknown specification {spec_name:?}"))
    })?;
    let clustering = Clustering::by_prefix(&spec, sep);
    let session = service.session(spec_name, a, b)?;
    let diff = ClusterDiff::compute(&session, &clustering);
    let clusters = diff
        .hotspots()
        .iter()
        .map(|(name, _)| {
            let (deletions, insertions) = diff.changes[*name];
            ClusterEntry { cluster: (*name).to_string(), deletions, insertions }
        })
        .collect();
    json(
        200,
        &ClusterResponse {
            spec: spec_name.to_string(),
            source: a.to_string(),
            target: b.to_string(),
            separator: sep.to_string(),
            distance: session.distance(),
            clusters,
        },
    )
}

fn parse_body<T: for<'de> serde::Deserialize<'de>>(body: &str) -> Result<T, ApiError> {
    if body.is_empty() {
        return Err(ApiError::bad_request("invalid_json", "request requires a JSON body"));
    }
    serde_json::from_str(body)
        .map_err(|e| ApiError::bad_request("invalid_json", format!("invalid JSON body: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::RunDescriptor;
    use crate::store::WorkflowStore;
    use crate::stream::StreamEvent;
    use wfdiff_workloads::figures::{fig2_run1, fig2_run2, fig2_specification};

    fn request(method: &str, target: &str, body: &str) -> Request {
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        Request {
            method: method.to_string(),
            raw_path: path.to_string(),
            segments: path.split('/').filter(|s| !s.is_empty()).map(String::from).collect(),
            query: query
                .split('&')
                .filter(|s| !s.is_empty())
                .map(|kv| {
                    let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
                    (k.to_string(), v.to_string())
                })
                .collect(),
            body: body.to_string(),
            keep_alive: true,
        }
    }

    fn state() -> AppState {
        let store = Arc::new(WorkflowStore::new());
        let spec = store.insert_spec(fig2_specification()).unwrap();
        store.insert_run("r1", fig2_run1(&spec)).unwrap();
        store.insert_run("r2", fig2_run2(&spec)).unwrap();
        AppState::single(Arc::new(DiffService::new(store)), None)
    }

    /// The `fig2` store spread across two shards: `fig2` on its hashed
    /// shard, a second spec (`aux`) forced onto the other one.
    fn sharded_state() -> AppState {
        let stores: Vec<Arc<WorkflowStore>> =
            (0..2).map(|_| Arc::new(WorkflowStore::new())).collect();
        let fig2_shard = super::super::shard::shard_of("fig2", 2);
        let spec = stores[fig2_shard].insert_spec(fig2_specification()).unwrap();
        stores[fig2_shard].insert_run("r1", fig2_run1(&spec)).unwrap();
        stores[fig2_shard].insert_run("r2", fig2_run2(&spec)).unwrap();
        let mut b = wfdiff_sptree::SpecificationBuilder::new("aux");
        b.path(&["a", "b", "c"]).fork_between("a", "c");
        let aux = stores[1 - fig2_shard].insert_spec(b.build().unwrap()).unwrap();
        let run = wfdiff_workloads::runs::generate_run_with_target_edges(&aux, 6, 1);
        stores[1 - fig2_shard].insert_run("a1", run).unwrap();
        AppState::new(ShardRouter::new(
            stores
                .iter()
                .map(|s| ShardEntry::new(Arc::new(DiffService::new(Arc::clone(s))), None))
                .collect(),
        ))
    }

    #[test]
    fn routing_covers_success_and_error_paths() {
        let state = state();
        let (status, body) = route(&state, &request("GET", "/healthz", ""));
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\""));

        let (status, _) = route(&state, &request("GET", "/specs", ""));
        assert_eq!(status, 200);
        let (status, body) = route(&state, &request("GET", "/specs/fig2/runs", ""));
        assert_eq!(status, 200);
        let runs: RunsResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(runs.runs, vec!["r1", "r2"]);

        let (status, _) = route(&state, &request("GET", "/specs/nope/runs", ""));
        assert_eq!(status, 404);
        let (status, _) = route(&state, &request("DELETE", "/healthz", ""));
        assert_eq!(status, 405);
        let (status, _) = route(&state, &request("GET", "/nowhere", ""));
        assert_eq!(status, 404);
    }

    #[test]
    fn diff_endpoint_returns_the_service_distance() {
        let state = state();
        let (status, body) = route(&state, &request("GET", "/diff?spec=fig2&a=r1&b=r2", ""));
        assert_eq!(status, 200, "{body}");
        let diff: DiffResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(diff.distance, 4.0);
        // Missing parameter and unknown names.
        let (status, _) = route(&state, &request("GET", "/diff?spec=fig2&a=r1", ""));
        assert_eq!(status, 400);
        let (status, _) = route(&state, &request("GET", "/diff?spec=fig2&a=r1&b=zz", ""));
        assert_eq!(status, 404);
    }

    #[test]
    fn batch_endpoint_is_index_aligned_and_bounded() {
        let state = state();
        let req_body = serde_json::to_string(&BatchDiffRequest {
            spec: "fig2".to_string(),
            pairs: vec![("r1".to_string(), "r2".to_string()), ("r1".to_string(), "r1".to_string())],
        })
        .unwrap();
        let (status, body) = route(&state, &request("POST", "/diff/batch", &req_body));
        assert_eq!(status, 200, "{body}");
        let out: BatchDiffResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(out.distances.len(), 2);
        assert_eq!(out.distances[0].distance, 4.0);
        assert_eq!(out.distances[1].distance, 0.0);

        let huge = BatchDiffRequest {
            spec: "fig2".to_string(),
            pairs: vec![("r1".to_string(), "r2".to_string()); MAX_BATCH_PAIRS + 1],
        };
        let (status, body) =
            route(&state, &request("POST", "/diff/batch", &serde_json::to_string(&huge).unwrap()));
        assert_eq!(status, 400);
        assert!(body.contains("batch_too_large"));
    }

    #[test]
    fn insert_endpoint_validates_fingerprint_and_json() {
        let state = state();
        let store = Arc::clone(state.router().shard_for("fig2").service().store());
        let spec = store.spec("fig2").unwrap();
        let descriptor = RunDescriptor::from_run(&fig2_run1(&spec));

        // Version assertion mismatch → 409, store unchanged.
        let body = format!(
            "{{\"name\": \"nope\", \"spec_fingerprint\": \"deadbeef\", \"run\": {}}}",
            descriptor.to_json()
        );
        let (status, text) = route(&state, &request("POST", "/runs", &body));
        assert_eq!(status, 409, "{text}");
        assert!(store.run("fig2", "nope").is_none());

        // Matching assertion → 201.
        let body = format!(
            "{{\"name\": \"r9\", \"spec_fingerprint\": \"{}\", \"run\": {}}}",
            spec.fingerprint(),
            descriptor.to_json()
        );
        let (status, text) = route(&state, &request("POST", "/runs", &body));
        assert_eq!(status, 201, "{text}");
        let out: InsertRunResponse = serde_json::from_str(&text).unwrap();
        assert!(!out.persisted, "no store directory configured");
        assert!(store.run("fig2", "r9").is_some());

        // Malformed JSON → 400.
        let (status, text) = route(&state, &request("POST", "/runs", "{not json"));
        assert_eq!(status, 400);
        assert!(text.contains("invalid_json"));
        // Empty body → 400 too.
        let (status, _) = route(&state, &request("POST", "/runs", ""));
        assert_eq!(status, 400);
    }

    #[test]
    fn cluster_endpoint_aggregates_by_prefix() {
        let state = state();
        let (status, body) = route(&state, &request("GET", "/cluster?spec=fig2&a=r1&b=r2", ""));
        assert_eq!(status, 200, "{body}");
        let out: ClusterResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(out.distance, 4.0);
        assert!(!out.clusters.is_empty());
        // Hotspots are ordered by total change, descending.
        let totals: Vec<usize> = out.clusters.iter().map(|c| c.deletions + c.insertions).collect();
        assert!(totals.windows(2).all(|w| w[0] >= w[1]));

        let (status, body) =
            route(&state, &request("GET", "/cluster?spec=fig2&a=r1&b=r2&separator=ab", ""));
        assert_eq!(status, 400, "{body}");
    }

    #[test]
    fn similar_endpoint_ranks_neighbors_exactly() {
        let state = state();
        let (status, body) = route(&state, &request("GET", "/similar?spec=fig2&run=r1&k=5", ""));
        assert_eq!(status, 200, "{body}");
        let out: SimilarResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(out.run, "r1");
        assert_eq!(out.neighbors.len(), 1, "only one other run is stored");
        assert_eq!(out.neighbors[0].run, "r2");
        assert_eq!(out.neighbors[0].distance, 4.0);
        // k defaults when omitted.
        let (status, body) = route(&state, &request("GET", "/similar?spec=fig2&run=r1", ""));
        assert_eq!(status, 200, "{body}");
        // Errors: unknown run/spec, malformed or zero k.
        let (status, _) = route(&state, &request("GET", "/similar?spec=fig2&run=zz", ""));
        assert_eq!(status, 404);
        let (status, _) = route(&state, &request("GET", "/similar?spec=zz&run=r1", ""));
        assert_eq!(status, 404);
        let (status, body) = route(&state, &request("GET", "/similar?spec=fig2&run=r1&k=x", ""));
        assert_eq!(status, 400, "{body}");
        let (status, body) = route(&state, &request("GET", "/similar?spec=fig2&run=r1&k=0", ""));
        assert_eq!(status, 400, "{body}");
        let (status, _) = route(&state, &request("POST", "/similar", ""));
        assert_eq!(status, 405);
        // k far beyond the run count is clamped, not an error.
        let (status, body) = route(&state, &request("GET", "/similar?spec=fig2&run=r1&k=999", ""));
        assert_eq!(status, 200, "{body}");
        let out: SimilarResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(out.neighbors.len(), 1);
    }

    #[test]
    fn similar_pruned_mode_matches_exact_and_validates_params() {
        let state = state();
        let (status, exact_body) =
            route(&state, &request("GET", "/similar?spec=fig2&run=r1&k=5", ""));
        assert_eq!(status, 200, "{exact_body}");
        let exact: SimilarResponse = serde_json::from_str(&exact_body).unwrap();
        assert!(!exact.pruned);
        assert_eq!(exact.distance_evals, 1, "the sweep evaluates every other run");

        // pruned=1 answers through the metric index: identical neighbours
        // and distances, pruning stats reported.
        let (status, body) =
            route(&state, &request("GET", "/similar?spec=fig2&run=r1&k=5&pruned=1", ""));
        assert_eq!(status, 200, "{body}");
        let pruned: SimilarResponse = serde_json::from_str(&body).unwrap();
        assert!(pruned.pruned);
        assert_eq!(pruned.approx_epsilon, 0.0);
        assert_eq!(pruned.neighbors.len(), exact.neighbors.len());
        for (a, b) in exact.neighbors.iter().zip(&pruned.neighbors) {
            assert_eq!(a.run, b.run);
            assert_eq!(a.distance, b.distance);
        }
        // pruned=0 is the exact sweep.
        let (status, body) =
            route(&state, &request("GET", "/similar?spec=fig2&run=r1&k=5&pruned=0", ""));
        assert_eq!(status, 200, "{body}");
        let out: SimilarResponse = serde_json::from_str(&body).unwrap();
        assert!(!out.pruned);

        // approx= implies pruned and echoes the bound.
        let (status, body) =
            route(&state, &request("GET", "/similar?spec=fig2&run=r1&k=5&approx=0.5", ""));
        assert_eq!(status, 200, "{body}");
        let out: SimilarResponse = serde_json::from_str(&body).unwrap();
        assert!(out.pruned);
        assert_eq!(out.approx_epsilon, 0.5);

        // Malformed pruned/approx values are 400s, and k=0 stays a clean
        // 400 through the pruned path too.
        for bad in [
            "/similar?spec=fig2&run=r1&pruned=2",
            "/similar?spec=fig2&run=r1&pruned=yes",
            "/similar?spec=fig2&run=r1&approx=-1",
            "/similar?spec=fig2&run=r1&approx=abc",
            "/similar?spec=fig2&run=r1&approx=inf",
            "/similar?spec=fig2&run=r1&k=0&pruned=1",
        ] {
            let (status, body) = route(&state, &request("GET", bad, ""));
            assert_eq!(status, 400, "{bad}: {body}");
        }
    }

    #[test]
    fn kmedoids_cluster_endpoint_returns_medoids_and_silhouette() {
        let state = state();
        let (status, body) =
            route(&state, &request("GET", "/cluster?spec=fig2&algo=kmedoids&k=2", ""));
        assert_eq!(status, 200, "{body}");
        let out: KMedoidsResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(out.algo, "kmedoids");
        assert_eq!(out.clusters.len(), 2);
        let mut all_runs: Vec<String> = out.clusters.iter().flat_map(|c| c.runs.clone()).collect();
        all_runs.sort();
        assert_eq!(all_runs, vec!["r1", "r2"]);
        for c in &out.clusters {
            assert!(c.runs.contains(&c.medoid), "medoid is a member");
            assert_eq!(c.size, c.runs.len());
        }
        assert!(!out.persisted, "no store directory configured");
        // k clamps to the run count; zero/missing/invalid k and unknown
        // algos are rejected.
        let (status, _) =
            route(&state, &request("GET", "/cluster?spec=fig2&algo=kmedoids&k=99", ""));
        assert_eq!(status, 200);
        let (status, _) =
            route(&state, &request("GET", "/cluster?spec=fig2&algo=kmedoids&k=0", ""));
        assert_eq!(status, 400);
        let (status, _) = route(&state, &request("GET", "/cluster?spec=fig2&algo=kmedoids", ""));
        assert_eq!(status, 400);
        let (status, _) = route(&state, &request("GET", "/cluster?spec=fig2&algo=voronoi&k=2", ""));
        assert_eq!(status, 400);
        let (status, _) = route(&state, &request("GET", "/cluster?spec=zz&algo=kmedoids&k=2", ""));
        assert_eq!(status, 404);
    }

    #[test]
    fn inserts_keep_the_cluster_index_fresh() {
        let state = state();
        // Build index state, then stream a run in through the endpoint; the
        // next clustering must include it without a rebuild.
        let (status, _) =
            route(&state, &request("GET", "/cluster?spec=fig2&algo=kmedoids&k=2", ""));
        assert_eq!(status, 200);
        let service = Arc::clone(state.router().shard_for("fig2").service());
        let store = Arc::clone(service.store());
        let spec = store.spec("fig2").unwrap();
        let descriptor = RunDescriptor::from_run(&fig2_run2(&spec));
        let body = format!("{{\"name\": \"r3\", \"run\": {}}}", descriptor.to_json());
        let (status, text) = route(&state, &request("POST", "/runs", &body));
        assert_eq!(status, 201, "{text}");
        let snapshot = service.cluster_index().snapshot("fig2").unwrap();
        assert!(snapshot.cluster_of("r3").is_some(), "streamed run was folded in");
        // And r3 (a copy of r2) landed in r2's cluster.
        assert_eq!(snapshot.cluster_of("r3"), snapshot.cluster_of("r2"));
        // The index update was timed.
        assert!(state
            .metrics()
            .render(state.router())
            .contains("wfdiff_cluster_update_duration_seconds_count 1"));
    }

    #[test]
    fn sharded_specs_and_healthz_aggregate_across_shards() {
        let state = sharded_state();
        let (status, body) = route(&state, &request("GET", "/specs", ""));
        assert_eq!(status, 200, "{body}");
        let out: SpecsResponse = serde_json::from_str(&body).unwrap();
        let names: Vec<&str> = out.specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["aux", "fig2"], "merged and sorted across shards");

        let (status, body) = route(&state, &request("GET", "/healthz", ""));
        assert_eq!(status, 200, "{body}");
        let health: HealthResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(health.specs, 2);
        assert_eq!(health.runs, 3);
        assert_eq!(health.shards.len(), 2);
        assert_eq!(health.shards.iter().map(|s| s.runs).sum::<usize>(), 3);
    }

    #[test]
    fn sharded_requests_route_to_the_owning_shard() {
        let state = sharded_state();
        // Both specs answer correctly even though they live on different
        // shards behind one route table.
        let (status, body) = route(&state, &request("GET", "/diff?spec=fig2&a=r1&b=r2", ""));
        assert_eq!(status, 200, "{body}");
        let (status, body) = route(&state, &request("GET", "/specs/aux/runs", ""));
        assert_eq!(status, 200, "{body}");
        let runs: RunsResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(runs.runs, vec!["a1"]);
        // Unknown specs 404 regardless of which shard the hash picks.
        let (status, _) = route(&state, &request("GET", "/specs/nope/runs", ""));
        assert_eq!(status, 404);
    }

    fn stream_body(spec: &str, stream: &str, events: Vec<StreamEvent>, finalize: bool) -> String {
        serde_json::to_string(&StreamEventsRequest {
            spec: spec.to_string(),
            stream: stream.to_string(),
            events,
            finalize,
        })
        .unwrap()
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
    fn stream_endpoint_streams_drifts_and_finalizes() {
        let state = state();
        // Cluster the two stored runs so drift verdicts have medoids.
        let (status, _) =
            route(&state, &request("GET", "/cluster?spec=fig2&algo=kmedoids&k=2", ""));
        assert_eq!(status, 200);

        // First batch: open the stream with a partial prefix.
        let events = branch_events("3");
        let (head, tail) = events.split_at(5);
        let (status, body) = route(
            &state,
            &request("POST", "/runs/stream", &stream_body("fig2", "s1", head.to_vec(), false)),
        );
        assert_eq!(status, 200, "{body}");
        let out: StreamEventsResponse = serde_json::from_str(&body).unwrap();
        assert_eq!((out.base_seq, out.seq), (0, 5));
        assert!(!out.complete && !out.finalized);
        let drift = out.drift.expect("open streams report drift");
        assert_eq!(drift.clusters.len(), 2, "one verdict per cluster");
        assert!(!out.persisted, "no store directory configured");

        // The drift endpoint answers for the in-flight stream too.
        let (status, body) = route(&state, &request("GET", "/runs/fig2/s1/drift", ""));
        assert_eq!(status, 200, "{body}");
        let live: DriftResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(live.events, 5);
        assert_eq!(live.clusters.len(), 2);

        // Second batch finalizes: the stream becomes stored run "s1".
        let (status, body) = route(
            &state,
            &request("POST", "/runs/stream", &stream_body("fig2", "s1", tail.to_vec(), true)),
        );
        assert_eq!(status, 201, "{body}");
        let out: StreamEventsResponse = serde_json::from_str(&body).unwrap();
        assert!(out.complete && out.finalized);
        assert!(out.drift.is_none(), "finalised responses carry no drift");
        let store = state.router().shard_for("fig2").service().store().clone();
        assert!(store.run("fig2", "s1").is_some());
        // The stream is gone: its drift endpoint 404s now.
        let (status, _) = route(&state, &request("GET", "/runs/fig2/s1/drift", ""));
        assert_eq!(status, 404);
        // And the streamed run joined the incremental clustering.
        let service = state.router().shard_for("fig2").service();
        let snapshot = service.cluster_index().snapshot("fig2").unwrap();
        assert!(snapshot.cluster_of("s1").is_some());
    }

    #[test]
    fn drift_endpoint_builds_clustering_on_demand() {
        let state = state();
        let (status, body) = route(
            &state,
            &request(
                "POST",
                "/runs/stream",
                &stream_body("fig2", "s1", branch_events("3")[..2].to_vec(), false),
            ),
        );
        assert_eq!(status, 200, "{body}");
        let out: StreamEventsResponse = serde_json::from_str(&body).unwrap();
        let drift = out.drift.unwrap();
        assert!(drift.clusters.is_empty() && !drift.drifted, "no clustering built yet");

        // ?k= refreshes the clustering in the same request.
        let (status, body) = route(&state, &request("GET", "/runs/fig2/s1/drift?k=1", ""));
        assert_eq!(status, 200, "{body}");
        let out: DriftResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(out.clusters.len(), 1);
        assert_eq!(out.clusters[0].size, 2, "both stored runs in one cluster");
        assert!(out.clusters[0].radius > 0.0);
    }

    #[test]
    fn malformed_stream_batches_are_typed_rejections() {
        let state = state();
        // Unknown spec → 404.
        let (status, body) = route(
            &state,
            &request("POST", "/runs/stream", &stream_body("zz", "s1", vec![], false)),
        );
        assert_eq!(status, 404, "{body}");
        // Stream name colliding with a stored run → 400.
        let (status, body) = route(
            &state,
            &request("POST", "/runs/stream", &stream_body("fig2", "r1", vec![], false)),
        );
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("invalid_query"));
        // Duplicate start → 409 conflict, and the batch is atomic: nothing
        // from the bad batch sticks.
        let mut events = branch_events("3")[..2].to_vec();
        events.push(StreamEvent::started(0, "1", vec![]));
        let (status, body) = route(
            &state,
            &request("POST", "/runs/stream", &stream_body("fig2", "s1", events, false)),
        );
        assert_eq!(status, 409, "{body}");
        assert!(body.contains("stream_conflict"));
        let service = state.router().shard_for("fig2").service();
        assert!(service.stream_seq("fig2", "s1").is_none(), "rejected batch opened no stream");
        // Completion of a never-started node → 400.
        let (status, body) = route(
            &state,
            &request(
                "POST",
                "/runs/stream",
                &stream_body("fig2", "s1", vec![StreamEvent::completed(9)], false),
            ),
        );
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("invalid_stream_event"));
        // Finalizing an incomplete stream → 409, stream stays open.
        let open = stream_body("fig2", "s2", branch_events("3")[..3].to_vec(), false);
        let (status, _) = route(&state, &request("POST", "/runs/stream", &open));
        assert_eq!(status, 200);
        let (status, body) = route(
            &state,
            &request("POST", "/runs/stream", &stream_body("fig2", "s2", vec![], true)),
        );
        assert_eq!(status, 409, "{body}");
        assert!(body.contains("stream_conflict"));
        assert_eq!(service.stream_seq("fig2", "s2"), Some(3));
        // Malformed JSON → 400; wrong methods → 405.
        let (status, _) = route(&state, &request("POST", "/runs/stream", "{not json"));
        assert_eq!(status, 400);
        let (status, _) = route(&state, &request("GET", "/runs/stream", ""));
        assert_eq!(status, 405);
        let (status, _) = route(&state, &request("POST", "/runs/fig2/s2/drift", ""));
        assert_eq!(status, 405);
        // Drift of an unknown stream → 404.
        let (status, body) = route(&state, &request("GET", "/runs/fig2/nope/drift", ""));
        assert_eq!(status, 404, "{body}");
        assert!(body.contains("unknown_stream"));
    }

    #[test]
    fn delete_closes_a_stuck_stream() {
        let state = state();
        let open = stream_body("fig2", "stuck", branch_events("3")[..3].to_vec(), false);
        let (status, _) = route(&state, &request("POST", "/runs/stream", &open));
        assert_eq!(status, 200);
        let (status, body) = route(&state, &request("DELETE", "/runs/fig2/stuck/stream", ""));
        assert_eq!(status, 200, "{body}");
        let out: StreamCloseResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(out.seq, 3);
        assert!(!out.persisted, "no store directory configured");
        let service = state.router().shard_for("fig2").service();
        assert!(service.stream_seq("fig2", "stuck").is_none());
        // Closing twice → 404; wrong method → 405.
        let (status, _) = route(&state, &request("DELETE", "/runs/fig2/stuck/stream", ""));
        assert_eq!(status, 404);
        let (status, _) = route(&state, &request("GET", "/runs/fig2/stuck/stream", ""));
        assert_eq!(status, 405);
    }

    #[test]
    fn metrics_dispatch_serves_text_and_rejects_post() {
        let state = state();
        let _ = route(&state, &request("GET", "/diff?spec=fig2&a=r1&b=r2", ""));
        let response = dispatch(&state, &request("GET", "/metrics", ""));
        assert_eq!(response.status, 200);
        assert_eq!(response.content_type, METRICS_CONTENT_TYPE);
        assert!(response.body.contains("# TYPE wfdiff_http_requests_total counter"));
        assert!(response.body.contains("wfdiff_shards 1"));
        let response = dispatch(&state, &request("POST", "/metrics", ""));
        assert_eq!(response.status, 405);
        assert_eq!(response.content_type, "application/json");
    }
}
