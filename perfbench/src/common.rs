//! What every workload shares: the run context, the outcome it reports,
//! store generation, the server boot sequence, `/metrics` scraping and the
//! in-process replay of a request through the serving layers.

use crate::http::Client;
use crate::stats;
use crate::trace::{span, CountingCache, CountingIo, Tracer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use wfdiff_bench::batch::BatchConfig;
use wfdiff_core::{DiffCache, ShardedDiffCache};
use wfdiff_pdiffview::serve::handlers::{dispatch, AppState};
use wfdiff_pdiffview::serve::http::{parse_request, render_response, ParseOutcome};
use wfdiff_pdiffview::serve::{ServeConfig, Server, ServerHandle, ShardEntry, ShardRouter};
use wfdiff_pdiffview::{DiffService, RealIo, StoreIo, WorkflowStore, DEFAULT_CLUSTER_SEED};
use wfdiff_sptree::{Run, Specification};
use wfdiff_workloads::generator::{random_specification, SpecGenConfig};
use wfdiff_workloads::runs::generate_run;

/// Replacement seams for the measured server, used by the benchmark's
/// self-tests to inject faults the correctness gate must catch.
#[derive(Default, Clone)]
pub struct Hooks {
    /// The diff cache of the measured server (default: the program's own).
    pub cache: Option<Arc<dyn DiffCache>>,
    /// The filesystem handle of the measured server's store.
    pub io: Option<Arc<dyn StoreIo>>,
}

/// Everything a workload needs to run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Server worker threads and the bound on generator threads.
    pub threads: usize,
    /// Scratch directory for this run's stores (inside the checkout).
    pub work: PathBuf,
    pub tracer: Option<Arc<Tracer>>,
    pub hooks: Hooks,
}

impl Ctx {
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_deref()
    }

    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    pub fn rng(&self, stream: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
    }
}

/// What a workload reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    /// The first few mismatch descriptions.
    pub mismatch_notes: Vec<String>,
    /// The `end_to_end` metrics of `BENCHMARK.json`.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-class end-to-end figures reported beside the gated ones.
    pub named: BTreeMap<String, f64>,
    /// The `per_layer` metrics (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Workload sizes and offered rates, for the result file.
    pub sizes: BTreeMap<String, String>,
}

impl Outcome {
    pub fn mismatch(&mut self, note: impl Into<String>) {
        self.mismatches += 1;
        if self.mismatch_notes.len() < 8 {
            self.mismatch_notes.push(note.into());
        }
    }

    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        if !ok {
            self.mismatch(note());
        }
    }

    pub fn size(&mut self, key: &str, value: impl ToString) {
        self.sizes.insert(key.to_string(), value.to_string());
    }

    pub fn layer(&mut self, key: &str, value: f64) {
        self.layers.insert(key.to_string(), value);
    }
}

/// A generated specification with named runs.
pub struct Collection {
    pub spec: Specification,
    pub runs: Vec<(String, Run)>,
    config: BatchConfig,
}

impl Collection {
    /// A Fig. 14-style collection (forks and loops: high sharing).
    pub fn fig14(label: &str, edges: usize, runs: usize) -> Collection {
        Collection::generate(BatchConfig::fig14(edges, runs), label)
    }

    /// A Fig. 12-style collection (no forks or loops: low sharing).
    pub fn fig12(label: &str, edges: usize, runs: usize) -> Collection {
        Collection::generate(BatchConfig::fig12(edges, runs), label)
    }

    /// A stored collection depends only on `label` and its shape: the
    /// stored data set is the same for every seed, and the seed drives the
    /// traffic — request order, arrival times and the runs written or their
    /// order (see [`Collection::fresh_runs`]).  Seed-to-seed differences in
    /// the stored data would otherwise dominate the run-to-run spread.
    fn generate(mut config: BatchConfig, label: &str) -> Collection {
        config.label = label.to_string();
        let shape = SpecGenConfig {
            target_edges: config.spec_edges,
            series_parallel_ratio: config.series_parallel_ratio,
            forks: config.forks,
            loops: config.loops,
        };
        let seed =
            label.bytes().fold(0xC0FFEE_u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let spec = random_specification(label, &shape, &mut rng);
        let runs = (0..config.runs)
            .map(|i| (format!("r{i:05}"), generate_run(&spec, &config.run_gen, &mut rng)))
            .collect();
        Collection { spec, runs, config }
    }

    pub fn name(&self) -> &str {
        self.spec.name()
    }

    pub fn run_names(&self) -> Vec<String> {
        self.runs.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Fresh runs of this specification, not stored anywhere yet.
    pub fn fresh_runs(&self, n: usize, seed: u64) -> Vec<Run> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| generate_run(&self.spec, &self.config.run_gen, &mut rng)).collect()
    }
}

/// An in-memory store holding `collections`.
pub fn memory_store(collections: &[&Collection]) -> Arc<WorkflowStore> {
    let store = Arc::new(WorkflowStore::new());
    for c in collections {
        store.insert_spec(c.spec.clone()).expect("generated specs have distinct names");
        for (name, run) in &c.runs {
            store.insert_run(name, run.clone()).expect("the spec is stored");
        }
    }
    store
}

/// Checkpoints to build before the store is saved: k-medoids clusterings
/// `(spec, k)` and metric indexes (by spec).
#[derive(Default)]
pub struct Checkpoints {
    pub kmedoids: Vec<(String, usize)>,
    pub metric: Vec<String>,
}

/// Saves `collections` to `dir` with the requested cluster and metric-index
/// checkpoints folded in, so a boot takes the checkpoint path.
pub fn save_store(
    dir: &Path,
    collections: &[&Collection],
    checkpoints: &Checkpoints,
    threads: usize,
) {
    let _ = std::fs::remove_dir_all(dir);
    let store = memory_store(collections);
    store.save_to_dir(dir).expect("the scratch directory is writable");
    if checkpoints.kmedoids.is_empty() && checkpoints.metric.is_empty() {
        return;
    }
    // Build the checkpoints on the store as loaded back, as a server would:
    // they are validated against the loaded specifications.
    let store = Arc::new(WorkflowStore::load_from_dir(dir).expect("the saved store loads"));
    let service = DiffService::builder(Arc::clone(&store)).threads(threads).build();
    for (spec, k) in &checkpoints.kmedoids {
        service.cluster_medoids(spec, *k, DEFAULT_CLUSTER_SEED).expect("the spec has runs");
    }
    for spec in &checkpoints.metric {
        let probe = store.run_names(spec).into_iter().next().expect("the spec has runs");
        service.nearest_runs_pruned(spec, &probe, 1, 0.0).expect("the spec has runs");
    }
    service.save_cluster_state(dir).expect("the scratch directory is writable");
    service.save_metric_state(dir).expect("the scratch directory is writable");
    // A full save folds the checkpoint deltas into their files.
    store.save_to_dir(dir).expect("the scratch directory is writable");
}

pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Seconds each step of one boot took.
#[derive(Debug, Clone, Copy, Default)]
pub struct BootTimes {
    pub load_s: f64,
    pub warm_s: f64,
    pub cluster_s: f64,
    pub metric_s: f64,
    pub streams_s: f64,
    pub serve_s: f64,
    /// From the store directory on disk to the first answered `/healthz`.
    pub total_s: f64,
}

pub struct Booted {
    pub handle: ServerHandle,
    pub service: Arc<DiffService>,
    pub addr: SocketAddr,
    pub times: BootTimes,
    pub cache: Option<Arc<CountingCache>>,
    pub io: Option<Arc<CountingIo>>,
}

impl Booted {
    /// Stops the server and frees its state.
    pub fn shutdown(self) {
        self.handle.shutdown();
    }

    /// A second handler state over the same service, for in-process replay.
    pub fn replay_state(&self) -> AppState {
        AppState::new(ShardRouter::new(vec![ShardEntry::new(Arc::clone(&self.service), None)]))
    }
}

/// Boots a server over `dir` in the `wfdiff_serve` order: load, warm start,
/// cluster and metric-index resume, stream resume, bind and start.  With
/// `counting`, the cache and filesystem handle are wrapped in counters.
pub fn boot(
    dir: &Path,
    threads: usize,
    hooks: &Hooks,
    counting: bool,
    tracer: Option<&Tracer>,
) -> Booted {
    let started = Instant::now();
    let mut times = BootTimes::default();
    let mut lap = Instant::now();
    let mut next_lap = |slot: &mut f64| {
        *slot = lap.elapsed().as_secs_f64();
        lap = Instant::now();
    };
    let io: Option<Arc<CountingIo>> = counting
        .then(|| Arc::new(CountingIo::new(hooks.io.clone().unwrap_or_else(|| Arc::new(RealIo)))));
    let cache: Option<Arc<CountingCache>> = counting.then(|| {
        let inner: Arc<dyn DiffCache> =
            hooks.cache.clone().unwrap_or_else(|| Arc::new(ShardedDiffCache::default()));
        Arc::new(CountingCache::new(inner))
    });
    span(tracer, "boot", 0, 0, |root| {
        let store = span(tracer, "persist.load", root, 0, |_| {
            let io: Option<Arc<dyn StoreIo>> = match &io {
                Some(c) => Some(Arc::clone(c) as Arc<dyn StoreIo>),
                None => hooks.io.clone(),
            };
            match io {
                Some(io) => WorkflowStore::load_from_dir_with_io(dir, io),
                None => WorkflowStore::load_from_dir(dir),
            }
            .expect("the benchmark's store directory loads")
        });
        next_lap(&mut times.load_s);
        let mut builder = DiffService::builder(Arc::new(store)).threads(threads);
        match (&cache, &hooks.cache) {
            (Some(c), _) => builder = builder.cache(Arc::clone(c) as Arc<dyn DiffCache>),
            (None, Some(c)) => builder = builder.cache(Arc::clone(c)),
            (None, None) => {}
        }
        let service = Arc::new(builder.build());
        span(tracer, "service.warm_start", root, 0, |_| service.warm_start())
            .expect("warm start succeeds");
        next_lap(&mut times.warm_s);
        span(tracer, "cluster.load", root, 0, |_| service.load_cluster_state(dir));
        next_lap(&mut times.cluster_s);
        span(tracer, "metricindex.load", root, 0, |_| service.load_metric_state(dir));
        next_lap(&mut times.metric_s);
        span(tracer, "service.load_streams", root, 0, |_| service.load_streams(dir))
            .expect("stream resume succeeds");
        next_lap(&mut times.streams_s);
        let handle = span(tracer, "serve.bind_start", root, 0, |_| {
            let router = ShardRouter::new(vec![ShardEntry::new(
                Arc::clone(&service),
                Some(dir.to_path_buf()),
            )]);
            let config =
                ServeConfig { addr: "127.0.0.1:0".to_string(), threads, ..ServeConfig::default() };
            let server = Server::bind_sharded(router, config).expect("bind loopback");
            let handle = server.start().expect("spawn server threads");
            let mut client = Client::connect(handle.addr()).expect("connect to the booted server");
            let reply = client.request("GET", "/healthz", "").expect("healthz answers");
            assert_eq!(reply.status, 200, "healthz after boot");
            handle
        });
        next_lap(&mut times.serve_s);
        times.total_s = started.elapsed().as_secs_f64();
        let addr = handle.addr();
        Booted { handle, service, addr, times, cache, io }
    })
}

/// Cold reboots after the timed phase; `recovery_s` is their median.  It is
/// reported, not gated, so it gets fewer boots than `setup_s`.
pub const RECOVERY_BOOTS: usize = 3;

/// Boots `n` times and keeps the last server; returns it with the median
/// boot times.  When `measured`, the last boot gets the context's hooks
/// and, in traced runs, the counting wrappers.
pub fn boot_repeated(ctx: &Ctx, dir: &Path, n: usize, measured: bool) -> (Booted, BootTimes) {
    let mut all = Vec::with_capacity(n);
    let mut last = None;
    for i in 0..n {
        let final_boot = i + 1 == n;
        let hooks = if final_boot && measured { ctx.hooks.clone() } else { Hooks::default() };
        let counting = final_boot && measured && ctx.tracing();
        let booted = boot(dir, ctx.threads, &hooks, counting, ctx.tracer());
        all.push(booted.times);
        if final_boot {
            last = Some(booted);
        } else {
            booted.shutdown();
        }
    }
    let med = |f: fn(&BootTimes) -> f64| stats::median(&all.iter().map(f).collect::<Vec<_>>());
    let times = BootTimes {
        load_s: med(|t| t.load_s),
        warm_s: med(|t| t.warm_s),
        cluster_s: med(|t| t.cluster_s),
        metric_s: med(|t| t.metric_s),
        streams_s: med(|t| t.streams_s),
        serve_s: med(|t| t.serve_s),
        total_s: med(|t| t.total_s),
    };
    (last.expect("at least one boot"), times)
}

/// Records the boot-phase layer metrics: step times of the setup boots and
/// the WAL records the recovery boot replayed.
pub fn boot_layers(out: &mut Outcome, times: &BootTimes, replayed_records: u64) {
    out.layer("service.warm_start_s", times.warm_s);
    out.layer("persist.load_s", times.load_s);
    out.layer("cluster.load_s", times.cluster_s);
    out.layer("metricindex.load_s", times.metric_s);
    out.layer("wal.replayed_records", replayed_records as f64);
}

/// Per-endpoint request-duration sums and counts, and the cluster-update
/// histogram, scraped from `GET /metrics`.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    pub endpoints: BTreeMap<String, (f64, f64)>,
    pub cluster_update: (f64, f64),
}

impl Scrape {
    pub fn fetch(addr: SocketAddr) -> Scrape {
        let mut client = Client::connect(addr).expect("connect for /metrics");
        let body = client.request("GET", "/metrics", "").expect("/metrics answers").body;
        let mut scrape = Scrape::default();
        for line in body.lines() {
            let Some((key, value)) = line.rsplit_once(' ') else { continue };
            let Ok(value) = value.parse::<f64>() else { continue };
            let endpoint = |k: &str| {
                k.split("endpoint=\"").nth(1).and_then(|r| r.split('"').next()).map(str::to_string)
            };
            if let Some(rest) = key.strip_prefix("wfdiff_http_request_duration_seconds_sum") {
                if let Some(ep) = endpoint(rest) {
                    scrape.endpoints.entry(ep).or_default().0 = value;
                }
            } else if let Some(rest) =
                key.strip_prefix("wfdiff_http_request_duration_seconds_count")
            {
                if let Some(ep) = endpoint(rest) {
                    scrape.endpoints.entry(ep).or_default().1 = value;
                }
            } else if key == "wfdiff_cluster_update_duration_seconds_sum" {
                scrape.cluster_update.0 = value;
            } else if key == "wfdiff_cluster_update_duration_seconds_count" {
                scrape.cluster_update.1 = value;
            }
        }
        scrape
    }

    /// Mean server-side microseconds per request of `endpoints` between
    /// `before` and `self` (0 when none were served).
    pub fn mean_us(&self, before: &Scrape, endpoints: &[&str]) -> f64 {
        let (mut sum, mut count) = (0.0, 0.0);
        for ep in endpoints {
            let now = self.endpoints.get(*ep).copied().unwrap_or_default();
            let was = before.endpoints.get(*ep).copied().unwrap_or_default();
            sum += now.0 - was.0;
            count += now.1 - was.1;
        }
        if count > 0.0 {
            sum / count * 1e6
        } else {
            0.0
        }
    }

    pub fn cluster_update_us(&self, before: &Scrape) -> f64 {
        let count = self.cluster_update.1 - before.cluster_update.1;
        if count > 0.0 {
            (self.cluster_update.0 - before.cluster_update.0) / count * 1e6
        } else {
            0.0
        }
    }
}

/// Runs the bytes of one request through the serving layers in process —
/// `http::parse_request`, `handlers::dispatch`, `http::render_response` —
/// and returns the microseconds that took.
pub fn replay(state: &AppState, bytes: &[u8], tracer: Option<&Tracer>, req: u64) -> f64 {
    let started = Instant::now();
    span(tracer, "serve.inproc", 0, req, |parent| {
        let request = span(tracer, "http.parse_request", parent, req, |_| {
            match parse_request(bytes, usize::MAX) {
                Ok(ParseOutcome::Complete { request, .. }) => request,
                _ => panic!("the benchmark's own request bytes parse"),
            }
        });
        let response =
            span(tracer, "handlers.dispatch", parent, req, |_| dispatch(state, &request));
        span(tracer, "http.render_response", parent, req, |_| {
            render_response(response.status, response.content_type, &response.body, true)
        })
    });
    started.elapsed().as_secs_f64() * 1e6
}

/// `serve.transport_us` outside a timed phase: the median of round trip
/// minus in-process replay over `paths` (read-only GETs).
pub fn transport_probe(booted: &Booted, paths: &[String], tracer: Option<&Tracer>) -> f64 {
    let state = booted.replay_state();
    let mut client = Client::connect(booted.addr).expect("connect");
    let mut transport = Vec::with_capacity(paths.len());
    for path in paths {
        let started = Instant::now();
        let ok = client.request("GET", path, "").map(|r| r.status == 200).unwrap_or(false);
        let roundtrip = started.elapsed().as_secs_f64() * 1e6;
        if ok {
            transport.push(roundtrip - replay(&state, &Client::encode("GET", path, ""), tracer, 0));
        }
    }
    stats::median(&transport)
}

/// The host's steal time in clock ticks so far (from `/proc/stat`): time
/// this virtual machine's CPUs were ready but not running.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().and_then(|l| l.split_whitespace().nth(8)?.parse().ok()))
        .unwrap_or(0)
}

/// Resident memory of this process in MB.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
