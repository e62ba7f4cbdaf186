//! The repository benchmark: three workloads against a real in-process
//! diff server on loopback, a correctness gate on every answer, end-to-end
//! metrics, and a traced run that splits them across the program's layers.
//! See `perfbench/README.md`.

pub mod common;
pub mod faults;
pub mod http;
pub mod ingest;
pub mod interactive;
pub mod matrix;
pub mod meta;
pub mod openloop;
pub mod phase;
pub mod probes;
pub mod stats;
pub mod trace;

pub use common::{Ctx, Hooks, Outcome};

/// The gated end-to-end metrics and their units, as in `BENCHMARK.json`.
/// Latency percentiles and `recovery_s` are reported in the result file
/// but not gated: on a shared virtual machine they follow the host's steal
/// time (see `README.md`).
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("throughput_per_s", "1/s"), ("rss_mb", "MB")];

/// The per-layer metrics of a traced run and their units, as in
/// `BENCHMARK.json`.  A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("serve.transport_us", "us"),
    ("serve.server_us", "us"),
    ("serve.reactor_wait_us", "us"),
    ("serve.gen_lag_us", "us"),
    ("handlers.dispatch_us.read", "us"),
    ("handlers.dispatch_us.diff", "us"),
    ("handlers.dispatch_us.similar", "us"),
    ("handlers.dispatch_us.insert", "us"),
    ("handlers.dispatch_us.stream", "us"),
    ("handlers.response_bytes_per_pair", "B"),
    ("service.diff_batch_us_per_pair", "us"),
    ("service.pool_scaling", "ratio"),
    ("service.warm_start_s", "s"),
    ("service.stream_events_us", "us"),
    ("service.drift_report_us", "us"),
    ("core.prefix_distance_us", "us"),
    ("core.prepare_us", "us"),
    ("core.distance_prepared_us", "us"),
    ("cache.pair_hit_rate", "ratio"),
    ("cache.deletion_hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("cache.entries", "count"),
    ("cache.get_ns", "ns"),
    ("metricindex.evals_per_query", "count"),
    ("metricindex.members_pruned_ratio", "ratio"),
    ("metricindex.load_s", "s"),
    ("cluster.load_s", "s"),
    ("cluster.update_us", "us"),
    ("persist.load_s", "s"),
    ("wal.replayed_records", "count"),
    ("wal.records_per_write.kind1", "count"),
    ("wal.records_per_write.kind2", "count"),
    ("wal.records_per_write.kind3", "count"),
    ("wal.records_per_write.kind4", "count"),
    ("wal.records_per_write.kind5", "count"),
    ("wal.folds", "count"),
    ("storeio.fsyncs_per_write", "count"),
    ("storeio.fsync_us", "us"),
    ("storeio.bytes_per_user_byte", "ratio"),
    ("io.descriptor_decode_us", "us"),
    ("traced.setup_s", "s"),
    ("traced.throughput_per_s", "1/s"),
    ("traced.rss_mb", "MB"),
];

/// Runs one workload at full size.
pub fn run_workload(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "interactive" => interactive::run(ctx, &interactive::Sizes::full()),
        "matrix" => matrix::run(ctx, &matrix::Sizes::full()),
        "ingest" => ingest::run(ctx, &ingest::Sizes::full()),
        _ => return None,
    })
}
