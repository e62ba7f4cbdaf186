//! Turning one timed phase's completed requests into metrics.

use crate::common::{Ctx, Outcome, Scrape};
use crate::openloop::{Class, Done, Op};
use crate::stats;
use crate::trace::{CacheCounts, IoCounts};

/// Every endpoint label the serving tier reports durations for, except
/// `/metrics` itself.
const SERVED: [&str; 10] = [
    "healthz",
    "specs",
    "spec_runs",
    "insert_run",
    "diff",
    "diff_batch",
    "cluster",
    "similar",
    "runs_stream",
    "drift",
];

/// Latencies of the phase's successful requests, in milliseconds.
pub fn latencies(ops: &[&Op], done: &[Done], class: Option<Class>) -> Vec<f64> {
    ops.iter()
        .zip(done)
        .filter(|(op, d)| class.is_none_or(|c| op.class == c) && d.status / 100 == 2)
        .map(|(_, d)| d.latency_ms())
        .collect()
}

/// Records attempted and failed counts, the per-class figures and, when
/// tracing, the serving-tier layer metrics.
pub fn record(
    ctx: &Ctx,
    out: &mut Outcome,
    ops: &[&Op],
    done: &[Done],
    before: &Scrape,
    after: &Scrape,
) {
    out.attempted += done.len() as u64;
    out.failed += done.iter().filter(|d| d.status / 100 != 2).count() as u64;
    let mut classes: Vec<Class> = ops.iter().map(|o| o.class).collect();
    classes.sort();
    classes.dedup();
    for class in classes {
        let lat = latencies(ops, done, Some(class));
        let (tail, p) = stats::tail(&lat);
        out.named.insert(format!("{}_p50_ms", class.label()), stats::median(&lat));
        out.named.insert(format!("{}_p{p}_ms", class.label()), tail);
        out.named.insert(format!("{}_count", class.label()), lat.len() as f64);
    }
    if !ctx.tracing() {
        return;
    }
    let transport: Vec<f64> =
        done.iter().filter_map(|d| d.replay_us.map(|r| d.roundtrip_us() - r)).collect();
    out.layer("serve.transport_us", stats::median(&transport));
    let server_us = after.mean_us(before, &SERVED);
    out.layer("serve.server_us", server_us);
    let roundtrip: Vec<f64> = done.iter().map(Done::roundtrip_us).collect();
    out.layer("serve.reactor_wait_us", stats::mean(&roundtrip) - server_us);
    let lag: Vec<f64> = done.iter().map(|d| (d.sent - d.due).max(0.0) * 1e6).collect();
    out.layer("serve.gen_lag_us", stats::mean(&lag));
    for class in [Class::Read, Class::Diff, Class::Similar, Class::Insert, Class::Stream] {
        out.layer(
            &format!("handlers.dispatch_us.{}", class.label()),
            after.mean_us(before, class.endpoints()),
        );
    }
    out.layer("cluster.update_us", after.cluster_update_us(before));
}

/// Records the cache layer's counters over the phase.
pub fn record_cache(out: &mut Outcome, c: &CacheCounts) {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.layer("cache.pair_hit_rate", ratio(c.pair_hits, c.pair_gets));
    out.layer("cache.deletion_hit_rate", ratio(c.deletion_hits, c.deletion_gets));
    out.layer("cache.evictions", c.inner.evictions as f64);
    out.layer("cache.entries", c.inner.entries as f64);
    out.layer("cache.get_ns", ratio(c.get_ns, c.pair_gets + c.deletion_gets));
}

/// Records the durability layers' counters over the phase: `writes`
/// acknowledged writes carrying `user_bytes` of request bodies.
pub fn record_io(out: &mut Outcome, io: &IoCounts, writes: u64, user_bytes: u64, folds: u64) {
    let per_write = |n: u64| if writes == 0 { 0.0 } else { n as f64 / writes as f64 };
    for kind in 1..=5 {
        out.layer(&format!("wal.records_per_write.kind{kind}"), per_write(io.wal_kinds[kind]));
    }
    out.layer("wal.folds", folds as f64);
    out.layer("storeio.fsyncs_per_write", per_write(io.fsyncs));
    out.layer(
        "storeio.fsync_us",
        if io.fsyncs == 0 { 0.0 } else { io.fsync_ns as f64 / io.fsyncs as f64 / 1e3 },
    );
    out.layer(
        "storeio.bytes_per_user_byte",
        if user_bytes == 0 { 0.0 } else { io.bytes_written as f64 / user_bytes as f64 },
    );
}
