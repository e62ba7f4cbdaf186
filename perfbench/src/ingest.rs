//! `ingest`: durable run ingestion with reads that must observe the writes.
//!
//! Open loop at a fixed operation rate over one keep-alive connection, so
//! the server applies the writes in one known order and a local mirror can
//! replay them exactly.  The store holds a few hundred runs of a
//! Fig. 14-style specification with its k-medoids clustering and metric
//! index already built, so writes also append cluster and metric-index
//! deltas.  Mix: `POST /runs`, `POST /runs/stream` batches (a live drift
//! verdict per batch, finalize on the last) and reads of the clustering,
//! `/similar?pruned=1` and `/drift`.  The phase ends without a fold and the
//! server reboots cold from its directory.  fsync, the WAL, index deltas
//! and `prefix_distance` dominate; the DP kernel and transport are minor.

use crate::common::*;
use crate::http::{encode, Client};
use crate::interactive::{clustering, neighbors};
use crate::openloop::{drive, poisson, Class, Done, Op};
use crate::trace::span;
use crate::{phase, stats};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use wfdiff_bench::events::lifecycle_events;
use wfdiff_core::{UnitCost, WorkflowDiff};
use wfdiff_pdiffview::serve::api::{
    DiffResponse, DriftResponse, InsertRunRequest, InsertRunResponse, KMedoidsResponse,
    SimilarResponse, StreamEventsRequest, StreamEventsResponse,
};
use wfdiff_pdiffview::{
    DiffService, DriftReport, PartialRun, StreamEvent, WorkflowStore, DEFAULT_CLUSTER_SEED,
};

pub struct Sizes {
    pub runs: usize,
    pub edges: usize,
    pub k: usize,
    pub similar_k: usize,
    /// Offered operations per second.
    pub rate: f64,
    /// Operations the closed loop sends per second of its half.  Every
    /// write makes later operations dearer (the store grows), so the closed
    /// loop's rate is taken over a fixed amount of work, not a fixed time;
    /// this sizes the work to take about the half on a 2-vCPU machine.
    pub closed_rate: f64,
    /// Events per `POST /runs/stream` batch.
    pub batch_events: usize,
    /// Streams kept in flight at once.
    pub open_streams: usize,
    /// Acknowledged inserts written after the post-phase fold: the WAL
    /// tail recovery replays.
    pub tail_writes: usize,
    /// Boots whose median is `setup_s`.
    pub boots: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            runs: 100,
            edges: 40,
            k: 4,
            similar_k: 10,
            rate: 20.0,
            closed_rate: 50.0,
            batch_events: 24,
            open_streams: 4,
            tail_writes: 64,
            boots: 21,
        }
    }

    pub fn small() -> Sizes {
        Sizes {
            runs: 30,
            edges: 20,
            k: 2,
            similar_k: 5,
            rate: 60.0,
            closed_rate: 50.0,
            batch_events: 8,
            open_streams: 2,
            tail_writes: 8,
            boots: 1,
        }
    }
}

/// What each planned operation is, for the mirror replay.
enum Plan {
    Insert,
    Stream { stream: String, events: Vec<StreamEvent>, finalize: bool },
    Kmedoids,
    Similar { run: String },
    Drift { stream: String },
}

/// The boot sequence without the server: the local mirror.
fn mirror(dir: &Path, threads: usize) -> Arc<DiffService> {
    let store = Arc::new(WorkflowStore::load_from_dir(dir).expect("mirror store loads"));
    let service = Arc::new(DiffService::builder(store).threads(threads).build());
    service.warm_start().expect("mirror warm start");
    service.load_cluster_state(dir);
    service.load_metric_state(dir);
    service.load_streams(dir).expect("mirror stream resume");
    service
}

fn same_drift(got: &DriftResponse, want: &DriftReport) -> bool {
    got.drifted == want.drifted
        && got.events == want.events
        && got.nodes == want.nodes
        && got.completed_leaves == want.completed_leaves
        && got.clusters.len() == want.clusters.len()
        && got.clusters.iter().zip(&want.clusters).all(|(g, w)| {
            g.medoid == w.medoid
                && g.size == w.size
                && g.radius.to_bits() == w.radius.to_bits()
                && g.lower_bound.to_bits() == w.lower_bound.to_bits()
                && g.exceeds == w.exceeds
        })
}

fn parse<T: for<'de> serde::Deserialize<'de>>(body: &str) -> Option<T> {
    serde_json::from_str(body).ok()
}

pub fn run(ctx: &Ctx, sz: &Sizes) -> Outcome {
    let mut out = Outcome::default();
    let coll = Collection::fig14("ing", sz.edges, sz.runs);
    let spec = coll.name().to_string();
    for (key, value) in [
        ("runs", sz.runs),
        ("edges", sz.edges),
        ("kmedoids_k", sz.k),
        ("batch_events", sz.batch_events),
        ("open_streams", sz.open_streams),
        ("connections", 1),
    ] {
        out.size(key, value);
    }
    out.size("offered_ops_per_s", sz.rate);
    out.size("mix", "45% POST /runs, 45% POST /runs/stream, 10% reads (kmedoids, similar, drift)");

    let dir = ctx.work.join("ingest");
    let mirror_dir = ctx.work.join("ingest-mirror");
    let checkpoints =
        Checkpoints { kmedoids: vec![(spec.clone(), sz.k)], metric: vec![spec.clone()] };
    save_store(&dir, &[&coll], &checkpoints, ctx.threads);
    let _ = std::fs::remove_dir_all(&mirror_dir);
    copy_dir(&dir, &mirror_dir).expect("copy the store for the mirror");

    // The plan: one sequence, one connection.  The open loop runs for the
    // first half of the run (latency); the rest of the plan then goes back
    // to back (throughput, the gated figure, and several folds: at the
    // offered rate the server is far from busy, so the open loop's goodput
    // would only echo the rate).
    let mut rng = ctx.rng(0x60);
    let open_s = ctx.seconds / 2.0;
    let mut due_times = poisson(sz.rate, open_s, &mut rng);
    let open_ops = due_times.len();
    let closed_ops = (sz.closed_rate * (ctx.seconds - open_s)).round() as usize;
    due_times.resize(open_ops + closed_ops, 0.0);
    out.size("open_loop_s", open_s);
    out.size("closed_loop_ops", closed_ops);
    // The mix is exact in every block of twenty operations (nine inserts,
    // nine stream batches, two reads taking turns over the three read
    // kinds), shuffled within the block.  A k-medoids read costs up to a
    // hundred times an insert, so a mix drawn op by op made the closed
    // loop's rate depend on the seed by a fifth.
    let kinds: Vec<u8> = (0..due_times.len().div_ceil(20))
        .flat_map(|_| {
            let mut block = [[0u8; 9].as_slice(), &[1; 9], &[2; 2]].concat();
            block.shuffle(&mut rng);
            block
        })
        .take(due_times.len())
        .collect();
    // The runs written are the same for every seed, which sets only their
    // order: which runs a seed drew moved the closed loop's rate as well.
    let mut fresh = coll.fresh_runs(kinds.iter().filter(|&&k| k == 0).count(), 0x61);
    fresh.shuffle(&mut rng);
    let stream_runs = coll.fresh_runs(due_times.len() / 2 + sz.open_streams, 0x62);
    let initial = coll.run_names();
    let mut next_insert = 0;
    let mut next_stream = 0;
    // In-flight streams: (index, batches of events, next batch).
    let mut open: Vec<(usize, Vec<Vec<StreamEvent>>, usize)> = Vec::new();
    let mut ops: Vec<Op> = Vec::with_capacity(due_times.len());
    let mut plans: Vec<Plan> = Vec::with_capacity(due_times.len());
    let mut reads = rng.gen_range(0..3);
    for (due, kind) in due_times.into_iter().zip(kinds) {
        let (op, plan) = if kind == 0 {
            let descriptor = wfdiff_pdiffview::RunDescriptor::from_run(&fresh[next_insert]);
            let body =
                format!("{{\"name\": \"new-{next_insert}\", \"run\": {}}}", descriptor.to_json());
            next_insert += 1;
            ((Class::Insert, "POST", "/runs".to_string(), body), Plan::Insert)
        } else if kind == 1 {
            while open.len() < sz.open_streams {
                let events = lifecycle_events(&stream_runs[next_stream]);
                open.push((
                    next_stream,
                    events.chunks(sz.batch_events).map(<[_]>::to_vec).collect(),
                    0,
                ));
                next_stream += 1;
            }
            let slot = rng.gen_range(0..open.len());
            let (idx, batches, next) = &mut open[slot];
            let events = batches[*next].clone();
            *next += 1;
            let finalize = *next == batches.len();
            let stream = format!("s-{idx}");
            if finalize {
                open.swap_remove(slot);
            }
            let body = serde_json::to_string(&StreamEventsRequest {
                spec: spec.clone(),
                stream: stream.clone(),
                events: events.clone(),
                finalize,
            })
            .expect("stream batch serialises");
            (
                (Class::Stream, "POST", "/runs/stream".to_string(), body),
                Plan::Stream { stream, events, finalize },
            )
        } else {
            let started: Vec<usize> =
                open.iter().filter(|(_, _, n)| *n > 0).map(|(i, _, _)| *i).collect();
            reads += 1;
            match reads % 3 {
                0 => (
                    (
                        Class::Read,
                        "GET",
                        format!(
                            "/cluster?spec={}&algo=kmedoids&k={}&seed={DEFAULT_CLUSTER_SEED}",
                            encode(&spec),
                            sz.k
                        ),
                        String::new(),
                    ),
                    Plan::Kmedoids,
                ),
                1 => {
                    let run = initial.choose(&mut rng).expect("the store has runs").clone();
                    let path = format!(
                        "/similar?spec={}&run={}&k={}&pruned=1",
                        encode(&spec),
                        encode(&run),
                        sz.similar_k
                    );
                    ((Class::Similar, "GET", path, String::new()), Plan::Similar { run })
                }
                _ if !started.is_empty() => {
                    let stream = format!("s-{}", started.choose(&mut rng).expect("non-empty"));
                    let path = format!("/runs/{}/{}/drift", encode(&spec), encode(&stream));
                    ((Class::Read, "GET", path, String::new()), Plan::Drift { stream })
                }
                _ => (
                    (
                        Class::Read,
                        "GET",
                        format!(
                            "/cluster?spec={}&algo=kmedoids&k={}&seed={DEFAULT_CLUSTER_SEED}",
                            encode(&spec),
                            sz.k
                        ),
                        String::new(),
                    ),
                    Plan::Kmedoids,
                ),
            }
        };
        ops.push(Op { due, class: op.0, method: op.1, path: op.2, body: op.3, tag: plans.len() });
        plans.push(plan);
    }
    out.size("planned_ops", ops.len());

    let (booted, setup) = boot_repeated(ctx, &dir, sz.boots, true);
    out.end_to_end.insert("setup_s", setup.total_s);
    let before = Scrape::fetch(booted.addr);
    let io_before = booted.io.as_ref().map(|c| c.counts());
    let cache_before = booted.cache.as_ref().map(|c| c.counts());
    let wal_before = booted.service.wal_stats();
    // No in-process replay here: replaying the expensive reads would delay
    // the single connection's schedule; transport is probed afterwards.
    let steal = steal_ticks();
    let open = drive(booted.addr, &ops[..open_ops], Instant::now(), None, None, ctx.tracer());
    // Memory after the open loop's fixed amount of work.  Read after the
    // closed loop's synchronous folds, it spread 0.13 of its median over ten
    // seeds, against 0.04 here: the allocator keeps a varying share of
    // their buffers.
    out.end_to_end.insert("rss_mb", rss_mb());
    let after = Scrape::fetch(booted.addr);
    let closed_start = Instant::now();
    let closed = drive(
        booted.addr,
        &ops[open_ops..],
        closed_start,
        // A cap only: a much slower server still ends the run in time.
        Some(4.0 * (ctx.seconds - open_s)),
        None,
        ctx.tracer(),
    );
    let closed_s = closed_start.elapsed().as_secs_f64();
    out.named.insert("steal_ticks".to_string(), (steal_ticks() - steal) as f64);
    let wal_after = booted.service.wal_stats();
    let op_refs: Vec<&Op> = ops.iter().take(open_ops).collect();
    phase::record(ctx, &mut out, &op_refs, &open, &before, &after);
    let all = phase::latencies(&op_refs, &open, None);
    out.named.insert("all_p50_ms".to_string(), stats::median(&all));
    let (tail, p) = stats::tail(&all);
    out.named.insert(format!("all_p{p}_ms"), tail);
    // The open loop's goodput: below the offered rate when a backlog grows.
    let last = open.iter().map(|d| d.done).fold(0.0, f64::max);
    out.named.insert("open_goodput_per_s".to_string(), all.len() as f64 / last);
    out.attempted += closed.len() as u64;
    out.failed += closed.iter().filter(|d| d.status / 100 != 2).count() as u64;
    let completed = closed.iter().filter(|d| d.status / 100 == 2).count();
    out.end_to_end.insert("throughput_per_s", completed as f64 / closed_s);
    let done: Vec<Done> = open.into_iter().chain(closed).collect();
    out.named
        .insert("wal_folds".to_string(), (wal_after.folds_total - wal_before.folds_total) as f64);

    // Recovery replays a WAL tail of fixed length: one fold, as the server
    // does at its threshold, then a fixed number of acknowledged inserts.
    // Where the phase's own folds fell would otherwise set the replay.
    booted.service.store().save_to_dir(&dir).expect("the store directory is writable");
    let mut client = Client::connect(booted.addr).expect("connect");
    let mut acked_runs: Vec<String> = Vec::new();
    for (i, run) in coll.fresh_runs(sz.tail_writes, ctx.seed ^ 0x63).iter().enumerate() {
        let name = format!("tail-{i}");
        let body = format!(
            "{{\"name\": \"{name}\", \"run\": {}}}",
            wfdiff_pdiffview::RunDescriptor::from_run(run).to_json()
        );
        let ok = client.request("POST", "/runs", &body).is_ok_and(|r| r.status == 201);
        out.check(ok, || format!("tail insert {name} refused"));
        acked_runs.push(name);
    }

    // The live answers recovery must reproduce; the k-medoids read also
    // checkpoints the final clustering.
    let mut live_get = |path: &str| {
        client.request("GET", path, "").ok().filter(|r| r.status == 200).map(|r| r.body)
    };
    let km_path = format!(
        "/cluster?spec={}&algo=kmedoids&k={}&seed={DEFAULT_CLUSTER_SEED}",
        encode(&spec),
        sz.k
    );
    let live_km =
        live_get(&km_path).and_then(|b| parse::<KMedoidsResponse>(&b)).map(|r| clustering(&r));
    let probe_runs: Vec<String> = initial.iter().take(2).cloned().collect();
    let sim_path = |run: &str| {
        format!("/similar?spec={}&run={}&k={}&pruned=1", encode(&spec), encode(run), sz.similar_k)
    };
    let diff_path =
        |a: &str, b: &str| format!("/diff?spec={}&a={}&b={}", encode(&spec), encode(a), encode(b));
    let live_sim: Vec<_> = probe_runs
        .iter()
        .map(|r| {
            live_get(&sim_path(r)).and_then(|b| parse::<SimilarResponse>(&b)).map(|r| neighbors(&r))
        })
        .collect();
    let live_diff: Vec<_> = initial
        .windows(2)
        .take(4)
        .map(|w| {
            live_get(&diff_path(&w[0], &w[1]))
                .and_then(|b| parse::<DiffResponse>(&b))
                .map(|r| r.distance.to_bits())
        })
        .collect();
    drop(client);

    // Correctness: replay the acknowledged operations, in order, on a local
    // mirror booted from a copy of the initial directory.
    let local = mirror(&mirror_dir, ctx.threads);
    let tracer = ctx.tracer();
    let (mut stream_us, mut drift_us) = (Vec::new(), Vec::new());
    let mut acked_seq: BTreeMap<String, u64> = BTreeMap::new();
    let (mut writes, mut user_bytes, mut evals, mut pruned, mut similar_n) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for (op, d) in ops.iter().zip(&done) {
        if d.status / 100 != 2 {
            continue;
        }
        match &plans[op.tag] {
            Plan::Insert => {
                let req: InsertRunRequest = parse(&op.body).expect("own request parses");
                let ack = parse::<InsertRunResponse>(&d.body);
                if d.status != 201 || !ack.as_ref().is_some_and(|a| a.persisted) {
                    out.mismatch(format!("insert not acknowledged durably: {}", d.body));
                    continue;
                }
                let stored = local.store().spec(&spec).expect("the mirror holds the spec");
                let inserted = req
                    .run
                    .to_run(&stored)
                    .ok()
                    .and_then(|run| local.store().insert_run_new(&req.name, run).ok());
                if inserted.is_none() {
                    out.mismatch(format!("mirror refused insert {} the server accepted", req.name));
                    continue;
                }
                local.notify_run_inserted(&spec, &req.name);
                acked_runs.push(req.name);
                writes += 1;
                user_bytes += op.body.len() as u64;
            }
            Plan::Stream { stream, events, finalize } => {
                let Some(got) = parse::<StreamEventsResponse>(&d.body) else {
                    out.mismatch(format!("unparsable stream reply: {}", d.body));
                    continue;
                };
                writes += 1;
                user_bytes += op.body.len() as u64;
                let started = Instant::now();
                let outcome = span(tracer, "service.stream_events", 0, 0, |_| {
                    local.stream_events(&spec, stream, events)
                });
                stream_us.push(started.elapsed().as_secs_f64() * 1e6);
                let Ok(outcome) = outcome else {
                    out.mismatch(format!(
                        "mirror refused a batch the server accepted for {stream}"
                    ));
                    continue;
                };
                let ack = outcome.ack;
                out.check(
                    ack.seq == got.seq
                        && ack.base_seq == got.base_seq
                        && ack.nodes == got.nodes
                        && ack.complete == got.complete
                        && got.persisted,
                    || format!("stream ack for {stream} differs: {}", d.body),
                );
                acked_seq.insert(stream.clone(), ack.seq);
                if *finalize {
                    let finalized = local
                        .finalize_stream(&spec, stream)
                        .ok()
                        .and_then(|(run, _)| local.store().insert_run_new(stream, run).ok());
                    if finalized.is_none() {
                        out.mismatch(format!("mirror could not finalize stream {stream}"));
                        continue;
                    }
                    local.remove_stream(&spec, stream);
                    local.notify_run_inserted(&spec, stream);
                    out.check(got.finalized && d.status == 201, || {
                        format!("stream {stream} not finalized")
                    });
                    acked_seq.remove(stream);
                    acked_runs.push(stream.clone());
                } else {
                    let started = Instant::now();
                    let want = span(tracer, "service.drift_report", 0, 0, |_| {
                        local.drift_report(&spec, stream)
                    })
                    .expect("mirror drift");
                    drift_us.push(started.elapsed().as_secs_f64() * 1e6);
                    let ok = got.drift.as_ref().is_some_and(|g| same_drift(g, &want));
                    out.check(ok, || format!("drift verdict for {stream} differs: {}", d.body));
                }
            }
            Plan::Kmedoids => {
                let want = local
                    .cluster_medoids(&spec, sz.k, DEFAULT_CLUSTER_SEED)
                    .expect("mirror kmedoids");
                let got = parse::<KMedoidsResponse>(&d.body);
                let ok = got.as_ref().is_some_and(|g| {
                    g.clusters.len() == want.clusters.len()
                        && g.clusters
                            .iter()
                            .zip(&want.clusters)
                            .all(|(g, w)| g.medoid == w.medoid && g.runs == w.runs)
                        && g.silhouette.to_bits() == want.silhouette.to_bits()
                        && g.cost.to_bits() == want.cost.to_bits()
                });
                out.check(ok, || format!("k-medoids differs: {}", d.body));
            }
            Plan::Similar { run } => {
                let want: Vec<(String, u64)> = local
                    .nearest_runs(&spec, run, sz.similar_k)
                    .expect("mirror sweep")
                    .into_iter()
                    .map(|p| (p.target, p.distance.to_bits()))
                    .collect();
                let got = parse::<SimilarResponse>(&d.body);
                if let Some(g) = &got {
                    evals += g.distance_evals;
                    pruned += g.members_pruned;
                    similar_n += 1;
                }
                out.check(got.as_ref().map(neighbors) == Some(want), || {
                    format!("/similar {run} differs: {}", d.body)
                });
            }
            Plan::Drift { stream } => {
                let want = local.drift_report(&spec, stream).expect("mirror drift");
                let ok = parse::<DriftResponse>(&d.body).is_some_and(|g| same_drift(&g, &want));
                out.check(ok, || format!("drift read for {stream} differs: {}", d.body));
            }
        }
    }

    if ctx.tracing() {
        out.layer("service.stream_events_us", stats::median(&stream_us));
        out.layer("service.drift_report_us", stats::median(&drift_us));
        out.layer("metricindex.evals_per_query", evals as f64 / similar_n.max(1) as f64);
        out.layer(
            "metricindex.members_pruned_ratio",
            pruned as f64 / (pruned + evals).max(1) as f64,
        );
        if let (Some(c), Some(b)) = (&booted.io, &io_before) {
            phase::record_io(
                &mut out,
                &c.counts().since(b),
                writes,
                user_bytes,
                wal_after.folds_total - wal_before.folds_total,
            );
        }
        if let (Some(c), Some(b)) = (&booted.cache, &cache_before) {
            phase::record_cache(&mut out, &c.counts().since(b));
        }
        prefix_probe(ctx, &mut out, &coll, &local, &stream_runs, sz);
    }
    drop(local);
    if ctx.tracing() {
        let paths = vec![format!("/specs/{}/runs", encode(&spec)); 64];
        out.layer("serve.transport_us", transport_probe(&booted, &paths, ctx.tracer()));
    }
    booted.shutdown();

    // Recovery: cold reboots from the directory, WAL replay included.
    let (rec, recovery) = boot_repeated(ctx, &dir, RECOVERY_BOOTS, false);
    out.named.insert("recovery_s".to_string(), recovery.total_s);
    let store = rec.service.store();
    for name in &acked_runs {
        out.check(store.run(&spec, name).is_some(), || {
            format!("acknowledged run {name} lost in recovery")
        });
    }
    let mut resumed: Vec<String> = rec.service.stream_names(&spec);
    resumed.sort();
    let expected: Vec<String> = acked_seq.keys().cloned().collect();
    out.check(resumed == expected, || {
        format!("in-flight streams after recovery {resumed:?}, expected {expected:?}")
    });
    for (stream, seq) in &acked_seq {
        out.check(rec.service.stream_seq(&spec, stream) == Some(*seq), || {
            format!("stream {stream} lost acknowledged events")
        });
    }
    let mut client = Client::connect(rec.addr).expect("connect");
    let mut rec_get = |path: &str| {
        client.request("GET", path, "").ok().filter(|r| r.status == 200).map(|r| r.body)
    };
    let km = rec_get(&km_path).and_then(|b| parse::<KMedoidsResponse>(&b)).map(|r| clustering(&r));
    out.check(km.is_some() && km == live_km, || {
        "recovered k-medoids differs from the live server".to_string()
    });
    for (run, live) in probe_runs.iter().zip(&live_sim) {
        let got = rec_get(&sim_path(run))
            .and_then(|b| parse::<SimilarResponse>(&b))
            .map(|r| neighbors(&r));
        out.check(got.is_some() && &got == live, || format!("recovered /similar {run} differs"));
    }
    for (w, live) in initial.windows(2).zip(&live_diff) {
        let got = rec_get(&diff_path(&w[0], &w[1]))
            .and_then(|b| parse::<DiffResponse>(&b))
            .map(|r| r.distance.to_bits());
        out.check(got.is_some() && &got == live, || {
            format!("recovered /diff {} {} differs", w[0], w[1])
        });
    }
    drop(client);
    if ctx.tracing() {
        boot_layers(&mut out, &setup, rec.service.wal_stats().replayed_records);
    }
    rec.shutdown();
    if ctx.tracing() {
        let pairs: Vec<(String, String)> =
            initial.windows(2).map(|w| (w[0].clone(), w[1].clone())).collect();
        crate::probes::record(ctx, &mut out, &coll, &pairs);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&mirror_dir);
    out
}

/// `core.prefix_distance_us`: the certified lower bound of half-streamed
/// runs against the current medoids.
fn prefix_probe(
    ctx: &Ctx,
    out: &mut Outcome,
    coll: &Collection,
    local: &DiffService,
    runs: &[wfdiff_sptree::Run],
    sz: &Sizes,
) {
    let spec = local.store().spec(coll.name()).expect("the spec is stored");
    let medoids: Vec<String> = local
        .cluster_medoids(coll.name(), sz.k, DEFAULT_CLUSTER_SEED)
        .map(|s| s.clusters.iter().map(|c| c.medoid.clone()).collect())
        .unwrap_or_default();
    let engine = WorkflowDiff::new(&spec, &UnitCost);
    let references: Vec<_> =
        medoids.iter().filter_map(|m| local.store().run(coll.name(), m)).collect();
    let prepared: Vec<_> =
        references.iter().map(|r| engine.prepare(r, None).expect("stored runs prepare")).collect();
    let mut times = Vec::new();
    for run in runs.iter().take(8) {
        let events = lifecycle_events(run);
        let mut partial = PartialRun::new(Arc::clone(&spec));
        for event in &events[..events.len() / 2] {
            partial.apply(event).expect("derived events apply");
        }
        for reference in &prepared {
            let started = Instant::now();
            span(ctx.tracer(), "core.prefix_distance", 0, 0, |_| {
                engine.prefix_distance(partial.profile(), None, reference, None)
            })
            .expect("same specification");
            times.push(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    out.layer("core.prefix_distance_us", stats::median(&times));
}
