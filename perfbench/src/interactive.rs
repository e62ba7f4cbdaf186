//! `interactive`: analysts differencing runs of one specification.
//!
//! Open loop: seeded Poisson arrivals at a fixed offered rate, well under
//! capacity, then at a higher one, about half of it, over one keep-alive
//! connection per server thread.  The store holds a large
//! Fig. 14-style collection (`main`, the diff hot set), a small one with
//! cluster and metric-index checkpoints (`sim`, the `/similar` queries and
//! run listings) and a small one that takes the inserts (`ins`, also
//! checkpointed).  Inserts go to their own specification so that every
//! `/diff` and `/similar` answer has one correct value however the two
//! connections interleave.  The cache is warmed on the hot set before
//! timing, so the serving tier dominates and the DP kernel hardly runs.

use crate::common::*;
use crate::http::{encode, Client};
use crate::openloop::{drive, poisson, Class, Done, Op};
use crate::{phase, probes, stats};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;
use std::time::Instant;
use wfdiff_pdiffview::serve::api::{
    DiffResponse, InsertRunResponse, KMedoidsResponse, RunsResponse, SimilarResponse,
};
use wfdiff_pdiffview::serve::handlers::AppState;
use wfdiff_pdiffview::{DiffService, RunDescriptor, DEFAULT_CLUSTER_SEED};

pub struct Sizes {
    pub main_runs: usize,
    pub main_edges: usize,
    pub sim_runs: usize,
    pub sim_k: usize,
    pub ins_runs: usize,
    pub ins_edges: usize,
    pub ins_k: usize,
    pub hot_pairs: usize,
    pub queries: usize,
    pub similar_k: usize,
    /// Offered requests per second in the first half, over all
    /// connections: well under capacity, for latency.
    pub rate: f64,
    /// Offered requests per second in the second half, over all
    /// connections: about half the capacity of a 2-vCPU machine, for the
    /// gated goodput.
    pub high_rate: f64,
    /// Boots whose median is `setup_s`.
    pub boots: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            main_runs: 2000,
            main_edges: 60,
            sim_runs: 100,
            sim_k: 4,
            ins_runs: 40,
            ins_edges: 30,
            ins_k: 3,
            hot_pairs: 256,
            queries: 100,
            similar_k: 10,
            rate: 200.0,
            high_rate: 1000.0,
            boots: 9,
        }
    }

    /// A quick configuration for the benchmark's self-tests.
    pub fn small() -> Sizes {
        Sizes {
            main_runs: 80,
            main_edges: 30,
            sim_runs: 30,
            sim_k: 3,
            ins_runs: 12,
            ins_edges: 20,
            ins_k: 2,
            hot_pairs: 32,
            queries: 4,
            similar_k: 5,
            rate: 200.0,
            high_rate: 400.0,
            boots: 1,
        }
    }
}

fn diff_path(spec: &str, a: &str, b: &str) -> String {
    format!("/diff?spec={}&a={}&b={}", encode(spec), encode(a), encode(b))
}

fn similar_path(spec: &str, run: &str, k: usize) -> String {
    format!("/similar?spec={}&run={}&k={k}&pruned=1", encode(spec), encode(run))
}

fn kmedoids_path(spec: &str, k: usize) -> String {
    format!("/cluster?spec={}&algo=kmedoids&k={k}&seed={DEFAULT_CLUSTER_SEED}", encode(spec))
}

/// The body of a successful `GET`, or `None`.
fn get(client: &mut Client, path: &str) -> Option<String> {
    client.request("GET", path, "").ok().filter(|r| r.status == 200).map(|r| r.body)
}

fn parse<T: for<'de> serde::Deserialize<'de>>(body: &str) -> Option<T> {
    serde_json::from_str(body).ok()
}

/// Neighbour lists as `(run, distance bits)`, for exact comparison.
pub fn neighbors(r: &SimilarResponse) -> Vec<(String, u64)> {
    r.neighbors.iter().map(|n| (n.run.clone(), n.distance.to_bits())).collect()
}

/// A k-medoids answer as `(medoid, size, members)` per cluster plus the
/// silhouette and cost bits.
pub type Clustering = (Vec<(String, usize, Vec<String>)>, u64, u64);

/// A k-medoids answer without its `persisted` flag, for exact comparison.
pub fn clustering(r: &KMedoidsResponse) -> Clustering {
    let clusters = r.clusters.iter().map(|c| (c.medoid.clone(), c.size, c.runs.clone())).collect();
    (clusters, r.silhouette.to_bits(), r.cost.to_bits())
}

pub fn run(ctx: &Ctx, sz: &Sizes) -> Outcome {
    let mut out = Outcome::default();
    let main = Collection::fig14("main", sz.main_edges, sz.main_runs);
    let sim = Collection::fig14("sim", sz.main_edges, sz.sim_runs);
    let ins = Collection::fig14("ins", sz.ins_edges, sz.ins_runs);
    for (key, value) in [
        ("main_runs", sz.main_runs),
        ("main_edges", sz.main_edges),
        ("sim_runs", sz.sim_runs),
        ("ins_runs", sz.ins_runs),
        ("ins_edges", sz.ins_edges),
        ("hot_pairs", sz.hot_pairs),
        ("similar_queries", sz.queries),
        ("connections", ctx.threads),
    ] {
        out.size(key, value);
    }
    out.size("offered_rps", sz.rate);
    out.size(
        "mix",
        "70% GET /diff, 15% reads, 10% GET /similar?pruned=1, 5% POST /runs (second half: diffs)",
    );

    let dir = ctx.work.join("interactive");
    let checkpoints = Checkpoints {
        kmedoids: vec![(sim.name().to_string(), sz.sim_k), (ins.name().to_string(), sz.ins_k)],
        metric: vec![sim.name().to_string(), ins.name().to_string()],
    };
    save_store(&dir, &[&main, &sim, &ins], &checkpoints, ctx.threads);
    let (booted, setup) = boot_repeated(ctx, &dir, sz.boots, true);
    out.end_to_end.insert("setup_s", setup.total_s);

    let mut rng = ctx.rng(0x20);
    let main_names = main.run_names();
    let mut hot: Vec<(String, String)> = Vec::with_capacity(sz.hot_pairs);
    while hot.len() < sz.hot_pairs {
        let a = rng.gen_range(0..main_names.len());
        let b = rng.gen_range(0..main_names.len());
        if a != b {
            hot.push((main_names[a].clone(), main_names[b].clone()));
        }
    }
    let mut queries = sim.run_names();
    queries.shuffle(&mut rng);
    queries.truncate(sz.queries);

    // Warm the cache on the hot set and the similar queries.
    let mut client = Client::connect(booted.addr).expect("connect");
    for (a, b) in &hot {
        get(&mut client, &diff_path(main.name(), a, b)).expect("warm-up diff answers");
    }
    for q in &queries {
        get(&mut client, &similar_path(sim.name(), q, sz.similar_k))
            .expect("warm-up similar answers");
    }

    // One plan per connection and phase, both open loops: the first half
    // of the run at a rate well under capacity (latency, writes for
    // recovery), the second half at about half the capacity of a 2-vCPU
    // machine (goodput, the gated figure).  The goodput falls below the
    // offered rate only when the server cannot keep up, so it catches a
    // capacity loss of about two times and cannot show a gain; a closed
    // loop's rate would, but it moved by up to 0.28 of its median over ten
    // seeds with the host's load.  The second half sends reads only, its
    // insert share going to diffs, so the WAL it leaves for recovery is the
    // first half's.
    let conns = ctx.threads.max(1);
    let open_s = ctx.seconds / 2.0;
    let plan = |c: usize, phase: &str, dues: Vec<f64>| -> Vec<Op> {
        let mut rng = ctx.rng(0x100 + c as u64 + if phase == "open" { 0 } else { 0x80 });
        let mut ops = Vec::with_capacity(dues.len());
        let mut inserts = 0;
        for due in dues {
            let roll = rng.gen_range(0..100);
            let op = if roll < 70 {
                let tag = rng.gen_range(0..hot.len());
                let (a, b) = &hot[tag];
                (Class::Diff, "GET", diff_path(main.name(), a, b), tag)
            } else if roll < 85 {
                let path = if rng.gen_bool(0.5) {
                    "/healthz".to_string()
                } else {
                    format!("/specs/{}/runs", encode(sim.name()))
                };
                (Class::Read, "GET", path, 0)
            } else if roll < 95 {
                let tag = rng.gen_range(0..queries.len());
                (Class::Similar, "GET", similar_path(sim.name(), &queries[tag], sz.similar_k), tag)
            } else if phase == "open" {
                inserts += 1;
                (Class::Insert, "POST", "/runs".to_string(), inserts - 1)
            } else {
                let tag = rng.gen_range(0..hot.len());
                let (a, b) = &hot[tag];
                (Class::Diff, "GET", diff_path(main.name(), a, b), tag)
            };
            ops.push(Op {
                due,
                class: op.0,
                method: op.1,
                path: op.2,
                body: String::new(),
                tag: op.3,
            });
        }
        let fresh = ins.fresh_runs(inserts, rng.gen());
        for op in ops.iter_mut().filter(|o| o.class == Class::Insert) {
            let descriptor = RunDescriptor::from_run(&fresh[op.tag]);
            op.body = format!(
                "{{\"name\": \"{phase}-{c}-{}\", \"run\": {}}}",
                op.tag,
                descriptor.to_json()
            );
        }
        ops
    };
    let open_plans: Vec<Vec<Op>> = (0..conns)
        .map(|c| {
            let mut rng = ctx.rng(0x300 + c as u64);
            plan(c, "open", poisson(sz.rate / conns as f64, open_s, &mut rng))
        })
        .collect();
    let high_s = ctx.seconds - open_s;
    let high_plans: Vec<Vec<Op>> = (0..conns)
        .map(|c| {
            let mut rng = ctx.rng(0x380 + c as u64);
            plan(c, "high", poisson(sz.high_rate / conns as f64, high_s, &mut rng))
        })
        .collect();
    out.size("open_loop_s", open_s);
    out.size("high_rate_s", high_s);
    out.size("high_rate_rps", sz.high_rate);

    // The timed phases.
    let run_phase = |plans: &[Vec<Op>], deadline: Option<f64>, replay: Option<&AppState>| {
        let start = Instant::now();
        std::thread::scope(|s| {
            let workers: Vec<_> = plans
                .iter()
                .map(|ops| {
                    s.spawn(move || drive(booted.addr, ops, start, deadline, replay, ctx.tracer()))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client threads do not panic"))
                .collect::<Vec<_>>()
        })
    };
    let before = Scrape::fetch(booted.addr);
    let cache_before = booted.cache.as_ref().map(|c| c.counts());
    let io_before = booted.io.as_ref().map(|c| c.counts());
    let wal_before = booted.service.wal_stats();
    let replay_state = ctx.tracing().then(|| booted.replay_state());
    let steal = steal_ticks();
    let open_done = run_phase(&open_plans, None, replay_state.as_ref());
    out.end_to_end.insert("rss_mb", rss_mb());
    let after = Scrape::fetch(booted.addr);
    // The deadline is a cap only: a server too slow for the rate still
    // ends the run in time, and its goodput falls.
    let high_done = run_phase(&high_plans, Some(2.0 * high_s), None);
    out.named.insert("steal_ticks".to_string(), (steal_ticks() - steal) as f64);
    let open_ops: Vec<&Op> = open_plans.iter().flatten().collect();
    let open_done: Vec<Done> = open_done.into_iter().flatten().collect();
    phase::record(ctx, &mut out, &open_ops, &open_done, &before, &after);
    let all = phase::latencies(&open_ops, &open_done, None);
    // The open loop's goodput: below the offered rate when a backlog grows.
    let last = open_done.iter().map(|d| d.done).fold(0.0, f64::max);
    out.named.insert("open_goodput_per_s".to_string(), all.len() as f64 / last);
    out.named.insert("all_p50_ms".to_string(), stats::median(&all));
    let (tail, p) = stats::tail(&all);
    out.named.insert(format!("all_p{p}_ms"), tail);
    // A connection stops at the deadline; its plan's prefix was sent.
    let mut ops = open_ops;
    let mut done = open_done;
    let high_ops: Vec<&Op> =
        high_plans.iter().zip(&high_done).flat_map(|(p, d)| p.iter().take(d.len())).collect();
    let high_done: Vec<Done> = high_done.into_iter().flatten().collect();
    out.attempted += high_done.len() as u64;
    out.failed += high_done.iter().filter(|d| d.status / 100 != 2).count() as u64;
    let high = phase::latencies(&high_ops, &high_done, None);
    let last = high_done.iter().map(|d| d.done).fold(0.0, f64::max);
    out.end_to_end.insert("throughput_per_s", high.len() as f64 / last);
    out.named.insert("high_p50_ms".to_string(), stats::median(&high));
    let (tail, p) = stats::tail(&high);
    out.named.insert(format!("high_p{p}_ms"), tail);
    ops.extend(high_ops);
    done.extend(high_done);

    // Correctness: every answer against an independent local recompute.
    let local = DiffService::new(memory_store(&[&main, &sim]));
    let expected_diff: Vec<u64> = hot
        .iter()
        .map(|(a, b)| local.diff(main.name(), a, b).expect("local diff").distance.to_bits())
        .collect();
    let expected_similar: Vec<Vec<(String, u64)>> = queries
        .iter()
        .map(|q| {
            local
                .nearest_runs(sim.name(), q, sz.similar_k)
                .expect("local sweep")
                .into_iter()
                .map(|p| (p.target, p.distance.to_bits()))
                .collect()
        })
        .collect();
    drop(local);
    let mut acked: Vec<String> = Vec::new();
    let (mut evals, mut pruned, mut diff_bytes, mut diff_count, mut insert_bytes) = (0, 0, 0, 0, 0);
    for (op, d) in ops.iter().zip(&done) {
        if d.status / 100 != 2 {
            continue;
        }
        match op.class {
            Class::Diff => {
                let got = parse::<DiffResponse>(&d.body).map(|r| r.distance.to_bits());
                out.check(got == Some(expected_diff[op.tag]), || {
                    format!("{}: {}", op.path, d.body)
                });
                diff_bytes += d.response_bytes;
                diff_count += 1;
            }
            Class::Similar => {
                let got = parse::<SimilarResponse>(&d.body);
                if let Some(r) = &got {
                    evals += r.distance_evals;
                    pruned += r.members_pruned;
                }
                let ok = got.as_ref().map(neighbors).as_ref() == Some(&expected_similar[op.tag]);
                out.check(ok, || format!("{}: {}", op.path, d.body));
            }
            Class::Insert => match parse::<InsertRunResponse>(&d.body) {
                Some(r) if r.persisted && d.status == 201 => {
                    acked.push(r.name);
                    insert_bytes += op.body.len();
                }
                _ => out.mismatch(format!("insert not acknowledged durably: {}", d.body)),
            },
            _ => {}
        }
    }

    // The live answers recovery must reproduce.
    let live_km = get(&mut client, &kmedoids_path(ins.name(), sz.ins_k))
        .and_then(|b| parse::<KMedoidsResponse>(&b))
        .map(|r| clustering(&r));
    let live_sim: Vec<_> = queries
        .iter()
        .take(2)
        .map(|q| {
            get(&mut client, &similar_path(sim.name(), q, sz.similar_k))
                .and_then(|b| parse::<SimilarResponse>(&b))
                .map(|r| neighbors(&r))
        })
        .collect();
    drop(client);
    let similar_count =
        ops.iter().zip(&done).filter(|(o, d)| o.class == Class::Similar && d.status == 200).count();
    if ctx.tracing() {
        if let (Some(c), Some(b)) = (&booted.cache, &cache_before) {
            phase::record_cache(&mut out, &c.counts().since(b));
        }
        if let (Some(c), Some(b)) = (&booted.io, &io_before) {
            let folds = booted.service.wal_stats().folds_total - wal_before.folds_total;
            phase::record_io(
                &mut out,
                &c.counts().since(b),
                acked.len() as u64,
                insert_bytes as u64,
                folds,
            );
        }
        out.layer("metricindex.evals_per_query", evals as f64 / similar_count.max(1) as f64);
        out.layer(
            "metricindex.members_pruned_ratio",
            pruned as f64 / (pruned + evals).max(1) as f64,
        );
        out.layer("handlers.response_bytes_per_pair", diff_bytes as f64 / diff_count.max(1) as f64);
    }
    drop(replay_state);
    booted.shutdown();

    // Recovery: cold reboots from the directory, then every acknowledged
    // write and the live answers must be there.
    let (rec, recovery) = boot_repeated(ctx, &dir, RECOVERY_BOOTS, false);
    out.named.insert("recovery_s".to_string(), recovery.total_s);
    let mut client = Client::connect(rec.addr).expect("connect");
    let listed: BTreeSet<String> = get(&mut client, &format!("/specs/{}/runs", encode(ins.name())))
        .and_then(|b| parse::<RunsResponse>(&b))
        .map(|r| r.runs.into_iter().collect())
        .unwrap_or_default();
    for name in &acked {
        out.check(listed.contains(name), || format!("acknowledged insert {name} lost in recovery"));
    }
    for (i, (a, b)) in hot.iter().enumerate().take(8) {
        let got = get(&mut client, &diff_path(main.name(), a, b))
            .and_then(|b| parse::<DiffResponse>(&b))
            .map(|r| r.distance.to_bits());
        out.check(got == Some(expected_diff[i]), || format!("recovered /diff {a} {b} differs"));
    }
    let km = get(&mut client, &kmedoids_path(ins.name(), sz.ins_k))
        .and_then(|b| parse::<KMedoidsResponse>(&b))
        .map(|r| clustering(&r));
    out.check(km.is_some() && km == live_km, || {
        "recovered k-medoids differs from the live server".to_string()
    });
    for (q, live) in queries.iter().zip(&live_sim) {
        let got = get(&mut client, &similar_path(sim.name(), q, sz.similar_k))
            .and_then(|b| parse::<SimilarResponse>(&b))
            .map(|r| neighbors(&r));
        out.check(got.is_some() && &got == live, || format!("recovered /similar {q} differs"));
    }
    out.check(rec.service.stream_names(ins.name()).is_empty(), || {
        "stream state left over".to_string()
    });
    drop(client);
    if ctx.tracing() {
        boot_layers(&mut out, &setup, rec.service.wal_stats().replayed_records);
    }
    rec.shutdown();
    if ctx.tracing() {
        probes::record(ctx, &mut out, &main, &hot);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}
