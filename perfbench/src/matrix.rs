//! `matrix`: a clustering job batch-differencing whole run collections.
//!
//! Closed loop over one connection: each `POST /diff/batch` carries up to
//! 4096 never-before-requested pairs, drawn in seeded order from the
//! all-pairs set, and the next is sent when the reply arrives.  The server
//! is freshly booted, so the cache starts cold.  Two collections: a
//! Fig. 12-style one (low sharing) large enough that its subtree-pair
//! entries overflow the default 2^20-entry cache, and a Fig. 14-style one
//! (high sharing) that fits.  The DP kernel and the cache do almost all the
//! work; there is one round trip per 4096 pairs.

use crate::common::*;
use crate::http::{encode, Client};
use crate::openloop::{Class, Done, Op};
use crate::{phase, probes, stats};
use rand::seq::SliceRandom;
use std::collections::BTreeMap;
use std::time::Instant;
use wfdiff_core::{UnitCost, WorkflowDiff};
use wfdiff_pdiffview::serve::api::{BatchDiffRequest, BatchDiffResponse, DiffResponse};
use wfdiff_pdiffview::DiffService;

pub struct Sizes {
    pub low_runs: usize,
    pub low_edges: usize,
    pub high_runs: usize,
    pub high_edges: usize,
    pub batch: usize,
    /// Every `high_every`-th batch is drawn from the high-sharing collection.
    pub high_every: usize,
    /// Pairs per collection checked against the unmemoised engine.
    pub unmemoised_sample: usize,
    /// Boots whose median is `setup_s`.
    pub boots: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            low_runs: 1400,
            low_edges: 100,
            high_runs: 200,
            high_edges: 60,
            batch: 4096,
            high_every: 4,
            unmemoised_sample: 32,
            boots: 9,
        }
    }

    pub fn small() -> Sizes {
        Sizes {
            low_runs: 60,
            low_edges: 30,
            high_runs: 30,
            high_edges: 20,
            batch: 256,
            high_every: 2,
            unmemoised_sample: 8,
            boots: 1,
        }
    }
}

/// The all-pairs set of `n` runs, as run indices, in seeded order.
fn shuffled_pairs(n: usize, rng: &mut impl rand::Rng) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> =
        (0..n as u32).flat_map(|i| (i + 1..n as u32).map(move |j| (i, j))).collect();
    pairs.shuffle(rng);
    pairs
}

pub fn run(ctx: &Ctx, sz: &Sizes) -> Outcome {
    let mut out = Outcome::default();
    let low = Collection::fig12("low", sz.low_edges, sz.low_runs);
    let high = Collection::fig14("high", sz.high_edges, sz.high_runs);
    for (key, value) in [
        ("low_sharing_runs", sz.low_runs),
        ("low_sharing_edges", sz.low_edges),
        ("high_sharing_runs", sz.high_runs),
        ("high_sharing_edges", sz.high_edges),
        ("batch_pairs", sz.batch),
        ("high_sharing_every_nth_batch", sz.high_every),
        ("connections", 1),
    ] {
        out.size(key, value);
    }
    out.size("loop", "closed, one connection");

    let dir = ctx.work.join("matrix");
    save_store(&dir, &[&low, &high], &Checkpoints::default(), ctx.threads);
    let (booted, setup) = boot_repeated(ctx, &dir, sz.boots, true);
    out.end_to_end.insert("setup_s", setup.total_s);

    let mut rng = ctx.rng(0x40);
    let mut queues =
        [shuffled_pairs(low.runs.len(), &mut rng), shuffled_pairs(high.runs.len(), &mut rng)];
    let names = [low.run_names(), high.run_names()];
    let specs = [low.name().to_string(), high.name().to_string()];

    let before = Scrape::fetch(booted.addr);
    let cache_before = booted.cache.as_ref().map(|c| c.counts());
    let mut client = Client::connect(booted.addr).expect("connect");
    let mut ops: Vec<Op> = Vec::new();
    let mut done: Vec<Done> = Vec::new();
    // Answered pairs as run indices and distance bits, mapped back to names
    // only for verification, so the generator's memory stays small and does
    // not grow with the server's speed.
    let mut served: [Vec<(u32, u32, u64)>; 2] = [Vec::new(), Vec::new()];
    let start = Instant::now();
    let mut batch_no = 0;
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let mut which = usize::from(batch_no % sz.high_every == sz.high_every - 1);
        if queues[which].is_empty() {
            which = 1 - which;
        }
        if queues[which].is_empty() {
            break;
        }
        batch_no += 1;
        let take = sz.batch.min(queues[which].len());
        let at = queues[which].len() - take;
        let batch = queues[which].split_off(at);
        let pairs: Vec<(String, String)> = batch
            .iter()
            .map(|&(i, j)| (names[which][i as usize].clone(), names[which][j as usize].clone()))
            .collect();
        let body = serde_json::to_string(&BatchDiffRequest { spec: specs[which].clone(), pairs })
            .expect("batch request serialises");
        let sent = start.elapsed().as_secs_f64();
        let reply = client.request("POST", "/diff/batch", &body);
        let finished = start.elapsed().as_secs_f64();
        let (status, body_out, response_bytes) = match reply {
            Ok(r) => (r.status, r.body, r.response_bytes),
            Err(_) => {
                client = Client::connect(booted.addr).expect("reconnect");
                (0, String::new(), 0)
            }
        };
        if status == 200 {
            match serde_json::from_str::<BatchDiffResponse>(&body_out) {
                Ok(r) if r.distances.len() == take => {
                    for (&(i, j), d) in batch.iter().zip(&r.distances) {
                        let named = d.source == names[which][i as usize]
                            && d.target == names[which][j as usize];
                        out.check(named, || format!("batch reply out of order at {}", d.source));
                        served[which].push((i, j, d.distance.to_bits()));
                    }
                }
                _ => out.mismatch(format!("malformed batch reply for {} pairs", take)),
            }
        }
        ops.push(Op {
            due: sent,
            class: Class::Batch,
            method: "POST",
            path: String::new(),
            body: String::new(),
            tag: which,
        });
        done.push(Done {
            due: sent,
            sent,
            done: finished,
            status,
            body: String::new(),
            response_bytes,
            replay_us: None,
        });
    }
    let elapsed = start.elapsed().as_secs_f64();
    out.end_to_end.insert("rss_mb", rss_mb());
    let served: [Vec<(String, String, u64)>; 2] = [0, 1].map(|w| {
        served[w]
            .iter()
            .map(|&(i, j, bits)| (names[w][i as usize].clone(), names[w][j as usize].clone(), bits))
            .collect()
    });
    let after = Scrape::fetch(booted.addr);
    let op_refs: Vec<&Op> = ops.iter().collect();
    phase::record(ctx, &mut out, &op_refs, &done, &before, &after);
    let lat = phase::latencies(&op_refs, &done, None);
    let pairs_done = served[0].len() + served[1].len();
    let (tail, p) = stats::tail(&lat);
    out.named.insert(format!("all_p{p}_ms"), tail);
    out.end_to_end.insert("throughput_per_s", pairs_done as f64 / elapsed);
    out.named.insert("pairs_per_s".to_string(), pairs_done as f64 / elapsed);
    out.named.insert("pairs".to_string(), pairs_done as f64);
    out.attempted = ops.len() as u64;
    out.failed = done.iter().filter(|d| d.status != 200).count() as u64;

    if ctx.tracing() {
        if let (Some(c), Some(b)) = (&booted.cache, &cache_before) {
            phase::record_cache(&mut out, &c.counts().since(b));
        }
        let bytes: usize = done.iter().map(|d| d.response_bytes).sum();
        out.layer("handlers.response_bytes_per_pair", bytes as f64 / pairs_done.max(1) as f64);
        // No read-only request runs in the timed phase; measure the
        // transport on warm single-pair diffs of the high-sharing set.
        let paths: Vec<String> = served[1]
            .iter()
            .take(64)
            .map(|(a, b, _)| {
                format!("/diff?spec={}&a={}&b={}", encode(high.name()), encode(a), encode(b))
            })
            .collect();
        out.layer("serve.transport_us", transport_probe(&booted, &paths, ctx.tracer()));
    }
    drop(client);
    booted.shutdown();

    // Correctness: the high-sharing collection against `diff_all_pairs`,
    // the low-sharing one against an in-process `diff_batch` of the same
    // pairs (its full matrix would cost several runs' worth of work), and
    // a seeded sample of each against the unmemoised engine.
    let local = DiffService::builder(memory_store(&[&low, &high])).threads(ctx.threads).build();
    let matrix = local.diff_all_pairs(high.name()).expect("local all-pairs");
    for (a, b, bits) in &served[1] {
        let expected = matrix.distance(a, b).map(f64::to_bits);
        out.check(expected == Some(*bits), || format!("high {a} {b}"));
    }
    for chunk in served[0].chunks(4096) {
        let pairs: Vec<(String, String)> =
            chunk.iter().map(|(a, b, _)| (a.clone(), b.clone())).collect();
        let expected = local.diff_batch(low.name(), &pairs).expect("local batch");
        for ((a, b, bits), e) in chunk.iter().zip(expected) {
            out.check(e.distance.to_bits() == *bits, || format!("low {a} {b}"));
        }
    }
    drop(local);
    let mut rng = ctx.rng(0x41);
    for (coll, got) in [(&low, &served[0]), (&high, &served[1])] {
        let engine = WorkflowDiff::new(&coll.spec, &UnitCost);
        let runs: BTreeMap<&str, &wfdiff_sptree::Run> =
            coll.runs.iter().map(|(n, r)| (n.as_str(), r)).collect();
        let mut picks: Vec<usize> = (0..got.len()).collect();
        picks.shuffle(&mut rng);
        for (a, b, bits) in picks.iter().take(sz.unmemoised_sample).map(|&i| &got[i]) {
            let d = engine.distance(runs[a.as_str()], runs[b.as_str()]).expect("generated runs");
            out.check(d.to_bits() == *bits, || format!("unmemoised {a} {b}"));
        }
    }

    // Recovery: nothing was written, so a reboot must answer as before.
    let (rec, recovery) = boot_repeated(ctx, &dir, RECOVERY_BOOTS, false);
    out.named.insert("recovery_s".to_string(), recovery.total_s);
    let mut client = Client::connect(rec.addr).expect("connect");
    for (a, b, bits) in served[1].iter().take(8) {
        let path = format!("/diff?spec={}&a={}&b={}", encode(high.name()), encode(a), encode(b));
        let got = client
            .request("GET", &path, "")
            .ok()
            .and_then(|r| serde_json::from_str::<DiffResponse>(&r.body).ok())
            .map(|r| r.distance.to_bits());
        out.check(got == Some(*bits), || format!("recovered /diff {a} {b}"));
    }
    drop(client);
    if ctx.tracing() {
        boot_layers(&mut out, &setup, rec.service.wal_stats().replayed_records);
    }
    rec.shutdown();
    if ctx.tracing() {
        let sample: Vec<(String, String)> =
            served[0].iter().take(256).map(|(a, b, _)| (a.clone(), b.clone())).collect();
        probes::record(ctx, &mut out, &low, &sample);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}
