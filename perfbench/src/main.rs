//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints a readable report, writes a tagged result file
//! (and, when tracing, the spans) under `.bench_out/` in the working
//! directory, and prints one JSON object as the last line of standard
//! output.  Exits 1 when any answer fails the correctness gate, 2 on a
//! usage error.

use perfbench::common::{Ctx, Hooks};
use perfbench::trace::Tracer;
use perfbench::{meta, run_workload, END_TO_END, PER_LAYER};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!("usage: perfbench --workload <interactive|matrix|ingest> --seed <n> --seconds <s> --trace <0|1>");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value == "1",
            _ => usage(),
        }
    }
    if args.seconds <= 0.0 {
        usage();
    }
    args
}

#[derive(Serialize)]
struct Value {
    value: f64,
    unit: &'static str,
}

#[derive(Serialize)]
struct Line {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, Value>,
}

#[derive(Serialize)]
struct ResultFile {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    machine: BTreeMap<String, String>,
    sizes: BTreeMap<String, String>,
    correct: bool,
    attempted: u64,
    failed: u64,
    error_ratio: f64,
    mismatches: u64,
    mismatch_notes: Vec<String>,
    end_to_end: BTreeMap<&'static str, f64>,
    per_class: BTreeMap<String, f64>,
    per_layer: BTreeMap<String, f64>,
    self_times: BTreeMap<&'static str, perfbench::trace::SelfTime>,
}

fn main() {
    let args = parse_args();
    let out_dir = PathBuf::from(".bench_out");
    let work = out_dir.join(format!("work-{}-{}", args.workload, std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        work: work.clone(),
        tracer: args.trace.then(|| Arc::new(Tracer::default())),
        hooks: Hooks::default(),
    };
    let Some(mut outcome) = run_workload(&args.workload, &ctx) else { usage() };
    let _ = std::fs::remove_dir_all(&work);

    let correct = outcome.mismatches == 0;
    let mut metrics = BTreeMap::new();
    if args.trace {
        for (name, value) in &outcome.end_to_end {
            outcome.layers.insert(format!("traced.{name}"), *value);
        }
        for (name, unit) in PER_LAYER {
            let value = outcome.layers.get(name).copied().unwrap_or(0.0);
            metrics.insert(name, Value { value, unit });
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = *outcome.end_to_end.get(name).expect("every workload reports every metric");
            metrics.insert(name, Value { value, unit });
        }
    }

    let self_times = ctx.tracer.as_ref().map(|t| t.self_times()).unwrap_or_default();
    let result = ResultFile {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        machine: meta::tags(),
        sizes: outcome.sizes.clone(),
        correct,
        attempted: outcome.attempted,
        failed: outcome.failed,
        error_ratio: outcome.failed as f64 / outcome.attempted.max(1) as f64,
        mismatches: outcome.mismatches,
        mismatch_notes: outcome.mismatch_notes.clone(),
        end_to_end: outcome.end_to_end.clone(),
        per_class: outcome.named.clone(),
        per_layer: outcome.layers.clone(),
        self_times,
    };
    let results = out_dir.join("results");
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let _ = std::fs::create_dir_all(&results);
    let body = serde_json::to_string_pretty(&result).expect("the result serialises");
    let _ = std::fs::write(results.join(format!("{stem}.json")), &body);
    if let Some(tracer) = &ctx.tracer {
        let _ = tracer.write(&results.join(format!("{stem}.spans.json")));
    }

    println!(
        "perfbench {} seed {} ({} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in &outcome.sizes {
        println!("  size {k} = {v}");
    }
    for (k, v) in &outcome.end_to_end {
        println!("  end-to-end {k} = {v:.4}");
    }
    for (k, v) in &outcome.named {
        println!("  class {k} = {v:.4}");
    }
    for (k, v) in &outcome.layers {
        println!("  layer {k} = {v:.4}");
    }
    for (k, t) in &result.self_times {
        println!("  span {k}: n={} total={:.0}us self={:.0}us", t.count, t.total_us, t.self_us);
    }
    for note in &outcome.mismatch_notes {
        println!("  MISMATCH {note}");
    }
    println!(
        "  attempted {} failed {} error_ratio {:.6} mismatches {}",
        outcome.attempted, outcome.failed, result.error_ratio, outcome.mismatches
    );
    let line =
        Line { correct, attempted: outcome.attempted.max(1), failed: outcome.failed, metrics };
    println!("{}", serde_json::to_string(&line).expect("the result line serialises"));
    if !correct {
        std::process::exit(1);
    }
}
